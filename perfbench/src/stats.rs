//! Order statistics and operation counting for the benchmark's reports.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every reported metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples strictly above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

/// Samples a tail percentile must leave above it to be worth reporting.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: sorted ascending, the sample at index `n - 11` has ten
/// samples beyond it, and no higher sample does. `None` below eleven
/// samples, where no percentile has ten beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let i = n - 1 - TAIL_BEYOND;
    Some(Tail { value: s[i], percentile: 100.0 * (i + 1) as f64 / n as f64, beyond: n - 1 - i })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Latencies of the operations that succeeded, plus the attempted and
/// failed counts.
#[derive(Default, Debug)]
pub struct OpLog {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    /// Record one operation: its latency when it succeeded, or a failure.
    pub fn record(&mut self, outcome: Result<f64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(ms) => self.latencies_ms.push(ms),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation {} failed: {}", self.attempted, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond() {
        // 1..=100 shuffled: the value with ten beyond it is 90, at p90.
        let xs: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 1000 samples: p99, still ten beyond.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn oplog_counts_failures_against_attempts() {
        let mut log = OpLog::default();
        log.record(Ok(1.5));
        log.record(Err("boom".into()));
        log.record(Ok(2.5));
        assert_eq!((log.attempted, log.failed), (3, 1));
        assert_eq!(log.latencies_ms, vec![1.5, 2.5]);
    }
}
