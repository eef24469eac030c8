//! Seeded generators for the serve workloads' query ids. The benchmark
//! draws ids itself, so the program under test sees only node ids.

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// id stream on every platform and in every later version of the program.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Consecutive, disjoint batches of a seeded permutation: no id is ever
/// handed out twice.
pub struct DistinctIds {
    perm: Vec<u32>,
    next: usize,
}

impl DistinctIds {
    pub fn new(n: usize, seed: u64) -> Self {
        DistinctIds { perm: permutation(n, seed), next: 0 }
    }

    /// The next `b` unused ids, or `None` once fewer than `b` remain.
    pub fn batch(&mut self, b: usize) -> Option<Vec<u32>> {
        let end = self.next + b;
        let out = self.perm.get(self.next..end)?.to_vec();
        self.next = end;
        Some(out)
    }
}

/// Zipf-popular ids: popularity rank `k` (0-based) is drawn with weight
/// `1 / (k + 1)^exponent`, and ranks map to node ids through a seeded
/// permutation, so the hot set is not simply the low (high-degree RMAT)
/// ids.
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
    rng: SplitMix64,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += ((k + 1) as f64).powf(-exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, ids: permutation(n, seed ^ 0x5a5a_5a5a), rng: SplitMix64::new(seed) }
    }

    pub fn draw(&mut self) -> u32 {
        let u = self.rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.ids[rank]
    }

    pub fn batch(&mut self, b: usize) -> Vec<u32> {
        (0..b).map(|_| self.draw()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(1000, 7);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..1000).collect::<Vec<u32>>());
        assert_ne!(p, permutation(1000, 8));
    }

    #[test]
    fn distinct_ids_never_repeat_and_stop_when_exhausted() {
        let mut ids = DistinctIds::new(100, 3);
        let mut seen = HashSet::new();
        while let Some(b) = ids.batch(8) {
            assert_eq!(b.len(), 8);
            for v in b {
                assert!(seen.insert(v), "id {v} handed out twice");
            }
        }
        assert_eq!(seen.len(), 96, "stops once fewer than a batch remain");
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let a = Zipf::new(5000, 1.1, 11).batch(500);
        let b = Zipf::new(5000, 1.1, 11).batch(500);
        let c = Zipf::new(5000, 1.1, 12).batch(500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| v < 5000));
    }

    #[test]
    fn zipf_concentrates_on_the_top_rank() {
        let mut z = Zipf::new(1000, 1.1, 5);
        let top = z.ids[0];
        let draws = z.batch(20_000);
        let hits = draws.iter().filter(|&&v| v == top).count() as f64 / 20_000.0;
        // Rank 0's share is 1 / H(1000, 1.1) ~ 0.17.
        assert!((0.14..0.21).contains(&hits), "top-rank share {hits}");
    }
}
