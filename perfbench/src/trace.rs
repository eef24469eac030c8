//! The traced run's span recorder. Spans are opened by the benchmark's own
//! code around each call into a layer of the program; they are kept in
//! memory and written out once, at the end, as Chrome trace-event JSON
//! (which Perfetto opens). A disabled tracer records nothing: `span`
//! returns an inert guard without reading the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The operation (epoch, slice or query call) the span belongs to;
    /// `0` for set-up and probes outside the operation loop.
    pub op: u64,
    /// Which workload's run recorded the span (the Perfetto process).
    pub workload: usize,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    workload: AtomicU64,
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// A span that is still open.
struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    start_us: f64,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    live: Option<Open<'a>>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(Open { tracer, id, parent, name, op, start_us }) = self.live.take() {
            let end_us = tracer.now_us();
            OPEN.with(|o| o.borrow_mut().pop());
            let span = Span {
                id,
                parent,
                name,
                op,
                workload: tracer.workload.load(Ordering::Relaxed) as usize,
                thread: THREAD.with(|t| *t),
                start_us,
                end_us,
            };
            tracer.spans.lock().expect("span log poisoned").push(span);
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            workload: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tag the spans recorded from now on with workload index `w`.
    pub fn set_workload(&self, w: usize) {
        self.workload.store(w as u64, Ordering::Relaxed);
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span named `name` for operation `op`; it closes when the
    /// guard drops. Its parent is the innermost span open on this thread.
    pub fn span(&self, name: &'static str, op: u64) -> Guard<'_> {
        if !self.on {
            return Guard { live: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        Guard { live: Some(Open { tracer: self, id, parent, name, op, start_us: self.now_us() }) }
    }

    /// Run `f` inside a span and return its result with the span's length
    /// in milliseconds (timed whether or not spans are recorded).
    pub fn time<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let _g = self.span(name, op);
        let t = Instant::now();
        let r = f();
        (r, t.elapsed().as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Durations in milliseconds of every span named `name` recorded by
/// workload `workload`.
pub fn durations_ms(spans: &[Span], workload: usize, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.workload == workload && s.name == name)
        .map(|s| s.dur_us() / 1e3)
        .collect()
}

/// Self time per span name, in milliseconds: each span's length minus the
/// part of it its child spans cover (children never overlap their parent's
/// other children on one thread, so their lengths add).
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us();
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for s in spans {
        let own = s.dur_us() - child_us.get(&s.id).copied().unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own / 1e3;
    }
    out
}

/// Chrome trace-event JSON ("X" complete events, microseconds): one
/// process per workload, one track per recording thread.
pub fn chrome_json(spans: &[Span], workload_names: &[&str]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (pid, name) in workload_names.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for s in spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.workload,
            s.thread,
            s.start_us,
            s.dur_us(),
            s.id,
            parent,
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _a = t.span("a.outer", 1);
            let _b = t.span("b.inner", 1);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let t = Tracer::new(true);
        {
            let _a = t.span("a.outer", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _b = t.span("b.inner", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.op, 7);
        let st = self_time_ms(&spans);
        let own_outer = st["a.outer"].1;
        assert!((own_outer - (outer.dur_us() - inner.dur_us()) / 1e3).abs() < 1e-9);
        let json = chrome_json(&spans, &["w"]);
        assert!(json.contains("\"name\":\"b.inner\"") && json.contains("\"ph\":\"X\""));
    }
}
