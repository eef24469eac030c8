//! End-to-end benchmark of the Plexus training and serving paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_inmem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `train_inmem`, `train_sharded`,
//! `serve_cold`, `serve_zipf` (see README.md). With `--trace 0` the last
//! line of standard output is a JSON object holding the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics, and the spans are
//! written to `.perfbench_out/trace-<workload>-<seed>.json` (Perfetto).
//! Scratch files (shard stores, checkpoints, artifacts, spill files) live
//! in `.perfbench_work/` and are removed before the program exits.

mod check;
mod ids;
mod serve;
mod stats;
mod trace;
mod train;

use plexus_graph::{
    degree_based_labels, rmat_edge_chunks, train_val_test_masks, DatasetKind, DatasetSpec, Graph,
    LoadedDataset, Split,
};
use plexus_tensor::{uniform_matrix, Matrix};
use stats::OpLog;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The input every workload is built from: an RMAT products-like graph of
/// `2^scale` nodes. Serving runs on a graph twice as large, so that a
/// `serve_cold` run never runs out of ids it has not sent.
pub const TRAIN_SCALE: u32 = 14;
pub const SERVE_SCALE: u32 = 15;
pub const EDGE_FACTOR: usize = 8;
pub const FEATURES: usize = 32;
pub const HIDDEN: usize = 32;
pub const CLASSES: usize = 16;
pub const LAYERS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["train_inmem", "train_sharded", "serve_cold", "serve_zipf"];

/// Index of a workload in [`WORKLOADS`]: the tag its spans carry.
pub fn workload_index(name: &str) -> usize {
    WORKLOADS.iter().position(|w| *w == name).expect("known workload")
}

/// Everything a workload run needs besides its inputs.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Set-ups performed; `setup_s` is their median.
    pub setup_reps: usize,
    pub tracer: &'a Tracer,
    /// Scratch directory of this run (inside the checkout).
    pub work: PathBuf,
}

impl Ctx<'_> {
    /// A seed for one purpose, derived from the workload seed (kept below
    /// 2^40 so the program's `seed + layer` arithmetic cannot overflow).
    pub fn sub_seed(&self, purpose: u64) -> u64 {
        let mut rng = ids::SplitMix64::new(self.seed ^ purpose.wrapping_mul(0x9e37_79b9));
        rng.next_u64() >> 24
    }
}

/// The in-memory inputs: the edge list and everything derived from the
/// seed that is not part of set-up (features, labels, split).
pub struct Inputs {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
    pub features: Matrix,
    pub labels: Vec<u32>,
    pub split: Split,
}

impl Inputs {
    pub fn generate(cx: &Ctx, scale: u32) -> Inputs {
        let n = 1usize << scale;
        let edges: Vec<(u32, u32)> =
            rmat_edge_chunks(scale, EDGE_FACTOR, cx.sub_seed(1), 1 << 20).flatten().collect();
        let labels = degree_based_labels(&Graph::from_undirected(n, &edges), CLASSES);
        Inputs {
            n,
            features: uniform_matrix(n, FEATURES, -0.5, 0.5, cx.sub_seed(2)),
            labels,
            split: train_val_test_masks(n, 0.6, 0.2, cx.sub_seed(3)),
            edges,
        }
    }

    /// The set-up's first step: the graph from the edge list and its
    /// normalised adjacency, assembled into a dataset.
    pub fn dataset(&self, tracer: &Tracer) -> LoadedDataset {
        let graph = {
            let _g = tracer.span("graph.build", 0);
            Graph::from_undirected(self.n, &self.edges)
        };
        let adjacency = {
            let _g = tracer.span("graph.normalize", 0);
            graph.normalized_adjacency()
        };
        let spec = DatasetSpec {
            kind: DatasetKind::OgbnProducts,
            name: "rmat-products",
            nodes: self.n,
            edges: graph.num_edges(),
            nonzeros: adjacency.nnz(),
            features: FEATURES,
            classes: CLASSES,
        };
        LoadedDataset {
            spec,
            graph,
            adjacency,
            features: self.features.clone(),
            labels: self.labels.clone(),
            split: self.split.clone(),
            num_classes: CLASSES,
        }
    }
}

/// Per-layer metrics of a traced run: name -> (value, unit).
pub type LayerMetrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What one workload run measured.
pub struct Outcome {
    pub ops: OpLog,
    pub setup_s: Vec<f64>,
    /// Work completed in the timed phase (epochs or answered queries).
    pub work: f64,
    pub work_unit: &'static str,
    pub timed_s: f64,
    pub peak_rss_mb: f64,
    pub check: Result<(), String>,
    pub layers: LayerMetrics,
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes under `path`, recursively.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else { return 0 };
    if !meta.is_dir() {
        return meta.len();
    }
    std::fs::read_dir(path).map(|rd| rd.flatten().map(|e| disk_bytes(&e.path())).sum()).unwrap_or(0)
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn run_workload(name: &str, cx: &Ctx) -> Outcome {
    let scale = if name.starts_with("train") { TRAIN_SCALE } else { SERVE_SCALE };
    let inputs = Inputs::generate(cx, scale);
    match name {
        "train_inmem" => train::train_inmem(cx, &inputs),
        "train_sharded" => train::train_sharded(cx, &inputs),
        "serve_cold" => serve::serve(cx, &inputs, serve::Stream::Cold),
        "serve_zipf" => serve::serve(cx, &inputs, serve::Stream::Zipf),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory is readable");
    let work = root.join(".perfbench_work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("scratch directory can be created");
    let _scratch = Scratch(work.clone());
    // Spill files of the activation store go under TMPDIR: keep them in
    // the run's scratch directory. Set before any thread starts.
    std::env::set_var("TMPDIR", &work);

    let tracer = Tracer::new(args.trace);
    let own = workload_index(&args.workload);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let cx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        setup_reps: setup_reps(&args.workload),
        tracer: &tracer,
        work: work.join(&args.workload),
    };
    tracer.set_workload(own);
    let outcome = run_workload(&args.workload, &cx);
    let mut correct = report_end_to_end(&args.workload, &outcome);

    let metrics = if args.trace {
        println!("end-to-end (traced run): {}", metrics_json(&end_to_end(&outcome)));
        // A traced run also drives the other workloads briefly, so every
        // per-layer metric is measured; its own workload's figures win.
        let mut layers = LayerMetrics::new();
        for (i, w) in WORKLOADS.iter().enumerate().filter(|&(i, _)| i != own) {
            tracer.set_workload(i);
            let cx = Ctx { seconds: 1.0, setup_reps: 1, work: work.join(w), ..cx };
            let o = run_workload(w, &cx);
            println!("companion {w}: {} ops, check {}", o.ops.attempted, check_label(&o.check));
            correct &= o.check.is_ok() && o.ops.failed == 0;
            layers.extend(o.layers);
        }
        layers.extend(outcome.layers.clone());
        report_layers(&tracer, &layers);
        let path = root.join(".perfbench_out");
        let _ = std::fs::create_dir_all(&path);
        let file = path.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&file, trace::chrome_json(&tracer.spans(), &WORKLOADS)) {
            Ok(()) => {
                println!("trace: {} spans written to {}", tracer.spans().len(), file.display())
            }
            Err(e) => println!("trace: could not write {}: {e}", file.display()),
        }
        layers
    } else {
        end_to_end(&outcome)
    };

    // A metric that could not be measured is printed as null and fails
    // the run.
    correct &= metrics.values().all(|(v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        outcome.ops.attempted,
        outcome.ops.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

/// Set-ups per run: enough that the median holds within its bound (short
/// set-ups swing more, so the serve set-up is repeated more often).
fn setup_reps(workload: &str) -> usize {
    match workload {
        "train_inmem" | "train_sharded" => 9,
        _ => 15,
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_json(metrics: &LayerMetrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn check_label(c: &Result<(), String>) -> String {
    match c {
        Ok(()) => "ok".into(),
        Err(e) => format!("FAILED: {e}"),
    }
}

/// The five end-to-end metrics of a run.
fn end_to_end(o: &Outcome) -> LayerMetrics {
    let lat = &o.ops.latencies_ms;
    let p50 = if lat.is_empty() { f64::NAN } else { stats::median(lat) };
    let tail = stats::tail(lat).map_or(lat.iter().copied().fold(f64::NAN, f64::max), |t| t.value);
    LayerMetrics::from([
        ("setup_s", (stats::median(&o.setup_s), "s")),
        ("p50_ms", (p50, "ms")),
        ("tail_ms", (tail, "ms")),
        ("rate_per_s", (o.work / o.timed_s, "1/s")),
        ("peak_rss_mb", (o.peak_rss_mb, "MiB")),
    ])
}

/// Print every end-to-end metric with its unit and sample count; returns
/// whether the run's outputs checked out.
fn report_end_to_end(workload: &str, o: &Outcome) -> bool {
    let m = end_to_end(o);
    let n = o.ops.latencies_ms.len();
    println!("{workload}: end-to-end");
    println!("  setup_s      {:>12.4} s     median of {} set-ups", m["setup_s"].0, o.setup_s.len());
    println!("  p50_ms       {:>12.4} ms    median of {n} operations", m["p50_ms"].0);
    match stats::tail(&o.ops.latencies_ms) {
        Some(t) => println!(
            "  tail_ms      {:>12.4} ms    p{:.1} of {n} operations, {} beyond it",
            t.value, t.percentile, t.beyond
        ),
        None => println!(
            "  tail_ms      {:>12.4} ms    maximum: {n} operations are too few for a percentile",
            m["tail_ms"].0
        ),
    }
    println!(
        "  rate_per_s   {:>12.4} 1/s   {} {} in {:.3} s",
        m["rate_per_s"].0, o.work, o.work_unit, o.timed_s
    );
    println!(
        "  peak_rss_mb  {:>12.2} MiB   VmHWM at the end of the timed phase",
        m["peak_rss_mb"].0
    );
    println!(
        "  attempted {} failed {}; check {}",
        o.ops.attempted,
        o.ops.failed,
        check_label(&o.check)
    );
    o.check.is_ok() && o.ops.failed == 0 && n > 0
}

fn report_layers(tracer: &Tracer, layers: &LayerMetrics) {
    println!("per-layer metrics:");
    for (k, (v, u)) in layers {
        println!("  {k:<32} {v:>14.4} {u}");
    }
    let spans = spans_by_workload(tracer);
    println!("self time per span and per layer (the span name's prefix), summed over threads:");
    println!("  {:<14} {:<28} {:>8} {:>12}", "workload", "span", "count", "self_ms");
    for (w, spans) in spans.iter().enumerate() {
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, (count, ms)) in trace::self_time_ms(spans) {
            println!("  {:<14} {name:<28} {count:>8} {ms:>12.3}", WORKLOADS[w]);
            *by_layer.entry(name.split('.').next().unwrap_or(name)).or_default() += ms;
        }
        for (layer, ms) in by_layer {
            println!(
                "  {:<14} {:<28} {:>8} {ms:>12.3}",
                WORKLOADS[w],
                format!("{layer} (layer)"),
                ""
            );
        }
    }
}

/// The recorded spans, split by the workload that recorded them.
fn spans_by_workload(tracer: &Tracer) -> Vec<Vec<trace::Span>> {
    let mut out = vec![Vec::new(); WORKLOADS.len()];
    for s in tracer.spans() {
        out[s.workload].push(s);
    }
    out
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
