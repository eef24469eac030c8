//! The serving workloads. One client thread runs a closed loop of
//! `Server::query_many` calls of `BATCH` ids against an artifact written by
//! `freeze`: `serve_cold` sends ids no call has sent before, `serve_zipf`
//! sends Zipf-popular ids and publishes and reloads a new model version
//! every `RELOAD_EVERY` calls.

use crate::check;
use crate::ids::{DistinctIds, Zipf};
use crate::stats::{median, OpLog};
use crate::trace;
use crate::{mib, ms_since, peak_rss_mb, Ctx, Inputs, LayerMetrics, Outcome, HIDDEN, LAYERS};
use plexus_gnn::{Gcn, SerialTrainer, TrainConfig};
use plexus_graph::KhopWorkspace;
use plexus_serve::{
    freeze, publish, Artifact, Prediction, QueryEngine, ServeConfig, Server, SubmitPolicy,
};
use plexus_tensor::Matrix;
use std::time::Instant;

/// Ids per `query_many` call.
pub const BATCH: usize = 8;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// `serve_zipf` publishes and reloads a new version every this many calls.
pub const RELOAD_EVERY: usize = 50;
/// Distinct weight sets `serve_zipf` cycles through as it publishes.
pub const WEIGHT_SETS: usize = 4;
/// Serial epochs before the first weight set is taken.
pub const PRETRAIN_EPOCHS: usize = 2;
/// Shard grid of the frozen adjacency.
pub const ARTIFACT_GRID: usize = 4;
/// Calls (the last of the run) replayed directly through the engine and
/// the k-hop kernels in a traced run.
const SAMPLE_CALLS: usize = 40;

#[derive(Clone, Copy, PartialEq)]
pub enum Stream {
    Cold,
    Zipf,
}

fn config() -> ServeConfig {
    ServeConfig { submit: SubmitPolicy::Block, ..Default::default() }
}

/// One model version's weights and input features, with the logits of the
/// full-graph forward that every answer is checked against.
struct WeightSet {
    gcn: Gcn,
    features: Matrix,
    reference: Matrix,
}

struct Call {
    ids: Vec<u32>,
    version: u64,
    preds: Vec<Prediction>,
    ms: f64,
}

pub fn serve(cx: &Ctx, inp: &Inputs, stream: Stream) -> Outcome {
    let tr = cx.tracer;
    let ds = inp.dataset(tr);
    let cfg = TrainConfig {
        hidden_dim: HIDDEN,
        num_layers: LAYERS,
        seed: cx.sub_seed(4),
        ..Default::default()
    };
    let mut trainer = SerialTrainer::new(&ds, &cfg);
    trainer.train(PRETRAIN_EPOCHS);
    let n_sets = if stream == Stream::Zipf { WEIGHT_SETS } else { 1 };
    let sets: Vec<WeightSet> = (0..n_sets)
        .map(|i| {
            if i > 0 {
                trainer.train(1);
            }
            let gcn = Gcn::from_parts(trainer.model.config.clone(), trainer.model.weights.clone());
            let reference = gcn.forward(&ds.adjacency, &trainer.features).logits;
            WeightSet { gcn, features: trainer.features.clone(), reference }
        })
        .collect();
    drop(trainer);

    // Set-up: freeze the first weight set and start a server on it.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..cx.setup_reps {
        let dir = cx.work.join(format!("artifact-{rep}"));
        let t0 = Instant::now();
        tr.time("artifact.freeze", 0, || {
            freeze(
                &dir,
                &ds.adjacency,
                &sets[0].gcn,
                &sets[0].features,
                ARTIFACT_GRID,
                ARTIFACT_GRID,
            )
        })
        .0
        .expect("freeze writes the artifact");
        let server = tr
            .time("server.start", 0, || Server::start(&dir, config()))
            .0
            .expect("the frozen artifact serves");
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == cx.setup_reps {
            kept = Some((dir, server));
        } else {
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (dir, server) = kept.expect("at least one set-up");

    // The timed phase.
    let mut distinct = DistinctIds::new(inp.n, cx.sub_seed(6));
    let mut zipf = Zipf::new(inp.n, ZIPF_EXPONENT, cx.sub_seed(7));
    let mut ops = OpLog::default();
    let mut calls: Vec<Call> = Vec::new();
    let mut version = 1u64;
    let mut reload_error = None;
    // A Zipf run lasts past its first reload however short it is, so the
    // publish and reload layers are always measured.
    let min_calls = if stream == Stream::Zipf { RELOAD_EVERY + 1 } else { 1 };
    let start = Instant::now();
    while calls.len() < min_calls || start.elapsed().as_secs_f64() < cx.seconds {
        let op = calls.len() as u64 + 1;
        if stream == Stream::Zipf && !calls.is_empty() && calls.len().is_multiple_of(RELOAD_EVERY) {
            let set = &sets[version as usize % n_sets];
            let published =
                tr.time("artifact.publish", op, || publish(&dir, &set.gcn, &set.features)).0;
            let reloaded = tr.time("server.reload", op, || server.reload_latest()).0;
            match (published, reloaded) {
                (Ok(v), Ok(Some(r))) if v == version + 1 && r == v => version = v,
                other => {
                    reload_error =
                        Some(format!("publish/reload after call {}: {other:?}", calls.len()));
                    break;
                }
            }
        }
        let ids = match stream {
            Stream::Cold => {
                match distinct.batch(BATCH) {
                    Some(ids) => ids,
                    None => {
                        println!("serve_cold: every node id has been queried; the timed phase ends early");
                        break;
                    }
                }
            }
            Stream::Zipf => zipf.batch(BATCH),
        };
        let t = Instant::now();
        let preds = {
            let _g = tr.span("server.query_many", op);
            server.query_many(&ids)
        };
        let ms = ms_since(t);
        ops.record(Ok(ms));
        calls.push(Call { ids, version, preds, ms });
    }
    let timed_s = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb();

    // Check: every answer carries the version current at its call and
    // its logits equal that version's full-graph forward bit for bit.
    let check = reload_error.map_or(Ok(()), Err).and_then(|()| {
        for (i, c) in calls.iter().enumerate() {
            if c.preds.len() != c.ids.len() {
                return Err(format!("call {i}: {} answers for {} ids", c.preds.len(), c.ids.len()));
            }
            let want = &sets[(c.version - 1) as usize % n_sets].reference;
            for (p, &id) in c.preds.iter().zip(&c.ids) {
                if p.node != id || p.model_version != c.version {
                    return Err(format!(
                        "call {i}: answer for node {} v{} where node {id} v{} was asked",
                        p.node, p.model_version, c.version
                    ));
                }
                check::logits_bitwise(id, &p.logits, want.row(id as usize))
                    .map_err(|e| format!("call {i}: {e}"))?;
            }
        }
        Ok(())
    });

    let answered: usize = calls.iter().map(|c| c.preds.len()).sum();
    let mut layers = LayerMetrics::new();
    if tr.on() {
        let w =
            crate::workload_index(if stream == Stream::Cold { "serve_cold" } else { "serve_zipf" });
        let spans = tr.spans();
        let med = |name: &str| median(&trace::durations_ms(&spans, w, name));
        layers.insert("graph.normalize_ms", (med("graph.normalize"), "ms"));
        layers.insert("artifact.freeze_ms", (med("artifact.freeze"), "ms"));
        let opens: Vec<f64> = (0..5)
            .map(|_| {
                tr.time("artifact.open", 0, || Artifact::open(&dir).expect("artifact reopens")).1
            })
            .collect();
        layers.insert("artifact.open_ms", (median(&opens), "ms"));
        let st = server.stats();
        layers.insert("server.batch_size", (st.served as f64 / st.batches.max(1) as f64, "count"));
        layers.insert("artifact.disk_mb", (mib(crate::disk_bytes(&dir)), "MiB"));
        // The direct replays take the last calls, which met a warm server;
        // the op ids tie each replay to its `server.query_many` span.
        let first = calls.len().saturating_sub(SAMPLE_CALLS);
        let sample = &calls[first..];
        let op_of = |i: usize| (first + i) as u64 + 1;
        let snap = server.artifact().snapshot();
        match stream {
            Stream::Cold => {
                let mut ws = KhopWorkspace::new();
                let art = server.artifact();
                let (mut extract, mut field) = (Vec::new(), Vec::new());
                let mut cold = QueryEngine::without_cache(LAYERS);
                let (mut predict, mut overhead) = (Vec::new(), Vec::new());
                // One untimed call sizes the workspaces, as the server's
                // earlier calls did for its own.
                ws.khop_node_sets(art, &sample[0].ids, LAYERS);
                cold.predict_batch(art, &snap, &sample[0].ids);
                for (i, c) in sample.iter().enumerate() {
                    let op = op_of(i);
                    let (sets, ms) = tr.time("khop.extract", op, || {
                        let sets = ws.khop_node_sets(art, &c.ids, LAYERS);
                        let subs: Vec<_> = (0..LAYERS)
                            .map(|l| ws.extract_sub_csr(art, &sets[l + 1], &sets[l]))
                            .collect();
                        std::hint::black_box(subs);
                        sets
                    });
                    extract.push(ms);
                    field.push(sets[0].len() as f64);
                    let (_, ms) = tr
                        .time("engine.predict_cold", op, || cold.predict_batch(art, &snap, &c.ids));
                    predict.push(ms);
                    overhead.push(c.ms - ms);
                }
                layers.insert("khop.extract_ms", (median(&extract), "ms"));
                layers.insert("khop.field_nodes", (median(&field), "count"));
                layers.insert("engine.predict_cold_ms", (median(&predict), "ms"));
                layers.insert("server.overhead_ms", (median(&overhead), "ms"));
            }
            Stream::Zipf => {
                let mut warm = QueryEngine::new(LAYERS);
                let art = server.artifact();
                let predict: Vec<f64> = sample
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        tr.time("engine.predict", op_of(i), || {
                            warm.predict_batch(art, &snap, &c.ids)
                        })
                        .1
                    })
                    .collect();
                layers.insert("engine.predict_ms", (median(&predict), "ms"));
                let ext = server.extraction_stats();
                let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
                let queries = st.cache_hits + st.served;
                println!(
                    "serve_zipf bases: {} queries ({} prediction-cache hits), {} block lookups, {} support lookups, {} calls ({} all-hit), {} reloads",
                    queries,
                    st.cache_hits,
                    ext.block_hits + ext.block_misses,
                    ext.support_hits + ext.support_misses,
                    calls.len(),
                    all_hit_calls(&calls),
                    st.reloads
                );
                layers.insert("server.pred_hit_ratio", (ratio(st.cache_hits, st.served), "ratio"));
                layers.insert(
                    "extraction.block_hit_ratio",
                    (ratio(ext.block_hits, ext.block_misses), "ratio"),
                );
                layers.insert(
                    "extraction.support_hit_ratio",
                    (ratio(ext.support_hits, ext.support_misses), "ratio"),
                );
                layers.insert("extraction.evicted", (ext.evicted as f64, "count"));
                layers.insert("extraction.mb", (mib(ext.bytes), "MiB"));
                layers.insert("artifact.publish_ms", (med("artifact.publish"), "ms"));
                layers.insert("server.reload_ms", (med("server.reload"), "ms"));
            }
        }
    }
    drop(server);
    Outcome {
        ops,
        setup_s,
        work: answered as f64,
        work_unit: "queries",
        timed_s,
        peak_rss_mb: peak,
        check,
        layers,
    }
}

/// Calls whose every id was already answered under the same model version
/// by an earlier call: the server answers those from its prediction cache
/// on the caller's thread.
fn all_hit_calls(calls: &[Call]) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut version = 0;
    let mut n = 0;
    for c in calls {
        if c.version != version {
            seen.clear();
            version = c.version;
        }
        n += c.ids.iter().all(|id| seen.contains(id)) as usize;
        seen.extend(c.ids.iter().copied());
    }
    n
}
