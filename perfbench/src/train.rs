//! The training workloads: `train_inmem` (one operation = one epoch of
//! `RankTrainer::train_epoch` on a world built in memory) and
//! `train_sharded` (one operation = one slice of `SLICE_EPOCHS` epochs run
//! by `train_from_source` / `resume_from_checkpoint` on a shard store, with
//! spill, the sparse gather and a checkpoint after every epoch).

use crate::check::{self, SERIAL_LOSS_RTOL};
use crate::stats::{median, OpLog};
use crate::trace::{self, Tracer};
use crate::{
    mib, ms_since, peak_rss_mb, workload_index, Ctx, Inputs, LayerMetrics, Outcome, HIDDEN, LAYERS,
};
use plexus::activation::ResidencyPolicy;
use plexus::checkpoint::{Checkpoint, CheckpointPolicy};
use plexus::grid::{roles_for_layer, GridConfig};
use plexus::layer::{CommPlan, TimeSplit};
use plexus::loader::{preprocess_to_store, MemoryLedger, ShardStore};
use plexus::setup::{GlobalProblem, PermutationMode, ProblemMeta, RankData};
use plexus::trainer::{
    resume_from_checkpoint, train_from_source, DistTrainOptions, ProblemSource, RankTrainer,
};
use plexus::DistContext;
use plexus_comm::{run_world, Communicator, ThreadComm};
use plexus_gnn::{SerialTrainer, TrainConfig};
use plexus_sparse::spmm_into;
use plexus_tensor::{gemm, uniform_matrix, Matrix, Trans};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const GRID: (usize, usize, usize) = (2, 2, 2);
/// Epochs per `train_sharded` slice.
pub const SLICE_EPOCHS: usize = 2;
/// Shard grid of the store `preprocess_to_store` writes.
pub const STORE_GRID: usize = 4;
/// Epochs the traced probe of `RankTrainer::from_store` runs.
const PROBE_EPOCHS: usize = 3;
/// `train_inmem` splits its timed phase over this many fresh worlds.
const TRAIN_ROUNDS: usize = 4;

fn grid() -> GridConfig {
    GridConfig::new(GRID.0, GRID.1, GRID.2)
}

/// The in-memory engine options: Resident activations, dense gather.
fn base_opts(cx: &Ctx) -> DistTrainOptions {
    DistTrainOptions {
        hidden_dim: HIDDEN,
        num_layers: LAYERS,
        model_seed: cx.sub_seed(4),
        permutation: PermutationMode::Double,
        perm_seed: cx.sub_seed(5),
        ..Default::default()
    }
}

/// The sharded slice options: every layer cache spilled (a zero budget),
/// the sparse row gather, and (when `ckpt` is set) a checkpoint after
/// every epoch with no silent retries, so a failure counts as one.
fn sharded_opts(cx: &Ctx, ckpt: Option<&std::path::Path>) -> DistTrainOptions {
    DistTrainOptions {
        residency: ResidencyPolicy::Spill { budget_bytes: 0 },
        comm_plan: CommPlan::SparseRows,
        checkpoint: ckpt.map(|d| CheckpointPolicy::new(d).every(1).max_retries(0)),
        ..base_opts(cx)
    }
}

/// Communicator for the trainer's context (a duplicate of the world, as
/// the engine's own worlds do).
fn rank_context(comm: &ThreadComm, opts: &DistTrainOptions) -> DistContext {
    let world = comm.split(0, comm.rank() as u64, "world");
    DistContext::with_spec(world, opts.grid_spec(grid()))
}

/// One rank's view of a timed epoch loop.
#[derive(Default)]
struct EpochLoop {
    epoch_ms: Vec<f64>,
    losses: Vec<f64>,
    timing: Vec<TimeSplit>,
    /// Collective calls and bytes this rank made per epoch (traced only).
    comm: Vec<(usize, usize)>,
    alloc_after_first: u64,
    alloc_at_end: u64,
    ledgers: Vec<MemoryLedger>,
    timed_s: f64,
}

/// Run epochs between world barriers until rank 0 has measured for
/// `seconds` (and at least `min_epochs`); every rank runs the same number.
fn epoch_loop(
    rt: &mut RankTrainer,
    tracer: &Tracer,
    seconds: f64,
    min_epochs: usize,
    stop: &AtomicBool,
) -> EpochLoop {
    let rank = rt.ctx().world.rank();
    let mut out = EpochLoop::default();
    let start = Instant::now();
    loop {
        rt.ctx().world.barrier();
        if stop.load(Ordering::Acquire) {
            break;
        }
        let op = out.losses.len() as u64 + 1;
        if tracer.on() {
            rt.ctx().world.ledger().take();
        }
        let t = Instant::now();
        let st = {
            let _g = (rank == 0).then(|| tracer.span("trainer.train_epoch", op));
            rt.train_epoch()
        };
        rt.ctx().world.barrier();
        let ms = ms_since(t);
        if tracer.on() {
            let events = rt.ctx().world.ledger().take();
            out.comm.push((events.len(), events.iter().map(|e| e.bytes).sum()));
            out.ledgers.push(rt.ledger().clone());
        }
        out.losses.push(st.loss);
        out.epoch_ms.push(ms);
        out.timing.push(st.timing);
        if op == 1 {
            out.alloc_after_first = rt.kernel_alloc_events();
        }
        if rank == 0 && start.elapsed().as_secs_f64() >= seconds && out.losses.len() >= min_epochs {
            stop.store(true, Ordering::Release);
        }
    }
    out.alloc_at_end = rt.kernel_alloc_events();
    out.timed_s = start.elapsed().as_secs_f64();
    out
}

/// What each rank of a set-up world hands back.
struct RankOut {
    setup_s: f64,
    construct_ms: f64,
    epochs: Option<EpochLoop>,
}

pub fn train_inmem(cx: &Ctx, inp: &Inputs) -> Outcome {
    let tr = cx.tracer;
    let opts = base_opts(cx);
    let g = grid();
    let mut setup_s = Vec::new();
    let mut construct_ms = Vec::new();
    let mut result = None;
    let rounds = TRAIN_ROUNDS.min(cx.setup_reps);
    let mut round_loops: Vec<Vec<EpochLoop>> = Vec::new();
    for rep in 0..cx.setup_reps {
        let timed = rep + rounds >= cx.setup_reps;
        let last = rep + 1 == cx.setup_reps;
        let t0 = Instant::now();
        let ds = inp.dataset(tr);
        let gp = {
            let _g = tr.span("setup.problem_build", 0);
            GlobalProblem::build(
                &ds,
                g,
                opts.hidden_dim,
                opts.num_layers,
                opts.model_seed,
                opts.permutation,
                opts.perm_seed,
            )
        };
        let stop = AtomicBool::new(false);
        let per_rank = run_world(g.total(), |comm| {
            let (mut rt, ms) = tr.time("trainer.construct", 0, || {
                RankTrainer::new(&gp, rank_context(comm, &opts), &opts)
            });
            rt.ctx().world.barrier();
            let setup = t0.elapsed().as_secs_f64();
            let epochs =
                timed.then(|| epoch_loop(&mut rt, tr, cx.seconds / rounds as f64, 1, &stop));
            RankOut { setup_s: setup, construct_ms: ms, epochs }
        });
        setup_s.push(per_rank[0].setup_s);
        construct_ms.push(per_rank.iter().map(|r| r.construct_ms).fold(0.0, f64::max));
        if timed {
            round_loops.push(
                per_rank.into_iter().map(|r| r.epochs.expect("timed world ran epochs")).collect(),
            );
        }
        if last {
            let peak = peak_rss_mb();
            result = Some((ds, gp, peak));
        }
    }
    let (ds, gp, peak) = result.expect("at least one set-up");
    let mut ops = OpLog::default();
    for round in &round_loops {
        for &ms in &round[0].epoch_ms {
            ops.record(Ok(ms));
        }
    }

    // Check: in every round all ranks agree bit for bit, every round
    // repeats the same trajectory, and the losses follow the serial
    // trainer on the same graph and seeds.
    let longest =
        round_loops.iter().map(|r| r[0].losses.clone()).max_by_key(|l| l.len()).unwrap_or_default();
    let check = round_loops
        .iter()
        .try_for_each(|round| {
            ranks_agree(round)?;
            check::losses_bitwise(&longest, &round[0].losses)
                .map_err(|e| format!("rounds disagree: {e}"))
        })
        .and_then(|()| {
            let cfg = TrainConfig {
                hidden_dim: HIDDEN,
                num_layers: LAYERS,
                seed: opts.model_seed,
                adam: opts.adam,
                ..Default::default()
            };
            let mut serial = SerialTrainer::new(&ds, &cfg);
            let want: Vec<f64> = serial.train(longest.len()).iter().map(|s| s.loss).collect();
            check::losses_close(&longest, &want, SERIAL_LOSS_RTOL)
        });
    let timed_s: f64 = round_loops.iter().map(|r| r[0].timed_s).sum();
    let loops = round_loops.pop().expect("at least one timed round");

    let mut layers = LayerMetrics::new();
    if tr.on() {
        let spans = tr.spans();
        let w = workload_index("train_inmem");
        layers.insert(
            "graph.normalize_ms",
            (median(&trace::durations_ms(&spans, w, "graph.normalize")), "ms"),
        );
        layers.insert(
            "setup.problem_build_ms",
            (median(&trace::durations_ms(&spans, w, "setup.problem_build")), "ms"),
        );
        layers.insert("trainer.construct_ms", (median(&construct_ms), "ms"));
        epoch_layers(&mut layers, &loops, &trace::durations_ms(&spans, w, "trainer.train_epoch"));
        let (gemm_ms, spmm_ms) = kernel_probe(&gp, cx);
        layers.insert("tensor.gemm_ms", (gemm_ms, "ms"));
        layers.insert("sparse.spmm_ms", (spmm_ms, "ms"));
    }
    Outcome {
        work: ops.latencies_ms.len() as f64,
        work_unit: "epochs",
        timed_s,
        ops,
        setup_s,
        peak_rss_mb: peak,
        check,
        layers,
    }
}

fn ranks_agree(loops: &[EpochLoop]) -> Result<(), String> {
    for (r, l) in loops.iter().enumerate().skip(1) {
        check::losses_bitwise(&l.losses, &loops[0].losses)
            .map_err(|e| format!("rank {r} disagrees with rank 0: {e}"))?;
    }
    Ok(())
}

/// The epoch-path metrics of a traced epoch loop (every rank's loop), with
/// rank 0's `train_epoch` spans.
fn epoch_layers(layers: &mut LayerMetrics, loops: &[EpochLoop], epoch_spans_ms: &[f64]) {
    let rank0 = &loops[0];
    layers.insert("trainer.epoch_ms", (median(epoch_spans_ms), "ms"));
    let compute: Vec<f64> = rank0.timing.iter().map(|t| t.compute_s * 1e3).collect();
    let comm: Vec<f64> = rank0.timing.iter().map(|t| t.comm_s * 1e3).collect();
    layers.insert("layer.compute_ms", (median(&compute), "ms"));
    layers.insert("layer.comm_ms", (median(&comm), "ms"));
    let epochs = rank0.comm.len();
    let calls: Vec<f64> =
        (0..epochs).map(|e| loops.iter().map(|l| l.comm[e].0).sum::<usize>() as f64).collect();
    let bytes: Vec<f64> =
        (0..epochs).map(|e| loops.iter().map(|l| l.comm[e].1 as u64).sum::<u64>() as f64).collect();
    layers.insert("comm.calls_per_epoch", (median(&calls), "count"));
    layers.insert("comm.mb_per_epoch", (median(&bytes) / (1024.0 * 1024.0), "MiB"));
    let growth = rank0.alloc_at_end - rank0.alloc_after_first;
    let per_epoch = growth as f64 / (rank0.losses.len().max(2) - 1) as f64;
    layers.insert("trainer.alloc_events", (per_epoch, "count"));
}

/// Rank 0's layer kernels called directly on its shard shapes: per layer,
/// the aggregation SpMM `H = A_shard * F` and the combination GEMM
/// `Q = H * W_full`. Each is the median of several calls; the metric is
/// the sum over layers.
fn kernel_probe(gp: &GlobalProblem, cx: &Ctx) -> (f64, f64) {
    const REPS: usize = 15;
    let rd = RankData::extract(gp, 0);
    let meta = &gp.meta;
    let (mut gemm_ms, mut spmm_ms) = (0.0, 0.0);
    for (l, a) in rd.a_shards.iter().enumerate() {
        let roles = roles_for_layer(l);
        let din = meta.dims_pad[l] / meta.grid.dim(roles.feat);
        let dout = meta.dims_pad[l + 1] / meta.grid.dim(roles.contract);
        let f = uniform_matrix(a.cols(), din, -0.5, 0.5, cx.sub_seed(20 + l as u64));
        let w = uniform_matrix(din, dout, -0.5, 0.5, cx.sub_seed(30 + l as u64));
        let mut h = Matrix::zeros(a.rows(), din);
        let mut q = Matrix::zeros(a.rows(), dout);
        let spmm: Vec<f64> = (0..REPS)
            .map(|_| cx.tracer.time("sparse.spmm", 0, || spmm_into(a, &f, &mut h)).1)
            .collect();
        let gemms: Vec<f64> = (0..REPS)
            .map(|_| {
                cx.tracer
                    .time("tensor.gemm", 0, || gemm(&mut q, &h, Trans::N, &w, Trans::N, 1.0, 0.0))
                    .1
            })
            .collect();
        std::hint::black_box((&h, &q));
        spmm_ms += median(&spmm);
        gemm_ms += median(&gemms);
    }
    (gemm_ms, spmm_ms)
}

pub fn train_sharded(cx: &Ctx, inp: &Inputs) -> Outcome {
    let tr = cx.tracer;
    let g = grid();
    let probe_opts = sharded_opts(cx, None);
    let mut setup_s = Vec::new();
    let mut construct_ms = Vec::new();
    let mut kept = None;
    for rep in 0..cx.setup_reps {
        let last = rep + 1 == cx.setup_reps;
        let dir = cx.work.join(format!("store-{rep}"));
        let t0 = Instant::now();
        let ds = inp.dataset(tr);
        let store = tr
            .time("loader.preprocess", 0, || {
                preprocess_to_store(
                    &ds,
                    &dir,
                    probe_opts.permutation,
                    probe_opts.perm_seed,
                    STORE_GRID,
                    STORE_GRID,
                )
            })
            .0
            .and_then(|_| tr.time("loader.open", 0, || ShardStore::open(&dir)).0)
            .expect("a freshly written shard store opens");
        let meta = ProblemMeta::from_store(&store, g, HIDDEN, LAYERS);
        let per_rank = run_world(g.total(), |comm| {
            let (rt, ms) = tr.time("trainer.construct", 0, || {
                RankTrainer::from_store(&store, &meta, rank_context(comm, &probe_opts), &probe_opts)
            });
            let rt = rt.unwrap_or_else(|e| panic!("rank {}: shard load failed: {e}", comm.rank()));
            rt.ctx().world.barrier();
            (t0.elapsed().as_secs_f64(), ms)
        });
        setup_s.push(per_rank[0].0);
        construct_ms.push(per_rank.iter().map(|r| r.1).fold(0.0, f64::max));
        if last {
            kept = Some((ds, store, meta));
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (ds, store, meta) = kept.expect("at least one set-up");

    // The timed phase: slices of SLICE_EPOCHS epochs, each rebuilding the
    // world and resuming from the previous slice's checkpoint.
    let ckpt = cx.work.join("checkpoints");
    let opts = sharded_opts(cx, Some(&ckpt));
    let mut ops = OpLog::default();
    let mut histories: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while histories.len() < 2 || start.elapsed().as_secs_f64() < cx.seconds {
        let slice = histories.len();
        let target = (slice + 1) * SLICE_EPOCHS;
        let t = Instant::now();
        let res = {
            let _g = tr.span("trainer.slice", slice as u64 + 1);
            if slice == 0 {
                train_from_source(ProblemSource::Sharded(&store), g, &opts, target)
            } else {
                resume_from_checkpoint(ProblemSource::Sharded(&store), g, &opts, target)
            }
        };
        let ms = ms_since(t);
        // With no retries a failed slice returns an error instead of
        // recovering, so every success is a clean slice.
        match res {
            Ok(r) => {
                histories.push(r.losses());
                ops.record(Ok(ms));
            }
            Err(e) => {
                ops.record(Err(format!("slice {slice}: {e}")));
                break;
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb();

    // Check: each slice's history has its length and extends the ones
    // before it; the first two slices equal a fresh uninterrupted
    // in-memory run (Resident, dense gather, no checkpoints) bit for bit.
    let check = (|| {
        let last = histories.last().ok_or("no slice completed")?;
        for (i, h) in histories.iter().enumerate() {
            if h.len() != (i + 1) * SLICE_EPOCHS {
                return Err(format!("slice {i} returned {} epochs", h.len()));
            }
            check::losses_bitwise(last, h).map_err(|e| format!("slice {i} history: {e}"))?;
        }
        let reference =
            train_from_source(ProblemSource::InMemory(&ds), g, &base_opts(cx), 2 * SLICE_EPOCHS)
                .map_err(|e| format!("in-memory reference run failed: {e}"))?;
        check::losses_bitwise(last, &reference.losses())
            .map_err(|e| format!("sharded slices vs uninterrupted in-memory run: {e}"))
    })();

    let mut layers = LayerMetrics::new();
    if tr.on() {
        let spans = tr.spans();
        let w = workload_index("train_sharded");
        let med = |name: &str| median(&trace::durations_ms(&spans, w, name));
        layers.insert("graph.normalize_ms", (med("graph.normalize"), "ms"));
        layers.insert("loader.preprocess_ms", (med("loader.preprocess"), "ms"));
        layers.insert("loader.open_ms", (med("loader.open"), "ms"));
        layers.insert("loader.store_mb", (mib(store.total_bytes().unwrap_or(0)), "MiB"));

        // Probe: RankTrainer::from_store with the slice options (no
        // checkpoints), then a few epochs, every rank traced.
        let stop = AtomicBool::new(false);
        let probe = run_world(g.total(), |comm| {
            let (rt, ms) = tr.time("trainer.construct", 0, || {
                RankTrainer::from_store(&store, &meta, rank_context(comm, &probe_opts), &probe_opts)
            });
            let mut rt =
                rt.unwrap_or_else(|e| panic!("rank {}: shard load failed: {e}", comm.rank()));
            let ingest = rt.ledger().clone();
            (ms, ingest, epoch_loop(&mut rt, tr, 0.0, PROBE_EPOCHS, &stop))
        });
        construct_ms.push(probe.iter().map(|r| r.0).fold(0.0, f64::max));
        layers.insert("trainer.construct_ms", (median(&construct_ms), "ms"));
        let read: u64 = probe.iter().map(|r| r.1.bytes_read).sum();
        let mapped: u64 = probe.iter().map(|r| r.1.bytes_mapped).sum();
        layers.insert("loader.read_mb", (mib(read), "MiB"));
        layers.insert("loader.mapped_mb", (mib(mapped), "MiB"));
        let loops: Vec<EpochLoop> = probe.into_iter().map(|r| r.2).collect();
        let probe_epoch_spans: Vec<f64> = {
            let all = trace::durations_ms(&tr.spans(), w, "trainer.train_epoch");
            all[all.len().saturating_sub(loops[0].losses.len())..].to_vec()
        };
        epoch_layers(&mut layers, &loops, &probe_epoch_spans);
        let per_epoch = |f: fn(&MemoryLedger) -> u64| -> f64 {
            let e = loops[0].ledgers.len() as u64;
            let total: u64 =
                loops.iter().map(|l| f(&l.ledgers[l.ledgers.len() - 1]) - f(&l.ledgers[0])).sum();
            mib(total / (e - 1).max(1))
        };
        layers.insert("activation.spilled_mb", (per_epoch(|m| m.activation_spilled_bytes), "MiB"));
        layers
            .insert("activation.reloaded_mb", (per_epoch(|m| m.activation_reloaded_bytes), "MiB"));
        let peak_act =
            loops.iter().flat_map(|l| l.ledgers.iter().map(|m| m.peak_activation_bytes)).max();
        layers.insert("activation.peak_mb", (mib(peak_act.unwrap_or(0)), "MiB"));

        let latest = Checkpoint::latest(&ckpt).ok().flatten();
        let save = latest.as_ref().map_or(0, |ck| crate::disk_bytes(ck.dir()));
        layers.insert("checkpoint.save_mb", (mib(save), "MiB"));
        let loads: Vec<f64> = (0..5)
            .map(|_| {
                tr.time("checkpoint.load", 0, || {
                    let ck =
                        Checkpoint::latest(&ckpt).ok().flatten().expect("a published checkpoint");
                    (0..g.total()).for_each(|r| {
                        std::hint::black_box(ck.load_rank(r).expect("checkpoint rank file loads"));
                    })
                })
                .1
            })
            .collect();
        layers.insert("checkpoint.load_ms", (median(&loads), "ms"));
        let slice_p50 = median(&ops.latencies_ms);
        layers.insert(
            "trainer.slice_overhead_ms",
            (slice_p50 - SLICE_EPOCHS as f64 * layers["trainer.epoch_ms"].0, "ms"),
        );
        layers.insert("checkpoint.disk_mb", (mib(crate::disk_bytes(&ckpt)), "MiB"));
    }
    let work = histories.last().map_or(0, |h| h.len()) as f64;
    Outcome { ops, setup_s, work, work_unit: "epochs", timed_s, peak_rss_mb: peak, check, layers }
}
