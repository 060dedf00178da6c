//! The three workloads. Each generates its input from the seed before any
//! clock starts, measures for the requested time (untraced) or runs the
//! traced pass and the ledger passes (traced), and checks its output
//! against an oracle before it reports anything.

use crate::common::{
    closed_queries, copy_dir, ensure, fail, merged, mix, newest_checkpoint_mb, ns_since,
    peak_rss_mb, query_key, recall, saved, table_bits, top_bits, Metrics, Res, RunDir, Served,
    SWEEP_LIMIT_PAIRS,
};
use crate::durable::{durable_pass, recover_only, relaunch, DurableRun, DurableSetup};
use crate::estimator::{checkpoint, estimator_pass, EstRun};
use crate::layers::{self, DurFigures, ServeFigures};
use crate::ledger::{merge_ms, replay, sweep_ns_per_pair, Replay};
use crate::serve::{oracle, panic_recovery, serve_pass, ServeSetup};
use crate::stats::{Dist, Tally};
use crate::trace::{append, Span, Tracer};
use crate::{hyper_of, Args};
use ascs_core::{
    AscsConfig, CovarianceEstimator, HyperParameters, Sample, ServeOptions, ServingEstimator,
    SketchBackend, SketchGeometry, Snapshot,
};
use ascs_datasets::{SimulatedDataset, SimulationSpec, TrillionScaleDataset, TrillionSpec};
use std::time::{Duration, Instant};

/// Everything a run reports.
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Extra figures for the detail line (a JSON object body).
    pub detail: Vec<(String, String)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// Closed-loop point queries of a per-layer read probe.
const CLOSED_QUERIES: u64 = 16384;
/// Closed-loop point queries against each final state of the workloads
/// that have no concurrent reader: after every batch pass, and per reader
/// thread after every durable relaunch.
const STATE_QUERIES: u64 = 16384;
/// Samples of the short serving and durable probes run on the input of a
/// workload that does not exercise those layers itself.
const PROBE_SAMPLES: usize = 256;

fn median(v: &[f64]) -> f64 {
    Dist::new(v.to_vec()).median().unwrap_or(0.0)
}

/// Sets `<name>_p50_<unit>` and `<name>_p99_<unit>` from `ns` values,
/// scaled by `per_unit` ns; fails when the sample cannot support a p99.
fn set_p50_p99(
    m: &mut Metrics,
    p50: &'static str,
    p99: &'static str,
    ns: &[f64],
    per_unit: f64,
    unit: &'static str,
) -> Res<()> {
    let d = Dist::new(ns.to_vec());
    m.set(p50, d.median().unwrap_or(0.0) / per_unit, unit);
    let tail = d
        .p99()
        .map_err(|e| crate::common::BenchError(format!("{p99}: {e}")))?;
    m.set(p99, tail / per_unit, unit);
    Ok(())
}

fn time_solve(cfg: &AscsConfig) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let c = Instant::now();
            std::hint::black_box(hyper_of(cfg));
            ns_since(c)
        })
        .collect();
    median(&times) / 1e6
}

/// `<name>_quartiles` (first, second and third quartile of `ns`, scaled by
/// `per_unit` ns) and `<name>_count`.
fn quartiles_detail(detail: &mut Vec<(String, String)>, name: &str, ns: &[f64], per_unit: f64) {
    let d = Dist::new(ns.to_vec());
    let q: Vec<f64> = [0.25, 0.5, 0.75]
        .iter()
        .map(|&q| d.quantile(q).unwrap_or(0.0) / per_unit)
        .collect();
    detail.push((format!("{name}_quartiles"), format!("{q:?}")));
    detail.push((format!("{name}_count"), ns.len().to_string()));
}

fn lateness_detail(detail: &mut Vec<(String, String)>, who: &str, late_ns: &[f64]) {
    let (share, max_ms) = crate::common::lateness(late_ns);
    detail.push((format!("{who}_late_share"), format!("{share}")));
    detail.push((format!("{who}_max_late_ms"), format!("{max_ms}")));
    detail.push((format!("{who}_ops"), format!("{}", late_ns.len())));
}

/// Closed-loop reads against one snapshot: point queries, a top-k read
/// every 64 and a sweep every 4096 (the whole universe when it is small
/// enough, else `estimate_many` over its first 2^18 keys).
struct ClosedReads {
    point_ns: Vec<f64>,
    topk_ns: Vec<f64>,
    sweep_ns: Vec<f64>,
}

impl ClosedReads {
    /// Reads of every shape.
    fn count(&self) -> usize {
        self.point_ns.len() + self.topk_ns.len() + self.sweep_ns.len()
    }
}

fn closed_reads(snap: &Snapshot, pairs: u64, seed: u64, n: u64) -> ClosedReads {
    let mut r = ClosedReads {
        point_ns: Vec::new(),
        topk_ns: Vec::new(),
        sweep_ns: Vec::new(),
    };
    let partial = (pairs > SWEEP_LIMIT_PAIRS).then(|| snap.sketch().build_plan(1 << 18));
    let mut out = Vec::new();
    for i in 0..n {
        let c = Instant::now();
        std::hint::black_box(snap.estimate(query_key(seed, i, pairs)));
        r.point_ns.push(ns_since(c));
        if i % 64 == 0 {
            let c = Instant::now();
            std::hint::black_box(snap.top_pairs(16));
            r.topk_ns.push(ns_since(c));
        }
        if i % 4096 == 2048 {
            let c = Instant::now();
            match &partial {
                Some(plan) => {
                    out.clear();
                    snap.sketch().estimate_many(plan, &mut out);
                }
                None => out = snap.all_estimates(),
            }
            std::hint::black_box(&out);
            r.sweep_ns.push(ns_since(c));
        }
    }
    r
}

/// Checks a replay's kernel and sharded-apply states against the served
/// state: per-shard sketches byte-identical, merged table, counters and
/// top list bit-identical.
fn check_replay_served(r: &Replay, truth: &Served) -> Res<()> {
    ensure(saved(&r.kernel)? == saved(r.sharded.workers())?, || {
        "kernel replay and sharded apply disagree".into()
    })?;
    let replayed = Served {
        epoch: truth.epoch,
        table: table_bits(&merged(&r.kernel)),
        counts: (r.sharded.inserted_updates(), r.sharded.skipped_updates()),
        top: top_bits(&r.sharded.top_pairs()),
    };
    replayed.check(truth, "ledger replay vs served state")
}

/// The estimator ledger on a sharded backend: its state must equal the
/// sharded replay's workers byte for byte.
fn check_estimator_sharded(e: &EstRun, r: &Replay) -> Res<()> {
    let ckpt = checkpoint(&e.est)?;
    ensure(ckpt.ends_with(&saved(r.sharded.workers())?), || {
        "estimator ledger state differs from the sharded replay".into()
    })
}

/// The durability layer on `samples`: a traced durable pass on `dir` and an
/// in-memory pass at the same rate (the WAL share of an ingest is the
/// difference of the two), recovery on a copy of the crashed directory,
/// and explicit checkpoints on a relaunched copy.
fn durability_figures(
    setup: &DurableSetup,
    run: &DurableRun,
    inmem: &DurableRun,
    dir: &std::path::Path,
    rundir: &RunDir,
) -> Res<DurFigures> {
    let truth = Served::of_snapshot(&run.last);
    let checkpoint_mb = newest_checkpoint_mb(dir)?;
    let copy = rundir.sub("recover-copy");
    copy_dir(dir, &copy)?;
    let (recover_ns, replayed) = recover_only(setup, &copy, truth.epoch)?;
    let again = rundir.sub("checkpoint-copy");
    copy_dir(dir, &again)?;
    let (_, _, mut serving) = relaunch(setup, &again, &truth)?;
    let mut checkpoint_ns = run.boundary_ns.clone();
    for _ in 0..3 {
        let c = Instant::now();
        serving
            .persist_checkpoint()
            .map_err(fail("explicit checkpoint"))?;
        checkpoint_ns.push(ns_since(c));
    }
    serving.shutdown();
    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&again);
    Ok(DurFigures {
        wal_us: (median(&run.try_ok_ns) - median(&inmem.try_ok_ns)) / 1e3,
        records: run.health.wal_records,
        syncs: run.health.wal_syncs,
        checkpoint_ns,
        checkpoint_mb,
        recover_ns,
        replayed,
        retries: run.health.persistence_retries,
        failures: run.health.checkpoint_failures,
    })
}

/// Short durable and in-memory closed-loop probes on a prefix of a
/// workload's input, for workloads that do not persist.
fn durability_probe(
    cfg: &AscsConfig,
    hp: &HyperParameters,
    samples: &[Sample],
    rundir: &RunDir,
    origin: Instant,
    spans: &mut Vec<Span>,
) -> Res<DurFigures> {
    let prefix = &samples[..PROBE_SAMPLES.min(samples.len())];
    let setup = DurableSetup {
        cfg: *cfg,
        hp: *hp,
        opts: ServeOptions::default(),
        checkpoint_every: (prefix.len() / 4) as u64,
        rate: None,
    };
    let dir = rundir.sub("durable-probe");
    let mut t = Tracer::new(true, origin, 2);
    let run = durable_pass(&setup, prefix, Some(&dir), &mut t)?;
    let mut t_mem = Tracer::new(true, origin, 3);
    let inmem = durable_pass(&setup, prefix, None, &mut t_mem)?;
    append(spans, t.into_spans());
    append(spans, t_mem.into_spans());
    let figures = durability_figures(&setup, &run, &inmem, &dir, rundir)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(figures)
}

// ---------------------------------------------------------------------
// batch_dense
// ---------------------------------------------------------------------

const BATCH_DIM: u64 = 256;
const BATCH_SAMPLES: u64 = 1024;
/// Checkpoint → resume recoveries timed after each pass.
const BATCH_RECOVERIES: usize = 5;

fn batch_input(seed: u64) -> (AscsConfig, Vec<Sample>, Vec<u64>) {
    let ds = SimulatedDataset::new(SimulationSpec {
        dim: BATCH_DIM,
        alpha: 0.0118,
        rho_min: 0.5,
        rho_max: 0.95,
        block_size: 4,
        seed,
    });
    let samples = ds.samples_par(0, BATCH_SAMPLES as usize, 2);
    let cfg = AscsConfig {
        alpha: ds.realised_alpha(),
        seed: mix(seed),
        ..AscsConfig::recommended(BATCH_DIM, BATCH_SAMPLES, SketchGeometry::new(5, 32768))
    };
    (cfg, samples, ds.signal_keys())
}

/// The batch check: the estimator's state (table, counters, tracker) must
/// serialize exactly like the sketch the kernel replay built.
fn check_batch(est: &CovarianceEstimator, r: &Replay) -> Res<()> {
    let ckpt = checkpoint(est)?;
    ensure(ckpt.ends_with(&saved(&r.kernel)?), || {
        "estimator state differs from the kernel replay".into()
    })?;
    let kernel = &r.kernel[0];
    ensure(
        est.update_counts() == (kernel.inserted_updates(), kernel.skipped_updates()),
        || "estimator gate counters differ from the kernel replay".into(),
    )?;
    let top: Vec<u64> = est.top_pairs(usize::MAX).iter().map(|p| p.key).collect();
    let want: Vec<u64> = kernel.top_pairs().iter().map(|&(k, _)| k).collect();
    ensure(top == want, || {
        "estimator top list differs from the kernel replay".into()
    })
}

pub fn batch_dense(args: &Args, rundir: &RunDir) -> Res<Outcome> {
    let origin = Instant::now();
    let (cfg, samples, planted) = batch_input(args.seed);
    let backend = SketchBackend::Ascs;
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut detail = Vec::new();
    let mut spans = Vec::new();
    let mut setup_ns: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let c = Instant::now();
            let (mut est, _) = CovarianceEstimator::new_or_fallback(cfg, backend);
            let _ = est.attach_ingestion_plan();
            std::hint::black_box(&est);
            ns_since(c)
        })
        .collect();
    let pairs = cfg.num_pairs();
    if !args.trace {
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let (mut rates, mut process_ns, mut query_ns, mut recovery_ns) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<(Vec<u8>, EstRun)> = None;
        while first.is_none() || rates.len() < MIN_PASSES || Instant::now() < deadline {
            let mut off = Tracer::new(false, origin, 0);
            let run = estimator_pass(cfg, backend, &samples, &planted, &mut off)?;
            tally.merge(run.tally);
            setup_ns.push(run.setup_ns);
            rates.push(samples.len() as f64 / (run.wall_ns / 1e9));
            process_ns.extend_from_slice(&run.process_ns);
            let (times, bad) = closed_queries(STATE_QUERIES, |i| {
                run.est.estimate_key(query_key(args.seed, i, pairs))
            });
            query_ns.extend(times);
            tally.attempted += STATE_QUERIES;
            tally.failed += bad;
            // Recovery: from the persisted state back to answering at the
            // same epoch.
            let bytes = checkpoint(&run.est)?;
            for _ in 0..BATCH_RECOVERIES {
                let c = Instant::now();
                let mut resumed =
                    CovarianceEstimator::resume(&mut bytes.as_slice()).map_err(fail("resume"))?;
                resumed
                    .attach_ingestion_plan()
                    .map_err(fail("re-attach the plan"))?;
                let top = resumed.top_pairs(planted.len());
                recovery_ns.push(ns_since(c));
                let keys: Vec<u64> = top.iter().map(|p| p.key).collect();
                ensure(
                    keys == run.top_keys && checkpoint(&resumed)? == bytes,
                    || "the resumed estimator differs from the one checkpointed".into(),
                )?;
            }
            match &first {
                None => first = Some((bytes, run)),
                Some((b, _)) => ensure(*b == bytes, || "passes over the same input differ".into())?,
            }
        }
        let (_, run) = first.expect("one pass ran");
        let rss = peak_rss_mb()?;
        let hp = *run.est.hyperparameters().expect("ASCS backend");
        check_batch(&run.est, &replay(&cfg, &hp, 1, 0, &samples)?)?;
        metrics.set("samples_per_s", median(&rates), "samples/s");
        set_p50_p99(
            &mut metrics,
            "visible_p50_ms",
            "visible_p99_ms",
            &process_ns,
            1e6,
            "ms",
        )?;
        set_p50_p99(
            &mut metrics,
            "ack_p50_ms",
            "ack_p99_ms",
            &process_ns,
            1e6,
            "ms",
        )?;
        set_p50_p99(
            &mut metrics,
            "query_p50_us",
            "query_p99_us",
            &query_ns,
            1e3,
            "us",
        )?;
        metrics.set("top_recall", recall(&run.top_keys, &planted), "fraction");
        metrics.set("recovery_s", median(&recovery_ns) / 1e9, "s");
        metrics.set("setup_s", median(&setup_ns) / 1e9, "s");
        metrics.set("peak_rss_mb", rss, "MiB");
        metrics.set("ok_share", 1.0 - tally.failed_share(), "fraction");
        detail.push(("pass_rates".into(), format!("{rates:.1?}")));
    } else {
        let mut off = Tracer::new(false, origin, 0);
        let plain = estimator_pass(cfg, backend, &samples, &planted, &mut off)?;
        let mut tracer = Tracer::new(true, origin, 0);
        let run = estimator_pass(cfg, backend, &samples, &planted, &mut tracer)?;
        tally.merge(run.tally);
        let own = tracer.into_spans();
        let hp = *run.est.hyperparameters().expect("ASCS backend");
        let r = replay(&cfg, &hp, 1, 2, &samples)?;
        check_batch(&run.est, &r)?;
        ensure(
            r.sharded.inserted_updates() + r.sharded.skipped_updates() == r.updates,
            || "the sharded apply lost updates".into(),
        )?;
        let (merge, table) = merge_ms(&r.kernel);
        layers::replay(&mut metrics, &r, merge, sweep_ns_per_pair(&table, pairs));
        layers::accept(&mut metrics, run.est.update_counts());
        layers::estimator(&mut metrics, &run);
        metrics.set("hyper.solve_ms", time_solve(&cfg), "ms");
        // Serving and durability are not part of this workload: short
        // probes on a prefix of its input give their (light) figures.
        let prefix = &samples[..PROBE_SAMPLES];
        let setup = ServeSetup {
            cfg,
            opts: ServeOptions::default(),
            refresh_every: 64,
            reader_rate: 0.0,
            seed: args.seed,
        };
        let mut t = Tracer::new(true, origin, 2);
        let s = serve_pass(&setup, prefix, &mut t, origin)?;
        Served::of_snapshot(&s.last).check(&oracle(&cfg, &hp, 2, prefix), "serving probe")?;
        append(&mut spans, t.into_spans());
        layers::serve(
            &mut metrics,
            &ServeFigures {
                launch_ns: s.launch_ns,
                try_ok_ns: &s.log.try_ok_ns,
                backpressure_ns: s.log.backpressure_ns,
                samples: s.accepted,
                overload_rejections: s.overload_rejections,
                refresh_ns: &s.refresh_ns,
                drain_ns: s.drain_ns,
            },
        );
        let reads = closed_reads(&s.last, pairs, args.seed, CLOSED_QUERIES);
        layers::reads(
            &mut metrics,
            &reads.point_ns,
            &reads.topk_ns,
            &reads.sweep_ns,
            reads.count(),
        )?;
        let d = durability_probe(&cfg, &hp, &samples, rundir, origin, &mut spans)?;
        layers::durability(&mut metrics, &d);
        metrics.set(
            "ledger.attributed_share",
            layers::attributed_share(&own),
            "fraction",
        );
        metrics.set(
            "trace.overhead_share",
            run.wall_ns / plain.wall_ns - 1.0,
            "fraction",
        );
        append(&mut spans, own);
    }
    Ok(Outcome {
        metrics,
        tally,
        detail,
        spans,
    })
}

// ---------------------------------------------------------------------
// serve_dense_rw
// ---------------------------------------------------------------------

const RW_DIM: u64 = 128;
const RW_SAMPLES: u64 = 2048;
const RW_READER_RATE: f64 = 2000.0;
const RW_REFRESH_EVERY: u64 = 256;
/// Worker-panic recoveries and launches timed after every pass, so that
/// `recovery_s` and `setup_s` are medians over the whole run, not over a
/// burst at one end of it. Each recovery runs on the first
/// [`RW_RECOVERY_SAMPLES`] samples, two checkpoint intervals of the default
/// `ServeOptions`: the panicked worker restores one checkpoint and replays
/// a full interval of batches.
const RW_RECOVERIES_PER_PASS: usize = 4;
const RW_LAUNCHES_PER_PASS: usize = 4;
const RW_RECOVERY_SAMPLES: usize = 64;
/// Input streams an untraced run rotates through, one per pass. How far
/// the shard workers fall behind the producer, and so the peak memory,
/// depends on the stream; a run over several streams reports figures that
/// depend less on which seed drew them. Stream 0 is the traced run's input.
const RW_STREAMS: u64 = 4;

fn rw_input(seed: u64) -> (ServeSetup, Vec<Sample>, Vec<u64>) {
    let ds = SimulatedDataset::new(SimulationSpec {
        dim: RW_DIM,
        alpha: 0.0236,
        rho_min: 0.5,
        rho_max: 0.95,
        block_size: 4,
        seed,
    });
    let samples = ds.samples_par(0, RW_SAMPLES as usize, 2);
    let cfg = AscsConfig {
        alpha: ds.realised_alpha(),
        seed: mix(seed),
        ..AscsConfig::recommended(RW_DIM, RW_SAMPLES, SketchGeometry::new(5, 32768))
    };
    let setup = ServeSetup {
        cfg,
        opts: ServeOptions::default(),
        refresh_every: RW_REFRESH_EVERY,
        reader_rate: RW_READER_RATE,
        seed,
    };
    (setup, samples, ds.signal_keys())
}

/// One input stream of `serve_dense_rw` and the oracle's states after it
/// and after its recovery prefix.
struct RwStream {
    setup: ServeSetup,
    hp: HyperParameters,
    samples: Vec<Sample>,
    planted: Vec<u64>,
    truth: Served,
    prefix_truth: Served,
}

impl RwStream {
    /// Stream `k` of `seed`; stream 0 is drawn from `seed` itself.
    fn new(seed: u64, k: u64) -> Self {
        let (setup, samples, planted) = rw_input(seed ^ (k << 32));
        let hp = hyper_of(&setup.cfg);
        let truth = oracle(&setup.cfg, &hp, setup.opts.shards, &samples);
        let prefix = &samples[..RW_RECOVERY_SAMPLES];
        let prefix_truth = oracle(&setup.cfg, &hp, setup.opts.shards, prefix);
        Self {
            setup,
            hp,
            samples,
            planted,
            truth,
            prefix_truth,
        }
    }
}

fn time_launches(cfg: AscsConfig, opts: ServeOptions, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let c = Instant::now();
            let serving = ServingEstimator::launch(cfg, opts);
            let ns = ns_since(c);
            serving.shutdown();
            ns
        })
        .collect()
}

pub fn serve_dense_rw(args: &Args, rundir: &RunDir) -> Res<Outcome> {
    let origin = Instant::now();
    let first = RwStream::new(args.seed, 0);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut detail = Vec::new();
    let mut spans = Vec::new();
    let mut setup_ns = time_launches(first.setup.cfg, first.setup.opts, SETUP_REPS);
    if !args.trace {
        let streams: Vec<RwStream> = std::iter::once(first)
            .chain((1..RW_STREAMS).map(|k| RwStream::new(args.seed, k)))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let (mut rates, mut visible, mut ack, mut query, mut late) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut recovery, mut recalls) = (Vec::new(), Vec::new());
        while rates.len() < MIN_PASSES || Instant::now() < deadline {
            let s = &streams[rates.len() % streams.len()];
            let mut off = Tracer::new(false, origin, 0);
            let run = serve_pass(&s.setup, &s.samples, &mut off, origin)?;
            Served::of_snapshot(&run.last).check(&s.truth, "final snapshot")?;
            tally.merge(run.log.tally);
            tally.merge(run.reads.tally);
            setup_ns.push(run.launch_ns);
            rates.push(run.accepted as f64 / (run.wall_ns / 1e9));
            visible.extend(run.visible_ns);
            ack.extend(run.ack_ns);
            query.extend(run.reads.query_ns);
            late.extend(run.reads.late_ns);
            let top: Vec<u64> = run
                .last
                .top_pairs(s.planted.len())
                .iter()
                .map(|p| p.key)
                .collect();
            recalls.push(recall(&top, &s.planted));
            let prefix = &s.samples[..RW_RECOVERY_SAMPLES];
            for _ in 0..RW_RECOVERIES_PER_PASS {
                recovery.push(panic_recovery(&s.setup, prefix, &s.prefix_truth)?);
            }
            setup_ns.extend(time_launches(
                s.setup.cfg,
                s.setup.opts,
                RW_LAUNCHES_PER_PASS,
            ));
        }
        let rss = peak_rss_mb()?;
        metrics.set("samples_per_s", median(&rates), "samples/s");
        set_p50_p99(
            &mut metrics,
            "visible_p50_ms",
            "visible_p99_ms",
            &visible,
            1e6,
            "ms",
        )?;
        set_p50_p99(&mut metrics, "ack_p50_ms", "ack_p99_ms", &ack, 1e6, "ms")?;
        set_p50_p99(
            &mut metrics,
            "query_p50_us",
            "query_p99_us",
            &query,
            1e3,
            "us",
        )?;
        metrics.set("top_recall", median(&recalls), "fraction");
        metrics.set("recovery_s", median(&recovery) / 1e9, "s");
        metrics.set("setup_s", median(&setup_ns) / 1e9, "s");
        metrics.set("peak_rss_mb", rss, "MiB");
        metrics.set("ok_share", 1.0 - tally.failed_share(), "fraction");
        detail.push(("pass_rates".into(), format!("{rates:.1?}")));
        quartiles_detail(&mut detail, "recovery_ms", &recovery, 1e6);
        quartiles_detail(&mut detail, "setup_ms", &setup_ns, 1e6);
        lateness_detail(&mut detail, "reader", &late);
    } else {
        let RwStream {
            setup,
            hp,
            samples,
            planted,
            truth,
            ..
        } = first;
        let (cfg, shards) = (setup.cfg, setup.opts.shards);
        let mut off = Tracer::new(false, origin, 0);
        let plain = serve_pass(&setup, &samples, &mut off, origin)?;
        Served::of_snapshot(&plain.last).check(&truth, "final snapshot")?;
        let mut tracer = Tracer::new(true, origin, 0);
        let run = serve_pass(&setup, &samples, &mut tracer, origin)?;
        Served::of_snapshot(&run.last).check(&truth, "final snapshot (traced)")?;
        tally.merge(run.log.tally);
        tally.merge(run.reads.tally);
        let own = tracer.into_spans();
        let r = replay(&cfg, &hp, shards, shards, &samples)?;
        check_replay_served(&r, &truth)?;
        let (merge, table) = merge_ms(&r.kernel);
        layers::replay(
            &mut metrics,
            &r,
            merge,
            sweep_ns_per_pair(&table, cfg.num_pairs()),
        );
        layers::accept(&mut metrics, run.last.update_counts());
        let mut t = Tracer::new(true, origin, 2);
        let e = estimator_pass(
            cfg,
            SketchBackend::ShardedAscs { shards },
            &samples,
            &planted,
            &mut t,
        )?;
        check_estimator_sharded(&e, &r)?;
        append(&mut spans, t.into_spans());
        layers::estimator(&mut metrics, &e);
        metrics.set("hyper.solve_ms", time_solve(&cfg), "ms");
        layers::serve(
            &mut metrics,
            &ServeFigures {
                launch_ns: run.launch_ns,
                try_ok_ns: &run.log.try_ok_ns,
                backpressure_ns: run.log.backpressure_ns,
                samples: run.accepted,
                overload_rejections: run.overload_rejections,
                refresh_ns: &run.refresh_ns,
                drain_ns: run.drain_ns,
            },
        );
        layers::reads(
            &mut metrics,
            &run.reads.point_ns,
            &run.reads.topk_ns,
            &run.reads.sweep_ns,
            run.reads.count(),
        )?;
        let d = durability_probe(&cfg, &hp, &samples, rundir, origin, &mut spans)?;
        layers::durability(&mut metrics, &d);
        metrics.set(
            "ledger.attributed_share",
            layers::attributed_share(&own),
            "fraction",
        );
        metrics.set(
            "trace.overhead_share",
            run.wall_ns / plain.wall_ns - 1.0,
            "fraction",
        );
        lateness_detail(&mut detail, "reader", &run.reads.late_ns);
        append(&mut spans, own);
        append(&mut spans, run.reads.spans);
    }
    Ok(Outcome {
        metrics,
        tally,
        detail,
        spans,
    })
}

// ---------------------------------------------------------------------
// serve_sparse_durable
// ---------------------------------------------------------------------

const DUR_DIM: u64 = 100_000;
const DUR_RATE: f64 = 100.0;
const DUR_CHECKPOINT_EVERY: u64 = 128;
/// Cold relaunches timed per run, each on its own copy of the crashed
/// directory. Each relaunch restores the tables into freshly allocated
/// memory, and the sub-µs query times after it differ from relaunch to
/// relaunch; more relaunches average over more of them.
const DUR_RELAUNCHES: usize = 15;
/// Samples of the in-memory pass the WAL cost is measured against.
const DUR_INMEM_SAMPLES: usize = 512;

fn durable_input(seed: u64, seconds: u64) -> (DurableSetup, Vec<Sample>, Vec<u64>) {
    let ds = TrillionScaleDataset::new(TrillionSpec::url_like(DUR_DIM, seed));
    let n = (DUR_RATE * seconds as f64) as u64;
    let samples = ds.samples_par(n as usize, 2);
    let planted = ds.signal_keys();
    let cfg = AscsConfig {
        alpha: planted.len() as f64 / ds.num_pairs() as f64,
        seed: mix(seed),
        ..AscsConfig::recommended(DUR_DIM, n, SketchGeometry::new(5, 65536))
    };
    let setup = DurableSetup {
        cfg,
        hp: hyper_of(&cfg),
        opts: ServeOptions::default(),
        checkpoint_every: DUR_CHECKPOINT_EVERY,
        rate: Some(DUR_RATE),
    };
    (setup, samples, planted)
}

pub fn serve_sparse_durable(args: &Args, rundir: &RunDir) -> Res<Outcome> {
    let origin = Instant::now();
    let (setup, samples, planted) = durable_input(args.seed, args.seconds);
    let cfg = setup.cfg;
    let pairs = cfg.num_pairs();
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut detail = Vec::new();
    let mut spans = Vec::new();
    // Set-up: Algorithm 3, then a launch on an empty directory.
    let setup_ns: Vec<f64> = (0..SETUP_REPS)
        .map(|i| {
            let dir = rundir.sub(&format!("setup-{i}"));
            let c = Instant::now();
            let s = DurableSetup {
                hp: hyper_of(&cfg),
                ..setup
            };
            let serving = s.launch(Some(&dir))?;
            let ns = ns_since(c);
            serving.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            Ok(ns)
        })
        .collect::<Res<_>>()?;
    let dir = rundir.sub("data");
    let mut tracer = Tracer::new(args.trace, origin, 0);
    let plain = if args.trace {
        let plain_dir = rundir.sub("data-untraced");
        let mut off = Tracer::new(false, origin, 0);
        let plain = durable_pass(&setup, &samples, Some(&plain_dir), &mut off)?;
        let _ = std::fs::remove_dir_all(&plain_dir);
        Some(plain)
    } else {
        None
    };
    let run = durable_pass(&setup, &samples, Some(&dir), &mut tracer)?;
    tally.merge(run.tally);
    let pre_crash = Served::of_snapshot(&run.last);
    // Cold relaunches, each on a copy of the crashed directory.
    let (mut recovery_ns, mut query_ns) = (Vec::new(), Vec::new());
    let mut recovered = None;
    for i in 0..DUR_RELAUNCHES {
        let copy = rundir.sub(&format!("relaunch-{i}"));
        copy_dir(&dir, &copy)?;
        let (ns, snap, serving) = relaunch(&setup, &copy, &pre_crash)?;
        tally.ok();
        // Two closed-loop readers, one per core, query the relaunched
        // snapshot at once.
        let readers: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|r| {
                    let snap = &snap;
                    let seed = args.seed ^ mix(r);
                    scope.spawn(move || {
                        closed_queries(STATE_QUERIES, |i| snap.estimate(query_key(seed, i, pairs)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread panicked"))
                .collect()
        });
        for (times, bad) in readers {
            query_ns.extend(times);
            tally.attempted += STATE_QUERIES;
            tally.failed += bad;
        }
        serving.shutdown();
        let _ = std::fs::remove_dir_all(&copy);
        recovery_ns.push(ns);
        recovered = Some(snap);
    }
    let recovered = recovered.expect("one relaunch ran");
    let rss = peak_rss_mb()?;
    let truth = oracle(&cfg, &setup.hp, setup.opts.shards, &samples);
    pre_crash.check(&truth, "final snapshot")?;
    let top: Vec<u64> = recovered
        .top_pairs(usize::MAX)
        .iter()
        .map(|p| p.key)
        .collect();
    let before: Vec<u64> = run
        .last
        .top_pairs(usize::MAX)
        .iter()
        .map(|p| p.key)
        .collect();
    lateness_detail(&mut detail, "generator", &run.late_ns);
    quartiles_detail(&mut detail, "checkpoint_ms", &run.boundary_ns, 1e6);
    quartiles_detail(&mut detail, "relaunch_ms", &recovery_ns, 1e6);
    detail.push(("planted_recall".into(), recall(&top, &planted).to_string()));
    if !args.trace {
        metrics.set(
            "samples_per_s",
            run.ack_ns.len() as f64 / (run.wall_ns / 1e9),
            "samples/s",
        );
        set_p50_p99(
            &mut metrics,
            "visible_p50_ms",
            "visible_p99_ms",
            &run.visible_ns,
            1e6,
            "ms",
        )?;
        set_p50_p99(
            &mut metrics,
            "ack_p50_ms",
            "ack_p99_ms",
            &run.ack_ns,
            1e6,
            "ms",
        )?;
        set_p50_p99(
            &mut metrics,
            "query_p50_us",
            "query_p99_us",
            &query_ns,
            1e3,
            "us",
        )?;
        // Planted group pairs are not the large entries of this surrogate's
        // correlation matrix (chance co-occurrences of rare features also
        // read as correlation 1), so recall here is that of the answer a
        // user held before the crash: the pre-crash top list, reported
        // again after the relaunch.
        metrics.set("top_recall", recall(&top, &before), "fraction");
        metrics.set("recovery_s", median(&recovery_ns) / 1e9, "s");
        metrics.set("setup_s", median(&setup_ns) / 1e9, "s");
        metrics.set("peak_rss_mb", rss, "MiB");
        metrics.set("ok_share", 1.0 - tally.failed_share(), "fraction");
    } else {
        let own = tracer.into_spans();
        let mut t_mem = Tracer::new(true, origin, 3);
        let inmem = durable_pass(
            &setup,
            &samples[..DUR_INMEM_SAMPLES.min(samples.len())],
            None,
            &mut t_mem,
        )?;
        append(&mut spans, t_mem.into_spans());
        let d = durability_figures(&setup, &run, &inmem, &dir, rundir)?;
        layers::durability(&mut metrics, &d);
        let hp = setup.hp;
        let shards = setup.opts.shards;
        let r = replay(&cfg, &hp, shards, shards, &samples)?;
        check_replay_served(&r, &truth)?;
        let (merge, table) = merge_ms(&r.kernel);
        layers::replay(&mut metrics, &r, merge, sweep_ns_per_pair(&table, pairs));
        layers::accept(&mut metrics, run.last.update_counts());
        let mut t = Tracer::new(true, origin, 2);
        let e = estimator_pass(
            cfg,
            SketchBackend::ShardedAscs { shards },
            &samples,
            &planted,
            &mut t,
        )?;
        check_estimator_sharded(&e, &r)?;
        append(&mut spans, t.into_spans());
        layers::estimator(&mut metrics, &e);
        metrics.set("hyper.solve_ms", time_solve(&cfg), "ms");
        layers::serve(
            &mut metrics,
            &ServeFigures {
                launch_ns: run.launch_ns,
                try_ok_ns: &run.try_ok_ns,
                backpressure_ns: run.backpressure_ns,
                samples: run.ack_ns.len() as u64,
                overload_rejections: run.overload_rejections,
                refresh_ns: &[run.refresh_ns],
                drain_ns: run.drain_ns,
            },
        );
        let reads = closed_reads(&recovered, pairs, args.seed, CLOSED_QUERIES);
        layers::reads(
            &mut metrics,
            &reads.point_ns,
            &reads.topk_ns,
            &reads.sweep_ns,
            reads.count(),
        )?;
        metrics.set(
            "ledger.attributed_share",
            layers::attributed_share(&own),
            "fraction",
        );
        let plain = plain.expect("traced runs make an untraced pass");
        let busy = |r: &DurableRun| r.wall_ns - r.idle_ns;
        metrics.set(
            "trace.overhead_share",
            busy(&run) / busy(&plain) - 1.0,
            "fraction",
        );
        append(&mut spans, own);
    }
    Ok(Outcome {
        metrics,
        tally,
        detail,
        spans,
    })
}
