//! One pass of the read/write serving workload: a closed-loop producer
//! with periodic publishes and an optional paced reader thread, plus the
//! worker-panic recovery probe.

use crate::common::{
    ensure, fail, ns_between, ns_since, query_key, BenchError, Pacer, Res, Served,
    SWEEP_LIMIT_PAIRS,
};
use crate::stats::Tally;
use crate::trace::{Span, Tracer};
use ascs_core::{
    AscsConfig, HyperParameters, IngestError, Sample, ServeOptions, ServingEstimator, Snapshot,
    StreamContext,
};
use ascs_testkit::{FaultPlan, ReplayOracle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one serving pass runs.
#[derive(Clone, Copy)]
pub struct ServeSetup {
    pub cfg: AscsConfig,
    pub opts: ServeOptions,
    /// Publish a snapshot after every this many samples (and after the
    /// last one).
    pub refresh_every: u64,
    /// Point queries per second of the reader thread (0 = no reader).
    pub reader_rate: f64,
    /// Seed of the reader's query keys.
    pub seed: u64,
}

/// Reader-side measurements.
#[derive(Default)]
pub struct Reads {
    /// Point queries: scheduled time → answer, ns.
    pub query_ns: Vec<f64>,
    /// Point queries: call time of `Snapshot::estimate`, ns.
    pub point_ns: Vec<f64>,
    /// `Snapshot::top_pairs` call times, ns.
    pub topk_ns: Vec<f64>,
    /// `Snapshot::all_estimates` call times, ns.
    pub sweep_ns: Vec<f64>,
    /// How late each query started, ns.
    pub late_ns: Vec<f64>,
    /// Reads attempted and failed (a non-finite answer fails).
    pub tally: Tally,
    /// The reader thread's spans.
    pub spans: Vec<Span>,
}

impl Reads {
    /// Reads of every shape.
    pub fn count(&self) -> usize {
        self.point_ns.len() + self.topk_ns.len() + self.sweep_ns.len()
    }
}

/// Producer-side measurements of one pass.
pub struct ServeRun {
    /// `ServingEstimator::launch` (Algorithm 3 solve + worker spawn), ns.
    pub launch_ns: f64,
    /// First ingest → publish covering the last sample, ns.
    pub wall_ns: f64,
    /// Per sample: ingest returned → first publish covering it, ns.
    pub visible_ns: Vec<f64>,
    /// Per sample: ingest call → return (closed loop), ns.
    pub ack_ns: Vec<f64>,
    /// `refresh_snapshot` call times, ns.
    pub refresh_ns: Vec<f64>,
    /// Last accept → the publish covering it, ns.
    pub drain_ns: f64,
    /// `stats().overload_rejections` at the end.
    pub overload_rejections: u64,
    /// Samples accepted.
    pub accepted: u64,
    /// The last published snapshot.
    pub last: Arc<Snapshot>,
    /// Ingest and refresh outcomes, first-attempt and backpressure times.
    pub log: IngestLog,
    /// Reader thread results.
    pub reads: Reads,
}

/// What the producer side records per offered sample.
#[derive(Default)]
pub struct IngestLog {
    /// Ingest outcomes.
    pub tally: Tally,
    /// Successful first `try_ingest` attempts, ns (traced passes only).
    pub try_ok_ns: Vec<f64>,
    /// Time in rejected attempts and in the blocking retries after them.
    pub backpressure_ns: f64,
}

/// Offers one sample. Untraced, through `ingest_blocking`; traced, a first
/// `try_ingest` is timed on its own and an `Overloaded` falls back to
/// `ingest_blocking`, timed as backpressure.
pub fn offer(
    serving: &mut ServingEstimator,
    sample: &Sample,
    t: u64,
    span_name: &'static str,
    tracer: &mut Tracer,
    log: &mut IngestLog,
) -> bool {
    let outcome = if tracer.enabled() {
        let c = Instant::now();
        let first = tracer.span(span_name, t, || serving.try_ingest(sample));
        let first_ns = ns_since(c);
        log.tally.ingest(&first);
        match first {
            Err(IngestError::Overloaded { .. }) => {
                let b = Instant::now();
                let retried =
                    tracer.span("serve.backpressure", t, || serving.ingest_blocking(sample));
                log.backpressure_ns += first_ns + ns_since(b);
                log.tally.ingest(&retried);
                retried
            }
            other => {
                if other.is_ok() {
                    log.try_ok_ns.push(first_ns);
                }
                other
            }
        }
    } else {
        let r = serving.ingest_blocking(sample);
        log.tally.ingest(&r);
        r
    };
    outcome.is_ok()
}

/// Runs the paced reader until `stop`.
fn reader_loop(
    reader: ascs_core::SnapshotReader,
    stop: &AtomicBool,
    setup: &ServeSetup,
    origin: Instant,
    trace: bool,
) -> Reads {
    let pairs = setup.cfg.num_pairs();
    let mut tracer = Tracer::new(trace, origin, 1);
    let mut reads = Reads::default();
    let mut pacer = Pacer::new(Instant::now(), setup.reader_rate);
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let due = pacer.wait(i);
        let view = reader.current();
        let key = query_key(setup.seed, i, pairs);
        let c = Instant::now();
        let est = tracer.span("snapshot.estimate", view.snapshot.epoch(), || {
            std::hint::black_box(view.snapshot.estimate(key))
        });
        let answered = Instant::now();
        reads.point_ns.push(ns_between(c, answered));
        reads.query_ns.push(ns_between(due, answered));
        if est.is_finite() {
            reads.tally.ok();
        } else {
            reads.tally.fail();
        }
        if i.is_multiple_of(64) {
            let c = Instant::now();
            let top = tracer.span("snapshot.top_pairs", view.snapshot.epoch(), || {
                view.snapshot.top_pairs(16)
            });
            reads.topk_ns.push(ns_since(c));
            if top.iter().all(|p| p.estimate.is_finite()) {
                reads.tally.ok();
            } else {
                reads.tally.fail();
            }
        }
        if i % 1024 == 512 && pairs <= SWEEP_LIMIT_PAIRS {
            let c = Instant::now();
            let all = tracer.span("snapshot.all_estimates", view.snapshot.epoch(), || {
                view.snapshot.all_estimates()
            });
            reads.sweep_ns.push(ns_since(c));
            if all.len() as u64 == pairs {
                reads.tally.ok();
            } else {
                reads.tally.fail();
            }
        }
        i += 1;
    }
    reads.late_ns = pacer.late_ns;
    reads.spans = tracer.into_spans();
    reads
}

/// One pass over `samples` on a fresh serving instance.
pub fn serve_pass(
    setup: &ServeSetup,
    samples: &[Sample],
    tracer: &mut Tracer,
    origin: Instant,
) -> Res<ServeRun> {
    let c = Instant::now();
    let mut serving = tracer.span("serve.launch", 0, || {
        ServingEstimator::launch(setup.cfg, setup.opts)
    });
    let launch_ns = ns_since(c);
    let stop = AtomicBool::new(false);
    let trace = tracer.enabled();
    std::thread::scope(|scope| {
        let reader = (setup.reader_rate > 0.0).then(|| {
            let handle = serving.snapshot_reader();
            let stop = &stop;
            scope.spawn(move || reader_loop(handle, stop, setup, origin, trace))
        });
        let produced = produce(setup, &mut serving, samples, tracer);
        stop.store(true, Ordering::SeqCst);
        let reads = match reader {
            Some(h) => h
                .join()
                .map_err(|_| BenchError("reader thread panicked".into()))?,
            None => Reads::default(),
        };
        let mut run = produced?;
        run.reads = reads;
        run.launch_ns = launch_ns;
        run.overload_rejections = serving.stats().overload_rejections;
        Ok(run)
    })
}

fn produce(
    setup: &ServeSetup,
    serving: &mut ServingEstimator,
    samples: &[Sample],
    tracer: &mut Tracer,
) -> Res<ServeRun> {
    let n = samples.len() as u64;
    let mut log = IngestLog::default();
    let (mut visible_ns, mut ack_ns, mut refresh_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut pending: Vec<Instant> = Vec::new();
    let mut last = None;
    let mut last_accept = Instant::now();
    let mut drain_ns = 0.0;
    let mut accepted = 0;
    let root = tracer.begin("pass", 0);
    let start = Instant::now();
    for (i, sample) in samples.iter().enumerate() {
        let t = i as u64 + 1;
        let c = Instant::now();
        let ok = offer(serving, sample, t, "serve.try_ingest", tracer, &mut log);
        let done = Instant::now();
        ack_ns.push(ns_between(c, done));
        if ok {
            accepted += 1;
            pending.push(done);
            last_accept = done;
        }
        if t.is_multiple_of(setup.refresh_every) || t == n {
            let c = Instant::now();
            let snap = tracer.span("serve.refresh_snapshot", t, || serving.refresh_snapshot());
            let published = Instant::now();
            refresh_ns.push(ns_between(c, published));
            match snap {
                Ok(s) => {
                    log.tally.ok();
                    visible_ns.extend(pending.drain(..).map(|a| ns_between(a, published)));
                    last = Some(s);
                }
                Err(_) => log.tally.fail(),
            }
            if t == n {
                drain_ns = ns_between(last_accept, published);
            }
        }
    }
    let wall_ns = ns_since(start);
    tracer.end(root);
    let last = last.ok_or_else(|| BenchError("no snapshot was published".into()))?;
    ensure(last.epoch() == accepted, || {
        format!(
            "final snapshot at epoch {} does not cover the {accepted} accepted samples",
            last.epoch()
        )
    })?;
    Ok(ServeRun {
        launch_ns: 0.0,
        wall_ns,
        visible_ns,
        ack_ns,
        refresh_ns,
        drain_ns,
        overload_rejections: 0,
        accepted,
        last,
        log,
        reads: Reads::default(),
    })
}

/// The sequential oracle's state after `samples`.
pub fn oracle(cfg: &AscsConfig, hp: &HyperParameters, shards: usize, samples: &[Sample]) -> Served {
    let mut oracle = ReplayOracle::new(cfg, Some(hp), shards);
    for s in samples {
        oracle.ingest(s);
    }
    Served {
        epoch: oracle.samples(),
        table: crate::common::table_bits(&oracle.merged_sketch()),
        counts: oracle.update_counts(),
        top: crate::common::top_bits(&oracle.top_pairs()),
    }
}

/// Worker-panic recovery: shard 0 panics on the first update of the last
/// sample of `samples`, offered once every queue has drained; the time
/// from the panic being observed to a fresh snapshot at that epoch,
/// checked against `truth`, in ns.
pub fn panic_recovery(setup: &ServeSetup, samples: &[Sample], truth: &Served) -> Res<f64> {
    let cfg = &setup.cfg;
    let hp = crate::hyper_of(cfg);
    let probe = ReplayOracle::new(cfg, Some(&hp), setup.opts.shards);
    let mut ctx = StreamContext::new(cfg.dim, cfg.update_mode, cfg.estimand);
    let mut shard0 = 0u64;
    for s in &samples[..samples.len() - 1] {
        ctx.ingest(s, |u| shard0 += u64::from(probe.shard_of(u.key) == 0));
    }
    let plan = Arc::new(FaultPlan::new().panic_at(0, shard0));
    let mut serving = ServingEstimator::launch_with_faults(*cfg, Some(hp), setup.opts, plan);
    let (last, before) = samples.split_last().expect("a non-empty prefix");
    for s in before {
        serving
            .ingest_blocking(s)
            .map_err(fail("ingest before the injected panic"))?;
    }
    // Drain every queue first, so the recovery timed below is the panicked
    // worker's restore + replay, not the other shards' backlog.
    serving
        .refresh_snapshot()
        .map_err(fail("refresh before the injected panic"))?;
    serving
        .ingest_blocking(last)
        .map_err(fail("ingest of the sample that panics"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while serving.stats().worker_panics == 0 {
        ensure(Instant::now() < deadline, || {
            "the injected worker panic never fired".into()
        })?;
        std::thread::sleep(Duration::from_micros(20));
    }
    let c = Instant::now();
    let snap = serving
        .refresh_snapshot()
        .map_err(fail("refresh after the panic"))?;
    let recovery_ns = ns_since(c);
    Served::of_snapshot(&snap).check(truth, "snapshot after worker-panic recovery")?;
    let stats = serving.shutdown();
    ensure(stats.worker_restarts == 1, || {
        format!("{} worker restarts, expected 1", stats.worker_restarts)
    })?;
    Ok(recovery_ns)
}
