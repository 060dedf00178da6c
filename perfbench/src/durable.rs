//! One pass of the durable ingest workload — a generator (open loop at a
//! fixed rate, or closed loop) with no readers, a final publish and a
//! simulated crash — and the cold relaunch that follows it.

use crate::common::{ensure, fail, ns_between, ns_since, BenchError, Pacer, Res, Served};
use crate::serve::{offer, IngestLog};
use crate::stats::Tally;
use crate::trace::Tracer;
use ascs_core::{
    AscsConfig, DurabilityHealth, DurabilityOptions, FsyncPolicy, HyperParameters, RecoveryManager,
    Sample, ServeOptions, ServingEstimator, Snapshot,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What one durable pass runs.
#[derive(Clone, Copy)]
pub struct DurableSetup {
    pub cfg: AscsConfig,
    pub hp: HyperParameters,
    pub opts: ServeOptions,
    /// Samples between automatic checkpoints.
    pub checkpoint_every: u64,
    /// Samples per second of the open-loop generator (`None` = closed
    /// loop).
    pub rate: Option<f64>,
}

impl DurableSetup {
    /// Durability options rooted at `dir`: fsync on every record.
    pub fn options(&self, dir: &Path) -> DurabilityOptions {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_every: self.checkpoint_every,
            ..DurabilityOptions::new(dir)
        }
    }

    /// Launches on `dir` (durable) or in memory.
    pub fn launch(&self, dir: Option<&Path>) -> Res<ServingEstimator> {
        match dir {
            Some(dir) => ServingEstimator::launch_durable(
                self.cfg,
                Some(self.hp),
                self.opts,
                self.options(dir),
            )
            .map_err(fail("durable launch")),
            None => Ok(ServingEstimator::launch_with_hyperparameters(
                self.cfg,
                Some(self.hp),
                self.opts,
            )),
        }
    }
}

/// Measurements of one pass.
pub struct DurableRun {
    /// Launch on an empty directory (recovery of nothing + spawn), ns.
    pub launch_ns: f64,
    /// First scheduled send → publish covering the last sample, ns.
    pub wall_ns: f64,
    /// Time the generator slept waiting for due times, ns.
    pub idle_ns: f64,
    /// Per sample: scheduled send → ingest returned `Ok`, ns.
    pub ack_ns: Vec<f64>,
    /// Per sample: ingest returned → the final publish, ns.
    pub visible_ns: Vec<f64>,
    /// How late each send started, ns.
    pub late_ns: Vec<f64>,
    /// Successful first `try_ingest` attempts off checkpoint boundaries, ns
    /// (traced passes only).
    pub try_ok_ns: Vec<f64>,
    /// Ingest calls on checkpoint boundaries, ns.
    pub boundary_ns: Vec<f64>,
    /// Time in rejected attempts and the blocking retries after them, ns.
    pub backpressure_ns: f64,
    /// The final `refresh_snapshot`, ns.
    pub refresh_ns: f64,
    /// Last accept → the final publish, ns.
    pub drain_ns: f64,
    /// `stats().overload_rejections`.
    pub overload_rejections: u64,
    /// Durability health before the crash.
    pub health: DurabilityHealth,
    /// The final snapshot.
    pub last: Arc<Snapshot>,
    /// Ingest, refresh and durability outcomes.
    pub tally: Tally,
}

/// One pass over `samples`: durable on `dir` (ending in a simulated
/// crash) or in memory (ending in a shutdown).
pub fn durable_pass(
    setup: &DurableSetup,
    samples: &[Sample],
    dir: Option<&Path>,
    tracer: &mut Tracer,
) -> Res<DurableRun> {
    let c = Instant::now();
    let mut serving = tracer.span("serve.launch", 0, || setup.launch(dir))?;
    let launch_ns = ns_since(c);
    let mut log = IngestLog::default();
    let (mut ack_ns, mut try_ok_ns, mut boundary_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut accepted_at = Vec::with_capacity(samples.len());
    let mut idle_ns = 0.0;
    let root = tracer.begin("pass", 0);
    let start = Instant::now();
    let mut pacer = setup.rate.map(|rate| Pacer::new(start, rate));
    for (i, sample) in samples.iter().enumerate() {
        let t = i as u64 + 1;
        let due = match pacer.as_mut() {
            Some(p) => {
                let w = Instant::now();
                let id = tracer.begin("idle.generator", t);
                let due = p.wait(i as u64);
                tracer.end(id);
                idle_ns += ns_since(w);
                due
            }
            None => Instant::now(),
        };
        let boundary = dir.is_some() && t.is_multiple_of(setup.checkpoint_every);
        let name = if boundary {
            "durability.checkpoint"
        } else {
            "serve.try_ingest"
        };
        let c = Instant::now();
        let ok = offer(&mut serving, sample, t, name, tracer, &mut log);
        let done = Instant::now();
        if boundary {
            boundary_ns.push(ns_between(c, done));
            log.try_ok_ns.clear();
        } else {
            try_ok_ns.append(&mut log.try_ok_ns);
        }
        if ok {
            ack_ns.push(ns_between(due, done));
            accepted_at.push(done);
        }
    }
    let c = Instant::now();
    let snap = tracer.span("serve.refresh_snapshot", samples.len() as u64, || {
        serving.refresh_snapshot()
    });
    let published = Instant::now();
    let wall_ns = ns_between(start, published);
    tracer.end(root);
    let last = snap.map_err(fail("final publish"))?;
    log.tally.ok();
    let accepted = accepted_at.len() as u64;
    ensure(last.epoch() == accepted, || {
        format!(
            "final snapshot at epoch {} does not cover the {accepted} accepted samples",
            last.epoch()
        )
    })?;
    let health = serving.health().durability;
    let overload_rejections = serving.stats().overload_rejections;
    if dir.is_some() {
        ensure(!health.durability_lost, || {
            "durability was lost on a healthy filesystem".into()
        })?;
        serving.simulate_crash();
    } else {
        serving.shutdown();
    }
    Ok(DurableRun {
        launch_ns,
        wall_ns,
        idle_ns,
        visible_ns: accepted_at
            .iter()
            .map(|&a| ns_between(a, published))
            .collect(),
        ack_ns,
        late_ns: pacer.map(|p| p.late_ns).unwrap_or_default(),
        try_ok_ns,
        boundary_ns,
        backpressure_ns: log.backpressure_ns,
        refresh_ns: ns_between(c, published),
        drain_ns: ns_between(*accepted_at.last().unwrap_or(&start), published),
        overload_rejections,
        health,
        last,
        tally: log.tally,
    })
}

/// A cold relaunch on a crashed directory: the time from the launch call
/// until a snapshot at the pre-crash epoch is published (checked against
/// `truth`), in ns; with the relaunched instance, still running.
pub fn relaunch(
    setup: &DurableSetup,
    dir: &Path,
    truth: &Served,
) -> Res<(f64, Arc<Snapshot>, ServingEstimator)> {
    let c = Instant::now();
    let mut serving = setup.launch(Some(dir))?;
    let snap = serving
        .refresh_snapshot()
        .map_err(fail("publish after relaunch"))?;
    let recovery_ns = ns_since(c);
    let report = serving
        .recovery_report()
        .ok_or_else(|| BenchError("durable relaunch has no recovery report".into()))?;
    ensure(report.recovered_epoch == truth.epoch, || {
        format!(
            "relaunch recovered epoch {}, the crash was at {}",
            report.recovered_epoch, truth.epoch
        )
    })?;
    Served::of_snapshot(&snap).check(truth, "snapshot after cold relaunch")?;
    Ok((recovery_ns, snap, serving))
}

/// `RecoveryManager::recover` on `dir`: (time ns, WAL records replayed).
pub fn recover_only(setup: &DurableSetup, dir: &Path, epoch: u64) -> Res<(f64, u64)> {
    let c = Instant::now();
    let outcome = RecoveryManager::new(dir)
        .recover(&setup.cfg, Some(&setup.hp), setup.opts.shards)
        .map_err(fail("recover"))?;
    let ns = ns_since(c);
    ensure(outcome.report.recovered_epoch == epoch, || {
        format!(
            "recovery reached epoch {}, not {epoch}",
            outcome.report.recovered_epoch
        )
    })?;
    Ok((ns, outcome.report.wal_records_replayed))
}
