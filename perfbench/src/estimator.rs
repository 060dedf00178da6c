//! One pass of the batch estimator: build, one pass over the samples,
//! then the report (top pairs plus every estimate).

use crate::common::{ensure, ns_since, Res, SWEEP_LIMIT_PAIRS};
use crate::stats::Tally;
use crate::trace::Tracer;
use ascs_core::{AscsConfig, CovarianceEstimator, Sample, SketchBackend};
use std::time::Instant;

/// Measurements of one estimator pass.
pub struct EstRun {
    /// Construction (Algorithm 3 solve) + plan attach, ns.
    pub setup_ns: f64,
    /// `attach_ingestion_plan`, ns.
    pub plan_ns: f64,
    /// Per sample: `try_process_sample` call time, ns.
    pub process_ns: Vec<f64>,
    /// First sample → report done, ns.
    pub wall_ns: f64,
    /// `top_pairs` + `all_estimates` (point estimates of `report_keys` when
    /// the universe is too large to sweep), ns.
    pub report_ns: f64,
    /// Keys of the reported top list, best first.
    pub top_keys: Vec<u64>,
    /// The estimator after the pass.
    pub est: CovarianceEstimator,
    /// Samples offered and rejected.
    pub tally: Tally,
}

/// Builds an estimator on `backend` and runs one pass over `samples`.
pub fn estimator_pass(
    cfg: AscsConfig,
    backend: SketchBackend,
    samples: &[Sample],
    report_keys: &[u64],
    tracer: &mut Tracer,
) -> Res<EstRun> {
    let c = Instant::now();
    let (mut est, _) = tracer.span("estimator.new", 0, || {
        CovarianceEstimator::new_or_fallback(cfg, backend)
    });
    let p = Instant::now();
    // On universes too large for a plan the attach refuses at once, and
    // the estimator keeps hashing.
    let _ = tracer.span("plan.build", 0, || est.attach_ingestion_plan());
    let plan_ns = ns_since(p);
    let setup_ns = ns_since(c);
    let mut tally = Tally::default();
    let mut process_ns = Vec::with_capacity(samples.len());
    let root = tracer.begin("pass", 0);
    let start = Instant::now();
    for (i, s) in samples.iter().enumerate() {
        let c = Instant::now();
        let r = tracer.span("estimator.process_sample", i as u64 + 1, || {
            est.try_process_sample(s)
        });
        process_ns.push(ns_since(c));
        tally.ingest(&r);
    }
    let c = Instant::now();
    let pairs = cfg.num_pairs();
    let (top, swept) = tracer.span("estimator.report", samples.len() as u64, || {
        let top = est.top_pairs(report_keys.len());
        let swept = if pairs <= SWEEP_LIMIT_PAIRS {
            est.all_estimates()
        } else {
            report_keys.iter().map(|&k| est.estimate_key(k)).collect()
        };
        (top, swept)
    });
    let report_ns = ns_since(c);
    let wall_ns = ns_since(start);
    tracer.end(root);
    ensure(swept.iter().all(|v| v.is_finite()), || {
        "the report holds a non-finite estimate".into()
    })?;
    tally.ok();
    Ok(EstRun {
        setup_ns,
        plan_ns,
        process_ns,
        wall_ns,
        report_ns,
        top_keys: top.iter().map(|p| p.key).collect(),
        est,
        tally,
    })
}

/// The estimator's serialized state.
pub fn checkpoint(est: &CovarianceEstimator) -> Res<Vec<u8>> {
    let mut out = Vec::new();
    est.checkpoint(&mut out)
        .map_err(crate::common::fail("checkpoint the estimator"))?;
    Ok(out)
}
