//! Turns the figures of traced passes and ledger passes into the named
//! per-layer metrics.

use crate::common::{Metrics, Res};
use crate::estimator::EstRun;
use crate::ledger::Replay;
use crate::stats::Dist;
use crate::trace::{self_times, Span};

fn median(v: &[f64]) -> f64 {
    Dist::new(v.to_vec()).median().unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    Dist::new(v.to_vec()).mean().unwrap_or(0.0)
}

/// `stream.*`, `ascs.kernel_*`, `sharded.*` and `count_sketch.*`.
pub fn replay(m: &mut Metrics, r: &Replay, merge_ms: f64, sweep_ns: f64) {
    let (n, u) = (r.samples as f64, r.updates as f64);
    m.set("stream.expand_us_per_sample", r.expand_ns / n / 1e3, "us");
    m.set("stream.updates_per_sample", u / n, "count");
    m.set("ascs.kernel_ns_per_update", r.kernel_ns / u, "ns");
    m.set("sharded.apply_ns_per_update", r.apply_ns / u, "ns");
    m.set("count_sketch.merge_ms", merge_ms, "ms");
    m.set("count_sketch.sweep_ns_per_pair", sweep_ns, "ns");
}

/// `ascs.accept_ratio` from inserted / skipped counters.
pub fn accept(m: &mut Metrics, (inserted, skipped): (u64, u64)) {
    m.set(
        "ascs.accept_ratio",
        inserted as f64 / (inserted + skipped).max(1) as f64,
        "fraction",
    );
}

/// `estimator.*` and `plan.build_ms`.
pub fn estimator(m: &mut Metrics, e: &EstRun) {
    m.set(
        "estimator.process_us_per_sample",
        mean(&e.process_ns) / 1e3,
        "us",
    );
    m.set("estimator.report_ms", e.report_ns / 1e6, "ms");
    m.set("plan.build_ms", e.plan_ns / 1e6, "ms");
}

/// Producer-side serving figures of one traced pass.
pub struct ServeFigures<'a> {
    pub launch_ns: f64,
    pub try_ok_ns: &'a [f64],
    pub backpressure_ns: f64,
    pub samples: u64,
    pub overload_rejections: u64,
    pub refresh_ns: &'a [f64],
    pub drain_ns: f64,
}

/// `serve.*`.
pub fn serve(m: &mut Metrics, f: &ServeFigures) {
    let n = f.samples as f64;
    m.set("serve.launch_ms", f.launch_ns / 1e6, "ms");
    m.set("serve.ingest_us_per_sample", mean(f.try_ok_ns) / 1e3, "us");
    m.set(
        "serve.backpressure_us_per_sample",
        f.backpressure_ns / n / 1e3,
        "us",
    );
    m.set(
        "serve.overload_share",
        f.overload_rejections as f64 / (f.overload_rejections as f64 + n),
        "fraction",
    );
    m.set("serve.refresh_ms_p50", median(f.refresh_ns) / 1e6, "ms");
    m.set(
        "serve.refresh_ms_max",
        f.refresh_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        "ms",
    );
    m.set("serve.drain_ms", f.drain_ns / 1e6, "ms");
}

/// `snapshot.*`.
pub fn reads(
    m: &mut Metrics,
    point_ns: &[f64],
    topk_ns: &[f64],
    sweep_ns: &[f64],
    count: usize,
) -> Res<()> {
    let point = Dist::new(point_ns.to_vec());
    m.set("snapshot.point_ns_p50", point.median().unwrap_or(0.0), "ns");
    let p99 = point
        .p99()
        .map_err(|e| crate::common::BenchError(format!("snapshot.point_ns_p99: {e}")))?;
    m.set("snapshot.point_ns_p99", p99, "ns");
    m.set("snapshot.topk_us_p50", median(topk_ns) / 1e3, "us");
    m.set("snapshot.sweep_ms_p50", median(sweep_ns) / 1e6, "ms");
    m.set("snapshot.reads", count as f64, "count");
    Ok(())
}

/// Durability figures of one durable pass and its crash directory.
pub struct DurFigures {
    pub wal_us: f64,
    pub records: u64,
    pub syncs: u64,
    pub checkpoint_ns: Vec<f64>,
    pub checkpoint_mb: f64,
    pub recover_ns: f64,
    pub replayed: u64,
    pub retries: u64,
    pub failures: u64,
}

/// `durability.*`.
pub fn durability(m: &mut Metrics, d: &DurFigures) {
    m.set("durability.wal_us_per_sample", d.wal_us, "us");
    m.set("durability.wal_records", d.records as f64, "count");
    m.set("durability.wal_syncs", d.syncs as f64, "count");
    m.set(
        "durability.checkpoint_ms_p50",
        median(&d.checkpoint_ns) / 1e6,
        "ms",
    );
    m.set(
        "durability.checkpoint_ms_max",
        d.checkpoint_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        "ms",
    );
    m.set("durability.checkpoint_mb", d.checkpoint_mb, "MiB");
    m.set("durability.recover_ms", d.recover_ns / 1e6, "ms");
    m.set(
        "durability.wal_records_replayed",
        d.replayed as f64,
        "count",
    );
    m.set("durability.persistence_retries", d.retries as f64, "count");
    m.set("durability.checkpoint_failures", d.failures as f64, "count");
}

/// `ledger.attributed_share`: self time of the layer spans on the main
/// thread inside the traced pass, over the pass's busy time (its wall time
/// minus the generator's idle waits).
pub fn attributed_share(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().position(|s| s.name == "pass" && s.thread == 0) else {
        return 0.0;
    };
    let (lo, hi) = (spans[root].start_ns, spans[root].end_ns);
    let inside = |s: &Span| s.thread == 0 && s.start_ns >= lo && s.end_ns <= hi;
    let mut idle = 0u64;
    let mut attributed = 0u64;
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        if i == root || !inside(s) {
            continue;
        }
        if s.name.starts_with("idle.") {
            idle += s.end_ns - s.start_ns;
        } else {
            attributed += own;
        }
    }
    attributed as f64 / (hi - lo - idle).max(1) as f64
}
