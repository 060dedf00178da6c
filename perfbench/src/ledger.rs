//! Ledger passes: the workload's own input replayed through one layer's
//! public function at a time, so layers that are only reached through
//! another layer (the kernel inside `process_sample`, the serve workers)
//! can be timed from outside. A pass's figures count only after its output
//! is checked bit-identical to the workload's own output.

use crate::common::{ns_since, Res, SWEEP_LIMIT_PAIRS};
use crate::stats::Dist;
use ascs_core::{
    AscsConfig, AscsSketch, HyperParameters, Sample, SampleGate, ShardUpdate, ShardedAscs,
    StreamContext,
};
use ascs_count_sketch::{CountSketch, HashPlan};
use std::time::Instant;

/// Timed layers of one replay.
pub struct Replay {
    /// Samples replayed.
    pub samples: u64,
    /// Pair updates emitted.
    pub updates: u64,
    /// `StreamContext::ingest` into a vector, ns.
    pub expand_ns: f64,
    /// Gate/update/track kernel over the expanded updates, ns.
    pub kernel_ns: f64,
    /// `ShardedAscs::offer_batch` on the calling thread, ns.
    pub apply_ns: f64,
    /// Kernel state, one sketch per shard of the workload.
    pub kernel: Vec<AscsSketch>,
    /// State of the sequential sharded apply.
    pub sharded: ShardedAscs,
}

fn sketch(cfg: &AscsConfig, hp: &HyperParameters) -> AscsSketch {
    AscsSketch::new(
        cfg.geometry,
        hp,
        cfg.total_samples,
        cfg.top_k_capacity,
        cfg.seed,
    )
}

/// Gate-memoised hashed apply, as the serve workers run it.
fn offer_hashed(sketch: &mut AscsSketch, batch: &[ShardUpdate]) {
    let mut memo: Option<(u64, SampleGate)> = None;
    for u in batch {
        let gate = match memo {
            Some((t, gate)) if t == u.t => gate,
            _ => {
                let gate = sketch.sample_gate(u.t);
                memo = Some((u.t, gate));
                gate
            }
        };
        sketch.offer_gated(u.key, u.value, gate);
    }
}

/// Replays `samples`: expansion, then the kernel on `kernel_shards`
/// sketches (planned when the pair universe fits a plan, hashed
/// otherwise), then `ShardedAscs::offer_batch` at `apply_shards` with the
/// parallel threshold disabled (skipped when `apply_shards` is 0).
pub fn replay(
    cfg: &AscsConfig,
    hp: &HyperParameters,
    kernel_shards: usize,
    apply_shards: usize,
    samples: &[Sample],
) -> Res<Replay> {
    let mut ctx = StreamContext::new(cfg.dim, cfg.update_mode, cfg.estimand);
    let mut kernel: Vec<AscsSketch> = (0..kernel_shards).map(|_| sketch(cfg, hp)).collect();
    let router = ShardedAscs::new(
        cfg.geometry,
        hp,
        cfg.total_samples,
        cfg.top_k_capacity,
        cfg.seed,
        kernel_shards,
    );
    let mut sharded = ShardedAscs::new(
        cfg.geometry,
        hp,
        cfg.total_samples,
        cfg.top_k_capacity,
        cfg.seed,
        apply_shards.max(1),
    )
    .with_parallel_threshold(usize::MAX);
    let pairs = cfg.num_pairs();
    let plan: Option<HashPlan> =
        (pairs <= SWEEP_LIMIT_PAIRS).then(|| kernel[0].sketch().build_plan(pairs as usize));
    let mut all: Vec<ShardUpdate> = Vec::new();
    let mut routed: Vec<Vec<ShardUpdate>> = vec![Vec::new(); kernel_shards];
    let (mut expand_ns, mut kernel_ns, mut apply_ns, mut updates) = (0.0, 0.0, 0.0, 0u64);
    for (i, s) in samples.iter().enumerate() {
        let t = i as u64 + 1;
        all.clear();
        let c = Instant::now();
        updates += ctx.ingest(s, |u| {
            all.push(ShardUpdate {
                key: u.key,
                value: u.value,
                t,
            })
        });
        expand_ns += ns_since(c);
        if kernel_shards > 1 {
            for r in &mut routed {
                r.clear();
            }
            for u in &all {
                routed[router.shard_of(u.key)].push(*u);
            }
        }
        let c = Instant::now();
        for (k, sk) in kernel.iter_mut().enumerate() {
            let batch = if kernel_shards > 1 { &routed[k] } else { &all };
            match &plan {
                Some(plan) => sk.ingest_planned(plan, batch),
                None => offer_hashed(sk, batch),
            }
        }
        kernel_ns += ns_since(c);
        if apply_shards > 0 {
            let c = Instant::now();
            sharded.offer_batch(&all);
            apply_ns += ns_since(c);
        }
    }
    std::hint::black_box(&kernel);
    Ok(Replay {
        samples: samples.len() as u64,
        updates,
        expand_ns,
        kernel_ns,
        apply_ns,
        kernel,
        sharded,
    })
}

/// Median time of `CountSketch::merge` folding the other shard tables into
/// a copy of the first (into an empty table of the same geometry when
/// there is one shard), ms; and the merged table.
pub fn merge_ms(shards: &[AscsSketch]) -> (f64, CountSketch) {
    let first = shards[0].sketch();
    let mut times = Vec::new();
    let mut out = first.clone();
    for _ in 0..5 {
        let (mut acc, rest): (CountSketch, Vec<&CountSketch>) = if shards.len() == 1 {
            (
                CountSketch::new(first.rows(), first.range(), first.seed()),
                vec![first],
            )
        } else {
            (
                first.clone(),
                shards[1..].iter().map(|s| s.sketch()).collect(),
            )
        };
        let c = Instant::now();
        for s in rest {
            acc.merge(s);
        }
        times.push(ns_since(c) / 1e6);
        out = acc;
    }
    (Dist::new(times).median().expect("five merges"), out)
}

/// Median per-pair time of `CountSketch::estimate_many` over the first
/// `min(p, 2^18)` pair keys, ns.
pub fn sweep_ns_per_pair(table: &CountSketch, pairs: u64) -> f64 {
    let n = pairs.min(1 << 18) as usize;
    let plan = table.build_plan(n);
    let mut out = Vec::with_capacity(n);
    let times: Vec<f64> = (0..5)
        .map(|_| {
            out.clear();
            let c = Instant::now();
            table.estimate_many(&plan, &mut out);
            std::hint::black_box(&out);
            ns_since(c) / n as f64
        })
        .collect();
    Dist::new(times).median().expect("five sweeps")
}
