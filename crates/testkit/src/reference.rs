//! The reference implementation every fused ingestion path is checked
//! against.
//!
//! [`NaiveOracle`] re-implements Algorithm 2's offer over the raw
//! [`CountSketch`] API in the most direct way — estimate, gate, update,
//! estimate again — deliberately *not* sharing the fused kernel's code, so
//! a bug there cannot cancel out in the comparison. The equivalence
//! proptests and the `throughput` harness's bit-identity asserts both use
//! it: tables, gate counters and tracker contents of the fused, planned
//! and sharded paths must match it bit for bit.

use ascs_core::{HyperParameters, SketchGeometry, ThresholdSchedule};
use ascs_count_sketch::{CountSketch, TopKTracker};

/// A from-scratch reimplementation of Algorithm 2's offer over the raw
/// count sketch (absolute gate, tracker enabled). The tracker is fed a
/// full fresh point query on every insert, the naive way.
pub struct NaiveOracle {
    /// The count sketch the updates land in.
    pub sketch: CountSketch,
    /// Top-k tracker fed `|estimate|` after every insert.
    pub tracker: TopKTracker,
    schedule: ThresholdSchedule,
    t0: u64,
    total: u64,
    /// Updates inserted so far.
    pub inserted: u64,
    /// Updates the sampling gate rejected so far.
    pub skipped: u64,
}

impl NaiveOracle {
    /// An oracle with the geometry, hyperparameters, stream length,
    /// tracker capacity and seed an `AscsSketch::new` would get.
    pub fn new(
        geometry: SketchGeometry,
        hp: &HyperParameters,
        total: u64,
        cap: usize,
        seed: u64,
    ) -> Self {
        Self {
            sketch: CountSketch::new(geometry.rows, geometry.range, seed),
            tracker: TopKTracker::new(cap),
            schedule: ThresholdSchedule::linear(hp.tau0, hp.theta, hp.t0, total),
            t0: hp.t0,
            total,
            inserted: 0,
            skipped: 0,
        }
    }

    /// Returns whether the update was inserted.
    pub fn offer(&mut self, key: u64, x: f64, t: u64) -> bool {
        let w = x * (1.0 / self.total as f64);
        let exploration = t <= self.t0;
        let accept = if exploration {
            true
        } else {
            let estimate = self.sketch.estimate(key);
            let posterior = estimate + w;
            let tau = self.schedule.tau(t - 1);
            estimate.abs() >= tau || posterior.abs() >= tau
        };
        if accept {
            self.sketch.update(key, w);
            self.inserted += 1;
            let fresh = self.sketch.estimate(key);
            self.tracker.offer(key, fresh.abs());
        } else {
            self.skipped += 1;
        }
        accept
    }
}
