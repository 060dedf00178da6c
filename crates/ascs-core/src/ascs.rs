//! The Active Sampling Count Sketch itself (Algorithm 2).
//!
//! [`AscsSketch`] wraps a [`CountSketch`] with the two-phase ingestion rule:
//!
//! * **Exploration** (`t ≤ T0`): every offered update is inserted, exactly
//!   as vanilla CS would.
//! * **Sampling** (`t > T0`): the pair's current estimate is read first and
//!   the update is inserted only when that estimate — or the would-be
//!   estimate including the offered update, the cold-start refinement for
//!   sparse streams documented at [`AscsSketch::offer`] — clears the
//!   threshold `τ(t − 1)` of the configured [`ThresholdSchedule`].
//!
//! Updates are scaled by `1/T` on insertion (Algorithm 2 lines 6 and 12) so
//! that the retrieval (line 15) directly estimates the mean `μ_i`.
//!
//! The sketch also keeps a bounded [`TopKTracker`] of the largest estimates
//! seen, so the top pairs can be reported after one pass even when the item
//! universe is far too large to enumerate; [`AscsSketch::without_tracking`]
//! disables it for ingestion benchmarks that never read the top pairs.
//!
//! The ingestion hot path is **fused**: one hashing round per offered
//! update — none when a precomputed [`HashPlan`] supplies the locations —
//! shared by the gate read, the insertion and the post-insert estimate
//! (see [`AscsSketch::offer`]). One kernel implements that rule for both
//! location sources ([`AscsSketch::offer_gated`] hashes,
//! [`AscsSketch::offer_planned`] replays a plan slot), and one batch driver
//! ([`AscsSketch::ingest_batch`]) runs it over a slice of updates for
//! every sequential, sharded and serving ingest path.

use crate::config::{AscsConfig, SketchGeometry};
use crate::hyper::HyperParameters;
use crate::schedule::ThresholdSchedule;
use crate::serve::IngestError;
use crate::sharded::ShardUpdate;
use ascs_count_sketch::codec::{self, CodecError};
use ascs_count_sketch::{median_in_place, CountSketch, HashPlan, TopKTracker, MAX_ROWS};
use serde::{Deserialize, Serialize};

/// How many plan entries ahead of the one being processed
/// [`AscsSketch::ingest_batch`] touches the sketch table, so the randomly
/// scattered bucket loads of upcoming updates are in flight while the
/// current update's gate read and median run.
const PLAN_PREFETCH_DISTANCE: usize = 4;

/// Which phase of Algorithm 2 the sketch is in at a given stream time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AscsPhase {
    /// `t ≤ T0`: every update is ingested.
    Exploration,
    /// `t > T0`: only updates whose current estimate clears `τ(t−1)` are
    /// ingested.
    Sampling,
}

/// Outcome of offering one update to the sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferOutcome {
    /// Whether the update was inserted into the sketch.
    pub inserted: bool,
    /// The phase the sketch was in when the update arrived.
    pub phase: AscsPhase,
}

/// The per-sample invariants of the sampling gate: the phase at stream time
/// `t` and the threshold `τ(t − 1)` in force. Both depend only on `t`, so a
/// caller expanding one sample into `O(d²)` pair updates computes the gate
/// **once** via [`AscsSketch::sample_gate`] and reuses it for every update
/// of that sample instead of re-deriving phase and threshold per pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleGate {
    /// Phase at the gate's stream time.
    pub phase: AscsPhase,
    /// Threshold `τ(t − 1)` (meaningful during sampling; `τ0` otherwise).
    pub tau: f64,
}

/// Active Sampling Count Sketch (Algorithm 2 of the paper).
#[derive(Debug, Clone)]
pub struct AscsSketch {
    sketch: CountSketch,
    schedule: ThresholdSchedule,
    t0: u64,
    total: u64,
    tracker: TopKTracker,
    /// Gate on `|estimate|` rather than the signed estimate. The paper's
    /// problem statement assumes positive signals (Algorithm 2 line 11 uses
    /// the signed estimate) but its theorems gate on the absolute value;
    /// using the absolute value also recovers strongly *negative*
    /// covariances, so it is the default.
    absolute_gate: bool,
    /// Precomputed `1 / T` so the per-update scaling is a multiply, not a
    /// division, on the hot path.
    inv_total: f64,
    /// Whether the top-k tracker is fed at all (benchmarks that only
    /// measure raw ingestion disable it — for a vanilla-CS run it is pure
    /// overhead when the top pairs are never read). Tracking covers *every*
    /// insert, exploration included: on sparse streams a pair's
    /// co-observations can be concentrated in the exploration window, and
    /// skipping it there would silently drop such pairs from the report.
    tracking_enabled: bool,
    inserted: u64,
    skipped: u64,
    /// Updates rejected at the offer boundary for carrying a non-finite
    /// value. Diagnostic state only: it is *not* serialized (the codec
    /// layout is versioned and quarantined updates never touched the
    /// table), so a restored sketch restarts the count at zero.
    quarantined: u64,
}

impl AscsSketch {
    /// Creates an ASCS with the given sketch geometry, hyperparameters and
    /// total stream length.
    pub fn new(
        geometry: SketchGeometry,
        hyper: &HyperParameters,
        total_samples: u64,
        top_k_capacity: usize,
        seed: u64,
    ) -> Self {
        assert!(total_samples > 0, "total_samples must be positive");
        assert!(
            hyper.t0 <= total_samples,
            "exploration period exceeds the stream length"
        );
        Self {
            sketch: CountSketch::new(geometry.rows, geometry.range, seed),
            schedule: hyper.schedule(total_samples),
            t0: hyper.t0,
            total: total_samples,
            tracker: TopKTracker::new(top_k_capacity),
            absolute_gate: true,
            inv_total: 1.0 / total_samples as f64,
            tracking_enabled: true,
            inserted: 0,
            skipped: 0,
            quarantined: 0,
        }
    }

    /// Builds a *vanilla count sketch* in ASCS clothing: the exploration
    /// period covers the whole stream, so every update is always ingested
    /// (Algorithm 1). Used as the CS baseline everywhere.
    pub fn vanilla(
        geometry: SketchGeometry,
        total_samples: u64,
        top_k_capacity: usize,
        seed: u64,
    ) -> Self {
        let hyper = HyperParameters {
            t0: total_samples,
            theta: 0.0,
            tau0: 0.0,
            delta: 0.5,
            delta_star: 0.999,
        };
        Self::new(geometry, &hyper, total_samples, top_k_capacity, seed)
    }

    /// The sketch `config` describes: gated with `hyper`, vanilla without.
    /// Every shard set built from a configuration (serving launch,
    /// recovery, the sharded estimator) starts from it.
    pub(crate) fn for_config(config: &AscsConfig, hyper: Option<&HyperParameters>) -> Self {
        let (geometry, total, top_k, seed) = (
            config.geometry,
            config.total_samples,
            config.top_k_capacity,
            config.seed,
        );
        match hyper {
            Some(hp) => Self::new(geometry, hp, total, top_k, seed),
            None => Self::vanilla(geometry, total, top_k, seed),
        }
    }

    /// Switches the sampling gate to the signed estimate (`μ̂ ≥ τ`), the
    /// literal reading of Algorithm 2 line 11.
    pub fn with_signed_gate(mut self) -> Self {
        self.absolute_gate = false;
        self
    }

    /// Disables the top-k tracker entirely. [`AscsSketch::top_pairs`] will
    /// return nothing; use this for ingestion benchmarks (and vanilla-CS
    /// runs that never read the top pairs), where feeding the tracker is
    /// pure overhead.
    pub fn without_tracking(mut self) -> Self {
        self.tracking_enabled = false;
        self
    }

    /// Whether the gate compares `|μ̂|` (the default) or the signed `μ̂`.
    pub fn absolute_gate(&self) -> bool {
        self.absolute_gate
    }

    /// Capacity of the top-k tracker.
    pub fn top_k_capacity(&self) -> usize {
        self.tracker.capacity()
    }

    /// Exploration length `T0`.
    pub fn exploration_length(&self) -> u64 {
        self.t0
    }

    /// Total stream length `T`.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// The threshold schedule in force.
    pub fn schedule(&self) -> &ThresholdSchedule {
        &self.schedule
    }

    /// The phase at stream time `t` (1-based).
    pub fn phase(&self, t: u64) -> AscsPhase {
        if t <= self.t0 {
            AscsPhase::Exploration
        } else {
            AscsPhase::Sampling
        }
    }

    /// Number of updates inserted into the sketch so far.
    pub fn inserted_updates(&self) -> u64 {
        self.inserted
    }

    /// Number of updates skipped by the sampling gate so far.
    pub fn skipped_updates(&self) -> u64 {
        self.skipped
    }

    /// Number of updates quarantined for carrying a non-finite value. A
    /// quarantined update changes nothing besides this counter — a single
    /// NaN would otherwise poison every bucket its key hashes into, and a
    /// poisoned bucket corrupts the median of *every* key sharing it.
    pub fn quarantined_updates(&self) -> u64 {
        self.quarantined
    }

    /// [`AscsSketch::offer`] with the non-finite quarantine surfaced as a
    /// typed error instead of a silent skip: `Err(IngestError::NonFinite)`
    /// carries the offending key and value, and the sketch state is
    /// untouched apart from the quarantine counter.
    ///
    /// # Errors
    /// [`IngestError::NonFinite`] when `x` is NaN or ±inf.
    pub fn offer_checked(&mut self, key: u64, x: f64, t: u64) -> Result<OfferOutcome, IngestError> {
        if !x.is_finite() {
            self.quarantined += 1;
            return Err(IngestError::NonFinite {
                index: key,
                value: x,
            });
        }
        Ok(self.offer(key, x, t))
    }

    /// The backing count sketch (read-only).
    pub fn sketch(&self) -> &CountSketch {
        &self.sketch
    }

    /// The per-sample gate invariants at stream time `t` (1-based). Callers
    /// expanding one sample into many pair updates compute this once and
    /// pass it to [`AscsSketch::offer_gated`] for every update of the
    /// sample.
    pub fn sample_gate(&self, t: u64) -> SampleGate {
        let phase = self.phase(t);
        SampleGate {
            phase,
            tau: self.schedule.tau(t.saturating_sub(1)),
        }
    }

    /// Offers the update `x = X_i^{(t)}` for item `key` at stream time `t`
    /// (1-based). Returns whether it was ingested.
    ///
    /// During the sampling phase the gate accepts when either the current
    /// estimate **or the would-be estimate including this update**
    /// (`μ̂_i + x/T`) clears `τ(t − 1)`. The second disjunct is a cold-start
    /// refinement of Algorithm 2 line 11 for sparse streams, where a pair's
    /// first co-observation may arrive only after exploration: without it,
    /// a never-seen pair (estimate exactly 0) could never enter the sketch.
    /// On dense streams `τ(t)·T` exceeds any single `|x|` within a few
    /// samples of `T0`, so the paper's original rule takes over almost
    /// immediately.
    ///
    /// The implementation follows a **hash-once, read-once** discipline:
    /// the key is hashed a single time into stack-allocated row locations,
    /// the gate reads the per-row values once, and the post-insert estimate
    /// fed to the top-k tracker is derived *algebraically* from those same
    /// reads (`new_row_est = old_row_est + w`, since `s² = 1`; the shift by
    /// a common `w` also preserves the sort order, so the fresh median
    /// falls out of the already-sorted gate values) — no second hashing
    /// round, no second table traversal, no second sort. Accept decisions,
    /// table contents and tracker state match the naive estimate → update
    /// → estimate reference (`ascs_testkit::NaiveOracle`) bit for bit.
    pub fn offer(&mut self, key: u64, x: f64, t: u64) -> OfferOutcome {
        let gate = self.sample_gate(t);
        self.offer_gated(key, x, gate)
    }

    /// [`AscsSketch::offer`] with the per-sample invariants precomputed via
    /// [`AscsSketch::sample_gate`] — the form the `O(d²)` pair-update loop
    /// of a sample expansion uses.
    #[inline]
    pub fn offer_gated(&mut self, key: u64, x: f64, gate: SampleGate) -> OfferOutcome {
        self.offer_at(None, key, x, gate)
    }

    /// [`AscsSketch::offer_gated`] driven by a precomputed [`HashPlan`]
    /// instead of per-update hashing: `slot` is both the plan slot and the
    /// item key (the dense-pair identification `slot == key` of the
    /// estimator's plan — plans over `0..p` make the lookup free). Gate
    /// decisions, table contents and tracker state are bit-identical to the
    /// hashed path; the plan merely replays the same `(bucket, sign)`
    /// locations from its arena.
    #[inline]
    pub fn offer_planned(
        &mut self,
        plan: &HashPlan,
        slot: u64,
        x: f64,
        gate: SampleGate,
    ) -> OfferOutcome {
        self.offer_at(Some(plan), slot, x, gate)
    }

    /// The gate/update/track kernel behind every offer. A key's
    /// `(bucket, sign)` locations come from plan slot `key` when `plan` is
    /// given and from hashing `key` otherwise; nothing else depends on the
    /// source, so the planned and hashed paths are bit-identical by
    /// construction. Geometries beyond [`MAX_ROWS`] rows take the unfused
    /// path, which hashes: the stack buffers cap there.
    #[inline(always)]
    pub(crate) fn offer_at(
        &mut self,
        plan: Option<&HashPlan>,
        key: u64,
        x: f64,
        gate: SampleGate,
    ) -> OfferOutcome {
        let outcome = |inserted| OfferOutcome {
            inserted,
            phase: gate.phase,
        };
        if !x.is_finite() {
            // Quarantine before *any* table access: a NaN inserted once is
            // unrecoverable (every bucket it touches reads back NaN).
            self.quarantined += 1;
            return outcome(false);
        }
        if self.sketch.rows() > MAX_ROWS {
            return self.offer_unfused(key, x, gate);
        }
        let hashed;
        let (buckets, mask) = match plan {
            Some(plan) => plan.entry(key as usize),
            None => {
                hashed = self.sketch.locate(key);
                (hashed.buckets(), hashed.sign_mask())
            }
        };
        let w = x * self.inv_total;
        if gate.phase == AscsPhase::Exploration && !self.tracking_enabled {
            // Nothing reads the table: a plain insert.
            self.sketch.update_at_buckets(buckets, mask, w);
            self.inserted += 1;
            return outcome(true);
        }
        let mut rows = [0.0f64; MAX_ROWS];
        let n = self.sketch.row_values_at_buckets(buckets, mask, &mut rows);
        let mut gate_median = None;
        if gate.phase == AscsPhase::Sampling {
            let estimate = median_in_place(&mut rows[..n]);
            if !self.clears(estimate, estimate + w, gate.tau) {
                self.skipped += 1;
                return outcome(false);
            }
            gate_median = Some(estimate);
        }
        self.sketch.update_at_buckets(buckets, mask, w);
        self.inserted += 1;
        if self.tracking_enabled {
            // Post-insert row estimates follow algebraically from the reads:
            // (W[e,b] + w·s)·s = W[e,b]·s + w since s² = 1. The common shift
            // commutes with the median for odd K, so the gate median shifted
            // by `w` is the fresh estimate — no second reduction. (Even K
            // averages the two middle values, where the shift does not
            // commute bit-exactly; re-reduce the shifted values there.)
            let fresh = match gate_median {
                Some(median) if n % 2 == 1 => median + w,
                _ => {
                    for v in &mut rows[..n] {
                        *v += w;
                    }
                    median_in_place(&mut rows[..n])
                }
            };
            self.track_offer(key, fresh);
        }
        outcome(true)
    }

    /// Drives a batch of updates through the offer kernel in order — the
    /// one ingestion loop of the sequential, sharded and serving paths.
    /// The per-sample gate is recomputed only when the stream time
    /// changes. With a plan, update keys are plan slots, and the table
    /// buckets of an update a few entries ahead are touched early so their
    /// loads overlap the current update's gate read and median.
    ///
    /// # Panics
    /// Panics if the plan does not match this sketch's hash family.
    pub fn ingest_batch(&mut self, plan: Option<&HashPlan>, updates: &[ShardUpdate]) {
        self.ingest_batch_with(plan, updates, |_| {});
    }

    /// [`AscsSketch::ingest_batch`] over a plan — the steady-state loop of
    /// the throughput harness, the sharded workers and the serving workers
    /// on instances under the plan size rule.
    ///
    /// # Panics
    /// Panics if the plan does not match this sketch's hash family.
    pub fn ingest_planned(&mut self, plan: &HashPlan, updates: &[ShardUpdate]) {
        self.ingest_batch(Some(plan), updates);
    }

    /// The batch loop behind [`AscsSketch::ingest_batch`], calling
    /// `before(i)` right before update `i` is offered — the serving
    /// workers' per-update fault-injection hook. Planned batches prefetch
    /// [`PLAN_PREFETCH_DISTANCE`] updates ahead.
    pub(crate) fn ingest_batch_with(
        &mut self,
        plan: Option<&HashPlan>,
        updates: &[ShardUpdate],
        mut before: impl FnMut(usize),
    ) {
        if let Some(plan) = plan {
            self.sketch.verify_plan(plan);
        }
        let mut memo: Option<(u64, SampleGate)> = None;
        for (i, u) in updates.iter().enumerate() {
            before(i);
            if let (Some(plan), Some(ahead)) = (plan, updates.get(i + PLAN_PREFETCH_DISTANCE)) {
                self.sketch.prefetch_planned(plan, ahead.key as usize);
            }
            let gate = match memo {
                Some((t, gate)) if t == u.t => gate,
                _ => {
                    let gate = self.sample_gate(u.t);
                    memo = Some((u.t, gate));
                    gate
                }
            };
            self.offer_at(plan, u.key, u.value, gate);
        }
    }

    /// Whether an estimate or its would-be successor clears `tau` under the
    /// configured gate (absolute or signed).
    #[inline]
    fn clears(&self, estimate: f64, posterior: f64, tau: f64) -> bool {
        if self.absolute_gate {
            estimate.abs() >= tau || posterior.abs() >= tau
        } else {
            estimate >= tau || posterior >= tau
        }
    }

    /// Feeds the tracker with a freshly derived estimate.
    #[inline]
    fn track_offer(&mut self, key: u64, fresh: f64) {
        self.tracker.offer(
            key,
            if self.absolute_gate {
                fresh.abs()
            } else {
                fresh
            },
        );
    }

    /// The offer for geometries beyond [`MAX_ROWS`] rows: per-row hashing
    /// and full point queries (estimate → update → estimate), since the
    /// fused kernel's stack buffers cap at `MAX_ROWS`.
    fn offer_unfused(&mut self, key: u64, x: f64, gate: SampleGate) -> OfferOutcome {
        let w = x * self.inv_total;
        let accept = match gate.phase {
            AscsPhase::Exploration => true,
            AscsPhase::Sampling => {
                let estimate = self.sketch.estimate(key);
                self.clears(estimate, estimate + w, gate.tau)
            }
        };
        if accept {
            self.sketch.update(key, w);
            self.inserted += 1;
            if self.tracking_enabled {
                let fresh = self.sketch.estimate(key);
                self.track_offer(key, fresh);
            }
        } else {
            self.skipped += 1;
        }
        OfferOutcome {
            inserted: accept,
            phase: gate.phase,
        }
    }

    /// Final (or current) estimate of `μ_i` for item `key`.
    pub fn estimate(&self, key: u64) -> f64 {
        self.sketch.estimate(key)
    }

    /// The top tracked items, largest estimate magnitude first.
    pub fn top_pairs(&self) -> Vec<(u64, f64)> {
        self.tracker.descending()
    }

    /// The `k` top tracked items, largest estimate magnitude first —
    /// partial selection instead of a full sort of the retained set (see
    /// [`TopKTracker::top_descending`]).
    pub fn top_pairs_limit(&self, k: usize) -> Vec<(u64, f64)> {
        self.tracker.top_descending(k)
    }

    /// Memory footprint in float-equivalent words (sketch table only; the
    /// tracker is reporting state, not sketch state).
    pub fn memory_words(&self) -> usize {
        use ascs_count_sketch::PointSketch as _;
        self.sketch.memory_words()
    }

    /// Serializes the full gate state — exploration length, stream length,
    /// gate flags, insert/skip counters, the threshold schedule — followed
    /// by the nested count-sketch and tracker records.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        codec::write_header(w, codec::TAG_ASCS_SKETCH)?;
        codec::write_u64(w, self.t0)?;
        codec::write_u64(w, self.total)?;
        codec::write_bool(w, self.absolute_gate)?;
        codec::write_bool(w, self.tracking_enabled)?;
        codec::write_u64(w, self.inserted)?;
        codec::write_u64(w, self.skipped)?;
        self.schedule.save(w)?;
        self.sketch.save(w)?;
        self.tracker.save(w)
    }

    /// Restores a sketch saved by [`AscsSketch::save`]. `inv_total` is
    /// recomputed as `1 / total` exactly as the constructor does, so a
    /// restored sketch continues the stream bit-identically.
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        codec::read_header(r, codec::TAG_ASCS_SKETCH)?;
        let t0 = codec::read_u64(r)?;
        let total = codec::read_u64(r)?;
        if total == 0 {
            return Err(CodecError::Corrupt("stream length must be positive"));
        }
        if t0 > total {
            return Err(CodecError::Corrupt(
                "exploration period exceeds the stream length",
            ));
        }
        let absolute_gate = codec::read_bool(r)?;
        let tracking_enabled = codec::read_bool(r)?;
        let inserted = codec::read_u64(r)?;
        let skipped = codec::read_u64(r)?;
        let schedule = ThresholdSchedule::restore(r)?;
        let sketch = CountSketch::restore(r)?;
        let tracker = TopKTracker::restore(r)?;
        Ok(Self {
            sketch,
            schedule,
            t0,
            total,
            tracker,
            absolute_gate,
            inv_total: 1.0 / total as f64,
            tracking_enabled,
            inserted,
            skipped,
            quarantined: 0,
        })
    }

    /// Restores a checkpointed sketch and merges it into `self` via count
    /// sketch linearity: tables and counters add, and the top-k tracker is
    /// rebuilt by re-scoring the union of both trackers' keys against the
    /// merged sketch (a tracker is reporting state, so "best `k` of the
    /// union under the merged estimates" is the meaningful merge).
    ///
    /// Both sketches must share geometry, seed, schedule, exploration and
    /// stream length, and gate flags; mismatches return
    /// [`CodecError::Incompatible`].
    pub fn merge_from_checkpoint<R: std::io::Read>(&mut self, r: &mut R) -> Result<(), CodecError> {
        let other = Self::restore(r)?;
        self.merge_restored(&other)
    }

    /// Merges an already-restored sketch into `self`; see
    /// [`AscsSketch::merge_from_checkpoint`].
    pub fn merge_restored(&mut self, other: &Self) -> Result<(), CodecError> {
        if self.t0 != other.t0 || self.total != other.total {
            return Err(CodecError::Incompatible("stream phase geometry mismatch"));
        }
        if self.schedule != other.schedule {
            return Err(CodecError::Incompatible("threshold schedule mismatch"));
        }
        if self.absolute_gate != other.absolute_gate
            || self.tracking_enabled != other.tracking_enabled
        {
            return Err(CodecError::Incompatible("gate flag mismatch"));
        }
        if self.tracker.capacity() != other.tracker.capacity() {
            return Err(CodecError::Incompatible("tracker capacity mismatch"));
        }
        self.sketch.merge_restored(&other.sketch)?;
        self.inserted += other.inserted;
        self.skipped += other.skipped;
        self.quarantined += other.quarantined;
        let mut union: Vec<u64> = self
            .tracker
            .descending()
            .into_iter()
            .chain(other.tracker.descending())
            .map(|(key, _)| key)
            .collect();
        union.sort_unstable();
        union.dedup();
        let scored: Vec<(u64, f64)> = union
            .into_iter()
            .map(|key| {
                let fresh = self.sketch.estimate(key);
                (
                    key,
                    if self.absolute_gate {
                        fresh.abs()
                    } else {
                        fresh
                    },
                )
            })
            .collect();
        self.tracker = TopKTracker::from_rescored(
            self.tracker.capacity(),
            self.tracker.offers() + other.tracker.offers(),
            scored,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchGeometry;

    fn hyper(t0: u64, theta: f64, tau0: f64) -> HyperParameters {
        HyperParameters {
            t0,
            theta,
            tau0,
            delta: 0.05,
            delta_star: 0.2,
        }
    }

    fn small_ascs(t0: u64, total: u64) -> AscsSketch {
        AscsSketch::new(
            SketchGeometry::new(5, 512),
            &hyper(t0, 0.3, 0.01),
            total,
            16,
            7,
        )
    }

    #[test]
    fn exploration_phase_ingests_everything() {
        let mut a = small_ascs(10, 100);
        for t in 1..=10 {
            let out = a.offer(3, 0.5, t);
            assert!(out.inserted);
            assert_eq!(out.phase, AscsPhase::Exploration);
        }
        assert_eq!(a.inserted_updates(), 10);
        assert_eq!(a.skipped_updates(), 0);
    }

    #[test]
    fn sampling_phase_skips_items_below_threshold() {
        let mut a = small_ascs(5, 100);
        // Item 1 builds a solid estimate during exploration; item 2 never
        // appears until sampling starts and should be gated out.
        for t in 1..=5 {
            a.offer(1, 1.0, t);
        }
        // estimate(1) ≈ 5/100 = 0.05 ≥ tau = 0.01 → keeps being sampled.
        let kept = a.offer(1, 1.0, 6);
        assert!(kept.inserted);
        assert_eq!(kept.phase, AscsPhase::Sampling);
        // estimate(2) = 0 and even the would-be estimate 0 + 0.4/100 stays
        // below tau = 0.01 → skipped.
        let skipped = a.offer(2, 0.4, 6);
        assert!(!skipped.inserted);
        assert_eq!(a.skipped_updates(), 1);
        // And the skipped update must not have changed the sketch.
        assert_eq!(a.estimate(2), 0.0);
    }

    #[test]
    fn rising_threshold_eventually_filters_weak_items() {
        // theta large → threshold ramps quickly past the weak item's mean.
        let geometry = SketchGeometry::new(5, 1024);
        let mut a = AscsSketch::new(geometry, &hyper(10, 0.9, 0.0), 200, 16, 3);
        let weak = 11u64;
        let strong = 22u64;
        let mut weak_inserted = 0;
        let mut strong_inserted = 0;
        for t in 1..=200 {
            if a.offer(weak, 0.05, t).inserted {
                weak_inserted += 1;
            }
            if a.offer(strong, 1.0, t).inserted {
                strong_inserted += 1;
            }
        }
        assert_eq!(strong_inserted, 200, "strong item must never be dropped");
        assert!(
            weak_inserted < 150,
            "weak item should be cut off by the rising threshold, got {weak_inserted}"
        );
    }

    #[test]
    fn absolute_gate_keeps_negative_signals_signed_gate_drops_them() {
        let geometry = SketchGeometry::new(5, 1024);
        let run = |signed: bool| {
            let mut a = AscsSketch::new(geometry, &hyper(10, 0.2, 0.01), 100, 16, 5);
            if signed {
                a = a.with_signed_gate();
            }
            let mut inserted = 0;
            for t in 1..=100 {
                if a.offer(7, -1.0, t).inserted {
                    inserted += 1;
                }
            }
            inserted
        };
        let with_abs = run(false);
        let with_signed = run(true);
        assert_eq!(with_abs, 100);
        assert!(with_signed <= 15, "signed gate kept {with_signed} updates");
    }

    #[test]
    fn estimates_converge_to_the_mean_scale() {
        // A signal inserted every round with value 0.8: final estimate ≈ 0.8.
        let mut a = small_ascs(20, 500);
        for t in 1..=500 {
            a.offer(42, 0.8, t);
        }
        assert!((a.estimate(42) - 0.8).abs() < 0.05);
    }

    #[test]
    fn top_pairs_surface_the_strong_items() {
        let mut a = small_ascs(10, 300);
        for t in 1..=300u64 {
            a.offer(1, 1.0, t);
            a.offer(2, 0.7, t);
            if t % 10 == 0 {
                a.offer(3, 0.05, t);
            }
        }
        let top = a.top_pairs();
        assert!(top.len() >= 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn phase_boundaries_are_inclusive_of_t0() {
        let a = small_ascs(10, 100);
        assert_eq!(a.phase(10), AscsPhase::Exploration);
        assert_eq!(a.phase(11), AscsPhase::Sampling);
    }

    #[test]
    #[should_panic(expected = "exceeds the stream length")]
    fn t0_longer_than_stream_is_rejected() {
        let _ = small_ascs(200, 100);
    }

    #[test]
    fn memory_words_reports_sketch_table() {
        let a = small_ascs(10, 100);
        assert_eq!(a.memory_words(), 5 * 512);
    }

    #[test]
    fn oversized_row_count_falls_back_to_the_unfused_path() {
        let geometry = SketchGeometry::new(17, 64); // beyond MAX_ROWS
        let mut a = AscsSketch::new(geometry, &hyper(5, 0.3, 1e-3), 50, 8, 3);
        for t in 1..=50 {
            a.offer(7, 1.0, t);
        }
        assert!((a.estimate(7) - 1.0).abs() < 0.05);
    }

    #[test]
    fn without_tracking_reports_no_top_pairs() {
        let mut a = small_ascs(10, 100).without_tracking();
        for t in 1..=100 {
            a.offer(1, 1.0, t);
        }
        assert!(a.top_pairs().is_empty());
        assert_eq!(a.inserted_updates(), 100);
        assert!((a.estimate(1) - 1.0).abs() < 0.05);
    }

    #[test]
    fn exploration_inserts_are_tracked_on_gated_runs() {
        // On sparse streams a pair's co-observations can be confined to the
        // exploration window; it must still surface in the report.
        let mut a = small_ascs(10, 100);
        for t in 1..=10 {
            a.offer(5, 1.0, t); // exploration only
        }
        let top = a.top_pairs();
        assert_eq!(top.len(), 1, "exploration-only pair was dropped");
        assert_eq!(top[0].0, 5);
    }

    #[test]
    fn vanilla_runs_track_throughout() {
        let mut a = AscsSketch::vanilla(SketchGeometry::new(5, 512), 50, 8, 2);
        for t in 1..=50 {
            a.offer(3, 0.5, t);
        }
        let top = a.top_pairs();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, 3);
    }

    #[test]
    fn planned_offer_matches_hashed_offer_bit_for_bit() {
        let build = || small_ascs(20, 256);
        let mut hashed = build();
        let mut planned = build();
        let plan = planned.sketch().build_plan(12);
        for t in 1..=256u64 {
            let gate = hashed.sample_gate(t);
            for key in 0..12u64 {
                let x = ((key as f64) - 4.0) * 0.3 * (1.0 + (t % 7) as f64 * 0.1);
                let a = hashed.offer_gated(key, x, gate);
                let b = planned.offer_planned(&plan, key, x, gate);
                assert_eq!(a, b, "outcome diverged at t={t}, key={key}");
            }
        }
        let ta = hashed.sketch().table();
        let tb = planned.sketch().table();
        assert!(
            ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()),
            "sketch tables diverged"
        );
        assert_eq!(hashed.inserted_updates(), planned.inserted_updates());
        assert_eq!(hashed.skipped_updates(), planned.skipped_updates());
        assert_eq!(hashed.top_pairs(), planned.top_pairs());
        assert_eq!(hashed.top_pairs_limit(3), planned.top_pairs_limit(3));
        assert_eq!(hashed.top_pairs_limit(3), hashed.top_pairs()[..3].to_vec());
    }

    #[test]
    fn ingest_planned_batch_matches_per_update_offers() {
        let mut direct = small_ascs(10, 128).without_tracking();
        let mut batched = small_ascs(10, 128).without_tracking();
        let plan = batched.sketch().build_plan(8);
        let updates: Vec<crate::sharded::ShardUpdate> = (1..=128u64)
            .flat_map(|t| {
                (0..8u64).map(move |key| crate::sharded::ShardUpdate {
                    key,
                    value: ((key + t) % 5) as f64 * 0.4 - 0.8,
                    t,
                })
            })
            .collect();
        for u in &updates {
            direct.offer(u.key, u.value, u.t);
        }
        batched.ingest_planned(&plan, &updates);
        let ta = direct.sketch().table();
        let tb = batched.sketch().table();
        assert!(ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(direct.inserted_updates(), batched.inserted_updates());
        assert_eq!(direct.skipped_updates(), batched.skipped_updates());
    }

    #[test]
    fn planned_offer_falls_back_beyond_max_rows() {
        let geometry = SketchGeometry::new(MAX_ROWS + 1, 64);
        let mut a = AscsSketch::new(geometry, &hyper(5, 0.3, 1e-3), 50, 8, 3);
        let plan = a.sketch().build_plan(8);
        for t in 1..=50 {
            a.offer_planned(&plan, 7, 1.0, a.sample_gate(t));
        }
        assert!((a.estimate(7) - 1.0).abs() < 0.05);
    }

    #[test]
    fn non_finite_offers_are_quarantined_without_touching_state() {
        let mut a = small_ascs(10, 100);
        for t in 1..=20 {
            a.offer(1, 1.0, t);
        }
        let table_before: Vec<u64> = a.sketch().table().iter().map(|v| v.to_bits()).collect();
        let (ins, skip) = (a.inserted_updates(), a.skipped_updates());
        for (i, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let out = a.offer(1, bad, 21 + i as u64);
            assert!(!out.inserted, "non-finite update was inserted");
        }
        assert_eq!(a.quarantined_updates(), 3);
        assert_eq!(a.inserted_updates(), ins);
        assert_eq!(a.skipped_updates(), skip);
        let table_after: Vec<u64> = a.sketch().table().iter().map(|v| v.to_bits()).collect();
        assert_eq!(table_before, table_after, "quarantine touched the table");
        // The stream keeps working afterwards.
        assert!(a.offer(1, 1.0, 24).inserted);
    }

    #[test]
    fn offer_checked_surfaces_a_typed_non_finite_error() {
        let mut a = small_ascs(10, 100);
        let err = a.offer_checked(7, f64::NAN, 1).unwrap_err();
        match err {
            IngestError::NonFinite { index, value } => {
                assert_eq!(index, 7);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert_eq!(a.quarantined_updates(), 1);
        assert!(a.offer_checked(7, 1.0, 1).unwrap().inserted);
    }

    #[test]
    fn quarantine_counter_is_not_serialized() {
        let mut a = small_ascs(10, 100);
        a.offer(1, f64::NAN, 1);
        assert_eq!(a.quarantined_updates(), 1);
        let mut bytes = Vec::new();
        a.save(&mut bytes).unwrap();
        let back = AscsSketch::restore(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.quarantined_updates(), 0, "diagnostic state leaked");
    }

    #[test]
    fn sample_gate_reflects_phase_and_threshold() {
        let a = small_ascs(10, 100);
        let g = a.sample_gate(5);
        assert_eq!(g.phase, AscsPhase::Exploration);
        let g = a.sample_gate(50);
        assert_eq!(g.phase, AscsPhase::Sampling);
        assert_eq!(g.tau, a.schedule().tau(49));
        assert_eq!(a.top_k_capacity(), 16);
        assert!(a.absolute_gate());
    }
}
