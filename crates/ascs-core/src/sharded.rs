//! Sharded parallel ingestion: N worker [`AscsSketch`]es partitioned by
//! key, merged via the count sketch's linearity.
//!
//! A count sketch is a linear function of its update stream, so a stream
//! partitioned **by key** across `N` workers and merged at the end produces
//! *exactly* the table a single sequential sketch would have built (the
//! per-bucket sums are the same numbers, reassociated). [`ShardedAscs`]
//! exploits this to scale the single hottest path of the system — trillion
//! scale pair-update ingestion — across OS threads with `std::thread`
//! scoped workers and no cross-thread synchronisation on the per-update
//! path: each worker owns its sketch outright and simply skips updates that
//! are not its own.
//!
//! For gated (ASCS) runs each worker applies the sampling gate against its
//! **shard-local** estimate. Keys are disjoint across shards, so a key's
//! own mass is fully visible to its worker; what a worker does not see is
//! the *collision noise* contributed by other shards' keys, which makes the
//! shard-local gate slightly **cleaner** than the sequential one (fewer
//! noise-inflated accepts). When no cross-key bucket collisions occur the
//! gate decisions — and therefore the merged estimates — are identical to
//! sequential ingestion; the equivalence tests pin both properties down.

use crate::ascs::AscsSketch;
use crate::config::SketchGeometry;
use crate::hyper::HyperParameters;
use ascs_count_sketch::codec::{self, CodecError};
use ascs_count_sketch::{median_in_place, CountSketch, HashPlan, MAX_ROWS};
use ascs_sketch_hash::splitmix64;

/// One pair update routed through the sharded ingestion layer: the linear
/// pair key, the raw update value `x` (not yet scaled by `1/T`) and the
/// 1-based stream time `t` it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardUpdate {
    /// Linear pair key (the sketch item identifier).
    pub key: u64,
    /// Raw update value `X_i^{(t)}`.
    pub value: f64,
    /// 1-based stream time of the sample the update came from.
    pub t: u64,
}

/// Salt decorrelating the shard router from the sketch hash family, so that
/// shard assignment never aligns with bucket assignment.
pub(crate) const ROUTER_SALT: u64 = 0x9E6C_63D4_7D5F_B1A3;

/// Batch size below which [`ShardedAscs::offer_batch`] stays on the calling
/// thread — spawning workers for a handful of updates costs more than the
/// updates themselves.
const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

/// Hard cap on the shard count: the plan-driven slot router stores one
/// `u8` shard id per slot, and no machine this targets comes anywhere near
/// 256 useful ingestion threads. Checked up front by [`ShardedAscs::new`]
/// and [`ShardedAscs::vanilla`] (not just deep inside the first planned
/// batch) so an oversized configuration fails at construction time.
pub const MAX_SHARDS: usize = 256;

#[inline]
pub(crate) fn shard_for(key: u64, salt: u64, shards: usize) -> usize {
    if shards == 1 {
        0
    } else {
        (splitmix64(key ^ salt) % shards as u64) as usize
    }
}

/// Extends a slot → shard routing table to cover the plan slots `0..len`
/// (`router[slot] == shard_for(slot, salt, shards)`). The one builder
/// behind [`ShardedAscs::build_slot_router`] and the serving producer's
/// router.
///
/// # Panics
/// Panics with more than [`MAX_SHARDS`] shards (the table stores `u8`
/// shard ids).
pub(crate) fn extend_slot_router(router: &mut Vec<u8>, len: usize, salt: u64, shards: usize) {
    assert!(
        shards <= MAX_SHARDS,
        "slot routing supports at most {MAX_SHARDS} shards"
    );
    while router.len() < len {
        let slot = router.len() as u64;
        router.push(shard_for(slot, salt, shards) as u8);
    }
}

/// `N` key-partitioned [`AscsSketch`] workers that ingest in parallel and
/// answer queries as if their tables had been merged.
#[derive(Debug, Clone)]
pub struct ShardedAscs {
    workers: Vec<AscsSketch>,
    router_salt: u64,
    parallel_threshold: usize,
    /// Reusable per-shard staging buffers for [`ShardedAscs::offer_batch`]:
    /// the batch is routed **once** on the calling thread, then each worker
    /// consumes only its own slice — no per-worker rescans of the batch.
    scratch: Vec<Vec<ShardUpdate>>,
    /// Precomputed slot → shard assignments for plan-driven ingestion
    /// (`slot_router[slot] == shard_of(slot)`), built lazily by
    /// [`ShardedAscs::build_slot_router`] so the planned batch path routes
    /// by table lookup instead of hashing every update's key.
    slot_router: Vec<u8>,
}

impl ShardedAscs {
    /// Creates `shards` gated workers sharing one `(geometry, seed)` so
    /// their tables are mergeable, with the same hyperparameters and stream
    /// length a sequential [`AscsSketch::new`] would get.
    ///
    /// # Panics
    /// Panics if `shards == 0`, `shards > MAX_SHARDS`, or the arguments
    /// would make [`AscsSketch::new`] panic.
    pub fn new(
        geometry: SketchGeometry,
        hyper: &HyperParameters,
        total_samples: u64,
        top_k_capacity: usize,
        seed: u64,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "sharded ingestion needs at least one shard");
        assert!(
            shards <= MAX_SHARDS,
            "sharded ingestion supports at most {MAX_SHARDS} shards (slot routing stores u8 shard ids), got {shards}"
        );
        let workers = (0..shards)
            .map(|_| AscsSketch::new(geometry, hyper, total_samples, top_k_capacity, seed))
            .collect();
        Self {
            workers,
            router_salt: splitmix64(seed ^ ROUTER_SALT),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            scratch: vec![Vec::new(); shards],
            slot_router: Vec::new(),
        }
    }

    /// Creates `shards` vanilla (always-ingest) workers — the parallel
    /// counterpart of [`AscsSketch::vanilla`]. Because no gate is involved,
    /// the merged table is exactly the sequential table regardless of
    /// collisions.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `shards > MAX_SHARDS`.
    pub fn vanilla(
        geometry: SketchGeometry,
        total_samples: u64,
        top_k_capacity: usize,
        seed: u64,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "sharded ingestion needs at least one shard");
        assert!(
            shards <= MAX_SHARDS,
            "sharded ingestion supports at most {MAX_SHARDS} shards (slot routing stores u8 shard ids), got {shards}"
        );
        let workers = (0..shards)
            .map(|_| AscsSketch::vanilla(geometry, total_samples, top_k_capacity, seed))
            .collect();
        Self {
            workers,
            router_salt: splitmix64(seed ^ ROUTER_SALT),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            scratch: vec![Vec::new(); shards],
            slot_router: Vec::new(),
        }
    }

    /// Overrides the batch size below which ingestion stays single
    /// threaded (tests use this to force the parallel path).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold.max(1);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The worker sketches (read-only; shard `i` owns the keys
    /// [`ShardedAscs::shard_of`] maps to `i`).
    pub fn workers(&self) -> &[AscsSketch] {
        &self.workers
    }

    /// The shard owning `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        shard_for(key, self.router_salt, self.workers.len())
    }

    /// Routes a single update to its owning shard on the calling thread.
    pub fn offer(&mut self, key: u64, x: f64, t: u64) {
        let shard = self.shard_of(key);
        self.workers[shard].offer(key, x, t);
    }

    /// Ingests a batch of updates, fanning out across one scoped OS thread
    /// per shard when the batch is large enough to amortise the spawns.
    ///
    /// The batch is routed once on the calling thread into per-shard
    /// staging buffers; each worker then runs its own buffer through
    /// [`AscsSketch::ingest_batch`]. The routing preserves batch order
    /// within a shard, so the result is deterministic and independent of
    /// both the thread schedule and how the stream was cut into batches.
    pub fn offer_batch(&mut self, batch: &[ShardUpdate]) {
        self.ingest_routed(None, batch);
    }

    /// Precomputes the slot → shard routing table for the plan slots
    /// `0..len`, so [`ShardedAscs::offer_batch_planned`] routes each update
    /// with one byte load instead of a hash. Idempotent; extends an
    /// existing table when a larger plan arrives.
    ///
    /// # Panics
    /// Panics with more than [`MAX_SHARDS`] shards (the table stores `u8`
    /// shard ids). Unreachable through the public constructors, which
    /// enforce the cap up front; kept as defense in depth.
    pub fn build_slot_router(&mut self, len: usize) {
        extend_slot_router(
            &mut self.slot_router,
            len,
            self.router_salt,
            self.workers.len(),
        );
    }

    /// Plan-driven counterpart of [`ShardedAscs::offer_batch`]: update keys
    /// are plan slots (the dense identification `slot == key`), routing
    /// uses the precomputed slot table, and each worker replays plan
    /// entries via [`AscsSketch::ingest_planned`] — so neither the router
    /// nor the workers hash anything per update. Produces exactly the state
    /// [`ShardedAscs::offer_batch`] would: the routing table agrees with
    /// [`ShardedAscs::shard_of`] by construction and the planned offer is
    /// bit-identical to the hashed offer.
    ///
    /// # Panics
    /// Panics if the plan does not match the workers' hash family, or if an
    /// update's key is outside the plan.
    pub fn offer_batch_planned(&mut self, plan: &HashPlan, batch: &[ShardUpdate]) {
        self.ingest_routed(Some(plan), batch);
    }

    /// The routing body behind both batch entry points: keys route by the
    /// slot table with a plan and by hashing without one, and every worker
    /// runs its share through the one batch driver.
    fn ingest_routed(&mut self, plan: Option<&HashPlan>, batch: &[ShardUpdate]) {
        let shards = self.workers.len();
        if shards == 1 {
            // Nothing to route: drive the caller's slice directly.
            self.workers[0].ingest_batch(plan, batch);
            return;
        }
        if let Some(plan) = plan {
            // Checked here, on the calling thread, so a foreign plan fails
            // before any routing or worker spawn.
            self.workers[0].sketch().verify_plan(plan);
            self.build_slot_router(plan.len());
        }
        for buf in &mut self.scratch {
            buf.clear();
        }
        for u in batch {
            let shard = match plan {
                Some(_) => usize::from(self.slot_router[u.key as usize]),
                None => shard_for(u.key, self.router_salt, shards),
            };
            self.scratch[shard].push(*u);
        }
        let work = self.workers.iter_mut().zip(&self.scratch);
        if batch.len() < self.parallel_threshold {
            for (worker, own) in work {
                worker.ingest_batch(plan, own);
            }
        } else {
            std::thread::scope(|scope| {
                for (worker, own) in work {
                    scope.spawn(move || worker.ingest_batch(plan, own));
                }
            });
        }
    }

    /// Merged point query: per row, the bucket contents of **all** workers
    /// are summed before the sign flip and median — exactly the estimate a
    /// materialised [`ShardedAscs::merged_sketch`] would return, at
    /// `O(shards · K)` cost instead of `O(shards · K · R)`.
    ///
    /// Degenerate geometries beyond [`MAX_ROWS`] rows (which the sequential
    /// sketch handles via its unfused fallback) take the materialised-merge
    /// path here, trading `O(shards · K · R)` per query for the same
    /// answer.
    pub fn estimate(&self, key: u64) -> f64 {
        if self.workers[0].sketch().rows() > MAX_ROWS {
            return self.merged_sketch().estimate(key);
        }
        let locs = self.workers[0].sketch().locate(key);
        let mut rows = [0.0f64; MAX_ROWS];
        let n = locs.len();
        for (row, (bucket, sign)) in locs.iter().enumerate() {
            let mut sum = 0.0;
            for worker in &self.workers {
                sum += worker.sketch().raw_bucket(row, bucket);
            }
            rows[row] = sum * sign;
        }
        median_in_place(&mut rows[..n])
    }

    /// Materialises the merged count sketch (the sum of all worker tables),
    /// for callers that need whole-table access.
    pub fn merged_sketch(&self) -> CountSketch {
        let mut merged = self.workers[0].sketch().clone();
        for worker in &self.workers[1..] {
            merged.merge(worker.sketch());
        }
        merged
    }

    /// The top tracked pairs across all shards, re-scored against the
    /// merged tables so the reported estimates match what
    /// [`ShardedAscs::estimate`] would answer. Keys are disjoint across
    /// shards, so the union needs no deduplication.
    pub fn top_pairs(&self) -> Vec<(u64, f64)> {
        let absolute = self.workers[0].absolute_gate();
        let capacity = self.workers[0].top_k_capacity();
        let mut merged: Vec<(u64, f64)> = Vec::new();
        for worker in &self.workers {
            for (key, _) in worker.top_pairs() {
                let est = self.estimate(key);
                merged.push((key, if absolute { est.abs() } else { est }));
            }
        }
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(capacity);
        merged
    }

    /// Total updates inserted across all shards.
    pub fn inserted_updates(&self) -> u64 {
        self.workers.iter().map(AscsSketch::inserted_updates).sum()
    }

    /// Total updates skipped by the shard-local gates.
    pub fn skipped_updates(&self) -> u64 {
        self.workers.iter().map(AscsSketch::skipped_updates).sum()
    }

    /// Total sketch memory across all shards, in float-equivalent words.
    pub fn memory_words(&self) -> usize {
        self.workers.iter().map(AscsSketch::memory_words).sum()
    }

    /// Serializes the worker set: shard count, router salt, parallel
    /// threshold, then one nested [`AscsSketch`] record per worker. The
    /// staging scratch and the lazily built slot router are transient
    /// (rebuilt on demand) and do not travel.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        codec::write_header(w, codec::TAG_SHARDED_ASCS)?;
        codec::write_u64(w, self.workers.len() as u64)?;
        codec::write_u64(w, self.router_salt)?;
        codec::write_u64(w, self.parallel_threshold as u64)?;
        for worker in &self.workers {
            worker.save(w)?;
        }
        Ok(())
    }

    /// Restores a worker set saved by [`ShardedAscs::save`]. The shard
    /// count must be in `1..=MAX_SHARDS` (the same bound the constructors
    /// enforce), otherwise the record is [`CodecError::Corrupt`].
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        codec::read_header(r, codec::TAG_SHARDED_ASCS)?;
        let shards = codec::read_len(r, MAX_SHARDS as u64, "shard count out of range")?;
        if shards == 0 {
            return Err(CodecError::Corrupt("shard count out of range"));
        }
        let router_salt = codec::read_u64(r)?;
        let parallel_threshold =
            codec::read_len(r, u64::from(u32::MAX), "parallel threshold out of range")?;
        let mut workers = Vec::with_capacity(shards);
        for _ in 0..shards {
            workers.push(AscsSketch::restore(r)?);
        }
        Ok(Self {
            workers,
            router_salt,
            parallel_threshold: parallel_threshold.max(1),
            scratch: vec![Vec::new(); shards],
            slot_router: Vec::new(),
        })
    }

    /// Restores a checkpointed worker set and merges it into `self`
    /// shard-by-shard (worker `i` merges into worker `i`; both processes
    /// route identically because they share the router salt). Shard count
    /// or salt mismatches return [`CodecError::Incompatible`].
    pub fn merge_from_checkpoint<R: std::io::Read>(&mut self, r: &mut R) -> Result<(), CodecError> {
        let other = Self::restore(r)?;
        self.merge_restored(&other)
    }

    /// Merges an already-restored worker set into `self`; see
    /// [`ShardedAscs::merge_from_checkpoint`].
    pub fn merge_restored(&mut self, other: &Self) -> Result<(), CodecError> {
        if self.workers.len() != other.workers.len() {
            return Err(CodecError::Incompatible("shard count mismatch"));
        }
        if self.router_salt != other.router_salt {
            return Err(CodecError::Incompatible("shard router salt mismatch"));
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.merge_restored(theirs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hyper(t0: u64, theta: f64, tau0: f64) -> HyperParameters {
        HyperParameters {
            t0,
            theta,
            tau0,
            delta: 0.05,
            delta_star: 0.2,
        }
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let s = ShardedAscs::vanilla(SketchGeometry::new(3, 64), 100, 8, 5, 4);
        let mut seen = [false; 4];
        for key in 0..256u64 {
            let shard = s.shard_of(key);
            assert!(shard < 4);
            assert_eq!(shard, s.shard_of(key));
            seen[shard] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "a shard received no keys: {seen:?}"
        );
    }

    #[test]
    fn single_shard_is_the_sequential_sketch() {
        let geometry = SketchGeometry::new(5, 128);
        let hp = hyper(10, 0.3, 1e-3);
        let mut seq = AscsSketch::new(geometry, &hp, 100, 8, 7);
        let mut sharded = ShardedAscs::new(geometry, &hp, 100, 8, 7, 1);
        for t in 1..=100u64 {
            for key in 0..10u64 {
                let x = (key as f64 - 4.0) * 0.2;
                seq.offer(key, x, t);
                sharded.offer(key, x, t);
            }
        }
        for key in 0..10u64 {
            assert_eq!(seq.estimate(key), sharded.estimate(key));
        }
        assert_eq!(seq.inserted_updates(), sharded.inserted_updates());
        assert_eq!(seq.skipped_updates(), sharded.skipped_updates());
    }

    #[test]
    fn batch_ingestion_is_independent_of_batch_boundaries() {
        let geometry = SketchGeometry::new(5, 256);
        let build = || {
            ShardedAscs::new(geometry, &hyper(8, 0.2, 1e-3), 64, 16, 3, 4)
                .with_parallel_threshold(1)
        };
        let mut updates = Vec::new();
        for t in 1..=64u64 {
            for key in 0..20u64 {
                updates.push(ShardUpdate {
                    key,
                    value: ((key + t) % 7) as f64 * 0.25 - 0.75,
                    t,
                });
            }
        }
        let mut whole = build();
        whole.offer_batch(&updates);
        let mut chunked = build();
        for chunk in updates.chunks(77) {
            chunked.offer_batch(chunk);
        }
        for key in 0..20u64 {
            assert_eq!(whole.estimate(key), chunked.estimate(key));
        }
        assert_eq!(whole.inserted_updates(), chunked.inserted_updates());
    }

    #[test]
    fn merged_sketch_agrees_with_cross_shard_estimates() {
        let geometry = SketchGeometry::new(5, 64);
        let mut s = ShardedAscs::vanilla(geometry, 32, 16, 11, 3).with_parallel_threshold(1);
        let updates: Vec<ShardUpdate> = (1..=32u64)
            .flat_map(|t| {
                (0..30u64).map(move |key| ShardUpdate {
                    key,
                    value: ((key * t) % 5) as f64 * 0.5 - 1.0,
                    t,
                })
            })
            .collect();
        s.offer_batch(&updates);
        let merged = s.merged_sketch();
        for key in 0..30u64 {
            assert_eq!(s.estimate(key), merged.estimate(key));
        }
        assert_eq!(merged.update_count(), s.inserted_updates());
    }

    #[test]
    fn top_pairs_surface_strong_keys_across_shards() {
        let geometry = SketchGeometry::new(5, 1024);
        let mut s = ShardedAscs::new(geometry, &hyper(10, 0.2, 1e-3), 100, 8, 9, 4);
        // Two strong keys that (with overwhelming probability) land in
        // different shards among 4, plus background weak keys.
        for t in 1..=100u64 {
            s.offer(1, 1.0, t);
            s.offer(2, 0.9, t);
            if t % 10 == 0 {
                s.offer(77, 0.01, t);
            }
        }
        let top = s.top_pairs();
        assert!(top.len() >= 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
        assert!((top[0].1 - 1.0).abs() < 0.05);
    }

    #[test]
    fn planned_batch_matches_hashed_batch_bit_for_bit() {
        let geometry = SketchGeometry::new(5, 256);
        let build = || {
            ShardedAscs::new(geometry, &hyper(8, 0.2, 1e-3), 64, 16, 3, 4)
                .with_parallel_threshold(1)
        };
        let updates: Vec<ShardUpdate> = (1..=64u64)
            .flat_map(|t| {
                (0..20u64).map(move |key| ShardUpdate {
                    key,
                    value: ((key + t) % 7) as f64 * 0.25 - 0.75,
                    t,
                })
            })
            .collect();
        let mut hashed = build();
        hashed.offer_batch(&updates);
        let mut planned = build();
        let plan = planned.workers()[0].sketch().build_plan(20);
        // Route through both the parallel path (one big batch) and the
        // sequential small-batch path (raised threshold).
        planned.offer_batch_planned(&plan, &updates[..updates.len() / 2]);
        planned.parallel_threshold = usize::MAX;
        planned.offer_batch_planned(&plan, &updates[updates.len() / 2..]);
        for (a, b) in hashed.workers().iter().zip(planned.workers()) {
            let ta = a.sketch().table();
            let tb = b.sketch().table();
            assert!(
                ta.iter().zip(tb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "a worker table diverged between hashed and planned routing"
            );
        }
        assert_eq!(hashed.inserted_updates(), planned.inserted_updates());
        assert_eq!(hashed.skipped_updates(), planned.skipped_updates());
        // The slot router agrees with the hashing router everywhere.
        for slot in 0..20u64 {
            assert_eq!(
                usize::from(planned.slot_router[slot as usize]),
                planned.shard_of(slot)
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not match this sketch")]
    fn planned_batch_rejects_foreign_plans_on_the_sequential_path() {
        // The small-batch path must enforce the plan contract too — in
        // release builds the per-update check inside the workers is
        // debug-only, so the batch entry point carries the real assert.
        let geometry = SketchGeometry::new(5, 64);
        let mut s = ShardedAscs::vanilla(geometry, 32, 8, 1, 2);
        let foreign = ShardedAscs::vanilla(geometry, 32, 8, 2, 2).workers()[0]
            .sketch()
            .build_plan(8);
        s.offer_batch_planned(
            &foreign,
            &[ShardUpdate {
                key: 0,
                value: 1.0,
                t: 1,
            }],
        );
    }

    #[test]
    fn memory_words_scales_with_shards() {
        let s = ShardedAscs::vanilla(SketchGeometry::new(4, 100), 10, 4, 1, 3);
        assert_eq!(s.memory_words(), 3 * 4 * 100);
        assert_eq!(s.shards(), 3);
        assert_eq!(s.workers().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedAscs::vanilla(SketchGeometry::new(2, 16), 10, 4, 1, 0);
    }

    // Regression: the shard cap used to be checked only inside
    // build_slot_router, so a 257-shard set constructed fine and panicked
    // deep inside the first planned batch. Both constructors now fail fast.
    #[test]
    #[should_panic(expected = "at most 256 shards")]
    fn oversized_shard_count_panics_at_construction_vanilla() {
        let _ = ShardedAscs::vanilla(SketchGeometry::new(2, 16), 10, 4, 1, MAX_SHARDS + 1);
    }

    #[test]
    #[should_panic(expected = "at most 256 shards")]
    fn oversized_shard_count_panics_at_construction_gated() {
        let _ = ShardedAscs::new(
            SketchGeometry::new(2, 16),
            &hyper(2, 0.1, 1e-3),
            10,
            4,
            1,
            MAX_SHARDS + 1,
        );
    }

    #[test]
    fn max_shard_count_still_constructs() {
        let s = ShardedAscs::vanilla(SketchGeometry::new(2, 16), 10, 4, 1, MAX_SHARDS);
        assert_eq!(s.shards(), MAX_SHARDS);
    }

    #[test]
    fn oversized_row_count_works_end_to_end() {
        // Beyond MAX_ROWS both ingestion (per-worker unfused fallback) and
        // queries (materialised merge) must still work, matching the
        // sequential sketch's fallback contract.
        let geometry = SketchGeometry::new(MAX_ROWS + 1, 64);
        let mut s = ShardedAscs::new(geometry, &hyper(5, 0.3, 1e-3), 50, 8, 3, 2);
        for t in 1..=50 {
            s.offer(7, 1.0, t);
        }
        assert!((s.estimate(7) - 1.0).abs() < 0.05);
        assert_eq!(s.top_pairs()[0].0, 7);
    }
}
