//! The Count Sketch data structure (Charikar, Chen, Farach-Colton 2002).

use crate::PointSketch;
use ascs_sketch_hash::codec::{self, CodecError};
use ascs_sketch_hash::{HashFamily, HashPlan, RowLocations, MAX_ROWS};

/// Upper bound on `rows × range` accepted by [`CountSketch::restore`] — a
/// corrupt header cannot demand more than 2 GiB of table.
pub const MAX_TABLE_WORDS: u64 = 1 << 28;

/// Slots per block of the [`CountSketch::estimate_many`] sweep. Each block
/// gathers row by row, so the working set per inner loop is one table row
/// (`R × 8` bytes) plus the block buffers — small enough that consecutive
/// slots hitting nearby buckets actually share cache lines, instead of the
/// per-key query order that cycles through all `K` rows between any two
/// touches of the same row.
const SWEEP_BLOCK: usize = 1024;

/// A count sketch `W ∈ R^{K×R}`.
///
/// Each update `(i, w)` adds `w · s_e(i)` to bucket `h_e(i)` of every row
/// `e`; a point query returns the median over rows of `W[e, h_e(i)] · s_e(i)`
/// (equation (1) of the paper). The sketch is an unbiased estimator of the
/// accumulated weight per item, with error governed by the mass of colliding
/// items — which is exactly the noise term ASCS's active sampling shrinks.
///
/// ```
/// use ascs_count_sketch::{CountSketch, PointSketch};
/// let mut cs = CountSketch::new(5, 1024, 42);
/// for _ in 0..100 {
///     cs.update(7, 1.0);
/// }
/// cs.update(9, 3.0);
/// assert!((cs.estimate(7) - 100.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CountSketch {
    family: HashFamily,
    /// Row-major `K × R` table of accumulated signed weights.
    table: Vec<f64>,
    rows: usize,
    range: usize,
    seed: u64,
    updates: u64,
}

impl CountSketch {
    /// Creates a sketch with `rows` hash tables (`K`) of `range` buckets
    /// (`R`) each, seeded deterministically.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `range == 0`.
    pub fn new(rows: usize, range: usize, seed: u64) -> Self {
        let family = HashFamily::new(rows, range, seed);
        Self {
            family,
            table: vec![0.0; rows * range],
            rows,
            range,
            seed,
            updates: 0,
        }
    }

    /// Creates a sketch from a total memory budget of `budget_words` float
    /// slots split across `rows` rows (`R = budget / K`), the convention of
    /// Section 8.1 / Table 5 of the paper.
    pub fn with_budget(rows: usize, budget_words: usize, seed: u64) -> Self {
        assert!(rows > 0, "budget split needs at least one row");
        let range = (budget_words / rows).max(1);
        Self::new(rows, range, seed)
    }

    /// Number of rows `K`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buckets per row `R`.
    pub fn range(&self) -> usize {
        self.range
    }

    /// Seed used to derive the hash family.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of updates applied.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// The underlying hash family (shared with ASCS so that the active
    /// sampling query and the insertion hit the same buckets).
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// Raw table access for diagnostics and tests.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// Resets all buckets to zero (keeps the hash family).
    pub fn clear(&mut self) {
        self.table.fill(0.0);
        self.updates = 0;
    }

    /// Adds `weight` to item `key` in every row.
    #[inline]
    pub fn update(&mut self, key: u64, weight: f64) {
        for row in 0..self.rows {
            let hasher = &self.family.row_hashers()[row];
            let bucket = hasher.bucket(key, self.range);
            let sign = hasher.sign_f64(key);
            self.table[row * self.range + bucket] += weight * sign;
        }
        self.updates += 1;
    }

    /// Hashes `key` once, producing the per-row locations that
    /// [`CountSketch::estimate_at`], [`CountSketch::row_values_at`] and
    /// [`CountSketch::update_at`] reuse. This is the entry point of the
    /// hash-once ingestion discipline: a gate read, an insertion and a
    /// post-insert estimate can all share one hashing round.
    ///
    /// # Panics
    /// Panics if the sketch has more than [`MAX_ROWS`] rows.
    #[inline]
    pub fn locate(&self, key: u64) -> RowLocations {
        self.family.locate_all(key)
    }

    /// Reads the signed per-row estimates at precomputed locations into
    /// `buf` (no hashing); returns the number of rows written. Each entry is
    /// `W[e, h_e(i)] · s_e(i)`, the quantity the median in
    /// [`CountSketch::estimate`] is taken over.
    #[inline]
    pub fn row_values_at(&self, locs: &RowLocations, buf: &mut [f64; MAX_ROWS]) -> usize {
        self.row_values_at_buckets(locs.buckets(), locs.sign_mask(), buf)
    }

    /// The one signed per-row read behind [`CountSketch::row_values_at`]
    /// and [`CountSketch::row_values_planned`]: `buf[e]` becomes
    /// `W[e, buckets[e]] · s_e`, where bit `e` of `sign_mask` set means
    /// `s_e = −1`. Returns the number of rows written.
    ///
    /// # Panics
    /// Panics if more than [`MAX_ROWS`] buckets are given — the stack
    /// buffer caps there.
    #[inline]
    pub fn row_values_at_buckets(
        &self,
        buckets: &[u32],
        sign_mask: u32,
        buf: &mut [f64; MAX_ROWS],
    ) -> usize {
        assert!(
            buckets.len() <= MAX_ROWS,
            "row reads support at most {MAX_ROWS} rows, got {}",
            buckets.len()
        );
        let mut base = 0usize;
        for ((row, out), &bucket) in buf.iter_mut().enumerate().zip(buckets) {
            let sign = ascs_sketch_hash::sign_from_bit(u64::from(sign_mask >> row) & 1);
            *out = self.table[base + bucket as usize] * sign;
            base += self.range;
        }
        buckets.len()
    }

    /// Point query at precomputed locations (no hashing). Identical to
    /// [`CountSketch::estimate`] of the key the locations were derived from.
    #[inline]
    pub fn estimate_at(&self, locs: &RowLocations) -> f64 {
        let mut buf = [0.0f64; MAX_ROWS];
        let n = self.row_values_at(locs, &mut buf);
        median_in_place(&mut buf[..n])
    }

    /// Adds `weight` at precomputed locations (no hashing). Identical to
    /// [`CountSketch::update`] of the key the locations were derived from.
    #[inline]
    pub fn update_at(&mut self, locs: &RowLocations, weight: f64) {
        self.update_at_buckets(locs.buckets(), locs.sign_mask(), weight);
    }

    /// The one signed write behind [`CountSketch::update_at`] and
    /// [`CountSketch::update_planned`]: adds `weight · s_e` to
    /// `W[e, buckets[e]]` for every row `e`, where bit `e` of `sign_mask`
    /// set means `s_e = −1`.
    #[inline]
    pub fn update_at_buckets(&mut self, buckets: &[u32], sign_mask: u32, weight: f64) {
        let mut base = 0usize;
        for (row, &bucket) in buckets.iter().enumerate() {
            let sign = ascs_sketch_hash::sign_from_bit(u64::from(sign_mask >> row) & 1);
            self.table[base + bucket as usize] += weight * sign;
            base += self.range;
        }
        self.updates += 1;
    }

    /// Builds a reusable [`HashPlan`] for the dense key set `0..len` from
    /// this sketch's hash family. Every plan-driven call below replays the
    /// arena instead of hashing.
    pub fn build_plan(&self, len: usize) -> HashPlan {
        HashPlan::build_dense(&self.family, len)
    }

    /// Asserts that `plan` was derived from this sketch's hash family —
    /// running a foreign plan would silently read and write wrong buckets.
    #[inline]
    pub fn verify_plan(&self, plan: &HashPlan) {
        assert!(
            plan.matches(&self.family),
            "hash plan geometry/seed does not match this sketch \
             (plan {}x{} seed {}, sketch {}x{} seed {})",
            plan.rows(),
            plan.range(),
            plan.seed(),
            self.rows,
            self.range,
            self.seed
        );
    }

    /// Adds `weight` at a precomputed plan slot (no hashing). Identical to
    /// [`CountSketch::update`] of the key the slot was built from.
    #[inline]
    pub fn update_planned(&mut self, plan: &HashPlan, slot: usize, weight: f64) {
        debug_assert!(plan.matches(&self.family));
        let (buckets, mask) = plan.entry(slot);
        self.update_at_buckets(buckets, mask, weight);
    }

    /// Reads the signed per-row estimates at a plan slot into `buf` (no
    /// hashing); returns the number of rows written. Bit-identical to
    /// [`CountSketch::row_values_at`] of the slot's locations.
    ///
    /// # Panics
    /// Panics if the sketch has more than [`MAX_ROWS`] rows — the stack
    /// buffer caps there, matching [`CountSketch::locate`]; such geometries
    /// must use [`CountSketch::estimate_many`] (heap buffers) or the
    /// per-key APIs instead.
    #[inline]
    pub fn row_values_planned(
        &self,
        plan: &HashPlan,
        slot: usize,
        buf: &mut [f64; MAX_ROWS],
    ) -> usize {
        debug_assert!(plan.matches(&self.family));
        let (buckets, mask) = plan.entry(slot);
        self.row_values_at_buckets(buckets, mask, buf)
    }

    /// Point query at a plan slot (no hashing). Identical to
    /// [`CountSketch::estimate`] of the key the slot was built from.
    ///
    /// # Panics
    /// See [`CountSketch::row_values_planned`].
    #[inline]
    pub fn estimate_planned(&self, plan: &HashPlan, slot: usize) -> f64 {
        let mut buf = [0.0f64; MAX_ROWS];
        let n = self.row_values_planned(plan, slot, &mut buf);
        median_in_place(&mut buf[..n])
    }

    /// Touches the table buckets of a plan slot without using their values —
    /// a safe software prefetch. Batch ingestion loops call this a few
    /// entries ahead of the update they are processing, so the (randomly
    /// scattered) bucket loads are in flight while the current update's gate
    /// and median run.
    ///
    /// Implemented as early loads folded through [`std::hint::black_box`]
    /// (the crate forbids `unsafe`, so the dedicated prefetch intrinsics are
    /// out of reach); the loaded lines are hot in L1 when the real access
    /// arrives, which is all a prefetch does.
    #[inline]
    pub fn prefetch_planned(&self, plan: &HashPlan, slot: usize) {
        let (buckets, _) = plan.entry(slot);
        let mut acc = 0.0f64;
        let mut base = 0usize;
        for &bucket in buckets {
            acc += self.table[base + bucket as usize];
            base += self.range;
        }
        std::hint::black_box(acc);
    }

    /// Answers a point query for **every** slot of `plan` in one
    /// cache-blocked sweep, appending to `out` (cleared first). Produces
    /// bit-identical values to calling [`CountSketch::estimate`] per key,
    /// but turns `len` independent point queries — each cycling through all
    /// `K` table rows — into a blocked pass that gathers row by row within
    /// a block, so the table working set per inner loop is a single row.
    ///
    /// # Panics
    /// Panics if the plan does not match this sketch's family.
    pub fn estimate_many(&self, plan: &HashPlan, out: &mut Vec<f64>) {
        self.verify_plan(plan);
        out.clear();
        out.reserve(plan.len());
        let k = self.rows;
        let mut vals = vec![0.0f64; SWEEP_BLOCK * k];
        let mut start = 0usize;
        while start < plan.len() {
            let block = (plan.len() - start).min(SWEEP_BLOCK);
            // Row-major gather: every table access of this inner loop stays
            // inside one row's region.
            for row in 0..k {
                let base = row * self.range;
                for i in 0..block {
                    let slot = start + i;
                    let sign =
                        ascs_sketch_hash::sign_from_bit(u64::from(plan.sign_mask(slot) >> row) & 1);
                    vals[i * k + row] = self.table[base + plan.bucket(slot, row)] * sign;
                }
            }
            // Per-slot medians over the gathered columns — the same
            // reduction `estimate` runs, so the results are bit-identical.
            for chunk in vals[..block * k].chunks_mut(k) {
                out.push(median_in_place(chunk));
            }
            start += block;
        }
    }

    /// Raw (unsigned) content of one bucket. Used by the sharded ingestion
    /// layer to form merged estimates without materialising a merged table.
    #[inline]
    pub fn raw_bucket(&self, row: usize, bucket: usize) -> f64 {
        self.table[row * self.range + bucket]
    }

    /// Point query: median across rows of the signed bucket contents.
    #[inline]
    pub fn estimate(&self, key: u64) -> f64 {
        // K is small (≤ ~10); use a fixed-capacity buffer on the stack for
        // the common case and fall back to a Vec otherwise.
        if self.rows <= MAX_ROWS {
            let mut buf = [0.0f64; MAX_ROWS];
            for (row, slot) in buf.iter_mut().enumerate().take(self.rows) {
                *slot = self.row_estimate(row, key);
            }
            median_in_place(&mut buf[..self.rows])
        } else {
            let mut buf: Vec<f64> = (0..self.rows)
                .map(|row| self.row_estimate(row, key))
                .collect();
            median_in_place(&mut buf)
        }
    }

    /// Estimate taken from a single row (no median) — exposed for the
    /// one-table analysis of Theorems 1–3 and for ablation benchmarks.
    #[inline]
    pub fn row_estimate(&self, row: usize, key: u64) -> f64 {
        let hasher = &self.family.row_hashers()[row];
        let bucket = hasher.bucket(key, self.range);
        let sign = hasher.sign_f64(key);
        self.table[row * self.range + bucket] * sign
    }

    /// Merges another sketch built with the same `(rows, range, seed)`.
    ///
    /// # Panics
    /// Panics when the configurations differ — merging incompatible
    /// sketches would silently corrupt estimates.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.rows, other.rows, "row count mismatch in merge");
        assert_eq!(self.range, other.range, "range mismatch in merge");
        assert_eq!(self.seed, other.seed, "seed mismatch in merge");
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a += b;
        }
        self.updates += other.updates;
    }

    /// Merges `factor ×` another sketch built with the same
    /// `(rows, range, seed)` — the scaled form of linearity the time-aware
    /// backends rely on: `factor = γ^Δt` folds a decayed generation into a
    /// read-side view, `factor = -1` subtracts an older cumulative snapshot
    /// to materialise a sliding-window table. The update counter adds for
    /// positive factors and subtracts (saturating) for negative ones, so a
    /// snapshot difference reports the window's update count.
    ///
    /// # Panics
    /// Panics when the configurations differ, like [`CountSketch::merge`].
    pub fn merge_scaled(&mut self, other: &Self, factor: f64) {
        assert_eq!(self.rows, other.rows, "row count mismatch in merge");
        assert_eq!(self.range, other.range, "range mismatch in merge");
        assert_eq!(self.seed, other.seed, "seed mismatch in merge");
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a += factor * b;
        }
        if factor < 0.0 {
            self.updates = self.updates.saturating_sub(other.updates);
        } else {
            self.updates += other.updates;
        }
    }

    /// Serializes the sketch: nested hash-family record (the geometry and
    /// seed), update counter, then the raw table as IEEE-754 bit patterns.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        codec::write_header(w, codec::TAG_COUNT_SKETCH)?;
        self.family.save(w)?;
        codec::write_u64(w, self.updates)?;
        codec::write_u64(w, self.table.len() as u64)?;
        codec::write_f64_slice(w, &self.table)
    }

    /// Restores a sketch saved by [`CountSketch::save`]. Returns a
    /// [`CodecError`] (never panics) on truncated, corrupt or
    /// version-bumped input; the table length must agree with the restored
    /// geometry and stay below [`MAX_TABLE_WORDS`].
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        codec::read_header(r, codec::TAG_COUNT_SKETCH)?;
        let family = HashFamily::restore(r)?;
        let updates = codec::read_u64(r)?;
        let words = codec::read_u64(r)?;
        let expected = (family.rows() as u64)
            .checked_mul(family.range() as u64)
            .filter(|&w| w <= MAX_TABLE_WORDS)
            .ok_or(CodecError::Corrupt("sketch table exceeds the size cap"))?;
        if words != expected {
            return Err(CodecError::Corrupt(
                "table length disagrees with the sketch geometry",
            ));
        }
        let table = codec::read_f64_vec(r, words as usize)?;
        Ok(Self {
            rows: family.rows(),
            range: family.range(),
            seed: family.seed(),
            family,
            table,
            updates,
        })
    }

    /// Restores a checkpointed sketch and merges it into `self` via
    /// linearity. Unlike [`CountSketch::merge`] this is the cross-process
    /// path, so geometry/seed mismatches surface as
    /// [`CodecError::Incompatible`] instead of a panic.
    pub fn merge_from_checkpoint<R: std::io::Read>(&mut self, r: &mut R) -> Result<(), CodecError> {
        let other = Self::restore(r)?;
        self.merge_restored(&other)
    }

    /// Merges an already-restored sketch into `self`, reporting mismatched
    /// geometry or seed as [`CodecError::Incompatible`].
    pub fn merge_restored(&mut self, other: &Self) -> Result<(), CodecError> {
        if self.rows != other.rows {
            return Err(CodecError::Incompatible("row count mismatch in merge"));
        }
        if self.range != other.range {
            return Err(CodecError::Incompatible("range mismatch in merge"));
        }
        if self.seed != other.seed {
            return Err(CodecError::Incompatible("seed mismatch in merge"));
        }
        self.merge(other);
        Ok(())
    }

    /// The L2 norm of one row — a cheap proxy for the total noise energy in
    /// the sketch, used in diagnostics.
    pub fn row_l2(&self, row: usize) -> f64 {
        self.table[row * self.range..(row + 1) * self.range]
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
    }
}

impl PointSketch for CountSketch {
    fn update(&mut self, key: u64, weight: f64) {
        CountSketch::update(self, key, weight);
    }
    fn estimate(&self, key: u64) -> f64 {
        CountSketch::estimate(self, key)
    }
    fn memory_words(&self) -> usize {
        self.table.len()
    }
}

/// Median of a small mutable slice (may permute the slice arbitrarily).
///
/// Shared by [`CountSketch::estimate`] and the fused/sharded ingestion
/// paths, which derive post-insert row estimates algebraically and need the
/// *same* median reduction to stay value-identical with a fresh point
/// query.
///
/// The common row counts (`K = 3, 5`) take **branchless** median networks
/// built from `f64::min`/`f64::max` (which compile to `minsd`/`maxsd`):
/// on random row values an insertion sort mispredicts roughly every other
/// compare and costs several times the entire hashing round, so this is
/// one of the larger wins on the per-update path. Other lengths fall back
/// to insertion sort.
#[inline]
pub fn median_in_place(rows: &mut [f64]) -> f64 {
    debug_assert!(!rows.is_empty());
    match rows.len() {
        1 => rows[0],
        3 => median3(rows[0], rows[1], rows[2]),
        5 => {
            // Classic 4-discard network: drop the smallest of the pair
            // minima and the largest of the pair maxima, then take the
            // median of the three survivors.
            let lo = f64::max(f64::min(rows[0], rows[1]), f64::min(rows[2], rows[3]));
            let hi = f64::min(f64::max(rows[0], rows[1]), f64::max(rows[2], rows[3]));
            median3(rows[4], lo, hi)
        }
        _ => {
            for i in 1..rows.len() {
                let mut j = i;
                while j > 0 && rows[j - 1] > rows[j] {
                    rows.swap(j - 1, j);
                    j -= 1;
                }
            }
            let n = rows.len();
            if n % 2 == 1 {
                rows[n / 2]
            } else {
                0.5 * (rows[n / 2 - 1] + rows[n / 2])
            }
        }
    }
}

/// Branchless median of three.
#[inline]
fn median3(x: f64, y: f64, z: f64) -> f64 {
    f64::max(f64::min(x, y), f64::min(f64::max(x, y), z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exact_when_items_fit_without_collisions() {
        // More buckets than items and several rows: estimates should be
        // essentially exact.
        let mut cs = CountSketch::new(5, 4096, 1);
        for key in 0..100u64 {
            cs.update(key, key as f64);
        }
        for key in 0..100u64 {
            assert!(
                (cs.estimate(key) - key as f64).abs() < 1e-9,
                "key {key} estimate {}",
                cs.estimate(key)
            );
        }
    }

    #[test]
    fn unqueried_items_estimate_near_zero() {
        let mut cs = CountSketch::new(5, 4096, 2);
        for key in 0..50u64 {
            cs.update(key, 1.0);
        }
        // Keys never inserted should mostly read ~0 (median kills the rare
        // collision).
        let mut nonzero = 0;
        for key in 1000..1100u64 {
            if cs.estimate(key).abs() > 0.5 {
                nonzero += 1;
            }
        }
        assert!(nonzero <= 2, "{nonzero} phantom heavy estimates");
    }

    #[test]
    fn negative_and_fractional_weights_accumulate() {
        let mut cs = CountSketch::new(3, 512, 3);
        cs.update(10, 2.5);
        cs.update(10, -1.0);
        cs.update(10, 0.25);
        assert!((cs.estimate(10) - 1.75).abs() < 1e-9);
    }

    #[test]
    fn heavy_hitter_recovered_under_noise() {
        // One strong signal among many small noise items, sketch heavily
        // compressed: the signal estimate should dominate.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut cs = CountSketch::new(5, 256, 4);
        let signal_key = 123_456u64;
        for t in 0..2000 {
            cs.update(signal_key, 1.0);
            // 50 noise items per step with zero-mean weights.
            for j in 0..50u64 {
                let key = 10_000 + (t * 50 + j) % 5000;
                cs.update(key, rng.gen_range(-0.5..0.5));
            }
        }
        let est = cs.estimate(signal_key);
        assert!(est > 1500.0, "signal estimate too low: {est}");
    }

    #[test]
    fn estimator_is_unbiased_over_seeds() {
        // Average the estimate of a fixed key over many independent sketches:
        // should converge to the true value even with heavy collisions.
        let truth = 10.0;
        let mut sum = 0.0;
        let seeds = 200;
        for seed in 0..seeds {
            let mut cs = CountSketch::new(1, 16, seed);
            cs.update(1, truth);
            for key in 2..50u64 {
                // Symmetric noise items.
                cs.update(key, if key % 2 == 0 { 1.0 } else { -1.0 });
            }
            sum += cs.estimate(1);
        }
        let avg = sum / seeds as f64;
        assert!(
            (avg - truth).abs() < 1.5,
            "mean estimate {avg} deviates from {truth}"
        );
    }

    #[test]
    fn budget_constructor_splits_memory() {
        let cs = CountSketch::with_budget(5, 100_000, 9);
        assert_eq!(cs.rows(), 5);
        assert_eq!(cs.range(), 20_000);
        assert_eq!(cs.memory_words(), 100_000);
    }

    #[test]
    fn merge_matches_sequential_ingestion() {
        let mut whole = CountSketch::new(4, 128, 11);
        let mut part1 = CountSketch::new(4, 128, 11);
        let mut part2 = CountSketch::new(4, 128, 11);
        for key in 0..200u64 {
            let w = (key % 7) as f64 - 3.0;
            whole.update(key, w);
            if key < 100 {
                part1.update(key, w);
            } else {
                part2.update(key, w);
            }
        }
        part1.merge(&part2);
        for key in (0..200u64).step_by(17) {
            assert!((part1.estimate(key) - whole.estimate(key)).abs() < 1e-9);
        }
        assert_eq!(part1.update_count(), whole.update_count());
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_different_seeds() {
        let mut a = CountSketch::new(2, 64, 1);
        let b = CountSketch::new(2, 64, 2);
        a.merge(&b);
    }

    #[test]
    fn clear_resets_estimates() {
        let mut cs = CountSketch::new(3, 64, 5);
        cs.update(42, 10.0);
        cs.clear();
        assert_eq!(cs.estimate(42), 0.0);
        assert_eq!(cs.update_count(), 0);
    }

    #[test]
    fn row_estimate_feeds_median() {
        let mut cs = CountSketch::new(5, 1024, 6);
        cs.update(77, 4.0);
        let mut rows: Vec<f64> = (0..5).map(|r| cs.row_estimate(r, 77)).collect();
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(cs.estimate(77), rows[2]);
    }

    #[test]
    fn single_row_single_bucket_degenerate_case() {
        let mut cs = CountSketch::new(1, 1, 0);
        cs.update(1, 1.0);
        cs.update(2, 1.0);
        // Everything lands in the same bucket; estimate is the signed sum.
        let est = cs.estimate(1).abs();
        assert!(est <= 2.0 + 1e-12);
    }

    #[test]
    fn memory_words_matches_table_size() {
        let cs = CountSketch::new(7, 33, 8);
        assert_eq!(cs.memory_words(), 7 * 33);
    }

    #[test]
    fn fused_location_apis_match_keyed_apis_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut keyed = CountSketch::new(5, 257, 17);
        let mut fused = CountSketch::new(5, 257, 17);
        for _ in 0..2000 {
            let key = rng.gen::<u64>() % 400;
            let w = rng.gen_range(-2.0..2.0);
            keyed.update(key, w);
            let locs = fused.locate(key);
            fused.update_at(&locs, w);
            assert_eq!(
                keyed.estimate(key).to_bits(),
                fused.estimate_at(&locs).to_bits(),
                "fused estimate diverged for key {key}"
            );
        }
        assert_eq!(keyed.table(), fused.table());
        assert_eq!(keyed.update_count(), fused.update_count());
    }

    #[test]
    fn row_values_at_exposes_the_median_inputs() {
        let mut cs = CountSketch::new(5, 64, 3);
        for key in 0..200u64 {
            cs.update(key, (key % 5) as f64 - 2.0);
        }
        let locs = cs.locate(42);
        let mut buf = [0.0f64; ascs_sketch_hash::MAX_ROWS];
        let n = cs.row_values_at(&locs, &mut buf);
        assert_eq!(n, 5);
        for (row, value) in buf[..n].iter().enumerate() {
            assert_eq!(*value, cs.row_estimate(row, 42));
            assert_eq!(
                cs.raw_bucket(row, locs.bucket(row)) * locs.sign(row),
                *value
            );
        }
        let mut sorted = buf;
        assert_eq!(median_in_place(&mut sorted[..n]), cs.estimate(42));
    }

    #[test]
    fn planned_apis_match_keyed_apis_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let mut keyed = CountSketch::new(5, 257, 17);
        let mut planned = CountSketch::new(5, 257, 17);
        let plan = planned.build_plan(400);
        planned.verify_plan(&plan);
        for _ in 0..2000 {
            let slot = (rng.gen::<u64>() % 400) as usize;
            let w = rng.gen_range(-2.0..2.0);
            keyed.update(slot as u64, w);
            planned.prefetch_planned(&plan, slot);
            planned.update_planned(&plan, slot, w);
            assert_eq!(
                keyed.estimate(slot as u64).to_bits(),
                planned.estimate_planned(&plan, slot).to_bits(),
                "planned estimate diverged for slot {slot}"
            );
        }
        assert_eq!(keyed.table(), planned.table());
        assert_eq!(keyed.update_count(), planned.update_count());

        let mut buf_at = [0.0f64; ascs_sketch_hash::MAX_ROWS];
        let mut buf_plan = [0.0f64; ascs_sketch_hash::MAX_ROWS];
        let locs = planned.locate(42);
        let n = planned.row_values_at(&locs, &mut buf_at);
        assert_eq!(planned.row_values_planned(&plan, 42, &mut buf_plan), n);
        assert_eq!(buf_at, buf_plan);
    }

    #[test]
    fn estimate_many_is_bit_identical_to_point_queries() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // A block boundary inside the slot range and keys beyond the
        // inserted set (estimating ~0) both get covered.
        let slots = 3000usize;
        let mut cs = CountSketch::new(5, 512, 29);
        for _ in 0..20_000 {
            cs.update(rng.gen::<u64>() % 1500, rng.gen_range(-1.0..1.0));
        }
        let plan = cs.build_plan(slots);
        let mut swept = Vec::new();
        cs.estimate_many(&plan, &mut swept);
        assert_eq!(swept.len(), slots);
        for (slot, &est) in swept.iter().enumerate() {
            assert_eq!(
                est.to_bits(),
                cs.estimate(slot as u64).to_bits(),
                "sweep diverged at slot {slot}"
            );
        }
        // Reuse of the output vector clears stale contents.
        cs.estimate_many(&plan, &mut swept);
        assert_eq!(swept.len(), slots);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn planned_point_query_rejects_oversized_row_counts() {
        // 17-32 rows are legal for the sketch (estimate() has a Vec
        // fallback) and for the plan arena, but the stack-buffer planned
        // point query must refuse them rather than read a truncated buffer.
        let cs = CountSketch::new(MAX_ROWS + 1, 64, 1);
        let plan = cs.build_plan(4);
        let _ = cs.estimate_planned(&plan, 0);
    }

    #[test]
    fn estimate_many_handles_rows_beyond_the_stack_cap() {
        // The blocked sweep uses heap buffers, so it is the supported
        // whole-universe query path for oversized row counts.
        let mut cs = CountSketch::new(MAX_ROWS + 1, 64, 1);
        for key in 0..32u64 {
            cs.update(key, key as f64);
        }
        let plan = cs.build_plan(32);
        let mut out = Vec::new();
        cs.estimate_many(&plan, &mut out);
        for (slot, &est) in out.iter().enumerate() {
            assert_eq!(est.to_bits(), cs.estimate(slot as u64).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "does not match this sketch")]
    fn foreign_plan_is_rejected() {
        let cs = CountSketch::new(5, 64, 1);
        let other = CountSketch::new(5, 64, 2);
        let plan = other.build_plan(16);
        let mut out = Vec::new();
        cs.estimate_many(&plan, &mut out);
    }

    #[test]
    fn row_l2_tracks_inserted_energy() {
        let mut cs = CountSketch::new(2, 128, 13);
        assert_eq!(cs.row_l2(0), 0.0);
        cs.update(5, 3.0);
        assert!((cs.row_l2(0) - 3.0).abs() < 1e-12);
        assert!((cs.row_l2(1) - 3.0).abs() < 1e-12);
    }
}
