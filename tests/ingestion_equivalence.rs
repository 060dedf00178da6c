//! Equivalence guarantees of the fused single-hash ingestion path and the
//! sharded parallel ingestion layer.
//!
//! * A property test drives [`AscsSketch::offer`] against the **independent
//!   naive oracle** [`NaiveOracle`] (estimate → gate → update → estimate,
//!   written in `ascs_testkit` from the documented algorithm using only the
//!   raw [`CountSketch`] API) and demands bit-identical decisions, tables,
//!   estimates and tracker state across random geometries, keys, weights
//!   and phase splits.
//! * [`ShardedAscs`] is checked against sequential ingestion two ways:
//!   vanilla mode with heavy collisions (dyadic weights, power-of-two `T`,
//!   so the re-associated merge is exact) and gated mode on a
//!   collision-free key set (where shard-local gates provably decide like
//!   the sequential gate).
//! * The **plan-driven** ingestion path ([`AscsSketch::offer_planned`] /
//!   [`HashPlan`]) is property-tested bit-identical to the PR 2 fused path
//!   across random geometries, keys, weights and phase splits — gated and
//!   vanilla — and [`CountSketch::estimate_many`] bit-identical to per-key
//!   [`CountSketch::estimate`] sweeps.
//! * Sharded **planned-batch** ingestion is property-tested with the top-k
//!   tracker *enabled*: worker tables, gate counters, per-worker tracker
//!   contents and the cross-shard merged `top_pairs()` report must all
//!   match the hashed batch path exactly, over both the sequential and the
//!   parallel routing paths.

use ascs::count_sketch::MAX_ROWS;
use ascs::prelude::*;
use ascs_core::AscsPhase;
use ascs_testkit::NaiveOracle;
use proptest::prelude::*;
use std::collections::HashSet;

fn hyper(t0: u64, theta: f64, tau0: f64) -> HyperParameters {
    HyperParameters {
        t0,
        theta,
        tau0,
        delta: 0.05,
        delta_star: 0.2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The fused offer path is bit-identical to the naive
    /// estimate→update→estimate reference across random geometries, keys,
    /// weights and phase splits.
    #[test]
    fn fused_offer_is_bit_identical_to_naive_reference(
        rows in 1usize..8,
        range in 8usize..512,
        total in 32u64..400,
        t0_frac in 0.05f64..1.0,
        theta in 0.0f64..0.5,
        tau0 in 0.0f64..0.01,
        seed in 0u64..1000,
        updates in proptest::collection::vec((0u64..64, -2.0f64..2.0), 1..250),
    ) {
        let t0 = ((total as f64 * t0_frac) as u64).clamp(1, total);
        let hp = hyper(t0, theta, tau0);
        let geometry = SketchGeometry::new(rows, range);
        let mut fused = AscsSketch::new(geometry, &hp, total, 16, seed);
        let mut naive = NaiveOracle::new(geometry, &hp, total, 16, seed);
        for (i, &(key, x)) in updates.iter().enumerate() {
            let t = (i as u64 % total) + 1;
            let outcome = fused.offer(key, x, t);
            let expect_phase = if t <= t0 { AscsPhase::Exploration } else { AscsPhase::Sampling };
            prop_assert_eq!(outcome.phase, expect_phase);
            let naive_inserted = naive.offer(key, x, t);
            prop_assert_eq!(
                outcome.inserted, naive_inserted,
                "gate diverged at step {} (t = {}, key = {})", i, t, key
            );
        }
        // Bit-identical tables...
        let ta = fused.sketch().table();
        let tb = naive.sketch.table();
        prop_assert!(
            ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()),
            "sketch tables diverged"
        );
        // ...identical counters...
        prop_assert_eq!(fused.inserted_updates(), naive.inserted);
        prop_assert_eq!(fused.skipped_updates(), naive.skipped);
        // ...identical estimates (value equality: ±0.0 compare equal)...
        for key in 0..64u64 {
            prop_assert_eq!(fused.estimate(key), naive.sketch.estimate(key));
        }
        // ...and identical tracker contents.
        prop_assert_eq!(fused.top_pairs(), naive.tracker.descending());
    }

    /// Plan-driven ingestion is bit-identical to the PR 2 fused path across
    /// random geometries, keys, weights and phase splits. `t0_frac` up to
    /// 1.0 covers the vanilla (never-gated) regime as well as gated runs,
    /// and the tracked/untracked split covers both tracker policies.
    #[test]
    fn planned_ingestion_is_bit_identical_to_fused(
        rows in 1usize..8,
        range in 8usize..512,
        total in 32u64..400,
        t0_frac in 0.05f64..1.0,
        theta in 0.0f64..0.5,
        tau0 in 0.0f64..0.01,
        seed in 0u64..1000,
        track in proptest::bool::ANY,
        updates in proptest::collection::vec((0u64..64, -2.0f64..2.0), 1..250),
    ) {
        let t0 = ((total as f64 * t0_frac) as u64).clamp(1, total);
        let hp = hyper(t0, theta, tau0);
        let geometry = SketchGeometry::new(rows, range);
        let build = || {
            let s = AscsSketch::new(geometry, &hp, total, 16, seed);
            if track { s } else { s.without_tracking() }
        };
        let mut fused = build();
        let mut planned = build();
        let plan = planned.sketch().build_plan(64);
        for (i, &(key, x)) in updates.iter().enumerate() {
            let t = (i as u64 % total) + 1;
            let gate = fused.sample_gate(t);
            let a = fused.offer_gated(key, x, gate);
            let b = planned.offer_planned(&plan, key, x, gate);
            prop_assert_eq!(a, b, "outcome diverged at step {} (t = {}, key = {})", i, t, key);
        }
        let ta = fused.sketch().table();
        let tb = planned.sketch().table();
        prop_assert!(
            ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()),
            "sketch tables diverged"
        );
        prop_assert_eq!(fused.inserted_updates(), planned.inserted_updates());
        prop_assert_eq!(fused.skipped_updates(), planned.skipped_updates());
        prop_assert_eq!(fused.top_pairs(), planned.top_pairs());
    }

    /// The batch driver (gate memoised per distinct `t`, look-ahead
    /// prefetch when planned) changes nothing observable against per-update
    /// offers: hashed or planned, tracked or not, at every row count up to
    /// one past the fused kernel's `MAX_ROWS` cap (so the unfused fallback
    /// runs inside a batch), with NaN/±inf values quarantined at the same
    /// positions on both sides.
    #[test]
    fn ingest_planned_batch_is_bit_identical_to_offers(
        rows in 1usize..MAX_ROWS + 2,
        range in 8usize..256,
        seed in 0u64..500,
        planned in proptest::bool::ANY,
        track in proptest::bool::ANY,
        poison in proptest::collection::vec((0usize..200, 0usize..3), 0..4),
        updates in proptest::collection::vec((0u64..32, -2.0f64..2.0), 1..200),
    ) {
        let total = 64u64;
        let hp = hyper(8, 0.3, 1e-3);
        let geometry = SketchGeometry::new(rows, range);
        let build = || {
            let s = AscsSketch::new(geometry, &hp, total, 16, seed);
            if track { s } else { s.without_tracking() }
        };
        let mut direct = build();
        let mut batched = build();
        let plan = batched.sketch().build_plan(32);
        let mut batch: Vec<ShardUpdate> = updates
            .iter()
            .enumerate()
            .map(|(i, &(key, x))| ShardUpdate { key, value: x, t: (i as u64 % total) + 1 })
            .collect();
        let len = batch.len();
        for &(pos, kind) in &poison {
            batch[pos % len].value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        }
        for u in &batch {
            direct.offer(u.key, u.value, u.t);
        }
        if planned {
            batched.ingest_planned(&plan, &batch);
        } else {
            batched.ingest_batch(None, &batch);
        }
        let ta = direct.sketch().table();
        let tb = batched.sketch().table();
        prop_assert!(ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(direct.inserted_updates(), batched.inserted_updates());
        prop_assert_eq!(direct.skipped_updates(), batched.skipped_updates());
        prop_assert_eq!(direct.quarantined_updates(), batched.quarantined_updates());
        prop_assert_eq!(direct.top_pairs(), batched.top_pairs());
    }

    /// The cache-blocked whole-universe sweep answers exactly what per-key
    /// point queries answer, bit for bit, across random geometries and
    /// universe sizes (including sizes straddling the sweep's block
    /// boundary and keys never inserted).
    #[test]
    fn estimate_many_is_bit_identical_to_point_estimates(
        rows in 1usize..8,
        range in 8usize..512,
        universe in 1usize..3000,
        seed in 0u64..1000,
        updates in proptest::collection::vec((0u64..1024, -2.0f64..2.0), 0..300),
    ) {
        let mut cs = CountSketch::new(rows, range, seed);
        for &(key, w) in &updates {
            cs.update(key % universe as u64, w);
        }
        let plan = cs.build_plan(universe);
        let mut swept = Vec::new();
        cs.estimate_many(&plan, &mut swept);
        prop_assert_eq!(swept.len(), universe);
        for (slot, &est) in swept.iter().enumerate() {
            prop_assert_eq!(
                est.to_bits(),
                cs.estimate(slot as u64).to_bits(),
                "sweep diverged at slot {}", slot
            );
        }
    }

    /// Sharded planned-batch ingestion with the **top-k tracker enabled**
    /// is indistinguishable from the hashed batch path: same worker
    /// tables, same gate counters, same per-worker tracker state, and the
    /// same cross-shard merged `top_pairs()` report — on both the
    /// sequential small-batch path and the parallel scoped-thread path.
    /// (The untracked planned paths were already covered above; the
    /// tracker is the piece that used to be property-tested only for
    /// sequential sketches.)
    #[test]
    fn sharded_planned_batch_with_tracker_matches_hashed(
        shards in 1usize..5,
        range in 16usize..256,
        t0_frac in 0.05f64..1.0,
        theta in 0.0f64..0.4,
        seed in 0u64..500,
        parallel in proptest::bool::ANY,
        updates in proptest::collection::vec((0u64..48, -2.0f64..2.0), 32..300),
    ) {
        let total = 128u64;
        let t0 = ((total as f64 * t0_frac) as u64).clamp(1, total);
        let hp = hyper(t0, theta, 1e-3);
        let geometry = SketchGeometry::new(5, range);
        let threshold = if parallel { 1 } else { usize::MAX };
        let build = || {
            ShardedAscs::new(geometry, &hp, total, 16, seed, shards)
                .with_parallel_threshold(threshold)
        };
        let batch: Vec<ShardUpdate> = updates
            .iter()
            .enumerate()
            .map(|(i, &(key, x))| ShardUpdate { key, value: x, t: (i as u64 % total) + 1 })
            .collect();
        let mut hashed = build();
        hashed.offer_batch(&batch);
        let mut planned = build();
        let plan = planned.workers()[0].sketch().build_plan(48);
        planned.offer_batch_planned(&plan, &batch);

        for (shard, (a, b)) in hashed.workers().iter().zip(planned.workers()).enumerate() {
            let ta = a.sketch().table();
            let tb = b.sketch().table();
            prop_assert!(
                ta.iter().zip(tb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "worker {} table diverged between hashed and planned routing", shard
            );
            prop_assert_eq!(
                a.top_pairs(), b.top_pairs(),
                "worker {} tracker diverged", shard
            );
        }
        prop_assert_eq!(hashed.inserted_updates(), planned.inserted_updates());
        prop_assert_eq!(hashed.skipped_updates(), planned.skipped_updates());
        prop_assert_eq!(hashed.top_pairs(), planned.top_pairs());
    }

    /// **Checkpoint merge, vanilla backend.** Two processes sketch disjoint
    /// time halves of the stream, serialize, and merge via linearity; with
    /// dyadic weights every intermediate sum is exact, so the merged sketch
    /// must equal sequential ingestion bit for bit — tables, estimates and
    /// counters alike.
    #[test]
    fn checkpoint_merge_of_time_split_vanilla_equals_sequential(
        range in 16usize..128,
        seed in 0u64..500,
        split_frac in 0.0f64..1.0,
        updates in proptest::collection::vec((0u64..512, -8i32..8), 64..400),
    ) {
        let total = 256u64;
        let geometry = SketchGeometry::new(5, range);
        let mut seq = AscsSketch::vanilla(geometry, total, 32, seed);
        let mut first = AscsSketch::vanilla(geometry, total, 32, seed);
        let mut second = AscsSketch::vanilla(geometry, total, 32, seed);
        let mid = ((updates.len() as f64) * split_frac) as usize;
        for (i, &(key, q)) in updates.iter().enumerate() {
            let t = (i as u64 % total) + 1;
            let x = f64::from(q) * 0.25;
            seq.offer(key, x, t);
            if i < mid {
                first.offer(key, x, t);
            } else {
                second.offer(key, x, t);
            }
        }
        let mut bytes_a = Vec::new();
        let mut bytes_b = Vec::new();
        first.save(&mut bytes_a).unwrap();
        second.save(&mut bytes_b).unwrap();
        let mut merged = AscsSketch::restore(&mut bytes_a.as_slice()).unwrap();
        merged.merge_from_checkpoint(&mut bytes_b.as_slice()).unwrap();

        let ta = seq.sketch().table();
        let tb = merged.sketch().table();
        prop_assert!(
            ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()),
            "merged table diverged from sequential ingestion"
        );
        for key in 0..512u64 {
            prop_assert_eq!(seq.estimate(key).to_bits(), merged.estimate(key).to_bits());
        }
        prop_assert_eq!(seq.inserted_updates(), merged.inserted_updates());
        prop_assert_eq!(seq.skipped_updates(), merged.skipped_updates());
    }

    /// **Windowed ring ↔ from-scratch rebuild.** A [`WindowedSketch`]
    /// maintained incrementally (head-segment ingest, tail retire at every
    /// block boundary) must be bit-identical — merged table, raw point
    /// queries and normalised estimates — to a plain [`CountSketch`]
    /// rebuilt from scratch over only the in-window samples, across random
    /// geometries, window sizes, segment counts and stop points (so the
    /// comparison lands before, at, and after retire boundaries). Dyadic
    /// weights keep every grouping of the sums exact. Retired segments are
    /// round-tripped through the PR 5 codec and re-merged to reconstruct
    /// the cumulative sketch, pinning the spill path in the same run.
    #[test]
    fn windowed_ring_is_bit_identical_to_in_window_rebuild(
        rows in 1usize..6,
        range in 8usize..256,
        segment_len in 1u64..24,
        segments in 1usize..7,
        per_sample in 1usize..4,
        total in 1u64..120,
        seed in 0u64..1000,
        raw in proptest::collection::vec((0u64..48, -8i32..8), 360..361),
    ) {
        // Dyadic update weights: all sums exact under any association.
        let updates: Vec<(u64, f64)> = raw
            .iter()
            .map(|&(key, q)| (key, f64::from(q) * 0.25))
            .collect();
        let mut win = ascs_core::WindowedSketch::new(rows, range, seed, segment_len, segments);
        let mut cumulative = CountSketch::new(rows, range, seed);
        let mut spilled: Vec<u8> = Vec::new();
        let mut retired_count = 0u64;
        for t in 1..=total {
            if let Some(retired) = win.begin_sample() {
                // Spill through the codec, as the lifecycle layer would.
                retired.save(&mut spilled).unwrap();
                retired_count += 1;
            }
            let base = (t as usize - 1) * per_sample;
            for &(key, w) in &updates[base..base + per_sample] {
                win.ingest(key, w);
                cumulative.update(key, w);
            }
        }

        // Rebuild from scratch over only the in-window samples.
        let (start, n) = win.window_span();
        prop_assert_eq!((start, n), ascs_core::window_span(total, segment_len, segments));
        let mut rebuild = CountSketch::new(rows, range, seed);
        for s in start..=total {
            let base = (s as usize - 1) * per_sample;
            for &(key, w) in &updates[base..base + per_sample] {
                rebuild.update(key, w);
            }
        }
        let merged = win.merged_sketch();
        prop_assert!(
            merged.table().iter().zip(rebuild.table()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "merged ring table diverged from the in-window rebuild"
        );
        for key in 0..48u64 {
            prop_assert_eq!(
                win.raw_estimate(key).to_bits(),
                rebuild.estimate(key).to_bits(),
                "raw point query diverged at key {}", key
            );
            let expect = if n == 0 { 0.0 } else { rebuild.estimate(key) / n as f64 };
            prop_assert_eq!(
                win.estimate(key).to_bits(),
                expect.to_bits(),
                "normalised estimate diverged at key {}", key
            );
        }

        // Restore every spilled segment and re-merge with the live ring:
        // linearity reconstructs the cumulative sketch bit for bit.
        prop_assert_eq!(win.retired_segments(), retired_count);
        let mut reconstructed = merged;
        let mut cursor = spilled.as_slice();
        for _ in 0..retired_count {
            let seg = ascs_core::RetiredSegment::restore(&mut cursor).unwrap();
            reconstructed.merge(seg.sketch());
        }
        prop_assert!(cursor.is_empty(), "trailing bytes after the last spilled segment");
        prop_assert!(
            reconstructed.table().iter().zip(cumulative.table()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "restored spill + live ring diverged from the cumulative sketch"
        );
    }

    /// Sharded vanilla ingestion merges to exactly the sequential sketch
    /// even under heavy collisions: with dyadic weights and a power-of-two
    /// `T`, every intermediate sum is exact, so the re-associated merge
    /// must agree bit for bit.
    #[test]
    fn sharded_vanilla_merge_equals_sequential(
        shards in 1usize..6,
        range in 16usize..128,
        seed in 0u64..500,
        updates in proptest::collection::vec((0u64..512, -8i32..8), 64..400),
    ) {
        let total = 256u64;
        let geometry = SketchGeometry::new(5, range);
        let mut seq = AscsSketch::vanilla(geometry, total, 32, seed);
        let mut sharded = ShardedAscs::vanilla(geometry, total, 32, seed, shards)
            .with_parallel_threshold(1);
        let batch: Vec<ShardUpdate> = updates
            .iter()
            .enumerate()
            .map(|(i, &(key, q))| ShardUpdate {
                key,
                // Dyadic weights: exactly representable, associativity exact.
                value: f64::from(q) * 0.25,
                t: (i as u64 % total) + 1,
            })
            .collect();
        for u in &batch {
            seq.offer(u.key, u.value, u.t);
        }
        sharded.offer_batch(&batch);

        let merged = sharded.merged_sketch();
        let ta = seq.sketch().table();
        let tb = merged.table();
        prop_assert!(
            ta.iter().zip(tb).all(|(a, b)| a == b),
            "merged table diverged from sequential"
        );
        for key in 0..512u64 {
            prop_assert_eq!(seq.estimate(key), sharded.estimate(key));
        }
        prop_assert_eq!(seq.inserted_updates(), sharded.inserted_updates());
    }
}

/// Gated sharded ingestion decides and estimates exactly like sequential
/// gated ingestion when no two live keys collide in any sketch row: each
/// worker then sees precisely the table state the sequential sketch has at
/// that key's buckets.
#[test]
fn sharded_gated_matches_sequential_on_collision_free_keys() {
    let geometry = SketchGeometry::new(5, 16384);
    let total = 128u64;
    let hp = hyper(16, 0.3, 1e-3);
    let probe = AscsSketch::new(geometry, &hp, total, 32, 9);

    // Greedily select keys whose buckets are pairwise disjoint in every row.
    let mut used: Vec<HashSet<usize>> = vec![HashSet::new(); 5];
    let mut keys: Vec<u64> = Vec::new();
    for candidate in 0..50_000u64 {
        let locs = probe.sketch().locate(candidate);
        let free = (0..locs.len()).all(|row| !used[row].contains(&locs.bucket(row)));
        if free {
            for (row, slot) in used.iter_mut().enumerate() {
                slot.insert(locs.bucket(row));
            }
            keys.push(candidate);
            if keys.len() == 24 {
                break;
            }
        }
    }
    assert_eq!(keys.len(), 24, "could not find a collision-free key set");

    let mut seq = AscsSketch::new(geometry, &hp, total, 32, 9);
    let mut sharded = ShardedAscs::new(geometry, &hp, total, 32, 9, 3).with_parallel_threshold(1);
    let mut batch = Vec::new();
    for t in 1..=total {
        for (i, &key) in keys.iter().enumerate() {
            // A mix of strong always-on keys and weak occasional ones, so
            // the gate both accepts and rejects.
            let x = if i % 3 == 0 {
                1.0
            } else if (t + i as u64).is_multiple_of(5) {
                0.05
            } else {
                continue;
            };
            seq.offer(key, x, t);
            batch.push(ShardUpdate { key, value: x, t });
        }
    }
    sharded.offer_batch(&batch);

    for &key in &keys {
        assert_eq!(
            seq.estimate(key),
            sharded.estimate(key),
            "estimate diverged for key {key}"
        );
    }
    assert_eq!(seq.inserted_updates(), sharded.inserted_updates());
    assert_eq!(seq.skipped_updates(), sharded.skipped_updates());
    assert!(seq.skipped_updates() > 0, "gate never rejected anything");

    // The sharded top pairs must agree with the sequential ones on both
    // membership and (merged) estimates for the strong keys.
    let seq_top: Vec<(u64, f64)> = seq.top_pairs();
    let sharded_top: Vec<(u64, f64)> = sharded.top_pairs();
    let strong: HashSet<u64> = keys.iter().copied().step_by(3).collect();
    for top in [&seq_top, &sharded_top] {
        for &(key, _) in top.iter().take(strong.len()) {
            assert!(strong.contains(&key), "non-signal key {key} in the top set");
        }
    }

    // The planned sharded batch path (tracker enabled) reproduces the
    // hashed sharded run exactly, estimates and report alike.
    let mut sharded_planned =
        ShardedAscs::new(geometry, &hp, total, 32, 9, 3).with_parallel_threshold(1);
    let max_key = *keys.iter().max().unwrap();
    let plan = sharded_planned.workers()[0]
        .sketch()
        .build_plan(max_key as usize + 1);
    sharded_planned.offer_batch_planned(&plan, &batch);
    for &key in &keys {
        assert_eq!(
            sharded.estimate(key),
            sharded_planned.estimate(key),
            "planned sharded estimate diverged for key {key}"
        );
    }
    assert_eq!(
        sharded.inserted_updates(),
        sharded_planned.inserted_updates()
    );
    assert_eq!(sharded.skipped_updates(), sharded_planned.skipped_updates());
    assert_eq!(sharded_top, sharded_planned.top_pairs());
}

/// **Checkpoint merge, gated backend.** Two processes sketch disjoint *key*
/// halves under a constant threshold (θ = 0) on a collision-free key set:
/// each key's gate then depends only on its own updates, so per-process
/// decisions match the sequential gate exactly, and merged buckets receive
/// `x + 0.0`, which is bit-exact. Tables, estimates, counters *and* the
/// re-scored tracker must all match sequential ingestion.
#[test]
fn checkpoint_merge_of_key_split_gated_equals_sequential() {
    let geometry = SketchGeometry::new(5, 16384);
    let total = 128u64;
    // θ = 0 makes the linear ramp a constant τ — the schedule round-trips
    // through the codec and gates identically in both processes. τ sits
    // between what the weak keys accumulate in exploration (~1.2e-3) and a
    // single strong weight (1/128), so the gate both accepts and rejects.
    let hp = hyper(16, 0.0, 5e-3);
    let probe = AscsSketch::new(geometry, &hp, total, 32, 9);

    // Greedily select keys whose buckets are pairwise disjoint in every row.
    let mut used: Vec<HashSet<usize>> = vec![HashSet::new(); 5];
    let mut keys: Vec<u64> = Vec::new();
    for candidate in 0..50_000u64 {
        let locs = probe.sketch().locate(candidate);
        let free = (0..locs.len()).all(|row| !used[row].contains(&locs.bucket(row)));
        if free {
            for (row, slot) in used.iter_mut().enumerate() {
                slot.insert(locs.bucket(row));
            }
            keys.push(candidate);
            if keys.len() == 24 {
                break;
            }
        }
    }
    assert_eq!(keys.len(), 24, "could not find a collision-free key set");

    let mut seq = AscsSketch::new(geometry, &hp, total, 32, 9);
    let mut first = AscsSketch::new(geometry, &hp, total, 32, 9);
    let mut second = AscsSketch::new(geometry, &hp, total, 32, 9);
    for t in 1..=total {
        for (i, &key) in keys.iter().enumerate() {
            // Strong always-on keys and weak occasional ones, so the gate
            // both accepts and rejects in the sampling phase.
            let x = if i % 3 == 0 {
                1.0
            } else if (t + i as u64).is_multiple_of(5) {
                0.05
            } else {
                continue;
            };
            seq.offer(key, x, t);
            if i < keys.len() / 2 {
                first.offer(key, x, t);
            } else {
                second.offer(key, x, t);
            }
        }
    }
    assert!(seq.skipped_updates() > 0, "gate never rejected anything");

    let mut bytes_a = Vec::new();
    let mut bytes_b = Vec::new();
    first.save(&mut bytes_a).unwrap();
    second.save(&mut bytes_b).unwrap();
    let mut merged = AscsSketch::restore(&mut bytes_a.as_slice()).unwrap();
    merged
        .merge_from_checkpoint(&mut bytes_b.as_slice())
        .unwrap();

    let ta = seq.sketch().table();
    let tb = merged.sketch().table();
    assert!(
        ta.iter().zip(tb).all(|(a, b)| a.to_bits() == b.to_bits()),
        "merged gated table diverged from sequential ingestion"
    );
    for &key in &keys {
        assert_eq!(seq.estimate(key).to_bits(), merged.estimate(key).to_bits());
    }
    assert_eq!(seq.inserted_updates(), merged.inserted_updates());
    assert_eq!(seq.skipped_updates(), merged.skipped_updates());
    // Collision-free keys: each sequential tracker entry holds the key's
    // final estimate, which is exactly what the merge re-scores against the
    // merged sketch — so the reports agree as key→value maps.
    let mut seq_top = seq.top_pairs();
    let mut merged_top = merged.top_pairs();
    seq_top.sort_unstable_by_key(|&(key, _)| key);
    merged_top.sort_unstable_by_key(|&(key, _)| key);
    assert_eq!(seq_top, merged_top);
}

/// **Checkpoint merge, planned backend.** Two plan-driven vanilla-CS
/// estimators ingest disjoint stream halves (dyadic samples, product
/// updates), checkpoint, and merge; the result must carry exactly the
/// estimates of one uninterrupted planned estimator.
#[test]
fn checkpoint_merge_of_planned_estimators_equals_sequential() {
    let dim = 24u64;
    let total = 64u64;
    let samples: Vec<Sample> = (1..=total)
        .map(|t| {
            let values: Vec<f64> = (0..dim)
                .map(|f| ((t * 31 + f * 7) % 5) as f64 * 0.5 - 1.0)
                .collect();
            Sample::dense(values)
        })
        .collect();
    let config = AscsConfig {
        dim,
        total_samples: total,
        geometry: SketchGeometry::new(5, 2048),
        alpha: 0.05,
        signal_strength: 0.5,
        sigma: 1.0,
        delta: 0.05,
        delta_star: 0.20,
        tau0: 1e-3,
        estimand: EstimandKind::Covariance,
        update_mode: UpdateMode::Product,
        seed: 77,
        top_k_capacity: 32,
    };
    let build = || {
        CovarianceEstimator::new(config, SketchBackend::VanillaCs)
            .unwrap()
            .with_ingestion_plan()
            .unwrap()
    };
    let mut seq = build();
    let mut first = build();
    let mut second = build();
    let half = samples.len() / 2;
    for s in &samples {
        seq.process_sample(s);
    }
    for s in &samples[..half] {
        first.process_sample(s);
    }
    for s in &samples[half..] {
        second.process_sample(s);
    }
    let mut bytes_a = Vec::new();
    let mut bytes_b = Vec::new();
    first.checkpoint(&mut bytes_a).unwrap();
    second.checkpoint(&mut bytes_b).unwrap();
    let mut merged = CovarianceEstimator::resume(&mut bytes_a.as_slice()).unwrap();
    merged
        .merge_from_checkpoint(&mut bytes_b.as_slice())
        .unwrap();

    assert_eq!(merged.processed_samples(), seq.processed_samples());
    assert_eq!(merged.update_counts(), seq.update_counts());
    let (a, b) = (seq.all_estimates(), merged.all_estimates());
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "merged planned estimates diverged from sequential ingestion"
    );
}

/// **Checkpoint merge, sharded backend.** Two sharded estimators in
/// always-insert mode (τ ≡ 0, so the gate is key-order independent) ingest
/// disjoint stream halves and merge worker-by-worker; estimates must match
/// one uninterrupted sharded run bit for bit.
#[test]
fn checkpoint_merge_of_sharded_estimators_equals_sequential() {
    let dim = 24u64;
    let total = 64u64;
    let samples: Vec<Sample> = (1..=total)
        .map(|t| {
            let values: Vec<f64> = (0..dim)
                .map(|f| ((t * 13 + f * 11) % 5) as f64 * 0.5 - 1.0)
                .collect();
            Sample::dense(values)
        })
        .collect();
    let config = AscsConfig {
        dim,
        total_samples: total,
        geometry: SketchGeometry::new(5, 1024),
        alpha: 0.05,
        signal_strength: 0.5,
        sigma: 1.0,
        delta: 0.05,
        delta_star: 0.20,
        tau0: 0.0,
        estimand: EstimandKind::Covariance,
        update_mode: UpdateMode::Product,
        seed: 31,
        top_k_capacity: 32,
    };
    // τ0 = 0 and θ = 0: the schedule is identically zero, every update is
    // inserted, so disjoint halves commute exactly (dyadic weights).
    let hp = hyper(1, 0.0, 0.0);
    let backend = SketchBackend::ShardedAscs { shards: 3 };
    let build = || CovarianceEstimator::with_hyperparameters(config, backend, Some(hp));
    let mut seq = build();
    let mut first = build();
    let mut second = build();
    let half = samples.len() / 2;
    for s in &samples {
        seq.process_sample(s);
    }
    for s in &samples[..half] {
        first.process_sample(s);
    }
    for s in &samples[half..] {
        second.process_sample(s);
    }
    let mut bytes_a = Vec::new();
    let mut bytes_b = Vec::new();
    first.checkpoint(&mut bytes_a).unwrap();
    second.checkpoint(&mut bytes_b).unwrap();
    let mut merged = CovarianceEstimator::resume(&mut bytes_a.as_slice()).unwrap();
    merged
        .merge_from_checkpoint(&mut bytes_b.as_slice())
        .unwrap();

    assert_eq!(merged.processed_samples(), seq.processed_samples());
    assert_eq!(merged.update_counts(), seq.update_counts());
    let (a, b) = (seq.all_estimates(), merged.all_estimates());
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "merged sharded estimates diverged from sequential ingestion"
    );
}

/// The fused path must also agree with the naive oracle through the
/// estimator stack (hoisted per-sample gate) — a cheap end-to-end pin.
#[test]
fn estimator_hoisted_gate_matches_direct_offers() {
    let dim = 16u64;
    let total = 64u64;
    let geometry = SketchGeometry::new(5, 2048);
    let hp = hyper(8, 0.25, 1e-3);

    let config = AscsConfig {
        dim,
        total_samples: total,
        geometry,
        alpha: 0.05,
        signal_strength: 0.5,
        sigma: 1.0,
        delta: 0.05,
        delta_star: 0.20,
        tau0: 1e-3,
        estimand: EstimandKind::Covariance,
        update_mode: UpdateMode::Product,
        seed: 77,
        top_k_capacity: 32,
    };
    let mut estimator =
        CovarianceEstimator::with_hyperparameters(config, SketchBackend::Ascs, Some(hp));
    let mut direct = AscsSketch::new(geometry, &hp, total, 32, 77);

    // Mirror the estimator's sample expansion with direct offers.
    let mut ctx = ascs_core::StreamContext::new(dim, UpdateMode::Product, EstimandKind::Covariance);
    for t in 1..=total {
        let values: Vec<f64> = (0..dim)
            .map(|f| ((t * 31 + f * 7) % 5) as f64 * 0.5 - 1.0)
            .collect();
        let sample = Sample::dense(values);
        ctx.ingest(&sample, |u| {
            direct.offer(u.key, u.value, t);
        });
        estimator.process_sample(&sample);
    }
    for key in 0..ascs_core::num_pairs(dim) {
        assert_eq!(estimator.estimate_key(key), direct.estimate(key));
    }
    let (ins, skip) = estimator.update_counts();
    assert_eq!(
        (ins, skip),
        (direct.inserted_updates(), direct.skipped_updates())
    );
}
