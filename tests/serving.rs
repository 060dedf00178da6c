//! Tier-1 serving-core tests: snapshot consistency against a sequential
//! replay oracle, concurrent readers over live ingestion, backpressure,
//! non-finite quarantine, and crash recovery (worker panics and torn
//! checkpoints) with bit-identical post-recovery state.
//!
//! The oracle is [`ascs_testkit::ReplayOracle`]: the same stream through a
//! plain sequential `ShardedAscs` with the same seed, shard count and
//! router. Every assertion of "consistent" below means *bit-identical* to
//! that oracle — tables, gate counters and top lists.
//!
//! Note: the injected-panic tests intentionally print panic backtraces to
//! stderr (the workers really do panic); each worker catching and
//! recovering from its own panic is exactly what is under test.

use ascs::core::serve::{IngestError, ServeOptions, ServingEstimator, Snapshot};
use ascs::prelude::*;
use ascs_testkit::{FaultPlan, ReplayOracle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: u64 = 16;
const PAIRS: u64 = DIM * (DIM - 1) / 2; // 120
/// A dimension above the serving plan size rule at 5×512: the plan would
/// take 2016 pairs × 24 B, more than the 20 KiB of one shard's table, so
/// instances at this dimension stay on the hashed path.
const HASHED_DIM: u64 = 64;

fn config(total: u64, seed: u64) -> AscsConfig {
    config_dim(DIM, total, seed)
}

fn config_dim(dim: u64, total: u64, seed: u64) -> AscsConfig {
    AscsConfig {
        dim,
        total_samples: total,
        geometry: SketchGeometry::new(5, 512),
        alpha: 0.05,
        signal_strength: 0.5,
        sigma: 1.0,
        delta: 0.05,
        delta_star: 0.20,
        tau0: 1e-4,
        estimand: EstimandKind::Covariance,
        update_mode: UpdateMode::Product,
        seed,
        top_k_capacity: 16,
    }
}

fn hyper(total: u64) -> HyperParameters {
    HyperParameters {
        t0: (total / 4).max(1),
        theta: 0.2,
        tau0: 1e-4,
        delta: 0.05,
        delta_star: 0.20,
    }
}

/// Deterministic dense samples with every coordinate non-zero, so every
/// sample emits all `PAIRS` pair updates — which makes shard-local update
/// indices (for scripted panics) exactly computable.
fn sample_at(t: u64) -> Sample {
    sample_of(DIM, t)
}

fn sample_of(dim: u64, t: u64) -> Sample {
    let values: Vec<f64> = (0..dim)
        .map(|f| ((t * 31 + f * 7) % 4) as f64 * 0.6 - 0.9)
        .collect();
    Sample::dense(values)
}

/// Updates shard 0 receives per sample (every sample covers all keys).
fn shard0_keys_per_sample(oracle: &ReplayOracle) -> u64 {
    shard0_keys(oracle, DIM)
}

fn shard0_keys(oracle: &ReplayOracle, dim: u64) -> u64 {
    let pairs = dim * (dim - 1) / 2;
    let k0 = (0..pairs).filter(|&key| oracle.shard_of(key) == 0).count() as u64;
    assert!(k0 > 0, "test geometry routes nothing to shard 0");
    k0
}

/// The full consistency contract: a snapshot at epoch `e` equals the
/// sequential oracle after `e` samples, bit for bit.
fn assert_snapshot_matches(snapshot: &Snapshot, oracle: &ReplayOracle, what: &str) {
    assert_eq!(snapshot.epoch(), oracle.samples(), "{what}: epoch mismatch");
    let served: Vec<u64> = snapshot
        .sketch()
        .table()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let truth: Vec<u64> = oracle
        .merged_sketch()
        .table()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(served, truth, "{what}: merged tables diverged");
    assert_eq!(
        snapshot.update_counts(),
        oracle.update_counts(),
        "{what}: gate counters diverged"
    );
    let top: Vec<(u64, f64)> = snapshot
        .top_pairs(usize::MAX)
        .into_iter()
        .map(|p| (p.key, p.estimate))
        .collect();
    assert_eq!(top, oracle.top_pairs(), "{what}: top pairs diverged");
}

#[test]
fn snapshots_are_bit_identical_to_sequential_replay_at_every_epoch() {
    check_snapshots_against_replay(DIM, true);
}

#[test]
fn hashed_path_snapshots_are_bit_identical_to_sequential_replay_at_every_epoch() {
    check_snapshots_against_replay(HASHED_DIM, false);
}

/// Every 32 samples, the published snapshot of a `dim`-dimensional
/// instance equals the sequential oracle. `planned` says which serving
/// path the dimension is expected to take.
fn check_snapshots_against_replay(dim: u64, planned: bool) {
    let total = 192u64;
    let cfg = config_dim(dim, total, 41);
    assert_eq!(
        ServingEstimator::plan_eligible(&cfg),
        planned,
        "serving path at d={dim}"
    );
    let hp = hyper(total);
    let mut serving =
        ServingEstimator::launch_with_hyperparameters(cfg, Some(hp), ServeOptions::default());
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), serving.shards());
    for t in 1..=total {
        let s = sample_of(dim, t);
        let emitted = serving.try_ingest(&s).expect("ingest failed");
        assert_eq!(emitted, oracle.ingest(&s), "emitted update count diverged");
        if t % 32 == 0 {
            let snap = serving.refresh_snapshot().expect("refresh failed");
            assert_snapshot_matches(&snap, &oracle, &format!("epoch {t}"));
        }
    }
    let stats = serving.shutdown();
    assert_eq!(stats.ingested_samples, total);
    assert_eq!(stats.emitted_updates, oracle.emitted_updates());
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.published_epoch, total);
}

#[test]
fn concurrent_readers_never_observe_a_torn_or_regressing_snapshot() {
    let total = 256u64;
    let cfg = config(total, 43);
    let hp = hyper(total);
    let mut serving =
        ServingEstimator::launch_with_hyperparameters(cfg, Some(hp), ServeOptions::default());
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), serving.shards());
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let reader = serving.snapshot_reader();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let view = reader.current();
                    assert!(
                        view.snapshot.epoch() >= last_epoch,
                        "snapshot epoch regressed"
                    );
                    last_epoch = view.snapshot.epoch();
                    // A torn table would show up as NaN/garbage medians;
                    // every published estimate must be finite.
                    for key in [0u64, 7, 64, PAIRS - 1] {
                        assert!(view.snapshot.estimate(key).is_finite());
                    }
                    // Top-k reads and whole-universe sweeps must also see a
                    // complete table.
                    let top = view.snapshot.top_pairs(16);
                    assert!(top.iter().all(|p| p.estimate.is_finite()));
                    let sweep = view.snapshot.all_estimates();
                    assert_eq!(sweep.len() as u64, PAIRS);
                    assert!(sweep.iter().all(|v| v.is_finite()));
                    assert!(!view.degraded, "no faults were injected");
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    for t in 1..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
        if t % 32 == 0 {
            serving.refresh_snapshot().expect("refresh failed");
        }
    }
    let final_snap = serving.refresh_snapshot().expect("final refresh");
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader panicked") > 0, "reader never ran");
    }
    assert_snapshot_matches(&final_snap, &oracle, "final state under readers");
    serving.shutdown();
}

#[test]
fn worker_panic_recovers_to_state_bit_identical_to_an_uninterrupted_run() {
    check_worker_panic_recovery(DIM, true);
}

#[test]
fn hashed_path_worker_panic_recovers_to_state_bit_identical_to_an_uninterrupted_run() {
    check_worker_panic_recovery(HASHED_DIM, false);
}

/// A scripted panic in a `dim`-dimensional instance recovers to the
/// sequential oracle's state; `planned` as above.
fn check_worker_panic_recovery(dim: u64, planned: bool) {
    let total = 192u64;
    let cfg = config_dim(dim, total, 47);
    assert_eq!(
        ServingEstimator::plan_eligible(&cfg),
        planned,
        "serving path at d={dim}"
    );
    let hp = hyper(total);
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), 2);
    let k0 = shard0_keys(&oracle, dim);
    // Panic on the first update of sample 101's shard-0 batch: several
    // checkpoints (interval 32) plus a partial replay log are in play.
    let plan = Arc::new(FaultPlan::new().panic_at(0, k0 * 100));
    let mut serving =
        ServingEstimator::launch_with_faults(cfg, Some(hp), ServeOptions::default(), plan.clone());
    for t in 1..=total {
        let s = sample_of(dim, t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("post-recovery refresh");
    assert_snapshot_matches(&snap, &oracle, "post-recovery state");
    assert_eq!(plan.panics_fired(), 1, "scripted panic never fired");
    let stats = serving.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.failed_shards, 0);
    assert_eq!(stats.recovering_workers, 0);
}

#[test]
fn torn_checkpoint_is_rejected_and_recovery_still_matches_the_oracle() {
    let total = 96u64;
    let cfg = config(total, 53);
    let hp = hyper(total);
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), 2);
    let k0 = shard0_keys_per_sample(&oracle);
    // Shard 0's first checkpoint write (after 8 batches) is truncated to
    // 10 bytes — it must be rejected at validation, leaving the bootstrap
    // checkpoint in place — and the panic at sample 21 then forces a
    // recovery that replays through the longer-than-planned log.
    let plan = Arc::new(
        FaultPlan::new()
            .truncate_checkpoint_at(0, 10)
            .panic_at(0, k0 * 20),
    );
    let opts = ServeOptions {
        checkpoint_interval: 8,
        ..ServeOptions::default()
    };
    let mut serving = ServingEstimator::launch_with_faults(cfg, Some(hp), opts, plan.clone());
    for t in 1..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("post-recovery refresh");
    assert_snapshot_matches(&snap, &oracle, "post-torn-checkpoint state");
    assert_eq!(plan.truncations_fired(), 1);
    assert_eq!(plan.panics_fired(), 1);
    let stats = serving.shutdown();
    assert_eq!(stats.torn_checkpoints, 1);
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_restarts, 1);
}

#[test]
fn full_queues_surface_typed_overload_instead_of_blocking() {
    let total = 64u64;
    let cfg = config(total, 59);
    let hp = hyper(total);
    let plan = Arc::new(FaultPlan::new());
    plan.set_hold_batches(true);
    let opts = ServeOptions {
        queue_capacity: 2,
        ..ServeOptions::default()
    };
    let mut serving = ServingEstimator::launch_with_faults(cfg, Some(hp), opts, plan.clone());
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), serving.shards());

    // With workers held, each shard absorbs at most `capacity` queued
    // batches plus one in flight; the storm must then surface as a typed
    // Overloaded error rather than blocking or dropping on the floor.
    let mut accepted = 0u64;
    let overload = loop {
        match serving.try_ingest(&sample_at(accepted + 1)) {
            Ok(_) => {
                accepted += 1;
                assert!(
                    accepted <= 3,
                    "queue_capacity 2 absorbed {accepted} samples"
                );
            }
            Err(e) => break e,
        }
    };
    match overload {
        IngestError::Overloaded { shard, capacity } => {
            assert!(shard < serving.shards());
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The rejected sample mutated nothing: stream time still equals the
    // accepted count, and retrying the SAME sample after release works.
    assert_eq!(serving.processed_samples(), accepted);
    assert!(serving.stats().overload_rejections >= 1);

    plan.set_hold_batches(false);
    for t in 1..=accepted {
        oracle.ingest(&sample_at(t));
    }
    for t in accepted + 1..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "state after overload storm");
    serving.shutdown();
}

#[test]
fn degraded_mode_serves_the_stale_snapshot_while_recovery_is_held() {
    let total = 96u64;
    let cfg = config(total, 61);
    let hp = hyper(total);
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), 2);
    let k0 = shard0_keys_per_sample(&oracle);
    // The panic fires during sample 67 — AFTER the epoch-48 refresh below,
    // so the published snapshot is the one degraded mode must keep serving.
    let plan = Arc::new(FaultPlan::new().panic_at(0, k0 * 66));
    let mut serving =
        ServingEstimator::launch_with_faults(cfg, Some(hp), ServeOptions::default(), plan.clone());
    let reader = serving.snapshot_reader();
    for t in 1..=48 {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    serving.refresh_snapshot().expect("refresh failed");
    plan.set_hold_recovery(true);
    for t in 49..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    // Wait for the worker to restart itself; its recovery then parks in
    // before_recovery, freezing the service mid-recovery.
    let deadline = Instant::now() + Duration::from_secs(30);
    while serving.stats().recovering_workers == 0 {
        assert!(Instant::now() < deadline, "recovery never started");
        std::thread::yield_now();
    }
    let view = reader.current();
    assert!(view.degraded, "mid-recovery reads must be flagged degraded");
    assert_eq!(
        view.snapshot.epoch(),
        48,
        "degraded mode must serve the last published snapshot"
    );
    assert!(view.lag > 0, "staleness must be visible");
    // Pre-crash history is still fully queryable from the stale snapshot.
    assert!(view.snapshot.estimate(0).is_finite());

    plan.set_hold_recovery(false);
    let snap = serving.refresh_snapshot().expect("post-recovery refresh");
    assert_snapshot_matches(&snap, &oracle, "post-degraded state");
    let view = reader.current();
    assert!(!view.degraded, "recovery completed; flag must clear");
    assert_eq!(view.lag, 0);
    let stats = serving.shutdown();
    assert_eq!(stats.worker_restarts, 1);
}

#[test]
fn non_finite_samples_are_quarantined_at_the_serving_boundary() {
    let total = 64u64;
    let cfg = config(total, 67);
    let hp = hyper(total);
    let mut serving =
        ServingEstimator::launch_with_hyperparameters(cfg, Some(hp), ServeOptions::default());
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), serving.shards());
    for t in 1..=20 {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let mut poisoned = vec![0.5f64; DIM as usize];
    poisoned[5] = f64::NAN;
    let err = serving
        .try_ingest(&Sample::dense(poisoned))
        .expect_err("NaN sample must be rejected");
    match err {
        IngestError::NonFinite { index, value } => {
            assert_eq!(index, 5);
            assert!(value.is_nan());
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
    // Sparse infinities are screened too (the sparse constructor keeps
    // non-zero entries, NaN and ±inf included).
    assert!(matches!(
        serving.try_ingest(&Sample::sparse(DIM, vec![(2, f64::NEG_INFINITY)])),
        Err(IngestError::NonFinite { index: 2, .. })
    ));
    assert_eq!(serving.stats().quarantined_samples, 2);
    assert_eq!(
        serving.processed_samples(),
        20,
        "quarantine must not advance the stream"
    );
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "state after quarantine");
    serving.shutdown();
}

#[test]
fn vanilla_serving_and_shutdown_stats_are_coherent() {
    let total = 64u64;
    let cfg = config(total, 71);
    let mut serving = ServingEstimator::launch_vanilla(cfg, ServeOptions::default());
    let mut oracle = ReplayOracle::new(&cfg, None, serving.shards());
    for t in 1..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "vanilla serving");
    let (_, skipped) = snap.update_counts();
    assert_eq!(skipped, 0, "vanilla workers never skip");
    let stats = serving.shutdown();
    assert_eq!(stats.ingested_samples, total);
    assert_eq!(stats.emitted_updates, total * PAIRS);
    assert_eq!(stats.quarantined_samples, 0);
    assert_eq!(stats.overload_rejections, 0);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.worker_restarts, 0);
    assert_eq!(stats.torn_checkpoints, 0);
    assert_eq!(stats.failed_shards, 0);
    assert_eq!(stats.published_epoch, total);
}

/// Satellite regression: `ingest_blocking` no longer spins on yield — a
/// queue held full past the deadline surfaces a typed
/// [`IngestError::Timeout`] with the waited duration, counted in the
/// health report, and the same sample succeeds after release.
#[test]
fn exhausted_ingest_deadline_is_a_typed_timeout_not_a_livelock() {
    let total = 64u64;
    let cfg = config(total, 73);
    let hp = hyper(total);
    let plan = Arc::new(FaultPlan::new());
    plan.set_hold_batches(true);
    let opts = ServeOptions {
        queue_capacity: 1,
        ..ServeOptions::default()
    };
    let mut serving = ServingEstimator::launch_with_faults(cfg, Some(hp), opts, plan.clone());
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), serving.shards());

    // Storm until overload is *steady*: each held worker parks with one
    // batch in flight, so room can free up once per shard after the first
    // rejection. Only when no sample has been accepted for a settle
    // window is the timeout below guaranteed to fire.
    let mut accepted = 0u64;
    let mut last_accept = Instant::now();
    loop {
        match serving.try_ingest(&sample_at(accepted + 1)) {
            Ok(_) => {
                accepted += 1;
                last_accept = Instant::now();
                assert!(accepted <= 4, "held queues absorbed {accepted} samples");
            }
            Err(IngestError::Overloaded { .. }) => {
                if last_accept.elapsed() > Duration::from_millis(300) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("expected Overloaded during the storm, got {other:?}"),
        }
    }
    let deadline = Duration::from_millis(50);
    let started = Instant::now();
    let err = serving
        .ingest_with_deadline(&sample_at(accepted + 1), deadline)
        .expect_err("held queues must time the ingest out");
    let elapsed = started.elapsed();
    match err {
        IngestError::Timeout { waited } => {
            assert!(waited >= deadline, "gave up early after {waited:?}");
            assert!(
                elapsed < Duration::from_secs(10),
                "backoff overslept: {elapsed:?}"
            );
        }
        other => panic!("expected Timeout, got {other:?}"),
    }

    let health = serving.health();
    assert_eq!(health.ingest_timeouts, 1);
    assert!(health.overload_rejections > 0);
    assert!(!health.durability.enabled, "in-memory launch");
    assert_eq!(health.shard_restarts, vec![0; serving.shards()]);
    assert_eq!(serving.stats().ingest_timeouts, 1);
    let rendered = health.to_string();
    assert!(rendered.contains("serving health"), "{rendered}");
    assert!(rendered.contains("disabled"), "{rendered}");

    // The timed-out sample was never half-applied: releasing the hold and
    // retrying the SAME sample keeps the stream oracle-identical.
    plan.set_hold_batches(false);
    for t in 1..=accepted {
        oracle.ingest(&sample_at(t));
    }
    for t in accepted + 1..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest after release");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "state after timeout storm");
    serving.shutdown();
}

#[test]
fn backoff_jitter_sequence_is_pinned_per_seed() {
    use ascs_sketch_hash::splitmix64;

    // `ingest_with_deadline` seeds its jitter stream as
    // `splitmix64(config.seed ^ JITTER_SALT)`; the salt below mirrors
    // serve.rs. This pins the exact nanosecond sequence for seed 7 so an
    // accidental change to the backoff constants, the mixer, or the
    // seeding breaks loudly instead of silently re-randomizing retry
    // schedules that replay-debugging depends on.
    const JITTER_SALT: u64 = 0x6A09_E667_F3BC_C909;
    let mut rng = splitmix64(7 ^ JITTER_SALT);
    let pinned: [u64; 10] = [
        12_753, 20_096, 68_566, 88_650, 213_522, 556_758, 1_185_441, 2_352_966, 2_244_560,
        1_745_770,
    ];
    for (step, &expected) in pinned.iter().enumerate() {
        let delay = jittered_backoff(step as u32, &mut rng);
        assert_eq!(
            delay,
            Duration::from_nanos(expected),
            "jitter sequence drifted at step {step}"
        );
    }

    // Replaying from the same state reproduces the same schedule, and a
    // different seed decorrelates: blocked ingesters with different
    // configured seeds must not retry in lockstep.
    let mut a = splitmix64(7 ^ JITTER_SALT);
    let mut b = splitmix64(7 ^ JITTER_SALT);
    let mut c = splitmix64(8 ^ JITTER_SALT);
    let mut diverged = false;
    for step in 0..32u32 {
        let da = jittered_backoff(step, &mut a);
        assert_eq!(da, jittered_backoff(step, &mut b));
        diverged |= da != jittered_backoff(step, &mut c);
        // Envelope: half-to-full of the nominal doubling-with-cap curve.
        let nominal = Duration::from_micros((20u64 << step.min(7)).min(2_500));
        assert!(da >= nominal / 2 && da < nominal, "step {step}: {da:?}");
    }
    assert!(diverged, "seeds 7 and 8 produced identical jitter");
}

/// Time-aware serving reads: the snapshot-differencing window view must be
/// **bit-identical** to a directly maintained windowed backend fed the
/// same stream — count-sketch linearity is exact under dyadic sample
/// values and a power-of-two `T`, so any bit of divergence is a real bug
/// in the ring (wrong base boundary, wrong normaliser, a read that
/// mutated state). The decayed view is block-granular, so it is pinned
/// against its own contract instead: at `γ → 1` it must collapse to the
/// cumulative mean.
#[test]
fn windowed_snapshot_view_is_bit_identical_to_a_maintained_windowed_sketch() {
    use ascs::core::serve::WindowedSnapshotRing;

    let total = 256u64; // power of two: 1/T scaling is exact on dyadics
    let (seg_len, segs) = (32u64, 3usize);
    let cfg = config(total, 59);
    let mut hp = hyper(total);
    hp.t0 = total; // explore the whole stream: the gate inserts everything
    let mut serving =
        ServingEstimator::launch_with_hyperparameters(cfg, Some(hp), ServeOptions::default());
    let mut ring = WindowedSnapshotRing::new(seg_len, segs, total);
    let mut windowed = CovarianceEstimator::with_hyperparameters(
        cfg,
        SketchBackend::Windowed {
            segment_len: seg_len,
            segments: segs,
        },
        None,
    );

    // Dyadic sample values {-1, -0.5, 0, 0.5, 1}: every pair update and
    // every partial sum is exactly representable.
    let dyadic_sample = |t: u64| -> Sample {
        let values: Vec<f64> = (0..DIM)
            .map(|f| ((t * 31 + f * 7) % 5) as f64 * 0.5 - 1.0)
            .collect();
        Sample::dense(values)
    };

    let mut checked_warm_window = false;
    for t in 1..=total {
        let s = dyadic_sample(t);
        serving.try_ingest(&s).expect("ingest failed");
        windowed.process_sample(&s);
        // Refresh on every block boundary (the epochs the ring retains as
        // window bases) plus an off-boundary cadence, which must only
        // advance the head.
        if t % seg_len == 0 || t % 17 == 0 {
            let before = ring.retained_boundaries();
            let advanced = ring.observe(serving.refresh_snapshot().expect("refresh failed"));
            assert!(advanced, "a fresh snapshot was rejected at t = {t}");
            if t % seg_len != 0 {
                assert_eq!(ring.retained_boundaries(), before, "non-boundary retained");
            }
        }
        if t % seg_len == 0 {
            let view = ring.windowed_view().expect("no view after observing");
            assert_eq!(view.epoch(), t);
            let (start, n) = ascs::core::timeaware::window_span(t, seg_len, segs);
            assert_eq!(view.base_epoch(), start - 1, "wrong window base at t = {t}");
            assert_eq!(view.span(), n, "wrong window span at t = {t}");
            checked_warm_window |= view.base_epoch() > 0;
            for key in 0..PAIRS {
                assert_eq!(
                    view.estimate(key).to_bits(),
                    windowed.estimate_key(key).to_bits(),
                    "windowed serving read diverged at t = {t}, key = {key}"
                );
                assert_eq!(
                    view.estimate_pair(1, 3).to_bits(),
                    windowed.estimate_pair(1, 3).to_bits()
                );
            }
        }
    }
    assert!(checked_warm_window, "window never warmed past the prefix");
    // A stale snapshot must be ignored.
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert!(ring.observe(snap.clone()) || snap.epoch() == ring.epoch());
    assert!(!ring.observe(snap), "stale snapshot accepted");
    assert!(ring.retained_boundaries() <= segs + 1);

    // Decayed view contract: at γ → 1 every block weight → 1, so the
    // block-granular EWMA collapses to the cumulative mean.
    let near_one = ring.decayed_view(0.999_999_9).expect("no decayed view");
    let cumulative = serving.snapshot_reader().current().snapshot.clone();
    for key in 0..PAIRS {
        let ewma = near_one.estimate(key);
        let mean = cumulative.estimate(key) * total as f64 / ring.epoch() as f64;
        assert!(
            (ewma - mean).abs() <= 1e-4 * (1.0 + mean.abs()),
            "γ→1 decayed view should match the cumulative mean at key {key}: {ewma} vs {mean}"
        );
        assert!(ring.decayed_view(0.5).unwrap().estimate(key).is_finite());
    }
    serving.shutdown();
}
