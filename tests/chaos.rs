//! Tier-1 chaos-harness tests: seeded schedules hold the standing
//! invariants end to end, the recovery re-entry budget is a typed bound,
//! re-armable triggers drive real crash loops, and a deliberately planted
//! sabotage fault is (a) caught by the invariant oracle and (b) shrunk to
//! a minimal reproducing schedule.

use ascs::core::codec::FaultSiteRegistry;
use ascs::prelude::*;
use ascs_testkit::chaos::{run_schedule, ChaosFault, ChaosOptions, ChaosSchedule};
use ascs_testkit::{shrink, FaultFs, FaultPlan, Trigger};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ascs-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn seeded_chaos_schedules_hold_every_standing_invariant() {
    let opts = ChaosOptions::default();
    let registry = Arc::new(FaultSiteRegistry::new());
    // Four consecutive seeds cover the kill-plan residues: plain kill,
    // corruption, crash-during-recovery, and corruption + crash combined.
    for seed in 40..44 {
        let schedule = ChaosSchedule::generate(seed, &opts);
        let dir = temp_dir(&format!("invariants-{seed}"));
        let report = run_schedule(&schedule, &opts, &registry, &dir)
            .unwrap_or_else(|v| panic!("{v}\n{}", schedule.describe()));
        assert_eq!(report.seed, seed);
        assert_eq!(report.final_epoch, opts.total_samples);
        assert!(report.invariant_checks > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn planted_sabotage_is_caught_and_shrinks_to_a_minimal_schedule() {
    let opts = ChaosOptions::default();
    let registry = Arc::new(FaultSiteRegistry::new());
    // A busy schedule whose only *real* defect is the silent drop: the
    // serving side skips one sample the oracle still counts.
    let mut schedule = ChaosSchedule::generate(41, &opts);
    schedule.lives[0]
        .faults
        .push(ChaosFault::SilentDrop { at_sample: 9 });
    let dir = temp_dir("sabotage");
    let violation = run_schedule(&schedule, &opts, &registry, &dir)
        .expect_err("silent drop must violate the oracle");
    let rendered = violation.to_string();
    assert!(
        rendered.contains("chaos seed 41"),
        "violation must carry the seed: {rendered}"
    );

    let mut attempt = 0u64;
    let minimal = shrink(&schedule, |candidate| {
        attempt += 1;
        let dir = temp_dir(&format!("sabotage-shrink-{attempt}"));
        let outcome = run_schedule(candidate, &opts, &registry, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        outcome.is_err()
    });
    assert_eq!(
        minimal.fault_count(),
        1,
        "minimal schedule kept extra faults:\n{}",
        minimal.describe()
    );
    let faults: Vec<&ChaosFault> = minimal.lives.iter().flat_map(|l| &l.faults).collect();
    assert_eq!(faults, vec![&ChaosFault::SilentDrop { at_sample: 9 }]);
    assert!(minimal.lives.iter().all(|l| l.kill.is_none()));
    assert_eq!(minimal.seed, 41);
    let _ = std::fs::remove_dir_all(&dir);
}

fn chaos_config(opts: &ChaosOptions, seed: u64) -> AscsConfig {
    opts.config(seed)
}

#[test]
fn recovery_reentry_budget_is_a_typed_bound() {
    let opts = ChaosOptions::default();
    let cfg = chaos_config(&opts, 7);
    let hyper = opts.hyper();
    let dir = temp_dir("reentry");

    // Build a real durable directory first.
    let durability = DurabilityOptions {
        checkpoint_every: 16,
        wal_segment_records: 16,
        ..DurabilityOptions::new(&dir)
    };
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hyper),
        ServeOptions {
            shards: 2,
            ..ServeOptions::default()
        },
        durability,
    )
    .unwrap();
    for t in 1..=48u64 {
        serving
            .ingest_blocking(&ascs_testkit::chaos::chaos_sample(7, t, cfg.dim))
            .unwrap();
    }
    serving.shutdown();

    // Every attempt crashes at op 0 → the budget must be spent and the
    // failure surfaced as the typed terminal error, not a crash loop.
    let err = match recover_with_reentry(&dir, &cfg, Some(&hyper), 2, 2, |_| {
        Arc::new(FaultFs::new().crash_at_op(0)) as Arc<dyn ascs::core::codec::DurableFs>
    }) {
        Ok(_) => panic!("always-crashing recovery must exhaust the budget"),
        Err(err) => err,
    };
    match &err {
        DurabilityError::RecoveryBudgetExhausted { attempts, .. } => assert_eq!(*attempts, 2),
        other => panic!("wanted RecoveryBudgetExhausted, got {other}"),
    }
    assert!(err.to_string().contains("budget spent"), "{err}");

    // Crash on the first attempt only → the re-entry absorbs it.
    let outcome = recover_with_reentry(&dir, &cfg, Some(&hyper), 2, 3, |attempt| {
        if attempt == 0 {
            Arc::new(FaultFs::new().crash_at_op(2)) as Arc<dyn ascs::core::codec::DurableFs>
        } else {
            Arc::new(ascs::core::codec::StdFs) as Arc<dyn ascs::core::codec::DurableFs>
        }
    })
    .unwrap();
    assert_eq!(outcome.state.epoch(), 48);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rearmable_panic_trigger_drives_a_crash_loop_into_the_restart_budget() {
    let opts = ChaosOptions::default();
    let cfg = chaos_config(&opts, 11);
    let hyper = opts.hyper();
    // A trigger that panics shard 0 on every third update, firing during
    // recovery replay too: with the exemption lifted, replaying the batch
    // that caused the panic panics again, so the worker crash-loops until
    // its restart budget is spent and the shard is abandoned.
    let plan = Arc::new(
        FaultPlan::new()
            .panic_trigger(0, Trigger::every(3))
            .with_recovery_injection(),
    );
    let mut serving = ServingEstimator::launch_with_faults(
        cfg,
        Some(hyper),
        ServeOptions {
            shards: 2,
            // Tiny queue: once the shard stops draining, backpressure makes
            // the producer observe the failure instead of racing past it.
            queue_capacity: 2,
            max_restarts: 2,
            ingest_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
        plan.clone(),
    );
    let mut failed = false;
    for t in 1..=4096u64 {
        match serving.ingest_blocking(&ascs_testkit::chaos::chaos_sample(11, t, cfg.dim)) {
            Ok(_) => {}
            Err(IngestError::ShardFailed { shard }) => {
                assert_eq!(shard, 0);
                failed = true;
                break;
            }
            Err(other) => panic!("unexpected ingest error: {other}"),
        }
    }
    assert!(failed, "crash loop never exhausted the restart budget");
    let health = serving.health();
    assert_eq!(health.failed_shards, vec![0]);
    assert!(
        plan.panics_fired() >= 3,
        "trigger fired only {} times",
        plan.panics_fired()
    );
    assert!(health.coherence_violations().is_empty());
    serving.shutdown();
}
