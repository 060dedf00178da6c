//! Durability-layer tests: disk checkpoints, the sample WAL, and the
//! [`RecoveryManager`] cold-start path — proven bit-identical to a
//! sequential oracle under crashes both simulated (`simulate_crash`,
//! scripted filesystem death) and real (a SIGKILLed child process).
//!
//! The fault surface is [`ascs_testkit::FaultFs`]: torn writes, short
//! writes, failed fsyncs, ENOSPC and whole-filesystem crash points, all
//! scripted and deterministic. The ground truth is
//! [`ascs_testkit::ReplayOracle`], exactly as in `tests/serving.rs`:
//! "recovered" always means *bit-identical* to a sequential run over the
//! recovered prefix — tables, gate counters and top lists.

use ascs::core::codec::{save_to_path_with, StdFs};
use ascs::core::serve::{ServeOptions, ServingEstimator, Snapshot};
use ascs::prelude::*;
use ascs_testkit::{FaultFs, ReplayOracle};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: u64 = 16;

fn config(total: u64, seed: u64) -> AscsConfig {
    AscsConfig {
        dim: DIM,
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

/// Deterministic dense samples, identical to the `tests/serving.rs`
/// generator so WAL replays and oracles agree across tests and processes.
fn sample_at(t: u64) -> Sample {
    let values: Vec<f64> = (0..DIM)
        .map(|f| ((t * 31 + f * 7) % 4) as f64 * 0.6 - 0.9)
        .collect();
    Sample::dense(values)
}

/// A fresh per-test data directory (removed up front so reruns are clean).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ascs-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durability(dir: &std::path::Path, checkpoint_every: u64) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_every,
        wal_segment_records: 16,
        ..DurabilityOptions::new(dir)
    }
}

/// The sequential oracle advanced to `epoch` samples of the shared stream.
fn oracle_at(
    cfg: &AscsConfig,
    hp: Option<&HyperParameters>,
    shards: usize,
    epoch: u64,
) -> ReplayOracle {
    let mut oracle = ReplayOracle::new(cfg, hp, shards);
    for t in 1..=epoch {
        oracle.ingest(&sample_at(t));
    }
    oracle
}

/// Full bit-identity: snapshot tables, gate counters and top pairs equal
/// the sequential oracle's.
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

/// Full bit-identity for a raw [`RecoveredState`] (no serving relaunch
/// needed): the recovered shard set's merged table, gate counters and top
/// pairs, and the emitted counter, equal the sequential oracle's.
fn assert_recovered_matches(state: &RecoveredState, oracle: &ReplayOracle, what: &str) {
    assert_eq!(state.epoch(), oracle.samples(), "{what}: epoch mismatch");
    assert_eq!(
        state.emitted_updates(),
        oracle.emitted_updates(),
        "{what}: emitted counters diverged"
    );
    let shards = state.shard_set();
    let recovered: Vec<u64> = shards
        .merged_sketch()
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
    assert_eq!(recovered, truth, "{what}: merged tables diverged");
    assert_eq!(
        (shards.inserted_updates(), shards.skipped_updates()),
        oracle.update_counts(),
        "{what}: gate counters diverged"
    );
    let bits = |top: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
        top.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
    };
    assert_eq!(
        bits(shards.top_pairs()),
        bits(oracle.top_pairs()),
        "{what}: top pairs diverged"
    );
}

#[test]
fn restart_after_simulated_crash_resumes_bit_identically() {
    let dir = temp_dir("restart");
    let total = 192u64;
    let cfg = config(total, 101);
    let hp = hyper(total);

    // First life: durable ingestion up to sample 100, then a crash that
    // skips every shutdown nicety (no final fsync, no checkpoint).
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        durability(&dir, 32),
    )
    .expect("durable launch failed");
    let report = serving.recovery_report().expect("durable launch reports");
    assert_eq!(report.recovered_epoch, 0, "fresh directory must start cold");
    for t in 1..=100 {
        serving
            .ingest_blocking(&sample_at(t))
            .expect("ingest failed");
    }
    let health = serving.health();
    assert!(health.durability.enabled);
    assert!(!health.durability.durability_lost);
    assert_eq!(
        health.durability.last_durable_epoch, 100,
        "fsync-always must acknowledge durably"
    );
    assert!(health.durability.checkpoint_generations >= 1);
    serving.simulate_crash();

    // Second life: recovery must land exactly at epoch 100 (checkpoint 96
    // plus a 4-record WAL tail) and the stream must continue as if the
    // crash never happened.
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        durability(&dir, 32),
    )
    .expect("durable relaunch failed");
    let report = serving.recovery_report().expect("relaunch reports").clone();
    assert_eq!(report.recovered_epoch, 100, "durable prefix lost: {report}");
    assert_eq!(report.checkpoint_epoch, 96);
    assert!(report.wal_records_replayed >= 4, "{report}");
    assert_eq!(report.torn_generations_discarded, 0, "{report}");
    assert!(!report.wal_tail_discarded, "{report}");
    assert!(report.duration > Duration::ZERO);
    assert_eq!(serving.processed_samples(), 100);

    let snap = serving.refresh_snapshot().expect("post-recovery refresh");
    assert_snapshot_matches(
        &snap,
        &oracle_at(&cfg, Some(&hp), 2, 100),
        "recovered state",
    );

    let mut oracle = oracle_at(&cfg, Some(&hp), 2, 100);
    for t in 101..=total {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("final refresh");
    assert_snapshot_matches(&snap, &oracle, "resumed stream");
    let stats = serving.shutdown();
    assert_eq!(stats.published_epoch, total);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A malformed sample sent to a durable instance is a typed rejection
/// that logs nothing: the stream time and the durable floor stay put, the
/// next valid sample is acknowledged at the next epoch, and a relaunch
/// recovers every acknowledged sample without panicking.
#[test]
fn malformed_samples_are_rejected_before_the_wal() {
    let dir = temp_dir("malformed");
    let total = 64u64;
    let cfg = config(total, 107);
    let hp = hyper(total);
    let launch = || {
        ServingEstimator::launch_durable(
            cfg,
            Some(hp),
            ServeOptions::default(),
            durability(&dir, 32),
        )
        .expect("durable launch failed")
    };
    let mut serving = launch();
    for t in 1..=3 {
        serving
            .ingest_blocking(&sample_at(t))
            .expect("ingest failed");
    }
    let malformed = [
        (
            Sample::sparse(DIM, vec![(2, 0.5), (DIM as u32, 1.0)]),
            IngestError::IndexOutOfRange {
                index: DIM,
                dim: DIM,
            },
        ),
        (
            Sample::sparse(DIM, vec![(5, 0.5), (5, 1.0)]),
            IngestError::DuplicateIndex { index: 5 },
        ),
        (
            Sample::dense(vec![0.5; DIM as usize + 1]),
            IngestError::DimensionMismatch {
                expected: DIM,
                found: DIM + 1,
            },
        ),
    ];
    for (sample, expected) in &malformed {
        assert_eq!(serving.try_ingest(sample), Err(*expected));
        let health = serving.health();
        assert_eq!(health.ingest_epoch, 3, "{expected}: the epoch moved");
        assert_eq!(
            health.durability.last_durable_epoch, 3,
            "{expected}: the durable floor moved"
        );
    }
    assert_eq!(serving.health().quarantined_samples, 3);
    serving
        .ingest_blocking(&sample_at(4))
        .expect("ingest failed");
    assert_eq!(serving.health().durability.last_durable_epoch, 4);
    serving.simulate_crash();

    let mut serving = launch();
    let report = serving.recovery_report().expect("relaunch reports").clone();
    assert_eq!(report.recovered_epoch, 4, "{report}");
    assert!(!report.wal_tail_discarded, "{report}");
    let snap = serving.refresh_snapshot().expect("post-recovery refresh");
    assert_snapshot_matches(&snap, &oracle_at(&cfg, Some(&hp), 2, 4), "recovered state");
    serving.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_latest_generation_falls_back_to_the_previous_one() {
    let dir = temp_dir("torn-gen");
    let total = 64u64;
    let cfg = config(total, 103);
    let hp = hyper(total);
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        durability(&dir, 16),
    )
    .expect("durable launch failed");
    for t in 1..=total {
        serving
            .ingest_blocking(&sample_at(t))
            .expect("ingest failed");
    }
    serving.simulate_crash();

    // Corrupt one byte of the newest generation's manifest. Recovery must
    // fall back to the previous generation and still replay the retained
    // WAL back to the full epoch — keep_generations = 2 exists exactly so
    // the WAL covering the previous generation is never collected early.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".manifest"))
        .max()
        .expect("no manifest written");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x41;
    std::fs::write(&newest, &bytes).unwrap();

    let serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        durability(&dir, 16),
    )
    .expect("relaunch failed");
    let report = serving.recovery_report().expect("relaunch reports");
    assert_eq!(report.torn_generations_discarded, 1, "{report}");
    assert_eq!(
        report.recovered_epoch, total,
        "fallback generation + WAL tail must still reach the full epoch: {report}"
    );
    assert!(report.checkpoint_epoch < total);
    drop(serving); // clean shutdown
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enospc_degrades_durability_but_serving_stays_consistent() {
    let dir = temp_dir("enospc");
    let total = 96u64;
    let cfg = config(total, 107);
    let hp = hyper(total);
    // Manual checkpoints only, so the byte budget is consumed by the WAL:
    // roughly 25 records fit before the disk "fills".
    let opts = DurabilityOptions {
        max_retries: 2,
        retry_backoff: Duration::from_micros(100),
        ..durability(&dir, 0)
    };
    let fs = Arc::new(FaultFs::new().enospc_after(4096));
    let mut serving = ServingEstimator::launch_durable_with_faults(
        cfg,
        Some(hp),
        ServeOptions::default(),
        opts,
        Arc::new(NoFaults),
        fs.clone(),
    )
    .expect("durable launch failed");
    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), serving.shards());
    for t in 1..=total {
        let s = sample_at(t);
        serving
            .ingest_blocking(&s)
            .expect("a full disk must degrade durability, never fail in-memory ingestion");
        oracle.ingest(&s);
    }
    let health = serving.health();
    assert!(health.degraded, "durability loss must flag the service");
    assert!(health.durability.durability_lost);
    assert!(
        health.durability.last_durable_epoch < total,
        "some tail must have been lost to the full disk"
    );
    assert!(health.durability.last_durable_epoch > 0);
    assert!(health.durability.persistence_retries > 0);

    // A manual checkpoint against the full disk fails typed, not fatally.
    let err = serving
        .persist_checkpoint()
        .expect_err("checkpoint on a full disk must fail");
    assert!(matches!(
        err,
        DurabilityError::Io { .. } | DurabilityError::Codec { .. }
    ));
    assert!(serving.health().durability.checkpoint_failures > 0);

    // In-memory serving never diverged.
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "degraded serving");

    // The durable prefix on disk is still a clean recoverable stream.
    let durable_epoch = serving.health().durability.last_durable_epoch;
    serving.simulate_crash();
    let outcome = RecoveryManager::new(&dir)
        .recover(&cfg, Some(&hp), 2)
        .expect("recovery after ENOSPC failed");
    assert!(outcome.state.epoch() >= durable_epoch);
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), 2, outcome.state.epoch()),
        "post-ENOSPC durable prefix",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_fsync_retries_into_a_fresh_segment_without_losing_durability() {
    let dir = temp_dir("fsync");
    let total = 48u64;
    let cfg = config(total, 109);
    let hp = hyper(total);
    // The 10th WAL fsync fails once; the store must abandon the segment,
    // retry the record into a fresh one, and stay fully durable.
    let fs = Arc::new(FaultFs::new().fail_sync(9));
    let mut serving = ServingEstimator::launch_durable_with_faults(
        cfg,
        Some(hp),
        ServeOptions::default(),
        durability(&dir, 0),
        Arc::new(NoFaults),
        fs.clone(),
    )
    .expect("durable launch failed");
    for t in 1..=total {
        serving
            .ingest_blocking(&sample_at(t))
            .expect("ingest failed");
    }
    let health = serving.health();
    assert!(!health.durability.durability_lost);
    assert_eq!(health.durability.last_durable_epoch, total);
    assert!(health.durability.persistence_retries >= 1);
    serving.simulate_crash();

    // The retried record was re-appended to a later segment, so replay
    // must tolerate the duplicate and reach the full epoch.
    let outcome = RecoveryManager::new(&dir)
        .recover(&cfg, Some(&hp), 2)
        .expect("recovery failed");
    assert_eq!(outcome.state.epoch(), total, "{}", outcome.report);
    assert!(
        outcome.report.wal_records_skipped >= 1,
        "the retried append must appear as a skipped duplicate: {}",
        outcome.report
    );
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), 2, total),
        "post-fsync-failure state",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `wal_syncs` counts the WAL fsyncs that actually ran, and the durable
/// floor only covers records such a sync made durable — including at
/// segment rotation, where `Never` must neither count nor claim the
/// sealed tail. No checkpoint runs, so every file fsync is a WAL fsync.
#[test]
fn wal_sync_accounting_matches_the_fsyncs_that_ran_under_every_policy() {
    let total = 20u64;
    let cfg = config(total, 113);
    let hp = hyper(total);
    for (policy, syncs, floor) in [
        (FsyncPolicy::Always, 20, 20),
        (FsyncPolicy::EveryN(4), 5, 20),
        (FsyncPolicy::Never, 0, 0),
    ] {
        let dir = temp_dir(&format!("fsync-policy-{syncs}"));
        let opts = DurabilityOptions {
            fsync: policy,
            wal_segment_records: 8,
            ..durability(&dir, 0)
        };
        let fs = Arc::new(FaultFs::new());
        let mut serving = ServingEstimator::launch_durable_with_faults(
            cfg,
            Some(hp),
            ServeOptions::default(),
            opts,
            Arc::new(NoFaults),
            fs.clone(),
        )
        .expect("durable launch failed");
        for t in 1..=total {
            serving
                .ingest_blocking(&sample_at(t))
                .expect("ingest failed");
        }
        let health = serving.health().durability;
        let wal_fsyncs = fs
            .log()
            .iter()
            .filter(|op| op.starts_with("sync wal-"))
            .count() as u64;
        assert_eq!(
            fs.sync_count(),
            wal_fsyncs,
            "{policy:?}: only the WAL syncs"
        );
        assert_eq!(health.wal_syncs, wal_fsyncs, "{policy:?}: reported syncs");
        assert_eq!(health.wal_syncs, syncs, "{policy:?}: expected syncs");
        assert_eq!(
            health.last_durable_epoch, floor,
            "{policy:?}: durable floor"
        );
        assert_eq!(health.wal_records, total);
        serving.simulate_crash();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn save_to_path_commit_protocol_orders_write_sync_rename_dirsync() {
    // Satellite regression for the durability hole fixed in this PR: the
    // atomic save must fsync the temp file BEFORE the rename and the
    // parent directory AFTER it — and a short write must be absorbed by
    // the writer loop, not truncate the record.
    let dir = temp_dir("protocol");
    std::fs::create_dir_all(&dir).unwrap();
    let fs = Arc::new(FaultFs::new().short_write_at(0, 3));
    let target = dir.join("ckpt-demo");
    let payload = vec![0xA5u8; 256];
    save_to_path_with(&*fs, &target, |w| {
        use std::io::Write as _;
        w.write_all(&payload).map_err(Into::into)
    })
    .expect("atomic save failed");
    assert_eq!(std::fs::read(&target).unwrap(), payload);

    let log = fs.log();
    let position = |needle: &str| {
        log.iter()
            .position(|line| line.contains(needle))
            .unwrap_or_else(|| panic!("no `{needle}` in {log:#?}"))
    };
    let create = position("create ckpt-demo.tmp");
    let sync_tmp = position("sync ckpt-demo.tmp");
    let rename = position("rename ckpt-demo.tmp -> ckpt-demo");
    let sync_dir = position("sync_dir");
    assert!(create < sync_tmp, "{log:#?}");
    assert!(
        sync_tmp < rename,
        "file fsync must precede the rename: {log:#?}"
    );
    assert!(
        rename < sync_dir,
        "directory fsync must follow the rename: {log:#?}"
    );
    assert_eq!(fs.write_count(), 2, "short write must be retried: {log:#?}");

    // A torn write aborts the save, removes the temp file, and leaves no
    // destination behind.
    let fs = Arc::new(FaultFs::new().torn_write_at(0, 4));
    let target = dir.join("ckpt-torn");
    let err = save_to_path_with(&*fs, &target, |w| {
        use std::io::Write as _;
        w.write_all(&payload).map_err(Into::into)
    })
    .expect_err("torn write must abort the save");
    assert!(matches!(err, CodecError::Io(_)));
    assert!(!target.exists(), "no destination may appear");
    assert!(
        !dir.join("ckpt-torn.tmp").exists(),
        "the temp file must be cleaned up"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The kill-at-every-crash-point matrix: run the workload once over a
/// transparent [`FaultFs`] to learn the filesystem-operation count `N`,
/// then re-run it `N` times with the filesystem dying at operation
/// `0, 1, …, N-1`. Every crash point must leave a directory that recovers
/// — without panics — to a state bit-identical to the sequential oracle
/// at the recovered epoch, at or past the epoch the store had durably
/// acknowledged when the crash hit.
#[test]
fn every_filesystem_crash_point_recovers_a_consistent_durable_prefix() {
    let total = 32u64;
    let cfg = config(total, 113);
    let hp = hyper(total);
    let opts = ServeOptions::default();
    let dopts = |dir: &std::path::Path| DurabilityOptions {
        checkpoint_every: 12,
        wal_segment_records: 8,
        max_retries: 1,
        retry_backoff: Duration::from_micros(50),
        ..DurabilityOptions::new(dir)
    };

    let run = |fs: Arc<FaultFs>, dir: &std::path::Path| -> u64 {
        let mut serving = ServingEstimator::launch_durable_with_faults(
            cfg,
            Some(hp),
            opts,
            dopts(dir),
            Arc::new(NoFaults),
            fs,
        )
        .expect("launch must survive filesystem faults");
        for t in 1..=total {
            serving
                .ingest_blocking(&sample_at(t))
                .expect("ingest failed");
        }
        let durable_epoch = serving.health().durability.last_durable_epoch;
        serving.simulate_crash();
        durable_epoch
    };

    // Dry run: learn the op-index space.
    let probe_dir = temp_dir("matrix-probe");
    let probe = Arc::new(FaultFs::new());
    let clean_epoch = run(probe.clone(), &probe_dir);
    assert_eq!(clean_epoch, total);
    let ops = probe.op_count();
    assert!(ops > 50, "workload exercised only {ops} fs operations");
    std::fs::remove_dir_all(&probe_dir).unwrap();

    let dir = temp_dir("matrix");
    for op in 0..ops {
        let _ = std::fs::remove_dir_all(&dir);
        let fs = Arc::new(FaultFs::new().crash_at_op(op));
        let durable_epoch = run(fs.clone(), &dir);
        assert!(fs.crashed(), "crash point {op} never fired");

        let outcome = RecoveryManager::new(&dir)
            .recover(&cfg, Some(&hp), 2)
            .unwrap_or_else(|e| panic!("crash point {op}: recovery failed: {e}"));
        let epoch = outcome.state.epoch();
        assert!(
            epoch >= durable_epoch,
            "crash point {op}: durably acknowledged epoch {durable_epoch} \
             not recovered (got {epoch}): {}",
            outcome.report
        );
        assert_recovered_matches(
            &outcome.state,
            &oracle_at(&cfg, Some(&hp), 2, epoch),
            &format!("crash point {op} at epoch {epoch}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Real process death: spawn a child, SIGKILL it mid-ingest, recover.
// ---------------------------------------------------------------------------

/// The SIGKILL child's checkpoint cadence.
const CHILD_CHECKPOINT_EVERY: u64 = 64;

/// Child half of the SIGKILL tests. A no-op unless `ASCS_SIGKILL_CHILD_DIR`
/// is set, in which case it ingests the shared deterministic stream into a
/// durable estimator until killed. After each sample's ingest returns it
/// prints `acked <t>` and waits for one line on stdin before the next
/// sample; it exits if stdin closes (the parent is gone).
#[test]
fn sigkill_child_ingest_loop() {
    let Some(dir) = std::env::var_os("ASCS_SIGKILL_CHILD_DIR") else {
        return;
    };
    let total = 1_000_000u64;
    let cfg = config(total, 127);
    let hp = hyper(total);
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        DurabilityOptions {
            checkpoint_every: CHILD_CHECKPOINT_EVERY,
            wal_segment_records: 128,
            ..DurabilityOptions::new(&dir)
        },
    )
    .expect("child durable launch failed");
    let mut go = String::new();
    for t in 1..=total {
        serving
            .ingest_blocking(&sample_at(t))
            .expect("child ingest failed");
        println!("acked {t}");
        go.clear();
        if std::io::stdin().read_line(&mut go).map_or(true, |n| n == 0) {
            std::process::exit(0);
        }
    }
    unreachable!("the parent must SIGKILL this process long before 1M samples");
}

/// A running SIGKILL child. Its ack thread answers every `acked <t>` line
/// with a go-ahead; once `park` is set it stops answering at the next
/// acknowledged sample that no checkpoint covers, leaving the child
/// waiting with nothing newer written. The thread returns the largest `t`
/// acknowledged (a line cut short by the kill can only understate it) and
/// the child's stdin, which must stay open until the child is dead.
struct SigkillChild {
    child: std::process::Child,
    park: Arc<std::sync::atomic::AtomicBool>,
    acks: std::thread::JoinHandle<(u64, std::process::ChildStdin)>,
}

impl SigkillChild {
    /// Spawns this very test binary running only the child test, and waits
    /// until it has durably checkpointed at least once, so the kill lands
    /// mid-stream.
    fn spawn(dir: &std::path::Path) -> Self {
        use std::io::{BufRead as _, Write as _};
        let exe = std::env::current_exe().expect("test binary path");
        let mut child = std::process::Command::new(exe)
            .args(["sigkill_child_ingest_loop", "--exact", "--nocapture"])
            .env("ASCS_SIGKILL_CHILD_DIR", dir)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawning the child failed");
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let park = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let parked = park.clone();
        let acks = std::thread::spawn(move || {
            let mut last = 0;
            for line in stdout.lines().map_while(Result::ok) {
                let Some(t) = line.strip_prefix("acked ").and_then(|t| t.parse().ok()) else {
                    continue;
                };
                last = t;
                let uncovered = t % CHILD_CHECKPOINT_EVERY != 0;
                if (parked.load(std::sync::atomic::Ordering::SeqCst) && uncovered)
                    || writeln!(stdin, "go").is_err()
                {
                    break;
                }
            }
            (last, stdin)
        });
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(
                Instant::now() < deadline,
                "child produced no durable progress in time"
            );
            if let Some(status) = child.try_wait().expect("try_wait failed") {
                panic!("child exited prematurely: {status}");
            }
            let manifests = std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok())
                        .filter(|e| e.path().to_string_lossy().ends_with(".manifest"))
                        .count()
                })
                .unwrap_or(0);
            if manifests >= 1 {
                return Self { child, park, acks };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILLs the child wherever it is — no destructors, no flushes, real
    /// process death — and returns the last sample it acknowledged.
    fn kill(mut self) -> u64 {
        self.child.kill().expect("kill failed");
        self.child.wait().expect("wait failed");
        self.acks.join().expect("ack thread panicked").0
    }

    /// Waits until the child parks right after acknowledging a sample that
    /// only the WAL holds, then SIGKILLs it; returns that sample.
    fn park_and_kill(mut self) -> u64 {
        self.park.store(true, std::sync::atomic::Ordering::SeqCst);
        let (last, stdin) = self.acks.join().expect("ack thread panicked");
        self.child.kill().expect("kill failed");
        self.child.wait().expect("wait failed");
        drop(stdin);
        last
    }
}

/// Parent half: spawns the child, lets it run past its first durable
/// checkpoint, parks it right after it acknowledges a sample that only the
/// WAL holds, SIGKILLs it, and recovers — asserting the recovered epoch is
/// exactly that last acknowledged sample (the default
/// `FsyncPolicy::Always` fsyncs every record before its ingest returns,
/// and the parked child wrote nothing newer), that the state is
/// bit-identical to the sequential oracle at that epoch, and reporting the
/// recovery time.
#[test]
fn sigkilled_process_recovers_bit_identically_from_disk() {
    let dir = temp_dir("sigkill");
    let total = 1_000_000u64;
    let cfg = config(total, 127); // must mirror the child exactly
    let hp = hyper(total);
    let last_acked = SigkillChild::spawn(&dir).park_and_kill();

    let started = Instant::now();
    let outcome = RecoveryManager::new(&dir)
        .recover(&cfg, Some(&hp), ServeOptions::default().shards)
        .expect("recovery after SIGKILL failed");
    let recovery_time = started.elapsed();
    let epoch = outcome.state.epoch();
    assert!(epoch >= 64, "no checkpointed progress recovered: {epoch}");
    assert_eq!(
        epoch, last_acked,
        "the recovered epoch must be the last acknowledged sample ({})",
        outcome.report
    );
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), ServeOptions::default().shards, epoch),
        "post-SIGKILL state",
    );
    println!(
        "SIGKILL recovery: epoch {epoch} (last acked {last_acked}) in {:.2} ms ({})",
        recovery_time.as_secs_f64() * 1e3,
        outcome.report
    );

    // And the recovered directory relaunches into live serving.
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        DurabilityOptions::new(&dir),
    )
    .expect("relaunch after SIGKILL failed");
    let mut oracle = oracle_at(&cfg, Some(&hp), serving.shards(), epoch);
    for t in epoch + 1..=epoch + 32 {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "post-SIGKILL resumed stream");
    serving.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_on_a_pristine_directory_is_a_clean_cold_start() {
    let dir = temp_dir("cold");
    let cfg = config(64, 131);
    let hp = hyper(64);
    let outcome = RecoveryManager::with_fs(&dir, Arc::new(StdFs))
        .recover(&cfg, Some(&hp), 2)
        .expect("cold-start recovery failed");
    assert_eq!(outcome.state.epoch(), 0);
    assert_eq!(outcome.state.emitted_updates(), 0);
    assert_eq!(outcome.state.shard_set().shards(), 2);
    let report = &outcome.report;
    assert_eq!(report.checkpoint_generation, None);
    assert_eq!(report.wal_segments_scanned, 0);
    assert_eq!(report.recovered_epoch, 0);
    assert_recovered_matches(
        &outcome.state,
        &ReplayOracle::new(&cfg, Some(&hp), 2),
        "cold start",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Double crash: first a real SIGKILL wherever the child happens to be
/// (recovery must still reach the last sample it acknowledged), then a
/// fault-injected process death landing *while the recovery replays the
/// WAL*, absorbed
/// by the bounded re-entry budget. A third, clean cold start must see
/// exactly the same directory: the crashed recovery attempt may not have
/// changed what any later recovery rebuilds, and the final state must be
/// bit-identical to the sequential oracle at the recovered epoch.
#[test]
fn double_crash_with_kill_during_wal_replay_recovers_bit_identically() {
    use ascs::core::codec::DurableFs;

    let dir = temp_dir("double-crash");
    let total = 1_000_000u64;
    let cfg = config(total, 127); // must mirror the SIGKILL child exactly
    let hp = hyper(total);
    let shards = ServeOptions::default().shards;
    let last_acked = SigkillChild::spawn(&dir).kill();

    // Probe twice with a counting filesystem: the first pass may sweep
    // stray files, the second gives the steady-state op count a repeat
    // recovery performs — so the injected crash below lands two ops short
    // of the finish line, squarely inside the WAL tail replay.
    let mut clean_epoch = 0;
    let mut ops = 0;
    for _ in 0..2 {
        let probe = Arc::new(FaultFs::new());
        let outcome = RecoveryManager::with_fs(&dir, probe.clone())
            .recover(&cfg, Some(&hp), shards)
            .expect("probe recovery failed");
        assert!(
            outcome.report.wal_records_replayed + outcome.report.wal_records_skipped > 0,
            "recovery must walk WAL records for the crash to land mid-replay: {}",
            outcome.report
        );
        clean_epoch = outcome.state.epoch();
        ops = probe.op_count();
    }
    assert!(clean_epoch >= 64, "no checkpointed progress: {clean_epoch}");
    assert!(
        clean_epoch >= last_acked,
        "acknowledged sample {last_acked} lost: recovered only epoch {clean_epoch}"
    );

    let crash_fs = Arc::new(FaultFs::new().crash_at_op(ops - 2));
    let outcome = recover_with_reentry(&dir, &cfg, Some(&hp), shards, 3, |attempt| {
        if attempt == 0 {
            crash_fs.clone() as Arc<dyn DurableFs>
        } else {
            Arc::new(StdFs) as Arc<dyn DurableFs>
        }
    })
    .expect("re-entry recovery failed");
    // The crashing op itself is counted, so a fired crash leaves the
    // count exactly one past its trigger — and short of a full recovery.
    assert_eq!(
        crash_fs.op_count(),
        ops - 1,
        "the first recovery attempt must have died mid-replay"
    );
    assert_eq!(outcome.state.epoch(), clean_epoch);
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), shards, clean_epoch),
        "recovery re-entered after crash-during-replay",
    );

    // Third crash survived implicitly: a clean cold start over the same
    // directory reaches the same epoch, bit for bit.
    let outcome = RecoveryManager::new(&dir)
        .recover(&cfg, Some(&hp), shards)
        .expect("clean third recovery failed");
    assert_eq!(outcome.state.epoch(), clean_epoch);
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), shards, clean_epoch),
        "third cold start",
    );

    // And the directory still relaunches into live serving.
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        DurabilityOptions::new(&dir),
    )
    .expect("relaunch after double crash failed");
    let mut oracle = oracle_at(&cfg, Some(&hp), serving.shards(), clean_epoch);
    for t in clean_epoch + 1..=clean_epoch + 32 {
        let s = sample_at(t);
        serving.ingest_blocking(&s).expect("ingest failed");
        oracle.ingest(&s);
    }
    let snap = serving.refresh_snapshot().expect("refresh failed");
    assert_snapshot_matches(&snap, &oracle, "stream resumed after double crash");
    serving.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression for a durable-floor hole the chaos harness found (seed
/// 1249): when corruption opens a record *gap* in the WAL, every future
/// recovery stops at the gap — yet a reopened store appended *behind* it,
/// so the records backing its advertised `last_durable_epoch` were
/// unreachable on the next cold start. Recovery now repairs the log:
/// the gapped segment is rewritten down to its consumed prefix, dead
/// segments beyond it are deleted, and appends re-join a contiguous log.
#[test]
fn wal_gap_is_repaired_so_later_appends_stay_recoverable() {
    let dir = temp_dir("wal-gap-repair");
    let cfg = config(96, 137);
    let hp = hyper(96);
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        DurabilityOptions {
            checkpoint_every: 0, // WAL only: the gap must not be papered over
            wal_segment_records: 8,
            ..DurabilityOptions::new(&dir)
        },
    )
    .expect("durable launch failed");
    for t in 1..=24u64 {
        serving.ingest_blocking(&sample_at(t)).expect("ingest");
    }
    serving.simulate_crash();

    // Corrupt one record in the middle of the *first* segment: recovery
    // must stop there, and everything behind the corruption is dead.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().contains("wal"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 3, "wanted several segments: {segments:?}");
    let mut bytes = std::fs::read(&segments[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&segments[0], &bytes).unwrap();

    let outcome = RecoveryManager::new(&dir)
        .recover(&cfg, Some(&hp), 2)
        .expect("recovery over the corrupt WAL failed");
    let repaired_epoch = outcome.state.epoch();
    assert!(outcome.report.wal_repaired, "{}", outcome.report);
    assert!(repaired_epoch < 24, "corruption should cost records");
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), 2, repaired_epoch),
        "post-corruption recovery",
    );

    // Reopen, append new records, crash again: the floor the store
    // advertises must actually be recoverable — this is exactly what
    // broke before the repair existed.
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        ServeOptions::default(),
        DurabilityOptions {
            checkpoint_every: 0,
            wal_segment_records: 8,
            ..DurabilityOptions::new(&dir)
        },
    )
    .expect("relaunch over repaired WAL failed");
    for t in repaired_epoch + 1..=repaired_epoch + 12 {
        serving.ingest_blocking(&sample_at(t)).expect("ingest");
    }
    let floor = serving.health().durability.last_durable_epoch;
    assert!(floor >= repaired_epoch + 12, "appends were not durable");
    serving.simulate_crash();

    let outcome = RecoveryManager::new(&dir)
        .recover(&cfg, Some(&hp), 2)
        .expect("recovery after repaired appends failed");
    assert!(
        outcome.state.epoch() >= floor,
        "advertised durable floor {floor} unreachable: cold start got {}",
        outcome.state.epoch()
    );
    assert_recovered_matches(
        &outcome.state,
        &oracle_at(&cfg, Some(&hp), 2, outcome.state.epoch()),
        "cold start over repaired log",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
