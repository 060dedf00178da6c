//! Fault-tolerant serving core: supervised shard workers, epoch-stamped
//! snapshot reads and checkpoint-backed crash recovery.
//!
//! [`ServingEstimator`] turns the batch-oriented estimator into a
//! long-running service. Each shard worker owns its [`AscsSketch`] on a
//! dedicated thread fed by a bounded queue; the caller-side
//! [`ServingEstimator::try_ingest`] expands a sample into pair updates,
//! routes them with the *same* salted router as [`ShardedAscs`], and
//! returns a typed [`IngestError::Overloaded`] instead of blocking when a
//! queue is full.
//!
//! When the hash plan over the pair universe is no larger than one shard's
//! table ([`ServingEstimator::plan_eligible`]), the first worker to receive
//! a batch builds it once, with a slot → shard byte table, and the hot path
//! stops hashing: the producer routes each update with one byte load, and
//! every worker (live batches and restart replays alike) runs its batches
//! through [`AscsSketch::ingest_batch`] on the plan. Until the plan is
//! ready, and for instances above the rule, both sides stay on the hashed
//! path through the same driver; the two give bit-identical state.
//!
//! Readers never touch worker state: they read the last *published*
//! [`Snapshot`] — a merged table built via count-sketch linearity and
//! swapped in behind an `Arc` — so point queries, whole universe sweeps
//! and top-k reads never observe a torn table. Snapshots published once
//! the plan is ready share it for their whole-universe sweeps.
//!
//! Robustness is structural, not best-effort:
//!
//! * **Quarantine** — malformed samples (wrong dimensionality, sparse
//!   indices out of range or repeated, NaN/±inf values) are rejected at
//!   the ingest boundary by [`Sample::screen`] with a typed [`IngestError`]
//!   and a counter, before any state (stream time, feature moments, WAL,
//!   queues) is touched.
//! * **Supervision** — each worker loop runs under `catch_unwind`; a
//!   supervisor thread restarts a panicked worker from its last good
//!   in-memory checkpoint (the PR 5 codec) and replays the bounded batch
//!   log accumulated since that checkpoint, so post-recovery state is
//!   bit-identical to a run that never crashed.
//! * **Degraded mode** — while recovery is in progress readers keep being
//!   served the last published snapshot, stamped with its epoch and a
//!   staleness flag ([`SnapshotView::degraded`], [`SnapshotView::lag`]).
//! * **Torn checkpoints** — every checkpoint is validated by restoring it
//!   before it replaces the previous one; a corrupted write keeps the old
//!   checkpoint and lets the replay log grow instead.
//!
//! Determinism contract: per-shard update order is preserved (bounded FIFO
//! queues, a single producer), workers apply updates through the same
//! batch driver as [`ShardedAscs`], and snapshots merge worker sketches in
//! shard order — so a snapshot at epoch `t` is bit-identical to a
//! sequential [`ShardedAscs`] replay of the first `t` samples with the
//! same configuration, shard count and seed. The fault-injection tests
//! pin this down, panics and torn checkpoints included.
//!
//! [`ShardedAscs`]: crate::sharded::ShardedAscs

use crate::ascs::AscsSketch;
use crate::config::AscsConfig;
use crate::durability::{
    prototype_sketch, DurabilityError, DurabilityHealth, DurabilityOptions, DurableStore,
    RecoveredState, RecoveryManager, RecoveryReport,
};
use crate::estimator::{ReportedPair, MAX_PLANNED_PAIRS, TRANSIENT_PLAN_PAIRS};
use crate::hyper::{HyperParameterSolver, HyperParameters};
use crate::pair::PairIndexer;
use crate::sharded::{shard_for, ShardUpdate, MAX_SHARDS, ROUTER_SALT};
use crate::stream::{PairUpdate, Sample, StreamContext};
use crate::supervisor::{
    lock, spawn_supervisor, spawn_worker, Envelope, PlanCell, PlanRecipe, RecoveryState,
    ShardQueue, WorkerContext, WorkerShared,
};
use crate::theory::TheoryBounds;
use crate::timeaware::window_span;
use ascs_count_sketch::codec::{DurableFs, StdFs};
use ascs_count_sketch::{CountSketch, HashPlan, MAX_ROWS};
use ascs_sketch_hash::splitmix64;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Typed rejection at the ingest boundary. The failed call mutates
/// *nothing* besides the corresponding diagnostic counter: the sample can
/// be retried (for [`IngestError::Overloaded`]) or dropped (for the
/// [`Sample::screen`] rejections) without the stream time advancing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// The sample (or update) carries a NaN or ±inf value and was
    /// quarantined before touching any state. At the sample boundary
    /// `index` is the offending feature index; at the sketch boundary
    /// ([`AscsSketch::offer_checked`]) it is the pair key.
    NonFinite {
        /// Feature index (sample boundary) or pair key (sketch boundary).
        index: u64,
        /// The offending value (NaN or ±inf).
        value: f64,
    },
    /// The sample's dimensionality — a dense sample's length, a sparse
    /// sample's declared `dim` — is not the configured one.
    DimensionMismatch {
        /// The configured dimensionality.
        expected: u64,
        /// The sample's dimensionality.
        found: u64,
    },
    /// A sparse sample names a feature index at or beyond the configured
    /// dimensionality.
    IndexOutOfRange {
        /// The offending feature index.
        index: u64,
        /// The configured dimensionality.
        dim: u64,
    },
    /// A sparse sample names the same feature index more than once.
    DuplicateIndex {
        /// The repeated feature index.
        index: u64,
    },
    /// A shard's bounded queue has no room for another batch; retry after
    /// readers/workers drain, or treat as load shedding.
    Overloaded {
        /// The shard whose queue is full.
        shard: usize,
        /// The queue capacity in batches.
        capacity: usize,
    },
    /// The shard exhausted its restart budget and was abandoned by the
    /// supervisor; the serving instance can still answer reads from the
    /// last published snapshot but accepts no further ingest.
    ShardFailed {
        /// The failed shard.
        shard: usize,
    },
    /// [`ServingEstimator::ingest_with_deadline`] saw `Overloaded` for the
    /// whole deadline: the queues never drained. Nothing changed; the
    /// sample can be retried or shed.
    Timeout {
        /// How long the call waited before giving up.
        waited: Duration,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NonFinite { index, value } => {
                write!(f, "non-finite value {value} at index {index} quarantined")
            }
            IngestError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "sample dimensionality {found} does not match the configured {expected}"
                )
            }
            IngestError::IndexOutOfRange { index, dim } => {
                write!(
                    f,
                    "sparse index {index} is out of range for dimensionality {dim}"
                )
            }
            IngestError::DuplicateIndex { index } => {
                write!(f, "sparse index {index} appears more than once")
            }
            IngestError::Overloaded { shard, capacity } => {
                write!(f, "shard {shard} queue full ({capacity} batches)")
            }
            IngestError::ShardFailed { shard } => {
                write!(f, "shard {shard} exceeded its restart budget")
            }
            IngestError::Timeout { waited } => {
                write!(
                    f,
                    "shard queues stayed full for {:.1} ms",
                    waited.as_secs_f64() * 1e3
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a snapshot refresh (or shutdown) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// A shard exhausted its restart budget; its state is unrecoverable
    /// within this instance.
    ShardFailed {
        /// The failed shard.
        shard: usize,
    },
    /// The collect barrier did not complete within the deadline.
    SnapshotTimeout,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShardFailed { shard } => {
                write!(f, "shard {shard} exceeded its restart budget")
            }
            ServeError::SnapshotTimeout => write!(f, "snapshot collect barrier timed out"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Deterministic fault-injection hooks, implemented by the testkit's
/// `FaultPlan` and defaulting to no-ops ([`NoFaults`]) in production.
///
/// Injected faults fire on the *first delivery* of a batch only by
/// default: recovery replays run without injection, so a panic-at-update-N
/// fault cannot put a worker into an infinite crash loop. Returning `true`
/// from [`FaultInjector::inject_during_recovery`] lifts that exemption —
/// the supervisor's restart budget then bounds the crash loop, terminating
/// in a typed [`IngestError::ShardFailed`]. Hooks that block
/// ([`FaultInjector::before_batch`], [`FaultInjector::before_recovery`])
/// must be released before the serving instance is dropped — shutdown
/// joins the supervision tree.
pub trait FaultInjector: Send + Sync + 'static {
    /// Return `true` to panic the worker right before applying the update
    /// with this shard-local index (0-based over all updates the shard has
    /// been asked to apply on first delivery).
    fn inject_panic(&self, _shard: usize, _update_index: u64) -> bool {
        false
    }

    /// Mutate (e.g. truncate) freshly serialized checkpoint bytes before
    /// they are validated; a corrupted record keeps the previous good
    /// checkpoint in place.
    fn corrupt_checkpoint(&self, _shard: usize, _bytes: &mut Vec<u8>) {}

    /// Called at the start of a worker's recovery (restore + replay). May
    /// block to let tests observe degraded mode.
    fn before_recovery(&self, _shard: usize) {}

    /// Called before a worker applies a batch. May block to force
    /// queue-full storms.
    fn before_batch(&self, _shard: usize) {}

    /// Whether [`FaultInjector::inject_panic`] may also fire during a
    /// recovery replay. The `false` default keeps replays clean (a
    /// one-shot panic cannot loop); `true` exposes the crash-during-
    /// recovery path, bounded by [`ServeOptions::max_restarts`].
    fn inject_during_recovery(&self) -> bool {
        false
    }
}

/// The production no-op injector.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// Tunables of the serving core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Number of shard workers (`1..=MAX_SHARDS`), each owning a
    /// full-geometry sketch on its own thread.
    pub shards: usize,
    /// Bound on *pending* batches per shard queue; one batch is the slice
    /// of one sample's updates owned by that shard. A full queue surfaces
    /// as [`IngestError::Overloaded`] instead of unbounded blocking.
    pub queue_capacity: usize,
    /// Batches applied between worker checkpoints. Smaller means faster
    /// recovery (shorter replay log) at more checkpoint serialization
    /// cost.
    pub checkpoint_interval: usize,
    /// Per-shard restart budget; a shard panicking more than this many
    /// times is abandoned and surfaces as [`IngestError::ShardFailed`].
    pub max_restarts: u64,
    /// How long [`ServingEstimator::ingest_blocking`] waits out a full
    /// queue (yield, then exponentially backed-off sleeps) before
    /// surfacing [`IngestError::Timeout`].
    pub ingest_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_capacity: 256,
            checkpoint_interval: 32,
            max_restarts: 8,
            ingest_timeout: Duration::from_secs(30),
        }
    }
}

/// State shared between the producer, the workers, the supervisor and
/// every [`SnapshotReader`].
pub(crate) struct ServeShared {
    published: Mutex<Arc<Snapshot>>,
    /// Stream time of the newest fully enqueued sample.
    pub(crate) ingest_epoch: AtomicU64,
    /// Workers currently restoring + replaying after a panic.
    pub(crate) recovering: AtomicU64,
    /// Worker panics observed by the supervisor.
    pub(crate) panics: AtomicU64,
    /// Worker restarts performed by the supervisor.
    pub(crate) restarts: AtomicU64,
    /// Checkpoint writes rejected by validation (kept the previous one).
    pub(crate) torn_checkpoints: AtomicU64,
    /// Shards abandoned after exhausting their restart budget.
    pub(crate) failed_shards: AtomicU64,
    /// The instance's hash plan and slot router, once a worker built them.
    pub(crate) plan: PlanCell,
}

/// An immutable, epoch-stamped merged view of the whole serving state.
/// Cheap to share (`Arc`), safe to read from any thread, and bit-identical
/// to a sequential [`ShardedAscs`](crate::sharded::ShardedAscs) replay of the first
/// [`Snapshot::epoch`] samples.
pub struct Snapshot {
    epoch: u64,
    merged: CountSketch,
    top: Vec<(u64, f64)>,
    inserted: u64,
    skipped: u64,
    num_pairs: u64,
    indexer: PairIndexer,
    /// The instance's plan over `0..num_pairs`, when it was ready at
    /// publish time.
    plan: Option<Arc<HashPlan>>,
}

impl Snapshot {
    /// Stream time (samples fully ingested) this snapshot reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The merged count-sketch table (read-only; used by the consistency
    /// tests to compare tables bit for bit).
    pub fn sketch(&self) -> &CountSketch {
        &self.merged
    }

    /// Point estimate for a linear pair key.
    pub fn estimate(&self, key: u64) -> f64 {
        self.merged.estimate(key)
    }

    /// Point estimate for the feature pair `(a, b)`.
    pub fn estimate_pair(&self, a: u64, b: u64) -> f64 {
        self.merged.estimate(self.indexer.index(a, b))
    }

    /// Estimates for every pair key in `0..p` as one blocked
    /// `estimate_many` sweep over the instance's plan, or over a transient
    /// one when the snapshot holds none (point queries beyond the
    /// transient-plan bound), mirroring `CovarianceEstimator::all_estimates`.
    pub fn all_estimates(&self) -> Vec<f64> {
        let p = self.num_pairs;
        assert!(
            p <= MAX_PLANNED_PAIRS,
            "enumerating {p} pairs would be prohibitively slow; use top_pairs()"
        );
        let mut out = Vec::new();
        if let Some(plan) = &self.plan {
            self.merged.estimate_many(plan, &mut out);
        } else if p <= TRANSIENT_PLAN_PAIRS {
            self.merged
                .estimate_many(&self.merged.build_plan(p as usize), &mut out);
            out.truncate(p as usize);
        } else {
            out.extend((0..p).map(|key| self.merged.estimate(key)));
        }
        out
    }

    /// The top tracked pairs (largest estimate magnitude first, ties by
    /// key), decoded into feature coordinates; at most `k` are returned.
    pub fn top_pairs(&self, k: usize) -> Vec<ReportedPair> {
        self.top
            .iter()
            .take(k)
            .map(|&(key, estimate)| {
                let (a, b) = self.indexer.pair(key);
                ReportedPair {
                    key,
                    a,
                    b,
                    estimate,
                }
            })
            .collect()
    }

    /// Updates inserted / skipped by the gates up to this epoch.
    pub fn update_counts(&self) -> (u64, u64) {
        (self.inserted, self.skipped)
    }
}

/// What a reader sees: the snapshot plus liveness metadata.
pub struct SnapshotView {
    /// The last published snapshot.
    pub snapshot: Arc<Snapshot>,
    /// `true` while a worker is recovering from a panic or a shard has
    /// been abandoned — the snapshot is still internally consistent, but
    /// refreshes are stalled until recovery completes.
    pub degraded: bool,
    /// Samples ingested since this snapshot was published
    /// (`ingest epoch − snapshot epoch`).
    pub lag: u64,
}

/// A cheap, cloneable handle for querying published snapshots from any
/// thread. Readers never block ingestion and never observe a torn table:
/// they see the previous snapshot until the next one is fully built and
/// swapped in.
#[derive(Clone)]
pub struct SnapshotReader {
    shared: Arc<ServeShared>,
}

impl SnapshotReader {
    /// The current published snapshot with staleness metadata.
    pub fn current(&self) -> SnapshotView {
        let snapshot = lock(&self.shared.published).clone();
        let degraded = self.shared.recovering.load(Ordering::SeqCst) > 0
            || self.shared.failed_shards.load(Ordering::SeqCst) > 0;
        let lag = self
            .shared
            .ingest_epoch
            .load(Ordering::SeqCst)
            .saturating_sub(snapshot.epoch);
        SnapshotView {
            snapshot,
            degraded,
            lag,
        }
    }
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Samples accepted by `try_ingest`.
    pub ingested_samples: u64,
    /// Pair updates emitted into the shard queues.
    pub emitted_updates: u64,
    /// Samples rejected by [`Sample::screen`] (malformed or non-finite).
    pub quarantined_samples: u64,
    /// `Overloaded` rejections (including retries of the same sample).
    pub overload_rejections: u64,
    /// Blocking ingests that exhausted their deadline
    /// ([`IngestError::Timeout`]).
    pub ingest_timeouts: u64,
    /// Worker panics observed by the supervisor.
    pub worker_panics: u64,
    /// Worker restarts performed by the supervisor.
    pub worker_restarts: u64,
    /// Checkpoint writes rejected by validation.
    pub torn_checkpoints: u64,
    /// Workers currently mid-recovery.
    pub recovering_workers: u64,
    /// Shards abandoned after exhausting their restart budget.
    pub failed_shards: u64,
    /// Epoch of the last published snapshot.
    pub published_epoch: u64,
}

/// The full typed health report of a serving instance — what an operator
/// (or the bench harness) reads to decide whether the service is healthy,
/// degraded or durably compromised. Built by [`ServingEstimator::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingHealth {
    /// Number of shard workers.
    pub shards: usize,
    /// Restarts performed per shard (index = shard), the budget spent.
    pub shard_restarts: Vec<u64>,
    /// Shards abandoned after exhausting their restart budget.
    pub failed_shards: Vec<usize>,
    /// Worker panics observed by the supervisor.
    pub worker_panics: u64,
    /// Checkpoint writes rejected by validation.
    pub torn_checkpoints: u64,
    /// Samples rejected by [`Sample::screen`] (malformed or non-finite).
    pub quarantined_samples: u64,
    /// `Overloaded` rejections (including retries of the same sample).
    pub overload_rejections: u64,
    /// Blocking ingests that exhausted their deadline.
    pub ingest_timeouts: u64,
    /// Workers currently mid-recovery.
    pub recovering_workers: u64,
    /// Any of: a worker recovering, a shard abandoned, durability lost.
    pub degraded: bool,
    /// Stream time of the newest fully enqueued sample.
    pub ingest_epoch: u64,
    /// Epoch of the last published snapshot.
    pub published_epoch: u64,
    /// Durability-side flags and counters.
    pub durability: DurabilityHealth,
}

impl ServingHealth {
    /// Cross-checks the counters against each other and returns every
    /// internal inconsistency found — the standing health invariants the
    /// chaos harness asserts after each fault. Empty means coherent.
    ///
    /// The panic identity allows one in-flight event: the supervisor
    /// counts a panic before deciding restart-vs-abandon, so a concurrent
    /// read may legitimately observe `panics == restarts + abandoned + 1`.
    pub fn coherence_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                out.push(what);
            }
        };
        check(
            self.shard_restarts.len() == self.shards,
            format!(
                "restart counters for {} shards, {} expected",
                self.shard_restarts.len(),
                self.shards
            ),
        );
        check(
            self.published_epoch <= self.ingest_epoch,
            format!(
                "published epoch {} ahead of ingest epoch {}",
                self.published_epoch, self.ingest_epoch
            ),
        );
        check(
            self.recovering_workers <= self.shards as u64,
            format!(
                "{} workers recovering out of {} shards",
                self.recovering_workers, self.shards
            ),
        );
        check(
            self.failed_shards.len() <= self.shards
                && self.failed_shards.iter().all(|&s| s < self.shards)
                && self.failed_shards.windows(2).all(|w| w[0] < w[1]),
            format!(
                "abandoned shard list {:?} invalid for {} shards",
                self.failed_shards, self.shards
            ),
        );
        let restarts: u64 = self.shard_restarts.iter().sum();
        let abandoned = self.failed_shards.len() as u64;
        check(
            (restarts + abandoned..=restarts + abandoned + 1).contains(&self.worker_panics),
            format!(
                "{} panics vs {restarts} restarts + {abandoned} abandoned shards",
                self.worker_panics
            ),
        );
        check(
            self.degraded
                == (self.recovering_workers > 0
                    || !self.failed_shards.is_empty()
                    || self.durability.durability_lost),
            format!(
                "degraded flag {} contradicts recovering {} / failed {:?} / durability_lost {}",
                self.degraded,
                self.recovering_workers,
                self.failed_shards,
                self.durability.durability_lost
            ),
        );
        if self.durability.enabled {
            check(
                self.durability.last_checkpoint_epoch <= self.durability.last_durable_epoch,
                format!(
                    "checkpoint epoch {} ahead of durable epoch {}",
                    self.durability.last_checkpoint_epoch, self.durability.last_durable_epoch
                ),
            );
            check(
                self.durability.last_durable_epoch <= self.ingest_epoch,
                format!(
                    "durable epoch {} ahead of ingest epoch {}",
                    self.durability.last_durable_epoch, self.ingest_epoch
                ),
            );
        } else {
            check(
                self.durability == DurabilityHealth::disabled(),
                "durability counters non-zero on an in-memory instance".to_string(),
            );
        }
        out
    }
}

impl std::fmt::Display for ServingHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serving health: {} ({} shards, ingest epoch {}, published epoch {})",
            if self.degraded { "DEGRADED" } else { "ok" },
            self.shards,
            self.ingest_epoch,
            self.published_epoch,
        )?;
        writeln!(
            f,
            "  workers: restarts per shard {:?}, {} panics, {} recovering, abandoned {:?}",
            self.shard_restarts, self.worker_panics, self.recovering_workers, self.failed_shards,
        )?;
        writeln!(
            f,
            "  ingest: {} quarantined, {} overload rejections, {} timeouts, {} torn checkpoints",
            self.quarantined_samples,
            self.overload_rejections,
            self.ingest_timeouts,
            self.torn_checkpoints,
        )?;
        if self.durability.enabled {
            write!(
                f,
                "  durability: {}, durable through epoch {} (checkpoint epoch {}, \
                 {} generations), {} wal records / {} syncs, {} retries, {} failed checkpoints",
                if self.durability.durability_lost {
                    "LOST"
                } else {
                    "ok"
                },
                self.durability.last_durable_epoch,
                self.durability.last_checkpoint_epoch,
                self.durability.checkpoint_generations,
                self.durability.wal_records,
                self.durability.wal_syncs,
                self.durability.persistence_retries,
                self.durability.checkpoint_failures,
            )
        } else {
            write!(f, "  durability: disabled (in-memory only)")
        }
    }
}

/// The long-running serving front end: single-producer ingest with
/// backpressure, supervised shard workers, and epoch-stamped snapshot
/// publication.
pub struct ServingEstimator {
    config: AscsConfig,
    ctx: StreamContext,
    t: u64,
    router_salt: u64,
    opts: ServeOptions,
    shared: Arc<ServeShared>,
    workers: Vec<Arc<WorkerShared>>,
    supervisor: Option<JoinHandle<()>>,
    scratch: Vec<Vec<ShardUpdate>>,
    quarantined_samples: u64,
    overload_rejections: u64,
    ingest_timeouts: u64,
    emitted_updates: u64,
    backoff_rng: u64,
    shut_down: bool,
    store: Option<DurableStore>,
    recovery_report: Option<RecoveryReport>,
    crash_simulated: bool,
}

/// Salt separating the backoff-jitter stream from every other consumer of
/// the configured seed (router, hashes).
const JITTER_SALT: u64 = 0x6A09_E667_F3BC_C909;

/// One backoff delay of [`ServingEstimator::ingest_with_deadline`]: the
/// nominal exponential delay for `step` (20 µs doubling up to a 2.5 ms
/// cap) scaled by a jitter factor drawn uniformly from `[0.5, 1.0)` out of
/// the caller's [`splitmix64`]-chained `rng` state. Pure and fully
/// deterministic in `(step, rng)` — the regression test pins the exact
/// sequence — while distinct seeds decorrelate concurrent retry storms.
pub fn jittered_backoff(step: u32, rng: &mut u64) -> Duration {
    const SLEEP_BASE_MICROS: u64 = 20;
    const SLEEP_CAP_MICROS: u64 = 2500;
    let nominal = (SLEEP_BASE_MICROS << step.min(7)).min(SLEEP_CAP_MICROS);
    *rng = splitmix64(*rng);
    // Top 53 bits → a uniform f64 in [0, 1), halved and shifted to [0.5, 1).
    let factor = 0.5 + (*rng >> 11) as f64 * (0.5 / (1u64 << 53) as f64);
    Duration::from_nanos(((nominal * 1_000) as f64 * factor) as u64)
}

impl ServingEstimator {
    /// Whether instances serving `config` run on the plan path. The size
    /// rule: the hash plan over the pair universe, `p·(4K + 4)` bytes, is
    /// no larger than one shard's table, `K·R·8` bytes. The geometry must
    /// also be one the planned kernel takes (`K ≤ MAX_ROWS`, `R < 2³²`).
    /// Above the rule every update is hashed, bit-identically.
    pub fn plan_eligible(config: &AscsConfig) -> bool {
        let (rows, range) = (config.geometry.rows, config.geometry.range);
        let plan_bytes = u128::from(config.num_pairs()) * (4 * rows as u128 + 4);
        let table_bytes = rows as u128 * range as u128 * 8;
        rows <= MAX_ROWS && range <= u32::MAX as usize && plan_bytes <= table_bytes
    }

    /// Launches a gated serving instance, solving the hyperparameters via
    /// Algorithm 3 with the 10 %-exploration fallback (like
    /// `CovarianceEstimator::new_or_fallback`).
    pub fn launch(config: AscsConfig, opts: ServeOptions) -> Self {
        let bounds = TheoryBounds::new(
            config.num_pairs(),
            config.geometry.range,
            config.geometry.rows,
            config.alpha,
            config.sigma,
            config.signal_strength,
            config.total_samples,
        );
        let solver = HyperParameterSolver::new(bounds);
        let (hp, _fell_back) =
            solver.solve_or_fallback(config.tau0, config.delta, config.delta_star, 0.1);
        Self::launch_with_hyperparameters(config, Some(hp), opts)
    }

    /// Launches a vanilla (always-ingest) serving instance — the gate-free
    /// counterpart, where sharded state is bit-identical to sequential
    /// ingestion unconditionally.
    pub fn launch_vanilla(config: AscsConfig, opts: ServeOptions) -> Self {
        Self::launch_with_hyperparameters(config, None, opts)
    }

    /// Launches with explicit hyperparameters (`None` → vanilla workers),
    /// bypassing Algorithm 3.
    pub fn launch_with_hyperparameters(
        config: AscsConfig,
        hyper: Option<HyperParameters>,
        opts: ServeOptions,
    ) -> Self {
        Self::launch_with_faults(config, hyper, opts, Arc::new(NoFaults))
    }

    /// [`ServingEstimator::launch_with_hyperparameters`] with a fault
    /// injector wired into every worker — the entry point the
    /// deterministic failure tests and the recovery benchmark use.
    ///
    /// # Panics
    /// Panics on an invalid configuration, `shards` outside
    /// `1..=MAX_SHARDS`, or a zero queue capacity / checkpoint interval.
    pub fn launch_with_faults(
        config: AscsConfig,
        hyper: Option<HyperParameters>,
        opts: ServeOptions,
        injector: Arc<dyn FaultInjector>,
    ) -> Self {
        Self::launch_core(config, hyper, opts, injector, None, None, None)
    }

    /// Launches a *durable* serving instance rooted at the durability
    /// options' data directory: recovery runs first (scanning checkpoints
    /// and replaying the WAL tail — a fresh directory recovers to epoch
    /// 0), every worker boots from the recovered state, and from then on
    /// each accepted sample is logged to the write-ahead log before its
    /// updates are delivered, with checkpoint generations rotated on the
    /// configured cadence.
    ///
    /// # Errors
    /// [`DurabilityError`] when the data directory cannot be read or the
    /// filesystem fails during recovery. Torn or corrupt *bytes* on disk
    /// never error — they are discarded with counters in
    /// [`ServingEstimator::recovery_report`].
    pub fn launch_durable(
        config: AscsConfig,
        hyper: Option<HyperParameters>,
        opts: ServeOptions,
        durability: DurabilityOptions,
    ) -> Result<Self, DurabilityError> {
        Self::launch_durable_with_faults(
            config,
            hyper,
            opts,
            durability,
            Arc::new(NoFaults),
            Arc::new(StdFs),
        )
    }

    /// [`ServingEstimator::launch_durable`] with an explicit fault
    /// injector and filesystem — the entry point the fault-injection
    /// tests use to script torn writes, failed fsyncs and crash points.
    ///
    /// # Errors
    /// Same contract as [`ServingEstimator::launch_durable`].
    pub fn launch_durable_with_faults(
        config: AscsConfig,
        hyper: Option<HyperParameters>,
        opts: ServeOptions,
        durability: DurabilityOptions,
        injector: Arc<dyn FaultInjector>,
        fs: Arc<dyn DurableFs>,
    ) -> Result<Self, DurabilityError> {
        let manager = RecoveryManager::with_fs(durability.dir.clone(), fs.clone());
        let outcome = manager.recover(&config, hyper.as_ref(), opts.shards)?;
        let store = DurableStore::open(fs, durability, opts.shards, outcome.bootstrap)?;
        Ok(Self::launch_core(
            config,
            hyper,
            opts,
            injector,
            Some(outcome.state),
            Some(store),
            Some(outcome.report),
        ))
    }

    fn launch_core(
        config: AscsConfig,
        hyper: Option<HyperParameters>,
        opts: ServeOptions,
        injector: Arc<dyn FaultInjector>,
        recovered: Option<RecoveredState>,
        store: Option<DurableStore>,
        recovery_report: Option<RecoveryReport>,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ASCS configuration: {e}"));
        assert!(
            opts.shards >= 1 && opts.shards <= MAX_SHARDS,
            "serving needs 1..={MAX_SHARDS} shards, got {}",
            opts.shards
        );
        assert!(opts.queue_capacity >= 1, "queue capacity must be positive");
        assert!(
            opts.checkpoint_interval >= 1,
            "checkpoint interval must be positive"
        );
        // Every worker boots by restoring a serialized checkpoint — the
        // prototype on a cold start, the recovered shard sketch on a
        // durable one — so the bootstrap path and the crash-recovery path
        // are one code path: a recovery bug cannot hide behind a
        // divergent cold start.
        let (t, stream_ctx, emitted_updates, boot, initial) = match recovered {
            Some(state) => {
                let boot: Vec<(Vec<u8>, u64)> = state
                    .shard_sketches
                    .iter()
                    .map(|sketch| {
                        let mut bytes = Vec::new();
                        sketch
                            .save(&mut bytes)
                            .expect("in-memory checkpoint write cannot fail");
                        (bytes, sketch.inserted_updates() + sketch.skipped_updates())
                    })
                    .collect();
                assert_eq!(boot.len(), opts.shards, "recovery shard count mismatch");
                let replies: Vec<(usize, AscsSketch)> =
                    state.shard_sketches.into_iter().enumerate().collect();
                let initial = snapshot_from(&config, state.epoch, &replies, None);
                (state.epoch, state.ctx, state.emitted_updates, boot, initial)
            }
            None => {
                let prototype = prototype_sketch(&config, hyper.as_ref());
                let mut checkpoint = Vec::new();
                prototype
                    .save(&mut checkpoint)
                    .expect("in-memory checkpoint write cannot fail");
                let initial = Snapshot {
                    epoch: 0,
                    merged: prototype.sketch().clone(),
                    top: Vec::new(),
                    inserted: 0,
                    skipped: 0,
                    num_pairs: config.num_pairs(),
                    indexer: PairIndexer::new(config.dim),
                    plan: None,
                };
                let ctx = StreamContext::new(config.dim, config.update_mode, config.estimand);
                (0, ctx, 0, vec![(checkpoint, 0); opts.shards], initial)
            }
        };
        let router_salt = splitmix64(config.seed ^ ROUTER_SALT);
        // Only the recipe is fixed here; the first worker to receive a
        // batch builds the plan, so launch latency does not grow with it.
        let recipe = Self::plan_eligible(&config).then(|| PlanRecipe {
            pairs: config.num_pairs() as usize,
            router_salt,
            shards: opts.shards,
        });
        let shared = Arc::new(ServeShared {
            published: Mutex::new(Arc::new(initial)),
            ingest_epoch: AtomicU64::new(t),
            recovering: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            torn_checkpoints: AtomicU64::new(0),
            failed_shards: AtomicU64::new(0),
            plan: PlanCell::new(recipe),
        });
        let (events_tx, events_rx) = mpsc::channel();
        let mut workers = Vec::with_capacity(opts.shards);
        let mut contexts = Vec::with_capacity(opts.shards);
        for (shard, (checkpoint, checkpoint_updates)) in boot.into_iter().enumerate() {
            let worker = Arc::new(WorkerShared {
                queue: ShardQueue::new(opts.queue_capacity),
                recovery: Mutex::new(RecoveryState {
                    checkpoint,
                    checkpoint_updates,
                    replay: Vec::new(),
                    applied_updates: 0,
                }),
                failed: AtomicBool::new(false),
                restarts: AtomicU64::new(0),
            });
            let ctx = WorkerContext {
                shard,
                shared: worker.clone(),
                stats: shared.clone(),
                injector: injector.clone(),
                checkpoint_interval: opts.checkpoint_interval,
            };
            spawn_worker(ctx.clone(), events_tx.clone(), false);
            workers.push(worker);
            contexts.push(ctx);
        }
        let supervisor = spawn_supervisor(contexts, events_tx, events_rx, opts.max_restarts);
        Self {
            ctx: stream_ctx,
            t,
            router_salt,
            shared,
            workers,
            supervisor: Some(supervisor),
            scratch: vec![Vec::new(); opts.shards],
            quarantined_samples: 0,
            overload_rejections: 0,
            ingest_timeouts: 0,
            emitted_updates,
            backoff_rng: splitmix64(config.seed ^ JITTER_SALT),
            shut_down: false,
            store,
            recovery_report,
            crash_simulated: false,
            config,
            opts,
        }
    }

    /// Offers one sample. On success the sample's pair updates are routed
    /// into the shard queues (one batch per shard, FIFO per shard) and the
    /// stream time advances; the returned count is the number of updates
    /// emitted.
    ///
    /// # Errors
    /// * [`IngestError::NonFinite`], [`IngestError::DimensionMismatch`],
    ///   [`IngestError::IndexOutOfRange`], [`IngestError::DuplicateIndex`]
    ///   — the sample failed [`Sample::screen`] against the configured
    ///   dimensionality and was quarantined; nothing else changed, and a
    ///   durable instance logged nothing.
    /// * [`IngestError::Overloaded`] — some shard queue is full; nothing
    ///   changed, retry later (or use
    ///   [`ServingEstimator::ingest_blocking`]). The check is
    ///   all-or-nothing *before* any push, so a rejected sample is never
    ///   partially enqueued.
    /// * [`IngestError::ShardFailed`] — a shard exhausted its restart
    ///   budget; this instance no longer accepts ingest.
    pub fn try_ingest(&mut self, sample: &Sample) -> Result<u64, IngestError> {
        if let Some(shard) = self
            .workers
            .iter()
            .position(|w| w.failed.load(Ordering::SeqCst))
        {
            return Err(IngestError::ShardFailed { shard });
        }
        if let Err(e) = sample.screen(self.config.dim) {
            self.quarantined_samples += 1;
            return Err(e);
        }
        // Conservative all-or-nothing backpressure: `&mut self` makes this
        // the only producer, and consumers only shrink the queues, so room
        // observed here still exists at push time below.
        for (shard, worker) in self.workers.iter().enumerate() {
            if !worker.queue.has_batch_room() {
                self.overload_rejections += 1;
                return Err(IngestError::Overloaded {
                    shard,
                    capacity: self.opts.queue_capacity,
                });
            }
        }
        let t = self.t + 1;
        if let Some(store) = self.store.as_mut() {
            // Write-ahead: the sample is logged before its updates reach
            // any queue, so a crash after this point replays it. A
            // persistence failure must not kill serving — the store
            // retried with backoff, then degraded (`durability_lost` in
            // the health report); in-memory ingestion continues.
            let _ = store.append_sample(t, sample);
        }
        for buf in &mut self.scratch {
            buf.clear();
        }
        let scratch = &mut self.scratch;
        let update = |u: PairUpdate| ShardUpdate {
            key: u.key,
            value: u.value,
            t,
        };
        // The slot router agrees with `shard_for` on every key, so the
        // switch to it once the plan is ready changes no shard's stream.
        let emitted = match self.shared.plan.ready() {
            Some(ready) => self.ctx.ingest(sample, |u| {
                scratch[usize::from(ready.router[u.key as usize])].push(update(u));
            }),
            None => {
                let (salt, shards) = (self.router_salt, self.workers.len());
                self.ctx.ingest(sample, |u| {
                    scratch[shard_for(u.key, salt, shards)].push(update(u));
                })
            }
        };
        self.t = t;
        self.shared.ingest_epoch.store(t, Ordering::SeqCst);
        for (worker, buf) in self.workers.iter().zip(self.scratch.iter_mut()) {
            if !buf.is_empty() {
                worker.queue.push(Envelope::Batch(std::mem::take(buf)));
            }
        }
        self.emitted_updates += emitted;
        if self.store.as_ref().is_some_and(|s| s.should_checkpoint(t)) {
            // Cadence-driven durable checkpoint; a failure is counted by
            // the store and retried at the next cadence boundary.
            let _ = self.persist_checkpoint();
        }
        Ok(emitted)
    }

    /// [`ServingEstimator::try_ingest`] that waits out
    /// [`IngestError::Overloaded`] with bounded exponential backoff — a
    /// few yields first (the common case: a worker is one batch away from
    /// draining), then jittered sleeps doubling from a 20 µs base up to a
    /// 2.5 ms cap ([`jittered_backoff`]) — instead of busy-spinning. The
    /// jitter stream is seeded per instance from the configured seed, so
    /// concurrent blocked ingesters with different seeds don't retry in
    /// lockstep while each sequence stays deterministic. Gives up after
    /// `timeout` with [`IngestError::Timeout`]; every retry still counts
    /// an overload rejection.
    ///
    /// # Errors
    /// Same as [`ServingEstimator::try_ingest`] with `Overloaded`
    /// replaced by [`IngestError::Timeout`].
    pub fn ingest_with_deadline(
        &mut self,
        sample: &Sample,
        timeout: Duration,
    ) -> Result<u64, IngestError> {
        const YIELDS: u32 = 16;
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.try_ingest(sample) {
                Err(IngestError::Overloaded { .. }) => {
                    let waited = started.elapsed();
                    if waited >= timeout {
                        self.ingest_timeouts += 1;
                        return Err(IngestError::Timeout { waited });
                    }
                    if attempt < YIELDS {
                        std::thread::yield_now();
                    } else {
                        let delay = jittered_backoff(attempt - YIELDS, &mut self.backoff_rng)
                            .min(timeout.saturating_sub(waited));
                        std::thread::sleep(delay);
                    }
                    attempt = attempt.saturating_add(1);
                }
                other => return other,
            }
        }
    }

    /// [`ServingEstimator::ingest_with_deadline`] at the configured
    /// [`ServeOptions::ingest_timeout`] — convenience for bulk loads.
    ///
    /// # Errors
    /// Same as [`ServingEstimator::ingest_with_deadline`].
    pub fn ingest_blocking(&mut self, sample: &Sample) -> Result<u64, IngestError> {
        self.ingest_with_deadline(sample, self.opts.ingest_timeout)
    }

    /// Builds and publishes a fresh snapshot at the current ingest epoch.
    ///
    /// A `Collect` envelope is enqueued behind every pending batch, so
    /// each worker replies with a clone of its sketch reflecting *exactly*
    /// the samples `1..=epoch` — the barrier rides the same FIFO as the
    /// data. Replies are merged in shard order (bit-identical to
    /// [`ShardedAscs::merged_sketch`](crate::sharded::ShardedAscs::merged_sketch))
    /// and swapped in atomically; readers
    /// keep the previous snapshot until then. Blocks until every worker
    /// replies — through a recovery if one is in progress (that wait *is*
    /// the recovery-to-fresh-snapshot time the bench reports).
    ///
    /// # Errors
    /// [`ServeError::ShardFailed`] if a shard has been abandoned,
    /// [`ServeError::SnapshotTimeout`] if the barrier exceeds 60 s.
    pub fn refresh_snapshot(&mut self) -> Result<Arc<Snapshot>, ServeError> {
        let epoch = self.t;
        let replies = self.collect_sketches()?;
        let plan = self.shared.plan.ready().map(|ready| ready.plan.clone());
        let snapshot = Arc::new(snapshot_from(&self.config, epoch, &replies, plan));
        *lock(&self.shared.published) = snapshot.clone();
        Ok(snapshot)
    }

    /// Runs the collect barrier: a `Collect` envelope behind every pending
    /// batch, replies gathered and sorted in shard order. Shared by
    /// snapshot publication and durable checkpointing — both need every
    /// shard's sketch at exactly the current ingest epoch.
    fn collect_sketches(&mut self) -> Result<Vec<(usize, AscsSketch)>, ServeError> {
        let (tx, rx) = mpsc::channel();
        for (shard, worker) in self.workers.iter().enumerate() {
            if worker.failed.load(Ordering::SeqCst) {
                return Err(ServeError::ShardFailed { shard });
            }
            worker.queue.push(Envelope::Collect { reply: tx.clone() });
        }
        drop(tx);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut replies: Vec<(usize, AscsSketch)> = Vec::with_capacity(self.workers.len());
        while replies.len() < self.workers.len() {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(reply) => replies.push(reply),
                Err(mpsc::RecvTimeoutError::Timeout)
                | Err(mpsc::RecvTimeoutError::Disconnected) => {
                    if let Some(shard) = self
                        .workers
                        .iter()
                        .position(|w| w.failed.load(Ordering::SeqCst))
                    {
                        return Err(ServeError::ShardFailed { shard });
                    }
                    if Instant::now() >= deadline {
                        return Err(ServeError::SnapshotTimeout);
                    }
                }
            }
        }
        replies.sort_by_key(|&(shard, _)| shard);
        Ok(replies)
    }

    /// Writes a durable checkpoint generation at the current ingest epoch:
    /// collect barrier (so every shard sketch reflects exactly the samples
    /// `1..=epoch`), per-shard files through the atomic commit protocol,
    /// manifest last. On success the WAL tail the generation covers
    /// becomes collectable and a lost durability flag is cleared. Returns
    /// the epoch persisted.
    ///
    /// # Errors
    /// [`DurabilityError`] when the filesystem rejects the generation even
    /// after retries (the failure is also counted in the health report),
    /// or when the collect barrier fails ([`DurabilityError::Collect`]).
    ///
    /// # Panics
    /// Panics when this instance was not launched durable.
    pub fn persist_checkpoint(&mut self) -> Result<u64, DurabilityError> {
        assert!(
            self.store.is_some(),
            "persist_checkpoint requires a durable launch"
        );
        let epoch = self.t;
        let replies = self.collect_sketches().map_err(DurabilityError::Collect)?;
        let sketches: Vec<AscsSketch> = replies.into_iter().map(|(_, sketch)| sketch).collect();
        let store = self.store.as_mut().expect("checked above");
        store.persist_checkpoint(
            epoch,
            &self.ctx,
            &sketches,
            self.config.seed,
            self.emitted_updates,
        )?;
        Ok(epoch)
    }

    /// What recovery found when this instance was launched durable:
    /// `None` for in-memory launches.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery_report.as_ref()
    }

    /// Durability-side health: the degraded flag, last durable epoch and
    /// persistence counters ([`DurabilityHealth::disabled`] for in-memory
    /// launches).
    pub fn durability_health(&self) -> DurabilityHealth {
        self.store
            .as_ref()
            .map_or_else(DurabilityHealth::disabled, |s| s.health())
    }

    /// The full typed health report: per-shard restart counts, abandoned
    /// shards, quarantine and torn-checkpoint counters, and the
    /// durability flags.
    pub fn health(&self) -> ServingHealth {
        let shard_restarts: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.restarts.load(Ordering::SeqCst))
            .collect();
        let failed_shards: Vec<usize> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.failed.load(Ordering::SeqCst))
            .map(|(shard, _)| shard)
            .collect();
        let durability = self.durability_health();
        let recovering_workers = self.shared.recovering.load(Ordering::SeqCst);
        let degraded =
            recovering_workers > 0 || !failed_shards.is_empty() || durability.durability_lost;
        ServingHealth {
            shards: self.workers.len(),
            shard_restarts,
            failed_shards,
            worker_panics: self.shared.panics.load(Ordering::SeqCst),
            torn_checkpoints: self.shared.torn_checkpoints.load(Ordering::SeqCst),
            quarantined_samples: self.quarantined_samples,
            overload_rejections: self.overload_rejections,
            ingest_timeouts: self.ingest_timeouts,
            recovering_workers,
            degraded,
            ingest_epoch: self.t,
            published_epoch: lock(&self.shared.published).epoch,
            durability,
        }
    }

    /// Tears the instance down *as if the process had been killed*: no
    /// final WAL sync, no final checkpoint — the disk keeps exactly what
    /// the durability policy had made durable mid-stream. The worker
    /// threads still join (they hold no durable state), so the call is
    /// safe to follow with an immediate [`ServingEstimator::launch_durable`]
    /// over the same directory; the in-process recovery assertions in
    /// `serve_bench` and the tests are built on this.
    pub fn simulate_crash(mut self) {
        self.crash_simulated = true;
        self.shutdown_inner();
    }

    /// A cloneable reader handle over the published snapshots.
    pub fn snapshot_reader(&self) -> SnapshotReader {
        SnapshotReader {
            shared: self.shared.clone(),
        }
    }

    /// Samples accepted so far (the current ingest epoch).
    pub fn processed_samples(&self) -> u64 {
        self.t
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The configuration this instance serves.
    pub fn config(&self) -> &AscsConfig {
        &self.config
    }

    /// The options this instance was launched with.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// A copy of every serving counter.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            ingested_samples: self.t,
            emitted_updates: self.emitted_updates,
            quarantined_samples: self.quarantined_samples,
            overload_rejections: self.overload_rejections,
            ingest_timeouts: self.ingest_timeouts,
            worker_panics: self.shared.panics.load(Ordering::SeqCst),
            worker_restarts: self.shared.restarts.load(Ordering::SeqCst),
            torn_checkpoints: self.shared.torn_checkpoints.load(Ordering::SeqCst),
            recovering_workers: self.shared.recovering.load(Ordering::SeqCst),
            failed_shards: self.shared.failed_shards.load(Ordering::SeqCst),
            published_epoch: lock(&self.shared.published).epoch,
        }
    }

    /// Stops every worker, joins the supervision tree and returns the
    /// final counters. Dropping the instance performs the same shutdown
    /// implicitly.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        if !self.crash_simulated {
            if let Some(store) = self.store.as_mut() {
                // Make the WAL tail durable on a clean shutdown so a
                // relaunch resumes at exactly the last accepted sample,
                // whatever the fsync policy deferred.
                let _ = store.sync_wal();
            }
        }
        for worker in &self.workers {
            // A failed shard has no consumer; the envelope is harmless.
            worker.queue.push(Envelope::Shutdown);
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// Merges worker replies exactly like
/// [`ShardedAscs`](crate::sharded::ShardedAscs): tables fold in
/// shard order, and the top list is the shard-ordered union of tracker
/// keys re-scored against the merged table. A free function so the
/// durable launch path can publish the recovered state before the
/// estimator exists.
fn snapshot_from(
    config: &AscsConfig,
    epoch: u64,
    replies: &[(usize, AscsSketch)],
    plan: Option<Arc<HashPlan>>,
) -> Snapshot {
    let mut merged = replies[0].1.sketch().clone();
    for (_, worker) in &replies[1..] {
        merged.merge(worker.sketch());
    }
    let absolute = replies[0].1.absolute_gate();
    let capacity = replies[0].1.top_k_capacity();
    let mut top: Vec<(u64, f64)> = Vec::new();
    for (_, worker) in replies {
        for (key, _) in worker.top_pairs() {
            let est = merged.estimate(key);
            top.push((key, if absolute { est.abs() } else { est }));
        }
    }
    top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(capacity);
    let inserted = replies.iter().map(|(_, w)| w.inserted_updates()).sum();
    let skipped = replies.iter().map(|(_, w)| w.skipped_updates()).sum();
    Snapshot {
        epoch,
        merged,
        top,
        inserted,
        skipped,
        num_pairs: config.num_pairs(),
        indexer: PairIndexer::new(config.dim),
        plan,
    }
}

impl Drop for ServingEstimator {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Time-aware reads over published [`Snapshot`]s, by count-sketch
/// linearity: a snapshot's merged table is the cumulative `1/T`-scaled
/// update sum at its epoch, so the table of any epoch interval is the
/// *difference* of two retained snapshots
/// ([`CountSketch::merge_scaled`] with factor `−1`) — no worker
/// cooperation, no second ingest path.
///
/// The ring retains the last `segments` snapshots observed at epochs
/// divisible by `segment_len` (the block boundaries of the equivalent
/// [`crate::timeaware::WindowedSketch`] ring) plus the newest snapshot.
/// Feed it every snapshot the serving loop publishes (boundary-epoch
/// snapshots matter; the rest just advance the head):
///
/// * [`WindowedSnapshotRing::windowed_view`] — the sliding-window table
///   `cum(e) − cum(window start − 1)` with the exact mean normaliser.
/// * [`WindowedSnapshotRing::decayed_view`] — a block-granular EWMA: each
///   retained inter-boundary segment folds in with weight
///   `γ^(epoch − segment end)`, normalised by the matching block weights.
pub struct WindowedSnapshotRing {
    segment_len: u64,
    segments: usize,
    total_samples: u64,
    boundaries: VecDeque<Arc<Snapshot>>,
    current: Option<Arc<Snapshot>>,
}

impl WindowedSnapshotRing {
    /// A ring with window geometry `segments × segment_len` over a stream
    /// of `total_samples` (the `T` the serving sketches scale updates by).
    ///
    /// # Panics
    /// Panics if `segment_len`, `segments` or `total_samples` is zero.
    pub fn new(segment_len: u64, segments: usize, total_samples: u64) -> Self {
        assert!(segment_len >= 1, "window segments must cover ≥ 1 sample");
        assert!(segments >= 1, "window ring needs ≥ 1 segment");
        assert!(total_samples >= 1, "stream length must be ≥ 1");
        Self {
            segment_len,
            segments,
            total_samples,
            boundaries: VecDeque::new(),
            current: None,
        }
    }

    /// Samples per window segment (`L`).
    pub fn segment_len(&self) -> u64 {
        self.segment_len
    }

    /// Window segments retained (`S`).
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Epoch of the newest observed snapshot (0 before any).
    pub fn epoch(&self) -> u64 {
        self.current.as_ref().map_or(0, |s| s.epoch)
    }

    /// Boundary snapshots currently retained.
    pub fn retained_boundaries(&self) -> usize {
        self.boundaries.len()
    }

    /// Offers a published snapshot to the ring. Snapshots at or behind the
    /// current head epoch are ignored (returns `false`); a snapshot on a
    /// block boundary is retained as a window base until it expires.
    pub fn observe(&mut self, snapshot: Arc<Snapshot>) -> bool {
        if self
            .current
            .as_ref()
            .is_some_and(|c| snapshot.epoch <= c.epoch)
        {
            return false;
        }
        if snapshot.epoch.is_multiple_of(self.segment_len) {
            self.boundaries.push_back(snapshot.clone());
            // The window base at a boundary epoch `b·L` is `(b−S)·L` — the
            // (S+1)-th most recent boundary — so keep S+1 of them.
            while self.boundaries.len() > self.segments + 1 {
                self.boundaries.pop_front();
            }
        }
        self.current = Some(snapshot);
        true
    }

    /// The retained boundary the window differences against: the oldest
    /// one at or after the ideal window base `start − 1` (`None` when the
    /// window still covers the whole prefix, or when every usable
    /// boundary was skipped by the publisher — both fall back to the
    /// cumulative table).
    fn base_boundary(&self, epoch: u64) -> Option<&Arc<Snapshot>> {
        let (start, _) = window_span(epoch, self.segment_len, self.segments);
        if start <= 1 {
            return None;
        }
        self.boundaries
            .iter()
            .find(|b| b.epoch >= start - 1 && b.epoch < epoch)
    }

    /// Materialises the sliding-window read at the newest observed epoch:
    /// the head table minus the base-boundary table. `None` before any
    /// snapshot. The view names the exact epoch interval it covers —
    /// `(base, epoch]` — so a publisher that skipped a boundary yields a
    /// shorter (never wrong) window.
    pub fn windowed_view(&self) -> Option<TimeAwareSnapshotView> {
        let current = self.current.as_ref()?;
        let (sketch, base_epoch) = match self.base_boundary(current.epoch) {
            Some(base) => {
                let mut diff = current.merged.clone();
                diff.merge_scaled(&base.merged, -1.0);
                (diff, base.epoch)
            }
            None => (current.merged.clone(), 0),
        };
        // Bit-cleanliness: the diff of two identical prefixes can leave
        // `-0.0` in untouched buckets; normalise is not needed — count
        // sketch reads treat -0.0 and 0.0 identically through sums.
        let span = current.epoch - base_epoch;
        let weight = span as f64 / self.total_samples as f64;
        Some(TimeAwareSnapshotView {
            sketch,
            epoch: current.epoch,
            base_epoch,
            weight,
            total_samples: self.total_samples,
            indexer: current.indexer,
        })
    }

    /// Materialises a block-granular exponentially decayed read at the
    /// newest observed epoch: every retained inter-boundary segment folds
    /// in with weight `γ^(epoch − segment end)` (the prefix before the
    /// oldest retained boundary counts as one segment). `None` before any
    /// snapshot.
    ///
    /// # Panics
    /// Panics unless `gamma` is finite and strictly inside `(0, 1)`.
    pub fn decayed_view(&self, gamma: f64) -> Option<TimeAwareSnapshotView> {
        assert!(
            gamma.is_finite() && gamma > 0.0 && gamma < 1.0,
            "decay factor must be in (0, 1), got {gamma}"
        );
        let current = self.current.as_ref()?;
        let epoch = current.epoch;
        let pow = |exp: u64| {
            if exp > i32::MAX as u64 {
                0.0
            } else {
                gamma.powi(exp as i32)
            }
        };
        // The retained timeline, oldest first, ending at the head.
        let mut timeline: Vec<&Arc<Snapshot>> =
            self.boundaries.iter().filter(|b| b.epoch < epoch).collect();
        timeline.push(current);
        let mut sketch = CountSketch::new(
            current.merged.rows(),
            current.merged.range(),
            current.merged.seed(),
        );
        let mut weight = 0.0f64;
        // Head segment: the whole prefix up to the oldest retained point.
        let first = timeline[0];
        if first.epoch > 0 {
            let w = pow(epoch - first.epoch);
            sketch.merge_scaled(&first.merged, w);
            weight += w * first.epoch as f64;
        }
        // Inter-boundary segments: cum(end) − cum(start), weighted by the
        // segment-end decay.
        for pair in timeline.windows(2) {
            let (seg_start, seg_end) = (pair[0], pair[1]);
            let w = pow(epoch - seg_end.epoch);
            sketch.merge_scaled(&seg_end.merged, w);
            sketch.merge_scaled(&seg_start.merged, -w);
            weight += w * (seg_end.epoch - seg_start.epoch) as f64;
        }
        Some(TimeAwareSnapshotView {
            sketch,
            epoch,
            base_epoch: 0,
            weight: weight / self.total_samples as f64,
            total_samples: self.total_samples,
            indexer: current.indexer,
        })
    }
}

/// An immutable time-aware read materialised by [`WindowedSnapshotRing`]:
/// a derived count-sketch table (window difference or decayed fold) plus
/// the normaliser that turns its `1/T`-scaled sums into mean estimates.
pub struct TimeAwareSnapshotView {
    sketch: CountSketch,
    epoch: u64,
    base_epoch: u64,
    /// Total update weight the table carries, in `1/T`-scaled units: the
    /// windowed span `/ T`, or the block-EWMA weight sum `/ T`.
    weight: f64,
    total_samples: u64,
    indexer: PairIndexer,
}

impl TimeAwareSnapshotView {
    /// Stream epoch of the head snapshot this view was cut at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the subtracted base snapshot (0 when the view covers the
    /// whole prefix — windowed warm-up, or any decayed view).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Samples between the base and head epochs.
    pub fn span(&self) -> u64 {
        self.epoch - self.base_epoch
    }

    /// The stream length `T` the serving sketches scale by.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// The derived table (read-only; the consistency tests compare it bit
    /// for bit against a directly maintained time-aware sketch).
    pub fn sketch(&self) -> &CountSketch {
        &self.sketch
    }

    /// Mean estimate for a linear pair key: the raw `1/T`-scaled read
    /// divided by the view's weight.
    pub fn estimate(&self, key: u64) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            self.sketch.estimate(key) / self.weight
        }
    }

    /// Mean estimate for the feature pair `(a, b)`.
    pub fn estimate_pair(&self, a: u64, b: u64) -> f64 {
        self.estimate(self.indexer.index(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EstimandKind, SketchGeometry};

    /// Covariance, so every sample emits updates from the first one on.
    fn config(dim: u64, rows: usize, range: usize) -> AscsConfig {
        AscsConfig {
            estimand: EstimandKind::Covariance,
            ..AscsConfig::recommended(dim, 256, SketchGeometry::new(rows, range))
        }
    }

    /// The size rule `p·(4K + 4) ≤ K·R·8` at its boundary, and on the
    /// geometries the tests and the benchmark serve.
    #[test]
    fn plan_size_rule_holds_at_its_boundary() {
        // d = 5 is 10 pairs: 240 B of plan against 240 B of table at 5×6.
        assert!(ServingEstimator::plan_eligible(&config(5, 5, 6)));
        assert!(!ServingEstimator::plan_eligible(&config(5, 5, 5)));
        assert!(!ServingEstimator::plan_eligible(&config(6, 5, 6)));
        // 5×512: 853 pairs fit in the 20 KiB table, so d = 41 (820 pairs)
        // is the largest eligible dimension.
        assert!(ServingEstimator::plan_eligible(&config(16, 5, 512)));
        assert!(ServingEstimator::plan_eligible(&config(41, 5, 512)));
        assert!(!ServingEstimator::plan_eligible(&config(42, 5, 512)));
        assert!(!ServingEstimator::plan_eligible(&config(64, 5, 512)));
        // The dense and the sparse benchmark geometries.
        assert!(ServingEstimator::plan_eligible(&config(128, 5, 32768)));
        assert!(!ServingEstimator::plan_eligible(&config(100_000, 5, 65536)));
        // Rows beyond the planned kernel's cap never plan.
        assert!(!ServingEstimator::plan_eligible(&config(
            5,
            MAX_ROWS + 1,
            1 << 20
        )));
    }

    fn ingest_dense(serving: &mut ServingEstimator, samples: u64) {
        let dim = serving.config().dim;
        for t in 1..=samples {
            let values = (0..dim)
                .map(|f| ((t * 31 + f * 7) % 5) as f64 * 0.5 - 1.1)
                .collect();
            serving.try_ingest(&Sample::dense(values)).expect("ingest");
        }
    }

    /// Under the rule, the first batch builds one plan: the producer's
    /// router agrees with the hashed router on every key, every snapshot
    /// after it shares the same plan, and the sweep over it is
    /// bit-identical to per-key point queries.
    #[test]
    fn eligible_instances_share_one_plan_across_router_and_snapshots() {
        let cfg = config(16, 5, 512);
        let mut serving = ServingEstimator::launch_vanilla(cfg, ServeOptions::default());
        ingest_dense(&mut serving, 8);
        let first = serving.refresh_snapshot().expect("refresh");
        ingest_dense(&mut serving, 8);
        let second = serving.refresh_snapshot().expect("refresh");
        let ready = serving
            .shared
            .plan
            .ready()
            .expect("built by the first batch");
        let (Some(a), Some(b)) = (&first.plan, &second.plan) else {
            panic!("a snapshot published after the first batch holds no plan");
        };
        assert!(Arc::ptr_eq(a, &ready.plan) && Arc::ptr_eq(b, &ready.plan));
        let pairs = cfg.num_pairs();
        assert_eq!(ready.router.len() as u64, pairs);
        for key in 0..pairs {
            assert_eq!(
                usize::from(ready.router[key as usize]),
                shard_for(key, serving.router_salt, serving.shards())
            );
        }
        let swept: Vec<u64> = second.all_estimates().iter().map(|v| v.to_bits()).collect();
        let point: Vec<u64> = (0..pairs)
            .map(|key| second.estimate(key).to_bits())
            .collect();
        assert_eq!(swept, point);
        serving.shutdown();
    }

    /// Above the rule no plan is ever built and snapshots sweep with a
    /// transient one.
    #[test]
    fn ineligible_instances_never_build_a_plan() {
        let cfg = config(64, 5, 512);
        let mut serving = ServingEstimator::launch_vanilla(cfg, ServeOptions::default());
        ingest_dense(&mut serving, 4);
        let snap = serving.refresh_snapshot().expect("refresh");
        assert!(serving.shared.plan.ready().is_none());
        assert!(snap.plan.is_none());
        assert_eq!(snap.all_estimates().len() as u64, cfg.num_pairs());
        serving.shutdown();
    }
}
