//! Active Sampling Count Sketch (ASCS) — the primary contribution of
//! Dai, Desai, Heckel & Shrivastava, SIGMOD 2021.
//!
//! ASCS estimates the large entries of a sparse covariance (or correlation)
//! matrix from a single pass over i.i.d. samples, using memory sublinear in
//! the number of matrix entries. It wraps a [count sketch][ascs_count_sketch]
//! with an *active sampling* rule: after an exploration period every update
//! is inserted; afterwards an update for pair `i` is inserted only when the
//! pair's current sketch estimate exceeds a rising threshold `τ(t)`. This
//! keeps most noise pairs out of the sketch and therefore raises the
//! signal-to-noise ratio of what the sketch ingests (Theorem 3 of the
//! paper).
//!
//! The crate is organised as follows:
//!
//! * [`pair`] — mapping between feature pairs `(a, b)` and the linear item
//!   universe `{0, …, p-1}` used by the sketches;
//! * [`stream`] — turning incoming samples `Y(t) ∈ R^d` into per-pair
//!   covariance/correlation updates (eq. (2) of the paper, with both the
//!   product approximation and the exact centred form);
//! * [`schedule`] — threshold schedules `τ(t)` (linear as in the paper,
//!   plus constant and step ablations);
//! * [`theory`] — closed-form probability bounds of Theorems 1–3;
//! * [`hyper`] — Algorithm 3: choosing the exploration length `T0` and the
//!   threshold slope `θ` from the bounds;
//! * [`ascs`] — the sketch itself (Algorithm 2), with a fused hash-once
//!   ingestion hot path and a plan-driven (hash-free) path replaying a
//!   precomputed `HashPlan` arena;
//! * [`sharded`] — key-partitioned parallel ingestion across `std::thread`
//!   workers, merged via the count sketch's linearity, with precomputed
//!   slot → shard routing for planned batches;
//! * [`estimator`] — a high-level one-pass covariance estimator that can be
//!   backed by ASCS, vanilla CS, ASketch or Cold Filter (used by every
//!   experiment), with `with_ingestion_plan()` for amortised hashing and
//!   cache-blocked whole-universe query sweeps;
//! * [`snr`] — instrumentation measuring the empirical SNR of the ingested
//!   stream (Figure 5);
//! * [`serve`] — the fault-tolerant serving core: shard workers on
//!   dedicated threads with bounded-queue backpressure, epoch-stamped
//!   merged snapshots for torn-read-free queries, non-finite input
//!   quarantine, and checkpoint-backed crash recovery: a worker that
//!   panics restarts itself in place, within a per-shard budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascs;
pub mod config;
pub mod durability;
pub mod estimator;
pub mod hyper;
pub mod pair;
pub mod schedule;
pub mod serve;
pub mod sharded;
pub mod snr;
pub mod stream;
mod supervisor;
pub mod theory;
pub mod timeaware;

pub use ascs::{AscsPhase, AscsSketch, OfferOutcome, SampleGate};
pub use ascs_count_sketch::codec;
pub use ascs_count_sketch::CodecError;
pub use config::{AscsConfig, EstimandKind, SketchGeometry, UpdateMode};
pub use durability::{
    recover_with_reentry, DurabilityError, DurabilityHealth, DurabilityOptions, FsyncPolicy,
    RecoveredState, RecoveryManager, RecoveryOutcome, RecoveryReport,
};
pub use estimator::{CovarianceEstimator, PlanError, ReportedPair, SketchBackend};
pub use hyper::{HyperParameterSolver, HyperParameters, SigmaEstimator, SignalModel};
pub use pair::{num_pairs, pair_from_index, pair_to_index, PairIndexer};
pub use schedule::ThresholdSchedule;
pub use serve::{
    jittered_backoff, FaultInjector, IngestError, NoFaults, ServeError, ServeOptions, ServeStats,
    ServingEstimator, ServingHealth, Snapshot, SnapshotReader, SnapshotView, TimeAwareSnapshotView,
    WindowedSnapshotRing,
};
pub use sharded::{ShardUpdate, ShardedAscs, MAX_SHARDS};
pub use snr::SnrProbe;
pub use stream::{PairUpdate, Sample, StreamContext};
pub use theory::TheoryBounds;
pub use timeaware::{
    effective_sample_size, window_span, DecayedSketch, RetiredSegment, WindowedSketch,
    MAX_WINDOW_SEGMENTS,
};
