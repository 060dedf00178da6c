//! Scenario testkit: adversarial workload generators plus the empirical
//! bound-conformance harness.
//!
//! The seed reproduction validated the Theorem 1/2 guarantees at exactly
//! one scale of one dense Gaussian simulation. This crate turns that single
//! smoke check into a standing correctness harness:
//!
//! * [`scenario`] — a family of seeded stress scenarios behind one
//!   [`Scenario`] trait: heavy-tailed Zipf feature weights, a covariance
//!   structure that flips mid-stream, bursty duplicated samples, sparse
//!   co-occurrence blocks, near-constant features, and an adversarial
//!   generator that searches the committed hash seeds for colliding pair
//!   keys ([`adversarial`]).
//! * [`harness`] — runs `R` seeded trials of a scenario against every
//!   count-sketch-family backend (vanilla CS, gated ASCS, the plan-driven
//!   path, sharded ingestion), scores each against the streaming exact
//!   oracle ([`ascs_eval::StreamingExact`]) at the scenario's checkpoints,
//!   and asserts the statistical acceptance gates of
//!   [`ascs_eval::gates`] — the empirical `(1 − δ)` error quantile must
//!   clear the Theorem 1/2 `ε` budget. Reports are serialisable per
//!   scenario, so CI and the `scenario_report` binary can emit
//!   machine-readable pass flags.
//! * [`fault`] — deterministic fault injection for the serving core: a
//!   scripted [`FaultPlan`] (panic-at-update-N, checkpoint truncation at
//!   byte K, queue-full and recovery holds, re-armable [`Trigger`] rules)
//!   plus the sequential [`ReplayOracle`] serving snapshots must match bit
//!   for bit.
//! * [`chaos`] — the deterministic chaos harness: a seeded
//!   [`ChaosSchedule`] composes every fault dimension (worker panics, torn
//!   checkpoints, filesystem faults, overload windows, byte corruption,
//!   kill/cold-restart cycles including crash-during-recovery) against
//!   live serving traffic with concurrent snapshot readers, while a
//!   standing invariant oracle checks bit-identity, epoch monotonicity,
//!   durability floors and counter coherence after every event.
//! * [`shrink`](mod@shrink) — greedy minimisation of a violating chaos schedule down
//!   to a minimal reproducing fault set.
//! * [`reference`](mod@reference) — [`NaiveOracle`], the estimate → gate → update →
//!   estimate reference every fused ingestion path is checked against bit
//!   for bit.
//!
//! Everything is deterministic from committed seeds: the tier-1 quick
//! profile (`tests/bound_conformance.rs`) must pass bit-for-bit on every
//! machine, and every future performance PR must keep it green.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod chaos;
pub mod fault;
pub mod harness;
pub mod reference;
pub mod scenario;
pub mod shrink;

pub use adversarial::{find_row_colliders, AdversarialCollisionScenario, AttackerPlan};
pub use chaos::{
    chaos_sample, chaos_values, run_schedule, ChaosFault, ChaosOptions, ChaosReport, ChaosSchedule,
    CorruptByte, KillPlan, LifePlan, Violation, CHAOS_SITES,
};
pub use fault::{FaultFs, FaultPlan, ReplayOracle, Trigger};
pub use harness::{
    run_scenario, run_suite, BackendReport, BackendVariant, CheckpointReport, ConformanceConfig,
    ScenarioReport, SuiteReport,
};
pub use reference::NaiveOracle;
pub use scenario::{deep_suite, mix_seed, quick_suite, Scenario, ScenarioProfile, ScenarioStream};
pub use shrink::shrink;
