//! The deterministic chaos harness: seeded randomized fault schedules
//! composed across *every* fault dimension the repo knows, interleaved
//! against live serving traffic, with a standing invariant oracle.
//!
//! A [`ChaosSchedule`] is a pure function of its seed: a sequence of
//! process *lives*, each carrying scripted faults (worker panics, torn
//! checkpoints, overload windows, torn/short WAL writes, failed file and
//! directory fsyncs, ENOSPC, poisoned samples) and optionally ending in a
//! kill — a [`ServingEstimator::simulate_crash`] teardown, optionally
//! followed by on-disk byte corruption and/or a scripted filesystem crash
//! *during* the next life's recovery (exercising the bounded re-entry
//! budget of [`recover_with_reentry`]).
//!
//! [`run_schedule`] executes a schedule against a real durable serving
//! instance with concurrent [`SnapshotReader`] threads and checks the
//! standing invariants after every chaos event and at teardown:
//!
//! * snapshot epochs are monotone and never torn (reader-side);
//! * served estimates are bit-identical to the sequential [`ReplayOracle`]
//!   at their epoch — tables, gate counters and top lists;
//! * recovered state reaches at least the last durably-acknowledged epoch
//!   (unless that cycle corrupted disk bytes on purpose) and is
//!   bit-identical to the per-epoch truth;
//! * health counters are mutually coherent
//!   ([`ServingHealth::coherence_violations`]) and every harness-visible
//!   counter (panics fired, torn checkpoints, timeouts, quarantines,
//!   ingested samples, emitted updates) matches its script-side
//!   expectation exactly at every snapshot barrier;
//! * no ingest is silently dropped.
//!
//! Violations surface as a typed [`Violation`] carrying the chaos seed,
//! so every failure message names the seed that reproduces it. The
//! [`crate::shrink`](mod@crate::shrink) module minimises a violating schedule greedily.
//!
//! [`ServingEstimator::simulate_crash`]: ascs_core::serve::ServingEstimator::simulate_crash
//! [`recover_with_reentry`]: ascs_core::recover_with_reentry
//! [`SnapshotReader`]: ascs_core::serve::SnapshotReader
//! [`ServingHealth::coherence_violations`]: ascs_core::serve::ServingHealth::coherence_violations
//! [`ReplayOracle`]: crate::ReplayOracle

use crate::fault::{FaultFs, FaultPlan, PLAN_FAULT_SITES};
use crate::ReplayOracle;
use ascs_core::config::{AscsConfig, EstimandKind, SketchGeometry, UpdateMode};
use ascs_core::serve::{IngestError, ServeOptions, ServingEstimator, SnapshotReader};
use ascs_core::{
    recover_with_reentry, DurabilityOptions, HyperParameters, RecoveredState, RecoveryManager,
    Sample, StreamContext,
};
use ascs_sketch_hash::codec::{DurableFs, FaultSiteRegistry, FS_FAULT_SITES};
use ascs_sketch_hash::splitmix64;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Site recorded each time an overload window saturates the queues.
pub const SITE_CHAOS_OVERLOAD: &str = "chaos.overload_window";
/// Site recorded each time a poisoned (non-finite) sample is offered.
pub const SITE_CHAOS_POISON: &str = "chaos.poison_sample";
/// Site recorded each time a kill/cold-restart cycle runs.
pub const SITE_CHAOS_KILL: &str = "chaos.kill_cycle";
/// Site recorded each time an on-disk byte is corrupted between lives.
pub const SITE_CHAOS_CORRUPT: &str = "chaos.corrupt_byte";

/// Runner-level chaos sites (the filesystem and plan sites live next to
/// their injectors: [`FS_FAULT_SITES`], [`PLAN_FAULT_SITES`]).
const RUNNER_SITES: &[&str] = &[
    SITE_CHAOS_OVERLOAD,
    SITE_CHAOS_POISON,
    SITE_CHAOS_KILL,
    SITE_CHAOS_CORRUPT,
];

/// Every fault site a chaos run can fire, across all three layers. The
/// bench's coverage gate requires each of these to have fired at least
/// once over a smoke/soak sweep.
pub const CHAOS_SITES: &[&str] = &[
    "fs.torn_write",
    "fs.short_write",
    "fs.fail_sync",
    "fs.fail_dir_sync",
    "fs.enospc",
    "fs.crash_at_op",
    "plan.worker_panic",
    "plan.torn_checkpoint",
    SITE_CHAOS_OVERLOAD,
    SITE_CHAOS_POISON,
    SITE_CHAOS_KILL,
    SITE_CHAOS_CORRUPT,
];

/// Tunables of a chaos run. The defaults keep one schedule in the tens of
/// milliseconds so a 64-seed smoke sweep fits in CI.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Feature dimensionality of the stream.
    pub dim: u64,
    /// Samples in the full stream (the final life ends here).
    pub total_samples: u64,
    /// Shard workers per serving instance.
    pub shards: usize,
    /// Batches per shard queue — small, so overload windows saturate fast.
    pub queue_capacity: usize,
    /// Batches between in-memory worker checkpoints.
    pub checkpoint_interval: usize,
    /// Samples between durable checkpoint generations.
    pub checkpoint_every: u64,
    /// Ceiling on scripted faults per life.
    pub max_faults_per_life: usize,
    /// Ceiling on process lives per schedule.
    pub max_lives: usize,
    /// Concurrent snapshot-reader threads per life.
    pub reader_threads: usize,
    /// Re-entry budget for crash-during-recovery cycles.
    pub recovery_budget: u32,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            dim: 10,
            total_samples: 96,
            shards: 2,
            queue_capacity: 4,
            checkpoint_interval: 8,
            checkpoint_every: 16,
            max_faults_per_life: 4,
            max_lives: 3,
            reader_threads: 2,
            recovery_budget: 3,
        }
    }
}

impl ChaosOptions {
    /// The ASCS configuration every chaos instance (and its oracle) uses.
    pub fn config(&self, seed: u64) -> AscsConfig {
        AscsConfig {
            dim: self.dim,
            total_samples: self.total_samples,
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

    /// Gated hyperparameters matching [`ChaosOptions::config`].
    pub fn hyper(&self) -> HyperParameters {
        HyperParameters {
            t0: (self.total_samples / 4).max(1),
            theta: 0.2,
            tau0: 1e-4,
            delta: 0.05,
            delta_star: 0.20,
        }
    }

    fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            checkpoint_interval: self.checkpoint_interval,
            max_restarts: 8,
            ingest_timeout: Duration::from_secs(30),
        }
    }

    fn durability(&self, dir: &Path) -> DurabilityOptions {
        DurabilityOptions {
            checkpoint_every: self.checkpoint_every,
            wal_segment_records: 16,
            ..DurabilityOptions::new(dir)
        }
    }
}

/// One scripted fault inside a life. Sample-indexed faults fire when the
/// driver reaches that stream time; index-based filesystem faults are
/// armed relative to the live filesystem counters at the start of the
/// life, so they stay meaningful after shrinking removes earlier faults.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Panic `shard`'s worker while it applies sample `at_sample`
    /// (`offset` selects the update within the sample).
    WorkerPanic {
        /// Target shard.
        shard: usize,
        /// Stream time whose batch hosts the panic.
        at_sample: u64,
        /// Raw offset; reduced modulo the shard's per-sample update count.
        offset: u64,
    },
    /// Truncate `shard`'s next in-memory checkpoint to `keep` bytes
    /// (validation must reject it and keep the previous good one).
    TornCheckpoint {
        /// Target shard.
        shard: usize,
        /// Bytes kept — far below any valid checkpoint.
        keep: usize,
    },
    /// Hold the workers at stream time `at_sample` until the queues
    /// saturate, demand `timeouts` deadline-bounded ingests all time out,
    /// then release and drain.
    OverloadWindow {
        /// Stream time to open the window at.
        at_sample: u64,
        /// `ingest_with_deadline` calls that must observe `Timeout`.
        timeouts: u32,
    },
    /// Tear the `write`-th write from now (a prefix lands, then an error).
    TornWalWrite {
        /// Write index relative to the life's start.
        write: u64,
        /// Bytes that land before the error.
        keep: usize,
    },
    /// Short-accept the `write`-th write from now (caller must loop).
    ShortWalWrite {
        /// Write index relative to the life's start.
        write: u64,
        /// Bytes accepted (at least 1).
        keep: usize,
    },
    /// Fail the `sync`-th file fsync from now.
    FailWalSync {
        /// File-fsync index relative to the life's start.
        sync: u64,
    },
    /// Fail the `index`-th directory fsync from now.
    FailDirSync {
        /// Directory-fsync index relative to the life's start.
        index: u64,
    },
    /// Exhaust the write budget: every write past `budget` further bytes
    /// fails with `StorageFull`, durably degrading the store.
    Enospc {
        /// Remaining byte budget.
        budget: u64,
    },
    /// Offer a NaN-poisoned sample at stream time `at_sample`; it must be
    /// quarantined without advancing the stream.
    PoisonSample {
        /// Stream time of the poisoned offer.
        at_sample: u64,
    },
    /// Sabotage (never generated): silently skip serving ingestion of
    /// sample `at_sample` while the oracle still counts it. The invariant
    /// oracle must catch the divergence — the shrinker test plants this.
    SilentDrop {
        /// Stream time of the dropped sample.
        at_sample: u64,
    },
}

/// A byte flip applied to one on-disk file between lives. File and offset
/// are picked by reducing the salts against the directory listing, so the
/// corruption stays valid after shrinking changes what is on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptByte {
    /// Selects the file (modulo the sorted directory listing).
    pub file_salt: u64,
    /// Selects the byte offset (modulo the file length).
    pub offset_salt: u64,
    /// XOR mask; forced odd so the byte always changes.
    pub xor: u8,
}

/// How a life ends when it does not run to the schedule's final sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Corrupt one durable byte after the kill, before the next recovery.
    pub corrupt: Option<CorruptByte>,
    /// Crash the filesystem at this operation index *during* the next
    /// life's recovery; the re-entry budget must absorb it.
    pub crash_recovery_at_op: Option<u64>,
}

/// One process life: ingest up to `end_sample` with `faults` armed, then
/// either die (`kill`) or carry the instance into the next life.
#[derive(Debug, Clone, PartialEq)]
pub struct LifePlan {
    /// Stream time this life runs to.
    pub end_sample: u64,
    /// Faults armed for this life.
    pub faults: Vec<ChaosFault>,
    /// `Some` → kill/cold-restart cycle after `end_sample`; `None` → the
    /// instance survives into the next life (or shuts down cleanly if
    /// this is the last).
    pub kill: Option<KillPlan>,
}

/// A full chaos schedule: a seed plus the per-life fault script derived
/// from it. [`ChaosSchedule::generate`] is a pure function of
/// `(seed, options)`, so a seed alone reproduces a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The generating seed (kept through shrinking for reproduction).
    pub seed: u64,
    /// The lives, in order; the last one ends at the stream total.
    pub lives: Vec<LifePlan>,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Non-sabotage fault kinds the generator draws from.
const FAULT_KINDS: u64 = 9;

impl ChaosSchedule {
    /// Generates the schedule for `seed`. Low seed residues force
    /// coverage: `seed % 9` picks the first fault kind of life 0, odd
    /// seeds (and every `seed % 4 != 0`) get at least one kill cycle, and
    /// `seed % 4` residues 1/2/3 add byte corruption, crash-during-
    /// recovery, or both to the first kill — so any 64 consecutive seeds
    /// exercise every fault site.
    pub fn generate(seed: u64, opts: &ChaosOptions) -> Self {
        let mut rng = Rng(splitmix64(seed ^ 0xC3A0_5C3A_05C3_A05C));
        let max_lives = opts.max_lives.max(1) as u64;
        let lives_n = if seed.is_multiple_of(4) || max_lives == 1 {
            1 + rng.below(max_lives)
        } else {
            2 + rng.below(max_lives - 1)
        } as usize;
        let total = opts.total_samples;
        let mut lives = Vec::with_capacity(lives_n);
        let mut start = 0u64;
        for life in 0..lives_n {
            let end = if life + 1 == lives_n {
                total
            } else {
                (total * (life as u64 + 1) / lives_n as u64).clamp(start + 1, total)
            };
            let span = end - start;
            let mut faults = Vec::new();
            let n_faults = 1 + rng.below(opts.max_faults_per_life.max(1) as u64) as usize;
            let mut panics_in_life = 0usize;
            for f in 0..n_faults {
                let mut kind = if life == 0 && f == 0 {
                    seed % FAULT_KINDS
                } else {
                    rng.below(FAULT_KINDS)
                };
                if kind == 0 && panics_in_life >= 2 {
                    // Keep panic counts far below the restart budget.
                    kind = 8;
                }
                let fault = match kind {
                    0 => {
                        panics_in_life += 1;
                        ChaosFault::WorkerPanic {
                            shard: rng.below(opts.shards as u64) as usize,
                            at_sample: start + 1 + rng.below(span),
                            offset: rng.next(),
                        }
                    }
                    1 => ChaosFault::TornCheckpoint {
                        shard: rng.below(opts.shards as u64) as usize,
                        keep: rng.below(12) as usize,
                    },
                    2 => {
                        let margin = opts.queue_capacity as u64 + 4;
                        let at_sample = if span > margin + 1 {
                            start + 1 + rng.below(span - margin)
                        } else {
                            start + 1
                        };
                        ChaosFault::OverloadWindow {
                            at_sample,
                            timeouts: 1 + rng.below(2) as u32,
                        }
                    }
                    3 => ChaosFault::TornWalWrite {
                        write: rng.below(8),
                        keep: rng.below(6) as usize,
                    },
                    4 => ChaosFault::ShortWalWrite {
                        write: rng.below(8),
                        keep: 1 + rng.below(3) as usize,
                    },
                    5 => ChaosFault::FailWalSync { sync: rng.below(8) },
                    6 => ChaosFault::FailDirSync {
                        index: rng.below(2),
                    },
                    7 => ChaosFault::Enospc {
                        budget: 256 + rng.below(2048),
                    },
                    _ => ChaosFault::PoisonSample {
                        at_sample: start + 1 + rng.below(span),
                    },
                };
                faults.push(fault);
            }
            let kill = if life + 1 == lives_n {
                None
            } else {
                let (corrupt, crash) = if life == 0 {
                    (seed % 4 == 1 || seed % 4 == 3, seed % 4 >= 2)
                } else {
                    (rng.below(4) == 0, rng.below(4) == 0)
                };
                Some(KillPlan {
                    corrupt: corrupt.then(|| CorruptByte {
                        file_salt: rng.next(),
                        offset_salt: rng.next(),
                        xor: (rng.next() & 0xFF) as u8,
                    }),
                    crash_recovery_at_op: crash.then(|| rng.below(3)),
                })
            };
            lives.push(LifePlan {
                end_sample: end,
                faults,
                kill,
            });
            start = end;
        }
        Self { seed, lives }
    }

    /// Scripted faults plus kill components — what the shrinker counts.
    pub fn fault_count(&self) -> usize {
        self.lives
            .iter()
            .map(|l| {
                l.faults.len()
                    + l.kill.map_or(0, |k| {
                        1 + usize::from(k.corrupt.is_some())
                            + usize::from(k.crash_recovery_at_op.is_some())
                    })
            })
            .sum()
    }

    /// A human-readable rendering — printed for minimal schedules.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("chaos schedule (seed {}):\n", self.seed);
        for (i, life) in self.lives.iter().enumerate() {
            let _ = writeln!(out, "  life {i} (through sample {}):", life.end_sample);
            for fault in &life.faults {
                let _ = writeln!(out, "    - {fault:?}");
            }
            match life.kill {
                Some(kill) => {
                    let _ = writeln!(out, "    = KILL {kill:?}");
                }
                None if i + 1 == self.lives.len() => {
                    let _ = writeln!(out, "    = clean shutdown + cold-start audit");
                }
                None => {
                    let _ = writeln!(out, "    = instance survives into next life");
                }
            }
        }
        out
    }
}

/// One invariant violation, carrying the chaos seed so every failure
/// message names its reproduction.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The schedule seed that produced the violation.
    pub seed: u64,
    /// Which standing invariant failed.
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[chaos seed {}] invariant violated: {}: {}",
            self.seed, self.invariant, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// What a clean chaos run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// The schedule seed.
    pub seed: u64,
    /// Process lives executed.
    pub lives: usize,
    /// Kill/cold-restart cycles executed.
    pub kills: u64,
    /// Invariant checks that passed.
    pub invariant_checks: u64,
    /// Stream time at teardown (always the schedule total).
    pub final_epoch: u64,
}

/// The deterministic chaos sample stream as raw values: dense, never
/// zero, alphabet `{±0.9, ±0.3}`, each value a pure function of
/// `(seed, t, feature)`.
pub fn chaos_values(seed: u64, t: u64, dim: u64) -> Vec<f64> {
    const ALPHABET: [f64; 4] = [-0.9, -0.3, 0.3, 0.9];
    (0..dim)
        .map(|f| {
            let h = splitmix64(seed ^ splitmix64(t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ f));
            ALPHABET[(h % 4) as usize]
        })
        .collect()
}

/// [`chaos_values`] wrapped as a dense [`Sample`].
pub fn chaos_sample(seed: u64, t: u64, dim: u64) -> Sample {
    Sample::dense(chaos_values(seed, t, dim))
}

/// Bit-pattern truth at one epoch of the sequential oracle pass.
struct EpochTruth {
    table: Vec<u64>,
    inserted: u64,
    skipped: u64,
    top: Vec<(u64, u64)>,
    emitted: u64,
}

fn truth_of(oracle: &ReplayOracle) -> EpochTruth {
    EpochTruth {
        table: oracle
            .merged_sketch()
            .table()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        inserted: oracle.update_counts().0,
        skipped: oracle.update_counts().1,
        top: oracle
            .top_pairs()
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect(),
        emitted: oracle.emitted_updates(),
    }
}

/// Concurrent snapshot readers: each polls [`SnapshotReader::current`],
/// requiring epochs monotone, never past the stream total, and estimates
/// finite — the reader-side half of the "never torn" invariant.
struct Readers {
    stop: Arc<AtomicBool>,
    violations: Arc<Mutex<Vec<String>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Readers {
    fn spawn(reader: &SnapshotReader, n: usize, total: u64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(Mutex::new(Vec::new()));
        let handles = (0..n)
            .map(|_| {
                let reader = reader.clone();
                let stop = stop.clone();
                let violations = violations.clone();
                std::thread::spawn(move || {
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let view = reader.current();
                        let epoch = view.snapshot.epoch();
                        if epoch < last_epoch {
                            violations
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(format!("epoch went backwards: {last_epoch} -> {epoch}"));
                            break;
                        }
                        if epoch > total {
                            violations
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(format!("epoch {epoch} past stream total {total}"));
                            break;
                        }
                        if !view.snapshot.estimate(0).is_finite() {
                            violations
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(format!("non-finite estimate at epoch {epoch}"));
                            break;
                        }
                        last_epoch = epoch;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                })
            })
            .collect();
        Self {
            stop,
            violations,
            handles,
        }
    }

    fn finish(self) -> Vec<String> {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            let _ = handle.join();
        }
        Arc::try_unwrap(self.violations)
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .unwrap_or_else(|arc| {
                arc.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone()
            })
    }
}

/// Script-side expectations about counters that must be *exact* at every
/// snapshot barrier; reset per process life (counters are per-instance).
#[derive(Default)]
struct Expected {
    timeouts: u64,
    quarantined: u64,
    min_overloads: u64,
}

/// Corrupts one durable byte: file picked from the sorted directory
/// listing by `file_salt`, offset by `offset_salt`, mask forced odd.
/// Returns a description, or `None` if the directory holds no bytes.
fn corrupt_one_byte(dir: &Path, plan: CorruptByte) -> std::io::Result<Option<String>> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file() && std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
        .collect();
    files.sort();
    if files.is_empty() {
        return Ok(None);
    }
    let path = &files[(plan.file_salt % files.len() as u64) as usize];
    let mut bytes = std::fs::read(path)?;
    let offset = (plan.offset_salt % bytes.len() as u64) as usize;
    bytes[offset] ^= plan.xor | 1;
    std::fs::write(path, &bytes)?;
    Ok(Some(format!(
        "flipped byte {offset} of {}",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    )))
}

/// Executes one schedule in `dir` (cleared up front), recording fault
/// firings into `registry` and checking the standing invariants after
/// every chaos event, at every barrier, and at teardown.
///
/// # Errors
/// The first [`Violation`] found, if any.
pub fn run_schedule(
    schedule: &ChaosSchedule,
    opts: &ChaosOptions,
    registry: &Arc<FaultSiteRegistry>,
    dir: &Path,
) -> Result<ChaosReport, Violation> {
    for site in FS_FAULT_SITES
        .iter()
        .chain(PLAN_FAULT_SITES)
        .chain(RUNNER_SITES)
    {
        registry.register(site);
    }
    let _ = std::fs::remove_dir_all(dir);
    Runner::new(schedule, opts, registry, dir).run()
}

const CHECK_EVERY: u64 = 16;

struct Runner<'a> {
    schedule: &'a ChaosSchedule,
    opts: &'a ChaosOptions,
    registry: &'a Arc<FaultSiteRegistry>,
    dir: &'a Path,
    cfg: AscsConfig,
    hyper: HyperParameters,
    /// Updates each shard receives per dense sample (constant — samples
    /// never carry zeros), the key to absolute panic indices.
    shard_k: Vec<u64>,
    truth: Vec<EpochTruth>,
    checks: u64,
    kills: u64,
}

/// The live half of a process life, torn down together.
struct Life {
    serving: ServingEstimator,
    plan: Arc<FaultPlan>,
    fs: Arc<FaultFs>,
    readers: Readers,
    expected: Expected,
}

impl<'a> Runner<'a> {
    fn new(
        schedule: &'a ChaosSchedule,
        opts: &'a ChaosOptions,
        registry: &'a Arc<FaultSiteRegistry>,
        dir: &'a Path,
    ) -> Self {
        let cfg = opts.config(schedule.seed);
        let hyper = opts.hyper();
        // Per-shard update counts from a one-sample probe: routing is a
        // pure function of the pair key, and dense samples emit every
        // pair, so the split is identical for every sample.
        let probe = ReplayOracle::new(&cfg, Some(&hyper), opts.shards);
        let mut ctx = StreamContext::new(cfg.dim, cfg.update_mode, cfg.estimand);
        let mut shard_k = vec![0u64; opts.shards];
        ctx.ingest(&chaos_sample(schedule.seed, 1, cfg.dim), |u| {
            shard_k[probe.shard_of(u.key)] += 1;
        });
        // Precompute the sequential truth at every epoch in one pass.
        let mut oracle = ReplayOracle::new(&cfg, Some(&hyper), opts.shards);
        let mut truth = Vec::with_capacity(opts.total_samples as usize + 1);
        truth.push(truth_of(&oracle));
        for t in 1..=opts.total_samples {
            oracle.ingest(&chaos_sample(schedule.seed, t, cfg.dim));
            truth.push(truth_of(&oracle));
        }
        Self {
            schedule,
            opts,
            registry,
            dir,
            cfg,
            hyper,
            shard_k,
            truth,
            checks: 0,
            kills: 0,
        }
    }

    /// Progress trace for debugging slow or wedged schedules: set
    /// `ASCS_CHAOS_TRACE=1` to log each runner step with a timestamp.
    fn trace(&self, what: &std::fmt::Arguments<'_>) {
        if std::env::var_os("ASCS_CHAOS_TRACE").is_some() {
            let millis = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0);
            eprintln!("[chaos seed {} @{millis}] {what}", self.schedule.seed);
        }
    }

    fn violation(&self, invariant: &'static str, detail: String) -> Violation {
        Violation {
            seed: self.schedule.seed,
            invariant,
            detail,
        }
    }

    fn sample(&self, t: u64) -> Sample {
        chaos_sample(self.schedule.seed, t, self.cfg.dim)
    }

    /// Launches a fresh instance over the directory with a fresh fault
    /// plan and filesystem, both wired to the shared registry.
    fn launch(&self) -> Result<Life, Violation> {
        let plan = Arc::new(FaultPlan::new().with_registry(self.registry.clone()));
        let fs = Arc::new(FaultFs::new().with_registry(self.registry.clone()));
        let serving = ServingEstimator::launch_durable_with_faults(
            self.cfg,
            Some(self.hyper),
            self.opts.serve_options(),
            self.opts.durability(self.dir),
            plan.clone(),
            fs.clone(),
        )
        .map_err(|e| self.violation("relaunch recovers", format!("launch failed: {e}")))?;
        let readers = Readers::spawn(
            &serving.snapshot_reader(),
            self.opts.reader_threads,
            self.opts.total_samples,
        );
        Ok(Life {
            serving,
            plan,
            fs,
            readers,
            expected: Expected::default(),
        })
    }

    /// Arms a life's index-based faults relative to the live counters.
    fn arm(&self, life: &Life, faults: &[ChaosFault]) {
        for fault in faults {
            match *fault {
                ChaosFault::WorkerPanic {
                    shard,
                    at_sample,
                    offset,
                } => {
                    let k = self.shard_k[shard].max(1);
                    life.plan.arm_panic(shard, (at_sample - 1) * k + offset % k);
                }
                ChaosFault::TornCheckpoint { shard, keep } => {
                    life.plan.arm_truncation(shard, keep);
                }
                ChaosFault::TornWalWrite { write, keep } => {
                    life.fs.arm_torn_write(life.fs.write_count() + write, keep);
                }
                ChaosFault::ShortWalWrite { write, keep } => {
                    life.fs
                        .arm_short_write(life.fs.write_count() + write, keep.max(1));
                }
                ChaosFault::FailWalSync { sync } => {
                    life.fs.arm_fail_sync(life.fs.sync_count() + sync);
                }
                ChaosFault::FailDirSync { index } => {
                    life.fs.arm_fail_dir_sync(life.fs.dir_sync_count() + index);
                }
                ChaosFault::Enospc { budget } => {
                    life.fs.arm_enospc(budget);
                }
                ChaosFault::OverloadWindow { .. }
                | ChaosFault::PoisonSample { .. }
                | ChaosFault::SilentDrop { .. } => {}
            }
        }
    }

    /// The standing oracle: snapshot barrier + bit-identity at the
    /// current epoch + counter coherence + exact script-side counters.
    fn check(&mut self, life: &mut Life, t: u64, what: &str) -> Result<(), Violation> {
        self.checks += 1;
        let snapshot = match life.serving.refresh_snapshot() {
            Ok(s) => s,
            Err(e) => {
                return Err(self.violation(
                    "snapshot barrier completes",
                    format!("{what}: refresh failed: {e}"),
                ))
            }
        };
        if snapshot.epoch() != t {
            return Err(self.violation(
                "no ingest silently dropped",
                format!(
                    "{what}: snapshot epoch {} != driven epoch {t}",
                    snapshot.epoch()
                ),
            ));
        }
        let truth = &self.truth[t as usize];
        let served: Vec<u64> = snapshot
            .sketch()
            .table()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        if served != truth.table {
            return Err(self.violation(
                "served estimates bit-identical to sequential oracle",
                format!("{what}: merged table diverged at epoch {t}"),
            ));
        }
        if snapshot.update_counts() != (truth.inserted, truth.skipped) {
            return Err(self.violation(
                "served estimates bit-identical to sequential oracle",
                format!(
                    "{what}: gate counters {:?} != {:?} at epoch {t}",
                    snapshot.update_counts(),
                    (truth.inserted, truth.skipped)
                ),
            ));
        }
        let top: Vec<(u64, u64)> = snapshot
            .top_pairs(usize::MAX)
            .into_iter()
            .map(|p| (p.key, p.estimate.to_bits()))
            .collect();
        if top != truth.top {
            return Err(self.violation(
                "served estimates bit-identical to sequential oracle",
                format!("{what}: top pairs diverged at epoch {t}"),
            ));
        }
        let health = life.serving.health();
        let incoherent = health.coherence_violations();
        if !incoherent.is_empty() {
            return Err(self.violation(
                "health counters coherent",
                format!("{what}: {incoherent:?}"),
            ));
        }
        let stats = life.serving.stats();
        let plan = &life.plan;
        let exact: [(&str, u64, u64); 6] = [
            ("ingested samples", stats.ingested_samples, t),
            ("emitted updates", stats.emitted_updates, truth.emitted),
            ("worker panics", stats.worker_panics, plan.panics_fired()),
            (
                "torn checkpoints",
                stats.torn_checkpoints,
                plan.truncations_fired(),
            ),
            (
                "ingest timeouts",
                stats.ingest_timeouts,
                life.expected.timeouts,
            ),
            (
                "quarantined samples",
                stats.quarantined_samples,
                life.expected.quarantined,
            ),
        ];
        for (name, got, want) in exact {
            if got != want {
                return Err(self.violation(
                    "health counters coherent",
                    format!("{what}: {name} {got} != expected {want} at epoch {t}"),
                ));
            }
        }
        if stats.overload_rejections < life.expected.min_overloads {
            return Err(self.violation(
                "health counters coherent",
                format!(
                    "{what}: overload rejections {} below floor {}",
                    stats.overload_rejections, life.expected.min_overloads
                ),
            ));
        }
        Ok(())
    }

    /// Saturate the queues under a batch hold, demand timeouts, release.
    /// Returns the stream time reached (the held sample is ingested last).
    ///
    /// The held window is first slid past any durable checkpoint boundary:
    /// an auto-checkpoint inside `try_ingest` runs a collect barrier, and
    /// a barrier against held workers can only time out. A safe window
    /// always exists because `checkpoint_every` exceeds the queue capacity
    /// plus slack.
    fn overload_window(
        &mut self,
        life: &mut Life,
        mut t: u64,
        end: u64,
        timeouts: u32,
    ) -> Result<u64, Violation> {
        let bound = 2 * (self.opts.queue_capacity + 2);
        let span = bound as u64;
        if t + span >= end {
            return Ok(t);
        }
        // Reset the checkpoint cadence before holding the workers: an
        // auto-checkpoint inside the window would run the collect barrier
        // against held workers and stall until the snapshot deadline. The
        // cadence follows the last checkpoint *attempt* (not aligned
        // multiples), so one manual checkpoint here — even a failing one
        // under armed fs faults — guarantees the next attempt is a full
        // interval away, farther than the window can reach.
        self.trace(&format_args!("pre-hold checkpoint at t={t}"));
        let _ = life.serving.persist_checkpoint();
        self.trace(&format_args!("overload hold at t={t}"));
        life.plan.set_hold_batches(true);
        // A worker blocked in `recv` still absorbs one batch on its way
        // into the hold, so the queue is only stably full once every
        // worker is parked there: keep refilling until `Overloaded` is
        // observed with all workers held.
        let mut saturated = false;
        for attempt in 0..100_000 {
            if attempt % 10_000 == 9_999 {
                self.trace(&format_args!(
                    "saturation attempt {attempt} t={t} held={}",
                    life.plan.workers_held()
                ));
            }
            if t + 1 > end {
                break;
            }
            match life.serving.try_ingest(&self.sample(t + 1)) {
                Ok(_) => t += 1,
                Err(IngestError::Overloaded { .. }) => {
                    life.expected.min_overloads += 1;
                    if life.plan.workers_held() >= self.opts.shards {
                        saturated = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                Err(e) => {
                    life.plan.set_hold_batches(false);
                    return Err(self.violation(
                        "overload window rejects cleanly",
                        format!("unexpected ingest error under hold: {e}"),
                    ));
                }
            }
        }
        if !saturated {
            life.plan.set_hold_batches(false);
            return Err(self.violation(
                "overload window rejects cleanly",
                format!("queues never stably saturated (last hold at t={t})"),
            ));
        }
        self.registry.record(SITE_CHAOS_OVERLOAD);
        self.trace(&format_args!("overload saturated at t={t}"));
        let pending = self.sample(t + 1);
        for _ in 0..timeouts {
            match life
                .serving
                .ingest_with_deadline(&pending, Duration::from_millis(2))
            {
                Err(IngestError::Timeout { .. }) => {
                    life.expected.timeouts += 1;
                    life.expected.min_overloads += 1;
                }
                other => {
                    life.plan.set_hold_batches(false);
                    return Err(self.violation(
                        "overload window rejects cleanly",
                        format!("deadline ingest under hold returned {other:?}, wanted Timeout"),
                    ));
                }
            }
        }
        life.plan.set_hold_batches(false);
        match life.serving.ingest_blocking(&pending) {
            Ok(_) => Ok(t + 1),
            Err(e) => Err(self.violation(
                "overload window rejects cleanly",
                format!("post-release ingest failed: {e}"),
            )),
        }
    }

    /// Checks a recovered (or cold-started) state against the truth.
    fn check_recovered(
        &mut self,
        state: &RecoveredState,
        floor: Option<u64>,
        what: &str,
    ) -> Result<(), Violation> {
        self.checks += 1;
        let epoch = state.epoch();
        if epoch > self.opts.total_samples {
            return Err(self.violation(
                "recovered epoch within stream",
                format!("{what}: recovered epoch {epoch} past total"),
            ));
        }
        if let Some(floor) = floor {
            if epoch < floor {
                return Err(self.violation(
                    "recovered state reaches the durable floor",
                    format!("{what}: recovered epoch {epoch} below durable floor {floor}"),
                ));
            }
        }
        let truth = &self.truth[epoch as usize];
        if state.emitted_updates() != truth.emitted {
            return Err(self.violation(
                "recovered state bit-identical to per-epoch truth",
                format!(
                    "{what}: emitted {} != {} at epoch {epoch}",
                    state.emitted_updates(),
                    truth.emitted
                ),
            ));
        }
        let recovered: Vec<u64> = state
            .merged_sketch()
            .table()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        if recovered != truth.table {
            return Err(self.violation(
                "recovered state bit-identical to per-epoch truth",
                format!("{what}: merged table diverged at epoch {epoch}"),
            ));
        }
        Ok(())
    }

    fn run(mut self) -> Result<ChaosReport, Violation> {
        let mut life_state: Option<Life> = None;
        // A corruption cycle may legitimately shorten the durable prefix
        // (the tail behind the flipped byte is discarded), so the floor
        // check is waived for exactly that recovery.
        let mut floor: Option<u64> = Some(0);
        let mut pending_crash_op: Option<u64> = None;
        let lives = self.schedule.lives.clone();
        for plan in &lives {
            let mut life = match life_state.take() {
                Some(live) => live,
                None => {
                    // Crash-during-recovery probe: recovery itself dies at
                    // a scripted op, then the re-entry budget absorbs it.
                    if let Some(op) = pending_crash_op.take() {
                        let registry = self.registry.clone();
                        let outcome = recover_with_reentry(
                            self.dir,
                            &self.cfg,
                            Some(&self.hyper),
                            self.opts.shards,
                            self.opts.recovery_budget,
                            |attempt| -> Arc<dyn DurableFs> {
                                if attempt == 0 {
                                    Arc::new(
                                        FaultFs::new()
                                            .crash_at_op(op)
                                            .with_registry(registry.clone()),
                                    )
                                } else {
                                    Arc::new(FaultFs::new().with_registry(registry.clone()))
                                }
                            },
                        )
                        .map_err(|e| {
                            self.violation(
                                "recovery re-entry budget absorbs crash-during-recovery",
                                format!("{e}"),
                            )
                        })?;
                        self.check_recovered(&outcome.state, floor, "re-entry recovery")?;
                    }
                    let life = self.launch()?;
                    let recovered = life.serving.processed_samples();
                    if recovered > self.opts.total_samples {
                        return Err(self.violation(
                            "recovered epoch within stream",
                            format!("relaunch recovered to {recovered}"),
                        ));
                    }
                    if let Some(f) = floor {
                        if recovered < f {
                            return Err(self.violation(
                                "recovered state reaches the durable floor",
                                format!("relaunch recovered {recovered} below floor {f}"),
                            ));
                        }
                    }
                    life
                }
            };
            self.arm(&life, &plan.faults);
            // Sample-indexed events of this life, ordered by stream time.
            let mut events: Vec<(u64, &ChaosFault)> = plan
                .faults
                .iter()
                .filter_map(|f| match f {
                    ChaosFault::OverloadWindow { at_sample, .. }
                    | ChaosFault::PoisonSample { at_sample }
                    | ChaosFault::SilentDrop { at_sample } => Some((*at_sample, f)),
                    _ => None,
                })
                .collect();
            events.sort_by_key(|&(at, _)| at);
            let mut next_event = 0usize;
            let mut t = life.serving.processed_samples();
            let end = plan.end_sample;
            let mut next_check = (t / CHECK_EVERY + 1) * CHECK_EVERY;
            while t < end {
                let mut fault_hit = false;
                while next_event < events.len() && events[next_event].0 <= t + 1 {
                    let (_, fault) = events[next_event];
                    next_event += 1;
                    fault_hit = true;
                    match *fault {
                        ChaosFault::OverloadWindow { timeouts, .. } => {
                            let margin = self.opts.queue_capacity as u64 + 2;
                            if t + margin < end {
                                t = self.overload_window(&mut life, t, end, timeouts)?;
                            }
                        }
                        ChaosFault::PoisonSample { .. } => {
                            let mut poisoned =
                                chaos_values(self.schedule.seed, t + 1, self.cfg.dim);
                            poisoned[0] = f64::NAN;
                            match life.serving.try_ingest(&Sample::dense(poisoned)) {
                                Err(IngestError::NonFinite { .. }) => {
                                    life.expected.quarantined += 1;
                                    self.registry.record(SITE_CHAOS_POISON);
                                }
                                other => {
                                    return Err(self.violation(
                                        "non-finite input quarantined",
                                        format!("poisoned sample returned {other:?}"),
                                    ));
                                }
                            }
                        }
                        ChaosFault::SilentDrop { .. } => {
                            // Sabotage: advance the script clock without
                            // feeding serving; the oracle must notice.
                            t += 1;
                        }
                        _ => unreachable!("only sample-indexed faults are events"),
                    }
                }
                if t >= end {
                    break;
                }
                self.trace(&format_args!("ingest t={}", t + 1));
                life.serving
                    .ingest_blocking(&self.sample(t + 1))
                    .map_err(|e| {
                        self.violation(
                            "accepted ingest never fails silently",
                            format!("sample {} rejected: {e}", t + 1),
                        )
                    })?;
                t += 1;
                if fault_hit || t >= next_check || t == end {
                    next_check = (t / CHECK_EVERY + 1) * CHECK_EVERY;
                    self.trace(&format_args!("checking at t={t}"));
                    self.check(&mut life, t, "periodic")?;
                    self.trace(&format_args!("checked at t={t}"));
                }
            }
            // End-of-life audit at the exact boundary.
            self.check(&mut life, end, "end of life")?;
            match plan.kill {
                Some(kill) => {
                    self.kills += 1;
                    self.registry.record(SITE_CHAOS_KILL);
                    let health = life.serving.health();
                    floor = Some(health.durability.last_durable_epoch);
                    let reader_violations = life.readers.finish();
                    if let Some(v) = reader_violations.first() {
                        return Err(
                            self.violation("snapshot epochs monotone and never torn", v.clone())
                        );
                    }
                    life.serving.simulate_crash();
                    if let Some(corrupt) = kill.corrupt {
                        match corrupt_one_byte(self.dir, corrupt) {
                            Ok(Some(_)) => {
                                self.registry.record(SITE_CHAOS_CORRUPT);
                                floor = None;
                            }
                            Ok(None) => {}
                            Err(e) => {
                                return Err(self.violation("corruption harness IO", format!("{e}")));
                            }
                        }
                    }
                    pending_crash_op = kill.crash_recovery_at_op;
                    life_state = None;
                }
                None => {
                    life_state = Some(life);
                }
            }
        }
        // Teardown: clean shutdown, then a cold-start audit proving the
        // directory alone reconstructs the final durable state.
        let total = self.opts.total_samples;
        if let Some(life) = life_state.take() {
            let health = life.serving.health();
            let final_floor = health.durability.last_durable_epoch;
            let reader_violations = life.readers.finish();
            if let Some(v) = reader_violations.first() {
                return Err(self.violation("snapshot epochs monotone and never torn", v.clone()));
            }
            let stats = life.serving.shutdown();
            if stats.ingested_samples != total {
                return Err(self.violation(
                    "no ingest silently dropped",
                    format!(
                        "shutdown at epoch {} != total {total}",
                        stats.ingested_samples
                    ),
                ));
            }
            let outcome = RecoveryManager::new(self.dir)
                .recover(&self.cfg, Some(&self.hyper), self.opts.shards)
                .map_err(|e| self.violation("cold start recovers", format!("{e}")))?;
            // A clean shutdown syncs the WAL tail, so the cold start must
            // reach at least what was durable before shutdown.
            self.check_recovered(&outcome.state, Some(final_floor), "cold-start audit")?;
        }
        Ok(ChaosReport {
            seed: self.schedule.seed,
            lives: self.schedule.lives.len(),
            kills: self.kills,
            invariant_checks: self.checks,
            final_epoch: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let opts = ChaosOptions::default();
        for seed in 0..32 {
            let a = ChaosSchedule::generate(seed, &opts);
            let b = ChaosSchedule::generate(seed, &opts);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.lives.is_empty());
            assert_eq!(a.lives.last().unwrap().end_sample, opts.total_samples);
            assert!(a.lives.last().unwrap().kill.is_none());
            assert!(a.fault_count() >= 1);
        }
    }

    #[test]
    fn sixty_four_consecutive_seeds_script_every_fault_dimension() {
        let opts = ChaosOptions::default();
        let mut kinds = [false; 9];
        let (mut kills, mut corrupts, mut crashes) = (0, 0, 0);
        for seed in 100..164 {
            let schedule = ChaosSchedule::generate(seed, &opts);
            for life in &schedule.lives {
                for fault in &life.faults {
                    let k = match fault {
                        ChaosFault::WorkerPanic { .. } => 0,
                        ChaosFault::TornCheckpoint { .. } => 1,
                        ChaosFault::OverloadWindow { .. } => 2,
                        ChaosFault::TornWalWrite { .. } => 3,
                        ChaosFault::ShortWalWrite { .. } => 4,
                        ChaosFault::FailWalSync { .. } => 5,
                        ChaosFault::FailDirSync { .. } => 6,
                        ChaosFault::Enospc { .. } => 7,
                        ChaosFault::PoisonSample { .. } => 8,
                        ChaosFault::SilentDrop { .. } => panic!("sabotage generated"),
                    };
                    kinds[k] = true;
                }
                if let Some(kill) = life.kill {
                    kills += 1;
                    corrupts += i32::from(kill.corrupt.is_some());
                    crashes += i32::from(kill.crash_recovery_at_op.is_some());
                }
            }
        }
        assert!(kinds.iter().all(|&k| k), "kinds covered: {kinds:?}");
        assert!(kills > 0 && corrupts > 0 && crashes > 0);
    }

    #[test]
    fn chaos_samples_are_dense_finite_and_seeded() {
        let s = chaos_values(7, 3, 10);
        let again = chaos_values(7, 3, 10);
        assert_eq!(s, again);
        let other = chaos_values(8, 3, 10);
        assert_ne!(s, other);
        assert!(s.iter().all(|v| v.is_finite() && *v != 0.0));
        assert_eq!(chaos_sample(7, 3, 10), Sample::dense(s));
    }
}
