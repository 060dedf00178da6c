//! High-level one-pass covariance/correlation estimator.
//!
//! [`CovarianceEstimator`] wires together the streaming engine
//! ([`StreamContext`]), a sketch backend (ASCS, vanilla CS, Augmented
//! Sketch or Cold Filter) and the reporting machinery. Every experiment in
//! the benchmark harness — and every example — goes through this type, so
//! the backends are guaranteed to see byte-for-byte identical update
//! streams.

use crate::ascs::AscsSketch;
use crate::config::AscsConfig;
use crate::hyper::{HyperParameterSolver, HyperParameters, SolveError};
use crate::pair::PairIndexer;
use crate::serve::IngestError;
use crate::sharded::{ShardUpdate, ShardedAscs};
use crate::snr::SnrProbe;
use crate::stream::{Sample, StreamContext};
use crate::timeaware::{DecayedSketch, WindowedSketch, MAX_WINDOW_SEGMENTS};
use ascs_count_sketch::codec::{self, CodecError};
use ascs_count_sketch::{
    AugmentedSketch, ColdFilter, CountSketch, HashPlan, PointSketch, TopKTracker,
};
use serde::{Deserialize, Serialize};

/// Upper bound on the pair universe an ingestion plan may cover: the plan
/// arena costs `4(K + 1)` bytes per pair, so this caps it at ~1.2 GB for
/// `K = 5` — matching the enumeration bound of
/// [`CovarianceEstimator::all_estimates`]. Beyond it, planning per pair is
/// the wrong tool (the tracker-based reporting path is).
pub(crate) const MAX_PLANNED_PAIRS: u64 = 50_000_000;

/// Pair universes up to this size get a throwaway plan built inside
/// [`CovarianceEstimator::all_estimates`] when no ingestion plan is
/// attached: the build hashes each key once — the same work the point-query
/// loop would do — and the blocked sweep then beats the loop. Above it the
/// transient arena allocation outweighs the sweep win, so the plain loop
/// runs instead.
pub(crate) const TRANSIENT_PLAN_PAIRS: u64 = 8_000_000;

/// Blocked sweep of `sketch` over the pair keys `0..p`: one
/// [`CountSketch::estimate_many`] pass over `plan` when it covers the
/// universe, over a throwaway plan up to [`TRANSIENT_PLAN_PAIRS`], and
/// point queries beyond. The estimator's and the serving snapshot's
/// `all_estimates` both read through it.
pub(crate) fn sweep_estimates(sketch: &CountSketch, plan: Option<&HashPlan>, p: u64) -> Vec<f64> {
    let mut out = Vec::new();
    match plan {
        Some(plan) if plan.len() as u64 >= p => sketch.estimate_many(plan, &mut out),
        _ if p <= TRANSIENT_PLAN_PAIRS => {
            sketch.estimate_many(&sketch.build_plan(p as usize), &mut out);
        }
        _ => out.extend((0..p).map(|key| sketch.estimate(key))),
    }
    out.truncate(p as usize);
    out
}

/// Why an ingestion plan could not be attached. Callers fall back to the
/// per-update hashed path, which every backend supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// The backend's filter stages hash independently of the count-sketch
    /// family, so a precomputed plan cannot drive them (ASketch / Cold
    /// Filter).
    UnsupportedBackend(SketchBackend),
    /// The pair universe is too large for a plan arena to fit in memory;
    /// use the tracker-based reporting path instead.
    UniverseTooLarge {
        /// Pairs the plan would have to cover.
        pairs: u64,
        /// The supported maximum.
        max: u64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnsupportedBackend(backend) => write!(
                f,
                "ingestion plans require a count-sketch-family backend \
                 (ASCS / vanilla CS), got {backend:?}"
            ),
            PlanError::UniverseTooLarge { pairs, max } => write!(
                f,
                "an ingestion plan over {pairs} pairs would not fit in memory (max {max})"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Which sketching strategy backs the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SketchBackend {
    /// Active Sampling Count Sketch (the paper's contribution).
    Ascs,
    /// ASCS sharded across `shards` key-partitioned worker sketches that
    /// ingest on parallel OS threads and answer queries as if merged (see
    /// [`ShardedAscs`]). Note: the per-update SNR probe is not supported on
    /// this backend (ingestion is deferred to a per-sample batch).
    ShardedAscs {
        /// Number of worker shards (each owns a full-geometry sketch).
        shards: usize,
    },
    /// Vanilla count sketch (Algorithm 1) — the primary baseline.
    VanillaCs,
    /// Augmented Sketch baseline (Roy et al. 2016) with the given filter
    /// capacity (number of exactly tracked hot pairs).
    AugmentedSketch {
        /// Number of filter slots.
        filter_capacity: usize,
    },
    /// Cold Filter baseline (Zhou et al. 2018).
    ColdFilter {
        /// Promotion threshold on accumulated |update| (on the `1/T`-scaled
        /// stream the sketch actually sees).
        threshold: f64,
        /// Buckets per row of the small filter structures.
        filter_range: usize,
    },
    /// Sliding-window covariance over the last `≈ segments · segment_len`
    /// samples: a ring of count-sketch segments merged by linearity at
    /// read time (see [`WindowedSketch`]). Ungated — the stationary-stream
    /// theorems do not cover the windowed estimand, and the gate is what
    /// freezes drift-emergent signals.
    Windowed {
        /// Samples per ring segment (`L`).
        segment_len: u64,
        /// Segments in the ring (`S`); the warm window spans
        /// `(S−1)·L+1 ..= S·L` samples.
        segments: usize,
    },
    /// Exponentially decayed covariance with per-sample decay `γ`,
    /// scale-on-read so tables are never rescaled in place (see
    /// [`DecayedSketch`]). Ungated, like [`SketchBackend::Windowed`].
    Decayed {
        /// Per-sample decay factor, strictly inside `(0, 1)`.
        gamma: f64,
    },
}

/// One reported pair: the feature indices, the linear key and the final
/// estimate of its mean (covariance or correlation, per the config).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReportedPair {
    /// Linear pair key.
    pub key: u64,
    /// First feature index (`a < b`).
    pub a: u64,
    /// Second feature index.
    pub b: u64,
    /// Estimated mean of the pair's updates (≈ covariance or correlation).
    pub estimate: f64,
}

enum BackendState {
    Ascs(AscsSketch),
    Sharded {
        sketch: ShardedAscs,
        /// Per-sample update batch, flushed through
        /// [`ShardedAscs::offer_batch`] at the end of each sample.
        pending: Vec<ShardUpdate>,
    },
    Asketch {
        sketch: AugmentedSketch,
        tracker: TopKTracker,
    },
    Cold {
        sketch: ColdFilter,
        tracker: TopKTracker,
    },
    Windowed(WindowedSketch),
    Decayed(DecayedSketch),
}

impl BackendState {
    fn estimate(&self, key: u64) -> f64 {
        match self {
            Self::Ascs(a) => a.estimate(key),
            Self::Sharded { sketch, .. } => sketch.estimate(key),
            Self::Asketch { sketch, .. } => sketch.estimate(key),
            Self::Cold { sketch, .. } => sketch.estimate(key),
            Self::Windowed(w) => w.estimate(key),
            Self::Decayed(d) => d.estimate(key),
        }
    }

    /// The `k` top tracked pairs — partial selection over the retained set
    /// (the sharded layer's cross-shard merge already truncates internally).
    /// The time-aware backends keep no tracker (updates are raw, not
    /// `1/T`-scaled, so a running tracker would rank stale magnitudes);
    /// [`CovarianceEstimator::top_pairs`] ranks them by a whole-universe
    /// sweep instead.
    fn top_pairs(&self, k: usize) -> Vec<(u64, f64)> {
        match self {
            Self::Ascs(a) => a.top_pairs_limit(k),
            Self::Sharded { sketch, .. } => {
                let mut top = sketch.top_pairs();
                top.truncate(k);
                top
            }
            Self::Asketch { tracker, .. } | Self::Cold { tracker, .. } => tracker.top_descending(k),
            Self::Windowed(_) | Self::Decayed(_) => {
                unreachable!("time-aware backends are ranked by the estimator's sweep")
            }
        }
    }

    fn memory_words(&self) -> usize {
        match self {
            Self::Ascs(a) => a.memory_words(),
            Self::Sharded { sketch, .. } => sketch.memory_words(),
            Self::Asketch { sketch, .. } => sketch.memory_words(),
            Self::Cold { sketch, .. } => sketch.memory_words(),
            Self::Windowed(w) => w.memory_words(),
            Self::Decayed(d) => d.memory_words(),
        }
    }
}

/// One-pass estimator of the large entries of a covariance/correlation
/// matrix.
pub struct CovarianceEstimator {
    config: AscsConfig,
    ctx: StreamContext,
    backend: BackendState,
    backend_kind: SketchBackend,
    hyper: Option<HyperParameters>,
    probe: Option<SnrProbe>,
    /// Precomputed ingestion plan over the dense pair universe `0..p`
    /// (slot == pair key). When present, `process_sample` resolves each
    /// emitted pair to its plan slot and replays arena entries instead of
    /// hashing, and `all_estimates` runs one blocked sweep instead of `p`
    /// point queries. See [`CovarianceEstimator::with_ingestion_plan`].
    plan: Option<HashPlan>,
    t: u64,
    /// Samples rejected at the ingest boundary by [`Sample::screen`].
    /// Diagnostic state only — not serialized (quarantined samples
    /// never touched the estimator), so a resumed estimator restarts at 0.
    quarantined_samples: u64,
}

impl CovarianceEstimator {
    /// Builds an estimator. For the [`SketchBackend::Ascs`] backend the
    /// hyperparameters `(T0, θ)` are derived from the config via
    /// Algorithm 3; the other backends need no solving.
    pub fn new(config: AscsConfig, backend: SketchBackend) -> Result<Self, SolveError> {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ASCS configuration: {e}"));
        let hyper = match backend {
            SketchBackend::Ascs | SketchBackend::ShardedAscs { .. } => {
                let solver = HyperParameterSolver::new(config.theory_bounds());
                Some(solver.solve(config.tau0, config.delta, config.delta_star)?)
            }
            _ => None,
        };
        Ok(Self::with_hyperparameters(config, backend, hyper))
    }

    /// Like [`CovarianceEstimator::new`], but never fails: when Algorithm 3
    /// cannot satisfy the Theorem 1 target (extremely aggressive
    /// compression with a short stream), the exploration length falls back
    /// to 10 % of the stream — the fixed-fraction setting Theorem 3 itself
    /// analyses. Returns the estimator plus a flag saying whether the
    /// fallback was used.
    pub fn new_or_fallback(config: AscsConfig, backend: SketchBackend) -> (Self, bool) {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid ASCS configuration: {e}"));
        let (hyper, fell_back) = match backend {
            SketchBackend::Ascs | SketchBackend::ShardedAscs { .. } => {
                let solver = HyperParameterSolver::new(config.theory_bounds());
                let (hp, fell_back) =
                    solver.solve_or_fallback(config.tau0, config.delta, config.delta_star, 0.1);
                (Some(hp), fell_back)
            }
            _ => (None, false),
        };
        (
            Self::with_hyperparameters(config, backend, hyper),
            fell_back,
        )
    }

    /// Builds an estimator with explicitly supplied hyperparameters
    /// (bypassing Algorithm 3) — used by the validation experiments that
    /// sweep `T0` and `θ` directly.
    pub fn with_hyperparameters(
        config: AscsConfig,
        backend: SketchBackend,
        hyper: Option<HyperParameters>,
    ) -> Self {
        let ctx = StreamContext::new(config.dim, config.update_mode, config.estimand);
        let backend_state = match backend {
            SketchBackend::Ascs => {
                let hp = hyper.expect("ASCS backend requires hyperparameters");
                BackendState::Ascs(AscsSketch::for_config(&config, Some(&hp)))
            }
            SketchBackend::ShardedAscs { shards } => {
                let hp = hyper.expect("sharded ASCS backend requires hyperparameters");
                BackendState::Sharded {
                    sketch: ShardedAscs::for_config(&config, Some(&hp), shards),
                    pending: Vec::new(),
                }
            }
            SketchBackend::VanillaCs => BackendState::Ascs(AscsSketch::for_config(&config, None)),
            SketchBackend::AugmentedSketch { filter_capacity } => BackendState::Asketch {
                sketch: AugmentedSketch::new(
                    config.geometry.rows,
                    config.geometry.range,
                    filter_capacity,
                    config.seed,
                ),
                tracker: TopKTracker::new(config.top_k_capacity),
            },
            SketchBackend::ColdFilter {
                threshold,
                filter_range,
            } => BackendState::Cold {
                sketch: ColdFilter::new(
                    config.geometry.rows,
                    config.geometry.range,
                    2,
                    filter_range,
                    threshold,
                    config.seed,
                ),
                tracker: TopKTracker::new(config.top_k_capacity),
            },
            SketchBackend::Windowed {
                segment_len,
                segments,
            } => BackendState::Windowed(WindowedSketch::new(
                config.geometry.rows,
                config.geometry.range,
                config.seed,
                segment_len,
                segments,
            )),
            SketchBackend::Decayed { gamma } => BackendState::Decayed(DecayedSketch::new(
                config.geometry.rows,
                config.geometry.range,
                config.seed,
                gamma,
            )),
        };
        Self {
            config,
            ctx,
            backend: backend_state,
            backend_kind: backend,
            hyper,
            probe: None,
            plan: None,
            t: 0,
            quarantined_samples: 0,
        }
    }

    /// Attaches a precomputed [`HashPlan`] over the dense pair universe
    /// `0..p` (built in parallel for large sets): every pair update of every
    /// subsequent sample resolves to its plan slot — the pair key itself, no
    /// map — and replays precomputed `(bucket, sign)` locations instead of
    /// re-hashing, and [`CovarianceEstimator::all_estimates`] answers all
    /// `p` queries in one cache-blocked sweep. Results are bit-identical to
    /// the unplanned path; only the work per update changes.
    ///
    /// For the sharded backend the slot → shard routing table is also
    /// precomputed, so shard partitioning stops hashing per update too.
    ///
    /// # Errors
    /// Returns [`PlanError::UnsupportedBackend`] on the ASketch / Cold
    /// Filter backends (their filter stages hash independently of the
    /// count-sketch family, so a plan cannot drive them) and
    /// [`PlanError::UniverseTooLarge`] on pair universes beyond 5·10⁷ (the
    /// plan arena would not fit in memory — use the tracker-based
    /// reporting path). In both cases the estimator is untouched and keeps
    /// hashing per update.
    pub fn with_ingestion_plan(mut self) -> Result<Self, PlanError> {
        self.attach_ingestion_plan()?;
        Ok(self)
    }

    /// In-place form of [`CovarianceEstimator::with_ingestion_plan`], for
    /// callers that want to fall back to the hashed path without losing
    /// the estimator on failure.
    ///
    /// # Errors
    /// Same conditions as [`CovarianceEstimator::with_ingestion_plan`]; on
    /// `Err` the estimator is unchanged.
    pub fn attach_ingestion_plan(&mut self) -> Result<(), PlanError> {
        let p = self.config.num_pairs();
        if p > MAX_PLANNED_PAIRS {
            return Err(PlanError::UniverseTooLarge {
                pairs: p,
                max: MAX_PLANNED_PAIRS,
            });
        }
        let plan = match &self.backend {
            BackendState::Ascs(a) => a.sketch().build_plan(p as usize),
            BackendState::Sharded { sketch, .. } => {
                sketch.workers()[0].sketch().build_plan(p as usize)
            }
            BackendState::Windowed(w) => w.build_plan(p as usize),
            BackendState::Decayed(d) => d.build_plan(p as usize),
            BackendState::Asketch { .. } | BackendState::Cold { .. } => {
                return Err(PlanError::UnsupportedBackend(self.backend_kind));
            }
        };
        if let BackendState::Sharded { sketch, .. } = &mut self.backend {
            sketch.build_slot_router(p as usize);
        }
        self.plan = Some(plan);
        Ok(())
    }

    /// The attached ingestion plan, if any.
    pub fn ingestion_plan(&self) -> Option<&HashPlan> {
        self.plan.as_ref()
    }

    /// Attaches an SNR probe that knows the ground-truth signal keys
    /// (Figure 5 instrumentation).
    ///
    /// # Panics
    /// Panics on the [`SketchBackend::ShardedAscs`] backend: sharded
    /// ingestion defers updates to a per-sample batch, so per-update
    /// insertion outcomes are not observable and the probe would silently
    /// record nothing — a meaningless (all-zero) SNR series. Probe a
    /// sequential backend instead.
    pub fn with_snr_probe(mut self, signal_keys: impl IntoIterator<Item = u64>) -> Self {
        assert!(
            !matches!(self.backend_kind, SketchBackend::ShardedAscs { .. }),
            "the SNR probe is not supported on the sharded backend \
             (per-update insertion outcomes are batched away)"
        );
        self.probe = Some(SnrProbe::new(signal_keys));
        self
    }

    /// The configuration this estimator runs with.
    pub fn config(&self) -> &AscsConfig {
        &self.config
    }

    /// The backend kind.
    pub fn backend(&self) -> SketchBackend {
        self.backend_kind
    }

    /// The hyperparameters Algorithm 3 produced (ASCS backend only).
    pub fn hyperparameters(&self) -> Option<&HyperParameters> {
        self.hyper.as_ref()
    }

    /// Number of samples processed so far.
    pub fn processed_samples(&self) -> u64 {
        self.t
    }

    /// The pair indexer (shared coordinates with the evaluation layer).
    pub fn indexer(&self) -> &PairIndexer {
        self.ctx.indexer()
    }

    /// The attached SNR probe, if any.
    pub fn snr_probe(&self) -> Option<&SnrProbe> {
        self.probe.as_ref()
    }

    /// Memory footprint of the sketch state in float-equivalent words.
    pub fn memory_words(&self) -> usize {
        self.backend.memory_words()
    }

    /// Number of updates inserted / skipped (skipped is only non-zero for
    /// the ASCS backend).
    pub fn update_counts(&self) -> (u64, u64) {
        match &self.backend {
            BackendState::Ascs(a) => (a.inserted_updates(), a.skipped_updates()),
            BackendState::Sharded { sketch, .. } => {
                (sketch.inserted_updates(), sketch.skipped_updates())
            }
            BackendState::Asketch { sketch, .. } => (sketch.sketch().update_count(), 0),
            BackendState::Cold { sketch, .. } => {
                (sketch.promoted_updates() + sketch.cold_updates(), 0)
            }
            BackendState::Windowed(w) => (w.ingested_updates(), 0),
            BackendState::Decayed(d) => (d.ingested_updates(), 0),
        }
    }

    /// Samples rejected by [`Sample::screen`] — NaN/±inf values, or (via
    /// [`CovarianceEstimator::try_process_sample`]) a shape that does not
    /// fit the configured dimensionality. A quarantined sample
    /// changes *nothing*: no stream time, no feature moments, no sketch
    /// state — one poisoned coordinate would otherwise corrupt every
    /// bucket its pair updates hash into, unrecoverably.
    pub fn quarantined_samples(&self) -> u64 {
        self.quarantined_samples
    }

    /// [`CovarianceEstimator::process_sample`] with the quarantine
    /// surfaced as a typed error: the whole sample is screened
    /// ([`Sample::screen`]) *before* any state is touched, so on `Err` the
    /// estimator is exactly as it was (apart from the quarantine counter)
    /// and previously learned estimates are unchanged.
    ///
    /// # Errors
    /// [`IngestError::NonFinite`] with the offending feature index and
    /// value when the sample carries NaN or ±inf;
    /// [`IngestError::DimensionMismatch`], [`IngestError::IndexOutOfRange`]
    /// or [`IngestError::DuplicateIndex`] when its shape does not fit the
    /// configured dimensionality.
    pub fn try_process_sample(&mut self, sample: &Sample) -> Result<u64, IngestError> {
        if let Err(e) = sample.screen(self.config.dim) {
            self.quarantined_samples += 1;
            return Err(e);
        }
        Ok(self.ingest_sample(sample))
    }

    /// Processes one sample; returns the number of pair updates it emitted.
    /// Non-finite samples are quarantined (counted, then dropped, emitting
    /// 0 updates) — use [`CovarianceEstimator::try_process_sample`] to
    /// observe the rejection as a typed error instead.
    ///
    /// # Panics
    /// Panics if the sample's shape does not fit the configured
    /// dimensionality (see [`Sample::screen`]).
    ///
    /// The per-sample invariants — the sampling gate (`τ(t−1)`, phase) and
    /// the `1/T` scaling — are hoisted out of the `O(d²)` pair-update loop:
    /// they depend only on `t`, so they are computed once here rather than
    /// once per emitted pair.
    pub fn process_sample(&mut self, sample: &Sample) -> u64 {
        match self.try_process_sample(sample) {
            Ok(emitted) => emitted,
            Err(IngestError::NonFinite { .. }) => 0,
            Err(malformed) => panic!("malformed sample: {malformed}"),
        }
    }

    /// The post-quarantine ingestion body shared by the checked and
    /// unchecked entry points.
    fn ingest_sample(&mut self, sample: &Sample) -> u64 {
        self.t += 1;
        let t = self.t;
        let inv_total = 1.0 / self.config.total_samples as f64;
        let gate = match &self.backend {
            BackendState::Ascs(a) => Some(a.sample_gate(t)),
            _ => None,
        };
        // The time-aware backends keep their own stream clock: advance it
        // (rotating window segments / the decay accumulator) before this
        // sample's updates land. A segment retired here has fallen out of
        // the window — the estimator's window semantics is to forget it
        // (standalone [`WindowedSketch`] users can spill it instead).
        match &mut self.backend {
            BackendState::Windowed(w) => {
                let _ = w.begin_sample();
            }
            BackendState::Decayed(d) => d.begin_sample(),
            _ => {}
        }
        let backend = &mut self.backend;
        let probe = &mut self.probe;
        let plan = self.plan.as_ref();
        if let Some(p) = probe.as_mut() {
            p.begin_sample();
        }
        let emitted = self.ctx.ingest(sample, |update| {
            let inserted = match backend {
                BackendState::Ascs(a) => {
                    let gate = gate.expect("gate set for ASCS");
                    // Dense pair keys are their own plan slots, so the
                    // planned path needs no key → slot map.
                    a.offer_at(plan, update.key, update.value, gate).inserted
                }
                BackendState::Sharded { pending, .. } => {
                    // Deferred: the batch is flushed (in parallel) below.
                    pending.push(ShardUpdate {
                        key: update.key,
                        value: update.value,
                        t,
                    });
                    false
                }
                BackendState::Asketch { sketch, tracker } => {
                    sketch.update(update.key, update.value * inv_total);
                    tracker.offer(update.key, sketch.estimate(update.key).abs());
                    true
                }
                BackendState::Cold { sketch, tracker } => {
                    sketch.update(update.key, update.value * inv_total);
                    tracker.offer(update.key, sketch.estimate(update.key).abs());
                    true
                }
                // Raw values: the windowed/decayed estimates normalise at
                // read time (by window length / total decayed weight), not
                // by a fixed `1/T` at ingest.
                BackendState::Windowed(w) => {
                    match plan {
                        Some(plan) => w.ingest_planned(plan, update.key as usize, update.value),
                        None => w.ingest(update.key, update.value),
                    }
                    true
                }
                BackendState::Decayed(d) => {
                    match plan {
                        Some(plan) => d.ingest_planned(plan, update.key as usize, update.value),
                        None => d.ingest(update.key, update.value),
                    }
                    true
                }
            };
            if inserted {
                if let Some(p) = probe.as_mut() {
                    p.record_inserted(update.key, update.value);
                }
            }
        });
        if let BackendState::Sharded { sketch, pending } = &mut self.backend {
            match &self.plan {
                Some(plan) => sketch.offer_batch_planned(plan, pending),
                None => sketch.offer_batch(pending),
            }
            pending.clear();
        }
        if let Some(p) = probe.as_mut() {
            p.end_sample();
        }
        emitted
    }

    /// Processes every sample of an iterator.
    pub fn process_all<'a>(&mut self, samples: impl IntoIterator<Item = &'a Sample>) -> u64 {
        samples.into_iter().map(|s| self.process_sample(s)).sum()
    }

    /// Final estimate for the pair `(a, b)`.
    pub fn estimate_pair(&self, a: u64, b: u64) -> f64 {
        self.backend.estimate(self.ctx.indexer().index(a, b))
    }

    /// Final estimate for a linear pair key.
    pub fn estimate_key(&self, key: u64) -> f64 {
        self.backend.estimate(key)
    }

    /// Estimates for every pair key in `0..p` — only sensible for moderate
    /// dimensionality (the rigorous-evaluation setting of Section 8.3).
    ///
    /// For the count-sketch-family backends this runs as **one blocked
    /// sweep** ([`CountSketch::estimate_many`]) over the ingestion plan
    /// (building a throwaway plan when none is attached — the build hashes
    /// each key once, exactly what the point-query loop would have done)
    /// rather than `p` independent point queries; the sharded backend
    /// materialises its merged table once instead of summing across workers
    /// `p` times. Values are identical to per-key [`estimate_key`]
    /// (bit-identical for the sequential backends).
    ///
    /// [`estimate_key`]: CovarianceEstimator::estimate_key
    pub fn all_estimates(&self) -> Vec<f64> {
        let p = self.config.num_pairs();
        assert!(
            p <= MAX_PLANNED_PAIRS,
            "enumerating {p} pairs would be prohibitively slow; use top_pairs()"
        );
        match &self.backend {
            BackendState::Ascs(a) => sweep_estimates(a.sketch(), self.plan.as_ref(), p),
            BackendState::Sharded { sketch, .. } => {
                sweep_estimates(&sketch.merged_sketch(), self.plan.as_ref(), p)
            }
            // The merged table holds the same per-bucket sums, added in the
            // same order, as the per-key read path — so after the identical
            // normalising division the sweep is bit-identical to
            // `estimate_key`.
            BackendState::Windowed(w) => {
                let mut out = sweep_estimates(&w.merged_sketch(), self.plan.as_ref(), p);
                let n = w.window_len();
                if n > 0 {
                    for v in &mut out {
                        *v /= n as f64;
                    }
                }
                out
            }
            BackendState::Decayed(d) => {
                let mut out = sweep_estimates(&d.merged_sketch(), self.plan.as_ref(), p);
                if d.t() > 0 {
                    let norm = d.weight_norm();
                    for v in &mut out {
                        *v /= norm;
                    }
                }
                out
            }
            _ => (0..p).map(|key| self.backend.estimate(key)).collect(),
        }
    }

    /// The top tracked pairs (largest estimate magnitude first), decoded
    /// into feature coordinates. At most `k` pairs are returned; the
    /// selection is partial (heap-select of `k`) rather than a full sort of
    /// the tracker's retained set.
    pub fn top_pairs(&self, k: usize) -> Vec<ReportedPair> {
        let indexer = self.ctx.indexer();
        let ranked = match &self.backend {
            // No tracker on the time-aware backends: rank the whole
            // universe by current estimate magnitude (the configured
            // tracker capacity still bounds the retained set, matching the
            // other backends' reporting contract). Like the trackers, the
            // reported value is the |estimate| score.
            BackendState::Windowed(_) | BackendState::Decayed(_) => {
                let mut scored: Vec<(u64, f64)> = self
                    .all_estimates()
                    .into_iter()
                    .enumerate()
                    .map(|(key, v)| (key as u64, v.abs()))
                    .collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                scored.truncate(k.min(self.config.top_k_capacity));
                scored
            }
            _ => self.backend.top_pairs(k),
        };
        ranked
            .into_iter()
            .map(|(key, estimate)| {
                let (a, b) = indexer.pair(key);
                ReportedPair {
                    key,
                    a,
                    b,
                    estimate,
                }
            })
            .collect()
    }

    /// Checkpoints the full estimator state: configuration, backend kind,
    /// solved hyperparameters, sample counter, stream context and the
    /// backend sketch record. A [`CovarianceEstimator::resume`]d estimator
    /// continues the stream bit-identically to one that never stopped.
    ///
    /// The ingestion plan and the SNR probe are deliberately *not*
    /// serialized: the plan is a pure function of the sketch's hash family
    /// (re-attach it after resume via
    /// [`CovarianceEstimator::attach_ingestion_plan`] — planned and hashed
    /// ingestion are bit-identical anyway), and the probe is ground-truth
    /// instrumentation, not estimator state.
    ///
    /// # Errors
    /// Returns [`CodecError::Unsupported`] on the ASketch / Cold Filter
    /// backends — their filter stages have no checkpoint codec; only the
    /// count-sketch-family backends participate in the lifecycle.
    pub fn checkpoint<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let backend_tag = match (&self.backend, self.backend_kind) {
            (BackendState::Ascs(_), SketchBackend::VanillaCs) => 2u8,
            (BackendState::Ascs(_), _) => 0u8,
            (BackendState::Sharded { .. }, _) => 1u8,
            (BackendState::Windowed(_), _) => 3u8,
            (BackendState::Decayed(_), _) => 4u8,
            (BackendState::Asketch { .. } | BackendState::Cold { .. }, _) => {
                return Err(CodecError::Unsupported(
                    "checkpointing requires a count-sketch-family backend (ASCS / vanilla CS)",
                ));
            }
        };
        codec::write_header(w, codec::TAG_ESTIMATOR)?;
        let c = &self.config;
        codec::write_u64(w, c.dim)?;
        codec::write_u64(w, c.total_samples)?;
        codec::write_u64(w, c.geometry.rows as u64)?;
        codec::write_u64(w, c.geometry.range as u64)?;
        codec::write_f64(w, c.alpha)?;
        codec::write_f64(w, c.signal_strength)?;
        codec::write_f64(w, c.sigma)?;
        codec::write_f64(w, c.delta)?;
        codec::write_f64(w, c.delta_star)?;
        codec::write_f64(w, c.tau0)?;
        codec::write_u8(w, c.estimand as u8)?;
        codec::write_u8(w, c.update_mode as u8)?;
        codec::write_u64(w, c.seed)?;
        codec::write_u64(w, c.top_k_capacity as u64)?;
        codec::write_u8(w, backend_tag)?;
        if let SketchBackend::ShardedAscs { shards } = self.backend_kind {
            codec::write_u64(w, shards as u64)?;
        }
        if let SketchBackend::Windowed {
            segment_len,
            segments,
        } = self.backend_kind
        {
            codec::write_u64(w, segment_len)?;
            codec::write_u64(w, segments as u64)?;
        }
        if let SketchBackend::Decayed { gamma } = self.backend_kind {
            codec::write_f64(w, gamma)?;
        }
        match &self.hyper {
            Some(hp) => {
                codec::write_bool(w, true)?;
                codec::write_u64(w, hp.t0)?;
                codec::write_f64(w, hp.theta)?;
                codec::write_f64(w, hp.tau0)?;
                codec::write_f64(w, hp.delta)?;
                codec::write_f64(w, hp.delta_star)?;
            }
            None => codec::write_bool(w, false)?,
        }
        codec::write_u64(w, self.t)?;
        self.ctx.save(w)?;
        match &self.backend {
            BackendState::Ascs(a) => a.save(w),
            BackendState::Sharded { sketch, .. } => sketch.save(w),
            BackendState::Windowed(win) => win.save(w),
            BackendState::Decayed(d) => d.save(w),
            // Unreachable: filtered out when computing backend_tag above.
            _ => Err(CodecError::Unsupported(
                "checkpointing requires a count-sketch-family backend (ASCS / vanilla CS)",
            )),
        }
    }

    /// Restores an estimator checkpointed by
    /// [`CovarianceEstimator::checkpoint`]. The restored configuration is
    /// re-validated, so corrupt bytes surface as [`CodecError`] rather than
    /// a panic downstream.
    pub fn resume<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        codec::read_header(r, codec::TAG_ESTIMATOR)?;
        let dim = codec::read_u64(r)?;
        let total_samples = codec::read_u64(r)?;
        let rows = codec::read_len(r, 1 << 16, "sketch row count out of range")?;
        let range = codec::read_len(r, 1 << 40, "sketch range out of range")?;
        let alpha = codec::read_f64(r)?;
        let signal_strength = codec::read_f64(r)?;
        let sigma = codec::read_f64(r)?;
        let delta = codec::read_f64(r)?;
        let delta_star = codec::read_f64(r)?;
        let tau0 = codec::read_f64(r)?;
        let estimand = match codec::read_u8(r)? {
            0 => crate::config::EstimandKind::Covariance,
            1 => crate::config::EstimandKind::Correlation,
            _ => return Err(CodecError::Corrupt("unknown estimand kind")),
        };
        let update_mode = match codec::read_u8(r)? {
            0 => crate::config::UpdateMode::Product,
            1 => crate::config::UpdateMode::Centered,
            _ => return Err(CodecError::Corrupt("unknown update mode")),
        };
        let seed = codec::read_u64(r)?;
        let top_k_capacity = codec::read_len(r, 1 << 28, "tracker capacity out of range")?;
        let config = AscsConfig {
            dim,
            total_samples,
            geometry: crate::config::SketchGeometry { rows, range },
            alpha,
            signal_strength,
            sigma,
            delta,
            delta_star,
            tau0,
            estimand,
            update_mode,
            seed,
            top_k_capacity,
        };
        if config.validate().is_err() {
            return Err(CodecError::Corrupt("checkpointed configuration is invalid"));
        }
        let backend_kind = match codec::read_u8(r)? {
            0 => SketchBackend::Ascs,
            1 => {
                let shards = codec::read_len(
                    r,
                    crate::sharded::MAX_SHARDS as u64,
                    "shard count out of range",
                )?;
                if shards == 0 {
                    return Err(CodecError::Corrupt("shard count out of range"));
                }
                SketchBackend::ShardedAscs { shards }
            }
            2 => SketchBackend::VanillaCs,
            3 => {
                let segment_len = codec::read_u64(r)?;
                let segments = codec::read_len(
                    r,
                    MAX_WINDOW_SEGMENTS as u64,
                    "window segment count out of range",
                )?;
                if segment_len == 0 || segments == 0 {
                    return Err(CodecError::Corrupt("window geometry out of range"));
                }
                SketchBackend::Windowed {
                    segment_len,
                    segments,
                }
            }
            4 => {
                let gamma = codec::read_f64(r)?;
                if !(gamma.is_finite() && gamma > 0.0 && gamma < 1.0) {
                    return Err(CodecError::Corrupt("decay factor outside (0, 1)"));
                }
                SketchBackend::Decayed { gamma }
            }
            _ => return Err(CodecError::Corrupt("unknown backend kind")),
        };
        let hyper = if codec::read_bool(r)? {
            let t0 = codec::read_u64(r)?;
            let theta = codec::read_f64(r)?;
            let tau0 = codec::read_f64(r)?;
            let delta = codec::read_f64(r)?;
            let delta_star = codec::read_f64(r)?;
            Some(HyperParameters {
                t0,
                theta,
                tau0,
                delta,
                delta_star,
            })
        } else {
            None
        };
        let t = codec::read_u64(r)?;
        let ctx = StreamContext::restore(r)?;
        if ctx.dim() != config.dim {
            return Err(CodecError::Corrupt(
                "stream context dimensionality disagrees with the configuration",
            ));
        }
        let backend = match backend_kind {
            SketchBackend::Ascs | SketchBackend::VanillaCs => {
                BackendState::Ascs(AscsSketch::restore(r)?)
            }
            SketchBackend::ShardedAscs { shards } => {
                let sketch = ShardedAscs::restore(r)?;
                if sketch.shards() != shards {
                    return Err(CodecError::Corrupt(
                        "sharded backend shard count disagrees with the backend kind",
                    ));
                }
                BackendState::Sharded {
                    sketch,
                    pending: Vec::new(),
                }
            }
            SketchBackend::Windowed {
                segment_len,
                segments,
            } => {
                let win = WindowedSketch::restore(r)?;
                if win.segment_len() != segment_len || win.segment_count() != segments {
                    return Err(CodecError::Corrupt(
                        "windowed ring geometry disagrees with the backend kind",
                    ));
                }
                if win.t() != t {
                    return Err(CodecError::Corrupt(
                        "windowed ring stream clock disagrees with the estimator",
                    ));
                }
                BackendState::Windowed(win)
            }
            SketchBackend::Decayed { gamma } => {
                let d = DecayedSketch::restore(r)?;
                if d.gamma().to_bits() != gamma.to_bits() {
                    return Err(CodecError::Corrupt(
                        "decay factor disagrees with the backend kind",
                    ));
                }
                if d.t() != t {
                    return Err(CodecError::Corrupt(
                        "decayed sketch stream clock disagrees with the estimator",
                    ));
                }
                BackendState::Decayed(d)
            }
            _ => unreachable!("backend tag decoding covers CS-family kinds only"),
        };
        Ok(Self {
            config,
            ctx,
            backend,
            backend_kind,
            hyper,
            probe: None,
            plan: None,
            t,
            quarantined_samples: 0,
        })
    }

    /// Restores another process's checkpoint and merges it into `self` via
    /// count sketch linearity: sketch tables, insert/skip counters and
    /// sample counts add; trackers are re-scored against the merged tables;
    /// per-feature moments combine with Chan's parallel update.
    ///
    /// Both estimators must have been built from the *same configuration*
    /// (geometry, seed, schedule, backend kind) over disjoint stream
    /// halves. When the update stream is linear — product-mode updates with
    /// an always-pass gate, or gate decisions that agree with sequential
    /// ingestion (disjoint keys, collision-free buckets) — the merged
    /// estimates are bit-identical to single-process sequential ingestion;
    /// see the ingestion-equivalence test suite for the exact conditions.
    ///
    /// # Errors
    /// [`CodecError::Incompatible`] when configurations or backend kinds
    /// differ; any [`CodecError`] the checkpoint itself fails with.
    pub fn merge_from_checkpoint<R: std::io::Read>(&mut self, r: &mut R) -> Result<(), CodecError> {
        let other = Self::resume(r)?;
        if self.config != other.config {
            return Err(CodecError::Incompatible("estimator configuration mismatch"));
        }
        if self.backend_kind != other.backend_kind {
            return Err(CodecError::Incompatible("estimator backend kind mismatch"));
        }
        match (&mut self.backend, &other.backend) {
            (BackendState::Ascs(mine), BackendState::Ascs(theirs)) => {
                mine.merge_restored(theirs)?;
            }
            (
                BackendState::Sharded { sketch: mine, .. },
                BackendState::Sharded { sketch: theirs, .. },
            ) => {
                mine.merge_restored(theirs)?;
            }
            (BackendState::Windowed(_), BackendState::Windowed(_))
            | (BackendState::Decayed(_), BackendState::Decayed(_)) => {
                // Estimator-level merge glues *disjoint stream halves*
                // (`t` adds) — undefined for time-indexed state, where the
                // two halves occupy different windows / decay horizons.
                // Key-partitioned, time-aligned merges go through
                // `WindowedSketch::merge_restored` /
                // `DecayedSketch::merge_restored` instead.
                return Err(CodecError::Unsupported(
                    "time-aware backends cannot merge time-split checkpoints; \
                     merge time-aligned sketches via merge_restored instead",
                ));
            }
            _ => {
                return Err(CodecError::Incompatible("estimator backend kind mismatch"));
            }
        }
        self.ctx.merge_from(&other.ctx);
        self.t += other.t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EstimandKind, SketchGeometry, UpdateMode};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Builds a small low-SNR stream: `dim` features, the pair (0, 1) is a
    /// true signal (features 0 and 1 are strongly correlated), everything
    /// else is independent noise.
    fn correlated_stream(dim: usize, n: usize, rho: f64, seed: u64) -> Vec<Sample> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0_f64)).collect();
                // Make feature 1 a noisy copy of feature 0.
                v[1] = rho * v[0] + (1.0 - rho) * rng.gen_range(-1.0..1.0);
                Sample::dense(v)
            })
            .collect()
    }

    fn config(dim: u64, total: u64, range: usize) -> AscsConfig {
        AscsConfig {
            dim,
            total_samples: total,
            geometry: SketchGeometry::new(5, range),
            alpha: 0.02,
            signal_strength: 0.1,
            sigma: 0.2,
            delta: 0.05,
            delta_star: 0.20,
            tau0: 1e-4,
            estimand: EstimandKind::Covariance,
            update_mode: UpdateMode::Product,
            seed: 11,
            top_k_capacity: 50,
        }
    }

    #[test]
    #[should_panic(expected = "malformed sample")]
    fn process_sample_panics_on_a_malformed_shape() {
        let mut est = CovarianceEstimator::new(config(8, 100, 1000), SketchBackend::Ascs).unwrap();
        est.process_sample(&Sample::sparse(8, vec![(3, 1.0), (3, 1.0)]));
    }

    #[test]
    fn ascs_backend_solves_hyperparameters() {
        let est = CovarianceEstimator::new(config(50, 2000, 2000), SketchBackend::Ascs).unwrap();
        let hp = est.hyperparameters().unwrap();
        assert!(hp.t0 > 0 && hp.t0 < 2000);
        assert!(hp.theta >= 0.0 && hp.theta < 0.1);
    }

    #[test]
    fn vanilla_backend_never_skips() {
        let cfg = config(20, 200, 500);
        let samples = correlated_stream(20, 200, 0.9, 3);
        let mut est = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs).unwrap();
        est.process_all(samples.iter());
        let (inserted, skipped) = est.update_counts();
        assert!(inserted > 0);
        assert_eq!(skipped, 0);
        assert_eq!(est.processed_samples(), 200);
    }

    #[test]
    fn signal_pair_is_recovered_by_both_cs_and_ascs() {
        let dim = 30u64;
        let n = 1500usize;
        let samples = correlated_stream(dim as usize, n, 0.95, 7);
        for backend in [SketchBackend::VanillaCs, SketchBackend::Ascs] {
            let cfg = config(dim, n as u64, 4000);
            let mut est = CovarianceEstimator::new(cfg, backend).unwrap();
            est.process_all(samples.iter());
            let top = est.top_pairs(5);
            assert!(!top.is_empty(), "{backend:?} reported nothing");
            assert_eq!(
                (top[0].a, top[0].b),
                (0, 1),
                "{backend:?} failed to put the planted pair first: {top:?}"
            );
            // The estimate should be near the true covariance of the pair,
            // which for this construction is ≈ rho * Var(Y0) ≈ 0.95/3.
            assert!(top[0].estimate > 0.15, "{backend:?}: {}", top[0].estimate);
        }
    }

    #[test]
    fn ascs_skips_noise_updates_after_exploration() {
        let dim = 30u64;
        let n = 1500usize;
        let samples = correlated_stream(dim as usize, n, 0.95, 13);
        let cfg = config(dim, n as u64, 1000);
        let mut est = CovarianceEstimator::new(cfg, SketchBackend::Ascs).unwrap();
        est.process_all(samples.iter());
        let (inserted, skipped) = est.update_counts();
        assert!(skipped > 0, "ASCS never skipped anything");
        assert!(inserted > 0);
    }

    #[test]
    fn estimate_pair_matches_estimate_key() {
        let cfg = config(20, 100, 500);
        let samples = correlated_stream(20, 100, 0.9, 5);
        let mut est = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs).unwrap();
        est.process_all(samples.iter());
        let key = est.indexer().index(0, 1);
        assert_eq!(est.estimate_pair(0, 1), est.estimate_key(key));
        assert_eq!(est.estimate_pair(1, 0), est.estimate_pair(0, 1));
    }

    #[test]
    fn all_estimates_covers_every_pair() {
        let cfg = config(10, 50, 200);
        let samples = correlated_stream(10, 50, 0.8, 9);
        let mut est = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs).unwrap();
        est.process_all(samples.iter());
        let all = est.all_estimates();
        assert_eq!(all.len(), 45);
        let key = est.indexer().index(0, 1) as usize;
        assert_eq!(all[key], est.estimate_pair(0, 1));
    }

    #[test]
    fn planned_estimator_is_bit_identical_to_unplanned() {
        for backend in [
            SketchBackend::VanillaCs,
            SketchBackend::Ascs,
            SketchBackend::ShardedAscs { shards: 3 },
            SketchBackend::Windowed {
                segment_len: 32,
                segments: 3,
            },
            SketchBackend::Decayed { gamma: 0.97 },
        ] {
            let cfg = config(24, 300, 800);
            let samples = correlated_stream(24, 300, 0.9, 31);
            let mut plain = CovarianceEstimator::new(cfg, backend).unwrap();
            let mut planned = CovarianceEstimator::new(cfg, backend)
                .unwrap()
                .with_ingestion_plan()
                .unwrap();
            assert!(planned.ingestion_plan().is_some());
            assert_eq!(
                planned.ingestion_plan().unwrap().len() as u64,
                cfg.num_pairs()
            );
            for s in &samples {
                plain.process_sample(s);
                planned.process_sample(s);
            }
            assert_eq!(
                plain.update_counts(),
                planned.update_counts(),
                "{backend:?}: gate decisions diverged under the plan"
            );
            let a = plain.all_estimates();
            let b = planned.all_estimates();
            assert_eq!(a.len(), b.len());
            for (key, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x, y, "{backend:?}: estimate diverged at key {key}");
                assert_eq!(*y, planned.estimate_key(key as u64));
            }
            assert_eq!(
                plain
                    .top_pairs(10)
                    .iter()
                    .map(|p| p.key)
                    .collect::<Vec<_>>(),
                planned
                    .top_pairs(10)
                    .iter()
                    .map(|p| p.key)
                    .collect::<Vec<_>>(),
                "{backend:?}: top pairs diverged under the plan"
            );
        }
    }

    #[test]
    fn ingestion_plan_rejects_filter_backends_with_typed_error() {
        let cfg = config(20, 100, 500);
        let backend = SketchBackend::AugmentedSketch {
            filter_capacity: 16,
        };
        // Consuming form: the typed error lets callers rebuild and fall
        // back to the hashed path.
        let err = CovarianceEstimator::new(cfg, backend)
            .unwrap()
            .with_ingestion_plan()
            .err()
            .unwrap();
        assert!(matches!(err, PlanError::UnsupportedBackend(_)));
        assert!(err.to_string().contains("count-sketch-family backend"));
        // In-place form: the estimator survives the failure and keeps
        // working unplanned.
        let mut est = CovarianceEstimator::new(cfg, backend).unwrap();
        assert_eq!(
            est.attach_ingestion_plan(),
            Err(PlanError::UnsupportedBackend(backend))
        );
        assert!(est.ingestion_plan().is_none());
        est.process_sample(&Sample::dense(vec![1.0; 20]));
        assert_eq!(est.processed_samples(), 1);
    }

    #[test]
    fn ingestion_plan_rejects_oversized_pair_universes() {
        // 20_000 features → ~2·10^8 pairs, beyond the 5·10^7 plan cap. The
        // estimator itself constructs fine; only the plan is refused.
        let mut cfg = config(20_000, 100, 500);
        cfg.alpha = 1e-4;
        let err = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs)
            .unwrap()
            .with_ingestion_plan()
            .err()
            .unwrap();
        assert!(matches!(err, PlanError::UniverseTooLarge { .. }));
    }

    #[test]
    fn asketch_and_cold_filter_backends_run_end_to_end() {
        let dim = 20u64;
        let n = 400usize;
        let samples = correlated_stream(dim as usize, n, 0.95, 21);
        for backend in [
            SketchBackend::AugmentedSketch {
                filter_capacity: 32,
            },
            SketchBackend::ColdFilter {
                threshold: 1e-3,
                filter_range: 128,
            },
        ] {
            let cfg = config(dim, n as u64, 1000);
            let mut est = CovarianceEstimator::new(cfg, backend).unwrap();
            est.process_all(samples.iter());
            let top = est.top_pairs(3);
            assert!(!top.is_empty());
            assert_eq!((top[0].a, top[0].b), (0, 1), "{backend:?}: {top:?}");
        }
    }

    #[test]
    fn sharded_backend_recovers_the_signal_like_sequential_ascs() {
        let dim = 30u64;
        let n = 1200usize;
        let samples = correlated_stream(dim as usize, n, 0.95, 7);
        let cfg = config(dim, n as u64, 4000);
        let mut seq = CovarianceEstimator::new(cfg, SketchBackend::Ascs).unwrap();
        let mut sharded =
            CovarianceEstimator::new(cfg, SketchBackend::ShardedAscs { shards: 3 }).unwrap();
        for s in &samples {
            seq.process_sample(s);
            sharded.process_sample(s);
        }
        let top = sharded.top_pairs(5);
        assert!(!top.is_empty());
        assert_eq!((top[0].a, top[0].b), (0, 1), "sharded missed the signal");
        // Both gates see the same signal stream; the estimates of the
        // planted pair should be close (shard-local gating differs only in
        // collision noise visibility).
        let delta = (seq.estimate_pair(0, 1) - sharded.estimate_pair(0, 1)).abs();
        assert!(
            delta < 0.05,
            "sequential vs sharded estimate drifted: {delta}"
        );
        let (inserted, skipped) = sharded.update_counts();
        assert!(inserted > 0);
        assert!(skipped > 0, "sharded gate never engaged");
        assert_eq!(sharded.memory_words(), 3 * 5 * 4000);
    }

    #[test]
    #[should_panic(expected = "not supported on the sharded backend")]
    fn snr_probe_rejects_the_sharded_backend() {
        let cfg = config(20, 100, 500);
        let _ = CovarianceEstimator::new(cfg, SketchBackend::ShardedAscs { shards: 2 })
            .unwrap()
            .with_snr_probe([0]);
    }

    #[test]
    fn snr_probe_records_only_inserted_updates() {
        let dim = 20u64;
        let n = 600usize;
        let samples = correlated_stream(dim as usize, n, 0.95, 17);
        let cfg = config(dim, n as u64, 800);
        let signal_key = PairIndexer::new(dim).index(0, 1);
        let mut est = CovarianceEstimator::new(cfg, SketchBackend::Ascs)
            .unwrap()
            .with_snr_probe([signal_key]);
        est.process_all(samples.iter());
        let probe = est.snr_probe().unwrap();
        assert_eq!(probe.samples(), n);
        // Late-stream SNR must exceed early-stream SNR because ASCS filters
        // noise progressively.
        let early = probe.windowed_snr(0, 100).unwrap();
        // A `None` late window means no noise at all was ingested late,
        // which is an even stronger form of the claim.
        if let Some(l) = probe.windowed_snr(n - 100, n) {
            assert!(l > early, "early={early} late={l}");
        }
    }

    /// `top_pairs(k)` edge cases on every backend: `k = 0` returns empty,
    /// `k` beyond the retained set returns the whole retained set, and the
    /// ordering is estimate-desc with the key-asc tie-break throughout.
    #[test]
    fn top_pairs_edge_cases_across_all_backends() {
        let dim = 20u64;
        let n = 400usize;
        let samples = correlated_stream(dim as usize, n, 0.95, 23);
        for backend in [
            SketchBackend::VanillaCs,
            SketchBackend::Ascs,
            SketchBackend::ShardedAscs { shards: 3 },
            SketchBackend::AugmentedSketch {
                filter_capacity: 16,
            },
            SketchBackend::ColdFilter {
                threshold: 1e-3,
                filter_range: 64,
            },
            SketchBackend::Windowed {
                segment_len: 64,
                segments: 4,
            },
            SketchBackend::Decayed { gamma: 0.99 },
        ] {
            let cfg = config(dim, n as u64, 1000);
            let mut est = CovarianceEstimator::new(cfg, backend).unwrap();
            est.process_all(samples.iter());
            assert!(
                est.top_pairs(0).is_empty(),
                "{backend:?}: top_pairs(0) must be empty"
            );
            let everything = est.top_pairs(usize::MAX);
            assert!(
                !everything.is_empty() && everything.len() <= cfg.top_k_capacity,
                "{backend:?}: {} pairs retained",
                everything.len()
            );
            // Requesting more than retained returns exactly the retained set.
            assert_eq!(est.top_pairs(everything.len() + 100), everything);
            // Any prefix matches the full ranking (deterministic ordering:
            // estimate desc, ties by key asc).
            for k in [1usize, 3, everything.len()] {
                assert_eq!(est.top_pairs(k), everything[..k.min(everything.len())]);
            }
            for w in everything.windows(2) {
                let ord = w[1].estimate < w[0].estimate
                    || (w[1].estimate == w[0].estimate && w[1].key > w[0].key);
                assert!(ord, "{backend:?}: ordering violated: {w:?}");
            }
        }
    }

    /// The headline NaN-regression: a poisoned or malformed sample arriving
    /// mid-stream must leave every previously learned estimate
    /// bit-identical and the estimator fully usable afterwards, on every
    /// backend.
    #[test]
    fn nan_mid_stream_is_quarantined_and_estimates_survive() {
        let dim = 20u64;
        let n = 300usize;
        let samples = correlated_stream(dim as usize, n, 0.9, 29);
        for backend in [
            SketchBackend::VanillaCs,
            SketchBackend::Ascs,
            SketchBackend::ShardedAscs { shards: 3 },
            SketchBackend::AugmentedSketch {
                filter_capacity: 16,
            },
            SketchBackend::ColdFilter {
                threshold: 1e-3,
                filter_range: 64,
            },
            SketchBackend::Windowed {
                segment_len: 64,
                segments: 4,
            },
            SketchBackend::Decayed { gamma: 0.99 },
        ] {
            let cfg = config(dim, n as u64, 1000);
            let mut est = CovarianceEstimator::new(cfg, backend).unwrap();
            for s in &samples[..150] {
                est.process_sample(s);
            }
            let before: Vec<u64> = est.all_estimates().iter().map(|v| v.to_bits()).collect();
            let counts = est.update_counts();
            let mut poisoned = vec![0.5; dim as usize];
            poisoned[3] = f64::NAN;
            let err = est
                .try_process_sample(&Sample::dense(poisoned))
                .unwrap_err();
            // NaN != NaN, so compare the error structurally.
            match err {
                IngestError::NonFinite { index, value } => {
                    assert_eq!(index, 3);
                    assert!(value.is_nan());
                }
                other => panic!("{backend:?}: expected NonFinite, got {other:?}"),
            }
            // A sparse NaN through the lossy path counts too and emits 0.
            assert_eq!(
                est.process_sample(&Sample::sparse(dim, vec![(1, f64::INFINITY)])),
                0
            );
            // Malformed shapes are typed rejections that touch nothing.
            for (sample, expected) in [
                (
                    Sample::dense(vec![0.5; dim as usize + 1]),
                    IngestError::DimensionMismatch {
                        expected: dim,
                        found: dim + 1,
                    },
                ),
                (
                    Sample::sparse(dim, vec![(1, 1.0), (dim as u32, 1.0)]),
                    IngestError::IndexOutOfRange { index: dim, dim },
                ),
                (
                    Sample::sparse(dim, vec![(4, 1.0), (1, 1.0), (4, 2.0)]),
                    IngestError::DuplicateIndex { index: 4 },
                ),
            ] {
                assert_eq!(est.try_process_sample(&sample), Err(expected));
            }
            assert_eq!(est.quarantined_samples(), 5, "{backend:?}");
            assert_eq!(est.processed_samples(), 150, "{backend:?}: t advanced");
            assert_eq!(est.update_counts(), counts, "{backend:?}");
            let after: Vec<u64> = est.all_estimates().iter().map(|v| v.to_bits()).collect();
            assert_eq!(before, after, "{backend:?}: estimates changed");
            // The stream continues unharmed.
            for s in &samples[150..] {
                est.process_sample(s);
            }
            assert_eq!(est.processed_samples(), n as u64, "{backend:?}");
        }
    }

    /// Mid-window / mid-horizon checkpoint → resume must continue the
    /// stream bit-identically on the time-aware backends, and the
    /// estimator-level time-split merge must be refused with a typed
    /// error (windows are time-indexed; gluing disjoint stream halves is
    /// undefined).
    #[test]
    fn time_aware_checkpoints_resume_bit_identically() {
        for backend in [
            SketchBackend::Windowed {
                segment_len: 32,
                segments: 3,
            },
            SketchBackend::Decayed { gamma: 0.95 },
        ] {
            let cfg = config(16, 240, 500);
            let samples = correlated_stream(16, 240, 0.9, 41);
            let mut full = CovarianceEstimator::new(cfg, backend).unwrap();
            let mut half = CovarianceEstimator::new(cfg, backend).unwrap();
            // 130 sits mid-block (130 = 4·32 + 2): the checkpoint captures
            // a partially filled head segment.
            for s in &samples[..130] {
                full.process_sample(s);
                half.process_sample(s);
            }
            let mut bytes = Vec::new();
            half.checkpoint(&mut bytes).unwrap();
            let mut resumed = CovarianceEstimator::resume(&mut bytes.as_slice()).unwrap();
            assert_eq!(resumed.backend(), backend);
            assert_eq!(resumed.processed_samples(), 130);
            for s in &samples[130..] {
                full.process_sample(s);
                resumed.process_sample(s);
            }
            let a = full.all_estimates();
            let b = resumed.all_estimates();
            for (key, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{backend:?}: resumed stream diverged at key {key}"
                );
            }
            let mut other = CovarianceEstimator::new(cfg, backend).unwrap();
            other.process_sample(&samples[0]);
            let mut other_bytes = Vec::new();
            other.checkpoint(&mut other_bytes).unwrap();
            assert!(
                matches!(
                    full.merge_from_checkpoint(&mut other_bytes.as_slice()),
                    Err(CodecError::Unsupported(_))
                ),
                "{backend:?}: time-split merge must be refused"
            );
        }
    }

    /// The semantic point of the windowed/decayed backends: after a
    /// covariance flip, the cumulative estimate is stuck between the
    /// phases while the time-aware estimates track the current one.
    #[test]
    fn time_aware_backends_track_a_covariance_flip() {
        let dim = 12usize;
        let n = 480usize;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let samples: Vec<Sample> = (0..n)
            .map(|i| {
                let mut v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0_f64)).collect();
                // Phase A: feature 1 copies feature 0; phase B: it copies
                // the negation.
                let rho = if i < n / 2 { 0.9 } else { -0.9 };
                v[1] = rho * v[0] + 0.1 * rng.gen_range(-1.0..1.0);
                Sample::dense(v)
            })
            .collect();
        let cfg = config(dim as u64, n as u64, 1000);
        let mut cumulative = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs).unwrap();
        let mut windowed = CovarianceEstimator::new(
            cfg,
            SketchBackend::Windowed {
                segment_len: 40,
                segments: 3,
            },
        )
        .unwrap();
        let mut decayed =
            CovarianceEstimator::new(cfg, SketchBackend::Decayed { gamma: 0.98 }).unwrap();
        for s in &samples {
            cumulative.process_sample(s);
            windowed.process_sample(s);
            decayed.process_sample(s);
        }
        // The cumulative estimate averages the two phases (≈ 0); the
        // time-aware ones see only (mostly) phase B.
        let scale = n as f64 / n as f64; // T/t = 1 at the end of the stream
        let cum = cumulative.estimate_pair(0, 1) * scale;
        assert!(cum.abs() < 0.12, "cumulative should straddle: {cum}");
        assert!(
            windowed.estimate_pair(0, 1) < -0.2,
            "windowed missed phase B: {}",
            windowed.estimate_pair(0, 1)
        );
        assert!(
            decayed.estimate_pair(0, 1) < -0.2,
            "decayed missed phase B: {}",
            decayed.estimate_pair(0, 1)
        );
    }

    #[test]
    fn memory_words_reflects_geometry() {
        let cfg = config(20, 100, 500);
        let est = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs).unwrap();
        assert_eq!(est.memory_words(), 5 * 500);
    }

    #[test]
    #[should_panic(expected = "invalid ASCS configuration")]
    fn invalid_config_panics() {
        let mut cfg = config(20, 100, 500);
        cfg.alpha = 2.0;
        let _ = CovarianceEstimator::new(cfg, SketchBackend::VanillaCs);
    }
}
