//! Adversarial and stress workload generators for the conformance testkit.
//!
//! The paper's evaluation (and the seed reproduction) anchors correctness to
//! one dense Gaussian simulation. Real streams misbehave in ways that setup
//! never exercises: heavy-tailed feature scales, covariance structure that
//! *changes* mid-stream, duplicated/bursty samples that violate the i.i.d.
//! assumption, sparse co-occurrence patterns where a pair's first evidence
//! arrives late, and features that are almost constant. Each generator below
//! isolates one of those stressors while keeping enough analytic structure
//! to commit a nominal signal strength `u` — the `testkit` crate wraps them
//! into scored conformance scenarios (the sixth scenario, an adversarial
//! search over the committed hash seeds, lives in `testkit` because it needs
//! the sketch hash family).
//!
//! Every generator derives its per-sample RNG through
//! [`derive_sample_seed`], so
//! `sample_at` is a pure function of `(seed, index)` and streams can be
//! generated out of order, in parallel, and replayed from any offset.

use crate::stream_util::derive_sample_seed;
use ascs_core::Sample;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng_at(seed: u64, index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive_sample_seed(seed, index))
}

/// Standard normal draw via Box–Muller (mirrors `simulation`'s private
/// helper; kept local so the two modules stay independently evolvable).
fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Draws a block of `len` equicorrelated values: each output is
/// `√ρ · factor + √(1−ρ) · ε` with independent `ε` — correlation exactly
/// `ρ` within the block.
fn correlated_value(rho: f64, factor: f64, rng: &mut ChaCha8Rng) -> f64 {
    rho.sqrt() * factor + (1.0 - rho).sqrt() * standard_normal(rng)
}

// ---------------------------------------------------------------------------
// 1. Heavy-tailed Zipf feature weights
// ---------------------------------------------------------------------------

/// Gaussian stream whose feature scales follow a Zipf law
/// `w_j = scale / (j + 1)^exponent`, with one equicorrelated block planted
/// on the *highest-weight* features. Covariance entries inherit the heavy
/// tail (`Cov(a,b) = w_a w_b ρ` within the block), so the estimator must
/// cope with a few enormous entries, a band of moderate signals and a long
/// tail of near-zero-mass pairs — the regime where collision noise is
/// dominated by a handful of heavy items rather than spread evenly.
#[derive(Debug, Clone)]
pub struct ZipfWeightStream {
    dim: u64,
    seed: u64,
    block_len: usize,
    rho: f64,
    weights: Vec<f64>,
}

impl ZipfWeightStream {
    /// Builds the stream: `dim` features, Zipf exponent and scale, a
    /// planted block on features `0..block_len` with correlation `rho`.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn new(dim: u64, seed: u64, exponent: f64, scale: f64, block_len: usize, rho: f64) -> Self {
        assert!(dim >= 2 && block_len >= 2 && (block_len as u64) <= dim);
        assert!(
            (0.0..1.0).contains(&rho) && rho > 0.0,
            "rho must be in (0,1)"
        );
        assert!(exponent > 0.0 && scale > 0.0);
        let weights = (0..dim)
            .map(|j| scale / ((j + 1) as f64).powf(exponent))
            .collect();
        Self {
            dim,
            seed,
            block_len,
            rho,
            weights,
        }
    }

    /// The Zipf weight of feature `j`.
    pub fn weight(&self, j: u64) -> f64 {
        self.weights[j as usize]
    }

    /// True covariance of the pair `(a, b)` under the construction.
    pub fn true_covariance(&self, a: u64, b: u64) -> f64 {
        if a != b && (a as usize) < self.block_len && (b as usize) < self.block_len {
            self.weights[a as usize] * self.weights[b as usize] * self.rho
        } else {
            0.0
        }
    }

    /// The weakest planted covariance — the nominal signal strength `u`.
    pub fn min_signal_covariance(&self) -> f64 {
        self.true_covariance(self.block_len as u64 - 2, self.block_len as u64 - 1)
    }

    /// Number of planted signal pairs.
    pub fn signal_pair_count(&self) -> usize {
        self.block_len * (self.block_len - 1) / 2
    }

    /// The `index`-th sample (pure in `(seed, index)`).
    pub fn sample_at(&self, index: u64) -> Sample {
        let mut rng = rng_at(self.seed, index);
        let factor = standard_normal(&mut rng);
        let values = (0..self.dim as usize)
            .map(|j| {
                let latent = if j < self.block_len {
                    correlated_value(self.rho, factor, &mut rng)
                } else {
                    standard_normal(&mut rng)
                };
                self.weights[j] * latent
            })
            .collect();
        Sample::dense(values)
    }
}

// ---------------------------------------------------------------------------
// 2. Concept drift: the covariance structure flips mid-stream
// ---------------------------------------------------------------------------

/// Concept-drift stream: during the first half of the stream block **A**
/// (features `0..block_len`) is equicorrelated at `rho` and block **B**
/// (features `block_len..2·block_len`) is pure noise; at `flip_index()` the
/// structure flips. The *cumulative* covariance — what a `1/T`-scaled
/// sketch estimates — therefore dilutes linearly after the flip:
/// `Cov_cum(A; t) = ρ · min(t, flip)/t`, `Cov_cum(B; t) = ρ · max(0, t −
/// flip)/t`. Scored per phase via oracle checkpoints.
#[derive(Debug, Clone)]
pub struct CovarianceFlipStream {
    dim: u64,
    total: u64,
    seed: u64,
    block_len: usize,
    rho: f64,
}

impl CovarianceFlipStream {
    /// Builds the stream over `total` samples.
    ///
    /// # Panics
    /// Panics on degenerate parameters (the two blocks must fit in `dim`).
    pub fn new(dim: u64, total: u64, seed: u64, block_len: usize, rho: f64) -> Self {
        assert!(block_len >= 2 && 2 * block_len as u64 <= dim);
        assert!((0.0..1.0).contains(&rho) && rho > 0.0);
        assert!(total >= 2);
        Self {
            dim,
            total,
            seed,
            block_len,
            rho,
        }
    }

    /// Index of the first post-flip sample.
    pub fn flip_index(&self) -> u64 {
        self.total / 2
    }

    /// The equicorrelation of the active block.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Cumulative covariance of pair `(a, b)` after `t` samples (model
    /// value, not the empirical realisation).
    pub fn cumulative_covariance(&self, a: u64, b: u64, t: u64) -> f64 {
        if a == b || t == 0 {
            return 0.0;
        }
        let bl = self.block_len as u64;
        let in_a = a < bl && b < bl;
        let in_b = (bl..2 * bl).contains(&a) && (bl..2 * bl).contains(&b);
        let flip = self.flip_index();
        if in_a {
            self.rho * (t.min(flip) as f64) / t as f64
        } else if in_b {
            self.rho * (t.saturating_sub(flip) as f64) / t as f64
        } else {
            0.0
        }
    }

    /// The `index`-th sample (pure in `(seed, index)`).
    pub fn sample_at(&self, index: u64) -> Sample {
        let mut rng = rng_at(self.seed, index);
        let factor = standard_normal(&mut rng);
        let bl = self.block_len;
        let active = if index < self.flip_index() {
            0..bl
        } else {
            bl..2 * bl
        };
        let values = (0..self.dim as usize)
            .map(|j| {
                if active.contains(&j) {
                    correlated_value(self.rho, factor, &mut rng)
                } else {
                    standard_normal(&mut rng)
                }
            })
            .collect();
        Sample::dense(values)
    }
}

// ---------------------------------------------------------------------------
// 3. Bursty / duplicated samples
// ---------------------------------------------------------------------------

/// Bursty stream: the underlying i.i.d. stream is stretched by exact
/// duplication — sample `i` replays base draw `i / burst_len`. The marginal
/// distribution (and hence the measured update scale `σ̂`) is unchanged,
/// but the *effective* sample count drops to `T / burst_len`, inflating
/// every empirical mean's fluctuation by `√burst_len` — the
/// [`BurstyStream::dependence_factor`] the conformance budget must carry.
/// Structure: one equicorrelated block on features `0..block_len`.
#[derive(Debug, Clone)]
pub struct BurstyStream {
    dim: u64,
    seed: u64,
    burst_len: u64,
    block_len: usize,
    rho: f64,
}

impl BurstyStream {
    /// Builds the stream.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn new(dim: u64, seed: u64, burst_len: u64, block_len: usize, rho: f64) -> Self {
        assert!(burst_len >= 1);
        assert!(block_len >= 2 && block_len as u64 <= dim);
        assert!((0.0..1.0).contains(&rho) && rho > 0.0);
        Self {
            dim,
            seed,
            burst_len,
            block_len,
            rho,
        }
    }

    /// `√burst_len` — the factor by which duplication inflates the
    /// fluctuations of every `T`-sample empirical mean.
    pub fn dependence_factor(&self) -> f64 {
        (self.burst_len as f64).sqrt()
    }

    /// The planted within-block correlation.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The `index`-th sample: an exact replay of base draw
    /// `index / burst_len`.
    pub fn sample_at(&self, index: u64) -> Sample {
        let base = index / self.burst_len;
        let mut rng = rng_at(self.seed, base);
        let factor = standard_normal(&mut rng);
        let values = (0..self.dim as usize)
            .map(|j| {
                if j < self.block_len {
                    correlated_value(self.rho, factor, &mut rng)
                } else {
                    standard_normal(&mut rng)
                }
            })
            .collect();
        Sample::dense(values)
    }
}

// ---------------------------------------------------------------------------
// 4. Sparse co-occurrence blocks
// ---------------------------------------------------------------------------

/// Sparse stream with block-structured co-occurrence: each sample activates
/// exactly one of `num_blocks` disjoint feature blocks (all its features
/// fire together, sharing a random sign) plus a couple of background
/// features from the tail. Within-block pairs co-occur every time their
/// block is drawn — true covariance `≈ 1/num_blocks` — while cross-block
/// pairs **never** co-occur, so their first (and only) sketch evidence is
/// the implicit zero. This is the regime the sampling gate's cold-start
/// refinement exists for: a signal pair's first co-observation can land
/// deep inside the sampling phase.
#[derive(Debug, Clone)]
pub struct SparseBlockStream {
    dim: u64,
    seed: u64,
    num_blocks: usize,
    block_len: usize,
    background: usize,
    jitter: f64,
}

impl SparseBlockStream {
    /// Builds the stream. Blocks occupy features
    /// `0..num_blocks · block_len`; background features are drawn from the
    /// remaining tail, which must be able to host `background` distinct
    /// features.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn new(
        dim: u64,
        seed: u64,
        num_blocks: usize,
        block_len: usize,
        background: usize,
    ) -> Self {
        assert!(num_blocks >= 1 && block_len >= 2);
        let covered = (num_blocks * block_len) as u64;
        assert!(covered <= dim, "blocks exceed the feature space");
        assert!(
            (dim - covered) as usize >= background,
            "tail too small for {background} background features"
        );
        Self {
            dim,
            seed,
            num_blocks,
            block_len,
            background,
            jitter: 0.25,
        }
    }

    /// True covariance of a within-block pair: the block activation
    /// probability (values are `±(1 + jitter·ε)` with a shared sign, so the
    /// conditional product mean is `1 + jitter²·0 = 1`).
    pub fn within_block_covariance(&self) -> f64 {
        1.0 / self.num_blocks as f64
    }

    /// The `index`-th sample (pure in `(seed, index)`).
    pub fn sample_at(&self, index: u64) -> Sample {
        let mut rng = rng_at(self.seed, index);
        let block = rng.gen_range(0..self.num_blocks);
        let sign = if rng.gen_range(0..2u32) == 0 {
            1.0
        } else {
            -1.0
        };
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(self.block_len + self.background);
        let start = block * self.block_len;
        for j in start..start + self.block_len {
            let v = sign * (1.0 + self.jitter * standard_normal(&mut rng));
            entries.push((j as u32, v));
        }
        // Background features: distinct draws from the tail, outside every
        // block so they can never alias a block feature.
        let tail_start = (self.num_blocks * self.block_len) as u64;
        let tail_len = self.dim - tail_start;
        let mut chosen: Vec<u64> = Vec::with_capacity(self.background);
        while chosen.len() < self.background {
            let f = tail_start + rng.gen_range(0..tail_len);
            if !chosen.contains(&f) {
                chosen.push(f);
                entries.push((f as u32, 0.5 * standard_normal(&mut rng)));
            }
        }
        Sample::sparse(self.dim, entries)
    }
}

// ---------------------------------------------------------------------------
// 5. Near-constant features
// ---------------------------------------------------------------------------

/// Stream mixing three feature populations: an equicorrelated signal block
/// (features `0..block_len`, correlation `rho`), standard noise features,
/// and a back half of **near-constant** features sitting at `level` with a
/// tiny wobble. The near-constant half has `|mean|/std ≈ level/wobble`
/// (thousands), exactly the regime where the product update approximation
/// collapses (Figure 2 of the paper): `E[Y_a Y_b] ≈ level²` while
/// `Cov(Y_a, Y_b) ≈ 0`. Conformance scenarios therefore drive this stream
/// through the **centred** update mode, which must hold the bound where
/// product mode provably cannot.
#[derive(Debug, Clone)]
pub struct NearConstantStream {
    dim: u64,
    seed: u64,
    block_len: usize,
    rho: f64,
    level: f64,
    wobble: f64,
}

impl NearConstantStream {
    /// Builds the stream; features `dim/2..dim` are near-constant.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn new(dim: u64, seed: u64, block_len: usize, rho: f64, level: f64, wobble: f64) -> Self {
        assert!(block_len >= 2 && (block_len as u64) <= dim / 2);
        assert!((0.0..1.0).contains(&rho) && rho > 0.0);
        assert!(wobble > 0.0 && wobble < level.abs());
        Self {
            dim,
            seed,
            block_len,
            rho,
            level,
            wobble,
        }
    }

    /// The planted within-block correlation (= covariance; unit variances).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// First near-constant feature index.
    pub fn constant_start(&self) -> u64 {
        self.dim / 2
    }

    /// The `index`-th sample (pure in `(seed, index)`).
    pub fn sample_at(&self, index: u64) -> Sample {
        let mut rng = rng_at(self.seed, index);
        let factor = standard_normal(&mut rng);
        let const_start = self.constant_start() as usize;
        let values = (0..self.dim as usize)
            .map(|j| {
                if j < self.block_len {
                    correlated_value(self.rho, factor, &mut rng)
                } else if j < const_start {
                    standard_normal(&mut rng)
                } else {
                    self.level + self.wobble * standard_normal(&mut rng)
                }
            })
            .collect();
        Sample::dense(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascs_numerics::{RunningCovariance, RunningMoments};

    #[test]
    fn zipf_weights_decay_and_covariances_follow() {
        let s = ZipfWeightStream::new(24, 7, 0.75, 2.5, 6, 0.9);
        assert!(s.weight(0) > s.weight(1));
        assert!(s.weight(23) < s.weight(0) / 5.0);
        assert!(s.true_covariance(0, 1) > s.min_signal_covariance());
        assert_eq!(s.true_covariance(6, 7), 0.0);
        assert_eq!(s.true_covariance(0, 10), 0.0);
        assert_eq!(s.signal_pair_count(), 15);
        // Empirical covariance of the weakest planted pair approaches the
        // analytic value.
        let mut cov = RunningCovariance::new();
        for i in 0..6000 {
            let sample = s.sample_at(i);
            cov.push(sample.value(4), sample.value(5));
        }
        let expect = s.true_covariance(4, 5);
        assert!(
            (cov.population_covariance() - expect).abs() < 0.12 * expect.max(0.1),
            "empirical {} vs analytic {expect}",
            cov.population_covariance()
        );
    }

    #[test]
    fn covariance_flip_switches_blocks_at_the_flip_index() {
        let s = CovarianceFlipStream::new(20, 400, 3, 4, 0.85);
        assert_eq!(s.flip_index(), 200);
        let mut a_phase1 = RunningCovariance::new();
        let mut b_phase1 = RunningCovariance::new();
        let mut a_phase2 = RunningCovariance::new();
        let mut b_phase2 = RunningCovariance::new();
        for i in 0..4000 {
            // Replay phase-1 indices (i < flip) and phase-2 indices.
            let p1 = s.sample_at(i % 200);
            let p2 = s.sample_at(200 + (i % 200));
            a_phase1.push(p1.value(0), p1.value(1));
            b_phase1.push(p1.value(4), p1.value(5));
            a_phase2.push(p2.value(0), p2.value(1));
            b_phase2.push(p2.value(4), p2.value(5));
        }
        assert!(a_phase1.correlation() > 0.7, "{}", a_phase1.correlation());
        assert!(b_phase1.correlation().abs() < 0.15);
        assert!(a_phase2.correlation().abs() < 0.15);
        assert!(b_phase2.correlation() > 0.7);
        // The cumulative model halves the planted value at t = total.
        assert!((s.cumulative_covariance(0, 1, 400) - 0.425).abs() < 1e-12);
        assert!((s.cumulative_covariance(4, 5, 400) - 0.425).abs() < 1e-12);
        assert_eq!(s.cumulative_covariance(0, 1, 200), 0.85);
        assert_eq!(s.cumulative_covariance(4, 5, 200), 0.0);
        assert_eq!(s.cumulative_covariance(0, 10, 400), 0.0);
    }

    #[test]
    fn bursty_stream_duplicates_in_runs() {
        let s = BurstyStream::new(10, 5, 4, 3, 0.8);
        assert_eq!(s.dependence_factor(), 2.0);
        for base in 0..8u64 {
            let first = s.sample_at(base * 4);
            for k in 1..4 {
                assert_eq!(s.sample_at(base * 4 + k), first, "burst {base} broke");
            }
        }
        assert_ne!(s.sample_at(0), s.sample_at(4));
    }

    #[test]
    fn sparse_blocks_cooccur_and_cross_blocks_never_do() {
        let s = SparseBlockStream::new(30, 11, 4, 5, 2);
        assert_eq!(s.within_block_covariance(), 0.25);
        let mut within = RunningCovariance::new();
        let mut active_counts = [0usize; 4];
        for i in 0..4000 {
            let sample = s.sample_at(i);
            // Exactly one block active: features of other blocks are zero.
            let mut active = Vec::new();
            for b in 0..4 {
                if sample.value((b * 5) as u64) != 0.0 {
                    active.push(b);
                }
            }
            assert_eq!(active.len(), 1, "sample {i} activated {active:?}");
            active_counts[active[0]] += 1;
            within.push(sample.value(0), sample.value(1));
            // Sparse entries stay within bounds and are distinct.
            let nz = sample.nonzeros();
            assert_eq!(nz.len(), 5 + 2);
            let mut idx: Vec<u64> = nz.iter().map(|&(i, _)| i).collect();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), 7, "duplicate feature in sample {i}");
        }
        assert!(active_counts.iter().all(|&c| c > 700), "{active_counts:?}");
        assert!(
            (within.population_covariance() - 0.25).abs() < 0.05,
            "within-block covariance {}",
            within.population_covariance()
        );
    }

    #[test]
    fn near_constant_features_sit_at_the_level() {
        let s = NearConstantStream::new(20, 13, 4, 0.85, 4.0, 1e-3);
        assert_eq!(s.constant_start(), 10);
        let mut m = RunningMoments::new();
        let mut sig = RunningCovariance::new();
        for i in 0..3000 {
            let sample = s.sample_at(i);
            m.push(sample.value(15));
            sig.push(sample.value(0), sample.value(1));
        }
        assert!((m.mean() - 4.0).abs() < 1e-4);
        assert!(m.population_std() < 2e-3);
        assert!(sig.correlation() > 0.7);
    }

    #[test]
    fn all_streams_are_index_pure() {
        let zipf = ZipfWeightStream::new(16, 1, 0.8, 2.0, 4, 0.9);
        let flip = CovarianceFlipStream::new(16, 100, 2, 3, 0.8);
        let bursty = BurstyStream::new(16, 3, 3, 3, 0.8);
        let sparse = SparseBlockStream::new(16, 4, 2, 4, 1);
        let near = NearConstantStream::new(16, 5, 3, 0.8, 2.0, 1e-3);
        for i in [0u64, 7, 63] {
            assert_eq!(zipf.sample_at(i), zipf.sample_at(i));
            assert_eq!(flip.sample_at(i), flip.sample_at(i));
            assert_eq!(bursty.sample_at(i), bursty.sample_at(i));
            assert_eq!(sparse.sample_at(i), sparse.sample_at(i));
            assert_eq!(near.sample_at(i), near.sample_at(i));
        }
        // Different seeds give different streams.
        let zipf2 = ZipfWeightStream::new(16, 2, 0.8, 2.0, 4, 0.9);
        assert_ne!(zipf.sample_at(0), zipf2.sample_at(0));
    }

    #[test]
    #[should_panic(expected = "tail too small")]
    fn sparse_blocks_reject_oversubscribed_background() {
        SparseBlockStream::new(10, 0, 2, 5, 1);
    }
}
