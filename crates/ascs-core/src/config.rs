//! Configuration types shared across the ASCS core.

use crate::theory::TheoryBounds;
use serde::{Deserialize, Serialize};

/// Which matrix entries the estimator targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimandKind {
    /// Raw covariance entries `Cov(Y_a, Y_b)`.
    Covariance,
    /// Correlation entries `Cov(Y_a, Y_b) / (σ_a σ_b)` — the normalisation
    /// the paper uses for every real-data experiment.
    Correlation,
}

/// How per-pair updates are formed from a sample (Section 4 vs eq. (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateMode {
    /// `X_i^{(t)} = Y_a^{(t)} · Y_b^{(t)}` — the product approximation of
    /// eq. (2), valid when feature means are negligible relative to their
    /// standard deviations (Figure 2). This is what makes sparse samples
    /// cheap: zero features contribute no pair updates.
    Product,
    /// `X_i^{(t)} = (Y_a^{(t)} − Ȳ_a^{(t)})(Y_b^{(t)} − Ȳ_b^{(t)})` — the
    /// centred update of Section 4 using running means (the small
    /// "adjustment" term is ignored, as in the paper's implementation).
    Centered,
}

/// Count-sketch geometry: `K` rows of `R` buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchGeometry {
    /// Number of hash tables `K`.
    pub rows: usize,
    /// Buckets per hash table `R`.
    pub range: usize,
}

impl SketchGeometry {
    /// Geometry with `rows` tables of `range` buckets.
    pub fn new(rows: usize, range: usize) -> Self {
        assert!(
            rows > 0 && range > 0,
            "sketch geometry must be non-degenerate"
        );
        Self { rows, range }
    }

    /// Splits a memory budget of `budget_words` float slots across `rows`
    /// tables (`R = M / K`), the convention of Section 8.1.
    pub fn from_budget(rows: usize, budget_words: usize) -> Self {
        assert!(rows > 0, "need at least one row");
        Self {
            rows,
            range: (budget_words / rows).max(1),
        }
    }

    /// Total float slots.
    pub fn words(&self) -> usize {
        self.rows * self.range
    }
}

/// Full configuration of an ASCS run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AscsConfig {
    /// Number of features `d` of the incoming samples.
    pub dim: u64,
    /// Total number of samples `T` the stream will deliver. ASCS scales
    /// every inserted update by `1/T` so that the sketch estimates the mean
    /// `μ_i` directly (Algorithm 1 line 4 / Algorithm 2 lines 6 & 12).
    pub total_samples: u64,
    /// Sketch geometry (`K`, `R`).
    pub geometry: SketchGeometry,
    /// Assumed proportion of signal pairs `α` (Section 8.1).
    pub alpha: f64,
    /// Signal strength `u` — a lower bound on the mean of signal pairs, on
    /// the same scale as the estimand (correlation or covariance).
    pub signal_strength: f64,
    /// Noise scale `σ` — (an estimate of) the standard deviation of the
    /// per-sample pair updates `X_i`.
    pub sigma: f64,
    /// Target probability `δ` of missing a signal at the end of the
    /// exploration period (Theorem 1).
    pub delta: f64,
    /// Target total probability `δ*` of missing a signal over the whole
    /// sampling period (Theorem 2).
    pub delta_star: f64,
    /// Initial sampling threshold `τ(T0)`.
    pub tau0: f64,
    /// What is being estimated.
    pub estimand: EstimandKind,
    /// How updates are formed from samples.
    pub update_mode: UpdateMode,
    /// Seed for all hashing and any tie-breaking randomness.
    pub seed: u64,
    /// Capacity of the online top-k tracker used for reporting.
    pub top_k_capacity: usize,
}

impl AscsConfig {
    /// A reasonable starting configuration mirroring Section 8.1: `K = 5`,
    /// `δ = 0.05`, `δ* = δ + 0.15`, `τ(T0) = 10⁻⁴` (correlation scale),
    /// product updates, correlation estimand.
    pub fn recommended(dim: u64, total_samples: u64, geometry: SketchGeometry) -> Self {
        Self {
            dim,
            total_samples,
            geometry,
            alpha: 0.01,
            signal_strength: 0.5,
            sigma: 1.0,
            delta: 0.05,
            delta_star: 0.20,
            tau0: 1e-4,
            estimand: EstimandKind::Correlation,
            update_mode: UpdateMode::Product,
            seed: 0xA5C5,
            top_k_capacity: 1000,
        }
    }

    /// Number of unique pairs `p = d(d−1)/2`.
    pub fn num_pairs(&self) -> u64 {
        crate::pair::num_pairs(self.dim)
    }

    /// The Theorem 1–3 bounds of this configuration — what Algorithm 3
    /// inverts to solve `(T0, θ)` for every gated estimator and serving
    /// instance built from it.
    pub fn theory_bounds(&self) -> TheoryBounds {
        TheoryBounds::new(
            self.num_pairs(),
            self.geometry.range,
            self.geometry.rows,
            self.alpha,
            self.sigma,
            self.signal_strength,
            self.total_samples,
        )
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim < 2 {
            return Err("dim must be at least 2".into());
        }
        if self.total_samples == 0 {
            return Err("total_samples must be positive".into());
        }
        if !(0.0 < self.alpha && self.alpha < 1.0) {
            return Err(format!("alpha must be in (0,1), got {}", self.alpha));
        }
        if self.signal_strength <= 0.0 {
            return Err("signal_strength must be positive".into());
        }
        if self.sigma <= 0.0 {
            return Err("sigma must be positive".into());
        }
        if !(0.0 < self.delta && self.delta < 1.0) {
            return Err("delta must be in (0,1)".into());
        }
        if !(self.delta < self.delta_star && self.delta_star < 1.0) {
            return Err("delta_star must satisfy delta < delta_star < 1".into());
        }
        if self.tau0 < 0.0 {
            return Err("tau0 must be non-negative".into());
        }
        if self.tau0 >= self.signal_strength {
            return Err(format!(
                "tau0 ({}) must be below the signal strength ({})",
                self.tau0, self.signal_strength
            ));
        }
        if self.top_k_capacity == 0 {
            return Err("top_k_capacity must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> AscsConfig {
        AscsConfig::recommended(1000, 5000, SketchGeometry::new(5, 20_000))
    }

    #[test]
    fn recommended_config_is_valid() {
        assert_eq!(valid().validate(), Ok(()));
    }

    #[test]
    fn geometry_budget_split_matches_paper_convention() {
        let g = SketchGeometry::from_budget(5, 100_000);
        assert_eq!(g.rows, 5);
        assert_eq!(g.range, 20_000);
        assert_eq!(g.words(), 100_000);
    }

    #[test]
    fn geometry_budget_never_degenerates_to_zero_range() {
        let g = SketchGeometry::from_budget(10, 3);
        assert_eq!(g.range, 1);
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn zero_geometry_panics() {
        SketchGeometry::new(0, 10);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut c = valid();
        c.alpha = 0.0;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.delta_star = c.delta;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.tau0 = c.signal_strength;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.dim = 1;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.sigma = -1.0;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.total_samples = 0;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.top_k_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn num_pairs_consistent_with_pair_module() {
        let c = valid();
        assert_eq!(c.num_pairs(), 1000 * 999 / 2);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let c = valid();
        let json = serde_json::to_string(&c).unwrap();
        let back: AscsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
