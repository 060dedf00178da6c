//! Turning incoming samples into per-pair covariance/correlation updates.
//!
//! Section 4 of the paper describes how the empirical covariance entries are
//! maintained inside a count sketch: at time `t` the update for pair
//! `i = (a, b)` is `X_i^{(t)}`, inserted scaled by `1/T` so the sketch ends
//! up holding (an estimate of) the mean `μ_i`. Two update forms are
//! supported:
//!
//! * **Product** (`X_i = Y_a Y_b`) — the approximation of eq. (2), exact for
//!   centred features and the form that makes sparse data cheap: a sample
//!   with `nz` non-zeros touches only `nz(nz−1)/2` pairs.
//! * **Centered** (`X_i = (Y_a − Ȳ_a)(Y_b − Ȳ_b)`) — the running-mean form
//!   of Section 4 with the negligible "adjustment" term dropped, exactly as
//!   the paper's implementation does.
//!
//! For the correlation estimand each update is additionally divided by the
//! current running standard deviations `σ̂_a σ̂_b`, implementing the left
//! hand side of eq. (2).

use crate::config::{EstimandKind, UpdateMode};
use crate::pair::PairIndexer;
use crate::serve::IngestError;
use ascs_count_sketch::codec::{self, CodecError};
use ascs_numerics::RunningMoments;
use serde::{Deserialize, Serialize};

/// One observed sample `Y^{(t)} ∈ R^d`, either dense or sparse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Sample {
    /// Dense representation; the vector length is the dimensionality.
    Dense(Vec<f64>),
    /// Sparse representation: explicit dimensionality plus `(index, value)`
    /// entries for the non-zero coordinates.
    Sparse {
        /// Dimensionality `d`.
        dim: u64,
        /// Non-zero coordinates as `(feature index, value)` pairs.
        entries: Vec<(u32, f64)>,
    },
}

impl Sample {
    /// Builds a dense sample.
    pub fn dense(values: Vec<f64>) -> Self {
        Self::Dense(values)
    }

    /// Builds a sparse sample; entries with value exactly zero are dropped.
    pub fn sparse(dim: u64, mut entries: Vec<(u32, f64)>) -> Self {
        entries.retain(|&(_, v)| v != 0.0);
        Self::Sparse { dim, entries }
    }

    /// Dimensionality of the sample.
    pub fn dim(&self) -> u64 {
        match self {
            Self::Dense(v) => v.len() as u64,
            Self::Sparse { dim, .. } => *dim,
        }
    }

    /// Number of structurally non-zero coordinates.
    pub fn nonzero_count(&self) -> usize {
        match self {
            Self::Dense(v) => v.iter().filter(|&&x| x != 0.0).count(),
            Self::Sparse { entries, .. } => entries.len(),
        }
    }

    /// Iterates over the non-zero coordinates as `(index, value)`.
    pub fn nonzeros(&self) -> Vec<(u64, f64)> {
        match self {
            Self::Dense(v) => v
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != 0.0)
                .map(|(i, &x)| (i as u64, x))
                .collect(),
            Self::Sparse { entries, .. } => {
                entries.iter().map(|&(i, x)| (u64::from(i), x)).collect()
            }
        }
    }

    /// The first non-finite coordinate of the sample, as
    /// `(feature index, offending value)`, or `None` when every coordinate
    /// is finite. Ingest boundaries use this to quarantine poisoned samples
    /// *before* any state is touched: a single NaN update would otherwise
    /// corrupt every sketch bucket its pairs hash into. Note that
    /// [`Sample::sparse`] retains NaN entries (NaN `!= 0.0`), so sparse
    /// samples are screened like dense ones.
    pub fn first_non_finite(&self) -> Option<(u64, f64)> {
        match self {
            Self::Dense(v) => v
                .iter()
                .enumerate()
                .find(|(_, x)| !x.is_finite())
                .map(|(i, &x)| (i as u64, x)),
            Self::Sparse { entries, .. } => entries
                .iter()
                .find(|&&(_, x)| !x.is_finite())
                .map(|&(i, x)| (u64::from(i), x)),
        }
    }

    /// Screens the sample against the configured dimensionality `dim`
    /// before it may touch any state: a dense sample must hold exactly
    /// `dim` values, a sparse one must declare `dim` and name each feature
    /// index below it at most once, and every value must be finite. Every
    /// ingest boundary (the estimator, serving, WAL replay) screens first,
    /// so a malformed sample is a typed rejection instead of a panic inside
    /// the pair expansion — and never reaches a write-ahead log that every
    /// later recovery would replay into the same panic.
    ///
    /// # Errors
    /// In the order checked: [`IngestError::DimensionMismatch`],
    /// [`IngestError::IndexOutOfRange`], [`IngestError::DuplicateIndex`],
    /// [`IngestError::NonFinite`].
    pub fn screen(&self, dim: u64) -> Result<(), IngestError> {
        if self.dim() != dim {
            return Err(IngestError::DimensionMismatch {
                expected: dim,
                found: self.dim(),
            });
        }
        if let Self::Sparse { entries, .. } = self {
            if let Some(&(index, _)) = entries.iter().find(|&&(i, _)| u64::from(i) >= dim) {
                return Err(IngestError::IndexOutOfRange {
                    index: u64::from(index),
                    dim,
                });
            }
            // Generators emit sorted indices, so the usual sample costs one
            // pass; only an unsorted one pays for a sorted copy.
            if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                let mut indices: Vec<u32> = entries.iter().map(|&(i, _)| i).collect();
                indices.sort_unstable();
                if let Some(w) = indices.windows(2).find(|w| w[0] == w[1]) {
                    return Err(IngestError::DuplicateIndex {
                        index: u64::from(w[0]),
                    });
                }
            }
        }
        match self.first_non_finite() {
            Some((index, value)) => Err(IngestError::NonFinite { index, value }),
            None => Ok(()),
        }
    }

    /// Value at coordinate `i` (zero when absent).
    pub fn value(&self, i: u64) -> f64 {
        match self {
            Self::Dense(v) => v.get(i as usize).copied().unwrap_or(0.0),
            Self::Sparse { entries, .. } => entries
                .iter()
                .find(|&&(j, _)| u64::from(j) == i)
                .map(|&(_, x)| x)
                .unwrap_or(0.0),
        }
    }
}

/// One per-pair update emitted by the stream context.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairUpdate {
    /// Linear pair index (the sketch item identifier).
    pub key: u64,
    /// First feature of the pair (`a < b`).
    pub a: u64,
    /// Second feature of the pair.
    pub b: u64,
    /// The update value `X_i^{(t)}` (already normalised for correlation if
    /// the estimand asks for it, **not** yet scaled by `1/T` — the sketch
    /// layer owns that scaling).
    pub value: f64,
}

/// Streaming context: feature statistics plus the sample→updates expansion.
#[derive(Debug, Clone)]
pub struct StreamContext {
    indexer: PairIndexer,
    update_mode: UpdateMode,
    estimand: EstimandKind,
    features: Vec<RunningMoments>,
    samples_seen: u64,
}

impl StreamContext {
    /// Creates a context for `dim`-dimensional samples.
    pub fn new(dim: u64, update_mode: UpdateMode, estimand: EstimandKind) -> Self {
        assert!(dim >= 2, "need at least two features");
        assert!(
            dim <= 50_000_000,
            "per-feature statistics for dim > 5·10^7 would not fit in memory"
        );
        Self {
            indexer: PairIndexer::new(dim),
            update_mode,
            estimand,
            features: vec![RunningMoments::new(); dim as usize],
            samples_seen: 0,
        }
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> u64 {
        self.indexer.dim()
    }

    /// Number of samples ingested so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// The pair indexer shared with the sketches.
    pub fn indexer(&self) -> &PairIndexer {
        &self.indexer
    }

    /// Running mean of feature `i`.
    pub fn feature_mean(&self, i: u64) -> f64 {
        self.features[i as usize].mean()
    }

    /// Running (population) standard deviation of feature `i`.
    pub fn feature_std(&self, i: u64) -> f64 {
        self.features[i as usize].population_std()
    }

    /// Ratio |mean| / std per feature, the quantity of Figure 2. Features
    /// with zero variance report `None`.
    pub fn mean_to_std_ratios(&self) -> Vec<Option<f64>> {
        self.features
            .iter()
            .map(|m| {
                let std = m.population_std();
                if std > 0.0 {
                    Some(m.mean().abs() / std)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Ingests one sample: updates the per-feature statistics, then calls
    /// `emit` once per non-trivial pair update. Returns the number of
    /// updates emitted.
    pub fn ingest(&mut self, sample: &Sample, mut emit: impl FnMut(PairUpdate)) -> u64 {
        assert_eq!(
            sample.dim(),
            self.dim(),
            "sample dimensionality does not match the stream context"
        );
        self.samples_seen += 1;
        self.update_feature_stats(sample);

        match self.update_mode {
            UpdateMode::Product => self.emit_product_updates(sample, &mut emit),
            UpdateMode::Centered => self.emit_centered_updates(sample, &mut emit),
        }
    }

    /// Convenience wrapper collecting the updates into a vector.
    pub fn pair_updates(&mut self, sample: &Sample) -> Vec<PairUpdate> {
        let mut out = Vec::new();
        self.ingest(sample, |u| out.push(u));
        out
    }

    fn update_feature_stats(&mut self, sample: &Sample) {
        match sample {
            Sample::Dense(values) => {
                for (i, &v) in values.iter().enumerate() {
                    self.features[i].push(v);
                }
            }
            Sample::Sparse { entries, .. } => {
                // Sparse features are implicitly zero everywhere else; every
                // feature still receives one observation per sample so that
                // the running means/stds (and hence the correlation
                // normalisation) stay correct.
                let mut sorted: Vec<(usize, f64)> =
                    entries.iter().map(|&(i, v)| (i as usize, v)).collect();
                sorted.sort_unstable_by_key(|&(i, _)| i);
                let mut next = 0usize;
                for (idx, feature) in self.features.iter_mut().enumerate() {
                    if next < sorted.len() && sorted[next].0 == idx {
                        feature.push(sorted[next].1);
                        next += 1;
                    } else {
                        feature.push(0.0);
                    }
                }
            }
        }
    }

    /// Number of samples the running standard deviations must have seen
    /// before correlation-normalised updates are emitted. With fewer
    /// observations the std estimates are so noisy that a single
    /// `y_a y_b / (σ̂_a σ̂_b)` update can dwarf the rest of the stream and
    /// permanently corrupt the sketch; skipping the first few samples costs
    /// a bias of only `warmup / T` on the final estimates.
    pub const CORRELATION_WARMUP: u64 = 16;

    /// Whether the correlation estimand is still in its warm-up, when a
    /// sample emits no updates at all.
    fn correlation_warming_up(&self) -> bool {
        self.estimand == EstimandKind::Correlation && self.samples_seen <= Self::CORRELATION_WARMUP
    }

    /// Product-mode updates. For the correlation estimand each non-zero
    /// feature's σ̂ is read once per sample, not twice per pair.
    fn emit_product_updates(&self, sample: &Sample, emit: &mut impl FnMut(PairUpdate)) -> u64 {
        if self.correlation_warming_up() {
            return 0;
        }
        let nz = sample.nonzeros();
        match self.estimand {
            EstimandKind::Covariance => self.emit_product_pairs(&nz, emit, |_, _| Some(1.0)),
            EstimandKind::Correlation => {
                let stds: Vec<f64> = nz.iter().map(|&(f, _)| self.feature_std(f)).collect();
                self.emit_product_pairs(&nz, emit, |ia, ib| correlation_scale(stds[ia], stds[ib]))
            }
        }
    }

    /// The product-mode pair loop over a sample's non-zeros; `scale(ia,
    /// ib)` gets the positions in `nz` of the pair's lower and higher
    /// feature.
    fn emit_product_pairs(
        &self,
        nz: &[(u64, f64)],
        emit: &mut impl FnMut(PairUpdate),
        scale: impl Fn(usize, usize) -> Option<f64>,
    ) -> u64 {
        let mut emitted = 0;
        for i in 0..nz.len() {
            for j in (i + 1)..nz.len() {
                let (fa, va) = nz[i];
                let (fb, vb) = nz[j];
                let (a, b, va, vb, ia, ib) = if fa < fb {
                    (fa, fb, va, vb, i, j)
                } else {
                    (fb, fa, vb, va, j, i)
                };
                let Some(scale) = scale(ia, ib) else {
                    continue;
                };
                let value = va * vb * scale;
                if value == 0.0 {
                    continue;
                }
                emit(PairUpdate {
                    key: self.indexer.index(a, b),
                    a,
                    b,
                    value,
                });
                emitted += 1;
            }
        }
        emitted
    }

    /// Centered-mode updates. For the correlation estimand every feature's
    /// σ̂ is read once per sample, not twice per pair.
    fn emit_centered_updates(&self, sample: &Sample, emit: &mut impl FnMut(PairUpdate)) -> u64 {
        if self.correlation_warming_up() {
            return 0;
        }
        let d = self.dim();
        // Centered mode touches every pair; it is intended for moderate d
        // (the paper's rigorous-evaluation datasets use d = 1000).
        let centered: Vec<f64> = (0..d)
            .map(|i| sample.value(i) - self.feature_mean(i))
            .collect();
        match self.estimand {
            EstimandKind::Covariance => self.emit_centered_pairs(&centered, emit, |_, _| Some(1.0)),
            EstimandKind::Correlation => {
                let stds: Vec<f64> = (0..d).map(|i| self.feature_std(i)).collect();
                self.emit_centered_pairs(&centered, emit, |a, b| {
                    correlation_scale(stds[a], stds[b])
                })
            }
        }
    }

    /// The centered-mode pair loop over every feature pair `a < b`;
    /// `scale(a, b)` gets the two feature indices.
    fn emit_centered_pairs(
        &self,
        centered: &[f64],
        emit: &mut impl FnMut(PairUpdate),
        scale: impl Fn(usize, usize) -> Option<f64>,
    ) -> u64 {
        let d = self.dim();
        let mut emitted = 0;
        for a in 0..d {
            let ca = centered[a as usize];
            if ca == 0.0 {
                continue;
            }
            for b in (a + 1)..d {
                let cb = centered[b as usize];
                if cb == 0.0 {
                    continue;
                }
                let Some(scale) = scale(a as usize, b as usize) else {
                    continue;
                };
                emit(PairUpdate {
                    key: self.indexer.index(a, b),
                    a,
                    b,
                    value: ca * cb * scale,
                });
                emitted += 1;
            }
        }
        emitted
    }

    /// Serializes the context: dimensionality, update mode, estimand,
    /// sample counter, then every feature's running-moment accumulator as
    /// raw `(count, mean, m2, min, max)` parts so a restored context
    /// resumes centering/normalisation bit-identically.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        codec::write_header(w, codec::TAG_STREAM_CONTEXT)?;
        codec::write_u64(w, self.dim())?;
        codec::write_u8(w, self.update_mode as u8)?;
        codec::write_u8(w, self.estimand as u8)?;
        codec::write_u64(w, self.samples_seen)?;
        for feature in &self.features {
            let (count, mean, m2, min, max) = feature.to_raw_parts();
            codec::write_u64(w, count)?;
            codec::write_f64(w, mean)?;
            codec::write_f64(w, m2)?;
            codec::write_f64(w, min)?;
            codec::write_f64(w, max)?;
        }
        Ok(())
    }

    /// Restores a context saved by [`StreamContext::save`], enforcing the
    /// same dimensionality bounds as [`StreamContext::new`].
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        codec::read_header(r, codec::TAG_STREAM_CONTEXT)?;
        let dim = codec::read_u64(r)?;
        if !(2..=50_000_000).contains(&dim) {
            return Err(CodecError::Corrupt("stream dimensionality out of range"));
        }
        let update_mode = match codec::read_u8(r)? {
            0 => UpdateMode::Product,
            1 => UpdateMode::Centered,
            _ => return Err(CodecError::Corrupt("unknown update mode")),
        };
        let estimand = match codec::read_u8(r)? {
            0 => EstimandKind::Covariance,
            1 => EstimandKind::Correlation,
            _ => return Err(CodecError::Corrupt("unknown estimand kind")),
        };
        let samples_seen = codec::read_u64(r)?;
        let mut features = Vec::with_capacity((dim as usize).min(1 << 20));
        for _ in 0..dim {
            let count = codec::read_u64(r)?;
            let mean = codec::read_f64(r)?;
            let m2 = codec::read_f64(r)?;
            let min = codec::read_f64(r)?;
            let max = codec::read_f64(r)?;
            features.push(RunningMoments::from_raw_parts(count, mean, m2, min, max));
        }
        Ok(Self {
            indexer: PairIndexer::new(dim),
            update_mode,
            estimand,
            features,
            samples_seen,
        })
    }

    /// Merges another context's feature statistics into `self` using
    /// Chan's parallel-moments combination. Exact in real arithmetic;
    /// merged moments are *not* bit-identical to sequential ingestion, so
    /// cross-process merge is bit-exact for the product/covariance path
    /// (which never reads them) and approximate for centered/correlation
    /// scaling.
    ///
    /// # Panics
    /// Panics if the contexts disagree on dimensionality, update mode or
    /// estimand — the estimator-level merge validates compatibility first.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.dim(), other.dim(), "stream context dim mismatch");
        assert_eq!(
            self.update_mode, other.update_mode,
            "stream context update mode mismatch"
        );
        assert_eq!(
            self.estimand, other.estimand,
            "stream context estimand mismatch"
        );
        for (mine, theirs) in self.features.iter_mut().zip(&other.features) {
            mine.merge(theirs);
        }
        self.samples_seen += other.samples_seen;
    }
}

/// The correlation scale `1 / (σ̂_a σ̂_b)` of a pair, from the features'
/// running standard deviations; `None` when either has zero variance.
#[inline]
fn correlation_scale(sa: f64, sb: f64) -> Option<f64> {
    (sa > 0.0 && sb > 0.0).then(|| 1.0 / (sa * sb))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(v: &[f64]) -> Sample {
        Sample::dense(v.to_vec())
    }

    #[test]
    fn sample_accessors_dense_and_sparse() {
        let d = dense(&[0.0, 1.0, 0.0, 2.0]);
        assert_eq!(d.dim(), 4);
        assert_eq!(d.nonzero_count(), 2);
        assert_eq!(d.value(3), 2.0);
        assert_eq!(d.value(0), 0.0);

        let s = Sample::sparse(10, vec![(1, 1.0), (5, 0.0), (7, -2.0)]);
        assert_eq!(s.dim(), 10);
        assert_eq!(s.nonzero_count(), 2); // the explicit zero is dropped
        assert_eq!(s.value(7), -2.0);
        assert_eq!(s.value(2), 0.0);
        assert_eq!(s.nonzeros(), vec![(1, 1.0), (7, -2.0)]);
    }

    #[test]
    fn screen_types_every_malformed_shape() {
        assert_eq!(dense(&[1.0, 2.0, 3.0]).screen(3), Ok(()));
        // Unsorted but distinct, in-range sparse indices are well formed.
        assert_eq!(
            Sample::sparse(8, vec![(5, 1.0), (2, 0.5)]).screen(8),
            Ok(())
        );
        let cases = [
            (
                dense(&[1.0, 2.0, 3.0, 4.0]),
                IngestError::DimensionMismatch {
                    expected: 3,
                    found: 4,
                },
            ),
            (
                Sample::sparse(4, vec![(1, 1.0)]),
                IngestError::DimensionMismatch {
                    expected: 3,
                    found: 4,
                },
            ),
            (
                Sample::sparse(3, vec![(1, 1.0), (3, 1.0)]),
                IngestError::IndexOutOfRange { index: 3, dim: 3 },
            ),
            (
                Sample::sparse(3, vec![(2, 1.0), (0, 1.0), (2, 2.0)]),
                IngestError::DuplicateIndex { index: 2 },
            ),
        ];
        for (sample, expected) in cases {
            assert_eq!(sample.screen(3), Err(expected), "{sample:?}");
        }
        match dense(&[1.0, f64::NAN, 3.0]).screen(3) {
            Err(IngestError::NonFinite { index: 1, value }) => assert!(value.is_nan()),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn first_non_finite_screens_dense_and_sparse_samples() {
        assert_eq!(dense(&[1.0, 2.0, 3.0]).first_non_finite(), None);
        let poisoned = dense(&[1.0, f64::NAN, f64::INFINITY]);
        let (idx, val) = poisoned.first_non_finite().unwrap();
        assert_eq!(idx, 1);
        assert!(val.is_nan());
        // Sparse: NaN entries survive the zero-dropping constructor and are
        // reported with their feature index.
        let sparse = Sample::sparse(10, vec![(2, 1.0), (7, f64::NEG_INFINITY)]);
        assert_eq!(sparse.first_non_finite(), Some((7, f64::NEG_INFINITY)));
        assert_eq!(Sample::sparse(4, vec![(0, 0.5)]).first_non_finite(), None);
    }

    #[test]
    fn product_updates_enumerate_nonzero_pairs_only() {
        let mut ctx = StreamContext::new(5, UpdateMode::Product, EstimandKind::Covariance);
        let updates = ctx.pair_updates(&dense(&[1.0, 0.0, 2.0, 0.0, 3.0]));
        // Non-zero features {0, 2, 4} → 3 pairs.
        assert_eq!(updates.len(), 3);
        let values: Vec<(u64, u64, f64)> = updates.iter().map(|u| (u.a, u.b, u.value)).collect();
        assert!(values.contains(&(0, 2, 2.0)));
        assert!(values.contains(&(0, 4, 3.0)));
        assert!(values.contains(&(2, 4, 6.0)));
    }

    #[test]
    fn product_updates_respect_pair_ordering_regardless_of_entry_order() {
        let mut ctx = StreamContext::new(6, UpdateMode::Product, EstimandKind::Covariance);
        let sample = Sample::sparse(6, vec![(4, 2.0), (1, 3.0)]);
        let updates = ctx.pair_updates(&sample);
        assert_eq!(updates.len(), 1);
        assert_eq!((updates[0].a, updates[0].b), (1, 4));
        assert_eq!(updates[0].value, 6.0);
        assert_eq!(updates[0].key, ctx.indexer().index(1, 4));
    }

    #[test]
    fn correlation_normalisation_divides_by_running_stds() {
        let mut ctx = StreamContext::new(2, UpdateMode::Product, EstimandKind::Correlation);
        // During the warm-up window no correlation updates are emitted even
        // though both features are non-zero.
        for t in 0..StreamContext::CORRELATION_WARMUP {
            let x = if t % 2 == 0 { 1.0 } else { -1.0 };
            let updates = ctx.pair_updates(&dense(&[x, x]));
            assert!(updates.is_empty(), "no updates expected during warm-up");
        }
        // After warm-up the update is the product scaled by the running stds.
        let updates = ctx.pair_updates(&dense(&[1.0, 1.0]));
        assert_eq!(updates.len(), 1);
        let sa = ctx.feature_std(0);
        let sb = ctx.feature_std(1);
        assert!(sa > 0.0 && sb > 0.0);
        assert!((updates[0].value - 1.0 / (sa * sb)).abs() < 1e-12);
    }

    /// The per-pair reference the expansion must reproduce bit for bit and
    /// in order: every update recomputed from fresh `feature_std` and
    /// `feature_mean` reads of the context after it took `sample`.
    fn reference_updates(ctx: &StreamContext, sample: &Sample) -> Vec<(u64, u64)> {
        let scale = |a: u64, b: u64| match ctx.estimand {
            EstimandKind::Covariance => Some(1.0),
            EstimandKind::Correlation => {
                let (sa, sb) = (ctx.feature_std(a), ctx.feature_std(b));
                let warm = ctx.samples_seen() > StreamContext::CORRELATION_WARMUP;
                (warm && sa > 0.0 && sb > 0.0).then(|| 1.0 / (sa * sb))
            }
        };
        let mut out = Vec::new();
        match ctx.update_mode {
            UpdateMode::Product => {
                let nz = sample.nonzeros();
                for i in 0..nz.len() {
                    for j in (i + 1)..nz.len() {
                        let ((a, va), (b, vb)) = if nz[i].0 < nz[j].0 {
                            (nz[i], nz[j])
                        } else {
                            (nz[j], nz[i])
                        };
                        if let Some(s) = scale(a, b) {
                            let value = va * vb * s;
                            if value != 0.0 {
                                out.push((ctx.indexer().index(a, b), value.to_bits()));
                            }
                        }
                    }
                }
            }
            UpdateMode::Centered => {
                for a in 0..ctx.dim() {
                    for b in (a + 1)..ctx.dim() {
                        let ca = sample.value(a) - ctx.feature_mean(a);
                        let cb = sample.value(b) - ctx.feature_mean(b);
                        if ca == 0.0 || cb == 0.0 {
                            continue;
                        }
                        if let Some(s) = scale(a, b) {
                            out.push((ctx.indexer().index(a, b), (ca * cb * s).to_bits()));
                        }
                    }
                }
            }
        }
        out
    }

    /// Pins the emitted `(key, value)` bits against the per-pair reference
    /// `va · vb · (1 / (σ̂_a σ̂_b))`, so a reordered product or a changed
    /// σ̂ read shows up even where a tolerance would hide it. Covers dense
    /// samples with random zeros, sparse samples with unsorted entries, a
    /// zero-variance feature, stream times on both sides of the warm-up,
    /// and both update modes and estimands.
    #[test]
    fn expansion_bits_match_a_per_pair_reference() {
        const DIM: u64 = 9;
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = ascs_sketch_hash::splitmix64(rng);
            rng
        };
        let mut value = move || {
            let r = next();
            if r % 5 == 0 {
                0.0
            } else {
                (r >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            }
        };
        for mode in [UpdateMode::Product, UpdateMode::Centered] {
            for estimand in [EstimandKind::Covariance, EstimandKind::Correlation] {
                for sparse in [false, true] {
                    let mut ctx = StreamContext::new(DIM, mode, estimand);
                    for t in 1..=2 * StreamContext::CORRELATION_WARMUP + 8 {
                        // Feature 0 is constant: zero variance throughout.
                        let mut values: Vec<f64> = (0..DIM).map(|_| value()).collect();
                        values[0] = 1.5;
                        let sample = if sparse {
                            let mut entries: Vec<(u32, f64)> = values
                                .iter()
                                .enumerate()
                                .map(|(i, &v)| (i as u32, v))
                                .collect();
                            entries.rotate_left(t as usize % DIM as usize);
                            if t % 2 == 0 {
                                entries.reverse();
                            }
                            Sample::sparse(DIM, entries)
                        } else {
                            Sample::dense(values)
                        };
                        let got: Vec<(u64, u64)> = ctx
                            .pair_updates(&sample)
                            .iter()
                            .map(|u| {
                                assert_eq!(u.key, ctx.indexer().index(u.a, u.b));
                                (u.key, u.value.to_bits())
                            })
                            .collect();
                        let want = reference_updates(&ctx, &sample);
                        assert_eq!(
                            got, want,
                            "{mode:?}/{estimand:?} sparse={sparse}: expansion diverged at t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn centered_updates_subtract_running_means() {
        let mut ctx = StreamContext::new(3, UpdateMode::Centered, EstimandKind::Covariance);
        let _ = ctx.pair_updates(&dense(&[1.0, 2.0, 3.0]));
        let _ = ctx.pair_updates(&dense(&[3.0, 2.0, 1.0]));
        // Means are now [2, 2, 2]. Next sample [4, 2, 0]:
        // centered = [4-?,...] — means update first (they include this
        // sample): new means = [8/3, 2, 4/3]. centered = [4/3, 0, -4/3].
        let updates = ctx.pair_updates(&dense(&[4.0, 2.0, 0.0]));
        // Feature 1 centres to zero → only the (0,2) pair remains.
        assert_eq!(updates.len(), 1);
        assert_eq!((updates[0].a, updates[0].b), (0, 2));
        assert!((updates[0].value - (4.0 / 3.0) * (-4.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn centered_and_product_agree_for_zero_mean_streams() {
        // Symmetric ±1 features have zero running means in the long run, so
        // both modes should produce similar accumulated values.
        let mut prod = StreamContext::new(2, UpdateMode::Product, EstimandKind::Covariance);
        let mut cent = StreamContext::new(2, UpdateMode::Centered, EstimandKind::Covariance);
        let mut sum_p = 0.0;
        let mut sum_c = 0.0;
        for t in 0..200 {
            let x = if t % 2 == 0 { 1.0 } else { -1.0 };
            let sample = dense(&[x, x]);
            for u in prod.pair_updates(&sample) {
                sum_p += u.value;
            }
            for u in cent.pair_updates(&sample) {
                sum_c += u.value;
            }
        }
        // Product mode: every update is +1 → 200. Centered differs only by
        // the shrinking running-mean correction.
        assert!((sum_p - 200.0).abs() < 1e-9);
        assert!((sum_c - sum_p).abs() / sum_p < 0.05, "sum_c = {sum_c}");
    }

    #[test]
    fn feature_statistics_track_sparse_zeros() {
        let mut ctx = StreamContext::new(3, UpdateMode::Product, EstimandKind::Covariance);
        // Feature 2 never appears → its mean must reflect the implicit zeros.
        for _ in 0..10 {
            ctx.ingest(&Sample::sparse(3, vec![(0, 2.0)]), |_| {});
        }
        assert_eq!(ctx.feature_mean(0), 2.0);
        assert_eq!(ctx.feature_mean(2), 0.0);
        assert_eq!(ctx.samples_seen(), 10);
        let ratios = ctx.mean_to_std_ratios();
        assert_eq!(ratios.len(), 3);
        // A constant feature has zero std → no ratio.
        assert!(ratios[0].is_none());
    }

    #[test]
    fn mean_to_std_ratio_reflects_centredness() {
        let mut ctx = StreamContext::new(2, UpdateMode::Product, EstimandKind::Covariance);
        for t in 0..100 {
            let x = if t % 2 == 0 { 1.0 } else { -1.0 }; // zero-mean feature
            let y = if t % 2 == 0 { 10.0 } else { 12.0 }; // mean 11, std 1
            ctx.ingest(&dense(&[x, y]), |_| {});
        }
        let ratios = ctx.mean_to_std_ratios();
        assert!(ratios[0].unwrap() < 0.01);
        assert!(ratios[1].unwrap() > 5.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dimension_mismatch_is_rejected() {
        let mut ctx = StreamContext::new(4, UpdateMode::Product, EstimandKind::Covariance);
        ctx.ingest(&dense(&[1.0, 2.0]), |_| {});
    }

    #[test]
    fn ingest_returns_emitted_count() {
        let mut ctx = StreamContext::new(4, UpdateMode::Product, EstimandKind::Covariance);
        let n = ctx.ingest(&dense(&[1.0, 1.0, 1.0, 0.0]), |_| {});
        assert_eq!(n, 3);
    }
}
