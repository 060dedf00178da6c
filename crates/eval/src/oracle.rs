//! Streaming exact-covariance oracle with checkpoint snapshots.
//!
//! [`crate::ExactMatrix`] computes ground truth from a finished
//! sample collection; drift scenarios need ground truth **per phase**, i.e.
//! the exact cumulative matrix at several stream times. Recomputing the
//! matrix from scratch at every checkpoint costs `O(checkpoints · n · d²)`;
//! [`StreamingExact`] instead maintains the same single-pass accumulators
//! incrementally (`O(n · d²)` total) and snapshots them whenever the stream
//! time crosses a configured checkpoint.
//!
//! Snapshots are full [`ExactMatrix`] values, so everything built on the
//! batch oracle — signal-set selection, percentile signal strength, F1
//! scoring — works unchanged on any checkpoint.

use crate::exact::ExactMatrix;
use ascs_core::{codec, num_pairs, CodecError, EstimandKind, PairIndexer, Sample};

/// One checkpoint snapshot: the exact cumulative matrix after `t` samples.
#[derive(Debug, Clone)]
pub struct ExactSnapshot {
    /// Stream time (number of samples folded in).
    pub t: u64,
    /// The exact cumulative covariance/correlation matrix at `t`.
    pub matrix: ExactMatrix,
}

/// Streaming single-pass exact covariance/correlation accumulator.
#[derive(Debug, Clone)]
pub struct StreamingExact {
    indexer: PairIndexer,
    estimand: EstimandKind,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    cross: Vec<f64>,
    dense_scratch: Vec<f64>,
    n: u64,
    checkpoints: Vec<u64>,
    next_checkpoint: usize,
    snapshots: Vec<ExactSnapshot>,
}

impl StreamingExact {
    /// Creates an oracle for `dim`-dimensional samples that snapshots the
    /// exact matrix whenever the sample count reaches a checkpoint.
    ///
    /// # Panics
    /// Panics if `dim` is out of the dense range (see
    /// [`ExactMatrix::from_samples`]) or the checkpoints are not strictly
    /// increasing positive stream times.
    pub fn new(dim: u64, estimand: EstimandKind, checkpoints: Vec<u64>) -> Self {
        assert!(dim >= 2, "need at least two features");
        assert!(
            dim <= 20_000,
            "dense exact accumulators for d = {dim} would not fit in memory"
        );
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly increasing"
        );
        assert!(
            checkpoints.first().is_none_or(|&c| c > 0),
            "checkpoints must be positive stream times"
        );
        let d = dim as usize;
        let p = num_pairs(dim) as usize;
        Self {
            indexer: PairIndexer::new(dim),
            estimand,
            sum: vec![0.0; d],
            sum_sq: vec![0.0; d],
            cross: vec![0.0; p],
            dense_scratch: vec![0.0; d],
            n: 0,
            checkpoints,
            next_checkpoint: 0,
            snapshots: Vec::new(),
        }
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> u64 {
        self.indexer.dim()
    }

    /// Number of samples folded in so far.
    pub fn sample_count(&self) -> u64 {
        self.n
    }

    /// The configured checkpoints.
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }

    /// Snapshots taken so far (one per crossed checkpoint, in order).
    pub fn snapshots(&self) -> &[ExactSnapshot] {
        &self.snapshots
    }

    /// Folds one sample into the accumulators, snapshotting if the new
    /// sample count is a checkpoint.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn push(&mut self, sample: &Sample) {
        assert_eq!(
            sample.dim(),
            self.dim(),
            "inconsistent sample dimensionality"
        );
        let d = self.dense_scratch.len();
        self.dense_scratch.fill(0.0);
        for (i, v) in sample.nonzeros() {
            self.dense_scratch[i as usize] = v;
        }
        for a in 0..d {
            let va = self.dense_scratch[a];
            self.sum[a] += va;
            self.sum_sq[a] += va * va;
            if va == 0.0 {
                continue;
            }
            for b in (a + 1)..d {
                let vb = self.dense_scratch[b];
                if vb != 0.0 {
                    self.cross[self.indexer.index(a as u64, b as u64) as usize] += va * vb;
                }
            }
        }
        self.n += 1;
        while self
            .checkpoints
            .get(self.next_checkpoint)
            .is_some_and(|&c| c == self.n)
        {
            let matrix = self.current_matrix();
            self.snapshots.push(ExactSnapshot { t: self.n, matrix });
            self.next_checkpoint += 1;
        }
    }

    /// Serializes the oracle — accumulators, checkpoint plan and already
    /// taken snapshots — so a drift evaluation can stop mid-stream and
    /// resume later with bit-identical ground truth.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), CodecError> {
        codec::write_header(w, codec::TAG_STREAMING_EXACT)?;
        codec::write_u64(w, self.dim())?;
        codec::write_u8(w, self.estimand as u8)?;
        codec::write_u64(w, self.n)?;
        // The accumulator lengths are functions of `dim`, so they travel
        // without explicit length fields.
        codec::write_f64_slice(w, &self.sum)?;
        codec::write_f64_slice(w, &self.sum_sq)?;
        codec::write_f64_slice(w, &self.cross)?;
        codec::write_u64(w, self.checkpoints.len() as u64)?;
        for &c in &self.checkpoints {
            codec::write_u64(w, c)?;
        }
        codec::write_u64(w, self.next_checkpoint as u64)?;
        codec::write_u64(w, self.snapshots.len() as u64)?;
        for snap in &self.snapshots {
            codec::write_u64(w, snap.t)?;
            codec::write_u64(w, snap.matrix.sample_count())?;
            codec::write_f64_slice(w, snap.matrix.values())?;
        }
        Ok(())
    }

    /// Restores an oracle saved by [`StreamingExact::save`], re-validating
    /// every constructor invariant so corrupt bytes surface as a
    /// [`CodecError`] rather than a panic later.
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, CodecError> {
        codec::read_header(r, codec::TAG_STREAMING_EXACT)?;
        let dim = codec::read_u64(r)?;
        if !(2..=20_000).contains(&dim) {
            return Err(CodecError::Corrupt(
                "oracle dimensionality outside the dense range",
            ));
        }
        let estimand = match codec::read_u8(r)? {
            0 => EstimandKind::Covariance,
            1 => EstimandKind::Correlation,
            _ => return Err(CodecError::Corrupt("unknown estimand kind")),
        };
        let n = codec::read_u64(r)?;
        let d = dim as usize;
        let p = num_pairs(dim) as usize;
        let sum = codec::read_f64_vec(r, d)?;
        let sum_sq = codec::read_f64_vec(r, d)?;
        let cross = codec::read_f64_vec(r, p)?;
        let num_checkpoints = codec::read_len(r, 1 << 20, "checkpoint list length out of range")?;
        let mut checkpoints = Vec::with_capacity(num_checkpoints);
        for _ in 0..num_checkpoints {
            checkpoints.push(codec::read_u64(r)?);
        }
        let increasing = checkpoints.windows(2).all(|w| w[0] < w[1]);
        if !increasing || checkpoints.first().is_some_and(|&c| c == 0) {
            return Err(CodecError::Corrupt(
                "checkpoints must be strictly increasing positive stream times",
            ));
        }
        let next_checkpoint = codec::read_len(
            r,
            num_checkpoints as u64,
            "checkpoint cursor beyond the checkpoint list",
        )?;
        let num_snapshots =
            codec::read_len(r, num_checkpoints as u64, "more snapshots than checkpoints")?;
        let mut snapshots = Vec::with_capacity(num_snapshots);
        for _ in 0..num_snapshots {
            let t = codec::read_u64(r)?;
            let samples = codec::read_u64(r)?;
            let values = codec::read_f64_vec(r, p)?;
            snapshots.push(ExactSnapshot {
                t,
                matrix: ExactMatrix::from_parts(dim, values, estimand, samples),
            });
        }
        Ok(Self {
            indexer: PairIndexer::new(dim),
            estimand,
            sum,
            sum_sq,
            cross,
            dense_scratch: vec![0.0; d],
            n,
            checkpoints,
            next_checkpoint,
            snapshots,
        })
    }

    /// The exact cumulative matrix over everything pushed so far.
    ///
    /// # Panics
    /// Panics when no samples have been pushed.
    pub fn current_matrix(&self) -> ExactMatrix {
        assert!(self.n > 0, "cannot compute an exact matrix of nothing");
        let d = self.dense_scratch.len();
        let n = self.n as f64;
        let mean: Vec<f64> = self.sum.iter().map(|s| s / n).collect();
        let var: Vec<f64> = self
            .sum_sq
            .iter()
            .zip(&mean)
            .map(|(ss, m)| (ss / n - m * m).max(0.0))
            .collect();
        let mut values = vec![0.0f64; self.cross.len()];
        for a in 0..d {
            for b in (a + 1)..d {
                let key = self.indexer.index(a as u64, b as u64) as usize;
                let cov = self.cross[key] / n - mean[a] * mean[b];
                values[key] = match self.estimand {
                    EstimandKind::Covariance => cov,
                    EstimandKind::Correlation => {
                        let denom = (var[a] * var[b]).sqrt();
                        if denom > 0.0 {
                            cov / denom
                        } else {
                            0.0
                        }
                    }
                };
            }
        }
        ExactMatrix::from_parts(self.dim(), values, self.estimand, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascs_core::Sample;

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        // Deterministic, slightly structured samples (feature 1 tracks
        // feature 0).
        (0..n)
            .map(|i| {
                let x = ((i as u64 ^ seed).wrapping_mul(0x9E37_79B9) % 17) as f64 / 8.0 - 1.0;
                let y = 0.8 * x + ((i % 5) as f64 - 2.0) * 0.1;
                let z = ((i % 7) as f64 - 3.0) * 0.3;
                Sample::dense(vec![x, y, z])
            })
            .collect()
    }

    #[test]
    fn streaming_matches_batch_at_every_checkpoint() {
        for estimand in [EstimandKind::Covariance, EstimandKind::Correlation] {
            let all = samples(60, 3);
            let mut oracle = StreamingExact::new(3, estimand, vec![10, 25, 60]);
            for s in &all {
                oracle.push(s);
            }
            assert_eq!(oracle.sample_count(), 60);
            assert_eq!(oracle.snapshots().len(), 3);
            for snap in oracle.snapshots() {
                let batch = ExactMatrix::from_samples(&all[..snap.t as usize], estimand);
                assert_eq!(snap.matrix.num_pairs(), batch.num_pairs());
                for key in 0..batch.num_pairs() {
                    let (a, b) = (snap.matrix.value_by_key(key), batch.value_by_key(key));
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{estimand:?} t={} key={key}: streaming {a} vs batch {b}",
                        snap.t
                    );
                }
            }
        }
    }

    #[test]
    fn current_matrix_reflects_the_prefix() {
        let all = samples(30, 9);
        let mut oracle = StreamingExact::new(3, EstimandKind::Covariance, vec![]);
        for s in &all[..20] {
            oracle.push(s);
        }
        let batch = ExactMatrix::from_samples(&all[..20], EstimandKind::Covariance);
        let streaming = oracle.current_matrix();
        for key in 0..batch.num_pairs() {
            assert!((streaming.value_by_key(key) - batch.value_by_key(key)).abs() < 1e-12);
        }
        assert_eq!(streaming.sample_count(), 20);
    }

    #[test]
    fn sparse_and_dense_pushes_agree() {
        let dense = [
            Sample::dense(vec![1.0, 0.0, 3.0, 0.0]),
            Sample::dense(vec![0.0, 2.0, 0.0, 1.0]),
            Sample::dense(vec![2.0, 1.0, 3.0, 0.0]),
        ];
        let sparse = [
            Sample::sparse(4, vec![(0, 1.0), (2, 3.0)]),
            Sample::sparse(4, vec![(1, 2.0), (3, 1.0)]),
            Sample::sparse(4, vec![(0, 2.0), (1, 1.0), (2, 3.0)]),
        ];
        let mut od = StreamingExact::new(4, EstimandKind::Covariance, vec![3]);
        let mut os = StreamingExact::new(4, EstimandKind::Covariance, vec![3]);
        for (a, b) in dense.iter().zip(&sparse) {
            od.push(a);
            os.push(b);
        }
        let (ma, mb) = (&od.snapshots()[0].matrix, &os.snapshots()[0].matrix);
        for key in 0..ma.num_pairs() {
            assert!((ma.value_by_key(key) - mb.value_by_key(key)).abs() < 1e-12);
        }
    }

    #[test]
    fn unreached_checkpoints_produce_no_snapshots() {
        let mut oracle = StreamingExact::new(3, EstimandKind::Covariance, vec![5, 100]);
        for s in samples(10, 1) {
            oracle.push(&s);
        }
        assert_eq!(oracle.snapshots().len(), 1);
        assert_eq!(oracle.snapshots()[0].t, 5);
        assert_eq!(oracle.checkpoints(), &[5, 100]);
    }

    #[test]
    fn saved_oracle_resumes_bit_identically() {
        let all = samples(60, 11);
        let mut uninterrupted = StreamingExact::new(3, EstimandKind::Correlation, vec![10, 40, 55]);
        let mut front = StreamingExact::new(3, EstimandKind::Correlation, vec![10, 40, 55]);
        for s in &all[..25] {
            uninterrupted.push(s);
            front.push(s);
        }
        let mut bytes = Vec::new();
        front.save(&mut bytes).unwrap();
        let mut resumed = StreamingExact::restore(&mut bytes.as_slice()).unwrap();
        for s in &all[25..] {
            uninterrupted.push(s);
            resumed.push(s);
        }
        assert_eq!(resumed.sample_count(), uninterrupted.sample_count());
        assert_eq!(resumed.checkpoints(), uninterrupted.checkpoints());
        assert_eq!(resumed.snapshots().len(), uninterrupted.snapshots().len());
        for (a, b) in resumed.snapshots().iter().zip(uninterrupted.snapshots()) {
            assert_eq!(a.t, b.t);
            for key in 0..a.matrix.num_pairs() {
                assert_eq!(
                    a.matrix.value_by_key(key).to_bits(),
                    b.matrix.value_by_key(key).to_bits()
                );
            }
        }
        let (ma, mb) = (resumed.current_matrix(), uninterrupted.current_matrix());
        for key in 0..ma.num_pairs() {
            assert_eq!(
                ma.value_by_key(key).to_bits(),
                mb.value_by_key(key).to_bits()
            );
        }
    }

    #[test]
    fn truncated_or_corrupt_oracle_bytes_never_panic() {
        let mut oracle = StreamingExact::new(3, EstimandKind::Covariance, vec![5]);
        for s in samples(8, 4) {
            oracle.push(&s);
        }
        let mut bytes = Vec::new();
        oracle.save(&mut bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(matches!(
                StreamingExact::restore(&mut &bytes[..cut]),
                Err(ascs_core::CodecError::Truncated)
            ));
        }
        let mut bad_estimand = bytes.clone();
        bad_estimand[15] = 9; // header (7) + dim (8) + estimand byte
        assert!(matches!(
            StreamingExact::restore(&mut bad_estimand.as_slice()),
            Err(ascs_core::CodecError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_checkpoints_are_rejected() {
        StreamingExact::new(3, EstimandKind::Covariance, vec![10, 10]);
    }

    #[test]
    #[should_panic(expected = "positive stream times")]
    fn zero_checkpoint_is_rejected() {
        StreamingExact::new(3, EstimandKind::Covariance, vec![0, 10]);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn empty_oracle_has_no_matrix() {
        StreamingExact::new(3, EstimandKind::Covariance, vec![]).current_matrix();
    }
}
