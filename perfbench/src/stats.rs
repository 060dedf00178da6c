//! The benchmark's own arithmetic: distributions with the percentile rule,
//! and the accounting of failed operations.

use ascs_core::IngestError;

/// A tail percentile is reported only when at least this many samples
/// back it, so that at least ten samples lie beyond a p99.
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// A sorted sample of one timing.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// A percentile the sample is too small to support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Missing {
    /// Samples available.
    pub count: usize,
    /// Samples the percentile needs.
    pub needed: usize,
}

impl std::fmt::Display for Missing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "missing ({} samples, {} needed)",
            self.count, self.needed
        )
    }
}

impl Dist {
    /// Sorts the values; non-finite values are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "non-finite timing");
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Nearest-rank quantile `q ∈ (0, 1]`; `None` on an empty sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// The median; `None` on an empty sample.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 99th percentile, reported only from [`MIN_TAIL_SAMPLES`] or more
    /// samples.
    pub fn p99(&self) -> Result<f64, Missing> {
        if self.sorted.len() < MIN_TAIL_SAMPLES {
            return Err(Missing {
                count: self.sorted.len(),
                needed: MIN_TAIL_SAMPLES,
            });
        }
        Ok(self.quantile(0.99).expect("non-empty"))
    }

    /// The arithmetic mean; `None` on an empty sample.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }
}

/// Attempted and failed operations of one run. An operation is one sample
/// offered, one refresh, one checkpoint or one read. `Overloaded` is a
/// wait: the same sample is offered again, so it is neither a new attempt
/// nor a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in a typed error.
    pub failed: u64,
    /// `Overloaded` rejections waited out.
    pub waits: u64,
}

impl Tally {
    /// One operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One operation that failed for good.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Counts the outcome of one ingest call.
    pub fn ingest<T>(&mut self, outcome: &Result<T, IngestError>) {
        match outcome {
            Ok(_) => self.ok(),
            Err(IngestError::Overloaded { .. }) => self.waits += 1,
            Err(_) => self.fail(),
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.waits += other.waits;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let small = Dist::new((0..999).map(f64::from).collect());
        assert_eq!(
            small.p99(),
            Err(Missing {
                count: 999,
                needed: 1000
            })
        );
        let enough = Dist::new((1..=1000).map(f64::from).collect());
        // Nearest rank 990: ten samples (991..=1000) lie beyond it.
        assert_eq!(enough.p99(), Ok(990.0));
        let beyond = enough.sorted.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn median_and_quantiles_use_nearest_rank() {
        let d = Dist::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(d.median(), Some(3.0));
        assert_eq!(d.quantile(0.2), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(5.0));
        assert_eq!(d.mean(), Some(3.0));
        assert_eq!(Dist::default().median(), None);
    }

    #[test]
    fn overload_retries_are_waits_not_failures() {
        let mut t = Tally::default();
        let overloaded: Result<u64, _> = Err(IngestError::Overloaded {
            shard: 0,
            capacity: 4,
        });
        for _ in 0..5 {
            t.ingest(&overloaded);
        }
        t.ingest(&Ok::<u64, IngestError>(7));
        assert_eq!(
            t,
            Tally {
                attempted: 1,
                failed: 0,
                waits: 5
            }
        );
        assert_eq!(t.failed_share(), 0.0);
    }

    #[test]
    fn timeouts_and_failed_shards_are_failures() {
        let mut t = Tally::default();
        t.ingest(&Err::<u64, _>(IngestError::Timeout {
            waited: Duration::from_millis(5),
        }));
        t.ingest(&Err::<u64, _>(IngestError::ShardFailed { shard: 1 }));
        t.ingest(&Ok::<u64, IngestError>(1));
        t.ok();
        assert_eq!((t.attempted, t.failed, t.waits), (4, 2, 0));
        assert_eq!(t.failed_share(), 0.5);
        let mut sum = Tally::default();
        sum.merge(t);
        sum.fail();
        assert_eq!((sum.attempted, sum.failed), (5, 3));
    }
}
