//! Latency samples and the percentile arithmetic the benchmark reports.
//!
//! A failed operation (error, `ERR` reply, timeout) stays in the sample
//! set as an infinitely slow sample, so failures can only push every
//! percentile up, never hide in a smaller denominator.

/// Latency samples of one operation kind, plus failures.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    failures: u64,
}

/// One percentile read off a [`Samples`] set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank (`f64::INFINITY` when that
    /// rank falls among the failures).
    pub value: f64,
    /// Samples in the set, failures included.
    pub samples: usize,
    /// Samples ranked strictly above the percentile.
    pub beyond: usize,
}

/// A named percentile needs this many samples beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn fail(&mut self) {
        self.failures += 1;
    }

    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Operations attempted: answered plus failed.
    pub fn len(&self) -> usize {
        self.values.len() + self.failures as usize
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.failures += other.failures;
    }

    /// Sum of the answered samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile `q` in `(0, 1]`: the sample at rank
    /// `ceil(q × n)` with failures ranked last.
    pub fn percentile(&self, q: f64) -> Percentile {
        assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
        let n = self.len();
        if n == 0 {
            return Percentile {
                value: f64::NAN,
                samples: 0,
                beyond: 0,
            };
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let value = sorted.get(rank - 1).copied().unwrap_or(f64::INFINITY);
        Percentile {
            value,
            samples: n,
            beyond: n - rank,
        }
    }
}

/// Median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64], failures: u64) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        for _ in 0..failures {
            s.fail();
        }
        s
    }

    #[test]
    fn nearest_rank_without_failures() {
        let s = samples(&(1..=100).map(f64::from).rev().collect::<Vec<_>>(), 0);
        assert_eq!(s.percentile(0.5).value, 50.0);
        assert_eq!(s.percentile(0.99).value, 99.0);
        assert_eq!(s.percentile(0.99).beyond, 1);
        assert_eq!(s.percentile(1.0).value, 100.0);
    }

    #[test]
    fn failures_rank_as_infinitely_slow() {
        // 95 answers of 1..=95 µs and 5 failures: p90 still lands on an
        // answer, p96 and above on a failure.
        let s = samples(&(1..=95).map(f64::from).collect::<Vec<_>>(), 5);
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(0.9).value, 90.0);
        assert_eq!(s.percentile(0.95).value, 95.0);
        assert!(s.percentile(0.96).value.is_infinite());
        assert!(s.percentile(0.99).value.is_infinite());
        // A failure also shifts a low percentile: the median of
        // {1, 2, ∞} is 2, not the 1 that dropping the failure would give.
        let t = samples(&[1.0, 2.0], 1);
        assert_eq!(t.percentile(0.5).value, 2.0);
        assert!(samples(&[], 3).percentile(0.5).value.is_infinite());
    }

    #[test]
    fn beyond_counts_what_ranks_above() {
        let s = samples(&vec![1.0; 999], 1);
        let p99 = s.percentile(0.99);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
        assert!(p99.beyond >= MIN_BEYOND);
        assert!(s.percentile(0.999).beyond < MIN_BEYOND);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
