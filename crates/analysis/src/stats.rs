//! Descriptive statistics for experiment results.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` denominator; 0 for `n < 2`).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (mean of the middle pair for even `n`).
    pub median: f64,
}

impl Summary {
    /// The summary of an empty sample: `n = 0` and every statistic NaN.
    pub const NAN: Self = Self {
        n: 0,
        mean: f64::NAN,
        std_dev: f64::NAN,
        min: f64::NAN,
        max: f64::NAN,
        median: f64::NAN,
    };

    /// Summarises a sample.
    ///
    /// Returns `None` for an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("statistics require non-NaN samples"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Self {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
        })
    }

    /// Summarises integer observations (e.g. communication times).
    #[must_use]
    pub fn of_u32(values: &[u32]) -> Option<Self> {
        let floats: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        Self::of(&floats)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={} max={} median={:.1}",
            self.n, self.mean, self.std_dev, self.min, self.max, self.median
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic example is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn singleton_sample() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.5);
    }

    #[test]
    fn odd_median() {
        let s = Summary::of_u32(&[9, 1, 5]).unwrap();
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn display_contains_fields() {
        let s = Summary::of(&[1.0, 2.0]).unwrap().to_string();
        assert!(s.contains("mean=1.50"), "{s}");
    }
}
