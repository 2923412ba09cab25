//! Descriptive statistics: mean, variance, quantiles, extremes.

use crate::StatsError;

/// One-pass summary of a sample (Welford's algorithm for the variance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance (n − 1 denominator); 0 for n < 2.
    pub variance: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Errors if the sample is empty or contains NaN.
    pub fn of(xs: &[f64]) -> Result<Summary, StatsError> {
        if xs.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, &x) in xs.iter().enumerate() {
            if x.is_nan() {
                return Err(StatsError::InvalidSample(x));
            }
            let delta = x - mean;
            mean += delta / (i as f64 + 1.0);
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let variance = if xs.len() > 1 {
            m2 / (xs.len() as f64 - 1.0)
        } else {
            0.0
        };
        Ok(Summary {
            n: xs.len(),
            mean,
            variance,
            min,
            max,
        })
    }
}

/// The `q`-th quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics (type-7, the R/NumPy default). The input need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::BadParameter {
            name: "q",
            value: q,
        });
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    if sorted.iter().any(|x| x.is_nan()) {
        return Err(StatsError::InvalidSample(f64::NAN));
    }
    sorted.sort_by(f64::total_cmp);
    let h = q * (sorted.len() as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The median (50th percentile).
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_summary() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_element() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn empty_and_nan_rejected() {
        assert!(Summary::of(&[]).is_err());
        assert!(Summary::of(&[1.0, f64::NAN]).is_err());
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(median(&xs).unwrap(), 2.5);
        // Order independence.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(median(&shuffled).unwrap(), 2.5);
    }

    proptest! {
        #[test]
        fn mean_between_min_and_max(xs in proptest::collection::vec(-1e6..1e6f64, 1..100)) {
            let s = Summary::of(&xs).unwrap();
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.variance >= -1e-9);
        }

        #[test]
        fn quantile_monotone(xs in proptest::collection::vec(-1e6..1e6f64, 2..50)) {
            let q1 = quantile(&xs, 0.25).unwrap();
            let q2 = quantile(&xs, 0.5).unwrap();
            let q3 = quantile(&xs, 0.75).unwrap();
            prop_assert!(q1 <= q2 + 1e-9);
            prop_assert!(q2 <= q3 + 1e-9);
        }
    }
}
