//! Small summary-statistics helpers for aggregating repeated runs.

use elephants_json::impl_json_struct;

/// Mean of a slice (0.0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let m = mean(xs);
    if xs.len() < 2 {
        return (m, 0.0);
    }
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    (m, var.sqrt())
}

/// Five-number-ish summary of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl_json_struct!(Summary { n, mean, std, min, max });

impl Summary {
    /// Summarize a sample set (empty input yields zeros).
    ///
    /// Panics on NaN input: `f64::min`/`max` folds silently absorb or
    /// propagate NaN depending on argument order, so one poisoned sample
    /// would corrupt an entire aggregated table undetected.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary { n: 0, mean: 0.0, std: 0.0, min: 0.0, max: 0.0 };
        }
        assert!(!xs.iter().any(|x| x.is_nan()), "NaN sample in Summary::of: {xs:?}");
        let (m, s) = mean_std(xs);
        let min = xs.iter().copied().min_by(f64::total_cmp).unwrap();
        let max = xs.iter().copied().max_by(f64::total_cmp).unwrap();
        Summary { n: xs.len(), mean: m, std: s, min, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let (m, s) = mean_std(&[3.5]);
        assert_eq!((m, s), (3.5, 0.0));
    }

    #[test]
    fn summary_of_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
    }

    #[test]
    fn summary_min_max_handle_signs_and_infinities() {
        // total_cmp-based extrema: order does not depend on element order
        // and infinities are honest extremes, not fold-identity artifacts.
        let s = Summary::of(&[0.0, -3.5, f64::INFINITY, 2.0, f64::NEG_INFINITY]);
        assert_eq!(s.min, f64::NEG_INFINITY);
        assert_eq!(s.max, f64::INFINITY);
        let t = Summary::of(&[-2.0, -7.0, -1.0]);
        assert_eq!((t.min, t.max), (-7.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn summary_rejects_nan() {
        Summary::of(&[1.0, f64::NAN, 3.0]);
    }
}
