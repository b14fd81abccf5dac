//! Order statistics over the repetitions of one unit.

use elephants_json::Value;

/// Low-order summary of a set of timing samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// The samples in the order they were taken.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarise `samples`; panics on an empty set (every workload times
    /// at least one repetition).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
            samples: samples.to_vec(),
        }
    }

    pub fn to_json(&self) -> Value {
        let num = |x: f64| Value::Float(x);
        Value::Object(vec![
            ("min".into(), num(self.min)),
            ("q1".into(), num(self.q1)),
            ("median".into(), num(self.median)),
            ("q3".into(), num(self.q3)),
            ("max".into(), num(self.max)),
            (
                "samples".into(),
                Value::Array(self.samples.iter().map(|&s| num(s)).collect()),
            ),
        ])
    }
}

/// The three quartile cut points of an ascending slice, by the method of
/// Python's `statistics.quantiles(values, n=4)` (exclusive), which is what
/// the acceptance check of this benchmark is stated in. A single value is
/// its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            [2.0, 8.0, 32.0]
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn summary_is_order_independent_and_keeps_sample_order() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
        assert_eq!(s.samples, vec![3.0, 1.0, 2.0]);
        assert_eq!(Summary::of(&[7.5]).q1, 7.5);
    }
}
