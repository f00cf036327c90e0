//! Trial summaries: a metric is the median of its trials, reported with
//! the sample count and the extremes so a reader can see the spread.

use crate::json::Json;

/// Median, extremes and count of one metric's trials.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// When `values` is empty or holds a NaN — both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarise one metric's trials.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

impl Summary {
    /// The result-file form of this summary.
    pub fn to_json(self, unit: &str, better: &str) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
            ("unit", Json::Str(unit.into())),
            ("better", Json::Str(better.into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        let s = summarize(&[7.5]);
        assert_eq!((s.median, s.min, s.max, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[2.0, 2.1, 1.9, 2.0, 40.0]), 2.0);
    }
}
