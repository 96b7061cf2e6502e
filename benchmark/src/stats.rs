//! Order statistics of small samples.

/// Minimum, quartiles, maximum and size of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `p`-quantile of ascending `sorted`, interpolated at position
/// `p * (n + 1)` and clamped to the sample's range: Python's
/// `statistics.quantiles(values, n=4)` for `p` = 0.25, 0.5, 0.75.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = (p * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises `values`, or `None` for an empty or non-finite sample.
pub fn summary(values: &[f64]) -> Option<Summary> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    })
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median.abs() > 0.0 {
            (self.q3 - self.q1) / self.median.abs()
        } else {
            0.0
        }
    }
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty or non-finite sample: every caller measured at
/// least once.
pub fn median(values: &[f64]) -> f64 {
    summary(values).expect("a measured sample").median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = summary(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn one_value_is_its_own_summary_and_bad_samples_have_none() {
        let s = summary(&[4.0]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.0, 4.0, 4.0, 4.0, 4.0)
        );
        assert_eq!(s.spread(), 0.0);
        assert!(summary(&[]).is_none());
        assert!(summary(&[1.0, f64::NAN]).is_none());
    }
}
