//! Order statistics over timing samples.

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// sample at or below it. `q` is a fraction in `[0, 1]`; an empty sample
/// yields `None`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Sample count, median, quartiles and 90th percentile of one metric's
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: values.len(),
            median: percentile(values, 0.5)?,
            q1: percentile(values, 0.25)?,
            q3: percentile(values, 0.75)?,
            p90: percentile(values, 0.9)?,
        })
    }
}

/// Median of `values`, or `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean of `values`, or `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_a_sample() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.05), Some(15.0));
        assert_eq!(percentile(&v, 0.30), Some(20.0));
        assert_eq!(percentile(&v, 0.40), Some(20.0));
        assert_eq!(percentile(&v, 0.50), Some(35.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(15.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_reports_quartiles() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3, s.p90), (8, 2.0, 4.0, 6.0, 8.0));
        assert_eq!(mean(&v), 4.5);
    }
}
