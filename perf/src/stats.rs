//! Order statistics of timing samples.

/// Sorts a sample in place; timing samples are always finite.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// The `p`-quantile (`0 <= p <= 1`) of a **sorted**, non-empty sample,
/// linearly interpolated between the two closest ranks.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// The `p`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, p)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Minimum, first quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sort(&mut sorted);
        Self {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
    }

    #[test]
    fn high_percentiles_reach_the_tail() {
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile(&sample, 0.99) - 990.01).abs() < 1e-9);
        assert_eq!(quantile(&sample, 1.0), 1000.0);
        assert_eq!(quantile(&sample, 0.0), 1.0);
    }
}
