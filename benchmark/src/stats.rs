//! Order statistics over small samples: median, quartiles, and the rule
//! for which tail percentile a sample of a given size supports.

/// Sort a copy of `xs` ascending. Values are measurements, never NaN.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method), so the
/// spreads printed here are the ones the acceptance check computes.
/// A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Extremes, median, quartiles and sample count of the repetitions of
/// one run, as every host-time metric is printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        let v = sorted(xs);
        Summary {
            min: v[0],
            q1,
            median: median(xs),
            q3,
            max: v[v.len() - 1],
            n: xs.len(),
        }
    }
}

/// The percentile ladder reports choose from, ascending.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that a sample of `n` values
/// supports: at least ten samples must lie beyond it. `None` below 20
/// samples, where not even the median has ten on each side.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| supports(n, p))
}

/// At least ten of `n` samples lie beyond the `p`-th percentile. The
/// slack absorbs the rounding of `100.0 - 99.9`.
fn supports(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9
}

/// The `p`-th percentile (nearest rank) of `xs`, or `None` when fewer
/// than ten samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !supports(xs.len(), p) {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn summary_holds_extremes_median_and_quartiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 10);
        assert_eq!((s.min, s.median, s.max), (1.0, 5.5, 10.0));
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 99.9), None);
        assert_eq!(percentile(&xs[..999], 99.0), None);
    }
}
