//! Percentiles and quartiles.
//!
//! A tail percentile is only meaningful when enough samples lie beyond it:
//! [`Summary::of`] reports the highest percentile of a fixed ladder with at
//! least [`TAIL_SAMPLES`] samples beyond it, or the median alone when there
//! are fewer than 40 samples. [`quartiles`] reproduces Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method), which
//! is how run-to-run spread is judged.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median plus the best-supported tail percentile of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// `(percentile, value)` of the highest ladder percentile with at least
    /// [`TAIL_SAMPLES`] samples beyond it; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise a sample set (sorted in place). `None` when it is empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail = LADDER
            .iter()
            .copied()
            .find(|&p| beyond(n, p) >= TAIL_SAMPLES)
            .map(|p| (p, nearest_rank(samples, p)));
        Some(Summary { n, p50: nearest_rank(samples, 50.0), tail })
    }

    /// One human-readable line: `name p50 [pXX] unit (n=…)`.
    #[must_use]
    pub fn line(&self, name: &str, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => {
                format!("{name}: p50 {:.3} {unit}, p{p} {v:.3} {unit} (n={})", self.p50, self.n)
            }
            None => {
                format!("{name}: p50 {:.3} {unit} (n={}, too few for a tail)", self.p50, self.n)
            }
        }
    }
}

/// The nearest rank (1-based) of the `p`-th percentile of `n` samples. The
/// small slack keeps `99.9 % of 10 000` at rank 9990 despite rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64) - 1e-6).ceil().clamp(1.0, n as f64) as usize
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile of sorted, non-empty samples.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(data, n=4)`
/// computes them (exclusive method). Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of a value set (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn below_forty_samples_only_the_median_is_reported() {
        let s = Summary::of(&mut ramp(39)).unwrap();
        assert_eq!(s.n, 39);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.tail, None);
        assert!(s.line("x", "us").contains("n=39"));
    }

    #[test]
    fn forty_samples_support_p75_and_no_higher() {
        let s = Summary::of(&mut ramp(40)).unwrap();
        assert_eq!(s.tail, Some((75.0, 30.0)));
    }

    #[test]
    fn the_highest_percentile_with_ten_samples_beyond_it_is_chosen() {
        assert_eq!(Summary::of(&mut ramp(100)).unwrap().tail, Some((90.0, 90.0)));
        assert_eq!(Summary::of(&mut ramp(199)).unwrap().tail, Some((90.0, 180.0)));
        assert_eq!(Summary::of(&mut ramp(200)).unwrap().tail, Some((95.0, 190.0)));
        assert_eq!(Summary::of(&mut ramp(1000)).unwrap().tail, Some((99.0, 990.0)));
        assert_eq!(Summary::of(&mut ramp(10_000)).unwrap().tail, Some((99.9, 9990.0)));
        for n in [40, 57, 100, 333, 1000, 4321, 10_000] {
            let (p, _) = Summary::of(&mut ramp(n)).unwrap().tail.unwrap();
            assert!(beyond(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_sorts_unordered_input_and_rejects_empty() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(Summary::of(&mut v).unwrap().p50, 3.0);
        assert!(Summary::of(&mut []).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
