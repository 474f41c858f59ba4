//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark driver
//! computes spreads with; `--agree` must judge steadiness the same way.

/// The samples in ascending order; NaN sorts last and never appears in
/// practice (every sample is a measured duration or count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as `statistics.quantiles(samples, n=4)`
/// gives them; `None` below two samples (Python raises there).
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `p`-th percentile by nearest rank (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The percentiles a report may print, highest first, each with the
/// whole number of samples per sample beyond it (p90: one in ten).
const TAILS: [(f64, usize); 5] = [(99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10), (75.0, 4)];

/// The highest tail percentile with at least ten of `n` samples beyond
/// it, or `None` when even p75 has fewer: a percentile with fewer
/// samples behind it is one or two outliers, not a tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, one_in)| n >= 10 * one_in)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=112).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(56.0));
        assert_eq!(percentile(&v, 90.0), Some(101.0));
        assert_eq!(percentile(&v, 100.0), Some(112.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0), "p90 refused below n = 100");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(112), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
