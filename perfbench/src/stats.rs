//! Order statistics for the benchmark's own samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two nearest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    let last = sorted.len().checked_sub(1)?;
    let h = last as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64))
}

/// The arithmetic mean of `values`; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so a spread printed here matches one computed over the
/// benchmark's JSON lines. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(cuts)
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values)?)
}

/// Percentiles a latency may be reported at, in tenths of a percent.
const PERCENTILES: [u32; 4] = [500, 900, 990, 999];

/// The highest of [`PERCENTILES`] that leaves at least ten of `n`
/// samples beyond it; `None` when even the median does not (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n as u64 * u64::from(1000 - p) >= 10_000)
        .map(|&p| f64::from(p) / 10.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(11.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        // Python extrapolates past the ends of a tiny sample.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([1.5, 3.0, 4.5]));
        let ten = [3.1, 2.9, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95, 3.15, 3.4];
        let [q1, q2, q3] = quartiles(&ten).unwrap();
        assert!((q1 - 2.9375).abs() < 1e-12, "{q1}");
        assert!((q2 - 3.075).abs() < 1e-12, "{q2}");
        assert!((q3 - 3.225).abs() < 1e-12, "{q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
