//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. NaN when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`. NaN when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A tail percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 90.
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

/// The highest of p99 and p90 that has at least ten samples beyond
/// it; `None` when neither has.
pub fn tail(values: &[f64]) -> Option<Tail> {
    [99, 90].into_iter().find_map(|percentile| {
        let value = quantile(values, f64::from(percentile) / 100.0);
        let beyond = values.iter().filter(|&&v| v > value).count();
        (beyond >= 10).then_some(Tail {
            percentile,
            value,
            beyond,
        })
    })
}

/// The geometric mean of positive `values`. NaN when `values` is
/// empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        let t = tail(&many).unwrap();
        assert_eq!(t.percentile, 90);
        assert_eq!(t.beyond, 20);
        let lots: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&lots).unwrap().percentile, 99);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
