//! Order statistics and means over measured samples.

/// Median of `xs` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Mean of the lower half of `xs` (the values up to the median, at
/// least one); `None` when empty.
pub fn lower_half_mean(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    mean(&v[..v.len().div_ceil(2)])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.99), Some(9.9));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lower_half_mean_drops_the_slow_half() {
        assert_eq!(lower_half_mean(&[100.0, 2.0, 4.0, 50.0]), Some(3.0));
        assert_eq!(lower_half_mean(&[1.0, 2.0, 9.0]), Some(1.5));
        assert_eq!(lower_half_mean(&[7.0]), Some(7.0));
        assert_eq!(lower_half_mean(&[]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean([2.0, 8.0]).expect("non-empty");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), None);
    }
}
