//! Non-private textbook estimators (Section 1).
//!
//! The sample mean, variance, and IQR converge at `O(1/√n)` and serve as
//! the no-privacy reference line in every experiment; the mid-range
//! estimator illustrates the introduction's point about
//! distribution-specific estimators (optimal on uniform, terrible on
//! Gaussian).

use updp_core::error::{ensure_finite, ensure_nonempty, Result};
use updp_empirical::view::ColumnView;

/// The sample mean `μ(D) = (1/n) Σ Xᵢ`.
pub fn sample_mean(data: &[f64]) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "sample_mean")?;
    let mut mean = 0.0;
    for (i, &x) in data.iter().enumerate() {
        mean += (x - mean) / (i + 1) as f64;
    }
    Ok(mean)
}

/// The (biased, 1/n) sample variance `σ²(D) = (1/n) Σ (Xᵢ − μ(D))²` —
/// the paper's definition.
pub fn sample_variance(data: &[f64]) -> Result<f64> {
    let mean = sample_mean(data)?;
    Ok(data.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64)
}

/// The sample IQR `X_{3n/4} − X_{n/4}` (1-based order statistics, the
/// paper's indexing).
pub fn sample_iqr(data: &[f64]) -> Result<f64> {
    sample_iqr_view(&ColumnView::bare(data))
}

/// [`sample_iqr`] over a [`ColumnView`] (the sorted copy comes from
/// the view; identical values).
pub(crate) fn sample_iqr_view(view: &ColumnView<'_>) -> Result<f64> {
    let data = view.data();
    ensure_nonempty(data)?;
    ensure_finite(data, "sample_iqr")?;
    let sorted = view.sorted();
    let n = sorted.len();
    let idx = |tau: usize| sorted[tau.clamp(1, n) - 1];
    Ok(idx(3 * n / 4) - idx(n / 4))
}

/// The mid-range estimator `(X₍₁₎ + X₍ₙ₎)/2`.
pub fn sample_midrange(data: &[f64]) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "sample_midrange")?;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in data {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert!((sample_mean(&d).unwrap() - 2.5).abs() < 1e-12);
        assert!((sample_variance(&d).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_on_known_data() {
        let d: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // X_{75} − X_{25} = 50.
        assert!((sample_iqr(&d).unwrap() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn midrange_basics() {
        let d = [-3.0, 0.0, 9.0];
        assert!((sample_midrange(&d).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_reject_empty_and_nan() {
        assert!(sample_mean(&[]).is_err());
        assert!(sample_variance(&[f64::NAN]).is_err());
        assert!(sample_iqr(&[]).is_err());
        assert!(sample_midrange(&[f64::INFINITY]).is_err());
    }
}
