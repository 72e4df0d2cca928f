//! \[BS19\]-style trimmed-mean estimator (A1 + A2).
//!
//! Bun & Steinke release an m-trimmed mean with noise calibrated to the
//! *smooth sensitivity* of the trimmed mean, under CDP; the paper
//! compares against the pure-DP translation (its footnote 7). We
//! implement the trimmed mean with the standard β-smooth upper bound on
//! its local sensitivity, computed exactly from order-statistic gaps, and
//! Laplace noise scaled by `S(D)/ε`.
//!
//! **Substitution note (DESIGN.md §3.5):** Laplace noise with β-smooth
//! sensitivity gives a slightly weaker formal guarantee than \[BS19\]'s
//! calibrated noise distributions; the *utility shape* — in particular
//! the `σ²/(ε²α²)` term and the `log(R/σ_min)` dependence of Eq. (7) that
//! the paper's Eq. (8) improves on — is preserved, which is what the
//! `arb-mean` experiment measures. The assumed range enters through the
//! clipping to `[−R, R]` exactly as in \[BS19\].

use rand::Rng;
use updp_core::clipped_mean::clip;
use updp_core::error::{ensure_finite, ensure_nonempty, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;
use updp_empirical::view::ColumnView;

/// The m-trimmed mean of sorted data: average of `X_{m+1}, …, X_{n−m}`.
fn trimmed_mean(sorted: &[f64], m: usize) -> f64 {
    let n = sorted.len();
    debug_assert!(2 * m < n);
    let slice = &sorted[m..n - m];
    slice.iter().sum::<f64>() / slice.len() as f64
}

/// β-smooth upper bound on the local sensitivity of the m-trimmed mean:
/// `S(D) = max_k e^{−kβ} · LS^{(k)}(D)` with
/// `LS^{(k)} ≤ (k+1)·(X_{(n−m+k+1)} − X_{(m−k)})/(n−2m)` (indices clamped
/// to the clipped range `[−R, R]`).
fn smooth_sensitivity(sorted: &[f64], m: usize, beta_smooth: f64, r: f64) -> f64 {
    let n = sorted.len();
    let width = (n - 2 * m) as f64;
    let at = |i: i64| -> f64 {
        if i < 0 {
            -r
        } else if i >= n as i64 {
            r
        } else {
            sorted[i as usize]
        }
    };
    let mut best = 0.0f64;
    // Terms decay as e^{−kβ}; once k exceeds ~40/β further terms cannot
    // matter because the gap term is bounded by 2R.
    let k_max = ((40.0 / beta_smooth).ceil() as usize).min(n + m);
    for k in 0..=k_max {
        let hi = at((n - m) as i64 + k as i64);
        let lo = at(m as i64 - 1 - k as i64);
        let ls_k = (k + 1) as f64 * (hi - lo) / width;
        let s = (-(k as f64) * beta_smooth).exp() * ls_k;
        best = best.max(s);
    }
    best
}

/// \[BS19\]-style ε-DP(-flavored) trimmed mean under A1 (`μ ∈ [−r, r]`).
///
/// `trim_frac` is the fraction trimmed from *each* side (default 0.05 in
/// the experiments).
pub fn bs19_trimmed_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    r: f64,
    trim_frac: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    bs19_trimmed_mean_view(rng, &ColumnView::bare(data), r, trim_frac, epsilon)
}

/// [`bs19_trimmed_mean`] over a [`ColumnView`]: the sorted copy comes
/// from the view (cached by serving snapshots), and clipping is
/// applied to the sorted sequence. Clipping to `[−r, r]` is monotone
/// under `total_cmp`, so `clip(sort(D))` and the historical
/// `sort(clip(D))` are the *same* sequence — outputs are bit-identical
/// for the same seed.
pub(crate) fn bs19_trimmed_mean_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    r: f64,
    trim_frac: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    let data = view.data();
    ensure_nonempty(data)?;
    ensure_finite(data, "bs19_trimmed_mean input")?;
    if !(r.is_finite() && r > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "r",
            reason: "must be finite and positive".into(),
        });
    }
    if !(trim_frac > 0.0 && trim_frac < 0.5) {
        return Err(UpdpError::InvalidParameter {
            name: "trim_frac",
            reason: format!("must be in (0, 0.5), got {trim_frac}"),
        });
    }
    let n = data.len();
    let m = ((n as f64 * trim_frac).ceil() as usize).max(1);
    if 2 * m >= n {
        return Err(UpdpError::InsufficientData {
            required: 2 * m + 1,
            actual: n,
            context: "BS19 trimming",
        });
    }
    let sorted: Vec<f64> = view.sorted().iter().map(|&x| clip(x, -r, r)).collect();
    let mean = trimmed_mean(&sorted, m);
    let beta_smooth = epsilon.get() / 2.0;
    let s = smooth_sensitivity(&sorted, m, beta_smooth, r);
    Ok(mean + sample_laplace(rng, (2.0 * s / epsilon.get()).max(f64::MIN_POSITIVE)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian, StudentT};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn trimmed_mean_basics() {
        let sorted = [0.0, 1.0, 2.0, 3.0, 100.0];
        assert!((trimmed_mean(&sorted, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smooth_sensitivity_small_for_concentrated_data() {
        let sorted: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let s = smooth_sensitivity(&sorted, 50, 0.5, 1e6);
        // Interior gaps are ~1e-3; even with the e^{−kβ} search the bound
        // should stay far below the crude 2R/(n−2m) ≈ 2222.
        assert!(s < 10.0, "smooth sensitivity {s}");
    }

    #[test]
    fn accurate_on_gaussian_under_assumptions() {
        let g = Gaussian::new(4.0, 1.0).unwrap();
        let mut rng = seeded(1);
        let data = g.sample_vec(&mut rng, 50_000);
        let m = bs19_trimmed_mean(&mut rng, &data, 1000.0, 0.05, eps(1.0)).unwrap();
        // Trimming a symmetric distribution is unbiased.
        assert!((m - 4.0).abs() < 0.3, "mean {m}");
    }

    #[test]
    fn robust_to_heavy_tails_given_range() {
        let t = StudentT::new(3.0, 0.0, 1.0).unwrap();
        let mut rng = seeded(2);
        let data = t.sample_vec(&mut rng, 50_000);
        let m = bs19_trimmed_mean(&mut rng, &data, 1e6, 0.05, eps(1.0)).unwrap();
        assert!(m.abs() < 0.5, "mean {m}");
    }

    #[test]
    fn biased_when_mean_outside_range() {
        let g = Gaussian::new(1e5, 1.0).unwrap();
        let mut rng = seeded(3);
        let data = g.sample_vec(&mut rng, 10_000);
        let m = bs19_trimmed_mean(&mut rng, &data, 10.0, 0.05, eps(1.0)).unwrap();
        assert!((m - 1e5).abs() > 1e4, "should be pinned at R: {m}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = seeded(4);
        let data = vec![0.0; 100];
        assert!(bs19_trimmed_mean(&mut rng, &data, 0.0, 0.05, eps(1.0)).is_err());
        assert!(bs19_trimmed_mean(&mut rng, &data, 1.0, 0.6, eps(1.0)).is_err());
        assert!(bs19_trimmed_mean(&mut rng, &[1.0, 2.0], 1.0, 0.4, eps(1.0)).is_err());
    }

    #[test]
    fn clip_of_sorted_equals_sort_of_clipped() {
        // The view-based path clips the sorted copy; the historical
        // path sorted the clipped copy. Clipping is monotone under
        // total_cmp, so the sequences must match bit for bit — pin it
        // on data with signed zeros, duplicates, and out-of-range
        // values on both sides.
        let data = [3.5, -9.0, 0.0, -0.0, 9.0, 2.0, -2.0, 2.0, -9.0, 1e-300];
        for r in [1.0, 2.5, 100.0] {
            let historical: Vec<u64> = {
                let mut v: Vec<f64> = data.iter().map(|&x| clip(x, -r, r)).collect();
                v.sort_by(f64::total_cmp);
                v.into_iter().map(f64::to_bits).collect()
            };
            let view_path: Vec<u64> = ColumnView::bare(&data)
                .sorted()
                .iter()
                .map(|&x| clip(x, -r, r).to_bits())
                .collect();
            assert_eq!(view_path, historical, "r = {r}");
        }
    }
}
