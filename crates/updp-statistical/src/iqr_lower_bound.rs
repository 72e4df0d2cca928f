//! `EstimateIQRLowerBound` — Algorithm 7 (Theorem 4.3).
//!
//! The statistical estimators need a bucket size for discretizing `R`.
//! Prior work (assumption A2) used the given `σ_min`; the paper instead
//! *privately lower-bounds the IQR*:
//!
//! * pair up the sample, `Yᵢ = |X − X′|`, so that (Lemmas 4.1–4.2) the
//!   `5n′/32`-th order statistic of `G = {Yᵢ}` is ≥ `ϕ(1/16)` and the
//!   `7n′/32`-th is ≤ `IQR`, both w.h.p.;
//! * binary-search the scale with *two* SVT instances over doubling /
//!   halving thresholds `2⁰, 2¹, …` and `2⁰, 2⁻¹, …` — avoiding the
//!   circular dependency on a discretization that does not exist yet.
//!
//! Theorem 4.3: with probability ≥ 1 − β,
//! `ϕ(1/16)/4 ≤ IQR̲ ≤ IQR`, at a sample cost of only
//! `O(ε⁻¹·(log log(1/ϕ(1/16)) + log log IQR))` — the log-log terms in
//! every statistical theorem come from here.
//!
//! The gap multiset `G` and its counting query `|{g ≤ 2ᵏ}|` are one
//! structure, [`updp_empirical::gaps::GapSummary`]: per-octave counts,
//! with two pairing sources: the mechanism's coins ([`pair_gaps`], bare
//! views) or the snapshot itself (the cached summary of an opted-in
//! view).

use rand::Rng;
use updp_core::error::{ensure_beta, ensure_finite, Result, UpdpError};
use updp_core::privacy::Epsilon;
use updp_core::svt::{sparse_vector, DEFAULT_SVT_CAP};
pub use updp_empirical::gaps::pair_gaps;
use updp_empirical::gaps::{pow2, SCALE_FLOOR};
use updp_empirical::view::ColumnView;

/// ε-DP lower bound on the IQR (Algorithm 7).
///
/// Returns `IQR̲` with `ϕ(1/16)/4 ≤ IQR̲ ≤ IQR` w.p. ≥ 1 − β, provided
/// `n` meets Theorem 4.3's (log-log sized) requirement.
pub fn estimate_iqr_lower_bound<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    estimate_iqr_lower_bound_view(rng, &ColumnView::bare(data), epsilon, beta)
}

/// [`estimate_iqr_lower_bound`] over a [`ColumnView`].
///
/// The pair gaps come from the view's cached gap summary when it
/// carries one (DESIGN.md §12.3, opt-in via
/// `PreparedDataset::with_gap_summaries`): no per-call pairing.
/// Otherwise the records are paired with the mechanism's coins
/// ([`pair_gaps`]). Either way the column is first scanned once for
/// non-finite values, and every counting query is an O(1) lookup in
/// the summary's per-octave counts. The two sources draw different
/// coins, so they release different (equally valid) values; each is
/// bit-reproducible per `(data, seed)`.
pub fn estimate_iqr_lower_bound_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    ensure_finite(view.data(), "estimate_iqr_lower_bound input")?;
    if view.len() < 4 {
        return Err(UpdpError::InsufficientData {
            required: 4,
            actual: view.len(),
            context: "EstimateIQRLowerBound pairing",
        });
    }
    ensure_beta(beta)?;
    Ok(iqr_lower_bound(rng, view, epsilon))
}

/// Algorithm 7 on a column its caller has checked: finite, at least
/// four records, and a valid β (which the search never reads). The
/// universal estimators call it after their own stricter checks, so
/// each of their calls scans its column for non-finite values once.
/// It pairs the records (or reads the view's gap summary), then runs
/// the two-SVT scale search of lines 3–9 over the gap counting query
/// `|{g ≤ pow2(k)}|`.
pub(crate) fn iqr_lower_bound<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    epsilon: Epsilon,
) -> f64 {
    let gaps = match view.gap_summary() {
        Some(summary) => summary,
        None => std::sync::Arc::new(pair_gaps(rng, view.data())),
    };
    let n_prime = gaps.pairs() as f64;
    let threshold = 3.0 * n_prime / 16.0;
    let half = epsilon.scale(0.5);

    // SVT #1: increasing scales 2⁰, 2¹, 2², … hunting for the scale at
    // which the count of small gaps crosses 3n′/16 from below.
    let up = sparse_vector(
        rng,
        threshold,
        half,
        |i| gaps.count_le_pow2(i as i32) as f64,
        DEFAULT_SVT_CAP,
    );

    // SVT #2: decreasing scales 2⁰, 2⁻¹, 2⁻², … on the negated counts.
    let down = sparse_vector(
        rng,
        -threshold,
        half,
        |j| -(gaps.count_le_pow2(-(j as i32)) as f64),
        DEFAULT_SVT_CAP,
    );

    // Algorithm 7 lines 5–9: prefer the increasing search if it moved.
    let result = if up.index > 1 {
        pow2(up.index as i32 - 2)
    } else {
        pow2(-(down.index as i32))
    };
    result.max(SCALE_FLOOR)
}

/// Theorem 4.3's minimum sample size (with explicit constants `c₁ = c₂ =
/// c₃ = 8`, the values our experiments validate):
/// `n > (c₁/ε)·log log(1/ϕ) + (c₂/ε)·log log IQR + (c₃/ε)·log(1/β)`.
pub fn iqr_lb_required_n(epsilon: Epsilon, phi: f64, iqr: f64, beta: f64) -> usize {
    let e = epsilon.get();
    let loglog = |x: f64| x.ln().max(1.0).ln().max(1.0);
    let t1 = 8.0 / e * loglog(1.0 / phi.max(1e-300));
    let t2 = 8.0 / e * loglog(iqr.max(1.0));
    let t3 = 8.0 / e * (1.0 / beta).ln().max(1.0);
    (t1 + t2 + t3).ceil() as usize
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian, GaussianMixture, Uniform};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn bound_holds_on_standard_gaussian() {
        let g = Gaussian::standard();
        let phi = g.phi(1.0 / 16.0);
        let iqr = g.iqr();
        let e = eps(1.0);
        let beta = 0.1;
        let mut violations = 0;
        for seed in 0..100 {
            let mut rng = seeded(seed);
            let data = g.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, e, beta).unwrap();
            if !(phi / 4.0 <= lb && lb <= iqr) {
                violations += 1;
            }
        }
        assert!(violations <= 15, "Theorem 4.3 violated {violations}/100");
    }

    #[test]
    fn tracks_scale_across_decades() {
        // σ = 1000: IQR ≈ 1349, ϕ/4 ≈ 39. The returned power of two must
        // land between them.
        let g = Gaussian::new(0.0, 1000.0).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(200 + seed);
            let data = g.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
            if lb >= g.phi(1.0 / 16.0) / 4.0 && lb <= g.iqr() {
                ok += 1;
            }
        }
        assert!(ok >= 42, "large-scale tracking ok only {ok}/50");
    }

    #[test]
    fn tracks_tiny_scales() {
        let g = Gaussian::new(5.0, 1e-6).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(300 + seed);
            let data = g.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
            if lb >= g.phi(1.0 / 16.0) / 4.0 && lb <= g.iqr() {
                ok += 1;
            }
        }
        assert!(ok >= 42, "tiny-scale tracking ok only {ok}/50");
    }

    #[test]
    fn ill_behaved_spike_returns_small_bucket() {
        // Half the mass in a 1e-5-wide spike: the lower bound must fall
        // below the *spike's* scale, not the overall σ ≈ 0.7.
        let m = GaussianMixture::ill_behaved_spike(1e-5).unwrap();
        let mut rng = seeded(4);
        let data = m.sample_vec(&mut rng, 8000);
        let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
        assert!(lb <= m.iqr(), "lb {lb} above IQR {}", m.iqr());
    }

    #[test]
    fn uniform_bound_holds() {
        let u = Uniform::new(-50.0, 50.0).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(500 + seed);
            let data = u.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
            if lb >= u.phi(1.0 / 16.0) / 4.0 && lb <= u.iqr() {
                ok += 1;
            }
        }
        assert!(ok >= 42, "uniform ok only {ok}/50");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(6);
        assert!(estimate_iqr_lower_bound(&mut rng, &[1.0, 2.0], eps(1.0), 0.1).is_err());
        assert!(
            estimate_iqr_lower_bound(&mut rng, &[1.0, f64::NAN, 2.0, 3.0], eps(1.0), 0.1).is_err()
        );
        assert!(estimate_iqr_lower_bound(&mut rng, &[1.0, 2.0, 3.0, 4.0], eps(1.0), 1.5).is_err());
    }

    #[test]
    fn degenerate_identical_data_hits_floor() {
        // All points identical: every gap is 0; SVT#1 fires immediately
        // (count = n′ ≥ T at x = 1? count_le_pow2(0) = n′ > 3n′/16, so the
        // first query already fires → ĩ = 1 → descend), and the descent
        // never crosses, ending at the floor.
        let data = vec![3.25f64; 2000];
        let mut rng = seeded(7);
        let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
        assert!(lb > 0.0, "bucket must remain positive");
    }

    #[test]
    fn required_n_is_log_log_small() {
        let n = iqr_lb_required_n(eps(1.0), 1e-12, 1e9, 0.1);
        // log log of astronomically bad parameters is still tiny.
        assert!(n < 200, "required n = {n}");
    }
}
