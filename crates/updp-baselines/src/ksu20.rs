//! \[KSU20\]-style heavy-tailed mean estimator (A1 + A2).
//!
//! For `P` with k-th central moment `μ_k ≤ μ̄_k` (assumed!) and
//! `μ ∈ [−R, R]` (assumed!):
//!
//! 1. coarse location: noisy-argmax histogram of `[−R, R]` with bins of
//!    width `2τ`, where `τ = c·(εn·μ̄_k)^{1/k}` is the truncation radius
//!    the moment bound justifies;
//! 2. clip to `[μ₀ − 2τ, μ₀ + 2τ]` and release a Laplace mean.
//!
//! Its privacy term matches Theorem 4.9 *only if* `μ̄_k` is a
//! constant-factor approximation of the true `μ_k` — which, as the paper
//! stresses, is unobtainable (even non-privately) when `μ_{2k} = ∞`. The
//! `heavy-mean` experiment sweeps the misspecification factor to show the
//! resulting degradation, while the universal estimator needs no `μ̄_k`
//! at all.

use rand::Rng;
use updp_core::clipped_mean::clipped_mean;
use updp_core::error::{ensure_finite, ensure_nonempty, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;

/// Upper limit on histogram bins (see `kv18`).
const MAX_BINS: usize = 1 << 22;

/// \[KSU20\]-style ε-DP heavy-tailed mean under A1 (`μ ∈ [−r, r]`) and A2
/// (`μ_k ≤ mu_k_bound` for the given `k`).
pub fn ksu20_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    r: f64,
    k: u32,
    mu_k_bound: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "ksu20_mean input")?;
    if !(r.is_finite() && r > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "r",
            reason: "must be finite and positive".into(),
        });
    }
    if k < 2 {
        return Err(UpdpError::InvalidParameter {
            name: "k",
            reason: "moment order must be ≥ 2".into(),
        });
    }
    if !(mu_k_bound.is_finite() && mu_k_bound > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "mu_k_bound",
            reason: "must be finite and positive".into(),
        });
    }
    let n = data.len() as f64;
    let eps = epsilon.get();
    // Truncation radius justified by the assumed moment bound.
    let tau = (2.0 * eps * n * mu_k_bound).powf(1.0 / k as f64);
    let nbins_f = (r / tau).ceil() + 2.0;
    if nbins_f > MAX_BINS as f64 {
        return Err(UpdpError::InvalidParameter {
            name: "r/tau",
            reason: format!("histogram would need {nbins_f} bins (> {MAX_BINS})"),
        });
    }
    let half = epsilon.scale(0.5);

    // Stage 1 (ε/2): coarse location over [−R−τ, R+τ] in 2τ bins.
    let nbins = nbins_f as usize;
    let mut counts = vec![0usize; nbins];
    for &x in data {
        let b = (((x + r + tau) / (2.0 * tau)).floor() as i64).clamp(0, nbins as i64 - 1) as usize;
        counts[b] += 1;
    }
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &c) in counts.iter().enumerate() {
        let v = c as f64 + sample_laplace(rng, 2.0 / half.get());
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    let center = -r - tau + (best as f64 + 0.5) * 2.0 * tau;

    // Stage 2 (ε/2): clipped Laplace mean around the located bin.
    let (lo, hi) = (center - 2.0 * tau, center + 2.0 * tau);
    let mean = clipped_mean(data, lo, hi)?;
    Ok(mean + sample_laplace(rng, (hi - lo) / (half.get() * n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Pareto, StudentT};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn accurate_with_true_moment_bound() {
        let t = StudentT::new(5.0, 3.0, 1.0).unwrap();
        let mu2 = t.central_moment(2);
        let mut rng = seeded(1);
        let data = t.sample_vec(&mut rng, 50_000);
        let m = ksu20_mean(&mut rng, &data, 100.0, 2, mu2, eps(0.5)).unwrap();
        assert!((m - 3.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn pareto_with_true_bound() {
        let p = Pareto::new(1.0, 3.0).unwrap();
        let mu2 = p.central_moment(2);
        let mut rng = seeded(2);
        let data = p.sample_vec(&mut rng, 50_000);
        let m = ksu20_mean(&mut rng, &data, 100.0, 2, mu2, eps(0.5)).unwrap();
        assert!((m - 1.5).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn overestimated_bound_inflates_noise() {
        let t = StudentT::new(5.0, 0.0, 1.0).unwrap();
        let mu2 = t.central_moment(2);
        let med = |bound: f64, master: u64| -> f64 {
            let mut errs: Vec<f64> = (0..40)
                .map(|s| {
                    let mut rng = seeded(master + s);
                    let data = t.sample_vec(&mut rng, 2_000);
                    let m = ksu20_mean(&mut rng, &data, 1000.0, 2, bound, eps(0.2)).unwrap();
                    m.abs()
                })
                .collect();
            errs.sort_by(f64::total_cmp);
            errs[20]
        };
        let honest = med(mu2, 100);
        let inflated = med(mu2 * 1e6, 200);
        assert!(
            inflated > 5.0 * honest,
            "misspecification not visible: {honest} vs {inflated}"
        );
    }

    #[test]
    fn fails_when_a1_violated() {
        let t = StudentT::new(5.0, 1e6, 1.0).unwrap();
        let mut rng = seeded(3);
        let data = t.sample_vec(&mut rng, 20_000);
        let m = ksu20_mean(&mut rng, &data, 100.0, 2, 2.0, eps(0.5)).unwrap();
        assert!((m - 1e6).abs() > 1e5, "should be badly biased: {m}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = seeded(4);
        let data = vec![0.0; 100];
        assert!(ksu20_mean(&mut rng, &data, 0.0, 2, 1.0, eps(1.0)).is_err());
        assert!(ksu20_mean(&mut rng, &data, 1.0, 1, 1.0, eps(1.0)).is_err());
        assert!(ksu20_mean(&mut rng, &data, 1.0, 2, 0.0, eps(1.0)).is_err());
    }
}
