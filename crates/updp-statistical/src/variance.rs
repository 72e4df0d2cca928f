//! `EstimateVariance` — Algorithm 9 (Theorems 5.2, 5.3, 5.5).
//!
//! Reduction to mean estimation: pair the sample, set
//! `Z = (X − X′)²` so `E[Z] = 2σ²` (Eq. 41), and estimate `E[Z]` with the
//! universal machinery. Two simplifications relative to `EstimateMean`:
//!
//! * `Z ≥ 0` and the target range is zero-anchored, so only a *radius*
//!   (`InfiniteDomainRadius`) is needed, not a full range — finding a
//!   width is exponentially easier than finding a location, which is why
//!   Theorem 5.3's first term is `log log σ` where the mean's is `log|μ|`;
//! * the bucket size is `IQR̲²` (squared, to live on `Z`'s scale).
//!
//! Theorem 5.5 is the *first* private variance estimator for heavy-tailed
//! distributions.

use crate::estimator::{Estimator, Release};
use crate::iqr_lower_bound::iqr_lower_bound;
use rand::Rng;
use updp_core::amplification::paper_inner_epsilon;
use updp_core::clipped_mean::clipped_mean_with_outside;
use updp_core::error::{ensure_beta, ensure_finite, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;
use updp_core::rng::subsample;
use updp_empirical::discretize::real_radius;
use updp_empirical::gaps::map_random_pairs;
use updp_empirical::view::ColumnView;

/// Diagnostics accompanying a universal variance estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceEstimate {
    /// The ε-DP estimate `σ̃²`.
    pub estimate: f64,
    /// The private IQR lower bound (bucket size is its square).
    pub bucket: f64,
    /// The privatized radius: `H` is clipped to `[0, radius]`.
    pub radius: f64,
    /// Number of pairs `n′ = n/2`.
    pub pairs: usize,
    /// Pair products clipped by the radius (diagnostic).
    pub clipped: usize,
}

/// Minimum dataset size accepted (pairing + subsampling plumbing).
pub(crate) const MIN_N: usize = 32;

/// The universal ε-DP variance estimator (Algorithm 9).
pub fn estimate_variance<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
) -> Result<VarianceEstimate> {
    ensure_finite(data, "estimate_variance input")?;
    let n = data.len();
    if n < MIN_N {
        return Err(UpdpError::InsufficientData {
            required: MIN_N,
            actual: n,
            context: "EstimateVariance",
        });
    }
    ensure_beta(beta)?;

    // Stage 1 (ε/8, β/7): bucket scale.
    let bucket = iqr_lower_bound(rng, &ColumnView::bare(data), epsilon.scale(1.0 / 8.0));

    // Stage 2: H = {(X − X′)²} from a *random* pairing (the paper's
    // "randomly group the elements in D into pairs"); the permutation is
    // data-independent, so sensitivity w.r.t. D stays 1. Squares of
    // ~1e155+-magnitude differences overflow f64; clamp to MAX — a
    // deterministic per-record preprocessing that cannot affect privacy,
    // and such values are clipped by the radius anyway.
    let h = map_random_pairs(rng, data, |a, b| {
        let d = a - b;
        let z = d * d;
        if z.is_finite() {
            z
        } else {
            f64::MAX
        }
    });
    let n_prime = h.len();

    // Stage 3: subsample εn′ products.
    let m = ((epsilon.get() * n_prime as f64).ceil() as usize).clamp(8.min(n_prime), n_prime);
    let sample = subsample(rng, &h, m);

    // Stage 4 (amplified to 3ε/4): radius of the subsample with bucket
    // IQR̲² — only the width matters because Z is zero-anchored.
    let inner = paper_inner_epsilon(epsilon);
    let radius = real_radius(
        rng,
        &sample,
        // The squared bucket can overflow for ~1e155+-scale data;
        // clamp into the finite positive range.
        (bucket * bucket).clamp(f64::MIN_POSITIVE, f64::MAX),
        inner.scale(3.0 / 4.0),
        beta / 7.0,
    )?
    // (r̃ad + ½)·IQR̲² can overflow too; clamp this private value the same way.
    .min(f64::MAX);

    // Stage 5 (ε/4 via the 8·rad/(εn) = 4·rad/(εn′) scale): clipped mean
    // of ALL products over [0, r̃ad] — fused with the clipping-bias
    // count into one pass — halved since E[Z] = 2σ².
    let (mean, clipped) = clipped_mean_with_outside(&h, 0.0, radius.max(0.0))?;
    let noisy = if radius > 0.0 {
        let scale = 8.0 * radius / (epsilon.get() * n as f64);
        // Past r̃ad = f64::MAX/8 the scale overflows: scale a unit draw
        // (same coins), which overflows only where the noise does.
        mean + if scale.is_finite() {
            sample_laplace(rng, scale)
        } else {
            sample_laplace(rng, 1.0) * (8.0 / (epsilon.get() * n as f64)) * radius
        }
    } else {
        mean
    };
    Ok(VarianceEstimate {
        estimate: 0.5 * noisy,
        bucket,
        radius,
        pairs: n_prime,
        clipped,
    })
}

/// The universal variance (Algorithm 9) as an [`Estimator`]; its
/// sensitivity proxy is the released clipping radius over the pair
/// count.
pub const VARIANCE: Estimator = Estimator::scalar("variance", "variance", |rng, view, params| {
    let col = view.col(0);
    let est = estimate_variance(rng, col.data(), params.epsilon, params.beta)?;
    Ok(Release::scalar(
        est.estimate,
        est.radius / est.pairs.max(1) as f64,
    ))
});

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{
        ContinuousDistribution, Exponential, Gaussian, LaplaceDist, Pareto, StudentT, Uniform,
    };

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn median_rel_error<D: ContinuousDistribution>(
        dist: &D,
        n: usize,
        e: Epsilon,
        trials: u64,
        master: u64,
    ) -> f64 {
        let truth = dist.variance();
        let mut errs: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = seeded(updp_core::rng::child_seed(master, t));
                let data = dist.sample_vec(&mut rng, n);
                let r = estimate_variance(&mut rng, &data, e, 0.1).unwrap();
                (r.estimate - truth).abs() / truth
            })
            .collect();
        errs.sort_by(f64::total_cmp);
        errs[errs.len() / 2]
    }

    #[test]
    fn gaussian_variance_is_accurate() {
        let g = Gaussian::new(100.0, 3.0).unwrap();
        let err = median_rel_error(&g, 20_000, eps(0.5), 30, 1);
        assert!(err < 0.1, "median relative error {err}");
    }

    #[test]
    fn tiny_sigma_works_without_sigma_min() {
        // σ = 10⁻⁶ with no prior scale knowledge (the log log 1/σ term).
        let g = Gaussian::new(0.0, 1e-6).unwrap();
        let err = median_rel_error(&g, 20_000, eps(0.5), 20, 2);
        assert!(err < 0.1, "tiny-σ median relative error {err}");
    }

    #[test]
    fn huge_sigma_works_without_sigma_max() {
        let g = Gaussian::new(0.0, 1e6).unwrap();
        let err = median_rel_error(&g, 20_000, eps(0.5), 20, 3);
        assert!(err < 0.1, "huge-σ median relative error {err}");
    }

    #[test]
    fn location_is_irrelevant() {
        // Pairing cancels the mean: μ = 10^9 must not matter.
        let g = Gaussian::new(1e9, 2.0).unwrap();
        let err = median_rel_error(&g, 20_000, eps(0.5), 20, 4);
        assert!(err < 0.1, "far-location median relative error {err}");
    }

    #[test]
    fn heavy_tailed_variance_first_of_its_kind() {
        // Pareto α = 4.5: μ₄ finite (barely) — the Theorem 5.5 regime.
        let p = Pareto::new(1.0, 4.5).unwrap();
        let err = median_rel_error(&p, 60_000, eps(0.5), 30, 5);
        assert!(err < 0.5, "pareto median relative error {err}");
    }

    #[test]
    fn student_t_variance() {
        let t = StudentT::new(5.0, 0.0, 2.0).unwrap();
        let err = median_rel_error(&t, 60_000, eps(0.5), 30, 6);
        assert!(err < 0.5, "student-t median relative error {err}");
    }

    #[test]
    fn exponential_and_laplace_and_uniform() {
        let e1 = median_rel_error(&Exponential::new(2.0).unwrap(), 20_000, eps(0.5), 20, 7);
        assert!(e1 < 0.2, "exponential {e1}");
        let e2 = median_rel_error(
            &LaplaceDist::new(0.0, 1.0).unwrap(),
            20_000,
            eps(0.5),
            20,
            8,
        );
        assert!(e2 < 0.2, "laplace {e2}");
        let e3 = median_rel_error(&Uniform::new(0.0, 10.0).unwrap(), 20_000, eps(0.5), 20, 9);
        assert!(e3 < 0.2, "uniform {e3}");
    }

    #[test]
    fn error_decreases_with_n() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let small = median_rel_error(&g, 2_000, eps(0.5), 30, 10);
        let large = median_rel_error(&g, 50_000, eps(0.5), 30, 11);
        assert!(large < small, "no shrink: {small} -> {large}");
    }

    #[test]
    fn diagnostics_are_populated() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = seeded(12);
        let data = g.sample_vec(&mut rng, 4_000);
        let r = estimate_variance(&mut rng, &data, eps(0.5), 0.1).unwrap();
        assert_eq!(r.pairs, 2_000);
        assert!(r.bucket > 0.0);
        assert!(r.radius > 0.0);
        // Radius must cover typical (X−X′)² ~ 2σ² = 2.
        assert!(r.radius > 1.0, "radius {} too small", r.radius);
    }

    #[test]
    fn estimate_is_nonnegative_most_of_the_time() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut negatives = 0;
        for seed in 0..50 {
            let mut rng = seeded(100 + seed);
            let data = g.sample_vec(&mut rng, 10_000);
            let r = estimate_variance(&mut rng, &data, eps(0.5), 0.1).unwrap();
            if r.estimate < 0.0 {
                negatives += 1;
            }
        }
        // Laplace noise can push below zero only when noise ≫ signal.
        assert!(negatives <= 2, "negative estimates {negatives}/50");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(13);
        assert!(estimate_variance(&mut rng, &[1.0; 8], eps(0.5), 0.1).is_err());
        assert!(estimate_variance(&mut rng, &[f64::NAN; 100], eps(0.5), 0.1).is_err());
        assert!(estimate_variance(&mut rng, &[1.0; 100], eps(0.5), 0.0).is_err());
    }
}
