//! `EstimateMean` — Algorithm 8 (Theorems 4.5, 4.6, 4.9).
//!
//! The universal ε-DP mean estimator for an arbitrary unknown `P`:
//!
//! 1. bucket size: `IQR̲ ← EstimateIQRLowerBound(D, ε/8, β/9)`;
//! 2. draw a subsample `D′` of `m = εn` values from `D` without
//!    replacement;
//! 3. inner budget `ε′ = log((e^ε − 1)/ε + 1)` (amplification,
//!    Theorem 2.4, makes the subsampled range finder cost `3ε/4`);
//! 4. `R̃(D′) ← InfiniteDomainRange(D′, 3ε′/4, β/9)` with bucket `IQR̲`;
//! 5. release `ClippedMean(D, R̃(D′)) + Lap(8·|R̃(D′)|/(εn))`.
//!
//! Why a subsample? In the empirical setting each clipped outlier may
//! cost `γ(D)/n` of bias, so one minimizes the number of outliers. For
//! i.i.d. data the bias accounting is gentler and a *tighter* range —
//! found on fewer points — wins: the noise scales with `|R̃|` while the
//! extra clipping bias stays controlled. `m = εn` is exactly the point
//! where the number of full-data outliers stops improving (§4.2).
//!
//! Theorem 4.5 gives the instance-specific error; Theorems 4.6/4.9
//! specialize it to Gaussians and heavy tails, beating all prior pure-DP
//! estimators and removing assumptions A1/A2 for the first time.

use crate::iqr_lower_bound::estimate_iqr_lower_bound;
use crate::scratch::with_subsample;
use rand::Rng;
use updp_core::amplification::paper_inner_epsilon;
use updp_core::clipped_mean::clipped_mean_with_outside;
use updp_core::error::{ensure_finite, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;
use updp_empirical::discretize::{real_range, RealRange};

/// Diagnostics accompanying a universal mean estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanEstimate {
    /// The ε-DP estimate `μ̃`.
    pub estimate: f64,
    /// The private IQR lower bound used as the bucket size.
    pub bucket: f64,
    /// The privatized clipping range found on the subsample.
    pub range: RealRange,
    /// Size of the subsample `D′`.
    pub subsample: usize,
    /// Elements of the *full* data clipped by the range (diagnostic).
    pub clipped: usize,
}

/// Minimum dataset size the implementation accepts. Theorem 4.5's actual
/// requirement is distribution-dependent; this floor only guards the
/// pairing and subsampling plumbing.
pub const MIN_N: usize = 16;

/// The universal ε-DP mean estimator (Algorithm 8).
pub fn estimate_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
) -> Result<MeanEstimate> {
    ensure_finite(data, "estimate_mean input")?;
    let n = data.len();
    if n < MIN_N {
        return Err(UpdpError::InsufficientData {
            required: MIN_N,
            actual: n,
            context: "EstimateMean",
        });
    }
    if !(beta > 0.0 && beta < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "beta",
            reason: format!("must be in (0,1), got {beta}"),
        });
    }

    // Stage 1 (ε/8): private bucket size.
    let bucket = estimate_iqr_lower_bound(rng, data, epsilon.scale(1.0 / 8.0), beta / 9.0)?;

    let m = default_subsample(epsilon, n);
    range_and_release(rng, data, epsilon, beta, bucket, m)
}

/// Variant taking an externally-chosen bucket size, for the
/// `ablate-bucket` experiment (§4.1: is the private `IQR̲` bucket as good
/// as an oracle's?). Skips `EstimateIQRLowerBound`; the ε/8 that stage
/// would have spent is simply not spent, so this variant is ε-DP *given*
/// a data-independent bucket.
pub fn estimate_mean_with_bucket<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
    bucket: f64,
) -> Result<MeanEstimate> {
    ensure_finite(data, "estimate_mean input")?;
    let n = data.len();
    if n < MIN_N {
        return Err(UpdpError::InsufficientData {
            required: MIN_N,
            actual: n,
            context: "EstimateMean",
        });
    }
    if !(bucket.is_finite() && bucket > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "bucket",
            reason: format!("must be finite and positive, got {bucket}"),
        });
    }
    let m = default_subsample(epsilon, n);
    range_and_release(rng, data, epsilon, beta, bucket, m)
}

/// Variant exposing the subsample size for the `ablate-subsample`
/// experiment (§4.2's claim that `m = εn` is the sweet spot). Privacy
/// note: changing `m` changes the amplification, so this variant is *not*
/// ε-DP for `m > εn`; it exists purely for utility ablation.
pub fn estimate_mean_with_subsample<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
    m: usize,
) -> Result<MeanEstimate> {
    ensure_finite(data, "estimate_mean input")?;
    let n = data.len();
    if n < MIN_N || m < 4 || m > n {
        return Err(UpdpError::InvalidParameter {
            name: "m",
            reason: format!("subsample size {m} out of range for n = {n}"),
        });
    }
    let bucket = estimate_iqr_lower_bound(rng, data, epsilon.scale(1.0 / 8.0), beta / 9.0)?;
    range_and_release(rng, data, epsilon, beta, bucket, m)
}

/// Stage 2's subsample size `m = εn`, at least enough for the range
/// finder's own pairing plumbing and at most `n`.
fn default_subsample(epsilon: Epsilon, n: usize) -> usize {
    ((epsilon.get() * n as f64).ceil() as usize).clamp(MIN_N.min(n), n)
}

/// Stages 2–4 of Algorithm 8 for a given bucket: draw an `m`-subsample
/// into the reusable per-thread scratch buffer, find its range
/// (amplified to 3ε/4), then release the clipped mean of the FULL data
/// over `R̃(D′)` (fused with the clipping-bias count, one pass) plus
/// Laplace noise at the ε/8 scale `8·|R̃|/(εn)`.
fn range_and_release<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
    bucket: f64,
    m: usize,
) -> Result<MeanEstimate> {
    let inner = paper_inner_epsilon(epsilon);
    let range = with_subsample(rng, data, m, |rng, subsample| {
        real_range(rng, subsample, bucket, inner.scale(3.0 / 4.0), beta / 9.0)
    })?;
    let (mean, clipped) = clipped_mean_with_outside(data, range.lo, range.hi)?;
    let width = range.width();
    let estimate = if width > 0.0 {
        mean + sample_laplace(rng, 8.0 * width / (epsilon.get() * data.len() as f64))
    } else {
        mean
    };
    Ok(MeanEstimate {
        estimate,
        bucket,
        range,
        subsample: m,
        clipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{
        Affine, ContinuousDistribution, Exponential, Gaussian, LaplaceDist, Pareto, StudentT,
        Uniform,
    };

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn median_abs_error<D: ContinuousDistribution>(
        dist: &D,
        n: usize,
        e: Epsilon,
        trials: u64,
        master: u64,
    ) -> f64 {
        let truth = dist.mean();
        let mut errs: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = seeded(updp_core::rng::child_seed(master, t));
                let data = dist.sample_vec(&mut rng, n);
                let r = estimate_mean(&mut rng, &data, e, 0.1).unwrap();
                (r.estimate - truth).abs()
            })
            .collect();
        errs.sort_by(f64::total_cmp);
        errs[errs.len() / 2]
    }

    #[test]
    fn gaussian_mean_is_accurate() {
        let g = Gaussian::new(5.0, 2.0).unwrap();
        let err = median_abs_error(&g, 20_000, eps(0.5), 30, 1);
        // sampling error ≈ σ/√n ≈ 0.014; privacy ≈ σ√log/(εn) — tiny.
        assert!(err < 0.2, "median error {err}");
    }

    #[test]
    fn works_with_mean_far_from_origin_no_range_needed() {
        // The A1-free headline: μ = 10^7 with zero prior knowledge.
        let g = Gaussian::new(1e7, 1.0).unwrap();
        let err = median_abs_error(&g, 20_000, eps(0.5), 20, 2);
        assert!(err < 1.0, "far-mean median error {err}");
    }

    #[test]
    fn works_on_heavy_tails_without_moment_bounds() {
        // Pareto α=2.5: finite variance, infinite third moment.
        let p = Pareto::new(1.0, 2.5).unwrap();
        let err = median_abs_error(&p, 40_000, eps(0.5), 30, 3);
        // μ = 5/3; tolerate the heavy-tail bias terms.
        assert!(err < 0.5, "pareto median error {err}");
    }

    #[test]
    fn works_on_asymmetric_distributions() {
        let ex = Exponential::new(0.25).unwrap(); // mean 4
        let err = median_abs_error(&ex, 20_000, eps(0.5), 30, 4);
        assert!(err < 0.5, "exponential median error {err}");
    }

    #[test]
    fn works_on_student_t() {
        let t = StudentT::new(3.0, -2.0, 1.0).unwrap();
        let err = median_abs_error(&t, 40_000, eps(0.5), 30, 5);
        assert!(err < 0.5, "student-t median error {err}");
    }

    #[test]
    fn works_on_light_tails() {
        let u = Uniform::new(100.0, 101.0).unwrap();
        let err = median_abs_error(&u, 10_000, eps(0.5), 20, 6);
        assert!(err < 0.05, "uniform median error {err}");
    }

    #[test]
    fn works_on_laplace_data() {
        let l = LaplaceDist::new(0.0, 3.0).unwrap();
        let err = median_abs_error(&l, 20_000, eps(0.5), 20, 7);
        assert!(err < 0.5, "laplace median error {err}");
    }

    #[test]
    fn error_decreases_with_n() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let small = median_abs_error(&g, 2_000, eps(0.5), 30, 8);
        let large = median_abs_error(&g, 50_000, eps(0.5), 30, 9);
        assert!(
            large < small,
            "error did not shrink with n: {small} -> {large}"
        );
    }

    #[test]
    fn diagnostics_are_populated() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = seeded(10);
        let data = g.sample_vec(&mut rng, 5_000);
        let r = estimate_mean(&mut rng, &data, eps(0.5), 0.1).unwrap();
        assert!(r.bucket > 0.0);
        assert!(r.range.width() > 0.0);
        assert!(r.subsample >= MIN_N && r.subsample <= data.len());
        assert!(r.clipped < data.len());
        // Range must cover the bulk of a standard Gaussian.
        assert!(r.range.lo < 0.0 && r.range.hi > 0.0, "range {:?}", r.range);
    }

    #[test]
    fn scaled_shifted_distribution_consistency() {
        // Estimating on 3X+50 should track 3μ+50.
        let base = Gaussian::new(0.0, 1.0).unwrap();
        let moved = Affine::new(base, 50.0, 3.0).unwrap();
        let err = median_abs_error(&moved, 20_000, eps(0.5), 20, 11);
        assert!(err < 0.5, "affine median error {err}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(12);
        let small = vec![1.0; 4];
        assert!(estimate_mean(&mut rng, &small, eps(0.5), 0.1).is_err());
        let nan = vec![f64::NAN; 100];
        assert!(estimate_mean(&mut rng, &nan, eps(0.5), 0.1).is_err());
        let ok = vec![1.0; 100];
        assert!(estimate_mean(&mut rng, &ok, eps(0.5), 2.0).is_err());
    }

    #[test]
    fn subsample_ablation_variant_runs() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = seeded(13);
        let data = g.sample_vec(&mut rng, 4_000);
        for m in [64, 512, 4_000] {
            let r = estimate_mean_with_subsample(&mut rng, &data, eps(0.5), 0.1, m).unwrap();
            assert_eq!(r.subsample, m);
        }
        assert!(estimate_mean_with_subsample(&mut rng, &data, eps(0.5), 0.1, 2).is_err());
        assert!(estimate_mean_with_subsample(&mut rng, &data, eps(0.5), 0.1, 5_000).is_err());
    }
}
