//! The Table 1 comparators as [`Estimator`] values.
//!
//! Every baseline becomes a first-class, name-addressable estimator —
//! callable by the experiment trial runner, and servable over the wire
//! when its [`Privacy`] is pure ε-DP — with its required assumptions
//! (`A1` = a-priori mean range, `A2` = variance/moment bounds, `A3` =
//! distribution family) and its privacy guarantee carried as
//! metadata. Each body calls the module's free function with the
//! **same arguments in the same order**, so [`Estimator::estimate`] is
//! bit-identical to a direct call on the same seed (pinned by the
//! workspace equivalence suite).
//!
//! # Hardened-release sensitivity proxies
//!
//! [`Release::sensitivities`] feeds the serving layer's snapped
//! re-release. For the baselines the proxies are derived from the
//! *assumed* public parameters (`2r/n` for A1-clipped means, the
//! `σ_max`-capped pair-moment scale for the variance estimators, the
//! assumed-moment truncation radius for \[KSU20\]) or from the released
//! value itself (\[DL09\]'s grid cell — post-processing of a DP output).
//! They mirror each mechanism's own final-release noise scale, so
//! hardening costs a constant factor, never a change of error regime.
//! The non-private estimators report `0.0`: they are never served, so
//! no hardened release reads it.

use crate::bs19::bs19_trimmed_mean_view;
use crate::coinpress::{coinpress_mean, coinpress_variance, DEFAULT_STEPS};
use crate::dl09::dl09_iqr_view;
use crate::ksu20::ksu20_mean;
use crate::kv18::{kv18_gaussian_mean, kv18_gaussian_variance};
use crate::naive_clip::naive_clipped_mean;
use crate::nonprivate::{sample_iqr_view, sample_mean, sample_variance};
use updp_core::error::{Result, UpdpError};
use updp_core::privacy::Delta;
use updp_statistical::estimator::{EstimateParams, Estimator, ParamSpec, Privacy, Release};

const R: ParamSpec = ParamSpec::required("r", "assumed mean range bound: μ ∈ [−r, r] (A1)");
const SIGMA: ParamSpec = ParamSpec::required("sigma", "assumed σ scale (A2)");
const SIGMA_MIN: ParamSpec = ParamSpec::required("sigma_min", "assumed lower σ bound (A2)");
const SIGMA_MAX: ParamSpec = ParamSpec::required("sigma_max", "assumed upper σ bound (A2)");
const STEPS: ParamSpec =
    ParamSpec::optional("steps", DEFAULT_STEPS as f64, "clip-and-shrink iterations");
const MU_K_BOUND: ParamSpec =
    ParamSpec::required("mu_k_bound", "assumed k-th central moment bound (A2-style)");
const K: ParamSpec = ParamSpec::optional("k", 2.0, "moment order (≥ 2)");
const TRIM_FRAC: ParamSpec = ParamSpec::optional(
    "trim_frac",
    0.05,
    "fraction trimmed from each side, in (0, 0.5)",
);
const DELTA: ParamSpec = ParamSpec::optional(
    "delta",
    1e-6,
    "the δ of the (ε, δ)-DP guarantee (must be > 0)",
);

/// Validates an f64-encoded positive integer parameter (`steps`, `k`).
fn as_count(name: &'static str, value: f64, min: f64, max: f64) -> Result<u64> {
    // `fract() == 0.0` is the exact integrality test; any rounding error
    // means the value is genuinely not an integer.
    if !(value.is_finite() && value.fract() == 0.0 && value >= min && value <= max) {
        return Err(UpdpError::InvalidParameter {
            name,
            reason: format!("must be an integer in [{min}, {max}], got {value}"),
        });
    }
    Ok(value as u64)
}

/// CoinPress's iteration count `steps ∈ [1, 64]`.
fn steps(params: &EstimateParams) -> Result<usize> {
    Ok(as_count("steps", params.resolve(&STEPS)?, 1.0, 64.0)? as usize)
}

/// \[KSU20\]'s moment order `k ∈ [2, 64]`.
fn moment_order(params: &EstimateParams) -> Result<u32> {
    Ok(as_count("k", params.resolve(&K)?, 2.0, 64.0)? as u32)
}

/// \[KV18\] Gaussian mean under A1 + A2 + A3.
pub const KV18_MEAN: Estimator = Estimator::scalar("kv18", "mean", |rng, view, params| {
    let col = view.col(0);
    let r = params.resolve(&R)?;
    let smin = params.resolve(&SIGMA_MIN)?;
    let smax = params.resolve(&SIGMA_MAX)?;
    let est = kv18_gaussian_mean(rng, col.data(), r, smin, smax, params.epsilon)?;
    Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
})
.with_assumptions(&["A1", "A2", "A3"])
.with_params(&[R, SIGMA_MIN, SIGMA_MAX], |_| Ok(()));

/// \[KV18\] Gaussian variance under A2 + A3.
pub const KV18_VARIANCE: Estimator =
    Estimator::scalar("kv18_variance", "variance", |rng, view, params| {
        let col = view.col(0);
        let smin = params.resolve(&SIGMA_MIN)?;
        let smax = params.resolve(&SIGMA_MAX)?;
        let n = col.len() as f64;
        let est = kv18_gaussian_variance(rng, col.data(), smin, smax, params.epsilon)?;
        // σ_max-capped pair-moment clip scale over the pair count.
        let pairs = (n / 2.0).max(1.0);
        let cap = 4.0 * smax * smax * (2.0 * n).max(2.0).ln();
        Ok(Release::scalar(est, cap / pairs))
    })
    .with_assumptions(&["A2", "A3"])
    .with_params(&[SIGMA_MIN, SIGMA_MAX], |_| Ok(()));

/// CoinPress-style iterative Gaussian mean under A1 + A2.
pub const COINPRESS_MEAN: Estimator =
    Estimator::scalar("coinpress", "mean", |rng, view, params| {
        let col = view.col(0);
        let r = params.resolve(&R)?;
        let sigma = params.resolve(&SIGMA)?;
        let steps = steps(params)?;
        let est = coinpress_mean(rng, col.data(), r, sigma, params.epsilon, steps)?;
        Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
    })
    .with_assumptions(&["A1", "A2"])
    .with_params(&[R, SIGMA, STEPS], |params| steps(params).map(drop));

/// CoinPress-style iterative Gaussian variance under A2.
pub const COINPRESS_VARIANCE: Estimator =
    Estimator::scalar("coinpress_variance", "variance", |rng, view, params| {
        let col = view.col(0);
        let smin = params.resolve(&SIGMA_MIN)?;
        let smax = params.resolve(&SIGMA_MAX)?;
        let steps = steps(params)?;
        let n = col.len() as f64;
        let est = coinpress_variance(rng, col.data(), smin, smax, params.epsilon, steps)?;
        let pairs = (n / 2.0).max(1.0);
        Ok(Release::scalar(est, 2.0 * smax * smax / pairs))
    })
    .with_assumptions(&["A2"])
    .with_params(&[SIGMA_MIN, SIGMA_MAX, STEPS], |params| {
        steps(params).map(drop)
    });

/// \[KSU20\] heavy-tailed truncated mean under A1 + a k-th moment bound.
pub const KSU20_MEAN: Estimator = Estimator::scalar("ksu20", "mean", |rng, view, params| {
    let col = view.col(0);
    let r = params.resolve(&R)?;
    let mu_k = params.resolve(&MU_K_BOUND)?;
    let k = moment_order(params)?;
    let n = col.len() as f64;
    let est = ksu20_mean(rng, col.data(), r, k, mu_k, params.epsilon)?;
    // The truncation radius the mechanism derives from the assumed
    // moment bound — its stage-2 release clips to a 4τ window.
    let tau = (2.0 * params.epsilon.get() * n * mu_k.max(f64::MIN_POSITIVE)).powf(1.0 / k as f64);
    Ok(Release::scalar(est, 4.0 * tau / n))
})
.with_assumptions(&["A1", "A2"])
.with_params(&[R, MU_K_BOUND, K], |params| moment_order(params).map(drop));

/// \[BS19\]-style trimmed mean with smooth sensitivity under A1.
pub const BS19_TRIMMED_MEAN: Estimator = Estimator::scalar("bs19", "mean", |rng, view, params| {
    let col = view.col(0);
    let r = params.resolve(&R)?;
    let trim = params.resolve(&TRIM_FRAC)?;
    let est = bs19_trimmed_mean_view(rng, col, r, trim, params.epsilon)?;
    Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
})
.with_privacy(Privacy::ApproxDp)
.with_assumptions(&["A1"])
.with_params(&[R, TRIM_FRAC], |_| Ok(()));

/// \[DL09\] propose-test-release IQR — universal, but (ε, δ)-DP only.
pub const DL09_IQR: Estimator = Estimator::scalar("dl09", "iqr", |rng, view, params| {
    let delta = Delta::new(params.resolve(&DELTA)?)?;
    let est = dl09_iqr_view(rng, view.col(0), params.epsilon, delta)?;
    // The released value's own multiplicative grid cell, in
    // absolute terms (post-processing of the DP release).
    Ok(Release::scalar(est.estimate, est.estimate * est.log_cell))
})
.with_privacy(Privacy::ApproxDp)
.with_params(&[DELTA], |params| {
    if Delta::new(params.resolve(&DELTA)?)?.is_pure() {
        return Err(UpdpError::InvalidParameter {
            name: "delta",
            reason: "propose-test-release fundamentally requires δ > 0".into(),
        });
    }
    Ok(())
});

/// Folklore clipped-Laplace mean under A1.
pub const NAIVE_CLIP_MEAN: Estimator =
    Estimator::scalar("naive_clip", "mean", |rng, view, params| {
        let col = view.col(0);
        let r = params.resolve(&R)?;
        let est = naive_clipped_mean(rng, col.data(), r, params.epsilon)?;
        Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
    })
    .with_assumptions(&["A1"])
    .with_params(&[R], |_| Ok(()));

/// The non-private sample mean (the no-privacy reference line).
pub const NONPRIVATE_MEAN: Estimator = Estimator::scalar("nonprivate", "mean", |_, view, _| {
    Ok(Release::scalar(sample_mean(view.col(0).data())?, 0.0))
})
.with_privacy(Privacy::NonPrivate);

/// The non-private sample variance.
pub const NONPRIVATE_VARIANCE: Estimator =
    Estimator::scalar("nonprivate_variance", "variance", |_, view, _| {
        Ok(Release::scalar(sample_variance(view.col(0).data())?, 0.0))
    })
    .with_privacy(Privacy::NonPrivate);

/// The non-private sample IQR.
pub const NONPRIVATE_IQR: Estimator = Estimator::scalar("nonprivate_iqr", "iqr", |_, view, _| {
    Ok(Release::scalar(sample_iqr_view(view.col(0))?, 0.0))
})
.with_privacy(Privacy::NonPrivate);

/// Every Table 1 comparator — the baseline half of a serving catalog
/// (`updp_statistical::UNIVERSAL` holds the universal half).
pub const BASELINES: [&Estimator; 11] = [
    &KV18_MEAN,
    &KV18_VARIANCE,
    &COINPRESS_MEAN,
    &COINPRESS_VARIANCE,
    &KSU20_MEAN,
    &BS19_TRIMMED_MEAN,
    &DL09_IQR,
    &NAIVE_CLIP_MEAN,
    &NONPRIVATE_MEAN,
    &NONPRIVATE_VARIANCE,
    &NONPRIVATE_IQR,
];

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::privacy::Epsilon;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};
    use updp_statistical::DataView;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn gaussian(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        Gaussian::new(10.0, 2.0).unwrap().sample_vec(&mut rng, n)
    }

    #[test]
    fn catalog_names_unique_and_metadata_complete() {
        let mut names: Vec<&str> = BASELINES.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "duplicate estimator names");
        let mut not_pure: Vec<&str> = Vec::new();
        for est in BASELINES {
            assert!(!est.statistic().is_empty());
            assert!(!est.is_multi_column(), "all baselines are scalar");
            if est.privacy() != Privacy::PureDp {
                not_pure.push(est.name());
            }
        }
        not_pure.sort_unstable();
        assert_eq!(
            not_pure,
            [
                "bs19",
                "dl09",
                "nonprivate",
                "nonprivate_iqr",
                "nonprivate_variance"
            ]
        );
    }

    #[test]
    fn estimate_matches_free_functions_bit_for_bit() {
        let data = gaussian(4_000, 0xBA5E);
        let view = DataView::of(&data);
        let e = eps(1.0);

        let direct = kv18_gaussian_mean(&mut seeded(1), &data, 100.0, 0.1, 50.0, e).unwrap();
        let via = KV18_MEAN
            .estimate(
                &mut seeded(1),
                &view,
                &EstimateParams::new(e)
                    .with("r", 100.0)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 50.0),
            )
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.to_bits());

        let direct = coinpress_mean(&mut seeded(2), &data, 100.0, 2.0, e, 4).unwrap();
        let via = COINPRESS_MEAN
            .estimate(
                &mut seeded(2),
                &view,
                &EstimateParams::new(e).with("r", 100.0).with("sigma", 2.0),
            )
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.to_bits());

        let direct = crate::dl09::dl09_iqr(&mut seeded(3), &data, e, Delta::new(1e-6).unwrap())
            .unwrap()
            .estimate;
        let via = DL09_IQR
            .estimate(&mut seeded(3), &view, &EstimateParams::new(e))
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.to_bits());

        let direct = crate::nonprivate::sample_iqr(&data).unwrap();
        let via = NONPRIVATE_IQR
            .estimate(&mut seeded(4), &view, &EstimateParams::new(e))
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.to_bits());
    }

    #[test]
    fn required_params_are_enforced_before_estimation() {
        let e = eps(1.0);
        // Missing r.
        assert!(NAIVE_CLIP_MEAN
            .validate_params(&EstimateParams::new(e))
            .is_err());
        assert!(KV18_MEAN
            .validate_params(&EstimateParams::new(e).with("r", 10.0))
            .is_err());
        // Bad integer-valued knobs.
        assert!(COINPRESS_MEAN
            .validate_params(
                &EstimateParams::new(e)
                    .with("r", 10.0)
                    .with("sigma", 1.0)
                    .with("steps", 2.5)
            )
            .is_err());
        assert!(KSU20_MEAN
            .validate_params(
                &EstimateParams::new(e)
                    .with("r", 10.0)
                    .with("mu_k_bound", 4.0)
                    .with("k", 1.0)
            )
            .is_err());
        // δ = 0 is fundamentally impossible for PTR.
        assert!(DL09_IQR
            .validate_params(&EstimateParams::new(e).with("delta", 0.0))
            .is_err());
        // Well-formed specs pass.
        assert!(KV18_MEAN
            .validate_params(
                &EstimateParams::new(e)
                    .with("r", 10.0)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 10.0)
            )
            .is_ok());
        assert!(NONPRIVATE_MEAN
            .validate_params(&EstimateParams::new(e))
            .is_ok());
    }

    #[test]
    fn sensible_estimates_under_honest_assumptions() {
        let data = gaussian(20_000, 7);
        let view = DataView::of(&data);
        let e = eps(1.0);
        let cases: Vec<(&Estimator, EstimateParams, f64, f64)> = vec![
            (
                &NAIVE_CLIP_MEAN,
                EstimateParams::new(e).with("r", 100.0),
                10.0,
                0.5,
            ),
            (
                &BS19_TRIMMED_MEAN,
                EstimateParams::new(e).with("r", 100.0),
                10.0,
                0.5,
            ),
            (
                &KSU20_MEAN,
                EstimateParams::new(e)
                    .with("r", 100.0)
                    .with("mu_k_bound", 4.0),
                10.0,
                1.0,
            ),
            (
                &KV18_VARIANCE,
                EstimateParams::new(e)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 50.0),
                4.0,
                2.0,
            ),
            (
                &COINPRESS_VARIANCE,
                EstimateParams::new(e)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 50.0),
                4.0,
                2.0,
            ),
            (&NONPRIVATE_VARIANCE, EstimateParams::new(e), 4.0, 0.5),
        ];
        for (i, (est, params, truth, tol)) in cases.iter().enumerate() {
            let r = est
                .estimate(&mut seeded(100 + i as u64), &view, params)
                .unwrap();
            assert!(
                (r.primary() - truth).abs() < *tol,
                "{}: got {} want ~{truth}",
                est.name(),
                r.primary()
            );
            assert_eq!(r.values.len(), r.sensitivities.len());
        }
    }
}
