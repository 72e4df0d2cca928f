//! The Table 1 comparators behind the workspace-wide
//! [`Estimator`] trait.
//!
//! Every baseline becomes a first-class, name-addressable estimator —
//! servable over the wire, dispatchable by the experiment trial runner
//! — with its required assumptions (`A1` = a-priori mean range, `A2` =
//! variance/moment bounds, `A3` = distribution family) and its privacy
//! guarantee carried as metadata. Each `estimate` implementation calls
//! the module's free function with the **same arguments in the same
//! order**, so trait dispatch is bit-identical to a direct call on the
//! same seed (pinned by the workspace equivalence suite).
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
//! The non-private estimators report `0.0` (no meaningful scale;
//! hardened consumers clamp to a floor).

use crate::bs19::bs19_trimmed_mean_view;
use crate::coinpress::{coinpress_mean, coinpress_variance};
use crate::dl09::dl09_iqr_view;
use crate::ksu20::ksu20_mean;
use crate::kv18::{kv18_gaussian_mean, kv18_gaussian_variance};
use crate::naive_clip::naive_clipped_mean;
use crate::nonprivate::{sample_iqr_view, sample_mean, sample_variance};
use rand::RngCore;
use updp_core::error::{Result, UpdpError};
use updp_core::privacy::Delta;
use updp_statistical::estimator::{
    check_declared, scalar_column, DataView, EstimateParams, Estimator, ParamSpec, Release,
};

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

/// \[KV18\] Gaussian mean under A1 + A2 + A3.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kv18Mean;

/// [`Kv18Mean`]'s parameter table.
pub const KV18_MEAN_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("r", "assumed mean range bound: μ ∈ [−r, r] (A1)"),
    ParamSpec::required("sigma_min", "assumed lower σ bound (A2)"),
    ParamSpec::required("sigma_max", "assumed upper σ bound (A2)"),
];

impl Estimator for Kv18Mean {
    fn name(&self) -> &'static str {
        "kv18"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A1", "A2", "A3"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        KV18_MEAN_PARAMS
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "kv18")?;
        let r = params.resolve(&KV18_MEAN_PARAMS[0])?;
        let smin = params.resolve(&KV18_MEAN_PARAMS[1])?;
        let smax = params.resolve(&KV18_MEAN_PARAMS[2])?;
        let est = kv18_gaussian_mean(rng, col.data(), r, smin, smax, params.epsilon)?;
        Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
    }
}

/// \[KV18\] Gaussian variance under A2 + A3.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kv18Variance;

/// [`Kv18Variance`]'s parameter table.
pub const KV18_VARIANCE_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("sigma_min", "assumed lower σ bound (A2)"),
    ParamSpec::required("sigma_max", "assumed upper σ bound (A2)"),
];

impl Estimator for Kv18Variance {
    fn name(&self) -> &'static str {
        "kv18_variance"
    }

    fn statistic(&self) -> &'static str {
        "variance"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A2", "A3"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        KV18_VARIANCE_PARAMS
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "kv18_variance")?;
        let smin = params.resolve(&KV18_VARIANCE_PARAMS[0])?;
        let smax = params.resolve(&KV18_VARIANCE_PARAMS[1])?;
        let n = col.len() as f64;
        let est = kv18_gaussian_variance(rng, col.data(), smin, smax, params.epsilon)?;
        // σ_max-capped pair-moment clip scale over the pair count.
        let pairs = (n / 2.0).max(1.0);
        let cap = 4.0 * smax * smax * (2.0 * n).max(2.0).ln();
        Ok(Release::scalar(est, cap / pairs))
    }
}

/// CoinPress-style iterative Gaussian mean under A1 + A2.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoinPressMean;

/// [`CoinPressMean`]'s parameter table.
pub const COINPRESS_MEAN_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("r", "assumed mean range bound: μ ∈ [−r, r] (A1)"),
    ParamSpec::required("sigma", "assumed σ scale (A2)"),
    ParamSpec::optional("steps", 4.0, "clip-and-shrink iterations"),
];

impl Estimator for CoinPressMean {
    fn name(&self) -> &'static str {
        "coinpress"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A1", "A2"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        COINPRESS_MEAN_PARAMS
    }

    fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        check_declared(self.params(), params)?;
        as_count(
            "steps",
            params.resolve(&COINPRESS_MEAN_PARAMS[2])?,
            1.0,
            64.0,
        )?;
        Ok(())
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "coinpress")?;
        let r = params.resolve(&COINPRESS_MEAN_PARAMS[0])?;
        let sigma = params.resolve(&COINPRESS_MEAN_PARAMS[1])?;
        let steps = as_count(
            "steps",
            params.resolve(&COINPRESS_MEAN_PARAMS[2])?,
            1.0,
            64.0,
        )?;
        let est = coinpress_mean(rng, col.data(), r, sigma, params.epsilon, steps as usize)?;
        Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
    }
}

/// CoinPress-style iterative Gaussian variance under A2.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoinPressVariance;

/// [`CoinPressVariance`]'s parameter table.
pub const COINPRESS_VARIANCE_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("sigma_min", "assumed lower σ bound (A2)"),
    ParamSpec::required("sigma_max", "assumed upper σ bound (A2)"),
    ParamSpec::optional("steps", 4.0, "clip-and-shrink iterations"),
];

impl Estimator for CoinPressVariance {
    fn name(&self) -> &'static str {
        "coinpress_variance"
    }

    fn statistic(&self) -> &'static str {
        "variance"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A2"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        COINPRESS_VARIANCE_PARAMS
    }

    fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        check_declared(self.params(), params)?;
        as_count(
            "steps",
            params.resolve(&COINPRESS_VARIANCE_PARAMS[2])?,
            1.0,
            64.0,
        )?;
        Ok(())
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "coinpress_variance")?;
        let smin = params.resolve(&COINPRESS_VARIANCE_PARAMS[0])?;
        let smax = params.resolve(&COINPRESS_VARIANCE_PARAMS[1])?;
        let steps = as_count(
            "steps",
            params.resolve(&COINPRESS_VARIANCE_PARAMS[2])?,
            1.0,
            64.0,
        )?;
        let n = col.len() as f64;
        let est = coinpress_variance(rng, col.data(), smin, smax, params.epsilon, steps as usize)?;
        let pairs = (n / 2.0).max(1.0);
        Ok(Release::scalar(est, 2.0 * smax * smax / pairs))
    }
}

/// \[KSU20\] heavy-tailed truncated mean under A1 + a k-th moment bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ksu20Mean;

/// [`Ksu20Mean`]'s parameter table.
pub const KSU20_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("r", "assumed mean range bound: μ ∈ [−r, r] (A1)"),
    ParamSpec::required("mu_k_bound", "assumed k-th central moment bound (A2-style)"),
    ParamSpec::optional("k", 2.0, "moment order (≥ 2)"),
];

impl Estimator for Ksu20Mean {
    fn name(&self) -> &'static str {
        "ksu20"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A1", "A2"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        KSU20_PARAMS
    }

    fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        check_declared(self.params(), params)?;
        as_count("k", params.resolve(&KSU20_PARAMS[2])?, 2.0, 64.0)?;
        Ok(())
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "ksu20")?;
        let r = params.resolve(&KSU20_PARAMS[0])?;
        let mu_k = params.resolve(&KSU20_PARAMS[1])?;
        let k = as_count("k", params.resolve(&KSU20_PARAMS[2])?, 2.0, 64.0)? as u32;
        let n = col.len() as f64;
        let est = ksu20_mean(rng, col.data(), r, k, mu_k, params.epsilon)?;
        // The truncation radius the mechanism derives from the assumed
        // moment bound — its stage-2 release clips to a 4τ window.
        let tau =
            (2.0 * params.epsilon.get() * n * mu_k.max(f64::MIN_POSITIVE)).powf(1.0 / k as f64);
        Ok(Release::scalar(est, 4.0 * tau / n))
    }
}

/// \[BS19\]-style trimmed mean with smooth sensitivity under A1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bs19TrimmedMean;

/// [`Bs19TrimmedMean`]'s parameter table.
pub const BS19_PARAMS: &[ParamSpec] = &[
    ParamSpec::required("r", "assumed mean range bound: μ ∈ [−r, r] (A1)"),
    ParamSpec::optional(
        "trim_frac",
        0.05,
        "fraction trimmed from each side, in (0, 0.5)",
    ),
];

impl Estimator for Bs19TrimmedMean {
    fn name(&self) -> &'static str {
        "bs19"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn privacy(&self) -> &'static str {
        "ε-DP-flavored (smooth sensitivity + Laplace)"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A1"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        BS19_PARAMS
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "bs19")?;
        let r = params.resolve(&BS19_PARAMS[0])?;
        let trim = params.resolve(&BS19_PARAMS[1])?;
        let est = bs19_trimmed_mean_view(rng, col, r, trim, params.epsilon)?;
        Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
    }
}

/// \[DL09\] propose-test-release IQR — universal, but (ε, δ)-DP only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dl09Iqr;

/// [`Dl09Iqr`]'s parameter table.
pub const DL09_PARAMS: &[ParamSpec] = &[ParamSpec::optional(
    "delta",
    1e-6,
    "the δ of the (ε, δ)-DP guarantee (must be > 0)",
)];

impl Estimator for Dl09Iqr {
    fn name(&self) -> &'static str {
        "dl09"
    }

    fn statistic(&self) -> &'static str {
        "iqr"
    }

    fn privacy(&self) -> &'static str {
        "(ε, δ)-DP"
    }

    fn params(&self) -> &'static [ParamSpec] {
        DL09_PARAMS
    }

    fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        check_declared(self.params(), params)?;
        let delta = Delta::new(params.resolve(&DL09_PARAMS[0])?)?;
        if delta.is_pure() {
            return Err(UpdpError::InvalidParameter {
                name: "delta",
                reason: "propose-test-release fundamentally requires δ > 0".into(),
            });
        }
        Ok(())
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "dl09")?;
        let delta = Delta::new(params.resolve(&DL09_PARAMS[0])?)?;
        let est = dl09_iqr_view(rng, col, params.epsilon, delta)?;
        // The released value's own multiplicative grid cell, in
        // absolute terms (post-processing of the DP release).
        Ok(Release::scalar(est.estimate, est.estimate * est.log_cell)
            .with_diagnostic("log_cell", est.log_cell)
            .with_diagnostic("stability", est.stability))
    }
}

/// Folklore clipped-Laplace mean under A1.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveClipMean;

/// [`NaiveClipMean`]'s parameter table.
pub const NAIVE_CLIP_PARAMS: &[ParamSpec] = &[ParamSpec::required(
    "r",
    "assumed mean range bound: μ ∈ [−r, r] (A1)",
)];

impl Estimator for NaiveClipMean {
    fn name(&self) -> &'static str {
        "naive_clip"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn assumptions(&self) -> &'static [&'static str] {
        &["A1"]
    }

    fn params(&self) -> &'static [ParamSpec] {
        NAIVE_CLIP_PARAMS
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "naive_clip")?;
        let r = params.resolve(&NAIVE_CLIP_PARAMS[0])?;
        let est = naive_clipped_mean(rng, col.data(), r, params.epsilon)?;
        Ok(Release::scalar(est, 2.0 * r / col.len() as f64))
    }
}

/// The non-private sample mean (the no-privacy reference line).
#[derive(Debug, Clone, Copy, Default)]
pub struct NonPrivateMean;

impl Estimator for NonPrivateMean {
    fn name(&self) -> &'static str {
        "nonprivate"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn privacy(&self) -> &'static str {
        "none"
    }

    fn estimate(
        &self,
        _rng: &mut dyn RngCore,
        view: &DataView<'_>,
        _params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "nonprivate")?;
        Ok(Release::scalar(sample_mean(col.data())?, 0.0))
    }
}

/// The non-private sample variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonPrivateVariance;

impl Estimator for NonPrivateVariance {
    fn name(&self) -> &'static str {
        "nonprivate_variance"
    }

    fn statistic(&self) -> &'static str {
        "variance"
    }

    fn privacy(&self) -> &'static str {
        "none"
    }

    fn estimate(
        &self,
        _rng: &mut dyn RngCore,
        view: &DataView<'_>,
        _params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "nonprivate_variance")?;
        Ok(Release::scalar(sample_variance(col.data())?, 0.0))
    }
}

/// The non-private sample IQR.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonPrivateIqr;

impl Estimator for NonPrivateIqr {
    fn name(&self) -> &'static str {
        "nonprivate_iqr"
    }

    fn statistic(&self) -> &'static str {
        "iqr"
    }

    fn privacy(&self) -> &'static str {
        "none"
    }

    fn estimate(
        &self,
        _rng: &mut dyn RngCore,
        view: &DataView<'_>,
        _params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "nonprivate_iqr")?;
        Ok(Release::scalar(sample_iqr_view(col)?, 0.0))
    }
}

/// Every Table 1 comparator as a trait object — the baseline half of a
/// serving catalog (`updp_statistical::universal_estimators`
/// contributes the universal half).
pub fn baseline_estimators() -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(Kv18Mean),
        Box::new(Kv18Variance),
        Box::new(CoinPressMean),
        Box::new(CoinPressVariance),
        Box::new(Ksu20Mean),
        Box::new(Bs19TrimmedMean),
        Box::new(Dl09Iqr),
        Box::new(NaiveClipMean),
        Box::new(NonPrivateMean),
        Box::new(NonPrivateVariance),
        Box::new(NonPrivateIqr),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::privacy::Epsilon;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn gaussian(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        Gaussian::new(10.0, 2.0).unwrap().sample_vec(&mut rng, n)
    }

    #[test]
    fn catalog_names_unique_and_metadata_complete() {
        let catalog = baseline_estimators();
        assert_eq!(catalog.len(), 11);
        let mut names: Vec<&str> = catalog.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "duplicate estimator names");
        for est in &catalog {
            assert!(!est.statistic().is_empty());
            assert!(!est.privacy().is_empty());
            assert!(!est.multi_column(), "all baselines are scalar");
        }
    }

    #[test]
    fn trait_dispatch_matches_free_functions_bit_for_bit() {
        let data = gaussian(4_000, 0xBA5E);
        let view = DataView::of(&data);
        let e = eps(1.0);

        let direct = kv18_gaussian_mean(&mut seeded(1), &data, 100.0, 0.1, 50.0, e).unwrap();
        let via = Kv18Mean
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
        let via = CoinPressMean
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
        let via = Dl09Iqr
            .estimate(&mut seeded(3), &view, &EstimateParams::new(e))
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.to_bits());

        let direct = crate::nonprivate::sample_iqr(&data).unwrap();
        let via = NonPrivateIqr
            .estimate(&mut seeded(4), &view, &EstimateParams::new(e))
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.to_bits());
    }

    #[test]
    fn required_params_are_enforced_before_estimation() {
        let e = eps(1.0);
        // Missing r.
        assert!(NaiveClipMean
            .validate_params(&EstimateParams::new(e))
            .is_err());
        assert!(Kv18Mean
            .validate_params(&EstimateParams::new(e).with("r", 10.0))
            .is_err());
        // Bad integer-valued knobs.
        assert!(CoinPressMean
            .validate_params(
                &EstimateParams::new(e)
                    .with("r", 10.0)
                    .with("sigma", 1.0)
                    .with("steps", 2.5)
            )
            .is_err());
        assert!(Ksu20Mean
            .validate_params(
                &EstimateParams::new(e)
                    .with("r", 10.0)
                    .with("mu_k_bound", 4.0)
                    .with("k", 1.0)
            )
            .is_err());
        // δ = 0 is fundamentally impossible for PTR.
        assert!(Dl09Iqr
            .validate_params(&EstimateParams::new(e).with("delta", 0.0))
            .is_err());
        // Well-formed specs pass.
        assert!(Kv18Mean
            .validate_params(
                &EstimateParams::new(e)
                    .with("r", 10.0)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 10.0)
            )
            .is_ok());
        assert!(NonPrivateMean
            .validate_params(&EstimateParams::new(e))
            .is_ok());
    }

    #[test]
    fn sensible_estimates_under_honest_assumptions() {
        let data = gaussian(20_000, 7);
        let view = DataView::of(&data);
        let e = eps(1.0);
        let cases: Vec<(Box<dyn Estimator>, EstimateParams, f64, f64)> = vec![
            (
                Box::new(NaiveClipMean),
                EstimateParams::new(e).with("r", 100.0),
                10.0,
                0.5,
            ),
            (
                Box::new(Bs19TrimmedMean),
                EstimateParams::new(e).with("r", 100.0),
                10.0,
                0.5,
            ),
            (
                Box::new(Ksu20Mean),
                EstimateParams::new(e)
                    .with("r", 100.0)
                    .with("mu_k_bound", 4.0),
                10.0,
                1.0,
            ),
            (
                Box::new(Kv18Variance),
                EstimateParams::new(e)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 50.0),
                4.0,
                2.0,
            ),
            (
                Box::new(CoinPressVariance),
                EstimateParams::new(e)
                    .with("sigma_min", 0.1)
                    .with("sigma_max", 50.0),
                4.0,
                2.0,
            ),
            (
                Box::new(NonPrivateVariance),
                EstimateParams::new(e),
                4.0,
                0.5,
            ),
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
