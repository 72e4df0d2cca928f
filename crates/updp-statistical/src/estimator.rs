//! The `Estimator` trait: the workspace-wide uniform interface.
//!
//! [`Estimator`] unifies *every* estimator (the five universal ones
//! implemented in this crate and the Table 1 comparators in
//! `updp-baselines`) behind one signature: `estimate(&mut rng,
//! &DataView, &EstimateParams) -> Release`. Consumers (the serving
//! engine's name-keyed registry, the experiment trial runner) dispatch
//! through it instead of hand-rolled per-estimator glue. The dispatch
//! layer is pure plumbing: a trait call is **bit-identical** to the
//! direct free function on the same seed (pinned by the workspace
//! equivalence suite), so routing a caller through the trait can never
//! change a released value.
//!
//! Applications that hold a plain `&[f64]` call the free functions
//! ([`crate::estimate_mean`], [`crate::estimate_variance`], …) directly.
//! **Each call spends its own ε** — callers estimating several
//! parameters of the *same* dataset split their total budget across
//! calls (basic composition, Lemma 2.2), e.g. with [`Epsilon::split`].

use crate::iqr::estimate_iqr_view;
use crate::mean::estimate_mean;
use crate::quantile::estimate_quantile_view;
use crate::variance::estimate_variance;
use rand::RngCore;
use updp_core::error::{ensure_beta, Result, UpdpError};
use updp_core::privacy::Epsilon;
pub use updp_empirical::view::{ColumnCache, ColumnView, DataView, PreparedDataset};

/// Default failure probability for the utility guarantees.
pub const DEFAULT_BETA: f64 = 1.0 / 3.0;

/// A uniform estimator release: the released scalar(s) plus the
/// metadata every consumer layer needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// Released value(s) — one entry for scalar statistics, one per
    /// coordinate for multivariate ones.
    pub values: Vec<f64>,
    /// Per-value final-release sensitivity proxies (same length as
    /// `values`): the scale a hardened re-release (snapped Laplace)
    /// should noise at. Each proxy is either a privately-released
    /// quantity (post-processing) or derived from public parameters —
    /// never raw data. `0.0` means "no meaningful scale" (non-private
    /// estimators); hardened consumers clamp to a positive floor.
    pub sensitivities: Vec<f64>,
}

impl Release {
    /// A single-scalar release.
    pub fn scalar(value: f64, sensitivity: f64) -> Self {
        Release {
            values: vec![value],
            sensitivities: vec![sensitivity],
        }
    }

    /// The first released value (the scalar, for scalar statistics).
    pub fn primary(&self) -> f64 {
        self.values[0]
    }
}

/// The privacy guarantee an estimator's released values carry.
///
/// Only [`Privacy::PureDp`] composes under basic composition (Lemma
/// 2.2), so a budget ledger that sums ε can account for nothing else;
/// the serving catalog admits pure ε-DP estimators only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Privacy {
    /// Pure ε-DP (δ = 0).
    PureDp,
    /// (ε, δ)-DP with δ > 0, or a mechanism (Laplace on smooth
    /// sensitivity) that guarantees no better.
    ApproxDp,
    /// Exact statistics: no privacy.
    NonPrivate,
}

/// Declares one named `f64` parameter an estimator understands beyond
/// the universal `(ε, β)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamSpec {
    /// Wire/option name.
    pub name: &'static str,
    /// Whether the estimator refuses to run without it.
    pub required: bool,
    /// Default applied when an optional parameter is absent.
    pub default: Option<f64>,
    /// One-line description (surfaced by the serving `/v1/estimators`
    /// listing).
    pub doc: &'static str,
}

impl ParamSpec {
    /// A required parameter.
    pub const fn required(name: &'static str, doc: &'static str) -> Self {
        ParamSpec {
            name,
            required: true,
            default: None,
            doc,
        }
    }

    /// An optional parameter with a default.
    pub const fn optional(name: &'static str, default: f64, doc: &'static str) -> Self {
        ParamSpec {
            name,
            required: false,
            default: Some(default),
            doc,
        }
    }
}

/// The uniform parameter bundle of an [`Estimator::estimate`] call:
/// the privacy budget ε, the utility failure probability β, and a
/// small name→value bag for estimator-specific knobs (quantile level
/// `q`, assumed range `r`, σ bounds, …) as declared by
/// [`Estimator::params`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateParams {
    /// The privacy budget this call spends.
    pub epsilon: Epsilon,
    /// Utility failure probability β ∈ (0, 1).
    pub beta: f64,
    options: Vec<(String, f64)>,
}

impl EstimateParams {
    /// Parameters with the default β = 1/3 and no options.
    pub fn new(epsilon: Epsilon) -> Self {
        EstimateParams {
            epsilon,
            beta: DEFAULT_BETA,
            options: Vec::new(),
        }
    }

    /// Sets β (builder style).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets or overwrites a named option (builder style).
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.set(name, value);
        self
    }

    /// Sets or overwrites a named option.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.options.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.options.push((name.to_string(), value));
        }
    }

    /// Looks an option up by name.
    pub fn option(&self, name: &str) -> Option<f64> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// All options, in insertion order.
    pub fn options(&self) -> &[(String, f64)] {
        &self.options
    }

    /// Resolves `spec` against the options: the provided value, the
    /// declared default, or an [`UpdpError::InvalidParameter`] for a
    /// missing required parameter.
    pub fn resolve(&self, spec: &ParamSpec) -> Result<f64> {
        match (self.option(spec.name), spec.default) {
            (Some(v), _) => Ok(v),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(UpdpError::InvalidParameter {
                name: "params",
                reason: format!("missing required parameter `{}`", spec.name),
            }),
        }
    }
}

/// One estimator behind the workspace-wide uniform interface.
///
/// Implemented by the five universal estimators here and by every
/// Table 1 comparator in `updp-baselines`; dispatched by name in the
/// serving engine and by reference in the experiment trial runner.
///
/// # Determinism obligation
///
/// `estimate` must be a pure function of `(rng state, view contents,
/// params)` — consuming the generator in **exactly** the same order as
/// the underlying free function — so that trait dispatch is
/// bit-identical to a direct call on the same seed. Implementations
/// must not read cached view artifacts whose construction consumes
/// randomness (see `updp_empirical::view` and DESIGN.md §7).
pub trait Estimator: Send + Sync {
    /// Stable registry/wire name (`[a-z0-9_-]`, e.g. `"mean"`,
    /// `"kv18"`).
    fn name(&self) -> &'static str;

    /// The statistic estimated (`"mean"`, `"variance"`, `"iqr"`,
    /// `"quantile"`, `"multi-mean"`).
    fn statistic(&self) -> &'static str;

    /// The privacy guarantee the released values carry.
    fn privacy(&self) -> Privacy {
        Privacy::PureDp
    }

    /// Table 1 assumptions the estimator's *utility* needs (`"A1"` =
    /// a-priori mean range, `"A2"` = variance bounds, `"A3"` =
    /// distribution family). Empty for the universal estimators.
    fn assumptions(&self) -> &'static [&'static str] {
        &[]
    }

    /// Extra parameters beyond `(ε, β)` — see [`ParamSpec`].
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }

    /// Whether the estimator consumes every column of the view
    /// (multivariate). Scalar estimators read column 0 and require a
    /// dimension-1 view.
    fn multi_column(&self) -> bool {
        false
    }

    /// Validates `params` *before* any budget is spent: every required
    /// parameter present, no unknown option names, estimator-specific
    /// range checks. The default checks presence/unknowns only.
    fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        check_declared(self.params(), params)
    }

    /// Runs the estimator. See the trait docs for the determinism
    /// obligation.
    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release>;
}

/// Default [`Estimator::validate_params`] body: every required spec
/// present (or defaulted) and no undeclared option names.
pub fn check_declared(specs: &[ParamSpec], params: &EstimateParams) -> Result<()> {
    for spec in specs {
        params.resolve(spec)?;
    }
    for (name, _) in params.options() {
        if !specs.iter().any(|spec| spec.name == name) {
            return Err(UpdpError::InvalidParameter {
                name: "params",
                reason: format!("unknown parameter `{name}`"),
            });
        }
    }
    Ok(())
}

/// Resolves the single column a scalar estimator consumes, rejecting
/// multivariate views with a uniform error. Shared by every scalar
/// [`Estimator`] implementation (here and in `updp-baselines`).
pub fn scalar_column<'a, 'v>(
    view: &'a DataView<'v>,
    name: &'static str,
) -> Result<&'a ColumnView<'v>> {
    if view.dim() != 1 {
        return Err(UpdpError::InvalidParameter {
            name,
            reason: format!(
                "scalar estimator needs a dimension-1 dataset, got dimension {}",
                view.dim()
            ),
        });
    }
    Ok(view.col(0))
}

/// The universal mean (Algorithm 8) as an [`Estimator`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UniversalMean;

impl Estimator for UniversalMean {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn statistic(&self) -> &'static str {
        "mean"
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "mean")?;
        let est = estimate_mean(rng, col.data(), params.epsilon, params.beta)?;
        Ok(Release::scalar(
            est.estimate,
            est.range.width() / col.len() as f64,
        ))
    }
}

/// The universal variance (Algorithm 9) as an [`Estimator`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UniversalVariance;

impl Estimator for UniversalVariance {
    fn name(&self) -> &'static str {
        "variance"
    }

    fn statistic(&self) -> &'static str {
        "variance"
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "variance")?;
        let est = estimate_variance(rng, col.data(), params.epsilon, params.beta)?;
        Ok(Release::scalar(
            est.estimate,
            est.radius / est.pairs.max(1) as f64,
        ))
    }
}

/// The universal quantile (Algorithm 10 generalized) as an
/// [`Estimator`]; the level is the required parameter `q`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniversalQuantile;

/// The quantile estimator's parameter table.
pub(crate) const QUANTILE_PARAMS: &[ParamSpec] = &[ParamSpec::required(
    "q",
    "quantile level in (0,1), e.g. 0.9 for the p90",
)];

impl Estimator for UniversalQuantile {
    fn name(&self) -> &'static str {
        "quantile"
    }

    fn statistic(&self) -> &'static str {
        "quantile"
    }

    fn params(&self) -> &'static [ParamSpec] {
        QUANTILE_PARAMS
    }

    fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        check_declared(self.params(), params)?;
        let q = params.resolve(&QUANTILE_PARAMS[0])?;
        if !(q > 0.0 && q < 1.0) {
            return Err(UpdpError::InvalidParameter {
                name: "q",
                reason: format!("quantile level must be in (0,1), got {q}"),
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
        let col = scalar_column(view, "quantile")?;
        let q = params.resolve(&QUANTILE_PARAMS[0])?;
        let est = estimate_quantile_view(rng, col, q, params.epsilon, params.beta)?;
        Ok(Release::scalar(est.estimate, est.bucket))
    }
}

/// The universal IQR (Algorithm 10) as an [`Estimator`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UniversalIqr;

impl Estimator for UniversalIqr {
    fn name(&self) -> &'static str {
        "iqr"
    }

    fn statistic(&self) -> &'static str {
        "iqr"
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let col = scalar_column(view, "iqr")?;
        let est = estimate_iqr_view(rng, col, params.epsilon, params.beta)?;
        Ok(Release::scalar(est.estimate, est.bucket))
    }
}

/// The multivariate mean (§1.2 extension) as an [`Estimator`]: one
/// universal mean per column at ε/d and β/d (basic composition), the
/// same arithmetic as [`crate::estimate_mean_multivariate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UniversalMultiMean;

impl Estimator for UniversalMultiMean {
    fn name(&self) -> &'static str {
        "multi-mean"
    }

    fn statistic(&self) -> &'static str {
        "multi-mean"
    }

    fn multi_column(&self) -> bool {
        true
    }

    fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        let d = view.dim();
        if d == 0 {
            return Err(UpdpError::EmptyDataset);
        }
        ensure_beta(params.beta)?;
        let per_coord = params.epsilon.scale(1.0 / d as f64);
        let per_beta = params.beta / d as f64;
        let mut release = Release {
            values: Vec::with_capacity(d),
            sensitivities: Vec::with_capacity(d),
        };
        for col in view.cols() {
            let est = estimate_mean(rng, col.data(), per_coord, per_beta)?;
            release.values.push(est.estimate);
            release
                .sensitivities
                .push(est.range.width() / col.len() as f64);
        }
        Ok(release)
    }
}

/// The five universal estimators as trait objects (the statistical
/// half of a serving catalog; `updp_baselines::baseline_estimators`
/// contributes the comparators).
pub fn universal_estimators() -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(UniversalMean),
        Box::new(UniversalVariance),
        Box::new(UniversalQuantile),
        Box::new(UniversalIqr),
        Box::new(UniversalMultiMean),
    ]
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::iqr::estimate_iqr;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};

    #[test]
    fn trait_dispatch_matches_free_functions_bit_for_bit() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        let mut rng = seeded(30);
        let data = g.sample_vec(&mut rng, 5_000);
        let e = Epsilon::new(0.8).unwrap();
        let params = EstimateParams::new(e).with_beta(0.1);
        let view = DataView::of(&data);

        let direct = estimate_mean(&mut seeded(1), &data, e, 0.1).unwrap();
        let via = UniversalMean
            .estimate(&mut seeded(1), &view, &params)
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());

        let direct = estimate_variance(&mut seeded(2), &data, e, 0.1).unwrap();
        let via = UniversalVariance
            .estimate(&mut seeded(2), &view, &params)
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());

        let direct =
            crate::quantile::estimate_quantile(&mut seeded(3), &data, 0.9, e, 0.1).unwrap();
        let via = UniversalQuantile
            .estimate(&mut seeded(3), &view, &params.clone().with("q", 0.9))
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());

        let direct = estimate_iqr(&mut seeded(4), &data, e, 0.1).unwrap();
        let via = UniversalIqr
            .estimate(&mut seeded(4), &view, &params)
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());
    }

    #[test]
    fn multi_mean_trait_matches_multivariate_free_function() {
        let mut rng = seeded(40);
        let g = Gaussian::new(1.0, 1.0).unwrap();
        let rows: Vec<Vec<f64>> = (0..4_000)
            .map(|_| vec![g.sample(&mut rng), g.sample(&mut rng), g.sample(&mut rng)])
            .collect();
        let columns: Vec<Vec<f64>> = (0..3)
            .map(|j| rows.iter().map(|r| r[j]).collect())
            .collect();
        let e = Epsilon::new(1.5).unwrap();
        let direct =
            crate::multivariate::estimate_mean_multivariate(&mut seeded(5), &rows, e, 0.1).unwrap();
        let via = UniversalMultiMean
            .estimate(
                &mut seeded(5),
                &DataView::of_columns(&columns),
                &EstimateParams::new(e).with_beta(0.1),
            )
            .unwrap();
        assert_eq!(via.values.len(), 3);
        for (a, b) in via.values.iter().zip(&direct.estimate) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn param_validation_catches_missing_unknown_and_out_of_range() {
        let e = Epsilon::new(1.0).unwrap();
        // Missing required q.
        assert!(UniversalQuantile
            .validate_params(&EstimateParams::new(e))
            .is_err());
        // Out-of-range q.
        assert!(UniversalQuantile
            .validate_params(&EstimateParams::new(e).with("q", 1.5))
            .is_err());
        // Unknown option name.
        assert!(UniversalQuantile
            .validate_params(&EstimateParams::new(e).with("q", 0.5).with("zork", 1.0))
            .is_err());
        // Well-formed.
        assert!(UniversalQuantile
            .validate_params(&EstimateParams::new(e).with("q", 0.5))
            .is_ok());
        // Estimators with no extra params reject any option.
        assert!(UniversalMean
            .validate_params(&EstimateParams::new(e).with("r", 1.0))
            .is_err());
        assert!(UniversalMean
            .validate_params(&EstimateParams::new(e))
            .is_ok());
    }

    #[test]
    fn scalar_estimators_reject_multivariate_views() {
        let columns = vec![vec![1.0; 64], vec![2.0; 64]];
        let view = DataView::of_columns(&columns);
        let params = EstimateParams::new(Epsilon::new(1.0).unwrap());
        let err = UniversalMean
            .estimate(&mut seeded(6), &view, &params)
            .unwrap_err();
        assert!(matches!(err, updp_core::UpdpError::InvalidParameter { .. }));
    }

    #[test]
    fn catalog_names_are_unique_and_metadata_present() {
        let catalog = universal_estimators();
        assert_eq!(catalog.len(), 5);
        let mut names: Vec<&str> = catalog.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        for est in &catalog {
            assert!(est.assumptions().is_empty(), "universal = assumption-free");
            assert_eq!(est.privacy(), Privacy::PureDp);
        }
    }

    #[test]
    fn params_bag_roundtrip() {
        let e = Epsilon::new(1.0).unwrap();
        let mut p = EstimateParams::new(e).with("r", 2.0);
        assert_eq!(p.option("r"), Some(2.0));
        p.set("r", 3.0);
        assert_eq!(p.option("r"), Some(3.0));
        assert_eq!(p.option("nope"), None);
        assert_eq!(p.options().len(), 1);
        let spec = ParamSpec::optional("steps", 4.0, "iterations");
        assert_eq!(p.resolve(&spec).unwrap(), 4.0);
    }
}
