//! The `Estimator` type: every estimator of the workspace as data.
//!
//! An [`Estimator`] is one `const` value — a name, its Table 1
//! metadata and a function `(&mut rng, &DataView, &EstimateParams) ->
//! Release` — for the five universal estimators of this crate and the
//! Table 1 comparators in `updp-baselines` alike. Consumers (the
//! serving engine's name-sorted catalog, the experiment trial runner)
//! call [`Estimator::estimate`] instead of hand-rolled per-estimator
//! glue. Each body calls its free function with the same arguments in
//! the same order, so a call through an [`Estimator`] is
//! **bit-identical** to the direct free function on the same seed
//! (pinned by the workspace equivalence suite) and can never change a
//! released value.
//!
//! Applications that hold a plain `&[f64]` call the free functions
//! ([`crate::estimate_mean`], [`crate::estimate_variance`], …) directly.
//! **Each call spends its own ε** — callers estimating several
//! parameters of the *same* dataset split their total budget across
//! calls (basic composition, Lemma 2.2), e.g. with [`Epsilon::split`].

use crate::iqr::IQR;
use crate::mean::MEAN;
use crate::multivariate::MULTI_MEAN;
use crate::quantile::QUANTILE;
use crate::variance::VARIANCE;
use rand::RngCore;
use updp_core::error::{Result, UpdpError};
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

/// The signature every estimator body shares: `(rng, view, params) →
/// release`.
type Run = fn(&mut dyn RngCore, &DataView<'_>, &EstimateParams) -> Result<Release>;

/// One estimator as data: its Table 1 metadata plus the function that
/// runs it.
///
/// Every estimator of the workspace is one `const` of this type next
/// to its free function — the five universal ones here
/// ([`crate::MEAN`], [`crate::VARIANCE`], [`crate::QUANTILE`],
/// [`crate::IQR`], [`crate::MULTI_MEAN`], listed in [`UNIVERSAL`]) and
/// the Table 1 comparators in `updp-baselines` (its `BASELINES`). The
/// serving engine looks them up by name; the experiment trial runner
/// takes them by reference.
///
/// # Determinism obligation
///
/// `run` must be a pure function of `(rng state, view contents,
/// params)` — consuming the generator in **exactly** the same order as
/// the underlying free function — so that [`Estimator::estimate`] is
/// bit-identical to a direct call on the same seed. It must not read
/// cached view artifacts whose construction consumes randomness (see
/// `updp_empirical::view` and DESIGN.md §7).
///
/// # Running one
///
/// The fields are private: [`Estimator::estimate`] is the only way to
/// run an estimator, which is what lets the serving crate lint its one
/// call site (R9 in DESIGN.md §9). Reading the body from outside this
/// crate does not compile:
///
/// ```compile_fail,E0616
/// let run = updp_statistical::MEAN.run;
/// ```
#[derive(Debug)]
pub struct Estimator {
    name: &'static str,
    statistic: &'static str,
    privacy: Privacy,
    assumptions: &'static [&'static str],
    params: &'static [ParamSpec],
    multi_column: bool,
    check: fn(&EstimateParams) -> Result<()>,
    run: Run,
}

impl Estimator {
    /// A scalar estimator: it reads column 0 of a dimension-1 view.
    /// Pure ε-DP, no assumptions, no parameters until chained
    /// otherwise.
    pub const fn scalar(name: &'static str, statistic: &'static str, run: Run) -> Self {
        Estimator {
            name,
            statistic,
            privacy: Privacy::PureDp,
            assumptions: &[],
            params: &[],
            multi_column: false,
            check: |_| Ok(()),
            run,
        }
    }

    /// A multivariate estimator: it consumes every column of the view.
    pub const fn multi_column(name: &'static str, statistic: &'static str, run: Run) -> Self {
        Estimator {
            multi_column: true,
            ..Estimator::scalar(name, statistic, run)
        }
    }

    /// Sets the privacy guarantee (builder style).
    pub const fn with_privacy(self, privacy: Privacy) -> Self {
        Estimator { privacy, ..self }
    }

    /// Sets the Table 1 assumptions (builder style).
    pub const fn with_assumptions(self, assumptions: &'static [&'static str]) -> Self {
        Estimator {
            assumptions,
            ..self
        }
    }

    /// Declares the extra parameters and the range check that
    /// [`Estimator::validate_params`] runs after the declared-names
    /// check (builder style).
    pub const fn with_params(
        self,
        params: &'static [ParamSpec],
        check: fn(&EstimateParams) -> Result<()>,
    ) -> Self {
        Estimator {
            params,
            check,
            ..self
        }
    }

    /// Stable registry/wire name (`[a-z0-9_-]`, e.g. `"mean"`,
    /// `"kv18"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The statistic estimated (`"mean"`, `"variance"`, `"iqr"`,
    /// `"quantile"`, `"multi-mean"`).
    pub fn statistic(&self) -> &'static str {
        self.statistic
    }

    /// The privacy guarantee the released values carry.
    pub fn privacy(&self) -> Privacy {
        self.privacy
    }

    /// Table 1 assumptions the estimator's *utility* needs (`"A1"` =
    /// a-priori mean range, `"A2"` = variance bounds, `"A3"` =
    /// distribution family). Empty for the universal estimators.
    pub fn assumptions(&self) -> &'static [&'static str] {
        self.assumptions
    }

    /// Extra parameters beyond `(ε, β)` — see [`ParamSpec`].
    pub fn params(&self) -> &'static [ParamSpec] {
        self.params
    }

    /// Whether the estimator consumes every column of the view
    /// (multivariate). Scalar estimators read column 0 and require a
    /// dimension-1 view.
    pub fn is_multi_column(&self) -> bool {
        self.multi_column
    }

    /// Validates `params` *before* any budget is spent: every required
    /// parameter present, no unknown option names, then the
    /// estimator's own range check.
    pub fn validate_params(&self, params: &EstimateParams) -> Result<()> {
        for spec in self.params {
            params.resolve(spec)?;
        }
        for (name, _) in params.options() {
            if !self.params.iter().any(|spec| spec.name == name) {
                return Err(UpdpError::InvalidParameter {
                    name: "params",
                    reason: format!("unknown parameter `{name}`"),
                });
            }
        }
        (self.check)(params)
    }

    /// Runs the estimator. A scalar estimator first rejects a view of
    /// any dimension but 1. See the type docs for the determinism
    /// obligation.
    pub fn estimate(
        &self,
        rng: &mut dyn RngCore,
        view: &DataView<'_>,
        params: &EstimateParams,
    ) -> Result<Release> {
        if !self.multi_column && view.dim() != 1 {
            return Err(UpdpError::InvalidParameter {
                name: self.name,
                reason: format!(
                    "scalar estimator needs a dimension-1 dataset, got dimension {}",
                    view.dim()
                ),
            });
        }
        (self.run)(rng, view, params)
    }
}

/// The five universal estimators (the statistical half of a serving
/// catalog; `updp_baselines::BASELINES` holds the comparators).
pub const UNIVERSAL: [&Estimator; 5] = [&MEAN, &VARIANCE, &QUANTILE, &IQR, &MULTI_MEAN];

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::iqr::estimate_iqr;
    use crate::mean::estimate_mean;
    use crate::variance::estimate_variance;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};

    #[test]
    fn estimate_matches_free_functions_bit_for_bit() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        let mut rng = seeded(30);
        let data = g.sample_vec(&mut rng, 5_000);
        let e = Epsilon::new(0.8).unwrap();
        let params = EstimateParams::new(e).with_beta(0.1);
        let view = DataView::of(&data);

        let direct = estimate_mean(&mut seeded(1), &data, e, 0.1).unwrap();
        let via = MEAN.estimate(&mut seeded(1), &view, &params).unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());

        let direct = estimate_variance(&mut seeded(2), &data, e, 0.1).unwrap();
        let via = VARIANCE.estimate(&mut seeded(2), &view, &params).unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());

        let direct =
            crate::quantile::estimate_quantile(&mut seeded(3), &data, 0.9, e, 0.1).unwrap();
        let via = QUANTILE
            .estimate(&mut seeded(3), &view, &params.clone().with("q", 0.9))
            .unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());

        let direct = estimate_iqr(&mut seeded(4), &data, e, 0.1).unwrap();
        let via = IQR.estimate(&mut seeded(4), &view, &params).unwrap();
        assert_eq!(via.primary().to_bits(), direct.estimate.to_bits());
    }

    #[test]
    fn multi_mean_matches_multivariate_free_function() {
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
        let via = MULTI_MEAN
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
        assert!(QUANTILE.validate_params(&EstimateParams::new(e)).is_err());
        // Out-of-range q.
        assert!(QUANTILE
            .validate_params(&EstimateParams::new(e).with("q", 1.5))
            .is_err());
        // Unknown option name.
        assert!(QUANTILE
            .validate_params(&EstimateParams::new(e).with("q", 0.5).with("zork", 1.0))
            .is_err());
        // Well-formed.
        assert!(QUANTILE
            .validate_params(&EstimateParams::new(e).with("q", 0.5))
            .is_ok());
        // Estimators with no extra params reject any option.
        assert!(MEAN
            .validate_params(&EstimateParams::new(e).with("r", 1.0))
            .is_err());
        assert!(MEAN.validate_params(&EstimateParams::new(e)).is_ok());
    }

    #[test]
    fn scalar_estimators_reject_multivariate_views() {
        let columns = vec![vec![1.0; 64], vec![2.0; 64]];
        let view = DataView::of_columns(&columns);
        let params = EstimateParams::new(Epsilon::new(1.0).unwrap());
        let err = MEAN.estimate(&mut seeded(6), &view, &params).unwrap_err();
        assert!(matches!(err, updp_core::UpdpError::InvalidParameter { .. }));
    }

    #[test]
    fn catalog_names_are_unique_and_metadata_present() {
        let mut names: Vec<&str> = UNIVERSAL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        for est in UNIVERSAL {
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
