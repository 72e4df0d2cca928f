//! # updp-statistical — the universal private estimators (Sections 4–6)
//!
//! The paper's headline contribution: ε-DP (pure DP) estimators for the
//! statistical mean, variance, and IQR of an *arbitrary, unknown*
//! continuous distribution `P` over ℝ — no a-priori range for the mean
//! (A1), no variance bounds (A2), no distributional family assumption
//! (A3). This is the first time A1/A2 are removed under pure DP.
//!
//! | Algorithm | Module | Theorems |
//! |---|---|---|
//! | 7 `EstimateIQRLowerBound` | [`iqr_lower_bound`] | 4.3 — the private bucket size |
//! | 8 `EstimateMean` | [`mean`] | 4.5 (general), 4.6 (Gaussian), 4.9 (heavy-tailed) |
//! | 9 `EstimateVariance` | [`variance`] | 5.2 (general), 5.3 (Gaussian), 5.5 (heavy-tailed — first of its kind) |
//! | 10 `EstimateIQR` | [`iqr`] | 6.2 — `α ∝ 1/(εn)` vs \[DL09\]'s `1/(ε log n)` |
//! | general quantiles (extension) | [`quantile`] | §1's "1/4 and 3/4 are not important" made concrete |
//! | multivariate mean (extension, §1.2) | [`multivariate`] | coordinate-wise Laplace composition, `Õ(d^{3/2}/(εn))` in ℓ₂ |
//!
//! Each estimator has two ways in: its free function (e.g.
//! [`estimate_mean`] on a `&[f64]`), and its [`Estimator`] value (e.g.
//! [`MEAN`]), through which the serving engine and the experiment
//! runner call it by name or by reference. The two are bit-identical
//! on the same seed.
//!
//! All estimators run in `O(n log n)` time and are universal: utility
//! guarantees degrade only with log-log of the ill-behavedness `1/ϕ(1/16)`
//! of `P`, and privacy holds unconditionally for every input.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Determinism contracts (DESIGN.md §9): no clocks, environment reads,
// hash-ordered collections or ad-hoc seeding (the lists live in the
// root clippy.toml), and no prints in library code. Test builds and
// binaries are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod estimator;
pub mod iqr;
pub mod iqr_lower_bound;
pub mod mean;
pub mod multivariate;
pub mod quantile;
pub mod variance;

pub use estimator::{
    ColumnCache, ColumnView, DataView, EstimateParams, Estimator, ParamSpec, PreparedDataset,
    Privacy, Release, DEFAULT_BETA, UNIVERSAL,
};
pub use iqr::{estimate_iqr, estimate_iqr_view, IqrEstimate, IQR};
pub use iqr_lower_bound::{estimate_iqr_lower_bound, estimate_iqr_lower_bound_view, pair_gaps};
pub use mean::{
    estimate_mean, estimate_mean_with_bucket, estimate_mean_with_subsample, MeanEstimate, MEAN,
};
pub use multivariate::{
    estimate_mean_multivariate, l2_distance, MultivariateMeanEstimate, MULTI_MEAN,
};
pub use quantile::{estimate_quantile, estimate_quantile_view, QuantileEstimate, QUANTILE};
pub use variance::{estimate_variance, VarianceEstimate, VARIANCE};
