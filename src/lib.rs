//! # Universal Private Estimators
//!
//! A production-quality Rust implementation of **"Universal Private
//! Estimators"** (Wei Dong and Ke Yi, PODS 2023; arXiv:2111.02598):
//! pure-DP (ε-DP) estimators for the statistical **mean**, **variance**,
//! and **interquartile range** of an *arbitrary, unknown* continuous
//! distribution — with **no** a-priori range for the mean (assumption
//! A1), **no** variance bounds (A2), and **no** distribution-family
//! assumption (A3).
//!
//! ## Quickstart
//!
//! ```
//! use updp::prelude::*;
//!
//! // Income-like data: unknown location, unknown scale, skewed.
//! let mut rng = updp::core::rng::seeded(42);
//! let data: Vec<f64> = (0..20_000)
//!     .map(|i| 60_000.0 + 15_000.0 * ((i % 97) as f64 / 97.0 - 0.5))
//!     .collect();
//!
//! let epsilon = Epsilon::new(1.0).unwrap();
//! let mean = estimate_mean(&mut rng, &data, epsilon, DEFAULT_BETA).unwrap();
//! assert!((mean.estimate - 60_000.0).abs() < 1_000.0);
//! ```
//!
//! Each call spends its own ε. To estimate several parameters of one
//! dataset under a total ε, split it first (basic composition, Lemma
//! 2.2): `epsilon.split(&[1.0, 1.0, 1.0])` gives one share per call.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `updp-core` | DP primitives: Laplace, SVT, inverse-sensitivity mechanism, clipped mean, amplification, ε/δ types |
//! | [`empirical`] | `updp-empirical` | §3 instance-optimal empirical estimators over unbounded domains |
//! | [`statistical`] | `updp-statistical` | §4–6 universal estimators (`EstimateMean`/`Variance`/`IQR`) + the workspace [`Estimator`](statistical::Estimator) type |
//! | [`baselines`] | `updp-baselines` | Table 1 comparators: KV18, CoinPress, KSU20, BS19, DL09 — all behind the `Estimator` catalog |
//!
//! The [`prelude`] pulls in the handful of names most applications need.
//! The distributions with exact ground-truth functionals (`ϕ(β)`,
//! `θ(κ)`, `μ_k`, …) that the examples, tests and experiments sample
//! from live in the separate `updp-dist` crate: the estimators assume no
//! distribution family, so no estimator depends on it.
//!
//! ## Privacy model
//!
//! All estimators satisfy pure ε-DP (Eq. 1 with δ = 0) for *every* input
//! dataset; the utility guarantees are the instance-specific bounds of
//! Theorems 4.5, 5.2, and 6.2 and hold with probability 1 − β over both
//! the sample and the mechanism's coins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code returns values; output streams belong to binaries
// (DESIGN.md §9).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub use updp_baselines as baselines;
pub use updp_core as core;
pub use updp_empirical as empirical;
pub use updp_statistical as statistical;

/// The most commonly used names in one import.
pub mod prelude {
    pub use updp_core::privacy::{Delta, Epsilon};
    pub use updp_core::{Result, UpdpError};
    pub use updp_statistical::{
        estimate_iqr, estimate_mean, estimate_mean_multivariate, estimate_quantile,
        estimate_variance, DataView, EstimateParams, Estimator, IqrEstimate, MeanEstimate,
        MultivariateMeanEstimate, PreparedDataset, QuantileEstimate, Release, VarianceEstimate,
        DEFAULT_BETA,
    };
}
