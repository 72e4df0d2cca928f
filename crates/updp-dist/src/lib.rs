//! # updp-dist — distributions with ground truth
//!
//! The workload substrate for the *Universal Private Estimators*
//! reproduction. Every distribution implements
//! [`ContinuousDistribution`], which exposes both sampling and the exact
//! values of every functional the paper's bounds are stated in — mean,
//! variance, central moments `μ_k`, `IQR`, the highest-density width
//! `ϕ(β)` (Section 2.1), the quartile density `θ(κ)` (Section 6), and the
//! `(m, β)`-statistical width `γ(m, β)`.
//!
//! Families provided (chosen to cover every regime in the paper's
//! evaluation-by-theorem):
//!
//! | Family | Why it is here |
//! |---|---|
//! | [`gaussian::Gaussian`] | Theorems 4.6 & 5.3 vs \[KV18\]/\[KLSU19\] |
//! | [`uniform::Uniform`] | intro's mid-range example |
//! | [`laplace::LaplaceDist`] | light-tailed non-Gaussian control |
//! | [`exponential::Exponential`] | asymmetric truncation-bias terms |
//! | [`lognormal::LogNormal`] | skewed IQR workload |
//! | [`pareto::Pareto`] | heavy tails: Theorems 4.9 & 5.5 |
//! | [`student_t::StudentT`] | symmetric heavy tails |
//! | [`cauchy::Cauchy`] | undefined mean/variance stress test |
//! | [`mixture::GaussianMixture`] | ill-behaved spikes (`ϕ(1/16) ≪ σ`) |
//! | [`affine::Affine`] | placing μ far from 0 to break A1 baselines |
//!
//! The special functions in [`special`] are hand-rolled (no external stats
//! crates) and pinned against published reference values.

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

pub mod affine;
pub mod cauchy;
pub mod error;
pub mod exponential;
pub mod gaussian;
pub mod laplace;
pub mod lognormal;
pub mod mixture;
pub mod numeric;
pub mod pareto;
pub mod sampling;
pub mod special;
pub mod student_t;
pub mod traits;
pub mod uniform;

pub use affine::Affine;
pub use cauchy::Cauchy;
pub use error::{DistError, Result};
pub use exponential::Exponential;
pub use gaussian::Gaussian;
pub use laplace::LaplaceDist;
pub use lognormal::LogNormal;
pub use mixture::GaussianMixture;
pub use pareto::Pareto;
pub use student_t::StudentT;
pub use traits::{numeric_central_moment, ContinuousDistribution};
pub use uniform::{midrange, Uniform};
