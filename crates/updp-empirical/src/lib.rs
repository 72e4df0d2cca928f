//! # updp-empirical — instance-optimal empirical estimators (Section 3)
//!
//! The paper's technical core: ε-DP estimators for the *empirical* mean
//! and quantiles of a dataset `D` drawn from the **unbounded** integer
//! domain `Z`, with instance-specific error depending on the data's own
//! width `γ(D)` rather than any a-priori domain bound `N`:
//!
//! | Algorithm | Module | Guarantee |
//! |---|---|---|
//! | 3 `InfiniteDomainRadius` | [`radius`] | Thm 3.1: `r̃ad ≤ 2·rad`, `O(ε⁻¹ log log rad)` uncovered |
//! | 4 `InfiniteDomainRange` | [`range`] | Thm 3.2: `|R̃| ≤ 4γ(D)`, `O(ε⁻¹ log log γ)` clipped |
//! | 5 `InfiniteDomainMean` | [`mean`] | Thm 3.3: error `O((γ/(εn))·log log γ)` — optimality ratio `O(ε⁻¹ log log γ)` |
//! | 6 `InfiniteDomainQuantile` | [`quantile`] | Thm 3.5: rank error `O(ε⁻¹ log γ)` |
//! | §3.5 real-domain wrappers | [`discretize`] | Thms 3.6–3.9 |
//! | cached dataset views | [`view`] | `DataView`/`PreparedDataset` artifact caching (DESIGN.md §7) |
//! | §1.1.1 private sum | [`sum`] | error `O((rad/ε)·log log rad)`, no domain bound `N` |
//! | Thm 3.4 packing family | [`packing`] | `Ω(ε⁻¹ log log N)` ratio is necessary |
//!
//! All run in `O(n log n)` time.

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

pub mod dataset;
pub mod discretize;
pub mod gaps;
pub mod mean;
pub mod packing;
pub mod quantile;
pub mod radius;
pub mod range;
pub mod sum;
pub mod view;

pub use dataset::SortedInts;
pub use discretize::{
    real_mean, real_quantile, real_quantile_view, real_radius, real_range, Discretizer, RealRange,
};
pub use gaps::GapSummary;
pub use mean::{infinite_domain_mean, EmpiricalMeanResult};
pub use packing::PackingFamily;
pub use quantile::{infinite_domain_quantile, rank_error, QuantileResult};
pub use radius::infinite_domain_radius;
pub use range::{infinite_domain_range, IntRange};
pub use sum::{infinite_domain_sum, SumResult};
pub use view::{
    sorted_copy, sorted_copy_threads, ColumnCache, ColumnView, DataView, PreparedDataset,
};
