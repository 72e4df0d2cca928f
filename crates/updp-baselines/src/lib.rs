//! # updp-baselines — the prior estimators of Table 1
//!
//! Every comparator the paper measures itself against, implemented from
//! the original constructions (with pure-DP noise substitutions recorded
//! in DESIGN.md where the originals use CDP/zCDP):
//!
//! | Module | Prior work | Assumptions | Privacy | Served |
//! |---|---|---|---|---|
//! | [`nonprivate`] | textbook estimators | — | none | no |
//! | [`naive_clip`] | folklore clipped Laplace | A1 | ε-DP | yes |
//! | [`kv18`] | Karwa–Vadhan histograms | A1, A2, A3 | ε-DP | yes |
//! | [`coinpress`] | KLSU19/BDKU20 iterative | A1, A2 | ε-DP (Laplace variant) | yes |
//! | [`ksu20`] | heavy-tailed truncated mean | A1, A2 | ε-DP | yes |
//! | [`bs19`] | trimmed mean, smooth sensitivity | A1 | (ε, δ)-DP (see module docs) | no |
//! | [`dl09`] | propose-test-release IQR | none (universal!) | **(ε, δ)-DP only** | no |
//!
//! "Served" means `updp-serve`'s catalog lists it: that catalog admits
//! only [`Privacy::PureDp`](updp_statistical::Privacy::PureDp)
//! estimators, because its budget ledger sums ε and has no δ.
//!
//! The experiments in `updp-experiments` run each of these against the
//! universal estimators on workloads that satisfy — and that violate —
//! the assumptions each baseline needs.

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

pub mod bs19;
pub mod catalog;
pub mod coinpress;
pub mod dl09;
pub mod ksu20;
pub mod kv18;
pub mod naive_clip;
pub mod nonprivate;

pub use bs19::bs19_trimmed_mean;
pub use catalog::{
    BASELINES, BS19_TRIMMED_MEAN, COINPRESS_MEAN, COINPRESS_VARIANCE, DL09_IQR, KSU20_MEAN,
    KV18_MEAN, KV18_VARIANCE, NAIVE_CLIP_MEAN, NONPRIVATE_IQR, NONPRIVATE_MEAN,
    NONPRIVATE_VARIANCE,
};
pub use coinpress::{coinpress_mean, coinpress_variance};
pub use dl09::{dl09_iqr, Dl09Iqr};
pub use ksu20::ksu20_mean;
pub use kv18::{kv18_gaussian_mean, kv18_gaussian_variance};
pub use naive_clip::naive_clipped_mean;
pub use nonprivate::{sample_iqr, sample_mean, sample_midrange, sample_variance};
