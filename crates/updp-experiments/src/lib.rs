//! # updp-experiments — the paper's evaluation, regenerated
//!
//! *Universal Private Estimators* is a PODS theory paper with no
//! empirical section; its "results" are Table 1 (the assumption matrix)
//! and the theorem-by-theorem comparisons of §1.1. This crate turns each
//! of those claims into a measured experiment (see DESIGN.md §2 for the
//! full index) and regenerates every table via
//!
//! ```text
//! cargo run --release -p updp-experiments --bin experiments -- <id|all> [--quick]
//! ```
//!
//! The quick goldens under `tests/golden/` pin every table's `--quick`
//! render byte-for-byte.

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

pub mod ablation_exps;
pub mod config;
pub mod empirical_exps;
pub mod iqr_exps;
pub mod mean_exps;
pub mod multivariate_exps;
pub mod streaming_exps;
pub mod table;
pub mod trial;
pub mod variance_exps;

pub use config::ExpConfig;
pub use table::Table;
pub use trial::{run_trials, ErrorStats};

/// An experiment entry point.
pub type ExpFn = fn(&ExpConfig) -> Table;

/// The experiment registry: `(id, description, entry point)`, in the
/// order they appear in DESIGN.md §2.
pub fn registry() -> Vec<(&'static str, &'static str, ExpFn)> {
    vec![
        (
            "table1",
            "assumption matrix: baselines vs broken A1/A2/A3",
            mean_exps::table1,
        ),
        (
            "radius",
            "Thm 3.1: private radius, 2x scale + log log coverage",
            empirical_exps::radius,
        ),
        (
            "range",
            "Thm 3.2: private range, 4γ width anywhere on the line",
            empirical_exps::range,
        ),
        (
            "emp-mean",
            "Thm 3.3: empirical mean optimality ratio ~ log log γ",
            empirical_exps::emp_mean,
        ),
        (
            "packing",
            "Thm 3.4: packing family, ratio grows as log log N",
            empirical_exps::packing,
        ),
        (
            "emp-quantile",
            "Thm 3.5: rank error ~ ε⁻¹ log γ",
            empirical_exps::emp_quantile,
        ),
        ("iqr-lb", "Thm 4.3: ϕ(1/16)/4 ≤ IQR̲ ≤ IQR", iqr_exps::iqr_lb),
        (
            "gauss-mean",
            "Thm 4.6: Gaussian mean vs KV18/CoinPress",
            mean_exps::gauss_mean,
        ),
        (
            "heavy-mean",
            "Thm 4.9: heavy tails vs KSU20 (mis)specified μ̄_k",
            mean_exps::heavy_mean,
        ),
        (
            "arb-mean",
            "Eq. 8: arbitrary finite-variance vs BS19/KSU20",
            mean_exps::arb_mean,
        ),
        (
            "gauss-var",
            "Thm 5.3: Gaussian variance across 12 decades of σ",
            variance_exps::gauss_var,
        ),
        (
            "heavy-var",
            "Thm 5.5: first heavy-tailed private variance",
            variance_exps::heavy_var,
        ),
        (
            "iqr",
            "Thm 6.2: IQR 1/(εn) vs DL09 1/(ε log n)",
            iqr_exps::iqr,
        ),
        (
            "ill-behaved",
            "§1: graceful log log(1/ϕ) degradation",
            ablation_exps::ill_behaved,
        ),
        (
            "ablate-subsample",
            "§4.2: m = εn subsample sweet spot",
            ablation_exps::ablate_subsample,
        ),
        (
            "ablate-bucket",
            "§4.1: private bucket vs oracle buckets",
            ablation_exps::ablate_bucket,
        ),
        (
            "multi-mean",
            "§1.2 extension: multivariate mean, d^{3/2} composition cost",
            multivariate_exps::multi_mean,
        ),
        (
            "streaming",
            "DESIGN §8: error trajectory as records arrive (merge-maintained appends)",
            streaming_exps::streaming,
        ),
    ]
}

/// Looks up one experiment by id.
pub fn find(id: &str) -> Option<ExpFn> {
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert_eq!(ids.len(), 18);
    }

    #[test]
    fn find_works() {
        assert!(find("gauss-mean").is_some());
        assert!(find("nope").is_none());
    }

    // Smoke-run the cheapest experiments end to end in quick mode so the
    // harness itself is covered by `cargo test`.
    #[test]
    fn smoke_emp_mean() {
        let cfg = ExpConfig {
            trials: 4,
            quick: true,
            ..ExpConfig::default()
        };
        let t = empirical_exps::emp_mean(&cfg);
        assert_eq!(t.id, "emp-mean");
        assert!(!t.rows.is_empty());
        assert!(t.render().contains("emp-mean"));
    }

    #[test]
    fn smoke_iqr_lb() {
        let cfg = ExpConfig {
            trials: 4,
            quick: true,
            ..ExpConfig::default()
        };
        let t = iqr_exps::iqr_lb(&cfg);
        assert_eq!(t.rows.len(), 6);
    }

    #[test]
    fn smoke_streaming() {
        let cfg = ExpConfig {
            trials: 3,
            quick: true,
            ..ExpConfig::default()
        };
        let t = streaming_exps::streaming(&cfg);
        assert_eq!(t.id, "streaming");
        assert_eq!(t.rows.len(), 8, "one row per checkpoint");
        // Quick mode streams 65_536/8 = 8_192 records; the first
        // doubling checkpoint is 8_192 >> 7 = 64.
        assert_eq!(t.rows[0][0], "64");
        assert_eq!(t.rows[7][0], "8192");
    }

    #[test]
    fn smoke_ablate_bucket() {
        let cfg = ExpConfig {
            trials: 3,
            quick: true,
            ..ExpConfig::default()
        };
        let t = ablation_exps::ablate_bucket(&cfg);
        assert_eq!(t.rows.len(), 5);
    }
}
