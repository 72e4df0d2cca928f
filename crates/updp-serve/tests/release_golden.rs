//! Byte-for-byte pin of the serve releases.
//!
//! A fixed batch (`mean`, `variance`, `quantile` at `q = 0.9`, `iqr`)
//! runs through `execute_batch` on a seeded 4 000-row Gaussian dataset
//! in both release modes, once on the registered snapshot and once
//! after `Registry::append`. The registry opts every snapshot into the
//! snapshot-paired gap summary (DESIGN.md §12), so the two stages cover
//! the summary and its rebuild on the successor. Each outcome is
//! rendered with `wire::outcome_json` and compared with
//! `tests/golden/releases.txt`.
//!
//! A deliberate regeneration is
//!
//! ```sh
//! cargo test -p updp-serve --test release_golden -- --ignored regenerate
//! ```
//!
//! and a change that does so must say why in its description.

use std::path::{Path, PathBuf};
use updp_core::rng::seeded;
use updp_dist::{ContinuousDistribution, Gaussian};
use updp_serve::engine::{execute_batch, DEFAULT_BOUND};
use updp_serve::{wire, EstimatorCatalog, Ledger, QuerySpec, Registry, ReleaseMode};

const BATCH_SEED: u64 = 7;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/releases.txt")
}

fn batch() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new("mean", 0.5),
        QuerySpec::new("variance", 0.5),
        QuerySpec::new("quantile", 0.5).with("q", 0.9),
        QuerySpec::new("iqr", 0.5),
    ]
}

fn render_stage(
    out: &mut String,
    stage: &str,
    registry: &Registry,
    ledger: &Ledger,
    catalog: &EstimatorCatalog,
) {
    let dataset = registry.get("g").expect("registered dataset");
    let modes = [
        ("raw", ReleaseMode::Raw),
        (
            "hardened",
            ReleaseMode::Hardened {
                bound: DEFAULT_BOUND,
            },
        ),
    ];
    let specs = batch();
    for (label, mode) in modes {
        let outcomes = execute_batch(&dataset, catalog, ledger, &specs, BATCH_SEED, mode)
            .expect("batch executes");
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            out.push_str(&format!(
                "{stage} {label} {}: {}\n",
                spec.estimator,
                wire::outcome_json(outcome).to_compact()
            ));
        }
    }
}

fn render_releases() -> String {
    let mut rng = seeded(0xDA7A);
    let gaussian = Gaussian::new(100.0, 5.0).expect("valid Gaussian");
    let data = gaussian.sample_vec(&mut rng, 4_000);
    let delta = gaussian.sample_vec(&mut rng, 16);

    let registry = Registry::new();
    registry.register("g", vec![data]).expect("register");
    let ledger = Ledger::in_memory();
    ledger.register("g", 100.0).expect("ledger account");
    let catalog = EstimatorCatalog::standard();

    let mut out = String::new();
    render_stage(&mut out, "registered", &registry, &ledger, &catalog);
    registry.append("g", vec![delta]).expect("append");
    render_stage(&mut out, "appended", &registry, &ledger, &catalog);
    out
}

#[test]
fn serve_releases_match_golden() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden releases file");
    let actual = render_releases();
    assert!(
        actual == expected,
        "serve releases drifted from golden; actual render:\n{actual}"
    );
}

#[test]
#[ignore = "writes the golden file; run only to regenerate it deliberately"]
fn regenerate() {
    std::fs::write(golden_path(), render_releases()).expect("write golden releases file");
}
