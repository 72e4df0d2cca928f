//! Byte-for-byte pin of the serve releases.
//!
//! A fixed batch (`mean`, `variance`, `quantile` at `q = 0.9`, `iqr`)
//! runs on a seeded 4 000-row Gaussian dataset, once on the registered
//! snapshot and once after `Registry::append`. The registry opts every
//! snapshot into the snapshot-paired gap summary (DESIGN.md §12), so
//! the two stages cover the summary and its rebuild on the successor.
//! Each stage pins two things against `tests/golden/releases.txt`:
//!
//! * `estimate` rows — the un-snapped estimator values, each
//!   estimator called through `Estimator::estimate` on the stage's
//!   snapshot with query `i`'s generator `child_rng(BATCH_SEED, i)`
//!   at the full nominal ε;
//! * `hardened` rows — the served releases of `execute_batch`,
//!   rendered with `wire::outcome_json`.
//!
//! A deliberate regeneration is
//!
//! ```sh
//! cargo test -p updp-serve --test release_golden -- --ignored regenerate
//! ```
//!
//! and a change that does so must say why in its description.

use std::path::{Path, PathBuf};
use updp_core::json::JsonValue;
use updp_core::privacy::Epsilon;
use updp_core::rng::{child_rng, seeded};
use updp_dist::{ContinuousDistribution, Gaussian};
use updp_serve::engine::{execute_batch, DEFAULT_BOUND};
use updp_serve::{wire, EstimatorCatalog, Ledger, QuerySpec, Registry, ReleaseMode};
use updp_statistical::{EstimateParams, DEFAULT_BETA};

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
    let specs = batch();

    let snapshot = dataset.snapshot().expect("snapshot");
    let view = snapshot.view();
    for (i, spec) in specs.iter().enumerate() {
        let mut params = EstimateParams::new(Epsilon::new(spec.epsilon).expect("valid ε"))
            .with_beta(DEFAULT_BETA);
        for (name, value) in &spec.options {
            params.set(name, *value);
        }
        let released = catalog
            .get(&spec.estimator)
            .expect("served estimator")
            .estimate(&mut child_rng(BATCH_SEED, i as u64), &view, &params)
            .expect("estimate");
        out.push_str(&format!(
            "{stage} estimate {}: {}\n",
            spec.estimator,
            JsonValue::object(vec![("values", JsonValue::numbers(&released.values))]).to_compact()
        ));
    }
    drop(view);
    drop(snapshot);

    let mode = ReleaseMode::Hardened {
        bound: DEFAULT_BOUND,
    };
    let outcomes =
        execute_batch(&dataset, catalog, ledger, &specs, BATCH_SEED, mode).expect("batch executes");
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        out.push_str(&format!(
            "{stage} hardened {}: {}\n",
            spec.estimator,
            wire::outcome_json(outcome).to_compact()
        ));
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
