//! Byte-for-byte pin of the served estimator catalog.
//!
//! `tests/golden/estimators.txt` holds two things:
//!
//! * the compact `/v1/estimators` body of `EstimatorCatalog::standard()`,
//!   fetched from a running server — every served name, statistic,
//!   assumption list and declared parameter;
//! * one `case → message` line per pre-budget rejection of
//!   `execute_batch`: a missing, out-of-range, unknown or non-integer
//!   parameter, and a scalar estimator on a two-column dataset.
//!
//! A deliberate regeneration is
//!
//! ```sh
//! cargo test -p updp-serve --test estimators_golden -- --ignored regenerate
//! ```
//!
//! and a change that does so must say why in its description.

use std::path::{Path, PathBuf};
use updp_serve::client::Connection;
use updp_serve::engine::{execute_batch, DEFAULT_BOUND};
use updp_serve::{EstimatorCatalog, Ledger, QuerySpec, Registry, ReleaseMode, Server};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/estimators.txt")
}

/// The `/v1/estimators` body of a server on an ephemeral port.
fn listing() -> String {
    let server = Server::bind("127.0.0.1:0", Ledger::in_memory()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let running = std::thread::spawn(move || server.run());
    let mut client = Connection::open(&addr).expect("connect");
    let body = client
        .request("GET", "/v1/estimators", "")
        .expect("estimator listing");
    client.shutdown().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
    body
}

/// Each rejected case: its label, the dataset it runs on, its query.
fn rejected_cases() -> Vec<(&'static str, &'static str, QuerySpec)> {
    vec![
        ("quantile without q", "g", QuerySpec::new("quantile", 0.1)),
        (
            "quantile q=1.5",
            "g",
            QuerySpec::new("quantile", 0.1).with("q", 1.5),
        ),
        (
            "mean zork=1",
            "g",
            QuerySpec::new("mean", 0.1).with("zork", 1.0),
        ),
        (
            "coinpress steps=2.5",
            "g",
            QuerySpec::new("coinpress", 0.1)
                .with("r", 10.0)
                .with("sigma", 1.0)
                .with("steps", 2.5),
        ),
        (
            "ksu20 k=1",
            "g",
            QuerySpec::new("ksu20", 0.1)
                .with("r", 10.0)
                .with("mu_k_bound", 4.0)
                .with("k", 1.0),
        ),
        (
            "naive_clip without r",
            "g",
            QuerySpec::new("naive_clip", 0.1),
        ),
        ("mean on 2 columns", "mv", QuerySpec::new("mean", 0.1)),
    ]
}

fn render() -> String {
    let registry = Registry::new();
    let ledger = Ledger::in_memory();
    let rows: Vec<f64> = (0..64).map(f64::from).collect();
    registry
        .register("g", vec![rows.clone()])
        .expect("register");
    registry
        .register("mv", vec![rows.clone(), rows])
        .expect("register");
    for name in ["g", "mv"] {
        ledger.register(name, 1.0).expect("ledger account");
    }
    let catalog = EstimatorCatalog::standard();
    let mode = ReleaseMode::Hardened {
        bound: DEFAULT_BOUND,
    };

    let mut out = format!("listing: {}\n", listing());
    for (label, name, spec) in rejected_cases() {
        let dataset = registry.get(name).expect("registered dataset");
        let err = execute_batch(&dataset, &catalog, &ledger, &[spec], 1, mode)
            .expect_err("rejected before any budget moves");
        out.push_str(&format!("{label} → {err}\n"));
    }
    for name in ["g", "mv"] {
        let spent = ledger.account(name).expect("account").spent;
        assert!(spent == 0.0, "`{name}` spent {spent} on rejected queries");
    }
    out
}

#[test]
fn estimator_catalog_and_rejections_match_golden() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden estimators file");
    let actual = render();
    assert!(
        actual == expected,
        "estimator catalog drifted from golden; actual render:\n{actual}"
    );
}

#[test]
#[ignore = "writes the golden file; run only to regenerate it deliberately"]
fn regenerate() {
    std::fs::write(golden_path(), render()).expect("write golden estimators file");
}
