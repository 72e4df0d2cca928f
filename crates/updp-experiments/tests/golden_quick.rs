//! Byte-for-byte pins of the quick experiment outputs.
//!
//! Every `registry()` experiment, run at `ExpConfig::quick()`, must
//! render exactly the text stored in `tests/golden/<id>.txt`. The files
//! are what `experiments all --quick --out DIR` writes, so a deliberate
//! regeneration is
//!
//! ```sh
//! cargo run --release -p updp-experiments --bin experiments -- \
//!     all --quick --out crates/updp-experiments/tests/golden
//! ```
//!
//! and a change that does so must say why in its description: these
//! pins are the fixed point for refactors that claim unchanged outputs.

use std::path::Path;
use updp_experiments::{registry, ExpConfig};

fn golden_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn every_quick_experiment_matches_its_golden_file() {
    let dir = golden_dir();
    let cfg = ExpConfig::quick();
    let mut drifted = Vec::new();
    for (id, _, f) in registry() {
        let path = dir.join(format!("{id}.txt"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let actual = f(&cfg).render();
        if actual != expected {
            eprintln!("== `{id}` drifted; actual render:\n{actual}");
            drifted.push(id);
        }
    }
    assert!(
        drifted.is_empty(),
        "outputs drifted from golden: {drifted:?}"
    );
}

#[test]
fn golden_files_match_the_registry() {
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden directory")
        .map(|entry| entry.expect("golden entry").file_name())
        .filter_map(|name| name.to_str()?.strip_suffix(".txt").map(str::to_string))
        .collect();
    files.sort();
    let mut ids: Vec<String> = registry().iter().map(|(id, _, _)| id.to_string()).collect();
    ids.sort();
    assert_eq!(files, ids, "one golden file per registered experiment");
}
