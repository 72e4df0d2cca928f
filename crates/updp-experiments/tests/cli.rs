//! The `experiments` driver's argument handling: ids are checked and
//! deduplicated before any experiment runs.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary")
}

#[test]
fn unknown_id_exits_2_before_running_any_experiment() {
    let out = experiments(&["table1", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `nope`"), "{stderr}");
}

#[test]
fn repeated_id_runs_once_where_it_first_appears() {
    // The repeat is not adjacent: dropping only adjacent repeats fails.
    let out = experiments(&["radius", "range", "radius", "--quick", "--trials", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("trials/cell").count(), 2, "{stdout}");
    let radius = stdout.find("[radius]").expect("radius table");
    let range = stdout.find("[range]").expect("range table");
    assert!(radius < range, "{stdout}");
    assert_eq!(stdout.matches("[radius]").count(), 1, "{stdout}");
}
