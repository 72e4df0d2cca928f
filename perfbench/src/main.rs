//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload serve-hot|serve-stream|library-1e7 --seed N
//!           --seconds S --trace 0|1 --server-bin PATH
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it replays the same seeded schedule in-process with spans around the
//! calls into each layer and reports the per-layer metrics. Either way
//! it checks the server's releases against an in-process oracle and its
//! ε ledger against the charges it was told of, prints a table, and
//! prints one JSON object as the last line of standard output. A failed
//! check exits 1 after printing `"correct": false`; a run that could not
//! measure exits 1 without a result. `README.md` beside this file
//! defines every metric and workload.

mod library;
mod plan;
mod procfs;
mod replay;
mod serve;
mod span;
mod stats;

use plan::Workload;
use stats::{beyond, median, nearest_rank};
use std::path::{Path, PathBuf};
use updp_core::json::JsonValue;

/// End-to-end metrics and their units, printed by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, their units, and the end-to-end metric and
/// workload each should move; printed by every `--trace 1` run.
const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "http.parse_us",
        "us",
        "query_p50_ms, cpu_ms_per_query on serve-hot",
    ),
    (
        "http.encode_us",
        "us",
        "query_p50_ms, cpu_ms_per_query on serve-hot",
    ),
    ("wire.parse_query_us", "us", "query_p50_ms on serve-hot"),
    ("wire.render_us", "us", "query_p50_ms on serve-hot"),
    ("wire.register_parse_ms", "ms", "setup_s on serve-hot"),
    ("registry.register_ms", "ms", "setup_s on serve-hot"),
    ("registry.flush_us", "us", "query_p50_ms on serve-stream"),
    (
        "ledger.reserve_us",
        "us",
        "query_p50_ms, cpu_ms_per_query on serve-hot",
    ),
    (
        "ledger.persists_per_query",
        "count",
        "query_p50_ms, cpu_ms_per_query on serve-hot",
    ),
    (
        "ledger.snapshot_bytes",
        "bytes",
        "cpu_ms_per_query on serve-hot",
    ),
    ("engine.self_us", "us", "query_p50_ms on serve-hot"),
    (
        "estimator.mean_us",
        "us",
        "query_p50_ms on serve-hot and library-1e7",
    ),
    ("estimator.variance_us", "us", "query_p50_ms on library-1e7"),
    (
        "estimator.quantile_us",
        "us",
        "query_p50_ms on serve-stream",
    ),
    (
        "estimator.iqr_us",
        "us",
        "query_p50_ms on serve-stream and library-1e7",
    ),
    (
        "iqr_lower_bound.us",
        "us",
        "query_p50_ms on library-1e7 and serve-hot",
    ),
    (
        "iqr_lower_bound.pair_gaps_ms",
        "ms",
        "query_p50_ms on library-1e7 and serve-hot",
    ),
    (
        "discretize.range_us",
        "us",
        "query_p50_ms on library-1e7 and serve-hot",
    ),
    (
        "discretize.quantile_us",
        "us",
        "query_p50_ms on library-1e7; query_p50_ms on serve-stream",
    ),
    (
        "clipped_mean.us",
        "us",
        "query_p50_ms on library-1e7 and serve-hot",
    ),
    (
        "view.grid_build_ms",
        "ms",
        "query_p50_ms on library-1e7; query_p50_ms on serve-stream",
    ),
    (
        "view.sort_ms",
        "ms",
        "query_p50_ms on library-1e7; query_p50_ms on serve-stream",
    ),
    ("view.append_us", "us", "query_p50_ms on serve-stream"),
    (
        "view.grid_hit_ratio",
        "ratio",
        "query_p50_ms on serve-stream",
    ),
    ("gaps.build_ms", "ms", "query_p50_ms on serve-stream"),
    ("gaps.hit_ratio", "ratio", "query_p50_ms on serve-stream"),
    (
        "trace.overhead_pct",
        "%",
        "none: traced replay vs the same replay without spans",
    ),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload serve-hot|serve-stream|library-1e7 --seed N \
         --seconds S --trace 0|1 [--server-bin PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace: trace.unwrap_or_else(|| usage()),
        server_bin,
    }
}

/// The run's result: the JSON line's fields plus table rows.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra table rows: name, value, unit, note.
    notes: Vec<(String, f64, &'static str, String)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(values: [f64; 5]) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

fn serve_notes(run: &serve::ServeRun) -> Vec<(String, f64, &'static str, String)> {
    let mut notes = vec![
        (
            "queries".to_string(),
            run.query_ms.len() as f64,
            "count",
            "rated-phase samples".to_string(),
        ),
        (
            "query_p90_ms".to_string(),
            nearest_rank(&sorted(&run.query_ms), 0.9),
            "ms",
            format!("{} samples beyond", beyond(&sorted(&run.query_ms), 0.9)),
        ),
        (
            "query_p99_ms".to_string(),
            nearest_rank(&sorted(&run.query_ms), 0.99),
            "ms",
            format!("{} samples beyond", beyond(&sorted(&run.query_ms), 0.99)),
        ),
        (
            "gen.lag_p99_ms".to_string(),
            run.lag_p99_ms,
            "ms",
            format!("validity; bound {}", serve::MAX_LAG_P99_MS),
        ),
        (
            "gen.offered_rps".to_string(),
            run.offered_rps,
            "1/s",
            "validity".to_string(),
        ),
        (
            "gen.achieved_rps".to_string(),
            run.achieved_rps,
            "1/s",
            "validity".to_string(),
        ),
        (
            "fail_frac".to_string(),
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
            "failed / attempted".to_string(),
        ),
    ];
    if !run.flush_ms.is_empty() {
        let flush = sorted(&run.flush_ms);
        notes.push((
            "flush_p50_ms".into(),
            nearest_rank(&flush, 0.5),
            "ms",
            format!("{} bursts", flush.len()),
        ));
        notes.push((
            "flush_p99_ms".into(),
            nearest_rank(&flush, 0.99),
            "ms",
            String::new(),
        ));
    }
    notes
}

fn measure(args: &Args, work: &Path) -> Result<Outcome, String> {
    let server_bin = || -> Result<&Path, String> {
        args.server_bin
            .as_deref()
            .ok_or_else(|| "serve workloads need --server-bin".to_string())
    };
    match (args.workload, args.trace) {
        (Workload::Library, trace) => {
            let run = library::run(args.seed, args.seconds)?;
            let rounds = sorted(&run.round_ms);
            let mut notes = vec![
                (
                    "rounds".to_string(),
                    rounds.len() as f64,
                    "count",
                    "mean + variance + IQR".to_string(),
                ),
                (
                    "mean_ms".to_string(),
                    median(&run.mean_ms),
                    "ms",
                    String::new(),
                ),
                (
                    "variance_ms".to_string(),
                    median(&run.variance_ms),
                    "ms",
                    String::new(),
                ),
                (
                    "iqr_ms".to_string(),
                    median(&run.iqr_ms),
                    "ms",
                    String::new(),
                ),
            ];
            let mut outcome = Outcome {
                attempted: run.attempted,
                failed: run.failed,
                problems: run.problems,
                metrics: end_to_end([
                    median(&run.setup_s),
                    nearest_rank(&rounds, 0.5),
                    run.goodput_rps,
                    run.cpu_ms_per_query,
                    run.peak_rss_mb,
                ]),
                notes: Vec::new(),
            };
            if trace {
                std::env::set_var(updp_core::parallel::THREADS_ENV, "1");
                let replay = replay::run(
                    args.workload,
                    args.seed,
                    args.seconds,
                    Some(&run.column),
                    work,
                )?;
                outcome.metrics = per_layer(&replay);
                write_spans(&replay, args)?;
            }
            outcome.notes.append(&mut notes);
            Ok(outcome)
        }
        (workload, trace) => {
            let run = serve::run(
                workload,
                args.seed,
                args.seconds,
                server_bin()?,
                work,
                trace,
            )?;
            let queries = sorted(&run.query_ms);
            let mut outcome = Outcome {
                attempted: run.attempted,
                failed: run.failed,
                problems: run.problems.clone(),
                metrics: end_to_end([
                    median(&run.setup_s),
                    nearest_rank(&queries, 0.5),
                    run.goodput_rps,
                    run.cpu_ms_per_query,
                    run.peak_rss_mb,
                ]),
                notes: serve_notes(&run),
            };
            if trace {
                let per_query = |v: f64| v / run.query_ms.len().max(1) as f64;
                outcome.notes.extend([
                    (
                        "reactor.healthz_rtt_us".to_string(),
                        if run.healthz_us.is_empty() {
                            f64::NAN
                        } else {
                            median(&run.healthz_us)
                        },
                        "us",
                        "query_p50_ms on serve-hot".to_string(),
                    ),
                    (
                        "server.cpu_user_ms".into(),
                        per_query(run.server_user_ms),
                        "ms",
                        "per query; cpu_ms_per_query on serve-hot".into(),
                    ),
                    (
                        "server.cpu_sys_ms".into(),
                        per_query(run.server_sys_ms),
                        "ms",
                        "per query; cpu_ms_per_query on serve-hot".into(),
                    ),
                    (
                        "server.wchar_per_query".into(),
                        run.server_wchar_per_query,
                        "bytes",
                        "cpu_ms_per_query on serve-hot".into(),
                    ),
                    (
                        "server.ctx_switches_per_query".into(),
                        run.server_ctx_per_query,
                        "count",
                        "query_p50_ms on serve-hot".into(),
                    ),
                ]);
                // The spawned server has exited; the replay runs its
                // data kernels on this one thread.
                std::env::set_var(updp_core::parallel::THREADS_ENV, "1");
                let replay = replay::run(workload, args.seed, args.seconds, None, work)?;
                outcome.metrics = per_layer(&replay);
                write_spans(&replay, args)?;
            }
            Ok(outcome)
        }
    }
}

fn per_layer(replay: &replay::Replay) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, replay.value(name), unit))
        .collect()
}

fn write_spans(replay: &replay::Replay, args: &Args) -> Result<(), String> {
    let path = Path::new(WORK_ROOT).join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, replay.spans_jsonl()).map_err(|e| format!("write {path:?}: {e}"))
}

/// Scratch directory, relative to the working directory (the checkout).
const WORK_ROOT: &str = ".perfbench";

fn main() {
    let args = parse_args();
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {work:?}: {e}");
        std::process::exit(1);
    }
    let result = measure(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    println!(
        "perfbench {} seed {} seconds {} trace {} (host threads: {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let moves: Vec<&str> = PER_LAYER.iter().map(|p| p.2).collect();
    for &(name, value, unit) in &outcome.metrics {
        let note = PER_LAYER
            .iter()
            .position(|p| p.0 == name)
            .map_or("", |i| moves[i]);
        println!("  {name:<32} {value:>14.4} {unit:<6} {note}");
    }
    for (name, value, unit, note) in &outcome.notes {
        println!("  {name:<32} {value:>14.4} {unit:<6} {note}");
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    assert!(
        outcome
            .metrics
            .iter()
            .all(|m| stats::valid_metric_name(m.0)),
        "metric names follow [A-Za-z0-9_.-]+"
    );
    let correct = outcome.problems.is_empty();
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                JsonValue::object(vec![("value", value.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    println!(
        "{}",
        JsonValue::object(vec![
            ("correct", correct.into()),
            ("attempted", (outcome.attempted as f64).into()),
            ("failed", (outcome.failed as f64).into()),
            ("metrics", JsonValue::object(metrics)),
        ])
        .to_compact()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let obj = doc.as_object("BENCHMARK.json").expect("an object");
        obj.get_array(key)
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_object("metric").expect("metric object");
                (
                    m.get_str("name").expect("name"),
                    m.get_str("unit").expect("unit"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let printed: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), printed);
        let printed: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), printed);
    }

    #[test]
    fn every_metric_name_is_in_the_grammar() {
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_names_the_three_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
        let names: Vec<String> = doc
            .as_object("doc")
            .expect("object")
            .get_array("workloads")
            .expect("workloads")
            .iter()
            .map(|w| {
                w.as_object("w")
                    .expect("object")
                    .get_str("name")
                    .expect("name")
            })
            .collect();
        assert_eq!(names, ["serve-hot", "serve-stream", "library-1e7"]);
        assert!(names.iter().all(|n| Workload::parse(n).is_some()));
    }
}
