//! The experiment driver.
//!
//! ```text
//! experiments <id>... | all   [--quick] [--trials N] [--seed S]
//!                             [--out DIR] [--list]
//! ```
//!
//! Trials run on the deterministic parallel engine (DESIGN.md §5):
//! its worker count, `UPDP_THREADS=K`, only changes wall time, never a
//! single output bit.
//!
//! Each experiment prints an aligned table; `--out DIR` additionally
//! writes `<id>.txt`, the form the quick goldens under
//! `tests/golden/` are kept in.

use std::io::Write;
use updp_experiments::{find, registry, ExpConfig, ExpFn};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id>...|all [--quick] [--trials N] [--seed S] [--out DIR] [--list]"
    );
    eprintln!("\navailable experiments:");
    for (id, desc, _) in registry() {
        eprintln!("  {id:18} {desc}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut cfg = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for (id, desc, _) in registry() {
                    println!("{id:18} {desc}");
                }
                return;
            }
            "--quick" => {
                let t = cfg.trials.min(ExpConfig::quick().trials);
                cfg.quick = true;
                cfg.trials = t;
            }
            "--trials" => {
                i += 1;
                cfg.trials = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "all" => ids.extend(registry().iter().map(|(id, _, _)| id.to_string())),
            other if other.starts_with("--") => usage(),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
    }
    // Resolve every id before running any: an unknown id fails with
    // no table printed, and a repeated one runs once, where it first
    // appears.
    let mut runs: Vec<(String, ExpFn)> = Vec::new();
    for id in ids {
        let Some(f) = find(&id) else {
            eprintln!("unknown experiment `{id}`");
            usage();
        };
        if !runs.iter().any(|(seen, _)| *seen == id) {
            runs.push((id, f));
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    for (id, f) in &runs {
        let started = std::time::Instant::now();
        let table = f(&cfg);
        let rendered = table.render();
        println!("{rendered}");
        println!(
            "  ({} trials/cell, seed {:#x}, {:.1}s)\n",
            cfg.trials,
            cfg.seed,
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &out_dir {
            let mut fh = std::fs::File::create(format!("{dir}/{id}.txt")).expect("write table");
            fh.write_all(rendered.as_bytes()).expect("write table");
        }
    }
}
