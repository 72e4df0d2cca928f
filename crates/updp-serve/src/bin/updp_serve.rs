//! The `updp-serve` server binary.
//!
//! ```text
//! updp-serve [--addr HOST:PORT] [--ledger PATH] [--port-file PATH]
//!            [--buffer-rows N] [--buffer-age-ms MS]
//!            [--workers N] [--max-conns N]
//! ```
//!
//! * `--addr` — bind address; default `127.0.0.1:7817`. Use port 0
//!   for an ephemeral port (the chosen port is printed and, with
//!   `--port-file`, written to a file scripts can poll — the CI smoke
//!   step does exactly that).
//! * `--ledger` — budget-snapshot path; default
//!   `updp-serve-ledger.json` in the working directory. The snapshot
//!   is reloaded on start, so spent budget survives restarts.
//! * `--port-file` — after binding, write the chosen port (decimal,
//!   one line) to this path.
//! * `--buffer-rows` / `--buffer-age-ms` — the streaming write-buffer
//!   thresholds (DESIGN.md §8): appends coalesce into a pending delta
//!   log and publish one snapshot when either threshold is hit, or on
//!   explicit `POST /v1/flush`. Default `--buffer-rows 1` (0 reads
//!   as 1): every append publishes at once, whatever the age bound.
//! * `--workers` — reactor worker shards (DESIGN.md §10). Default 0:
//!   one shard per available hardware thread.
//! * `--max-conns` — live-connection cap across all shards; beyond it
//!   new connections are answered with a structured 503 `overloaded`
//!   and closed. Default 4096.
//!
//! The flight recorder (DESIGN.md §11) is always on: `/v1/metrics`
//! and `/v1/trace` report every request. It is observe-only, so no
//! release depends on it.
//!
//! The `UPDP_THREADS` environment variable (`0`/unset: available
//! parallelism) sets the worker count of every deterministic parallel
//! kernel (DESIGN.md §12): the per-batch query fan-out
//! (`par_map_indexed` in `engine::execute_batch_observed`), the cold
//! sorted-copy build, the integer grid's discretize map and sort, the
//! gap summary's value copy and shuffle, and the subsample's
//! Fisher–Yates draw. Released bytes are identical at any value — the
//! §5 contract — so it is purely a performance knob.

use updp_serve::{FlushPolicy, Ledger, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: updp-serve [--addr HOST:PORT] [--ledger PATH] [--port-file PATH] \
         [--buffer-rows N] [--buffer-age-ms MS] [--workers N] [--max-conns N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7817".to_string();
    let mut ledger_path = "updp-serve-ledger.json".to_string();
    let mut port_file: Option<String> = None;
    let mut buffer_rows = 1usize;
    let mut buffer_age_ms = 200u64;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--ledger" => ledger_path = value("--ledger"),
            "--port-file" => port_file = Some(value("--port-file")),
            "--buffer-rows" => {
                buffer_rows = value("--buffer-rows").parse().unwrap_or_else(|_| usage())
            }
            "--buffer-age-ms" => {
                buffer_age_ms = value("--buffer-age-ms").parse().unwrap_or_else(|_| usage())
            }
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--max-conns" => {
                config.max_connections = value("--max-conns").parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    let policy =
        FlushPolicy::buffered(buffer_rows, std::time::Duration::from_millis(buffer_age_ms));

    let ledger = match Ledger::open(std::path::Path::new(&ledger_path)) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("updp-serve: {e}");
            std::process::exit(1);
        }
    };
    let server = match Server::bind_with_config(&addr, ledger, policy, config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("updp-serve: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let local = server.local_addr().expect("bound listener has an address");
    println!(
        "updp-serve listening on http://{local} (ledger: {ledger_path}, workers: {})",
        config.resolved_workers()
    );
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", local.port())) {
            eprintln!("updp-serve: write {path}: {e}");
            std::process::exit(1);
        }
    }
    match server.run() {
        Ok(drain) => println!(
            "updp-serve: clean shutdown ({} drained, {} aborted)",
            drain.drained, drain.aborted
        ),
        Err(e) => {
            eprintln!("updp-serve: {e}");
            std::process::exit(1);
        }
    }
}
