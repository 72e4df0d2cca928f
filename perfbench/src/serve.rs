//! The out-of-process serve workloads: the release `updp-serve` binary
//! runs as a child process with a file-backed ledger, and this process
//! drives it over at most two connections (one per core of the host the
//! benchmark was tuned on).

use crate::plan::{self, Batch, Plan, Scheduled, Step, Workload};
use crate::procfs::ServerProc;
use crate::stats::{nearest_rank, Timing};
use rand::Rng;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use updp_core::json::JsonValue;
use updp_core::privacy::budget_tolerance;
use updp_core::rng::{child_seed, seeded};
use updp_serve::client::{ClientError, Connection};
use updp_serve::engine::{execute_batch, DEFAULT_BOUND};
use updp_serve::{EstimatorCatalog, FlushPolicy, Ledger, Registry, ReleaseMode};

/// A rated phase whose generator ran later than this at p99 is not a
/// valid measurement of the server.
pub const MAX_LAG_P99_MS: f64 = 25.0;

/// Connections driving the server, one per reactor shard: the server
/// runs this many shards, the core count of the host the benchmark was
/// tuned on.
pub const LANES: usize = 2;

/// What one serve run measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Seconds of each set-up: spawn, registration, one warm-up each.
    pub setup_s: Vec<f64>,
    /// `/v1/query` latencies of the rated phase from the scheduled time.
    pub query_ms: Vec<f64>,
    /// Burst publication latencies (first append due → flush answered).
    pub flush_ms: Vec<f64>,
    /// Closed-loop queries per second answered within the limit.
    pub goodput_rps: f64,
    /// Server CPU over the rated phase per completed query.
    pub cpu_ms_per_query: f64,
    /// Server `VmHWM`, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted, warm-ups and oracle probes included.
    pub attempted: u64,
    /// Operations failed, refused or answered non-2xx.
    pub failed: u64,
    /// Generator lag at p99 over the rated phase, ms.
    pub lag_p99_ms: f64,
    /// Scheduled operations per second of the rated phase.
    pub offered_rps: f64,
    /// Completed operations per second of the rated phase.
    pub achieved_rps: f64,
    /// Server counters over the rated phase: user ms, system ms,
    /// bytes written per query, context switches per query.
    pub server_user_ms: f64,
    /// See `server_user_ms`.
    pub server_sys_ms: f64,
    /// See `server_user_ms`.
    pub server_wchar_per_query: f64,
    /// See `server_user_ms`.
    pub server_ctx_per_query: f64,
    /// `GET /v1/healthz` round trips during the rated phase, µs
    /// (traced runs only).
    pub healthz_us: Vec<f64>,
    /// Release-oracle and ε-audit mismatches, and invalid phases.
    pub problems: Vec<String>,
}

/// The outcome of one operation as a lane saw it.
struct Record {
    timing: Timing,
    ok: bool,
    query: bool,
}

/// Everything a lane (one connection) observed.
struct Lane {
    records: Vec<Record>,
    /// ε charged per dataset, summed from the responses.
    charged: Vec<f64>,
    /// Bursts sent, in order, and whether each fully succeeded.
    bursts: Vec<(usize, bool)>,
    /// The first few failures, for the report.
    errors: Vec<String>,
}

impl Lane {
    fn new(datasets: usize) -> Lane {
        Lane {
            records: Vec::new(),
            charged: vec![0.0; datasets],
            bursts: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Whether `result` succeeded; keeps the first few errors.
    fn check(&mut self, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => true,
            Err(e) => {
                if self.errors.len() < 3 {
                    self.errors.push(e);
                }
                false
            }
        }
    }
}

/// Sends one query batch; adds the ε the server debited to `charged`.
/// A batch counts as successful only when every query in it was
/// released; otherwise the error is the response body.
fn send_query(
    conn: &mut Connection,
    plan: &Plan,
    batch: Batch,
    charged: &mut [f64],
) -> Result<(), String> {
    let (status, body) = conn
        .request_raw("POST", "/v1/query", &plan.query_body(batch))
        .map_err(|e| e.to_string())?;
    if !(200..300).contains(&status) {
        return Err(format!("{status} {body}"));
    }
    let (debited, released) = debited(plan, &body)?;
    charged[batch.dataset] += debited;
    if released == plan.specs.len() {
        Ok(())
    } else {
        Err(body)
    }
}

/// The ε a query response debited and how many queries it released.
/// A released query reports its `epsilon_charged`; a query whose
/// estimator failed still spent its nominal ε, which the engine reserves
/// before running it and never refunds; a refused query spent nothing.
fn debited(plan: &Plan, body: &str) -> Result<(f64, usize), String> {
    let doc = JsonValue::parse(body)?;
    let results = doc.as_object("response")?.get_array("results")?;
    let mut total = 0.0;
    let mut released = 0;
    for (result, spec) in results.iter().zip(&plan.specs) {
        let result = result.as_object("result")?;
        if let Some(eps) = result.opt("epsilon_charged") {
            total += eps.as_f64("epsilon_charged")?;
            released += 1;
        } else if result.get("error")?.as_object("error")?.get_str("code")? == "estimator_failed" {
            total += spec.epsilon;
        }
    }
    Ok((total, released))
}

/// Sends burst `index`: one-row appends, then the flush that publishes
/// them.
fn send_burst(conn: &mut Connection, plan: &Plan, index: usize) -> bool {
    let name = &plan.names[0];
    plan.bursts[index]
        .iter()
        .all(|&x| conn.append(name, &[x]).is_ok())
        && conn.flush(name).is_ok()
}

fn reconnect_if_broken(conn: &mut Connection, addr: &str, ok: bool) {
    if !ok {
        if let Ok(fresh) = Connection::open(addr) {
            *conn = fresh;
        }
    }
}

/// Runs one connection's share of an open-loop schedule. Each operation
/// waits for its scheduled time (or for the previous response, if that
/// is later) and is timed from the schedule.
fn open_lane(
    addr: &str,
    mut conn: Connection,
    plan: &Plan,
    steps: &[Scheduled],
    start: Instant,
) -> Lane {
    let mut lane = Lane::new(plan.names.len());
    let mut free_at = Duration::ZERO;
    for s in steps {
        if let Some(wait) = (start + s.at).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = start.elapsed();
        let ok = match s.step {
            Step::Query(batch) => {
                let result = send_query(&mut conn, plan, batch, &mut lane.charged);
                lane.check(result)
            }
            Step::Burst(index) => {
                let ok = send_burst(&mut conn, plan, index);
                lane.bursts.push((index, ok));
                ok
            }
        };
        let done = start.elapsed();
        lane.records.push(Record {
            timing: Timing {
                scheduled: s.at,
                free_at,
                sent,
                done,
            },
            ok,
            query: matches!(s.step, Step::Query(_)),
        });
        reconnect_if_broken(&mut conn, addr, ok);
        free_at = done;
    }
    lane
}

/// Closed loop: one connection sends the next batch as soon as the
/// previous one is answered, until `deadline`.
fn closed_lane(
    addr: &str,
    mut conn: Connection,
    plan: &Plan,
    lane_seed: u64,
    start: Instant,
    deadline: Instant,
) -> Lane {
    let mut lane = Lane::new(plan.names.len());
    let mut rng = seeded(lane_seed);
    while Instant::now() < deadline {
        let batch = Batch {
            dataset: rng.gen_range(0..plan.names.len()),
            seed: rng.gen_range(0..1u64 << 40),
        };
        let sent = start.elapsed();
        let result = send_query(&mut conn, plan, batch, &mut lane.charged);
        let ok = lane.check(result);
        let done = start.elapsed();
        lane.records.push(Record {
            timing: Timing {
                scheduled: sent,
                free_at: sent,
                sent,
                done,
            },
            ok,
            query: true,
        });
        reconnect_if_broken(&mut conn, addr, ok);
    }
    lane
}

/// The reactor shard serving `conn`: the shard of the newest
/// `/v1/healthz` event in the server's trace after a healthz on `conn`.
/// Only this process talks to the server, one connection at a time here.
fn shard_of(conn: &mut Connection) -> Result<usize, String> {
    conn.healthz().map_err(|e| e.to_string())?;
    let body = conn.trace().map_err(|e| e.to_string())?;
    let doc = JsonValue::parse(&body)?;
    let mut newest: Option<(f64, f64)> = None;
    for event in doc.as_object("trace")?.get_array("events")? {
        let event = event.as_object("event")?;
        if event.get_str("path")? == "/v1/healthz" {
            let id = event.get_f64("id")?;
            if newest.is_none_or(|(best, _)| id > best) {
                newest = Some((id, event.get_f64("shard")?));
            }
        }
    }
    newest
        .map(|(_, shard)| shard as usize)
        .ok_or_else(|| "no healthz event in /v1/trace".to_string())
}

/// `LANES` connections, each served by a different reactor shard, so
/// every run drives the server's shards the same way. The kernel hands
/// a new connection to an idle shard, so each further connection is
/// opened while the shards already taken are busy with a long batch.
fn connect_lanes(
    addr: &str,
    plan: &Plan,
    run: &mut ServeRun,
    charged: &mut [f64],
) -> Result<Vec<Connection>, String> {
    let mut lanes: Vec<(usize, Connection)> = Vec::new();
    for attempt in 0..64u64 {
        let busy = std::mem::take(&mut lanes);
        let (mut busy, conn) = std::thread::scope(|scope| {
            let handles: Vec<_> = busy
                .into_iter()
                .map(|(shard, mut conn)| {
                    scope.spawn(move || {
                        let batch = Batch {
                            dataset: 0,
                            seed: plan.warmup_seed(attempt as usize),
                        };
                        let mut spent = vec![0.0; plan.names.len()];
                        let result = send_long_batch(&mut conn, plan, batch, &mut spent);
                        (shard, conn, result, spent)
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            let conn = Connection::open(addr).map_err(|e| e.to_string());
            let busy: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("pinning request panicked"))
                .collect();
            (busy, conn)
        });
        for (shard, conn, result, spent) in busy.drain(..) {
            run.attempted += 1;
            result?;
            for (total, c) in charged.iter_mut().zip(spent) {
                *total += c;
            }
            lanes.push((shard, conn));
        }
        let mut conn = conn?;
        let shard = shard_of(&mut conn)?;
        if lanes.iter().all(|(taken, _)| *taken != shard) {
            lanes.push((shard, conn));
            if lanes.len() == LANES {
                return Ok(lanes.into_iter().map(|(_, c)| c).collect());
            }
        }
    }
    Err(format!(
        "could not spread {LANES} connections over distinct reactor shards"
    ))
}

/// The plan's batch four times over in one request: long enough to
/// keep a shard busy while another connection is accepted.
fn send_long_batch(
    conn: &mut Connection,
    plan: &Plan,
    batch: Batch,
    charged: &mut [f64],
) -> Result<(), String> {
    let long = Plan {
        names: plan.names.clone(),
        columns: Vec::new(),
        specs: plan
            .specs
            .iter()
            .cycle()
            .take(4 * plan.specs.len())
            .cloned()
            .collect(),
        bursts: Vec::new(),
        open: Vec::new(),
        closed_seed: plan.closed_seed,
        limit_ms: plan.limit_ms,
    };
    send_query(conn, &long, batch, charged)
}

/// `GET /v1/healthz` every 50 ms until `stop`; round trips in µs.
fn healthz_prober(addr: &str, stop: &AtomicBool) -> Vec<f64> {
    let mut rtts = Vec::new();
    let Ok(mut conn) = Connection::open(addr) else {
        return rtts;
    };
    while !stop.load(Ordering::SeqCst) {
        let sent = Instant::now();
        if conn.healthz().is_ok() {
            rtts.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    rtts
}

/// Starts a server and brings it to the workload's ready state.
fn set_up(
    bin: &Path,
    dir: &Path,
    workload: Workload,
    plan: &Plan,
    bodies: &[String],
    run: &mut ServeRun,
    charged: &mut [f64],
) -> Result<ServerProc, String> {
    let mut extra: Vec<String> = match workload {
        Workload::ServeStream => vec![
            "--buffer-rows".into(),
            plan::STREAM_BUFFER_ROWS.to_string(),
            "--buffer-age-ms".into(),
            "86400000".into(),
        ],
        _ => Vec::new(),
    };
    extra.extend(["--workers".to_string(), LANES.to_string()]);
    let server = ServerProc::spawn(bin, dir.to_path_buf(), &extra)?;
    let mut conn = Connection::open(&server.addr).map_err(|e| e.to_string())?;
    for body in bodies {
        run.attempted += 1;
        if let Err(e) = conn.request("POST", "/v1/register", body) {
            return Err(format!("register: {e}"));
        }
    }
    for dataset in 0..plan.names.len() {
        run.attempted += 1;
        let batch = Batch {
            dataset,
            seed: plan.warmup_seed(dataset),
        };
        if let Err(e) = send_query(&mut conn, plan, batch, charged) {
            return Err(format!(
                "warm-up query on {} failed: {e}",
                plan.names[dataset]
            ));
        }
    }
    Ok(server)
}

/// Runs a serve workload end to end against the binary `bin`, keeping
/// the server's scratch files under `work`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
    trace: bool,
) -> Result<ServeRun, String> {
    let plan = Plan::new(workload, seed, seconds);
    let bodies: Vec<String> = plan
        .names
        .iter()
        .zip(&plan.columns)
        .map(|(name, column)| {
            JsonValue::object(vec![
                ("name", name.as_str().into()),
                ("budget", plan::BUDGET.into()),
                ("data", JsonValue::numbers(column)),
            ])
            .to_compact()
        })
        .collect();
    let mut run = ServeRun::default();
    let mut charged = vec![0.0; plan.names.len()];
    let mut server = None;
    for k in 0..plan::SETUPS {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous)?;
        }
        charged.iter_mut().for_each(|c| *c = 0.0);
        let started = Instant::now();
        let ready = set_up(
            bin,
            &work.join(format!("server-{k}")),
            workload,
            &plan,
            &bodies,
            &mut run,
            &mut charged,
        )?;
        run.setup_s.push(started.elapsed().as_secs_f64());
        server = Some(ready);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.as_str();

    // Rated phase: open loop at the plan's fixed rates.
    let open_for = Duration::from_secs_f64(seconds * plan::OPEN_SHARE);
    let conns = connect_lanes(addr, &plan, &mut run, &mut charged)?;
    let before = server.sample()?;
    let start = Instant::now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    let (lanes, healthz) = std::thread::scope(|scope| {
        let prober = trace.then(|| scope.spawn(|| healthz_prober(addr, &stop)));
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, conn)| {
                let steps: Vec<Scheduled> = plan
                    .open
                    .iter()
                    .copied()
                    .filter(|s| s.lane == lane)
                    .collect();
                let plan = &plan;
                scope.spawn(move || open_lane(addr, conn, plan, &steps, start))
            })
            .collect();
        let lanes: Vec<Lane> = handles
            .into_iter()
            .map(|h| h.join().expect("open-loop lane panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        let healthz = prober.map_or_else(Vec::new, |h| h.join().expect("prober panicked"));
        (lanes, healthz)
    });
    let after_open = server.sample()?;
    run.healthz_us = healthz;
    let open_ops: Vec<&Record> = lanes.iter().flat_map(|l| &l.records).collect();
    let completed_queries = open_ops.iter().filter(|r| r.query && r.ok).count();
    let lags: Vec<f64> = {
        let mut lags: Vec<f64> = open_ops.iter().map(|r| r.timing.lag_ms()).collect();
        lags.sort_by(f64::total_cmp);
        lags
    };
    run.lag_p99_ms = nearest_rank(&lags, 0.99);
    run.offered_rps = open_ops.len() as f64 / open_for.as_secs_f64();
    let last_done = open_ops
        .iter()
        .map(|r| r.timing.done)
        .max()
        .unwrap_or(open_for);
    run.achieved_rps =
        open_ops.iter().filter(|r| r.ok).count() as f64 / last_done.max(open_for).as_secs_f64();
    run.query_ms = open_ops
        .iter()
        .filter(|r| r.query)
        .map(|r| r.timing.latency_ms())
        .collect();
    run.flush_ms = open_ops
        .iter()
        .filter(|r| !r.query)
        .map(|r| r.timing.latency_ms())
        .collect();
    let per_query = completed_queries.max(1) as f64;
    run.server_user_ms = after_open.user_ms - before.user_ms;
    run.server_sys_ms = after_open.sys_ms - before.sys_ms;
    run.server_wchar_per_query = (after_open.wchar - before.wchar) as f64 / per_query;
    run.server_ctx_per_query = (after_open.ctx_switches - before.ctx_switches) as f64 / per_query;
    if run.lag_p99_ms > MAX_LAG_P99_MS {
        run.problems.push(format!(
            "generator ran {:.2} ms late at p99 (bound {MAX_LAG_P99_MS} ms): rated phase invalid",
            run.lag_p99_ms
        ));
    }

    // Goodput phase: closed loop on both connections. On serve-stream
    // the writer is idle by now, so this is the read capacity of the
    // last published snapshot.
    let closed_for = Duration::from_secs_f64(seconds * (1.0 - plan::OPEN_SHARE));
    let conns = connect_lanes(addr, &plan, &mut run, &mut charged)?;
    let start = Instant::now();
    let deadline = start + closed_for;
    let closed_lanes: Vec<Lane> = std::thread::scope(|scope| {
        let plan = &plan;
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(l, conn)| {
                let seed = child_seed(plan.closed_seed, l as u64);
                scope.spawn(move || closed_lane(addr, conn, plan, seed, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop lane panicked"))
            .collect()
    });
    let closed_elapsed = start.elapsed().as_secs_f64();
    let good = closed_lanes
        .iter()
        .flat_map(|l| &l.records)
        .filter(|r| r.query && r.ok && r.timing.latency_ms() <= plan.limit_ms)
        .count();
    run.goodput_rps = good as f64 / closed_elapsed;
    // CPU per query over both phases: the longer window averages out
    // the host's speed changes.
    let after_closed = server.sample()?;
    let closed_queries = closed_lanes
        .iter()
        .flat_map(|l| &l.records)
        .filter(|r| r.query && r.ok)
        .count();
    run.cpu_ms_per_query = (after_closed.cpu_ms() - before.cpu_ms())
        / (completed_queries + closed_queries).max(1) as f64;

    let all_lanes: Vec<&Lane> = lanes.iter().chain(&closed_lanes).collect();
    for lane in &all_lanes {
        for error in &lane.errors {
            eprintln!("perfbench: failed operation: {error}");
        }
        run.attempted += lane.records.len() as u64;
        run.failed += lane.records.iter().filter(|r| !r.ok).count() as u64;
        for (total, c) in charged.iter_mut().zip(&lane.charged) {
            *total += c;
        }
    }
    let mut bursts: Vec<(usize, bool)> = all_lanes.iter().flat_map(|l| l.bursts.clone()).collect();
    bursts.sort_unstable();
    if bursts.iter().any(|&(_, ok)| !ok) {
        run.problems
            .push("a burst failed: the published rows are unknown".into());
    }
    let published: Vec<usize> = bursts.iter().map(|&(b, _)| b).collect();

    oracle(&plan, &published, addr, &mut run, &mut charged)?;
    audit(&plan, addr, &charged, &mut run)?;
    run.peak_rss_mb = server.sample()?.peak_rss_mb;
    server.shutdown()?;
    Ok(run)
}

/// Release oracle: fixed-seed probe batches on every dataset, each
/// compared bit for bit with `engine::execute_batch` run in this process
/// on a registry that holds the same rows in the same publish order.
fn oracle(
    plan: &Plan,
    published: &[usize],
    addr: &str,
    run: &mut ServeRun,
    charged: &mut [f64],
) -> Result<(), String> {
    let registry = Registry::with_policy(FlushPolicy::buffered(
        plan::STREAM_BUFFER_ROWS,
        Duration::from_secs(86_400),
    ));
    let ledger = Ledger::in_memory();
    let catalog = EstimatorCatalog::standard();
    for (name, column) in plan.names.iter().zip(&plan.columns) {
        registry
            .register(name, vec![column.clone()])
            .map_err(|e| e.to_string())?;
        ledger
            .register(name, plan::BUDGET)
            .map_err(|e| e.to_string())?;
    }
    for &b in published {
        for &x in &plan.bursts[b] {
            registry
                .append(&plan.names[0], vec![vec![x]])
                .map_err(|e| e.to_string())?;
        }
        registry.flush(&plan.names[0]).map_err(|e| e.to_string())?;
    }
    let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
    for (dataset, name) in plan.names.iter().enumerate() {
        let local_dataset = registry.get(name).map_err(|e| e.to_string())?;
        for p in 0..plan::ORACLE_PROBES {
            let batch = Batch {
                dataset,
                seed: plan::ORACLE_SEED + p,
            };
            run.attempted += 1;
            let body = match conn.request("POST", "/v1/query", &plan.query_body(batch)) {
                Ok(body) => body,
                Err(e) => {
                    run.failed += 1;
                    run.problems.push(format!("oracle probe on {name}: {e}"));
                    continue;
                }
            };
            charged[dataset] += debited(plan, &body)?.0;
            let served = JsonValue::parse(&body)?
                .as_object("response")?
                .get("results")?
                .to_compact();
            let outcomes = execute_batch(
                &local_dataset,
                &catalog,
                &ledger,
                &plan.specs,
                batch.seed,
                ReleaseMode::Hardened {
                    bound: DEFAULT_BOUND,
                },
            )
            .map_err(|e| e.to_string())?;
            let expected = JsonValue::Array(
                outcomes
                    .iter()
                    .map(updp_serve::wire::outcome_json)
                    .collect(),
            )
            .to_compact();
            if served != expected {
                run.problems.push(format!(
                    "release oracle mismatch on {name} seed {}: served {served}, expected {expected}",
                    batch.seed
                ));
            }
        }
    }
    Ok(())
}

/// ε audit: each dataset's `spent` must equal the ε the client was
/// told it was charged, within `budget_tolerance`.
fn audit(plan: &Plan, addr: &str, charged: &[f64], run: &mut ServeRun) -> Result<(), String> {
    let body = Connection::open(addr)
        .and_then(|mut c| c.request("GET", "/v1/datasets", ""))
        .map_err(|e: ClientError| e.to_string())?;
    let doc = JsonValue::parse(&body)?;
    let rows = doc.as_object("listing")?.get_array("datasets")?;
    for (name, &expected) in plan.names.iter().zip(charged) {
        let spent = rows
            .iter()
            .filter_map(|row| row.as_object("row").ok())
            .find(|row| row.get_str("name").ok().as_deref() == Some(name.as_str()))
            .and_then(|row| row.get("budget").ok())
            .and_then(|b| b.as_object("budget").ok()?.get_f64("spent").ok());
        match spent {
            Some(spent) if (spent - expected).abs() <= budget_tolerance(expected) => {}
            Some(spent) => run.problems.push(format!(
                "epsilon audit on {name}: ledger spent {spent}, client was charged {expected}"
            )),
            None => run
                .problems
                .push(format!("epsilon audit: {name} missing from /v1/datasets")),
        }
    }
    Ok(())
}
