//! The traced run: replays a workload's seeded schedule in this process,
//! on one thread, through the public functions of each layer in the
//! order the server calls them, with a span around every call.
//!
//! Two replicas of the serving state take the same steps. The *main*
//! replica runs the request path (`http` → `wire` → `engine` → `wire` →
//! `http`). The *twin* replays what `engine::execute_batch` does inside
//! (ledger reservations and the estimator calls) as separate timed calls
//! on identical state, so `engine.self_us` is the engine span minus its
//! measured children. Stage functions (`iqr_lower_bound`, `discretize`,
//! `view`, `gaps`, `clipped_mean`) are timed as probes on the workload's
//! own column after the replay. Layers a workload never reaches are
//! timed on a probe dataset cut from the workload's column, so every
//! workload reports every layer; probe spans carry request ids from
//! [`PROBE_BASE`] up and are used only when the schedule produced no span
//! of that name.

use crate::plan::{self, Batch, Plan, Step, Workload};
use crate::span::{self_time, SpanId, Tracer};
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use updp_core::amplification::paper_inner_epsilon;
use updp_core::clipped_mean::clipped_mean_with_outside;
use updp_core::json::JsonValue;
use updp_core::privacy::Epsilon;
use updp_core::rng::{child_seed, seeded};
use updp_empirical::{
    real_quantile_view, real_range, sorted_copy, ColumnCache, ColumnView, GapSummary,
};
use updp_serve::engine::{execute_batch, QuerySpec, DEFAULT_BOUND, ESTIMATOR_SHARE};
use updp_serve::http::{encode_response, write_request, RequestParser};
use updp_serve::{
    wire, EstimatorCatalog, FlushPolicy, Ledger, QueryOutcome, Registry, ReleaseMode,
};
use updp_statistical::{
    estimate_iqr, estimate_iqr_lower_bound, estimate_mean, estimate_variance, pair_gaps,
    EstimateParams, DEFAULT_BETA,
};

/// Request ids of probe spans start here.
pub const PROBE_BASE: u64 = 1 << 40;
/// Query batches of the probe request sequence.
const PROBE_REQUESTS: u64 = 50;
/// Rows of the probe dataset.
const PROBE_ROWS: usize = 10_000;
/// The replay covers at most this prefix of the rated schedule, which
/// bounds the traced run's time on the long serve schedules.
const REPLAY_STEPS: usize = 1_500;

/// The replayed prefix of the rated schedule.
fn replayed(plan: &Plan) -> &[crate::plan::Scheduled] {
    &plan.open[..plan.open.len().min(REPLAY_STEPS)]
}

/// Event counts at layer boundaries, for the schedule or for probes.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    queries: u64,
    persists: u64,
    grid_calls: u64,
    grid_hits: u64,
    gap_calls: u64,
    gap_hits: u64,
}

/// One replica of the serving state: a registry and a file ledger.
struct State {
    registry: Registry,
    ledger: Ledger,
    ledger_path: PathBuf,
}

impl State {
    /// Registers `datasets` through `wire::parse_register`, the ledger
    /// and `Registry::register`, the order of the server's handler.
    fn new(
        dir: &Path,
        datasets: &[(String, Vec<f64>)],
        tracer: &mut Option<&mut Tracer>,
        request_base: u64,
    ) -> Result<State, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let ledger_path = dir.join("ledger.json");
        let _ = std::fs::remove_file(&ledger_path);
        let state = State {
            registry: Registry::with_policy(FlushPolicy::buffered(
                plan::STREAM_BUFFER_ROWS,
                Duration::from_secs(86_400),
            )),
            ledger: Ledger::open(&ledger_path).map_err(|e| e.to_string())?,
            ledger_path,
        };
        for (i, (name, column)) in datasets.iter().enumerate() {
            let body = JsonValue::object(vec![
                ("name", name.as_str().into()),
                ("budget", plan::BUDGET.into()),
                ("data", JsonValue::numbers(column)),
            ])
            .to_compact();
            let request = request_base + i as u64;
            let parsed = timed(tracer, "wire.register_parse", None, request, || {
                wire::parse_register(&body)
            })
            .map_err(|e| e.to_string())?;
            state
                .ledger
                .register(&parsed.name, parsed.budget)
                .map_err(|e| e.to_string())?;
            timed(tracer, "registry.register", None, request, || {
                state.registry.register(&parsed.name, parsed.columns)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(state)
    }
}

/// Runs `f` in a span when tracing, plainly otherwise.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, |_, _| f()).0,
        None => f(),
    }
}

fn http_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(body.len() + 128);
    write_request(&mut bytes, method, path, body).expect("writing to a Vec cannot fail");
    bytes
}

fn estimator_span(name: &str) -> &'static str {
    match name {
        "mean" => "estimator.mean",
        "variance" => "estimator.variance",
        "quantile" => "estimator.quantile",
        "iqr" => "estimator.iqr",
        _ => "estimator.other",
    }
}

fn hardened() -> ReleaseMode {
    ReleaseMode::Hardened {
        bound: DEFAULT_BOUND,
    }
}

/// One `/v1/query` through the main replica's request path. Returns the
/// outcomes and the engine span (if traced).
fn query_path(
    main: &State,
    catalog: &EstimatorCatalog,
    bytes: &[u8],
    tracer: &mut Option<&mut Tracer>,
    request: u64,
) -> Result<(Vec<QueryOutcome>, Option<SpanId>), String> {
    let run = |tracer: &mut Option<&mut Tracer>, parent: Option<SpanId>| {
        let mut parser = RequestParser::new();
        let requests = timed(tracer, "http.parse", parent, request, || parser.feed(bytes))
            .map_err(|e| e.to_string())?;
        let body = std::str::from_utf8(&requests[0].body).map_err(|e| e.to_string())?;
        let query = timed(tracer, "wire.parse_query", parent, request, || {
            wire::parse_query(body)
        })
        .map_err(|e| e.to_string())?;
        let dataset = main
            .registry
            .get(&query.dataset)
            .map_err(|e| e.to_string())?;
        let mode = hardened();
        let engine_start = tracer.as_ref().map(|t| t.spans().len());
        let outcomes = timed(tracer, "engine", parent, request, || {
            execute_batch(
                &dataset,
                catalog,
                &main.ledger,
                &query.specs,
                query.seed,
                mode,
            )
        })
        .map_err(|e| e.to_string())?;
        let account = main
            .ledger
            .account(&query.dataset)
            .map_err(|e| e.to_string())?;
        let body = timed(tracer, "wire.render", parent, request, || {
            wire::query_response(&query, &outcomes, &account)
        });
        let wire_bytes = timed(tracer, "http.encode", parent, request, || {
            encode_response(200, &body, true)
        });
        std::hint::black_box(wire_bytes);
        Ok::<_, String>((outcomes, engine_start))
    };
    match tracer {
        Some(t) => {
            let (result, _) = t.span("request", None, request, |t, id| {
                run(&mut Some(t), Some(id))
            });
            result
        }
        None => run(&mut None, None),
    }
}

/// The twin's share of one query: what `execute_batch` does inside, as
/// separate timed calls under the engine span `engine`.
#[allow(clippy::too_many_arguments)]
fn engine_children(
    twin: &State,
    catalog: &EstimatorCatalog,
    name: &str,
    specs: &[QuerySpec],
    seed: u64,
    outcomes: &[QueryOutcome],
    tracer: &mut Tracer,
    engine: SpanId,
    request: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    counts.queries += 1;
    let nominal: Vec<f64> = specs.iter().map(|s| s.epsilon).collect();
    let (granted, _) = tracer.span("ledger.reserve", Some(engine), request, |_, _| {
        twin.ledger.reserve_many(name, &nominal)
    });
    if granted
        .map_err(|e| e.to_string())?
        .iter()
        .any(Result::is_ok)
    {
        counts.persists += 1;
    }
    let dataset = twin.registry.get(name).map_err(|e| e.to_string())?;
    let snapshot = dataset.snapshot().map_err(|e| e.to_string())?;
    let view = snapshot.view();
    for (i, spec) in specs.iter().enumerate() {
        let estimator = catalog
            .get(&spec.estimator)
            .ok_or_else(|| format!("unknown estimator {}", spec.estimator))?;
        let mut params = EstimateParams::new(
            Epsilon::new(spec.epsilon * ESTIMATOR_SHARE).map_err(|e| e.to_string())?,
        )
        .with_beta(DEFAULT_BETA);
        for (option, value) in &spec.options {
            params.set(option, *value);
        }
        let column = view.col(0);
        let grids_before = column.cached_grids();
        let gap_warm = column.has_gap_summary();
        let mut rng = seeded(child_seed(seed, i as u64));
        let (released, _) = tracer.span(
            estimator_span(estimator.name()),
            Some(engine),
            request,
            |_, _| estimator.estimate(&mut rng, &view, &params),
        );
        released.map_err(|e| e.to_string())?;
        if matches!(estimator.name(), "quantile" | "iqr") {
            counts.grid_calls += 1;
            counts.grid_hits += u64::from(column.cached_grids() == grids_before);
            counts.gap_calls += 1;
            counts.gap_hits += u64::from(gap_warm);
        }
    }
    let inflations: Vec<f64> = outcomes
        .iter()
        .zip(specs)
        .filter_map(|(o, s)| match o {
            QueryOutcome::Released {
                epsilon_charged, ..
            } if *epsilon_charged > s.epsilon => Some(epsilon_charged - s.epsilon),
            _ => None,
        })
        .collect();
    if !inflations.is_empty() {
        let (topups, _) = tracer.span("ledger.reserve", Some(engine), request, |_, _| {
            twin.ledger.reserve_many(name, &inflations)
        });
        if topups.map_err(|e| e.to_string())?.iter().any(Result::is_ok) {
            counts.persists += 1;
        }
    }
    Ok(())
}

/// One burst through the main replica's append and flush handlers.
fn burst_path(
    main: &State,
    name: &str,
    rows: &[f64],
    tracer: &mut Option<&mut Tracer>,
    parent: Option<SpanId>,
    request: u64,
) -> Result<Option<SpanId>, String> {
    for &x in rows {
        let body = JsonValue::object(vec![
            ("name", name.into()),
            ("data", JsonValue::numbers(&[x])),
        ])
        .to_compact();
        let bytes = http_bytes("POST", "/v1/append", &body);
        let mut parser = RequestParser::new();
        let request = parser.feed(&bytes).map_err(|e| e.to_string())?;
        let body = std::str::from_utf8(&request[0].body).map_err(|e| e.to_string())?;
        let (name, columns) = wire::parse_append(body).map_err(|e| e.to_string())?;
        main.registry
            .append(&name, columns)
            .map_err(|e| e.to_string())?;
    }
    let body = JsonValue::object(vec![("name", name.into())]).to_compact();
    let bytes = http_bytes("POST", "/v1/flush", &body);
    let mut parser = RequestParser::new();
    let parsed = parser.feed(&bytes).map_err(|e| e.to_string())?;
    let body = std::str::from_utf8(&parsed[0].body).map_err(|e| e.to_string())?;
    let name = wire::parse_flush(body).map_err(|e| e.to_string())?;
    let flush_span = tracer.as_ref().map(|t| t.spans().len());
    timed(tracer, "registry.flush", parent, request, || {
        main.registry.flush(&name)
    })
    .map_err(|e| e.to_string())?;
    Ok(flush_span)
}

/// The twin's share of a burst: `PreparedDataset::append` on the same
/// snapshot and delta as the main replica's flush, timed, then the
/// twin's own (untimed) publication so it stays in step.
fn burst_children(
    twin: &State,
    name: &str,
    rows: &[f64],
    tracer: &mut Tracer,
    flush: SpanId,
    request: u64,
) -> Result<(), String> {
    let snapshot = twin
        .registry
        .get(name)
        .and_then(|d| d.snapshot())
        .map_err(|e| e.to_string())?;
    let delta = vec![rows.to_vec()];
    tracer.span("view.append", Some(flush), request, |_, _| {
        std::hint::black_box(snapshot.append(&delta));
    });
    for &x in rows {
        twin.registry
            .append(name, vec![vec![x]])
            .map_err(|e| e.to_string())?;
    }
    twin.registry.flush(name).map_err(|e| e.to_string())?;
    Ok(())
}

/// The serve schedule, untraced or traced. Returns the time spent in
/// the scheduled operations (set-up excluded) and the main replica's
/// ledger path.
fn serve_pass(
    plan: &Plan,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
    counts: &mut Counts,
) -> Result<(Duration, PathBuf), String> {
    let catalog = EstimatorCatalog::standard();
    let datasets: Vec<(String, Vec<f64>)> = plan
        .names
        .iter()
        .cloned()
        .zip(plan.columns.iter().cloned())
        .collect();
    let main = State::new(&dir.join("main"), &datasets, &mut tracer, 0)?;
    let twin = State::new(&dir.join("twin"), &datasets, &mut None, 0)?;
    // The warm-up query per dataset of the timed run's set-up.
    for (dataset, _) in plan.names.iter().enumerate() {
        let batch = Batch {
            dataset,
            seed: plan.warmup_seed(dataset),
        };
        for state in [&main, &twin] {
            let bytes = http_bytes("POST", "/v1/query", &plan.query_body(batch));
            query_path(state, &catalog, &bytes, &mut None, 0)?;
        }
    }
    // Request bytes are rendered up front: the client's work is not
    // part of either pass.
    let bytes: Vec<Vec<u8>> = replayed(plan)
        .iter()
        .map(|s| match s.step {
            Step::Query(batch) => http_bytes("POST", "/v1/query", &plan.query_body(batch)),
            Step::Burst(_) => Vec::new(),
        })
        .collect();
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    for (request, (scheduled, bytes)) in replayed(plan).iter().zip(&bytes).enumerate() {
        let request = request as u64;
        match (scheduled.step, tracer.as_deref_mut()) {
            (Step::Query(_), None) => {
                query_path(&main, &catalog, bytes, &mut None, request)?;
            }
            (Step::Burst(b), None) => {
                burst_path(
                    &main,
                    &plan.names[0],
                    &plan.bursts[b],
                    &mut None,
                    None,
                    request,
                )?;
            }
            (Step::Query(batch), Some(t)) => {
                let first = t.spans().len();
                let (outcomes, engine_hint) =
                    query_path(&main, &catalog, bytes, &mut Some(&mut *t), request)?;
                busy += t.spans()[first].duration();
                let engine = engine_hint.ok_or("engine span missing")?;
                engine_children(
                    &twin,
                    &catalog,
                    &plan.names[batch.dataset],
                    &plan.specs,
                    batch.seed,
                    &outcomes,
                    t,
                    engine,
                    request,
                    counts,
                )?;
            }
            (Step::Burst(b), Some(t)) => {
                let rows = &plan.bursts[b];
                let (flush, burst) = t.span("burst", None, request, |t, id| {
                    burst_path(&main, &plan.names[0], rows, &mut Some(t), Some(id), request)
                });
                busy += t.spans()[burst].duration();
                let flush = flush?.ok_or("flush span missing")?;
                burst_children(&twin, &plan.names[0], rows, t, flush, request)?;
            }
        }
    }
    let total = if tracer.is_some() {
        busy
    } else {
        started.elapsed()
    };
    Ok((total, main.ledger_path))
}

/// The `library-1e7` schedule: round 0 of the timed run.
fn library_pass(
    column: &[f64],
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Duration, String> {
    let eps = Epsilon::new(plan::LIBRARY_EPSILON).map_err(|e| e.to_string())?;
    let mut rng = seeded(child_seed(seed, 10));
    let started = Instant::now();
    timed(&mut tracer, "estimator.mean", None, 0, || {
        estimate_mean(&mut rng, column, eps, DEFAULT_BETA)
    })
    .map_err(|e| e.to_string())?;
    timed(&mut tracer, "estimator.variance", None, 0, || {
        estimate_variance(&mut rng, column, eps, DEFAULT_BETA)
    })
    .map_err(|e| e.to_string())?;
    timed(&mut tracer, "estimator.iqr", None, 0, || {
        estimate_iqr(&mut rng, column, eps, DEFAULT_BETA)
    })
    .map_err(|e| e.to_string())?;
    Ok(started.elapsed())
}

/// Repetitions of a stage probe on a column of `n` rows.
fn probe_reps(n: usize) -> u64 {
    if n >= 1_000_000 {
        3
    } else {
        15
    }
}

/// Times each stage function on `column`, with the ε split the serving
/// path uses.
fn stage_probes(
    column: &[f64],
    estimator_eps: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let n = column.len();
    let eps = Epsilon::new(estimator_eps).map_err(|e| e.to_string())?;
    let beta = DEFAULT_BETA;
    for rep in 0..probe_reps(n) {
        let request = PROBE_BASE + rep;
        let mut rng = seeded(child_seed(seed, 500 + rep));
        let (lb, _) = tracer.span("iqr_lower_bound", None, request, |_, _| {
            estimate_iqr_lower_bound(&mut rng, column, eps.scale(1.0 / 8.0), beta / 9.0)
        });
        let lb = lb.map_err(|e| e.to_string())?;
        tracer.span("iqr_lower_bound.pair_gaps", None, request, |_, _| {
            std::hint::black_box(pair_gaps(&mut rng, column));
        });
        let m = ((eps.get() * n as f64).ceil() as usize).clamp(16.min(n), n);
        let subsample: Vec<f64> = rand::seq::index::sample(&mut rng, n, m)
            .iter()
            .map(|i| column[i])
            .collect();
        let inner = paper_inner_epsilon(eps).scale(3.0 / 4.0);
        let (range, _) = tracer.span("discretize.range", None, request, |_, _| {
            real_range(&mut rng, &subsample, lb, inner, beta / 9.0)
        });
        let range = range.map_err(|e| e.to_string())?;
        tracer
            .span("clipped_mean", None, request, |_, _| {
                std::hint::black_box(clipped_mean_with_outside(column, range.lo, range.hi))
            })
            .0
            .map_err(|e| e.to_string())?;
        let bucket = (lb / n as f64).max(f64::MIN_POSITIVE);
        let cold = ColumnCache::new();
        let (grid, _) = tracer.span("view.grid_build", None, request, |_, _| {
            ColumnView::cached(column, &cold).grid(bucket)
        });
        grid.map_err(|e| e.to_string())?;
        let view = ColumnView::cached(column, &cold);
        let rank = ((0.9 * n as f64).ceil() as usize).clamp(1, n);
        let (q, _) = tracer.span("discretize.quantile", None, request, |_, _| {
            real_quantile_view(&mut rng, &view, rank, bucket, eps.scale(0.5), beta / 2.0)
        });
        q.map_err(|e| e.to_string())?;
        tracer.span("view.sort", None, request, |_, _| {
            std::hint::black_box(sorted_copy(column));
        });
        tracer.span("gaps.build", None, request, |_, _| {
            std::hint::black_box(GapSummary::build(column));
        });
    }
    Ok(())
}

/// The probe request sequence: a one-dataset state cut from `column`,
/// queried with every universal scalar estimator, plus bursts.
fn request_probes(
    column: &[f64],
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<PathBuf, String> {
    let rows = column[..PROBE_ROWS.min(column.len())].to_vec();
    let datasets = vec![("probe".to_string(), rows)];
    let main = State::new(
        &dir.join("probe-main"),
        &datasets,
        &mut Some(&mut *tracer),
        PROBE_BASE,
    )?;
    let twin = State::new(&dir.join("probe-twin"), &datasets, &mut None, PROBE_BASE)?;
    let catalog = EstimatorCatalog::standard();
    let specs = vec![
        QuerySpec::new("mean", plan::EPSILON),
        QuerySpec::new("variance", plan::EPSILON),
        QuerySpec::new("quantile", plan::EPSILON).with("q", 0.9),
        QuerySpec::new("iqr", plan::EPSILON),
    ];
    for p in 0..PROBE_REQUESTS {
        let request = PROBE_BASE + p;
        let query_seed = child_seed(seed, 900 + p) >> 24;
        let queries: Vec<(&str, f64, Option<f64>)> = vec![
            ("mean", plan::EPSILON, None),
            ("variance", plan::EPSILON, None),
            ("quantile", plan::EPSILON, Some(0.9)),
            ("iqr", plan::EPSILON, None),
        ];
        let body = updp_serve::client::query_body("probe", query_seed, false, &queries);
        let bytes = http_bytes("POST", "/v1/query", &body);
        let (outcomes, engine) =
            query_path(&main, &catalog, &bytes, &mut Some(&mut *tracer), request)?;
        let engine = engine.ok_or("engine span missing")?;
        engine_children(
            &twin, &catalog, "probe", &specs, query_seed, &outcomes, tracer, engine, request,
            counts,
        )?;
        if p % 5 == 4 {
            let burst = plan::gaussian(
                child_seed(seed, 950 + p),
                plan::BURST,
                rows_mean(column),
                1.0,
            );
            let flush = burst_path(
                &main,
                "probe",
                &burst,
                &mut Some(&mut *tracer),
                None,
                request,
            )?
            .ok_or("flush span missing")?;
            burst_children(&twin, "probe", &burst, tracer, flush, request)?;
        }
    }
    Ok(main.ledger_path)
}

fn rows_mean(column: &[f64]) -> f64 {
    let head = &column[..1000.min(column.len())];
    head.iter().sum::<f64>() / head.len() as f64
}

/// What the traced run measured, by span name and counter.
pub struct Replay {
    tracer: Tracer,
    steps: Counts,
    probes: Counts,
    snapshot_bytes: u64,
    overhead_pct: f64,
}

impl Replay {
    /// Durations (µs) of spans named `name`: from the schedule if it
    /// produced any, else from the probes.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        let pick = |probe: bool| -> Vec<f64> {
            self.tracer
                .spans()
                .iter()
                .filter(|s| s.name == name && (s.request >= PROBE_BASE) == probe)
                .map(|s| s.duration().as_secs_f64() * 1e6)
                .collect()
        };
        let steps = pick(false);
        if steps.is_empty() {
            pick(true)
        } else {
            steps
        }
    }

    /// Engine self time (µs) per query: the engine span minus the time
    /// of its measured children.
    fn engine_self_us(&self) -> Vec<f64> {
        let spans = self.tracer.spans();
        let pick = |probe: bool| -> Vec<f64> {
            spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "engine" && (s.request >= PROBE_BASE) == probe)
                .map(|(id, _)| self_time(spans, id).as_secs_f64() * 1e6)
                .collect()
        };
        let steps = pick(false);
        if steps.is_empty() {
            pick(true)
        } else {
            steps
        }
    }

    fn counts(&self, present: impl Fn(&Counts) -> bool) -> Counts {
        if present(&self.steps) {
            self.steps
        } else {
            self.probes
        }
    }

    /// The value of per-layer metric `metric`.
    pub fn value(&self, metric: &str) -> f64 {
        let med = |name: &str| median(&self.durations_us(name));
        match metric {
            "http.parse_us" => med("http.parse"),
            "http.encode_us" => med("http.encode"),
            "wire.parse_query_us" => med("wire.parse_query"),
            "wire.render_us" => med("wire.render"),
            "wire.register_parse_ms" => med("wire.register_parse") / 1e3,
            "registry.register_ms" => med("registry.register") / 1e3,
            "registry.flush_us" => med("registry.flush"),
            "ledger.reserve_us" => med("ledger.reserve"),
            "ledger.persists_per_query" => {
                let c = self.counts(|c| c.queries > 0);
                c.persists as f64 / c.queries.max(1) as f64
            }
            "ledger.snapshot_bytes" => self.snapshot_bytes as f64,
            "engine.self_us" => median(&self.engine_self_us()),
            "estimator.mean_us" => med("estimator.mean"),
            "estimator.variance_us" => med("estimator.variance"),
            "estimator.quantile_us" => med("estimator.quantile"),
            "estimator.iqr_us" => med("estimator.iqr"),
            "iqr_lower_bound.us" => med("iqr_lower_bound"),
            "iqr_lower_bound.pair_gaps_ms" => med("iqr_lower_bound.pair_gaps") / 1e3,
            "discretize.range_us" => med("discretize.range"),
            "discretize.quantile_us" => med("discretize.quantile"),
            "clipped_mean.us" => med("clipped_mean"),
            "view.grid_build_ms" => med("view.grid_build") / 1e3,
            "view.sort_ms" => med("view.sort") / 1e3,
            "view.append_us" => med("view.append"),
            "view.grid_hit_ratio" => {
                let c = self.counts(|c| c.grid_calls > 0);
                c.grid_hits as f64 / c.grid_calls.max(1) as f64
            }
            "gaps.build_ms" => med("gaps.build") / 1e3,
            "gaps.hit_ratio" => {
                let c = self.counts(|c| c.gap_calls > 0);
                c.gap_hits as f64 / c.gap_calls.max(1) as f64
            }
            "trace.overhead_pct" => self.overhead_pct,
            other => panic!("no per-layer metric named {other}"),
        }
    }

    /// Every span as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        self.tracer.to_jsonl()
    }
}

/// Replays `workload` for `seed`. `column` is the `library-1e7` column
/// (ignored by the serve workloads). Scratch files go under `dir`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    column: Option<&[f64]>,
    dir: &Path,
) -> Result<Replay, String> {
    let mut tracer = Tracer::new();
    let mut steps = Counts::default();
    let mut probes = Counts::default();
    let (untraced, traced, primary, ledger_path, estimator_eps) = match workload {
        Workload::Library => {
            let column = column.ok_or("library-1e7 replay needs its column")?;
            let untraced = library_pass(column, seed, None)?;
            let traced = library_pass(column, seed, Some(&mut tracer))?;
            (
                untraced,
                traced,
                column.to_vec(),
                None,
                plan::LIBRARY_EPSILON,
            )
        }
        _ => {
            let plan = Plan::new(workload, seed, seconds);
            let (untraced, _) =
                serve_pass(&plan, &dir.join("untraced"), None, &mut Counts::default())?;
            let (traced, ledger) =
                serve_pass(&plan, &dir.join("traced"), Some(&mut tracer), &mut steps)?;
            let primary = if workload == Workload::ServeStream {
                let mut column = plan.columns[0].clone();
                for s in replayed(&plan) {
                    if let Step::Burst(b) = s.step {
                        column.extend_from_slice(&plan.bursts[b]);
                    }
                }
                column
            } else {
                plan.columns[0].clone()
            };
            (
                untraced,
                traced,
                primary,
                Some(ledger),
                plan::EPSILON * ESTIMATOR_SHARE,
            )
        }
    };
    stage_probes(&primary, estimator_eps, seed, &mut tracer)?;
    let probe_ledger = request_probes(&primary, seed, dir, &mut tracer, &mut probes)?;
    let ledger = ledger_path.unwrap_or(probe_ledger);
    let snapshot_bytes = std::fs::metadata(&ledger)
        .map_err(|e| format!("stat {ledger:?}: {e}"))?
        .len();
    let overhead_pct = (traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    Ok(Replay {
        tracer,
        steps,
        probes,
        snapshot_bytes,
        overhead_pct,
    })
}
