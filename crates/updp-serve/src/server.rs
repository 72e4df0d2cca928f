//! The long-lived serving process: routing and the
//! registry/ledger/engine wiring, served by the sharded epoll
//! reactor in `crate::reactor` (DESIGN.md §10) — a fixed worker
//! pool of event loops over non-blocking sockets, with bounded
//! per-connection write queues and event-driven shutdown. All shared
//! state sits behind the registry/ledger synchronization described
//! in their modules. The HTTP surface:
//!
//! | Route | Body | Effect |
//! |---|---|---|
//! | `GET /v1/healthz` | — | liveness probe |
//! | `GET /v1/datasets` | — | list datasets + budgets |
//! | `GET /v1/estimators` | — | list servable estimators + assumptions |
//! | `POST /v1/register` | `{name, budget, data\|columns}` | create dataset + ledger account |
//! | `POST /v1/append` | `{name, data\|columns}` | buffer records (publishes per [`FlushPolicy`]) |
//! | `POST /v1/flush` | `{name}` | publish the pending delta log now |
//! | `POST /v1/drop` | `{name}` | drop data (ledger entry survives) |
//! | `POST /v1/query` | see [`crate::wire::parse_query`] | budgeted batch estimation |
//! | `POST /v1/shutdown` | — | graceful stop |

use crate::engine::{
    execute_batch_observed, EngineError, EstimatorCatalog, QueryOutcome, ReleaseMode,
};
use crate::http::Request;
use crate::ledger::{Ledger, LedgerError};
use crate::metrics::{endpoint_label, ServeMetrics};
use crate::registry::{FlushPolicy, Registry, RegistryError};
use crate::{reactor, wire};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use updp_core::json::JsonValue;
use updp_obs::{Kind, ScrapedFamily};

/// Transport knobs for the reactor (DESIGN.md §10). The defaults are
/// the production configuration; tests tighten them to make the
/// backpressure paths deterministic.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor worker shards; `0` means available parallelism.
    pub workers: usize,
    /// Live-connection cap across all shards. Connections beyond it
    /// are accepted, answered with a structured 503 `overloaded`, and
    /// closed (accept-then-503 — the peer gets an answer instead of
    /// a SYN-backlog timeout).
    pub max_connections: usize,
    /// Per-connection write-queue bound in bytes. A peer that
    /// pipelines requests without reading responses gets a final 503
    /// `overloaded` and teardown once this many bytes are queued.
    pub max_write_queue: usize,
    /// Optional `SO_SNDBUF` clamp per connection: bounds kernel-side
    /// buffering at high connection counts and makes the write-queue
    /// backpressure observable with small deterministic buffers.
    pub send_buffer: Option<usize>,
    /// Record metrics and trace events (DESIGN.md §11). Always
    /// observe-only; `false` exists so the e2e suite can pin that
    /// released bytes are bit-identical with instrumentation hot or
    /// cold.
    pub metrics: bool,
    /// Emit one structured JSON line per request on stderr (the
    /// opt-in `--log-json` flight-recorder stream).
    pub log_json: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            max_connections: 4096,
            max_write_queue: 256 * 1024,
            send_buffer: None,
            metrics: true,
            log_json: false,
        }
    }
}

impl ServerConfig {
    /// `workers` with `0` resolved to available parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Shared server state.
pub struct AppState {
    /// The sharded dataset registry.
    pub registry: Registry,
    /// The persisted privacy-budget ledger.
    pub ledger: Ledger,
    /// The name-keyed estimator catalog (universal + baselines).
    pub estimators: EstimatorCatalog,
    /// The metric families and trace rings (DESIGN.md §11).
    pub(crate) metrics: ServeMetrics,
    /// Live connections across all shards. The reactor is the only
    /// writer; `/v1/healthz` and `/v1/metrics` read it.
    pub(crate) conns: AtomicUsize,
    /// Bind time, for the healthz uptime report. Transport-scoped
    /// wall clock: never feeds any release path.
    pub(crate) started: Instant,
    /// Resolved reactor worker count.
    pub(crate) workers: usize,
    shutdown: AtomicBool,
    /// Test-only hook: arms the panicking `/v1/test/panic` route used
    /// to prove reactor panic isolation. Never set in production.
    panic_route: AtomicBool,
}

impl AppState {
    /// True once a `POST /v1/shutdown` has been served.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag (the reactor then wakes every shard).
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// What the drain phase of a shutdown did: how many connections
/// flushed and closed cleanly, and how many were force-closed when
/// the 2 s drain deadline expired. Returned by [`Server::run`];
/// summed across reactor shards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections that drained (flushed their queued responses, or
    /// were already idle) during shutdown.
    pub drained: usize,
    /// Connections force-closed at the drain deadline with bytes
    /// still queued.
    pub aborted: usize,
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `ledger`
    /// with the immediate (unbuffered) flush policy.
    pub fn bind(addr: &str, ledger: Ledger) -> std::io::Result<Server> {
        Server::bind_with_config(
            addr,
            ledger,
            FlushPolicy::immediate(),
            ServerConfig::default(),
        )
    }

    /// Binds `addr` over `ledger` with an explicit write-buffer
    /// [`FlushPolicy`] (DESIGN.md §8: appends coalesce into a pending
    /// delta log and publish one snapshot per threshold crossing or
    /// explicit `POST /v1/flush`) and explicit transport knobs
    /// ([`ServerConfig`]).
    pub fn bind_with_config(
        addr: &str,
        ledger: Ledger,
        policy: FlushPolicy,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let workers = config.resolved_workers();
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(AppState {
                registry: Registry::with_policy(policy),
                ledger,
                estimators: EstimatorCatalog::standard(),
                metrics: ServeMetrics::new(workers, config.metrics),
                conns: AtomicUsize::new(0),
                started: Instant::now(),
                workers,
                shutdown: AtomicBool::new(false),
                panic_route: AtomicBool::new(false),
            }),
            config,
        })
    }

    /// The bound address (reports the ephemeral port after `:0` binds).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Arms the `POST /v1/test/panic` route, which panics inside the
    /// handler. Exists so tests can prove the reactor survives a
    /// poisoned handler; hidden because production servers must never
    /// enable it.
    #[doc(hidden)]
    pub fn enable_test_panic_route(&self) {
        self.state.panic_route.store(true, Ordering::SeqCst);
    }

    /// Serves on the epoll reactor until a `POST /v1/shutdown`
    /// arrives, then drains every in-flight connection before
    /// returning the drain's outcome.
    pub fn run(self) -> std::io::Result<DrainSummary> {
        reactor::run(self.listener, self.state, self.config)
    }
}

/// `Content-Type` of every JSON response.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition.
pub(crate) const CONTENT_TYPE_TEXT: &str = "text/plain; version=0.0.4";

/// A routed response: status + body + content type, plus the dataset
/// the request touched (trace labelling only — the reactor never
/// branches on it).
pub(crate) struct Routed {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) content_type: &'static str,
    pub(crate) dataset: Option<String>,
}

impl Routed {
    fn json(status: u16, body: String) -> Routed {
        Routed {
            status,
            body,
            content_type: CONTENT_TYPE_JSON,
            dataset: None,
        }
    }

    fn text(status: u16, body: String) -> Routed {
        Routed {
            status,
            body,
            content_type: CONTENT_TYPE_TEXT,
            dataset: None,
        }
    }

    /// Tags the response with the dataset it touched.
    fn tagged(mut self, dataset: &str) -> Routed {
        self.dataset = Some(dataset.to_string());
        self
    }
}

fn ok(value: JsonValue) -> Routed {
    Routed::json(200, value.to_compact())
}

fn error(status: u16, code: &str, message: &str) -> Routed {
    Routed::json(status, wire::error_body(code, message))
}

fn registry_error(e: &RegistryError) -> Routed {
    let (status, code) = match e {
        RegistryError::NotFound(_) => (404, "not_found"),
        RegistryError::AlreadyExists(_) => (409, "already_exists"),
        RegistryError::BadName(_) => (400, "bad_name"),
        RegistryError::DimensionMismatch { .. } | RegistryError::BadData(_) => (400, "bad_data"),
        // A poisoned lock means one worker panicked; answer 500 and
        // keep serving instead of cascading the panic.
        RegistryError::Poisoned => (500, "internal"),
    };
    error(status, code, &e.to_string())
}

fn ledger_error(e: &LedgerError) -> Routed {
    match e {
        LedgerError::UnknownDataset(_) => error(404, "not_found", &e.to_string()),
        LedgerError::BadParameter(_) => error(400, "bad_request", &e.to_string()),
        LedgerError::Snapshot(_) => error(500, "ledger_io", &e.to_string()),
        LedgerError::Poisoned => error(500, "internal", &e.to_string()),
    }
}

/// Routes one request to its handler. Called by the reactor workers;
/// panics escaping a handler are caught at the call site
/// (`catch_unwind`), costing the request a 500 and its connection but
/// never the worker.
pub(crate) fn route(state: &AppState, request: &Request) -> Routed {
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error(400, "bad_request", "body is not UTF-8"),
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(state),
        // Test-only poison pill (see Server::enable_test_panic_route):
        // unarmed servers fall through to the 404 arm below.
        ("POST", "/v1/test/panic") if state.panic_route.load(Ordering::SeqCst) => {
            panic!("test panic route")
        }
        ("GET", "/v1/datasets") => list(state),
        ("GET", "/v1/estimators") => {
            Routed::json(200, wire::estimators_response(state.estimators.iter()))
        }
        // The metrics/trace endpoints are the only routes with a
        // query string ("?format=json"); every other path is matched
        // verbatim, query string and all, exactly as before.
        ("GET", path) if endpoint_label(path) == "/v1/metrics" => metrics_scrape(state, path),
        ("GET", path) if endpoint_label(path) == "/v1/trace" => {
            Routed::json(200, wire::trace_body(&state.metrics.trace_snapshot()))
        }
        ("POST", "/v1/register") => register(state, body),
        ("POST", "/v1/append") => append(state, body),
        ("POST", "/v1/flush") => flush(state, body),
        ("POST", "/v1/drop") => drop_dataset(state, body),
        ("POST", "/v1/query") => query(state, body),
        ("POST", "/v1/shutdown") => shutdown(state),
        (_, path) if known_path(path) => error(405, "method_not_allowed", path),
        (_, path) => error(404, "not_found", path),
    }
}

fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/v1/healthz"
            | "/v1/datasets"
            | "/v1/estimators"
            | "/v1/register"
            | "/v1/append"
            | "/v1/flush"
            | "/v1/drop"
            | "/v1/query"
            | "/v1/shutdown"
            | "/v1/metrics"
            | "/v1/trace"
    )
}

/// The readiness probe: liveness plus uptime, worker count, active
/// connections, and per-dataset pending delta-log rows. A wedged
/// registry degrades to an empty dataset list — healthz must answer.
fn healthz(state: &AppState) -> Routed {
    let pending: Vec<(String, usize)> = state
        .registry
        .list()
        .unwrap_or_default()
        .into_iter()
        .map(|row| (row.name, row.pending))
        .collect();
    Routed::json(
        200,
        wire::healthz_body(
            state.started.elapsed().as_millis() as u64,
            state.workers,
            state.conns.load(Ordering::SeqCst),
            &pending,
        ),
    )
}

/// `POST /v1/shutdown`: acknowledges with the drain plan — how many
/// connections are up for draining and the force-close deadline. The
/// *outcome* (drained vs aborted counts) is only knowable after the
/// drain completes; [`Server::run`] returns it as a [`DrainSummary`].
fn shutdown(state: &AppState) -> Routed {
    ok(JsonValue::object(vec![
        ("shutting_down", true.into()),
        (
            "draining_connections",
            state.conns.load(Ordering::SeqCst).into(),
        ),
        (
            "drain_deadline_ms",
            (reactor::DRAIN_DEADLINE.as_millis() as f64).into(),
        ),
    ]))
}

/// `GET /v1/metrics`: Prometheus text by default, JSON with
/// `?format=json`. Registry families render from their atomics;
/// ledger ε accounts, refusal counts, pending rows, active
/// connections, and uptime are scraped from their single sources of
/// truth at render time.
fn metrics_scrape(state: &AppState, path: &str) -> Routed {
    let format = path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let extra = scraped_families(state);
    match format {
        "" | "format=text" | "format=prometheus" => {
            Routed::text(200, state.metrics.render_prometheus(&extra))
        }
        "format=json" => Routed::json(200, state.metrics.render_json(&extra).to_compact()),
        other => error(400, "bad_request", &format!("unknown query `{other}`")),
    }
}

/// The scrape-time families: values owned by the ledger/registry/
/// reactor rather than duplicated into metric state.
fn scraped_families(state: &AppState) -> Vec<ScrapedFamily> {
    let accounts = state.ledger.list().unwrap_or_default();
    let gauge = |name: &str, help: &str, rows: Vec<(Vec<String>, f64)>, kind| ScrapedFamily {
        name: name.to_string(),
        help: help.to_string(),
        kind,
        label_keys: if rows.iter().any(|(labels, _)| !labels.is_empty()) {
            vec!["dataset".to_string()]
        } else {
            Vec::new()
        },
        samples: rows,
    };
    let per_account = |f: fn(&crate::ledger::Account) -> f64| -> Vec<(Vec<String>, f64)> {
        accounts
            .iter()
            .map(|(name, account)| (vec![name.clone()], f(account)))
            .collect()
    };
    vec![
        gauge(
            "updp_ledger_epsilon_budget",
            "Total epsilon budget pinned at first registration, by dataset.",
            per_account(|a| a.budget),
            Kind::Gauge,
        ),
        gauge(
            "updp_ledger_epsilon_spent",
            "Epsilon spent (monotone, survives restarts), by dataset.",
            per_account(|a| a.spent),
            Kind::Gauge,
        ),
        gauge(
            "updp_ledger_epsilon_remaining",
            "Epsilon still available, by dataset.",
            per_account(|a| a.remaining()),
            Kind::Gauge,
        ),
        gauge(
            "updp_ledger_refusals_total",
            "budget_exhausted refusals served this process lifetime, by dataset.",
            state
                .ledger
                .refusal_counts()
                .into_iter()
                .map(|(name, count)| (vec![name], count as f64))
                .collect(),
            Kind::Counter,
        ),
        gauge(
            "updp_registry_pending_rows",
            "Unflushed delta-log rows, by dataset.",
            state
                .registry
                .list()
                .unwrap_or_default()
                .into_iter()
                .map(|row| (vec![row.name], row.pending as f64))
                .collect(),
            Kind::Gauge,
        ),
        gauge(
            "updp_reactor_connections_active",
            "Open connections across all shards.",
            vec![(Vec::new(), state.conns.load(Ordering::SeqCst) as f64)],
            Kind::Gauge,
        ),
        gauge(
            "updp_server_uptime_seconds",
            "Seconds since the server bound its listener.",
            vec![(Vec::new(), state.started.elapsed().as_secs_f64())],
            Kind::Gauge,
        ),
    ]
}

fn list(state: &AppState) -> Routed {
    let rows = match state.registry.list() {
        Ok(rows) => rows,
        Err(e) => return registry_error(&e),
    };
    let rows = rows
        .into_iter()
        .map(|row| {
            let mut fields = vec![
                ("name", row.name.as_str().into()),
                ("dim", row.dim.into()),
                ("records", row.records.into()),
                ("pending", row.pending.into()),
            ];
            if let Ok(account) = state.ledger.account(&row.name) {
                fields.push(("budget", wire::budget_json(&account)));
            }
            JsonValue::object(fields)
        })
        .collect();
    ok(JsonValue::object(vec![(
        "datasets",
        JsonValue::Array(rows),
    )]))
}

fn register(state: &AppState, body: &str) -> Routed {
    let request = match wire::parse_register(body) {
        Ok(r) => r,
        Err(e) => return error(400, "bad_request", &e.to_string()),
    };
    // Validate everything before touching either store: a rejected
    // registration must not create or alter any persisted account.
    if !(request.budget.is_finite() && request.budget > 0.0) {
        return error(400, "bad_request", "budget must be finite and positive");
    }
    if let Err(e) = crate::registry::validate_name(&request.name) {
        return registry_error(&e);
    }
    if let Err(e) = crate::registry::validate_columns(&request.columns) {
        return registry_error(&e);
    }
    // Ledger before registry: the moment a dataset becomes visible to
    // queries, its account must already exist (registry-first would
    // open a window of spurious 404s). The ledger owns replay
    // protection — re-registering re-attaches with spent and the
    // originally pinned budget intact. If the registry then reports a
    // duplicate, the account we touched is the *same dataset's*
    // account (names are the ids), so there is nothing to roll back.
    let account = match state.ledger.register(&request.name, request.budget) {
        Ok(account) => account,
        Err(e) => return ledger_error(&e),
    };
    match state.registry.register(&request.name, request.columns) {
        Ok(dataset) => {
            let records = match dataset.len() {
                Ok(records) => records,
                Err(e) => return registry_error(&e),
            };
            ok(JsonValue::object(vec![
                ("name", dataset.name.as_str().into()),
                ("dim", dataset.dim.into()),
                ("records", records.into()),
                ("budget", wire::budget_json(&account)),
            ]))
            .tagged(&request.name)
        }
        Err(e) => registry_error(&e),
    }
}

fn append(state: &AppState, body: &str) -> Routed {
    let (name, columns) = match wire::parse_append(body) {
        Ok(r) => r,
        Err(e) => return error(400, "bad_request", &e.to_string()),
    };
    match state.registry.append(&name, columns) {
        Ok(outcome) => ok(JsonValue::object(vec![
            ("name", name.as_str().into()),
            ("records", outcome.records.into()),
            ("pending", outcome.pending.into()),
            ("version", (outcome.version as f64).into()),
            ("flushed", outcome.flushed.into()),
        ]))
        .tagged(&name),
        Err(e) => registry_error(&e),
    }
}

fn flush(state: &AppState, body: &str) -> Routed {
    let name = match wire::parse_flush(body) {
        Ok(name) => name,
        Err(e) => return error(400, "bad_request", &e.to_string()),
    };
    match state.registry.flush(&name) {
        Ok(outcome) => ok(JsonValue::object(vec![
            ("name", name.as_str().into()),
            ("records", outcome.records.into()),
            ("version", (outcome.version as f64).into()),
            ("flushed_rows", outcome.flushed_rows.into()),
        ]))
        .tagged(&name),
        Err(e) => registry_error(&e),
    }
}

fn drop_dataset(state: &AppState, body: &str) -> Routed {
    let name = match wire::parse_drop(body) {
        Ok(name) => name,
        Err(e) => return error(400, "bad_request", &e.to_string()),
    };
    match state.registry.drop_dataset(&name) {
        Ok(()) => ok(JsonValue::object(vec![
            ("name", name.as_str().into()),
            ("dropped", true.into()),
            // The ledger entry survives by design (replay protection).
            ("ledger_retained", true.into()),
        ]))
        .tagged(&name),
        Err(e) => registry_error(&e),
    }
}

fn query(state: &AppState, body: &str) -> Routed {
    let request = match wire::parse_query(body) {
        Ok(r) => r,
        Err(e) => return error(400, "bad_request", &e.to_string()),
    };
    let dataset = match state.registry.get(&request.dataset) {
        Ok(d) => d,
        Err(e) => return registry_error(&e),
    };
    let mode = if request.raw {
        ReleaseMode::Raw
    } else {
        if !(request.bound.is_finite() && request.bound > 0.0) {
            return error(400, "bad_request", "bound must be finite and positive");
        }
        ReleaseMode::Hardened {
            bound: request.bound,
        }
    };
    let outcomes = match execute_batch_observed(
        &dataset,
        &state.estimators,
        &state.ledger,
        &request.specs,
        request.seed,
        mode,
        Some(&state.metrics),
    ) {
        Ok(outcomes) => outcomes,
        Err(EngineError::BadQuery(reason)) => return error(400, "bad_query", &reason),
        Err(e @ EngineError::UnknownEstimator { .. }) => {
            return error(400, "unknown_estimator", &e.to_string())
        }
        Err(EngineError::Ledger(e)) => return ledger_error(&e),
        Err(e @ EngineError::Internal(_)) => return error(500, "internal", &e.to_string()),
    };
    let account = match state.ledger.account(&request.dataset) {
        Ok(account) => account,
        Err(e) => return ledger_error(&e),
    };
    // Every query refused ⇒ the whole request was starved: 403 so
    // scripted callers (CI smoke, the benchmark driver) fail loudly.
    let starved = outcomes
        .iter()
        .all(|o| matches!(o, QueryOutcome::Refused { .. }));
    let status = if starved { 403 } else { 200 };
    Routed::json(status, wire::query_response(&request, &outcomes, &account))
        .tagged(&request.dataset)
}
