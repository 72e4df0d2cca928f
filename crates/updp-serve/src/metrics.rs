//! The server's metric surface: every family the serving stack
//! records, the per-shard trace rings, and the endpoint-label
//! normalizer — all built on [`updp_obs`] primitives.
//!
//! This module is the observe-only boundary of DESIGN.md §11: the
//! reactor, HTTP layer, engine, and ledger *write* here, and only
//! `GET /v1/metrics` / `GET /v1/trace` *read* — nothing recorded here
//! is ever consulted by request handling. All clock reads stay in the
//! transport code (`reactor.rs`, `engine.rs`); this module and
//! `updp-obs` only aggregate the microsecond values they are handed.

use crate::engine::EstimatorCatalog;
use crate::server::ROUTES;
use std::sync::atomic::{AtomicU64, Ordering};
use updp_obs::{
    Counter, FamilySnapshot, FloatCounter, Gauge, Histogram, Kind, Sample, TraceEvent, TraceRing,
};

/// The status-class labels, indexed by [`status_class`].
const CLASSES: [&str; 4] = ["2xx", "3xx", "4xx", "5xx"];

/// Every metric the serving stack records, and the per-shard trace
/// rings. Owned by [`crate::server::AppState`].
///
/// Every label set is fixed at startup (shards `0..workers`, the
/// `ROUTES` plus `other`, four status classes, the estimators of
/// [`EstimatorCatalog::standard`]), so each child is a preallocated
/// atomic found by index: recording takes no lock, looks up no map and
/// allocates nothing. Families are built only when scraped.
pub(crate) struct ServeMetrics {
    /// In index order: the reactor runs one worker per shard.
    pub(crate) shards: Vec<ShardMetrics>,
    /// Indexed by [`endpoint_index`].
    endpoints: [EndpointMetrics; ROUTES.len() + 1],
    /// `(name, metrics)`, indexed like [`EstimatorCatalog::standard`].
    estimators: Vec<(&'static str, EstimatorMetrics)>,
    next_id: AtomicU64,
}

/// One reactor shard's metrics and trace ring, borrowed by its worker.
#[derive(Default)]
pub(crate) struct ShardMetrics {
    /// The shard index: its label, carried by its trace events.
    pub(crate) index: usize,
    pub(crate) trace: TraceRing,
    pub(crate) accepted: Counter,
    pub(crate) rejected_cap: Counter,
    pub(crate) accept_paused: Counter,
    pub(crate) overloaded: Counter,
    pub(crate) panics: Counter,
    pub(crate) bytes_read: Counter,
    pub(crate) bytes_written: Counter,
    pub(crate) wakeups: Counter,
    pub(crate) queue_high_water: Gauge,
    pub(crate) write_seconds: Histogram,
}

#[derive(Default)]
struct EndpointMetrics {
    requests: Counter,
    /// Indexed by [`status_class`].
    responses: [Counter; 4],
    parse_seconds: Histogram,
    handle_seconds: Histogram,
}

#[derive(Default)]
struct EstimatorMetrics {
    queries: Counter,
    seconds: Histogram,
    inflation: FloatCounter,
}

impl ServeMetrics {
    /// Preallocates every child, for `workers` reactor shards.
    pub(crate) fn new(workers: usize) -> ServeMetrics {
        let shards = (0..workers.max(1)).map(|index| ShardMetrics {
            index,
            ..ShardMetrics::default()
        });
        let estimators = EstimatorCatalog::standard().names().into_iter();
        ServeMetrics {
            shards: shards.collect(),
            endpoints: Default::default(),
            estimators: estimators.map(|name| (name, Default::default())).collect(),
            next_id: AtomicU64::new(0),
        }
    }

    /// Records one request to `path`: its endpoint's counters and latencies.
    pub(crate) fn record_request(&self, path: &str, status: u16, parse_us: u64, handle_us: u64) {
        let endpoint = &self.endpoints[endpoint_index(path)];
        endpoint.requests.inc();
        endpoint.responses[status_class(status)].inc();
        endpoint.parse_seconds.observe_micros(parse_us);
        endpoint.handle_seconds.observe_micros(handle_us);
    }

    /// Records one run of the catalog's `index`-th estimator.
    pub(crate) fn record_engine_query(&self, index: usize, micros: u64) {
        if let Some((_, estimator)) = self.estimators.get(index) {
            estimator.queries.inc();
            estimator.seconds.observe_micros(micros);
        }
    }

    /// Records the snapping ε inflation charged by a release of the
    /// catalog's `index`-th estimator.
    pub(crate) fn record_engine_inflation(&self, index: usize, inflation: f64) {
        if let Some((_, estimator)) = self.estimators.get(index) {
            estimator.inflation.add(inflation);
        }
    }

    /// The next process-wide request id (trace correlation only).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// All buffered trace events across shards, ordered by request id.
    pub(crate) fn trace_snapshot(&self) -> Vec<TraceEvent> {
        let shards = self.shards.iter();
        let mut events: Vec<TraceEvent> = shards.flat_map(|s| s.trace.snapshot()).collect();
        events.sort_by_key(|e| e.id);
        events
    }

    /// Every family, read now: each shard renders a sample, an endpoint
    /// or estimator one once it has recorded something.
    pub(crate) fn snapshot(&self) -> Vec<FamilySnapshot> {
        let labels = (0..).map(|i| ROUTES.get(i).copied().unwrap_or("other"));
        let endpoints = || labels.clone().zip(&self.endpoints);
        let by_shard = |name, help, kind, read: fn(&ShardMetrics) -> Sample| {
            let shards = self.shards.iter();
            let rows = shards.map(|shard| (vec![shard.index.to_string()], read(shard)));
            FamilySnapshot::new(name, help, kind, &["shard"], rows.collect())
        };
        let shard_counter = |name, help, read| by_shard(name, help, Kind::Counter, read);
        let by_endpoint = |name, help, kind, read: fn(&EndpointMetrics) -> Sample| {
            let rows = endpoints().filter_map(|(label, e)| recorded(vec![label.into()], read(e)));
            FamilySnapshot::new(name, help, kind, &["endpoint"], rows.collect())
        };
        let by_estimator = |name, help, kind, read: fn(&EstimatorMetrics) -> Sample| {
            let rows = self.estimators.iter();
            let rows = rows.filter_map(|(name, e)| recorded(vec![name.to_string()], read(e)));
            FamilySnapshot::new(name, help, kind, &["estimator"], rows.collect())
        };
        let responses = endpoints().flat_map(|(label, endpoint)| {
            let classes = CLASSES.into_iter().zip(&endpoint.responses);
            classes
                .filter_map(move |(class, n)| recorded(vec![label.into(), class.into()], count(n)))
        });
        vec![
            shard_counter(
                "updp_reactor_connections_accepted_total",
                "Connections accepted, by reactor shard.",
                |shard| count(&shard.accepted),
            ),
            shard_counter(
                "updp_reactor_connections_rejected_total",
                "Connections answered a pre-queued 503 at the connection cap, by shard.",
                |shard| count(&shard.rejected_cap),
            ),
            shard_counter(
                "updp_reactor_accept_paused_total",
                "Times a shard stopped watching the listener at the descriptor limit, by shard.",
                |shard| count(&shard.accept_paused),
            ),
            shard_counter(
                "updp_reactor_overloaded_total",
                "Requests answered 503 because the write queue was full, by shard.",
                |shard| count(&shard.overloaded),
            ),
            shard_counter(
                "updp_reactor_handler_panics_total",
                "Handler panics caught by the reactor, by shard.",
                |shard| count(&shard.panics),
            ),
            shard_counter(
                "updp_reactor_bytes_read_total",
                "Bytes read from peers, by shard.",
                |shard| count(&shard.bytes_read),
            ),
            shard_counter(
                "updp_reactor_bytes_written_total",
                "Bytes written to peers, by shard.",
                |shard| count(&shard.bytes_written),
            ),
            shard_counter(
                "updp_reactor_wakeups_total",
                "epoll_wait returns, by shard.",
                |shard| count(&shard.wakeups),
            ),
            by_shard(
                "updp_reactor_write_queue_high_water_bytes",
                "Largest write-queue depth observed, by shard.",
                Kind::Gauge,
                |shard| Sample::Value(shard.queue_high_water.get() as f64),
            ),
            by_shard(
                "updp_http_write_seconds",
                "Time from response enqueue to the write queue draining, by shard.",
                Kind::Histogram,
                |shard| Sample::Histogram(Box::new(shard.write_seconds.snapshot())),
            ),
            by_endpoint(
                "updp_http_requests_total",
                "Requests dispatched, by endpoint.",
                Kind::Counter,
                |endpoint| count(&endpoint.requests),
            ),
            FamilySnapshot::new(
                "updp_http_responses_total",
                "Responses by endpoint and status class.",
                Kind::Counter,
                &["endpoint", "class"],
                responses.collect(),
            ),
            by_endpoint(
                "updp_http_parse_seconds",
                "Time from first request byte to a complete parse, by endpoint.",
                Kind::Histogram,
                |endpoint| Sample::Histogram(Box::new(endpoint.parse_seconds.snapshot())),
            ),
            by_endpoint(
                "updp_http_handle_seconds",
                "Handler (route) wall time, by endpoint.",
                Kind::Histogram,
                |endpoint| Sample::Histogram(Box::new(endpoint.handle_seconds.snapshot())),
            ),
            by_estimator(
                "updp_engine_queries_total",
                "Estimator executions, by estimator name.",
                Kind::Counter,
                |estimator| count(&estimator.queries),
            ),
            by_estimator(
                "updp_engine_query_seconds",
                "Estimator execution wall time, by estimator name.",
                Kind::Histogram,
                |estimator| Sample::Histogram(Box::new(estimator.seconds.snapshot())),
            ),
            by_estimator(
                "updp_engine_epsilon_inflation_total",
                "Total snapping epsilon inflation charged, by estimator name.",
                Kind::Counter,
                |estimator| Sample::Value(estimator.inflation.get()),
            ),
        ]
    }
}

fn count(counter: &Counter) -> Sample {
    Sample::Value(counter.get() as f64)
}

/// The row `(labels, sample)` if its child has recorded anything:
/// every recording adds a count, or a positive amount.
fn recorded(labels: Vec<String>, sample: Sample) -> Option<(Vec<String>, Sample)> {
    let any = match &sample {
        Sample::Value(value) => *value > 0.0,
        Sample::Histogram(snapshot) => snapshot.count() > 0,
    };
    any.then_some((labels, sample))
}

/// The index into [`CLASSES`] of a status code's class; every code
/// outside 2xx–4xx counts as 5xx.
fn status_class(status: u16) -> usize {
    match status / 100 {
        class @ 2..=4 => usize::from(class - 2),
        _ => 3,
    }
}

/// The endpoint index of a request path: its route's position in
/// `ROUTES` (query string stripped), or `ROUTES.len()`, labelled
/// `"other"`, for everything else (404 probes included), so hostile
/// paths cannot inflate label cardinality.
fn endpoint_index(path: &str) -> usize {
    let route = path.split('?').next().unwrap_or(path);
    let known = ROUTES.iter().position(|&r| r == route);
    known.unwrap_or(ROUTES.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        let other = ROUTES.len();
        let metrics = endpoint_index("/v1/metrics");
        assert_eq!(endpoint_index("/v1/metrics?format=json"), metrics);
        assert_eq!(endpoint_index("/v1/../../etc/passwd"), other);
        assert_eq!(endpoint_index("/v1/nope"), other);
        for (i, route) in ROUTES.into_iter().enumerate() {
            assert_eq!(endpoint_index(route), i);
        }
    }

    fn scrape_golden_path(file: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(file)
    }

    /// Both scrape renders of a fixed metric state: twelve resolved
    /// shards (so shard `"10"` sorts before `"2"`), four of them
    /// recording, requests on two routes plus an unknown path, and
    /// three estimators.
    fn render_scrape() -> (String, String) {
        let metrics = ServeMetrics::new(12);
        let shards = &metrics.shards;
        for index in [0usize, 2, 10, 11] {
            let shard = &shards[index];
            let k = index as u64 + 1;
            shard.accepted.add(k);
            shard.rejected_cap.add(k % 3);
            shard.accept_paused.add(k % 2);
            shard.overloaded.add(k % 4);
            shard.panics.add(u64::from(index == 10));
            shard.bytes_read.add(1000 * k + 7);
            shard.bytes_written.add(2000 * k + 11);
            shard.wakeups.add(50 * k);
            shard.queue_high_water.observe_max(300 * k as i64);
            shard.queue_high_water.observe_max(7);
            shard.write_seconds.observe_micros(3 * k);
            shard.write_seconds.observe_micros(40_000 * k);
        }
        metrics.record_request("/v1/query", 200, 3, 40);
        metrics.record_request("/v1/query", 200, 0, 1_500);
        metrics.record_request("/v1/query", 403, 1, 9);
        metrics.record_request("/v1/metrics?format=json", 200, 2, 700);
        metrics.record_request("/v1/nope", 404, 5, 1);
        let catalog = EstimatorCatalog::standard();
        let at = |name| catalog.position(name).expect("a served estimator");
        metrics.record_engine_query(at("mean"), 120);
        metrics.record_engine_query(at("mean"), 2_900);
        metrics.record_engine_query(at("iqr"), 65_000);
        metrics.record_engine_query(at("kv18"), 33);
        metrics.record_engine_inflation(at("mean"), 0.001);
        metrics.record_engine_inflation(at("mean"), 0.0625);
        let families = metrics.snapshot();
        (
            updp_obs::render_prometheus(&families),
            updp_obs::render_json(&families).to_compact(),
        )
    }

    #[test]
    fn scrape_renders_match_golden() {
        let (text, json) = render_scrape();
        for (file, actual) in [("scrape.prom", text), ("scrape.json", json)] {
            let expected =
                std::fs::read_to_string(scrape_golden_path(file)).expect("golden scrape file");
            assert!(
                actual == expected,
                "{file} drifted from golden; actual render:\n{actual}"
            );
        }
    }

    #[test]
    #[ignore = "writes the golden files; run only to regenerate them deliberately"]
    fn regenerate_scrape_golden() {
        let (text, json) = render_scrape();
        std::fs::write(scrape_golden_path("scrape.prom"), text).expect("write golden scrape");
        std::fs::write(scrape_golden_path("scrape.json"), json).expect("write golden scrape");
    }
}
