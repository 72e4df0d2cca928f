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

use crate::server::ROUTES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use updp_obs::{
    Counter, Family, FamilySnapshot, FloatCounter, Gauge, Histogram, Registry as ObsRegistry,
    TraceEvent, TraceRing,
};

/// Capacity of each per-shard trace ring.
const TRACE_RING_CAP: usize = 256;

/// All metric families the serving stack records, plus the per-shard
/// flight-recorder rings. Owned by [`crate::server::AppState`];
/// handles are resolved once per shard/endpoint/estimator and then
/// recorded through lock-free atomics.
pub(crate) struct ServeMetrics {
    registry: ObsRegistry,
    // Reactor families, labelled by shard.
    accepted: Arc<Family<Counter>>,
    rejected_cap: Arc<Family<Counter>>,
    accept_paused: Arc<Family<Counter>>,
    overloaded: Arc<Family<Counter>>,
    panics: Arc<Family<Counter>>,
    bytes_read: Arc<Family<Counter>>,
    bytes_written: Arc<Family<Counter>>,
    wakeups: Arc<Family<Counter>>,
    queue_high_water: Arc<Family<Gauge>>,
    write_seconds: Arc<Family<Histogram>>,
    // HTTP families, labelled by endpoint.
    requests: Arc<Family<Counter>>,
    responses: Arc<Family<Counter>>,
    parse_seconds: Arc<Family<Histogram>>,
    handle_seconds: Arc<Family<Histogram>>,
    // Engine families, labelled by estimator.
    engine_queries: Arc<Family<Counter>>,
    engine_seconds: Arc<Family<Histogram>>,
    engine_inflation: Arc<Family<FloatCounter>>,
    // Flight recorder.
    next_id: AtomicU64,
    rings: Vec<TraceRing>,
}

impl ServeMetrics {
    /// Builds the full family set for `workers` reactor shards.
    pub(crate) fn new(workers: usize) -> ServeMetrics {
        let mut registry = ObsRegistry::new();
        let accepted = registry.register(
            "updp_reactor_connections_accepted_total",
            "Connections accepted, by reactor shard.",
            &["shard"],
        );
        let rejected_cap = registry.register(
            "updp_reactor_connections_rejected_total",
            "Connections answered a pre-queued 503 at the connection cap, by shard.",
            &["shard"],
        );
        let accept_paused = registry.register(
            "updp_reactor_accept_paused_total",
            "Times a shard stopped watching the listener at the descriptor limit, by shard.",
            &["shard"],
        );
        let overloaded = registry.register(
            "updp_reactor_overloaded_total",
            "Requests answered 503 because the write queue was full, by shard.",
            &["shard"],
        );
        let panics = registry.register(
            "updp_reactor_handler_panics_total",
            "Handler panics caught by the reactor, by shard.",
            &["shard"],
        );
        let bytes_read = registry.register(
            "updp_reactor_bytes_read_total",
            "Bytes read from peers, by shard.",
            &["shard"],
        );
        let bytes_written = registry.register(
            "updp_reactor_bytes_written_total",
            "Bytes written to peers, by shard.",
            &["shard"],
        );
        let wakeups = registry.register(
            "updp_reactor_wakeups_total",
            "epoll_wait returns, by shard.",
            &["shard"],
        );
        let queue_high_water = registry.register(
            "updp_reactor_write_queue_high_water_bytes",
            "Largest write-queue depth observed, by shard.",
            &["shard"],
        );
        let write_seconds = registry.register(
            "updp_http_write_seconds",
            "Time from response enqueue to the write queue draining, by shard.",
            &["shard"],
        );
        let requests = registry.register(
            "updp_http_requests_total",
            "Requests dispatched, by endpoint.",
            &["endpoint"],
        );
        let responses = registry.register(
            "updp_http_responses_total",
            "Responses by endpoint and status class.",
            &["endpoint", "class"],
        );
        let parse_seconds = registry.register(
            "updp_http_parse_seconds",
            "Time from first request byte to a complete parse, by endpoint.",
            &["endpoint"],
        );
        let handle_seconds = registry.register(
            "updp_http_handle_seconds",
            "Handler (route) wall time, by endpoint.",
            &["endpoint"],
        );
        let engine_queries = registry.register(
            "updp_engine_queries_total",
            "Estimator executions, by estimator name.",
            &["estimator"],
        );
        let engine_seconds = registry.register(
            "updp_engine_query_seconds",
            "Estimator execution wall time, by estimator name.",
            &["estimator"],
        );
        let engine_inflation = registry.register(
            "updp_engine_epsilon_inflation_total",
            "Total snapping epsilon inflation charged, by estimator name.",
            &["estimator"],
        );
        ServeMetrics {
            registry,
            accepted,
            rejected_cap,
            accept_paused,
            overloaded,
            panics,
            bytes_read,
            bytes_written,
            wakeups,
            queue_high_water,
            write_seconds,
            requests,
            responses,
            parse_seconds,
            handle_seconds,
            engine_queries,
            engine_seconds,
            engine_inflation,
            next_id: AtomicU64::new(0),
            rings: (0..workers.max(1))
                .map(|_| TraceRing::new(TRACE_RING_CAP))
                .collect(),
        }
    }

    /// Resolves the per-shard handle bundle (called once per worker).
    pub(crate) fn shard(&self, index: usize) -> ShardMetrics {
        let label = index.to_string();
        let l = [label.as_str()];
        ShardMetrics {
            index,
            accepted: self.accepted.with_labels(&l),
            rejected_cap: self.rejected_cap.with_labels(&l),
            accept_paused: self.accept_paused.with_labels(&l),
            overloaded: self.overloaded.with_labels(&l),
            panics: self.panics.with_labels(&l),
            bytes_read: self.bytes_read.with_labels(&l),
            bytes_written: self.bytes_written.with_labels(&l),
            wakeups: self.wakeups.with_labels(&l),
            queue_high_water: self.queue_high_water.with_labels(&l),
            write_seconds: self.write_seconds.with_labels(&l),
        }
    }

    /// Records one dispatched request's endpoint counters and phase
    /// latencies.
    pub(crate) fn record_request(
        &self,
        endpoint: &str,
        status: u16,
        parse_micros: u64,
        handle_micros: u64,
    ) {
        self.requests.with_labels(&[endpoint]).inc();
        self.responses
            .with_labels(&[endpoint, status_class(status)])
            .inc();
        self.parse_seconds
            .with_labels(&[endpoint])
            .observe_micros(parse_micros);
        self.handle_seconds
            .with_labels(&[endpoint])
            .observe_micros(handle_micros);
    }

    /// Records one estimator execution.
    pub(crate) fn record_engine_query(&self, estimator: &str, micros: u64) {
        self.engine_queries.with_labels(&[estimator]).inc();
        self.engine_seconds
            .with_labels(&[estimator])
            .observe_micros(micros);
    }

    /// Records snapping ε inflation charged for a released query.
    pub(crate) fn record_engine_inflation(&self, estimator: &str, inflation: f64) {
        self.engine_inflation
            .with_labels(&[estimator])
            .add(inflation);
    }

    /// The next process-wide request id (trace correlation only).
    pub(crate) fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Pushes a trace event into its shard's ring.
    pub(crate) fn trace_event(&self, shard: usize, event: TraceEvent) {
        if let Some(ring) = self.rings.get(shard) {
            ring.push(event);
        }
    }

    /// All buffered trace events across shards, ordered by request id.
    pub(crate) fn trace_snapshot(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> =
            self.rings.iter().flat_map(|ring| ring.snapshot()).collect();
        events.sort_by_key(|e| e.id);
        events
    }

    /// Every registered family, in registration order.
    pub(crate) fn snapshot(&self) -> Vec<FamilySnapshot> {
        self.registry.snapshot()
    }
}

/// Per-shard handles, resolved once in `Worker::new` so the hot path
/// never touches the family maps.
pub(crate) struct ShardMetrics {
    /// The shard index (trace events carry it).
    pub(crate) index: usize,
    pub(crate) accepted: Arc<Counter>,
    pub(crate) rejected_cap: Arc<Counter>,
    pub(crate) accept_paused: Arc<Counter>,
    pub(crate) overloaded: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pub(crate) bytes_read: Arc<Counter>,
    pub(crate) bytes_written: Arc<Counter>,
    pub(crate) wakeups: Arc<Counter>,
    pub(crate) queue_high_water: Arc<Gauge>,
    pub(crate) write_seconds: Arc<Histogram>,
}

/// The Prometheus status-class label for a status code.
fn status_class(status: u16) -> &'static str {
    match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

/// Normalizes a request path to a bounded endpoint label: known
/// routes (`ROUTES`) keep their path (query string stripped),
/// everything else — including 404 probes — collapses to `"other"` so
/// hostile paths cannot inflate label cardinality.
pub(crate) fn endpoint_label(path: &str) -> &'static str {
    let route = path.split('?').next().unwrap_or(path);
    ROUTES
        .into_iter()
        .find(|&known| known == route)
        .unwrap_or("other")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_labels_are_bounded() {
        assert_eq!(endpoint_label("/v1/query"), "/v1/query");
        assert_eq!(endpoint_label("/v1/metrics?format=json"), "/v1/metrics");
        assert_eq!(endpoint_label("/v1/../../etc/passwd"), "other");
        assert_eq!(endpoint_label("/v1/nope"), "other");
        for route in ROUTES {
            assert_eq!(endpoint_label(route), route);
        }
    }

    #[test]
    fn metrics_render_families_with_children() {
        let metrics = ServeMetrics::new(2);
        let shard = metrics.shard(1);
        shard.accepted.inc();
        shard.bytes_read.add(100);
        metrics.record_request("/v1/query", 200, 3, 40);
        metrics.record_request("/v1/query", 403, 1, 9);
        metrics.record_engine_inflation("mean", 0.001);
        let text = updp_obs::render_prometheus(&metrics.snapshot());
        assert!(text.contains("updp_reactor_connections_accepted_total{shard=\"1\"} 1"));
        assert!(text.contains("updp_http_requests_total{endpoint=\"/v1/query\"} 2"));
        assert!(text.contains("updp_http_responses_total{endpoint=\"/v1/query\",class=\"2xx\"} 1"));
        assert!(text.contains("updp_http_responses_total{endpoint=\"/v1/query\",class=\"4xx\"} 1"));
        assert!(text.contains("updp_engine_epsilon_inflation_total{estimator=\"mean\"} 0.001"));
    }
}
