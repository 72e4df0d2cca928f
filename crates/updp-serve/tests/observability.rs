//! Flight-recorder acceptance (DESIGN.md §11) over real sockets:
//! `/v1/metrics` family coverage in both renderings, `/v1/trace`
//! events, the enriched `/v1/healthz`, drain summaries on shutdown —
//! and the load-bearing determinism pin: every release an
//! instrumented server serves is byte-identical to what the
//! uninstrumented `engine::execute_batch` releases in process.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use updp_core::json::JsonValue;
use updp_serve::client::{query_body, Connection};
use updp_serve::engine::execute_batch;
use updp_serve::{
    wire, DrainSummary, EstimatorCatalog, FlushPolicy, Ledger, Registry, ReleaseMode, Server,
    ServerConfig,
};

fn temp_ledger(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("updp-obs-{}-{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starts a server; returns its address and the join handle carrying
/// the drain summary.
fn start(
    tag: &str,
    config: ServerConfig,
    policy: FlushPolicy,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<DrainSummary>>,
) {
    let ledger = Ledger::open(&temp_ledger(tag)).expect("open ledger");
    let server =
        Server::bind_with_config("127.0.0.1:0", ledger, policy, config).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn healthz_reports_uptime_workers_connections_and_pending_rows() {
    // Buffered policy with unreachable thresholds: appends stay
    // pending until an explicit flush, so healthz has rows to report.
    let policy = FlushPolicy::buffered(usize::MAX, std::time::Duration::from_secs(86_400));
    let (addr, server) = start("healthz", one_worker(), policy);

    let mut conn = Connection::open(&addr).expect("connect");
    conn.register("hz", 10.0, &[1.0, 2.0, 3.0])
        .expect("register");
    conn.append("hz", &[4.0]).expect("append");
    conn.append("hz", &[5.0]).expect("append");

    let body = conn.healthz().expect("healthz");
    let doc = JsonValue::parse(&body).expect("healthz parses");
    let obj = doc.as_object("healthz").expect("object");
    assert!(obj.get_bool("ok").expect("ok"));
    assert_eq!(obj.get_usize("workers").expect("workers"), 1);
    // Our own keep-alive connection is counted.
    assert!(obj.get_usize("active_connections").expect("conns") >= 1);
    // Uptime is present (may round to 0 ms on a fast machine).
    obj.get_f64("uptime_ms").expect("uptime_ms");
    let datasets = obj.get_array("datasets").expect("datasets");
    let hz = datasets
        .iter()
        .map(|d| d.as_object("dataset").expect("dataset object"))
        .find(|d| d.get_str("name").expect("name") == "hz")
        .expect("hz row present");
    assert_eq!(hz.get_usize("pending_rows").expect("pending_rows"), 2);

    conn.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

#[test]
fn metrics_expose_reactor_http_engine_and_ledger_families() {
    let (addr, server) = start("families", one_worker(), FlushPolicy::immediate());

    let mut conn = Connection::open(&addr).expect("connect");
    conn.register("obs", 100.0, &[1.0, 2.0, 3.0, 4.0, 5.0])
        .expect("register");
    conn.query(&query_body("obs", 7, false, &[("mean", 0.01, None)]))
        .expect("query");

    let text = conn.metrics_text().expect("metrics text");
    // One family from each instrumented layer, with live children.
    assert!(
        text.contains("updp_reactor_connections_accepted_total{shard=\"0\"}"),
        "{text}"
    );
    assert!(
        text.contains("updp_reactor_handler_panics_total{shard=\"0\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("updp_http_requests_total{endpoint=\"/v1/query\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("updp_http_responses_total{endpoint=\"/v1/query\",class=\"2xx\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("updp_http_handle_seconds_bucket{endpoint=\"/v1/query\",le=\"+Inf\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("updp_engine_queries_total{estimator="),
        "{text}"
    );
    assert!(
        text.contains("updp_ledger_epsilon_budget{dataset=\"obs\"} 100"),
        "{text}"
    );
    assert!(
        text.contains("updp_ledger_epsilon_spent{dataset=\"obs\"}"),
        "{text}"
    );
    assert!(text.contains("updp_reactor_connections_active"), "{text}");
    assert!(text.contains("updp_server_uptime_seconds"), "{text}");

    // The JSON rendering parses through the shared codec and reports
    // the same query count.
    let json = conn.metrics_json().expect("metrics json");
    let doc = JsonValue::parse(&json).expect("metrics json parses");
    let families = doc
        .as_object("metrics")
        .expect("object")
        .get_array("families")
        .expect("families");
    let requests = families
        .iter()
        .map(|f| f.as_object("family").expect("family"))
        .find(|f| f.get_str("name").expect("name") == "updp_http_requests_total")
        .expect("requests family");
    let sample = requests.get_array("samples").expect("samples")[0]
        .as_object("sample")
        .expect("sample");
    assert!(sample.get_f64("value").expect("value") >= 1.0);

    // An unknown format is a structured 400, not a silent default.
    let err = conn
        .request("GET", "/v1/metrics?format=xml", "")
        .expect_err("unknown format rejected");
    assert!(err.to_string().contains("400"), "{err}");

    conn.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

#[test]
fn budget_refusals_are_counted_per_dataset() {
    let (addr, server) = start("refusals", one_worker(), FlushPolicy::immediate());

    let mut conn = Connection::open(&addr).expect("connect");
    conn.register("tiny", 0.01, &[1.0, 2.0, 3.0])
        .expect("register");
    // Three records are too few for the estimator, so the first query
    // fails after reserving its nominal ε with no snapping top-up: it
    // spends the whole budget, and the second is refused outright (403).
    conn.query(&query_body("tiny", 1, false, &[("mean", 0.01, None)]))
        .expect("first query spends the budget");
    let err = conn
        .query(&query_body("tiny", 2, false, &[("mean", 0.01, None)]))
        .expect_err("starved request is 403");
    assert!(err.to_string().contains("403"), "{err}");

    let text = conn.metrics_text().expect("metrics text");
    assert!(
        text.contains("updp_ledger_refusals_total{dataset=\"tiny\"} 1"),
        "{text}"
    );

    conn.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

#[test]
fn per_dataset_families_keep_their_label_key_with_no_datasets() {
    let (addr, server) = start("no-datasets", one_worker(), FlushPolicy::immediate());

    let mut conn = Connection::open(&addr).expect("connect");
    let json = conn.metrics_json().expect("metrics json");
    let doc = JsonValue::parse(&json).expect("metrics json parses");
    let families = doc
        .as_object("metrics")
        .expect("object")
        .get_array("families")
        .expect("families");
    let label_keys = |name: &str| -> Vec<String> {
        let family = families
            .iter()
            .map(|f| f.as_object("family").expect("family"))
            .find(|f| f.get_str("name").expect("name") == name)
            .unwrap_or_else(|| panic!("{name} is scraped"));
        family
            .get_array("label_keys")
            .expect("label_keys")
            .iter()
            .map(|key| key.as_str("label key").expect("string").to_string())
            .collect()
    };
    for name in [
        "updp_ledger_epsilon_budget",
        "updp_ledger_epsilon_spent",
        "updp_ledger_epsilon_remaining",
        "updp_ledger_refusals_total",
        "updp_registry_pending_rows",
    ] {
        assert_eq!(label_keys(name), ["dataset"], "{name}");
    }
    for name in [
        "updp_reactor_connections_active",
        "updp_server_uptime_seconds",
    ] {
        assert!(label_keys(name).is_empty(), "{name}");
    }

    conn.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

#[test]
fn trace_buffers_request_events_in_order() {
    let (addr, server) = start("trace", one_worker(), FlushPolicy::immediate());

    let mut conn = Connection::open(&addr).expect("connect");
    conn.register("tr", 10.0, &[1.0, 2.0, 3.0])
        .expect("register");
    conn.query(&query_body("tr", 3, false, &[("mean", 0.01, None)]))
        .expect("query");

    let body = conn.trace().expect("trace");
    let doc = JsonValue::parse(&body).expect("trace parses");
    let events = doc
        .as_object("trace")
        .expect("object")
        .get_array("events")
        .expect("events");
    assert!(events.len() >= 2, "register + query at minimum: {body}");
    let mut last_id = None;
    let mut saw_query = false;
    for event in events {
        let event = event.as_object("event").expect("event");
        let id = event.get_usize("id").expect("id");
        if let Some(prev) = last_id {
            assert!(id > prev, "ids ascending");
        }
        last_id = Some(id);
        if event.get_str("path").expect("path") == "/v1/query" {
            saw_query = true;
            assert_eq!(event.get_usize("status").expect("status"), 200);
            assert_eq!(event.get_str("dataset").expect("dataset"), "tr");
            assert!(event.get_usize("bytes_out").expect("bytes_out") > 0);
        }
    }
    assert!(saw_query, "query event buffered: {body}");

    conn.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

#[test]
fn shutdown_advertises_drain_plan_and_clean_drain_aborts_nothing() {
    let (addr, server) = start("drain-clean", one_worker(), FlushPolicy::immediate());

    let mut conn = Connection::open(&addr).expect("connect");
    conn.healthz().expect("healthz");
    let body = conn.shutdown().expect("shutdown");
    let doc = JsonValue::parse(&body).expect("shutdown body parses");
    let obj = doc.as_object("shutdown").expect("object");
    assert!(obj.get_bool("shutting_down").expect("flag"));
    assert!(obj.get_usize("draining_connections").expect("draining") >= 1);
    assert_eq!(obj.get_usize("drain_deadline_ms").expect("deadline"), 2000);

    let summary = server.join().expect("join").expect("clean shutdown");
    assert_eq!(summary.aborted, 0, "{summary:?}");
    assert!(summary.drained >= 1, "{summary:?}");
}

#[test]
fn stalled_peer_is_aborted_at_the_drain_deadline() {
    // Clamped send buffer plus a huge write-queue cap: responses
    // must stay queued server-side (no 503 teardown) when the peer
    // never reads them.
    let config = ServerConfig {
        workers: 1,
        send_buffer: Some(4096),
        max_write_queue: 64 * 1024 * 1024,
        ..ServerConfig::default()
    };
    let (addr, server) = start("drain-abort", config, FlushPolicy::immediate());

    // A peer that pipelines requests and never reads. The response
    // volume (~1 MiB) far exceeds what the clamped server send buffer
    // plus the peer's kernel receive buffer can absorb, so bytes are
    // still queued at shutdown.
    let mut stalled = TcpStream::connect(&addr).expect("connect stalled");
    let mut burst = Vec::new();
    for _ in 0..8000 {
        burst.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    stalled.write_all(&burst).expect("burst");

    // Give the reactor a moment to serve the burst into the queue,
    // then shut down from a second connection.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut conn = Connection::open(&addr).expect("connect");
    conn.shutdown().expect("shutdown");

    // ~2 s: the drain deadline expires with the stalled peer's bytes
    // still queued, so it is force-closed and counted as aborted.
    let summary = server.join().expect("join").expect("drained");
    assert!(summary.aborted >= 1, "{summary:?}");
    drop(stalled);
}

/// The determinism pin: an instrumented server, scraped and traced
/// between queries, must release exactly what the uninstrumented
/// engine releases. `execute_batch` records nothing, so each served
/// body is compared with `wire::query_response` over it, run in
/// process on a mirrored registry and ledger. Metrics are
/// observe-only by contract; this is the test that keeps them that
/// way.
#[test]
fn served_releases_match_the_uninstrumented_engine() {
    let (addr, server) = start("pin", one_worker(), FlushPolicy::immediate());
    let mut conn = Connection::open(&addr).expect("connect");
    let registry = Registry::with_policy(FlushPolicy::immediate());
    let ledger = Ledger::in_memory();
    let catalog = EstimatorCatalog::standard();

    let data: Vec<f64> = (0..500).map(|i| (i % 97) as f64).collect();
    conn.register("pin", 50.0, &data).expect("register");
    ledger.register("pin", 50.0).expect("mirror account");
    registry
        .register("pin", vec![data])
        .expect("mirror dataset");

    let check = |conn: &mut Connection, body: &str| {
        // Recording AND rendering must both be invisible to the
        // released bytes.
        conn.metrics_text().expect("scrape");
        conn.trace().expect("trace");
        let served = conn.query(body).expect("query");
        let request = wire::parse_query(body).expect("query parses");
        let dataset = registry.get(&request.dataset).expect("mirror dataset");
        let outcomes = execute_batch(
            &dataset,
            &catalog,
            &ledger,
            &request.specs,
            request.seed,
            ReleaseMode::Hardened {
                bound: request.bound,
            },
        )
        .expect("in-process batch");
        let account = ledger.account(&request.dataset).expect("mirror account");
        assert_eq!(
            served,
            wire::query_response(&request, &outcomes, &account),
            "instrumentation leaked into the release of {body}"
        );
    };
    for seed in 0..5u64 {
        check(
            &mut conn,
            &query_body(
                "pin",
                seed,
                false,
                &[
                    ("mean", 0.01, None),
                    ("quantile", 0.01, Some(0.9)),
                    ("iqr", 0.01, None),
                ],
            ),
        );
    }
    conn.append("pin", &[7.0, 11.0]).expect("append");
    registry
        .append("pin", vec![vec![7.0, 11.0]])
        .expect("mirror append");
    check(
        &mut conn,
        &query_body("pin", 99, false, &[("variance", 0.01, None)]),
    );

    conn.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}
