//! End-to-end acceptance: a real server on an ephemeral port, driven
//! over real sockets through the client library.
//!
//! Pins the ISSUE's flow: register → batched query (mean + quantile +
//! iqr) → bit-identical `results` on repeat with the same seed →
//! budget-exhaustion refusal → restart does not restore spent budget.

// Exact `==` on f64 is deliberate here: these tests pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#![allow(clippy::float_cmp)]

use std::path::PathBuf;
use updp_core::json::JsonValue;
use updp_dist::ContinuousDistribution;
use updp_serve::client::{query_body, query_body_named, ClientError, Connection, NamedQuery};
use updp_serve::{FlushPolicy, Ledger, Server, ServerConfig};

fn temp_ledger(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("updp-e2e-{}-{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starts a server over `ledger`; returns its address and the thread
/// to join after shutdown.
fn start(
    ledger: Ledger,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<updp_serve::DrainSummary>>,
) {
    let server = Server::bind("127.0.0.1:0", ledger).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn gaussian(n: usize) -> Vec<f64> {
    let mut rng = updp_core::rng::seeded(0xE2E);
    updp_dist::Gaussian::new(50.0, 5.0)
        .expect("valid parameters")
        .sample_vec(&mut rng, n)
}

/// The `results` array of a query response — the part of the wire
/// contract that must be bit-identical across repeats (the `budget`
/// trailer legitimately advances).
fn results_of(body: &str) -> String {
    let doc = JsonValue::parse(body).expect("valid response JSON");
    let obj = doc.as_object("response").expect("response object");
    JsonValue::Array(obj.get_array("results").expect("results").to_vec()).to_compact()
}

#[test]
fn register_query_repeat_exhaust_restart() {
    let ledger_path = temp_ledger("flow");
    let (addr, server) = start(Ledger::open(&ledger_path).expect("open ledger"));
    let mut client = Connection::open(&addr).expect("connect");

    // Register: 5k Gaussian records, ε budget 2.0.
    let body = client.register("salaries", 2.0, &gaussian(5_000)).unwrap();
    let doc = JsonValue::parse(&body).unwrap();
    let obj = doc.as_object("register response").unwrap();
    assert_eq!(obj.get_str("name").unwrap(), "salaries");
    assert_eq!(obj.get_usize("records").unwrap(), 5_000);

    // Batched hardened query: mean + p90 quantile + iqr, 0.2 ε each.
    let batch = |seed: u64| {
        query_body(
            "salaries",
            seed,
            false,
            &[
                ("mean", 0.2, None),
                ("quantile", 0.2, Some(0.9)),
                ("iqr", 0.2, None),
            ],
        )
    };
    let first = client.query(&batch(7)).unwrap();
    let repeat = client.query(&batch(7)).unwrap();
    // Bit-identical released values for the same request seed.
    assert_eq!(results_of(&first), results_of(&repeat));
    // A different seed draws different noise.
    let other = client.query(&batch(8)).unwrap();
    assert_ne!(results_of(&first), results_of(&other));

    // All three results released, each on the snapping grid, each
    // charged more than its nominal ε (hardened inflation).
    let doc = JsonValue::parse(&first).unwrap();
    let results = doc
        .as_object("response")
        .unwrap()
        .get_array("results")
        .unwrap()
        .to_vec();
    assert_eq!(results.len(), 3);
    for result in &results {
        let result = result.as_object("result").unwrap();
        let values = result.get_array("values").unwrap();
        let release = result.get("release").unwrap().as_object("release").unwrap();
        assert!(release.get_bool("snapped").unwrap());
        let lambdas = release.get_array("lambdas").unwrap();
        for (value, lambda) in values.iter().zip(lambdas) {
            let value = value.as_f64("value").unwrap();
            let lambda = lambda.as_f64("lambda").unwrap();
            let k = value / lambda;
            assert!((k - k.round()).abs() < 1e-9, "{value} not on grid {lambda}");
        }
        assert!(result.get_f64("epsilon_charged").unwrap() > 0.2);
    }

    // Three batches × 0.6+ε spent ⇒ ~1.8+; a fourth 0.6 batch must be
    // refused wholesale (HTTP 403, structured per-query errors).
    let refusal = client.query(&batch(9));
    let Err(ClientError::Status { status, body }) = refusal else {
        panic!("expected starved refusal, got {refusal:?}");
    };
    assert_eq!(status, 403);
    assert!(body.contains("budget_exhausted"), "{body}");

    // Restart the server over the same ledger snapshot.
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let (addr, server) = start(Ledger::open(&ledger_path).expect("reopen ledger"));
    let mut client = Connection::open(&addr).expect("reconnect");

    // Re-registering the same name must resume the spent ledger —
    // restarts cannot replay budget.
    let body = client.register("salaries", 2.0, &gaussian(5_000)).unwrap();
    let doc = JsonValue::parse(&body).unwrap();
    let budget = doc
        .as_object("register response")
        .unwrap()
        .get("budget")
        .unwrap()
        .as_object("budget")
        .unwrap();
    assert!(
        budget.get_f64("spent").unwrap() > 1.8,
        "restart restored spent budget: {body}"
    );
    let refusal = client.query(&batch(10));
    assert!(
        matches!(refusal, Err(ClientError::Status { status: 403, .. })),
        "query after restart should still be starved: {refusal:?}"
    );

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&ledger_path);
}

#[test]
fn raw_mode_and_dataset_lifecycle() {
    let (addr, server) = start(Ledger::in_memory());
    let mut client = Connection::open(&addr).expect("connect");

    client.register("d", 10.0, &gaussian(2_000)).unwrap();

    // Raw mode: un-snapped values, exactly the nominal ε charged.
    let body = client
        .query(&query_body("d", 3, true, &[("mean", 0.5, None)]))
        .unwrap();
    let doc = JsonValue::parse(&body).unwrap();
    let results = doc
        .as_object("response")
        .unwrap()
        .get_array("results")
        .unwrap()
        .to_vec();
    let result = results[0].as_object("result").unwrap();
    assert_eq!(result.get_f64("epsilon_charged").unwrap(), 0.5);
    let release = result.get("release").unwrap().as_object("release").unwrap();
    assert!(!release.get_bool("snapped").unwrap());

    // Append then list reflects the new count and the spent budget.
    let body = client
        .request(
            "POST",
            "/v1/append",
            r#"{"name":"d","data":[50.1,49.9,50.0]}"#,
        )
        .unwrap();
    assert!(body.contains("2003"), "{body}");
    let listing = client.request("GET", "/v1/datasets", "").unwrap();
    assert!(listing.contains("\"records\":2003"), "{listing}");

    // Drop removes the data but a re-register cannot mint budget: the
    // ledger entry survives with its spend, and even a bigger
    // requested budget is ignored — the first registration pinned it.
    client
        .request("POST", "/v1/drop", r#"{"name":"d"}"#)
        .unwrap();
    let err = client.query(&query_body("d", 4, true, &[("mean", 0.1, None)]));
    assert!(matches!(err, Err(ClientError::Status { status: 404, .. })));
    let body = client.register("d", 1e9, &gaussian(2_000)).unwrap();
    assert!(body.contains("\"spent\":0.5"), "{body}");
    assert!(
        body.contains("\"total\":10"),
        "re-register raised the pinned budget: {body}"
    );

    // Unknown routes 404, wrong methods 405, garbage bodies 400.
    let (status, _) = client.request_raw("GET", "/v1/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request_raw("GET", "/v1/query", "").unwrap();
    assert_eq!(status, 405);
    let (status, _) = client
        .request_raw("POST", "/v1/query", "{ not json")
        .unwrap();
    assert_eq!(status, 400);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn baselines_by_name_with_assumptions_and_unknown_estimator_error() {
    let (addr, server) = start(Ledger::in_memory());
    let mut client = Connection::open(&addr).expect("connect");
    client.register("b", 10.0, &gaussian(4_000)).unwrap();

    // The estimator catalog is discoverable.
    let listing = client.request("GET", "/v1/estimators", "").unwrap();
    for name in ["mean", "kv18", "coinpress", "dl09", "nonprivate"] {
        assert!(
            listing.contains(&format!("\"name\":\"{name}\"")),
            "{listing}"
        );
    }

    // A baseline batch by name, with required-assumption metadata
    // echoed back, bit-identical on a repeated seed.
    let batch = |seed: u64| {
        query_body_named(
            "b",
            seed,
            true,
            &[
                NamedQuery {
                    estimator: "kv18",
                    epsilon: 0.2,
                    params: vec![("r", 1000.0), ("sigma_min", 0.1), ("sigma_max", 100.0)],
                },
                NamedQuery {
                    estimator: "naive_clip",
                    epsilon: 0.2,
                    params: vec![("r", 1000.0)],
                },
            ],
        )
    };
    let first = client.query(&batch(7)).unwrap();
    let repeat = client.query(&batch(7)).unwrap();
    assert_eq!(results_of(&first), results_of(&repeat));
    assert!(first.contains(r#""kind":"kv18""#), "{first}");
    assert!(
        first.contains(r#""assumptions":["A1","A2","A3"]"#),
        "{first}"
    );
    assert!(first.contains(r#""assumptions":["A1"]"#), "{first}");

    // Unknown estimator: structured, named error before any budget.
    let err = client.query(&query_body_named(
        "b",
        1,
        true,
        &[NamedQuery {
            estimator: "mode",
            epsilon: 0.1,
            params: vec![],
        }],
    ));
    let Err(ClientError::Status { status, body }) = err else {
        panic!("expected unknown-estimator error, got {err:?}");
    };
    assert_eq!(status, 400);
    assert!(body.contains(r#""code":"unknown_estimator""#), "{body}");
    assert!(body.contains("kv18"), "lists known names: {body}");

    // Missing required baseline parameter: bad_query before budget.
    let err = client.query(&query_body_named(
        "b",
        1,
        true,
        &[NamedQuery {
            estimator: "kv18",
            epsilon: 0.1,
            params: vec![],
        }],
    ));
    let Err(ClientError::Status { status, body }) = err else {
        panic!("expected bad_query, got {err:?}");
    };
    assert_eq!(status, 400);
    assert!(
        body.contains("sigma_min") || body.contains("missing required"),
        "{body}"
    );

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn append_invalidates_the_cached_snapshot_over_the_wire() {
    // Regression for the PreparedDataset cache: a cached quantile
    // query, then an append that shifts the distribution wholesale —
    // the next query (same seed) must see the new rows, not a stale
    // cached grid.
    let (addr, server) = start(Ledger::in_memory());
    let mut client = Connection::open(&addr).expect("connect");
    // 4k points near 50.
    client.register("acc", 1e6, &gaussian(4_000)).unwrap();

    let median = |client: &mut Connection, seed: u64| -> f64 {
        let body = client
            .query(&query_body(
                "acc",
                seed,
                true,
                &[("quantile", 0.5, Some(0.5))],
            ))
            .unwrap();
        let doc = JsonValue::parse(&body).unwrap();
        let results = doc
            .as_object("response")
            .unwrap()
            .get_array("results")
            .unwrap()
            .to_vec();
        results[0]
            .as_object("result")
            .unwrap()
            .get_array("values")
            .unwrap()[0]
            .as_f64("value")
            .unwrap()
    };

    let before = median(&mut client, 3);
    assert!((before - 50.0).abs() < 5.0, "pre-append median {before}");

    // Append 40k points near 5000: the true median moves to ~5000.
    let mut far = Vec::with_capacity(40_000);
    let mut rng = updp_core::rng::seeded(0xAFFE);
    let g = updp_dist::Gaussian::new(5_000.0, 5.0).expect("valid parameters");
    for _ in 0..40_000 {
        far.push(g.sample(&mut rng));
    }
    let body = JsonValue::object(vec![
        ("name", "acc".into()),
        ("data", JsonValue::numbers(&far)),
    ])
    .to_compact();
    client.request("POST", "/v1/append", &body).unwrap();

    let after = median(&mut client, 3);
    assert!(
        (after - 5_000.0).abs() < 100.0,
        "post-append median {after} ignored the appended rows"
    );

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn buffered_appends_plus_flush_bitwise_equal_one_bulk_append() {
    // DESIGN.md §8's determinism obligation over the wire: a burst of
    // buffered 1-row appends followed by a flush must publish the SAME
    // snapshot version with the SAME bits as one bulk append of the
    // identical rows — the client cannot tell how the rows arrived.
    let policy = FlushPolicy::buffered(usize::MAX, std::time::Duration::from_secs(86_400));
    let buffered = Server::bind_with_config(
        "127.0.0.1:0",
        Ledger::in_memory(),
        policy,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr_a = buffered.local_addr().expect("local addr").to_string();
    let server_a = std::thread::spawn(move || buffered.run());
    let (addr_b, server_b) = start(Ledger::in_memory());

    let base = gaussian(2_000);
    let extra = {
        let mut rng = updp_core::rng::seeded(0xDE17A);
        let g = updp_dist::Gaussian::new(80.0, 3.0).expect("valid parameters");
        g.sample_vec(&mut rng, 10)
    };
    let batch = query_body(
        "s",
        7,
        false,
        &[("mean", 0.2, None), ("quantile", 0.2, Some(0.9))],
    );

    // Server A: buffered 1-row appends, then one flush.
    let mut a = Connection::open(&addr_a).expect("connect A");
    a.register("s", 1e6, &base).unwrap();
    // Warm the snapshot caches so the flush exercises merge-carry.
    a.query(&batch).unwrap();
    for (i, &row) in extra.iter().enumerate() {
        let body = a.append("s", &[row]).unwrap();
        let doc = JsonValue::parse(&body).unwrap();
        let obj = doc.as_object("append response").unwrap();
        assert!(!obj.get_bool("flushed").unwrap(), "{body}");
        assert_eq!(obj.get_usize("pending").unwrap(), i + 1, "{body}");
        assert_eq!(obj.get_usize("records").unwrap(), 2_000, "{body}");
        assert_eq!(obj.get_f64("version").unwrap(), 0.0, "{body}");
    }
    // Pending rows are visible in the listing, not to queries.
    let listing = a.request("GET", "/v1/datasets", "").unwrap();
    assert!(listing.contains("\"pending\":10"), "{listing}");
    let body = a.flush("s").unwrap();
    let doc = JsonValue::parse(&body).unwrap();
    let obj = doc.as_object("flush response").unwrap();
    assert_eq!(obj.get_usize("flushed_rows").unwrap(), 10, "{body}");
    assert_eq!(obj.get_usize("records").unwrap(), 2_010, "{body}");
    assert_eq!(
        obj.get_f64("version").unwrap(),
        1.0,
        "a 10-append burst must cost ONE snapshot: {body}"
    );
    let released_a = results_of(&a.query(&batch).unwrap());

    // Server B: the same rows as one bulk append (also version 1).
    let mut b = Connection::open(&addr_b).expect("connect B");
    b.register("s", 1e6, &base).unwrap();
    b.query(&batch).unwrap();
    let body = b.append("s", &extra).unwrap();
    assert!(body.contains("\"version\":1"), "{body}");
    assert!(body.contains("\"flushed\":true"), "{body}");
    let released_b = results_of(&b.query(&batch).unwrap());

    assert_eq!(
        released_a, released_b,
        "buffered-then-flushed releases diverged from bulk-append releases"
    );

    a.shutdown().unwrap();
    server_a.join().unwrap().unwrap();
    b.shutdown().unwrap();
    server_b.join().unwrap().unwrap();
}

#[test]
fn shutdown_completes_despite_an_idle_keep_alive_connection() {
    // An idle client must not pin the server process alive after
    // shutdown: the per-connection read timeout polls the shutdown
    // flag. If that mechanism breaks, this test hangs (and the
    // harness timeout flags it) instead of passing slowly.
    let (addr, server) = start(Ledger::in_memory());
    let _idler = Connection::open(&addr).expect("idle connection");
    let mut client = Connection::open(&addr).expect("connect");
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_share_one_budget_safely() {
    // 8 client threads race 40 queries of ε = 0.05 against a budget
    // of 1.0: exactly 20 can be granted. The refusal *count* is
    // deterministic even though which thread wins each grant is not.
    let (addr, server) = start(Ledger::in_memory());
    let mut setup = Connection::open(&addr).expect("connect");
    setup.register("hot", 1.0, &gaussian(2_000)).unwrap();

    let granted: usize = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                scope.spawn(move || {
                    let mut client = Connection::open(addr).expect("connect");
                    (0..5)
                        .filter(|i| {
                            client
                                .query(&query_body(
                                    "hot",
                                    (worker * 5 + i) as u64,
                                    true,
                                    &[("mean", 0.05, None)],
                                ))
                                .is_ok()
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(granted, 20, "grant count must be deterministic");

    setup.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
