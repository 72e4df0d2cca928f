//! Golden test for the Prometheus text exposition renderer, a
//! JSON-render consistency check, and the concurrent-counter hammer.
//! The golden text is the determinism pin: equal metric state must
//! render byte-identically, families in registration order, children
//! in sorted label order.

use updp_core::json::JsonValue;
use updp_obs::{
    render_json, render_prometheus, Counter, FamilySnapshot, FloatCounter, Gauge, Histogram, Kind,
    Registry, Sample,
};

#[test]
fn prometheus_text_golden() {
    let mut registry = Registry::new();
    let requests = registry.register::<Counter>(
        "updp_http_requests_total",
        "Requests dispatched, by endpoint.",
        &["endpoint"],
    );
    let active =
        registry.register::<Gauge>("updp_reactor_connections_active", "Open connections.", &[]);
    let epsilon = registry.register::<FloatCounter>(
        "updp_engine_epsilon_charged_total",
        "Total epsilon charged.",
        &["estimator"],
    );
    let latency = registry.register::<Histogram>(
        "updp_http_handle_seconds",
        "Handler wall time.",
        &["endpoint"],
    );

    requests.with_labels(&["/v1/query"]).add(3);
    requests.with_labels(&["/v1/healthz"]).inc();
    active.with_labels(&[]).set(2);
    epsilon.with_labels(&["mean"]).add(0.25);
    let h = latency.with_labels(&["/v1/query"]);
    h.observe_micros(1); // bucket 0 (le = 1 µs)
    h.observe_micros(3); // bucket 2 (le = 4 µs)
    h.observe_micros(3_000_000); // bucket 22 (le ≈ 4.19 s)

    let scraped = FamilySnapshot {
        name: "updp_ledger_epsilon_remaining",
        help: "Remaining budget.",
        kind: Kind::Gauge,
        label_keys: &["dataset"],
        samples: vec![(vec!["salaries".into()], Sample::Value(1.5))],
    };
    let mut families = registry.snapshot();
    families.push(scraped.clone());
    let text = render_prometheus(&families);

    let mut expected = String::new();
    expected.push_str(concat!(
        "# HELP updp_http_requests_total Requests dispatched, by endpoint.\n",
        "# TYPE updp_http_requests_total counter\n",
        "updp_http_requests_total{endpoint=\"/v1/healthz\"} 1\n",
        "updp_http_requests_total{endpoint=\"/v1/query\"} 3\n",
        "# HELP updp_reactor_connections_active Open connections.\n",
        "# TYPE updp_reactor_connections_active gauge\n",
        "updp_reactor_connections_active 2\n",
        "# HELP updp_engine_epsilon_charged_total Total epsilon charged.\n",
        "# TYPE updp_engine_epsilon_charged_total counter\n",
        "updp_engine_epsilon_charged_total{estimator=\"mean\"} 0.25\n",
        "# HELP updp_http_handle_seconds Handler wall time.\n",
        "# TYPE updp_http_handle_seconds histogram\n",
    ));
    // 32 cumulative buckets: count 1 from bucket 0, 2 from bucket 2,
    // 3 from bucket 22 (3 s lands in (2.097152, 4.194304]).
    let edges_micros: Vec<Option<u64>> = (0..32)
        .map(|i| if i < 31 { Some(1u64 << i) } else { None })
        .collect();
    for (i, edge) in edges_micros.iter().enumerate() {
        let cumulative = if i < 2 {
            1
        } else if i < 22 {
            2
        } else {
            3
        };
        let le = match edge {
            Some(us) => {
                let whole = us / 1_000_000;
                let frac = us % 1_000_000;
                if frac == 0 {
                    format!("{whole}")
                } else {
                    format!("{whole}.{}", format!("{frac:06}").trim_end_matches('0'))
                }
            }
            None => "+Inf".into(),
        };
        expected.push_str(&format!(
            "updp_http_handle_seconds_bucket{{endpoint=\"/v1/query\",le=\"{le}\"}} {cumulative}\n"
        ));
    }
    expected.push_str(concat!(
        "updp_http_handle_seconds_sum{endpoint=\"/v1/query\"} 3.000004\n",
        "updp_http_handle_seconds_count{endpoint=\"/v1/query\"} 3\n",
        "# HELP updp_ledger_epsilon_remaining Remaining budget.\n",
        "# TYPE updp_ledger_epsilon_remaining gauge\n",
        "updp_ledger_epsilon_remaining{dataset=\"salaries\"} 1.5\n",
    ));
    assert_eq!(text, expected);

    // Equal state renders byte-identically — the scrape-stability pin.
    let mut families_again = registry.snapshot();
    families_again.push(scraped);
    assert_eq!(render_prometheus(&families_again), expected);
}

/// The JSON twin of `prometheus_text_golden`: one family of each
/// registered kind plus a scrape-time family whose label needs
/// escaping and whose sample is not finite (JSON writes `null`).
#[test]
fn json_render_golden() {
    let mut registry = Registry::new();
    let requests = registry.register::<Counter>("r_total", "Requests.", &["endpoint"]);
    let epsilon = registry.register::<FloatCounter>("e_total", "Epsilon.", &["estimator"]);
    let active = registry.register::<Gauge>("a", "Active.", &[]);
    let latency = registry.register::<Histogram>("h_seconds", "Latency.", &["endpoint"]);

    requests.with_labels(&["/v1/query"]).add(3);
    requests.with_labels(&["/v1/healthz"]).inc();
    epsilon.with_labels(&["mean"]).add(0.25);
    active.with_labels(&[]).set(-2);
    let h = latency.with_labels(&["/v1/query"]);
    h.observe_micros(3); // bucket 2 (le = 4 µs)
    h.observe_micros(600); // bucket 10 (le = 1024 µs)

    let scraped = FamilySnapshot {
        name: "s",
        help: "Scraped \"now\".",
        kind: Kind::Gauge,
        label_keys: &["dataset"],
        samples: vec![
            (vec!["a\"b\\c".into()], Sample::Value(f64::INFINITY)),
            (vec!["plain".into()], Sample::Value(1.5)),
        ],
    };
    let mut families = registry.snapshot();
    families.push(scraped);
    let json = render_json(&families).to_compact();

    let buckets: Vec<String> = (0..32)
        .map(|i| {
            let le = if i < 31 {
                (1u64 << i).to_string()
            } else {
                "null".into()
            };
            let count = u32::from(i == 2 || i == 10);
            format!("{{\"le_micros\":{le},\"count\":{count}}}")
        })
        .collect();
    let expected = [
        "{\"families\":[",
        "{\"name\":\"r_total\",\"kind\":\"counter\",\"help\":\"Requests.\",",
        "\"label_keys\":[\"endpoint\"],\"samples\":[",
        "{\"labels\":{\"endpoint\":\"/v1/healthz\"},\"value\":1},",
        "{\"labels\":{\"endpoint\":\"/v1/query\"},\"value\":3}]},",
        "{\"name\":\"e_total\",\"kind\":\"counter\",\"help\":\"Epsilon.\",",
        "\"label_keys\":[\"estimator\"],\"samples\":[",
        "{\"labels\":{\"estimator\":\"mean\"},\"value\":0.25}]},",
        "{\"name\":\"a\",\"kind\":\"gauge\",\"help\":\"Active.\",",
        "\"label_keys\":[],\"samples\":[{\"labels\":{},\"value\":-2}]},",
        "{\"name\":\"h_seconds\",\"kind\":\"histogram\",\"help\":\"Latency.\",",
        "\"label_keys\":[\"endpoint\"],\"samples\":[",
        "{\"labels\":{\"endpoint\":\"/v1/query\"},\"count\":2,\"sum_micros\":603,",
        &format!("\"buckets\":[{}]}}]}},", buckets.join(",")),
        "{\"name\":\"s\",\"kind\":\"gauge\",\"help\":\"Scraped \\\"now\\\".\",",
        "\"label_keys\":[\"dataset\"],\"samples\":[",
        "{\"labels\":{\"dataset\":\"a\\\"b\\\\c\"},\"value\":null},",
        "{\"labels\":{\"dataset\":\"plain\"},\"value\":1.5}]}",
        "]}",
    ]
    .concat();
    assert_eq!(json, expected);
}

#[test]
fn json_render_round_trips_and_matches_text_counts() {
    let mut registry = Registry::new();
    let requests = registry.register::<Counter>("r_total", "requests", &["endpoint"]);
    requests.with_labels(&["/v1/query"]).add(7);
    let latency = registry.register::<Histogram>("h_seconds", "latency", &[]);
    latency.with_labels(&[]).observe_micros(500);

    let json = render_json(&registry.snapshot());
    let parsed = JsonValue::parse(&json.to_compact()).expect("self-produced JSON parses");
    let families = parsed
        .as_object("metrics")
        .unwrap()
        .get_array("families")
        .unwrap();
    assert_eq!(families.len(), 2);

    let counter = families[0].as_object("family").unwrap();
    assert_eq!(counter.get_str("name").unwrap(), "r_total");
    assert_eq!(counter.get_str("kind").unwrap(), "counter");
    let samples = counter.get_array("samples").unwrap();
    let sample = samples[0].as_object("sample").unwrap();
    assert_eq!(sample.get_f64("value").unwrap() as u64, 7);

    let histogram = families[1].as_object("family").unwrap();
    let samples = histogram.get_array("samples").unwrap();
    let sample = samples[0].as_object("sample").unwrap();
    assert_eq!(sample.get_usize("count").unwrap(), 1);
    assert_eq!(sample.get_usize("sum_micros").unwrap(), 500);
    let buckets = sample.get_array("buckets").unwrap();
    assert_eq!(buckets.len(), 32);
    // 500 µs lands in the bucket with upper edge 512 µs (index 9).
    let hit = buckets[9].as_object("bucket").unwrap();
    assert_eq!(hit.get_usize("le_micros").unwrap(), 512);
    assert_eq!(hit.get_usize("count").unwrap(), 1);
    // The +Inf bucket carries a null edge.
    assert!(buckets[31]
        .as_object("bucket")
        .unwrap()
        .opt("le_micros")
        .is_none());
}

/// The counter hammer: heavy concurrent increments from many threads
/// with interleaved reads lose no update.
#[test]
fn concurrent_counter_hammer_is_exact() {
    let mut registry = Registry::new();
    let family = registry.register::<Counter>("hammer_total", "hammer", &["worker_kind"]);
    const THREADS: usize = 16;
    const PER_THREAD: u64 = 50_000;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let family = &family;
            scope.spawn(move || {
                // Half the threads hit one child, half the other, and
                // every thread re-resolves its child mid-run to
                // exercise the get-or-create read path under load.
                let label = if t % 2 == 0 { "even" } else { "odd" };
                let child = family.with_labels(&[label]);
                for i in 0..PER_THREAD {
                    if i == PER_THREAD / 2 {
                        let again = family.with_labels(&[label]);
                        again.inc();
                    } else {
                        child.inc();
                    }
                }
            });
        }
        // Concurrent reads must not disturb the totals.
        scope.spawn(|| {
            for _ in 0..1_000 {
                let _ = family.with_labels(&["even"]).get();
            }
        });
    });

    let expected = (THREADS as u64 / 2) * PER_THREAD;
    assert_eq!(family.with_labels(&["even"]).get(), expected);
    assert_eq!(family.with_labels(&["odd"]).get(), expected);
}
