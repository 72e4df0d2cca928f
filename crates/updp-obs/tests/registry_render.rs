//! Golden tests for the two renderers over hand-built family
//! snapshots, and a JSON round-trip check. The golden text is the
//! determinism pin: equal snapshots render byte-identically, families
//! and samples in the order given.

use updp_core::json::JsonValue;
use updp_obs::{render_json, render_prometheus, FamilySnapshot, Histogram, Kind, Sample};

fn family(
    name: &'static str,
    help: &'static str,
    kind: Kind,
    label_keys: &'static [&'static str],
    samples: Vec<(&[&str], Sample)>,
) -> FamilySnapshot {
    FamilySnapshot {
        name,
        help,
        kind,
        label_keys,
        samples: samples
            .into_iter()
            .map(|(labels, sample)| (labels.iter().map(|l| l.to_string()).collect(), sample))
            .collect(),
    }
}

/// A histogram sample holding `observations` (microseconds).
fn histogram(observations: &[u64]) -> Sample {
    let h = Histogram::new();
    for &micros in observations {
        h.observe_micros(micros);
    }
    Sample::Histogram(Box::new(h.snapshot()))
}

#[test]
fn prometheus_text_golden() {
    let families = vec![
        family(
            "updp_http_requests_total",
            "Requests dispatched, by endpoint.",
            Kind::Counter,
            &["endpoint"],
            vec![
                (&["/v1/healthz"], Sample::Value(1.0)),
                (&["/v1/query"], Sample::Value(3.0)),
            ],
        ),
        family(
            "updp_reactor_connections_active",
            "Open connections.",
            Kind::Gauge,
            &[],
            vec![(&[], Sample::Value(2.0))],
        ),
        family(
            "updp_engine_epsilon_charged_total",
            "Total epsilon charged.",
            Kind::Counter,
            &["estimator"],
            vec![(&["mean"], Sample::Value(0.25))],
        ),
        family(
            "updp_http_handle_seconds",
            "Handler wall time.",
            Kind::Histogram,
            &["endpoint"],
            // Buckets 0 (le = 1 µs), 2 (le = 4 µs) and 22 (le ≈ 4.19 s).
            vec![(&["/v1/query"], histogram(&[1, 3, 3_000_000]))],
        ),
        family(
            "updp_ledger_epsilon_remaining",
            "Remaining budget.",
            Kind::Gauge,
            &["dataset"],
            vec![(&["salaries"], Sample::Value(1.5))],
        ),
    ];
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
    assert_eq!(render_prometheus(&families), expected);
}

/// The JSON twin of `prometheus_text_golden`: one family of each
/// kind, a negative gauge, and a family whose label needs escaping and
/// whose sample is not finite (JSON writes `null`).
#[test]
fn json_render_golden() {
    let families = vec![
        family(
            "r_total",
            "Requests.",
            Kind::Counter,
            &["endpoint"],
            vec![
                (&["/v1/healthz"], Sample::Value(1.0)),
                (&["/v1/query"], Sample::Value(3.0)),
            ],
        ),
        family(
            "e_total",
            "Epsilon.",
            Kind::Counter,
            &["estimator"],
            vec![(&["mean"], Sample::Value(0.25))],
        ),
        family(
            "a",
            "Active.",
            Kind::Gauge,
            &[],
            vec![(&[], Sample::Value(-2.0))],
        ),
        family(
            "h_seconds",
            "Latency.",
            Kind::Histogram,
            &["endpoint"],
            // Buckets 2 (le = 4 µs) and 10 (le = 1024 µs).
            vec![(&["/v1/query"], histogram(&[3, 600]))],
        ),
        family(
            "s",
            "Scraped \"now\".",
            Kind::Gauge,
            &["dataset"],
            vec![
                (&["a\"b\\c"], Sample::Value(f64::INFINITY)),
                (&["plain"], Sample::Value(1.5)),
            ],
        ),
    ];
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
    let families = vec![
        family(
            "r_total",
            "requests",
            Kind::Counter,
            &["endpoint"],
            vec![(&["/v1/query"], Sample::Value(7.0))],
        ),
        family(
            "h_seconds",
            "latency",
            Kind::Histogram,
            &[],
            vec![(&[], histogram(&[500]))],
        ),
    ];

    let json = render_json(&families);
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
