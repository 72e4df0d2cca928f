//! Metric families as point-in-time [`FamilySnapshot`]s, and the two
//! renderers that read them.
//!
//! The owner of a metric builds its family at scrape time from the
//! values it holds; [`render_prometheus`] (text exposition format) and
//! [`render_json`] (via `updp_core::json`) read nothing else.
//! Rendering is deterministic: families appear in the order given,
//! samples in the order given, and histogram edges are the fixed
//! power-of-two boundaries of [`crate::Histogram`].

use updp_core::json::JsonValue;

use crate::metrics::{upper_edge_micros, HistogramSnapshot};

/// What a family measures, for exposition `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Bucketed latency distribution.
    Histogram,
}

impl Kind {
    fn exposition(&self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One sample's value: a scalar, or a histogram's buckets and sum.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A counter or gauge reading.
    Value(f64),
    /// A histogram's state (boxed: it is 33 words).
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time copy of one family: what both renderers read.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name (`snake_case`, `_total` suffix for counters).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// What the family measures.
    pub kind: Kind,
    /// Label keys, matching every sample's label values.
    pub label_keys: &'static [&'static str],
    /// `(label values, sample)` rows, rendered in the given order.
    pub samples: Vec<(Vec<String>, Sample)>,
}

impl FamilySnapshot {
    /// A family whose samples are sorted by their label values, the
    /// order both renderers then show them in.
    pub fn new(
        name: &'static str,
        help: &'static str,
        kind: Kind,
        label_keys: &'static [&'static str],
        mut samples: Vec<(Vec<String>, Sample)>,
    ) -> FamilySnapshot {
        samples.sort_by(|a, b| a.0.cmp(&b.0));
        FamilySnapshot {
            name,
            help,
            kind,
            label_keys,
            samples,
        }
    }
}

/// Renders Prometheus text exposition format (version 0.0.4).
pub fn render_prometheus(families: &[FamilySnapshot]) -> String {
    let mut out = String::new();
    for family in families {
        header(&mut out, family.name, family.help, family.kind);
        let keys = family.label_keys;
        for (labels, sample) in &family.samples {
            match sample {
                Sample::Value(value) => line(&mut out, family.name, keys, labels, None, *value),
                Sample::Histogram(snap) => {
                    let bucket = format!("{}_bucket", family.name);
                    let mut cumulative = 0u64;
                    for (i, &count) in snap.counts.iter().enumerate() {
                        cumulative += count;
                        let le = match upper_edge_micros(i) {
                            Some(edge) => seconds_text(edge),
                            None => "+Inf".to_string(),
                        };
                        line(
                            &mut out,
                            &bucket,
                            keys,
                            labels,
                            Some(&le),
                            cumulative as f64,
                        );
                    }
                    let sum = format!("{}_sum", family.name);
                    line(
                        &mut out,
                        &sum,
                        keys,
                        labels,
                        None,
                        snap.sum_micros as f64 / 1e6,
                    );
                    let count = format!("{}_count", family.name);
                    line(&mut out, &count, keys, labels, None, snap.count() as f64);
                }
            }
        }
    }
    out
}

/// Renders the same families as JSON: a `families` array where each
/// entry carries `name`, `kind`, `help`, `label_keys`, and `samples`
/// (scalar `value` rows, or histogram rows with non-cumulative
/// `buckets` + `sum_micros` so scrape deltas merge exactly).
pub fn render_json(families: &[FamilySnapshot]) -> JsonValue {
    let families = families
        .iter()
        .map(|family| {
            let samples = family
                .samples
                .iter()
                .map(|(labels, sample)| {
                    let labels = labels_json(family.label_keys, labels);
                    match sample {
                        Sample::Value(value) => JsonValue::object(vec![
                            ("labels", labels),
                            ("value", JsonValue::Number(*value)),
                        ]),
                        Sample::Histogram(snap) => JsonValue::object(vec![
                            ("labels", labels),
                            ("count", JsonValue::Number(snap.count() as f64)),
                            ("sum_micros", JsonValue::Number(snap.sum_micros as f64)),
                            ("buckets", buckets_json(snap)),
                        ]),
                    }
                })
                .collect();
            JsonValue::object(vec![
                ("name", JsonValue::from(family.name)),
                ("kind", JsonValue::from(family.kind.exposition())),
                ("help", JsonValue::from(family.help)),
                (
                    "label_keys",
                    JsonValue::Array(family.label_keys.iter().map(|&k| k.into()).collect()),
                ),
                ("samples", JsonValue::Array(samples)),
            ])
        })
        .collect();
    JsonValue::object(vec![("families", JsonValue::Array(families))])
}

/// Per-bucket (non-cumulative) counts with their upper edges; the
/// `+Inf` bucket's edge is `null`.
fn buckets_json(snap: &HistogramSnapshot) -> JsonValue {
    JsonValue::Array(
        snap.counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let le = upper_edge_micros(i)
                    .map_or(JsonValue::Null, |edge| JsonValue::Number(edge as f64));
                JsonValue::object(vec![
                    ("le_micros", le),
                    ("count", JsonValue::Number(count as f64)),
                ])
            })
            .collect(),
    )
}

fn labels_json(label_keys: &[&str], labels: &[String]) -> JsonValue {
    JsonValue::Object(
        label_keys
            .iter()
            .zip(labels)
            .map(|(&k, v)| (k.to_string(), JsonValue::from(v.as_str())))
            .collect(),
    )
}

fn header(out: &mut String, name: &str, help: &str, kind: Kind) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind.exposition());
    out.push('\n');
}

/// One exposition line: `name{labels} value`. A histogram bucket's
/// `le` label renders after the family's own.
fn line(
    out: &mut String,
    name: &str,
    label_keys: &[&str],
    labels: &[String],
    le: Option<&str>,
    value: f64,
) {
    out.push_str(name);
    if !label_keys.is_empty() || le.is_some() {
        out.push('{');
        let pairs = label_keys
            .iter()
            .copied()
            .zip(labels.iter().map(String::as_str))
            .chain(le.map(|le| ("le", le)));
        for (i, (key, val)) in pairs.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(key);
            out.push_str("=\"");
            out.push_str(&escape_label(val));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_value(value));
    out.push('\n');
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// A power-of-two microsecond edge in seconds, as exact decimal text.
fn seconds_text(micros: u64) -> String {
    // micros / 1e6 with exact decimal expansion: power-of-two
    // microsecond counts divided by 10^6 always terminate.
    let whole = micros / 1_000_000;
    let frac = micros % 1_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let text = format!("{frac:06}");
        format!("{whole}.{}", text.trim_end_matches('0'))
    }
}

fn format_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value.is_nan() {
        "NaN".to_string()
    } else if value > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_text_is_exact() {
        assert_eq!(seconds_text(1), "0.000001");
        assert_eq!(seconds_text(1024), "0.001024");
        assert_eq!(seconds_text(1_000_000), "1");
        assert_eq!(seconds_text(1 << 20), "1.048576");
        assert_eq!(seconds_text(1 << 30), "1073.741824");
    }

    #[test]
    fn labels_escape_quotes_and_backslashes() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
