//! Metric families and the registry that renders them.
//!
//! A [`Family`] is a named metric with a fixed set of label keys and a
//! lazily-created child per label-value combination. The [`Registry`]
//! owns every family and renders the whole set as Prometheus text
//! exposition format or JSON (via `updp_core::json`). Rendering is
//! deterministic: families appear in registration order, children in
//! sorted label order (`BTreeMap`), and histogram edges are the fixed
//! power-of-two boundaries of [`crate::Histogram`].

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use updp_core::json::JsonValue;

use crate::metrics::{upper_edge_micros, Counter, FloatCounter, Gauge, Histogram, BUCKETS};

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

/// A named metric with labelled children, created on first use.
///
/// Children live behind an `RwLock<BTreeMap>`: reads (the hot
/// recording path re-resolving a child, and scrapes) take the shared
/// lock; only the first observation for a new label set takes the
/// exclusive lock.
pub struct Family<M> {
    label_keys: &'static [&'static str],
    children: RwLock<BTreeMap<Vec<String>, Arc<M>>>,
}

impl<M: Default> Family<M> {
    fn new(label_keys: &'static [&'static str]) -> Family<M> {
        Family {
            label_keys,
            children: RwLock::new(BTreeMap::new()),
        }
    }

    /// The child for `labels` (one value per label key, in key order),
    /// created on first use.
    ///
    /// Lock poisoning is unwrapped into the inner guard: the map's
    /// own invariants survive a panicking holder (only `Vec<String>`
    /// keys, whose `Ord` cannot panic, and `Arc` clones live inside),
    /// and observability must keep working after an isolated handler
    /// panic elsewhere in the process.
    pub fn with_labels(&self, labels: &[&str]) -> Arc<M> {
        debug_assert_eq!(labels.len(), self.label_keys.len());
        let key: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
        if let Some(child) = self
            .children
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return Arc::clone(child);
        }
        let mut children = self.children.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(children.entry(key).or_default())
    }

    /// Sorted `(label values, child)` pairs for rendering.
    fn collect(&self) -> Vec<(Vec<String>, Arc<M>)> {
        self.children
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

enum Handle {
    Counters(Arc<Family<Counter>>),
    Floats(Arc<Family<FloatCounter>>),
    Gauges(Arc<Family<Gauge>>),
    Histograms(Arc<Family<Histogram>>),
}

struct FamilyMeta {
    name: &'static str,
    help: &'static str,
    label_keys: &'static [&'static str],
    handle: Handle,
}

/// A set of metric families rendered together.
///
/// Families are registered once at startup (the registry hands back
/// `Arc<Family<_>>` handles the instrumented code keeps); scrapes can
/// additionally pass [`ScrapedFamily`] rows for values that live
/// outside the registry (e.g. the privacy ledger's ε accounts, read
/// from their single source of truth at scrape time).
#[derive(Default)]
pub struct Registry {
    families: Vec<FamilyMeta>,
}

/// A family materialized at scrape time from external state rather
/// than stored in the registry.
pub struct ScrapedFamily {
    /// Metric name (`snake_case`, `_total` suffix for counters).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Counter or gauge (scraped histograms are not supported).
    pub kind: Kind,
    /// Label keys, matching every sample's label values.
    pub label_keys: Vec<String>,
    /// `(label values, value)` rows; rendered in the given order.
    pub samples: Vec<(Vec<String>, f64)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a counter family and returns its handle.
    pub fn counters(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_keys: &'static [&'static str],
    ) -> Arc<Family<Counter>> {
        let family = Arc::new(Family::new(label_keys));
        self.families.push(FamilyMeta {
            name,
            help,
            label_keys,
            handle: Handle::Counters(Arc::clone(&family)),
        });
        family
    }

    /// Registers a float-valued counter family (rendered as a counter).
    pub fn float_counters(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_keys: &'static [&'static str],
    ) -> Arc<Family<FloatCounter>> {
        let family = Arc::new(Family::new(label_keys));
        self.families.push(FamilyMeta {
            name,
            help,
            label_keys,
            handle: Handle::Floats(Arc::clone(&family)),
        });
        family
    }

    /// Registers a gauge family and returns its handle.
    pub fn gauges(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_keys: &'static [&'static str],
    ) -> Arc<Family<Gauge>> {
        let family = Arc::new(Family::new(label_keys));
        self.families.push(FamilyMeta {
            name,
            help,
            label_keys,
            handle: Handle::Gauges(Arc::clone(&family)),
        });
        family
    }

    /// Registers a histogram family and returns its handle.
    pub fn histograms(
        &mut self,
        name: &'static str,
        help: &'static str,
        label_keys: &'static [&'static str],
    ) -> Arc<Family<Histogram>> {
        let family = Arc::new(Family::new(label_keys));
        self.families.push(FamilyMeta {
            name,
            help,
            label_keys,
            handle: Handle::Histograms(Arc::clone(&family)),
        });
        family
    }

    /// Renders Prometheus text exposition format (version 0.0.4),
    /// followed by the scrape-time `extra` families.
    pub fn render_prometheus(&self, extra: &[ScrapedFamily]) -> String {
        let mut out = String::new();
        for meta in &self.families {
            let kind = match meta.handle {
                Handle::Counters(_) | Handle::Floats(_) => Kind::Counter,
                Handle::Gauges(_) => Kind::Gauge,
                Handle::Histograms(_) => Kind::Histogram,
            };
            header(&mut out, meta.name, meta.help, kind);
            match &meta.handle {
                Handle::Counters(family) => {
                    for (labels, child) in family.collect() {
                        sample(
                            &mut out,
                            meta.name,
                            meta.label_keys,
                            &labels,
                            &[],
                            child.get() as f64,
                        );
                    }
                }
                Handle::Floats(family) => {
                    for (labels, child) in family.collect() {
                        sample(
                            &mut out,
                            meta.name,
                            meta.label_keys,
                            &labels,
                            &[],
                            child.get(),
                        );
                    }
                }
                Handle::Gauges(family) => {
                    for (labels, child) in family.collect() {
                        sample(
                            &mut out,
                            meta.name,
                            meta.label_keys,
                            &labels,
                            &[],
                            child.get() as f64,
                        );
                    }
                }
                Handle::Histograms(family) => {
                    for (labels, child) in family.collect() {
                        let snap = child.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &count) in snap.counts.iter().enumerate() {
                            cumulative += count;
                            let le = match upper_edge_micros(i) {
                                Some(edge) => seconds_text(edge),
                                None => "+Inf".to_string(),
                            };
                            sample(
                                &mut out,
                                &format!("{}_bucket", meta.name),
                                meta.label_keys,
                                &labels,
                                &[("le", &le)],
                                cumulative as f64,
                            );
                        }
                        sample(
                            &mut out,
                            &format!("{}_sum", meta.name),
                            meta.label_keys,
                            &labels,
                            &[],
                            snap.sum_micros as f64 / 1e6,
                        );
                        sample(
                            &mut out,
                            &format!("{}_count", meta.name),
                            meta.label_keys,
                            &labels,
                            &[],
                            snap.count() as f64,
                        );
                    }
                }
            }
        }
        for scraped in extra {
            header(&mut out, &scraped.name, &scraped.help, scraped.kind);
            let keys: Vec<&str> = scraped.label_keys.iter().map(String::as_str).collect();
            for (labels, value) in &scraped.samples {
                sample(&mut out, &scraped.name, &keys, labels, &[], *value);
            }
        }
        out
    }

    /// Renders the same state as JSON: a `families` array where each
    /// entry carries `name`, `kind`, `help`, `label_keys`, and
    /// `samples` (scalar `value` rows, or histogram rows with
    /// non-cumulative `buckets` + `sum_micros` so scrape deltas merge
    /// exactly).
    pub fn render_json(&self, extra: &[ScrapedFamily]) -> JsonValue {
        let mut families = Vec::new();
        for meta in &self.families {
            let (kind, samples) = match &meta.handle {
                Handle::Counters(family) => (
                    Kind::Counter,
                    family
                        .collect()
                        .into_iter()
                        .map(|(labels, child)| {
                            scalar_json(meta.label_keys, &labels, child.get() as f64)
                        })
                        .collect(),
                ),
                Handle::Floats(family) => (
                    Kind::Counter,
                    family
                        .collect()
                        .into_iter()
                        .map(|(labels, child)| scalar_json(meta.label_keys, &labels, child.get()))
                        .collect(),
                ),
                Handle::Gauges(family) => (
                    Kind::Gauge,
                    family
                        .collect()
                        .into_iter()
                        .map(|(labels, child)| {
                            scalar_json(meta.label_keys, &labels, child.get() as f64)
                        })
                        .collect(),
                ),
                Handle::Histograms(family) => (
                    Kind::Histogram,
                    family
                        .collect()
                        .into_iter()
                        .map(|(labels, child)| {
                            let snap = child.snapshot();
                            let buckets: Vec<JsonValue> = (0..BUCKETS)
                                .map(|i| {
                                    JsonValue::object(vec![
                                        (
                                            "le_micros",
                                            match upper_edge_micros(i) {
                                                Some(edge) => JsonValue::Number(edge as f64),
                                                None => JsonValue::Null,
                                            },
                                        ),
                                        ("count", JsonValue::Number(snap.counts[i] as f64)),
                                    ])
                                })
                                .collect();
                            JsonValue::object(vec![
                                ("labels", labels_json(meta.label_keys, &labels)),
                                ("count", JsonValue::Number(snap.count() as f64)),
                                ("sum_micros", JsonValue::Number(snap.sum_micros as f64)),
                                ("buckets", JsonValue::Array(buckets)),
                            ])
                        })
                        .collect(),
                ),
            };
            families.push(family_json(
                meta.name,
                meta.help,
                kind,
                meta.label_keys,
                samples,
            ));
        }
        for scraped in extra {
            let keys: Vec<&str> = scraped.label_keys.iter().map(String::as_str).collect();
            let samples = scraped
                .samples
                .iter()
                .map(|(labels, value)| scalar_json(&keys, labels, *value))
                .collect();
            families.push(family_json(
                &scraped.name,
                &scraped.help,
                scraped.kind,
                &keys,
                samples,
            ));
        }
        JsonValue::object(vec![("families", JsonValue::Array(families))])
    }
}

fn family_json(
    name: &str,
    help: &str,
    kind: Kind,
    label_keys: &[&str],
    samples: Vec<JsonValue>,
) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::from(name)),
        ("kind", JsonValue::from(kind.exposition())),
        ("help", JsonValue::from(help)),
        (
            "label_keys",
            JsonValue::Array(label_keys.iter().map(|&k| JsonValue::from(k)).collect()),
        ),
        ("samples", JsonValue::Array(samples)),
    ])
}

fn scalar_json(label_keys: &[&str], labels: &[String], value: f64) -> JsonValue {
    JsonValue::object(vec![
        ("labels", labels_json(label_keys, labels)),
        ("value", JsonValue::Number(value)),
    ])
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

/// One exposition line: `name{labels} value`. Extra fixed labels
/// (e.g. `le`) render after the family's own.
fn sample(
    out: &mut String,
    name: &str,
    label_keys: &[&str],
    labels: &[String],
    extra: &[(&str, &str)],
    value: f64,
) {
    out.push_str(name);
    if !label_keys.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (key, val) in label_keys.iter().zip(labels) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            out.push_str("=\"");
            out.push_str(&escape_label(val));
            out.push('"');
        }
        for (key, val) in extra {
            if !first {
                out.push(',');
            }
            first = false;
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

    #[test]
    fn children_are_created_once_and_sorted() {
        let mut registry = Registry::new();
        let family = registry.counters("t_total", "t", &["k"]);
        family.with_labels(&["b"]).add(2);
        family.with_labels(&["a"]).inc();
        family.with_labels(&["b"]).inc();
        let rows = family.collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, vec!["a".to_string()]);
        assert_eq!(rows[1].0, vec!["b".to_string()]);
        assert_eq!(rows[1].1.get(), 3);
    }
}
