//! The JSON wire format (requests in, responses out).
//!
//! Documented as a contract in DESIGN.md §6 and exercised end-to-end
//! by the CI smoke step. Everything flows through the shared
//! [`updp_core::json`] codec; responses are compact JSON (one line).
//!
//! A query names its estimator either as `"estimator"` (any name in
//! the server's catalog — universal or baseline) or via the historical
//! alias `"kind"`; estimator-specific parameters ride in a `"params"`
//! object of numbers, with the historical top-level `"q"` still
//! accepted for quantiles:
//!
//! ```json
//! {"kind": "quantile", "q": 0.9, "epsilon": 0.2}
//! {"estimator": "kv18", "epsilon": 0.2,
//!  "params": {"r": 1000, "sigma_min": 0.1, "sigma_max": 100}}
//! ```

use crate::engine::{QueryOutcome, QuerySpec, DEFAULT_BOUND};
use crate::ledger::Account;
use updp_core::json::JsonValue;

/// A parse failure, reported to the client as a `bad_request` error.
#[derive(Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl From<String> for WireError {
    fn from(s: String) -> Self {
        WireError(s)
    }
}

/// Extracts column-major data from a payload: either `"data": [x, …]`
/// (a dimension-1 dataset) or `"columns": [[x, …], …]`.
fn parse_columns(obj: &updp_core::json::Object<'_>) -> Result<Vec<Vec<f64>>, WireError> {
    let numbers = |value: &JsonValue, what: &str| -> Result<Vec<f64>, String> {
        value
            .as_array(what)?
            .iter()
            .map(|x| x.as_f64(what))
            .collect()
    };
    match (obj.opt("data"), obj.opt("columns")) {
        (Some(data), None) => Ok(vec![numbers(data, "data")?]),
        (None, Some(columns)) => columns
            .as_array("columns")?
            .iter()
            .map(|c| numbers(c, "column").map_err(WireError))
            .collect(),
        (Some(_), Some(_)) => Err(WireError("give `data` or `columns`, not both".into())),
        (None, None) => Err(WireError("missing `data` (or `columns`)".into())),
    }
}

/// Parsed `POST /v1/register` body.
#[derive(Debug, PartialEq)]
pub struct RegisterRequest {
    /// Dataset name (= stable id).
    pub name: String,
    /// Total ε budget for the dataset's lifetime.
    pub budget: f64,
    /// Column-major data.
    pub columns: Vec<Vec<f64>>,
}

/// Parses a register body: `{"name", "budget", "data"|"columns"}`.
pub fn parse_register(body: &str) -> Result<RegisterRequest, WireError> {
    let doc = JsonValue::parse(body)?;
    let obj = doc.as_object("register request")?;
    Ok(RegisterRequest {
        name: obj.get_str("name")?,
        budget: obj.get_f64("budget")?,
        columns: parse_columns(&obj)?,
    })
}

/// Parses an append body: `{"name", "data"|"columns"}`.
pub fn parse_append(body: &str) -> Result<(String, Vec<Vec<f64>>), WireError> {
    let doc = JsonValue::parse(body)?;
    let obj = doc.as_object("append request")?;
    Ok((obj.get_str("name")?, parse_columns(&obj)?))
}

/// Parses a drop body: `{"name"}`.
pub(crate) fn parse_drop(body: &str) -> Result<String, WireError> {
    let doc = JsonValue::parse(body)?;
    Ok(doc.as_object("drop request")?.get_str("name")?)
}

/// Parses a flush body: `{"name"}`.
pub fn parse_flush(body: &str) -> Result<String, WireError> {
    let doc = JsonValue::parse(body)?;
    Ok(doc.as_object("flush request")?.get_str("name")?)
}

/// Parsed `POST /v1/query` body.
#[derive(Debug, PartialEq)]
pub struct QueryRequest {
    /// Target dataset name.
    pub dataset: String,
    /// Request seed: the response is bit-reproducible given it.
    pub seed: u64,
    /// Clamp bound for the snapped releases.
    pub bound: f64,
    /// The batch, in order.
    pub specs: Vec<QuerySpec>,
}

fn parse_spec(q: &JsonValue) -> Result<QuerySpec, WireError> {
    let q = q.as_object("query")?;
    let estimator = match (q.opt("estimator"), q.opt("kind")) {
        (Some(name), None) | (None, Some(name)) => name.as_str("estimator")?.to_string(),
        (Some(_), Some(_)) => return Err(WireError("give `estimator` or `kind`, not both".into())),
        (None, None) => return Err(WireError("missing `estimator` (or `kind`)".into())),
    };
    let mut options: Vec<(String, f64)> = Vec::new();
    // Historical shape: a top-level `q` is the quantile level, and the
    // legacy parser read it only for `kind: "quantile"` — a stray `q`
    // on any other kind was ignored. Preserve both halves of that
    // contract; the general mechanism is the `params` object.
    if estimator == "quantile" {
        if let Some(qlevel) = q.opt("q") {
            options.push(("q".into(), qlevel.as_f64("q")?));
        }
    }
    if let Some(params) = q.opt("params") {
        match params {
            JsonValue::Object(fields) => {
                for (name, value) in fields {
                    let value = value.as_f64(name)?;
                    if options.iter().any(|(n, _)| n == name) {
                        return Err(WireError(format!("duplicate parameter `{name}`")));
                    }
                    options.push((name.clone(), value));
                }
            }
            _ => return Err(WireError("`params` must be an object of numbers".into())),
        }
    }
    Ok(QuerySpec {
        estimator,
        epsilon: q.get_f64("epsilon")?,
        options,
    })
}

/// The largest request seed, 2⁵³. JSON numbers are `f64`s: integers
/// above 2⁵³ would be silently rounded, breaking "bit-reproducible
/// from the request seed", so they are rejected instead of guessed.
pub const MAX_SEED: u64 = 1 << 53;

/// Parses a query body:
/// `{"dataset", "seed", "bound"?, "queries": [{"estimator"|"kind",
/// "epsilon", "q"?, "params"?}, …]}`. Every release is snapped, so a
/// `"raw"` field may only be `false`; `"raw": true` is a bad request.
pub fn parse_query(body: &str) -> Result<QueryRequest, WireError> {
    let doc = JsonValue::parse(body)?;
    let obj = doc.as_object("query request")?;
    let seed = obj.get_f64("seed")?;
    // `fract() == 0.0` is the exact integrality test for a wire seed; a
    // non-integer seed must be rejected, never rounded
    // (bit-reproducibility). `MAX_SEED` is exact as an f64.
    if !(seed >= 0.0 && seed.fract() == 0.0 && seed <= MAX_SEED as f64) {
        return Err(WireError(format!(
            "seed must be an integer in [0, 2^53], got {seed}"
        )));
    }
    match obj.opt("raw") {
        None | Some(JsonValue::Bool(false)) => {}
        Some(_) => {
            return Err(WireError(
                "`raw` must be false: every release is snapped".into(),
            ))
        }
    }
    let bound = match obj.opt("bound") {
        Some(v) => v.as_f64("bound")?,
        None => DEFAULT_BOUND,
    };
    let specs = obj
        .get_array("queries")?
        .iter()
        .map(parse_spec)
        .collect::<Result<Vec<_>, _>>()?;
    if specs.is_empty() {
        return Err(WireError("empty query batch".into()));
    }
    Ok(QueryRequest {
        dataset: obj.get_str("dataset")?,
        seed: seed as u64,
        bound,
        specs,
    })
}

/// `{"error": {"code", "message"}}`.
pub(crate) fn error_body(code: &str, message: &str) -> String {
    JsonValue::object(vec![(
        "error",
        JsonValue::object(vec![("code", code.into()), ("message", message.into())]),
    )])
    .to_compact()
}

/// Renders the `/v1/healthz` readiness body: liveness plus uptime,
/// worker count, active connections, and per-dataset pending
/// delta-log rows (DESIGN.md §8) so operators can see unflushed data.
pub(crate) fn healthz_body(
    uptime_ms: u64,
    workers: usize,
    active_connections: usize,
    pending: &[(String, usize)],
) -> String {
    let datasets = pending
        .iter()
        .map(|(name, rows)| {
            JsonValue::object(vec![
                ("name", name.as_str().into()),
                ("pending_rows", (*rows).into()),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("ok", true.into()),
        ("uptime_ms", (uptime_ms as f64).into()),
        ("workers", workers.into()),
        ("active_connections", active_connections.into()),
        ("datasets", JsonValue::Array(datasets)),
    ])
    .to_compact()
}

/// Renders the `/v1/trace` body: the flight recorder's buffered
/// request events, oldest first.
pub(crate) fn trace_body(events: &[updp_obs::TraceEvent]) -> String {
    JsonValue::object(vec![(
        "events",
        JsonValue::Array(events.iter().map(updp_obs::TraceEvent::to_json).collect()),
    )])
    .to_compact()
}

/// The budget trailer attached to dataset-touching responses.
pub(crate) fn budget_json(account: &Account) -> JsonValue {
    JsonValue::object(vec![
        ("total", account.budget.into()),
        ("spent", account.spent.into()),
        ("remaining", account.remaining().into()),
    ])
}

fn strings(items: &[&str]) -> JsonValue {
    JsonValue::Array(items.iter().map(|&s| s.into()).collect())
}

/// The `"privacy"` every served estimator and release reports: the
/// catalog serves pure ε-DP estimators only.
const PURE_DP: &str = "ε-DP";

/// Renders one query outcome as its wire object.
pub fn outcome_json(outcome: &QueryOutcome) -> JsonValue {
    match outcome {
        QueryOutcome::Released {
            kind,
            assumptions,
            values,
            epsilon_charged,
            release,
        } => JsonValue::object(vec![
            ("kind", (*kind).into()),
            ("assumptions", strings(assumptions)),
            ("privacy", PURE_DP.into()),
            ("values", JsonValue::numbers(values)),
            ("epsilon_charged", (*epsilon_charged).into()),
            (
                "release",
                JsonValue::object(vec![
                    ("snapped", true.into()),
                    ("lambdas", JsonValue::numbers(&release.lambdas)),
                    ("bound", release.bound.into()),
                    ("epsilon_inflation", release.inflation.into()),
                ]),
            ),
        ]),
        QueryOutcome::Refused { kind, refusal } => JsonValue::object(vec![
            ("kind", (*kind).into()),
            (
                "error",
                JsonValue::object(vec![
                    ("code", "budget_exhausted".into()),
                    ("requested", refusal.requested.into()),
                    ("available", refusal.available.into()),
                ]),
            ),
        ]),
        QueryOutcome::Failed { kind, message } => JsonValue::object(vec![
            ("kind", (*kind).into()),
            (
                "error",
                JsonValue::object(vec![
                    ("code", "estimator_failed".into()),
                    ("message", message.as_str().into()),
                ]),
            ),
        ]),
    }
}

/// Renders a full query response body.
pub fn query_response(
    request: &QueryRequest,
    outcomes: &[QueryOutcome],
    account: &Account,
) -> String {
    JsonValue::object(vec![
        ("dataset", request.dataset.as_str().into()),
        ("seed", (request.seed as f64).into()),
        (
            "results",
            JsonValue::Array(outcomes.iter().map(outcome_json).collect()),
        ),
        ("budget", budget_json(account)),
    ])
    .to_compact()
}

/// Renders the `/v1/estimators` catalog listing: every served
/// estimator with its statistic, privacy guarantee (pure ε-DP),
/// Table 1 assumptions, and declared parameters.
pub(crate) fn estimators_response<'a>(
    estimators: impl Iterator<Item = &'a updp_statistical::Estimator>,
) -> String {
    let rows = estimators
        .map(|est| {
            let params = est
                .params()
                .iter()
                .map(|spec| {
                    let mut fields = vec![
                        ("name", spec.name.into()),
                        ("required", spec.required.into()),
                    ];
                    if let Some(default) = spec.default {
                        fields.push(("default", default.into()));
                    }
                    fields.push(("doc", spec.doc.into()));
                    JsonValue::object(fields)
                })
                .collect();
            JsonValue::object(vec![
                ("name", est.name().into()),
                ("statistic", est.statistic().into()),
                ("privacy", PURE_DP.into()),
                ("assumptions", strings(est.assumptions())),
                ("multi_column", est.is_multi_column().into()),
                ("params", JsonValue::Array(params)),
            ])
        })
        .collect();
    JsonValue::object(vec![("estimators", JsonValue::Array(rows))]).to_compact()
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::ledger::Refusal;

    #[test]
    fn register_parses_scalar_and_columns() {
        let scalar = parse_register(r#"{"name":"a","budget":1.5,"data":[1,2,3]}"#).unwrap();
        assert_eq!(scalar.columns, vec![vec![1.0, 2.0, 3.0]]);
        let multi = parse_register(r#"{"name":"m","budget":2,"columns":[[1,2],[3,4]]}"#).unwrap();
        assert_eq!(multi.columns.len(), 2);
        assert!(parse_register(r#"{"name":"x","budget":1}"#).is_err());
        assert!(parse_register(r#"{"name":"x","budget":1,"data":[1],"columns":[[1]]}"#).is_err());
    }

    #[test]
    fn query_parses_the_full_surface() {
        let req = parse_query(
            r#"{"dataset":"a","seed":42,"raw":false,"bound":100,
                "queries":[{"kind":"mean","epsilon":0.1},
                           {"kind":"quantile","q":0.9,"epsilon":0.2},
                           {"kind":"multi-mean","epsilon":0.3}]}"#,
        )
        .unwrap();
        assert_eq!(req.seed, 42);
        assert_eq!(req.bound, 100.0);
        assert_eq!(req.specs.len(), 3);
        assert_eq!(req.specs[1].estimator, "quantile");
        assert_eq!(req.specs[1].options, vec![("q".to_string(), 0.9)]);
    }

    #[test]
    fn query_parses_named_estimators_with_params() {
        let req = parse_query(
            r#"{"dataset":"a","seed":1,
                "queries":[{"estimator":"kv18","epsilon":0.2,
                            "params":{"r":1000,"sigma_min":0.1,"sigma_max":100}},
                           {"estimator":"mean","epsilon":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(req.specs[0].estimator, "kv18");
        assert_eq!(
            req.specs[0].options,
            vec![
                ("r".to_string(), 1000.0),
                ("sigma_min".to_string(), 0.1),
                ("sigma_max".to_string(), 100.0)
            ]
        );
        assert!(req.specs[1].options.is_empty());
        // `estimator` and `kind` are exclusive; params must be numbers;
        // a top-level q duplicated in params is rejected.
        assert!(parse_query(
            r#"{"dataset":"a","seed":1,"queries":[{"kind":"mean","estimator":"mean","epsilon":0.1}]}"#
        )
        .is_err());
        assert!(parse_query(
            r#"{"dataset":"a","seed":1,"queries":[{"estimator":"kv18","epsilon":0.1,"params":{"r":"x"}}]}"#
        )
        .is_err());
        assert!(parse_query(
            r#"{"dataset":"a","seed":1,"queries":[{"estimator":"quantile","epsilon":0.1,"q":0.5,"params":{"q":0.9}}]}"#
        )
        .is_err());
    }

    #[test]
    fn stray_q_on_non_quantile_kinds_stays_ignored() {
        // Legacy parser read `q` only for kind = "quantile"; a stray
        // `q` elsewhere was ignored, never an error.
        let req = parse_query(
            r#"{"dataset":"a","seed":1,"queries":[{"kind":"mean","q":0.5,"epsilon":0.1}]}"#,
        )
        .unwrap();
        assert!(req.specs[0].options.is_empty());
    }

    #[test]
    fn query_defaults_are_hardened() {
        let req =
            parse_query(r#"{"dataset":"a","seed":1,"queries":[{"kind":"iqr","epsilon":0.1}]}"#)
                .unwrap();
        assert_eq!(req.bound, DEFAULT_BOUND);
    }

    #[test]
    fn query_rejects_bad_shapes() {
        assert!(parse_query(r#"{"dataset":"a","seed":-1,"queries":[]}"#).is_err());
        // 2^53 + 2: representable but beyond exact-integer range.
        assert!(parse_query(
            r#"{"dataset":"a","seed":9007199254740994,"queries":[{"kind":"mean","epsilon":0.1}]}"#
        )
        .is_err());
        assert!(parse_query(r#"{"dataset":"a","seed":1,"queries":[]}"#).is_err());
        assert!(parse_query(r#"{"dataset":"a","seed":1,"queries":[{"epsilon":0.1}]}"#).is_err());
        // Every release is snapped: `raw` may only be false.
        for raw in ["true", "1", "\"yes\""] {
            let body = format!(
                r#"{{"dataset":"a","seed":1,"raw":{raw},"queries":[{{"kind":"mean","epsilon":0.1}}]}}"#
            );
            assert!(parse_query(&body).unwrap_err().0.contains("raw"), "{raw}");
        }
    }

    #[test]
    fn refusals_render_as_structured_errors() {
        let body = outcome_json(&QueryOutcome::Refused {
            kind: "mean",
            refusal: Refusal {
                requested: 0.5,
                available: 0.125,
            },
        })
        .to_compact();
        assert_eq!(
            body,
            r#"{"kind":"mean","error":{"code":"budget_exhausted","requested":0.5,"available":0.125}}"#
        );
    }

    #[test]
    fn released_outcomes_echo_assumption_metadata() {
        let body = outcome_json(&QueryOutcome::Released {
            kind: "kv18",
            assumptions: &["A1", "A2", "A3"],
            values: vec![1.5],
            epsilon_charged: 0.2,
            release: crate::engine::ReleaseInfo {
                lambdas: vec![0.5],
                bound: DEFAULT_BOUND,
                inflation: 0.0,
            },
        })
        .to_compact();
        assert!(body.contains(r#""assumptions":["A1","A2","A3"]"#), "{body}");
        assert!(body.contains(r#""privacy":"ε-DP""#), "{body}");
        assert!(body.contains(r#""snapped":true"#), "{body}");
    }

    #[test]
    fn estimator_listing_renders_params() {
        let catalog = crate::engine::EstimatorCatalog::standard();
        let body = estimators_response(catalog.iter());
        let doc = JsonValue::parse(&body).unwrap();
        let rows = doc
            .as_object("listing")
            .unwrap()
            .get_array("estimators")
            .unwrap();
        assert_eq!(rows.len(), 11, "got {} estimators", rows.len());
        let kv18 = rows
            .iter()
            .map(|r| r.as_object("row").unwrap())
            .find(|r| r.get_str("name").unwrap() == "kv18")
            .expect("kv18 listed");
        assert_eq!(kv18.get_str("statistic").unwrap(), "mean");
        assert_eq!(kv18.get_array("params").unwrap().len(), 3);
    }
}
