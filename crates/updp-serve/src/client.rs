//! A small blocking client over the same first-party HTTP codec —
//! shared by the `serve-client` CLI, the end-to-end tests, and the
//! out-of-process benchmark driver (`perfbench/`).

use crate::http::{read_response, write_request, HttpError};
use std::io::BufReader;
use std::net::TcpStream;
use updp_core::json::JsonValue;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or talk to the server.
    Transport(String),
    /// The server answered with a non-2xx status; the JSON body is
    /// preserved for the caller.
    Status {
        /// The HTTP status.
        status: u16,
        /// The response body (structured error JSON).
        body: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(reason) => write!(f, "transport: {reason}"),
            ClientError::Status { status, body } => write!(f, "http {status}: {body}"),
        }
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Transport(e.to_string())
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(e.to_string())
    }
}

/// One keep-alive connection to a server.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Opens a connection to `addr` (`host:port`).
    pub fn open(addr: &str) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ClientError::Transport(format!("connect {addr}: {e}")))?;
        // Requests are written as head + body; see the matching
        // server-side NODELAY note.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            reader,
            writer: stream,
        })
    }

    /// Sends one request and reads the response `(status, body)`
    /// without interpreting the status.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), ClientError> {
        write_request(&mut self.writer, method, path, body)?;
        Ok(read_response(&mut self.reader)?)
    }

    /// Like [`Connection::request_raw`] but turns non-2xx statuses
    /// into [`ClientError::Status`].
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<String, ClientError> {
        let (status, body) = self.request_raw(method, path, body)?;
        if (200..300).contains(&status) {
            Ok(body)
        } else {
            Err(ClientError::Status { status, body })
        }
    }

    /// `POST /v1/register` with scalar data.
    pub fn register(
        &mut self,
        name: &str,
        budget: f64,
        data: &[f64],
    ) -> Result<String, ClientError> {
        let body = JsonValue::object(vec![
            ("name", name.into()),
            ("budget", budget.into()),
            ("data", JsonValue::numbers(data)),
        ])
        .to_compact();
        self.request("POST", "/v1/register", &body)
    }

    /// `POST /v1/append` with scalar data (buffered per the server's
    /// flush policy; see [`Connection::flush`]).
    pub fn append(&mut self, name: &str, data: &[f64]) -> Result<String, ClientError> {
        let body = JsonValue::object(vec![
            ("name", name.into()),
            ("data", JsonValue::numbers(data)),
        ])
        .to_compact();
        self.request("POST", "/v1/append", &body)
    }

    /// `POST /v1/flush`: publish the dataset's pending delta log.
    pub fn flush(&mut self, name: &str) -> Result<String, ClientError> {
        let body = JsonValue::object(vec![("name", name.into())]).to_compact();
        self.request("POST", "/v1/flush", &body)
    }

    /// `POST /v1/query` with a pre-rendered body.
    pub fn query(&mut self, body: &str) -> Result<String, ClientError> {
        self.request("POST", "/v1/query", body)
    }

    /// `POST /v1/shutdown`.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        self.request("POST", "/v1/shutdown", "")
    }

    /// `GET /v1/healthz`: uptime, worker count, active connections,
    /// and pending delta-log rows per dataset.
    pub fn healthz(&mut self) -> Result<String, ClientError> {
        self.request("GET", "/v1/healthz", "")
    }

    /// `GET /v1/metrics`: the Prometheus text exposition.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.request("GET", "/v1/metrics", "")
    }

    /// `GET /v1/metrics?format=json`: the same families as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        self.request("GET", "/v1/metrics?format=json", "")
    }

    /// `GET /v1/trace`: the buffered flight-recorder events.
    pub fn trace(&mut self) -> Result<String, ClientError> {
        self.request("GET", "/v1/trace", "")
    }
}

/// Builds a single-dataset query body (the shape `serve-client` and
/// the benchmark driver send). `raw` is sent as the body's `"raw"`
/// field, which the server accepts only as `false`: every release is
/// snapped, and `"raw": true` is answered with a 400 `bad_request`.
pub fn query_body(
    dataset: &str,
    seed: u64,
    raw: bool,
    queries: &[(&str, f64, Option<f64>)],
) -> String {
    let queries = queries
        .iter()
        .map(|&(kind, epsilon, q)| {
            let mut fields = vec![("kind", kind.into()), ("epsilon", epsilon.into())];
            if let Some(q) = q {
                fields.push(("q", q.into()));
            }
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object(vec![
        ("dataset", dataset.into()),
        ("seed", (seed as f64).into()),
        ("raw", raw.into()),
        ("queries", JsonValue::Array(queries)),
    ])
    .to_compact()
}

/// One named-estimator query for [`query_body_named`].
#[derive(Debug, Clone)]
pub struct NamedQuery<'a> {
    /// Estimator registry name (`"mean"`, `"kv18"`, …).
    pub estimator: &'a str,
    /// Nominal ε.
    pub epsilon: f64,
    /// Estimator-specific parameters.
    pub params: Vec<(&'a str, f64)>,
}

/// Builds a query body addressing estimators by catalog name with
/// per-query `params` objects (the general wire shape).
pub fn query_body_named(dataset: &str, seed: u64, queries: &[NamedQuery<'_>]) -> String {
    let queries = queries
        .iter()
        .map(|query| {
            let mut fields = vec![
                ("estimator", query.estimator.into()),
                ("epsilon", query.epsilon.into()),
            ];
            if !query.params.is_empty() {
                fields.push((
                    "params",
                    JsonValue::object(
                        query
                            .params
                            .iter()
                            .map(|&(name, v)| (name, v.into()))
                            .collect(),
                    ),
                ));
            }
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object(vec![
        ("dataset", dataset.into()),
        ("seed", (seed as f64).into()),
        ("queries", JsonValue::Array(queries)),
    ])
    .to_compact()
}
