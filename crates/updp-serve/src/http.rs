//! A minimal first-party HTTP/1.1 codec over `std::net` streams.
//!
//! Exactly the subset the serving wire format needs: request
//! line + headers + `Content-Length` body, keep-alive by default
//! (HTTP/1.1 semantics, honoring `Connection: close`), JSON bodies
//! only. No chunked transfer, no TLS, no multipart — deployments that
//! need those should front the server with a reverse proxy; the goal
//! here is a dependency-free serving path (the build environment has
//! no crates.io access).

use std::io::{BufRead, Read, Write};

/// Upper bound on the request head (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (64 MiB ≈ an 8M-record f64 dataset
/// in JSON — registrations beyond that should arrive in appends).
pub(crate) const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request path (no query-string splitting; paths are the API).
    pub path: String,
    /// Raw body bytes (UTF-8 JSON for every endpoint).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Protocol errors while reading a request or response.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer sent something that is not valid HTTP/1.1 (or exceeds
    /// the size limits).
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(reason) => write!(f, "malformed request: {reason}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one head line with `read_until`, charging it to the head
/// budget, and strips the trailing `\r\n`/`\n`.
fn read_line(stream: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let n = stream
        .by_ref()
        .take(*budget as u64)
        .read_until(b'\n', &mut line)?;
    if line.pop() != Some(b'\n') {
        let reason = if n == *budget {
            "head too large"
        } else {
            "unexpected EOF in head"
        };
        return Err(HttpError::Malformed(reason.into()));
    }
    *budget -= n;
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 head".into()))
}

/// Parses the request line into `(METHOD, path)`, validating the
/// HTTP/1.x version tag.
fn parse_request_line(request_line: &str) -> Result<(String, String), HttpError> {
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_uppercase(), p.to_string(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version `{version}`")));
    }
    Ok((method, path))
}

/// Applies one header line to the framing state, enforcing the
/// smuggling refusals.
fn apply_header(
    line: &str,
    content_length: &mut Option<usize>,
    keep_alive: &mut bool,
) -> Result<(), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed(format!("bad header `{line}`")));
    };
    let value = value.trim();
    match name.to_ascii_lowercase().as_str() {
        // Repeated Content-Length headers are the classic
        // request-smuggling vector behind a proxy that picks a
        // different occurrence than we do (same class as the
        // Transfer-Encoding refusal below). Refuse loudly — even
        // when the repeated values agree, there is no legitimate
        // reason for a client to send two.
        "content-length" => {
            if content_length.is_some() {
                return Err(HttpError::Malformed(
                    "duplicate content-length header".into(),
                ));
            }
            // The grammar is 1*DIGIT; `parse` alone would also take a
            // leading `+`, framing the body differently from a proxy
            // that follows the grammar.
            match value.parse() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => *content_length = Some(n),
                _ => {
                    return Err(HttpError::Malformed(format!(
                        "bad content-length `{value}`"
                    )))
                }
            }
        }
        "connection" => *keep_alive = !value.eq_ignore_ascii_case("close"),
        // Chunked framing is not implemented; silently ignoring it
        // would desync the keep-alive stream (and differing
        // framing interpretations behind a proxy are a smuggling
        // vector), so refuse loudly.
        "transfer-encoding" => {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported; send Content-Length".into(),
            ))
        }
        _ => {}
    }
    Ok(())
}

/// A parsed-but-bodiless head: the framing state the incremental
/// parser carries while body bytes stream in.
#[derive(Debug)]
struct PendingBody {
    method: String,
    path: String,
    keep_alive: bool,
    content_length: usize,
}

/// Incremental request parser for non-blocking transports: feed it
/// whatever bytes the socket yields — split at **any** byte boundary,
/// including mid-request-line, mid-header, or mid-body — and it
/// returns each request exactly once, as soon as its last byte
/// arrives. It enforces the head/body caps, refuses duplicate
/// Content-Length and any Transfer-Encoding (request-smuggling
/// vectors), and applies HTTP/1.1 keep-alive semantics.
///
/// Errors are sticky in practice: the caller must stop feeding a
/// parser that returned `Err` (the stream is desynchronized; the
/// connection should answer 400 and close).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    pending: Option<PendingBody>,
}

impl RequestParser {
    /// A fresh parser (one per connection).
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Consumes `chunk` and returns every request it completed (zero
    /// or more — pipelined peers can complete several in one read).
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<Request>, HttpError> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        loop {
            if let Some(pending) = &self.pending {
                if self.buf.len() < pending.content_length {
                    break;
                }
                let pending = self.pending.take().expect("checked above");
                let body: Vec<u8> = self.buf.drain(..pending.content_length).collect();
                out.push(Request {
                    method: pending.method,
                    path: pending.path,
                    body,
                    keep_alive: pending.keep_alive,
                });
                continue;
            }
            let Some(head_len) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::Malformed("head too large".into()));
                }
                break;
            };
            if head_len > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("head too large".into()));
            }
            let pending = parse_head_block(&self.buf[..head_len])?;
            if pending.content_length > MAX_BODY_BYTES {
                return Err(HttpError::Malformed(format!(
                    "body of {} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
                    pending.content_length
                )));
            }
            self.buf.drain(..head_len);
            self.pending = Some(pending);
        }
        Ok(out)
    }
}

/// Byte length of the head (request line + headers + blank line) if
/// the blank line has arrived, tolerating both `\r\n` and bare `\n`
/// terminators.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut pos = 0;
    while let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') {
        let end = pos + nl + 1;
        let mut line = &buf[pos..pos + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.is_empty() {
            return Some(end);
        }
        pos = end;
    }
    None
}

/// Parses a complete head block (including its terminating blank
/// line) into the framing state.
fn parse_head_block(head: &[u8]) -> Result<PendingBody, HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-UTF-8 head".into()))?;
    let mut lines = text
        .split('\n')
        .map(|line| line.strip_suffix('\r').unwrap_or(line));
    let (method, path) = parse_request_line(lines.next().unwrap_or(""))?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in lines {
        if line.is_empty() {
            break;
        }
        apply_header(line, &mut content_length, &mut keep_alive)?;
    }
    Ok(PendingBody {
        method,
        path,
        keep_alive,
        content_length: content_length.unwrap_or(0),
    })
}

/// Reason phrases for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders one JSON response into bytes (the reactor enqueues these
/// on its per-connection write queues).
pub fn encode_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    encode_response_with_type(status, body, keep_alive, "application/json")
}

/// Like [`encode_response`] but with an explicit `Content-Type`
/// (`/v1/metrics` serves Prometheus text exposition, everything else
/// is JSON).
pub(crate) fn encode_response_with_type(
    status: u16,
    body: &str,
    keep_alive: bool,
    content_type: &str,
) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// Writes one JSON request (client side).
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: updp-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads one response (client side): `(status, body)`.
///
/// Defensive against a misbehaving server: the status line is parsed
/// explicitly (a missing or non-numeric status code is a distinct
/// `Malformed` error, never a silent default), headers go through the
/// request parser's own framing checks (duplicate or non-digit
/// `Content-Length`, any `Transfer-Encoding`), and the declared body length
/// is capped at `MAX_BODY_BYTES` **before** any allocation — so a
/// rogue `Content-Length: 1e18` cannot make a client allocate
/// unboundedly.
pub fn read_response(stream: &mut impl BufRead) -> Result<(u16, String), HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(stream, &mut budget)?;
    let mut parts = status_line.split_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty status line".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "bad version `{version}` in status line `{status_line}`"
        )));
    }
    let code = parts.next().ok_or_else(|| {
        HttpError::Malformed(format!("status line `{status_line}` has no status code"))
    })?;
    let status: u16 = code.parse().map_err(|_| {
        HttpError::Malformed(format!(
            "non-numeric status code `{code}` in status line `{status_line}`"
        ))
    })?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true;
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            break;
        }
        apply_header(&line, &mut content_length, &mut keep_alive)?;
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::Malformed(format!(
            "response body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => HttpError::Malformed("unexpected EOF in body".into()),
        _ => HttpError::Io(e),
    })?;
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| HttpError::Malformed("non-UTF-8 body".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    impl RequestParser {
        /// True when no partial request is buffered — EOF here is a
        /// clean keep-alive close rather than a truncated request.
        fn is_idle(&self) -> bool {
            self.buf.is_empty() && self.pending.is_none()
        }
    }

    /// Parses `wire` as exactly one complete request.
    fn parse_one(wire: &[u8]) -> Request {
        let mut parser = RequestParser::new();
        let mut requests = parser.feed(wire).unwrap();
        assert_eq!(requests.len(), 1, "expected one request");
        assert!(parser.is_idle());
        requests.remove(0)
    }

    /// The parser's refusal text for `wire`.
    fn refusal(wire: &str) -> String {
        match RequestParser::new().feed(wire.as_bytes()) {
            Err(HttpError::Malformed(reason)) => reason,
            other => panic!("accepted {wire:?}: {other:?}"),
        }
    }

    #[test]
    fn request_round_trips_through_the_codec() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/query", "{\"a\":1}").unwrap();
        let req = parse_one(&wire);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(req.keep_alive);
    }

    #[test]
    fn response_round_trips_through_the_codec() {
        let wire = encode_response(403, "{\"error\":true}", false);
        let (status, body) = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(status, 403);
        assert_eq!(body, "{\"error\":true}");
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 403 Forbidden\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn connection_close_clears_keep_alive() {
        let req = parse_one(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    /// EOF on a fresh parser, or right after a complete request, is a
    /// clean keep-alive close; EOF mid-request is a truncation.
    #[test]
    fn idle_eof_is_clean_and_partial_eof_is_not() {
        let mut parser = RequestParser::new();
        assert!(parser.feed(b"").unwrap().is_empty());
        assert!(parser.is_idle());
        assert!(parser.feed(b"GET /x HTTP/1.1\r\n").unwrap().is_empty());
        assert!(!parser.is_idle(), "half a head must not read as idle");
        let mut parser = RequestParser::new();
        assert!(parser
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nab")
            .unwrap()
            .is_empty());
        assert!(!parser.is_idle(), "half a body must not read as idle");
    }

    #[test]
    fn malformed_heads_are_rejected() {
        for (wire, needle) in [
            ("NOT-HTTP\r\n\r\n", "bad request line"),
            ("GET /x HTTP/2\r\n\r\n", "bad version"),
            (
                "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                "bad content-length",
            ),
            ("POST /x HTTP/1.1\r\nbadheader\r\n\r\n", "bad header"),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                "transfer-encoding is not supported",
            ),
        ] {
            let reason = refusal(wire);
            assert!(reason.contains(needle), "`{reason}` missing `{needle}`");
        }
    }

    #[test]
    fn duplicate_content_length_is_refused() {
        // Differing values: whichever occurrence a proxy honored, we
        // must not silently honor the other — a smuggling vector.
        let differing = "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
        // Even identical repeats are refused: no legitimate client
        // sends two.
        let identical = "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        // Header names match ASCII-case-insensitively.
        let mixed = "POST /x HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc";
        for wire in [differing, identical, mixed] {
            assert_eq!(refusal(wire), "duplicate content-length header");
        }
    }

    /// Content-Length is `1*DIGIT`: a sign or an empty value is a
    /// framing disagreement waiting for a proxy that reads it
    /// differently, so both are refused.
    #[test]
    fn request_content_length_must_be_digits() {
        for value in ["+2", ""] {
            let wire = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nok");
            let reason = refusal(&wire);
            assert!(reason.contains("bad content-length"), "{value:?}: {reason}");
        }
    }

    #[test]
    fn response_content_length_must_be_digits() {
        for value in ["+2", ""] {
            let wire = format!("HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\nok");
            match read_response(&mut BufReader::new(wire.as_bytes())) {
                Err(HttpError::Malformed(reason)) => {
                    assert!(reason.contains("bad content-length"), "{value:?}: {reason}")
                }
                other => panic!("accepted Content-Length {value:?}: {other:?}"),
            }
        }
    }

    /// A response cut short in its head or body, or with a head over
    /// the budget, is `Malformed`, never a short read passed off as
    /// a whole one.
    #[test]
    fn truncated_and_oversized_responses_are_malformed() {
        let long_header = format!(
            "HTTP/1.1 200 OK\r\nX: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        for (wire, needle) in [
            ("", "unexpected EOF in head"),
            (
                "HTTP/1.1 200 OK\r\nContent-Length: 2",
                "unexpected EOF in head",
            ),
            (
                "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok",
                "unexpected EOF in body",
            ),
            (long_header.as_str(), "head too large"),
        ] {
            match read_response(&mut BufReader::new(wire.as_bytes())) {
                Err(HttpError::Malformed(reason)) => assert_eq!(reason, needle),
                other => panic!("accepted {wire:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn response_status_line_errors_are_explicit() {
        for (wire, needle) in [
            ("\r\n\r\n", "empty status line"),
            ("ICY 200 OK\r\n\r\n", "bad version"),
            ("HTTP/1.1\r\n\r\n", "no status code"),
            ("HTTP/1.1 abc Bad\r\n\r\n", "non-numeric status code"),
        ] {
            match read_response(&mut BufReader::new(wire.as_bytes())) {
                Err(HttpError::Malformed(reason)) => {
                    assert!(reason.contains(needle), "`{reason}` missing `{needle}`")
                }
                other => panic!("accepted {wire:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_response_bodies_are_refused_before_allocation() {
        // A rogue server declaring an enormous body must not make the
        // client allocate it.
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match read_response(&mut BufReader::new(wire.as_bytes())) {
            Err(HttpError::Malformed(reason)) => {
                assert!(reason.contains("exceeds"), "{reason}")
            }
            other => panic!("accepted oversized response: {other:?}"),
        }
        // Duplicate response Content-Length is refused too.
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        assert!(read_response(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    /// The slow-loris shape without any wall clock: every possible
    /// short-read split point over a request stream must yield the
    /// exact same requests as one contiguous read. This is the
    /// deterministic stand-in for EAGAIN-at-every-byte on a
    /// non-blocking socket.
    #[test]
    fn incremental_parser_tolerates_splits_at_every_byte_boundary() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/v1/query",
            "{\"dataset\":\"d\",\"seed\":7}",
        )
        .unwrap();
        write_request(&mut wire, "GET", "/v1/healthz", "").unwrap();
        let mut whole = RequestParser::new();
        let expected = whole.feed(&wire).unwrap();
        assert_eq!(expected.len(), 2);
        assert!(whole.is_idle());

        for split in 0..=wire.len() {
            let mut parser = RequestParser::new();
            let mut got = parser.feed(&wire[..split]).unwrap();
            got.extend(parser.feed(&wire[split..]).unwrap());
            assert_eq!(got, expected, "split at byte {split} changed the parse");
            assert!(parser.is_idle(), "split at byte {split} left residue");
        }
    }

    /// One-byte-at-a-time feeding (the most adversarial split
    /// schedule) still produces each request exactly once, exactly
    /// when its final byte arrives.
    #[test]
    fn incremental_parser_handles_byte_at_a_time_feeding() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "POST",
            "/v1/append",
            "{\"name\":\"d\",\"data\":[1,2]}",
        )
        .unwrap();
        let mut parser = RequestParser::new();
        let mut got = Vec::new();
        for (i, byte) in wire.iter().enumerate() {
            let completed = parser.feed(std::slice::from_ref(byte)).unwrap();
            if !completed.is_empty() {
                assert_eq!(i, wire.len() - 1, "request completed before its last byte");
            }
            got.extend(completed);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, "/v1/append");
        assert_eq!(got[0].body, b"{\"name\":\"d\",\"data\":[1,2]}");
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_returns_pipelined_requests_in_order() {
        let mut wire = Vec::new();
        for i in 0..5 {
            write_request(&mut wire, "POST", &format!("/v1/q{i}"), "{}").unwrap();
        }
        let mut parser = RequestParser::new();
        let got = parser.feed(&wire).unwrap();
        let paths: Vec<&str> = got.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/v1/q0", "/v1/q1", "/v1/q2", "/v1/q3", "/v1/q4"]);
        assert!(parser.is_idle(), "a complete pipeline leaves no residue");
    }

    #[test]
    fn incremental_parser_caps_head_and_body_sizes() {
        // A head that never terminates is refused once it exceeds the
        // budget — a slow-loris peer cannot grow the buffer forever.
        let mut parser = RequestParser::new();
        let filler = vec![b'a'; MAX_HEAD_BYTES + 2];
        assert!(matches!(
            parser.feed(&filler),
            Err(HttpError::Malformed(reason)) if reason == "head too large"
        ));
        // An oversized declared body is refused at head-parse time,
        // before any body bytes arrive or allocate.
        let mut parser = RequestParser::new();
        let wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parser.feed(wire.as_bytes()),
            Err(HttpError::Malformed(reason)) if reason.contains("exceeds")
        ));
    }
}
