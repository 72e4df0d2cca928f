//! Bounded ring buffers of recent request events — the flight
//! recorder behind `GET /v1/trace`.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::Mutex;

use updp_core::json::JsonValue;

/// One recorded request, with the phase timings the transport
/// measured. All times are plain integers stamped by the caller; this
/// module never reads a clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Process-wide monotone request id.
    pub id: u64,
    /// Reactor shard that served the request.
    pub shard: usize,
    /// HTTP method.
    pub method: String,
    /// Request path (the route, query string included).
    pub path: String,
    /// Dataset the request touched, when the route names one.
    pub dataset: Option<String>,
    /// Response status code.
    pub status: u16,
    /// Time from first byte of the request to a complete parse, in
    /// microseconds (0 for requests that arrived fully within an
    /// earlier read, e.g. later requests of a pipelined burst).
    pub parse_micros: u64,
    /// Handler (route dispatch) wall time in microseconds.
    pub handle_micros: u64,
    /// Request body bytes.
    pub bytes_in: u64,
    /// Response body bytes.
    pub bytes_out: u64,
    /// Wall-clock timestamp (Unix milliseconds) stamped by the caller.
    pub unix_ms: u64,
}

impl TraceEvent {
    /// The event as a JSON object (one element of the `/v1/trace`
    /// response).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", JsonValue::Number(self.id as f64)),
            ("shard", JsonValue::Number(self.shard as f64)),
            ("method", JsonValue::from(self.method.as_str())),
            ("path", JsonValue::from(self.path.as_str())),
            (
                "dataset",
                match &self.dataset {
                    Some(name) => JsonValue::from(name.as_str()),
                    None => JsonValue::Null,
                },
            ),
            ("status", JsonValue::Number(f64::from(self.status))),
            ("parse_us", JsonValue::Number(self.parse_micros as f64)),
            ("handle_us", JsonValue::Number(self.handle_micros as f64)),
            ("bytes_in", JsonValue::Number(self.bytes_in as f64)),
            ("bytes_out", JsonValue::Number(self.bytes_out as f64)),
            ("unix_ms", JsonValue::Number(self.unix_ms as f64)),
        ])
    }
}

/// A bounded FIFO of the most recent [`TraceEvent`]s; one per reactor
/// shard so recording never contends across workers.
pub struct TraceRing {
    cap: usize,
    events: Mutex<VecDeque<TraceEvent>>,
}

impl Default for TraceRing {
    /// A ring of the 256 most recent events.
    fn default() -> TraceRing {
        TraceRing::new(256)
    }
}

impl TraceRing {
    /// A ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            cap: cap.max(1),
            events: Mutex::new(VecDeque::with_capacity(cap.max(1))),
        }
    }

    /// Records `event`, evicting the oldest once full. A poisoned
    /// lock drops the event — tracing is observe-only and must not
    /// propagate failures into request handling.
    pub fn push(&self, event: TraceEvent) {
        if let Ok(mut events) = self.events.lock() {
            if events.len() == self.cap {
                events.pop_front();
            }
            events.push_back(event);
        }
    }

    /// The buffered events, oldest first (empty if poisoned).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match self.events.lock() {
            Ok(events) => events.iter().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64) -> TraceEvent {
        TraceEvent {
            id,
            shard: 0,
            method: "GET".into(),
            path: "/v1/healthz".into(),
            dataset: None,
            status: 200,
            parse_micros: 3,
            handle_micros: 7,
            bytes_in: 0,
            bytes_out: 11,
            unix_ms: 1_000,
        }
    }

    #[test]
    fn ring_is_bounded_and_fifo() {
        let ring = TraceRing::new(3);
        for id in 0..5 {
            ring.push(event(id));
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn event_renders_stable_json() {
        let json = event(42).to_json().to_compact();
        assert_eq!(
            json,
            "{\"id\":42,\"shard\":0,\"method\":\"GET\",\"path\":\"/v1/healthz\",\
             \"dataset\":null,\"status\":200,\"parse_us\":3,\"handle_us\":7,\
             \"bytes_in\":0,\"bytes_out\":11,\"unix_ms\":1000}"
        );
    }
}
