//! The event-driven server core: a sharded epoll reactor.
//!
//! Replaces the thread-per-connection loop for the serving path.
//! `--workers N` threads (default: available parallelism) each own an
//! epoll instance; every worker registers the shared listener
//! (`EPOLLEXCLUSIVE` where the kernel supports it, so one accept
//! readiness wakes one shard instead of all of them) plus the read end
//! of the one wake channel on [`AppState`], which shutdown makes
//! readable for every shard at once — no polling timeouts on the hot
//! path.
//!
//! [`run`] builds every shard before any thread starts, so a startup
//! error (an epoll instance or registration refused, say at the
//! descriptor limit) returns with no thread running. A worker that
//! fails later begins the same shutdown `POST /v1/shutdown` does, and
//! `run` returns its error once every shard has drained.
//!
//! Per connection the worker keeps a non-blocking socket, an
//! incremental [`RequestParser`] (so requests split at any byte
//! boundary by the kernel reassemble correctly), and a bounded write
//! queue. The backpressure contract (DESIGN.md §10):
//!
//! * **write-queue cap** — if a peer stops reading responses while
//!   pipelining requests, the queue exceeds its bound and the next
//!   request is answered with a structured 503 `overloaded`, then the
//!   connection is flushed and torn down. The worker never blocks on
//!   a slow peer.
//! * **connection cap** — beyond `max_connections` the listener still
//!   accepts (so the peer gets an answer instead of a SYN backlog
//!   timeout) but the connection is born with a pre-queued 503 and
//!   closes once it flushes.
//! * **descriptor limit** — when `accept` fails with `EMFILE` or
//!   `ENFILE`, the peer stays queued and the level-triggered listener
//!   stays readable, so the shard stops watching the listener for
//!   [`ACCEPT_PAUSE`] instead of spinning, and keeps serving its
//!   connections meanwhile. `updp_reactor_accept_paused_total` counts
//!   the pauses.
//! * **panic isolation** — `route` runs under `catch_unwind`; a
//!   panicking handler costs that request a 500 and its connection,
//!   never the worker or its other connections.
//!
//! Determinism is unaffected: the reactor only reorders *transport*
//! work. Each request is still routed exactly once with its own seed,
//! and ledger ordering keeps the same per-request atomicity it had
//! under thread-per-connection (DESIGN.md §10).

// No panic surface outside the `catch_unwind` dispatch boundary: a
// panic here kills a worker and every connection it owns (DESIGN.md
// §9, §10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

use crate::http::{encode_response_with_type, HttpError, Request, RequestParser};
use crate::metrics::ShardMetrics;
use crate::poll::{self, Epoll, Events};
use crate::server::{route, AppState, DrainSummary, ServerConfig, CONTENT_TYPE_JSON};
use crate::wire;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use updp_obs::TraceEvent;

/// Slab token of the wake channel's read end.
const TOKEN_WAKE: u64 = u64::MAX;
/// Slab token of the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// Events delivered per `epoll_wait` call.
const EVENTS_CAP: usize = 1024;
/// Read chunk size (one scratch buffer per worker, reused).
const READ_CHUNK: usize = 64 * 1024;
/// Max socket reads per connection per readiness event: level-
/// triggered epoll re-delivers, so capping keeps one firehose peer
/// from starving the rest of the shard.
const MAX_READS_PER_TICK: usize = 16;
/// How long drain mode waits for queued responses to flush before
/// force-closing (shutdown must not hang on a stalled peer). The
/// shutdown response advertises it as `drain_deadline_ms`.
pub(crate) const DRAIN_DEADLINE: Duration = Duration::from_secs(2);
/// Epoll timeout while draining, so the deadline is observed even
/// with no socket activity.
const DRAIN_TICK_MS: i32 = 25;
/// How long a shard stops watching the listener after `accept` ran
/// out of descriptors.
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

/// One connection owned by one worker shard.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes; `sent` is the flush cursor.
    out: Vec<u8>,
    sent: usize,
    /// No more requests will be read; close once `out` drains.
    closing: bool,
    /// The interest set currently registered with epoll.
    interest: u32,
    /// When the first byte of the in-progress request arrived
    /// (metrics only). Taken at dispatch, so pipelined followers in
    /// the same batch report a parse latency of 0.
    req_started: Option<Instant>,
    /// When the write queue last went from empty to non-empty
    /// (metrics only): the start point of the write-flush latency.
    out_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            sent: 0,
            closing: false,
            interest: 0,
            req_started: None,
            out_since: None,
        }
    }

    /// Bytes queued but not yet accepted by the kernel.
    fn queued(&self) -> usize {
        self.out.len() - self.sent
    }

    fn enqueue(&mut self, status: u16, body: &str, keep_alive: bool) {
        self.enqueue_typed(status, body, CONTENT_TYPE_JSON, keep_alive);
    }

    fn enqueue_typed(&mut self, status: u16, body: &str, content_type: &str, keep_alive: bool) {
        self.out.extend_from_slice(&encode_response_with_type(
            status,
            body,
            keep_alive,
            content_type,
        ));
        if !keep_alive {
            self.closing = true;
        }
    }

    fn desired_interest(&self) -> u32 {
        // Read interest stays on even while closing: a lingering
        // close sinks whatever the peer already sent, so the final
        // response (503/400/shutdown) is never destroyed by the RST
        // that closing a socket with unread receive data triggers.
        let mut interest = poll::IN | poll::RDHUP;
        if self.queued() > 0 {
            interest |= poll::OUT;
        }
        interest
    }
}

/// Runs the reactor until shutdown completes. Consumes the listener;
/// returns the summed per-shard [`DrainSummary`] once every shard has
/// drained, or the first worker error.
pub(crate) fn run(
    listener: TcpListener,
    state: &AppState,
    config: &ServerConfig,
) -> io::Result<DrainSummary> {
    listener.set_nonblocking(true)?;
    let workers = state
        .metrics
        .shards
        .iter()
        .map(|shard| Worker::new(shard, &listener, state, config))
        .collect::<io::Result<Vec<_>>>()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|worker| {
                // A failed worker stops the server the way
                // `POST /v1/shutdown` does: every other shard drains.
                scope.spawn(move || worker.serve().inspect_err(|_| state.begin_shutdown()))
            })
            .collect();
        // Join every shard before reporting the first error.
        let mut summary = DrainSummary::default();
        let mut failure = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(shard)) => {
                    summary.drained += shard.drained;
                    summary.aborted += shard.aborted;
                }
                Ok(Err(e)) => {
                    failure.get_or_insert(e);
                }
                Err(_) => {
                    failure.get_or_insert_with(|| io::Error::other("a reactor worker panicked"));
                }
            }
        }
        failure.map_or(Ok(summary), Err)
    })
}

/// One shard: an epoll instance plus the connections it owns.
struct Worker<'a> {
    epoll: Epoll,
    listener: &'a TcpListener,
    state: &'a AppState,
    config: &'a ServerConfig,
    slab: Vec<Option<Conn>>,
    /// Reusable slab indices.
    free: Vec<usize>,
    /// Indices freed during the current tick — merged into `free`
    /// only after the event batch, so a stale event in the same batch
    /// can never address a recycled slot.
    freed: Vec<usize>,
    scratch: Vec<u8>,
    draining: bool,
    deadline: Option<Instant>,
    /// Set while the listener is unwatched after descriptor
    /// exhaustion: when to watch it again.
    accept_paused_until: Option<Instant>,
    /// This shard's counters.
    shard: &'a ShardMetrics,
    /// Connections that flushed and closed cleanly during drain.
    drained: usize,
    /// Connections force-closed at the drain deadline.
    aborted: usize,
}

impl<'a> Worker<'a> {
    fn new(
        shard: &'a ShardMetrics,
        listener: &'a TcpListener,
        state: &'a AppState,
        config: &'a ServerConfig,
    ) -> io::Result<Worker<'a>> {
        let epoll = Epoll::new()?;
        epoll.add(state.wake.as_raw_fd(), TOKEN_WAKE, poll::IN)?;
        let worker = Worker {
            epoll,
            listener,
            state,
            config,
            slab: Vec::new(),
            free: Vec::new(),
            freed: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            draining: false,
            deadline: None,
            accept_paused_until: None,
            shard,
            drained: 0,
            aborted: 0,
        };
        worker.watch_listener()?;
        Ok(worker)
    }

    /// Registers the shared listener. `EPOLLEXCLUSIVE` needs kernel
    /// ≥ 4.5; fall back to a plain add (herd wakeups, still correct)
    /// when it is refused.
    fn watch_listener(&self) -> io::Result<()> {
        let fd = self.listener.as_raw_fd();
        self.epoll
            .add(fd, TOKEN_LISTENER, poll::IN | poll::EXCLUSIVE)
            .or_else(|_| self.epoll.add(fd, TOKEN_LISTENER, poll::IN))
    }

    fn serve(mut self) -> io::Result<DrainSummary> {
        let mut events = Events::with_capacity(EVENTS_CAP);
        loop {
            let timeout = if self.draining {
                DRAIN_TICK_MS
            } else {
                // While accepting is paused, wake in time to watch the
                // listener again.
                self.accept_paused_until.map_or(-1, |until| {
                    until.saturating_duration_since(Instant::now()).as_millis() as i32 + 1
                })
            };
            let fired = self.epoll.wait(&mut events, timeout)?;
            self.shard.wakeups.inc();
            for i in 0..fired {
                let Some(event) = events.get(i) else { break };
                match event.token {
                    // The wake byte is never read; the shutdown flag
                    // is checked below.
                    TOKEN_WAKE => {}
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token as usize, event),
                }
            }
            if !self.draining && self.state.shutdown_requested() {
                self.enter_drain();
            }
            if self
                .accept_paused_until
                .is_some_and(|until| Instant::now() >= until)
            {
                self.accept_paused_until = None;
                self.watch_listener()?;
            }
            self.free.append(&mut self.freed);
            if self.draining && self.drain_finished() {
                return Ok(DrainSummary {
                    drained: self.drained,
                    aborted: self.aborted,
                });
            }
        }
    }

    /// Accepts until the backlog is empty. Beyond the connection cap,
    /// connections are still accepted but born closing with a
    /// pre-queued 503 (accept-then-503: the peer gets a structured
    /// answer instead of a connect timeout).
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Out of descriptors: the peer stays queued and the
                // level-triggered listener stays readable, so retrying
                // now would spin. Unwatch it for a while.
                Err(e) if matches!(e.raw_os_error(), Some(poll::EMFILE | poll::ENFILE)) => {
                    let _ = self.epoll.delete(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    self.shard.accept_paused.inc();
                    return;
                }
                // Transient (ECONNABORTED & friends): the next
                // readiness event retries.
                Err(_) => return,
            };
            // Head + body responses without NODELAY hit Nagle/
            // delayed-ACK stalls (~40 ms) on loopback.
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if let Some(bytes) = self.config.send_buffer {
                let _ = poll::set_send_buffer(stream.as_raw_fd(), bytes);
            }
            self.shard.accepted.inc();
            let over_cap =
                self.state.conns.fetch_add(1, Ordering::SeqCst) >= self.config.max_connections;
            let mut conn = Conn::new(stream);
            if over_cap {
                self.shard.rejected_cap.inc();
                conn.enqueue(
                    503,
                    &wire::error_body("overloaded", "connection limit reached"),
                    false,
                );
            }
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slab.push(None);
                    self.slab.len() - 1
                }
            };
            let interest = conn.desired_interest();
            match self
                .epoll
                .add(conn.stream.as_raw_fd(), idx as u64, interest)
            {
                Ok(()) => {
                    conn.interest = interest;
                    if let Some(slot) = self.slab.get_mut(idx) {
                        *slot = Some(conn);
                    }
                }
                Err(_) => self.discard(idx, conn),
            }
        }
    }

    /// Handles readiness on connection `idx`. Stale tokens (the
    /// connection closed earlier in this batch) are ignored.
    fn conn_ready(&mut self, idx: usize, event: poll::Event) {
        let Some(mut conn) = self.slab.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let mut dead = event.failed;
        if !dead && event.writable {
            dead = flush_out(&mut conn, self.shard);
        }
        if !dead && event.readable {
            dead = if conn.closing {
                // Lingering close: discard peer bytes so the close
                // (once `out` drains) sends FIN, not an RST that
                // would destroy the final response in flight.
                sink(&mut conn, &mut self.scratch, self.shard)
            } else {
                read_and_dispatch(
                    &mut conn,
                    &mut self.scratch,
                    self.state,
                    self.config,
                    self.shard,
                )
            };
            if !dead {
                dead = flush_out(&mut conn, self.shard);
            }
        }
        self.park(idx, conn, dead);
    }

    /// Re-files `conn` into slot `idx` with its epoll interest up to
    /// date — or tears it down when it is dead or finished.
    fn park(&mut self, idx: usize, mut conn: Conn, dead: bool) {
        if dead || (conn.closing && conn.queued() == 0) {
            self.discard(idx, conn);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), idx as u64, desired)
                .is_err()
            {
                self.discard(idx, conn);
                return;
            }
            conn.interest = desired;
        }
        if let Some(slot) = self.slab.get_mut(idx) {
            *slot = Some(conn);
        }
    }

    /// Drops the connection (closing the fd deregisters it) and
    /// releases its slot and global count. Once shutdown has been
    /// requested this is the clean exit — the connection flushed (or
    /// was idle/errored), so it counts as drained. Checked against
    /// the shutdown flag rather than `self.draining` because the
    /// requester's own connection closes in the same event batch as
    /// the request, before this worker enters drain mode. Deadline
    /// force-closes bypass this and count as aborted instead.
    fn discard(&mut self, idx: usize, conn: Conn) {
        drop(conn);
        self.state.conns.fetch_sub(1, Ordering::SeqCst);
        if self.draining || self.state.shutdown_requested() {
            self.drained += 1;
        }
        self.freed.push(idx);
    }

    /// Shutdown observed: stop watching the wake channel (its byte is
    /// never read) and the listener, for good; mark every connection
    /// closing (idle ones close now; ones with queued responses flush
    /// first), and start the drain deadline.
    fn enter_drain(&mut self) {
        self.draining = true;
        self.deadline = Some(Instant::now() + DRAIN_DEADLINE);
        let _ = self.epoll.delete(self.state.wake.as_raw_fd());
        // Already unwatched if accepting was paused.
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        self.accept_paused_until = None;
        for idx in 0..self.slab.len() {
            let Some(mut conn) = self.slab.get_mut(idx).and_then(Option::take) else {
                continue;
            };
            conn.closing = true;
            self.park(idx, conn, false);
        }
    }

    /// True when nothing is left to flush (or the deadline passed, in
    /// which case the stragglers are force-closed).
    fn drain_finished(&mut self) -> bool {
        if self.slab.iter().all(Option::is_none) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            for idx in 0..self.slab.len() {
                if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
                    // Force-close with bytes still queued: aborted,
                    // not drained (so not via `discard`).
                    drop(conn);
                    self.state.conns.fetch_sub(1, Ordering::SeqCst);
                    self.freed.push(idx);
                    self.aborted += 1;
                }
            }
            return true;
        }
        false
    }
}

/// Writes queued bytes until done or the kernel pushes back. Returns
/// true when the connection is dead.
fn flush_out(conn: &mut Conn, shard: &ShardMetrics) -> bool {
    while conn.sent < conn.out.len() {
        match conn.stream.write(conn.out.get(conn.sent..).unwrap_or(&[])) {
            Ok(0) => return true,
            Ok(n) => {
                conn.sent += n;
                shard.bytes_written.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reclaim the flushed prefix so a long-lived slow
                // reader cannot grow the buffer unboundedly behind
                // the cursor.
                if conn.sent > READ_CHUNK {
                    conn.out.drain(..conn.sent);
                    conn.sent = 0;
                }
                return false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    conn.out.clear();
    conn.sent = 0;
    // Queue fully drained: close out the write-flush latency window.
    if let Some(since) = conn.out_since.take() {
        shard
            .write_seconds
            .observe_micros(since.elapsed().as_micros() as u64);
    }
    false
}

/// Lingering-close read: consumes and discards peer bytes on a
/// connection that is already closing. Returns true when the
/// connection is dead.
fn sink(conn: &mut Conn, scratch: &mut [u8], shard: &ShardMetrics) -> bool {
    for _ in 0..MAX_READS_PER_TICK {
        match conn.stream.read(scratch) {
            Ok(0) => return false, // peer finished sending
            Ok(n) => {
                shard.bytes_read.add(n as u64);
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

/// Reads whatever the socket has (up to the fairness cap), feeds the
/// incremental parser, and routes every completed request. Returns
/// true when the connection is dead.
fn read_and_dispatch(
    conn: &mut Conn,
    scratch: &mut [u8],
    state: &AppState,
    config: &ServerConfig,
    shard: &ShardMetrics,
) -> bool {
    for _ in 0..MAX_READS_PER_TICK {
        let n = match conn.stream.read(scratch) {
            // EOF. A half-closed peer may still read; flush whatever
            // is queued, then close. An unfinished request in the
            // parser is simply truncated — there is no one to answer.
            Ok(0) => {
                conn.closing = true;
                return false;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        };
        shard.bytes_read.add(n as u64);
        if conn.req_started.is_none() {
            conn.req_started = Some(Instant::now());
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "io::Read contract bounds n by scratch.len(); a checked form would hide a shim bug instead of surfacing it"
        )]
        let chunk = &scratch[..n];
        let requests = match conn.parser.feed(chunk) {
            Ok(requests) => requests,
            Err(HttpError::Malformed(reason)) => {
                conn.enqueue(400, &wire::error_body("bad_request", &reason), false);
                return false;
            }
            Err(_) => return true,
        };
        for request in requests {
            dispatch(conn, request, state, config, shard);
            if conn.closing {
                // A close-after-this response (shutdown, parse-error,
                // backpressure, Connection: close) ends the session;
                // later pipelined requests are not serviced.
                return false;
            }
        }
        if n < scratch.len() {
            // Short read: the socket is drained for now.
            return false;
        }
    }
    // Fairness cap hit; level-triggered epoll re-delivers readiness.
    false
}

/// Routes one request and enqueues its response, applying the
/// backpressure and panic-isolation contracts. Instrumentation here
/// is strictly observe-only: nothing it records decides a status, a
/// body byte, or a connection's fate.
fn dispatch(
    conn: &mut Conn,
    request: Request,
    state: &AppState,
    config: &ServerConfig,
    shard: &ShardMetrics,
) {
    // Backpressure: a peer that pipelines requests without reading
    // responses gets a final structured 503, then teardown. Checked
    // per request so the queue is bounded by the cap plus one
    // response.
    if conn.queued() > config.max_write_queue {
        shard.overloaded.inc();
        conn.enqueue(
            503,
            &wire::error_body(
                "overloaded",
                "write queue full: peer is not reading responses",
            ),
            false,
        );
        return;
    }
    // Parse latency: first socket byte of this batch → dispatch.
    let parse_micros = conn
        .req_started
        .take()
        .map(|t| t.elapsed().as_micros() as u64)
        .unwrap_or(0);
    let is_shutdown = request.method == "POST" && request.path == "/v1/shutdown";
    let handle_started = Instant::now();
    let routed = catch_unwind(AssertUnwindSafe(|| route(state, &request)));
    let handle_micros = handle_started.elapsed().as_micros() as u64;
    let (status, dataset, bytes_out) = match routed {
        Ok(routed) => {
            let meta = (routed.status, routed.dataset, routed.body.len() as u64);
            conn.enqueue_typed(
                routed.status,
                &routed.body,
                routed.content_type,
                request.keep_alive && !is_shutdown,
            );
            meta
        }
        // The handler panicked: this request answers 500 and loses
        // its connection; the worker and its other connections are
        // untouched.
        Err(_) => {
            shard.panics.inc();
            let body = wire::error_body("internal", "handler panicked");
            let len = body.len() as u64;
            conn.enqueue(500, &body, false);
            (500, None, len)
        }
    };
    shard.queue_high_water.observe_max(conn.queued() as i64);
    if conn.queued() > 0 && conn.out_since.is_none() {
        conn.out_since = Some(Instant::now());
    }
    let metrics = &state.metrics;
    metrics.record_request(&request.path, status, parse_micros, handle_micros);
    let event = TraceEvent {
        id: metrics.next_request_id(),
        shard: shard.index,
        bytes_in: request.body.len() as u64,
        method: request.method,
        path: request.path,
        dataset,
        status,
        parse_micros,
        handle_micros,
        bytes_out,
        unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    };
    shard.trace.push(event);
    if is_shutdown {
        state.begin_shutdown();
    }
}
