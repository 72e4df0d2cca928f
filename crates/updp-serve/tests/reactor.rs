//! Reactor-specific acceptance over real sockets: backpressure
//! (bounded write queues ⇒ structured 503 + teardown, no worker
//! stall), panic isolation, the accept-then-503 connection cap,
//! pipelining order, a 64-connection concurrency smoke, and the
//! server binary under a lowered descriptor limit (every shard starts
//! or the process exits; accepting pauses instead of spinning).
//!
//! The protocol-level e2e flows live in `e2e.rs`; everything here is
//! about the transport contracts of DESIGN.md §10.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use updp_serve::client::Connection;
use updp_serve::http::read_response;
use updp_serve::{DrainSummary, FlushPolicy, Ledger, Server, ServerConfig};

fn temp_ledger(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("updp-reactor-{}-{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starts a server with explicit transport knobs; returns its address
/// and the thread to join after shutdown.
fn start_with(
    tag: &str,
    config: ServerConfig,
    panic_route: bool,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<DrainSummary>>,
) {
    let ledger = Ledger::open(&temp_ledger(tag)).expect("open ledger");
    let server = Server::bind_with_config("127.0.0.1:0", ledger, FlushPolicy::immediate(), config)
        .expect("bind ephemeral port");
    if panic_route {
        server.enable_test_panic_route();
    }
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// A peer that pipelines requests but never reads responses must get
/// a structured 503 `overloaded` and a teardown — and must not stall
/// the worker for other connections.
#[test]
fn write_queue_backpressure_answers_503_and_tears_down() {
    // One worker (so the healthz probe below shares the shard with
    // the misbehaving peer), a small write-queue bound, and a clamped
    // kernel send buffer so the queue actually fills instead of
    // disappearing into kernel memory.
    let config = ServerConfig {
        workers: 1,
        max_write_queue: 8 * 1024,
        send_buffer: Some(4096),
        ..ServerConfig::default()
    };
    let (addr, server) = start_with("backpressure", config, false);

    let mut abuser = TcpStream::connect(&addr).expect("connect");
    // ~300 pipelined healthz requests (≈12 KiB — well under the
    // reactor's 64 KiB read chunk, so the server consumes the whole
    // burst) with zero reads on our side: responses pile up behind
    // the clamped send buffer until the queue bound trips.
    let mut burst = Vec::new();
    for _ in 0..300 {
        burst.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    abuser.write_all(&burst).expect("pipeline burst");

    // The same (sole) worker still serves other connections while the
    // abuser's responses sit queued: no stall.
    let mut probe = Connection::open(&addr).expect("connect probe");
    let healthz = probe.request("GET", "/v1/healthz", "").expect("healthz");
    assert!(healthz.contains("\"ok\":true"), "{healthz}");

    // Now drain the abused connection: some 200s, then exactly one
    // structured 503, then EOF (teardown).
    let mut reader = BufReader::new(abuser.try_clone().expect("clone"));
    let mut ok_count = 0usize;
    let body = loop {
        match read_response(&mut reader) {
            Ok((200, _)) => ok_count += 1,
            Ok((503, body)) => break body,
            Ok((status, body)) => panic!("unexpected response {status}: {body}"),
            Err(e) => panic!("connection died before the 503: {e}"),
        }
    };
    assert!(body.contains("\"code\":\"overloaded\""), "{body}");
    assert!(
        ok_count > 0 && ok_count < 300,
        "expected a partial run of 200s before the 503, got {ok_count}"
    );
    // After the 503 the server hangs up: clean EOF, no further bytes.
    match read_response(&mut reader) {
        Err(updp_serve::http::HttpError::Malformed(reason)) => {
            assert!(reason.contains("EOF"), "{reason}")
        }
        other => panic!("expected EOF after the 503, got {other:?}"),
    }

    probe.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

/// A panicking handler costs that request a 500 and its connection —
/// the worker and every other connection keep going.
#[test]
fn handler_panic_is_isolated_to_its_connection() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (addr, server) = start_with("panic", config, true);

    let mut bystander = Connection::open(&addr).expect("connect bystander");
    bystander.request("GET", "/v1/healthz", "").expect("warmup");

    let mut victim = Connection::open(&addr).expect("connect victim");
    let (status, body) = victim
        .request_raw("POST", "/v1/test/panic", "")
        .expect("panic route responds before closing");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"code\":\"internal\""), "{body}");

    // Same worker, different connection: unaffected, repeatedly.
    for _ in 0..3 {
        let healthz = bystander
            .request("GET", "/v1/healthz", "")
            .expect("healthz");
        assert!(healthz.contains("\"ok\":true"), "{healthz}");
    }
    // The poisoned connection is gone (server closed it after the 500).
    assert!(victim.request("GET", "/v1/healthz", "").is_err());

    bystander.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

/// Beyond `max_connections` the server accepts and answers a
/// structured 503 instead of letting the peer time out in the SYN
/// backlog; closing a connection frees a slot.
#[test]
fn connection_cap_accepts_then_503s() {
    let config = ServerConfig {
        workers: 1,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let (addr, server) = start_with("cap", config, false);

    let mut first = Connection::open(&addr).expect("connect 1");
    first.request("GET", "/v1/healthz", "").expect("healthz 1");
    let mut second = Connection::open(&addr).expect("connect 2");
    second.request("GET", "/v1/healthz", "").expect("healthz 2");

    // Third connection: accepted, answered 503, closed — without the
    // server ever reading a request.
    let mut third = Connection::open(&addr).expect("connect 3");
    let (status, body) = third
        .request_raw("GET", "/v1/healthz", "")
        .expect("pre-queued 503 readable");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"code\":\"overloaded\""), "{body}");
    assert!(body.contains("connection limit"), "{body}");

    // Freeing a slot re-opens admission. The close is observed
    // asynchronously by the reactor, so poll briefly.
    drop(second);
    let mut readmitted = None;
    for _ in 0..100 {
        let mut conn = Connection::open(&addr).expect("connect retry");
        if let Ok((200, _)) = conn.request_raw("GET", "/v1/healthz", "") {
            readmitted = Some(conn);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(readmitted.is_some(), "slot never freed after close");

    first.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

/// Pipelined requests on one connection are answered in order, one
/// response per request, statuses included.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (addr, server) = start_with("pipeline", config, false);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut wire = Vec::new();
    for path in ["/v1/healthz", "/v1/datasets", "/v1/nope", "/v1/healthz"] {
        wire.extend_from_slice(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
    }
    stream.write_all(&wire).expect("pipeline");

    let mut reader = BufReader::new(stream);
    let expect = [
        (200u16, "\"ok\":true"),
        (200, "\"datasets\""),
        (404, "\"code\":\"not_found\""),
        (200, "\"ok\":true"),
    ];
    for (i, (status, needle)) in expect.iter().enumerate() {
        let (got, body) = read_response(&mut reader).expect("response");
        assert_eq!(got, *status, "response {i}: {body}");
        assert!(body.contains(needle), "response {i}: {body}");
    }

    Connection::open(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

/// 64 concurrent keep-alive connections across a small worker pool,
/// all making real budgeted queries, all served.
#[test]
fn sixty_four_concurrent_connections_are_served() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (addr, server) = start_with("fanin", config, false);

    let mut setup = Connection::open(&addr).expect("connect setup");
    let data: Vec<f64> = (0..2000).map(|i| (i % 500) as f64).collect();
    setup.register("fanin", 1.0e6, &data).expect("register");

    std::thread::scope(|scope| {
        for worker in 0..64 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut conn = Connection::open(&addr).expect("connect");
                for round in 0..3 {
                    let body = updp_serve::client::query_body(
                        "fanin",
                        (worker * 31 + round) as u64,
                        false,
                        &[("mean", 0.001, None)],
                    );
                    let response = conn.query(&body).expect("query");
                    assert!(response.contains("\"values\""), "{response}");
                }
            });
        }
    });

    setup.shutdown().expect("shutdown");
    server.join().expect("join").expect("clean shutdown");
}

/// The server binary (`--addr 127.0.0.1:0`, ledger in the temp dir)
/// started under `ulimit -n {limit}` with its stdio detached; killed on
/// drop, so a failing assertion cannot leave it running.
struct Limited(Child);

impl Limited {
    fn spawn(limit: usize, tag: &str, args: &[&str]) -> Limited {
        let child = Command::new("/bin/sh")
            .arg("-c")
            .arg(format!("ulimit -n {limit}; exec \"$0\" \"$@\""))
            .arg(env!("CARGO_BIN_EXE_updp-serve"))
            .args(["--addr", "127.0.0.1:0", "--ledger"])
            .arg(temp_ledger(tag))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn updp-serve");
        Limited(child)
    }

    /// The link targets of the server's open descriptors.
    fn fds(&self) -> Vec<String> {
        let Ok(dir) = std::fs::read_dir(format!("/proc/{}/fd", self.0.id())) else {
            return Vec::new();
        };
        dir.filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
            .map(|target| target.to_string_lossy().into_owned())
            .collect()
    }

    /// User + system CPU time, in clock ticks.
    fn cpu_ticks(&self) -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.0.id())).expect("stat");
        // Fields after the parenthesised command name start at field
        // 3 (state); utime and stime are fields 14 and 15.
        let (_, rest) = stat.rsplit_once(')').expect("stat format");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
    }

    /// Polls every 20 ms for up to `limit` until `done` holds.
    fn wait_for(&mut self, limit: Duration, mut done: impl FnMut(&mut Limited) -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if done(self) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }
}

impl Drop for Limited {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A shard that cannot start must stop the server, never leave it up
/// with a shard missing: under every descriptor limit a two-shard
/// server either exits non-zero or runs both epoll instances.
#[test]
fn startup_under_a_descriptor_limit_runs_every_shard_or_exits() {
    let (mut exited, mut served) = (Vec::new(), Vec::new());
    for limit in 4..=16 {
        let mut server = Limited::spawn(limit, &format!("sweep-{limit}"), &["--workers", "2"]);
        let mut status = None;
        let mut epolls = 0;
        let settled = server.wait_for(Duration::from_secs(2), |server| {
            status = server.0.try_wait().expect("try_wait");
            epolls = server
                .fds()
                .iter()
                .filter(|target| *target == "anon_inode:[eventpoll]")
                .count();
            status.is_some() || epolls == 2
        });
        assert!(
            settled,
            "ulimit -n {limit}: up for 2 s with {epolls} of 2 epoll instances"
        );
        match status {
            Some(status) => {
                assert!(!status.success(), "ulimit -n {limit}: exited {status}");
                exited.push(limit);
            }
            None => served.push(limit),
        }
    }
    assert!(
        !exited.is_empty() && !served.is_empty(),
        "exited under {exited:?}, served under {served:?}"
    );
}

/// At the descriptor limit a shard must not spin on a listener it
/// cannot accept from: it stops watching it for a while, keeps its
/// connections, and admits the queued peer once a descriptor frees.
#[test]
fn accept_at_the_descriptor_limit_pauses_instead_of_spinning() {
    const LIMIT: usize = 64;
    let port_file =
        std::env::temp_dir().join(format!("updp-reactor-{}-emfile.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut server = Limited::spawn(
        LIMIT,
        "emfile",
        &[
            "--workers",
            "1",
            "--port-file",
            port_file.to_str().expect("utf-8 path"),
        ],
    );
    let mut port = String::new();
    assert!(
        server.wait_for(Duration::from_secs(5), |_| {
            port = std::fs::read_to_string(&port_file).unwrap_or_default();
            port.ends_with('\n')
        }),
        "no port file"
    );
    let _ = std::fs::remove_file(&port_file);
    let addr = format!("127.0.0.1:{}", port.trim());

    // Hold connections until the server has no descriptor left.
    let mut held = Vec::new();
    while server.fds().len() < LIMIT {
        let open = server.fds().len();
        held.push(TcpStream::connect(&addr).expect("connect"));
        assert!(
            server.wait_for(Duration::from_secs(2), |server| server.fds().len() > open),
            "connection {} never accepted",
            held.len()
        );
    }

    let mut pending = TcpStream::connect(&addr).expect("connect past the limit");
    pending
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send healthz");
    let before = server.cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let ticks = server.cpu_ticks() - before;
    assert!(
        ticks < 20,
        "{ticks} CPU ticks in 1 s at the descriptor limit"
    );

    drop(held.pop());
    let closed = Instant::now();
    pending
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut head = [0u8; 12];
    pending
        .read_exact(&mut head)
        .expect("pending peer answered");
    assert_eq!(&head, b"HTTP/1.1 200");
    assert!(closed.elapsed() < Duration::from_secs(2));

    drop(held);
    drop(pending);
    let mut last = Connection::open(&addr).expect("connect");
    let metrics = last.metrics_text().expect("metrics");
    let pauses = metrics
        .lines()
        .find_map(|line| line.strip_prefix("updp_reactor_accept_paused_total{shard=\"0\"} "))
        .and_then(|value| value.parse::<u64>().ok());
    assert!(
        pauses.is_some_and(|pauses| pauses >= 1),
        "accept pauses {pauses:?} in:\n{metrics}"
    );
    last.shutdown().expect("shutdown");
    let mut status = None;
    server.wait_for(Duration::from_secs(5), |server| {
        status = server.0.try_wait().expect("try_wait");
        status.is_some()
    });
    assert!(
        status.is_some_and(|status| status.success()),
        "exit after shutdown: {status:?}"
    );
}
