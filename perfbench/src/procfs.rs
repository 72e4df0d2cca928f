//! Reading a process's counters from `/proc`, and running the
//! `updp-serve` binary as a child process.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use updp_serve::client::Connection;

/// Counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User CPU time, ms.
    pub user_ms: f64,
    /// System CPU time, ms.
    pub sys_ms: f64,
    /// Bytes passed to `write`-family calls.
    pub wchar: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
}

impl ProcSample {
    /// Reads `/proc/<pid>/{stat,io,status}`; `pid` `None` is this process.
    pub fn read(pid: Option<u32>) -> Result<ProcSample, String> {
        let dir = match pid {
            Some(pid) => PathBuf::from(format!("/proc/{pid}")),
            None => PathBuf::from("/proc/self"),
        };
        let read = |file: &str| {
            std::fs::read_to_string(dir.join(file)).map_err(|e| format!("read {dir:?}/{file}: {e}"))
        };
        let stat = read("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .ok_or("malformed /proc stat")?
            .1
            .split_whitespace()
            .collect::<Vec<_>>();
        let ticks = |i: usize| -> Result<f64, String> {
            rest.get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|v| v as f64)
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        let ms_per_tick = 1e3 / clock_ticks_per_second() as f64;
        let field = |text: &str, key: &str| -> u64 {
            text.lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let status = read("status")?;
        let io = read("io").unwrap_or_default();
        Ok(ProcSample {
            user_ms: ticks(11)? * ms_per_tick,
            sys_ms: ticks(12)? * ms_per_tick,
            wchar: field(&io, "wchar:"),
            ctx_switches: field(&status, "voluntary_ctxt_switches:")
                + field(&status, "nonvoluntary_ctxt_switches:"),
            peak_rss_mb: field(&status, "VmHWM:") as f64 / 1024.0,
        })
    }

    /// User plus system CPU time, ms.
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }
}

/// `AT_CLKTCK` from the auxiliary vector: the unit of `/proc` CPU times.
fn clock_ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, value)| value)
}

/// A running `updp-serve` child with a file-backed ledger in its own
/// scratch directory. Dropping it stops the process and removes the
/// directory.
pub struct ServerProc {
    child: Child,
    dir: PathBuf,
    /// `127.0.0.1:<port>`.
    pub addr: String,
}

impl ServerProc {
    /// Starts `bin` on an ephemeral port in a fresh directory `dir`,
    /// with `extra` arguments, and waits until it has written its port.
    pub fn spawn(bin: &Path, dir: PathBuf, extra: &[String]) -> Result<ServerProc, String> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {dir:?}: {e}"))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let port_file = dir.join("port");
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--ledger")
            .arg(dir.join("ledger.json"))
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        let mut server = ServerProc {
            child,
            dir,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    server.addr = format!("127.0.0.1:{port}");
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("updp-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("updp-serve did not report its port within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's counters.
    pub fn sample(&self) -> Result<ProcSample, String> {
        ProcSample::read(Some(self.pid()))
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Connection::open(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("updp-serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("updp-serve did not exit within 10 s of shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
