//! Thin epoll bindings — the one audited `unsafe` module in the
//! workspace.
//!
//! The build environment has no crates.io access (DESIGN.md §4), so
//! the reactor cannot pull in `libc`/`mio`; instead this module
//! declares the five raw syscall entry points it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `close`, `setsockopt` — all exported by
//! the libc `std` already links) and wraps them in safe RAII types.
//! Every `unsafe` block carries a `// SAFETY:` comment stating the
//! invariant it relies on (clippy's `undocumented_unsafe_blocks`);
//! everything outside this module stays `deny(unsafe_code)`.
//!
//! The reactor's wake channel, a `UnixStream` pair on the server
//! state, needs no unsafe and does not live here.

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
// The audited exception to the crate-wide `#![deny(unsafe_code)]`:
// raw-syscall FFI is the entire point of this module.
#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;

/// Readiness: the connection can be read without blocking.
pub(crate) const IN: u32 = 0x001; // EPOLLIN
/// Readiness: the connection can be written without blocking.
pub(crate) const OUT: u32 = 0x004; // EPOLLOUT
/// The peer shut down its writing half (half-close).
pub(crate) const RDHUP: u32 = 0x2000; // EPOLLRDHUP
/// Wake at most one of the epoll instances sharing a registration —
/// tames the accept thundering herd across worker shards (kernel
/// ≥ 4.5; [`Epoll::add`] callers fall back to a plain add on EINVAL).
pub(crate) const EXCLUSIVE: u32 = 1 << 28; // EPOLLEXCLUSIVE

/// `accept` errno: the process is out of file descriptors.
pub(crate) const EMFILE: i32 = 24;
/// `accept` errno: the system is out of file descriptors.
pub(crate) const ENFILE: i32 = 23;

const ERR: u32 = 0x008; // EPOLLERR
const HUP: u32 = 0x010; // EPOLLHUP

const EPOLL_CLOEXEC: c_int = 0o2000000; // O_CLOEXEC
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;

/// `struct epoll_event` with the kernel's ABI layout: packed on
/// x86-64 (the kernel declares it `__attribute__((packed))` there so
/// the 32-bit `events` field is followed immediately by `data`);
/// naturally aligned 16 bytes everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
}

/// One decoded readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `token` the fd was registered with.
    pub token: u64,
    /// Readable (or half-closed by the peer — a read will observe it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup: the connection is dead; tear it down.
    pub failed: bool,
}

/// Reusable buffer for [`Epoll::wait`] results.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// The `i`-th delivered event, `None` past the delivered count.
    /// Indexed access lets the reactor walk the batch without
    /// allocating (it mutates its slab while iterating, so it cannot
    /// hold a borrow of the batch); the checked form keeps the event
    /// loop panic-free (§10).
    pub fn get(&self, i: usize) -> Option<Event> {
        if i >= self.len {
            return None;
        }
        self.buf.get(i).map(Self::decode)
    }

    fn decode(raw: &EpollEvent) -> Event {
        // Copy the (possibly unaligned, on x86-64) packed fields out
        // by value before testing bits.
        let events = raw.events;
        let data = raw.data;
        Event {
            token: data,
            readable: events & (IN | RDHUP) != 0,
            writable: events & OUT != 0,
            failed: events & (ERR | HUP) != 0,
        }
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // The returned descriptor (if not -1) is exclusively ours,
        // closed in Drop.
        // SAFETY: epoll_create1 takes no pointers; errno handled below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // `self.fd` is a valid epoll descriptor owned by this struct.
        // SAFETY: `event` is a live, correctly-laid-out (repr(C),
        // kernel-matching packing) stack value for the whole call.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events` readiness under `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set of `fd`.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness (or `timeout_ms`; -1 blocks forever),
    /// filling `events`. A signal interruption reports zero events
    /// instead of an error.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        events.len = 0;
        // The kernel writes at most `maxevents` entries; only the
        // first `rc` are read back.
        // SAFETY: the out-pointer is valid for `events.buf.len()`
        // EpollEvent slots owned by `events`, which outlives the call.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        events.len = rc as usize;
        Ok(events.len)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is owned exclusively (never cloned or
        // exposed) — this is the single close of a live fd.
        unsafe { close(self.fd) };
    }
}

/// Clamps the kernel send buffer of a socket (`SO_SNDBUF`). Used to
/// bound per-connection kernel memory at high connection counts and
/// to make the backpressure path testable with deterministic-sized
/// buffers.
pub(crate) fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let value = bytes.min(c_int::MAX as usize) as c_int;
    // SAFETY: optval points at a live c_int for the duration of the
    // call and optlen is exactly its size; the kernel only reads it.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            (&value as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readability_on_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), 7, IN).unwrap();

        let mut events = Events::with_capacity(8);
        // Nothing pending yet: a zero-timeout wait returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let event = events.get(0).unwrap();
        assert_eq!(event.token, 7);
        assert!(event.readable);

        epoll.delete(listener.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    /// The premise of the reactor's one wake channel: an unread byte
    /// keeps a level-triggered registration ready, in every epoll set
    /// that holds one, on every wait — until that set deletes it.
    #[test]
    fn one_unread_byte_wakes_every_registered_epoll() {
        let (tx, rx) = UnixStream::pair().unwrap();
        let shards = [Epoll::new().unwrap(), Epoll::new().unwrap()];
        let mut events = Events::with_capacity(4);
        for epoll in &shards {
            epoll.add(rx.as_raw_fd(), 1, IN).unwrap();
            assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        }

        (&tx).write_all(&[1]).unwrap();
        for _ in 0..3 {
            for epoll in &shards {
                assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
                assert!(events.get(0).unwrap().readable);
            }
        }
        shards[0].delete(rx.as_raw_fd()).unwrap();
        assert_eq!(shards[0].wait(&mut events, 0).unwrap(), 0);
        assert_eq!(shards[1].wait(&mut events, 0).unwrap(), 1);
    }

    #[test]
    fn send_buffer_clamp_applies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(stream.as_raw_fd(), 4096).unwrap();
        // Bogus fd errors instead of succeeding silently.
        assert!(set_send_buffer(-1, 4096).is_err());
    }
}
