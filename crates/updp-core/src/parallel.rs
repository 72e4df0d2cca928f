//! Deterministic parallel trial execution (DESIGN.md §5).
//!
//! The experiment harness runs thousands of independent Monte-Carlo
//! trials, and §1.1's SplitMix64 child-seed scheme makes each trial a
//! self-contained RNG stream: trial `t` is a pure function of
//! `(master, t)`. That makes the workload *embarrassingly parallel with
//! bit-identical output* — the only requirement is that results are
//! collected by trial index, never by completion order.
//!
//! This module is a first-party replacement for `rayon`'s
//! `par_iter().map().collect()` (the build environment has no crates.io
//! access): a chunked work-stealing map over [`std::thread::scope`] with
//! an atomic work index. Properties the rest of the workspace relies on:
//!
//! * **Determinism** — [`par_map_indexed`] returns exactly
//!   `(0..n).map(f).collect()` for any thread count, because each index
//!   is evaluated exactly once and results are reassembled by index.
//!   Thread count, scheduling, and chunk boundaries are unobservable in
//!   the output (they only matter if `f` itself is impure).
//! * **`UPDP_THREADS` contract** — the environment variable overrides
//!   the worker count: `UPDP_THREADS=1` forces the serial fast path
//!   (zero threads spawned, zero synchronization), `UPDP_THREADS=k`
//!   uses `k` workers, unset/`0`/unparsable falls back to
//!   [`std::thread::available_parallelism`].
//! * **Panic propagation** — a panic in `f` propagates to the caller
//!   when the scope joins, exactly like the serial loop.
//!
//! Work is handed out in contiguous chunks of size ~`n/(4·workers)`
//! (capped at 64, floored at 1) claimed from a shared [`AtomicUsize`],
//! so fast workers steal leftover chunks from slow ones; per-trial cost
//! variance (e.g. SVT runs of data-dependent length) does not serialize
//! the run.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the worker count. `0`, empty, or an
/// unparsable value mean "auto" (use [`std::thread::available_parallelism`]).
pub const THREADS_ENV: &str = "UPDP_THREADS";

/// Parses a raw `UPDP_THREADS` value. `None`/`0`/garbage → `None` (auto).
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    match raw.map(str::trim) {
        Some(s) if !s.is_empty() => match s.parse::<usize>() {
            Ok(0) | Err(_) => None,
            Ok(k) => Some(k),
        },
        _ => None,
    }
}

/// The worker count in effect: the `UPDP_THREADS` override if set and
/// valid, otherwise the machine's available parallelism (≥ 1).
#[expect(
    clippy::disallowed_methods,
    reason = "UPDP_THREADS only picks the worker count; §5 proves output is bit-identical at any thread count, so this env read cannot influence released values"
)]
pub fn max_threads() -> usize {
    let env = std::env::var(THREADS_ENV).ok();
    parse_threads(env.as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Maps `f` over `0..n` with the default worker count ([`max_threads`])
/// and returns the results **in index order** — bit-identical to
/// `(0..n).map(f).collect()` at any thread count.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed_threads(max_threads(), n, f)
}

/// [`par_map_indexed`] with an explicit worker count (1 ⇒ serial fast
/// path: no threads spawned, no synchronization).
pub fn par_map_indexed_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    // ~4 chunks per worker balances steal granularity against
    // contention on the shared index; 64 caps the tail latency when a
    // single chunk lands on a slow trial.
    let chunk = (n / (workers * 4)).clamp(1, 64);
    let next = AtomicUsize::new(0);
    // Safe collection without unsafe slot writes (updp-core forbids
    // unsafe code): each worker accumulates (start, results) runs
    // locally and merges once under the lock at exit.
    let collected: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    local.push((start, (start..end).map(&f).collect()));
                }
                if !local.is_empty() {
                    // Poison recovery is sound here: poisoning means a
                    // sibling worker panicked mid-`extend`, the scope
                    // will re-panic at join so no caller ever observes
                    // the result, and merging into the Vec cannot make
                    // it more inconsistent than the panic already did.
                    collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(local);
                }
            });
        }
    });
    let mut runs = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    runs.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (start, run) in runs {
        debug_assert_eq!(start, out.len(), "non-contiguous chunk reassembly");
        out.extend(run);
    }
    debug_assert_eq!(out.len(), n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_contract() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("auto")), None);
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
    }

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn matches_serial_at_every_thread_count() {
        let serial: Vec<u64> = (0..257).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let par = par_map_indexed_threads(threads, 257, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map_indexed_threads(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed_threads(4, 1, |i| i * 2), vec![0]);
    }

    #[test]
    fn uneven_chunk_boundaries_cover_everything() {
        // n chosen so n % chunk != 0 for the computed chunk size.
        for n in [2usize, 5, 63, 64, 65, 100, 1000] {
            let got = par_map_indexed_threads(3, n, |i| i);
            let want: Vec<usize> = (0..n).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn per_index_rng_streams_are_thread_count_independent() {
        // The exact pattern the experiment harness uses: seed a child
        // RNG per index and draw from it.
        let draw = |i: usize| {
            use rand::Rng;
            let mut rng = crate::rng::seeded(crate::rng::child_seed(42, i as u64));
            rng.gen::<f64>()
        };
        let one = par_map_indexed_threads(1, 100, draw);
        let eight = par_map_indexed_threads(8, 100, draw);
        assert_eq!(one, eight);
    }

    #[test]
    #[should_panic]
    fn panics_propagate() {
        // `thread::scope` re-panics at join with its own payload
        // ("a scoped thread panicked"), so only panic *occurrence* is
        // asserted, not the message.
        let _ = par_map_indexed_threads(4, 32, |i| {
            if i == 7 {
                panic!("trial 7 exploded");
            }
            i
        });
    }
}
