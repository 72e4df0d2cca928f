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
//! * **No nested pools** — [`max_threads`] reads 1 on this module's
//!   worker threads, so a kernel called from inside a parallel map
//!   (a sort or a pairing inside an experiment trial) runs serially
//!   instead of starting a scope of its own.
//! * **One size threshold** — the data kernels ([`threads_for`]) start
//!   threads only from [`PAR_MIN_LEN`] elements or steps up.
//!
//! Work is handed out in contiguous chunks of size ~`n/(4·workers)`
//! (capped at 64, floored at 1) claimed from a shared [`AtomicUsize`],
//! so fast workers steal leftover chunks from slow ones; per-trial cost
//! variance (e.g. SVT runs of data-dependent length) does not serialize
//! the run.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the worker count. `0`, empty, or an
/// unparsable value mean "auto" (use [`std::thread::available_parallelism`]).
pub const THREADS_ENV: &str = "UPDP_THREADS";

/// Data kernels shorter than this (in elements, or in Fisher–Yates
/// steps) run serially whatever `UPDP_THREADS` permits: the sort
/// ([`sort_unstable_threads`]) of `sorted_copy` and `SortedInts::new`,
/// the pipelined shuffle of [`crate::rng`], and the [`par_fill`]s of
/// the value copy that `updp_empirical::gaps` shuffles and of the grid
/// of `Discretizer::discretize`. Chosen so that the work amortizes a
/// thread spawn even on modest hosts.
pub const PAR_MIN_LEN: usize = 1 << 17;

thread_local! {
    /// Set on the worker threads of this module: [`max_threads`] reads
    /// 1 there.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a worker for the rest of its life.
fn become_worker() {
    IN_WORKER.with(|w| w.set(true));
}

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
/// valid, otherwise the machine's available parallelism (≥ 1). Always 1
/// on a worker thread of this module.
#[expect(
    clippy::disallowed_methods,
    reason = "UPDP_THREADS only picks the worker count; §5 proves output is bit-identical at any thread count, so this env read cannot influence released values"
)]
pub fn max_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let env = std::env::var(THREADS_ENV).ok();
    parse_threads(env.as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The worker count of a data kernel over `len` elements or steps:
/// [`max_threads`] from [`PAR_MIN_LEN`] up, 1 below.
pub fn threads_for(len: usize) -> usize {
    if len >= PAR_MIN_LEN {
        max_threads()
    } else {
        1
    }
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
                become_worker();
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

/// Calls `f` on each of `parts`, one scoped worker thread per part;
/// zero or one part runs on the caller, starting no thread. Like those
/// of [`par_map_indexed_threads`], the workers read [`max_threads`] as
/// 1, and a panic in `f` propagates when the scope joins.
pub fn par_for_each<T, F>(parts: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if parts.len() <= 1 {
        parts.into_iter().for_each(f);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || {
                become_worker();
                f(part);
            });
        }
    });
}

/// Writes `out` from `src`, of equal length, in `threads` contiguous
/// parts: `fill(out_part, src_part)` runs once per part on its own
/// [`par_for_each`] worker, and the calls' results come back in part
/// order. Each worker is the first to touch its part of a fresh `out`,
/// so the pages of a large output fault in on every worker. 1 thread ⇒
/// one call on the caller.
pub fn par_fill<S, T, A, F>(threads: usize, out: &mut [T], src: &[S], fill: F) -> Vec<A>
where
    S: Sync,
    T: Send,
    A: Send,
    F: Fn(&mut [T], &[S]) -> A + Sync,
{
    assert_eq!(out.len(), src.len(), "a fill writes one output per input");
    let per = src.len().div_ceil(threads.max(1)).max(1);
    let mut results: Vec<Option<A>> = src.chunks(per).map(|_| None).collect();
    let parts: Vec<_> = results
        .iter_mut()
        .zip(out.chunks_mut(per).zip(src.chunks(per)))
        .collect();
    par_for_each(parts, |(result, (out, src))| *result = Some(fill(out, src)));
    results.into_iter().flatten().collect()
}

/// Sorts `v` in place by `cmp` on `threads` workers, no merge buffer:
/// `select_nth_unstable_by` cuts `v`, serially, into `threads` parts
/// whose every element orders after the previous part's, then one
/// [`par_for_each`] sorts the parts. 1 thread ⇒ `sort_unstable_by`.
/// Where elements that compare equal are indistinguishable
/// (`f64::total_cmp`, `i64`), every thread count yields the same
/// sequence (DESIGN.md §12.1).
pub fn sort_unstable_threads<T, F>(v: &mut [T], threads: usize, cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    let (n, parts) = (v.len(), threads.min(v.len()));
    if parts <= 1 {
        v.sort_unstable_by(cmp);
        return;
    }
    let mut pieces = Vec::with_capacity(parts);
    let (mut rest, mut start) = (v, 0);
    for k in 1..parts {
        let cut = k * n / parts - start;
        rest.select_nth_unstable_by(cut, &cmp);
        let (piece, tail) = rest.split_at_mut(cut);
        pieces.push(piece);
        (rest, start) = (tail, start + cut);
    }
    pieces.push(rest);
    par_for_each(pieces, |piece| piece.sort_unstable_by(&cmp));
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
    fn workers_do_not_nest() {
        let seen = par_map_indexed_threads(2, 2, |_| (max_threads(), threads_for(PAR_MIN_LEN)));
        assert_eq!(seen, vec![(1, 1); 2]);
        let seen = Mutex::new(Vec::new());
        par_for_each(vec![0, 1], |_| {
            seen.lock().unwrap().push(max_threads());
        });
        assert_eq!(seen.into_inner().unwrap(), vec![1, 1]);
    }

    #[test]
    fn par_for_each_visits_every_part_once() {
        let mut out = vec![0usize; 10];
        for parts in [1, 2, 3, 10] {
            out.fill(0);
            let per = out.len().div_ceil(parts);
            let chunks: Vec<(usize, &mut [usize])> = out.chunks_mut(per).enumerate().collect();
            par_for_each(chunks, |(k, chunk)| {
                chunk.iter_mut().for_each(|x| *x += k + 1)
            });
            let want: Vec<usize> = (0..10).map(|i| i / per + 1).collect();
            assert_eq!(out, want, "parts = {parts}");
        }
        par_for_each(Vec::<usize>::new(), |_| unreachable!());
    }

    #[test]
    fn par_fill_writes_every_part_in_order() {
        let src: Vec<u32> = (0..11).collect();
        for threads in [1, 2, 3, 11, 16] {
            let mut out = vec![0u64; src.len()];
            let sums = par_fill(threads, &mut out, &src, |out, src| {
                for (o, &s) in out.iter_mut().zip(src) {
                    *o = u64::from(s) * 3;
                }
                src.iter().sum::<u32>()
            });
            assert_eq!(out, (0..11).map(|i| i * 3).collect::<Vec<u64>>());
            assert_eq!(sums.iter().sum::<u32>(), 55, "threads = {threads}");
            assert_eq!(sums.len(), threads.min(src.len()), "threads = {threads}");
        }
        let none: Vec<()> = par_fill(2, &mut [0u8; 0], &[0u8; 0], |_, _| ());
        assert!(none.is_empty());
    }

    #[test]
    fn threads_for_gates_on_the_threshold() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PAR_MIN_LEN - 1), 1);
        assert_eq!(threads_for(PAR_MIN_LEN), max_threads());
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
