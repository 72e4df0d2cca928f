//! Reusable per-thread scratch buffers for the subsampling hot path.
//!
//! Algorithms 8 and 9 draw a subsample of `m = εn` values without
//! replacement on *every* estimate. The vendored `rand` shim's
//! `seq::index::sample` allocates a fresh `Vec<usize>` index pool of
//! length `n` plus a fresh `Vec<f64>` for the values per call — two
//! `O(n)` heap allocations per trial that dominate allocator traffic in
//! many-trial experiments. This module keeps a `u32` index pool and the
//! value buffer in thread-local scratch (safe under
//! `updp_core::parallel`, which gives each worker thread its own
//! locals) and runs the workspace's blocked Fisher–Yates kernel,
//! [`updp_core::rng::partial_shuffle`], over it. The kernel replays
//! **exactly** the draw sequence of `rand::seq::index::sample`, so
//! subsamples — and therefore every downstream estimate — are
//! bit-identical to the allocating path.

use rand::Rng;
use std::cell::RefCell;
use updp_core::rng::{fill_identity, partial_shuffle, PoolIndex};

thread_local! {
    static SCRATCH: RefCell<(Vec<u32>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Draws `m` values of `data` without replacement into a reusable
/// thread-local buffer and hands the subsample slice (in draw order,
/// matching `rand::seq::index::sample` exactly) to `f` together with
/// the generator.
///
/// Non-reentrant: `f` must not itself call `with_subsample` (the
/// estimator call graph never does; the thread-local panics on
/// re-entrant borrow rather than corrupting the sample).
///
/// Panics if `m > data.len()`, matching `rand::seq::index::sample`.
pub(crate) fn with_subsample<R, T, F>(rng: &mut R, data: &[f64], m: usize, f: F) -> T
where
    R: Rng + ?Sized,
    F: FnOnce(&mut R, &[f64]) -> T,
{
    SCRATCH.with(|cell| {
        let (pool, values) = &mut *cell.borrow_mut();
        if data.len() <= <u32 as PoolIndex>::MAX_LEN {
            subsample_into(rng, pool, data, m, values);
        } else {
            subsample_into::<usize, R>(rng, &mut Vec::new(), data, m, values);
        }
        f(rng, values)
    })
}

/// Refills `pool` with `0..n` in place (no allocation once the
/// high-water capacity is reached), partially shuffles its first `m`
/// positions and gathers their values into `values`.
fn subsample_into<I: PoolIndex, R: Rng + ?Sized>(
    rng: &mut R,
    pool: &mut Vec<I>,
    data: &[f64],
    m: usize,
    values: &mut Vec<f64>,
) {
    fill_identity(pool, data.len());
    partial_shuffle(rng, pool, m);
    values.clear();
    values.extend(pool[..m].iter().map(|&i| data[i.index()]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    #[test]
    fn matches_vendored_index_sample_bitwise() {
        let data: Vec<f64> = (0..257).map(|i| (i as f64).sin()).collect();
        for (m, seed) in [(1usize, 1u64), (16, 2), (100, 3), (257, 4)] {
            let mut a = seeded(seed);
            let idx = rand::seq::index::sample(&mut a, data.len(), m);
            let reference: Vec<f64> = idx.iter().map(|i| data[i]).collect();
            let after_a: u64 = {
                use rand::Rng;
                a.gen()
            };

            let mut b = seeded(seed);
            let (got, after_b) = with_subsample(&mut b, &data, m, |rng, sub| {
                use rand::Rng;
                (sub.to_vec(), rng.gen::<u64>())
            });
            assert_eq!(got, reference, "m = {m}");
            // The generator must be left in the identical state.
            assert_eq!(after_a, after_b, "m = {m}");
        }
    }

    #[test]
    fn index_widths_draw_the_same_subsample() {
        // Columns past u32::MAX rows subsample at usize width; forced
        // here on a small column, it must equal the u32 draw.
        let data: Vec<f64> = (0..300).map(|i| f64::from(i).cos()).collect();
        let draw = |wide: bool| {
            let mut rng = seeded(21);
            let mut values = Vec::new();
            if wide {
                subsample_into::<usize, _>(&mut rng, &mut Vec::new(), &data, 130, &mut values);
            } else {
                subsample_into::<u32, _>(&mut rng, &mut Vec::new(), &data, 130, &mut values);
            }
            (values, rng.gen::<u64>())
        };
        assert_eq!(draw(true), draw(false));
    }

    #[test]
    fn buffer_is_reused_across_calls() {
        let data: Vec<f64> = (0..64).map(f64::from).collect();
        let mut rng = seeded(9);
        let first = with_subsample(&mut rng, &data, 8, |_, sub| sub.to_vec());
        let second = with_subsample(&mut rng, &data, 8, |_, sub| sub.to_vec());
        assert_eq!(first.len(), 8);
        assert_eq!(second.len(), 8);
        // Distinct draws (the RNG advanced) but both valid subsamples.
        assert!(first.iter().all(|v| data.contains(v)));
        assert!(second.iter().all(|v| data.contains(v)));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics_like_upstream() {
        let mut rng = seeded(10);
        with_subsample(&mut rng, &[1.0, 2.0], 3, |_, _| ());
    }
}
