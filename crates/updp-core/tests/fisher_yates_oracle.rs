//! The blocked Fisher–Yates kernel (`updp_core::rng::{shuffle,
//! partial_shuffle}`) against its oracles, the vendored
//! `SliceRandom::shuffle` and `seq::index::sample`: the same
//! permutation or sample, and the same next `u64` drawn afterwards, at
//! both pool widths.

use proptest::prelude::*;
use rand::seq::{index, SliceRandom};
use rand::Rng;
use updp_core::rng::{
    fill_identity, partial_shuffle, seeded, shuffle, PoolIndex, FISHER_YATES_BLOCK,
};

/// Lengths around the block boundaries.
const EDGE_N: [usize; 10] = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129];

fn identity<I: PoolIndex>(n: usize) -> Vec<I> {
    let mut pool = Vec::new();
    fill_identity(&mut pool, n);
    pool
}

fn widen<I: PoolIndex>(pool: &[I]) -> Vec<usize> {
    pool.iter().map(|i| i.index()).collect()
}

/// The kernel's full shuffle of `0..n` at width `I`, and the next draw.
fn kernel_full<I: PoolIndex>(seed: u64, n: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool = identity::<I>(n);
    shuffle(&mut rng, &mut pool);
    (widen(&pool), rng.gen())
}

/// The vendored full shuffle of `0..n`, and the next draw.
fn oracle_full(seed: u64, n: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    pool.shuffle(&mut rng);
    (pool, rng.gen())
}

/// The kernel's `m`-prefix of `0..n` at width `I`, and the next draw.
fn kernel_partial<I: PoolIndex>(seed: u64, n: usize, m: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool = identity::<I>(n);
    partial_shuffle(&mut rng, &mut pool, m);
    (widen(&pool[..m]), rng.gen())
}

/// The vendored `index::sample(n, m)`, and the next draw.
fn oracle_partial(seed: u64, n: usize, m: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let sample = index::sample(&mut rng, n, m).into_vec();
    (sample, rng.gen())
}

/// Sample sizes at 0, 1, the block boundaries and `n` itself.
fn edge_m(n: usize) -> Vec<usize> {
    let b = FISHER_YATES_BLOCK;
    let mut ms = vec![0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, n];
    ms.retain(|&m| m <= n);
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Checks both widths: `usize` is what columns longer than `u32::MAX`
/// rows get, forced here at small `n`.
fn check_full(seed: u64, n: usize) {
    let oracle = oracle_full(seed, n);
    assert_eq!(kernel_full::<u32>(seed, n), oracle, "u32, n = {n}");
    assert_eq!(kernel_full::<usize>(seed, n), oracle, "usize, n = {n}");
}

fn check_partial(seed: u64, n: usize, m: usize) {
    let oracle = oracle_partial(seed, n, m);
    assert_eq!(
        kernel_partial::<u32>(seed, n, m),
        oracle,
        "u32, n = {n}, m = {m}"
    );
    assert_eq!(
        kernel_partial::<usize>(seed, n, m),
        oracle,
        "usize, n = {n}, m = {m}"
    );
}

#[test]
fn block_edge_lengths_match_the_vendored_shuffle_and_sample() {
    for (seed, n) in EDGE_N.into_iter().enumerate() {
        let seed = seed as u64;
        check_full(seed, n);
        for m in edge_m(n) {
            check_partial(seed, n, m);
        }
    }
}

#[test]
#[should_panic(expected = "cannot sample")]
fn oversampling_panics_like_the_vendored_sample() {
    let mut pool = identity::<u32>(2);
    partial_shuffle(&mut seeded(1), &mut pool, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_shuffle_matches_the_vendored_shuffle(seed in 0u64..u64::MAX, n in 0usize..10_001) {
        check_full(seed, n);
    }

    #[test]
    fn partial_shuffle_matches_the_vendored_sample(
        seed in 0u64..u64::MAX,
        n in 0usize..10_001,
        m_frac in 0.0f64..1.0,
    ) {
        let m = ((n as f64 * m_frac) as usize).min(n);
        check_partial(seed, n, m);
        for m in edge_m(n) {
            check_partial(seed, n, m);
        }
    }
}
