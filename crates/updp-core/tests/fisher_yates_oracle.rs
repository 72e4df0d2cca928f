//! The Fisher–Yates kernel (`updp_core::rng::{shuffle,
//! partial_shuffle}`) against its oracles, the vendored
//! `SliceRandom::shuffle` and `seq::index::sample`: the same
//! permutation or sample, and the same next `u64` drawn afterwards, on
//! `u32` and `usize` index pools and on `f64` value pools (whose
//! shuffle must be the values gathered through the vendored index
//! shuffle), serial and pipelined on two threads.

use proptest::prelude::*;
use rand::seq::{index, SliceRandom};
use rand::Rng;
use updp_core::parallel::PAR_MIN_LEN;
use updp_core::rng::{
    identity, partial_shuffle, partial_shuffle_threads, seeded, shuffle, shuffle_threads,
    PoolIndex, FISHER_YATES_BLOCK, PIPELINE_BLOCK,
};

/// Lengths around the block boundaries.
const EDGE_N: [usize; 10] = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129];

/// Pool lengths around the pipeline's block boundaries.
const PIPELINE_N: [usize; 5] = [
    PIPELINE_BLOCK - 1,
    PIPELINE_BLOCK,
    PIPELINE_BLOCK + 1,
    PIPELINE_BLOCK + 2,
    2 * PIPELINE_BLOCK + 1,
];

/// The serial kernel and the two-thread pipeline.
const THREADS: [usize; 2] = [1, 2];

fn widen<I: PoolIndex>(pool: &[I]) -> Vec<usize> {
    pool.iter().map(|i| i.index()).collect()
}

/// The kernel's full shuffle of `0..n` at width `I` on `threads`
/// threads, and the next draw.
fn kernel_full<I: PoolIndex>(seed: u64, n: usize, threads: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool = identity::<I>(n);
    shuffle_threads(&mut rng, &mut pool, threads);
    (widen(&pool), rng.gen())
}

/// The vendored full shuffle of `0..n`, and the next draw.
fn oracle_full(seed: u64, n: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    pool.shuffle(&mut rng);
    (pool, rng.gen())
}

/// A column of `n` values, with a NaN and both infinities
/// among them.
fn column(n: usize) -> Vec<f64> {
    let mut data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 1e3).collect();
    for (at, special) in [
        (n / 2, f64::NAN),
        (n / 3, f64::INFINITY),
        (n / 5, f64::NEG_INFINITY),
    ] {
        if at < n {
            data[at] = special;
        }
    }
    data
}

/// The bits of the kernel's shuffle of `data` as a value pool on
/// `threads` threads (`None`: the default entry's count), and the next
/// draw.
fn kernel_values(seed: u64, data: &[f64], threads: Option<usize>) -> (Vec<u64>, u64) {
    let mut rng = seeded(seed);
    let mut pool = data.to_vec();
    match threads {
        Some(threads) => shuffle_threads(&mut rng, &mut pool, threads),
        None => shuffle(&mut rng, &mut pool),
    }
    (pool.iter().map(|x| x.to_bits()).collect(), rng.gen())
}

/// The bits of `data` gathered through the vendored shuffle of `0..n`,
/// and the next draw.
fn oracle_values(seed: u64, data: &[f64]) -> (Vec<u64>, u64) {
    let (order, next) = oracle_full(seed, data.len());
    (order.iter().map(|&i| data[i].to_bits()).collect(), next)
}

fn check_values(seed: u64, n: usize) {
    let data = column(n);
    let oracle = oracle_values(seed, &data);
    for threads in THREADS {
        let at = format!("n = {n}, threads = {threads}");
        assert_eq!(kernel_values(seed, &data, Some(threads)), oracle, "{at}");
    }
}

/// The kernel's `m`-prefix of `0..n` at width `I` on `threads`
/// threads, and the next draw.
fn kernel_partial<I: PoolIndex>(
    seed: u64,
    n: usize,
    m: usize,
    threads: usize,
) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool = identity::<I>(n);
    partial_shuffle_threads(&mut rng, &mut pool, m, threads);
    (widen(&pool[..m]), rng.gen())
}

/// The vendored `index::sample(n, m)`, and the next draw.
fn oracle_partial(seed: u64, n: usize, m: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let sample = index::sample(&mut rng, n, m).into_vec();
    (sample, rng.gen())
}

/// Sample sizes at 0, 1, the block boundaries of both kernels and `n`
/// itself.
fn edge_m(n: usize) -> Vec<usize> {
    let b = FISHER_YATES_BLOCK;
    let p = PIPELINE_BLOCK;
    let mut ms = vec![
        0,
        1,
        b - 1,
        b,
        b + 1,
        2 * b - 1,
        2 * b,
        2 * b + 1,
        p - 1,
        p,
        p + 1,
        n,
    ];
    ms.retain(|&m| m <= n);
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Checks both index pools at both thread counts.
fn check_full(seed: u64, n: usize) {
    let oracle = oracle_full(seed, n);
    for threads in THREADS {
        let at = format!("n = {n}, threads = {threads}");
        assert_eq!(kernel_full::<u32>(seed, n, threads), oracle, "u32, {at}");
        assert_eq!(
            kernel_full::<usize>(seed, n, threads),
            oracle,
            "usize, {at}"
        );
    }
}

fn check_partial(seed: u64, n: usize, m: usize) {
    let oracle = oracle_partial(seed, n, m);
    for threads in THREADS {
        let at = format!("n = {n}, m = {m}, threads = {threads}");
        assert_eq!(
            kernel_partial::<u32>(seed, n, m, threads),
            oracle,
            "u32, {at}"
        );
        assert_eq!(
            kernel_partial::<usize>(seed, n, m, threads),
            oracle,
            "usize, {at}"
        );
    }
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
fn pipeline_block_edge_lengths_match_the_vendored_shuffle_and_sample() {
    for (seed, n) in PIPELINE_N.into_iter().enumerate() {
        let seed = 100 + seed as u64;
        check_full(seed, n);
        for m in edge_m(n) {
            check_partial(seed, n, m);
        }
    }
}

#[test]
fn value_pools_match_the_values_gathered_through_the_vendored_shuffle() {
    for (seed, n) in EDGE_N.into_iter().chain(PIPELINE_N).enumerate() {
        check_values(200 + seed as u64, n);
    }
}

/// Past the threshold the default entries pipeline on their own (on a
/// host with two or more threads): still the vendored permutation.
#[test]
fn default_entries_match_the_vendored_shuffle_past_the_threshold() {
    let n = PAR_MIN_LEN + 1;
    let data = column(n);
    assert_eq!(kernel_values(6, &data, None), oracle_values(6, &data));
    let mut rng = seeded(7);
    let mut pool = identity::<u32>(n);
    shuffle(&mut rng, &mut pool);
    assert_eq!((widen(&pool), rng.gen::<u64>()), oracle_full(7, n));
    for m in [PAR_MIN_LEN - 1, PAR_MIN_LEN] {
        let mut rng = seeded(8);
        let mut pool = identity::<u32>(n);
        partial_shuffle(&mut rng, &mut pool, m);
        assert_eq!(
            (widen(&pool[..m]), rng.gen::<u64>()),
            oracle_partial(8, n, m),
            "m = {m}"
        );
    }
}

#[test]
#[should_panic(expected = "cannot sample")]
fn oversampling_panics_like_the_vendored_sample() {
    let mut pool = identity::<u32>(2);
    partial_shuffle(&mut seeded(1), &mut pool, 3);
}

/// A generator that panics mid-shuffle on the drawing thread: the panic
/// reaches the caller and the swapping thread is not left waiting.
#[test]
#[should_panic(expected = "coins ran out")]
fn a_panicking_generator_ends_the_pipeline() {
    struct Finite(u64);
    impl rand::RngCore for Finite {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.checked_sub(1).expect("coins ran out");
            self.0
        }
        fn fill_bytes(&mut self, _dest: &mut [u8]) {
            unimplemented!()
        }
    }
    let mut pool = identity::<u32>(3 * PIPELINE_BLOCK);
    shuffle_threads(&mut Finite(2 * PIPELINE_BLOCK as u64), &mut pool, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_shuffle_matches_the_vendored_shuffle(seed in 0u64..u64::MAX, n in 0usize..10_001) {
        check_full(seed, n);
        check_values(seed, n);
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
