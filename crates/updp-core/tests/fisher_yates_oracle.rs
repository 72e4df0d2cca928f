//! The Fisher–Yates kernel (`updp_core::rng::{shuffled, subsample}`)
//! against its oracles, the vendored `SliceRandom::shuffle` and
//! `seq::index::sample`: the same permutation or sample, and the same
//! next `u64` drawn afterwards, on `u32` and `usize` index columns
//! `0..n` and on `f64` columns (whose copies must hold the values
//! gathered through the vendored indices), serial and pipelined on two
//! threads.

use proptest::prelude::*;
use rand::seq::{index, SliceRandom};
use rand::Rng;
use updp_core::parallel::PAR_MIN_LEN;
use updp_core::rng::{seeded, shuffled, subsample, subsample_threads, PIPELINE_BLOCK};

/// Short lengths, and those around 64 and 128 steps.
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

/// An index type for the columns `0..n`.
trait Index: Copy + Default + Send + Sync {
    fn from_usize(i: usize) -> Self;
    fn to_usize(self) -> usize;
}

impl Index for u32 {
    fn from_usize(i: usize) -> Self {
        u32::try_from(i).expect("test columns are short")
    }
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl Index for usize {
    fn from_usize(i: usize) -> Self {
        i
    }
    fn to_usize(self) -> usize {
        self
    }
}

/// The index column `0..n` of type `I`.
fn indices<I: Index>(n: usize) -> Vec<I> {
    (0..n).map(I::from_usize).collect()
}

fn widen<I: Index>(values: &[I]) -> Vec<usize> {
    values.iter().map(|i| i.to_usize()).collect()
}

/// The kernel's shuffle of `0..n` of type `I` on `threads` threads,
/// and the next draw.
fn kernel_full<I: Index>(seed: u64, n: usize, threads: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let values = shuffled(&mut rng, &indices::<I>(n), threads);
    (widen(&values), rng.gen())
}

/// The vendored full shuffle of `0..n`, and the next draw.
fn oracle_full(seed: u64, n: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    pool.shuffle(&mut rng);
    (pool, rng.gen())
}

/// A column of `n` values, with a NaN, both infinities and −0.0
/// among them.
fn column(n: usize) -> Vec<f64> {
    let mut data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 1e3).collect();
    for (at, special) in [
        (n / 2, f64::NAN),
        (n / 3, f64::INFINITY),
        (n / 5, f64::NEG_INFINITY),
        (n / 7, -0.0),
    ] {
        if at < n {
            data[at] = special;
        }
    }
    data
}

/// The bits of the kernel's shuffle of `data` on `threads` threads,
/// and the next draw.
fn kernel_values(seed: u64, data: &[f64], threads: usize) -> (Vec<u64>, u64) {
    let mut rng = seeded(seed);
    let values = shuffled(&mut rng, data, threads);
    (bits(&values), rng.gen())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
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
        assert_eq!(kernel_values(seed, &data, threads), oracle, "{at}");
    }
}

/// The kernel's `m`-sample of `0..n` of type `I` on `threads`
/// threads, and the next draw.
fn kernel_partial<I: Index>(seed: u64, n: usize, m: usize, threads: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let values = subsample_threads(&mut rng, &indices::<I>(n), m, threads);
    (widen(&values), rng.gen())
}

/// The vendored `index::sample(n, m)`, and the next draw.
fn oracle_partial(seed: u64, n: usize, m: usize) -> (Vec<usize>, u64) {
    let mut rng = seeded(seed);
    let sample = index::sample(&mut rng, n, m).into_vec();
    (sample, rng.gen())
}

/// Sample sizes at 0, 1, around 64 and 128 steps, around the
/// pipeline's block boundary and at `n` itself.
fn edge_m(n: usize) -> Vec<usize> {
    let p = PIPELINE_BLOCK;
    let mut ms = vec![0, 1, 63, 64, 65, 127, 128, 129, p - 1, p, p + 1, n];
    ms.retain(|&m| m <= n);
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Checks both index columns at both thread counts.
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

/// Checks both index columns and an `f64` column, whose sample must be
/// its values gathered through the vendored indices, at both thread
/// counts.
fn check_partial(seed: u64, n: usize, m: usize) {
    let oracle = oracle_partial(seed, n, m);
    let data = column(n);
    let gathered = (
        oracle.0.iter().map(|&i| data[i].to_bits()).collect(),
        oracle.1,
    );
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
        let mut rng = seeded(seed);
        let values = subsample_threads(&mut rng, &data, m, threads);
        assert_eq!((bits(&values), rng.gen()), gathered, "f64, {at}");
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
fn value_columns_match_the_values_gathered_through_the_vendored_shuffle() {
    for (seed, n) in EDGE_N.into_iter().chain(PIPELINE_N).enumerate() {
        check_values(200 + seed as u64, n);
    }
}

/// Past the threshold the default subsample pipelines on its own (on a
/// host with two or more threads): still the vendored sample.
#[test]
fn default_subsample_matches_the_vendored_sample_past_the_threshold() {
    let n = PAR_MIN_LEN + 1;
    let data = indices::<u32>(n);
    for m in [PAR_MIN_LEN - 1, PAR_MIN_LEN] {
        let mut rng = seeded(8);
        let values = subsample(&mut rng, &data, m);
        assert_eq!(
            (widen(&values), rng.gen::<u64>()),
            oracle_partial(8, n, m),
            "m = {m}"
        );
    }
}

#[test]
#[should_panic(expected = "cannot sample")]
fn oversampling_panics_like_the_vendored_sample() {
    subsample(&mut seeded(1), &[0u32, 1], 3);
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
    let data = indices::<u32>(3 * PIPELINE_BLOCK);
    shuffled(&mut Finite(2 * PIPELINE_BLOCK as u64), &data, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_shuffle_matches_the_vendored_shuffle(seed in 0u64..u64::MAX, n in 0usize..10_001) {
        check_full(seed, n);
        check_values(seed, n);
    }

    #[test]
    fn subsample_matches_the_vendored_sample(
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
