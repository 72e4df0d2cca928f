//! Randomness plumbing.
//!
//! Every mechanism takes `&mut impl Rng` so that experiments and tests can
//! supply deterministic, per-trial seeded generators; an application that
//! wants OS entropy seeds one at its own boundary, outside determinism
//! scope. Helper functions here derive independent child seeds from a
//! master seed (SplitMix64), which keeps many-trial experiments
//! reproducible without correlated streams.
//!
//! Security note: a DP deployment should draw noise from a CSPRNG. The
//! vendored `rand` shim's `StdRng` is xoshiro256++ — statistically
//! strong but not cryptographic (DESIGN.md §1.2); restoring upstream
//! `rand` swaps ChaCha12 back in behind the same API. Separately, the
//! floating-point Laplace sampler in [`crate::laplace`] is the textbook
//! inverse-CDF construction used by the paper's analysis, not hardened
//! against the Mironov floating-point attack; [`crate::snapping`] is the
//! hardened release path (DESIGN.md §1.3).
//!
//! The one Fisher–Yates swap loop of the workspace also lives here,
//! behind two entries that shuffle a copy of the caller's values:
//! [`shuffled`] (the whole column) and [`subsample`] (the first `m`
//! steps, cut to those `m` values). The serial kernel is the plain
//! step loop: draw a target, swap, repeat. From
//! [`PAR_MIN_LEN`](crate::parallel::PAR_MIN_LEN) steps up the draws and
//! the swaps run on two threads: the caller keeps the generator and
//! draws blocks of [`PIPELINE_BLOCK`] targets ahead, and one scoped
//! thread owns the copy and applies them. Draws, swap order and
//! trailing generator state are those of the vendored
//! `SliceRandom::shuffle` and `seq::index::sample`, which draw the same
//! targets whatever the pool holds, so value `k` of the copy is
//! `data[π(k)]` for the permutation `π` they give the indices `0..n`, at
//! any thread count (DESIGN.md §12.3).

use crate::parallel::{par_fill, threads_for};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::mpsc;

/// Creates a deterministic RNG from a 64-bit seed.
///
/// Library code on the released-value path derives its generators with
/// [`child_rng`] instead; the root `clippy.toml` lists this constructor
/// as disallowed there (DESIGN.md §1.1, §9). Tests, examples and
/// binaries seed directly.
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one call of seed_from_u64"
)]
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The generator for child `index` of `master`:
/// `seeded(child_seed(master, index))`. This is how library code makes
/// an RNG, so every stream traces to the §1.1 seed tree.
#[expect(
    clippy::disallowed_methods,
    reason = "child_rng is the sanctioned constructor: its seed is a child_seed by construction"
)]
pub fn child_rng(master: u64, index: u64) -> StdRng {
    seeded(child_seed(master, index))
}

/// SplitMix64 step: derives a well-mixed child seed from `state`.
///
/// Used to fan a master experiment seed out into independent per-trial
/// seeds: `child_seed(master, trial_index)`.
#[inline]
pub fn child_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Fisher–Yates steps per block that the pipelined kernel hands from
/// the drawing thread to the swapping thread.
pub const PIPELINE_BLOCK: usize = 1 << 14;

/// Blocks in flight between the two threads of the pipelined kernel:
/// one is drawn while the other is applied, and their buffers are
/// reused.
const PIPELINE_DEPTH: usize = 2;

/// The values of `data` in a uniform random order drawn from `rng`:
/// `data[π(k)]` at `k`, for the permutation `π` and trailing generator
/// state that the vendored `SliceRandom::shuffle` gives `0..n`
/// (`j = gen_range(0..i + 1)` for `i = n − 1, …, 1`). The copy is
/// filled in `threads` parts, so a large one's fresh pages fault in on
/// every thread; 1 thread runs the serial kernel and starts none, 2 or
/// more pipeline the shuffle at any length. The result is the same
/// either way.
pub fn shuffled<T, R>(rng: &mut R, data: &[T], threads: usize) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
    R: Rng + ?Sized,
{
    let mut values = copy(data, threads);
    let rows = (1..values.len()).rev();
    fisher_yates(
        rng,
        &mut values,
        rows.clone(),
        rows.map(|i| 0..i + 1),
        threads,
    );
    values
}

/// `m` values of `data` drawn without replacement, in draw order: the
/// values at the indices, and the trailing generator state, of the
/// vendored `seq::index::sample(rng, data.len(), m)`
/// (`j = gen_range(i..n)` for `i = 0, …, m − 1`). This is the subsample
/// `D′` of Algorithms 8 and 9. Pipelined on two threads from
/// [`PAR_MIN_LEN`](crate::parallel::PAR_MIN_LEN) steps (`m`) up,
/// whatever the column's length (see [`subsample_threads`]).
///
/// Panics if `m > data.len()`, matching `seq::index::sample`.
pub fn subsample<T, R>(rng: &mut R, data: &[T], m: usize) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
    R: Rng + ?Sized,
{
    subsample_threads(rng, data, m, threads_for(m))
}

/// [`subsample`] with an explicit thread count, as in [`shuffled`]:
/// the first `m` steps of a partial shuffle of a copy of `data`, which
/// is then cut to those `m` values.
pub fn subsample_threads<T, R>(rng: &mut R, data: &[T], m: usize, threads: usize) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
    R: Rng + ?Sized,
{
    let n = data.len();
    assert!(m <= n, "cannot sample {m} indices from 0..{n}");
    let mut values = copy(data, threads);
    fisher_yates(rng, &mut values, 0..m, (0..m).map(|i| i..n), threads);
    values.truncate(m);
    values.shrink_to_fit();
    values
}

/// A copy of `data`, filled in `threads` parts.
fn copy<T: Copy + Default + Send + Sync>(data: &[T], threads: usize) -> Vec<T> {
    let mut values = vec![T::default(); data.len()];
    par_fill(threads, &mut values, data, <[T]>::copy_from_slice);
    values
}

/// The Fisher–Yates kernel: step `k` swaps `pool[i]` with
/// `pool[gen_range(range)]`, for the `k`-th `i` of `rows` and `range` of
/// `ranges`. Below two threads it runs that loop as written.
/// Otherwise the caller's thread keeps `rng` and draws the targets of
/// [`PIPELINE_BLOCK`] steps at a time, and one scoped thread owns the
/// pool and `rows` and [`apply`]s the targets in the order drawn. A
/// target depends only on the generator and the step's range, never on
/// the pool, so drawing ahead consumes the same `u64` stream, and the
/// swaps run in the same order: the result is the plain step-by-step
/// loop's either way, whatever the pool holds.
fn fisher_yates<T: Send, R: Rng + ?Sized>(
    rng: &mut R,
    pool: &mut [T],
    mut rows: impl Iterator<Item = usize> + Send,
    mut ranges: impl Iterator<Item = Range<usize>>,
    threads: usize,
) {
    if threads <= 1 {
        for (i, range) in rows.zip(ranges) {
            pool.swap(i, rng.gen_range(range));
        }
        return;
    }
    let (full_tx, full_rx) = mpsc::channel::<Vec<usize>>();
    let (empty_tx, empty_rx) = mpsc::channel();
    for _ in 0..PIPELINE_DEPTH {
        // The receiver is alive: this send cannot fail.
        let _ = empty_tx.send(Vec::with_capacity(PIPELINE_BLOCK));
    }
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for block in full_rx {
                apply(pool, &mut rows, &block);
                // A closed return channel means the drawing side is
                // done; the buffer is no longer needed.
                let _ = empty_tx.send(block);
            }
        });
        // Ends when the steps run out, or early if the swapping thread
        // has died, whose panic the scope then re-raises. Dropping
        // `full_tx` (also on a panic in `rng`) ends the swapping loop.
        while let Ok(mut block) = empty_rx.recv() {
            block.clear();
            block.extend(
                ranges
                    .by_ref()
                    .take(PIPELINE_BLOCK)
                    .map(|r| rng.gen_range(r)),
            );
            if block.is_empty() || full_tx.send(block).is_err() {
                break;
            }
        }
        drop(full_tx);
    });
}

/// Applies the next `targets.len()` steps in order, taking their `i`s
/// from `rows`.
fn apply<T>(pool: &mut [T], rows: &mut impl Iterator<Item = usize>, targets: &[usize]) {
    for (&j, i) in targets.iter().zip(rows) {
        pool.swap(i, j);
    }
}

/// Replays a fixed list of raw 64-bit outputs, then panics: a
/// generator that puts chosen uniforms in front of the Gumbel samplers.
#[cfg(test)]
pub(crate) struct Scripted(pub(crate) std::vec::IntoIter<u64>);

#[cfg(test)]
impl rand::RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("script exhausted")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unimplemented!()
    }
}

/// The raw output that `Rng::gen::<f64>` maps to `k · 2⁻⁵³`.
#[cfg(test)]
pub(crate) fn raw_uniform(k: u64) -> u64 {
    k << 11
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn child_rng_is_the_seeded_child_seed() {
        let mut a = child_rng(7, 3);
        let mut b = seeded(child_seed(7, 3));
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn child_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(child_seed(7, i)), "collision at index {i}");
        }
    }

    #[test]
    fn child_seed_depends_on_master() {
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    #[test]
    fn same_master_reproduces_child_streams_exactly() {
        // The contract experiments rely on: one integer (the master
        // seed) pins down every per-trial generator bit-for-bit —
        // across processes and machines, not merely within this run.
        // Golden values pin the exact streams; if the generator behind
        // `StdRng` is ever swapped (e.g. restoring upstream ChaCha12),
        // this test fails and the stored experiment outputs must be
        // consciously regenerated alongside these constants.
        let master = 0xDECA_FBAD;
        let golden: [(u64, u64, [u64; 3]); 3] = [
            (
                0,
                0x96ba_75ba_ddc1_b3bd,
                [
                    0xceab_87be_1b77_defc,
                    0x78be_1f0b_c37e_7981,
                    0x4f03_f155_4783_48b1,
                ],
            ),
            (
                1,
                0xf826_3722_a16d_6aa5,
                [
                    0x72ed_44e7_54cc_f072,
                    0x4c80_d58b_2ff9_60a4,
                    0x6d7c_0404_2c44_3099,
                ],
            ),
            (
                7,
                0x223c_bd02_9858_b0d0,
                [
                    0xc493_16eb_e1e5_3ed1,
                    0xd852_73ba_43b8_ac4a,
                    0xe3ad_2754_ac33_6378,
                ],
            ),
        ];
        for (trial, expected_seed, expected_draws) in golden {
            assert_eq!(child_seed(master, trial), expected_seed);
            let mut rng = seeded(expected_seed);
            for expected in expected_draws {
                assert_eq!(rng.gen::<u64>(), expected);
            }
        }
    }

    /// The vendored `index::sample` gathered from `data`, and the next
    /// draw.
    fn oracle_subsample(seed: u64, data: &[f64], m: usize) -> (Vec<f64>, u64) {
        let mut rng = seeded(seed);
        let idx = rand::seq::index::sample(&mut rng, data.len(), m);
        (idx.iter().map(|i| data[i]).collect(), rng.gen())
    }

    #[test]
    fn subsample_matches_vendored_index_sample_bitwise() {
        let data: Vec<f64> = (0..257).map(|i| f64::from(i).sin()).collect();
        for (m, seed) in [(1usize, 1u64), (16, 2), (100, 3), (257, 4)] {
            let mut rng = seeded(seed);
            let got = subsample(&mut rng, &data, m);
            // The generator must be left in the identical state.
            assert_eq!(
                (got, rng.gen()),
                oracle_subsample(seed, &data, m),
                "m = {m}"
            );
        }
    }

    /// Past the threshold the partial shuffle under the subsample is
    /// pipelined (on a host with two or more threads): still the
    /// vendored sample.
    #[test]
    fn pipelined_subsample_matches_vendored_index_sample() {
        let data: Vec<f64> = (0..1 << 18).map(|i| f64::from(i).sqrt()).collect();
        let m = crate::parallel::PAR_MIN_LEN + 1;
        let mut rng = seeded(5);
        let got = subsample(&mut rng, &data, m);
        assert_eq!((got, rng.gen()), oracle_subsample(5, &data, m));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_a_subsample_panics_like_upstream() {
        subsample(&mut seeded(10), &[1.0, 2.0], 3);
    }

    #[test]
    fn distinct_trial_indices_give_uncorrelated_streams() {
        // Smoke test, not a statistical certificate: adjacent trial
        // streams must (a) differ, and (b) show no visible linear
        // correlation in their uniform draws. For independent uniforms
        // the sample correlation over n = 4096 draws is ~N(0, 1/n);
        // |r| < 0.08 is a > 5σ envelope.
        let master = 7;
        let n = 4096;
        for trial in 0..8u64 {
            let mut a = seeded(child_seed(master, trial));
            let mut b = seeded(child_seed(master, trial + 1));
            let xs: Vec<f64> = (0..n).map(|_| a.gen::<f64>()).collect();
            let ys: Vec<f64> = (0..n).map(|_| b.gen::<f64>()).collect();
            assert_ne!(xs, ys, "adjacent trials produced identical streams");
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let (mx, my) = (mean(&xs), mean(&ys));
            let cov: f64 = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| (x - mx) * (y - my))
                .sum::<f64>();
            let var = |v: &[f64], m: f64| v.iter().map(|x| (x - m).powi(2)).sum::<f64>();
            let r = cov / (var(&xs, mx) * var(&ys, my)).sqrt();
            assert!(
                r.abs() < 0.08,
                "trials {trial} and {} correlate: r = {r}",
                trial + 1
            );
        }
    }
}
