//! The kernel determinism contract (DESIGN.md §12), pinned
//! property-style:
//!
//! * the in-place parallel sort produces **bitwise** the same sequence
//!   as the serial `sort_by(f64::total_cmp)` at every thread count,
//!   across `NaN`/`-0.0`/`±inf`/subnormal bit patterns, and the same
//!   `i64` grid as the serial `sort_unstable`, cuts inside runs of equal
//!   values and past the parallel threshold on the default entries
//!   included;
//! * the cached pair-gap summary of a snapshot reached by appends is
//!   identical to a fresh summary built over the concatenated column
//!   (the summary is a pure function of the column), and its
//!   `count_le_pow2` matches the naive filter over the snapshot-paired
//!   gaps at every power-of-two threshold;
//! * the pair pass (`pair_gaps`, `map_random_pairs`) is bitwise the
//!   same at every thread count, including odd columns and non-finite
//!   records, and past the parallel threshold on the default entries;
//! * it pairs original records: its pairs are those of the vendored
//!   `SliceRandom::shuffle` of the indices `0..n`, adjacent indices
//!   `(p₀, p₁)` giving `(data[p₀], data[p₁])`, in order, with the
//!   generator left in the same state (DESIGN.md §12.3).

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::RngCore;
use updp_core::parallel::{sort_unstable_threads, PAR_MIN_LEN};
use updp_core::rng::{child_rng, seeded};
use updp_empirical::gaps::{
    map_random_pairs, map_random_pairs_threads, pair_gaps, pair_gaps_threads, pow2, GapSummary,
    GAP_PAIRING_SALT,
};
use updp_empirical::view::{sorted_copy, sorted_copy_threads, PreparedDataset};
use updp_empirical::SortedInts;

/// Replaces a mask-selected subset of `values` with adversarial bit
/// patterns (`NaN`, `-0.0`, `±inf`, huge magnitudes, denormals) so the
/// properties cover the full `total_cmp` order, not just "nice" reals.
fn inject_specials(values: &mut [f64], mask: u64) {
    const SPECIALS: [f64; 8] = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        f64::MIN_POSITIVE / 2.0, // a subnormal
    ];
    if values.is_empty() {
        return;
    }
    for bit in 0..64usize {
        if mask & (1 << bit) != 0 {
            let i = bit % values.len();
            values[i] = SPECIALS[bit % SPECIALS.len()];
        }
    }
}

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length diverged");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x:?} vs {y:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel sort ≡ serial `total_cmp` sort, bitwise, at
    /// UPDP_THREADS-equivalent worker counts {1, 2, 8}. Explicit
    /// thread counts (not the env var) keep the property race-free
    /// under the parallel test harness.
    #[test]
    fn parallel_sort_matches_serial_bitwise(
        mut values in prop::collection::vec(-1e6f64..1e6, 0..200),
        mask in 0u64..(1 << 16),
    ) {
        inject_specials(&mut values, mask);
        let serial = {
            let mut v = values.clone();
            v.sort_by(f64::total_cmp);
            v
        };
        for threads in [1usize, 2, 8] {
            let par = sorted_copy_threads(&values, threads);
            assert_bits_equal(&par, &serial, &format!("threads={threads}"));
        }
    }

    /// The in-place kernel over `i64` at explicit worker counts, and
    /// `SortedInts::new`, ≡ the serial `sort_unstable`. Each code picks
    /// a full-range value, one of five small ones, `i64::MIN` or
    /// `i64::MAX`, so runs of equal values that the cuts land inside
    /// are common.
    #[test]
    fn integer_sort_matches_serial(codes in prop::collection::vec(0u64..u64::MAX, 1..300)) {
        let values: Vec<i64> = codes
            .iter()
            .map(|&c| match c % 4 {
                0 => c as i64,
                1 => (c >> 2) as i64 % 5 - 2,
                2 => i64::MIN,
                _ => i64::MAX,
            })
            .collect();
        let mut serial = values.clone();
        serial.sort_unstable();
        let grid = SortedInts::new(values.clone()).unwrap();
        prop_assert_eq!(grid.values(), serial.as_slice());
        for threads in [1usize, 2, 3, 8, 16] {
            let mut par = values.clone();
            sort_unstable_threads(&mut par, threads, i64::cmp);
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }

    /// The pair pass at worker counts {2, 8} ≡ the serial pass, bitwise:
    /// the same gap summary (uncounted NaN/+∞ gaps and the finiteness
    /// bit included) and the same mapped pairs in the same order, with
    /// the generator left in the same state.
    #[test]
    fn pair_pass_matches_serial_bitwise(
        mut values in prop::collection::vec(-1e6f64..1e6, 0..400),
        mask in 0u64..(1 << 16),
        seed in 0u64..u64::MAX,
    ) {
        inject_specials(&mut values, mask);
        let gap = |a: f64, b: f64| (a - b).abs();
        let mut rng = seeded(seed);
        let summary = pair_gaps_threads(&mut rng, &values, 1);
        let after = rng.next_u64();
        let mut rng = seeded(seed);
        let mapped = map_random_pairs_threads(&mut rng, &values, 1, gap);
        prop_assert_eq!(rng.next_u64(), after);
        for threads in [2usize, 8] {
            let mut rng = seeded(seed);
            prop_assert_eq!(&pair_gaps_threads(&mut rng, &values, threads), &summary);
            prop_assert_eq!(rng.next_u64(), after);
            let mut rng = seeded(seed);
            let par = map_random_pairs_threads(&mut rng, &values, threads, gap);
            assert_bits_equal(&par, &mapped, &format!("threads={threads}"));
            prop_assert_eq!(rng.next_u64(), after);
        }
    }

    /// The gap summary of an append-chain snapshot equals a fresh
    /// summary over the concatenated column — and `count_le_pow2`
    /// equals the naive filter at every `pow2` threshold, through its
    /// saturation at both ends.
    #[test]
    fn gap_summary_matches_fresh_scan_over_append_chains(
        mut base in prop::collection::vec(-1e6f64..1e6, 1..48),
        mut delta in prop::collection::vec(-1e6f64..1e6, 0..48),
        base_mask in 0u64..(1 << 16),
        delta_mask in 0u64..(1 << 16),
    ) {
        inject_specials(&mut base, base_mask);
        inject_specials(&mut delta, delta_mask);

        let warm = PreparedDataset::new(vec![base]).with_gap_summaries();
        // Warm the parent's artifacts so the append exercises the
        // carry-forward path (which must drop, not stale-carry, the
        // summary: the pairing depends on the column length).
        let _ = warm.view().col(0).sorted();
        let _ = warm.view().col(0).gap_summary();
        let next = warm.append(&[delta]);

        let column = &next.columns()[0];
        let cached = next.view().col(0).gap_summary().expect("opt-in propagates");
        let fresh = GapSummary::build(column);
        prop_assert_eq!(&*cached, &fresh);

        let mut coins = child_rng(GAP_PAIRING_SALT, column.len() as u64);
        let gaps = map_random_pairs(&mut coins, column, |a, b| (a - b).abs());
        prop_assert_eq!(cached.pairs(), gaps.len());
        for k in -1100..=1100 {
            let x = pow2(k);
            let naive = gaps.iter().filter(|&&g| g <= x).count();
            prop_assert_eq!(cached.count_le_pow2(k), naive, "k {}", k);
        }
    }
}

/// Columns with one non-finite record, placed in the first pair and,
/// for odd columns, on the one record the pairing leaves out (else in
/// the last pair): the uncounted gaps are the same at every thread
/// count, and the left-out record is never read.
#[test]
fn pair_pass_splits_non_finite_records_at_every_thread_count() {
    let gap = |a: f64, b: f64| (a - b).abs();
    for n in [2usize, 3, 9, 64, 65, 1001] {
        let seed = n as u64;
        let finite: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
        let clean = pair_gaps_threads(&mut seeded(seed), &finite, 1);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut seeded(seed));
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [order[0], order[n - 1]] {
                let mut values = finite.clone();
                values[at] = special;
                let serial = pair_gaps_threads(&mut seeded(seed), &values, 1);
                // A paired record's gap is NaN or +∞, counted at no
                // threshold.
                let unpaired = n % 2 == 1 && at == order[n - 1];
                assert_eq!(serial == clean, unpaired, "n = {n}, at = {at}");
                let mapped = map_random_pairs_threads(&mut seeded(seed), &values, 1, gap);
                for threads in [2usize, 8] {
                    let what = format!("n = {n}, at = {at}, threads = {threads}");
                    let par = pair_gaps_threads(&mut seeded(seed), &values, threads);
                    assert_eq!(par, serial, "{what}");
                    let par = map_random_pairs_threads(&mut seeded(seed), &values, threads, gap);
                    assert_bits_equal(&par, &mapped, &what);
                }
            }
        }
    }
}

/// The pairing oracle: the vendored `SliceRandom::shuffle` of the
/// record indices `0..n` on `seed`'s coins, the records of each pair of
/// adjacent indices, in order, and the draw after the shuffle.
fn oracle_pairs(seed: u64, data: &[f64]) -> (Vec<(f64, f64)>, u64) {
    let mut rng = seeded(seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut rng);
    let pairs = order
        .chunks_exact(2)
        .map(|p| (data[p[0]], data[p[1]]))
        .collect();
    (pairs, rng.next_u64())
}

/// `pair_gaps` and `map_random_pairs` against the pairing oracle, on
/// `threads` threads, or the default entries' own count for `None`:
/// the same records in each pair, in the same order, the same gap
/// counts at every power-of-two threshold, and the same next draw.
fn check_pairing(seed: u64, data: &[f64], threads: Option<usize>) {
    let what = format!("n = {}, threads = {threads:?}", data.len());
    let (pairs, after) = oracle_pairs(seed, data);
    let map = |f: fn(f64, f64) -> f64| {
        let mut rng = seeded(seed);
        let mapped = match threads {
            Some(threads) => map_random_pairs_threads(&mut rng, data, threads, f),
            None => map_random_pairs(&mut rng, data, f),
        };
        assert_eq!(rng.next_u64(), after, "{what}: map_random_pairs coins");
        mapped
    };
    let firsts: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let seconds: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    assert_bits_equal(&map(|a, _| a), &firsts, &format!("{what}: firsts"));
    assert_bits_equal(&map(|_, b| b), &seconds, &format!("{what}: seconds"));

    let mut rng = seeded(seed);
    let summary = match threads {
        Some(threads) => pair_gaps_threads(&mut rng, data, threads),
        None => pair_gaps(&mut rng, data),
    };
    assert_eq!(rng.next_u64(), after, "{what}: pair_gaps coins");
    let mut gaps: Vec<f64> = pairs.iter().map(|(a, b)| (a - b).abs()).collect();
    gaps.sort_by(f64::total_cmp);
    assert_eq!(summary.pairs(), gaps.len(), "{what}");
    for k in -1100..=1100 {
        let naive = gaps.partition_point(|&g| g <= pow2(k));
        assert_eq!(summary.count_le_pow2(k), naive, "{what}, k = {k}");
    }
}

/// Odd and even columns, with a NaN, a +∞ and a −∞ record; on odd
/// columns the −∞ is the record the pairing leaves out.
#[test]
fn pair_pass_pairs_the_records_of_the_vendored_index_shuffle() {
    for n in [0usize, 1, 2, 3, 4, 5, 64, 65, 1000, 1001] {
        let seed = 40 + n as u64;
        let mut data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos() * 1e2).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut seeded(seed));
        if n >= 3 {
            data[order[0]] = f64::NAN;
            data[order[n / 2]] = f64::INFINITY;
            data[order[n - 1]] = f64::NEG_INFINITY;
        }
        for threads in [1, 2] {
            check_pairing(seed, &data, Some(threads));
        }
    }
}

/// Past the threshold the default entries fill and shuffle on two
/// threads (on a host with two or more): still the oracle's pairs.
#[test]
fn default_pair_pass_pairs_the_records_of_the_vendored_index_shuffle() {
    let n = PAR_MIN_LEN + 1;
    let mut data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 50.0).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut seeded(13));
    data[order[1]] = f64::NAN;
    data[order[n - 1]] = f64::INFINITY;
    check_pairing(13, &data, None);
}

/// Past the threshold the default entries run the pass on two threads
/// (on a host with two or more): still the serial pass's bits.
#[test]
fn default_pair_pass_matches_serial_past_the_threshold() {
    let n = PAR_MIN_LEN + 1;
    let mut values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 50.0).collect();
    values[n / 3] = f64::NAN;
    let square = |a: f64, b: f64| (a - b) * (a - b);
    let mut rng = seeded(11);
    let summary = pair_gaps(&mut rng, &values);
    let after = rng.next_u64();
    let mut rng = seeded(11);
    assert_eq!(summary, pair_gaps_threads(&mut rng, &values, 1));
    assert_eq!(rng.next_u64(), after);
    let mut rng = seeded(12);
    let mapped = map_random_pairs(&mut rng, &values, square);
    let after = rng.next_u64();
    let mut rng = seeded(12);
    let serial = map_random_pairs_threads(&mut rng, &values, 1, square);
    assert_bits_equal(&mapped, &serial, "map_random_pairs");
    assert_eq!(rng.next_u64(), after);
}

/// Default-mode snapshots must never build or serve a gap summary —
/// the opt-in is what keeps the experiment suite's draw sequences
/// byte-identical to the historical path.
#[test]
fn gap_summary_is_strictly_opt_in() {
    let plain = PreparedDataset::new(vec![vec![1.0, 5.0, 2.0, 4.0]]);
    assert!(plain.view().col(0).gap_summary().is_none());
    assert!(!plain.view().col(0).has_gap_summary());
    // Appending does not conjure one either.
    let next = plain.append(&[vec![9.0]]);
    assert!(next.view().col(0).gap_summary().is_none());

    let opted = PreparedDataset::new(vec![vec![1.0, 5.0, 2.0, 4.0]]).with_gap_summaries();
    assert!(!opted.view().col(0).has_gap_summary(), "lazy until asked");
    let summary = opted.view().col(0).gap_summary().expect("opted in");
    assert!(opted.view().col(0).has_gap_summary());
    // Cached: the same Arc is served again.
    let again = opted.view().col(0).gap_summary().expect("still there");
    assert!(std::sync::Arc::ptr_eq(&summary, &again));
    // And the opt-in survives appends.
    let next = opted.append(&[vec![3.0, 7.0]]);
    assert!(
        !next.view().col(0).has_gap_summary(),
        "summary is rebuilt, never stale-carried"
    );
    assert!(next.view().col(0).gap_summary().is_some());
}

/// The worst-case column for the sort: every special value duplicated.
/// Deterministic companion to the proptest, pinning the exact NaN and
/// signed-zero layout at several thread counts.
#[test]
fn parallel_sort_nan_and_signed_zero_layout() {
    let values = vec![
        1.0,
        -0.0,
        0.0,
        f64::NAN,
        -1.0,
        0.0,
        -0.0,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE / 2.0,
    ];
    let mut serial = values.clone();
    serial.sort_by(f64::total_cmp);
    for threads in [1usize, 2, 3, 8, 16] {
        let par = sorted_copy_threads(&values, threads);
        assert_bits_equal(&par, &serial, &format!("threads={threads}"));
    }
    // total_cmp layout sanity: -NaN would sort first, +NaN last; -0.0
    // sorts before +0.0.
    assert!(serial.last().unwrap().is_nan());
    let zero_bits: Vec<u64> = serial
        .iter()
        .filter(|x| **x == 0.0)
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(
        zero_bits,
        vec![(-0.0f64).to_bits(), (-0.0f64).to_bits(), 0, 0]
    );
}

/// Columns whose every cut lands inside a run: all equal, two-valued,
/// and the `i64` extremes around zero.
#[test]
fn integer_sort_cuts_inside_runs() {
    let columns: [Vec<i64>; 3] = [
        vec![7; 101],
        (0..101)
            .map(|i| if i % 3 == 0 { i64::MAX } else { -1 })
            .collect(),
        (0..101).map(|i| [i64::MIN, i64::MAX, 0][i % 3]).collect(),
    ];
    for values in columns {
        let mut serial = values.clone();
        serial.sort_unstable();
        for threads in [1usize, 2, 3, 8, 16, 101, 200] {
            let mut par = values.clone();
            sort_unstable_threads(&mut par, threads, i64::cmp);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }
}

/// Around the threshold the default entries (`SortedInts::new`,
/// `sorted_copy`) split the sort on their own (on a host with two or
/// more threads): still the serial sort's values and bits.
#[test]
fn default_sorts_match_serial_around_the_threshold() {
    for n in [PAR_MIN_LEN - 1, PAR_MIN_LEN, PAR_MIN_LEN + 1] {
        let ints: Vec<i64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as i64 - 2048)
            .collect();
        let mut serial = ints.clone();
        serial.sort_unstable();
        assert_eq!(
            SortedInts::new(ints.clone()).unwrap().values(),
            serial,
            "n = {n}"
        );

        let mut floats: Vec<f64> = ints.iter().map(|&i| i as f64 * 0.5).collect();
        floats[n / 3] = f64::NAN;
        floats[n / 2] = -0.0;
        floats[n / 4] = 0.0;
        let mut serial = floats.clone();
        serial.sort_by(f64::total_cmp);
        assert_bits_equal(&sorted_copy(&floats), &serial, &format!("n = {n}"));
    }
}
