//! The kernel determinism contract (DESIGN.md §12), pinned
//! property-style:
//!
//! * the deterministic parallel merge sort produces **bitwise** the
//!   same sequence as the serial `sort_by(f64::total_cmp)` at every
//!   thread count, across `NaN`/`-0.0`/`±inf`/subnormal bit patterns;
//! * the cached pair-gap summary of a snapshot reached by appends is
//!   bitwise identical to a fresh summary built over the concatenated
//!   column (the summary is a pure function of the column), and its
//!   `count_le` matches the naive filter for every threshold.

use proptest::prelude::*;
use updp_empirical::gaps::GapSummary;
use updp_empirical::view::{sorted_copy_threads, PreparedDataset};

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

    /// The gap summary of an append-chain snapshot equals a fresh
    /// summary over the concatenated column, bitwise — and `count_le`
    /// equals the naive filter at every probed threshold.
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

        let cached = next.view().col(0).gap_summary().expect("opt-in propagates");
        let fresh = GapSummary::build(&next.columns()[0]);
        assert_bits_equal(cached.sorted_gaps(), fresh.sorted_gaps(), "gaps");
        prop_assert_eq!(cached.all_finite(), fresh.all_finite());

        for x in [-1.0, -0.0, 0.0, 1e-300, 0.5, 1e3, 1e300, f64::INFINITY, f64::NAN] {
            let naive = fresh
                .sorted_gaps()
                .iter()
                .filter(|&&g| g <= x)
                .count();
            prop_assert_eq!(cached.count_le(x), naive, "threshold {}", x);
        }
    }
}

/// Default-mode snapshots must never build or serve a gap summary —
/// the opt-in is what keeps the experiment suite's draw sequences
/// byte-identical to the historical path.
#[test]
fn gap_summary_is_strictly_opt_in() {
    let plain = PreparedDataset::new(vec![vec![1.0, 5.0, 2.0, 4.0]]);
    assert!(!plain.gap_summaries_enabled());
    assert!(plain.view().col(0).gap_summary().is_none());
    assert!(!plain.view().col(0).has_gap_summary());
    // Appending does not conjure one either.
    let next = plain.append(&[vec![9.0]]);
    assert!(next.view().col(0).gap_summary().is_none());

    let opted = PreparedDataset::new(vec![vec![1.0, 5.0, 2.0, 4.0]]).with_gap_summaries();
    assert!(opted.gap_summaries_enabled());
    assert!(!opted.view().col(0).has_gap_summary(), "lazy until asked");
    let summary = opted.view().col(0).gap_summary().expect("opted in");
    assert!(opted.view().col(0).has_gap_summary());
    // Cached: the same Arc is served again.
    let again = opted.view().col(0).gap_summary().expect("still there");
    assert!(std::sync::Arc::ptr_eq(&summary, &again));
    // And the flag survives appends.
    let next = opted.append(&[vec![3.0, 7.0]]);
    assert!(next.gap_summaries_enabled());
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
