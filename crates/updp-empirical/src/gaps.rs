//! The pair-gap structure of Algorithms 7 and 9 (DESIGN.md §12.3).
//!
//! Both algorithms "randomly group the elements in D into pairs".
//! [`map_random_pairs`] is that step, once: shuffle the record indices,
//! pair them up, and map each pair. Algorithm 9 maps a pair to its
//! squared gap; Algorithm 7 maps it to the absolute gap `|X − X′|` and
//! asks one counting query, `|{g : g ≤ x}|`, answered by
//! [`GapSummary::count_le`]. A summary has two pairing sources:
//!
//! * [`pair_gaps`] takes the permutation from the mechanism's coins and
//!   keeps the gaps unsorted: the bare path, used by the experiments;
//! * [`GapSummary::build`] takes it from
//!   `child_rng(GAP_PAIRING_SALT, n)`, a pure function of the column
//!   length, and sorts the gaps once. The result is cache-legal, so the
//!   serving cache builds one per snapshot
//!   ([`crate::view::ColumnCache`]).
//!
//! Two properties carry the privacy and robustness arguments, for
//! either source:
//!
//! * **Sensitivity 1.** The permutation pairs **original data indices**
//!   and is independent of the data values. Replacing record `j`
//!   perturbs exactly the one gap whose pair contains `j`, so counting
//!   queries on the gap multiset have sensitivity 1. (Pairing *sorted
//!   positions* would break this: one replacement shifts a contiguous
//!   block of sorted ranks and could perturb O(n) gaps.)
//! * **Robustness to adversarial input order.** The pairing is a
//!   full-entropy pseudorandom permutation, not consecutive or strided,
//!   so no arrangement of a hostile caller's rows (sorted, periodic)
//!   can force all gaps to collapse.

use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use updp_core::rng::child_rng;

use crate::view::sorted_copy;

/// Domain-separation salt for the pairing permutation seed. Any fixed
/// odd constant works; it only needs to differ from the trial-engine
/// masters so a snapshot's pairing never aliases a mechanism stream.
pub const GAP_PAIRING_SALT: u64 = 0x9a7_9a17_9a17;

/// In-range linear scans [`GapSummary::count_le`] performs on unsorted
/// gaps before sorting them once and switching to binary search.
/// Typical Algorithm 7 runs probe only a handful of in-range thresholds
/// and never reach this; gaps spread over hundreds of octaves do.
const LINEAR_SCAN_BUDGET: usize = 32;

/// Randomly groups `data` into `⌊n/2⌋` pairs of original indices (a
/// uniform shuffle drawn from `rng`, then consecutive indices of the
/// shuffle) and maps each pair `(data[i], data[j])` through `f`. With
/// odd `n` the last shuffled index is left out.
pub fn map_random_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    f: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(rng);
    idx.chunks_exact(2)
        .map(|p| f(data[p[0]], data[p[1]]))
        .collect()
}

/// The absolute gaps `G = {|X − X′|}` of a random pairing drawn from
/// the mechanism's coins `rng`, unsorted.
///
/// Public so the benchmark can time the pair-gap stage on its own.
pub fn pair_gaps<R: Rng + ?Sized>(rng: &mut R, data: &[f64]) -> GapSummary {
    let gaps = map_random_pairs(rng, data, |a, b| (a - b).abs());
    GapSummary::from_gaps(data, gaps)
}

/// The pair-gap multiset of one column, answering `|{g : g ≤ x}|`.
///
/// Besides the gaps it keeps a range summary (`zeros`, smallest
/// positive gap, largest gap) that answers thresholds outside the gap
/// range in O(1): the SVT searches of Algorithm 7 only pay for probes
/// inside it, and the all-identical-data descent (which runs to the SVT
/// cap) costs O(1) per step. Inside the range, unsorted gaps are
/// scanned linearly; after 32 scans they are sorted once, and sorted
/// gaps answer by `partition_point`. The lazy sort is thread-safe, so
/// a cached summary can be shared via `Arc`.
#[derive(Debug)]
pub struct GapSummary {
    all_finite: bool,
    pairs: usize,
    zeros: usize,
    min_positive: f64,
    max: f64,
    has_nan: bool,
    /// Gaps in pairing order; empty when the summary was built sorted.
    unsorted: Vec<f64>,
    /// Relaxed: the count only decides when to sort; the sorted gaps
    /// are published by the `OnceLock`.
    linear_scans: AtomicUsize,
    sorted: OnceLock<Vec<f64>>,
}

impl GapSummary {
    /// Builds the cache-legal summary of a column snapshot: the pairing
    /// permutation comes from `child_rng(GAP_PAIRING_SALT, n)`, and the
    /// gaps are sorted by `total_cmp` once. Only the sorted copy is kept.
    pub fn build(data: &[f64]) -> Self {
        let mut summary = pair_gaps(&mut child_rng(GAP_PAIRING_SALT, data.len() as u64), data);
        let unsorted = std::mem::take(&mut summary.unsorted);
        summary.sorted = OnceLock::from(sorted_copy(&unsorted));
        summary
    }

    fn from_gaps(data: &[f64], gaps: Vec<f64>) -> Self {
        let mut zeros = 0usize;
        let mut min_positive = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut has_nan = false;
        for &g in &gaps {
            // A gap is exactly 0.0 iff the two records are equal; any
            // positive gap however small belongs in `min_positive`.
            if g == 0.0 {
                zeros += 1;
            } else if g < min_positive {
                min_positive = g;
            }
            if g > max {
                max = g;
            }
            // NaN (only from non-finite records) disables the range
            // shortcuts so counts stay exact for any input.
            has_nan |= g.is_nan();
        }
        GapSummary {
            all_finite: data.iter().all(|x| x.is_finite()),
            pairs: gaps.len(),
            zeros,
            min_positive,
            max,
            has_nan,
            unsorted: gaps,
            linear_scans: AtomicUsize::new(0),
            sorted: OnceLock::new(),
        }
    }

    /// Number of gap pairs (`⌊records/2⌋`).
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Whether every record of the column is finite, so consumers can
    /// replace their O(n) `ensure_finite` scan with an O(1) check.
    pub fn all_finite(&self) -> bool {
        self.all_finite
    }

    /// `|{g : g ≤ x}|`, exactly `partition_point(v ≤ x)` on the
    /// `total_cmp`-sorted gaps, for every `x` including NaN, ±inf and
    /// −0.0. `abs()` clears sign bits, so gaps are `≥ 0.0` or `+NaN`;
    /// NaNs sort last and `v <= x` is false for them, so the predicate
    /// is prefix-true on the sorted gaps.
    ///
    /// O(1) outside `[smallest positive gap, largest gap]`; inside it,
    /// O(log n) on sorted gaps and O(n) on unsorted ones until the scan
    /// budget is spent.
    pub fn count_le(&self, x: f64) -> usize {
        if x < 0.0 {
            return 0;
        }
        if !self.has_nan {
            if x < self.min_positive {
                // Only the exactly-zero gaps are ≤ x (covers x = ±0.0).
                return self.zeros;
            }
            if x >= self.max {
                return self.pairs;
            }
        }
        if self.sorted.get().is_none()
            && self.linear_scans.fetch_add(1, Ordering::Relaxed) < LINEAR_SCAN_BUDGET
        {
            return self.unsorted.iter().filter(|&&v| v <= x).count();
        }
        self.sorted_gaps().partition_point(|&v| v <= x)
    }

    /// The `total_cmp`-sorted gaps (sorting them now if they are not).
    pub fn sorted_gaps(&self) -> &[f64] {
        self.sorted.get_or_init(|| sorted_copy(&self.unsorted))
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn reference_count(gaps: &[f64], x: f64) -> usize {
        let mut sorted = gaps.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted.partition_point(|&v| v <= x)
    }

    const PROBES: [f64; 8] = [
        -1.0,
        -0.0,
        0.0,
        1e-300,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
    ];

    #[test]
    fn summary_is_deterministic_per_snapshot() {
        let data: Vec<f64> = (0..101).map(|i| (i as f64) * 1.37 - 50.0).collect();
        let a = GapSummary::build(&data);
        let b = GapSummary::build(&data);
        let bits =
            |s: &GapSummary| -> Vec<u64> { s.sorted_gaps().iter().map(|g| g.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.pairs(), 50);
        assert!(a.all_finite());
        assert!(a.unsorted.is_empty(), "a built summary keeps one copy");
    }

    #[test]
    fn build_is_pair_gaps_on_the_snapshot_coins() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 37) % 64) as f64 * 0.5).collect();
        let built = GapSummary::build(&data);
        let paired = pair_gaps(&mut child_rng(GAP_PAIRING_SALT, 64), &data);
        assert_eq!(built.sorted_gaps(), paired.sorted_gaps());
    }

    #[test]
    fn pairing_depends_on_length_not_values() {
        let a = GapSummary::build(&[1.0, 2.0, 3.0, 4.0]);
        let b = GapSummary::build(&[10.0, 20.0, 30.0, 40.0]);
        let scaled: Vec<f64> = a.sorted_gaps().iter().map(|g| g * 10.0).collect();
        assert_eq!(scaled, b.sorted_gaps());
    }

    #[test]
    fn pair_gaps_shape_and_determinism() {
        let data = [1.0, 4.0, 10.0, 3.0, 5.0];
        let ga = pair_gaps(&mut seeded(1), &data);
        let gb = pair_gaps(&mut seeded(1), &data);
        assert_eq!(ga.unsorted, gb.unsorted, "same coins, same pairing");
        assert_eq!(ga.pairs(), 2, "n = 5 yields 2 pairs");
        assert!(ga.unsorted.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn count_le_matches_sorted_partition_point() {
        // Every SVT threshold, on both pairing sources.
        let mut rng = seeded(42);
        let data: Vec<f64> = (0..501).map(|_| rng.gen::<f64>() * 16.0 - 8.0).collect();
        let unsorted = pair_gaps(&mut rng, &data);
        let gaps = unsorted.unsorted.clone();
        let built = GapSummary::build(&data);
        let built_gaps = built.sorted_gaps().to_vec();
        let thresholds = (-40i32..40).map(|k| 2f64.powi(k)).chain(PROBES);
        for x in thresholds {
            assert_eq!(unsorted.count_le(x), reference_count(&gaps, x), "x={x}");
            assert_eq!(built.count_le(x), reference_count(&built_gaps, x), "x={x}");
        }
    }

    #[test]
    fn count_le_sorted_fallback_stays_exact() {
        // Exhaust the scan budget with in-range probes; the lazily
        // sorted binary search must return the counts the scans did.
        let mut rng = seeded(12);
        let data: Vec<f64> = (0..400).map(|_| rng.gen::<f64>() * 1e6).collect();
        let summary = pair_gaps(&mut rng, &data);
        let gaps = summary.unsorted.clone();
        for k in 0..(LINEAR_SCAN_BUDGET * 3) {
            // Gaps lie in (0, 1e6); thresholds 1e3 … 9.6e4 fall inside.
            let x = 1e3 * (k + 1) as f64;
            assert_eq!(summary.count_le(x), reference_count(&gaps, x), "probe {k}");
        }
        assert!(summary.sorted.get().is_some(), "budget spent, gaps sorted");
    }

    #[test]
    fn count_le_exact_with_nan_gaps() {
        let data = [1.0, f64::NAN, 3.0, 8.0, 2.0, 2.0, f64::INFINITY, 5.0];
        let summary = pair_gaps(&mut seeded(11), &data);
        let built = GapSummary::build(&data);
        assert!(!summary.all_finite() && !built.all_finite());
        let gaps = summary.unsorted.clone();
        for x in [2.0, 5.0, 1e300].into_iter().chain(PROBES) {
            assert_eq!(summary.count_le(x), reference_count(&gaps, x), "x={x}");
            assert_eq!(built.count_le(x), reference_count(built.sorted_gaps(), x));
        }
        assert_eq!(built.count_le(f64::NAN), 0);
    }

    #[test]
    fn degenerate_and_tiny_inputs() {
        // All-identical data: every gap is zero, answered in O(1).
        let same = pair_gaps(&mut seeded(3), &[7.0; 100]);
        assert_eq!(same.pairs(), 50);
        assert_eq!(same.count_le(0.0), 50);
        assert_eq!(same.count_le(1e-300), 50);
        assert_eq!(same.count_le(-1.0), 0);
        assert_eq!(same.linear_scans.load(Ordering::Relaxed), 0);
        for data in [&[][..], &[1.0]] {
            let empty = pair_gaps(&mut seeded(3), data);
            assert_eq!(empty.pairs(), 0);
            assert_eq!(empty.count_le(1.0), 0);
            assert_eq!(GapSummary::build(data).count_le(1.0), 0);
        }
        assert_eq!(GapSummary::build(&[1.0, 4.0]).sorted_gaps(), &[3.0]);
        assert_eq!(GapSummary::build(&[1.0, 4.0, 9.0]).pairs(), 1);
    }

    #[test]
    fn pairing_is_robust_to_sorted_and_periodic_input() {
        // Sorted input: random pairing keeps gaps at the spread scale
        // (E|i − j| ≈ n/3 for random index pairs), where consecutive
        // pairing would collapse them to 1.
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut rng = seeded(2);
        let g = pair_gaps(&mut rng, &sorted);
        let median = g.sorted_gaps()[g.pairs() / 2];
        assert!(median > 100.0, "median sorted gap {median}");
        // Periodic input with period dividing every fixed stride: random
        // pairing still produces mostly non-zero gaps.
        let periodic: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        let g = pair_gaps(&mut rng, &periodic);
        let nonzero = g.pairs() - g.count_le(0.0);
        assert!(nonzero > 450, "only {nonzero}/500 non-zero gaps");
    }
}
