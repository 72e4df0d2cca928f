//! Cache-legal pair-gap summary (DESIGN.md §12).
//!
//! Algorithm 7's IQR lower bound pairs up the records and runs two SVTs
//! over counting queries on the absolute gaps `|X − X′|`. Historically
//! the pairing was drawn from the *mechanism's* coins on every call, so
//! the gap structure was RNG-tainted and §7 forbade caching it — the
//! residual O(n) warm-quantile cost PR 4 measured.
//!
//! This module makes the summary cache-legal by deriving the pairing
//! permutation from the snapshot itself: a pseudorandom shuffle seeded
//! by `child_seed(GAP_PAIRING_SALT, n)`. The pairing is then a pure
//! function of the column length — RNG-free per snapshot version, so
//! one summary per column can be built once, sorted once, and answer
//! every later counting query in O(log n).
//!
//! Two properties carry the privacy and robustness arguments:
//!
//! * **Sensitivity 1.** The permutation pairs **original data indices**
//!   and is independent of the data values. Replacing record `j`
//!   perturbs exactly the one gap whose pair contains `j`, so counting
//!   queries on the gap multiset retain sensitivity 1 — the same
//!   argument as the per-call random pairing. (Pairing *sorted
//!   positions* would break this: one replacement shifts a contiguous
//!   block of sorted ranks and could perturb O(n) gaps.)
//! * **Robustness to adversarial input order.** The pairing is a
//!   full-entropy pseudorandom permutation, not consecutive or strided,
//!   so no fixed arrangement of a hostile caller's rows can force all
//!   gaps to collapse — the same robustness rationale as the per-call
//!   shuffle, traded from per-call coins to per-snapshot determinism.

use rand::seq::SliceRandom;
use std::sync::Arc;
use updp_core::rng::child_rng;

use crate::view::sorted_copy;

/// Domain-separation salt for the pairing permutation seed. Any fixed
/// odd constant works; it only needs to differ from the trial-engine
/// masters so a snapshot's pairing never aliases a mechanism stream.
pub const GAP_PAIRING_SALT: u64 = 0x9a7_9a17_9a17;

/// Precomputed, sorted pair-gap summary of one column snapshot.
///
/// Built lazily by [`crate::view::ColumnCache::gap_summary`] and shared
/// via `Arc` like the sorted copy and grids; immutable once built.
#[derive(Debug)]
pub struct GapSummary {
    records: usize,
    sorted_gaps: Vec<f64>,
    all_finite: bool,
}

impl GapSummary {
    /// Builds the summary for a column snapshot: derive the pairing
    /// permutation from the column length, form `⌊n/2⌋` absolute gaps
    /// over original indices, and sort them by `total_cmp` for
    /// `partition_point` counting.
    pub fn build(data: &[f64]) -> Self {
        let n = data.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = child_rng(GAP_PAIRING_SALT, n as u64);
        idx.shuffle(&mut rng);
        let mut gaps = Vec::with_capacity(n / 2);
        for p in idx.chunks_exact(2) {
            gaps.push((data[p[0]] - data[p[1]]).abs());
        }
        let sorted_gaps = sorted_copy(&gaps);
        GapSummary {
            records: n,
            sorted_gaps,
            all_finite: data.iter().all(|x| x.is_finite()),
        }
    }

    /// Number of records in the snapshot the summary was built from.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of gap pairs (`⌊records/2⌋`).
    pub fn pairs(&self) -> usize {
        self.sorted_gaps.len()
    }

    /// Whether every record of the underlying snapshot is finite —
    /// lets consumers replace their O(n) `ensure_finite` scan with an
    /// O(1) check.
    pub fn all_finite(&self) -> bool {
        self.all_finite
    }

    /// `|{g : g ≤ x}|` in O(log n) via `partition_point`.
    ///
    /// Valid for every `x` (including NaN, ±inf, −0.0): `abs()` clears
    /// sign bits so gaps are `≥ 0.0` or `+NaN`; under `total_cmp` NaNs
    /// sort last, and `v <= x` is false for all NaN `v`, so the
    /// predicate is prefix-true on the sorted gap vector for any `x`.
    pub fn count_le(&self, x: f64) -> usize {
        self.sorted_gaps.partition_point(|&v| v <= x)
    }

    /// The sorted gap multiset, for equivalence tests and benches.
    pub fn sorted_gaps(&self) -> &[f64] {
        &self.sorted_gaps
    }

    /// Convenience: build and wrap in an `Arc` for cache slots.
    pub fn build_arc(data: &[f64]) -> Arc<Self> {
        Arc::new(Self::build(data))
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_deterministic_per_snapshot() {
        let data: Vec<f64> = (0..101).map(|i| (i as f64) * 1.37 - 50.0).collect();
        let a = GapSummary::build(&data);
        let b = GapSummary::build(&data);
        let bits =
            |s: &GapSummary| -> Vec<u64> { s.sorted_gaps().iter().map(|g| g.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.records(), 101);
        assert_eq!(a.pairs(), 50);
        assert!(a.all_finite());
    }

    #[test]
    fn pairing_depends_on_length_not_values() {
        // Same length, different values: the gap *values* differ but
        // both summaries exist and have the same shape.
        let a = GapSummary::build(&[1.0, 2.0, 3.0, 4.0]);
        let b = GapSummary::build(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn count_le_matches_naive_filter() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 37) % 64) as f64 * 0.5).collect();
        let s = GapSummary::build(&data);
        for x in [-1.0, 0.0, -0.0, 0.25, 1.0, 7.5, 1e9, f64::INFINITY] {
            let naive = s.sorted_gaps().iter().filter(|&&g| g <= x).count();
            assert_eq!(s.count_le(x), naive, "x={x}");
        }
        // NaN threshold: nothing is ≤ NaN.
        assert_eq!(s.count_le(f64::NAN), 0);
    }

    #[test]
    fn nan_gaps_sort_last_and_never_counted() {
        let data = [1.0, f64::NAN, 2.0, 3.0, f64::INFINITY, 5.0];
        let s = GapSummary::build(&data);
        assert!(!s.all_finite());
        // All thresholds remain valid partition points.
        let total_non_nan = s.sorted_gaps().iter().filter(|g| !g.is_nan()).count();
        assert_eq!(s.count_le(f64::INFINITY), total_non_nan);
        assert_eq!(s.count_le(f64::NAN), 0);
    }

    #[test]
    fn odd_and_tiny_lengths() {
        assert_eq!(GapSummary::build(&[]).pairs(), 0);
        assert_eq!(GapSummary::build(&[1.0]).pairs(), 0);
        assert_eq!(GapSummary::build(&[1.0, 4.0]).sorted_gaps(), &[3.0]);
        assert_eq!(GapSummary::build(&[1.0, 4.0, 9.0]).pairs(), 1);
    }
}
