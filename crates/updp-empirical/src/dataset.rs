//! Sorted integer multisets with the order/count queries of Section 2.1.
//!
//! All empirical algorithms work on `D ∈ Zⁿ` kept sorted, giving
//! `O(log n)` implementations of the quantities the paper defines:
//! `rad(D) = maxᵢ |Xᵢ|`, `γ(D) = Xₙ − X₁`, and
//! `Count(D, x) = |D ∩ [−x, x]|` (the SVT query of Algorithm 3).

use updp_core::clipped_mean::clipped_sum_i64;
use updp_core::error::{Result, UpdpError};
use updp_core::parallel::{sort_unstable_threads, threads_for};

/// A sorted multiset of integers — the dataset type `D ∈ Zⁿ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedInts {
    values: Vec<i64>,
}

impl SortedInts {
    /// Builds a dataset from arbitrary-order values (sorts in place, on [`threads_for`] workers).
    pub fn new(mut values: Vec<i64>) -> Result<Self> {
        if values.is_empty() {
            return Err(UpdpError::EmptyDataset);
        }
        let threads = threads_for(values.len());
        sort_unstable_threads(&mut values, threads, i64::cmp);
        Ok(SortedInts { values })
    }

    /// Builds from already-sorted values (checked in debug builds).
    pub fn from_sorted(values: Vec<i64>) -> Result<Self> {
        if values.is_empty() {
            return Err(UpdpError::EmptyDataset);
        }
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]));
        Ok(SortedInts { values })
    }

    /// Number of records `n`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: construction rejects empty datasets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Smallest element `X₁`.
    pub fn min(&self) -> i64 {
        self.values[0]
    }

    /// Largest element `Xₙ`.
    pub fn max(&self) -> i64 {
        *self.values.last().expect("non-empty")
    }

    /// The radius `rad(D) = maxᵢ |Xᵢ|`, as `u64` (handles `i64::MIN`).
    pub fn radius(&self) -> u64 {
        let lo = self.min().unsigned_abs();
        let hi = self.max().unsigned_abs();
        lo.max(hi)
    }

    /// The width `γ(D) = Xₙ − X₁`, as `u64` (cannot overflow in `u64`).
    pub fn width(&self) -> u64 {
        (self.max() as i128 - self.min() as i128) as u64
    }

    /// `Count(D, x) = |D ∩ [−x, x]|` — the sensitivity-1 SVT query of
    /// Algorithm 3. `x` is a `u64` radius; values beyond `i64`'s range
    /// trivially cover everything.
    pub fn count_within_radius(&self, x: u64) -> usize {
        self.count_within_radius_of(0, x)
    }

    /// `Count(D − c, x)`: the SVT query of Algorithm 3 on the recentered
    /// data `D − c` (each value shifted with `i64` saturation, the
    /// `D″ = D − X̃` step of Algorithm 4), answered on `D` itself.
    /// `v ↦ v.saturating_sub(c)` is monotone, so the shifted values are
    /// still sorted and two binary searches under that map count exactly
    /// what they would on a shifted copy.
    pub(crate) fn count_within_radius_of(&self, center: i64, x: u64) -> usize {
        let hi = i64::try_from(x).unwrap_or(i64::MAX);
        let lo = if x >= 1u64 << 63 {
            i64::MIN
        } else {
            -(x as i64)
        };
        let shifted = |v: i64| v.saturating_sub(center);
        let start = self.values.partition_point(|&v| shifted(v) < lo);
        let end = self.values.partition_point(|&v| shifted(v) <= hi);
        end - start
    }

    /// `|D ∩ [lo, hi]|` via two binary searches.
    pub fn count_in(&self, lo: i64, hi: i64) -> usize {
        if lo > hi {
            return 0;
        }
        let start = self.values.partition_point(|&v| v < lo);
        let end = self.values.partition_point(|&v| v <= hi);
        end - start
    }

    /// The τ-th order statistic `X_τ` (1-based), with the paper's edge
    /// convention `X_i = X_1` for `i < 1` and `X_i = X_n` for `i > n`.
    pub(crate) fn order_statistic(&self, tau: i64) -> i64 {
        let idx = tau.clamp(1, self.values.len() as i64) as usize - 1;
        self.values[idx]
    }

    /// The empirical mean `μ(D)` as `f64` (exact i128 accumulation).
    ///
    /// Routed through the chunked [`clipped_sum_i64`] kernel with the
    /// dataset's own min/max as bounds — the clamp is the identity on
    /// every element (the values are sorted, so the bounds are O(1)),
    /// and the kernel's chunked `i64` partials autovectorize where the
    /// historical per-element `i128` loop could not. Integer addition
    /// is exact, so the sum (and the mean) is bit-identical.
    pub fn mean(&self) -> f64 {
        let sum = clipped_sum_i64(&self.values, self.min(), self.max());
        sum as f64 / self.values.len() as f64
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_rejects_empty() {
        assert!(SortedInts::new(vec![]).is_err());
        let d = SortedInts::new(vec![3, -1, 2]).unwrap();
        assert_eq!(d.values(), &[-1, 2, 3]);
    }

    #[test]
    fn radius_and_width() {
        let d = SortedInts::new(vec![-7, 1, 5]).unwrap();
        assert_eq!(d.radius(), 7);
        assert_eq!(d.width(), 12);
        let single = SortedInts::new(vec![4]).unwrap();
        assert_eq!(single.radius(), 4);
        assert_eq!(single.width(), 0);
    }

    #[test]
    fn radius_handles_i64_min() {
        let d = SortedInts::new(vec![i64::MIN, 0]).unwrap();
        assert_eq!(d.radius(), 1u64 << 63);
        assert_eq!(d.width(), 1u64 << 63);
    }

    #[test]
    fn count_within_radius_matches_naive() {
        let d = SortedInts::new(vec![-10, -3, 0, 0, 4, 9]).unwrap();
        for x in 0..12u64 {
            let naive = d
                .values()
                .iter()
                .filter(|&&v| v.unsigned_abs() <= x)
                .count();
            assert_eq!(d.count_within_radius(x), naive, "x = {x}");
        }
    }

    #[test]
    fn count_within_huge_radius_covers_all() {
        let d = SortedInts::new(vec![i64::MIN, -5, i64::MAX]).unwrap();
        assert_eq!(d.count_within_radius(u64::MAX), 3);
    }

    #[test]
    fn count_in_counts_inclusive_ranges() {
        let d = SortedInts::new(vec![1, 2, 2, 2, 5]).unwrap();
        assert_eq!(d.count_in(2, 2), 3);
        assert_eq!(d.count_in(0, 10), 5);
        assert_eq!(d.count_in(3, 4), 0);
        assert_eq!(d.count_in(5, 1), 0);
    }

    #[test]
    fn order_statistic_with_edge_convention() {
        let d = SortedInts::new(vec![10, 20, 30]).unwrap();
        assert_eq!(d.order_statistic(1), 10);
        assert_eq!(d.order_statistic(2), 20);
        assert_eq!(d.order_statistic(3), 30);
        assert_eq!(d.order_statistic(0), 10); // below range → X₁
        assert_eq!(d.order_statistic(99), 30); // above range → Xₙ
    }

    #[test]
    fn count_within_radius_of_matches_a_shifted_copy() {
        let d = SortedInts::new(vec![i64::MIN, i64::MIN + 1, -7, 0, 3, 3, i64::MAX]).unwrap();
        for center in [0, 1, -1, 5, i64::MIN, i64::MAX, i64::MIN / 2, i64::MAX - 2] {
            let shifted = SortedInts::new(
                d.values()
                    .iter()
                    .map(|&v| v.saturating_sub(center))
                    .collect(),
            )
            .unwrap();
            for x in [0, 1, 3, 10, 1 << 62, (1 << 63) - 1, 1 << 63, u64::MAX] {
                assert_eq!(
                    d.count_within_radius_of(center, x),
                    shifted.count_within_radius(x),
                    "center {center}, x {x}"
                );
            }
        }
    }

    #[test]
    fn mean_is_exact() {
        let d = SortedInts::new(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(d.mean(), 2.5);
        let big = SortedInts::new(vec![i64::MAX, i64::MAX]).unwrap();
        assert!((big.mean() - i64::MAX as f64).abs() < 1e3);
    }
}
