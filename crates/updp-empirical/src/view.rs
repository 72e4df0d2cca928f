//! Cached dataset views — the data layer behind `Estimator::estimate`.
//!
//! The statistical estimators repeatedly derive the same artifacts from
//! one dataset: a `total_cmp`-sorted copy of a column, and the sorted
//! integer grid `round(x/b)` of the inverse-sensitivity path for a
//! given bucket `b`. Serving workloads re-query the *same* registered
//! dataset over and over, so recomputing those artifacts per query is a
//! pure `O(n log n)` waste. This module provides:
//!
//! * [`ColumnCache`] — thread-safe, lazily-built artifacts of one
//!   column (sorted copy once; one discretized [`SortedInts`] per
//!   distinct bucket size);
//! * [`DataView`] — a borrowed, possibly-cached view of a column-major
//!   dataset, the data argument of
//!   `updp_statistical::estimator::Estimator::estimate`;
//! * [`PreparedDataset`] — an immutable snapshot owning columns *and*
//!   caches, shared as `Arc<PreparedDataset>` by the serving registry;
//!   `append` derives a **new** snapshot (bumped version) whose sorted
//!   copy, when the parent built one, is merge-maintained in `O(n + k)`
//!   rather than re-sorted, so cached artifacts can never leak across
//!   data versions yet appends never pay the cold `O(n log n)` sort
//!   twice. Grids and the gap summary rebuild lazily (DESIGN.md §8.1).
//!
//! # Determinism contract (DESIGN.md §7)
//!
//! Cached artifacts are pure functions of the column contents — they
//! consume **no randomness** — so feeding an estimator a cached
//! artifact instead of a freshly computed one never changes the
//! estimator's RNG draw sequence, and released values stay
//! bit-identical to the uncached path. The one exception is opt-in: the
//! pair-gap structure of Algorithms 7 and 9 ([`GapSummary`]: per-octave
//! gap counts, ~16 KB per column whatever its length) pairs the records
//! by a permutation drawn with the Fisher–Yates kernel, and a
//! cache can only hold the summary whose permutation derives from the
//! snapshot itself (DESIGN.md §12.3). An
//! estimator served that summary skips drawing the permutation from its
//! own coins, so the summary is enabled only through
//! [`PreparedDataset::with_gap_summaries`]; default snapshots and bare
//! views pair with the mechanism's coins. No artifact records whether
//! the column is finite: each estimator checks that precondition with
//! one [`ensure_finite`](updp_core::error::ensure_finite) scan at entry,
//! cached view or not.
//!
//! Cold sorted-copy builds go through [`sorted_copy`], a deterministic
//! in-place parallel sort (select-and-split, DESIGN.md §12.1):
//! `total_cmp` ties are bit-identical, so it yields the identical byte
//! sequence at any `UPDP_THREADS`. Appends merge runs with the
//! proptest-pinned `merge_sorted_f64` lemma instead.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::dataset::SortedInts;
use crate::discretize::Discretizer;
use crate::gaps::GapSummary;
// BTreeMap, not HashMap: `HashMap` is a disallowed type in this crate
// (rule R2, DESIGN.md §9) — its iteration order is seeded per process.
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};
use updp_core::error::Result;

/// A `total_cmp`-sorted copy of `data`, parallel for large columns.
///
/// Honors `UPDP_THREADS` via [`updp_core::parallel::threads_for`]:
/// columns below [`PAR_MIN_LEN`](updp_core::parallel::PAR_MIN_LEN) take
/// the serial fast path unconditionally, and so does a sort inside a
/// parallel map's worker (experiment trials are themselves parallel, so
/// their sorts must not start nested pools). Output is bit-identical at
/// any thread count (see [`sorted_copy_threads`]).
pub fn sorted_copy(data: &[f64]) -> Vec<f64> {
    sorted_copy_threads(data, updp_core::parallel::threads_for(data.len()))
}

/// [`sorted_copy`] with an explicit worker count (1 ⇒ serial, no
/// threads, no threshold): a copy sorted in place by
/// [`updp_core::parallel::sort_unstable_threads`] under `total_cmp`.
/// **Bit-identity lemma (DESIGN.md §12.1):** `total_cmp` is a total
/// order in which elements that compare equal have identical bit
/// patterns, so every correct sort of the same multiset — serial or
/// split at any thread count — produces the identical byte sequence.
pub fn sorted_copy_threads(data: &[f64], threads: usize) -> Vec<f64> {
    let mut v = data.to_vec();
    updp_core::parallel::sort_unstable_threads(&mut v, threads, f64::total_cmp);
    v
}

/// Lazily-built, thread-safe artifacts of one `f64` column.
///
/// Every artifact is built at most once per cache (the grid: once per
/// distinct bucket size) and shared as `Arc`s, so concurrent readers
/// never block each other after the first build.
/// Lock-poisoning policy (DESIGN.md §6, §9): every artifact
/// here is a pure function of the column, so the cache is *only* an
/// optimization — a poisoned `grids` lock (a builder panicked) is
/// handled by bypassing the cache (compute fresh, skip insertion),
/// never by propagating the panic into unrelated readers.
#[derive(Debug, Default)]
pub struct ColumnCache {
    sorted: OnceLock<Arc<Vec<f64>>>,
    grids: RwLock<BTreeMap<u64, Arc<SortedInts>>>,
    gaps: OnceLock<Arc<GapSummary>>,
    /// Whether [`ColumnCache::gap_summary`] may build and serve the
    /// snapshot-derived pair-gap summary. Off by default: the summary
    /// path changes which coins consumers draw, so it must be enabled
    /// explicitly ([`PreparedDataset::with_gap_summaries`]) and never
    /// inferred from cache presence.
    gaps_enabled: bool,
}

impl ColumnCache {
    /// An empty cache.
    pub fn new() -> Self {
        ColumnCache::default()
    }

    /// Number of distinct bucket sizes with a cached grid (diagnostic;
    /// a poisoned cache reads as empty).
    pub fn cached_grids(&self) -> usize {
        self.grids.read().map_or(0, |g| g.len())
    }

    /// Whether the sorted copy has been built (diagnostic; never
    /// triggers a build).
    pub fn has_sorted(&self) -> bool {
        self.sorted.get().is_some()
    }

    /// Whether a gap summary has been built (diagnostic; never
    /// triggers a build).
    pub fn has_gap_summary(&self) -> bool {
        self.gaps.get().is_some()
    }

    /// The cached pair-gap summary for this column, building it on
    /// first use — or `None` when the summary path is not enabled.
    ///
    /// The summary is a pure function of the column (the pairing seed
    /// derives from the column length, not from any mechanism RNG), so
    /// which caller builds it never matters.
    pub fn gap_summary(&self, data: &[f64]) -> Option<Arc<GapSummary>> {
        if !self.gaps_enabled {
            return None;
        }
        Some(
            self.gaps
                .get_or_init(|| Arc::new(GapSummary::build(data)))
                .clone(),
        )
    }

    /// Derives the cache of the `old ++ delta` successor column
    /// (DESIGN.md §8). A built sorted copy is carried forward: sort
    /// only the `k`-row `delta` and merge the two `total_cmp`-sorted
    /// runs in `O(n + k)`, bit-identical to a fresh full sort of the
    /// concatenation. Everything else starts empty and builds lazily.
    /// Grids are not carried because the quantile/IQR bucket `IQR̲/n`
    /// moves with `n`, so no successor asks for a parent's bucket; the
    /// gap summary is not carried because its pairing permutation is a
    /// function of the column length. The opt-in flag persists.
    fn successor(&self, delta: &[f64]) -> ColumnCache {
        let sorted = match self.sorted.get() {
            Some(parent) => OnceLock::from(Arc::new(merge_sorted_f64(parent, &sorted_copy(delta)))),
            None => OnceLock::new(),
        };
        ColumnCache {
            sorted,
            gaps_enabled: self.gaps_enabled,
            ..ColumnCache::default()
        }
    }

    fn sorted(&self, data: &[f64]) -> Arc<Vec<f64>> {
        self.sorted
            .get_or_init(|| Arc::new(sorted_copy(data)))
            .clone()
    }

    fn grid(&self, data: &[f64], bucket: f64) -> Result<Arc<SortedInts>> {
        let key = bucket.to_bits();
        if let Ok(grids) = self.grids.read() {
            if let Some(hit) = grids.get(&key) {
                return Ok(hit.clone());
            }
        }
        let grid = Arc::new(build_grid(data, &self.sorted(data), bucket)?);
        // Racing builders compute identical grids (the build is a pure
        // function of the column and the bucket); first insert wins.
        // A poisoned lock skips the insert: the grid is still correct,
        // the cache just stops absorbing new entries.
        match self.grids.write() {
            Ok(mut grids) => Ok(grids.entry(key).or_insert(grid).clone()),
            Err(_) => Ok(grid),
        }
    }
}

/// Discretizes a column into its sorted integer grid from its
/// `total_cmp`-sorted copy. The saturating map `x ↦ round(x/b)` is
/// monotone and total on finite values, so the integers come out sorted
/// (no `O(n log n)` [`SortedInts::new`] sort). `total_cmp` puts every NaN
/// and `±∞` at the ends of a sorted run, so one O(1) look at the ends
/// decides whether [`Discretizer::discretize`] must report the canonical
/// error instead.
fn build_grid(data: &[f64], sorted: &[f64], bucket: f64) -> Result<SortedInts> {
    let disc = Discretizer::new(bucket)?;
    if ends_finite(sorted) {
        SortedInts::from_sorted(sorted.iter().map(|&x| disc.to_int(x)).collect())
    } else {
        disc.discretize(data)
    }
}

/// Whether a `total_cmp`-sorted run holds only finite values (true when
/// empty): NaN and `±∞` sort to its ends.
fn ends_finite(sorted: &[f64]) -> bool {
    sorted.first().is_none_or(|x| x.is_finite()) && sorted.last().is_none_or(|x| x.is_finite())
}

/// Merges two `total_cmp`-sorted runs in `O(n + k)`. Under `total_cmp`
/// elements that compare equal have identical bit patterns, so the
/// merged sequence is bit-identical to sorting the concatenation from
/// scratch — regardless of how ties are broken.
fn merge_sorted_f64(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].total_cmp(&b[j]).is_le() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One column of a [`DataView`]: the raw data plus an optional cache.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    data: &'a [f64],
    cache: Option<&'a ColumnCache>,
}

impl<'a> ColumnView<'a> {
    /// A cache-less view: every artifact is computed on demand.
    pub fn bare(data: &'a [f64]) -> Self {
        ColumnView { data, cache: None }
    }

    /// A view whose artifacts are cached in (and shared through)
    /// `cache`. The caller must pair each cache with exactly one
    /// column's contents for the cache's lifetime.
    pub fn cached(data: &'a [f64], cache: &'a ColumnCache) -> Self {
        ColumnView {
            data,
            cache: Some(cache),
        }
    }

    /// The raw column in its original order.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `total_cmp`-sorted copy (cached when a cache is attached).
    pub fn sorted(&self) -> Arc<Vec<f64>> {
        match self.cache {
            Some(cache) => cache.sorted(self.data),
            None => Arc::new(sorted_copy(self.data)),
        }
    }

    /// The cached pair-gap summary, built on first use — `None` for
    /// bare views and for caches that have not opted in via
    /// [`PreparedDataset::with_gap_summaries`], whose consumers pair
    /// the records with their own coins instead.
    pub fn gap_summary(&self) -> Option<Arc<GapSummary>> {
        self.cache.and_then(|cache| cache.gap_summary(self.data))
    }

    /// Whether the attached cache holds a built gap summary (false for
    /// bare views; never triggers a build) — a cache-effect diagnostic.
    pub fn has_gap_summary(&self) -> bool {
        self.cache.is_some_and(ColumnCache::has_gap_summary)
    }

    /// The sorted integer grid `round(x/bucket)`, saturated at `±2⁶²`
    /// (cached per distinct bucket when a cache is attached).
    /// Bit-identical to `Discretizer::new(bucket)?.discretize(data)` in
    /// values *and* error reporting: the only errors left are an
    /// invalid bucket and an empty or non-finite column.
    pub fn grid(&self, bucket: f64) -> Result<Arc<SortedInts>> {
        match self.cache {
            Some(cache) => cache.grid(self.data, bucket),
            None => Ok(Arc::new(Discretizer::new(bucket)?.discretize(self.data)?)),
        }
    }

    /// Number of distinct buckets with a cached grid (0 for bare
    /// views) — a cache-effect diagnostic.
    pub fn cached_grids(&self) -> usize {
        self.cache.map_or(0, ColumnCache::cached_grids)
    }

    /// Whether the attached cache holds a built sorted copy (false for
    /// bare views) — a cache-effect diagnostic.
    pub fn has_sorted(&self) -> bool {
        self.cache.is_some_and(ColumnCache::has_sorted)
    }
}

/// A borrowed, possibly-cached view of a column-major dataset — the
/// uniform data argument of `Estimator::estimate`.
#[derive(Debug, Clone)]
pub struct DataView<'a> {
    cols: Vec<ColumnView<'a>>,
}

impl<'a> DataView<'a> {
    /// A dimension-1 view over a bare slice (no caching).
    pub fn of(data: &'a [f64]) -> Self {
        DataView {
            cols: vec![ColumnView::bare(data)],
        }
    }

    /// A multi-column view over bare column-major data (no caching).
    pub fn of_columns(columns: &'a [Vec<f64>]) -> Self {
        DataView {
            cols: columns.iter().map(|c| ColumnView::bare(c)).collect(),
        }
    }

    /// A view from explicit column views (used by [`PreparedDataset`]).
    pub fn from_views(cols: Vec<ColumnView<'a>>) -> Self {
        DataView { cols }
    }

    /// Record dimension (number of columns).
    pub fn dim(&self) -> usize {
        self.cols.len()
    }

    /// Number of records (length of the first column).
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }

    /// Whether the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th column view.
    ///
    /// # Panics
    /// If `i` is out of range; estimator arity is validated by callers
    /// before estimation (see `Estimator::is_multi_column`).
    pub fn col(&self, i: usize) -> &ColumnView<'a> {
        &self.cols[i]
    }

    /// All column views.
    pub fn cols(&self) -> &[ColumnView<'a>] {
        &self.cols
    }
}

/// An immutable, shareable snapshot of a dataset: the columns plus
/// their artifact caches, stamped with a version.
///
/// The serving registry stores `Arc<PreparedDataset>`; queries clone
/// the `Arc` and estimate without holding any registry lock. Mutation
/// is copy-on-write: [`PreparedDataset::append`] builds a **new**
/// snapshot at `version + 1`, so a cached sorted copy or grid can
/// never describe stale data — a built parent sorted copy is carried
/// forward by an `O(n + k)` merge (bit-identical to a fresh sort),
/// every other artifact builds lazily.
#[derive(Debug)]
pub struct PreparedDataset {
    columns: Vec<Vec<f64>>,
    caches: Vec<ColumnCache>,
    version: u64,
}

impl PreparedDataset {
    /// Wraps column-major data as version-0 snapshot.
    pub fn new(columns: Vec<Vec<f64>>) -> Self {
        let caches = columns.iter().map(|_| ColumnCache::new()).collect();
        PreparedDataset {
            columns,
            caches,
            version: 0,
        }
    }

    /// Enables the cache-legal pair-gap summary (DESIGN.md §12) on
    /// every column of this snapshot and its appended successors.
    ///
    /// **This changes draw sequences**: quantile/IQR consumers served
    /// a summary skip drawing the pairing from their own coins, so their
    /// released values differ from a default snapshot's (equally valid
    /// draws of the same mechanisms, and still fully deterministic per
    /// `(snapshot, seed)`). The experiment suite therefore never calls
    /// this; the serving registry opts in at registration.
    #[must_use]
    pub fn with_gap_summaries(mut self) -> Self {
        for cache in &mut self.caches {
            cache.gaps_enabled = true;
        }
        self
    }

    /// Record dimension.
    pub fn dim(&self) -> usize {
        self.columns.len()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The snapshot version (0 at registration, +1 per append).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The raw column-major data.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// A cached view over all columns.
    pub fn view(&self) -> DataView<'_> {
        DataView::from_views(
            self.columns
                .iter()
                .zip(&self.caches)
                .map(|(data, cache)| ColumnView::cached(data, cache))
                .collect(),
        )
    }

    /// Derives the post-append snapshot: `extra` columns (same
    /// dimension, validated by the caller) concatenated onto copies of
    /// the current columns, with a bumped version.
    ///
    /// **A warm sorted copy is carried forward incrementally** (DESIGN.md
    /// §8): it is extended by merging the sorted `k`-row delta in
    /// `O(n + k)` instead of re-sorting, bit-identical to a fresh sort
    /// of the concatenated column (pinned by the append-equivalence
    /// suite). Grids and the gap summary start empty and build lazily
    /// on first use: the quantile/IQR bucket `IQR̲/n` moves with `n`,
    /// so a carried grid would never be read.
    pub fn append(&self, extra: &[Vec<f64>]) -> PreparedDataset {
        debug_assert_eq!(extra.len(), self.columns.len());
        let columns: Vec<Vec<f64>> = self
            .columns
            .iter()
            .zip(extra)
            .map(|(old, new)| {
                let mut merged = Vec::with_capacity(old.len() + new.len());
                merged.extend_from_slice(old);
                merged.extend_from_slice(new);
                merged
            })
            .collect();
        let caches = self
            .caches
            .iter()
            .zip(extra)
            .map(|(cache, delta)| cache.successor(delta))
            .collect();
        PreparedDataset {
            columns,
            caches,
            version: self.version + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_is_cached_and_correct() {
        let cache = ColumnCache::new();
        let data = [3.0, -1.0, 2.0, -0.0, 0.0];
        let view = ColumnView::cached(&data, &cache);
        let a = view.sorted();
        let b = view.sorted();
        assert!(Arc::ptr_eq(&a, &b), "sorted copy must be built once");
        let mut reference = data.to_vec();
        reference.sort_by(f64::total_cmp);
        assert_eq!(a.as_slice(), reference.as_slice());
        // Bare views compute fresh copies with identical contents.
        let bare = ColumnView::bare(&data).sorted();
        assert_eq!(bare.as_slice(), reference.as_slice());
    }

    #[test]
    fn grid_matches_discretize_and_is_cached_per_bucket() {
        let cache = ColumnCache::new();
        let data: Vec<f64> = (0..500).map(|i| (i as f64) * 0.377 - 90.0).collect();
        let view = ColumnView::cached(&data, &cache);
        for bucket in [0.1, 0.25, 1.0] {
            let grid = view.grid(bucket).unwrap();
            let reference = Discretizer::new(bucket).unwrap().discretize(&data).unwrap();
            assert_eq!(*grid, reference, "bucket {bucket}");
            let again = view.grid(bucket).unwrap();
            assert!(Arc::ptr_eq(&grid, &again), "grid must be cached");
        }
        assert_eq!(cache.cached_grids(), 3);
        // Bare path agrees too.
        let bare = ColumnView::bare(&data).grid(0.1).unwrap();
        assert_eq!(
            *bare,
            Discretizer::new(0.1).unwrap().discretize(&data).unwrap()
        );
    }

    #[test]
    fn grid_error_matches_discretize_error() {
        // A bucket far too small for the data saturates instead of
        // failing: cached and bare grids equal the discretizer's.
        let data = [1e10, 2.0, -1e10];
        let cache = ColumnCache::new();
        let view = ColumnView::cached(&data, &cache);
        let reference = Discretizer::new(1e-300).unwrap().discretize(&data).unwrap();
        assert_eq!(*view.grid(1e-300).unwrap(), reference);
        assert_eq!(*ColumnView::bare(&data).grid(1e-300).unwrap(), reference);
        // A non-finite column reports the canonical error on every path.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let data = [1.0, bad, 2.0];
            let cache = ColumnCache::new();
            let reference = format!(
                "{}",
                Discretizer::new(0.5)
                    .unwrap()
                    .discretize(&data)
                    .unwrap_err()
            );
            let cached = ColumnView::cached(&data, &cache).grid(0.5).unwrap_err();
            let bare = ColumnView::bare(&data).grid(0.5).unwrap_err();
            assert_eq!(format!("{cached}"), reference);
            assert_eq!(format!("{bare}"), reference);
        }
        // Invalid bucket errors pass through as well.
        assert!(view.grid(0.0).is_err());
        assert!(ColumnView::bare(&data).grid(f64::NAN).is_err());
    }

    #[test]
    fn prepared_dataset_append_invalidates_caches() {
        let prepared = PreparedDataset::new(vec![vec![5.0, 1.0, 3.0]]);
        assert_eq!(prepared.version(), 0);
        let view = prepared.view();
        let sorted = view.col(0).sorted();
        assert_eq!(sorted.as_slice(), &[1.0, 3.0, 5.0]);
        let _ = view.col(0).grid(1.0).unwrap();

        let next = prepared.append(&[vec![9.0, 7.0]]);
        assert_eq!(next.version(), 1);
        assert_eq!(next.len(), 5);
        assert_eq!(next.columns()[0], vec![5.0, 1.0, 3.0, 9.0, 7.0]);
        // Fresh caches: the new sorted copy sees the appended rows.
        let new_sorted = next.view().col(0).sorted();
        assert_eq!(new_sorted.as_slice(), &[1.0, 3.0, 5.0, 7.0, 9.0]);
        // The old snapshot is untouched (readers mid-query are safe).
        assert_eq!(prepared.len(), 3);
        assert_eq!(prepared.view().col(0).sorted().as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn warm_append_carries_only_the_sorted_copy_bitwise() {
        let parent = PreparedDataset::new(vec![vec![5.0, 1.0, 3.0, -0.0, 0.0]]);
        // Warm both artifacts on the parent.
        let _ = parent.view().col(0).sorted();
        let _ = parent.view().col(0).grid(0.5).unwrap();
        let _ = parent.view().col(0).grid(2.0).unwrap();

        let next = parent.append(&[vec![2.5, -1.0, 0.0]]);
        // The successor starts with the merged sorted copy and no
        // grids; the lazily built ones…
        assert!(next.view().col(0).has_sorted());
        assert_eq!(next.view().col(0).cached_grids(), 0);
        // …and the sorted copy are bit-identical to a fresh cold build
        // over the same rows.
        let fresh = PreparedDataset::new(next.columns().to_vec());
        let merged_sorted = next.view().col(0).sorted();
        let fresh_sorted = fresh.view().col(0).sorted();
        assert_eq!(merged_sorted.len(), fresh_sorted.len());
        for (a, b) in merged_sorted.iter().zip(fresh_sorted.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for bucket in [0.5, 2.0] {
            assert_eq!(
                *next.view().col(0).grid(bucket).unwrap(),
                *fresh.view().col(0).grid(bucket).unwrap(),
                "bucket {bucket}"
            );
        }
    }

    #[test]
    fn cold_append_stays_lazy() {
        let parent = PreparedDataset::new(vec![vec![2.0, 1.0]]);
        let next = parent.append(&[vec![3.0]]);
        assert!(!next.view().col(0).has_sorted());
        assert_eq!(next.view().col(0).cached_grids(), 0);
        assert_eq!(next.view().col(0).sorted().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn extreme_delta_saturates_into_the_rebuilt_grid() {
        // The delta lies far beyond the bucket's index bound: the grid
        // rebuilt from the merged sorted copy saturates it and equals a
        // fresh build bit for bit.
        let parent = PreparedDataset::new(vec![vec![1.0, 2.0]]);
        let _ = parent.view().col(0).sorted();
        let _ = parent.view().col(0).grid(1e-3).unwrap();
        let next = parent.append(&[vec![1e30, -f64::MAX]]);
        assert!(next.view().col(0).has_sorted(), "sorted copy still warm");
        assert_eq!(next.view().col(0).cached_grids(), 0, "grid not carried");
        let fresh = PreparedDataset::new(next.columns().to_vec());
        assert_eq!(
            *next.view().col(0).grid(1e-3).unwrap(),
            *fresh.view().col(0).grid(1e-3).unwrap()
        );
        // A NaN delta keeps the sorted copy warm — total_cmp orders NaN
        // fine — and the lazy grid build reports the same error as a
        // cold build.
        let nan = parent.append(&[vec![f64::NAN]]);
        assert!(nan.view().col(0).has_sorted());
        assert_eq!(nan.view().col(0).cached_grids(), 0);
        assert!(nan.view().col(0).sorted().last().unwrap().is_nan());
        let err = format!("{}", nan.view().col(0).grid(1e-3).unwrap_err());
        let reference = format!(
            "{}",
            Discretizer::new(1e-3)
                .unwrap()
                .discretize(nan.columns()[0].as_slice())
                .unwrap_err()
        );
        assert_eq!(err, reference);
    }

    #[test]
    fn merge_sorted_f64_is_bit_identical_to_full_sort() {
        // Ties under total_cmp are bit-identical, so any merge order
        // equals the full sort — including NaNs and signed zeros.
        let a = vec![-1.0, -0.0, 0.0, 2.0, f64::NAN];
        let b = vec![f64::NEG_INFINITY, -0.0, 0.0, 2.0, 3.0];
        let mut sa = a.clone();
        sa.sort_by(f64::total_cmp);
        let mut sb = b.clone();
        sb.sort_by(f64::total_cmp);
        let merged = merge_sorted_f64(&sa, &sb);
        let mut full: Vec<f64> = a.iter().chain(&b).copied().collect();
        full.sort_by(f64::total_cmp);
        assert_eq!(merged.len(), full.len());
        for (x, y) in merged.iter().zip(&full) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_delta_append_keeps_artifacts() {
        let parent = PreparedDataset::new(vec![vec![3.0, 1.0]]);
        let _ = parent.view().col(0).sorted();
        let _ = parent.view().col(0).grid(1.0).unwrap();
        let next = parent.append(&[vec![]]);
        assert_eq!(next.version(), 1);
        assert_eq!(next.len(), 2);
        assert!(next.view().col(0).has_sorted());
        assert_eq!(next.view().col(0).sorted().as_slice(), &[1.0, 3.0]);
        assert_eq!(
            *next.view().col(0).grid(1.0).unwrap(),
            *parent.view().col(0).grid(1.0).unwrap()
        );
    }

    #[test]
    fn data_view_shapes() {
        let columns = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let view = DataView::of_columns(&columns);
        assert_eq!(view.dim(), 2);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.col(1).data(), &[3.0, 4.0]);

        let single = [7.0];
        let view = DataView::of(&single);
        assert_eq!(view.dim(), 1);
        assert_eq!(view.len(), 1);
    }
}
