//! Cached dataset views — the data layer behind the `Estimator` trait.
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
//!   `append` derives a **new** snapshot (bumped version) whose warm
//!   artifacts are merge-maintained from the parent in `O(n + k)`
//!   rather than rebuilt, so cached artifacts can never leak across
//!   data versions yet appends never pay the cold `O(n log n)` path
//!   twice.
//!
//! # Determinism contract (DESIGN.md §7)
//!
//! Cached artifacts are pure functions of the column contents — they
//! consume **no randomness** — so feeding an estimator a cached
//! artifact instead of a freshly computed one never changes the
//! estimator's RNG draw sequence, and released values stay
//! bit-identical to the uncached path. The one exception is opt-in: the
//! pair-gap structure of Algorithms 7 and 9 ([`GapSummary`]) pairs the
//! records by a permutation, and a cache can only hold the summary whose
//! permutation derives from the snapshot itself (DESIGN.md §12.3). An
//! estimator served that summary skips drawing the permutation from its
//! own coins, so the summary is enabled only through
//! [`PreparedDataset::with_gap_summaries`]; default snapshots and bare
//! views pair with the mechanism's coins.
//!
//! Cold sorted-copy builds go through [`sorted_copy`], a deterministic
//! parallel merge sort: `total_cmp` ties are bit-identical, so chunked
//! sorting plus run merging (the proptest-pinned `merge_sorted_f64`
//! lemma) yields the identical byte sequence at any `UPDP_THREADS`.

// Lock poisoning maps to structured errors or a reasoned recovery,
// never a panic (DESIGN.md §6, §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::dataset::SortedInts;
use crate::discretize::Discretizer;
use crate::gaps::GapSummary;
// BTreeMap, not HashMap: grid caches sit in the determinism scope and
// `successor` iterates them, so container order must be a pure
// function of the keys (DESIGN.md §5/§7, §9).
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use updp_core::error::{ensure_finite, Result, UpdpError};

/// How many grids [`PreparedDataset::append`] carries forward to the
/// successor snapshot (most recently built first). Quantile/IQR
/// buckets are `IQR̲/n`, so a growing dataset retires old buckets as
/// `n` advances; merging every earlier grid into every successor
/// would make publication cost `O(G·n)` and hold dead grids alive
/// forever. The freshest few cover the live buckets.
pub const MAX_CARRIED_GRIDS: usize = 4;

/// Columns shorter than this sort serially even when `UPDP_THREADS`
/// permits parallelism. Experiment trials are themselves parallelized
/// by the §5 engine, so per-trial sorts must not spawn nested worker
/// pools; only genuinely large cold builds (the serving registry's
/// registration path) clear this bar. Chosen so the O(n) merge rounds
/// amortize the thread spawn cost even on modest hosts.
pub const PAR_SORT_MIN_LEN: usize = 1 << 17;

/// A `total_cmp`-sorted copy of `data`, parallel for large columns.
///
/// Honors `UPDP_THREADS` via [`updp_core::parallel::max_threads`];
/// columns below [`PAR_SORT_MIN_LEN`] take the serial fast path
/// unconditionally. Output is bit-identical at any thread count (see
/// [`sorted_copy_threads`]).
pub fn sorted_copy(data: &[f64]) -> Vec<f64> {
    let threads = if data.len() >= PAR_SORT_MIN_LEN {
        updp_core::parallel::max_threads()
    } else {
        1
    };
    sorted_copy_threads(data, threads)
}

/// [`sorted_copy`] with an explicit worker count (1 ⇒ serial
/// `sort_by(total_cmp)`, no threads, no threshold).
///
/// Parallel path: split into `threads` contiguous chunks, sort each
/// with `total_cmp` via [`updp_core::parallel::par_map_indexed_threads`],
/// then merge runs pairwise (also in parallel) until one remains.
/// **Bit-identity lemma (DESIGN.md §12):** `total_cmp` is a total
/// order in which elements that compare equal have identical bit
/// patterns, so every correct sort of the same multiset — serial,
/// chunked, any merge-tree shape — produces the identical byte
/// sequence. `merge_sorted_f64` is the same proptest-pinned merge the
/// append path uses.
pub fn sorted_copy_threads(data: &[f64], threads: usize) -> Vec<f64> {
    let n = data.len();
    if threads <= 1 || n < 2 {
        let mut v = data.to_vec();
        v.sort_by(f64::total_cmp);
        return v;
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let pieces = n.div_ceil(chunk);
    let mut runs: Vec<Vec<f64>> =
        updp_core::parallel::par_map_indexed_threads(threads, pieces, |i| {
            let start = i * chunk;
            let end = (start + chunk).min(n);
            let mut run = data[start..end].to_vec();
            run.sort_by(f64::total_cmp);
            run
        });
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let mut next = {
            let runs_ref = &runs;
            updp_core::parallel::par_map_indexed_threads(threads, pairs, |i| {
                merge_sorted_f64(&runs_ref[2 * i], &runs_ref[2 * i + 1])
            })
        };
        if runs.len() % 2 == 1 {
            // The odd run out carries over unmerged.
            next.extend(runs.pop());
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Lazily-built, thread-safe artifacts of one `f64` column.
///
/// Both artifacts are built at most once per cache (the grid: once per
/// distinct bucket size) and shared as `Arc`s, so concurrent readers
/// never block each other after the first build. Each grid is stamped
/// with a build counter so an append (`ColumnCache::successor`) can
/// carry the freshest [`MAX_CARRIED_GRIDS`] forward.
/// Lock-poisoning policy (DESIGN.md §6, §9): every artifact
/// here is a pure function of the column, so the cache is *only* an
/// optimization — a poisoned `grids` lock (a builder panicked) is
/// handled by bypassing the cache (compute fresh, skip insertion),
/// never by propagating the panic into unrelated readers.
#[derive(Debug, Default)]
pub struct ColumnCache {
    sorted: OnceLock<Arc<Vec<f64>>>,
    grids: RwLock<BTreeMap<u64, (u64, Arc<SortedInts>)>>,
    stamp: AtomicU64,
    gaps: RwLock<Option<Arc<GapSummary>>>,
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
    /// triggers a build; a poisoned slot reads as absent).
    pub fn has_gap_summary(&self) -> bool {
        self.gaps.read().is_ok_and(|slot| slot.is_some())
    }

    /// The cached pair-gap summary for this column, building it on
    /// first use — or `None` when the summary path is not enabled.
    ///
    /// Poison-degrading like `grids` (DESIGN.md §6, §9): the
    /// summary is a pure function of the column (the pairing seed
    /// derives from the column length, not from any mechanism RNG), so
    /// racing builders produce identical summaries and a poisoned slot
    /// just means this call's fresh build is served uncached.
    pub fn gap_summary(&self, data: &[f64]) -> Option<Arc<GapSummary>> {
        if !self.gaps_enabled {
            return None;
        }
        if let Ok(slot) = self.gaps.read() {
            if let Some(summary) = slot.as_ref() {
                return Some(summary.clone());
            }
        }
        let built = Arc::new(GapSummary::build(data));
        match self.gaps.write() {
            Ok(mut slot) => Some(slot.get_or_insert_with(|| built).clone()),
            Err(_) => Some(built),
        }
    }

    /// Derives the cache of the `old ++ delta` successor column,
    /// carrying **warm** artifacts forward instead of discarding them
    /// (DESIGN.md §8).
    ///
    /// * Sorted copy built → sort only the `k`-row `delta` and merge
    ///   the two `total_cmp`-sorted runs in `O(n + k)`. `total_cmp` is
    ///   a total order on bit patterns (elements that compare equal
    ///   are bit-identical), so the merge is bit-identical to a fresh
    ///   full sort of the concatenation.
    /// * The [`MAX_CARRIED_GRIDS`] most recently built grids →
    ///   discretize the sorted `delta` (monotone map, already sorted)
    ///   and merge it into the parent's [`SortedInts`] in `O(n + k)`.
    ///   A delta value the bucket cannot map (overflow) drops that
    ///   grid instead: the successor rebuilds lazily and reports the
    ///   canonical data-order error.
    /// * Cold parent (nothing built) → empty cache; every artifact
    ///   builds lazily.
    fn successor(&self, delta: &[f64]) -> ColumnCache {
        let Some(parent_sorted) = self.sorted.get() else {
            // Grids force the sorted copy first (see `grid`), so a
            // missing sorted copy implies no grids either. The gap
            // summary is never carried (the pairing permutation is a
            // function of the column *length*, which the append just
            // changed), but the opt-in flag persists.
            return ColumnCache {
                gaps_enabled: self.gaps_enabled,
                ..ColumnCache::default()
            };
        };
        let sorted_delta = sorted_copy(delta);
        let merged = merge_sorted_f64(parent_sorted, &sorted_delta);

        // Freshest grids first; older buckets (typically retired by
        // the `n`-dependent bucket choice) rebuild lazily if ever
        // queried again. A poisoned parent cache carries nothing: the
        // successor rebuilds lazily, as from a cold parent.
        let mut carried: Vec<(u64, u64, Arc<SortedInts>)> = self.grids.read().map_or_else(
            |_| Vec::new(),
            |grids| {
                grids
                    .iter()
                    .map(|(&key, (stamp, grid))| (*stamp, key, grid.clone()))
                    .collect()
            },
        );
        carried.sort_by_key(|&(stamp, _, _)| std::cmp::Reverse(stamp));
        carried.truncate(MAX_CARRIED_GRIDS);

        // Build the successor's grid map before wrapping it in its
        // lock. Reverse order: oldest carried grid stamped first, so
        // relative recency survives chained appends.
        let stamp = AtomicU64::new(0);
        let mut grids = BTreeMap::new();
        for (_, key, grid) in carried.into_iter().rev() {
            let Ok(disc) = Discretizer::new(f64::from_bits(key)) else {
                continue;
            };
            let ints: Result<Vec<i64>> = sorted_delta.iter().map(|&x| disc.to_int(x)).collect();
            if let Ok(ints) = ints {
                let next = stamp.fetch_add(1, Ordering::Relaxed);
                grids.insert(key, (next, Arc::new(grid.merge_sorted(&ints))));
            }
        }
        let successor = ColumnCache {
            sorted: OnceLock::new(),
            grids: RwLock::new(grids),
            stamp,
            gaps: RwLock::new(None),
            gaps_enabled: self.gaps_enabled,
        };
        let _ = successor.sorted.set(Arc::new(merged));
        successor
    }

    fn sorted(&self, data: &[f64]) -> Arc<Vec<f64>> {
        self.sorted
            .get_or_init(|| Arc::new(sorted_copy(data)))
            .clone()
    }

    fn grid(&self, data: &[f64], bucket: f64) -> Result<Arc<SortedInts>> {
        let key = bucket.to_bits();
        if let Ok(grids) = self.grids.read() {
            if let Some((_, hit)) = grids.get(&key) {
                return Ok(hit.clone());
            }
        }
        let grid = Arc::new(build_grid(
            data,
            Some(self.sorted(data).as_slice()),
            bucket,
        )?);
        // Racing builders compute identical grids (the build is a pure
        // function of the column and the bucket); first insert wins.
        // A poisoned lock skips the insert: the grid is still correct,
        // the cache just stops absorbing new entries.
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        match self.grids.write() {
            Ok(mut grids) => Ok(grids.entry(key).or_insert((stamp, grid)).1.clone()),
            Err(_) => Ok(grid),
        }
    }
}

/// Discretizes a column into its sorted integer grid.
///
/// When a `total_cmp`-sorted copy is available the mapping
/// `x ↦ round(x/b)` is monotone, so the integer sequence is already
/// sorted and the `O(n log n)` [`SortedInts::new`] sort is
/// skipped — the result is the identical sorted multiset either way.
/// On a mapping error the column is re-discretized in **data order**
/// so the reported error (first offending element) matches
/// [`Discretizer::discretize`] exactly.
fn build_grid(data: &[f64], sorted: Option<&[f64]>, bucket: f64) -> Result<SortedInts> {
    let disc = Discretizer::new(bucket)?;
    match sorted {
        Some(sorted) => {
            let ints: Result<Vec<i64>> = sorted.iter().map(|&x| disc.to_int(x)).collect();
            match ints {
                Ok(ints) if !ints.is_empty() => SortedInts::from_sorted(ints),
                // Empty or failed: delegate for the canonical error.
                _ => disc.discretize(data),
            }
        }
        None => disc.discretize(data),
    }
}

/// Merges two `total_cmp`-sorted runs in `O(n + k)`. Under `total_cmp`
/// elements that compare equal have identical bit patterns, so the
/// merged sequence is bit-identical to sorting the concatenation from
/// scratch — regardless of how ties are broken.
fn merge_sorted_f64(a: &[f64], b: &[f64]) -> Vec<f64> {
    crate::dataset::merge_sorted_by(a, b, |x, y| x.total_cmp(y).is_le())
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

    /// Rejects a column holding a non-finite record with
    /// `NonFiniteInput { context }`: an O(1) check when the view carries
    /// a gap summary, an O(n) scan otherwise.
    pub fn ensure_finite(&self, context: &'static str) -> Result<()> {
        match self.gap_summary() {
            Some(summary) if summary.all_finite() => Ok(()),
            Some(_) => Err(UpdpError::NonFiniteInput { context }),
            None => ensure_finite(self.data, context),
        }
    }

    /// The sorted integer grid `round(x/bucket)` (cached per distinct
    /// bucket when a cache is attached). Bit-identical to
    /// `Discretizer::new(bucket)?.discretize(data)` in values *and*
    /// error reporting.
    pub fn grid(&self, bucket: f64) -> Result<Arc<SortedInts>> {
        match self.cache {
            Some(cache) => cache.grid(self.data, bucket),
            None => Ok(Arc::new(build_grid(self.data, None, bucket)?)),
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

    /// Whether a [`ColumnCache`] is attached (callers that benefit
    /// from intra-call artifact reuse attach a throwaway cache when
    /// this is false).
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }
}

/// A borrowed, possibly-cached view of a column-major dataset — the
/// uniform data argument of the `Estimator` trait.
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
    /// before estimation (see `Estimator::multi_column`).
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
/// never describe stale data — warm parent artifacts are carried
/// forward by an `O(n + k)` merge (bit-identical to a fresh build),
/// cold ones stay lazy.
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

    /// Whether the gap-summary path is enabled (diagnostic; false for a
    /// snapshot without columns).
    pub fn gap_summaries_enabled(&self) -> bool {
        self.caches.iter().any(|cache| cache.gaps_enabled)
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
    /// **Warm caches are carried forward incrementally** (DESIGN.md
    /// §8): a built sorted copy is extended by merging the sorted
    /// `k`-row delta in `O(n + k)` instead of re-sorting, and each
    /// built discretized grid absorbs the delta the same way. Both
    /// merge-maintained artifacts are bit-identical to what a fresh
    /// build over the concatenated column would produce (pinned by the
    /// append-equivalence suite), so this is purely a cost change.
    /// Artifacts the parent never built stay lazy, exactly as before.
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
        // Overflowing bucket: the cached path must report the same
        // canonical (data-order) error as Discretizer::discretize.
        let data = [1e10, 2.0];
        let cache = ColumnCache::new();
        let view = ColumnView::cached(&data, &cache);
        let err = format!("{}", view.grid(1e-300).unwrap_err());
        let reference = format!(
            "{}",
            Discretizer::new(1e-300)
                .unwrap()
                .discretize(&data)
                .unwrap_err()
        );
        assert_eq!(err, reference);
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
    fn warm_append_carries_caches_forward_bitwise() {
        let parent = PreparedDataset::new(vec![vec![5.0, 1.0, 3.0, -0.0, 0.0]]);
        // Warm both artifacts on the parent.
        let _ = parent.view().col(0).sorted();
        let _ = parent.view().col(0).grid(0.5).unwrap();
        let _ = parent.view().col(0).grid(2.0).unwrap();

        let next = parent.append(&[vec![2.5, -1.0, 0.0]]);
        // The successor starts warm: no lazy build has run yet, but
        // the sorted copy and both grids are already present…
        assert!(next.view().col(0).has_sorted());
        assert_eq!(next.view().col(0).cached_grids(), 2);
        // …and bit-identical to a fresh cold build over the same rows.
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
    fn append_carries_only_the_freshest_grids() {
        let parent = PreparedDataset::new(vec![(0..256).map(|i| i as f64 * 0.37).collect()]);
        let view = parent.view();
        let _ = view.col(0).sorted();
        // Build MAX_CARRIED_GRIDS + 3 grids; only the freshest
        // MAX_CARRIED_GRIDS survive the append.
        let buckets: Vec<f64> = (0..MAX_CARRIED_GRIDS + 3)
            .map(|i| 0.5 + i as f64 * 0.25)
            .collect();
        for &bucket in &buckets {
            let _ = view.col(0).grid(bucket).unwrap();
        }
        let next = parent.append(&[vec![1.0, 2.0]]);
        assert_eq!(next.view().col(0).cached_grids(), MAX_CARRIED_GRIDS);
        // The carried ones are the most recently built, still bitwise
        // equal to a fresh build — and a second append keeps carrying
        // them (relative recency survives the chain).
        let fresh = PreparedDataset::new(next.columns().to_vec());
        for &bucket in &buckets[buckets.len() - MAX_CARRIED_GRIDS..] {
            assert_eq!(
                *next.view().col(0).grid(bucket).unwrap(),
                *fresh.view().col(0).grid(bucket).unwrap(),
                "bucket {bucket}"
            );
        }
        let third = next.append(&[vec![3.0]]);
        assert_eq!(third.view().col(0).cached_grids(), MAX_CARRIED_GRIDS);
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
    fn unmappable_delta_drops_the_grid_and_keeps_the_canonical_error() {
        // Parent grid builds fine; the delta overflows the bucket's
        // integer range, so the carried grid must be dropped and the
        // lazy rebuild must report the same error as a cold build.
        let parent = PreparedDataset::new(vec![vec![1.0, 2.0]]);
        let _ = parent.view().col(0).sorted();
        let _ = parent.view().col(0).grid(1e-3).unwrap();
        let next = parent.append(&[vec![1e30]]);
        assert!(next.view().col(0).has_sorted(), "sorted copy still warm");
        assert_eq!(next.view().col(0).cached_grids(), 0, "bad grid dropped");
        let err = format!("{}", next.view().col(0).grid(1e-3).unwrap_err());
        let reference = format!(
            "{}",
            Discretizer::new(1e-3)
                .unwrap()
                .discretize(next.columns()[0].as_slice())
                .unwrap_err()
        );
        assert_eq!(err, reference);
        // A NaN delta likewise drops grids (NaN cannot discretize) but
        // keeps the sorted copy warm — total_cmp orders NaN fine.
        let nan = parent.append(&[vec![f64::NAN]]);
        assert!(nan.view().col(0).has_sorted());
        assert_eq!(nan.view().col(0).cached_grids(), 0);
        assert!(nan.view().col(0).sorted().last().unwrap().is_nan());
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
