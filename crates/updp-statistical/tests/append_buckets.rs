//! Why `PreparedDataset::append` carries the sorted copy but no
//! discretized grid (DESIGN.md §8.1): the quantile and IQR estimators
//! discretize at bucket `IQR̲/n` (Algorithm 10, Theorem 6.2), and both
//! the private lower bound `IQR̲` and `n` change from one snapshot to
//! the next, so a grid built on snapshot `v` is never asked for again
//! on snapshot `v + 1`.
//!
//! This test pins that premise on a serving-shaped chain. If a later
//! change makes the bucket independent of `n` (or otherwise lets
//! successive snapshots share a bucket), it fails — and carrying grids
//! across appends may pay again.

use std::collections::BTreeSet;
use updp_core::privacy::Epsilon;
use updp_core::rng::{child_rng, seeded};
use updp_dist::{ContinuousDistribution, LogNormal};
use updp_statistical::{estimate_iqr_view, estimate_quantile_view, PreparedDataset};

#[test]
fn successive_snapshots_never_share_a_bucket() {
    const SEED: u64 = 23;
    let dist = LogNormal::new(0.0, 1.0).unwrap();
    let epsilon = Epsilon::new(1.0).unwrap();
    let mut rng = seeded(SEED);
    let mut snapshot =
        PreparedDataset::new(vec![dist.sample_vec(&mut rng, 10_000)]).with_gap_summaries();
    let mut previous: BTreeSet<u64> = BTreeSet::new();
    for v in 0..=60u64 {
        let view = snapshot.view();
        let column = view.col(0);
        let grids_before = column.cached_grids();
        let mut coins = child_rng(SEED, v);
        let p90 = estimate_quantile_view(&mut coins, column, 0.9, epsilon, 0.1).unwrap();
        let iqr = estimate_iqr_view(&mut coins, column, epsilon, 0.1).unwrap();
        let requested: BTreeSet<u64> = [p90.bucket, iqr.bucket]
            .iter()
            .map(|b| b.to_bits())
            .collect();
        // Every requested bucket missed the cache and built a grid.
        assert_eq!(
            column.cached_grids() - grids_before,
            requested.len(),
            "snapshot {v}"
        );
        assert!(
            requested.is_disjoint(&previous),
            "snapshot {v} asked for a bucket of snapshot {}",
            v.saturating_sub(1)
        );
        previous = requested;
        snapshot = snapshot.append(&[dist.sample_vec(&mut rng, 16)]);
    }
}
