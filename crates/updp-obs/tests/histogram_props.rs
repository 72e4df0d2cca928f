//! Property pins for the histogram algebra: per-shard snapshots must
//! fold in any order — and any grouping — to the same totals, with
//! the empty snapshot as identity, and re-rendering equal state must
//! be byte-stable. `/v1/metrics` renders each shard's child as its own
//! sample; these are the laws a consumer relies on when it merges
//! those samples, or takes deltas between two scrapes.

use proptest::prelude::*;
use updp_obs::{Histogram, HistogramSnapshot};

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.observe_micros(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..2_000_000, 0..64),
        b in prop::collection::vec(0u64..2_000_000, 0..64),
        c in prop::collection::vec(0u64..2_000_000, 0..64),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
    }

    /// merge is commutative and the empty snapshot is its identity —
    /// merging in a zero shard (or the same shard twice into separate
    /// accumulators) never changes what a scrape reports.
    #[test]
    fn merge_commutes_with_empty_identity(
        a in prop::collection::vec(0u64..2_000_000, 0..64),
        b in prop::collection::vec(0u64..2_000_000, 0..64),
    ) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
        prop_assert_eq!(sa.merge(&HistogramSnapshot::empty()), sa);
    }

    /// Merging equals observing the concatenation: a histogram fed
    /// a ++ b snapshots identically to merge(snapshot(a), snapshot(b)).
    /// With `delta`, this is also the idempotence story for scrapes:
    /// (after - before) + before == after.
    #[test]
    fn merge_equals_concatenation_and_delta_inverts(
        a in prop::collection::vec(0u64..2_000_000, 0..64),
        b in prop::collection::vec(0u64..2_000_000, 0..64),
    ) {
        let combined: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let merged = sa.merge(&sb);
        prop_assert_eq!(merged, snapshot_of(&combined));
        prop_assert_eq!(merged.delta(&sa), sb);
        prop_assert_eq!(merged.delta(&sa).merge(&sa), merged);
    }

    /// Quantiles are deterministic bucket upper edges that actually
    /// bound the nearest-rank observation.
    #[test]
    fn quantile_upper_bounds_nearest_rank(
        mut values in prop::collection::vec(0u64..2_000_000, 1..64),
        q in 0.0f64..1.0,
    ) {
        let snap = snapshot_of(&values);
        let edge = snap.quantile_micros(q).expect("non-empty");
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        prop_assert!(values[rank - 1] <= edge,
            "rank value {} above reported edge {edge}", values[rank - 1]);
    }
}
