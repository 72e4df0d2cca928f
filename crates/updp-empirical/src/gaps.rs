//! The pair-gap structure of Algorithms 7 and 9 (DESIGN.md §12.3).
//!
//! Both algorithms "randomly group the elements in D into pairs".
//! [`updp_core::rng::shuffled`] is that step, once: it copies the
//! column's values and shuffles the copy with the Fisher–Yates kernel;
//! adjacent shuffled values are the pairs. The swaps are those that
//! would shuffle the record indices `0..n`, so value `k` is `data[π(k)]`
//! and each pair is still a pair of original records. From
//! [`PAR_MIN_LEN`](updp_core::parallel::PAR_MIN_LEN)
//! records up the copy is filled on all threads and the shuffle is
//! pipelined on two; the result is the serial pass's at any thread
//! count. Algorithm 9 maps a pair to its squared gap
//! ([`map_random_pairs`]). Algorithm 7 only counts absolute gaps
//! `|X − X′|` below its SVT thresholds, which are all powers of two
//! ([`pow2`]), so a [`GapSummary`] keeps no gaps:
//! it counts each one in its octave, the smallest `k` with `g ≤ 2ᵏ`,
//! and answers [`GapSummary::count_le_pow2`] from cumulative counts in
//! O(1). A summary has two pairing sources:
//!
//! * [`pair_gaps`] takes the permutation from the mechanism's coins:
//!   the bare path, used by the experiments;
//! * [`GapSummary::build`] takes it from
//!   `child_rng(GAP_PAIRING_SALT, n)`, a pure function of the column
//!   length. The result is cache-legal, so the serving cache builds one
//!   per snapshot ([`crate::view::ColumnCache`]).
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

use rand::Rng;
use updp_core::parallel::threads_for;
use updp_core::rng::{child_rng, shuffled};

/// Domain-separation salt for the pairing permutation seed. Any fixed
/// odd constant works; it only needs to differ from the trial-engine
/// masters so a snapshot's pairing never aliases a mechanism stream.
pub const GAP_PAIRING_SALT: u64 = 0x9a7_9a17_9a17;

/// Floor of Algorithm 7's scales, and so of [`pow2`]: ~the smallest
/// positive normal `f64`. Reaching it means the data is (privately
/// indistinguishable from) having more than `3n′/16` exactly-coincident
/// pairs; any smaller bucket would be meaningless at `f64` precision.
pub const SCALE_FLOOR: f64 = 1e-300;

/// Exponents below this saturate [`pow2`] to [`SCALE_FLOOR`].
const POW2_MIN_EXP: i32 = -1021;
/// Exponents above this saturate [`pow2`] to `f64::MAX`.
const POW2_MAX_EXP: i32 = 1023;

/// `2ᵏ` as `f64`, saturating to avoid 0/∞ surprises far out: the SVT
/// thresholds of Algorithm 7.
pub fn pow2(k: i32) -> f64 {
    if k > POW2_MAX_EXP {
        f64::MAX
    } else if k < POW2_MIN_EXP {
        SCALE_FLOOR
    } else {
        2f64.powi(k)
    }
}

/// Octaves a gap is keyed by: the smallest `k` with `g ≤ 2ᵏ`, clamped
/// below at −1022 (zeros and subnormals share the lowest octave, which
/// no probe resolves) and at most 1024 (the gaps in `(2¹⁰²³, f64::MAX]`).
const MIN_OCTAVE: i32 = -1022;
const MAX_OCTAVE: i32 = 1024;
const OCTAVES: usize = (MAX_OCTAVE - MIN_OCTAVE + 1) as usize;

/// Maps each random pair `(data[i], data[j])` through `f`, in pairing
/// order: the pairs are adjacent values of a uniform shuffle drawn from
/// `rng`, and with odd `n` the last shuffled value is left out. From
/// [`PAR_MIN_LEN`](updp_core::parallel::PAR_MIN_LEN) records up the
/// shuffle is pipelined and the copy it shuffles is filled on
/// [`updp_core::parallel::max_threads`] threads.
pub fn map_random_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    f: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    map_random_pairs_threads(rng, data, threads_for(data.len()), f)
}

/// [`map_random_pairs`] with an explicit thread count (1 ⇒ no thread
/// starts); the result is the same at any count. The pairs are mapped
/// in place into the front half of the shuffled copy, which is then cut
/// to that half: no second buffer of `n/2` values is allocated.
pub fn map_random_pairs_threads<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    threads: usize,
    f: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let mut values = shuffled(rng, data, threads);
    let pairs = values.len() / 2;
    // Pair k sits at 2k and 2k + 1 ≥ k: writing slot k reads no slot
    // that is yet to be read.
    for k in 0..pairs {
        values[k] = f(values[2 * k], values[2 * k + 1]);
    }
    values.truncate(pairs);
    values.shrink_to_fit();
    values
}

/// The gap summary of a random pairing drawn from the mechanism's
/// coins `rng`. From [`PAR_MIN_LEN`](updp_core::parallel::PAR_MIN_LEN)
/// records up the shuffle is pipelined and the copy it shuffles is
/// filled on [`updp_core::parallel::max_threads`] threads.
///
/// Public so the benchmark can time the pair-gap stage on its own.
pub fn pair_gaps<R: Rng + ?Sized>(rng: &mut R, data: &[f64]) -> GapSummary {
    pair_gaps_threads(rng, data, threads_for(data.len()))
}

/// [`pair_gaps`] with an explicit thread count (1 ⇒ no thread starts);
/// the result is the same at any count. It counts the gap of each pair
/// of adjacent shuffled values and reads nothing else: with odd `n` the
/// last shuffled value is left out unseen.
pub fn pair_gaps_threads<R: Rng + ?Sized>(rng: &mut R, data: &[f64], threads: usize) -> GapSummary {
    let values = shuffled(rng, data, threads);
    let mut counter = OctaveCounter::new();
    values
        .chunks_exact(2)
        .for_each(|p| counter.add((p[0] - p[1]).abs()));
    counter.finish()
}

/// The pair-gap multiset of one column, reduced to what Algorithm 7
/// asks of it: `|{g : g ≤ pow2(k)}|` for every `k`. It says nothing
/// about finiteness, an input precondition that every estimator checks
/// with one [`ensure_finite`](updp_core::error::ensure_finite) scan at
/// entry.
///
/// It holds one cumulative count per octave (~16 KB whatever the
/// column length) and one exact count at [`SCALE_FLOOR`], which is not
/// a power of two. Immutable once built, so a cached summary is shared
/// via `Arc`.
#[derive(Debug, PartialEq, Eq)]
pub struct GapSummary {
    pairs: usize,
    /// `|{g : g ≤ SCALE_FLOOR}|`.
    le_floor: usize,
    /// `le_octave[k − MIN_OCTAVE] = |{g : g ≤ 2ᵏ}|`; the last entry
    /// (`k = 1024`) counts every finite gap, i.e. `|{g : g ≤ f64::MAX}|`.
    le_octave: Box<[usize]>,
}

impl GapSummary {
    /// Builds the cache-legal summary of a column snapshot: the pairing
    /// permutation comes from `child_rng(GAP_PAIRING_SALT, n)`.
    pub fn build(data: &[f64]) -> Self {
        pair_gaps(&mut child_rng(GAP_PAIRING_SALT, data.len() as u64), data)
    }

    /// Number of gap pairs (`⌊records/2⌋`).
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// `|{g : g ≤ pow2(k)}|`, exactly `partition_point(v ≤ pow2(k))` on
    /// the `total_cmp`-sorted gaps, in O(1). NaN and +∞ gaps (from
    /// non-finite records, or finite ones ~`f64::MAX` apart) lie above
    /// every threshold and are never counted.
    pub fn count_le_pow2(&self, k: i32) -> usize {
        if k < POW2_MIN_EXP {
            self.le_floor
        } else {
            self.le_octave[(k.min(MAX_OCTAVE) - MIN_OCTAVE) as usize]
        }
    }
}

/// The octave of a gap `g ≥ 0` (or `+NaN`), as an index into
/// `le_octave`; `None` for +∞ and NaN.
#[inline]
fn octave_slot(g: f64) -> Option<usize> {
    debug_assert!(g.is_sign_positive(), "gaps are absolute values");
    let bits = g.to_bits();
    let biased = (bits >> 52) as i32;
    if biased == 0x7ff {
        return None;
    }
    // g = 2^(biased − 1023) · 1.mantissa: exactly a power of two iff the
    // mantissa is zero, otherwise one octave up.
    let k = biased - 1023 + i32::from(bits & ((1 << 52) - 1) != 0);
    Some((k.max(MIN_OCTAVE) - MIN_OCTAVE) as usize)
}

/// Accumulates the gaps of record pairs into per-octave counts.
struct OctaveCounter {
    pairs: usize,
    le_floor: usize,
    counts: Box<[usize]>,
}

impl OctaveCounter {
    fn new() -> Self {
        OctaveCounter {
            pairs: 0,
            le_floor: 0,
            counts: vec![0; OCTAVES].into_boxed_slice(),
        }
    }

    /// Counts the gap `g = |X − X′|` of one pair.
    #[inline]
    fn add(&mut self, g: f64) {
        self.pairs += 1;
        self.le_floor += usize::from(g <= SCALE_FLOOR);
        if let Some(slot) = octave_slot(g) {
            self.counts[slot] += 1;
        }
    }

    fn finish(mut self) -> GapSummary {
        let mut total = 0;
        for count in self.counts.iter_mut() {
            total += *count;
            *count = total;
        }
        GapSummary {
            pairs: self.pairs,
            le_floor: self.le_floor,
            le_octave: self.counts,
        }
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    /// Every exponent the probes cover, through `pow2`'s saturation at
    /// both ends.
    const PROBE_KS: std::ops::RangeInclusive<i32> = -1100..=1100;

    /// Asserts `summary` answers every probe like the sorted `gaps`.
    fn assert_exact(summary: &GapSummary, gaps: &[f64]) {
        let mut sorted = gaps.to_vec();
        sorted.sort_by(f64::total_cmp);
        let reference = |x: f64| sorted.partition_point(|&v| v <= x);
        assert_eq!(summary.pairs(), gaps.len());
        for k in PROBE_KS {
            assert_eq!(summary.count_le_pow2(k), reference(pow2(k)), "k={k}");
        }
        for k in [i32::MIN, -5000, 5000, i32::MAX] {
            assert_eq!(summary.count_le_pow2(k), reference(pow2(k)), "k={k}");
        }
        let floor = summary.count_le_pow2(POW2_MIN_EXP - 1);
        assert_eq!(floor, reference(SCALE_FLOOR));
        let max = summary.count_le_pow2(POW2_MAX_EXP + 1);
        assert_eq!(max, reference(f64::MAX));
    }

    fn summarize(gaps: &[f64]) -> GapSummary {
        let mut counter = OctaveCounter::new();
        gaps.iter().for_each(|&g| counter.add(g));
        counter.finish()
    }

    /// The reference gaps of `pair_gaps` on the same coins.
    fn gaps_of(rng: &mut impl Rng, data: &[f64]) -> Vec<f64> {
        map_random_pairs(rng, data, |a, b| (a - b).abs())
    }

    fn one_ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// `2ᵏ` for every `k ∈ [−1074, 1023]`, built from its bits (`powi`
    /// underflows to 0 below −1022).
    fn exact_pow2(k: i32) -> f64 {
        if k >= -1022 {
            f64::from_bits(((k + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (k + 1074))
        }
    }

    #[test]
    fn pow2_saturates() {
        for k in POW2_MIN_EXP..=POW2_MAX_EXP {
            assert_eq!(pow2(k), exact_pow2(k), "k={k}");
        }
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(3), 8.0);
        assert_eq!(pow2(-2), 0.25);
        assert_eq!(pow2(1023), 2f64.powi(1023));
        assert_eq!(pow2(-1021), f64::MIN_POSITIVE * 2.0);
        assert_eq!(pow2(5000), f64::MAX);
        assert_eq!(pow2(-5000), SCALE_FLOOR);
    }

    #[test]
    fn octave_counts_are_exact_at_every_edge() {
        // Zeros, every subnormal and normal power of two, one ulp above
        // and below each, the floor and its neighbours, f64::MAX, +∞
        // and NaN.
        let mut gaps = vec![0.0, 0.0, SCALE_FLOOR, f64::MAX, f64::INFINITY, f64::NAN];
        gaps.extend([SCALE_FLOOR.next_down(), SCALE_FLOOR.next_up()]);
        gaps.extend([f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE.next_down()]);
        for k in -1074..=1023 {
            let p = exact_pow2(k);
            gaps.extend([p, one_ulp_up(p), p.next_down()]);
        }
        assert_exact(&summarize(&gaps), &gaps);
        assert_exact(&summarize(&[]), &[]);
        assert_exact(
            &summarize(&[f64::NAN, f64::INFINITY]),
            &[f64::NAN, f64::INFINITY],
        );
    }

    #[test]
    fn count_le_pow2_is_exact_on_edge_columns() {
        let powers: Vec<f64> = (-1074..=1023).step_by(7).map(exact_pow2).collect();
        let columns: Vec<Vec<f64>> = vec![
            // Exact zeros: heavy duplication.
            (0..200).map(|i| f64::from(i % 3)).collect(),
            // Subnormal gaps.
            (0..200).map(|i| f64::from(i) * 5e-324).collect(),
            // Exact powers of two, and one ulp above them.
            powers.iter().flat_map(|&p| [0.0, p]).collect(),
            powers.iter().flat_map(|&p| [p, 2.0 * p]).collect(),
            powers.iter().flat_map(|&p| [0.0, one_ulp_up(p)]).collect(),
            // +∞ gaps from finite records.
            (0..200)
                .map(|i| if i % 2 == 0 { 1e308 } else { -1e308 })
                .collect(),
            vec![f64::MAX, -f64::MAX, 1.0, 2.0, 1e-300, 0.0],
            // Non-finite records: NaN gaps.
            vec![1.0, f64::NAN, 3.0, 8.0, 2.0, 2.0, f64::INFINITY, 5.0],
        ];
        for (c, data) in columns.iter().enumerate() {
            let paired = pair_gaps(&mut seeded(c as u64), data);
            assert_exact(&paired, &gaps_of(&mut seeded(c as u64), data));
            let n = data.len() as u64;
            let built = GapSummary::build(data);
            assert_exact(&built, &gaps_of(&mut child_rng(GAP_PAIRING_SALT, n), data));
        }
    }

    #[test]
    fn count_le_pow2_is_exact_on_random_columns() {
        let mut rng = seeded(42);
        let data: Vec<f64> = (0..501).map(|_| rng.gen::<f64>() * 16.0 - 8.0).collect();
        let gaps = gaps_of(&mut seeded(5), &data);
        assert_exact(&pair_gaps(&mut seeded(5), &data), &gaps);
    }

    #[test]
    fn summary_is_deterministic_per_snapshot() {
        let data: Vec<f64> = (0..101).map(|i| (i as f64) * 1.37 - 50.0).collect();
        let a = GapSummary::build(&data);
        assert_eq!(a, GapSummary::build(&data));
        assert_eq!(a.pairs(), 50);
    }

    #[test]
    fn build_is_pair_gaps_on_the_snapshot_coins() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 37) % 64) as f64 * 0.5).collect();
        let paired = pair_gaps(&mut child_rng(GAP_PAIRING_SALT, 64), &data);
        assert_eq!(GapSummary::build(&data), paired);
    }

    #[test]
    fn pairing_depends_on_length_not_values() {
        // Doubling every record doubles every gap: octave k moves to k+1.
        let a = GapSummary::build(&[1.0, 2.0, 3.0, 4.0]);
        let b = GapSummary::build(&[2.0, 4.0, 6.0, 8.0]);
        for k in -10..10 {
            assert_eq!(a.count_le_pow2(k), b.count_le_pow2(k + 1), "k={k}");
        }
    }

    #[test]
    fn pair_gaps_shape_and_determinism() {
        let data = [1.0, 4.0, 10.0, 3.0, 5.0];
        let ga = pair_gaps(&mut seeded(1), &data);
        assert_eq!(
            ga,
            pair_gaps(&mut seeded(1), &data),
            "same coins, same pairing"
        );
        assert_eq!(ga.pairs(), 2, "n = 5 yields 2 pairs");
    }

    #[test]
    fn degenerate_and_tiny_inputs() {
        // All-identical data: every gap is zero.
        let same = pair_gaps(&mut seeded(3), &[7.0; 100]);
        assert_eq!(same.pairs(), 50);
        for k in [-5000, -1021, 0, 1023, 5000] {
            assert_eq!(same.count_le_pow2(k), 50, "k={k}");
        }
        for data in [&[][..], &[1.0]] {
            let empty = pair_gaps(&mut seeded(3), data);
            assert_eq!(empty.pairs(), 0);
            assert_eq!(empty.count_le_pow2(0), 0);
            assert_eq!(GapSummary::build(data).count_le_pow2(0), 0);
        }
        let one = GapSummary::build(&[1.0, 4.0]);
        assert_eq!((one.count_le_pow2(1), one.count_le_pow2(2)), (0, 1));
        assert_eq!(GapSummary::build(&[1.0, 4.0, 9.0]).pairs(), 1);
    }

    #[test]
    fn pairing_is_robust_to_sorted_and_periodic_input() {
        // Sorted input: random pairing keeps gaps at the spread scale
        // (E|i − j| ≈ n/3 for random index pairs), where consecutive
        // pairing would collapse them to 1: most gaps exceed 2⁶.
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut rng = seeded(2);
        let g = pair_gaps(&mut rng, &sorted);
        let small = g.count_le_pow2(6);
        assert!(small < g.pairs() / 4, "{small}/500 gaps ≤ 64");
        // Periodic input with period dividing every fixed stride: random
        // pairing still produces mostly non-zero gaps.
        let periodic: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        let g = pair_gaps(&mut rng, &periodic);
        let nonzero = g.pairs() - g.count_le_pow2(-5000);
        assert!(nonzero > 450, "only {nonzero}/500 non-zero gaps");
    }
}
