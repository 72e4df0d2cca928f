//! `EstimateIQRLowerBound` — Algorithm 7 (Theorem 4.3).
//!
//! The statistical estimators need a bucket size for discretizing `R`.
//! Prior work (assumption A2) used the given `σ_min`; the paper instead
//! *privately lower-bounds the IQR*:
//!
//! * pair up the sample, `Yᵢ = |X − X′|`, so that (Lemmas 4.1–4.2) the
//!   `5n′/32`-th order statistic of `G = {Yᵢ}` is ≥ `ϕ(1/16)` and the
//!   `7n′/32`-th is ≤ `IQR`, both w.h.p.;
//! * binary-search the scale with *two* SVT instances over doubling /
//!   halving thresholds `2⁰, 2¹, …` and `2⁰, 2⁻¹, …` — avoiding the
//!   circular dependency on a discretization that does not exist yet.
//!
//! Theorem 4.3: with probability ≥ 1 − β,
//! `ϕ(1/16)/4 ≤ IQR̲ ≤ IQR`, at a sample cost of only
//! `O(ε⁻¹·(log log(1/ϕ(1/16)) + log log IQR))` — the log-log terms in
//! every statistical theorem come from here.

use rand::Rng;
use updp_core::error::{ensure_finite, Result, UpdpError};
use updp_core::privacy::Epsilon;
use updp_core::svt::{sparse_vector, DEFAULT_SVT_CAP};
use updp_empirical::view::ColumnView;

/// Floor for the returned scale: ~the smallest positive normal `f64`.
/// Reaching it means the data is (privately indistinguishable from)
/// having more than `3n′/16` exactly-coincident pairs; any smaller bucket
/// would be meaningless at `f64` precision anyway.
const SCALE_FLOOR: f64 = 1e-300;

/// The multiset of pair gaps `G = {|X − X′|}`, stored **unsorted** with
/// a precomputed range summary.
///
/// Algorithm 7's only use of `G` is the counting query
/// `|G ∩ [0, x]|` at the `O(log log)` SVT thresholds, so the former
/// eager full `O(n log n)` sort bought nothing a per-threshold `O(n)`
/// count does not provide. The summary (`zeros`, `min_positive`,
/// `max`) makes thresholds outside the data's dynamic range `O(1)`:
/// the doubling/halving SVT searches only pay a linear pass while the
/// threshold is *inside* the gap range, and the degenerate
/// all-identical-data descent (which runs to the SVT cap) costs `O(1)`
/// per step. As a backstop for adversarially wide gap ranges (gaps
/// spread over hundreds of octaves, where the searches probe many
/// in-range thresholds), the structure falls back to sorting once —
/// the historical cost — after [`LINEAR_SCAN_BUDGET`] linear scans and
/// answers by binary search from then on.
#[derive(Debug, Clone)]
pub struct Gaps {
    values: Vec<f64>,
    zeros: usize,
    min_positive: f64,
    max: f64,
    has_nan: bool,
    linear_scans: std::cell::Cell<usize>,
    sorted: std::cell::OnceCell<Vec<f64>>,
}

/// In-range linear scans [`Gaps::count_le`] performs before sorting
/// once and switching to binary search. Typical Algorithm 7 runs probe
/// only a handful of in-range thresholds and never reach this.
pub const LINEAR_SCAN_BUDGET: usize = 32;

impl Gaps {
    /// Number of pairs `n′ = ⌊n/2⌋`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw (unsorted) gap values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The counting query `|G ∩ [0, x]|` — exactly the value
    /// `partition_point(v ≤ x)` returned on the formerly-sorted
    /// (`total_cmp`) vector, for any input including NaN gaps from
    /// non-finite data. `O(1)` when `x` falls outside
    /// `[min positive gap, max gap]`, an `O(n)` scan inside it, and
    /// amortized `O(log n)` once the scan budget is exhausted.
    pub fn count_le(&self, x: f64) -> usize {
        if x < 0.0 {
            // Gaps are ≥ 0 or NaN; neither satisfies v ≤ x < 0.
            return 0;
        }
        if !self.has_nan {
            // The summary excludes NaNs, so these shortcuts are only
            // exact when no gap is NaN.
            if x < self.min_positive {
                // Only the exactly-zero gaps are ≤ x (covers x = ±0.0).
                return self.zeros;
            }
            if x >= self.max {
                return self.values.len();
            }
        }
        if let Some(sorted) = self.sorted.get() {
            return sorted.partition_point(|&v| v <= x);
        }
        if self.linear_scans.get() >= LINEAR_SCAN_BUDGET {
            let sorted = self.sorted.get_or_init(|| {
                let mut v = self.values.clone();
                v.sort_by(f64::total_cmp);
                v
            });
            return sorted.partition_point(|&v| v <= x);
        }
        self.linear_scans.set(self.linear_scans.get() + 1);
        self.values.iter().filter(|&&v| v <= x).count()
    }
}

/// Randomly pairs up the elements (the paper's "randomly group the
/// elements in D into pairs") and returns the absolute gaps
/// `G = {|X − X′|}` as a [`Gaps`] counting structure.
///
/// The pairing permutation is drawn from the mechanism's own coins,
/// independent of the data, so one record of `D` still influences
/// exactly one element of `G` and counting queries on `G` retain
/// sensitivity 1. Random (rather than consecutive or strided) pairing
/// also makes the estimator robust to callers handing in *sorted* or
/// periodically-patterned data: no fixed arrangement can force all gaps
/// to collapse.
///
/// Public so the benchmark (`perfbench/`'s replay) can time the
/// pair-gap stage on its own; not part of the estimator API surface.
pub fn pair_gaps<R: Rng + ?Sized>(rng: &mut R, data: &[f64]) -> Gaps {
    use rand::seq::SliceRandom;
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(rng);
    let mut values = Vec::with_capacity(data.len() / 2);
    let mut zeros = 0usize;
    let mut min_positive = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut has_nan = false;
    for p in idx.chunks_exact(2) {
        let g = (data[p[0]] - data[p[1]]).abs();
        // Algorithm 7 counts exactly-coincident pairs: gap == 0.0 iff the
        // two draws are equal, and any positive gap however small belongs
        // in min_positive.
        if g == 0.0 {
            zeros += 1;
        } else if g < min_positive {
            min_positive = g;
        }
        if g > max {
            max = g;
        }
        // NaN (possible only for non-finite inputs, which the estimator
        // itself rejects upstream) disables the summary shortcuts so
        // counts stay exact for any caller of this public helper.
        has_nan |= g.is_nan();
        values.push(g);
    }
    Gaps {
        values,
        zeros,
        min_positive,
        max,
        has_nan,
        linear_scans: std::cell::Cell::new(0),
        sorted: std::cell::OnceCell::new(),
    }
}

/// ε-DP lower bound on the IQR (Algorithm 7).
///
/// Returns `IQR̲` with `ϕ(1/16)/4 ≤ IQR̲ ≤ IQR` w.p. ≥ 1 − β, provided
/// `n` meets Theorem 4.3's (log-log sized) requirement.
pub fn estimate_iqr_lower_bound<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    ensure_finite(data, "estimate_iqr_lower_bound input")?;
    if data.len() < 4 {
        return Err(UpdpError::InsufficientData {
            required: 4,
            actual: data.len(),
            context: "EstimateIQRLowerBound pairing",
        });
    }
    if !(beta > 0.0 && beta < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "beta",
            reason: format!("must be in (0,1), got {beta}"),
        });
    }

    let gaps = pair_gaps(rng, data);
    Ok(iqr_lb_search(rng, gaps.len(), epsilon, |x| {
        gaps.count_le(x)
    }))
}

/// [`estimate_iqr_lower_bound`] over a [`ColumnView`].
///
/// When the view carries a cache-legal pair-gap summary (DESIGN.md
/// §12, opt-in via `PreparedDataset::with_gap_summaries`), the per-call
/// pairing shuffle and `O(n)` gap scan are replaced by the cached
/// summary: finiteness is an O(1) check, counting queries are
/// `O(log n)` binary searches, and the warm path does no per-call work
/// linear in `n`. Validation order and error values match the bare
/// path exactly. Because the summary path consumes **no** shuffle
/// coins, its SVT draw sequence — and hence the released value —
/// differs from the historical path; both are equally valid draws of
/// Algorithm 7, and the summary path is bit-reproducible per
/// `(snapshot, seed)`. Views without a summary defer to
/// [`estimate_iqr_lower_bound`] bit-for-bit.
pub fn estimate_iqr_lower_bound_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    let Some(summary) = view.gap_summary() else {
        return estimate_iqr_lower_bound(rng, view.data(), epsilon, beta);
    };
    if !summary.all_finite() {
        return Err(UpdpError::NonFiniteInput {
            context: "estimate_iqr_lower_bound input",
        });
    }
    if summary.records() < 4 {
        return Err(UpdpError::InsufficientData {
            required: 4,
            actual: summary.records(),
            context: "EstimateIQRLowerBound pairing",
        });
    }
    if !(beta > 0.0 && beta < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "beta",
            reason: format!("must be in (0,1), got {beta}"),
        });
    }
    Ok(iqr_lb_search(rng, summary.pairs(), epsilon, |x| {
        summary.count_le(x)
    }))
}

/// The two-SVT scale search of Algorithm 7 (lines 3–9), abstracted
/// over the gap counting query so the per-call [`Gaps`] structure and
/// the cached [`updp_empirical::gaps::GapSummary`] share one
/// implementation. For a fixed `count_le` the draw sequence is exactly
/// the historical inline code's.
fn iqr_lb_search<R: Rng + ?Sized>(
    rng: &mut R,
    pairs: usize,
    epsilon: Epsilon,
    count_le: impl Fn(f64) -> usize,
) -> f64 {
    let n_prime = pairs as f64;
    let threshold = 3.0 * n_prime / 16.0;
    let half = epsilon.scale(0.5);

    // SVT #1: increasing scales 2⁰, 2¹, 2², … hunting for the scale at
    // which the count of small gaps crosses 3n′/16 from below.
    let up = sparse_vector(
        rng,
        threshold,
        half,
        |i| count_le(pow2(i as i32)) as f64,
        DEFAULT_SVT_CAP,
    );

    // SVT #2: decreasing scales 2⁰, 2⁻¹, 2⁻², … on the negated counts.
    let down = sparse_vector(
        rng,
        -threshold,
        half,
        |j| -(count_le(pow2(-(j as i32))) as f64),
        DEFAULT_SVT_CAP,
    );

    // Algorithm 7 lines 5–9: prefer the increasing search if it moved.
    let result = if up.index > 1 {
        pow2(up.index as i32 - 2)
    } else {
        pow2(-(down.index as i32))
    };
    result.max(SCALE_FLOOR)
}

/// `2^k` as `f64`, saturating to avoid 0/∞ surprises far out.
fn pow2(k: i32) -> f64 {
    if k > 1023 {
        f64::MAX
    } else if k < -1021 {
        SCALE_FLOOR
    } else {
        2f64.powi(k)
    }
}

/// Theorem 4.3's minimum sample size (with explicit constants `c₁ = c₂ =
/// c₃ = 8`, the values our experiments validate):
/// `n > (c₁/ε)·log log(1/ϕ) + (c₂/ε)·log log IQR + (c₃/ε)·log(1/β)`.
pub fn iqr_lb_required_n(epsilon: Epsilon, phi: f64, iqr: f64, beta: f64) -> usize {
    let e = epsilon.get();
    let loglog = |x: f64| x.ln().max(1.0).ln().max(1.0);
    let t1 = 8.0 / e * loglog(1.0 / phi.max(1e-300));
    let t2 = 8.0 / e * loglog(iqr.max(1.0));
    let t3 = 8.0 / e * (1.0 / beta).ln().max(1.0);
    (t1 + t2 + t3).ceil() as usize
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian, GaussianMixture, Uniform};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn pow2_saturates() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(3), 8.0);
        assert_eq!(pow2(-2), 0.25);
        assert_eq!(pow2(5000), f64::MAX);
        assert_eq!(pow2(-5000), SCALE_FLOOR);
    }

    #[test]
    fn pair_gaps_shape_and_determinism() {
        let data = [1.0, 4.0, 10.0, 3.0, 5.0];
        let mut a = seeded(1);
        let mut b = seeded(1);
        let ga = pair_gaps(&mut a, &data);
        let gb = pair_gaps(&mut b, &data);
        assert_eq!(
            ga.values(),
            gb.values(),
            "same coins must give the same pairing"
        );
        assert_eq!(ga.len(), 2, "n = 5 yields 2 pairs");
        assert!(ga.values().iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn count_le_matches_sorted_partition_point() {
        // The linear/summary-assisted count must agree exactly with the
        // historical sorted-vector partition_point at every threshold
        // the SVT searches can probe.
        let mut rng = seeded(42);
        use rand::Rng;
        let data: Vec<f64> = (0..501).map(|_| rng.gen::<f64>() * 16.0 - 8.0).collect();
        let gaps = pair_gaps(&mut rng, &data);
        let mut sorted: Vec<f64> = gaps.values().to_vec();
        sorted.sort_by(f64::total_cmp);
        for k in -40i32..40 {
            let x = pow2(k);
            assert_eq!(
                gaps.count_le(x),
                sorted.partition_point(|&v| v <= x),
                "mismatch at threshold 2^{k}"
            );
        }
        for x in [-1.0, -0.0, 0.0, f64::INFINITY, f64::MAX, f64::NAN] {
            assert_eq!(
                gaps.count_le(x),
                sorted.partition_point(|&v| v <= x),
                "mismatch at threshold {x}"
            );
        }
    }

    #[test]
    fn count_le_on_degenerate_and_tiny_inputs() {
        // All-identical data: every gap is zero; counts must be n′ for
        // any x ≥ 0 and 0 below, all via the O(1) summary path.
        let mut rng = seeded(3);
        let gaps = pair_gaps(&mut rng, &[7.0; 100]);
        assert_eq!(gaps.len(), 50);
        assert_eq!(gaps.count_le(0.0), 50);
        assert_eq!(gaps.count_le(1e-300), 50);
        assert_eq!(gaps.count_le(-1.0), 0);
        // Empty gaps (n < 2 would be rejected upstream, but the
        // structure itself must not misbehave).
        let empty = pair_gaps(&mut rng, &[1.0]);
        assert!(empty.is_empty());
        assert_eq!(empty.count_le(1.0), 0);
    }

    #[test]
    fn count_le_exact_with_nan_gaps() {
        // The estimator rejects non-finite data upstream, but the
        // public helper must stay exact (vs the total_cmp-sorted
        // partition_point reference) even when gaps contain NaN.
        let data = [1.0, f64::NAN, 3.0, 8.0, 2.0, 2.0];
        let mut rng = seeded(11);
        let gaps = pair_gaps(&mut rng, &data);
        let mut sorted = gaps.values().to_vec();
        sorted.sort_by(f64::total_cmp);
        for x in [-1.0, -0.0, 0.0, 2.0, 5.0, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(
                gaps.count_le(x),
                sorted.partition_point(|&v| v <= x),
                "mismatch at threshold {x}"
            );
        }
    }

    #[test]
    fn count_le_sorted_fallback_stays_exact() {
        // Exhaust the linear-scan budget with in-range probes; the
        // lazily-sorted binary-search path must return identical
        // counts to the scans it replaces.
        let mut rng = seeded(12);
        use rand::Rng;
        let data: Vec<f64> = (0..400).map(|_| rng.gen::<f64>() * 1e6).collect();
        let gaps = pair_gaps(&mut rng, &data);
        let mut sorted_ref = gaps.values().to_vec();
        sorted_ref.sort_by(f64::total_cmp);
        for k in 0..(LINEAR_SCAN_BUDGET * 3) {
            let x = 2f64.powi((k % 40) as i32);
            assert_eq!(
                gaps.count_le(x),
                sorted_ref.partition_point(|&v| v <= x),
                "probe {k} at threshold {x}"
            );
        }
    }

    #[test]
    fn pair_gaps_robust_to_sorted_and_periodic_input() {
        // Sorted input: random pairing keeps gaps at the spread scale
        // (E|i − j| ≈ n/3 for random index pairs), where consecutive
        // pairing would collapse them to 1.
        let sorted: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut rng = seeded(2);
        let g = pair_gaps(&mut rng, &sorted);
        let mut vals: Vec<f64> = g.values().to_vec();
        vals.sort_by(f64::total_cmp);
        assert!(
            vals[vals.len() / 2] > 100.0,
            "median sorted gap {}",
            vals[vals.len() / 2]
        );
        // Periodic input with period dividing every fixed stride: random
        // pairing still produces mostly non-zero gaps.
        let periodic: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        let g = pair_gaps(&mut rng, &periodic);
        let nonzero = g.len() - g.count_le(0.0);
        assert!(nonzero > 450, "only {nonzero}/500 non-zero gaps");
    }

    #[test]
    fn bound_holds_on_standard_gaussian() {
        let g = Gaussian::standard();
        let phi = g.phi(1.0 / 16.0);
        let iqr = g.iqr();
        let e = eps(1.0);
        let beta = 0.1;
        let mut violations = 0;
        for seed in 0..100 {
            let mut rng = seeded(seed);
            let data = g.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, e, beta).unwrap();
            if !(phi / 4.0 <= lb && lb <= iqr) {
                violations += 1;
            }
        }
        assert!(violations <= 15, "Theorem 4.3 violated {violations}/100");
    }

    #[test]
    fn tracks_scale_across_decades() {
        // σ = 1000: IQR ≈ 1349, ϕ/4 ≈ 39. The returned power of two must
        // land between them.
        let g = Gaussian::new(0.0, 1000.0).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(200 + seed);
            let data = g.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
            if lb >= g.phi(1.0 / 16.0) / 4.0 && lb <= g.iqr() {
                ok += 1;
            }
        }
        assert!(ok >= 42, "large-scale tracking ok only {ok}/50");
    }

    #[test]
    fn tracks_tiny_scales() {
        let g = Gaussian::new(5.0, 1e-6).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(300 + seed);
            let data = g.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
            if lb >= g.phi(1.0 / 16.0) / 4.0 && lb <= g.iqr() {
                ok += 1;
            }
        }
        assert!(ok >= 42, "tiny-scale tracking ok only {ok}/50");
    }

    #[test]
    fn ill_behaved_spike_returns_small_bucket() {
        // Half the mass in a 1e-5-wide spike: the lower bound must fall
        // below the *spike's* scale, not the overall σ ≈ 0.7.
        let m = GaussianMixture::ill_behaved_spike(1e-5).unwrap();
        let mut rng = seeded(4);
        let data = m.sample_vec(&mut rng, 8000);
        let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
        assert!(lb <= m.iqr(), "lb {lb} above IQR {}", m.iqr());
    }

    #[test]
    fn uniform_bound_holds() {
        let u = Uniform::new(-50.0, 50.0).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(500 + seed);
            let data = u.sample_vec(&mut rng, 4000);
            let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
            if lb >= u.phi(1.0 / 16.0) / 4.0 && lb <= u.iqr() {
                ok += 1;
            }
        }
        assert!(ok >= 42, "uniform ok only {ok}/50");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(6);
        assert!(estimate_iqr_lower_bound(&mut rng, &[1.0, 2.0], eps(1.0), 0.1).is_err());
        assert!(
            estimate_iqr_lower_bound(&mut rng, &[1.0, f64::NAN, 2.0, 3.0], eps(1.0), 0.1).is_err()
        );
        assert!(estimate_iqr_lower_bound(&mut rng, &[1.0, 2.0, 3.0, 4.0], eps(1.0), 1.5).is_err());
    }

    #[test]
    fn degenerate_identical_data_hits_floor() {
        // All points identical: every gap is 0; SVT#1 fires immediately
        // (count = n′ ≥ T at x = 1? count_le(1) = n′ > 3n′/16, so the
        // first query already fires → ĩ = 1 → descend), and the descent
        // never crosses, ending at the floor.
        let data = vec![3.25f64; 2000];
        let mut rng = seeded(7);
        let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.1).unwrap();
        assert!(lb > 0.0, "bucket must remain positive");
    }

    #[test]
    fn required_n_is_log_log_small() {
        let n = iqr_lb_required_n(eps(1.0), 1e-12, 1e9, 0.1);
        // log log of astronomically bad parameters is still tiny.
        assert!(n < 200, "required n = {n}");
    }
}
