//! The inverse sensitivity mechanism and `FiniteDomainQuantile`
//! (Section 2.5, Algorithm 2, Lemmas 2.7–2.8).
//!
//! To privately release the τ-th order statistic of a dataset `D` over a
//! finite ordered domain `X = Z ∩ [lo, hi]`, INV instantiates the
//! exponential mechanism with the *path length* score
//! `len(Q, D, y) = min { d(D, D′) : Q(D′) = y }`, i.e. the number of
//! records that must change before `y` becomes the true τ-quantile:
//!
//! ```text
//! Pr[INV(Q, D) = y] ∝ exp(−ε · len(Q, D, y) / 2).
//! ```
//!
//! `len` only changes when `y` crosses an element of `D`, so the domain
//! partitions into `O(n)` maximal segments of constant score, and sampling
//! costs `O(n)` after sorting (`O(n log n)` total) rather than `O(|X|)` —
//! which matters because the paper routinely uses domains of width `2^40+`.
//! Of that `O(n)`, only the segments within about `170/ε` ranks of the
//! target are scored; every other one costs a branch-free scan and one
//! uniform draw, which keeps the RNG stream that of scoring them all
//! (DESIGN.md §12.4).
//!
//! Algorithm 2 additionally clamps ranks that are too extreme (within
//! `(2/ε)·log(|X|/β)` of either end), because INV can behave arbitrarily
//! badly there; Lemma 2.8 then gives rank error `≤ (4/ε)·log(|X|/β)`.

use crate::error::{ensure_beta, Result, UpdpError};
use crate::exponential::{
    finish_gumbel, gumbel_ceiling, gumbel_ceilings, skip_gumbel, GUMBEL_BUCKETS, GUMBEL_MAX,
    GUMBEL_MIN,
};
use crate::privacy::Epsilon;
use rand::Rng;
use std::f64::consts::LN_2;

/// The rank-clamping margin of Algorithm 2: `(2/ε)·log(|X|/β)`.
///
/// `domain_size` is `|X| = hi − lo + 1`.
pub(crate) fn rank_clamp_margin(epsilon: Epsilon, domain_size: f64, beta: f64) -> f64 {
    (2.0 / epsilon.get()) * (domain_size / beta).ln().max(1.0)
}

/// The rank-error bound of Lemma 2.8: `(4/ε)·log(|X|/β)`, valid whenever
/// `n` exceeds the same quantity.
pub fn rank_error_bound(epsilon: Epsilon, domain_size: f64, beta: f64) -> f64 {
    (4.0 / epsilon.get()) * (domain_size / beta).ln().max(1.0)
}

/// Releases a privatized τ-th order statistic of `sorted` over the finite
/// integer domain `[lo, hi]` — Algorithm 2 (`FiniteDomainQuantile`).
///
/// * `sorted` must be sorted ascending; each value is clipped into
///   `[lo, hi]` as it is read, so callers (Algorithms 4 and 6) pass their
///   data unclipped.
/// * `tau` is the 1-based target rank; it is clamped per Algorithm 2.
/// * Satisfies ε-DP.
///
/// With probability ≥ 1 − β the result is within rank error
/// [`rank_error_bound`] of the true `X_τ`, provided
/// `n > (4/ε)·log(|X|/β)` (Lemma 2.8). The mechanism still runs (and is
/// still private) below that size; only the utility guarantee lapses.
pub fn finite_domain_quantile<R: Rng + ?Sized>(
    rng: &mut R,
    sorted: &[i64],
    tau: usize,
    lo: i64,
    hi: i64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<i64> {
    if sorted.is_empty() {
        return Err(UpdpError::EmptyDataset);
    }
    if lo > hi {
        return Err(UpdpError::InvalidParameter {
            name: "domain",
            reason: format!("lo ({lo}) must not exceed hi ({hi})"),
        });
    }
    ensure_beta(beta)?;
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");

    if lo == hi {
        return Ok(lo);
    }

    let n = sorted.len();
    let domain_size = (hi as i128 - lo as i128 + 1) as f64;

    // Rank clamping (Algorithm 2 lines 1–7).
    let margin = rank_clamp_margin(epsilon, domain_size, beta);
    let tau_f = tau as f64;
    let tau_prime_f = if tau_f <= margin {
        margin
    } else if tau_f >= n as f64 - margin {
        n as f64 - margin
    } else {
        tau_f
    };
    let tau_prime = (tau_prime_f.round() as i64).clamp(1, n as i64) as usize;

    // Stream the constant-score segments in ascending domain order — the
    // gap below each distinct clipped value, the value itself, then the
    // gap above the largest — keeping only the running Gumbel-max.
    // len(y) given counts: c_le = #{x ≤ y}, c_lt = #{x < y}.
    let len_for = |c_le: usize, c_lt: usize| -> u64 {
        let need_low = tau_prime.saturating_sub(c_le);
        let need_high = (c_lt + 1).saturating_sub(tau_prime);
        (need_low + need_high) as u64
    };
    let eps = epsilon.get();
    let mut argmax = SegmentArgmax::new(eps);
    // The runs of `sorted[..prefix_end]` and of `sorted[suffix_start..]`
    // (with the gap above the largest value) cannot win: each of their
    // segments only consumes its variate's draws (DESIGN.md §12.4).
    let (prefix_end, suffix_start) = bulk_cuts(sorted, tau_prime, lo, hi, eps).unwrap_or((0, n));
    let mut cursor = lo as i128; // first domain point not yet covered
    if prefix_end > 0 {
        skip_segments(rng, segment_count(&sorted[..prefix_end], lo, hi, cursor));
        cursor = sorted[prefix_end - 1].clamp(lo, hi) as i128 + 1;
    }
    let mut count_before = prefix_end; // #{x < current unique value}
    let mut i = prefix_end;
    while i < suffix_start {
        let v = sorted[i].clamp(lo, hi);
        let mut j = i;
        while j < suffix_start && sorted[j].clamp(lo, hi) == v {
            j += 1;
        }
        let mult = j - i;
        let v = v as i128;
        // Gap strictly below v (empty when v directly follows the
        // previous distinct value). Runs are maximal, so v ≥ cursor.
        if v > cursor {
            let len = len_for(count_before, count_before);
            argmax.visit(rng, cursor, v - cursor, len);
        }
        // Singleton at v.
        argmax.visit(rng, v, 1, len_for(count_before + mult, count_before));
        cursor = v + 1;
        count_before += mult;
        i = j;
    }
    if suffix_start < n {
        let top_gap = sorted[n - 1].clamp(lo, hi) < hi;
        let count = segment_count(&sorted[suffix_start..], lo, hi, cursor) + usize::from(top_gap);
        skip_segments(rng, count);
    } else if hi as i128 >= cursor {
        // Gap above the largest value.
        argmax.visit(rng, cursor, hi as i128 - cursor + 1, len_for(n, n));
    }

    let offset = if argmax.count == 1 {
        0
    } else {
        rng.gen_range(0..argmax.count)
    };
    Ok((argmax.start + offset as i128) as i64)
}

/// `ln` of a segment's weight per point at path length `len`:
/// `−ε·len/2`. Non-increasing in `len`.
#[inline]
fn log_weight(eps: f64, len: u64) -> f64 {
    -eps * len as f64 / 2.0
}

/// The prune test: a segment of fewer than `2^bits` points at this
/// log-weight scores below [`GUMBEL_MIN`] whatever its variate, so below
/// the length-0 singleton at `X_τ′`, and can never win. Monotone: true
/// at `(log_weight, bits)` means true at any smaller log-weight or
/// `bits`.
#[inline]
fn cannot_win(log_weight: f64, bits: u32) -> bool {
    log_weight + f64::from(bits) * LN_2 + GUMBEL_MAX < GUMBEL_MIN
}

/// Where the two bulk regions of [`finite_domain_quantile`] end and
/// begin: `(p, s)` such that every segment of the runs of `sorted[..p]`,
/// and of the runs of `sorted[s..]` together with the gap above the
/// largest value, fails [`cannot_win`]. Both are run boundaries of the
/// clamped values.
///
/// `reach` is the least path length at which every segment fails, even
/// one of 2⁶⁴ − 1 points. A run whose `c_le ≤ τ′ − reach` has both its
/// segments at length `≥ τ′ − c_le ≥ reach`, and one whose
/// `c_lt ≥ τ′ + reach − 1` has both at length `≥ c_lt + 1 − τ′ ≥ reach`.
///
/// `None` (score every segment) when `ε·(n+1)/2` overflows — the
/// zero-weight segments then draw nothing — or when `reach > n`, so no
/// segment is that far from `τ′`.
fn bulk_cuts(
    sorted: &[i64],
    tau_prime: usize,
    lo: i64,
    hi: i64,
    eps: f64,
) -> Option<(usize, usize)> {
    let n = sorted.len();
    let loses_at = |len: usize| cannot_win(log_weight(eps, len as u64), u64::BITS);
    if log_weight(eps, n as u64 + 1).is_infinite() || !loses_at(n) {
        return None;
    }
    // Length 0 never loses; find the least losing length in (0, n].
    let (mut winning, mut reach) = (0, n);
    while reach - winning > 1 {
        let mid = winning + (reach - winning) / 2;
        if loses_at(mid) {
            reach = mid;
        } else {
            winning = mid;
        }
    }
    let clamped = |x: i64| x.clamp(lo, hi);
    // Back off to the start of the run that holds rank τ′ − reach + 1.
    let prefix_end = match tau_prime.checked_sub(reach) {
        Some(k) if k > 0 => {
            let v = clamped(sorted[k]);
            sorted[..k].partition_point(|&x| clamped(x) < v)
        }
        _ => 0,
    };
    // Move on to the end of the run that holds rank τ′ + reach − 1.
    let m = tau_prime + reach - 1;
    let suffix_start = if m < n {
        let v = clamped(sorted[m - 1]);
        m + sorted[m..].partition_point(|&x| clamped(x) <= v)
    } else {
        n
    };
    Some((prefix_end, suffix_start))
}

/// The number of constant-score segments the runs of `values` make when
/// the domain is covered up to `cursor − 1`: one singleton per distinct
/// clamped value, plus one gap below each that lies above `cursor` or
/// more than one past its predecessor. `values` starts a run.
fn segment_count(values: &[i64], lo: i64, hi: i64, cursor: i128) -> usize {
    let first = values[0].clamp(lo, hi);
    let leading = 1 + usize::from(first as i128 > cursor);
    let steps = values.iter().zip(&values[1..]).map(|(&a, &b)| {
        // Clamped values differ by less than 2⁶⁴: exact in `u64`.
        let step = (b.clamp(lo, hi) as u64).wrapping_sub(a.clamp(lo, hi) as u64);
        usize::from(step != 0) + usize::from(step > 1)
    });
    leading + steps.sum::<usize>()
}

/// Consumes the draws of `count` segments that cannot win.
fn skip_segments<R: Rng + ?Sized>(rng: &mut R, count: usize) {
    for _ in 0..count {
        skip_gumbel(rng);
    }
}

/// The margin by which a segment's score ceiling must fall short of the
/// running maximum before it is dropped unscored. A scored segment's
/// terms are below 100 in magnitude, so its score sum is off by about
/// 10⁻¹³ at most, and the margin dwarfs that.
const CEILING_MARGIN: f64 = 1e-9;

/// The running Gumbel-max over the constant-score segments of
/// [`finite_domain_quantile`], fed one segment at a time in domain order.
///
/// Segment `j` of `count_j` points at path length `len_j` scores
/// `ln(count_j) − ε·len_j/2 + G_j` with one fresh Gumbel variate `G_j`
/// per segment, drawn in visit order; the first strict maximum wins.
/// That is exactly sampling a segment with probability
/// `∝ count_j·exp(−ε·len_j/2)`, then a uniform point inside it.
///
/// A segment whose score cannot reach [`GUMBEL_MIN`] can never win: the
/// length-0 singleton at the clamped `X_τ′` always exists and scores
/// `ln 1 + (−0.0) + G ≥ GUMBEL_MIN`. For such a segment the `ln`s are
/// skipped and [`skip_gumbel`] consumes its variate's draws. Any other
/// segment draws its first uniform; when the variate is sure to be
/// accepted and the score bound from [`gumbel_ceiling`] falls short of
/// the running maximum, the segment is dropped without an `ln`. Either
/// way the RNG stream — and hence every release — is unchanged
/// (DESIGN.md §12.4).
struct SegmentArgmax {
    eps: f64,
    ceilings: &'static [f64; GUMBEL_BUCKETS],
    score: f64,
    start: i128,
    count: u64,
}

impl SegmentArgmax {
    fn new(eps: f64) -> Self {
        SegmentArgmax {
            eps,
            ceilings: gumbel_ceilings(),
            score: f64::NEG_INFINITY,
            start: 0,
            count: 1,
        }
    }

    /// Offers the `width` domain points from `start` on, each at path
    /// length `len`. `width` lies in `1..2⁶⁴` (a domain of `2⁶⁴` points
    /// always holds at least one singleton besides any gap).
    #[inline]
    fn visit<R: Rng + ?Sized>(&mut self, rng: &mut R, start: i128, width: i128, len: u64) {
        let count = width as u64;
        let log_weight = log_weight(self.eps, len);
        // Zero weight (ε·len overflowed): no candidate, no draw.
        if log_weight.is_infinite() {
            return;
        }
        // ln(count) < bits(count)·ln 2, and G ≤ GUMBEL_MAX.
        let bits = u64::BITS - count.leading_zeros();
        if cannot_win(log_weight, bits) {
            skip_gumbel(rng);
            return;
        }
        // Below 1 − 2⁻⁵², a nonzero uniform is accepted on the first try
        // and its variate is at most the ceiling of its bucket.
        let u: f64 = rng.gen();
        if u > 0.0
            && u < 1.0 - f64::EPSILON
            && log_weight + f64::from(bits) * LN_2 + gumbel_ceiling(self.ceilings, u)
                < self.score - CEILING_MARGIN
        {
            return;
        }
        let score = (count as f64).ln() + log_weight + finish_gumbel(u, rng);
        if score > self.score {
            self.score = score;
            self.start = start;
            self.count = count;
        }
    }
}

/// The historical sampler: materializes every segment, then samples one
/// by Gumbel-max. Kept only as the reference the streaming sampler must
/// match in released value and in RNG state.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::exponential::sample_gumbel;

    /// A segment of candidates sharing one log-weight.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct WeightedSegment {
        count: u64,
        log_weight: f64,
    }

    /// Samples a segment index with weight `count·exp(log_weight)`.
    fn sample_weighted_segment<R: Rng + ?Sized>(
        rng: &mut R,
        segments: &[WeightedSegment],
    ) -> Result<usize> {
        let mut best: Option<usize> = None;
        let mut best_score = f64::NEG_INFINITY;
        for (j, seg) in segments.iter().enumerate() {
            if seg.count == 0 {
                continue;
            }
            if seg.log_weight.is_infinite() {
                continue;
            }
            let score = (seg.count as f64).ln() + seg.log_weight + sample_gumbel(rng);
            if score > best_score {
                best_score = score;
                best = Some(j);
            }
        }
        best.ok_or(UpdpError::EmptyDataset)
    }

    /// [`finite_domain_quantile`] for valid inputs, segment arrays and all.
    pub(super) fn finite_domain_quantile<R: Rng + ?Sized>(
        rng: &mut R,
        sorted: &[i64],
        tau: usize,
        lo: i64,
        hi: i64,
        epsilon: Epsilon,
        beta: f64,
    ) -> Result<i64> {
        if lo == hi {
            return Ok(lo);
        }

        let n = sorted.len();
        let domain_size = (hi as i128 - lo as i128 + 1) as f64;
        let margin = rank_clamp_margin(epsilon, domain_size, beta);
        let tau_f = tau as f64;
        let tau_prime_f = if tau_f <= margin {
            margin
        } else if tau_f >= n as f64 - margin {
            n as f64 - margin
        } else {
            tau_f
        };
        let tau_prime = (tau_prime_f.round() as i64).clamp(1, n as i64) as usize;

        // Build the constant-score segments. Values are clipped into the
        // domain first; duplicates collapse into (value, multiplicity) runs.
        let mut segments: Vec<WeightedSegment> = Vec::with_capacity(2 * n + 1);
        let mut starts: Vec<i128> = Vec::with_capacity(2 * n + 1);

        let eps = epsilon.get();
        // len(y) given counts: c_le = #{x ≤ y}, c_lt = #{x < y}.
        let len_for = |c_le: usize, c_lt: usize| -> u64 {
            let need_low = tau_prime.saturating_sub(c_le);
            let need_high = (c_lt + 1).saturating_sub(tau_prime);
            (need_low + need_high) as u64
        };
        let push = |start: i128,
                    width: i128,
                    c_le: usize,
                    c_lt: usize,
                    segments: &mut Vec<WeightedSegment>,
                    starts: &mut Vec<i128>| {
            if width <= 0 {
                return;
            }
            let len = len_for(c_le, c_lt);
            segments.push(WeightedSegment {
                count: width as u64,
                log_weight: -eps * len as f64 / 2.0,
            });
            starts.push(start);
        };

        let lo_w = lo as i128;
        let hi_w = hi as i128;
        let mut cursor = lo_w; // first domain point not yet covered
        let mut count_before = 0usize; // #{x < current unique value}
        let mut i = 0usize;
        while i < n {
            let v = (sorted[i].clamp(lo, hi)) as i128;
            let mut j = i;
            while j < n && (sorted[j].clamp(lo, hi)) as i128 == v {
                j += 1;
            }
            let mult = j - i;
            // Gap strictly below v (may be empty if duplicates clip together).
            if v > cursor {
                push(
                    cursor,
                    v - cursor,
                    count_before,
                    count_before,
                    &mut segments,
                    &mut starts,
                );
            }
            // Singleton at v.
            if v >= cursor {
                push(
                    v,
                    1,
                    count_before + mult,
                    count_before,
                    &mut segments,
                    &mut starts,
                );
                cursor = v + 1;
            }
            count_before += mult;
            i = j;
        }
        // Gap above the largest value.
        if hi_w >= cursor {
            push(cursor, hi_w - cursor + 1, n, n, &mut segments, &mut starts);
        }

        let chosen = sample_weighted_segment(rng, &segments)?;
        let seg = segments[chosen];
        let start = starts[chosen];
        let offset = if seg.count == 1 {
            0
        } else {
            rng.gen_range(0..seg.count)
        };
        Ok((start + offset as i128) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{raw_uniform, seeded, Scripted};
    use rand::seq::SliceRandom;
    use rand::RngCore;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// True rank distance between the returned value and the target order
    /// statistic: number of data elements strictly between them.
    fn rank_error(sorted: &[i64], tau: usize, y: i64) -> usize {
        let xt = sorted[tau - 1];
        if y >= xt {
            sorted.iter().filter(|&&x| x > xt && x <= y).count()
        } else {
            sorted.iter().filter(|&&x| x >= y && x < xt).count()
        }
    }

    #[test]
    fn median_of_large_dataset_is_accurate() {
        let n = 2000i64;
        let sorted: Vec<i64> = (0..n).collect();
        let e = eps(1.0);
        let beta = 0.1;
        let mut failures = 0;
        let trials = 100;
        for seed in 0..trials {
            let mut rng = seeded(seed);
            let y =
                finite_domain_quantile(&mut rng, &sorted, 1000, -10_000, 10_000, e, beta).unwrap();
            let err = rank_error(&sorted, 1000, y);
            let bound = rank_error_bound(e, 20_001.0, beta);
            if err as f64 > bound {
                failures += 1;
            }
        }
        assert!(failures <= 15, "rank-error bound violated {failures}/100");
    }

    #[test]
    fn respects_domain_bounds() {
        let sorted = vec![5, 5, 5, 5, 5];
        for seed in 0..50 {
            let mut rng = seeded(seed);
            let y = finite_domain_quantile(&mut rng, &sorted, 3, 0, 10, eps(1.0), 0.1).unwrap();
            assert!((0..=10).contains(&y));
        }
    }

    #[test]
    fn point_mass_concentrates_on_value() {
        // 1000 copies of 42 in a wide domain: the median must be 42 nearly
        // always, because any other value needs ≥ 500 changes.
        let sorted = vec![42i64; 1000];
        let mut hits = 0;
        for seed in 0..100 {
            let mut rng = seeded(100 + seed);
            let y = finite_domain_quantile(
                &mut rng,
                &sorted,
                500,
                -1_000_000,
                1_000_000,
                eps(1.0),
                0.1,
            )
            .unwrap();
            if y == 42 {
                hits += 1;
            }
        }
        assert_eq!(hits, 100, "point mass leaked: {hits}/100");
    }

    #[test]
    fn handles_duplicates_correctly() {
        let sorted = vec![0, 0, 0, 10, 10, 10, 10, 20, 20, 20];
        let mut rng = seeded(7);
        for tau in 1..=10 {
            let y =
                finite_domain_quantile(&mut rng, &sorted, tau, -100, 100, eps(2.0), 0.1).unwrap();
            assert!((-100..=100).contains(&y));
        }
    }

    #[test]
    fn extreme_ranks_are_clamped_not_crazy() {
        // τ = 1 with a small margin would let INV return the domain edge;
        // clamping keeps it near the low order statistics.
        let sorted: Vec<i64> = (0..1000).collect();
        let mut rng = seeded(8);
        let y = finite_domain_quantile(&mut rng, &sorted, 1, -1_000_000, 1_000_000, eps(1.0), 0.1)
            .unwrap();
        // Clamped rank is ~29; allow the Lemma 2.8 slack around it.
        assert!(y > -500 && y < 500, "clamped extreme rank gave {y}");
    }

    #[test]
    fn degenerate_domain_returns_the_point() {
        let sorted = vec![3, 3, 3];
        let mut rng = seeded(9);
        assert_eq!(
            finite_domain_quantile(&mut rng, &sorted, 2, 7, 7, eps(1.0), 0.1).unwrap(),
            7
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut rng = seeded(10);
        assert!(finite_domain_quantile(&mut rng, &[], 1, 0, 10, eps(1.0), 0.1).is_err());
        assert!(finite_domain_quantile(&mut rng, &[1], 1, 10, 0, eps(1.0), 0.1).is_err());
        assert!(finite_domain_quantile(&mut rng, &[1], 1, 0, 10, eps(1.0), 0.0).is_err());
        assert!(finite_domain_quantile(&mut rng, &[1], 1, 0, 10, eps(1.0), 1.0).is_err());
    }

    #[test]
    fn huge_domain_does_not_overflow() {
        let sorted = vec![0i64; 100];
        let mut rng = seeded(11);
        let y = finite_domain_quantile(
            &mut rng,
            &sorted,
            50,
            i64::MIN / 2,
            i64::MAX / 2,
            eps(1.0),
            0.1,
        )
        .unwrap();
        assert!((i64::MIN / 2..=i64::MAX / 2).contains(&y));
    }

    #[test]
    fn values_outside_domain_are_clipped() {
        // Data far outside [0, 10] behaves as if clipped to the edges.
        let sorted = vec![-1000, -1000, 5, 1000, 1000];
        let mut rng = seeded(12);
        for _ in 0..20 {
            let y = finite_domain_quantile(&mut rng, &sorted, 3, 0, 10, eps(5.0), 0.1).unwrap();
            assert!((0..=10).contains(&y));
        }
    }

    #[test]
    fn higher_epsilon_concentrates_sampling() {
        let sorted: Vec<i64> = (0..500).map(|i| i * 2).collect();
        let tau = 250;
        let spread = |e: f64, master: u64| -> f64 {
            let mut errs = Vec::new();
            for s in 0..60 {
                let mut rng = seeded(master + s);
                let y =
                    finite_domain_quantile(&mut rng, &sorted, tau, -10_000, 10_000, eps(e), 0.1)
                        .unwrap();
                errs.push(rank_error(&sorted, tau, y) as f64);
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let loose = spread(0.1, 400);
        let tight = spread(5.0, 800);
        assert!(
            tight < loose,
            "mean rank error did not shrink with ε: {tight} !< {loose}"
        );
    }

    #[test]
    fn segment_count_balances_path_length() {
        // One record at 0 in [0, 98]: the singleton {0} has length 0 and
        // the 98-point gap above it length 1. At ε = 2·ln 98 the gap's
        // total weight 98·e^{−ε/2} equals the singleton's, so each side
        // wins half the time.
        let e = eps(2.0 * 98f64.ln());
        let mut rng = seeded(13);
        let trials = 20_000;
        let zeros = (0..trials)
            .filter(|_| finite_domain_quantile(&mut rng, &[0], 1, 0, 98, e, 0.1).unwrap() == 0)
            .count();
        let p = zeros as f64 / trials as f64;
        assert!((p - 0.5).abs() < 0.015, "p = {p}");
    }

    /// A sorted dataset and its domain from one seed, in one of five
    /// shapes: spread out, heavy duplicates, mostly outside `[lo, hi]`,
    /// on the domain `[i64::MIN/2, i64::MAX/2]`, or runs of up to 40
    /// duplicates a step of 1 to 3 apart that start below `lo` and end
    /// above `hi` (so the bulk cuts mostly land inside a run, and the
    /// end runs clamp together into `lo` and `hi`). A `wide` domain has
    /// at least 501 points.
    fn case_data(seed: u64, n: usize, shape: u8, wide: bool) -> (Vec<i64>, i64, i64) {
        let mut g = seeded(seed);
        let widths: &[i64] = if wide {
            &[500, 100_000]
        } else {
            &[0, 1, 2, 10, 500, 100_000]
        };
        let (lo, hi) = if shape == 3 {
            (i64::MIN / 2, i64::MAX / 2)
        } else {
            let lo = g.gen_range(-1000..1000);
            (lo, lo + widths[g.gen_range(0..widths.len())])
        };
        if shape == 4 {
            let mut v = lo - g.gen_range(0..60);
            let mut values = Vec::with_capacity(n);
            while values.len() < n {
                let run = g.gen_range(1..41).min(n - values.len());
                values.extend(std::iter::repeat_n(v, run));
                v += g.gen_range(1..4);
            }
            let hi = hi.min(v - g.gen_range(0..60)).max(lo);
            return (values, lo, hi);
        }
        let distinct: Vec<i64> = (0..3).map(|_| g.gen_range(lo..hi + 1)).collect();
        let mut values: Vec<i64> = (0..n)
            .map(|_| match shape {
                0 => g.gen_range(lo - 10..hi + 11),
                1 => distinct[g.gen_range(0..3)],
                2 => g.gen_range(lo - 5000..hi + 5001),
                _ => [i64::MIN, i64::MAX, 0, g.gen_range(-(1 << 40)..1 << 40)][g.gen_range(0..4)],
            })
            .collect();
        values.sort_unstable();
        (values, lo, hi)
    }

    /// Runs both samplers from one seed: the released values and the
    /// next `u64` of each generator.
    fn both(
        seed: u64,
        sorted: &[i64],
        tau: usize,
        lo: i64,
        hi: i64,
        e: Epsilon,
        beta: f64,
    ) -> ((i64, u64), (i64, u64)) {
        let mut a = seeded(seed);
        let mut b = seeded(seed);
        let streamed = finite_domain_quantile(&mut a, sorted, tau, lo, hi, e, beta).unwrap();
        let reference =
            oracle::finite_domain_quantile(&mut b, sorted, tau, lo, hi, e, beta).unwrap();
        ((streamed, a.gen()), (reference, b.gen()))
    }

    /// τ at 1, at n, around both clamp margins, beyond either end, or
    /// uniform in `1..=n`.
    fn pick_tau(g: &mut impl Rng, pick: u8, n: usize, margin: f64) -> usize {
        let m = margin.min(n as f64) as usize;
        match pick {
            0 => 1,
            1 => n,
            2 => m.max(1),
            3 => (m + 1).min(n),
            4 => n.saturating_sub(m).max(1),
            5 => n.saturating_sub(m + 1).max(1),
            6 => [0, n + 3][g.gen_range(0..2)],
            _ => g.gen_range(1..n + 1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(3000))]

        /// The streaming sampler ≡ the materializing oracle, in the value
        /// released and in the RNG state left behind.
        #[test]
        fn streaming_matches_materialized_oracle(
            seed in 0u64..u64::MAX,
            n in 1usize..4000,
            shape in 0u8..5,
            tau_pick in 0u8..8,
            log10_eps in -3.0f64..1.5,
            beta in 0.01f64..0.99,
        ) {
            let (sorted, lo, hi) = case_data(seed, n, shape, false);
            let e = eps(10f64.powf(log10_eps));
            let domain_size = (hi as i128 - lo as i128 + 1) as f64;
            let margin = rank_clamp_margin(e, domain_size, beta);
            let tau = pick_tau(&mut seeded(seed ^ 1), tau_pick, n, margin);
            let (streamed, reference) = both(seed ^ 2, &sorted, tau, lo, hi, e, beta);
            proptest::prop_assert_eq!(streamed.0, reference.0, "tau {} in [{}, {}]", tau, lo, hi);
            proptest::prop_assert_eq!(streamed.1, reference.1, "RNG state diverged");
        }

        /// The same at inner ranks, ε ≥ 0.3 and wide domains, for the
        /// shapes with many distinct values: both bulk regions are
        /// non-empty in most cases.
        #[test]
        fn bulk_regions_match_materialized_oracle(
            seed in 0u64..u64::MAX,
            n in 400usize..4000,
            shape_pick in 0usize..3,
            tau_frac in 0.1f64..0.9,
            log10_eps in -0.5f64..1.5,
            beta in 0.01f64..0.99,
        ) {
            let (sorted, lo, hi) = case_data(seed, n, [0, 3, 4][shape_pick], true);
            let e = eps(10f64.powf(log10_eps));
            let tau = (tau_frac * n as f64) as usize;
            let (streamed, reference) = both(seed ^ 2, &sorted, tau, lo, hi, e, beta);
            proptest::prop_assert_eq!(streamed.0, reference.0, "tau {} in [{}, {}]", tau, lo, hi);
            proptest::prop_assert_eq!(streamed.1, reference.1, "RNG state diverged");
        }
    }

    #[test]
    fn streaming_matches_oracle_at_the_extremes() {
        // The full i64 domain (gaps up to 2⁶⁴ − 1 points); an ε so large
        // that ε·len/2 overflows to −∞ (zero-weight segments that draw
        // nothing); and ε so small that no segment is ever pruned.
        let data = [i64::MIN, i64::MIN, -1, 0, 0, 7, i64::MAX];
        let epsilons = [f64::MIN_POSITIVE, 1e-300, 1e-3, 0.5, 10.0, 1e300, f64::MAX];
        for (lo, hi) in [(i64::MIN, i64::MAX), (i64::MIN / 2, i64::MAX / 2), (-3, 3)] {
            for e in epsilons {
                for tau in 1..=data.len() {
                    for seed in 0..8 {
                        let (streamed, reference) = both(seed, &data, tau, lo, hi, eps(e), 0.1);
                        assert_eq!(streamed, reference, "[{lo}, {hi}] ε={e} τ={tau}");
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_cuts_fall_back_to_the_exact_loop() {
        // reach > n at tiny ε; ε·(n+1)/2 overflows at ε = f64::MAX.
        let data: Vec<i64> = (0..100_000).collect();
        let cuts = |n: usize, e: f64| bulk_cuts(&data[..n], n.div_ceil(2), 0, 1 << 20, e);
        for n in [1, 7, data.len()] {
            for e in [f64::MIN_POSITIVE, 1e-300, 1e-4, f64::MAX] {
                assert_eq!(cuts(n, e), None, "ε={e} n={n}");
            }
        }
        // ε·len/2 is finite here at every length: one bulk region each.
        assert_eq!(cuts(7, 1e300), Some((3, 4)));
    }

    #[test]
    fn bulk_cuts_snap_to_runs_that_straddle_the_reach() {
        let e = 1.0;
        let reach = (1..)
            .find(|&len| cannot_win(log_weight(e, len), u64::BITS))
            .unwrap() as usize;
        assert_eq!(reach, 170);
        // Runs of 10 on the even integers from −10 to 188; the lowest 50
        // records clamp into lo and the top 40 into hi. τ′ − reach and
        // τ′ + reach − 1 both fall inside a run, which the cuts leave to
        // the exact loop.
        let n = 1000;
        let sorted: Vec<i64> = (0..n as i64).map(|i| 2 * (i / 10) - 10).collect();
        let (lo, hi) = (0, 180);
        let tau = 505;
        let (p, s) = bulk_cuts(&sorted, tau, lo, hi, e).unwrap();
        assert_eq!(
            (p, s),
            (330, 680),
            "k = {}, m = {}",
            tau - reach,
            tau + reach - 1
        );
        let c = |i: usize| sorted[i].clamp(lo, hi);
        assert!(c(p - 1) < c(p) && c(s - 1) < c(s));
        for seed in 0..50 {
            let (streamed, reference) = both(seed, &sorted, tau, lo, hi, eps(e), 0.01);
            assert_eq!(streamed, reference, "seed {seed}");
        }
        // On [60, 124] the end runs clamp to 360 and 330 records, and
        // hold both cuts: the bulk regions snap to empty.
        assert_eq!(bulk_cuts(&sorted, tau, 60, 124, e), Some((0, n)));
        for seed in 0..50 {
            let (streamed, reference) = both(seed, &sorted, tau, 60, 124, eps(e), 0.01);
            assert_eq!(streamed, reference, "seed {seed}");
        }
    }

    #[test]
    fn streaming_matches_oracle_at_the_iqr_passes_of_1e5_records() {
        // estimate_iqr at ε = 0.1 runs its answer passes at ε/15 and the
        // median inside them at ε/30: a 1e5-record column of rounded
        // Gaussian-like values on a 2⁴⁰-point domain, at both quartiles
        // and the median.
        let n = 100_000;
        let mut g = seeded(21);
        let mut sorted: Vec<i64> = (0..n)
            .map(|_| {
                let s: f64 = (0..4).map(|_| g.gen::<f64>()).sum();
                ((s - 2.0) * 3e5).round() as i64
            })
            .collect();
        sorted.sort_unstable();
        let (lo, hi) = (-(1 << 39), (1 << 39) - 1);
        for e in [0.1 / 15.0, 0.1 / 30.0] {
            for tau in [n / 4, n / 2, 3 * n / 4] {
                assert!(bulk_cuts(&sorted, tau, lo, hi, e).is_some());
                for seed in 0..3 {
                    let (streamed, reference) = both(seed, &sorted, tau, lo, hi, eps(e), 0.1);
                    assert_eq!(streamed, reference, "ε={e} τ={tau} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn streaming_matches_oracle_on_bucket_edge_uniforms() {
        // Uniforms at every edge of the ceiling table's buckets, dealt
        // around by a seeded shuffle, with every eighth draw one of U = 0
        // (a redraw) and the two uniforms from 1 − 2⁻⁵² up: the ceiling
        // rejections must consume and release exactly what the oracle
        // does.
        let top = 1u64 << 53;
        let specials = [0, top - 2, top - 1].map(raw_uniform);
        let mut edges = Vec::new();
        for k in 1..1024u64 {
            let edge = k << 43;
            edges.extend([edge - 1, edge, edge + 1].map(raw_uniform));
        }
        for case in 0..40u64 {
            let (sorted, lo, hi) = case_data(case, 300, (case % 5) as u8, case % 2 == 0);
            let e = eps([0.2, 1.0, 5.0, 30.0][case as usize % 4]);
            let tau = 1 + seeded(case).gen_range(0..300);
            edges.shuffle(&mut seeded(case ^ 7));
            let mut script = Vec::new();
            for (i, chunk) in edges.chunks(7).enumerate() {
                script.extend_from_slice(chunk);
                script.push(specials[(i + case as usize) % 3]);
            }
            let mut a = Scripted(script.clone().into_iter());
            let mut b = Scripted(script.into_iter());
            let streamed = finite_domain_quantile(&mut a, &sorted, tau, lo, hi, e, 0.1).unwrap();
            let reference =
                oracle::finite_domain_quantile(&mut b, &sorted, tau, lo, hi, e, 0.1).unwrap();
            assert_eq!(streamed, reference, "case {case}");
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
        }
    }
}
