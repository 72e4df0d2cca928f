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
//! is `O(n)` after sorting (`O(n log n)` total) rather than `O(|X|)` —
//! which matters because the paper routinely uses domains of width `2^40+`.
//!
//! Algorithm 2 additionally clamps ranks that are too extreme (within
//! `(2/ε)·log(|X|/β)` of either end), because INV can behave arbitrarily
//! badly there; Lemma 2.8 then gives rank error `≤ (4/ε)·log(|X|/β)`.

use crate::error::{ensure_beta, Result, UpdpError};
use crate::exponential::{sample_gumbel, skip_gumbel, GUMBEL_MAX, GUMBEL_MIN};
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
    let mut argmax = SegmentArgmax::new(epsilon);
    let mut cursor = lo as i128; // first domain point not yet covered
    let mut count_before = 0usize; // #{x < current unique value}
    let mut i = 0usize;
    while i < n {
        let v = sorted[i].clamp(lo, hi);
        let mut j = i;
        while j < n && sorted[j].clamp(lo, hi) == v {
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
    // Gap above the largest value.
    if hi as i128 >= cursor {
        argmax.visit(rng, cursor, hi as i128 - cursor + 1, len_for(n, n));
    }

    let offset = if argmax.count == 1 {
        0
    } else {
        rng.gen_range(0..argmax.count)
    };
    Ok((argmax.start + offset as i128) as i64)
}

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
/// `ln 1 + (−0.0) + G ≥ GUMBEL_MIN`. For such a segment the two `ln`s are
/// skipped and [`skip_gumbel`] consumes its variate's draws, so the RNG
/// stream — and hence every release — is unchanged (DESIGN.md §12.4).
struct SegmentArgmax {
    eps: f64,
    score: f64,
    start: i128,
    count: u64,
}

impl SegmentArgmax {
    fn new(epsilon: Epsilon) -> Self {
        SegmentArgmax {
            eps: epsilon.get(),
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
        let log_weight = -self.eps * len as f64 / 2.0;
        // Zero weight (ε·len overflowed): no candidate, no draw.
        if log_weight.is_infinite() {
            return;
        }
        // ln(count) < bits(count)·ln 2, and G ≤ GUMBEL_MAX.
        let bits = u64::BITS - count.leading_zeros();
        if log_weight + f64::from(bits) * LN_2 + GUMBEL_MAX < GUMBEL_MIN {
            skip_gumbel(rng);
            return;
        }
        let score = (count as f64).ln() + log_weight + sample_gumbel(rng);
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
    use crate::rng::seeded;

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

    /// A sorted dataset and its domain from one seed, in one of four
    /// shapes: spread out, heavy duplicates, mostly outside `[lo, hi]`,
    /// or on the domain `[i64::MIN/2, i64::MAX/2]`.
    fn case_data(seed: u64, n: usize, shape: u8) -> (Vec<i64>, i64, i64) {
        let mut g = seeded(seed);
        let (lo, hi) = if shape == 3 {
            (i64::MIN / 2, i64::MAX / 2)
        } else {
            let lo = g.gen_range(-1000..1000);
            (lo, lo + [0, 1, 2, 10, 500, 100_000][g.gen_range(0..6)])
        };
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
            n in 1usize..300,
            shape in 0u8..4,
            tau_pick in 0u8..8,
            log10_eps in -3.0f64..1.0,
            beta in 0.01f64..0.99,
        ) {
            let (sorted, lo, hi) = case_data(seed, n, shape);
            let e = eps(10f64.powf(log10_eps));
            let domain_size = (hi as i128 - lo as i128 + 1) as f64;
            let margin = rank_clamp_margin(e, domain_size, beta);
            let tau = pick_tau(&mut seeded(seed ^ 1), tau_pick, n, margin);
            let mut a = seeded(seed ^ 2);
            let mut b = seeded(seed ^ 2);
            let streamed = finite_domain_quantile(&mut a, &sorted, tau, lo, hi, e, beta).unwrap();
            let reference =
                oracle::finite_domain_quantile(&mut b, &sorted, tau, lo, hi, e, beta).unwrap();
            proptest::prop_assert_eq!(streamed, reference, "tau {} in [{}, {}]", tau, lo, hi);
            proptest::prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state diverged");
        }
    }

    #[test]
    fn streaming_matches_oracle_at_the_extremes() {
        // The full i64 domain (gaps up to 2⁶⁴ − 1 points), and an ε so
        // large that ε·len/2 overflows to −∞ (zero-weight segments that
        // draw nothing).
        let data = [i64::MIN, i64::MIN, -1, 0, 0, 7, i64::MAX];
        for (lo, hi) in [(i64::MIN, i64::MAX), (i64::MIN / 2, i64::MAX / 2), (-3, 3)] {
            for e in [1e-3, 0.5, 10.0, 1e300, f64::MAX] {
                for tau in 1..=data.len() {
                    for seed in 0..8 {
                        let mut a = seeded(seed);
                        let mut b = seeded(seed);
                        let streamed =
                            finite_domain_quantile(&mut a, &data, tau, lo, hi, eps(e), 0.1);
                        let reference =
                            oracle::finite_domain_quantile(&mut b, &data, tau, lo, hi, eps(e), 0.1);
                        assert_eq!(streamed.unwrap(), reference.unwrap(), "[{lo}, {hi}] ε={e}");
                        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "[{lo}, {hi}] ε={e}");
                    }
                }
            }
        }
    }
}
