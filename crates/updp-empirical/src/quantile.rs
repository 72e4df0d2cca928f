//! `InfiniteDomainQuantile` — Algorithm 6 (Theorem 3.5).
//!
//! Quantile release over the unbounded integer domain: find `R̃(D)` with
//! Algorithm 4 (4ε/5, β/2), clip, then run `FiniteDomainQuantile`
//! (ε/5, β/2) over `R̃(D)`. Theorem 3.5: rank error
//! `t = O((1/ε)·log(γ(D)/β))` — instance-specific (depends on the data's
//! own width, not a domain bound `N`) and worst-case optimal via the
//! interior-point reduction of [BKN10, BNSV15].

use crate::dataset::SortedInts;
use crate::range::{infinite_domain_range, IntRange};
use rand::Rng;
use updp_core::error::{ensure_beta, Result};
use updp_core::inverse_sensitivity::finite_domain_quantile;
use updp_core::privacy::Epsilon;

/// Diagnostic output of the empirical quantile estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileResult {
    /// The privatized τ-th order statistic `X̃_τ`.
    pub estimate: i64,
    /// The privatized range used for domain reduction.
    pub range: IntRange,
}

/// ε-DP estimate of the τ-th order statistic (1-based) of `D ∈ Zⁿ`
/// (Algorithm 6).
pub fn infinite_domain_quantile<R: Rng + ?Sized>(
    rng: &mut R,
    data: &SortedInts,
    tau: usize,
    epsilon: Epsilon,
    beta: f64,
) -> Result<QuantileResult> {
    ensure_beta(beta)?;
    let range = infinite_domain_range(rng, data, epsilon.scale(4.0 / 5.0), beta / 2.0)?;
    // The sampler clips every value into the range itself.
    let estimate = finite_domain_quantile(
        rng,
        data.values(),
        tau,
        range.lo,
        range.hi,
        epsilon.scale(1.0 / 5.0),
        beta / 2.0,
    )?;
    Ok(QuantileResult { estimate, range })
}

/// The rank-error bound of Theorem 3.5 (up to its universal constant):
/// `(1/ε)·log(γ(D)/β)`.
pub fn quantile_rank_error_bound(epsilon: Epsilon, gamma: u64, beta: f64) -> f64 {
    (1.0 / epsilon.get()) * ((gamma.max(1) as f64) / beta).ln().max(1.0)
}

/// The true rank error of an estimate: the number of data elements
/// strictly between `X_τ` and the estimate (the `t` of Theorem 3.5,
/// measured exactly). Used by tests and experiments.
pub fn rank_error(data: &SortedInts, tau: usize, estimate: i64) -> usize {
    let xt = data.order_statistic(tau as i64);
    if estimate >= xt {
        data.count_in(xt, estimate)
            .saturating_sub(data.count_in(xt, xt))
    } else {
        data.count_in(estimate, xt)
            .saturating_sub(data.count_in(xt, xt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn rank_error_is_zero_at_truth() {
        let d = SortedInts::new((0..100).collect()).unwrap();
        assert_eq!(rank_error(&d, 50, d.order_statistic(50)), 0);
    }

    #[test]
    fn rank_error_counts_between() {
        let d = SortedInts::new(vec![0, 10, 20, 30, 40]).unwrap();
        // τ = 3 → X_τ = 20. Estimate 35: elements in (20, 35] = {30} → 1.
        assert_eq!(rank_error(&d, 3, 35), 1);
        // Estimate 5: elements in [5, 20) = {10} → 1.
        assert_eq!(rank_error(&d, 3, 5), 1);
        // Estimate 40: {30, 40} → 2.
        assert_eq!(rank_error(&d, 3, 40), 2);
    }

    #[test]
    fn median_rank_error_within_bound() {
        let d = SortedInts::new((0..3000).map(|i| i * 7 - 10_000).collect()).unwrap();
        let e = eps(1.0);
        let beta = 0.1;
        let bound = quantile_rank_error_bound(e, d.width(), beta);
        let mut failures = 0;
        for seed in 0..100 {
            let mut rng = seeded(seed);
            let r = infinite_domain_quantile(&mut rng, &d, 1500, e, beta).unwrap();
            // Universal-constant slack of 20.
            if rank_error(&d, 1500, r.estimate) as f64 > 20.0 * bound {
                failures += 1;
            }
        }
        assert!(failures <= 10, "rank bound failed {failures}/100");
    }

    #[test]
    fn extreme_quantiles_are_sane() {
        let d = SortedInts::new((0..2000).collect()).unwrap();
        let mut rng = seeded(3);
        let lo = infinite_domain_quantile(&mut rng, &d, 1, eps(1.0), 0.1).unwrap();
        let hi = infinite_domain_quantile(&mut rng, &d, 2000, eps(1.0), 0.1).unwrap();
        // Clamping keeps the answers within/near the data span.
        assert!(lo.estimate >= -2000 && lo.estimate <= 4000, "{lo:?}");
        assert!(hi.estimate >= -2000 && hi.estimate <= 4000, "{hi:?}");
        assert!(lo.estimate < hi.estimate, "quantiles out of order");
    }

    #[test]
    fn quantiles_track_far_clusters() {
        let d = SortedInts::new((0..3000).map(|i| 5_000_000 + (i % 999)).collect()).unwrap();
        let mut rng = seeded(4);
        let r = infinite_domain_quantile(&mut rng, &d, 1500, eps(1.0), 0.1).unwrap();
        assert!(
            (r.estimate - 5_000_500).abs() < 5_000,
            "median estimate {} far from cluster",
            r.estimate
        );
    }

    #[test]
    fn monotone_in_tau_on_average() {
        let d = SortedInts::new((0..4000).map(|i| i % 2001).collect()).unwrap();
        let mut rng = seeded(5);
        let q25: f64 = (0..20)
            .map(|_| {
                infinite_domain_quantile(&mut rng, &d, 1000, eps(1.0), 0.1)
                    .unwrap()
                    .estimate as f64
            })
            .sum::<f64>()
            / 20.0;
        let q75: f64 = (0..20)
            .map(|_| {
                infinite_domain_quantile(&mut rng, &d, 3000, eps(1.0), 0.1)
                    .unwrap()
                    .estimate as f64
            })
            .sum::<f64>()
            / 20.0;
        assert!(q25 < q75, "q25 {q25} !< q75 {q75}");
    }
}
