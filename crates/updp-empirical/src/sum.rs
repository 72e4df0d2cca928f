//! Private sum estimation over the unbounded integer domain.
//!
//! Section 1.1.1 notes that sum estimation is equivalent to answering
//! self-join-free aggregation queries in a relational database under
//! user-level DP [DFY+22], where the state of the art achieved error
//! `O((rad(D)/ε)·log N·log log N)` *and required a domain bound `N`*.
//! Composing the paper's machinery gives a domain-assumption-free sum
//! with error `O((rad(D)/ε)·log log rad(D))` — the "significant
//! improvement" the paper points out.
//!
//! Construction: privatize the range once with 4ε/5 (Algorithm 4) and
//! release `Σ Clip(Xᵢ, R̃) + Lap(5·(R̃.hi − R̃.lo)/ε)` with the other
//! ε/5. Replacing one record moves the clipped sum by at most
//! `R̃.hi − R̃.lo`: the replace-one sensitivity that `clipped_mean` also
//! uses in its `(r − l)/n`.

use crate::dataset::SortedInts;
use crate::range::{infinite_domain_range, IntRange};
use rand::Rng;
use updp_core::clipped_mean::clipped_sum_i64;
use updp_core::error::{ensure_beta, Result};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;

/// Diagnostic output of the private sum estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumResult {
    /// The ε-DP sum estimate.
    pub estimate: f64,
    /// The privatized clipping range.
    pub range: IntRange,
    /// Elements clipped (diagnostic).
    pub clipped: usize,
}

/// ε-DP estimate of the sum `Σᵢ Xᵢ` of `D ∈ Zⁿ`, with no domain bound.
///
/// Error is `O((rad(D)/ε)·log(log(rad(D))/β))` with probability ≥ 1 − β:
/// the clipping bias is `(#clipped)·O(rad)` with `#clipped =
/// O(ε⁻¹ log log rad)` by Theorem 3.2 applied around the data's own
/// location, and the Laplace scale is `O(rad/ε)`.
pub fn infinite_domain_sum<R: Rng + ?Sized>(
    rng: &mut R,
    data: &SortedInts,
    epsilon: Epsilon,
    beta: f64,
) -> Result<SumResult> {
    ensure_beta(beta)?;
    let range = infinite_domain_range(rng, data, epsilon.scale(4.0 / 5.0), beta / 2.0)?;
    // Chunked clip+sum kernel (bit-identical to the historical
    // per-element i128 loop — integer addition is exact).
    let clipped_sum = clipped_sum_i64(data.values(), range.lo, range.hi);
    // Each record contributes a value in [lo, hi], so replacing one
    // changes the clipped sum by at most hi − lo.
    let sensitivity = range.width() as f64;
    let estimate = if sensitivity > 0.0 {
        clipped_sum as f64 + sample_laplace(rng, 5.0 * sensitivity / epsilon.get())
    } else {
        clipped_sum as f64
    };
    let clipped = data.len() - data.count_in(range.lo, range.hi);
    Ok(SumResult {
        estimate,
        range,
        clipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn exact_sum(d: &SortedInts) -> f64 {
        d.values().iter().map(|&v| v as i128).sum::<i128>() as f64
    }

    #[test]
    fn accurate_on_concentrated_data() {
        let d = SortedInts::new((0..5000).map(|i| 100 + (i % 7)).collect()).unwrap();
        let truth = exact_sum(&d);
        let mut errs = Vec::new();
        for seed in 0..50 {
            let mut rng = seeded(seed);
            let r = infinite_domain_sum(&mut rng, &d, eps(1.0), 0.1).unwrap();
            errs.push((r.estimate - truth).abs());
        }
        errs.sort_by(f64::total_cmp);
        // rad ≈ 106, so error should be O(rad/ε·loglog) ≈ hundreds.
        assert!(errs[25] < 2_000.0, "median sum error {}", errs[25]);
        // Relative to the sum (~515k) that is ≪ 1%.
        assert!(errs[25] / truth < 0.01);
    }

    #[test]
    fn robust_to_one_outlier() {
        let mut values = vec![10i64; 3000];
        values.push(1 << 40);
        let d = SortedInts::new(values).unwrap();
        let mut rng = seeded(1);
        let r = infinite_domain_sum(&mut rng, &d, eps(1.0), 0.1).unwrap();
        // The bulk sums to 30_000; the outlier must be clipped away
        // rather than poisoning the release with 2^40-scale noise.
        assert!(
            (r.estimate - 30_000.0).abs() < 30_000.0,
            "estimate {}",
            r.estimate
        );
        assert!(r.clipped >= 1);
    }

    #[test]
    fn negative_sums_work() {
        let d = SortedInts::new(vec![-1000; 2000]).unwrap();
        let mut rng = seeded(2);
        let r = infinite_domain_sum(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!(
            (r.estimate + 2_000_000.0).abs() < 50_000.0,
            "estimate {}",
            r.estimate
        );
    }

    #[test]
    fn error_scales_with_radius_not_domain() {
        // Same shape at two radically different scales: relative error
        // stays comparable because there is no N anywhere.
        let med_err = |scale: i64, master: u64| -> f64 {
            let d = SortedInts::new((0..4000).map(|i| scale + (i % 11)).collect()).unwrap();
            let truth = exact_sum(&d);
            let mut errs: Vec<f64> = (0..30)
                .map(|s| {
                    let mut rng = seeded(master + s);
                    let r = infinite_domain_sum(&mut rng, &d, eps(1.0), 0.1).unwrap();
                    (r.estimate - truth).abs() / truth.abs()
                })
                .collect();
            errs.sort_by(f64::total_cmp);
            errs[15]
        };
        let small = med_err(1_000, 100);
        let large = med_err(1_000_000_000, 200);
        assert!(small < 0.05, "small-scale rel err {small}");
        assert!(large < 0.05, "large-scale rel err {large}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SortedInts::new((0..100).collect()).unwrap();
        let mut a = seeded(9);
        let mut b = seeded(9);
        assert_eq!(
            infinite_domain_sum(&mut a, &d, eps(1.0), 0.1).unwrap(),
            infinite_domain_sum(&mut b, &d, eps(1.0), 0.1).unwrap()
        );
    }
}
