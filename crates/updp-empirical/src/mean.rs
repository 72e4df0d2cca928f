//! `InfiniteDomainMean` — Algorithm 5 (Theorems 3.3 and 3.4).
//!
//! The instance-optimal empirical mean over `Z`:
//!
//! 1. `R̃(D)` ← `InfiniteDomainRange(D, 4ε/5, β/2)`;
//! 2. release `ClippedMean(D, R̃(D)) + Lap(5·|R̃(D)|/(εn))`.
//!
//! Theorem 3.3: error `O((γ(D)/(εn))·log(log(γ(D))/β))` — an optimality
//! ratio of `O(log log γ(D)/ε)` against the instance lower bound
//! `L_in-nbr(D) = Θ(γ(D)/n)` of \[HLY21\], and an *exponential* improvement
//! over the `O(log N/ε)` ratio of the best prior finite-domain estimator.
//! Theorem 3.4 shows `Ω(log log N/ε)` is necessary, so this is worst-case
//! optimal among instance-optimal mechanisms.

use crate::dataset::SortedInts;
use crate::range::{infinite_domain_range, IntRange};
use rand::Rng;
use updp_core::clipped_mean::clipped_mean_i64;
use updp_core::error::{ensure_beta, Result};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;

/// Diagnostic output of the empirical mean estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalMeanResult {
    /// The ε-DP mean estimate `μ̃(D)`.
    pub estimate: f64,
    /// The privatized range the data was clipped into.
    pub range: IntRange,
    /// How many elements were clipped (post-processing of the DP range —
    /// safe to report... only to the *analyst* holding the raw data; it is
    /// a function of `D` and `R̃`, so treat it as a non-private
    /// diagnostic).
    pub clipped: usize,
}

/// ε-DP estimate of the empirical mean `μ(D)` over `Z` (Algorithm 5).
pub fn infinite_domain_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &SortedInts,
    epsilon: Epsilon,
    beta: f64,
) -> Result<EmpiricalMeanResult> {
    ensure_beta(beta)?;
    let range = infinite_domain_range(rng, data, epsilon.scale(4.0 / 5.0), beta / 2.0)?;
    let mean = clipped_mean_i64(data.values(), range.lo, range.hi)?;
    let n = data.len() as f64;
    let width = range.width() as f64;
    // The width is an i64 range cast to f64, so 0.0 is exact: the degenerate
    // single-bucket range needs no Laplace noise (sensitivity 0).
    let estimate = if width == 0.0 {
        mean
    } else {
        mean + sample_laplace(rng, 5.0 * width / (epsilon.get() * n))
    };
    let clipped = data.len() - data.count_in(range.lo, range.hi);
    Ok(EmpiricalMeanResult {
        estimate,
        range,
        clipped,
    })
}

/// The error bound of Theorem 3.3 (up to its universal constant):
/// `(γ(D)/(εn))·log(log γ(D)/β)`. Exposed for experiment reporting.
pub fn mean_error_bound(epsilon: Epsilon, gamma: u64, n: usize, beta: f64) -> f64 {
    let g = gamma.max(1) as f64;
    let loglog = (g.ln().max(1.0) / beta).ln().max(1.0);
    g / (epsilon.get() * n as f64) * loglog
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn accurate_on_concentrated_data() {
        let values: Vec<i64> = (0..5000).map(|i| 100 + (i % 21) - 10).collect();
        let d = SortedInts::new(values).unwrap();
        let truth = d.mean();
        let mut errs = Vec::new();
        for seed in 0..50 {
            let mut rng = seeded(seed);
            let r = infinite_domain_mean(&mut rng, &d, eps(1.0), 0.1).unwrap();
            errs.push((r.estimate - truth).abs());
        }
        errs.sort_by(f64::total_cmp);
        let median_err = errs[25];
        // γ = 20, n = 5000, ε = 1 ⇒ bound ≈ 20/5000·loglog ≈ 0.02.
        assert!(median_err < 1.0, "median error {median_err}");
    }

    #[test]
    fn error_within_theorem_bound_with_slack() {
        let values: Vec<i64> = (0..4000).map(|i| (i % 1001) - 500).collect();
        let d = SortedInts::new(values).unwrap();
        let truth = d.mean();
        let e = eps(1.0);
        let beta = 0.1;
        let bound = mean_error_bound(e, d.width(), d.len(), beta);
        let mut failures = 0;
        for seed in 0..100 {
            let mut rng = seeded(100 + seed);
            let r = infinite_domain_mean(&mut rng, &d, e, beta).unwrap();
            // Universal-constant slack factor of 20.
            if (r.estimate - truth).abs() > 20.0 * bound {
                failures += 1;
            }
        }
        assert!(failures <= 10, "bound exceeded {failures}/100");
    }

    #[test]
    fn outlier_robustness_beats_naive_width() {
        // One extreme outlier: the clipped mean must not be dragged far.
        let mut values: Vec<i64> = vec![0; 4000];
        values.push(1 << 40);
        let d = SortedInts::new(values).unwrap();
        let mut rng = seeded(5);
        let r = infinite_domain_mean(&mut rng, &d, eps(1.0), 0.1).unwrap();
        // True mean ≈ 2.7e8; clipped estimate should be near 0 (the
        // instance-optimal answer tracks the *bulk*), certainly ≪ 1e8.
        assert!(
            r.estimate.abs() < 1e8,
            "outlier dragged estimate to {}",
            r.estimate
        );
    }

    #[test]
    fn degenerate_point_mass_is_exact_ish() {
        let d = SortedInts::new(vec![77; 3000]).unwrap();
        let mut rng = seeded(6);
        let r = infinite_domain_mean(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!((r.estimate - 77.0).abs() < 5.0, "estimate {}", r.estimate);
    }

    #[test]
    fn negative_means_work() {
        let values: Vec<i64> = (0..3000).map(|i| -5000 + (i % 11)).collect();
        let d = SortedInts::new(values).unwrap();
        let truth = d.mean();
        let mut rng = seeded(7);
        let r = infinite_domain_mean(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!(
            (r.estimate - truth).abs() < 10.0,
            "estimate {} vs {}",
            r.estimate,
            truth
        );
    }

    #[test]
    fn clipped_count_is_reported() {
        let mut values: Vec<i64> = vec![0; 2000];
        values.extend([1 << 35, -(1 << 35)]);
        let d = SortedInts::new(values).unwrap();
        let mut rng = seeded(8);
        let r = infinite_domain_mean(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!(r.clipped <= d.len());
    }

    #[test]
    fn error_bound_shrinks_with_n_and_eps() {
        let e1 = mean_error_bound(eps(0.5), 1000, 1000, 0.1);
        let e2 = mean_error_bound(eps(0.5), 1000, 10_000, 0.1);
        let e3 = mean_error_bound(eps(5.0), 1000, 1000, 0.1);
        assert!(e2 < e1);
        assert!(e3 < e1);
    }
}
