//! Multivariate mean estimation — the §1.2 extension.
//!
//! The paper (§1.2): "Using the idea of \[HLY21\] but replacing \[the\]
//! Gaussian mechanism with \[the\] Laplace mechanism, we can extend our
//! pure-DP estimator to the multivariate case. However, it does not get
//! the optimal privacy term Õ(d/(εn))" — achieving the optimal
//! d-dependence is listed as the paper's first open problem, open even
//! *with* assumptions A1/A2/A3.
//!
//! We implement the coordinate-wise construction: run the universal
//! univariate estimator per coordinate with budget `ε/d` (basic
//! composition, Lemma 2.2). Per-coordinate error is the Theorem 4.5
//! bound at `ε/d`, so the ℓ∞ privacy term is `Õ(d/(εn))` per coordinate
//! and the ℓ₂ term `Õ(d^{3/2}/(εn))` — exactly the suboptimality the
//! paper describes. Each coordinate keeps full universality: different
//! coordinates may live at wildly different locations and scales with no
//! configuration.

use crate::estimator::{Estimator, Release};
use crate::mean::{estimate_mean, MeanEstimate};
use rand::Rng;
use updp_core::error::{ensure_beta, Result, UpdpError};
use updp_core::privacy::Epsilon;

/// Result of a multivariate universal mean estimation.
#[derive(Debug, Clone)]
pub struct MultivariateMeanEstimate {
    /// The ε-DP estimate of the mean vector.
    pub estimate: Vec<f64>,
    /// Per-coordinate diagnostics (each produced at budget ε/d).
    pub coordinates: Vec<MeanEstimate>,
}

/// ε-DP universal estimate of a d-dimensional mean.
///
/// `data` is row-major: each inner slice is one record of length `d`.
/// Total privacy cost is `epsilon` (ε/d per coordinate under basic
/// composition — one record participates in every coordinate).
pub fn estimate_mean_multivariate<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[Vec<f64>],
    epsilon: Epsilon,
    beta: f64,
) -> Result<MultivariateMeanEstimate> {
    if data.is_empty() {
        return Err(UpdpError::EmptyDataset);
    }
    let d = data[0].len();
    if d == 0 {
        return Err(UpdpError::InvalidParameter {
            name: "data",
            reason: "records must have at least one coordinate".into(),
        });
    }
    if data.iter().any(|row| row.len() != d) {
        return Err(UpdpError::InvalidParameter {
            name: "data",
            reason: "all records must have the same dimension".into(),
        });
    }
    ensure_beta(beta)?;
    let per_coord = epsilon.scale(1.0 / d as f64);
    // β is also split so the whole vector succeeds w.p. ≥ 1 − β.
    let per_beta = beta / d as f64;
    let mut coordinates = Vec::with_capacity(d);
    let mut estimate = Vec::with_capacity(d);
    let mut column = Vec::with_capacity(data.len());
    for j in 0..d {
        column.clear();
        column.extend(data.iter().map(|row| row[j]));
        let r = estimate_mean(rng, &column, per_coord, per_beta)?;
        estimate.push(r.estimate);
        coordinates.push(r);
    }
    Ok(MultivariateMeanEstimate {
        estimate,
        coordinates,
    })
}

/// The multivariate mean (§1.2 extension) as an [`Estimator`] over
/// the view's columns: one universal mean per column at ε/d and β/d
/// (basic composition), the same arithmetic as
/// [`estimate_mean_multivariate`].
pub const MULTI_MEAN: Estimator =
    Estimator::multi_column("multi-mean", "multi-mean", |rng, view, params| {
        let d = view.dim();
        if d == 0 {
            return Err(UpdpError::EmptyDataset);
        }
        ensure_beta(params.beta)?;
        let per_coord = params.epsilon.scale(1.0 / d as f64);
        let per_beta = params.beta / d as f64;
        let mut release = Release {
            values: Vec::with_capacity(d),
            sensitivities: Vec::with_capacity(d),
        };
        for col in view.cols() {
            let est = estimate_mean(rng, col.data(), per_coord, per_beta)?;
            release.values.push(est.estimate);
            release
                .sensitivities
                .push(est.range.width() / col.len() as f64);
        }
        Ok(release)
    });

/// ℓ₂ distance helper for evaluating multivariate estimates.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// Rows with independent Gaussian coordinates of given (μ, σ).
    fn sample_rows(params: &[(f64, f64)], n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        let dists: Vec<Gaussian> = params
            .iter()
            .map(|&(m, s)| Gaussian::new(m, s).unwrap())
            .collect();
        (0..n)
            .map(|_| dists.iter().map(|g| g.sample(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn recovers_mixed_scale_mean_vector() {
        // Coordinates at completely different locations and scales —
        // universality must hold per coordinate.
        let params = [(0.0, 1.0), (1e6, 10.0), (-500.0, 0.01)];
        let data = sample_rows(&params, 40_000, 1);
        let mut rng = seeded(2);
        let r = estimate_mean_multivariate(&mut rng, &data, eps(1.5), 0.1).unwrap();
        assert_eq!(r.estimate.len(), 3);
        assert!((r.estimate[0] - 0.0).abs() < 0.5, "c0 {}", r.estimate[0]);
        assert!((r.estimate[1] - 1e6).abs() < 5.0, "c1 {}", r.estimate[1]);
        assert!((r.estimate[2] + 500.0).abs() < 0.01, "c2 {}", r.estimate[2]);
    }

    #[test]
    fn l2_error_grows_with_dimension() {
        // The paper's point: coordinate-wise composition pays ~d^{3/2} in
        // ℓ₂; doubling d should visibly increase the ℓ₂ error.
        let n = 8_000;
        let e = eps(0.5);
        let err_for = |d: usize, seed: u64| -> f64 {
            let params: Vec<(f64, f64)> = (0..d).map(|_| (0.0, 1.0)).collect();
            let truth = vec![0.0; d];
            let mut errs: Vec<f64> = (0..10)
                .map(|t| {
                    let data = sample_rows(&params, n, seed + t);
                    let mut rng = seeded(seed ^ t);
                    let r = estimate_mean_multivariate(&mut rng, &data, e, 0.2).unwrap();
                    l2_distance(&r.estimate, &truth)
                })
                .collect();
            errs.sort_by(f64::total_cmp);
            errs[5]
        };
        let d2 = err_for(2, 100);
        let d8 = err_for(8, 200);
        assert!(d8 > d2, "ℓ₂ error should grow with d: {d2} vs {d8}");
    }

    #[test]
    fn rejects_ragged_and_empty_input() {
        let mut rng = seeded(3);
        assert!(estimate_mean_multivariate(&mut rng, &[], eps(1.0), 0.1).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(estimate_mean_multivariate(&mut rng, &ragged, eps(1.0), 0.1).is_err());
        let empty_rows = vec![vec![], vec![]];
        assert!(estimate_mean_multivariate(&mut rng, &empty_rows, eps(1.0), 0.1).is_err());
    }

    #[test]
    fn diagnostics_cover_every_coordinate() {
        let data = sample_rows(&[(5.0, 1.0), (7.0, 2.0)], 5_000, 4);
        let mut rng = seeded(5);
        let r = estimate_mean_multivariate(&mut rng, &data, eps(1.0), 0.1).unwrap();
        assert_eq!(r.coordinates.len(), 2);
        for c in &r.coordinates {
            assert!(c.bucket > 0.0);
            assert!(c.range.lo < c.range.hi);
        }
    }

    #[test]
    fn l2_distance_basics() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[1.0], &[1.0]), 0.0);
    }
}
