//! `EstimateIQR` — Algorithm 10 (Theorem 6.2).
//!
//! The universal ε-DP scale estimator:
//!
//! 1. `IQR̲ ← EstimateIQRLowerBound(D, ε/3, β/6)`;
//! 2. discretize with bucket `b = IQR̲/n` (so discretization error is a
//!    vanishing `IQR/n` term);
//! 3. `X̃_{n/4}, X̃_{3n/4}` via `InfiniteDomainQuantile` (ε/3, β/6 each);
//! 4. return their difference.
//!
//! Theorem 6.2: sample complexity with privacy term
//! `Õ(1/(εα·θ(α/4)))` — convergence `α ∝ 1/(εn) + 1/√n`, versus the
//! previous (and only prior) universal IQR estimator \[DL09\], which needs
//! `(ε, δ)`-DP *and* converges at `α ∝ 1/(ε log n)` — exponentially
//! slower in n. The `iqr` experiment measures exactly this gap.

use crate::estimator::{Estimator, Release};
use crate::iqr_lower_bound::iqr_lower_bound;
use rand::Rng;
use updp_core::error::{ensure_beta, ensure_finite, Result, UpdpError};
use updp_core::privacy::Epsilon;
use updp_empirical::discretize::Discretizer;
use updp_empirical::quantile::infinite_domain_quantile;
use updp_empirical::view::ColumnView;

/// Diagnostics accompanying a universal IQR estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqrEstimate {
    /// The ε-DP estimate `ĨQR`.
    pub estimate: f64,
    /// The privatized first quartile `X̃_{n/4}`.
    pub q1: f64,
    /// The privatized third quartile `X̃_{3n/4}`.
    pub q3: f64,
    /// The bucket size `IQR̲/n` used for discretization.
    pub bucket: f64,
}

/// Minimum dataset size accepted.
pub(crate) const MIN_N: usize = 16;

/// The universal ε-DP IQR estimator (Algorithm 10).
pub fn estimate_iqr<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    beta: f64,
) -> Result<IqrEstimate> {
    estimate_iqr_view(rng, &ColumnView::bare(data), epsilon, beta)
}

/// [`estimate_iqr`] over a [`ColumnView`]: both quartiles run on one
/// discretized grid for the privately-chosen bucket, which a cached view
/// also shares across calls on the same dataset snapshot. Bit-identical
/// to [`estimate_iqr`] for the same seed.
pub fn estimate_iqr_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    epsilon: Epsilon,
    beta: f64,
) -> Result<IqrEstimate> {
    ensure_finite(view.data(), "estimate_iqr input")?;
    let n = view.len();
    if n < MIN_N {
        return Err(UpdpError::InsufficientData {
            required: MIN_N,
            actual: n,
            context: "EstimateIQR",
        });
    }
    ensure_beta(beta)?;

    let third = epsilon.scale(1.0 / 3.0);
    let lb = iqr_lower_bound(rng, view, third);
    let bucket = (lb / n as f64).max(f64::MIN_POSITIVE);

    let disc = Discretizer::new(bucket)?;
    let grid = view.grid(bucket)?;
    let quartile = |rng: &mut R, tau| {
        infinite_domain_quantile(rng, &grid, tau, third, beta / 6.0)
            .map(|q| disc.to_real(q.estimate))
    };
    let q1 = quartile(rng, n / 4)?;
    let q3 = quartile(rng, 3 * n / 4)?;

    Ok(IqrEstimate {
        estimate: q3 - q1,
        q1,
        q3,
        bucket,
    })
}

/// The universal IQR (Algorithm 10) as an [`Estimator`]; its
/// sensitivity proxy is the private bucket size.
pub const IQR: Estimator = Estimator::scalar("iqr", "iqr", |rng, view, params| {
    let est = estimate_iqr_view(rng, view.col(0), params.epsilon, params.beta)?;
    Ok(Release::scalar(est.estimate, est.bucket))
});

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use updp_core::parallel::PAR_MIN_LEN;
    use updp_core::rng::seeded;
    use updp_dist::{Cauchy, ContinuousDistribution, Gaussian, LogNormal, Uniform};
    use updp_empirical::view::{ColumnCache, PreparedDataset};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn median_rel_error<D: ContinuousDistribution>(
        dist: &D,
        n: usize,
        e: Epsilon,
        trials: u64,
        master: u64,
    ) -> f64 {
        let truth = dist.iqr();
        let mut errs: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = seeded(updp_core::rng::child_seed(master, t));
                let data = dist.sample_vec(&mut rng, n);
                let r = estimate_iqr(&mut rng, &data, e, 0.1).unwrap();
                (r.estimate - truth).abs() / truth
            })
            .collect();
        errs.sort_by(f64::total_cmp);
        errs[errs.len() / 2]
    }

    #[test]
    fn gaussian_iqr_is_accurate() {
        let g = Gaussian::new(10.0, 2.0).unwrap();
        let err = median_rel_error(&g, 20_000, eps(0.5), 30, 1);
        assert!(err < 0.1, "median relative error {err}");
    }

    #[test]
    fn lognormal_iqr_skewed_data() {
        let ln = LogNormal::new(0.0, 1.0).unwrap();
        let err = median_rel_error(&ln, 20_000, eps(0.5), 30, 2);
        assert!(err < 0.15, "lognormal median relative error {err}");
    }

    #[test]
    fn cauchy_iqr_no_moments_needed() {
        // IQR is defined even when mean/variance are not.
        let c = Cauchy::new(-3.0, 1.0).unwrap();
        let err = median_rel_error(&c, 20_000, eps(0.5), 30, 3);
        assert!(err < 0.15, "cauchy median relative error {err}");
    }

    #[test]
    fn uniform_iqr() {
        let u = Uniform::new(0.0, 100.0).unwrap();
        let err = median_rel_error(&u, 20_000, eps(0.5), 30, 4);
        assert!(err < 0.1, "uniform median relative error {err}");
    }

    #[test]
    fn quartiles_are_ordered_and_near_truth() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = seeded(5);
        let data = g.sample_vec(&mut rng, 10_000);
        let r = estimate_iqr(&mut rng, &data, eps(1.0), 0.1).unwrap();
        assert!(r.q1 < r.q3, "quartiles out of order: {r:?}");
        assert!((r.q1 - g.quantile(0.25)).abs() < 0.3, "q1 {}", r.q1);
        assert!((r.q3 - g.quantile(0.75)).abs() < 0.3, "q3 {}", r.q3);
        assert!(r.bucket > 0.0 && r.bucket < 1.0);
    }

    #[test]
    fn error_decreases_with_n() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let small = median_rel_error(&g, 1_000, eps(0.5), 30, 6);
        let large = median_rel_error(&g, 30_000, eps(0.5), 30, 7);
        assert!(large < small, "no shrink: {small} -> {large}");
    }

    #[test]
    fn tiny_scale_data() {
        let g = Gaussian::new(1.0, 1e-7).unwrap();
        let err = median_rel_error(&g, 10_000, eps(0.5), 20, 8);
        assert!(err < 0.2, "tiny-scale median relative error {err}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(9);
        assert!(estimate_iqr(&mut rng, &[1.0; 4], eps(0.5), 0.1).is_err());
        assert!(estimate_iqr(&mut rng, &[f64::INFINITY; 100], eps(0.5), 0.1).is_err());
        assert!(estimate_iqr(&mut rng, &[1.0; 100], eps(0.5), -0.1).is_err());
    }

    /// The bare path discretizes straight into a parallel-sorted grid;
    /// the cached and snapshot paths build theirs from the sorted copy.
    /// Both sides of the sort threshold, on a duplicate-heavy and a
    /// ±0.0 column, release the same bits and leave the generator in
    /// the same state — and a cached view ends with one grid built
    /// from its sorted copy.
    #[test]
    fn bare_cached_and_snapshot_paths_release_the_same_bits() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        for n in [PAR_MIN_LEN - 1, PAR_MIN_LEN + 1] {
            let draws = g.sample_vec(&mut seeded(n as u64), n);
            let duplicates: Vec<f64> = draws.iter().map(|x| (x * 4.0).round() / 4.0).collect();
            let signed_zeros: Vec<f64> = draws
                .iter()
                .enumerate()
                .map(|(i, &x)| [-0.0, 0.0, x][i % 3])
                .collect();
            for data in [duplicates, signed_zeros] {
                let run = |view: &ColumnView<'_>| {
                    let mut rng = seeded(17);
                    let r = estimate_iqr_view(&mut rng, view, eps(1.0), 0.1).unwrap();
                    let bits = [r.q1, r.q3, r.bucket].map(f64::to_bits);
                    (bits, rng.next_u64())
                };
                let mut rng = seeded(17);
                let bare = estimate_iqr(&mut rng, &data, eps(1.0), 0.1).unwrap();
                let bare = (
                    [bare.q1, bare.q3, bare.bucket].map(f64::to_bits),
                    rng.next_u64(),
                );
                let cache = ColumnCache::new();
                let cached = ColumnView::cached(&data, &cache);
                assert_eq!(run(&cached), bare, "cached view, n = {n}");
                assert_eq!((cache.cached_grids(), cache.has_sorted()), (1, true));
                let prepared = PreparedDataset::new(vec![data.clone()]);
                assert_eq!(run(prepared.view().col(0)), bare, "snapshot, n = {n}");
            }
        }
    }
}
