//! Universal statistical quantile estimation.
//!
//! The paper's Algorithm 10 estimates the IQR as a difference of two
//! privatized order statistics, and notes (§1) that "the particular
//! choices of 1/4 and 3/4 are not very important: changing them to other
//! constants does not affect our results". This module exposes that
//! generality directly: an ε-DP estimator for `F⁻¹(q)` at any fixed
//! `q ∈ (0, 1)`, and the interquantile range between two such points —
//! the building block behind the latency-SLO style applications.
//!
//! Construction (identical budget pattern to Algorithm 10): privately
//! lower-bound the IQR for the bucket size (ε/2), discretize with
//! `b = IQR̲/n`, and run `InfiniteDomainQuantile` (ε/2). By the same
//! analysis as Theorem 6.2 (with `θ` taken near `F⁻¹(q)` instead of the
//! quartiles) the rank error is `O(ε⁻¹ log(γ/(bβ)))` and the value error
//! converges at `α ∝ 1/(εn·θ) + 1/√n` for any `q` bounded away from
//! {0, 1}.

use crate::iqr_lower_bound::{estimate_iqr_lower_bound, estimate_iqr_lower_bound_view};
use rand::Rng;
use updp_core::error::{ensure_finite, Result, UpdpError};
use updp_core::privacy::Epsilon;
use updp_empirical::discretize::real_quantile_view;
use updp_empirical::view::{ColumnCache, ColumnView};

/// Diagnostics accompanying a universal quantile estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimate {
    /// The ε-DP estimate of `F⁻¹(q)`.
    pub estimate: f64,
    /// The quantile level requested.
    pub q: f64,
    /// The rank targeted (`⌈q·n⌉` clamped to `[1, n]`).
    pub rank: usize,
    /// The bucket size used for discretization.
    pub bucket: f64,
}

/// Minimum dataset size accepted.
pub const MIN_N: usize = 16;

fn validate(n: usize, q: f64, beta: f64) -> Result<usize> {
    if n < MIN_N {
        return Err(UpdpError::InsufficientData {
            required: MIN_N,
            actual: n,
            context: "EstimateQuantile",
        });
    }
    if !(q > 0.0 && q < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "q",
            reason: format!("quantile level must be in (0,1), got {q}"),
        });
    }
    if !(beta > 0.0 && beta < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "beta",
            reason: format!("must be in (0,1), got {beta}"),
        });
    }
    Ok(n)
}

/// ε-DP universal estimate of the `q`-quantile `F⁻¹(q)` of the unknown
/// data distribution.
pub fn estimate_quantile<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    q: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<QuantileEstimate> {
    estimate_quantile_view(rng, &ColumnView::bare(data), q, epsilon, beta)
}

/// [`estimate_quantile`] over a [`ColumnView`]: with a cached view the
/// discretized grid for the privately-chosen bucket is built once per
/// `(dataset version, bucket)` and reused across calls. When the view
/// additionally carries a pair-gap summary (DESIGN.md §12.3, opt-in),
/// the per-call `O(n)` finiteness scan and pairing pass are replaced
/// by O(1)/O(log n) summary queries, so warm repeat queries do no
/// per-call work linear in `n` outside the mechanism itself.
/// Bit-identical to [`estimate_quantile`] for the same seed whenever
/// no summary is attached (the default).
pub fn estimate_quantile_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    q: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<QuantileEstimate> {
    view.ensure_finite("estimate_quantile input")?;
    let n = validate(view.len(), q, beta)?;
    let half = epsilon.scale(0.5);
    let lb = estimate_iqr_lower_bound_view(rng, view, half, beta / 2.0)?;
    let bucket = (lb / n as f64).max(f64::MIN_POSITIVE);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let estimate = real_quantile_view(rng, view, rank, bucket, half, beta / 2.0)?;
    Ok(QuantileEstimate {
        estimate,
        q,
        rank,
        bucket,
    })
}

/// ε-DP universal estimate of the interquantile range
/// `F⁻¹(q_hi) − F⁻¹(q_lo)` — Algorithm 10 generalized beyond
/// `(1/4, 3/4)`.
pub fn estimate_quantile_range<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    q_lo: f64,
    q_hi: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    if q_lo >= q_hi {
        return Err(UpdpError::InvalidParameter {
            name: "q_lo/q_hi",
            reason: format!("need q_lo < q_hi, got {q_lo} and {q_hi}"),
        });
    }
    ensure_finite(data, "estimate_quantile input")?;
    let n = validate(data.len(), q_lo, beta)?;
    validate(n, q_hi, beta)?;
    let third = epsilon.scale(1.0 / 3.0);
    let lb = estimate_iqr_lower_bound(rng, data, third, beta / 6.0)?;
    let bucket = (lb / n as f64).max(f64::MIN_POSITIVE);
    let rank_lo = ((q_lo * n as f64).ceil() as usize).clamp(1, n);
    let rank_hi = ((q_hi * n as f64).ceil() as usize).clamp(1, n);
    // Both order statistics share one bucket: a throwaway local cache
    // builds the discretized grid once instead of twice.
    let cache = ColumnCache::new();
    let view = ColumnView::cached(data, &cache);
    let lo = real_quantile_view(rng, &view, rank_lo, bucket, third, beta / 6.0)?;
    let hi = real_quantile_view(rng, &view, rank_hi, bucket, third, beta / 6.0)?;
    Ok(hi - lo)
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::{child_seed, seeded};
    use updp_dist::{ContinuousDistribution, Exponential, Gaussian, LogNormal, Pareto};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn median_err<D: ContinuousDistribution>(dist: &D, q: f64, n: usize, master: u64) -> f64 {
        let truth = dist.quantile(q);
        let mut errs: Vec<f64> = (0..20)
            .map(|t| {
                let mut rng = seeded(child_seed(master, t));
                let data = dist.sample_vec(&mut rng, n);
                let r = estimate_quantile(&mut rng, &data, q, eps(1.0), 0.1).unwrap();
                (r.estimate - truth).abs()
            })
            .collect();
        errs.sort_by(f64::total_cmp);
        errs[10]
    }

    #[test]
    fn median_of_gaussian() {
        let g = Gaussian::new(42.0, 3.0).unwrap();
        let err = median_err(&g, 0.5, 20_000, 1);
        assert!(err < 0.3, "median error {err}");
    }

    #[test]
    fn deep_tail_quantile_on_lognormal() {
        let ln = LogNormal::new(0.0, 1.0).unwrap();
        let err = median_err(&ln, 0.95, 40_000, 2);
        let truth = ln.quantile(0.95);
        assert!(err / truth < 0.1, "p95 relative error {}", err / truth);
    }

    #[test]
    fn p99_on_pareto_tail() {
        let p = Pareto::new(10.0, 1.5).unwrap(); // infinite variance
        let err = median_err(&p, 0.99, 100_000, 3);
        let truth = p.quantile(0.99);
        assert!(err / truth < 0.15, "p99 relative error {}", err / truth);
    }

    #[test]
    fn low_quantile_on_exponential() {
        let e = Exponential::new(1.0).unwrap();
        let err = median_err(&e, 0.1, 40_000, 4);
        assert!(err < 0.05, "p10 error {err}");
    }

    #[test]
    fn quantile_range_matches_iqr() {
        // (0.25, 0.75) range should agree with the dedicated IQR
        // estimator on the same data up to noise.
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = seeded(5);
        let data = g.sample_vec(&mut rng, 30_000);
        let qr = estimate_quantile_range(&mut rng, &data, 0.25, 0.75, eps(1.0), 0.1).unwrap();
        assert!((qr - g.iqr()).abs() < 0.15, "quantile range {qr}");
    }

    #[test]
    fn decile_range_on_lognormal() {
        let ln = LogNormal::new(1.0, 0.5).unwrap();
        let truth = ln.quantile(0.9) - ln.quantile(0.1);
        let mut rng = seeded(6);
        let data = ln.sample_vec(&mut rng, 40_000);
        let qr = estimate_quantile_range(&mut rng, &data, 0.1, 0.9, eps(1.0), 0.1).unwrap();
        assert!(
            (qr - truth).abs() / truth < 0.1,
            "decile range {qr} vs {truth}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(7);
        let data = vec![1.0; 100];
        assert!(estimate_quantile(&mut rng, &data, 0.0, eps(1.0), 0.1).is_err());
        assert!(estimate_quantile(&mut rng, &data, 1.0, eps(1.0), 0.1).is_err());
        assert!(estimate_quantile(&mut rng, &[1.0; 4], 0.5, eps(1.0), 0.1).is_err());
        assert!(estimate_quantile_range(&mut rng, &data, 0.7, 0.3, eps(1.0), 0.1).is_err());
    }

    #[test]
    fn rank_and_bucket_diagnostics() {
        let g = Gaussian::standard();
        let mut rng = seeded(8);
        let data = g.sample_vec(&mut rng, 10_000);
        let r = estimate_quantile(&mut rng, &data, 0.75, eps(1.0), 0.1).unwrap();
        assert_eq!(r.rank, 7_500);
        assert_eq!(r.q, 0.75);
        assert!(r.bucket > 0.0 && r.bucket < 1.0);
    }
}
