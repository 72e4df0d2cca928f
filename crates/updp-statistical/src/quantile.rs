//! Universal statistical quantile estimation.
//!
//! The paper's Algorithm 10 estimates the IQR as a difference of two
//! privatized order statistics, and notes (§1) that "the particular
//! choices of 1/4 and 3/4 are not very important: changing them to other
//! constants does not affect our results". This module exposes that
//! generality directly: an ε-DP estimator for `F⁻¹(q)` at any fixed
//! `q ∈ (0, 1)` — the building block behind the latency-SLO style
//! applications.
//!
//! Construction (identical budget pattern to Algorithm 10): privately
//! lower-bound the IQR for the bucket size (ε/2), discretize with
//! `b = IQR̲/n`, and run `InfiniteDomainQuantile` (ε/2). By the same
//! analysis as Theorem 6.2 (with `θ` taken near `F⁻¹(q)` instead of the
//! quartiles) the rank error is `O(ε⁻¹ log(γ/(bβ)))` and the value error
//! converges at `α ∝ 1/(εn·θ) + 1/√n` for any `q` bounded away from
//! {0, 1}.

use crate::estimator::{Estimator, ParamSpec, Release};
use crate::iqr_lower_bound::iqr_lower_bound;
use rand::Rng;
use updp_core::error::{ensure_beta, ensure_finite, Result, UpdpError};
use updp_core::privacy::Epsilon;
use updp_empirical::discretize::real_quantile_view;
use updp_empirical::view::ColumnView;

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
pub(crate) const MIN_N: usize = 16;

fn validate(n: usize, q: f64, beta: f64) -> Result<usize> {
    if n < MIN_N {
        return Err(UpdpError::InsufficientData {
            required: MIN_N,
            actual: n,
            context: "EstimateQuantile",
        });
    }
    check_level(q)?;
    ensure_beta(beta)?;
    Ok(n)
}

/// The one check of a quantile level: `q ∈ (0, 1)`.
fn check_level(q: f64) -> Result<()> {
    if !(q > 0.0 && q < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "q",
            reason: format!("quantile level must be in (0,1), got {q}"),
        });
    }
    Ok(())
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
/// the per-call pairing pass is replaced by O(1) summary lookups, so a
/// warm repeat query's only per-call work linear in `n` outside the
/// mechanism is the entry's one finiteness scan.
/// Bit-identical to [`estimate_quantile`] for the same seed whenever
/// no summary is attached (the default).
pub fn estimate_quantile_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    q: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<QuantileEstimate> {
    ensure_finite(view.data(), "estimate_quantile input")?;
    let n = validate(view.len(), q, beta)?;
    let half = epsilon.scale(0.5);
    let lb = iqr_lower_bound(rng, view, half);
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

/// The quantile level, the one parameter of [`QUANTILE`].
const Q: ParamSpec = ParamSpec::required("q", "quantile level in (0,1), e.g. 0.9 for the p90");

/// The universal quantile (Algorithm 10 generalized) as an
/// [`Estimator`]; the level is the required parameter `q`, and the
/// sensitivity proxy is the private bucket size.
pub const QUANTILE: Estimator = Estimator::scalar("quantile", "quantile", |rng, view, params| {
    let q = params.resolve(&Q)?;
    let est = estimate_quantile_view(rng, view.col(0), q, params.epsilon, params.beta)?;
    Ok(Release::scalar(est.estimate, est.bucket))
})
.with_params(&[Q], |params| check_level(params.resolve(&Q)?));

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
    fn rejects_bad_inputs() {
        let mut rng = seeded(7);
        let data = vec![1.0; 100];
        assert!(estimate_quantile(&mut rng, &data, 0.0, eps(1.0), 0.1).is_err());
        assert!(estimate_quantile(&mut rng, &data, 1.0, eps(1.0), 0.1).is_err());
        assert!(estimate_quantile(&mut rng, &[1.0; 4], 0.5, eps(1.0), 0.1).is_err());
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
