//! End-to-end integration tests: the full pipeline through the `updp`
//! facade, across distribution families and parameter regimes.

use updp::core::privacy::Epsilon;
use updp::core::rng::{child_seed, seeded};
use updp::prelude::*;
use updp_dist::{
    Affine, Cauchy, ContinuousDistribution, Exponential, Gaussian, GaussianMixture, LaplaceDist,
    LogNormal, Pareto, StudentT, Uniform,
};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Median absolute error over repeated trials of `estimate_mean`.
fn mean_median_err(dist: &dyn ContinuousDistribution, n: usize, e: f64, master: u64) -> f64 {
    let truth = dist.mean();
    let mut errs: Vec<f64> = (0..20)
        .map(|t| {
            let mut rng = seeded(child_seed(master, t));
            let data = dist.sample_vec(&mut rng, n);
            let est = estimate_mean(&mut rng, &data, eps(e), DEFAULT_BETA).unwrap();
            (est.estimate - truth).abs()
        })
        .collect();
    errs.sort_by(f64::total_cmp);
    errs[10]
}

#[test]
fn facade_mean_works_across_nine_families() {
    let dists: Vec<(Box<dyn ContinuousDistribution>, f64)> = vec![
        (Box::new(Gaussian::new(10.0, 2.0).unwrap()), 0.3),
        (Box::new(Uniform::new(-5.0, 5.0).unwrap()), 0.3),
        (Box::new(LaplaceDist::new(3.0, 1.0).unwrap()), 0.3),
        (Box::new(Exponential::new(0.5).unwrap()), 0.3),
        (Box::new(LogNormal::new(0.0, 0.5).unwrap()), 0.3),
        (Box::new(Pareto::new(1.0, 3.0).unwrap()), 0.3),
        (Box::new(StudentT::new(4.0, -7.0, 1.0).unwrap()), 0.4),
        (Box::new(GaussianMixture::bimodal(6.0, 1.0).unwrap()), 0.4),
        (
            Box::new(Affine::new(Gaussian::standard(), 1e6, 10.0).unwrap()),
            3.0,
        ),
    ];
    for (i, (d, tol)) in dists.iter().enumerate() {
        let err = mean_median_err(d.as_ref(), 30_000, 0.5, 1000 + i as u64);
        assert!(
            err < *tol,
            "{}: median error {err} exceeds tolerance {tol}",
            d.name()
        );
    }
}

#[test]
fn all_estimates_under_one_budget_are_consistent() {
    let g = Gaussian::new(-40.0, 5.0).unwrap();
    let mut rng = seeded(2);
    let data = g.sample_vec(&mut rng, 40_000);
    let shares = eps(1.5).split(&[1.0, 1.0, 1.0]);
    let mean = estimate_mean(&mut rng, &data, shares[0], 0.1).unwrap();
    let variance = estimate_variance(&mut rng, &data, shares[1], 0.1).unwrap();
    let iqr = estimate_iqr(&mut rng, &data, shares[2], 0.1).unwrap();
    assert!((mean.estimate + 40.0).abs() < 1.0, "mean {}", mean.estimate);
    assert!(
        (variance.estimate - 25.0).abs() < 5.0,
        "variance {}",
        variance.estimate
    );
    assert!((iqr.estimate - g.iqr()).abs() < 1.0, "iqr {}", iqr.estimate);
    // Cross-consistency: for Gaussians IQR ≈ 1.349σ.
    let sigma_from_var = variance.estimate.sqrt();
    let sigma_from_iqr = iqr.estimate / 1.3489795;
    assert!(
        (sigma_from_var - sigma_from_iqr).abs() < 1.0,
        "σ estimates disagree: {sigma_from_var} vs {sigma_from_iqr}"
    );
}

#[test]
fn pipeline_is_deterministic_given_seed() {
    let g = Gaussian::standard();
    let run = || {
        let mut rng = seeded(77);
        let data = g.sample_vec(&mut rng, 5_000);
        let m = estimate_mean(&mut rng, &data, eps(0.7), DEFAULT_BETA).unwrap();
        let v = estimate_variance(&mut rng, &data, eps(0.7), DEFAULT_BETA).unwrap();
        let i = estimate_iqr(&mut rng, &data, eps(0.7), DEFAULT_BETA).unwrap();
        (m.estimate, v.estimate, i.estimate)
    };
    assert_eq!(run(), run());
}

#[test]
fn cauchy_mean_runs_without_crashing_iqr_stays_accurate() {
    // No mean exists; the mean estimator has no guarantee but must not
    // panic, and the IQR estimator keeps its guarantee.
    let c = Cauchy::new(5.0, 2.0).unwrap();
    let mut rng = seeded(3);
    let data = c.sample_vec(&mut rng, 20_000);
    let m = estimate_mean(&mut rng, &data, eps(1.0), DEFAULT_BETA).unwrap();
    assert!(m.estimate.is_finite());
    let i = estimate_iqr(&mut rng, &data, eps(1.0), DEFAULT_BETA).unwrap();
    assert!(
        (i.estimate - c.iqr()).abs() / c.iqr() < 0.25,
        "iqr {}",
        i.estimate
    );
}

#[test]
fn error_scales_inversely_with_epsilon_in_privacy_regime() {
    // In the privacy-dominated regime (small εn), halving ε should
    // roughly double the error.
    let g = Gaussian::new(0.0, 1.0).unwrap();
    let tight = mean_median_err(&g, 3_000, 0.4, 50);
    let loose = mean_median_err(&g, 3_000, 0.05, 60);
    assert!(
        loose > 1.5 * tight,
        "ε dependence too weak: ε=0.4 -> {tight}, ε=0.05 -> {loose}"
    );
}

#[test]
fn subsampled_range_covers_bulk_of_data() {
    let g = Gaussian::new(123.0, 4.0).unwrap();
    let mut rng = seeded(4);
    let data = g.sample_vec(&mut rng, 30_000);
    let m = estimate_mean(&mut rng, &data, eps(0.5), 0.1).unwrap();
    let frac_clipped = m.clipped as f64 / data.len() as f64;
    assert!(
        frac_clipped < 0.01,
        "clipped fraction {frac_clipped} too large"
    );
    assert!(m.range.lo < 123.0 && m.range.hi > 123.0);
}

#[test]
fn empirical_and_statistical_agree_on_benign_data() {
    // On concentrated data the §3 empirical mean and the §4 statistical
    // mean should both land near the sample mean.
    let g = Gaussian::new(55.0, 1.0).unwrap();
    let mut rng = seeded(5);
    let data = g.sample_vec(&mut rng, 20_000);
    let sample_mean: f64 = data.iter().sum::<f64>() / data.len() as f64;

    let stat = estimate_mean(&mut rng, &data, eps(1.0), 0.1)
        .unwrap()
        .estimate;
    let emp = updp::empirical::real_mean(&mut rng, &data, 0.01, eps(1.0), 0.1).unwrap();
    assert!((stat - sample_mean).abs() < 0.5, "statistical {stat}");
    assert!((emp - sample_mean).abs() < 0.5, "empirical {emp}");
}

#[test]
fn variance_and_iqr_consistent_on_laplace() {
    // Laplace: IQR = 2b·ln2, σ² = 2b². Check both estimates imply
    // compatible b.
    let l = LaplaceDist::new(0.0, 3.0).unwrap();
    let mut rng = seeded(6);
    let data = l.sample_vec(&mut rng, 60_000);
    let v = estimate_variance(&mut rng, &data, eps(1.0), DEFAULT_BETA).unwrap();
    let i = estimate_iqr(&mut rng, &data, eps(1.0), DEFAULT_BETA).unwrap();
    let b_from_var = (v.estimate / 2.0).sqrt();
    let b_from_iqr = i.estimate / (2.0 * std::f64::consts::LN_2);
    assert!(
        (b_from_var - 3.0).abs() < 0.3,
        "b from variance {b_from_var}"
    );
    assert!((b_from_iqr - 3.0).abs() < 0.3, "b from iqr {b_from_iqr}");
}
