//! Property-based tests (proptest) on cross-crate invariants.
//!
//! These complement the per-module unit tests by checking structural
//! invariants on *arbitrary* inputs: estimators never panic, never emit
//! NaN on finite data, respect domains, and transform equivariantly.

// Exact `==` on f64 is deliberate here: these tests pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;
use updp::core::clipped_mean::{clip, clipped_mean};
use updp::core::inverse_sensitivity::finite_domain_quantile;
use updp::core::privacy::Epsilon;
use updp::core::rng::seeded;
use updp::empirical::{infinite_domain_mean, infinite_domain_range, Discretizer, SortedInts};
use updp::statistical::{
    estimate_iqr, estimate_iqr_lower_bound, estimate_mean, estimate_mean_multivariate,
    estimate_quantile, estimate_variance,
};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clip_is_idempotent_and_bounded(x in -1e12f64..1e12, a in -1e6f64..1e6, w in 0.0f64..1e6) {
        let (lo, hi) = (a, a + w);
        let c = clip(x, lo, hi);
        prop_assert!(c >= lo && c <= hi);
        prop_assert_eq!(clip(c, lo, hi), c);
    }

    #[test]
    fn clipped_mean_lies_in_interval(
        data in prop::collection::vec(-1e9f64..1e9, 1..200),
        a in -1e3f64..1e3,
        w in 0.001f64..1e3,
    ) {
        let m = clipped_mean(&data, a, a + w).unwrap();
        prop_assert!(m >= a - 1e-9 && m <= a + w + 1e-9);
    }

    #[test]
    fn discretizer_roundtrip_within_half_bucket(
        x in -1e9f64..1e9,
        bucket in 0.001f64..1e3,
    ) {
        let d = Discretizer::new(bucket).unwrap();
        let back = d.to_real(d.to_int(x));
        prop_assert!((back - x).abs() <= bucket / 2.0 + 1e-9);
    }

    #[test]
    fn quantile_output_stays_in_domain(
        mut values in prop::collection::vec(-1000i64..1000, 5..100),
        tau in 1usize..100,
        seed in 0u64..1000,
    ) {
        values.sort_unstable();
        let tau = tau.min(values.len());
        let mut rng = seeded(seed);
        let y = finite_domain_quantile(&mut rng, &values, tau, -2000, 2000, eps(1.0), 0.1).unwrap();
        prop_assert!((-2000..=2000).contains(&y));
    }

    #[test]
    fn empirical_mean_is_finite_and_range_ordered(
        values in prop::collection::vec(-1_000_000i64..1_000_000, 4..300),
        seed in 0u64..1000,
    ) {
        let data = SortedInts::new(values).unwrap();
        let mut rng = seeded(seed);
        let r = infinite_domain_range(&mut rng, &data, eps(1.0), 0.2).unwrap();
        prop_assert!(r.lo <= r.hi);
        let m = infinite_domain_mean(&mut rng, &data, eps(1.0), 0.2).unwrap();
        prop_assert!(m.estimate.is_finite());
        prop_assert!(m.clipped <= data.len());
    }

    #[test]
    fn statistical_mean_never_panics_or_nans(
        data in prop::collection::vec(-1e8f64..1e8, 16..400),
        seed in 0u64..1000,
    ) {
        // Contract: never panic, never fail on finite data. Below the
        // Theorem 4.5 sample requirement the privately-chosen bucket can
        // be absurdly small for the data scale; far records then saturate
        // the bucket index and the estimate is merely poor.
        let mut rng = seeded(seed);
        let r = estimate_mean(&mut rng, &data, eps(0.8), 0.2).unwrap();
        prop_assert!(r.estimate.is_finite());
        prop_assert!(r.bucket > 0.0);
        prop_assert!(r.range.lo <= r.range.hi);
    }

    #[test]
    fn iqr_lower_bound_is_positive_power_like(
        data in prop::collection::vec(-1e6f64..1e6, 4..400),
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed);
        let lb = estimate_iqr_lower_bound(&mut rng, &data, eps(1.0), 0.2).unwrap();
        prop_assert!(lb > 0.0 && lb.is_finite());
    }

    #[test]
    fn iqr_estimate_is_finite(
        data in prop::collection::vec(-1e6f64..1e6, 16..300),
        seed in 0u64..500,
    ) {
        let mut rng = seeded(seed);
        let r = estimate_iqr(&mut rng, &data, eps(1.0), 0.2).unwrap();
        prop_assert!(r.estimate.is_finite());
        prop_assert!(r.q1.is_finite() && r.q3.is_finite());
        prop_assert!(r.bucket > 0.0);
    }

    #[test]
    fn shift_equivariance_of_statistical_mean(
        pattern in prop::collection::vec(-100f64..100.0, 32..64),
        shift in -1e6f64..1e6,
        seed in 0u64..100,
    ) {
        // At a sample size where Theorem 4.5's guarantee actually holds
        // (εn = 4000 here), running on D and on D + shift must both land
        // near their respective sample means: the estimator tracks a
        // million-unit relocation with zero configuration. (Below the
        // required n there is no such invariant — Laplace noise is
        // unbounded — so this property deliberately uses a large n.)
        let base: Vec<f64> = (0..2000).map(|i| pattern[i % pattern.len()]).collect();
        let shifted: Vec<f64> = base.iter().map(|x| x + shift).collect();
        let mean_base: f64 = base.iter().sum::<f64>() / base.len() as f64;
        let mut rng1 = seeded(seed);
        let mut rng2 = seeded(seed);
        let r1 = estimate_mean(&mut rng1, &base, eps(2.0), 0.1).unwrap();
        let r2 = estimate_mean(&mut rng2, &shifted, eps(2.0), 0.1).unwrap();
        prop_assert!((r1.estimate - mean_base).abs() <= 100.0, "base err {}", r1.estimate - mean_base);
        prop_assert!(
            (r2.estimate - (mean_base + shift)).abs() <= 100.0,
            "shifted err {}", r2.estimate - (mean_base + shift)
        );
    }
}

/// A finite column with `|x| ≤ 10³⁰⁰` in one of four shapes, drawn
/// from `seeded(seed)`: magnitudes `±10^U(−300, 300)`; a tight cluster
/// at scale `10^log_mag` plus a tenth far outliers; uniform on
/// `±10^log_mag`; alternating `±10^log_mag`.
fn extreme_column(shape: usize, n: usize, log_mag: f64, seed: u64) -> Vec<f64> {
    use rand::Rng;
    let mut rng = seeded(seed);
    let base = 10f64.powf(log_mag);
    (0..n)
        .map(|i| match shape {
            0 => {
                let x = 10f64.powf(rng.gen_range(-300.0..300.0));
                if rng.gen::<bool>() {
                    x
                } else {
                    -x
                }
            }
            1 if i % 10 == 9 => 10f64.powf(rng.gen_range(log_mag..300.0)),
            1 => base * (1.0 + i as f64 * 1e-9),
            2 => base * rng.gen_range(-1.0..1.0),
            _ if i % 2 == 0 => base,
            _ => -base,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn universal_estimators_are_total_on_extreme_finite_columns(
        shape in 0usize..4,
        n in 32usize..400,
        log_mag in -300f64..299.0,
        log_eps in -3f64..1.0,
        q in 0.01f64..0.99,
        seed in 0u64..1_000_000,
    ) {
        // Every finite column gets an answer: a tiny private bucket
        // saturates the grid instead of failing the call.
        let data = extreme_column(shape, n, log_mag, seed);
        prop_assert!(data.iter().all(|x| x.abs() <= 1e300));
        let e = eps(10f64.powf(log_eps));
        let mut rng = seeded(seed);
        let no_nan = |label: &str, v: updp::core::Result<f64>| match v {
            Ok(v) if !v.is_nan() => Ok(()),
            other => Err(format!("{label}: {other:?}")),
        };
        let checks = [
            no_nan("mean", estimate_mean(&mut rng, &data, e, 0.1).map(|r| r.estimate)),
            no_nan("variance", estimate_variance(&mut rng, &data, e, 0.1).map(|r| r.estimate)),
            no_nan("quantile", estimate_quantile(&mut rng, &data, q, e, 0.1).map(|r| r.estimate)),
            no_nan("iqr", estimate_iqr(&mut rng, &data, e, 0.1).map(|r| r.estimate)),
        ];
        for check in checks {
            prop_assert!(check.is_ok(), "{}", check.unwrap_err());
        }
        let rows: Vec<Vec<f64>> = data.chunks_exact(2).map(<[f64]>::to_vec).collect();
        let multi = estimate_mean_multivariate(&mut rng, &rows, e, 0.1);
        prop_assert!(
            multi.as_ref().is_ok_and(|m| m.estimate.iter().all(|v| !v.is_nan())),
            "multi-mean: {multi:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn special_functions_agree_with_distribution_layer(
        mu in -100f64..100.0,
        sigma in 0.01f64..100.0,
        p in 0.001f64..0.999,
    ) {
        use updp_dist::{ContinuousDistribution, Gaussian};
        let g = Gaussian::new(mu, sigma).unwrap();
        let x = g.quantile(p);
        prop_assert!((g.cdf(x) - p).abs() < 1e-8);
        // pdf is the derivative of cdf (finite difference check).
        let h = sigma * 1e-5;
        let deriv = (g.cdf(x + h) - g.cdf(x - h)) / (2.0 * h);
        prop_assert!((deriv - g.pdf(x)).abs() <= 1e-4 * (1.0 / sigma).max(1.0));
    }

    #[test]
    fn laplace_noise_symmetry(scale in 0.01f64..100.0, seed in 0u64..500) {
        use updp::core::laplace::sample_laplace;
        let mut rng = seeded(seed);
        let s: f64 = (0..2000).map(|_| sample_laplace(&mut rng, scale).signum()).sum();
        // Sign sum of 2000 fair coins: |s| ≤ 6·√2000 ≈ 268 w.o.p.
        prop_assert!(s.abs() < 270.0, "sign bias {s}");
    }
}
