//! Adversarial-input robustness: every public estimator must either
//! return a finite answer or a descriptive error — never panic, never
//! NaN — on pathological datasets a hostile or buggy client could send.

use updp::core::privacy::{Delta, Epsilon};
use updp::core::rng::seeded;
use updp::core::UpdpError;
use updp::empirical::{infinite_domain_mean, infinite_domain_sum, SortedInts};
use updp::statistical::estimate_quantile;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Pathological real-valued datasets.
fn adversarial_real_datasets() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("all identical", vec![42.0; 500]),
        ("two point masses", {
            let mut v = vec![-1e9; 250];
            v.extend(vec![1e9; 250]);
            v
        }),
        (
            "alternating extremes",
            (0..500)
                .map(|i| if i % 2 == 0 { -1e15 } else { 1e15 })
                .collect(),
        ),
        (
            "subnormal scale",
            (0..500).map(|i| (i as f64) * 1e-310).collect(),
        ),
        (
            "huge magnitudes",
            (0..500).map(|i| 1e300 - (i as f64) * 1e290).collect(),
        ),
        ("single outlier", {
            let mut v = vec![0.0; 499];
            v.push(1e18);
            v
        }),
        (
            "geometric spread",
            (0..500).map(|i| 2f64.powi(i % 200 - 100)).collect(),
        ),
        (
            "tiny n",
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
        ),
    ]
}

/// Acceptable outcomes: finite estimate, or a *specific* documented
/// error (never a panic, which would fail the test by unwinding).
fn acceptable(result: updp::core::Result<f64>, label: &str) {
    match result {
        Ok(v) => assert!(v.is_finite(), "{label}: non-finite estimate {v}"),
        Err(UpdpError::InsufficientData { .. }) | Err(UpdpError::MechanismRefused { .. }) => {}
        Err(e) => panic!("{label}: unexpected error kind: {e}"),
    }
}

#[test]
fn statistical_mean_survives_adversarial_inputs() {
    for (label, data) in adversarial_real_datasets() {
        let mut rng = seeded(1);
        acceptable(
            updp::statistical::estimate_mean(&mut rng, &data, eps(1.0), 0.2).map(|r| r.estimate),
            label,
        );
    }
}

#[test]
fn statistical_variance_survives_adversarial_inputs() {
    for (label, data) in adversarial_real_datasets() {
        let mut rng = seeded(2);
        acceptable(
            updp::statistical::estimate_variance(&mut rng, &data, eps(1.0), 0.2)
                .map(|r| r.estimate),
            label,
        );
    }
}

#[test]
fn statistical_iqr_survives_adversarial_inputs() {
    for (label, data) in adversarial_real_datasets() {
        let mut rng = seeded(3);
        acceptable(
            updp::statistical::estimate_iqr(&mut rng, &data, eps(1.0), 0.2).map(|r| r.estimate),
            label,
        );
    }
}

#[test]
fn statistical_quantiles_survive_adversarial_inputs() {
    for (label, data) in adversarial_real_datasets() {
        let mut rng = seeded(4);
        for q in [0.01, 0.5, 0.99] {
            acceptable(
                estimate_quantile(&mut rng, &data, q, eps(1.0), 0.2).map(|r| r.estimate),
                label,
            );
        }
    }
}

/// Calls every scalar universal estimator on `data` with `seeded(seed)`
/// and requires a finite estimate from each.
fn all_scalar_estimators_answer(data: &[f64], epsilon: f64, seed: u64, label: &str) {
    let e = eps(epsilon);
    let results = [
        (
            "mean",
            updp::statistical::estimate_mean(&mut seeded(seed), data, e, 0.1).map(|r| r.estimate),
        ),
        (
            "variance",
            updp::statistical::estimate_variance(&mut seeded(seed), data, e, 0.1)
                .map(|r| r.estimate),
        ),
        (
            "quantile",
            estimate_quantile(&mut seeded(seed), data, 0.9, e, 0.1).map(|r| r.estimate),
        ),
        (
            "median",
            estimate_quantile(&mut seeded(seed), data, 0.5, e, 0.1).map(|r| r.estimate),
        ),
        (
            "iqr",
            updp::statistical::estimate_iqr(&mut seeded(seed), data, e, 0.1).map(|r| r.estimate),
        ),
    ];
    for (name, result) in results {
        match result {
            Ok(v) => assert!(v.is_finite(), "{label} {name} seed {seed}: estimate {v}"),
            Err(e) => panic!("{label} {name} seed {seed}: {e}"),
        }
    }
}

#[test]
fn tiny_private_buckets_saturate_instead_of_failing() {
    // At small ε the IQR lower bound (Algorithm 7) is occasionally far
    // below the data's scale, as Theorems 4.3–6.2 allow with
    // probability β. These seeds once drove a bucket index past ±2⁶²
    // and failed the call; the saturating grid answers every one.
    use updp_dist::{ContinuousDistribution, Gaussian};
    let data = Gaussian::new(1000.0, 10.0)
        .unwrap()
        .sample_vec(&mut seeded(1), 10_000);
    for (epsilon, seeds) in [
        (0.02, &[134, 1362, 1774, 1841, 5985, 7717, 14132, 17257][..]),
        (0.05, &[1865, 7149, 10250, 17257][..]),
    ] {
        for &seed in seeds {
            all_scalar_estimators_answer(&data, epsilon, seed, "gaussian");
        }
    }
}

#[test]
fn tight_cluster_with_far_outliers_is_answered() {
    // 900 records spread over 1e-6 and 100 at one far value: the
    // private bucket fits the cluster, so the outliers saturate.
    for far in [1e6, 1e10, 1e12] {
        let data: Vec<f64> = (0..900)
            .map(|i| 1.0 + f64::from(i) * 1e-9)
            .chain(std::iter::repeat_n(far, 100))
            .collect();
        for seed in 0..100 {
            all_scalar_estimators_answer(&data, 1.0, seed, &format!("outliers at {far}"));
        }
    }
}

#[test]
fn empirical_layer_survives_integer_extremes() {
    let datasets: Vec<(&str, Vec<i64>)> = vec![
        (
            "i64 extremes",
            vec![i64::MIN, i64::MIN / 2, 0, i64::MAX / 2, i64::MAX],
        ),
        ("all i64::MAX", vec![i64::MAX; 100]),
        ("all i64::MIN", vec![i64::MIN; 100]),
        ("zero heavy", vec![0; 1000]),
    ];
    for (label, values) in datasets {
        let d = SortedInts::new(values).unwrap();
        let mut rng = seeded(5);
        let m = infinite_domain_mean(&mut rng, &d, eps(1.0), 0.2).unwrap();
        assert!(m.estimate.is_finite(), "{label}: mean {:?}", m.estimate);
        let s = infinite_domain_sum(&mut rng, &d, eps(1.0), 0.2).unwrap();
        assert!(s.estimate.is_finite(), "{label}: sum {:?}", s.estimate);
    }
}

/// The `context` of a `NonFiniteInput` error; panics on anything else.
fn non_finite_context<T: std::fmt::Debug>(result: Result<T, UpdpError>) -> &'static str {
    match result {
        Err(UpdpError::NonFiniteInput { context }) => context,
        other => panic!("expected NonFiniteInput, got {other:?}"),
    }
}

#[test]
fn nan_and_infinity_are_rejected_not_propagated() {
    use rand::RngCore;
    use updp::statistical::{
        estimate_iqr, estimate_iqr_lower_bound, estimate_iqr_lower_bound_view, estimate_mean,
        estimate_variance, EstimateParams, PreparedDataset, IQR, QUANTILE,
    };
    let bad_inputs = [vec![f64::NAN; 100], vec![f64::INFINITY; 100], {
        let mut v = vec![1.0; 99];
        v.push(f64::NEG_INFINITY);
        v
    }];
    let mut rng = seeded(6);
    for data in &bad_inputs {
        // Each entry point reports itself, whichever stage would have
        // scanned the column next.
        assert_eq!(
            non_finite_context(estimate_mean(&mut rng, data, eps(1.0), 0.2)),
            "estimate_mean input"
        );
        assert_eq!(
            non_finite_context(estimate_variance(&mut rng, data, eps(1.0), 0.2)),
            "estimate_variance input"
        );
        assert_eq!(
            non_finite_context(estimate_quantile(&mut rng, data, 0.9, eps(1.0), 0.2)),
            "estimate_quantile input"
        );
        assert_eq!(
            non_finite_context(estimate_iqr(&mut rng, data, eps(1.0), 0.2)),
            "estimate_iqr input"
        );
        assert_eq!(
            non_finite_context(estimate_iqr_lower_bound(&mut rng, data, eps(1.0), 0.2)),
            "estimate_iqr_lower_bound input"
        );
        // A view opted in to the cached gap summary runs the same scan
        // first, before the summary is built (cold) and after (warm),
        // and the refusal draws no coin.
        let prepared = PreparedDataset::new(vec![data.clone()]).with_gap_summaries();
        let params = EstimateParams::new(eps(1.0)).with_beta(0.2);
        let mut coins = seeded(9);
        for warm in [false, true] {
            if warm {
                assert!(prepared.view().col(0).gap_summary().is_some());
            }
            let view = prepared.view();
            assert_eq!(view.col(0).has_gap_summary(), warm);
            assert_eq!(
                non_finite_context(IQR.estimate(&mut coins, &view, &params)),
                "estimate_iqr input"
            );
            let p90 = params.clone().with("q", 0.9);
            assert_eq!(
                non_finite_context(QUANTILE.estimate(&mut coins, &view, &p90)),
                "estimate_quantile input"
            );
            assert_eq!(
                non_finite_context(estimate_iqr_lower_bound_view(
                    &mut coins,
                    view.col(0),
                    eps(1.0),
                    0.2
                )),
                "estimate_iqr_lower_bound input"
            );
        }
        assert_eq!(coins.next_u64(), seeded(9).next_u64(), "no coin drawn");
    }
}

#[test]
fn dl09_baseline_refuses_rather_than_leaks_on_degenerate_data() {
    // The (ε,δ)-DP baseline's refusal branch must engage on data where
    // the IQR is unstable, rather than emitting something data-revealing.
    let mut rng = seeded(7);
    let degenerate = vec![5.0; 1000];
    let r = updp::baselines::dl09_iqr(&mut rng, &degenerate, eps(1.0), Delta::new(1e-6).unwrap());
    assert!(matches!(r, Err(UpdpError::MechanismRefused { .. })));
}

#[test]
fn estimators_handle_presorted_and_reverse_sorted_input() {
    // Input order must not matter for correctness (pairing uses order,
    // but estimates must stay accurate for exchangeable data).
    let base: Vec<f64> = (0..10_000).map(|i| (i % 997) as f64).collect();
    let mut sorted = base.clone();
    sorted.sort_by(f64::total_cmp);
    let mut reversed = sorted.clone();
    reversed.reverse();
    let truth = base.iter().sum::<f64>() / base.len() as f64;
    for (label, data) in [
        ("shuffled", &base),
        ("sorted", &sorted),
        ("reversed", &reversed),
    ] {
        let mut rng = seeded(8);
        let m = updp::statistical::estimate_mean(&mut rng, data, eps(1.0), 0.1).unwrap();
        assert!(
            (m.estimate - truth).abs() < 60.0,
            "{label}: estimate {} vs {truth}",
            m.estimate
        );
    }
}

#[test]
fn variance_clipping_radius_saturates_at_f64_max() {
    // Uniform data at ~1e179: IQR̲² is clamped to f64::MAX, and the
    // radius (r̃ad + ½)·IQR̲² once overflowed to +∞ and failed the call.
    // The true variance (~1e358) exceeds f64, so +∞ is a fair answer;
    // NaN is not.
    use rand::Rng;
    let mut rng = seeded(1);
    let data: Vec<f64> = (0..399)
        .map(|_| 2.67e179 * rng.gen_range(-1.0..1.0))
        .collect();
    for seed in 0..20 {
        let r = updp::statistical::estimate_variance(&mut seeded(seed), &data, eps(9.0), 0.1)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(!r.estimate.is_nan(), "seed {seed}: {r:?}");
        assert!(r.radius.is_finite(), "seed {seed}: {r:?}");
    }
}

#[test]
fn invalid_beta_is_an_error_never_a_panic() {
    use updp::empirical as emp;
    use updp::statistical as stat;
    let mut rng = seeded(17);
    let data: Vec<f64> = (0..2_000)
        .map(|i| ((i * 37) % 1_000) as f64 * 0.01)
        .collect();
    let view = emp::ColumnView::bare(&data);
    let rows: Vec<Vec<f64>> = data.iter().map(|&x| vec![x, -x]).collect();
    let ints = SortedInts::new((0..2_000).map(|i| (i * 37) % 1_000).collect()).unwrap();
    let (e, n) = (eps(1.0), data.len());
    for beta in [0.0, 1.0, -0.1, 2.0, f64::NAN] {
        let rng = &mut rng;
        let calls: Vec<(&str, updp::core::Result<()>)> = vec![
            (
                "estimate_mean",
                stat::estimate_mean(rng, &data, e, beta).map(drop),
            ),
            (
                "estimate_mean_with_bucket",
                stat::estimate_mean_with_bucket(rng, &data, e, beta, 0.01).map(drop),
            ),
            (
                "estimate_mean_with_subsample",
                stat::estimate_mean_with_subsample(rng, &data, e, beta, 100).map(drop),
            ),
            (
                "estimate_mean_multivariate",
                stat::estimate_mean_multivariate(rng, &rows, e, beta).map(drop),
            ),
            (
                "estimate_variance",
                stat::estimate_variance(rng, &data, e, beta).map(drop),
            ),
            (
                "estimate_iqr",
                stat::estimate_iqr(rng, &data, e, beta).map(drop),
            ),
            (
                "estimate_iqr_view",
                stat::estimate_iqr_view(rng, &view, e, beta).map(drop),
            ),
            (
                "estimate_iqr_lower_bound",
                stat::estimate_iqr_lower_bound(rng, &data, e, beta).map(drop),
            ),
            (
                "estimate_iqr_lower_bound_view",
                stat::estimate_iqr_lower_bound_view(rng, &view, e, beta).map(drop),
            ),
            (
                "estimate_quantile",
                estimate_quantile(rng, &data, 0.9, e, beta).map(drop),
            ),
            (
                "estimate_quantile_view",
                stat::estimate_quantile_view(rng, &view, 0.9, e, beta).map(drop),
            ),
            (
                "real_radius",
                emp::real_radius(rng, &data, 0.01, e, beta).map(drop),
            ),
            (
                "real_range",
                emp::real_range(rng, &data, 0.01, e, beta).map(drop),
            ),
            (
                "real_mean",
                emp::real_mean(rng, &data, 0.01, e, beta).map(drop),
            ),
            (
                "real_quantile",
                emp::real_quantile(rng, &data, n / 2, 0.01, e, beta).map(drop),
            ),
            (
                "real_quantile_view",
                emp::real_quantile_view(rng, &view, n / 2, 0.01, e, beta).map(drop),
            ),
            (
                "infinite_domain_radius",
                emp::infinite_domain_radius(rng, &ints, e, beta).map(drop),
            ),
            (
                "infinite_domain_range",
                emp::infinite_domain_range(rng, &ints, e, beta).map(drop),
            ),
            (
                "infinite_domain_quantile",
                emp::infinite_domain_quantile(rng, &ints, n / 2, e, beta).map(drop),
            ),
            (
                "infinite_domain_mean",
                infinite_domain_mean(rng, &ints, e, beta).map(drop),
            ),
            (
                "infinite_domain_sum",
                infinite_domain_sum(rng, &ints, e, beta).map(drop),
            ),
        ];
        for (name, result) in calls {
            assert!(
                matches!(
                    result,
                    Err(UpdpError::InvalidParameter { name: "beta", .. })
                ),
                "{name}(β = {beta}): {result:?}"
            );
        }
    }
}
