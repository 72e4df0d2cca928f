//! The estimator equivalence suite (DESIGN.md §7).
//!
//! Every `updp_statistical::Estimator` value — the five universal
//! estimators *and* every Table 1 baseline — must release
//! **bit-identical** values through `Estimator::estimate` to its
//! direct free-function call on the same seed and data. This is the
//! determinism obligation that lets the serving engine and the
//! experiment runner call estimators by name or by reference (and lets
//! `PreparedDataset` feed cached artifacts to the estimators) without
//! ever changing a released value.

use updp::core::privacy::{Delta, Epsilon};
use updp::core::rng::seeded;
use updp::statistical::{
    estimate_iqr, estimate_mean, estimate_mean_multivariate, estimate_quantile, estimate_variance,
    ColumnCache, ColumnView, DataView, EstimateParams, Estimator, PreparedDataset, IQR, MEAN,
    MULTI_MEAN, QUANTILE, VARIANCE,
};
use updp_baselines::{
    bs19_trimmed_mean, coinpress_mean, coinpress_variance, dl09_iqr, ksu20_mean,
    kv18_gaussian_mean, kv18_gaussian_variance, naive_clipped_mean, sample_iqr, sample_mean,
    sample_variance, BS19_TRIMMED_MEAN, COINPRESS_MEAN, COINPRESS_VARIANCE, DL09_IQR, KSU20_MEAN,
    KV18_MEAN, KV18_VARIANCE, NAIVE_CLIP_MEAN, NONPRIVATE_IQR, NONPRIVATE_MEAN,
    NONPRIVATE_VARIANCE,
};
use updp_dist::{ContinuousDistribution, Gaussian, LogNormal};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn gaussian(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded(seed);
    Gaussian::new(25.0, 4.0).unwrap().sample_vec(&mut rng, n)
}

fn lognormal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded(seed);
    LogNormal::new(1.0, 0.8).unwrap().sample_vec(&mut rng, n)
}

/// Asserts `Estimator::estimate` == direct call, bitwise, across several
/// seeds, on both a bare view and a cached `PreparedDataset` view.
fn assert_equivalent<F>(estimator: &Estimator, params: &EstimateParams, data: &[f64], direct: F)
where
    F: Fn(&mut rand::rngs::StdRng) -> updp::core::Result<f64>,
{
    let prepared = PreparedDataset::new(vec![data.to_vec()]);
    for seed in [1u64, 7, 0xDECAF] {
        let reference = direct(&mut seeded(seed));
        // Bare (uncached) view.
        let bare = estimator.estimate(&mut seeded(seed), &DataView::of(data), params);
        // Cached snapshot view — run twice so the second call reads
        // every cached artifact the first call built.
        let cached_cold = estimator.estimate(&mut seeded(seed), &prepared.view(), params);
        let cached_warm = estimator.estimate(&mut seeded(seed), &prepared.view(), params);
        match reference {
            Ok(value) => {
                for (label, outcome) in [
                    ("bare", &bare),
                    ("cached-cold", &cached_cold),
                    ("cached-warm", &cached_warm),
                ] {
                    let released = outcome
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{} {label}: {e}", estimator.name()));
                    assert_eq!(
                        released.primary().to_bits(),
                        value.to_bits(),
                        "{} {label} diverged at seed {seed}",
                        estimator.name()
                    );
                }
            }
            Err(_) => {
                assert!(
                    bare.is_err(),
                    "{}: direct errored, estimate did not",
                    estimator.name()
                );
                assert!(cached_cold.is_err());
                assert!(cached_warm.is_err());
            }
        }
    }
}

#[test]
fn universal_estimators_match_their_free_functions() {
    let data = gaussian(6_000, 0xA);
    let e = eps(0.7);
    let beta = 0.1;
    let params = EstimateParams::new(e).with_beta(beta);

    assert_equivalent(&MEAN, &params, &data, |rng| {
        estimate_mean(rng, &data, e, beta).map(|r| r.estimate)
    });
    assert_equivalent(&VARIANCE, &params, &data, |rng| {
        estimate_variance(rng, &data, e, beta).map(|r| r.estimate)
    });
    assert_equivalent(&IQR, &params, &data, |rng| {
        estimate_iqr(rng, &data, e, beta).map(|r| r.estimate)
    });
    assert_equivalent(&QUANTILE, &params.clone().with("q", 0.9), &data, |rng| {
        estimate_quantile(rng, &data, 0.9, e, beta).map(|r| r.estimate)
    });
    // Skewed data too (different SVT/discretization paths).
    let skewed = lognormal(6_000, 0xB);
    assert_equivalent(&IQR, &params, &skewed, |rng| {
        estimate_iqr(rng, &skewed, e, beta).map(|r| r.estimate)
    });
    assert_equivalent(&QUANTILE, &params.clone().with("q", 0.99), &skewed, |rng| {
        estimate_quantile(rng, &skewed, 0.99, e, beta).map(|r| r.estimate)
    });
}

#[test]
fn multivariate_mean_matches_its_free_function() {
    let mut rng = seeded(0xC);
    let g = Gaussian::new(-3.0, 2.0).unwrap();
    let rows: Vec<Vec<f64>> = (0..4_000)
        .map(|_| (0..3).map(|_| g.sample(&mut rng)).collect())
        .collect();
    let columns: Vec<Vec<f64>> = (0..3)
        .map(|j| rows.iter().map(|row| row[j]).collect())
        .collect();
    let e = eps(1.2);
    let params = EstimateParams::new(e).with_beta(0.1);
    for seed in [2u64, 11] {
        let direct = estimate_mean_multivariate(&mut seeded(seed), &rows, e, 0.1).unwrap();
        let via = MULTI_MEAN
            .estimate(&mut seeded(seed), &DataView::of_columns(&columns), &params)
            .unwrap();
        assert_eq!(via.values.len(), direct.estimate.len());
        for (a, b) in via.values.iter().zip(&direct.estimate) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "multi-mean diverged at seed {seed}"
            );
        }
    }
}

#[test]
fn baseline_estimators_match_their_free_functions() {
    let data = gaussian(6_000, 0xD);
    let e = eps(0.9);

    assert_equivalent(
        &NAIVE_CLIP_MEAN,
        &EstimateParams::new(e).with("r", 500.0),
        &data,
        |rng| naive_clipped_mean(rng, &data, 500.0, e),
    );
    assert_equivalent(
        &KV18_MEAN,
        &EstimateParams::new(e)
            .with("r", 500.0)
            .with("sigma_min", 0.1)
            .with("sigma_max", 100.0),
        &data,
        |rng| kv18_gaussian_mean(rng, &data, 500.0, 0.1, 100.0, e),
    );
    assert_equivalent(
        &KV18_VARIANCE,
        &EstimateParams::new(e)
            .with("sigma_min", 0.1)
            .with("sigma_max", 100.0),
        &data,
        |rng| kv18_gaussian_variance(rng, &data, 0.1, 100.0, e),
    );
    assert_equivalent(
        &COINPRESS_MEAN,
        &EstimateParams::new(e)
            .with("r", 500.0)
            .with("sigma", 4.0)
            .with("steps", 3.0),
        &data,
        |rng| coinpress_mean(rng, &data, 500.0, 4.0, e, 3),
    );
    assert_equivalent(
        &COINPRESS_VARIANCE,
        &EstimateParams::new(e)
            .with("sigma_min", 0.1)
            .with("sigma_max", 100.0),
        &data,
        |rng| coinpress_variance(rng, &data, 0.1, 100.0, e, 4),
    );
    assert_equivalent(
        &KSU20_MEAN,
        &EstimateParams::new(e)
            .with("r", 500.0)
            .with("k", 2.0)
            .with("mu_k_bound", 16.0),
        &data,
        |rng| ksu20_mean(rng, &data, 500.0, 2, 16.0, e),
    );
    assert_equivalent(
        &BS19_TRIMMED_MEAN,
        &EstimateParams::new(e)
            .with("r", 500.0)
            .with("trim_frac", 0.05),
        &data,
        |rng| bs19_trimmed_mean(rng, &data, 500.0, 0.05, e),
    );
    let delta = Delta::new(1e-6).unwrap();
    assert_equivalent(
        &DL09_IQR,
        &EstimateParams::new(e).with("delta", 1e-6),
        &data,
        |rng| dl09_iqr(rng, &data, e, delta).map(|r| r.estimate),
    );
    assert_equivalent(&NONPRIVATE_MEAN, &EstimateParams::new(e), &data, |_rng| {
        sample_mean(&data)
    });
    assert_equivalent(
        &NONPRIVATE_VARIANCE,
        &EstimateParams::new(e),
        &data,
        |_rng| sample_variance(&data),
    );
    assert_equivalent(&NONPRIVATE_IQR, &EstimateParams::new(e), &data, |_rng| {
        sample_iqr(&data)
    });
}

#[test]
fn cached_views_share_artifacts_without_changing_results() {
    // Two IQR queries on one PreparedDataset snapshot: the second must
    // reuse the first's grid when the privately-chosen bucket repeats
    // (same seed ⇒ same bucket) and both must equal the bare path.
    let data = lognormal(8_000, 0xE);
    let prepared = PreparedDataset::new(vec![data.clone()]);
    let params = EstimateParams::new(eps(1.0)).with_beta(0.1);
    let view = prepared.view();
    let a = IQR.estimate(&mut seeded(3), &view, &params).unwrap();
    let grids_after_first = view.col(0).cached_grids();
    assert!(grids_after_first >= 1, "grid cache must be warmed");
    let b = IQR.estimate(&mut seeded(3), &view, &params).unwrap();
    assert_eq!(a.primary().to_bits(), b.primary().to_bits());
    assert_eq!(
        view.col(0).cached_grids(),
        grids_after_first,
        "same-seed repeat must reuse the cached grid"
    );
    // And a fresh standalone cache gives the same answer.
    let cache = ColumnCache::new();
    let local = IQR
        .estimate(
            &mut seeded(3),
            &DataView::from_views(vec![ColumnView::cached(&data, &cache)]),
            &params,
        )
        .unwrap();
    assert_eq!(local.primary().to_bits(), a.primary().to_bits());
}

#[test]
fn gap_summary_mode_is_deterministic_and_warm_equals_cold() {
    // The serving engine opts its snapshots into the cached pair-gap
    // summary (DESIGN.md §12). Summary-mode releases draw no pairing
    // coins, so they legitimately differ from the bare path — but they
    // must still be (a) repeat-deterministic at a fixed seed, (b)
    // identical warm vs cold (the cached summary is a pure function of
    // the column), and (c) strictly confined to opted-in snapshots.
    let data = lognormal(8_000, 0xF);
    let params = EstimateParams::new(eps(1.0)).with_beta(0.1);
    let opted = PreparedDataset::new(vec![data.clone()]).with_gap_summaries();
    let view = opted.view();
    assert!(
        !view.col(0).has_gap_summary(),
        "summary must be lazy, not built at registration"
    );
    for seed in [1u64, 7, 0xDECAF] {
        let cold = IQR.estimate(&mut seeded(seed), &view, &params).unwrap();
        assert!(
            view.col(0).has_gap_summary(),
            "first IQR query must warm the gap summary"
        );
        let warm = IQR.estimate(&mut seeded(seed), &view, &params).unwrap();
        assert_eq!(
            cold.primary().to_bits(),
            warm.primary().to_bits(),
            "summary-mode warm diverged from cold at seed {seed}"
        );
        // A second opted-in snapshot of the same column reproduces the
        // release exactly: the summary carries no hidden per-instance
        // state.
        let replay = IQR
            .estimate(
                &mut seeded(seed),
                &PreparedDataset::new(vec![data.clone()])
                    .with_gap_summaries()
                    .view(),
                &params,
            )
            .unwrap();
        assert_eq!(replay.primary().to_bits(), cold.primary().to_bits());
    }
    // Quantile routes through the same summary-backed IQR lower bound.
    let q_params = params.clone().with("q", 0.75);
    let q_cold = QUANTILE.estimate(&mut seeded(5), &view, &q_params).unwrap();
    let q_warm = QUANTILE.estimate(&mut seeded(5), &view, &q_params).unwrap();
    assert_eq!(q_cold.primary().to_bits(), q_warm.primary().to_bits());
    // Default snapshots never grow a summary, even after queries.
    let plain = PreparedDataset::new(vec![data]);
    let plain_view = plain.view();
    IQR.estimate(&mut seeded(3), &plain_view, &params).unwrap();
    assert!(
        !plain_view.col(0).has_gap_summary(),
        "default snapshots must keep the historical draw path"
    );
}
