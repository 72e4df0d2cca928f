//! Experiments for statistical mean estimation (Section 4) and the
//! Table 1 assumption matrix.
//!
//! `table1`, `gauss-mean` (Thm 4.6), `heavy-mean` (Thm 4.9),
//! `arb-mean` (Eq. 8 vs Eq. 6/7).

use crate::config::ExpConfig;
use crate::table::Table;
use crate::trial::{estimator_trials, fmt_err, run_trials, ErrorStats};
use updp_baselines::{
    sample_mean, sample_midrange, BS19_TRIMMED_MEAN, COINPRESS_MEAN, KSU20_MEAN, KV18_MEAN,
    NAIVE_CLIP_MEAN, NONPRIVATE_MEAN,
};
use updp_core::privacy::Epsilon;
use updp_dist::{Affine, ContinuousDistribution, Gaussian, Pareto, StudentT, Uniform};
use updp_statistical::{EstimateParams, Estimator, MEAN};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Trial sweep of one [`Estimator`] on fresh samples of
/// `dist` — the single helper every mean experiment routes through.
fn stats_for(
    cfg: &ExpConfig,
    dist: &dyn ContinuousDistribution,
    n: usize,
    master: u64,
    estimator: &Estimator,
    params: &EstimateParams,
) -> ErrorStats {
    estimator_trials(cfg.trials, master, dist.mean(), estimator, params, |rng| {
        dist.sample_vec(rng, n)
    })
}

/// `table1` — the assumption matrix: every baseline fails when its
/// assumptions fail; the universal estimator never needs them.
pub(crate) fn table1(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "table1",
        "Assumption matrix (paper Table 1): who survives broken assumptions?",
        "prior pure-DP estimators rely on A1 (μ range) / A2 (σ range) / A3 (family); the universal estimator removes all three",
        vec![
            "scenario",
            "universal (ours)",
            "naive clip [A1]",
            "KV18 [A1A2A3]",
            "CoinPress [A1A2]",
            "BS19 [A1]",
        ],
    );
    let n = cfg.n(20_000);
    let e = eps(0.5);
    let master = cfg.master_for("table1");
    // (label, distribution, assumed R, assumed σ bounds)
    struct Scenario {
        label: &'static str,
        dist: Box<dyn ContinuousDistribution>,
        r: f64,
        smin: f64,
        smax: f64,
    }
    let scenarios = [
        Scenario {
            label: "A1,A2,A3 hold (N(5,2), R=1e3)",
            dist: Box::new(Gaussian::new(5.0, 2.0).unwrap()),
            r: 1e3,
            smin: 0.1,
            smax: 100.0,
        },
        Scenario {
            label: "A1 broken (N(1e7,1), R=1e3)",
            dist: Box::new(Gaussian::new(1e7, 1.0).unwrap()),
            r: 1e3,
            smin: 0.1,
            smax: 100.0,
        },
        Scenario {
            label: "A2 broken (N(0,1e-5), smin=0.1)",
            dist: Box::new(Gaussian::new(0.0, 1e-5).unwrap()),
            r: 1e3,
            smin: 0.1,
            smax: 100.0,
        },
        Scenario {
            label: "A3 broken (Pareto(1,2.5))",
            dist: Box::new(Pareto::new(1.0, 2.5).unwrap()),
            r: 1e3,
            smin: 0.1,
            smax: 100.0,
        },
    ];
    for (si, sc) in scenarios.iter().enumerate() {
        let m = master.wrapping_add(si as u64 * 7919);
        let d = sc.dist.as_ref();
        let sigma_ref = d.std_dev();
        let ours = stats_for(cfg, d, n, m, &MEAN, &EstimateParams::new(e).with_beta(0.1));
        let naive = stats_for(
            cfg,
            d,
            n,
            m ^ 1,
            &NAIVE_CLIP_MEAN,
            &EstimateParams::new(e).with("r", sc.r),
        );
        let kv = stats_for(
            cfg,
            d,
            n,
            m ^ 2,
            &KV18_MEAN,
            &EstimateParams::new(e)
                .with("r", sc.r)
                .with("sigma_min", sc.smin)
                .with("sigma_max", sc.smax),
        );
        let cp = stats_for(
            cfg,
            d,
            n,
            m ^ 3,
            &COINPRESS_MEAN,
            &EstimateParams::new(e)
                .with("r", sc.r)
                .with("sigma", sc.smax),
        );
        let bs = stats_for(
            cfg,
            d,
            n,
            m ^ 4,
            &BS19_TRIMMED_MEAN,
            &EstimateParams::new(e)
                .with("r", sc.r)
                .with("trim_frac", 0.05),
        );
        // Verdict: FAIL when the median error is >10x ours and >1σ.
        let verdict = |s: &ErrorStats| -> String {
            if s.median.is_nan() {
                return "refused".into();
            }
            let fail = s.median > 10.0 * ours.median.max(1e-12) && s.median > sigma_ref;
            format!("{}{}", fmt_err(s.median), if fail { " FAIL" } else { "" })
        };
        t.push_row(vec![
            sc.label.to_string(),
            fmt_err(ours.median),
            verdict(&naive),
            verdict(&kv),
            verdict(&cp),
            verdict(&bs),
        ]);
    }
    t.note("median |μ̃ − μ| over trials; FAIL = 10x worse than the universal estimator and worse than 1σ");
    t.note("intro sidebar: the mid-range estimator is great on Uniform and terrible on Gaussian — see notes below");
    // Mid-range sidebar.
    let u = Uniform::new(0.0, 1.0).unwrap();
    let g = Gaussian::new(0.5, 0.3).unwrap();
    let mr_u = run_trials(cfg.trials, master ^ 77, u.mean(), |rng| {
        sample_midrange(&u.sample_vec(rng, n))
    });
    let mr_g = run_trials(cfg.trials, master ^ 78, g.mean(), |rng| {
        sample_midrange(&g.sample_vec(rng, n))
    });
    let sm_u = run_trials(cfg.trials, master ^ 79, u.mean(), |rng| {
        sample_mean(&u.sample_vec(rng, n))
    });
    t.note(format!(
        "mid-range on Uniform: {} (vs sample mean {}); mid-range on Gaussian: {} — distribution-specific estimators fail off-family",
        fmt_err(mr_u.median),
        fmt_err(sm_u.median),
        fmt_err(mr_g.median)
    ));
    t
}

/// `gauss-mean` — Theorem 4.6 vs \[KV18\]/[KLSU19, BDKU20]: same
/// `σ²/α² + σ/(εα)` behaviour with no `log R` requirement.
pub(crate) fn gauss_mean(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "gauss-mean",
        "Gaussian mean: universal vs A1/A2-dependent baselines (Thm 4.6)",
        "ours matches the baselines when their assumptions hold and keeps working with |μ| = 10^7 and no R",
        vec![
            "n",
            "ours",
            "KV18 (honest R)",
            "CoinPress (honest R)",
            "non-private",
            "ours |μ|=1e7 no-R",
        ],
    );
    let e = eps(0.5);
    let master = cfg.master_for("gauss-mean");
    let g = Gaussian::new(100.0, 2.0).unwrap();
    let far = Gaussian::new(1e7, 2.0).unwrap();
    for (ni, &n_full) in [2_000usize, 8_000, 32_000, 128_000].iter().enumerate() {
        let n = cfg.n(n_full);
        let m = master.wrapping_add(ni as u64 * 104729);
        let universal = EstimateParams::new(e).with_beta(0.1);
        let ours = stats_for(cfg, &g, n, m, &MEAN, &universal);
        let kv = stats_for(
            cfg,
            &g,
            n,
            m ^ 1,
            &KV18_MEAN,
            &EstimateParams::new(e)
                .with("r", 1e4)
                .with("sigma_min", 0.01)
                .with("sigma_max", 1e3),
        );
        let cp = stats_for(
            cfg,
            &g,
            n,
            m ^ 2,
            &COINPRESS_MEAN,
            &EstimateParams::new(e).with("r", 1e4).with("sigma", 2.0),
        );
        let np = stats_for(cfg, &g, n, m ^ 3, &NONPRIVATE_MEAN, &EstimateParams::new(e));
        let ours_far = stats_for(cfg, &far, n, m ^ 4, &MEAN, &universal);
        t.push_row(vec![
            n.to_string(),
            fmt_err(ours.median),
            fmt_err(kv.median),
            fmt_err(cp.median),
            fmt_err(np.median),
            fmt_err(ours_far.median),
        ]);
    }
    t.note("all private columns converge at the same ~1/(εn)+1/√n rate; the last column shows universality: no baseline can even run at |μ|=1e7 without being told R ≥ 1e7");
    t
}

/// `heavy-mean` — Theorem 4.9 vs \[KSU20\]: parity under an honest moment
/// bound, decisive win under misspecification (which is unavoidable when
/// `μ_{2k} = ∞`).
pub(crate) fn heavy_mean(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "heavy-mean",
        "Heavy-tailed mean: universal vs KSU20 with (mis)specified moment bounds (Thm 4.9)",
        "KSU20's privacy term needs μ̄_k = O(μ_k); overestimating μ̄_k inflates its noise while the universal estimator needs no bound at all",
        vec![
            "distribution",
            "ours",
            "KSU20 honest μ̄₂",
            "KSU20 μ̄₂·10³",
            "KSU20 μ̄₂·10⁶",
            "non-private",
        ],
    );
    let e = eps(0.2);
    let n = cfg.n(20_000);
    let master = cfg.master_for("heavy-mean");
    let dists: Vec<(String, Box<dyn ContinuousDistribution>)> = vec![
        (
            "Pareto(1, 2.5)".into(),
            Box::new(Pareto::new(1.0, 2.5).unwrap()),
        ),
        (
            "StudentT(3)".into(),
            Box::new(StudentT::new(3.0, 0.0, 1.0).unwrap()),
        ),
        (
            "StudentT(5, loc=50)".into(),
            Box::new(StudentT::new(5.0, 50.0, 1.0).unwrap()),
        ),
    ];
    for (di, (label, dist)) in dists.iter().enumerate() {
        let d = dist.as_ref();
        let m = master.wrapping_add(di as u64 * 31337);
        let mu2 = d.central_moment(2);
        let ours = stats_for(cfg, d, n, m, &MEAN, &EstimateParams::new(e).with_beta(0.1));
        let ksu = |factor: f64, salt: u64| {
            stats_for(
                cfg,
                d,
                n,
                m ^ salt,
                &KSU20_MEAN,
                &EstimateParams::new(e)
                    .with("r", 1e4)
                    .with("k", 2.0)
                    .with("mu_k_bound", mu2 * factor),
            )
        };
        let honest = ksu(1.0, 1);
        let k3 = ksu(1e3, 2);
        let k6 = ksu(1e6, 3);
        let np = stats_for(cfg, d, n, m ^ 4, &NONPRIVATE_MEAN, &EstimateParams::new(e));
        t.push_row(vec![
            label.clone(),
            fmt_err(ours.median),
            fmt_err(honest.median),
            fmt_err(k3.median),
            fmt_err(k6.median),
            fmt_err(np.median),
        ]);
    }
    t.note("μ̄₂ misspecification factors follow the paper's point: when μ₄ = ∞ (Pareto α=2.5, t₃), no constant-factor μ̄₂ is obtainable even non-privately");
    t
}

/// `arb-mean` — Eq. (8): finite-σ² distributions where σ_max/σ_min style
/// assumptions are hopeless; compare against \[BS19\] and \[KSU20\] k=2.
pub(crate) fn arb_mean(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "arb-mean",
        "Arbitrary finite-variance distributions (Eq. 8 vs Eq. 6/7)",
        "with only μ₂ < ∞, ours needs no R/σ bounds and beats the range-calibrated baselines",
        vec![
            "distribution",
            "ours",
            "BS19 (R=1e4)",
            "KSU20 k=2 (honest)",
            "non-private",
        ],
    );
    let e = eps(0.2);
    let n = cfg.n(20_000);
    let master = cfg.master_for("arb-mean");
    // Finite μ₂, infinite μ₄: t-distributions with 2 < ν ≤ 4 and shifted
    // Pareto with 2 < α ≤ 4.
    let dists: Vec<(String, Box<dyn ContinuousDistribution>)> = vec![
        (
            "StudentT(2.5)".into(),
            Box::new(StudentT::new(2.5, 0.0, 1.0).unwrap()),
        ),
        (
            "Pareto(1, 3) − 10".into(),
            Box::new(Affine::shifted(Pareto::new(1.0, 3.0).unwrap(), -10.0).unwrap()),
        ),
    ];
    for (di, (label, dist)) in dists.iter().enumerate() {
        let d = dist.as_ref();
        let m = master.wrapping_add(di as u64 * 997);
        let mu2 = d.central_moment(2);
        let ours = stats_for(cfg, d, n, m, &MEAN, &EstimateParams::new(e).with_beta(0.1));
        let bs = stats_for(
            cfg,
            d,
            n,
            m ^ 1,
            &BS19_TRIMMED_MEAN,
            &EstimateParams::new(e)
                .with("r", 1e4)
                .with("trim_frac", 0.05),
        );
        let ksu = stats_for(
            cfg,
            d,
            n,
            m ^ 2,
            &KSU20_MEAN,
            &EstimateParams::new(e)
                .with("r", 1e4)
                .with("k", 2.0)
                .with("mu_k_bound", mu2),
        );
        let np = stats_for(cfg, d, n, m ^ 3, &NONPRIVATE_MEAN, &EstimateParams::new(e));
        t.push_row(vec![
            label.clone(),
            fmt_err(ours.median),
            fmt_err(bs.median),
            fmt_err(ksu.median),
            fmt_err(np.median),
        ]);
    }
    t.note("both baselines receive generously honest inputs here; with the R=1e4 input replaced by a defensive 1e8 their noise grows proportionally (see naive-clip noise-floor test)");
    t
}
