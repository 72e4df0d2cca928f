//! Experiments for statistical variance estimation (Section 5).
//!
//! `gauss-var` (Thm 5.3 vs Eq. 10/11), `heavy-var` (Thm 5.5).

use crate::config::ExpConfig;
use crate::table::Table;
use crate::trial::{estimator_trials, fmt_err, ErrorStats};
use updp_baselines::{COINPRESS_VARIANCE, KV18_VARIANCE, NONPRIVATE_VARIANCE};
use updp_core::privacy::Epsilon;
use updp_dist::{ContinuousDistribution, Gaussian, LogNormal, Pareto, StudentT};
use updp_statistical::{EstimateParams, Estimator, VARIANCE};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Trial sweep of one [`Estimator`] against the true
/// variance of `dist`.
fn stats_for(
    cfg: &ExpConfig,
    dist: &dyn ContinuousDistribution,
    n: usize,
    master: u64,
    estimator: &Estimator,
    params: &EstimateParams,
) -> ErrorStats {
    estimator_trials(
        cfg.trials,
        master,
        dist.variance(),
        estimator,
        params,
        |rng| dist.sample_vec(rng, n),
    )
}

/// `gauss-var` — Theorem 5.3: the universal estimator tracks σ across 12
/// orders of magnitude with NO σ_min/σ_max, while both baselines need the
/// bounds and degrade when they are loose.
pub(crate) fn gauss_var(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "gauss-var",
        "Gaussian variance across scale decades (Thm 5.3 vs Eq. 10/11)",
        "ours: log log σ dependence, no bounds; KV18 pays log(σmax/σmin) bins, CoinPress pays its starting interval",
        vec![
            "σ",
            "ours rel err",
            "KV18 rel err (loose bounds)",
            "CoinPress rel err (loose bounds)",
            "non-private rel err",
        ],
    );
    let e = eps(0.5);
    let n = cfg.n(20_000);
    let master = cfg.master_for("gauss-var");
    // Loose-but-valid bounds spanning everything: σ ∈ [1e-8, 1e8].
    let (smin, smax) = (1e-8, 1e8);
    for (si, &sigma) in [1e-6f64, 1e-2, 1.0, 1e2, 1e6].iter().enumerate() {
        let g = Gaussian::new(0.0, sigma).unwrap();
        let truth = g.variance();
        let m = master.wrapping_add(si as u64 * 3571);
        let rel = |s: ErrorStats| s.median / truth;
        let bounds = EstimateParams::new(e)
            .with("sigma_min", smin)
            .with("sigma_max", smax);
        let ours = stats_for(
            cfg,
            &g,
            n,
            m,
            &VARIANCE,
            &EstimateParams::new(e).with_beta(0.1),
        );
        let kv = stats_for(cfg, &g, n, m ^ 1, &KV18_VARIANCE, &bounds);
        let cp = stats_for(cfg, &g, n, m ^ 2, &COINPRESS_VARIANCE, &bounds);
        let np = stats_for(
            cfg,
            &g,
            n,
            m ^ 3,
            &NONPRIVATE_VARIANCE,
            &EstimateParams::new(e),
        );
        t.push_row(vec![
            format!("{sigma:e}"),
            fmt_err(rel(ours)),
            fmt_err(rel(kv)),
            fmt_err(rel(cp)),
            fmt_err(rel(np)),
        ]);
    }
    t.note("relative error |σ̃²−σ²|/σ²; the universal column stays flat across 12 decades of σ with zero prior knowledge");
    t
}

/// `heavy-var` — Theorem 5.5: the first private variance estimator for
/// heavy-tailed distributions; only the non-private estimator exists as a
/// reference.
pub(crate) fn heavy_var(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "heavy-var",
        "Heavy-tailed variance — first of its kind (Thm 5.5)",
        "error √μ₄/√n + Õ(μ_k^{2/k}/(εn)^{1−2/k}); no prior private estimator exists for these families",
        vec![
            "distribution",
            "n",
            "ours rel err",
            "non-private rel err",
            "ours p90 rel",
        ],
    );
    let e = eps(0.5);
    let master = cfg.master_for("heavy-var");
    let dists: Vec<(String, Box<dyn ContinuousDistribution>)> = vec![
        (
            "Pareto(1, 5)".into(),
            Box::new(Pareto::new(1.0, 5.0).unwrap()),
        ),
        (
            "StudentT(6)".into(),
            Box::new(StudentT::new(6.0, 0.0, 1.0).unwrap()),
        ),
        (
            "LogNormal(0, 0.75)".into(),
            Box::new(LogNormal::new(0.0, 0.75).unwrap()),
        ),
    ];
    for (di, (label, dist)) in dists.iter().enumerate() {
        let d = dist.as_ref();
        let truth = d.variance();
        for (ni, &n_full) in [8_000usize, 64_000].iter().enumerate() {
            let n = cfg.n(n_full);
            let m = master.wrapping_add((di * 10 + ni) as u64 * 6007);
            let ours = stats_for(
                cfg,
                d,
                n,
                m,
                &VARIANCE,
                &EstimateParams::new(e).with_beta(0.1),
            );
            let np = stats_for(
                cfg,
                d,
                n,
                m ^ 1,
                &NONPRIVATE_VARIANCE,
                &EstimateParams::new(e),
            );
            t.push_row(vec![
                label.clone(),
                n.to_string(),
                fmt_err(ours.median / truth),
                fmt_err(np.median / truth),
                fmt_err(ours.p90 / truth),
            ]);
        }
    }
    t.note("the private column approaches the non-private one as n grows: privacy is asymptotically free at these moments");
    t
}
