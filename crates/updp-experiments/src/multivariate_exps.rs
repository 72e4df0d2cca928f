//! Experiment for the §1.2 multivariate extension.
//!
//! `multi-mean`: coordinate-wise composition pays `Õ(d/(εn))` per
//! coordinate — the suboptimal-but-universal d-dependence the paper
//! describes (optimal `Õ(d/(εn))` in ℓ₂ is its open problem #1).

use crate::config::ExpConfig;
use crate::table::Table;
use crate::trial::{fmt_err, trial_map};
use updp_core::privacy::Epsilon;
use updp_dist::{ContinuousDistribution, Gaussian};
use updp_statistical::multivariate::{estimate_mean_multivariate, l2_distance};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// `multi-mean` — ℓ₂ error of the coordinate-wise universal estimator
/// as a function of dimension, against the d^{3/2}/(εn) reference curve.
pub(crate) fn multi_mean(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "multi-mean",
        "Multivariate mean via coordinate-wise composition (§1.2 extension)",
        "per-coordinate budget ε/d keeps universality; ℓ₂ privacy term grows ~d^{3/2}/(εn) (optimal d/(εn) is the paper's open problem)",
        vec![
            "d",
            "med ℓ₂ err",
            "med ℓ∞ err",
            "d^{3/2} reference (scaled)",
            "frac coords within 5σ/√n+noise",
        ],
    );
    let n = cfg.n(16_000);
    let e = eps(1.0);
    let master = cfg.master_for("multi-mean");
    let mut first_l2: Option<f64> = None;
    for (di, &d) in [1usize, 2, 4, 8, 16].iter().enumerate() {
        // Mixed scales per coordinate to keep the universality stress on.
        let dists: Vec<Gaussian> = (0..d)
            .map(|j| Gaussian::new((j as f64) * 100.0, 10f64.powi((j % 3) as i32 - 1)).unwrap())
            .collect();
        let truth: Vec<f64> = dists.iter().map(|g| g.mu()).collect();
        let per_trial = trial_map(cfg.trials.min(24), master, di as u64 * 1000, |_t, rng| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| dists.iter().map(|g| g.sample(rng)).collect())
                .collect();
            let r = estimate_mean_multivariate(rng, &rows, e, 0.1).unwrap();
            let l2 = l2_distance(&r.estimate, &truth);
            let linf = r
                .estimate
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let good = dists
                .iter()
                .enumerate()
                .filter(|(j, g)| {
                    let tol = 5.0 * g.sigma() * (d as f64) / (e.get() * (n as f64).sqrt());
                    (r.estimate[*j] - g.mu()).abs() < tol.max(5.0 * g.sigma() / (n as f64).sqrt())
                })
                .count();
            (l2, linf, good)
        });
        let mut l2s: Vec<f64> = per_trial.iter().map(|&(l2, _, _)| l2).collect();
        let mut linfs: Vec<f64> = per_trial.iter().map(|&(_, linf, _)| linf).collect();
        let good_coords: usize = per_trial.iter().map(|&(_, _, g)| g).sum();
        let total_coords = per_trial.len() * d;
        l2s.sort_by(f64::total_cmp);
        linfs.sort_by(f64::total_cmp);
        let med_l2 = l2s[l2s.len() / 2];
        if first_l2.is_none() {
            first_l2 = Some(med_l2);
        }
        let reference = first_l2.unwrap() * (d as f64).powf(1.5);
        t.push_row(vec![
            d.to_string(),
            fmt_err(med_l2),
            fmt_err(linfs[linfs.len() / 2]),
            fmt_err(reference),
            format!("{:.2}", good_coords as f64 / total_coords.max(1) as f64),
        ]);
    }
    t.note("coordinates live at locations 0..1500 with σ spanning 0.1–10: universality per coordinate, no per-coordinate configuration");
    t.note("ℓ₂ error grows at least like the d^{3/2} reference and faster once ε/d drops below the per-coordinate Theorem 4.5 sample requirement (visible at d=16) — exactly the suboptimal d-dependence the paper names as open problem #1");
    t
}
