//! Experiments for IQR estimation (Sections 4.1 and 6).
//!
//! `iqr-lb` (Thm 4.3), `iqr` (Thm 6.2 vs \[DL09\]).

use crate::config::ExpConfig;
use crate::table::Table;
use crate::trial::{estimator_trials, fmt_err, trial_map};
use updp_baselines::{Dl09Estimator, NonPrivateIqr};
use updp_core::privacy::{Delta, Epsilon};
use updp_dist::{Cauchy, ContinuousDistribution, Gaussian, GaussianMixture, LogNormal, Uniform};
use updp_statistical::{estimate_iqr_lower_bound, EstimateParams, UniversalIqr};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// `iqr-lb` — Theorem 4.3: `ϕ(1/16)/4 ≤ IQR̲ ≤ IQR` on well- and
/// ill-behaved distributions alike.
pub fn iqr_lb(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "iqr-lb",
        "EstimateIQRLowerBound sandwich bound (Thm 4.3)",
        "ϕ(1/16)/4 ≤ IQR̲ ≤ IQR with probability ≥ 1 − β, for arbitrary P",
        vec![
            "distribution",
            "ϕ(1/16)/4",
            "med IQR̲",
            "IQR",
            "frac in bounds",
        ],
    );
    let n = cfg.n(8_000);
    let master = cfg.master_for("iqr-lb");
    let dists: Vec<(String, Box<dyn ContinuousDistribution>)> = vec![
        ("Gaussian(0,1)".into(), Box::new(Gaussian::standard())),
        (
            "Gaussian(0,1e6)".into(),
            Box::new(Gaussian::new(0.0, 1e6).unwrap()),
        ),
        (
            "Gaussian(0,1e-6)".into(),
            Box::new(Gaussian::new(0.0, 1e-6).unwrap()),
        ),
        (
            "Uniform(0,100)".into(),
            Box::new(Uniform::new(0.0, 100.0).unwrap()),
        ),
        (
            "LogNormal(0,1)".into(),
            Box::new(LogNormal::new(0.0, 1.0).unwrap()),
        ),
        (
            "spike mixture (1e-6)".into(),
            Box::new(GaussianMixture::ill_behaved_spike(1e-6).unwrap()),
        ),
    ];
    for (di, (label, dist)) in dists.iter().enumerate() {
        let d = dist.as_ref();
        let phi4 = d.phi(1.0 / 16.0) / 4.0;
        let iqr = d.iqr();
        let mut values = trial_map(cfg.trials, master, di as u64 * 1000, |_t, rng| {
            let data = d.sample_vec(rng, n);
            estimate_iqr_lower_bound(rng, &data, eps(1.0), 0.1).unwrap()
        });
        let in_bounds = values.iter().filter(|&&lb| lb >= phi4 && lb <= iqr).count();
        values.sort_by(f64::total_cmp);
        t.push_row(vec![
            label.clone(),
            fmt_err(phi4),
            fmt_err(values[values.len() / 2]),
            fmt_err(iqr),
            format!("{:.2}", in_bounds as f64 / cfg.trials as f64),
        ]);
    }
    t.note("the sandwich holds across 12 decades of scale and on the ill-behaved spike, with no inputs beyond (ε, β)");
    t
}

/// `iqr` — Theorem 6.2 vs \[DL09\]: `α ∝ 1/(εn)` against `α ∝ 1/(ε log n)`,
/// pure ε-DP against (ε, δ)-DP-with-refusals.
pub fn iqr(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "iqr",
        "IQR: universal ε-DP vs DL09 propose-test-release (Thm 6.2)",
        "ours converges at α ∝ 1/(εn) + 1/√n under pure DP; DL09 needs δ>0, refuses on small n, and its grid resolution only improves as 1/log n",
        vec![
            "distribution",
            "n",
            "ours (ε-DP)",
            "DL09 ((ε,δ)-DP)",
            "DL09 refusal rate",
            "non-private",
        ],
    );
    let e = eps(1.0);
    let delta = Delta::new(1e-6).unwrap();
    let master = cfg.master_for("iqr");
    let dists: Vec<(String, Box<dyn ContinuousDistribution>)> = vec![
        ("Gaussian(0,1)".into(), Box::new(Gaussian::standard())),
        (
            "LogNormal(0,1)".into(),
            Box::new(LogNormal::new(0.0, 1.0).unwrap()),
        ),
        (
            "Cauchy(0,1)".into(),
            Box::new(Cauchy::new(0.0, 1.0).unwrap()),
        ),
    ];
    for (di, (label, dist)) in dists.iter().enumerate() {
        let d = dist.as_ref();
        let truth = d.iqr();
        for (ni, &n_full) in [1_000usize, 10_000, 100_000].iter().enumerate() {
            let n = cfg.n(n_full);
            let m = master.wrapping_add((di * 10 + ni) as u64 * 7127);
            let sample = |rng: &mut rand::rngs::StdRng| d.sample_vec(rng, n);
            let ours = estimator_trials(
                cfg.trials,
                m,
                truth,
                &UniversalIqr,
                &EstimateParams::new(e).with_beta(0.1),
                sample,
            );
            let dl = estimator_trials(
                cfg.trials,
                m ^ 1,
                truth,
                &Dl09Estimator,
                &EstimateParams::new(e).with("delta", delta.get()),
                sample,
            );
            let np = estimator_trials(
                cfg.trials,
                m ^ 2,
                truth,
                &NonPrivateIqr,
                &EstimateParams::new(e),
                sample,
            );
            t.push_row(vec![
                label.clone(),
                n.to_string(),
                fmt_err(ours.median),
                fmt_err(dl.median),
                format!("{:.2}", 1.0 - dl.success_rate()),
                fmt_err(np.median),
            ]);
        }
    }
    t.note("ours shrinks ~linearly in n toward the sampling floor; DL09's error plateaus at its IQR/ln n grid cell, exactly the paper's α ∝ 1/(ε log n) vs 1/(εn) contrast");
    t.note("Cauchy row: mean/variance do not exist, yet both IQR estimators work — scale estimation needs no moments");
    t
}
