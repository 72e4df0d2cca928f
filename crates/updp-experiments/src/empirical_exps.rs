//! Experiments for the empirical-setting theorems (Section 3).
//!
//! `radius` (Thm 3.1), `range` (Thm 3.2), `emp-mean` (Thm 3.3),
//! `packing` (Thm 3.4), `emp-quantile` (Thm 3.5).

use crate::config::ExpConfig;
use crate::table::Table;
use crate::trial::{fmt_err, trial_map};
use updp_core::privacy::Epsilon;
use updp_empirical::{
    infinite_domain_mean, infinite_domain_quantile, infinite_domain_radius, infinite_domain_range,
    rank_error, PackingFamily, SortedInts,
};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A spread dataset of `n` integers covering exactly `[−rad, rad]`.
fn spread_dataset(n: usize, rad: i64) -> SortedInts {
    let values: Vec<i64> = (0..n)
        .map(|i| -rad + ((2 * rad) as i128 * i as i128 / (n - 1) as i128) as i64)
        .collect();
    SortedInts::new(values).unwrap()
}

/// `radius` — Theorem 3.1: `r̃ad ≤ 2·rad(D)` while covering all but
/// `O(ε⁻¹ log log rad)` points, across 9 orders of magnitude of radius.
pub fn radius(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "radius",
        "InfiniteDomainRadius across radius magnitudes (Thm 3.1)",
        "r̃ad(D) ≤ 2·rad(D) and |D ∖ [−r̃ad, r̃ad]| = O(ε⁻¹·log log rad(D))",
        vec![
            "rad(D)",
            "eps",
            "med r̃ad/rad",
            "max r̃ad/rad",
            "med #outside",
            "theory O(ε⁻¹ loglog rad)",
        ],
    );
    let n = cfg.n(4000);
    let master = cfg.master_for("radius");
    for (wi, &log2rad) in [8u32, 20, 32, 40].iter().enumerate() {
        let rad = 1i64 << log2rad;
        let data = spread_dataset(n, rad);
        for (ei, &e) in [0.5f64, 2.0].iter().enumerate() {
            let epsilon = eps(e);
            let (ratios, outside): (Vec<f64>, Vec<f64>) = trial_map(
                cfg.trials,
                master,
                (wi * 100 + ei * 10) as u64 * 1000,
                |_t, rng| {
                    let r = infinite_domain_radius(rng, &data, epsilon, 0.1).unwrap();
                    (
                        r as f64 / rad as f64,
                        (n - data.count_within_radius(r)) as f64,
                    )
                },
            )
            .into_iter()
            .unzip();
            let max_ratio = ratios.iter().cloned().fold(0.0, f64::max);
            let theory = (1.0 / e) * ((log2rad as f64) * std::f64::consts::LN_2).ln();
            t.push_row(vec![
                format!("2^{log2rad}"),
                format!("{e}"),
                fmt_err(median(ratios)),
                fmt_err(max_ratio),
                fmt_err(median(outside)),
                fmt_err(theory),
            ]);
        }
    }
    t.note("ratio ≤ 2 confirms the scale guarantee; #outside grows only with log log rad, not rad");
    t
}

/// `range` — Theorem 3.2: `|R̃(D)| ≤ 4·γ(D)` regardless of how far the
/// data sits from the origin.
pub fn range(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "range",
        "InfiniteDomainRange location/scale tracking (Thm 3.2)",
        "|R̃(D)| ≤ 4·γ(D) and O(ε⁻¹ log log γ) clipped, independent of the data's location",
        vec!["location", "γ(D)", "med |R̃|/γ", "frac ≤ 4γ", "med #clipped"],
    );
    let n = cfg.n(4000);
    let master = cfg.master_for("range");
    let scenarios: Vec<(i64, i64)> = vec![
        (0, 100),
        (0, 1_000_000),
        (1_000_000_000, 100),
        (-1_000_000_000_000, 1_000_000),
    ];
    for (si, &(loc, gamma)) in scenarios.iter().enumerate() {
        let values: Vec<i64> = (0..n)
            .map(|i| loc + (gamma as i128 * i as i128 / (n - 1) as i128) as i64)
            .collect();
        let data = SortedInts::new(values).unwrap();
        let (ratios, clipped): (Vec<f64>, Vec<f64>) =
            trial_map(cfg.trials, master, si as u64 * 1000, |_t, rng| {
                let r = infinite_domain_range(rng, &data, eps(1.0), 0.1).unwrap();
                (
                    r.width() as f64 / gamma as f64,
                    (n - data.count_in(r.lo, r.hi)) as f64,
                )
            })
            .into_iter()
            .unzip();
        let ok = ratios.iter().filter(|&&x| x <= 4.0).count() as f64 / ratios.len() as f64;
        t.push_row(vec![
            format!("{loc:e}"),
            format!("{gamma:e}"),
            fmt_err(median(ratios)),
            format!("{ok:.2}"),
            fmt_err(median(clipped)),
        ]);
    }
    t.note("the 10^12-away cluster costs nothing extra: the range tracks location privately");
    t
}

/// `emp-mean` — Theorem 3.3: error `O((γ/(εn))·log log γ)`; the measured
/// ratio `err·εn/γ` is the achieved optimality ratio, which must stay
/// ~log log γ (compare with the `O(log N)` ratio of prior art).
pub(crate) fn emp_mean(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "emp-mean",
        "InfiniteDomainMean instance-optimality (Thm 3.3)",
        "error = O((γ(D)/(εn))·log log γ(D)): the optimality ratio err·εn/γ grows double-logarithmically",
        vec![
            "γ(D)",
            "med |μ̃−μ|",
            "ratio err·εn/γ",
            "log log γ",
            "log γ (prior art ratio)",
        ],
    );
    let n = cfg.n(4000);
    let e = eps(1.0);
    let master = cfg.master_for("emp-mean");
    for (gi, &log2gamma) in [8u32, 16, 24, 32, 40].iter().enumerate() {
        let gamma = 1i64 << log2gamma;
        // Adversarial bimodal data: half at 0, half at γ.
        let mut values = vec![0i64; n / 2];
        values.extend(vec![gamma; n - n / 2]);
        let data = SortedInts::new(values).unwrap();
        let truth = data.mean();
        let errs = trial_map(cfg.trials, master, gi as u64 * 1000, |_t, rng| {
            let r = infinite_domain_mean(rng, &data, e, 0.1).unwrap();
            (r.estimate - truth).abs()
        });
        let med = median(errs);
        let ratio = med * e.get() * n as f64 / gamma as f64;
        let lg = (log2gamma as f64) * std::f64::consts::LN_2;
        t.push_row(vec![
            format!("2^{log2gamma}"),
            fmt_err(med),
            fmt_err(ratio),
            fmt_err(lg.ln()),
            fmt_err(lg),
        ]);
    }
    t.note("ratio column tracks log log γ (4th column), exponentially below the log γ ratio of [HLY21]-style finite-domain estimators");
    t
}

/// `packing` — Theorem 3.4: on the proof's packing family over `[N]`, the
/// worst-case achieved ratio grows like `log log N` — matching the lower
/// bound, i.e. the estimator is worst-case optimal among
/// instance-optimal mechanisms.
pub fn packing(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "packing",
        "Optimality ratio on the Thm 3.4 packing family",
        "for any mechanism, max_i err(D(i))·εn/γ(D(i)) = Ω(log log N); ours achieves O(log log N)",
        vec![
            "N",
            "family size",
            "max_i ratio",
            "lower bound ln log2(N)/3",
        ],
    );
    let n = cfg.n(2000);
    let e = eps(1.0);
    let master = cfg.master_for("packing");
    for (ni, &log2n) in [8u32, 16, 32, 48].iter().enumerate() {
        let family = PackingFamily::new(log2n, n, e).unwrap();
        let mut worst: f64 = 0.0;
        // Sample the family at a few representative exponents to bound
        // runtime (the ratio is near-constant across i by design).
        let picks: Vec<u32> = vec![1, log2n / 2, log2n.saturating_sub(14).max(1), log2n]
            .into_iter()
            .filter(|&i| i >= 1 && i <= log2n)
            .collect();
        for &i in &picks {
            let data = family.dataset(i).unwrap();
            let truth = family.true_mean(i);
            let gamma = data.width().max(1) as f64;
            let errs = trial_map(
                cfg.trials,
                master,
                (ni * 100 + i as usize) as u64 * 1000,
                |_t, rng| {
                    let r = infinite_domain_mean(rng, &data, e, 0.1).unwrap();
                    (r.estimate - truth).abs()
                },
            );
            let ratio = median(errs) * e.get() * n as f64 / gamma;
            worst = worst.max(ratio);
        }
        let lower = (log2n as f64).ln() / 3.0;
        t.push_row(vec![
            format!("2^{log2n}"),
            format!("{}", family.family_size()),
            fmt_err(worst),
            fmt_err(lower),
        ]);
    }
    t.note(
        "achieved ratio grows with log log N and sits above the Thm 3.4 lower bound, as required",
    );
    t
}

/// `emp-quantile` — Theorem 3.5: rank error `O(ε⁻¹ log γ(D))` across
/// width magnitudes and quantile positions.
pub(crate) fn emp_quantile(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "emp-quantile",
        "InfiniteDomainQuantile rank error (Thm 3.5)",
        "rank error t = O(ε⁻¹·log γ(D)) — scales with the data's own width, not a domain bound",
        vec![
            "γ(D)",
            "τ/n",
            "med rank err",
            "p90 rank err",
            "theory ε⁻¹ ln γ",
        ],
    );
    let n = cfg.n(4000);
    let e = eps(1.0);
    let master = cfg.master_for("emp-quantile");
    for (gi, &log2gamma) in [10u32, 24, 40].iter().enumerate() {
        let gamma = 1i64 << log2gamma;
        let data = spread_dataset(n, gamma / 2);
        for (ti, &frac) in [0.25f64, 0.5, 0.9].iter().enumerate() {
            let tau = ((n as f64 * frac) as usize).max(1);
            let mut errs = trial_map(
                cfg.trials,
                master,
                (gi * 10 + ti) as u64 * 1000,
                |_t, rng| {
                    let r = infinite_domain_quantile(rng, &data, tau, e, 0.1).unwrap();
                    rank_error(&data, tau, r.estimate) as f64
                },
            );
            errs.sort_by(f64::total_cmp);
            let med = errs[errs.len() / 2];
            // saturating_sub keeps --trials 1 from wrapping to
            // usize::MAX while picking the same index as the historical
            // `- 1` for every len ≥ 2.
            let p90 = errs[((errs.len() as f64 * 0.9) as usize).saturating_sub(1)];
            let theory = (1.0 / e.get()) * (log2gamma as f64) * std::f64::consts::LN_2;
            t.push_row(vec![
                format!("2^{log2gamma}"),
                format!("{frac}"),
                fmt_err(med),
                fmt_err(p90),
                fmt_err(theory),
            ]);
        }
    }
    t.note("rank error grows linearly in log γ (columns 3–4 track column 5), matching the interior-point lower bound");
    t
}
