//! Budget-composition integration tests: sequential releases on one
//! dataset compose per Lemma 2.2, and the internal stage budgets of the
//! estimators add up to the advertised totals.

use updp::core::amplification::{amplified_epsilon, paper_inner_epsilon};
use updp::core::privacy::{budget_tolerance, Epsilon};
use updp::core::rng::seeded;
use updp_dist::{ContinuousDistribution, Gaussian};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

#[test]
fn internal_stage_budgets_of_estimate_mean_sum_to_epsilon() {
    // Algorithm 8's budget: ε/8 (IQR lower bound) + amplified 3ε′/4
    // (range on the εn-subsample, which costs 3ε/4 after Theorem 2.4)
    // + ε/8 (the Laplace release at scale 8|R̃|/(εn)).
    let e = eps(0.6);
    // Amplification: inner ε′ = ln((e^ε−1)/ε + 1) at rate ε amplifies
    // back to ε; the 3/4 share costs at most 3ε/4.
    let inner = paper_inner_epsilon(e);
    let outer_cost = amplified_epsilon(inner.scale(3.0 / 4.0), e.get());
    assert!(outer_cost.get() <= 3.0 * e.get() / 4.0 + 1e-12);
    let total = e.get() / 8.0 + outer_cost.get() + e.get() / 8.0;
    assert!(
        total <= e.get() + budget_tolerance(e.get()),
        "budget overspent: stages sum to {total}, ε = {}",
        e.get()
    );
}

#[test]
fn repeated_releases_degrade_gracefully_with_budget_split() {
    // k sequential mean releases at ε/k each: every release is still
    // accurate, and the error grows roughly linearly in k (noise ∝ k/εn)
    // while total privacy stays ε.
    let g = Gaussian::new(10.0, 1.0).unwrap();
    let n = 40_000;
    let total = eps(1.0);
    let mut rng = seeded(1);
    let data = g.sample_vec(&mut rng, n);

    let err_at = |k: usize, master: u64| -> f64 {
        let share = total.scale(1.0 / k as f64);
        let mut worst: f64 = 0.0;
        let mut rng = seeded(master);
        for _ in 0..k {
            let r = updp::statistical::estimate_mean(&mut rng, &data, share, 0.1).unwrap();
            worst = worst.max((r.estimate - 10.0).abs());
        }
        worst
    };
    let one = err_at(1, 10);
    let eight = err_at(8, 20);
    assert!(one < 0.1, "single release error {one}");
    assert!(eight < 1.0, "8-way split worst error {eight}");
}

#[test]
fn epsilon_split_is_exhaustive_and_proportional() {
    let e = eps(2.0);
    let parts = e.split(&[3.0, 1.0]);
    assert!((parts[0].get() - 1.5).abs() < 1e-12);
    assert!((parts[1].get() - 0.5).abs() < 1e-12);
    let sum: f64 = parts.iter().map(|p| p.get()).sum();
    assert!((sum - 2.0).abs() < 1e-12);
}
