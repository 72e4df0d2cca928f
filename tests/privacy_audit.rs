//! Statistical privacy audits: empirically verify the ε-DP inequality
//! `Pr[M(D) ∈ S] ≤ e^ε·Pr[M(D′) ∈ S]` on neighboring datasets for the
//! discrete-output mechanisms, by Monte-Carlo estimation of the output
//! distributions.
//!
//! These are *sanity audits*, not proofs: with `T` trials per dataset the
//! per-bin frequencies carry `O(1/√T)` noise, so assertions allow a
//! generous slack factor and only consider bins with enough mass. A
//! genuinely broken mechanism (e.g. forgetting the threshold noise in
//! SVT) fails these audits decisively — that failure mode was the
//! motivation for including them.

use std::collections::HashMap;
use updp::core::privacy::Epsilon;
use updp::core::rng::{child_seed, seeded};
use updp::core::svt::sparse_vector_slice;
use updp::empirical::{infinite_domain_radius, SortedInts};

const TRIALS: usize = 30_000;
/// Only audit outcomes with at least this empirical probability; rarer
/// bins have too much Monte-Carlo noise to test meaningfully.
const MIN_MASS: f64 = 0.02;
/// Monte-Carlo slack multiplier on e^ε.
const SLACK: f64 = 1.35;

/// Collects the empirical output distribution of a discrete mechanism.
fn histogram<F>(trials: usize, master: u64, mut f: F) -> HashMap<i64, f64>
where
    F: FnMut(&mut rand::rngs::StdRng) -> i64,
{
    let mut counts: HashMap<i64, usize> = HashMap::new();
    for t in 0..trials {
        let mut rng = seeded(child_seed(master, t as u64));
        *counts.entry(f(&mut rng)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(k, v)| (k, v as f64 / trials as f64))
        .collect()
}

/// Asserts the ε-DP ratio bound between two output histograms.
fn assert_dp_ratio(p: &HashMap<i64, f64>, q: &HashMap<i64, f64>, epsilon: f64, label: &str) {
    let bound = epsilon.exp() * SLACK;
    for (&k, &pv) in p {
        if pv < MIN_MASS {
            continue;
        }
        let qv = q.get(&k).copied().unwrap_or(0.0);
        assert!(
            pv <= bound * qv.max(1.0 / TRIALS as f64),
            "{label}: outcome {k} has P={pv:.4} vs Q={qv:.4}, ratio exceeds e^ε·slack = {bound:.3}"
        );
    }
}

#[test]
fn svt_index_distribution_satisfies_epsilon_dp() {
    // Neighboring count sequences: one record moved across a boundary
    // changes two prefix counts by 1.
    let e = 0.8;
    let eps = Epsilon::new(e).unwrap();
    let answers_d: Vec<f64> = vec![10.0, 12.0, 15.0, 18.0, 20.0, 20.0];
    let answers_d2: Vec<f64> = vec![10.0, 13.0, 16.0, 18.0, 20.0, 20.0];
    let run = |answers: Vec<f64>, master: u64| {
        histogram(TRIALS, master, move |rng| {
            sparse_vector_slice(rng, 17.0, eps, &answers)
                .map(|i| i as i64)
                .unwrap_or(-1)
        })
    };
    let p = run(answers_d, 1);
    let q = run(answers_d2, 2);
    assert_dp_ratio(&p, &q, e, "SVT D->D'");
    assert_dp_ratio(&q, &p, e, "SVT D'->D");
}

#[test]
fn radius_output_distribution_satisfies_epsilon_dp() {
    let e = 1.0;
    let eps = Epsilon::new(e).unwrap();
    // Neighbors: one value swapped from the bulk to a far outlier.
    let mut base: Vec<i64> = (0..200).map(|i| (i % 17) - 8).collect();
    let d1 = SortedInts::new(base.clone()).unwrap();
    base[0] = 1 << 20;
    let d2 = SortedInts::new(base).unwrap();
    let run = |d: SortedInts, master: u64| {
        histogram(TRIALS, master, move |rng| {
            infinite_domain_radius(rng, &d, eps, 0.1).unwrap() as i64
        })
    };
    let p = run(d1, 3);
    let q = run(d2, 4);
    assert_dp_ratio(&p, &q, e, "radius D->D'");
    assert_dp_ratio(&q, &p, e, "radius D'->D");
}

#[test]
fn broken_mechanism_fails_the_audit() {
    // Negative control: a "mechanism" that leaks the data (returns the
    // true first-above-threshold index without noise) must violate the
    // ratio bound — proving the audit has teeth.
    let answers_d = [0.0, 0.0, 100.0];
    let answers_d2 = [0.0, 100.0, 100.0];
    let leak = |answers: [f64; 3], master: u64| {
        histogram(TRIALS, master, move |rng| {
            let _ = rng; // deterministic leak
            answers.iter().position(|&a| a > 50.0).unwrap() as i64
        })
    };
    let p = leak(answers_d, 5);
    let q = leak(answers_d2, 6);
    let violated = p.iter().any(|(&k, &pv)| {
        pv >= MIN_MASS && pv > (1.0f64).exp() * SLACK * q.get(&k).copied().unwrap_or(0.0)
    });
    assert!(violated, "the audit failed to flag a leaking mechanism");
}

#[test]
fn laplace_mechanism_ratio_bound_on_coarse_bins() {
    // Continuous output: audit on coarse integer bins of width 1.
    let e = 0.6;
    let eps = Epsilon::new(e).unwrap();
    let run = |value: f64, master: u64| {
        histogram(TRIALS, master, move |rng| {
            updp::core::laplace::laplace_mechanism(rng, value, 1.0, eps)
                .unwrap()
                .floor() as i64
        })
    };
    // Neighboring sums differing by the full sensitivity 1.
    let p = run(10.0, 7);
    let q = run(11.0, 8);
    assert_dp_ratio(&p, &q, e, "laplace D->D'");
    assert_dp_ratio(&q, &p, e, "laplace D'->D");
}
