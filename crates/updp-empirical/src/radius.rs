//! `InfiniteDomainRadius` — Algorithm 3 (Theorem 3.1).
//!
//! Privately estimates `rad(D) = maxᵢ|Xᵢ|` over the *unbounded* integer
//! domain by feeding the doubling counting queries
//! `Count(D, 0), Count(D, 2⁰), Count(D, 2¹), …` to SVT with the lowered
//! threshold `T = n − (6/ε)·log(2/β)`.
//!
//! The lowered threshold is the paper's key trick (via Lemma 2.6): it
//! forces SVT to stop *as soon as* a query is close to `n`, avoiding the
//! "late stop" problem where the exponential growth of the query radius
//! would otherwise overshoot `rad(D)` by an unbounded factor. Theorem 3.1:
//! with probability ≥ 1 − β,
//!
//! * `r̃ad(D) ≤ 2·rad(D)`, and
//! * `|D ∖ [−r̃ad(D), r̃ad(D)]| = O((1/ε)·log(log(rad(D))/β))`.

use crate::dataset::SortedInts;
use rand::Rng;
use updp_core::error::{ensure_beta, Result};
use updp_core::privacy::Epsilon;
use updp_core::svt::{sparse_vector, DEFAULT_SVT_CAP};

/// The SVT query radius for 0-based query index `i`:
/// `x₀ = 0`, `xᵢ = 2^{i−1}` for `i ≥ 1` (saturating in `u64`).
#[inline]
fn query_radius(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i > 64 {
        u64::MAX
    } else {
        1u64 << (i - 1)
    }
}

/// ε-DP estimate of `rad(D)` (Algorithm 3).
///
/// Returns a radius `r̃ad(D)` satisfying Theorem 3.1 with probability
/// ≥ 1 − β, or `InvalidParameter { name: "beta" }` unless β ∈ (0, 1).
pub fn infinite_domain_radius<R: Rng + ?Sized>(
    rng: &mut R,
    data: &SortedInts,
    epsilon: Epsilon,
    beta: f64,
) -> Result<u64> {
    ensure_beta(beta)?;
    Ok(infinite_domain_radius_about(rng, data, 0, epsilon, beta))
}

/// [`infinite_domain_radius`] of the recentered data `D − center`
/// (saturating, as Algorithm 4's `D″ = D − X̃`), without building it:
/// every SVT query is [`SortedInts::count_within_radius_of`]. The
/// caller has checked β.
pub(crate) fn infinite_domain_radius_about<R: Rng + ?Sized>(
    rng: &mut R,
    data: &SortedInts,
    center: i64,
    epsilon: Epsilon,
    beta: f64,
) -> u64 {
    assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
    let n = data.len() as f64;
    let threshold = n - 6.0 / epsilon.get() * (2.0 / beta).ln();
    let outcome = sparse_vector(
        rng,
        threshold,
        epsilon,
        |i| data.count_within_radius_of(center, query_radius(i)) as f64,
        DEFAULT_SVT_CAP,
    );
    // Algorithm 3 returns the radius of the query that fired: the ĩ-th
    // (1-based; ĩ ≥ 1) is query_radius(ĩ − 1), 0 for ĩ = 1.
    query_radius(outcome.index - 1)
}

/// The count bound of Theorem 3.1 (up to its universal constant):
/// `(6/ε)·(log(2/β) + log(2(log₂ rad + 2)/β))` elements may fall outside
/// the returned radius. Exposed for experiment reporting.
pub fn radius_outside_bound(epsilon: Epsilon, rad: u64, beta: f64) -> f64 {
    let log2rad = if rad <= 1 { 1.0 } else { (rad as f64).log2() };
    6.0 / epsilon.get() * ((2.0 / beta).ln() + (2.0 * (log2rad + 2.0) / beta).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn dataset(values: Vec<i64>) -> SortedInts {
        SortedInts::new(values).unwrap()
    }

    #[test]
    fn query_radii_double() {
        assert_eq!(query_radius(0), 0);
        assert_eq!(query_radius(1), 1);
        assert_eq!(query_radius(2), 2);
        assert_eq!(query_radius(3), 4);
        assert_eq!(query_radius(11), 1024);
        assert_eq!(query_radius(65), u64::MAX);
        assert_eq!(query_radius(200), u64::MAX);
    }

    #[test]
    fn all_zeros_returns_zero_radius() {
        // rad(D) = 0 ⇒ Count(D, 0) = n fires immediately (Lemma 2.6).
        let d = dataset(vec![0; 2000]);
        let mut hits = 0;
        for seed in 0..100 {
            let mut rng = seeded(seed);
            if infinite_domain_radius(&mut rng, &d, eps(1.0), 0.1).unwrap() == 0 {
                hits += 1;
            }
        }
        assert!(hits >= 90, "returned 0 only {hits}/100 times");
    }

    #[test]
    fn never_overshoots_twice_radius() {
        // Theorem 3.1 upper bound: r̃ad ≤ 2·rad with probability ≥ 1−β.
        let rad = 1000u64; // data at ±1000 plus bulk near zero
        let mut values = vec![0i64; 5000];
        values.push(1000);
        values.push(-1000);
        let d = dataset(values);
        let mut violations = 0;
        for seed in 0..200 {
            let mut rng = seeded(seed);
            let r = infinite_domain_radius(&mut rng, &d, eps(1.0), 0.05).unwrap();
            if r > 2 * rad {
                violations += 1;
            }
        }
        assert!(violations <= 20, "overshot 2·rad {violations}/200 times");
    }

    #[test]
    fn covers_most_points() {
        // Theorem 3.1 coverage: few points outside the returned radius.
        let mut values: Vec<i64> = (0..4000).map(|i| (i % 256) - 128).collect();
        values.push(1 << 30);
        let d = dataset(values);
        let e = eps(1.0);
        let beta = 0.05;
        let mut failures = 0;
        for seed in 0..100 {
            let mut rng = seeded(1000 + seed);
            let r = infinite_domain_radius(&mut rng, &d, e, beta).unwrap();
            let outside = d.len() - d.count_within_radius(r);
            let bound = radius_outside_bound(e, d.radius(), beta);
            if (outside as f64) > bound {
                failures += 1;
            }
        }
        assert!(failures <= 10, "coverage bound failed {failures}/100");
    }

    #[test]
    fn scales_to_huge_radii() {
        // Data at ±2^50: the doubling search must reach it quickly and
        // stay within a factor 2.
        let mut values = vec![1i64 << 50; 3000];
        values.push(-(1i64 << 50));
        let d = dataset(values);
        let mut rng = seeded(7);
        let r = infinite_domain_radius(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!(r >= 1u64 << 50, "undershot: {r}");
        assert!(r <= 1u64 << 51, "overshot: {r}");
    }

    #[test]
    fn small_n_with_loose_epsilon_still_terminates() {
        let d = dataset(vec![5, -3, 8]);
        let mut rng = seeded(8);
        // With n = 3 the threshold is deeply negative: SVT fires almost
        // immediately, returning a tiny radius — allowed, just useless.
        let r = infinite_domain_radius(&mut rng, &d, eps(0.01), 0.3).unwrap();
        // Only checking termination and type sanity.
        let _ = r;
    }

    #[test]
    fn deterministic_given_seed() {
        let d = dataset((0..1000).map(|i| i % 64).collect());
        let mut a = seeded(42);
        let mut b = seeded(42);
        assert_eq!(
            infinite_domain_radius(&mut a, &d, eps(0.5), 0.1).unwrap(),
            infinite_domain_radius(&mut b, &d, eps(0.5), 0.1).unwrap()
        );
    }
}
