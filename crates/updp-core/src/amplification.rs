//! Privacy amplification by subsampling (Theorem 2.4, \[BBG18\]).
//!
//! Running an ε-DP mechanism on a without-replacement subsample of rate
//! `η` yields `log(1 + η(e^ε − 1))`-DP on the full dataset. The statistical
//! estimators (Algorithms 8 and 9) exploit this by finding the clipping
//! range on a subsample of `m = εn` elements: the paper sets the *inner*
//! budget to `ε′ = log((e^ε − 1)/ε + 1)` so that after amplification at
//! rate `η = ε` the outer cost is exactly ε.

use crate::privacy::Epsilon;

/// Amplified (outer) ε after running an `inner`-DP mechanism on a
/// without-replacement subsample of rate `rate ∈ (0, 1]`.
pub fn amplified_epsilon(inner: Epsilon, rate: f64) -> Epsilon {
    assert!(
        rate > 0.0 && rate <= 1.0,
        "sampling rate must be in (0, 1], got {rate}"
    );
    let outer = (1.0 + rate * (inner.get().exp() - 1.0)).ln();
    // outer ≤ inner always holds, and inner is valid, so this cannot fail.
    Epsilon::new(outer).expect("amplified epsilon is positive and finite")
}

/// The paper's inner budget for Algorithms 8–9:
/// `ε′ = log((e^ε − 1)/ε + 1)`, chosen so that a subsample of rate `ε`
/// running an ε′-DP mechanism costs exactly ε overall.
pub fn paper_inner_epsilon(epsilon: Epsilon) -> Epsilon {
    let e = epsilon.get();
    let inner = ((e.exp() - 1.0) / e + 1.0).ln();
    Epsilon::new(inner).expect("inner epsilon is positive and finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn amplification_reduces_epsilon() {
        let inner = eps(1.0);
        let outer = amplified_epsilon(inner, 0.1);
        assert!(outer.get() < inner.get());
        // For small ε·η, outer ≈ η·ε.
        let small = amplified_epsilon(eps(0.01), 0.1);
        assert!((small.get() - 0.001).abs() / 0.001 < 0.05);
    }

    #[test]
    fn rate_one_is_identity() {
        let inner = eps(0.7);
        let outer = amplified_epsilon(inner, 1.0);
        assert!((outer.get() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn paper_inner_epsilon_amplifies_back_to_epsilon() {
        // Subsampling rate η = ε with inner budget ε′ must cost exactly ε:
        // log(1 + ε(e^{ε′} − 1)) = log(1 + ε·(e^ε − 1)/ε) = ε.
        for e in [0.01, 0.1, 0.5, 0.9] {
            let inner = paper_inner_epsilon(eps(e));
            let outer = amplified_epsilon(inner, e);
            assert!(
                (outer.get() - e).abs() < 1e-12,
                "ε = {e}: outer = {}",
                outer.get()
            );
        }
    }

    #[test]
    fn paper_inner_epsilon_exceeds_epsilon() {
        // ε′ > ε: the subsample gets a *larger* working budget.
        for e in [0.05, 0.2, 0.8] {
            assert!(paper_inner_epsilon(eps(e)).get() > e);
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn rejects_zero_rate() {
        amplified_epsilon(eps(1.0), 0.0);
    }
}
