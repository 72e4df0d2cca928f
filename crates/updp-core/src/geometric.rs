//! The two-sided geometric ("discrete Laplace") mechanism.
//!
//! For integer-valued queries the natural pure-DP noise is the two-sided
//! geometric distribution `Pr[K = k] ∝ exp(−|k|·ε/Δ)`. It is an optional
//! extension used by integer-domain counting experiments; the paper itself
//! uses continuous Laplace noise throughout, which we follow in the main
//! algorithms.

use crate::error::{Result, UpdpError};
use crate::privacy::Epsilon;
use rand::Rng;

/// Draws one two-sided geometric variate with parameter
/// `alpha = exp(−ε/Δ) ∈ (0, 1)`:
/// `Pr[K = k] = (1 − α)/(1 + α) · α^{|k|}`.
pub fn sample_two_sided_geometric<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> i64 {
    debug_assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
    // `alpha == 0.0` exactly (infinite epsilon) collapses the distribution
    // to the point mass at 0; near-zero alpha must still sample.
    if alpha == 0.0 {
        return 0;
    }
    // Inverse-CDF on the folded magnitude, then a random sign for k ≠ 0.
    // Pr[|K| = 0] = (1−α)/(1+α); Pr[|K| = m] = 2α^m (1−α)/(1+α), m ≥ 1.
    let u: f64 = rng.gen();
    let p0 = (1.0 - alpha) / (1.0 + alpha);
    if u < p0 {
        return 0;
    }
    // Remaining mass is split evenly over ±m, m ≥ 1, each geometric.
    let v: f64 = rng.gen();
    let m = 1 + (v.ln() / alpha.ln()).floor().max(0.0) as i64;
    if rng.gen::<bool>() {
        m
    } else {
        -m
    }
}

/// ε-DP release of an integer query with global sensitivity `sensitivity`.
pub fn geometric_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    value: i64,
    sensitivity: u64,
    epsilon: Epsilon,
) -> Result<i64> {
    if sensitivity == 0 {
        return Err(UpdpError::InvalidParameter {
            name: "sensitivity",
            reason: "must be positive".into(),
        });
    }
    let alpha = (-epsilon.get() / sensitivity as f64).exp();
    Ok(value.saturating_add(sample_two_sided_geometric(rng, alpha)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn noise_is_symmetric_and_centered() {
        let mut rng = seeded(1);
        let alpha = (-0.5f64).exp();
        let n = 200_000;
        let sum: i64 = (0..n)
            .map(|_| sample_two_sided_geometric(&mut rng, alpha))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn zero_probability_matches_analytic() {
        let mut rng = seeded(2);
        let alpha: f64 = 0.5;
        let n = 100_000;
        let zeros = (0..n)
            .filter(|_| sample_two_sided_geometric(&mut rng, alpha) == 0)
            .count() as f64
            / n as f64;
        let p0 = (1.0 - alpha) / (1.0 + alpha);
        assert!((zeros - p0).abs() < 0.01, "zeros {zeros} vs p0 {p0}");
    }

    #[test]
    fn magnitude_distribution_is_geometric() {
        let mut rng = seeded(3);
        let alpha: f64 = 0.6;
        let n = 200_000;
        let mut count1 = 0usize;
        let mut count2 = 0usize;
        for _ in 0..n {
            match sample_two_sided_geometric(&mut rng, alpha).abs() {
                1 => count1 += 1,
                2 => count2 += 1,
                _ => {}
            }
        }
        // Pr[|K|=2]/Pr[|K|=1] = α.
        let ratio = count2 as f64 / count1 as f64;
        assert!((ratio - alpha).abs() < 0.03, "ratio {ratio} vs α {alpha}");
    }

    #[test]
    fn mechanism_rejects_zero_sensitivity() {
        let mut rng = seeded(4);
        let eps = Epsilon::new(1.0).unwrap();
        assert!(geometric_mechanism(&mut rng, 5, 0, eps).is_err());
    }

    #[test]
    fn mechanism_centers_on_value() {
        let mut rng = seeded(5);
        let eps = Epsilon::new(2.0).unwrap();
        let n = 50_000;
        let sum: i64 = (0..n)
            .map(|_| geometric_mechanism(&mut rng, 100, 1, eps).unwrap())
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn alpha_zero_gives_no_noise() {
        let mut rng = seeded(6);
        for _ in 0..100 {
            assert_eq!(sample_two_sided_geometric(&mut rng, 0.0), 0);
        }
    }
}
