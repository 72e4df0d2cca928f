//! The Laplace distribution and the Laplace mechanism (Lemma 2.3).
//!
//! `M_Q(D) = Q(D) + Lap(GS_Q / ε)` is ε-DP for any query `Q` with global
//! sensitivity `GS_Q`. The Laplace distribution with scale `b` has density
//! `f(x) = exp(−|x|/b) / (2b)`, variance `2b²`, and the tail bound
//! `Pr[|Lap(b)| ≥ t] = exp(−t/b)` used throughout the paper's proofs.

use crate::error::{Result, UpdpError};
use crate::privacy::Epsilon;
use rand::Rng;

/// Draws one sample from the Laplace distribution with the given `scale`.
///
/// Uses the inverse-CDF method: for `U ~ Uniform(−1/2, 1/2)`,
/// `−b · sgn(U) · ln(1 − 2|U|) ~ Lap(b)`.
pub fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
    // u ∈ [0, 1); shift to (−1/2, 1/2]; the endpoint u = 0.5 maps to
    // ln(1 − 2·0.5)... guard by resampling the measure-zero edge so the
    // log argument stays strictly positive.
    loop {
        let u: f64 = rng.gen::<f64>() - 0.5;
        let a = 1.0 - 2.0 * u.abs();
        if a > 0.0 {
            return -scale * u.signum() * a.ln();
        }
    }
}

/// The Laplace mechanism: releases `value + Lap(sensitivity / ε)`.
///
/// Returns an error if `sensitivity` is non-positive or non-finite.
pub fn laplace_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    value: f64,
    sensitivity: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    if !(sensitivity.is_finite() && sensitivity > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "sensitivity",
            reason: format!("must be finite and positive, got {sensitivity}"),
        });
    }
    Ok(value + sample_laplace(rng, sensitivity / epsilon.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn sample_mean_is_near_zero() {
        let mut rng = seeded(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_laplace(&mut rng, 1.0)).sum::<f64>() / n as f64;
        // std error of the mean is sqrt(2/n) ≈ 0.0032
        assert!(mean.abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn sample_variance_matches_two_b_squared() {
        let mut rng = seeded(2);
        let b = 3.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, b)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let expected = 2.0 * b * b;
        assert!(
            (var - expected).abs() / expected < 0.05,
            "var = {var}, expected {expected}"
        );
    }

    #[test]
    fn empirical_tail_matches_analytic() {
        let mut rng = seeded(3);
        let b = 2.0;
        let t = 4.0;
        let n = 100_000;
        let exceed = (0..n)
            .filter(|_| sample_laplace(&mut rng, b).abs() >= t)
            .count() as f64
            / n as f64;
        // Pr[|Lap(b)| ≥ t] = exp(−t/b).
        let analytic = (-t / b).exp();
        assert!(
            (exceed - analytic).abs() < 0.01,
            "empirical {exceed} vs analytic {analytic}"
        );
    }

    #[test]
    fn mechanism_rejects_bad_sensitivity() {
        let mut rng = seeded(4);
        let eps = Epsilon::new(1.0).unwrap();
        assert!(laplace_mechanism(&mut rng, 0.0, 0.0, eps).is_err());
        assert!(laplace_mechanism(&mut rng, 0.0, -1.0, eps).is_err());
        assert!(laplace_mechanism(&mut rng, 0.0, f64::NAN, eps).is_err());
    }

    #[test]
    fn mechanism_centers_on_value() {
        let mut rng = seeded(5);
        let eps = Epsilon::new(2.0).unwrap();
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| laplace_mechanism(&mut rng, 10.0, 1.0, eps).unwrap())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.02, "mean = {mean}");
    }
}
