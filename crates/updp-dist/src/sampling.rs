//! Primitive samplers shared by the distribution implementations.
//!
//! Everything is built from `rand`'s uniform generator: standard normal
//! via Box–Muller, gamma via Marsaglia–Tsang, and exponential via inverse
//! CDF. These are deliberately simple, well-tested textbook methods — the
//! experiments care about statistical correctness and reproducibility,
//! not about squeezing nanoseconds out of the samplers.

use rand::Rng;
use rand::RngCore;

/// Draws a standard normal variate (Box–Muller, polar-free form).
pub(crate) fn sample_standard_normal(rng: &mut dyn RngCore) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= 0.0 {
            continue;
        }
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let z = r * theta.cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Draws `Exp(1)` via inverse CDF.
pub(crate) fn sample_standard_exponential(rng: &mut dyn RngCore) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return -u.ln();
        }
    }
}

/// Draws `Gamma(shape, 1)` via Marsaglia–Tsang (2000), with the standard
/// boost for `shape < 1`.
pub(crate) fn sample_standard_gamma(rng: &mut dyn RngCore, shape: f64) -> f64 {
    assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
    if shape < 1.0 {
        // Γ(a) = Γ(a+1) · U^{1/a}
        let g = sample_standard_gamma(rng, shape + 1.0);
        loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                return g * u.powf(1.0 / shape);
            }
        }
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen();
        if u <= 0.0 {
            continue;
        }
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Draws `χ²_ν` (chi-squared with `nu` degrees of freedom).
pub(crate) fn sample_chi_squared(rng: &mut dyn RngCore, nu: f64) -> f64 {
    2.0 * sample_standard_gamma(rng, nu / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let s: Vec<f64> = (0..200_000)
            .map(|_| sample_standard_normal(&mut rng))
            .collect();
        let (mean, var) = moments(&s);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn standard_normal_tail_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let above2 = (0..n)
            .filter(|_| sample_standard_normal(&mut rng) > 2.0)
            .count() as f64
            / n as f64;
        // Pr[Z > 2] ≈ 0.02275
        assert!((above2 - 0.02275).abs() < 0.003, "tail {above2}");
    }

    #[test]
    fn exponential_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let s: Vec<f64> = (0..200_000)
            .map(|_| sample_standard_exponential(&mut rng))
            .collect();
        let (mean, var) = moments(&s);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gamma_moments_large_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let shape = 7.5;
        let s: Vec<f64> = (0..200_000)
            .map(|_| sample_standard_gamma(&mut rng, shape))
            .collect();
        let (mean, var) = moments(&s);
        assert!((mean - shape).abs() / shape < 0.02, "mean {mean}");
        assert!((var - shape).abs() / shape < 0.05, "var {var}");
    }

    #[test]
    fn gamma_moments_small_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = 0.3;
        let s: Vec<f64> = (0..200_000)
            .map(|_| sample_standard_gamma(&mut rng, shape))
            .collect();
        let (mean, var) = moments(&s);
        assert!((mean - shape).abs() / shape < 0.05, "mean {mean}");
        assert!((var - shape).abs() / shape < 0.1, "var {var}");
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn chi_squared_mean_is_nu() {
        let mut rng = StdRng::seed_from_u64(6);
        let nu = 4.0;
        let s: Vec<f64> = (0..100_000)
            .map(|_| sample_chi_squared(&mut rng, nu))
            .collect();
        let (mean, var) = moments(&s);
        assert!((mean - nu).abs() / nu < 0.03, "mean {mean}");
        assert!((var - 2.0 * nu).abs() / (2.0 * nu) < 0.08, "var {var}");
    }
}
