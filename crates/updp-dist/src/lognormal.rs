//! The log-normal distribution `LogNormal(μ, σ)` (parameters of the
//! underlying normal).
//!
//! Heavily right-skewed with all moments finite but rapidly growing —
//! a realistic income/latency-style workload for the IQR and mean
//! experiments.

use crate::error::{DistError, Result};
use crate::sampling::sample_standard_normal;
use crate::special::{inverse_normal_cdf, normal_cdf, normal_pdf};
use crate::traits::{numeric_central_moment, ContinuousDistribution};
use rand::RngCore;

/// A log-normal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates `LogNormal(mu, sigma)`; `sigma` finite positive, `mu` finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(DistError::bad_param("mu", "must be finite"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistError::bad_param("sigma", "must be finite and positive"));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Raw moment `E[X^n] = exp(nμ + n²σ²/2)`.
    pub(crate) fn raw_moment(&self, n: u32) -> f64 {
        let nf = n as f64;
        (nf * self.mu + 0.5 * nf * nf * self.sigma * self.sigma).exp()
    }
}

impl ContinuousDistribution for LogNormal {
    fn name(&self) -> String {
        format!("LogNormal(mu={}, sigma={})", self.mu, self.sigma)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        normal_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        normal_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        (self.mu + self.sigma * inverse_normal_cdf(p)).exp()
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1)
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn central_moment(&self, k: u32) -> f64 {
        if k == 2 {
            self.variance()
        } else {
            numeric_central_moment(self, k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.5).is_ok());
    }

    #[test]
    fn mean_and_variance_formulas() {
        let ln = LogNormal::new(0.0, 1.0).unwrap();
        assert!((ln.mean() - (0.5f64).exp()).abs() < 1e-12);
        let expected_var = (1.0f64.exp() - 1.0) * 1.0f64.exp();
        assert!((ln.variance() - expected_var).abs() < 1e-10);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let ln = LogNormal::new(1.0, 0.5).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((ln.cdf(ln.quantile(p)) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn median_is_exp_mu() {
        let ln = LogNormal::new(2.0, 0.7).unwrap();
        assert!((ln.quantile(0.5) - (2.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn numeric_central_moment_matches_variance() {
        let ln = LogNormal::new(0.0, 0.5).unwrap();
        let v = ln.variance();
        let m2 = numeric_central_moment(&ln, 2);
        assert!((v - m2).abs() / v < 1e-5, "var {v} vs numeric {m2}");
    }

    #[test]
    fn support_is_positive_and_mean_matches() {
        let ln = LogNormal::new(0.0, 0.75).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = ln.sample_vec(&mut rng, 300_000);
        assert!(s.iter().all(|&x| x > 0.0));
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!(
            (mean - ln.mean()).abs() / ln.mean() < 0.02,
            "mean {mean} vs {}",
            ln.mean()
        );
    }

    #[test]
    fn phi_is_smaller_than_iqr() {
        // Skewed density: the highest-density region is narrower than
        // the IQR and sits left of the median.
        let ln = LogNormal::new(0.0, 1.0).unwrap();
        assert!(ln.phi(0.5) < ln.iqr());
    }
}
