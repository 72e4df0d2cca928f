//! The Gaussian (normal) distribution `N(μ, σ²)`.
//!
//! The paper's marquee comparisons (Theorems 4.6 and 5.3 vs. \[KV18\] and
//! \[KLSU19\]/\[BDKU20\]) are stated for Gaussians, where every functional has
//! a closed form: `ϕ(β) = 2σ·Φ⁻¹((1+β)/2)`, `IQR = 2σ·Φ⁻¹(3/4)`, and
//! `μ_k = σ^k · 2^{k/2} Γ((k+1)/2)/√π` (which is `σ^k (k−1)!!` for even k).

use crate::error::{DistError, Result};
use crate::sampling::sample_standard_normal;
use crate::special::{inverse_normal_cdf, ln_gamma, normal_cdf, normal_pdf};
use crate::traits::ContinuousDistribution;
use rand::RngCore;

/// A Gaussian distribution with mean `mu` and standard deviation `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mu: f64,
    sigma: f64,
}

impl Gaussian {
    /// Creates `N(mu, sigma²)`; `sigma` must be finite and positive and
    /// `mu` finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(DistError::bad_param("mu", "must be finite"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistError::bad_param("sigma", "must be finite and positive"));
        }
        Ok(Gaussian { mu, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// The mean parameter μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The standard-deviation parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDistribution for Gaussian {
    fn name(&self) -> String {
        format!("Gaussian(mu={}, sigma={})", self.mu, self.sigma)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.mu + self.sigma * sample_standard_normal(rng)
    }

    fn pdf(&self, x: f64) -> f64 {
        normal_pdf((x - self.mu) / self.sigma) / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        normal_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * inverse_normal_cdf(p)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn central_moment(&self, k: u32) -> f64 {
        // E|Z|^k = 2^{k/2} Γ((k+1)/2)/√π, then scale by σ^k.
        let kf = k as f64;
        let log_abs_moment =
            0.5 * kf * (2.0f64).ln() + ln_gamma((kf + 1.0) / 2.0) - 0.5 * std::f64::consts::PI.ln();
        self.sigma.powi(k as i32) * log_abs_moment.exp()
    }

    fn phi(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0);
        // Highest-density interval is centered at μ by symmetry+unimodality.
        2.0 * self.sigma * inverse_normal_cdf((1.0 + beta) / 2.0)
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(5.0, 2.0).is_ok());
    }

    #[test]
    fn moments_match_formulas() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        assert_eq!(g.mean(), 3.0);
        assert_eq!(g.variance(), 4.0);
        // μ₂ = σ², μ₄ = 3σ⁴.
        assert!((g.central_moment(2) - 4.0).abs() < 1e-10);
        assert!((g.central_moment(4) - 48.0).abs() < 1e-8);
        // μ₆ = 15 σ⁶ = 15·64
        assert!((g.central_moment(6) - 960.0).abs() < 1e-6);
        // Odd absolute moment: E|X−μ| = σ√(2/π).
        let expected = 2.0 * (2.0 / std::f64::consts::PI).sqrt();
        assert!((g.central_moment(1) - expected).abs() < 1e-10);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let g = Gaussian::new(-1.0, 0.5).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = g.quantile(p);
            assert!((g.cdf(x) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn phi_matches_analytic() {
        let g = Gaussian::new(0.0, 2.0).unwrap();
        let beta = 1.0 / 16.0;
        let analytic = g.phi(beta);
        // Sanity: mass of the centered interval is exactly β.
        let half = analytic / 2.0;
        let mass = g.cdf(half) - g.cdf(-half);
        assert!((mass - beta).abs() < 1e-10);
        // Numeric default (through a helper struct would be circular); at
        // least confirm ϕ(1/2) ≈ IQR.
        assert!((g.phi(0.5) - g.iqr()).abs() < 1e-9);
    }

    #[test]
    fn sample_moments_match() {
        let g = Gaussian::new(10.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = g.sample_vec(&mut rng, 200_000);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / s.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn pdf_integrates_cdf() {
        let g = Gaussian::new(1.0, 1.5).unwrap();
        let numeric = crate::numeric::adaptive_simpson(|x| g.pdf(x), -20.0, 2.5, 1e-10);
        assert!((numeric - g.cdf(2.5)).abs() < 1e-8);
    }

    #[test]
    fn iqr_formula() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        assert!((g.iqr() - 1.3489795003921634).abs() < 1e-9);
    }
}
