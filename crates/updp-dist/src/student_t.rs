//! The (location–scale) Student-t distribution `t_ν(loc, scale)`.
//!
//! Symmetric heavy tails with `μ_k < ∞` iff `k < ν`: the symmetric
//! counterpart of Pareto for the heavy-tailed mean/variance experiments.
//! The CDF uses the regularized incomplete beta function; the quantile is
//! obtained by monotone bracketing + bisection.

use crate::error::{DistError, Result};
use crate::numeric::monotone_root;
use crate::sampling::{sample_chi_squared, sample_standard_normal};
use crate::special::{ln_gamma, regularized_incomplete_beta};
use crate::traits::ContinuousDistribution;
use rand::RngCore;

/// A Student-t distribution with `nu` degrees of freedom, location, and
/// scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
    loc: f64,
    scale: f64,
}

impl StudentT {
    /// Creates `t_nu(loc, scale)`; `nu`, `scale` finite positive, `loc`
    /// finite.
    pub fn new(nu: f64, loc: f64, scale: f64) -> Result<Self> {
        if !(nu.is_finite() && nu > 0.0) {
            return Err(DistError::bad_param("nu", "must be finite and positive"));
        }
        if !loc.is_finite() {
            return Err(DistError::bad_param("loc", "must be finite"));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(DistError::bad_param("scale", "must be finite and positive"));
        }
        Ok(StudentT { nu, loc, scale })
    }

    /// Standard-t CDF at `t` via `I_x(ν/2, 1/2)`.
    fn std_cdf(&self, t: f64) -> f64 {
        let x = self.nu / (self.nu + t * t);
        let half_tail = 0.5 * regularized_incomplete_beta(self.nu / 2.0, 0.5, x);
        if t >= 0.0 {
            1.0 - half_tail
        } else {
            half_tail
        }
    }
}

impl ContinuousDistribution for StudentT {
    fn name(&self) -> String {
        format!(
            "StudentT(nu={}, loc={}, scale={})",
            self.nu, self.loc, self.scale
        )
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let z = sample_standard_normal(rng);
        let v = sample_chi_squared(rng, self.nu).max(f64::MIN_POSITIVE);
        self.loc + self.scale * z / (v / self.nu).sqrt()
    }

    fn pdf(&self, x: f64) -> f64 {
        let t = (x - self.loc) / self.scale;
        let ln_norm = ln_gamma((self.nu + 1.0) / 2.0)
            - ln_gamma(self.nu / 2.0)
            - 0.5 * (self.nu * std::f64::consts::PI).ln();
        let ln_kernel = -(self.nu + 1.0) / 2.0 * (1.0 + t * t / self.nu).ln();
        (ln_norm + ln_kernel).exp() / self.scale
    }

    fn cdf(&self, x: f64) -> f64 {
        self.std_cdf((x - self.loc) / self.scale)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        if (p - 0.5).abs() < 1e-15 {
            return self.loc;
        }
        let f = |x: f64| self.cdf(x) - p;
        monotone_root(f, self.loc, self.scale, 1e-12 * self.scale.max(1.0))
    }

    fn mean(&self) -> f64 {
        if self.nu > 1.0 {
            self.loc
        } else {
            f64::NAN
        }
    }

    fn variance(&self) -> f64 {
        if self.nu > 2.0 {
            self.scale * self.scale * self.nu / (self.nu - 2.0)
        } else {
            f64::INFINITY
        }
    }

    fn central_moment(&self, k: u32) -> f64 {
        let kf = k as f64;
        if kf >= self.nu {
            return f64::INFINITY;
        }
        // E|T|^k = ν^{k/2}·Γ((k+1)/2)·Γ((ν−k)/2) / (√π·Γ(ν/2)), 0 < k < ν.
        let ln_m =
            0.5 * kf * self.nu.ln() + ln_gamma((kf + 1.0) / 2.0) + ln_gamma((self.nu - kf) / 2.0)
                - 0.5 * std::f64::consts::PI.ln()
                - ln_gamma(self.nu / 2.0);
        self.scale.powi(k as i32) * ln_m.exp()
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
        assert!(StudentT::new(0.0, 0.0, 1.0).is_err());
        assert!(StudentT::new(3.0, 0.0, 0.0).is_err());
        assert!(StudentT::new(3.0, f64::NAN, 1.0).is_err());
        assert!(StudentT::new(3.0, 0.0, 1.0).is_ok());
    }

    #[test]
    fn cdf_reference_values() {
        // t with ν=1 is standard Cauchy: F(1) = 3/4.
        let t1 = StudentT::new(1.0, 0.0, 1.0).unwrap();
        assert!((t1.cdf(1.0) - 0.75).abs() < 1e-10);
        assert!((t1.cdf(0.0) - 0.5).abs() < 1e-12);
        // ν=2: F(t) = 1/2 + t/(2√(2+t²)); F(1) ≈ 0.7886751
        let t2 = StudentT::new(2.0, 0.0, 1.0).unwrap();
        assert!((t2.cdf(1.0) - 0.7886751345948129).abs() < 1e-10);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let t = StudentT::new(4.0, 2.0, 3.0).unwrap();
        for i in 1..50 {
            let p = i as f64 / 50.0;
            let x = t.quantile(p);
            assert!((t.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn variance_formula_and_divergence() {
        let t = StudentT::new(5.0, 0.0, 2.0).unwrap();
        assert!((t.variance() - 4.0 * 5.0 / 3.0).abs() < 1e-12);
        let t2 = StudentT::new(2.0, 0.0, 1.0).unwrap();
        assert_eq!(t2.variance(), f64::INFINITY);
        let t1 = StudentT::new(1.0, 0.0, 1.0).unwrap();
        assert!(t1.mean().is_nan());
    }

    #[test]
    fn central_moments_match_known_formulas() {
        // ν = 5: μ₂ = ν/(ν−2) = 5/3; μ₄ = 3ν²/((ν−2)(ν−4)) = 25.
        let t = StudentT::new(5.0, 0.0, 1.0).unwrap();
        assert!((t.central_moment(2) - 5.0 / 3.0).abs() < 1e-9);
        assert!((t.central_moment(4) - 25.0).abs() < 1e-7);
        assert_eq!(t.central_moment(5), f64::INFINITY);
        assert_eq!(t.central_moment(6), f64::INFINITY);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let t = StudentT::new(3.0, 0.0, 1.0).unwrap();
        let numeric = crate::numeric::adaptive_simpson(|x| t.pdf(x), -200.0, 1.5, 1e-10);
        assert!((numeric - t.cdf(1.5)).abs() < 1e-6);
    }

    #[test]
    fn sample_moments_match() {
        let t = StudentT::new(6.0, 1.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = t.sample_vec(&mut rng, 300_000);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / s.len() as f64;
        assert!(
            (var - t.variance()).abs() / t.variance() < 0.1,
            "var {var} vs {}",
            t.variance()
        );
    }
}
