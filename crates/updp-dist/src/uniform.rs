//! The continuous uniform distribution `U(a, b)`.
//!
//! Featured in the paper's introduction: the mid-range estimator beats the
//! sample mean on uniform data (`O(1/n)` vs `O(1/√n)`), which the
//! `table1` experiment demonstrates alongside its catastrophic failure on
//! Gaussians.

use crate::error::{DistError, Result};
use crate::traits::ContinuousDistribution;
use rand::Rng;
use rand::RngCore;

/// A uniform distribution on `[a, b]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    /// Creates `U(a, b)`; requires finite `a < b`.
    pub fn new(a: f64, b: f64) -> Result<Self> {
        if !(a.is_finite() && b.is_finite()) {
            return Err(DistError::bad_param("a,b", "must be finite"));
        }
        if a >= b {
            return Err(DistError::bad_param("a,b", "must satisfy a < b"));
        }
        Ok(Uniform { a, b })
    }

    /// Lower endpoint.
    pub fn lower(&self) -> f64 {
        self.a
    }

    fn width(&self) -> f64 {
        self.b - self.a
    }
}

impl ContinuousDistribution for Uniform {
    fn name(&self) -> String {
        format!("Uniform({}, {})", self.a, self.b)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.a + self.width() * rng.gen::<f64>()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x >= self.a && x <= self.b {
            1.0 / self.width()
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.a) / self.width()).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        self.a + p * self.width()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.a + self.b)
    }

    fn variance(&self) -> f64 {
        self.width() * self.width() / 12.0
    }

    fn central_moment(&self, k: u32) -> f64 {
        // |X − μ| ~ U(0, w/2): E = (w/2)^k/(k+1).
        let half = self.width() / 2.0;
        half.powi(k as i32) / (k as f64 + 1.0)
    }

    fn phi(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0);
        beta * self.width()
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
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::INFINITY, 1.0).is_err());
        assert!(Uniform::new(-1.0, 1.0).is_ok());
    }

    #[test]
    fn moments() {
        let u = Uniform::new(2.0, 8.0).unwrap();
        assert_eq!(u.mean(), 5.0);
        assert_eq!(u.variance(), 3.0);
        assert!((u.central_moment(2) - 3.0).abs() < 1e-12);
        // μ₄ = (w/2)⁴/5 = 81/5
        assert!((u.central_moment(4) - 16.2).abs() < 1e-12);
        // E|X−μ| = (w/2)/2 = 1.5
        assert!((u.central_moment(1) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let u = Uniform::new(-3.0, 7.0).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((u.cdf(u.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn iqr_is_half_width() {
        let u = Uniform::new(0.0, 4.0).unwrap();
        assert!((u.iqr() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_in_support() {
        let u = Uniform::new(-1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = u.sample(&mut rng);
            assert!((-1.0..=1.0).contains(&x));
        }
    }
}
