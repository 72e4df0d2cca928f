//! The Pareto distribution `Pareto(x_m, α)`.
//!
//! The canonical heavy-tailed workload: `μ_k < ∞` iff `k < α`, which is
//! exactly the regime of Theorem 4.9 (heavy-tailed mean) and Theorem 5.5
//! (heavy-tailed variance). Choosing `α` between 2 and 4 produces data
//! with finite variance but infinite fourth moment — the "arbitrary
//! distributions" case of Section 1.1.2 where prior work's `σ_max`
//! assumption is unobtainable even non-privately.

use crate::error::{DistError, Result};
use crate::traits::{numeric_central_moment, ContinuousDistribution};
use rand::Rng;
use rand::RngCore;

/// A Pareto distribution with scale `x_m > 0` and shape `alpha > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates `Pareto(xm, alpha)`; both parameters must be finite and
    /// positive.
    pub fn new(xm: f64, alpha: f64) -> Result<Self> {
        if !(xm.is_finite() && xm > 0.0) {
            return Err(DistError::bad_param("xm", "must be finite and positive"));
        }
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(DistError::bad_param("alpha", "must be finite and positive"));
        }
        Ok(Pareto { xm, alpha })
    }

    /// The tail index α.
    pub fn shape(&self) -> f64 {
        self.alpha
    }

    /// Raw moment `E[X^n] = α·x_m^n/(α − n)` for `n < α`, else `∞`.
    pub(crate) fn raw_moment(&self, n: u32) -> f64 {
        let nf = n as f64;
        if nf >= self.alpha {
            f64::INFINITY
        } else {
            self.alpha * self.xm.powi(n as i32) / (self.alpha - nf)
        }
    }
}

impl ContinuousDistribution for Pareto {
    fn name(&self) -> String {
        format!("Pareto(xm={}, alpha={})", self.xm, self.alpha)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                return self.xm * u.powf(-1.0 / self.alpha);
            }
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < self.xm {
            0.0
        } else {
            self.alpha * self.xm.powf(self.alpha) / x.powf(self.alpha + 1.0)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.xm {
            0.0
        } else {
            1.0 - (self.xm / x).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        self.xm * (1.0 - p).powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1)
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            self.xm * self.xm * self.alpha / ((self.alpha - 1.0).powi(2) * (self.alpha - 2.0))
        }
    }

    fn central_moment(&self, k: u32) -> f64 {
        if k as f64 >= self.alpha {
            f64::INFINITY
        } else if k == 2 {
            self.variance()
        } else {
            numeric_central_moment(self, k)
        }
    }

    fn phi(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0);
        // Density is decreasing on [x_m, ∞): narrowest interval starts at
        // x_m, ending at F⁻¹(β).
        self.quantile(beta) - self.xm
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
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(1.0, 2.5).is_ok());
    }

    #[test]
    fn moment_finiteness_boundary() {
        let p = Pareto::new(1.0, 3.0).unwrap();
        assert!(p.mean().is_finite());
        assert!(p.variance().is_finite());
        assert_eq!(p.central_moment(3), f64::INFINITY);
        assert_eq!(p.central_moment(4), f64::INFINITY);
        assert_eq!(p.raw_moment(3), f64::INFINITY);

        let heavy = Pareto::new(1.0, 1.5).unwrap();
        assert!(heavy.mean().is_finite());
        assert_eq!(heavy.variance(), f64::INFINITY);
    }

    #[test]
    fn mean_and_variance_formulas() {
        let p = Pareto::new(2.0, 3.0).unwrap();
        assert!((p.mean() - 3.0).abs() < 1e-12); // 3·2/2
        assert!((p.variance() - 3.0).abs() < 1e-12); // 4·3/(4·1)
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let p = Pareto::new(1.0, 2.0).unwrap();
        for i in 1..100 {
            let q = i as f64 / 100.0;
            assert!((p.cdf(p.quantile(q)) - q).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_respect_support_and_median() {
        let p = Pareto::new(1.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = p.sample_vec(&mut rng, 100_001);
        assert!(s.iter().all(|&x| x >= 1.0));
        s.sort_by(f64::total_cmp);
        let median = s[50_000];
        assert!(
            (median - p.quantile(0.5)).abs() / p.quantile(0.5) < 0.02,
            "median {median}"
        );
    }

    #[test]
    fn numeric_central_moment_close_for_light_tail() {
        // α = 10: μ₂ finite and the numeric integral should match.
        let p = Pareto::new(1.0, 10.0).unwrap();
        let analytic = p.variance();
        let numeric = numeric_central_moment(&p, 2);
        assert!(
            (analytic - numeric).abs() / analytic < 1e-4,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn phi_starts_at_support_edge() {
        let p = Pareto::new(1.0, 2.0).unwrap();
        let beta = 0.25;
        let w = p.phi(beta);
        assert!((p.cdf(1.0 + w) - beta).abs() < 1e-12);
    }
}
