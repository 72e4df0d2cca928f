//! The [`ContinuousDistribution`] trait: samplers plus ground truth.
//!
//! Every experiment in this repository compares a private estimate to the
//! *true* parameter of the data distribution, so the trait exposes not
//! only sampling but every functional the paper's bounds are stated in:
//! mean, variance, central moments `μ_k`, `IQR`, the highest-density-width
//! `ϕ(β)` (Section 2.1), the quartile-density `θ(κ)` (Section 6), and the
//! `(m, β)`-statistical width `γ(m, β)` (Section 2.1).
//!
//! Default implementations derive `ϕ`, `θ`, and `γ` numerically from the
//! CDF/quantile functions; distributions override them only when an exact
//! closed form exists.

use crate::numeric::golden_section_min;
use rand::RngCore;

/// A continuous probability distribution over ℝ with full ground truth.
///
/// Object safe: experiments hold `Box<dyn ContinuousDistribution>`.
pub trait ContinuousDistribution: Send + Sync {
    /// Human-readable name with parameters, e.g. `Gaussian(μ=0, σ=1)`.
    fn name(&self) -> String;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Probability density `f(x)`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution `F(x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function `F⁻¹(p)` for `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// The statistical mean `μ_P`. `NaN` if undefined (Cauchy).
    fn mean(&self) -> f64;

    /// The statistical variance `σ²_P`. `∞` if undefined.
    fn variance(&self) -> f64;

    /// The k-th (absolute) central moment `μ_k = E[|X − μ|^k]`, exactly as
    /// defined in Section 2.1. Returns `∞` when the moment diverges and
    /// `NaN` when the mean itself is undefined.
    ///
    /// Default: quantile-domain quadrature via
    /// `numeric_central_moment`; distributions with closed forms
    /// override it.
    fn central_moment(&self, k: u32) -> f64 {
        numeric_central_moment(self, k)
    }

    /// Standard deviation `σ_P`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Interquartile range `F⁻¹(3/4) − F⁻¹(1/4)`.
    fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Draws `n` i.i.d. samples.
    fn sample_vec(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The width of the highest-density region at level β (Section 2.1):
    /// `ϕ(β) = inf { a₂ − a₁ : ∫_{a₁}^{a₂} f = β }`.
    ///
    /// Default: coarse grid over the left endpoint's probability `p`
    /// followed by golden-section refinement of
    /// `w(p) = F⁻¹(p + β) − F⁻¹(p)`. Exact for unimodal densities and a
    /// tight approximation for the mixtures used in experiments.
    fn phi(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
        let width = |p: f64| self.quantile(p + beta) - self.quantile(p);
        let eps = 1e-9;
        let grid = 256;
        let hi = 1.0 - beta - eps;
        if hi <= eps {
            return width(eps);
        }
        let mut best_p = eps;
        let mut best_w = f64::INFINITY;
        for i in 0..=grid {
            let p = eps + (hi - eps) * i as f64 / grid as f64;
            let w = width(p);
            if w < best_w {
                best_w = w;
                best_p = p;
            }
        }
        let cell = (hi - eps) / grid as f64;
        let lo_p = (best_p - cell).max(eps);
        let hi_p = (best_p + cell).min(hi);
        let p = golden_section_min(width, lo_p, hi_p, 1e-12);
        width(p).min(best_w)
    }

    /// The quartile-neighborhood density `θ(κ)` (Section 6): the smallest
    /// average density over the four width-κ intervals flanking
    /// `F⁻¹(1/4)` and `F⁻¹(3/4)`.
    fn theta(&self, kappa: f64) -> f64 {
        assert!(kappa > 0.0, "kappa must be positive");
        let q1 = self.quantile(0.25);
        let q3 = self.quantile(0.75);
        let mass = |a: f64, b: f64| (self.cdf(b) - self.cdf(a)).max(0.0);
        let m = [
            mass(q1 - kappa, q1),
            mass(q1, q1 + kappa),
            mass(q3 - kappa, q3),
            mass(q3, q3 + kappa),
        ];
        m.iter().cloned().fold(f64::INFINITY, f64::min) / kappa
    }

    /// The `(m, β)`-statistical width `γ(m, β)` (Section 2.1): the
    /// smallest λ such that `Pr[γ(D) ≥ λ] ≤ β` for `D ~ P^m`.
    ///
    /// Default: the union-bound surrogate
    /// `F⁻¹(1 − β/(2m)) − F⁻¹(β/(2m))`, which upper-bounds the true
    /// width and matches its asymptotics — exactly how the paper itself
    /// relaxes `γ(εn)` when simplifying Theorem 4.5 for specific families.
    fn statistical_width(&self, m: usize, beta: f64) -> f64 {
        assert!(m >= 1);
        assert!(beta > 0.0 && beta < 1.0);
        let p = (beta / (2.0 * m as f64)).max(1e-300);
        self.quantile(1.0 - p) - self.quantile(p)
    }
}

/// Quantile-domain quadrature for `μ_k = E[|X − μ|^k] =
/// ∫₀¹ |F⁻¹(p) − μ|^k dp`.
///
/// Shared by the trait default and by overrides that only special-case
/// divergent moments. Accurate for distributions whose k-th moment exists;
/// heavy-tailed distributions must override with `∞` for divergent k.
pub(crate) fn numeric_central_moment<D: ContinuousDistribution + ?Sized>(dist: &D, k: u32) -> f64 {
    let mu = dist.mean();
    if !mu.is_finite() {
        return f64::NAN;
    }
    let eps = 1e-12;
    crate::numeric::adaptive_simpson(
        |p| {
            (dist.quantile(p.clamp(eps, 1.0 - eps)) - mu)
                .abs()
                .powi(k as i32)
        },
        eps,
        1.0 - eps,
        1e-10,
    )
}

/// Blanket helpers available on any `&dyn ContinuousDistribution`.
impl dyn ContinuousDistribution + '_ {
    /// `E[(X − x)·1{X < x}]` — the lower truncation bias `E[X < x]` from
    /// Section 2.1, computed by quadrature over the quantile domain:
    /// `∫₀^{F(x)} (F⁻¹(p) − x) dp`.
    pub fn lower_truncation_bias(&self, x: f64) -> f64 {
        let fx = self.cdf(x);
        if fx <= 0.0 {
            return 0.0;
        }
        crate::numeric::adaptive_simpson(
            |p| self.quantile(p.clamp(1e-12, 1.0 - 1e-12)) - x,
            1e-12,
            fx.min(1.0 - 1e-12),
            1e-10,
        )
    }

    /// `E[(X − x)·1{X > x}]` — the upper truncation bias `E[X > x]`.
    pub fn upper_truncation_bias(&self, x: f64) -> f64 {
        let fx = self.cdf(x);
        if fx >= 1.0 {
            return 0.0;
        }
        crate::numeric::adaptive_simpson(
            |p| self.quantile(p.clamp(1e-12, 1.0 - 1e-12)) - x,
            fx.max(1e-12),
            1.0 - 1e-12,
            1e-10,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;
    use crate::uniform::Uniform;

    #[test]
    fn default_iqr_matches_quantiles() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let iqr = g.iqr();
        // Gaussian IQR = 2·Φ⁻¹(0.75)·σ ≈ 1.3489795
        assert!((iqr - 1.3489795003921634).abs() < 1e-9, "iqr = {iqr}");
    }

    #[test]
    fn default_phi_for_uniform_is_beta_times_width() {
        // Uniform density is flat: any interval of mass β has width β(b−a).
        let u = Uniform::new(0.0, 10.0).unwrap();
        let phi = u.phi(1.0 / 16.0);
        assert!((phi - 10.0 / 16.0).abs() < 1e-6, "phi = {phi}");
    }

    #[test]
    fn default_theta_for_uniform_is_density() {
        let u = Uniform::new(0.0, 4.0).unwrap();
        // density = 0.25 everywhere, so θ(κ) = 0.25 for small κ.
        let theta = u.theta(0.1);
        assert!((theta - 0.25).abs() < 1e-9, "theta = {theta}");
    }

    #[test]
    fn statistical_width_grows_with_m() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let w10 = g.statistical_width(10, 0.1);
        let w1000 = g.statistical_width(1000, 0.1);
        assert!(w1000 > w10);
        // Gaussian: γ(m, β) ~ 2√(2 ln(2m/β)) grows like √log m.
        assert!(w1000 < 2.0 * w10, "growth should be slow: {w10} -> {w1000}");
    }

    #[test]
    fn truncation_biases_sum_to_zero_at_mean_for_symmetric() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let d: &dyn ContinuousDistribution = &g;
        let lower = d.lower_truncation_bias(0.0);
        let upper = d.upper_truncation_bias(0.0);
        // E[X<0] = −E[|X|]/2 = −1/√(2π); upper is +1/√(2π).
        let expected = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((upper - expected).abs() < 1e-6, "upper = {upper}");
        assert!((lower + expected).abs() < 1e-6, "lower = {lower}");
    }

    #[test]
    fn truncation_bias_vanishes_in_far_tails() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let d: &dyn ContinuousDistribution = &g;
        assert!(d.upper_truncation_bias(10.0).abs() < 1e-8);
        assert!(d.lower_truncation_bias(-10.0).abs() < 1e-8);
    }
}
