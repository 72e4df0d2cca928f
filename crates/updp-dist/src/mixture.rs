//! Gaussian mixtures, including the paper's "ill-behaved" distributions.
//!
//! The universal estimators' only weakness is a distribution with a very
//! narrow, very high density peak: then `ϕ(1/16) ≪ σ` and the
//! `log log(1/ϕ(1/16))` terms in the sample-size requirements blow up
//! (gracefully — only log-log). [`GaussianMixture::ill_behaved_spike`]
//! constructs exactly that shape for the `ill-behaved` experiment.

use crate::error::{DistError, Result};
use crate::gaussian::Gaussian;
use crate::numeric::monotone_root;
use crate::traits::ContinuousDistribution;
use rand::Rng;
use rand::RngCore;

/// A finite mixture of Gaussian components.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    weights: Vec<f64>,
    components: Vec<Gaussian>,
}

impl GaussianMixture {
    /// Creates a mixture from `(weight, component)` pairs. Weights must be
    /// positive; they are normalized to sum to 1.
    pub fn new(parts: Vec<(f64, Gaussian)>) -> Result<Self> {
        if parts.is_empty() {
            return Err(DistError::bad_param("parts", "must be non-empty"));
        }
        if parts.iter().any(|(w, _)| !(w.is_finite() && *w > 0.0)) {
            return Err(DistError::bad_param(
                "weights",
                "must be finite and positive",
            ));
        }
        let total: f64 = parts.iter().map(|(w, _)| w).sum();
        let (weights, components) = parts.into_iter().map(|(w, c)| (w / total, c)).unzip();
        Ok(GaussianMixture {
            weights,
            components,
        })
    }

    /// An ill-behaved distribution: half the mass in a spike of width
    /// `spike_sigma` at 0, half in a unit-width Gaussian. As
    /// `spike_sigma → 0`, `ϕ(1/16) → 0` while `σ` stays Θ(1).
    pub fn ill_behaved_spike(spike_sigma: f64) -> Result<Self> {
        GaussianMixture::new(vec![
            (0.5, Gaussian::new(0.0, spike_sigma)?),
            (0.5, Gaussian::new(0.0, 1.0)?),
        ])
    }

    /// A well-separated bimodal mixture, used to exercise multi-modal
    /// range finding.
    pub fn bimodal(separation: f64, sigma: f64) -> Result<Self> {
        GaussianMixture::new(vec![
            (0.5, Gaussian::new(-separation / 2.0, sigma)?),
            (0.5, Gaussian::new(separation / 2.0, sigma)?),
        ])
    }
}

impl ContinuousDistribution for GaussianMixture {
    fn name(&self) -> String {
        format!(
            "GaussianMixture({})",
            self.weights
                .iter()
                .zip(&self.components)
                .map(|(w, c)| format!("{w:.3}*{}", c.name()))
                .collect::<Vec<_>>()
                .join(" + ")
        )
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u: f64 = rng.gen();
        for (w, c) in self.weights.iter().zip(&self.components) {
            if u < *w {
                return c.sample(rng);
            }
            u -= w;
        }
        // Floating-point slack: fall back to the last component.
        self.components
            .last()
            .expect("mixture has at least one component")
            .sample(rng)
    }

    fn pdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.pdf(x))
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.cdf(x))
            .sum()
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        let seed_scale = self
            .components
            .iter()
            .map(|c| c.sigma())
            .fold(f64::NEG_INFINITY, f64::max);
        monotone_root(|x| self.cdf(x) - p, self.mean(), seed_scale, 1e-12)
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.mu())
            .sum()
    }

    fn variance(&self) -> f64 {
        let mu = self.mean();
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * (c.sigma().powi(2) + (c.mu() - mu).powi(2)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(GaussianMixture::new(vec![]).is_err());
        assert!(GaussianMixture::new(vec![(0.0, Gaussian::standard())]).is_err());
        assert!(GaussianMixture::new(vec![(1.0, Gaussian::standard())]).is_ok());
    }

    #[test]
    fn weights_are_normalized() {
        let m = GaussianMixture::new(vec![
            (2.0, Gaussian::new(0.0, 1.0).unwrap()),
            (6.0, Gaussian::new(10.0, 1.0).unwrap()),
        ])
        .unwrap();
        // mean = 0.25·0 + 0.75·10 = 7.5
        assert!((m.mean() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn single_component_matches_gaussian() {
        let g = Gaussian::new(2.0, 3.0).unwrap();
        let m = GaussianMixture::new(vec![(1.0, g)]).unwrap();
        for i in -10..=10 {
            let x = i as f64;
            assert!((m.pdf(x) - g.pdf(x)).abs() < 1e-14);
            assert!((m.cdf(x) - g.cdf(x)).abs() < 1e-14);
        }
        assert!((m.variance() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn bimodal_variance_includes_separation() {
        let m = GaussianMixture::bimodal(10.0, 1.0).unwrap();
        // var = σ² + (sep/2)² = 1 + 25.
        assert!((m.variance() - 26.0).abs() < 1e-12);
        assert!((m.mean()).abs() < 1e-12);
    }

    #[test]
    fn quantile_roundtrip_bimodal() {
        let m = GaussianMixture::bimodal(8.0, 0.5).unwrap();
        for i in 1..40 {
            let p = i as f64 / 40.0;
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn ill_behaved_spike_has_tiny_phi() {
        let m = GaussianMixture::ill_behaved_spike(1e-4).unwrap();
        let phi = m.phi(1.0 / 16.0);
        let sigma = m.std_dev();
        // The spike holds 1/2 the mass in width ~4e-4, so a 1/16-mass
        // interval is tiny while σ ≈ 0.7.
        assert!(phi < 1e-3, "phi = {phi}");
        assert!(sigma > 0.5, "sigma = {sigma}");
    }

    #[test]
    fn sample_mean_matches() {
        let m = GaussianMixture::new(vec![
            (1.0, Gaussian::new(-5.0, 1.0).unwrap()),
            (3.0, Gaussian::new(3.0, 2.0).unwrap()),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = m.sample_vec(&mut rng, 200_000);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!(
            (mean - m.mean()).abs() < 0.05,
            "mean {mean} vs {}",
            m.mean()
        );
    }
}
