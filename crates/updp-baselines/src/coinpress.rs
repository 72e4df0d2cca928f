//! CoinPress-style iterative Gaussian estimators (\[KLSU19\]/\[BDKU20\],
//! A1 + A2), in a pure-DP Laplace variant.
//!
//! The published CoinPress runs under zCDP with Gaussian noise; following
//! the paper's own convention for such comparisons (footnote 7: a CDP
//! result "leads to a result under pure-DP by changing a distribution of
//! noise"), we swap in Laplace noise and split ε evenly across the
//! iterations. Structure is identical: start from the assumed interval
//! `[−R, R]`, repeatedly (clip → noisy mean → recenter and shrink to a
//! confidence interval of width `O(σ)`), which removes the `R` dependence
//! *geometrically* — but the starting interval, iteration count, and
//! shrink width all require the A1/A2 bounds the universal estimator does
//! without.

use rand::Rng;
use updp_core::clipped_mean::clipped_mean;
use updp_core::error::{ensure_finite, ensure_nonempty, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;

/// Default number of clip-and-shrink iterations (CoinPress uses t ≤ 10;
/// 2–4 captures nearly all the gain).
pub(crate) const DEFAULT_STEPS: usize = 4;

/// Pure-DP CoinPress-style Gaussian mean under A1 (`μ ∈ [−r, r]`) and A2
/// (`σ` known up to the given value).
pub fn coinpress_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    r: f64,
    sigma: f64,
    epsilon: Epsilon,
    steps: usize,
) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "coinpress_mean input")?;
    if !(r.is_finite() && r > 0.0 && sigma.is_finite() && sigma > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "r/sigma",
            reason: "must be finite and positive".into(),
        });
    }
    if steps == 0 {
        return Err(UpdpError::InvalidParameter {
            name: "steps",
            reason: "must be at least 1".into(),
        });
    }
    let n = data.len() as f64;
    let eps_t = epsilon.scale(1.0 / steps as f64);
    let mut lo = -r;
    let mut hi = r;
    let mut estimate = 0.0;
    for _ in 0..steps {
        let width = hi - lo;
        let mean = clipped_mean(data, lo, hi)?;
        let noise_scale = width / (eps_t.get() * n);
        estimate = mean + sample_laplace(rng, noise_scale);
        // Shrink: the next interval must contain μ w.h.p. — sampling
        // spread O(σ/√n) + clipping slack O(σ√log n) + noise tail.
        let half = sigma * (2.0 * (4.0 * n).ln()).sqrt()
            + noise_scale * (4.0 * steps as f64).ln()
            + 2.0 * sigma;
        let new_lo = estimate - half;
        let new_hi = estimate + half;
        // Never expand: expansion means noise dominated; stop shrinking.
        if new_hi - new_lo >= width {
            break;
        }
        lo = new_lo;
        hi = new_hi;
    }
    Ok(estimate)
}

/// Pure-DP CoinPress-style Gaussian variance under A2
/// (`σ ∈ [sigma_min, sigma_max]`): iterative shrink on the paired
/// second-moment variable `Z = (X − X′)²/2` whose mean is σ².
pub fn coinpress_variance<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    sigma_min: f64,
    sigma_max: f64,
    epsilon: Epsilon,
    steps: usize,
) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "coinpress_variance input")?;
    if !(sigma_min > 0.0 && sigma_max > sigma_min && sigma_max.is_finite()) {
        return Err(UpdpError::InvalidParameter {
            name: "sigma bounds",
            reason: format!("need 0 < sigma_min < sigma_max, got [{sigma_min}, {sigma_max}]"),
        });
    }
    if steps == 0 {
        return Err(UpdpError::InvalidParameter {
            name: "steps",
            reason: "must be at least 1".into(),
        });
    }
    let z: Vec<f64> = data
        .chunks_exact(2)
        .map(|p| (p[0] - p[1]) * (p[0] - p[1]) / 2.0)
        .collect();
    if z.is_empty() {
        return Err(UpdpError::InsufficientData {
            required: 2,
            actual: data.len(),
            context: "coinpress_variance pairing",
        });
    }
    let m = z.len() as f64;
    let eps_t = epsilon.scale(1.0 / steps as f64);
    // Z ∈ [0, cap]; Z/σ² is χ²₁-ish, so cap c·σ_max²·log covers w.h.p.
    let mut hi = 4.0 * sigma_max * sigma_max * (4.0 * m).ln();
    let mut estimate = sigma_min * sigma_min;
    for _ in 0..steps {
        let mean = clipped_mean(&z, 0.0, hi)?;
        let noise_scale = hi / (eps_t.get() * m);
        estimate = (mean + sample_laplace(rng, noise_scale)).max(sigma_min * sigma_min);
        let new_hi =
            4.0 * estimate * (4.0 * m).ln() + 4.0 * noise_scale * (4.0 * steps as f64).ln();
        if new_hi >= hi {
            break;
        }
        hi = new_hi;
    }
    Ok(estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn mean_accurate_under_assumptions() {
        let g = Gaussian::new(12.0, 2.0).unwrap();
        let mut rng = seeded(1);
        let data = g.sample_vec(&mut rng, 50_000);
        let m = coinpress_mean(&mut rng, &data, 1e6, 2.0, eps(1.0), DEFAULT_STEPS).unwrap();
        assert!((m - 12.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn iterations_beat_single_shot_for_huge_r() {
        // R = 10^8: one-shot noise is enormous; iterating shrinks it.
        let g = Gaussian::new(5.0, 1.0).unwrap();
        let med = |steps: usize, master: u64| -> f64 {
            let mut errs: Vec<f64> = (0..40)
                .map(|s| {
                    let mut rng = seeded(master + s);
                    let data = g.sample_vec(&mut rng, 5_000);
                    let m = coinpress_mean(&mut rng, &data, 1e8, 1.0, eps(0.5), steps).unwrap();
                    (m - 5.0).abs()
                })
                .collect();
            errs.sort_by(f64::total_cmp);
            errs[20]
        };
        let one = med(1, 100);
        let four = med(4, 200);
        assert!(four < one / 10.0, "iterating didn't help: {one} vs {four}");
    }

    #[test]
    fn mean_fails_when_a1_violated() {
        let g = Gaussian::new(1e7, 1.0).unwrap();
        let mut rng = seeded(3);
        let data = g.sample_vec(&mut rng, 20_000);
        let m = coinpress_mean(&mut rng, &data, 100.0, 1.0, eps(1.0), DEFAULT_STEPS).unwrap();
        assert!((m - 1e7).abs() > 1e6, "should be badly biased, got {m}");
    }

    #[test]
    fn variance_accurate_under_assumptions() {
        let g = Gaussian::new(0.0, 3.0).unwrap();
        let mut rng = seeded(4);
        let data = g.sample_vec(&mut rng, 50_000);
        let v = coinpress_variance(&mut rng, &data, 0.01, 100.0, eps(1.0), DEFAULT_STEPS).unwrap();
        assert!((v - 9.0).abs() / 9.0 < 0.3, "variance {v}");
    }

    #[test]
    fn variance_floor_binds_when_a2_wrong() {
        // σ = 0.1 but σ_min = 1: the answer can never go below 1.
        let g = Gaussian::new(0.0, 0.1).unwrap();
        let mut rng = seeded(5);
        let data = g.sample_vec(&mut rng, 20_000);
        let v = coinpress_variance(&mut rng, &data, 1.0, 100.0, eps(1.0), DEFAULT_STEPS).unwrap();
        assert!(v >= 1.0, "floor should bind: {v}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = seeded(6);
        let data = vec![0.0; 100];
        assert!(coinpress_mean(&mut rng, &data, 0.0, 1.0, eps(1.0), 4).is_err());
        assert!(coinpress_mean(&mut rng, &data, 1.0, 1.0, eps(1.0), 0).is_err());
        assert!(coinpress_variance(&mut rng, &data, 1.0, 1.0, eps(1.0), 4).is_err());
    }
}
