//! \[KV18\] Karwa–Vadhan-style pure-DP Gaussian estimators (A1 + A2 + A3).
//!
//! The strongest prior pure-DP Gaussian mean/variance estimators. Both
//! are two-stage histogram constructions and *require* the assumed bounds
//! as algorithmic inputs:
//!
//! * **variance**: histogram the pairwise differences on a *log₂ scale*
//!   over `[σ_min, σ_max]`, take the noisy argmax bin — a factor-2
//!   approximation `σ̂`; refine with a clipped second-moment release.
//! * **mean**: histogram `[−R, R]` into width-`σ̂` bins, take the noisy
//!   argmax as a coarse location, then release a clipped Laplace mean
//!   around it.
//!
//! Sample complexity `Õ((1/ε)·log(R/σ_min) + σ²/α² + σ/(εα))` — the
//! `log R/σ_min` term is the price of A1/A2 that Theorem 4.6 removes.

use rand::Rng;
use updp_core::clipped_mean::clipped_mean;
use updp_core::error::{ensure_finite, ensure_nonempty, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::Epsilon;

/// Upper limit on histogram bins; beyond this the assumed `R/σ_min` ratio
/// is so extreme the baseline is anyway useless.
const MAX_BINS: usize = 1 << 22;

/// Noisy-argmax over histogram counts (each count gets `Lap(2/ε)`; one
/// record moves at most two counts by one, so this is ε-DP).
fn noisy_argmax<R: Rng + ?Sized>(rng: &mut R, counts: &[usize], epsilon: Epsilon) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &c) in counts.iter().enumerate() {
        let v = c as f64 + sample_laplace(rng, 2.0 / epsilon.get());
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// \[KV18\]-style ε-DP Gaussian σ estimate via a log-scale histogram over
/// the *assumed* `[sigma_min, sigma_max]` (assumption A2).
pub(crate) fn kv18_sigma<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    sigma_min: f64,
    sigma_max: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "kv18_sigma input")?;
    if !(sigma_min > 0.0 && sigma_max > sigma_min && sigma_max.is_finite()) {
        return Err(UpdpError::InvalidParameter {
            name: "sigma bounds",
            reason: format!("need 0 < sigma_min < sigma_max, got [{sigma_min}, {sigma_max}]"),
        });
    }
    // Pairwise differences: (X − X′)/√2 ~ N(0, σ²).
    let diffs: Vec<f64> = data
        .chunks_exact(2)
        .map(|p| (p[0] - p[1]) / std::f64::consts::SQRT_2)
        .collect();
    if diffs.is_empty() {
        return Err(UpdpError::InsufficientData {
            required: 2,
            actual: data.len(),
            context: "kv18_sigma pairing",
        });
    }
    let lo_bin = sigma_min.log2().floor() as i64 - 1;
    let hi_bin = sigma_max.log2().ceil() as i64 + 1;
    let nbins = (hi_bin - lo_bin + 1) as usize;
    let mut counts = vec![0usize; nbins];
    for &d in &diffs {
        let mag = d.abs().max(sigma_min / 4.0);
        let b = (mag.log2().floor() as i64).clamp(lo_bin, hi_bin);
        counts[(b - lo_bin) as usize] += 1;
    }
    let b = noisy_argmax(rng, &counts, epsilon);
    // |N(0, σ²)| concentrates in bins around log₂ σ; the argmax bin's
    // upper edge is a reliable ~2-approximation of σ.
    Ok(2f64
        .powi((lo_bin + b as i64 + 1) as i32)
        .clamp(sigma_min, sigma_max))
}

/// \[KV18\]-style ε-DP Gaussian mean under A1 (`μ ∈ [−r, r]`) given a
/// (possibly rough) σ estimate.
pub(crate) fn kv18_mean_given_sigma<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    r: f64,
    sigma: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    ensure_nonempty(data)?;
    ensure_finite(data, "kv18_mean input")?;
    if !(r.is_finite() && r > 0.0 && sigma.is_finite() && sigma > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "r/sigma",
            reason: "must be finite and positive".into(),
        });
    }
    let nbins_f = (2.0 * r / sigma).ceil() + 2.0;
    if nbins_f > MAX_BINS as f64 {
        return Err(UpdpError::InvalidParameter {
            name: "r/sigma",
            reason: format!("histogram would need {nbins_f} bins (> {MAX_BINS})"),
        });
    }
    let nbins = nbins_f as usize;
    let half = epsilon.scale(0.5);
    // Stage 1 (ε/2): coarse location by noisy-argmax histogram.
    let mut counts = vec![0usize; nbins];
    for &x in data {
        let b = (((x + r) / sigma).floor() as i64).clamp(0, nbins as i64 - 1) as usize;
        counts[b] += 1;
    }
    let b = noisy_argmax(rng, &counts, half);
    let center = -r + (b as f64 + 0.5) * sigma;
    // Stage 2 (ε/2): clipped Laplace mean around the located bin.
    let n = data.len() as f64;
    let halfwidth = sigma * (2.0 * (2.0 * n).ln()).sqrt() + 2.0 * sigma;
    let (lo, hi) = (center - halfwidth, center + halfwidth);
    let mean = clipped_mean(data, lo, hi)?;
    Ok(mean + sample_laplace(rng, (hi - lo) / (half.get() * n)))
}

/// Full \[KV18\] pipeline: σ from A2 bounds (ε/2), then the mean under A1
/// (ε/2). Requires A3 (Gaussian data) for its utility guarantee.
pub fn kv18_gaussian_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    r: f64,
    sigma_min: f64,
    sigma_max: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    let half = epsilon.scale(0.5);
    let sigma = kv18_sigma(rng, data, sigma_min, sigma_max, half)?;
    kv18_mean_given_sigma(rng, data, r, sigma, half)
}

/// \[KV18\]-style ε-DP Gaussian variance: log-histogram coarse estimate
/// (ε/2), then a clipped release of the paired second moment (ε/2).
pub fn kv18_gaussian_variance<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    sigma_min: f64,
    sigma_max: f64,
    epsilon: Epsilon,
) -> Result<f64> {
    let half = epsilon.scale(0.5);
    let sigma = kv18_sigma(rng, data, sigma_min, sigma_max, half)?;
    // Refine: Z = (X − X′)²/2 has mean σ²; clip to [0, c·σ̂²·log n].
    let z: Vec<f64> = data
        .chunks_exact(2)
        .map(|p| (p[0] - p[1]) * (p[0] - p[1]) / 2.0)
        .collect();
    let n = data.len() as f64;
    let cap = 4.0 * sigma * sigma * (2.0 * n).ln();
    let mean = clipped_mean(&z, 0.0, cap)?;
    Ok((mean + sample_laplace(rng, cap / (half.get() * z.len() as f64))).max(0.0))
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
    fn sigma_estimate_is_factor_two() {
        let g = Gaussian::new(0.0, 3.0).unwrap();
        let mut ok = 0;
        for seed in 0..50 {
            let mut rng = seeded(seed);
            let data = g.sample_vec(&mut rng, 10_000);
            let s = kv18_sigma(&mut rng, &data, 0.01, 1000.0, eps(1.0)).unwrap();
            if (1.0..=12.0).contains(&s) {
                ok += 1;
            }
        }
        assert!(ok >= 45, "sigma within factor ~4 only {ok}/50");
    }

    #[test]
    fn mean_accurate_under_assumptions() {
        let g = Gaussian::new(7.0, 2.0).unwrap();
        let mut rng = seeded(1);
        let data = g.sample_vec(&mut rng, 50_000);
        let m = kv18_gaussian_mean(&mut rng, &data, 100.0, 0.1, 100.0, eps(1.0)).unwrap();
        assert!((m - 7.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn mean_fails_when_a1_violated() {
        // μ = 500 outside [−100, 100]: histogram pins at the edge.
        let g = Gaussian::new(500.0, 1.0).unwrap();
        let mut rng = seeded(2);
        let data = g.sample_vec(&mut rng, 20_000);
        let m = kv18_gaussian_mean(&mut rng, &data, 100.0, 0.1, 100.0, eps(1.0)).unwrap();
        assert!((m - 500.0).abs() > 100.0, "should be badly biased, got {m}");
    }

    #[test]
    fn variance_accurate_under_assumptions() {
        let g = Gaussian::new(-3.0, 4.0).unwrap();
        let mut rng = seeded(3);
        let data = g.sample_vec(&mut rng, 50_000);
        let v = kv18_gaussian_variance(&mut rng, &data, 0.1, 1000.0, eps(1.0)).unwrap();
        assert!((v - 16.0).abs() / 16.0 < 0.3, "variance {v}");
    }

    #[test]
    fn variance_suffers_with_loose_bounds() {
        // σ = 1 but σ_min = 10: the clamp floors the estimate at 100ish.
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = seeded(4);
        let data = g.sample_vec(&mut rng, 20_000);
        let s = kv18_sigma(&mut rng, &data, 10.0, 1000.0, eps(1.0)).unwrap();
        assert!(s >= 10.0, "clamped sigma {s}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = seeded(5);
        let data = vec![0.0; 100];
        assert!(kv18_sigma(&mut rng, &data, 0.0, 1.0, eps(1.0)).is_err());
        assert!(kv18_sigma(&mut rng, &data, 2.0, 1.0, eps(1.0)).is_err());
        assert!(kv18_mean_given_sigma(&mut rng, &data, -1.0, 1.0, eps(1.0)).is_err());
        // R/σ too extreme for the histogram.
        assert!(kv18_mean_given_sigma(&mut rng, &data, 1e12, 1e-12, eps(1.0)).is_err());
    }
}
