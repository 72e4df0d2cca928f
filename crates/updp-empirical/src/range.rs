//! `InfiniteDomainRange` — Algorithm 4 (Theorem 3.2).
//!
//! Finds a privatized range `R̃(D)` that is close to the true
//! `R(D) = [X₁, Xₙ]` in both *location* and *scale*:
//!
//! 1. `r̃ad(D)` ← `InfiniteDomainRadius(D, ε/8, β/3)`;
//! 2. clip `D` into `[−r̃ad, r̃ad]` and take a private median `X̃` via
//!    `FiniteDomainQuantile` (ε/8, β/3) — a rough *location*;
//! 3. recenter `D″ = D − X̃` and run the radius estimator again
//!    (3ε/4, β/3) — the *scale* around that location;
//! 4. return `[X̃ − r̃ad(D″), X̃ + r̃ad(D″)]`.
//!
//! Theorem 3.2: if `n > (c₁/ε)·log(rad(D)/β)` then with probability
//! ≥ 1 − β, `|R̃(D)| ≤ 4·γ(D)` and only `O((1/ε)·log(log(γ(D))/β))`
//! elements fall outside `R̃(D)`.

use crate::dataset::SortedInts;
use crate::radius::{infinite_domain_radius, infinite_domain_radius_about};
use rand::Rng;
use updp_core::error::{ensure_beta, Result};
use updp_core::inverse_sensitivity::finite_domain_quantile;
use updp_core::privacy::Epsilon;

/// A privatized integer range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntRange {
    /// Inclusive lower end.
    pub lo: i64,
    /// Inclusive upper end.
    pub hi: i64,
}

impl IntRange {
    /// Width `hi − lo` as `u64`.
    pub fn width(&self) -> u64 {
        (self.hi as i128 - self.lo as i128) as u64
    }

    /// Whether `v` lies inside the range.
    pub fn contains(&self, v: i64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// Converts a `u64` radius to a saturating `i64` bound.
fn radius_to_i64(rad: u64) -> i64 {
    i64::try_from(rad).unwrap_or(i64::MAX)
}

/// ε-DP estimate of `R(D)` (Algorithm 4). Satisfies ε-DP by basic
/// composition of the ε/8 + ε/8 + 3ε/4 stages.
pub fn infinite_domain_range<R: Rng + ?Sized>(
    rng: &mut R,
    data: &SortedInts,
    epsilon: Epsilon,
    beta: f64,
) -> Result<IntRange> {
    ensure_beta(beta)?;
    let n = data.len();

    // Stage 1: radius (ε/8, β/3).
    let rad = infinite_domain_radius(rng, data, epsilon.scale(1.0 / 8.0), beta / 3.0)?;
    let rad_i = radius_to_i64(rad);

    // Stage 2: rough location — private median of the data clipped to
    // the finite domain [−r̃ad, r̃ad] (ε/8, β/3); the sampler clips.
    let median = finite_domain_quantile(
        rng,
        data.values(),
        n.div_ceil(2),
        -rad_i,
        rad_i,
        epsilon.scale(1.0 / 8.0),
        beta / 3.0,
    )?;

    // Stage 3: scale around the location (3ε/4, β/3), i.e. the radius
    // of the recentered data D − X̃.
    let rad2 =
        infinite_domain_radius_about(rng, data, median, epsilon.scale(3.0 / 4.0), beta / 3.0);
    let rad2_i = radius_to_i64(rad2);

    Ok(IntRange {
        lo: median.saturating_sub(rad2_i),
        hi: median.saturating_add(rad2_i),
    })
}

/// The minimum `n` for Theorem 3.2's guarantee (with its universal
/// constant set to the smallest value our experiments confirm):
/// `n > (c₁/ε)·log(rad(D)/β)`.
pub fn range_required_n(epsilon: Epsilon, rad: u64, beta: f64, c1: f64) -> usize {
    let log_term = ((rad.max(1) as f64) / beta).ln().max(1.0);
    (c1 / epsilon.get() * log_term).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn int_range_helpers() {
        let r = IntRange { lo: -5, hi: 10 };
        assert_eq!(r.width(), 15);
        assert!(r.contains(0));
        assert!(r.contains(-5));
        assert!(r.contains(10));
        assert!(!r.contains(11));
        let extreme = IntRange {
            lo: i64::MIN,
            hi: i64::MAX,
        };
        assert_eq!(extreme.width(), u64::MAX);
    }

    #[test]
    fn width_at_most_four_gamma_far_from_origin() {
        // Cluster near 10^6 with width 100: the returned range must track
        // the cluster, not the distance to the origin.
        let values: Vec<i64> = (0..3000).map(|i| 1_000_000 + (i % 101)).collect();
        let d = SortedInts::new(values).unwrap();
        let gamma = d.width(); // 100
        let mut wide = 0;
        for seed in 0..100 {
            let mut rng = seeded(seed);
            let r = infinite_domain_range(&mut rng, &d, eps(1.0), 0.05).unwrap();
            if r.width() > 4 * gamma.max(1) {
                wide += 1;
            }
        }
        assert!(wide <= 10, "range wider than 4γ in {wide}/100 runs");
    }

    #[test]
    fn range_covers_most_points() {
        let values: Vec<i64> = (0..5000).map(|i| -250 + (i % 501)).collect();
        let d = SortedInts::new(values).unwrap();
        let mut failures = 0;
        for seed in 0..100 {
            let mut rng = seeded(100 + seed);
            let r = infinite_domain_range(&mut rng, &d, eps(1.0), 0.05).unwrap();
            let inside = d.count_in(r.lo, r.hi);
            let outside = d.len() - inside;
            // Theorem 3.2: O((1/ε)log(log γ /β)); generous constant.
            if outside > 200 {
                failures += 1;
            }
        }
        assert!(failures <= 10, "coverage failed {failures}/100");
    }

    #[test]
    fn location_tracks_shifted_clusters() {
        // All mass at −10^9 ± 50: location must go there.
        let values: Vec<i64> = (0..4000).map(|i| -1_000_000_000 + (i % 101) - 50).collect();
        let d = SortedInts::new(values).unwrap();
        let mut rng = seeded(3);
        let r = infinite_domain_range(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!(
            r.contains(-1_000_000_000),
            "range {r:?} misses the cluster center"
        );
    }

    #[test]
    fn handles_point_mass_at_zero() {
        let d = SortedInts::new(vec![0; 3000]).unwrap();
        let mut rng = seeded(4);
        let r = infinite_domain_range(&mut rng, &d, eps(1.0), 0.1).unwrap();
        assert!(r.contains(0));
        assert!(r.width() < 100, "degenerate data gave width {}", r.width());
    }

    #[test]
    fn required_n_grows_with_radius() {
        let e = eps(1.0);
        let n_small = range_required_n(e, 1 << 10, 0.1, 8.0);
        let n_large = range_required_n(e, 1 << 40, 0.1, 8.0);
        assert!(n_large > n_small);
        // Logarithmic growth: 4x the exponent ⇒ ~4x the requirement.
        assert!(n_large < 8 * n_small);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SortedInts::new((0..2000).map(|i| i * 3 - 1000).collect()).unwrap();
        let mut a = seeded(9);
        let mut b = seeded(9);
        assert_eq!(
            infinite_domain_range(&mut a, &d, eps(0.5), 0.1).unwrap(),
            infinite_domain_range(&mut b, &d, eps(0.5), 0.1).unwrap()
        );
    }
}
