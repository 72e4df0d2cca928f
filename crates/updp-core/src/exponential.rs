//! The Gumbel variates behind the exponential mechanism.
//!
//! Given candidates `y ∈ Y` with utility scores `u(D, y)` of sensitivity
//! `Δu`, the exponential mechanism samples `y` with probability
//! `∝ exp(ε·u(D,y) / (2Δu))` and satisfies ε-DP. The inverse sensitivity
//! mechanism (Section 2.5) instantiates it with `u = −len(Q, D, y)`; it
//! is the only instance in the workspace, so the mechanism itself lives
//! in `inverse_sensitivity` and this module keeps only its noise.
//!
//! Sampling is done with the Gumbel-max trick in log space, which is exact
//! (same distribution as normalized weights) and immune to `exp` overflow
//! or underflow even when scores span thousands of nats — which happens
//! routinely for quantile domains of width `2^40`. The inverse
//! sensitivity sampler streams its weighted segments through the
//! Gumbel-max, using `GUMBEL_MIN`, `GUMBEL_MAX` and `skip_gumbel`
//! to skip the `ln`s of segments that cannot win.

use rand::Rng;

/// Draws one standard Gumbel variate: `−ln(−ln U)` for `U ~ Uniform(0,1)`.
#[inline]
pub(crate) fn sample_gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            let e = -u.ln();
            if e > 0.0 {
                return -e.ln();
            }
        }
    }
}

/// A lower bound on every variate [`sample_gumbel`] returns.
///
/// Its uniform is a nonzero multiple of 2⁻⁵³ below 1, so `−ln U` is at
/// most `53·ln 2` and the variate is at least `−ln(53·ln 2) = −3.60378…`;
/// rounded outward. Pinned by `gumbel_bounds_cover_the_extreme_uniforms`.
pub(crate) const GUMBEL_MIN: f64 = -3.61;

/// An upper bound on every variate [`sample_gumbel`] returns: the largest
/// uniform, `1 − 2⁻⁵³`, gives `−ln(−ln(1 − 2⁻⁵³)) = 36.73680…`; rounded
/// outward.
pub(crate) const GUMBEL_MAX: f64 = 36.74;

/// Consumes exactly the uniforms [`sample_gumbel`] would, without
/// computing the variate — for a candidate whose score is already known
/// to lose the Gumbel-max.
///
/// Below `1 − 2⁻⁵²`, `−ln U` is a positive normal number, so
/// `sample_gumbel` accepts every nonzero `U` there on its first try; only
/// `U = 0` and the two uniforms at or above `1 − 2⁻⁵²` need its checks.
#[inline]
pub(crate) fn skip_gumbel<R: Rng + ?Sized>(rng: &mut R) {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && (u < 1.0 - f64::EPSILON || -u.ln() > 0.0) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::RngCore;

    /// Replays a fixed list of raw 64-bit outputs, then panics.
    struct Scripted(std::vec::IntoIter<u64>);

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }
        fn fill_bytes(&mut self, _dest: &mut [u8]) {
            unimplemented!()
        }
    }

    /// The raw output that `Rng::gen::<f64>` maps to `k · 2⁻⁵³`.
    fn raw(k: u64) -> u64 {
        k << 11
    }

    /// Every uniform at the two ends of the 53-bit grid, plus 0.
    fn extreme_uniforms() -> impl Iterator<Item = u64> {
        let top = (1u64 << 53) - 1;
        (0..=64).chain(top - 64..=top)
    }

    #[test]
    fn gumbel_bounds_cover_the_extreme_uniforms() {
        // The tightest variates sit at the ends of the grid; both lie
        // inside the outward-rounded bounds by a margin far above the
        // rounding error of a score sum.
        let lowest = sample_gumbel(&mut Scripted(vec![raw(1)].into_iter()));
        let highest = sample_gumbel(&mut Scripted(vec![raw((1 << 53) - 1)].into_iter()));
        assert!((lowest - -3.603_778_992_970_457).abs() < 1e-12, "{lowest}");
        assert!((highest - 36.736_800_569_677_1).abs() < 1e-12, "{highest}");
        for k in extreme_uniforms().filter(|&k| k > 0) {
            let g = sample_gumbel(&mut Scripted(vec![raw(k)].into_iter()));
            assert!((GUMBEL_MIN..=GUMBEL_MAX).contains(&g), "k = {k}: {g}");
        }
        assert!(GUMBEL_MIN < lowest - 1e-3 && GUMBEL_MAX > highest + 1e-3);
    }

    #[test]
    fn skip_gumbel_consumes_the_same_draws_as_sample_gumbel() {
        // Each scripted prefix ends at the first uniform sample_gumbel
        // accepts; skip_gumbel must stop at exactly the same place.
        let sentinel = 0xdead_beef;
        for k in extreme_uniforms() {
            for zeros in 0..3 {
                let mut script = vec![raw(0); zeros];
                script.push(raw(k));
                script.push(raw(1 << 52));
                script.push(sentinel);
                let mut a = Scripted(script.clone().into_iter());
                let mut b = Scripted(script.into_iter());
                sample_gumbel(&mut a);
                skip_gumbel(&mut b);
                assert_eq!(a.next_u64(), b.next_u64(), "k = {k}, zeros = {zeros}");
            }
        }
        let mut a = seeded(9);
        let mut b = seeded(9);
        for _ in 0..10_000 {
            sample_gumbel(&mut a);
            skip_gumbel(&mut b);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
