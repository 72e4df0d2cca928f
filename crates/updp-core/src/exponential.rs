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
//! Gumbel-max, using `GUMBEL_MIN`, `GUMBEL_MAX` and `skip_gumbel` to
//! skip the `ln`s of segments that cannot win, and `gumbel_ceiling` to
//! drop a segment that loses from its uniform alone.

use rand::Rng;
use std::sync::LazyLock;

/// Draws one standard Gumbel variate: `−ln(−ln U)` for `U ~ Uniform(0,1)`.
///
/// The reference the streaming sampler's draws are checked against:
/// [`finish_gumbel`], [`skip_gumbel`] and the materializing oracle of
/// `inverse_sensitivity` must consume its uniforms and, where they
/// compute a variate, return its value.
#[cfg(test)]
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

/// Draws one standard Gumbel variate, `−ln(−ln U)`, whose first uniform
/// `u` the caller has already drawn: it rejects `u` when `U = 0` or
/// `−ln U` is not positive and then draws again, as `sample_gumbel`
/// does.
#[inline]
pub(crate) fn finish_gumbel<R: Rng + ?Sized>(mut u: f64, rng: &mut R) -> f64 {
    loop {
        if u > 0.0 {
            let e = -u.ln();
            if e > 0.0 {
                return -e.ln();
            }
        }
        u = rng.gen();
    }
}

/// A lower bound on every variate `sample_gumbel` returns.
///
/// Its uniform is a nonzero multiple of 2⁻⁵³ below 1, so `−ln U` is at
/// most `53·ln 2` and the variate is at least `−ln(53·ln 2) = −3.60378…`;
/// rounded outward. Pinned by `gumbel_bounds_cover_the_extreme_uniforms`.
pub(crate) const GUMBEL_MIN: f64 = -3.61;

/// An upper bound on every variate `sample_gumbel` returns: the largest
/// uniform, `1 − 2⁻⁵³`, gives `−ln(−ln(1 − 2⁻⁵³)) = 36.73680…`; rounded
/// outward.
pub(crate) const GUMBEL_MAX: f64 = 36.74;

/// Consumes exactly the uniforms `sample_gumbel` would, without
/// computing the variate — for a candidate whose score is already known
/// to lose the Gumbel-max.
///
/// Below `1 − 2⁻⁵²`, `−ln U` is a positive normal number, so
/// `sample_gumbel` accepts every nonzero `U` there on its first try; only
/// `U = 0` and the two uniforms at or above `1 − 2⁻⁵²` need its checks.
/// The check of those two sits in a cold helper: inline, the optimizer
/// hoists its side-effect-free `ln` above the `U < 1 − 2⁻⁵²` test and
/// pays for it on every draw.
#[inline]
pub(crate) fn skip_gumbel<R: Rng + ?Sized>(rng: &mut R) {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && (u < 1.0 - f64::EPSILON || top_uniform_accepted(u)) {
            return;
        }
    }
}

/// `sample_gumbel`'s acceptance test, `−ln U > 0`, for the uniforms
/// at or above `1 − 2⁻⁵²`.
#[cold]
#[inline(never)]
fn top_uniform_accepted(u: f64) -> bool {
    -u.ln() > 0.0
}

/// The buckets of [`gumbel_ceiling`]: the top 10 bits of the uniform.
pub(crate) const GUMBEL_BUCKETS: usize = 1024;

/// Entry `b` bounds every variate whose uniform lies in
/// `[b/1024, (b+1)/1024)`: `G(U) = −ln(−ln U)` increases with `U`, so
/// the bucket's top uniform `(b+1)/1024 − 2⁻⁵³` gives its largest
/// variate, rounded outward by 10⁻¹². The last entry is [`GUMBEL_MAX`].
/// Pinned by `gumbel_ceilings_cover_their_buckets`.
static GUMBEL_CEILINGS: LazyLock<[f64; GUMBEL_BUCKETS]> = LazyLock::new(|| {
    let mut table = [GUMBEL_MAX; GUMBEL_BUCKETS];
    for (b, ceiling) in table[..GUMBEL_BUCKETS - 1].iter_mut().enumerate() {
        let top = ((((b as u64 + 1) << 43) - 1) as f64) * (1.0 / (1u64 << 53) as f64);
        *ceiling = -(-top.ln()).ln() + 1e-12;
    }
    table
});

/// The variate-ceiling table of [`gumbel_ceiling`], read once per pass.
pub(crate) fn gumbel_ceilings() -> &'static [f64; GUMBEL_BUCKETS] {
    &GUMBEL_CEILINGS
}

/// An upper bound on the variate [`finish_gumbel`] returns from a first
/// uniform `u ∈ (0, 1 − 2⁻⁵²)`, read from the top 10 bits of `u`.
#[inline]
pub(crate) fn gumbel_ceiling(ceilings: &[f64; GUMBEL_BUCKETS], u: f64) -> f64 {
    ceilings[(u * GUMBEL_BUCKETS as f64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{raw_uniform as raw, seeded, Scripted};
    use rand::RngCore;

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

    #[test]
    fn finish_gumbel_continues_sample_gumbel() {
        // Same variate and same draws consumed, whatever the first
        // uniform, including the rejected U = 0.
        let sentinel = 0xdead_beef;
        for k in extreme_uniforms() {
            let script = vec![raw(k), raw(0), raw(3), sentinel];
            let mut a = Scripted(script.clone().into_iter());
            let mut b = Scripted(script.into_iter());
            let first = b.gen::<f64>();
            let (x, y) = (sample_gumbel(&mut a), finish_gumbel(first, &mut b));
            assert_eq!(x.to_bits(), y.to_bits(), "k = {k}");
            assert_eq!(a.next_u64(), b.next_u64(), "k = {k}");
        }
    }

    #[test]
    fn gumbel_ceilings_cover_their_buckets() {
        // Each bucket's first, second, second-to-last and last uniform:
        // the ceiling read from the top 10 bits bounds the variate, and
        // stays within 10⁻⁹ of it at the bucket's top.
        let ceilings = gumbel_ceilings();
        assert_eq!(ceilings[GUMBEL_BUCKETS - 1].to_bits(), GUMBEL_MAX.to_bits());
        assert!(ceilings.windows(2).all(|w| w[0] < w[1]));
        for b in 0..GUMBEL_BUCKETS as u64 {
            let top = ((b + 1) << 43) - 1;
            for k in [b << 43, (b << 43) + 1, top - 1, top] {
                let u = Scripted(vec![raw(k)].into_iter()).gen::<f64>();
                let ceiling = gumbel_ceiling(ceilings, u);
                assert_eq!(ceiling.to_bits(), ceilings[b as usize].to_bits(), "k = {k}");
                if k == 0 {
                    continue;
                }
                let g = sample_gumbel(&mut Scripted(vec![raw(k)].into_iter()));
                assert!(g <= ceiling, "k = {k}: {g} > {ceiling}");
                if k == top && b + 1 < GUMBEL_BUCKETS as u64 {
                    assert!(ceiling - g < 1e-9, "k = {k}: {ceiling} vs {g}");
                }
            }
        }
    }
}
