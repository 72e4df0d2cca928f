//! The clip-free domain reduction of Algorithms 4 and 6, pinned
//! property-style against the reference that materializes every step:
//! `infinite_domain_range` and `infinite_domain_quantile` hand the
//! unclipped data to `finite_domain_quantile` (which clamps each value
//! itself) and count the recentered radius on the unshifted data. Both
//! must release the same value and leave the RNG in the same state as
//! clipping into `[−r̃ad, r̃ad]` / `R̃(D)` and shifting by `X̃` first —
//! including data at the `i64` bounds, where the shift saturates and
//! the SVT reaches the 2⁶³ and `u64::MAX` query radii.

use proptest::prelude::*;
use rand::Rng;
use updp_core::inverse_sensitivity::finite_domain_quantile;
use updp_core::privacy::Epsilon;
use updp_core::rng::seeded;
use updp_empirical::{
    infinite_domain_quantile, infinite_domain_radius, infinite_domain_range, IntRange,
    QuantileResult, SortedInts,
};

fn map_sorted(data: &SortedInts, f: impl Fn(i64) -> i64) -> SortedInts {
    SortedInts::from_sorted(data.values().iter().map(|&v| f(v)).collect()).unwrap()
}

/// Algorithm 4 with the clipped and recentered copies built explicitly.
fn reference_range<R: Rng>(
    rng: &mut R,
    data: &SortedInts,
    epsilon: Epsilon,
    beta: f64,
) -> IntRange {
    let to_i64 = |rad: u64| i64::try_from(rad).unwrap_or(i64::MAX);
    let rad_i =
        to_i64(infinite_domain_radius(rng, data, epsilon.scale(1.0 / 8.0), beta / 3.0).unwrap());
    let clipped = map_sorted(data, |v| v.clamp(-rad_i, rad_i));
    let median = finite_domain_quantile(
        rng,
        clipped.values(),
        data.len().div_ceil(2),
        -rad_i,
        rad_i,
        epsilon.scale(1.0 / 8.0),
        beta / 3.0,
    )
    .unwrap();
    let recentered = map_sorted(data, |v| v.saturating_sub(median));
    let rad2_i = to_i64(
        infinite_domain_radius(rng, &recentered, epsilon.scale(3.0 / 4.0), beta / 3.0).unwrap(),
    );
    IntRange {
        lo: median.saturating_sub(rad2_i),
        hi: median.saturating_add(rad2_i),
    }
}

/// Algorithm 6 with the clipped copy built explicitly.
fn reference_quantile<R: Rng>(
    rng: &mut R,
    data: &SortedInts,
    tau: usize,
    epsilon: Epsilon,
    beta: f64,
) -> QuantileResult {
    let range = reference_range(rng, data, epsilon.scale(4.0 / 5.0), beta / 2.0);
    let clipped = map_sorted(data, |v| v.clamp(range.lo, range.hi));
    let estimate = finite_domain_quantile(
        rng,
        clipped.values(),
        tau,
        range.lo,
        range.hi,
        epsilon.scale(1.0 / 5.0),
        beta / 2.0,
    )
    .unwrap();
    QuantileResult { estimate, range }
}

/// A dataset from one seed: a cluster anywhere on the line, clusters
/// hugging `i64::MAX` or `i64::MIN` (medians near the bounds, saturating
/// shifts), a cluster plus both `i64` extremes (the SVT runs to the 2⁶³
/// and `u64::MAX` radii), or heavy duplicates.
fn dataset(seed: u64, n: usize, shape: u8) -> SortedInts {
    let mut g = seeded(seed);
    let center: i64 = g.gen_range(-1_000_000..1_000_000);
    let width: i64 = [0, 1, 50, 100_000][g.gen_range(0..4)];
    let values = (0..n)
        .map(|_| {
            let jitter = g.gen_range(0..width + 1);
            match shape {
                0 => center + jitter,
                1 => i64::MAX - jitter,
                2 => i64::MIN + jitter,
                3 => [i64::MIN, i64::MAX, center + jitter][g.gen_range(0..3)],
                _ => [center, center + width][g.gen_range(0..2)],
            }
        })
        .collect();
    SortedInts::new(values).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn range_matches_the_clip_and_shift_reference(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        shape in 0u8..5,
        log10_eps in -3.0f64..1.0,
        beta in 0.01f64..0.99,
    ) {
        let data = dataset(seed, n, shape);
        let e = Epsilon::new(10f64.powf(log10_eps)).unwrap();
        let mut a = seeded(seed ^ 1);
        let mut b = seeded(seed ^ 1);
        let got = infinite_domain_range(&mut a, &data, e, beta).unwrap();
        prop_assert_eq!(got, reference_range(&mut b, &data, e, beta));
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state diverged");
    }

    #[test]
    fn quantile_matches_the_clip_and_shift_reference(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        shape in 0u8..5,
        tau_frac in 0.0f64..1.0,
        log10_eps in -3.0f64..1.0,
        beta in 0.01f64..0.99,
    ) {
        let data = dataset(seed, n, shape);
        let tau = 1 + (tau_frac * n as f64) as usize;
        let e = Epsilon::new(10f64.powf(log10_eps)).unwrap();
        let mut a = seeded(seed ^ 2);
        let mut b = seeded(seed ^ 2);
        let got = infinite_domain_quantile(&mut a, &data, tau, e, beta).unwrap();
        prop_assert_eq!(got, reference_quantile(&mut b, &data, tau, e, beta));
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state diverged");
    }
}
