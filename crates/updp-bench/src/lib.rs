//! Shared helpers for the Criterion benchmarks, plus the committed
//! perf-baseline report schema ([`baseline`], written by the
//! `bench_baseline` binary into `BENCH_baseline.json`).

#![forbid(unsafe_code)]
// Library code returns values; output streams belong to binaries
// (DESIGN.md §9).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod baseline;

/// Re-export of the shared first-party JSON codec (promoted from this
/// crate's `baseline` module into `updp_core::json`).
pub use updp_core::json;

use rand::rngs::StdRng;
use rand::SeedableRng;
use updp_dist::{ContinuousDistribution, Gaussian, Pareto};

/// Deterministic bench RNG.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xBE7C)
}

/// Standard Gaussian sample of size `n` (fixed seed).
pub fn gaussian_data(n: usize) -> Vec<f64> {
    let mut rng = bench_rng();
    Gaussian::new(100.0, 5.0)
        .expect("valid parameters")
        .sample_vec(&mut rng, n)
}

/// Heavy-tailed Pareto sample of size `n` (fixed seed).
pub fn pareto_data(n: usize) -> Vec<f64> {
    let mut rng = bench_rng();
    Pareto::new(1.0, 2.5)
        .expect("valid parameters")
        .sample_vec(&mut rng, n)
}

/// Integer dataset spread over `[−range, range]`.
pub fn int_data(n: usize, range: i64) -> Vec<i64> {
    (0..n)
        .map(|i| -range + ((2 * range) as i128 * i as i128 / (n.max(2) - 1) as i128) as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gaussian_data(10), gaussian_data(10));
        assert_eq!(pareto_data(10), pareto_data(10));
        assert_eq!(int_data(5, 100), int_data(5, 100));
    }

    #[test]
    fn int_data_spans_range() {
        let d = int_data(101, 1000);
        assert_eq!(*d.first().unwrap(), -1000);
        assert_eq!(*d.last().unwrap(), 1000);
    }
}
