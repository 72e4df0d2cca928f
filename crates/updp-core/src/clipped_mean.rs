//! The clipped mean estimator (Section 2.6).
//!
//! `ClippedMean(D, [l, r]) = μ(Clip(D, [l, r]))` has global sensitivity
//! `(r − l)/n`, so adding `Lap((r−l)/(εn))` gives an ε-DP release. All the
//! paper's mean estimators reduce to this once a privatized range has been
//! found; the art is entirely in choosing `[l, r]`.

use crate::error::{ensure_nonempty, Result, UpdpError};

/// Clips a single value into `[lo, hi]`.
#[inline]
pub fn clip(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    x.clamp(lo, hi)
}

/// Clips a single integer value into `[lo, hi]`.
#[inline]
pub(crate) fn clip_i64(x: i64, lo: i64, hi: i64) -> i64 {
    debug_assert!(lo <= hi);
    x.clamp(lo, hi)
}

/// Fixed chunk width of [`clipped_sum_i64`]'s `i64` partial sums
/// (DESIGN.md §12). The width is a compile-time constant so the inner
/// loop has a known trip count the compiler unrolls and autovectorizes,
/// and it stays far below the overflow bound the partials need.
const KERNEL_CHUNK: usize = 64;

/// Exact clipped sum `Σ clamp(x, [lo, hi])` with `i128` accumulation.
///
/// Unlike the f64 streaming mean, integer addition is associative and
/// the clamp is elementwise, so this kernel may be freely re-chunked
/// without changing a single bit. When `max(|lo|, |hi|)` guarantees a
/// `KERNEL_CHUNK`-wide partial cannot overflow `i64`, chunks
/// accumulate in `i64` (which autovectorizes — `i128` adds do not) and
/// fold into the `i128` total; otherwise it falls back to the
/// historical per-element `i128` accumulation. Both paths are exact.
pub fn clipped_sum_i64(data: &[i64], lo: i64, hi: i64) -> i128 {
    debug_assert!(lo <= hi);
    let bound = lo.unsigned_abs().max(hi.unsigned_abs());
    if bound > i64::MAX as u64 / KERNEL_CHUNK as u64 {
        return data.iter().map(|&x| clip_i64(x, lo, hi) as i128).sum();
    }
    let mut total: i128 = 0;
    let mut chunks = data.chunks_exact(KERNEL_CHUNK);
    for chunk in &mut chunks {
        let mut part: i64 = 0;
        for &x in chunk {
            part += x.clamp(lo, hi);
        }
        total += part as i128;
    }
    let mut part: i64 = 0;
    for &x in chunks.remainder() {
        part += x.clamp(lo, hi);
    }
    total + part as i128
}

/// Integer-domain clipped mean, returned as `f64`.
pub fn clipped_mean_i64(data: &[i64], lo: i64, hi: i64) -> Result<f64> {
    ensure_nonempty(data)?;
    if lo > hi {
        return Err(UpdpError::InvalidParameter {
            name: "interval",
            reason: format!("lo ({lo}) must not exceed hi ({hi})"),
        });
    }
    let sum = clipped_sum_i64(data, lo, hi);
    Ok(sum as f64 / data.len() as f64)
}

/// The (non-private) clipped mean `μ(Clip(D, [lo, hi]))`: the first
/// half of [`clipped_mean_with_outside`].
///
/// Uses a numerically stable streaming mean; clipping bounds every term by
/// `max(|lo|, |hi|)` so no intermediate overflow is possible.
pub fn clipped_mean(data: &[f64], lo: f64, hi: f64) -> Result<f64> {
    Ok(clipped_mean_with_outside(data, lo, hi)?.0)
}

/// Fused single-pass clipped mean and the number of elements of `data`
/// strictly outside `[lo, hi]` (the clipping bias diagnostic of
/// Algorithms 8 and 9). NaN compares false on both sides, so NaNs are
/// not counted as outside.
///
/// One loop clamps each element, counts it if it lies outside and
/// folds it into the streaming mean `m += (c − m)/(i+1)`. That
/// recurrence is order-dependent and latency-bound (each step divides
/// by the running count and waits on the previous mean), so it is not
/// re-associated or chunked: the values are consumed in input order,
/// which fixes every released bit (DESIGN.md §12).
pub fn clipped_mean_with_outside(data: &[f64], lo: f64, hi: f64) -> Result<(f64, usize)> {
    ensure_nonempty(data)?;
    validate_interval(lo, hi)?;
    let mut mean = 0.0f64;
    let mut outside = 0usize;
    for (i, &x) in data.iter().enumerate() {
        outside += usize::from(x < lo) + usize::from(x > hi);
        mean += (x.clamp(lo, hi) - mean) / (i + 1) as f64;
    }
    Ok((mean, outside))
}

fn validate_interval(lo: f64, hi: f64) -> Result<()> {
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(UpdpError::NonFiniteInput {
            context: "clipping interval",
        });
    }
    if lo > hi {
        return Err(UpdpError::InvalidParameter {
            name: "interval",
            reason: format!("lo ({lo}) must not exceed hi ({hi})"),
        });
    }
    Ok(())
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn clip_basics() {
        assert_eq!(clip(5.0, 0.0, 10.0), 5.0);
        assert_eq!(clip(-5.0, 0.0, 10.0), 0.0);
        assert_eq!(clip(15.0, 0.0, 10.0), 10.0);
        assert_eq!(clip_i64(7, -3, 3), 3);
        assert_eq!(clip_i64(-7, -3, 3), -3);
    }

    #[test]
    fn clipped_mean_no_clipping_equals_mean() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let m = clipped_mean(&data, -100.0, 100.0).unwrap();
        assert!((m - 2.5).abs() < 1e-12);
    }

    #[test]
    fn clipped_mean_clips_outliers() {
        let data = [0.0, 0.0, 1e9];
        let m = clipped_mean(&data, 0.0, 1.0).unwrap();
        assert!((m - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clipped_mean_i64_matches_f64_version() {
        let data_i = [-10i64, 0, 5, 100];
        let data_f = [-10.0, 0.0, 5.0, 100.0];
        let mi = clipped_mean_i64(&data_i, -3, 50).unwrap();
        let mf = clipped_mean(&data_f, -3.0, 50.0).unwrap();
        assert!((mi - mf).abs() < 1e-12);
    }

    #[test]
    fn clipped_mean_i64_handles_extreme_values() {
        let data = [i64::MIN, i64::MAX, 0];
        let m = clipped_mean_i64(&data, i64::MIN, i64::MAX).unwrap();
        // MIN + MAX = −1, so mean = −1/3.
        assert!((m - (-1.0 / 3.0)).abs() < 1.0);
    }

    #[test]
    fn rejects_invalid_intervals_and_nan() {
        assert!(clipped_mean(&[1.0], 2.0, 1.0).is_err());
        assert!(clipped_mean(&[1.0], f64::NAN, 1.0).is_err());
        assert!(clipped_mean_i64(&[1], 2, 1).is_err());
        assert!(clipped_mean(&[], 0.0, 1.0).is_err());
    }

    #[test]
    fn count_outside_counts() {
        let data = [-5.0, 0.0, 5.0, 10.0, 15.0];
        assert_eq!(clipped_mean_with_outside(&data, 0.0, 10.0).unwrap().1, 2);
        assert_eq!(clipped_mean_with_outside(&data, -10.0, 20.0).unwrap().1, 0);
    }

    #[test]
    fn fused_pass_matches_separate_calls_bitwise() {
        let mut rng = seeded(4);
        use rand::Rng;
        let data: Vec<f64> = (0..1000)
            .map(|_| rng.gen::<f64>() * 200.0 - 100.0)
            .collect();
        for (lo, hi) in [(-100.0, 100.0), (-10.0, 10.0), (0.0, 0.0), (-1e-3, 1e9)] {
            let (mean, outside) = clipped_mean_with_outside(&data, lo, hi).unwrap();
            assert_eq!(
                mean.to_bits(),
                clipped_mean(&data, lo, hi).unwrap().to_bits()
            );
            let filtered = data.iter().filter(|&&x| x < lo || x > hi).count();
            assert_eq!(outside, filtered);
        }
        assert!(clipped_mean_with_outside(&[], 0.0, 1.0).is_err());
        assert!(clipped_mean_with_outside(&[1.0], 2.0, 1.0).is_err());
    }

    #[test]
    fn streaming_mean_is_stable_for_large_values() {
        let data = vec![1e15; 1000];
        let m = clipped_mean(&data, 0.0, 2e15).unwrap();
        assert!((m - 1e15).abs() / 1e15 < 1e-12);
    }

    /// Per-element reference implementations of the historical
    /// (pre-chunking) kernels — the chunked versions must match these
    /// bitwise on every input, including NaN.
    fn reference_mean_outside(data: &[f64], lo: f64, hi: f64) -> (f64, usize) {
        let mut mean = 0.0f64;
        let mut outside = 0usize;
        for (i, &x) in data.iter().enumerate() {
            if x < lo || x > hi {
                outside += 1;
            }
            mean += (clip(x, lo, hi) - mean) / (i + 1) as f64;
        }
        (mean, outside)
    }

    #[test]
    fn chunked_kernel_matches_reference_bitwise() {
        let mut rng = seeded(11);
        use rand::Rng;
        // Lengths straddling the chunk width exercise both the exact
        // chunks and the remainder loop.
        for n in [1usize, 63, 64, 65, 128, 130, 1000] {
            let mut data: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2e3 - 1e3).collect();
            if n > 4 {
                data[1] = f64::NAN;
                data[2] = f64::NEG_INFINITY;
                data[3] = -0.0;
                data[4] = f64::INFINITY;
            }
            for (lo, hi) in [(-500.0, 500.0), (0.0, 0.0), (-1e300, 1e300)] {
                let (rm, ro) = reference_mean_outside(&data, lo, hi);
                let (m, o) = clipped_mean_with_outside(&data, lo, hi).unwrap();
                assert_eq!(m.to_bits(), rm.to_bits(), "n={n} lo={lo} hi={hi}");
                assert_eq!(o, ro);
                assert_eq!(clipped_mean(&data, lo, hi).unwrap().to_bits(), rm.to_bits());
            }
        }
    }

    #[test]
    fn clipped_sum_matches_reference_on_both_paths() {
        let mut rng = seeded(12);
        use rand::Rng;
        for n in [0usize, 1, 64, 65, 200] {
            let data: Vec<i64> = (0..n).map(|_| rng.gen::<i64>()).collect();
            // Fast path: bounds small enough for i64 chunk partials.
            let (lo, hi) = (-1_000_000, 1_000_000);
            let want: i128 = data.iter().map(|&x| clip_i64(x, lo, hi) as i128).sum();
            assert_eq!(clipped_sum_i64(&data, lo, hi), want);
            // Fallback path: bounds too large for the chunked partials.
            let (lo, hi) = (i64::MIN, i64::MAX);
            let want: i128 = data.iter().map(|&x| x as i128).sum();
            assert_eq!(clipped_sum_i64(&data, lo, hi), want);
        }
    }

    #[test]
    fn clipped_sum_extreme_bounds_cannot_overflow() {
        let data = vec![i64::MAX; 300];
        let want = i64::MAX as i128 * 300;
        assert_eq!(clipped_sum_i64(&data, i64::MIN, i64::MAX), want);
        let data = vec![i64::MIN; 300];
        assert_eq!(
            clipped_sum_i64(&data, i64::MIN, i64::MAX),
            i64::MIN as i128 * 300
        );
    }
}
