//! Real-domain extensions via discretization — Section 3.5
//! (Theorems 3.6–3.9).
//!
//! To run the integer-domain estimators on `D ∈ Rⁿ`, discretize `R` with
//! bucket size `b`: `x ↦ round(x/b)`. This adds `b` of additive error to
//! every value estimate and a `1/b` factor inside every logarithm — the
//! precise accounting is Theorems 3.6–3.9. The statistical estimators of
//! Sections 4–6 choose `b` privately from the data (a lower bound on the
//! IQR), which is the whole trick that removes assumption A2.
//!
//! The map is total on finite data: bucket indices saturate at `±2⁶²`,
//! so when Algorithm 7 returns a tiny IQR̲ (allowed with probability β)
//! far records land on the bound and the estimate is merely bad, not an
//! error. Given the bucket — already private — saturation is a fixed
//! per-record map: neighbouring datasets stay neighbouring, every
//! downstream mechanism keeps its ε, and the integer layer is
//! overflow-safe at `±2⁶²` (`i128` widths, saturating recentering).

use crate::dataset::SortedInts;
use crate::mean::{infinite_domain_mean, EmpiricalMeanResult};
use crate::quantile::infinite_domain_quantile;
use crate::radius::infinite_domain_radius;
use crate::range::infinite_domain_range;
use rand::Rng;
use updp_core::error::{ensure_beta, Result, UpdpError};
use updp_core::parallel::{par_fill, threads_for};
use updp_core::privacy::Epsilon;

/// A real ↔ integer bucket mapping with bucket size `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discretizer {
    bucket: f64,
}

impl Discretizer {
    /// Creates a discretizer; `bucket` must be finite and positive.
    pub fn new(bucket: f64) -> Result<Self> {
        if !(bucket.is_finite() && bucket > 0.0) {
            return Err(UpdpError::InvalidParameter {
                name: "bucket",
                reason: format!("must be finite and positive, got {bucket}"),
            });
        }
        Ok(Discretizer { bucket })
    }

    /// The bucket size `b`.
    pub fn bucket(&self) -> f64 {
        self.bucket
    }

    /// Maps a real value to its bucket index `round(x/b)`, saturated at
    /// `±2⁶²` so that a tiny private bucket cannot fail the estimate
    /// (ε-DP argument in the module docs). Non-finite `x` has no bucket
    /// (`±∞` saturates, NaN maps to 0): callers reject such columns,
    /// as [`Discretizer::discretize`] does.
    pub fn to_int(&self, x: f64) -> i64 {
        let limit = 2f64.powi(62);
        (x / self.bucket).round().clamp(-limit, limit) as i64
    }

    /// Maps a bucket index back to the real bucket center.
    pub fn to_real(&self, i: i64) -> f64 {
        i as f64 * self.bucket
    }

    /// Discretizes a whole real dataset into a sorted integer dataset:
    /// [`UpdpError::EmptyDataset`] for no records, else
    /// [`UpdpError::NonFiniteInput`] if any is NaN or infinite, found
    /// in the same pass over `data` as the map. From
    /// [`PAR_MIN_LEN`](updp_core::parallel::PAR_MIN_LEN) records up the
    /// map runs on [`updp_core::parallel::max_threads`] threads.
    pub fn discretize(&self, data: &[f64]) -> Result<SortedInts> {
        self.discretize_threads(data, threads_for(data.len()))
    }

    /// [`Discretizer::discretize`] with the map in `threads` contiguous
    /// parts, each with its own finiteness flag (1 ⇒ no thread starts);
    /// the grid or error is the same at any count.
    pub(crate) fn discretize_threads(&self, data: &[f64], threads: usize) -> Result<SortedInts> {
        let mut ints = vec![0; data.len()];
        let finite = par_fill(threads, &mut ints, data, |ints, data| {
            let mut finite = true;
            for (int, &x) in ints.iter_mut().zip(data) {
                finite &= x.is_finite();
                *int = self.to_int(x);
            }
            finite
        });
        if finite.contains(&false) {
            return Err(UpdpError::NonFiniteInput {
                context: "discretization input",
            });
        }
        SortedInts::new(ints)
    }
}

/// A privatized real range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealRange {
    /// Lower end.
    pub lo: f64,
    /// Upper end.
    pub hi: f64,
}

impl RealRange {
    /// Width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Theorem 3.6: ε-DP radius of real data with bucket size `b`.
/// `r̃ad ≤ 2·rad(D) + 3b` while covering all but
/// `O((1/ε)·log(log(rad/b)/β))` elements.
pub fn real_radius<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    bucket: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    ensure_beta(beta)?;
    let disc = Discretizer::new(bucket)?;
    let ints = disc.discretize(data)?;
    let rad = infinite_domain_radius(rng, &ints, epsilon, beta)?;
    // Integer radius r covers buckets [−r, r]; bucket r has real extent
    // (r + 1/2)·b.
    Ok((rad as f64 + 0.5) * bucket)
}

/// Theorem 3.7: ε-DP range of real data with bucket size `b`.
/// `|R̃| ≤ 4γ(D) + 6b` and `O((1/ε)·log(log(γ/b)/β))` clipped.
pub fn real_range<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    bucket: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<RealRange> {
    let disc = Discretizer::new(bucket)?;
    let ints = disc.discretize(data)?;
    let r = infinite_domain_range(rng, &ints, epsilon, beta)?;
    Ok(RealRange {
        lo: disc.to_real(r.lo) - bucket / 2.0,
        hi: disc.to_real(r.hi) + bucket / 2.0,
    })
}

/// Theorem 3.8: ε-DP empirical mean of real data with bucket size `b`.
/// Error `O(((γ(D)+b)/(εn))·log(log(γ/b)/β)) + b`.
pub fn real_mean<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    bucket: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    let disc = Discretizer::new(bucket)?;
    let ints = disc.discretize(data)?;
    let EmpiricalMeanResult { estimate, .. } = infinite_domain_mean(rng, &ints, epsilon, beta)?;
    Ok(estimate * bucket)
}

/// Theorem 3.9: ε-DP τ-th order statistic of real data with bucket `b`.
/// Rank error `O((1/ε)·log(γ/(bβ)))` plus `b` of value error.
pub fn real_quantile<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    tau: usize,
    bucket: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    real_quantile_view(
        rng,
        &crate::view::ColumnView::bare(data),
        tau,
        bucket,
        epsilon,
        beta,
    )
}

/// [`real_quantile`] over a [`crate::view::ColumnView`]: the sorted
/// integer grid comes from the view, so a cached view pays the
/// `O(n log n)` discretize-and-sort once per `(data, bucket)` instead
/// of once per call. Bit-identical to [`real_quantile`] — the grid is
/// a pure function of the inputs and building it consumes no
/// randomness.
pub fn real_quantile_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &crate::view::ColumnView<'_>,
    tau: usize,
    bucket: f64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<f64> {
    let disc = Discretizer::new(bucket)?;
    let ints = view.grid(bucket)?;
    let q = infinite_domain_quantile(rng, &ints, tau, epsilon, beta)?;
    Ok(disc.to_real(q.estimate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn discretizer_round_trips_within_half_bucket() {
        let d = Discretizer::new(0.25).unwrap();
        for i in -100..100 {
            let x = i as f64 * 0.1379;
            let back = d.to_real(d.to_int(x));
            assert!((back - x).abs() <= 0.125 + 1e-12, "x = {x}, back = {back}");
        }
    }

    #[test]
    fn discretizer_validates() {
        assert!(Discretizer::new(0.0).is_err());
        assert!(Discretizer::new(-1.0).is_err());
        assert!(Discretizer::new(f64::NAN).is_err());
        // Non-finite columns have no grid: the column check reports them.
        let d = Discretizer::new(1.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for column in [[bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad]] {
                assert!(
                    matches!(
                        d.discretize(&column),
                        Err(UpdpError::NonFiniteInput {
                            context: "discretization input"
                        })
                    ),
                    "{column:?}"
                );
            }
        }
        assert_eq!(d.discretize(&[]).unwrap_err(), UpdpError::EmptyDataset);
    }

    #[test]
    fn thread_counts_give_the_same_grid_or_error() {
        // Past the threshold, with a NaN first, last and on the
        // boundary of the two parts.
        let n = updp_core::parallel::PAR_MIN_LEN + 1;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let d = Discretizer::new(0.01).unwrap();
        let grid = d.discretize_threads(&data, 1).unwrap();
        assert_eq!(d.discretize_threads(&data, 2).unwrap(), grid);
        assert_eq!(d.discretize(&data).unwrap(), grid);
        for at in [0, n - 1, n.div_ceil(2) - 1, n.div_ceil(2)] {
            let mut bad = data.clone();
            bad[at] = f64::NAN;
            for threads in [1, 2] {
                assert_eq!(
                    d.discretize_threads(&bad, threads),
                    Err(UpdpError::NonFiniteInput {
                        context: "discretization input"
                    }),
                    "at = {at}, threads = {threads}"
                );
            }
        }
        for threads in [1, 2] {
            assert_eq!(
                d.discretize_threads(&[], threads),
                Err(UpdpError::EmptyDataset)
            );
        }
    }

    #[test]
    fn far_values_saturate_at_the_index_bound() {
        let limit = 1i64 << 62;
        let d = Discretizer::new(1e-300).unwrap();
        assert_eq!(d.to_int(1e10), limit);
        assert_eq!(d.to_int(-1e10), -limit);
        assert_eq!(d.to_int(f64::MAX), limit);
        // In-range indices are untouched, up to the bound itself.
        assert_eq!(d.to_int(3e-300), 3);
        assert_eq!(Discretizer::new(1.0).unwrap().to_int(2f64.powi(62)), limit);
        let grid = d.discretize(&[1e10, -1e10, 0.0]).unwrap();
        assert_eq!(grid.values(), &[-limit, 0, limit]);
    }

    #[test]
    fn real_mean_recovers_cluster() {
        let data: Vec<f64> = (0..4000)
            .map(|i| 3.5 + 0.001 * ((i % 100) as f64 - 50.0))
            .collect();
        let mut rng = seeded(1);
        let m = real_mean(&mut rng, &data, 0.01, eps(1.0), 0.1).unwrap();
        assert!((m - 3.5).abs() < 0.1, "mean estimate {m}");
    }

    #[test]
    fn real_quantile_recovers_median() {
        let data: Vec<f64> = (0..3001).map(|i| (i as f64) / 1000.0).collect(); // [0, 3]
        let mut rng = seeded(2);
        let q = real_quantile(&mut rng, &data, 1500, 0.001, eps(1.0), 0.1).unwrap();
        assert!((q - 1.5).abs() < 0.2, "median estimate {q}");
    }

    #[test]
    fn real_range_covers_bulk() {
        let data: Vec<f64> = (0..3000).map(|i| -7.0 + (i % 100) as f64 * 0.01).collect();
        let mut rng = seeded(3);
        let r = real_range(&mut rng, &data, 0.01, eps(1.0), 0.1).unwrap();
        assert!(r.lo < -6.9 && r.hi > -6.2, "range {r:?}");
        // 4γ + 6b bound with slack.
        assert!(r.width() < 10.0 * (1.0 + 0.06), "width {}", r.width());
    }

    #[test]
    fn real_radius_scales_with_bucket() {
        let data = vec![100.0f64; 2000];
        let mut rng = seeded(4);
        let rad = real_radius(&mut rng, &data, 1.0, eps(1.0), 0.1).unwrap();
        assert!((99.0..=210.0).contains(&rad), "radius {rad}");
    }

    #[test]
    fn coarse_bucket_still_centers_correctly() {
        // Bucket far wider than the data spread: everything lands in one
        // bucket, estimate = bucket center.
        let data = vec![41.9f64; 1000];
        let mut rng = seeded(5);
        let m = real_mean(&mut rng, &data, 10.0, eps(1.0), 0.1).unwrap();
        assert!((m - 40.0).abs() < 15.0, "estimate {m}");
    }
}
