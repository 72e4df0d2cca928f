//! \[DL09\] Dwork–Lei propose-test-release IQR ((ε, δ)-DP).
//!
//! The *only* prior universal estimator in Table 1 — but it fundamentally
//! requires `δ > 0`: propose-test-release privately checks whether the
//! sample IQR is *stable* (many records must change before `log(IQR)`
//! leaves its grid cell) and refuses to answer otherwise, and the test
//! itself leaks with probability δ.
//!
//! Following \[DL09\] §3 ("Scale"), the scale axis is discretized into
//! multiplicative grid cells of width `e^{1/ln n}` — finer grids give
//! better accuracy but fail the stability test more often. The released
//! value is the (deterministic) cell center, so the error is the cell
//! width: a **multiplicative `(1 ± O(1/ln n))`** error, i.e. additive
//! `α ∝ IQR/ln n`, with the ε-dependence entering through the stability
//! margin `ln(1/δ)/ε` that `n` must support. This is exactly the
//! `α ∝ 1/(ε log n)` convergence the paper contrasts with its own
//! `α ∝ 1/(εn)` (Section 1.1.4); the `iqr` experiment measures the gap.

use rand::Rng;
use updp_core::error::{ensure_finite, ensure_nonempty, Result, UpdpError};
use updp_core::laplace::sample_laplace;
use updp_core::privacy::{Delta, Epsilon};
use updp_empirical::view::ColumnView;

/// Outcome of the propose-test-release IQR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dl09Iqr {
    /// The released IQR estimate (the stable grid cell's center).
    pub estimate: f64,
    /// The grid cell width in log-space (`1/ln n`), for diagnostics.
    pub log_cell: f64,
    /// The (noisy) stability distance that passed the test.
    pub stability: f64,
}

/// Number of records that must change before `ln(IQR(D))` can leave
/// `[cell_lo, cell_hi]`: widen the quartile ranks outward one step at a
/// time and find the first step where the implied IQR crosses the cell.
fn stability_distance(sorted: &[f64], cell_lo: f64, cell_hi: f64) -> usize {
    let n = sorted.len();
    let q1 = n / 4;
    let q3 = 3 * n / 4;
    let at = |i: i64| -> f64 {
        let idx = i.clamp(1, n as i64) as usize - 1;
        sorted[idx]
    };
    // Changing s records can move X_{q1} down to X_{q1−s} and X_{q3} up
    // to X_{q3+s} (or inward symmetrically).
    for s in 0..n {
        let si = s as i64;
        let widest = at(q3 as i64 + si) - at(q1 as i64 - si);
        let narrowest = (at(q3 as i64 - si) - at(q1 as i64 + si)).max(0.0);
        let crosses = |v: f64| -> bool {
            if v <= 0.0 {
                return true;
            }
            let lv = v.ln();
            lv < cell_lo || lv > cell_hi
        };
        if crosses(widest) || crosses(narrowest) {
            return s;
        }
    }
    n
}

/// (ε, δ)-DP propose-test-release IQR (\[DL09\]).
///
/// Returns [`UpdpError::MechanismRefused`] when the stability test fails
/// (the designed-in refusal branch of PTR) and an error for degenerate
/// data whose IQR is zero.
pub fn dl09_iqr<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[f64],
    epsilon: Epsilon,
    delta: Delta,
) -> Result<Dl09Iqr> {
    dl09_iqr_view(rng, &ColumnView::bare(data), epsilon, delta)
}

/// [`dl09_iqr`] over a [`ColumnView`]: the `total_cmp`-sorted copy
/// comes from the view (cached by serving snapshots), everything else
/// is identical — bit-identical outputs for the same seed.
pub(crate) fn dl09_iqr_view<R: Rng + ?Sized>(
    rng: &mut R,
    view: &ColumnView<'_>,
    epsilon: Epsilon,
    delta: Delta,
) -> Result<Dl09Iqr> {
    let data = view.data();
    ensure_nonempty(data)?;
    ensure_finite(data, "dl09_iqr input")?;
    if delta.is_pure() {
        return Err(UpdpError::InvalidParameter {
            name: "delta",
            reason: "propose-test-release fundamentally requires δ > 0".into(),
        });
    }
    let n = data.len();
    if n < 16 {
        return Err(UpdpError::InsufficientData {
            required: 16,
            actual: n,
            context: "DL09 IQR",
        });
    }
    let sorted = view.sorted();
    let q1 = sorted[(n / 4).max(1) - 1];
    let q3 = sorted[(3 * n / 4).max(1) - 1];
    let iqr = q3 - q1;
    if iqr <= 0.0 {
        return Err(UpdpError::MechanismRefused {
            mechanism: "DL09",
            reason: "sample IQR is zero; log-scale grid undefined".into(),
        });
    }

    // Multiplicative grid of cell width 1/ln n in log space; test the two
    // shifted grids (offset 0 and 1/2 cell) and use the first that passes
    // — the standard trick guaranteeing some grid has the value mid-cell.
    let cell = 1.0 / (n as f64).ln();
    let threshold = (1.0 / delta.get()).ln() / epsilon.get();
    for offset in [0.0, 0.5] {
        let idx = (iqr.ln() / cell - offset).floor();
        let lo = (idx + offset) * cell;
        let hi = lo + cell;
        let d = stability_distance(&sorted[..], lo, hi);
        let noisy = d as f64 + sample_laplace(rng, 1.0 / epsilon.get());
        if noisy > threshold {
            return Ok(Dl09Iqr {
                estimate: ((lo + hi) / 2.0).exp(),
                log_cell: cell,
                stability: noisy,
            });
        }
    }
    Err(UpdpError::MechanismRefused {
        mechanism: "DL09",
        reason: format!("stability test failed on both grids (threshold {threshold:.1})"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use updp_core::rng::seeded;
    use updp_dist::{ContinuousDistribution, Gaussian};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn delta() -> Delta {
        Delta::new(1e-6).unwrap()
    }

    #[test]
    fn stability_distance_monotone_intuition() {
        // Tightly clustered quartile gaps ⇒ large stability distance for a
        // wide cell; a razor-thin cell fails immediately.
        let sorted: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let iqr: f64 = 500.0;
        let wide = stability_distance(&sorted, iqr.ln() - 0.5, iqr.ln() + 0.5);
        let thin = stability_distance(&sorted, iqr.ln() - 1e-6, iqr.ln() + 1e-6);
        assert!(wide > 50, "wide cell distance {wide}");
        assert!(thin < 5, "thin cell distance {thin}");
    }

    #[test]
    fn releases_on_large_well_behaved_samples() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut releases = 0;
        let mut rel_errs = Vec::new();
        for seed in 0..30 {
            let mut rng = seeded(seed);
            let data = g.sample_vec(&mut rng, 100_000);
            if let Ok(r) = dl09_iqr(&mut rng, &data, eps(1.0), delta()) {
                releases += 1;
                rel_errs.push((r.estimate - g.iqr()).abs() / g.iqr());
            }
        }
        assert!(releases >= 25, "released only {releases}/30");
        rel_errs.sort_by(f64::total_cmp);
        let med = rel_errs[rel_errs.len() / 2];
        // Cell width 1/ln(1e5) ≈ 0.087 ⇒ ~4–9% multiplicative error.
        assert!(med < 0.15, "median relative error {med}");
    }

    #[test]
    fn refuses_on_small_samples() {
        // n = 200: threshold ln(1e6)/ε ≈ 14, but rank slack is ~n/4·cell…
        // stability can't reach it reliably — refusals expected often.
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut refusals = 0;
        for seed in 0..30 {
            let mut rng = seeded(100 + seed);
            let data = g.sample_vec(&mut rng, 200);
            if dl09_iqr(&mut rng, &data, eps(0.2), delta()).is_err() {
                refusals += 1;
            }
        }
        assert!(
            refusals >= 10,
            "expected frequent refusals, got {refusals}/30"
        );
    }

    #[test]
    fn rejects_pure_dp_request() {
        let mut rng = seeded(1);
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let err = dl09_iqr(&mut rng, &data, eps(1.0), Delta::ZERO).unwrap_err();
        assert!(matches!(err, UpdpError::InvalidParameter { .. }));
    }

    #[test]
    fn refuses_degenerate_data() {
        let mut rng = seeded(2);
        let data = vec![5.0; 1000];
        let err = dl09_iqr(&mut rng, &data, eps(1.0), delta()).unwrap_err();
        assert!(matches!(err, UpdpError::MechanismRefused { .. }));
    }

    #[test]
    fn resolution_is_the_grid_cell_scaling_as_inverse_log_n() {
        // The released value is a grid-cell center: its guaranteed
        // resolution is the cell width 1/ln n (in log space), so the
        // estimate is within half a cell of the *sample* IQR and the cell
        // only shrinks logarithmically with n.
        let g = Gaussian::new(0.0, 1.0).unwrap();
        for (n, master) in [(25_000usize, 300u64), (100_000, 400)] {
            let mut rng = seeded(master);
            let data = g.sample_vec(&mut rng, n);
            let sample = {
                let mut s = data.clone();
                s.sort_by(f64::total_cmp);
                s[3 * n / 4 - 1] - s[n / 4 - 1]
            };
            let r = dl09_iqr(&mut rng, &data, eps(1.0), delta()).unwrap();
            let expected_cell = 1.0 / (n as f64).ln();
            assert!((r.log_cell - expected_cell).abs() < 1e-12);
            // Cell-center release: within one full cell of the sample IQR
            // in log space (half a cell for the grid that passed).
            let log_err = (r.estimate.ln() - sample.ln()).abs();
            assert!(
                log_err <= r.log_cell,
                "log error {log_err} > cell {}",
                r.log_cell
            );
        }
        // Quadrupling n shrinks the cell only by ln(25k)/ln(100k) ≈ 0.88.
        let ratio = (25_000f64).ln() / (100_000f64).ln();
        assert!(ratio > 0.85, "log-rate sanity");
    }
}
