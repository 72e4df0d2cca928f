//! Hand-rolled special functions.
//!
//! No external statistics crates are on the approved dependency list, so
//! the error function family, log-gamma, and the regularized incomplete
//! beta function are implemented here from primary sources:
//!
//! * `erf` — Maclaurin series for `|x| ≤ 2` (alternating, ≤ 2 digits of
//!   cancellation), complementary continued fraction (modified Lentz) for
//!   `|x| > 2`. Near machine precision across the range.
//! * `inverse_normal_cdf` — Acklam's rational approximation (relative
//!   error ≈ 1.15e−9) followed by one Halley refinement step against the
//!   exact CDF, giving ~1e−15 relative accuracy.
//! * `ln_gamma` — Lanczos approximation (g = 7, 9 coefficients).
//! * `regularized_incomplete_beta` — continued fraction per Numerical
//!   Recipes `betacf`, with the standard symmetry split; used by the
//!   Student-t CDF.
//!
//! Property tests in this module pin each function against published
//! reference values and internal identities (e.g. `erf(x) + erfc(x) = 1`,
//! `I_x(a,b) = 1 − I_{1−x}(b,a)`).

// Published approximation coefficients are quoted verbatim from their
// sources, beyond f64 precision where the source gives more digits.
#![allow(clippy::excessive_precision)]

/// √π, used by the error-function series.
const SQRT_PI: f64 = 1.772_453_850_905_516;

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{−t²} dt`.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax <= 2.0 {
        erf_series(x)
    } else {
        let tail = erfc_cf(ax);
        let v = 1.0 - tail;
        if x >= 0.0 {
            v
        } else {
            -v
        }
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Computed directly from the continued fraction for large `x` so that
/// tiny tail probabilities (down to ~1e−300) keep full relative accuracy.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 2.0 {
        erfc_cf(x)
    } else if x < -2.0 {
        2.0 - erfc_cf(-x)
    } else {
        1.0 - erf_series(x)
    }
}

/// Maclaurin series for erf, accurate for `|x| ≤ 2`.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    // term_{n+1} = term_n · (−x²)·(2n+1) / ((n+1)(2n+3))
    for n in 0..120u32 {
        let nf = n as f64;
        term *= -x2 * (2.0 * nf + 1.0) / ((nf + 1.0) * (2.0 * nf + 3.0));
        let new = sum + term;
        // Exact equality is the convergence test: the series has
        // converged precisely when the next term no longer moves the
        // f64 partial sum. A tolerance would stop early and change the
        // released bits.
        #[allow(clippy::float_cmp)]
        if new == sum {
            break;
        }
        sum = new;
    }
    2.0 / SQRT_PI * sum
}

/// Continued fraction for erfc, valid for `x ≥ 2` (modified Lentz).
///
/// `erfc(x) = e^{−x²}/√π · 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …))))`
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x >= 2.0);
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-16;
    let mut f = x;
    let mut c = x;
    let mut d = 0.0f64;
    for i in 1..200u32 {
        let a = i as f64 / 2.0;
        // b = x for all levels in this CF layout.
        d = x + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = x + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (-x * x).exp() / SQRT_PI / f
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal density `φ(x)`.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse standard normal CDF `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation refined by one Halley step.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1), got {p}");
    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step: u = (Φ(x) − p)/φ(x);
    // x ← x − u / (1 + x·u/2).
    let e = normal_cdf(x) - p;
    let u = e / normal_pdf(x);
    x - u / (1.0 + x * u / 2.0)
}

/// Inverse error function `erf⁻¹(y)` for `y ∈ (−1, 1)`.
pub fn erf_inv(y: f64) -> f64 {
    assert!(y > -1.0 && y < 1.0, "erf_inv domain is (-1,1), got {y}");
    inverse_normal_cdf((y + 1.0) / 2.0) / std::f64::consts::SQRT_2
}

/// Natural log of the gamma function, Lanczos approximation (g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π/sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` for `x ∈ [0, 1]`,
/// `a, b > 0`. Continued fraction evaluation (Numerical Recipes `betacf`)
/// with the usual symmetry split for fast convergence.
pub fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1], got {x}");
    // Endpoint of the beta integral: I(0) = 0 holds exactly only at
    // x == 0.0, and ln(x) below needs x > 0.
    if x == 0.0 {
        return 0.0;
    }
    #[expect(
        clippy::float_cmp,
        reason = "endpoint of the beta integral: I(1) = 1 holds exactly only at x == 1.0, and ln(1-x) below needs x < 1"
    )]
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction kernel for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-15;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0f64;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300u32 {
        let mf = m as f64;
        let m2 = 2.0 * mf;
        // Even step.
        let aa = mf * (b - mf) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Double factorial `n!! = n·(n−2)·(n−4)⋯` with `0!! = (−1)!! = 1`.
pub fn double_factorial(n: i64) -> f64 {
    if n <= 0 {
        return 1.0;
    }
    let mut acc = 1.0f64;
    let mut k = n;
    while k > 0 {
        acc *= k as f64;
        k -= 2;
    }
    acc
}

/// `n!` as f64 (exact for `n ≤ 22`, then best f64 approximation).
pub fn factorial(n: u32) -> f64 {
    (1..=n).fold(1.0f64, |acc, k| acc * k as f64)
}

/// `C(n, k)` as f64.
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md �5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!(
            (a - b).abs() / scale < tol || (a - b).abs() < tol,
            "{a} != {b} (tol {tol})"
        );
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun / mpmath.
        assert_close(erf(0.0), 0.0, 1e-15);
        assert_close(erf(0.5), 0.5204998778130465, 1e-12);
        assert_close(erf(1.0), 0.8427007929497149, 1e-12);
        assert_close(erf(2.0), 0.9953222650189527, 1e-12);
        assert_close(erf(3.0), 0.9999779095030014, 1e-12);
        assert_close(erf(-1.0), -0.8427007929497149, 1e-12);
    }

    #[test]
    fn erfc_deep_tail_keeps_relative_accuracy() {
        // erfc(5) = 1.5374597944280349e-12; erfc(10) = 2.0884875837625448e-45
        assert_close(erfc(5.0), 1.5374597944280349e-12, 1e-10);
        assert_close(erfc(10.0), 2.0884875837625448e-45, 1e-10);
        assert_close(erfc(20.0), 5.3958656116079005e-176, 1e-9);
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in -60..=60 {
            let x = i as f64 / 10.0;
            assert_close(erf(x) + erfc(x), 1.0, 1e-13);
        }
    }

    #[test]
    fn erf_is_odd() {
        for i in 1..50 {
            let x = i as f64 / 7.0;
            assert_close(erf(-x), -erf(x), 1e-14);
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert_close(normal_cdf(0.0), 0.5, 1e-15);
        assert_close(normal_cdf(1.0), 0.8413447460685429, 1e-12);
        assert_close(normal_cdf(-1.96), 0.024997895148220435, 1e-10);
        assert_close(normal_cdf(3.0), 0.9986501019683699, 1e-12);
    }

    #[test]
    fn inverse_normal_cdf_round_trips() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = inverse_normal_cdf(p);
            assert_close(normal_cdf(x), p, 1e-12);
        }
    }

    #[test]
    fn inverse_normal_cdf_extreme_tails() {
        for p in [1e-10, 1e-8, 1e-4, 1.0 - 1e-4, 1.0 - 1e-8] {
            let x = inverse_normal_cdf(p);
            assert_close(normal_cdf(x), p, 1e-9);
        }
    }

    #[test]
    fn erf_inv_round_trips() {
        for i in -9..=9 {
            let y = i as f64 / 10.0;
            if y.abs() < 1e-12 {
                continue;
            }
            assert_close(erf(erf_inv(y)), y, 1e-12);
        }
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-13);
        assert_close(ln_gamma(2.0), 0.0, 1e-13);
        assert_close(ln_gamma(0.5), 0.5723649429247001, 1e-12); // ln √π
        assert_close(ln_gamma(5.0), 24.0f64.ln(), 1e-12);
        // Γ(10.5) = 9.5·8.5·…·0.5·√π ⇒ ln Γ(10.5) ≈ 13.94062521940376
        assert_close(ln_gamma(10.5), 13.940625219403763, 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln x + ln Γ(x)
        for i in 1..40 {
            let x = i as f64 / 3.0;
            assert_close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11);
        }
    }

    #[test]
    fn incomplete_beta_boundaries_and_symmetry() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (10.0, 2.0, 0.9)] {
            let lhs = regularized_incomplete_beta(a, b, x);
            let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
            assert_close(lhs, rhs, 1e-12);
        }
    }

    #[test]
    fn incomplete_beta_reference_values() {
        // I_x(1,1) = x; I_x(2,1) = x²; I_x(1,2) = 1−(1−x)² = 2x−x².
        for i in 1..10 {
            let x = i as f64 / 10.0;
            assert_close(regularized_incomplete_beta(1.0, 1.0, x), x, 1e-12);
            assert_close(regularized_incomplete_beta(2.0, 1.0, x), x * x, 1e-12);
            assert_close(
                regularized_incomplete_beta(1.0, 2.0, x),
                2.0 * x - x * x,
                1e-12,
            );
        }
        // mpmath: betainc(3, 5, 0, 0.4, regularized=True)
        assert_close(regularized_incomplete_beta(3.0, 5.0, 0.4), 0.580_096, 1e-5);
    }

    #[test]
    fn double_factorial_values() {
        assert_eq!(double_factorial(-1), 1.0);
        assert_eq!(double_factorial(0), 1.0);
        assert_eq!(double_factorial(1), 1.0);
        assert_eq!(double_factorial(5), 15.0);
        assert_eq!(double_factorial(6), 48.0);
        assert_eq!(double_factorial(7), 105.0);
    }

    #[test]
    fn factorial_and_binomial() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(5), 120.0);
        assert_eq!(binomial(10, 3), 120.0);
        assert_eq!(binomial(4, 0), 1.0);
        assert_eq!(binomial(3, 5), 0.0);
        assert_eq!(binomial(52, 5), 2_598_960.0);
    }
}
