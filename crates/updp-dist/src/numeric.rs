//! Numerical building blocks: root finding, minimization, quadrature.
//!
//! These power the default (numeric) implementations of the paper-specific
//! distribution functionals `ϕ(β)`, `θ(κ)`, and quantile inversion for
//! distributions whose CDF has no closed-form inverse (Student-t,
//! mixtures).

/// Finds a root of `f` in `[a, b]` by bisection with a secant
/// acceleration (regula falsi flavor), assuming `f(a)` and `f(b)` bracket
/// a sign change. Returns the midpoint of the final bracket.
pub(crate) fn bisect_root<F: Fn(f64) -> f64>(f: F, mut a: f64, mut b: f64, tol: f64) -> f64 {
    let mut fa = f(a);
    let fb = f(b);
    assert!(
        fa * fb <= 0.0,
        "root not bracketed: f({a}) = {fa}, f({b}) = {fb}"
    );
    // Exact-root fast path of bisection: f(a) == 0.0 means a IS the root;
    // near-zero values must keep bisecting toward tol.
    if fa == 0.0 {
        return a;
    }
    // Exact-root fast path of bisection: f(b) == 0.0 means b IS the root;
    // near-zero values must keep bisecting toward tol.
    if fb == 0.0 {
        return b;
    }
    for _ in 0..200 {
        let m = 0.5 * (a + b);
        let fm = f(m);
        // Exact-root fast path of bisection: f(m) == 0.0 means m IS the
        // root; near-zero values must keep bisecting toward tol.
        if fm == 0.0 || (b - a).abs() < tol {
            return m;
        }
        if fa * fm < 0.0 {
            b = m;
        } else {
            a = m;
            fa = fm;
        }
    }
    0.5 * (a + b)
}

/// Expands a bracket around `x0` until `f` changes sign, then bisects.
///
/// `f` must be monotone non-decreasing (true of the CDF-minus-p functions
/// this is used for). `scale0` seeds the expansion step.
pub(crate) fn monotone_root<F: Fn(f64) -> f64>(f: F, x0: f64, scale0: f64, tol: f64) -> f64 {
    let f0 = f(x0);
    // Exact-root fast path: f(x0) == 0.0 means x0 IS the root; near-zero
    // values must enter the bracket expansion.
    if f0 == 0.0 {
        return x0;
    }
    let mut step = scale0.abs().max(1e-12);
    // Expand in the direction that drives f toward zero.
    let dir = if f0 < 0.0 { 1.0 } else { -1.0 };
    let mut a = x0;
    let mut b = x0 + dir * step;
    for _ in 0..200 {
        let fb = f(b);
        if f0 * fb <= 0.0 {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            return bisect_root(&f, lo, hi, tol);
        }
        a = b;
        step *= 2.0;
        b = x0 + dir * step;
    }
    panic!("monotone_root failed to bracket a sign change from x0 = {x0}");
}

/// Golden-section minimization of a unimodal `f` over `[a, b]`.
pub(crate) fn golden_section_min<F: Fn(f64) -> f64>(f: F, mut a: f64, mut b: f64, tol: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..300 {
        if (b - a).abs() < tol {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    0.5 * (a + b)
}

/// Adaptive Simpson quadrature of `f` over `[a, b]` with absolute
/// tolerance `tol`.
pub(crate) fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    fn simpson<F: Fn(f64) -> f64>(f: &F, a: f64, m: f64, b: f64) -> f64 {
        (b - a) / 6.0 * (f(a) + 4.0 * f(m) + f(b))
    }
    fn recurse<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, whole: f64, tol: f64, depth: u32) -> f64 {
        let m = 0.5 * (a + b);
        let lm = 0.5 * (a + m);
        let rm = 0.5 * (m + b);
        let left = simpson(f, a, lm, m);
        let right = simpson(f, m, rm, b);
        let delta = left + right - whole;
        if depth == 0 || delta.abs() <= 15.0 * tol {
            left + right + delta / 15.0
        } else {
            recurse(f, a, m, left, tol / 2.0, depth - 1)
                + recurse(f, m, b, right, tol / 2.0, depth - 1)
        }
    }
    let m = 0.5 * (a + b);
    let whole = simpson(&f, a, m, b);
    recurse(&f, a, b, whole, tol, 50)
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect_root(|x| x * x - 2.0, 0.0, 2.0, 1e-12);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_handles_exact_endpoint() {
        assert_eq!(bisect_root(|x| x, 0.0, 1.0, 1e-12), 0.0);
    }

    #[test]
    fn monotone_root_expands_bracket() {
        // Root at 1000, starting far away with a tiny seed scale.
        let r = monotone_root(|x| x - 1000.0, 0.0, 0.5, 1e-9);
        assert!((r - 1000.0).abs() < 1e-6);
        // Root below the start.
        let r = monotone_root(|x| x + 77.0, 0.0, 1.0, 1e-9);
        assert!((r + 77.0).abs() < 1e-6);
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let m = golden_section_min(|x| (x - 3.5) * (x - 3.5), -10.0, 10.0, 1e-10);
        assert!((m - 3.5).abs() < 1e-7);
    }

    #[test]
    fn simpson_integrates_polynomial_exactly() {
        // Simpson is exact for cubics.
        let v = adaptive_simpson(|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 1e-12);
        assert!((v - 2.0).abs() < 1e-10); // ∫₀² = 4 − 4 + 2 = 2
    }

    #[test]
    fn simpson_integrates_gaussian_density() {
        let v = adaptive_simpson(
            |x| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt(),
            -10.0,
            10.0,
            1e-12,
        );
        assert!((v - 1.0).abs() < 1e-9, "got {v}");
    }
}
