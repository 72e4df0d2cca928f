//! Privacy-parameter types and budget accounting.
//!
//! A mechanism `M : Xⁿ → Y` is (ε, δ)-DP if for all neighboring datasets
//! `D ~ D′` and measurable `S ⊆ Y`,
//! `Pr[M(D) ∈ S] ≤ e^ε · Pr[M(D′) ∈ S] + δ` (paper, Eq. (1)). The case
//! `δ = 0` is *pure* DP, written ε-DP — the regime this whole repository
//! targets.
//!
//! ε is represented by the validated newtype [`Epsilon`] so that "ε is
//! positive and finite" is checked exactly once, at the API boundary, and
//! every internal algorithm can rely on it. Budget splitting (basic
//! composition, Lemma 2.2) is expressed through [`Epsilon::scale`] and the
//! [`BudgetAccountant`].

use crate::error::{Result, UpdpError};

/// A validated pure-DP privacy parameter: finite and strictly positive.
///
/// The paper additionally assumes `ε < 1` for its *analysis* (the
/// high-privacy regime, §1), but the *algorithms* are well-defined for any
/// positive ε, so the type admits any finite positive value.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a new ε, validating `0 < ε < ∞`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 {
            Ok(Epsilon(value))
        } else {
            Err(UpdpError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be finite and positive, got {value}"),
            })
        }
    }

    /// Returns the raw ε value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns `factor · ε` as a new budget share.
    ///
    /// Panics in debug builds if `factor` is not in `(0, 1]`; budget
    /// *splitting* must never create more budget than it started with.
    #[inline]
    pub fn scale(self, factor: f64) -> Epsilon {
        debug_assert!(
            factor > 0.0 && factor <= 1.0,
            "budget scale factor must be in (0, 1], got {factor}"
        );
        Epsilon(self.0 * factor)
    }

    /// Splits the budget into shares proportional to `weights`.
    ///
    /// The shares sum exactly to `ε` (up to floating-point rounding), so
    /// running one mechanism per share and composing (Lemma 2.2) costs ε.
    pub fn split(self, weights: &[f64]) -> Vec<Epsilon> {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|&w| w > 0.0),
            "split weights must be positive"
        );
        weights
            .iter()
            .map(|&w| Epsilon(self.0 * w / total))
            .collect()
    }
}

/// A validated approximate-DP failure probability: `0 ≤ δ < 1`.
///
/// Pure DP is `Delta::ZERO`. Only the \[DL09\] baseline uses δ > 0.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Delta(f64);

impl Delta {
    /// δ = 0, i.e. pure DP.
    pub const ZERO: Delta = Delta(0.0);

    /// Creates a new δ, validating `0 ≤ δ < 1`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && (0.0..1.0).contains(&value) {
            Ok(Delta(value))
        } else {
            Err(UpdpError::InvalidParameter {
                name: "delta",
                reason: format!("must be in [0, 1), got {value}"),
            })
        }
    }

    /// Returns the raw δ value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Whether this is the pure-DP case δ = 0.
    #[inline]
    pub fn is_pure(self) -> bool {
        // Pure DP is exactly delta == 0.0; any positive delta, however
        // tiny, is approximate DP and must not pass this test.
        self.0 == 0.0
    }
}

/// A combined (ε, δ) privacy guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyGuarantee {
    /// The ε part of the guarantee.
    pub epsilon: Epsilon,
    /// The δ part; zero for pure DP.
    pub delta: Delta,
}

impl PrivacyGuarantee {
    /// A pure ε-DP guarantee.
    pub fn pure(epsilon: Epsilon) -> Self {
        PrivacyGuarantee {
            epsilon,
            delta: Delta::ZERO,
        }
    }

    /// Basic composition (Lemma 2.2): both ε and δ add.
    pub fn compose(self, other: PrivacyGuarantee) -> Self {
        PrivacyGuarantee {
            epsilon: Epsilon(self.epsilon.0 + other.epsilon.0),
            delta: Delta((self.delta.0 + other.delta.0).min(1.0 - f64::EPSILON)),
        }
    }
}

/// Absolute slack allowed when comparing accumulated ε spend against a
/// total budget: repeated splitting (e.g. ten shares of `total/10`)
/// need not sum to exactly `total` in floating point. Shared by
/// [`BudgetAccountant`] and the serving ledger (`updp-serve`) so the
/// overshoot rule has exactly one definition.
pub fn budget_tolerance(total: f64) -> f64 {
    1e-9 * total.max(1.0)
}

/// A simple sequential-composition budget accountant.
///
/// Mechanisms that make several sub-calls (e.g. `EstimateMean`, which runs
/// `EstimateIQRLowerBound`, a subsampled range finder, and one Laplace
/// release) use an accountant to assert — in tests and debug builds — that
/// their internal budget arithmetic adds up to the advertised total.
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    total: f64,
    spent: f64,
    log: Vec<(&'static str, f64)>,
}

impl BudgetAccountant {
    /// Creates an accountant with `total` ε of budget.
    pub fn new(total: Epsilon) -> Self {
        BudgetAccountant {
            total: total.get(),
            spent: 0.0,
            log: Vec::new(),
        }
    }

    /// Requests `share` of ε for a sub-mechanism labeled `label`.
    ///
    /// Returns the share back (for ergonomic chaining) or an error if it
    /// would exceed the remaining budget beyond floating-point tolerance.
    pub fn charge(&mut self, label: &'static str, share: Epsilon) -> Result<Epsilon> {
        let eps = share.get();
        if self.spent + eps > self.total + budget_tolerance(self.total) {
            return Err(UpdpError::BudgetExceeded {
                requested: eps,
                available: self.total - self.spent,
            });
        }
        self.spent += eps;
        self.log.push((label, eps));
        Ok(share)
    }

    /// ε spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// ε remaining.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// The itemized spend log: `(label, ε)` pairs in charge order.
    pub fn log(&self) -> &[(&'static str, f64)] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_rejects_bad_values() {
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(0.5).is_ok());
    }

    #[test]
    fn epsilon_scale_and_get() {
        let eps = Epsilon::new(1.0).unwrap();
        assert!((eps.scale(0.25).get() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn epsilon_split_sums_to_total() {
        let eps = Epsilon::new(0.8).unwrap();
        let parts = eps.split(&[1.0, 2.0, 5.0]);
        let sum: f64 = parts.iter().map(|e| e.get()).sum();
        assert!((sum - 0.8).abs() < 1e-12);
        assert!((parts[2].get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_validation() {
        assert!(Delta::new(0.0).is_ok());
        assert!(Delta::new(1e-9).is_ok());
        assert!(Delta::new(1.0).is_err());
        assert!(Delta::new(-0.1).is_err());
        assert!(Delta::ZERO.is_pure());
        assert!(!Delta::new(1e-6).unwrap().is_pure());
    }

    #[test]
    fn guarantee_composition_adds() {
        let a = PrivacyGuarantee::pure(Epsilon::new(0.3).unwrap());
        let b = PrivacyGuarantee {
            epsilon: Epsilon::new(0.2).unwrap(),
            delta: Delta::new(1e-8).unwrap(),
        };
        let c = a.compose(b);
        assert!((c.epsilon.get() - 0.5).abs() < 1e-15);
        assert!((c.delta.get() - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn accountant_tracks_and_rejects_overspend() {
        let total = Epsilon::new(1.0).unwrap();
        let mut acc = BudgetAccountant::new(total);
        acc.charge("stage-1", total.scale(0.5)).unwrap();
        acc.charge("stage-2", total.scale(0.5)).unwrap();
        assert!(acc.remaining() < 1e-9);
        let err = acc.charge("stage-3", total.scale(0.5)).unwrap_err();
        assert!(matches!(err, UpdpError::BudgetExceeded { .. }));
        assert_eq!(acc.log().len(), 2);
    }

    #[test]
    fn accountant_tolerates_float_rounding() {
        let total = Epsilon::new(1.0).unwrap();
        let mut acc = BudgetAccountant::new(total);
        // Ten shares of 0.1 may not sum to exactly 1.0 in floating point.
        for _ in 0..10 {
            acc.charge("share", total.scale(0.1)).unwrap();
        }
        assert!(acc.remaining() < 1e-9);
    }
}
