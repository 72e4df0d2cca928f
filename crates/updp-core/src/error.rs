//! Error taxonomy shared by every crate in the workspace.
//!
//! All fallible public APIs return [`Result`]. Errors distinguish between
//! *caller mistakes* (invalid parameters, non-finite inputs), *data
//! problems* (empty or too-small datasets — the paper's theorems all carry
//! a minimum-`n` requirement), and *mechanism-level failures* (e.g. the
//! propose-test-release baseline declining to answer).

use std::fmt;

/// Errors produced by the universal-private-estimator stack.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdpError {
    /// A dataset was empty where at least one element is required.
    EmptyDataset,
    /// The dataset is smaller than the minimum size required for the
    /// requested mechanism to offer its utility guarantee.
    InsufficientData {
        /// Minimum number of records required.
        required: usize,
        /// Number of records actually supplied.
        actual: usize,
        /// Which guarantee the requirement comes from.
        context: &'static str,
    },
    /// A caller-supplied parameter was out of range (e.g. `ε ≤ 0`,
    /// `β ∉ (0, 1)`, an empty domain, a negative bucket size).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An input value was NaN or infinite. DP mechanisms over the reals
    /// require finite inputs; NaN would silently poison sorting and sums.
    NonFiniteInput {
        /// Where the non-finite value was observed.
        context: &'static str,
    },
    /// A mechanism declined to produce an answer. Pure-DP mechanisms in
    /// this crate never fail this way; it exists for (ε,δ)-DP baselines
    /// such as propose-test-release (\[DL09\]) whose privacy argument
    /// *requires* a refusal branch.
    MechanismRefused {
        /// Which mechanism refused.
        mechanism: &'static str,
        /// Why it refused.
        reason: String,
    },
}

impl fmt::Display for UpdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdpError::EmptyDataset => write!(f, "dataset is empty"),
            UpdpError::InsufficientData {
                required,
                actual,
                context,
            } => write!(
                f,
                "dataset has {actual} records but {context} requires at least {required}"
            ),
            UpdpError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            UpdpError::NonFiniteInput { context } => {
                write!(f, "non-finite (NaN or infinite) input in {context}")
            }
            UpdpError::MechanismRefused { mechanism, reason } => {
                write!(f, "mechanism {mechanism} refused to answer: {reason}")
            }
        }
    }
}

impl std::error::Error for UpdpError {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, UpdpError>;

/// Validates that every element of `data` is finite, returning
/// [`UpdpError::NonFiniteInput`] otherwise.
pub fn ensure_finite(data: &[f64], context: &'static str) -> Result<()> {
    if data.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(UpdpError::NonFiniteInput { context })
    }
}

/// Validates the utility failure probability `β ∈ (0, 1)`, returning
/// [`UpdpError::InvalidParameter`] (never panicking) otherwise; NaN is
/// rejected.
pub fn ensure_beta(beta: f64) -> Result<()> {
    if beta > 0.0 && beta < 1.0 {
        Ok(())
    } else {
        Err(UpdpError::InvalidParameter {
            name: "beta",
            reason: format!("must be in (0,1), got {beta}"),
        })
    }
}

/// Validates that `data` is non-empty.
pub fn ensure_nonempty<T>(data: &[T]) -> Result<()> {
    if data.is_empty() {
        Err(UpdpError::EmptyDataset)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = UpdpError::InsufficientData {
            required: 100,
            actual: 3,
            context: "Theorem 3.3",
        };
        let msg = e.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains('3'));
        assert!(msg.contains("Theorem 3.3"));
    }

    #[test]
    fn ensure_finite_accepts_finite() {
        assert!(ensure_finite(&[0.0, -1.5, 1e300], "test").is_ok());
    }

    #[test]
    fn ensure_finite_rejects_nan() {
        let err = ensure_finite(&[0.0, f64::NAN], "ctx").unwrap_err();
        assert!(matches!(err, UpdpError::NonFiniteInput { context: "ctx" }));
    }

    #[test]
    fn ensure_finite_rejects_infinity() {
        assert!(ensure_finite(&[f64::INFINITY], "ctx").is_err());
        assert!(ensure_finite(&[f64::NEG_INFINITY], "ctx").is_err());
    }

    #[test]
    fn ensure_nonempty_works() {
        assert!(ensure_nonempty::<f64>(&[]).is_err());
        assert!(ensure_nonempty(&[1.0]).is_ok());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(UpdpError::EmptyDataset, UpdpError::EmptyDataset);
        assert_ne!(
            UpdpError::EmptyDataset,
            UpdpError::NonFiniteInput { context: "x" }
        );
    }
}
