//! Parameter-validation errors for distribution constructors.

use std::fmt;

/// Error constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError {
    /// Parameter name.
    pub name: &'static str,
    /// Violated constraint.
    pub reason: &'static str,
}

impl DistError {
    /// Convenience constructor.
    pub(crate) fn bad_param(name: &'static str, reason: &'static str) -> Self {
        DistError { name, reason }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid distribution parameter `{}`: {}",
            self.name, self.reason
        )
    }
}

impl std::error::Error for DistError {}

/// Result alias for distribution construction.
pub type Result<T> = std::result::Result<T, DistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameter() {
        let e = DistError::bad_param("sigma", "must be positive");
        assert!(e.to_string().contains("sigma"));
        assert!(e.to_string().contains("must be positive"));
    }
}
