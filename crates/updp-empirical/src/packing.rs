//! The packing lower-bound family of Theorem 3.4.
//!
//! Theorem 3.4 proves that for the empirical mean over `[N]ⁿ`, *any* ε-DP
//! mechanism suffers error `≥ γ(D)/(3εn)·log log₂(N)` on at least one of
//! the datasets `D(0), …, D(log₂ N)`, where `D(0)` is all zeros and
//! `D(i)` changes `log log₂(N)/ε` zeros to `2^i`. The existential
//! quantifier cannot be *verified* by running one mechanism, but the
//! family itself is constructive — this module builds it exactly as in
//! the proof, and the `packing` experiment measures our mechanism's error
//! profile across it, confirming the achieved optimality ratio grows as
//! `log log N` (the matching upper-bound side of Theorems 3.3 + 3.4).

use crate::dataset::SortedInts;
use updp_core::error::{Result, UpdpError};
use updp_core::privacy::Epsilon;

/// The packing family over domain `[N] = {0, …, 2^log2_n}`.
#[derive(Debug, Clone)]
pub struct PackingFamily {
    log2_n: u32,
    n: usize,
    moved: usize,
}

impl PackingFamily {
    /// Creates the family over `[2^log2_n]` with datasets of size `n`.
    ///
    /// `moved = ceil(log(log₂ N)/ε)` elements are moved in each `D(i)`,
    /// exactly as in the proof; requires `n > moved`.
    pub fn new(log2_n: u32, n: usize, epsilon: Epsilon) -> Result<Self> {
        if log2_n == 0 {
            return Err(UpdpError::InvalidParameter {
                name: "log2_n",
                reason: "domain must have at least two powers of two".into(),
            });
        }
        let moved = ((log2_n as f64).ln().max(1.0) / epsilon.get()).ceil() as usize;
        if n <= moved {
            return Err(UpdpError::InsufficientData {
                required: moved + 1,
                actual: n,
                context: "Theorem 3.4 packing construction",
            });
        }
        Ok(PackingFamily { log2_n, n, moved })
    }

    /// Number of datasets in the family: `log₂(N) + 1`.
    pub fn family_size(&self) -> usize {
        self.log2_n as usize + 1
    }

    /// Number of moved elements per non-zero dataset.
    pub fn moved(&self) -> usize {
        self.moved
    }

    /// Builds `D(i)`: all zeros for `i = 0`; otherwise `moved` copies of
    /// `2^i` among zeros.
    pub fn dataset(&self, i: u32) -> Result<SortedInts> {
        if i > self.log2_n {
            return Err(UpdpError::InvalidParameter {
                name: "i",
                reason: format!("family index must be ≤ {}", self.log2_n),
            });
        }
        let mut values = vec![0i64; self.n];
        if i > 0 {
            let v = 1i64
                .checked_shl(i)
                .filter(|_| i < 63)
                .ok_or(UpdpError::InvalidParameter {
                    name: "i",
                    reason: "2^i must fit in i64".into(),
                })?;
            for slot in values.iter_mut().take(self.moved) {
                *slot = v;
            }
        }
        SortedInts::new(values)
    }

    /// The true empirical mean of `D(i)` — Eq. (22) in the proof.
    pub fn true_mean(&self, i: u32) -> f64 {
        if i == 0 {
            0.0
        } else {
            (self.moved as f64) * 2f64.powi(i as i32) / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(PackingFamily::new(0, 100, eps(1.0)).is_err());
        assert!(PackingFamily::new(32, 1, eps(1.0)).is_err());
        assert!(PackingFamily::new(32, 1000, eps(1.0)).is_ok());
    }

    #[test]
    fn family_shape_matches_proof() {
        let f = PackingFamily::new(16, 500, eps(0.5)).unwrap();
        assert_eq!(f.family_size(), 17);
        // moved = ceil(ln(16)/0.5) = ceil(5.545) = 6.
        assert_eq!(f.moved(), 6);
        let d0 = f.dataset(0).unwrap();
        assert!(d0.values().iter().all(|&v| v == 0));
        let d3 = f.dataset(3).unwrap();
        assert_eq!(d3.values().iter().filter(|&&v| v == 8).count(), 6);
        assert_eq!(d3.values().iter().filter(|&&v| v == 0).count(), 494);
    }

    #[test]
    fn true_means_match_eq_22() {
        let f = PackingFamily::new(10, 1000, eps(1.0)).unwrap();
        let moved = f.moved() as f64;
        for i in 1..=10u32 {
            let expected = moved * 2f64.powi(i as i32) / 1000.0;
            assert!((f.true_mean(i) - expected).abs() < 1e-12);
            let d = f.dataset(i).unwrap();
            assert!((d.mean() - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_out_of_range_index() {
        let f = PackingFamily::new(8, 100, eps(1.0)).unwrap();
        assert!(f.dataset(9).is_err());
        assert!(f.dataset(8).is_ok());
    }
}
