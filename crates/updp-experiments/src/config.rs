//! Experiment configuration: trial counts, seeds, quick/full scaling.

/// Shared configuration for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Master seed; every trial derives a child seed from it.
    pub seed: u64,
    /// Trials per table cell.
    pub trials: usize,
    /// Quick mode shrinks sample sizes ~8x for smoke runs.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            seed: 0xDECA_FBAD,
            trials: 60,
            quick: false,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for CI smoke tests.
    pub fn quick() -> Self {
        ExpConfig {
            seed: 0xDECA_FBAD,
            trials: 12,
            quick: true,
        }
    }

    /// Scales a full-size sample count down in quick mode.
    pub fn n(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(64)
        } else {
            full
        }
    }

    /// A per-experiment master seed derived from the experiment id, so
    /// reordering experiments never changes any one experiment's output.
    pub(crate) fn master_for(&self, id: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^ self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shrinks_n() {
        let q = ExpConfig::quick();
        let f = ExpConfig::default();
        assert!(q.n(10_000) < f.n(10_000));
        assert_eq!(f.n(10_000), 10_000);
        assert!(q.n(10) >= 64);
    }

    #[test]
    fn master_depends_on_id_and_seed() {
        let c = ExpConfig::default();
        assert_ne!(c.master_for("a"), c.master_for("b"));
        let mut c2 = c;
        c2.seed = 1;
        assert_ne!(c.master_for("a"), c2.master_for("a"));
    }
}
