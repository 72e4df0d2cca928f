//! Trial runner: repeated estimator executions and robust error summary.
//!
//! Every utility statement in the paper holds "with constant success
//! probability" (footnote 4), so experiments report *median* and
//! *90th-percentile* absolute error over many trials — the mean would be
//! polluted by the designed-in failure probability β. Failures
//! (mechanism refusals, e.g. \[DL09\]'s PTR) are counted, not averaged in.
//!
//! # Parallel execution (DESIGN.md §5)
//!
//! Trials run on `updp_core::parallel`'s deterministic work-stealing
//! map: trial `t` is a pure function of `(master, t)` under §1.1's
//! child-seed scheme, and results are collected **by trial index**, so
//! [`ErrorStats`] is bit-identical at any thread count (`UPDP_THREADS`
//! contract) and identical to the historical serial loop.

use updp_core::error::Result;
use updp_core::parallel::par_map_indexed;
use updp_core::rng::child_rng;
use updp_statistical::{DataView, EstimateParams, Estimator};

/// Robust summary of absolute errors over repeated trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Median absolute error among successful trials.
    pub median: f64,
    /// 90th-percentile absolute error among successful trials.
    pub p90: f64,
    /// Mean absolute error among successful trials (reported for
    /// completeness; interpret with care under heavy-tailed noise).
    pub mean: f64,
    /// Number of trials attempted.
    pub trials: usize,
    /// Number of trials in which the mechanism declined or errored.
    pub failures: usize,
}

impl ErrorStats {
    /// Fraction of trials that produced an estimate.
    pub(crate) fn success_rate(&self) -> f64 {
        (self.trials - self.failures) as f64 / self.trials.max(1) as f64
    }
}

/// Runs `trials` independent executions of `f` — in parallel, collected
/// by trial index — where trial `t` receives a fresh RNG seeded with
/// `child_seed(master, offset + t)`, and returns the per-trial results
/// in trial order.
///
/// This is the engine every experiment loop routes through: the
/// `offset` parameter preserves the historical per-cell seed layouts
/// (e.g. `di·1000 + trial`) so outputs match the former hand-rolled
/// serial loops bit for bit.
pub(crate) fn trial_map<T, F>(trials: usize, master: u64, offset: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut rand::rngs::StdRng) -> T + Sync,
{
    par_map_indexed(trials, |t| {
        let mut rng = child_rng(master, offset + t as u64);
        f(t as u64, &mut rng)
    })
}

/// Runs `trials` independent executions of `f` (each with a fresh child
/// RNG of `master`), comparing against `truth`, and summarizes the
/// absolute errors.
///
/// `f` returns the *estimate*; `Err` counts as a failure. Trials run in
/// parallel (see `trial_map`); the returned [`ErrorStats`] is
/// bit-identical at any `UPDP_THREADS` setting.
pub fn run_trials<F>(trials: usize, master: u64, truth: f64, f: F) -> ErrorStats
where
    F: Fn(&mut rand::rngs::StdRng) -> Result<f64> + Sync,
{
    let outcomes = trial_map(trials, master, 0, |_t, rng| {
        f(rng).map(|est| (est - truth).abs())
    });
    let mut errors: Vec<f64> = Vec::with_capacity(trials);
    let mut failures = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(err) => errors.push(err),
            Err(_) => failures += 1,
        }
    }
    summarize(errors, trials, failures)
}

/// Runs `trials` independent executions of an [`Estimator`] (the
/// workspace-wide estimator type — universal estimators and Table 1
/// baselines alike), sampling a fresh dataset per trial with `sample`,
/// and summarizes the absolute errors against `truth`.
///
/// This replaces the per-experiment closure glue: experiments name an
/// estimator and its [`EstimateParams`] instead of hand-wiring each
/// free function. [`Estimator::estimate`] is bit-identical to the
/// direct free function on the same seed (the equivalence suite pins
/// this), so routing an experiment through here never changes its
/// table.
pub(crate) fn estimator_trials<F>(
    trials: usize,
    master: u64,
    truth: f64,
    estimator: &Estimator,
    params: &EstimateParams,
    sample: F,
) -> ErrorStats
where
    F: Fn(&mut rand::rngs::StdRng) -> Vec<f64> + Sync,
{
    run_trials(trials, master, truth, |rng| {
        let data = sample(rng);
        estimator
            .estimate(rng, &DataView::of(&data), params)
            .map(|release| release.primary())
    })
}

/// Summarizes a raw error vector.
///
/// The error vector is only ever queried at two order statistics
/// (median and p90), so those are picked with `select_nth_unstable_by`
/// — `O(n)` instead of a full `O(n log n)` sort. The mean is summed in
/// the caller's (trial) order, before any reordering, keeping it a pure
/// function of the input vector.
pub fn summarize(mut errors: Vec<f64>, trials: usize, failures: usize) -> ErrorStats {
    if errors.is_empty() {
        return ErrorStats {
            median: f64::NAN,
            p90: f64::NAN,
            mean: f64::NAN,
            trials,
            failures,
        };
    }
    let len = errors.len();
    let mean = errors.iter().sum::<f64>() / len as f64;
    let rank = |q: f64| ((len as f64 - 1.0) * q).round() as usize;
    let (i50, i90) = (rank(0.5), rank(0.9));
    let (below_p90, p90_ref, _) = errors.select_nth_unstable_by(i90, f64::total_cmp);
    let p90 = *p90_ref;
    let median = if i50 == i90 {
        p90
    } else {
        *below_p90.select_nth_unstable_by(i50, f64::total_cmp).1
    };
    ErrorStats {
        median,
        p90,
        mean,
        trials,
        failures,
    }
}

/// Formats an error value compactly for tables (3 significant digits,
/// scientific when needed).
pub(crate) fn fmt_err(v: f64) -> String {
    if v.is_nan() {
        return "-".into();
    }
    // Table formatting: exactly-zero errors print as `0`; near-zero errors
    // must keep their scientific form to stay machine-diffable.
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if (0.001..10_000.0).contains(&a) {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use updp_core::rng::{child_seed, seeded};

    #[test]
    fn summarize_quantiles() {
        let errors: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(errors, 100, 0);
        // index round((100−1)·0.5) = 50 ⇒ the 51st order statistic.
        assert_eq!(s.median, 51.0);
        assert_eq!(s.p90, 90.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.success_rate(), 1.0);
    }

    #[test]
    fn all_failures_yield_nan() {
        let s = summarize(vec![], 10, 10);
        assert!(s.median.is_nan());
        assert_eq!(s.success_rate(), 0.0);
    }

    #[test]
    fn run_trials_counts_failures() {
        // Failures determined per trial index (via trial_map, which
        // passes it), half the trials fail.
        let outcomes = trial_map(10, 7, 0, |t, _rng| -> Result<f64> {
            if t % 2 == 0 {
                Ok(1.0)
            } else {
                Err(updp_core::UpdpError::EmptyDataset)
            }
        });
        let mut errors = Vec::new();
        let mut failures = 0;
        for o in outcomes {
            match o {
                Ok(v) => errors.push(v),
                Err(_) => failures += 1,
            }
        }
        let s = summarize(errors, 10, failures);
        assert_eq!(s.failures, 5);
        assert_eq!(s.median, 1.0);

        // And through run_trials itself: an always-failing closure.
        let s = run_trials(10, 7, 0.0, |_rng| -> Result<f64> {
            Err(updp_core::UpdpError::EmptyDataset)
        });
        assert_eq!(s.failures, 10);
        assert!(s.median.is_nan());
    }

    #[test]
    fn trial_map_results_are_in_trial_order_at_any_thread_count() {
        use rand::Rng;
        let f = |t: u64, rng: &mut rand::rngs::StdRng| (t, rng.gen::<u64>());
        let serial: Vec<(u64, u64)> = (0..33)
            .map(|t| {
                let mut rng = seeded(child_seed(9, 100 + t));
                f(t, &mut rng)
            })
            .collect();
        let par = trial_map(33, 9, 100, f);
        assert_eq!(par, serial);
        for (t, (idx, _)) in par.iter().enumerate() {
            assert_eq!(*idx, t as u64);
        }
    }

    #[test]
    fn summarize_matches_full_sort_reference() {
        use rand::Rng;
        let mut rng = seeded(5);
        for len in [1usize, 2, 3, 7, 60, 101] {
            let errors: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() * 10.0).collect();
            let s = summarize(errors.clone(), len, 0);
            let mut sorted = errors.clone();
            sorted.sort_by(f64::total_cmp);
            let pick = |q: f64| sorted[((len as f64 - 1.0) * q).round() as usize];
            assert_eq!(s.median, pick(0.5), "median at len {len}");
            assert_eq!(s.p90, pick(0.9), "p90 at len {len}");
            let mean = errors.iter().sum::<f64>() / len as f64;
            assert_eq!(s.mean, mean, "mean at len {len}");
        }
    }

    #[test]
    fn run_trials_is_deterministic() {
        let f = |rng: &mut rand::rngs::StdRng| -> Result<f64> {
            use rand::Rng;
            Ok(rng.gen::<f64>())
        };
        let a = run_trials(20, 42, 0.0, f);
        let b = run_trials(20, 42, 0.0, f);
        assert_eq!(a, b);
    }

    #[test]
    fn fmt_err_ranges() {
        assert_eq!(fmt_err(f64::NAN), "-");
        assert_eq!(fmt_err(0.0), "0");
        assert_eq!(fmt_err(1.23456), "1.2346");
        assert!(fmt_err(1e-9).contains('e'));
        assert!(fmt_err(1e9).contains('e'));
    }
}
