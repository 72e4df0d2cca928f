//! Streaming ingestion sweep (DESIGN.md §8): estimator error
//! trajectory as records arrive.
//!
//! Every other experiment hands the estimator one fixed batch. The
//! serving stack, however, *streams*: records arrive, snapshots
//! succeed each other via [`PreparedDataset::append`], and each
//! estimate runs against the current prefix of the stream. This sweep
//! regenerates the paper's `1/(εn)`-flavoured convergence picture in
//! exactly that regime — per trial, one Gaussian stream is ingested
//! checkpoint by checkpoint through the merge-maintained append path
//! (the estimates between appends keep the caches warm, so every
//! append exercises the `O(n + k)` carry-forward), and the universal
//! mean / median / IQR error is recorded at each checkpoint.
//!
//! Determinism: a trial is a pure function of `(master, t)` — the
//! stream is sampled once up front and the three estimators consume
//! the trial generator in a fixed order at each checkpoint — so the
//! table is byte-identical at any thread count, like every other
//! experiment.

use crate::config::ExpConfig;
use crate::table::Table;
use crate::trial::{fmt_err, summarize, trial_map};
use updp_core::privacy::Epsilon;
use updp_dist::{ContinuousDistribution, Gaussian};
use updp_statistical::{EstimateParams, PreparedDataset, DEFAULT_BETA, IQR, MEAN, QUANTILE};

/// Per-checkpoint absolute errors of one trial (mean, median, IQR);
/// `None` marks an estimator refusal at that checkpoint.
type CheckpointErrors = Vec<[Option<f64>; 3]>;

/// `streaming` — estimator error trajectory as records arrive through
/// the incremental append path.
pub(crate) fn streaming(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "streaming",
        "Streaming ingestion: universal-estimator error as records arrive",
        "errors shrink with the arrived prefix length n (the 1/(εn) regime of Thms 4.5/6.2) while every checkpoint transition is an O(n + k) merge-maintained append, never a rebuild",
        vec![
            "records arrived",
            "mean |err| (med)",
            "median |err| (med)",
            "iqr |err| (med)",
            "failures",
        ],
    );
    let dist = Gaussian::new(100.0, 5.0).expect("valid parameters");
    let total = cfg.n(65_536);
    // Doubling checkpoints ending at the full stream.
    let checkpoints: Vec<usize> = (0..8).map(|i| total >> (7 - i)).collect();
    let epsilon = Epsilon::new(0.5).expect("valid epsilon");
    let master = cfg.master_for("streaming");

    let mean_params = EstimateParams::new(epsilon).with_beta(DEFAULT_BETA);
    let mut median_params = EstimateParams::new(epsilon).with_beta(DEFAULT_BETA);
    median_params.set("q", 0.5);
    let iqr_params = EstimateParams::new(epsilon).with_beta(DEFAULT_BETA);
    let truths = [dist.mean(), dist.quantile(0.5), dist.iqr()];

    let per_trial: Vec<CheckpointErrors> = trial_map(cfg.trials, master, 0, |_t, rng| {
        let stream = dist.sample_vec(rng, total);
        let mut prepared = PreparedDataset::new(vec![stream[..checkpoints[0]].to_vec()]);
        let mut errors: CheckpointErrors = Vec::with_capacity(checkpoints.len());
        for (i, &n) in checkpoints.iter().enumerate() {
            let view = prepared.view();
            let row: Vec<Option<f64>> = [
                (MEAN, &mean_params),
                (QUANTILE, &median_params),
                (IQR, &iqr_params),
            ]
            .iter()
            .zip(truths)
            .map(|((est, params), truth)| {
                est.estimate(rng, &view, params)
                    .ok()
                    .map(|release| (release.primary() - truth).abs())
            })
            .collect();
            errors.push([row[0], row[1], row[2]]);
            if let Some(&next) = checkpoints.get(i + 1) {
                // The next prefix arrives: merge-maintained append of
                // the delta (the estimates above left the caches warm).
                prepared = prepared.append(&[stream[n..next].to_vec()]);
                debug_assert_eq!(prepared.len(), next);
                debug_assert_eq!(prepared.version(), i as u64 + 1);
            }
        }
        errors
    });

    for (i, &n) in checkpoints.iter().enumerate() {
        let mut cells = vec![format!("{n}")];
        let mut failures_total = 0usize;
        for stat in 0..3 {
            let errors: Vec<f64> = per_trial
                .iter()
                .filter_map(|trial| trial[i][stat])
                .collect();
            let failures = cfg.trials - errors.len();
            failures_total += failures;
            cells.push(fmt_err(summarize(errors, cfg.trials, failures).median));
        }
        cells.push(format!("{failures_total}"));
        t.push_row(cells);
    }
    t.note(format!(
        "one Gaussian(100, 5) stream per trial, ingested via PreparedDataset::append between checkpoints (caches merge-maintained, DESIGN.md §8); ε = {} per estimate, β = {DEFAULT_BETA}",
        epsilon.get()
    ));
    t.note("append-maintained artifacts are bit-identical to fresh builds (pinned by the append-equivalence suite), so this trajectory equals batch re-estimation at each n — only cheaper");
    t
}
