//! `library-1e7`: the library user's path. `estimate_mean`,
//! `estimate_variance` and `estimate_iqr` run in this process on a bare
//! 10⁷-row Gaussian column — no server, no ledger, no cache.

use crate::plan::{self, gaussian};
use crate::procfs::ProcSample;
use rand::Rng;
use std::time::Instant;
use updp_core::privacy::Epsilon;
use updp_core::rng::{child_seed, seeded};
use updp_statistical::{estimate_iqr, estimate_mean, estimate_variance, DEFAULT_BETA};

/// What one `library-1e7` run measured.
#[derive(Debug, Default)]
pub struct LibraryRun {
    /// Seconds of each column generation.
    pub setup_s: Vec<f64>,
    /// Wall time of each round (mean + variance + IQR), ms.
    pub round_ms: Vec<f64>,
    /// Wall time of each call, ms, by estimator.
    pub mean_ms: Vec<f64>,
    /// See `mean_ms`.
    pub variance_ms: Vec<f64>,
    /// See `mean_ms`.
    pub iqr_ms: Vec<f64>,
    /// Rounds per second completed within the limit.
    pub goodput_rps: f64,
    /// Process CPU per round, ms.
    pub cpu_ms_per_query: f64,
    /// Process `VmHWM`, MiB.
    pub peak_rss_mb: f64,
    /// Estimator calls attempted.
    pub attempted: u64,
    /// Estimator calls that returned an error.
    pub failed: u64,
    /// Estimates outside their sanity bounds, or non-reproducible.
    pub problems: Vec<String>,
    /// The column, kept for the traced replay.
    pub column: Vec<f64>,
}

/// The column of `seed`, with its true mean and standard deviation.
pub fn column(seed: u64) -> (Vec<f64>, f64, f64) {
    let mut rng = seeded(child_seed(seed, 1));
    let mean = rng.gen_range(-1e3..1e3);
    let sd = rng.gen_range(1.0..50.0);
    (
        gaussian(child_seed(seed, 100), plan::LIBRARY_ROWS, mean, sd),
        mean,
        sd,
    )
}

/// Runs whole rounds for about `seconds` (at least three, so that the
/// median round is a middle one).
pub fn run(seed: u64, seconds: f64) -> Result<LibraryRun, String> {
    let mut run = LibraryRun::default();
    let (mut data, mut mean, mut sd) = (Vec::new(), 0.0, 0.0);
    for _ in 0..plan::SETUPS {
        drop(std::mem::take(&mut data));
        let started = Instant::now();
        (data, mean, sd) = column(seed);
        run.setup_s.push(started.elapsed().as_secs_f64());
    }
    let eps = Epsilon::new(plan::LIBRARY_EPSILON).map_err(|e| e.to_string())?;
    let before = ProcSample::read(None)?;
    let started = Instant::now();
    let mut good = 0usize;
    let mut first_mean = None;
    let mut round = 0u64;
    // Whole rounds only: start another while it should end in time.
    while round < 3
        || started.elapsed().as_secs_f64() * (round + 1) as f64 / round as f64 <= seconds
    {
        let mut rng = seeded(child_seed(seed, 10 + round));
        let round_start = Instant::now();
        let t = Instant::now();
        let m = estimate_mean(&mut rng, &data, eps, DEFAULT_BETA);
        run.mean_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let v = estimate_variance(&mut rng, &data, eps, DEFAULT_BETA);
        run.variance_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let q = estimate_iqr(&mut rng, &data, eps, DEFAULT_BETA);
        run.iqr_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let elapsed_ms = round_start.elapsed().as_secs_f64() * 1e3;
        run.round_ms.push(elapsed_ms);
        run.attempted += 3;
        let mut ok = true;
        // At n = 10⁷ and ε = 0.1 every estimate lies far inside these
        // bounds; one outside them means the estimator is broken.
        let mut check = |what: &str, got: Result<f64, String>, truth: f64, tol: f64| match got {
            Ok(x) if (x - truth).abs() <= tol => {}
            Ok(x) => {
                ok = false;
                run.problems.push(format!(
                    "{what} estimate {x} is not within {tol} of {truth}"
                ));
            }
            Err(e) => {
                ok = false;
                run.failed += 1;
                run.problems.push(format!("{what} failed: {e}"));
            }
        };
        let mean_estimate = m.as_ref().map(|e| e.estimate).map_err(|e| e.to_string());
        check("mean", mean_estimate.clone(), mean, 0.01 * sd);
        check(
            "variance",
            v.map(|e| e.estimate).map_err(|e| e.to_string()),
            sd * sd,
            0.01 * sd * sd,
        );
        check(
            "iqr",
            q.map(|e| e.estimate).map_err(|e| e.to_string()),
            1.348_979_5 * sd,
            0.01 * sd,
        );
        if round == 0 {
            first_mean = mean_estimate.ok();
        }
        if ok && elapsed_ms <= plan::LIBRARY_LIMIT_MS {
            good += 1;
        }
        round += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let after = ProcSample::read(None)?;
    run.goodput_rps = good as f64 / elapsed;
    run.cpu_ms_per_query = (after.cpu_ms() - before.cpu_ms()) / round as f64;

    // Reproducibility: round 0's mean again from the same seed.
    let mut rng = seeded(child_seed(seed, 10));
    let again = estimate_mean(&mut rng, &data, eps, DEFAULT_BETA).map_err(|e| e.to_string())?;
    if first_mean.map(f64::to_bits) != Some(again.estimate.to_bits()) {
        run.problems
            .push("estimate_mean is not reproducible for a fixed seed".into());
    }
    run.peak_rss_mb = ProcSample::read(None)?.peak_rss_mb;
    run.column = data;
    Ok(run)
}
