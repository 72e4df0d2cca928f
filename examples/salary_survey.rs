//! Salary survey: private statistics over skewed, heavy-tailed income
//! data — the workload the paper's introduction motivates.
//!
//! Income data is log-normal-ish with occasional extreme outliers (a
//! founder's exit year). No analyst can honestly state an a-priori range
//! `[−R, R]` that is both valid and tight, which is exactly the setting
//! where the A1-dependent baselines break and the universal estimators
//! shine.
//!
//! ```text
//! cargo run --release --example salary_survey
//! ```

use updp::baselines::naive_clipped_mean;
use updp::core::rng;
use updp::prelude::*;
use updp_dist::{ContinuousDistribution, LogNormal};

fn main() -> Result<()> {
    let mut rng = rng::seeded(7);

    // Synthetic salary population: log-normal body (median ~65k) with a
    // 0.1% contamination of extreme comp packages.
    let body = LogNormal::new(11.08, 0.45).expect("valid parameters");
    let n = 100_000;
    let mut salaries = body.sample_vec(&mut rng, n);
    for i in 0..n / 1000 {
        salaries[i * 997 % n] = 5.0e7 + (i as f64) * 1.0e6; // outliers
    }

    let epsilon = Epsilon::new(0.5).expect("valid epsilon");
    let mean = estimate_mean(&mut rng, &salaries, epsilon, DEFAULT_BETA)?;
    let iqr = estimate_iqr(&mut rng, &salaries, epsilon, DEFAULT_BETA)?;

    // Non-private truth for reference (the curator can see it).
    let true_mean = salaries.iter().sum::<f64>() / n as f64;
    let mut sorted = salaries.clone();
    sorted.sort_by(f64::total_cmp);
    let true_iqr = sorted[3 * n / 4 - 1] - sorted[n / 4 - 1];

    println!("salary survey, n = {n}, ε = {} per release", epsilon.get());
    println!("  universal private mean : {:>14.0}", mean.estimate);
    println!(
        "  empirical mean         : {:>14.0}  (outlier-inflated)",
        true_mean
    );
    println!("  universal private IQR  : {:>14.0}", iqr.estimate);
    println!("  empirical IQR          : {:>14.0}", true_iqr);
    println!(
        "  clipping range chosen  : [{:.0}, {:.0}] ({} records clipped)",
        mean.range.lo, mean.range.hi, mean.clipped
    );
    println!();

    // What the folklore baseline does with a guessed range. Guess too
    // small and the answer is pinned; guess defensively large and the
    // noise floor explodes.
    for r in [1.0e5, 1.0e9] {
        let naive = naive_clipped_mean(&mut rng, &salaries, r, epsilon)?;
        println!(
            "  naive clip with guessed R = {r:>9.0e}: {naive:>14.0}  (noise scale {:.0})",
            2.0 * r / (epsilon.get() * n as f64)
        );
    }
    println!();
    println!(
        "note: the universal mean tracks the clipped bulk (robust, like a trimmed mean),\n\
         while the naive baseline must either truncate the market or drown in noise."
    );
    Ok(())
}
