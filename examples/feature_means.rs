//! Feature-vector means: the multivariate extension (§1.2) on
//! mixed-scale tabular features.
//!
//! A model-monitoring job wants the per-feature mean of production
//! inputs (age in years, income in dollars, a normalized score, a
//! millisecond timing) under one privacy budget. The features live at
//! completely different locations and scales — exactly what defeats any
//! single `[−R, R]` clipping configuration — and the coordinate-wise
//! universal estimator needs no per-feature tuning at all.
//!
//! ```text
//! cargo run --release --example feature_means
//! ```

use updp::core::rng;
use updp::prelude::*;
use updp::statistical::estimate_mean_multivariate;
use updp_dist::{ContinuousDistribution, Exponential, Gaussian, LogNormal};

fn main() -> Result<()> {
    let mut rng = rng::seeded(31337);

    // Four features with wildly different scales.
    let age = Gaussian::new(41.0, 12.0).expect("valid");
    let income = LogNormal::new(11.0, 0.5).expect("valid");
    let score = Gaussian::new(0.0, 1.0).expect("valid");
    let latency = Exponential::new(1.0 / 85.0).expect("valid"); // mean 85ms

    let n = 60_000;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                age.sample(&mut rng),
                income.sample(&mut rng),
                score.sample(&mut rng),
                latency.sample(&mut rng),
            ]
        })
        .collect();

    let epsilon = Epsilon::new(2.0).expect("valid epsilon");
    let result = estimate_mean_multivariate(&mut rng, &rows, epsilon, 0.1)?;

    let names = ["age (years)", "income ($)", "score (z)", "latency (ms)"];
    let truths = [age.mean(), income.mean(), score.mean(), latency.mean()];
    println!(
        "multivariate universal mean, n = {n}, total ε = {} (ε/4 per feature):",
        epsilon.get()
    );
    println!(
        "  {:>14}  {:>12}  {:>12}  {:>22}",
        "feature", "private", "true", "range found privately"
    );
    for ((name, truth), coord) in names.iter().zip(truths).zip(&result.coordinates) {
        println!(
            "  {:>14}  {:>12.3}  {:>12.3}  [{:.1}, {:.1}]",
            name, coord.estimate, truth, coord.range.lo, coord.range.hi
        );
    }
    println!();
    println!(
        "each feature's clipping range was discovered privately at its own scale —\n\
         no single R could serve both the z-score (≈1) and the income (≈60k) column."
    );
    Ok(())
}
