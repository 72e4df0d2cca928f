//! Sensor calibration: private variance estimation across unknown scales.
//!
//! A fleet of sensors reports readings whose noise level σ varies by six
//! orders of magnitude across device generations. Calibration needs each
//! cohort's variance, but the readings are privacy-sensitive (they embed
//! user location/behaviour). Prior pure-DP variance estimators need
//! `[σ_min, σ_max]` as input and pay for its width; the universal
//! estimator (Theorem 5.3) needs nothing and pays only `log log σ`.
//!
//! ```text
//! cargo run --release --example sensor_calibration
//! ```

use updp::core::rng;
use updp::prelude::*;
use updp_dist::{ContinuousDistribution, Gaussian};

fn main() -> Result<()> {
    let mut rng = rng::seeded(99);
    let epsilon = Epsilon::new(0.8).expect("valid epsilon");

    println!("per-cohort private variance (ε = {} each):", epsilon.get());
    println!(
        "  {:>10}  {:>14}  {:>14}  {:>9}",
        "true σ", "true σ²", "private σ̃²", "rel err"
    );

    // Device generations with wildly different noise scales — and
    // different (irrelevant) baseline offsets.
    let cohorts = [
        ("gen-1", 2.5e-3, 1.2),
        ("gen-2", 4.0e-1, -3.8),
        ("gen-3", 1.7e1, 250.0),
        ("gen-4", 6.0e3, -1.0e6),
    ];

    for (name, sigma, offset) in cohorts {
        let dist = Gaussian::new(offset, sigma).expect("valid parameters");
        let readings = dist.sample_vec(&mut rng, 40_000);
        let var = estimate_variance(&mut rng, &readings, epsilon, DEFAULT_BETA)?;
        let truth = sigma * sigma;
        println!(
            "  {:>10}  {:>14.4e}  {:>14.4e}  {:>8.2}%   [{name}]",
            sigma,
            truth,
            var.estimate,
            100.0 * (var.estimate - truth).abs() / truth
        );
    }

    println!();
    println!(
        "the same code handled σ from 2.5e-3 to 6e3 with no σ_min/σ_max inputs;\n\
         a KV18-style baseline would need those bounds and pay log(σ_max/σ_min) in samples."
    );
    Ok(())
}
