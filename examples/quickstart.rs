//! Quickstart: estimate mean, variance, and IQR of unknown data under
//! pure ε-DP with zero prior knowledge.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use updp::core::rng;
use updp::prelude::*;
use updp_dist::{ContinuousDistribution, Gaussian};

fn main() -> Result<()> {
    // Pretend this is sensitive data we know nothing about: the analyst
    // has NOT been told the mean is ~37000 or the scale is ~250.
    let secret_distribution = Gaussian::new(37_000.0, 250.0).expect("valid parameters");
    let mut rng = rng::seeded(2023);
    let data = secret_distribution.sample_vec(&mut rng, 50_000);

    // Total privacy cost ε = 1 for all three parameters: one equal
    // share per release (basic composition, Lemma 2.2).
    let epsilon = Epsilon::new(1.0).expect("valid epsilon");
    let shares = epsilon.split(&[1.0, 1.0, 1.0]);
    let mean = estimate_mean(&mut rng, &data, shares[0], DEFAULT_BETA)?;
    let variance = estimate_variance(&mut rng, &data, shares[1], DEFAULT_BETA)?;
    let iqr = estimate_iqr(&mut rng, &data, shares[2], DEFAULT_BETA)?;

    println!("universal private estimators (total ε = {})", epsilon.get());
    println!("  records           : {}", data.len());
    println!(
        "  mean              : {:>12.2}   (true {:.2})",
        mean.estimate,
        secret_distribution.mean()
    );
    println!(
        "  variance          : {:>12.2}   (true {:.2})",
        variance.estimate,
        secret_distribution.variance()
    );
    println!(
        "  IQR               : {:>12.2}   (true {:.2})",
        iqr.estimate,
        secret_distribution.iqr()
    );
    println!();
    println!("diagnostics:");
    println!("  bucket (private IQR lower bound) : {:.4}", mean.bucket);
    println!(
        "  clipping range found privately   : [{:.1}, {:.1}]",
        mean.range.lo, mean.range.hi
    );
    println!(
        "  full-data points clipped         : {} of {}",
        mean.clipped,
        data.len()
    );
    Ok(())
}
