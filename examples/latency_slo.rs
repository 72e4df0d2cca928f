//! Latency SLO monitoring: private quantiles over heavy-tailed service
//! latencies using the empirical estimators directly.
//!
//! Request latencies are Pareto-tailed; operators want private medians
//! and tail quantiles per time window. This example drives the §3
//! empirical machinery (`InfiniteDomainQuantile` via its real-domain
//! wrapper) rather than the statistical facade, showing the lower-level
//! API a metrics pipeline would embed.
//!
//! ```text
//! cargo run --release --example latency_slo
//! ```

use updp::core::privacy::Epsilon;
use updp::core::rng;
use updp::empirical::discretize::real_quantile;
use updp_dist::{ContinuousDistribution, Pareto};

fn main() -> updp::core::Result<()> {
    let mut rng = rng::seeded(5150);
    // Latency model: 12ms floor with a Pareto tail (α = 1.8: infinite
    // variance — tail quantiles are the only meaningful statistics).
    let latency = Pareto::new(12.0, 1.8).expect("valid parameters");
    let n = 200_000;
    let window = latency.sample_vec(&mut rng, n);

    let epsilon = Epsilon::new(1.0).expect("valid epsilon");
    // Millisecond-resolution buckets: plenty for SLO reporting and far
    // below the rank-error granularity at this n.
    let bucket_ms = 0.1;

    println!(
        "private latency quantiles, n = {n}, ε = {} total",
        epsilon.get()
    );
    println!("  {:>6}  {:>12}  {:>12}", "q", "private (ms)", "true (ms)");

    let quantiles = [0.50, 0.90, 0.99];
    let shares = epsilon.split(&[1.0, 1.0, 1.0]);
    let mut sorted = window.clone();
    sorted.sort_by(f64::total_cmp);
    for (q, share) in quantiles.iter().zip(shares) {
        let tau = ((n as f64) * q) as usize;
        let private = real_quantile(&mut rng, &window, tau, bucket_ms, share, 0.05)?;
        let truth = sorted[tau - 1];
        println!(
            "  p{:<5}  {private:>12.2}  {truth:>12.2}",
            (q * 100.0) as u32
        );
    }

    println!();
    println!(
        "rank error is O(log(γ/b)/ε) ≈ {:.0} ranks out of {n} — the p99 of a window\n\
         this size is released almost exactly, with pure ε-DP and no latency cap configured.",
        (sorted[n - 1] / bucket_ms).ln() / epsilon.get() * 3.0
    );
    Ok(())
}
