//! The seeded inputs and schedules of every workload. The timed run and
//! the traced replay both take their inputs from here, so the same seed
//! gives the same datasets, requests and order.

use rand::Rng;
use std::time::Duration;
use updp_core::rng::{child_seed, seeded};
use updp_dist::{ContinuousDistribution, Gaussian};
use updp_serve::QuerySpec;

/// Nominal ε of every served query. Large enough that the estimators'
/// β-probability failures (a collapsed IQR lower bound overflowing the
/// integer grid) do not occur in a run.
pub const EPSILON: f64 = 0.5;
/// Nominal ε of every `serve-stream` query: at n = 10⁵ the small ε is
/// already safe, and it keeps a query's cost near the write path's.
pub const STREAM_EPSILON: f64 = 0.1;
/// ε of each `library-1e7` call: at n = 10⁷ a small ε is already safe.
pub const LIBRARY_EPSILON: f64 = 0.1;
/// ε budget of every dataset: never exhausted in a run.
pub const BUDGET: f64 = 1e12;
/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Share of `--seconds` spent in the open-loop rated phase; the rest
/// is the closed-loop goodput phase.
pub const OPEN_SHARE: f64 = 0.6;

/// `serve-hot`: tenants, rows per tenant, rated rate, latency limit.
pub const HOT_TENANTS: usize = 64;
/// Rows of each `serve-hot` tenant.
pub const HOT_ROWS: usize = 10_000;
/// Offered `/v1/query` rate of the `serve-hot` rated phase, per second.
pub const HOT_RATE: f64 = 140.0;
/// Latency limit of the `serve-hot` goodput phase, ms.
pub const HOT_LIMIT_MS: f64 = 20.0;

/// Rows of the `serve-stream` dataset.
pub const STREAM_ROWS: usize = 100_000;
/// One-row appends per burst.
pub const BURST: usize = 16;
/// Time between bursts (each ends in an explicit flush). The reader
/// sends one query per period, half a period after each burst, so every
/// query meets a freshly published snapshot: one cost mode, not a mix.
pub const BURST_PERIOD: Duration = Duration::from_millis(80);
/// Latency limit of the `serve-stream` goodput phase, ms.
pub const STREAM_LIMIT_MS: f64 = 100.0;
/// Server write buffer: far above a burst, and never aged out, so
/// only the explicit flush publishes.
pub const STREAM_BUFFER_ROWS: usize = 1 << 20;

/// Rows of the `library-1e7` column.
pub const LIBRARY_ROWS: usize = 10_000_000;
/// Latency limit of one `library-1e7` round (mean + variance + IQR), ms.
pub const LIBRARY_LIMIT_MS: f64 = 30_000.0;

/// Seed of the release-oracle probe batches.
pub const ORACLE_SEED: u64 = 0x0DAC_1E00;
/// Probe batches per dataset.
pub const ORACLE_PROBES: u64 = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 warm tenants, hardened mean + p90 + IQR batches.
    ServeHot,
    /// One 10⁵-row dataset, appends + flushes beside quantile + IQR reads.
    ServeStream,
    /// In-process mean, variance and IQR on a bare 10⁷-row column.
    Library,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-stream" => Some(Workload::ServeStream),
            "library-1e7" => Some(Workload::Library),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeStream => "serve-stream",
            Workload::Library => "library-1e7",
        }
    }
}

/// `n` seeded Gaussian rows.
pub fn gaussian(seed: u64, n: usize, mean: f64, sd: f64) -> Vec<f64> {
    let mut rng = seeded(seed);
    Gaussian::new(mean, sd)
        .expect("valid Gaussian parameters")
        .sample_vec(&mut rng, n)
}

/// One query batch against one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Index into [`Plan::names`].
    pub dataset: usize,
    /// The request seed.
    pub seed: u64,
}

/// One scheduled operation of the rated phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A `/v1/query` batch.
    Query(Batch),
    /// Burst `i`: [`BURST`] one-row appends and one `/v1/flush`.
    Burst(usize),
}

/// A scheduled operation and the connection (lane) that sends it.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// Offset from the start of the rated phase.
    pub at: Duration,
    /// The sending connection.
    pub lane: usize,
    /// What is sent.
    pub step: Step,
}

/// A serve workload's inputs.
pub struct Plan {
    /// Dataset names.
    pub names: Vec<String>,
    /// Dataset rows at registration.
    pub columns: Vec<Vec<f64>>,
    /// The batch every query sends.
    pub specs: Vec<QuerySpec>,
    /// Rows of each burst, in send order (serve-stream only).
    pub bursts: Vec<Vec<f64>>,
    /// The rated phase, in schedule order.
    pub open: Vec<Scheduled>,
    /// Seed of the closed-loop phase's request stream.
    pub closed_seed: u64,
    /// Latency limit of the closed-loop phase, ms.
    pub limit_ms: f64,
}

impl Plan {
    /// The inputs of `workload` (a serve workload) for a run of
    /// `seconds` seconds.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        let open_for = seconds * OPEN_SHARE;
        let mut rng = seeded(child_seed(seed, 1));
        match workload {
            Workload::ServeHot => {
                let names: Vec<String> = (0..HOT_TENANTS).map(|t| format!("hot-{t:02}")).collect();
                let columns = (0..HOT_TENANTS)
                    .map(|t| {
                        let mean = rng.gen_range(-1e3..1e3);
                        let sd = rng.gen_range(1.0..50.0);
                        gaussian(child_seed(seed, 100 + t as u64), HOT_ROWS, mean, sd)
                    })
                    .collect();
                let count = (HOT_RATE * open_for) as usize;
                let open = (0..count)
                    .map(|i| Scheduled {
                        at: Duration::from_secs_f64(i as f64 / HOT_RATE),
                        lane: i % 2,
                        step: Step::Query(Batch {
                            dataset: rng.gen_range(0..HOT_TENANTS),
                            seed: rng.gen_range(0..1u64 << 40),
                        }),
                    })
                    .collect();
                Plan {
                    names,
                    columns,
                    specs: vec![
                        QuerySpec::new("mean", EPSILON),
                        QuerySpec::new("quantile", EPSILON).with("q", 0.9),
                        QuerySpec::new("iqr", EPSILON),
                    ],
                    bursts: Vec::new(),
                    open,
                    closed_seed: child_seed(seed, 2),
                    limit_ms: HOT_LIMIT_MS,
                }
            }
            Workload::ServeStream => {
                let column = gaussian(child_seed(seed, 100), STREAM_ROWS, 50.0, 10.0);
                let burst_count = (open_for / BURST_PERIOD.as_secs_f64()) as usize;
                let bursts = (0..burst_count)
                    .map(|b| gaussian(child_seed(seed, 1_000 + b as u64), BURST, 50.0, 10.0))
                    .collect();
                let mut open: Vec<Scheduled> = (0..burst_count)
                    .map(|b| Scheduled {
                        at: BURST_PERIOD * b as u32,
                        lane: 0,
                        step: Step::Burst(b),
                    })
                    .collect();
                let count = open.len();
                open.extend((0..count).map(|i| Scheduled {
                    at: BURST_PERIOD * i as u32 + BURST_PERIOD / 2,
                    lane: 1,
                    step: Step::Query(Batch {
                        dataset: 0,
                        seed: rng.gen_range(0..1u64 << 40),
                    }),
                }));
                // Stable: at equal times the burst (pushed first) leads.
                open.sort_by_key(|s| s.at);
                Plan {
                    names: vec!["stream".into()],
                    columns: vec![column],
                    specs: vec![
                        QuerySpec::new("quantile", STREAM_EPSILON).with("q", 0.9),
                        QuerySpec::new("iqr", STREAM_EPSILON),
                    ],
                    bursts,
                    open,
                    closed_seed: child_seed(seed, 2),
                    limit_ms: STREAM_LIMIT_MS,
                }
            }
            Workload::Library => unreachable!("library-1e7 has no serve plan"),
        }
    }

    /// The wire body of `batch`.
    pub fn query_body(&self, batch: Batch) -> String {
        let queries: Vec<(&str, f64, Option<f64>)> = self
            .specs
            .iter()
            .map(|s| {
                let q = s.options.iter().find(|(n, _)| n == "q").map(|&(_, v)| v);
                (s.estimator.as_str(), s.epsilon, q)
            })
            .collect();
        updp_serve::client::query_body(&self.names[batch.dataset], batch.seed, false, &queries)
    }

    /// The request seed of the set-up's warm-up query on `dataset`
    /// (wire seeds are integers below 2^53).
    pub fn warmup_seed(&self, dataset: usize) -> u64 {
        child_seed(self.closed_seed, 1_000_000 + dataset as u64) >> 24
    }
}
