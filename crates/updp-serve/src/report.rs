//! The `BENCH_serve.json` load-test report, mirroring
//! `updp-bench::baseline`: schema owned by code, round-tripped through
//! the shared [`updp_core::json`] codec, smoke-checked in CI by
//! `loadgen --check` so the report machinery cannot rot.

use updp_core::json::JsonValue;

/// The current schema tag. v5 added the server-side flight-recorder
/// columns per run (`server_p50_ms`/`server_p99_ms` from the
/// `/v1/metrics` handle-latency histogram delta around the run, plus
/// `server_503`/`server_panics` counter deltas), so the report shows
/// queue/transport time separately from in-handler time.
pub const SCHEMA: &str = "updp-serve-loadgen/v5";

/// Host metadata for the report: `(kernel release, architecture)`.
/// Reports carry it so a baseline regenerated on different hardware
/// is distinguishable after the fact.
pub fn host_meta() -> (String, String) {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    (kernel, std::env::consts::ARCH.to_string())
}

/// One measured load level.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRun {
    /// Workload id: `"batch"` (the hardened mean+p90+iqr batch),
    /// `"repeat-quantile-cold"` (fresh dataset per request — every
    /// query pays the full discretize-and-sort), or
    /// `"repeat-quantile-warm"` (one dataset queried repeatedly — the
    /// `PreparedDataset` grid cache absorbs the sort). Cold vs warm
    /// p50/p99 is the cache win. Then the streaming ingestion triple: `"streaming-append"` (buffered 1-row appends),
    /// `"streaming-flush"` (publication of the pending delta log — the
    /// `O(n + k)` cache merge), and `"streaming-query"` (quantile
    /// queries against freshly-published snapshots; materially below
    /// the cold baseline because appended snapshots keep their caches
    /// warm).
    pub workload: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests completed across all connections.
    pub requests: usize,
    /// Wall milliseconds for the whole run.
    pub wall_ms: f64,
    /// Requests per second (`requests / wall`).
    pub rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Server-side median handler latency (ms) over the run, from the
    /// `/v1/metrics` handle-latency histogram delta. Bucketed
    /// (nearest-rank on log₂ bucket upper edges), so it is coarser
    /// than the client-side `p50_ms`; the gap between the two is
    /// queue + transport time. Zero when the scrape was unavailable.
    pub server_p50_ms: f64,
    /// Server-side 99th-percentile handler latency (ms); see
    /// `server_p50_ms`.
    pub server_p99_ms: f64,
    /// 503s the server issued during the run (connection-cap
    /// rejections + write-queue overload), from counter deltas.
    pub server_503: usize,
    /// Handler panics the reactor caught during the run (should stay
    /// 0; CI asserts it).
    pub server_panics: usize,
}

/// The full load report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Schema tag; bump on breaking changes.
    pub schema: String,
    /// `available_parallelism()` on the measuring host.
    pub host_threads: usize,
    /// Kernel release of the measuring host (empty when unavailable).
    pub host_kernel: String,
    /// CPU architecture of the measuring host.
    pub host_arch: String,
    /// Records per request-target dataset (batch workload).
    pub dataset_records: usize,
    /// Records per dataset in the repeat-quantile workloads.
    pub quantile_records: usize,
    /// Append:query ratio of the streaming workload (`"1:1"`).
    pub streaming_ratio: String,
    /// One row per connection count (the committed file measures 1
    /// and 8).
    pub runs: Vec<LoadRun>,
    /// Free-form measurement caveats.
    pub note: String,
}

impl ServeReport {
    /// Serializes to pretty-printed JSON (stable field order).
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                JsonValue::object(vec![
                    ("workload", run.workload.as_str().into()),
                    ("connections", run.connections.into()),
                    ("requests", run.requests.into()),
                    ("wall_ms", run.wall_ms.into()),
                    ("rps", run.rps.into()),
                    ("p50_ms", run.p50_ms.into()),
                    ("p99_ms", run.p99_ms.into()),
                    ("server_p50_ms", run.server_p50_ms.into()),
                    ("server_p99_ms", run.server_p99_ms.into()),
                    ("server_503", run.server_503.into()),
                    ("server_panics", run.server_panics.into()),
                ])
            })
            .collect();
        let mut out = JsonValue::object(vec![
            ("schema", self.schema.as_str().into()),
            ("host_threads", self.host_threads.into()),
            ("host_kernel", self.host_kernel.as_str().into()),
            ("host_arch", self.host_arch.as_str().into()),
            ("dataset_records", self.dataset_records.into()),
            ("quantile_records", self.quantile_records.into()),
            ("streaming_ratio", self.streaming_ratio.as_str().into()),
            ("runs", JsonValue::Array(runs)),
            ("note", self.note.as_str().into()),
        ])
        .to_pretty();
        out.push('\n');
        out
    }

    /// Parses a report previously produced by [`ServeReport::to_json`]
    /// (the current schema only).
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(input)?;
        let obj = doc.as_object("top level")?;
        let schema = obj.get_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema `{schema}`, expected `{SCHEMA}`"));
        }
        let runs = obj
            .get_array("runs")?
            .iter()
            .map(|v| -> Result<LoadRun, String> {
                let run = v.as_object("run")?;
                Ok(LoadRun {
                    workload: run.get_str("workload")?,
                    connections: run.get_usize("connections")?,
                    requests: run.get_usize("requests")?,
                    wall_ms: run.get_f64("wall_ms")?,
                    rps: run.get_f64("rps")?,
                    p50_ms: run.get_f64("p50_ms")?,
                    p99_ms: run.get_f64("p99_ms")?,
                    server_p50_ms: run.get_f64("server_p50_ms")?,
                    server_p99_ms: run.get_f64("server_p99_ms")?,
                    server_503: run.get_usize("server_503")?,
                    server_panics: run.get_usize("server_panics")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServeReport {
            schema,
            host_threads: obj.get_usize("host_threads")?,
            host_kernel: obj.get_str("host_kernel")?,
            host_arch: obj.get_str("host_arch")?,
            dataset_records: obj.get_usize("dataset_records")?,
            quantile_records: obj.get_usize("quantile_records")?,
            streaming_ratio: obj.get_str("streaming_ratio")?,
            runs,
            note: obj.get_str("note")?,
        })
    }
}

/// The `p`-quantile of `sorted` latencies (nearest-rank).
pub fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
// Exact `==` on f64 is deliberate in tests: they pin bit-identical
// outputs (DESIGN.md §5), so an epsilon tolerance would weaken them.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            schema: SCHEMA.into(),
            host_threads: 4,
            host_kernel: "6.1.0-test".into(),
            host_arch: "x86_64".into(),
            dataset_records: 10_000,
            quantile_records: 100_000,
            streaming_ratio: "1:1".into(),
            runs: vec![
                LoadRun {
                    workload: "batch".into(),
                    connections: 1,
                    requests: 500,
                    wall_ms: 1250.5,
                    rps: 399.84,
                    p50_ms: 2.25,
                    p99_ms: 8.875,
                    server_p50_ms: 1.024,
                    server_p99_ms: 4.096,
                    server_503: 0,
                    server_panics: 0,
                },
                LoadRun {
                    workload: "batch".into(),
                    connections: 8,
                    requests: 4_000,
                    wall_ms: 3000.125,
                    rps: 1333.28,
                    p50_ms: 5.5,
                    p99_ms: 19.25,
                    server_p50_ms: 2.048,
                    server_p99_ms: 8.192,
                    server_503: 3,
                    server_panics: 0,
                },
            ],
            note: "test sample".into(),
        }
    }

    #[test]
    fn round_trips_exactly() {
        let report = sample();
        let json = report.to_json();
        let back = ServeReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn rejects_wrong_schema_and_mangled_input() {
        assert!(ServeReport::from_json("{}").is_err());
        assert!(ServeReport::from_json("{\"schema\": \"updp-bench-baseline/v1\"}").is_err());
        let json = sample().to_json();
        assert!(ServeReport::from_json(&json[..json.len() - 2]).is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 50.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }
}
