//! The committed perf-baseline report (`BENCH_baseline.json`).
//!
//! Every later perf PR is judged against the numbers in this file, so
//! the schema is owned by code: the `bench_baseline` binary writes it
//! through [`BaselineReport::to_json`] and CI smoke-checks that the
//! JSON round-trips through [`BaselineReport::from_json`] on every
//! push (`bench_baseline --check`), keeping the binary and the schema
//! from rotting.
//!
//! The JSON codec itself lives in [`updp_core::json`] — it started
//! here and was promoted so `updp-serve` and this report share one
//! implementation (the crate root re-exports it as
//! [`crate::json`]). Numbers are emitted with Rust's
//! shortest-round-trip `Display` for `f64`, so
//! `from_json(to_json(r)) == r` exactly.

use updp_core::json::JsonValue;

/// One macro-workload timing row.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroRow {
    /// Workload name (`estimate_mean`, `estimate_variance`, `estimate_iqr`).
    pub workload: String,
    /// Dataset size.
    pub n: usize,
    /// Wall milliseconds per estimate (averaged over the harness reps).
    pub ms: f64,
}

/// Wall time of `experiments all --quick` under the serial and parallel
/// engines.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentsQuick {
    /// Wall milliseconds with `UPDP_THREADS=1`.
    pub serial_ms: f64,
    /// Wall milliseconds with `UPDP_THREADS=threads`.
    pub parallel_ms: f64,
    /// Worker count used for the parallel measurement.
    pub threads: usize,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// The full baseline report.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Schema tag; bump on breaking changes.
    pub schema: String,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// the context needed to interpret `speedup`.
    pub host_threads: usize,
    /// Kernel release of the measuring host (empty when unavailable).
    pub host_kernel: String,
    /// CPU architecture of the measuring host.
    pub host_arch: String,
    /// Macro workload timings.
    pub micro: Vec<MicroRow>,
    /// Experiment-suite wall times.
    pub experiments_quick: ExperimentsQuick,
    /// Free-form measurement caveats (e.g. single-core host).
    pub note: String,
}

/// The current schema tag. v2 added the host metadata fields
/// (`host_kernel`, `host_arch`) so a baseline regenerated on
/// different hardware is distinguishable after the fact.
pub const SCHEMA: &str = "updp-bench-baseline/v2";

/// Gross-slowdown factor for the CI perf smoke gate
/// (`bench_baseline --smoke --check-regression FILE`): a measured
/// micro row more than this many times slower than the committed row
/// with the same `(workload, n)` fails the gate. Loose on purpose —
/// CI hosts are noisy and shared; the gate catches accidental
/// complexity-class regressions, not percent-level drift.
pub const REGRESSION_FACTOR: f64 = 3.0;

/// Compares measured micro rows against a committed baseline.
///
/// Rows are matched by `(workload, n)`; rows present on only one side
/// are ignored (the committed file spans sizes a smoke run does not
/// re-measure), as are committed rows with a non-positive time.
/// Returns one human-readable line per regression — empty means the
/// gate passes. Errors when no row matched at all: a silently vacuous
/// gate would be worse than none.
pub fn regressions(
    measured: &BaselineReport,
    committed: &BaselineReport,
    factor: f64,
) -> Result<Vec<String>, String> {
    let mut matched = 0usize;
    let mut failures = Vec::new();
    for row in &measured.micro {
        let Some(base) = committed
            .micro
            .iter()
            .find(|b| b.workload == row.workload && b.n == row.n)
        else {
            continue;
        };
        if base.ms <= 0.0 {
            continue;
        }
        matched += 1;
        if row.ms > base.ms * factor {
            failures.push(format!(
                "{} at n={}: measured {:.3} ms vs committed {:.3} ms (>{factor}x)",
                row.workload, row.n, row.ms, base.ms
            ));
        }
    }
    if matched == 0 {
        return Err(
            "no (workload, n) rows in common between the measured and committed reports".into(),
        );
    }
    Ok(failures)
}

/// Host metadata for the report: `(kernel release, architecture)`.
pub fn host_meta() -> (String, String) {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    (kernel, std::env::consts::ARCH.to_string())
}

impl BaselineReport {
    /// Serializes to pretty-printed JSON (stable field order).
    pub fn to_json(&self) -> String {
        let micro = self
            .micro
            .iter()
            .map(|row| {
                JsonValue::object(vec![
                    ("workload", row.workload.as_str().into()),
                    ("n", row.n.into()),
                    ("ms", row.ms.into()),
                ])
            })
            .collect();
        let eq = &self.experiments_quick;
        let doc = JsonValue::object(vec![
            ("schema", self.schema.as_str().into()),
            ("host_threads", self.host_threads.into()),
            ("host_kernel", self.host_kernel.as_str().into()),
            ("host_arch", self.host_arch.as_str().into()),
            ("micro", JsonValue::Array(micro)),
            (
                "experiments_quick",
                JsonValue::object(vec![
                    ("serial_ms", eq.serial_ms.into()),
                    ("parallel_ms", eq.parallel_ms.into()),
                    ("threads", eq.threads.into()),
                    ("speedup", eq.speedup.into()),
                ]),
            ),
            ("note", self.note.as_str().into()),
        ]);
        let mut out = doc.to_pretty();
        out.push('\n');
        out
    }

    /// Parses a report previously produced by [`BaselineReport::to_json`]
    /// (the current schema only).
    pub fn from_json(input: &str) -> Result<Self, String> {
        let value = JsonValue::parse(input)?;
        let obj = value.as_object("top level")?;
        let schema = obj.get_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema `{schema}`, expected `{SCHEMA}`"));
        }
        let micro = obj
            .get_array("micro")?
            .iter()
            .map(|v| -> Result<MicroRow, String> {
                let row = v.as_object("micro row")?;
                Ok(MicroRow {
                    workload: row.get_str("workload")?,
                    n: row.get_usize("n")?,
                    ms: row.get_f64("ms")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let eq = obj
            .get("experiments_quick")?
            .as_object("experiments_quick")?;
        Ok(BaselineReport {
            schema,
            host_threads: obj.get_usize("host_threads")?,
            host_kernel: obj.get_str("host_kernel")?,
            host_arch: obj.get_str("host_arch")?,
            micro,
            experiments_quick: ExperimentsQuick {
                serial_ms: eq.get_f64("serial_ms")?,
                parallel_ms: eq.get_f64("parallel_ms")?,
                threads: eq.get_usize("threads")?,
                speedup: eq.get_f64("speedup")?,
            },
            note: obj.get_str("note")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BaselineReport {
        BaselineReport {
            schema: SCHEMA.into(),
            host_threads: 4,
            host_kernel: "6.1.0-test".into(),
            host_arch: "x86_64".into(),
            micro: vec![
                MicroRow {
                    workload: "estimate_mean".into(),
                    n: 10_000,
                    ms: 1.251231,
                },
                MicroRow {
                    workload: "estimate_iqr".into(),
                    n: 10_000_000,
                    ms: 1523.0625,
                },
            ],
            experiments_quick: ExperimentsQuick {
                serial_ms: 523.25,
                parallel_ms: 151.125,
                threads: 4,
                speedup: 523.25 / 151.125,
            },
            note: "4-core \"test\" host".into(),
        }
    }

    #[test]
    fn round_trips_exactly() {
        let report = sample();
        let json = report.to_json();
        let back = BaselineReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And a second trip is byte-stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn round_trips_awkward_floats() {
        let mut report = sample();
        report.micro[0].ms = 0.1 + 0.2; // 0.30000000000000004
        report.experiments_quick.speedup = f64::MIN_POSITIVE;
        let back = BaselineReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn rejects_mangled_input() {
        assert!(BaselineReport::from_json("").is_err());
        assert!(BaselineReport::from_json("{}").is_err());
        assert!(BaselineReport::from_json("{\"schema\": \"nope\"}").is_err());
        let json = sample().to_json();
        assert!(BaselineReport::from_json(&json[..json.len() - 3]).is_err());
        assert!(BaselineReport::from_json(&format!("{json}garbage")).is_err());
    }

    #[test]
    fn regression_gate_matches_by_workload_and_n() {
        let committed = sample();
        let mut measured = sample();
        // Within 3x: passes.
        measured.micro[0].ms = committed.micro[0].ms * 2.9;
        // Unmatched row (different n): ignored.
        measured.micro[1].n += 1;
        let fails = regressions(&measured, &committed, REGRESSION_FACTOR).unwrap();
        assert!(fails.is_empty(), "unexpected failures: {fails:?}");
        // Beyond 3x: fails with the workload named.
        measured.micro[0].ms = committed.micro[0].ms * 3.1;
        let fails = regressions(&measured, &committed, REGRESSION_FACTOR).unwrap();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("estimate_mean"), "{}", fails[0]);
    }

    #[test]
    fn regression_gate_rejects_vacuous_comparisons() {
        let committed = sample();
        let mut measured = sample();
        for row in &mut measured.micro {
            row.workload.push('x');
        }
        assert!(regressions(&measured, &committed, REGRESSION_FACTOR).is_err());
        // Non-positive committed times are skipped, not divided by.
        let mut zeroed = sample();
        for row in &mut zeroed.micro {
            row.ms = 0.0;
        }
        assert!(regressions(&sample(), &zeroed, REGRESSION_FACTOR).is_err());
    }

    #[test]
    fn missing_keys_are_named_in_errors() {
        let err = BaselineReport::from_json(
            "{\"schema\": \"updp-bench-baseline/v2\", \"host_threads\": 1}",
        )
        .unwrap_err();
        assert!(err.contains("micro"), "unhelpful error: {err}");
    }
}
