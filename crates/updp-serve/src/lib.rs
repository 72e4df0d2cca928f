//! # updp-serve — the privacy-budget-accounted estimation service
//!
//! The deployment face of the universal private estimators (Dong &
//! Yi, PODS 2023): a long-lived HTTP/1.1 + JSON process over
//! `std::net::TcpListener` — entirely first-party, because the build
//! environment is offline — that owns datasets and meters their
//! privacy budgets across queries. DESIGN.md §6 is the contract;
//! the pieces:
//!
//! * [`registry`] — sharded in-memory dataset registry
//!   (register/append/flush/drop, stable ids) handing out immutable
//!   `Arc<PreparedDataset>` snapshots whose sorted/discretized
//!   artifacts are cached across queries; appends coalesce in a
//!   per-dataset delta log (DESIGN.md §8) and publish successor
//!   snapshots with merge-maintained caches;
//! * [`ledger`] — the ε accountant: atomic per-query reservation
//!   under basic composition, structured refusals on exhaustion, and
//!   a persisted snapshot so restarts cannot replay budget;
//! * [`engine`] — batched queries dispatched **by estimator name**
//!   through the workspace [`updp_statistical::Estimator`] trait:
//!   the five universal estimators plus every Table 1 baseline
//!   (`kv18`, `coinpress`, `dl09`, …, assumptions echoed on the
//!   wire), executed concurrently through `updp_core::parallel` with
//!   the §1.1 child-seed scheme (bit-reproducible given the request
//!   seed), with the hardened snapping release mode on by default;
//! * [`http`] / [`wire`] — the first-party HTTP codec (the
//!   incremental server-side request parser and response encoder,
//!   plus the client's blocking request writer and response reader)
//!   and the JSON wire schema (shared `updp_core::json`
//!   implementation);
//! * [`server`] / [`poll`] — routing plus the sharded epoll reactor
//!   (DESIGN.md §10): `--workers` event-loop shards over non-blocking
//!   sockets, bounded write queues with structured 503 backpressure,
//!   and event-driven shutdown; [`poll`] is the one audited unsafe
//!   module (the raw epoll syscall shim);
//! * [`client`] — the blocking client used by `serve-client`, the
//!   e2e tests, and the benchmark driver (`perfbench/`);
//! * `metrics` — the flight recorder (DESIGN.md §11): per-shard
//!   reactor counters, per-endpoint latency histograms, per-estimator
//!   engine timings and per-dataset ε gauges over [`updp_obs`],
//!   exposed at `GET /v1/metrics` (Prometheus text or JSON) with a
//!   bounded per-shard request trace at `GET /v1/trace`. Strictly
//!   observe-only: released bytes are bit-identical with metrics on
//!   or off.
//!
//! Binaries: `updp-serve` (the server) and `serve-client` (scripted
//! queries). Throughput and latency are measured out of process by
//! the repository benchmark (`perfbench/`, declared in
//! `BENCHMARK.json`).

#![warn(missing_docs)]
// `deny` rather than `forbid`: the one audited exception is the epoll
// syscall shim ([`poll`]), which opts back in at module level with
// `// SAFETY:` comments on every unsafe block (clippy's
// `undocumented_unsafe_blocks` enforces the comments). Everything else
// in the crate still refuses unsafe.
#![deny(unsafe_code)]
// Reserve before estimate and child-seeded generators (this crate's
// clippy.toml, DESIGN.md §6.2/§9), and no prints in library code.
// Test builds and binaries are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::print_stdout, clippy::print_stderr)
)]

pub mod client;
pub mod engine;
pub mod http;
pub mod ledger;
pub(crate) mod metrics;
pub mod poll;
pub(crate) mod reactor;
pub mod registry;
pub mod server;
pub mod wire;

pub use engine::{EstimatorCatalog, QueryOutcome, QuerySpec, ReleaseMode};
pub use ledger::Ledger;
pub use registry::{FlushPolicy, Registry};
pub use server::{DrainSummary, Server, ServerConfig};
