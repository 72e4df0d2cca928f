//! First-party observability for the workspace: lock-free metric
//! primitives, the [`FamilySnapshot`] a scrape builds from them, one
//! renderer per scrape format ([`render_prometheus`], [`render_json`])
//! over such snapshots, and bounded request-trace rings.
//!
//! The code that records a metric owns it and builds its family at
//! scrape time. Every label set is known when it allocates the
//! metrics, so recording only touches atomics.
//!
//! # Design constraints
//!
//! The serving stack (DESIGN.md §10/§11) has a hard determinism
//! contract: released bytes must be a pure function of
//! `(snapshot version, estimator, params, seed)`. Observability must
//! therefore be strictly *observe-only* — nothing recorded here may
//! ever feed back into request handling. This crate enforces its half
//! of that contract structurally:
//!
//! - **Clock-free.** No `Instant`, no `SystemTime` anywhere in this
//!   crate. Durations and timestamps arrive as plain `u64`
//!   microseconds/milliseconds measured by the caller (transport code
//!   in updp-serve); `updp-obs` only aggregates values it is handed.
//! - **Non-throwing.** Recording never panics and never returns
//!   errors; a trace ring's poisoned lock degrades to dropping the
//!   event rather than taking the request path down.
//! - **Deterministic rendering.** Histogram bucket boundaries are
//!   fixed powers of two, and families and their samples render in
//!   the order of the snapshot list, so two snapshots of equal state
//!   produce byte-equal exposition text.
//!
//! The crate is dependency-free except for `updp_core::json`, the
//! workspace's single JSON codec, used for the `?format=json` render.

#![forbid(unsafe_code)]
// Clock-free and hash-order-free by construction, enforced by the root
// clippy.toml lists (DESIGN.md §9, §11); no prints in library code.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

mod metrics;
mod render;
mod trace;

pub use metrics::{Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use render::{render_json, render_prometheus, FamilySnapshot, Kind, Sample};
pub use trace::{TraceEvent, TraceRing};
