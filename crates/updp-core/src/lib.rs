//! # updp-core — differential-privacy primitives
//!
//! The substrate layer of the *Universal Private Estimators* reproduction
//! (Dong & Yi, PODS 2023). This crate implements every DP building block
//! used by the paper:
//!
//! * [`privacy`] — validated ε/δ types and budget splitting (basic
//!   composition, Lemma 2.2);
//! * [`laplace`] — the Laplace mechanism (Lemma 2.3) and tail bounds;
//! * [`svt`] — the Sparse Vector Technique (Algorithm 1; Lemmas 2.5–2.6)
//!   over lazily-evaluated, possibly infinite query streams;
//! * [`exponential`] — the Gumbel variates behind the exponential
//!   mechanism's log-space Gumbel-max sampling;
//! * [`inverse_sensitivity`] — the inverse sensitivity mechanism and
//!   `FiniteDomainQuantile` (Algorithm 2; Lemmas 2.7–2.8);
//! * [`clipped_mean`] — the clipped mean estimator (Section 2.6);
//! * [`amplification`] — privacy amplification by subsampling
//!   (Theorem 2.4);
//! * [`snapping`] — Mironov's floating-point-safe snapped Laplace
//!   release (hardening extension);
//! * [`rng`] — deterministic seeding utilities for reproducible
//!   experiments;
//! * [`json`] — the workspace's single first-party JSON writer/parser
//!   (report schemas, the serving wire format, ledger snapshots);
//! * [`parallel`] — deterministic parallel map for embarrassingly
//!   parallel trial workloads (chunked work-stealing over
//!   `std::thread::scope`, bit-identical to the serial loop at any
//!   thread count; DESIGN.md §5).
//!
//! Everything downstream (`updp-empirical`, `updp-statistical`,
//! `updp-baselines`) is built from these pieces; no other crate touches
//! raw noise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Determinism contracts (DESIGN.md §9): no clocks, environment reads,
// hash-ordered collections or ad-hoc seeding (the lists live in the
// root clippy.toml), and no prints in library code. Test builds and
// binaries are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod amplification;
pub mod clipped_mean;
pub mod error;
pub mod exponential;
pub mod inverse_sensitivity;
pub mod json;
pub mod laplace;
pub mod parallel;
pub mod privacy;
pub mod rng;
pub mod snapping;
pub mod svt;

pub use error::{Result, UpdpError};
pub use privacy::{Delta, Epsilon};
