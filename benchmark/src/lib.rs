//! The one benchmark of the served DL-PIC step.
//!
//! Six workloads, four gated end-to-end metrics and a per-layer profile
//! measured by a separate traced pass — see `README.md` for the glossary
//! and `BENCHMARK.json` (repository root) for the contract the driver
//! reads. Two binaries share this library:
//!
//! * `bench` — end-to-end: one workload per process, outputs checked
//!   before anything is timed. Like this library it reaches the product
//!   only through `dlpic_repro::{engine, core::{Scale, ModelBundle},
//!   dataset, nn::{trainer, Adam, Mse}, analytics}` and
//!   `dlpic_serve::{client, job, server}` (plus the `ServeError` those
//!   return), so a refactor that keeps the
//!   facade cannot break the gate.
//! * `trace` — the traced pass: re-drives the same inputs through the
//!   layers' public functions with spans on and adds kernel probes into
//!   `pic`/`core`/`nn`.

pub mod cli;
pub mod metrics;
pub mod model;
pub mod report;
pub mod served;
pub mod spans;
pub mod stats;
pub mod workloads;
