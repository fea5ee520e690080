//! # dlpic-dataset
//!
//! The DL data path of the reproduction (paper §IV.A.1–2), written once
//! for both dimensions:
//!
//! * [`spec`] — the parameter sweeps: the paper's 20 (v0, vth) training
//!   combinations × 10 seeded "augmentation" experiments × 200 steps
//!   (40,000 samples), and the unseen-parameter sweep behind Test Set II.
//!   The 2-D quick-train harvests a one-combo sweep of the same type.
//! * [`generator`] — the one harvest loop: runs a traditional PIC
//!   simulation in either dimension and records (input histogram,
//!   electric field) pairs each step; `generate` runs it over a 1-D sweep.
//! * [`sample`] — the in-memory sample store (1-D phase-space or 2-D
//!   density histograms), convertible into trainable `dlpic-nn` tensors
//!   for either MLP (flat) or CNN (image) inputs.
//! * [`trainer`] — the one trainer: builds the network, runs Adam and
//!   records the reference mass a bundle carries.
//! * [`split`] — the paper's shuffle + 38k/1k/1k-proportion split.
//! * [`store`] — packed binary persistence.
//! * [`stats`] — dataset inspection ("no numerical instability or
//!   artifacts").
//! * [`vlasov_bridge`] — noise-free training data from the continuum
//!   Vlasov solver (paper §VII future-work path).

#![warn(missing_docs)]

pub mod generator;
pub mod sample;
pub mod spec;
pub mod split;
pub mod stats;
pub mod store;
pub mod trainer;
pub mod vlasov_bridge;

pub use generator::{generate, harvest, Capture, GeneratorConfig};
pub use sample::PhaseDataset;
pub use spec::{SweepCombo, SweepSpec};
pub use split::{shuffle_split, SplitSizes};
pub use trainer::{fit, Trained};
