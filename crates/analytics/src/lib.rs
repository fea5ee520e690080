//! # dlpic-analytics
//!
//! Analysis toolkit for the DL-PIC reproduction of Aguilar & Markidis,
//! *"A Deep Learning-Based Particle-in-Cell Method for Plasma Simulations"*
//! (IEEE CLUSTER 2021).
//!
//! This crate is dependency-free and provides everything needed to turn raw
//! simulation output into the quantities the paper reports:
//!
//! * [`complex`] — a minimal `Complex64` type (no external num crate).
//! * [`dft`] — radix-2 FFT and a naive DFT reference, plus helpers to
//!   extract per-mode field amplitudes (the `E1` series of the paper's
//!   Fig. 4).
//! * [`dft2`] — separable 2-D FFT and 2-D mode amplitudes, the substrate of
//!   the 2-D extension (paper §VII).
//! * [`dispersion`] — the two-stream kinetic dispersion relation for two
//!   symmetric cold beams; produces the "Linear Theory" growth-rate line of
//!   Fig. 4 and the stability boundary used by the cold-beam experiment of
//!   Fig. 6.
//! * [`fit`] — log-linear growth-rate fitting with automatic selection of
//!   the exponential-growth window, and the damping rate and frequency of
//!   a damped oscillation's envelope.
//! * [`series`] — time-series recording and CSV export.
//! * [`stats`] — small statistics helpers (MAE, max error, variation).
//! * [`plot`] — ASCII line plots / scatter densities / heatmaps used by the
//!   experiment binaries to render figure-equivalents in the terminal.

#![warn(missing_docs)]

pub mod complex;
pub mod dft;
pub mod dft2;
pub mod dispersion;
pub mod fit;
pub mod plot;
pub mod series;
pub mod stats;

pub use complex::Complex64;
pub use dispersion::TwoStreamDispersion;
pub use fit::GrowthFit;
pub use series::TimeSeries;
