//! Optimizers: [`Adam`] with learning rate 1e-4 is the paper's training
//! configuration (§IV.A), and the only one the trainer takes.

pub mod adam;

pub use adam::Adam;
