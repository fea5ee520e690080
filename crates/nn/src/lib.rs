//! # dlpic-nn
//!
//! A from-scratch neural-network library: the substitute for the
//! TensorFlow/Keras substrate of Aguilar & Markidis (CLUSTER 2021).
//!
//! It implements exactly what the paper's §IV.A requires — and is validated
//! far more aggressively than a paper appendix would be:
//!
//! * dense and convolutional layers with hand-written backprop, checked
//!   against central finite differences (the `gradcheck` tests);
//! * ReLU / max-pool / flatten / residual blocks;
//! * MSE loss and [`optimizer::Adam`] (the paper's optimizer, lr 1e-4,
//!   batch 64);
//! * a deterministic mini-batch [`trainer`] with shuffling and validation
//!   tracking;
//! * MAE / max-error [`metrics`] (the paper's Table I columns);
//! * parameter [`serialize`] for model persistence.
//!
//! Each layer pass has one implementation. A
//! [`Layer`] runs inference, the training forward and backprop into
//! caller-owned tensors (`infer_into`, `train_forward_into`,
//! `backward_into`), so a warm buffer makes each pass allocation-free; a
//! [`FrozenModel`]'s layers call the same dense / relu / flatten
//! functions, and [`Sequential`] and [`FrozenModel`] share one ping-pong
//! inference loop ([`frozen`]) — which is why a frozen f32 model is
//! bit-identical to the network it came from.
//!
//! The GEMM kernels in [`linalg`] are hand-tiled — explicit AVX-512
//! register tiles where the machine has them, portable tiles LLVM
//! vectorizes elsewhere — and serial: every single [`FrozenModel`]
//! inference runs on the calling thread. A frozen model is immutable and
//! `Sync`, though, and its kernels are row-stable, so a fleet uses every
//! core by giving each member of the worker team ([`dlpic_team`]) whole rows of the
//! cohort to take through the one shared model — bit-identical to the
//! whole batch on one thread. Training uses the team the same way: a
//! dense layer's training GEMMs are cut into runs of output rows and
//! Adam's update into runs of parameters, each element computed as on
//! one thread, so the trained bits do not depend on the team's size. Activations and
//! accumulation are `f32` throughout (weights optionally [`bf16`]),
//! matching common DL-framework defaults.

#![warn(missing_docs)]

pub mod bf16;
pub mod data;
pub mod frozen;
#[cfg(test)]
mod gradcheck;
pub mod init;
pub mod layer;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod serialize;
pub mod tensor;
pub mod trainer;

pub use data::Dataset;
pub use frozen::{FreezeError, FrozenModel, Precision};
pub use init::Init;
pub use layer::Layer;
pub use layers::{Conv2d, Dense, Flatten, MaxPool2, Relu, ResidualDense};
pub use loss::{Loss, Mse};
pub use network::{PredictWorkspace, Sequential};
pub use optimizer::Adam;
pub use tensor::Tensor;
pub use trainer::{train, TrainConfig, TrainHistory};
