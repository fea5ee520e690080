//! Network-architecture specifications and builders (paper §IV.A).
//!
//! * **MLP** — "three hidden layers. Each hidden layer is fully connected
//!   and contains 1,024 neurons with a Relu activation function. The output
//!   layer consists of 64 neurons with a Linear activation".
//! * **CNN** — "two blocks of convolutional layers followed by three fully
//!   connected layers. Each convolutional layer block was composed of two
//!   convolutional layers followed by a MaxPooling layer"; dense head as in
//!   the MLP.
//! * **ResMLP** — the §VII ResNet suggestion, for the architecture
//!   ablation.
//!
//! Kernel size (3×3) and channel counts are not given in the paper; the
//! choices here are recorded in DESIGN.md as inferred defaults.

use bytes::{Buf, BufMut};
use dlpic_nn::init::Init;
use dlpic_nn::layer::Layer;
use dlpic_nn::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu, ResidualDense};
use dlpic_nn::network::Sequential;

/// How the phase-space histogram is presented to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Flattened `[batch, nv·nx]` vector (MLP).
    Flat,
    /// Single-channel image `[batch, 1, nv, nx]` (CNN).
    Image,
}

/// One row of an architecture's layer table ([`ArchSpec::layers`]): the
/// layer, its shape and how its weights start.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LayerSpec {
    Dense {
        input: usize,
        output: usize,
        init: Init,
        seed: u64,
    },
    Conv2d {
        ic: usize,
        oc: usize,
        kernel: usize,
        init: Init,
        seed: u64,
    },
    ResidualDense {
        width: usize,
        init: Init,
        seed: u64,
    },
    Relu,
    MaxPool2,
    Flatten,
}

impl LayerSpec {
    fn build(self) -> Box<dyn Layer> {
        match self {
            Self::Dense {
                input,
                output,
                init,
                seed,
            } => Box::new(Dense::new(input, output, init, seed)),
            Self::Conv2d {
                ic,
                oc,
                kernel,
                init,
                seed,
            } => Box::new(Conv2d::new(ic, oc, kernel, init, seed)),
            Self::ResidualDense { width, init, seed } => {
                Box::new(ResidualDense::new(width, init, seed))
            }
            Self::Relu => Box::new(Relu::new()),
            Self::MaxPool2 => Box::new(MaxPool2::new()),
            Self::Flatten => Box::new(Flatten::new()),
        }
    }

    /// The built layer's [`Layer::name`].
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Dense { .. } => "dense",
            Self::Conv2d { .. } => "conv2d",
            Self::ResidualDense { .. } => "residual-dense",
            Self::Relu => "relu",
            Self::MaxPool2 => "maxpool2",
            Self::Flatten => "flatten",
        }
    }

    /// Lengths of the layer's weight and bias tensors, in the order the
    /// parameter blob stores them (`None`: the layer has no parameters).
    fn param_lens(self) -> Option<[usize; 2]> {
        match self {
            Self::Dense { input, output, .. } => Some([input * output, output]),
            Self::Conv2d { ic, oc, kernel, .. } => Some([oc * ic * kernel * kernel, oc]),
            Self::ResidualDense { width, .. } => Some([width * width, width]),
            Self::Relu | Self::MaxPool2 | Self::Flatten => None,
        }
    }
}

/// A serializable description of a network architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchSpec {
    /// Fully connected: `input → hidden… (ReLU) → output (linear)`.
    Mlp {
        /// Input width (`nv·nx`).
        input: usize,
        /// Hidden-layer widths.
        hidden: Vec<usize>,
        /// Output width (grid cells; 64 in the paper).
        output: usize,
    },
    /// Two conv blocks `[conv, conv, pool]` with ReLU, then a dense head.
    Cnn {
        /// Velocity bins of the input image.
        nv: usize,
        /// Position bins of the input image.
        nx: usize,
        /// Channels of (block 1, block 2).
        channels: (usize, usize),
        /// Square kernel size (odd).
        kernel: usize,
        /// Dense-head hidden widths.
        hidden: Vec<usize>,
        /// Output width.
        output: usize,
    },
    /// Residual MLP: input projection, `blocks` residual dense blocks,
    /// linear output.
    ResMlp {
        /// Input width.
        input: usize,
        /// Residual-block width.
        width: usize,
        /// Number of residual blocks.
        blocks: usize,
        /// Output width.
        output: usize,
    },
}

impl ArchSpec {
    /// The paper's MLP at full scale for a `nv·nx` input: 3×1024 hidden,
    /// 64 outputs.
    pub fn paper_mlp(input: usize, output: usize) -> Self {
        ArchSpec::Mlp {
            input,
            hidden: vec![1024, 1024, 1024],
            output,
        }
    }

    /// The paper's CNN at full scale: blocks of (16, 32) channels, 3×3
    /// kernels, 3×1024 dense head.
    pub fn paper_cnn(nv: usize, nx: usize, output: usize) -> Self {
        ArchSpec::Cnn {
            nv,
            nx,
            channels: (16, 32),
            kernel: 3,
            hidden: vec![1024, 1024, 1024],
            output,
        }
    }

    /// How inputs must be shaped for this architecture.
    pub fn input_kind(&self) -> InputKind {
        match self {
            ArchSpec::Cnn { .. } => InputKind::Image,
            _ => InputKind::Flat,
        }
    }

    /// Input element count (`nv·nx` for images).
    pub fn input_len(&self) -> usize {
        match self {
            ArchSpec::Mlp { input, .. } | ArchSpec::ResMlp { input, .. } => *input,
            ArchSpec::Cnn { nv, nx, .. } => nv * nx,
        }
    }

    /// Output width.
    pub fn output_len(&self) -> usize {
        match self {
            ArchSpec::Mlp { output, .. }
            | ArchSpec::Cnn { output, .. }
            | ArchSpec::ResMlp { output, .. } => *output,
        }
    }

    /// Short name for tables and file names.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ArchSpec::Mlp { .. } => "mlp",
            ArchSpec::Cnn { .. } => "cnn",
            ArchSpec::ResMlp { .. } => "resmlp",
        }
    }

    /// Trainable parameter count of the network [`Self::build`] would
    /// construct (weights + biases), layer by layer. Drives memory-budget
    /// estimates: an f32 network occupies `4 * param_count()` bytes of
    /// weight storage.
    pub fn param_count(&self) -> usize {
        self.param_lens().iter().sum()
    }

    /// Lengths of the network's parameter tensors, in the order a
    /// parameter blob stores them.
    pub(crate) fn param_lens(&self) -> Vec<usize> {
        self.layers(None)
            .into_iter()
            .filter_map(LayerSpec::param_lens)
            .flatten()
            .collect()
    }

    /// Builds the network with deterministic initialization from `seed`.
    ///
    /// # Panics
    /// Panics for invalid geometry (e.g. CNN spatial dims not divisible by
    /// 4 — two pooling stages).
    pub fn build(&self, seed: u64) -> Sequential {
        self.build_with(Some(seed))
    }

    /// Builds the network of [`Self::layers`]`(seed)`: He/Glorot-initialised
    /// from `seed`, or, with `None`, zero-initialised — for a network whose
    /// every parameter is restored right after, which then skips drawing
    /// millions of random weights for nothing.
    ///
    /// # Panics
    /// As [`Self::build`].
    pub(crate) fn build_with(&self, seed: Option<u64>) -> Sequential {
        if let ArchSpec::Cnn { nv, nx, .. } = self {
            assert!(
                nv % 4 == 0 && nx % 4 == 0,
                "CNN needs spatial dims divisible by 4 (two pools), got {nv}x{nx}"
            );
        }
        let mut net = Sequential::new();
        for layer in self.layers(seed) {
            net.push_boxed(layer.build());
        }
        net
    }

    /// The one architecture table: the network's layers in order, with
    /// their shapes and their initialisation from `seed` (`None`: zeros).
    /// [`Self::build_with`] builds it; `ModelBundle::freeze` freezes it
    /// straight from a bundle's parameter bytes.
    pub(crate) fn layers(&self, seed: Option<u64>) -> Vec<LayerSpec> {
        let init = |scheme: Init| if seed.is_some() { scheme } else { Init::Zeros };
        let seed = seed.unwrap_or(0);
        let dense = |input: usize, output: usize, scheme: Init, seed: u64| LayerSpec::Dense {
            input,
            output,
            init: init(scheme),
            seed,
        };
        let mut layers = Vec::new();
        match self {
            ArchSpec::Mlp {
                input,
                hidden,
                output,
            } => {
                let mut prev = *input;
                for (i, &h) in hidden.iter().enumerate() {
                    layers.push(dense(prev, h, Init::HeNormal, seed + i as u64));
                    layers.push(LayerSpec::Relu);
                    prev = h;
                }
                layers.push(dense(
                    prev,
                    *output,
                    Init::GlorotUniform,
                    seed + hidden.len() as u64,
                ));
            }
            ArchSpec::Cnn {
                nv,
                nx,
                channels,
                kernel,
                hidden,
                output,
            } => {
                let (c1, c2) = *channels;
                let mut s = seed;
                let mut conv = |layers: &mut Vec<LayerSpec>, ic: usize, oc: usize| {
                    layers.push(LayerSpec::Conv2d {
                        ic,
                        oc,
                        kernel: *kernel,
                        init: init(Init::HeNormal),
                        seed: s,
                    });
                    layers.push(LayerSpec::Relu);
                    s += 1;
                };
                // Block 1.
                conv(&mut layers, 1, c1);
                conv(&mut layers, c1, c1);
                layers.push(LayerSpec::MaxPool2);
                // Block 2.
                conv(&mut layers, c1, c2);
                conv(&mut layers, c2, c2);
                layers.push(LayerSpec::MaxPool2);
                layers.push(LayerSpec::Flatten);
                // Dense head.
                let mut prev = c2 * (nv / 4) * (nx / 4);
                for &h in hidden {
                    layers.push(dense(prev, h, Init::HeNormal, s));
                    layers.push(LayerSpec::Relu);
                    s += 1;
                    prev = h;
                }
                layers.push(dense(prev, *output, Init::GlorotUniform, s));
            }
            ArchSpec::ResMlp {
                input,
                width,
                blocks,
                output,
            } => {
                layers.push(dense(*input, *width, Init::HeNormal, seed));
                layers.push(LayerSpec::Relu);
                for i in 0..*blocks {
                    layers.push(LayerSpec::ResidualDense {
                        width: *width,
                        init: init(Init::HeNormal),
                        seed: seed + 1 + i as u64,
                    });
                }
                layers.push(dense(
                    *width,
                    *output,
                    Init::GlorotUniform,
                    seed + 1 + *blocks as u64,
                ));
            }
        }
        layers
    }

    /// Binary encoding (for model bundles).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ArchSpec::Mlp {
                input,
                hidden,
                output,
            } => {
                buf.put_u8(0);
                buf.put_u32_le(*input as u32);
                buf.put_u32_le(hidden.len() as u32);
                for &h in hidden {
                    buf.put_u32_le(h as u32);
                }
                buf.put_u32_le(*output as u32);
            }
            ArchSpec::Cnn {
                nv,
                nx,
                channels,
                kernel,
                hidden,
                output,
            } => {
                buf.put_u8(1);
                buf.put_u32_le(*nv as u32);
                buf.put_u32_le(*nx as u32);
                buf.put_u32_le(channels.0 as u32);
                buf.put_u32_le(channels.1 as u32);
                buf.put_u32_le(*kernel as u32);
                buf.put_u32_le(hidden.len() as u32);
                for &h in hidden {
                    buf.put_u32_le(h as u32);
                }
                buf.put_u32_le(*output as u32);
            }
            ArchSpec::ResMlp {
                input,
                width,
                blocks,
                output,
            } => {
                buf.put_u8(2);
                buf.put_u32_le(*input as u32);
                buf.put_u32_le(*width as u32);
                buf.put_u32_le(*blocks as u32);
                buf.put_u32_le(*output as u32);
            }
        }
    }

    /// Binary decoding. Returns `None` for a malformed buffer.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        let tag = buf.get_u8();
        let get = |buf: &mut &[u8]| -> Option<usize> {
            if buf.remaining() < 4 {
                None
            } else {
                Some(buf.get_u32_le() as usize)
            }
        };
        match tag {
            0 => {
                let input = get(buf)?;
                let n = get(buf)?;
                if n > 64 {
                    return None; // sanity bound
                }
                let mut hidden = Vec::with_capacity(n);
                for _ in 0..n {
                    hidden.push(get(buf)?);
                }
                let output = get(buf)?;
                Some(ArchSpec::Mlp {
                    input,
                    hidden,
                    output,
                })
            }
            1 => {
                let nv = get(buf)?;
                let nx = get(buf)?;
                let c1 = get(buf)?;
                let c2 = get(buf)?;
                let kernel = get(buf)?;
                let n = get(buf)?;
                if n > 64 {
                    return None;
                }
                let mut hidden = Vec::with_capacity(n);
                for _ in 0..n {
                    hidden.push(get(buf)?);
                }
                let output = get(buf)?;
                Some(ArchSpec::Cnn {
                    nv,
                    nx,
                    channels: (c1, c2),
                    kernel,
                    hidden,
                    output,
                })
            }
            2 => {
                let input = get(buf)?;
                let width = get(buf)?;
                let blocks = get(buf)?;
                let output = get(buf)?;
                Some(ArchSpec::ResMlp {
                    input,
                    width,
                    blocks,
                    output,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_nn::tensor::Tensor;

    #[test]
    fn paper_mlp_has_stated_structure() {
        let spec = ArchSpec::paper_mlp(64 * 64, 64);
        let mut net = spec.build(0);
        // 3 hidden ReLU pairs + output = 7 layers.
        assert_eq!(net.len(), 7);
        // Parameter count: 4096·1024 + 1024 + 2·(1024² + 1024) + 1024·64 + 64.
        let expect = 4096 * 1024 + 1024 + 2 * (1024 * 1024 + 1024) + 1024 * 64 + 64;
        assert_eq!(net.param_count(), expect);
        let y = net.predict(&Tensor::zeros(&[1, 4096]));
        assert_eq!(y.shape(), &[1, 64]);
    }

    #[test]
    fn param_count_matches_built_network() {
        let specs = [
            ArchSpec::paper_mlp(64 * 64, 64),
            ArchSpec::Mlp {
                input: 48,
                hidden: vec![32, 32],
                output: 16,
            },
            ArchSpec::Cnn {
                nv: 16,
                nx: 16,
                channels: (4, 8),
                kernel: 3,
                hidden: vec![32, 32, 32],
                output: 64,
            },
            ArchSpec::ResMlp {
                input: 64,
                width: 48,
                blocks: 3,
                output: 16,
            },
        ];
        for spec in specs {
            assert_eq!(
                spec.param_count(),
                spec.build(0).param_count(),
                "{}: spec-level count disagrees with the built network",
                spec.kind_name()
            );
        }
    }

    /// The load path's zeroed build has exactly the seeded build's
    /// parameter layout (so a restore fills it the same way), the table's
    /// layout, and no weight.
    #[test]
    fn zeroed_build_has_the_seeded_layout_and_zero_weights() {
        let specs = [
            ArchSpec::Mlp {
                input: 48,
                hidden: vec![32, 32],
                output: 16,
            },
            ArchSpec::Cnn {
                nv: 8,
                nx: 8,
                channels: (2, 4),
                kernel: 3,
                hidden: vec![16],
                output: 8,
            },
            ArchSpec::ResMlp {
                input: 24,
                width: 16,
                blocks: 2,
                output: 8,
            },
        ];
        let layout = |net: &mut Sequential| {
            let mut lens = Vec::new();
            net.visit_params(&mut |p, _| lens.push(p.len()));
            lens
        };
        for spec in specs {
            let mut zeroed = spec.build_with(None);
            assert_eq!(layout(&mut zeroed), layout(&mut spec.build(7)));
            // ...which is the table's, the layout a frozen load decodes to.
            assert_eq!(layout(&mut zeroed), spec.param_lens());
            zeroed.visit_params(&mut |p, _| assert!(p.iter().all(|v| v.to_bits() == 0)));
        }
    }

    #[test]
    fn paper_cnn_shape_flow() {
        let spec = ArchSpec::Cnn {
            nv: 16,
            nx: 16,
            channels: (4, 8),
            kernel: 3,
            hidden: vec![32, 32, 32],
            output: 64,
        };
        let mut net = spec.build(1);
        let y = net.predict(&Tensor::zeros(&[2, 1, 16, 16]));
        assert_eq!(y.shape(), &[2, 64]);
        assert_eq!(spec.input_kind(), InputKind::Image);
        assert_eq!(spec.input_len(), 256);
    }

    #[test]
    fn resmlp_builds_and_runs() {
        let spec = ArchSpec::ResMlp {
            input: 64,
            width: 32,
            blocks: 2,
            output: 16,
        };
        let mut net = spec.build(3);
        let y = net.predict(&Tensor::zeros(&[1, 64]));
        assert_eq!(y.shape(), &[1, 16]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let specs = [
            ArchSpec::paper_mlp(1024, 64),
            ArchSpec::Cnn {
                nv: 32,
                nx: 32,
                channels: (8, 16),
                kernel: 3,
                hidden: vec![128, 128, 128],
                output: 64,
            },
            ArchSpec::ResMlp {
                input: 256,
                width: 64,
                blocks: 3,
                output: 64,
            },
        ];
        for spec in specs {
            let mut buf = Vec::new();
            spec.encode(&mut buf);
            let mut slice = buf.as_slice();
            let decoded = ArchSpec::decode(&mut slice).unwrap();
            assert_eq!(decoded, spec);
            assert!(slice.is_empty(), "trailing bytes after decode");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut garbage: &[u8] = &[9, 1, 2, 3];
        assert!(ArchSpec::decode(&mut garbage).is_none());
        let mut empty: &[u8] = &[];
        assert!(ArchSpec::decode(&mut empty).is_none());
    }

    #[test]
    fn deterministic_build() {
        let spec = ArchSpec::Mlp {
            input: 8,
            hidden: vec![4],
            output: 2,
        };
        let mut a = spec.build(5);
        let mut b = spec.build(5);
        let x = Tensor::full(&[1, 8], 0.5);
        assert_eq!(a.predict(&x).data(), b.predict(&x).data());
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn cnn_rejects_unpoolable_dims() {
        let spec = ArchSpec::Cnn {
            nv: 6,
            nx: 16,
            channels: (2, 2),
            kernel: 3,
            hidden: vec![8],
            output: 4,
        };
        let _ = spec.build(0);
    }
}
