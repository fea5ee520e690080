//! Model bundles: everything needed to reconstruct a DL field solver.
//!
//! A trained solver is more than network weights — reproducing the paper's
//! inference step requires the architecture, the phase-grid geometry, the
//! binning order and the training-set normalization statistics (Eq. 5).
//! [`ModelBundle`] packages all of them into one self-describing binary
//! blob so experiment binaries can train once and reload. It is the 1-D
//! model *file*; what runs is the [`FrozenBundle`] it loads into without a
//! trainable network ([`ModelBundle::freeze`]), whose
//! [`FrozenBundle::solver`]s share one weight allocation.

use crate::builder::{ArchSpec, LayerSpec};
use crate::field_solver::FrozenBundle;
use crate::normalize::NormStats;
use crate::phase_space::{BinningShape, PhaseGridSpec};
use bytes::{Buf, BufMut};
use dlpic_nn::frozen::{FreezeError, FrozenLayer, FrozenModel, Precision};
use dlpic_nn::network::Sequential;
use dlpic_nn::serialize::{param_values, params_to_bytes, tensors_from_bytes};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DLPB";
/// v3 appends one inference-precision byte; v2 bundles (no byte) still
/// decode, as f32.
const VERSION: u32 = 3;
const V2: u32 = 2;

/// A complete, serializable trained model.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Network architecture.
    pub arch: ArchSpec,
    /// Phase-grid geometry the model was trained on.
    pub spec: PhaseGridSpec,
    /// Binning order used to build training histograms.
    pub binning: BinningShape,
    /// Training-set normalization statistics.
    pub norm: NormStats,
    /// Total mass (= particle count) of the training histograms; 0 means
    /// "unknown" and disables inference-time mass rescaling.
    pub reference_mass: f32,
    /// Serialized network parameters (`dlpic_nn::serialize` format —
    /// always full-precision f32, regardless of `precision`). Immutable
    /// and shared: a clone of the bundle takes another handle on the same
    /// blob rather than copying it.
    pub params: Arc<Vec<u8>>,
    /// Weight storage precision [`Self::freeze`] snapshots into. The
    /// serialized `params` stay f32 either way, so the choice is
    /// revisable after the fact; bf16 is opt-in per bundle and gated on
    /// physics tolerance by callers.
    pub precision: Precision,
}

/// Bundle (de)serialization failure. Cloneable, so an engine can hand the
/// same refusal to every session it is asked to start.
#[derive(Debug, Clone)]
pub enum BundleError {
    /// Not a bundle / wrong version / truncated.
    Malformed(&'static str),
    /// The parameter blob does not fit the declared architecture.
    Params(dlpic_nn::serialize::SerializeError),
    /// The architecture has a layer without a frozen inference form.
    Freeze(FreezeError),
    /// Filesystem error.
    Io(Arc<std::io::Error>),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(what) => write!(f, "malformed model bundle: {what}"),
            Self::Params(e) => write!(f, "parameter restore failed: {e}"),
            Self::Freeze(e) => write!(f, "bundle cannot be frozen: {e}"),
            Self::Io(e) => write!(f, "bundle I/O failed: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(Arc::new(e))
    }
}

impl ModelBundle {
    /// Captures a trained network into a bundle.
    pub fn from_network(
        net: &mut Sequential,
        arch: ArchSpec,
        spec: PhaseGridSpec,
        binning: BinningShape,
        norm: NormStats,
    ) -> Self {
        Self {
            params: Arc::new(params_to_bytes(net)),
            arch,
            spec,
            binning,
            norm,
            reference_mass: 0.0,
            precision: Precision::F32,
        }
    }

    /// Builder-style setter for the training histogram mass (see
    /// [`FrozenBundle::with_reference_mass`]).
    pub fn with_reference_mass(mut self, mass: f32) -> Self {
        self.reference_mass = mass;
        self
    }

    /// Builder-style setter for the inference weight precision (see the
    /// `precision` field; the stored parameters stay f32).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Serializes the bundle.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.params.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        self.arch.encode(&mut buf);
        buf.put_u32_le(self.spec.nx as u32);
        buf.put_u32_le(self.spec.nv as u32);
        buf.put_f64_le(self.spec.vmin);
        buf.put_f64_le(self.spec.vmax);
        buf.put_u8(match self.binning {
            BinningShape::Ngp => 0,
            BinningShape::Cic => 1,
        });
        buf.put_f32_le(self.norm.min);
        buf.put_f32_le(self.norm.max);
        buf.put_f32_le(self.reference_mass);
        buf.put_u8(match self.precision {
            Precision::F32 => 0,
            Precision::Bf16 => 1,
        });
        buf.put_u64_le(self.params.len() as u64);
        buf.put_slice(&self.params);
        buf
    }

    /// Deserializes a bundle, copying its parameter region out of `bytes`
    /// once ([`Self::load`] keeps the file's own buffer instead).
    pub fn decode(bytes: &[u8]) -> Result<Self, BundleError> {
        let (bundle, params) = Self::decode_in_place(bytes)?;
        Ok(Self {
            params: Arc::new(bytes[params].to_vec()),
            ..bundle
        })
    }

    /// The one decoder: every field of the bundle but its parameter blob,
    /// and where that blob sits in `bytes` — checked to be a finite
    /// parameter blob, not copied. The returned bundle's `params` is empty.
    fn decode_in_place(bytes: &[u8]) -> Result<(Self, Range<usize>), BundleError> {
        let mut buf = bytes;
        if buf.remaining() < 8 {
            return Err(BundleError::Malformed("truncated header"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(BundleError::Malformed("bad magic"));
        }
        let version = buf.get_u32_le();
        if version != VERSION && version != V2 {
            return Err(BundleError::Malformed("unsupported version"));
        }
        let arch =
            ArchSpec::decode(&mut buf).ok_or(BundleError::Malformed("bad architecture spec"))?;
        let precision_bytes = if version >= VERSION { 1 } else { 0 };
        if buf.remaining() < 4 + 4 + 8 + 8 + 1 + 4 + 4 + 4 + precision_bytes + 8 {
            return Err(BundleError::Malformed("truncated metadata"));
        }
        let nx = buf.get_u32_le() as usize;
        let nv = buf.get_u32_le() as usize;
        let vmin = buf.get_f64_le();
        let vmax = buf.get_f64_le();
        // NaN-rejecting form: `vmax <= vmin` would accept NaN bounds. An
        // infinite window passes that test but makes `dv` infinite.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if nx == 0 || nv == 0 || !(vmax > vmin) || !(vmax - vmin).is_finite() {
            return Err(BundleError::Malformed("bad phase-grid geometry"));
        }
        let binning = match buf.get_u8() {
            0 => BinningShape::Ngp,
            1 => BinningShape::Cic,
            _ => return Err(BundleError::Malformed("bad binning tag")),
        };
        let norm = NormStats {
            min: buf.get_f32_le(),
            max: buf.get_f32_le(),
        };
        if !norm.is_finite() {
            return Err(BundleError::Malformed("bad normalization"));
        }
        let reference_mass = buf.get_f32_le();
        // NaN-rejecting form: `reference_mass < 0.0` would accept NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(reference_mass >= 0.0) {
            return Err(BundleError::Malformed("bad reference mass"));
        }
        // v2 predates the precision byte: those bundles are f32.
        let precision = if version >= VERSION {
            match buf.get_u8() {
                0 => Precision::F32,
                1 => Precision::Bf16,
                _ => return Err(BundleError::Malformed("bad precision tag")),
            }
        } else {
            Precision::F32
        };
        let plen = buf.get_u64_le() as usize;
        if buf.remaining() < plen {
            return Err(BundleError::Malformed("truncated parameters"));
        }
        let start = bytes.len() - buf.remaining();
        // The inference kernels skip weight rows whose activations are
        // all zero, which is invisible only while every weight is finite
        // (`0·inf` is NaN): that premise is checked here, at the file door,
        // by a scan of the bytes in place.
        if param_values(&buf[..plen])
            .map_err(BundleError::Params)?
            .any(|v| !v.is_finite())
        {
            return Err(BundleError::Malformed("non-finite parameter"));
        }
        let bundle = Self {
            arch,
            spec: PhaseGridSpec::new(nx, nv, vmin, vmax),
            binning,
            norm,
            reference_mass,
            params: Arc::default(),
            precision,
        };
        Ok((bundle, start..start + plen))
    }

    /// Writes the bundle to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), BundleError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads a bundle from a file. The file's buffer becomes the
    /// parameter blob: the header is drained off its front in place, so
    /// the bundle holds one copy of the file, not two.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, BundleError> {
        let mut bytes = std::fs::read(path)?;
        let (bundle, params) = Self::decode_in_place(&bytes)?;
        bytes.truncate(params.end);
        bytes.drain(..params.start);
        Ok(Self {
            params: Arc::new(bytes),
            ..bundle
        })
    }

    /// The solver name this bundle's architecture maps to.
    pub fn solver_name(&self) -> &'static str {
        match self.arch.kind_name() {
            "mlp" => "dl-mlp",
            "cnn" => "dl-cnn",
            _ => "dl-resmlp",
        }
    }

    /// Snapshots the bundle into an `Arc`-shared [`FrozenBundle`] at the
    /// bundle's `precision`, so any number of fleet members mint solvers
    /// over one weight allocation — the only way a bundle becomes a
    /// solver: `bundle.freeze()?.solver()`. Errs ([`BundleError::Freeze`],
    /// naming the layer) on architectures without a frozen inference form
    /// — the CNN and the ResMlp — which no DL field solver runs.
    ///
    /// No trainable network is built: the architecture's layer table is
    /// frozen straight from the parameter bytes, each tensor decoded once
    /// and, at f32, moved into its frozen layer as it is. Predictions are
    /// bit-identical to the captured network's `Sequential::predict_into`.
    ///
    /// A non-finite parameter or normalization bound is refused as
    /// [`Self::decode`] refuses it (`Malformed("non-finite parameter")`,
    /// `Malformed("bad normalization")`), the parameters checked in the
    /// same decode pass: the kernels skip dead weight rows on the premise
    /// that every weight is finite, and a bundle made in memory
    /// ([`Self::from_network`]) never went through the file door.
    pub fn freeze(&self) -> Result<FrozenBundle, BundleError> {
        if !self.norm.is_finite() {
            return Err(BundleError::Malformed("bad normalization"));
        }
        let table = self.arch.layers(None);
        // Refused by the architecture alone, before a byte is decoded.
        let unfrozen = table.iter().position(|layer| {
            !matches!(
                layer,
                LayerSpec::Dense { .. } | LayerSpec::Relu | LayerSpec::Flatten
            )
        });
        if let Some(layer_index) = unfrozen {
            return Err(BundleError::Freeze(FreezeError::NoFrozenForm {
                layer_index,
                layer_name: table[layer_index].name(),
            }));
        }
        let mut tensors = tensors_from_bytes(&self.params, &self.arch.param_lens())
            .map_err(BundleError::Params)?;
        let mut finite = true;
        let mut next = || {
            let values: Vec<f32> = tensors
                .next()
                .expect("tensor lengths checked against the table")
                .collect();
            // A fold, not `all`: no early exit, so the scan vectorizes.
            finite &= values.iter().fold(true, |ok, v| ok & v.is_finite());
            values
        };
        let layers = table
            .into_iter()
            .map(|layer| match layer {
                LayerSpec::Dense { input, output, .. } => {
                    FrozenLayer::dense(input, output, next(), next(), self.precision)
                }
                LayerSpec::Relu => FrozenLayer::Relu,
                LayerSpec::Flatten => FrozenLayer::Flatten,
                other => unreachable!("`{}` was refused above", other.name()),
            })
            .collect();
        if !finite {
            return Err(BundleError::Malformed("non-finite parameter"));
        }
        Ok(FrozenBundle {
            model: Arc::new(FrozenModel::from_layers(layers, self.precision)),
            binner: (self.spec, self.binning),
            norm: self.norm,
            reference_mass: self.reference_mass,
            name: self.solver_name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_nn::network::PredictWorkspace;
    use dlpic_nn::serialize::{params_from_bytes, SerializeError};
    use dlpic_nn::tensor::Tensor;
    use dlpic_pic::grid::Grid1D;
    use dlpic_pic::init::TwoStreamInit;
    use dlpic_pic::solver::{FieldSolver as _, PhasedFieldSolver as _};

    fn tiny_bundle() -> ModelBundle {
        mlp_bundle(vec![8])
    }

    /// A smoke-grid MLP bundle with the given hidden widths, weights
    /// seeded 77.
    fn mlp_bundle(hidden: Vec<usize>) -> ModelBundle {
        let spec = PhaseGridSpec::smoke();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden,
            output: 64,
        };
        let mut net = arch.build(77);
        ModelBundle::from_network(
            &mut net,
            arch,
            spec,
            BinningShape::Cic,
            NormStats {
                min: 0.0,
                max: 123.0,
            },
        )
        .with_reference_mass(64_000.0)
    }

    #[test]
    fn encode_decode_round_trip() {
        let bundle = tiny_bundle();
        let decoded = ModelBundle::decode(&bundle.encode()).unwrap();
        assert_eq!(decoded.arch, bundle.arch);
        assert_eq!(decoded.spec, bundle.spec);
        assert_eq!(decoded.binning, bundle.binning);
        assert_eq!(decoded.norm, bundle.norm);
        assert_eq!(decoded.reference_mass, bundle.reference_mass);
        assert_eq!(decoded.params, bundle.params);
    }

    #[test]
    fn solver_from_bundle_reproduces_predictions() {
        let bundle = tiny_bundle();
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.01, 1_000, 5).build(&grid);

        let mut s1 = bundle.freeze().unwrap().solver();
        let mut s2 = ModelBundle::decode(&bundle.encode())
            .unwrap()
            .freeze()
            .unwrap()
            .solver();
        let mut e1 = grid.zeros();
        let mut e2 = grid.zeros();
        s1.solve(&p, &grid, &mut e1);
        s2.solve(&p, &grid, &mut e2);
        assert_eq!(e1, e2);
        assert_eq!(s1.name(), "dl-mlp");
    }

    #[test]
    fn file_round_trip() {
        let bundle = tiny_bundle();
        let dir = std::env::temp_dir().join("dlpic-bundle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dlpb");
        bundle.save(&path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        assert_eq!(loaded.params, bundle.params);
        assert_eq!(loaded.encode(), bundle.encode());
        // Bytes after the parameter region are ignored, as `decode`
        // ignores them.
        let mut trailing = bundle.encode();
        trailing.extend_from_slice(b"tail");
        std::fs::write(&path, &trailing).unwrap();
        assert_eq!(ModelBundle::load(&path).unwrap().params, bundle.params);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn precision_round_trips_and_defaults_to_f32() {
        let bundle = tiny_bundle();
        assert_eq!(bundle.precision, Precision::F32);
        let bf16 = tiny_bundle().with_precision(Precision::Bf16);
        let decoded = ModelBundle::decode(&bf16.encode()).unwrap();
        assert_eq!(decoded.precision, Precision::Bf16);
    }

    #[test]
    fn v2_bundles_without_precision_byte_still_decode_as_f32() {
        // Re-serialize a bundle in the v2 layout: same fields, version 2,
        // no precision byte.
        let bundle = tiny_bundle().with_precision(Precision::Bf16);
        let v3 = bundle.encode();
        let mut v2 = Vec::with_capacity(v3.len() - 1);
        v2.extend_from_slice(&v3[..4]);
        v2.put_u32_le(V2);
        // Everything between the version and the precision byte is
        // layout-identical; the byte sits right before the u64 length.
        let plen_at = v3.len() - 8 - bundle.params.len() - 1;
        v2.extend_from_slice(&v3[8..plen_at]);
        v2.extend_from_slice(&v3[plen_at + 1..]);
        let decoded = ModelBundle::decode(&v2).unwrap();
        assert_eq!(decoded.precision, Precision::F32);
        assert_eq!(decoded.params, bundle.params);
        assert_eq!(decoded.arch, bundle.arch);
    }

    /// `rows` half-sparse input rows of the bundle's width: zero and
    /// nonzero activations both cross the live-row kernel.
    fn input_rows(bundle: &ModelBundle, rows: usize) -> Vec<f32> {
        (0..rows * bundle.spec.cells())
            .map(|i| (i as f32 * 0.37).sin().max(0.0))
            .collect()
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}, value {i}: {a} != {b}");
        }
    }

    #[test]
    fn frozen_bundle_members_share_weights_and_match_owned_solver() {
        let bundle = mlp_bundle(vec![24, 16]);
        // The network `mlp_bundle` captured.
        let mut net = bundle.arch.build(77);
        let frozen = bundle.freeze().unwrap();
        let grid = Grid1D::paper();
        let p = TwoStreamInit::random(0.2, 0.01, 1_000, 6).build(&grid);

        let mut m1 = frozen.solver();
        let mut m2 = frozen.clone().solver();
        let mut e1 = grid.zeros();
        let mut e2 = grid.zeros();
        m1.solve(&p, &grid, &mut e1);
        m2.solve(&p, &grid, &mut e2);
        assert_eq!(e1, e2);
        let cells = bundle.spec.cells();
        let mut row = vec![0.0f32; cells];
        m1.prepare_input(&p, &grid, &mut row);
        let x = Tensor::new(row, &[1, cells]);
        let e0: Vec<f64> = net
            .predict_into(&x, &mut PredictWorkspace::new())
            .data()
            .iter()
            .map(|&v| v as f64)
            .collect();
        assert_eq!(e0, e1);

        let (id1, bytes) = m1.weight_storage().unwrap();
        let (id2, _) = m2.weight_storage().unwrap();
        assert_eq!(id1, id2, "members must share one allocation");
        assert_eq!(bytes, frozen.weight_bytes());
        assert_eq!(frozen.weight_bytes(), 4 * bundle.arch.param_count());
        assert_eq!(frozen.model().precision(), Precision::F32);
        assert_eq!(m1.name(), "dl-mlp");

        // Batched rows: solo, one 8-row tile plus one, two tiles plus one.
        for m in [1usize, 9, 17] {
            let input = input_rows(&bundle, m);
            let x = Tensor::new(input.clone(), &[m, cells]);
            let mut got = vec![0.0f32; m * 64];
            m1.infer_batch(&input, m, &mut got);
            let mut workspace = PredictWorkspace::new();
            let want = net.predict_into(&x, &mut workspace);
            assert_same_bits(&got, want.data(), &format!("f32, m = {m}"));
        }

        // bf16: the same bits as freezing the source network at bf16.
        let bf16 = bundle
            .clone()
            .with_precision(Precision::Bf16)
            .freeze()
            .unwrap();
        let reference = net.freeze(Precision::Bf16).unwrap();
        assert_eq!(bf16.model().precision(), Precision::Bf16);
        assert_eq!(bf16.weight_bytes(), reference.weight_bytes());
        for m in [1usize, 9, 17] {
            let x = Tensor::new(input_rows(&bundle, m), &[m, cells]);
            let (mut ws_got, mut ws_want) = (PredictWorkspace::new(), PredictWorkspace::new());
            assert_same_bits(
                bf16.model().predict_into(&x, &mut ws_got).data(),
                reference.predict_into(&x, &mut ws_want).data(),
                &format!("bf16, m = {m}"),
            );
        }
    }

    /// A parameter blob in the `dlpic_nn::serialize` layout, built by hand
    /// so a test can drop or resize a tensor.
    fn blob(tensors: &[Vec<f32>]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(b"DLNN");
        buf.put_u32_le(1);
        buf.put_u32_le(tensors.len() as u32);
        for t in tensors {
            buf.put_u64_le(t.len() as u64);
            t.iter().for_each(|&v| buf.put_f32_le(v));
        }
        buf
    }

    #[test]
    fn params_that_do_not_fit_the_arch_fail_freeze_as_they_fail_solver() {
        let bundle = mlp_bundle(vec![24, 16]);
        let mut tensors = Vec::new();
        bundle
            .arch
            .build(77)
            .visit_params(&mut |p, _| tensors.push(p.to_vec()));
        assert_eq!(blob(&tensors), *bundle.params, "the hand-built layout");

        let missing = tensors[..tensors.len() - 1].to_vec();
        let mut resized = tensors.clone();
        resized[2].push(0.5);
        for (params, message) in [
            (missing, "tensor count does not match architecture"),
            (resized, "tensor size does not match architecture"),
        ] {
            let bad = ModelBundle {
                params: Arc::new(blob(&params)),
                ..bundle.clone()
            };
            // What restoring the blob into the architecture's network says.
            let want = params_from_bytes(&mut bad.arch.build_with(None), &bad.params)
                .expect_err("a restore accepted params that do not fit");
            match bad.freeze() {
                Err(BundleError::Params(got)) => {
                    assert_eq!(got, SerializeError::Corrupt(message));
                    assert_eq!(got, want);
                }
                other => panic!("expected a params error, got {other:?}"),
            }
        }
    }

    #[test]
    fn cnn_bundles_refuse_to_freeze_with_a_named_error() {
        let spec = PhaseGridSpec::new(16, 16, -0.8, 0.8);
        let arch = ArchSpec::Cnn {
            nv: 16,
            nx: 16,
            channels: (2, 2),
            kernel: 3,
            hidden: vec![8],
            output: 64,
        };
        let res_arch = ArchSpec::ResMlp {
            input: spec.cells(),
            width: 8,
            blocks: 2,
            output: 64,
        };
        for (arch, index, name) in [(arch, 0, "conv2d"), (res_arch, 2, "residual-dense")] {
            let mut net = arch.build(2);
            // What freezing the built network reports, as the load did
            // when it went through one.
            let want = net.freeze(Precision::F32).unwrap_err();
            assert_eq!(
                want,
                FreezeError::NoFrozenForm {
                    layer_index: index,
                    layer_name: name
                }
            );
            let bundle = ModelBundle::from_network(
                &mut net,
                arch,
                spec,
                BinningShape::Cic,
                NormStats::identity(),
            );
            match bundle.freeze() {
                Err(BundleError::Freeze(e)) => {
                    assert_eq!(e, want);
                    assert!(e.to_string().contains(name), "{e}");
                }
                other => panic!("expected a freeze error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            ModelBundle::decode(b"nope"),
            Err(BundleError::Malformed(_))
        ));
        let mut blob = tiny_bundle().encode();
        blob.truncate(blob.len() - 3);
        assert!(matches!(
            ModelBundle::decode(&blob),
            Err(BundleError::Malformed(_))
        ));
        blob[0] = b'X';
        assert!(matches!(
            ModelBundle::decode(&blob),
            Err(BundleError::Malformed(_))
        ));
        // A non-finite weight or bias anywhere is refused by name, at the
        // file door and by a freeze of the bundle made in memory: the
        // first two weights (after the 12-byte blob header and the first
        // tensor's 8-byte length) and the last bias.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [20, 24, tiny_bundle().params.len() - 4] {
                let mut bundle = tiny_bundle();
                let params = Arc::make_mut(&mut bundle.params);
                params[at..at + 4].copy_from_slice(&poison.to_le_bytes());
                assert!(matches!(
                    ModelBundle::decode(&bundle.encode()),
                    Err(BundleError::Malformed("non-finite parameter"))
                ));
                assert!(
                    matches!(
                        bundle.freeze(),
                        Err(BundleError::Malformed("non-finite parameter"))
                    ),
                    "{poison} at byte {at}"
                );
            }
        }
        // So is an infinite velocity window: `dv` would be infinite.
        for (vmin, vmax) in [(f64::NEG_INFINITY, f64::INFINITY), (-1.0, f64::INFINITY)] {
            let mut bundle = tiny_bundle();
            bundle.spec.vmin = vmin;
            bundle.spec.vmax = vmax;
            assert!(
                matches!(
                    ModelBundle::decode(&bundle.encode()),
                    Err(BundleError::Malformed("bad phase-grid geometry"))
                ),
                "[{vmin}, {vmax}]"
            );
        }
        // So is a non-finite normalization bound, at the file door and at
        // both in-memory doors to a solver: every input would normalize to
        // NaN or 0.
        let net = tiny_bundle().arch.build(77);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for norm in [
                NormStats { min: bad, max: 1.0 },
                NormStats { min: 0.0, max: bad },
            ] {
                let bundle = ModelBundle {
                    norm,
                    ..tiny_bundle()
                };
                assert!(
                    matches!(
                        ModelBundle::decode(&bundle.encode()),
                        Err(BundleError::Malformed("bad normalization"))
                    ),
                    "decode with {norm:?}"
                );
                assert!(
                    matches!(
                        bundle.freeze(),
                        Err(BundleError::Malformed("bad normalization"))
                    ),
                    "ModelBundle::freeze with {norm:?}"
                );
                let direct = FrozenBundle::<Grid1D>::from_network(
                    &net,
                    (bundle.spec, bundle.binning),
                    norm,
                    "dl-mlp",
                    Precision::F32,
                );
                assert_eq!(
                    direct.err(),
                    Some(FreezeError::NonFiniteNormalization),
                    "FrozenBundle::from_network with {norm:?}"
                );
            }
        }
    }
}
