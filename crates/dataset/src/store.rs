//! Binary persistence of datasets.
//!
//! Format:
//!
//! ```text
//! magic "DLDS" | version u32 | nx u32 | nv u32 | vmin f64 | vmax f64 |
//! binning u8 | e_cells u32 | n u64 | inputs f32·(n·nx·nv) |
//! targets f32·(n·e_cells)
//! ```
//!
//! The paper's dataset was 5.2 GB of PNG + text files; a packed binary of
//! the same 40,000 samples at 64×64 resolution is ~680 MB.

use crate::sample::PhaseDataset;
use bytes::{Buf, BufMut};
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use std::path::Path;

const MAGIC: &[u8; 4] = b"DLDS";
const VERSION: u32 = 1;

/// Store/load failure.
#[derive(Debug)]
pub enum StoreError {
    /// Structural problem with the byte stream.
    Malformed(&'static str),
    /// Filesystem error.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(what) => write!(f, "malformed dataset blob: {what}"),
            Self::Io(e) => write!(f, "dataset I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Serializes a dataset.
pub fn encode(ds: &PhaseDataset) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 4 * (ds.inputs().len() + ds.targets().len()));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(ds.spec.nx as u32);
    buf.put_u32_le(ds.spec.nv as u32);
    buf.put_f64_le(ds.spec.vmin);
    buf.put_f64_le(ds.spec.vmax);
    buf.put_u8(match ds.binning {
        BinningShape::Ngp => 0,
        BinningShape::Cic => 1,
    });
    buf.put_u32_le(ds.e_cells as u32);
    buf.put_u64_le(ds.len() as u64);
    for &v in ds.inputs() {
        buf.put_f32_le(v);
    }
    for &v in ds.targets() {
        buf.put_f32_le(v);
    }
    buf
}

/// Deserializes a dataset.
pub fn decode(bytes: &[u8]) -> Result<PhaseDataset, StoreError> {
    let mut buf = bytes;
    if buf.remaining() < 8 {
        return Err(StoreError::Malformed("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StoreError::Malformed("bad magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(StoreError::Malformed("unsupported version"));
    }
    if buf.remaining() < 4 + 4 + 8 + 8 + 1 + 4 + 8 {
        return Err(StoreError::Malformed("truncated metadata"));
    }
    let nx = buf.get_u32_le() as usize;
    let nv = buf.get_u32_le() as usize;
    let vmin = buf.get_f64_le();
    let vmax = buf.get_f64_le();
    // NaN-rejecting form: `vmax <= vmin` would accept NaN bounds. An
    // infinite window passes that test but makes `dv` infinite.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if nx == 0 || nv == 0 || !(vmax > vmin) || !(vmax - vmin).is_finite() {
        return Err(StoreError::Malformed("bad phase-grid geometry"));
    }
    let binning = match buf.get_u8() {
        0 => BinningShape::Ngp,
        1 => BinningShape::Cic,
        _ => return Err(StoreError::Malformed("bad binning tag")),
    };
    let e_cells = buf.get_u32_le() as usize;
    if e_cells == 0 {
        return Err(StoreError::Malformed("bad field width"));
    }
    let n = buf.get_u64_le() as usize;
    // Checked: a crafted count must not overflow the size it implies.
    let need = (nx.checked_mul(nv))
        .and_then(|cells| cells.checked_add(e_cells))
        .and_then(|row| row.checked_mul(n))
        .and_then(|values| values.checked_mul(4));
    if need.is_none_or(|need| buf.remaining() < need) {
        return Err(StoreError::Malformed("truncated payload"));
    }

    let spec = PhaseGridSpec::new(nx, nv, vmin, vmax);
    let mut ds = PhaseDataset::new(spec, binning, e_cells);
    let cells = spec.cells();
    let mut hist = vec![0.0f32; cells];
    let mut field = vec![0.0f64; e_cells];
    // Inputs come first as one block, then targets; stage through per-row
    // buffers to reuse `push` (which validates widths).
    let mut all_inputs = Vec::with_capacity(n * cells);
    for _ in 0..n * cells {
        all_inputs.push(buf.get_f32_le());
    }
    let mut all_targets = Vec::with_capacity(n * e_cells);
    for _ in 0..n * e_cells {
        all_targets.push(buf.get_f32_le());
    }
    for i in 0..n {
        hist.copy_from_slice(&all_inputs[i * cells..(i + 1) * cells]);
        for (f, &t) in field
            .iter_mut()
            .zip(&all_targets[i * e_cells..(i + 1) * e_cells])
        {
            *f = t as f64;
        }
        ds.push(&hist, &field);
    }
    Ok(ds)
}

/// Writes a dataset to a file.
pub fn save(ds: &PhaseDataset, path: impl AsRef<Path>) -> Result<(), StoreError> {
    std::fs::write(path, encode(ds))?;
    Ok(())
}

/// Reads a dataset from a file.
pub fn load(path: impl AsRef<Path>) -> Result<PhaseDataset, StoreError> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> PhaseDataset {
        let spec = PhaseGridSpec::new(4, 4, -0.5, 0.5);
        let mut ds = PhaseDataset::new(spec, BinningShape::Cic, 8);
        for i in 0..5 {
            let hist: Vec<f32> = (0..16).map(|j| (i * 16 + j) as f32 * 0.5).collect();
            let field: Vec<f64> = (0..8).map(|j| (i + j) as f64 * -0.01).collect();
            ds.push(&hist, &field);
        }
        ds
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ds = sample_dataset();
        let decoded = decode(&encode(&ds)).unwrap();
        assert_eq!(decoded.len(), ds.len());
        assert_eq!(decoded.spec, ds.spec);
        assert_eq!(decoded.binning, ds.binning);
        assert_eq!(decoded.e_cells, ds.e_cells);
        assert_eq!(decoded.inputs(), ds.inputs());
        assert_eq!(decoded.targets(), ds.targets());
    }

    #[test]
    fn file_round_trip() {
        let ds = sample_dataset();
        let dir = std::env::temp_dir().join("dlpic-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.dlds");
        save(&ds, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.inputs(), ds.inputs());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let ds = sample_dataset();
        let blob = encode(&ds);
        assert!(matches!(decode(&blob[..10]), Err(StoreError::Malformed(_))));
        let mut bad_magic = blob.clone();
        bad_magic[1] = b'X';
        assert!(matches!(decode(&bad_magic), Err(StoreError::Malformed(_))));
        let mut truncated = blob.clone();
        truncated.truncate(truncated.len() - 2);
        assert!(matches!(decode(&truncated), Err(StoreError::Malformed(_))));

        // A 45-byte header claiming 2^62 one-cell samples: the payload size
        // it implies overflows, and must be refused, not computed.
        let mut huge = blob[..8].to_vec();
        huge.extend_from_slice(&1u32.to_le_bytes()); // nx
        huge.extend_from_slice(&1u32.to_le_bytes()); // nv
        huge.extend_from_slice(&(-1.0f64).to_le_bytes());
        huge.extend_from_slice(&1.0f64.to_le_bytes());
        huge.push(0); // NGP
        huge.extend_from_slice(&3u32.to_le_bytes()); // e_cells
        huge.extend_from_slice(&(1u64 << 62).to_le_bytes()); // n
        assert_eq!(huge.len(), 45);
        assert!(matches!(
            decode(&huge),
            Err(StoreError::Malformed("truncated payload"))
        ));

        // An infinite velocity window would make `dv` infinite.
        let mut infinite = huge;
        infinite[16..24].copy_from_slice(&f64::NEG_INFINITY.to_le_bytes());
        infinite[24..32].copy_from_slice(&f64::INFINITY.to_le_bytes());
        infinite[37..45].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode(&infinite),
            Err(StoreError::Malformed("bad phase-grid geometry"))
        ));
    }

    #[test]
    fn empty_dataset_round_trips() {
        let spec = PhaseGridSpec::new(2, 2, -1.0, 1.0);
        let ds = PhaseDataset::new(spec, BinningShape::Ngp, 4);
        let decoded = decode(&encode(&ds)).unwrap();
        assert_eq!(decoded.len(), 0);
        assert_eq!(decoded.e_cells, 4);
    }
}
