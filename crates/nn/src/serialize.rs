//! Parameter (de)serialization.
//!
//! The byte format is deliberately simple and self-describing:
//!
//! ```text
//! magic "DLNN" | version u32 | tensor-count u32 | { len u64 | f32·len }*
//! ```
//!
//! Parameters are stored in the network's stable visitation order, so a
//! load must target an *architecturally identical* network — the model
//! bundles in `dlpic-core` store the architecture spec alongside.

use crate::network::Sequential;
use bytes::{Buf, BufMut};

const MAGIC: &[u8; 4] = b"DLNN";
const VERSION: u32 = 1;

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The byte stream does not start with the expected magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The stream ended early or has trailing/mismatched tensor sizes.
    Corrupt(&'static str),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic: not a DLNN parameter blob"),
            Self::BadVersion(v) => write!(f, "unsupported DLNN version {v}"),
            Self::Corrupt(what) => write!(f, "corrupt parameter blob: {what}"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Serializes all parameters of a network, each tensor encoded straight
/// from the network into one buffer of the blob's exact size.
pub fn params_to_bytes(net: &mut Sequential) -> Vec<u8> {
    let mut tensors = 0usize;
    net.visit_params(&mut |_, _| tensors += 1);
    let mut buf = Vec::with_capacity(12 + 8 * tensors + 4 * net.param_count());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(tensors as u32);
    net.visit_params(&mut |p, _| {
        buf.put_u64_le(p.len() as u64);
        p.iter().for_each(|&v| buf.put_f32_le(v));
    });
    buf
}

/// Splits a parameter blob into its tensors' stored bytes (`4·len`
/// little-endian f32 each), in stored order, without copying them.
fn payloads(bytes: &[u8]) -> Result<Vec<&[u8]>, SerializeError> {
    let mut buf = bytes;
    if buf.remaining() < 12 {
        return Err(SerializeError::Corrupt("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(SerializeError::BadVersion(version));
    }
    let count = buf.get_u32_le() as usize;
    // Counts and lengths come from the file: bound them by the bytes that
    // are actually there before allocating for them.
    let mut payloads = Vec::with_capacity(count.min(buf.remaining() / 8));
    for _ in 0..count {
        if buf.remaining() < 8 {
            return Err(SerializeError::Corrupt("truncated tensor header"));
        }
        let len = buf.get_u64_le();
        if len > (buf.remaining() / 4) as u64 {
            return Err(SerializeError::Corrupt("truncated tensor payload"));
        }
        let (payload, rest) = buf.split_at(len as usize * 4);
        payloads.push(payload);
        buf = rest;
    }
    Ok(payloads)
}

fn f32s(payload: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Every stored parameter value in stored order, read in place: a scan
/// of the blob that copies nothing.
pub fn param_values(bytes: &[u8]) -> Result<impl Iterator<Item = f32> + '_, SerializeError> {
    Ok(payloads(bytes)?.into_iter().flat_map(f32s))
}

/// Splits a parameter blob into its tensors, in stored order, once its
/// tensor lengths are checked against the `expected` ones of the target
/// architecture (a blob that does not fit is refused before anything is
/// decoded). Each tensor is an exact-size iterator over its values, decoded
/// in place wherever the caller puts them.
pub fn tensors_from_bytes<'a>(
    bytes: &'a [u8],
    expected: &[usize],
) -> Result<impl Iterator<Item = impl ExactSizeIterator<Item = f32> + 'a>, SerializeError> {
    let payloads = payloads(bytes)?;
    if payloads.len() != expected.len() {
        return Err(SerializeError::Corrupt(
            "tensor count does not match architecture",
        ));
    }
    if expected
        .iter()
        .zip(&payloads)
        .any(|(&e, p)| p.len() != 4 * e)
    {
        return Err(SerializeError::Corrupt(
            "tensor size does not match architecture",
        ));
    }
    Ok(payloads.into_iter().map(f32s))
}

/// Restores parameters into an architecturally identical network,
/// decoding each tensor straight into the network's own storage.
pub fn params_from_bytes(net: &mut Sequential, bytes: &[u8]) -> Result<(), SerializeError> {
    let mut expected: Vec<usize> = Vec::new();
    net.visit_params(&mut |p, _| expected.push(p.len()));
    // Every count and length is checked before the first value is
    // written, and nothing after the check can fail, so a refused blob
    // leaves the network untouched.
    let mut tensors = tensors_from_bytes(bytes, &expected)?;
    net.visit_params(&mut |p, _| {
        let values = tensors.next().expect("counted above");
        p.iter_mut().zip(values).for_each(|(dst, v)| *dst = v);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Conv2d, Dense, Relu};
    use crate::tensor::Tensor;

    fn make_net(seed: u64) -> Sequential {
        Sequential::new()
            .push(Conv2d::new(1, 2, 3, Init::HeNormal, seed))
            .push(Relu::new())
            .push(crate::layers::Flatten::new())
            .push(Dense::new(2 * 16, 4, Init::GlorotUniform, seed + 1))
    }

    #[test]
    fn round_trip_restores_exact_predictions() {
        let mut net = make_net(1);
        let x = Tensor::new((0..16).map(|i| i as f32 / 16.0).collect(), &[1, 1, 4, 4]);
        let before = net.predict(&x);
        let blob = params_to_bytes(&mut net);
        assert_eq!(blob.capacity(), blob.len(), "sized exactly up front");

        let mut restored = make_net(999); // different init, same architecture
        assert_ne!(restored.predict(&x).data(), before.data());
        params_from_bytes(&mut restored, &blob).unwrap();
        assert_eq!(restored.predict(&x).data(), before.data());
    }

    #[test]
    fn bad_magic_detected() {
        let mut net = make_net(1);
        let mut blob = params_to_bytes(&mut net);
        blob[0] = b'X';
        assert_eq!(
            params_from_bytes(&mut net, &blob),
            Err(SerializeError::BadMagic)
        );
    }

    #[test]
    fn truncation_detected_without_corrupting_target() {
        let mut net = make_net(1);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let blob = params_to_bytes(&mut net);
        let mut other = make_net(2);
        let before = other.predict(&x);
        let err = params_from_bytes(&mut other, &blob[..blob.len() - 7]).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)));
        // Target unchanged on failure.
        assert_eq!(other.predict(&x).data(), before.data());
    }

    #[test]
    fn architecture_mismatch_detected() {
        let mut net = make_net(1);
        let blob = params_to_bytes(&mut net);
        let mut smaller = Sequential::new().push(Dense::new(4, 2, Init::Zeros, 0));
        let err = params_from_bytes(&mut smaller, &blob).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)));
    }

    #[test]
    fn in_place_scan_and_decoded_tensors_agree_with_the_network() {
        let mut net = make_net(3);
        let blob = params_to_bytes(&mut net);
        let mut want: Vec<Vec<f32>> = Vec::new();
        net.visit_params(&mut |p, _| want.push(p.to_vec()));
        let lens: Vec<usize> = want.iter().map(Vec::len).collect();
        let got: Vec<Vec<f32>> = tensors_from_bytes(&blob, &lens)
            .unwrap()
            .map(Iterator::collect)
            .collect();
        assert_eq!(got, want);
        assert!(got.iter().zip(&lens).all(|(t, &n)| t.capacity() == n));
        let scanned: Vec<f32> = param_values(&blob).unwrap().collect();
        assert_eq!(scanned, want.concat());
    }

    #[test]
    fn version_mismatch_detected() {
        let mut net = make_net(1);
        let mut blob = params_to_bytes(&mut net);
        blob[4] = 99;
        assert!(matches!(
            params_from_bytes(&mut net, &blob),
            Err(SerializeError::BadVersion(_))
        ));
    }
}
