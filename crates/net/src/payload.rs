//! Byte-accurate wire codec for model parameters.
//!
//! A [`Payload`] is the serialized form of a `Vec<Tensor>` as it would
//! cross the network: a fixed header, then per-tensor shape metadata and
//! raw IEEE-754 element bits, all little-endian, so a frame decodes
//! bit-exactly (NaN payloads and `-0.0` included). The same layout is
//! the body of every journal record and checkpoint file (`qd-core`'s
//! `frame` module).
//!
//! Byte counts reported by the transport layer are `Payload::len`, so
//! simulated bandwidth costs track exactly what the codec emits.

use qd_tensor::Tensor;

/// Leading magic bytes of every frame.
const MAGIC: [u8; 4] = *b"QDNP";
/// Frame layout version.
const VERSION: u8 = 1;
/// The header's element-format byte: `0`, raw `f32` — the one layout.
const FORMAT_F32: u8 = 0;
/// Bytes before the first tensor record: magic, version, format, count.
const HEADER_LEN: usize = 4 + 1 + 1 + 4;

/// A malformed or truncated frame (the typed error every fallible
/// [`Payload`] operation returns — nothing in the codec panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadError {
    msg: String,
}

impl PayloadError {
    fn new(msg: impl Into<String>) -> Self {
        PayloadError { msg: msg.into() }
    }
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload codec: {}", self.msg)
    }
}

impl std::error::Error for PayloadError {}

/// An encoded parameter set, ready to cross a [`crate::Transport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    bytes: Vec<u8>,
}

impl Payload {
    /// Encodes `tensors`.
    pub fn encode(tensors: &[Tensor]) -> Payload {
        let data_bytes: usize = tensors
            .iter()
            .map(|t| 4 + 8 * t.shape().rank() + 4 * t.len())
            .sum();
        let mut bytes = Vec::with_capacity(HEADER_LEN + data_bytes);
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(FORMAT_F32);
        bytes.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
        for t in tensors {
            let dims = t.shape().dims();
            bytes.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for &d in dims {
                bytes.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for &x in t.data() {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
        }
        Payload { bytes }
    }

    /// Decodes the frame back into tensors.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadError`] on bad magic, unknown version, a format
    /// byte other than `0`, truncation, or a shape/element-count
    /// mismatch.
    pub fn decode(&self) -> Result<Vec<Tensor>, PayloadError> {
        let mut r = Reader {
            bytes: &self.bytes,
            pos: 0,
        };
        if r.take(4)? != MAGIC {
            return Err(PayloadError::new("bad magic"));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(PayloadError::new(format!("unsupported version {version}")));
        }
        let format = r.u8()?;
        if format != FORMAT_F32 {
            return Err(PayloadError::new(format!(
                "unsupported format tag {format}"
            )));
        }
        let count = r.u32()? as usize;
        // Lengths come off the wire (or the disk): nothing is allocated
        // for one until the bytes that would fill it are known to exist.
        // Every tensor record is at least its 4-byte rank.
        if count > self.bytes.len().saturating_sub(r.pos) / 4 {
            return Err(PayloadError::new("truncated frame"));
        }
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            let ndim = r.u32()? as usize;
            if ndim > 16 {
                return Err(PayloadError::new(format!("implausible rank {ndim}")));
            }
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                let d = r.u64()?;
                if d > u32::MAX as u64 {
                    return Err(PayloadError::new(format!("implausible dim {d}")));
                }
                dims.push(d as usize);
            }
            let len = dims
                .iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d))
                .ok_or_else(|| PayloadError::new("implausible shape"))?;
            let raw = len
                .checked_mul(4)
                .ok_or_else(|| PayloadError::new("implausible shape"))?;
            let (words, _) = r.take(raw)?.as_chunks::<4>();
            let data = words.iter().map(|w| f32::from_le_bytes(*w)).collect();
            tensors.push(Tensor::from_vec(data, &dims));
        }
        if r.pos != self.bytes.len() {
            return Err(PayloadError::new(format!(
                "{} trailing bytes",
                self.bytes.len() - r.pos
            )));
        }
        Ok(tensors)
    }

    /// Size on the wire in bytes.
    #[allow(clippy::len_without_is_empty)] // a frame always has a header
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw frame bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps raw bytes received off a wire (validated on [`Self::decode`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Payload {
        Payload { bytes }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| PayloadError::new("truncated frame"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into a fixed array (never panics: `take`
    /// has already bounds-checked the slice).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], PayloadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, PayloadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_tensor::rng::Rng;

    fn sample_tensors() -> Vec<Tensor> {
        let mut rng = Rng::seed_from(7);
        vec![
            Tensor::randn(&[3, 4], &mut rng),
            Tensor::randn(&[2, 3, 2, 2], &mut rng),
            Tensor::from_vec(vec![0.25], &[1]),
        ]
    }

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let tensors = sample_tensors();
        let payload = Payload::encode(&tensors);
        let back = payload.decode().unwrap();
        assert_eq!(back.len(), tensors.len());
        for (a, b) in tensors.iter().zip(&back) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn lying_lengths_are_refused_before_anything_is_allocated_for_them() {
        // count = u32::MAX tensors in a 10-byte frame.
        let mut frame = b"QDNP\x01\x00".to_vec();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Payload::from_bytes(frame).decode().is_err());
        // One rank-3 tensor of (2^32 - 1)^3 elements — overflows usize.
        let mut frame = b"QDNP\x01\x00".to_vec();
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&3u32.to_le_bytes());
        for _ in 0..3 {
            frame.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
        }
        assert!(Payload::from_bytes(frame).decode().is_err());
    }

    #[test]
    fn f32_byte_count_is_exact() {
        let tensors = sample_tensors();
        let payload = Payload::encode(&tensors);
        // header + per-tensor (ndim + dims + data)
        let expected = 10 + (4 + 16 + 48) + (4 + 32 + 96) + (4 + 8 + 4);
        assert_eq!(payload.len(), expected);
    }

    #[test]
    fn empty_parameter_list_round_trips() {
        let payload = Payload::encode(&[]);
        assert_eq!(payload.len(), 10);
        assert_eq!(payload.decode().unwrap(), Vec::<Tensor>::new());
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let tensors = sample_tensors();
        let good = Payload::encode(&tensors);

        let mut bad_magic = good.as_bytes().to_vec();
        bad_magic[0] = b'X';
        assert!(Payload::from_bytes(bad_magic).decode().is_err());

        let mut bad_version = good.as_bytes().to_vec();
        bad_version[4] = 99;
        assert!(Payload::from_bytes(bad_version).decode().is_err());

        for format in [1, 7] {
            let mut bad_format = good.as_bytes().to_vec();
            bad_format[5] = format;
            assert!(Payload::from_bytes(bad_format).decode().is_err());
        }

        let truncated = good.as_bytes()[..good.len() - 3].to_vec();
        assert!(Payload::from_bytes(truncated).decode().is_err());

        let mut trailing = good.as_bytes().to_vec();
        trailing.push(0);
        assert!(Payload::from_bytes(trailing).decode().is_err());
    }

    #[test]
    fn scalar_rank_zero_tensor_round_trips() {
        let t = vec![Tensor::from_vec(vec![std::f32::consts::PI], &[])];
        let payload = Payload::encode(&t);
        let back = payload.decode().unwrap();
        assert_eq!(back[0].shape().rank(), 0);
        assert_eq!(back[0].data()[0].to_bits(), t[0].data()[0].to_bits());
    }
}
