//! The one on-disk encoding of durable state: a JSON *skeleton* for
//! structure plus one raw-`f32` *body* for every dense array in it.
//!
//! ```text
//! frame = skel_len: u32le | skeleton (JSON text) | body (qd-net Payload, F32 layout)
//! ```
//!
//! [`encode`] walks a [`Value`] tree and hoists each [`Value::F32s`] leaf
//! into the body — its `k`-th rank-1 tensor — leaving `{"$f32": k}` in the
//! skeleton; [`decode`] puts them back. The body is little-endian IEEE-754
//! bits, so a saved-then-loaded tensor is the same 32 bits per scalar, NaN
//! payloads and `-0.0` included, at 4 bytes each instead of ≈ 20 of decimal
//! text. A non-finite scalar `F64` (which JSON prints as `null`) is kept as
//! `{"$f64": bits}`, and an object key starting with `$` is written with
//! one more `$` in front, so every tree round-trips exactly and no real
//! object can be mistaken for a placeholder.
//!
//! Everything structural stays `serde`'s: the derives, the version and
//! state-tag checks and `quickdrop-cli dump` all work on the decoded
//! [`Value`], and no type has a byte layout of its own. A frame carries no
//! checksum; its two containers do — a journal commit and a checkpoint
//! file both store [`seal`]ed bytes (`len | crc32 | bytes`), and both
//! `unseal` them, verifying the CRC, before a byte of a frame is parsed.

use crate::vfs::crc32;
use qd_fed::Payload;
use qd_tensor::Tensor;
use serde::{DeError, Value};
use std::ops::Range;

const F32_KEY: &str = "$f32";
const F64_KEY: &str = "$f64";

fn bad(detail: impl std::fmt::Display) -> DeError {
    DeError::new(format!("malformed frame: {detail}"))
}

/// Reads the u32le at `bytes[at..at + 4]`, if present.
pub(crate) fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let chunk: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(chunk))
}

/// `len: u32le | crc32(bytes): u32le | bytes` — the checksummed envelope
/// of a journal commit and of a checkpoint file.
///
/// # Errors
///
/// `bytes` is longer than a `u32` length can say.
pub fn seal(bytes: &[u8]) -> std::io::Result<Vec<u8>> {
    let len = u32::try_from(bytes.len()).map_err(std::io::Error::other)?;
    Ok([&len.to_le_bytes()[..], &crc32(bytes).to_le_bytes(), bytes].concat())
}

/// No intact [`seal`]ed envelope at the head of the bytes.
pub(crate) struct Unsealed {
    /// How many bytes the damage spans: all of them when the header or
    /// the payload it promises is cut short (a torn write), `8 + len` when
    /// a whole envelope fails its CRC (torn only if nothing follows it).
    pub span: usize,
    /// What failed to verify.
    pub detail: String,
}

/// The payload of the [`seal`]ed envelope `bytes` starts with, CRC
/// verified; whatever follows the envelope is the caller's business.
pub(crate) fn unseal(bytes: &[u8]) -> Result<&[u8], Unsealed> {
    let payload = read_u32(bytes, 0).and_then(|len| bytes.get(8..)?.get(..len as usize));
    let (Some(payload), Some(crc)) = (payload, read_u32(bytes, 4)) else {
        return Err(Unsealed {
            span: bytes.len(),
            detail: format!("envelope cut short after {} byte(s)", bytes.len()),
        });
    };
    let computed = crc32(payload);
    if computed != crc {
        return Err(Unsealed {
            span: 8 + payload.len(),
            detail: format!("CRC mismatch: stored {crc:#010x}, computed {computed:#010x}"),
        });
    }
    Ok(payload)
}

/// Encodes `value` as one frame.
pub fn encode(value: &Value) -> Vec<u8> {
    let mut body = Vec::new();
    // Infallible for the Value data model (see `serde_json::to_string`).
    let skeleton = serde_json::to_string(&hoist(value, &mut body)).unwrap_or_default();
    let body = Payload::encode(&body);
    // A length past u32 is caught when the frame is sealed.
    let skel_len = (skeleton.len() as u32).to_le_bytes();
    [&skel_len[..], skeleton.as_bytes(), body.as_bytes()].concat()
}

fn placeholder(key: &str, n: u64) -> Value {
    Value::Map(vec![(key.to_string(), Value::U64(n))])
}

/// The skeleton of `value`: the same tree with its dense arrays moved to
/// `body`.
fn hoist(value: &Value, body: &mut Vec<Tensor>) -> Value {
    match value {
        Value::F32s(xs) => {
            body.push(Tensor::from_vec(xs.clone(), &[xs.len()]));
            placeholder(F32_KEY, body.len() as u64 - 1)
        }
        Value::F64(x) if !x.is_finite() => placeholder(F64_KEY, x.to_bits()),
        Value::Seq(items) => Value::Seq(items.iter().map(|v| hoist(v, body)).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| {
                    let escape = if k.starts_with('$') { "$" } else { "" };
                    (format!("{escape}{k}"), hoist(v, body))
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Decodes one frame back into the tree [`encode`] was given.
///
/// # Errors
///
/// A [`DeError`] starting `malformed frame:` on truncation, a skeleton
/// that is not JSON, a body that is not an F32 payload, or placeholders
/// that do not name the body's arrays in order, each exactly once. Never
/// panics, whatever the bytes.
pub fn decode(bytes: &[u8]) -> Result<Value, DeError> {
    let Parsed { mut value, arrays } = parse(bytes)?;
    fill(&mut value, bytes, &mut arrays.into_iter());
    Ok(value)
}

/// A frame whose skeleton is decoded and whose body is checked, with its
/// dense arrays still in the frame's bytes: each placeholder stands as an
/// empty [`Value::F32s`], and the `k`-th such leaf in tree order (the only
/// `F32s` a skeleton can hold) is the array at `arrays[k]`.
pub(crate) struct Parsed {
    /// The tree, every dense array an empty `F32s`.
    pub value: Value,
    /// Byte range of each array's little-endian scalars in the frame.
    pub arrays: Vec<Range<usize>>,
}

/// Everything [`decode`] checks, without copying a scalar: the frame is
/// a skeleton and an F32 payload, and the placeholders name the body's
/// arrays in order, each exactly once.
///
/// # Errors
///
/// A [`DeError`] starting `malformed frame:` on truncation, a skeleton
/// that is not JSON, a body that is not an F32 payload, or placeholders
/// that do not name the body's arrays in order, each exactly once.
pub(crate) fn parse(bytes: &[u8]) -> Result<Parsed, DeError> {
    let skel_len = read_u32(bytes, 0).ok_or_else(|| bad("no skeleton length"))? as usize;
    let (skeleton, body) = bytes
        .get(4..)
        .and_then(|rest| rest.split_at_checked(skel_len))
        .ok_or_else(|| bad("skeleton overruns the frame"))?;
    let skeleton = std::str::from_utf8(skeleton).map_err(bad)?;
    let mut value: Value = serde_json::from_str(skeleton).map_err(bad)?;
    let at = 4 + skel_len;
    let arrays: Vec<Range<usize>> = (Payload::layout(body).map_err(bad)?.into_iter())
        .map(|(_, span)| at + span.start..at + span.end)
        .collect();
    let mut next = 0;
    lower(&mut value, &mut next, arrays.len())?;
    if next < arrays.len() {
        return Err(bad(format!("body array {next} is never referenced")));
    }
    Ok(Parsed { value, arrays })
}

/// Inverse of [`hoist`], in place, for everything but the arrays: each
/// placeholder, which must name body array `next` of `count`, becomes an
/// empty `F32s` for [`fill`].
fn lower(value: &mut Value, next: &mut usize, count: usize) -> Result<(), DeError> {
    match value {
        Value::Seq(items) => items.iter_mut().try_for_each(|v| lower(v, next, count)),
        Value::Map(entries) => {
            if let [(key, Value::U64(n))] = entries.as_slice() {
                if key == F64_KEY {
                    *value = Value::F64(f64::from_bits(*n));
                    return Ok(());
                }
                if key == F32_KEY {
                    if *n != *next as u64 || *next >= count {
                        return Err(bad(format!("placeholder {n} is out of order")));
                    }
                    *next += 1;
                    *value = Value::F32s(Vec::new());
                    return Ok(());
                }
            }
            entries.iter_mut().try_for_each(|(key, v)| {
                match key.strip_prefix('$') {
                    None => {}
                    Some(rest) if rest.starts_with('$') => *key = rest.to_string(),
                    Some(_) => return Err(bad(format!("unknown placeholder {key:?}"))),
                }
                lower(v, next, count)
            })
        }
        _ => Ok(()),
    }
}

/// Fills the `F32s` leaves of a [`Parsed`] tree (or subtree), in tree
/// order, with the arrays `arrays` yields from the frame `bytes`.
pub(crate) fn fill(
    value: &mut Value,
    bytes: &[u8],
    arrays: &mut impl Iterator<Item = Range<usize>>,
) {
    match value {
        Value::F32s(xs) => {
            if let Some(span) = arrays.next() {
                *xs = Payload::scalars(bytes.get(span).unwrap_or_default());
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(|v| fill(v, bytes, arrays)),
        Value::Map(entries) => entries.iter_mut().for_each(|(_, v)| fill(v, bytes, arrays)),
        _ => {}
    }
}

/// How many dense arrays a [`Parsed`] tree (or subtree) holds.
pub(crate) fn arrays_in(value: &Value) -> usize {
    match value {
        Value::F32s(_) => 1,
        Value::Seq(items) => items.iter().map(arrays_in).sum(),
        Value::Map(entries) => entries.iter().map(|(_, v)| arrays_in(v)).sum(),
        _ => 0,
    }
}

/// Bit-exact tree equality: what `PartialEq` is but for floats, which
/// it compares as numbers (NaN != NaN, `-0.0 == 0.0`).
pub(crate) fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::F32s(x), Value::F32s(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && (x.iter().zip(y)).all(|((k, p), (l, q))| k == l && same_bits(p, q))
        }
        _ => a == b,
    }
}

/// The format version a file of some *other* build declares, so a refusal
/// can name it: the digits of a `stem<n>\n` magic (`QDJ3`, `QDC3`, …),
/// whatever follows the newline, or the `version` field of the JSON
/// documents journals v1-2 and checkpoint v2 were. `None` when `bytes` is
/// neither.
pub(crate) fn foreign_version(bytes: &[u8], stem: &[u8]) -> Option<u32> {
    if let Some(rest) = bytes.strip_prefix(stem) {
        let digits = rest.split(|&b| b == b'\n').next()?;
        return std::str::from_utf8(digits).ok()?.trim_end().parse().ok();
    }
    let doc: Value = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()?;
    serde::Deserialize::from_value(doc.get("version")?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Scalars chosen to break a text detour: NaN with a payload, the two
    /// zeros, infinities, a subnormal, extremes.
    const SALT: [u32; 8] = [
        0x7fc0_0123,
        0xffc0_0001,
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x0000_0001,
        0x7f7f_ffff,
    ];

    /// A deterministic tree grown from `seeds`: every variant, empty and
    /// rank-0-sized arrays, dense arrays nested in arrays, options and
    /// objects, `$`-prefixed keys, non-finite scalars.
    fn tree(seeds: &mut std::slice::Iter<'_, u32>, depth: usize) -> Value {
        let s = seeds.next().copied().unwrap_or(0);
        let floats = |n: u32| -> Vec<f32> {
            (0..n % 7)
                .map(|i| f32::from_bits(SALT[((n + i) % 8) as usize] ^ (n.rotate_left(i) >> 9)))
                .collect()
        };
        match s % if depth == 0 { 8 } else { 10 } {
            0 => Value::Null,
            1 => Value::Bool(s & 16 != 0),
            2 => Value::U64(u64::from(s) << (s % 33)),
            3 => Value::I64(-i64::from(s) - 1),
            4 => Value::F64(f64::from(f32::from_bits(s))),
            5 => Value::F64(f64::from_bits(0x7ff0_0000_0000_0000 | u64::from(s) << 20)),
            6 => Value::Str(["", "$f32", "a\"b\\\n", "τ"][(s / 16 % 4) as usize].to_string()),
            7 => Value::F32s(floats(s / 16)),
            8 => Value::Seq((0..s / 16 % 4).map(|_| tree(seeds, depth - 1)).collect()),
            _ => Value::Map(
                (0..s / 16 % 4)
                    .map(|i| {
                        let key =
                            ["$f32", "$f64", "$$x", "$", "data", "k"][((s / 64 + i) % 6) as usize];
                        (key.to_string(), tree(seeds, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_tree_round_trips_to_the_bit(seeds in proptest::collection::vec(0u32..u32::MAX, 1..60)) {
            let v = tree(&mut seeds.iter(), 4);
            let back = decode(&encode(&v)).expect("an encoded frame decodes");
            prop_assert!(same_bits(&v, &back), "{v:?} came back as {back:?}");
        }

        #[test]
        fn damaged_frames_are_typed_errors_never_panics(seeds in proptest::collection::vec(0u32..u32::MAX, 1..24)) {
            let v = tree(&mut seeds.iter(), 3);
            let frame = encode(&v);
            for cut in 0..frame.len() {
                prop_assert!(decode(&frame[..cut]).is_err(), "truncation to {cut} decoded");
            }
            // A frame has no checksum of its own, so a flipped bit can still
            // decode — to another tree, or (an insignificant decimal digit)
            // even the same one. It must never panic, and the sealed
            // envelope both containers store turns every flip into an error.
            for at in 0..frame.len() {
                let mut flipped = frame.clone();
                flipped[at] ^= 1 << (at % 8);
                let _ = decode(&flipped);
            }
            let sealed = seal(&frame).expect("small frame");
            prop_assert!(unseal(&sealed).is_ok_and(|payload| payload == frame));
            for at in 0..sealed.len() {
                let mut flipped = sealed.clone();
                flipped[at] ^= 1 << (at % 8);
                // (A flipped length may still find a shorter or longer
                // payload to checksum; it must not verify.)
                prop_assert!(unseal(&flipped).is_err(), "sealed flip at {at} verified");
                prop_assert!(unseal(&sealed[..at]).is_err(), "sealed cut at {at} verified");
            }
        }
    }

    #[test]
    fn typed_values_keep_their_bits_and_pay_four_bytes_a_scalar() {
        let weights: Vec<f32> = (0..1000).map(|i| (i as f32).sin() / 3.0).collect();
        let t = Tensor::from_vec(weights.clone(), &[10, 100]);
        let odd = Some(vec![Tensor::scalar(f32::NAN), Tensor::zeros(&[0, 3])]);
        let frame = encode(&serde::Serialize::to_value(&vec![t.clone()]));
        assert!(frame.len() < 4 * 1000 + 120, "{} bytes", frame.len());
        let back: Vec<Tensor> = serde::Deserialize::from_value(&decode(&frame).unwrap()).unwrap();
        assert_eq!(back[0].shape(), t.shape());
        assert!(back[0]
            .data()
            .iter()
            .zip(&weights)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        let frame = encode(&serde::Serialize::to_value(&odd));
        let back: Option<Vec<Tensor>> =
            serde::Deserialize::from_value(&decode(&frame).unwrap()).unwrap();
        let back = back.expect("Some survives");
        assert!(back[0].data()[0].is_nan() && back[0].shape().rank() == 0);
        assert_eq!(back[1].shape().dims(), &[0, 3]);
    }

    #[test]
    fn placeholders_must_name_the_body_in_order_exactly_once() {
        let frame_of = |skeleton: &str, arrays: &[Tensor]| {
            let mut out = (skeleton.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(skeleton.as_bytes());
            out.extend_from_slice(Payload::encode(arrays).as_bytes());
            out
        };
        let one = [Tensor::from_vec(vec![1.0], &[1])];
        assert!(decode(&frame_of("{\"$f32\":0}", &one)).is_ok());
        for (skeleton, arrays) in [
            ("{\"$f32\":1}", &one[..]),
            ("[{\"$f32\":0},{\"$f32\":0}]", &one[..]),
            ("null", &one[..]),
            ("{\"$f32\":0}", &[][..]),
            ("{\"$nope\":0,\"k\":1}", &[][..]),
        ] {
            let err = decode(&frame_of(skeleton, arrays)).expect_err(skeleton);
            assert!(err.to_string().starts_with("malformed frame: "), "{err}");
        }
        // The body's format byte: past the length, the 10-byte skeleton,
        // and the payload's magic and version.
        let mut other_format = frame_of("{\"$f32\":0}", &one);
        other_format[4 + 10 + 5] = 1;
        let err = decode(&other_format).expect_err("format byte 1");
        assert!(err.to_string().starts_with("malformed frame: "), "{err}");
    }

    #[test]
    fn other_builds_files_reveal_their_version() {
        let json = b"{\"version\":2,\"records\":[]}";
        assert_eq!(foreign_version(json, b"QDJ"), Some(2));
        assert_eq!(foreign_version(b"{\"records\":[]}", b"QDJ"), None);
        assert_eq!(foreign_version(b"QDJ3\n", b"QDJ"), Some(3));
        assert_eq!(foreign_version(b"QDJ12\n", b"QDJ"), Some(12));
        assert_eq!(foreign_version(b"QDJ3\n", b"QDC"), None);
        assert_eq!(foreign_version(b"QDJx\n", b"QDJ"), None);
        assert_eq!(foreign_version(&[0xff, 0xfe], b"QDC"), None);
    }
}
