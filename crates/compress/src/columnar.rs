//! The columnar/delta transform stage (dump format v5).
//!
//! Row-ordered log serializations interleave unrelated fields, which hides
//! most of the regularity a general-purpose codec could exploit — measured
//! LZ ratios on real first-load-log frames sit barely above 1.0x. The v5
//! pipeline therefore splits a serialized log into *per-field streams*
//! (skip counts, type bits, dictionary ranks, values, ordering-edge
//! columns), delta-encodes the monotone and near-monotone streams with
//! zigzag varints, and runs each stream through the back-end codec
//! ([`CodecId::compress`]) independently.
//!
//! This module supplies the *generic* half of that pipeline:
//!
//! * LEB128 varints and zigzag mapping, plus lossless `u64` delta coding
//!   built on wrapping arithmetic (no input can overflow the delta);
//! * the multi-stream container: a tagged sequence of per-stream
//!   [`frame`](crate::frame) containers, so every stream keeps the
//!   self-describing codec id, lengths and raw-payload checksum of the
//!   single-stream format.
//!
//! The log-specific half — which fields go into which stream — lives next
//! to the log types themselves (`bugnet_core::columnar`).
//!
//! Multi-stream container layout (all integers little-endian):
//!
//! ```text
//! [0xC5][stream count u8] then per stream: [id u8][len u32][container]
//! ```

use crate::frame::{container_info, decode_container, encode_container, FrameError};
use crate::CodecId;
use std::fmt;

/// Magic byte opening a multi-stream columnar container.
pub const COLUMNAR_MAGIC: u8 = 0xC5;

/// Fixed bytes before the first stream (magic + stream count).
pub const COLUMNAR_HEADER_BYTES: usize = 2;

/// Maps a signed delta onto the unsigned varint alphabet so that small
/// magnitudes of either sign encode in one byte.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a LEB128 varint (7 bits per byte, high bit = continue).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint at `*pos`, advancing it; `None` on truncation or a
/// varint that does not fit in 64 bits.
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Appends `v` delta-encoded against `*prev` (zigzag varint of the wrapping
/// difference), then advances `*prev`. Wrapping arithmetic makes the coding
/// lossless for every pair of `u64` values.
pub fn put_delta(out: &mut Vec<u8>, prev: &mut u64, v: u64) {
    put_varint(out, zigzag(v.wrapping_sub(*prev) as i64));
    *prev = v;
}

/// Reads one value written by [`put_delta`], advancing `*prev` and `*pos`.
pub fn get_delta(bytes: &[u8], pos: &mut usize, prev: &mut u64) -> Option<u64> {
    let delta = unzigzag(get_varint(bytes, pos)?);
    *prev = prev.wrapping_add(delta as u64);
    Some(*prev)
}

/// Error produced when a multi-stream columnar container cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// The container ended before its declared content did.
    Truncated,
    /// The first byte is not [`COLUMNAR_MAGIC`].
    BadMagic {
        /// The byte found instead.
        found: u8,
    },
    /// Two streams carry the same id.
    DuplicateStream {
        /// The repeated stream id.
        id: u8,
    },
    /// A per-stream container failed to decode.
    Stream {
        /// Id of the offending stream.
        id: u8,
        /// The underlying container error.
        error: FrameError,
    },
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::Truncated => f.write_str("columnar container is truncated"),
            ColumnarError::BadMagic { found } => {
                write!(
                    f,
                    "bad columnar magic {found:#04x} (want {COLUMNAR_MAGIC:#04x})"
                )
            }
            ColumnarError::DuplicateStream { id } => {
                write!(f, "stream id {id} appears twice")
            }
            ColumnarError::Stream { id, error } => write!(f, "stream {id}: {error}"),
        }
    }
}

impl std::error::Error for ColumnarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColumnarError::Stream { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Per-stream header facts, available without decompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnarStreamInfo {
    /// Stream id (meaning assigned by the log type that produced it).
    pub id: u8,
    /// Codec that encoded this stream.
    pub codec: CodecId,
    /// Bytes of the stream before the codec.
    pub raw_len: u32,
    /// Bytes of the stream after the codec (excluding container header).
    pub stored_len: u32,
}

/// Compresses each `(id, bytes)` stream with `codec` and concatenates the
/// resulting containers under the columnar header.
pub fn encode_streams(codec: CodecId, streams: &[(u8, Vec<u8>)]) -> Vec<u8> {
    assert!(streams.len() <= u8::MAX as usize, "too many streams");
    let mut out = Vec::with_capacity(
        COLUMNAR_HEADER_BYTES + streams.iter().map(|(_, s)| s.len() + 32).sum::<usize>(),
    );
    out.push(COLUMNAR_MAGIC);
    out.push(streams.len() as u8);
    for (id, raw) in streams {
        let container = encode_container(codec, raw);
        out.push(*id);
        out.extend_from_slice(&(container.len() as u32).to_le_bytes());
        out.extend_from_slice(&container);
    }
    out
}

/// Walks the stream table, handing each `(id, container bytes)` to `visit`.
fn walk_streams(
    bytes: &[u8],
    mut visit: impl FnMut(u8, &[u8]) -> Result<(), ColumnarError>,
) -> Result<(), ColumnarError> {
    if bytes.len() < COLUMNAR_HEADER_BYTES {
        return Err(ColumnarError::Truncated);
    }
    if bytes[0] != COLUMNAR_MAGIC {
        return Err(ColumnarError::BadMagic { found: bytes[0] });
    }
    let count = bytes[1] as usize;
    let mut pos = COLUMNAR_HEADER_BYTES;
    let mut seen = [false; 256];
    for _ in 0..count {
        if bytes.len() < pos + 5 {
            return Err(ColumnarError::Truncated);
        }
        let id = bytes[pos];
        if seen[id as usize] {
            return Err(ColumnarError::DuplicateStream { id });
        }
        seen[id as usize] = true;
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        pos += 5;
        let end = pos.checked_add(len).ok_or(ColumnarError::Truncated)?;
        if bytes.len() < end {
            return Err(ColumnarError::Truncated);
        }
        visit(id, &bytes[pos..end])?;
        pos = end;
    }
    if pos != bytes.len() {
        return Err(ColumnarError::Truncated);
    }
    Ok(())
}

/// Decodes a multi-stream container back to its `(id, raw bytes)` streams,
/// validating every per-stream container checksum.
///
/// # Errors
///
/// Returns a typed [`ColumnarError`] on any corruption; never panics.
pub fn decode_streams(bytes: &[u8]) -> Result<Vec<(u8, Vec<u8>)>, ColumnarError> {
    let mut out = Vec::new();
    walk_streams(bytes, |id, container| {
        let (_, raw) =
            decode_container(container).map_err(|error| ColumnarError::Stream { id, error })?;
        out.push((id, raw));
        Ok(())
    })?;
    Ok(out)
}

/// Parses the per-stream headers without decompressing anything.
///
/// # Errors
///
/// Returns a typed [`ColumnarError`] for structural corruption.
pub fn streams_info(bytes: &[u8]) -> Result<Vec<ColumnarStreamInfo>, ColumnarError> {
    let mut out = Vec::new();
    walk_streams(bytes, |id, container| {
        let info =
            container_info(container).map_err(|error| ColumnarError::Stream { id, error })?;
        out.push(ColumnarStreamInfo {
            id,
            codec: info.codec,
            raw_len: info.raw_len,
            stored_len: info.encoded_len,
        });
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes of either sign stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_round_trips_and_rejects_overlong() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Truncation.
        assert_eq!(get_varint(&[0x80], &mut 0), None);
        // An 11-byte varint cannot fit in 64 bits.
        assert_eq!(get_varint(&[0x80; 11], &mut 0), None);
        // A 10th byte carrying more than the final bit overflows.
        assert_eq!(
            get_varint(
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
                &mut 0
            ),
            None
        );
    }

    #[test]
    fn delta_coding_is_lossless_for_all_u64() {
        let values = [0u64, 5, 3, u64::MAX, 0, 1 << 63, 42];
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for &v in &values {
            put_delta(&mut buf, &mut prev, v);
        }
        let mut pos = 0;
        let mut prev = 0u64;
        for &v in &values {
            assert_eq!(get_delta(&buf, &mut pos, &mut prev), Some(v));
        }
        // A monotone run of nearby values costs one byte per element.
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for v in 1_000_000u64..1_000_064 {
            put_delta(&mut buf, &mut prev, v);
        }
        assert!(buf.len() <= 2 * 64, "{} bytes", buf.len());
    }

    #[test]
    fn streams_round_trip_both_codecs() {
        let streams = vec![
            (0u8, b"meta meta meta".to_vec()),
            (3u8, vec![7u8; 300]),
            (9u8, Vec::new()),
        ];
        for id in CodecId::ALL {
            let blob = encode_streams(id, &streams);
            assert_eq!(decode_streams(&blob).unwrap(), streams);
            let info = streams_info(&blob).unwrap();
            assert_eq!(info.len(), 3);
            assert_eq!(info[1].id, 3);
            assert_eq!(info[1].codec, id);
            assert_eq!(info[1].raw_len, 300);
        }
    }

    #[test]
    fn corruptions_are_typed() {
        let blob = encode_streams(CodecId::Lz77, &[(1, vec![9u8; 64]), (2, vec![1u8; 8])]);
        assert_eq!(decode_streams(&[]), Err(ColumnarError::Truncated));
        assert_eq!(
            decode_streams(&[0x00, 0x01]),
            Err(ColumnarError::BadMagic { found: 0 })
        );
        // Truncated mid-stream.
        assert_eq!(
            decode_streams(&blob[..blob.len() - 1]),
            Err(ColumnarError::Truncated)
        );
        // Trailing garbage is rejected.
        let mut long = blob.clone();
        long.push(0);
        assert_eq!(decode_streams(&long), Err(ColumnarError::Truncated));
        // Duplicate stream id.
        let dup = encode_streams(CodecId::Identity, &[(5, vec![1]), (5, vec![2])]);
        assert_eq!(
            decode_streams(&dup),
            Err(ColumnarError::DuplicateStream { id: 5 })
        );
        // Payload corruption surfaces as a stream container error.
        let mut bad = blob;
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            decode_streams(&bad),
            Err(ColumnarError::Stream { id: 2, .. })
        ));
    }

    #[test]
    fn every_flip_in_a_columnar_blob_is_caught() {
        let streams = vec![(0u8, vec![3u8; 40]), (1u8, (0u8..=255).collect())];
        let blob = encode_streams(CodecId::Lz77, &streams);
        let mut undetected = 0;
        for pos in 0..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x01;
            if let Ok(back) = decode_streams(&bad) {
                // A flip in a stream *id* byte decodes fine but must not
                // reproduce the original table.
                if back == streams {
                    undetected += 1;
                }
            }
        }
        assert_eq!(undetected, 0);
    }
}
