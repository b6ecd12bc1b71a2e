//! The self-describing container wrapped around every compressed payload.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [codec id u8][raw_len u32][encoded_len u32][fnv1a(raw) u64][encoded bytes]
//! ```
//!
//! The checksum covers the *raw* payload, so a decode that passes the
//! checksum proves the full compress → store → decompress pipeline preserved
//! the bytes — a corrupted container either fails the codec's structural
//! checks or the checksum, never silently yields wrong data.

use crate::{fnv1a, CodecId, DecodeError};
use std::fmt;

/// Size of the container header preceding the encoded bytes.
pub const CONTAINER_HEADER_BYTES: usize = 1 + 4 + 4 + 8;

/// Upper bound a container may declare for its raw payload (1 GiB); a
/// corrupted length field must not drive a huge allocation.
pub const MAX_RAW_BYTES: u32 = 1 << 30;

/// Error produced when a container cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The container ended before its declared content did.
    Truncated,
    /// The codec id byte names no known codec.
    UnknownCodec {
        /// The unrecognized id byte.
        id: u8,
    },
    /// The declared raw length exceeds [`MAX_RAW_BYTES`].
    OversizedRaw {
        /// Declared raw length.
        declared: u32,
    },
    /// The declared encoded length disagrees with the bytes present.
    EncodedLengthMismatch {
        /// Length the header declares.
        declared: u32,
        /// Encoded bytes actually present.
        actual: usize,
    },
    /// The decompressed payload failed the checksum.
    Checksum {
        /// Checksum stored in the container.
        expected: u64,
        /// Checksum recomputed over the decoded payload.
        actual: u64,
    },
    /// The codec rejected the encoded stream.
    Codec(DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("container is truncated"),
            FrameError::UnknownCodec { id } => write!(f, "unknown codec id {id}"),
            FrameError::OversizedRaw { declared } => {
                write!(f, "declared raw length {declared} exceeds {MAX_RAW_BYTES}")
            }
            FrameError::EncodedLengthMismatch { declared, actual } => write!(
                f,
                "container declares {declared} encoded bytes but holds {actual}"
            ),
            FrameError::Checksum { expected, actual } => write!(
                f,
                "payload checksum mismatch (stored {expected:#018x}, computed {actual:#018x})"
            ),
            FrameError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Codec(e)
    }
}

/// Parsed container header, available without decompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Codec that produced the encoded bytes.
    pub codec: CodecId,
    /// Length of the raw payload.
    pub raw_len: u32,
    /// Length of the encoded bytes.
    pub encoded_len: u32,
    /// FNV-1a checksum of the raw payload.
    pub checksum: u64,
}

impl ContainerInfo {
    /// Compression ratio of this container (raw / encoded; 1.0 when empty).
    pub fn ratio(&self) -> f64 {
        if self.encoded_len == 0 {
            1.0
        } else {
            f64::from(self.raw_len) / f64::from(self.encoded_len)
        }
    }
}

/// Compresses `raw` with the given codec and wraps it in a container.
pub fn encode_container(id: CodecId, raw: &[u8]) -> Vec<u8> {
    let encoded = id.compress(raw);
    let mut out = Vec::with_capacity(CONTAINER_HEADER_BYTES + encoded.len());
    out.push(id.as_u8());
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(raw).to_le_bytes());
    out.extend_from_slice(&encoded);
    out
}

/// Parses and validates a container header without decompressing.
///
/// # Errors
///
/// Returns a [`FrameError`] for truncation, unknown codecs, oversized or
/// inconsistent declared lengths.
pub fn container_info(bytes: &[u8]) -> Result<ContainerInfo, FrameError> {
    if bytes.len() < CONTAINER_HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    let id = bytes[0];
    let codec = CodecId::from_u8(id).ok_or(FrameError::UnknownCodec { id })?;
    let raw_len = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"));
    let encoded_len = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
    let checksum = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
    if raw_len > MAX_RAW_BYTES {
        return Err(FrameError::OversizedRaw { declared: raw_len });
    }
    let actual = bytes.len() - CONTAINER_HEADER_BYTES;
    if encoded_len as usize != actual {
        return Err(FrameError::EncodedLengthMismatch {
            declared: encoded_len,
            actual,
        });
    }
    Ok(ContainerInfo {
        codec,
        raw_len,
        encoded_len,
        checksum,
    })
}

/// Decodes a container back to `(codec, raw payload)`, validating the header
/// bounds, the codec's structural checks and the raw-payload checksum.
///
/// # Errors
///
/// Returns a typed [`FrameError`] on any corruption; never panics.
pub fn decode_container(bytes: &[u8]) -> Result<(CodecId, Vec<u8>), FrameError> {
    let info = container_info(bytes)?;
    let encoded = &bytes[CONTAINER_HEADER_BYTES..];
    let raw = info.codec.decompress(encoded, info.raw_len as usize)?;
    let actual = fnv1a(&raw);
    if actual != info.checksum {
        return Err(FrameError::Checksum {
            expected: info.checksum,
            actual,
        });
    }
    Ok((info.codec, raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trips_both_codecs() {
        let raw: Vec<u8> = b"log payload log payload log payload".to_vec();
        for id in CodecId::ALL {
            let container = encode_container(id, &raw);
            let info = container_info(&container).unwrap();
            assert_eq!(info.codec, id);
            assert_eq!(info.raw_len as usize, raw.len());
            let (codec, decoded) = decode_container(&container).unwrap();
            assert_eq!(codec, id);
            assert_eq!(decoded, raw);
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        for id in CodecId::ALL {
            let container = encode_container(id, &[]);
            assert_eq!(decode_container(&container).unwrap().1, Vec::<u8>::new());
        }
    }

    #[test]
    fn header_corruptions_are_typed() {
        let container = encode_container(CodecId::Lz77, b"abcabcabcabcabc");
        // Unknown codec byte.
        let mut bad = container.clone();
        bad[0] = 0x7F;
        assert!(matches!(
            decode_container(&bad),
            Err(FrameError::UnknownCodec { id: 0x7F })
        ));
        // Truncated header.
        assert!(matches!(
            decode_container(&container[..10]),
            Err(FrameError::Truncated)
        ));
        // Truncated encoded bytes.
        assert!(matches!(
            decode_container(&container[..container.len() - 1]),
            Err(FrameError::EncodedLengthMismatch { .. })
        ));
        // Oversized declared raw length.
        let mut bad = container.clone();
        bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_container(&bad),
            Err(FrameError::OversizedRaw { .. })
        ));
    }

    #[test]
    fn forged_huge_raw_length_is_a_typed_error() {
        // A few encoded bytes declaring the largest raw length a header may:
        // the decoder reserves only what the stream can expand to, then
        // rejects the length mismatch.
        let mut forged = encode_container(CodecId::Lz77, b"forged payload");
        forged[1..5].copy_from_slice(&MAX_RAW_BYTES.to_le_bytes());
        assert_eq!(
            decode_container(&forged),
            Err(FrameError::Codec(DecodeError::LengthMismatch {
                declared: MAX_RAW_BYTES as usize,
                produced: 14,
            }))
        );
    }

    #[test]
    fn payload_bit_flip_fails_checksum_or_codec() {
        let raw: Vec<u8> = (0..500u32).flat_map(|v| (v % 50).to_le_bytes()).collect();
        let container = encode_container(CodecId::Lz77, &raw);
        let mut flipped_without_error = 0;
        for pos in CONTAINER_HEADER_BYTES..container.len() {
            let mut bad = container.clone();
            bad[pos] ^= 0x01;
            if decode_container(&bad).is_ok() {
                flipped_without_error += 1;
            }
        }
        // Every payload flip must be caught by the codec or the checksum.
        assert_eq!(flipped_without_error, 0);
    }

    #[test]
    fn checksum_flip_is_a_checksum_error() {
        let container = encode_container(CodecId::Identity, b"payload bytes");
        let mut bad = container;
        bad[9] ^= 0x80;
        assert!(matches!(
            decode_container(&bad),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn ratio_reports_raw_over_encoded() {
        let raw = vec![0u8; 4096];
        let info = container_info(&encode_container(CodecId::Lz77, &raw)).unwrap();
        assert!(info.ratio() > 50.0, "ratio {}", info.ratio());
        let info = container_info(&encode_container(CodecId::Identity, &raw)).unwrap();
        assert!((info.ratio() - 1.0).abs() < 1e-12);
    }
}
