//! Pluggable back-end compression for BugNet's logs.
//!
//! BugNet's central claim is that continuous recording is practical because
//! the first-load logs compress down to a few bytes per instruction. The
//! hardware front end (first-load filtering + the frequent-value dictionary)
//! gets most of the way there; this crate supplies the general-purpose
//! *back-end* compressor that FDR-style recorders put behind the hardware,
//! applied to the framed log payloads when they are flushed or dumped.
//!
//! Everything is hand-rolled — the build environment has no network access,
//! so no external compression crates are available (or wanted: the on-disk
//! format must stay fully specified by this repository).
//!
//! * [`Codec`] — the compressor interface; implementations must be pure
//!   functions of their input so identical payloads always produce identical
//!   bytes (parallel and serial flushing must agree bit for bit).
//! * [`CodecId`] — the stable one-byte codec identifier stored on disk.
//! * [`frame`] — the self-describing container (codec id, raw/encoded
//!   lengths, FNV-1a checksum of the raw payload) wrapped around every
//!   compressed payload.
//! * [`columnar`] — the v5 columnar/delta transform stage: zigzag varints,
//!   lossless `u64` delta coding, and the multi-stream container that runs
//!   each per-field stream through the codec independently.
//! * [`lz`] — the hand-rolled LZ77-class codec: hash-chain match finder,
//!   greedy parse with one-step lazy matching, byte-oriented token stream.
//!
//! # Examples
//!
//! ```
//! use bugnet_compress::{codec, decode_container, encode_container, CodecId};
//!
//! let raw = b"the quick brown fox jumps over the quick brown dog".to_vec();
//! let container = encode_container(CodecId::Lz77, &raw);
//! let (id, roundtrip) = decode_container(&container).unwrap();
//! assert_eq!(id, CodecId::Lz77);
//! assert_eq!(roundtrip, raw);
//! assert!(codec(CodecId::Lz77).compress(&raw).len() < raw.len());
//! ```

pub mod columnar;
pub mod frame;
pub mod lz;

pub use columnar::{
    decode_streams, encode_streams, streams_info, ColumnarError, ColumnarStreamInfo, COLUMNAR_MAGIC,
};
pub use frame::{
    container_info, decode_container, encode_container, ContainerInfo, FrameError,
    CONTAINER_HEADER_BYTES,
};
pub use lz::Lz77;

use std::fmt;

/// Stable one-byte identifier of a codec, stored in manifests and containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CodecId {
    /// No transformation: the encoded bytes are the raw bytes.
    Identity,
    /// The hand-rolled LZ77-class codec of [`lz`].
    Lz77,
}

impl CodecId {
    /// All known codecs, in id order.
    pub const ALL: [CodecId; 2] = [CodecId::Identity, CodecId::Lz77];

    /// The on-disk byte for this codec.
    pub fn as_u8(self) -> u8 {
        match self {
            CodecId::Identity => 0,
            CodecId::Lz77 => 1,
        }
    }

    /// Decodes an on-disk codec byte.
    pub fn from_u8(byte: u8) -> Option<CodecId> {
        match byte {
            0 => Some(CodecId::Identity),
            1 => Some(CodecId::Lz77),
            _ => None,
        }
    }

    /// Short human-readable name (also the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Identity => "identity",
            CodecId::Lz77 => "lz",
        }
    }

    /// Parses a CLI spelling (`identity`, `lz`).
    pub fn parse(name: &str) -> Option<CodecId> {
        match name {
            "identity" | "none" => Some(CodecId::Identity),
            "lz" | "lz77" => Some(CodecId::Lz77),
            _ => None,
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when an encoded stream cannot be decoded.
///
/// Every variant is a *typed* rejection: decoders never panic on malformed
/// input and never silently return wrong data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before its declared content did.
    Truncated,
    /// A match token references bytes before the start of the output.
    BadOffset {
        /// The (invalid) back-reference distance.
        offset: usize,
        /// Output bytes available to reference.
        available: usize,
    },
    /// A token would produce more output than the declared raw length.
    Overrun {
        /// Declared raw length.
        declared: usize,
    },
    /// The stream ended with fewer bytes than the declared raw length.
    LengthMismatch {
        /// Declared raw length.
        declared: usize,
        /// Bytes actually produced.
        produced: usize,
    },
    /// A structurally invalid token (e.g. a final token carrying match bits).
    BadToken {
        /// Offset of the offending token in the encoded stream.
        position: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("encoded stream is truncated"),
            DecodeError::BadOffset { offset, available } => write!(
                f,
                "match offset {offset} exceeds the {available} byte(s) produced so far"
            ),
            DecodeError::Overrun { declared } => {
                write!(f, "stream produces more than the declared {declared} bytes")
            }
            DecodeError::LengthMismatch { declared, produced } => write!(
                f,
                "stream produced {produced} bytes, container declares {declared}"
            ),
            DecodeError::BadToken { position } => {
                write!(f, "malformed token at encoded offset {position}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A log compressor.
///
/// Implementations must be deterministic (identical input, identical output)
/// and stateless, so one static instance can be shared by any number of
/// flush workers.
pub trait Codec: Send + Sync {
    /// The stable identifier written to disk next to this codec's output.
    fn id(&self) -> CodecId;

    /// Compresses `raw`. Always succeeds; incompressible input may expand
    /// slightly (the container records both lengths).
    fn compress(&self, raw: &[u8]) -> Vec<u8>;

    /// Decompresses `encoded`, which must expand to exactly `raw_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for any malformed stream.
    fn decompress(&self, encoded: &[u8], raw_len: usize) -> Result<Vec<u8>, DecodeError>;
}

/// The identity codec: encoded bytes are the raw bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Codec for Identity {
    fn id(&self) -> CodecId {
        CodecId::Identity
    }

    fn compress(&self, raw: &[u8]) -> Vec<u8> {
        raw.to_vec()
    }

    fn decompress(&self, encoded: &[u8], raw_len: usize) -> Result<Vec<u8>, DecodeError> {
        if encoded.len() != raw_len {
            return Err(DecodeError::LengthMismatch {
                declared: raw_len,
                produced: encoded.len(),
            });
        }
        Ok(encoded.to_vec())
    }
}

/// The shared static instance of a codec.
pub fn codec(id: CodecId) -> &'static dyn Codec {
    static IDENTITY: Identity = Identity;
    static LZ77: Lz77 = Lz77;
    match id {
        CodecId::Identity => &IDENTITY,
        CodecId::Lz77 => &LZ77,
    }
}

/// FNV-1a hash, the checksum used by the container format and by the
/// crash-dump format (manifest, frames and content-addressed images).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_ids_round_trip() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
            assert_eq!(CodecId::parse(id.name()), Some(id));
            assert_eq!(codec(id).id(), id);
        }
        assert_eq!(CodecId::from_u8(200), None);
        assert_eq!(CodecId::parse("zstd"), None);
        assert_eq!(CodecId::parse("lz77"), Some(CodecId::Lz77));
    }

    #[test]
    fn identity_round_trips_and_type_checks_length() {
        let raw = b"hello".to_vec();
        let enc = Identity.compress(&raw);
        assert_eq!(Identity.decompress(&enc, 5).unwrap(), raw);
        assert!(matches!(
            Identity.decompress(&enc, 4),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn fnv1a_is_order_sensitive() {
        // The standard 64-bit FNV-1a offset basis: every checksum already
        // on disk, in containers and crash dumps alike, depends on it.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"a\0"));
    }
}
