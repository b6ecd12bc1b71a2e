//! The on-disk crash-dump directory format (paper §4.8).
//!
//! When the OS detects a fault it dumps the retained window of First-Load
//! Logs and Memory Race Logs to stable storage; the resulting directory is
//! the *portable artifact* a developer ships to the vendor and replays
//! offline. This module defines that format and the strict, checksum-guarded
//! reader for it.
//!
//! A dump directory contains:
//!
//! * `manifest.bnd` — magic (`BUGNETDP`), format version, the recorder
//!   configuration, the workload identity string, the fault that triggered
//!   the dump (if any), and a per-thread table (checkpoint counts, replay
//!   window, byte totals, per-interval execution digests). The whole file is
//!   covered by a trailing FNV-1a checksum.
//! * `thread-<id>.fll` / `thread-<id>.mrl` — one file pair per thread, each a
//!   small header (magic, version, thread id, frame count) followed by
//!   length-prefixed frames. Since format v2 every frame is one serialized
//!   [`FirstLoadLog`]/[`MemoryRaceLog`] (via the existing
//!   [`FirstLoadLog::to_bytes`] bulk paths) passed through a back-end codec
//!   and wrapped in the self-describing container of [`bugnet_compress`]
//!   (codec id, raw/encoded lengths, FNV-1a checksum of the raw payload).
//!   The manifest records the codec and both the raw and the stored sizes,
//!   so compression ratios are reportable without decompressing. Format v1
//!   (raw frames, each followed by its own FNV-1a checksum) still loads.
//!   Format v3 appends an FNV-1a checksum over the *stored* container bytes
//!   to every frame: the container's own checksum covers the raw payload
//!   only, and LZ streams are redundant enough that a flipped encoded bit
//!   can decompress to identical raw bytes — the stored-bytes checksum
//!   makes every byte of every v3 frame integrity-covered.
//! * `image-<id>.bni` — format v3: the full program image of each thread
//!   (code as stable instruction words, data segments, entry PC, stack top,
//!   symbol table — the `bugnet_isa::encode` image wire format), stored as a
//!   single codec container behind the same file-header framing as the log
//!   files. The manifest records presence and raw/stored sizes per thread,
//!   exactly like the FLL/MRL accounting. With the image embedded a dump is
//!   *self-contained*: [`CrashDump::replay`] prefers the embedded image and
//!   only needs the workload registry for v1/v2 dumps (or threads dumped
//!   with image embedding disabled).
//! * `image-<hash>.bni` — format v4: embedded images are *content
//!   addressed*. Each thread's manifest entry records the FNV-1a hash of
//!   its raw encoded image and the file is named by that hash, so threads
//!   running the same binary — the common case in a multithreaded process —
//!   share one image file on disk instead of storing one copy per thread.
//!   The loader verifies the hash and shares one decoded [`Program`] across
//!   the threads.
//!
//! Since format v5 every FLL/MRL frame payload is *columnar*: a multi-stream
//! blob (see [`crate::columnar`]) that splits the log into per-field streams
//! — L-Counts, value-type bits, dictionary ranks and full load values for
//! the FLL; per-entry fields for the MRL — delta/varint codes the monotone
//! or near-monotone ones, and runs every stream through the back-end codec
//! in its own self-describing container. The outer v3 frame framing (length
//! prefix + stored-bytes checksum) is unchanged, embedded program images
//! keep the single-container layout, and the manifest still records the
//! *row-serialized* raw sizes, so compression ratios stay comparable across
//! format versions.
//!
//! Dumps are committed *atomically*: the writers encode every file in
//! memory, stage them in a `<dir>.staging-<nonce>` sibling, fsync, and
//! rename into place (see [`crate::io`]). A dump directory therefore either
//! exists complete or not at all, no matter at which operation a crash,
//! disk-full or kill interrupts the write.
//!
//! Loading validates everything it reads — magics, versions, bounds, frame
//! checksums, manifest/file cross-consistency, FLL/MRL pairing, image
//! decodability — and returns a typed [`DumpError`] on any corruption; it
//! never panics on bad input and never silently accepts a flipped bit.
//! When a dump *did* get damaged — truncated mid-upload, clipped by the
//! very disk-full that triggered it — [`CrashDump::load_salvage`] recovers
//! every checksum-intact prefix of frames instead of rejecting the dump
//! wholesale, and reports exactly what was lost ([`SalvageReport`]).

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use bugnet_compress::{
    container_info, decode_container, encode_container, streams_info, CodecId, ColumnarError,
    FrameError,
};
use bugnet_isa::{decode_image, encode_image, Program};
use bugnet_types::{Addr, BugNetConfig, ByteSize, CheckpointId, InstrCount, ThreadId, Timestamp};

use crate::columnar::{decode_fll_columnar, decode_mrl_columnar, ColumnarCodecError};
use crate::digest::{fnv1a, ExecutionDigest};
use crate::fll::FirstLoadLog;
use crate::io::{commit_atomic, DumpIo, IoFailure, IoOp, StdIo};
use crate::mrl::MemoryRaceLog;
use crate::recorder::LogStore;
use crate::replayer::{ReplayError, Replayer};

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"BUGNETDP";
/// Magic bytes opening a per-thread FLL file.
pub const FLL_FILE_MAGIC: [u8; 4] = *b"BNFL";
/// Magic bytes opening a per-thread MRL file.
pub const MRL_FILE_MAGIC: [u8; 4] = *b"BNMR";
/// Magic bytes opening a per-thread program-image file.
pub const IMAGE_FILE_MAGIC: [u8; 4] = *b"BNIM";
/// Current crash-dump format version: like v4, but every FLL/MRL frame is a
/// *columnar* multi-stream blob — the log is split into per-field streams
/// (delta/varint coded where the field is monotone or near-monotone) and
/// each stream passes through the back-end codec independently. Outer frame
/// framing and embedded images are unchanged from v4.
pub const DUMP_VERSION: u32 = 5;
/// The v5 format: columnar, delta-encoded FLL/MRL frames (the current
/// default, [`DUMP_VERSION`]).
pub const DUMP_VERSION_V5: u32 = 5;
/// The v4 format: like v3, but embedded program images are content-addressed
/// (`image-<hash>.bni`) and shared between threads running the same binary.
/// Still fully loadable and writable via [`write_dump_v4`].
pub const DUMP_VERSION_V4: u32 = 4;
/// The v3 format: each thread's full program image is embedded as a
/// codec-compressed, checksummed per-thread `image-<tid>.bni` section,
/// making dumps self-contained. Still fully loadable and writable via
/// [`write_dump_v3`].
pub const DUMP_VERSION_V3: u32 = 3;
/// The v2 format: frames pass through a back-end codec (self-describing
/// containers) and the manifest records the codec and the raw vs stored
/// sizes, but program images are not embedded. Still fully loadable and
/// writable via [`write_dump_v2`].
pub const DUMP_VERSION_V2: u32 = 2;
/// The original format version: raw frames, each with its own trailing
/// checksum. Still fully loadable.
pub const DUMP_VERSION_V1: u32 = 1;
/// File name of the manifest inside a dump directory.
pub const MANIFEST_FILE: &str = "manifest.bnd";

/// A writable crash-dump format, selecting which on-disk layout
/// [`write_dump`]-family writers produce. (v1 is load-only and kept for old
/// dumps; it is not a writable target here.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DumpFormat {
    /// Codec-framed logs, no embedded program images ([`DUMP_VERSION_V2`]).
    V2,
    /// Self-contained: per-thread embedded images ([`DUMP_VERSION_V3`]).
    V3,
    /// Self-contained with content-addressed, deduplicated images
    /// ([`DUMP_VERSION_V4`]).
    V4,
    /// Columnar, delta-encoded log frames — the current default
    /// ([`DUMP_VERSION`]).
    #[default]
    V5,
}

impl DumpFormat {
    /// Parses a format name as the CLI spells it (`v2`/`v3`/`v4`/`v5`, bare
    /// digits accepted).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v2" | "2" => Some(DumpFormat::V2),
            "v3" | "3" => Some(DumpFormat::V3),
            "v4" | "4" => Some(DumpFormat::V4),
            "v5" | "5" => Some(DumpFormat::V5),
            _ => None,
        }
    }

    /// The manifest version number this format writes.
    pub fn version(self) -> u32 {
        match self {
            DumpFormat::V2 => DUMP_VERSION_V2,
            DumpFormat::V3 => DUMP_VERSION_V3,
            DumpFormat::V4 => DUMP_VERSION_V4,
            DumpFormat::V5 => DUMP_VERSION,
        }
    }
}

impl std::fmt::Display for DumpFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.version())
    }
}

/// Everything that varies about writing one crash dump, in one place —
/// consumed by `Machine::write_crash_dump_with` in the sim crate and
/// mirrored by the CLI `dump` subcommand. `Default` is the recommended
/// production shape: current format, the store's own codec, the machine's
/// embed-image setting.
#[derive(Debug, Clone, Default)]
pub struct DumpOptions {
    /// On-disk layout to write.
    pub format: DumpFormat,
    /// Codec for the dumped frames. `None` keeps the codec the store sealed
    /// with (no re-compression); `Some` re-seals the retained window with
    /// that codec at dump time.
    pub codec: Option<CodecId>,
    /// Whether to embed program images (ignored by [`DumpFormat::V2`],
    /// which has no image sections). `None` keeps the writer's configured
    /// default.
    pub embed_image: Option<bool>,
}

/// Upper bound on string fields in the manifest (workload id, fault text).
const MAX_STRING_BYTES: u32 = 4096;
/// Upper bound on the number of threads a manifest may declare.
const MAX_THREADS: u32 = 4096;
/// Upper bound on checkpoints per thread a manifest may declare.
const MAX_CHECKPOINTS: u32 = 1 << 20;

/// Error produced when writing or reading a crash dump.
#[derive(Debug)]
pub enum DumpError {
    /// An underlying filesystem operation failed.
    Io {
        /// The filesystem operation that failed.
        op: IoOp,
        /// Path the operation targeted.
        path: String,
        /// The I/O error.
        source: io::Error,
    },
    /// A file did not start with the expected magic bytes.
    BadMagic {
        /// Offending file (relative to the dump directory).
        file: String,
    },
    /// The file declares a format version this reader does not understand.
    UnsupportedVersion {
        /// Offending file.
        file: String,
        /// Declared version.
        version: u32,
    },
    /// A file ended before its declared content did.
    Truncated {
        /// Offending file.
        file: String,
    },
    /// A file contains bytes after its declared content.
    TrailingBytes {
        /// Offending file.
        file: String,
    },
    /// A checksum over a manifest body or log frame did not match.
    ChecksumMismatch {
        /// Offending file.
        file: String,
        /// Frame index within the file, `None` for the manifest body.
        frame: Option<u32>,
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the bytes read.
        actual: u64,
    },
    /// A frame passed its checksum but its payload failed to decode, or a
    /// declared field is outside its sanity bound.
    CorruptLog {
        /// Offending file.
        file: String,
        /// Frame index within the file.
        frame: u32,
        /// What failed to decode.
        detail: String,
    },
    /// A manifest field passed the file checksum but declares something
    /// structurally invalid (unknown codec, bad tag byte, out-of-bounds
    /// count). Distinct from [`DumpError::CorruptLog`] so manifest problems
    /// are never reported with frame-level context they don't have.
    CorruptManifest {
        /// The invalid declaration.
        detail: String,
    },
    /// Two structurally valid parts of the dump contradict each other
    /// (manifest vs. log file, or FLL vs. MRL pairing).
    Inconsistent {
        /// Offending file.
        file: String,
        /// The contradiction.
        detail: String,
    },
    /// A dump was requested from a machine with no recorder attached.
    NoRecorder,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Io { op, path, source } => {
                write!(f, "i/o error ({op}) on {path}: {source}")
            }
            DumpError::BadMagic { file } => write!(f, "{file}: bad magic bytes"),
            DumpError::UnsupportedVersion { file, version } => {
                write!(f, "{file}: unsupported dump format version {version}")
            }
            DumpError::Truncated { file } => write!(f, "{file}: truncated"),
            DumpError::TrailingBytes { file } => {
                write!(f, "{file}: trailing bytes after declared content")
            }
            DumpError::ChecksumMismatch {
                file,
                frame,
                expected,
                actual,
            } => match frame {
                Some(i) => write!(
                    f,
                    "{file}: frame {i} checksum mismatch (stored {expected:#018x}, computed {actual:#018x})"
                ),
                None => write!(
                    f,
                    "{file}: manifest checksum mismatch (stored {expected:#018x}, computed {actual:#018x})"
                ),
            },
            DumpError::CorruptLog {
                file,
                frame,
                detail,
            } => write!(f, "{file}: frame {frame} is corrupt: {detail}"),
            DumpError::CorruptManifest { detail } => {
                write!(f, "{MANIFEST_FILE}: corrupt manifest: {detail}")
            }
            DumpError::Inconsistent { file, detail } => write!(f, "{file}: inconsistent: {detail}"),
            DumpError::NoRecorder => f.write_str("machine has no BugNet recorder attached"),
        }
    }
}

impl Error for DumpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DumpError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> DumpError {
    DumpError::Io {
        op: IoOp::Read,
        path: path.display().to_string(),
        source,
    }
}

impl From<IoFailure> for DumpError {
    fn from(f: IoFailure) -> Self {
        DumpError::Io {
            op: f.op,
            path: f.path.display().to_string(),
            source: f.source,
        }
    }
}

/// Compact copy of an interval's [`ExecutionDigest`], stored in the manifest
/// so an offline replay can check it reproduced the recorded execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestSummary {
    /// Order-sensitive FNV hash over loads, stores and the final state.
    pub hash: u64,
    /// Committed loads in the interval.
    pub loads: u64,
    /// Committed stores in the interval.
    pub stores: u64,
    /// Committed instructions in the interval.
    pub instructions: u64,
}

impl From<&ExecutionDigest> for DigestSummary {
    fn from(d: &ExecutionDigest) -> Self {
        DigestSummary {
            hash: d.value(),
            loads: d.loads(),
            stores: d.stores(),
            instructions: d.instructions(),
        }
    }
}

impl DigestSummary {
    /// Whether a replayed digest matches this recorded summary exactly.
    pub fn matches(&self, d: &ExecutionDigest) -> bool {
        self == &DigestSummary::from(d)
    }
}

/// The fault that triggered a dump, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpFault {
    /// Thread that faulted.
    pub thread: ThreadId,
    /// Program counter of the faulting instruction.
    pub pc: Addr,
    /// Committed instructions of the faulting thread at the fault.
    pub icount: InstrCount,
    /// Human-readable fault description (e.g. "integer divide by zero").
    pub description: String,
}

/// Per-thread entry of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadManifest {
    /// The thread.
    pub thread: ThreadId,
    /// Number of retained checkpoint intervals (= frames in each log file).
    pub checkpoints: u32,
    /// Replay window: committed instructions across the retained intervals.
    pub instructions: u64,
    /// Total serialized (uncompressed) FLL payload bytes.
    pub fll_bytes: u64,
    /// Total serialized (uncompressed) MRL payload bytes.
    pub mrl_bytes: u64,
    /// Total stored FLL frame bytes in `thread-<id>.fll` (container headers
    /// plus encoded bytes). Equal to `fll_bytes` in v1 dumps.
    pub fll_stored_bytes: u64,
    /// Total stored MRL frame bytes in `thread-<id>.mrl`.
    pub mrl_stored_bytes: u64,
    /// Whether this thread's program image is embedded (format v3; always
    /// `false` in v1/v2 dumps).
    pub has_image: bool,
    /// Serialized (uncompressed) program-image bytes, zero when no image is
    /// embedded.
    pub image_raw_bytes: u64,
    /// Stored program-image bytes in the image file (container header plus
    /// encoded bytes), zero when no image is embedded.
    pub image_stored_bytes: u64,
    /// FNV-1a hash of the raw encoded program image (format v4, where the
    /// image file is content-addressed by this hash; `None` in v1–v3
    /// dumps, whose image files are named per thread).
    pub image_hash: Option<u64>,
    /// Recorded execution digest of each interval, oldest first.
    pub digests: Vec<DigestSummary>,
}

impl ThreadManifest {
    /// File name of this thread's FLL file inside the dump directory.
    pub fn fll_file(&self) -> String {
        format!("thread-{}.fll", self.thread.0)
    }

    /// File name of this thread's MRL file inside the dump directory.
    pub fn mrl_file(&self) -> String {
        format!("thread-{}.mrl", self.thread.0)
    }

    /// File name of this thread's program-image file inside the dump
    /// directory (present only when [`ThreadManifest::has_image`]):
    /// content-addressed `image-<hash>.bni` in v4 dumps, per-thread
    /// `image-<tid>.bni` in v3.
    pub fn image_file(&self) -> String {
        match self.image_hash {
            Some(hash) => format!("image-{hash:016x}.bni"),
            None => format!("image-{}.bni", self.thread.0),
        }
    }
}

/// Metadata the dumping site provides when writing a dump.
#[derive(Debug, Clone)]
pub struct DumpMeta {
    /// Workload identity string (see `bugnet_workloads::registry`), so an
    /// offline replayer can rebuild the recorded program image.
    pub workload: String,
    /// Recorder configuration in effect when the logs were captured.
    pub config: BugNetConfig,
    /// Machine clock when the dump was taken.
    pub created: Timestamp,
    /// The fault that triggered the dump, if any.
    pub fault: Option<DumpFault>,
    /// Checkpoints the log store discarded before the dump to stay within
    /// its capacity (context for "how much history is missing").
    pub evicted_checkpoints: u64,
    /// Telemetry snapshot taken at dump time, embedded in the manifest so
    /// the run's metrics survive alongside the logs. `None` keeps the
    /// manifest byte-identical to pre-telemetry dumps.
    pub telemetry: Option<bugnet_telemetry::Snapshot>,
}

/// The decoded manifest of a crash-dump directory.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpManifest {
    /// Format version of the dump.
    pub version: u32,
    /// Back-end codec the log frames were stored with ([`CodecId::Identity`]
    /// for v1 dumps, which predate the codec layer).
    pub codec: CodecId,
    /// Machine clock when the dump was taken.
    pub created: Timestamp,
    /// Workload identity string.
    pub workload: String,
    /// Recorder configuration in effect when the logs were captured.
    pub config: BugNetConfig,
    /// The fault that triggered the dump, if any.
    pub fault: Option<DumpFault>,
    /// Checkpoints discarded before the dump due to capacity.
    pub evicted_checkpoints: u64,
    /// Per-thread log tables, in thread-id order.
    pub threads: Vec<ThreadManifest>,
    /// Telemetry snapshot embedded at dump time, if the recording ran with
    /// a metrics registry attached. Stored as an optional trailing section
    /// so its absence leaves the manifest bytes unchanged from older dumps.
    pub telemetry: Option<bugnet_telemetry::Snapshot>,
}

impl DumpManifest {
    /// Total retained checkpoints across all threads.
    pub fn total_checkpoints(&self) -> u64 {
        self.threads.iter().map(|t| u64::from(t.checkpoints)).sum()
    }

    /// Total serialized FLL bytes across all threads.
    pub fn total_fll_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.fll_bytes).sum())
    }

    /// Total serialized MRL bytes across all threads.
    pub fn total_mrl_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.mrl_bytes).sum())
    }

    /// Total stored (post-codec) FLL frame bytes across all threads.
    pub fn total_fll_stored_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.fll_stored_bytes).sum())
    }

    /// Total stored (post-codec) MRL frame bytes across all threads.
    pub fn total_mrl_stored_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.threads.iter().map(|t| t.mrl_stored_bytes).sum())
    }

    /// Threads whose program image is embedded in the dump.
    pub fn embedded_images(&self) -> usize {
        self.threads.iter().filter(|t| t.has_image).count()
    }

    /// Whether every thread in the dump carries its program image, i.e. the
    /// dump replays without any out-of-band workload registry.
    pub fn is_self_contained(&self) -> bool {
        self.threads.iter().all(|t| t.has_image)
    }

    /// The manifest entries owning each *unique* image file, one per file
    /// name. In v4 dumps threads running the same binary share one
    /// content-addressed file; in v1–v3 every image-carrying thread owns
    /// its own file, so this is simply those threads.
    fn unique_image_owners(&self) -> Vec<&ThreadManifest> {
        let mut seen: Vec<String> = Vec::new();
        let mut owners = Vec::new();
        for t in self.threads.iter().filter(|t| t.has_image) {
            let file = t.image_file();
            if !seen.contains(&file) {
                seen.push(file);
                owners.push(t);
            }
        }
        owners
    }

    /// Number of unique image *files* in the dump (≤ [`embedded_images`],
    /// which counts image-carrying threads; smaller exactly when v4
    /// content addressing deduplicated identical images).
    ///
    /// [`embedded_images`]: DumpManifest::embedded_images
    pub fn unique_images(&self) -> usize {
        self.unique_image_owners().len()
    }

    /// Total serialized (uncompressed) program-image bytes across the
    /// unique image files (what the images cost on disk before the codec,
    /// counting each deduplicated v4 image once).
    pub fn total_image_size(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.unique_image_owners()
                .iter()
                .map(|t| t.image_raw_bytes)
                .sum(),
        )
    }

    /// Total stored (post-codec) program-image bytes across the unique
    /// image files.
    pub fn total_image_stored_size(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.unique_image_owners()
                .iter()
                .map(|t| t.image_stored_bytes)
                .sum(),
        )
    }

    /// Back-end compression ratio over the embedded images (raw / stored;
    /// 1.0 when no images are embedded).
    pub fn image_ratio(&self) -> f64 {
        let stored = self.total_image_stored_size().bytes();
        if stored == 0 {
            1.0
        } else {
            self.total_image_size().bytes() as f64 / stored as f64
        }
    }

    /// Back-end compression ratio over all frames (raw / stored; 1.0 when
    /// the dump is empty).
    pub fn backend_ratio(&self) -> f64 {
        let raw = (self.total_fll_size() + self.total_mrl_size()).bytes();
        let stored = (self.total_fll_stored_size() + self.total_mrl_stored_size()).bytes();
        if stored == 0 {
            1.0
        } else {
            raw as f64 / stored as f64
        }
    }

    /// Loads and validates the manifest of a dump directory.
    ///
    /// # Errors
    ///
    /// Returns a [`DumpError`] if the file is missing, corrupt, truncated or
    /// declares out-of-bounds structure.
    pub fn load(dir: &Path) -> Result<Self, DumpError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        Self::decode(&bytes)
    }

    fn decode(bytes: &[u8]) -> Result<Self, DumpError> {
        let file = MANIFEST_FILE.to_string();
        let truncated = || DumpError::Truncated {
            file: MANIFEST_FILE.to_string(),
        };
        // The trailing 8 bytes are the checksum over everything before them.
        if bytes.len() < MANIFEST_MAGIC.len() + 8 {
            return Err(truncated());
        }
        let (body, stored) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        let actual = fnv1a(body);
        if expected != actual {
            return Err(DumpError::ChecksumMismatch {
                file,
                frame: None,
                expected,
                actual,
            });
        }
        let mut r = ByteReader::new(body);
        if r.take(MANIFEST_MAGIC.len()).ok_or_else(truncated)? != MANIFEST_MAGIC {
            return Err(DumpError::BadMagic {
                file: MANIFEST_FILE.to_string(),
            });
        }
        let version = r.u32().ok_or_else(truncated)?;
        if !(DUMP_VERSION_V1..=DUMP_VERSION).contains(&version) {
            return Err(DumpError::UnsupportedVersion {
                file: MANIFEST_FILE.to_string(),
                version,
            });
        }
        // v1 predates the codec layer: frames are stored raw.
        let codec = if version >= 2 {
            let byte = r.u8().ok_or_else(truncated)?;
            CodecId::from_u8(byte).ok_or_else(|| DumpError::CorruptManifest {
                detail: format!("unknown codec id {byte}"),
            })?
        } else {
            CodecId::Identity
        };
        let created = Timestamp(r.u64().ok_or_else(truncated)?);
        let config = decode_config(&mut r).ok_or_else(truncated)?;
        let workload = r.string(MAX_STRING_BYTES).map_err(|e| e.into_error())?;
        let fault = match r.u8().ok_or_else(truncated)? {
            0 => None,
            1 => Some(DumpFault {
                thread: ThreadId(r.u32().ok_or_else(truncated)?),
                pc: Addr::new(r.u64().ok_or_else(truncated)?),
                icount: InstrCount(r.u64().ok_or_else(truncated)?),
                description: r.string(MAX_STRING_BYTES).map_err(|e| e.into_error())?,
            }),
            tag => {
                return Err(DumpError::CorruptManifest {
                    detail: format!("invalid fault-presence tag {tag}"),
                })
            }
        };
        let evicted_checkpoints = r.u64().ok_or_else(truncated)?;
        let thread_count = r.u32().ok_or_else(truncated)?;
        if thread_count > MAX_THREADS {
            return Err(DumpError::CorruptManifest {
                detail: format!("declared thread count {thread_count} exceeds {MAX_THREADS}"),
            });
        }
        let mut threads = Vec::with_capacity(thread_count as usize);
        let mut previous: Option<ThreadId> = None;
        for _ in 0..thread_count {
            let thread = ThreadId(r.u32().ok_or_else(truncated)?);
            if previous.is_some_and(|p| p >= thread) {
                return Err(DumpError::Inconsistent {
                    file: MANIFEST_FILE.to_string(),
                    detail: format!("thread table not strictly ordered at {thread}"),
                });
            }
            previous = Some(thread);
            let checkpoints = r.u32().ok_or_else(truncated)?;
            if checkpoints > MAX_CHECKPOINTS {
                return Err(DumpError::CorruptManifest {
                    detail: format!("thread {thread} declares {checkpoints} checkpoints"),
                });
            }
            let instructions = r.u64().ok_or_else(truncated)?;
            let fll_bytes = r.u64().ok_or_else(truncated)?;
            let mrl_bytes = r.u64().ok_or_else(truncated)?;
            let (fll_stored_bytes, mrl_stored_bytes) = if version >= 2 {
                (
                    r.u64().ok_or_else(truncated)?,
                    r.u64().ok_or_else(truncated)?,
                )
            } else {
                (fll_bytes, mrl_bytes)
            };
            let (has_image, image_raw_bytes, image_stored_bytes, image_hash) = if version >= 3 {
                match r.u8().ok_or_else(truncated)? {
                    0 => (false, 0, 0, None),
                    1 => {
                        // v4 content addressing: the image's FNV-1a hash
                        // precedes the size fields.
                        let hash = if version >= 4 {
                            Some(r.u64().ok_or_else(truncated)?)
                        } else {
                            None
                        };
                        (
                            true,
                            r.u64().ok_or_else(truncated)?,
                            r.u64().ok_or_else(truncated)?,
                            hash,
                        )
                    }
                    tag => {
                        return Err(DumpError::CorruptManifest {
                            detail: format!("thread {thread} has invalid image-presence tag {tag}"),
                        })
                    }
                }
            } else {
                (false, 0, 0, None)
            };
            let mut digests = Vec::with_capacity(checkpoints as usize);
            for _ in 0..checkpoints {
                digests.push(DigestSummary {
                    hash: r.u64().ok_or_else(truncated)?,
                    loads: r.u64().ok_or_else(truncated)?,
                    stores: r.u64().ok_or_else(truncated)?,
                    instructions: r.u64().ok_or_else(truncated)?,
                });
            }
            threads.push(ThreadManifest {
                thread,
                checkpoints,
                instructions,
                fll_bytes,
                mrl_bytes,
                fll_stored_bytes,
                mrl_stored_bytes,
                has_image,
                image_raw_bytes,
                image_stored_bytes,
                image_hash,
                digests,
            });
        }
        // Optional trailing telemetry section (any version): a presence tag,
        // a u32 length, and a `bugnet_telemetry` snapshot blob. Dumps
        // written without a registry attached end right after the thread
        // table, which keeps them byte-identical to pre-telemetry dumps.
        let telemetry = if r.is_exhausted() {
            None
        } else {
            match r.u8().ok_or_else(truncated)? {
                1 => {
                    let len = r.u32().ok_or_else(truncated)? as usize;
                    let blob = r.take(len).ok_or_else(truncated)?;
                    let snapshot = bugnet_telemetry::Snapshot::from_bytes(blob).map_err(|e| {
                        DumpError::CorruptManifest {
                            detail: format!("embedded telemetry snapshot: {e}"),
                        }
                    })?;
                    Some(snapshot)
                }
                tag => {
                    return Err(DumpError::CorruptManifest {
                        detail: format!("invalid telemetry-presence tag {tag}"),
                    })
                }
            }
        };
        if !r.is_exhausted() {
            return Err(DumpError::TrailingBytes {
                file: MANIFEST_FILE.to_string(),
            });
        }
        Ok(DumpManifest {
            version,
            codec,
            created,
            workload,
            config,
            fault,
            evicted_checkpoints,
            threads,
            telemetry,
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(256 + self.threads.len() * 64);
        w.extend_from_slice(&MANIFEST_MAGIC);
        put_u32(&mut w, self.version);
        if self.version >= 2 {
            w.push(self.codec.as_u8());
        }
        put_u64(&mut w, self.created.0);
        encode_config(&mut w, &self.config);
        put_string(&mut w, &self.workload);
        match &self.fault {
            None => w.push(0),
            Some(fault) => {
                w.push(1);
                put_u32(&mut w, fault.thread.0);
                put_u64(&mut w, fault.pc.raw());
                put_u64(&mut w, fault.icount.0);
                put_string(&mut w, &fault.description);
            }
        }
        put_u64(&mut w, self.evicted_checkpoints);
        put_u32(&mut w, self.threads.len() as u32);
        for t in &self.threads {
            put_u32(&mut w, t.thread.0);
            put_u32(&mut w, t.checkpoints);
            put_u64(&mut w, t.instructions);
            put_u64(&mut w, t.fll_bytes);
            put_u64(&mut w, t.mrl_bytes);
            if self.version >= 2 {
                put_u64(&mut w, t.fll_stored_bytes);
                put_u64(&mut w, t.mrl_stored_bytes);
            }
            if self.version >= 3 {
                if t.has_image {
                    w.push(1);
                    if self.version >= 4 {
                        put_u64(&mut w, t.image_hash.unwrap_or(0));
                    }
                    put_u64(&mut w, t.image_raw_bytes);
                    put_u64(&mut w, t.image_stored_bytes);
                } else {
                    w.push(0);
                }
            }
            for d in &t.digests {
                put_u64(&mut w, d.hash);
                put_u64(&mut w, d.loads);
                put_u64(&mut w, d.stores);
                put_u64(&mut w, d.instructions);
            }
        }
        if let Some(snapshot) = &self.telemetry {
            let blob = snapshot.to_bytes();
            w.push(1);
            put_u32(&mut w, blob.len() as u32);
            w.extend_from_slice(&blob);
        }
        let checksum = fnv1a(&w);
        put_u64(&mut w, checksum);
        w
    }
}

fn encode_config(w: &mut Vec<u8>, cfg: &BugNetConfig) {
    put_u64(w, cfg.checkpoint_interval);
    put_u64(w, cfg.dictionary_entries as u64);
    put_u32(w, cfg.dictionary_counter_bits);
    put_u32(w, cfg.reduced_lcount_bits);
    put_u32(w, cfg.checkpoint_id_bits);
    put_u32(w, cfg.thread_id_bits);
    put_u64(w, cfg.checkpoint_buffer.bytes());
    put_u64(w, cfg.memory_race_buffer.bytes());
    put_u64(w, cfg.fll_region.bytes());
    put_u64(w, cfg.mrl_region.bytes());
    put_u64(w, cfg.target_replay_window);
    w.push(u8::from(cfg.netzer_reduction));
}

fn decode_config(r: &mut ByteReader<'_>) -> Option<BugNetConfig> {
    Some(BugNetConfig {
        checkpoint_interval: r.u64()?,
        dictionary_entries: r.u64()? as usize,
        dictionary_counter_bits: r.u32()?,
        reduced_lcount_bits: r.u32()?,
        checkpoint_id_bits: r.u32()?,
        thread_id_bits: r.u32()?,
        checkpoint_buffer: ByteSize::from_bytes(r.u64()?),
        memory_race_buffer: ByteSize::from_bytes(r.u64()?),
        fll_region: ByteSize::from_bytes(r.u64()?),
        mrl_region: ByteSize::from_bytes(r.u64()?),
        target_replay_window: r.u64()?,
        netzer_reduction: r.u8()? != 0,
    })
}

/// One retained checkpoint interval loaded back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpedCheckpoint {
    /// The interval's First-Load Log.
    pub fll: FirstLoadLog,
    /// The interval's Memory Race Log.
    pub mrl: MemoryRaceLog,
    /// The execution digest recorded for the interval.
    pub digest: DigestSummary,
}

/// All retained intervals of one thread loaded back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadDump {
    /// The thread.
    pub thread: ThreadId,
    /// The thread's embedded program image, decoded and validated (format
    /// v3 dumps with image embedding on; `None` otherwise).
    pub image: Option<Arc<Program>>,
    /// Retained intervals, oldest first.
    pub checkpoints: Vec<DumpedCheckpoint>,
}

/// A fully loaded and validated crash-dump directory.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashDump {
    /// The decoded manifest.
    pub manifest: DumpManifest,
    /// Per-thread logs, in thread-id order.
    pub threads: Vec<ThreadDump>,
}

/// A complete dump encoded in memory, ready for an atomic commit: the
/// manifest and every file's full contents, manifest first so a commit
/// interrupted mid-staging still leaves the most salvage-critical file
/// (salvage cannot start without a manifest) on disk first.
struct EncodedDump {
    manifest: DumpManifest,
    files: Vec<(String, Vec<u8>)>,
}

/// Writes the retained window of `store` to `dir` as a crash-dump directory
/// in the current (v5, columnar) format: the sealed columnar frames the
/// store already holds are written out verbatim, so serial and parallel
/// flushing produce byte-identical dumps and dump time pays no compression
/// cost. `image_of`
/// supplies each thread's program image; threads for which it returns a
/// program get a codec-compressed, checksummed, content-addressed
/// `image-<hash>.bni` section (threads running the same binary share one
/// file), making the dump self-contained for offline replay. Return `None`
/// to dump a thread without its image (the `embed_image` knob off).
///
/// The dump is committed atomically via staging + rename (see
/// [`commit_atomic`]): `dir` either appears complete or not at all, and an
/// existing dump at `dir` is replaced. Returns the manifest that was
/// written.
///
/// # Errors
///
/// Returns [`DumpError::Io`] (with operation context) if the commit fails,
/// or [`DumpError::Inconsistent`] if the store holds frames sealed with a
/// codec other than its own (mixed-codec stores are not representable on
/// disk) or a program image does not round-trip.
pub fn write_dump(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<DumpManifest, DumpError> {
    write_dump_with_io(dir, meta, store, image_of, &mut StdIo::new())
}

/// [`write_dump`] against an explicit [`DumpIo`] backend — the
/// fault-injection seam. All filesystem traffic of the commit goes through
/// `io`; the encoding itself is pure and performs no I/O.
///
/// # Errors
///
/// As [`write_dump`].
pub fn write_dump_with_io(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    io: &mut dyn DumpIo,
) -> Result<DumpManifest, DumpError> {
    let encoded = encode_codec_dump(meta, store, DUMP_VERSION, image_of)?;
    commit_encoded(io, dir, encoded)
}

/// Writes a dump in the v4 format (row-serialized frames, content-addressed
/// images, no columnar transform). Retained so the v4 loading path stays
/// exercised by tests and so old tooling can be handed a compatible dump,
/// mirroring the earlier version transitions; new dumps should use
/// [`write_dump`].
///
/// # Errors
///
/// As [`write_dump`].
pub fn write_dump_v4(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<DumpManifest, DumpError> {
    write_dump_v4_with_io(dir, meta, store, image_of, &mut StdIo::new())
}

/// [`write_dump_v4`] against an explicit [`DumpIo`] backend.
///
/// # Errors
///
/// As [`write_dump`].
pub fn write_dump_v4_with_io(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    io: &mut dyn DumpIo,
) -> Result<DumpManifest, DumpError> {
    let encoded = encode_codec_dump(meta, store, DUMP_VERSION_V4, image_of)?;
    commit_encoded(io, dir, encoded)
}

/// Writes a dump in the v3 format (per-thread `image-<tid>.bni` files, no
/// content addressing). Retained so the v3 loading path stays exercised by
/// tests and so old tooling can be handed a compatible dump, mirroring the
/// earlier version transitions; new dumps should use [`write_dump`].
///
/// # Errors
///
/// As [`write_dump`].
pub fn write_dump_v3(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<DumpManifest, DumpError> {
    write_dump_v3_with_io(dir, meta, store, image_of, &mut StdIo::new())
}

/// [`write_dump_v3`] against an explicit [`DumpIo`] backend.
///
/// # Errors
///
/// As [`write_dump`].
pub fn write_dump_v3_with_io(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    io: &mut dyn DumpIo,
) -> Result<DumpManifest, DumpError> {
    let encoded = encode_codec_dump(meta, store, DUMP_VERSION_V3, image_of)?;
    commit_encoded(io, dir, encoded)
}

/// Writes a dump in the v2 format (codec containers, no embedded program
/// images). Retained so the v2 loading path stays exercised by tests and so
/// old tooling can be handed a compatible dump; new dumps should use
/// [`write_dump`].
///
/// # Errors
///
/// Returns [`DumpError::Io`] if the commit fails, or
/// [`DumpError::Inconsistent`] on a mixed-codec store.
pub fn write_dump_v2(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
) -> Result<DumpManifest, DumpError> {
    write_dump_v2_with_io(dir, meta, store, &mut StdIo::new())
}

/// [`write_dump_v2`] against an explicit [`DumpIo`] backend.
///
/// # Errors
///
/// As [`write_dump_v2`].
pub fn write_dump_v2_with_io(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
    io: &mut dyn DumpIo,
) -> Result<DumpManifest, DumpError> {
    let encoded = encode_codec_dump(meta, store, DUMP_VERSION_V2, |_| None)?;
    commit_encoded(io, dir, encoded)
}

/// Commits an encoded dump atomically through `io` and returns its manifest.
fn commit_encoded(
    io: &mut dyn DumpIo,
    dir: &Path,
    encoded: EncodedDump,
) -> Result<DumpManifest, DumpError> {
    commit_atomic(io, dir, &encoded.files)?;
    Ok(encoded.manifest)
}

/// Shared body of the v2–v5 writers: encodes the whole dump in memory and
/// performs no I/O. v5 passes the store's sealed columnar frames through
/// untouched; v2–v4 re-serialize the row layout and re-run the codec at
/// dump time (sealing is deterministic, so the legacy bytes are identical
/// to what pre-columnar stores produced — the golden fixtures pin this).
/// v3+ additionally embeds program images, v4+ content-addresses them so
/// identical images are stored once.
fn encode_codec_dump(
    meta: &DumpMeta,
    store: &LogStore,
    version: u32,
    mut image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<EncodedDump, DumpError> {
    let codec = store.codec();
    let mut threads = Vec::new();
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    // v4 content addressing: raw-image hash → (file name, raw bytes for the
    // collision check, raw size, stored size).
    let mut images_by_hash: Vec<(u64, String, Vec<u8>, u64, u64)> = Vec::new();
    for thread in store.threads() {
        let logs = store.thread_logs(thread);
        let mut fll_file = Vec::new();
        let mut mrl_file = Vec::new();
        let mut fll_bytes = 0u64;
        let mut mrl_bytes = 0u64;
        let mut fll_stored_bytes = 0u64;
        let mut mrl_stored_bytes = 0u64;
        let mut digests = Vec::with_capacity(logs.len());
        begin_log_file(
            &mut fll_file,
            FLL_FILE_MAGIC,
            thread,
            logs.len() as u32,
            version,
        );
        begin_log_file(
            &mut mrl_file,
            MRL_FILE_MAGIC,
            thread,
            logs.len() as u32,
            version,
        );
        for entry in logs {
            if entry.codec != codec {
                return Err(DumpError::Inconsistent {
                    file: format!("thread-{}.fll", thread.0),
                    detail: format!(
                        "interval sealed with codec {} in a {} store",
                        entry.codec, codec
                    ),
                });
            }
            fll_bytes += entry.fll_raw_bytes;
            mrl_bytes += entry.mrl_raw_bytes;
            if version >= DUMP_VERSION_V5 {
                fll_stored_bytes += put_frame_v3(&mut fll_file, &entry.fll_frame);
                mrl_stored_bytes += put_frame_v3(&mut mrl_file, &entry.mrl_frame);
            } else {
                let fll_container = encode_container(codec, &entry.fll.to_bytes());
                let mrl_container = encode_container(codec, &entry.mrl.to_bytes());
                if version >= 3 {
                    fll_stored_bytes += put_frame_v3(&mut fll_file, &fll_container);
                    mrl_stored_bytes += put_frame_v3(&mut mrl_file, &mrl_container);
                } else {
                    fll_stored_bytes += put_frame_v2(&mut fll_file, &fll_container);
                    mrl_stored_bytes += put_frame_v2(&mut mrl_file, &mrl_container);
                }
            }
            digests.push(DigestSummary::from(&entry.digest));
        }
        let image = if version >= 3 { image_of(thread) } else { None };
        let (has_image, image_raw_bytes, image_stored_bytes, image_hash) = match &image {
            Some(program) => {
                let raw = encode_image(program);
                // Trust boundary: never ship an image that does not decode
                // back to the recorded binary. Programs exceeding the wire
                // format's sanity bounds (counts, string lengths) would
                // otherwise produce a dump its own loader rejects — or,
                // for truncation-collapsed symbol names, a dump that loads
                // cleanly but replays a subtly different program.
                let hash = fnv1a(&raw);
                let file = if version >= 4 {
                    format!("image-{hash:016x}.bni")
                } else {
                    format!("image-{}.bni", thread.0)
                };
                match decode_image(&raw) {
                    Ok(decoded) if decoded == **program => {}
                    Ok(_) => {
                        return Err(DumpError::Inconsistent {
                            file,
                            detail: "encoded program image does not round-trip to the \
                                     recorded binary (name or symbol beyond wire-format \
                                     limits?)"
                                .into(),
                        })
                    }
                    Err(e) => {
                        return Err(DumpError::Inconsistent {
                            file,
                            detail: format!(
                                "encoded program image does not decode (program exceeds \
                                 wire-format limits): {e}"
                            ),
                        })
                    }
                }
                if version >= 4 {
                    if let Some((_, _, seen_raw, raw_len, stored)) =
                        images_by_hash.iter().find(|(h, ..)| *h == hash)
                    {
                        // Same hash must mean same bytes: FNV is not
                        // collision-resistant, and silently aliasing two
                        // different binaries would replay the wrong program.
                        if seen_raw != &raw {
                            return Err(DumpError::Inconsistent {
                                file,
                                detail: format!(
                                    "image hash {hash:#018x} collides across different \
                                     program images"
                                ),
                            });
                        }
                        (true, *raw_len, *stored, Some(hash))
                    } else {
                        let container = encode_container(codec, &raw);
                        let mut image_file = Vec::with_capacity(16 + 12 + container.len());
                        // One frame behind the same header framing as the
                        // log files; the header's thread id is the first
                        // thread that embedded this image.
                        begin_log_file(&mut image_file, IMAGE_FILE_MAGIC, thread, 1, version);
                        let stored = put_frame_v3(&mut image_file, &container);
                        let raw_len = raw.len() as u64;
                        files.push((file.clone(), image_file));
                        images_by_hash.push((hash, file, raw, raw_len, stored));
                        (true, raw_len, stored, Some(hash))
                    }
                } else {
                    let container = encode_container(codec, &raw);
                    let mut image_file = Vec::with_capacity(16 + 12 + container.len());
                    // The image is one frame behind the same header framing
                    // as the log files, so the frame-count cross-check
                    // covers it.
                    begin_log_file(&mut image_file, IMAGE_FILE_MAGIC, thread, 1, version);
                    let stored = put_frame_v3(&mut image_file, &container);
                    files.push((file, image_file));
                    (true, raw.len() as u64, stored, None)
                }
            }
            None => (false, 0, 0, None),
        };
        let t = ThreadManifest {
            thread,
            checkpoints: logs.len() as u32,
            instructions: store.replay_window(thread),
            fll_bytes,
            mrl_bytes,
            fll_stored_bytes,
            mrl_stored_bytes,
            has_image,
            image_raw_bytes,
            image_stored_bytes,
            image_hash,
            digests,
        };
        files.push((t.fll_file(), fll_file));
        files.push((t.mrl_file(), mrl_file));
        threads.push(t);
    }
    let manifest = DumpManifest {
        version,
        codec,
        created: meta.created,
        workload: meta.workload.clone(),
        config: meta.config.clone(),
        fault: meta.fault.clone(),
        evicted_checkpoints: meta.evicted_checkpoints,
        threads,
        telemetry: meta.telemetry.clone(),
    };
    files.insert(0, (MANIFEST_FILE.to_string(), manifest.encode()));
    Ok(EncodedDump { manifest, files })
}

/// Writes a dump in the legacy v1 format (raw frames, per-frame checksums,
/// no codec layer). Retained so the v1 loading path stays exercised by
/// tests and so old tooling can be handed a compatible dump; new dumps
/// should use [`write_dump`].
///
/// # Errors
///
/// Returns [`DumpError::Io`] if the commit fails.
pub fn write_dump_v1(
    dir: &Path,
    meta: &DumpMeta,
    store: &LogStore,
) -> Result<DumpManifest, DumpError> {
    let mut threads = Vec::new();
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for thread in store.threads() {
        let logs = store.thread_logs(thread);
        let mut fll_file = Vec::new();
        let mut mrl_file = Vec::new();
        let mut fll_bytes = 0u64;
        let mut mrl_bytes = 0u64;
        let mut digests = Vec::with_capacity(logs.len());
        begin_log_file(
            &mut fll_file,
            FLL_FILE_MAGIC,
            thread,
            logs.len() as u32,
            DUMP_VERSION_V1,
        );
        begin_log_file(
            &mut mrl_file,
            MRL_FILE_MAGIC,
            thread,
            logs.len() as u32,
            DUMP_VERSION_V1,
        );
        for entry in logs {
            fll_bytes += put_frame_v1(&mut fll_file, &entry.fll.to_bytes());
            mrl_bytes += put_frame_v1(&mut mrl_file, &entry.mrl.to_bytes());
            digests.push(DigestSummary::from(&entry.digest));
        }
        let t = ThreadManifest {
            thread,
            checkpoints: logs.len() as u32,
            instructions: store.replay_window(thread),
            fll_bytes,
            mrl_bytes,
            fll_stored_bytes: fll_bytes,
            mrl_stored_bytes: mrl_bytes,
            has_image: false,
            image_raw_bytes: 0,
            image_stored_bytes: 0,
            image_hash: None,
            digests,
        };
        files.push((t.fll_file(), fll_file));
        files.push((t.mrl_file(), mrl_file));
        threads.push(t);
    }
    let manifest = DumpManifest {
        version: DUMP_VERSION_V1,
        codec: CodecId::Identity,
        created: meta.created,
        workload: meta.workload.clone(),
        config: meta.config.clone(),
        fault: meta.fault.clone(),
        evicted_checkpoints: meta.evicted_checkpoints,
        threads,
        telemetry: meta.telemetry.clone(),
    };
    files.insert(0, (MANIFEST_FILE.to_string(), manifest.encode()));
    commit_encoded(&mut StdIo::new(), dir, EncodedDump { manifest, files })
}

fn begin_log_file(w: &mut Vec<u8>, magic: [u8; 4], thread: ThreadId, frames: u32, version: u32) {
    w.extend_from_slice(&magic);
    put_u32(w, version);
    put_u32(w, thread.0);
    put_u32(w, frames);
}

/// Appends one v1 frame (length prefix, raw payload, trailing checksum);
/// returns the payload size.
fn put_frame_v1(w: &mut Vec<u8>, payload: &[u8]) -> u64 {
    put_u32(w, payload.len() as u32);
    w.extend_from_slice(payload);
    put_u64(w, fnv1a(payload));
    payload.len() as u64
}

/// Appends one v2 frame (length prefix + self-describing container); returns
/// the stored (container) size.
fn put_frame_v2(w: &mut Vec<u8>, container: &[u8]) -> u64 {
    put_u32(w, container.len() as u32);
    w.extend_from_slice(container);
    container.len() as u64
}

/// Appends one v3 frame: like v2 plus a trailing FNV-1a checksum over the
/// *stored* container bytes. The container's own checksum covers the raw
/// payload, which leaves a hole: LZ streams are redundant, so two different
/// encoded byte sequences can decompress to identical raw bytes — a bit
/// flip in the encoded region could go unnoticed. The stored-bytes checksum
/// closes it: every byte of a v3 frame is now integrity-covered. Returns
/// the stored (container) size; the trailer is framing overhead, counted
/// like the length prefix (i.e. not at all).
fn put_frame_v3(w: &mut Vec<u8>, container: &[u8]) -> u64 {
    put_u32(w, container.len() as u32);
    w.extend_from_slice(container);
    put_u64(w, fnv1a(container));
    container.len() as u64
}

/// Payloads and size accounting decoded from one per-thread log file.
struct LogFileContents {
    /// Raw (decompressed) frame payloads, in frame order.
    payloads: Vec<Vec<u8>>,
    /// Total stored frame bytes (container sizes in v2, payload sizes in v1).
    stored_bytes: u64,
}

/// Reads one v1 frame at the reader's position.
fn read_frame_v1(r: &mut ByteReader<'_>, file: &str, index: u32) -> Result<Vec<u8>, DumpError> {
    let truncated = || DumpError::Truncated { file: file.into() };
    let len = r.u32().ok_or_else(truncated)? as usize;
    let payload = r.take(len).ok_or_else(truncated)?.to_vec();
    let expected = r.u64().ok_or_else(truncated)?;
    let actual = fnv1a(&payload);
    if expected != actual {
        return Err(DumpError::ChecksumMismatch {
            file: file.into(),
            frame: Some(index),
            expected,
            actual,
        });
    }
    Ok(payload)
}

/// Reads one v2 frame (length-prefixed container) at the reader's position;
/// returns the decompressed payload and the stored container size.
fn read_frame_v2(
    r: &mut ByteReader<'_>,
    file: &str,
    index: u32,
    manifest_codec: CodecId,
) -> Result<(Vec<u8>, u64), DumpError> {
    read_codec_frame(r, file, index, manifest_codec, false)
}

/// Reads one v3 frame: a v2 frame followed by an FNV-1a checksum over the
/// stored container bytes (see [`put_frame_v3`]).
fn read_frame_v3(
    r: &mut ByteReader<'_>,
    file: &str,
    index: u32,
    manifest_codec: CodecId,
) -> Result<(Vec<u8>, u64), DumpError> {
    read_codec_frame(r, file, index, manifest_codec, true)
}

fn read_codec_frame(
    r: &mut ByteReader<'_>,
    file: &str,
    index: u32,
    manifest_codec: CodecId,
    stored_checksum: bool,
) -> Result<(Vec<u8>, u64), DumpError> {
    let truncated = || DumpError::Truncated { file: file.into() };
    let len = r.u32().ok_or_else(truncated)? as usize;
    let container = r.take(len).ok_or_else(truncated)?;
    if stored_checksum {
        let expected = r.u64().ok_or_else(truncated)?;
        let actual = fnv1a(container);
        if expected != actual {
            return Err(DumpError::ChecksumMismatch {
                file: file.into(),
                frame: Some(index),
                expected,
                actual,
            });
        }
    }
    let info = container_info(container).map_err(|e| frame_error(file, index, e))?;
    if info.codec != manifest_codec {
        return Err(DumpError::Inconsistent {
            file: file.into(),
            detail: format!(
                "frame {index} uses codec {}, manifest declares {manifest_codec}",
                info.codec
            ),
        });
    }
    let (_, payload) = decode_container(container).map_err(|e| frame_error(file, index, e))?;
    Ok((payload, len as u64))
}

/// Reads one v5 frame: the outer framing of [`put_frame_v3`] (length
/// prefix, payload, FNV-1a checksum over the stored bytes), but the payload
/// is a columnar multi-stream blob carried *verbatim* — each per-field
/// stream stays inside its own codec container until [`CrashDump::load`]
/// joins the streams back into a log. This validates the framing, the
/// stored-bytes checksum, the blob's structure, and that every stream was
/// encoded with the manifest's codec; per-stream payload checksums are
/// verified when the streams are decoded.
fn read_frame_v5(
    r: &mut ByteReader<'_>,
    file: &str,
    index: u32,
    manifest_codec: CodecId,
) -> Result<(Vec<u8>, u64), DumpError> {
    let truncated = || DumpError::Truncated { file: file.into() };
    let len = r.u32().ok_or_else(truncated)? as usize;
    let blob = r.take(len).ok_or_else(truncated)?;
    let expected = r.u64().ok_or_else(truncated)?;
    let actual = fnv1a(blob);
    if expected != actual {
        return Err(DumpError::ChecksumMismatch {
            file: file.into(),
            frame: Some(index),
            expected,
            actual,
        });
    }
    let streams = streams_info(blob).map_err(|e| columnar_frame_error(file, index, e))?;
    for info in &streams {
        if info.codec != manifest_codec {
            return Err(DumpError::Inconsistent {
                file: file.into(),
                detail: format!(
                    "frame {index} stream {} uses codec {}, manifest declares {manifest_codec}",
                    info.id, info.codec
                ),
            });
        }
    }
    Ok((blob.to_vec(), len as u64))
}

/// Maps a columnar-container [`ColumnarError`] to the dump-level error
/// vocabulary, surfacing per-stream checksum mismatches as such.
fn columnar_frame_error(file: &str, index: u32, e: ColumnarError) -> DumpError {
    match e {
        ColumnarError::Stream {
            error: FrameError::Checksum { expected, actual },
            ..
        } => DumpError::ChecksumMismatch {
            file: file.into(),
            frame: Some(index),
            expected,
            actual,
        },
        other => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: other.to_string(),
        },
    }
}

/// Maps a columnar join failure ([`ColumnarCodecError`]) to the dump-level
/// error vocabulary.
fn columnar_log_error(file: &str, index: u32, e: ColumnarCodecError) -> DumpError {
    match e {
        ColumnarCodecError::Container(inner) => columnar_frame_error(file, index, inner),
        other => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: other.to_string(),
        },
    }
}

/// Maps a container [`FrameError`] to the dump-level error vocabulary.
fn frame_error(file: &str, index: u32, e: FrameError) -> DumpError {
    match e {
        // The container was cut short *inside* a length-prefixed frame: the
        // bytes the length prefix promised are all present (a genuinely
        // truncated file fails the `take` above), so this is frame-level
        // corruption — a forged or bit-flipped length prefix — not file
        // truncation, and must not be reported as `DumpError::Truncated`.
        FrameError::Truncated => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: "container truncated inside a length-prefixed frame".into(),
        },
        FrameError::Checksum { expected, actual } => DumpError::ChecksumMismatch {
            file: file.into(),
            frame: Some(index),
            expected,
            actual,
        },
        other => DumpError::CorruptLog {
            file: file.into(),
            frame: index,
            detail: other.to_string(),
        },
    }
}

/// Reads the frames of one per-thread log file, validating its header, every
/// frame (checksums in v1, containers in v2+, columnar blobs in v5 log
/// files), that the file ends exactly after the last frame, and that the
/// frame count matches the manifest even when extra well-formed frames were
/// appended. The same framing carries the FLL/MRL checkpoint frames
/// (`expect_frames` = the manifest's checkpoint count) and the v3+ program
/// image (`expect_frames` = 1). `columnar` selects the v5 columnar frame
/// payload; it is set for v5 FLL/MRL files only — image files keep the
/// single-container layout in every version.
#[allow(clippy::too_many_arguments)]
fn read_log_file(
    dir: &Path,
    file: &str,
    magic: [u8; 4],
    version: u32,
    codec: CodecId,
    thread: ThreadId,
    expect_frames: u32,
    columnar: bool,
) -> Result<LogFileContents, DumpError> {
    let path = dir.join(file);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let truncated = || DumpError::Truncated { file: file.into() };
    let mut r = ByteReader::new(&bytes);
    if r.take(4).ok_or_else(truncated)? != magic {
        return Err(DumpError::BadMagic { file: file.into() });
    }
    let file_version = r.u32().ok_or_else(truncated)?;
    if !(DUMP_VERSION_V1..=DUMP_VERSION).contains(&file_version) {
        return Err(DumpError::UnsupportedVersion {
            file: file.into(),
            version: file_version,
        });
    }
    if file_version != version {
        return Err(DumpError::Inconsistent {
            file: file.into(),
            detail: format!("file is format v{file_version}, manifest declares v{version}"),
        });
    }
    let file_thread = ThreadId(r.u32().ok_or_else(truncated)?);
    if file_thread != thread {
        return Err(DumpError::Inconsistent {
            file: file.into(),
            detail: format!("file claims {file_thread}, manifest expects {thread}"),
        });
    }
    let frames = r.u32().ok_or_else(truncated)?;
    if frames != expect_frames {
        return Err(DumpError::Inconsistent {
            file: file.into(),
            detail: format!("file holds {frames} frames, manifest expects {expect_frames}"),
        });
    }
    let mut payloads = Vec::with_capacity(frames as usize);
    let mut stored_bytes = 0u64;
    for i in 0..frames {
        if columnar {
            let (payload, stored) = read_frame_v5(&mut r, file, i, codec)?;
            payloads.push(payload);
            stored_bytes += stored;
        } else if file_version >= 3 {
            let (payload, stored) = read_frame_v3(&mut r, file, i, codec)?;
            payloads.push(payload);
            stored_bytes += stored;
        } else if file_version == 2 {
            let (payload, stored) = read_frame_v2(&mut r, file, i, codec)?;
            payloads.push(payload);
            stored_bytes += stored;
        } else {
            let payload = read_frame_v1(&mut r, file, i)?;
            stored_bytes += payload.len() as u64;
            payloads.push(payload);
        }
    }
    if !r.is_exhausted() {
        // Distinguish "garbage after the content" from the sneakier forgery
        // where whole well-formed frames were appended (of either framing
        // generation): the manifest's frame count must match the frames
        // actually present even when the extras checksum cleanly.
        let extra = count_clean_extra_frames(&mut r, file, codec);
        if extra > 0 {
            return Err(DumpError::Inconsistent {
                file: file.into(),
                detail: format!(
                    "file holds {} well-formed frame(s), manifest declares {frames}",
                    u64::from(frames) + extra
                ),
            });
        }
        return Err(DumpError::TrailingBytes { file: file.into() });
    }
    Ok(LogFileContents {
        payloads,
        stored_bytes,
    })
}

/// Counts well-formed frames (of either framing generation) remaining after
/// the declared content, for the frame-count consistency diagnostic.
fn count_clean_extra_frames(r: &mut ByteReader<'_>, file: &str, codec: CodecId) -> u64 {
    let mut extra = 0u64;
    loop {
        // v5 columnar blobs and v2/v3 containers are structurally disjoint
        // (a blob opens with the columnar magic, which is not a codec id),
        // so speculating every generation cannot double-count a frame.
        let mut v5 = *r;
        if read_frame_v5(&mut v5, file, 0, codec).is_ok() {
            *r = v5;
            extra += 1;
            continue;
        }
        let mut v3 = *r;
        if read_frame_v3(&mut v3, file, 0, codec).is_ok() {
            *r = v3;
            extra += 1;
            continue;
        }
        let mut v2 = *r;
        if read_frame_v2(&mut v2, file, 0, codec).is_ok() {
            *r = v2;
            extra += 1;
            continue;
        }
        let mut v1 = *r;
        if read_frame_v1(&mut v1, file, 0).is_ok() {
            *r = v1;
            extra += 1;
            continue;
        }
        // Whatever remains is not a clean frame; only fully-consumed trailing
        // frames count.
        return if r.is_exhausted() { extra } else { 0 };
    }
}

impl CrashDump {
    /// Loads a complete crash dump from `dir`, validating checksums, bounds,
    /// manifest/file consistency and FLL/MRL pairing, and decoding every log.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DumpError`] describing the first problem found.
    pub fn load(dir: &Path) -> Result<Self, DumpError> {
        let manifest = DumpManifest::load(dir)?;
        let mut threads = Vec::with_capacity(manifest.threads.len());
        // v4 content addressing: threads running the same binary share one
        // image file. The file's header names the first thread that
        // embedded it, and the decoded program is shared across threads.
        let mut image_cache: Vec<(String, Arc<Program>, u64, u64)> = Vec::new();
        let image_owner = |file: &str| {
            manifest
                .threads
                .iter()
                .find(|t| t.has_image && t.image_file() == file)
                .map(|t| t.thread)
        };
        for t in &manifest.threads {
            let fll_file = t.fll_file();
            let mrl_file = t.mrl_file();
            let columnar = manifest.version >= DUMP_VERSION_V5;
            let fll = read_log_file(
                dir,
                &fll_file,
                FLL_FILE_MAGIC,
                manifest.version,
                manifest.codec,
                t.thread,
                t.checkpoints,
                columnar,
            )?;
            let mrl = read_log_file(
                dir,
                &mrl_file,
                MRL_FILE_MAGIC,
                manifest.version,
                manifest.codec,
                t.thread,
                t.checkpoints,
                columnar,
            )?;
            let fll_frames = fll.payloads;
            let mrl_frames = mrl.payloads;
            if !columnar {
                // v5 manifests keep declaring *row-serialized* raw sizes
                // while the frame payloads are columnar blobs; the row-size
                // cross-check happens after the logs are decoded below.
                check_payload_total(&fll_file, &fll_frames, t.fll_bytes)?;
                check_payload_total(&mrl_file, &mrl_frames, t.mrl_bytes)?;
            }
            check_stored_total(&fll_file, fll.stored_bytes, t.fll_stored_bytes)?;
            check_stored_total(&mrl_file, mrl.stored_bytes, t.mrl_stored_bytes)?;
            let image = if t.has_image {
                let image_file = t.image_file();
                if let Some((_, program, raw_bytes, stored_bytes)) =
                    image_cache.iter().find(|(f, ..)| *f == image_file)
                {
                    // Another thread already loaded this content-addressed
                    // file; the manifest entries sharing it must agree on
                    // its sizes.
                    if t.image_raw_bytes != *raw_bytes || t.image_stored_bytes != *stored_bytes {
                        return Err(DumpError::Inconsistent {
                            file: image_file,
                            detail: format!(
                                "threads sharing this image declare different sizes \
                                 ({}/{} vs {raw_bytes}/{stored_bytes})",
                                t.image_raw_bytes, t.image_stored_bytes
                            ),
                        });
                    }
                    Some(Arc::clone(program))
                } else {
                    // The file's header names the thread that first embedded
                    // it (== this thread in v3, possibly an earlier one in
                    // v4).
                    let owner = image_owner(&image_file).unwrap_or(t.thread);
                    let contents = read_log_file(
                        dir,
                        &image_file,
                        IMAGE_FILE_MAGIC,
                        manifest.version,
                        manifest.codec,
                        owner,
                        1,
                        false,
                    )?;
                    check_payload_total(&image_file, &contents.payloads, t.image_raw_bytes)?;
                    check_stored_total(&image_file, contents.stored_bytes, t.image_stored_bytes)?;
                    let raw = &contents.payloads[0];
                    if let Some(expected) = t.image_hash {
                        let actual = fnv1a(raw);
                        if actual != expected {
                            return Err(DumpError::ChecksumMismatch {
                                file: image_file,
                                frame: Some(0),
                                expected,
                                actual,
                            });
                        }
                    }
                    let program = decode_image(raw).map_err(|e| DumpError::CorruptLog {
                        file: image_file.clone(),
                        frame: 0,
                        detail: format!("program image failed to decode: {e}"),
                    })?;
                    let program = Arc::new(program);
                    image_cache.push((
                        image_file,
                        Arc::clone(&program),
                        t.image_raw_bytes,
                        t.image_stored_bytes,
                    ));
                    Some(program)
                }
            } else {
                None
            };
            let mut checkpoints = Vec::with_capacity(fll_frames.len());
            let mut instructions = 0u64;
            let (mut fll_row_bytes, mut mrl_row_bytes) = (0u64, 0u64);
            for (i, (fll_bytes, mrl_bytes)) in fll_frames.iter().zip(&mrl_frames).enumerate() {
                let fll = if columnar {
                    decode_fll_columnar(fll_bytes)
                        .map_err(|e| columnar_log_error(&fll_file, i as u32, e))?
                } else {
                    FirstLoadLog::from_bytes(fll_bytes).map_err(|e| DumpError::CorruptLog {
                        file: fll_file.clone(),
                        frame: i as u32,
                        detail: e.to_string(),
                    })?
                };
                let mrl = if columnar {
                    decode_mrl_columnar(mrl_bytes)
                        .map_err(|e| columnar_log_error(&mrl_file, i as u32, e))?
                } else {
                    MemoryRaceLog::from_bytes(mrl_bytes).ok_or_else(|| DumpError::CorruptLog {
                        file: mrl_file.clone(),
                        frame: i as u32,
                        detail: "memory race log failed to decode".into(),
                    })?
                };
                fll_row_bytes += fll.serialized_len();
                mrl_row_bytes += mrl.serialized_len();
                if fll.header.thread != t.thread {
                    return Err(DumpError::Inconsistent {
                        file: fll_file.clone(),
                        detail: format!(
                            "frame {i} belongs to {}, expected {}",
                            fll.header.thread, t.thread
                        ),
                    });
                }
                if mrl.header.checkpoint != fll.header.checkpoint
                    || mrl.header.thread != fll.header.thread
                {
                    return Err(DumpError::Inconsistent {
                        file: mrl_file.clone(),
                        detail: format!(
                            "frame {i} pairs {} {} with FLL {} {}",
                            mrl.header.thread,
                            mrl.header.checkpoint,
                            fll.header.thread,
                            fll.header.checkpoint
                        ),
                    });
                }
                // Checked: frames are attacker-controlled (FNV is not a MAC),
                // and an overflowing sum must not panic or wrap past the
                // manifest cross-check below.
                instructions = instructions.checked_add(fll.instructions).ok_or_else(|| {
                    DumpError::Inconsistent {
                        file: fll_file.clone(),
                        detail: "declared per-interval instruction counts overflow".into(),
                    }
                })?;
                checkpoints.push(DumpedCheckpoint {
                    fll,
                    mrl,
                    digest: t.digests[i],
                });
            }
            if instructions != t.instructions {
                return Err(DumpError::Inconsistent {
                    file: fll_file.clone(),
                    detail: format!(
                        "logs cover {instructions} instructions, manifest declares {}",
                        t.instructions
                    ),
                });
            }
            if columnar {
                // The columnar payload check deferred from above: the
                // manifest's raw sizes are row-serialized semantics, so they
                // are validated against the decoded logs, not the blobs.
                if fll_row_bytes != t.fll_bytes {
                    return Err(DumpError::Inconsistent {
                        file: fll_file.clone(),
                        detail: format!(
                            "decoded logs re-serialize to {fll_row_bytes} bytes, manifest \
                             declares {}",
                            t.fll_bytes
                        ),
                    });
                }
                if mrl_row_bytes != t.mrl_bytes {
                    return Err(DumpError::Inconsistent {
                        file: mrl_file.clone(),
                        detail: format!(
                            "decoded logs re-serialize to {mrl_row_bytes} bytes, manifest \
                             declares {}",
                            t.mrl_bytes
                        ),
                    });
                }
            }
            threads.push(ThreadDump {
                thread: t.thread,
                image,
                checkpoints,
            });
        }
        Ok(CrashDump { manifest, threads })
    }

    /// The logs of one thread, if retained in the dump.
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadDump> {
        self.threads.iter().find(|t| t.thread == thread)
    }

    /// The embedded program image of one thread, if the dump carries it.
    pub fn embedded_program(&self, thread: ThreadId) -> Option<&Arc<Program>> {
        self.thread(thread).and_then(|t| t.image.as_ref())
    }

    /// Whether every thread in the dump carries its program image, i.e. the
    /// dump replays with no out-of-band workload registry.
    pub fn is_self_contained(&self) -> bool {
        self.threads.iter().all(|t| t.image.is_some())
    }

    /// Replays every retained interval of every thread and checks each
    /// replay against the recorded digest. A thread's *embedded* program
    /// image (format v3) is preferred; `fallback` is only consulted for
    /// threads without one (v1/v2 dumps, or image embedding disabled) —
    /// the registry-resolution path. Threads with neither are reported as
    /// unreplayable rather than failing the whole dump.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an interval that cannot be
    /// replayed at all (corrupt stream, bad initial state, divergent length).
    pub fn replay(
        &self,
        mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(
            |t| t.image.clone().or_else(|| fallback(t.thread)),
            None,
            None,
            None,
        )
    }

    /// Checkpoint-seeking time travel: like [`replay`](CrashDump::replay),
    /// but replays only the intervals whose checkpoint id is `from` or
    /// later. Every FLL header carries the complete architectural state at
    /// the start of its interval, so seeking is free — intervals before
    /// `from` are skipped outright, never re-executed.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_from(
        &self,
        from: CheckpointId,
        mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(
            |t| t.image.clone().or_else(|| fallback(t.thread)),
            None,
            Some(from),
            None,
        )
    }

    /// Searches for each thread's first interval whose replayed digest
    /// diverges from the recorded one, replaying as few intervals as it can
    /// get away with: under the usual failure mode — corruption persists
    /// from some interval onward — a binary search plus a two-probe
    /// verification finds the frontier in `O(log n)` interval replays. When
    /// the verification detects that divergence is *not* monotone (say, a
    /// single tampered digest in the middle of a clean window), it falls
    /// back to a linear scan so the answer is still the true first
    /// divergence. Program images resolve exactly as in
    /// [`replay`](CrashDump::replay): embedded image first, `fallback` for
    /// threads without one.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an interval that cannot be
    /// replayed at all.
    pub fn bisect(
        &self,
        mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<BisectReport, ReplayError> {
        let mut report = BisectReport::default();
        for t in &self.threads {
            report.intervals += t.checkpoints.len() as u64;
            let Some(program) = t.image.clone().or_else(|| fallback(t.thread)) else {
                report.unreplayable_threads.push(t.thread);
                continue;
            };
            let replayer = Replayer::new(program);
            let n = t.checkpoints.len();
            let mut probes = 0u64;
            // Each interval replays at most once: the frontier check and
            // the fallback scan reuse what the binary search learned, so a
            // healthy thread costs exactly `n` probes.
            let mut matched: Vec<Option<bool>> = vec![None; n];
            let mut probe = |i: usize, probes: &mut u64| -> Result<bool, ReplayError> {
                if let Some(known) = matched[i] {
                    return Ok(known);
                }
                *probes += 1;
                let cp = &t.checkpoints[i];
                let replayed = replayer.replay_interval(&cp.fll)?;
                let matches = cp.digest.matches(&replayed.digest);
                matched[i] = Some(matches);
                Ok(matches)
            };
            // Binary search for the match/diverge frontier, assuming all
            // intervals before it match and all after it diverge.
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(mid, &mut probes)? {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let mut first = None;
            if lo < n {
                // Verify the monotonicity assumption around the candidate:
                // it must diverge and its predecessor must match.
                if !probe(lo, &mut probes)? && (lo == 0 || probe(lo - 1, &mut probes)?) {
                    first = Some(lo);
                }
            }
            if first.is_none() {
                // Either every probe matched (a lone divergence can hide
                // from the binary search) or the frontier shape was
                // violated: scan for the ground truth.
                for i in 0..n {
                    if !probe(i, &mut probes)? {
                        first = Some(i);
                        break;
                    }
                }
            }
            report.probes += probes;
            if let Some(index) = first {
                report.divergences.push(BisectDivergence {
                    thread: t.thread,
                    checkpoint: t.checkpoints[index].fll.header.checkpoint,
                    index: index as u32,
                });
            }
        }
        Ok(report)
    }

    /// Replays against exactly the supplied program images, ignoring any
    /// embedded ones — the `--workload` explicit-override path.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_with(
        &self,
        mut program_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(|t| program_of(t.thread), None, None, None)
    }

    /// Like [`replay_with`](CrashDump::replay_with), but also feeds replay
    /// telemetry into `stats` as it goes.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_with_observed(
        &self,
        mut program_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
        stats: &ReplayStats,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(|t| program_of(t.thread), Some(stats), None, None)
    }

    /// Like [`replay`](CrashDump::replay), but also feeds replay telemetry
    /// (interval latency, instruction and digest-comparison counters) into
    /// `stats` as it goes.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_observed(
        &self,
        mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
        stats: &ReplayStats,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(
            |t| t.image.clone().or_else(|| fallback(t.thread)),
            Some(stats),
            None,
            None,
        )
    }

    /// Like [`replay`](CrashDump::replay), but emits one `interval` span
    /// (category `replay`, instruction-count arg) per replayed interval
    /// into `tracer`, plus `digest_mismatch` instants where the replay
    /// diverges — the timeline twin of
    /// [`replay_observed`](CrashDump::replay_observed)'s aggregates.
    /// `stats` may be supplied as well; the two observers are independent.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_traced(
        &self,
        mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
        stats: Option<&ReplayStats>,
        tracer: &mut bugnet_trace::ThreadTracer,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(
            |t| t.image.clone().or_else(|| fallback(t.thread)),
            stats,
            None,
            Some(tracer),
        )
    }

    /// Like [`replay_with`](CrashDump::replay_with), but emits timeline
    /// events into `tracer` as [`replay_traced`](CrashDump::replay_traced)
    /// does.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_with_traced(
        &self,
        mut program_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
        stats: Option<&ReplayStats>,
        tracer: &mut bugnet_trace::ThreadTracer,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_inner(|t| program_of(t.thread), stats, None, Some(tracer))
    }

    fn replay_inner(
        &self,
        mut resolve: impl FnMut(&ThreadDump) -> Option<Arc<Program>>,
        stats: Option<&ReplayStats>,
        from: Option<CheckpointId>,
        mut tracer: Option<&mut bugnet_trace::ThreadTracer>,
    ) -> Result<DumpReplayReport, ReplayError> {
        let mut report = DumpReplayReport::default();
        for t in &self.threads {
            let Some(program) = resolve(t) else {
                report.unreplayable_threads.push(t.thread);
                continue;
            };
            let replayer = Replayer::new(program);
            for cp in &t.checkpoints {
                if from.is_some_and(|from| cp.fll.header.checkpoint < from) {
                    continue;
                }
                let started = stats.map(|_| std::time::Instant::now());
                let trace_start = tracer.as_ref().map(|tr| tr.now());
                let replayed = replayer.replay_interval(&cp.fll)?;
                let fault_reproduced = cp.fll.fault.map(|expected| {
                    replayed
                        .observed_fault
                        .map(|(pc, _)| pc == expected.pc)
                        .unwrap_or(false)
                });
                let digest_match = cp.digest.matches(&replayed.digest);
                if let (Some(stats), Some(started)) = (stats, started) {
                    stats.interval_ns.record_duration(started.elapsed());
                    stats.intervals.inc();
                    stats.instructions.add(replayed.instructions);
                    stats.loads_from_log.add(replayed.loads_from_log);
                    if digest_match {
                        stats.digest_matches.inc();
                    } else {
                        stats.digest_mismatches.inc();
                    }
                }
                if let (Some(tr), Some(start)) = (tracer.as_deref_mut(), trace_start) {
                    tr.span_since_arg(
                        "interval",
                        "replay",
                        start,
                        "instructions",
                        replayed.instructions,
                    );
                    if !digest_match {
                        tr.instant("digest_mismatch", "replay");
                    }
                }
                report.intervals.push(DumpIntervalReplay {
                    thread: t.thread,
                    checkpoint: cp.fll.header.checkpoint,
                    instructions: replayed.instructions,
                    loads_from_log: replayed.loads_from_log,
                    loads_from_memory: replayed.loads_from_memory,
                    digest_match,
                    fault_reproduced,
                });
            }
        }
        Ok(report)
    }
}

/// Telemetry handles for the dump replay path, registered under the
/// `replay_*` metric names.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// Instructions replayed (`replay_instructions_total`).
    pub instructions: Arc<bugnet_telemetry::Counter>,
    /// Intervals replayed (`replay_intervals_total`).
    pub intervals: Arc<bugnet_telemetry::Counter>,
    /// Loads satisfied from the FLL (`replay_loads_from_log_total`).
    pub loads_from_log: Arc<bugnet_telemetry::Counter>,
    /// Digest comparisons that matched (`replay_digest_matches_total`).
    pub digest_matches: Arc<bugnet_telemetry::Counter>,
    /// Digest comparisons that diverged (`replay_digest_mismatches_total`).
    pub digest_mismatches: Arc<bugnet_telemetry::Counter>,
    /// Wall-clock latency of one interval replay (`replay_interval_ns`).
    pub interval_ns: Arc<bugnet_telemetry::Histogram>,
}

impl ReplayStats {
    /// Registers (or re-attaches to) the replay metrics in `registry`.
    pub fn register(registry: &bugnet_telemetry::Registry) -> Self {
        ReplayStats {
            instructions: registry.counter("replay_instructions_total"),
            intervals: registry.counter("replay_intervals_total"),
            loads_from_log: registry.counter("replay_loads_from_log_total"),
            digest_matches: registry.counter("replay_digest_matches_total"),
            digest_mismatches: registry.counter("replay_digest_mismatches_total"),
            interval_ns: registry.histogram("replay_interval_ns"),
        }
    }
}

/// Result of [`CrashDump::bisect`]: the per-thread digest-divergence
/// frontier and how much replay work finding it took.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BisectReport {
    /// First divergent interval of each thread that has one, in thread
    /// order.
    pub divergences: Vec<BisectDivergence>,
    /// Threads that could not be replayed (no embedded image and no
    /// fallback program).
    pub unreplayable_threads: Vec<ThreadId>,
    /// Interval replays performed across all threads.
    pub probes: u64,
    /// Retained intervals across all threads.
    pub intervals: u64,
}

impl BisectReport {
    /// Whether every replayable interval matched its recorded digest.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// One thread's first digest-divergent interval, found by
/// [`CrashDump::bisect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectDivergence {
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier of the first divergent interval.
    pub checkpoint: CheckpointId,
    /// Index of the interval within the thread's retained window.
    pub index: u32,
}

fn check_payload_total(file: &str, frames: &[Vec<u8>], declared: u64) -> Result<(), DumpError> {
    let actual: u64 = frames.iter().map(|f| f.len() as u64).sum();
    if actual != declared {
        return Err(DumpError::Inconsistent {
            file: file.into(),
            detail: format!("frames total {actual} payload bytes, manifest declares {declared}"),
        });
    }
    Ok(())
}

fn check_stored_total(file: &str, actual: u64, declared: u64) -> Result<(), DumpError> {
    if actual != declared {
        return Err(DumpError::Inconsistent {
            file: file.into(),
            detail: format!("frames total {actual} stored bytes, manifest declares {declared}"),
        });
    }
    Ok(())
}

/// Result of replaying one interval out of a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpIntervalReplay {
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier.
    pub checkpoint: CheckpointId,
    /// Instructions replayed.
    pub instructions: u64,
    /// Loads whose value came from the log.
    pub loads_from_log: u64,
    /// Loads regenerated from the replayed memory image.
    pub loads_from_memory: u64,
    /// Whether the replay digest matched the digest recorded in the dump.
    pub digest_match: bool,
    /// For fault-terminated intervals: whether the fault reproduced at the
    /// recorded program counter.
    pub fault_reproduced: Option<bool>,
}

/// Result of replaying a whole dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DumpReplayReport {
    /// Per-interval results, grouped by thread, oldest interval first.
    pub intervals: Vec<DumpIntervalReplay>,
    /// Threads whose program image could not be reconstructed.
    pub unreplayable_threads: Vec<ThreadId>,
}

impl DumpReplayReport {
    /// Whether every interval replayed to the recorded digest (and fault,
    /// where applicable) and every thread was replayable.
    pub fn all_match(&self) -> bool {
        !self.intervals.is_empty()
            && self.unreplayable_threads.is_empty()
            && self
                .intervals
                .iter()
                .all(|i| i.digest_match && i.fault_reproduced.unwrap_or(true))
    }

    /// Intervals that diverged from the recording.
    pub fn divergences(&self) -> Vec<&DumpIntervalReplay> {
        self.intervals
            .iter()
            .filter(|i| !(i.digest_match && i.fault_reproduced.unwrap_or(true)))
            .collect()
    }

    /// Total instructions replayed.
    pub fn instructions(&self) -> u64 {
        self.intervals.iter().map(|i| i.instructions).sum()
    }
}

/// Summary statistics of a verified dump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumpVerifyReport {
    /// Threads in the dump.
    pub threads: usize,
    /// Retained checkpoint intervals across all threads.
    pub checkpoints: u64,
    /// Serialized FLL payload bytes.
    pub fll_bytes: u64,
    /// Serialized MRL payload bytes.
    pub mrl_bytes: u64,
    /// Stored (post-codec) FLL frame bytes.
    pub fll_stored_bytes: u64,
    /// Stored (post-codec) MRL frame bytes.
    pub mrl_stored_bytes: u64,
    /// Threads whose program image is embedded (format v3).
    pub images: usize,
    /// Serialized (uncompressed) program-image bytes across all threads.
    pub image_raw_bytes: u64,
    /// Stored (post-codec) program-image bytes across all threads.
    pub image_stored_bytes: u64,
    /// Back-end codec of the dump.
    pub codec: CodecId,
    /// First-load records across all FLLs.
    pub records: u64,
    /// Records that individually decoded during the deep pass.
    pub records_decoded: u64,
    /// Ordering edges across all MRLs.
    pub mrl_entries: u64,
}

impl Default for DumpVerifyReport {
    fn default() -> Self {
        DumpVerifyReport {
            threads: 0,
            checkpoints: 0,
            fll_bytes: 0,
            mrl_bytes: 0,
            fll_stored_bytes: 0,
            mrl_stored_bytes: 0,
            images: 0,
            image_raw_bytes: 0,
            image_stored_bytes: 0,
            codec: CodecId::Identity,
            records: 0,
            records_decoded: 0,
            mrl_entries: 0,
        }
    }
}

impl DumpVerifyReport {
    /// Back-end compression ratio over all frames (raw / stored).
    pub fn backend_ratio(&self) -> f64 {
        let stored = self.fll_stored_bytes + self.mrl_stored_bytes;
        if stored == 0 {
            1.0
        } else {
            (self.fll_bytes + self.mrl_bytes) as f64 / stored as f64
        }
    }

    /// Back-end compression ratio over the embedded program images (raw /
    /// stored; 1.0 when no images are embedded).
    pub fn image_ratio(&self) -> f64 {
        if self.image_stored_bytes == 0 {
            1.0
        } else {
            self.image_raw_bytes as f64 / self.image_stored_bytes as f64
        }
    }
}

/// Loads a dump and additionally decodes every FLL record stream, i.e. the
/// full checksum + decode pass behind `bugnet verify`.
///
/// # Errors
///
/// Returns a typed [`DumpError`] describing the first problem found.
pub fn verify_dump(dir: &Path) -> Result<DumpVerifyReport, DumpError> {
    CrashDump::load(dir)?.verify()
}

impl CrashDump {
    /// The deep pass of [`verify_dump`] over an already-loaded dump:
    /// decodes every FLL record stream and aggregates the size statistics,
    /// without re-reading anything from disk.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DumpError`] describing the first problem found.
    pub fn verify(&self) -> Result<DumpVerifyReport, DumpError> {
        let mut report = DumpVerifyReport {
            threads: self.threads.len(),
            codec: self.manifest.codec,
            ..DumpVerifyReport::default()
        };
        let mut seen_image_files: Vec<String> = Vec::new();
        for (t, m) in self.threads.iter().zip(&self.manifest.threads) {
            report.checkpoints += t.checkpoints.len() as u64;
            report.fll_bytes += m.fll_bytes;
            report.mrl_bytes += m.mrl_bytes;
            report.fll_stored_bytes += m.fll_stored_bytes;
            report.mrl_stored_bytes += m.mrl_stored_bytes;
            if t.image.is_some() {
                report.images += 1;
                // Byte totals count each content-addressed (v4) image file
                // once, matching what the dump costs on disk.
                let file = m.image_file();
                if !seen_image_files.contains(&file) {
                    seen_image_files.push(file);
                    report.image_raw_bytes += m.image_raw_bytes;
                    report.image_stored_bytes += m.image_stored_bytes;
                }
            }
            for (i, cp) in t.checkpoints.iter().enumerate() {
                report.records += cp.fll.records();
                report.mrl_entries += cp.mrl.entries().len() as u64;
                let decoded = cp.fll.decode_records().map_err(|e| DumpError::CorruptLog {
                    file: m.fll_file(),
                    frame: i as u32,
                    detail: e.to_string(),
                })?;
                report.records_decoded += decoded.len() as u64;
            }
        }
        Ok(report)
    }
}

// --- salvage loading ------------------------------------------------------

/// What salvage recovered from (and lost in) one dump file.
#[derive(Debug)]
pub struct FileSalvage {
    /// The file (relative to the dump directory).
    pub file: String,
    /// Frames the manifest declares for this file.
    pub declared_frames: u32,
    /// Leading frames that were fully intact (checksums, decode, pairing
    /// preconditions) and therefore recovered.
    pub intact_frames: u32,
    /// Byte offset of the first damage in the file, when any.
    pub first_bad_offset: Option<u64>,
    /// The typed error that ended recovery of this file, when any.
    pub cause: Option<DumpError>,
}

impl FileSalvage {
    /// Declared frames that could not be recovered.
    pub fn lost_frames(&self) -> u32 {
        self.declared_frames.saturating_sub(self.intact_frames)
    }

    /// Whether the file was fully intact.
    pub fn is_clean(&self) -> bool {
        self.cause.is_none() && self.lost_frames() == 0
    }
}

/// Ground-truth account of what [`CrashDump::load_salvage`] recovered: one
/// entry per dump file plus interval/image totals.
#[derive(Debug, Default)]
pub struct SalvageReport {
    /// Per-file results, in manifest thread order (FLL, MRL, then image per
    /// thread; each content-addressed v4 image file appears once).
    pub files: Vec<FileSalvage>,
    /// Checkpoint intervals recovered intact across all threads (both logs
    /// intact, decoded and correctly paired).
    pub intact_intervals: u64,
    /// Declared checkpoint intervals that could not be recovered.
    pub lost_intervals: u64,
    /// Embedded image files that could not be recovered.
    pub lost_images: u32,
}

impl SalvageReport {
    /// Whether nothing at all was lost — the dump was fully intact.
    pub fn is_clean(&self) -> bool {
        self.lost_intervals == 0
            && self.lost_images == 0
            && self.files.iter().all(|f| f.cause.is_none())
    }

    /// Total frames lost across all files.
    pub fn lost_frames(&self) -> u64 {
        self.files.iter().map(|f| u64::from(f.lost_frames())).sum()
    }
}

/// A dump recovered by [`CrashDump::load_salvage`]: every intact prefix of
/// intervals, plus the account of what was lost. The contained dump's
/// manifest is *adjusted* to the salvaged content (checkpoint counts, byte
/// totals, digests, image presence), so it is internally consistent and
/// [`CrashDump::replay`] / [`CrashDump::verify`] work on it unchanged —
/// replay simply runs up to the last fully-intact interval of each thread.
#[derive(Debug)]
pub struct SalvagedDump {
    /// The recovered dump.
    pub dump: CrashDump,
    /// What was recovered and what was lost.
    pub report: SalvageReport,
}

/// One leniently-parsed frame: its decompressed payload, stored size and
/// start offset in the file.
struct SalvagedFrame {
    payload: Vec<u8>,
    stored: u64,
    offset: u64,
}

/// Lenient parse of one log file: every leading frame that validates, plus
/// where and why parsing stopped.
struct SalvagedFile {
    frames: Vec<SalvagedFrame>,
    first_bad_offset: Option<u64>,
    cause: Option<DumpError>,
}

impl SalvagedFile {
    fn empty(cause: DumpError, offset: Option<u64>) -> Self {
        SalvagedFile {
            frames: Vec::new(),
            first_bad_offset: offset,
            cause: Some(cause),
        }
    }
}

/// Reads as many leading frames of a log file as validate, instead of
/// rejecting the file on the first problem like [`read_log_file`]. Frame
/// integrity relies on the same per-frame checksums the strict path uses;
/// nothing that fails a checksum is ever recovered.
#[allow(clippy::too_many_arguments)]
fn salvage_log_file(
    dir: &Path,
    file: &str,
    magic: [u8; 4],
    version: u32,
    codec: CodecId,
    thread: ThreadId,
    expect_frames: u32,
    columnar: bool,
) -> SalvagedFile {
    let path = dir.join(file);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => return SalvagedFile::empty(io_err(&path, e), None),
    };
    let mut r = ByteReader::new(&bytes);
    let truncated = || DumpError::Truncated { file: file.into() };
    match r.take(4) {
        Some(m) if m == magic => {}
        Some(_) => return SalvagedFile::empty(DumpError::BadMagic { file: file.into() }, Some(0)),
        None => return SalvagedFile::empty(truncated(), Some(0)),
    }
    let Some(file_version) = r.u32() else {
        return SalvagedFile::empty(truncated(), Some(r.position()));
    };
    if !(DUMP_VERSION_V1..=DUMP_VERSION).contains(&file_version) {
        return SalvagedFile::empty(
            DumpError::UnsupportedVersion {
                file: file.into(),
                version: file_version,
            },
            Some(4),
        );
    }
    if file_version != version {
        return SalvagedFile::empty(
            DumpError::Inconsistent {
                file: file.into(),
                detail: format!("file is format v{file_version}, manifest declares v{version}"),
            },
            Some(4),
        );
    }
    let Some(file_thread) = r.u32() else {
        return SalvagedFile::empty(truncated(), Some(r.position()));
    };
    if ThreadId(file_thread) != thread {
        return SalvagedFile::empty(
            DumpError::Inconsistent {
                file: file.into(),
                detail: format!("file claims thread {file_thread}, manifest expects {thread}"),
            },
            Some(8),
        );
    }
    let Some(file_frames) = r.u32() else {
        return SalvagedFile::empty(truncated(), Some(r.position()));
    };
    let mut cause = None;
    let mut first_bad_offset = None;
    if file_frames != expect_frames {
        // Keep parsing up to the smaller count, but the disagreement itself
        // is damage worth reporting.
        cause = Some(DumpError::Inconsistent {
            file: file.into(),
            detail: format!("file holds {file_frames} frames, manifest expects {expect_frames}"),
        });
        first_bad_offset = Some(12);
    }
    let limit = file_frames.min(expect_frames);
    let mut frames = Vec::with_capacity(limit as usize);
    for i in 0..limit {
        let offset = r.position();
        let parsed = if columnar {
            read_frame_v5(&mut r, file, i, codec)
        } else if version >= 3 {
            read_frame_v3(&mut r, file, i, codec)
        } else if version == DUMP_VERSION_V2 {
            read_frame_v2(&mut r, file, i, codec)
        } else {
            read_frame_v1(&mut r, file, i).map(|payload| {
                let stored = payload.len() as u64;
                (payload, stored)
            })
        };
        match parsed {
            Ok((payload, stored)) => frames.push(SalvagedFrame {
                payload,
                stored,
                offset,
            }),
            Err(e) => {
                if cause.is_none() {
                    cause = Some(e);
                    first_bad_offset = Some(offset);
                }
                break;
            }
        }
    }
    if cause.is_none() && !r.is_exhausted() {
        // All declared frames intact but junk follows: recoverable content
        // is unaffected, the damage is still reported.
        first_bad_offset = Some(r.position());
        cause = Some(DumpError::TrailingBytes { file: file.into() });
    }
    SalvagedFile {
        frames,
        first_bad_offset,
        cause,
    }
}

impl CrashDump {
    /// Loads whatever is recoverable from a damaged dump directory.
    ///
    /// Where [`CrashDump::load`] rejects a dump on the first problem, this
    /// recovers every *intact prefix* of checkpoint intervals per thread:
    /// an interval survives when both of its log frames pass their
    /// checksums, decode, and pair correctly. Embedded program images are
    /// recovered when their file validates. The returned dump's manifest is
    /// adjusted to the recovered content so replay and verification work
    /// unchanged, and the [`SalvageReport`] states per file how many frames
    /// survived, where the first damage sits, and the typed cause.
    ///
    /// # Errors
    ///
    /// Returns a [`DumpError`] only when the *manifest* is unusable
    /// (missing, corrupt, truncated): without it there is no ground truth
    /// about what the dump contained, so there is nothing to salvage
    /// against. Everything else degrades into the report.
    pub fn load_salvage(dir: &Path) -> Result<SalvagedDump, DumpError> {
        let manifest = DumpManifest::load(dir)?;
        let mut report = SalvageReport::default();
        let mut threads = Vec::with_capacity(manifest.threads.len());
        let mut adjusted = Vec::with_capacity(manifest.threads.len());
        // Shared v4 image files: salvage each file once, share the result.
        let mut image_cache: Vec<(String, Option<Arc<Program>>)> = Vec::new();
        let image_owner = |file: &str| {
            manifest
                .threads
                .iter()
                .find(|t| t.has_image && t.image_file() == file)
                .map(|t| t.thread)
        };
        let columnar = manifest.version >= DUMP_VERSION_V5;
        for t in &manifest.threads {
            let fll_file = t.fll_file();
            let mrl_file = t.mrl_file();
            let fll = salvage_log_file(
                dir,
                &fll_file,
                FLL_FILE_MAGIC,
                manifest.version,
                manifest.codec,
                t.thread,
                t.checkpoints,
                columnar,
            );
            let mrl = salvage_log_file(
                dir,
                &mrl_file,
                MRL_FILE_MAGIC,
                manifest.version,
                manifest.codec,
                t.thread,
                t.checkpoints,
                columnar,
            );
            let mut fll_intact = fll.frames.len() as u32;
            let mut mrl_intact = mrl.frames.len() as u32;
            let (mut fll_cause, mut fll_off) = (fll.cause, fll.first_bad_offset);
            let (mut mrl_cause, mut mrl_off) = (mrl.cause, mrl.first_bad_offset);
            let mut checkpoints = Vec::new();
            let mut instructions = 0u64;
            let (mut fll_bytes, mut fll_stored) = (0u64, 0u64);
            let (mut mrl_bytes, mut mrl_stored) = (0u64, 0u64);
            // An interval is recovered only when *both* frames decode and
            // pair; a decode or pairing failure is earlier damage than
            // whatever byte-level cause the per-file pass may have found.
            for i in 0..fll.frames.len().min(mrl.frames.len()) {
                let ff = &fll.frames[i];
                let mf = &mrl.frames[i];
                let parsed_fll = if columnar {
                    decode_fll_columnar(&ff.payload)
                        .map_err(|e| columnar_log_error(&fll_file, i as u32, e))
                } else {
                    FirstLoadLog::from_bytes(&ff.payload).map_err(|e| DumpError::CorruptLog {
                        file: fll_file.clone(),
                        frame: i as u32,
                        detail: e.to_string(),
                    })
                };
                let decoded_fll = match parsed_fll {
                    Ok(log) => log,
                    Err(e) => {
                        fll_intact = i as u32;
                        fll_off = Some(ff.offset);
                        fll_cause = Some(e);
                        break;
                    }
                };
                let parsed_mrl = if columnar {
                    decode_mrl_columnar(&mf.payload)
                        .map_err(|e| columnar_log_error(&mrl_file, i as u32, e))
                } else {
                    MemoryRaceLog::from_bytes(&mf.payload).ok_or_else(|| DumpError::CorruptLog {
                        file: mrl_file.clone(),
                        frame: i as u32,
                        detail: "memory race log failed to decode".into(),
                    })
                };
                let decoded_mrl = match parsed_mrl {
                    Ok(log) => log,
                    Err(e) => {
                        mrl_intact = i as u32;
                        mrl_off = Some(mf.offset);
                        mrl_cause = Some(e);
                        break;
                    }
                };
                if decoded_fll.header.thread != t.thread {
                    fll_intact = i as u32;
                    fll_off = Some(ff.offset);
                    fll_cause = Some(DumpError::Inconsistent {
                        file: fll_file.clone(),
                        detail: format!(
                            "frame {i} belongs to {}, expected {}",
                            decoded_fll.header.thread, t.thread
                        ),
                    });
                    break;
                }
                if decoded_mrl.header.checkpoint != decoded_fll.header.checkpoint
                    || decoded_mrl.header.thread != decoded_fll.header.thread
                {
                    mrl_intact = i as u32;
                    mrl_off = Some(mf.offset);
                    mrl_cause = Some(DumpError::Inconsistent {
                        file: mrl_file.clone(),
                        detail: format!(
                            "frame {i} pairs {} {} with FLL {} {}",
                            decoded_mrl.header.thread,
                            decoded_mrl.header.checkpoint,
                            decoded_fll.header.thread,
                            decoded_fll.header.checkpoint
                        ),
                    });
                    break;
                }
                let Some(total) = instructions.checked_add(decoded_fll.instructions) else {
                    fll_intact = i as u32;
                    fll_off = Some(ff.offset);
                    fll_cause = Some(DumpError::Inconsistent {
                        file: fll_file.clone(),
                        detail: "declared per-interval instruction counts overflow".into(),
                    });
                    break;
                };
                instructions = total;
                // The adjusted manifest keeps each version's raw-size
                // semantics: row-serialized sizes in v5 (the payloads are
                // columnar blobs), payload sizes otherwise.
                if columnar {
                    fll_bytes += decoded_fll.serialized_len();
                    mrl_bytes += decoded_mrl.serialized_len();
                } else {
                    fll_bytes += ff.payload.len() as u64;
                    mrl_bytes += mf.payload.len() as u64;
                }
                fll_stored += ff.stored;
                mrl_stored += mf.stored;
                checkpoints.push(DumpedCheckpoint {
                    fll: decoded_fll,
                    mrl: decoded_mrl,
                    digest: t.digests[i],
                });
            }
            let intervals = checkpoints.len() as u32;
            report.intact_intervals += u64::from(intervals);
            report.lost_intervals += u64::from(t.checkpoints.saturating_sub(intervals));
            report.files.push(FileSalvage {
                file: fll_file,
                declared_frames: t.checkpoints,
                intact_frames: fll_intact,
                first_bad_offset: fll_off,
                cause: fll_cause,
            });
            report.files.push(FileSalvage {
                file: mrl_file,
                declared_frames: t.checkpoints,
                intact_frames: mrl_intact,
                first_bad_offset: mrl_off,
                cause: mrl_cause,
            });
            let image = if t.has_image {
                let image_file = t.image_file();
                match image_cache.iter().find(|(f, _)| *f == image_file) {
                    Some((_, cached)) => cached.clone(),
                    None => {
                        let owner = image_owner(&image_file).unwrap_or(t.thread);
                        let salvaged = salvage_log_file(
                            dir,
                            &image_file,
                            IMAGE_FILE_MAGIC,
                            manifest.version,
                            manifest.codec,
                            owner,
                            1,
                            false,
                        );
                        let mut intact = salvaged.frames.len().min(1) as u32;
                        let mut cause = salvaged.cause;
                        let mut offset = salvaged.first_bad_offset;
                        let mut program = None;
                        if let Some(frame) = salvaged.frames.first() {
                            let hash_ok = match t.image_hash {
                                Some(expected) => {
                                    let actual = fnv1a(&frame.payload);
                                    if actual != expected {
                                        intact = 0;
                                        offset = Some(frame.offset);
                                        cause = Some(DumpError::ChecksumMismatch {
                                            file: image_file.clone(),
                                            frame: Some(0),
                                            expected,
                                            actual,
                                        });
                                    }
                                    actual == expected
                                }
                                None => true,
                            };
                            if hash_ok {
                                match decode_image(&frame.payload) {
                                    Ok(p) => program = Some(Arc::new(p)),
                                    Err(e) => {
                                        intact = 0;
                                        offset = Some(frame.offset);
                                        cause = Some(DumpError::CorruptLog {
                                            file: image_file.clone(),
                                            frame: 0,
                                            detail: format!("program image failed to decode: {e}"),
                                        });
                                    }
                                }
                            }
                        }
                        report.files.push(FileSalvage {
                            file: image_file.clone(),
                            declared_frames: 1,
                            intact_frames: intact,
                            first_bad_offset: offset,
                            cause,
                        });
                        if program.is_none() {
                            report.lost_images += 1;
                        }
                        image_cache.push((image_file, program.clone()));
                        program
                    }
                }
            } else {
                None
            };
            adjusted.push(ThreadManifest {
                thread: t.thread,
                checkpoints: intervals,
                instructions,
                fll_bytes,
                mrl_bytes,
                fll_stored_bytes: fll_stored,
                mrl_stored_bytes: mrl_stored,
                has_image: image.is_some(),
                image_raw_bytes: if image.is_some() {
                    t.image_raw_bytes
                } else {
                    0
                },
                image_stored_bytes: if image.is_some() {
                    t.image_stored_bytes
                } else {
                    0
                },
                image_hash: if image.is_some() { t.image_hash } else { None },
                digests: t.digests[..intervals as usize].to_vec(),
            });
            threads.push(ThreadDump {
                thread: t.thread,
                image,
                checkpoints,
            });
        }
        let dump = CrashDump {
            manifest: DumpManifest {
                threads: adjusted,
                ..manifest
            },
            threads,
        };
        Ok(SalvagedDump { dump, report })
    }
}

// --- little-endian byte plumbing -----------------------------------------

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_string(w: &mut Vec<u8>, s: &str) {
    // The loader rejects strings over MAX_STRING_BYTES; never write one a
    // dump's own loader would refuse — truncate at a char boundary instead.
    let mut end = s.len().min(MAX_STRING_BYTES as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let s = &s[..end];
    put_u32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

/// Error cause while reading a manifest string.
enum StringError {
    Truncated,
    TooLong(u32),
    NotUtf8,
}

impl StringError {
    fn into_error(self) -> DumpError {
        match self {
            StringError::Truncated => DumpError::Truncated {
                file: MANIFEST_FILE.to_string(),
            },
            StringError::TooLong(len) => DumpError::CorruptManifest {
                detail: format!("string of {len} bytes exceeds limit {MAX_STRING_BYTES}"),
            },
            StringError::NotUtf8 => DumpError::CorruptManifest {
                detail: "string is not valid UTF-8".into(),
            },
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice. `Copy` so
/// speculative parses (the trailing-frame diagnostic) can snapshot it.
#[derive(Clone, Copy)]
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self, max: u32) -> Result<String, StringError> {
        let len = self.u32().ok_or(StringError::Truncated)?;
        if len > max {
            return Err(StringError::TooLong(len));
        }
        let bytes = self.take(len as usize).ok_or(StringError::Truncated)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StringError::NotUtf8)
    }

    fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current byte offset from the start of the buffer (salvage uses it to
    /// report where a file first went bad).
    fn position(&self) -> u64 {
        self.pos as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fll::TerminationCause;
    use crate::recorder::ThreadRecorder;
    use bugnet_cpu::ArchState;
    use bugnet_types::{ProcessId, Word};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bugnet-dump-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn store_with_logs(threads: u32, checkpoints: usize) -> LogStore {
        let cfg = BugNetConfig::default().with_checkpoint_interval(1_000);
        let mut store = LogStore::new(&cfg);
        for t in 0..threads {
            let mut rec = ThreadRecorder::new(cfg.clone(), ProcessId(1), ThreadId(t));
            for c in 0..checkpoints {
                rec.begin_interval(ArchState::default(), Timestamp((t as u64) * 100 + c as u64));
                for i in 0..20u32 {
                    rec.record_load(
                        Addr::new(0x1000 + u64::from(i) * 4),
                        Word::new(i % 5),
                        i % 3 == 0,
                    );
                    rec.record_committed_instruction();
                }
                let logs = rec
                    .end_interval(TerminationCause::IntervalFull, &ArchState::default())
                    .unwrap();
                store.push(logs);
            }
        }
        store
    }

    fn meta() -> DumpMeta {
        DumpMeta {
            workload: "test:unit".into(),
            config: BugNetConfig::default().with_checkpoint_interval(1_000),
            created: Timestamp(42),
            fault: Some(DumpFault {
                thread: ThreadId(0),
                pc: Addr::new(0x40_0010),
                icount: InstrCount(19),
                description: "integer divide by zero".into(),
            }),
            evicted_checkpoints: 3,
            telemetry: None,
        }
    }

    #[test]
    fn dump_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let store = store_with_logs(2, 3);
        let written = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        assert_eq!(written.threads.len(), 2);
        assert_eq!(written.total_checkpoints(), 6);

        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert_eq!(dump.manifest.workload, "test:unit");
        assert_eq!(dump.manifest.created, Timestamp(42));
        assert_eq!(dump.manifest.evicted_checkpoints, 3);
        let fault = dump.manifest.fault.as_ref().unwrap();
        assert_eq!(fault.description, "integer divide by zero");
        for (td, t) in dump.threads.iter().zip(store.threads()) {
            assert_eq!(td.thread, t);
            let original = store.thread_logs(t);
            assert_eq!(td.checkpoints.len(), original.len());
            for (cp, orig) in td.checkpoints.iter().zip(original) {
                assert_eq!(cp.fll, orig.fll);
                assert_eq!(cp.mrl, orig.mrl);
                assert!(cp.digest.matches(&orig.digest));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_stats() {
        let dir = temp_dir("verify");
        let store = store_with_logs(1, 2);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let report = verify_dump(&dir).unwrap();
        assert_eq!(report.threads, 1);
        assert_eq!(report.checkpoints, 2);
        assert!(report.records > 0);
        assert_eq!(report.records, report.records_decoded);
        assert!(report.fll_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_io_error() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(matches!(err, DumpError::Io { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_bit_flip_is_a_checksum_mismatch() {
        let dir = temp_dir("manifest-flip");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                DumpError::ChecksumMismatch { .. } | DumpError::BadMagic { .. }
            ),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_frame_bit_flips_are_typed_errors() {
        let dir = temp_dir("frame-flip");
        let store = store_with_logs(1, 1);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Flip every byte past the 16-byte file header + 4-byte frame
        // length: container header flips surface as CorruptLog/Inconsistent,
        // encoded-payload flips as codec or checksum failures — but every
        // flip must be caught.
        for pos in 20..original.len() {
            let mut bytes = original.clone();
            bytes[pos] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            let err = CrashDump::load(&dir).unwrap_err();
            assert!(
                matches!(
                    err,
                    DumpError::ChecksumMismatch { .. }
                        | DumpError::CorruptLog { .. }
                        | DumpError::Inconsistent { .. }
                        | DumpError::Truncated { .. }
                        | DumpError::TrailingBytes { .. }
                ),
                "flip at {pos}: {err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_files_are_rejected() {
        let dir = temp_dir("truncate");
        let store = store_with_logs(1, 2);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        for file in [
            MANIFEST_FILE.to_string(),
            manifest.threads[0].fll_file(),
            manifest.threads[0].mrl_file(),
        ] {
            let path = dir.join(&file);
            let original = fs::read(&path).unwrap();
            fs::write(&path, &original[..original.len() - 3]).unwrap();
            let err = CrashDump::load(&dir).unwrap_err();
            assert!(
                matches!(
                    err,
                    DumpError::Truncated { .. } | DumpError::ChecksumMismatch { .. }
                ),
                "truncating {file}: {err}"
            );
            fs::write(&path, &original).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let dir = temp_dir("trailing");
        let store = store_with_logs(1, 1);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let mut bytes = fs::read(&path).unwrap();
        bytes.push(0xAB);
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(matches!(err, DumpError::TrailingBytes { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let dir = temp_dir("version");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the checksum so the version check itself is exercised.
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        assert!(
            matches!(err, DumpError::UnsupportedVersion { version: 99, .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_workload_string_is_truncated_not_unloadable() {
        let dir = temp_dir("longstring");
        let store = store_with_logs(1, 1);
        let mut m = meta();
        m.workload = "x".repeat(MAX_STRING_BYTES as usize + 100) + "é";
        write_dump(&dir, &m, &store, |_| None).unwrap();
        // The dump written at crash time must load back by its own loader.
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.workload.len(), MAX_STRING_BYTES as usize);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_dumps_still_load_and_report_identity_codec() {
        let dir = temp_dir("v1-compat");
        let store = store_with_logs(2, 2);
        let written = write_dump_v1(&dir, &meta(), &store).unwrap();
        assert_eq!(written.version, DUMP_VERSION_V1);
        assert_eq!(written.codec, CodecId::Identity);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        // v1 has no codec layer: stored == raw.
        for t in &dump.manifest.threads {
            assert_eq!(t.fll_stored_bytes, t.fll_bytes);
            assert_eq!(t.mrl_stored_bytes, t.mrl_bytes);
        }
        for (td, t) in dump.threads.iter().zip(store.threads()) {
            for (cp, orig) in td.checkpoints.iter().zip(store.thread_logs(t)) {
                assert_eq!(cp.fll, orig.fll);
                assert_eq!(cp.mrl, orig.mrl);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_lz_dump_is_smaller_than_v1() {
        let dir_v1 = temp_dir("size-v1");
        let dir_v2 = temp_dir("size-v2");
        let store = store_with_logs(2, 3);
        write_dump_v1(&dir_v1, &meta(), &store).unwrap();
        write_dump_v2(&dir_v2, &meta(), &store).unwrap();
        let total = |dir: &std::path::Path| -> u64 {
            fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap().len())
                .sum()
        };
        let v1 = total(&dir_v1);
        let v2 = total(&dir_v2);
        assert!(
            v2 < v1,
            "v2 dump ({v2} bytes) must be smaller than v1 ({v1})"
        );
        fs::remove_dir_all(&dir_v1).unwrap();
        fs::remove_dir_all(&dir_v2).unwrap();
    }

    #[test]
    fn identity_codec_store_writes_loadable_v2_dumps() {
        let cfg = BugNetConfig::default().with_checkpoint_interval(1_000);
        let mut store = LogStore::with_codec(&cfg, CodecId::Identity);
        let mut rec = ThreadRecorder::new(cfg, ProcessId(1), ThreadId(0));
        rec.begin_interval(ArchState::default(), Timestamp(0));
        for i in 0..10u32 {
            rec.record_load(Addr::new(0x2000 + u64::from(i) * 4), Word::new(i), true);
            rec.record_committed_instruction();
        }
        store.push(
            rec.end_interval(TerminationCause::IntervalFull, &ArchState::default())
                .unwrap(),
        );
        let dir = temp_dir("identity-v2");
        let written = write_dump_v2(&dir, &meta(), &store).unwrap();
        assert_eq!(written.codec, CodecId::Identity);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.codec, CodecId::Identity);
        // Identity stores each frame raw plus the container header (one FLL
        // and one MRL frame here).
        let m = &dump.manifest.threads[0];
        let header = bugnet_compress::CONTAINER_HEADER_BYTES as u64;
        assert_eq!(m.fll_stored_bytes, m.fll_bytes + header);
        assert_eq!(m.mrl_stored_bytes, m.mrl_bytes + header);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_clean_frame_is_a_frame_count_inconsistency() {
        let dir = temp_dir("extra-frame");
        let store = store_with_logs(1, 2);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let mut bytes = fs::read(&path).unwrap();
        // Duplicate the first frame (length prefix + columnar blob +
        // stored-bytes checksum) at the end: every byte of the addition
        // checksums cleanly, so only the frame-count cross-check can catch
        // it.
        let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let frame = bytes[16..20 + first_len + 8].to_vec();
        bytes.extend_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        match &err {
            DumpError::Inconsistent { detail, .. } => {
                assert!(detail.contains("well-formed frame"), "{err}")
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A small deterministic program with data segments and symbols, for
    /// image-embedding tests.
    fn test_program() -> Arc<Program> {
        use bugnet_isa::{AluOp, ProgramBuilder, Reg};
        let mut b = ProgramBuilder::new("dump-test-program");
        let counter = b.alloc_data_word(7);
        b.li_addr(Reg::R3, counter);
        b.load(Reg::R4, Reg::R3, 0);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.store(Reg::R4, Reg::R3, 0);
        b.halt();
        let mut p = b.build();
        p.add_symbol("counter", counter);
        Arc::new(p)
    }

    #[test]
    fn v3_dump_embeds_and_round_trips_program_images() {
        let dir = temp_dir("image-roundtrip");
        let store = store_with_logs(2, 2);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        assert_eq!(written.version, DUMP_VERSION);
        assert_eq!(written.embedded_images(), 2);
        assert!(written.is_self_contained());
        assert!(written.total_image_size().bytes() > 0);
        for t in &written.threads {
            assert!(t.has_image);
            assert!(t.image_raw_bytes > 0);
            assert!(t.image_stored_bytes > 0);
            assert!(dir.join(t.image_file()).exists());
        }

        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert!(dump.is_self_contained());
        for t in &dump.threads {
            assert_eq!(t.image.as_deref(), Some(program.as_ref()));
        }
        assert_eq!(
            dump.embedded_program(ThreadId(0)).map(|p| p.name()),
            Some("dump-test-program")
        );
        let report = dump.verify().unwrap();
        assert_eq!(report.images, 2);
        assert!(report.image_raw_bytes > 0);
        assert!(report.image_ratio() >= 1.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_embedding_is_per_thread() {
        let dir = temp_dir("image-partial");
        let store = store_with_logs(2, 1);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |t| {
            (t == ThreadId(0)).then(|| Arc::clone(&program))
        })
        .unwrap();
        assert_eq!(written.embedded_images(), 1);
        assert!(!written.is_self_contained());
        let dump = CrashDump::load(&dir).unwrap();
        assert!(dump.thread(ThreadId(0)).unwrap().image.is_some());
        assert!(dump.thread(ThreadId(1)).unwrap().image.is_none());
        assert!(!dump.is_self_contained());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_file_bit_flips_are_typed_errors() {
        let dir = temp_dir("image-flip");
        let store = store_with_logs(1, 1);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let path = dir.join(manifest.threads[0].image_file());
        let original = fs::read(&path).unwrap();
        // Exhaustive: every bit of every byte. This is what forced the v3
        // stored-bytes frame checksum — LZ streams are redundant enough
        // that some encoded-region flips decompress to identical raw bytes
        // and sail through the container's raw-payload checksum.
        for pos in 0..original.len() {
            for bit in 0..8 {
                let mut bytes = original.clone();
                bytes[pos] ^= 1 << bit;
                fs::write(&path, &bytes).unwrap();
                let err = CrashDump::load(&dir).unwrap_err();
                assert!(
                    matches!(
                        err,
                        DumpError::ChecksumMismatch { .. }
                            | DumpError::CorruptLog { .. }
                            | DumpError::Inconsistent { .. }
                            | DumpError::Truncated { .. }
                            | DumpError::TrailingBytes { .. }
                            | DumpError::BadMagic { .. }
                            | DumpError::UnsupportedVersion { .. }
                    ),
                    "flip of bit {bit} at {pos}: {err}"
                );
            }
        }
        fs::write(&path, &original).unwrap();
        assert!(CrashDump::load(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_image_frame_is_a_frame_count_inconsistency() {
        let dir = temp_dir("image-extra-frame");
        let store = store_with_logs(1, 1);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let path = dir.join(manifest.threads[0].image_file());
        let mut bytes = fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let frame = bytes[16..20 + first_len].to_vec();
        bytes.extend_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        match &err {
            DumpError::Inconsistent { file, detail } => {
                assert!(file.starts_with("image-"), "{err}");
                assert!(detail.contains("well-formed frame"), "{err}");
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_declared_image_file_is_a_typed_error() {
        let dir = temp_dir("image-missing");
        let store = store_with_logs(1, 1);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        fs::remove_file(dir.join(manifest.threads[0].image_file())).unwrap();
        assert!(matches!(
            CrashDump::load(&dir).unwrap_err(),
            DumpError::Io { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unencodable_programs_are_rejected_at_write_time() {
        use bugnet_isa::DataSegment;
        use bugnet_types::Word;
        let store = store_with_logs(1, 1);

        // More data segments than the image wire format allows: the writer
        // must refuse with a typed error, not produce a dump its own
        // loader rejects.
        let segments: Vec<DataSegment> = (0..4097)
            .map(|i| DataSegment {
                base: Addr::new(0x1000_0000 + i as u64 * 16),
                words: vec![Word::new(0)],
            })
            .collect();
        let oversized = Arc::new(Program::new(
            "oversized",
            vec![bugnet_isa::Instr::Halt],
            Addr::new(0x40_0000),
            0,
            segments,
        ));
        let dir = temp_dir("image-oversized");
        let err = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&oversized)))
            .expect_err("oversized image must be rejected at write time");
        match &err {
            DumpError::Inconsistent { file, detail } => {
                assert!(file.starts_with("image-"), "{err}");
                assert!(detail.contains("wire-format limits"), "{err}");
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);

        // Two symbols sharing an over-limit name prefix would be collapsed
        // by string truncation: the decoded image would differ from the
        // recorded binary, so the writer must refuse.
        let mut collapsing = (*test_program()).clone();
        let long = "s".repeat(5000);
        collapsing.add_symbol(format!("{long}a"), Addr::new(0x100));
        collapsing.add_symbol(format!("{long}b"), Addr::new(0x200));
        let collapsing = Arc::new(collapsing);
        let dir = temp_dir("image-collapse");
        let err = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&collapsing)))
            .expect_err("symbol-collapsing image must be rejected at write time");
        assert!(
            matches!(&err, DumpError::Inconsistent { detail, .. }
                if detail.contains("round-trip")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_prefers_the_embedded_image() {
        // The fallback closure must not even be consulted for threads with
        // an embedded image.
        let dir = temp_dir("image-replay-pref");
        let store = store_with_logs(1, 1);
        let program = test_program();
        write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let dump = CrashDump::load(&dir).unwrap();
        let mut fallback_calls = 0;
        // The synthetic logs here do not replay against the test program
        // (that end-to-end path is covered by the integration tests); what
        // matters is that the fallback was never consulted.
        let result = dump.replay(|_| {
            fallback_calls += 1;
            None
        });
        assert_eq!(fallback_calls, 0);
        if let Ok(report) = &result {
            assert!(report.unreplayable_threads.is_empty());
        }
        // replay_with ignores the embedded image: with no override programs
        // the thread is unreplayable.
        let report = dump.replay_with(|_| None).unwrap();
        assert_eq!(report.unreplayable_threads, vec![ThreadId(0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_dump_v2_still_produces_loadable_v2_dumps() {
        let dir = temp_dir("v2-compat");
        let store = store_with_logs(2, 2);
        let written = write_dump_v2(&dir, &meta(), &store).unwrap();
        assert_eq!(written.version, DUMP_VERSION_V2);
        assert_eq!(written.embedded_images(), 0);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert!(dump.threads.iter().all(|t| t.image.is_none()));
        // A v2 dump and a v3 dump of the same store hold identical frames;
        // v3 only adds the image sections and manifest fields.
        for (td, t) in dump.threads.iter().zip(store.threads()) {
            for (cp, orig) in td.checkpoints.iter().zip(store.thread_logs(t)) {
                assert_eq!(cp.fll, orig.fll);
                assert_eq!(cp.mrl, orig.mrl);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_fields_are_manifest_errors_not_frame_errors() {
        // Satellite sweep: a manifest field corruption must surface as
        // CorruptManifest (manifest context), never as a frame-level
        // CorruptLog claiming "frame 0 is corrupt".
        let dir = temp_dir("manifest-field");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let original = fs::read(&path).unwrap();
        // The codec byte sits right after magic (8) + version (4).
        let mut bytes = original.clone();
        bytes[12] = 0xEE;
        reseal_manifest(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let err = CrashDump::load(&dir).unwrap_err();
        match &err {
            DumpError::CorruptManifest { detail } => {
                assert!(detail.contains("codec"), "{err}");
                assert!(!err.to_string().contains("frame"), "{err}");
            }
            other => panic!("expected CorruptManifest, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Recomputes and rewrites the manifest's trailing checksum, so tests
    /// can corrupt declared fields without tripping the checksum first.
    fn reseal_manifest(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn frame_length_forgery_is_corruption_not_truncation() {
        // Satellite sweep: shrinking a frame's length prefix cuts the
        // container short while the file keeps its full length — that is
        // frame corruption (CorruptLog), not file truncation. Exercised on
        // a v2 dump: in v3 the stored-bytes checksum trips first (also a
        // typed error, tested elsewhere).
        let dir = temp_dir("frame-length-forgery");
        let store = store_with_logs(1, 1);
        let manifest = write_dump_v2(&dir, &meta(), &store).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Shrink the first frame's length prefix below the container header
        // size; the declared bytes are all present, the container is not.
        for forged_len in [0u32, 5, 16] {
            let mut bytes = original.clone();
            bytes[16..20].copy_from_slice(&forged_len.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = CrashDump::load(&dir).unwrap_err();
            assert!(
                matches!(err, DumpError::CorruptLog { .. }),
                "forged length {forged_len}: expected CorruptLog, got {err}"
            );
            assert!(
                !matches!(err, DumpError::Truncated { .. }),
                "forged length {forged_len} misreported as file truncation"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v4_dedups_identical_images_across_threads() {
        let dir = temp_dir("v4-dedup");
        let store = store_with_logs(3, 2);
        let program = test_program();
        let written = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        assert_eq!(written.version, DUMP_VERSION);
        assert_eq!(written.embedded_images(), 3);
        // All three threads run the same binary: one content-addressed file.
        assert_eq!(written.unique_images(), 1);
        let hash = written.threads[0].image_hash.unwrap();
        for t in &written.threads {
            assert_eq!(t.image_hash, Some(hash));
            assert_eq!(t.image_file(), format!("image-{hash:016x}.bni"));
        }
        let image_files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("image-"))
            .collect();
        assert_eq!(image_files, vec![format!("image-{hash:016x}.bni")]);
        // Totals count the deduplicated file once.
        assert_eq!(
            written.total_image_size().bytes(),
            written.threads[0].image_raw_bytes
        );

        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert!(dump.is_self_contained());
        // One decoded program, shared by every thread.
        let first = dump.threads[0].image.as_ref().unwrap();
        for t in &dump.threads {
            assert!(Arc::ptr_eq(t.image.as_ref().unwrap(), first));
        }
        let report = dump.verify().unwrap();
        assert_eq!(report.images, 3);
        assert_eq!(report.image_raw_bytes, written.threads[0].image_raw_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v4_stores_distinct_images_separately() {
        let dir = temp_dir("v4-distinct");
        let store = store_with_logs(2, 1);
        let a = test_program();
        let mut other = (*test_program()).clone();
        other.add_symbol("extra", Addr::new(0x300));
        let b = Arc::new(other);
        let written = write_dump(&dir, &meta(), &store, |t| {
            Some(if t == ThreadId(0) {
                Arc::clone(&a)
            } else {
                Arc::clone(&b)
            })
        })
        .unwrap();
        assert_eq!(written.unique_images(), 2);
        assert_ne!(written.threads[0].image_hash, written.threads[1].image_hash);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.threads[0].image.as_deref(), Some(a.as_ref()));
        assert_eq!(dump.threads[1].image.as_deref(), Some(b.as_ref()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_dump_v3_still_produces_loadable_v3_dumps() {
        let dir = temp_dir("v3-compat");
        let store = store_with_logs(2, 1);
        let program = test_program();
        let written = write_dump_v3(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        assert_eq!(written.version, DUMP_VERSION_V3);
        // v3 has no content addressing: per-thread files, no hashes.
        assert_eq!(written.unique_images(), 2);
        for t in &written.threads {
            assert_eq!(t.image_hash, None);
            assert!(dir.join(t.image_file()).exists());
        }
        assert!(dir.join("image-0.bni").exists());
        assert!(dir.join("image-1.bni").exists());
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, written);
        assert!(dump.is_self_contained());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_of_a_clean_dump_is_lossless() {
        let dir = temp_dir("salvage-clean");
        let store = store_with_logs(2, 3);
        let program = test_program();
        write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        let strict = CrashDump::load(&dir).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
        assert_eq!(salvaged.report.intact_intervals, 6);
        assert_eq!(salvaged.report.lost_intervals, 0);
        assert_eq!(salvaged.report.lost_frames(), 0);
        assert_eq!(salvaged.dump, strict);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_recovers_the_intact_prefix_of_a_truncated_log() {
        let dir = temp_dir("salvage-trunc");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Truncate at every possible byte offset; salvage must never panic,
        // and must recover exactly the frames whose bytes fully survive.
        for cut in 0..original.len() {
            fs::write(&path, &original[..cut]).unwrap();
            let salvaged = CrashDump::load_salvage(&dir).unwrap();
            let fll = salvaged
                .report
                .files
                .iter()
                .find(|f| f.file == manifest.threads[0].fll_file())
                .unwrap();
            assert!(fll.intact_frames <= 3, "cut {cut}");
            assert_eq!(
                u64::from(fll.intact_frames) + salvaged.report.lost_intervals,
                3,
                "cut {cut}: intervals must be fll-limited here"
            );
            if cut < original.len() {
                assert!(fll.cause.is_some(), "cut {cut}: loss must have a cause");
                assert!(fll.first_bad_offset.is_some(), "cut {cut}");
            }
            // The salvaged dump is internally consistent: deep verify works.
            let report = salvaged.dump.verify().unwrap();
            assert_eq!(report.checkpoints, u64::from(fll.intact_frames));
        }
        fs::write(&path, &original).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_ground_truth_matches_frame_layout() {
        // Cut exactly at each frame boundary and check the loss report
        // against the known layout: 16-byte header, then per frame a
        // 4-byte length prefix + container + 8-byte stored checksum.
        let dir = temp_dir("salvage-exact");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        let mut boundaries = vec![16u64];
        {
            let mut pos = 16usize;
            for _ in 0..3 {
                let len = u32::from_le_bytes(original[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4 + len + 8;
                boundaries.push(pos as u64);
            }
            assert_eq!(pos, original.len(), "layout walk must cover the file");
        }
        for (frames_kept, cut) in boundaries.iter().enumerate() {
            fs::write(&path, &original[..*cut as usize]).unwrap();
            let salvaged = CrashDump::load_salvage(&dir).unwrap();
            let fll = salvaged
                .report
                .files
                .iter()
                .find(|f| f.file.ends_with(".fll"))
                .unwrap();
            assert_eq!(fll.intact_frames as usize, frames_kept, "cut at {cut}");
            assert_eq!(fll.declared_frames, 3);
            assert_eq!(
                salvaged.report.intact_intervals as usize, frames_kept,
                "cut at {cut}"
            );
            if frames_kept < 3 {
                // The first bad offset is the cut frame's start.
                assert_eq!(fll.first_bad_offset, Some(*cut), "cut at {cut}");
                assert!(matches!(fll.cause, Some(DumpError::Truncated { .. })));
            }
        }
        fs::write(&path, &original).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_pairs_intervals_across_both_logs() {
        // MRL truncated to fewer frames than the FLL: intervals are limited
        // by the pair, and the FLL's own report stays at its byte-level
        // intact count.
        let dir = temp_dir("salvage-pair");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let mrl_path = dir.join(manifest.threads[0].mrl_file());
        let original = fs::read(&mrl_path).unwrap();
        // Keep header + first frame of the MRL.
        let first_len = u32::from_le_bytes(original[16..20].try_into().unwrap()) as usize;
        fs::write(&mrl_path, &original[..16 + 4 + first_len + 8]).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        assert_eq!(salvaged.report.intact_intervals, 1);
        assert_eq!(salvaged.report.lost_intervals, 2);
        let fll = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".fll"))
            .unwrap();
        assert_eq!(fll.intact_frames, 3, "FLL itself is fully intact");
        let mrl = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".mrl"))
            .unwrap();
        assert_eq!(mrl.intact_frames, 1);
        assert_eq!(salvaged.dump.threads[0].checkpoints.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_survives_a_lost_image_and_a_lost_log_file() {
        let dir = temp_dir("salvage-missing");
        let store = store_with_logs(2, 2);
        let program = test_program();
        let manifest = write_dump(&dir, &meta(), &store, |_| Some(Arc::clone(&program))).unwrap();
        // Destroy the (shared) image file and thread 1's FLL entirely.
        fs::remove_file(dir.join(manifest.threads[0].image_file())).unwrap();
        fs::remove_file(dir.join(manifest.threads[1].fll_file())).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        assert_eq!(salvaged.report.lost_images, 1);
        assert_eq!(salvaged.report.intact_intervals, 2);
        assert_eq!(salvaged.report.lost_intervals, 2);
        assert!(salvaged.dump.threads.iter().all(|t| t.image.is_none()));
        // Thread 0's intervals replay-ready; thread 1 contributes none.
        assert_eq!(salvaged.dump.threads[0].checkpoints.len(), 2);
        assert_eq!(salvaged.dump.threads[1].checkpoints.len(), 0);
        let fll1 = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file == manifest.threads[1].fll_file())
            .unwrap();
        assert!(matches!(fll1.cause, Some(DumpError::Io { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_rejects_checksum_damaged_frames() {
        // A bit flip inside a frame: salvage keeps earlier frames, drops the
        // damaged one and everything after it (no resynchronization — a
        // forged length could otherwise smuggle bytes).
        let dir = temp_dir("salvage-flip");
        let store = store_with_logs(1, 3);
        let manifest = write_dump(&dir, &meta(), &store, |_| None).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let original = fs::read(&path).unwrap();
        // Second frame starts after header + first frame.
        let first_len = u32::from_le_bytes(original[16..20].try_into().unwrap()) as usize;
        let second_start = 16 + 4 + first_len + 8;
        let mut bytes = original.clone();
        bytes[second_start + 10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        let fll = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".fll"))
            .unwrap();
        assert_eq!(fll.intact_frames, 1);
        assert_eq!(fll.first_bad_offset, Some(second_start as u64));
        assert!(fll.cause.is_some());
        assert_eq!(salvaged.report.intact_intervals, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_without_a_manifest_is_fatal() {
        let dir = temp_dir("salvage-no-manifest");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None).unwrap();
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = CrashDump::load_salvage(&dir).unwrap_err();
        assert!(matches!(err, DumpError::Io { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_io_surfaces_as_typed_dump_errors_with_op_context() {
        use crate::io::{FaultIo, FaultKind};
        let base = temp_dir("write-faults");
        fs::create_dir_all(&base).unwrap();
        let store = store_with_logs(1, 1);
        let dir = base.join("crash");
        let mut io = FaultIo::new(StdIo::new(), 2, FaultKind::Enospc);
        let err = write_dump_with_io(&dir, &meta(), &store, |_| None, &mut io).unwrap_err();
        match &err {
            DumpError::Io { op, source, .. } => {
                assert_eq!(*op, IoOp::WriteFile);
                assert_eq!(source.raw_os_error(), Some(28));
            }
            other => panic!("expected Io, got {other}"),
        }
        assert!(err.to_string().contains("write"), "{err}");
        assert!(!dir.exists());
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn error_display_names_the_file() {
        let err = DumpError::ChecksumMismatch {
            file: "thread-0.fll".into(),
            frame: Some(2),
            expected: 1,
            actual: 2,
        };
        let text = err.to_string();
        assert!(text.contains("thread-0.fll"));
        assert!(text.contains("frame 2"));
        assert!(DumpError::NoRecorder.to_string().contains("recorder"));
    }
}
