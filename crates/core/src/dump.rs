//! The on-disk crash-dump directory format (paper §4.8).
//!
//! When the OS detects a fault it dumps the retained window of First-Load
//! Logs and Memory Race Logs to stable storage; the resulting directory is
//! the *portable artifact* a developer ships to the vendor and replays
//! offline. This module writes that format and reads it back through one
//! checksum-guarded walk.
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
//! Embedded images are *code-only*: [`write_dump`] embeds each program's
//! replay image ([`Program::without_data`]) — code, entry, stack top and
//! symbols, no data segments. Replay starts every interval from empty
//! memory and takes each first load from the FLL, so it never reads
//! initialized data; this is the paper's case against FDR-style memory
//! checkpoints, and it keeps a data-heavy program's dump as small as its
//! logs. The wire format is unchanged (an image with zero data segments is
//! valid in every version), and the full images in older dumps still load.
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
//! [`write_dump`] writes v5 only. Versions 1–4 are read-only; a committed
//! fixture of each under `tests/fixtures/golden-v*` pins the bytes their
//! readers must keep accepting.
//!
//! Dumps are committed *atomically*: the writer encodes every file in
//! memory, stages them in a `<dir>.staging-<nonce>` sibling, fsyncs, and
//! renames into place (see [`crate::io`]). A dump directory therefore
//! either exists complete or not at all, no matter at which operation a
//! crash, disk-full or kill interrupts the write.
//!
//! Reading is one walk over the directory. It validates everything it
//! reads — magics, versions, bounds, frame checksums, FLL/MRL pairing,
//! image hashes and decodability — and keeps every checksum-intact prefix
//! of frames, recording where and why it stopped instead of failing. The
//! files are read and checksummed one thread after another; the frame
//! pairs then decode on the workers a replay gets, under the same
//! instruction floor (`taskset -c 0` forces one), and each thread takes
//! its pairs back in frame order.
//! [`CrashDump::load`] turns the first recorded damage, or the first
//! disagreement between what was recovered and what the manifest declares,
//! into a typed [`DumpError`]; it never panics on bad input and never
//! silently accepts a flipped bit. A loaded thread's intervals are the
//! recorder's own [`CheckpointLogs`], each carrying the digest its manifest
//! entry recorded, so a dump and a live log store replay through the one
//! check loop, [`replay_and_check`]. [`CrashDump::load_salvage`] keeps what
//! the walk recovered from a damaged dump — truncated mid-upload, clipped by
//! the very disk-full that triggered it — and reports exactly what was lost
//! ([`SalvageReport`]).

use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::num::NonZeroUsize;
use std::panic;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use bugnet_compress::{
    container_info, decode_container, encode_container, fnv1a, streams_info, CodecId,
    ColumnarError, FrameError,
};
use bugnet_isa::{decode_image, encode_image, Program};
use bugnet_telemetry::Probe;
use bugnet_types::{Addr, BugNetConfig, ByteSize, CheckpointId, InstrCount, ThreadId, Timestamp};

use crate::columnar::{decode_fll_columnar, decode_mrl_columnar, ColumnarCodecError};
use crate::digest::ExecutionDigest;
use crate::fll::FirstLoadLog;
use crate::io::{commit_atomic, DumpIo, IoFailure, IoOp};
use crate::mrl::MemoryRaceLog;
use crate::recorder::{CheckpointLogs, LogStore};
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
/// The v5 format: columnar, delta-encoded FLL/MRL frames (the only format
/// [`write_dump`] writes, [`DUMP_VERSION`]).
pub const DUMP_VERSION_V5: u32 = 5;
/// The v4 format: like v3, but embedded program images are content-addressed
/// (`image-<hash>.bni`) and shared between threads running the same binary.
/// Still fully loadable.
pub const DUMP_VERSION_V4: u32 = 4;
/// The v3 format: each thread's full program image is embedded as a
/// codec-compressed, checksummed per-thread `image-<tid>.bni` section,
/// making dumps self-contained. Still fully loadable.
pub const DUMP_VERSION_V3: u32 = 3;
/// The v2 format: frames pass through a back-end codec (self-describing
/// containers) and the manifest records the codec and the raw vs stored
/// sizes, but program images are not embedded. Still fully loadable.
pub const DUMP_VERSION_V2: u32 = 2;
/// The original format version: raw frames, each with its own trailing
/// checksum. Still fully loadable.
pub const DUMP_VERSION_V1: u32 = 1;
/// File name of the manifest inside a dump directory.
pub const MANIFEST_FILE: &str = "manifest.bnd";

/// What varies about writing one crash dump — consumed by
/// `Machine::write_crash_dump_with` in the sim crate. `Default` embeds
/// every thread's program image, as every product dump does; the option
/// stays only so bugbench can time a dump without them (`dump.image_ms`).
#[derive(Debug, Clone, Default)]
pub struct DumpOptions {
    /// `Some(false)` leaves the program images out; `None` and
    /// `Some(true)` embed them.
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
    /// Recorded execution digest of each interval, oldest first, so an
    /// offline replay can check it reproduced the recorded execution.
    pub digests: Vec<ExecutionDigest>,
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
                digests.push(ExecutionDigest::from_parts(
                    r.u64().ok_or_else(truncated)?,
                    r.u64().ok_or_else(truncated)?,
                    r.u64().ok_or_else(truncated)?,
                    r.u64().ok_or_else(truncated)?,
                ));
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

    /// Encodes the manifest in the current (v5) layout; only the writer
    /// calls it, on a manifest it built with [`DUMP_VERSION`].
    fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(256 + self.threads.len() * 64);
        w.extend_from_slice(&MANIFEST_MAGIC);
        put_u32(&mut w, DUMP_VERSION);
        w.push(self.codec.as_u8());
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
            put_u64(&mut w, t.fll_stored_bytes);
            put_u64(&mut w, t.mrl_stored_bytes);
            if t.has_image {
                w.push(1);
                put_u64(&mut w, t.image_hash.unwrap_or(0));
                put_u64(&mut w, t.image_raw_bytes);
                put_u64(&mut w, t.image_stored_bytes);
            } else {
                w.push(0);
            }
            for d in &t.digests {
                put_u64(&mut w, d.value());
                put_u64(&mut w, d.loads());
                put_u64(&mut w, d.stores());
                put_u64(&mut w, d.instructions());
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

/// All retained intervals of one thread loaded back from a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadDump {
    /// The thread.
    pub thread: ThreadId,
    /// The thread's embedded program image, decoded and validated (format
    /// v3 dumps with image embedding on; `None` otherwise). Replay, bisect
    /// and profile run the thread against this program and ask their
    /// fallback only when it is `None`, so replacing it overrides the
    /// program the thread replays against.
    pub image: Option<Arc<Program>>,
    /// Retained intervals, oldest first: the store's own interval type,
    /// each with the digest its manifest entry recorded.
    pub checkpoints: Vec<CheckpointLogs>,
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
/// in the current (v5, columnar) format, through `io`. The sealed columnar
/// frames the store already holds are written out verbatim, so serial and
/// parallel flushing produce byte-identical dumps and dump time pays no
/// compression cost. `image_of` supplies each thread's program; threads
/// for which it returns one get its code-only replay image
/// ([`Program::without_data`]: replay takes data from the FLL) as a
/// codec-compressed, checksummed, content-addressed `image-<hash>.bni`
/// section (threads running the same binary share one file), making the
/// dump self-contained for offline replay. Return `None` to dump a thread
/// without its image (`DumpOptions::embed_image: Some(false)`).
///
/// The dump is committed atomically via staging + rename (see
/// [`commit_atomic`]): `dir` either appears complete or not at all, and an
/// existing dump at `dir` is replaced. All filesystem traffic goes through
/// `io` — the fault-injection seam; the encoding itself is pure. Returns
/// the manifest that was written.
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
    io: &mut dyn DumpIo,
) -> Result<DumpManifest, DumpError> {
    let encoded = encode_dump(meta, store, image_of)?;
    commit_atomic(io, dir, &encoded.files)?;
    Ok(encoded.manifest)
}

/// The body of [`write_dump`]: encodes the whole dump in memory and
/// performs no I/O.
fn encode_dump(
    meta: &DumpMeta,
    store: &LogStore,
    mut image_of: impl FnMut(ThreadId) -> Option<Arc<Program>>,
) -> Result<EncodedDump, DumpError> {
    let codec = store.codec();
    let mut threads = Vec::new();
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    // Content addressing: raw-image hash → (raw bytes for the collision
    // check, raw size, stored size).
    let mut images_by_hash: Vec<(u64, Vec<u8>, u64, u64)> = Vec::new();
    for thread in store.threads() {
        let logs = store.thread_logs(thread);
        let mut fll_file = Vec::new();
        let mut mrl_file = Vec::new();
        let mut fll_bytes = 0u64;
        let mut mrl_bytes = 0u64;
        let mut fll_stored_bytes = 0u64;
        let mut mrl_stored_bytes = 0u64;
        let mut digests = Vec::with_capacity(logs.len());
        begin_file(&mut fll_file, FLL_FILE_MAGIC, thread, logs.len() as u32);
        begin_file(&mut mrl_file, MRL_FILE_MAGIC, thread, logs.len() as u32);
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
            fll_stored_bytes += put_frame(&mut fll_file, &entry.fll_frame);
            mrl_stored_bytes += put_frame(&mut mrl_file, &entry.mrl_frame);
            digests.push(entry.digest);
        }
        let (has_image, image_raw_bytes, image_stored_bytes, image_hash) = match image_of(thread) {
            Some(program) => {
                // Replay takes every first load from the FLL and never reads
                // initialized data, so the dump carries the code-only replay
                // image.
                let image = program.without_data();
                let raw = encode_image(&image);
                // Trust boundary: never ship an image that does not decode
                // back to the recorded binary's replay image. Programs
                // exceeding the wire format's sanity bounds (counts, string
                // lengths) would otherwise produce a dump its own loader
                // rejects — or, for truncation-collapsed symbol names, a
                // dump that loads cleanly but replays a subtly different
                // program.
                let hash = fnv1a(&raw);
                let file = format!("image-{hash:016x}.bni");
                match decode_image(&raw) {
                    Ok(decoded) if decoded == image => {}
                    Ok(_) => {
                        return Err(DumpError::Inconsistent {
                            file,
                            detail: "encoded program image does not round-trip to the \
                                     recorded binary's replay image (name or symbol beyond \
                                     wire-format limits?)"
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
                if let Some((_, seen_raw, raw_len, stored)) =
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
                    // One frame behind the same header framing as the log
                    // files, so the frame-count cross-check covers it; the
                    // header's thread id is the first thread that embedded
                    // this image.
                    begin_file(&mut image_file, IMAGE_FILE_MAGIC, thread, 1);
                    let stored = put_frame(&mut image_file, &container);
                    let raw_len = raw.len() as u64;
                    files.push((file, image_file));
                    images_by_hash.push((hash, raw, raw_len, stored));
                    (true, raw_len, stored, Some(hash))
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
        version: DUMP_VERSION,
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

/// Opens a log or image file: magic, format version, thread id and the
/// number of frames that follow.
fn begin_file(w: &mut Vec<u8>, magic: [u8; 4], thread: ThreadId, frames: u32) {
    w.extend_from_slice(&magic);
    put_u32(w, DUMP_VERSION);
    put_u32(w, thread.0);
    put_u32(w, frames);
}

/// Appends one frame: a length prefix, the stored bytes (a codec container,
/// or a v5 log frame's columnar blob) and a trailing FNV-1a checksum over
/// those stored bytes. A container's own checksum covers only its raw
/// payload, which leaves a hole: LZ streams are redundant, so two different
/// encoded byte sequences can decompress to identical raw bytes — a bit
/// flip in the encoded region could go unnoticed. The stored-bytes checksum
/// (since v3) closes it: every byte of a frame is integrity-covered.
/// Returns the stored size; the trailer is framing overhead, counted like
/// the length prefix (i.e. not at all).
fn put_frame(w: &mut Vec<u8>, stored: &[u8]) -> u64 {
    put_u32(w, stored.len() as u32);
    w.extend_from_slice(stored);
    put_u64(w, fnv1a(stored));
    stored.len() as u64
}

/// Reads one v1 frame at the reader's position: a length prefix, the raw
/// payload and an FNV-1a checksum over it.
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

/// Reads one length-prefixed codec container at the reader's position —
/// followed, since v3, by the stored-bytes checksum of [`put_frame`] — and
/// returns the decompressed payload and the stored container size.
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

/// Reads one v5 log frame: the outer framing of [`put_frame`] (length
/// prefix, payload, FNV-1a checksum over the stored bytes), but the payload
/// is a columnar multi-stream blob carried *verbatim* — each per-field
/// stream stays inside its own codec container until the walk joins the
/// streams back into a log. This validates the framing, the stored-bytes
/// checksum, the blob's structure, and that every stream was encoded with
/// the manifest's codec; per-stream payload checksums are verified when
/// the streams are decoded.
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

/// Reads one frame in the framing of format `version`; `columnar` selects
/// the v5 log-frame payload (image files keep the single-container layout
/// in every version). Returns the payload and its stored size.
fn read_frame(
    r: &mut ByteReader<'_>,
    file: &str,
    index: u32,
    version: u32,
    codec: CodecId,
    columnar: bool,
) -> Result<(Vec<u8>, u64), DumpError> {
    if columnar {
        read_frame_v5(r, file, index, codec)
    } else if version >= DUMP_VERSION_V2 {
        read_codec_frame(r, file, index, codec, version >= DUMP_VERSION_V3)
    } else {
        let payload = read_frame_v1(r, file, index)?;
        let stored = payload.len() as u64;
        Ok((payload, stored))
    }
}

/// Counts well-formed frames (of any framing generation) remaining after
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
        if read_codec_frame(&mut v3, file, 0, codec, true).is_ok() {
            *r = v3;
            extra += 1;
            continue;
        }
        let mut v2 = *r;
        if read_codec_frame(&mut v2, file, 0, codec, false).is_ok() {
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
    /// Loads a complete crash dump from `dir`: the walk, then a verdict. A
    /// dump loads only when the walk found no damage at all and what it
    /// recovered — instruction counts, raw and stored byte totals, image
    /// sizes — is exactly what the manifest declares.
    ///
    /// The walk decodes the frames on the workers [`replay_and_check`]
    /// would get for the manifest's declared instructions, so a load of
    /// fewer than 100,000 stays on the calling thread and `taskset -c 0`
    /// forces one worker; the dump and the error are the same either way.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DumpError`] describing the first problem found,
    /// thread by thread: damage in the order the files are read (FLL, MRL,
    /// image, then decoding and pairing), then a declared value the
    /// recovered content contradicts.
    pub fn load(dir: &Path) -> Result<Self, DumpError> {
        let Walk {
            manifest,
            threads,
            mut images,
        } = walk(dir)?;
        let columnar = manifest.version >= DUMP_VERSION_V5;
        let mut dumps = Vec::with_capacity(threads.len());
        for (t, w) in manifest.threads.iter().zip(threads) {
            let mut image = if t.has_image {
                let file = t.image_file();
                images.iter_mut().find(|i| i.account.file == file)
            } else {
                None
            };
            let image_cause = image.as_mut().and_then(|i| {
                let stop = i.stop.take().map(|s| s.cause);
                i.account.cause.take().or(stop)
            });
            let stop = w.stop.map(|(_, s)| s.cause);
            if let Some(cause) = w.fll.cause.or(w.mrl.cause).or(image_cause).or(stop) {
                return Err(cause);
            }
            let (fll, mrl, r) = (&w.fll.file, &w.mrl.file, &w.recovered);
            let raw_totals = || {
                check_declared(fll, "raw bytes", r.fll_bytes, t.fll_bytes)?;
                check_declared(mrl, "raw bytes", r.mrl_bytes, t.mrl_bytes)
            };
            if !columnar {
                raw_totals()?;
            }
            check_declared(fll, "stored bytes", r.fll_stored_bytes, t.fll_stored_bytes)?;
            check_declared(mrl, "stored bytes", r.mrl_stored_bytes, t.mrl_stored_bytes)?;
            if let Some(ImageWalk {
                account,
                sizes: Some((raw, stored)),
                ..
            }) = image.as_deref()
            {
                // Every thread sharing a content-addressed file must declare
                // its sizes.
                let file = &account.file;
                check_declared(file, "image raw bytes", *raw, t.image_raw_bytes)?;
                check_declared(file, "image stored bytes", *stored, t.image_stored_bytes)?;
            }
            check_declared(fll, "instructions", r.instructions, t.instructions)?;
            if columnar {
                raw_totals()?;
            }
            dumps.push(ThreadDump {
                thread: t.thread,
                image: w.image,
                checkpoints: w.checkpoints,
            });
        }
        Ok(CrashDump {
            manifest,
            threads: dumps,
        })
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
    /// replay against the recording ([`DumpIntervalReplay::check`]), on up
    /// to one thread per CPU ([`replay_and_check`]); to start from a given
    /// checkpoint, see [`replay_from`](CrashDump::replay_from). A
    /// thread replays against its *embedded* program image (format v3);
    /// `fallback` is only consulted for threads without one (v1/v2 dumps,
    /// or image embedding disabled) — the registry-resolution path. Threads
    /// with neither are reported as unreplayable rather than failing the
    /// whole dump.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an interval that cannot be
    /// replayed at all (corrupt stream, bad initial state, divergent length).
    pub fn replay(
        &self,
        fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_with(ReplayRequest {
            fallback,
            from: None,
            probe: Probe::off(),
        })
    }

    /// Checkpoint-seeking time travel: like [`replay`](CrashDump::replay),
    /// but each thread replays from its first retained interval whose
    /// checkpoint id is `from` to the end of its window. Checkpoint ids are
    /// `checkpoint_id_bits` wide and wrap, so in a window of more than
    /// 2^bits intervals an id recurs: the seek stops at its first
    /// occurrence, and a later interval with a lower id still replays. A
    /// thread without an interval of that id replays nothing. Every FLL
    /// header carries the complete architectural state at the start of its
    /// interval, so seeking is free — intervals before `from` are skipped
    /// outright, never re-executed.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_from(
        &self,
        from: CheckpointId,
        fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Result<DumpReplayReport, ReplayError> {
        self.replay_with(ReplayRequest {
            fallback,
            from: Some(from),
            probe: Probe::off(),
        })
    }

    /// Searches for each thread's first interval whose replay diverges from
    /// the recording ([`DumpIntervalReplay::matches`]), replaying as few
    /// intervals as it can get away with: under the usual failure mode —
    /// corruption persists from some interval onward — a binary search plus
    /// a two-probe verification finds the frontier in `O(log n)` interval
    /// replays. When the verification detects that divergence is *not*
    /// monotone (say, a single tampered digest in the middle of a clean
    /// window), it falls back to a linear scan so the answer is still the
    /// true first divergence. Programs resolve exactly as in
    /// [`replay`](CrashDump::replay).
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
            let Some(program) = t.program(&mut fallback) else {
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
                let matches = DumpIntervalReplay::check(&replayer, t.thread, cp, None)?.matches();
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

    /// The general replay: programs resolve as in
    /// [`replay`](CrashDump::replay), each thread seeks to its first
    /// interval whose checkpoint id is `request.from` (see
    /// [`replay_from`](CrashDump::replay_from)), and `request.probe`
    /// observes the rest as [`replay_and_check`] checks them, on up to one
    /// thread per CPU.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] from an unreplayable interval.
    pub fn replay_with<F: FnMut(ThreadId) -> Option<Arc<Program>>>(
        &self,
        request: ReplayRequest<F>,
    ) -> Result<DumpReplayReport, ReplayError> {
        let ReplayRequest {
            mut fallback,
            from,
            mut probe,
        } = request;
        let threads = self.threads.iter().map(|t| {
            let intervals = t
                .checkpoints
                .iter()
                .skip_while(move |cp| from.is_some_and(|from| cp.fll.header.checkpoint != from));
            (t.thread, t.program(&mut fallback), intervals)
        });
        replay_and_check(threads, &mut probe, None)
    }
}

impl ThreadDump {
    /// The program this thread replays against: its image, else
    /// `fallback`'s; `None` leaves it unreplayable. The one program lookup
    /// of replay, bisect and profile.
    pub(crate) fn program(
        &self,
        fallback: &mut impl FnMut(ThreadId) -> Option<Arc<Program>>,
    ) -> Option<Arc<Program>> {
        self.image.clone().or_else(|| fallback(self.thread))
    }
}

/// Instructions per worker below which [`spread`] is given no further
/// worker, for a replay ([`replay_and_check`]) and for the load's frame
/// decode alike. A scoped spawn and join costs 37–43 µs on a 2-vCPU VM,
/// about what 2,000 instructions take to replay, so a helper would nearly
/// double the replay of crash-burst's python incidents (two intervals of
/// 2.2k and 6.6k instructions in all). Without this floor, crash-burst read
/// bugbench `replay_ns_per_instr` 25.73 → 26.23 against the serial loop (6
/// pairs, 4 lost).
const INSTRUCTIONS_PER_WORKER: u64 = 50_000;

/// The CPUs this process may run on, read once: each
/// [`available_parallelism`](thread::available_parallelism) call reads
/// cgroup files.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many workers [`spread`] gets for `jobs` jobs that cover
/// `instructions` instructions: one per CPU, but no more than there are
/// jobs and no more than one per [`INSTRUCTIONS_PER_WORKER`], and at least
/// one.
fn workers(jobs: usize, instructions: u64) -> usize {
    let floor = usize::try_from(instructions / INSTRUCTIONS_PER_WORKER).unwrap_or(usize::MAX);
    cpus().min(jobs).min(floor).max(1)
}

/// The one spreading loop of the read side, behind [`replay_and_check`] and
/// the load's frame decode. The calling thread works through `caller`, and
/// each of `helpers` on a scoped thread that ends with the call. Each
/// worker takes the next job in order from a shared counter, and no worker
/// starts a job after one that failed.
///
/// Returns every result in job order, or the first error in job order:
/// what one worker taking the jobs in order would return.
fn spread<J, T, E>(
    jobs: &[J],
    caller: impl FnMut(&J) -> Result<T, E>,
    helpers: Vec<impl FnMut(&J) -> Result<T, E> + Send>,
) -> Result<Vec<T>, E>
where
    J: Sync,
    T: Send,
    E: Send,
{
    // Neither atomic publishes data: the jobs are shared before the spawns
    // and the results come back through the joins, so `Relaxed` will do.
    // `failed` only falls, so every job before the first failure is taken
    // and done.
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(usize::MAX);
    let mut done = thread::scope(|s| {
        let (next, failed) = (&next, &failed);
        let handles: Vec<_> = helpers
            .into_iter()
            .map(|work| s.spawn(move || take_jobs(jobs, next, failed, work)))
            .collect();
        let mut done = take_jobs(jobs, next, failed, caller);
        for handle in handles {
            done.extend(handle.join().unwrap_or_else(|e| panic::resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// One worker of [`spread`]: does the next job until none is left or one at
/// a lower index has failed, and returns each job's index and result.
fn take_jobs<J, T, E>(
    jobs: &[J],
    next: &AtomicUsize,
    failed: &AtomicUsize,
    mut work: impl FnMut(&J) -> Result<T, E>,
) -> Vec<(usize, Result<T, E>)> {
    let mut done = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else {
            return done;
        };
        if i > failed.load(Ordering::Relaxed) {
            return done;
        }
        let result = work(job);
        if result.is_err() {
            failed.fetch_min(i, Ordering::Relaxed);
        }
        done.push((i, result));
    }
}

/// One interval to replay: its thread, that thread's replayer and its logs.
type ReplayJob<'a> = (ThreadId, Replayer, &'a CheckpointLogs);

/// The one replay-and-check loop, behind [`CrashDump::replay_with`], the
/// dump profiler and the machine's in-memory `replay_and_verify` alike.
/// Each thread comes as its id, the program it replays against (`None`
/// reports it unreplayable) and the intervals to replay, oldest first.
/// Every interval is replayed and checked by [`DumpIntervalReplay::check`],
/// which hands `hook`, if any, the PC of every dispatched instruction;
/// `probe` observes each interval as [`ReplayRequest::probe`] describes.
///
/// Every interval starts from its FLL header's state and empty memory, so
/// the intervals replay independently, on up to one worker per CPU
/// ([`available_parallelism`](thread::available_parallelism), read once
/// per process). It takes no more workers than there are intervals, and
/// no more than one per 50,000 instructions to replay: below that, a
/// thread costs more to start than it saves. With a `hook`, one worker
/// replays every interval in order, so the hook sees one instruction
/// sequence. The calling thread is worker 0, and the others are scoped
/// threads that end with the call. Each worker takes the next interval in
/// report order from a shared counter, and no worker starts an interval
/// after one that failed.
///
/// The report is the serial loop's: intervals grouped by thread, oldest
/// first. Helpers observe through [`Probe::sibling`]s on the tracks
/// `replay-1`, `replay-2`, ..., so their spans land there, while the
/// counter totals and the `replay_interval_ns` sample count are the serial
/// loop's. On an error, an interval after the failing one that was
/// already replaying may also have been observed.
///
/// # Errors
///
/// Returns the first [`ReplayError`] in report order from an unreplayable
/// interval, the one the serial loop would return.
pub fn replay_and_check<'a, I>(
    threads: impl IntoIterator<Item = (ThreadId, Option<Arc<Program>>, I)>,
    probe: &mut Probe,
    mut hook: Option<&mut dyn FnMut(Addr)>,
) -> Result<DumpReplayReport, ReplayError>
where
    I: IntoIterator<Item = &'a CheckpointLogs>,
{
    let mut report = DumpReplayReport::default();
    let mut jobs: Vec<ReplayJob<'a>> = Vec::new();
    for (thread, program, intervals) in threads {
        let Some(program) = program else {
            report.unreplayable_threads.push(thread);
            continue;
        };
        let replayer = Replayer::new(program);
        jobs.extend(
            intervals
                .into_iter()
                .map(|cp| (thread, replayer.clone(), cp)),
        );
    }
    // The counts come from the dump, so they may be anything.
    let instructions = jobs.iter().fold(0u64, |sum, (_, _, cp)| {
        sum.saturating_add(cp.fll.instructions)
    });
    let workers = if hook.is_some() {
        1
    } else {
        workers(jobs.len(), instructions)
    };
    let helpers: Vec<_> = (1..workers)
        .map(|w| {
            let mut probe = probe.sibling(format_args!("replay-{w}"));
            move |job: &ReplayJob<'a>| replay_job(job, &mut probe, None)
        })
        .collect();
    let caller = |job: &ReplayJob<'a>| replay_job(job, probe, hook.as_deref_mut());
    report.intervals = spread(&jobs, caller, helpers)?;
    Ok(report)
}

/// Replays and checks one interval of [`replay_and_check`], observed by
/// `probe`.
fn replay_job(
    (thread, replayer, cp): &ReplayJob<'_>,
    probe: &mut Probe,
    hook: Option<&mut (dyn FnMut(Addr) + '_)>,
) -> Result<DumpIntervalReplay, ReplayError> {
    let start = probe.now();
    let interval = DumpIntervalReplay::check(replayer, *thread, cp, hook)?;
    if probe.is_on() {
        let digest_match = interval.digest_match;
        let instructions = Some(("instructions", interval.instructions));
        probe.span("replay", "interval", start, instructions);
        probe.add("replay_intervals_total", 1);
        probe.add("replay_instructions_total", interval.instructions);
        probe.add("replay_loads_from_log_total", interval.loads_from_log);
        probe.add("replay_digest_matches_total", u64::from(digest_match));
        probe.add("replay_digest_mismatches_total", u64::from(!digest_match));
        if !digest_match {
            probe.instant("replay", "digest_mismatch");
        }
    }
    Ok(interval)
}

/// One replay of a dump, for [`CrashDump::replay_with`]: where the programs
/// come from, where in the window to start, and what observes it.
pub struct ReplayRequest<F> {
    /// The program of each thread without an image, as in
    /// [`CrashDump::replay`]. To replay against other programs, replace the
    /// threads' [`ThreadDump::image`]s.
    pub fallback: F,
    /// Checkpoint-seeking time travel: replay each thread from its first
    /// interval whose checkpoint id is `from` to the end of its window (see
    /// [`replay_from`](CrashDump::replay_from)); `None` replays the whole
    /// window.
    pub from: Option<CheckpointId>,
    /// Observes the replay: one `replay`/`interval` span per replayed
    /// interval (instruction count attached, feeding `replay_interval_ns`),
    /// a `digest_mismatch` instant where it diverges, and the `replay_*`
    /// counters. Intervals that helper threads replay land on the sibling
    /// tracks `replay-1`, `replay-2`, ... ([`replay_and_check`]).
    /// [`Probe::off`] observes nothing.
    pub probe: Probe,
}

/// Result of [`CrashDump::bisect`]: the per-thread divergence frontier and
/// how much replay work finding it took.
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
    /// Whether every replayable interval reproduced its recording.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// One thread's first divergent interval, found by [`CrashDump::bisect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectDivergence {
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier of the first divergent interval.
    pub checkpoint: CheckpointId,
    /// Index of the interval within the thread's retained window.
    pub index: u32,
}

/// Result of replaying one recorded interval, out of a dump or a live log
/// store.
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
    /// Whether the replay digest matched the recorded digest.
    pub digest_match: bool,
    /// For fault-terminated intervals: whether the fault reproduced at the
    /// recorded program counter.
    pub fault_reproduced: Option<bool>,
}

impl DumpIntervalReplay {
    /// Replays `cp`, one recorded interval of `thread`, on `replayer` and
    /// checks it against the recording: its digest, and — where a fault
    /// ended it — the fault at the PC the OS appended to the FLL. `hook`,
    /// if any, sees the PC of every dispatched instruction, the faulting
    /// one included ([`Replayer::replay_interval_sampled`]).
    ///
    /// # Errors
    ///
    /// Returns the [`ReplayError`] of an interval that cannot be replayed
    /// at all.
    pub fn check(
        replayer: &Replayer,
        thread: ThreadId,
        cp: &CheckpointLogs,
        hook: Option<&mut (dyn FnMut(Addr) + '_)>,
    ) -> Result<Self, ReplayError> {
        let replayed = match hook {
            Some(hook) => replayer.replay_interval_sampled(&cp.fll, hook)?,
            None => replayer.replay_interval(&cp.fll)?,
        };
        Ok(DumpIntervalReplay {
            thread,
            checkpoint: cp.fll.header.checkpoint,
            instructions: replayed.instructions,
            loads_from_log: replayed.loads_from_log,
            loads_from_memory: replayed.loads_from_memory,
            digest_match: replayed.digest == cp.digest,
            fault_reproduced: cp.fll.fault.map(|expected| {
                replayed
                    .observed_fault
                    .is_some_and(|(pc, _)| pc == expected.pc)
            }),
        })
    }

    /// Whether the interval reproduced its recording: the digest matched
    /// and any recorded fault reproduced. The one verdict of replay, bisect
    /// and profile.
    pub fn matches(&self) -> bool {
        self.digest_match && self.fault_reproduced.unwrap_or(true)
    }
}

/// Result of replaying a whole dump, or a live run's retained window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DumpReplayReport {
    /// Per-interval results, grouped by thread, oldest interval first.
    pub intervals: Vec<DumpIntervalReplay>,
    /// Threads whose program image could not be reconstructed.
    pub unreplayable_threads: Vec<ThreadId>,
}

impl DumpReplayReport {
    /// Whether every interval reproduced its recording and every thread
    /// was replayable.
    pub fn all_match(&self) -> bool {
        !self.intervals.is_empty()
            && self.unreplayable_threads.is_empty()
            && self.intervals.iter().all(DumpIntervalReplay::matches)
    }

    /// Intervals that diverged from the recording.
    pub fn divergences(&self) -> Vec<&DumpIntervalReplay> {
        self.intervals.iter().filter(|i| !i.matches()).collect()
    }

    /// Total instructions replayed.
    pub fn instructions(&self) -> u64 {
        self.intervals.iter().map(|i| i.instructions).sum()
    }
}

/// Loads a dump and decodes every FLL record stream — the full checksum
/// and decode pass behind `bugnet verify` — and returns the verified dump.
/// Its totals are the manifest's.
///
/// # Errors
///
/// Returns a typed [`DumpError`] describing the first problem found.
pub fn verify_dump(dir: &Path) -> Result<CrashDump, DumpError> {
    let dump = CrashDump::load(dir)?;
    dump.verify()?;
    Ok(dump)
}

impl CrashDump {
    /// The deep pass of [`verify_dump`] over an already-loaded dump:
    /// decodes every FLL record stream, without re-reading anything from
    /// disk.
    ///
    /// # Errors
    ///
    /// Returns [`DumpError::CorruptLog`] for the first record stream that
    /// does not decode.
    pub fn verify(&self) -> Result<(), DumpError> {
        for (t, m) in self.threads.iter().zip(&self.manifest.threads) {
            for (i, cp) in t.checkpoints.iter().enumerate() {
                cp.fll.decode_records().map_err(|e| DumpError::CorruptLog {
                    file: m.fll_file(),
                    frame: i as u32,
                    detail: e.to_string(),
                })?;
            }
        }
        Ok(())
    }
}

// --- salvage accounting ---------------------------------------------------

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

    /// Records damage at `offset`, unless earlier damage is recorded already.
    fn damage(&mut self, cause: DumpError, offset: u64) {
        if self.cause.is_none() {
            self.cause = Some(cause);
            self.first_bad_offset = Some(offset);
        }
    }

    /// Ends recovery at a frame that read intact but could not be used:
    /// `intact` frames precede it, and it is earlier damage than whatever
    /// the byte-level read of the file found.
    fn stop_at(&mut self, intact: u32, stop: Stop) {
        self.intact_frames = intact;
        self.first_bad_offset = Some(stop.offset);
        self.cause = Some(stop.cause);
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

// --- the walk: the one reader behind load and salvage -------------------

/// A frame that read intact: its payload (decompressed, or a v5 log
/// frame's columnar blob), stored size and start offset in its file.
struct WalkedFrame {
    payload: Vec<u8>,
    stored: u64,
    offset: u64,
}

/// Damage inside a frame that read intact — it failed to decode, to pair,
/// or to match its image hash: the frame's offset and the typed cause.
struct Stop {
    offset: u64,
    cause: DumpError,
}

/// What the walk recovered from one thread's log files.
struct ThreadWalk {
    /// How much of the FLL file read intact, and the first damage in it.
    fll: FileSalvage,
    /// The same for the MRL file.
    mrl: FileSalvage,
    /// The first intact frame pair that failed to decode or pair, and
    /// whether its MRL frame (rather than its FLL frame) is at fault.
    stop: Option<(bool, Stop)>,
    /// The manifest entry of what was recovered: counts, byte totals,
    /// digests and image presence of the intact intervals.
    recovered: ThreadManifest,
    /// The intact intervals, oldest first.
    checkpoints: Vec<CheckpointLogs>,
    /// The thread's program image, when its file validated.
    image: Option<Arc<Program>>,
}

/// What the walk recovered from one image file, read once however many
/// threads share it.
struct ImageWalk {
    /// The first thread that embeds it (named in the file header).
    owner: ThreadId,
    /// How much of the file read intact, and the first damage in it.
    account: FileSalvage,
    /// Raw and stored size of the image frame, when it read intact.
    sizes: Option<(u64, u64)>,
    /// The frame read intact but failed its hash or did not decode.
    stop: Option<Stop>,
    program: Option<Arc<Program>>,
}

/// One pass over a dump directory.
struct Walk {
    manifest: DumpManifest,
    threads: Vec<ThreadWalk>,
    images: Vec<ImageWalk>,
}

/// Validates a log or image file header — magic, version, thread id — and
/// returns the frame count it declares, or the damage and its offset.
fn read_header(
    r: &mut ByteReader<'_>,
    file: &str,
    magic: [u8; 4],
    version: u32,
    thread: ThreadId,
) -> Result<u32, (DumpError, u64)> {
    let truncated = |at| (DumpError::Truncated { file: file.into() }, at);
    let inconsistent = |detail, at| {
        (
            DumpError::Inconsistent {
                file: file.into(),
                detail,
            },
            at,
        )
    };
    if r.take(4).ok_or_else(|| truncated(0))? != magic {
        return Err((DumpError::BadMagic { file: file.into() }, 0));
    }
    let file_version = r.u32().ok_or_else(|| truncated(4))?;
    if !(DUMP_VERSION_V1..=DUMP_VERSION).contains(&file_version) {
        let e = DumpError::UnsupportedVersion {
            file: file.into(),
            version: file_version,
        };
        return Err((e, 4));
    }
    if file_version != version {
        let detail = format!("file is format v{file_version}, manifest declares v{version}");
        return Err(inconsistent(detail, 4));
    }
    let file_thread = ThreadId(r.u32().ok_or_else(|| truncated(8))?);
    if file_thread != thread {
        let detail = format!("file claims {file_thread}, manifest expects {thread}");
        return Err(inconsistent(detail, 8));
    }
    r.u32().ok_or_else(|| truncated(12))
}

/// Reads every leading frame of a log or image file that validates and
/// accounts for the rest: where the first damage sits and its typed cause.
/// `expect_frames` is the manifest's count — the thread's checkpoints for
/// its FLL/MRL files, 1 for an image. Nothing that fails a checksum is
/// ever returned.
fn read_file(
    dir: &Path,
    file: String,
    magic: [u8; 4],
    manifest: &DumpManifest,
    thread: ThreadId,
    expect_frames: u32,
) -> (FileSalvage, Vec<WalkedFrame>) {
    let mut account = FileSalvage {
        file: file.clone(),
        declared_frames: expect_frames,
        intact_frames: 0,
        first_bad_offset: None,
        cause: None,
    };
    let path = dir.join(&file);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            account.cause = Some(io_err(&path, e));
            return (account, Vec::new());
        }
    };
    let mut r = ByteReader::new(&bytes);
    let file_frames = match read_header(&mut r, &file, magic, manifest.version, thread) {
        Ok(frames) => frames,
        Err((cause, at)) => {
            account.damage(cause, at);
            return (account, Vec::new());
        }
    };
    if file_frames != expect_frames {
        // Keep reading up to the smaller count, but the disagreement itself
        // is damage worth reporting.
        let detail = format!("file holds {file_frames} frames, manifest expects {expect_frames}");
        let cause = DumpError::Inconsistent {
            file: file.clone(),
            detail,
        };
        account.damage(cause, 12);
    }
    let columnar = manifest.version >= DUMP_VERSION_V5 && magic != IMAGE_FILE_MAGIC;
    let mut frames = Vec::with_capacity(file_frames.min(expect_frames) as usize);
    for i in 0..file_frames.min(expect_frames) {
        let offset = r.position();
        match read_frame(&mut r, &file, i, manifest.version, manifest.codec, columnar) {
            Ok((payload, stored)) => frames.push(WalkedFrame {
                payload,
                stored,
                offset,
            }),
            Err(cause) => {
                account.damage(cause, offset);
                break;
            }
        }
    }
    account.intact_frames = frames.len() as u32;
    if account.cause.is_none() && !r.is_exhausted() {
        // Every declared frame is intact but bytes follow. Distinguish
        // garbage from the sneakier forgery where whole well-formed frames
        // were appended: the manifest's frame count must match the frames
        // actually present even when the extras checksum cleanly.
        let at = r.position();
        let cause = match count_clean_extra_frames(&mut r, &file, manifest.codec) {
            0 => DumpError::TrailingBytes { file },
            extra => DumpError::Inconsistent {
                file,
                detail: format!(
                    "file holds {} well-formed frame(s), manifest declares {file_frames}",
                    u64::from(file_frames) + extra
                ),
            },
        };
        account.damage(cause, at);
    }
    (account, frames)
}

/// Decodes one interval's intact FLL and MRL frames and checks that they
/// belong to `thread` and to each other. On failure, also says whether the
/// MRL frame (rather than the FLL frame) is at fault.
fn decode_pair(
    fll: &[u8],
    mrl: &[u8],
    fll_file: &str,
    mrl_file: &str,
    thread: ThreadId,
    i: u32,
    columnar: bool,
) -> DecodedPair {
    let corrupt = |file: &str, detail: String| DumpError::CorruptLog {
        file: file.into(),
        frame: i,
        detail,
    };
    let fll = if columnar {
        decode_fll_columnar(fll).map_err(|e| columnar_log_error(fll_file, i, e))
    } else {
        FirstLoadLog::from_bytes(fll).map_err(|e| corrupt(fll_file, e.to_string()))
    }
    .map_err(|e| (false, e))?;
    let mrl = if columnar {
        decode_mrl_columnar(mrl).map_err(|e| columnar_log_error(mrl_file, i, e))
    } else {
        MemoryRaceLog::from_bytes(mrl)
            .ok_or_else(|| corrupt(mrl_file, "memory race log failed to decode".into()))
    }
    .map_err(|e| (true, e))?;
    if fll.header.thread != thread {
        let detail = format!(
            "frame {i} belongs to {}, expected {thread}",
            fll.header.thread
        );
        return Err((
            false,
            DumpError::Inconsistent {
                file: fll_file.into(),
                detail,
            },
        ));
    }
    if mrl.header.checkpoint != fll.header.checkpoint || mrl.header.thread != fll.header.thread {
        let detail = format!(
            "frame {i} pairs {} {} with FLL {} {}",
            mrl.header.thread, mrl.header.checkpoint, fll.header.thread, fll.header.checkpoint
        );
        return Err((
            true,
            DumpError::Inconsistent {
                file: mrl_file.into(),
                detail,
            },
        ));
    }
    Ok((fll, mrl))
}

/// Reads one image file and checks its frame against the content hash the
/// manifest entry `t` (its first embedder) declares.
fn read_image(dir: &Path, manifest: &DumpManifest, t: &ThreadManifest) -> ImageWalk {
    let (account, frames) = read_file(dir, t.image_file(), IMAGE_FILE_MAGIC, manifest, t.thread, 1);
    let mut image = ImageWalk {
        owner: t.thread,
        account,
        sizes: None,
        stop: None,
        program: None,
    };
    let Some(frame) = frames.first() else {
        return image;
    };
    image.sizes = Some((frame.payload.len() as u64, frame.stored));
    let file = &image.account.file;
    let hash = t
        .image_hash
        .map(|expected| (expected, fnv1a(&frame.payload)));
    let checked = match hash {
        Some((expected, actual)) if actual != expected => Err(DumpError::ChecksumMismatch {
            file: file.clone(),
            frame: Some(0),
            expected,
            actual,
        }),
        _ => decode_image(&frame.payload).map_err(|e| DumpError::CorruptLog {
            file: file.clone(),
            frame: 0,
            detail: format!("program image failed to decode: {e}"),
        }),
    };
    match checked {
        Ok(program) => image.program = Some(Arc::new(program)),
        Err(cause) => {
            image.stop = Some(Stop {
                offset: frame.offset,
                cause,
            })
        }
    }
    image
}

/// Reads a whole dump directory: every intact prefix of intervals per
/// thread — an interval survives when both of its log frames pass their
/// checksums, decode, and pair correctly — and every image file that
/// validates, recording all damage instead of failing on it. Only an
/// unusable manifest is an error.
///
/// The files are read one thread after another: framing, stored-bytes
/// checksums, codec checks and images. Every FLL header holds its
/// interval's complete starting state, so the intact frame pairs of all
/// threads then decode independently, spread over the workers a replay
/// gets ([`spread`]). The manifest's declared instructions set the
/// worker floor; read from the dump, they bound nothing else. Each thread
/// then takes its decoded pairs in frame order, as one serial walk would.
fn walk(dir: &Path) -> Result<Walk, DumpError> {
    let manifest = DumpManifest::load(dir)?;
    let columnar = manifest.version >= DUMP_VERSION_V5;
    let mut files = Vec::with_capacity(manifest.threads.len());
    let mut images: Vec<ImageWalk> = Vec::new();
    for t in &manifest.threads {
        let (fll, fll_frames) = read_file(
            dir,
            t.fll_file(),
            FLL_FILE_MAGIC,
            &manifest,
            t.thread,
            t.checkpoints,
        );
        let (mrl, mrl_frames) = read_file(
            dir,
            t.mrl_file(),
            MRL_FILE_MAGIC,
            &manifest,
            t.thread,
            t.checkpoints,
        );
        let image = if t.has_image {
            let file = t.image_file();
            match images.iter().find(|i| i.account.file == file) {
                Some(shared) => shared.program.clone(),
                None => {
                    images.push(read_image(dir, &manifest, t));
                    images.last().and_then(|i| i.program.clone())
                }
            }
        } else {
            None
        };
        files.push(ThreadFiles {
            fll,
            mrl,
            fll_frames,
            mrl_frames,
            image,
        });
    }

    let jobs: Vec<DecodeJob<'_>> = manifest
        .threads
        .iter()
        .zip(&files)
        .flat_map(|(t, f)| (0..f.pairs()).map(move |i| (t.thread, f, i)))
        .collect();
    // A failed decode ends only its own thread's prefix, in the fold below,
    // so no job fails as far as `spread` can tell, and the pairs after it
    // in a damaged thread decode for nothing.
    let decode = move |&(thread, f, i): &DecodeJob<'_>| {
        Ok::<_, Infallible>(decode_pair(
            &f.fll_frames[i].payload,
            &f.mrl_frames[i].payload,
            &f.fll.file,
            &f.mrl.file,
            thread,
            i as u32,
            columnar,
        ))
    };
    let declared = manifest
        .threads
        .iter()
        .fold(0u64, |sum, t| sum.saturating_add(t.instructions));
    let helpers = vec![decode; workers(jobs.len(), declared) - 1];
    let Ok(decoded) = spread(&jobs, decode, helpers);

    let mut decoded = decoded.into_iter();
    let threads = manifest
        .threads
        .iter()
        .zip(files)
        .map(|(t, f)| {
            let pairs: Vec<_> = decoded.by_ref().take(f.pairs()).collect();
            fold_thread(t, f, pairs, columnar)
        })
        .collect();
    Ok(Walk {
        manifest,
        threads,
        images,
    })
}

/// One thread's log files as the walk read them, before decoding.
struct ThreadFiles {
    fll: FileSalvage,
    mrl: FileSalvage,
    fll_frames: Vec<WalkedFrame>,
    mrl_frames: Vec<WalkedFrame>,
    /// The thread's program image, when its file validated.
    image: Option<Arc<Program>>,
}

impl ThreadFiles {
    /// The intervals both log files hold an intact frame of.
    fn pairs(&self) -> usize {
        self.fll_frames.len().min(self.mrl_frames.len())
    }
}

/// One frame pair to decode: its thread, that thread's files and the
/// interval's index.
type DecodeJob<'a> = (ThreadId, &'a ThreadFiles, usize);

/// A frame pair's logs, or whether the MRL frame (rather than the FLL
/// frame) is at fault and the cause.
type DecodedPair = Result<(FirstLoadLog, MemoryRaceLog), (bool, DumpError)>;

/// Takes one thread's decoded frame pairs in frame order, up to the first
/// that failed to decode or pair, or whose instruction count overflows the
/// sum, and accounts for what they recovered.
fn fold_thread(
    t: &ThreadManifest,
    files: ThreadFiles,
    decoded: Vec<DecodedPair>,
    columnar: bool,
) -> ThreadWalk {
    let ThreadFiles {
        fll,
        mrl,
        fll_frames,
        mrl_frames,
        image,
    } = files;
    let mut recovered = ThreadManifest {
        thread: t.thread,
        checkpoints: 0,
        instructions: 0,
        fll_bytes: 0,
        mrl_bytes: 0,
        fll_stored_bytes: 0,
        mrl_stored_bytes: 0,
        has_image: false,
        image_raw_bytes: 0,
        image_stored_bytes: 0,
        image_hash: None,
        digests: Vec::new(),
    };
    let mut checkpoints = Vec::with_capacity(decoded.len());
    let mut stop = None;
    for (i, ((ff, mf), decoded)) in fll_frames.iter().zip(&mrl_frames).zip(decoded).enumerate() {
        let (fll_log, mrl_log) = match decoded {
            Ok(pair) => pair,
            Err((at_mrl, cause)) => {
                let offset = if at_mrl { mf.offset } else { ff.offset };
                stop = Some((at_mrl, Stop { offset, cause }));
                break;
            }
        };
        // Checked: frames are attacker-controlled (FNV is not a MAC), and
        // an overflowing sum must not panic or wrap past the manifest
        // cross-check.
        let Some(instructions) = recovered.instructions.checked_add(fll_log.instructions) else {
            let cause = DumpError::Inconsistent {
                file: fll.file.clone(),
                detail: "declared per-interval instruction counts overflow".into(),
            };
            stop = Some((
                false,
                Stop {
                    offset: ff.offset,
                    cause,
                },
            ));
            break;
        };
        recovered.instructions = instructions;
        // Each version's raw-size semantics: row-serialized sizes in v5
        // (the payloads are columnar blobs), payload sizes before.
        if columnar {
            recovered.fll_bytes += fll_log.serialized_len();
            recovered.mrl_bytes += mrl_log.serialized_len();
        } else {
            recovered.fll_bytes += ff.payload.len() as u64;
            recovered.mrl_bytes += mf.payload.len() as u64;
        }
        recovered.fll_stored_bytes += ff.stored;
        recovered.mrl_stored_bytes += mf.stored;
        checkpoints.push(CheckpointLogs {
            fll: fll_log,
            mrl: mrl_log,
            digest: t.digests[i],
        });
    }
    recovered.checkpoints = checkpoints.len() as u32;
    recovered.digests = t.digests[..checkpoints.len()].to_vec();
    if image.is_some() {
        recovered.has_image = true;
        recovered.image_raw_bytes = t.image_raw_bytes;
        recovered.image_stored_bytes = t.image_stored_bytes;
        recovered.image_hash = t.image_hash;
    }
    ThreadWalk {
        fll,
        mrl,
        stop,
        recovered,
        checkpoints,
        image,
    }
}

/// `Ok` when a value recovered from `file` is the one the manifest declares.
fn check_declared(file: &str, what: &str, recovered: u64, declared: u64) -> Result<(), DumpError> {
    if recovered == declared {
        return Ok(());
    }
    Err(DumpError::Inconsistent {
        file: file.into(),
        detail: format!("recovered {recovered} {what}, manifest declares {declared}"),
    })
}

impl CrashDump {
    /// Loads whatever is recoverable from a damaged dump directory.
    ///
    /// Where [`CrashDump::load`] rejects a dump on the first problem, this
    /// keeps what the walk recovered: every *intact prefix* of checkpoint
    /// intervals per thread, and every embedded program image whose file
    /// validates. The returned dump's manifest is adjusted to the recovered
    /// content so replay and verification work unchanged, and the
    /// [`SalvageReport`] states per file how many frames survived, where
    /// the first damage sits, and the typed cause. It decodes on the
    /// workers [`load`](CrashDump::load) does, and a thread whose frame
    /// fails to decode keeps its prefix without costing another thread any.
    ///
    /// # Errors
    ///
    /// Returns a [`DumpError`] only when the *manifest* is unusable
    /// (missing, corrupt, truncated): without it there is no ground truth
    /// about what the dump contained, so there is nothing to salvage
    /// against. Everything else degrades into the report.
    pub fn load_salvage(dir: &Path) -> Result<SalvagedDump, DumpError> {
        let Walk {
            manifest,
            threads,
            mut images,
        } = walk(dir)?;
        let mut report = SalvageReport::default();
        let mut adjusted = Vec::with_capacity(threads.len());
        let mut dumps = Vec::with_capacity(threads.len());
        for (t, w) in manifest.threads.iter().zip(threads) {
            let (mut fll, mut mrl) = (w.fll, w.mrl);
            if let Some((at_mrl, stop)) = w.stop {
                let file = if at_mrl { &mut mrl } else { &mut fll };
                file.stop_at(w.recovered.checkpoints, stop);
            }
            let intervals = w.recovered.checkpoints;
            report.intact_intervals += u64::from(intervals);
            report.lost_intervals += u64::from(t.checkpoints.saturating_sub(intervals));
            report.files.extend([fll, mrl]);
            if let Some(i) = images.iter().position(|i| i.owner == t.thread) {
                let image = images.swap_remove(i);
                let mut account = image.account;
                if let Some(stop) = image.stop {
                    account.stop_at(0, stop);
                }
                report.files.push(account);
                if image.program.is_none() {
                    report.lost_images += 1;
                }
            }
            adjusted.push(w.recovered);
            dumps.push(ThreadDump {
                thread: t.thread,
                image: w.image,
                checkpoints: w.checkpoints,
            });
        }
        let dump = CrashDump {
            manifest: DumpManifest {
                threads: adjusted,
                ..manifest
            },
            threads: dumps,
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
    use crate::io::StdIo;
    use crate::recorder::ThreadRecorder;
    use crate::stats::LogSizeReport;
    use bugnet_cpu::ArchState;
    use bugnet_types::{ProcessId, Word};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bugnet-dump-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A committed dump fixture under the repository's `tests/fixtures`.
    fn fixture(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name)
    }

    /// A scratch copy of a committed fixture, safe to corrupt.
    fn temp_copy(fixture_name: &str, name: &str) -> std::path::PathBuf {
        let dir = temp_dir(name);
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(fixture(fixture_name)).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
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
        let written = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
                assert_eq!(cp.digest, orig.digest);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_stats() {
        let dir = temp_dir("verify");
        let store = store_with_logs(1, 2);
        write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
        // `verify_dump` is `Ok` only when every record decodes.
        let dump = verify_dump(&dir).unwrap();
        assert_eq!(dump.manifest.threads.len(), 1);
        assert_eq!(dump.manifest.total_checkpoints(), 2);
        let logs = LogSizeReport::from_logs(dump.threads.iter().flat_map(|t| &t.checkpoints));
        assert!(logs.loads_logged > 0);
        assert!(dump.manifest.total_fll_size().bytes() > 0);
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
        write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        write_dump(&dir, &m, &store, |_| None, &mut StdIo::new()).unwrap();
        // The dump written at crash time must load back by its own loader.
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.workload.len(), MAX_STRING_BYTES as usize);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_dumps_still_load_and_report_identity_codec() {
        let dump = CrashDump::load(&fixture("golden-v1")).unwrap();
        assert_eq!(dump.manifest.version, DUMP_VERSION_V1);
        assert_eq!(dump.manifest.codec, CodecId::Identity);
        // v1 has no codec layer: stored == raw.
        for t in &dump.manifest.threads {
            assert_eq!(t.fll_stored_bytes, t.fll_bytes);
            assert_eq!(t.mrl_stored_bytes, t.mrl_bytes);
        }
        // The same recording as the v2 fixture decodes to the same logs.
        let v2 = CrashDump::load(&fixture("golden-v2")).unwrap();
        assert_eq!(dump.threads.len(), v2.threads.len());
        for (td, reference) in dump.threads.iter().zip(&v2.threads) {
            for (cp, orig) in td.checkpoints.iter().zip(&reference.checkpoints) {
                assert_eq!(cp.fll, orig.fll);
                assert_eq!(cp.mrl, orig.mrl);
            }
        }
    }
    #[test]
    fn v2_lz_dump_is_smaller_than_v1() {
        // The v1 and v2 writers are gone; the committed fixtures hold the
        // same recording in both formats.
        assert_eq!(
            CrashDump::load(&fixture("golden-v2"))
                .unwrap()
                .manifest
                .codec,
            CodecId::Lz77
        );
        let total = |dir: &Path| -> u64 {
            fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap().len())
                .sum()
        };
        let v1 = total(&fixture("golden-v1"));
        let v2 = total(&fixture("golden-v2"));
        assert!(
            v2 < v1,
            "v2 dump ({v2} bytes) must be smaller than v1 ({v1})"
        );
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
        // Written as v5: the v2 writer is gone, the identity codec is not.
        let dir = temp_dir("identity");
        let written = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
        assert_eq!(written.version, DUMP_VERSION);
        assert_eq!(written.codec, CodecId::Identity);
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.codec, CodecId::Identity);
        assert_eq!(dump.manifest, written);
        fs::remove_dir_all(&dir).unwrap();
    }
    #[test]
    fn appended_clean_frame_is_a_frame_count_inconsistency() {
        let dir = temp_dir("extra-frame");
        let store = store_with_logs(1, 2);
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let written = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        // The embedded image is the program's code-only replay image.
        assert!(!program.data().is_empty());
        let replay_image = program.without_data();
        for t in &dump.threads {
            let image = t.image.as_deref().unwrap();
            assert_eq!(image, &replay_image);
            assert!(image.data().is_empty());
        }
        assert_eq!(
            dump.embedded_program(ThreadId(0)).map(|p| p.name()),
            Some("dump-test-program")
        );
        dump.verify().unwrap();
        assert_eq!(dump.manifest.embedded_images(), 2);
        assert!(dump.manifest.total_image_size().bytes() > 0);
        assert!(dump.manifest.image_ratio() >= 1.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_embedding_is_per_thread() {
        let dir = temp_dir("image-partial");
        let store = store_with_logs(2, 1);
        let program = test_program();
        let written = write_dump(
            &dir,
            &meta(),
            &store,
            |t| (t == ThreadId(0)).then(|| Arc::clone(&program)),
            &mut StdIo::new(),
        )
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
        let manifest = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        let manifest = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        let manifest = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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

        // More symbols than the image wire format allows (symbols survive
        // into the replay image): the writer must refuse with a typed
        // error, not produce a dump its own loader rejects.
        let mut oversized = Program::new(
            "oversized",
            vec![bugnet_isa::Instr::Halt],
            Addr::new(0x40_0000),
            0,
            Vec::new(),
        );
        for i in 0..=bugnet_isa::encode::MAX_IMAGE_SYMBOLS {
            oversized.add_symbol(format!("s{i}"), Addr::new(u64::from(i) * 4));
        }
        let oversized = Arc::new(oversized);
        let dir = temp_dir("image-oversized");
        let err = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&oversized)),
            &mut StdIo::new(),
        )
        .expect_err("oversized image must be rejected at write time");
        match &err {
            DumpError::Inconsistent { file, detail } => {
                assert!(file.starts_with("image-"), "{err}");
                assert!(detail.contains("wire-format limits"), "{err}");
            }
            other => panic!("expected Inconsistent, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);

        // A program with more data segments than the wire format allows is
        // still written: the dump embeds only its code-only replay image.
        let segments: Vec<DataSegment> = (0..4097)
            .map(|i| DataSegment {
                base: Addr::new(0x1000_0000 + i as u64 * 16),
                words: vec![Word::new(0)],
            })
            .collect();
        let data_heavy = Arc::new(Program::new(
            "data-heavy",
            vec![bugnet_isa::Instr::Halt],
            Addr::new(0x40_0000),
            0,
            segments,
        ));
        let dir = temp_dir("image-data-heavy");
        write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&data_heavy)),
            &mut StdIo::new(),
        )
        .expect("a program's data segments never reach the dump");
        let dump = CrashDump::load(&dir).unwrap();
        let image = dump.embedded_program(ThreadId(0)).unwrap();
        assert_eq!(image.as_ref(), &data_heavy.without_data());
        assert!(image.data().is_empty());
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
        let err = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&collapsing)),
            &mut StdIo::new(),
        )
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
        write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        // Replacing the image overrides it: with no override program the
        // thread is unreplayable.
        let mut overridden = dump.clone();
        overridden.threads[0].image = None;
        let report = overridden.replay(|_| None).unwrap();
        assert_eq!(report.unreplayable_threads, vec![ThreadId(0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_fields_are_manifest_errors_not_frame_errors() {
        // Satellite sweep: a manifest field corruption must surface as
        // CorruptManifest (manifest context), never as a frame-level
        // CorruptLog claiming "frame 0 is corrupt".
        let dir = temp_dir("manifest-field");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let dir = temp_copy("golden-v2", "frame-length-forgery");
        let manifest = DumpManifest::load(&dir).unwrap();
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
        let written = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        dump.verify().unwrap();
        assert_eq!(dump.manifest.embedded_images(), 3);
        assert_eq!(
            dump.manifest.total_image_size().bytes(),
            written.threads[0].image_raw_bytes
        );
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
        let written = write_dump(
            &dir,
            &meta(),
            &store,
            |t| {
                Some(if t == ThreadId(0) {
                    Arc::clone(&a)
                } else {
                    Arc::clone(&b)
                })
            },
            &mut StdIo::new(),
        )
        .unwrap();
        assert_eq!(written.unique_images(), 2);
        assert_ne!(written.threads[0].image_hash, written.threads[1].image_hash);
        let dump = CrashDump::load(&dir).unwrap();
        for (t, program) in dump.threads.iter().zip([&a, &b]) {
            let image = t.image.as_deref().unwrap();
            assert_eq!(image, &program.without_data());
            assert!(image.data().is_empty());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_dump_v3_still_produces_loadable_v3_dumps() {
        // The v3 writer is gone; the committed fixture pins its layout.
        let dir = fixture("golden-v3");
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.version, DUMP_VERSION_V3);
        // v3 has no content addressing: per-thread files, no hashes.
        assert_eq!(dump.manifest.unique_images(), dump.manifest.threads.len());
        for t in &dump.manifest.threads {
            assert_eq!(t.image_hash, None);
            assert!(dir.join(t.image_file()).exists());
        }
        assert!(dir.join("image-0.bni").exists());
        assert!(dump.is_self_contained());
    }
    #[test]
    fn write_dump_v2_still_produces_loadable_v2_dumps() {
        // The v2 writer is gone; the committed fixture pins its layout.
        let dump = CrashDump::load(&fixture("golden-v2")).unwrap();
        assert_eq!(dump.manifest.version, DUMP_VERSION_V2);
        assert_eq!(dump.manifest.embedded_images(), 0);
        assert!(dump.threads.iter().all(|t| t.image.is_none()));
        // v3 only adds the image sections and manifest fields: the same
        // recording decodes to the same logs.
        let v3 = CrashDump::load(&fixture("golden-v3")).unwrap();
        assert_eq!(dump.threads.len(), v3.threads.len());
        for (td, reference) in dump.threads.iter().zip(&v3.threads) {
            assert_eq!(td.checkpoints, reference.checkpoints);
        }
    }

    #[test]
    fn salvage_of_a_clean_dump_is_lossless() {
        let dir = temp_dir("salvage-clean");
        let store = store_with_logs(2, 3);
        let program = test_program();
        write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
            salvaged.dump.verify().unwrap();
            assert_eq!(
                salvaged.dump.manifest.total_checkpoints(),
                u64::from(fll.intact_frames)
            );
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let manifest = write_dump(
            &dir,
            &meta(),
            &store,
            |_| Some(Arc::clone(&program)),
            &mut StdIo::new(),
        )
        .unwrap();
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
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
    fn salvage_reports_an_appended_frame_as_a_frame_count_inconsistency() {
        // Salvage and load read through the same walk, so a cleanly
        // checksummed frame appended to a log file is the frame-count
        // mismatch load reports, not mere trailing bytes.
        let dir = temp_dir("salvage-extra-frame");
        let store = store_with_logs(1, 2);
        let manifest = write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
        let path = dir.join(manifest.threads[0].fll_file());
        let mut bytes = fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let frame = bytes[16..20 + first_len + 8].to_vec();
        let end = bytes.len() as u64;
        bytes.extend_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        let salvaged = CrashDump::load_salvage(&dir).unwrap();
        let fll = salvaged
            .report
            .files
            .iter()
            .find(|f| f.file.ends_with(".fll"))
            .unwrap();
        assert_eq!(fll.intact_frames, 2);
        assert_eq!(fll.first_bad_offset, Some(end));
        match &fll.cause {
            Some(DumpError::Inconsistent { detail, .. }) => {
                assert!(detail.contains("well-formed frame"), "{detail}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        // Nothing the manifest declares was lost.
        assert_eq!(salvaged.report.intact_intervals, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_without_a_manifest_is_fatal() {
        let dir = temp_dir("salvage-no-manifest");
        let store = store_with_logs(1, 1);
        write_dump(&dir, &meta(), &store, |_| None, &mut StdIo::new()).unwrap();
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
        let err = write_dump(&dir, &meta(), &store, |_| None, &mut io).unwrap_err();
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
    fn verify_rejects_a_forged_record_count_instead_of_aborting() {
        // A frame's checksums are unkeyed FNV, so a forger can make any
        // log load; verify must then fail typed, not reserve 2^40 records.
        use crate::bitstream::BitStream;
        use crate::fll::FllPayloadStats;
        let mut dump = CrashDump::load(&fixture("golden-v2")).unwrap();
        let original = &dump.threads[0].checkpoints[1].fll;
        let forged = FirstLoadLog::new(
            original.header,
            original.codec(),
            BitStream::from_bytes(Vec::new(), 0),
            FllPayloadStats {
                records: 1 << 40,
                ..FllPayloadStats::default()
            },
            original.instructions,
            original.loads_executed,
            original.termination,
            original.fault,
        );
        dump.threads[0].checkpoints[1].fll = forged;
        let err = dump.verify().unwrap_err();
        assert!(
            matches!(err, DumpError::CorruptLog { frame: 1, .. }),
            "{err}"
        );
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
