//! The BugNet recorder and replayer — the paper's primary contribution.
//!
//! BugNet continuously records, per thread and per *checkpoint interval*, the
//! architectural state at the start of the interval plus the value of every
//! *first load* to each memory location. That is sufficient to
//! deterministically re-execute the interval: stores and repeated loads are
//! regenerated by the replay itself, and anything the outside world (kernel,
//! DMA, other threads) wrote shows up as a freshly-logged first load the next
//! time the application reads it.
//!
//! Module map:
//!
//! * [`bitstream`] — packed bit-level encoding shared by the log formats.
//! * [`columnar`] — the v5 per-field stream split/join for FLL/MRL payloads
//!   (the log-specific half of the columnar/delta transform).
//! * [`dictionary`] — the 64-entry frequent-value compressor (§4.3.1).
//! * [`fll`] — First-Load Log headers, records and codec (§4.2-4.3).
//! * [`mrl`] — Memory Race Logs for shared-memory ordering (§4.6).
//! * [`recorder`] — the per-thread recording state machine and the
//!   memory-backed [`recorder::LogStore`] (§4.7).
//! * [`dump`] — the on-disk crash-dump directory format the OS writes at
//!   fault time and the developer replays offline (§4.8).
//! * [`io`] — the [`DumpIo`] filesystem abstraction, deterministic fault
//!   injection, and the atomic staging/rename dump commit.
//! * [`replayer`] — deterministic replay from the logs (§5.1).
//! * [`race`] — cross-thread ordering reconstruction and data-race
//!   candidates from the MRLs (§5.2).
//! * [`digest`] — execution digests used to *verify* determinism in tests.
//! * [`stats`] — log-size/compression reports (the paper's figures).
//! * [`hardware`] — on-chip area model (Table 3).
//! * [`bandwidth`] — recording-overhead model (§6.3).
//!
//! # Examples
//!
//! Record a tiny hand-driven interval and replay it:
//!
//! ```
//! use bugnet_core::recorder::ThreadRecorder;
//! use bugnet_core::fll::TerminationCause;
//! use bugnet_cpu::ArchState;
//! use bugnet_types::{Addr, BugNetConfig, ProcessId, ThreadId, Timestamp, Word};
//!
//! let mut rec = ThreadRecorder::new(BugNetConfig::default(), ProcessId(1), ThreadId(0));
//! rec.begin_interval(ArchState::default(), Timestamp(0));
//! rec.record_load(Addr::new(0x1000), Word::new(42), true);
//! rec.record_committed_instruction();
//! let logs = rec
//!     .end_interval(TerminationCause::IntervalFull, &ArchState::default())
//!     .unwrap();
//! assert_eq!(logs.fll.records(), 1);
//! ```

pub mod bandwidth;
pub mod bitstream;
pub mod columnar;
pub mod dictionary;
pub mod digest;
pub mod dump;
pub mod fll;
pub mod hardware;
pub mod io;
pub mod mrl;
pub mod profile;
pub mod race;
pub mod recorder;
pub mod replayer;
pub mod stats;

pub use bandwidth::{estimate_overhead, OverheadInputs, OverheadReport};
pub use columnar::{
    decode_fll_columnar, decode_mrl_columnar, encode_fll_columnar, encode_mrl_columnar,
    ColumnarCodecError,
};
pub use dictionary::ValueDictionary;
pub use digest::ExecutionDigest;
pub use dump::{
    verify_dump, write_dump, BisectDivergence, BisectReport, CrashDump, DumpError, DumpManifest,
    DumpMeta, DumpOptions, DumpReplayReport, ReplayRequest, SalvageReport, SalvagedDump,
};
pub use fll::{FirstLoadLog, FllHeader, TerminationCause};
pub use hardware::BugNetHardware;
pub use io::{clean_orphaned_staging, DumpIo, FaultIo, FaultKind, IoFailure, IoOp, StdIo};
pub use mrl::{MemoryRaceLog, RemoteExecState};
pub use race::{analyze, RaceAnalysis, ThreadHistory};
pub use recorder::{
    CheckpointLogs, LogStore, SealedCheckpoint, ThreadRecorder, ThreadStoreHandle,
    DEFAULT_STORE_SHARDS,
};
pub use replayer::{ReplayError, ReplayedInterval, Replayer};
pub use stats::LogSizeReport;
