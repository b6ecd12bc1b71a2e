//! Shared vocabulary types for the BugNet reproduction.
//!
//! Every other crate in the workspace builds on the newtypes and configuration
//! structs defined here: addresses and machine words ([`Addr`], [`Word`]),
//! identifiers for threads, processes, cores and checkpoint intervals
//! ([`ThreadId`], [`ProcessId`], [`CoreId`], [`CheckpointId`]), instruction
//! counters ([`InstrCount`]), byte-size formatting ([`ByteSize`]), the
//! deterministic pseudo-random generator used by the synthetic workloads
//! ([`SplitMix64`]) and the configuration structs for the recorder and the
//! simulated memory hierarchy ([`BugNetConfig`], [`CacheConfig`],
//! [`MachineConfig`]).
//!
//! # Examples
//!
//! ```
//! use bugnet_types::{Addr, Word, ByteSize};
//!
//! let a = Addr::new(0x1000);
//! assert_eq!(a.word_index(), 0x400);
//! assert_eq!(ByteSize::from_bytes(48 * 1024).to_string(), "48.00 KB");
//! let w = Word::new(0xdead_beef);
//! assert_eq!(w.get(), 0xdead_beef);
//! ```

pub mod addr;
pub mod config;
pub mod ids;
pub mod rng;
pub mod size;

pub use addr::{Addr, Word, WORD_BYTES};
pub use config::{
    BugNetConfig, CacheConfig, CacheLevelConfig, MachineConfig, MAX_DICTIONARY_ENTRIES,
};
pub use ids::{CheckpointId, CoreId, InstrCount, ProcessId, ThreadId, Timestamp};
pub use rng::SplitMix64;
pub use size::ByteSize;
