//! Full-machine simulation harness.
//!
//! This crate wires the substrates together into the machine the paper's
//! evaluation assumes: one or more cores with private L1/L2 caches carrying
//! first-load bits, a directory coherence protocol, a DMA engine, an OS-lite
//! layer (timer interrupts, syscalls with external input, context switches,
//! fault detection), and — attached to all of it — the BugNet recorder and,
//! optionally, the FDR baseline model observing the same execution.
//!
//! * [`machine`] — [`Machine`], [`MachineBuilder`], the scheduling loop and
//!   the recording memory path.
//! * [`flush`] — the worker-pool pipeline sealing (serializing +
//!   compressing) finished checkpoint intervals off the machine loop.
//! * [`verify`] — replay-based determinism verification (the same check a
//!   loaded crash dump replays through) and race analysis.
//! * [`runner`] — one-call experiment helpers used by the bench binaries.
//!
//! # Examples
//!
//! ```
//! use bugnet_sim::MachineBuilder;
//! use bugnet_types::BugNetConfig;
//! use bugnet_workloads::spec::SpecProfile;
//!
//! let workload = SpecProfile::crafty().build_workload(20_000, 1);
//! let mut machine = MachineBuilder::new()
//!     .bugnet(BugNetConfig::default().with_checkpoint_interval(5_000))
//!     .build_with_workload(&workload);
//! let outcome = machine.run_to_completion();
//! assert!(outcome.total_committed() > 10_000);
//! let report = machine.replay_and_verify().unwrap();
//! assert!(report.all_match());
//! ```

pub mod flush;
pub mod machine;
pub mod runner;
pub mod verify;

pub use flush::FlushPipeline;
pub use machine::{Machine, MachineBuilder, RecordingOptions, RunOutcome, ThreadOutcome};
pub use runner::{record_spec_profile, RecordedRun};
