//! BugNet: continuously recording program execution for deterministic replay
//! debugging — an open reproduction of the ISCA 2005 paper by Narayanasamy,
//! Pokam and Calder.
//!
//! This umbrella crate re-exports the workspace's public API under one roof:
//!
//! * [`types`] — shared newtypes and configuration.
//! * [`isa`] — the simulated instruction set and program builder.
//! * [`memsys`] — caches with first-load bits, directory coherence, DMA.
//! * [`cpu`] — the functional core used for recording and replay.
//! * [`compress`] — back-end log compression: codecs, the framed
//!   container and the FNV-1a checksum.
//! * [`core`] — the BugNet recorder, logs, compressor and replayer.
//! * [`fdr`] — the Flight Data Recorder baseline model.
//! * [`telemetry`] — always-on counters, gauges and latency histograms.
//! * [`trace`] — timeline tracing with Perfetto (Chrome trace-event) export.
//! * [`workloads`] — synthetic SPEC-like and buggy workloads.
//! * [`sim`] — the full-machine harness and experiment runners.
//!
//! # Quickstart
//!
//! ```
//! use bugnet::sim::{Machine, MachineBuilder};
//! use bugnet::workloads::spec::SpecProfile;
//! use bugnet::types::BugNetConfig;
//!
//! // Record a small synthetic workload and replay it deterministically.
//! let workload = SpecProfile::gzip().build_workload(50_000, 1);
//! let mut machine = MachineBuilder::new()
//!     .bugnet(BugNetConfig::default().with_checkpoint_interval(10_000))
//!     .build_with_workload(&workload);
//! let outcome = machine.run_to_completion();
//! let report = machine.replay_and_verify().expect("deterministic replay");
//! assert!(report.all_match());
//! assert!(outcome.total_committed() > 0);
//! ```

pub use bugnet_compress as compress;
pub use bugnet_core as core;
pub use bugnet_cpu as cpu;
pub use bugnet_fdr as fdr;
pub use bugnet_isa as isa;
pub use bugnet_memsys as memsys;
pub use bugnet_sim as sim;
pub use bugnet_telemetry as telemetry;
pub use bugnet_trace as trace;
pub use bugnet_types as types;
pub use bugnet_workloads as workloads;
