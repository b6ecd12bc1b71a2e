//! Shared pieces of the `bugbench` benchmark and the `bench_compare` tool:
//! order statistics, self time of nested spans, the metric list and the
//! verdict rule that compares a parent commit with a change.
//!
//! The benchmark itself lives in `src/main.rs` (with its workloads in
//! `src/harness.rs` and `src/workloads.rs`); see `README.md` for how to run
//! it and what each metric means.

pub mod compare;
pub mod metrics;
pub mod spans;
pub mod stats;
