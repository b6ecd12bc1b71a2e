//! Quickstart: record a workload with BugNet, inspect the logs, and replay
//! the execution deterministically.
//!
//! Run with: `cargo run --release --example quickstart`

use bugnet::sim::MachineBuilder;
use bugnet::types::BugNetConfig;
use bugnet::workloads::spec::SpecProfile;

fn main() {
    // 1. Build a synthetic workload (a gzip-like loop kernel, ~100k instructions).
    let workload = SpecProfile::gzip().build_workload(100_000, 1);

    // 2. Attach the BugNet recorder: 10k-instruction checkpoint intervals,
    //    64-entry dictionary, memory-backed log region.
    let config = BugNetConfig::default().with_checkpoint_interval(10_000);
    let mut machine = MachineBuilder::new()
        .bugnet(config)
        .build_with_workload(&workload);

    // 3. Run the program under continuous recording.
    let outcome = machine.run_to_completion();
    println!("executed {} instructions", outcome.total_committed());
    println!(
        "interrupts: {}, syscalls: {}, context switches: {}",
        outcome.interrupts, outcome.syscalls, outcome.context_switches
    );

    // 4. Inspect what the hardware logged.
    let report = machine.log_report();
    println!(
        "checkpoint intervals: {}, logged first loads: {} of {} executed loads ({:.1}%)",
        report.intervals,
        report.loads_logged,
        report.loads_executed,
        report.logged_load_fraction() * 100.0
    );
    println!(
        "FLL size: {} ({:.4} bytes/instruction), MRL size: {}",
        report.fll_size,
        report.fll_bytes_per_instruction(),
        report.mrl_size
    );
    println!(
        "dictionary hit rate: {:.1}%, payload compression ratio: {:.2}x",
        report.dictionary_hit_rate() * 100.0,
        report.compression_ratio()
    );
    println!(
        "recording overhead estimate: {:.5}%",
        machine.overhead_report().overhead_percent()
    );

    // 5. Replay every retained interval from the logs alone and verify that
    //    the replay reproduces the recorded execution exactly.
    let verification = machine.replay_and_verify().expect("logs replay cleanly");
    println!(
        "replayed {} intervals covering {} instructions: {}",
        verification.intervals.len(),
        verification.instructions(),
        if verification.all_match() {
            "all deterministic ✔"
        } else {
            "MISMATCH"
        }
    );
}
