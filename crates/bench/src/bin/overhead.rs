//! §6.3: recording overhead of BugNet (the paper reports < 0.01% for SPEC).
//!
//! Usage: `cargo run --release -p bugnet_bench --bin overhead [--paper-scale]`

use bugnet_bench::{format_instructions, print_header, ExperimentOptions};
use bugnet_sim::runner::record_spec_profile;
use bugnet_workloads::spec::SpecProfile;

fn main() {
    let opts = ExperimentOptions::from_args();
    let window = opts.pick(500_000, 100_000_000);
    let interval = opts.pick(50_000, 10_000_000);
    println!(
        "Recording overhead, {} instructions per benchmark (interval {})\n",
        format_instructions(window),
        format_instructions(interval)
    );
    print_header(&[
        "benchmark",
        "log bytes/instr",
        "idle-bus drain bytes/instr",
        "overhead",
    ]);
    let mut worst: f64 = 0.0;
    for profile in SpecProfile::all() {
        let run = record_spec_profile(&profile, window, interval, 64);
        let o = run.overhead;
        worst = worst.max(o.overhead_percent());
        println!(
            "{} | {:.4} | {:.2} | {:.4}%",
            profile.name,
            o.log_bytes_per_instruction,
            o.drain_bytes_per_instruction,
            o.overhead_percent()
        );
    }
    println!("\nWorst case overhead: {worst:.4}% (paper: < 0.01% — the lazily-drained,");
    println!("incrementally-compressed logs fit comfortably in idle memory-bus bandwidth).");
}
