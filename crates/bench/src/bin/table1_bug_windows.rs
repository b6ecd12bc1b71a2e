//! Table 1: open-source programs with known bugs and the dynamic-instruction
//! distance between the root cause and the crash.
//!
//! Usage: `cargo run --release -p bugnet_bench --bin table1_bug_windows [--paper-scale]`

use bugnet_bench::{format_instructions, print_header, ExperimentOptions};
use bugnet_sim::MachineBuilder;
use bugnet_types::BugNetConfig;
use bugnet_workloads::bugs::BugSpec;

fn main() {
    let opts = ExperimentOptions::from_args();
    let scale = opts.scale(0.02);
    println!("Table 1: programs with known bugs (window scale = {scale})\n");
    print_header(&[
        "program",
        "bug location",
        "bug class",
        "paper window",
        "measured window",
        "fault",
    ]);
    for spec in BugSpec::all() {
        let workload = spec.build(scale);
        let mut machine = MachineBuilder::new()
            .bugnet(
                BugNetConfig::default().with_checkpoint_interval(opts.pick(100_000, 10_000_000)),
            )
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        let fault = outcome
            .faulted_thread()
            .and_then(|t| t.fault)
            .map(|f| f.to_string())
            .unwrap_or_else(|| "none".to_string());
        let window = outcome
            .bug_window()
            .map(format_instructions)
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{} | {} | {} | {} | {} | {}",
            spec.name,
            spec.source_location,
            spec.class.label(),
            format_instructions(spec.paper_window),
            window,
            fault
        );
    }
    println!("\nPaper observation: most bugs need a replay window below 10 M instructions;");
    println!("the measured windows above track the paper's distances at the chosen scale.");
}
