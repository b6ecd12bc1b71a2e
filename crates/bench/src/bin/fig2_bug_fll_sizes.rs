//! Figure 2: size of the FLLs needed to replay the window of execution that
//! captures each Table-1 bug (checkpoint interval 10 M in the paper).
//!
//! Usage: `cargo run --release -p bugnet_bench --bin fig2_bug_fll_sizes [--paper-scale]`

use bugnet_bench::{format_instructions, print_header, ExperimentOptions};
use bugnet_sim::MachineBuilder;
use bugnet_types::{BugNetConfig, ByteSize};
use bugnet_workloads::bugs::BugSpec;

fn main() {
    let opts = ExperimentOptions::from_args();
    let scale = opts.scale(0.02);
    let interval = opts.pick(100_000, 10_000_000);
    println!("Figure 2: FLL size required to replay each bug's window");
    println!(
        "(window scale = {scale}, checkpoint interval = {})\n",
        format_instructions(interval)
    );
    print_header(&[
        "program",
        "replay window",
        "FLL size",
        "records",
        "MRL size",
    ]);
    for spec in BugSpec::all() {
        let workload = spec.build(scale);
        let mut machine = MachineBuilder::new()
            .bugnet(
                BugNetConfig::default()
                    .with_checkpoint_interval(interval)
                    .with_fll_region(ByteSize::from_mib(256)),
            )
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        // The logs the OS would dump for the faulting thread are the FLLs that
        // cover the bug's replay window.
        let report = machine.log_report();
        let window = outcome
            .bug_window()
            .map(format_instructions)
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{} | {} | {} | {} | {}",
            spec.name, window, report.fll_size, report.loads_logged, report.mrl_size
        );
    }
    println!("\nPaper observation: most bugs need well under 100 KB of FLL data; only the");
    println!("programs with multi-million-instruction windows approach 1 MB.");
}
