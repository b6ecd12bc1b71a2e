//! Table 2: log sizes — BugNet replaying 10 M and 1 B instructions versus FDR
//! replaying 1 B instructions (one second of execution).
//!
//! Usage: `cargo run --release -p bugnet_bench --bin table2_log_sizes [--paper-scale]`

use bugnet_bench::{format_instructions, print_header, ExperimentOptions};
use bugnet_fdr::FdrConfig;
use bugnet_sim::MachineBuilder;
use bugnet_types::{BugNetConfig, ByteSize};
use bugnet_workloads::spec::SpecProfile;

fn main() {
    let opts = ExperimentOptions::from_args();
    // Measure per-instruction log rates on a scaled run, then report the
    // paper's design points by extrapolation (see the README's "Paper
    // experiments" section); --paper-scale measures the 10M design point
    // directly.
    let measured_window = opts.pick(1_000_000, 10_000_000);
    let interval = opts.pick(10_000, 10_000_000);
    println!(
        "Table 2: log sizes, BugNet vs FDR (measured over {} per benchmark, interval {})\n",
        format_instructions(measured_window),
        format_instructions(interval)
    );

    let profiles = SpecProfile::all();
    let mut fll_bytes_per_instr = 0.0;
    let mut mrl_bytes = ByteSize::ZERO;
    let mut fdr_cache_log = ByteSize::ZERO;
    let mut fdr_mem_log = ByteSize::ZERO;
    let mut fdr_core_dump = ByteSize::ZERO;
    let mut measured_instructions = 0u64;
    for profile in &profiles {
        let workload = profile.build_workload(measured_window, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(
                BugNetConfig::default()
                    .with_checkpoint_interval(interval)
                    .with_fll_region(ByteSize::from_mib(512)),
            )
            .fdr(FdrConfig::default().with_checkpoint_interval(interval.saturating_mul(33)))
            .build_with_workload(&workload);
        machine.run_to_completion();
        let report = machine.log_report();
        fll_bytes_per_instr += report.fll_bytes_per_instruction();
        mrl_bytes += report.mrl_size;
        measured_instructions += report.instructions;
        if let Some(fdr) = machine.fdr_report() {
            fdr_cache_log += fdr.cache_checkpoint_log;
            fdr_mem_log += fdr.memory_checkpoint_log;
            fdr_core_dump += fdr.core_dump;
        }
    }
    let n = profiles.len() as f64;
    fll_bytes_per_instr /= n;

    let bugnet_10m = ByteSize::from_bytes((fll_bytes_per_instr * 10e6) as u64);
    let bugnet_1b = ByteSize::from_bytes((fll_bytes_per_instr * 1e9) as u64);
    let paper_race_log = ByteSize::from_mib(2);

    print_header(&["log", "BugNet:10M", "BugNet:1B", "FDR:1B"]);
    println!(
        "First-Load Log (FLL) | {bugnet_10m} | {bugnet_1b} | NIL  (paper: 225 KB / 18.86 MB / NIL)"
    );
    println!(
        "Memory Race Log | = FDR | = FDR | {paper_race_log}  (measured here: {})",
        mrl_bytes
    );
    println!(
        "Cache checkpoint log | NIL | NIL | {}  (paper: 3 MB; measured at this scale)",
        fdr_cache_log
    );
    println!(
        "Memory checkpoint log | NIL | NIL | {}  (paper: 15 MB; measured at this scale)",
        fdr_mem_log
    );
    println!("Core dump | NIL | NIL | {fdr_core_dump}  (paper: 128 MB - 1 GB)");
    println!("Interrupt / I/O / DMA logs | NIL | NIL | depends on the application");
    println!();
    println!(
        "Measured FLL rate: {:.4} bytes/instruction over {} committed instructions.",
        fll_bytes_per_instr,
        format_instructions(measured_instructions)
    );
    println!("Shape check: BugNet needs only the FLL (plus race logs for data-race debugging),");
    println!("while FDR additionally ships checkpoint logs, input logs and a core dump.");
}
