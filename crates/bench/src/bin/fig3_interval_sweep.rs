//! Figure 3: total FLL size needed to replay a fixed window of execution as a
//! function of the checkpoint-interval length (10 K … 100 M in the paper).
//!
//! Usage: `cargo run --release -p bugnet_bench --bin fig3_interval_sweep [--paper-scale]`

use bugnet_bench::{format_instructions, print_header, ExperimentOptions};
use bugnet_sim::runner::record_spec_profile;
use bugnet_workloads::spec::SpecProfile;

fn main() {
    let opts = ExperimentOptions::from_args();
    // Paper: 100 M instruction window, intervals 10 K … 100 M.
    // Scaled default: 1 M instruction window, intervals 1 K … 1 M (1/100).
    let window = opts.pick(1_000_000, 100_000_000);
    let intervals: Vec<u64> = if opts.paper_scale {
        vec![10_000, 100_000, 1_000_000, 10_000_000, 100_000_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    println!(
        "Figure 3: FLL size to replay {} instructions vs checkpoint interval length\n",
        format_instructions(window)
    );
    let mut header = vec!["benchmark".to_string()];
    header.extend(intervals.iter().map(|i| format_instructions(*i)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_header(&header_refs);

    let mut averages = vec![0f64; intervals.len()];
    let profiles = SpecProfile::all();
    for profile in &profiles {
        let mut cells = vec![profile.name.to_string()];
        for (i, interval) in intervals.iter().enumerate() {
            let run = record_spec_profile(profile, window, *interval, 64);
            let size = run.report.fll_size;
            averages[i] += size.kib();
            cells.push(format!("{size}"));
        }
        println!("{}", cells.join(" | "));
    }
    let avg: Vec<String> = averages
        .iter()
        .map(|kib| format!("{:.2} KB", kib / profiles.len() as f64))
        .collect();
    println!("Avg | {}", avg.join(" | "));
    println!("\nPaper observation: FLL sizes fall monotonically as the interval grows,");
    println!("because the first-load optimization suppresses more and more repeat loads.");
}
