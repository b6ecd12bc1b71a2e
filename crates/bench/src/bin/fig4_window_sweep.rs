//! Figure 4: total FLL size needed to replay windows of 10 M, 100 M and 1 B
//! instructions (checkpoint interval fixed at 10 M in the paper).
//!
//! Usage: `cargo run --release -p bugnet_bench --bin fig4_window_sweep [--paper-scale]`

use bugnet_bench::{format_instructions, print_header, ExperimentOptions};
use bugnet_sim::runner::record_spec_profile;
use bugnet_workloads::spec::SpecProfile;

fn main() {
    let opts = ExperimentOptions::from_args();
    // Paper: windows 10 M / 100 M / 1 B with a 10 M interval.
    // Scaled default: windows 10 K / 100 K / 1 M with a 10 K interval (1/1000).
    let (windows, interval): (Vec<u64>, u64) = if opts.paper_scale {
        (vec![10_000_000, 100_000_000, 1_000_000_000], 10_000_000)
    } else {
        (vec![10_000, 100_000, 1_000_000], 10_000)
    };
    println!(
        "Figure 4: FLL size vs replay-window length (interval = {})\n",
        format_instructions(interval)
    );
    let mut header = vec!["benchmark".to_string()];
    header.extend(windows.iter().map(|w| format_instructions(*w)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_header(&header_refs);

    let profiles = SpecProfile::all();
    let mut averages = vec![0f64; windows.len()];
    for profile in &profiles {
        let mut cells = vec![profile.name.to_string()];
        for (i, window) in windows.iter().enumerate() {
            let run = record_spec_profile(profile, *window, interval, 64);
            averages[i] += run.report.fll_size.kib();
            cells.push(run.report.fll_size.to_string());
        }
        println!("{}", cells.join(" | "));
    }
    let avg: Vec<String> = averages
        .iter()
        .map(|kib| format!("{:.2} KB", kib / profiles.len() as f64))
        .collect();
    println!("Avg | {}", avg.join(" | "));
    println!("\nPaper observation: on average ~225 KB of FLL replays 10 M instructions and");
    println!("~18.9 MB replays 1 B; sizes grow roughly linearly with the window length.");
}
