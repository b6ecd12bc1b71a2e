//! Figure 6: FLL compression ratio achieved by the dictionary compressor for
//! different dictionary sizes (10 M checkpoint interval in the paper).
//!
//! Usage: `cargo run --release -p bugnet_bench --bin fig6_compression_ratio [--paper-scale]`

use bugnet_bench::{print_header, ExperimentOptions};
use bugnet_sim::runner::record_spec_profile;
use bugnet_workloads::spec::SpecProfile;

/// Dictionary sizes swept by the paper's Figure 6.
const DICTIONARY_SIZES: [usize; 7] = [8, 16, 32, 64, 128, 256, 1024];

fn main() {
    let opts = ExperimentOptions::from_args();
    let window = opts.pick(200_000, 100_000_000);
    let interval = opts.pick(100_000, 10_000_000);
    println!("Figure 6: FLL payload compression ratio vs dictionary size\n");
    let mut header = vec!["benchmark".to_string()];
    header.extend(DICTIONARY_SIZES.iter().map(|d| d.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_header(&header_refs);

    let profiles = SpecProfile::all();
    let mut averages = vec![0f64; DICTIONARY_SIZES.len()];
    for profile in &profiles {
        let mut cells = vec![profile.name.to_string()];
        for (i, entries) in DICTIONARY_SIZES.iter().enumerate() {
            let run = record_spec_profile(profile, window, interval, *entries);
            let ratio = run.report.compression_ratio();
            averages[i] += ratio;
            cells.push(format!("{ratio:.2}"));
        }
        println!("{}", cells.join(" | "));
    }
    let avg: Vec<String> = averages
        .iter()
        .map(|r| format!("{:.2}", r / profiles.len() as f64))
        .collect();
    println!("Avg | {}", avg.join(" | "));
    println!("\nPaper observation: the 64-entry dictionary compresses the record payload by");
    println!("roughly 1.5-2x on average; larger tables help modestly at higher CAM cost.");
}
