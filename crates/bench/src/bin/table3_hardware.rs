//! Table 3: on-chip hardware complexity of BugNet versus FDR.
//!
//! Usage: `cargo run --release -p bugnet_bench --bin table3_hardware`
//! (the areas are analytical, so `--paper-scale` changes nothing).

use bugnet_bench::{print_header, ExperimentOptions};
use bugnet_core::BugNetHardware;
use bugnet_fdr::FdrHardware;
use bugnet_types::BugNetConfig;

fn main() {
    // Only for its check of the arguments: the table has no scale to pick.
    ExperimentOptions::from_args();
    println!("Table 3: hardware complexity, BugNet vs FDR\n");
    let bugnet_10m =
        BugNetHardware::from_config(&BugNetConfig::default().with_target_replay_window(10_000_000));
    let bugnet_1b = BugNetHardware::from_config(
        &BugNetConfig::default().with_target_replay_window(1_000_000_000),
    );
    let fdr = FdrHardware::paper_configuration();

    print_header(&["component", "BugNet:10M", "BugNet:1B", "FDR:1B"]);
    for item in bugnet_10m.items() {
        let fdr_value = if item.name.contains("Race") {
            "32.00 KB".to_string()
        } else {
            "NIL".to_string()
        };
        println!(
            "{} | {} | {} | {}",
            item.name, item.area, item.area, fdr_value
        );
    }
    for item in fdr.items().iter().filter(|i| !i.name.contains("Race")) {
        println!("{} | NIL | NIL | {}", item.name, item.area);
    }
    println!("Checkpoint interval | 10 M instr | 10 M instr | 1/3 second");
    println!("Compression | 64-entry CAM | 64-entry CAM | LZ hardware");
    println!(
        "Total on-chip area | {} | {} | {}",
        bugnet_10m.total_area(),
        bugnet_1b.total_area(),
        fdr.total_area()
    );
    println!();
    println!("Paper values: BugNet ≈ 48 KB regardless of the replay-window length (the logs");
    println!("are memory backed), FDR ≈ 1416 KB.");
}
