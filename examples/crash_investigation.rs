//! Crash investigation: the paper's motivating scenario, end to end through
//! a real on-disk crash dump.
//!
//! A production machine continuously records a buggy application (here: the
//! synthetic reproduction of the `gzip-1.2.4` global-buffer-overflow bug from
//! Table 1). When the program crashes, the OS writes the retained First-Load
//! Logs to a crash-dump *directory* — the portable artifact of the paper.
//! Since format v3 the dump also embeds the program image, so the developer
//! needs nothing but the directory: the replay below consults no workload
//! registry at all, and lands exactly on the faulting instruction with the
//! whole pre-crash window available. The image is code-only (code, entry,
//! stack top, symbols): replay takes every first load from the FLL, so the
//! program's initialized data never has to ship.
//!
//! Run with: `cargo run --release --example crash_investigation`

use bugnet::core::dump::CrashDump;
use bugnet::sim::{MachineBuilder, RecordingOptions};
use bugnet::types::BugNetConfig;
use bugnet::workloads::registry;

fn main() {
    let workload_spec = "bug:gzip-1.2.4:1000"; // the paper's window, 1:1
    let dump_dir = std::env::temp_dir().join("bugnet-crash-investigation");
    let _ = std::fs::remove_dir_all(&dump_dir);

    // --- Production site: continuous recording until the crash. ------------
    let workload = registry::resolve(workload_spec).expect("known workload");
    println!("deploying `{workload_spec}` with continuous recording");
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(100_000))
        .workload_spec(workload_spec)
        .recording(RecordingOptions {
            dump_on_crash: Some(dump_dir.clone()),
            ..RecordingOptions::default()
        })
        .build_with_workload(&workload);
    let outcome = machine.run_to_completion();
    let crashed = outcome.faulted_thread().expect("the defect fires");
    println!(
        "crash detected: {} at pc {} after {} instructions",
        crashed.fault.unwrap(),
        crashed.fault_pc.unwrap(),
        crashed.committed
    );

    // The OS dumped the retained logs at fault time (paper §4.8).
    let manifest = machine
        .crash_dump()
        .expect("dump attempted on fault")
        .as_ref()
        .expect("dump written");
    println!(
        "crash dump written to {}: {} checkpoint(s), {} of FLL data, \
         code-only program image embedded ({} raw)",
        dump_dir.display(),
        manifest.total_checkpoints(),
        manifest.total_fll_size(),
        manifest.total_image_size(),
    );

    // --- Developer site: nothing but the dump directory. -------------------
    // Load (checksums + structural validation). The v3 dump carries the
    // recorded binary itself, so no workload registry is consulted below —
    // every byte of the replay comes from the checksummed dump.
    let dump = CrashDump::load(&dump_dir).expect("dump is intact");
    let fault = dump.manifest.fault.as_ref().expect("fault in manifest");
    println!(
        "manifest says: {} on {} at pc {}",
        fault.description, fault.thread, fault.pc
    );
    assert!(dump.is_self_contained(), "v3 dumps embed the program image");

    // Deterministic replay from the dump alone (no registry fallback).
    let replay = dump.replay(|_| None).expect("logs replay");
    assert!(
        replay.all_match(),
        "replay diverged: {:?}",
        replay.divergences()
    );
    let last = replay.intervals.last().expect("at least one interval");
    assert_eq!(last.fault_reproduced, Some(true));
    println!(
        "replay reproduced the crash deterministically: {} instructions replayed \
         across {} interval(s), fault at the recorded pc",
        replay.instructions(),
        replay.intervals.len()
    );
    println!("determinism verified: the developer can now step backwards from the crash.");

    let _ = std::fs::remove_dir_all(&dump_dir);
}
