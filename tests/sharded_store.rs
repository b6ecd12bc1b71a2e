//! Differential tests for sharded multi-core recording: whatever the shard
//! count and flush-worker count, the recorded content — and therefore the
//! dump and its replay digests — must be exactly what serial recording
//! produces. Shards and workers are resource knobs, never semantic ones.

use std::fs;
use std::path::{Path, PathBuf};

use bugnet::core::digest::ExecutionDigest;
use bugnet::core::dump::CrashDump;
use bugnet::sim::{MachineBuilder, RecordingOptions};
use bugnet::types::{BugNetConfig, ThreadId};
use bugnet::workloads::registry;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugnet-shardtest-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Records `spec` with the given recording options and archives the run.
fn record_and_dump(spec: &str, interval: u64, opts: RecordingOptions, dir: &Path) -> CrashDump {
    let workload = registry::resolve(spec).unwrap();
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(interval))
        .workload_spec(spec)
        .recording(opts)
        .build_with_workload(&workload);
    machine.run_to_completion();
    machine.write_crash_dump(dir).expect("dump writes");
    CrashDump::load(dir).expect("dump loads")
}

/// Every recorded per-interval digest, keyed by thread, oldest first.
fn recorded_digests(dump: &CrashDump) -> Vec<(ThreadId, Vec<ExecutionDigest>)> {
    dump.manifest
        .threads
        .iter()
        .map(|t| (t.thread, t.digests.clone()))
        .collect()
}

#[test]
fn sharded_recording_replays_digest_identical_to_serial() {
    // The racy multithreaded kernel (real cross-thread MRL traffic) and a
    // single-threaded gzip run, per the scale-out acceptance criteria.
    for (name, spec, interval) in [
        ("racy", "mt:racy_counter:2:400", 1_000),
        ("gzip", "spec:gzip:30000:1", 5_000),
    ] {
        let serial_dir = temp_dir(&format!("{name}-serial"));
        let sharded_dir = temp_dir(&format!("{name}-sharded"));
        let serial = record_and_dump(spec, interval, RecordingOptions::default(), &serial_dir);
        let sharded = record_and_dump(
            spec,
            interval,
            RecordingOptions {
                flush_workers: 3,
                store_shards: 4,
                ..RecordingOptions::default()
            },
            &sharded_dir,
        );

        // The recorded digests are identical interval by interval...
        assert!(!recorded_digests(&serial).is_empty());
        assert_eq!(
            recorded_digests(&serial),
            recorded_digests(&sharded),
            "{spec}: sharded recording changed the recorded digests"
        );
        // ...and both dumps replay clean against those digests
        // (self-contained v4 dumps need no registry fallback).
        for (kind, dump) in [("serial", &serial), ("sharded", &sharded)] {
            let report = dump.replay(|_| None).expect("replay runs");
            assert!(
                report.all_match(),
                "{spec}/{kind}: {:?}",
                report.divergences()
            );
        }

        fs::remove_dir_all(&serial_dir).unwrap();
        fs::remove_dir_all(&sharded_dir).unwrap();
    }
}

#[test]
fn shard_count_does_not_change_the_recording() {
    // 2-shard and 8-shard recordings of the same workload: equal
    // per-interval digests, and in fact byte-identical dump directories.
    let spec = "mt:racy_counter:2:400";
    let dir2 = temp_dir("shards-2");
    let dir8 = temp_dir("shards-8");
    let opts = |shards: usize| RecordingOptions {
        flush_workers: 2,
        store_shards: shards,
        ..RecordingOptions::default()
    };
    let two = record_and_dump(spec, 1_000, opts(2), &dir2);
    let eight = record_and_dump(spec, 1_000, opts(8), &dir8);

    assert!(!recorded_digests(&two).is_empty());
    assert_eq!(recorded_digests(&two), recorded_digests(&eight));

    let mut names: Vec<String> = fs::read_dir(&dir2)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for file in &names {
        let a = fs::read(dir2.join(file)).unwrap();
        let b = fs::read(dir8.join(file)).unwrap();
        assert_eq!(a, b, "{file} differs between 2-shard and 8-shard dumps");
    }

    fs::remove_dir_all(&dir2).unwrap();
    fs::remove_dir_all(&dir8).unwrap();
}
