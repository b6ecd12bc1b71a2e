//! Crash-safety integration tests: the atomic-commit and salvage guarantees
//! of the dump pipeline, exercised end to end through the simulator.
//!
//! The invariants under test (the acceptance criteria of the fault-tolerant
//! dump work):
//!
//! * a failed dump write never leaves a partially-visible dump directory —
//!   the target is absent, or a complete loadable dump;
//! * a dump truncated at *any* byte offset salvages to exactly the frames
//!   whose checksums still verify, with a loss report matching the frame
//!   layout on disk, and the salvaged prefix replays cleanly;
//! * multithreaded dumps store one content-addressed image for threads
//!   sharing a program, and salvage degrades image loss to the registry
//!   fallback instead of refusing the dump;
//! * strict load and salvage read every format through the same walk, so
//!   they agree on whether a damaged dump is intact and on what it holds.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bugnet::core::dump::{CrashDump, DumpError, MANIFEST_FILE};
use bugnet::core::io::{FaultIo, FaultKind, SharedDumpIo, StdIo};
use bugnet::sim::{Machine, MachineBuilder};
use bugnet::types::{BugNetConfig, SplitMix64};
use bugnet::workloads::registry;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugnet-cs-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Records `spec` to completion and returns the machine, ready to dump.
fn recorded_machine(spec: &str, interval: u64) -> Machine {
    let workload = registry::resolve(spec).expect("spec resolves");
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(interval))
        .workload_spec(spec)
        .build_with_workload(&workload);
    machine.run_to_completion();
    machine
}

/// Frame end offsets of a dump log file: 16-byte header, then per frame a
/// 4-byte length prefix, the stored container and an 8-byte checksum. This
/// is the ground truth a truncation sweep compares salvage reports against.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 16usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 4 + len + 8;
        if end > bytes.len() {
            break;
        }
        ends.push(end);
        pos = end;
    }
    ends
}

#[test]
fn truncation_at_any_offset_salvages_exactly_the_intact_prefix() {
    let dir = temp_dir("truncate-sweep");
    let machine = recorded_machine("spec:gzip:12000:1", 2_000);
    machine.write_crash_dump(&dir).expect("dump writes");

    let fll_path = dir.join("thread-0.fll");
    let pristine = fs::read(&fll_path).unwrap();
    let ends = frame_ends(&pristine);
    assert!(ends.len() >= 4, "want several frames, got {}", ends.len());
    let total = ends.len() as u32;

    // Every 7th byte covers all positions-within-frame classes; the exact
    // frame boundaries (and their neighbours) are the interesting edges.
    let mut offsets: Vec<usize> = (0..pristine.len()).step_by(7).collect();
    offsets.extend(ends.iter().flat_map(|&e| [e - 1, e, e + 1]));
    offsets.push(pristine.len() - 1);

    for off in offsets {
        if off >= pristine.len() {
            continue;
        }
        fs::write(&fll_path, &pristine[..off]).unwrap();
        let expect = ends.iter().filter(|&&e| e <= off).count() as u32;

        // The strict loader must reject any truncation with a typed error.
        if expect < total {
            CrashDump::load(&dir).expect_err("strict load rejects truncation");
        }

        let salvaged = CrashDump::load_salvage(&dir).expect("manifest is intact");
        let report = &salvaged.report;
        let f = report
            .files
            .iter()
            .find(|f| f.file == "thread-0.fll")
            .expect("fll file reported");
        assert_eq!(f.intact_frames, expect, "offset {off}");
        if expect < total {
            assert!(f.cause.is_some(), "offset {off}: loss needs a cause");
            let bad = f.first_bad_offset.expect("loss has an offset");
            assert!(bad <= off as u64, "offset {off}: first bad byte {bad}");
        }

        // The salvaged prefix replays from the embedded image and matches
        // the recorded digests, interval for interval.
        let replay = salvaged.dump.replay(|_| None).expect("salvage replays");
        assert_eq!(replay.intervals.len() as u64, report.intact_intervals);
        // `all_match` deliberately refuses an empty replay, so only assert
        // it once at least one interval survived.
        if report.intact_intervals > 0 {
            assert!(replay.all_match(), "offset {off}");
        }
    }
    fs::write(&fll_path, &pristine).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_dump_writes_never_leave_a_partial_directory() {
    let base = temp_dir("fail-sweep");
    fs::create_dir_all(&base).unwrap();
    let dir = base.join("crash");
    let mut machine = recorded_machine("spec:gzip:8000:1", 2_000);

    // Count a clean write's ops, then re-dump over the existing directory
    // with a failure injected at every op index in turn.
    let probe = Arc::new(Mutex::new(StdIo::new()));
    machine.set_dump_io(Arc::clone(&probe) as SharedDumpIo);
    machine.write_crash_dump(&dir).expect("clean dump writes");
    let total_ops = probe.lock().unwrap().ops();

    for fail_at in 0..total_ops {
        let io = FaultIo::new(StdIo::new(), fail_at, FaultKind::Enospc);
        machine.set_dump_io(Arc::new(Mutex::new(io)) as SharedDumpIo);
        match machine.write_crash_dump(&dir) {
            Ok(_) => {
                // The injected failure landed in the best-effort staging
                // sweep; the commit itself went through.
                CrashDump::load(&dir).expect("committed dump loads");
            }
            Err(DumpError::Io { .. }) => {
                // Overwrite semantics: the old dump, the new dump, or
                // nothing — but anything visible must be complete.
                if dir.exists() {
                    CrashDump::load(&dir).expect("visible dump is complete");
                }
            }
            Err(other) => panic!("untyped failure at op {fail_at}: {other}"),
        }
        // One-shot faults never strand staging litter.
        let litter: Vec<_> = fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".staging-"))
            .collect();
        assert!(litter.is_empty(), "op {fail_at}: {litter:?}");
    }
    fs::remove_dir_all(&base).unwrap();
}

#[test]
fn mt_dumps_share_one_image_and_salvage_its_loss() {
    let dir = temp_dir("mt-image");
    let machine = recorded_machine("mt:racy_counter:2:400", 5_000);
    machine.write_crash_dump(&dir).expect("dump writes");

    // Both threads run the same program, so exactly one content-addressed
    // image file lands on disk.
    let images: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with("image-") && name.ends_with(".bni")
        })
        .collect();
    assert_eq!(images.len(), 1, "{images:?}");

    let dump = CrashDump::load(&dir).unwrap();
    assert!(dump.is_self_contained());
    let p0 = dump.embedded_program(bugnet::types::ThreadId(0)).unwrap();
    let p1 = dump.embedded_program(bugnet::types::ThreadId(1)).unwrap();
    assert!(Arc::ptr_eq(p0, p1), "shared image must be loaded once");

    // Corrupt the shared image: the strict loader refuses, salvage degrades
    // both threads to the registry fallback and the logs replay unharmed.
    let mut bytes = fs::read(&images[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&images[0], &bytes).unwrap();

    CrashDump::load(&dir).expect_err("strict load rejects a damaged image");
    let salvaged = CrashDump::load_salvage(&dir).expect("salvage survives");
    assert_eq!(salvaged.report.lost_images, 1);
    assert!(salvaged.report.intact_intervals > 0);
    assert!(!salvaged.dump.is_self_contained());

    let workload = registry::resolve("mt:racy_counter:2:400").unwrap();
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    let replay = salvaged
        .dump
        .replay(|t: bugnet::types::ThreadId| programs.get(t.0 as usize).cloned())
        .expect("registry fallback replays");
    assert!(replay.all_match());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn orphaned_staging_directories_are_swept_by_the_next_dump() {
    let base = temp_dir("orphan-sweep");
    let dir = base.join("crash");
    let orphan = base.join("crash.staging-deadbeef-1");
    fs::create_dir_all(&orphan).unwrap();
    fs::write(orphan.join("manifest.bnd"), b"torn").unwrap();

    let machine = recorded_machine("spec:gzip:8000:1", 2_000);
    machine.write_crash_dump(&dir).expect("dump writes");
    assert!(!orphan.exists(), "orphan must be swept before the commit");
    CrashDump::load(&dir).unwrap();
    fs::remove_dir_all(&base).unwrap();
}

/// The dump file a load error names.
fn blamed_file(err: &DumpError) -> String {
    match err {
        DumpError::Io { path, .. } => Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
        DumpError::BadMagic { file }
        | DumpError::UnsupportedVersion { file, .. }
        | DumpError::Truncated { file }
        | DumpError::TrailingBytes { file }
        | DumpError::ChecksumMismatch { file, .. }
        | DumpError::CorruptLog { file, .. }
        | DumpError::Inconsistent { file, .. } => file.clone(),
        DumpError::CorruptManifest { .. } => MANIFEST_FILE.into(),
        DumpError::NoRecorder => panic!("a load never needs a recorder"),
    }
}

/// Checks the one-reader invariant on the dump in `dir`: strict load
/// succeeds exactly when salvage reports it clean, and then both return the
/// same dump; when load fails, salvage marks the file load blames as
/// damaged, unless both fail on the manifest.
fn assert_load_and_salvage_agree(dir: &Path, case: &str) {
    let strict = CrashDump::load(dir);
    let salvaged = match CrashDump::load_salvage(dir) {
        Ok(salvaged) => salvaged,
        Err(salvage_err) => {
            let err = strict.expect_err("salvage failed, so strict load must fail too");
            assert_eq!(
                blamed_file(&err),
                MANIFEST_FILE,
                "{case}: {err} / {salvage_err}"
            );
            return;
        }
    };
    match strict {
        Ok(dump) => {
            assert!(
                salvaged.report.is_clean(),
                "{case}: load succeeded but salvage lost data: {:?}",
                salvaged.report
            );
            assert!(dump == salvaged.dump, "{case}: load and salvage disagree");
        }
        Err(err) => {
            assert!(
                !salvaged.report.is_clean(),
                "{case}: load failed ({err}) but salvage reports the dump clean"
            );
            let file = blamed_file(&err);
            let account = salvaged.report.files.iter().find(|f| f.file == file);
            assert!(
                account.is_some_and(|f| !f.is_clean()),
                "{case}: load blames {file} ({err}) but salvage reports it intact"
            );
        }
    }
}

#[test]
fn strict_load_and_salvage_agree_on_every_format() {
    let mut rng = SplitMix64::new(0xA6_4EE5);
    for version in 1..=5 {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/golden-v{version}"));
        let dir = temp_dir(&format!("agree-v{version}"));
        fs::create_dir_all(&dir).unwrap();
        let mut names: Vec<_> = fs::read_dir(&fixture)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        for name in &names {
            fs::copy(fixture.join(name), dir.join(name)).unwrap();
        }
        assert_load_and_salvage_agree(&dir, &format!("v{version} pristine"));
        for name in &names {
            let path = dir.join(name);
            let original = fs::read(&path).unwrap();
            let name = name.to_string_lossy();
            for _ in 0..32 {
                let bit = rng.next_range(original.len() as u64 * 8);
                let mut flipped = original.clone();
                flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
                fs::write(&path, &flipped).unwrap();
                assert_load_and_salvage_agree(&dir, &format!("v{version} {name} bit {bit}"));
            }
            for _ in 0..8 {
                let cut = rng.next_range(original.len() as u64) as usize;
                fs::write(&path, &original[..cut]).unwrap();
                assert_load_and_salvage_agree(&dir, &format!("v{version} {name} cut {cut}"));
            }
            fs::write(&path, &original).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
