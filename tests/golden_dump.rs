//! Golden-dump compatibility tests: small dumps in every supported format
//! (v2, v3, v4 and v5) are committed to the repository, and these tests
//! prove the current tree still loads, verifies and replays them. Format
//! work (v6 and whatever comes after) can therefore never silently break
//! loading of old dumps — the failure shows up here, in CI, against bytes
//! that predate the change.

use std::path::PathBuf;

use bugnet::core::dump::{
    verify_dump, CrashDump, DumpFormat, DumpOptions, DUMP_VERSION_V2, DUMP_VERSION_V3,
    DUMP_VERSION_V4, DUMP_VERSION_V5,
};
use bugnet::types::{BugNetConfig, ThreadId};
use bugnet::workloads::registry;

/// Workload and recorder parameters the committed fixtures were written with.
const GOLDEN_SPEC: &str = "spec:gzip:8000:1";
const GOLDEN_INTERVAL: u64 = 2_000;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-v2")
}

fn fixture_dir_v3() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-v3")
}

fn fixture_dir_v4() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-v4")
}

fn fixture_dir_v5() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-v5")
}

#[test]
fn committed_v2_dump_still_loads_verifies_and_replays() {
    let dir = fixture_dir();
    assert!(
        dir.join("manifest.bnd").exists(),
        "fixture missing at {} — run `cargo test --test golden_dump -- \
         --ignored regenerate_golden_fixture` to create it",
        dir.display()
    );

    let report = verify_dump(&dir).expect("golden v2 dump verifies");
    assert!(
        report.checkpoints >= 4,
        "checkpoints = {}",
        report.checkpoints
    );
    assert_eq!(report.records, report.records_decoded);
    assert_eq!(report.images, 0, "v2 dumps embed no images");

    let dump = CrashDump::load(&dir).expect("golden v2 dump loads");
    assert_eq!(dump.manifest.version, DUMP_VERSION_V2);
    assert_eq!(dump.manifest.workload, GOLDEN_SPEC);
    assert!(!dump.is_self_contained());

    // v2 dumps replay via the registry fallback; the digests recorded in
    // the committed manifest must still match a replay on today's tree.
    let workload = registry::resolve(&dump.manifest.workload).expect("spec resolves");
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    let replay = dump
        .replay(|t: ThreadId| programs.get(t.0 as usize).cloned())
        .expect("golden dump replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
}

#[test]
fn committed_v3_dump_still_loads_verifies_and_replays() {
    let dir = fixture_dir_v3();
    assert!(
        dir.join("manifest.bnd").exists(),
        "fixture missing at {} — run `cargo test --test golden_dump -- \
         --ignored regenerate_golden_fixture_v3` to create it",
        dir.display()
    );

    let report = verify_dump(&dir).expect("golden v3 dump verifies");
    assert!(
        report.checkpoints >= 4,
        "checkpoints = {}",
        report.checkpoints
    );
    assert_eq!(report.records, report.records_decoded);
    assert!(report.images >= 1, "v3 dumps embed one image per thread");

    let dump = CrashDump::load(&dir).expect("golden v3 dump loads");
    assert_eq!(dump.manifest.version, DUMP_VERSION_V3);
    assert_eq!(dump.manifest.workload, GOLDEN_SPEC);
    assert!(dump.is_self_contained());

    // v3 dumps are self-contained: the embedded image replays the digests
    // recorded in the committed manifest, no workload registry needed.
    let replay = dump
        .replay(|_: ThreadId| None)
        .expect("golden dump replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
}

#[test]
fn committed_v4_dump_still_loads_verifies_and_replays() {
    let dir = fixture_dir_v4();
    assert!(
        dir.join("manifest.bnd").exists(),
        "fixture missing at {} — run `cargo test --test golden_dump -- \
         --ignored regenerate_golden_fixture_v4` to create it",
        dir.display()
    );

    let report = verify_dump(&dir).expect("golden v4 dump verifies");
    assert!(
        report.checkpoints >= 4,
        "checkpoints = {}",
        report.checkpoints
    );
    assert_eq!(report.records, report.records_decoded);
    assert!(report.images >= 1, "v4 dumps embed program images");

    let dump = CrashDump::load(&dir).expect("golden v4 dump loads");
    assert_eq!(dump.manifest.version, DUMP_VERSION_V4);
    assert_eq!(dump.manifest.workload, GOLDEN_SPEC);
    assert!(dump.is_self_contained());

    // v4 dumps are self-contained: the embedded image replays the digests
    // recorded in the committed manifest, no workload registry needed.
    let replay = dump
        .replay(|_: ThreadId| None)
        .expect("golden dump replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
}

#[test]
fn committed_v5_dump_still_loads_verifies_and_replays() {
    let dir = fixture_dir_v5();
    assert!(
        dir.join("manifest.bnd").exists(),
        "fixture missing at {} — run `cargo test --test golden_dump -- \
         --ignored regenerate_golden_fixture_v5` to create it",
        dir.display()
    );

    let report = verify_dump(&dir).expect("golden v5 dump verifies");
    assert!(
        report.checkpoints >= 4,
        "checkpoints = {}",
        report.checkpoints
    );
    assert_eq!(report.records, report.records_decoded);
    assert!(
        report.images >= 1,
        "v5 dumps embed content-addressed images"
    );

    let dump = CrashDump::load(&dir).expect("golden v5 dump loads");
    assert_eq!(dump.manifest.version, DUMP_VERSION_V5);
    assert_eq!(dump.manifest.workload, GOLDEN_SPEC);
    assert!(dump.is_self_contained());

    // v5 dumps are self-contained: the columnar streams decode and the
    // embedded image replays the digests recorded in the committed
    // manifest, no workload registry needed.
    let replay = dump
        .replay(|_: ThreadId| None)
        .expect("golden dump replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
}

/// The v5 writer still produces the committed fixture byte for byte, so a
/// change to the seal, the codec or the dump layout that moves any output
/// byte fails here. (The v4 fixture is load-only: its image was recorded
/// before a later workload change, so today's writer cannot reproduce it.)
#[test]
fn v5_writer_reproduces_the_committed_fixture() {
    let out = std::env::temp_dir().join(format!("bugnet-golden-v5-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    regenerate(DumpFormat::V5, &out);
    let names = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .expect("dump directory lists")
            .map(|e| e.expect("directory entry").file_name())
            .collect();
        names.sort();
        names
    };
    let fixture = fixture_dir_v5();
    assert_eq!(names(&out), names(&fixture), "file sets differ");
    for name in names(&fixture) {
        let written = std::fs::read(out.join(&name)).expect("written file reads");
        let committed = std::fs::read(fixture.join(&name)).expect("fixture file reads");
        assert!(
            written == committed,
            "{}: {} bytes written, {} committed, first difference at byte {:?}",
            name.to_string_lossy(),
            written.len(),
            committed.len(),
            written.iter().zip(&committed).position(|(a, b)| a != b)
        );
    }
    std::fs::remove_dir_all(&out).expect("temp dump removes");
}

/// Writes the v2 fixture. Run manually (once, or after an *intentional*
/// format-v2 change, which should be impossible — v2 is frozen):
///
/// ```text
/// cargo test --test golden_dump -- --ignored regenerate_golden_fixture
/// ```
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_golden_fixture() {
    regenerate(DumpFormat::V2, &fixture_dir());
}

/// Writes the v3 fixture. Same rules as the v2 one: v3 bytes are frozen.
///
/// ```text
/// cargo test --test golden_dump -- --ignored regenerate_golden_fixture_v3
/// ```
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_golden_fixture_v3() {
    regenerate(DumpFormat::V3, &fixture_dir_v3());
}

/// Writes the v4 fixture. Same rules as the v2 one: v4 bytes are frozen.
///
/// ```text
/// cargo test --test golden_dump -- --ignored regenerate_golden_fixture_v4
/// ```
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_golden_fixture_v4() {
    regenerate(DumpFormat::V4, &fixture_dir_v4());
}

/// Writes the v5 fixture. v5 is the current default format; regenerate only
/// on an *intentional* v5 change, alongside a version bump discussion.
///
/// ```text
/// cargo test --test golden_dump -- --ignored regenerate_golden_fixture_v5
/// ```
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_golden_fixture_v5() {
    regenerate(DumpFormat::V5, &fixture_dir_v5());
}

/// Records [`GOLDEN_SPEC`] and writes its dump in `format` into `dir`.
fn regenerate(format: DumpFormat, dir: &std::path::Path) {
    use bugnet::sim::MachineBuilder;
    let workload = registry::resolve(GOLDEN_SPEC).unwrap();
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(GOLDEN_INTERVAL))
        .workload_spec(GOLDEN_SPEC)
        .build_with_workload(&workload);
    machine.run_to_completion();
    let manifest = machine
        .write_crash_dump_with(
            dir,
            &DumpOptions {
                format,
                ..DumpOptions::default()
            },
        )
        .unwrap();
    println!(
        "wrote golden {format:?} fixture to {}: {} checkpoint(s)",
        dir.display(),
        manifest.total_checkpoints()
    );
}
