//! Golden-dump compatibility tests: small dumps in every supported format
//! (v1 to v5) are committed to the repository, and these tests prove the
//! current tree still loads, verifies and replays them. Only v5 is still
//! written, so these bytes are the only v1–v4 dumps there are. Format work
//! (v6 and whatever comes after) can therefore never silently break
//! loading of old dumps — the failure shows up here, in CI, against bytes
//! that predate the change.

use std::path::{Path, PathBuf};

use bugnet::core::dump::{
    verify_dump, CrashDump, DUMP_VERSION_V1, DUMP_VERSION_V2, DUMP_VERSION_V3, DUMP_VERSION_V4,
    DUMP_VERSION_V5,
};
use bugnet::types::{BugNetConfig, ThreadId};
use bugnet::workloads::registry;

/// Workload and recorder parameters the committed fixtures were written with.
const GOLDEN_SPEC: &str = "spec:gzip:8000:1";
const GOLDEN_INTERVAL: u64 = 2_000;

fn fixture_dir_v1() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-v1")
}

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
    regenerate(&out);
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

/// The five fixtures are one recording (GOLDEN_SPEC, interval
/// GOLDEN_INTERVAL) written in each format, so they must agree on
/// everything but their layout: the decoded logs, the recorded digests and
/// the replay, interval for interval. v1 and v2 carry no image and replay
/// through the registry fallback; v3 to v5 replay from their embedded
/// images. Each format change also had to pay for itself on disk: the v2
/// codec layer shrank v1, and the v5 columnar frames shrank v4.
#[test]
fn all_five_formats_decode_and_replay_identically() {
    let dirs = [
        fixture_dir_v1(),
        fixture_dir(),
        fixture_dir_v3(),
        fixture_dir_v4(),
        fixture_dir_v5(),
    ];
    let dumps: Vec<CrashDump> = dirs
        .iter()
        .map(|dir| CrashDump::load(dir).expect("golden dump loads"))
        .collect();
    let versions: Vec<u32> = dumps.iter().map(|d| d.manifest.version).collect();
    assert_eq!(
        versions,
        [
            DUMP_VERSION_V1,
            DUMP_VERSION_V2,
            DUMP_VERSION_V3,
            DUMP_VERSION_V4,
            DUMP_VERSION_V5
        ]
    );
    let workload = registry::resolve(GOLDEN_SPEC).expect("spec resolves");
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    let v5 = &dumps[4];
    let reference = v5.replay(|_| None).expect("v5 replays");
    assert!(reference.all_match(), "{:?}", reference.divergences());
    for (dump, dir) in dumps.iter().zip(&dirs) {
        let name = dir.display();
        assert_eq!(dump.manifest.workload, GOLDEN_SPEC, "{name}");
        assert_eq!(dump.threads.len(), v5.threads.len(), "{name}");
        for (t, t5) in dump.threads.iter().zip(&v5.threads) {
            assert_eq!(t.checkpoints, t5.checkpoints, "{name}: decoded logs differ");
        }
        for (m, m5) in dump.manifest.threads.iter().zip(&v5.manifest.threads) {
            assert_eq!(m.digests, m5.digests, "{name}: recorded digests differ");
        }
        let embedded = dump.manifest.version >= DUMP_VERSION_V3;
        assert_eq!(dump.is_self_contained(), embedded, "{name}");
        let replay = dump
            .replay(|t: ThreadId| programs.get(t.0 as usize).cloned())
            .expect("golden dump replays");
        assert_eq!(replay, reference, "{name}: replay reports differ");
    }
    let size = |dir: &Path| -> u64 {
        std::fs::read_dir(dir)
            .expect("fixture lists")
            .map(|e| e.expect("entry").metadata().expect("metadata").len())
            .sum()
    };
    let (v1, v2) = (size(&dirs[0]), size(&dirs[1]));
    assert!(v1 > v2, "v1 ({v1} bytes) must be larger than v2 ({v2})");
    let (v4, v5) = (size(&dirs[3]), size(&dirs[4]));
    assert!(v4 > v5, "v4 ({v4} bytes) must be larger than v5 ({v5})");
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
    regenerate(&fixture_dir_v5());
}

/// Records [`GOLDEN_SPEC`] and writes its dump into `dir`.
fn regenerate(dir: &Path) {
    use bugnet::sim::MachineBuilder;
    let workload = registry::resolve(GOLDEN_SPEC).unwrap();
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(GOLDEN_INTERVAL))
        .workload_spec(GOLDEN_SPEC)
        .build_with_workload(&workload);
    machine.run_to_completion();
    let manifest = machine.write_crash_dump(dir).unwrap();
    println!(
        "wrote golden v5 fixture to {}: {} checkpoint(s)",
        dir.display(),
        manifest.total_checkpoints()
    );
}
