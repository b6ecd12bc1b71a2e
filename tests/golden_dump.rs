//! Golden-dump compatibility tests: small dumps in every supported format
//! (v1 to v5) are committed to the repository, and these tests prove the
//! current tree still loads, verifies and replays them. Only v5 is still
//! written, so these bytes are the only v1–v4 dumps there are. Format work
//! (v6 and whatever comes after) can therefore never silently break
//! loading of old dumps — the failure shows up here, in CI, against bytes
//! that predate the change.
//!
//! v5 has two fixtures of the same recording. `golden-v5` embeds the full
//! program image, data segments included, as the writer did before dumps
//! became code-only; it is load-only now, like v1–v4.
//! `golden-v5-code-only` is what today's writer produces, byte for byte.

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

fn fixture_dir_v5_code_only() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-v5-code-only")
}

/// Total bytes of the files in a dump directory.
fn dir_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("fixture lists")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum()
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

    // `verify_dump` is `Ok` only when every first-load record decodes.
    let verified = verify_dump(&dir).expect("golden v2 dump verifies");
    let checkpoints = verified.manifest.total_checkpoints();
    assert!(checkpoints >= 4, "checkpoints = {checkpoints}");
    assert_eq!(
        verified.manifest.embedded_images(),
        0,
        "v2 dumps embed no images"
    );

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

    // `verify_dump` is `Ok` only when every first-load record decodes.
    let verified = verify_dump(&dir).expect("golden v3 dump verifies");
    let checkpoints = verified.manifest.total_checkpoints();
    assert!(checkpoints >= 4, "checkpoints = {checkpoints}");
    assert!(
        verified.manifest.embedded_images() >= 1,
        "v3 dumps embed one image per thread"
    );

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

    // `verify_dump` is `Ok` only when every first-load record decodes.
    let verified = verify_dump(&dir).expect("golden v4 dump verifies");
    let checkpoints = verified.manifest.total_checkpoints();
    assert!(checkpoints >= 4, "checkpoints = {checkpoints}");
    assert!(
        verified.manifest.embedded_images() >= 1,
        "v4 dumps embed program images"
    );

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
        "fixture missing at {} — restore it from version control; today's \
         writer no longer produces it",
        dir.display()
    );

    // `verify_dump` is `Ok` only when every first-load record decodes.
    let verified = verify_dump(&dir).expect("golden v5 dump verifies");
    let checkpoints = verified.manifest.total_checkpoints();
    assert!(checkpoints >= 4, "checkpoints = {checkpoints}");
    assert!(
        verified.manifest.embedded_images() >= 1,
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

/// The v5 writer still produces the committed code-only fixture byte for
/// byte, so a change to the seal, the codec or the dump layout that moves
/// any output byte fails here. (The v4 fixture is load-only: its image was
/// recorded before a later workload change, so today's writer cannot
/// reproduce it. `golden-v5` is load-only too: it embeds the full image.)
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
    let fixture = fixture_dir_v5_code_only();
    assert!(
        fixture.join("manifest.bnd").exists(),
        "fixture missing at {} — run `cargo test --test golden_dump -- \
         --ignored regenerate_golden_fixture_v5_code_only` to create it",
        fixture.display()
    );
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
    let (v1, v2) = (dir_size(&dirs[0]), dir_size(&dirs[1]));
    assert!(v1 > v2, "v1 ({v1} bytes) must be larger than v2 ({v2})");
    let (v4, v5) = (dir_size(&dirs[3]), dir_size(&dirs[4]));
    assert!(v4 > v5, "v4 ({v4} bytes) must be larger than v5 ({v5})");
}

/// The two v5 fixtures are one recording, with and without the data
/// segments in its image. Only the image may differ: the log files are
/// byte-identical, decode to the same logs with the same recorded digests,
/// and both replay from their embedded image to the same report, because
/// replay takes every first load from the FLL and never reads the data.
#[test]
fn code_only_fixture_replays_like_the_full_image_fixture() {
    let (full_dir, code_only_dir) = (fixture_dir_v5(), fixture_dir_v5_code_only());
    for name in ["thread-0.fll", "thread-0.mrl"] {
        let full = std::fs::read(full_dir.join(name)).expect("fixture file reads");
        let code_only = std::fs::read(code_only_dir.join(name)).expect("fixture file reads");
        assert!(full == code_only, "{name} differs between the v5 fixtures");
    }
    let full = CrashDump::load(&full_dir).expect("golden v5 dump loads");
    let code_only = CrashDump::load(&code_only_dir).expect("code-only v5 dump loads");
    assert_eq!(code_only.manifest.version, DUMP_VERSION_V5);
    assert_eq!(code_only.manifest.workload, GOLDEN_SPEC);
    assert_eq!(code_only.threads.len(), full.threads.len());
    for (t, tf) in code_only.threads.iter().zip(&full.threads) {
        assert_eq!(t.checkpoints, tf.checkpoints, "decoded logs differ");
        let image = t.image.as_deref().expect("code-only image embedded");
        let full_image = tf.image.as_deref().expect("full image embedded");
        assert!(image.data().is_empty(), "code-only image carries data");
        assert!(!full_image.data().is_empty());
        assert_eq!(image, &full_image.without_data());
    }
    for (m, mf) in code_only
        .manifest
        .threads
        .iter()
        .zip(&full.manifest.threads)
    {
        assert_eq!(m.digests, mf.digests, "recorded digests differ");
    }
    let reference = full.replay(|_| None).expect("golden v5 dump replays");
    assert!(reference.all_match(), "{:?}", reference.divergences());
    let replay = code_only.replay(|_| None).expect("code-only dump replays");
    assert_eq!(replay, reference, "replay reports differ");
    let (full_size, code_only_size) = (dir_size(&full_dir), dir_size(&code_only_dir));
    assert!(
        code_only_size < full_size,
        "code-only ({code_only_size} bytes) must be smaller than full ({full_size})"
    );
}

/// Writes the code-only v5 fixture. v5 is the current default format;
/// regenerate only on an *intentional* v5 change, alongside a version bump
/// discussion. `golden-v5` is never rewritten.
///
/// `bugnet info` prints each columnar stream's raw and stored bytes from
/// the v5 frames' own stream headers ([`ThreadDump::fll_streams`]). Sealing
/// is deterministic, so re-sealing the loaded logs, as `info` once did to
/// get them, must give the same sizes, stream for stream and thread for
/// thread: on both v5 fixtures and on fresh gzip, mcf and two-thread dumps.
#[test]
fn frame_stream_sizes_equal_a_reseal_of_the_loaded_logs() {
    use bugnet::compress::streams_info;
    use bugnet::core::columnar::{encode_fll_columnar, encode_mrl_columnar, LOG_STREAMS};
    use bugnet::core::dump::StreamSize;
    use bugnet::sim::MachineBuilder;

    let base = std::env::temp_dir().join(format!("bugnet-stream-sizes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut dirs = vec![fixture_dir_v5(), fixture_dir_v5_code_only()];
    for (i, spec) in [
        "spec:gzip:30000:1",
        "spec:mcf:200000:1",
        "mt:racy_counter:2:400",
    ]
    .into_iter()
    .enumerate()
    {
        let workload = registry::resolve(spec).unwrap();
        let mut machine = MachineBuilder::new()
            .bugnet(BugNetConfig::default().with_checkpoint_interval(20_000))
            .workload_spec(spec)
            .build_with_workload(&workload);
        machine.run_to_completion();
        let dir = base.join(i.to_string());
        machine.write_crash_dump(&dir).unwrap();
        dirs.push(dir);
    }
    for dir in &dirs {
        let dump = CrashDump::load(dir).unwrap();
        let codec = dump.manifest.codec;
        for t in &dump.threads {
            let mut fll = [StreamSize::default(); LOG_STREAMS];
            let mut mrl = [StreamSize::default(); LOG_STREAMS];
            for cp in &t.checkpoints {
                for (sums, blob) in [
                    (&mut fll, encode_fll_columnar(codec, &cp.fll)),
                    (&mut mrl, encode_mrl_columnar(codec, &cp.mrl)),
                ] {
                    for info in streams_info(&blob).unwrap() {
                        let sum = &mut sums[usize::from(info.id)];
                        sum.raw += u64::from(info.raw_len);
                        sum.stored += u64::from(info.stored_len);
                    }
                }
            }
            let at = format!("{} {}", dir.display(), t.thread);
            assert!(
                fll[0].stored > 0 && mrl[0].stored > 0,
                "{at}: no meta stream"
            );
            assert_eq!(t.fll_streams, fll, "{at}");
            assert_eq!(t.mrl_streams, mrl, "{at}");
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// ```text
/// cargo test --test golden_dump -- --ignored regenerate_golden_fixture_v5_code_only
/// ```
#[test]
#[ignore = "writes the committed fixture; run manually"]
fn regenerate_golden_fixture_v5_code_only() {
    regenerate(&fixture_dir_v5_code_only());
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
        "wrote golden v5 code-only fixture to {}: {} checkpoint(s)",
        dir.display(),
        manifest.total_checkpoints()
    );
}
