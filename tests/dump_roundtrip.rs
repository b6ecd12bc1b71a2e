//! End-to-end tests of the on-disk crash-dump workflow, including the
//! corruption guarantee: *any* bit flip or truncation in *any* dump file
//! must surface as a typed [`DumpError`] — never a panic and never a replay
//! of wrong data.

use std::fs;
use std::path::{Path, PathBuf};

use bugnet::core::digest::ExecutionDigest;
use bugnet::core::dump::{
    verify_dump, CrashDump, DumpError, ProgramSource, ReplayRequest, DUMP_VERSION_V1,
    DUMP_VERSION_V4, DUMP_VERSION_V5,
};
use bugnet::sim::{Machine, MachineBuilder, RecordingOptions};
use bugnet::telemetry::Probe;
use bugnet::types::{BugNetConfig, CheckpointId, SplitMix64, ThreadId};
use bugnet::workloads::registry;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bugnet-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Records `spec` on the simulated machine, dumps the retained window and
/// returns the machine, whose log store still holds that window.
fn record_dump(spec: &str, dir: &Path, interval: u64) -> Machine {
    let workload = registry::resolve(spec).expect("spec resolves");
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(interval))
        .workload_spec(spec)
        .recording(RecordingOptions {
            dump_on_crash: Some(dir.to_path_buf()),
            ..RecordingOptions::default()
        })
        .build_with_workload(&workload);
    machine.run_to_completion();
    if machine.crash_dump().is_none() {
        machine.write_crash_dump(dir).expect("dump writes");
    }
    machine
}

/// A committed dump fixture. Only v5 is still written, so these bytes are
/// the only v1–v4 dumps there are.
fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Size of the file `name` in the dump directory `dir`.
fn file_bytes(dir: &Path, name: &str) -> u64 {
    fs::metadata(dir.join(name)).unwrap().len()
}

/// Total size of every file in the dump directory `dir`.
fn dump_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// Loads, verifies and replays a dump; returns whether everything checked
/// out. Any [`DumpError`] is fine for the corruption tests — what is *not*
/// fine is a panic, or a clean load followed by a divergent replay going
/// unnoticed.
fn load_verify_replay(spec: &str, dir: &Path) -> Result<bool, DumpError> {
    let report = verify_dump(dir)?;
    assert!(report.checkpoints > 0);
    let dump = CrashDump::load(dir)?;
    let workload = registry::resolve(&dump.manifest.workload)
        .or_else(|_| registry::resolve(spec))
        .expect("workload resolvable");
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    match dump.replay(|t: ThreadId| programs.get(t.0 as usize).cloned()) {
        Ok(replay) => Ok(replay.all_match()),
        // A replay-level decode failure on corrupt input is a detected error.
        Err(_) => Ok(false),
    }
}

#[test]
fn recorded_workload_round_trips_through_disk_and_replays() {
    let spec = "spec:gzip:30000:1";
    let dir = temp_dir("roundtrip");
    record_dump(spec, &dir, 5_000);

    let report = verify_dump(&dir).expect("verify passes");
    assert!(
        report.checkpoints >= 4,
        "checkpoints = {}",
        report.checkpoints
    );
    assert_eq!(report.records, report.records_decoded);

    let dump = CrashDump::load(&dir).expect("load passes");
    assert_eq!(dump.manifest.workload, spec);
    assert!(dump.manifest.fault.is_none());

    assert!(
        load_verify_replay(spec, &dir).expect("clean dump"),
        "replay must reproduce the recorded execution"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crashing_workload_dump_reproduces_the_fault_from_disk() {
    let spec = "bug:gzip-1.2.4:1000";
    let dir = temp_dir("crash");
    record_dump(spec, &dir, 100_000);

    let dump = CrashDump::load(&dir).expect("load passes");
    let fault = dump.manifest.fault.as_ref().expect("fault in manifest");
    assert_eq!(fault.thread, ThreadId(0));

    let workload = registry::resolve(spec).unwrap();
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    let replay = dump
        .replay(|t: ThreadId| programs.get(t.0 as usize).cloned())
        .expect("replay runs");
    assert!(replay.all_match(), "{:?}", replay.divergences());
    let last = replay.intervals.last().unwrap();
    assert_eq!(last.fault_reproduced, Some(true));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn multithreaded_dump_round_trips() {
    let spec = "mt:racy_counter:2:400";
    let dir = temp_dir("mt");
    record_dump(spec, &dir, 50_000);
    let dump = CrashDump::load(&dir).expect("load passes");
    assert_eq!(dump.threads.len(), 2);
    assert!(
        load_verify_replay(spec, &dir).expect("clean dump"),
        "both threads must replay to their digests"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn legacy_v1_dumps_still_load_and_replay() {
    let dir = fixture("golden-v1");
    let dump = CrashDump::load(&dir).expect("v1 dump loads");
    assert_eq!(dump.manifest.version, DUMP_VERSION_V1);
    // v1 predates image embedding: replay goes through the registry.
    assert!(!dump.is_self_contained());
    assert!(
        load_verify_replay(&dump.manifest.workload, &dir).expect("clean v1 dump"),
        "v1 replay must reproduce the recorded execution"
    );
}

#[test]
fn v2_dumps_are_strictly_smaller_than_v1_on_the_acceptance_workloads() {
    // The v1 and v2 writers are gone; the committed fixtures hold one
    // recording of the gzip acceptance workload in each format. The v2
    // codec layer must shrink every log file, not just the total.
    let (dir_v1, dir_v2) = (fixture("golden-v1"), fixture("golden-v2"));
    let manifest = CrashDump::load(&dir_v2).expect("v2 loads").manifest;
    for t in &manifest.threads {
        for name in [t.fll_file(), t.mrl_file()] {
            let (v1, v2) = (file_bytes(&dir_v1, &name), file_bytes(&dir_v2, &name));
            assert!(
                v2 < v1,
                "{name}: v2 ({v2} bytes) must be strictly smaller than v1 ({v1})"
            );
        }
    }
    let (v1, v2) = (dump_bytes(&dir_v1), dump_bytes(&dir_v2));
    assert!(
        v2 < v1,
        "v2 dump ({v2} bytes) must be strictly smaller than v1 ({v1})"
    );
}

#[test]
fn adhoc_program_dump_is_self_contained_and_replays_without_the_registry() {
    // The acceptance scenario for format v3: a program that exists in *no*
    // workload registry is recorded until it crashes; the dump must replay
    // purely from its embedded image — registry resolution of the recorded
    // spec string fails, and replay must not need it.
    use bugnet::isa::{AluOp, ProgramBuilder, Reg};
    use bugnet::workloads::Workload;
    use std::sync::Arc;

    let mut b = ProgramBuilder::new("adhoc-crasher");
    let divisor = b.alloc_data_word(4);
    b.li_addr(Reg::R3, divisor);
    // Count down the divisor word; dividing by it faults when it hits zero.
    let top = b.here();
    b.load(Reg::R4, Reg::R3, 0);
    b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, -1);
    b.store(Reg::R4, Reg::R3, 0);
    b.li(Reg::R5, 100);
    b.alu(AluOp::Div, Reg::R6, Reg::R5, Reg::R4);
    b.branch(bugnet::isa::BranchCond::Ne, Reg::R4, Reg::R0, top);
    b.halt();
    let workload = Workload::single("adhoc-crasher", Arc::new(b.build()));

    let spec = "adhoc:not-in-any-registry";
    assert!(
        registry::resolve(spec).is_err(),
        "the spec must be unresolvable for this test to mean anything"
    );

    let dir = temp_dir("adhoc");
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(1_000))
        .workload_spec(spec)
        .recording(RecordingOptions {
            dump_on_crash: Some(dir.clone()),
            ..RecordingOptions::default()
        })
        .build_with_workload(&workload);
    let outcome = machine.run_to_completion();
    let faulted = outcome.faulted_thread().expect("division by zero fires");
    assert!(faulted.fault.is_some());

    let dump = CrashDump::load(&dir).expect("dump loads");
    assert_eq!(dump.manifest.workload, spec);
    assert!(registry::resolve(&dump.manifest.workload).is_err());
    assert!(dump.is_self_contained(), "v3 dump must embed the image");

    // Replay with NO fallback at all: every byte comes from the dump.
    let replay = dump.replay(|_| None).expect("self-contained replay");
    assert!(replay.unreplayable_threads.is_empty());
    assert!(replay.all_match(), "{:?}", replay.divergences());
    let last = replay.intervals.last().unwrap();
    assert_eq!(last.fault_reproduced, Some(true));

    // The embedded image is the recorded binary's code-only replay image:
    // replay took the divisor word from the FLL, not from the image.
    let program = machine.program_of(ThreadId(0)).unwrap();
    assert!(!program.data().is_empty());
    let embedded = dump.embedded_program(ThreadId(0)).unwrap();
    assert_eq!(embedded.as_ref(), &program.without_data());
    assert!(embedded.data().is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

/// The safety argument for code-only images, as a differential test over
/// every workload family in the registry: replaying a dump from its
/// embedded image, which has no data segments, gives exactly the report
/// that replaying it against the full registry program gives. Replay takes
/// every first load from the FLL, so the data segments are never read.
///
/// The same workloads pin the store → disk → load round trip: every loaded
/// interval equals the log store's own, digest included, and the machine's
/// in-memory replay reports exactly what the dump's replay reports.
#[test]
fn code_only_images_replay_exactly_like_the_full_programs() {
    let specs = registry::known_profiles()
        .into_iter()
        .map(|p| format!("spec:{p}:6000:1"))
        .chain(
            registry::known_bugs()
                .into_iter()
                .map(|b| format!("bug:{b}:10")),
        )
        .chain(
            [
                "mt:locked_counter:2:50",
                "mt:racy_counter:2:50",
                "mt:producer_consumer:50",
            ]
            .map(String::from),
        );
    let dir = temp_dir("code-only-differential");
    let mut checked = 0;
    for spec in specs {
        let machine = record_dump(&spec, &dir, 1_000);
        let dump = CrashDump::load(&dir).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let store = machine.log_store().expect("recorder attached");
        let dumped: Vec<_> = dump.threads.iter().map(|t| t.thread).collect();
        assert_eq!(dumped, store.threads(), "{spec}");
        for t in &dump.threads {
            let logs: Vec<_> = store
                .thread_logs(t.thread)
                .iter()
                .map(|s| &s.logs)
                .collect();
            let loaded: Vec<_> = t.checkpoints.iter().collect();
            assert_eq!(loaded, logs, "{spec}: {} lost data on disk", t.thread);
        }
        let workload = registry::resolve(&spec).expect("spec resolves");
        let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
        assert!(dump.is_self_contained(), "{spec}");
        for t in &dump.threads {
            let image = t.image.as_deref().expect("image embedded");
            assert!(image.data().is_empty(), "{spec}: image carries data");
            assert_eq!(
                image,
                &programs[t.thread.0 as usize].without_data(),
                "{spec}"
            );
        }
        if !spec.starts_with("mt:") {
            // Otherwise the two replays below would run the same program.
            assert!(
                !programs[0].data().is_empty(),
                "{spec}: program has no data"
            );
        }

        let embedded = dump
            .replay(|_| None)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let full = dump
            .replay_with(ReplayRequest {
                programs: ProgramSource::Override(|t: ThreadId| {
                    programs.get(t.0 as usize).cloned()
                }),
                from: None,
                probe: Probe::off(),
            })
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(embedded.unreplayable_threads.is_empty(), "{spec}");
        assert!(!embedded.intervals.is_empty(), "{spec}: nothing replayed");
        assert!(embedded.all_match(), "{spec}: {:?}", embedded.divergences());
        assert!(full.all_match(), "{spec}: {:?}", full.divergences());
        assert_eq!(embedded, full, "{spec}: replay reports differ");
        let in_memory = machine
            .replay_and_verify()
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(in_memory, embedded, "{spec}: store and dump replays differ");
        checked += 1;
    }
    // Seven SPEC profiles, the eighteen Table 1 bugs and three kernels.
    assert_eq!(checked, 7 + 18 + 3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn embedded_telemetry_snapshot_round_trips_and_survives_salvage() {
    use bugnet::core::dump::DumpManifest;
    use bugnet::telemetry::{MetricValue, Registry};
    use std::sync::Arc;

    let spec = "spec:gzip:30000:1";
    let dir = temp_dir("telemetry");
    let workload = registry::resolve(spec).expect("spec resolves");
    let registry = Arc::new(Registry::default());
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(5_000))
        .workload_spec(spec)
        .recording(RecordingOptions {
            telemetry: Some(registry.clone()),
            ..RecordingOptions::default()
        })
        .build_with_workload(&workload);
    machine.run_to_completion();
    machine.write_crash_dump(&dir).expect("dump writes");

    // The manifest embeds a live snapshot with real recorder counts — in a
    // v5 (columnar) dump, which is what `bugnet stats` decodes by default.
    let dump = CrashDump::load(&dir).expect("load passes");
    assert_eq!(dump.manifest.version, DUMP_VERSION_V5);
    let embedded = dump.manifest.telemetry.as_ref().expect("snapshot embedded");
    match embedded.entries.get("recorder_loads_seen_total") {
        Some(MetricValue::Counter(n)) => assert!(*n > 0, "no loads counted"),
        other => panic!("recorder_loads_seen_total missing or mistyped: {other:?}"),
    }

    // Strict load, bare manifest load and the lenient salvage path all see
    // the same snapshot, and the checksummed manifest still verifies.
    let manifest = DumpManifest::load(&dir).expect("manifest loads");
    assert_eq!(manifest.telemetry, dump.manifest.telemetry);
    let salvaged = CrashDump::load_salvage(&dir).expect("salvage runs");
    assert!(salvaged.report.is_clean());
    assert_eq!(salvaged.dump.manifest.telemetry, dump.manifest.telemetry);

    assert!(
        load_verify_replay(spec, &dir).expect("clean dump"),
        "an instrumented dump must still replay to its digests"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uninstrumented_dumps_embed_no_telemetry() {
    // The default (no registry attached) must keep the manifest
    // byte-identical to pre-telemetry dumps: no snapshot, nothing printed.
    let spec = "spec:gzip:30000:1";
    let dir = temp_dir("no-telemetry");
    record_dump(spec, &dir, 5_000);
    let dump = CrashDump::load(&dir).expect("load passes");
    assert!(dump.manifest.telemetry.is_none());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v5_dumps_replay_digest_identical_to_v4_and_are_smaller() {
    // The columnar transform is a wire-layout change only: the decoded
    // logs, the recorded digests and the replayed digests must all be
    // identical between the v4 and v5 fixtures of the same run — and the
    // columnar layout must actually shrink the dump.
    let (dir_v4, dir_v5) = (fixture("golden-v4"), fixture("golden-v5"));
    let v4 = CrashDump::load(&dir_v4).expect("v4 loads");
    let v5 = CrashDump::load(&dir_v5).expect("v5 loads");
    assert_eq!(v4.manifest.version, DUMP_VERSION_V4);
    assert_eq!(v5.manifest.version, DUMP_VERSION_V5);
    assert_eq!(v4.threads.len(), v5.threads.len());
    for (t4, t5) in v4.threads.iter().zip(&v5.threads) {
        assert_eq!(t4.checkpoints, t5.checkpoints, "decoded logs must match");
    }
    for (m4, m5) in v4.manifest.threads.iter().zip(&v5.manifest.threads) {
        assert_eq!(m4.digests, m5.digests, "recorded digests must match");
    }
    let r4 = v4.replay(|_| None).expect("v4 replays");
    let r5 = v5.replay(|_| None).expect("v5 replays");
    assert!(r4.all_match() && r5.all_match());
    assert_eq!(r4, r5, "per-interval replay reports must be identical");
    let (b4, b5) = (dump_bytes(&dir_v4), dump_bytes(&dir_v5));
    assert!(
        b5 < b4,
        "v5 dump ({b5} bytes) must be smaller than v4 ({b4})"
    );
}

#[test]
fn replay_from_seeks_to_the_checkpoint_without_replaying_earlier_intervals() {
    let spec = "spec:gzip:30000:1";
    let dir = temp_dir("replay-from");
    record_dump(spec, &dir, 5_000);
    let dump = CrashDump::load(&dir).expect("load passes");
    let n = dump.threads[0].checkpoints.len();
    assert!(n >= 4, "need several checkpoints, got {n}");
    let from = dump.threads[0].checkpoints[n / 2].fll.header.checkpoint;

    let report = dump.replay_from(from, |_| None).expect("seek replays");
    assert!(report.all_match(), "{:?}", report.divergences());
    // Earlier intervals are skipped outright — they never appear in the
    // report, and only the tail from `from` onward was replayed.
    assert_eq!(report.intervals.len(), n - n / 2);
    assert!(report.intervals.iter().all(|i| i.checkpoint >= from));
    assert_eq!(report.intervals[0].checkpoint, from);

    // Seeking past the retained window replays nothing.
    let last = dump.threads[0].checkpoints[n - 1].fll.header.checkpoint;
    let past = dump
        .replay_from(CheckpointId(last.0 + 1), |_| None)
        .expect("empty seek");
    assert!(past.intervals.is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_replay_request_combines_seek_override_and_observers() {
    use bugnet::core::dump::{ProgramSource, ReplayRequest};
    use bugnet::telemetry::{MetricValue, Probe, Registry};
    use bugnet::trace::TraceSession;
    use std::sync::Arc;
    let spec = "spec:gzip:30000:1";
    let dir = temp_dir("replay-request");
    record_dump(spec, &dir, 5_000);
    let dump = CrashDump::load(&dir).expect("load passes");
    let n = dump.threads[0].checkpoints.len();
    let from = dump.threads[0].checkpoints[n / 2].fll.header.checkpoint;
    let workload = registry::resolve(spec).unwrap();
    let programs: Vec<_> = workload.threads.iter().map(|t| t.program.clone()).collect();
    let metrics = Arc::new(Registry::default());
    let session = Arc::new(TraceSession::with_capacity("replay-request", 1 << 10));
    let probe = Probe::new(Some(metrics.clone()), Some(session.clone()), "replay");
    let report = dump
        .replay_with(ReplayRequest {
            programs: ProgramSource::Override(|t: ThreadId| programs.get(t.0 as usize).cloned()),
            from: Some(from),
            probe,
        })
        .expect("replays");
    assert!(report.all_match(), "{:?}", report.divergences());
    // Seek, override and both observers apply to one pass: the report is
    // the plain seek's, and each observer counts exactly the tail.
    assert_eq!(report, dump.replay_from(from, |_| None).unwrap());
    let replayed = (n - n / 2) as u64;
    assert_eq!(report.intervals.len() as u64, replayed);
    match metrics.snapshot().entries.get("replay_intervals_total") {
        Some(MetricValue::Counter(count)) => assert_eq!(*count, replayed),
        other => panic!("replay_intervals_total missing or mistyped: {other:?}"),
    }
    assert_eq!(session.emitted_events(), replayed);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bisect_finds_the_first_divergent_interval() {
    let spec = "spec:gzip:60000:1";
    let dir = temp_dir("bisect");
    record_dump(spec, &dir, 5_000);
    let clean = CrashDump::load(&dir).expect("load passes");
    let n = clean.threads[0].checkpoints.len();
    assert!(n >= 8, "need a window worth bisecting, got {n}");

    // A clean dump bisects clean — and must probe everything to say so,
    // each interval exactly once.
    let report = clean.bisect(|_| None).expect("bisect runs");
    assert!(report.is_clean());
    assert_eq!(report.intervals, n as u64);
    assert_eq!(report.probes, report.intervals);

    // Tampering flips bits of a recorded digest's hash, keeping its counts.
    let flip_hash = |d: ExecutionDigest| {
        ExecutionDigest::from_parts(d.value() ^ 0xbad, d.loads(), d.stores(), d.instructions())
    };

    // Monotone corruption — every digest from interval k onward tampered —
    // is the binary-search fast path: the frontier is found in O(log n)
    // probes, far fewer than a full scan.
    let k = n / 2;
    let mut tampered = clean.clone();
    for cp in &mut tampered.threads[0].checkpoints[k..] {
        cp.digest = flip_hash(cp.digest);
    }
    let report = tampered.bisect(|_| None).expect("bisect runs");
    assert_eq!(report.divergences.len(), 1);
    assert_eq!(report.divergences[0].index, k as u32);
    assert_eq!(
        report.divergences[0].checkpoint,
        clean.threads[0].checkpoints[k].fll.header.checkpoint
    );
    assert!(
        report.probes < report.intervals,
        "monotone divergence must need fewer probes ({}) than intervals ({})",
        report.probes,
        report.intervals
    );

    // A lone tampered digest violates the monotone-frontier assumption;
    // the linear fallback still reports the true first divergence.
    let mut lone = clean.clone();
    let cp = &mut lone.threads[0].checkpoints[k];
    cp.digest = flip_hash(cp.digest);
    let report = lone.bisect(|_| None).expect("bisect runs");
    assert_eq!(report.divergences.len(), 1);
    assert_eq!(report.divergences[0].index, k as u32);
    assert!(report.probes <= report.intervals);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_recovers_the_intact_prefix_of_a_truncated_v5_columnar_frame() {
    let spec = "spec:gzip:30000:1";
    let dir = temp_dir("v5-salvage");
    record_dump(spec, &dir, 5_000);
    let clean = CrashDump::load(&dir).expect("load passes");
    assert_eq!(clean.manifest.version, DUMP_VERSION_V5);
    let total = clean.threads[0].checkpoints.len();
    assert!(total >= 4);

    // Chop the tail off the columnar FLL: the final frame is now torn.
    let fll = dir.join(clean.manifest.threads[0].fll_file());
    let bytes = fs::read(&fll).unwrap();
    fs::write(&fll, &bytes[..bytes.len() - 200]).unwrap();

    // The strict loader refuses the damaged dump outright...
    CrashDump::load(&dir).expect_err("strict load must reject the torn frame");

    // ...while salvage keeps every intact leading frame and replays it.
    let salvaged = CrashDump::load_salvage(&dir).expect("salvage runs");
    assert!(!salvaged.report.is_clean());
    let kept = salvaged.dump.threads[0].checkpoints.len();
    assert!(
        kept > 0 && kept < total,
        "salvage kept {kept} of {total} intervals"
    );
    assert_eq!(
        salvaged.dump.threads[0].checkpoints[..],
        clean.threads[0].checkpoints[..kept],
        "the salvaged prefix decodes to the original logs"
    );
    let replay = salvaged.dump.replay(|_| None).expect("prefix replays");
    assert!(replay.all_match(), "{:?}", replay.divergences());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn image_section_corruptions_yield_typed_errors_and_never_wrong_replays() {
    // Seeded sweep focused on the embedded image section: every bit flip
    // and truncation of `image-<tid>.bni` must be a typed DumpError —
    // never a panic, and never a clean load that replays a wrong program.
    let spec = "spec:gzip:20000:1";
    let dir = temp_dir("image-corruption");
    record_dump(spec, &dir, 5_000);
    // v4 image files are content-addressed; take the name from the manifest.
    let manifest = CrashDump::load(&dir).unwrap().manifest;
    let image = dir.join(manifest.threads[0].image_file());
    let original = fs::read(&image).unwrap();

    let mut rng = SplitMix64::new(0x1A_6E0BAD);
    for _ in 0..64 {
        let bit = rng.next_range(original.len() as u64 * 8);
        let mut corrupt = original.clone();
        corrupt[(bit / 8) as usize] ^= 1 << (bit % 8);
        fs::write(&image, &corrupt).unwrap();
        let err = CrashDump::load(&dir).expect_err("image flip must be detected at load");
        assert!(
            matches!(
                err,
                DumpError::ChecksumMismatch { .. }
                    | DumpError::CorruptLog { .. }
                    | DumpError::Inconsistent { .. }
                    | DumpError::Truncated { .. }
                    | DumpError::TrailingBytes { .. }
                    | DumpError::BadMagic { .. }
                    | DumpError::UnsupportedVersion { .. }
            ),
            "bit {bit}: {err}"
        );
    }
    for _ in 0..16 {
        let cut = rng.next_range(original.len() as u64) as usize;
        fs::write(&image, &original[..cut]).unwrap();
        assert!(
            CrashDump::load(&dir).is_err(),
            "truncating the image to {cut} bytes must be detected"
        );
    }
    fs::write(&image, &original).unwrap();
    assert!(CrashDump::load(&dir).unwrap().is_self_contained());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_v1_v2_framing_is_rejected() {
    use bugnet::compress::fnv1a;
    let spec = "spec:gzip:20000:1";
    let dir = temp_dir("mixed-framing");
    record_dump(spec, &dir, 5_000);
    let fll = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "fll"))
        .unwrap();
    let original = fs::read(&fll).unwrap();

    // Forgery 1: append a cleanly-checksummed v1-style frame to the v2 file.
    // Every appended byte passes its own integrity check, so only the
    // frame-count cross-check can reject it.
    let payload = b"forged legacy frame payload".to_vec();
    let mut forged = original.clone();
    forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    forged.extend_from_slice(&payload);
    forged.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    fs::write(&fll, &forged).unwrap();
    let err = load_verify_replay(spec, &dir).expect_err("appended v1 frame must be rejected");
    match &err {
        DumpError::Inconsistent { detail, .. } => {
            assert!(detail.contains("well-formed frame"), "{err}")
        }
        other => panic!("expected a frame-count inconsistency, got {other}"),
    }

    // Forgery 2: rewrite the first v2 frame *in place* with v1 framing
    // (payload + trailing checksum instead of a container). The container
    // parse must reject it with a typed error.
    let first_len = u32::from_le_bytes(original[16..20].try_into().unwrap()) as usize;
    let container = &original[20..20 + first_len];
    let mut swapped = original[..16].to_vec();
    swapped.extend_from_slice(&((container.len() + 8) as u32).to_le_bytes());
    swapped.extend_from_slice(container);
    swapped.extend_from_slice(&fnv1a(container).to_le_bytes());
    swapped.extend_from_slice(&original[20 + first_len..]);
    fs::write(&fll, &swapped).unwrap();
    let err = load_verify_replay(spec, &dir).expect_err("v1 framing in a v2 file must be rejected");
    assert!(
        matches!(
            err,
            DumpError::CorruptLog { .. }
                | DumpError::ChecksumMismatch { .. }
                | DumpError::Inconsistent { .. }
                | DumpError::Truncated { .. }
                | DumpError::TrailingBytes { .. }
        ),
        "unexpected {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_bit_flips_always_yield_typed_errors() {
    let spec = "spec:crafty:20000:1";
    let dir = temp_dir("bitflip");
    record_dump(spec, &dir, 4_000);

    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 3, "manifest + fll + mrl expected");

    let mut rng = SplitMix64::new(0xB17_F11B5);
    let mut detected = 0u32;
    for file in &files {
        let original = fs::read(file).unwrap();
        for _ in 0..16 {
            let bit = rng.next_range(original.len() as u64 * 8);
            let mut corrupt = original.clone();
            corrupt[(bit / 8) as usize] ^= 1 << (bit % 8);
            fs::write(file, &corrupt).unwrap();
            // Every byte of every file is checksum- or structure-covered, so
            // a flip must be *detected*: either a typed DumpError or a
            // reported divergence — and never a panic.
            match load_verify_replay(spec, &dir) {
                Err(_) => detected += 1,
                Ok(all_match) => {
                    assert!(
                        !all_match,
                        "bit {bit} of {} flipped silently and replay still matched",
                        file.display()
                    );
                    detected += 1;
                }
            }
        }
        fs::write(file, &original).unwrap();
        // The restored dump is intact again.
        assert!(load_verify_replay(spec, &dir).expect("restored dump loads"));
    }
    assert_eq!(detected, files.len() as u32 * 16);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncations_always_yield_typed_errors() {
    let spec = "spec:parser:15000:1";
    let dir = temp_dir("truncation");
    record_dump(spec, &dir, 4_000);

    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let mut rng = SplitMix64::new(0x7121C473);
    for file in &files {
        let original = fs::read(file).unwrap();
        let mut cuts = vec![0usize, 1, original.len() / 2, original.len() - 1];
        for _ in 0..8 {
            cuts.push(rng.next_range(original.len() as u64) as usize);
        }
        for cut in cuts {
            fs::write(file, &original[..cut]).unwrap();
            let err = load_verify_replay(spec, &dir).expect_err("truncated dump must be rejected");
            // Must be a *typed* structural error, surfaced without panicking.
            assert!(
                matches!(
                    err,
                    DumpError::Truncated { .. }
                        | DumpError::ChecksumMismatch { .. }
                        | DumpError::BadMagic { .. }
                        | DumpError::TrailingBytes { .. }
                        | DumpError::Inconsistent { .. }
                        | DumpError::CorruptLog { .. }
                        | DumpError::Io { .. }
                ),
                "truncating {} to {cut} bytes: unexpected {err}",
                file.display()
            );
        }
        fs::write(file, &original).unwrap();
    }
    // Deleting a log file the manifest references is also a typed error.
    let fll = files
        .iter()
        .find(|f| f.extension().is_some_and(|e| e == "fll"))
        .unwrap();
    let original = fs::read(fll).unwrap();
    fs::remove_file(fll).unwrap();
    assert!(matches!(
        load_verify_replay(spec, &dir).unwrap_err(),
        DumpError::Io { .. }
    ));
    fs::write(fll, &original).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}
