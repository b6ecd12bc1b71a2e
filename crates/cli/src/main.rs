//! `bugnet` — the BugNet crash-dump toolkit.
//!
//! The end-to-end workflow of the paper (§4.8, §5): a production machine
//! continuously records; on a crash the OS dumps the retained First-Load and
//! Memory Race Logs to a directory; the developer ships that directory to
//! their desk and replays it offline, landing exactly on the faulting
//! instruction. This binary drives each step against the simulator:
//!
//! ```text
//! bugnet dump    --workload bug:gzip-1.2.4:1000 --out crash/   # record
//! bugnet info    crash/                                        # inspect
//! bugnet verify  crash/                                        # checksums
//! bugnet replay  crash/                                        # reproduce
//! bugnet fsck    crash/                                        # salvage check
//! ```
//!
//! Exit codes: 0 on success, 1 when a dump fails verification, is damaged,
//! or replay diverges from the recording, 2 on usage errors.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use bugnet_compress::CodecId;
use bugnet_core::dump::{CrashDump, DumpManifest, ProgramSource, ReplayRequest, ReplayStats};
use bugnet_core::profile::{profile_dump, ProfileOptions};
use bugnet_sim::{MachineBuilder, RecordingOptions};
use bugnet_telemetry::{Registry, Snapshot};
use bugnet_trace::TraceSession;
use bugnet_types::{BugNetConfig, ByteSize, CheckpointId, ThreadId};
use bugnet_workloads::{registry, ThreadSpec};

mod report;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut args = Args::new(&args);
    let Some(command) = args.next_positional() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "dump" => cmd_dump(&mut args),
        "info" | "inspect" => cmd_info(&mut args),
        "verify" => cmd_verify(&mut args),
        "fsck" => cmd_fsck(&mut args),
        "replay" => cmd_replay(&mut args),
        "bisect" => cmd_bisect(&mut args),
        "profile" => cmd_profile(&mut args),
        "stats" => cmd_stats(&mut args),
        "workloads" => cmd_workloads(&mut args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bugnet: {}", e.message);
            if e.code == 2 {
                eprintln!("\n{USAGE}");
            }
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "\
bugnet — record, inspect, verify and replay BugNet crash dumps

USAGE:
    bugnet dump --workload <SPEC> --out <DIR> [--interval <N>] [--dict <N>]
                [--max-instructions <N>] [--codec <identity|lz>]
                [--flush-workers <N>] [--shards <N>] [--no-embed-image]
                [--metrics-json <FILE>] [--trace-out <FILE>]
        Record a workload on the simulated machine and write the retained
        log window to <DIR> as a crash-dump directory. Faults dump
        automatically at crash time, exactly like the paper's OS trigger.
        The write is atomic (staging directory + rename): <DIR> appears
        complete or not at all, and orphaned staging directories from
        prior crashed runs are swept first. --codec selects the back-end
        frame compressor (default: lz); --flush-workers seals intervals on
        N background threads and --shards sets the store's hand-off lane
        count (recorded content is identical for any worker/shard count).
        Dumps are format v5: each log is stored as columnar, delta-encoded
        per-field streams and the program images are embedded
        content-addressed, so threads sharing one image store it once;
        --no-embed-image omits the images. Older formats (v1-v4) still
        load, verify and replay.
        --metrics-json turns on run telemetry, writes the metric
        snapshot to <FILE> as JSON and embeds it in the dump manifest
        (readable later with `bugnet stats <DIR>`). Telemetry makes
        dump bytes timing-dependent, so it is off by default.
        --trace-out records a span/instant timeline of the run (recorder
        intervals, interval seals, flush workers, dump i/o) and writes it
        as Chrome trace-event JSON, loadable at ui.perfetto.dev. Tracing
        never changes dump bytes.

    bugnet info <DIR>
        Decode the manifest and print per-thread, per-checkpoint log
        statistics (records, sizes, dictionary hits, compression ratios,
        raw vs stored bytes of the back-end codec, embedded image sizes).

    bugnet verify <DIR>
        Full integrity pass: magics, versions, frame checksums/containers,
        manifest cross-checks, embedded program images and a decode of
        every first-load record; reports per-thread raw vs compressed
        bytes and the overall ratio.

    bugnet fsck <DIR>
        Salvage pass over a possibly-damaged dump: recovers every frame
        whose checksum still verifies and reports, per file, how many
        frames are intact, where the first corruption sits and why it was
        rejected. Exits 0 only when the dump is fully intact; a damaged
        but salvageable dump exits 1 with the loss report.

    bugnet replay <DIR> [--at <N>] [--workload <SPEC>] [--salvage]
                  [--metrics-json <FILE>] [--trace-out <FILE>]
        Replay every retained interval and compare against the recorded
        execution digests. Self-contained (v3+) dumps replay from their
        embedded program images; v1/v2 dumps rebuild the programs from the
        manifest's workload spec. --workload overrides both (a mismatch
        against the recorded spec is reported up front). --at <N> seeks
        straight to checkpoint N and replays from there onward — every
        interval carries its full start-of-interval state, so earlier
        intervals are never re-executed. --salvage accepts a damaged dump
        and replays up to the last fully-intact interval of each thread
        instead of refusing to load. --metrics-json records replay
        telemetry (instructions, interval latency, digest comparisons)
        and writes the snapshot to <FILE> as JSON. --trace-out writes a
        per-interval replay timeline as Chrome trace-event JSON. --at
        combines with every other flag.

    bugnet bisect <DIR> [--workload <SPEC>]
        Binary-search each thread's retained window for the first interval
        whose replay digest diverges from the recording. A state-smearing
        bug that corrupts every interval after some point is found in
        O(log n) interval replays instead of replaying the whole window;
        a non-monotone divergence pattern falls back to a linear scan so
        the answer is always the true first divergence. Exits 0 when every
        probed interval matches.

    bugnet profile <DIR> [--top <N>] [--sample-every <N>]
                   [--workload <SPEC>] [--trace-out <FILE>]
        Re-execute the dump through the interpreter's sampling hook and
        print where the recorded execution spent its instructions: a
        hot-PC histogram symbolized against the embedded program image,
        a per-interval breakdown (instructions, logged vs regenerated
        loads, dictionary hits, race edges) and the MRL race timeline.
        --top bounds the hot-PC table (default 20); --sample-every N
        samples every Nth instruction (default 1 = exact). --trace-out
        additionally writes the profile as Chrome trace-event JSON on a
        virtual timebase (one instruction = one microsecond), so
        Perfetto shows the recorded execution itself.

    bugnet stats <DIR> [--format <text|json|prom>]
        Print the telemetry snapshot embedded in the dump manifest — the
        run metrics of the recording that produced the dump (recorder
        load/dictionary counters, seal and flush latencies, dump i/o
        timings). Dumps record one when written with --metrics-json;
        others exit 1. --format selects plain text (default), JSON, or
        Prometheus text exposition.

    bugnet stats --diff <EARLIER.json> <LATER.json> [--format <text|json|prom>]
        Diff two metric snapshots written by --metrics-json: counters
        and histogram moments subtract (later minus earlier, saturating
        at zero), gauges keep their later value. Use it to isolate what
        one phase of a run contributed.

    bugnet workloads
        List the workload spec strings `dump` accepts.

WORKLOAD SPECS:
    spec:<profile>:<instructions>:<threads>   e.g. spec:gzip:30000:1
    bug:<name>:<scale_milli>                  e.g. bug:gzip-1.2.4:1000
    mt:<kernel>:<params...>                   e.g. mt:racy_counter:2:400";

/// Error carrying the process exit code (1 = data problem, 2 = usage).
#[derive(Debug)]
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn data(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

/// Minimal argument cursor: positionals in order, `--flag value` anywhere.
struct Args {
    remaining: Vec<String>,
}

impl Args {
    fn new(args: &[String]) -> Self {
        Args {
            remaining: args.to_vec(),
        }
    }

    /// Removes and returns `--name <value>`, if present.
    fn option(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let Some(i) = self.remaining.iter().position(|a| a == name) else {
            return Ok(None);
        };
        // A following `--flag` is a missing value, not the value: without
        // this check `--codec --flush-workers 2` silently records a codec
        // literally named `--flush-workers`.
        match self.remaining.get(i + 1) {
            None => Err(CliError::usage(format!("{name} needs a value"))),
            Some(next) if next.starts_with("--") => Err(CliError::usage(format!(
                "{name} needs a value, got flag `{next}`"
            ))),
            Some(_) => {
                let value = self.remaining.remove(i + 1);
                self.remaining.remove(i);
                Ok(Some(value))
            }
        }
    }

    /// Removes a bare `--name` flag; returns whether it was present.
    fn flag(&mut self, name: &str) -> bool {
        match self.remaining.iter().position(|a| a == name) {
            Some(i) => {
                self.remaining.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes and returns `--name <value>` parsed as an integer.
    fn option_u64(&mut self, name: &str) -> Result<Option<u64>, CliError> {
        match self.option(name)? {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::usage(format!("{name} expects a number, got `{v}`"))),
        }
    }

    /// Removes and returns the next positional (non-`--`) argument.
    fn next_positional(&mut self) -> Option<String> {
        let i = self.remaining.iter().position(|a| !a.starts_with("--"))?;
        Some(self.remaining.remove(i))
    }

    /// Fails on anything left unconsumed.
    fn finish(&self) -> Result<(), CliError> {
        match self.remaining.first() {
            None => Ok(()),
            Some(extra) => Err(CliError::usage(format!("unexpected argument `{extra}`"))),
        }
    }
}

fn dump_dir_arg(args: &mut Args) -> Result<PathBuf, CliError> {
    args.next_positional()
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage("missing <DIR> argument"))
}

fn cmd_dump(args: &mut Args) -> Result<(), CliError> {
    let spec = args
        .option("--workload")?
        .ok_or_else(|| CliError::usage("dump requires --workload <SPEC>"))?;
    let out = args
        .option("--out")?
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage("dump requires --out <DIR>"))?;
    let interval = args.option_u64("--interval")?.unwrap_or(100_000);
    let dict = args.option_u64("--dict")?.unwrap_or(64) as usize;
    let max_instructions = args.option_u64("--max-instructions")?.unwrap_or(u64::MAX);
    let codec = match args.option("--codec")? {
        None => CodecId::Lz77,
        Some(name) => CodecId::parse(&name).ok_or_else(|| {
            CliError::usage(format!("--codec expects `identity` or `lz`, got `{name}`"))
        })?,
    };
    let flush_workers = args.option_u64("--flush-workers")?.unwrap_or(0) as usize;
    let store_shards = args.option_u64("--shards")?.unwrap_or(0) as usize;
    let embed_image = !args.flag("--no-embed-image");
    let metrics_json = args.option("--metrics-json")?.map(PathBuf::from);
    let trace_out = args.option("--trace-out")?.map(PathBuf::from);
    args.finish()?;

    let workload = registry::resolve(&spec).map_err(CliError::usage)?;
    let cfg = BugNetConfig::default()
        .with_checkpoint_interval(interval)
        .with_dictionary_entries(dict);
    let telemetry = metrics_json.as_ref().map(|_| Arc::new(Registry::default()));
    let trace = trace_out
        .as_ref()
        .map(|_| Arc::new(TraceSession::with_capacity("bugnet-record", 1 << 16)));
    // One struct per concern, mirrored straight into the library API: how
    // the run records, and how the dump is written.
    let recording = RecordingOptions {
        codec,
        flush_workers,
        store_shards,
        embed_image,
        dump_on_crash: Some(out.clone()),
        dump_io: None,
        telemetry: telemetry.clone(),
        trace: trace.clone(),
    };
    let mut machine = MachineBuilder::new()
        .bugnet(cfg)
        .workload_spec(&spec)
        .recording(recording)
        .build_with_workload(&workload);
    let outcome = machine.run(max_instructions);

    println!(
        "recorded `{spec}`: {} instructions, {} syscalls, {} interrupts, {} context switches",
        outcome.total_committed(),
        outcome.syscalls,
        outcome.interrupts,
        outcome.context_switches
    );
    let crash_dump = machine.crash_dump();
    if let Some(fault) = outcome.faulted_thread() {
        println!(
            "crash detected on {}: {} at pc {}{}",
            fault.thread,
            fault.fault.expect("faulted"),
            fault.fault_pc.expect("faulted"),
            // Only claim a crash-time dump once the machine reports it
            // actually succeeded.
            if matches!(crash_dump, Some(Ok(_))) {
                " — dump written at crash time"
            } else {
                ""
            },
        );
    }
    let manifest = match crash_dump {
        // A fault fired mid-run and the machine already dumped, OS-style.
        Some(Ok(manifest)) => manifest.clone(),
        Some(Err(e)) => return Err(CliError::data(format!("automatic crash dump failed: {e}"))),
        // Clean run: archive the retained window.
        None => machine
            .write_crash_dump(&out)
            .map_err(|e| CliError::data(e.to_string()))?,
    };
    println!(
        "dump written to {} (format v{}): {} thread(s), {} checkpoint(s), {} FLL + {} MRL \
         ({} stored via codec {}, ratio {:.2})",
        out.display(),
        manifest.version,
        manifest.threads.len(),
        manifest.total_checkpoints(),
        manifest.total_fll_size(),
        manifest.total_mrl_size(),
        manifest.total_fll_stored_size() + manifest.total_mrl_stored_size(),
        manifest.codec,
        manifest.backend_ratio(),
    );
    if manifest.embedded_images() > 0 {
        let unique = manifest.unique_images();
        let dedup = if unique < manifest.embedded_images() {
            format!(" ({unique} unique, content-addressed)")
        } else {
            String::new()
        };
        println!(
            "embedded {} program image(s){dedup}: {} raw -> {} stored ({:.2}x) — \
             dump is self-contained, replay needs no --workload",
            manifest.embedded_images(),
            manifest.total_image_size(),
            manifest.total_image_stored_size(),
            manifest.image_ratio(),
        );
    }
    if let (Some(path), Some(registry)) = (&metrics_json, &telemetry) {
        write_metrics_json(path, registry.as_ref())?;
    }
    if let (Some(path), Some(session)) = (&trace_out, &trace) {
        write_trace_json(path, session)?;
    }
    Ok(())
}

/// Writes a registry snapshot to `path` as JSON and says so.
fn write_metrics_json(path: &Path, registry: &Registry) -> Result<(), CliError> {
    let snapshot = registry.snapshot();
    std::fs::write(path, snapshot.to_json())
        .map_err(|e| CliError::data(format!("cannot write {}: {e}", path.display())))?;
    println!(
        "telemetry: {} metric(s) written to {}",
        snapshot.entries.len(),
        path.display()
    );
    Ok(())
}

/// Writes a trace session to `path` as Chrome trace-event JSON and says so.
fn write_trace_json(path: &Path, session: &TraceSession) -> Result<(), CliError> {
    session
        .write_chrome_json(path)
        .map_err(|e| CliError::data(format!("cannot write {}: {e}", path.display())))?;
    println!(
        "trace: {} event(s) on {} track(s) written to {} ({} dropped) — load at ui.perfetto.dev",
        session.emitted_events(),
        session.thread_count(),
        path.display(),
        session.dropped_events(),
    );
    Ok(())
}

fn cmd_info(args: &mut Args) -> Result<(), CliError> {
    let dir = dump_dir_arg(args)?;
    args.finish()?;
    let dump = CrashDump::load(&dir).map_err(|e| CliError::data(e.to_string()))?;
    report::print_info(&dir, &dump);
    Ok(())
}

fn cmd_verify(args: &mut Args) -> Result<(), CliError> {
    let dir = dump_dir_arg(args)?;
    args.finish()?;
    let dump = CrashDump::load(&dir).map_err(|e| CliError::data(format!("FAILED: {e}")))?;
    let report = dump
        .verify()
        .map_err(|e| CliError::data(format!("FAILED: {e}")))?;
    println!(
        "OK: {} thread(s), {} checkpoint(s), {} first-load records decoded, \
         {} race entries, {} FLL + {} MRL payload",
        report.threads,
        report.checkpoints,
        report.records_decoded,
        report.mrl_entries,
        ByteSize::from_bytes(report.fll_bytes),
        ByteSize::from_bytes(report.mrl_bytes),
    );
    for t in &dump.manifest.threads {
        let raw = t.fll_bytes + t.mrl_bytes;
        let stored = t.fll_stored_bytes + t.mrl_stored_bytes;
        println!(
            "  {}: {} raw -> {} stored ({:.2}x)",
            t.thread,
            ByteSize::from_bytes(raw),
            ByteSize::from_bytes(stored),
            if stored == 0 {
                1.0
            } else {
                raw as f64 / stored as f64
            },
        );
    }
    println!(
        "codec {}: {} raw -> {} stored, overall ratio {:.2}",
        report.codec,
        ByteSize::from_bytes(report.fll_bytes + report.mrl_bytes),
        ByteSize::from_bytes(report.fll_stored_bytes + report.mrl_stored_bytes),
        report.backend_ratio(),
    );
    if report.images > 0 {
        println!(
            "images: {} embedded program image(s) verified, {} raw -> {} stored, ratio {:.2}",
            report.images,
            ByteSize::from_bytes(report.image_raw_bytes),
            ByteSize::from_bytes(report.image_stored_bytes),
            report.image_ratio(),
        );
    }
    if let Some(snapshot) = &dump.manifest.telemetry {
        println!(
            "telemetry: {} embedded metric(s), covered by the manifest checksum",
            snapshot.entries.len()
        );
    }
    Ok(())
}

fn cmd_fsck(args: &mut Args) -> Result<(), CliError> {
    let dir = dump_dir_arg(args)?;
    args.finish()?;
    // The manifest is the only hard requirement; everything else degrades
    // to a per-file loss report.
    let salvaged =
        CrashDump::load_salvage(&dir).map_err(|e| CliError::data(format!("unsalvageable: {e}")))?;
    report::print_salvage(&dir, &salvaged.report);
    if salvaged.report.is_clean() {
        Ok(())
    } else {
        Err(CliError::data(format!(
            "dump is damaged: {} of {} interval(s) salvageable — \
             `bugnet replay {} --salvage` replays the intact prefix",
            salvaged.report.intact_intervals,
            salvaged.report.intact_intervals + salvaged.report.lost_intervals,
            dir.display(),
        )))
    }
}

/// The one program resolver of `replay`, `bisect` and `profile`: the
/// threads (index = thread id) of `--workload <SPEC>` when given — called
/// out up front when it contradicts the recorded spec, since divergence is
/// then the expected outcome (`replaces` names what the override stands in
/// for) — else those of the recorded spec, which a self-contained dump
/// never needs. The inner `Err` is the registry's reason it cannot rebuild
/// the recorded spec; an override it cannot rebuild fails outright.
fn workload_threads(
    dump: &CrashDump,
    override_spec: Option<&str>,
    replaces: &str,
) -> Result<Result<Vec<ThreadSpec>, String>, CliError> {
    let recorded = &dump.manifest.workload;
    let Some(spec) = override_spec else {
        if dump.is_self_contained() {
            return Ok(Ok(Vec::new()));
        }
        return Ok(registry::resolve(recorded).map(|w| w.threads));
    };
    if !registry::specs_equivalent(spec, recorded) {
        eprintln!(
            "bugnet: warning: dump was recorded from workload `{recorded}` but --workload \
             overrides {replaces} with `{spec}`; if the programs differ, digest divergence \
             below is expected"
        );
    }
    registry::resolve(spec)
        .map(|w| Ok(w.threads))
        .map_err(|e| CliError::data(format!("cannot rebuild workload `{spec}`: {e}")))
}

fn cmd_replay(args: &mut Args) -> Result<(), CliError> {
    let dir = dump_dir_arg(args)?;
    let at = args.option_u64("--at")?;
    let override_spec = args.option("--workload")?;
    let salvage = args.flag("--salvage");
    let metrics_json = args.option("--metrics-json")?.map(PathBuf::from);
    let trace_out = args.option("--trace-out")?.map(PathBuf::from);
    args.finish()?;
    let from = match at {
        Some(n) => {
            Some(CheckpointId(u32::try_from(n).map_err(|_| {
                CliError::usage(format!("--at {n} overflows u32"))
            })?))
        }
        None => None,
    };
    let telemetry = metrics_json.as_ref().map(|_| Registry::default());
    let stats = telemetry.as_ref().map(ReplayStats::register);
    let trace = trace_out
        .as_ref()
        .map(|_| TraceSession::with_capacity("bugnet-replay", 1 << 16));
    let mut tracer = trace.as_ref().map(|s| s.thread("replay"));
    let dump = if salvage {
        let salvaged = CrashDump::load_salvage(&dir)
            .map_err(|e| CliError::data(format!("unsalvageable: {e}")))?;
        if salvaged.report.is_clean() {
            println!("salvage: dump is fully intact");
        } else {
            println!(
                "salvage: {} of {} interval(s) intact ({} frame(s) and {} image(s) lost) — \
                 replaying the intact prefix",
                salvaged.report.intact_intervals,
                salvaged.report.intact_intervals + salvaged.report.lost_intervals,
                salvaged.report.lost_frames(),
                salvaged.report.lost_images,
            );
        }
        salvaged.dump
    } else {
        CrashDump::load(&dir).map_err(|e| CliError::data(e.to_string()))?
    };
    let spec = &dump.manifest.workload;
    let resolved = workload_threads(&dump, override_spec.as_deref(), "it")?;
    let threads = match (&override_spec, resolved) {
        // Explicit override: replay against exactly the named workload,
        // ignoring any embedded images.
        (Some(spec), Ok(threads)) => {
            println!("replaying against override workload `{spec}`");
            threads
        }
        // Self-contained dump: every program comes from the checksummed
        // dump itself, no workload registry involved.
        _ if dump.is_self_contained() => {
            println!("replaying from embedded program images (self-contained dump)");
            Vec::new()
        }
        // Not (fully) self-contained: v1/v2 dump, or image embedding was
        // off for some threads. Rebuild the missing programs from the
        // recorded workload spec; embedded images still take precedence
        // per thread.
        (_, Ok(threads)) => {
            println!("replaying from workload spec `{spec}` (registry fallback)");
            threads
        }
        // The spec is unresolvable but some threads do carry their image:
        // replay those and report the rest as unreplayable rather than
        // refusing the whole dump.
        (_, Err(e)) if dump.manifest.embedded_images() > 0 => {
            eprintln!(
                "bugnet: warning: workload `{spec}` cannot be rebuilt ({e}); replaying the {} \
                 thread(s) with embedded images only",
                dump.manifest.embedded_images()
            );
            Vec::new()
        }
        (_, Err(e)) => {
            return Err(CliError::data(format!(
                "dump embeds no program images and workload `{spec}` cannot be rebuilt: {e}; \
                 pass --workload <SPEC> to override"
            )))
        }
    };
    if let Some(n) = at {
        // Checkpoint-seeking time travel: every FLL header carries the full
        // start-of-interval architectural state, so replay jumps straight
        // to checkpoint `n` — intervals before it are skipped, never
        // re-executed.
        println!("seeking to checkpoint {n}: earlier intervals are skipped, not replayed");
    }
    let program_of = |t: ThreadId| threads.get(t.0 as usize).map(|s| s.program.clone());
    let report = dump
        .replay_with(ReplayRequest {
            programs: match override_spec {
                Some(_) => ProgramSource::Override(program_of),
                None => ProgramSource::Embedded(program_of),
            },
            from,
            stats: stats.as_ref(),
            tracer: tracer.as_mut(),
        })
        .map_err(|e| CliError::data(format!("replay failed: {e}")))?;
    if report.intervals.is_empty() && report.unreplayable_threads.is_empty() {
        return Err(CliError::data(match at {
            Some(n) => format!("no retained interval at or after checkpoint {n}"),
            None => "dump contains no checkpoints to replay (empty archive)".into(),
        }));
    }
    report::print_replay(&dump.manifest, &report);
    if let (Some(path), Some(registry)) = (&metrics_json, &telemetry) {
        write_metrics_json(path, registry)?;
    }
    if let (Some(path), Some(session)) = (&trace_out, &trace) {
        write_trace_json(path, session)?;
    }
    if report.all_match() {
        Ok(())
    } else {
        Err(CliError::data(format!(
            "replay DIVERGED on {} of {} interval(s)",
            report.divergences().len(),
            report.intervals.len()
        )))
    }
}

fn cmd_bisect(args: &mut Args) -> Result<(), CliError> {
    let dir = dump_dir_arg(args)?;
    let override_spec = args.option("--workload")?;
    args.finish()?;
    let dump = CrashDump::load(&dir).map_err(|e| CliError::data(e.to_string()))?;
    // Same program resolution as replay: embedded images first (inside
    // `bisect`), then the workload's programs for threads without one.
    let threads =
        workload_threads(&dump, override_spec.as_deref(), "the fallback")?.unwrap_or_default();
    let report = dump
        .bisect(|t| threads.get(t.0 as usize).map(|s| s.program.clone()))
        .map_err(|e| CliError::data(format!("bisect failed: {e}")))?;
    report::print_bisect(&dir, &report);
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::data(format!(
            "replay diverges from the recording on {} thread(s)",
            report.divergences.len()
        )))
    }
}

fn cmd_profile(args: &mut Args) -> Result<(), CliError> {
    let dir = dump_dir_arg(args)?;
    let top = args.option_u64("--top")?.unwrap_or(20) as usize;
    let sample_every = args.option_u64("--sample-every")?.unwrap_or(1);
    let override_spec = args.option("--workload")?;
    let trace_out = args.option("--trace-out")?.map(PathBuf::from);
    args.finish()?;
    let dump = CrashDump::load(&dir).map_err(|e| CliError::data(e.to_string()))?;
    // Program resolution mirrors replay: embedded images first (inside
    // `profile_dump`), the workload's programs for threads without one.
    let threads =
        workload_threads(&dump, override_spec.as_deref(), "the fallback")?.unwrap_or_default();
    let options = ProfileOptions { sample_every };
    let profile = profile_dump(
        &dump,
        |t| threads.get(t.0 as usize).map(|s| s.program.clone()),
        &options,
    )
    .map_err(|e| CliError::data(format!("profile failed: {e}")))?;
    println!("profiling {}:", dir.display());
    print!("{}", profile.render_text(top));
    if let Some(path) = &trace_out {
        // Exact-fit session: the profile is materialized, so the ring can
        // be sized to never drop an event.
        let events = profile.intervals.len() + profile.races.len() + 64;
        let session = TraceSession::with_capacity("bugnet-profile", events.next_power_of_two());
        profile.write_trace(&session);
        write_trace_json(path, &session)?;
    }
    Ok(())
}

fn cmd_stats(args: &mut Args) -> Result<(), CliError> {
    let diff = args.option("--diff")?.map(PathBuf::from);
    if let Some(earlier_path) = diff {
        return cmd_stats_diff(args, &earlier_path);
    }
    let dir = dump_dir_arg(args)?;
    let format = args.option("--format")?.unwrap_or_else(|| "text".into());
    args.finish()?;
    let manifest = DumpManifest::load(&dir).map_err(|e| CliError::data(e.to_string()))?;
    let Some(snapshot) = &manifest.telemetry else {
        return Err(CliError::data(format!(
            "dump {} embeds no telemetry snapshot; record it with \
             `bugnet dump --metrics-json <FILE> ...`",
            dir.display()
        )));
    };
    match format.as_str() {
        "json" => println!("{}", snapshot.to_json()),
        "prom" => print!("{}", snapshot.to_prometheus()),
        "text" => report::print_stats(&dir, &manifest, snapshot),
        other => {
            return Err(CliError::usage(format!(
                "--format expects `text`, `json` or `prom`, got `{other}`"
            )))
        }
    }
    Ok(())
}

/// `bugnet stats --diff <EARLIER.json> <LATER.json>`: load two snapshots
/// written by `--metrics-json` and print later-minus-earlier.
fn cmd_stats_diff(args: &mut Args, earlier_path: &Path) -> Result<(), CliError> {
    let later_path = args
        .next_positional()
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage("stats --diff <EARLIER.json> needs a <LATER.json> too"))?;
    let format = args.option("--format")?.unwrap_or_else(|| "text".into());
    args.finish()?;
    let read = |path: &Path| -> Result<Snapshot, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::data(format!("cannot read {}: {e}", path.display())))?;
        Snapshot::from_json(&text).map_err(|e| {
            CliError::data(format!("{} is not a metrics snapshot: {e}", path.display()))
        })
    };
    let earlier = read(earlier_path)?;
    let later = read(&later_path)?;
    let delta = later.delta(&earlier);
    match format.as_str() {
        "json" => println!("{}", delta.to_json()),
        "prom" => print!("{}", delta.to_prometheus()),
        "text" => report::print_stats_diff(earlier_path, &later_path, &delta),
        other => {
            return Err(CliError::usage(format!(
                "--format expects `text`, `json` or `prom`, got `{other}`"
            )))
        }
    }
    Ok(())
}

fn cmd_workloads(args: &mut Args) -> Result<(), CliError> {
    args.finish()?;
    println!("spec profiles (spec:<name>:<instructions>:<threads>):");
    for name in registry::known_profiles() {
        println!("  spec:{name}:30000:1");
    }
    println!("table-1 bugs (bug:<name>:<scale_milli>, 1000 = paper window):");
    for name in registry::known_bugs() {
        println!("  bug:{name}:1000");
    }
    println!("multithreaded kernels:");
    println!("  mt:locked_counter:<threads>:<increments>");
    println!("  mt:racy_counter:<threads>:<increments>");
    println!("  mt:producer_consumer:<items>");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn option_returns_value_and_consumes_both_tokens() {
        let mut a = args(&["--codec", "lz", "out"]);
        assert_eq!(a.option("--codec").unwrap().as_deref(), Some("lz"));
        assert_eq!(a.next_positional().as_deref(), Some("out"));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn option_rejects_a_following_flag_as_its_value() {
        // Regression: `dump --codec --flush-workers 2 out/` used to record
        // a codec literally named `--flush-workers`.
        let mut a = args(&["--codec", "--flush-workers", "2", "out"]);
        let err = a.option("--codec").unwrap_err();
        assert_eq!(err.code, 2, "flag-as-value must be a usage error");
        assert!(err.message.contains("--codec"), "{}", err.message);
        assert!(err.message.contains("--flush-workers"), "{}", err.message);
    }

    #[test]
    fn option_at_end_still_needs_a_value() {
        let mut a = args(&["--codec"]);
        let err = a.option("--codec").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("needs a value"));
    }

    #[test]
    fn flag_is_consumed_and_detected() {
        let mut a = args(&["--no-embed-image", "out"]);
        assert!(a.flag("--no-embed-image"));
        assert!(!a.flag("--no-embed-image"));
        assert_eq!(a.next_positional().as_deref(), Some("out"));
        assert!(a.finish().is_ok());
    }

    #[test]
    fn unconsumed_arguments_fail_finish() {
        let a = args(&["--mystery"]);
        assert_eq!(a.finish().unwrap_err().code, 2);
    }
}
