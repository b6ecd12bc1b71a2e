//! The measuring side of the benchmark: timed calls into each layer, the
//! timing dump backend, and one BugNet incident (record, dump, load,
//! replay) as a closed-loop operation.
//!
//! Every layer is measured from outside, by timing calls to its public
//! functions. In a traced operation each of those calls is also a
//! `bugnet_trace` span whose category is the layer's name, and the timing
//! dump backend adds one `io` span per filesystem operation inside the dump
//! span, so self times (span minus children) fall out of the trace.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bugnet_compress::CodecId;
use bugnet_core::dump::{CrashDump, DumpOptions, DumpReplayReport};
use bugnet_core::io::{DumpIo, SharedDumpIo, StdIo};
use bugnet_core::recorder::{LogStore, SealedCheckpoint};
use bugnet_sim::{Machine, MachineBuilder, RecordingOptions, RunOutcome};
use bugnet_telemetry::Registry;
use bugnet_trace::clock::monotonic_ns;
use bugnet_trace::{ThreadTracer, TraceEvent, TraceSession};
use bugnet_types::{BugNetConfig, CheckpointId};
use bugnet_workloads::Workload;

/// Recorder configuration of every workload.
fn config() -> BugNetConfig {
    BugNetConfig::default().with_checkpoint_interval(100_000)
}

/// Events the benchmark's own timeline track can hold. A traced operation
/// emits up to about 60 spans, so a 15-second run stays well below this; a
/// run that overflows it fails instead of reporting from a partial trace.
const TRACE_CAPACITY: usize = 1 << 17;

/// Argument key carrying an operation's slot on its spans.
const SLOT_ARG: &str = "slot";

/// The bench's timeline track, shared by the timed calls and the timing
/// dump backend (which runs inside the machine's dump call).
type SharedTracer = Arc<Mutex<ThreadTracer>>;

fn emit(tracer: &SharedTracer, event: TraceEvent) {
    tracer
        .lock()
        .expect("no thread panics while holding the bench tracer")
        .emit(event);
}

/// Time spent in each kind of dump filesystem operation, plus counts.
#[derive(Debug, Default, Clone, Copy)]
struct IoTally {
    write_ns: u64,
    sync_dir_ns: u64,
    rename_ns: u64,
    other_ns: u64,
    ops: u64,
    fsyncs: u64,
    bytes: u64,
}

/// A [`DumpIo`] over the real filesystem that times every operation and,
/// while an operation is traced, emits it as an `io` span.
#[derive(Debug, Default)]
struct TimingIo {
    inner: StdIo,
    tally: IoTally,
    tracer: Option<SharedTracer>,
}

impl TimingIo {
    fn op<T>(
        &mut self,
        name: &'static str,
        slot: fn(&mut IoTally) -> &mut u64,
        f: impl FnOnce(&mut StdIo) -> io::Result<T>,
    ) -> io::Result<T> {
        let start = monotonic_ns();
        let result = f(&mut self.inner);
        let dur = monotonic_ns() - start;
        *slot(&mut self.tally) += dur;
        self.tally.ops += 1;
        if let Some(tracer) = &self.tracer {
            emit(tracer, TraceEvent::span(name, "io", start, dur));
        }
        result
    }
}

impl DumpIo for TimingIo {
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.op(
            "create_dir",
            |t| &mut t.other_ns,
            |io| io.create_dir_all(path),
        )
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.tally.fsyncs += 1;
        self.tally.bytes += bytes.len() as u64;
        self.op(
            "write",
            |t| &mut t.write_ns,
            |io| io.write_file(path, bytes),
        )
    }

    fn sync_dir(&mut self, path: &Path) -> io::Result<()> {
        self.tally.fsyncs += 1;
        self.op("sync_dir", |t| &mut t.sync_dir_ns, |io| io.sync_dir(path))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.op("rename", |t| &mut t.rename_ns, |io| io.rename(from, to))
    }

    fn remove_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.op("remove", |t| &mut t.other_ns, |io| io.remove_dir_all(path))
    }

    fn list_dir(&mut self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.op("list", |t| &mut t.other_ns, |io| io.list_dir(path))
    }
}

/// Counts summed over a fixed set of operations (the first pass over a
/// workload's inputs, the first two in a per-layer run), so the ratios built
/// from them repeat exactly for a given seed however many operations a run
/// fits in.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Instructions retained in the log store (and replayed).
    pub retained_instrs: u64,
    /// Stored (sealed) FLL + MRL bytes.
    pub log_stored_bytes: u64,
    /// Bytes of the dump directories.
    pub dump_bytes: u64,
    /// Loads executed.
    pub loads: u64,
    /// Loads logged in the FLL.
    pub loads_logged: u64,
    /// Logged loads found in the dictionary.
    pub dict_hits: u64,
    /// Row-serialized FLL bytes.
    pub fll_raw_bytes: u64,
    /// Row-serialized MRL bytes.
    pub mrl_raw_bytes: u64,
    /// L1 accesses of the bare runs.
    pub l1_accesses: u64,
    /// L1 misses of the bare runs.
    pub l1_misses: u64,
    /// L2 misses of the bare runs.
    pub l2_misses: u64,
    /// Coherence and DMA invalidations of the bare runs.
    pub invalidations: u64,
    /// Instructions of the bare runs.
    pub bare_instrs: u64,
    /// Raw bytes re-sealed (traced operations only, as are the rest).
    pub seal_raw: u64,
    /// Stored bytes the re-seal produced.
    pub seal_stored: u64,
    /// Interval replays bisection needed.
    pub bisect_probes: u64,
    /// Bisections run.
    pub bisects: u64,
    /// Dump I/O operations.
    pub io_ops: u64,
    /// Dump fsyncs.
    pub io_fsyncs: u64,
    /// Dump bytes written.
    pub io_bytes: u64,
    /// Dumps the I/O counts cover.
    pub io_dumps: u64,
}

/// Words in the yardstick's table: 4 MB, more than a core's private
/// caches hold, so the walk feels the shared cache and memory the way the
/// simulator does.
const YARDSTICK_WORDS: usize = 1 << 19;

/// Random read-modify-write steps in one yardstick reading (about 2 ms).
const YARDSTICK_STEPS: u64 = 300_000;

/// Least time between two yardstick readings: often enough that a run's
/// low readings are steady, seldom enough to cost about 2% of a run.
const YARDSTICK_EVERY_NS: u64 = 100_000_000;

/// The yardstick's low reading on the host this benchmark was defined on (a
/// two-core Xeon virtual machine, where its 10th percentile stays between
/// 1.7 and 2.0 ms while the host is quiet). Host times of a run whose low
/// reading is higher are reported as if it had been this.
pub const YARDSTICK_REFERENCE_MS: f64 = 2.0;

/// Tracing state of a `--trace 1` run.
struct Tracing {
    session: Arc<TraceSession>,
    tracer: SharedTracer,
}

/// Samples by key, each tagged with the slot it was measured in.
pub type Samples = BTreeMap<&'static str, Vec<(u64, f64)>>;

/// Everything one run accumulates.
pub struct Ctx {
    tracing: Option<Tracing>,
    traced: bool,
    io: Arc<Mutex<TimingIo>>,
    work: PathBuf,
    /// Samples by key (a metric name or an intermediate quantity).
    pub samples: Samples,
    /// The slot of the current operation: the input it runs, or its
    /// position in its pass. See [`bugbench::stats::best_by_slot`].
    pub slot: u64,
    /// Fixed-set counts, while [`Ctx::counting`] is on.
    pub totals: Totals,
    /// Whether operations currently add to [`Ctx::totals`].
    pub counting: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall time of the traced operations.
    pub traced_wall_ns: u64,
    /// Readings of the yardstick, in milliseconds.
    pub yardstick_ms: Vec<f64>,
    yardstick: Vec<u64>,
    yardstick_read_at: Option<u64>,
}

impl Ctx {
    /// A run writing its dumps under `work`; `trace` turns on the per-layer
    /// measurements.
    pub fn new(work: PathBuf, trace: bool) -> Ctx {
        Ctx {
            tracing: trace.then(|| {
                let session = Arc::new(TraceSession::with_capacity("bugbench", TRACE_CAPACITY));
                let tracer = Arc::new(Mutex::new(session.thread("bench")));
                Tracing { session, tracer }
            }),
            traced: false,
            io: Arc::new(Mutex::new(TimingIo::default())),
            work,
            samples: Samples::new(),
            slot: 0,
            totals: Totals::default(),
            counting: false,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            traced_wall_ns: 0,
            yardstick_ms: Vec::new(),
            yardstick: Vec::new(),
            yardstick_read_at: None,
        }
    }

    /// Takes one reading of the yardstick, unless the last one was less than
    /// [`YARDSTICK_EVERY_NS`] ago: a fixed random walk of read-modify-writes
    /// over a table larger than a core's private caches, which code outside
    /// this benchmark never changes. Other tenants of a shared host slow
    /// memory-bound work, the simulator's and the yardstick's alike, for tens
    /// of seconds at a time; the run's low readings tell how fast the host
    /// was while it ran.
    fn read_yardstick(&mut self) {
        let now = monotonic_ns();
        if self
            .yardstick_read_at
            .is_some_and(|at| now - at < YARDSTICK_EVERY_NS)
        {
            return;
        }
        self.yardstick_read_at = Some(now);
        if self.yardstick.is_empty() {
            self.yardstick = vec![1; YARDSTICK_WORDS];
        }
        let mask = self.yardstick.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        let start = monotonic_ns();
        for i in 0..YARDSTICK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            self.yardstick[j] = self.yardstick[j].wrapping_add(i);
            acc ^= self.yardstick[j.wrapping_mul(7).wrapping_add(1) & mask];
        }
        std::hint::black_box(acc);
        self.yardstick_ms
            .push((monotonic_ns() - start) as f64 / 1e6);
    }

    /// Whether this is a per-layer (`--trace 1`) run.
    pub fn per_layer(&self) -> bool {
        self.tracing.is_some()
    }

    /// Whether the current operation is traced.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// The trace session of a per-layer run.
    pub fn session(&self) -> Option<&Arc<TraceSession>> {
        self.tracing.as_ref().map(|t| &t.session)
    }

    /// Runs `op` as one closed-loop operation in `slot`, traced when
    /// `traced` (and this is a per-layer run). An `Err` counts as a failed
    /// operation.
    pub fn operation(
        &mut self,
        slot: u64,
        traced: bool,
        op: impl FnOnce(&mut Ctx) -> Result<(), String>,
    ) {
        self.read_yardstick();
        self.slot = slot;
        self.traced = traced && self.tracing.is_some();
        let tracer = self
            .tracing
            .as_ref()
            .filter(|_| self.traced)
            .map(|t| Arc::clone(&t.tracer));
        self.io.lock().expect("dump backend lock").tracer = tracer;
        let start = monotonic_ns();
        self.attempted += 1;
        if let Err(e) = op(self) {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        if self.traced {
            self.traced_wall_ns += monotonic_ns() - start;
        }
        self.traced = false;
        self.io.lock().expect("dump backend lock").tracer = None;
    }

    /// Calls `f` as a timed call into `layer`; returns its result and the
    /// seconds it took. The span carries the operation's slot.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = monotonic_ns();
        let out = f();
        let dur = monotonic_ns() - start;
        if let Some(t) = self.tracing.as_ref().filter(|_| self.traced) {
            let span = TraceEvent::span(name, layer, start, dur).with_arg(SLOT_ARG, self.slot);
            emit(&t.tracer, span);
        }
        (out, dur as f64 / 1e9)
    }

    /// Adds a sample in the current slot. A per-layer run reads its layers
    /// from the traced operations only; the untraced ones just supply the
    /// baseline of the benchmark's own tracing overhead.
    pub fn push(&mut self, key: &'static str, value: f64) {
        if self.per_layer() && !self.traced && key != E2E_PLAIN {
            return;
        }
        self.samples
            .entry(key)
            .or_default()
            .push((self.slot, value));
    }

    /// The directory the run writes under.
    pub fn work(&self) -> &Path {
        &self.work
    }

    /// Where dumps are written.
    pub fn dump_dir(&self) -> PathBuf {
        self.work.join("dump")
    }

    fn io_backend(&self) -> SharedDumpIo {
        Arc::clone(&self.io) as SharedDumpIo
    }

    fn take_io(&self) -> IoTally {
        std::mem::take(&mut self.io.lock().expect("dump backend lock").tally)
    }
}

/// One input of a workload: what runs, how it is recorded, and whether it
/// is expected to crash.
#[derive(Debug, Clone)]
pub struct Input {
    /// The program(s).
    pub workload: Workload,
    /// Recording knobs.
    pub opts: RecordingOptions,
    /// Whether the run must end in a fault that replay reproduces.
    pub expect_fault: bool,
}

fn check_outcome(input: &Input, bare: &RunOutcome, recorded: &RunOutcome) -> Result<(), String> {
    let name = &input.workload.name;
    if bare.total_committed() != recorded.total_committed() {
        return Err(format!(
            "{name}: recording changed the run ({} vs {} instructions)",
            recorded.total_committed(),
            bare.total_committed()
        ));
    }
    let fault = |o: &RunOutcome| o.faulted_thread().map(|t| (t.thread, t.fault_pc));
    if fault(bare) != fault(recorded) {
        return Err(format!("{name}: recording changed the fault"));
    }
    match (input.expect_fault, fault(recorded)) {
        (true, None) => Err(format!("{name}: expected a crash, the run ended cleanly")),
        (false, Some(_)) => Err(format!("{name}: unexpected fault")),
        _ => Ok(()),
    }
}

/// Checks a replay: every interval matched its recorded digest, and an
/// expected fault reproduced.
fn check_replay(name: &str, report: &DumpReplayReport, expect_fault: bool) -> Result<(), String> {
    if !report.all_match() {
        return Err(format!(
            "{name}: replay diverged in {} of {} intervals",
            report.divergences().len(),
            report.intervals.len()
        ));
    }
    if expect_fault
        && !report
            .intervals
            .iter()
            .any(|i| i.fault_reproduced == Some(true))
    {
        return Err(format!("{name}: the fault did not reproduce"));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}

/// The recorded half of an incident: the machine holding the log window,
/// and what the two runs cost.
pub struct Recorded {
    machine: Machine,
    bare_s: f64,
    record_s: f64,
    /// Instructions each run committed.
    instrs: u64,
}

fn record_machine(input: &Input, opts: RecordingOptions) -> (Machine, RunOutcome) {
    let mut machine = MachineBuilder::new()
        .bugnet(config())
        .recording(opts)
        .build_with_workload(&input.workload);
    let outcome = machine.run_to_completion();
    (machine, outcome)
}

/// Runs `input` on a bare machine and on a recording one, checks that
/// recording did not change the run, and samples the recording cost. A
/// traced operation also measures the layers inside the recorded run.
pub fn record(ctx: &mut Ctx, input: &Input) -> Result<Recorded, String> {
    let ((bare, bare_out), bare_s) = ctx.time("sim", "bare_run", || {
        let mut machine = MachineBuilder::new().build_with_workload(&input.workload);
        let outcome = machine.run_to_completion();
        (machine, outcome)
    });
    let cache = bare.cache_stats();
    // Outside the timed run, as the recorded machine's teardown is.
    ctx.time("sim", "teardown", move || drop(bare));
    let ((machine, out), record_s) = ctx.time("record", "recorded_run", || {
        record_machine(input, input.opts.clone())
    });
    check_outcome(input, &bare_out, &out)?;
    let instrs = out.total_committed().max(1);
    let per_instr = |s: f64| s * 1e9 / instrs as f64;
    ctx.push("record_ns_per_instr", per_instr(record_s));
    ctx.push("record_slowdown", record_s / bare_s);
    ctx.push("sim.exec_ns_per_instr", per_instr(bare_s));
    if ctx.counting {
        let report = machine.log_report();
        let store = machine.log_store().expect("recorder attached");
        let t = &mut ctx.totals;
        t.bare_instrs += bare_out.total_committed();
        t.l1_accesses += cache.accesses();
        t.l1_misses += cache.l1_misses;
        t.l2_misses += cache.l2_misses;
        t.invalidations += cache.invalidations;
        t.loads += report.loads_executed;
        t.loads_logged += report.loads_logged;
        t.dict_hits += report.dictionary_hits;
        for thread in store.threads() {
            t.retained_instrs += store.replay_window(thread);
            t.log_stored_bytes += store.stored_bytes(thread);
            for sealed in store.thread_logs(thread) {
                t.fll_raw_bytes += sealed.fll_raw_bytes;
                t.mrl_raw_bytes += sealed.mrl_raw_bytes;
            }
        }
    }
    if ctx.traced() {
        let (lz_s, columnar_s) = reseal(ctx, &machine);
        ctx.push("seal.ns_per_instr", per_instr(lz_s));
        ctx.push("columnar.ns_per_instr", per_instr(columnar_s));
        ctx.push("lz.ns_per_instr", per_instr(lz_s - columnar_s));
        ctx.push("recorder.ns_per_instr", per_instr(record_s - bare_s - lz_s));
        redrive_store(ctx, &machine);
        let observed = [
            (
                "telemetry.overhead_frac",
                RecordingOptions {
                    telemetry: Some(Arc::new(Registry::default())),
                    ..input.opts.clone()
                },
            ),
            (
                "trace.overhead_frac",
                RecordingOptions {
                    trace: Some(Arc::new(TraceSession::new("observed"))),
                    ..input.opts.clone()
                },
            ),
        ];
        for (key, opts) in observed {
            let (observed, observed_s) =
                ctx.time("record", "observed_run", || record_machine(input, opts));
            ctx.time("sim", "teardown", move || drop(observed));
            ctx.push(key, observed_s / record_s - 1.0);
        }
    }
    Ok(Recorded {
        machine,
        bare_s,
        record_s,
        instrs,
    })
}

/// Re-seals the retained window with the store's codec and with the
/// identity codec (the columnar transform alone); returns both times.
fn reseal(ctx: &mut Ctx, machine: &Machine) -> (f64, f64) {
    let store = machine.log_store().expect("recorder attached");
    let (mut lz_s, mut columnar_s) = (0.0, 0.0);
    for thread in store.threads() {
        for sealed in store.thread_logs(thread) {
            let logs = sealed.logs.clone();
            let (resealed, s) = ctx.time("seal", "seal", || {
                SealedCheckpoint::seal(logs, store.codec())
            });
            lz_s += s;
            let logs = sealed.logs.clone();
            columnar_s += ctx
                .time("columnar", "seal_identity", || {
                    SealedCheckpoint::seal(logs, CodecId::Identity)
                })
                .1;
            if ctx.counting {
                ctx.totals.seal_raw += resealed.fll_raw_bytes + resealed.mrl_raw_bytes;
                ctx.totals.seal_stored += resealed.fll_stored_bytes() + resealed.mrl_stored_bytes();
            }
        }
    }
    (lz_s, columnar_s)
}

/// Hands the retained (already sealed) intervals to a fresh two-lane store
/// through one write handle per recorded thread, each on its own OS thread,
/// then reconciles: the concurrent write path without the sealing.
fn redrive_store(ctx: &mut Ctx, machine: &Machine) {
    let source = machine.log_store().expect("recorder attached");
    let threads = source.threads();
    let per_thread: Vec<Vec<SealedCheckpoint>> = threads
        .iter()
        .map(|&t| source.thread_logs(t).to_vec())
        .collect();
    let intervals: usize = per_thread.iter().map(Vec::len).sum();
    let mut store = LogStore::with_shards(&config(), source.codec(), 2);
    let handles: Vec<_> = threads.iter().map(|&t| store.thread_handle(t)).collect();
    let (handoff_ns, _) = ctx.time("store", "handoff", || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = handles
                .into_iter()
                .zip(per_thread)
                .map(|(mut handle, logs)| {
                    scope.spawn(move || {
                        let start = monotonic_ns();
                        for sealed in logs {
                            handle.push_sealed(sealed);
                        }
                        handle.flush();
                        monotonic_ns() - start
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("hand-off thread panicked"))
                .sum::<u64>()
        })
    });
    let (_, reconcile_s) = ctx.time("store", "reconcile", || store.reconcile());
    ctx.push(
        "store.handoff_ns_per_interval",
        handoff_ns as f64 / intervals.max(1) as f64,
    );
    ctx.push("store.reconcile_ms", reconcile_s * 1e3);
}

/// Removes the dump an earlier operation left in `dir`, so that a timed
/// dump commits into a fresh directory, as a crash dump does.
fn clear(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(format!("{}: {e}", dir.display())),
        _ => Ok(()),
    }
}

/// Writes the recorded window as a crash dump through the timing backend;
/// returns its seconds. A traced operation also times a dump without the
/// program image.
pub fn dump(ctx: &mut Ctx, recorded: &mut Recorded) -> Result<f64, String> {
    let dir = ctx.dump_dir();
    ctx.time("bench", "clear", || clear(&dir)).0?;
    recorded.machine.set_dump_io(ctx.io_backend());
    ctx.take_io();
    let (written, dump_s) = ctx.time("dump", "write", || recorded.machine.write_crash_dump(&dir));
    written.map_err(|e| format!("dump failed: {e}"))?;
    let io = ctx.take_io();
    ctx.push("dump_ms", dump_s * 1e3);
    if ctx.counting {
        ctx.totals.dump_bytes += dir_bytes(&dir)?;
    }
    if ctx.traced() {
        let ms = |ns: u64| ns as f64 / 1e6;
        ctx.push("io.write_ms", ms(io.write_ns));
        ctx.push("io.sync_dir_ms", ms(io.sync_dir_ns));
        ctx.push("io.rename_ms", ms(io.rename_ns));
        ctx.push("io.other_ms", ms(io.other_ns));
        if ctx.counting {
            let t = &mut ctx.totals;
            t.io_ops += io.ops;
            t.io_fsyncs += io.fsyncs;
            t.io_bytes += io.bytes;
            t.io_dumps += 1;
        }
        let no_image = DumpOptions {
            embed_image: Some(false),
            ..DumpOptions::default()
        };
        let no_image_dir = ctx.work.join("dump-no-image");
        ctx.time("bench", "clear", || clear(&no_image_dir)).0?;
        let (written, no_image_s) = ctx.time("dump", "write_no_image", || {
            recorded
                .machine
                .write_crash_dump_with(&no_image_dir, &no_image)
        });
        written.map_err(|e| format!("image-less dump failed: {e}"))?;
        ctx.take_io();
        ctx.push("dump.image_ms", (dump_s - no_image_s) * 1e3);
    }
    Ok(dump_s)
}

/// Loads the dump; returns it and the seconds it took.
fn load(ctx: &mut Ctx) -> Result<(CrashDump, f64), String> {
    let dir = ctx.dump_dir();
    let (loaded, load_s) = ctx.time("dump", "load", || CrashDump::load(&dir));
    let loaded = loaded.map_err(|e| format!("load failed: {e}"))?;
    ctx.push("dump.load_ms", load_s * 1e3);
    if ctx.traced() {
        let bytes = dir_bytes(&dir)?;
        ctx.push("dump.load_mb_per_s", bytes as f64 / 1e6 / load_s);
    }
    Ok((loaded, load_s))
}

/// Load plus full replay; returns the seconds of both together.
pub fn full_replay(ctx: &mut Ctx, name: &str, expect_fault: bool) -> Result<f64, String> {
    let (loaded, load_s) = load(ctx)?;
    let (report, replay_s) = ctx.time("replayer", "replay", || loaded.replay(|_| None));
    ctx.time("dump", "teardown", move || drop(loaded));
    let report = report.map_err(|e| format!("{name}: replay failed: {e}"))?;
    check_replay(name, &report, expect_fault)?;
    let instrs = report.instructions().max(1) as f64;
    ctx.push("replay_ns_per_instr", (load_s + replay_s) * 1e9 / instrs);
    ctx.push("replayer.ns_per_instr", replay_s * 1e9 / instrs);
    Ok(load_s + replay_s)
}

/// Load plus a replay from the middle of the retained window to its end
/// (time travel to the checkpoint halfway through the first thread's
/// intervals); returns the seconds of both together.
pub fn seek(ctx: &mut Ctx, name: &str) -> Result<f64, String> {
    let (loaded, load_s) = load(ctx)?;
    let middle = loaded
        .threads
        .first()
        .and_then(|t| t.checkpoints.get(t.checkpoints.len() / 2))
        .map_or(CheckpointId(0), |cp| cp.fll.header.checkpoint);
    let (report, seek_s) = ctx.time("replayer", "seek", || loaded.replay_from(middle, |_| None));
    ctx.time("dump", "teardown", move || drop(loaded));
    let report = report.map_err(|e| format!("{name}: seek failed: {e}"))?;
    check_replay(name, &report, false)?;
    ctx.push("seek_ms", (load_s + seek_s) * 1e3);
    ctx.push("replayer.seek_ms", seek_s * 1e3);
    Ok(load_s + seek_s)
}

/// Load plus a bisection for the first divergent interval (none, in a
/// healthy dump).
pub fn bisect(ctx: &mut Ctx, name: &str) -> Result<(), String> {
    let (loaded, _) = load(ctx)?;
    let (report, bisect_s) = ctx.time("replayer", "bisect", || loaded.bisect(|_| None));
    ctx.time("dump", "teardown", move || drop(loaded));
    let report = report.map_err(|e| format!("{name}: bisect failed: {e}"))?;
    if !report.is_clean() || !report.unreplayable_threads.is_empty() {
        return Err(format!(
            "{name}: bisect found a divergence in a healthy dump"
        ));
    }
    ctx.push("replayer.bisect_ms", bisect_s * 1e3);
    if ctx.counting {
        ctx.totals.bisect_probes += report.probes;
        ctx.totals.bisects += 1;
    }
    Ok(())
}

/// Adds a sample of an operation's end-to-end time to the traced or the
/// untraced pool; the two give the tracing overhead of the benchmark
/// itself.
pub fn push_e2e(ctx: &mut Ctx, value: f64) {
    let key = if ctx.traced() {
        "e2e_traced"
    } else {
        E2E_PLAIN
    };
    ctx.push(key, value);
}

/// Sample key of the untraced end-to-end times.
const E2E_PLAIN: &str = "e2e_plain";

/// One incident end to end: record, dump, load and replay to the end (or
/// the fault), then seek to the middle of the window and replay from there.
/// Traced incidents also bisect.
pub fn incident(ctx: &mut Ctx, input: &Input) -> Result<(), String> {
    let name = input.workload.name.clone();
    let mut recorded = record(ctx, input)?;
    let dump_s = dump(ctx, &mut recorded)?;
    let replay_s = full_replay(ctx, &name, input.expect_fault)?;
    ctx.push("crash_to_replay_ms", (dump_s + replay_s) * 1e3);
    let seek_s = seek(ctx, &name)?;
    let e2e_s = recorded.bare_s + recorded.record_s + dump_s + replay_s + seek_s;
    push_e2e(ctx, e2e_s * 1e9 / recorded.instrs as f64);
    ctx.time("sim", "teardown", move || drop(recorded));
    if ctx.traced() {
        bisect(ctx, &name)?;
    }
    Ok(())
}
