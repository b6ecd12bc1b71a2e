//! The simulated machine: cores, caches, coherence, OS-lite and recorders.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bugnet_compress::CodecId;
use bugnet_core::dump::{self, DumpError, DumpFault, DumpManifest, DumpMeta, DumpOptions};
use bugnet_core::fll::TerminationCause;
use bugnet_core::io::{clean_orphaned_staging, DumpIo, ProbedIo, SharedDumpIo, StdIo};
use bugnet_core::recorder::{LogStore, ThreadRecorder};
use bugnet_core::stats::LogSizeReport;
use bugnet_core::{estimate_overhead, OverheadInputs, OverheadReport};
use bugnet_cpu::{Cpu, Fault, MemoryPort, StepEvent};
use bugnet_fdr::{FdrConfig, FdrLogReport, FdrRecorder};
use bugnet_isa::{Program, SyscallCode};
use bugnet_memsys::dma::DmaTransfer;
use bugnet_memsys::{
    AccessKind, CacheHierarchy, CacheStats, CoherenceAction, Directory, DmaEngine, FirstAccess,
    SparseMemory,
};
use bugnet_telemetry::Probe;
use bugnet_types::{
    Addr, BugNetConfig, ByteSize, CoreId, MachineConfig, ProcessId, SplitMix64, ThreadId,
    Timestamp, Word,
};
use bugnet_workloads::Workload;

use crate::flush::FlushPipeline;

/// How many instructions a core runs before the scheduler rotates to the next
/// core; this is the granularity of the sequentially-consistent interleaving.
const INTERLEAVE_BATCH: u64 = 64;

/// Everything that configures how a machine records and dumps, in one
/// struct — accepted whole by [`MachineBuilder::recording`], so new knobs
/// (like [`RecordingOptions::store_shards`]) land in one place instead of
/// growing the builder another setter.
#[derive(Debug, Clone)]
pub struct RecordingOptions {
    /// Back-end codec finished intervals are sealed with before entering
    /// the log store (and therefore the codec of any crash dump written
    /// from it).
    pub codec: CodecId,
    /// Background sealing threads; zero seals inline on the machine loop.
    /// See [`crate::flush`] for the ordering guarantee.
    pub flush_workers: usize,
    /// Hand-off lanes of the sharded [`LogStore`] (zero picks
    /// [`bugnet_core::recorder::DEFAULT_STORE_SHARDS`]). A resource knob,
    /// never a semantic one: recorded content is independent of shard count.
    pub store_shards: usize,
    /// Whether crash dumps embed each thread's program image, making them
    /// self-contained for offline replay. The image is code-only: replay
    /// takes every first load, data included, from the FLL.
    pub embed_image: bool,
    /// Directory to write a crash dump to as soon as a thread faults (the
    /// OS behaviour of paper §4.8); `None` disables auto-dumping.
    pub dump_on_crash: Option<PathBuf>,
    /// Crash-dump filesystem backend; `None` uses the real filesystem
    /// ([`StdIo`]). The fault-injection seam.
    pub dump_io: Option<SharedDumpIo>,
    /// Metrics registry the machine feeds while recording and dumping;
    /// `None` (the default) records nothing and stays off every hot path.
    /// When set, a telemetry snapshot is also embedded in any crash dump
    /// the machine writes — which makes dump bytes depend on run timing,
    /// so determinism-sensitive callers must leave this off.
    pub telemetry: Option<Arc<bugnet_telemetry::Registry>>,
    /// Timeline-tracing session the machine emits span/instant events
    /// into (recorder intervals, store seals, flush workers, dump I/O);
    /// `None` (the default) emits nothing and stays off every hot path.
    /// Same contract as `telemetry`: attaching a session never changes
    /// the bytes of a dump the machine writes.
    pub trace: Option<Arc<bugnet_trace::TraceSession>>,
}

impl Default for RecordingOptions {
    fn default() -> Self {
        RecordingOptions {
            codec: CodecId::Lz77,
            flush_workers: 0,
            store_shards: 0,
            embed_image: true,
            dump_on_crash: None,
            dump_io: None,
            telemetry: None,
            trace: None,
        }
    }
}

/// Builder for [`Machine`].
#[derive(Debug, Clone, Default)]
pub struct MachineBuilder {
    machine: MachineConfig,
    bugnet: Option<BugNetConfig>,
    fdr: Option<FdrConfig>,
    cores_explicit: bool,
    workload_spec: Option<String>,
    recording: RecordingOptions,
}

impl MachineBuilder {
    /// Starts from the default machine configuration with no recorders.
    pub fn new() -> Self {
        MachineBuilder::default()
    }

    /// Sets the machine configuration.
    pub fn machine(mut self, cfg: MachineConfig) -> Self {
        self.cores_explicit = self.cores_explicit || cfg.cores != MachineConfig::default().cores;
        self.machine = cfg;
        self
    }

    /// Sets the number of cores (keeping other machine parameters).
    pub fn cores(mut self, cores: usize) -> Self {
        self.machine.cores = cores.max(1);
        self.cores_explicit = true;
        self
    }

    /// Attaches a BugNet recorder with the given configuration.
    pub fn bugnet(mut self, cfg: BugNetConfig) -> Self {
        self.bugnet = Some(cfg);
        self
    }

    /// Attaches the FDR baseline model.
    pub fn fdr(mut self, cfg: FdrConfig) -> Self {
        self.fdr = Some(cfg);
        self
    }

    /// Sets every recording/dump knob at once. Fields left at their
    /// [`RecordingOptions::default`] values keep the builder defaults.
    pub fn recording(mut self, opts: RecordingOptions) -> Self {
        self.recording = opts;
        self
    }

    /// Sets the workload identity string recorded in crash-dump manifests
    /// (see `bugnet_workloads::registry`), so offline replay can rebuild the
    /// recorded program images. Defaults to the workload's display name.
    pub fn workload_spec(mut self, spec: impl Into<String>) -> Self {
        self.workload_spec = Some(spec.into());
        self
    }

    /// Builds the machine and loads the workload.
    ///
    /// The machine gets at least as many cores as the workload has threads
    /// unless the core count was set explicitly (in which case threads share
    /// cores through context switches).
    pub fn build_with_workload(self, workload: &Workload) -> Machine {
        let mut machine_cfg = self.machine;
        if !self.cores_explicit && machine_cfg.cores < workload.thread_count() {
            machine_cfg.cores = workload.thread_count();
        }
        let opts = self.recording;
        let mut machine = Machine::new(machine_cfg, self.bugnet, self.fdr, workload, &opts);
        machine.workload_spec = self.workload_spec.unwrap_or_else(|| workload.name.clone());
        machine.dump_dir = opts.dump_on_crash;
        machine.embed_image = opts.embed_image;
        machine.dump_io = opts.dump_io;
        if opts.flush_workers > 0 && machine.log_store.is_some() {
            let probe = machine.probe.sibling("flush");
            machine.pipeline = Some(FlushPipeline::new(opts.flush_workers, opts.codec, probe));
        }
        machine
    }
}

#[derive(Debug)]
struct ThreadCtx {
    id: ThreadId,
    cpu: Option<Cpu>,
    program: Arc<Program>,
    watch_index: Option<u32>,
    watch_last_commit: Option<u64>,
    finished: bool,
    fault: Option<(Fault, Addr)>,
    next_timer: u64,
    started: bool,
    last_scheduled: u64,
}

#[derive(Debug)]
struct CoreCtx {
    caches: CacheHierarchy,
    active_thread: Option<usize>,
    quantum_used: u64,
}

/// Final state of one thread after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadOutcome {
    /// The thread.
    pub thread: ThreadId,
    /// Instructions it committed.
    pub committed: u64,
    /// Whether it halted normally.
    pub halted: bool,
    /// The fault that terminated it, if any.
    pub fault: Option<Fault>,
    /// Program counter of the faulting instruction.
    pub fault_pc: Option<Addr>,
    /// Instruction count at the last commit of the watched (root-cause)
    /// instruction, if one was configured and committed.
    pub watch_last_commit: Option<u64>,
}

/// Result of running the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Per-thread outcomes.
    pub threads: Vec<ThreadOutcome>,
    /// Instructions committed across all threads.
    total_committed: u64,
    /// Timer interrupts delivered.
    pub interrupts: u64,
    /// System calls serviced.
    pub syscalls: u64,
    /// Context switches performed.
    pub context_switches: u64,
}

impl RunOutcome {
    /// Instructions committed across all threads.
    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    /// The first thread that faulted, if any.
    pub fn faulted_thread(&self) -> Option<&ThreadOutcome> {
        self.threads.iter().find(|t| t.fault.is_some())
    }

    /// Dynamic instructions between the last commit of the watched root-cause
    /// instruction and the crash, for the faulting thread (Table 1's window).
    pub fn bug_window(&self) -> Option<u64> {
        let t = self.faulted_thread()?;
        Some(t.committed - t.watch_last_commit?)
    }
}

/// The simulated multiprocessor with BugNet (and optionally FDR) attached.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    memory: SparseMemory,
    directory: Directory,
    dma: DmaEngine,
    cores: Vec<CoreCtx>,
    threads: Vec<ThreadCtx>,
    bugnet_cfg: Option<BugNetConfig>,
    recorders: Vec<ThreadRecorder>,
    log_store: Option<LogStore>,
    pipeline: Option<FlushPipeline>,
    fdr: Option<FdrRecorder>,
    clock: u64,
    input_rng: SplitMix64,
    interrupts: u64,
    syscalls: u64,
    context_switches: u64,
    total_committed: u64,
    workload_spec: String,
    dump_dir: Option<PathBuf>,
    embed_image: bool,
    dump_io: Option<SharedDumpIo>,
    /// Built from [`RecordingOptions::telemetry`] and
    /// [`RecordingOptions::trace`]; every observed layer (recorders, store,
    /// flush pipeline, dump I/O) gets a sibling of it on its own track.
    probe: Probe,
    crash_dump: Option<Result<DumpManifest, DumpError>>,
}

impl Machine {
    fn new(
        cfg: MachineConfig,
        bugnet_cfg: Option<BugNetConfig>,
        fdr_cfg: Option<FdrConfig>,
        workload: &Workload,
        opts: &RecordingOptions,
    ) -> Self {
        let process = ProcessId(1);
        let probe = Probe::new(opts.telemetry.clone(), opts.trace.clone(), "machine");
        let mut memory = SparseMemory::new();
        let mut threads = Vec::new();
        let mut recorders = Vec::new();
        for (i, spec) in workload.threads.iter().enumerate() {
            for seg in spec.program.data() {
                memory.write_block(seg.base, &seg.words);
            }
            let id = ThreadId(i as u32);
            threads.push(ThreadCtx {
                id,
                cpu: Some(Cpu::new(Arc::clone(&spec.program))),
                program: Arc::clone(&spec.program),
                watch_index: spec.watch_index,
                watch_last_commit: None,
                finished: false,
                fault: None,
                next_timer: cfg.timer_interrupt_period.unwrap_or(u64::MAX),
                started: false,
                last_scheduled: 0,
            });
            if let Some(bn) = &bugnet_cfg {
                let mut recorder = ThreadRecorder::new(bn.clone(), process, id);
                recorder.attach_probe(probe.sibling(format_args!("recorder-t{i}")));
                recorders.push(recorder);
            }
        }
        let cores = (0..cfg.cores)
            .map(|_| CoreCtx {
                caches: CacheHierarchy::new(cfg.cache),
                active_thread: None,
                quantum_used: 0,
            })
            .collect();
        let shards = if opts.store_shards == 0 {
            bugnet_core::recorder::DEFAULT_STORE_SHARDS
        } else {
            opts.store_shards
        };
        let log_store = bugnet_cfg.as_ref().map(|cfg| {
            let mut store = LogStore::with_shards(cfg, opts.codec, shards);
            store.attach_probe(probe.sibling("store"));
            store
        });
        Machine {
            directory: Directory::new(cfg.cache.l1.block_bytes),
            dma: DmaEngine::new(),
            cores,
            threads,
            bugnet_cfg,
            recorders,
            log_store,
            pipeline: None,
            fdr: fdr_cfg.map(FdrRecorder::new),
            clock: 0,
            input_rng: SplitMix64::new(0xD0_5EED),
            interrupts: 0,
            syscalls: 0,
            context_switches: 0,
            total_committed: 0,
            workload_spec: String::new(),
            dump_dir: None,
            embed_image: true,
            dump_io: None,
            probe,
            crash_dump: None,
            memory,
            cfg,
        }
    }

    /// The metrics registry the machine records into, if one was attached
    /// via [`RecordingOptions::telemetry`].
    pub fn telemetry(&self) -> Option<&Arc<bugnet_telemetry::Registry>> {
        self.probe.registry()
    }

    /// The tracing session the machine emits timeline events into, if one
    /// was attached via [`RecordingOptions::trace`].
    pub fn trace(&self) -> Option<&Arc<bugnet_trace::TraceSession>> {
        self.probe.session()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The BugNet configuration, if a recorder is attached.
    pub fn bugnet_config(&self) -> Option<&BugNetConfig> {
        self.bugnet_cfg.as_ref()
    }

    /// The memory-backed log store, if a recorder is attached.
    pub fn log_store(&self) -> Option<&LogStore> {
        self.log_store.as_ref()
    }

    /// The program image of a thread (needed to replay its logs).
    pub fn program_of(&self, thread: ThreadId) -> Option<Arc<Program>> {
        self.threads
            .iter()
            .find(|t| t.id == thread)
            .map(|t| Arc::clone(&t.program))
    }

    /// Main memory (read access, e.g. for footprint reporting).
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }

    /// Aggregate cache statistics across all cores.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for core in &self.cores {
            let s = core.caches.stats();
            total.l1_hits += s.l1_hits;
            total.l1_misses += s.l1_misses;
            total.l2_hits += s.l2_hits;
            total.l2_misses += s.l2_misses;
            total.l2_evictions += s.l2_evictions;
            total.invalidations += s.invalidations;
        }
        total
    }

    /// Log-size report over every retained checkpoint of every thread.
    pub fn log_report(&self) -> LogSizeReport {
        match &self.log_store {
            Some(store) => {
                let mut report = LogSizeReport::default();
                for thread in store.threads() {
                    report.merge(&LogSizeReport::from_logs(
                        store.thread_logs(thread).iter().map(|s| &s.logs),
                    ));
                }
                report
            }
            None => LogSizeReport::default(),
        }
    }

    /// FDR per-category log report, if the baseline model is attached.
    pub fn fdr_report(&self) -> Option<FdrLogReport> {
        self.fdr
            .as_ref()
            .map(|f| f.report(ByteSize::from_bytes(self.memory.footprint_bytes())))
    }

    /// Recording-overhead estimate for the execution so far.
    pub fn overhead_report(&self) -> OverheadReport {
        let report = self.log_report();
        let buffer = self
            .bugnet_cfg
            .as_ref()
            .map(|c| c.on_chip_buffer_area())
            .unwrap_or(ByteSize::ZERO);
        estimate_overhead(
            &self.cfg,
            &OverheadInputs {
                instructions: self.total_committed.max(1),
                log_bytes: report.total_size(),
                buffer,
                ipc: 1.0,
            },
        )
    }

    /// The workload identity string recorded in crash-dump manifests.
    pub fn workload_spec(&self) -> &str {
        &self.workload_spec
    }

    /// Result of the automatic crash dump, if one was attempted: the written
    /// manifest, or the [`DumpError`] that prevented it.
    pub fn crash_dump(&self) -> Option<&Result<DumpManifest, DumpError>> {
        self.crash_dump.as_ref()
    }

    /// Directory the automatic crash dump writes to, if configured.
    pub fn crash_dump_dir(&self) -> Option<&Path> {
        self.dump_dir.as_deref()
    }

    /// Writes the retained log window of every thread to `dir` as an on-disk
    /// crash-dump directory (paper §4.8). The manifest records the recorder
    /// configuration, the workload identity string and the first fault
    /// observed, if any; unless [`RecordingOptions::embed_image`] was turned
    /// off, each thread's code-only program image is embedded
    /// (content-addressed, format v5), so the dump replays offline without
    /// the workload registry.
    /// Callable at any point — after a crash for the paper's scenario, or
    /// after a clean run to archive the logs.
    ///
    /// The write is atomic: the dump is staged in a `<dir>.staging-<nonce>`
    /// sibling and renamed into place, so `dir` either appears complete or
    /// not at all. Orphaned staging directories a crashed prior run left
    /// next to `dir` are cleaned up (best-effort) first.
    ///
    /// # Errors
    ///
    /// Returns [`DumpError::NoRecorder`] when no BugNet recorder is attached,
    /// or [`DumpError::Io`] (with operation context) when the commit fails.
    pub fn write_crash_dump(&self, dir: &Path) -> Result<DumpManifest, DumpError> {
        self.write_crash_dump_with(dir, &DumpOptions::default())
    }

    /// Writes the retained log window with explicit [`DumpOptions`] — the
    /// machine's one dump path; [`Machine::write_crash_dump`] and the
    /// automatic crash-time dump pass the defaults.
    ///
    /// The backend is [`RecordingOptions::dump_io`] (the real filesystem by
    /// default), observed through a `dump-io` probe; orphaned staging
    /// litter is swept first.
    ///
    /// # Errors
    ///
    /// As [`Machine::write_crash_dump`].
    pub fn write_crash_dump_with(
        &self,
        dir: &Path,
        opts: &DumpOptions,
    ) -> Result<DumpManifest, DumpError> {
        let store = self.log_store.as_ref().ok_or(DumpError::NoRecorder)?;
        let embed = opts.embed_image.unwrap_or(self.embed_image);
        let meta = self.dump_meta(store);
        let run = |io: &mut dyn DumpIo| {
            let io = &mut ProbedIo::new(io, self.probe.sibling("dump-io"));
            // Best-effort: litter from a crashed prior run must never block
            // writing this crash's dump.
            let _ = clean_orphaned_staging(io, dir);
            let image_of = |thread: ThreadId| embed.then(|| self.program_of(thread)).flatten();
            dump::write_dump(dir, &meta, store, image_of, io)
        };
        match &self.dump_io {
            Some(shared) => {
                let mut guard = shared.lock().unwrap_or_else(|e| e.into_inner());
                run(&mut *guard)
            }
            None => run(&mut StdIo::new()),
        }
    }

    /// Replaces the [`DumpIo`] backend crash dumps are written through (see
    /// [`RecordingOptions::dump_io`]). Lets the fault-injection tests reuse
    /// one recorded run across many injected-failure dump attempts.
    pub fn set_dump_io(&mut self, io: SharedDumpIo) {
        self.dump_io = Some(io);
    }

    /// The dump metadata for the machine's current state: recorder config,
    /// workload identity, first observed fault, eviction context.
    fn dump_meta(&self, store: &LogStore) -> DumpMeta {
        let fault = self.threads.iter().find_map(|t| {
            t.fault.map(|(fault, pc)| DumpFault {
                thread: t.id,
                pc,
                icount: bugnet_types::InstrCount(t.cpu.as_ref().map(|c| c.icount().0).unwrap_or(0)),
                description: fault.to_string(),
            })
        });
        DumpMeta {
            workload: self.workload_spec.clone(),
            config: self
                .bugnet_cfg
                .clone()
                .expect("log store implies a recorder config"),
            created: Timestamp(self.clock),
            fault,
            evicted_checkpoints: store.evicted_checkpoints(),
            telemetry: self.telemetry().map(|r| r.snapshot()),
        }
    }

    /// The OS-side dump trigger: on the first fault, write the crash dump to
    /// the configured directory (at most once per machine).
    fn auto_dump_on_fault(&mut self) {
        let Some(dir) = self.dump_dir.clone() else {
            return;
        };
        if self.crash_dump.is_some() || !self.threads.iter().any(|t| t.fault.is_some()) {
            return;
        }
        self.crash_dump = Some(self.write_crash_dump(&dir));
    }

    fn recording(&self) -> bool {
        self.bugnet_cfg.is_some()
    }

    fn next_timestamp(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp(self.clock)
    }

    fn begin_interval(&mut self, thread: usize, core: usize) {
        if !self.recording() {
            return;
        }
        let arch = self.threads[thread]
            .cpu
            .as_ref()
            .expect("cpu present when beginning an interval")
            .arch_state();
        let ts = self.next_timestamp();
        self.recorders[thread].begin_interval(arch, ts);
        self.cores[core].caches.clear_first_load_bits();
    }

    fn end_interval(&mut self, thread: usize, cause: TerminationCause) {
        if !self.recording() {
            return;
        }
        let arch = self.threads[thread]
            .cpu
            .as_ref()
            .expect("cpu present when ending an interval")
            .arch_state();
        if let Some(logs) = self.recorders[thread].end_interval(cause, &arch) {
            match (&mut self.pipeline, &mut self.log_store) {
                // Parallel flush: sealing happens on the worker pool and
                // lands in the store's shard lanes; the drain calls
                // reconcile it in (per-thread order preserved).
                (Some(pipeline), Some(store)) => pipeline.submit(store, logs),
                (_, Some(store)) => store.push(logs),
                _ => {}
            }
        }
    }

    /// Non-blocking: moves finished background flushes into the store.
    fn drain_flush(&mut self) {
        if let (Some(pipeline), Some(store)) = (&mut self.pipeline, &mut self.log_store) {
            pipeline.drain_ready(store);
        }
    }

    /// Blocking: waits for every submitted interval to land in the store.
    fn flush_barrier(&mut self) {
        if let (Some(pipeline), Some(store)) = (&mut self.pipeline, &mut self.log_store) {
            pipeline.flush(store);
        }
    }

    fn restart_interval(&mut self, thread: usize, core: usize, cause: TerminationCause) {
        self.end_interval(thread, cause);
        if !self.threads[thread].finished {
            self.begin_interval(thread, core);
        }
    }

    fn map_thread(&mut self, core: usize) -> Option<usize> {
        if let Some(t) = self.cores[core].active_thread {
            if !self.threads[t].finished {
                return Some(t);
            }
            self.cores[core].active_thread = None;
        }
        // Pick the least-recently-scheduled unfinished thread not mapped on
        // any core, so a descheduled lock holder always runs again.
        let candidate = (0..self.threads.len())
            .filter(|&t| {
                !self.threads[t].finished && !self.cores.iter().any(|c| c.active_thread == Some(t))
            })
            .min_by_key(|&t| self.threads[t].last_scheduled)?;
        self.cores[core].active_thread = Some(candidate);
        self.cores[core].quantum_used = 0;
        self.clock += 1;
        self.threads[candidate].last_scheduled = self.clock;
        if self.threads[candidate].started {
            self.context_switches += 1;
        }
        self.threads[candidate].started = true;
        self.begin_interval(candidate, core);
        Some(candidate)
    }

    fn unmap_thread(&mut self, core: usize) {
        self.cores[core].active_thread = None;
        self.cores[core].quantum_used = 0;
    }

    fn handle_syscall(&mut self, thread: usize, core: usize, code: SyscallCode) {
        self.syscalls += 1;
        // The interval terminates before the kernel runs; kernel effects are
        // never recorded (paper §4.4-4.5).
        self.end_interval(thread, TerminationCause::Syscall);
        match code {
            SyscallCode::Exit => {
                if let Some(cpu) = self.threads[thread].cpu.as_mut() {
                    cpu.halt();
                }
                self.threads[thread].finished = true;
            }
            SyscallCode::ReadInput => {
                // r3 = buffer address, r4 = word count; the kernel services the
                // request with a DMA transfer that invalidates cached blocks.
                let (addr, count) = {
                    let cpu = self.threads[thread].cpu.as_ref().expect("cpu present");
                    let addr = cpu.regs().read(bugnet_isa::Reg::R3).get() as u64;
                    let count = cpu.regs().read(bugnet_isa::Reg::R4).get().clamp(1, 4096) as u64;
                    (Addr::new(addr), count)
                };
                if addr.raw() >= 0x1000 {
                    let words: Vec<Word> = (0..count)
                        .map(|_| {
                            if self.input_rng.chance(0.5) {
                                Word::new(self.input_rng.next_range(16) as u32)
                            } else {
                                Word::new(self.input_rng.next_u32())
                            }
                        })
                        .collect();
                    let transfer = DmaTransfer::new(addr, words);
                    let block_bytes = self.cfg.cache.l1.block_bytes;
                    let blocks = self.dma.perform(&mut self.memory, &transfer, block_bytes);
                    for block in blocks {
                        self.directory.dma_write(block);
                        for c in &mut self.cores {
                            c.caches.invalidate_block(block);
                        }
                    }
                    if let Some(fdr) = &mut self.fdr {
                        fdr.on_input(count);
                        fdr.on_dma(count * 4);
                    }
                }
            }
            SyscallCode::WriteOutput | SyscallCode::Yield | SyscallCode::Other(_) => {}
        }
        if !self.threads[thread].finished {
            self.begin_interval(thread, core);
        } else {
            self.unmap_thread(core);
        }
    }

    /// Executes up to `batch` instructions of the thread mapped on `core`.
    /// Returns the number of instructions committed.
    fn run_batch(&mut self, core: usize, batch: u64) -> u64 {
        let Some(thread) = self.map_thread(core) else {
            return 0;
        };
        let mut committed_here = 0u64;
        for _ in 0..batch {
            if self.threads[thread].finished {
                break;
            }
            let mut cpu = self.threads[thread]
                .cpu
                .take()
                .expect("cpu present for running thread");
            let pc_before = cpu.pc();
            let event = {
                let mut port = MachinePort {
                    machine: self,
                    thread,
                    core,
                };
                cpu.step(&mut port)
            };
            let commits = matches!(
                event,
                StepEvent::Committed | StepEvent::SyscallCommitted(_) | StepEvent::Halted
            );
            if commits {
                committed_here += 1;
                self.total_committed += 1;
                if let Some(watch) = self.threads[thread].watch_index {
                    if self.threads[thread].program.index_of_pc(pc_before) == Some(watch) {
                        self.threads[thread].watch_last_commit = Some(cpu.icount().0);
                    }
                }
                if let Some(fdr) = &mut self.fdr {
                    fdr.on_instruction();
                }
            }
            let icount = cpu.icount().0;
            let fault_pc = cpu.pc();
            self.threads[thread].cpu = Some(cpu);

            match event {
                StepEvent::Committed => {
                    let interval_full =
                        self.recording() && self.recorders[thread].record_committed_instruction();
                    if interval_full {
                        self.restart_interval(thread, core, TerminationCause::IntervalFull);
                    }
                    // Timer interrupt?
                    if icount >= self.threads[thread].next_timer {
                        self.interrupts += 1;
                        if let Some(fdr) = &mut self.fdr {
                            fdr.on_interrupt();
                        }
                        let period = self.cfg.timer_interrupt_period.unwrap_or(u64::MAX);
                        self.threads[thread].next_timer = icount.saturating_add(period.max(1));
                        self.restart_interval(thread, core, TerminationCause::Interrupt);
                    }
                }
                StepEvent::SyscallCommitted(code) => {
                    if self.recording() {
                        self.recorders[thread].record_committed_instruction();
                    }
                    self.handle_syscall(thread, core, code);
                    if matches!(code, SyscallCode::Yield) {
                        // Give another thread a chance on this core.
                        if self.threads.len() > self.cfg.cores {
                            self.end_interval(thread, TerminationCause::ContextSwitch);
                            self.context_switches += 1;
                            self.unmap_thread(core);
                        }
                        break;
                    }
                }
                StepEvent::Halted => {
                    if self.recording() {
                        self.recorders[thread].record_committed_instruction();
                    }
                    self.end_interval(thread, TerminationCause::ProgramExit);
                    self.threads[thread].finished = true;
                    self.unmap_thread(core);
                    break;
                }
                StepEvent::Faulted(fault) => {
                    if self.recording() {
                        self.recorders[thread].record_fault(fault_pc);
                    }
                    self.end_interval(thread, TerminationCause::Fault);
                    self.threads[thread].fault = Some((fault, fault_pc));
                    self.threads[thread].finished = true;
                    self.unmap_thread(core);
                    break;
                }
            }
        }
        // Preemptive context switch when threads outnumber cores.
        if self.threads.len() > self.cfg.cores {
            if let Some(t) = self.cores[core].active_thread {
                self.cores[core].quantum_used += committed_here;
                let waiting = (0..self.threads.len()).any(|i| {
                    !self.threads[i].finished
                        && !self.cores.iter().any(|c| c.active_thread == Some(i))
                });
                if waiting && self.cores[core].quantum_used >= self.cfg.context_switch_quantum {
                    self.end_interval(t, TerminationCause::ContextSwitch);
                    self.context_switches += 1;
                    self.unmap_thread(core);
                }
            }
        }
        committed_here
    }

    fn finalize_open_intervals(&mut self) {
        if !self.recording() {
            return;
        }
        for t in 0..self.threads.len() {
            if self.recorders[t].is_recording() {
                self.end_interval(t, TerminationCause::ContextSwitch);
            }
        }
        for core in &mut self.cores {
            core.active_thread = None;
            core.quantum_used = 0;
        }
    }

    /// Runs until every thread halts or faults, or `max_instructions` have
    /// committed in total. Open checkpoint intervals are closed (and their
    /// logs pushed) before returning.
    pub fn run(&mut self, max_instructions: u64) -> RunOutcome {
        let start = self.total_committed;
        'outer: while self.total_committed - start < max_instructions {
            let mut progressed = false;
            let fault_before = self.threads.iter().any(|t| t.fault.is_some());
            for core in 0..self.cores.len() {
                let done = self.run_batch(core, INTERLEAVE_BATCH);
                progressed |= done > 0;
                if self.total_committed - start >= max_instructions {
                    break 'outer;
                }
            }
            self.drain_flush();
            // A fault terminates the whole application (the OS dumps the logs).
            if !fault_before && self.threads.iter().any(|t| t.fault.is_some()) {
                break;
            }
            if !progressed {
                break;
            }
        }
        self.finalize_open_intervals();
        // Everything submitted must land in the store before anything reads
        // it (the crash dump below, or the caller after we return).
        self.flush_barrier();
        self.auto_dump_on_fault();
        self.outcome()
    }

    /// Runs until every thread halts or faults.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(u64::MAX)
    }

    fn outcome(&self) -> RunOutcome {
        RunOutcome {
            threads: self
                .threads
                .iter()
                .map(|t| ThreadOutcome {
                    thread: t.id,
                    committed: t.cpu.as_ref().map(|c| c.icount().0).unwrap_or(0),
                    halted: t.finished && t.fault.is_none(),
                    fault: t.fault.map(|(f, _)| f),
                    fault_pc: t.fault.map(|(_, pc)| pc),
                    watch_last_commit: t.watch_last_commit,
                })
                .collect(),
            total_committed: self.total_committed,
            interrupts: self.interrupts,
            syscalls: self.syscalls,
            context_switches: self.context_switches,
        }
    }
}

/// The recording memory path: every load/store of the running thread flows
/// through the coherence directory, the core's caches (first-load bits) and
/// the BugNet/FDR recorders before touching functional memory.
struct MachinePort<'a> {
    machine: &'a mut Machine,
    thread: usize,
    core: usize,
}

impl MachinePort<'_> {
    fn apply_coherence(&mut self, addr: Addr, action: &CoherenceAction) {
        let m = &mut *self.machine;
        for reply in &action.replies {
            let remote_core = reply.responder.0 as usize;
            if m.recording() {
                if let Some(remote_thread) = m.cores.get(remote_core).and_then(|c| c.active_thread)
                {
                    if remote_thread != self.thread && m.recorders[remote_thread].is_recording() {
                        let remote_state = m.recorders[remote_thread].remote_exec_state();
                        m.recorders[self.thread].record_coherence_reply(remote_state);
                    }
                }
            }
            if let Some(fdr) = &mut m.fdr {
                fdr.on_coherence_reply();
            }
        }
        for core_id in &action.invalidate {
            if let Some(core) = m.cores.get_mut(core_id.0 as usize) {
                core.caches.invalidate_block(addr);
            }
        }
    }
}

impl MemoryPort for MachinePort<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        let multi_core = self.machine.cores.len() > 1;
        if multi_core {
            let action =
                self.machine
                    .directory
                    .access(CoreId(self.core as u32), addr, AccessKind::Load);
            self.apply_coherence(addr, &action);
        }
        let m = &mut *self.machine;
        let value = m.memory.read(addr);
        let first = m.cores[self.core].caches.touch(addr, AccessKind::Load) == FirstAccess::MustLog;
        if m.recording() {
            m.recorders[self.thread].record_load(addr, value, first);
        }
        value
    }

    fn store(&mut self, addr: Addr, value: Word) {
        let multi_core = self.machine.cores.len() > 1;
        if multi_core {
            let action =
                self.machine
                    .directory
                    .access(CoreId(self.core as u32), addr, AccessKind::Store);
            self.apply_coherence(addr, &action);
        }
        let m = &mut *self.machine;
        let was_cached = m.cores[self.core].caches.contains_block(addr);
        m.cores[self.core].caches.touch(addr, AccessKind::Store);
        if let Some(fdr) = &mut m.fdr {
            fdr.on_store(addr, was_cached);
        }
        if m.recording() {
            m.recorders[self.thread].record_store(addr, value);
        }
        m.memory.write(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_workloads::bugs::BugSpec;
    use bugnet_workloads::mt;
    use bugnet_workloads::spec::SpecProfile;

    fn bugnet_cfg(interval: u64) -> BugNetConfig {
        BugNetConfig::default().with_checkpoint_interval(interval)
    }

    #[test]
    fn single_thread_run_commits_and_logs() {
        let workload = SpecProfile::gzip().build_workload(30_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(5_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(outcome.total_committed() > 20_000);
        assert!(outcome.threads[0].halted);
        let report = machine.log_report();
        assert!(report.intervals >= 4, "intervals = {}", report.intervals);
        assert!(report.loads_logged > 0);
        assert!(report.fll_size.bytes() > 0);
        // Interrupts from the default 1M period do not fire in 30k instructions,
        // so intervals come from the interval limit.
        assert_eq!(outcome.interrupts, 0);
    }

    #[test]
    fn timer_interrupts_terminate_intervals() {
        let workload = SpecProfile::crafty().build_workload(40_000, 1);
        let mut machine = MachineBuilder::new()
            .machine(MachineConfig {
                timer_interrupt_period: Some(7_000),
                ..MachineConfig::default()
            })
            .bugnet(bugnet_cfg(1_000_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(
            outcome.interrupts >= 4,
            "interrupts = {}",
            outcome.interrupts
        );
        let report = machine.log_report();
        assert!(report.intervals >= outcome.interrupts);
    }

    #[test]
    fn bug_workload_faults_and_records_window() {
        let spec = BugSpec::all()[0]; // bc, window 591
        let workload = spec.build(1.0);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        let faulted = outcome.faulted_thread().expect("the bug must fire");
        assert!(faulted.fault.is_some());
        let window = outcome.bug_window().expect("watched root cause");
        assert!(window.abs_diff(spec.paper_window) < 64, "window = {window}");
        // The faulting interval carries the fault trailer.
        let store = machine.log_store().unwrap();
        let logs = store.thread_logs(ThreadId(0));
        assert!(logs.last().unwrap().fll.fault.is_some());
    }

    #[test]
    fn fault_triggers_an_automatic_crash_dump() {
        use bugnet_core::dump::CrashDump;
        let dir = std::env::temp_dir().join(format!("bugnet-autodump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BugSpec::all()[0];
        let workload = spec.build(1.0);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000_000))
            .recording(RecordingOptions {
                dump_on_crash: Some(dir.clone()),
                ..RecordingOptions::default()
            })
            .workload_spec("bug:bc-1.06:1000")
            .build_with_workload(&workload);
        machine.run_to_completion();
        let manifest = machine
            .crash_dump()
            .expect("dump attempted")
            .as_ref()
            .expect("dump written");
        assert_eq!(manifest.workload, "bug:bc-1.06:1000");
        let fault = manifest.fault.as_ref().expect("fault recorded");
        assert_eq!(fault.thread, ThreadId(0));
        // The dump on disk loads back and replays to the recorded digests.
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest, *manifest);
        let report = dump
            .replay(|t| machine.program_of(t))
            .expect("dump replays");
        assert!(report.all_match(), "{:?}", report.divergences());
        let last = report.intervals.last().unwrap();
        assert_eq!(last.fault_reproduced, Some(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_dump_without_fault_or_recorder() {
        let dir = std::env::temp_dir().join(format!("bugnet-nodump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let workload = SpecProfile::gzip().build_workload(5_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(5_000))
            .recording(RecordingOptions {
                dump_on_crash: Some(dir.clone()),
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        assert!(machine.crash_dump().is_none(), "clean run must not dump");
        assert!(!dir.exists());
        // And an explicit dump without a recorder is a typed error.
        let mut bare = MachineBuilder::new().build_with_workload(&workload);
        bare.run_to_completion();
        assert!(matches!(
            bare.write_crash_dump(&dir),
            Err(bugnet_core::dump::DumpError::NoRecorder)
        ));
    }

    #[test]
    fn parallel_flush_dumps_are_byte_identical_to_serial() {
        let base = std::env::temp_dir().join(format!("bugnet-parflush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let workloads = [
            ("gzip", SpecProfile::gzip().build_workload(30_000, 1)),
            ("racy", mt::racy_counter(2, 400)),
        ];
        for (name, workload) in &workloads {
            let dump_with = |workers: usize| -> std::path::PathBuf {
                let dir = base.join(format!("{name}-{workers}"));
                let mut machine = MachineBuilder::new()
                    .bugnet(bugnet_cfg(5_000))
                    .recording(RecordingOptions {
                        flush_workers: workers,
                        ..RecordingOptions::default()
                    })
                    .build_with_workload(workload);
                machine.run_to_completion();
                machine.write_crash_dump(&dir).expect("dump writes");
                dir
            };
            let serial = dump_with(0);
            let parallel = dump_with(3);
            let mut names: Vec<String> = std::fs::read_dir(&serial)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            assert!(!names.is_empty());
            for file in &names {
                let a = std::fs::read(serial.join(file)).unwrap();
                let b = std::fs::read(parallel.join(file)).unwrap();
                assert_eq!(a, b, "{name}/{file} differs between serial and parallel");
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tracing_leaves_dump_bytes_identical() {
        let base = std::env::temp_dir().join(format!("bugnet-tracedump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let workload = mt::racy_counter(2, 400);
        let dump_with = |traced: bool| -> std::path::PathBuf {
            let dir = base.join(if traced { "traced" } else { "plain" });
            let mut machine = MachineBuilder::new()
                .bugnet(bugnet_cfg(1_000))
                .recording(RecordingOptions {
                    flush_workers: 2,
                    trace: traced.then(|| Arc::new(bugnet_trace::TraceSession::new("bugnet"))),
                    ..RecordingOptions::default()
                })
                .build_with_workload(&workload);
            machine.run_to_completion();
            machine.write_crash_dump(&dir).expect("dump writes");
            if traced {
                let session = machine.trace().expect("trace session attached");
                assert!(session.emitted_events() > 0, "tracing emitted nothing");
            }
            dir
        };
        let plain = dump_with(false);
        let traced = dump_with(true);
        let mut names: Vec<String> = std::fs::read_dir(&plain)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(!names.is_empty());
        for file in &names {
            let a = std::fs::read(plain.join(file)).unwrap();
            let b = std::fs::read(traced.join(file)).unwrap();
            assert_eq!(a, b, "{file} differs between traced and untraced runs");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn trace_round_trip_covers_record_dump_and_replay_stages() {
        use bugnet_core::dump::{CrashDump, ProgramSource, ReplayRequest};
        use bugnet_trace::{json, TraceSession};
        let dir = std::env::temp_dir().join(format!("bugnet-tracee2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Arc::new(TraceSession::with_capacity("bugnet-e2e", 1 << 16));
        let workload = mt::racy_counter(2, 400);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000))
            .recording(RecordingOptions {
                flush_workers: 2,
                trace: Some(Arc::clone(&session)),
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        machine.write_crash_dump(&dir).expect("dump writes");

        let dump = CrashDump::load(&dir).unwrap();
        let report = dump
            .replay_with(ReplayRequest {
                programs: ProgramSource::Embedded(|_| None),
                from: None,
                probe: Probe::new(None, Some(Arc::clone(&session)), "replay"),
            })
            .unwrap();
        assert!(report.all_match());

        let text = session.to_chrome_json();
        let doc = json::parse(&text).expect("trace JSON parses");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let mut cats = std::collections::BTreeSet::new();
        for ev in events {
            if let Some(cat) = ev.get("cat").and_then(|c| c.as_str()) {
                cats.insert(cat.to_string());
            }
        }
        for expected in ["recorder", "store", "flush", "io", "replay"] {
            assert!(
                cats.contains(expected),
                "missing category {expected:?} in {cats:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_and_timeline_agree_span_for_span() {
        use bugnet_core::dump::{CrashDump, ProgramSource, ReplayRequest};
        use bugnet_telemetry::{MetricValue, Registry};
        use bugnet_trace::{EventKind, TraceSession};
        use std::collections::BTreeMap;
        let base = std::env::temp_dir().join(format!("bugnet-agree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let workloads = [
            ("racy", mt::racy_counter(2, 400)),
            ("gzip", SpecProfile::gzip().build_workload(30_000, 1)),
        ];
        for (name, workload) in workloads {
            let registry = Arc::new(Registry::default());
            let session = Arc::new(TraceSession::with_capacity("agree", 1 << 16));
            let mut machine = MachineBuilder::new()
                .bugnet(bugnet_cfg(1_000))
                .recording(RecordingOptions {
                    flush_workers: 2,
                    telemetry: Some(Arc::clone(&registry)),
                    trace: Some(Arc::clone(&session)),
                    ..RecordingOptions::default()
                })
                .build_with_workload(&workload);
            machine.run_to_completion();
            let dir = base.join(name);
            machine.write_crash_dump(&dir).expect("dump writes");
            let report = CrashDump::load(&dir)
                .unwrap()
                .replay_with(ReplayRequest {
                    programs: ProgramSource::Embedded(|_| None),
                    from: None,
                    probe: Probe::new(Some(registry.clone()), Some(session.clone()), "replay"),
                })
                .unwrap();
            assert!(report.all_match());
            assert_eq!(session.dropped_events(), 0, "{name}: ring too small");

            let mut spans: BTreeMap<String, u64> = BTreeMap::new();
            for (_, _, events) in session.snapshot() {
                for e in events {
                    if let EventKind::Span { .. } = e.kind {
                        *spans.entry(format!("{}_{}_ns", e.cat, e.name)).or_default() += 1;
                    }
                }
            }
            let histograms: BTreeMap<String, u64> = registry
                .snapshot()
                .entries
                .into_iter()
                .filter_map(|(metric, value)| match value {
                    MetricValue::Histogram(h) if metric.ends_with("_ns") => Some((metric, h.count)),
                    _ => None,
                })
                .collect();
            assert_eq!(histograms, spans, "{name}: the two sinks disagree");
            for expected in [
                "recorder_interval_ns",
                "codec_compress_ns",
                "flush_barrier_ns",
            ] {
                assert!(spans.contains_key(expected), "{name}: no {expected}");
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn dump_options_select_format_codec_and_embedding() {
        use bugnet_core::dump::CrashDump;
        let base = std::env::temp_dir().join(format!("bugnet-dumpopts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let workload = SpecProfile::gzip().build_workload(10_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(5_000))
            .build_with_workload(&workload);
        machine.run_to_completion();

        // Defaults: v5, the store's codec, images embedded.
        let d4 = base.join("v5");
        machine
            .write_crash_dump_with(&d4, &DumpOptions::default())
            .unwrap();
        let dump = CrashDump::load(&d4).unwrap();
        assert_eq!(dump.manifest.version, dump::DUMP_VERSION);
        assert_eq!(dump.manifest.codec, CodecId::Lz77);
        assert!(dump.is_self_contained());

        // Embed override beats the machine's (default-on) setting.
        let d3 = base.join("noembed");
        machine
            .write_crash_dump_with(
                &d3,
                &DumpOptions {
                    embed_image: Some(false),
                },
            )
            .unwrap();
        let dump3 = CrashDump::load(&d3).unwrap();
        assert_eq!(dump3.manifest.version, dump::DUMP_VERSION);
        assert!(!dump3.is_self_contained());

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn recording_options_configure_in_one_call() {
        let workload = mt::racy_counter(2, 400);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000))
            .recording(RecordingOptions {
                codec: CodecId::Identity,
                flush_workers: 2,
                store_shards: 3,
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        let store = machine.log_store().unwrap();
        assert_eq!(store.codec(), CodecId::Identity);
        assert_eq!(store.shard_count(), 3);
        assert!(machine.log_report().intervals > 0);
    }

    #[test]
    fn columnar_seal_stores_gzip_fll_frames_at_least_1_5x_smaller() {
        // Row-order LZ gains about 2% on these frames; the columnar split
        // must store them at least 1.5x smaller. These are the frames a dump
        // of this run writes.
        let workload = SpecProfile::gzip().build_workload(200_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(50_000))
            .build_with_workload(&workload);
        machine.run_to_completion();
        let store = machine.log_store().unwrap();
        let sealed: Vec<_> = store
            .threads()
            .into_iter()
            .flat_map(|t| store.thread_logs(t))
            .collect();
        let raw: u64 = sealed.iter().map(|s| s.fll_raw_bytes).sum();
        let stored: u64 = sealed.iter().map(|s| s.fll_stored_bytes()).sum();
        let ratio = raw as f64 / stored as f64;
        assert!(
            ratio >= 1.5,
            "{} intervals: {raw} -> {stored} FLL bytes, ratio {ratio:.4}",
            sealed.len()
        );
    }

    #[test]
    fn codec_knob_controls_dump_codec() {
        use bugnet_core::dump::CrashDump;
        let dir = std::env::temp_dir().join(format!("bugnet-codecknob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let workload = SpecProfile::gzip().build_workload(10_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(5_000))
            .recording(RecordingOptions {
                codec: CodecId::Identity,
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        machine.write_crash_dump(&dir).unwrap();
        let dump = CrashDump::load(&dir).unwrap();
        assert_eq!(dump.manifest.codec, CodecId::Identity);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dumps_embed_program_images_by_default() {
        use bugnet_core::dump::CrashDump;
        let dir = std::env::temp_dir().join(format!("bugnet-embed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let workload = SpecProfile::gzip().build_workload(10_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(5_000))
            .build_with_workload(&workload);
        machine.run_to_completion();
        machine.write_crash_dump(&dir).unwrap();
        let dump = CrashDump::load(&dir).unwrap();
        assert!(dump.is_self_contained());
        // The embedded image is the program's code-only replay image.
        let program = machine.program_of(ThreadId(0)).unwrap();
        assert!(!program.data().is_empty());
        let embedded = dump.embedded_program(ThreadId(0)).unwrap();
        assert_eq!(embedded.as_ref(), &program.without_data());
        assert!(embedded.data().is_empty());
        // The embedded image alone replays the dump: no fallback consulted.
        let report = dump.replay(|_| None).expect("self-contained replay");
        assert!(report.all_match(), "{:?}", report.divergences());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn embed_image_off_produces_registry_dependent_dumps() {
        use bugnet_core::dump::CrashDump;
        let dir = std::env::temp_dir().join(format!("bugnet-noembed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let workload = SpecProfile::gzip().build_workload(10_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(5_000))
            .recording(RecordingOptions {
                embed_image: false,
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        machine.write_crash_dump(&dir).unwrap();
        let dump = CrashDump::load(&dir).unwrap();
        assert!(!dump.is_self_contained());
        assert_eq!(dump.manifest.embedded_images(), 0);
        assert!(!dir.join("image-0.bni").exists());
        // Without the image, replay needs the fallback (registry path).
        let report = dump.replay(|t| machine.program_of(t)).unwrap();
        assert!(report.all_match());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_dump_faults_are_typed_and_never_leave_partial_dumps() {
        use bugnet_core::dump::CrashDump;
        use bugnet_core::io::{FaultIo, FaultKind};
        use std::sync::Mutex;

        let base = std::env::temp_dir().join(format!("bugnet-iosweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        // One recorded run, many injected dump attempts against it.
        let workload = BugSpec::all()[0].build(1.0);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000_000))
            .build_with_workload(&workload);
        machine.run_to_completion();

        // Count the ops of a clean write (cleanup sweep + commit).
        let probe = Arc::new(Mutex::new(StdIo::new()));
        machine.set_dump_io(Arc::clone(&probe) as SharedDumpIo);
        machine.write_crash_dump(&base.join("probe")).unwrap();
        let total_ops = probe.lock().unwrap().ops();
        assert!(total_ops >= 7, "ops = {total_ops}");

        let staging_litter = |dir: &Path| -> Vec<String> {
            let stem = format!("{}.staging-", dir.file_name().unwrap().to_str().unwrap());
            std::fs::read_dir(&base)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.starts_with(&stem))
                .collect()
        };

        let kinds = [
            FaultKind::Enospc,
            FaultKind::Transient(TRANSIENT_BUDGET_EXCEEDING),
            FaultKind::ShortWrite(5),
            FaultKind::HardKill,
        ];
        for (k, kind) in kinds.into_iter().enumerate() {
            for fail_at in 0..total_ops {
                let dir = base.join(format!("dump-{k}-{fail_at}"));
                let io = Arc::new(Mutex::new(FaultIo::new(StdIo::new(), fail_at, kind)));
                machine.set_dump_io(Arc::clone(&io) as SharedDumpIo);
                match machine.write_crash_dump(&dir) {
                    // A failure swallowed by the best-effort cleanup sweep
                    // (or a post-rename sync failure reported as complete):
                    // the dump must be fully loadable.
                    Ok(_) => {
                        CrashDump::load(&dir).expect("a committed dump loads");
                    }
                    Err(DumpError::Io { op, .. }) => {
                        // Never partial: absent, or (only when the failing op
                        // was a post-visibility directory sync) complete.
                        if dir.exists() {
                            assert_eq!(op, bugnet_core::io::IoOp::SyncDir, "{kind:?}@{fail_at}");
                            CrashDump::load(&dir).expect("a visible dump is complete");
                        }
                    }
                    Err(other) => panic!("untyped dump failure: {other} ({kind:?}@{fail_at})"),
                }
                // One-shot faults never strand staging litter: the
                // best-effort cleanup after a failed commit removes it. A
                // sticky fault (hard kill, or transients outlasting the
                // retry budget) can make that cleanup fail too — then the
                // next dump through a healthy backend must sweep the litter.
                let litter = staging_litter(&dir);
                if !litter.is_empty() {
                    assert!(
                        matches!(kind, FaultKind::HardKill | FaultKind::Transient(_)),
                        "{kind:?}@{fail_at}: {litter:?}"
                    );
                    machine.set_dump_io(Arc::new(Mutex::new(StdIo::new())) as SharedDumpIo);
                    machine.write_crash_dump(&dir).unwrap();
                    assert!(staging_litter(&dir).is_empty(), "litter survived cleanup");
                    CrashDump::load(&dir).unwrap();
                }
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// More transient faults than the commit path's retry budget.
    const TRANSIENT_BUDGET_EXCEEDING: u32 = 16;

    #[test]
    fn auto_dump_failure_is_a_recorded_error_not_a_panic() {
        use bugnet_core::io::{FaultIo, FaultKind};
        use std::sync::Mutex;
        let dir = std::env::temp_dir().join(format!("bugnet-autofail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let workload = BugSpec::all()[0].build(1.0);
        let io = FaultIo::new(StdIo::new(), 1, FaultKind::Enospc);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000_000))
            .recording(RecordingOptions {
                dump_on_crash: Some(dir.clone()),
                dump_io: Some(Arc::new(Mutex::new(io))),
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        match machine.crash_dump() {
            Some(Err(DumpError::Io { source, .. })) => {
                assert_eq!(source.raw_os_error(), Some(28), "ENOSPC expected");
            }
            other => panic!("expected a typed i/o error, got {other:?}"),
        }
        assert!(!dir.exists(), "failed dump must not be visible");
    }

    #[test]
    fn dumps_sweep_orphaned_staging_from_prior_crashed_runs() {
        let base = std::env::temp_dir().join(format!("bugnet-orphans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir = base.join("dump");
        let orphan = base.join("dump.staging-dead");
        std::fs::create_dir_all(&orphan).unwrap();
        std::fs::write(orphan.join("manifest.bnd"), b"half-written").unwrap();
        let workload = BugSpec::all()[0].build(1.0);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000_000))
            .recording(RecordingOptions {
                dump_on_crash: Some(dir.clone()),
                ..RecordingOptions::default()
            })
            .build_with_workload(&workload);
        machine.run_to_completion();
        assert!(machine.crash_dump().unwrap().is_ok());
        assert!(!orphan.exists(), "orphaned staging dir must be swept");
        assert!(dir.exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn multithreaded_run_generates_race_log_entries() {
        let workload = mt::racy_counter(2, 2_000);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(100_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(outcome.threads.iter().all(|t| t.halted));
        let report = machine.log_report();
        assert!(
            report.mrl_entries > 0,
            "expected coherence traffic to be logged"
        );
    }

    #[test]
    fn more_threads_than_cores_context_switch() {
        let workload = mt::locked_counter(3, 500);
        let mut machine = MachineBuilder::new()
            .machine(MachineConfig {
                cores: 2,
                context_switch_quantum: 2_000,
                ..MachineConfig::default()
            })
            .cores(2)
            .bugnet(bugnet_cfg(1_000_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(outcome.threads.iter().all(|t| t.halted), "{outcome:?}");
        assert!(outcome.context_switches > 0);
    }

    #[test]
    fn syscall_input_is_not_logged_until_loaded() {
        // A program that asks the kernel for input and then reads it.
        use bugnet_isa::{ProgramBuilder, Reg};
        let mut b = ProgramBuilder::new("reader");
        let buf = b.alloc_zeroed(64);
        b.li_addr(Reg::R3, buf);
        b.li(Reg::R4, 64);
        b.syscall(SyscallCode::ReadInput);
        // Read the first 32 words of the buffer.
        b.li(Reg::R5, 0);
        b.li(Reg::R6, 32);
        let top = b.here();
        b.alu_imm(bugnet_isa::AluOp::Shl, Reg::R7, Reg::R5, 2);
        b.alu(bugnet_isa::AluOp::Add, Reg::R7, Reg::R3, Reg::R7);
        b.load(Reg::R8, Reg::R7, 0);
        b.alu_imm(bugnet_isa::AluOp::Add, Reg::R5, Reg::R5, 1);
        b.branch(bugnet_isa::BranchCond::Lt, Reg::R5, Reg::R6, top);
        b.halt();
        let workload = Workload::single("reader", Arc::new(b.build()));
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(1_000_000))
            .fdr(FdrConfig::default())
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert_eq!(outcome.syscalls, 1);
        let report = machine.log_report();
        // Only the words actually loaded (32) are logged, not the whole DMA.
        assert!(report.loads_logged >= 32);
        assert!(report.loads_logged < 64 + 8);
        let fdr = machine.fdr_report().unwrap();
        assert_eq!(fdr.input_log.bytes(), 64 * 8);
        assert!(fdr.dma_log.bytes() >= 256);
    }

    #[test]
    fn overhead_is_negligible_for_spec_like_runs() {
        let workload = SpecProfile::parser().build_workload(50_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(10_000))
            .build_with_workload(&workload);
        machine.run_to_completion();
        let overhead = machine.overhead_report();
        assert!(overhead.overhead_percent() < 0.1);
    }

    #[test]
    fn run_with_budget_stops_early() {
        let workload = SpecProfile::art().build_workload(1_000_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(bugnet_cfg(10_000))
            .build_with_workload(&workload);
        let outcome = machine.run(20_000);
        assert!(outcome.total_committed() >= 20_000);
        assert!(outcome.total_committed() < 25_000);
        assert!(!outcome.threads[0].halted);
    }
}
