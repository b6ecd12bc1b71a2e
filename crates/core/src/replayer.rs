//! Deterministic replay from First-Load Logs (paper §5).
//!
//! Replaying one checkpoint interval needs only the program binary (mapped at
//! the recorded addresses), the FLL header's architectural state, and the
//! FLL's first-load records. Data memory starts empty: every load either
//! consumes a logged value (and deposits it into the simulated memory) or
//! reads a location already produced earlier in the interval by a store or a
//! previously-consumed logged load. Synchronous interrupts and everything the
//! kernel did between intervals never need to be replayed — their memory
//! effects show up as logged first loads of the following interval.
//!
//! An interval replays in one batch of its recorded instruction count
//! ([`Cpu::run`]); the instructions committed are the CPU's instruction
//! count afterwards. The replay port asks the interpreter to stop right
//! after a load that hit a corrupt record or a dictionary desync, so a
//! replay fails at the access that raised the error, as stepping would. A
//! hooked replay ([`Replayer::replay_interval_sampled`], which sees every
//! PC) and a traced one ([`Replayer::with_trace_capture`], which stamps
//! every operation with its instruction count) step one instruction at a
//! time through the same loop.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bugnet_cpu::{ArchState, Cpu, Fault, MemoryPort, StepEvent};
use bugnet_isa::Program;
use bugnet_memsys::SparseMemory;
use bugnet_types::{Addr, CheckpointId, ThreadId, Word};

use crate::dictionary::ValueDictionary;
use crate::digest::ExecutionDigest;
use crate::fll::{EncodedValue, FirstLoadLog, FllDecodeError, FllRecordReader, LoadRecord};
use crate::recorder::CheckpointLogs;

/// Error raised when a log cannot be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The FLL header's program counter does not map into the program image.
    BadInitialState(Fault),
    /// The record stream was corrupt or truncated.
    Decode(FllDecodeError),
    /// A logged dictionary rank did not resolve to a value (the encoder and
    /// replayer dictionaries diverged, i.e. the log is corrupt).
    DictionaryDesync {
        /// Interval in which the desynchronization was detected.
        checkpoint: CheckpointId,
        /// The unresolvable rank.
        rank: usize,
    },
    /// The interval replayed to completion but logged records were left over.
    LeftoverRecords {
        /// Interval with leftover records.
        checkpoint: CheckpointId,
        /// How many records were never consumed.
        remaining: u64,
    },
    /// The thread halted or faulted before reaching the interval's recorded
    /// instruction count.
    PrematureStop {
        /// Interval that stopped early.
        checkpoint: CheckpointId,
        /// Instructions replayed before the stop.
        replayed: u64,
        /// Instructions the log says the interval contains.
        expected: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadInitialState(fault) => {
                write!(f, "cannot initialize replay state: {fault}")
            }
            ReplayError::Decode(e) => write!(f, "cannot decode first-load log: {e}"),
            ReplayError::DictionaryDesync { checkpoint, rank } => write!(
                f,
                "dictionary desynchronized in {checkpoint}: rank {rank} has no value"
            ),
            ReplayError::LeftoverRecords {
                checkpoint,
                remaining,
            } => write!(f, "{remaining} unconsumed records left in {checkpoint}"),
            ReplayError::PrematureStop {
                checkpoint,
                replayed,
                expected,
            } => write!(
                f,
                "replay of {checkpoint} stopped after {replayed} of {expected} instructions"
            ),
        }
    }
}

impl Error for ReplayError {}

impl From<FllDecodeError> for ReplayError {
    fn from(e: FllDecodeError) -> Self {
        ReplayError::Decode(e)
    }
}

/// One replayed memory operation, captured when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Committed instructions in the interval before the instruction that
    /// performed this operation.
    pub ic: u64,
    /// Word address accessed.
    pub addr: Addr,
    /// Value loaded or stored.
    pub value: Word,
    /// Whether the operation was a store.
    pub is_store: bool,
}

/// Result of replaying one checkpoint interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedInterval {
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier of the interval.
    pub checkpoint: CheckpointId,
    /// Instructions replayed (equals the FLL's instruction count on success).
    pub instructions: u64,
    /// Loads whose value came from the log.
    pub loads_from_log: u64,
    /// Loads whose value was regenerated from the simulated memory.
    pub loads_from_memory: u64,
    /// Architectural state at the end of the interval.
    pub final_state: ArchState,
    /// Execution digest of the replay (compare with the recorded digest).
    pub digest: ExecutionDigest,
    /// Fault observed when stepping past the end of a fault-terminated
    /// interval: `(faulting PC, fault)`.
    pub observed_fault: Option<(Addr, Fault)>,
    /// Memory-operation trace (empty unless tracing was requested).
    pub trace: Vec<MemOp>,
}

impl ReplayedInterval {
    /// Total loads replayed.
    pub fn loads(&self) -> u64 {
        self.loads_from_log + self.loads_from_memory
    }
}

/// Memory port that feeds logged first-load values into the simulated memory.
struct ReplayPort<'a> {
    memory: SparseMemory,
    reader: FllRecordReader<'a>,
    pending: Option<LoadRecord>,
    dictionary: ValueDictionary,
    loads_since_log: u64,
    loads_from_log: u64,
    loads_from_memory: u64,
    digest: ExecutionDigest,
    current_ic: u64,
    trace: Option<Vec<MemOp>>,
    error: Option<ReplayError>,
    checkpoint: CheckpointId,
}

impl ReplayPort<'_> {
    fn advance_record(&mut self) {
        self.pending = match self.reader.next_record() {
            Ok(rec) => rec,
            Err(e) => {
                self.error = Some(ReplayError::Decode(e));
                None
            }
        };
    }
}

impl MemoryPort for ReplayPort<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        let from_log = self
            .pending
            .as_ref()
            .is_some_and(|rec| self.loads_since_log == rec.skipped);
        let value = if from_log {
            let rec = self.pending.expect("checked above");
            let value = match rec.value {
                EncodedValue::Full(w) => {
                    self.dictionary.observe(w);
                    w
                }
                // The record names the hit's rank: update that entry
                // directly instead of probing the index for its value.
                EncodedValue::DictRank(rank) => match self.dictionary.observe_rank(rank) {
                    Some(w) => w,
                    None => {
                        if self.error.is_none() {
                            self.error = Some(ReplayError::DictionaryDesync {
                                checkpoint: self.checkpoint,
                                rank,
                            });
                        }
                        Word::ZERO
                    }
                },
            };
            self.memory.write(addr, value);
            self.loads_since_log = 0;
            self.loads_from_log += 1;
            self.advance_record();
            value
        } else {
            self.loads_since_log += 1;
            self.loads_from_memory += 1;
            let value = self.memory.read(addr);
            self.dictionary.observe(value);
            value
        };
        self.digest.record_load(addr, value);
        if let Some(trace) = &mut self.trace {
            trace.push(MemOp {
                ic: self.current_ic,
                addr,
                value,
                is_store: false,
            });
        }
        value
    }

    fn store(&mut self, addr: Addr, value: Word) {
        self.memory.write(addr, value);
        self.digest.record_store(addr, value);
        if let Some(trace) = &mut self.trace {
            trace.push(MemOp {
                ic: self.current_ic,
                addr,
                value,
                is_store: true,
            });
        }
    }

    /// A decode error or a dictionary desync ends the batch at the load
    /// that raised it.
    fn stop_requested(&self) -> bool {
        self.error.is_some()
    }
}

/// Replays First-Load Logs against a program image.
#[derive(Debug, Clone)]
pub struct Replayer {
    program: Arc<Program>,
    capture_trace: bool,
}

impl Replayer {
    /// Creates a replayer for the given program image (which must be the
    /// exact binary that was recorded, mapped at the same addresses).
    pub fn new(program: Arc<Program>) -> Self {
        Replayer {
            program,
            capture_trace: false,
        }
    }

    /// Enables capture of a per-operation memory trace in the results (used
    /// by the cross-thread ordering and data-race analyses).
    pub fn with_trace_capture(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// The program this replayer re-executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Replays one checkpoint interval from its FLL.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] if the log is corrupt, the initial state is
    /// invalid, or the replay diverges from the recorded instruction count.
    pub fn replay_interval(&self, fll: &FirstLoadLog) -> Result<ReplayedInterval, ReplayError> {
        self.replay_interval_inner(fll, None)
    }

    /// Replays one checkpoint interval like [`Replayer::replay_interval`],
    /// handing the PC of every dispatched instruction (including the final
    /// faulting one) to `hook`. This is the execution-sampling entry the
    /// dump profiler uses to build hot-PC histograms; the replay result is
    /// identical to the un-hooked variant.
    ///
    /// # Errors
    ///
    /// Same as [`Replayer::replay_interval`].
    pub fn replay_interval_sampled(
        &self,
        fll: &FirstLoadLog,
        hook: &mut dyn FnMut(Addr),
    ) -> Result<ReplayedInterval, ReplayError> {
        self.replay_interval_inner(fll, Some(hook))
    }

    fn replay_interval_inner(
        &self,
        fll: &FirstLoadLog,
        mut hook: Option<&mut dyn FnMut(Addr)>,
    ) -> Result<ReplayedInterval, ReplayError> {
        let mut cpu = Cpu::new(Arc::clone(&self.program));
        cpu.set_arch_state(&fll.header.arch)
            .map_err(ReplayError::BadInitialState)?;

        let codec = fll.codec();
        let mut port = ReplayPort {
            memory: SparseMemory::new(),
            reader: fll.records_reader(),
            pending: None,
            dictionary: ValueDictionary::new(
                codec.dictionary_entries,
                codec.dictionary_counter_bits,
            ),
            loads_since_log: 0,
            loads_from_log: 0,
            loads_from_memory: 0,
            digest: ExecutionDigest::new(),
            current_ic: 0,
            // Loads dominate the trace; pre-size it so tracing a whole
            // interval does not reallocate per operation. `loads_executed`
            // comes from the log, which may be corrupt — clamp the hint so a
            // bad value cannot trigger a huge up-front allocation.
            trace: if self.capture_trace {
                Some(Vec::with_capacity(
                    fll.loads_executed.min(fll.instructions).min(1 << 22) as usize,
                ))
            } else {
                None
            },
            error: None,
            checkpoint: fll.header.checkpoint,
        };
        port.advance_record();

        // An unhooked, untraced replay runs the interval in one batch of
        // its remaining instructions, which the port ends early at an
        // error. A hook sees every PC and a trace stamps every operation
        // with its instruction count, so those step one at a time.
        let stepped = hook.is_some() || port.trace.is_some();
        let start = cpu.icount();
        let mut committed = 0u64;
        while committed < fll.instructions {
            port.current_ic = committed;
            let event = match hook.as_deref_mut() {
                Some(h) => cpu.step_hooked(&mut port, h),
                None if stepped => cpu.step(&mut port),
                None => cpu.run(&mut port, fll.instructions - committed),
            };
            committed = cpu.icount().since(start);
            if let Some(err) = port.error.take() {
                return Err(err);
            }
            if matches!(event, StepEvent::Halted | StepEvent::Faulted(_)) {
                break;
            }
        }
        port.digest.record_instructions(committed);

        if committed < fll.instructions {
            return Err(ReplayError::PrematureStop {
                checkpoint: fll.header.checkpoint,
                replayed: committed,
                expected: fll.instructions,
            });
        }

        let final_state = cpu.arch_state();
        port.digest.record_final_state(&final_state);

        // If the interval ended with a fault, the next instruction must fault
        // again during replay; that is how the developer lands exactly on the
        // crashing instruction.
        let observed_fault = if fll.fault.is_some() {
            let pc_before = cpu.pc();
            let event = match hook {
                Some(h) => cpu.step_hooked(&mut port, h),
                None => cpu.step(&mut port),
            };
            match event {
                StepEvent::Faulted(fault) => Some((pc_before, fault)),
                _ => None,
            }
        } else {
            None
        };

        let leftover = port.reader.remaining() + u64::from(port.pending.is_some());
        if leftover > 0 {
            return Err(ReplayError::LeftoverRecords {
                checkpoint: fll.header.checkpoint,
                remaining: leftover,
            });
        }

        Ok(ReplayedInterval {
            thread: fll.header.thread,
            checkpoint: fll.header.checkpoint,
            instructions: committed,
            loads_from_log: port.loads_from_log,
            loads_from_memory: port.loads_from_memory,
            final_state,
            digest: port.digest,
            observed_fault,
            trace: port.trace.unwrap_or_default(),
        })
    }

    /// Replays every retained interval of a thread, oldest first.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReplayError`] encountered.
    pub fn replay_thread(
        &self,
        logs: &[CheckpointLogs],
    ) -> Result<Vec<ReplayedInterval>, ReplayError> {
        logs.iter().map(|l| self.replay_interval(&l.fll)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitStream;
    use crate::fll::{FllEncoder, TerminationCause};
    use crate::recorder::ThreadRecorder;
    use bugnet_cpu::SparseMemoryPort;
    use bugnet_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
    use bugnet_memsys::{AccessKind, CacheHierarchy, FirstAccess};
    use bugnet_types::{BugNetConfig, CacheConfig, ProcessId, Timestamp};

    /// Records a single-interval execution of `program` by running it with a
    /// cache-driven recorder, then returns the logs and the recorded digest.
    fn record_one_interval(
        program: &Arc<Program>,
        cfg: &BugNetConfig,
        max_steps: u64,
    ) -> CheckpointLogs {
        struct RecordingPort<'a> {
            memory: SparseMemory,
            caches: CacheHierarchy,
            recorder: &'a mut ThreadRecorder,
        }
        impl MemoryPort for RecordingPort<'_> {
            fn load(&mut self, addr: Addr) -> Word {
                let value = self.memory.read(addr);
                let first = self.caches.touch(addr, AccessKind::Load) == FirstAccess::MustLog;
                self.recorder.record_load(addr, value, first);
                value
            }
            fn store(&mut self, addr: Addr, value: Word) {
                self.caches.touch(addr, AccessKind::Store);
                self.memory.write(addr, value);
                self.recorder.record_store(addr, value);
            }
        }

        let mut recorder = ThreadRecorder::new(cfg.clone(), ProcessId(1), ThreadId(0));
        let mut cpu = Cpu::new(Arc::clone(program));
        recorder.begin_interval(cpu.arch_state(), Timestamp(0));
        let mut memory = SparseMemory::new();
        for seg in program.data() {
            memory.write_block(seg.base, &seg.words);
        }
        let mut port = RecordingPort {
            memory,
            caches: CacheHierarchy::new(CacheConfig::default()),
            recorder: &mut recorder,
        };
        let mut cause = TerminationCause::IntervalFull;
        for _ in 0..max_steps {
            match cpu.step(&mut port) {
                StepEvent::Committed | StepEvent::SyscallCommitted(_) => {
                    if port.recorder.record_committed_instruction() {
                        break;
                    }
                }
                StepEvent::Halted => {
                    port.recorder.record_committed_instruction();
                    cause = TerminationCause::ProgramExit;
                    break;
                }
                StepEvent::Faulted(_) => {
                    port.recorder.record_fault(cpu.pc());
                    cause = TerminationCause::Fault;
                    break;
                }
            }
        }
        let final_state = cpu.arch_state();
        recorder.end_interval(cause, &final_state).unwrap()
    }

    fn array_walk_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new("walk");
        let arr = b.alloc_data_array(64, |i| (i as u32) * 3 + 1);
        let out = b.alloc_data_word(0);
        b.li_addr(Reg::R3, arr);
        b.li(Reg::R4, 0); // index
        b.li(Reg::R5, 64); // length
        b.li(Reg::R6, 0); // sum
        let top = b.here();
        b.alu_imm(AluOp::Shl, Reg::R7, Reg::R4, 2);
        b.alu(AluOp::Add, Reg::R7, Reg::R3, Reg::R7);
        b.load(Reg::R8, Reg::R7, 0);
        b.alu(AluOp::Add, Reg::R6, Reg::R6, Reg::R8);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.branch(BranchCond::Lt, Reg::R4, Reg::R5, top);
        b.li_addr(Reg::R9, out);
        b.store(Reg::R6, Reg::R9, 0);
        // Walk the array a second time: these loads are not first loads.
        b.li(Reg::R4, 0);
        let top2 = b.here();
        b.alu_imm(AluOp::Shl, Reg::R7, Reg::R4, 2);
        b.alu(AluOp::Add, Reg::R7, Reg::R3, Reg::R7);
        b.load(Reg::R8, Reg::R7, 0);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.branch(BranchCond::Lt, Reg::R4, Reg::R5, top2);
        b.halt();
        Arc::new(b.build())
    }

    #[test]
    fn replay_reproduces_the_recorded_execution() {
        let program = array_walk_program();
        let cfg = BugNetConfig::default().with_checkpoint_interval(100_000);
        let logs = record_one_interval(&program, &cfg, 1_000_000);
        assert!(logs.fll.records() > 0);
        let replayed = Replayer::new(Arc::clone(&program))
            .replay_interval(&logs.fll)
            .unwrap();
        assert_eq!(replayed.digest, logs.digest, "replay must be deterministic");
        assert_eq!(replayed.instructions, logs.fll.instructions);
        // The second array walk re-reads 64 locations from simulated memory.
        assert!(replayed.loads_from_memory >= 64);
        assert_eq!(replayed.loads(), logs.fll.loads_executed);
        assert!(replayed.observed_fault.is_none());
    }

    #[test]
    fn replay_lands_on_the_faulting_instruction() {
        let mut b = ProgramBuilder::new("crash");
        let data = b.alloc_data_word(12);
        b.li_addr(Reg::R3, data);
        b.load(Reg::R4, Reg::R3, 0);
        b.li(Reg::R5, 0);
        b.alu(AluOp::Div, Reg::R6, Reg::R4, Reg::R5); // divide by zero
        b.halt();
        let program = Arc::new(b.build());
        let cfg = BugNetConfig::default();
        let logs = record_one_interval(&program, &cfg, 1000);
        assert_eq!(logs.fll.termination, TerminationCause::Fault);
        let fault_record = logs.fll.fault.expect("fault recorded");

        let replayed = Replayer::new(Arc::clone(&program))
            .replay_interval(&logs.fll)
            .unwrap();
        let (pc, fault) = replayed.observed_fault.expect("fault reproduced");
        assert_eq!(pc, fault_record.pc);
        assert_eq!(fault, Fault::DivideByZero);
        assert_eq!(replayed.digest, logs.digest);
    }

    #[test]
    fn trace_capture_lists_memory_ops() {
        let program = array_walk_program();
        let cfg = BugNetConfig::default();
        let logs = record_one_interval(&program, &cfg, 1_000_000);
        let replayed = Replayer::new(Arc::clone(&program))
            .with_trace_capture(true)
            .replay_interval(&logs.fll)
            .unwrap();
        assert_eq!(
            replayed.trace.iter().filter(|op| !op.is_store).count() as u64,
            replayed.loads()
        );
        assert!(replayed.trace.iter().any(|op| op.is_store));
        // Trace is ordered by instruction count.
        assert!(replayed.trace.windows(2).all(|w| w[0].ic <= w[1].ic));
    }

    #[test]
    fn sampled_replay_matches_plain_and_observes_every_pc() {
        let program = array_walk_program();
        let cfg = BugNetConfig::default();
        let logs = record_one_interval(&program, &cfg, 1_000_000);
        let replayer = Replayer::new(Arc::clone(&program));
        let plain = replayer.replay_interval(&logs.fll).unwrap();
        let mut pcs = Vec::new();
        let sampled = replayer
            .replay_interval_sampled(&logs.fll, &mut |pc| pcs.push(pc))
            .unwrap();
        assert_eq!(sampled, plain, "the hook must not perturb the replay");
        assert_eq!(pcs.len() as u64, plain.instructions);
        assert!(pcs.iter().all(|pc| program.index_of_pc(*pc).is_some()));
    }

    #[test]
    fn a_cut_record_stream_ends_the_batch_at_the_failing_load() {
        // A program that loads around a 16 KiB ring forever, and never
        // faults: under a forged count of 2^40 instructions, only the
        // port's error can end the batch.
        let mut b = ProgramBuilder::new("endless");
        let arr = b.alloc_data_array(4096, |i| i as u32 * 7 + 3);
        b.li_addr(Reg::R3, arr);
        let top = b.here();
        b.alu(AluOp::Add, Reg::R6, Reg::R3, Reg::R5);
        b.load(Reg::R4, Reg::R6, 0);
        b.alu_imm(AluOp::Add, Reg::R5, Reg::R5, 4);
        b.alu_imm(AluOp::And, Reg::R5, Reg::R5, 0x3ffc);
        b.jump(top);
        let program = Arc::new(b.build());
        let logs = record_one_interval(&program, &BugNetConfig::default(), 3_000);
        let fll = &logs.fll;
        assert!(fll.records() > 500);

        // The same records, the stream cut in half mid-record.
        let mut enc = FllEncoder::new(fll.codec());
        for rec in fll.decode_records().unwrap() {
            enc.push(rec.skipped, rec.value);
        }
        let (stream, payload) = enc.finish();
        let half = stream.as_bytes().len() / 2;
        let cut = BitStream::from_bytes(stream.as_bytes()[..half].to_vec(), half as u64 * 8 - 3);
        let forged = FirstLoadLog::new(
            fll.header,
            fll.codec(),
            cut,
            payload,
            1 << 40,
            fll.loads_executed,
            TerminationCause::IntervalFull,
            None,
        );
        // A batch that ran on past the cut would not end for hours: give
        // it a minute on its own thread. The traced replay steps one
        // instruction at a time.
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let replayer = Replayer::new(program);
            let batched = replayer.replay_interval(&forged);
            let traced = replayer.with_trace_capture(true).replay_interval(&forged);
            done.send((batched, traced))
                .expect("the test waits for the result");
        });
        let (batched, traced) = result
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the replay ran on past the cut");
        let expected = Err(ReplayError::Decode(FllDecodeError::Truncated));
        assert_eq!(batched, expected);
        assert_eq!(traced, expected);
    }

    #[test]
    fn corrupt_initial_pc_is_rejected() {
        let program = array_walk_program();
        let cfg = BugNetConfig::default();
        let logs = record_one_interval(&program, &cfg, 1_000_000);
        let mut fll = logs.fll;
        fll.header.arch.pc = Addr::new(0x3); // not a code address
        let err = Replayer::new(program).replay_interval(&fll).unwrap_err();
        assert!(matches!(err, ReplayError::BadInitialState(_)));
        assert!(err.to_string().contains("cannot initialize"));
    }

    #[test]
    fn replaying_native_run_matches_plain_execution() {
        // Sanity: the replayed memory contents equal those of a plain run.
        let program = array_walk_program();
        let cfg = BugNetConfig::default();
        let logs = record_one_interval(&program, &cfg, 1_000_000);
        let replayed = Replayer::new(Arc::clone(&program))
            .replay_interval(&logs.fll)
            .unwrap();

        let mut plain_port = SparseMemoryPort::from_program(&program);
        let mut plain_cpu = Cpu::new(Arc::clone(&program));
        plain_cpu.run(&mut plain_port, 1_000_000);
        let out = program
            .data()
            .first()
            .map(|seg| Addr::new(seg.base.raw() + 64 * 4))
            .unwrap();
        // The sum stored by the program matches the replayed final register state
        // indirectly through the digest; check the out location via plain run.
        assert_eq!(
            plain_cpu.regs().read(Reg::R6),
            replayed.final_state.regs[Reg::R6.index()]
        );
        assert!(plain_port.memory().read(out).get() > 0);
    }
}
