//! Functional CPU simulator.
//!
//! The CPU models exactly what BugNet's recording hardware observes: the
//! stream of *committed* instructions of one thread, its register file and
//! program counter, the addresses and values of its loads and stores, and the
//! synchronous events (syscalls, faults) that terminate checkpoint intervals.
//! Timing is not modelled; the paper's overhead argument is reproduced by an
//! analytical bandwidth model in `bugnet-core` instead.
//!
//! The same interpreter is used for recording and for replay: all data memory
//! traffic goes through the [`MemoryPort`] trait, so the recording machine
//! (caches + coherence + recorder) and the replayer (log-fed memory image)
//! plug in different ports around an identical core.
//!
//! There is one interpreter loop, [`Cpu::run`]: it commits up to a budget
//! of instructions with the code, the pc and the instruction count held in
//! locals, and returns on halt, fault, an exhausted budget, or right after
//! a memory access once the port asks to stop
//! ([`MemoryPort::stop_requested`]). [`Cpu::step`] is the same loop with a
//! budget of one. The recording machine steps, since it acts between any
//! two instructions; the replayer runs a whole interval in one batch.
//!
//! # Examples
//!
//! ```
//! use bugnet_cpu::{Cpu, StepEvent, SparseMemoryPort};
//! use bugnet_isa::{ProgramBuilder, Reg, AluOp};
//! use std::sync::Arc;
//!
//! let mut b = ProgramBuilder::new("sum");
//! let data = b.alloc_data_word(41);
//! b.li_addr(Reg::R3, data);
//! b.load(Reg::R4, Reg::R3, 0);
//! b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
//! b.store(Reg::R4, Reg::R3, 0);
//! b.halt();
//! let program = Arc::new(b.build());
//!
//! // One instruction at a time...
//! let mut port = SparseMemoryPort::from_program(&program);
//! let mut cpu = Cpu::new(Arc::clone(&program));
//! while !matches!(cpu.step(&mut port), StepEvent::Halted) {}
//! assert_eq!(port.memory().read(data).get(), 42);
//!
//! // ...or in one batch, to the same end.
//! let mut batch_port = SparseMemoryPort::from_program(&program);
//! let mut batch = Cpu::new(Arc::clone(&program));
//! assert_eq!(batch.run(&mut batch_port, u64::MAX), StepEvent::Halted);
//! assert_eq!(batch.icount(), cpu.icount());
//! assert_eq!(batch_port.memory().read(data).get(), 42);
//! ```

pub mod arch;
pub mod core;
pub mod fault;
pub mod port;
pub mod regfile;

pub use arch::ArchState;
pub use core::{Cpu, CpuState, StepEvent};
pub use fault::Fault;
pub use port::{MemoryPort, SparseMemoryPort};
pub use regfile::RegisterFile;
