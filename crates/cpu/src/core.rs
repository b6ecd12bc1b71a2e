//! The committed-instruction interpreter.

use std::sync::Arc;

use bugnet_isa::{AluOp, Instr, Program, Reg, SyscallCode};
use bugnet_types::{Addr, InstrCount, Word};

use crate::arch::ArchState;
use crate::fault::Fault;
use crate::port::MemoryPort;
use crate::regfile::RegisterFile;

/// Lifecycle state of a simulated thread context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// The thread can execute further instructions.
    Running,
    /// The thread executed `halt` (or an exit syscall handled by the kernel).
    Halted,
    /// The thread raised a fault; the faulting instruction did not commit.
    Faulted(Fault),
}

/// What happened during one call to [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction committed.
    Committed,
    /// A `syscall` instruction committed; the kernel should now service it.
    SyscallCommitted(SyscallCode),
    /// The thread halted (now or previously).
    Halted,
    /// The thread faulted (now or previously); the program counter still
    /// points at the faulting instruction.
    Faulted(Fault),
}

/// A single-thread functional CPU bound to one program image.
///
/// The interpreter is deliberately identical for recording and replay; only
/// the [`MemoryPort`] differs. All instruction semantics (wrapping
/// arithmetic, shift masking, fault conditions) are fixed here so both sides
/// observe the same behaviour.
#[derive(Debug, Clone)]
pub struct Cpu {
    program: Arc<Program>,
    regs: RegisterFile,
    pc_index: u32,
    icount: InstrCount,
    state: CpuState,
}

impl Cpu {
    /// Creates a CPU at the program's entry point with a zeroed register file
    /// except for the stack pointer, which is set to the program's stack top.
    pub fn new(program: Arc<Program>) -> Self {
        let mut regs = RegisterFile::new();
        regs.write(Reg::SP, Word::new(program.stack_top().raw() as u32));
        let pc_index = program.entry_index();
        Cpu {
            program,
            regs,
            pc_index,
            icount: InstrCount::ZERO,
            state: CpuState::Running,
        }
    }

    /// The program this CPU executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Whether the thread can still execute instructions.
    pub fn is_running(&self) -> bool {
        matches!(self.state, CpuState::Running)
    }

    /// Committed instruction count since thread start.
    pub fn icount(&self) -> InstrCount {
        self.icount
    }

    /// Current program counter as a byte address.
    pub fn pc(&self) -> Addr {
        self.program.pc_of_index(self.pc_index)
    }

    /// Read access to the register file.
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Snapshot of the architectural state (PC + registers).
    pub fn arch_state(&self) -> ArchState {
        ArchState::capture(self.pc(), &self.regs)
    }

    /// Restores the architectural state (used by the replayer to start a
    /// checkpoint interval and by context-switch restore).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidPc`] if the snapshot's PC does not fall on an
    /// instruction of this program.
    pub fn set_arch_state(&mut self, state: &ArchState) -> Result<(), Fault> {
        let index = self
            .program
            .index_of_pc(state.pc)
            .ok_or(Fault::InvalidPc(state.pc))?;
        self.pc_index = index;
        self.regs.restore(&state.regs);
        self.state = CpuState::Running;
        Ok(())
    }

    /// Forces the thread into the halted state (used by the kernel for the
    /// exit syscall).
    pub fn halt(&mut self) {
        self.state = CpuState::Halted;
    }

    fn alu_eval(op: AluOp, a: u32, b: u32) -> Result<u32, Fault> {
        Ok(match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return Err(Fault::DivideByZero);
                }
                (a as i32).wrapping_div(b as i32) as u32
            }
            AluOp::Rem => {
                if b == 0 {
                    return Err(Fault::DivideByZero);
                }
                (a as i32).wrapping_rem(b as i32) as u32
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b),
            AluOp::Shr => a.wrapping_shr(b),
            AluOp::Sra => ((a as i32).wrapping_shr(b)) as u32,
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
        })
    }

    /// Executes (commits) the next instruction: [`Cpu::run`] with a budget
    /// of one.
    ///
    /// Returns what happened. A faulting instruction does not commit: the
    /// instruction count is unchanged and the PC still addresses the faulting
    /// instruction, matching the paper's model where the OS records the
    /// faulting PC and instruction count into the current FLL.
    pub fn step<P: MemoryPort>(&mut self, port: &mut P) -> StepEvent {
        self.exec(port, 1)
    }

    /// Executes the next instruction like [`Cpu::step`], first handing the
    /// PC of the instruction about to execute to `hook`.
    ///
    /// This is the sampling seam the dump profiler builds its hot-PC
    /// histogram on: the hook fires only when the thread is running, so
    /// every call observes the PC of an instruction that is actually
    /// dispatched (committed or faulting). The un-hooked [`Cpu::step`]
    /// path is untouched.
    pub fn step_hooked<P: MemoryPort>(
        &mut self,
        port: &mut P,
        hook: &mut dyn FnMut(Addr),
    ) -> StepEvent {
        if matches!(self.state, CpuState::Running) {
            hook(self.pc());
        }
        self.step(port)
    }

    /// Executes instructions until the thread halts or faults, `budget`
    /// instructions commit, or the port asks to stop
    /// ([`MemoryPort::stop_requested`], polled after each instruction that
    /// accesses memory; that instruction has committed). Returns the last
    /// event: `Committed` or `SyscallCommitted` when the budget ran out or
    /// the port stopped the run, and `Committed` for a zero budget, which
    /// executes nothing. Syscalls commit and the run goes on past them.
    ///
    /// A run of `n` instructions leaves the thread, its registers and the
    /// port exactly as `n` calls to [`Cpu::step`] do; only the per-call
    /// overhead goes.
    pub fn run<P: MemoryPort>(&mut self, port: &mut P, budget: u64) -> StepEvent {
        if budget == 0 {
            return StepEvent::Committed;
        }
        self.exec(port, budget)
    }

    /// The interpreter behind [`Cpu::step`] and [`Cpu::run`]: commits up
    /// to `budget` (at least one) instructions with the code slice, the pc
    /// index and the instruction count held in locals, and writes them back
    /// once when it returns. Inlined into both, so `step` compiles to one
    /// pass through the `match`.
    #[inline(always)]
    fn exec<P: MemoryPort>(&mut self, port: &mut P, budget: u64) -> StepEvent {
        match self.state {
            CpuState::Running => {}
            CpuState::Halted => return StepEvent::Halted,
            CpuState::Faulted(f) => return StepEvent::Faulted(f),
        }
        let program = &*self.program;
        let code = program.code();
        let regs = &mut self.regs;
        let data_addr = |regs: &RegisterFile, base: Reg, offset: i32| {
            Addr::new(u64::from(regs.read(base).get().wrapping_add(offset as u32)))
        };
        let mut pc = self.pc_index;
        let mut icount = self.icount.0;
        let mut left = budget;
        // `Ok` ends the run after a committed instruction, `Err` at a
        // faulting one, which does not commit.
        let exit = loop {
            let Some(&instr) = code.get(pc as usize) else {
                break Err(Fault::InvalidPc(program.pc_of_index(pc)));
            };
            let mut next_pc = pc + 1;
            let mut event = StepEvent::Committed;
            let mut stop = false;
            match instr {
                Instr::Nop => {}
                Instr::Halt => {
                    self.state = CpuState::Halted;
                    icount += 1;
                    break Ok(StepEvent::Halted);
                }
                Instr::Li { rd, imm } => regs.write(rd, Word::new(imm)),
                Instr::Alu { op, rd, rs1, rs2 } => {
                    match Self::alu_eval(op, regs.read(rs1).get(), regs.read(rs2).get()) {
                        Ok(v) => regs.write(rd, Word::new(v)),
                        Err(f) => break Err(f),
                    }
                }
                Instr::AluImm { op, rd, rs1, imm } => {
                    match Self::alu_eval(op, regs.read(rs1).get(), imm as u32) {
                        Ok(v) => regs.write(rd, Word::new(v)),
                        Err(f) => break Err(f),
                    }
                }
                Instr::Load { rd, base, offset } => {
                    let addr = data_addr(regs, base, offset);
                    if let Err(f) = Fault::check_data_access(addr) {
                        break Err(f);
                    }
                    let value = port.load(addr);
                    regs.write(rd, value);
                    stop = port.stop_requested();
                }
                Instr::Store { rs, base, offset } => {
                    let addr = data_addr(regs, base, offset);
                    if let Err(f) = Fault::check_data_access(addr) {
                        break Err(f);
                    }
                    port.store(addr, regs.read(rs));
                    stop = port.stop_requested();
                }
                Instr::AtomicSwap { rd, rs, base } => {
                    let addr = data_addr(regs, base, 0);
                    if let Err(f) = Fault::check_data_access(addr) {
                        break Err(f);
                    }
                    let old = port.atomic_swap(addr, regs.read(rs));
                    regs.write(rd, old);
                    stop = port.stop_requested();
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.eval(regs.read(rs1).get(), regs.read(rs2).get()) {
                        if (target as usize) >= code.len() {
                            break Err(Fault::InvalidPc(program.pc_of_index(target)));
                        }
                        next_pc = target;
                    }
                }
                Instr::Jump { target } => {
                    if (target as usize) >= code.len() {
                        break Err(Fault::InvalidPc(program.pc_of_index(target)));
                    }
                    next_pc = target;
                }
                Instr::JumpAndLink { rd, target } => {
                    if (target as usize) >= code.len() {
                        break Err(Fault::InvalidPc(program.pc_of_index(target)));
                    }
                    let return_addr = program.pc_of_index(pc + 1);
                    regs.write(rd, Word::new(return_addr.raw() as u32));
                    next_pc = target;
                }
                Instr::JumpReg { rs } => {
                    let target_addr = Addr::new(u64::from(regs.read(rs).get()));
                    match program.index_of_pc(target_addr) {
                        Some(index) => next_pc = index,
                        None => break Err(Fault::InvalidPc(target_addr)),
                    }
                }
                Instr::Syscall { code } => event = StepEvent::SyscallCommitted(code),
            }
            pc = next_pc;
            icount += 1;
            left -= 1;
            if left == 0 || stop {
                break Ok(event);
            }
        };
        self.pc_index = pc;
        self.icount = InstrCount(icount);
        exit.unwrap_or_else(|fault| {
            self.state = CpuState::Faulted(fault);
            StepEvent::Faulted(fault)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::SparseMemoryPort;
    use bugnet_isa::{BranchCond, ProgramBuilder};
    use bugnet_memsys::SparseMemory;

    fn run_program(b: ProgramBuilder) -> (Cpu, SparseMemoryPort, StepEvent) {
        let program = Arc::new(b.build());
        let mut port = SparseMemoryPort::from_program(&program);
        let mut cpu = Cpu::new(Arc::clone(&program));
        let event = cpu.run(&mut port, 1_000_000);
        (cpu, port, event)
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum = 0; for i in 1..=10 { sum += i }
        let mut b = ProgramBuilder::new("sum");
        let out = b.alloc_data_word(0);
        b.li(Reg::R3, 0); // sum
        b.li(Reg::R4, 1); // i
        b.li(Reg::R5, 10); // limit
        let top = b.here();
        b.alu(AluOp::Add, Reg::R3, Reg::R3, Reg::R4);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.branch(BranchCond::Ge, Reg::R5, Reg::R4, top);
        b.li_addr(Reg::R6, out);
        b.store(Reg::R3, Reg::R6, 0);
        b.halt();
        let (cpu, port, event) = run_program(b);
        assert_eq!(event, StepEvent::Halted);
        assert_eq!(port.memory().read(out).get(), 55);
        assert!(cpu.icount().0 > 30);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("call");
        let out = b.alloc_data_word(0);
        let func = b.new_label();
        b.jump_and_link(Reg::LINK, func);
        b.li_addr(Reg::R6, out);
        b.store(Reg::R10, Reg::R6, 0);
        b.halt();
        b.bind(func);
        b.li(Reg::R10, 77);
        b.jump_reg(Reg::LINK);
        let (_, port, event) = run_program(b);
        assert_eq!(event, StepEvent::Halted);
        assert_eq!(port.memory().read(out).get(), 77);
    }

    #[test]
    fn divide_by_zero_faults_without_committing() {
        let mut b = ProgramBuilder::new("div0");
        b.li(Reg::R3, 5);
        b.li(Reg::R4, 0);
        b.alu(AluOp::Div, Reg::R5, Reg::R3, Reg::R4);
        b.halt();
        let (cpu, _, event) = run_program(b);
        assert_eq!(event, StepEvent::Faulted(Fault::DivideByZero));
        assert_eq!(cpu.icount().0, 2, "faulting instruction does not commit");
        assert_eq!(cpu.pc(), cpu.program().pc_of_index(2));
    }

    #[test]
    fn null_dereference_faults() {
        let mut b = ProgramBuilder::new("null");
        b.li(Reg::R3, 0);
        b.load(Reg::R4, Reg::R3, 8);
        b.halt();
        let (_, _, event) = run_program(b);
        assert_eq!(
            event,
            StepEvent::Faulted(Fault::InvalidAddress(Addr::new(8)))
        );
    }

    #[test]
    fn wild_jump_faults() {
        let mut b = ProgramBuilder::new("wild");
        b.li(Reg::R3, 0xdea0_0000);
        b.jump_reg(Reg::R3);
        b.halt();
        let (_, _, event) = run_program(b);
        assert!(matches!(event, StepEvent::Faulted(Fault::InvalidPc(_))));
    }

    #[test]
    fn syscall_commits_and_reports() {
        let mut b = ProgramBuilder::new("sys");
        b.syscall(SyscallCode::Yield);
        b.halt();
        let program = Arc::new(b.build());
        let mut port = SparseMemoryPort::from_program(&program);
        let mut cpu = Cpu::new(program);
        assert_eq!(
            cpu.step(&mut port),
            StepEvent::SyscallCommitted(SyscallCode::Yield)
        );
        assert_eq!(cpu.icount().0, 1);
        assert_eq!(cpu.step(&mut port), StepEvent::Halted);
    }

    #[test]
    fn atomic_swap_returns_old_value() {
        let mut b = ProgramBuilder::new("amo");
        let lock = b.alloc_data_word(17);
        b.li_addr(Reg::R3, lock);
        b.li(Reg::R4, 1);
        b.atomic_swap(Reg::R5, Reg::R4, Reg::R3);
        b.halt();
        let (cpu, port, _) = run_program(b);
        assert_eq!(cpu.regs().read(Reg::R5).get(), 17);
        assert_eq!(port.memory().read(lock).get(), 1);
    }

    #[test]
    fn arch_state_round_trip() {
        let mut b = ProgramBuilder::new("state");
        b.li(Reg::R3, 9);
        b.nop();
        b.halt();
        let program = Arc::new(b.build());
        let mut port = SparseMemoryPort::from_program(&program);
        let mut cpu = Cpu::new(Arc::clone(&program));
        cpu.step(&mut port);
        let snap = cpu.arch_state();
        let mut other = Cpu::new(program);
        other.set_arch_state(&snap).unwrap();
        assert_eq!(other.pc(), snap.pc);
        assert_eq!(other.regs().read(Reg::R3).get(), 9);
        // Restoring a bogus PC is rejected.
        let bad = ArchState::new(Addr::new(0x4), snap.regs);
        assert!(other.set_arch_state(&bad).is_err());
    }

    #[test]
    fn sp_is_initialized_to_stack_top() {
        let mut b = ProgramBuilder::new("sp");
        b.halt();
        let program = Arc::new(b.build());
        let cpu = Cpu::new(Arc::clone(&program));
        assert_eq!(
            cpu.regs().read(Reg::SP).get() as u64,
            program.stack_top().raw()
        );
    }

    #[test]
    fn halt_is_sticky() {
        let mut b = ProgramBuilder::new("halt");
        b.halt();
        let program = Arc::new(b.build());
        let mut port = SparseMemoryPort::from_program(&program);
        let mut cpu = Cpu::new(program);
        assert_eq!(cpu.step(&mut port), StepEvent::Halted);
        assert_eq!(cpu.step(&mut port), StepEvent::Halted);
        assert_eq!(cpu.icount().0, 1);
    }

    /// A loop over a data array that loads, adds, swaps the running sum
    /// into memory and makes a syscall on every pass, then stores the sum
    /// and runs into `ending`.
    fn looping_into(ending: &[Instr]) -> Arc<Program> {
        let mut b = ProgramBuilder::new("batch");
        let data = b.alloc_data_array(9, |i| i as u32 * 5 + 1);
        let out = b.alloc_data_word(0);
        b.li_addr(Reg::R3, data);
        b.li(Reg::R4, 0);
        b.li(Reg::R5, 9);
        b.li_addr(Reg::R9, out);
        let top = b.here();
        b.load(Reg::R7, Reg::R3, 0);
        b.alu(AluOp::Add, Reg::R6, Reg::R6, Reg::R7);
        b.atomic_swap(Reg::R8, Reg::R6, Reg::R9);
        b.syscall(SyscallCode::Yield);
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 4);
        b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
        b.branch(BranchCond::Lt, Reg::R4, Reg::R5, top);
        b.store(Reg::R6, Reg::R9, 0);
        for &instr in ending {
            b.emit(instr);
        }
        Arc::new(b.build())
    }

    /// One program per way to end: `halt`, each fault, and running off
    /// the end of the code.
    fn endings() -> Vec<(&'static str, Arc<Program>)> {
        let (r6, r9, r10) = (Reg::R6, Reg::R9, Reg::R10);
        let beyond = 10_000;
        [
            ("halt", vec![Instr::Halt]),
            (
                "divide by zero",
                vec![Instr::Alu {
                    op: AluOp::Div,
                    rd: r10,
                    rs1: r6,
                    rs2: Reg::ZERO,
                }],
            ),
            (
                "remainder by zero",
                vec![Instr::AluImm {
                    op: AluOp::Rem,
                    rd: r10,
                    rs1: r6,
                    imm: 0,
                }],
            ),
            (
                "invalid address",
                vec![Instr::Load {
                    rd: r10,
                    base: Reg::ZERO,
                    offset: 8,
                }],
            ),
            (
                "misaligned",
                vec![Instr::Store {
                    rs: r6,
                    base: r9,
                    offset: 2,
                }],
            ),
            (
                "branch out of the code",
                vec![Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: Reg::ZERO,
                    rs2: Reg::ZERO,
                    target: beyond,
                }],
            ),
            ("jump out of the code", vec![Instr::Jump { target: beyond }]),
            (
                "jump-and-link out of the code",
                vec![Instr::JumpAndLink {
                    rd: Reg::LINK,
                    target: beyond,
                }],
            ),
            (
                "jump_reg out of the code",
                vec![
                    Instr::Li {
                        rd: r10,
                        imm: 0xdea0_0000,
                    },
                    Instr::JumpReg { rs: r10 },
                ],
            ),
            ("running off the end", vec![]),
        ]
        .into_iter()
        .map(|(name, ending)| (name, looping_into(&ending)))
        .collect()
    }

    /// Runs `program` to its halt or fault in calls of `budget`
    /// instructions (`None`: one `step` at a time), checking that each call
    /// that neither halts nor faults commits exactly its budget.
    fn run_in_batches(
        program: &Arc<Program>,
        budget: Option<u64>,
    ) -> (StepEvent, Cpu, SparseMemory) {
        let mut port = SparseMemoryPort::from_program(program);
        let mut cpu = Cpu::new(Arc::clone(program));
        loop {
            let before = cpu.icount().0;
            let event = match budget {
                None => cpu.step(&mut port),
                Some(budget) => cpu.run(&mut port, budget),
            };
            match event {
                StepEvent::Halted | StepEvent::Faulted(_) => {
                    return (event, cpu, port.memory().clone())
                }
                StepEvent::Committed | StepEvent::SyscallCommitted(_) => {
                    assert_eq!(cpu.icount().0 - before, budget.unwrap_or(1));
                }
            }
        }
    }

    #[test]
    fn every_batch_size_runs_the_same_program() {
        for (ending, program) in endings() {
            let (event, cpu, memory) = run_in_batches(&program, None);
            if ending == "halt" {
                assert_eq!(event, StepEvent::Halted);
            } else {
                assert!(
                    matches!(event, StepEvent::Faulted(_)),
                    "{ending}: {event:?}"
                );
            }
            for budget in [1, 2, 7, u64::MAX] {
                let (batched, batched_cpu, batched_memory) = run_in_batches(&program, Some(budget));
                let at = format!("{ending}, budget {budget}");
                assert_eq!(batched, event, "{at}");
                assert_eq!(batched_cpu.state(), cpu.state(), "{at}");
                assert_eq!(batched_cpu.icount(), cpu.icount(), "{at}");
                assert_eq!(batched_cpu.arch_state(), cpu.arch_state(), "{at}");
                assert_eq!(batched_memory, memory, "{at}");
            }
        }
    }

    #[test]
    fn a_zero_budget_runs_nothing() {
        let program = looping_into(&[Instr::Halt]);
        let mut port = SparseMemoryPort::from_program(&program);
        let mut cpu = Cpu::new(Arc::clone(&program));
        assert_eq!(cpu.run(&mut port, 0), StepEvent::Committed);
        assert_eq!(cpu.icount(), InstrCount::ZERO);
        assert_eq!(cpu.pc(), program.entry_pc());
    }

    /// Counts memory accesses and asks the interpreter to stop from the
    /// `stop_at`-th on.
    struct StopAt {
        memory: SparseMemoryPort,
        accesses: u32,
        stop_at: u32,
    }

    impl MemoryPort for StopAt {
        fn load(&mut self, addr: Addr) -> Word {
            self.accesses += 1;
            self.memory.load(addr)
        }

        fn store(&mut self, addr: Addr, value: Word) {
            self.accesses += 1;
            self.memory.store(addr, value);
        }

        fn stop_requested(&self) -> bool {
            self.accesses >= self.stop_at
        }
    }

    #[test]
    fn a_port_that_asks_to_stop_ends_the_run_after_that_instruction() {
        let program = looping_into(&[Instr::Halt]);
        let port = |stop_at| StopAt {
            memory: SparseMemoryPort::from_program(&program),
            accesses: 0,
            stop_at,
        };
        // A load, a swap (a load and a store) and a syscall per pass: the
        // k-th access sits in a load or in either half of a swap.
        for stop_at in 1..=20 {
            let mut stepped = port(stop_at);
            let mut cpu = Cpu::new(Arc::clone(&program));
            while stepped.accesses < stop_at {
                let event = cpu.step(&mut stepped);
                assert!(cpu.is_running(), "stop at {stop_at}: {event:?}");
            }
            let mut batched = port(stop_at);
            let mut batched_cpu = Cpu::new(Arc::clone(&program));
            let event = batched_cpu.run(&mut batched, u64::MAX);
            assert_eq!(event, StepEvent::Committed, "stop at {stop_at}");
            assert_eq!(batched_cpu.icount(), cpu.icount(), "stop at {stop_at}");
            assert_eq!(
                batched_cpu.arch_state(),
                cpu.arch_state(),
                "stop at {stop_at}"
            );
            assert_eq!(batched.accesses, stepped.accesses, "stop at {stop_at}");
        }
    }
}
