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

    fn fault(&mut self, fault: Fault) -> StepEvent {
        self.state = CpuState::Faulted(fault);
        StepEvent::Faulted(fault)
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

    fn data_addr(&self, base: Reg, offset: i32) -> Addr {
        let raw = self.regs.read(base).get().wrapping_add(offset as u32);
        Addr::new(raw as u64)
    }

    /// Executes (commits) the next instruction.
    ///
    /// Returns what happened. A faulting instruction does not commit: the
    /// instruction count is unchanged and the PC still addresses the faulting
    /// instruction, matching the paper's model where the OS records the
    /// faulting PC and instruction count into the current FLL.
    pub fn step<P: MemoryPort>(&mut self, port: &mut P) -> StepEvent {
        match self.state {
            CpuState::Running => {}
            CpuState::Halted => return StepEvent::Halted,
            CpuState::Faulted(f) => return StepEvent::Faulted(f),
        }

        let Some(&instr) = self.program.code().get(self.pc_index as usize) else {
            return self.fault(Fault::InvalidPc(self.pc()));
        };

        let mut next_pc = self.pc_index + 1;
        let mut event = StepEvent::Committed;

        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                self.state = CpuState::Halted;
                self.icount = self.icount.succ();
                return StepEvent::Halted;
            }
            Instr::Li { rd, imm } => self.regs.write(rd, Word::new(imm)),
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs.read(rs1).get();
                let b = self.regs.read(rs2).get();
                match Self::alu_eval(op, a, b) {
                    Ok(v) => self.regs.write(rd, Word::new(v)),
                    Err(f) => return self.fault(f),
                }
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.regs.read(rs1).get();
                match Self::alu_eval(op, a, imm as u32) {
                    Ok(v) => self.regs.write(rd, Word::new(v)),
                    Err(f) => return self.fault(f),
                }
            }
            Instr::Load { rd, base, offset } => {
                let addr = self.data_addr(base, offset);
                if let Err(f) = Fault::check_data_access(addr) {
                    return self.fault(f);
                }
                let value = port.load(addr);
                self.regs.write(rd, value);
            }
            Instr::Store { rs, base, offset } => {
                let addr = self.data_addr(base, offset);
                if let Err(f) = Fault::check_data_access(addr) {
                    return self.fault(f);
                }
                port.store(addr, self.regs.read(rs));
            }
            Instr::AtomicSwap { rd, rs, base } => {
                let addr = self.data_addr(base, 0);
                if let Err(f) = Fault::check_data_access(addr) {
                    return self.fault(f);
                }
                let old = port.atomic_swap(addr, self.regs.read(rs));
                self.regs.write(rd, old);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.regs.read(rs1).get(), self.regs.read(rs2).get()) {
                    if (target as usize) >= self.program.len() {
                        return self.fault(Fault::InvalidPc(self.program.pc_of_index(target)));
                    }
                    next_pc = target;
                }
            }
            Instr::Jump { target } => {
                if (target as usize) >= self.program.len() {
                    return self.fault(Fault::InvalidPc(self.program.pc_of_index(target)));
                }
                next_pc = target;
            }
            Instr::JumpAndLink { rd, target } => {
                if (target as usize) >= self.program.len() {
                    return self.fault(Fault::InvalidPc(self.program.pc_of_index(target)));
                }
                let return_addr = self.program.pc_of_index(self.pc_index + 1);
                self.regs.write(rd, Word::new(return_addr.raw() as u32));
                next_pc = target;
            }
            Instr::JumpReg { rs } => {
                let target_addr = Addr::new(self.regs.read(rs).get() as u64);
                match self.program.index_of_pc(target_addr) {
                    Some(index) => next_pc = index,
                    None => return self.fault(Fault::InvalidPc(target_addr)),
                }
            }
            Instr::Syscall { code } => {
                event = StepEvent::SyscallCommitted(code);
            }
        }

        self.pc_index = next_pc;
        self.icount = self.icount.succ();
        event
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

    /// Runs until the thread halts, faults or `max_steps` instructions commit.
    /// Returns the final event observed.
    pub fn run<P: MemoryPort>(&mut self, port: &mut P, max_steps: u64) -> StepEvent {
        let mut last = StepEvent::Committed;
        for _ in 0..max_steps {
            last = self.step(port);
            match last {
                StepEvent::Halted | StepEvent::Faulted(_) => break,
                StepEvent::Committed | StepEvent::SyscallCommitted(_) => {}
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::SparseMemoryPort;
    use bugnet_isa::{BranchCond, ProgramBuilder};

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
}
