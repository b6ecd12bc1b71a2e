//! Multithreaded kernels for exercising Memory Race Logs and the race
//! analysis (paper §4.6 and §5.2).
//!
//! Three small two-or-more-thread workloads:
//!
//! * [`locked_counter`] — every thread increments a shared counter under a
//!   spin lock built from the ISA's atomic swap; coherence replies order
//!   every lock hand-off. Replies from a core whose thread has halted are
//!   not logged, so the analysis still flags that thread's last accesses
//!   against the other threads' later ones.
//! * [`racy_counter`] — the same increments without the lock; the conflicting
//!   unordered accesses are exactly what a data-race detector should flag.
//! * [`producer_consumer`] — one thread fills a shared buffer and raises a
//!   flag; the other polls the flag and reads the data.

use std::sync::Arc;

use bugnet_isa::{AluOp, BranchCond, Program, ProgramBuilder, Reg};
use bugnet_types::Addr;

use crate::workload::{ThreadSpec, Workload};

/// Shared address of the spin lock used by [`locked_counter`].
pub const LOCK_ADDR: u64 = 0x4000_0000;
/// Shared address of the counter used by the counter workloads.
pub const COUNTER_ADDR: u64 = 0x4000_0040;
/// Shared address of the producer/consumer flag.
pub const FLAG_ADDR: u64 = 0x4000_0080;
/// Shared base address of the producer/consumer buffer.
pub const BUFFER_ADDR: u64 = 0x4000_1000;

fn counter_program(name: String, increments: u32, data_base: u64, use_lock: bool) -> Arc<Program> {
    let mut b = ProgramBuilder::new(name);
    b.data_base(Addr::new(data_base));
    let lock = Reg::R3;
    let counter = Reg::R4;
    let one = Reg::R5;
    let got = Reg::R6;
    let val = Reg::R7;
    let i = Reg::R8;
    let n = Reg::R9;
    b.li(lock, LOCK_ADDR as u32);
    b.li(counter, COUNTER_ADDR as u32);
    b.li(one, 1);
    b.li(i, 0);
    b.li(n, increments);
    let top = b.here();
    if use_lock {
        // Spin until the atomic swap returns 0 (lock acquired).
        let spin = b.here();
        b.atomic_swap(got, one, lock);
        b.branch(BranchCond::Ne, got, Reg::R0, spin);
    }
    b.load(val, counter, 0);
    b.alu_imm(AluOp::Add, val, val, 1);
    b.store(val, counter, 0);
    if use_lock {
        // Release.
        b.store(Reg::R0, lock, 0);
    }
    b.alu_imm(AluOp::Add, i, i, 1);
    b.branch(BranchCond::Lt, i, n, top);
    b.halt();
    Arc::new(b.build())
}

/// A workload of `threads` threads, each incrementing a shared counter
/// `increments` times under a spin lock.
///
/// Every thread runs the *same* [`Program`] (the kernel never touches its
/// private data region), mirroring how real multithreaded processes share one
/// executable image; crash dumps of this workload therefore embed the image
/// once, content-addressed, rather than once per thread.
pub fn locked_counter(threads: usize, increments: u32) -> Workload {
    let threads = threads.max(2);
    let program = counter_program("locked-counter".to_string(), increments, 0x5000_0000, true);
    let specs = (0..threads)
        .map(|_| ThreadSpec::new(Arc::clone(&program)))
        .collect();
    Workload::new("locked-counter", specs)
}

/// The same counter workload without the lock: a textbook data race.
///
/// As with [`locked_counter`], all threads share one program image.
pub fn racy_counter(threads: usize, increments: u32) -> Workload {
    let threads = threads.max(2);
    let program = counter_program("racy-counter".to_string(), increments, 0x5000_0000, false);
    let specs = (0..threads)
        .map(|_| ThreadSpec::new(Arc::clone(&program)))
        .collect();
    Workload::new("racy-counter", specs)
}

/// A producer thread that writes `items` words into a shared buffer and then
/// sets a flag, plus a consumer that polls the flag and sums the buffer.
pub fn producer_consumer(items: u32) -> Workload {
    let items = items.max(1);

    let mut p = ProgramBuilder::new("producer");
    p.data_base(Addr::new(0x5100_0000));
    p.li(Reg::R3, BUFFER_ADDR as u32);
    p.li(Reg::R4, 0);
    p.li(Reg::R5, items);
    let top = p.here();
    p.alu_imm(AluOp::Shl, Reg::R6, Reg::R4, 2);
    p.alu(AluOp::Add, Reg::R6, Reg::R3, Reg::R6);
    p.alu_imm(AluOp::Add, Reg::R7, Reg::R4, 100);
    p.store(Reg::R7, Reg::R6, 0);
    p.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
    p.branch(BranchCond::Lt, Reg::R4, Reg::R5, top);
    p.li(Reg::R8, FLAG_ADDR as u32);
    p.li(Reg::R9, 1);
    p.store(Reg::R9, Reg::R8, 0);
    p.halt();

    let mut c = ProgramBuilder::new("consumer");
    c.data_base(Addr::new(0x5200_0000));
    c.li(Reg::R3, FLAG_ADDR as u32);
    c.li(Reg::R10, 0); // poll budget, so the workload terminates even alone
    c.li(Reg::R11, 200_000);
    let poll = c.here();
    c.load(Reg::R4, Reg::R3, 0);
    c.alu_imm(AluOp::Add, Reg::R10, Reg::R10, 1);
    let done_waiting = c.new_label();
    c.branch(BranchCond::Ne, Reg::R4, Reg::R0, done_waiting);
    c.branch(BranchCond::Lt, Reg::R10, Reg::R11, poll);
    c.bind(done_waiting);
    c.li(Reg::R5, BUFFER_ADDR as u32);
    c.li(Reg::R6, 0);
    c.li(Reg::R7, items);
    c.li(Reg::R8, 0);
    let sum = c.here();
    c.alu_imm(AluOp::Shl, Reg::R9, Reg::R6, 2);
    c.alu(AluOp::Add, Reg::R9, Reg::R5, Reg::R9);
    c.load(Reg::R12, Reg::R9, 0);
    c.alu(AluOp::Add, Reg::R8, Reg::R8, Reg::R12);
    c.alu_imm(AluOp::Add, Reg::R6, Reg::R6, 1);
    c.branch(BranchCond::Lt, Reg::R6, Reg::R7, sum);
    c.halt();

    Workload::new(
        "producer-consumer",
        vec![
            ThreadSpec::new(Arc::new(p.build())),
            ThreadSpec::new(Arc::new(c.build())),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_cpu::{Cpu, SparseMemoryPort, StepEvent};

    fn runs_alone(program: &Arc<Program>) -> StepEvent {
        let mut port = SparseMemoryPort::from_program(program);
        let mut cpu = Cpu::new(Arc::clone(program));
        cpu.run(&mut port, 10_000_000)
    }

    #[test]
    fn locked_counter_threads_halt_in_isolation() {
        let w = locked_counter(2, 100);
        assert_eq!(w.thread_count(), 2);
        for t in &w.threads {
            // With no contention the lock is always free, so the thread halts.
            assert_eq!(runs_alone(&t.program), StepEvent::Halted);
        }
    }

    #[test]
    fn racy_counter_has_no_lock_instructions() {
        let w = racy_counter(2, 10);
        for t in &w.threads {
            assert!(!t
                .program
                .code()
                .iter()
                .any(|i| matches!(i, bugnet_isa::Instr::AtomicSwap { .. })));
        }
    }

    #[test]
    fn producer_and_consumer_halt() {
        let w = producer_consumer(64);
        assert_eq!(w.thread_count(), 2);
        for t in &w.threads {
            assert_eq!(runs_alone(&t.program), StepEvent::Halted);
        }
    }

    #[test]
    fn counter_threads_share_one_program_image() {
        for w in [locked_counter(4, 10), racy_counter(4, 10)] {
            let first = &w.threads[0].program;
            for t in &w.threads[1..] {
                assert!(Arc::ptr_eq(first, &t.program));
            }
        }
    }

    #[test]
    fn thread_counts_are_clamped() {
        assert_eq!(locked_counter(0, 1).thread_count(), 2);
        assert_eq!(racy_counter(1, 1).thread_count(), 2);
    }
}
