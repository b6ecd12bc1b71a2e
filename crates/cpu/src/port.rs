//! The CPU's connection to data memory.

use bugnet_isa::Program;
use bugnet_memsys::SparseMemory;
use bugnet_types::{Addr, Word};

/// Data-memory interface used by the interpreter for every load, store and
/// atomic operation.
///
/// The recording machine implements this trait with the full path through the
/// caches, the coherence directory and the BugNet recorder; the replayer
/// implements it with a log-fed memory image. Addresses passed in are always
/// word aligned and outside the null guard page (the CPU validates them
/// before calling the port).
pub trait MemoryPort {
    /// Returns the value of the word at `addr`.
    fn load(&mut self, addr: Addr) -> Word;

    /// Writes the word at `addr`.
    fn store(&mut self, addr: Addr, value: Word);

    /// Atomically exchanges the word at `addr` with `new`, returning the old
    /// value. The default implementation is a load followed by a store, which
    /// is atomic in this single-stepped simulation.
    fn atomic_swap(&mut self, addr: Addr, new: Word) -> Word {
        let old = self.load(addr);
        self.store(addr, new);
        old
    }

    /// Whether [`Cpu::run`](crate::Cpu::run) should return now. It is
    /// polled right after each instruction that accessed memory, once that
    /// instruction has committed, so a port that hit an error (the
    /// replayer's, on a corrupt log) ends the batch at the failing access.
    /// The default never stops.
    fn stop_requested(&self) -> bool {
        false
    }
}

/// The simplest possible port: direct access to a [`SparseMemory`].
///
/// Used for unit tests, for running programs natively (without recording) and
/// as the reference behaviour the recording and replaying ports must match.
#[derive(Debug, Clone, Default)]
pub struct SparseMemoryPort {
    memory: SparseMemory,
}

impl SparseMemoryPort {
    /// Creates a port over an empty memory.
    pub fn new() -> Self {
        SparseMemoryPort::default()
    }

    /// Creates a port over a memory initialized with the program's data
    /// segments.
    pub fn from_program(program: &Program) -> Self {
        let mut memory = SparseMemory::new();
        for seg in program.data() {
            memory.write_block(seg.base, &seg.words);
        }
        SparseMemoryPort { memory }
    }

    /// Read access to the underlying memory.
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }
}

impl MemoryPort for SparseMemoryPort {
    fn load(&mut self, addr: Addr) -> Word {
        self.memory.read(addr)
    }

    fn store(&mut self, addr: Addr, value: Word) {
        self.memory.write(addr, value);
    }
}

impl MemoryPort for SparseMemory {
    fn load(&mut self, addr: Addr) -> Word {
        self.read(addr)
    }

    fn store(&mut self, addr: Addr, value: Word) {
        self.write(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_port_reads_and_writes() {
        let mut port = SparseMemoryPort::new();
        port.store(Addr::new(0x1000), Word::new(3));
        assert_eq!(port.load(Addr::new(0x1000)), Word::new(3));
        assert_eq!(
            port.atomic_swap(Addr::new(0x1000), Word::new(5)),
            Word::new(3)
        );
        assert_eq!(port.load(Addr::new(0x1000)), Word::new(5));
    }

    #[test]
    fn memory_port_impl_for_sparse_memory() {
        let mut mem = SparseMemory::new();
        MemoryPort::store(&mut mem, Addr::new(0x2000), Word::new(8));
        assert_eq!(MemoryPort::load(&mut mem, Addr::new(0x2000)), Word::new(8));
    }
}
