//! Execution digests used to verify deterministic replay.
//!
//! The recording run and the replay run both fold every committed memory
//! operation (and the final architectural state) into an order-sensitive
//! hash. If the digests of an interval match, the replay reproduced the same
//! loads, the same stores and the same final register state — which is the
//! determinism property the paper's mechanism guarantees.

use bugnet_cpu::ArchState;
use bugnet_types::{Addr, Word};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Order-sensitive digest of one checkpoint interval's execution.
///
/// # Examples
///
/// ```
/// use bugnet_core::digest::ExecutionDigest;
/// use bugnet_types::{Addr, Word};
///
/// let mut a = ExecutionDigest::new();
/// a.record_load(Addr::new(0x1000), Word::new(1));
/// let mut b = ExecutionDigest::new();
/// b.record_load(Addr::new(0x1000), Word::new(1));
/// assert_eq!(a, b);
/// b.record_store(Addr::new(0x1000), Word::new(2));
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionDigest {
    hash: u64,
    loads: u64,
    stores: u64,
    instructions: u64,
}

impl Default for ExecutionDigest {
    fn default() -> Self {
        ExecutionDigest {
            hash: FNV_OFFSET,
            loads: 0,
            stores: 0,
            instructions: 0,
        }
    }
}

impl ExecutionDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        ExecutionDigest::default()
    }

    /// Rebuilds a digest from the four parts a crash-dump manifest stores:
    /// [`value`](Self::value), [`loads`](Self::loads),
    /// [`stores`](Self::stores) and [`instructions`](Self::instructions).
    pub fn from_parts(hash: u64, loads: u64, stores: u64, instructions: u64) -> Self {
        ExecutionDigest {
            hash,
            loads,
            stores,
            instructions,
        }
    }

    fn mix(&mut self, value: u64) {
        self.hash ^= value;
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
    }

    /// Folds in a committed load.
    pub fn record_load(&mut self, addr: Addr, value: Word) {
        self.loads += 1;
        self.mix(0x10);
        self.mix(addr.raw());
        self.mix(value.get() as u64);
    }

    /// Folds in a committed store.
    pub fn record_store(&mut self, addr: Addr, value: Word) {
        self.stores += 1;
        self.mix(0x20);
        self.mix(addr.raw());
        self.mix(value.get() as u64);
    }

    /// Folds in `count` committed instructions (of any kind).
    pub fn record_instructions(&mut self, count: u64) {
        self.instructions += count;
    }

    /// Folds in the final architectural state of the interval.
    pub fn record_final_state(&mut self, state: &ArchState) {
        self.mix(0x30);
        self.mix(state.pc.raw());
        for reg in state.regs {
            self.mix(reg.get() as u64);
        }
    }

    /// Committed loads folded in.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Committed stores folded in.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Committed instructions folded in.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The raw hash value.
    pub fn value(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_histories_match() {
        let mut a = ExecutionDigest::new();
        let mut b = ExecutionDigest::new();
        for i in 0..10u32 {
            a.record_load(Addr::new(0x1000 + i as u64 * 4), Word::new(i));
            b.record_load(Addr::new(0x1000 + i as u64 * 4), Word::new(i));
            a.record_instructions(1);
            b.record_instructions(1);
        }
        assert_eq!(a, b);
        assert_eq!(a.loads(), 10);
        assert_eq!(a.instructions(), 10);
    }

    #[test]
    fn order_matters() {
        let mut a = ExecutionDigest::new();
        a.record_load(Addr::new(4), Word::new(1));
        a.record_store(Addr::new(8), Word::new(2));
        let mut b = ExecutionDigest::new();
        b.record_store(Addr::new(8), Word::new(2));
        b.record_load(Addr::new(4), Word::new(1));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn kind_matters() {
        let mut a = ExecutionDigest::new();
        a.record_load(Addr::new(4), Word::new(1));
        let mut b = ExecutionDigest::new();
        b.record_store(Addr::new(4), Word::new(1));
        assert_ne!(a.value(), b.value());
        assert_eq!(a.loads(), 1);
        assert_eq!(b.stores(), 1);
    }

    #[test]
    fn final_state_is_included() {
        let mut a = ExecutionDigest::new();
        let mut b = ExecutionDigest::new();
        let mut state = ArchState::default();
        a.record_final_state(&state);
        state.regs[5] = Word::new(1);
        b.record_final_state(&state);
        assert_ne!(a, b);
    }
}
