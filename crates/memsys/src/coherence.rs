//! Directory-based MSI cache coherence.
//!
//! BugNet (like FDR) piggy-backs memory-race information on the *coherence
//! reply messages* of a directory protocol: whenever a core's memory
//! operation forces another core to invalidate or downgrade a block, the
//! remote core's reply carries its execution state, and the local core
//! appends an entry to its Memory Race Log. This module implements the
//! directory state machine and reports exactly those replies, plus the set
//! of remote caches that must invalidate the block (which clears their
//! first-load bits and is what makes first-load logging correct for shared
//! memory and DMA, §4.5-4.6 of the paper).
//!
//! Both answers are core masks, bit `i` standing for core `i`, so a
//! directory tracks at most [`MAX_CORES`] cores. A block is either modified
//! by exactly one core or shared by a set of cores, never both: a remote
//! load moves the owner into the sharers, and a store leaves its core the
//! only holder. So every reply set is either the owner or the sharers, and
//! a caller walking a mask in ascending core order sees the replies in the
//! order the protocol sends them.
//!
//! The directory is conservative about silent evictions: a core that evicted
//! a block may still be listed as a sharer, producing a spurious invalidation
//! that the core's cache simply ignores. This only ever adds race-log edges,
//! it never loses one.

use std::collections::HashMap;

use bugnet_types::{Addr, CoreId};

use crate::cache::AccessKind;

/// Most cores a [`Directory`] tracks: one bit each in a `u64` mask.
pub const MAX_CORES: usize = 64;

/// Everything the machine must do in response to one memory access, as
/// core masks (bit `i` is core `i`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceAction {
    /// Cores that sent the requesting core a reply; each reply becomes a
    /// Memory Race Log entry when BugNet (or FDR) is recording.
    pub replies: u64,
    /// Cores whose private caches must invalidate the block (clearing its
    /// first-load bits). The requesting core is never in this mask.
    pub invalidate: u64,
}

/// The cores of a mask, in ascending order.
pub fn cores_in(mask: u64) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let core = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            core
        })
    })
}

#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Cores caching the block.
    holders: u64,
    /// Whether the block's one holder has modified it; otherwise every
    /// holder shares it.
    modified: bool,
}

/// Directory tracking, per block, which cores hold it and in what state.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    block_bytes: u64,
    blocks: HashMap<u64, BlockState>,
}

impl Directory {
    /// Creates a directory for caches with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn new(block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes >= 4);
        Directory {
            block_bytes,
            blocks: HashMap::new(),
        }
    }

    fn block_of(&self, addr: Addr) -> u64 {
        addr.block_aligned(self.block_bytes).raw()
    }

    /// Records a memory access by `core` and returns the coherence activity
    /// it caused.
    ///
    /// # Panics
    ///
    /// Panics if `core` is [`MAX_CORES`] or above.
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> CoherenceAction {
        let bit = 1u64.checked_shl(core.0).expect("core id below MAX_CORES");
        let block = self.block_of(addr);
        let state = self.blocks.entry(block).or_default();
        match kind {
            AccessKind::Load => {
                let mut replies = 0;
                if state.modified && state.holders != bit {
                    // The owner downgrades M -> S and supplies the data.
                    replies = state.holders;
                    state.modified = false;
                }
                if !state.modified {
                    state.holders |= bit;
                }
                CoherenceAction {
                    replies,
                    invalidate: 0,
                }
            }
            AccessKind::Store => {
                // Every other holder acknowledges its invalidation; a store
                // by the block's owner finds none and is a silent upgrade.
                let others = state.holders & !bit;
                *state = BlockState {
                    holders: bit,
                    modified: true,
                };
                CoherenceAction {
                    replies: others,
                    invalidate: others,
                }
            }
        }
    }

    /// Records a DMA write to the block containing `addr`: the directory
    /// entry is reset to uncached. The caller invalidates the block in every
    /// core's caches (clearing first-load bits).
    pub fn dma_write(&mut self, addr: Addr) {
        let block = self.block_of(addr);
        self.blocks.remove(&block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const C2: CoreId = CoreId(2);

    fn dir() -> Directory {
        Directory::new(64)
    }

    #[test]
    fn private_access_generates_no_replies() {
        let mut d = dir();
        let none = CoherenceAction::default();
        assert_eq!(d.access(C0, Addr::new(0x100), AccessKind::Load), none);
        assert_eq!(d.access(C0, Addr::new(0x100), AccessKind::Store), none);
        assert_eq!(d.access(C0, Addr::new(0x100), AccessKind::Load), none);
    }

    #[test]
    fn remote_store_invalidates_sharers() {
        let mut d = dir();
        d.access(C0, Addr::new(0x100), AccessKind::Load);
        d.access(C1, Addr::new(0x100), AccessKind::Load);
        let action = d.access(C2, Addr::new(0x100), AccessKind::Store);
        assert_eq!(action.replies, 0b011);
        assert_eq!(action.invalidate, 0b011);
    }

    #[test]
    fn remote_load_downgrades_owner() {
        let mut d = dir();
        d.access(C0, Addr::new(0x200), AccessKind::Store);
        let action = d.access(C1, Addr::new(0x200), AccessKind::Load);
        assert_eq!(action.replies, 0b001);
        // Downgrade does not invalidate the owner's copy.
        assert_eq!(action.invalidate, 0);
        // A later store by C1 must now invalidate C0's shared copy.
        let action = d.access(C1, Addr::new(0x200), AccessKind::Store);
        assert_eq!(action.invalidate, 0b001);
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let mut d = dir();
        d.access(C0, Addr::new(0x300), AccessKind::Store);
        let action = d.access(C1, Addr::new(0x300), AccessKind::Store);
        assert_eq!(action.replies, 0b001);
        // Second store by the same new owner is silent.
        assert_eq!(d.access(C1, Addr::new(0x300), AccessKind::Store).replies, 0);
    }

    #[test]
    fn dma_invalidates_every_cacher() {
        let mut d = dir();
        d.access(C0, Addr::new(0x400), AccessKind::Load);
        d.access(C1, Addr::new(0x400), AccessKind::Load);
        d.dma_write(Addr::new(0x400));
        // Once cleared, nothing to invalidate.
        let action = d.access(C2, Addr::new(0x400), AccessKind::Store);
        assert_eq!(action, CoherenceAction::default());
    }

    #[test]
    fn same_block_different_words_share_state() {
        let mut d = dir();
        d.access(C0, Addr::new(0x500), AccessKind::Load);
        // 0x520 is in the same 64-byte block as 0x500.
        let action = d.access(C1, Addr::new(0x520), AccessKind::Store);
        assert_eq!(action.invalidate, 0b001);
    }

    #[test]
    fn masks_walk_in_ascending_core_order() {
        assert_eq!(cores_in(0).count(), 0);
        let mask = 1 | 1 << 5 | 1 << 63;
        assert_eq!(cores_in(mask).collect::<Vec<_>>(), vec![0, 5, 63]);
    }

    #[test]
    #[should_panic(expected = "core id below MAX_CORES")]
    fn cores_at_or_above_the_cap_are_rejected() {
        dir().access(CoreId(MAX_CORES as u32), Addr::new(0x700), AccessKind::Load);
    }
}
