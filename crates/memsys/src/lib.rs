//! The simulated memory hierarchy.
//!
//! BugNet's first-load optimization lives in the cache: every word in the L1
//! and L2 caches carries a *first-load bit* that is cleared at the start of
//! each checkpoint interval, set on the first access to the word, propagated
//! between the levels on fills and evictions, and cleared whenever the block
//! leaves the L2 or is invalidated by coherence traffic or DMA. This crate
//! provides that machinery plus the substrate around it:
//!
//! * [`SparseMemory`] — functional word-granularity main memory, in 4 KiB
//!   pages allocated on first write: the one memory of the recording
//!   machine (DMA input included), the replayer and the plain interpreter
//!   port.
//! * [`CacheHierarchy`] — a private L1+L2 pair per core that tracks block
//!   residency and per-word first-load bits (metadata only; data values come
//!   from [`SparseMemory`], which is exact). Each level is flat set arrays
//!   holding one tag, one LRU stamp and one `u64` word mask of first-load
//!   bits per block, so a level's set count is a power of two and a block
//!   holds at most 64 words (256 B).
//! * [`Directory`] — an MSI directory coherence protocol over the cores'
//!   private hierarchies; its reply messages are what BugNet and FDR
//!   piggy-back memory-race information on. A block's state is one `u64`
//!   mask of the cores holding it plus a modified flag, and each access
//!   answers with two masks, the cores that reply and the cores that
//!   invalidate, so a directory serves at most [`MAX_CORES`] cores. DMA
//!   input resets a block to uncached ([`Directory::dma_write`]).
//!
//! # Examples
//!
//! ```
//! use bugnet_memsys::{CacheHierarchy, AccessKind, FirstAccess};
//! use bugnet_types::{Addr, CacheConfig};
//!
//! let mut caches = CacheHierarchy::new(CacheConfig::default());
//! // First load to a word must be logged...
//! assert_eq!(caches.touch(Addr::new(0x1000), AccessKind::Load), FirstAccess::MustLog);
//! // ...subsequent accesses to the same word need not be.
//! assert_eq!(caches.touch(Addr::new(0x1000), AccessKind::Load), FirstAccess::AlreadyCovered);
//! ```

pub mod cache;
pub mod coherence;
pub mod memory;

pub use cache::{AccessKind, CacheHierarchy, CacheStats, FirstAccess};
pub use coherence::{cores_in, CoherenceAction, Directory, MAX_CORES};
pub use memory::SparseMemory;
