//! Private L1/L2 caches with per-word first-load bits.
//!
//! The caches are *metadata-only*: they track which blocks are resident and
//! the first-load bit of every cached word, which is all BugNet's recording
//! hardware consults. Data values are always read from the functional
//! [`crate::SparseMemory`], so the cache never needs to model data movement to
//! be correct; it only has to model *when bits are lost* (evictions and
//! invalidations), because lost bits cause re-logging, which is exactly the
//! effect the paper's log-size results capture.
//!
//! Each level is three flat arrays with one entry per way, way `w` of set `s`
//! at index `s * ways + w`: the block's tag, its first-load bits as one word
//! mask (bit `i` is word `i` of the block) and its LRU stamp. The set index
//! and the tag are bit fields of the address, so a level's set count must be
//! a power of two, and a block holds at most 64 words (256 B).

use bugnet_types::{Addr, CacheConfig, CacheLevelConfig, WORD_BYTES};

/// Whether a memory access reads or writes the word.
///
/// An atomic read-modify-write is treated as a [`AccessKind::Load`] by the
/// recorder (the old value must be logged if it is the first access) and the
/// bit is set either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The access reads the word (loads, and the read half of atomics).
    Load,
    /// The access writes the word without reading it.
    Store,
}

/// Outcome of consulting the first-load bit for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirstAccess {
    /// The access is the first load to this word in the current checkpoint
    /// interval: its value must be appended to the First-Load Log.
    MustLog,
    /// The word was already covered (previously loaded and logged, or first
    /// touched by a store whose value replay regenerates): nothing to log.
    AlreadyCovered,
}

/// Aggregate cache statistics, used by reports and the overhead model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in the L1.
    pub l1_hits: u64,
    /// Accesses that missed in the L1.
    pub l1_misses: u64,
    /// L1 misses that hit in the L2.
    pub l2_hits: u64,
    /// Accesses that missed in both levels (main-memory accesses).
    pub l2_misses: u64,
    /// Blocks evicted from the L2 (their first-load bits are lost).
    pub l2_evictions: u64,
    /// Blocks invalidated by coherence or DMA activity.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }
}

/// Tag of an empty way. A tag is an address shifted right past a block of
/// at least one word, so no block's tag reaches it.
const EMPTY: u64 = u64::MAX;

/// One cache level as flat set arrays, indexed by `set * ways + way`.
#[derive(Debug, Clone)]
struct CacheLevel {
    ways: usize,
    block_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    /// The tag of the block in each way, or [`EMPTY`].
    tags: Vec<u64>,
    /// Each way's first-load word mask; zero in an empty way.
    bits: Vec<u64>,
    /// Each way's last-use stamp: zero in an empty way and above zero in a
    /// full one, so a set's least recently used way is its first empty way
    /// while it has one.
    stamps: Vec<u64>,
    tick: u64,
}

impl CacheLevel {
    fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.num_sets();
        let entries = sets as usize * cfg.associativity;
        let block_shift = cfg.block_bytes.trailing_zeros();
        CacheLevel {
            ways: cfg.associativity,
            block_shift,
            set_mask: sets - 1,
            tag_shift: block_shift + sets.trailing_zeros(),
            tags: vec![EMPTY; entries],
            bits: vec![0; entries],
            stamps: vec![0; entries],
            tick: 0,
        }
    }

    /// The first entry of the set `addr` maps to, and `addr`'s tag.
    fn slot(&self, addr: Addr) -> (usize, u64) {
        let set = (addr.raw() >> self.block_shift) & self.set_mask;
        (set as usize * self.ways, addr.raw() >> self.tag_shift)
    }

    /// The entry holding the block that contains `addr`.
    fn find(&self, addr: Addr) -> Option<usize> {
        let (base, tag) = self.slot(addr);
        let set = &self.tags[base..base + self.ways];
        set.iter().position(|&t| t == tag).map(|way| base + way)
    }

    /// Like [`CacheLevel::find`], and marks the entry most recently used.
    fn lookup(&mut self, addr: Addr) -> Option<usize> {
        let entry = self.find(addr)?;
        self.stamp(entry);
        Some(entry)
    }

    fn stamp(&mut self, entry: usize) {
        self.tick += 1;
        self.stamps[entry] = self.tick;
    }

    /// Puts the block containing `addr`, with `bits`, into the least recently
    /// used way of its set, and returns the address and bits of the block it
    /// evicts.
    fn fill(&mut self, addr: Addr, bits: u64) -> Option<(Addr, u64)> {
        let (base, tag) = self.slot(addr);
        let stamps = &self.stamps[base..base + self.ways];
        // `min_by_key` returns the first of equal minima.
        let way = (0..self.ways)
            .min_by_key(|&way| stamps[way])
            .expect("associativity > 0");
        let entry = base + way;
        let victim = std::mem::replace(&mut self.tags[entry], tag);
        let victim_bits = std::mem::replace(&mut self.bits[entry], bits);
        self.stamp(entry);
        let set = (base / self.ways) as u64;
        (victim != EMPTY).then(|| {
            let victim_addr = (victim << self.tag_shift) | (set << self.block_shift);
            (Addr::new(victim_addr), victim_bits)
        })
    }

    /// Empties the way holding the block containing `addr`, clearing its
    /// bits. Returns `true` if the block was present.
    fn invalidate(&mut self, addr: Addr) -> bool {
        let Some(entry) = self.find(addr) else {
            return false;
        };
        self.tags[entry] = EMPTY;
        self.bits[entry] = 0;
        self.stamps[entry] = 0;
        true
    }

    fn resident_blocks(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }
}

/// A private two-level cache hierarchy (L1 backed by an inclusive L2) with
/// per-word first-load bits.
///
/// The bit lifecycle follows the paper (§4.3):
///
/// * cleared for every cached word at the start of a checkpoint interval;
/// * set by the first access (load **or** store) to a word;
/// * copied from the L2 into the L1 when a block is filled, and written back
///   from the L1 into the L2 when an L1 block is evicted;
/// * lost when a block is evicted from the L2 or invalidated (coherence, DMA),
///   which forces the next load to that word to be logged again.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    block_bytes: u64,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different block sizes (the bit
    /// propagation between levels assumes a common block geometry), if a
    /// level's set count is not a power of two, or if a block holds fewer
    /// than 1 or more than 64 words (one bit per word of a `u64` mask).
    pub fn new(cfg: CacheConfig) -> Self {
        assert_eq!(
            cfg.l1.block_bytes, cfg.l2.block_bytes,
            "L1 and L2 must share a block size"
        );
        for level in [cfg.l1, cfg.l2] {
            assert!(
                level.num_sets().is_power_of_two(),
                "a cache level's set count must be a power of two, not {}",
                level.num_sets()
            );
        }
        assert!(
            (1..=u64::BITS as usize).contains(&cfg.l1.words_per_block()),
            "a cache block must hold 1 to 64 words, not {} B",
            cfg.l1.block_bytes
        );
        CacheHierarchy {
            l1: CacheLevel::new(cfg.l1),
            l2: CacheLevel::new(cfg.l2),
            block_bytes: cfg.l1.block_bytes,
            stats: CacheStats::default(),
        }
    }

    /// The mask bit of the word containing `addr` within its block.
    fn word_bit(&self, addr: Addr) -> u64 {
        1 << ((addr.raw() & (self.block_bytes - 1)) / WORD_BYTES)
    }

    /// Consults (and sets) the first-load bit for an access to `addr`.
    ///
    /// Returns [`FirstAccess::MustLog`] exactly when the access is a load and
    /// the word's bit was not yet set.
    pub fn touch(&mut self, addr: Addr, kind: AccessKind) -> FirstAccess {
        let bit = self.word_bit(addr);
        let was_set = if let Some(entry) = self.l1.lookup(addr) {
            self.stats.l1_hits += 1;
            let was = self.l1.bits[entry] & bit != 0;
            self.l1.bits[entry] |= bit;
            was
        } else {
            self.stats.l1_misses += 1;
            // Fill from the L2 (taking over its bits) or from memory.
            let bits = if let Some(entry) = self.l2.lookup(addr) {
                self.stats.l2_hits += 1;
                self.l2.bits[entry]
            } else {
                self.stats.l2_misses += 1;
                // Allocate in the L2 as well (inclusive hierarchy).
                if let Some((victim, _)) = self.l2.fill(addr, 0) {
                    self.stats.l2_evictions += 1;
                    // Back-invalidate the L1 copy: its bits are lost with the
                    // L2 block, per the paper.
                    self.l1.invalidate(victim);
                }
                0
            };
            if let Some((victim, victim_bits)) = self.l1.fill(addr, bits | bit) {
                // An evicted L1 block deposits its bits into the L2 copy.
                if let Some(entry) = self.l2.lookup(victim) {
                    self.l2.bits[entry] = victim_bits;
                }
            }
            bits & bit != 0
        };

        match (kind, was_set) {
            (AccessKind::Load, false) => FirstAccess::MustLog,
            _ => FirstAccess::AlreadyCovered,
        }
    }

    /// Clears every first-load bit (start of a new checkpoint interval).
    pub fn clear_first_load_bits(&mut self) {
        self.l1.bits.fill(0);
        self.l2.bits.fill(0);
    }

    /// Invalidates the block containing `addr` in both levels (coherence
    /// invalidation or DMA write), clearing its first-load bits.
    ///
    /// Returns `true` if a block was actually present.
    pub fn invalidate_block(&mut self, addr: Addr) -> bool {
        let in_l1 = self.l1.invalidate(addr);
        let in_l2 = self.l2.invalidate(addr);
        if in_l1 || in_l2 {
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Whether the block containing `addr` is resident in either level.
    pub fn contains_block(&self, addr: Addr) -> bool {
        self.l1.find(addr).is_some() || self.l2.find(addr).is_some()
    }

    /// Whether the first-load bit for the word containing `addr` is currently
    /// set in the level closest to the processor that holds the block.
    pub fn first_load_bit(&self, addr: Addr) -> bool {
        let bit = self.word_bit(addr);
        [&self.l1, &self.l2]
            .into_iter()
            .find_map(|level| level.find(addr).map(|entry| level.bits[entry] & bit != 0))
            .unwrap_or(false)
    }

    /// Cache statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of valid blocks in (L1, L2).
    pub fn resident_blocks(&self) -> (usize, usize) {
        (self.l1.resident_blocks(), self.l2.resident_blocks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_types::{CacheLevelConfig, SplitMix64};

    fn tiny_config() -> CacheConfig {
        // 2 sets x 2 ways x 64B blocks L1; 4 sets x 2 ways L2.
        CacheConfig {
            l1: CacheLevelConfig::new(256, 2, 64),
            l2: CacheLevelConfig::new(512, 2, 64),
        }
    }

    #[test]
    fn first_load_then_covered() {
        let mut c = CacheHierarchy::new(CacheConfig::default());
        let a = Addr::new(0x1000);
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::AlreadyCovered);
        // A different word in the same block is still a first load.
        assert_eq!(
            c.touch(Addr::new(0x1004), AccessKind::Load),
            FirstAccess::MustLog
        );
    }

    #[test]
    fn store_first_suppresses_logging() {
        let mut c = CacheHierarchy::new(CacheConfig::default());
        let a = Addr::new(0x2000);
        assert_eq!(c.touch(a, AccessKind::Store), FirstAccess::AlreadyCovered);
        // The later load is regenerated by replaying the store: no log needed.
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::AlreadyCovered);
    }

    #[test]
    fn interval_reset_clears_bits() {
        let mut c = CacheHierarchy::new(CacheConfig::default());
        let a = Addr::new(0x3000);
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
        c.clear_first_load_bits();
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
    }

    #[test]
    fn invalidation_forces_relog() {
        let mut c = CacheHierarchy::new(CacheConfig::default());
        let a = Addr::new(0x4000);
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
        assert!(c.invalidate_block(a));
        assert!(!c.invalidate_block(a), "second invalidation finds nothing");
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
    }

    #[test]
    fn l2_eviction_loses_bits() {
        let mut c = CacheHierarchy::new(tiny_config());
        // The tiny L2 has 4 sets x 2 ways = 8 blocks; touching many distinct
        // blocks mapping to the same set forces evictions.
        let a = Addr::new(0);
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
        // Touch enough other blocks in the same L2 set to evict block 0.
        // L2 set index = (addr/64) % 4, so addresses 0, 1024, 2048, ... share set 0.
        for i in 1..8u64 {
            c.touch(Addr::new(i * 64 * 4), AccessKind::Load);
        }
        assert!(c.stats().l2_evictions > 0);
        // Block 0 was evicted somewhere along the way; re-accessing it logs again.
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
    }

    #[test]
    fn l1_eviction_preserves_bits_via_l2() {
        let mut c = CacheHierarchy::new(tiny_config());
        // L1: 2 sets x 2 ways. Blocks 0, 2 and 4 (addresses 0, 128, 256) all
        // map to L1 set 0 but fit in the larger L2 without evictions there.
        let a = Addr::new(0);
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::MustLog);
        c.touch(Addr::new(128), AccessKind::Load);
        c.touch(Addr::new(256), AccessKind::Load); // evicts block 0 from L1
                                                   // Bits survived in the L2, so this is not logged again.
        assert_eq!(c.touch(a, AccessKind::Load), FirstAccess::AlreadyCovered);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = CacheHierarchy::new(CacheConfig::default());
        c.touch(Addr::new(0x100), AccessKind::Load);
        c.touch(Addr::new(0x100), AccessKind::Load);
        let s = c.stats();
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn first_load_bit_probe() {
        let mut c = CacheHierarchy::new(CacheConfig::default());
        let a = Addr::new(0x5000);
        assert!(!c.first_load_bit(a));
        c.touch(a, AccessKind::Store);
        assert!(c.first_load_bit(a));
        assert!(!c.first_load_bit(Addr::new(0x5004)));
        assert!(c.contains_block(a));
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn set_counts_must_be_powers_of_two() {
        // An L1 of 3 sets x 2 ways x 64 B.
        CacheHierarchy::new(CacheConfig {
            l1: CacheLevelConfig::new(384, 2, 64),
            l2: CacheLevelConfig::new(512, 2, 64),
        });
    }

    #[test]
    #[should_panic(expected = "must hold 1 to 64 words")]
    fn blocks_hold_at_most_64_words() {
        // 512 B blocks hold 128 words.
        CacheHierarchy::new(CacheConfig {
            l1: CacheLevelConfig::new(2048, 2, 512),
            l2: CacheLevelConfig::new(4096, 2, 512),
        });
    }

    /// One level of the reference cache: a `Vec` of ways per set, each way
    /// with its own `Vec<bool>` of first-load bits, found by division.
    struct RefLevel {
        cfg: CacheLevelConfig,
        sets: Vec<Vec<RefWay>>,
        tick: u64,
    }

    #[derive(Clone)]
    struct RefWay {
        valid: bool,
        tag: u64,
        bits: Vec<bool>,
        lru: u64,
    }

    impl RefLevel {
        fn new(cfg: CacheLevelConfig) -> Self {
            let way = RefWay {
                valid: false,
                tag: 0,
                bits: vec![false; cfg.words_per_block()],
                lru: 0,
            };
            let sets = vec![vec![way; cfg.associativity]; cfg.num_sets() as usize];
            RefLevel { cfg, sets, tick: 0 }
        }

        fn set_and_tag(&self, block: Addr) -> (usize, u64) {
            let number = block.raw() / self.cfg.block_bytes;
            let sets = self.cfg.num_sets();
            ((number % sets) as usize, number / sets)
        }

        fn find(&self, block: Addr) -> Option<&RefWay> {
            let (set, tag) = self.set_and_tag(block);
            self.sets[set].iter().find(|w| w.valid && w.tag == tag)
        }

        fn lookup_mut(&mut self, block: Addr) -> Option<&mut RefWay> {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_and_tag(block);
            let way = self.sets[set]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)?;
            way.lru = tick;
            Some(way)
        }

        /// Fills the first invalid way, else evicts the least recently used.
        fn insert(&mut self, block: Addr, bits: Vec<bool>) -> Option<(Addr, Vec<bool>)> {
            self.tick += 1;
            let tick = self.tick;
            let (set_index, tag) = self.set_and_tag(block);
            let (num_sets, block_bytes) = (self.cfg.num_sets(), self.cfg.block_bytes);
            let set = &mut self.sets[set_index];
            let filled = RefWay {
                valid: true,
                tag,
                bits,
                lru: tick,
            };
            if let Some(way) = set.iter_mut().find(|w| !w.valid) {
                *way = filled;
                return None;
            }
            let victim = set.iter_mut().min_by_key(|w| w.lru).expect("ways > 0");
            let victim_addr = (victim.tag * num_sets + set_index as u64) * block_bytes;
            let evicted = std::mem::replace(victim, filled);
            Some((Addr::new(victim_addr), evicted.bits))
        }

        fn invalidate(&mut self, block: Addr) -> bool {
            let (set, tag) = self.set_and_tag(block);
            let words = self.cfg.words_per_block();
            self.sets[set]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)
                .map(|w| {
                    w.valid = false;
                    w.bits = vec![false; words];
                })
                .is_some()
        }

        fn resident_blocks(&self) -> usize {
            self.sets.iter().flatten().filter(|w| w.valid).count()
        }
    }

    /// The hierarchy of per-way `Vec<bool>` bits that the flat arrays
    /// replaced, kept to check them against.
    struct RefHierarchy {
        l1: RefLevel,
        l2: RefLevel,
        stats: CacheStats,
    }

    impl RefHierarchy {
        fn new(cfg: CacheConfig) -> Self {
            RefHierarchy {
                l1: RefLevel::new(cfg.l1),
                l2: RefLevel::new(cfg.l2),
                stats: CacheStats::default(),
            }
        }

        fn block_and_word(&self, addr: Addr) -> (Addr, usize) {
            let block = addr.block_aligned(self.l1.cfg.block_bytes);
            let word = (addr.word_aligned().raw() - block.raw()) / WORD_BYTES;
            (block, word as usize)
        }

        fn touch(&mut self, addr: Addr, kind: AccessKind) -> FirstAccess {
            let (block, word) = self.block_and_word(addr);
            let was_set = if let Some(way) = self.l1.lookup_mut(block) {
                self.stats.l1_hits += 1;
                std::mem::replace(&mut way.bits[word], true)
            } else {
                self.stats.l1_misses += 1;
                let mut bits = if let Some(way) = self.l2.lookup_mut(block) {
                    self.stats.l2_hits += 1;
                    way.bits.clone()
                } else {
                    self.stats.l2_misses += 1;
                    let words = self.l2.cfg.words_per_block();
                    if let Some((victim, _)) = self.l2.insert(block, vec![false; words]) {
                        self.stats.l2_evictions += 1;
                        self.l1.invalidate(victim);
                    }
                    vec![false; words]
                };
                let was = std::mem::replace(&mut bits[word], true);
                if let Some((victim, victim_bits)) = self.l1.insert(block, bits) {
                    if let Some(way) = self.l2.lookup_mut(victim) {
                        way.bits = victim_bits;
                    }
                }
                was
            };
            match (kind, was_set) {
                (AccessKind::Load, false) => FirstAccess::MustLog,
                _ => FirstAccess::AlreadyCovered,
            }
        }

        fn clear_first_load_bits(&mut self) {
            for level in [&mut self.l1, &mut self.l2] {
                for way in level.sets.iter_mut().flatten() {
                    way.bits.fill(false);
                }
            }
        }

        fn invalidate_block(&mut self, addr: Addr) -> bool {
            let (block, _) = self.block_and_word(addr);
            let in_l1 = self.l1.invalidate(block);
            let in_l2 = self.l2.invalidate(block);
            if in_l1 || in_l2 {
                self.stats.invalidations += 1;
            }
            in_l1 || in_l2
        }

        fn contains_block(&self, addr: Addr) -> bool {
            let (block, _) = self.block_and_word(addr);
            self.l1.find(block).is_some() || self.l2.find(block).is_some()
        }

        fn first_load_bit(&self, addr: Addr) -> bool {
            let (block, word) = self.block_and_word(addr);
            let l1 = self.l1.find(block).map(|w| w.bits[word]);
            l1.or_else(|| self.l2.find(block).map(|w| w.bits[word]))
                .unwrap_or(false)
        }

        fn resident_blocks(&self) -> (usize, usize) {
            (self.l1.resident_blocks(), self.l2.resident_blocks())
        }
    }

    #[test]
    fn flat_arrays_match_the_reference_hierarchy() {
        let geometries = [
            tiny_config(),
            // One set, fully associative, with 64-word (256 B) blocks.
            CacheConfig {
                l1: CacheLevelConfig::new(4 * 256, 4, 256),
                l2: CacheLevelConfig::new(8 * 256, 8, 256),
            },
            CacheConfig::default(),
        ];
        for (seed, cfg) in geometries.into_iter().enumerate() {
            let mut flat = CacheHierarchy::new(cfg);
            let mut reference = RefHierarchy::new(cfg);
            let mut rng = SplitMix64::new(seed as u64);
            // Blocks from up to four L2 sets, twice as many as their ways
            // hold, so both levels hit, evict and refill.
            let block_bytes = cfg.l2.block_bytes;
            let set_span = cfg.l2.num_sets() * block_bytes;
            let sets = cfg.l2.num_sets().min(4);
            let tags = 2 * cfg.l2.associativity as u64;
            let random_addr = |rng: &mut SplitMix64| {
                let block = rng.next_range(tags) * set_span + rng.next_range(sets) * block_bytes;
                Addr::new(block + rng.next_range(block_bytes))
            };
            for step in 0..5_000 {
                let addr = random_addr(&mut rng);
                let op = rng.next_range(100);
                let context = format!("geometry {seed}, step {step}, {addr}, op {op}");
                match op {
                    0..=2 => assert_eq!(
                        flat.invalidate_block(addr),
                        reference.invalidate_block(addr),
                        "{context}"
                    ),
                    3 => {
                        flat.clear_first_load_bits();
                        reference.clear_first_load_bits();
                    }
                    _ => {
                        let kind = if op < 60 {
                            AccessKind::Load
                        } else {
                            AccessKind::Store
                        };
                        assert_eq!(
                            flat.touch(addr, kind),
                            reference.touch(addr, kind),
                            "{context}"
                        );
                    }
                }
                assert_eq!(flat.stats(), reference.stats, "{context}");
                assert_eq!(
                    flat.resident_blocks(),
                    reference.resident_blocks(),
                    "{context}"
                );
                for probe in [addr, addr.offset(4), random_addr(&mut rng)] {
                    assert_eq!(
                        flat.first_load_bit(probe),
                        reference.first_load_bit(probe),
                        "{context}, probe {probe}"
                    );
                    assert_eq!(
                        flat.contains_block(probe),
                        reference.contains_block(probe),
                        "{context}, probe {probe}"
                    );
                }
            }
            let CacheStats {
                l2_evictions,
                invalidations,
                ..
            } = flat.stats();
            assert!(
                l2_evictions > 100,
                "geometry {seed}: {l2_evictions} L2 evictions"
            );
            assert!(
                invalidations > 10,
                "geometry {seed}: {invalidations} invalidations"
            );
        }
    }
}
