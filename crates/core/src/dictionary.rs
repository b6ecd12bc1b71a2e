//! The frequent-value dictionary compressor (paper §4.3.1).
//!
//! Load values exhibit frequent-value locality: a small set of values (0, 1,
//! small constants, common pointers) accounts for a large fraction of all
//! load results. BugNet exploits this with a small fully-associative table:
//! if a load value is found in the table it is logged as a 6-bit index
//! instead of a full 32-bit value. The table is emptied at the start of each
//! checkpoint interval and updated on *every* executed load, so the replayer
//! can reconstruct the exact table state by simulating the same updates.
//!
//! The update rule follows the paper: each entry carries a 3-bit saturating
//! counter; on a hit the counter increments and, if it now reaches or exceeds
//! the counter of the entry ranked immediately above, the two entries swap
//! positions, letting very frequent values percolate to the top. On a miss
//! the value replaces the entry with the smallest counter (ties broken by the
//! lowest position in the table).
//!
//! The rank-ordered entry array is the table's state. Two flat structures
//! derived from it spare the per-load path any scan of that array:
//!
//! * a value → rank index: an open-addressed table of a power-of-two size at
//!   least twice the capacity, probed linearly from a multiplicative hash of
//!   the value. Deletion shifts the rest of the probe run back instead of
//!   leaving tombstones, so an eviction on every load never lengthens the
//!   probes, and `slot_of` maps each rank back to its slot so that a swap of
//!   two ranks rewrites just their two slots;
//! * one bitset of ranks per counter value, with a count per class: the
//!   eviction victim (the lowest-positioned entry among those with the
//!   smallest live counter) is the highest set bit of the first non-empty
//!   class, at most `capacity / 64` words from the top of its bitset (one
//!   word for the paper's 64 entries).
//!
//! The observable rank/eviction semantics are identical to a linear-scan
//! implementation (see the differential test in `tests/properties.rs`).

use bugnet_types::Word;

/// Fully-associative table of frequently-occurring load values.
///
/// # Examples
///
/// ```
/// use bugnet_core::dictionary::ValueDictionary;
/// use bugnet_types::Word;
///
/// let mut dict = ValueDictionary::new(64, 3);
/// assert_eq!(dict.lookup(Word::new(7)), None);
/// dict.observe(Word::new(7));
/// assert_eq!(dict.lookup(Word::new(7)), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct ValueDictionary {
    entries: Vec<Entry>,
    /// Value → rank index: `slots[slot_of[i]] == Slot { entries[i].value, i }`
    /// for every rank `i`, and every other slot is [`EMPTY`].
    slots: Vec<Slot>,
    slot_of: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash keeps the product's high bits.
    hash_shift: u32,
    /// Rank bitsets, one per counter value: class `c` is the
    /// `class_words` words from `c * class_words`, and bit `i` is set iff
    /// `entries[i].counter == c`.
    class_bits: Vec<u64>,
    class_words: usize,
    /// Number of ranks in each class (set bits in its bitset).
    class_len: Vec<u32>,
    capacity: usize,
    counter_max: u8,
    lookups: u64,
    hits: u64,
}

impl PartialEq for ValueDictionary {
    fn eq(&self, other: &Self) -> bool {
        // The entry array is the canonical state; the index and the
        // per-counter rank bitsets are derived from it.
        self.entries == other.entries
            && self.capacity == other.capacity
            && self.counter_max == other.counter_max
            && self.lookups == other.lookups
            && self.hits == other.hits
    }
}

impl Eq for ValueDictionary {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    value: Word,
    counter: u8,
}

/// One slot of the value → rank index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    value: Word,
    rank: u32,
}

/// An unoccupied index slot (no rank reaches `u32::MAX`: capacities are far
/// below it).
const EMPTY: Slot = Slot {
    value: Word::ZERO,
    rank: u32::MAX,
};

/// 2^64 divided by the golden ratio: multiplying by it spreads every input
/// bit into the product's high bits (Fibonacci hashing).
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl ValueDictionary {
    /// Creates an empty dictionary with `capacity` entries and
    /// `counter_bits`-wide saturating counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `counter_bits` is zero or above 8.
    pub fn new(capacity: usize, counter_bits: u32) -> Self {
        assert!(capacity > 0, "dictionary needs at least one entry");
        assert!(
            (1..=8).contains(&counter_bits),
            "counter must be 1..=8 bits"
        );
        let counter_max = ((1u16 << counter_bits) - 1) as u8;
        // At most half full, so every probe run ends at an empty slot soon.
        let table = (2 * capacity).next_power_of_two();
        let classes = counter_max as usize + 1;
        let class_words = capacity.div_ceil(64);
        ValueDictionary {
            entries: Vec::with_capacity(capacity),
            slots: vec![EMPTY; table],
            slot_of: Vec::with_capacity(capacity),
            hash_shift: 64 - table.trailing_zeros(),
            class_bits: vec![0; classes * class_words],
            class_words,
            class_len: vec![0; classes],
            capacity,
            counter_max,
            lookups: 0,
            hits: 0,
        }
    }

    /// Number of entries the table can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently occupied.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the table (start of a checkpoint interval) without resetting
    /// the hit statistics. Costs O(entries), not O(capacity).
    pub fn clear(&mut self) {
        for (rank, entry) in self.entries.iter().enumerate() {
            self.slots[self.slot_of[rank] as usize] = EMPTY;
            self.class_bits[entry.counter as usize * self.class_words + rank / 64] = 0;
        }
        self.entries.clear();
        self.slot_of.clear();
        self.class_len.fill(0);
    }

    /// The rank (index) of `value` if present. Does **not** update the table
    /// or the statistics; encoding uses [`ValueDictionary::encode`].
    pub fn lookup(&self, value: Word) -> Option<usize> {
        self.probe(value)
            .ok()
            .map(|slot| self.slots[slot].rank as usize)
    }

    /// The value stored at `rank`, used by the replayer to resolve a logged
    /// dictionary index.
    pub fn value_at(&self, rank: usize) -> Option<Word> {
        self.entries.get(rank).map(|e| e.value)
    }

    /// Looks up `value` for encoding (recording statistics) and then applies
    /// the per-load table update. Returns the rank the value had *before* the
    /// update, which is what gets written to the log.
    pub fn encode(&mut self, value: Word) -> Option<usize> {
        self.lookups += 1;
        let rank = self.update(value);
        if rank.is_some() {
            self.hits += 1;
        }
        rank
    }

    /// Applies the per-load table update for an executed load of `value`
    /// without recording compression statistics (used for loads that are not
    /// logged, and by the replayer for every load). The hit path is an index
    /// probe plus at most one swap, and the miss path finds its victim from
    /// the counter classes, with no scan of the entry array.
    pub fn observe(&mut self, value: Word) {
        self.update(value);
    }

    /// The per-load update; returns the rank `value` had before it.
    fn update(&mut self, value: Word) -> Option<usize> {
        match self.probe(value) {
            Ok(slot) => {
                let rank = self.slots[slot].rank as usize;
                self.bump(rank);
                Some(rank)
            }
            Err(empty) => {
                self.insert(value, empty);
                None
            }
        }
    }

    /// The slot of `value`'s probe run that holds it, or `Err` with the empty
    /// slot that ends the run. The table is at most half full, so a run
    /// always ends.
    fn probe(&self, value: Word) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(value);
        loop {
            let s = self.slots[slot];
            if s.rank == EMPTY.rank {
                return Err(slot);
            }
            if s.value == value {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot `value`'s probe run starts at.
    fn home(&self, value: Word) -> usize {
        (u64::from(value.get()).wrapping_mul(HASH_MULTIPLIER) >> self.hash_shift) as usize
    }

    /// Empties `hole` and shifts the rest of its probe run back over it, so
    /// no lookup ever has to step over a deleted slot.
    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        self.slots[hole] = EMPTY;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let s = self.slots[next];
            if s.rank == EMPTY.rank {
                return;
            }
            // `s` may fill the hole only if the hole lies between its home
            // slot and where it sits now.
            let home = self.home(s.value);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                self.slot_of[s.rank as usize] = hole as u32;
                self.slots[next] = EMPTY;
                hole = next;
            }
        }
    }

    /// Flips rank `rank`'s bit in counter class `class`. Callers pair the
    /// flips so that each rank stays in exactly its counter's class.
    fn flip_class_bit(&mut self, class: u8, rank: usize) {
        self.class_bits[class as usize * self.class_words + rank / 64] ^= 1 << (rank % 64);
    }

    /// Hit path: saturating-increment the counter at `i` and swap the entry
    /// one rank upward if it now matches or exceeds its upstairs neighbour.
    fn bump(&mut self, i: usize) {
        let old = self.entries[i].counter;
        let bumped = old.saturating_add(1).min(self.counter_max);
        if bumped != old {
            self.entries[i].counter = bumped;
            self.flip_class_bit(old, i);
            self.flip_class_bit(bumped, i);
            self.class_len[old as usize] -= 1;
            self.class_len[bumped as usize] += 1;
        }
        if i > 0 && bumped >= self.entries[i - 1].counter {
            let above = self.entries[i - 1].counter;
            self.entries.swap(i - 1, i);
            // Keep the index in sync: the two values trade slots' ranks.
            self.slot_of.swap(i - 1, i);
            self.slots[self.slot_of[i - 1] as usize].rank = (i - 1) as u32;
            self.slots[self.slot_of[i] as usize].rank = i as u32;
            // Equal counters swap within one class: nothing to move.
            if above != bumped {
                for class in [above, bumped] {
                    self.flip_class_bit(class, i - 1);
                    self.flip_class_bit(class, i);
                }
            }
        }
    }

    /// Miss path: append while there is room, otherwise replace the entry
    /// with the smallest counter (ties broken by the lowest position, i.e.
    /// the largest index). `empty` ends `value`'s probe run.
    fn insert(&mut self, value: Word, mut empty: usize) {
        let rank = if self.entries.len() < self.capacity {
            self.entries.push(Entry { value, counter: 1 });
            self.slot_of.push(0);
            self.entries.len() - 1
        } else {
            let victim = self.victim_rank();
            let old = self.entries[victim].counter;
            self.flip_class_bit(old, victim);
            self.class_len[old as usize] -= 1;
            self.remove_slot(self.slot_of[victim] as usize);
            // The shift may have emptied a slot earlier in `value`'s run.
            empty = self
                .probe(value)
                .expect_err("a missed value is not in the index");
            self.entries[victim] = Entry { value, counter: 1 };
            victim
        };
        self.slots[empty] = Slot {
            value,
            rank: rank as u32,
        };
        self.slot_of[rank] = empty as u32;
        self.flip_class_bit(1, rank);
        self.class_len[1] += 1;
    }

    /// Largest rank whose counter equals the smallest live counter value:
    /// the first non-empty class (at most `counter_max + 1 ≤ 256` counts, 8
    /// for the paper's 3-bit counters), then the highest set bit of its
    /// bitset.
    fn victim_rank(&self) -> usize {
        let class = self
            .class_len
            .iter()
            .position(|&n| n > 0)
            .expect("table is full, some counter value is live");
        let words = &self.class_bits[class * self.class_words..][..self.class_words];
        let (word, bits) = words
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &bits)| bits != 0)
            .expect("a live class has a set bit");
        word * 64 + 63 - bits.leading_zeros() as usize
    }

    /// `(lookups, hits)` observed through [`ValueDictionary::encode`].
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Fraction of encoded values found in the table, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Estimated CAM area of the table in bits (value + counter per entry),
    /// used by the hardware-complexity report.
    pub fn area_bits(&self) -> u64 {
        let counter_bits = 8 - self.counter_max.leading_zeros() as u64;
        self.capacity as u64 * (32 + counter_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(cap: usize) -> ValueDictionary {
        ValueDictionary::new(cap, 3)
    }

    /// The index and the per-counter rank bitsets must always be derivable
    /// from the entry array.
    fn check_invariants(d: &ValueDictionary) {
        assert_eq!(d.slot_of.len(), d.entries.len());
        let occupied = d.slots.iter().filter(|s| s.rank != EMPTY.rank).count();
        assert_eq!(occupied, d.entries.len(), "stray index slots");
        let mut bits = vec![0u64; d.class_bits.len()];
        let mut lens = vec![0u32; d.class_len.len()];
        for (i, e) in d.entries.iter().enumerate() {
            let slot = Slot {
                value: e.value,
                rank: i as u32,
            };
            assert_eq!(
                d.slots[d.slot_of[i] as usize], slot,
                "slot_of desync at {i}"
            );
            assert_eq!(d.lookup(e.value), Some(i), "index desync at {i}");
            bits[e.counter as usize * d.class_words + i / 64] |= 1 << (i % 64);
            lens[e.counter as usize] += 1;
        }
        assert_eq!(bits, d.class_bits, "class bitset desync");
        assert_eq!(lens, d.class_len, "class count desync");
    }

    #[test]
    fn miss_then_hit() {
        let mut d = dict(4);
        assert_eq!(d.encode(Word::new(5)), None);
        assert_eq!(d.encode(Word::new(5)), Some(0));
        assert_eq!(d.stats(), (2, 1));
        assert!((d.hit_rate() - 0.5).abs() < 1e-9);
        check_invariants(&d);
    }

    #[test]
    fn frequent_values_percolate_to_top() {
        let mut d = dict(4);
        d.observe(Word::new(1));
        d.observe(Word::new(2));
        // Value 2 becomes more frequent than value 1 and should climb above it.
        for _ in 0..3 {
            d.observe(Word::new(2));
        }
        assert_eq!(d.lookup(Word::new(2)), Some(0));
        assert_eq!(d.lookup(Word::new(1)), Some(1));
        check_invariants(&d);
    }

    #[test]
    fn replacement_picks_smallest_counter_lowest_position() {
        let mut d = dict(2);
        d.observe(Word::new(10)); // counter 1
        d.observe(Word::new(20)); // counter 1
        d.observe(Word::new(10)); // counter 2, stays/rises to top
                                  // Table full; 30 replaces the entry with the smallest counter; both
                                  // candidates... only 20 has counter 1, and it sits at the bottom.
        d.observe(Word::new(30));
        assert!(d.lookup(Word::new(10)).is_some());
        assert!(d.lookup(Word::new(20)).is_none());
        assert!(d.lookup(Word::new(30)).is_some());
        check_invariants(&d);
    }

    #[test]
    fn replacement_tie_breaks_to_lowest_position() {
        let mut d = dict(3);
        d.observe(Word::new(1));
        d.observe(Word::new(2));
        d.observe(Word::new(3));
        // All counters are 1; the victim must be the lowest position (index 2).
        d.observe(Word::new(4));
        assert!(d.lookup(Word::new(3)).is_none());
        assert_eq!(d.lookup(Word::new(1)), Some(0));
        assert_eq!(d.lookup(Word::new(2)), Some(1));
        assert_eq!(d.lookup(Word::new(4)), Some(2));
        check_invariants(&d);
    }

    #[test]
    fn counters_saturate() {
        let mut d = ValueDictionary::new(2, 3);
        for _ in 0..100 {
            d.observe(Word::new(9));
        }
        // Still present and still at rank 0; the counter stopped at 7.
        assert_eq!(d.lookup(Word::new(9)), Some(0));
        // A new value can still be inserted into the free slot.
        d.observe(Word::new(10));
        assert_eq!(d.lookup(Word::new(10)), Some(1));
        check_invariants(&d);
    }

    #[test]
    fn clear_keeps_statistics() {
        let mut d = dict(4);
        d.encode(Word::new(3));
        d.encode(Word::new(3));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.stats(), (2, 1));
        assert_eq!(d.lookup(Word::new(3)), None);
        check_invariants(&d);
    }

    #[test]
    fn encode_rank_is_pre_update() {
        let mut d = dict(4);
        d.observe(Word::new(1));
        d.observe(Word::new(2));
        d.observe(Word::new(2));
        // 2 is now at rank 0, 1 at rank 1. Encoding 1 reports rank 1 even if
        // the update that follows could eventually move it.
        assert_eq!(d.encode(Word::new(1)), Some(1));
    }

    #[test]
    fn area_scales_with_capacity() {
        assert_eq!(dict(64).area_bits(), 64 * 35);
        assert_eq!(dict(8).area_bits(), 8 * 35);
    }

    #[test]
    fn encoder_and_replayer_stay_in_sync() {
        // Simulate the encoder (encode) and replayer (observe) over the same
        // value stream and check the tables match after every step.
        let mut enc = dict(8);
        let mut rep = dict(8);
        let stream: Vec<u32> = (0..200).map(|i| (i * 7) % 13).collect();
        for v in stream {
            let rank = enc.encode(Word::new(v));
            // The replayer first resolves the rank (if any), then observes.
            if let Some(r) = rank {
                assert_eq!(rep.value_at(r), Some(Word::new(v)));
            }
            rep.observe(Word::new(v));
            assert_eq!(enc.entries, rep.entries);
        }
        check_invariants(&enc);
        check_invariants(&rep);
    }

    #[test]
    fn index_survives_heavy_churn() {
        // Many evictions and swaps, in one class-bitset word and across two,
        // with values that share their low 16 bits; the derived structures
        // must stay consistent throughout.
        for (capacity, shift) in [(4, 0), (65, 16)] {
            let mut d = dict(capacity);
            let mut x = 1u32;
            for step in 0..10_000 {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                d.observe(Word::new((x % (capacity as u32 * 6)) << shift));
                if step % 1_000 == 0 {
                    check_invariants(&d);
                }
            }
            check_invariants(&d);
            assert_eq!(d.len(), capacity);
            d.clear();
            check_invariants(&d);
        }
    }
}
