//! Functional main memory.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use bugnet_types::{Addr, Word};

/// Words per page (4 KiB pages).
const PAGE_WORDS: usize = 1024;

type Page = [Word; PAGE_WORDS];

/// Word-granularity sparse main memory.
///
/// Unwritten locations read as zero, which matches the simulator's model of a
/// zero-initialized address space. Words live in 1,024-word (4 KiB) pages,
/// allocated on the first non-zero write into them and keyed by page number,
/// so the structure stays compact for the multi-gigabyte synthetic address
/// spaces used by the workloads while a load or store costs one cheap hash
/// probe. Pages are only freed by [`SparseMemory::clear`]: a page written
/// and then zeroed reads, counts and compares like one never touched.
///
/// # Examples
///
/// ```
/// use bugnet_memsys::SparseMemory;
/// use bugnet_types::{Addr, Word};
///
/// let mut mem = SparseMemory::new();
/// assert_eq!(mem.read(Addr::new(0x100)), Word::ZERO);
/// mem.write(Addr::new(0x100), Word::new(42));
/// assert_eq!(mem.read(Addr::new(0x100)), Word::new(42));
/// ```
#[derive(Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>,
    /// Number of non-zero words, kept on every zero ↔ non-zero write.
    populated: usize,
}

/// Hashes a page number with one folded multiply: the 128-bit product's
/// halves XORed, so every key bit reaches the low bits the table indexes
/// with and the high bits it tags with. Keys are the simulated program's own
/// page numbers; a program that picks colliding pages only slows itself, as
/// a long loop would.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Page number and offset within it of the word containing `addr`.
fn locate(addr: Addr) -> (u64, usize) {
    let index = addr.word_index();
    (index / PAGE_WORDS as u64, index as usize % PAGE_WORDS)
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Reads the word containing `addr` (the address is word-aligned first).
    pub fn read(&self, addr: Addr) -> Word {
        let (page, offset) = locate(addr);
        self.pages
            .get(&page)
            .map_or(Word::ZERO, |words| words[offset])
    }

    /// Writes the word containing `addr` (the address is word-aligned first).
    pub fn write(&mut self, addr: Addr, value: Word) {
        let (page, offset) = locate(addr);
        let word = if value == Word::ZERO {
            // A zero store to an untouched page changes nothing a reader can
            // see: do not allocate the page for it.
            match self.pages.get_mut(&page) {
                Some(words) => &mut words[offset],
                None => return,
            }
        } else {
            &mut self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([Word::ZERO; PAGE_WORDS]))[offset]
        };
        match (*word == Word::ZERO, value == Word::ZERO) {
            (true, false) => self.populated += 1,
            (false, true) => self.populated -= 1,
            _ => {}
        }
        *word = value;
    }

    /// Copies a slice of words starting at `base`.
    pub fn write_block(&mut self, base: Addr, values: &[Word]) {
        for (i, v) in values.iter().enumerate() {
            self.write(Addr::new(base.word_aligned().raw() + i as u64 * 4), *v);
        }
    }

    /// Reads `count` words starting at `base`.
    pub fn read_block(&self, base: Addr, count: usize) -> Vec<Word> {
        (0..count)
            .map(|i| self.read(Addr::new(base.word_aligned().raw() + i as u64 * 4)))
            .collect()
    }

    /// Number of words that currently hold a non-zero value.
    pub fn populated_words(&self) -> usize {
        self.populated
    }

    /// Approximate resident footprint in bytes (non-zero words only), used by
    /// the FDR core-dump size model.
    pub fn footprint_bytes(&self) -> u64 {
        self.populated as u64 * 4
    }

    /// Removes all contents, returning the memory to the all-zero state.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.populated = 0;
    }

    /// Iterates over `(word address, value)` pairs of populated words in an
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.pages.iter().flat_map(|(&page, words)| {
            let first = page * PAGE_WORDS as u64;
            words
                .iter()
                .enumerate()
                .filter(|(_, w)| **w != Word::ZERO)
                .map(move |(i, w)| (Addr::from_word_index(first + i as u64), *w))
        })
    }
}

impl PartialEq for SparseMemory {
    /// Equal contents: a page that is all zeros equals an absent one.
    fn eq(&self, other: &Self) -> bool {
        // With equal counts, every populated word of `self` reading the same
        // in `other` leaves `other` no populated word that `self` lacks.
        self.populated == other.populated
            && self
                .pages
                .iter()
                .all(|(page, words)| match other.pages.get(page) {
                    Some(theirs) => words == theirs,
                    None => words.iter().all(|w| *w == Word::ZERO),
                })
    }
}

impl Eq for SparseMemory {}

impl fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseMemory")
            .field("pages", &self.pages.len())
            .field("populated_words", &self.populated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use bugnet_types::SplitMix64;

    use super::*;

    #[test]
    fn default_is_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read(Addr::new(0)), Word::ZERO);
        assert_eq!(mem.read(Addr::new(0xffff_ffff_fff0)), Word::ZERO);
        assert_eq!(mem.populated_words(), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut mem = SparseMemory::new();
        mem.write(Addr::new(0x104), Word::new(7));
        assert_eq!(mem.read(Addr::new(0x104)), Word::new(7));
        // Unaligned reads hit the containing word.
        assert_eq!(mem.read(Addr::new(0x106)), Word::new(7));
        mem.write(Addr::new(0x104), Word::ZERO);
        assert_eq!(mem.read(Addr::new(0x104)), Word::ZERO);
        assert_eq!(mem.populated_words(), 0);
    }

    #[test]
    fn block_copy() {
        let mut mem = SparseMemory::new();
        let vals: Vec<Word> = (1..=4u32).map(Word::new).collect();
        mem.write_block(Addr::new(0x200), &vals);
        assert_eq!(mem.read_block(Addr::new(0x200), 4), vals);
        assert_eq!(mem.read(Addr::new(0x20c)), Word::new(4));
        assert_eq!(mem.footprint_bytes(), 16);
    }

    #[test]
    fn iter_and_clear() {
        let mut mem = SparseMemory::new();
        mem.write(Addr::new(4), Word::new(1));
        mem.write(Addr::new(8), Word::new(2));
        let mut pairs: Vec<_> = mem.iter().collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![(Addr::new(4), Word::new(1)), (Addr::new(8), Word::new(2))]
        );
        mem.clear();
        assert_eq!(mem.populated_words(), 0);
    }

    #[test]
    fn a_zeroed_page_equals_an_untouched_one() {
        let mut touched = SparseMemory::new();
        touched.write(Addr::new(0x8000), Word::new(5));
        touched.write(Addr::new(0x8000), Word::ZERO);
        touched.write(Addr::new(0x40), Word::new(9));
        let mut fresh = SparseMemory::new();
        fresh.write(Addr::new(0x40), Word::new(9));
        assert_eq!(touched, fresh);
        assert_eq!(fresh, touched);
        fresh.write(Addr::new(0x8004), Word::new(1));
        assert_ne!(touched, fresh);
        assert_ne!(fresh, touched);
    }

    /// Checks every observable of `mem` against a map of its non-zero words.
    fn check_against_model(mem: &SparseMemory, model: &HashMap<u64, Word>) {
        assert_eq!(mem.populated_words(), model.len());
        assert_eq!(mem.footprint_bytes(), model.len() as u64 * 4);
        let pairs: HashSet<(Addr, Word)> = mem.iter().collect();
        let expected: HashSet<(Addr, Word)> = model
            .iter()
            .map(|(&index, &w)| (Addr::from_word_index(index), w))
            .collect();
        assert_eq!(pairs, expected);
        let mut rebuilt = SparseMemory::new();
        for (&index, &w) in model {
            rebuilt.write(Addr::from_word_index(index), w);
        }
        assert_eq!(*mem, rebuilt);
        // Any one word changed to another non-zero value breaks equality.
        for (&index, &w) in model {
            let addr = Addr::from_word_index(index);
            rebuilt.write(addr, Word::new(w.get().checked_add(1).unwrap_or(1)));
            assert_ne!(*mem, rebuilt, "word {index:#x} changed");
            rebuilt.write(addr, w);
        }
    }

    #[test]
    fn matches_a_word_map_across_page_boundaries() {
        // Word indices cluster around page boundaries, including the one
        // just below byte address 0xffff_ffff_fff0, so blocks straddle pages.
        let top = Addr::new(0xffff_ffff_fff0).word_index();
        let bases = [
            0,
            PAGE_WORDS as u64 - 6,
            7 * PAGE_WORDS as u64 - 6,
            top - 12,
        ];
        let mut rng = SplitMix64::new(0x9A6E);
        let mut mem = SparseMemory::new();
        let mut model: HashMap<u64, Word> = HashMap::new();
        for step in 0..20_000 {
            let index = bases[rng.next_range(bases.len() as u64) as usize] + rng.next_range(24);
            // Unaligned addresses name their containing word.
            let addr = Addr::new(Addr::from_word_index(index).raw() + rng.next_range(4));
            let value = if rng.chance(0.4) {
                Word::ZERO
            } else {
                Word::new(rng.next_u32())
            };
            match rng.next_range(10) {
                0..=5 => {
                    mem.write(addr, value);
                    if value == Word::ZERO {
                        model.remove(&index);
                    } else {
                        model.insert(index, value);
                    }
                }
                6 => {
                    let values: Vec<Word> = (0..rng.next_range(16))
                        .map(|_| match rng.next_range(3) {
                            0 => Word::ZERO,
                            _ => Word::new(rng.next_u32()),
                        })
                        .collect();
                    mem.write_block(addr, &values);
                    for (i, &w) in values.iter().enumerate() {
                        if w == Word::ZERO {
                            model.remove(&(index + i as u64));
                        } else {
                            model.insert(index + i as u64, w);
                        }
                    }
                }
                7 => {
                    let count = rng.next_range(16) as usize;
                    let expected: Vec<Word> = (0..count as u64)
                        .map(|i| model.get(&(index + i)).copied().unwrap_or(Word::ZERO))
                        .collect();
                    assert_eq!(mem.read_block(addr, count), expected, "step {step}");
                }
                8 if rng.chance(0.01) => {
                    mem.clear();
                    model.clear();
                }
                _ => {}
            }
            let expected = model.get(&index).copied().unwrap_or(Word::ZERO);
            assert_eq!(mem.read(addr), expected, "step {step}");
            if step % 500 == 0 {
                check_against_model(&mem, &model);
            }
        }
        check_against_model(&mem, &model);
    }
}
