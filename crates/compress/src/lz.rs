//! The hand-rolled LZ77-class codec.
//!
//! Format: a byte-oriented token stream in the LZ4 tradition. Each sequence
//! is
//!
//! ```text
//! [token][literal-length ext*][literals][offset u16 le][match-length ext*]
//! ```
//!
//! where the token's high nibble is the literal count and its low nibble is
//! the match length minus [`MIN_MATCH`]; a nibble of 15 is continued by
//! extension bytes (each adding 0..=255, terminated by a byte < 255). The
//! offset is a back-reference distance of 1..=65535 into the already-decoded
//! output; matches may overlap their own output (offset < length), which is
//! how run-length-encoded regions are expressed. A stream may end after a
//! match, or with a final literals-only sequence whose match nibble must be
//! zero.
//!
//! The compressor finds matches with a hash-chain table over 4-byte prefixes
//! and parses greedily with one-step lazy matching: when the position right
//! after a found match starts a strictly longer match, the current byte is
//! emitted as a literal instead so the longer match wins. Compression is
//! deterministic — identical input always yields identical bytes — which the
//! parallel flush pipeline relies on to produce dumps byte-identical to
//! serial flushing.
//!
//! The output bytes are fixed by four choices, and every committed dump
//! depends on them: the multiplicative hash of the 4-byte prefix into
//! 2^15 buckets; a chain walk of at most 64 steps (the searched position
//! itself, which heads its chain, counts as the first) that stops at the
//! first position older than the window; the strictly-longer rule, so on a
//! tie the most recent candidate wins; and the one-step lazy parse.
//! Anything else in the match finder — how the tables are laid out, which
//! candidates it can rule out without a full compare, how it compares —
//! may change only if the bytes do not, which the tests check against a
//! frozen copy of the original compressor.

use std::cell::Cell;

use crate::DecodeError;

/// Minimum match length; shorter repetitions are cheaper as literals.
pub const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (the window size).
pub const MAX_OFFSET: usize = 65_535;

/// Number of hash buckets (2^15).
const HASH_SIZE: usize = 1 << 15;
/// Maximum positions examined per chain walk; bounds worst-case compress
/// time on degenerate inputs without affecting determinism.
const MAX_CHAIN: usize = 64;
/// Ring mask of the chain table: one slot per position in the window.
const WINDOW_MASK: usize = MAX_OFFSET;
/// Most inserted positions whose head slots a call clears one by one; past
/// it, re-zeroing the whole head table is cheaper. On a 2-vCPU Xeon VM a
/// position took about 2.5 ns to re-hash and clear, and the 128 KiB fill
/// about 3.8 us.
const REHASH_LIMIT: usize = 1_500;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - 15)) as usize % HASH_SIZE
}

#[inline]
fn load_u32(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn load_u64(raw: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"))
}

thread_local! {
    /// The match finder's `head` and `prev` tables, kept per thread between
    /// [`compress`] calls: a seal compresses about ten streams, and fresh
    /// tables cost each call an allocation and the page faults of up to
    /// 384 KiB.
    static TABLES: Cell<(Vec<u32>, Vec<u32>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// Hash-chain match finder: `head[h]` is one plus the most recent position
/// whose 4-byte prefix hashes to `h`, `prev[p & WINDOW_MASK]` chains to one
/// plus the previous such position, and 0 means "none" in both. `prev`
/// holds one slot per position, capped at the window: positions older than
/// [`MAX_OFFSET`] are skipped at walk time, and the ring indexing is safe
/// because a slot is only overwritten by a position a full window newer.
///
/// Every call reads tables equal to freshly zeroed ones. `head` starts all
/// zero, because each call clears the slots it set before handing the
/// tables back. `prev` is never cleared: a chain walk only follows links
/// to positions inserted earlier in the same call, and so only reads slots
/// that call wrote.
struct Matcher {
    head: Vec<u32>,
    prev: Vec<u32>,
    next_insert: usize,
}

impl Matcher {
    /// Takes this thread's tables, allocating them on first use, with
    /// `prev` long enough for `len` positions.
    fn take(len: usize) -> Self {
        let (mut head, mut prev) = TABLES.take();
        if head.is_empty() {
            head = vec![0; HASH_SIZE];
        }
        let slots = len.min(WINDOW_MASK + 1);
        if prev.len() < slots {
            prev.resize(slots, 0);
        }
        Matcher {
            head,
            prev,
            next_insert: 0,
        }
    }

    /// Zeroes the head slots this call set and gives the tables back to
    /// the thread. A call that panics never gets here, so the next one
    /// allocates fresh tables.
    fn give_back(mut self, raw: &[u8]) {
        if self.next_insert > REHASH_LIMIT {
            self.head.fill(0);
        } else {
            for i in 0..self.next_insert {
                self.head[hash4(&raw[i..])] = 0;
            }
        }
        TABLES.set((self.head, self.prev));
    }

    /// Inserts every not-yet-inserted position up to and including `pos`.
    fn insert_up_to(&mut self, raw: &[u8], pos: usize) {
        let last = pos.min(raw.len().saturating_sub(MIN_MATCH));
        while self.next_insert <= last {
            let i = self.next_insert;
            let h = hash4(&raw[i..]);
            self.prev[i & WINDOW_MASK] = self.head[h];
            self.head[h] = i as u32 + 1;
            self.next_insert += 1;
        }
    }

    /// Longest match for the suffix at `pos` that is longer than `beat`
    /// bytes, as `(length, offset)`; `pos` must already be inserted.
    ///
    /// With `beat` below the longest match's length, the result is the
    /// most recent candidate of that length, whatever `beat` is: a
    /// candidate can only win by strictly exceeding the best so far, so
    /// starting the bar higher only skips candidates that could not have
    /// been the answer.
    fn find(&self, raw: &[u8], pos: usize, beat: usize) -> Option<(usize, usize)> {
        let limit = raw.len().checked_sub(pos)?;
        if limit < MIN_MATCH || beat >= limit {
            return None;
        }
        // `pos` was inserted last, so it heads its own chain and takes the
        // first of the MAX_CHAIN steps; the walk starts one link further.
        debug_assert_eq!(self.next_insert, pos + 1, "pos is the newest insert");
        let mut link = self.prev[pos & WINDOW_MASK];
        let mut best_len = beat.max(MIN_MATCH - 1);
        let mut best_off = 0usize;
        for _ in 1..MAX_CHAIN {
            if link == 0 {
                break;
            }
            let c = link as usize - 1;
            if pos - c > MAX_OFFSET {
                break;
            }
            // Beating `best_len` needs bytes `best_len - 3 ..= best_len`
            // to agree, so one word compare rejects most candidates.
            let probe = best_len - (MIN_MATCH - 1);
            if load_u32(raw, c + probe) == load_u32(raw, pos + probe) {
                let len = common_prefix(raw, c, pos, limit);
                // Strictly-greater keeps the most recent candidate
                // (smallest offset) on ties, which costs nothing and ages
                // out of the window last.
                if len > best_len {
                    best_len = len;
                    best_off = pos - c;
                    if len == limit {
                        break;
                    }
                }
            }
            link = self.prev[c & WINDOW_MASK];
        }
        (best_off != 0).then_some((best_len, best_off))
    }
}

/// Length of the common prefix of the suffixes at `a` and `b`, at most
/// `max` bytes, compared a word at a time. Requires `a < b` and
/// `b + max <= raw.len()`.
#[inline]
fn common_prefix(raw: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n + 8 <= max {
        let diff = load_u64(raw, a + n) ^ load_u64(raw, b + n);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && raw[a + n] == raw[b + n] {
        n += 1;
    }
    n
}

fn put_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH && (1..=MAX_OFFSET).contains(&offset));
    let lit = literals.len();
    let ml = match_len - MIN_MATCH;
    out.push(((lit.min(15) as u8) << 4) | ml.min(15) as u8);
    if lit >= 15 {
        put_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml >= 15 {
        put_ext(out, ml - 15);
    }
}

fn emit_last(out: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    let lit = literals.len();
    out.push((lit.min(15) as u8) << 4);
    if lit >= 15 {
        put_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
}

/// Compresses `raw` into the token stream described in the module docs.
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let n = raw.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        emit_last(&mut out, raw);
        return out;
    }
    let mut matcher = Matcher::take(n);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // The lazy step's match at `i`, when it deferred to it.
    let mut deferred = None;
    while i + MIN_MATCH <= n {
        matcher.insert_up_to(raw, i);
        let Some((mut len, mut off)) = deferred
            .take()
            .or_else(|| matcher.find(raw, i, MIN_MATCH - 1))
        else {
            i += 1;
            continue;
        };
        // One-step lazy parse: prefer a strictly longer match starting one
        // byte later, paying a single literal for it.
        if i + 1 + MIN_MATCH <= n {
            matcher.insert_up_to(raw, i + 1);
            if let Some(longer) = matcher.find(raw, i + 1, len) {
                deferred = Some(longer);
                i += 1;
                continue;
            }
        }
        // Never let a match run into the final MIN_MATCH-1 bytes leaving an
        // unmatchable tail shorter than its token overhead — not required
        // for correctness, matches may end anywhere; kept simple.
        len = len.min(n - i);
        off = off.min(MAX_OFFSET);
        emit_sequence(&mut out, &raw[lit_start..i], off, len);
        matcher.insert_up_to(raw, (i + len).saturating_sub(1));
        i += len;
        lit_start = i;
    }
    emit_last(&mut out, &raw[lit_start..]);
    matcher.give_back(raw);
    out
}

fn read_ext(src: &[u8], i: &mut usize, cap: usize) -> Result<usize, DecodeError> {
    let mut total = 0usize;
    loop {
        let b = *src.get(*i).ok_or(DecodeError::Truncated)?;
        *i += 1;
        total += b as usize;
        if total > cap {
            return Err(DecodeError::Overrun { declared: cap });
        }
        if b != 255 {
            return Ok(total);
        }
    }
}

/// The most bytes a token stream of `encoded_len` bytes can expand to. No
/// encoded byte adds more than 255 output bytes: a match-length extension
/// byte adds at most 255, a literal byte one, and a token with its two
/// offset bytes at most 18 (match nibble 14 plus [`MIN_MATCH`]).
fn max_output(encoded_len: usize) -> usize {
    encoded_len.saturating_mul(255)
}

/// Decompresses a token stream that must expand to exactly `raw_len` bytes.
///
/// The up-front allocation is bounded by what `src` can expand to, so a
/// forged `raw_len` over a few encoded bytes cannot drive a huge one.
///
/// # Errors
///
/// Returns a typed [`DecodeError`] for any malformed stream — truncation,
/// out-of-range offsets, overruns past the declared length, or trailing
/// encoded bytes. Never panics on arbitrary input.
pub fn decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::with_capacity(raw_len.min(max_output(src.len())));
    let mut i = 0usize;
    while out.len() < raw_len {
        let token_pos = i;
        let token = *src.get(i).ok_or(DecodeError::Truncated)?;
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit += read_ext(src, &mut i, raw_len)?;
        }
        if out.len() + lit > raw_len {
            return Err(DecodeError::Overrun { declared: raw_len });
        }
        let literals = src.get(i..i + lit).ok_or(DecodeError::Truncated)?;
        i += lit;
        out.extend_from_slice(literals);
        if i == src.len() {
            // Final literals-only sequence: the match nibble must be clear.
            if token & 0x0F != 0 {
                return Err(DecodeError::BadToken {
                    position: token_pos,
                });
            }
            break;
        }
        let offset_bytes = src.get(i..i + 2).ok_or(DecodeError::Truncated)?;
        i += 2;
        let offset = u16::from_le_bytes([offset_bytes[0], offset_bytes[1]]) as usize;
        if offset == 0 || offset > out.len() {
            return Err(DecodeError::BadOffset {
                offset,
                available: out.len(),
            });
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_ext(src, &mut i, raw_len)?;
        }
        match_len += MIN_MATCH;
        if out.len() + match_len > raw_len {
            return Err(DecodeError::Overrun { declared: raw_len });
        }
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else if offset == 1 {
            // A run of one repeated byte, the overlap case LZ expresses
            // run-length encoding with.
            let byte = out[start];
            out.resize(out.len() + match_len, byte);
        } else {
            for k in 0..match_len {
                let byte = out[start + k];
                out.push(byte);
            }
        }
    }
    if out.len() != raw_len {
        return Err(DecodeError::LengthMismatch {
            declared: raw_len,
            produced: out.len(),
        });
    }
    if i != src.len() {
        return Err(DecodeError::BadToken { position: i });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, self-contained so this crate stays dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let enc = compress(raw);
        let dec = decompress(&enc, raw.len()).expect("round trip decodes");
        assert_eq!(dec, raw, "round trip mismatch ({} bytes)", raw.len());
        enc
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(round_trip(b"").is_empty());
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
        round_trip(b"abcd");
        round_trip(b"aaaa");
    }

    #[test]
    fn all_zero_input_compresses_hard() {
        let raw = vec![0u8; 100_000];
        let enc = round_trip(&raw);
        assert!(enc.len() < raw.len() / 100, "{} bytes", enc.len());
    }

    #[test]
    fn repeated_phrase_compresses() {
        let raw: Vec<u8> = b"the quick brown fox ".repeat(500);
        let enc = round_trip(&raw);
        assert!(enc.len() < raw.len() / 10, "{} bytes", enc.len());
    }

    #[test]
    fn dictionary_heavy_stream_compresses() {
        // Mimics a dictionary-encoded log: a few distinct small tokens.
        let mut rng = Rng(0xD1C7);
        let raw: Vec<u8> = (0..50_000).map(|_| (rng.next() % 16) as u8).collect();
        let enc = round_trip(&raw);
        assert!(enc.len() < raw.len(), "{} bytes", enc.len());
    }

    #[test]
    fn no_stream_expands_past_max_output() {
        let mut rng = Rng(0x0B0D);
        let random: Vec<u8> = (0..50_000).map(|_| (rng.next() % 16) as u8).collect();
        let incompressible: Vec<u8> = (0..50_000).map(|_| rng.next() as u8).collect();
        // All zeros is the maximum ratio: one long run.
        for raw in &[vec![0u8; 1 << 20], random, incompressible] {
            let enc = round_trip(raw);
            assert!(
                raw.len() <= max_output(enc.len()),
                "{} raw bytes from {} encoded",
                raw.len(),
                enc.len()
            );
        }
    }

    #[test]
    fn incompressible_input_round_trips_with_bounded_expansion() {
        let mut rng = Rng(0x1CE);
        let raw: Vec<u8> = (0..65_000).map(|_| rng.next() as u8).collect();
        let enc = round_trip(&raw);
        // Worst case is one extension byte per 255 literals plus the token.
        assert!(enc.len() < raw.len() + raw.len() / 128 + 16);
    }

    /// A seeded mixture of runs, copies of earlier output and noise.
    fn mixture(seed: u64, max_len: u64) -> Vec<u8> {
        let mut rng = Rng(seed);
        let len = (rng.next() % max_len) as usize;
        let mut raw = Vec::with_capacity(len);
        while raw.len() < len {
            match rng.next() % 4 {
                0 => {
                    let run = (rng.next() % 600) as usize + 1;
                    let byte = rng.next() as u8;
                    raw.extend(std::iter::repeat_n(byte, run));
                }
                1 if !raw.is_empty() => {
                    let take = ((rng.next() as usize) % raw.len()).max(1);
                    let from = (rng.next() as usize) % (raw.len() - take + 1);
                    let copy: Vec<u8> = raw[from..from + take].to_vec();
                    raw.extend(copy);
                }
                _ => {
                    let n = (rng.next() % 200) as usize + 1;
                    raw.extend((0..n).map(|_| rng.next() as u8));
                }
            }
        }
        raw.truncate(len);
        raw
    }

    /// A table of little-endian 4-byte words, `frequent_pct` percent of
    /// them drawn from `frequent` recurring values and the rest random —
    /// the shape of a program image's data, where hash chains run deep.
    fn word_table(seed: u64, words: usize, frequent: usize, frequent_pct: u64) -> Vec<u8> {
        let mut rng = Rng(seed);
        let pool: Vec<u32> = (0..frequent).map(|_| rng.next() as u32 % 4096).collect();
        let mut raw = Vec::with_capacity(words * 4);
        for _ in 0..words {
            let word = if rng.next() % 100 < frequent_pct {
                pool[rng.next() as usize % frequent]
            } else {
                rng.next() as u32
            };
            raw.extend_from_slice(&word.to_le_bytes());
        }
        raw
    }

    #[test]
    fn seeded_random_structures_round_trip() {
        // Mixtures of runs, copies and noise across many seeds and sizes.
        for seed in 0..50u64 {
            round_trip(&mixture(seed, 20_000));
        }
    }

    /// The compressor as it stood before its match finder was tuned, kept
    /// verbatim: every committed dump holds its output, so the live
    /// compressor must reproduce it byte for byte.
    mod frozen {
        use super::super::{emit_last, emit_sequence, MAX_OFFSET, MIN_MATCH};

        const HASH_SIZE: usize = 1 << 15;
        const MAX_CHAIN: usize = 64;
        const NONE: u32 = u32::MAX;

        fn hash4(bytes: &[u8]) -> usize {
            let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            (v.wrapping_mul(2_654_435_761) >> (32 - 15)) as usize % HASH_SIZE
        }

        struct Matcher {
            head: Vec<u32>,
            prev: Vec<u32>,
            next_insert: usize,
        }

        impl Matcher {
            fn new() -> Self {
                Matcher {
                    head: vec![NONE; HASH_SIZE],
                    prev: vec![NONE; MAX_OFFSET + 1],
                    next_insert: 0,
                }
            }

            fn insert_up_to(&mut self, raw: &[u8], pos: usize) {
                let last = pos.min(raw.len().saturating_sub(MIN_MATCH));
                while self.next_insert <= last {
                    let i = self.next_insert;
                    let h = hash4(&raw[i..]);
                    self.prev[i % (MAX_OFFSET + 1)] = self.head[h];
                    self.head[h] = i as u32;
                    self.next_insert += 1;
                }
            }

            fn find(&self, raw: &[u8], pos: usize) -> Option<(usize, usize)> {
                if pos + MIN_MATCH > raw.len() {
                    return None;
                }
                let h = hash4(&raw[pos..]);
                let mut candidate = self.head[h];
                let mut best_len = 0usize;
                let mut best_off = 0usize;
                let limit = raw.len();
                for _ in 0..MAX_CHAIN {
                    if candidate == NONE {
                        break;
                    }
                    let c = candidate as usize;
                    if c >= pos {
                        candidate = self.prev[c % (MAX_OFFSET + 1)];
                        continue;
                    }
                    if pos - c > MAX_OFFSET {
                        break;
                    }
                    let len = common_prefix(raw, c, pos, limit);
                    if len > best_len {
                        best_len = len;
                        best_off = pos - c;
                    }
                    candidate = self.prev[c % (MAX_OFFSET + 1)];
                }
                if best_len >= MIN_MATCH {
                    Some((best_len, best_off))
                } else {
                    None
                }
            }
        }

        fn common_prefix(raw: &[u8], a: usize, b: usize, limit: usize) -> usize {
            let max = limit - b;
            let mut n = 0;
            while n < max && raw[a + n] == raw[b + n] {
                n += 1;
            }
            n
        }

        pub(super) fn compress(raw: &[u8]) -> Vec<u8> {
            let n = raw.len();
            let mut out = Vec::with_capacity(n / 2 + 16);
            if n < MIN_MATCH {
                emit_last(&mut out, raw);
                return out;
            }
            let mut matcher = Matcher::new();
            let mut lit_start = 0usize;
            let mut i = 0usize;
            while i + MIN_MATCH <= n {
                matcher.insert_up_to(raw, i);
                let Some((mut len, mut off)) = matcher.find(raw, i) else {
                    i += 1;
                    continue;
                };
                if i + 1 + MIN_MATCH <= n {
                    matcher.insert_up_to(raw, i + 1);
                    if let Some((len2, _)) = matcher.find(raw, i + 1) {
                        if len2 > len {
                            i += 1;
                            continue;
                        }
                    }
                }
                len = len.min(n - i);
                off = off.min(MAX_OFFSET);
                emit_sequence(&mut out, &raw[lit_start..i], off, len);
                matcher.insert_up_to(raw, (i + len).saturating_sub(1));
                i += len;
                lit_start = i;
            }
            emit_last(&mut out, &raw[lit_start..]);
            out
        }
    }

    fn assert_same_bytes(raw: &[u8], what: &str) {
        let enc = round_trip(raw);
        assert!(
            enc == frozen::compress(raw),
            "{what}: output differs from the frozen compressor ({} bytes in)",
            raw.len()
        );
    }

    /// Whether this thread's kept head table is all zero, as a fresh one is.
    fn kept_head_is_clear() -> bool {
        let (head, prev) = TABLES.take();
        let clear = head.iter().all(|&slot| slot == 0);
        TABLES.set((head, prev));
        clear
    }

    #[test]
    fn kept_tables_act_as_fresh_ones_call_after_call() {
        // A thread's calls share its match tables, so each call must hand
        // them back as the next expects: large inputs re-zero the whole
        // head table, small ones clear the slots they set.
        let sequence = || {
            let mut rng = Rng(0x7AB1E);
            let inputs: [(Vec<u8>, &str); 7] = [
                (word_table(6, 51_200, 8, 50), "200 KiB across the window"),
                (Vec::new(), "0 bytes"),
                (b"abc".to_vec(), "3 bytes"),
                (b"abca".to_vec(), "4 bytes"),
                (b"abcab".to_vec(), "5 bytes"),
                (
                    b"the quick brown fox ".repeat(52)[..1_024].to_vec(),
                    "1 KiB repetitive",
                ),
                (
                    (0..70 * 1_024).map(|_| rng.next() as u8).collect(),
                    "70 KiB random",
                ),
            ];
            for (raw, what) in &inputs {
                assert_same_bytes(raw, what);
                assert!(kept_head_is_clear(), "{what}: head slots left set");
            }
        };
        sequence();
        std::thread::spawn(sequence)
            .join()
            .expect("a fresh thread's tables act the same");
    }

    #[test]
    fn output_matches_frozen_compressor_on_mixtures() {
        for seed in 0..40u64 {
            assert_same_bytes(&mixture(seed, 20_000), &format!("mixture seed {seed}"));
        }
    }

    #[test]
    fn output_matches_frozen_compressor_on_word_tables() {
        // Deep chains: few distinct words, so nearly every position's
        // chain is full and the 64-step cap and the tie-break decide.
        for (seed, frequent, pct) in [(1, 8, 35), (2, 8, 50), (3, 16, 35), (4, 16, 50)] {
            let raw = word_table(seed, 24_000, frequent, pct);
            assert_same_bytes(&raw, &format!("{frequent} words at {pct}%"));
        }
    }

    #[test]
    fn output_matches_frozen_compressor_on_short_inputs() {
        let mut rng = Rng(0x5407);
        for len in 0..=8usize {
            let patterns: [Vec<u8>; 4] = [
                vec![0; len],
                (0..len as u8).collect(),
                (0..len).map(|k| b"ab"[k % 2]).collect(),
                (0..len).map(|_| rng.next() as u8 % 3).collect(),
            ];
            for raw in &patterns {
                assert_same_bytes(raw, &format!("{len}-byte input {raw:?}"));
            }
        }
    }

    #[test]
    fn output_matches_frozen_compressor_across_the_window() {
        // A block repeated at distances straddling the 64 KiB window, so
        // chain walks meet positions just inside and just outside it and
        // the chain ring wraps.
        let mut rng = Rng(0x0FF5);
        let block: Vec<u8> = (0..4_096).map(|_| (rng.next() % 5) as u8).collect();
        for gap in [
            MAX_OFFSET - 4_100,
            MAX_OFFSET - 4_096,
            MAX_OFFSET - 4_095,
            MAX_OFFSET,
        ] {
            let mut raw = block.clone();
            raw.extend((0..gap).map(|_| rng.next() as u8));
            raw.extend_from_slice(&block);
            raw.extend_from_slice(&block[..1_000]);
            assert_same_bytes(&raw, &format!("gap {gap}"));
        }
        let raw = word_table(5, 40_000, 8, 50);
        assert_same_bytes(&raw, "160 KB word table");
        assert_same_bytes(&mixture(7, 200_000), "mixture past the window");
    }

    #[test]
    fn long_matches_cross_extension_boundaries() {
        // Lengths around the 15 + k*255 extension edges.
        for extra in [14, 15, 16, 269, 270, 271, 525] {
            let raw = vec![7u8; MIN_MATCH + extra + 8];
            round_trip(&raw);
        }
    }

    #[test]
    fn truncated_streams_are_typed_errors() {
        let raw: Vec<u8> = b"compressible compressible compressible".repeat(40);
        let enc = compress(&raw);
        for cut in 0..enc.len() {
            // Any typed error is acceptable; panics (or clean decodes) are not.
            if let Ok(out) = decompress(&enc[..cut], raw.len()) {
                panic!("truncation at {cut} decoded {} bytes", out.len());
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let mut rng = Rng(0xF11D);
        let raw: Vec<u8> = (0..3_000).map(|_| (rng.next() % 7) as u8).collect();
        let enc = compress(&raw);
        for pos in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[pos] ^= 1 << bit;
                // Must return Ok (the flip may be in literal bytes, changing
                // content but not structure) or a typed error — never panic.
                let _ = decompress(&bad, raw.len());
            }
        }
    }

    #[test]
    fn zero_offset_and_oob_offset_are_rejected() {
        // token: 1 literal, match_len 4 (nibble 0), offset 0.
        let stream = [0x10, b'x', 0x00, 0x00];
        assert!(matches!(
            decompress(&stream, 5),
            Err(DecodeError::BadOffset { offset: 0, .. })
        ));
        // offset 9 with only 1 byte produced.
        let stream = [0x10, b'x', 0x09, 0x00];
        assert!(matches!(
            decompress(&stream, 5),
            Err(DecodeError::BadOffset { offset: 9, .. })
        ));
    }

    #[test]
    fn overrun_and_trailing_are_rejected() {
        // 4-byte match would exceed a declared raw_len of 3.
        let stream = [0x10, b'x', 0x01, 0x00];
        assert!(matches!(
            decompress(&stream, 3),
            Err(DecodeError::Overrun { declared: 3 })
        ));
        // Declared longer than the stream produces.
        let stream = [0x20, b'a', b'b'];
        assert!(matches!(
            decompress(&stream, 10),
            Err(DecodeError::LengthMismatch { .. })
        ));
        // Final literals-only token must not carry match bits.
        let stream = [0x21, b'a', b'b'];
        assert!(matches!(
            decompress(&stream, 2),
            Err(DecodeError::BadToken { .. })
        ));
    }
}
