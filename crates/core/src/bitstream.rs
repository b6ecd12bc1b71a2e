//! Bit-granular serialization for log records.
//!
//! FLL records are variable-width (1-bit type flags, 5-bit or 24-bit load
//! counts, 6-bit dictionary indices or 32-bit raw values), so the logs are
//! written and read as a packed bit stream. Sizes reported by the statistics
//! module are exact bit counts of these streams.
//!
//! The writer and reader are built around a 64-bit accumulator: bits are
//! shifted into the accumulator and spilled into the byte buffer one whole
//! word at a time, so [`BitWriter::write_bits`] and [`BitReader::read_bits`]
//! cost a few shifts and at most one buffer touch instead of one bounds check
//! per bit. Byte-aligned bulk transfers ([`BitWriter::write_bytes`],
//! [`BitReader::read_bytes`]) degenerate to `memcpy`. The on-the-wire format
//! is unchanged from the original bit-at-a-time implementation: bit `i` of
//! the stream is bit `i % 8` of byte `i / 8` (LSB first), and the final
//! partial byte is zero-padded.

use std::fmt;

#[inline(always)]
pub(crate) const fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Bits of the stream a [`BitReader::window`] holds at least: 128 less
/// the up to 7 bits of the cursor's byte that precede the cursor.
pub(crate) const WINDOW_BITS: u64 = 121;

/// Append-only bit writer (least-significant-bit first within each byte).
///
/// # Examples
///
/// ```
/// use bugnet_core::bitstream::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b1011, 4);
/// let stream = w.finish();
/// let mut r = BitReader::new(&stream);
/// assert_eq!(r.read_bit(), Some(true));
/// assert_eq!(r.read_bits(4), Some(0b1011));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits not yet spilled into `bytes`; bit `i` of the accumulator
    /// is stream bit `bytes.len() * 8 + i`. Invariant: `acc_bits < 64`.
    acc: u64,
    acc_bits: u32,
}

/// A finished, immutable bit stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitStream {
    bytes: Vec<u8>,
    bit_len: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates an empty writer with backing storage pre-reserved for
    /// `bits` bits, so hot recording paths never reallocate mid-interval.
    pub fn with_capacity_bits(bits: u64) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8) as usize),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Reserves storage for at least `bits` additional bits.
    pub fn reserve_bits(&mut self, bits: u64) {
        self.bytes.reserve(bits.div_ceil(8) as usize);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.acc_bits as u64
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Appends the low `width` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width must be at most 64 bits");
        let value = value & low_mask(width);
        self.acc |= value << self.acc_bits;
        let total = self.acc_bits + width;
        if total < 64 {
            self.acc_bits = total;
            return;
        }
        // The accumulator is full: spill one whole word, then keep the bits
        // of `value` that did not fit (`spilled` of its low bits did).
        self.bytes.extend_from_slice(&self.acc.to_le_bytes());
        let spilled = 64 - self.acc_bits;
        self.acc = if spilled < 64 { value >> spilled } else { 0 };
        self.acc_bits = total - 64;
    }

    /// Appends whole bytes.
    ///
    /// When the writer is byte-aligned (`bit_len() % 8 == 0`, always true for
    /// FLL/MRL headers, which are written before any variable-width record)
    /// this is a straight `memcpy`; otherwise each byte goes through
    /// [`BitWriter::write_bits`].
    pub fn write_bytes(&mut self, data: &[u8]) {
        if self.acc_bits.is_multiple_of(8) {
            // Spill the aligned part of the accumulator, then bulk-copy.
            let acc_bytes = (self.acc_bits / 8) as usize;
            self.bytes
                .extend_from_slice(&self.acc.to_le_bytes()[..acc_bytes]);
            self.acc = 0;
            self.acc_bits = 0;
            self.bytes.extend_from_slice(data);
        } else {
            for &b in data {
                self.write_bits(u64::from(b), 8);
            }
        }
    }

    /// Finalizes the stream.
    pub fn finish(mut self) -> BitStream {
        let bit_len = self.bit_len();
        let acc_bytes = self.acc_bits.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..acc_bytes]);
        BitStream {
            bytes: self.bytes,
            bit_len,
        }
    }
}

impl BitStream {
    /// Reassembles a stream from its backing bytes and exact bit length, the
    /// inverse of [`BitStream::as_bytes`] + [`BitStream::bit_len`]. Used when
    /// deserializing logs that were persisted byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `bit_len.div_ceil(8)` bytes long.
    pub fn from_bytes(bytes: Vec<u8>, bit_len: u64) -> Self {
        assert_eq!(
            bytes.len() as u64,
            bit_len.div_ceil(8),
            "byte buffer does not match the declared bit length"
        );
        BitStream { bytes, bit_len }
    }

    /// Exact length in bits.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Length in whole bytes (rounded up).
    pub fn byte_len(&self) -> u64 {
        self.bit_len.div_ceil(8)
    }

    /// The backing bytes (the final byte may be partially used).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether the stream contains no bits.
    pub fn is_empty(&self) -> bool {
        self.bit_len == 0
    }
}

impl fmt::Display for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bitstream of {} bits", self.bit_len)
    }
}

/// Sequential reader over a [`BitStream`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    stream: &'a BitStream,
    cursor: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(stream: &'a BitStream) -> Self {
        BitReader { stream, cursor: 0 }
    }

    /// Bits remaining to be read.
    pub fn remaining(&self) -> u64 {
        self.stream.bit_len - self.cursor
    }

    /// Whether all bits have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one bit, or `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Reads `width` bits (LSB first), or `None` if fewer remain (the cursor
    /// is not advanced in that case).
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width must be at most 64 bits");
        if self.remaining() < u64::from(width) {
            return None;
        }
        let start = (self.cursor / 8) as usize;
        let offset = (self.cursor % 8) as u32;
        self.cursor += u64::from(width);
        // Fast path: the field fits in one aligned u64 fetch. This covers
        // every FLL field (≤ 33 bits) except near the very end of the buffer.
        if offset + width <= 64 && start + 8 <= self.stream.bytes.len() {
            let word = u64::from_le_bytes(
                self.stream.bytes[start..start + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            return Some((word >> offset) & low_mask(width));
        }
        // Slow path: a field can straddle at most 9 bytes (7-bit offset +
        // 64-bit width); gather them into one u128 and extract with a single
        // shift + mask. The remaining-bits check above guarantees the bytes
        // exist.
        let need = (offset + width).div_ceil(8) as usize;
        let mut buf = [0u8; 16];
        buf[..need].copy_from_slice(&self.stream.bytes[start..start + need]);
        let word = u128::from_le_bytes(buf);
        Some(((word >> offset) as u64) & low_mask(width))
    }

    /// The 16 bytes from the cursor's byte on, shifted so that bit 0 is the
    /// cursor's bit: at least [`WINDOW_BITS`] bits of the stream, for a
    /// caller that decodes several fields at once. `None` unless 16 bytes
    /// follow the cursor's byte. Does not move the cursor; see
    /// [`BitReader::skip`].
    #[inline]
    pub(crate) fn window(&self) -> Option<u128> {
        let start = (self.cursor / 8) as usize;
        let bytes = self.stream.bytes.get(start..start + 16)?;
        let word = u128::from_le_bytes(bytes.try_into().expect("16 bytes"));
        Some(word >> (self.cursor % 8))
    }

    /// Moves the cursor `bits` on, or returns `None` (without moving it) if
    /// fewer remain.
    #[inline]
    pub(crate) fn skip(&mut self, bits: u64) -> Option<()> {
        if self.remaining() < bits {
            return None;
        }
        self.cursor += bits;
        Some(())
    }

    /// Reads exactly `out.len()` whole bytes into `out`, or `None` if fewer
    /// remain (the cursor is not advanced in that case).
    ///
    /// When the reader is byte-aligned this is a straight `memcpy`; the
    /// FLL/MRL header decoders rely on this bulk path.
    pub fn read_bytes(&mut self, out: &mut [u8]) -> Option<()> {
        let bits = out.len() as u64 * 8;
        if self.remaining() < bits {
            return None;
        }
        if self.cursor.is_multiple_of(8) {
            let start = (self.cursor / 8) as usize;
            out.copy_from_slice(&self.stream.bytes[start..start + out.len()]);
            self.cursor += bits;
        } else {
            for b in out.iter_mut() {
                *b = self.read_bits(8).expect("length checked above") as u8;
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0x2a, 6);
        w.write_bit(true);
        w.write_bits(0xdead_beef, 32);
        w.write_bits(5, 3);
        let s = w.finish();
        assert_eq!(s.bit_len(), 6 + 1 + 32 + 3);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(6), Some(0x2a));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bits(3), Some(5));
        assert!(r.is_exhausted());
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn empty_stream() {
        let s = BitWriter::new().finish();
        assert!(s.is_empty());
        assert_eq!(s.byte_len(), 0);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn byte_len_rounds_up() {
        let mut w = BitWriter::new();
        w.write_bits(0, 9);
        let s = w.finish();
        assert_eq!(s.byte_len(), 2);
        assert_eq!(s.as_bytes().len(), 2);
    }

    #[test]
    fn read_past_end_is_none_without_consuming() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(5), None);
        assert_eq!(r.read_bits(3), Some(0b101));
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        w.write_bits(1, 1);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.read_bits(1), Some(1));
    }

    #[test]
    fn display_reports_length() {
        let mut w = BitWriter::new();
        w.write_bits(0, 10);
        assert_eq!(w.finish().to_string(), "bitstream of 10 bits");
    }

    #[test]
    fn upper_bits_beyond_width_are_ignored() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 3);
        w.write_bits(u64::MAX, 64);
        let s = w.finish();
        assert_eq!(s.bit_len(), 67);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(3), Some(0b111));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn accumulator_spills_match_bit_at_a_time_layout() {
        // The byte layout must stay LSB-first regardless of how writes line
        // up with the 64-bit accumulator boundary.
        let mut w = BitWriter::new();
        for i in 0..200u64 {
            w.write_bits(i, (i % 23 + 1) as u32);
        }
        let s = w.finish();
        // Reference: one bit at a time.
        let mut bytes = vec![0u8; s.byte_len() as usize];
        let mut pos = 0u64;
        for i in 0..200u64 {
            let width = (i % 23 + 1) as u32;
            for b in 0..width {
                if (i >> b) & 1 == 1 {
                    bytes[(pos / 8) as usize] |= 1 << (pos % 8);
                }
                pos += 1;
            }
        }
        assert_eq!(s.bit_len(), pos);
        assert_eq!(s.as_bytes(), &bytes[..]);
    }

    #[test]
    fn write_bytes_aligned_is_equivalent_to_write_bits() {
        let data = [0xde, 0xad, 0xbe, 0xef, 0x01];
        let mut bulk = BitWriter::new();
        bulk.write_bits(0xabcd, 16);
        bulk.write_bytes(&data);
        let mut slow = BitWriter::new();
        slow.write_bits(0xabcd, 16);
        for &b in &data {
            slow.write_bits(u64::from(b), 8);
        }
        assert_eq!(bulk.finish(), slow.finish());
    }

    #[test]
    fn write_bytes_unaligned_is_equivalent_to_write_bits() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let mut bulk = BitWriter::new();
        bulk.write_bits(0b101, 3);
        bulk.write_bytes(&data);
        let mut slow = BitWriter::new();
        slow.write_bits(0b101, 3);
        for &b in &data {
            slow.write_bits(u64::from(b), 8);
        }
        assert_eq!(bulk.finish(), slow.finish());
    }

    #[test]
    fn read_bytes_round_trips() {
        let data: Vec<u8> = (0..40).collect();
        let mut w = BitWriter::with_capacity_bits(400);
        w.write_bytes(&data);
        w.write_bits(0x3, 2);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        let mut out = vec![0u8; 40];
        r.read_bytes(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(r.read_bits(2), Some(0x3));
        assert!(r.is_exhausted());
        // Unaligned read_bytes also works.
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(4), Some(0));
        let mut two = [0u8; 2];
        r.read_bytes(&mut two).unwrap();
        assert_eq!(two, [0x10, 0x20]);
    }

    #[test]
    fn read_bytes_past_end_is_none_without_consuming() {
        let mut w = BitWriter::new();
        w.write_bytes(&[0xaa]);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        let mut out = [0u8; 2];
        assert_eq!(r.read_bytes(&mut out), None);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.read_bits(8), Some(0xaa));
    }

    #[test]
    fn from_bytes_round_trips() {
        let mut w = BitWriter::new();
        w.write_bits(0x1ff, 9);
        let s = w.finish();
        let rebuilt = BitStream::from_bytes(s.as_bytes().to_vec(), s.bit_len());
        assert_eq!(rebuilt, s);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_bytes_rejects_mismatched_length() {
        let _ = BitStream::from_bytes(vec![0u8; 3], 9);
    }

    #[test]
    fn with_capacity_does_not_change_output() {
        let mut a = BitWriter::with_capacity_bits(10_000);
        let mut b = BitWriter::new();
        b.reserve_bits(1);
        for i in 0..100u64 {
            a.write_bits(i, 7);
            b.write_bits(i, 7);
        }
        assert_eq!(a.finish(), b.finish());
    }
}
