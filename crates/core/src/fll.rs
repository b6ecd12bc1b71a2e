//! First-Load Logs (paper §4.2-4.3).
//!
//! A First-Load Log (FLL) captures everything needed to deterministically
//! replay one checkpoint interval of one thread:
//!
//! * a header with the process/thread identifiers, the checkpoint interval
//!   identifier (C-ID), a timestamp, and the architectural state (PC +
//!   register file) at the start of the interval;
//! * one record per *first load* to a memory location inside the interval,
//!   encoded as `(LC-Type, L-Count, LV-Type, value)` where `L-Count` is the
//!   number of loads skipped since the previous logged load (5 bits when it
//!   fits, otherwise `log2(interval)` bits) and the value is either a 6-bit
//!   dictionary rank or a full 32-bit word;
//! * if the interval was terminated by a fault, the faulting PC and the
//!   instruction count at the fault, which the OS appends before dumping the
//!   logs (§4.8).

use std::error::Error;
use std::fmt;

use bugnet_cpu::ArchState;
use bugnet_types::{
    Addr, BugNetConfig, ByteSize, CheckpointId, InstrCount, ProcessId, ThreadId, Timestamp, Word,
    MAX_DICTIONARY_ENTRIES,
};

use crate::bitstream::{low_mask, BitReader, BitStream, BitWriter, WINDOW_BITS};

/// Why a checkpoint interval was terminated (paper §4.2, §4.4, §4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationCause {
    /// The interval reached its maximum instruction count.
    IntervalFull,
    /// An asynchronous interrupt (timer, I/O) transferred control to the kernel.
    Interrupt,
    /// The scheduler moved the thread off the core.
    ContextSwitch,
    /// The thread performed a system call serviced by the kernel.
    Syscall,
    /// The thread executed a faulting instruction; the logs are about to be dumped.
    Fault,
    /// The thread exited normally.
    ProgramExit,
}

impl TerminationCause {
    /// Compact tag used in the serialized log dump.
    pub(crate) fn to_tag(self) -> u64 {
        match self {
            TerminationCause::IntervalFull => 0,
            TerminationCause::Interrupt => 1,
            TerminationCause::ContextSwitch => 2,
            TerminationCause::Syscall => 3,
            TerminationCause::Fault => 4,
            TerminationCause::ProgramExit => 5,
        }
    }

    pub(crate) fn from_tag(tag: u64) -> Option<Self> {
        Some(match tag {
            0 => TerminationCause::IntervalFull,
            1 => TerminationCause::Interrupt,
            2 => TerminationCause::ContextSwitch,
            3 => TerminationCause::Syscall,
            4 => TerminationCause::Fault,
            5 => TerminationCause::ProgramExit,
            _ => return None,
        })
    }
}

impl fmt::Display for TerminationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TerminationCause::IntervalFull => "interval full",
            TerminationCause::Interrupt => "interrupt",
            TerminationCause::ContextSwitch => "context switch",
            TerminationCause::Syscall => "syscall",
            TerminationCause::Fault => "fault",
            TerminationCause::ProgramExit => "program exit",
        };
        f.write_str(s)
    }
}

/// FLL header: identifies the interval and snapshots the architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FllHeader {
    /// Traced process.
    pub process: ProcessId,
    /// Traced thread.
    pub thread: ThreadId,
    /// Checkpoint interval identifier (C-ID).
    pub checkpoint: CheckpointId,
    /// System clock when the checkpoint was created.
    pub timestamp: Timestamp,
    /// Program counter and register file at the start of the interval.
    pub arch: ArchState,
}

impl FllHeader {
    /// Encoded size of a header in bits for a given C-ID width.
    pub fn encoded_bits(checkpoint_id_bits: u32) -> u64 {
        // PID + TID + C-ID + timestamp + PC + 32 registers.
        32 + 32 + checkpoint_id_bits as u64 + 64 + ArchState::encoded_bits()
    }

    /// Serializes the header. The fixed 32-bit fields and the architectural
    /// snapshot go through the writer's byte-aligned bulk path, so with the
    /// default 8-bit C-ID the whole header is a handful of `memcpy`s.
    pub fn encode_into(&self, w: &mut BitWriter, checkpoint_id_bits: u32) {
        w.write_bytes(&self.process.0.to_le_bytes());
        w.write_bytes(&self.thread.0.to_le_bytes());
        w.write_bits(u64::from(self.checkpoint.0), checkpoint_id_bits);
        w.write_bits(self.timestamp.0, 64);
        let mut arch = [0u8; 4 + 32 * 4];
        arch[..4].copy_from_slice(&(self.arch.pc.raw() as u32).to_le_bytes());
        for (i, reg) in self.arch.regs.iter().enumerate() {
            arch[4 + i * 4..8 + i * 4].copy_from_slice(&reg.get().to_le_bytes());
        }
        w.write_bytes(&arch);
    }

    /// Decodes a header written by [`FllHeader::encode_into`].
    pub fn decode_from(r: &mut BitReader<'_>, checkpoint_id_bits: u32) -> Option<Self> {
        let mut word = [0u8; 4];
        r.read_bytes(&mut word)?;
        let process = ProcessId(u32::from_le_bytes(word));
        r.read_bytes(&mut word)?;
        let thread = ThreadId(u32::from_le_bytes(word));
        let checkpoint = CheckpointId(r.read_bits(checkpoint_id_bits)? as u32);
        let timestamp = Timestamp(r.read_bits(64)?);
        let mut arch_bytes = [0u8; 4 + 32 * 4];
        r.read_bytes(&mut arch_bytes)?;
        let pc = Addr::new(u64::from(u32::from_le_bytes(
            arch_bytes[..4].try_into().ok()?,
        )));
        let mut regs = [Word::ZERO; 32];
        for (i, reg) in regs.iter_mut().enumerate() {
            *reg = Word::new(u32::from_le_bytes(
                arch_bytes[4 + i * 4..8 + i * 4].try_into().ok()?,
            ));
        }
        Some(FllHeader {
            process,
            thread,
            checkpoint,
            timestamp,
            arch: ArchState::new(pc, regs),
        })
    }
}

/// Fault information appended by the OS when the interval ends with a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Program counter of the faulting instruction.
    pub pc: Addr,
    /// Committed instructions in the interval before the fault.
    pub icount_in_interval: InstrCount,
}

impl FaultRecord {
    /// Encoded size of the fault trailer in bits (PC + instruction count).
    pub const fn encoded_bits() -> u64 {
        32 + 64
    }
}

/// Derived field widths used to encode and decode FLL records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FllCodec {
    /// Width of the reduced (common-case) L-Count field.
    pub reduced_lcount_bits: u32,
    /// Width of the full L-Count field (`log2(checkpoint interval)`).
    pub full_lcount_bits: u32,
    /// Width of a dictionary rank (`log2(dictionary entries)`).
    pub dict_index_bits: u32,
    /// Width of the C-ID field in the header.
    pub checkpoint_id_bits: u32,
    /// Number of dictionary entries (needed to re-simulate the dictionary
    /// during replay).
    pub dictionary_entries: usize,
    /// Width of the dictionary's saturating counters.
    pub dictionary_counter_bits: u32,
}

impl FllCodec {
    /// Derives the codec widths from a recorder configuration.
    pub fn from_config(cfg: &BugNetConfig) -> Self {
        FllCodec {
            reduced_lcount_bits: cfg.reduced_lcount_bits,
            full_lcount_bits: cfg.full_lcount_bits(),
            dict_index_bits: cfg.dictionary_index_bits(),
            checkpoint_id_bits: cfg.checkpoint_id_bits,
            dictionary_entries: cfg.dictionary_entries,
            dictionary_counter_bits: cfg.dictionary_counter_bits,
        }
    }

    /// Checks the widths a decoded log declares before anything reads,
    /// shifts or allocates with them: frame checksums are unkeyed, so a
    /// forged log can declare anything. Returns what is out of range.
    ///
    /// # Errors
    ///
    /// A counter width outside 1..=8, a dictionary size outside
    /// 1..=[`MAX_DICTIONARY_ENTRIES`], a rank width that is not the one that
    /// size derives, or a field too wide for one 64-bit read (the reduced
    /// L-Count must also leave room for its flag bit).
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let derived = BugNetConfig::default()
            .with_dictionary_entries(self.dictionary_entries)
            .dictionary_index_bits();
        if !(1..=8).contains(&self.dictionary_counter_bits) {
            Err("dictionary counter width outside 1..=8")
        } else if !(1..=MAX_DICTIONARY_ENTRIES).contains(&self.dictionary_entries) {
            Err("dictionary size outside 1..=65536")
        } else if self.dict_index_bits != derived {
            Err("dictionary rank width disagrees with the dictionary size")
        } else if self.reduced_lcount_bits >= 64
            || self.full_lcount_bits > 64
            || self.checkpoint_id_bits > 64
        {
            Err("field width beyond 64 bits")
        } else {
            Ok(())
        }
    }

    /// Largest L-Count representable in the reduced field.
    pub fn reduced_lcount_max(&self) -> u64 {
        (1u64 << self.reduced_lcount_bits) - 1
    }

    /// Bits used by one record with the given skip count and value encoding.
    pub fn record_bits(&self, skipped: u64, dictionary_hit: bool) -> u64 {
        let lcount = 1 + if skipped <= self.reduced_lcount_max() {
            self.reduced_lcount_bits as u64
        } else {
            self.full_lcount_bits as u64
        };
        let value = 1 + if dictionary_hit {
            self.dict_index_bits as u64
        } else {
            32
        };
        lcount + value
    }
}

/// The value part of a log record, as written by the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedValue {
    /// The value was found in the dictionary at this rank.
    DictRank(usize),
    /// The value was not in the dictionary and is stored verbatim.
    Full(Word),
}

/// One decoded FLL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadRecord {
    /// Loads skipped (not logged) since the previous logged load.
    pub skipped: u64,
    /// The encoded value.
    pub value: EncodedValue,
}

/// The fewest bits one record can take: its LC-Type and LV-Type bits.
const MIN_RECORD_BITS: u64 = 2;

/// Error produced when decoding a corrupt or truncated FLL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FllDecodeError {
    /// The record stream ended in the middle of a record.
    Truncated,
}

impl fmt::Display for FllDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FllDecodeError::Truncated => f.write_str("first-load log record stream is truncated"),
        }
    }
}

impl Error for FllDecodeError {}

/// Incremental encoder used by the recorder while an interval is open.
#[derive(Debug, Clone)]
pub struct FllEncoder {
    codec: FllCodec,
    writer: BitWriter,
    records: u64,
    dictionary_hits: u64,
    uncompressed_bits: u64,
}

impl FllEncoder {
    /// Creates an empty encoder.
    pub fn new(codec: FllCodec) -> Self {
        FllEncoder {
            codec,
            writer: BitWriter::new(),
            records: 0,
            dictionary_hits: 0,
            uncompressed_bits: 0,
        }
    }

    /// Creates an encoder with storage pre-reserved for roughly
    /// `expected_records` common-case records, so recording an interval does
    /// not reallocate the stream buffer record by record.
    pub fn with_record_capacity(codec: FllCodec, expected_records: u64) -> Self {
        FllEncoder {
            codec,
            writer: BitWriter::with_capacity_bits(expected_records * codec.record_bits(0, true)),
            records: 0,
            dictionary_hits: 0,
            uncompressed_bits: 0,
        }
    }

    /// Appends one record.
    ///
    /// Each type bit is fused with the field that follows it into a single
    /// accumulator push (LSB-first concatenation), so a common-case record
    /// (reduced L-Count + dictionary rank) costs two `write_bits` calls.
    pub fn push(&mut self, skipped: u64, value: EncodedValue) {
        // LC-Type + L-Count.
        if skipped <= self.codec.reduced_lcount_max() {
            self.writer
                .write_bits(skipped << 1, self.codec.reduced_lcount_bits + 1);
        } else if self.codec.full_lcount_bits < 64 {
            self.writer
                .write_bits((skipped << 1) | 1, self.codec.full_lcount_bits + 1);
        } else {
            self.writer.write_bit(true);
            self.writer.write_bits(skipped, self.codec.full_lcount_bits);
        }
        // LV-Type + value.
        match value {
            EncodedValue::DictRank(rank) => {
                self.writer
                    .write_bits((rank as u64) << 1, self.codec.dict_index_bits + 1);
                self.dictionary_hits += 1;
            }
            EncodedValue::Full(word) => {
                self.writer.write_bits((u64::from(word.get()) << 1) | 1, 33);
            }
        }
        self.records += 1;
        // The "uncompressed" reference keeps the L-Count encoding but always
        // stores the full 32-bit value; this is what the paper's compression
        // ratio (Figure 6) measures the dictionary against.
        self.uncompressed_bits += self.codec.record_bits(skipped, false);
    }

    /// Number of records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bits written so far.
    pub fn bits(&self) -> u64 {
        self.writer.bit_len()
    }

    /// Finalizes the record stream.
    pub fn finish(self) -> (BitStream, FllPayloadStats) {
        let stats = FllPayloadStats {
            records: self.records,
            dictionary_hits: self.dictionary_hits,
            uncompressed_bits: self.uncompressed_bits,
        };
        (self.writer.finish(), stats)
    }
}

/// Statistics about an encoded record stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FllPayloadStats {
    /// Number of records (logged first loads).
    pub records: u64,
    /// Records whose value was encoded as a dictionary rank.
    pub dictionary_hits: u64,
    /// Size the stream would have without the dictionary (full 32-bit values).
    pub uncompressed_bits: u64,
}

/// A complete First-Load Log for one checkpoint interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstLoadLog {
    /// Interval identification and initial architectural state.
    pub header: FllHeader,
    /// Committed instructions in the interval.
    pub instructions: u64,
    /// Load instructions executed in the interval (logged or not).
    pub loads_executed: u64,
    /// Why the interval ended.
    pub termination: TerminationCause,
    /// Fault trailer, present when `termination == Fault`.
    pub fault: Option<FaultRecord>,
    codec: FllCodec,
    stream: BitStream,
    payload: FllPayloadStats,
}

impl FirstLoadLog {
    /// Assembles a log from its parts (used by the recorder).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        header: FllHeader,
        codec: FllCodec,
        stream: BitStream,
        payload: FllPayloadStats,
        instructions: u64,
        loads_executed: u64,
        termination: TerminationCause,
        fault: Option<FaultRecord>,
    ) -> Self {
        FirstLoadLog {
            header,
            instructions,
            loads_executed,
            termination,
            fault,
            codec,
            stream,
            payload,
        }
    }

    /// The codec widths this log was encoded with.
    pub fn codec(&self) -> FllCodec {
        self.codec
    }

    /// Number of logged first-load records.
    pub fn records(&self) -> u64 {
        self.payload.records
    }

    /// Number of records encoded as dictionary ranks.
    pub fn dictionary_hits(&self) -> u64 {
        self.payload.dictionary_hits
    }

    /// Total size of the log (header + records + fault trailer).
    pub fn size(&self) -> ByteSize {
        let mut bits =
            FllHeader::encoded_bits(self.codec.checkpoint_id_bits) + self.stream.bit_len();
        if self.fault.is_some() {
            bits += FaultRecord::encoded_bits();
        }
        ByteSize::from_bits(bits)
    }

    /// Size of the record stream alone.
    pub fn payload_size(&self) -> ByteSize {
        ByteSize::from_bits(self.stream.bit_len())
    }

    /// Size the record stream would have without dictionary compression.
    pub fn uncompressed_payload_size(&self) -> ByteSize {
        ByteSize::from_bits(self.payload.uncompressed_bits)
    }

    /// Dictionary compression ratio of the payload (uncompressed / actual).
    pub fn compression_ratio(&self) -> f64 {
        self.uncompressed_payload_size()
            .ratio_to(self.payload_size())
    }

    /// Iterator-style reader over the records.
    pub fn records_reader(&self) -> FllRecordReader<'_> {
        FllRecordReader {
            reader: BitReader::new(&self.stream),
            codec: self.codec,
            remaining: self.payload.records,
        }
    }

    /// Decodes all records into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`FllDecodeError::Truncated`] if the stream ends early.
    pub fn decode_records(&self) -> Result<Vec<LoadRecord>, FllDecodeError> {
        let mut reader = self.records_reader();
        // Every record spends at least its two type bits, so the stream
        // bounds the reservation even when the declared count is forged
        // (`FirstLoadLog::new` takes any count).
        let capacity = self
            .payload
            .records
            .min(self.stream.bit_len() / MIN_RECORD_BITS);
        let mut out = Vec::with_capacity(capacity as usize);
        while let Some(record) = reader.next_record()? {
            out.push(record);
        }
        Ok(out)
    }

    /// Exact length in bytes of [`FirstLoadLog::to_bytes`], computed without
    /// serializing. The columnar (v5) seal path uses it to keep the raw-size
    /// accounting of the row layout without paying for a dead serialization.
    pub fn serialized_len(&self) -> u64 {
        // Mirrors `to_bytes` field for field: widths + dictionary entries
        // (9 bytes), header, instructions + loads (128), termination tag
        // (3), fault flag (1) and optional trailer, payload accounting
        // (3 × 64), the 4 re-alignment bits, the stream bit length (64) and
        // the stream's whole-byte image.
        let mut bits = 72
            + FllHeader::encoded_bits(self.codec.checkpoint_id_bits)
            + 64
            + 64
            + 3
            + 1
            + 192
            + 4
            + 64
            + self.stream.as_bytes().len() as u64 * 8;
        if self.fault.is_some() {
            bits += FaultRecord::encoded_bits();
        }
        bits.div_ceil(8)
    }

    /// Serializes the complete log — codec widths, header, metadata and the
    /// packed record stream — into a byte vector. The header and the record
    /// stream go through the writer's byte-aligned bulk path. This is the
    /// format a software BugNet driver would dump to disk after a crash; it
    /// is deterministic, so golden tests compare it byte for byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BitWriter::with_capacity_bits(
            FllHeader::encoded_bits(self.codec.checkpoint_id_bits) + self.stream.bit_len() + 512,
        );
        // Codec widths first, so the decoder knows every later field width.
        w.write_bytes(&[
            self.codec.reduced_lcount_bits as u8,
            self.codec.full_lcount_bits as u8,
            self.codec.dict_index_bits as u8,
            self.codec.checkpoint_id_bits as u8,
            self.codec.dictionary_counter_bits as u8,
        ]);
        w.write_bytes(&(self.codec.dictionary_entries as u32).to_le_bytes());
        self.header
            .encode_into(&mut w, self.codec.checkpoint_id_bits);
        w.write_bits(self.instructions, 64);
        w.write_bits(self.loads_executed, 64);
        w.write_bits(self.termination.to_tag(), 3);
        match self.fault {
            Some(fault) => {
                w.write_bit(true);
                w.write_bits(u64::from(fault.pc.raw() as u32), 32);
                w.write_bits(fault.icount_in_interval.0, 64);
            }
            None => w.write_bit(false),
        }
        w.write_bits(self.payload.records, 64);
        w.write_bits(self.payload.dictionary_hits, 64);
        w.write_bits(self.payload.uncompressed_bits, 64);
        // Re-align so the record stream is a straight memcpy both ways.
        w.write_bits(0, 4);
        w.write_bits(self.stream.bit_len(), 64);
        w.write_bytes(self.stream.as_bytes());
        w.finish().as_bytes().to_vec()
    }

    /// Deserializes a log written by [`FirstLoadLog::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`FllDecodeError::Truncated`] if the buffer is too short or
    /// structurally inconsistent, including a record count its stream
    /// cannot hold and codec widths no reader can use (see
    /// `FllCodec::check`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FllDecodeError> {
        let stream = BitStream::from_bytes(bytes.to_vec(), bytes.len() as u64 * 8);
        let mut r = BitReader::new(&stream);
        let mut widths = [0u8; 5];
        r.read_bytes(&mut widths).ok_or(FllDecodeError::Truncated)?;
        let mut entries = [0u8; 4];
        r.read_bytes(&mut entries)
            .ok_or(FllDecodeError::Truncated)?;
        let codec = FllCodec {
            reduced_lcount_bits: u32::from(widths[0]),
            full_lcount_bits: u32::from(widths[1]),
            dict_index_bits: u32::from(widths[2]),
            checkpoint_id_bits: u32::from(widths[3]),
            dictionary_counter_bits: u32::from(widths[4]),
            dictionary_entries: u32::from_le_bytes(entries) as usize,
        };
        codec.check().map_err(|_| FllDecodeError::Truncated)?;
        let header = FllHeader::decode_from(&mut r, codec.checkpoint_id_bits)
            .ok_or(FllDecodeError::Truncated)?;
        let instructions = r.read_bits(64).ok_or(FllDecodeError::Truncated)?;
        let loads_executed = r.read_bits(64).ok_or(FllDecodeError::Truncated)?;
        let termination =
            TerminationCause::from_tag(r.read_bits(3).ok_or(FllDecodeError::Truncated)?)
                .ok_or(FllDecodeError::Truncated)?;
        let fault = if r.read_bit().ok_or(FllDecodeError::Truncated)? {
            let pc = Addr::new(r.read_bits(32).ok_or(FllDecodeError::Truncated)?);
            let icount = InstrCount(r.read_bits(64).ok_or(FllDecodeError::Truncated)?);
            Some(FaultRecord {
                pc,
                icount_in_interval: icount,
            })
        } else {
            None
        };
        let payload = FllPayloadStats {
            records: r.read_bits(64).ok_or(FllDecodeError::Truncated)?,
            dictionary_hits: r.read_bits(64).ok_or(FllDecodeError::Truncated)?,
            uncompressed_bits: r.read_bits(64).ok_or(FllDecodeError::Truncated)?,
        };
        r.read_bits(4).ok_or(FllDecodeError::Truncated)?;
        let stream_bits = r.read_bits(64).ok_or(FllDecodeError::Truncated)?;
        // A corrupt dump could claim any 64-bit stream length; bound it by
        // the bits actually present before allocating (read_bytes below
        // still catches a shortfall in the padding byte).
        if stream_bits > r.remaining() {
            return Err(FllDecodeError::Truncated);
        }
        // Nor may the log declare more records than that stream can hold.
        if payload.records > stream_bits / MIN_RECORD_BITS {
            return Err(FllDecodeError::Truncated);
        }
        let mut stream_bytes = vec![0u8; stream_bits.div_ceil(8) as usize];
        r.read_bytes(&mut stream_bytes)
            .ok_or(FllDecodeError::Truncated)?;
        Ok(FirstLoadLog {
            header,
            instructions,
            loads_executed,
            termination,
            fault,
            codec,
            stream: BitStream::from_bytes(stream_bytes, stream_bits),
            payload,
        })
    }
}

impl fmt::Display for FirstLoadLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FLL {} {} {}: {} instrs, {} loads, {} records, {} ({})",
            self.header.thread,
            self.header.checkpoint,
            self.header.timestamp,
            self.instructions,
            self.loads_executed,
            self.records(),
            self.size(),
            self.termination
        )
    }
}

/// Streaming decoder over the records of a [`FirstLoadLog`].
#[derive(Debug, Clone)]
pub struct FllRecordReader<'a> {
    reader: BitReader<'a>,
    codec: FllCodec,
    remaining: u64,
}

impl FllRecordReader<'_> {
    /// Records not yet decoded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes the next record, `Ok(None)` at the end of the log.
    ///
    /// # Errors
    ///
    /// Returns [`FllDecodeError::Truncated`] if the stream ends early.
    pub fn next_record(&mut self) -> Result<Option<LoadRecord>, FllDecodeError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if let Some(record) = self.next_from_window() {
            self.remaining -= 1;
            return Ok(Some(record));
        }
        let lc_type = self.reader.read_bit().ok_or(FllDecodeError::Truncated)?;
        let lcount_bits = if lc_type {
            self.codec.full_lcount_bits
        } else {
            self.codec.reduced_lcount_bits
        };
        let skipped = self
            .reader
            .read_bits(lcount_bits)
            .ok_or(FllDecodeError::Truncated)?;
        let lv_type = self.reader.read_bit().ok_or(FllDecodeError::Truncated)?;
        let value = if lv_type {
            let raw = self.reader.read_bits(32).ok_or(FllDecodeError::Truncated)?;
            EncodedValue::Full(Word::new(raw as u32))
        } else {
            let rank = self
                .reader
                .read_bits(self.codec.dict_index_bits)
                .ok_or(FllDecodeError::Truncated)?;
            EncodedValue::DictRank(rank as usize)
        };
        self.remaining -= 1;
        Ok(Some(LoadRecord { skipped, value }))
    }

    /// Decodes the next record's four fields from one
    /// [`BitReader::window`], when 16 bytes follow the cursor: a record of
    /// any codec [`FllCodec::check`] accepts takes at most 1 + 64 + 1 + 32
    /// bits. `None` leaves the cursor where it was, for the per-field path
    /// (near the end of the stream, or for a record that does not fit).
    #[inline]
    fn next_from_window(&mut self) -> Option<LoadRecord> {
        let window = self.reader.window()?;
        let lcount_bits = if window & 1 == 1 {
            self.codec.full_lcount_bits
        } else {
            self.codec.reduced_lcount_bits
        };
        if lcount_bits > 64 {
            return None;
        }
        let skipped = (window >> 1) as u64 & low_mask(lcount_bits);
        let lv_type = 1 + lcount_bits;
        let field = window >> (lv_type + 1);
        let (value, value_bits) = if (window >> lv_type) & 1 == 1 {
            (EncodedValue::Full(Word::new(field as u32)), 32)
        } else {
            let rank_bits = self.codec.dict_index_bits;
            let rank = field as u64 & low_mask(rank_bits);
            (EncodedValue::DictRank(rank as usize), rank_bits)
        };
        let bits = u64::from(lv_type) + 1 + u64::from(value_bits);
        if bits > WINDOW_BITS {
            return None;
        }
        self.reader.skip(bits)?;
        Some(LoadRecord { skipped, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> FllCodec {
        FllCodec::from_config(&BugNetConfig::default())
    }

    fn header() -> FllHeader {
        FllHeader {
            process: ProcessId(1),
            thread: ThreadId(0),
            checkpoint: CheckpointId(3),
            timestamp: Timestamp(77),
            arch: ArchState::default(),
        }
    }

    #[test]
    fn forged_codec_widths_are_typed_errors_in_both_decoders() {
        use crate::columnar::{join_fll, split_fll};
        let mut enc = FllEncoder::new(codec());
        enc.push(3, EncodedValue::Full(Word::new(7)));
        enc.push(40, EncodedValue::DictRank(2));
        let (stream, payload) = enc.finish();
        let log = FirstLoadLog::new(
            header(),
            codec(),
            stream,
            payload,
            100,
            50,
            TerminationCause::IntervalFull,
            None,
        );
        // Byte offsets of the codec fields, the same in the row format and
        // in the columnar meta stream: five widths, then the u32 size.
        let forgeries: [(&str, usize, &[u8]); 7] = [
            ("counter bits 0", 4, &[0]),
            ("counter bits 9", 4, &[9]),
            ("dictionary size 0", 5, &0u32.to_le_bytes()),
            ("dictionary size u32::MAX", 5, &u32::MAX.to_le_bytes()),
            ("rank width 7 for 64 entries", 2, &[7]),
            ("reduced L-Count width 64", 0, &[64]),
            ("C-ID width 65", 3, &[65]),
        ];
        for (what, at, patch) in forgeries {
            let mut bytes = log.to_bytes();
            bytes[at..at + patch.len()].copy_from_slice(patch);
            assert_eq!(
                FirstLoadLog::from_bytes(&bytes),
                Err(FllDecodeError::Truncated),
                "row format, {what}"
            );
            let mut streams = split_fll(&log).unwrap();
            let meta = &mut streams
                .iter_mut()
                .find(|(id, _)| *id == crate::columnar::FLL_STREAM_META)
                .unwrap()
                .1;
            meta[at..at + patch.len()].copy_from_slice(patch);
            assert!(
                matches!(
                    join_fll(&streams),
                    Err(crate::columnar::ColumnarCodecError::Inconsistent { .. })
                ),
                "columnar format, {what}"
            );
        }
        // The unforged log still decodes both ways.
        assert_eq!(FirstLoadLog::from_bytes(&log.to_bytes()).unwrap(), log);
        assert_eq!(join_fll(&split_fll(&log).unwrap()).unwrap(), log);
    }

    #[test]
    fn record_count_beyond_the_stream_is_rejected_not_allocated() {
        // An empty stream that declares 2^40 records: a decoder trusting
        // the count would reserve terabytes before reading a single bit.
        let forged = FirstLoadLog::new(
            header(),
            codec(),
            BitStream::from_bytes(Vec::new(), 0),
            FllPayloadStats {
                records: 1 << 40,
                ..FllPayloadStats::default()
            },
            1000,
            0,
            TerminationCause::IntervalFull,
            None,
        );
        let bytes = forged.to_bytes();
        assert_eq!(
            FirstLoadLog::from_bytes(&bytes),
            Err(FllDecodeError::Truncated)
        );
        assert_eq!(forged.decode_records(), Err(FllDecodeError::Truncated));
    }

    fn make_log(records: &[(u64, EncodedValue)]) -> FirstLoadLog {
        let mut enc = FllEncoder::new(codec());
        for (skipped, value) in records {
            enc.push(*skipped, *value);
        }
        let (stream, payload) = enc.finish();
        FirstLoadLog::new(
            header(),
            codec(),
            stream,
            payload,
            1000,
            records.len() as u64 * 3,
            TerminationCause::IntervalFull,
            None,
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let records = vec![
            (0, EncodedValue::Full(Word::new(0xdead_beef))),
            (3, EncodedValue::DictRank(5)),
            (31, EncodedValue::DictRank(63)),
            (32, EncodedValue::Full(Word::new(7))),
            (1_000_000, EncodedValue::DictRank(0)),
        ];
        let log = make_log(&records);
        let decoded = log.decode_records().unwrap();
        assert_eq!(decoded.len(), records.len());
        for (rec, (skipped, value)) in decoded.iter().zip(&records) {
            assert_eq!(rec.skipped, *skipped);
            assert_eq!(rec.value, *value);
        }
    }

    #[test]
    fn serialized_len_matches_to_bytes_exactly() {
        // The columnar seal path trusts `serialized_len` for raw-size
        // accounting instead of serializing; the two must never drift.
        let plain = make_log(&[
            (0, EncodedValue::Full(Word::new(0xdead_beef))),
            (3, EncodedValue::DictRank(5)),
            (1_000_000, EncodedValue::DictRank(0)),
        ]);
        assert_eq!(plain.serialized_len(), plain.to_bytes().len() as u64);

        let mut enc = FllEncoder::new(codec());
        enc.push(7, EncodedValue::Full(Word::new(1)));
        let (stream, payload) = enc.finish();
        let with_fault = FirstLoadLog::new(
            header(),
            codec(),
            stream,
            payload,
            10,
            1,
            TerminationCause::Fault,
            Some(FaultRecord {
                pc: Addr::new(0x400010),
                icount_in_interval: InstrCount(9),
            }),
        );
        assert_eq!(
            with_fault.serialized_len(),
            with_fault.to_bytes().len() as u64
        );

        let empty = make_log(&[]);
        assert_eq!(empty.serialized_len(), empty.to_bytes().len() as u64);
    }

    #[test]
    fn record_sizes_follow_the_paper_format() {
        let c = codec();
        // Reduced L-Count (5 bits) + dictionary rank (6 bits) + 2 type bits.
        assert_eq!(c.record_bits(3, true), 1 + 5 + 1 + 6);
        // Full L-Count (24 bits for a 10M interval) + full value.
        assert_eq!(c.record_bits(100, false), 1 + 24 + 1 + 32);
        assert_eq!(c.reduced_lcount_max(), 31);
    }

    #[test]
    fn size_includes_header_and_fault_trailer() {
        let log = make_log(&[(0, EncodedValue::DictRank(1))]);
        let no_fault = log.size().bits();
        let mut enc = FllEncoder::new(codec());
        enc.push(0, EncodedValue::DictRank(1));
        let (stream, payload) = enc.finish();
        let with_fault = FirstLoadLog::new(
            header(),
            codec(),
            stream,
            payload,
            10,
            1,
            TerminationCause::Fault,
            Some(FaultRecord {
                pc: Addr::new(0x400010),
                icount_in_interval: InstrCount(9),
            }),
        );
        assert_eq!(
            with_fault.size().bits(),
            no_fault + FaultRecord::encoded_bits()
        );
        assert_eq!(FllHeader::encoded_bits(8), 32 + 32 + 8 + 64 + (33 * 32));
    }

    #[test]
    fn compression_ratio_reflects_dictionary_hits() {
        let all_hits = make_log(&[
            (0, EncodedValue::DictRank(1)),
            (0, EncodedValue::DictRank(2)),
        ]);
        let no_hits = make_log(&[
            (0, EncodedValue::Full(Word::new(1))),
            (0, EncodedValue::Full(Word::new(2))),
        ]);
        assert!(all_hits.compression_ratio() > 2.0);
        assert!((no_hits.compression_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(all_hits.dictionary_hits(), 2);
        assert_eq!(no_hits.dictionary_hits(), 0);
    }

    #[test]
    fn reader_reports_remaining() {
        let log = make_log(&[
            (0, EncodedValue::DictRank(1)),
            (1, EncodedValue::DictRank(2)),
        ]);
        let mut reader = log.records_reader();
        assert_eq!(reader.remaining(), 2);
        reader.next_record().unwrap();
        assert_eq!(reader.remaining(), 1);
        reader.next_record().unwrap();
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn display_mentions_termination() {
        let log = make_log(&[]);
        assert!(log.to_string().contains("interval full"));
        assert_eq!(TerminationCause::Fault.to_string(), "fault");
    }

    #[test]
    fn header_encodes_through_the_bulk_path() {
        let mut arch = ArchState {
            pc: Addr::new(0x40_0010),
            ..ArchState::default()
        };
        arch.regs[5] = Word::new(0xdead_beef);
        let header = FllHeader {
            process: ProcessId(7),
            thread: ThreadId(3),
            checkpoint: CheckpointId(200),
            timestamp: Timestamp(123_456_789),
            arch,
        };
        let mut w = BitWriter::new();
        header.encode_into(&mut w, 8);
        let stream = w.finish();
        assert_eq!(stream.bit_len(), FllHeader::encoded_bits(8));
        let mut r = BitReader::new(&stream);
        assert_eq!(FllHeader::decode_from(&mut r, 8), Some(header));
        assert!(r.is_exhausted());
    }

    #[test]
    fn log_serialization_round_trips() {
        let records = vec![
            (0, EncodedValue::Full(Word::new(0xdead_beef))),
            (3, EncodedValue::DictRank(5)),
            (1_000_000, EncodedValue::DictRank(0)),
        ];
        let log = make_log(&records);
        let bytes = log.to_bytes();
        let back = FirstLoadLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        // Serialization is deterministic byte for byte.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn log_serialization_round_trips_with_fault() {
        let mut enc = FllEncoder::new(codec());
        enc.push(2, EncodedValue::Full(Word::new(41)));
        let (stream, payload) = enc.finish();
        let log = FirstLoadLog::new(
            header(),
            codec(),
            stream,
            payload,
            10,
            1,
            TerminationCause::Fault,
            Some(FaultRecord {
                pc: Addr::new(0x400010),
                icount_in_interval: InstrCount(9),
            }),
        );
        let back = FirstLoadLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.fault, log.fault);
        assert_eq!(back.termination, TerminationCause::Fault);
    }

    #[test]
    fn truncated_serialized_log_is_rejected() {
        let log = make_log(&[(0, EncodedValue::DictRank(1))]);
        let bytes = log.to_bytes();
        for len in [0, 4, 8, bytes.len() - 1] {
            assert_eq!(
                FirstLoadLog::from_bytes(&bytes[..len]),
                Err(FllDecodeError::Truncated),
                "prefix of {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn corrupt_stream_length_is_rejected_without_allocating() {
        let log = make_log(&[(0, EncodedValue::DictRank(1))]);
        let mut bytes = log.to_bytes();
        // The 8-byte stream bit-length field sits right before the stream
        // bytes; overwrite it with absurd values.
        let stream_len = log.payload_size().bits().div_ceil(8) as usize;
        let field = bytes.len() - stream_len - 8;
        for corrupt in [u64::MAX, 1 << 40, (bytes.len() as u64) * 8 + 1] {
            bytes[field..field + 8].copy_from_slice(&corrupt.to_le_bytes());
            assert_eq!(
                FirstLoadLog::from_bytes(&bytes),
                Err(FllDecodeError::Truncated),
                "stream_bits = {corrupt} must be rejected"
            );
        }
    }

    #[test]
    fn every_cut_of_a_stream_decodes_its_whole_records_then_fails() {
        // The paper's widths, and the widest any checked codec declares: a
        // 64-bit full L-Count and 16-bit ranks. Away from the end of the
        // stream a record decodes from one 128-bit window, near it field by
        // field; both must give the same records and the same error.
        let widest = FllCodec {
            reduced_lcount_bits: 63,
            full_lcount_bits: 64,
            dict_index_bits: 16,
            dictionary_entries: 65_536,
            ..codec()
        };
        for c in [codec(), widest] {
            c.check().unwrap();
            let mut x = 7u64;
            let records: Vec<(u64, EncodedValue)> = (0..100u64)
                .map(|i| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let skipped = match i % 3 {
                        0 => i % 4,
                        1 => x & low_mask(c.full_lcount_bits),
                        _ => low_mask(c.full_lcount_bits),
                    };
                    let value = if i % 2 == 0 {
                        EncodedValue::Full(Word::new((x >> 16) as u32))
                    } else {
                        EncodedValue::DictRank(((x >> 40) & low_mask(c.dict_index_bits)) as usize)
                    };
                    (skipped, value)
                })
                .collect();
            let mut enc = FllEncoder::new(c);
            let mut ends = Vec::new();
            for &(skipped, value) in &records {
                enc.push(skipped, value);
                ends.push(enc.bits());
            }
            let (stream, payload) = enc.finish();
            for cut in 0..=stream.bit_len() {
                let bytes = stream.as_bytes()[..cut.div_ceil(8) as usize].to_vec();
                let log = FirstLoadLog::new(
                    header(),
                    c,
                    BitStream::from_bytes(bytes, cut),
                    payload,
                    1000,
                    300,
                    TerminationCause::IntervalFull,
                    None,
                );
                let mut reader = log.records_reader();
                for (&(skipped, value), &end) in records.iter().zip(&ends) {
                    let next = reader.next_record();
                    if end > cut {
                        assert_eq!(next, Err(FllDecodeError::Truncated), "cut at {cut}");
                        break;
                    }
                    assert_eq!(
                        next,
                        Ok(Some(LoadRecord { skipped, value })),
                        "cut at {cut}"
                    );
                }
                if cut == stream.bit_len() {
                    assert_eq!(reader.next_record(), Ok(None));
                }
            }
        }
    }

    #[test]
    fn fused_type_bits_keep_the_wire_format() {
        // Reference encoding: type bit written separately from its field, as
        // the original implementation did. The fused fast path must produce
        // the identical stream.
        let c = codec();
        let records = [
            (0u64, EncodedValue::DictRank(5)),
            (31, EncodedValue::Full(Word::new(0xffff_ffff))),
            (32, EncodedValue::DictRank(63)),
            (9_999_999, EncodedValue::Full(Word::new(0))),
        ];
        let mut reference = BitWriter::new();
        for (skipped, value) in &records {
            if *skipped <= c.reduced_lcount_max() {
                reference.write_bit(false);
                reference.write_bits(*skipped, c.reduced_lcount_bits);
            } else {
                reference.write_bit(true);
                reference.write_bits(*skipped, c.full_lcount_bits);
            }
            match value {
                EncodedValue::DictRank(rank) => {
                    reference.write_bit(false);
                    reference.write_bits(*rank as u64, c.dict_index_bits);
                }
                EncodedValue::Full(word) => {
                    reference.write_bit(true);
                    reference.write_bits(u64::from(word.get()), 32);
                }
            }
        }
        let mut enc = FllEncoder::new(c);
        for (skipped, value) in &records {
            enc.push(*skipped, *value);
        }
        let (stream, _) = enc.finish();
        assert_eq!(stream, reference.finish());
    }
}
