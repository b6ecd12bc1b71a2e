//! Log-specific half of the v5 columnar/delta transform.
//!
//! `bugnet_compress::columnar` supplies the generic machinery (zigzag
//! varints, lossless delta coding, the multi-stream container); this module
//! knows which FLL/MRL fields go into which stream. The contract is exact
//! losslessness: `join(split(log)) == log`, including the packed record
//! bitstream, so a v5 dump replays digest-identically to the v4 dump of the
//! same run.
//!
//! First-Load Log streams:
//!
//! ```text
//! id 0 meta    codec widths, header (PC + regs), counts — verbatim bytes
//! id 1 lcount  per record: loads skipped, as a varint
//! id 2 vtype   per record: 1 bit, set when the value is stored in full
//! id 3 rank    per dictionary hit: the rank as a packed nibble (ranks
//!              are frequency-ordered, so most fit 4 bits); nibble 0xF
//!              escapes to a varint in a back section
//! id 4 value   per full value: the wrapping `u32` delta vs the previous
//!              full value, coded through a 255-deep move-to-front list of
//!              recent deltas — one token byte per value (its MTF index,
//!              or 0xFF + 4 literal bytes appended to a back section).
//!              Strided scans repeat a handful of deltas, so the token
//!              section collapses into the runs the codec is built for
//! ```
//!
//! Memory Race Log streams:
//!
//! ```text
//! id 0 meta      header + suppressed/entry counts — verbatim bytes
//! id 1 local_ic  per edge: local IC, delta varint (monotone in practice)
//! id 2 rtid      per edge: remote thread id, varint
//! id 3 rcid      per edge: remote C-ID, delta varint
//! id 4 ric       per edge: remote IC, delta varint (near-monotone)
//! ```
//!
//! Splitting unrelated fields into their own byte-aligned streams is what
//! lets the general-purpose codec finally see the regularity the row format
//! hides: skip counts and ranks draw from tiny alphabets, type bits pack
//! 8 records per byte, and near-monotone columns collapse to small deltas.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use bugnet_compress::columnar::{
    decode_streams, encode_streams, get_delta, get_varint, put_delta, put_varint, ColumnarError,
};
use bugnet_compress::CodecId;
use bugnet_types::{Addr, CheckpointId, InstrCount, ProcessId, ThreadId, Timestamp, Word};

use crate::fll::{
    EncodedValue, FaultRecord, FirstLoadLog, FllCodec, FllDecodeError, FllEncoder, FllHeader,
    TerminationCause,
};
use crate::mrl::{MemoryRaceLog, MrlHeader, RaceEntry, RemoteExecState};
use bugnet_cpu::ArchState;

/// Streams a sealed FLL splits into, and a sealed MRL: ids 0 to 4.
pub const LOG_STREAMS: usize = 5;

/// FLL stream ids.
pub const FLL_STREAM_META: u8 = 0;
/// Per-record skip counts.
pub const FLL_STREAM_LCOUNT: u8 = 1;
/// Per-record value-type bits.
pub const FLL_STREAM_VTYPE: u8 = 2;
/// Dictionary ranks.
pub const FLL_STREAM_RANK: u8 = 3;
/// Full values.
pub const FLL_STREAM_VALUE: u8 = 4;

/// MRL stream ids.
pub const MRL_STREAM_META: u8 = 0;
/// Local instruction counts.
pub const MRL_STREAM_LOCAL_IC: u8 = 1;
/// Remote thread ids.
pub const MRL_STREAM_RTID: u8 = 2;
/// Remote checkpoint ids.
pub const MRL_STREAM_RCID: u8 = 3;
/// Remote instruction counts.
pub const MRL_STREAM_RIC: u8 = 4;

/// Human-readable name of an FLL stream id (for `bugnet info` and metrics).
pub fn fll_stream_name(id: u8) -> &'static str {
    match id {
        FLL_STREAM_META => "meta",
        FLL_STREAM_LCOUNT => "lcount",
        FLL_STREAM_VTYPE => "vtype",
        FLL_STREAM_RANK => "rank",
        FLL_STREAM_VALUE => "value",
        _ => "unknown",
    }
}

/// Human-readable name of an MRL stream id.
pub fn mrl_stream_name(id: u8) -> &'static str {
    match id {
        MRL_STREAM_META => "meta",
        MRL_STREAM_LOCAL_IC => "local_ic",
        MRL_STREAM_RTID => "rtid",
        MRL_STREAM_RCID => "rcid",
        MRL_STREAM_RIC => "ric",
        _ => "unknown",
    }
}

/// Error produced when a columnar log payload cannot be reassembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarCodecError {
    /// The multi-stream container itself failed to decode.
    Container(ColumnarError),
    /// A required stream is absent.
    MissingStream {
        /// The absent stream id.
        id: u8,
    },
    /// A stream ended before its declared content did.
    Truncated {
        /// Which stream was short.
        stream: &'static str,
    },
    /// Streams decode individually but disagree with the meta counts, or the
    /// source log could not be decomposed.
    Inconsistent {
        /// What disagreed.
        what: &'static str,
    },
}

impl fmt::Display for ColumnarCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarCodecError::Container(e) => write!(f, "columnar container: {e}"),
            ColumnarCodecError::MissingStream { id } => {
                write!(f, "required columnar stream {id} is missing")
            }
            ColumnarCodecError::Truncated { stream } => {
                write!(f, "columnar stream `{stream}` is truncated")
            }
            ColumnarCodecError::Inconsistent { what } => {
                write!(f, "columnar payload is inconsistent: {what}")
            }
        }
    }
}

impl Error for ColumnarCodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ColumnarCodecError::Container(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColumnarError> for ColumnarCodecError {
    fn from(e: ColumnarError) -> Self {
        ColumnarCodecError::Container(e)
    }
}

impl From<FllDecodeError> for ColumnarCodecError {
    fn from(_: FllDecodeError) -> Self {
        ColumnarCodecError::Inconsistent {
            what: "record stream does not decode",
        }
    }
}

// --- small byte-cursor helpers for the verbatim meta streams ---

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u8(b: &[u8], pos: &mut usize, stream: &'static str) -> Result<u8, ColumnarCodecError> {
    let v = *b
        .get(*pos)
        .ok_or(ColumnarCodecError::Truncated { stream })?;
    *pos += 1;
    Ok(v)
}

fn get_u32(b: &[u8], pos: &mut usize, stream: &'static str) -> Result<u32, ColumnarCodecError> {
    let end = *pos + 4;
    let v = b
        .get(*pos..end)
        .ok_or(ColumnarCodecError::Truncated { stream })?;
    *pos = end;
    Ok(u32::from_le_bytes(v.try_into().expect("4 bytes")))
}

fn get_u64(b: &[u8], pos: &mut usize, stream: &'static str) -> Result<u64, ColumnarCodecError> {
    let end = *pos + 8;
    let v = b
        .get(*pos..end)
        .ok_or(ColumnarCodecError::Truncated { stream })?;
    *pos = end;
    Ok(u64::from_le_bytes(v.try_into().expect("8 bytes")))
}

fn stream(streams: &[(u8, Vec<u8>)], id: u8) -> Result<&[u8], ColumnarCodecError> {
    streams
        .iter()
        .find(|(sid, _)| *sid == id)
        .map(|(_, bytes)| bytes.as_slice())
        .ok_or(ColumnarCodecError::MissingStream { id })
}

// --- First-Load Logs ---

/// Escape token of the value stream: the delta follows as 4 literal bytes
/// in the back section instead of being an MTF index.
const MTF_ESCAPE: u8 = 0xFF;

/// Escape nibble of the rank stream: the rank follows as a varint in the
/// back section instead of fitting the nibble.
const RANK_ESCAPE: u8 = 0xF;

/// Depth of the move-to-front list: every index is below [`MTF_ESCAPE`].
const MTF_DEPTH: usize = MTF_ESCAPE as usize;

/// Slots of the encoder's membership filter (2^12).
const MTF_FILTER_BITS: u32 = 12;

/// List depth at which the encoder starts its membership filter; a
/// shorter list is scanned faster than a filter is set up.
const MTF_FILTER_FROM: usize = 32;

fn mtf_filter_slot(delta: u32) -> usize {
    (delta.wrapping_mul(0x9E37_79B1) >> (32 - MTF_FILTER_BITS)) as usize
}

/// Move-to-front list of recently seen value deltas, at most
/// [`MTF_DEPTH`] entries deep so every index fits in one sub-escape byte.
/// Split and join run the identical update rule, which is what makes the
/// token stream decodable.
///
/// The list is a ring, so evicting the oldest entry is O(1) and moving an
/// entry to the front shifts only the entries ahead of it. Most full
/// values on a low-locality workload miss the list, and a miss would scan
/// all 255 entries; so once the list is [`MTF_FILTER_FROM`] deep the
/// encoder keeps a counting filter, the number of members in each hash
/// slot, and a zero count proves a miss without the scan. The decoder
/// only ever looks entries up by index and keeps no filter.
struct MtfDeltas {
    recent: VecDeque<u32>,
    /// Members per [`mtf_filter_slot`]; empty until the encoder starts it.
    /// A `u8` holds any count, as the list has at most 255 members.
    filter: Vec<u8>,
}

impl MtfDeltas {
    fn new() -> Self {
        MtfDeltas {
            recent: VecDeque::with_capacity(MTF_DEPTH),
            filter: Vec::new(),
        }
    }

    /// Returns the current index of `delta` and moves it to the front, or
    /// `None` (caller escapes) after recording it as the new front.
    fn encode(&mut self, delta: u32) -> Option<u8> {
        let may_hit = self.filter.is_empty() || self.filter[mtf_filter_slot(delta)] != 0;
        if may_hit {
            if let Some(i) = self.recent.iter().position(|&d| d == delta) {
                self.recent.remove(i);
                self.recent.push_front(delta);
                return Some(i as u8);
            }
        }
        self.push_front(delta);
        if self.filter.is_empty() && self.recent.len() == MTF_FILTER_FROM {
            self.filter = vec![0; 1 << MTF_FILTER_BITS];
            for &d in &self.recent {
                self.filter[mtf_filter_slot(d)] += 1;
            }
        }
        None
    }

    /// Resolves a token index back to its delta and moves it to the front.
    fn decode(&mut self, index: u8) -> Option<u32> {
        let delta = self.recent.remove(usize::from(index))?;
        self.recent.push_front(delta);
        Some(delta)
    }

    /// Records an escaped literal delta as the most recent entry, evicting
    /// the oldest when the list is full.
    fn push_front(&mut self, delta: u32) {
        if self.recent.len() == MTF_DEPTH {
            let evicted = self
                .recent
                .pop_back()
                .expect("a full list has a last entry");
            if !self.filter.is_empty() {
                self.filter[mtf_filter_slot(evicted)] -= 1;
            }
        }
        self.recent.push_front(delta);
        if !self.filter.is_empty() {
            self.filter[mtf_filter_slot(delta)] += 1;
        }
    }
}

/// Splits a First-Load Log into its per-field streams.
///
/// # Errors
///
/// Returns [`ColumnarCodecError::Inconsistent`] if the log's own record
/// stream does not decode (impossible for recorder-produced logs).
pub fn split_fll(log: &FirstLoadLog) -> Result<Vec<(u8, Vec<u8>)>, ColumnarCodecError> {
    let codec = log.codec();
    let records = log.decode_records()?;

    let mut meta = Vec::with_capacity(220);
    meta.extend_from_slice(&[
        codec.reduced_lcount_bits as u8,
        codec.full_lcount_bits as u8,
        codec.dict_index_bits as u8,
        codec.checkpoint_id_bits as u8,
        codec.dictionary_counter_bits as u8,
    ]);
    put_u32(&mut meta, codec.dictionary_entries as u32);
    put_u32(&mut meta, log.header.process.0);
    put_u32(&mut meta, log.header.thread.0);
    put_u32(&mut meta, log.header.checkpoint.0);
    put_u64(&mut meta, log.header.timestamp.0);
    put_u32(&mut meta, log.header.arch.pc.raw() as u32);
    for reg in &log.header.arch.regs {
        put_u32(&mut meta, reg.get());
    }
    put_u64(&mut meta, log.instructions);
    put_u64(&mut meta, log.loads_executed);
    meta.push(log.termination.to_tag() as u8);
    match log.fault {
        Some(fault) => {
            meta.push(1);
            put_u32(&mut meta, fault.pc.raw() as u32);
            put_u64(&mut meta, fault.icount_in_interval.0);
        }
        None => meta.push(0),
    }
    put_u64(&mut meta, log.records());
    put_u64(&mut meta, log.dictionary_hits());
    put_u64(&mut meta, log.uncompressed_payload_size().bits());
    put_u64(&mut meta, log.payload_size().bits());

    let mut lcount = Vec::with_capacity(records.len());
    let mut vtype = vec![0u8; records.len().div_ceil(8)];
    let mut rank_nibbles = Vec::new();
    let mut rank_escapes = Vec::new();
    let mut tokens = Vec::new();
    let mut literals = Vec::new();
    let mut mtf = MtfDeltas::new();
    let mut prev_value = 0u32;
    for (i, rec) in records.iter().enumerate() {
        put_varint(&mut lcount, rec.skipped);
        match rec.value {
            EncodedValue::DictRank(r) => {
                if r < usize::from(RANK_ESCAPE) {
                    rank_nibbles.push(r as u8);
                } else {
                    rank_nibbles.push(RANK_ESCAPE);
                    put_varint(&mut rank_escapes, r as u64);
                }
            }
            EncodedValue::Full(word) => {
                vtype[i / 8] |= 1 << (i % 8);
                let delta = word.get().wrapping_sub(prev_value);
                match mtf.encode(delta) {
                    Some(index) => tokens.push(index),
                    None => {
                        tokens.push(MTF_ESCAPE);
                        literals.extend_from_slice(&delta.to_le_bytes());
                    }
                }
                prev_value = word.get();
            }
        }
    }
    // Token section first (one byte per full value), literal section after.
    let mut value = tokens;
    value.extend_from_slice(&literals);
    // Rank stream: packed nibble section (low nibble first), then the
    // escaped-rank varints.
    let mut rank = Vec::with_capacity(rank_nibbles.len().div_ceil(2) + rank_escapes.len());
    for pair in rank_nibbles.chunks(2) {
        rank.push(pair[0] | (pair.get(1).copied().unwrap_or(0) << 4));
    }
    rank.extend_from_slice(&rank_escapes);

    Ok(vec![
        (FLL_STREAM_META, meta),
        (FLL_STREAM_LCOUNT, lcount),
        (FLL_STREAM_VTYPE, vtype),
        (FLL_STREAM_RANK, rank),
        (FLL_STREAM_VALUE, value),
    ])
}

/// Reassembles a First-Load Log from the streams produced by [`split_fll`].
///
/// The record bitstream is re-encoded through the same [`FllEncoder`] the
/// recorder uses, and every derived quantity (record count, dictionary hits,
/// uncompressed size, stream bit length) is checked against the meta stream,
/// so a successful join is bit-identical to the original log.
///
/// # Errors
///
/// Returns a typed [`ColumnarCodecError`] on any corruption; never panics.
pub fn join_fll(streams: &[(u8, Vec<u8>)]) -> Result<FirstLoadLog, ColumnarCodecError> {
    const S: &str = "fll meta";
    let meta = stream(streams, FLL_STREAM_META)?;
    let mut pos = 0;
    let reduced_lcount_bits = u32::from(get_u8(meta, &mut pos, S)?);
    let full_lcount_bits = u32::from(get_u8(meta, &mut pos, S)?);
    let dict_index_bits = u32::from(get_u8(meta, &mut pos, S)?);
    let checkpoint_id_bits = u32::from(get_u8(meta, &mut pos, S)?);
    let dictionary_counter_bits = u32::from(get_u8(meta, &mut pos, S)?);
    let dictionary_entries = get_u32(meta, &mut pos, S)? as usize;
    let codec = FllCodec {
        reduced_lcount_bits,
        full_lcount_bits,
        dict_index_bits,
        checkpoint_id_bits,
        dictionary_entries,
        dictionary_counter_bits,
    };
    codec
        .check()
        .map_err(|what| ColumnarCodecError::Inconsistent { what })?;
    let process = ProcessId(get_u32(meta, &mut pos, S)?);
    let thread = ThreadId(get_u32(meta, &mut pos, S)?);
    let checkpoint = CheckpointId(get_u32(meta, &mut pos, S)?);
    let timestamp = Timestamp(get_u64(meta, &mut pos, S)?);
    let pc = Addr::new(u64::from(get_u32(meta, &mut pos, S)?));
    let mut regs = [Word::ZERO; 32];
    for reg in regs.iter_mut() {
        *reg = Word::new(get_u32(meta, &mut pos, S)?);
    }
    let header = FllHeader {
        process,
        thread,
        checkpoint,
        timestamp,
        arch: ArchState::new(pc, regs),
    };
    let instructions = get_u64(meta, &mut pos, S)?;
    let loads_executed = get_u64(meta, &mut pos, S)?;
    let termination = TerminationCause::from_tag(u64::from(get_u8(meta, &mut pos, S)?)).ok_or(
        ColumnarCodecError::Inconsistent {
            what: "unknown termination tag",
        },
    )?;
    let fault = match get_u8(meta, &mut pos, S)? {
        0 => None,
        1 => Some(FaultRecord {
            pc: Addr::new(u64::from(get_u32(meta, &mut pos, S)?)),
            icount_in_interval: InstrCount(get_u64(meta, &mut pos, S)?),
        }),
        _ => {
            return Err(ColumnarCodecError::Inconsistent {
                what: "bad fault flag",
            })
        }
    };
    let records = get_u64(meta, &mut pos, S)?;
    let dictionary_hits = get_u64(meta, &mut pos, S)?;
    let uncompressed_bits = get_u64(meta, &mut pos, S)?;
    let stream_bits = get_u64(meta, &mut pos, S)?;
    if pos != meta.len() {
        return Err(ColumnarCodecError::Inconsistent {
            what: "trailing bytes in fll meta",
        });
    }

    let lcount = stream(streams, FLL_STREAM_LCOUNT)?;
    let vtype = stream(streams, FLL_STREAM_VTYPE)?;
    let rank = stream(streams, FLL_STREAM_RANK)?;
    let value = stream(streams, FLL_STREAM_VALUE)?;
    // A corrupt meta stream could claim any 64-bit record count; bound it by
    // the lcount bytes actually present (≥ 1 per record) before allocating.
    if records > lcount.len() as u64 {
        return Err(ColumnarCodecError::Inconsistent {
            what: "record count exceeds lcount stream",
        });
    }
    if vtype.len() as u64 != records.div_ceil(8) {
        return Err(ColumnarCodecError::Inconsistent {
            what: "vtype stream length",
        });
    }
    // The bits past the last record pad the final byte, and the writer
    // leaves them clear. With that checked, the token section (one byte
    // per full value) ends after as many bytes as the stream has set bits.
    let padding = records % 8;
    if padding != 0 && vtype.last().is_some_and(|&byte| byte >> padding != 0) {
        return Err(ColumnarCodecError::Inconsistent {
            what: "nonzero vtype padding bit",
        });
    }
    let full_total = vtype.iter().map(|byte| byte.count_ones() as usize).sum();
    let (tokens, literals) =
        value
            .split_at_checked(full_total)
            .ok_or(ColumnarCodecError::Truncated {
                stream: "fll value",
            })?;
    // The rank nibble section covers exactly the declared dictionary hits;
    // escaped ranks follow it.
    if dictionary_hits > records {
        return Err(ColumnarCodecError::Inconsistent {
            what: "dictionary hits exceed record count",
        });
    }
    let hits = dictionary_hits as usize;
    let (rank_nibbles, rank_escapes) = rank
        .split_at_checked(hits.div_ceil(2))
        .ok_or(ColumnarCodecError::Truncated { stream: "fll rank" })?;
    if hits % 2 == 1 && rank_nibbles[hits / 2] >> 4 != 0 {
        return Err(ColumnarCodecError::Inconsistent {
            what: "nonzero rank padding nibble",
        });
    }

    let mut enc = FllEncoder::with_record_capacity(codec, records);
    let (mut lpos, mut epos, mut j, mut lit) = (0usize, 0usize, 0usize, 0usize);
    let mut hit_idx = 0usize;
    let mut mtf = MtfDeltas::new();
    let mut prev_value = 0u32;
    for i in 0..records as usize {
        let skipped = get_varint(lcount, &mut lpos).ok_or(ColumnarCodecError::Truncated {
            stream: "fll lcount",
        })?;
        let full = vtype[i / 8] >> (i % 8) & 1 == 1;
        let value = if full {
            let token = tokens[j];
            let delta = if token == MTF_ESCAPE {
                let bytes = literals
                    .get(lit..lit + 4)
                    .ok_or(ColumnarCodecError::Truncated {
                        stream: "fll value",
                    })?;
                lit += 4;
                let delta = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                mtf.push_front(delta);
                delta
            } else {
                mtf.decode(token).ok_or(ColumnarCodecError::Inconsistent {
                    what: "value token indexes past the MTF list",
                })?
            };
            prev_value = prev_value.wrapping_add(delta);
            j += 1;
            EncodedValue::Full(Word::new(prev_value))
        } else {
            if hit_idx >= hits {
                return Err(ColumnarCodecError::Inconsistent {
                    what: "more dictionary hits than meta declares",
                });
            }
            let nibble = (rank_nibbles[hit_idx / 2] >> (4 * (hit_idx % 2))) & 0xF;
            hit_idx += 1;
            let r = if nibble == RANK_ESCAPE {
                get_varint(rank_escapes, &mut epos)
                    .ok_or(ColumnarCodecError::Truncated { stream: "fll rank" })?
            } else {
                u64::from(nibble)
            };
            if dict_index_bits < 64 && r >= (1u64 << dict_index_bits) {
                return Err(ColumnarCodecError::Inconsistent {
                    what: "dictionary rank exceeds index width",
                });
            }
            EncodedValue::DictRank(r as usize)
        };
        enc.push(skipped, value);
    }
    if lpos != lcount.len()
        || hit_idx != hits
        || epos != rank_escapes.len()
        || j != full_total
        || lit != literals.len()
    {
        return Err(ColumnarCodecError::Inconsistent {
            what: "trailing bytes in a record stream",
        });
    }

    let (bitstream, payload) = enc.finish();
    if payload.records != records
        || payload.dictionary_hits != dictionary_hits
        || payload.uncompressed_bits != uncompressed_bits
        || bitstream.bit_len() != stream_bits
    {
        return Err(ColumnarCodecError::Inconsistent {
            what: "re-encoded record stream disagrees with meta counts",
        });
    }
    Ok(FirstLoadLog::new(
        header,
        codec,
        bitstream,
        payload,
        instructions,
        loads_executed,
        termination,
        fault,
    ))
}

/// Splits, then codec-encodes, a First-Load Log into a v5 columnar blob.
pub fn encode_fll_columnar(codec: CodecId, log: &FirstLoadLog) -> Vec<u8> {
    let streams = split_fll(log).expect("recorder-produced log decomposes");
    encode_streams(codec, &streams)
}

/// Decodes a v5 columnar blob back into the original First-Load Log.
///
/// # Errors
///
/// Returns a typed [`ColumnarCodecError`] on any corruption.
pub fn decode_fll_columnar(blob: &[u8]) -> Result<FirstLoadLog, ColumnarCodecError> {
    join_fll(&decode_streams(blob)?)
}

// --- Memory Race Logs ---

/// Splits a Memory Race Log into its per-column streams.
pub fn split_mrl(log: &MemoryRaceLog) -> Vec<(u8, Vec<u8>)> {
    let mut meta = Vec::with_capacity(45);
    meta.push(log.checkpoint_id_bits() as u8);
    put_u64(&mut meta, log.entry_bits());
    put_u32(&mut meta, log.header.process.0);
    put_u32(&mut meta, log.header.thread.0);
    put_u32(&mut meta, log.header.checkpoint.0);
    put_u64(&mut meta, log.header.timestamp.0);
    put_u64(&mut meta, log.suppressed_entries());
    put_u64(&mut meta, log.entries().len() as u64);

    let n = log.entries().len();
    let (mut local_ic, mut rtid, mut rcid, mut ric) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut prev_lic, mut prev_cid, mut prev_ric) = (0u64, 0u64, 0u64);
    for e in log.entries() {
        put_delta(&mut local_ic, &mut prev_lic, e.local_ic.0);
        put_varint(&mut rtid, u64::from(e.remote.thread.0));
        put_delta(&mut rcid, &mut prev_cid, u64::from(e.remote.checkpoint.0));
        put_delta(&mut ric, &mut prev_ric, e.remote.instructions.0);
    }

    vec![
        (MRL_STREAM_META, meta),
        (MRL_STREAM_LOCAL_IC, local_ic),
        (MRL_STREAM_RTID, rtid),
        (MRL_STREAM_RCID, rcid),
        (MRL_STREAM_RIC, ric),
    ]
}

/// Reassembles a Memory Race Log from the streams produced by [`split_mrl`].
///
/// # Errors
///
/// Returns a typed [`ColumnarCodecError`] on any corruption; never panics.
pub fn join_mrl(streams: &[(u8, Vec<u8>)]) -> Result<MemoryRaceLog, ColumnarCodecError> {
    const S: &str = "mrl meta";
    let meta = stream(streams, MRL_STREAM_META)?;
    let mut pos = 0;
    let checkpoint_id_bits = u32::from(get_u8(meta, &mut pos, S)?);
    let entry_bits = get_u64(meta, &mut pos, S)?;
    let header = MrlHeader {
        process: ProcessId(get_u32(meta, &mut pos, S)?),
        thread: ThreadId(get_u32(meta, &mut pos, S)?),
        checkpoint: CheckpointId(get_u32(meta, &mut pos, S)?),
        timestamp: Timestamp(get_u64(meta, &mut pos, S)?),
    };
    let suppressed = get_u64(meta, &mut pos, S)?;
    let count = get_u64(meta, &mut pos, S)?;
    if pos != meta.len() {
        return Err(ColumnarCodecError::Inconsistent {
            what: "trailing bytes in mrl meta",
        });
    }

    let local_ic = stream(streams, MRL_STREAM_LOCAL_IC)?;
    let rtid = stream(streams, MRL_STREAM_RTID)?;
    let rcid = stream(streams, MRL_STREAM_RCID)?;
    let ric = stream(streams, MRL_STREAM_RIC)?;
    // Bound a corrupt count by the bytes present (≥ 1 per entry per stream).
    if count > local_ic.len() as u64 {
        return Err(ColumnarCodecError::Inconsistent {
            what: "entry count exceeds local_ic stream",
        });
    }
    let mut entries = Vec::with_capacity(count as usize);
    let (mut lpos, mut tpos, mut cpos, mut ipos) = (0usize, 0usize, 0usize, 0usize);
    let (mut prev_lic, mut prev_cid, mut prev_ric) = (0u64, 0u64, 0u64);
    for _ in 0..count {
        let lic =
            get_delta(local_ic, &mut lpos, &mut prev_lic).ok_or(ColumnarCodecError::Truncated {
                stream: "mrl local_ic",
            })?;
        let tid = get_varint(rtid, &mut tpos)
            .ok_or(ColumnarCodecError::Truncated { stream: "mrl rtid" })?;
        let cid = get_delta(rcid, &mut cpos, &mut prev_cid)
            .ok_or(ColumnarCodecError::Truncated { stream: "mrl rcid" })?;
        let ic = get_delta(ric, &mut ipos, &mut prev_ric)
            .ok_or(ColumnarCodecError::Truncated { stream: "mrl ric" })?;
        if tid > u64::from(u32::MAX) || cid > u64::from(u32::MAX) {
            return Err(ColumnarCodecError::Inconsistent {
                what: "remote id exceeds 32 bits",
            });
        }
        entries.push(RaceEntry {
            local_ic: InstrCount(lic),
            remote: RemoteExecState {
                thread: ThreadId(tid as u32),
                checkpoint: CheckpointId(cid as u32),
                instructions: InstrCount(ic),
            },
        });
    }
    if lpos != local_ic.len() || tpos != rtid.len() || cpos != rcid.len() || ipos != ric.len() {
        return Err(ColumnarCodecError::Inconsistent {
            what: "trailing bytes in an entry stream",
        });
    }
    Ok(MemoryRaceLog::from_parts(
        header,
        entries,
        suppressed,
        entry_bits,
        checkpoint_id_bits,
    ))
}

/// Splits, then codec-encodes, a Memory Race Log into a v5 columnar blob.
pub fn encode_mrl_columnar(codec: CodecId, log: &MemoryRaceLog) -> Vec<u8> {
    encode_streams(codec, &split_mrl(log))
}

/// Decodes a v5 columnar blob back into the original Memory Race Log.
///
/// # Errors
///
/// Returns a typed [`ColumnarCodecError`] on any corruption.
pub fn decode_mrl_columnar(blob: &[u8]) -> Result<MemoryRaceLog, ColumnarCodecError> {
    join_mrl(&decode_streams(blob)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_types::BugNetConfig;

    fn fll_codec() -> FllCodec {
        FllCodec::from_config(&BugNetConfig::default())
    }

    fn make_fll(records: &[(u64, EncodedValue)]) -> FirstLoadLog {
        let mut enc = FllEncoder::new(fll_codec());
        for (skipped, value) in records {
            enc.push(*skipped, *value);
        }
        let (stream, payload) = enc.finish();
        FirstLoadLog::new(
            FllHeader {
                process: ProcessId(1),
                thread: ThreadId(0),
                checkpoint: CheckpointId(3),
                timestamp: Timestamp(77),
                arch: ArchState::default(),
            },
            fll_codec(),
            stream,
            payload,
            1000,
            records.len() as u64 * 3,
            TerminationCause::IntervalFull,
            None,
        )
    }

    fn make_mrl(edges: &[(u64, u32, u32, u64)]) -> MemoryRaceLog {
        let cfg = BugNetConfig::default();
        let mut b = crate::mrl::MrlBuilder::new(
            MrlHeader {
                process: ProcessId(1),
                thread: ThreadId(0),
                checkpoint: CheckpointId(2),
                timestamp: Timestamp(5),
            },
            &cfg,
        );
        for &(lic, tid, cid, ic) in edges {
            b.record(
                InstrCount(lic),
                RemoteExecState {
                    thread: ThreadId(tid),
                    checkpoint: CheckpointId(cid),
                    instructions: InstrCount(ic),
                },
            );
        }
        b.finish()
    }

    #[test]
    fn fll_split_join_is_lossless() {
        let logs = [
            make_fll(&[]),
            make_fll(&[
                (0, EncodedValue::Full(Word::new(0xdead_beef))),
                (3, EncodedValue::DictRank(5)),
                (31, EncodedValue::DictRank(63)),
                (32, EncodedValue::Full(Word::new(7))),
                (1_000_000, EncodedValue::DictRank(0)),
            ]),
        ];
        for log in &logs {
            let streams = split_fll(log).unwrap();
            let back = join_fll(&streams).unwrap();
            assert_eq!(&back, log);
            assert_eq!(back.to_bytes(), log.to_bytes());
        }
    }

    #[test]
    fn fll_with_fault_round_trips() {
        let mut enc = FllEncoder::new(fll_codec());
        enc.push(2, EncodedValue::Full(Word::new(41)));
        let (stream, payload) = enc.finish();
        let log = FirstLoadLog::new(
            FllHeader {
                process: ProcessId(9),
                thread: ThreadId(4),
                checkpoint: CheckpointId(200),
                timestamp: Timestamp(123_456),
                arch: ArchState::default(),
            },
            fll_codec(),
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
        let back = join_fll(&split_fll(&log).unwrap()).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.fault, log.fault);
    }

    #[test]
    fn fll_columnar_blob_round_trips_both_codecs() {
        let log = make_fll(&[
            (1, EncodedValue::DictRank(2)),
            (1, EncodedValue::DictRank(2)),
            (4, EncodedValue::Full(Word::new(0x1000))),
            (4, EncodedValue::Full(Word::new(0x1004))),
        ]);
        for id in CodecId::ALL {
            let blob = encode_fll_columnar(id, &log);
            assert_eq!(decode_fll_columnar(&blob).unwrap(), log);
        }
    }

    /// The value stream of a delta sequence under the original MTF: a plain
    /// list, scanned in full and shifted on every update.
    fn list_mtf_value_stream(deltas: &[u32]) -> Vec<u8> {
        let mut recent: Vec<u32> = Vec::new();
        let (mut tokens, mut literals) = (Vec::new(), Vec::new());
        for &delta in deltas {
            match recent.iter().position(|&d| d == delta) {
                Some(i) => {
                    recent.remove(i);
                    recent.insert(0, delta);
                    tokens.push(i as u8);
                }
                None => {
                    recent.insert(0, delta);
                    recent.truncate(usize::from(MTF_ESCAPE));
                    tokens.push(MTF_ESCAPE);
                    literals.extend_from_slice(&delta.to_le_bytes());
                }
            }
        }
        tokens.extend_from_slice(&literals);
        tokens
    }

    /// Splits a log of full values with the given deltas and checks the
    /// value stream against the list MTF and the round trip through join.
    fn assert_mtf_matches_list(deltas: &[u32], what: &str) {
        let mut value = 0u32;
        let records: Vec<(u64, EncodedValue)> = deltas
            .iter()
            .map(|&d| {
                value = value.wrapping_add(d);
                (1, EncodedValue::Full(Word::new(value)))
            })
            .collect();
        let log = make_fll(&records);
        let streams = split_fll(&log).unwrap();
        assert!(
            stream(&streams, FLL_STREAM_VALUE).unwrap() == list_mtf_value_stream(deltas),
            "{what}: value stream differs from the list MTF"
        );
        assert_eq!(join_fll(&streams).unwrap(), log, "{what}: round trip");
    }

    #[test]
    fn mtf_cycles_around_the_eviction_boundary() {
        for distinct in [254u32, 255, 256, 257] {
            let deltas: Vec<u32> = (0..4 * distinct).map(|k| (k % distinct) * 8 + 1).collect();
            assert_mtf_matches_list(&deltas, &format!("cycle of {distinct}"));
        }
    }

    #[test]
    fn mtf_hits_at_the_first_and_last_index() {
        // 255 distinct deltas fill the list; the oldest then sits at index
        // 254, and repeating it hits index 254, then index 0.
        let mut deltas: Vec<u32> = (0..255u32).map(|k| k * 3 + 7).collect();
        deltas.extend([7, 7, 10, 10]);
        let stream = list_mtf_value_stream(&deltas);
        assert_eq!(&stream[255..259], &[254, 0, 254, 0]);
        assert_mtf_matches_list(&deltas, "first and last index");
    }

    #[test]
    fn mtf_filter_slot_collisions_and_a_repeated_delta() {
        // Deltas that all share one filter slot: a member keeps the slot
        // nonzero, so misses on its neighbours must still scan, and each
        // eviction must release exactly its own count.
        let slot = mtf_filter_slot(5);
        let colliding: Vec<u32> = (0u32..)
            .filter(|&d| mtf_filter_slot(d) == slot)
            .take(40)
            .collect();
        let mut rng = bugnet_types::SplitMix64::new(0xC011);
        let mut deltas = Vec::new();
        for round in 0..30u32 {
            deltas.extend((0..10).map(|_| colliding[rng.next_range(40) as usize]));
            // Fillers push the list past its depth so colliding members are
            // evicted while others of their slot stay behind.
            deltas.extend((0..30).map(|k| 1_000_000 + round * 30 + k));
        }
        assert_mtf_matches_list(&deltas, "colliding deltas");
        assert_mtf_matches_list(&[4; 1_000], "one repeated delta");
    }

    #[test]
    fn mtf_matches_list_on_random_mixtures() {
        for seed in 0..20u64 {
            let mut rng = bugnet_types::SplitMix64::new(seed);
            let alphabet = 1 + rng.next_range(600);
            let deltas: Vec<u32> = (0..3_000)
                .map(|_| {
                    if rng.chance(0.3) {
                        rng.next_u32()
                    } else {
                        rng.next_range(alphabet) as u32
                    }
                })
                .collect();
            assert_mtf_matches_list(&deltas, &format!("seed {seed}"));
        }
    }

    #[test]
    fn mrl_split_join_is_lossless() {
        let logs = [
            make_mrl(&[]),
            make_mrl(&[
                (10, 1, 0, 200),
                (20, 1, 0, 150), // suppressed by the Netzer filter
                (30, 2, 3, 77),
                (40, 1, 1, 5),
            ]),
        ];
        for log in &logs {
            let back = join_mrl(&split_mrl(log)).unwrap();
            assert_eq!(&back, log);
            assert_eq!(back.to_bytes(), log.to_bytes());
            assert_eq!(back.suppressed_entries(), log.suppressed_entries());
        }
    }

    #[test]
    fn mrl_columnar_blob_round_trips_both_codecs() {
        let log = make_mrl(&[(5, 1, 0, 50), (9, 2, 0, 51), (12, 1, 1, 7)]);
        for id in CodecId::ALL {
            let blob = encode_mrl_columnar(id, &log);
            assert_eq!(decode_mrl_columnar(&blob).unwrap(), log);
        }
    }

    #[test]
    fn missing_and_corrupt_streams_are_rejected() {
        let log = make_fll(&[(0, EncodedValue::DictRank(1))]);
        let mut streams = split_fll(&log).unwrap();
        // Drop the rank stream.
        streams.retain(|(id, _)| *id != FLL_STREAM_RANK);
        assert_eq!(
            join_fll(&streams),
            Err(ColumnarCodecError::MissingStream {
                id: FLL_STREAM_RANK
            })
        );
        // Truncate the lcount stream.
        let mut streams = split_fll(&log).unwrap();
        streams[FLL_STREAM_LCOUNT as usize].1.clear();
        assert!(matches!(
            join_fll(&streams),
            Err(ColumnarCodecError::Inconsistent { .. })
        ));
        // Inflate the record count in meta (sits right before 3 trailing u64s).
        let mut streams = split_fll(&log).unwrap();
        let meta_len = streams[0].1.len();
        streams[0].1[meta_len - 32..meta_len - 24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            join_fll(&streams),
            Err(ColumnarCodecError::Inconsistent { .. })
        ));
        // Bit-flip a decoded rank: the re-encoded stream no longer matches
        // the meta counts (dictionary hits stay equal, but the stream bits
        // cross-check via uncompressed size holds) — flip the *type* bit
        // instead, which flips hits.
        let mut streams = split_fll(&log).unwrap();
        streams[FLL_STREAM_VTYPE as usize].1[0] ^= 1;
        assert!(matches!(
            join_fll(&streams),
            Err(ColumnarCodecError::Truncated { .. })
                | Err(ColumnarCodecError::Inconsistent { .. })
        ));
    }

    /// The vtype stream's padding bits are clear as written; a set one is
    /// a forgery, as a nonzero rank padding nibble is.
    #[test]
    fn set_padding_bits_are_rejected() {
        let log = make_fll(&[
            (0, EncodedValue::Full(Word::new(7))),
            (1, EncodedValue::DictRank(1)),
            (2, EncodedValue::Full(Word::new(9))),
        ]);
        let clean = split_fll(&log).unwrap();
        assert_eq!(clean[FLL_STREAM_VTYPE as usize].1, [0b101]);
        assert_eq!(join_fll(&clean).unwrap(), log);
        for bit in 3..8 {
            let mut streams = clean.clone();
            streams[FLL_STREAM_VTYPE as usize].1[0] |= 1 << bit;
            assert_eq!(
                join_fll(&streams),
                Err(ColumnarCodecError::Inconsistent {
                    what: "nonzero vtype padding bit"
                }),
                "padding bit {bit}"
            );
        }
        let mut streams = clean;
        streams[FLL_STREAM_RANK as usize].1[0] |= 0x10;
        assert_eq!(
            join_fll(&streams),
            Err(ColumnarCodecError::Inconsistent {
                what: "nonzero rank padding nibble"
            })
        );
    }

    #[test]
    fn mrl_corruptions_are_rejected() {
        let log = make_mrl(&[(10, 1, 0, 200), (30, 2, 3, 77)]);
        let mut streams = split_mrl(&log);
        streams.retain(|(id, _)| *id != MRL_STREAM_RIC);
        assert_eq!(
            join_mrl(&streams),
            Err(ColumnarCodecError::MissingStream { id: MRL_STREAM_RIC })
        );
        // Inflate the entry count (last u64 of meta).
        let mut streams = split_mrl(&log);
        let meta_len = streams[0].1.len();
        streams[0].1[meta_len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            join_mrl(&streams),
            Err(ColumnarCodecError::Inconsistent { .. })
        ));
        // Trailing garbage in a column.
        let mut streams = split_mrl(&log);
        streams[MRL_STREAM_RTID as usize].1.push(0);
        assert!(matches!(
            join_mrl(&streams),
            Err(ColumnarCodecError::Inconsistent { .. })
        ));
    }

    #[test]
    fn stream_names_cover_all_ids() {
        for id in 0..5u8 {
            assert_ne!(fll_stream_name(id), "unknown");
            assert_ne!(mrl_stream_name(id), "unknown");
        }
        assert_eq!(fll_stream_name(99), "unknown");
        assert_eq!(mrl_stream_name(99), "unknown");
    }
}
