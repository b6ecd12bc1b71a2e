//! Randomized property tests for the core data structures and the
//! end-to-end determinism invariant.
//!
//! The build environment has no access to crates.io, so instead of proptest
//! these properties are exercised with the workspace's own deterministic
//! [`SplitMix64`] generator: every case derives from a fixed seed, so
//! failures are reproducible by construction.

use std::sync::Arc;

use bugnet::core::bitstream::{BitReader, BitWriter};
use bugnet::core::dictionary::ValueDictionary;
use bugnet::core::fll::{
    EncodedValue, FirstLoadLog, FllCodec, FllEncoder, FllHeader, TerminationCause,
};
use bugnet::core::Replayer;
use bugnet::cpu::ArchState;
use bugnet::isa::{encode, AluOp, BranchCond, Instr, ProgramBuilder, Reg};
use bugnet::sim::MachineBuilder;
use bugnet::types::{
    Addr, BugNetConfig, CheckpointId, ProcessId, SplitMix64, ThreadId, Timestamp, Word,
    MAX_DICTIONARY_ENTRIES,
};
use bugnet::workloads::Workload;

// ---------------------------------------------------------------------------
// Bitstream: any sequence of (width, value) fields round-trips losslessly.
// ---------------------------------------------------------------------------

#[test]
fn bitstream_round_trips() {
    let mut rng = SplitMix64::new(0xB175);
    for case in 0..64 {
        let fields: Vec<(u32, u64)> = (0..rng.next_range(200))
            .map(|_| {
                let width = rng.next_range(64) as u32 + 1;
                let value = if width == 64 {
                    rng.next_u64()
                } else {
                    rng.next_u64() & ((1u64 << width) - 1)
                };
                (width, value)
            })
            .collect();
        let mut writer = BitWriter::new();
        for (width, value) in &fields {
            writer.write_bits(*value, *width);
        }
        let stream = writer.finish();
        let mut reader = BitReader::new(&stream);
        for (width, value) in &fields {
            assert_eq!(reader.read_bits(*width), Some(*value), "case {case}");
        }
        assert!(reader.is_exhausted(), "case {case}");
    }
}

#[test]
fn bitstream_round_trips_with_interleaved_bulk_bytes() {
    // Mixing write_bytes (the bulk path) with arbitrary-width fields must
    // read back identically through both read_bits and read_bytes.
    let mut rng = SplitMix64::new(0xB17E);
    for case in 0..32 {
        enum Op {
            Bits(u32, u64),
            Bytes(Vec<u8>),
        }
        let ops: Vec<Op> = (0..rng.next_range(60))
            .map(|_| {
                if rng.chance(0.3) {
                    Op::Bytes(
                        (0..rng.next_range(20))
                            .map(|_| rng.next_u32() as u8)
                            .collect(),
                    )
                } else {
                    let width = rng.next_range(64) as u32 + 1;
                    let value = rng.next_u64()
                        & if width == 64 {
                            u64::MAX
                        } else {
                            (1 << width) - 1
                        };
                    Op::Bits(width, value)
                }
            })
            .collect();
        let mut writer = BitWriter::new();
        for op in &ops {
            match op {
                Op::Bits(width, value) => writer.write_bits(*value, *width),
                Op::Bytes(data) => writer.write_bytes(data),
            }
        }
        let stream = writer.finish();
        let mut reader = BitReader::new(&stream);
        for op in &ops {
            match op {
                Op::Bits(width, value) => {
                    assert_eq!(reader.read_bits(*width), Some(*value), "case {case}")
                }
                Op::Bytes(data) => {
                    let mut out = vec![0u8; data.len()];
                    reader.read_bytes(&mut out).expect("enough bytes");
                    assert_eq!(&out, data, "case {case}");
                }
            }
        }
        assert!(reader.is_exhausted(), "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Dictionary: the flat implementation (an open-addressed value index and
// per-counter rank bitsets) must be observationally identical to the original
// linear-scan implementation for any capacity, counter width and value
// stream, including values that collide in its hash and streams that evict on
// every load; and the encoder-side table and the replayer-side table stay in
// lockstep for any value stream.
// ---------------------------------------------------------------------------

/// Reference implementation: the pre-optimization linear-scan dictionary,
/// kept verbatim so the differential test pins the indexed rewrite to the
/// paper's exact rank/eviction semantics.
struct LinearDictionary {
    entries: Vec<(Word, u8)>,
    capacity: usize,
    counter_max: u8,
}

impl LinearDictionary {
    fn new(capacity: usize, counter_bits: u32) -> Self {
        LinearDictionary {
            entries: Vec::new(),
            capacity,
            counter_max: ((1u16 << counter_bits) - 1) as u8,
        }
    }

    fn lookup(&self, value: Word) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == value)
    }

    fn encode(&mut self, value: Word) -> Option<usize> {
        let rank = self.lookup(value);
        self.observe(value);
        rank
    }

    fn observe(&mut self, value: Word) {
        match self.lookup(value) {
            Some(index) => {
                let bumped = self.entries[index]
                    .1
                    .saturating_add(1)
                    .min(self.counter_max);
                self.entries[index].1 = bumped;
                if index > 0 && bumped >= self.entries[index - 1].1 {
                    self.entries.swap(index - 1, index);
                }
            }
            None => {
                if self.entries.len() < self.capacity {
                    self.entries.push((value, 1));
                } else {
                    let victim = self
                        .entries
                        .iter()
                        .enumerate()
                        .rev()
                        .min_by_key(|(i, e)| (e.1, std::cmp::Reverse(*i)))
                        .map(|(i, _)| i)
                        .expect("capacity > 0");
                    self.entries[victim] = (value, 1);
                }
            }
        }
    }
}

/// Feeds `values` to the indexed dictionary and the linear reference and
/// asserts that every encoded rank and the final table agree.
fn assert_matches_reference(
    case: &str,
    capacity: usize,
    counter_bits: u32,
    values: impl IntoIterator<Item = Word>,
) {
    let mut indexed = ValueDictionary::new(capacity, counter_bits);
    let mut linear = LinearDictionary::new(capacity, counter_bits);
    for (step, value) in values.into_iter().enumerate() {
        assert_eq!(
            indexed.encode(value),
            linear.encode(value),
            "{case} step {step}: rank diverged for {value}"
        );
    }
    // Final table contents must be identical, rank by rank.
    assert_eq!(indexed.len(), linear.entries.len(), "{case}");
    for (rank, (value, _)) in linear.entries.iter().enumerate() {
        assert_eq!(indexed.value_at(rank), Some(*value), "{case} rank {rank}");
        assert_eq!(indexed.lookup(*value), Some(rank), "{case} rank {rank}");
    }
}

/// Value `k` of a family whose members collide in a multiplicative hash:
/// equal low 16 or 24 bits, or the full `u32` range including 0 and
/// `u32::MAX`.
fn colliding_value(family: u32, k: u64) -> Word {
    Word::new(match family {
        0 => (k as u32) << 16,
        1 => (k as u32) << 24,
        _ => match k % 64 {
            0 => 0,
            1 => u32::MAX,
            _ => (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32,
        },
    })
}

/// A stream over `family` that mostly draws from `hot` recurring keys and
/// now and then runs a no-locality stretch of fresh keys, which miss (and,
/// once the table is full, evict) on nearly every step.
fn stream_with_cold_stretches(
    rng: &mut SplitMix64,
    family: u32,
    capacity: usize,
    steps: usize,
) -> Vec<Word> {
    let hot = rng.next_range(2 * capacity as u64) + 1;
    let mut fresh = hot;
    let mut cold = 0;
    (0..steps)
        .map(|_| {
            if cold == 0 && rng.chance(0.01) {
                cold = rng.next_range(2 * capacity as u64) + 1;
            }
            let k = if cold > 0 {
                cold -= 1;
                fresh += 1;
                fresh
            } else {
                rng.next_range(hot)
            };
            colliding_value(family, k)
        })
        .collect()
}

#[test]
fn indexed_dictionary_matches_linear_scan_reference() {
    let mut rng = SplitMix64::new(0xD1C7);
    for case in 0..48 {
        let capacity = rng.next_range(127) as usize + 1;
        let counter_bits = rng.next_range(8) as u32 + 1;
        let value_space = rng.next_range(300) + 2;
        let steps = rng.next_range(2_000);
        let values: Vec<Word> = (0..steps)
            .map(|_| Word::new(rng.next_range(value_space) as u32))
            .collect();
        assert_matches_reference(&format!("case {case}"), capacity, counter_bits, values);
    }

    // Where a flat index can break: 64 and 65 entries straddle one bitset
    // word, 128 fills two exactly and 4,096 spans 64; counter widths 1 and 8
    // give 2 and 256 counter classes; values collide in the hash. The linear
    // reference costs O(capacity) per step, so the largest table gets each
    // value family once, at one width, for about 1.5 fills.
    let mut cases = Vec::new();
    for capacity in [64, 65, 128] {
        for counter_bits in [1, 3, 8] {
            for family in 0..3 {
                cases.push((capacity, counter_bits, family, 12_000));
            }
        }
    }
    for (family, counter_bits) in [(0, 1), (1, 3), (2, 8)] {
        cases.push((4_096, counter_bits, family, 6_000));
    }
    for (capacity, counter_bits, family, steps) in cases {
        let values = stream_with_cold_stretches(&mut rng, family, capacity, steps);
        let case = format!("capacity {capacity}, {counter_bits}-bit counters, family {family}");
        assert_matches_reference(&case, capacity, counter_bits, values);
    }
    // The largest table the format allows, filled only part way: 131,072
    // index slots and 1,024-word class bitsets.
    let values = (0..3_000).map(|k| colliding_value(2, rng.next_range(2_000) + k));
    assert_matches_reference("short fill", MAX_DICTIONARY_ENTRIES, 3, values);
}

#[test]
fn dictionary_encoder_and_replayer_stay_synchronized() {
    let mut rng = SplitMix64::new(0xD1C8);
    for _ in 0..32 {
        let capacity = rng.next_range(127) as usize + 1;
        let mut encoder = ValueDictionary::new(capacity, 3);
        let mut replayer = ValueDictionary::new(capacity, 3);
        for _ in 0..rng.next_range(500) + 1 {
            let value = Word::new(rng.next_range(64) as u32);
            let rank = encoder.encode(value);
            if let Some(rank) = rank {
                assert_eq!(replayer.value_at(rank), Some(value));
            }
            replayer.observe(value);
        }
    }
}

// ---------------------------------------------------------------------------
// FLL codec: any record sequence round-trips through encode + decode, and the
// serialized log round-trips byte for byte.
// ---------------------------------------------------------------------------

#[test]
fn fll_records_round_trip() {
    let mut rng = SplitMix64::new(0xF11);
    for _ in 0..32 {
        let cfg = BugNetConfig::default();
        let codec = FllCodec::from_config(&cfg);
        let mut encoder = FllEncoder::new(codec);
        let expected: Vec<(u64, EncodedValue)> = (0..rng.next_range(300))
            .map(|_| {
                let skipped = rng.next_range(5_000_000);
                let value = if rng.chance(0.5) {
                    EncodedValue::DictRank(rng.next_range(64) as usize)
                } else {
                    EncodedValue::Full(Word::new(rng.next_u32()))
                };
                encoder.push(skipped, value);
                (skipped, value)
            })
            .collect();
        let (stream, payload) = encoder.finish();
        let log = FirstLoadLog::new(
            FllHeader {
                process: ProcessId(1),
                thread: ThreadId(0),
                checkpoint: CheckpointId(0),
                timestamp: Timestamp(0),
                arch: ArchState::default(),
            },
            codec,
            stream,
            payload,
            expected.len() as u64,
            expected.len() as u64,
            TerminationCause::IntervalFull,
            None,
        );
        let decoded = log.decode_records().unwrap();
        assert_eq!(decoded.len(), expected.len());
        for (rec, (skipped, value)) in decoded.iter().zip(&expected) {
            assert_eq!(rec.skipped, *skipped);
            assert_eq!(rec.value, *value);
        }
        // The byte-level dump format round-trips too.
        let restored = FirstLoadLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(restored, log);
    }
}

// ---------------------------------------------------------------------------
// ISA encoding: programs assembled from arbitrary (valid) instruction
// parameters survive the binary encoding round trip.
// ---------------------------------------------------------------------------

#[test]
fn instruction_encoding_round_trips() {
    let mut rng = SplitMix64::new(0x15A);
    for _ in 0..256 {
        let rd = Reg::from_index(rng.next_range(32) as usize).unwrap();
        let rs1 = Reg::from_index(rng.next_range(32) as usize).unwrap();
        let rs2 = Reg::from_index(rng.next_range(32) as usize).unwrap();
        let imm = rng.next_u32() as i32;
        let target = rng.next_u32();
        let op = AluOp::ALL[rng.next_range(AluOp::ALL.len() as u64) as usize];
        let cond = BranchCond::ALL[rng.next_range(BranchCond::ALL.len() as u64) as usize];
        let instrs = [
            Instr::Li {
                rd,
                imm: imm as u32,
            },
            Instr::Alu { op, rd, rs1, rs2 },
            Instr::AluImm { op, rd, rs1, imm },
            Instr::Load {
                rd,
                base: rs1,
                offset: imm,
            },
            Instr::Store {
                rs: rs2,
                base: rs1,
                offset: imm,
            },
            Instr::AtomicSwap {
                rd,
                rs: rs2,
                base: rs1,
            },
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            },
            Instr::Jump { target },
            Instr::JumpAndLink { rd, target },
            Instr::JumpReg { rs: rs1 },
        ];
        for instr in instrs {
            assert_eq!(encode::decode(encode::encode(instr)), Ok(instr));
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: randomly generated straight-line programs with
// loads, stores and arithmetic over a small working set always replay to the
// recorded digest, for arbitrary checkpoint interval lengths.
// ---------------------------------------------------------------------------

#[test]
fn random_programs_replay_deterministically() {
    let mut rng = SplitMix64::new(0xE2E);
    for _ in 0..12 {
        let seed = rng.next_u64();
        let ops = rng.next_range(180) as usize + 20;
        let interval = rng.next_range(1_984) + 16;
        let program = random_program(seed, ops);
        let workload = Workload::single("prop", Arc::clone(&program));
        let mut machine = MachineBuilder::new()
            .bugnet(BugNetConfig::default().with_checkpoint_interval(interval))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(outcome.threads[0].halted || outcome.threads[0].fault.is_some());
        let verification = machine.replay_and_verify().unwrap();
        assert!(
            verification.all_match(),
            "failures = {}",
            verification.divergences().len()
        );
        // And replaying a second time gives the same digests again.
        let logs = machine.log_store().unwrap().dump_thread(ThreadId(0));
        let replayer = Replayer::new(program);
        let first = replayer.replay_thread(&logs).unwrap();
        let second = replayer.replay_thread(&logs).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(&a.digest, &b.digest);
            assert_eq!(&a.final_state, &b.final_state);
        }
    }
}

/// Generates a random but well-formed program: a loop over a mix of loads,
/// stores and ALU operations on a 256-word array, ending in `halt`.
fn random_program(seed: u64, ops: usize) -> Arc<bugnet::isa::Program> {
    let mut rng = SplitMix64::new(seed);
    let mut b = ProgramBuilder::new("prop-program");
    let data = b.alloc_data_array(256, |i| (i as u32).wrapping_mul(0x9E37_79B9) ^ seed as u32);
    b.li_addr(Reg::R3, data);
    b.li(Reg::R4, 0); // rolling value
    b.li(Reg::R10, 0); // loop counter
    b.li(Reg::R11, 3 + (seed % 5) as u32); // loop iterations
    let top = b.here();
    for _ in 0..ops {
        match rng.next_range(5) {
            0 | 1 => {
                let offset = (rng.next_range(256) * 4) as i32;
                b.load(Reg::R5, Reg::R3, offset);
                b.alu(AluOp::Add, Reg::R4, Reg::R4, Reg::R5);
            }
            2 => {
                let offset = (rng.next_range(256) * 4) as i32;
                b.store(Reg::R4, Reg::R3, offset);
            }
            3 => {
                b.alu_imm(AluOp::Xor, Reg::R4, Reg::R4, rng.next_u32() as i32);
            }
            _ => {
                b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
            }
        }
    }
    b.alu_imm(AluOp::Add, Reg::R10, Reg::R10, 1);
    b.branch(BranchCond::Lt, Reg::R10, Reg::R11, top);
    b.halt();
    Arc::new(b.build())
}

#[test]
fn helper_program_is_deterministic() {
    let a = random_program(42, 50);
    let b = random_program(42, 50);
    assert_eq!(a.code(), b.code());
    assert_ne!(a.fetch(Addr::new(0)), Some(Instr::Halt));
}
