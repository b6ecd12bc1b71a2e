//! Golden tests: the optimized recorder (word-accumulator bitstream, indexed
//! dictionary, fused record writes) must produce byte-for-byte identical
//! FLL/MRL streams to the pre-optimization implementation.
//!
//! Two layers of pinning:
//!
//! 1. Every recorded FLL's packed record stream is re-encoded with a
//!    reference encoder that writes one bit at a time, exactly as the
//!    original implementation did, and compared byte for byte.
//! 2. The serialized dumps of two fixed workloads' logs (gzip and mcf) are
//!    hashed (FNV-1a) and compared against committed constants, so any
//!    unintended format change — however subtle — fails loudly. Three
//!    multithreaded kernels are pinned the same way, which covers the
//!    Memory Race Logs that coherence replies fill.
//!
//! The simulated caches' statistics are pinned for four recordings, one of
//! which overflows the L2, and that recording's FLL is hashed too: L2
//! evictions lose first-load bits, and the words they covered are logged
//! again.

use bugnet::core::fll::{EncodedValue, FirstLoadLog, FllCodec};
use bugnet::sim::{Machine, MachineBuilder};
use bugnet::types::{BugNetConfig, ThreadId};
use bugnet::workloads::spec::SpecProfile;
use bugnet::workloads::{mt, Workload};

/// Reference bit-at-a-time writer, copied from the pre-optimization
/// implementation of `bugnet_core::bitstream::BitWriter`.
#[derive(Default)]
struct SlowBitWriter {
    bytes: Vec<u8>,
    bit_len: u64,
}

impl SlowBitWriter {
    fn write_bit(&mut self, bit: bool) {
        let byte_index = (self.bit_len / 8) as usize;
        let bit_index = (self.bit_len % 8) as u32;
        if byte_index == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_index] |= 1 << bit_index;
        }
        self.bit_len += 1;
    }

    fn write_bits(&mut self, value: u64, width: u32) {
        for i in 0..width {
            self.write_bit((value >> i) & 1 == 1);
        }
    }
}

/// Re-encodes a decoded FLL record stream with the reference writer, exactly
/// as the pre-optimization `FllEncoder::push` laid the bits out.
fn reference_encode(fll: &FirstLoadLog) -> (Vec<u8>, u64) {
    let codec: FllCodec = fll.codec();
    let mut w = SlowBitWriter::default();
    for record in fll.decode_records().expect("stream decodes") {
        if record.skipped <= codec.reduced_lcount_max() {
            w.write_bit(false);
            w.write_bits(record.skipped, codec.reduced_lcount_bits);
        } else {
            w.write_bit(true);
            w.write_bits(record.skipped, codec.full_lcount_bits);
        }
        match record.value {
            EncodedValue::DictRank(rank) => {
                w.write_bit(false);
                w.write_bits(rank as u64, codec.dict_index_bits);
            }
            EncodedValue::Full(word) => {
                w.write_bit(true);
                w.write_bits(u64::from(word.get()), 32);
            }
        }
    }
    (w.bytes, w.bit_len)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `workload` to completion under the recorder, with 5k-instruction
/// checkpoint intervals.
fn record(workload: &Workload) -> Machine {
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(5_000))
        .build_with_workload(workload);
    machine.run_to_completion();
    machine
}

/// Records a golden workload: a single-threaded SPEC profile, 30k
/// instructions, 5k-instruction checkpoint intervals.
fn golden_logs(profile: SpecProfile) -> Vec<bugnet::core::CheckpointLogs> {
    record(&profile.build_workload(30_000, 1))
        .log_store()
        .expect("recorder attached")
        .dump_thread(ThreadId(0))
}

#[test]
fn optimized_fll_streams_match_bit_at_a_time_reference() {
    let logs = golden_logs(SpecProfile::gzip());
    assert!(!logs.is_empty(), "golden workload must produce checkpoints");
    let mut total_records = 0;
    for (i, logs) in logs.iter().enumerate() {
        let fll = &logs.fll;
        total_records += fll.records();
        let (ref_bytes, ref_bits) = reference_encode(fll);
        let stream = fll.records_reader();
        let _ = stream; // reader construction must not disturb the log
        assert_eq!(
            fll.payload_size().bits(),
            ref_bits,
            "interval {i}: bit length diverged from the reference encoder"
        );
        // Compare through the serialized dump so the exact backing bytes are
        // what is checked, including the zero padding of the final byte.
        let dumped = fll.to_bytes();
        let restored = FirstLoadLog::from_bytes(&dumped).expect("dump round-trips");
        assert_eq!(&restored, fll);
        let stream_bytes = fll_stream_bytes(fll);
        assert_eq!(
            stream_bytes, ref_bytes,
            "interval {i}: record stream bytes diverged from the reference encoder"
        );
    }
    assert!(total_records > 100, "workload must exercise the encoder");
}

/// The packed record stream bytes of a log, extracted via the public dump
/// format (the stream is its trailing byte-aligned section).
fn fll_stream_bytes(fll: &FirstLoadLog) -> Vec<u8> {
    let bytes = fll.to_bytes();
    let stream_len = fll.payload_size().bits().div_ceil(8) as usize;
    bytes[bytes.len() - stream_len..].to_vec()
}

/// FNV-1a hashes of a golden workload's concatenated FLL and MRL dumps.
fn log_hashes(profile: SpecProfile) -> (u64, u64) {
    let mut fll_dump = Vec::new();
    let mut mrl_dump = Vec::new();
    for logs in &golden_logs(profile) {
        fll_dump.extend_from_slice(&logs.fll.to_bytes());
        mrl_dump.extend_from_slice(&logs.mrl.to_bytes());
    }
    (fnv1a(&fll_dump), fnv1a(&mrl_dump))
}

/// Committed `(profile, FLL hash, MRL hash)` constants. mcf has far less
/// value locality than gzip, so it is the eviction-heavy case for the value
/// dictionary. Regenerate with
///   cargo test -q --test golden -- --ignored print_golden_hashes --nocapture
/// if the log format is changed *intentionally*.
fn golden_hashes() -> [(SpecProfile, u64, u64); 2] {
    [
        (
            SpecProfile::gzip(),
            0x5465_ba21_c958_76cc,
            0x5454_a975_9179_5ee3,
        ),
        (
            SpecProfile::mcf(),
            0xb78e_2508_2e9e_26b0,
            0x5454_a975_9179_5ee3,
        ),
    ]
}

#[test]
fn golden_workload_log_hashes_are_stable() {
    for (profile, fll, mrl) in golden_hashes() {
        let name = profile.name;
        let (fll_hash, mrl_hash) = log_hashes(profile);
        assert_eq!(fll_hash, fll, "{name}: FLL dump bytes changed");
        assert_eq!(mrl_hash, mrl, "{name}: MRL dump bytes changed");
    }
}

#[test]
#[ignore = "utility: prints the hashes to paste into the constants above"]
fn print_golden_hashes() {
    for (profile, _, _) in golden_hashes() {
        let name = profile.name;
        let (fll_hash, mrl_hash) = log_hashes(profile);
        println!("{name}: FLL {fll_hash:#018x}, MRL {mrl_hash:#018x}");
    }
}

/// FNV-1a hashes of a workload's FLL and MRL dumps, recorded at
/// 5k-instruction intervals and concatenated with threads in id order, plus
/// its MRL entry count.
fn recorded_log_hashes(workload: &Workload) -> (u64, u64, usize) {
    let machine = record(workload);
    let store = machine.log_store().expect("recorder attached");
    let mut fll_dump = Vec::new();
    let mut mrl_dump = Vec::new();
    let mut entries = 0;
    for thread in store.threads() {
        for logs in store.thread_logs(thread) {
            fll_dump.extend_from_slice(&logs.fll.to_bytes());
            mrl_dump.extend_from_slice(&logs.mrl.to_bytes());
            entries += logs.mrl.entries().len();
        }
    }
    (fnv1a(&fll_dump), fnv1a(&mrl_dump), entries)
}

#[test]
fn multithreaded_log_hashes_are_stable() {
    let golden = [
        (
            mt::racy_counter(8, 200),
            0x2462_2dde_4ef1_1c97,
            0xb9af_08b9_f987_f785,
            120,
        ),
        (
            mt::locked_counter(4, 100),
            0x6e49_cf33_2c13_68ea,
            0xa56e_9d19_204b_2238,
            84,
        ),
        (
            mt::producer_consumer(256),
            0x7459_5c7c_a72c_062e,
            0xd6d6_5a72_749f_bd23,
            1,
        ),
    ];
    for (workload, fll, mrl, entries) in golden {
        let name = &workload.name;
        let (fll_hash, mrl_hash, mrl_entries) = recorded_log_hashes(&workload);
        assert_eq!(fll_hash, fll, "{name}: FLL dump bytes changed");
        assert_eq!(mrl_hash, mrl, "{name}: MRL dump bytes changed");
        assert_eq!(mrl_entries, entries, "{name}: MRL entry count changed");
    }
}

/// `Machine::cache_stats()` after recording, as (L1 hits, L1 misses, L2
/// hits, L2 misses, L2 evictions, invalidations). The 30k goldens never
/// evict from the L2; a 200k-instruction mcf run overflows it, and the
/// racy counter's stores invalidate the other cores' copies.
#[test]
fn simulated_cache_statistics_are_stable() {
    let golden = [
        (
            SpecProfile::gzip().build_workload(30_000, 1),
            (7437, 2055, 570, 1485, 0, 0),
        ),
        (
            SpecProfile::mcf().build_workload(30_000, 1),
            (3776, 3244, 104, 3140, 0, 0),
        ),
        (
            SpecProfile::mcf().build_workload(200_000, 1),
            (25336, 21704, 5428, 16276, 1555, 0),
        ),
        (mt::racy_counter(8, 200), (3072, 128, 0, 128, 0, 127)),
    ];
    for (workload, stats) in golden {
        let s = record(&workload).cache_stats();
        assert_eq!(
            (
                s.l1_hits,
                s.l1_misses,
                s.l2_hits,
                s.l2_misses,
                s.l2_evictions,
                s.invalidations
            ),
            stats,
            "{}: cache statistics changed",
            workload.name
        );
    }
}

/// The FLL of a recording whose L2 evictions lose first-load bits, so the
/// words they covered are logged again.
#[test]
fn l2_evicting_mcf_log_hash_is_stable() {
    let workload = SpecProfile::mcf().build_workload(200_000, 1);
    let (fll_hash, _, _) = recorded_log_hashes(&workload);
    assert_eq!(
        fll_hash, 0xd53e_95f8_5a66_3e1d,
        "mcf 200k: FLL dump bytes changed"
    );
}
