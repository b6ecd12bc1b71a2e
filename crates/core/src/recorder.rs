//! The per-thread BugNet recorder and the memory-backed log store.
//!
//! One [`ThreadRecorder`] exists per traced hardware thread context. The
//! simulated machine drives it:
//!
//! 1. [`ThreadRecorder::begin_interval`] at the start of every checkpoint
//!    interval (thread start, after an interrupt/syscall/context switch, or
//!    when the previous interval filled up), capturing the architectural
//!    state into the new FLL header. The caller must also clear the cache's
//!    first-load bits and the dictionary is cleared here.
//! 2. [`ThreadRecorder::record_load`] for every committed load with the
//!    cache's first-load verdict; first loads are appended to the FLL through
//!    the dictionary compressor, others only advance the skip counter.
//! 3. [`ThreadRecorder::record_coherence_reply`] for every coherence reply,
//!    appending to the interval's Memory Race Log.
//! 4. [`ThreadRecorder::record_committed_instruction`] per committed
//!    instruction; it reports when the interval reached its configured
//!    maximum length.
//! 5. [`ThreadRecorder::end_interval`] with the termination cause, yielding
//!    the finished FLL + MRL pair, which the machine pushes into the
//!    [`LogStore`] (the memory-backed circular region of §4.7).

use std::ops::Deref;
use std::sync::mpsc;

use bugnet_compress::{encode_streams, streams_info, CodecId};
use bugnet_cpu::ArchState;
use bugnet_telemetry::Probe;
use bugnet_types::{
    Addr, BugNetConfig, ByteSize, CheckpointId, InstrCount, ProcessId, ThreadId, Timestamp, Word,
};

use crate::columnar::{split_fll, split_mrl};
use crate::dictionary::ValueDictionary;
use crate::digest::ExecutionDigest;
use crate::fll::{
    EncodedValue, FaultRecord, FirstLoadLog, FllCodec, FllEncoder, FllHeader, TerminationCause,
};
use crate::mrl::{MemoryRaceLog, MrlBuilder, MrlHeader, RemoteExecState};

/// The FLL + MRL pair produced for one checkpoint interval. It is the
/// interval type of the [`LogStore`] and of a loaded crash dump
/// ([`ThreadDump::checkpoints`](crate::dump::ThreadDump::checkpoints)), so
/// both replay through one check loop
/// ([`replay_and_check`](crate::dump::replay_and_check)).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointLogs {
    /// First-Load Log of the interval.
    pub fll: FirstLoadLog,
    /// Memory Race Log of the interval.
    pub mrl: MemoryRaceLog,
    /// Execution digest of the interval captured during recording, used by
    /// the replay verifier. This is *not* part of the hardware's logs; it is
    /// test instrumentation. It is what the crash-dump manifest stores for
    /// the interval.
    pub digest: ExecutionDigest,
}

impl CheckpointLogs {
    /// Combined size of the FLL and MRL.
    pub fn size(&self) -> ByteSize {
        self.fll.size() + self.mrl.size()
    }
}

/// A checkpoint interval's logs together with their sealed on-disk frames:
/// the columnar multi-stream blobs of [`crate::columnar`] (per-field
/// streams, delta/varint coded, each behind its own self-describing
/// container of [`bugnet_compress`]).
///
/// Sealing — splitting the FLL/MRL into per-field streams and running the
/// back-end compressor over each — is the CPU-heavy part of flushing an
/// interval, and it is a pure function of the logs and the codec. That
/// makes it safe to run on background worker threads: parallel and serial
/// flushing produce byte-identical frames, so the dumps they write are
/// byte-identical too.
///
/// Dereferences to the underlying [`CheckpointLogs`], so readers that only
/// care about the structured logs keep working unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedCheckpoint {
    /// The structured logs (still needed for in-memory replay).
    pub logs: CheckpointLogs,
    /// Codec the frames were sealed with.
    pub codec: CodecId,
    /// Columnar multi-stream blob holding the compressed FLL.
    pub fll_frame: Vec<u8>,
    /// Columnar multi-stream blob holding the compressed MRL.
    pub mrl_frame: Vec<u8>,
    /// Row-serialized ([`FirstLoadLog::to_bytes`]) FLL size — the raw-size
    /// baseline all compression ratios are measured against.
    pub fll_raw_bytes: u64,
    /// Row-serialized MRL size.
    pub mrl_raw_bytes: u64,
}

impl SealedCheckpoint {
    /// Splits `logs` into columnar streams and compresses them with `codec`.
    pub fn seal(logs: CheckpointLogs, codec: CodecId) -> Self {
        SealedCheckpoint::seal_observed(logs, codec, &mut Probe::off())
    }

    /// [`SealedCheckpoint::seal`] observed by `probe`: a `store`/`seal` span
    /// around the whole seal with its `codec`/`transform` (columnar split)
    /// and `codec`/`compress` (codec runs) parts, plus raw/stored and
    /// per-stream byte counters. The one place a seal is timed.
    fn seal_observed(logs: CheckpointLogs, codec: CodecId, probe: &mut Probe) -> Self {
        let start = probe.now();
        let fll_streams =
            split_fll(&logs.fll).expect("recorder-produced FLL decomposes into columnar streams");
        let mrl_streams = split_mrl(&logs.mrl);
        probe.span("codec", "transform", start, None);
        let compress_start = probe.now();
        let fll_frame = encode_streams(codec, &fll_streams);
        let mrl_frame = encode_streams(codec, &mrl_streams);
        probe.span("codec", "compress", compress_start, None);
        let sealed = SealedCheckpoint {
            fll_raw_bytes: logs.fll.serialized_len(),
            mrl_raw_bytes: logs.mrl.serialized_len(),
            logs,
            codec,
            fll_frame,
            mrl_frame,
        };
        let stored = sealed.fll_stored_bytes() + sealed.mrl_stored_bytes();
        probe.span("store", "seal", start, Some(("stored_bytes", stored)));
        if probe.registry().is_some() {
            let raw = sealed.fll_raw_bytes + sealed.mrl_raw_bytes;
            probe.add("store_sealed_raw_bytes_total", raw);
            probe.add("store_sealed_stored_bytes_total", stored);
            for (frame, names) in [
                (&sealed.fll_frame, &FLL_STREAM_BYTES),
                (&sealed.mrl_frame, &MRL_STREAM_BYTES),
            ] {
                for info in streams_info(frame).expect("just-encoded blob parses") {
                    if let Some(&name) = names.get(info.id as usize) {
                        probe.add(name, u64::from(info.stored_len));
                    }
                }
            }
        }
        sealed
    }

    /// On-disk size of the FLL frame (container header + encoded bytes).
    pub fn fll_stored_bytes(&self) -> u64 {
        self.fll_frame.len() as u64
    }

    /// On-disk size of the MRL frame.
    pub fn mrl_stored_bytes(&self) -> u64 {
        self.mrl_frame.len() as u64
    }

    /// Back-end compression ratio over both frames (raw / stored).
    pub fn stored_ratio(&self) -> f64 {
        let stored = self.fll_stored_bytes() + self.mrl_stored_bytes();
        if stored == 0 {
            1.0
        } else {
            (self.fll_raw_bytes + self.mrl_raw_bytes) as f64 / stored as f64
        }
    }
}

impl Deref for SealedCheckpoint {
    type Target = CheckpointLogs;

    fn deref(&self) -> &CheckpointLogs {
        &self.logs
    }
}

/// `columnar_fll_<stream>_bytes_total`, indexed by FLL stream id (the
/// names of [`crate::columnar::fll_stream_name`]).
const FLL_STREAM_BYTES: [&str; 5] = [
    "columnar_fll_meta_bytes_total",
    "columnar_fll_lcount_bytes_total",
    "columnar_fll_vtype_bytes_total",
    "columnar_fll_rank_bytes_total",
    "columnar_fll_value_bytes_total",
];

/// `columnar_mrl_<stream>_bytes_total`, indexed by MRL stream id.
const MRL_STREAM_BYTES: [&str; 5] = [
    "columnar_mrl_meta_bytes_total",
    "columnar_mrl_local_ic_bytes_total",
    "columnar_mrl_rtid_bytes_total",
    "columnar_mrl_rcid_bytes_total",
    "columnar_mrl_ric_bytes_total",
];

#[derive(Debug)]
struct IntervalState {
    header: FllHeader,
    encoder: FllEncoder,
    dictionary: ValueDictionary,
    mrl: MrlBuilder,
    skipped_since_log: u64,
    loads_executed: u64,
    /// First loads appended to the FLL (telemetry, tracked locally so the
    /// hot path never touches a shared counter).
    loads_logged: u64,
    /// First loads the dictionary compressed to a rank (telemetry).
    dict_hits: u64,
    instructions: u64,
    fault: Option<FaultRecord>,
    digest: ExecutionDigest,
    /// Probe-clock time the interval opened (0 when the probe is off).
    start_ns: u64,
}

/// Per-thread recording state machine.
#[derive(Debug)]
pub struct ThreadRecorder {
    cfg: BugNetConfig,
    codec: FllCodec,
    process: ProcessId,
    thread: ThreadId,
    next_checkpoint: CheckpointId,
    current: Option<IntervalState>,
    intervals_completed: u64,
    /// Dictionary recycled between intervals: the paper's hardware clears the
    /// CAM at each checkpoint rather than rebuilding it, and reusing the
    /// allocation (entry array, value index, counter-class bitsets) keeps
    /// `begin_interval` off the allocator on the hot recording path.
    spare_dictionary: Option<ValueDictionary>,
    /// Fed once per `end_interval` (see [`ThreadRecorder::attach_probe`]).
    probe: Probe,
}

impl ThreadRecorder {
    /// Creates a recorder for one thread.
    pub fn new(cfg: BugNetConfig, process: ProcessId, thread: ThreadId) -> Self {
        let codec = FllCodec::from_config(&cfg);
        ThreadRecorder {
            cfg,
            codec,
            process,
            thread,
            next_checkpoint: CheckpointId(0),
            current: None,
            intervals_completed: 0,
            spare_dictionary: None,
            probe: Probe::off(),
        }
    }

    /// Routes this recorder's observations into `probe`: per closed
    /// interval, one `recorder`/`interval` span, a `fault` instant if a
    /// fault ended it, and the batched `recorder_*` totals. All of it lands
    /// at `end_interval`; the per-load hot path is untouched.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The thread this recorder belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Whether an interval is currently open.
    pub fn is_recording(&self) -> bool {
        self.current.is_some()
    }

    /// The C-ID of the open interval, if any.
    pub fn current_checkpoint(&self) -> Option<CheckpointId> {
        self.current.as_ref().map(|s| s.header.checkpoint)
    }

    /// Committed instructions in the open interval (the "local IC" attached
    /// to outgoing coherence replies), zero when no interval is open.
    pub fn interval_instructions(&self) -> InstrCount {
        InstrCount(self.current.as_ref().map(|s| s.instructions).unwrap_or(0))
    }

    /// The execution state this thread advertises on coherence replies it
    /// sends to other cores.
    pub fn remote_exec_state(&self) -> RemoteExecState {
        RemoteExecState {
            thread: self.thread,
            checkpoint: self.current_checkpoint().unwrap_or(CheckpointId(0)),
            instructions: self.interval_instructions(),
        }
    }

    /// Number of intervals already closed.
    pub fn intervals_completed(&self) -> u64 {
        self.intervals_completed
    }

    /// Opens a new checkpoint interval, capturing the architectural state.
    ///
    /// # Panics
    ///
    /// Panics if an interval is already open; callers must end it first.
    pub fn begin_interval(&mut self, arch: ArchState, timestamp: Timestamp) -> CheckpointId {
        assert!(
            self.current.is_none(),
            "begin_interval called while an interval is open"
        );
        let checkpoint = self.next_checkpoint;
        self.next_checkpoint = checkpoint.next_wrapping(self.cfg.checkpoint_id_bits);
        let header = FllHeader {
            process: self.process,
            thread: self.thread,
            checkpoint,
            timestamp,
            arch,
        };
        let mrl_header = MrlHeader {
            process: self.process,
            thread: self.thread,
            checkpoint,
            timestamp,
        };
        let dictionary = match self.spare_dictionary.take() {
            Some(mut dict) => {
                dict.clear();
                dict
            }
            None => ValueDictionary::new(
                self.cfg.dictionary_entries,
                self.cfg.dictionary_counter_bits,
            ),
        };
        // Reserve room for a plausible record count up front; logging roughly
        // one first load per 64 instructions is typical for the paper's
        // workloads, and the clamp keeps tiny test intervals cheap.
        let expected_records = (self.cfg.checkpoint_interval / 64).clamp(32, 64 * 1024);
        self.current = Some(IntervalState {
            header,
            encoder: FllEncoder::with_record_capacity(self.codec, expected_records),
            dictionary,
            mrl: MrlBuilder::new(mrl_header, &self.cfg),
            skipped_since_log: 0,
            loads_executed: 0,
            loads_logged: 0,
            dict_hits: 0,
            instructions: 0,
            fault: None,
            digest: ExecutionDigest::new(),
            start_ns: self.probe.now(),
        });
        checkpoint
    }

    fn state_mut(&mut self) -> &mut IntervalState {
        self.current
            .as_mut()
            .expect("recorder method called with no open interval")
    }

    /// Records one committed load.
    ///
    /// `first_load` is the cache's verdict ([`bugnet_memsys::FirstAccess`]):
    /// when `true` the value is appended to the FLL (through the dictionary),
    /// otherwise only the skip counter advances. Every executed load updates
    /// the dictionary so the replayer can mirror its state.
    ///
    /// # Panics
    ///
    /// Panics if no interval is open.
    pub fn record_load(&mut self, addr: Addr, value: Word, first_load: bool) {
        let state = self.state_mut();
        state.loads_executed += 1;
        state.digest.record_load(addr, value);
        if first_load {
            state.loads_logged += 1;
            let encoded = match state.dictionary.encode(value) {
                Some(rank) => {
                    state.dict_hits += 1;
                    EncodedValue::DictRank(rank)
                }
                None => EncodedValue::Full(value),
            };
            let skipped = state.skipped_since_log;
            state.encoder.push(skipped, encoded);
            state.skipped_since_log = 0;
        } else {
            state.dictionary.observe(value);
            state.skipped_since_log += 1;
        }
    }

    /// Records one committed store (digest instrumentation only: BugNet never
    /// logs store values, replay regenerates them).
    ///
    /// # Panics
    ///
    /// Panics if no interval is open.
    pub fn record_store(&mut self, addr: Addr, value: Word) {
        self.state_mut().digest.record_store(addr, value);
    }

    /// Counts one committed instruction; returns `true` when the interval has
    /// reached its configured maximum length and should be terminated.
    ///
    /// # Panics
    ///
    /// Panics if no interval is open.
    pub fn record_committed_instruction(&mut self) -> bool {
        let limit = self.cfg.checkpoint_interval;
        let state = self.state_mut();
        state.instructions += 1;
        state.digest.record_instructions(1);
        state.instructions >= limit
    }

    /// Records a coherence reply received by this thread's core.
    ///
    /// # Panics
    ///
    /// Panics if no interval is open.
    pub fn record_coherence_reply(&mut self, remote: RemoteExecState) {
        let local_ic = InstrCount(self.state_mut().instructions);
        self.state_mut().mrl.record(local_ic, remote);
    }

    /// Records the fault that is terminating the interval (OS behaviour of
    /// §4.8: the faulting PC and instruction count go into the current FLL).
    ///
    /// # Panics
    ///
    /// Panics if no interval is open.
    pub fn record_fault(&mut self, pc: Addr) {
        let state = self.state_mut();
        state.fault = Some(FaultRecord {
            pc,
            icount_in_interval: InstrCount(state.instructions),
        });
    }

    /// Closes the open interval and returns its logs together with the final
    /// architectural state digest.
    ///
    /// Returns `None` if no interval is open (e.g. a double termination on
    /// fault + exit), which callers may ignore.
    pub fn end_interval(
        &mut self,
        cause: TerminationCause,
        final_state: &ArchState,
    ) -> Option<CheckpointLogs> {
        let mut state = self.current.take()?;
        state.digest.record_final_state(final_state);
        let probe = &mut self.probe;
        if probe.is_on() {
            // The one observation per interval: a span and batched totals.
            let instructions = Some(("instructions", state.instructions));
            probe.span("recorder", "interval", state.start_ns, instructions);
            probe.add("recorder_loads_seen_total", state.loads_executed);
            probe.add("recorder_loads_logged_total", state.loads_logged);
            probe.add("recorder_dict_hits_total", state.dict_hits);
            probe.add("recorder_instructions_total", state.instructions);
            probe.add("recorder_intervals_total", 1);
            probe.add("recorder_faults_total", u64::from(state.fault.is_some()));
            if state.fault.is_some() {
                probe.instant("recorder", "fault");
            }
        }
        self.spare_dictionary = Some(state.dictionary);
        let (stream, payload) = state.encoder.finish();
        let fll = FirstLoadLog::new(
            state.header,
            self.codec,
            stream,
            payload,
            state.instructions,
            state.loads_executed,
            cause,
            state.fault,
        );
        let mrl = state.mrl.finish();
        self.intervals_completed += 1;
        Some(CheckpointLogs {
            fll,
            mrl,
            digest: state.digest,
        })
    }
}

/// Per-thread slice of the log region. Each shard is independent of the
/// others — one writer thread appends to one shard — which is what makes the
/// store ready for parallel interval flushing.
#[derive(Debug)]
struct ThreadShard {
    thread: ThreadId,
    /// Retained sealed logs, oldest first.
    logs: Vec<SealedCheckpoint>,
    /// Cached sum of serialized-uncompressed frame bytes of `logs`.
    raw_bytes: u64,
    /// Cached sum of compressed frame bytes of `logs`.
    stored_bytes: u64,
    /// Cached sum of committed instructions of `logs` (the replay window).
    instructions: u64,
}

/// Default number of hand-off lanes a store creates for concurrent writers;
/// see [`LogStore::with_shards`].
pub const DEFAULT_STORE_SHARDS: usize = 8;

/// Sealed intervals a [`ThreadStoreHandle`] buffers locally before handing
/// the whole batch to the store in one channel send.
const HANDOFF_BATCH: usize = 16;

/// One hand-off lane: an mpsc channel carrying batches of sealed intervals
/// from writer threads into the store. The receiver side is drained by
/// [`LogStore::reconcile`].
#[derive(Debug)]
struct Lane {
    tx: mpsc::Sender<Vec<SealedCheckpoint>>,
    rx: mpsc::Receiver<Vec<SealedCheckpoint>>,
}

/// The write side of one thread's slice of a [`LogStore`] — the API that
/// makes concurrent multi-core recording scale.
///
/// A handle is `Send` and wholly independent of the store's other handles:
/// sealing (serialize + compress) runs on the calling thread against
/// thread-local state, finished intervals are buffered into a small local
/// batch, and each full batch is handed to the store over an mpsc lane in a
/// single send. Writer threads therefore never contend on a shared lock or
/// on each other — the only shared structure is the lane channel, touched
/// once per `HANDOFF_BATCH` (16) intervals.
///
/// # Ordering contract
///
/// * Intervals pushed through one handle reach the store in push order
///   (mpsc senders are FIFO per sender).
/// * No ordering holds *across* handles: the store ingests whatever has
///   arrived, in lane order. Cross-thread ordering is deliberately relaxed —
///   replay only needs per-thread order (plus the MRL for races), and any
///   global barrier here is what kept multi-core recording from scaling.
/// * At most one live handle should push a given thread's intervals;
///   per-thread order is otherwise unspecified (two senders interleave).
/// * Nothing pushed is visible to the store's readers until the owner calls
///   [`LogStore::reconcile`] (or a wrapper that does, e.g. the flush
///   pipeline's drain/flush); `reconcile` is the single synchronization
///   point between writers and readers.
///
/// Dropping the handle flushes its pending batch. If the store itself is
/// gone by then, the remaining batch is discarded — in any correct use the
/// store outlives its handles.
#[derive(Debug)]
pub struct ThreadStoreHandle {
    thread: ThreadId,
    codec: CodecId,
    tx: mpsc::Sender<Vec<SealedCheckpoint>>,
    batch: Vec<SealedCheckpoint>,
    /// A sibling of the store's probe on this handle's `store-t<tid>` track
    /// (`seal` and `handoff` spans, once per sealed interval and batch).
    probe: Probe,
}

impl ThreadStoreHandle {
    /// The thread this handle writes for.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The codec this handle seals with (the store's codec).
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Seals `logs` on the calling thread and buffers the result; a full
    /// batch is handed to the store in one send.
    pub fn push(&mut self, logs: CheckpointLogs) {
        let sealed = SealedCheckpoint::seal_observed(logs, self.codec, &mut self.probe);
        self.push_sealed(sealed);
    }

    /// Buffers an already-sealed interval (sealed with this handle's codec).
    pub fn push_sealed(&mut self, sealed: SealedCheckpoint) {
        debug_assert_eq!(
            sealed.fll.header.thread, self.thread,
            "interval pushed through another thread's handle"
        );
        self.batch.push(sealed);
        if self.batch.len() >= HANDOFF_BATCH {
            self.flush();
        }
    }

    /// Sealed intervals buffered locally and not yet handed to the store.
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Hands the pending batch to the store's lane. A no-op when empty; if
    /// the store has been dropped, the batch is discarded (documented above).
    pub fn flush(&mut self) {
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            let intervals = batch.len() as u64;
            self.probe
                .record("store_handoff_batch_intervals", intervals);
            let start = self.probe.now();
            let _ = self.tx.send(batch);
            let arg = Some(("intervals", intervals));
            self.probe.span("store", "handoff", start, arg);
        }
    }
}

impl Drop for ThreadStoreHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The memory-backed circular log region (paper §4.7).
///
/// Completed FLL/MRL pairs are appended here; when the configured capacity is
/// exceeded, the logs of the globally oldest checkpoint (by timestamp) are
/// discarded, exactly like the hardware overwriting the oldest logs in
/// memory. The retained logs determine the replay window of each thread.
///
/// Internally the store is a flat array of per-thread shards (sorted by
/// thread id) with running size totals, so `push` is O(1) plus the rare
/// eviction, instead of re-summing every retained log on each append as a
/// map-of-vectors implementation must.
///
/// # Write paths
///
/// * **Single-owner (serial)** — [`LogStore::push`] / [`LogStore::push_sealed`]
///   append directly through `&mut self`, the convenience path for
///   single-threaded recording.
/// * **Concurrent (sharded)** — [`LogStore::thread_handle`] returns a `Send`
///   [`ThreadStoreHandle`] per thread; any number of handles push
///   concurrently from real OS threads, each sealing locally and handing
///   sealed batches over a per-shard mpsc lane. The owner makes the writes
///   visible with [`LogStore::reconcile`]. Per-thread order is preserved
///   (each thread id always maps to the same lane, and mpsc is FIFO per
///   sender); cross-thread order is relaxed. The reconciled store content is
///   a pure function of what each thread pushed — independent of shard
///   count, worker scheduling and arrival interleaving — as long as the
///   capacity-eviction policy does not fire (`reconcile` ingests everything
///   before evicting, so eviction too sees a deterministic ingest set).
#[derive(Debug)]
pub struct LogStore {
    fll_capacity: ByteSize,
    mrl_capacity: ByteSize,
    codec: CodecId,
    shards: Vec<ThreadShard>,
    /// Hand-off lanes for concurrent writers, created lazily per slot;
    /// thread `t` always uses lane `t % lanes.len()`.
    lanes: Vec<Option<Lane>>,
    evicted_checkpoints: u64,
    total_fll_bits: u64,
    total_mrl_bits: u64,
    /// Serial-path `seal` and ingesting `reconcile` spans, evictions; every
    /// minted [`ThreadStoreHandle`] gets a sibling of it on its own track.
    probe: Probe,
}

impl LogStore {
    /// Creates a store with the capacities from `cfg` and the default
    /// back-end codec (LZ).
    pub fn new(cfg: &BugNetConfig) -> Self {
        LogStore::with_codec(cfg, CodecId::Lz77)
    }

    /// Creates a store sealing its intervals with an explicit codec and
    /// [`DEFAULT_STORE_SHARDS`] hand-off lanes.
    pub fn with_codec(cfg: &BugNetConfig, codec: CodecId) -> Self {
        LogStore::with_shards(cfg, codec, DEFAULT_STORE_SHARDS)
    }

    /// Creates a store with an explicit number of hand-off lanes (clamped to
    /// at least one). The lane count bounds how many mpsc channels back the
    /// concurrent write side; threads hash onto lanes by id, so any thread
    /// count works with any shard count. Shard count never changes *what*
    /// the store retains (see the type-level ordering contract) — it is a
    /// resource knob, not a semantic one.
    pub fn with_shards(cfg: &BugNetConfig, codec: CodecId, shards: usize) -> Self {
        let lane_count = shards.max(1);
        LogStore {
            fll_capacity: cfg.fll_region,
            mrl_capacity: cfg.mrl_region,
            codec,
            shards: Vec::new(),
            lanes: (0..lane_count).map(|_| None).collect(),
            evicted_checkpoints: 0,
            total_fll_bits: 0,
            total_mrl_bits: 0,
            probe: Probe::off(),
        }
    }

    /// Routes this store's write path (seal latency, hand-off batch sizes,
    /// per-lane depth, reconcile latency, evictions) into `probe`. Attach
    /// *before* minting [`ThreadStoreHandle`]s: each handle takes a
    /// `store-t<tid>` sibling of the probe at mint time.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The back-end codec this store seals intervals with.
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Number of hand-off lanes backing the concurrent write side.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// The hand-off lane `thread` writes through.
    fn lane_of(&self, thread: ThreadId) -> usize {
        thread.0 as usize % self.lanes.len()
    }

    fn shard_index(&self, thread: ThreadId) -> Result<usize, usize> {
        self.shards.binary_search_by_key(&thread, |s| s.thread)
    }

    /// Returns the concurrent write handle for `thread` (see
    /// [`ThreadStoreHandle`] for the ordering contract). The handle is
    /// `Send`; move it onto the recording thread and push finished intervals
    /// through it, then call [`LogStore::reconcile`] from the store's owner
    /// to make them visible.
    pub fn thread_handle(&mut self, thread: ThreadId) -> ThreadStoreHandle {
        let idx = self.lane_of(thread);
        let lane = self.lanes[idx].get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            Lane { tx, rx }
        });
        ThreadStoreHandle {
            thread,
            codec: self.codec,
            tx: lane.tx.clone(),
            batch: Vec::new(),
            probe: self.probe.sibling(format_args!("store-t{}", thread.0)),
        }
    }

    /// Drains every hand-off lane into the per-thread shards and applies the
    /// eviction policy once over the ingested whole. Returns how many
    /// intervals were ingested. Only a reconcile that ingests is observed
    /// (a `store`/`reconcile` span and the per-lane depths): the machine
    /// loop polls this every scheduling round.
    ///
    /// This is the synchronization point between concurrent writers and the
    /// store's readers: everything a [`ThreadStoreHandle`] flushed before
    /// this call is visible afterwards. Ingesting everything *before*
    /// evicting keeps the retained set a pure function of the pushed
    /// content, not of cross-thread arrival timing.
    pub fn reconcile(&mut self) -> usize {
        let start = self.probe.now();
        let mut pending: Vec<SealedCheckpoint> = Vec::new();
        for lane in self.lanes.iter().flatten() {
            while let Ok(batch) = lane.rx.try_recv() {
                pending.extend(batch);
            }
        }
        let ingested = pending.len();
        if ingested == 0 {
            return 0;
        }
        if self.probe.is_on() {
            let mut depths = vec![0; self.lanes.len()];
            for sealed in &pending {
                depths[self.lane_of(sealed.fll.header.thread)] += 1;
            }
            for (i, depth) in depths.into_iter().enumerate() {
                self.probe.set_nth("store_lane{}_depth", i, depth);
            }
        }
        for sealed in pending {
            self.ingest(sealed);
        }
        self.evict_to_capacity();
        self.probe
            .add("store_reconciled_intervals_total", ingested as u64);
        let arg = Some(("intervals", ingested as u64));
        self.probe.span("store", "reconcile", start, arg);
        ingested
    }

    /// Seals (serializes + compresses) the logs of a completed interval with
    /// the store's codec and appends them. This is the single-owner
    /// convenience path; concurrent recording seals on the writer threads
    /// through [`LogStore::thread_handle`] instead.
    pub fn push(&mut self, logs: CheckpointLogs) {
        let sealed = SealedCheckpoint::seal_observed(logs, self.codec, &mut self.probe);
        self.push_sealed(sealed);
    }

    /// Appends an already-sealed interval and applies the eviction policy.
    ///
    /// The caller must seal with this store's codec; mixed-codec stores are
    /// rejected at dump time, not here (sealing is off the hot path, pushing
    /// is not).
    pub fn push_sealed(&mut self, sealed: SealedCheckpoint) {
        self.ingest(sealed);
        self.evict_to_capacity();
    }

    /// Appends a sealed interval to its thread's shard without applying the
    /// eviction policy (shared tail of the serial and reconcile paths).
    fn ingest(&mut self, sealed: SealedCheckpoint) {
        let thread = sealed.fll.header.thread;
        self.total_fll_bits += sealed.fll.size().bits();
        self.total_mrl_bits += sealed.mrl.size().bits();
        let raw_bytes = sealed.fll_raw_bytes + sealed.mrl_raw_bytes;
        let stored_bytes = sealed.fll_stored_bytes() + sealed.mrl_stored_bytes();
        let instructions = sealed.fll.instructions;
        let shard = match self.shard_index(thread) {
            Ok(i) => &mut self.shards[i],
            Err(i) => {
                self.shards.insert(
                    i,
                    ThreadShard {
                        thread,
                        logs: Vec::new(),
                        raw_bytes: 0,
                        stored_bytes: 0,
                        instructions: 0,
                    },
                );
                &mut self.shards[i]
            }
        };
        shard.logs.push(sealed);
        shard.raw_bytes += raw_bytes;
        shard.stored_bytes += stored_bytes;
        shard.instructions += instructions;
    }

    fn evict_to_capacity(&mut self) {
        let mut discarded = 0;
        loop {
            let over_fll = self.total_fll_size() > self.fll_capacity;
            let over_mrl = self.total_mrl_size() > self.mrl_capacity;
            if !over_fll && !over_mrl {
                break;
            }
            // Discard the globally oldest checkpoint, but never the only
            // checkpoint a thread has (keep at least one per thread so a
            // crash is always replayable).
            let victim = self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.logs.len() > 1)
                .min_by_key(|(_, s)| s.logs.first().map(|l| l.fll.header.timestamp))
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let shard = &mut self.shards[i];
                    let evicted = shard.logs.remove(0);
                    shard.raw_bytes -= evicted.fll_raw_bytes + evicted.mrl_raw_bytes;
                    shard.stored_bytes -= evicted.fll_stored_bytes() + evicted.mrl_stored_bytes();
                    shard.instructions -= evicted.fll.instructions;
                    self.total_fll_bits -= evicted.fll.size().bits();
                    self.total_mrl_bits -= evicted.mrl.size().bits();
                    self.evicted_checkpoints += 1;
                    discarded += 1;
                }
                None => break,
            }
        }
        self.probe.add("store_evicted_checkpoints_total", discarded);
    }

    /// Sealed logs currently retained for `thread`, oldest first. The
    /// entries dereference to their [`CheckpointLogs`].
    pub fn thread_logs(&self, thread: ThreadId) -> &[SealedCheckpoint] {
        match self.shard_index(thread) {
            Ok(i) => &self.shards[i].logs,
            Err(_) => &[],
        }
    }

    /// All retained logs of a thread as an owned, contiguous vector (oldest
    /// first), for callers that need a `&[CheckpointLogs]` slice, such as
    /// race analysis.
    pub fn dump_thread(&self, thread: ThreadId) -> Vec<CheckpointLogs> {
        self.thread_logs(thread)
            .iter()
            .map(|s| s.logs.clone())
            .collect()
    }

    /// Serialized-uncompressed bytes retained for `thread` (FLL + MRL).
    pub fn raw_bytes(&self, thread: ThreadId) -> u64 {
        match self.shard_index(thread) {
            Ok(i) => self.shards[i].raw_bytes,
            Err(_) => 0,
        }
    }

    /// Compressed (container) bytes retained for `thread`.
    pub fn stored_bytes(&self, thread: ThreadId) -> u64 {
        match self.shard_index(thread) {
            Ok(i) => self.shards[i].stored_bytes,
            Err(_) => 0,
        }
    }

    /// Threads that have at least one retained checkpoint, in id order.
    pub fn threads(&self) -> Vec<ThreadId> {
        self.shards.iter().map(|s| s.thread).collect()
    }

    /// Number of checkpoints discarded to stay within capacity.
    pub fn evicted_checkpoints(&self) -> u64 {
        self.evicted_checkpoints
    }

    /// Total size of retained FLLs.
    pub fn total_fll_size(&self) -> ByteSize {
        ByteSize::from_bits(self.total_fll_bits)
    }

    /// Total size of retained MRLs.
    pub fn total_mrl_size(&self) -> ByteSize {
        ByteSize::from_bits(self.total_mrl_bits)
    }

    /// Replay window (retained committed instructions) of a thread.
    pub fn replay_window(&self, thread: ThreadId) -> u64 {
        match self.shard_index(thread) {
            Ok(i) => self.shards[i].instructions,
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_types::Word;

    fn recorder(interval: u64) -> ThreadRecorder {
        ThreadRecorder::new(
            BugNetConfig::default().with_checkpoint_interval(interval),
            ProcessId(1),
            ThreadId(0),
        )
    }

    fn arch() -> ArchState {
        ArchState::default()
    }

    #[test]
    fn interval_lifecycle() {
        let mut r = recorder(100);
        assert!(!r.is_recording());
        let cid = r.begin_interval(arch(), Timestamp(1));
        assert_eq!(cid, CheckpointId(0));
        assert!(r.is_recording());
        assert!(!r.record_committed_instruction());
        r.record_load(Addr::new(0x1000), Word::new(5), true);
        r.record_load(Addr::new(0x1000), Word::new(5), false);
        let logs = r
            .end_interval(TerminationCause::Interrupt, &arch())
            .unwrap();
        assert!(!r.is_recording());
        assert_eq!(logs.fll.records(), 1);
        assert_eq!(logs.fll.loads_executed, 2);
        assert_eq!(logs.fll.instructions, 1);
        assert_eq!(logs.fll.termination, TerminationCause::Interrupt);
        // Next interval gets the next C-ID.
        assert_eq!(r.begin_interval(arch(), Timestamp(2)), CheckpointId(1));
    }

    #[test]
    fn sealing_counts_stored_bytes_per_named_columnar_stream() {
        use crate::columnar::{fll_stream_name, mrl_stream_name};
        use bugnet_telemetry::{MetricValue, Registry};
        let mut r = recorder(100);
        r.begin_interval(arch(), Timestamp(1));
        r.record_load(Addr::new(0x1000), Word::new(5), true);
        let logs = r
            .end_interval(TerminationCause::Interrupt, &arch())
            .unwrap();
        let registry = std::sync::Arc::new(Registry::new());
        let mut probe = Probe::new(Some(registry.clone()), None, "t");
        let sealed = SealedCheckpoint::seal_observed(logs, CodecId::Lz77, &mut probe);
        let entries = registry.snapshot().entries;
        let streams = |kind: &str, name: fn(u8) -> &'static str| -> u64 {
            (0..5)
                .map(
                    |i| match entries.get(&format!("columnar_{kind}_{}_bytes_total", name(i))) {
                        Some(MetricValue::Counter(n)) => *n,
                        other => panic!("{kind} stream {i}: {other:?}"),
                    },
                )
                .sum()
        };
        // Every stream is counted under its own name, and the streams are
        // what the two frames store beyond their container headers.
        let stored = sealed.fll_stored_bytes() + sealed.mrl_stored_bytes();
        let counted = streams("fll", fll_stream_name) + streams("mrl", mrl_stream_name);
        assert!(counted > 0 && counted < stored, "{counted} of {stored}");
    }

    #[test]
    fn probe_work_is_per_interval_never_per_load() {
        use bugnet_telemetry::{MetricValue, Registry, Snapshot};
        use bugnet_trace::TraceSession;
        use std::collections::BTreeMap;
        use std::sync::Arc;

        // Records and pushes 8 intervals of `loads` loads each, with one
        // probe over both sinks feeding the recorder and the store.
        fn observe(loads: u64) -> (u64, Snapshot) {
            let registry = Arc::new(Registry::new());
            let session = Arc::new(TraceSession::new("probe-cost"));
            let probe = Probe::new(Some(registry.clone()), Some(session.clone()), "store");
            let mut r = recorder(10_000);
            r.attach_probe(probe.sibling("recorder-t0"));
            let mut store = LogStore::new(&BugNetConfig::default());
            store.attach_probe(probe);
            for ts in 0..8 {
                r.begin_interval(arch(), Timestamp(ts));
                for i in 0..loads {
                    let addr = Addr::new(0x1000 + (i % 512) * 4);
                    r.record_load(addr, Word::new((i % 37) as u32), i % 4 == 0);
                    r.record_committed_instruction();
                }
                let logs = r.end_interval(TerminationCause::IntervalFull, &arch());
                store.push(logs.unwrap());
            }
            (session.emitted_events(), registry.snapshot())
        }
        let histogram_counts = |snap: &Snapshot| -> BTreeMap<String, u64> {
            snap.entries
                .iter()
                .filter_map(|(name, value)| match value {
                    MetricValue::Histogram(h) => Some((name.clone(), h.count)),
                    _ => None,
                })
                .collect()
        };
        let loads_seen = |snap: &Snapshot| snap.entries.get("recorder_loads_seen_total").cloned();

        let (short_events, short) = observe(10);
        let (long_events, long) = observe(10_000);
        // A thousand times the loads, the same observations.
        assert!(short_events > 0);
        assert_eq!(short_events, long_events);
        assert_eq!(histogram_counts(&short), histogram_counts(&long));
        for span in [
            "recorder_interval_ns",
            "store_seal_ns",
            "codec_transform_ns",
            "codec_compress_ns",
        ] {
            assert_eq!(histogram_counts(&long).get(span), Some(&8), "{span}");
        }
        // The per-interval batch still counts every load exactly.
        assert_eq!(loads_seen(&short), Some(MetricValue::Counter(80)));
        assert_eq!(loads_seen(&long), Some(MetricValue::Counter(80_000)));
    }

    #[test]
    fn interval_full_is_reported_at_limit() {
        let mut r = recorder(3);
        r.begin_interval(arch(), Timestamp(0));
        assert!(!r.record_committed_instruction());
        assert!(!r.record_committed_instruction());
        assert!(r.record_committed_instruction());
    }

    #[test]
    fn skip_counts_are_encoded() {
        let mut r = recorder(1000);
        r.begin_interval(arch(), Timestamp(0));
        r.record_load(Addr::new(0x1000), Word::new(1), true);
        for i in 0..5 {
            r.record_load(Addr::new(0x1000), Word::new(1), false);
            let _ = i;
        }
        r.record_load(Addr::new(0x2000), Word::new(2), true);
        let logs = r
            .end_interval(TerminationCause::IntervalFull, &arch())
            .unwrap();
        let records = logs.fll.decode_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].skipped, 0);
        assert_eq!(records[1].skipped, 5);
    }

    #[test]
    fn fault_is_recorded_in_fll() {
        let mut r = recorder(1000);
        r.begin_interval(arch(), Timestamp(0));
        r.record_committed_instruction();
        r.record_committed_instruction();
        r.record_fault(Addr::new(0x400404));
        let logs = r.end_interval(TerminationCause::Fault, &arch()).unwrap();
        let fault = logs.fll.fault.expect("fault trailer");
        assert_eq!(fault.pc, Addr::new(0x400404));
        assert_eq!(fault.icount_in_interval, InstrCount(2));
    }

    #[test]
    fn coherence_replies_build_the_mrl() {
        let mut r = recorder(1000);
        r.begin_interval(arch(), Timestamp(0));
        r.record_committed_instruction();
        r.record_coherence_reply(RemoteExecState {
            thread: ThreadId(1),
            checkpoint: CheckpointId(4),
            instructions: InstrCount(55),
        });
        let logs = r
            .end_interval(TerminationCause::IntervalFull, &arch())
            .unwrap();
        assert_eq!(logs.mrl.entries().len(), 1);
        assert_eq!(logs.mrl.entries()[0].local_ic, InstrCount(1));
        assert_eq!(logs.mrl.entries()[0].remote.thread, ThreadId(1));
        assert_eq!(logs.mrl.header.checkpoint, logs.fll.header.checkpoint);
    }

    #[test]
    fn end_without_begin_is_none() {
        let mut r = recorder(10);
        assert!(r
            .end_interval(TerminationCause::ProgramExit, &arch())
            .is_none());
    }

    #[test]
    #[should_panic(expected = "interval is open")]
    fn double_begin_panics() {
        let mut r = recorder(10);
        r.begin_interval(arch(), Timestamp(0));
        r.begin_interval(arch(), Timestamp(1));
    }

    #[test]
    fn remote_exec_state_reflects_progress() {
        let mut r = recorder(100);
        r.begin_interval(arch(), Timestamp(0));
        r.record_committed_instruction();
        r.record_committed_instruction();
        let s = r.remote_exec_state();
        assert_eq!(s.thread, ThreadId(0));
        assert_eq!(s.checkpoint, CheckpointId(0));
        assert_eq!(s.instructions, InstrCount(2));
    }

    fn small_logs(thread: u32, timestamp: u64, loads: usize) -> CheckpointLogs {
        let mut r = ThreadRecorder::new(
            BugNetConfig::default().with_checkpoint_interval(1000),
            ProcessId(1),
            ThreadId(thread),
        );
        r.begin_interval(arch(), Timestamp(timestamp));
        for i in 0..loads {
            r.record_load(Addr::new(0x1000 + i as u64 * 4), Word::new(i as u32), true);
            r.record_committed_instruction();
        }
        r.end_interval(TerminationCause::IntervalFull, &arch())
            .unwrap()
    }

    #[test]
    fn log_store_tracks_replay_window() {
        let cfg = BugNetConfig::default();
        let mut store = LogStore::new(&cfg);
        store.push(small_logs(0, 1, 10));
        store.push(small_logs(0, 2, 20));
        assert_eq!(store.replay_window(ThreadId(0)), 30);
        assert_eq!(store.thread_logs(ThreadId(0)).len(), 2);
        assert_eq!(store.threads(), vec![ThreadId(0)]);
        assert_eq!(store.replay_window(ThreadId(9)), 0);
    }

    #[test]
    fn log_store_evicts_oldest_when_full() {
        // Capacity chosen so only a couple of small logs fit.
        let cfg = BugNetConfig {
            fll_region: ByteSize::from_bytes(600),
            ..BugNetConfig::default()
        };
        let mut store = LogStore::new(&cfg);
        for t in 0..6u64 {
            store.push(small_logs(0, t, 50));
        }
        assert!(store.evicted_checkpoints() > 0);
        assert!(
            store.total_fll_size() <= ByteSize::from_bytes(600)
                || store.thread_logs(ThreadId(0)).len() == 1
        );
        // The newest checkpoint is always retained.
        let retained = store.thread_logs(ThreadId(0));
        assert_eq!(retained.last().unwrap().fll.header.timestamp, Timestamp(5));
    }

    #[test]
    fn sealing_round_trips_through_the_columnar_blob() {
        let logs = small_logs(0, 1, 40);
        let sealed = SealedCheckpoint::seal(logs.clone(), CodecId::Lz77);
        assert!(sealed.fll_stored_bytes() > 0);
        for info in streams_info(&sealed.fll_frame).unwrap() {
            assert_eq!(info.codec, CodecId::Lz77);
        }
        let decoded = crate::columnar::decode_fll_columnar(&sealed.fll_frame).unwrap();
        assert_eq!(decoded, logs.fll);
        let decoded_mrl = crate::columnar::decode_mrl_columnar(&sealed.mrl_frame).unwrap();
        assert_eq!(decoded_mrl, logs.mrl);
        // Raw-byte accounting keeps the row-serialized baseline.
        assert_eq!(sealed.fll_raw_bytes, logs.fll.to_bytes().len() as u64);
        assert_eq!(sealed.mrl_raw_bytes, logs.mrl.to_bytes().len() as u64);
        // Deref keeps structured-log readers working on sealed entries.
        assert_eq!(sealed.fll, logs.fll);
    }

    #[test]
    fn store_tracks_raw_and_stored_bytes_per_codec() {
        let cfg = BugNetConfig::default();
        let mut lz = LogStore::with_codec(&cfg, CodecId::Lz77);
        let mut identity = LogStore::with_codec(&cfg, CodecId::Identity);
        assert_eq!(LogStore::new(&cfg).codec(), CodecId::Lz77);
        lz.push(small_logs(0, 1, 200));
        identity.push(small_logs(0, 1, 200));
        assert_eq!(lz.raw_bytes(ThreadId(0)), identity.raw_bytes(ThreadId(0)));
        assert!(lz.stored_bytes(ThreadId(0)) < identity.stored_bytes(ThreadId(0)));
        assert!(lz.thread_logs(ThreadId(0))[0].stored_ratio() > 1.0);
        assert_eq!(lz.raw_bytes(ThreadId(7)), 0);
        assert_eq!(lz.stored_bytes(ThreadId(7)), 0);
    }

    fn interval_digests(store: &LogStore) -> Vec<(ThreadId, Vec<Vec<u8>>)> {
        store
            .threads()
            .into_iter()
            .map(|t| {
                let frames = store
                    .thread_logs(t)
                    .iter()
                    .map(|s| s.fll_frame.clone())
                    .collect();
                (t, frames)
            })
            .collect()
    }

    #[test]
    fn thread_handles_match_serial_store_content() {
        let cfg = BugNetConfig::default();
        let mut serial = LogStore::with_codec(&cfg, CodecId::Lz77);
        let mut sharded = LogStore::with_shards(&cfg, CodecId::Lz77, 4);
        assert_eq!(sharded.shard_count(), 4);

        for t in 0..3u32 {
            for ts in 0..5u64 {
                serial.push(small_logs(t, ts, 20 + t as usize));
            }
        }

        let handles: Vec<ThreadStoreHandle> = (0..3u32)
            .map(|t| sharded.thread_handle(ThreadId(t)))
            .collect();
        std::thread::scope(|scope| {
            for mut h in handles {
                scope.spawn(move || {
                    let t = h.thread().0;
                    for ts in 0..5u64 {
                        h.push(small_logs(t, ts, 20 + t as usize));
                    }
                });
            }
        });
        let ingested = sharded.reconcile();
        assert_eq!(ingested, 15);
        assert_eq!(sharded.reconcile(), 0);

        assert_eq!(interval_digests(&serial), interval_digests(&sharded));
        assert_eq!(serial.total_fll_size(), sharded.total_fll_size());
    }

    #[test]
    fn handle_batches_until_flush_and_drop_flushes() {
        let cfg = BugNetConfig::default();
        let mut store = LogStore::with_shards(&cfg, CodecId::Identity, 2);
        let mut h = store.thread_handle(ThreadId(0));
        h.push(small_logs(0, 1, 5));
        h.push(small_logs(0, 2, 5));
        assert_eq!(h.pending(), 2);
        // Nothing visible until the handle flushes and the store reconciles.
        assert_eq!(store.reconcile(), 0);
        assert!(store.thread_logs(ThreadId(0)).is_empty());
        h.flush();
        assert_eq!(h.pending(), 0);
        assert_eq!(store.reconcile(), 2);

        h.push(small_logs(0, 3, 5));
        drop(h);
        assert_eq!(store.reconcile(), 1);
        assert_eq!(store.thread_logs(ThreadId(0)).len(), 3);
        // Per-handle FIFO: timestamps arrive in push order.
        let ts: Vec<u64> = store
            .thread_logs(ThreadId(0))
            .iter()
            .map(|s| s.fll.header.timestamp.0)
            .collect();
        assert_eq!(ts, vec![1, 2, 3]);
    }

    #[test]
    fn handle_auto_flushes_full_batches() {
        let cfg = BugNetConfig::default();
        let mut store = LogStore::with_shards(&cfg, CodecId::Identity, 1);
        let mut h = store.thread_handle(ThreadId(0));
        for ts in 0..super::HANDOFF_BATCH as u64 {
            h.push(small_logs(0, ts, 2));
        }
        // The full batch was handed off without an explicit flush.
        assert_eq!(h.pending(), 0);
        assert_eq!(store.reconcile(), super::HANDOFF_BATCH);
    }

    #[test]
    fn handle_outliving_store_discards_silently() {
        let cfg = BugNetConfig::default();
        let mut store = LogStore::with_shards(&cfg, CodecId::Identity, 1);
        let mut h = store.thread_handle(ThreadId(0));
        h.push(small_logs(0, 1, 2));
        drop(store);
        h.flush(); // must not panic
        drop(h); // drop-flush on a dead store must not panic either
    }

    #[test]
    fn reconcile_evicts_after_ingesting_everything() {
        // Capacity that holds ~2 small logs; pushing 6 through a handle must
        // evict, and the newest checkpoint must survive (same policy as the
        // serial path).
        let cfg = BugNetConfig {
            fll_region: ByteSize::from_bytes(600),
            ..BugNetConfig::default()
        };
        let mut store = LogStore::with_shards(&cfg, CodecId::Lz77, 2);
        let mut h = store.thread_handle(ThreadId(0));
        for ts in 0..6u64 {
            h.push(small_logs(0, ts, 50));
        }
        h.flush();
        store.reconcile();
        assert!(store.evicted_checkpoints() > 0);
        let retained = store.thread_logs(ThreadId(0));
        assert_eq!(retained.last().unwrap().fll.header.timestamp, Timestamp(5));
    }

    #[test]
    fn shard_count_is_a_resource_knob_not_a_semantic_one() {
        let cfg = BugNetConfig::default();
        let mut digests = Vec::new();
        for shards in [1usize, 2, 8, 13] {
            let mut store = LogStore::with_shards(&cfg, CodecId::Lz77, shards);
            let handles: Vec<ThreadStoreHandle> = (0..4u32)
                .map(|t| store.thread_handle(ThreadId(t)))
                .collect();
            std::thread::scope(|scope| {
                for mut h in handles {
                    scope.spawn(move || {
                        let t = h.thread().0;
                        for ts in 0..7u64 {
                            h.push(small_logs(t, ts, 10 + t as usize));
                        }
                    });
                }
            });
            store.reconcile();
            digests.push(interval_digests(&store));
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn log_store_never_drops_a_threads_only_checkpoint() {
        let cfg = BugNetConfig {
            fll_region: ByteSize::from_bytes(100),
            ..BugNetConfig::default()
        };
        let mut store = LogStore::new(&cfg);
        store.push(small_logs(0, 1, 50));
        store.push(small_logs(1, 2, 50));
        assert_eq!(store.thread_logs(ThreadId(0)).len(), 1);
        assert_eq!(store.thread_logs(ThreadId(1)).len(), 1);
    }
}
