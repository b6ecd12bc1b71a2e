//! The parallel interval-flush pipeline.
//!
//! Closing a checkpoint interval produces a [`CheckpointLogs`] that must be
//! *sealed* — serialized and run through the back-end compressor — before it
//! lands in the [`LogStore`]. Sealing is the CPU-heavy part of a flush and a
//! pure function of `(logs, codec)`, so this module moves it off the machine
//! loop onto a hand-rolled pool of worker threads (no external dependencies
//! are available offline).
//!
//! A recording machine runs one worker by default
//! (`RecordingOptions::flush_workers`), and builds the pipeline, spawning
//! its workers, when an interval closes after the run has committed at
//! least one checkpoint interval's worth of instructions. Intervals that
//! close before that are sealed on the machine thread, so a run shorter
//! than one interval starts no thread. From then on every interval goes
//! through the pipeline, behind the ones already sealed into the store, so
//! each thread's intervals stay in order across the switch:
//!
//! ```text
//! machine loop ── submit(store, logs) ──► worker = tid % N   (seal: serialize+LZ)
//!       ▲                                      │ ThreadStoreHandle
//!       │                                      ▼ (batched mpsc lane)
//!       └────── drain: store.reconcile() ◄── store shard lanes
//! ```
//!
//! Each simulated thread is pinned to one worker (`tid % workers`), and every
//! worker writes through that thread's [`ThreadStoreHandle`]. Both hops —
//! machine→worker and worker→store-lane — are FIFO per sender, so **per-thread
//! order is preserved end to end** with no reorder buffer at all.
//! **Cross-thread order is relaxed**: the store ingests whatever has arrived,
//! and an earlier global-order reorder barrier (release strictly in
//! submission order) has been removed — it serialized the drain side and was
//! the main obstacle to multi-core scaling. Replay only needs per-thread
//! order plus the MRL for races, and [`LogStore::reconcile`] ingests
//! everything before applying capacity eviction, so the reconciled store
//! content — and therefore the dump written from it — is a pure function of
//! what each thread recorded, independent of worker count and scheduling.
//! Absent eviction, dumps are byte-identical to serial flushing (dumps walk
//! threads in id order); with eviction they remain digest-equal on replay.

use std::sync::mpsc;
use std::thread::JoinHandle;

use bugnet_compress::CodecId;
use bugnet_core::recorder::{CheckpointLogs, LogStore, ThreadStoreHandle};
use bugnet_telemetry::Probe;
use bugnet_types::ThreadId;

/// Work items routed to the sealing workers. Adoption of a thread's store
/// handle always precedes that thread's first `Seal` on the same channel, so
/// FIFO delivery makes the handle available in time.
enum Job {
    /// Take ownership of a thread's write handle (first submission).
    Adopt(ThreadStoreHandle),
    /// Seal an interval and push it through the owning thread's handle.
    /// Boxed: `CheckpointLogs` is large and `Adopt`/`Barrier` are small.
    Seal(Box<CheckpointLogs>),
    /// Flush every owned handle to the store lanes, then acknowledge.
    Barrier(mpsc::Sender<()>),
}

/// A pool of background threads sealing finished checkpoint intervals and
/// writing them through per-thread [`ThreadStoreHandle`]s.
///
/// See the module docs for the ordering guarantees. The pipeline is owned by
/// the machine; dropping it shuts the workers down (each worker's handles
/// flush their residual batches on drop).
#[derive(Debug)]
pub struct FlushPipeline {
    codec: CodecId,
    senders: Vec<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Threads whose store handle has already been minted and adopted.
    adopted: Vec<ThreadId>,
    /// Intervals handed to `submit`.
    submitted: u64,
    /// Intervals the store has reconciled through `drain_ready`/`flush`.
    reconciled: u64,
    /// The owner's probe: the `flush_*` flow metrics (`in_flight` gauge,
    /// submitted/reconciled and per-worker submitted counters) and the
    /// `flush`/`barrier` span.
    probe: Probe,
}

impl FlushPipeline {
    /// Spawns `workers` sealing threads (clamped to at least one) that seal
    /// with `codec` (which must be the store's codec — the machine wires
    /// both from one knob). `probe` observes the pipeline's flow on the
    /// owner's side; each worker starts with a `flush-worker-{i}` sibling
    /// that times its `seal_job`s. Seal latency itself is observed by the
    /// store handles the workers write through.
    pub fn new(workers: usize, codec: CodecId, probe: Probe) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            let worker_probe = probe.sibling(format_args!("flush-worker-{i}"));
            let handle = std::thread::Builder::new()
                .name(format!("bugnet-flush-{i}"))
                .spawn(move || Self::worker_loop(rx, worker_probe))
                .expect("spawning a flush worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        FlushPipeline {
            codec,
            senders,
            workers: handles,
            adopted: Vec::new(),
            submitted: 0,
            reconciled: 0,
            probe,
        }
    }

    fn worker_loop(rx: mpsc::Receiver<Job>, mut probe: Probe) {
        let mut owned: Vec<ThreadStoreHandle> = Vec::new();
        while let Ok(job) = rx.recv() {
            match job {
                Job::Adopt(handle) => owned.push(handle),
                Job::Seal(logs) => {
                    let start = probe.now();
                    let tid = logs.fll.header.thread;
                    let handle = owned
                        .iter_mut()
                        .find(|h| h.thread() == tid)
                        .expect("interval submitted before its handle was adopted");
                    handle.push(*logs);
                    probe.span("flush", "seal_job", start, None);
                }
                Job::Barrier(ack) => {
                    for handle in owned.iter_mut() {
                        handle.flush();
                    }
                    let _ = ack.send(());
                }
            }
        }
        // Channel closed: `owned` drops here, flushing residual batches into
        // the store lanes (or discarding them if the store is already gone).
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Codec the workers seal with.
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Intervals submitted but not yet reconciled into a store.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.reconciled
    }

    /// Hands a finished interval to its thread's worker (`tid % workers` —
    /// per-thread affinity is what preserves per-thread order without a
    /// reorder buffer). The first submission for a thread mints that
    /// thread's [`ThreadStoreHandle`] from `store` and moves it onto the
    /// worker ahead of the interval.
    pub fn submit(&mut self, store: &mut LogStore, logs: CheckpointLogs) {
        let tid = logs.fll.header.thread;
        let worker = (tid.0 as usize) % self.senders.len();
        if !self.adopted.contains(&tid) {
            let handle = store.thread_handle(tid);
            self.senders[worker]
                .send(Job::Adopt(handle))
                .expect("flush workers outlive the pipeline");
            self.adopted.push(tid);
        }
        self.submitted += 1;
        self.senders[worker]
            .send(Job::Seal(Box::new(logs)))
            .expect("flush workers outlive the pipeline");
        let in_flight = self.in_flight() as i64;
        let probe = &mut self.probe;
        probe.add("flush_submitted_total", 1);
        probe.add_nth("flush_worker{}_submitted_total", worker, 1);
        probe.set("flush_in_flight", in_flight);
    }

    /// Non-blocking drain: reconciles whatever sealed batches the workers
    /// have already handed to the store's lanes. Called from the machine
    /// loop so the store tracks the execution closely without stalling it;
    /// with no interval in flight it returns without polling the lanes.
    pub fn drain_ready(&mut self, store: &mut LogStore) {
        if self.in_flight() == 0 {
            return;
        }
        let drained = store.reconcile() as u64;
        if drained > 0 {
            self.reconciled += drained;
            let in_flight = self.in_flight() as i64;
            self.probe.add("flush_reconciled_total", drained);
            self.probe.set("flush_in_flight", in_flight);
        }
    }

    /// Blocking barrier: waits until every submitted interval has been
    /// sealed, handed off, and reconciled into `store`. Called before
    /// anything reads the store (end of a run, crash-dump writing).
    pub fn flush(&mut self, store: &mut LogStore) {
        let start = self.probe.now();
        let (ack_tx, ack_rx) = mpsc::channel();
        for sender in &self.senders {
            sender
                .send(Job::Barrier(ack_tx.clone()))
                .expect("flush workers outlive the pipeline");
        }
        drop(ack_tx);
        for _ in 0..self.senders.len() {
            ack_rx.recv().expect("flush workers outlive the pipeline");
        }
        self.drain_ready(store);
        self.probe.span("flush", "barrier", start, None);
        debug_assert_eq!(
            self.submitted, self.reconciled,
            "flush barrier lost intervals"
        );
    }
}

impl Drop for FlushPipeline {
    fn drop(&mut self) {
        // Closing the submission channels ends the worker loops; join so no
        // worker outlives the machine that owns the pipeline.
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_core::fll::TerminationCause;
    use bugnet_core::recorder::ThreadRecorder;
    use bugnet_cpu::ArchState;
    use bugnet_types::{Addr, BugNetConfig, ProcessId, ThreadId, Timestamp, Word};

    fn logs(thread: u32, timestamp: u64, loads: u32) -> CheckpointLogs {
        let mut r = ThreadRecorder::new(
            BugNetConfig::default().with_checkpoint_interval(1_000),
            ProcessId(1),
            ThreadId(thread),
        );
        r.begin_interval(ArchState::default(), Timestamp(timestamp));
        for i in 0..loads {
            r.record_load(Addr::new(0x1000 + u64::from(i) * 4), Word::new(i % 7), true);
            r.record_committed_instruction();
        }
        r.end_interval(TerminationCause::IntervalFull, &ArchState::default())
            .unwrap()
    }

    #[test]
    fn parallel_flush_matches_serial_store_state() {
        let cfg = BugNetConfig::default();
        let mut serial = LogStore::with_codec(&cfg, CodecId::Lz77);
        let mut parallel = LogStore::with_codec(&cfg, CodecId::Lz77);
        let mut pipeline = FlushPipeline::new(4, CodecId::Lz77, Probe::off());
        for i in 0..40u64 {
            let l = logs((i % 3) as u32, i, 20 + (i as u32 % 50));
            serial.push(l.clone());
            pipeline.submit(&mut parallel, l);
        }
        pipeline.flush(&mut parallel);
        assert_eq!(pipeline.in_flight(), 0);
        for t in serial.threads() {
            assert_eq!(serial.thread_logs(t), parallel.thread_logs(t));
            assert_eq!(serial.stored_bytes(t), parallel.stored_bytes(t));
        }
        assert_eq!(serial.threads(), parallel.threads());
    }

    #[test]
    fn drain_ready_never_blocks_and_preserves_per_thread_order() {
        let cfg = BugNetConfig::default();
        let mut store = LogStore::with_codec(&cfg, CodecId::Lz77);
        let mut pipeline = FlushPipeline::new(2, CodecId::Lz77, Probe::off());
        for i in 0..10u64 {
            pipeline.submit(&mut store, logs(0, i, 10));
            pipeline.drain_ready(&mut store);
        }
        pipeline.flush(&mut store);
        let retained = store.thread_logs(ThreadId(0));
        assert_eq!(retained.len(), 10);
        for (i, entry) in retained.iter().enumerate() {
            assert_eq!(entry.fll.header.timestamp, Timestamp(i as u64));
        }
    }

    #[test]
    fn more_threads_than_workers_share_workers_without_mixing_order() {
        let cfg = BugNetConfig::default();
        let mut store = LogStore::with_codec(&cfg, CodecId::Lz77);
        let mut pipeline = FlushPipeline::new(2, CodecId::Lz77, Probe::off());
        // 5 threads onto 2 workers: per-thread order must still hold.
        for ts in 0..8u64 {
            for t in 0..5u32 {
                pipeline.submit(&mut store, logs(t, ts, 5 + t));
            }
        }
        pipeline.flush(&mut store);
        assert_eq!(pipeline.in_flight(), 0);
        for t in 0..5u32 {
            let retained = store.thread_logs(ThreadId(t));
            assert_eq!(retained.len(), 8);
            for (i, entry) in retained.iter().enumerate() {
                assert_eq!(entry.fll.header.timestamp, Timestamp(i as u64));
            }
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pipeline = FlushPipeline::new(0, CodecId::Identity, Probe::off());
        assert_eq!(pipeline.workers(), 1);
        assert_eq!(pipeline.codec(), CodecId::Identity);
    }
}
