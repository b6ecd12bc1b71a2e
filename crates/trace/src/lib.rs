//! Execution tracing for the BugNet pipeline: spans, instants and counters
//! written to bounded per-thread ring buffers and exported as Chrome
//! trace-event JSON (loadable in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`).
//!
//! Where `bugnet_telemetry` aggregates (counters and histograms answer "how
//! much / how slow overall"), this crate keeps *time-ordered* events so a
//! recording or replay run can be inspected on a timeline. Each
//! [`ThreadTracer`] owns a bounded ring behind a mutex that overwrites its
//! oldest events under pressure and counts what it dropped; a snapshot taken
//! while it writes is still a whole, gap-free window. Instrumented layers
//! emit once per interval, seal or I/O operation, never per load. They do
//! not time spans here themselves: `bugnet_telemetry::Probe` stamps each
//! span once and feeds both its latency histogram and this timeline from
//! that one reading.
//!
//! # Usage
//!
//! ```
//! use std::sync::Arc;
//! use bugnet_trace::{clock, TraceEvent, TraceSession};
//!
//! let session = Arc::new(TraceSession::new("bugnet"));
//! let mut tracer = session.thread("recorder-t0");
//! let start = clock::monotonic_ns();
//! // ... do the work being traced ...
//! let dur = clock::monotonic_ns() - start;
//! tracer.emit(TraceEvent::span("interval", "recorder", start, dur));
//! let json = session.to_chrome_json();
//! assert!(json.contains("\"interval\""));
//! ```
//!
//! Span names are short snake_case verbs/nouns; the `cat` field names the
//! emitting subsystem (`recorder`, `store`, `codec`, `flush`, `io`, `replay`,
//! `profile`) and is what Perfetto filters on.

pub mod chrome;
pub mod clock;
pub mod json;
mod ring;

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ring::Ring;

/// Default per-thread ring capacity, in events (at most 1.25 MiB per traced
/// thread, allocated as events arrive).
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// What one [`TraceEvent`] marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: work that started at the event timestamp and ran
    /// `dur_ns`. Exported as a self-contained `X` complete event, so a span
    /// lost to ring overwrite never orphans a begin/end pair.
    Span {
        /// Span length in nanoseconds.
        dur_ns: u64,
    },
    /// A point in time (exported as a thread-scoped `i` event).
    Instant,
    /// A sampled counter value (exported as a `C` event).
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// One timeline event. `Copy`, so a snapshot is a plain copy of the ring;
/// names and categories are `&'static str` because every emitting site names
/// its events statically (thread *names* are dynamic and live on the session
/// instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (what the timeline slice is labeled).
    pub name: &'static str,
    /// Subsystem category (`recorder`, `store`, `flush`, `io`, `replay`, ...).
    pub cat: &'static str,
    /// Start timestamp, nanoseconds on the [`clock`] timeline (or a virtual
    /// timebase, e.g. the profiler's instruction counts).
    pub ts_ns: u64,
    /// Span, instant or counter.
    pub kind: EventKind,
    /// Optional argument key (empty = no argument). Ignored for counters,
    /// which always carry their value.
    pub arg_name: &'static str,
    /// Argument value for `arg_name`.
    pub arg: u64,
}

impl TraceEvent {
    /// A span covering `[ts_ns, ts_ns + dur_ns)`.
    pub fn span(name: &'static str, cat: &'static str, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ts_ns,
            kind: EventKind::Span { dur_ns },
            arg_name: "",
            arg: 0,
        }
    }

    /// An instant at `ts_ns`.
    pub fn instant(name: &'static str, cat: &'static str, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ts_ns,
            kind: EventKind::Instant,
            arg_name: "",
            arg: 0,
        }
    }

    /// A counter sample at `ts_ns`.
    pub fn counter(name: &'static str, cat: &'static str, ts_ns: u64, value: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat,
            ts_ns,
            kind: EventKind::Counter { value },
            arg_name: "",
            arg: 0,
        }
    }

    /// The same event with one `key: value` argument attached.
    pub fn with_arg(mut self, key: &'static str, value: u64) -> TraceEvent {
        self.arg_name = key;
        self.arg = value;
        self
    }
}

/// The per-thread writing end: owns one ring inside a [`TraceSession`].
///
/// Deliberately not `Clone`: one tracer is one timeline track, so its events
/// stay in emission order. Mint one tracer per logical thread via
/// [`TraceSession::thread`]; moving it across threads is fine (`Send`).
#[derive(Debug)]
pub struct ThreadTracer {
    ring: Arc<Ring>,
}

impl ThreadTracer {
    /// Appends a fully-formed event, stamped on the [`clock`] timeline or
    /// on a virtual timebase (the dump profiler stamps instruction counts,
    /// not wall time).
    pub fn emit(&mut self, event: TraceEvent) {
        self.ring.push(event);
    }

    /// Events this tracer lost to overwrite-oldest so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// A trace being collected: the registry of per-thread rings and the export
/// entry points. Shared as `Arc<TraceSession>` across every instrumented
/// layer of one run (recorder, store, flush pipeline, dump I/O, replay), so
/// all their events land on a single timeline.
#[derive(Debug)]
pub struct TraceSession {
    process_name: String,
    capacity: usize,
    next_tid: AtomicU64,
    threads: Mutex<Vec<(u64, String, Arc<Ring>)>>,
}

impl TraceSession {
    /// A session with the default per-thread ring capacity.
    pub fn new(process_name: impl Into<String>) -> TraceSession {
        TraceSession::with_capacity(process_name, DEFAULT_RING_CAPACITY)
    }

    /// A session whose per-thread rings retain `capacity` events each.
    pub fn with_capacity(process_name: impl Into<String>, capacity: usize) -> TraceSession {
        TraceSession {
            process_name: process_name.into(),
            capacity: capacity.max(1),
            next_tid: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Registers a new timeline track and returns its writing end. `name` is
    /// the track label in the viewer ("recorder-t0", "flush-worker-1", ...).
    pub fn thread(&self, name: impl Into<String>) -> ThreadTracer {
        let ring = Arc::new(Ring::new(self.capacity));
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        self.threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((tid, name.into(), Arc::clone(&ring)));
        ThreadTracer { ring }
    }

    /// The process label on the exported timeline.
    pub fn process_name(&self) -> &str {
        &self.process_name
    }

    /// Number of timeline tracks minted so far.
    pub fn thread_count(&self) -> usize {
        self.threads.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Total events lost to overwrite-oldest across all tracks.
    pub fn dropped_events(&self) -> u64 {
        let threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        threads.iter().map(|(_, _, ring)| ring.dropped()).sum()
    }

    /// Total events ever emitted across all tracks (retained or dropped).
    pub fn emitted_events(&self) -> u64 {
        let threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        threads.iter().map(|(_, _, ring)| ring.pushed()).sum()
    }

    /// Oldest-first copy of every track's retained events:
    /// `(tid, track name, events)`. Safe to call while writers are active:
    /// each track's copy is a whole window of its newest events.
    pub fn snapshot(&self) -> Vec<(u64, String, Vec<TraceEvent>)> {
        let threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        threads
            .iter()
            .map(|(tid, name, ring)| (*tid, name.clone(), ring.snapshot()))
            .collect()
    }

    /// Renders the whole session as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        chrome::render(&self.process_name, &self.snapshot(), self.dropped_events())
    }

    /// Writes [`TraceSession::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Any error from [`std::fs::write`].
    pub fn write_chrome_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instants(tracer: &mut ThreadTracer, n: u64) {
        for i in 0..n {
            tracer.emit(TraceEvent::instant("tick", "test", i).with_arg("i", i));
        }
    }

    #[test]
    fn wraparound_keeps_newest_events_in_order_and_counts_drops() {
        let session = TraceSession::with_capacity("test", 8);
        let mut tracer = session.thread("w");
        instants(&mut tracer, 20);
        assert_eq!(tracer.dropped(), 12);
        assert_eq!(session.dropped_events(), 12);
        assert_eq!(session.emitted_events(), 20);
        let snapshot = session.snapshot();
        let events = &snapshot[0].2;
        // Oldest retained first: exactly events 12..20, in emission order.
        assert_eq!(events.len(), 8);
        let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn no_drops_below_capacity() {
        let session = TraceSession::with_capacity("test", 8);
        let mut tracer = session.thread("w");
        instants(&mut tracer, 8);
        assert_eq!(tracer.dropped(), 0);
        assert_eq!(session.snapshot()[0].2.len(), 8);
    }

    #[test]
    fn eight_threads_emit_concurrently_with_monotone_timestamps() {
        let session = Arc::new(TraceSession::new("test"));
        let mut handles = Vec::new();
        for t in 0..8 {
            let mut tracer = session.thread(format!("worker-{t}"));
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    let start = clock::monotonic_ns();
                    let dur = clock::monotonic_ns() - start;
                    tracer.emit(TraceEvent::span("unit", "test", start, dur));
                }
                tracer.emit(TraceEvent::instant("done", "test", clock::monotonic_ns()));
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let snapshot = session.snapshot();
        assert_eq!(snapshot.len(), 8);
        for (tid, name, events) in &snapshot {
            assert_eq!(events.len(), 1_001, "track {tid} ({name})");
            // Each thread's events were emitted in timestamp order.
            for pair in events.windows(2) {
                assert!(pair[0].ts_ns <= pair[1].ts_ns, "{name}: out-of-order");
            }
        }
        assert_eq!(session.dropped_events(), 0);
        // And the concurrent session still exports valid JSON.
        let parsed = json::parse(&session.to_chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1 + 8 + 8 * 1_001);
    }

    #[test]
    fn snapshot_during_concurrent_writes_never_tears() {
        let session = Arc::new(TraceSession::with_capacity("test", 64));
        let mut tracer = session.thread("hot");
        // Seed the ring so the reader sees events no matter how the
        // scheduler interleaves the two threads.
        instants(&mut tracer, 100);
        let reader = {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200 {
                    for (_, _, events) in session.snapshot() {
                        seen += events.len();
                        for e in &events {
                            // A torn read would mix the two payload variants.
                            assert_eq!(e.name, "tick");
                            assert_eq!(e.arg_name, "i");
                        }
                    }
                }
                seen
            })
        };
        for round in 0..500 {
            instants(&mut tracer, 100);
            std::hint::black_box(round);
        }
        assert!(reader.join().unwrap() > 0);
    }

    #[test]
    fn concurrent_snapshots_are_whole_gap_free_windows() {
        let session = Arc::new(TraceSession::with_capacity("test", 64));
        let mut tracer = session.thread("hot");
        instants(&mut tracer, 100);
        let reader = {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                (0..2_000)
                    .filter(|_| {
                        let events = &session.snapshot()[0].2;
                        let gap = events.windows(2).any(|p| p[1].arg != p[0].arg + 1);
                        events.len() != 64 || gap
                    })
                    .count()
            })
        };
        let mut next = 100;
        while !reader.is_finished() {
            tracer.emit(TraceEvent::instant("tick", "test", next).with_arg("i", next));
            next += 1;
        }
        let broken = reader.join().unwrap();
        assert_eq!(broken, 0, "{broken} snapshots were short or had a gap");
    }

    #[test]
    fn export_writes_a_loadable_file() {
        let session = TraceSession::new("bugnet");
        let mut tracer = session.thread("t");
        tracer.emit(TraceEvent::counter("queue_depth", "flush", 0, 3));
        let path = std::env::temp_dir().join(format!("bugnet-trace-{}.json", std::process::id()));
        session.write_chrome_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&text).unwrap();
        assert!(parsed.get("traceEvents").is_some());
        std::fs::remove_file(&path).unwrap();
    }
}
