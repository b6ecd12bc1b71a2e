//! Always-on telemetry for the BugNet recording/dump/replay pipeline.
//!
//! The paper's deployment story — recording left on in production on
//! millions of machines, crash dumps shipped to a WER-style backend —
//! requires the recorder to be observable while it runs: overhead, queue
//! depths, eviction pressure and I/O latency at the moment things go
//! wrong. This crate is that layer, kept dependency-free so every other
//! crate (including `bugnet_core`'s hot path) can link it:
//!
//! * [`Counter`] — a monotonic counter: one relaxed atomic word.
//! * [`Gauge`] — an instantaneous signed level (queue depth, in-flight
//!   intervals) with a high-watermark.
//! * [`Histogram`] — fixed log2-bucket latency distribution recording
//!   nanoseconds; quantiles (p50/p95/p99) are interpolated within the
//!   matching power-of-two bucket, and exact min/max/sum ride along.
//! * [`Probe`] — the one observation seam: a per-thread handle whose
//!   `span` call feeds a latency histogram *and* the `bugnet_trace`
//!   timeline from one clock reading, and through which counters, gauges
//!   and value histograms reach the registry.
//! * [`Registry`] — named-metric registry shared `Arc`-style between the
//!   sim, the CLI and the bench harness; [`Registry::snapshot`] freezes a
//!   consistent-enough view with delta semantics, JSON and
//!   Prometheus-text exposition, and a compact binary codec so a
//!   snapshot can travel *inside a crash-dump manifest*.
//!
//! Instrumented layers batch their hot-path counts (the recorder adds
//! per-interval totals at interval end, not per load); the recorder test
//! `probe_work_is_per_interval_never_per_load` pins that.

mod hist;
mod probe;
mod snapshot;

pub use hist::{Histogram, HIST_BUCKETS};
pub use probe::Probe;
pub use snapshot::{HistSnapshot, MetricValue, Snapshot, SnapshotDecodeError, SnapshotJsonError};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter: one relaxed atomic word. Instrumented layers add
/// per-interval totals, so threads rarely meet on it; reads may race with
/// writers, which is fine for monotonic telemetry.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, bytes in flight) with a
/// high-watermark that survives the level dropping back down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level (and raises the high-watermark if exceeded).
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (and raises the high-watermark).
    pub fn add(&self, delta: i64) {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(new, Ordering::Relaxed);
    }

    /// The current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever set.
    pub fn high_watermark(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// A named metric held by a [`Registry`].
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named-metric registry. One registry is shared (via `Arc`) by every
/// instrumented layer of a run; each [`Probe`] looks a name up once and
/// caches the returned `Arc<Counter>` / `Arc<Histogram>` handle, so the
/// registry lock is never on the hot path.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("telemetry registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("telemetry registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("telemetry registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Freezes the current value of every registered metric. Individual
    /// metric reads are relaxed (writers may race), which telemetry
    /// tolerates; the *set* of metrics is consistent.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("telemetry registry poisoned");
        let entries = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge {
                        value: g.value(),
                        max: g.high_watermark(),
                    },
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_reads_back() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn concurrent_counter_is_exact_under_8_threads() {
        let c = Arc::new(Counter::new());
        let per_thread = 100_000u64;
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 8 * per_thread);
    }

    #[test]
    fn gauge_tracks_level_and_high_watermark() {
        let g = Gauge::new();
        g.set(5);
        g.add(3);
        g.add(-6);
        assert_eq!(g.value(), 2);
        assert_eq!(g.high_watermark(), 8);
    }

    #[test]
    fn registry_returns_the_same_metric_for_the_same_name() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(7);
        assert_eq!(b.value(), 7);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.counter("x_total");
        r.gauge("x_total");
    }

    #[test]
    fn snapshot_captures_every_metric_kind() {
        let r = Registry::new();
        r.counter("a_total").add(3);
        r.gauge("b_depth").set(-2);
        r.histogram("c_ns").record(1000);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(snap.entries["a_total"], MetricValue::Counter(3));
        assert!(matches!(
            snap.entries["b_depth"],
            MetricValue::Gauge { value: -2, .. }
        ));
        match &snap.entries["c_ns"] {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
