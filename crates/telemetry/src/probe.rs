//! The one observation seam: a per-thread [`Probe`] that feeds the metrics
//! [`Registry`] and the `bugnet_trace` timeline from one span.

use std::fmt;
use std::sync::Arc;

use bugnet_trace::{clock, ThreadTracer, TraceEvent, TraceSession};

use crate::{Counter, Gauge, Histogram, Registry};

/// What a cached metric handle is keyed by. Names are static, so the hot
/// path compares keys and formats a name only on its first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    /// The latency histogram `{cat}_{name}_ns` of a span.
    Span(&'static str, &'static str),
    /// A metric named verbatim.
    Name(&'static str),
    /// A metric whose name template has its `{}` filled with an index.
    Nth(&'static str, usize),
}

impl Key {
    fn resolve(self) -> String {
        match self {
            Key::Span(cat, name) => format!("{cat}_{name}_ns"),
            Key::Name(name) => name.to_string(),
            Key::Nth(template, i) => template.replacen("{}", &i.to_string(), 1),
        }
    }
}

/// The handle cached under `key`, registered through `register` on first use.
fn cached<T>(
    cache: &mut Vec<(Key, Arc<T>)>,
    key: Key,
    register: impl FnOnce(&str) -> Arc<T>,
) -> &T {
    let i = match cache.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            cache.push((key, register(&key.resolve())));
            cache.len() - 1
        }
    };
    &cache[i].1
}

/// The sinks of a probe that is on, and its handle caches.
#[derive(Debug)]
struct Sinks {
    registry: Option<Arc<Registry>>,
    session: Option<Arc<TraceSession>>,
    track: String,
    /// Registered on the first timeline event, so a probe that never
    /// emits adds no empty track.
    tracer: Option<ThreadTracer>,
    counters: Vec<(Key, Arc<Counter>)>,
    gauges: Vec<(Key, Arc<Gauge>)>,
    histograms: Vec<(Key, Arc<Histogram>)>,
}

impl Sinks {
    fn counter(&mut self, key: Key) -> Option<&Counter> {
        let registry = self.registry.as_ref()?;
        Some(cached(&mut self.counters, key, |n| registry.counter(n)))
    }

    fn gauge(&mut self, key: Key) -> Option<&Gauge> {
        let registry = self.registry.as_ref()?;
        Some(cached(&mut self.gauges, key, |n| registry.gauge(n)))
    }

    fn histogram(&mut self, key: Key) -> Option<&Histogram> {
        let registry = self.registry.as_ref()?;
        Some(cached(&mut self.histograms, key, |n| registry.histogram(n)))
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(session) = &self.session {
            let track = &self.track;
            let tracer = self.tracer.get_or_insert_with(|| session.thread(track));
            tracer.emit(event);
        }
    }
}

/// A per-thread observation handle over a run's two sinks, the metrics
/// [`Registry`] and the [`TraceSession`] timeline.
///
/// One [`Probe::span`] call takes one clock reading and feeds both sinks
/// from it: the latency histogram `{cat}_{name}_ns` and, when tracing is
/// on, one span on the probe's track — so the two cannot disagree.
/// Counters, gauges and value histograms go to the registry only; spans
/// and instants are all the timeline sees.
///
/// A probe with neither sink is off: every call is one branch, with no
/// clock read and no allocation. A probe that is on resolves each metric
/// name once and caches the handle, so the registry lock stays off the
/// per-interval path. Probes are not shared: each thread of a run holds its
/// own, minted with [`Probe::sibling`].
///
/// ```
/// use std::sync::Arc;
/// use bugnet_telemetry::{Probe, Registry};
/// use bugnet_trace::TraceSession;
///
/// let registry = Arc::new(Registry::new());
/// let session = Arc::new(TraceSession::new("bugnet"));
/// let mut probe = Probe::new(Some(registry.clone()), Some(session.clone()), "recorder-t0");
/// let start = probe.now();
/// // ... do the work being observed ...
/// probe.span("recorder", "interval", start, Some(("instructions", 1_000)));
/// probe.add("recorder_intervals_total", 1);
/// assert!(registry.snapshot().entries.contains_key("recorder_interval_ns"));
/// assert_eq!(session.emitted_events(), 1);
/// ```
#[derive(Debug)]
pub struct Probe(Option<Box<Sinks>>);

impl Probe {
    /// A probe that observes nothing.
    pub fn off() -> Probe {
        Probe(None)
    }

    /// A probe over whichever sinks are present, writing its timeline
    /// events on the track `track`. Off when both sinks are `None`.
    pub fn new(
        registry: Option<Arc<Registry>>,
        session: Option<Arc<TraceSession>>,
        track: impl fmt::Display,
    ) -> Probe {
        if registry.is_none() && session.is_none() {
            return Probe::off();
        }
        Probe(Some(Box::new(Sinks {
            registry,
            session,
            track: track.to_string(),
            tracer: None,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        })))
    }

    /// A probe over the same sinks on another track (`store-t3`,
    /// `flush-worker-1`, ...), with its own handle cache. Off when this
    /// probe is off; the track name is only formatted when it is on.
    pub fn sibling(&self, track: impl fmt::Display) -> Probe {
        match &self.0 {
            Some(s) => Probe::new(s.registry.clone(), s.session.clone(), track),
            None => Probe::off(),
        }
    }

    /// Whether either sink is attached.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// The metrics registry, if attached.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.0.as_ref()?.registry.as_ref()
    }

    /// The trace session, if attached.
    pub fn session(&self) -> Option<&Arc<TraceSession>> {
        self.0.as_ref()?.session.as_ref()
    }

    /// The start of a span: the trace clock when the probe is on, 0 (and
    /// no clock read) when it is off.
    pub fn now(&self) -> u64 {
        match self.0 {
            Some(_) => clock::monotonic_ns(),
            None => 0,
        }
    }

    /// Ends the span that started at `start_ns` (a prior [`Probe::now`]):
    /// records its length into `{cat}_{name}_ns` and emits it on the
    /// timeline, with `arg` attached as its one `key: value` argument.
    pub fn span(
        &mut self,
        cat: &'static str,
        name: &'static str,
        start_ns: u64,
        arg: Option<(&'static str, u64)>,
    ) {
        let Some(sinks) = self.0.as_deref_mut() else {
            return;
        };
        let dur_ns = clock::monotonic_ns().saturating_sub(start_ns);
        if let Some(h) = sinks.histogram(Key::Span(cat, name)) {
            h.record(dur_ns);
        }
        let event = TraceEvent::span(name, cat, start_ns, dur_ns);
        sinks.emit(match arg {
            Some((key, value)) => event.with_arg(key, value),
            None => event,
        });
    }

    /// Emits an instant on the timeline (the registry does not see it).
    pub fn instant(&mut self, cat: &'static str, name: &'static str) {
        if let Some(sinks) = self.0.as_deref_mut() {
            sinks.emit(TraceEvent::instant(name, cat, clock::monotonic_ns()));
        }
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.add_key(Key::Name(name), n);
    }

    /// Adds `n` to the counter whose name is `template` with its `{}`
    /// replaced by `index` (`flush_worker{}_submitted_total`).
    pub fn add_nth(&mut self, template: &'static str, index: usize, n: u64) {
        self.add_key(Key::Nth(template, index), n);
    }

    /// Sets the gauge `name`.
    pub fn set(&mut self, name: &'static str, value: i64) {
        self.set_key(Key::Name(name), value);
    }

    /// Sets the gauge whose name is `template` with `{}` replaced by
    /// `index` (`store_lane{}_depth`).
    pub fn set_nth(&mut self, template: &'static str, index: usize, value: i64) {
        self.set_key(Key::Nth(template, index), value);
    }

    fn add_key(&mut self, key: Key, n: u64) {
        if let Some(c) = self.0.as_deref_mut().and_then(|s| s.counter(key)) {
            c.add(n);
        }
    }

    fn set_key(&mut self, key: Key, value: i64) {
        if let Some(g) = self.0.as_deref_mut().and_then(|s| s.gauge(key)) {
            g.set(value);
        }
    }

    /// Records one sample into the value histogram `name` (a size or a
    /// count, not a latency: latencies come from [`Probe::span`]).
    pub fn record(&mut self, name: &'static str, value: u64) {
        let key = Key::Name(name);
        if let Some(h) = self.0.as_deref_mut().and_then(|s| s.histogram(key)) {
            h.record(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;

    #[test]
    fn one_span_feeds_both_sinks_with_one_duration() {
        let registry = Arc::new(Registry::new());
        let session = Arc::new(TraceSession::new("probe"));
        let mut probe = Probe::new(Some(registry.clone()), Some(session.clone()), "t");
        for _ in 0..3 {
            let start = probe.now();
            probe.span("store", "seal", start, Some(("bytes", 7)));
        }
        let snapshot = registry.snapshot();
        let MetricValue::Histogram(h) = &snapshot.entries["store_seal_ns"] else {
            panic!("store_seal_ns is not a histogram");
        };
        let tracks = session.snapshot();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].1, "t");
        let spans = &tracks[0].2;
        assert_eq!(h.count, spans.len() as u64);
        let total: u64 = spans
            .iter()
            .map(|e| match e.kind {
                bugnet_trace::EventKind::Span { dur_ns } => dur_ns,
                _ => panic!("not a span"),
            })
            .sum();
        assert_eq!(h.sum, total, "both sinks see the same durations");
        assert!(spans.iter().all(|e| e.arg_name == "bytes" && e.arg == 7));
    }

    #[test]
    fn metrics_reach_the_registry_only_and_instants_the_timeline_only() {
        let registry = Arc::new(Registry::new());
        let session = Arc::new(TraceSession::new("probe"));
        let mut probe = Probe::new(Some(registry.clone()), Some(session.clone()), "t");
        probe.add("a_total", 2);
        probe.add("a_total", 3);
        probe.add_nth("w{}_total", 4, 1);
        probe.set_nth("lane{}_depth", 1, 9);
        probe.set("level", -1);
        probe.record("batch", 16);
        probe.instant("replay", "digest_mismatch");
        let entries = registry.snapshot().entries;
        assert_eq!(entries["a_total"], MetricValue::Counter(5));
        assert_eq!(entries["w4_total"], MetricValue::Counter(1));
        assert!(matches!(
            entries["lane1_depth"],
            MetricValue::Gauge { value: 9, .. }
        ));
        assert!(matches!(
            entries["level"],
            MetricValue::Gauge { value: -1, .. }
        ));
        assert!(matches!(&entries["batch"], MetricValue::Histogram(h) if h.count == 1));
        assert_eq!(entries.len(), 5, "the instant registered nothing");
        assert_eq!(
            session.emitted_events(),
            1,
            "only the instant is timeline-visible"
        );
    }

    #[test]
    fn off_probe_and_its_siblings_observe_nothing() {
        let mut probe = Probe::new(None, None, "t");
        assert!(!probe.is_on());
        assert_eq!(probe.now(), 0);
        probe.span("store", "seal", 0, None);
        probe.add("a_total", 1);
        assert!(!probe.sibling("u").is_on());
    }

    #[test]
    fn siblings_share_sinks_on_their_own_tracks_created_on_first_event() {
        let registry = Arc::new(Registry::new());
        let session = Arc::new(TraceSession::new("probe"));
        let root = Probe::new(Some(registry.clone()), Some(session.clone()), "root");
        let mut worker = root.sibling(format_args!("flush-worker-{}", 1));
        assert_eq!(session.thread_count(), 0, "no track before the first event");
        let start = worker.now();
        worker.span("flush", "seal_job", start, None);
        assert_eq!(session.snapshot()[0].1, "flush-worker-1");
        assert!(registry
            .snapshot()
            .entries
            .contains_key("flush_seal_job_ns"));
    }

    #[test]
    fn trace_only_probe_times_spans_without_a_registry() {
        let session = Arc::new(TraceSession::new("probe"));
        let mut probe = Probe::new(None, Some(session.clone()), "t");
        probe.add("a_total", 1);
        let start = probe.now();
        probe.span("io", "write", start, None);
        assert!(probe.registry().is_none());
        assert_eq!(session.emitted_events(), 1);
    }
}
