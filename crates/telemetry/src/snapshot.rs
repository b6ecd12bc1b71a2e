//! Frozen metric snapshots: delta semantics, JSON and Prometheus-text
//! exposition, and a compact binary codec so a snapshot can be embedded
//! in a crash-dump manifest and recovered at triage time.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use bugnet_trace::json::{self, JsonValue};

use crate::hist::{bucket_bounds, HIST_BUCKETS};

/// A frozen histogram: total count/sum, exact extremes, and the sparse
/// list of non-empty log2 buckets (`(bucket index, sample count)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (exact, not bucketed).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index. Bucket 0 holds the value 0;
    /// bucket `i >= 1` holds `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    /// The estimated `q`-quantile (`0.0 ..= 1.0`): linear interpolation
    /// inside the log2 bucket holding the target rank, clamped to the
    /// exact observed `[min, max]`. Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            let before = seen;
            seen += n;
            if (seen as f64) >= rank {
                let (lo, hi) = bucket_bounds(index as usize);
                let within = (rank - before as f64) / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * within;
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Arithmetic mean of the samples (exact; the sum is not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// This distribution minus an `earlier` snapshot of the same
    /// histogram: counts, sums and buckets subtract (saturating, so a
    /// reset metric degrades to the current view instead of wrapping).
    /// `min`/`max` keep the later values — the histogram does not retain
    /// enough to recompute extremes over a window.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let early: BTreeMap<u8, u64> = earlier.buckets.iter().copied().collect();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(early.get(&i).copied().unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

/// One metric's frozen value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous level plus its high-watermark.
    Gauge {
        /// The level at snapshot time.
        value: i64,
        /// The highest level ever set.
        max: i64,
    },
    /// A frozen latency/size distribution.
    Histogram(HistSnapshot),
}

/// A frozen view of a whole [`crate::Registry`], keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Every registered metric, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

/// Binary-format magic for an embedded snapshot.
const SNAPSHOT_MAGIC: [u8; 4] = *b"BNTM";
/// Binary-format version this crate writes.
const SNAPSHOT_VERSION: u8 = 1;

/// Why a binary snapshot failed to decode. Embedded snapshots travel
/// inside crash dumps, so corruption must surface as a typed error, never
/// a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The bytes end before the structure does.
    Truncated,
    /// The leading magic is not `BNTM`.
    BadMagic,
    /// An unknown format version.
    BadVersion(u8),
    /// An unknown metric-kind tag.
    BadKind(u8),
    /// A metric name that is not UTF-8.
    BadName,
    /// A histogram bucket index out of range or out of order.
    BadBucket(u8),
    /// Bytes left over after the last entry.
    TrailingBytes,
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotDecodeError::Truncated => write!(f, "telemetry snapshot is truncated"),
            SnapshotDecodeError::BadMagic => write!(f, "telemetry snapshot magic mismatch"),
            SnapshotDecodeError::BadVersion(v) => {
                write!(f, "unsupported telemetry snapshot version {v}")
            }
            SnapshotDecodeError::BadKind(k) => write!(f, "unknown telemetry metric kind {k}"),
            SnapshotDecodeError::BadName => write!(f, "telemetry metric name is not UTF-8"),
            SnapshotDecodeError::BadBucket(b) => {
                write!(f, "telemetry histogram bucket {b} out of range or order")
            }
            SnapshotDecodeError::TrailingBytes => {
                write!(f, "trailing bytes after telemetry snapshot")
            }
        }
    }
}

impl Error for SnapshotDecodeError {}

/// Little-endian cursor over the snapshot wire format.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotDecodeError::Truncated)?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SnapshotDecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl Snapshot {
    /// Every entry minus its counterpart in `earlier` (delta semantics per
    /// kind: counters and histograms subtract, gauges keep the later
    /// level). Metrics absent from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, value)| {
                let delta = match (value, earlier.entries.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(now.delta(then))
                    }
                    (other, _) => other.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Snapshot { entries }
    }

    /// JSON exposition: one object keyed by metric name. Counters are
    /// plain numbers; gauges and histograms are nested objects (histogram
    /// quantiles are precomputed in nanoseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            json::escape_into(&mut out, name);
            out.push_str(": ");
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge { value, max } => {
                    out.push_str(&format!("{{\"value\": {value}, \"max\": {max}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Prometheus text exposition. Histograms are rendered summary-style
    /// (precomputed quantiles plus `_sum`/`_count`), which needs no server
    /// side bucket math and matches the fixed-bucket design.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let name = sanitize_prom_name(name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge { value, max } => {
                    out.push_str(&format!(
                        "# TYPE {name} gauge\n{name} {value}\n\
                         # TYPE {name}_high_watermark gauge\n{name}_high_watermark {max}\n"
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{label}\"}} {:.1}\n",
                            h.quantile(q)
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum {}\n{name}_count {}\n{name}_max {}\n",
                        h.sum, h.count, h.max
                    ));
                }
            }
        }
        out
    }

    /// Encodes the snapshot into the compact binary wire format embedded
    /// in crash-dump manifests (`BNTM`, version 1, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 32);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, value) in &self.entries {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            match value {
                MetricValue::Counter(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                MetricValue::Gauge { value, max } => {
                    out.push(1);
                    out.extend_from_slice(&value.to_le_bytes());
                    out.extend_from_slice(&max.to_le_bytes());
                }
                MetricValue::Histogram(h) => {
                    out.push(2);
                    out.extend_from_slice(&h.count.to_le_bytes());
                    out.extend_from_slice(&h.sum.to_le_bytes());
                    out.extend_from_slice(&h.min.to_le_bytes());
                    out.extend_from_slice(&h.max.to_le_bytes());
                    out.push(h.buckets.len() as u8);
                    for (index, n) in &h.buckets {
                        out.push(*index);
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Decodes a snapshot written by [`Snapshot::to_bytes`]. The bytes
    /// must be exactly one snapshot — trailing bytes are an error, so a
    /// corrupted manifest section cannot pass silently.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotDecodeError`] naming the first structural fault.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotDecodeError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotDecodeError::BadMagic);
        }
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotDecodeError::BadVersion(version));
        }
        let count = r.u32()?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| SnapshotDecodeError::BadName)?
                .to_string();
            let kind = r.u8()?;
            let value = match kind {
                0 => MetricValue::Counter(r.u64()?),
                1 => MetricValue::Gauge {
                    value: r.i64()?,
                    max: r.i64()?,
                },
                2 => {
                    let count = r.u64()?;
                    let sum = r.u64()?;
                    let min = r.u64()?;
                    let max = r.u64()?;
                    let n_buckets = r.u8()? as usize;
                    let mut buckets = Vec::with_capacity(n_buckets);
                    let mut last: Option<u8> = None;
                    for _ in 0..n_buckets {
                        let index = r.u8()?;
                        let n = r.u64()?;
                        let in_order = last.is_none_or(|l| index > l);
                        if usize::from(index) >= HIST_BUCKETS || !in_order {
                            return Err(SnapshotDecodeError::BadBucket(index));
                        }
                        last = Some(index);
                        buckets.push((index, n));
                    }
                    MetricValue::Histogram(HistSnapshot {
                        count,
                        sum,
                        min,
                        max,
                        buckets,
                    })
                }
                k => return Err(SnapshotDecodeError::BadKind(k)),
            };
            entries.insert(name, value);
        }
        if r.pos != bytes.len() {
            return Err(SnapshotDecodeError::TrailingBytes);
        }
        Ok(Snapshot { entries })
    }

    /// Reads a snapshot back from its [`Snapshot::to_json`] exposition —
    /// what `bugnet stats --metrics-json` writes and `stats --diff`
    /// compares. The JSON form is lossy for histograms (it carries
    /// count/sum/min/max plus precomputed quantiles, not the buckets), so
    /// histograms come back bucket-less: their deltas still subtract
    /// count and sum exactly, but quantiles cannot be recomputed.
    ///
    /// # Errors
    ///
    /// [`SnapshotJsonError::Parse`] when the text is not valid JSON,
    /// [`SnapshotJsonError::NotAnObject`] when the document is not an
    /// object, [`SnapshotJsonError::BadEntry`] naming the first metric
    /// whose value has an unrecognized shape.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotJsonError> {
        let doc = json::parse(text).map_err(SnapshotJsonError::Parse)?;
        let members = doc.as_object().ok_or(SnapshotJsonError::NotAnObject)?;
        let mut entries = BTreeMap::new();
        for (name, value) in members {
            let parsed = match value {
                JsonValue::Number(_) => value.as_u64().map(MetricValue::Counter),
                JsonValue::Object(_) if value.get("count").is_some() => {
                    let field = |k: &str| value.get(k).and_then(JsonValue::as_u64);
                    (|| {
                        Some(MetricValue::Histogram(HistSnapshot {
                            count: field("count")?,
                            sum: field("sum")?,
                            min: field("min")?,
                            max: field("max")?,
                            buckets: Vec::new(),
                        }))
                    })()
                }
                JsonValue::Object(_) => {
                    let field = |k: &str| value.get(k).and_then(JsonValue::as_f64);
                    (|| {
                        Some(MetricValue::Gauge {
                            value: field("value")? as i64,
                            max: field("max")? as i64,
                        })
                    })()
                }
                _ => None,
            };
            let parsed = parsed.ok_or_else(|| SnapshotJsonError::BadEntry(name.clone()))?;
            entries.insert(name.clone(), parsed);
        }
        Ok(Snapshot { entries })
    }
}

/// Why a JSON snapshot failed to read back.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotJsonError {
    /// The text is not valid JSON.
    Parse(json::JsonError),
    /// The document is valid JSON but not an object.
    NotAnObject,
    /// A metric value is neither a counter number, a gauge object nor a
    /// histogram object (the offending metric name).
    BadEntry(String),
}

impl fmt::Display for SnapshotJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotJsonError::Parse(e) => write!(f, "metrics JSON does not parse: {e}"),
            SnapshotJsonError::NotAnObject => write!(f, "metrics JSON is not an object"),
            SnapshotJsonError::BadEntry(name) => {
                write!(f, "metric {name:?} has an unrecognized value shape")
            }
        }
    }
}

impl Error for SnapshotJsonError {}

/// Maps a metric name onto the Prometheus name charset.
fn sanitize_prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("recorder_loads_seen_total").add(1_000_000);
        r.gauge("flush_in_flight").set(3);
        let h = r.histogram("seal_ns");
        for v in [100u64, 5_000, 5_100, 90_000, 1 << 40] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len]).unwrap_err();
            assert_eq!(err, SnapshotDecodeError::Truncated, "at length {len}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotDecodeError::TrailingBytes
        );
    }

    #[test]
    fn corrupt_magic_version_and_kind_are_rejected() {
        let good = sample().to_bytes();
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapshotDecodeError::BadMagic
        );
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            Snapshot::from_bytes(&bad).unwrap_err(),
            SnapshotDecodeError::BadVersion(99)
        );
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("ops_total");
        let h = r.histogram("lat_ns");
        c.add(10);
        h.record(100);
        let before = r.snapshot();
        c.add(5);
        h.record(100);
        h.record(200);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.entries["ops_total"], MetricValue::Counter(5));
        match &d.entries["lat_ns"] {
            MetricValue::Histogram(hs) => {
                assert_eq!(hs.count, 2);
                assert_eq!(hs.sum, 300);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn json_and_prometheus_render_all_kinds() {
        let snap = sample();
        let json = snap.to_json();
        assert!(json.contains("\"recorder_loads_seen_total\": 1000000"));
        assert!(json.contains("\"flush_in_flight\": {\"value\": 3, \"max\": 3}"));
        assert!(json.contains("\"p99\":"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE recorder_loads_seen_total counter"));
        assert!(prom.contains("recorder_loads_seen_total 1000000"));
        assert!(prom.contains("seal_ns{quantile=\"0.99\"}"));
        assert!(prom.contains("seal_ns_count 5"));
    }

    #[test]
    fn json_roundtrip_recovers_counters_gauges_and_histogram_moments() {
        let snap = sample();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(
            back.entries["recorder_loads_seen_total"],
            MetricValue::Counter(1_000_000)
        );
        assert_eq!(
            back.entries["flush_in_flight"],
            MetricValue::Gauge { value: 3, max: 3 }
        );
        match (&snap.entries["seal_ns"], &back.entries["seal_ns"]) {
            (MetricValue::Histogram(orig), MetricValue::Histogram(read)) => {
                assert_eq!(read.count, orig.count);
                assert_eq!(read.sum, orig.sum);
                assert_eq!(read.min, orig.min);
                assert_eq!(read.max, orig.max);
                // The JSON form does not carry buckets.
                assert!(read.buckets.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        // And deltas of two read-back snapshots subtract exactly.
        let d = back.delta(&back);
        assert_eq!(
            d.entries["recorder_loads_seen_total"],
            MetricValue::Counter(0)
        );
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(matches!(
            Snapshot::from_json("not json"),
            Err(SnapshotJsonError::Parse(_))
        ));
        assert!(matches!(
            Snapshot::from_json("[1, 2]"),
            Err(SnapshotJsonError::NotAnObject)
        ));
        assert!(matches!(
            Snapshot::from_json("{\"m\": \"strings are not metrics\"}"),
            Err(SnapshotJsonError::BadEntry(name)) if name == "m"
        ));
    }

    #[test]
    fn empty_snapshot_roundtrips_and_renders() {
        let empty = Snapshot::default();
        assert_eq!(Snapshot::from_bytes(&empty.to_bytes()).unwrap(), empty);
        assert_eq!(empty.to_json(), "{\n}\n");
        assert_eq!(empty.to_prometheus(), "");
    }
}
