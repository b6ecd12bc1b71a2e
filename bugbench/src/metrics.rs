//! Metric names, the benchmark description file and run records.
//!
//! The benchmark emits exactly the metrics listed here; `BENCHMARK.json` at
//! the repository root lists the same names and units (with a regression
//! bound for each end-to-end metric), and the name test keeps the two equal.

use std::collections::BTreeMap;

use bugnet_trace::json::{self, JsonValue};

use crate::stats::Better;

/// How a metric's value relates to the host's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A host time: reported at the reference host speed.
    Time,
    /// Work per host time: reported at the reference host speed.
    Rate,
    /// A count, a size or a ratio of two host times: reported as measured.
    Plain,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Relation to the host's speed.
    pub kind: Kind,
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Time,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::Rate,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Plain,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::Plain,
    }
}

/// What a user of BugNet waits for or pays, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    time("record_ns_per_instr", "ns/instr"),
    lower("record_slowdown", "x"),
    lower("log_bytes_per_kinstr", "B/kinstr"),
    lower("dump_bytes_per_kinstr", "B/kinstr"),
    time("dump_ms", "ms"),
    time("crash_to_replay_ms", "ms"),
    time("replay_ns_per_instr", "ns/instr"),
    time("seek_ms", "ms"),
    time("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer costs and counts, reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    time("sim.exec_ns_per_instr", "ns/instr"),
    lower("memsys.l1_miss_rate", "frac"),
    lower("memsys.l2_miss_rate", "frac"),
    lower("memsys.invalidations_per_kinstr", "1/kinstr"),
    time("recorder.ns_per_instr", "ns/instr"),
    lower("recorder.logged_load_frac", "frac"),
    higher("dictionary.hit_rate", "frac"),
    lower("fll.raw_bytes_per_kinstr", "B/kinstr"),
    lower("mrl.raw_bytes_per_kinstr", "B/kinstr"),
    time("seal.ns_per_instr", "ns/instr"),
    time("columnar.ns_per_instr", "ns/instr"),
    time("lz.ns_per_instr", "ns/instr"),
    higher("seal.ratio", "x"),
    time("store.handoff_ns_per_interval", "ns/interval"),
    time("store.reconcile_ms", "ms"),
    time("io.write_ms", "ms"),
    time("io.sync_dir_ms", "ms"),
    time("io.rename_ms", "ms"),
    time("io.other_ms", "ms"),
    lower("io.fsyncs_per_dump", "count"),
    lower("io.ops_per_dump", "count"),
    lower("io.bytes_per_dump", "B"),
    time("dump.encode_ms", "ms"),
    time("dump.image_ms", "ms"),
    time("dump.load_ms", "ms"),
    rate("dump.load_mb_per_s", "MB/s"),
    time("replayer.ns_per_instr", "ns/instr"),
    time("replayer.seek_ms", "ms"),
    time("replayer.bisect_ms", "ms"),
    lower("replayer.bisect_probes", "count"),
    lower("telemetry.overhead_frac", "frac"),
    lower("trace.overhead_frac", "frac"),
    lower("bench.trace_overhead_frac", "frac"),
    lower("bench.unattributed_frac", "frac"),
];

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the tools read.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

impl BenchSpec {
    /// Parses the text of `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed part.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
        };
        let field = |v: &JsonValue, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<SpecMetric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    Ok(SpecMetric {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: Better::parse(&better)
                            .ok_or_else(|| format!("BENCHMARK.json: bad `better` {better}"))?,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Finds a metric of either list by name.
    pub fn metric(&self, name: &str) -> Option<&SpecMetric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// One run of one workload, as read back from the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether this was a traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Reported value of every metric, by name.
    pub values: BTreeMap<String, f64>,
}

/// Marker key of the per-run detail line the benchmark prints.
pub const RUN_LINE_KEY: &str = "bugbench_run";

/// Extracts every run record from benchmark output: the detail lines,
/// which are JSON objects carrying [`RUN_LINE_KEY`]. Other lines are
/// skipped.
///
/// # Errors
///
/// A message for a detail line that does not parse.
pub fn parse_runs(output: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    for line in output.lines().map(str::trim) {
        if !line.starts_with('{') || !line.contains(RUN_LINE_KEY) {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("run line: {e}"))?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("run line without `{key}`"))
        };
        let mut values = BTreeMap::new();
        for (name, m) in doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("run line without `metrics`")?
        {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("metric {name} without a value"))?;
            values.insert(name.clone(), value);
        }
        runs.push(RunRecord {
            workload: doc
                .get(RUN_LINE_KEY)
                .and_then(JsonValue::as_str)
                .ok_or("run line without a workload")?
                .to_string(),
            traced: num("trace")? != 0.0,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            values,
        });
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_are_short() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
    }

    #[test]
    fn spec_parses_names_units_and_bounds() {
        let spec = BenchSpec::parse(
            r#"{"workloads": [{"name": "w", "why": "because"}],
                "end_to_end": [{"name": "a", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "b", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, vec!["w"]);
        assert_eq!(spec.metric("a").unwrap().bound, Some(0.1));
        assert_eq!(spec.metric("b").unwrap().better, Better::Higher);
        assert!(BenchSpec::parse("{}").is_err());
    }

    #[test]
    fn run_lines_are_found_among_other_output() {
        let out = "warming up\n{\"bugbench_run\": \"w\", \"seed\": 3, \"trace\": 0, \
                   \"attempted\": 9, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n\
                   {\"correct\": true}\n";
        let runs = parse_runs(out).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!((runs[0].workload.as_str(), runs[0].failed), ("w", 1));
        assert_eq!(runs[0].values["a"], 1.5);
    }
}
