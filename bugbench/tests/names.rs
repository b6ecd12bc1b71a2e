//! Keeps the benchmark and its description in step: every workload runs at
//! smoke scale, emits exactly the metrics `BENCHMARK.json` lists (same
//! names, same units, same order), fails nothing, and repeats its counts
//! exactly for a repeated seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use bugbench::metrics::{BenchSpec, SpecMetric};
use bugnet_trace::json::{self, JsonValue};

fn spec() -> BenchSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    BenchSpec::parse(&text).expect("BENCHMARK.json parses")
}

/// One smoke-scale run: its result line's metrics as (name, unit, value).
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, String, f64)> {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&work).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_bugbench"))
        .current_dir(&work)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .output()
        .expect("bugbench runs");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(JsonValue::as_u64) > Some(0));
    result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            (name.clone(), unit.to_string(), value)
        })
        .collect()
}

fn names_and_units(metrics: &[(String, String, f64)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect()
}

fn declared(list: &[SpecMetric]) -> Vec<(String, String)> {
    list.iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

fn values(metrics: &[(String, String, f64)]) -> BTreeMap<String, f64> {
    metrics.iter().map(|(n, _, v)| (n.clone(), *v)).collect()
}

#[test]
fn every_workload_emits_the_declared_metrics_and_repeats_its_counts() {
    let spec = spec();
    assert_eq!(spec.workloads.len(), 5);
    for workload in &spec.workloads {
        let end_to_end = run(workload, 1, false);
        let per_layer = run(workload, 1, true);
        assert_eq!(
            names_and_units(&end_to_end),
            declared(&spec.end_to_end),
            "{workload}"
        );
        assert_eq!(
            names_and_units(&per_layer),
            declared(&spec.per_layer),
            "{workload}"
        );
        for (name, _, v) in end_to_end.iter().chain(&per_layer) {
            assert!(v.is_finite(), "{workload}: {name} = {v}");
        }

        // The counts behind these repeat exactly for the same seed.
        let (a, b) = (values(&end_to_end), values(&run(workload, 1, false)));
        for name in ["log_bytes_per_kinstr", "dump_bytes_per_kinstr"] {
            assert_eq!(a[name].to_bits(), b[name].to_bits(), "{workload}: {name}");
        }
        let (a, b) = (values(&per_layer), values(&run(workload, 1, true)));
        for name in [
            "io.fsyncs_per_dump",
            "dictionary.hit_rate",
            "replayer.bisect_probes",
        ] {
            assert_eq!(a[name].to_bits(), b[name].to_bits(), "{workload}: {name}");
        }
    }
}

#[test]
fn bounds_are_set_for_every_end_to_end_metric_and_setup_has_the_largest() {
    let spec = spec();
    let bounds: Vec<f64> = spec
        .end_to_end
        .iter()
        .map(|m| m.bound.expect("a bound"))
        .collect();
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    let setup = spec
        .metric("setup_s")
        .and_then(|m| m.bound)
        .expect("setup_s bound");
    assert!(bounds.iter().all(|&b| b <= setup));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}
