//! `bench_compare`: compares two sets of `bugbench` runs — a parent commit
//! and a change — metric by metric and workload by workload.
//!
//! ```text
//! bench_compare [--bench BENCHMARK.json] --parent <out>... --change <out>...
//! ```
//!
//! Each `<out>` file holds the standard output of one or more `bugbench`
//! runs; the runs of a workload pair up in the order given (parent run `i`
//! against change run `i`). For every (workload, metric) pair it prints each
//! side's quartiles, the share of pairs each side won, and the verdict of
//! [`bugbench::compare`]: end-to-end metrics come from untraced runs and are
//! judged against their bound in `BENCHMARK.json` (`setup_s` on its median
//! only); per-layer metrics come from traced runs and can only show a gain. The exit code is 1 when any
//! metric regressed or is unresolved, or when the change failed a larger
//! share of its operations than the parent; 2 on a usage error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bugbench::compare::{compare, Verdict};
use bugbench::metrics::{parse_runs, BenchSpec, RunRecord, SpecMetric};
use bugbench::stats::Summary;

struct Args {
    bench: String,
    parent: Vec<String>,
    change: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bench: "BENCHMARK.json".into(),
        parent: Vec::new(),
        change: Vec::new(),
    };
    let mut side: Option<bool> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => args.bench = it.next().ok_or("--bench needs a path")?,
            "--parent" => side = Some(false),
            "--change" => side = Some(true),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => match side {
                Some(false) => args.parent.push(file.into()),
                Some(true) => args.change.push(file.into()),
                None => return Err(format!("{file}: name --parent or --change first")),
            },
        }
    }
    if args.parent.is_empty() || args.change.is_empty() {
        return Err("both --parent and --change need at least one file".into());
    }
    Ok(args)
}

fn read_runs(files: &[String]) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        runs.extend(parse_runs(&text).map_err(|e| format!("{file}: {e}"))?);
    }
    Ok(runs)
}

/// Values of `metric` over the runs of `workload` (traced or not), in run
/// order.
fn values(runs: &[RunRecord], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.values.get(metric).copied())
        .collect()
}

fn failed_frac(runs: &[RunRecord], workload: &str) -> Option<f64> {
    let (attempted, failed) = runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec_text =
        std::fs::read_to_string(&args.bench).map_err(|e| format!("{}: {e}", args.bench))?;
    let spec = BenchSpec::parse(&spec_text)?;
    let parent = read_runs(&args.parent)?;
    let change = read_runs(&args.change)?;

    let mut ok = true;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<12} {:<32} {:>34} {:>34} {:>5} {:>5}  verdict",
        "workload", "metric", "parent p25 / p50 / p75", "change p25 / p50 / p75", "win", "lose"
    );
    for workload in &spec.workloads {
        let groups: [(bool, &Vec<SpecMetric>); 2] =
            [(false, &spec.end_to_end), (true, &spec.per_layer)];
        for (traced, metrics) in groups {
            for m in metrics {
                let p = values(&parent, workload, traced, &m.name);
                let c = values(&change, workload, traced, &m.name);
                let Some(mut cmp) = compare(&p, &c, m.better, m.bound) else {
                    continue;
                };
                // Set-up time is judged on its median alone, as the
                // benchmark's contract does: a run sets up only a few
                // times, so the spread of set-up time is not gated.
                if m.name == "setup_s" && cmp.verdict == Verdict::Unresolved {
                    cmp.verdict = Verdict::Same;
                }
                let q = |s: Summary| format!("{:.4} / {:.4} / {:.4}", s.p25, s.p50, s.p75);
                println!(
                    "{:<12} {:<32} {:>34} {:>34} {:>5.2} {:>5.2}  {}",
                    workload,
                    m.name,
                    q(cmp.parent),
                    q(cmp.change),
                    cmp.change_wins,
                    cmp.parent_wins,
                    cmp.verdict.label()
                );
                *counts.entry(cmp.verdict.label()).or_default() += 1;
                ok &= !cmp.verdict.fails();
            }
        }
        if let (Some(p), Some(c)) = (
            failed_frac(&parent, workload),
            failed_frac(&change, workload),
        ) {
            if c > p {
                println!("{workload:<12} failed_frac rose from {p} to {c}");
                ok = false;
            }
        }
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!(
        "{} ({})",
        if ok { "PASS" } else { "FAIL" },
        if summary.is_empty() {
            "no metric on both sides".into()
        } else {
            summary.join(", ")
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!(
                "bench_compare: {e}\nusage: bench_compare [--bench BENCHMARK.json] --parent <out>... --change <out>..."
            );
            ExitCode::from(2)
        }
    }
}
