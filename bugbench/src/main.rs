//! `bugbench`: the closed-loop record → dump → replay benchmark.
//!
//! ```text
//! bugbench --workload <name|all> --seed <u64> --seconds <s> [--trace <0|1>]
//!          [--trace-out <file.json>] [--scale full|smoke]
//! ```
//!
//! One run measures one workload for `--seconds` whole seconds (the
//! `run_seconds` of `BENCHMARK.json`) after its set-up, and for at least
//! the passes its estimates need; it prints two JSON lines: a detail line (key
//! `bugbench_run`) with every metric's sample count, quartiles and tail,
//! and — last — the result line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` traces half the operations and reports
//! the per-layer metrics, and `--trace-out` also writes that timeline as
//! Chrome trace-event JSON for Perfetto. `all` runs each workload in its
//! own child process, one after another. The exit code is nonzero when any
//! operation failed.

mod harness;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use bugbench::metrics::{Kind, MetricDef, END_TO_END, PER_LAYER, RUN_LINE_KEY};
use bugbench::spans::{covered_ns, self_times};
use bugbench::stats::{
    best_by_slot, best_of_passes, mean_over_slots, median_by_slot, quantile, Better, Summary,
};
use harness::{Ctx, YARDSTICK_REFERENCE_MS};
use workloads::{RunArgs, Scale};

struct Args {
    workload: String,
    run: RunArgs,
    trace: bool,
    trace_out: Option<PathBuf>,
    raw: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: bugbench --workload <{}|all> --seed <u64> --seconds <s> [--trace <0|1>] \
         [--trace-out <file>] [--scale full|smoke]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        run: RunArgs {
            seed: 0,
            seconds: 0,
            scale: Scale::Full,
        },
        trace: false,
        trace_out: None,
        raw: raw.clone(),
    };
    let (mut seed, mut seconds) = (None, None);
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--scale" => {
                args.run.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.run.seed = seed.ok_or("--seed is required")?;
    args.run.seconds = seconds.ok_or("--seconds is required")?;
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.trace_out.is_some() && !args.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(args)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A reported metric: its value, the value as measured (they differ for
/// host times and rates, which are reported at the reference host speed),
/// and for sampled ones the summary of the samples as measured.
struct Reported {
    def: &'static MetricDef,
    value: f64,
    measured: f64,
    summary: Option<Summary>,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Metrics reported as the mean over slots of each slot's median: the
/// set-up time, and the quantities that pair two readings taken within one
/// operation (a ratio or a difference).
const MEDIANS: [&str; 7] = [
    "setup_s",
    "record_slowdown",
    "recorder.ns_per_instr",
    "lz.ns_per_instr",
    "dump.image_ms",
    "telemetry.overhead_frac",
    "trace.overhead_frac",
];

/// The run's low (10th-percentile) yardstick reading, in milliseconds. A
/// low reading matches the best-of-passes timings it corrects; the 10th
/// percentile rather than the lowest, because a single reading that caught
/// a quiet moment would otherwise set the whole run's factor.
fn yardstick_low_ms(ctx: &Ctx) -> f64 {
    let mut readings = ctx.yardstick_ms.clone();
    readings.sort_by(f64::total_cmp);
    quantile(&readings, 0.1)
}

/// How much slower than the reference host the run's host was: the low
/// yardstick reading over its reference, and 1 when it is no higher. A
/// quiet host's readings wander by a few percent that its timings do not
/// share, so only a slowdown beyond the reference is taken out.
fn host_slowness(ctx: &Ctx) -> f64 {
    (yardstick_low_ms(ctx) / YARDSTICK_REFERENCE_MS).max(1.0)
}

/// Turns a run's samples and counts into the reported metrics. A timing
/// reports the best of passes (see [`best_by_slot`]), the set-up time and a
/// paired quantity the per-slot median (see [`median_by_slot`]), each
/// averaged over the slots;
/// counts are ratios of the fixed-set totals. Host times and rates of a
/// run on a host slower than the reference are then brought to its speed.
fn report(ctx: &Ctx) -> Result<Vec<Reported>, String> {
    let slowness = host_slowness(ctx);
    let t = &ctx.totals;
    let kinstr = t.retained_instrs as f64 / 1e3;
    let samples = |key: &str| ctx.samples.get(key).map(Vec::as_slice).unwrap_or(&[]);
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some(session) = ctx.session() {
        // A full ring overwrites its oldest spans, which would understate
        // the covered time and drop samples.
        let dropped = session.dropped_events();
        if dropped > 0 {
            return Err(format!("the bench's trace track dropped {dropped} events"));
        }
        let spans: Vec<_> = session
            .snapshot()
            .iter()
            .flat_map(|(_, _, events)| self_times(events))
            .collect();
        let encode: Vec<(u64, f64)> = spans
            .iter()
            .filter(|s| s.cat == "dump" && s.name == "write")
            .map(|s| (s.arg, s.self_ns as f64 / 1e6))
            .collect();
        let e2e = |key| best_by_slot(samples(key), Better::Lower);
        derived.extend([
            ("memsys.l1_miss_rate", ratio(t.l1_misses, t.l1_accesses)),
            ("memsys.l2_miss_rate", ratio(t.l2_misses, t.l1_misses)),
            (
                "memsys.invalidations_per_kinstr",
                ratio(t.invalidations, t.bare_instrs) * 1e3,
            ),
            ("recorder.logged_load_frac", ratio(t.loads_logged, t.loads)),
            ("dictionary.hit_rate", ratio(t.dict_hits, t.loads_logged)),
            ("fll.raw_bytes_per_kinstr", t.fll_raw_bytes as f64 / kinstr),
            ("mrl.raw_bytes_per_kinstr", t.mrl_raw_bytes as f64 / kinstr),
            ("seal.ratio", ratio(t.seal_raw, t.seal_stored)),
            ("io.fsyncs_per_dump", ratio(t.io_fsyncs, t.io_dumps)),
            ("io.ops_per_dump", ratio(t.io_ops, t.io_dumps)),
            ("io.bytes_per_dump", ratio(t.io_bytes, t.io_dumps)),
            (
                "dump.encode_ms",
                best_of_passes(&encode, Better::Lower).unwrap_or(f64::NAN),
            ),
            ("replayer.bisect_probes", ratio(t.bisect_probes, t.bisects)),
            (
                "bench.trace_overhead_frac",
                mean_over_slots(&[&e2e("e2e_traced"), &e2e("e2e_plain")], |v| {
                    v[0] / v[1] - 1.0
                })
                .unwrap_or(f64::NAN),
            ),
            (
                "bench.unattributed_frac",
                1.0 - covered_ns(&spans) as f64 / ctx.traced_wall_ns as f64,
            ),
        ]);
    } else {
        derived.extend([
            ("log_bytes_per_kinstr", t.log_stored_bytes as f64 / kinstr),
            ("dump_bytes_per_kinstr", t.dump_bytes as f64 / kinstr),
            (
                "peak_rss_mb",
                peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
            ),
        ]);
    }
    let defs = if ctx.per_layer() {
        PER_LAYER
    } else {
        END_TO_END
    };
    defs.iter()
        .map(|def| {
            let sampled = samples(def.name);
            let values: Vec<f64> = sampled.iter().map(|&(_, v)| v).collect();
            let measured = match derived.get(def.name) {
                Some(&v) => Some(v),
                None if MEDIANS.contains(&def.name) => {
                    mean_over_slots(&[&median_by_slot(sampled)], |v| v[0])
                }
                None => best_of_passes(sampled, def.better),
            }
            .ok_or_else(|| format!("no samples of {}", def.name))?;
            let value = match def.kind {
                Kind::Time => measured / slowness,
                Kind::Rate => measured * slowness,
                Kind::Plain => measured,
            };
            if !value.is_finite() {
                return Err(format!("{} is not a number ({value})", def.name));
            }
            Ok(Reported {
                def,
                value,
                measured,
                summary: Summary::of(&values),
            })
        })
        .collect()
}

/// The detail line: every metric with its unit, sample count, quartiles and
/// (where at least ten samples lie beyond it) its tail.
fn detail_line(args: &Args, ctx: &Ctx, reported: &[Reported]) -> String {
    let mut out = format!(
        "{{\"{RUN_LINE_KEY}\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"attempted\": {}, \"failed\": {}, \"yardstick_ms\": {}, \"host_slowness\": {}, \
         \"metrics\": {{",
        args.workload,
        args.run.seed,
        args.run.seconds,
        u8::from(args.trace),
        ctx.attempted,
        ctx.failed,
        yardstick_low_ms(ctx),
        host_slowness(ctx)
    );
    for (i, r) in reported.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"measured\": {}",
            r.def.name, r.value, r.def.unit, r.measured
        );
        match r.summary {
            Some(s) => {
                let _ = write!(
                    out,
                    ", \"n\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}",
                    s.n, s.p25, s.p50, s.p75
                );
                if let Some((p, v)) = s.high {
                    let _ = write!(out, ", \"p{}\": {v}", p * 100.0);
                }
            }
            None => out.push_str(", \"n\": 1"),
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn result_line(correct: bool, ctx: &Ctx, reported: &[Reported]) -> String {
    let metrics: Vec<String> = reported
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.def.name, r.value, r.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted,
        ctx.failed,
        metrics.join(", ")
    )
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Result<bool, String> {
    let work =
        PathBuf::from(".bugbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut ctx = Ctx::new(work.clone(), args.trace);
    let outcome = workloads::run(&args.workload, &mut ctx, args.run);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bugbench-work");
    outcome?;
    for e in &ctx.errors {
        eprintln!("bugbench: {}: {e}", args.workload);
    }
    if let (Some(path), Some(session)) = (&args.trace_out, ctx.session()) {
        session
            .write_chrome_json(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let reported = report(&ctx)?;
    let correct = ctx.failed == 0;
    println!("{}", detail_line(args, &ctx, &reported));
    println!("{}", result_line(correct, &ctx, &reported));
    Ok(correct)
}

/// Runs every workload, each in a child process of its own (so peak memory
/// is per workload), one after another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in workloads::NAMES {
        let mut child_args = args.raw.clone();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = name.to_string();
        if let Some(out) = child_args.iter().position(|a| a == "--trace-out") {
            child_args[out + 1] = format!("{}.{name}.json", child_args[out + 1]);
        }
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bugbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bugbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
