//! Human-readable tables for `bugnet info`, `bugnet replay` and
//! `bugnet stats`.

use std::path::Path;

use bugnet_core::columnar::{fll_stream_name, mrl_stream_name, LOG_STREAMS};
use bugnet_core::dump::{
    BisectReport, CrashDump, DumpManifest, DumpReplayReport, SalvageReport, StreamSize,
    DUMP_VERSION_V5,
};
use bugnet_core::stats::LogSizeReport;
use bugnet_telemetry::{MetricValue, Snapshot};
use bugnet_types::ByteSize;

/// Prints the manifest summary and the per-checkpoint statistics table
/// (records, sizes, dictionary hits, compression ratio — the quantities of
/// the paper's Figure 2).
pub fn print_info(dir: &Path, dump: &CrashDump) {
    let m = &dump.manifest;
    println!("crash dump {} (format v{})", dir.display(), m.version);
    println!("  workload : {}", m.workload);
    println!("  created  : machine clock {}", m.created.0);
    println!(
        "  recorder : interval {} instrs, {}-entry dictionary, C-ID {} bits",
        m.config.checkpoint_interval, m.config.dictionary_entries, m.config.checkpoint_id_bits
    );
    match &m.fault {
        Some(f) => println!(
            "  fault    : {} on {} at pc {} (thread icount {})",
            f.description, f.thread, f.pc, f.icount
        ),
        None => println!("  fault    : none (clean archive)"),
    }
    if m.evicted_checkpoints > 0 {
        println!(
            "  evicted  : {} older checkpoint(s) discarded before the dump",
            m.evicted_checkpoints
        );
    }
    println!(
        "  totals   : {} thread(s), {} checkpoint(s), {} FLL + {} MRL",
        m.threads.len(),
        m.total_checkpoints(),
        m.total_fll_size(),
        m.total_mrl_size()
    );
    println!(
        "  codec    : {} — {} raw -> {} stored, backend ratio {:.2}",
        m.codec,
        m.total_fll_size() + m.total_mrl_size(),
        m.total_fll_stored_size() + m.total_mrl_stored_size(),
        m.backend_ratio()
    );
    if m.version >= DUMP_VERSION_V5 {
        // The per-stream sizes on disk, from the frames' stream headers.
        let mut fll = [StreamSize::default(); LOG_STREAMS];
        let mut mrl = [StreamSize::default(); LOG_STREAMS];
        for t in &dump.threads {
            for (sums, thread) in [(&mut fll, &t.fll_streams), (&mut mrl, &t.mrl_streams)] {
                for (sum, s) in sums.iter_mut().zip(thread) {
                    sum.raw += s.raw;
                    sum.stored += s.stored;
                }
            }
        }
        for (label, name, sums) in [
            ("FLL", fll_stream_name as fn(u8) -> &'static str, fll),
            ("MRL", mrl_stream_name, mrl),
        ] {
            let streams = sums
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    format!(
                        "{} {} -> {}",
                        name(id as u8),
                        ByteSize::from_bytes(s.raw),
                        ByteSize::from_bytes(s.stored)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            println!("  columnar : {label} streams (split -> stored): {streams}");
        }
    }
    if m.version >= 3 {
        if m.is_self_contained() {
            let dedup = if m.unique_images() < m.embedded_images() {
                format!(" ({} unique, content-addressed)", m.unique_images())
            } else {
                String::new()
            };
            println!(
                "  images   : {} embedded{dedup}, {} raw -> {} stored ({:.2}x) — \
                 self-contained, replay needs no --workload",
                m.embedded_images(),
                m.total_image_size(),
                m.total_image_stored_size(),
                m.image_ratio(),
            );
        } else {
            println!(
                "  images   : {} of {} thread(s) embedded — replay of the \
                 others needs the workload registry",
                m.embedded_images(),
                m.threads.len(),
            );
        }
    } else {
        println!(
            "  images   : none (format v{} predates embedding)",
            m.version
        );
    }
    // The paper's evaluation metrics over the retained window (Figures 2,
    // 5 and 6), recomputed from the decoded logs.
    let report = LogSizeReport::from_logs(dump.threads.iter().flat_map(|t| &t.checkpoints));
    println!(
        "  paper    : dictionary hit rate {:.1}%, {:.1} FLL bytes/1k-instrs, \
         {:.1}% of loads logged, dictionary ratio {:.2}x",
        report.dictionary_hit_rate() * 100.0,
        report.fll_bytes_per_instruction() * 1000.0,
        report.logged_load_fraction() * 100.0,
        report.compression_ratio(),
    );
    match &m.telemetry {
        Some(snapshot) => println!(
            "  telemetry: {} metric(s) embedded — `bugnet stats` prints them",
            snapshot.entries.len()
        ),
        None => println!("  telemetry: none embedded (record with --metrics-json)"),
    }
    for (t, tm) in dump.threads.iter().zip(&m.threads) {
        let window: u64 = t.checkpoints.iter().map(|c| c.fll.instructions).sum();
        let raw = tm.fll_bytes + tm.mrl_bytes;
        let stored = tm.fll_stored_bytes + tm.mrl_stored_bytes;
        let image = match &t.image {
            Some(p) => format!(
                ", image `{}` ({} instrs, {} raw -> {} stored)",
                p.name(),
                p.len(),
                bugnet_types::ByteSize::from_bytes(tm.image_raw_bytes),
                bugnet_types::ByteSize::from_bytes(tm.image_stored_bytes),
            ),
            None => String::new(),
        };
        println!(
            "  {} — replay window {} instrs, {} raw -> {} stored ({:.2}x){image}:",
            t.thread,
            window,
            bugnet_types::ByteSize::from_bytes(raw),
            bugnet_types::ByteSize::from_bytes(stored),
            if stored == 0 {
                1.0
            } else {
                raw as f64 / stored as f64
            },
        );
        println!(
            "    {:>4} {:>9} {:>9} {:>8} {:>7} {:>10} {:>10} {:>6}  end",
            "C-ID", "instrs", "loads", "records", "hits", "fll", "mrl", "ratio"
        );
        for cp in &t.checkpoints {
            // Sizes go through `String` so the column padding applies.
            let fll_size = cp.fll.size().to_string();
            let mrl_size = cp.mrl.size().to_string();
            println!(
                "    {:>4} {:>9} {:>9} {:>8} {:>7} {:>10} {:>10} {:>6.2}  {}{}",
                cp.fll.header.checkpoint.0,
                cp.fll.instructions,
                cp.fll.loads_executed,
                cp.fll.records(),
                cp.fll.dictionary_hits(),
                fll_size,
                mrl_size,
                cp.fll.compression_ratio(),
                cp.fll.termination,
                match cp.fll.fault {
                    Some(f) => format!(" at pc {}", f.pc),
                    None => String::new(),
                }
            );
        }
    }
}

/// Prints a telemetry snapshot as an aligned text table: one row per
/// metric, histograms summarized by their interpolated quantiles.
pub fn print_stats(dir: &Path, manifest: &DumpManifest, snapshot: &Snapshot) {
    println!(
        "telemetry snapshot of {} (format v{}, {} metric(s))",
        dir.display(),
        manifest.version,
        snapshot.entries.len()
    );
    for (name, value) in &snapshot.entries {
        match value {
            MetricValue::Counter(v) => println!("  {name:<34} counter    {v}"),
            MetricValue::Gauge { value, max } => {
                println!("  {name:<34} gauge      {value} (high watermark {max})");
            }
            MetricValue::Histogram(h) => println!(
                "  {name:<34} histogram  n={} mean={:.0} p50={:.0} p95={:.0} p99={:.0} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max,
            ),
        }
    }
}

/// Prints the later-minus-earlier delta of two metric snapshots. JSON
/// snapshots store histograms as precomputed moments (no buckets), so a
/// diffed histogram reports count/sum-derived figures only.
pub fn print_stats_diff(earlier: &Path, later: &Path, delta: &Snapshot) {
    println!(
        "telemetry delta {} -> {} ({} metric(s))",
        earlier.display(),
        later.display(),
        delta.entries.len()
    );
    for (name, value) in &delta.entries {
        match value {
            MetricValue::Counter(v) => println!("  {name:<34} counter    +{v}"),
            MetricValue::Gauge { value, max } => {
                println!("  {name:<34} gauge      {value} (high watermark {max}, later value)");
            }
            MetricValue::Histogram(h) => println!(
                "  {name:<34} histogram  n=+{} sum=+{} mean={:.0}",
                h.count,
                h.sum,
                h.mean(),
            ),
        }
    }
}

/// Prints the `bugnet fsck` salvage report: per-file intact/lost frame
/// counts, the first corrupt offset and the typed rejection cause, plus the
/// joint interval and image totals.
pub fn print_salvage(dir: &Path, report: &SalvageReport) {
    println!(
        "fsck {}: {}",
        dir.display(),
        if report.is_clean() {
            "clean — every frame checksum verifies"
        } else {
            "DAMAGED"
        }
    );
    for f in &report.files {
        let detail = match (&f.cause, f.first_bad_offset) {
            (Some(cause), Some(offset)) => format!(" — first bad byte at {offset}: {cause}"),
            (Some(cause), None) => format!(" — {cause}"),
            _ => String::new(),
        };
        println!(
            "  {:<24} {:>4} of {:>4} frame(s) intact{}",
            f.file, f.intact_frames, f.declared_frames, detail
        );
    }
    println!(
        "  intervals: {} intact, {} lost; images: {} lost",
        report.intact_intervals, report.lost_intervals, report.lost_images
    );
}

/// Prints the `bugnet bisect` outcome: probe economy and the first
/// divergent interval of each thread that has one.
pub fn print_bisect(dir: &Path, report: &BisectReport) {
    println!(
        "bisect {}: {} interval replay(s) probed {} retained interval(s)",
        dir.display(),
        report.probes,
        report.intervals
    );
    for d in &report.divergences {
        println!(
            "  {}: first divergent interval is checkpoint {} (index {} in the retained window)",
            d.thread, d.checkpoint, d.index
        );
    }
    for t in &report.unreplayable_threads {
        println!("  {t}: no program image — skipped");
    }
    if report.is_clean() {
        println!("clean: every probed interval replays to its recorded digest");
    }
}

/// Prints the per-interval replay outcomes and the divergence summary.
pub fn print_replay(manifest: &DumpManifest, report: &DumpReplayReport) {
    println!(
        "replaying workload `{}`: {} interval(s)",
        manifest.workload,
        report.intervals.len()
    );
    for i in &report.intervals {
        let fault = match i.fault_reproduced {
            Some(true) => ", fault reproduced at recorded pc",
            Some(false) => ", FAULT NOT REPRODUCED",
            None => "",
        };
        println!(
            "  {} {}: {} instrs, {} loads from log + {} regenerated — {}{}",
            i.thread,
            i.checkpoint,
            i.instructions,
            i.loads_from_log,
            i.loads_from_memory,
            if i.digest_match {
                "digest OK"
            } else {
                "DIGEST MISMATCH"
            },
            fault
        );
    }
    for t in &report.unreplayable_threads {
        println!("  {t}: no program image — skipped");
    }
    if report.all_match() {
        println!(
            "replay OK: {} instructions reproduced the recorded execution exactly",
            report.instructions()
        );
    }
}
