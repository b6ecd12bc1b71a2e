//! Dump profiler: re-executed-execution profiling of a crash dump.
//!
//! BugNet dumps carry enough to re-execute the recorded intervals
//! deterministically (paper §5). This module turns that replay into a
//! profile instead of a verification: it re-executes every retained
//! interval through the interpreter's sampling hook and aggregates
//!
//! * a **hot-PC histogram** — where the recorded execution spent its
//!   instructions, symbolized against the embedded program image,
//! * a **per-interval breakdown** — instructions, load provenance
//!   (logged vs regenerated), dictionary hits and race-edge counts, and
//! * a **race timeline** — every MRL ordering edge placed at its local
//!   instruction count.
//!
//! The profile renders as text ([`DumpProfile::render_text`]) or as a
//! Chrome trace on a virtual timebase where one replayed instruction is
//! one microsecond ([`DumpProfile::write_trace`]), so Perfetto shows the
//! recorded execution itself rather than the replayer's wall clock.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bugnet_isa::Program;
use bugnet_telemetry::Probe;
use bugnet_trace::{TraceEvent, TraceSession};
use bugnet_types::{Addr, CheckpointId, ThreadId};

use crate::dump::{replay_and_check, CrashDump, DumpIntervalReplay};
use crate::replayer::ReplayError;

/// Nanoseconds of virtual trace time per replayed instruction: one
/// instruction renders as one microsecond in Perfetto.
pub const VIRTUAL_NS_PER_INSTRUCTION: u64 = 1_000;

/// Knobs for [`profile_dump`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Sample every Nth dispatched instruction into the hot-PC histogram
    /// (1 = every instruction). Zero is treated as 1.
    pub sample_every: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions { sample_every: 1 }
    }
}

/// One hot program counter, aggregated across all sampled intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPc {
    /// The sampled program counter.
    pub pc: Addr,
    /// Samples attributed to it.
    pub samples: u64,
    /// Nearest preceding symbol (`name+0xoff`), if the image has one.
    pub symbol: Option<String>,
}

/// Work breakdown of one replayed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalProfile {
    /// The interval's replay and its check against the recording, exactly
    /// as [`CrashDump::replay`] reports it.
    pub replay: DumpIntervalReplay,
    /// FLL records that hit the value dictionary.
    pub dict_hits: u64,
    /// FLL records in the interval.
    pub records: u64,
    /// MRL ordering edges recorded in the interval.
    pub races: u64,
}

/// One MRL ordering edge placed on the profile timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceTimelineEntry {
    /// Local thread.
    pub thread: ThreadId,
    /// Local interval.
    pub checkpoint: CheckpointId,
    /// Committed local instructions when the edge was observed.
    pub local_ic: u64,
    /// Remote thread the operation was ordered after.
    pub remote_thread: ThreadId,
    /// Remote interval at the time of the coherence reply.
    pub remote_checkpoint: CheckpointId,
    /// Remote committed instructions at the time of the reply.
    pub remote_instructions: u64,
}

/// The complete profile of one dump.
#[derive(Debug, Clone, Default)]
pub struct DumpProfile {
    /// Hot PCs, most-sampled first.
    pub hot_pcs: Vec<HotPc>,
    /// Per-interval breakdown, grouped by thread, oldest interval first.
    pub intervals: Vec<IntervalProfile>,
    /// Every MRL edge, in interval order.
    pub races: Vec<RaceTimelineEntry>,
    /// Instructions sampled into the hot-PC histogram.
    pub sampled_instructions: u64,
    /// Instructions replayed in total.
    pub total_instructions: u64,
    /// Threads that could not be replayed (no image, no fallback).
    pub unreplayable_threads: Vec<ThreadId>,
}

/// Resolves `pc` against a `(addr, name)` table sorted by address:
/// nearest preceding symbol, rendered as `name` or `name+0xoff`.
fn symbolize(pc: Addr, table: &[(u64, &str)]) -> Option<String> {
    let i = table.partition_point(|&(addr, _)| addr <= pc.raw());
    let (addr, name) = table.get(i.checked_sub(1)?)?;
    let off = pc.raw() - addr;
    Some(if off == 0 {
        (*name).to_string()
    } else {
        format!("{name}+{off:#x}")
    })
}

/// Replays every retained interval of `dump` as [`CrashDump::replay`]
/// does — same programs, same check — with the sampling hook attached, and
/// aggregates the profile. Threads with neither an image nor a `fallback`
/// program are reported as unreplayable.
///
/// # Errors
///
/// Returns the first [`ReplayError`] from an interval that cannot be
/// replayed at all.
pub fn profile_dump(
    dump: &CrashDump,
    mut fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    options: &ProfileOptions,
) -> Result<DumpProfile, ReplayError> {
    let every = options.sample_every.max(1);
    let mut samples: HashMap<u64, u64> = HashMap::new();
    let mut tick = 0u64;
    let mut sample = |pc: Addr| {
        if tick.is_multiple_of(every) {
            *samples.entry(pc.raw()).or_insert(0) += 1;
        }
        tick += 1;
    };
    let mut programs: Vec<Arc<Program>> = Vec::new();
    let threads = dump.threads.iter().map(|t| {
        let program = t.program(&mut fallback);
        if let Some(p) = &program {
            if !programs.iter().any(|known| Arc::ptr_eq(known, p)) {
                programs.push(Arc::clone(p));
            }
        }
        (t.thread, program, &t.checkpoints)
    });
    let report = replay_and_check(threads, &mut Probe::off(), Some(&mut sample))?;

    let mut profile = DumpProfile {
        sampled_instructions: samples.values().sum(),
        total_instructions: report.instructions(),
        ..DumpProfile::default()
    };
    let replayed = dump
        .threads
        .iter()
        .filter(|t| !report.unreplayable_threads.contains(&t.thread))
        .flat_map(|t| &t.checkpoints);
    for (cp, replay) in replayed.zip(report.intervals) {
        profile.intervals.push(IntervalProfile {
            replay,
            dict_hits: cp.fll.dictionary_hits(),
            records: cp.fll.records(),
            races: cp.mrl.entries().len() as u64,
        });
        for e in cp.mrl.entries() {
            profile.races.push(RaceTimelineEntry {
                thread: replay.thread,
                checkpoint: replay.checkpoint,
                local_ic: e.local_ic.0,
                remote_thread: e.remote.thread,
                remote_checkpoint: e.remote.checkpoint,
                remote_instructions: e.remote.instructions.0,
            });
        }
    }
    profile.unreplayable_threads = report.unreplayable_threads;

    // Symbolize each hot PC against the first image that maps it.
    type SymbolTable = (Arc<Program>, Vec<(u64, String)>);
    let tables: Vec<SymbolTable> = programs
        .into_iter()
        .map(|p| {
            let mut table: Vec<(u64, String)> = p
                .symbols()
                .iter()
                .map(|(name, addr)| (addr.raw(), name.clone()))
                .collect();
            table.sort_unstable_by_key(|&(addr, _)| addr);
            (p, table)
        })
        .collect();
    profile.hot_pcs = samples
        .into_iter()
        .map(|(raw, count)| {
            let pc = Addr::new(raw);
            let symbol = tables
                .iter()
                .find(|(p, _)| p.index_of_pc(pc).is_some())
                .and_then(|(_, table)| {
                    let borrowed: Vec<(u64, &str)> =
                        table.iter().map(|(a, n)| (*a, n.as_str())).collect();
                    symbolize(pc, &borrowed)
                });
            HotPc {
                pc,
                samples: count,
                symbol,
            }
        })
        .collect();
    profile
        .hot_pcs
        .sort_unstable_by(|a, b| b.samples.cmp(&a.samples).then(a.pc.raw().cmp(&b.pc.raw())));
    Ok(profile)
}

impl DumpProfile {
    /// Renders the profile as a text report: hot-PC table (up to `top`
    /// rows), per-interval breakdown and race timeline.
    pub fn render_text(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} instructions replayed across {} intervals, {} sampled",
            self.total_instructions,
            self.intervals.len(),
            self.sampled_instructions,
        );
        for t in &self.unreplayable_threads {
            let _ = writeln!(out, "  (thread {} unreplayable: no program image)", t.0);
        }

        let _ = writeln!(out, "\nhot PCs (top {}):", top.min(self.hot_pcs.len()));
        let _ = writeln!(out, "  {:>8}  {:>6}  {:<12}  symbol", "samples", "%", "pc");
        for hot in self.hot_pcs.iter().take(top) {
            let pct = if self.sampled_instructions == 0 {
                0.0
            } else {
                100.0 * hot.samples as f64 / self.sampled_instructions as f64
            };
            let _ = writeln!(
                out,
                "  {:>8}  {:>5.1}%  {:#012x}  {}",
                hot.samples,
                pct,
                hot.pc.raw(),
                hot.symbol.as_deref().unwrap_or("?"),
            );
        }

        let _ = writeln!(out, "\nintervals:");
        let _ = writeln!(
            out,
            "  {:>6} {:>6} {:>12} {:>10} {:>10} {:>10} {:>6}  status",
            "thread", "cp", "instrs", "log-loads", "mem-loads", "dict-hits", "races"
        );
        for iv in &self.intervals {
            let replay = &iv.replay;
            let status = match (replay.matches(), replay.fault_reproduced.is_some()) {
                (true, true) => "ok, faulted",
                (true, false) => "ok",
                (false, true) => "DIVERGED, faulted",
                (false, false) => "DIVERGED",
            };
            let _ = writeln!(
                out,
                "  {:>6} {:>6} {:>12} {:>10} {:>10} {:>10} {:>6}  {}",
                replay.thread.0,
                replay.checkpoint.0,
                replay.instructions,
                replay.loads_from_log,
                replay.loads_from_memory,
                iv.dict_hits,
                iv.races,
                status,
            );
        }

        let _ = writeln!(out, "\nrace timeline ({} edges):", self.races.len());
        for r in &self.races {
            let _ = writeln!(
                out,
                "  t{} cp{} ic{} <- t{} cp{} ic{}",
                r.thread.0,
                r.checkpoint.0,
                r.local_ic,
                r.remote_thread.0,
                r.remote_checkpoint.0,
                r.remote_instructions,
            );
        }
        out
    }

    /// Emits the profile into `session` on a virtual timebase where one
    /// replayed instruction is one microsecond: per-thread tracks carry
    /// one `interval` span per interval (category `profile`), `race`
    /// instants at each MRL edge's local instruction count, and a
    /// `fault` instant at the end of a faulting interval.
    ///
    /// Size the session for at least `intervals + races + threads`
    /// events ([`TraceSession::with_capacity`]) or the rings will shed
    /// the oldest events.
    pub fn write_trace(&self, session: &TraceSession) {
        let mut threads: Vec<ThreadId> = self.intervals.iter().map(|iv| iv.replay.thread).collect();
        threads.dedup();
        for thread in threads {
            let mut tracer = session.thread(format!("profile-t{}", thread.0));
            let mut offset_ns = 0u64;
            let replays = self.intervals.iter().map(|iv| &iv.replay);
            for iv in replays.filter(|iv| iv.thread == thread) {
                let dur_ns = iv.instructions * VIRTUAL_NS_PER_INSTRUCTION;
                tracer.emit(
                    TraceEvent::span("interval", "profile", offset_ns, dur_ns)
                        .with_arg("instructions", iv.instructions),
                );
                for r in self
                    .races
                    .iter()
                    .filter(|r| r.thread == thread && r.checkpoint == iv.checkpoint)
                {
                    tracer.emit(
                        TraceEvent::instant(
                            "race",
                            "profile",
                            offset_ns + r.local_ic * VIRTUAL_NS_PER_INSTRUCTION,
                        )
                        .with_arg("remote_thread", r.remote_thread.0 as u64),
                    );
                }
                if iv.fault_reproduced.is_some() {
                    tracer.emit(TraceEvent::instant("fault", "profile", offset_ns + dur_ns));
                }
                offset_ns += dur_ns;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolize_picks_the_nearest_preceding_symbol() {
        let table = [(0x1000, "main"), (0x1040, "helper")];
        assert_eq!(
            symbolize(Addr::new(0x1000), &table).as_deref(),
            Some("main")
        );
        assert_eq!(
            symbolize(Addr::new(0x1008), &table).as_deref(),
            Some("main+0x8")
        );
        assert_eq!(
            symbolize(Addr::new(0x2000), &table).as_deref(),
            Some("helper+0xfc0")
        );
        assert_eq!(symbolize(Addr::new(0xfff), &table), None);
        assert_eq!(symbolize(Addr::new(0x1000), &[]), None);
    }
}
