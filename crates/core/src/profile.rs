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
use bugnet_trace::{TraceEvent, TraceSession};
use bugnet_types::{Addr, CheckpointId, ThreadId};

use crate::dump::{CrashDump, ProgramSource};
use crate::replayer::{ReplayError, Replayer};

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
    /// Thread the interval belongs to.
    pub thread: ThreadId,
    /// Checkpoint identifier.
    pub checkpoint: CheckpointId,
    /// Instructions replayed.
    pub instructions: u64,
    /// Loads whose value came from the FLL.
    pub loads_from_log: u64,
    /// Loads regenerated from the replayed memory image.
    pub loads_from_memory: u64,
    /// FLL records that hit the value dictionary.
    pub dict_hits: u64,
    /// FLL records in the interval.
    pub records: u64,
    /// MRL ordering edges recorded in the interval.
    pub races: u64,
    /// Whether the replay digest matched the recorded one.
    pub digest_match: bool,
    /// Whether the interval ended in a fault.
    pub faulted: bool,
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

/// Re-executes every retained interval of `dump` through the sampling
/// hook and aggregates the profile. Program images resolve exactly as in
/// [`CrashDump::replay`]: embedded image first, `fallback` for threads
/// without one; threads with neither are reported as unreplayable.
///
/// # Errors
///
/// Returns the first [`ReplayError`] from an interval that cannot be
/// replayed at all.
pub fn profile_dump(
    dump: &CrashDump,
    fallback: impl FnMut(ThreadId) -> Option<Arc<Program>>,
    options: &ProfileOptions,
) -> Result<DumpProfile, ReplayError> {
    let mut source = ProgramSource::Embedded(fallback);
    let every = options.sample_every.max(1);
    let mut profile = DumpProfile::default();
    let mut samples: HashMap<u64, u64> = HashMap::new();
    let mut programs: Vec<Arc<Program>> = Vec::new();
    let mut tick = 0u64;

    for t in &dump.threads {
        let Some(program) = source.resolve(t) else {
            profile.unreplayable_threads.push(t.thread);
            continue;
        };
        if !programs.iter().any(|p| Arc::ptr_eq(p, &program)) {
            programs.push(Arc::clone(&program));
        }
        let replayer = Replayer::new(Arc::clone(&program));
        for cp in &t.checkpoints {
            let mut sampled = 0u64;
            let replayed = replayer.replay_interval_sampled(&cp.fll, &mut |pc| {
                if tick.is_multiple_of(every) {
                    *samples.entry(pc.raw()).or_insert(0) += 1;
                    sampled += 1;
                }
                tick += 1;
            })?;
            profile.sampled_instructions += sampled;
            profile.total_instructions += replayed.instructions;
            profile.intervals.push(IntervalProfile {
                thread: t.thread,
                checkpoint: cp.fll.header.checkpoint,
                instructions: replayed.instructions,
                loads_from_log: replayed.loads_from_log,
                loads_from_memory: replayed.loads_from_memory,
                dict_hits: cp.fll.dictionary_hits(),
                records: cp.fll.records(),
                races: cp.mrl.entries().len() as u64,
                digest_match: replayed.digest == cp.digest,
                faulted: cp.fll.fault.is_some(),
            });
            for e in cp.mrl.entries() {
                profile.races.push(RaceTimelineEntry {
                    thread: t.thread,
                    checkpoint: cp.fll.header.checkpoint,
                    local_ic: e.local_ic.0,
                    remote_thread: e.remote.thread,
                    remote_checkpoint: e.remote.checkpoint,
                    remote_instructions: e.remote.instructions.0,
                });
            }
        }
    }

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
            let status = match (iv.digest_match, iv.faulted) {
                (true, true) => "ok, faulted",
                (true, false) => "ok",
                (false, true) => "DIVERGED, faulted",
                (false, false) => "DIVERGED",
            };
            let _ = writeln!(
                out,
                "  {:>6} {:>6} {:>12} {:>10} {:>10} {:>10} {:>6}  {}",
                iv.thread.0,
                iv.checkpoint.0,
                iv.instructions,
                iv.loads_from_log,
                iv.loads_from_memory,
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
        let mut threads: Vec<ThreadId> = self.intervals.iter().map(|iv| iv.thread).collect();
        threads.dedup();
        for thread in threads {
            let mut tracer = session.thread(format!("profile-t{}", thread.0));
            let mut offset_ns = 0u64;
            for iv in self.intervals.iter().filter(|iv| iv.thread == thread) {
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
                if iv.faulted {
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
