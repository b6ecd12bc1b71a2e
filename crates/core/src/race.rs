//! Cross-thread ordering reconstruction and data-race inference (paper §5.2).
//!
//! Each thread replays independently from its FLLs; the Memory Race Logs then
//! provide ordering edges between threads: an MRL entry of thread *L* says
//! "the memory operation L performed at `local_ic` of checkpoint `C` happened
//! after instruction `remote_ic` of checkpoint `remote_cid` in thread *R*".
//! From the per-thread replay traces and these edges this module rebuilds a
//! valid sequentially-consistent interleaving and flags conflicting accesses
//! that are *not* ordered by any chain of edges — the candidate data races a
//! developer would inspect.

use std::collections::{BTreeMap, HashMap};

use bugnet_types::{Addr, CheckpointId, ThreadId};

use crate::recorder::CheckpointLogs;
use crate::replayer::{MemOp, ReplayedInterval};

/// A memory operation positioned in the global analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalOp {
    /// Thread that performed the operation.
    pub thread: ThreadId,
    /// Index of the interval within the thread's retained (replayed) sequence.
    pub interval_index: usize,
    /// Checkpoint identifier of that interval.
    pub checkpoint: CheckpointId,
    /// Committed instructions in the interval before the operation.
    pub ic: u64,
    /// Position of the operation in its thread's flattened trace.
    pub seq: usize,
    /// The operation itself.
    pub op: MemOp,
}

/// An ordering edge extracted from an MRL entry, resolved to interval indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingEdge {
    /// Thread that logged the entry (the later side of the edge).
    pub local_thread: ThreadId,
    /// Interval index of the local side.
    pub local_interval: usize,
    /// Local instruction count at which the reply was received.
    pub local_ic: u64,
    /// Remote thread (the earlier side of the edge).
    pub remote_thread: ThreadId,
    /// Interval index of the remote side.
    pub remote_interval: usize,
    /// Remote instruction count carried by the reply.
    pub remote_ic: u64,
}

/// A pair of conflicting accesses with no ordering path between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceCandidate {
    /// One side of the race.
    pub first: GlobalOp,
    /// The other side.
    pub second: GlobalOp,
    /// The contended address.
    pub addr: Addr,
}

/// Result of the cross-thread analysis.
#[derive(Debug, Clone, Default)]
pub struct RaceAnalysis {
    /// All ordering edges that resolved to retained intervals.
    pub edges: Vec<OrderingEdge>,
    /// Edges whose remote interval is no longer retained (evicted logs).
    pub unresolved_edges: u64,
    /// A valid sequential interleaving of every traced memory operation,
    /// consistent with program order and all edges.
    pub schedule: Vec<GlobalOp>,
    /// Conflicting, unordered access pairs (capped by the analysis limit).
    pub races: Vec<RaceCandidate>,
}

impl RaceAnalysis {
    /// Whether any candidate data race was found.
    pub fn has_races(&self) -> bool {
        !self.races.is_empty()
    }
}

/// Per-thread input to the analysis: the retained logs and the corresponding
/// trace-capturing replays (same order).
#[derive(Debug, Clone)]
pub struct ThreadHistory<'a> {
    /// The thread.
    pub thread: ThreadId,
    /// Retained logs, oldest first.
    pub logs: &'a [CheckpointLogs],
    /// Replay of each retained interval, with traces captured.
    pub replays: &'a [ReplayedInterval],
}

#[derive(Debug)]
struct ThreadState {
    ops: Vec<GlobalOp>,
    cursor: usize,
    // Instructions committed in intervals before interval i (prefix sums).
    interval_instr_offset: Vec<u64>,
    instructions_done: u64,
}

fn global_instr(offsets: &[u64], interval: usize, ic: u64) -> u64 {
    offsets[interval] + ic
}

/// Runs the cross-thread ordering and race analysis.
///
/// `max_race_pairs` bounds the number of reported candidate pairs (the
/// analysis itself considers every conflicting pair).
pub fn analyze(histories: &[ThreadHistory<'_>], max_race_pairs: usize) -> RaceAnalysis {
    // Map (thread, checkpoint id) -> interval index, for resolving MRL entries.
    let mut interval_of: HashMap<(ThreadId, CheckpointId), usize> = HashMap::new();
    for h in histories {
        for (i, logs) in h.logs.iter().enumerate() {
            interval_of.insert((h.thread, logs.fll.header.checkpoint), i);
        }
    }

    // Flatten per-thread ops and prefix instruction offsets.
    let mut states: BTreeMap<ThreadId, ThreadState> = BTreeMap::new();
    for h in histories {
        let mut ops = Vec::new();
        let mut offsets = Vec::with_capacity(h.replays.len() + 1);
        let mut total = 0u64;
        for (i, replay) in h.replays.iter().enumerate() {
            offsets.push(total);
            for op in &replay.trace {
                ops.push(GlobalOp {
                    thread: h.thread,
                    interval_index: i,
                    checkpoint: replay.checkpoint,
                    ic: op.ic,
                    seq: 0,
                    op: *op,
                });
            }
            total += replay.instructions;
        }
        offsets.push(total);
        for (seq, op) in ops.iter_mut().enumerate() {
            op.seq = seq;
        }
        states.insert(
            h.thread,
            ThreadState {
                ops,
                cursor: 0,
                interval_instr_offset: offsets,
                instructions_done: 0,
            },
        );
    }

    // Resolve edges.
    let mut edges: Vec<OrderingEdge> = Vec::new();
    let mut unresolved = 0u64;
    for h in histories {
        for (i, logs) in h.logs.iter().enumerate() {
            for entry in logs.mrl.entries() {
                match interval_of.get(&(entry.remote.thread, entry.remote.checkpoint)) {
                    Some(&remote_interval) => edges.push(OrderingEdge {
                        local_thread: h.thread,
                        local_interval: i,
                        local_ic: entry.local_ic.0,
                        remote_thread: entry.remote.thread,
                        remote_interval,
                        remote_ic: entry.remote.instructions.0,
                    }),
                    None => unresolved += 1,
                }
            }
        }
    }

    // Group incoming edges by local thread for the merge.
    let mut edges_by_local: HashMap<ThreadId, Vec<&OrderingEdge>> = HashMap::new();
    for e in &edges {
        edges_by_local.entry(e.local_thread).or_default().push(e);
    }

    // Kahn-style merge: repeatedly advance a thread whose next operation has
    // all of its incoming edges satisfied (the remote thread has already
    // executed past the referenced instruction count).
    let mut schedule: Vec<GlobalOp> = Vec::new();
    let thread_ids: Vec<ThreadId> = states.keys().copied().collect();
    loop {
        let mut progressed = false;
        for &tid in &thread_ids {
            loop {
                // Find the next op and check whether its constraints are satisfied.
                let (op, required): (GlobalOp, Vec<(ThreadId, u64)>) = {
                    let state = &states[&tid];
                    let Some(op) = state.ops.get(state.cursor).copied() else {
                        break;
                    };
                    let local_global_ic =
                        global_instr(&state.interval_instr_offset, op.interval_index, op.ic);
                    let required = edges_by_local
                        .get(&tid)
                        .map(|es| {
                            es.iter()
                                .filter(|e| {
                                    let edge_global_ic = global_instr(
                                        &state.interval_instr_offset,
                                        e.local_interval,
                                        e.local_ic,
                                    );
                                    edge_global_ic <= local_global_ic
                                })
                                .map(|e| {
                                    let remote_offsets =
                                        &states[&e.remote_thread].interval_instr_offset;
                                    (
                                        e.remote_thread,
                                        global_instr(
                                            remote_offsets,
                                            e.remote_interval,
                                            e.remote_ic,
                                        ),
                                    )
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    (op, required)
                };
                let satisfied = required
                    .iter()
                    .all(|(rt, ric)| *rt == tid || states[rt].instructions_done >= *ric);
                if !satisfied {
                    break;
                }
                // Commit the op and advance the thread's frontier.
                let state = states.get_mut(&tid).expect("thread exists");
                state.cursor += 1;
                state.instructions_done =
                    global_instr(&state.interval_instr_offset, op.interval_index, op.ic + 1);
                schedule.push(op);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // If some ops could not be scheduled (cyclic or missing info), append them
    // in thread order so the schedule is still complete for inspection.
    for state in states.values_mut() {
        while state.cursor < state.ops.len() {
            schedule.push(state.ops[state.cursor]);
            state.cursor += 1;
        }
    }

    // Happens-before between two ops: a chain of edges and program order.
    // Recompute simple per-op vector clocks from the schedule: as ops appear
    // in the (valid) schedule, each op's clock is its thread's clock after the
    // edge joins performed above. For race detection we use a coarser but
    // sound criterion: two conflicting ops are considered ordered if there is
    // any edge chain connecting them; we approximate chains with the
    // per-thread "instructions completed" frontier implied by the edges.
    let mut hb: HashMap<(ThreadId, ThreadId), Vec<(u64, u64)>> = HashMap::new();
    for e in &edges {
        let local_offsets = &states[&e.local_thread].interval_instr_offset;
        let remote_offsets = &states[&e.remote_thread].interval_instr_offset;
        hb.entry((e.remote_thread, e.local_thread))
            .or_default()
            .push((
                global_instr(remote_offsets, e.remote_interval, e.remote_ic),
                global_instr(local_offsets, e.local_interval, e.local_ic),
            ));
    }

    let ordered = |a: &GlobalOp, b: &GlobalOp, states: &BTreeMap<ThreadId, ThreadState>| -> bool {
        // Is a ordered before b (or b before a) by some edge between their threads?
        let a_ic = global_instr(
            &states[&a.thread].interval_instr_offset,
            a.interval_index,
            a.ic,
        );
        let b_ic = global_instr(
            &states[&b.thread].interval_instr_offset,
            b.interval_index,
            b.ic,
        );
        let forward = hb
            .get(&(a.thread, b.thread))
            .is_some_and(|pairs| pairs.iter().any(|(r, l)| a_ic < *r && *l <= b_ic));
        let backward = hb
            .get(&(b.thread, a.thread))
            .is_some_and(|pairs| pairs.iter().any(|(r, l)| b_ic < *r && *l <= a_ic));
        forward || backward
    };

    // Conflicting accesses grouped by address, in address order, so which
    // pairs fit under `max_race_pairs`, and their order, never vary.
    let mut by_addr: BTreeMap<Addr, Vec<GlobalOp>> = BTreeMap::new();
    for op in &schedule {
        by_addr.entry(op.op.addr).or_default().push(*op);
    }
    let mut races = Vec::new();
    'outer: for ops in by_addr.values() {
        for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                let (a, b) = (&ops[i], &ops[j]);
                if a.thread == b.thread {
                    continue;
                }
                if !a.op.is_store && !b.op.is_store {
                    continue;
                }
                if !ordered(a, b, &states) {
                    races.push(RaceCandidate {
                        first: *a,
                        second: *b,
                        addr: a.op.addr,
                    });
                    if races.len() >= max_race_pairs {
                        break 'outer;
                    }
                }
            }
        }
    }

    RaceAnalysis {
        edges,
        unresolved_edges: unresolved,
        schedule,
        races,
    }
}

/// Convenience: how far (in committed instructions) a thread's retained
/// replay window reaches, computed from the replayed intervals.
pub fn replay_window_instructions(replays: &[ReplayedInterval]) -> u64 {
    replays.iter().map(|r| r.instructions).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugnet_types::{InstrCount as IC, Word};

    // Build minimal synthetic histories without running the full machine: we
    // construct CheckpointLogs via the recorder and fabricate matching replay
    // traces, because this module only consumes their public shape.
    use crate::fll::TerminationCause;
    use crate::recorder::ThreadRecorder;
    use bugnet_cpu::ArchState;
    use bugnet_types::{BugNetConfig, ProcessId, Timestamp};

    fn logs_for(
        thread: u32,
        entries: &[(u64, u32, u32, u64)],
        instructions: u64,
    ) -> CheckpointLogs {
        let mut r = ThreadRecorder::new(
            BugNetConfig::default().with_checkpoint_interval(1_000_000),
            ProcessId(1),
            ThreadId(thread),
        );
        r.begin_interval(ArchState::default(), Timestamp(thread as u64));
        let mut sorted: Vec<_> = entries.to_vec();
        sorted.sort_by_key(|e| e.0);
        let mut done = 0u64;
        for &(local_ic, rt, rcid, ric) in &sorted {
            while done < local_ic {
                r.record_committed_instruction();
                done += 1;
            }
            r.record_coherence_reply(crate::mrl::RemoteExecState {
                thread: ThreadId(rt),
                checkpoint: CheckpointId(rcid),
                instructions: IC(ric),
            });
        }
        while done < instructions {
            r.record_committed_instruction();
            done += 1;
        }
        r.end_interval(TerminationCause::IntervalFull, &ArchState::default())
            .unwrap()
    }

    fn replay_with_trace(
        thread: u32,
        checkpoint: u32,
        instructions: u64,
        trace: Vec<MemOp>,
    ) -> ReplayedInterval {
        ReplayedInterval {
            thread: ThreadId(thread),
            checkpoint: CheckpointId(checkpoint),
            instructions,
            loads_from_log: 0,
            loads_from_memory: 0,
            final_state: ArchState::default(),
            digest: crate::digest::ExecutionDigest::new(),
            observed_fault: None,
            trace,
        }
    }

    fn op(ic: u64, addr: u64, store: bool) -> MemOp {
        MemOp {
            ic,
            addr: Addr::new(addr),
            value: Word::new(1),
            is_store: store,
        }
    }

    #[test]
    fn ordered_accesses_are_not_races() {
        // Thread 0 writes X at ic 5; thread 1 reads X at ic 10 and its MRL
        // says "my interval is ordered after thread 0's instruction 6".
        let t0_logs = vec![logs_for(0, &[], 20)];
        let t1_logs = vec![logs_for(1, &[(10, 0, 0, 6)], 20)];
        let t0_replays = vec![replay_with_trace(0, 0, 20, vec![op(5, 0x1000, true)])];
        let t1_replays = vec![replay_with_trace(1, 0, 20, vec![op(10, 0x1000, false)])];
        let analysis = analyze(
            &[
                ThreadHistory {
                    thread: ThreadId(0),
                    logs: &t0_logs,
                    replays: &t0_replays,
                },
                ThreadHistory {
                    thread: ThreadId(1),
                    logs: &t1_logs,
                    replays: &t1_replays,
                },
            ],
            16,
        );
        assert_eq!(analysis.edges.len(), 1);
        assert_eq!(analysis.schedule.len(), 2);
        // The write is scheduled before the read.
        assert_eq!(analysis.schedule[0].thread, ThreadId(0));
        assert!(!analysis.has_races());
    }

    #[test]
    fn unordered_conflicting_accesses_are_flagged() {
        let t0_logs = vec![logs_for(0, &[], 20)];
        let t1_logs = vec![logs_for(1, &[], 20)];
        let t0_replays = vec![replay_with_trace(0, 0, 20, vec![op(5, 0x2000, true)])];
        let t1_replays = vec![replay_with_trace(1, 0, 20, vec![op(7, 0x2000, true)])];
        let analysis = analyze(
            &[
                ThreadHistory {
                    thread: ThreadId(0),
                    logs: &t0_logs,
                    replays: &t0_replays,
                },
                ThreadHistory {
                    thread: ThreadId(1),
                    logs: &t1_logs,
                    replays: &t1_replays,
                },
            ],
            16,
        );
        assert!(analysis.has_races());
        assert_eq!(analysis.races[0].addr, Addr::new(0x2000));
    }

    #[test]
    fn read_read_sharing_is_not_a_race() {
        let t0_logs = vec![logs_for(0, &[], 10)];
        let t1_logs = vec![logs_for(1, &[], 10)];
        let t0_replays = vec![replay_with_trace(0, 0, 10, vec![op(1, 0x3000, false)])];
        let t1_replays = vec![replay_with_trace(1, 0, 10, vec![op(2, 0x3000, false)])];
        let analysis = analyze(
            &[
                ThreadHistory {
                    thread: ThreadId(0),
                    logs: &t0_logs,
                    replays: &t0_replays,
                },
                ThreadHistory {
                    thread: ThreadId(1),
                    logs: &t1_logs,
                    replays: &t1_replays,
                },
            ],
            16,
        );
        assert!(!analysis.has_races());
    }

    #[test]
    fn edges_to_evicted_intervals_are_counted() {
        let t0_logs = vec![logs_for(0, &[(1, 1, 99, 5)], 10)];
        let t0_replays = vec![replay_with_trace(0, 0, 10, vec![])];
        let analysis = analyze(
            &[ThreadHistory {
                thread: ThreadId(0),
                logs: &t0_logs,
                replays: &t0_replays,
            }],
            16,
        );
        assert_eq!(analysis.unresolved_edges, 1);
        assert!(analysis.edges.is_empty());
    }

    #[test]
    fn replay_window_sums_instructions() {
        let replays = vec![
            replay_with_trace(0, 0, 10, vec![]),
            replay_with_trace(0, 1, 32, vec![]),
        ];
        assert_eq!(replay_window_instructions(&replays), 42);
    }
}
