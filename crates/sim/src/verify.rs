//! Replay-based verification and cross-thread analysis.
//!
//! After a recorded run, every retained checkpoint interval is replayed from
//! its First-Load Log alone and the replay's execution digest (loads, stores,
//! final register state) is compared against the digest captured during
//! recording. A match means the interval was reproduced instruction-for-
//! instruction — the determinism property the paper's mechanism provides.
//! The check is [`replay_and_check`], the loop a loaded crash dump replays
//! through, so an in-memory run and its dump report alike.

use std::collections::BTreeMap;

use bugnet_core::dump::{replay_and_check, DumpReplayReport};
use bugnet_core::race::{analyze, RaceAnalysis, ThreadHistory};
use bugnet_core::recorder::CheckpointLogs;
use bugnet_core::replayer::{ReplayError, ReplayedInterval, Replayer};
use bugnet_telemetry::Probe;
use bugnet_types::ThreadId;

use crate::machine::Machine;

impl Machine {
    /// Replays every retained interval of every thread and checks that the
    /// replay reproduces the recorded execution exactly. A machine without
    /// a recorder returns an empty report.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] if a log cannot be decoded or replayed at
    /// all; mismatches that still replay are reported in the
    /// [`DumpReplayReport`] instead.
    pub fn replay_and_verify(&self) -> Result<DumpReplayReport, ReplayError> {
        let Some(store) = self.log_store() else {
            return Ok(DumpReplayReport::default());
        };
        let threads = store.threads().into_iter().map(|thread| {
            let intervals = store.thread_logs(thread).iter().map(|s| &s.logs);
            (thread, self.program_of(thread), intervals)
        });
        replay_and_check(threads, &mut Probe::off())
    }

    /// Replays every thread with memory-operation tracing and runs the
    /// cross-thread ordering / data-race analysis over the MRLs.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] if any interval cannot be replayed.
    pub fn race_analysis(&self, max_race_pairs: usize) -> Result<RaceAnalysis, ReplayError> {
        let Some(store) = self.log_store() else {
            return Ok(RaceAnalysis::default());
        };
        let mut logs_by_thread: BTreeMap<ThreadId, Vec<CheckpointLogs>> = BTreeMap::new();
        let mut replays_by_thread: BTreeMap<ThreadId, Vec<ReplayedInterval>> = BTreeMap::new();
        for thread in store.threads() {
            let Some(program) = self.program_of(thread) else {
                continue;
            };
            let replayer = Replayer::new(program).with_trace_capture(true);
            let logs = store.dump_thread(thread);
            let replays = replayer.replay_thread(&logs)?;
            logs_by_thread.insert(thread, logs);
            replays_by_thread.insert(thread, replays);
        }
        let histories: Vec<ThreadHistory<'_>> = logs_by_thread
            .iter()
            .map(|(thread, logs)| ThreadHistory {
                thread: *thread,
                logs,
                replays: &replays_by_thread[thread],
            })
            .collect();
        Ok(analyze(&histories, max_race_pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use bugnet_types::BugNetConfig;
    use bugnet_workloads::bugs::BugSpec;
    use bugnet_workloads::mt;
    use bugnet_workloads::spec::SpecProfile;

    fn cfg(interval: u64) -> BugNetConfig {
        BugNetConfig::default().with_checkpoint_interval(interval)
    }

    #[test]
    fn spec_profile_run_verifies_deterministically() {
        let workload = SpecProfile::vpr().build_workload(25_000, 1);
        let mut machine = MachineBuilder::new()
            .bugnet(cfg(4_000))
            .build_with_workload(&workload);
        machine.run_to_completion();
        let report = machine.replay_and_verify().unwrap();
        assert!(report.intervals.len() >= 5);
        assert_eq!(report.divergences().len(), 0);
        assert!(report.all_match());
        assert!(report.instructions() > 20_000);
    }

    #[test]
    fn buggy_run_reproduces_the_crash_under_replay() {
        let spec = BugSpec::all()[6]; // gnuplot null dereference, window 782
        let workload = spec.build(1.0);
        let mut machine = MachineBuilder::new()
            .bugnet(cfg(50_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(outcome.faulted_thread().is_some());
        let report = machine.replay_and_verify().unwrap();
        assert!(report.all_match());
        // The last interval of thread 0 is the faulting one and must have
        // reproduced the fault at the recorded PC.
        let faulting = report
            .intervals
            .iter()
            .rfind(|i| i.thread == ThreadId(0))
            .unwrap();
        assert_eq!(faulting.fault_reproduced, Some(true));
    }

    #[test]
    fn interrupted_and_syscalled_runs_still_verify() {
        use bugnet_types::MachineConfig;
        let workload = SpecProfile::art().build_workload(30_000, 1);
        let mut machine = MachineBuilder::new()
            .machine(MachineConfig {
                timer_interrupt_period: Some(5_000),
                ..MachineConfig::default()
            })
            .bugnet(cfg(1_000_000))
            .build_with_workload(&workload);
        let outcome = machine.run_to_completion();
        assert!(outcome.interrupts > 0);
        let report = machine.replay_and_verify().unwrap();
        assert!(report.all_match());
    }

    #[test]
    fn multithreaded_locked_counter_verifies_and_orders() {
        let workload = mt::locked_counter(2, 300);
        let mut machine = MachineBuilder::new()
            .bugnet(cfg(20_000))
            .build_with_workload(&workload);
        machine.run_to_completion();
        let report = machine.replay_and_verify().unwrap();
        assert!(report.all_match());
        let analysis = machine.race_analysis(32).unwrap();
        // The coherence traffic produced ordering edges.
        assert!(!analysis.edges.is_empty() || analysis.unresolved_edges > 0);
    }

    #[test]
    fn racy_counter_shows_candidate_races() {
        let workload = mt::racy_counter(2, 400);
        let mut machine = MachineBuilder::new()
            .bugnet(cfg(50_000))
            .build_with_workload(&workload);
        machine.run_to_completion();
        let report = machine.replay_and_verify().unwrap();
        assert!(report.all_match());
        let analysis = machine.race_analysis(64).unwrap();
        assert!(analysis.has_races(), "unsynchronized counter must race");
    }

    #[test]
    fn machine_without_recorder_verifies_trivially() {
        let workload = SpecProfile::gzip().build_workload(5_000, 1);
        let mut machine = MachineBuilder::new().build_with_workload(&workload);
        machine.run_to_completion();
        let report = machine.replay_and_verify().unwrap();
        assert!(report.intervals.is_empty());
        assert!(!report.all_match());
    }
}
