//! Integration tests over the Table-1 bug suite: every injected defect
//! crashes, is recorded, and the crash is reproduced exactly by replaying the
//! First-Load Logs.

use bugnet::sim::MachineBuilder;
use bugnet::types::{BugNetConfig, ByteSize, ThreadId};
use bugnet::workloads::bugs::{BugClass, BugSpec};

fn machine_for(workload: &bugnet::workloads::Workload) -> bugnet::sim::Machine {
    MachineBuilder::new()
        .bugnet(
            BugNetConfig::default()
                .with_checkpoint_interval(50_000)
                .with_fll_region(ByteSize::from_mib(64)),
        )
        .build_with_workload(workload)
}

#[test]
fn all_table1_bugs_crash_and_replay_to_the_faulting_instruction() {
    for spec in BugSpec::all() {
        let workload = spec.build(0.01);
        let mut machine = machine_for(&workload);
        let outcome = machine.run_to_completion();
        let crashed = outcome
            .faulted_thread()
            .unwrap_or_else(|| panic!("{}: the defect must fire", spec.name));
        assert_eq!(crashed.thread, ThreadId(0), "{}", spec.name);

        let verification = machine.replay_and_verify().unwrap();
        assert!(
            verification.all_match(),
            "{}: replay diverged ({} failures)",
            spec.name,
            verification.divergences().len()
        );
        let faulting_interval = verification
            .intervals
            .iter()
            .rfind(|i| i.thread == ThreadId(0))
            .unwrap();
        assert_eq!(
            faulting_interval.fault_reproduced,
            Some(true),
            "{}: the crash must be reproduced at the recorded PC",
            spec.name
        );
    }
}

#[test]
fn measured_windows_track_the_papers_distances() {
    // At scale 0.1 the achieved windows should be within a few percent (plus
    // a small constant) of the scaled Table 1 values.
    for spec in BugSpec::all().into_iter().filter(|s| !s.multithreaded) {
        let scale = 0.1;
        let workload = spec.build(scale);
        let mut machine = machine_for(&workload);
        let outcome = machine.run_to_completion();
        let window = outcome
            .bug_window()
            .unwrap_or_else(|| panic!("{}: watched root cause must commit", spec.name));
        let target = spec.scaled_window(scale);
        assert!(
            window.abs_diff(target) <= target / 10 + 64,
            "{}: window {} vs target {}",
            spec.name,
            window,
            target
        );
    }
}

#[test]
fn fll_sizes_grow_with_the_replay_window() {
    // Figure 2's qualitative shape: bugs with longer windows need more FLL data.
    let short = BugSpec::all()[9]; // tidy-2, window 13
    let long = BugSpec::all()[1]; // gzip, window 32209
    let mut short_machine = machine_for(&short.build(1.0));
    short_machine.run_to_completion();
    let mut long_machine = machine_for(&long.build(1.0));
    long_machine.run_to_completion();
    let short_size = short_machine.log_report().fll_size;
    let long_size = long_machine.log_report().fll_size;
    assert!(
        long_size.bytes() > short_size.bytes(),
        "long {} vs short {}",
        long_size,
        short_size
    );
}

#[test]
fn fault_classes_cover_the_papers_variety() {
    use std::collections::HashSet;
    let mut observed = HashSet::new();
    for spec in BugSpec::all() {
        let workload = spec.build(0.01);
        let mut machine = machine_for(&workload);
        let outcome = machine.run_to_completion();
        let fault = outcome.faulted_thread().and_then(|t| t.fault).unwrap();
        observed.insert(std::mem::discriminant(&fault));
        // Null-function-pointer and stack-return bugs must crash on a wild jump.
        if matches!(
            spec.class,
            BugClass::NullFunctionPointer | BugClass::StackReturnOverflow
        ) {
            assert!(
                matches!(fault, bugnet::cpu::Fault::InvalidPc(_)),
                "{}",
                spec.name
            );
        }
    }
    assert!(
        observed.len() >= 3,
        "expected several distinct fault classes"
    );
}

#[test]
fn multithreaded_bugs_record_cross_thread_ordering() {
    let spec = BugSpec::all()
        .into_iter()
        .find(|s| s.name == "napster-1.5.2")
        .unwrap();
    let workload = spec.build(0.05);
    let mut machine = machine_for(&workload);
    let outcome = machine.run_to_completion();
    assert!(outcome.faulted_thread().is_some());
    let report = machine.log_report();
    assert!(
        report.mrl_entries > 0,
        "shared-region traffic must produce MRL entries"
    );
    let verification = machine.replay_and_verify().unwrap();
    assert!(verification.all_match());
}
