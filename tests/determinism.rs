//! Cross-crate integration tests for the central claim of the paper:
//! recording first-load values plus initial register state is sufficient to
//! deterministically replay the application, across interrupts, syscalls,
//! DMA and context switches.

use bugnet::sim::MachineBuilder;
use bugnet::types::{BugNetConfig, ByteSize, MachineConfig, ThreadId, MAX_DICTIONARY_ENTRIES};
use bugnet::workloads::spec::SpecProfile;

fn cfg(interval: u64) -> BugNetConfig {
    BugNetConfig::default()
        .with_checkpoint_interval(interval)
        .with_fll_region(ByteSize::from_mib(64))
}

#[test]
fn every_spec_profile_replays_deterministically() {
    // The replayer rebuilds its dictionary from each FLL's codec, so replay
    // must hold at the default 64 entries and away from it: a single entry,
    // one past a 64-rank bitset word, and the largest the format allows.
    for entries in [64, 1, 65, MAX_DICTIONARY_ENTRIES] {
        for profile in SpecProfile::all() {
            let workload = profile.build_workload(15_000, 1);
            let mut machine = MachineBuilder::new()
                .bugnet(cfg(3_000).with_dictionary_entries(entries))
                .build_with_workload(&workload);
            let outcome = machine.run_to_completion();
            assert!(outcome.threads[0].halted, "{} must halt", profile.name);
            let verification = machine.replay_and_verify().unwrap();
            assert!(
                verification.all_verified(),
                "{} with {entries} dictionary entries: {} of {} intervals failed verification",
                profile.name,
                verification.failures(),
                verification.intervals.len()
            );
            assert_eq!(verification.instructions(), outcome.total_committed());
        }
    }
}

#[test]
fn replay_survives_frequent_interrupts_and_tiny_intervals() {
    let workload = SpecProfile::mcf().build_workload(20_000, 1);
    let mut machine = MachineBuilder::new()
        .machine(MachineConfig {
            timer_interrupt_period: Some(1_700),
            ..MachineConfig::default()
        })
        .bugnet(cfg(900))
        .build_with_workload(&workload);
    let outcome = machine.run_to_completion();
    assert!(outcome.interrupts >= 10);
    let verification = machine.replay_and_verify().unwrap();
    assert!(verification.all_verified());
    // Many interval terminations => many FLLs.
    assert!(verification.intervals.len() >= 20);
}

#[test]
fn replay_covers_external_input_delivered_by_dma() {
    use bugnet::isa::{AluOp, BranchCond, ProgramBuilder, Reg, SyscallCode};
    use bugnet::workloads::Workload;
    use std::sync::Arc;

    // Ask the kernel for input twice and checksum it; the values only exist
    // in the logs (they are produced by the kernel's DMA), so a digest match
    // proves external input is captured by first-load logging.
    let mut b = ProgramBuilder::new("input-checksum");
    let buf = b.alloc_zeroed(128);
    b.li_addr(Reg::R3, buf);
    b.li(Reg::R4, 128);
    b.syscall(SyscallCode::ReadInput);
    b.li(Reg::R5, 0);
    b.li(Reg::R6, 128);
    b.li(Reg::R9, 0);
    let top = b.here();
    b.alu_imm(AluOp::Shl, Reg::R7, Reg::R5, 2);
    b.alu(AluOp::Add, Reg::R7, Reg::R3, Reg::R7);
    b.load(Reg::R8, Reg::R7, 0);
    b.alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R8);
    b.alu_imm(AluOp::Add, Reg::R5, Reg::R5, 1);
    b.branch(BranchCond::Lt, Reg::R5, Reg::R6, top);
    // Second round of input into the same buffer.
    b.syscall(SyscallCode::ReadInput);
    b.li(Reg::R5, 0);
    let top2 = b.here();
    b.alu_imm(AluOp::Shl, Reg::R7, Reg::R5, 2);
    b.alu(AluOp::Add, Reg::R7, Reg::R3, Reg::R7);
    b.load(Reg::R8, Reg::R7, 0);
    b.alu(AluOp::Xor, Reg::R9, Reg::R9, Reg::R8);
    b.alu_imm(AluOp::Add, Reg::R5, Reg::R5, 1);
    b.branch(BranchCond::Lt, Reg::R5, Reg::R6, top2);
    b.halt();
    let workload = Workload::single("input-checksum", Arc::new(b.build()));

    let mut machine = MachineBuilder::new()
        .bugnet(cfg(1_000_000))
        .build_with_workload(&workload);
    let outcome = machine.run_to_completion();
    assert_eq!(outcome.syscalls, 2);
    assert!(outcome.threads[0].halted);
    let verification = machine.replay_and_verify().unwrap();
    assert!(verification.all_verified());
    // Each syscall terminates an interval, so at least 3 intervals exist.
    assert!(verification.intervals.len() >= 3);
}

#[test]
fn bounded_log_region_still_replays_the_retained_window() {
    // Give BugNet a tiny memory-backed region so old checkpoints are evicted,
    // then check the retained suffix still replays and covers the advertised
    // replay window.
    let workload = SpecProfile::art().build_workload(200_000, 1);
    let tight = BugNetConfig::default()
        .with_checkpoint_interval(2_000)
        .with_fll_region(ByteSize::from_kib(64));
    let mut machine = MachineBuilder::new()
        .bugnet(tight)
        .build_with_workload(&workload);
    machine.run_to_completion();
    let store = machine.log_store().unwrap();
    assert!(store.evicted_checkpoints() > 0, "eviction must kick in");
    assert!(store.total_fll_size() <= ByteSize::from_kib(64));
    let window = store.replay_window(ThreadId(0));
    assert!(window > 0);
    let verification = machine.replay_and_verify().unwrap();
    assert!(verification.all_verified());
    assert_eq!(verification.instructions(), window);
}

#[test]
fn recording_is_transparent_to_the_application() {
    // The recorded run and an unrecorded run of the same workload commit the
    // same number of instructions and end in the same state: recording has no
    // architectural side effects.
    for profile in SpecProfile::all() {
        let workload = profile.build_workload(12_000, 1);
        let mut plain = MachineBuilder::new().build_with_workload(&workload);
        let plain_outcome = plain.run_to_completion();
        let mut recorded = MachineBuilder::new()
            .bugnet(cfg(1_000))
            .build_with_workload(&workload);
        let recorded_outcome = recorded.run_to_completion();
        assert_eq!(
            plain_outcome.total_committed(),
            recorded_outcome.total_committed(),
            "{}",
            profile.name
        );
        assert_eq!(
            plain_outcome.threads[0].halted, recorded_outcome.threads[0].halted,
            "{}",
            profile.name
        );
        assert_eq!(
            plain.memory(),
            recorded.memory(),
            "{}: recording changed the final memory",
            profile.name
        );
    }
}
