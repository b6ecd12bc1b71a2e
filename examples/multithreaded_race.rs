//! Multithreaded recording: Memory Race Logs and data-race inference.
//!
//! Records a correctly-locked shared counter and an unsynchronized (racy)
//! one, replays both, and shows that the ordering information captured by the
//! Memory Race Logs lets the offline analysis flag the racy accesses while
//! the locked version stays clean.
//!
//! Run with: `cargo run --release --example multithreaded_race`

use bugnet::sim::MachineBuilder;
use bugnet::types::BugNetConfig;
use bugnet::workloads::mt;

fn investigate(name: &str, workload: &bugnet::workloads::Workload) {
    let mut machine = MachineBuilder::new()
        .bugnet(BugNetConfig::default().with_checkpoint_interval(50_000))
        .build_with_workload(workload);
    let outcome = machine.run_to_completion();
    let report = machine.log_report();
    println!("== {name} ==");
    println!(
        "  {} threads, {} instructions, {} coherence-ordered MRL entries",
        workload.thread_count(),
        outcome.total_committed(),
        report.mrl_entries
    );
    let verification = machine.replay_and_verify().expect("replayable");
    println!(
        "  per-thread replay: {} intervals, deterministic = {}",
        verification.intervals.len(),
        verification.all_match()
    );
    let analysis = machine.race_analysis(16).expect("analysis runs");
    println!(
        "  ordering edges: {} (unresolved {}), candidate races: {}",
        analysis.edges.len(),
        analysis.unresolved_edges,
        analysis.races.len()
    );
    for race in analysis.races.iter().take(3) {
        println!(
            "    race on {} between {} (ic {}) and {} (ic {})",
            race.addr, race.first.thread, race.first.ic, race.second.thread, race.second.ic
        );
    }
    println!();
}

fn main() {
    investigate("locked counter (spin lock)", &mt::locked_counter(2, 1_000));
    investigate("racy counter (no lock)", &mt::racy_counter(2, 1_000));
    investigate("producer / consumer", &mt::producer_consumer(256));
}
