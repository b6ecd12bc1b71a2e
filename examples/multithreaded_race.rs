//! Multithreaded recording: Memory Race Logs and data-race inference.
//!
//! Records a correctly-locked shared counter, an unsynchronized (racy) one
//! and a producer/consumer pair, replays all three, and runs the offline
//! race analysis over the orderings their Memory Race Logs captured. The
//! analysis flags the racy counter's unordered increments. It flags the
//! locked counter too: once a thread halts, its core runs no thread, so the
//! coherence replies to the other thread's later accesses are not logged,
//! and the halted thread's last accesses look unordered against them. Each
//! report stops at 16 candidate pairs, taken in address order, so two runs
//! print the same bytes.
//!
//! Run with: `cargo run --release --example multithreaded_race`

use bugnet::core::race::GlobalOp;
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
            "    race on {} between {} and {}",
            race.addr,
            side(&race.first),
            side(&race.second)
        );
    }
    println!();
}

/// One side of a race: its thread, access kind, value and instruction count.
/// An atomic swap is a load and a store at one count, so the kind tells its
/// two races apart.
fn side(op: &GlobalOp) -> String {
    let kind = if op.op.is_store { "store" } else { "load" };
    format!("{} {kind} {} (ic {})", op.thread, op.op.value.get(), op.ic)
}

fn main() {
    investigate("locked counter (spin lock)", &mt::locked_counter(2, 1_000));
    investigate("racy counter (no lock)", &mt::racy_counter(2, 1_000));
    investigate("producer / consumer", &mt::producer_consumer(256));
}
