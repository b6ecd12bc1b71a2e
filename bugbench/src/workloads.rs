//! The five workloads: what each runs, in which order, and how its loop is
//! shaped. Every workload is a closed loop with one caller: an operation
//! starts when the previous one has finished.
//!
//! `--seed` only generates inputs: the data the SPEC-like kernels run over,
//! the sizes of the multithreaded kernels and the order in which a workload
//! visits its inputs. The same seed gives the same inputs, so the counts a
//! run reports (log and dump bytes, hit rates, probes) repeat exactly.

use std::time::{Duration, Instant};

use bugnet_sim::RecordingOptions;
use bugnet_types::SplitMix64;
use bugnet_workloads::bugs::BugSpec;
use bugnet_workloads::mt::{locked_counter, producer_consumer, racy_counter};
use bugnet_workloads::spec::SpecProfile;
use bugnet_workloads::Workload;

use crate::harness::{self, Ctx, Input};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "record-gzip",
    "record-mcf",
    "mt-share",
    "crash-burst",
    "replay-mcf",
];

/// How much work one input is: the real sizes, or about 1% of them for a
/// quick check that everything runs and every metric is emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// About 1% of the work.
    Smoke,
}

impl Scale {
    fn of(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 100).max(1),
        }
    }
}

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// How long the measured loop runs, in seconds.
    pub seconds: u32,
    /// Input sizes.
    pub scale: Scale,
}

/// Set-ups a run times at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// Time a full-scale run spends on set-ups at least. Short set-ups repeat
/// until the first few, which fault in the process's memory and run up to
/// twice as slow, no longer sway the median.
const MIN_SETUP_TIME: Duration = Duration::from_secs(2);

/// Distinct programs a SPEC-like workload cycles through.
const SPEC_PROGRAMS: u64 = 7;

/// Instructions of one SPEC-like program run.
const SPEC_INSTRS: u64 = 1_000_000;

/// Instructions of the recording the replay workload investigates.
const REPLAY_INSTRS: u64 = 2_000_000;

/// Bug-window scale of the crash incidents: the paper's distances.
const BUG_SCALE: f64 = 1.0;

/// Largest paper window among the crash incidents' bugs.
const MAX_BUG_WINDOW: u64 = 50_000;

/// Runs workload `name`; the samples land in `ctx`.
///
/// # Errors
///
/// An unknown name, or a set-up that failed.
pub fn run(name: &str, ctx: &mut Ctx, args: RunArgs) -> Result<(), String> {
    match name {
        "record-gzip" => incident_loop(ctx, args, |seed, scale| {
            spec_inputs(SpecProfile::gzip(), seed, scale)
        }),
        "record-mcf" => incident_loop(ctx, args, |seed, scale| {
            spec_inputs(SpecProfile::mcf(), seed, scale)
        }),
        "mt-share" => incident_loop(ctx, args, mt_inputs),
        "crash-burst" => incident_loop(ctx, args, bug_inputs),
        "replay-mcf" => replay_loop(ctx, args),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            NAMES.join(", ")
        )),
    }
}

fn single_core(workload: Workload, expect_fault: bool) -> Input {
    Input {
        workload,
        opts: RecordingOptions::default(),
        expect_fault,
    }
}

/// A program of `profile` whose kernel (the generated loop body) is fixed by
/// `kernel` alone, while `data` — passed as the seed offset — picks the
/// working-set contents and the start of the address generator.
///
/// `build_program` seeds its kernel generator with
/// `profile.seed ^ offset * 0x9E37_79B9` and its data generator with
/// `profile.seed ^ 0x51ab ^ offset`; mixing `data * 0x9E37_79B9` into the
/// profile seed cancels the offset out of the kernel only. Different seeds
/// thus run the same instruction mix over different data, so a run-to-run
/// difference is the system's and not a different mix of kernels.
fn spec_program(profile: &SpecProfile, instrs: u64, kernel: u64, data: u64) -> Input {
    let fixed_kernel = SpecProfile {
        seed: profile.seed ^ kernel ^ data.wrapping_mul(0x9E37_79B9),
        ..profile.clone()
    };
    let program = fixed_kernel.build_program(instrs, data);
    single_core(Workload::single(profile.name, program), false)
}

/// `SPEC_PROGRAMS` kernels of one profile over seed-chosen data.
fn spec_inputs(profile: SpecProfile, seed: u64, scale: Scale) -> Vec<Input> {
    (0..SPEC_PROGRAMS)
        .map(|kernel| {
            let data = seed.wrapping_mul(SPEC_PROGRAMS).wrapping_add(kernel);
            spec_program(&profile, scale.of(SPEC_INSTRS), kernel, data)
        })
        .collect()
}

/// The three sharing kernels, two threads each on two simulated cores,
/// sealing on one background flush worker into a two-lane store. The seed
/// stretches each kernel by up to 5%.
fn mt_inputs(seed: u64, scale: Scale) -> Vec<Input> {
    let mut rng = SplitMix64::new(seed ^ 0x3713_5EED);
    let mut size = |full: u64| scale.of(full + rng.next_range(full / 20)) as u32;
    let opts = RecordingOptions {
        flush_workers: 1,
        store_shards: 2,
        ..RecordingOptions::default()
    };
    [
        racy_counter(2, size(100_000)),
        locked_counter(2, size(40_000)),
        producer_consumer(size(100_000)),
    ]
    .into_iter()
    .map(|workload| Input {
        workload,
        opts: opts.clone(),
        expect_fault: false,
    })
    .collect()
}

/// Every Table 1 bug whose paper window is at most `MAX_BUG_WINDOW`, at the
/// paper's distances.
fn bug_inputs(_seed: u64, scale: Scale) -> Vec<Input> {
    let bug_scale = match scale {
        Scale::Full => BUG_SCALE,
        Scale::Smoke => BUG_SCALE / 100.0,
    };
    BugSpec::all()
        .into_iter()
        .filter(|b| b.paper_window <= MAX_BUG_WINDOW)
        .map(|b| single_core(b.build(bug_scale), true))
        .collect()
}

/// A seeded order over `n` inputs that visits each once per pass, reshuffled
/// every pass (Fisher-Yates).
fn visit_order(n: usize, seed: u64) -> impl FnMut(usize) -> usize {
    let mut rng = SplitMix64::new(seed ^ 0x0D0E_5EED);
    let mut order: Vec<usize> = Vec::new();
    move |i| {
        while order.len() <= i {
            let mut pass: Vec<usize> = (0..n).collect();
            for k in (1..n).rev() {
                pass.swap(k, rng.next_range(k as u64 + 1) as usize);
            }
            order.extend(pass);
        }
        order[i]
    }
}

/// Whether operation `i`, which runs in `slot` during a loop of passes of
/// `pass` operations, is traced in a per-layer run: the even slots in even
/// passes and the odd slots in odd ones, so any two passes in a row trace
/// every slot once and leave it untraced once.
fn traced(i: usize, pass: usize, slot: usize) -> bool {
    (i / pass + slot).is_multiple_of(2)
}

/// Runs operations in whole passes of `pass` until `seconds` have passed:
/// at least one pass, two in a per-layer run so that every slot is traced
/// (see [`traced`]). Whole passes keep the mix of inputs behind every
/// estimate the same from run to run. Operation `i` runs in slot
/// `slot_of(i)`; the operations of those first passes count toward the
/// fixed-set totals, which thus cover every slot traced and untraced.
fn closed_loop(
    ctx: &mut Ctx,
    seconds: u32,
    pass: usize,
    mut slot_of: impl FnMut(usize) -> usize,
    mut op: impl FnMut(&mut Ctx, usize) -> Result<(), String>,
) {
    let min_ops = if ctx.per_layer() { 2 * pass } else { pass };
    let deadline = Instant::now() + Duration::from_secs(seconds.into());
    let mut i = 0;
    while i < min_ops || i % pass != 0 || Instant::now() < deadline {
        let slot = slot_of(i);
        ctx.counting = i < min_ops;
        ctx.operation(slot as u64, traced(i, pass, slot), |ctx| op(ctx, slot));
        i += 1;
    }
    ctx.counting = false;
}

/// Builds the inputs and warms up with one incident on the first of them,
/// [`MIN_SETUPS`] times and for [`MIN_SETUP_TIME`] at least (at full
/// scale); `setup_s` samples the time each took. Returns the inputs.
fn setup(
    ctx: &mut Ctx,
    args: RunArgs,
    make: impl Fn(u64, Scale) -> Vec<Input>,
) -> Result<Vec<Input>, String> {
    let min_time = match args.scale {
        Scale::Full => MIN_SETUP_TIME,
        Scale::Smoke => Duration::ZERO,
    };
    let first = Instant::now();
    let mut inputs = Vec::new();
    let mut setups = 0;
    while setups < MIN_SETUPS || first.elapsed() < min_time {
        let started = Instant::now();
        inputs = make(args.seed, args.scale);
        let mut warm = Ctx::new(ctx.work().to_path_buf(), false);
        harness::incident(&mut warm, &inputs[0])?;
        ctx.push("setup_s", started.elapsed().as_secs_f64());
        setups += 1;
    }
    Ok(inputs)
}

/// The incident workloads: each operation records one input, dumps it,
/// loads and replays the dump, and seeks to the middle of the window.
/// Inputs are the slots.
fn incident_loop(
    ctx: &mut Ctx,
    args: RunArgs,
    make: impl Fn(u64, Scale) -> Vec<Input>,
) -> Result<(), String> {
    let inputs = setup(ctx, args, make)?;
    let n = inputs.len();
    let order = visit_order(n, args.seed);
    closed_loop(ctx, args.seconds, n, order, |ctx, k| {
        harness::incident(ctx, &inputs[k])
    });
    Ok(())
}

/// Operations in one pass of the investigation workload: a recording with
/// its dump and first replay, five seeks, a full replay, five seeks and a
/// bisection.
const REPLAY_PASS: usize = 13;

/// The investigation workload: one long mcf run, recorded and dumped once
/// per pass, then investigated from its dump with full replays, seeks to
/// the middle of the window and a bisection. Positions in the pass are the
/// slots.
fn replay_loop(ctx: &mut Ctx, args: RunArgs) -> Result<(), String> {
    let input = setup(ctx, args, |seed, scale| {
        vec![spec_program(
            &SpecProfile::mcf(),
            scale.of(REPLAY_INSTRS),
            0,
            seed,
        )]
    })?
    .remove(0);
    let slot_of = |i| i % REPLAY_PASS;
    closed_loop(
        ctx,
        args.seconds,
        REPLAY_PASS,
        slot_of,
        |ctx, slot| match slot {
            0 => {
                let mut recorded = harness::record(ctx, &input)?;
                let dump_s = harness::dump(ctx, &mut recorded)?;
                let replay_s = harness::full_replay(ctx, "mcf", false)?;
                ctx.push("crash_to_replay_ms", (dump_s + replay_s) * 1e3);
                ctx.time("sim", "teardown", move || drop(recorded));
                Ok(())
            }
            6 => harness::full_replay(ctx, "mcf", false).map(drop),
            12 => harness::bisect(ctx, "mcf"),
            _ => {
                let seek_s = harness::seek(ctx, "mcf")?;
                harness::push_e2e(ctx, seek_s * 1e3);
                Ok(())
            }
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_order_is_a_seeded_permutation_per_pass() {
        let mut a = visit_order(11, 1);
        let first: Vec<usize> = (0..22).map(&mut a).collect();
        let mut pass: Vec<usize> = first[..11].to_vec();
        pass.sort_unstable();
        assert_eq!(pass, (0..11).collect::<Vec<_>>());
        let mut b = visit_order(11, 1);
        assert_eq!(first, (0..22).map(&mut b).collect::<Vec<_>>());
        let mut c = visit_order(11, 2);
        assert_ne!(first, (0..22).map(&mut c).collect::<Vec<_>>());
    }

    #[test]
    fn two_passes_in_a_row_trace_every_slot_once() {
        let check = |pass: usize, slot_of: &mut dyn FnMut(usize) -> usize| {
            for first in 0..4 {
                let mut times_traced = vec![0; pass];
                for i in first * pass..(first + 2) * pass {
                    let slot = slot_of(i);
                    times_traced[slot] += usize::from(traced(i, pass, slot));
                }
                assert_eq!(
                    times_traced,
                    vec![1; pass],
                    "passes {first} and {}",
                    first + 1
                );
            }
        };
        check(11, &mut visit_order(11, 3));
        check(6, &mut visit_order(6, 4));
        check(REPLAY_PASS, &mut |i| i % REPLAY_PASS);
    }

    #[test]
    fn seeds_give_different_spec_programs() {
        let a = spec_inputs(SpecProfile::gzip(), 1, Scale::Smoke);
        let b = spec_inputs(SpecProfile::gzip(), 2, Scale::Smoke);
        let programs = |inputs: &[Input]| -> Vec<_> {
            inputs
                .iter()
                .map(|i| i.workload.threads[0].program.data().to_vec())
                .collect()
        };
        assert_ne!(programs(&a), programs(&b));
        assert_eq!(
            programs(&a),
            programs(&spec_inputs(SpecProfile::gzip(), 1, Scale::Smoke))
        );
        // The kernels themselves are the same for every seed.
        let kernel_sizes = |inputs: &[Input]| -> Vec<usize> {
            inputs
                .iter()
                .map(|i| i.workload.threads[0].program.code().len())
                .collect()
        };
        assert_eq!(kernel_sizes(&a), kernel_sizes(&b));
    }

    #[test]
    fn crash_burst_uses_the_eleven_short_window_bugs() {
        let inputs = bug_inputs(0, Scale::Smoke);
        assert_eq!(inputs.len(), 11);
        assert!(inputs.iter().all(|i| i.expect_fault));
    }
}
