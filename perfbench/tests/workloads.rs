//! The benchmark's own checks, on the workloads exactly as the benchmark
//! runs them, with a few jobs each: exact work counts repeat for a fixed
//! seed, the replay does the service's cache work, and each workload has
//! the redundancy it was chosen for.

use perfbench::run::{trace, Traced};
use perfbench::workload::{StencilSteps, Workload};

/// The counts that must repeat bit for bit.
fn counts(t: &Traced) -> [u64; 6] {
    let l = &t.layers;
    [
        l.tasks,
        t.distinct_tasks,
        l.cycles,
        l.encode_calls,
        l.verify_calls,
        l.compile_calls,
    ]
}

fn redundancy(t: &Traced) -> f64 {
    t.layers.tasks as f64 / t.distinct_tasks as f64
}

#[test]
fn stencil_steps_repeats_and_hits_everything_after_warmup() {
    // One whole round: every operator stepped for one solve.
    let jobs = StencilSteps::OPERATORS.len() * StencilSteps::STEPS_PER_SOLVE;
    let a = trace(Workload::StencilSteps, 7, jobs);
    let b = trace(Workload::StencilSteps, 7, jobs);
    assert_eq!((a.attempted, a.failed), (jobs as u64 + 3, 0));
    assert_eq!(a.fidelity(), Ok(()));
    assert_eq!(counts(&a), counts(&b));
    for (end, warm) in a.replay_end.iter().zip(&a.replay_after_warmup) {
        let lookups = (end.hits - warm.hits, end.misses - warm.misses);
        assert_eq!(lookups, (jobs as u64, 0), "every lookup after warm-up hits");
    }
    assert_eq!(
        a.layers.encode_calls + a.layers.verify_calls + a.layers.compile_calls,
        0
    );
    assert_eq!(a.distinct_tasks, STENCIL_DISTINCT_TASKS);
    assert!(redundancy(&a) > 100.0, "redundancy {}", redundancy(&a));
}

/// Distinct tasks among the streams of all three stencil operators.
const STENCIL_DISTINCT_TASKS: u64 = 48;

#[test]
fn cold_unstructured_repeats_and_never_hits() {
    let a = trace(Workload::ColdUnstructured, 7, 6);
    let b = trace(Workload::ColdUnstructured, 7, 6);
    assert_eq!(a.failed, 0);
    assert_eq!(a.fidelity(), Ok(()));
    assert_eq!(counts(&a), counts(&b));
    for stats in a.replay_end.iter().chain(&a.service_end) {
        assert_eq!(stats.hits, 0, "every cold lookup misses");
    }
    assert_eq!(a.layers.encode_calls, 6);
    assert!(redundancy(&a) < 1.5, "redundancy {}", redundancy(&a));
}

#[test]
fn another_seed_gives_stencil_steps_the_same_work() {
    // One whole round: every operator stepped for one solve.
    let jobs = StencilSteps::OPERATORS.len() * StencilSteps::STEPS_PER_SOLVE;
    let a = trace(Workload::StencilSteps, 7, jobs);
    let b = trace(Workload::StencilSteps, 8, jobs);
    assert_eq!(counts(&a), counts(&b));
}

#[test]
fn another_seed_gives_cold_unstructured_nearly_the_same_work() {
    // Fresh random patterns per seed: the task and cycle totals of ten
    // rotations of the job kinds differ, but only slightly.
    let runs: Vec<Traced> = (7..10)
        .map(|seed| trace(Workload::ColdUnstructured, seed, 30))
        .collect();
    for r in &runs[1..] {
        for (x, y) in [
            (r.layers.tasks, runs[0].layers.tasks),
            (r.layers.cycles, runs[0].layers.cycles),
        ] {
            let shift = (x as f64 / y as f64 - 1.0).abs();
            assert!(shift < COLD_SEED_TOLERANCE, "{x} vs {y}");
        }
    }
}

/// Largest relative difference in tasks or cycles between two seeds of
/// `cold-unstructured` over 30 jobs (measured: tasks within 0.4 %, cycles
/// within 0.8 % over seeds 7 to 11).
const COLD_SEED_TOLERANCE: f64 = 0.02;
