//! Table VIII — performance (P), energy (E) and energy efficiency (ExP)
//! of Uni-STC compared with DS-STC and RM-STC over the matrix corpus, per
//! kernel: geometric means and maxima.
//!
//! Paper reference points (Uni-STC vs DS-STC, geomean): SpMV P=3.76,
//! SpMSpV P=4.18, SpMM P=3.07, SpGEMM P=2.40; vs RM-STC: SpMV 1.47,
//! SpMSpV 3.39, SpMM 2.52, SpGEMM 1.45. Maximum speedups reach 16x
//! (SpMV/SpGEMM) and 28.76x (SpMSpV).
//!
//! Run with `--full` for the whole corpus, `--json` for the
//! machine-readable rendering, and `--threads N` to shard the corpus
//! sweep over the resilient parallel runtime (cycle counts are
//! bit-identical at any thread count).

use bench::output::{Report, Section};
use bench::{
    corpus_contexts, headline_engines, run_threaded, spgemm_within_cap, threads_arg, KERNELS,
};
use runtime::RuntimeConfig;
use simkit::driver::Kernel;
use simkit::metrics::{Comparison, CorpusSummary};
use simkit::{EnergyModel, Precision};

fn main() {
    let em = EnergyModel::default();
    let cfg = RuntimeConfig::with_threads(threads_arg());
    let contexts = corpus_contexts();
    let mut report = Report::new(format!(
        "Table VIII: Uni-STC vs DS-STC / RM-STC over {} corpus matrices",
        contexts.len()
    ));
    let mut section = Section::new(
        "",
        &[
            "kernel", "vs", "P geo", "P max", "E geo", "E max", "ExP geo", "ExP max", "#mats",
        ],
    );

    for kernel in KERNELS {
        let mut vs_ds: Vec<Comparison> = Vec::new();
        let mut vs_rm: Vec<Comparison> = Vec::new();
        for ctx in &contexts {
            if kernel == Kernel::SpGEMM && !spgemm_within_cap(ctx) {
                continue;
            }
            let engines = headline_engines(Precision::Fp64);
            let run = |e: &(dyn simkit::TileEngine + Sync)| {
                run_threaded(&cfg, e, &em, ctx.spec(kernel))
                    .expect("production engines never fail a shard")
                    .report
            };
            let ds = run(engines[0].as_ref());
            if ds.t1_tasks == 0 {
                continue;
            }
            let rm = run(engines[1].as_ref());
            let uni = run(engines[2].as_ref());
            vs_ds.push(Comparison::of(&uni, &ds));
            vs_rm.push(Comparison::of(&uni, &rm));
        }
        for (baseline, cs) in [("DS-STC", &vs_ds), ("RM-STC", &vs_rm)] {
            if let Some(s) = CorpusSummary::from_comparisons(cs) {
                section.row(vec![
                    kernel.to_string(),
                    baseline.to_owned(),
                    format!("{:.2}", s.geo_speedup),
                    format!("{:.2}", s.max_speedup),
                    format!("{:.2}", s.geo_energy),
                    format!("{:.2}", s.max_energy),
                    format!("{:.2}", s.geo_efficiency),
                    format!("{:.2}", s.max_efficiency),
                    s.count.to_string(),
                ]);
            }
        }
    }
    section.note("paper geomeans vs DS-STC: P = 3.76 / 4.18 / 3.07 / 2.40 per kernel;");
    section.note("vs RM-STC: P = 1.47 / 3.39 / 2.52 / 1.45; headline 3.35x / 2.21x overall.");
    report.push(section);
    report.emit();
}
