//! Kernel drivers: walk a BBC matrix and feed every engine the same stream
//! of T1 tasks for the four sparse kernels.
//!
//! These are the simulator-side equivalents of the paper's Algorithms 1
//! (SpMV / SpMSpV) and 2 (SpMM / SpGEMM): the software level enumerates the
//! nonzero 16x16 blocks via the BBC outer CSR, performs the top-level
//! bitmap check (Algorithm 2 line 13) and issues one UWMMA T1 task per
//! surviving block pair.
//!
//! The bitmap algebra behind task generation (block decode,
//! [`Block16::products_with`], [`Block16::mul_structure`]) dispatches
//! through the process-wide `sparse::kernels` backend (`USTC_BACKEND`
//! env / `sparse::kernels::set_backend`). Backends change only host
//! wall-clock: every counter a driver reports — cycles, products, task
//! counts, event traffic — is bit-identical across backends, which the
//! conformance backend-equivalence sweep pins.

use sparse::{BbcMatrix, SparseVector};

use crate::{
    Block16, EnergyBreakdown, EnergyModel, EventCounts, T1Task, TileEngine, UtilHistogram,
};

/// Metadata words fetched per issued T1 task: two 16-row operand bitmaps
/// plus pointer words (Meta Buffer traffic of Stage 1).
const META_WORDS_PER_TASK: u64 = 36;

/// A static-verification rejection: the stream verifier refused to let a
/// kernel invocation reach the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The stable diagnostic code, e.g. `"USTC012"`.
    pub code: String,
    /// The full rendered diagnostic.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream rejected [{}]: {}", self.code, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// A static checker [`KernelSpec::verify`] consults before a stream is
/// simulated.
///
/// Implementations prove stream legality without executing anything; the
/// `analysis` crate provides the canonical implementation
/// (`analysis::UstcVerifier`). A clean result (`Ok`) means the invocation
/// may proceed; an error carries the first error-severity diagnostic.
pub trait StreamVerifier {
    /// Statically checks an SpMV invocation on `a`.
    fn verify_spmv(&self, a: &BbcMatrix) -> Result<(), VerifyError>;
    /// Statically checks an SpMSpV invocation on `a` and `x`.
    fn verify_spmspv(&self, a: &BbcMatrix, x: &SparseVector) -> Result<(), VerifyError>;
    /// Statically checks an SpMM invocation on `a` with `n_cols` columns.
    fn verify_spmm(&self, a: &BbcMatrix, n_cols: usize) -> Result<(), VerifyError>;
    /// Statically checks an SpGEMM invocation on `a` and `b`.
    fn verify_spgemm(&self, a: &BbcMatrix, b: &BbcMatrix) -> Result<(), VerifyError>;
}

/// One kernel invocation: the kernel plus its borrowed operands.
///
/// This is the single description every execution path starts from. The
/// task stream ([`KernelSpec::tasks`]) and the static gate
/// ([`KernelSpec::verify`]) are defined once here; serial runs feed the
/// stream to [`run_tasks`] / [`run_tasks_traced`], sharded runs hand the
/// same stream to the runtime.
///
/// # Example
///
/// ```
/// use simkit::driver::{run_tasks, KernelSpec};
/// use simkit::{EnergyModel, NetworkCosts, T1Result, T1Task, TileEngine};
/// use sparse::{BbcMatrix, CooMatrix, CsrMatrix};
///
/// # struct Ideal;
/// # impl TileEngine for Ideal {
/// #     fn name(&self) -> &str { "ideal" }
/// #     fn lanes(&self) -> usize { 64 }
/// #     fn execute(&self, task: &T1Task) -> T1Result {
/// #         let mut r = T1Result::new(64);
/// #         r.record_cycle(task.products() as usize);
/// #         r.useful = task.products();
/// #         r
/// #     }
/// #     fn network_costs(&self) -> NetworkCosts { NetworkCosts::flat() }
/// # }
/// # fn main() -> Result<(), sparse::FormatError> {
/// let mut coo = CooMatrix::new(32, 32);
/// coo.push(0, 0, 1.0);
/// let a = BbcMatrix::from_csr(&CsrMatrix::try_from(coo)?);
/// let spec = KernelSpec::SpMV { a: &a };
/// let report = run_tasks(&Ideal, &EnergyModel::default(), spec.kernel(), spec.tasks());
/// assert_eq!(report.t1_tasks, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub enum KernelSpec<'a> {
    /// `y = A x`, dense `x`.
    SpMV {
        /// The sparse matrix.
        a: &'a BbcMatrix,
    },
    /// `y = A x`, sparse `x`.
    SpMSpV {
        /// The sparse matrix.
        a: &'a BbcMatrix,
        /// The sparse input vector.
        x: &'a SparseVector,
    },
    /// `C = A B`, dense `B` with `n_cols` columns.
    SpMM {
        /// The sparse matrix.
        a: &'a BbcMatrix,
        /// Columns of the dense `B`.
        n_cols: usize,
    },
    /// `C = A B`, both sparse.
    SpGEMM {
        /// The left operand.
        a: &'a BbcMatrix,
        /// The right operand.
        b: &'a BbcMatrix,
    },
}

impl KernelSpec<'_> {
    /// Which kernel this invocation runs.
    pub fn kernel(&self) -> Kernel {
        match self {
            KernelSpec::SpMV { .. } => Kernel::SpMV,
            KernelSpec::SpMSpV { .. } => Kernel::SpMSpV,
            KernelSpec::SpMM { .. } => Kernel::SpMM,
            KernelSpec::SpGEMM { .. } => Kernel::SpGEMM,
        }
    }

    /// The invocation's T1 task stream, in the order the engines consume
    /// it (the order a sharded run merges in):
    ///
    /// * SpMV — one MV task per stored 16x16 block of `A`.
    /// * SpMSpV — one MV task per stored block whose 16-element
    ///   x-segment holds at least one nonzero.
    /// * SpMM — `ceil(n_cols / 16)` MM tasks per stored block of `A`,
    ///   each against a dense B block. Empty when `n_cols == 0`: the
    ///   product has zero columns, matching the numeric dataflow.
    /// * SpGEMM — the block-level outer-product walk of Algorithm 2: for
    ///   every stored `A(i, k)` and every stored `B(k, j)`, one MM task
    ///   (the top-level bitmap product check drops trivial pairs later).
    ///
    /// # Panics
    ///
    /// Panics if an SpGEMM's block grids do not conform (`a.block_cols()
    /// != b.block_rows()`); [`KernelSpec::verify`] and
    /// [`KernelSpec::conforms`] reject such a spec first.
    pub fn tasks(&self) -> Vec<T1Task> {
        match *self {
            KernelSpec::SpMV { a } => {
                a.blocks().map(|blk| T1Task::mv(Block16::from_bbc(&blk), u16::MAX)).collect()
            }
            KernelSpec::SpMSpV { a, x } => a
                .blocks()
                .filter_map(|blk| {
                    let mask = x.segment_mask16(blk.block_col);
                    (mask != 0).then(|| T1Task::mv(Block16::from_bbc(&blk), mask))
                })
                .collect(),
            KernelSpec::SpMM { a, n_cols } => {
                let col_blocks = n_cols.div_ceil(16);
                a.blocks()
                    .flat_map(move |blk| {
                        let a_bits = Block16::from_bbc(&blk);
                        (0..col_blocks).map(move |cb| {
                            let width = (n_cols - cb * 16).min(16);
                            T1Task::mm(a_bits, Block16::dense().keep_cols(width))
                        })
                    })
                    .collect()
            }
            KernelSpec::SpGEMM { a, b } => {
                assert_eq!(a.block_cols(), b.block_rows(), "SpGEMM block grids do not conform");
                (0..a.block_rows())
                    .flat_map(move |bi| {
                        a.blocks_in_row(bi).flat_map(move |ai| {
                            let a_blk = a.block(ai);
                            let a_bits = Block16::from_bbc(&a_blk);
                            b.blocks_in_row(a_blk.block_col)
                                .map(move |bj| T1Task::mm(a_bits, Block16::from_bbc(&b.block(bj))))
                        })
                    })
                    .collect()
            }
        }
    }

    /// The shape check [`KernelSpec::tasks`] relies on: an SpGEMM whose
    /// block grids do not conform is rejected with `USTC012`; every other
    /// spec conforms.
    ///
    /// # Errors
    ///
    /// Returns the `USTC012` rejection for non-conforming SpGEMM grids.
    pub fn conforms(&self) -> Result<(), VerifyError> {
        match *self {
            KernelSpec::SpGEMM { a, b } if a.block_cols() != b.block_rows() => Err(VerifyError {
                code: "USTC012".to_owned(),
                message: format!(
                    "SpGEMM block grids do not conform ({}x{} blocks vs {}x{})",
                    a.block_rows(),
                    a.block_cols(),
                    b.block_rows(),
                    b.block_cols()
                ),
            }),
            _ => Ok(()),
        }
    }

    /// Statically checks the invocation with `verifier`, then applies
    /// [`KernelSpec::conforms`]. A clean result means the stream may be
    /// compiled and simulated.
    ///
    /// # Errors
    ///
    /// Returns the verifier's first error-severity diagnostic, or the
    /// `USTC012` grid rejection.
    pub fn verify(&self, verifier: &dyn StreamVerifier) -> Result<(), VerifyError> {
        match *self {
            KernelSpec::SpMV { a } => verifier.verify_spmv(a),
            KernelSpec::SpMSpV { a, x } => verifier.verify_spmspv(a, x),
            KernelSpec::SpMM { a, n_cols } => verifier.verify_spmm(a, n_cols),
            KernelSpec::SpGEMM { a, b } => verifier.verify_spgemm(a, b),
        }?;
        self.conforms()
    }
}

/// The four sparse kernels (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Sparse matrix x dense vector.
    SpMV,
    /// Sparse matrix x sparse vector.
    SpMSpV,
    /// Sparse matrix x dense matrix.
    SpMM,
    /// Sparse matrix x sparse matrix.
    SpGEMM,
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kernel::SpMV => write!(f, "SpMV"),
            Kernel::SpMSpV => write!(f, "SpMSpV"),
            Kernel::SpMM => write!(f, "SpMM"),
            Kernel::SpGEMM => write!(f, "SpGEMM"),
        }
    }
}

/// Aggregated result of running one kernel on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Engine display name.
    pub engine: String,
    /// Which kernel ran.
    pub kernel: Kernel,
    /// Total cycles.
    pub cycles: u64,
    /// Total useful MAC operations.
    pub useful: u64,
    /// Number of issued T1 tasks.
    pub t1_tasks: u64,
    /// Merged per-cycle lane occupancy.
    pub util: UtilHistogram,
    /// Summed hardware events.
    pub events: EventCounts,
    /// Energy under the engine's network costs.
    pub energy: EnergyBreakdown,
}

impl KernelReport {
    /// Average intermediate products per T1 task (Fig. 20's density axis).
    pub fn avg_products_per_t1(&self) -> f64 {
        if self.t1_tasks == 0 {
            0.0
        } else {
            self.useful as f64 / self.t1_tasks as f64
        }
    }

    /// Average enabled output-network scale (ports) per cycle — Fig. 19.
    pub fn avg_c_network_scale(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.events.c_ports_cycles as f64 / self.cycles as f64
        }
    }

    /// Mean MAC utilisation in `[0, 1]`.
    pub fn mean_utilisation(&self) -> f64 {
        self.util.mean_utilisation()
    }

    /// A stable one-line signature of the report's deterministic counters,
    /// suitable for golden-file snapshots: engine, kernel, cycles, useful
    /// MACs, T1 tasks and the event counters that drive the energy model.
    /// Floating-point quantities (energy, utilisation) are deliberately
    /// excluded so the signature is exact across platforms.
    pub fn counter_signature(&self) -> String {
        format!(
            "{} {} cycles={} useful={} t1={} meta={} mac={} sched={} cports={}",
            self.engine,
            self.kernel,
            self.cycles,
            self.useful,
            self.t1_tasks,
            self.events.meta_words,
            self.events.mac_issued,
            self.events.sched_ops,
            self.events.c_ports_cycles,
        )
    }
}

/// Runs a stream of T1 tasks through an engine and aggregates the results.
///
/// Trivial tasks (zero intermediate products) are filtered out by the
/// software-level bitmap check and never reach the engine.
pub fn run_tasks<I>(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    kernel: Kernel,
    tasks: I,
) -> KernelReport
where
    I: IntoIterator<Item = T1Task>,
{
    run_tasks_traced(engine, energy_model, kernel, tasks, &mut obs::NoopSink)
}

/// [`run_tasks`] with tracing: streams [`obs::TraceEvent`]s into `sink` as
/// the task stream executes.
///
/// The driver maintains a global cycle cursor (tasks retire back-to-back,
/// matching the synchronous UWMMA lifecycle the cycle totals assume) and
/// re-bases each task's task-local engine trace onto it, bracketing it with
/// [`TaskIssue`](obs::TraceEvent::TaskIssue) /
/// [`TaskRetire`](obs::TraceEvent::TaskRetire) markers. With a disabled
/// sink ([`obs::NoopSink`]) each task runs through [`TileEngine::execute`]
/// and this is exactly `run_tasks`; with an enabled one through
/// [`TileEngine::execute_traced`], which must return the same result, so
/// reports are bit-identical whether or not a trace is attached.
pub fn run_tasks_traced<I>(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    kernel: Kernel,
    tasks: I,
    sink: &mut dyn obs::TraceSink,
) -> KernelReport
where
    I: IntoIterator<Item = T1Task>,
{
    let mut cycles = 0u64;
    let mut useful = 0u64;
    let mut t1_tasks = 0u64;
    let mut util = UtilHistogram::new(engine.lanes());
    let mut events = EventCounts::default();
    for task in tasks {
        if task.is_trivial() {
            continue;
        }
        if sink.enabled() {
            sink.record(obs::TraceEvent::TaskIssue {
                task: t1_tasks,
                cycle: cycles,
                products: task.products(),
            });
        }
        // A disabled sink takes the untraced path: `TileEngine` requires
        // both methods to return the same result, and `execute` skips the
        // per-event plumbing of the rebasing sink.
        let mut r = if sink.enabled() {
            engine.execute_traced(&task, &mut obs::OffsetSink::new(sink, cycles))
        } else {
            engine.execute(&task)
        };
        r.events.meta_words += META_WORDS_PER_TASK;
        if r.events.c_ports_cycles == 0 {
            // Engines without dynamic gating pay their static network scale.
            r.events.c_ports_cycles = r.cycles * engine.c_network_ports();
        }
        cycles += r.cycles;
        useful += r.useful;
        if sink.enabled() {
            sink.record(obs::TraceEvent::TaskRetire {
                task: t1_tasks,
                cycle: cycles,
                cycles: r.cycles,
                useful: r.useful,
            });
        }
        t1_tasks += 1;
        util.merge(&r.util);
        events += r.events;
    }
    let energy = energy_model.energy(&events, &engine.network_costs());
    KernelReport {
        engine: engine.name().to_owned(),
        kernel,
        cycles,
        useful,
        t1_tasks,
        util,
        events,
        energy,
    }
}

/// The T1 task stream of an SpMV invocation ([`KernelSpec::tasks`]).
pub fn spmv_tasks(a: &BbcMatrix) -> Vec<T1Task> {
    KernelSpec::SpMV { a }.tasks()
}

/// The T1 task stream of an SpMSpV invocation ([`KernelSpec::tasks`]).
pub fn spmspv_tasks(a: &BbcMatrix, x: &SparseVector) -> Vec<T1Task> {
    KernelSpec::SpMSpV { a, x }.tasks()
}

/// SpMV (`y = A x`, dense `x`) on one engine.
pub fn run_spmv(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
) -> KernelReport {
    run_tasks(engine, energy_model, Kernel::SpMV, spmv_tasks(a))
}

/// SpMSpV (`y = A x`, sparse `x`) on one engine.
pub fn run_spmspv(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    x: &SparseVector,
) -> KernelReport {
    run_tasks(engine, energy_model, Kernel::SpMSpV, spmspv_tasks(a, x))
}

/// SpMM (`C = A B`, dense `B` with `n_cols` columns) on one engine. A
/// zero-column `B` yields an empty report.
pub fn run_spmm(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    n_cols: usize,
) -> KernelReport {
    run_tasks(engine, energy_model, Kernel::SpMM, KernelSpec::SpMM { a, n_cols }.tasks())
}

/// SpGEMM (`C = A B`, both sparse) on one engine.
///
/// # Panics
///
/// Panics if the block grids do not conform (`a.block_cols() !=
/// b.block_rows()`).
pub fn run_spgemm(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    b: &BbcMatrix,
) -> KernelReport {
    run_tasks(engine, energy_model, Kernel::SpGEMM, KernelSpec::SpGEMM { a, b }.tasks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkCosts;
    use sparse::{CooMatrix, CsrMatrix};

    /// A reference engine: perfect packing, one write per output.
    struct Ideal;

    impl TileEngine for Ideal {
        fn name(&self) -> &str {
            "ideal"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, task: &T1Task) -> T1Result {
            let mut r = crate::T1Result::new(64);
            let mut left = task.products();
            while left > 0 {
                let used = left.min(64) as usize;
                r.record_cycle(used);
                left -= used as u64;
            }
            r.useful = task.products();
            r.events.c_writes = task.c_nnz() as u64;
            r
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
    }

    use crate::T1Result;

    fn bbc_from(entries: &[(usize, usize)], n: usize) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    #[test]
    fn spmv_issues_one_task_per_block() {
        let a = bbc_from(&[(0, 0), (20, 20), (40, 0)], 48);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        assert_eq!(rep.t1_tasks, 3);
        assert_eq!(rep.useful, 3); // one product per single-nonzero block
        assert_eq!(rep.cycles, 3);
        assert_eq!(rep.kernel, Kernel::SpMV);
    }

    #[test]
    fn spmspv_skips_masked_blocks() {
        let a = bbc_from(&[(0, 0), (0, 20)], 32);
        // x nonzero only in segment 1 (indices 16..32).
        let x = SparseVector::try_new(32, vec![20], vec![1.0]).unwrap();
        let rep = run_spmspv(&Ideal, &EnergyModel::default(), &a, &x);
        assert_eq!(rep.t1_tasks, 1);
        assert_eq!(rep.useful, 1);
    }

    #[test]
    fn spmspv_mask_drops_products() {
        let a = bbc_from(&[(0, 0), (0, 5)], 16);
        let x = SparseVector::try_new(16, vec![5], vec![1.0]).unwrap();
        let rep = run_spmspv(&Ideal, &EnergyModel::default(), &a, &x);
        // Only the (0,5) entry meets a nonzero x element.
        assert_eq!(rep.useful, 1);
    }

    #[test]
    fn spmm_scales_with_column_blocks() {
        let a = bbc_from(&[(0, 0)], 16);
        let r64 = run_spmm(&Ideal, &EnergyModel::default(), &a, 64);
        assert_eq!(r64.t1_tasks, 4);
        assert_eq!(r64.useful, 4 * 16);
        let r20 = run_spmm(&Ideal, &EnergyModel::default(), &a, 20);
        assert_eq!(r20.t1_tasks, 2);
        assert_eq!(r20.useful, 16 + 4);
    }

    #[test]
    fn spmm_zero_columns_yields_empty_report() {
        let a = bbc_from(&[(0, 0), (5, 5)], 16);
        let rep = run_spmm(&Ideal, &EnergyModel::default(), &a, 0);
        assert_eq!(rep.t1_tasks, 0);
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.useful, 0);
        assert_eq!(rep.kernel, Kernel::SpMM);
    }

    #[test]
    fn spgemm_enumerates_block_pairs() {
        // A = identity-ish blocks at (0,0) and (1,1); squaring it yields one
        // task per diagonal block.
        let a = bbc_from(&[(0, 0), (17, 17)], 32);
        let rep = run_spgemm(&Ideal, &EnergyModel::default(), &a, &a);
        assert_eq!(rep.t1_tasks, 2);
        assert_eq!(rep.useful, 2);
    }

    #[test]
    fn spgemm_drops_trivial_pairs() {
        // A(0,0) uses k-column 0 only; B(0,0) provides k-row 5 only: the
        // block pair survives the block enumeration but the bitmap check
        // kills it.
        let a = bbc_from(&[(0, 0)], 16);
        let b = bbc_from(&[(5, 0)], 16);
        let rep = run_spgemm(&Ideal, &EnergyModel::default(), &a, &b);
        assert_eq!(rep.t1_tasks, 0);
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn report_averages() {
        let a = bbc_from(&[(0, 0), (0, 1), (1, 0)], 16);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        assert!((rep.avg_products_per_t1() - 3.0).abs() < 1e-12);
        assert!(rep.mean_utilisation() > 0.0);
        // Static network scale: 64x256 ports per cycle.
        assert!((rep.avg_c_network_scale() - 16384.0).abs() < 1e-9);
    }

    #[test]
    fn counter_signature_is_stable_and_exact() {
        let a = bbc_from(&[(0, 0), (20, 20)], 32);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        let sig = rep.counter_signature();
        assert_eq!(sig, rep.counter_signature());
        assert!(sig.starts_with("ideal SpMV "), "{sig}");
        assert!(sig.contains("useful=2"), "{sig}");
        assert!(sig.contains("t1=2"), "{sig}");
    }

    #[test]
    fn traced_run_brackets_every_task() {
        let a = bbc_from(&[(0, 0), (20, 20), (40, 0)], 48);
        let mut trace: Vec<obs::TraceEvent> = Vec::new();
        let rep = run_tasks_traced(
            &Ideal,
            &EnergyModel::default(),
            Kernel::SpMV,
            spmv_tasks(&a),
            &mut trace,
        );
        let issues = trace
            .iter()
            .filter(|e| matches!(e, obs::TraceEvent::TaskIssue { .. }))
            .count();
        let retires: Vec<u64> = trace
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::TaskRetire { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .collect();
        assert_eq!(issues as u64, rep.t1_tasks);
        assert_eq!(retires.len() as u64, rep.t1_tasks);
        // The last retire lands exactly on the report's cycle total.
        assert_eq!(retires.last().copied(), Some(rep.cycles));
        // Retires are on the monotone global timeline.
        assert!(retires.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn noop_sink_report_matches_untraced_run() {
        // The seven simulated engines live downstream of this crate; the
        // sweep over all of them is `tests/observability.rs`.
        let a = bbc_from(&[(0, 0), (0, 1), (20, 20)], 32);
        let plain = run_spmv(&Ideal, &EnergyModel::default(), &a);
        let traced = run_tasks_traced(
            &Ideal,
            &EnergyModel::default(),
            Kernel::SpMV,
            spmv_tasks(&a),
            &mut obs::NoopSink,
        );
        assert_eq!(plain, traced);
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        let recorded = run_tasks_traced(
            &Ideal,
            &EnergyModel::default(),
            Kernel::SpMV,
            spmv_tasks(&a),
            &mut events,
        );
        assert_eq!(plain, recorded);
        assert!(!events.is_empty());
    }

    #[test]
    fn meta_words_accumulate_per_task() {
        let a = bbc_from(&[(0, 0), (20, 20)], 32);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        assert_eq!(rep.events.meta_words, 2 * META_WORDS_PER_TASK);
    }
}
