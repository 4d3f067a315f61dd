//! The workloads: their operators, seeded job streams and warm-up
//! sets.
//!
//! Every input is a pure function of the seed, so the same seed gives
//! the same jobs in the same order. Expected outputs come from the serial
//! driver (`simkit::driver::run_*`) on the same operands, computed before
//! or outside any timed phase.

use std::sync::Arc;

use service::{KernelRequest, Operand};
use simkit::driver::{self, KernelReport};
use simkit::{EnergyModel, Precision};
use sparse::rng::Rng64;
use sparse::{BbcMatrix, CsrMatrix, SparseVector};
use uni_stc::{UniStc, UniStcConfig};
use workloads::dlmc::{DnnModel, LayerSpec};
use workloads::gen;
use workloads::stencil::{lower, GridShape, Ordering, StencilKind};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: a few stencil operators, each stepped many times
    /// with SpMV. The warm path: every lookup hits after warm-up.
    StencilSteps,
    /// Closed loop: every job runs on a freshly seeded unstructured
    /// matrix, so every cache lookup misses, inserts and later evicts.
    ColdUnstructured,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 2] = [Workload::StencilSteps, Workload::ColdUnstructured];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilSteps => "stencil-steps",
            Workload::ColdUnstructured => "cold-unstructured",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One job as the client sends it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the workload's job stream.
    pub id: u64,
    /// Which of the workload's job kinds this is: the stencil operator,
    /// or the cold job's matrix and kernel kind.
    pub kind: usize,
    /// The request the service receives.
    pub request: KernelRequest,
    /// The serial driver's `counter_signature()` for the same operands.
    pub expected: Arc<str>,
}

impl Job {
    /// A job whose expected signature comes from the serial driver.
    fn new(id: u64, kind: usize, request: KernelRequest) -> Self {
        let expected = serial_report(&request).counter_signature().into();
        Job {
            id,
            kind,
            request,
            expected,
        }
    }
}

/// The serial driver's report for a request: encode, then run the
/// kernel on the service's default engine.
pub fn serial_report(request: &KernelRequest) -> KernelReport {
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let em = EnergyModel::default();
    let bbc = |op: &Operand| match op {
        Operand::Csr(m) => Arc::new(BbcMatrix::from_csr(m)),
        Operand::Bbc(m) => Arc::clone(m),
    };
    match request {
        KernelRequest::SpMV { a } => driver::run_spmv(&engine, &em, &bbc(a)),
        KernelRequest::SpMSpV { a, x } => driver::run_spmspv(&engine, &em, &bbc(a), x),
        KernelRequest::SpMM { a, n_cols } => driver::run_spmm(&engine, &em, &bbc(a), *n_cols),
        KernelRequest::SpGEMM { a, b } => driver::run_spgemm(&engine, &em, &bbc(a), &bbc(b)),
    }
}

/// A Tiled16 stencil operator with its coefficients scaled by a seeded
/// factor in `[0.5, 2)`: identical structure (and so identical task
/// streams) for every seed, distinct content per seed.
fn stencil_operator(kind: StencilKind, shape: GridShape, rng: &mut Rng64) -> CsrMatrix {
    let mut csr = lower(kind, shape, Ordering::Tiled16).csr;
    let scale = rng.next_f64_range(0.5, 2.0);
    csr.values_mut().iter_mut().for_each(|v| *v *= scale);
    csr
}

fn spmv(a: CsrMatrix) -> KernelRequest {
    KernelRequest::SpMV { a: a.into() }
}

/// A seeded Fisher-Yates permutation of `0..n`.
fn permutation(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.next_range(i + 1));
    }
    p
}

/// A closed-loop job stream: warm-up set first, then an endless
/// sequence of measured jobs.
pub trait JobSource {
    /// The jobs answered during set-up, before the timed phase.
    fn warmup(&mut self) -> Vec<Job>;
    /// The next measured job.
    fn next_job(&mut self) -> Job;
}

/// `stencil-steps`: time-stepped solver traffic.
pub struct StencilSteps {
    /// One SpMV step per operator, with its id to be replaced.
    steps: Vec<Job>,
    rng: Rng64,
    /// The current round's operator order and how far into it we are.
    round: Vec<usize>,
    position: usize,
    next_id: u64,
}

impl StencilSteps {
    /// SpMV steps per operator before the solver moves to the next one.
    pub const STEPS_PER_SOLVE: usize = 25;

    /// The stepped operators: small, so that a run holds many thousand
    /// steps of each.
    pub const OPERATORS: [(StencilKind, GridShape); 3] = [
        (StencilKind::Star5, GridShape::D2 { nx: 64, ny: 64 }),
        (StencilKind::Box9, GridShape::D2 { nx: 56, ny: 56 }),
        (
            StencilKind::Star7,
            GridShape::D3 {
                nx: 14,
                ny: 14,
                nz: 14,
            },
        ),
    ];

    /// Builds the operators and their expected reports for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x5354_454E_4349_4C53);
        let steps = Self::OPERATORS
            .into_iter()
            .enumerate()
            .map(|(op, (kind, shape))| {
                Job::new(0, op, spmv(stencil_operator(kind, shape, &mut rng)))
            })
            .collect();
        StencilSteps {
            steps,
            rng,
            round: Vec::new(),
            position: 0,
            next_id: 0,
        }
    }

    /// A step of operator `op`, with the next id.
    fn step(&mut self, op: usize) -> Job {
        self.next_id += 1;
        Job {
            id: self.next_id - 1,
            ..self.steps[op].clone()
        }
    }
}

impl JobSource for StencilSteps {
    /// One step of every operator: afterwards every lookup hits.
    fn warmup(&mut self) -> Vec<Job> {
        (0..self.steps.len()).map(|op| self.step(op)).collect()
    }

    /// Rounds of solves: each round visits every operator once, in a
    /// seeded order, for [`Self::STEPS_PER_SOLVE`] steps each — the same
    /// operator mix for every seed.
    fn next_job(&mut self) -> Job {
        let n = self.steps.len();
        if self.round.is_empty() || self.position == n * Self::STEPS_PER_SOLVE {
            self.round = permutation(n, &mut self.rng);
            self.position = 0;
        }
        let op = self.round[self.position / Self::STEPS_PER_SOLVE];
        self.position += 1;
        self.step(op)
    }
}

/// `cold-unstructured`: every job on a freshly generated matrix.
pub struct ColdUnstructured {
    seed: u64,
    next_id: u64,
}

impl ColdUnstructured {
    /// Jobs in the warm-up set.
    pub const WARMUP_JOBS: u64 = 3;

    /// Job kinds, in rotation: uniform SpMV, uniform SpMSpV, DLMC-shaped
    /// SpMV.
    pub const KINDS: u64 = 3;

    /// A job stream for `seed`. Inputs are generated one job at a time.
    pub fn new(seed: u64) -> Self {
        ColdUnstructured { seed, next_id: 0 }
    }

    /// Job `id`'s operands: the kind rotates uniform SpMV → uniform
    /// SpMSpV → DLMC-shaped SpMV, so every seed has the same mix; the
    /// content is seeded per job, so no two jobs share a fingerprint.
    fn generate(&self, id: u64) -> KernelRequest {
        let job_seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id.wrapping_add(1);
        let mut rng = Rng64::new(job_seed);
        let (n, density, rows, cols) = (768, 0.02, 384, 1536);
        match id % Self::KINDS {
            0 => spmv(gen::random_uniform(n, density, job_seed)),
            1 => {
                let a = gen::random_uniform(n, density, job_seed).into();
                let dense: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.next_bool(0.25) {
                            rng.next_f64_range(-1.0, 1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let x = Arc::new(SparseVector::from_dense(&dense, 0.0));
                KernelRequest::SpMSpV { a, x }
            }
            _ => {
                let layer = LayerSpec {
                    model: DnnModel::ResNet50,
                    index: 0,
                    rows,
                    cols,
                    batch_cols: 1,
                };
                spmv(layer.weight(1.0 - density, job_seed))
            }
        }
    }

    fn make(&mut self) -> Job {
        let id = self.next_id;
        self.next_id += 1;
        Job::new(id, (id % Self::KINDS) as usize, self.generate(id))
    }
}

impl JobSource for ColdUnstructured {
    fn warmup(&mut self) -> Vec<Job> {
        (0..Self::WARMUP_JOBS).map(|_| self.make()).collect()
    }

    fn next_job(&mut self) -> Job {
        self.make()
    }
}
