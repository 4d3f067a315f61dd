//! The traced replay: runs a job through each layer's public function,
//! in the service's order, and times every call from outside.
//!
//! The layers and the functions that stand for them:
//!
//! | layer | call |
//! |---|---|
//! | `fingerprint` | `service::fingerprint_csr` / `fingerprint_vector` |
//! | `encode` | `sparse::BbcMatrix::from_csr` |
//! | `verify` | `analysis::UstcVerifier` as `simkit::driver::StreamVerifier` |
//! | `compile` | `simkit::driver::*_tasks` |
//! | `simulate` | `simkit::driver::run_tasks` per `runtime::ShardPlan` shard |
//! | `fold` | `runtime::fold_report` plus the energy recompute |
//!
//! Lookups go through `service::SharedCache`s sized like the service's,
//! keyed the way the service keys them, so a replay of a closed-loop job
//! list performs the same encoding, verdict and stream cache operations
//! as the service did.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::AddAssign;
use std::sync::Arc;
use std::time::{Duration, Instant};

use analysis::UstcVerifier;
use runtime::{fold_report, ShardPlan};
use service::{
    fingerprint_csr, fingerprint_vector, CacheStats, Fingerprint, KernelRequest, Operand,
    ServiceConfig, SharedCache,
};
use simkit::driver::{self, Kernel, KernelReport, StreamVerifier, VerifyError};
use simkit::{EnergyModel, T1Task, TileEngine};
use sparse::{BbcMatrix, CsrMatrix};
use uni_stc::{UniStc, UniStcConfig};

/// The service's compiled-stream identity for the kernels the workloads
/// send, rebuilt from the same public fingerprints.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum StreamKey {
    Spmv { a: Fingerprint },
    Spmspv { a: Fingerprint, x: Fingerprint },
}

/// Time and work per layer, for one job or summed over many.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Time in `fingerprint_*`.
    pub fingerprint: Duration,
    /// Operand bytes hashed.
    pub fingerprint_bytes: u64,
    /// Time in `BbcMatrix::from_csr` (encoding-cache misses only).
    pub encode: Duration,
    /// Encodings performed.
    pub encode_calls: u64,
    /// Time in the static verifier (verdict-cache misses only).
    pub verify: Duration,
    /// Verifications performed.
    pub verify_calls: u64,
    /// Time in `driver::*_tasks` (stream-cache misses only).
    pub compile: Duration,
    /// Streams compiled.
    pub compile_calls: u64,
    /// Tasks in the compiled streams.
    pub compiled_tasks: u64,
    /// Time in `driver::run_tasks` over the shards.
    pub simulate: Duration,
    /// Tasks in the simulated streams.
    pub tasks: u64,
    /// Simulated cycles of the folded reports.
    pub cycles: u64,
    /// Time in the fold and energy recompute.
    pub fold: Duration,
}

impl Layers {
    /// Time summed over every layer.
    pub fn total(&self) -> Duration {
        self.fingerprint + self.encode + self.verify + self.compile + self.simulate + self.fold
    }
}

impl AddAssign for Layers {
    fn add_assign(&mut self, o: Layers) {
        self.fingerprint += o.fingerprint;
        self.fingerprint_bytes += o.fingerprint_bytes;
        self.encode += o.encode;
        self.encode_calls += o.encode_calls;
        self.verify += o.verify;
        self.verify_calls += o.verify_calls;
        self.compile += o.compile;
        self.compile_calls += o.compile_calls;
        self.compiled_tasks += o.compiled_tasks;
        self.simulate += o.simulate;
        self.tasks += o.tasks;
        self.cycles += o.cycles;
        self.fold += o.fold;
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

/// Bytes `fingerprint_csr` hashes besides its fixed header.
fn csr_bytes(m: &CsrMatrix) -> u64 {
    let words = m.row_ptr().len() * 8 + m.col_idx().len() * 4 + m.values().len() * 8;
    words as u64
}

/// The layer-by-layer replayer with its own caches.
pub struct Replayer {
    engine: UniStc,
    em: EnergyModel,
    verifier: Option<UstcVerifier>,
    threads: usize,
    encodings: SharedCache<Fingerprint, BbcMatrix>,
    streams: SharedCache<StreamKey, Vec<T1Task>>,
    verdicts: SharedCache<StreamKey, Result<(), VerifyError>>,
    /// 128-bit hashes of every simulated task, for the distinct count.
    distinct: HashSet<u128>,
}

impl Replayer {
    /// A replayer mirroring a service started with `cfg`.
    pub fn new(cfg: &ServiceConfig) -> Self {
        Replayer {
            engine: UniStc::new(UniStcConfig::with_precision(cfg.precision)),
            em: EnergyModel::default(),
            verifier: cfg
                .admission
                .then(|| UstcVerifier::new(UniStcConfig::with_precision(cfg.precision))),
            threads: cfg.exec.threads,
            encodings: SharedCache::new(cfg.encoding_cache_capacity),
            streams: SharedCache::new(cfg.stream_cache_capacity),
            verdicts: SharedCache::new(cfg.stream_cache_capacity),
            distinct: HashSet::new(),
        }
    }

    /// Hit/miss/eviction tallies of the encoding, stream and verdict
    /// caches, in that order.
    pub fn cache_stats(&self) -> [CacheStats; 3] {
        [
            self.encodings.stats(),
            self.streams.stats(),
            self.verdicts.stats(),
        ]
    }

    /// Distinct tasks simulated so far.
    pub fn distinct_tasks(&self) -> u64 {
        self.distinct.len() as u64
    }

    /// Forgets the distinct-task set, so that warm-up jobs stay out of
    /// the measured count.
    pub fn reset_distinct(&mut self) {
        self.distinct.clear();
    }

    /// Resolves an operand through the encoding cache.
    fn resolve(&self, op: &Operand, t: &mut Layers) -> (Arc<BbcMatrix>, Fingerprint) {
        match op {
            Operand::Bbc(m) => {
                let fp = timed(&mut t.fingerprint, || service::fingerprint_bbc(m));
                (Arc::clone(m), fp)
            }
            Operand::Csr(m) => {
                let fp = timed(&mut t.fingerprint, || fingerprint_csr(m));
                t.fingerprint_bytes += csr_bytes(m);
                let (encode, calls) = (&mut t.encode, &mut t.encode_calls);
                let (bbc, _) = self.encodings.get_or_insert_with(&fp, || {
                    *calls += 1;
                    timed(encode, || BbcMatrix::from_csr(m))
                });
                (bbc, fp)
            }
        }
    }

    /// Admission through the verdict cache.
    fn admit(
        &self,
        key: &StreamKey,
        t: &mut Layers,
        verify: impl FnOnce(&UstcVerifier) -> Result<(), VerifyError>,
    ) -> Result<(), String> {
        let Some(v) = &self.verifier else {
            return Ok(());
        };
        let (time, calls) = (&mut t.verify, &mut t.verify_calls);
        let (verdict, _) = self.verdicts.get_or_insert_with(key, || {
            *calls += 1;
            timed(time, || verify(v))
        });
        verdict.as_ref().clone().map_err(|e| e.to_string())
    }

    /// Replays one SpMV or SpMSpV job and returns its folded report and
    /// per-layer times, or the reason it could not be replayed.
    pub fn job(&mut self, request: &KernelRequest) -> Result<(KernelReport, Layers), String> {
        let mut t = Layers::default();
        let (key, kernel, a, x) = match request {
            KernelRequest::SpMV { a } => {
                let (a, fp) = self.resolve(a, &mut t);
                let key = StreamKey::Spmv { a: fp };
                self.admit(&key, &mut t, |v| v.verify_spmv(&a))?;
                (key, Kernel::SpMV, a, None)
            }
            KernelRequest::SpMSpV { a, x } => {
                let (a, fp) = self.resolve(a, &mut t);
                let fx = timed(&mut t.fingerprint, || fingerprint_vector(x));
                // A u32 index and an f64 value per stored entry.
                t.fingerprint_bytes += (x.nnz() * 12) as u64;
                let key = StreamKey::Spmspv { a: fp, x: fx };
                self.admit(&key, &mut t, |v| v.verify_spmspv(&a, x))?;
                (key, Kernel::SpMSpV, a, Some(x))
            }
            other => return Err(format!("{} jobs are not replayed", other.kernel())),
        };

        let (time, calls, compiled) = (&mut t.compile, &mut t.compile_calls, &mut t.compiled_tasks);
        let (tasks, _) = self.streams.get_or_insert_with(&key, || {
            let stream = timed(time, || match x {
                None => driver::spmv_tasks(&a),
                Some(x) => driver::spmspv_tasks(&a, x),
            });
            *calls += 1;
            *compiled += stream.len() as u64;
            stream
        });

        let engine: &dyn TileEngine = &self.engine;
        let em = &self.em;
        let shards = timed(&mut t.simulate, || {
            let plan = ShardPlan::contiguous(tasks.len(), self.threads);
            plan.verify_before_run().map_err(|e| e.to_string())?;
            Ok::<_, String>(
                plan.shards()
                    .iter()
                    .map(|r| {
                        driver::run_tasks(engine, em, kernel, tasks[r.clone()].iter().copied())
                    })
                    .collect::<Vec<_>>(),
            )
        })?;
        let report = timed(&mut t.fold, || {
            let mut report = driver::run_tasks(engine, em, kernel, std::iter::empty());
            for shard in &shards {
                fold_report(&mut report, shard);
            }
            report.energy = em.energy(&report.events, &engine.network_costs());
            report
        });
        t.tasks = tasks.len() as u64;
        t.cycles = report.cycles;
        self.distinct.extend(tasks.iter().map(task_hash));
        Ok((report, t))
    }
}

/// A 128-bit hash of a task's full content.
fn task_hash(task: &T1Task) -> u128 {
    let lane = |salt: u64| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        salt.hash(&mut h);
        task.a.hash(&mut h);
        task.b.hash(&mut h);
        task.n_cols.hash(&mut h);
        h.finish()
    };
    (u128::from(lane(0)) << 64) | u128::from(lane(1))
}
