//! One benchmark run: the timed run for the end-to-end metrics, or the
//! traced run for the per-layer ones.

use std::collections::BTreeMap;
use std::time::Duration;

use obs::json::Value;
use service::{CacheStats, Service, ServiceConfig};
use simkit::T1Task;

use crate::client::{self, Outcome};
use crate::replay::{Layers, Replayer};
use crate::workload::{ColdUnstructured, JobSource, StencilSteps, Workload};

/// Fresh service starts whose median is `setup_s`.
pub const SETUP_STARTS: usize = 15;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's verdict and numbers.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output checked out (and, when traced, the replay matched).
    pub correct: bool,
    /// Jobs sent.
    pub attempted: u64,
    /// Jobs not answered with a correct report.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::object(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), v)
            })
            .collect();
        Value::object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ])
        .to_json()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line, since the
/// metric cannot be measured there.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status exists");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

fn source(w: Workload, seed: u64) -> Box<dyn JobSource> {
    match w {
        Workload::StencilSteps => Box::new(StencilSteps::new(seed)),
        Workload::ColdUnstructured => Box::new(ColdUnstructured::new(seed)),
    }
}

/// The timed run, tracing off: `seconds` of closed-loop load on one warm
/// service, in [`SETUP_STARTS`] equal slices. That service's start is
/// the first set-up sample; after every slice but the last another
/// fresh service is started, warmed and dropped, so that the set-up
/// samples spread over the run as the job latencies do. Reports every
/// end-to-end metric.
pub fn timed(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let cfg = ServiceConfig::default();
    let mut source = source(w, seed);
    let warmup = source.warmup();
    let main = client::start(&cfg, &warmup);
    let mut setup_s = vec![main.time.as_secs_f64()];
    let mut warmup_outcomes = main.outcomes;
    let slice = Duration::from_secs_f64(seconds / SETUP_STARTS as f64);
    let mut outcomes = Vec::new();
    for i in 0..SETUP_STARTS {
        outcomes.extend(client::closed_loop(&main.service, source.as_mut(), slice));
        if i + 1 < SETUP_STARTS {
            let fresh = client::start(&cfg, &warmup);
            setup_s.push(fresh.time.as_secs_f64());
            warmup_outcomes.extend(fresh.outcomes);
        }
    }
    drop(main.service);

    let all: Vec<&Outcome> = warmup_outcomes.iter().chain(&outcomes).collect();
    let ok = all.iter().filter(|o| o.ok).count() as u64;
    let attempted = all.len() as u64;
    RunResult {
        correct: ok == attempted,
        attempted,
        failed: attempted - ok,
        metrics: vec![
            metric("job_p1_ms", p1_per_kind(&outcomes), "ms"),
            metric("ok_ratio", ok as f64 / attempted as f64, "ratio"),
            metric("setup_s", quantile(&mut setup_s, 0.5), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}

/// The p1 latency of each job kind, averaged over the kinds: the
/// latency a job gets when the host is quiet. Slow host periods last
/// from seconds to whole runs and move every higher quantile; see the
/// README.
pub fn p1_per_kind(outcomes: &[Outcome]) -> f64 {
    let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for o in outcomes {
        by_kind.entry(o.kind).or_default().push(ms(o.latency));
    }
    let kinds = by_kind.len().max(1) as f64;
    by_kind.values_mut().map(|v| quantile(v, 0.01)).sum::<f64>() / kinds
}

/// The service's throughput and latency quantiles over `outcomes`:
/// `[jobs/s, tasks/s, p50 ms, p90 ms]`. Jobs and tasks count answered
/// jobs only; the time is the summed submit-to-reply time.
pub fn load(outcomes: &[Outcome]) -> [f64; 4] {
    let secs = outcomes
        .iter()
        .map(|o| o.latency)
        .sum::<Duration>()
        .as_secs_f64()
        .max(1e-9);
    let answered = outcomes.iter().filter(|o| o.ok).count();
    let tasks: u64 = outcomes.iter().map(|o| o.tasks).sum();
    let mut latencies: Vec<f64> = outcomes.iter().map(|o| ms(o.latency)).collect();
    [
        answered as f64 / secs,
        tasks as f64 / secs,
        quantile(&mut latencies, 0.50),
        quantile(&mut latencies, 0.90),
    ]
}

/// What a traced run measured, before it becomes metrics.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Measured (non-warm-up) jobs.
    pub jobs: usize,
    /// Layer times and work summed over the measured jobs.
    pub layers: Layers,
    /// Distinct tasks among the measured jobs' streams.
    pub distinct_tasks: u64,
    /// Per measured job: untraced latency minus traced layer time, ms.
    pub dispatch_ms: Vec<f64>,
    /// What the client saw for each measured job.
    pub outcomes: Vec<Outcome>,
    /// Replay cache tallies (encoding, stream, verdict) after warm-up.
    pub replay_after_warmup: [CacheStats; 3],
    /// Replay cache tallies at the end.
    pub replay_end: [CacheStats; 3],
    /// The service's own tallies at the end, from `Service::metrics()`.
    pub service_end: [CacheStats; 3],
    /// Jobs sent, warm-up included.
    pub attempted: u64,
    /// Jobs the service did not answer correctly or the replay did not
    /// reproduce.
    pub failed: u64,
}

impl Traced {
    /// Whether the replay did the service's cache work: equal hit, miss
    /// and eviction counts on all three caches.
    pub fn fidelity(&self) -> Result<(), String> {
        let names = ["encoding", "stream", "verdict"];
        for ((name, r), s) in names.iter().zip(&self.replay_end).zip(&self.service_end) {
            if (r.hits, r.misses, r.evictions) != (s.hits, s.misses, s.evictions) {
                return Err(format!(
                    "{name} cache: replay hits/misses/evictions {}/{}/{} but service {}/{}/{}",
                    r.hits, r.misses, r.evictions, s.hits, s.misses, s.evictions
                ));
            }
        }
        Ok(())
    }
}

fn service_caches(m: &obs::MetricsRegistry) -> [CacheStats; 3] {
    let read = |prefix: &str| CacheStats {
        hits: m.counter(&format!("service/{prefix}_hits")),
        misses: m.counter(&format!("service/{prefix}_misses")),
        evictions: m.counter(&format!("service/{prefix}_evictions")),
        inserts: m.counter(&format!("service/{prefix}_inserts")),
    };
    [
        read("encoding_cache"),
        read("stream_cache"),
        read("admission_cache"),
    ]
}

/// Traces a workload over its warm-up set plus `jobs` measured jobs.
/// Each job is sent to a fresh service (tracing off), then replayed
/// layer by layer against the replay's own caches; the replay's report
/// must match the serial driver too.
pub fn trace(w: Workload, seed: u64, jobs: usize) -> Traced {
    let cfg = ServiceConfig::default();
    let mut source = source(w, seed);
    let svc = Service::start(cfg.clone());
    let mut rep = Replayer::new(&cfg);
    let (mut attempted, mut failed) = (0, 0);
    let mut layers = Layers::default();
    let mut dispatch_ms = Vec::with_capacity(jobs);
    let mut outcomes = Vec::with_capacity(jobs);
    let mut replay_after_warmup = rep.cache_stats();
    let warmup = source.warmup();
    for i in 0..warmup.len() + jobs {
        let job = match warmup.get(i) {
            Some(job) => job.clone(),
            None => source.next_job(),
        };
        if i == warmup.len() {
            replay_after_warmup = rep.cache_stats();
            rep.reset_distinct();
        }
        let outcome = client::call(&svc, &job);
        attempted += 1;
        if i >= warmup.len() {
            outcomes.push(outcome);
        }
        match rep.job(&job.request) {
            Ok((report, l)) if *report.counter_signature() == *job.expected => {
                failed += u64::from(!outcome.ok);
                if i >= warmup.len() {
                    layers += l;
                    dispatch_ms.push(ms(outcome.latency) - ms(l.total()));
                }
            }
            Ok(_) => {
                eprintln!("replay of job {} disagrees with the serial driver", job.id);
                failed += 1;
            }
            Err(e) => {
                eprintln!("replay of job {} refused: {e}", job.id);
                failed += 1;
            }
        }
    }
    let service_end = service_caches(&svc.shutdown());
    Traced {
        jobs,
        layers,
        distinct_tasks: rep.distinct_tasks(),
        dispatch_ms,
        outcomes,
        replay_after_warmup,
        replay_end: rep.cache_stats(),
        service_end,
        attempted,
        failed,
    }
}

/// Measured jobs of a traced run lasting about `seconds` on a 2-vCPU
/// host: the service call and its replay take about equally long.
pub fn trace_jobs(w: Workload, seconds: f64) -> usize {
    let per_second = match w {
        Workload::StencilSteps => 180.0,
        Workload::ColdUnstructured => 30.0,
    };
    ((seconds * per_second).ceil() as usize).max(1)
}

/// The traced run: reports every per-layer metric.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let t = trace(w, seed, trace_jobs(w, seconds));
    let fidelity = t.fidelity();
    if let Err(e) = &fidelity {
        eprintln!("replay fidelity check failed: {e}");
    }
    let l = &t.layers;
    println!(
        "work: {} jobs, {} T1 tasks, {} distinct, {} simulated cycles",
        t.jobs, l.tasks, t.distinct_tasks, l.cycles
    );
    let n = t.jobs.max(1) as f64;
    let per_job = |d: Duration| ms(d) / n;
    let hit_ratio = |s: &CacheStats| s.hits as f64 / (s.hits + s.misses).max(1) as f64;
    let [enc, streams, verdicts] = &t.service_end;
    let mut dispatch = t.dispatch_ms.clone();
    let [jobs_per_s, tasks_per_s, p50, p90] = load(&t.outcomes);
    let stream_mb = (l.compiled_tasks as usize * std::mem::size_of::<T1Task>()) as f64 / 1048576.0;
    let metrics = vec![
        metric("fingerprint.ms_per_job", per_job(l.fingerprint), "ms"),
        metric(
            "fingerprint.mb_per_s",
            l.fingerprint_bytes as f64 / 1048576.0 / l.fingerprint.as_secs_f64().max(1e-9),
            "MiB/s",
        ),
        metric("encode.ms_per_job", per_job(l.encode), "ms"),
        metric("encode.calls", l.encode_calls as f64, "count"),
        metric("verify.ms_per_job", per_job(l.verify), "ms"),
        metric("verify.calls", l.verify_calls as f64, "count"),
        metric("compile.ms_per_job", per_job(l.compile), "ms"),
        metric("compile.calls", l.compile_calls as f64, "count"),
        metric("compile.stream_mb", stream_mb, "MiB"),
        metric("simulate.ms_per_job", per_job(l.simulate), "ms"),
        metric(
            "simulate.ns_per_task",
            l.simulate.as_secs_f64() * 1e9 / l.tasks.max(1) as f64,
            "ns",
        ),
        metric("simulate.tasks", l.tasks as f64, "count"),
        metric("simulate.distinct_tasks", t.distinct_tasks as f64, "count"),
        metric(
            "simulate.redundancy",
            l.tasks as f64 / t.distinct_tasks.max(1) as f64,
            "ratio",
        ),
        metric("simulate.cycles", l.cycles as f64, "count"),
        metric("fold.ms_per_job", per_job(l.fold), "ms"),
        metric("cache.encoding_hit_ratio", hit_ratio(enc), "ratio"),
        metric("cache.stream_hit_ratio", hit_ratio(streams), "ratio"),
        metric("cache.verdict_hit_ratio", hit_ratio(verdicts), "ratio"),
        metric(
            "cache.evictions",
            (enc.evictions + streams.evictions + verdicts.evictions) as f64,
            "count",
        ),
        metric(
            "dispatch.ms_per_job",
            dispatch.iter().sum::<f64>() / n,
            "ms",
        ),
        metric(
            "dispatch.queue_wait_p90_ms",
            quantile(&mut dispatch, 0.90),
            "ms",
        ),
        metric("service.jobs_per_s", jobs_per_s, "jobs/s"),
        metric("service.tasks_per_s", tasks_per_s, "tasks/s"),
        metric("service.job_p50_ms", p50, "ms"),
        metric("service.job_p90_ms", p90, "ms"),
    ];
    RunResult {
        correct: t.failed == 0 && fidelity.is_ok(),
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    }
}
