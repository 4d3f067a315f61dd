//! The load generator's client side: fresh starts, the closed loop, and
//! the check of every reply against the serial driver.

use std::time::{Duration, Instant};

use service::{JobRequest, Service, ServiceConfig};

use crate::workload::{Job, JobSource};

/// What the client saw for one job.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Submit-to-reply time.
    pub latency: Duration,
    /// Whether a report came back and its counters match the serial
    /// driver's.
    pub ok: bool,
    /// T1 tasks the reply's report issued (0 when not `ok`).
    pub tasks: u64,
    /// The job's kind.
    pub kind: usize,
}

/// Sends one job, waits for its reply and checks it against
/// `job.expected`. Failures are named on stderr with the job's id.
pub fn call(svc: &Service, job: &Job) -> Outcome {
    let since = Instant::now();
    let reply = svc.submit(JobRequest::new(job.request.clone())).wait();
    let latency = since.elapsed();
    let (ok, tasks) = match reply {
        Ok(resp) if *resp.report.counter_signature() == *job.expected => {
            (true, resp.report.t1_tasks)
        }
        Ok(resp) => {
            eprintln!(
                "job {} answered a wrong report: got `{}`, expected `{}`",
                job.id,
                resp.report.counter_signature(),
                job.expected
            );
            (false, 0)
        }
        Err(e) => {
            eprintln!("job {} failed: {e}", job.id);
            (false, 0)
        }
    };
    Outcome {
        latency,
        ok,
        tasks,
        kind: job.kind,
    }
}

/// A fresh service with its warm-up set answered.
pub struct Start {
    /// The service, warm.
    pub service: Service,
    /// Wall time from `Service::start` until the warm-up set was
    /// answered.
    pub time: Duration,
    /// Outcomes of the warm-up jobs.
    pub outcomes: Vec<Outcome>,
}

/// Starts a fresh service and answers the warm-up set on it.
pub fn start(cfg: &ServiceConfig, warmup: &[Job]) -> Start {
    let t0 = Instant::now();
    let service = Service::start(cfg.clone());
    let outcomes = warmup.iter().map(|job| call(&service, job)).collect();
    Start {
        service,
        time: t0.elapsed(),
        outcomes,
    }
}

/// A closed loop with one client and no think time: sends the source's
/// jobs one at a time until the summed submit-to-reply time reaches
/// `budget`. Generating a job's input and checking its reply happen
/// between calls and are not counted.
pub fn closed_loop(svc: &Service, source: &mut dyn JobSource, budget: Duration) -> Vec<Outcome> {
    let mut busy = Duration::ZERO;
    let mut outcomes = Vec::new();
    while busy < budget {
        let outcome = call(svc, &source.next_job());
        busy += outcome.latency;
        outcomes.push(outcome);
    }
    outcomes
}
