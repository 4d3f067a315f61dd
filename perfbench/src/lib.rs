//! A load-generating benchmark in front of `service::Service`.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! run it. The benchmark only calls the workspace crates' public APIs.

pub mod client;
pub mod replay;
pub mod run;
pub mod workload;
