//! Workspace lint gate: `cargo run -p analysis --bin lint`.
//!
//! Scans every library source under `crates/*/src` against the rules in
//! [`analysis::lint`] and exits nonzero on any finding or stale allowlist
//! entry, so CI can gate on it. `--rules` prints the rule table.

use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--rules") {
        for (name, summary) in analysis::lint::rule_table() {
            println!("{name:<16} {summary}");
        }
        return ExitCode::SUCCESS;
    }
    let root = analysis::lint::workspace_root();
    let report = match analysis::lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: cannot scan workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    for s in &report.stale {
        println!("{s}");
    }
    if report.is_clean() {
        println!("lint clean: {} library files scanned, 0 findings", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: {} finding(s) and {} stale allowlist entries across {} scanned files",
            report.findings.len(),
            report.stale.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
