//! Command-line entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --all [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload and prints its result as one JSON
//! object on the last line of standard output: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. The second
//! runs every workload both ways, each in its own process, and prints
//! every metric by name with its unit.

use std::process::{Command, ExitCode};

use perfbench::run;
use perfbench::workload::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 40.0,
        trace: false,
        all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--all" {
            args.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    if !args.all && args.workload.is_none() {
        return Err("--workload or --all is required".to_owned());
    }
    Ok(args)
}

/// Runs every workload, timed and traced, each in a child process of its
/// own so that `peak_rss_mb` is that workload's alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let result = obs::json::parse(line)
                .map_err(|e| format!("{} --trace {trace}: no result ({e})", w.name()))?;
            let correct = result.get("correct") == Some(&obs::json::Value::Bool(true));
            all_correct &= correct && out.status.success();
            println!("{} trace={trace} correct={correct}", w.name());
            let metrics = result
                .get("metrics")
                .and_then(|m| m.as_object())
                .unwrap_or_default();
            for (name, m) in metrics {
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                println!("  {name:<28} {value:>16.4} {unit}");
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.all {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = args.workload.expect("checked by parse_args");
    let result = if args.trace {
        run::traced(w, args.seed, args.seconds)
    } else {
        run::timed(w, args.seed, args.seconds)
    };
    // The verdict travels in the JSON (`correct`, `failed`); the exit
    // code reports only whether a result was produced.
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
