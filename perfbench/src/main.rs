//! `perfbench` — the outside-in benchmark of the RustBrain repair stack.
//!
//! ```text
//! perfbench --workload <batch-cold|batch-warm|serve-mixed> \
//!           [--seed N] [--seconds N] [--trace 0|1]
//! perfbench --workload all [--seed N] [--seconds N]
//! ```
//!
//! A single workload prints progress on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits 1 when a correctness check fails. `all` runs
//! every workload untraced and then traced, each in its own process, and
//! prints every metric by name and unit.

mod batch;
mod measure;
mod report;
mod serve;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["batch-cold", "batch-warm", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line.
fn run_one(args: &Args) -> ExitCode {
    // Working space for knowledge stores, inside the benchmark's own
    // directory of the checkout; removed when the run ends.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut out: Outcome = match args.workload.as_str() {
        "batch-cold" => batch::run(batch::Warmth::Cold, seed, seconds, trace, &work),
        "batch-warm" => batch::run(batch::Warmth::Warm, seed, seconds, trace, &work),
        _ => serve::run(seed, seconds, trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent); // only succeeds once empty
    }
    if !trace {
        eprintln!("perfbench: host.parallelism {:.3}", measure::spin_probe());
    }
    let line = out.result_line(if trace { PER_LAYER } else { END_TO_END });
    for violation in &out.violations {
        eprintln!("perfbench: FAILED {violation}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload untraced and traced, each in a child process, and
/// prints every metric with its unit.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match output {
                Ok(output) => {
                    ok &= output.status.success();
                    String::from_utf8_lossy(&output.stdout).into_owned()
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {workload}: {e}");
                    ok = false;
                    continue;
                }
            };
            let last = stdout.lines().last().unwrap_or_default();
            let Ok(doc) = rb_serve::json::parse(last) else {
                eprintln!("perfbench: {workload} printed no result");
                ok = false;
                continue;
            };
            print_table(workload, trace == "1", &doc);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_table(workload: &str, trace: bool, doc: &rb_serve::json::Value) {
    use rb_serve::json::Value;
    let count = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
    println!(
        "== {workload} ({}) correct={} attempted={} failed={} error_rate={}",
        if trace {
            "traced, per layer"
        } else {
            "untraced, end to end"
        },
        doc.get("correct").and_then(Value::as_bool) == Some(true),
        count("attempted"),
        count("failed"),
        report::error_rate(count("attempted"), count("failed")),
    );
    let set = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        match value {
            Some(v) => println!("  {name:<28} {v:>14.4} {unit}"),
            None => println!("  {name:<28} {:>14} {unit}", "missing"),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
