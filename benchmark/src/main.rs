//! Command line of the eXACML+ benchmark.
//!
//! ```text
//! exacml-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! exacml-benchmark steady --workload <name> [--runs N] [--seconds S] [--first-seed K]
//! ```
//!
//! A run prints human-readable lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones. `steady` runs one
//! workload N times with seeds K..K+N and prints, for every end-to-end
//! metric, the median, quartiles and spread over the runs.

use exacml_benchmark::output::result_line;
use exacml_benchmark::stats::{median, quartiles};
use exacml_benchmark::{trace, Params, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    steady: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let steady = raw.first().is_some_and(|a| a == "steady");
    if steady {
        raw.remove(0);
    }
    let mut args = Args { steady, workload: None, seed: 1, seconds: 10.0, trace: false, runs: 10 };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" | "--first-seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--runs" => args.runs = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!("--workload is required: one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    if args.steady {
        return steady(&args, workload);
    }
    // Journals and WAL probes live in the working directory (the checkout),
    // under a per-process name, and are removed when the run ends.
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", workload.name(), std::process::id()));
    let params = Params { seed: args.seed, seconds: args.seconds, scale: Scale::Full, scratch };
    let report = if args.trace {
        trace::run(workload, &params)
    } else {
        exacml_benchmark::run(workload, &params)
    };
    let _ = std::fs::remove_dir(".bench_scratch");
    println!(
        "workload {} seed {} ({})",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for error in &report.errors {
        println!("  CHECK FAILED: {error}");
    }
    if report.error_count > report.errors.len() as u64 {
        println!("  … {} failed checks in all", report.error_count);
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

/// Run the workload `runs` times, one process per run, and print the spread
/// of every metric as the bounds in `BENCHMARK.json` are judged.
fn steady(args: &Args, workload: Workload) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut counts = Vec::new();
    for seed in args.seed..args.seed + args.runs {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string(), "--trace", "0"]);
        let output = match cmd.output() {
            Ok(output) if output.status.success() => output,
            Ok(output) => {
                eprintln!("seed {seed}: exit {}", output.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(parsed) = stdout.lines().last().and_then(|l| serde_json::from_str(l).ok()) else {
            eprintln!("seed {seed}: no result line");
            return ExitCode::FAILURE;
        };
        let field = |k: &str| parsed.get(k).and_then(serde_json::Value::as_f64).unwrap_or(f64::NAN);
        let correct = parsed.get("correct").and_then(serde_json::Value::as_bool) == Some(true);
        counts.push((seed, correct, field("attempted"), field("failed")));
        if let Some(serde_json::Value::Object(metrics)) = parsed.get("metrics") {
            for (name, metric) in metrics {
                let value =
                    metric.get("value").and_then(serde_json::Value::as_f64).unwrap_or(f64::NAN);
                let unit = metric.get("unit").and_then(serde_json::Value::as_str).unwrap_or("");
                values
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
        }
        println!("seed {seed}: {}", stdout.lines().last().unwrap_or(""));
    }
    println!("workload {} over {} runs of {} s", workload.name(), args.runs, args.seconds);
    for (seed, correct, attempted, failed) in &counts {
        let share = if *attempted > 0.0 { failed / attempted } else { f64::NAN };
        println!("  seed {seed}: correct {correct}, attempted {attempted}, failed {failed} (share {share})");
    }
    println!(
        "  {:<20} {:>8} {:>14} {:>14} {:>14} {:>8} {:>3}",
        "metric", "unit", "median", "q1", "q3", "spread", "n"
    );
    for (name, (unit, vals)) in &values {
        let (q1, _, q3) = quartiles(vals).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let mid = median(vals);
        println!(
            "  {name:<20} {unit:>8} {mid:>14.4} {q1:>14.4} {q3:>14.4} {:>8.4} {:>3}",
            (q3 - q1) / mid,
            vals.len()
        );
    }
    ExitCode::SUCCESS
}
