//! `aosi_bench`: this repository's benchmark — four workloads, six
//! end-to-end metrics every workload reports, and a traced run that
//! yields the per-layer numbers. `BENCHMARK.json` at the repository
//! root is generated from the lists in `report.rs`; `README.md` next
//! to this crate's manifest says how to read what it prints.
//!
//! ```text
//! aosi_bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! aosi_bench [--seed N] [--seconds S] [--repeat N] [--out F] every workload, both kinds of run
//! aosi_bench compare A.json B.json                           judge B against A by the bounds
//! aosi_bench manifest                                        print BENCHMARK.json
//! aosi_bench metrics                                         print the metric tables of README.md
//! ```

mod bulk;
mod common;
mod compare;
mod gen;
mod probes;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use common::Opts;
use report::{Outcome, WORKLOADS};
use serving::Kind;

/// Length of one measured window unless `--seconds` says otherwise;
/// also `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    results_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        results_dir: PathBuf::from("aosi_bench/results"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => parsed.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--results-dir" => parsed.results_dir = PathBuf::from(value()?),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// One workload in this process: the driver's contract.
fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        results_dir: args.results_dir.clone(),
    };
    std::fs::create_dir_all(&opts.results_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.results_dir.display()))?;
    let outcome: Outcome = match name {
        "dash_scan" => serving::run(Kind::DashScan, &opts),
        "realtime_mixed" => serving::run(Kind::RealtimeMixed, &opts),
        "pinned_replay" => serving::run(Kind::PinnedReplay, &opts),
        "bulk_load_durable" => bulk::run(&opts),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {other}; one of {known:?}"));
        }
    };
    for why in outcome.violations.iter().take(20) {
        eprintln!("{name}: {why}");
    }
    for (metric, value, unit) in outcome.rows(opts.trace) {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} error_rate {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.result_line(opts.trace));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Runs one workload in a fresh child process (so `peak_rss_mb` is
/// that workload's own) and returns its result line.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(&args.results_dir)
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default().to_owned();
    for line in lines {
        println!("{line}");
    }
    if result.starts_with('{') {
        Ok(result)
    } else {
        Err(format!(
            "{name} (trace {}) printed no result: {}",
            u8::from(trace),
            output.status
        ))
    }
}

/// Every workload, untraced then traced, `repeat` times over; writes
/// the result file `compare` reads.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..args.repeat {
        for (name, _) in WORKLOADS {
            let end_to_end = run_child(name, args, false)?;
            let per_layer = run_child(name, args, true)?;
            all_correct &=
                end_to_end.contains("\"correct\": true") && per_layer.contains("\"correct\": true");
            runs.push(format!(
                "    {{\"workload\": \"{name}\", \"seed\": {}, \"repeat\": {repeat}, \
                 \"end_to_end\": {end_to_end}, \"per_layer\": {per_layer}}}",
                args.seed
            ));
        }
    }
    let git_head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let file = format!(
        "{{\n  \"meta\": {{\"nproc\": {}, \"shards\": {}, \"git_head\": \"{git_head}\", \
         \"profile\": \"{}\", \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"smoke\": {}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        common::nproc(),
        common::shard_count(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        args.seconds,
        args.repeat,
        args.smoke,
        runs.join(",\n")
    );
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.results_dir.join("aosi_bench.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, &file).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    if args.repeat > 1 {
        compare::print_summary(&compare::ResultFile::parse(&file)?);
    }
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest(RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        Some("metrics") => {
            print!("{}", report::metric_tables());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: aosi_bench compare A.json B.json".into()),
        },
        _ => {
            let args = parse_args(&args)?;
            match &args.workload {
                Some(name) => run_workload(name, &args),
                None => run_suite(&args),
            }
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|why| {
        eprintln!("aosi_bench: {why}");
        ExitCode::FAILURE
    })
}
