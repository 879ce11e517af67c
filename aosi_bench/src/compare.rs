//! `aosi_bench compare A.json B.json`: judges B against A, one row per
//! (workload, end-to-end metric), by the bounds `BENCHMARK.json`
//! carries (the same list, `report::END_TO_END`, generates that file).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use server::json::{self, Json};

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread, Samples};

/// The end-to-end half of one workload run in a result file.
struct Run {
    workload: String,
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
}

/// A file `aosi_bench` (the whole suite) wrote.
pub struct ResultFile {
    runs: Vec<Run>,
}

impl ResultFile {
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let root = json::parse(text)?;
        let runs = root
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("no `runs` array")?;
        let runs = runs
            .iter()
            .map(|run| {
                let workload = run.get("workload").and_then(Json::as_str)?.to_owned();
                let result = run.get("end_to_end")?;
                let Json::Obj(members) = result.get("metrics")? else {
                    return None;
                };
                let metrics = members
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                    .collect();
                Some(Run {
                    workload,
                    metrics,
                    attempted: result.get("attempted")?.as_f64()?,
                    failed: result.get("failed")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<Run>>>()
            .ok_or("a run is missing its workload or end_to_end result")?;
        Ok(ResultFile { runs })
    }

    fn load(path: &Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ResultFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|run| run.workload == workload)
            .filter_map(|run| run.metrics.get(metric).copied())
            .collect()
    }

    /// Failed operations over attempted, across a workload's runs.
    fn error_rate(&self, workload: &str) -> f64 {
        let (failed, attempted) = self
            .runs
            .iter()
            .filter(|run| run.workload == workload)
            .fold((0.0, 0.0), |(f, a), run| {
                (f + run.failed, a + run.attempted)
            });
        if attempted == 0.0 {
            0.0
        } else {
            failed / attempted
        }
    }
}

fn median(values: &[f64]) -> Option<f64> {
    match quartiles(values) {
        Some([_, median, _]) => Some(median),
        None => Samples::from_values(values.iter().copied()).median(),
    }
}

/// `--repeat N`: per metric, the median and quartiles over the runs.
pub fn print_summary(file: &ResultFile) {
    println!("workload metric runs median q1 q3 spread bound");
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let values = file.values(workload, metric.name);
            let Some([q1, median, q3]) = quartiles(&values) else {
                continue;
            };
            println!(
                "{workload} {} {} {median} {q1} {q3} {:.4} {}",
                metric.name,
                values.len(),
                spread(&values).unwrap_or(0.0),
                metric.bound
            );
        }
    }
}

pub fn run(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (a, b) = (ResultFile::load(a)?, ResultFile::load(b)?);
    let mut regressions = 0;
    println!("workload metric median_a median_b worse_by spread bound verdict");
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let (in_a, in_b) = (
                a.values(workload, metric.name),
                b.values(workload, metric.name),
            );
            let (Some(median_a), Some(median_b)) = (median(&in_a), median(&in_b)) else {
                println!(
                    "{workload} {} - - - - {} unresolved (missing)",
                    metric.name, metric.bound
                );
                continue;
            };
            // Positive when B is worse, as a share of A's median.
            let worse_by = match metric.better {
                "lower" => (median_b - median_a) / median_a,
                _ => (median_a - median_b) / median_a,
            };
            // The inputs' own run-to-run spread; a single run has none.
            let noise = spread(&in_a)
                .into_iter()
                .chain(spread(&in_b))
                .fold(0.0, f64::max);
            let verdict = if noise > metric.bound {
                "unresolved"
            } else if worse_by > metric.bound {
                regressions += 1;
                "regressed"
            } else if worse_by < -metric.bound {
                "improved"
            } else {
                "ok"
            };
            println!(
                "{workload} {} {median_a} {median_b} {worse_by:+.4} {noise:.4} {} {verdict}",
                metric.name, metric.bound
            );
        }
        let (rate_a, rate_b) = (a.error_rate(workload), b.error_rate(workload));
        let verdict = if rate_b > rate_a {
            regressions += 1;
            "regressed"
        } else {
            "ok"
        };
        println!("{workload} error_rate {rate_a} {rate_b} - - 0 {verdict}");
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{regressions} regression(s)");
        ExitCode::FAILURE
    })
}
