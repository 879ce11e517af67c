//! What the workloads share: run options, the run clock, and the
//! small readers of `/proc` and of the engine's text reports.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::stats::Samples;

/// One workload run's options (the contract's flags, plus `--smoke`).
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced run: per-layer metrics and the span file.
    pub trace: bool,
    /// Test scale: datasets a twentieth the size, one set-up, a short
    /// warm-up. Numbers from a smoke run mean nothing.
    pub smoke: bool,
    /// Where span files, result files and the WAL scratch tree go.
    pub results_dir: PathBuf,
}

impl Opts {
    /// Untimed warm-up before the measured window.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.2 } else { 2.0 })
    }

    /// How many times set-up runs; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            5
        }
    }

    /// Scales a dataset size down for smoke runs.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Runs `set_up` `opts.setup_reps()` times, dropping each result
/// before the next starts; returns the last one and the median
/// set-up time in seconds (`setup_s`).
pub fn set_up_repeatedly<T>(opts: &Opts, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Samples::new();
    let mut last = None;
    for _ in 0..opts.setup_reps() {
        drop(last.take());
        let started = Instant::now();
        last = Some(set_up());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        seconds.percentile_or_zero(50.0),
    )
}

/// `Engine::new(shards)`: `clamp(nproc, 2, 4)`.
pub fn shard_count() -> usize {
    nproc().clamp(2, 4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// An independent generator per (seed, stream): client 0, client 1,
/// the writer, the row pool.
pub fn stream(seed: u64, stream: u64) -> Rng {
    Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(stream))
}

/// Warm-up from `start`, measured window from `measure_from` to `end`.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    pub start: Instant,
    pub measure_from: Instant,
    pub end: Instant,
}

impl Clock {
    pub fn starting_now(warmup: Duration, seconds: f64) -> Self {
        let start = Instant::now();
        let measure_from = start + warmup;
        Clock {
            start,
            measure_from,
            end: measure_from + Duration::from_secs_f64(seconds),
        }
    }

    pub fn window_s(&self) -> f64 {
        (self.end - self.measure_from).as_secs_f64()
    }
}

pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads `name = value` from `[section]` of an `obs` text report.
pub fn report_value(report: &str, section: &str, name: &str) -> Option<f64> {
    let header = format!("[{section}]");
    report
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .find_map(|line| {
            let (key, value) = line.split_once('=')?;
            (key.trim() == name).then(|| value.trim().parse().ok())?
        })
}

/// `a / b`, 0 when `b` is 0 (an idle layer's ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_value_reads_the_named_section_only() {
        let report = "[engine]\nqueries = 7\nscan_nanos = 12\n\n[shards]\nshards = 2\ntasks = 40\n";
        assert_eq!(report_value(report, "engine", "queries"), Some(7.0));
        assert_eq!(report_value(report, "shards", "tasks"), Some(40.0));
        assert_eq!(report_value(report, "engine", "tasks"), None);
        assert_eq!(report_value(report, "absent", "tasks"), None);
    }
}
