//! The one generate → execute → check → shrink framework every
//! schedule harness plugs into.
//!
//! A [`Harness`] executes one `workload::ops` [`Schedule`] and checks
//! it, returning its counters or the first [`Failure`]. Everything
//! around that is shared:
//!
//! * [`check_seed`] generates a seed's schedule, runs it, and on
//!   failure [`shrink`]s it, dumps an artifact, and panics with the
//!   commands that rerun the seed and replay the artifact.
//! * [`shrink`] finds the shortest failing prefix by bisection, then
//!   greedily drops single ops to a fixpoint. Executors treat dangling
//!   slot references as no-ops, so every subsequence is a valid
//!   schedule. For the torture harnesses truncation changes the
//!   boundary enumeration, so "prefix fails" is not strictly monotone
//!   there — the bisection is a cheap heuristic, not a proof.
//! * Artifacts are one text format, read back by [`replay`]:
//!
//!   ```text
//!   # <free-form comments: the failure, the replay command>
//!   harness crash
//!   bugs skip-dir-sync
//!   seed 301
//!   flush
//!   ```
//!
//!   `harness <name>` comes first, then the harness's own
//!   `key value` lines ([`Harness::header`]), then the
//!   [`Schedule::to_text`] body starting at its `seed` line.
//!   [`replay`] dispatches on the name and refuses names it does not
//!   know — and the chaos/elastic suites' seed artifacts, which
//!   replay through their own suites.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use workload::ops::{GenConfig, LogicalOp, Schedule};

use crate::agg::Agg;
use crate::differential::Differential;
use crate::scan::Scan;
use crate::seeds::artifact_dir;
use crate::torture::Torture;

/// The command that replays artifacts (`AOSI_REPLAY=<file>` in front).
const REPLAY_COMMAND: &str = "cargo test -p oracle --test corpus env_replay";

/// A detected failure: a disagreement with the reference, an engine
/// error, an SI checker violation, or a durability violation.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Index of the schedule op that detected it; `None` for checks
    /// outside the op loop (final sweeps, recoveries, probes).
    pub op_index: Option<usize>,
    /// The crash boundary whose power cut exposed it (torture
    /// harnesses only).
    pub crash_point: Option<u64>,
    /// Human-readable description.
    pub detail: String,
}

impl Failure {
    /// A failure outside the op loop.
    pub fn new(detail: impl Into<String>) -> Failure {
        Failure {
            op_index: None,
            crash_point: None,
            detail: detail.into(),
        }
    }

    /// A failure detected by op `op_index`, if any.
    pub fn at(op_index: Option<usize>, detail: impl Into<String>) -> Failure {
        Failure {
            op_index,
            ..Failure::new(detail)
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(k) = self.crash_point {
            write!(f, "crash boundary {k}: ")?;
        }
        if let Some(i) = self.op_index {
            write!(f, "op #{i}: ")?;
        }
        write!(f, "{}", self.detail)
    }
}

/// One way of executing and checking a schedule.
pub trait Harness {
    /// Counters from a clean run.
    type Report: fmt::Debug;

    /// The `harness <name>` artifact line.
    fn name(&self) -> &'static str;

    /// Executes `schedule` and checks it.
    fn run(&self, schedule: &Schedule) -> Result<Self::Report, Failure>;

    /// `key value` lines that rebuild this configuration when applied
    /// through [`Harness::set`] to the harness [`replay`] constructs
    /// for [`Harness::name`].
    fn header(&self) -> Vec<String> {
        Vec::new()
    }

    /// Applies one `key value` header line read from an artifact.
    fn set(&mut self, key: &str, _value: &str) -> Result<(), String> {
        Err(format!("harness {} takes no {key:?} line", self.name()))
    }

    /// The `crates/oracle/tests` target whose `env_seeds` test reruns
    /// a seed through this harness.
    fn target(&self) -> &'static str;

    /// Runs per shrink candidate: a nondeterministic harness counts a
    /// candidate as failing if any attempt fails.
    fn attempts(&self) -> usize {
        1
    }
}

/// A shrunk failing schedule plus its dumped artifact.
pub struct Shrunk {
    /// The smallest still-failing schedule found.
    pub schedule: Schedule,
    /// The failure the shrunk schedule reproduces.
    pub failure: Failure,
    /// Path of the written `.seed` artifact.
    pub artifact: PathBuf,
}

/// Shrinks a failing `schedule` under `harness` and dumps a
/// replayable artifact. `None` when the schedule does not fail.
pub fn shrink<H: Harness>(harness: &H, schedule: &Schedule) -> Option<Shrunk> {
    let fails = |ops: &[LogicalOp]| {
        let candidate = Schedule {
            seed: schedule.seed,
            ops: ops.to_vec(),
        };
        (0..harness.attempts()).find_map(|_| harness.run(&candidate).err())
    };
    let original = fails(&schedule.ops)?;

    // Phase 1: shortest failing prefix.
    let mut lo = 0usize;
    let mut hi = schedule.ops.len(); // invariant: prefix of hi fails
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(&schedule.ops[..mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut ops = schedule.ops[..hi].to_vec();

    // Phase 2: greedy per-op removal to a fixpoint.
    loop {
        let mut changed = false;
        for i in (0..ops.len()).rev() {
            let mut candidate = ops.clone();
            candidate.remove(i);
            if fails(&candidate).is_some() {
                ops = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let failure = fails(&ops).unwrap_or(original);
    let schedule = Schedule {
        seed: schedule.seed,
        ops,
    };
    let artifact = write_artifact(
        harness.name(),
        &harness.header(),
        &schedule,
        &[
            format!("failure: {failure}"),
            format!("replay: AOSI_REPLAY=<this file> {REPLAY_COMMAND}"),
        ],
    )
    .expect("artifact dir is writable");
    Some(Shrunk {
        schedule,
        failure,
        artifact,
    })
}

/// Generates the schedule for `seed`, runs it through `harness`, and —
/// on failure — shrinks it, dumps an artifact, and panics with the
/// commands that rerun the seed and replay the artifact. Every pinned
/// corpus is a loop over this.
pub fn check_seed<H: Harness>(harness: &H, seed: u64, gen: &GenConfig) -> H::Report {
    let schedule = Schedule::generate(seed, gen);
    match harness.run(&schedule) {
        Ok(report) => report,
        Err(failure) => {
            let shrunk = match shrink(harness, &schedule) {
                Some(min) => format!(
                    "minimized to {} ops ({})\nreplay: AOSI_REPLAY={} {REPLAY_COMMAND}",
                    min.schedule.ops.len(),
                    min.failure,
                    min.artifact.display()
                ),
                // A flaky failure that did not reproduce under the
                // shrinker still fails the run — report the original.
                None => "failure did not reproduce under minimization".to_string(),
            };
            panic!(
                "{} failure: seed {seed} [{}]: {failure}\n{shrunk}\n\
                 rerun: AOSI_SEEDS={seed} cargo test -p oracle --test {} env_seeds",
                harness.name(),
                harness.header().join(", "),
                harness.target()
            );
        }
    }
}

/// Writes an artifact into [`artifact_dir`] and returns its path. The
/// file name carries the harness, the seed and the header values, so
/// an injected-bug run (the meta-tests) never clobbers a genuine
/// failure's artifact for the same seed.
pub(crate) fn write_artifact(
    harness: &str,
    header: &[String],
    schedule: &Schedule,
    comments: &[String],
) -> io::Result<PathBuf> {
    let dir = artifact_dir();
    fs::create_dir_all(&dir)?;
    let mut name = format!("{harness}-seed{}", schedule.seed);
    for line in header {
        let value = line.split_once(' ').map_or("", |(_, v)| v);
        name.push('-');
        name.push_str(&value.replace(' ', "-").replace(',', "+"));
    }
    let path = dir.join(format!("{name}.seed"));
    let mut text = String::new();
    for comment in comments {
        text.push_str(&format!("# {}\n", comment.replace('\n', " ")));
    }
    text.push_str(&format!("harness {harness}\n"));
    for line in header {
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(&schedule.to_text());
    fs::write(&path, text)?;
    Ok(path)
}

/// A parsed artifact.
struct Artifact {
    harness: String,
    header: Vec<(String, String)>,
    schedule: Schedule,
}

impl Artifact {
    fn read(path: &Path) -> Result<Artifact, Failure> {
        let text = fs::read_to_string(path)
            .map_err(|e| Failure::new(format!("cannot read artifact {}: {e}", path.display())))?;
        let bad = |detail: String| Failure::new(format!("artifact {}: {detail}", path.display()));
        let mut harness = None;
        let mut header = Vec::new();
        let mut lines = text.lines();
        let mut body = String::new();
        for line in lines.by_ref() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if harness.is_none() {
                if key != "harness" {
                    return Err(bad("the first line must be `harness <name>`".into()));
                }
                harness = Some(value.trim().to_string());
            } else if key == "seed" {
                body.push_str(line);
                body.push('\n');
                break;
            } else {
                header.push((key.to_string(), value.trim().to_string()));
            }
        }
        for line in lines {
            body.push_str(line);
            body.push('\n');
        }
        let harness = harness.ok_or_else(|| bad("no `harness <name>` line".into()))?;
        let schedule = Schedule::from_text(&body).map_err(bad)?;
        Ok(Artifact {
            harness,
            header,
            schedule,
        })
    }

    fn run<H: Harness>(&self, mut harness: H) -> Result<H::Report, Failure> {
        if self.harness != harness.name() {
            return Err(Failure::new(format!(
                "a `harness {}` artifact cannot replay through the {} harness",
                self.harness,
                harness.name()
            )));
        }
        for (key, value) in &self.header {
            harness.set(key, value).map_err(Failure::new)?;
        }
        harness.run(&self.schedule)
    }
}

/// Replays the artifact at `path` through the harness its `harness`
/// line names; returns the clean run's counters, rendered.
pub fn replay(path: &Path) -> Result<String, Failure> {
    let artifact = Artifact::read(path)?;
    let clean = |report: &dyn fmt::Debug| format!("{report:?}");
    match artifact.harness.as_str() {
        "differential" => artifact.run(Differential::default()).map(|r| clean(&r)),
        "scan" => artifact.run(Scan::default()).map(|r| clean(&r)),
        "agg" => artifact.run(Agg).map(|r| clean(&r)),
        "crash" => artifact.run(Torture::crash()).map(|r| clean(&r)),
        "tier" => artifact.run(Torture::tier()).map(|r| clean(&r)),
        suite @ ("chaos" | "elastic") => {
            let test = artifact
                .header
                .iter()
                .find(|(key, _)| key == "test")
                .map_or("", |(_, test)| test.as_str());
            Err(Failure::new(format!(
                "{suite} artifacts replay through their own suite: \
                 AOSI_SEEDS={} cargo test --test {suite}_cluster {test}",
                artifact.schedule.seed
            )))
        }
        other => Err(Failure::new(format!("unknown harness {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::Mode;
    use crate::seeds::artifact_dir;

    /// Fails iff a `Flush` comes before a `CheckNow`.
    struct FlushThenCheck;

    impl Harness for FlushThenCheck {
        type Report = ();

        fn name(&self) -> &'static str {
            "flush-then-check"
        }

        fn run(&self, schedule: &Schedule) -> Result<(), Failure> {
            let flush = schedule.ops.iter().position(|op| *op == LogicalOp::Flush);
            let check = flush.and_then(|f| {
                schedule.ops[f..]
                    .iter()
                    .position(|op| *op == LogicalOp::CheckNow)
                    .map(|c| f + c)
            });
            match check {
                Some(c) => Err(Failure::at(Some(c), "a flush preceded a check")),
                None => Ok(()),
            }
        }

        fn target(&self) -> &'static str {
            "corpus"
        }
    }

    #[test]
    fn shrink_reduces_to_the_two_ops_and_the_artifact_replays() {
        let gen = GenConfig {
            ops: 40,
            ..GenConfig::default()
        };
        // The first seed whose 40-op schedule fails the synthetic check.
        let schedule = (1..)
            .map(|seed| Schedule::generate(seed, &gen))
            .find(|s| FlushThenCheck.run(s).is_err())
            .unwrap();
        assert!(schedule.ops.len() >= 40);
        let min = shrink(&FlushThenCheck, &schedule).expect("a failing schedule shrinks");
        assert_eq!(
            min.schedule.ops,
            vec![LogicalOp::Flush, LogicalOp::CheckNow]
        );
        let replayed = Artifact::read(&min.artifact)
            .and_then(|artifact| artifact.run(FlushThenCheck))
            .expect_err("the artifact still fails");
        assert_eq!(replayed.to_string(), min.failure.to_string());
        let _ = fs::remove_file(&min.artifact);
    }

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        fs::write(&path, text).unwrap();
        path
    }

    /// A clean artifact per harness replays through [`replay`]; a
    /// mismatched, missing or unknown header is refused.
    #[test]
    fn replay_dispatches_on_the_harness_line() {
        let schedule = Schedule::generate(
            5,
            &GenConfig {
                ops: 10,
                slots: 2,
                max_batch: 3,
            },
        );
        let clean: [(&str, Vec<String>); 7] = [
            ("differential", Differential::default().header()),
            (
                "differential",
                Differential {
                    mode: Mode::Crash { crash_at: 4 },
                    inject: None,
                }
                .header(),
            ),
            ("scan", vec!["storage bess".into()]),
            ("agg", Vec::new()),
            ("crash", Vec::new()),
            ("tier", vec!["budget 256".into()]),
            ("differential", vec!["mode stress".into()]),
        ];
        for (harness, header) in &clean {
            let path = write_artifact(harness, header, &schedule, &["a clean schedule".into()])
                .expect("artifact dir is writable");
            let report = replay(&path).unwrap_or_else(|f| panic!("{}: {f}", path.display()));
            assert!(!report.is_empty());
            let _ = fs::remove_file(&path);
        }

        let dir = artifact_dir().join(format!("replay-table-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let body = schedule.to_text();
        let refused = [
            // A differential artifact's lines under another harness.
            (
                format!("harness agg\nmode stress\ninject snapshot-behind\n{body}"),
                "takes no",
            ),
            (
                format!("harness crash\nmode deterministic\n{body}"),
                "takes no",
            ),
            (format!("harness crash\nbudget 1024\n{body}"), "budget"),
            // Header-less schedule text names no harness.
            (body.clone(), "harness <name>"),
            (format!("harness bogus\n{body}"), "unknown harness"),
            (
                "harness chaos\ntest chaos_drops\nseed 41\n".to_string(),
                "AOSI_SEEDS=41 cargo test --test chaos_cluster chaos_drops",
            ),
            (
                "harness elastic\ntest kill_a_node_mid_workload\nseed 7\n".to_string(),
                "AOSI_SEEDS=7 cargo test --test elastic_cluster kill_a_node_mid_workload",
            ),
        ];
        for (k, (text, expect)) in refused.iter().enumerate() {
            let path = write(&dir, &format!("refused-{k}.seed"), text);
            let err = replay(&path).expect_err("a mismatched artifact must be refused");
            assert!(err.detail.contains(expect), "{k}: {err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
