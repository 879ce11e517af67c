//! Background flush rounds and LSE advancement (Section III-D).
//!
//! "Every time a disk flush round is initialized, a new candidate LSE
//! (LSE') is selected and data between LSE and LSE' is flushed on
//! every single partition. … After the flush procedure finishes, LSE
//! is eventually updated to LSE'." LSE is only allowed to move once
//! the replication tracker confirms every replica holds the epoch
//! durably and the transaction manager confirms no active reader
//! would be disturbed.
//!
//! A round becomes durable in four syscalls, each of which the crash
//! torture harness can cut: write the `.tmp` file, fsync it, rename
//! it to `round-NNNNNNNN.cbk`, and fsync the directory so the new
//! entry itself survives power loss. Opening a controller on an
//! existing directory *resumes* the chain found on disk — sequence
//! number, flushed-through epoch, and dictionary watermarks — rather
//! than restarting at zero and clobbering `round-00000000.cbk`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aosi::{AosiError, Epoch};
use cluster::{NodeId, ReplicationTracker};
use cubrick::Engine;
use obs::sync::unpoison;
use obs::{Counter, Gauge, Histogram, ReportBuilder};

use crate::chain;
use crate::codec::{self, DictDelta, FlushRound, WalError};
use crate::fault::{RealFs, WalFs};

/// What one flush round accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// The round's inclusive upper epoch (candidate LSE').
    pub lse_prime: Epoch,
    /// Bytes written to the round file (0 if the round was empty and
    /// skipped).
    pub bytes_written: u64,
    /// Brick deltas persisted.
    pub deltas: usize,
    /// Whether the node's LSE advanced as a result.
    pub lse_advanced: bool,
}

/// Durability-path counters, reported under `[wal.flush]`.
#[derive(Debug, Default)]
struct FlushMetrics {
    rounds_written: Counter,
    bytes_written: Counter,
    file_syncs: Counter,
    dir_syncs: Counter,
    renames: Counter,
    /// Wall time of each round's [`codec::encode`].
    encode_nanos: Histogram,
    /// Rounds found on disk and resumed at controller open.
    resumed_rounds: Gauge,
}

/// Drives flush rounds for one node.
pub struct FlushController {
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    node: NodeId,
    pub(crate) next_seq: u64,
    /// Upper bound of the last persisted round (exclusive lower bound
    /// of the next).
    pub(crate) flushed_through: Epoch,
    /// Dictionary lengths already persisted, per `(cube, dim)`: the
    /// next round only ships the new entries.
    pub(crate) dict_watermarks: HashMap<(String, u16), u32>,
    metrics: FlushMetrics,
}

impl FlushController {
    /// A controller writing round files into `dir` for `node`,
    /// resuming any round chain already on disk.
    pub fn new(dir: impl Into<PathBuf>, node: NodeId) -> std::io::Result<Self> {
        Self::with_fs(Arc::new(RealFs), dir, node)
    }

    /// Like [`FlushController::new`] but routing every syscall
    /// through `fs` — the torture harness substitutes its simulated
    /// filesystem here.
    pub fn with_fs(
        fs: Arc<dyn WalFs>,
        dir: impl Into<PathBuf>,
        node: NodeId,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        let scan = chain::scan_chain(fs.as_ref(), &dir).map_err(wal_to_io)?;
        let mut dict_watermarks: HashMap<(String, u16), u32> = HashMap::new();
        for r in &scan.prefix {
            for d in &r.round.dictionaries {
                let watermark = dict_watermarks.entry((d.cube.clone(), d.dim)).or_insert(0);
                *watermark = (*watermark).max(d.first_id + d.entries.len() as u32);
            }
        }
        // Files beyond the consistent prefix (partial flushes, stray
        // tmp files, rounds stranded past a hole) are unreachable by
        // recovery; clear them so the resumed chain is unambiguous.
        let mut removed = false;
        for path in &scan.dead_paths {
            fs.remove_file(path)?;
            removed = true;
        }
        if removed {
            fs.sync_dir(&dir)?;
        }
        let metrics = FlushMetrics::default();
        metrics.resumed_rounds.set(scan.prefix.len() as u64);
        Ok(FlushController {
            fs,
            node,
            next_seq: scan.prefix.len() as u64,
            flushed_through: scan.flushed_through(),
            dict_watermarks,
            metrics,
            dir,
        })
    }

    /// Directory holding this node's round files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Highest epoch durably flushed by this controller.
    pub fn flushed_through(&self) -> Epoch {
        self.flushed_through
    }

    /// Round files this controller resumed from disk when opened.
    pub fn resumed_rounds(&self) -> u64 {
        self.metrics.resumed_rounds.get()
    }

    /// Runs one flush round against `engine` and reports it to
    /// `tracker`; advances the node's LSE if every replica (per the
    /// tracker) is caught up and no active reader blocks it.
    pub fn flush_round(
        &mut self,
        engine: &Engine,
        tracker: &ReplicationTracker,
    ) -> Result<FlushOutcome, WalError> {
        // Candidate LSE': everything committed so far. All
        // transactions at or below LCE are finished by the LCE rule.
        let candidate = engine.manager().lce();
        let mut outcome = FlushOutcome {
            lse_prime: candidate,
            ..Default::default()
        };
        if candidate > self.flushed_through {
            let deltas = engine.export_delta(self.flushed_through, candidate);
            let dictionaries = self.export_dictionaries(engine);
            let round = FlushRound {
                lse: self.flushed_through,
                lse_prime: candidate,
                deltas,
                dictionaries,
            };
            outcome.deltas = round.deltas.len();
            let started = Instant::now();
            let bytes = codec::encode(&round);
            self.metrics.encode_nanos.record_duration(started.elapsed());
            let path = self.dir.join(format!("round-{:08}.cbk", self.next_seq));
            let tmp = self.dir.join(format!("round-{:08}.tmp", self.next_seq));
            self.fs.write_file(&tmp, &bytes)?;
            self.fs.sync_file(&tmp)?;
            self.metrics.file_syncs.inc();
            self.fs.rename(&tmp, &path)?;
            self.metrics.renames.inc();
            // The rename made the round visible; this makes it
            // durable. Without it a power cut can lose the directory
            // entry of a fully synced round.
            self.fs.sync_dir(&self.dir)?;
            self.metrics.dir_syncs.inc();
            // Controller state only moves once the round is durable:
            // a failure above leaves the next attempt to rewrite the
            // same sequence number from the same watermarks.
            self.next_seq += 1;
            self.flushed_through = candidate;
            for d in &round.dictionaries {
                self.dict_watermarks
                    .insert((d.cube.clone(), d.dim), d.first_id + d.entries.len() as u32);
            }
            outcome.bytes_written = bytes.len() as u64;
            self.metrics.rounds_written.inc();
            self.metrics.bytes_written.add(bytes.len() as u64);
        }
        tracker.mark_flushed(self.node, self.flushed_through);

        // LSE may advance to what is durable on every replica.
        if let Some(safe) = tracker.safe_epoch() {
            let target = safe.min(engine.manager().lce());
            if target > engine.manager().lse() {
                match engine.manager().advance_lse(target) {
                    Ok(()) => outcome.lse_advanced = true,
                    // An in-flight reader below the target: retry on
                    // the next round rather than stall the flush.
                    Err(AosiError::ActiveReaderBelow { .. }) => {}
                    Err(e) => {
                        debug_assert!(false, "unexpected LSE failure: {e}");
                    }
                }
            }
        }
        Ok(outcome)
    }

    /// Appends this controller's counters to `report` under
    /// `section`.
    pub fn report_into(&self, report: &mut ReportBuilder, section: &str) {
        report
            .section(section)
            .counter("rounds_written", &self.metrics.rounds_written)
            .counter("bytes_written", &self.metrics.bytes_written)
            .counter("file_syncs", &self.metrics.file_syncs)
            .counter("dir_syncs", &self.metrics.dir_syncs)
            .counter("renames", &self.metrics.renames)
            .histogram("encode_nanos", &self.metrics.encode_nanos)
            .gauge("resumed_rounds", &self.metrics.resumed_rounds)
            .metric("flushed_through", self.flushed_through)
            .metric("next_seq", self.next_seq);
    }

    /// This controller's durability counters as a standalone
    /// `[wal.flush]` report.
    pub fn metrics_report(&self) -> String {
        let mut report = ReportBuilder::new();
        self.report_into(&mut report, "wal.flush");
        report.finish()
    }

    /// New dictionary entries since the last round, for every string
    /// dimension of every cube. Coordinates on disk reference these
    /// ids, so they must be durable alongside the data. Watermarks
    /// only advance after the round is durably written (see
    /// `flush_round`).
    fn export_dictionaries(&self, engine: &Engine) -> Vec<DictDelta> {
        let mut deltas = Vec::new();
        for cube_name in engine.cube_names() {
            let Ok(cube) = engine.cube(&cube_name) else {
                continue;
            };
            for (dim, dict) in cube.dictionaries().iter().enumerate() {
                let Some(dict) = dict else { continue };
                let dict = unpoison(dict.lock());
                let key = (cube_name.clone(), dim as u16);
                let from = self.dict_watermarks.get(&key).copied().unwrap_or(0);
                let entries = dict.entries_from(from);
                if entries.is_empty() {
                    continue;
                }
                deltas.push(DictDelta {
                    cube: cube_name.clone(),
                    dim: dim as u16,
                    first_id: from,
                    entries,
                });
            }
        }
        deltas
    }
}

fn wal_to_io(e: WalError) -> std::io::Error {
    match e {
        WalError::Io(io) => io,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Convenience for tests/benches: a throwaway directory under the
/// system temp dir, removed on drop.
pub struct TempWalDir {
    path: PathBuf,
}

impl TempWalDir {
    /// Creates `aosi-wal-<tag>-<pid>` under the temp dir.
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("aosi-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempWalDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempWalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover_into;
    use columnar::Value;
    use cubrick::{AggFn, Aggregation, CubeSchema, Dimension, IsolationMode, Metric, Query};
    use std::fs;

    fn engine() -> Engine {
        let engine = Engine::new(2);
        engine
            .create_cube(
                CubeSchema::new(
                    "events",
                    vec![Dimension::int("day", 8, 4)],
                    vec![Metric::int("likes")],
                )
                .unwrap(),
            )
            .unwrap();
        engine
    }

    fn load(engine: &Engine, day: i64, likes: i64) {
        engine
            .load("events", &[vec![Value::from(day), Value::from(likes)]], 0)
            .unwrap();
    }

    fn sum(engine: &Engine) -> f64 {
        engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                IsolationMode::Snapshot,
            )
            .unwrap()
            .scalar()
            .unwrap_or(0.0)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aosi-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn flush_writes_rounds_and_advances_lse() {
        let dir = tempdir("basic");
        let engine = engine();
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();

        load(&engine, 0, 10);
        load(&engine, 1, 20);
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert_eq!(outcome.lse_prime, 2);
        assert!(outcome.bytes_written > 0);
        assert!(outcome.lse_advanced);
        assert_eq!(engine.manager().lse(), 2);
        assert_eq!(ctl.flushed_through(), 2);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);

        // Nothing new: no file, no movement.
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert_eq!(outcome.bytes_written, 0);
        assert!(!outcome.lse_advanced);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lse_waits_for_replicas() {
        let dir = tempdir("replicas");
        let engine = engine();
        // Two "replicas": node 2 never reports.
        let tracker = ReplicationTracker::new(2);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&engine, 0, 1);
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert!(!outcome.lse_advanced, "replica 2 not caught up");
        assert_eq!(engine.manager().lse(), 0);
        // Replica catches up; next round advances.
        tracker.mark_flushed(2, 1);
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert!(outcome.lse_advanced);
        assert_eq!(engine.manager().lse(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offline_replica_blocks_lse() {
        let dir = tempdir("offline");
        let engine = engine();
        let tracker = ReplicationTracker::new(1);
        tracker.mark_offline(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&engine, 0, 1);
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert!(!outcome.lse_advanced);
        assert_eq!(engine.manager().lse(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn active_reader_defers_lse_until_next_round() {
        let dir = tempdir("reader");
        let engine = engine();
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&engine, 0, 1);
        let guard = engine.manager().begin_read(); // reader at epoch 1
        load(&engine, 1, 2);
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert!(!outcome.lse_advanced, "reader at 1 blocks LSE 2");
        drop(guard);
        let outcome = ctl.flush_round(&engine, &tracker).unwrap();
        assert!(outcome.lse_advanced);
        assert_eq!(engine.manager().lse(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The restart-clobber regression (ISSUE 5, satellite 1): flush,
    /// reopen the controller, flush again — the old rounds stay
    /// intact and recovery sees all rows.
    #[test]
    fn reopened_controller_resumes_instead_of_clobbering() {
        let dir = tempdir("resume");
        let tracker = ReplicationTracker::new(1);
        let source = engine();

        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&source, 0, 10);
        ctl.flush_round(&source, &tracker).unwrap();
        load(&source, 1, 20);
        ctl.flush_round(&source, &tracker).unwrap();
        drop(ctl);

        // The process restarts; the same engine keeps running (only
        // the controller was recreated, as a flush-daemon restart
        // would).
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        assert_eq!(ctl.resumed_rounds(), 2);
        assert_eq!(ctl.flushed_through(), 2, "resume picked up lse'");
        load(&source, 2, 40);
        ctl.flush_round(&source, &tracker).unwrap();

        let mut files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "round-00000000.cbk",
                "round-00000001.cbk",
                "round-00000002.cbk"
            ],
            "old rounds intact, new round appended"
        );

        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 3);
        assert_eq!(report.rows_recovered, 3);
        assert_eq!(sum(&restored), 70.0, "recovery sees all rows");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Resume also restores dictionary watermarks, so a round written
    /// after reopen ships only the genuinely new entries and replayed
    /// ids stay collision-free.
    #[test]
    fn reopened_controller_resumes_dictionary_watermarks() {
        let dir = tempdir("resume-dicts");
        let tracker = ReplicationTracker::new(1);
        let make = || {
            let engine = Engine::new(2);
            engine
                .create_cube(
                    CubeSchema::new(
                        "s",
                        vec![Dimension::string("region", 8, 2)],
                        vec![Metric::int("likes")],
                    )
                    .unwrap(),
                )
                .unwrap();
            engine
        };
        let source = make();
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        source
            .load(
                "s",
                &[
                    vec![Value::from("us"), Value::from(10i64)],
                    vec![Value::from("br"), Value::from(20i64)],
                ],
                0,
            )
            .unwrap();
        ctl.flush_round(&source, &tracker).unwrap();
        drop(ctl);

        let mut ctl = FlushController::new(&dir, 1).unwrap();
        source
            .load("s", &[vec![Value::from("mx"), Value::from(40i64)]], 0)
            .unwrap();
        ctl.flush_round(&source, &tracker).unwrap();

        let restored = make();
        recover_into(&dir, &restored).unwrap();
        let by_region = |region: &str| {
            restored
                .query(
                    "s",
                    &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
                        .filter(cubrick::DimFilter::new("region", vec![Value::from(region)])),
                    IsolationMode::Snapshot,
                )
                .unwrap()
                .scalar()
                .unwrap_or(0.0)
        };
        assert_eq!(by_region("us"), 10.0);
        assert_eq!(by_region("br"), 20.0);
        assert_eq!(by_region("mx"), 40.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Without the fix, a reopened controller restarts at sequence 0
    /// and its next flush clobbers `round-00000000.cbk`. The fault
    /// hook reintroduces exactly that behavior.
    #[test]
    fn reset_hook_reproduces_the_clobber() {
        let dir = tempdir("clobber");
        let tracker = ReplicationTracker::new(1);
        let source = engine();
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&source, 0, 10);
        ctl.flush_round(&source, &tracker).unwrap();
        let original = fs::read(dir.join("round-00000000.cbk")).unwrap();

        let clobber = crate::fault::FaultHooks {
            restart_clobber: true,
            ..Default::default()
        };
        clobber.restart(&mut ctl);
        load(&source, 1, 20);
        ctl.flush_round(&source, &tracker).unwrap();
        let clobbered = fs::read(dir.join("round-00000000.cbk")).unwrap();
        assert_ne!(original, clobbered, "pre-fix behavior must clobber");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_a_controller_clears_dead_trailing_files() {
        let dir = tempdir("dead-files");
        let tracker = ReplicationTracker::new(1);
        let source = engine();
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&source, 0, 10);
        ctl.flush_round(&source, &tracker).unwrap();
        drop(ctl);
        // A partial flush and a stray tmp file linger after a crash.
        fs::write(dir.join("round-00000001.cbk"), b"partial").unwrap();
        fs::write(dir.join("round-00000002.tmp"), b"tmp").unwrap();

        let ctl = FlushController::new(&dir, 1).unwrap();
        assert_eq!(ctl.resumed_rounds(), 1);
        assert_eq!(ctl.flushed_through(), 1);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["round-00000000.cbk"], "dead files removed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_report_counts_the_durability_path() {
        let dir = tempdir("metrics");
        let engine = engine();
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        load(&engine, 0, 10);
        ctl.flush_round(&engine, &tracker).unwrap();
        let text = ctl.metrics_report();
        assert!(text.starts_with("[wal.flush]\n"), "{text}");
        assert!(text.contains("rounds_written = 1\n"), "{text}");
        assert!(text.contains("file_syncs = 1\n"), "{text}");
        assert!(text.contains("dir_syncs = 1\n"), "{text}");
        assert!(text.contains("renames = 1\n"), "{text}");
        assert!(text.contains("encode_nanos.count = 1\n"), "{text}");
        assert!(text.contains("flushed_through = 1\n"), "{text}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
