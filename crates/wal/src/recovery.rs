//! Crash recovery (Section III-D).
//!
//! "On the event of a crash, data should be recovered up to the last
//! complete execution of a flush, ignoring any subsequent partial
//! flush executions that might be found on disk." Rounds are replayed
//! in sequence order and must form a *chain*: each round's `lse`
//! equals the previous round's `lse_prime` and file sequence numbers
//! are contiguous. The first unreadable round ends the replay (it and
//! anything after it belong to incomplete flush executions), and so
//! does a hole in the chain — a round stranded beyond a gap may be
//! internally valid but describes history whose prefix is missing,
//! so replaying it would recover a state that never existed. Epochs
//! recovered from disk are all committed by construction — only
//! epochs at or below a past LCE are ever flushed — so recovery
//! finishes by fast-forwarding the node's clock past the highest
//! recovered epoch and committing a marker transaction to pull LCE
//! over the recovered history.

use std::path::Path;

use aosi::Epoch;
use cubrick::{DeltaRun, Engine};
use obs::sync::unpoison;
use obs::ReportBuilder;

use crate::chain::{self, ChainScan};
use crate::codec::WalError;
use crate::fault::{RealFs, WalFs};

/// What recovery managed to restore.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete rounds replayed.
    pub rounds_applied: usize,
    /// Round files ignored (partial flushes, corrupt files, and
    /// rounds stranded beyond a chain gap).
    pub rounds_skipped: usize,
    /// Chain breaks detected: a sequence-number hole or a round whose
    /// `lse` does not continue the previous round's `lse_prime`.
    pub gaps_detected: usize,
    /// Rows restored.
    pub rows_recovered: u64,
    /// Highest epoch restored (the recovered LCE).
    pub recovered_epoch: Epoch,
    /// Deltas dropped because their cube is not registered. Non-zero
    /// means the caller recovered with incomplete DDL: flushed rows
    /// exist on disk that this engine could not take.
    pub unknown_cube_deltas: usize,
}

impl RecoveryReport {
    /// Appends this report's counters to `report` under `section`.
    pub fn report_into(&self, report: &mut ReportBuilder, section: &str) {
        report
            .section(section)
            .metric("rounds_salvaged", self.rounds_applied)
            .metric("rounds_skipped", self.rounds_skipped)
            .metric("gaps_detected", self.gaps_detected)
            .metric("rows_recovered", self.rows_recovered)
            .metric("recovered_epoch", self.recovered_epoch)
            .metric("unknown_cube_deltas", self.unknown_cube_deltas);
    }

    /// This report as a standalone `[wal.recovery]` text block.
    pub fn metrics_report(&self) -> String {
        let mut report = ReportBuilder::new();
        self.report_into(&mut report, "wal.recovery");
        report.finish()
    }
}

/// Replays the rounds in `dir` into `engine` (whose cubes must
/// already be registered — schemas are metadata, not WAL content).
pub fn recover_into(dir: &Path, engine: &Engine) -> Result<RecoveryReport, WalError> {
    recover_into_with(&RealFs, dir, engine)
}

/// Like [`recover_into`], but reading through `fs` (the torture
/// harness substitutes its simulated filesystem).
pub fn recover_into_with(
    fs: &dyn WalFs,
    dir: &Path,
    engine: &Engine,
) -> Result<RecoveryReport, WalError> {
    let report = replay(chain::scan_chain(fs, dir)?, engine);
    commit_marker(engine, report.recovered_epoch)?;
    Ok(report)
}

/// Imports every round of `scan`'s consistent prefix into `engine`.
pub(crate) fn replay(scan: ChainScan, engine: &Engine) -> RecoveryReport {
    let mut report = RecoveryReport {
        rounds_skipped: scan.skipped,
        gaps_detected: scan.gaps,
        ..Default::default()
    };
    for chain_round in scan.prefix {
        let round = chain_round.round;
        // Rebuild dictionaries first: imported coordinates reference
        // these ids.
        for dict_delta in &round.dictionaries {
            let Ok(cube) = engine.cube(&dict_delta.cube) else {
                continue;
            };
            if let Some(dict) = cube
                .dictionaries()
                .get(dict_delta.dim as usize)
                .and_then(|d| d.as_ref())
            {
                let mut dict = unpoison(dict.lock());
                for (offset, entry) in dict_delta.entries.iter().enumerate() {
                    let id = dict.encode(entry);
                    debug_assert_eq!(
                        id,
                        dict_delta.first_id + offset as u32,
                        "dictionary replay out of order"
                    );
                }
            }
        }
        for delta in &round.deltas {
            for run in &delta.runs {
                if let DeltaRun::Insert { records, .. } = run {
                    report.rows_recovered += records.len() as u64;
                }
                report.recovered_epoch = report.recovered_epoch.max(run.epoch());
            }
        }
        report.recovered_epoch = report.recovered_epoch.max(round.lse_prime);
        report.unknown_cube_deltas += engine.import_delta(round.deltas);
        report.rounds_applied += 1;
    }
    report
}

/// Makes the recovered (committed) history visible: pushes the clock
/// past `recovered` and advances LCE over it with a marker commit.
pub(crate) fn commit_marker(engine: &Engine, recovered: Epoch) -> Result<(), WalError> {
    if recovered == 0 {
        return Ok(());
    }
    engine.manager().clock().observe(recovered);
    let marker = engine.manager().begin_rw();
    engine.manager().commit(&marker).map_err(|e| {
        WalError::Recovery(format!(
            "marker transaction failed to pull LCE over the recovered history: {e}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultHooks;
    use crate::flush::FlushController;
    use cluster::ReplicationTracker;
    use columnar::Value;
    use cubrick::{AggFn, Aggregation, CubeSchema, Dimension, IsolationMode, Metric, Query};
    use std::fs;
    use std::path::PathBuf;

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
        let dir =
            std::env::temp_dir().join(format!("aosi-recovery-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn full_crash_recovery_roundtrip() {
        let dir = tempdir("roundtrip");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();

        let source = engine();
        load(&source, 0, 10);
        load(&source, 1, 20);
        ctl.flush_round(&source, &tracker).unwrap();
        load(&source, 2, 40);
        ctl.flush_round(&source, &tracker).unwrap();

        // "Crash": a fresh engine recovers from disk.
        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 2);
        assert_eq!(report.rounds_skipped, 0);
        assert_eq!(report.gaps_detected, 0);
        assert_eq!(report.rows_recovered, 3);
        assert_eq!(sum(&restored), 70.0);
        // The recovered node can keep loading without epoch
        // collisions.
        load(&restored, 3, 100);
        assert_eq!(sum(&restored), 170.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_trailing_flush_is_ignored() {
        let dir = tempdir("partial");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        load(&source, 0, 10);
        ctl.flush_round(&source, &tracker).unwrap();
        load(&source, 1, 20);
        ctl.flush_round(&source, &tracker).unwrap();

        // Truncate the last round mid-file (simulated crash during
        // flush).
        let mut files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let last = files.last().unwrap();
        let bytes = fs::read(last).unwrap();
        fs::write(last, &bytes[..bytes.len() - 6]).unwrap();

        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 1);
        assert_eq!(report.rounds_skipped, 1);
        assert_eq!(report.gaps_detected, 0, "a torn file is not a hole");
        assert_eq!(sum(&restored), 10.0, "only the complete round counts");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_ends_replay_even_with_later_good_rounds() {
        let dir = tempdir("middle");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        for round in 0..3 {
            load(&source, round, 10 * (round + 1));
            ctl.flush_round(&source, &tracker).unwrap();
        }
        let mut files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        // Corrupt the middle round.
        let mut bytes = fs::read(&files[1]).unwrap();
        bytes[20] ^= 0xFF;
        fs::write(&files[1], bytes).unwrap();

        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 1);
        assert_eq!(report.rounds_skipped, 2, "corrupt + everything after");
        assert_eq!(sum(&restored), 10.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The recovery-gap regression (ISSUE 5, satellite 2): a missing
    /// middle round ends replay at the last consistent prefix and is
    /// counted, instead of being silently jumped over.
    #[test]
    fn missing_middle_round_is_a_detected_gap() {
        let dir = tempdir("gap");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        for round in 0..3 {
            load(&source, round, 10 * (round + 1));
            ctl.flush_round(&source, &tracker).unwrap();
        }
        fs::remove_file(dir.join("round-00000001.cbk")).unwrap();

        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 1, "replay ends at the hole");
        assert_eq!(report.rounds_skipped, 1, "the stranded round");
        assert_eq!(report.gaps_detected, 1);
        assert_eq!(sum(&restored), 10.0, "no phantom post-hole history");

        // The pre-fix behavior is preserved behind the fault hooks for
        // the torture harness's meta-test: the stranded round replays
        // and recovery silently loses the middle of the history.
        let legacy = engine();
        let blind = FaultHooks {
            skip_chain_validation: true,
            ..Default::default()
        };
        let report = blind.recover_into(&RealFs, &dir, &legacy).unwrap();
        assert_eq!(report.rounds_applied, 2);
        assert_eq!(report.gaps_detected, 0, "pre-fix: the hole goes unnoticed");
        assert_eq!(sum(&legacy), 40.0, "pre-fix: a hole in the middle");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An lse chain break is detected even when sequence numbers are
    /// contiguous (the on-disk shape a clobbering restart produces).
    #[test]
    fn lse_discontinuity_is_a_detected_gap() {
        let dir = tempdir("lse-gap");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        load(&source, 0, 10);
        ctl.flush_round(&source, &tracker).unwrap();
        load(&source, 1, 20);
        ctl.flush_round(&source, &tracker).unwrap();
        // Rewrite round 1 as if a reset controller had produced it:
        // it claims to start from lse 0 again.
        let original =
            crate::codec::decode(&fs::read(dir.join("round-00000001.cbk")).unwrap()).unwrap();
        let forged = crate::codec::FlushRound { lse: 0, ..original };
        fs::write(
            dir.join("round-00000001.cbk"),
            crate::codec::encode(&forged),
        )
        .unwrap();

        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 1);
        assert_eq!(report.gaps_detected, 1);
        assert_eq!(sum(&restored), 10.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The marker-commit failure path (ISSUE 5, satellite 3) returns
    /// a typed error instead of panicking.
    #[test]
    fn failed_marker_commit_is_a_typed_error() {
        let dir = tempdir("marker");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        load(&source, 0, 10);
        ctl.flush_round(&source, &tracker).unwrap();

        let restored = engine();
        let failing = FaultHooks {
            fail_marker_commit: true,
            ..Default::default()
        };
        let result = failing.recover_into(&RealFs, &dir, &restored);
        match result {
            Err(WalError::Recovery(msg)) => assert!(msg.contains("marker"), "{msg}"),
            other => panic!("expected WalError::Recovery, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovering_nothing_is_fine() {
        let dir = tempdir("empty");
        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(sum(&restored), 0.0);
    }

    #[test]
    fn recovery_report_renders_metrics() {
        let report = RecoveryReport {
            rounds_applied: 3,
            rounds_skipped: 1,
            gaps_detected: 1,
            rows_recovered: 42,
            recovered_epoch: 9,
            unknown_cube_deltas: 2,
        };
        let text = report.metrics_report();
        assert!(text.starts_with("[wal.recovery]\n"), "{text}");
        assert!(text.contains("rounds_salvaged = 3\n"), "{text}");
        assert!(text.contains("rounds_skipped = 1\n"), "{text}");
        assert!(text.contains("gaps_detected = 1\n"), "{text}");
        assert!(text.contains("rows_recovered = 42\n"), "{text}");
        assert!(text.contains("recovered_epoch = 9\n"), "{text}");
        assert!(text.contains("unknown_cube_deltas = 2\n"), "{text}");
    }

    /// The silent-skip regression (satellite 2): recovering into an
    /// engine missing a cube's DDL used to drop that cube's deltas
    /// without a trace. The count now surfaces in the report.
    #[test]
    fn recovery_with_missing_ddl_reports_dropped_deltas() {
        let dir = tempdir("missing-ddl");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        source
            .create_cube(
                CubeSchema::new(
                    "orphan",
                    vec![Dimension::int("day", 8, 4)],
                    vec![Metric::int("likes")],
                )
                .unwrap(),
            )
            .unwrap();
        load(&source, 0, 10);
        source
            .load("orphan", &[vec![Value::from(1i64), Value::from(5i64)]], 0)
            .unwrap();
        ctl.flush_round(&source, &tracker).unwrap();

        // The restored engine only knows "events" — the orphan cube's
        // delta has nowhere to go, and the report must say so.
        let restored = engine();
        let report = recover_into(&dir, &restored).unwrap();
        assert_eq!(report.rounds_applied, 1);
        assert_eq!(report.unknown_cube_deltas, 1);
        assert_eq!(sum(&restored), 10.0, "known cubes still recover");

        // With the full DDL nothing is dropped.
        let complete = engine();
        complete
            .create_cube(
                CubeSchema::new(
                    "orphan",
                    vec![Dimension::int("day", 8, 4)],
                    vec![Metric::int("likes")],
                )
                .unwrap(),
            )
            .unwrap();
        let report = recover_into(&dir, &complete).unwrap();
        assert_eq!(report.unknown_cube_deltas, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn string_dimensions_recover_with_consistent_dictionaries() {
        // The subtle case: coordinates on disk are dictionary ids, so
        // a fresh process (with empty dictionaries) must rebuild them
        // from the persisted dictionary deltas before any query can
        // encode filters or decode group keys.
        let dir = tempdir("dicts");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();

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
        // A second round with new dictionary entries only ships the
        // increment.
        source
            .load("s", &[vec![Value::from("mx"), Value::from(40i64)]], 0)
            .unwrap();
        ctl.flush_round(&source, &tracker).unwrap();

        let restored = make();
        recover_into(&dir, &restored).unwrap();
        // Filter by string value: requires the dictionary mapping.
        let sum = |region: &str| {
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
        assert_eq!(sum("us"), 10.0);
        assert_eq!(sum("br"), 20.0);
        assert_eq!(sum("mx"), 40.0);
        // Group keys decode back to the original strings.
        let grouped = restored
            .query(
                "s",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]).grouped_by("region"),
                IsolationMode::Snapshot,
            )
            .unwrap();
        let keys: Vec<String> = grouped.rows.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(keys, vec!["us", "br", "mx"]);
        // New loads after recovery keep extending the dictionary
        // without id collisions.
        restored
            .load("s", &[vec![Value::from("de"), Value::from(80i64)]], 0)
            .unwrap();
        assert_eq!(sum("de"), 80.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deletes_survive_recovery() {
        let dir = tempdir("deletes");
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(&dir, 1).unwrap();
        let source = engine();
        load(&source, 0, 10);
        source.delete_where("events", &[]).unwrap();
        load(&source, 1, 5);
        ctl.flush_round(&source, &tracker).unwrap();

        let restored = engine();
        recover_into(&dir, &restored).unwrap();
        assert_eq!(sum(&restored), 5.0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
