//! Offline integrity checking of a flush directory.
//!
//! Operational counterpart of recovery: scan a node's round files,
//! validate each one's footer/checksum, and report what a recovery
//! from this directory would restore — without touching an engine.
//! The `realtime_metrics` example and operators debugging a crashed
//! node use this to answer "how much is safely on disk?".
//!
//! The prediction is recovery's own: [`verify_dir`] reads the
//! directory through `chain::scan_chain`, whose consistent
//! prefix is exactly what recovery replays, and then classifies each
//! round file past the prefix as complete, incomplete or corrupt.
//! Files whose names are not round names are ignored, as recovery
//! ignores them.

use std::fs;
use std::path::{Path, PathBuf};

use aosi::Epoch;
use cubrick::DeltaRun;

use crate::chain::{round_seq, scan_chain};
use crate::codec::{self, FlushRound, WalError};
use crate::fault::{RealFs, WalFs};

/// Integrity status of one round file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundStatus {
    /// Complete and checksum-valid.
    Complete {
        /// Inclusive upper epoch of the round.
        lse_prime: Epoch,
        /// Rows the round carries.
        rows: u64,
    },
    /// Missing/invalid completion footer (crash mid-flush).
    Incomplete,
    /// Structurally damaged content.
    Corrupt(String),
}

/// One round file's verification result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// File path.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Integrity status.
    pub status: RoundStatus,
}

/// Directory-level verification result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Per-file results, in replay order.
    pub rounds: Vec<RoundReport>,
    /// Rows a recovery would restore (consistent prefix only).
    pub recoverable_rows: u64,
    /// Highest epoch a recovery would restore.
    pub recoverable_epoch: Epoch,
    /// Rounds a recovery would replay.
    pub recoverable_rounds: usize,
    /// Chain breaks: a sequence hole or a complete round whose `lse`
    /// does not continue the previous round's `lse_prime`. Such
    /// rounds are individually valid but unreachable by recovery.
    pub gaps_detected: usize,
}

impl VerifyReport {
    /// `true` when every file is complete and the chain has no gaps.
    pub fn is_clean(&self) -> bool {
        self.gaps_detected == 0
            && self
                .rounds
                .iter()
                .all(|r| matches!(r.status, RoundStatus::Complete { .. }))
    }
}

/// Verifies every round file in `dir`, in replay order, and computes
/// what recovery would restore (recovery stops at the first bad
/// round, so later complete rounds do not count).
pub fn verify_dir(dir: &Path) -> std::io::Result<VerifyReport> {
    let scan = scan_chain(&RealFs, dir).map_err(io_error)?;
    let mut report = VerifyReport {
        recoverable_rows: scan.prefix.iter().map(|r| rows(&r.round)).sum(),
        recoverable_epoch: scan.flushed_through(),
        recoverable_rounds: scan.prefix.len(),
        gaps_detected: scan.gaps,
        ..VerifyReport::default()
    };
    for chained in scan.prefix {
        report.rounds.push(RoundReport {
            bytes: fs::metadata(&chained.path)?.len(),
            path: chained.path,
            status: complete(&chained.round),
        });
    }
    for path in scan.dead_paths {
        if round_seq(&path).is_none() {
            continue;
        }
        let bytes = RealFs.read(&path)?;
        let status = match codec::decode(&bytes) {
            Ok(round) => complete(&round),
            Err(WalError::Incomplete) => RoundStatus::Incomplete,
            Err(WalError::Corrupt(msg)) => RoundStatus::Corrupt(msg),
            Err(e) => return Err(io_error(e)),
        };
        report.rounds.push(RoundReport {
            path,
            bytes: bytes.len() as u64,
            status,
        });
    }
    Ok(report)
}

/// Rows `round` carries.
fn rows(round: &FlushRound) -> u64 {
    (round.deltas.iter())
        .flat_map(|d| &d.runs)
        .map(|run| match run {
            DeltaRun::Insert { records, .. } => records.len() as u64,
            DeltaRun::Delete { .. } => 0,
        })
        .sum()
}

/// The status of a round that decodes.
fn complete(round: &FlushRound) -> RoundStatus {
    RoundStatus::Complete {
        lse_prime: round.lse_prime,
        rows: rows(round),
    }
}

/// A scan failure as the I/O error `verify_dir` reports.
fn io_error(e: WalError) -> std::io::Error {
    match e {
        WalError::Io(e) => e,
        e => std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush::{FlushController, TempWalDir};
    use cluster::ReplicationTracker;
    use columnar::Value;
    use cubrick::{CubeSchema, Dimension, Engine, Metric};

    fn flushed_engine(dir: &Path, rounds: usize) -> Engine {
        let engine = Engine::new(1);
        engine
            .create_cube(
                CubeSchema::new("t", vec![Dimension::int("k", 8, 4)], vec![Metric::int("v")])
                    .unwrap(),
            )
            .unwrap();
        let tracker = ReplicationTracker::new(1);
        let mut ctl = FlushController::new(dir, 1).unwrap();
        for r in 0..rounds {
            engine
                .load("t", &[vec![Value::I64((r % 8) as i64), Value::I64(1)]], 0)
                .unwrap();
            ctl.flush_round(&engine, &tracker).unwrap();
        }
        engine
    }

    #[test]
    fn clean_directory_verifies_fully() {
        let dir = TempWalDir::new("verify-clean");
        flushed_engine(dir.path(), 3);
        let report = verify_dir(dir.path()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.recoverable_rounds, 3);
        assert_eq!(report.recoverable_rows, 3);
        assert_eq!(report.recoverable_epoch, 3);
    }

    #[test]
    fn damage_truncates_the_recoverable_prefix() {
        let dir = TempWalDir::new("verify-damaged");
        flushed_engine(dir.path(), 3);
        // Corrupt round 2 of 3.
        let mut files: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let mut bytes = fs::read(&files[1]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&files[1], bytes).unwrap();

        let report = verify_dir(dir.path()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.recoverable_rounds, 1, "only the clean prefix");
        assert_eq!(report.recoverable_rows, 1);
        assert!(matches!(report.rounds[1].status, RoundStatus::Corrupt(_)));
        // Round 3 is complete but unreachable by recovery.
        assert!(matches!(
            report.rounds[2].status,
            RoundStatus::Complete { .. }
        ));
        // The verifier's prediction matches actual recovery.
        let restored = Engine::new(1);
        restored
            .create_cube(
                CubeSchema::new("t", vec![Dimension::int("k", 8, 4)], vec![Metric::int("v")])
                    .unwrap(),
            )
            .unwrap();
        let recovered = crate::recovery::recover_into(dir.path(), &restored).unwrap();
        assert_eq!(recovered.rows_recovered, report.recoverable_rows);
        assert_eq!(recovered.rounds_applied, report.recoverable_rounds);
    }

    #[test]
    fn a_hole_in_the_chain_is_a_gap_and_matches_recovery() {
        let dir = TempWalDir::new("verify-gap");
        flushed_engine(dir.path(), 3);
        fs::remove_file(dir.path().join("round-00000001.cbk")).unwrap();

        let report = verify_dir(dir.path()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.gaps_detected, 1);
        assert_eq!(report.recoverable_rounds, 1, "replay stops at the hole");
        assert_eq!(report.recoverable_rows, 1);
        // The stranded round is individually valid...
        assert!(matches!(
            report.rounds[1].status,
            RoundStatus::Complete { .. }
        ));
        // ...but the verifier's prediction still matches recovery.
        let restored = Engine::new(1);
        restored
            .create_cube(
                CubeSchema::new("t", vec![Dimension::int("k", 8, 4)], vec![Metric::int("v")])
                    .unwrap(),
            )
            .unwrap();
        let recovered = crate::recovery::recover_into(dir.path(), &restored).unwrap();
        assert_eq!(recovered.rows_recovered, report.recoverable_rows);
        assert_eq!(recovered.rounds_applied, report.recoverable_rounds);
        assert_eq!(recovered.gaps_detected, report.gaps_detected);
    }

    #[test]
    fn missing_directory_is_empty_not_an_error() {
        let report = verify_dir(Path::new("/definitely/not/here")).unwrap();
        assert!(report.rounds.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.recoverable_rows, 0);
    }

    #[test]
    fn truncated_file_reports_incomplete() {
        let dir = TempWalDir::new("verify-truncated");
        flushed_engine(dir.path(), 1);
        let file = fs::read_dir(dir.path())
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let bytes = fs::read(&file).unwrap();
        fs::write(&file, &bytes[..bytes.len() - 5]).unwrap();
        let report = verify_dir(dir.path()).unwrap();
        assert_eq!(report.rounds[0].status, RoundStatus::Incomplete);
        assert_eq!(report.recoverable_rounds, 0);
    }
}
