//! Round-chain scanning shared by controller resume, recovery, and
//! directory verification.
//!
//! Round files form a chain: `round-00000000.cbk` starts at LSE 0,
//! and each subsequent round's `lse` must equal the previous round's
//! `lse_prime`, with contiguous file sequence numbers. The scanner
//! walks a directory in sequence order and splits it into the longest
//! *consistent prefix* (what the paper's durability rule lets a
//! recovery restore) and everything after it — partial flushes,
//! corrupt files, and rounds stranded beyond a hole in the chain.

use std::path::{Path, PathBuf};

use crate::codec::{self, FlushRound, WalError};
use crate::fault::WalFs;

/// Sequence number of a `round-NNNNNNNN.cbk` file name, if the name
/// matches the controller's naming scheme.
pub(crate) fn round_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("round-")?.strip_suffix(".cbk")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One round of the consistent prefix.
pub(crate) struct ChainRound {
    pub round: FlushRound,
    pub path: PathBuf,
}

/// What a directory scan found.
#[derive(Default)]
pub(crate) struct ChainScan {
    /// The longest consistent prefix, in replay order.
    pub prefix: Vec<ChainRound>,
    /// Round files after the prefix ends (partial, corrupt, or
    /// stranded beyond a chain break).
    pub skipped: usize,
    /// Chain breaks observed: a sequence hole or an `lse` that does
    /// not continue the previous round's `lse_prime`.
    pub gaps: usize,
    /// Files unreachable by recovery: everything skipped, plus stray
    /// `.tmp` files and unparseable names. Safe for a resuming
    /// controller to delete.
    pub dead_paths: Vec<PathBuf>,
}

impl ChainScan {
    /// `lse_prime` of the last prefix round (0 when empty).
    pub fn flushed_through(&self) -> u64 {
        self.prefix.last().map_or(0, |r| r.round.lse_prime)
    }
}

/// Scans `dir` through `fs`. A missing directory scans as empty.
pub(crate) fn scan_chain(fs: &dyn WalFs, dir: &Path) -> Result<ChainScan, WalError> {
    scan(fs, dir, true)
}

/// [`scan_chain`], or with `validate` false (the pre-fix gap-blind
/// behavior, reachable only through [`crate::fault::FaultHooks`])
/// without the lse-chain and sequence-contiguity rules: the prefix
/// then ends only at the first undecodable file.
pub(crate) fn scan(fs: &dyn WalFs, dir: &Path, validate: bool) -> Result<ChainScan, WalError> {
    let mut scan = ChainScan::default();
    let entries = match fs.list(dir) {
        Ok(entries) => entries,
        // No directory means nothing was ever flushed — unless the
        // listing failed for a real reason (e.g. a simulated power
        // cut), which must not masquerade as an empty log.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e.into()),
    };
    let mut rounds: Vec<(u64, PathBuf)> = Vec::new();
    for path in entries {
        match round_seq(&path) {
            Some(seq) => rounds.push((seq, path)),
            // Stray tmp files and foreign names never reach recovery.
            None => scan.dead_paths.push(path),
        }
    }
    rounds.sort();

    let mut expected_seq = 0u64;
    let mut expected_lse = 0u64;
    let mut prefix_intact = true;
    for (seq, path) in rounds {
        if !prefix_intact {
            scan.skipped += 1;
            scan.dead_paths.push(path);
            continue;
        }
        let bytes = fs.read(&path)?;
        match codec::decode(&bytes) {
            Ok(round) => {
                let breaks_chain = validate
                    && (seq != expected_seq
                        || round.lse != expected_lse
                        || round.lse_prime <= round.lse);
                if breaks_chain {
                    scan.gaps += 1;
                    prefix_intact = false;
                    scan.skipped += 1;
                    scan.dead_paths.push(path);
                } else {
                    expected_seq = seq + 1;
                    expected_lse = round.lse_prime;
                    scan.prefix.push(ChainRound { round, path });
                }
            }
            Err(WalError::Incomplete) | Err(WalError::Corrupt(_)) => {
                // The paper's rule: a partial flush ends the
                // recoverable history.
                prefix_intact = false;
                scan.skipped += 1;
                scan.dead_paths.push(path);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{RealFs, SimFs};
    use std::path::PathBuf;

    #[test]
    fn round_seq_parses_only_controller_names() {
        assert_eq!(round_seq(Path::new("/d/round-00000000.cbk")), Some(0));
        assert_eq!(round_seq(Path::new("/d/round-00000137.cbk")), Some(137));
        assert_eq!(round_seq(Path::new("/d/round-00000001.tmp")), None);
        assert_eq!(round_seq(Path::new("/d/round-1.cbk")), None);
        assert_eq!(round_seq(Path::new("/d/other.cbk")), None);
    }

    fn write_round(fs: &SimFs, dir: &Path, seq: u64, lse: u64, lse_prime: u64) {
        let round = FlushRound {
            lse,
            lse_prime,
            deltas: vec![],
            dictionaries: vec![],
        };
        let path = dir.join(format!("round-{seq:08}.cbk"));
        fs.write_file(&path, &codec::encode(&round)).unwrap();
    }

    #[test]
    fn contiguous_chain_is_one_prefix() {
        let fs = SimFs::new(1);
        let dir = PathBuf::from("/w");
        fs.create_dir_all(&dir).unwrap();
        write_round(&fs, &dir, 0, 0, 2);
        write_round(&fs, &dir, 1, 2, 5);
        write_round(&fs, &dir, 2, 5, 6);
        let scan = scan_chain(&fs, &dir).unwrap();
        assert_eq!(scan.prefix.len(), 3);
        assert_eq!(scan.flushed_through(), 6);
        assert_eq!(scan.gaps, 0);
        assert_eq!(scan.skipped, 0);
    }

    #[test]
    fn sequence_hole_ends_the_prefix() {
        let fs = SimFs::new(1);
        let dir = PathBuf::from("/w");
        fs.create_dir_all(&dir).unwrap();
        write_round(&fs, &dir, 0, 0, 2);
        // seq 1 is missing.
        write_round(&fs, &dir, 2, 5, 6);
        let scan = scan_chain(&fs, &dir).unwrap();
        assert_eq!(scan.prefix.len(), 1);
        assert_eq!(scan.gaps, 1);
        assert_eq!(scan.skipped, 1);
        // Without validation the stranded round is replayed — the
        // pre-fix bug.
        let legacy = super::scan(&fs, &dir, false).unwrap();
        assert_eq!(legacy.prefix.len(), 2);
        assert_eq!(legacy.gaps, 0);
    }

    #[test]
    fn lse_mismatch_is_a_gap_even_with_contiguous_names() {
        let fs = SimFs::new(1);
        let dir = PathBuf::from("/w");
        fs.create_dir_all(&dir).unwrap();
        write_round(&fs, &dir, 0, 0, 2);
        // A clobbering restart wrote seq 1 starting from lse 0.
        write_round(&fs, &dir, 1, 0, 4);
        let scan = scan_chain(&fs, &dir).unwrap();
        assert_eq!(scan.prefix.len(), 1);
        assert_eq!(scan.gaps, 1);
    }

    #[test]
    fn undecodable_round_ends_prefix_without_a_gap() {
        let fs = SimFs::new(1);
        let dir = PathBuf::from("/w");
        fs.create_dir_all(&dir).unwrap();
        write_round(&fs, &dir, 0, 0, 2);
        fs.write_file(&dir.join("round-00000001.cbk"), b"partial")
            .unwrap();
        write_round(&fs, &dir, 2, 5, 6);
        let scan = scan_chain(&fs, &dir).unwrap();
        assert_eq!(scan.prefix.len(), 1);
        assert_eq!(scan.gaps, 0, "a torn file is a partial flush, not a hole");
        assert_eq!(scan.skipped, 2);
        assert_eq!(scan.dead_paths.len(), 2);
    }

    #[test]
    fn missing_directory_scans_empty_under_realfs() {
        let scan = scan_chain(&RealFs, Path::new("/definitely/not/here")).unwrap();
        assert!(scan.prefix.is_empty());
        assert_eq!(scan.flushed_through(), 0);
    }
}
