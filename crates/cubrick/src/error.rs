//! Engine error type.

/// Errors surfaced by the Cubrick engine layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CubrickError {
    /// No cube with that name.
    UnknownCube(String),
    /// A cube with that name already exists.
    CubeExists(String),
    /// Schema construction failed.
    InvalidSchema(String),
    /// The request referenced a column that does not exist or has the
    /// wrong role (dimension vs. metric).
    UnknownColumn(String),
    /// Too many input records were rejected (`max_rejected`
    /// exceeded): the whole batch is discarded (Section V-B).
    TooManyRejected {
        /// Records rejected during parsing.
        rejected: usize,
        /// The request's tolerance.
        max_rejected: usize,
    },
    /// The combined group-by dimensions exceed the 64-bit packed
    /// group key.
    GroupKeyTooWide {
        /// Bits the requested grouping would need.
        bits: u32,
        /// The offending dimension list.
        dims: Vec<String>,
    },
    /// A time-travel query targeted an epoch outside the readable
    /// window `[LSE, LCE]`.
    EpochOutOfRange {
        /// Requested read epoch.
        requested: aosi::Epoch,
        /// Oldest readable epoch (purge floor).
        lse: aosi::Epoch,
        /// Newest consistent epoch.
        lce: aosi::Epoch,
    },
    /// A brick-scan task panicked on its shard thread. The whole
    /// query fails — a partial aggregate missing one brick's rows
    /// would be silently wrong. The shard itself survives.
    ScanTaskPanicked {
        /// Cube the failed scan belonged to.
        cube: String,
        /// The brick whose task panicked, when the parallel per-brick
        /// path can attribute it (`None` for a sequential shard walk).
        bid: Option<u64>,
    },
    /// No live replica could answer a read for this brick at the
    /// requested snapshot: every host was down, still catching up, or
    /// mid-handoff.
    NoReplicaAvailable {
        /// Cube the read targeted.
        cube: String,
        /// The brick no replica could serve.
        bid: u64,
    },
    /// Capturing a brick's runs for a rebalance handoff failed: the
    /// shard-side export task panicked (or a spilled brick could not
    /// be reloaded) before producing a capture. The handoff must be
    /// abandoned — treating this as an empty brick would stream
    /// nothing, mark the copy readable, and retire the source.
    BrickExportFailed {
        /// Cube the brick belongs to.
        cube: String,
        /// The brick whose capture failed.
        bid: u64,
    },
    /// A spilled (cold-tier) brick could not be faulted back in: the
    /// snapshot read or decode failed. The query or mutation that
    /// needed the brick fails — proceeding without its rows would be
    /// silently wrong.
    TierReloadFailed {
        /// Cube the brick belongs to.
        cube: String,
        /// The brick that could not be reloaded.
        bid: u64,
        /// What the tier store reported.
        reason: String,
    },
    /// Appending a batch's records to a brick panicked on its shard
    /// thread (which survives). A load rolls its transaction back.
    AppendFailed {
        /// Cube the load targeted.
        cube: String,
        /// The brick whose append panicked.
        bid: u64,
    },
    /// A brick handoff (rebalance transfer) could not complete: the
    /// stream or its ack exhausted the retry budget. The source
    /// replica keeps the brick.
    HandoffFailed {
        /// Cube the brick belongs to.
        cube: String,
        /// The brick being moved.
        bid: u64,
        /// Source replica.
        from: u64,
        /// Destination replica.
        to: u64,
    },
    /// A protocol-layer error bubbled up.
    Protocol(aosi::AosiError),
}

impl std::fmt::Display for CubrickError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubrickError::UnknownCube(name) => write!(f, "unknown cube {name:?}"),
            CubrickError::CubeExists(name) => write!(f, "cube {name:?} already exists"),
            CubrickError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            CubrickError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            CubrickError::TooManyRejected {
                rejected,
                max_rejected,
            } => write!(
                f,
                "batch discarded: {rejected} records rejected (max_rejected = {max_rejected})"
            ),
            CubrickError::GroupKeyTooWide { bits, dims } => {
                write!(f, "GROUP BY {dims:?} needs {bits} key bits (max 64)")
            }
            CubrickError::EpochOutOfRange {
                requested,
                lse,
                lce,
            } => write!(
                f,
                "epoch {requested} outside the readable window [{lse}, {lce}]"
            ),
            CubrickError::ScanTaskPanicked { cube, bid } => match bid {
                Some(bid) => write!(f, "scan task for cube {cube:?} brick {bid} panicked"),
                None => write!(f, "a scan task for cube {cube:?} panicked"),
            },
            CubrickError::NoReplicaAvailable { cube, bid } => write!(
                f,
                "no live replica can answer for cube {cube:?} brick {bid} at this snapshot"
            ),
            CubrickError::BrickExportFailed { cube, bid } => write!(
                f,
                "export of cube {cube:?} brick {bid} failed: no capture was produced"
            ),
            CubrickError::TierReloadFailed { cube, bid, reason } => write!(
                f,
                "reload of spilled cube {cube:?} brick {bid} failed: {reason}"
            ),
            CubrickError::AppendFailed { cube, bid } => {
                write!(f, "append to cube {cube:?} brick {bid} panicked")
            }
            CubrickError::HandoffFailed {
                cube,
                bid,
                from,
                to,
            } => write!(
                f,
                "handoff of cube {cube:?} brick {bid} from node {from} to node {to} failed"
            ),
            CubrickError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for CubrickError {}

impl From<aosi::AosiError> for CubrickError {
    fn from(e: aosi::AosiError) -> Self {
        CubrickError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(CubrickError::UnknownCube("x".into())
            .to_string()
            .contains('x'));
        assert!(CubrickError::TooManyRejected {
            rejected: 5,
            max_rejected: 2
        }
        .to_string()
        .contains("discarded"));
        let e: CubrickError = aosi::AosiError::TxnFinished(1).into();
        assert!(e.to_string().contains("protocol"));
        assert!(CubrickError::BrickExportFailed {
            cube: "c".into(),
            bid: 3
        }
        .to_string()
        .contains("no capture"));
        assert!(CubrickError::TierReloadFailed {
            cube: "c".into(),
            bid: 3,
            reason: "checksum".into()
        }
        .to_string()
        .contains("checksum"));
    }
}
