//! Delta export/import: the engine half of persistence.
//!
//! Flush rounds move the rows of epochs in `(LSE, LSE']` to disk
//! (Section III-D): "data on this range can be identified by
//! analyzing the epochs vectors". [`Engine::export_delta`] walks
//! every brick's epochs vector and extracts exactly those runs — in
//! epochs-vector order, which is what preserves delete-point
//! semantics — and [`Engine::import_delta`] replays them during
//! recovery. Serialization itself lives in the `wal` crate.

use std::sync::Arc;

use aosi::Epoch;

use crate::brick::Brick;
use crate::engine::Engine;
use crate::error::CubrickError;
use crate::ingest::RecordChunk;
use crate::shard::ShardBricks;

/// One run of a brick's epochs vector, with its row payload.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaRun {
    /// Rows appended by `epoch`.
    Insert {
        /// Appending transaction.
        epoch: Epoch,
        /// The run's rows, copied out of the brick's columns.
        records: RecordChunk,
    },
    /// A partition-delete marker by `epoch`.
    Delete {
        /// Deleting transaction.
        epoch: Epoch,
    },
}

impl DeltaRun {
    /// The run's epoch.
    pub fn epoch(&self) -> Epoch {
        match self {
            DeltaRun::Insert { epoch, .. } | DeltaRun::Delete { epoch } => *epoch,
        }
    }
}

/// Everything one flush round persists for one brick.
#[derive(Clone, Debug, PartialEq)]
pub struct BrickDelta {
    /// Cube name.
    pub cube: String,
    /// Brick id.
    pub bid: u64,
    /// Runs with epochs in the flushed range, in epochs-vector order.
    pub runs: Vec<DeltaRun>,
}

impl Engine {
    /// Extracts every run whose epoch lies in `(lse, lse_prime]`,
    /// across all bricks of all cubes, preserving epochs-vector order
    /// within each brick.
    ///
    /// A brick with no run in the window is skipped before it is read.
    /// An evicted brick never overlaps a *flush* window — eviction
    /// requires every epoch at or below the LSE, and the LSE only
    /// advances — but a caller asking for a wider window (recovery
    /// verification, tests) must see its rows, so an overlapping one
    /// is faulted back in; its retained epochs vector answers the
    /// overlap check without touching disk.
    ///
    /// # Panics
    /// Panics if such a brick cannot be reloaded.
    pub fn export_delta(&self, lse: Epoch, lse_prime: Epoch) -> Vec<BrickDelta> {
        let per_shard = self.shards().map_shards(|_| {
            Box::new(move |bricks: &mut ShardBricks| {
                let wanted = |epoch: Epoch| epoch > lse && epoch <= lse_prime;
                let mut deltas = Vec::new();
                for slot in bricks.walk_all() {
                    if !slot.epochs().entries().iter().any(|e| wanted(e.epoch())) {
                        continue;
                    }
                    let (cube, bid) = (slot.cube.name().to_owned(), slot.bid);
                    let (brick, _) = slot.load().map_err(|e| (cube.clone(), bid, e))?;
                    let runs = brick_runs(brick, wanted);
                    deltas.push(BrickDelta { cube, bid, runs });
                }
                Ok(deltas)
            })
        });
        let deltas: Result<Vec<_>, _> = per_shard.into_iter().collect();
        deltas
            .unwrap_or_else(|(cube, bid, reason)| {
                panic!("spilled brick {bid} of {cube:?} in an export window failed to reload: {reason}")
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Extracts **every** run of one brick, in epochs-vector order —
    /// the payload a rebalance handoff streams to the brick's new
    /// host. Returns an empty vector when the brick does not exist
    /// here (the legitimate empty-brick handoff edge); a shard task
    /// that panics mid-capture is a typed error, never an empty
    /// capture — streaming one would retire the source copy and lose
    /// the brick. So is a spilled brick that cannot be reloaded.
    pub(crate) fn export_brick(&self, cube: &str, bid: u64) -> Result<Vec<DeltaRun>, CubrickError> {
        let shard = self.shards().shard_of(bid);
        let name = cube.to_owned();
        #[cfg(any(test, feature = "fault-hooks"))]
        let panic_injected = self.faults().export_panics(bid);
        let handle = self.shards().submit_handle(shard, move |bricks| {
            #[cfg(any(test, feature = "fault-hooks"))]
            if panic_injected {
                panic!("injected export panic for brick {bid}");
            }
            let Some(slot) = bricks.slot(&name, bid) else {
                return Ok(Vec::new());
            };
            slot.load().map(|(brick, _)| brick_runs(brick, |_| true))
        });
        match handle.join() {
            Ok(Ok(runs)) => Ok(runs),
            Ok(Err(reason)) => Err(CubrickError::TierReloadFailed {
                cube: cube.to_owned(),
                bid,
                reason,
            }),
            Err(_) => Err(CubrickError::BrickExportFailed {
                cube: cube.to_owned(),
                bid,
            }),
        }
    }

    /// Installs handoff runs into one brick, **idempotently by
    /// epoch**: a run whose `(epoch, kind)` the brick already holds is
    /// skipped. This is what makes the handoff protocol safe under
    /// duplicated chunks and under writes that fanned out to the
    /// pending host while the stream was in flight — each epoch's data
    /// lands exactly once no matter which path delivered it first.
    pub(crate) fn install_brick_runs(
        &self,
        cube: &crate::cube::Cube,
        bid: u64,
        runs: Vec<DeltaRun>,
    ) -> Result<(), CubrickError> {
        let shard = self.shards().shard_of(bid);
        let task_cube = cube.clone();
        let storage = self.dim_storage();
        let memos = Arc::clone(self.memos());
        self.shards()
            .submit_and_wait(shard, move |bricks| {
                let brick = bricks.brick_mut(&task_cube, bid, storage)?;
                // Runs land under old epochs: settled answers may change.
                memos.shard(shard).forget_cube(task_cube.name());
                let existing: std::collections::HashSet<(Epoch, bool)> = brick
                    .epochs()
                    .entries()
                    .iter()
                    .map(|e| (e.epoch(), e.is_delete()))
                    .collect();
                for run in runs {
                    match run {
                        DeltaRun::Insert { epoch, records } => {
                            if !existing.contains(&(epoch, false)) {
                                brick.append(epoch, &records);
                            }
                        }
                        DeltaRun::Delete { epoch } => {
                            if !existing.contains(&(epoch, true)) {
                                brick.mark_delete(epoch);
                            }
                        }
                    }
                }
                Ok(())
            })
            .map_err(|reason| CubrickError::TierReloadFailed {
                cube: cube.name().to_owned(),
                bid,
                reason,
            })
    }

    /// Replays exported deltas (recovery). Rounds must be imported in
    /// flush order so that each brick's runs reassemble in their
    /// original relative order.
    ///
    /// Returns the number of deltas that were **dropped** because
    /// their cube is not registered — flushed rows a caller with
    /// incomplete DDL replay would otherwise lose without a trace.
    /// Recovery surfaces this count in its report.
    ///
    /// # Panics
    /// Panics if a target brick was evicted by an enforcement sweep
    /// earlier in the replay and cannot be reloaded.
    pub fn import_delta(&self, deltas: Vec<BrickDelta>) -> usize {
        let mut unknown_cube_deltas = 0;
        let mut pending = Vec::with_capacity(deltas.len());
        for delta in deltas {
            let Ok(cube) = self.cube(&delta.cube) else {
                unknown_cube_deltas += 1;
                continue;
            };
            let shard = self.shards().shard_of(delta.bid);
            let bid = delta.bid;
            let storage = self.dim_storage();
            let memos = Arc::clone(self.memos());
            let handle = self.shards().submit_handle(shard, move |bricks| {
                let brick = bricks.brick_mut(&cube, bid, storage)?;
                // Recovered runs land under old epochs.
                memos.shard(shard).forget_cube(cube.name());
                for run in delta.runs {
                    match run {
                        DeltaRun::Insert { epoch, records } => brick.append(epoch, &records),
                        DeltaRun::Delete { epoch } => brick.mark_delete(epoch),
                    }
                }
                Ok::<(), String>(())
            });
            pending.push((delta.cube, bid, handle));
        }
        for (cube, bid, handle) in pending {
            // A panicking append stays the shard's (counted there), as
            // for any fire-and-forget write; a failed reload is the
            // caller's.
            if let Ok(Err(reason)) = handle.join() {
                panic!("spilled brick {bid} of {cube:?} failed to reload during delta import: {reason}");
            }
        }
        unknown_cube_deltas
    }
}

/// The brick's epochs-vector runs whose epoch passes `wanted`, in
/// vector order, each insert run's rows sliced out of the columns.
fn brick_runs(brick: &Brick, wanted: impl Fn(Epoch) -> bool) -> Vec<DeltaRun> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    for entry in brick.epochs().entries() {
        let epoch = entry.epoch();
        if entry.is_delete() {
            if wanted(epoch) {
                runs.push(DeltaRun::Delete { epoch });
            }
            continue;
        }
        let end = entry.end() as usize;
        if wanted(epoch) {
            runs.push(DeltaRun::Insert {
                epoch,
                records: brick.chunk(start..end),
            });
        }
        start = end;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::engine::IsolationMode;
    use crate::query::{AggFn, Aggregation, Query};
    use columnar::{Row, Value};

    fn engine() -> Engine {
        let engine = Engine::new(2);
        engine
            .create_cube(
                CubeSchema::new(
                    "events",
                    vec![Dimension::int("day", 16, 4)],
                    vec![Metric::int("likes"), Metric::float("score")],
                )
                .unwrap(),
            )
            .unwrap();
        engine
    }

    fn row(day: i64, likes: i64, score: f64) -> Row {
        vec![Value::from(day), Value::from(likes), Value::from(score)]
    }

    fn sum_likes(engine: &Engine) -> f64 {
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

    #[test]
    fn export_covers_only_the_epoch_window() {
        let engine = engine();
        engine.load("events", &[row(0, 1, 0.1)], 0).unwrap(); // T1
        engine.load("events", &[row(1, 2, 0.2)], 0).unwrap(); // T2
        engine.load("events", &[row(2, 4, 0.4)], 0).unwrap(); // T3
        let delta = engine.export_delta(1, 2);
        let epochs: Vec<Epoch> = delta
            .iter()
            .flat_map(|d| d.runs.iter().map(DeltaRun::epoch))
            .collect();
        assert_eq!(epochs, vec![2], "only T2 is in (1, 2]");
    }

    #[test]
    fn export_import_roundtrip_restores_visibility() {
        let source = engine();
        source
            .load(
                "events",
                &(0..50)
                    .map(|i| row(i % 16, i, i as f64))
                    .collect::<Vec<_>>(),
                0,
            )
            .unwrap();
        source.delete_where("events", &[]).unwrap();
        source.load("events", &[row(0, 1000, 0.0)], 0).unwrap();
        let lce = source.manager().lce();
        let deltas = source.export_delta(0, lce);

        let restored = engine();
        restored.import_delta(deltas);
        // Fast-forward the restored node's clock past the recovered
        // epochs so new reads see them.
        restored.manager().clock().observe(lce);
        let t = restored.manager().begin_rw();
        restored.manager().commit(&t).unwrap();
        assert_eq!(sum_likes(&restored), sum_likes(&source));
        assert_eq!(sum_likes(&restored), 1000.0, "delete replayed too");
    }

    #[test]
    fn import_preserves_metric_values_and_types() {
        let source = engine();
        source
            .load("events", &[row(3, 7, 2.5), row(4, -7, -2.5)], 0)
            .unwrap();
        let deltas = source.export_delta(0, source.manager().lce());
        let restored = engine();
        restored.import_delta(deltas);
        restored.manager().clock().observe(source.manager().lce());
        let t = restored.manager().begin_rw();
        restored.manager().commit(&t).unwrap();
        let result = restored
            .query(
                "events",
                &Query::aggregate(vec![
                    Aggregation::new(AggFn::Sum, "likes"),
                    Aggregation::new(AggFn::Min, "score"),
                    Aggregation::new(AggFn::Max, "score"),
                ]),
                IsolationMode::Snapshot,
            )
            .unwrap();
        assert_eq!(result.rows[0].1, vec![0.0, -2.5, 2.5]);
    }

    #[test]
    fn incremental_rounds_reassemble_in_order() {
        let source = engine();
        source.load("events", &[row(0, 1, 0.0)], 0).unwrap(); // T1
        source.load("events", &[row(0, 2, 0.0)], 0).unwrap(); // T2
        let round1 = source.export_delta(0, 2);
        source.delete_where("events", &[]).unwrap(); // T3 delete
        source.load("events", &[row(0, 8, 0.0)], 0).unwrap(); // T4
        let round2 = source.export_delta(2, 4);

        let restored = engine();
        restored.import_delta(round1);
        restored.import_delta(round2);
        restored.manager().clock().observe(4);
        let t = restored.manager().begin_rw();
        restored.manager().commit(&t).unwrap();
        assert_eq!(sum_likes(&restored), 8.0);
    }

    #[test]
    fn unknown_cube_deltas_are_counted_not_silently_skipped() {
        let restored = engine();
        let dropped = restored.import_delta(vec![
            BrickDelta {
                cube: "nope".into(),
                bid: 0,
                runs: vec![DeltaRun::Delete { epoch: 1 }],
            },
            BrickDelta {
                cube: "events".into(),
                bid: 0,
                runs: vec![DeltaRun::Delete { epoch: 1 }],
            },
        ]);
        assert_eq!(dropped, 1, "exactly the unknown-cube delta is dropped");
        assert_eq!(restored.memory().bricks, 1, "the known cube still lands");
        let clean = restored.import_delta(vec![BrickDelta {
            cube: "events".into(),
            bid: 0,
            runs: vec![DeltaRun::Delete { epoch: 2 }],
        }]);
        assert_eq!(clean, 0);
    }

    #[test]
    fn export_panic_is_a_typed_error_not_an_empty_capture() {
        let engine = engine();
        engine.load("events", &[row(0, 5, 0.5)], 0).unwrap();
        let bid = engine.brick_bids("events")[0];
        // Before the fix, a panicking export task fell through
        // `Arc::try_unwrap(..).unwrap_or_default()` and handed the
        // caller an empty run list — indistinguishable from a
        // legitimately empty brick, which a rebalance would then
        // happily stream, retire the source, and lose the rows.
        engine.faults().inject_scan_panic(bid);
        let err = engine.export_brick("events", bid).unwrap_err();
        assert_eq!(
            err,
            crate::error::CubrickError::BrickExportFailed {
                cube: "events".into(),
                bid
            }
        );
        engine.faults().clear_scan_panics();
        let runs = engine.export_brick("events", bid).unwrap();
        assert!(!runs.is_empty(), "the real capture has the loaded run");
        // A brick that simply does not exist here is still the
        // legitimate empty handoff.
        assert_eq!(engine.export_brick("events", 13).unwrap(), Vec::new());
    }
}
