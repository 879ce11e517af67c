//! Write transactions on one node: implicit-transaction loads,
//! explicit RW transactions, rollback and partition deletes.
//!
//! A load parses on the caller's thread, validates against
//! `max_rejected`, then runs one append task per touched shard under
//! a fresh RW transaction and commits (Section V-B). Rollback
//! physically reclaims the aborted epoch's rows (Section III-C5).

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use aosi::{Epoch, Txn};
use columnar::Row;

use crate::cube::Cube;
use crate::engine::{Engine, LoadOutcome, LoadStageTimings};
use crate::error::CubrickError;
use crate::ingest::{parse_rows, ParsedBatch, RecordChunk};
use crate::shard::ShardBricks;
use crate::tier::{shard_bytes, ShardBytes};

impl Engine {
    /// Loads `rows` into `cube` in one implicit transaction
    /// (Section V-B's pipeline on a single node).
    pub fn load(
        &self,
        cube: &str,
        rows: &[Row],
        max_rejected: usize,
    ) -> Result<LoadOutcome, CubrickError> {
        let started = Instant::now();
        let cube = self.cube(cube)?;

        // Parse.
        let parse_started = Instant::now();
        let batch = parse_rows(cube.schema(), cube.layout(), cube.dictionaries(), rows);
        let parse = parse_started.elapsed();
        if batch.rejected > max_rejected {
            return Err(CubrickError::TooManyRejected {
                rejected: batch.rejected,
                max_rejected,
            });
        }
        let (accepted, rejected, bricks_touched) =
            (batch.accepted, batch.rejected, batch.bricks_touched());
        let (epoch, flush) = self.load_parsed(&cube, batch)?;
        self.ops.loads.inc();
        self.ops.rows_loaded.add(accepted as u64);
        self.metrics.load_nanos.record_duration(started.elapsed());
        Ok(LoadOutcome {
            epoch,
            accepted,
            rejected,
            bricks_touched,
            timings: LoadStageTimings {
                parse,
                forward: Duration::ZERO,
                flush,
                total: started.elapsed(),
            },
        })
    }

    /// Applies a validated batch in one implicit transaction: flush,
    /// commit, tier sweep. Returns the epoch and the flush time.
    fn load_parsed(
        &self,
        cube: &Cube,
        batch: ParsedBatch,
    ) -> Result<(Epoch, Duration), CubrickError> {
        // From here on, nothing can deterministically fail. A failed
        // reload or a panicking append rolls back, reclaiming what
        // landed: the load neither pins the LCE nor half-commits.
        let txn = self.manager.begin_rw();
        let flush_started = Instant::now();
        let sweep_lse = self.tier.as_ref().map(|_| self.manager.lse());
        let measured = match self.flush_batch(cube, txn.epoch(), batch, sweep_lse) {
            Ok(measured) => measured,
            Err(e) => {
                let _ = self.rollback(&txn);
                return Err(e);
            }
        };
        let flush = flush_started.elapsed();
        self.manager.commit(&txn)?;
        if let (Some(tier), Some(lse)) = (&self.tier, sweep_lse) {
            tier.sweep(&self.shards, lse, &measured);
        }
        if let Some(index) = &self.rollback_index {
            index.forget(txn.epoch());
        }
        Ok((txn.epoch(), flush))
    }

    /// Applies a parsed batch under `epoch`: one joined task per
    /// touched shard appends its chunks in ascending bid order.
    ///
    /// Each task faults its spilled targets back in before its first
    /// append, so a failed reload fails it with nothing written. A
    /// failed reload ([`CubrickError::TierReloadFailed`]) or a
    /// panicking append ([`CubrickError::AppendFailed`]) fails the
    /// batch once every task is joined; the caller rolls back what
    /// other shards landed. Given `sweep_lse`, the result holds each
    /// touched shard's sweep totals at it.
    pub(crate) fn flush_batch(
        &self,
        cube: &Cube,
        epoch: Epoch,
        batch: ParsedBatch,
        sweep_lse: Option<Epoch>,
    ) -> Result<Vec<Option<ShardBytes>>, CubrickError> {
        self.ops.flushes.inc();
        let num_shards = self.shards.num_shards();
        let mut per_shard: Vec<Vec<(u64, RecordChunk)>> = vec![Vec::new(); num_shards];
        for (bid, chunk) in batch.by_bid {
            if let Some(index) = &self.rollback_index {
                index.record(epoch, bid);
            }
            per_shard[self.shards.shard_of(bid)].push((bid, chunk));
        }
        let tasks: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, chunks)| !chunks.is_empty())
            .map(|(shard, mut chunks)| {
                chunks.sort_unstable_by_key(|&(bid, _)| bid);
                let cube = cube.clone();
                let storage = self.dim_storage;
                let task = self.shards.submit_handle(shard, move |bricks| {
                    let name = || cube.name().to_owned();
                    for &(bid, _) in &chunks {
                        bricks.fault_in(cube.name(), bid).map_err(|reason| {
                            CubrickError::TierReloadFailed {
                                cube: name(),
                                bid,
                                reason,
                            }
                        })?;
                    }
                    // By value, freeing each chunk after its append:
                    // holding all to the task's end measured ~5 MiB
                    // more peak RSS under `realtime_mixed`'s INSERTs.
                    for (bid, chunk) in chunks {
                        catch_unwind(AssertUnwindSafe(|| {
                            let brick = bricks.brick_mut(&cube, bid, storage);
                            brick.expect("faulted in above").append(epoch, &chunk);
                        }))
                        .map_err(|_| CubrickError::AppendFailed { cube: name(), bid })?;
                    }
                    Ok(sweep_lse.map(|lse| shard_bytes(bricks, lse)))
                });
                (shard, task)
            })
            .collect();
        let mut measured = vec![None; num_shards];
        let mut failed = None;
        for (shard, task) in tasks {
            match task.join().unwrap_or_else(|panic| resume_unwind(panic)) {
                Ok(bytes) => measured[shard] = bytes,
                Err(e) => {
                    if matches!(e, CubrickError::AppendFailed { .. }) {
                        self.shards.count_panic();
                    }
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(measured), Err)
    }

    /// Begins an explicit RW transaction.
    pub fn begin(&self) -> Txn {
        self.manager.begin_rw()
    }

    /// Appends rows within an explicit transaction. Rejected rows are
    /// returned (the transaction stays usable). On
    /// [`CubrickError::AppendFailed`] or
    /// [`CubrickError::TierReloadFailed`] part of the batch may be
    /// stored under the transaction: roll it back.
    pub fn append(
        &self,
        cube: &str,
        rows: &[Row],
        txn: &Txn,
    ) -> Result<(usize, usize), CubrickError> {
        let cube = self.cube(cube)?;
        let batch = parse_rows(cube.schema(), cube.layout(), cube.dictionaries(), rows);
        let (accepted, rejected) = (batch.accepted, batch.rejected);
        self.flush_batch(&cube, txn.epoch(), batch, None)?;
        Ok((accepted, rejected))
    }

    /// Commits an explicit transaction.
    pub fn commit(&self, txn: &Txn) -> Result<(), CubrickError> {
        self.manager.commit(txn)?;
        if let Some(index) = &self.rollback_index {
            index.forget(txn.epoch());
        }
        if self.tier.is_some() {
            self.enforce_tier_budget();
        }
        Ok(())
    }

    /// Rolls an explicit transaction back and physically reclaims its
    /// rows from every brick (Section III-C5: scan every partition,
    /// rebuild, swap). The rows go while the epoch is still pending,
    /// so the LCE cannot pass it first: no snapshot at or below the
    /// LCE — and so no memoized answer — ever sees an aborted row.
    pub fn rollback(&self, txn: &Txn) -> Result<u64, CubrickError> {
        self.ops.rollbacks.inc();
        self.manager.begin_rollback(txn)?;
        let removed = self.reclaim_epoch(txn.epoch());
        self.manager.rollback(txn)?;
        self.manager.clear_rolled_back(&[txn.epoch()]);
        Ok(removed)
    }

    /// Removes the rows of `epoch` from every brick; returns how many.
    pub(crate) fn reclaim_epoch(&self, epoch: Epoch) -> u64 {
        // With the (optional) index, visit only the touched bricks;
        // otherwise scan "the epochs vector in every single partition
        // in the system", the paper's default.
        if let Some(index) = &self.rollback_index {
            let bids = index.partitions_of(epoch);
            index.forget(epoch);
            let mut by_shard: HashMap<usize, Vec<u64>> = HashMap::new();
            for bid in bids {
                by_shard
                    .entry(self.shards.shard_of(bid))
                    .or_default()
                    .push(bid);
            }
            let mut removed = 0u64;
            for (shard, bids) in by_shard {
                removed += self.shards.submit_and_wait(shard, move |bricks| {
                    let mut removed = 0u64;
                    for &bid in &bids {
                        for brick in bricks.resident_at(bid) {
                            removed += brick.rollback(epoch);
                        }
                    }
                    removed
                });
            }
            return removed;
        }
        let removed = self.shards.map_shards(|_| {
            Box::new(move |bricks: &mut ShardBricks| {
                bricks
                    .resident_mut()
                    .map(|brick| brick.rollback(epoch))
                    .sum::<u64>()
            })
        });
        removed.into_iter().sum()
    }

    /// Partition-level delete: marks every brick whose entire
    /// coordinate range is contained in `filters` as deleted, in one
    /// implicit transaction. Empty `filters` deletes every brick of
    /// the cube. Returns the transaction's epoch and the number of
    /// bricks marked.
    ///
    /// Filter values that do not resolve to a coordinate — a string
    /// never seen by the dimension's dictionary, an integer outside
    /// the dimension's declared range, or a value of the wrong type —
    /// **narrow the match** rather than raising an error: they are
    /// dropped from the filter's coordinate set, exactly as the query
    /// path treats them (`encode_filter_value` never mints dictionary
    /// ids). A filter whose values all fail to resolve therefore
    /// matches nothing, and the call succeeds with zero bricks marked
    /// and a committed (empty) delete epoch. Misspelled *column*
    /// names, by contrast, are an [`CubrickError::UnknownColumn`]
    /// error before any brick is touched.
    pub fn delete_where(
        &self,
        cube: &str,
        filters: &[crate::query::DimFilter],
    ) -> Result<(Epoch, u64), CubrickError> {
        let cube = self.cube(cube)?;
        let txn = self.manager.begin_rw();
        let marked = match self.mark_delete_where(&cube, filters, txn.epoch()) {
            Ok(marked) => marked,
            Err(e) => {
                let _ = self.rollback(&txn);
                return Err(e);
            }
        };
        self.manager.commit(&txn)?;
        self.ops.deletes.inc();
        Ok((txn.epoch(), marked))
    }

    /// Marks matching bricks deleted under an existing transaction
    /// epoch (the distributed delete flow shares one epoch across
    /// nodes). Returns bricks marked on this node.
    pub(crate) fn mark_delete_where(
        &self,
        cube: &Cube,
        filters: &[crate::query::DimFilter],
        epoch: Epoch,
    ) -> Result<u64, CubrickError> {
        // Resolve filter values to coordinate sets.
        let mut resolved: Vec<(usize, std::collections::HashSet<u32>)> = Vec::new();
        for f in filters {
            let dim = cube
                .schema()
                .dim_index(&f.dim)
                .ok_or_else(|| CubrickError::UnknownColumn(f.dim.clone()))?;
            let coords = f
                .values
                .iter()
                .filter_map(|v| cube.encode_filter_value(dim, v))
                .collect();
            resolved.push((dim, coords));
        }
        let marked = self.shards.map_shards(|_| {
            let cube = cube.clone();
            let resolved = resolved.clone();
            Box::new(move |bricks: &mut ShardBricks| {
                // The walk below must see every brick of the cube: an
                // evicted one it skipped would silently keep its rows.
                for mut slot in bricks.walk(cube.name()) {
                    slot.fault_in().map_err(|reason| (slot.bid, reason))?;
                }
                let layout = cube.layout();
                let mut marked = 0u64;
                for slot in bricks.walk(cube.name()) {
                    let ranges = layout.range_indexes_of_bid(slot.bid);
                    let contained = resolved.iter().all(|(dim, coords)| {
                        let (lo, hi) = layout.range_bounds(*dim, ranges[*dim]);
                        (lo..hi).all(|c| coords.contains(&c))
                    });
                    if contained {
                        let bid = slot.bid;
                        let (brick, _) = slot.load().map_err(|reason| (bid, reason))?;
                        brick.mark_delete(epoch);
                        marked += 1;
                    }
                }
                Ok(marked)
            })
        });
        let marked: Result<Vec<u64>, _> = marked.into_iter().collect();
        marked
            .map(|marked| marked.into_iter().sum())
            .map_err(|(bid, reason)| CubrickError::TierReloadFailed {
                cube: cube.name().to_owned(),
                bid,
                reason,
            })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::engine::tests::{engine, row, spread_load, sum_likes};
    use crate::engine::{At, Deliver, IsolationMode};
    use crate::query::{AggFn, Aggregation, DimFilter, Query};
    use columnar::Value;

    #[test]
    fn max_rejected_discards_whole_batch() {
        let engine = engine();
        let result = engine.load(
            "events",
            &[row("us", 0, 1, 0.0), row("us", 99, 2, 0.0)], // day 99 invalid
            0,
        );
        assert!(matches!(
            result,
            Err(CubrickError::TooManyRejected { rejected: 1, .. })
        ));
        assert_eq!(sum_likes(&engine, IsolationMode::ReadUncommitted), 0.0);
        // With tolerance, the valid row lands.
        let outcome = engine
            .load("events", &[row("us", 0, 1, 0.0), row("us", 99, 2, 0.0)], 1)
            .unwrap();
        assert_eq!(outcome.accepted, 1);
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 1.0);
    }

    #[test]
    fn rollback_physically_removes_rows() {
        let engine = engine();
        engine.load("events", &[row("us", 0, 5, 0.0)], 0).unwrap();
        let txn = engine.begin();
        engine
            .append(
                "events",
                &[row("br", 1, 100, 0.0), row("mx", 2, 200, 0.0)],
                &txn,
            )
            .unwrap();
        let removed = engine.rollback(&txn).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(sum_likes(&engine, IsolationMode::ReadUncommitted), 5.0);
        assert!(engine.manager().rolled_back_epochs().is_empty());
    }

    /// A panicking append fails the whole load, not part of it: the
    /// chunks that landed — on the failing shard before it, and on
    /// the other shard — are reclaimed by the rollback, and the shard
    /// keeps serving.
    #[test]
    fn a_panicking_append_rolls_the_whole_load_back() {
        let engine = engine();
        // Regions us, br, mx get ids 0, 1, 2: region ranges 0, 0, 1.
        let seed = [
            row("us", 1, 1, 0.0),
            row("br", 1, 0, 0.0),
            row("mx", 1, 0, 0.0),
        ];
        engine.load("events", &seed, 0).unwrap();
        let cube = engine.cube("events").unwrap();
        let rows: Vec<Row> = ["us", "mx"]
            .iter()
            .flat_map(|region| (0..16).step_by(4).map(|day| row(region, day, 10, 0.0)))
            .collect();
        let mut batch = parse_rows(cube.schema(), cube.layout(), cube.dictionaries(), &rows);
        // Bids 0, 4, 8, 12 on shard 0 and 1, 5, 9, 13 on shard 1; the
        // last chunk of shard 0 has one coordinate column too few.
        let malformed = RecordChunk {
            coords: vec![vec![0]],
            metrics: cube.schema().metric_columns(),
        };
        assert!(batch.by_bid.insert(12, malformed).is_some());

        let err = engine.load_parsed(&cube, batch).unwrap_err();
        assert_eq!(
            err,
            CubrickError::AppendFailed {
                cube: "events".into(),
                bid: 12
            }
        );
        assert_eq!(engine.shards.panics_caught(), 1);
        assert_eq!(engine.op_stats().rollbacks, 1);
        assert!(engine.manager().rolled_back_epochs().is_empty());
        // No snapshot sees a row of the batch, nor does a dirty read.
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 1.0);
        assert_eq!(sum_likes(&engine, IsolationMode::ReadUncommitted), 1.0);
        assert_eq!(engine.memory().rows, 3);

        engine.load("events", &[row("us", 12, 5, 0.0)], 0).unwrap();
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 6.0);
    }

    #[test]
    fn delete_where_marks_only_contained_bricks() {
        let engine = engine();
        // day ranges are [0,4), [4,8), [8,12), [12,16).
        engine
            .load(
                "events",
                &[
                    row("us", 0, 1, 0.0),
                    row("us", 5, 2, 0.0),
                    row("us", 9, 4, 0.0),
                ],
                0,
            )
            .unwrap();
        // Predicate covering exactly day-range [4,8).
        let (epoch, marked) = engine
            .delete_where(
                "events",
                &[DimFilter::new(
                    "day",
                    (4..8).map(|d| Value::from(d as i64)).collect(),
                )],
            )
            .unwrap();
        assert!(epoch > 0);
        assert_eq!(marked, 1);
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 5.0);
        // A predicate not covering a whole range deletes nothing.
        let (_, marked) = engine
            .delete_where("events", &[DimFilter::new("day", vec![Value::from(0i64)])])
            .unwrap();
        assert_eq!(marked, 0);
    }

    #[test]
    fn rollback_index_produces_identical_results() {
        // Same schedule, with and without the Section III-C5 index:
        // identical visible state, and the indexed engine forgets
        // entries on commit (bounded footprint).
        let plain = engine();
        let indexed = Engine::new(4).with_rollback_index();
        indexed
            .create_cube(
                CubeSchema::new(
                    "events",
                    vec![
                        Dimension::string("region", 8, 2),
                        Dimension::int("day", 16, 4),
                    ],
                    vec![Metric::int("likes"), Metric::float("score")],
                )
                .unwrap(),
            )
            .unwrap();
        for engine in [&plain, &indexed] {
            engine
                .load("events", &[row("us", 0, 5, 0.0), row("br", 9, 7, 0.0)], 0)
                .unwrap();
            let txn = engine.begin();
            engine
                .append("events", &[row("mx", 3, 100, 0.0)], &txn)
                .unwrap();
            assert_eq!(engine.rollback(&txn).unwrap(), 1);
        }
        assert_eq!(
            sum_likes(&plain, IsolationMode::ReadUncommitted),
            sum_likes(&indexed, IsolationMode::ReadUncommitted)
        );
        let index = indexed.rollback_index().unwrap();
        assert!(
            index.is_empty(),
            "commit/rollback must forget index entries"
        );
    }

    /// Rollback reclaims the aborted rows before the LCE may pass the
    /// epoch: with one shard wedged mid-reclaim, a committed later
    /// transaction stays parked, and once the LCE moves no snapshot at
    /// it sees an aborted row.
    #[test]
    fn rollback_reclaims_before_the_lce_passes_the_epoch() {
        let engine = Arc::new(engine());
        spread_load(&engine);
        let t1 = engine.begin();
        let aborted: Vec<Row> = (0..16).map(|i| row("us", i, 1000, 0.0)).collect();
        engine.append("events", &aborted, &t1).unwrap();
        let t2 = engine.begin();
        engine
            .append("events", &[row("br", 1, 7, 0.0)], &t2)
            .unwrap();
        engine.commit(&t2).unwrap();
        assert!(engine.manager().lce() < t2.epoch(), "T2 parks behind T1");

        let shard0_tasks = || {
            let report = engine.metrics_report();
            let line = (report.lines()).find_map(|l| l.trim().strip_prefix("shard0.tasks = "));
            line.expect("per-shard task count").parse::<u64>().unwrap()
        };
        let before = shard0_tasks();
        let (release, wedged) = std::sync::mpsc::channel::<()>();
        engine.shards.submit(3, move |_| {
            let _ = wedged.recv();
        });
        let rollback = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.rollback(&t1).unwrap())
        };
        // Shard 0 has run its reclaim task; shard 3 has not.
        while shard0_tasks() == before {
            std::thread::yield_now();
        }
        assert!(
            engine.manager().lce() < t2.epoch(),
            "the LCE passed T1 before its rows were reclaimed"
        );
        release.send(()).unwrap();
        assert_eq!(rollback.join().unwrap(), 16);
        let lce = engine.manager().lce();
        assert_eq!(lce, t2.epoch());
        let sum = engine
            .read(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                At::Epoch(lce),
                Deliver::Final,
            )
            .unwrap();
        assert_eq!(sum.scalar(), Some(480.0 + 7.0), "no row of T1");
    }
}
