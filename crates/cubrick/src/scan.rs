//! The scan executor: one [`ShardScan`] request per query, run once
//! on every shard thread.
//!
//! A shard owns its bricks, so it answers the whole request itself:
//! walk the cube's bricks in ascending bid order (resident and
//! evicted alike), drop what the replica router gave to another node,
//! read each filter against the brick's coordinate range (prune the
//! brick, or drop the filters it cannot fail), and scan the survivors,
//! faulting an evicted one back in first. Every query
//! path — default, sequential reference, per-brick partials — runs
//! this one body and differs only in what it does with the brick
//! partials (`sink`), in whether the coordinator overlaps the shards,
//! and in whether the coordinator may answer a shard from its
//! snapshot memo ([`crate::memo`]) without submitting it at all.
//!
//! Bricks created *after* a shard walked its map are safe to miss: a
//! brick can only appear via a flush whose transaction either
//! committed before the snapshot was taken (its bricks already
//! existed) or is excluded by the snapshot's epoch/deps, so the rows
//! such a brick holds are invisible to the snapshot anyway. RU scans
//! have no snapshot and are best-effort by definition.

#[cfg(any(test, feature = "fault-hooks"))]
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use aosi::Snapshot;

use crate::brick::Brick;
use crate::cube::Cube;
use crate::memo::{MemoKey, ShardMemos};
use crate::query::{FilterSet, PartialResult, ScanKernel, ScanPlan};
use crate::shard::ShardBricks;

/// Replica routing: which bricks this node scans (the `allowed`
/// argument of the engine's coordinator, `Engine::scan`). Owned and
/// shareable because it is evaluated on the shard threads.
pub(crate) type BrickFilter = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Everything a shard needs to answer one query for its own bricks.
/// Built once per query and shared by every shard's task.
pub(crate) struct ShardScan {
    pub(crate) cube: Cube,
    /// The read's one plan, shared with its memo key.
    pub(crate) plan: Arc<ScanPlan>,
    /// `None` scans every stored row (read-uncommitted).
    pub(crate) snapshot: Option<Snapshot>,
    pub(crate) kernel: ScanKernel,
    /// Each shard folds its brick partials into one partial, in one
    /// k-way pass, and hands over only that (every read but
    /// `Deliver::BrickPartials`).
    pub(crate) fold: bool,
    /// Set when the scan folds and the snapshot is settled: the
    /// coordinator then answers each shard from its memo under this
    /// key when it can, and a shard that missed offers its fold under
    /// it.
    pub(crate) memo: Option<(Arc<ShardMemos>, MemoKey)>,
    /// Bricks the filter rejects are another replica's to scan.
    pub(crate) allowed: Option<BrickFilter>,
    /// Bids whose scan panics on purpose ([`crate::fault`]).
    #[cfg(any(test, feature = "fault-hooks"))]
    pub(crate) panic_bids: HashSet<u64>,
}

/// What one shard did for a [`ShardScan`], besides the brick partials
/// it handed to the sink.
#[derive(Debug, Default)]
pub(crate) struct ShardScanOutcome {
    /// Bricks that survived routing and pruning.
    pub(crate) bricks: u64,
    /// Bricks skipped by range pruning. Bricks routed to another
    /// replica are not counted: the cluster still reads them.
    pub(crate) pruned: u64,
    /// Wall time of each brick scan that ran.
    pub(crate) scan_task_nanos: Vec<u64>,
}

/// Why a shard gave up on a brick; either way the query must fail —
/// an aggregate missing one brick's rows would be silently wrong.
#[derive(Debug)]
pub(crate) enum ScanFailure {
    /// The brick's scan panicked (the shard thread survives).
    Panicked,
    /// An evicted brick could not be faulted back in.
    TierReload(String),
}

impl ShardScan {
    /// Answers the request for `shard`'s bricks. Must run on that
    /// shard's thread: owning the bricks is what makes the walk and
    /// tier fault-in race-free, and what orders a memo offer with the
    /// shard's writes that clear the memo. Unfolded, brick partials
    /// reach `sink` in ascending bid order. Folded, the shard folds
    /// them in that same order and hands `sink` the single partial;
    /// with a memo key, the coordinator already missed it in this
    /// shard's memo, so the shard offers its fold there first.
    pub(crate) fn run(
        &self,
        shard: usize,
        bricks: &mut ShardBricks,
        mut sink: impl FnMut(PartialResult),
    ) -> Result<ShardScanOutcome, (u64, ScanFailure)> {
        if !self.fold {
            return self.scan_bricks(bricks, sink);
        }
        let mut partials = Vec::new();
        let outcome = self.scan_bricks(bricks, |partial| partials.push(partial))?;
        let mut folded = PartialResult::fold(&partials);
        if let Some((memos, key)) = &self.memo {
            memos.shard(shard).offer(key, &folded, &outcome);
            folded.stats.agg_cache_misses = 1;
        }
        sink(folded);
        Ok(outcome)
    }

    /// Scans `shard`'s bricks, handing each partial to `sink`.
    fn scan_bricks(
        &self,
        bricks: &mut ShardBricks,
        mut sink: impl FnMut(PartialResult),
    ) -> Result<ShardScanOutcome, (u64, ScanFailure)> {
        let mut outcome = ShardScanOutcome::default();
        for slot in bricks.walk(self.cube.name()) {
            let bid = slot.bid;
            if self.allowed.as_ref().is_some_and(|allowed| !allowed(bid)) {
                continue;
            }
            let Some(filters) = self.plan.brick_filters(&self.cube, bid) else {
                outcome.pruned += 1;
                continue;
            };
            outcome.bricks += 1;
            let (brick, reloaded) = slot
                .read()
                .map_err(|reason| (bid, ScanFailure::TierReload(reason)))?;
            let started = Instant::now();
            // Per-brick `catch_unwind` keeps panic attribution exact:
            // the shard reports which brick blew up and keeps running.
            let mut scanned = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(any(test, feature = "fault-hooks"))]
                if self.panic_bids.contains(&bid) {
                    panic!("injected scan panic for brick {bid}");
                }
                self.scan_one_brick(brick, &filters)
            }))
            .map_err(|_| (bid, ScanFailure::Panicked))?;
            outcome
                .scan_task_nanos
                .push(started.elapsed().as_nanos() as u64);
            scanned.stats.tier_reloads = u64::from(reloaded);
            sink(scanned);
        }
        Ok(outcome)
    }

    /// Scans one brick under the request's snapshot. Each kernel has
    /// exactly one visibility representation, recomputed per scan from
    /// the brick's epochs vector: the vectorized kernel walks the
    /// visible ranges (no bitmap is ever built), the row-at-a-time
    /// reference walks the visibility bitmap — so every oracle
    /// comparison is also a ranges-vs-bitmap differential. Only the
    /// vectorized kernel takes the brick's reduced `filters`; the
    /// reference probes every filter of the query, which makes the
    /// same comparison a differential of the elision. RU scans (no
    /// snapshot) see every stored row.
    fn scan_one_brick(&self, brick: &Brick, filters: &[&(usize, FilterSet)]) -> PartialResult {
        let plan = &self.plan;
        let snapshot = self.snapshot.as_ref();
        let vis_started = Instant::now();
        let scan_started;
        let mut scanned = match self.kernel {
            ScanKernel::Vectorized => {
                #[allow(clippy::single_range_in_vec_init)]
                let ranges = snapshot.map_or_else(
                    || vec![0..brick.row_count()],
                    |snap| brick.epochs().visible_ranges(snap),
                );
                scan_started = Instant::now();
                crate::query::scan_brick_ranges_vectorized(brick, &ranges, plan, filters)
            }
            ScanKernel::RowAtATime => {
                let visibility =
                    snapshot.map_or_else(|| brick.all_rows(), |snap| brick.visibility(snap));
                scan_started = Instant::now();
                crate::query::scan_brick_shared(brick, &visibility, plan)
            }
        };
        scanned.stats.visibility_build_nanos = (scan_started - vis_started).as_nanos() as u64;
        scanned.stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
        scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::DimStorage;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::ingest::RecordChunk;
    use crate::query::{AggFn, Aggregation, DimFilter, Query, QueryResult, ResolvedQuery};
    use crate::shard::ShardBricks;
    use columnar::Value;

    /// `a` is `DIM(10, 4)`: its ranges are `[0, 4)`, `[4, 8)` and
    /// `[8, 10)`, the last cut short by the cardinality.
    fn cube() -> Cube {
        Cube::new(
            CubeSchema::new(
                "t",
                vec![Dimension::int("a", 10, 4), Dimension::int("b", 8, 2)],
                vec![Metric::int("likes"), Metric::float("score")],
            )
            .unwrap(),
        )
    }

    /// Two epochs of 120 rows that reach every brick, in an order
    /// that interleaves the groups; each row is appended to the brick
    /// its coordinates name.
    fn bricks(cube: &Cube, storage: DimStorage) -> ShardBricks {
        let mut bricks = ShardBricks::default();
        for epoch in 1..=2u64 {
            for i in 0..120u32 {
                let coords = vec![(i * 7) % 10, (i * 3 + epoch as u32) % 8];
                let bid = cube.layout().bid_for_coords(&coords);
                let metrics = vec![
                    Value::I64(i64::from(i) * 5 - 300),
                    Value::F64(f64::from(i) * 0.1 + epoch as f64 / 3.0),
                ];
                bricks
                    .brick_mut(cube, bid, storage)
                    .unwrap()
                    .append(epoch, &RecordChunk::from_rows(&[(coords, metrics)]));
            }
        }
        bricks
    }

    /// `query` with an IN-list filter per `(dimension, values)`.
    fn filtered(query: Query, filters: &[(&str, &[i64])]) -> Query {
        filters.iter().fold(query, |q, (dim, values)| {
            q.filter(DimFilter::new(
                *dim,
                values.iter().map(|&v| Value::from(v)).collect(),
            ))
        })
    }

    /// Runs `query` through one shard with `kernel`, which folds the
    /// brick partials in bid order.
    fn run(
        cube: &Cube,
        bricks: &mut ShardBricks,
        query: &Query,
        snapshot: Option<Snapshot>,
        kernel: ScanKernel,
    ) -> (QueryResult, ShardScanOutcome) {
        let resolved = ResolvedQuery::resolve(cube, query).unwrap();
        let scan = ShardScan {
            cube: cube.clone(),
            plan: Arc::clone(&resolved.plan),
            snapshot,
            kernel,
            fold: true,
            memo: None,
            allowed: None,
            panic_bids: HashSet::new(),
        };
        let mut folded = PartialResult::default();
        let outcome = scan
            .run(0, bricks, |partial| folded.merge(partial))
            .unwrap_or_else(|(bid, failure)| panic!("brick {bid}: {failure:?}"));
        (QueryResult::finalize(cube, &resolved, folded), outcome)
    }

    /// The vectorized kernel, fed each brick's reduced filter list,
    /// against the reference probing every filter: equal rows (by
    /// `f64` bits), equal row counts, equal pruning.
    fn assert_kernels_agree(filters: &[(&str, &[i64])], snapshot: Option<Snapshot>) {
        let cube = cube();
        for storage in [DimStorage::Plain, DimStorage::Bess] {
            let mut bricks = bricks(&cube, storage);
            let queries = [
                Query::aggregate(vec![
                    Aggregation::new(AggFn::Sum, "score"),
                    Aggregation::new(AggFn::Count, ""),
                    Aggregation::new(AggFn::Min, "likes"),
                ]),
                Query::aggregate(vec![
                    Aggregation::new(AggFn::Avg, "score"),
                    Aggregation::new(AggFn::Max, "likes"),
                ])
                .grouped_by("b"),
                Query::aggregate(vec![Aggregation::new(AggFn::Sum, "score")])
                    .grouped_by("a")
                    .grouped_by("b"),
            ];
            for query in queries {
                let query = filtered(query, filters);
                let context = format!("{storage:?}, {snapshot:?}, {query:?}");
                let (fast, fast_outcome) = run(
                    &cube,
                    &mut bricks,
                    &query,
                    snapshot.clone(),
                    ScanKernel::Vectorized,
                );
                let (reference, reference_outcome) = run(
                    &cube,
                    &mut bricks,
                    &query,
                    snapshot.clone(),
                    ScanKernel::RowAtATime,
                );
                assert!(fast.stats.rows_visible > 0, "{context}: matched nothing");
                assert_eq!(
                    fast.stats.rows_visible, reference.stats.rows_visible,
                    "{context}: rows_visible"
                );
                assert_eq!(
                    fast_outcome.pruned, reference_outcome.pruned,
                    "{context}: pruned"
                );
                let bits = |result: &QueryResult| -> Vec<(Vec<Value>, Vec<u64>)> {
                    (result.rows.iter())
                        .map(|(keys, values)| {
                            (keys.clone(), values.iter().map(|v| v.to_bits()).collect())
                        })
                        .collect()
                };
                assert_eq!(bits(&fast), bits(&reference), "{context}");
            }
        }
    }

    /// How many of the query's filters the vectorized kernel probes
    /// on the brick holding `coords`; `None` when the brick is pruned.
    fn kept_filters(filters: &[(&str, &[i64])], coords: [u32; 2]) -> Option<usize> {
        let cube = cube();
        let query = filtered(
            Query::aggregate(vec![Aggregation::new(AggFn::Count, "")]),
            filters,
        );
        let resolved = ResolvedQuery::resolve(&cube, &query).unwrap();
        let bid = cube.layout().bid_for_coords(&coords);
        resolved
            .plan
            .brick_filters(&cube, bid)
            .map(|kept| kept.len())
    }

    #[test]
    fn a_filter_covering_the_bricks_range_is_elided() {
        let filters: &[(&str, &[i64])] = &[("a", &[4, 5, 6, 7]), ("b", &[0, 1, 3])];
        // a: [4, 8) covered, [0, 4) and [8, 10) pruned. b: [0, 2)
        // covered, [2, 4) partial, [4, 8) pruned.
        assert_eq!(kept_filters(filters, [5, 0]), Some(0));
        assert_eq!(kept_filters(filters, [5, 3]), Some(1));
        assert_eq!(kept_filters(filters, [0, 0]), None);
        assert_eq!(kept_filters(filters, [5, 5]), None);
        assert_kernels_agree(filters, Some(Snapshot::committed(2)));
    }

    #[test]
    fn a_filter_missing_one_coordinate_of_the_range_is_kept() {
        // [0, 4) misses 0 but holds the next range's first coordinate,
        // so it has as many ids at or below `hi` as the range is wide.
        let filters: &[(&str, &[i64])] = &[("a", &[1, 2, 3, 4])];
        assert_eq!(kept_filters(filters, [0, 0]), Some(1));
        assert_eq!(kept_filters(filters, [4, 0]), Some(1));
        assert_kernels_agree(filters, Some(Snapshot::committed(2)));
        // A hole in the middle of the range.
        let filters: &[(&str, &[i64])] = &[("a", &[4, 5, 7])];
        assert_eq!(kept_filters(filters, [4, 0]), Some(1));
        assert_kernels_agree(filters, Some(Snapshot::committed(1)));
    }

    #[test]
    fn the_last_range_is_cut_short_by_the_cardinality() {
        // [8, 12) holds only 8 and 9 below the cardinality of 10.
        let filters: &[(&str, &[i64])] = &[("a", &[8, 9])];
        assert_eq!(kept_filters(filters, [8, 0]), Some(0));
        assert_eq!(kept_filters(filters, [4, 0]), None);
        assert_kernels_agree(filters, Some(Snapshot::committed(2)));
        let filters: &[(&str, &[i64])] = &[("a", &[9])];
        assert_eq!(kept_filters(filters, [8, 0]), Some(1));
        assert_kernels_agree(filters, Some(Snapshot::committed(2)));
    }

    #[test]
    fn elision_holds_on_read_uncommitted_scans() {
        let filters: &[(&str, &[i64])] = &[("a", &[1, 2, 3, 4, 5, 6, 7, 8, 9]), ("b", &[2, 3])];
        assert_eq!(kept_filters(filters, [5, 2]), Some(0));
        assert_eq!(kept_filters(filters, [0, 2]), Some(1));
        assert_kernels_agree(filters, None);
    }
}
