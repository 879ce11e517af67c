//! Scan-path differential oracle: the parallel, aggregate-cached
//! scan executor against the sequential uncached reference — same
//! engine, same snapshot, byte-identical answers.
//!
//! The AOSI-vs-MVCC oracle ([`crate::harness`]) establishes that the
//! engine's *answers* are right. This layer establishes that the
//! engine's *fast path* computes the same answers as its slow path:
//! [`Engine::query_at`] (shards scanned in parallel, vectorized
//! kernel over `visible_ranges`, snapshot-keyed aggregate cache) is
//! diffed against [`Engine::query_at_reference`] (the same executor
//! one shard at a time, row-at-a-time kernel over `visible_bitmap`,
//! cache bypassed) — two independent visibility derivations and two
//! independent kernels — at every committed
//! checkpoint of a generated schedule,
//! at every open transaction's snapshot, and — at quiescence — at
//! every epoch in the readable window `[LSE, LCE]`, twice, so the
//! second pass is served from a warm cache and must still agree.
//!
//! Comparison is bitwise: group keys must match exactly and every
//! aggregate is compared through `f64::to_bits`, so a NaN/−0.0 or a
//! single flipped visibility bit cannot hide. Generated metric values
//! are integer-valued, which makes float sums exact and independent
//! of merge order (see `crate::checks`); any byte difference is
//! therefore a real visibility or merge bug, not float noise.
//!
//! The `tests/agg_oracle.rs` meta-tests prove [`compare_paths`]'
//! teeth: they corrupt the aggregate cache through
//! [`Engine::corrupt_agg_cache_for_test`] and assert the divergence
//! is reported.

use aosi::Snapshot;
use cubrick::{AggFn, Aggregation, DimStorage, Engine, OrderBy, Query, QueryResult, ScanConfig};
use workload::ops::{oracle_schema, LogicalOp, Schedule, DAY_CARD};

use crate::checks::{build_query, NUM_QUERIES};
use crate::harness::Divergence;
use columnar::Value;
use cubrick::DimFilter;
use std::collections::BTreeSet;
use workload::ops::{bucket_days, ORACLE_CUBE};

/// Aggregate-cache capacity for oracle engines: large enough that
/// eviction never masks a staleness bug during a schedule.
const CACHE_CAPACITY: usize = 4096;

/// Counters from a clean scan-oracle run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanReport {
    /// Schedule ops executed.
    pub ops_executed: usize,
    /// Fast-vs-reference query comparisons performed.
    pub comparisons: u64,
    /// Aggregate-cache hits observed across the run (> 0 proves the
    /// warm path was actually exercised, not just the cold path
    /// twice).
    pub cache_hits: u64,
    /// Shards the default path scanned bricks on (overlapped).
    pub parallel_tasks: u64,
}

/// Builds the engine the scan oracle drives: oracle cube, the default
/// (overlapped) executor, warm aggregate cache, plain dimension storage.
pub fn scan_engine() -> Engine {
    scan_engine_with(DimStorage::Plain)
}

/// [`scan_engine`] with a chosen brick dimension layout — bess-packed
/// bricks route the kernels through the gather fallback instead of
/// per-dimension slices.
pub fn scan_engine_with(storage: DimStorage) -> Engine {
    let engine = Engine::new(2)
        .with_scan_config(ScanConfig::parallel_cached(CACHE_CAPACITY))
        .with_dim_storage(storage);
    engine
        .create_cube(oracle_schema())
        .expect("oracle schema registers");
    engine
}

/// Size of the scan-only differential battery: the shared AOSI-vs-MVCC
/// check queries plus scan-specific shapes (ORDER BY + LIMIT, an
/// exhaustive filter the resolver drops, an empty coordinate set, and
/// a multi-filter Min/Max) that only need kernel-vs-kernel agreement
/// and therefore don't burden the MVCC model in `crate::checks`.
pub const NUM_SCAN_QUERIES: usize = NUM_QUERIES + 5;

/// Builds scan-battery query `idx`; indexes below [`NUM_QUERIES`] are
/// the shared [`build_query`] battery.
pub fn build_scan_query(idx: usize) -> Query {
    if idx < NUM_QUERIES {
        return build_query(idx);
    }
    match idx - NUM_QUERIES {
        // Top-k groups by aggregate, descending: ORDER BY + LIMIT
        // over multi-dimension group keys.
        0 => Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Count, ""),
        ])
        .grouped_by("region")
        .grouped_by("day")
        .ordered_by(OrderBy::Aggregation(0), true)
        .limited(5),
        // Filtered Avg with a dimension-ordered, limited result.
        1 => Query::aggregate(vec![
            Aggregation::new(AggFn::Avg, "score"),
            Aggregation::new(AggFn::Max, "likes"),
        ])
        .filter(DimFilter::new(
            "day",
            vec![Value::I64(1), Value::I64(6), Value::I64(11)],
        ))
        .grouped_by("region")
        .ordered_by(OrderBy::Dimension("region".into()), false)
        .limited(6),
        // Exhaustive day filter: accepts every storable coordinate,
        // so the resolver drops it and the scan must take the
        // unfiltered ranges path with identical answers.
        2 => Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Min, "score"),
            Aggregation::new(AggFn::Max, "score"),
        ])
        .filter(DimFilter::new(
            "day",
            (0..DAY_CARD as i64).map(Value::I64).collect(),
        ))
        .grouped_by("region"),
        // Strings with no dictionary id: an empty coordinate set that
        // must match nothing on every path.
        3 => Query::aggregate(vec![
            Aggregation::new(AggFn::Count, ""),
            Aggregation::new(AggFn::Sum, "likes"),
        ])
        .filter(DimFilter::new(
            "region",
            vec![Value::Str("zz".into()), Value::Str("yy".into())],
        )),
        // Two filters at once, Min/Max only: the conjunctive
        // selection-vector compaction.
        4 => Query::aggregate(vec![
            Aggregation::new(AggFn::Min, "likes"),
            Aggregation::new(AggFn::Max, "likes"),
            Aggregation::new(AggFn::Min, "score"),
        ])
        .filter(DimFilter::new(
            "region",
            vec![
                Value::Str("r0".into()),
                Value::Str("r2".into()),
                Value::Str("r4".into()),
            ],
        ))
        .filter(DimFilter::new(
            "day",
            vec![Value::I64(2), Value::I64(5), Value::I64(9), Value::I64(11)],
        ))
        .grouped_by("day")
        .ordered_by(OrderBy::Aggregation(1), true),
        other => unreachable!("no scan check query {other}"),
    }
}

fn fail(op_index: Option<usize>, detail: impl Into<String>) -> Divergence {
    Divergence {
        op_index,
        detail: detail.into(),
    }
}

/// Byte-level diff of two query results; `None` means identical.
/// Group-key order is already deterministic (finalize sorts by packed
/// key), so rows are compared positionally.
pub fn diff_bits(fast: &QueryResult, reference: &QueryResult) -> Option<String> {
    if fast.rows.len() != reference.rows.len() {
        return Some(format!(
            "row count: fast {} vs reference {}",
            fast.rows.len(),
            reference.rows.len()
        ));
    }
    for (row, ((fk, fv), (rk, rv))) in fast.rows.iter().zip(&reference.rows).enumerate() {
        if fk != rk {
            return Some(format!(
                "row {row} group key: fast {fk:?} vs reference {rk:?}"
            ));
        }
        if fv.len() != rv.len() || fv.iter().zip(rv).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Some(format!(
                "row {row} ({fk:?}) aggregates: fast {fv:?} vs reference {rv:?}"
            ));
        }
    }
    None
}

/// Runs the whole check battery at `snapshot` down both scan paths
/// and diffs the results bitwise. Returns the comparison count on
/// agreement. This is the primitive the meta-test points at a
/// deliberately corrupted cache.
pub fn compare_paths(
    engine: &Engine,
    snapshot: &Snapshot,
    op_index: Option<usize>,
    label: &str,
) -> Result<u64, Divergence> {
    let mut comparisons = 0;
    for idx in 0..NUM_SCAN_QUERIES {
        let query = build_scan_query(idx);
        let fast = engine
            .query_at(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| fail(op_index, format!("{label} q{idx} fast path failed: {e}")))?;
        let reference = engine
            .query_at_reference(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| fail(op_index, format!("{label} q{idx} reference failed: {e}")))?;
        comparisons += 1;
        if let Some(d) = diff_bits(&fast, &reference) {
            return Err(fail(
                op_index,
                format!(
                    "{label} q{idx} at epoch {}: parallel+cached differs from \
                     sequential reference: {d}",
                    snapshot.epoch()
                ),
            ));
        }
    }
    Ok(comparisons)
}

struct ScanState {
    engine: Engine,
    slots: Vec<Option<aosi::Txn>>,
    comparisons: u64,
    parallel_tasks: u64,
}

impl ScanState {
    fn check_at(&mut self, i: usize, label: &str, snapshot: &Snapshot) -> Result<(), Divergence> {
        self.comparisons += compare_paths(&self.engine, snapshot, Some(i), label)?;
        Ok(())
    }

    fn apply(&mut self, i: usize, op: &LogicalOp) -> Result<(), Divergence> {
        match op {
            LogicalOp::Begin { slot } => {
                if *slot < self.slots.len() && self.slots[*slot].is_none() {
                    self.slots[*slot] = Some(self.engine.begin());
                }
            }
            LogicalOp::Append { slot, rows } => {
                if let Some(txn) = self.slots.get(*slot).and_then(Option::as_ref) {
                    let (accepted, rejected) = self
                        .engine
                        .append(ORACLE_CUBE, rows, txn)
                        .map_err(|e| fail(Some(i), format!("append failed: {e}")))?;
                    if rejected != 0 || accepted != rows.len() {
                        return Err(fail(Some(i), "generated rows rejected"));
                    }
                }
            }
            LogicalOp::Commit { slot } => {
                if let Some(txn) = self.slots.get_mut(*slot).and_then(Option::take) {
                    self.engine
                        .commit(&txn)
                        .map_err(|e| fail(Some(i), format!("commit failed: {e}")))?;
                }
            }
            LogicalOp::Rollback { slot } => {
                if let Some(txn) = self.slots.get_mut(*slot).and_then(Option::take) {
                    self.engine
                        .rollback(&txn)
                        .map_err(|e| fail(Some(i), format!("rollback failed: {e}")))?;
                }
            }
            LogicalOp::Load { rows } => {
                self.engine
                    .load(ORACLE_CUBE, rows, 0)
                    .map_err(|e| fail(Some(i), format!("load failed: {e}")))?;
            }
            LogicalOp::DeleteDays { buckets } => {
                let days: BTreeSet<i64> = buckets.iter().flat_map(|b| bucket_days(*b)).collect();
                let filter =
                    DimFilter::new("day", days.into_iter().map(Value::I64).collect::<Vec<_>>());
                self.engine
                    .delete_where(ORACLE_CUBE, &[filter])
                    .map_err(|e| fail(Some(i), format!("delete failed: {e}")))?;
            }
            LogicalOp::Purge | LogicalOp::Flush => {
                self.engine.advance_lse_and_purge();
            }
            LogicalOp::CheckNow => {
                // Single-threaded executor: nothing purges while the
                // guard is live, so the epoch it yields stays valid.
                let snapshot = self.engine.manager().begin_read().snapshot().clone();
                self.check_at(i, "check", &snapshot)?;
            }
            LogicalOp::CheckAsOf { frac } => {
                let (lse, lce) = (self.engine.manager().lse(), self.engine.manager().lce());
                if lce > 0 {
                    let window = lce - lse + 1;
                    let epoch = (lse + (u64::from(*frac) * window) / 256).min(lce);
                    let snapshot = Snapshot::committed(epoch);
                    self.check_at(i, "as-of", &snapshot)?;
                }
            }
            LogicalOp::CheckTxn { slot } => {
                // An open transaction's snapshot (its own epoch plus
                // the deps exclusion set) is just another snapshot to
                // the scan paths — and the one that exercises cache
                // keys with non-empty dependency sets.
                if let Some(txn) = self.slots.get(*slot).and_then(Option::as_ref) {
                    let snapshot = txn.snapshot().clone();
                    self.check_at(i, "in-txn", &snapshot)?;
                }
            }
        }
        Ok(())
    }
}

/// Executes `schedule` against a parallel+cached engine, comparing
/// the fast and reference scan paths at every checkpoint, then
/// sweeps the full readable window twice (cold, then warm cache).
/// Returns counters on agreement or the first [`Divergence`].
pub fn run_scan_schedule(schedule: &Schedule) -> Result<ScanReport, Divergence> {
    run_scan_schedule_with(schedule, DimStorage::Plain)
}

/// [`run_scan_schedule`] with a chosen brick dimension layout.
pub fn run_scan_schedule_with(
    schedule: &Schedule,
    storage: DimStorage,
) -> Result<ScanReport, Divergence> {
    let max_slot = schedule
        .ops
        .iter()
        .filter_map(|op| match op {
            LogicalOp::Begin { slot }
            | LogicalOp::Append { slot, .. }
            | LogicalOp::Commit { slot }
            | LogicalOp::Rollback { slot }
            | LogicalOp::CheckTxn { slot } => Some(*slot),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut state = ScanState {
        engine: scan_engine_with(storage),
        slots: (0..=max_slot).map(|_| None).collect(),
        comparisons: 0,
        parallel_tasks: 0,
    };
    for (i, op) in schedule.ops.iter().enumerate() {
        state.apply(i, op)?;
    }
    // Quiesce: leftover transactions commit so the window is final.
    for slot in 0..state.slots.len() {
        if let Some(txn) = state.slots[slot].take() {
            state
                .engine
                .commit(&txn)
                .map_err(|e| fail(None, format!("quiescence commit failed: {e}")))?;
        }
    }
    // Full-window sweep, twice: pass 0 populates the cache at every
    // epoch, pass 1 must be answered from it — and still agree with
    // the uncached reference bit-for-bit.
    let (lse, lce) = (state.engine.manager().lse(), state.engine.manager().lce());
    for pass in 0..2 {
        for epoch in lse..=lce {
            let snapshot = Snapshot::committed(epoch);
            state.comparisons +=
                compare_paths(&state.engine, &snapshot, None, &format!("sweep#{pass}"))?;
        }
    }
    // Sample parallel-task usage so the report can prove the fast
    // path actually fanned out (brick counts vary by schedule, so
    // this is observed, not asserted, per run).
    let probe = state
        .engine
        .query_at(ORACLE_CUBE, &build_query(0), &Snapshot::committed(lce))
        .map_err(|e| fail(None, format!("probe query failed: {e}")))?;
    state.parallel_tasks = probe.stats.parallel_tasks;
    let cache_hits = state.engine.agg_cache_stats().map_or(0, |s| s.hits);
    Ok(ScanReport {
        ops_executed: schedule.ops.len(),
        comparisons: state.comparisons,
        cache_hits,
        parallel_tasks: state.parallel_tasks,
    })
}
