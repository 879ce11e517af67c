//! Scan-path differential oracle: the parallel, memoized scan
//! executor against the sequential reference — same engine, same
//! snapshot, byte-identical answers.
//!
//! The AOSI-vs-MVCC oracle ([`crate::differential`]) establishes that the
//! engine's *answers* are right. This layer establishes that the
//! engine's *fast path* computes the same answers as its slow path:
//! [`Engine::query_at`] (shards scanned in parallel, vectorized
//! kernel over `visible_ranges`, per-shard snapshot memo) is diffed
//! against [`Engine::query_at_reference`] (the same executor one
//! shard at a time, row-at-a-time kernel over `visible_bitmap`, memo
//! bypassed) — two independent visibility derivations and two
//! independent kernels — at every committed
//! checkpoint of a generated schedule,
//! at every open transaction's snapshot, and — at quiescence — at
//! every epoch in the readable window `[LSE, LCE]`, three times: the
//! memo stores a key on its second sighting, so the third pass is
//! served from it and must still agree.
//!
//! Comparison is bitwise: group keys must match exactly and every
//! aggregate is compared through `f64::to_bits`, so a NaN/−0.0 or a
//! single flipped visibility bit cannot hide. Generated metric values
//! are integer-valued, which makes float sums exact and independent
//! of merge order (see `crate::checks`); any byte difference is
//! therefore a real visibility or merge bug, not float noise.
//!
//! The `tests/agg_oracle.rs` meta-test proves [`compare_paths`]'
//! teeth: it corrupts the memo through
//! [`Engine::corrupt_memo_for_test`] and asserts the divergence is
//! reported.

use aosi::Snapshot;
use columnar::Value;
use cubrick::{AggFn, Aggregation, DimFilter, DimStorage, Engine, OrderBy, Query, QueryResult};
use workload::ops::{oracle_schema, Schedule, DAY_CARD, ORACLE_CUBE};

use crate::checks::{build_query, NUM_QUERIES};
use crate::exec::{slot_count, Checkpoint, Exec, Hooks};
use crate::framework::{Failure, Harness};

/// Counters from a clean scan-oracle run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanReport {
    /// Schedule ops executed.
    pub ops_executed: usize,
    /// Fast-vs-reference query comparisons performed.
    pub comparisons: u64,
    /// Shard answers served from the snapshot memo across the run
    /// (> 0 proves the memoized path was actually exercised, not just
    /// the cold path three times).
    pub cache_hits: u64,
    /// Shards the default path scanned bricks on (overlapped).
    pub parallel_tasks: u64,
}

/// Builds the engine the scan oracle drives: oracle cube, the default
/// (overlapped, memoized) executor, plain dimension storage.
pub fn scan_engine() -> Engine {
    scan_engine_with(DimStorage::Plain)
}

/// [`scan_engine`] with a chosen brick dimension layout — bess-packed
/// bricks route the kernels through the gather fallback instead of
/// per-dimension slices.
pub fn scan_engine_with(storage: DimStorage) -> Engine {
    let engine = Engine::new(2).with_dim_storage(storage);
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
/// deliberately corrupted memo.
pub fn compare_paths(
    engine: &Engine,
    snapshot: &Snapshot,
    op_index: Option<usize>,
    label: &str,
) -> Result<u64, Failure> {
    let mut comparisons = 0;
    for idx in 0..NUM_SCAN_QUERIES {
        let query = build_scan_query(idx);
        let fast = engine
            .query_at(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| Failure::at(op_index, format!("{label} q{idx} fast path failed: {e}")))?;
        let reference = engine
            .query_at_reference(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| Failure::at(op_index, format!("{label} q{idx} reference failed: {e}")))?;
        comparisons += 1;
        if let Some(d) = diff_bits(&fast, &reference) {
            return Err(Failure::at(
                op_index,
                format!(
                    "{label} q{idx} at epoch {}: parallel+memoized differs from \
                     sequential reference: {d}",
                    snapshot.epoch()
                ),
            ));
        }
    }
    Ok(comparisons)
}

/// Hooks for the harnesses that compare the engine with itself (scan
/// and merge): `Load` is one bulk [`Engine::load`] and every
/// checkpoint runs `compare` at its snapshot.
pub(crate) struct SelfCheck<F> {
    compare: F,
}

impl<F> Hooks for SelfCheck<F>
where
    F: FnMut(&Engine, &Snapshot, Option<usize>, &str) -> Result<u64, Failure>,
{
    fn bulk_load(&self) -> bool {
        true
    }

    fn check(&mut self, x: &mut Exec, i: usize, at: Checkpoint) -> Result<(), Failure> {
        let snapshot = match at {
            Checkpoint::Now(epoch) | Checkpoint::AsOf(epoch) => Snapshot::committed(epoch),
            // An open transaction's snapshot (its own epoch plus the
            // deps exclusion set) is just another snapshot to the scan
            // paths — one above the LCE, so both read bricks.
            Checkpoint::Txn(slot) => x.open(slot).expect("open slot").txn.snapshot().clone(),
        };
        x.comparisons += (self.compare)(&x.engine, &snapshot, Some(i), at.label())?;
        Ok(())
    }
}

/// Executes `schedule` on `engine`, running `compare` at every
/// checkpoint, then commits leftover transactions and sweeps the full
/// readable window `passes` times. Returns the executor for its
/// engine and comparison count.
pub(crate) fn run_self_check<F>(
    schedule: &Schedule,
    engine: Engine,
    passes: usize,
    compare: F,
) -> Result<Exec, Failure>
where
    F: FnMut(&Engine, &Snapshot, Option<usize>, &str) -> Result<u64, Failure>,
{
    let mut hooks = SelfCheck { compare };
    let mut x = Exec::new(engine, slot_count(schedule), Vec::new(), false);
    x.run(&mut hooks, &schedule.ops, 0)?;
    x.quiesce()?;
    let (lse, lce) = (x.engine.manager().lse(), x.engine.manager().lce());
    for pass in 0..passes {
        for epoch in lse..=lce {
            let snapshot = Snapshot::committed(epoch);
            x.comparisons += (hooks.compare)(&x.engine, &snapshot, None, &format!("sweep#{pass}"))?;
        }
    }
    Ok(x)
}

/// The scan-path harness (`harness scan`; header line
/// `storage plain|bess`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scan {
    /// Brick dimension layout.
    pub storage: DimStorage,
}

impl Harness for Scan {
    type Report = ScanReport;

    fn name(&self) -> &'static str {
        "scan"
    }

    /// Executes `schedule` against a parallel+memoized engine,
    /// comparing the fast and reference scan paths at every
    /// checkpoint, then sweeps the full readable window three times:
    /// pass 0 is every key's first sighting, pass 1 stores it, pass 2
    /// must be answered from the memo — and still agree bit-for-bit.
    fn run(&self, schedule: &Schedule) -> Result<ScanReport, Failure> {
        let x = run_self_check(schedule, scan_engine_with(self.storage), 3, compare_paths)?;
        // Sample parallel-task usage so the report can prove the fast
        // path actually fanned out (brick counts vary by schedule, so
        // this is observed, not asserted, per run).
        let lce = x.engine.manager().lce();
        let probe = x
            .engine
            .query_at(ORACLE_CUBE, &build_query(0), &Snapshot::committed(lce))
            .map_err(|e| Failure::new(format!("probe query failed: {e}")))?;
        Ok(ScanReport {
            ops_executed: schedule.ops.len(),
            comparisons: x.comparisons,
            cache_hits: x.engine.agg_cache_stats().map_or(0, |s| s.hits),
            parallel_tasks: probe.stats.parallel_tasks,
        })
    }

    fn header(&self) -> Vec<String> {
        let storage = match self.storage {
            DimStorage::Plain => "plain",
            DimStorage::Bess => "bess",
        };
        vec![format!("storage {storage}")]
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        self.storage = match (key, value) {
            ("storage", "plain") => DimStorage::Plain,
            ("storage", "bess") => DimStorage::Bess,
            _ => return Err(format!("harness scan takes no {key:?} {value:?} line")),
        };
        Ok(())
    }

    fn target(&self) -> &'static str {
        "scan_oracle"
    }
}
