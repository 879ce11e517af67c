//! The single-node Cubrick engine: transaction manager + cubes +
//! shard pool.
//!
//! Operation flow mirrors Section V-B:
//!
//! * **Load**: parse (CPU-only, caller thread) → validate against
//!   `max_rejected` → implicit RW transaction → one append task per
//!   touched shard, joined → commit. "At this point, all
//!   deterministic reasons why a transaction could fail are already
//!   discarded", so commit cannot fail.
//! * **Query**: read-only snapshot at LCE (or the caller's RW
//!   transaction snapshot), registered as an active reader so purge
//!   cannot pull rows out from under the scan; fan-out over shards;
//!   merge partial aggregates. [`IsolationMode::ReadUncommitted`]
//!   skips the snapshot and scans every stored row — the paper's
//!   Figure 8/9 comparison point.
//! * **Delete**: partition-level only. A brick is deleted when its
//!   entire coordinate range is contained in the predicate, so a
//!   delete never removes rows outside the predicate (predicates must
//!   align with partition ranges, the paper's retention use case).
//! * **Purge / rollback**: shard-local rebuilds driven by the
//!   protocol-level `purge`/`rollback` results.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use aosi::{CacheStats, Epoch, Snapshot, Txn, TxnManager, TxnPartitionIndex};
use columnar::Row;
use obs::sync::unpoison;
use obs::{Counter, Histogram, ReportBuilder};

use crate::brick::{Brick, DimStorage};
use crate::cube::{Cube, CubeMemory};
use crate::ddl::CubeSchema;
use crate::error::CubrickError;
use crate::ingest::{parse_rows, ParsedBatch, RecordChunk};
use crate::memo::{MemoKey, ShardMemos};
use crate::query::{AggQueryShape, PartialResult, Query, QueryResult, ResolvedQuery, ScanKernel};
use crate::scan::{BrickFilter, ScanFailure, ShardScan, ShardScanOutcome};
use crate::shard::{ShardPool, TaskHandle};
use crate::tier::{BrickStore, TierEnforcement, TierStats, TieredStore};

/// A shard's `(resident, clean-cold)` brick bytes: what phase 1 of
/// the tier sweep sums.
type ShardBytes = (u64, u64);

/// How the engine runs brick scans (see [`Engine::with_scan_config`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanConfig {
    /// Join each shard's scan before submitting the next one, so at
    /// most one brick is scanned at a time, and read every brick
    /// instead of the snapshot memo. The differential-testing
    /// reference runs this way; everything else overlaps the shards.
    pub sequential: bool,
    /// Which scan/aggregate kernel brick scans run
    /// ([`ScanKernel::Vectorized`] unless diffing against the
    /// row-at-a-time reference).
    pub kernel: ScanKernel,
}

impl ScanConfig {
    /// The differential-testing reference configuration: every scan
    /// sequential (so no memo), row-at-a-time kernel.
    /// [`Engine::query_at_reference`] uses this regardless of the
    /// engine's own configuration.
    pub fn sequential_uncached() -> Self {
        ScanConfig {
            sequential: true,
            kernel: ScanKernel::RowAtATime,
        }
    }
}

/// Which rows a query may see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsolationMode {
    /// Snapshot isolation through the AOSI protocol.
    Snapshot,
    /// Best-effort: scan every stored row, committed or not
    /// (the paper's "RU" comparison mode, Section VI-B).
    ReadUncommitted,
}

/// Per-stage timings of one load request (Figure 5's breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStageTimings {
    /// Parse + validate + route.
    pub parse: Duration,
    /// Forwarding to remote nodes (zero on a single node).
    pub forward: Duration,
    /// Queue + apply on the shard threads.
    pub flush: Duration,
    /// End-to-end.
    pub total: Duration,
}

/// Result of a load request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadOutcome {
    /// The implicit transaction's epoch.
    pub epoch: Epoch,
    /// Records stored.
    pub accepted: usize,
    /// Records rejected by parsing.
    pub rejected: usize,
    /// Bricks touched.
    pub bricks_touched: usize,
    /// Stage latencies.
    pub timings: LoadStageTimings,
}

/// Node-level memory accounting (Figures 6 and 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineMemory {
    /// Record payload bytes.
    pub data_bytes: usize,
    /// AOSI epochs-vector bytes — the protocol's whole footprint.
    pub aosi_bytes: usize,
    /// Dictionary bytes.
    pub dictionary_bytes: usize,
    /// Rows stored.
    pub rows: u64,
    /// Bricks materialized.
    pub bricks: usize,
    /// What a traditional MVCC system would pay for the same rows:
    /// two 8-byte timestamps per record (the paper's baseline).
    pub mvcc_baseline_bytes: u64,
}

/// Cumulative engine operation counters (`SHOW STATS`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineOpStats {
    /// Load requests accepted.
    pub loads: u64,
    /// Rows ingested.
    pub rows_loaded: u64,
    /// Batch flushes through the shard pool.
    pub flushes: u64,
    /// Queries executed.
    pub queries: u64,
    /// Partition-delete statements.
    pub deletes: u64,
    /// Purge cycles run.
    pub purges: u64,
    /// Rows physically reclaimed by purge.
    pub rows_purged: u64,
    /// Epochs-vector entries reclaimed by purge.
    pub entries_reclaimed: u64,
    /// Transactions rolled back.
    pub rollbacks: u64,
}

#[derive(Debug, Default)]
struct OpCounters {
    loads: Counter,
    rows_loaded: Counter,
    flushes: Counter,
    queries: Counter,
    deletes: Counter,
    purges: Counter,
    rows_purged: Counter,
    entries_reclaimed: Counter,
    rollbacks: Counter,
}

/// Engine-level latency distributions and scan-time totals. All
/// lock-free (see the `obs` crate): recording sits directly on the
/// query and load paths.
#[derive(Debug, Default)]
struct EngineMetrics {
    query_nanos: Histogram,
    load_nanos: Histogram,
    visibility_build_nanos: Counter,
    scan_nanos: Counter,
    /// Queries whose shard scans overlapped.
    parallel_queries: Counter,
    /// Queries run with [`ScanConfig::sequential`] set.
    sequential_queries: Counter,
    /// Wall time of individual brick scans.
    scan_task_nanos: Histogram,
}

/// Outcome of one purge cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PurgeStats {
    /// Rows physically reclaimed.
    pub rows_purged: u64,
    /// Epochs-vector entries reclaimed.
    pub entries_reclaimed: u64,
    /// Bricks that needed work.
    pub bricks_changed: u64,
}

/// One Cubrick node.
pub struct Engine {
    manager: TxnManager,
    cubes: RwLock<HashMap<String, Cube>>,
    shards: Arc<ShardPool>,
    dim_storage: DimStorage,
    rollback_index: Option<TxnPartitionIndex>,
    scan_config: ScanConfig,
    /// Each shard's settled-snapshot answers.
    memos: Arc<ShardMemos>,
    /// Bids whose scan tasks panic on purpose (test injection only).
    panic_bids: RwLock<HashSet<u64>>,
    /// Cold-tier residency manager, when tiered storage is enabled.
    tier: Option<Arc<TieredStore>>,
    ops: OpCounters,
    metrics: EngineMetrics,
}

impl Engine {
    /// A standalone single-node engine.
    pub fn new(num_shards: usize) -> Self {
        Engine::with_manager(TxnManager::single_node(), num_shards)
    }

    /// An engine wired to an existing transaction manager (one node
    /// of a cluster).
    pub fn with_manager(manager: TxnManager, num_shards: usize) -> Self {
        Engine {
            manager,
            cubes: RwLock::new(HashMap::new()),
            shards: Arc::new(ShardPool::new(num_shards)),
            dim_storage: DimStorage::Plain,
            rollback_index: None,
            scan_config: ScanConfig::default(),
            memos: Arc::new(ShardMemos::new(num_shards)),
            panic_bids: RwLock::new(HashSet::new()),
            tier: None,
            ops: OpCounters::default(),
            metrics: EngineMetrics::default(),
        }
    }

    /// Enables tiered storage: cold bricks spill into `store` whenever
    /// resident brick bytes exceed `budget_bytes`, and fault back in
    /// transparently when a scan or mutation touches them. Enforcement
    /// runs after every load/commit and on demand via
    /// [`Engine::enforce_tier_budget`].
    pub fn with_tiered_storage(mut self, store: Box<dyn BrickStore>, budget_bytes: usize) -> Self {
        self.tier = Some(Arc::new(TieredStore::new(store, budget_bytes)));
        self
    }

    /// Cold-tier statistics, when tiered storage is enabled.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|tier| tier.stats())
    }

    /// The tier manager (crate-internal: persistence consults the
    /// spilled registry).
    pub(crate) fn tier(&self) -> Option<&Arc<TieredStore>> {
        self.tier.as_ref()
    }

    /// Reconfigures how scans run (sequential mode, kernel).
    pub fn with_scan_config(mut self, config: ScanConfig) -> Self {
        self.scan_config = config;
        self
    }

    /// The active scan configuration.
    pub fn scan_config(&self) -> ScanConfig {
        self.scan_config
    }

    /// Shim: the visibility cache is gone (scans recompute visibility
    /// from the epochs vector), but `aosi_bench/src/serving.rs` still
    /// calls this and may not change in the same PR. Always all-zero;
    /// delete it with the bench's three visibility-cache metrics in
    /// the next `benchmark` PR (ROADMAP item 1).
    #[doc(hidden)]
    pub fn visibility_cache_stats(&self) -> Option<CacheStats> {
        Some(CacheStats::default())
    }

    /// Snapshot-memo statistics summed over the shards: one lookup
    /// per shard per query at a settled snapshot. Always `Some`; the
    /// name and shape predate the memo.
    pub fn agg_cache_stats(&self) -> Option<CacheStats> {
        Some(self.memos.stats())
    }

    /// Corrupts every memoized shard answer in place (counts and sums
    /// nudged, keys untouched), simulating a memo serving wrong bytes.
    /// Exists solely so the oracle meta-test can prove the
    /// differential layer detects it.
    #[doc(hidden)]
    pub fn corrupt_memo_for_test(&self) {
        self.memos.corrupt();
    }

    /// Makes every scan task for `bid` panic (test injection for the
    /// panic-to-typed-error regression tests).
    #[doc(hidden)]
    pub fn inject_scan_panic_for_test(&self, bid: u64) {
        unpoison(self.panic_bids.write()).insert(bid);
    }

    /// Clears scan-panic injection.
    #[doc(hidden)]
    pub fn clear_scan_panics_for_test(&self) {
        unpoison(self.panic_bids.write()).clear();
    }

    /// Whether panic injection targets `bid` (the export path shares
    /// the scan-panic injection set).
    pub(crate) fn export_panic_injected(&self, bid: u64) -> bool {
        unpoison(self.panic_bids.read()).contains(&bid)
    }

    /// Faults one spilled brick back into its shard before a mutation
    /// or export touches it. Appending into a fresh empty brick while
    /// a spill snapshot exists would shadow the spilled rows, so every
    /// write path that targets a brick by id goes through here first.
    /// A no-op when tiering is off or the brick is resident.
    pub(crate) fn fault_in_brick(&self, cube: &str, bid: u64) -> Result<(), CubrickError> {
        let Some(tier) = &self.tier else {
            return Ok(());
        };
        if !tier.is_spilled(cube, bid) {
            return Ok(());
        }
        let cube = self.cube(cube)?;
        let tier = Arc::clone(tier);
        let shard = self.shards.shard_of(bid);
        let task_cube = cube.clone();
        self.shards
            .submit_and_wait(shard, move |bricks| {
                tier.reload_into(&task_cube, bid, bricks).map(|_| ())
            })
            .map_err(|reason| CubrickError::TierReloadFailed {
                cube: cube.name().to_owned(),
                bid,
                reason,
            })
    }

    /// Faults every spilled brick of `cube` back in (cube-wide
    /// mutations: partition deletes walk all bricks of the cube).
    pub(crate) fn fault_in_cube(&self, cube: &str) -> Result<(), CubrickError> {
        let Some(tier) = &self.tier else {
            return Ok(());
        };
        for bid in tier.spilled_bids(cube) {
            self.fault_in_brick(cube, bid)?;
        }
        Ok(())
    }

    /// Runs one eviction sweep: while resident brick bytes exceed the
    /// tier budget, spill the coldest *clean* bricks — newest epoch at
    /// or below the LSE, which makes them immutable and fully durable
    /// in the WAL (see the `tier` module docs) — until the budget
    /// holds or candidates run out. Ranking follows the tier's scan
    /// clock, so a brick queries keep reading stays resident longer
    /// than one nobody asks about.
    ///
    /// Runs automatically after loads, commits, and LSE advances; a
    /// no-op without tiered storage. A failed spill leaves its brick
    /// resident and is counted, never silent.
    pub fn enforce_tier_budget(&self) -> TierEnforcement {
        self.sweep_tier(self.manager.lse(), &[])
    }

    /// [`Engine::enforce_tier_budget`] judged at `lse`, with phase 1
    /// seeded by shard totals the caller already measured at that
    /// same `lse` (a load's append tasks). A load reads `lse` before
    /// its flush, so a brick that turns clean-cold meanwhile waits
    /// for the next sweep; an older LSE never makes a brick eligible.
    fn sweep_tier(&self, lse: Epoch, measured: &[Option<ShardBytes>]) -> TierEnforcement {
        let Some(tier) = &self.tier else {
            return TierEnforcement::default();
        };
        // Phase 1, after every load: two integers per shard — bytes
        // resident, and bytes of clean-cold bricks — with no
        // allocation, lock or sort, asked only of unmeasured shards.
        let pending: Vec<_> = (0..self.shards.num_shards())
            .map(|shard| match measured.get(shard).copied().flatten() {
                Some(bytes) => Ok(bytes),
                None => Err(self
                    .shards
                    .submit_handle(shard, move |b| shard_bytes(b, lse))),
            })
            .collect();
        let totals: Vec<ShardBytes> = (pending.into_iter())
            .map(|p| {
                p.or_else(TaskHandle::join)
                    .unwrap_or_else(|e| resume_unwind(e))
            })
            .collect();
        let resident_bytes: u64 = totals.iter().map(|t| t.0).sum();
        let mut outcome = TierEnforcement {
            resident_bytes_before: resident_bytes,
            resident_bytes_after: resident_bytes,
            eligible_bytes: totals.iter().map(|t| t.1).sum(),
            ..TierEnforcement::default()
        };
        if resident_bytes <= tier.budget_bytes() as u64 || outcome.eligible_bytes == 0 {
            tier.observe_resident_bytes(resident_bytes);
            return outcome;
        }
        // Phase 2, only over budget: name the clean-cold candidates
        // and rank them coldest-first.
        let per_shard: Vec<Vec<(String, u64)>> = self.shards.map_shards(|_| {
            Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                let mut out = Vec::new();
                for (cube_name, cube_bricks) in bricks.iter() {
                    for (&bid, brick) in cube_bricks {
                        if is_clean_cold(brick, lse) {
                            out.push((cube_name.clone(), bid));
                        }
                    }
                }
                out
            })
        });
        let mut candidates: Vec<(f64, String, u64)> = per_shard
            .into_iter()
            .flatten()
            .map(|(cube, bid)| (tier.touch_recency(&cube, bid).unwrap_or(0.0), cube, bid))
            .collect();
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        for (_, cube_name, bid) in candidates {
            if outcome.resident_bytes_after <= tier.budget_bytes() as u64 {
                break;
            }
            match self.spill_brick(tier, &cube_name, bid, lse) {
                Ok(Some(freed)) => {
                    outcome.evicted += 1;
                    outcome.resident_bytes_after =
                        outcome.resident_bytes_after.saturating_sub(freed as u64);
                }
                Ok(None) => {}
                Err(()) => outcome.failed += 1,
            }
        }
        tier.observe_resident_bytes(outcome.resident_bytes_after);
        outcome
    }

    /// Spills one brick on its owning shard thread. Eligibility is
    /// re-checked there — a write may have landed between the sweep's
    /// enumeration and this task running. Returns the bytes freed
    /// (`Ok(None)` when the brick vanished or turned ineligible,
    /// `Err` when the durable write failed and the brick stayed
    /// resident). The snapshot memo is left alone: a spill changes
    /// where rows live, not which rows any snapshot sees.
    fn spill_brick(
        &self,
        tier: &Arc<TieredStore>,
        cube_name: &str,
        bid: u64,
        lse: Epoch,
    ) -> Result<Option<usize>, ()> {
        let Ok(cube) = self.cube(cube_name) else {
            return Ok(None);
        };
        let shard = self.shards.shard_of(bid);
        let tier = Arc::clone(tier);
        self.shards.submit_and_wait(shard, move |bricks| {
            let Some(cube_bricks) = bricks.get_mut(cube.name()) else {
                return Ok(None);
            };
            let Some(brick) = cube_bricks.get(&bid) else {
                return Ok(None);
            };
            if !is_clean_cold(brick, lse) {
                return Ok(None);
            }
            match tier.store().spill(&cube, bid, brick) {
                Ok(file_bytes) => {
                    let epochs = brick.epochs().clone();
                    let m = brick.memory();
                    let freed = m.data_bytes + m.aosi_bytes;
                    cube_bricks.remove(&bid);
                    tier.note_spilled(cube.name(), bid, epochs, file_bytes, freed);
                    Ok(Some(freed))
                }
                Err(_) => {
                    tier.note_spill_failure();
                    Err(())
                }
            }
        })
    }

    /// Cumulative operation counters.
    pub fn op_stats(&self) -> EngineOpStats {
        EngineOpStats {
            loads: self.ops.loads.get(),
            rows_loaded: self.ops.rows_loaded.get(),
            flushes: self.ops.flushes.get(),
            queries: self.ops.queries.get(),
            deletes: self.ops.deletes.get(),
            purges: self.ops.purges.get(),
            rows_purged: self.ops.rows_purged.get(),
            entries_reclaimed: self.ops.entries_reclaimed.get(),
            rollbacks: self.ops.rollbacks.get(),
        }
    }

    /// Renders this node's full metrics report — `[aosi]`, `[engine]`,
    /// and `[shards]` sections in the `obs` plain-text format.
    pub fn metrics_report(&self) -> String {
        let mut report = ReportBuilder::new();
        self.report_into(&mut report, "");
        report.finish()
    }

    /// Writes this node's report sections, prefixing section names
    /// with `prefix` (the distributed engine passes `"node1."` etc.).
    pub(crate) fn report_into(&self, report: &mut ReportBuilder, prefix: &str) {
        self.manager.report_as(report, &format!("{prefix}aosi"));
        report
            .section(&format!("{prefix}engine"))
            .metric("cubes", unpoison(self.cubes.read()).len())
            .counter("loads", &self.ops.loads)
            .counter("rows_loaded", &self.ops.rows_loaded)
            .counter("flushes", &self.ops.flushes)
            .counter("queries", &self.ops.queries)
            .counter("deletes", &self.ops.deletes)
            .counter("purges", &self.ops.purges)
            .counter("rows_purged", &self.ops.rows_purged)
            .counter("entries_reclaimed", &self.ops.entries_reclaimed)
            .counter("rollbacks", &self.ops.rollbacks)
            .counter(
                "visibility_build_nanos",
                &self.metrics.visibility_build_nanos,
            )
            .counter("scan_nanos", &self.metrics.scan_nanos)
            .counter("parallel_queries", &self.metrics.parallel_queries)
            .counter("sequential_queries", &self.metrics.sequential_queries)
            .histogram("query_nanos", &self.metrics.query_nanos)
            .histogram("load_nanos", &self.metrics.load_nanos)
            .histogram("scan_task_nanos", &self.metrics.scan_task_nanos);
        self.memos
            .report_as(report, &format!("{prefix}engine.memo"));
        if let Some(tier) = &self.tier {
            tier.report_as(report, &format!("{prefix}storage.tier"));
        }
        self.shards.report_as(report, &format!("{prefix}shards"));
    }

    /// Enables the transaction-to-partition index the paper describes
    /// as an alternative rollback accelerator (Section III-C5) and
    /// rejects for its memory footprint. Off by default, matching the
    /// paper's choice; the `ablations` bench quantifies the trade.
    pub fn with_rollback_index(mut self) -> Self {
        self.rollback_index = Some(TxnPartitionIndex::new());
        self
    }

    /// The rollback index, if enabled (instrumentation).
    pub fn rollback_index(&self) -> Option<&TxnPartitionIndex> {
        self.rollback_index.as_ref()
    }

    /// Selects the dimension layout for bricks materialized from now
    /// on (the paper's bess packing vs. plain vectors). Choose before
    /// loading data.
    pub fn with_dim_storage(mut self, storage: DimStorage) -> Self {
        self.dim_storage = storage;
        self
    }

    /// The configured dimension layout.
    pub fn dim_storage(&self) -> DimStorage {
        self.dim_storage
    }

    /// The node's transaction manager.
    pub fn manager(&self) -> &TxnManager {
        &self.manager
    }

    /// The shard pool (crate-internal: persistence walks bricks).
    pub(crate) fn shards(&self) -> &ShardPool {
        &self.shards
    }

    /// The per-shard snapshot memos (crate-internal: imports clear
    /// them inside their shard tasks).
    pub(crate) fn memos(&self) -> &Arc<ShardMemos> {
        &self.memos
    }

    /// Creates a cube from a schema (local DDL).
    pub fn create_cube(&self, schema: CubeSchema) -> Result<Cube, CubrickError> {
        self.register_cube(Cube::new(schema))
    }

    /// Registers shared cube metadata (cluster DDL: every node holds
    /// the same `Cube`, including its dictionaries).
    pub fn register_cube(&self, cube: Cube) -> Result<Cube, CubrickError> {
        let mut cubes = unpoison(self.cubes.write());
        if cubes.contains_key(cube.name()) {
            return Err(CubrickError::CubeExists(cube.name().to_owned()));
        }
        cubes.insert(cube.name().to_owned(), cube.clone());
        Ok(cube)
    }

    /// Drops a cube: unregisters its metadata and removes its bricks
    /// and memoized answers from every shard. Data is reclaimed
    /// immediately (dropping a cube is DDL, not a transactional delete
    /// — the paper's transactional path for data removal is the
    /// partition delete).
    pub fn drop_cube(&self, name: &str) -> Result<(), CubrickError> {
        let removed = unpoison(self.cubes.write()).remove(name);
        if removed.is_none() {
            return Err(CubrickError::UnknownCube(name.to_owned()));
        }
        // Evicted bricks first, so no scan can fault one back in after
        // its shard let go of the cube.
        if let Some(tier) = &self.tier {
            for bid in tier.spilled_bids(name) {
                tier.forget(name, bid);
            }
        }
        self.shards.map_shards(|shard| {
            let name = name.to_owned();
            let memos = Arc::clone(&self.memos);
            Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                bricks.remove(&name);
                memos.shard(shard).forget_cube(&name);
            })
        });
        Ok(())
    }

    /// Names of all registered cubes.
    pub fn cube_names(&self) -> Vec<String> {
        let mut names: Vec<String> = unpoison(self.cubes.read()).keys().cloned().collect();
        names.sort();
        names
    }

    /// Looks a cube up.
    pub fn cube(&self, name: &str) -> Result<Cube, CubrickError> {
        unpoison(self.cubes.read())
            .get(name)
            .cloned()
            .ok_or_else(|| CubrickError::UnknownCube(name.to_owned()))
    }

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
        if let Some(lse) = sweep_lse {
            self.sweep_tier(lse, &measured);
        }
        if let Some(index) = &self.rollback_index {
            index.forget(txn.epoch());
        }
        Ok((txn.epoch(), flush))
    }

    /// Applies a parsed batch under `epoch`: one joined task per
    /// touched shard appends its chunks in ascending bid order.
    ///
    /// Spilled targets are faulted back in first (appending into a
    /// fresh brick would shadow the spilled rows), so a failed reload
    /// fails the batch before any row lands. A panicking append fails
    /// it with [`CubrickError::AppendFailed`] once every task is
    /// joined; the caller rolls back what landed. Given `sweep_lse`,
    /// the result holds each touched shard's sweep totals at it.
    pub(crate) fn flush_batch(
        &self,
        cube: &Cube,
        epoch: Epoch,
        batch: ParsedBatch,
        sweep_lse: Option<Epoch>,
    ) -> Result<Vec<Option<ShardBytes>>, CubrickError> {
        if self.tier.is_some() {
            for &bid in batch.by_bid.keys() {
                self.fault_in_brick(cube.name(), bid)?;
            }
        }
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
                    // By value, freeing each chunk after its append:
                    // holding all to the task's end measured ~5 MiB
                    // more peak RSS under `realtime_mixed`'s INSERTs.
                    for (bid, chunk) in chunks {
                        catch_unwind(AssertUnwindSafe(|| {
                            crate::shard::brick_mut(bricks, &cube, bid, storage)
                                .append(epoch, &chunk);
                        }))
                        .map_err(|_| bid)?;
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
                Err(bid) => {
                    self.shards.count_panic();
                    failed.get_or_insert(bid);
                }
            }
        }
        match failed {
            None => Ok(measured),
            Some(bid) => Err(CubrickError::AppendFailed {
                cube: cube.name().into(),
                bid,
            }),
        }
    }

    /// Begins an explicit RW transaction.
    pub fn begin(&self) -> Txn {
        self.manager.begin_rw()
    }

    /// Appends rows within an explicit transaction. Rejected rows are
    /// returned (the transaction stays usable). On
    /// [`CubrickError::AppendFailed`] part of the batch may be stored
    /// under the transaction: roll it back.
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
                    for cube_bricks in bricks.values_mut() {
                        for bid in &bids {
                            if let Some(brick) = cube_bricks.get_mut(bid) {
                                removed += brick.rollback(epoch);
                            }
                        }
                    }
                    removed
                });
            }
            return removed;
        }
        let removed = self.shards.map_shards(|_| {
            Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                let mut removed = 0u64;
                for brick in bricks.values_mut().flat_map(HashMap::values_mut) {
                    removed += brick.rollback(epoch);
                }
                removed
            })
        });
        removed.into_iter().sum()
    }

    /// Runs a query under `mode`.
    pub fn query(
        &self,
        cube: &str,
        query: &Query,
        mode: IsolationMode,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        self.ops.queries.inc();
        match mode {
            IsolationMode::Snapshot => {
                // Register the snapshot so LSE (and purge) cannot pass
                // it mid-scan.
                let guard = self.manager.begin_read();
                let snapshot = guard.snapshot().clone();
                self.execute(&cube, &resolved, Some(snapshot))
            }
            IsolationMode::ReadUncommitted => self.execute(&cube, &resolved, None),
        }
    }

    /// Runs a query inside an explicit transaction (sees its own
    /// uncommitted appends).
    pub fn query_in_txn(
        &self,
        cube: &str,
        query: &Query,
        txn: &Txn,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let guard = self.manager.guard_snapshot(txn.snapshot().clone());
        self.execute(&cube, &resolved, Some(guard.snapshot().clone()))
    }

    /// Time travel: runs a query against the committed snapshot as of
    /// `epoch` — any epoch still inside the readable window
    /// `[LSE, LCE]`. AOSI gets this almost for free: a committed
    /// epoch *is* a consistent snapshot (the LCE rule guarantees
    /// everything at or below it finished), and purge has not yet
    /// merged history above LSE. The read is guarded so LSE cannot
    /// pass it mid-scan.
    pub fn query_as_of(
        &self,
        cube: &str,
        query: &Query,
        epoch: Epoch,
    ) -> Result<QueryResult, CubrickError> {
        // Register the read guard BEFORE validating the window:
        // guard registration and the LSE advance share one lock, so
        // an epoch that passes the check below cannot be purged for
        // the lifetime of the guard. (Checking first and guarding
        // after left a window where a concurrent advance_lse + purge
        // could compact history under an already-validated epoch.)
        let guard = self.manager.guard_snapshot(Snapshot::committed(epoch));
        let (lse, lce) = (self.manager.lse(), self.manager.lce());
        if epoch < lse || epoch > lce {
            return Err(CubrickError::EpochOutOfRange {
                requested: epoch,
                lse,
                lce,
            });
        }
        self.ops.queries.inc();
        self.query_at(cube, query, guard.snapshot())
    }

    /// Runs a query against an externally supplied snapshot (the
    /// distributed engine uses this: one consistent snapshot, many
    /// nodes). The caller is responsible for guarding the snapshot.
    pub fn query_at(
        &self,
        cube: &str,
        query: &Query,
        snapshot: &Snapshot,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        self.execute(&cube, &resolved, Some(snapshot.clone()))
    }

    /// Differential-testing reference: the same result as
    /// [`Engine::query_at`], but forced down the sequential scan path
    /// with the row-at-a-time kernel (over visibility bitmaps) and
    /// the snapshot memo bypassed, regardless of the engine's
    /// configuration. The scan-oracle layer compares the default
    /// (parallel + memoized, vectorized over visible ranges) path
    /// against this byte-for-byte.
    pub fn query_at_reference(
        &self,
        cube: &str,
        query: &Query,
        snapshot: &Snapshot,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let merged = self.execute_partial_with(
            &cube,
            &resolved,
            Some(snapshot.clone()),
            ScanConfig::sequential_uncached(),
            None,
            None,
        )?;
        Ok(QueryResult::finalize(&cube, &resolved, merged))
    }

    /// Runs a query like [`Engine::query_at`], additionally invoking
    /// `on_partial` with a finalized snapshot of the merged-so-far
    /// result each time a scan task's partial lands at the
    /// coordinator. Refinements arrive in the executor's
    /// deterministic merge order; the returned result is the complete
    /// one (identical to what `query_at` would produce). The server's
    /// progressive mode streams these refinements to the client.
    pub fn query_at_with_progress(
        &self,
        cube: &str,
        query: &Query,
        snapshot: &Snapshot,
        mut on_partial: impl FnMut(QueryResult),
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let mut forward = |partial: &PartialResult| {
            on_partial(QueryResult::finalize(&cube, &resolved, partial.clone()));
        };
        let merged = self.execute_partial_with(
            &cube,
            &resolved,
            Some(snapshot.clone()),
            self.scan_config,
            None,
            Some(&mut forward),
        )?;
        Ok(QueryResult::finalize(&cube, &resolved, merged))
    }

    /// [`Engine::query_as_of`] with progressive refinements: the
    /// same guarded `[LSE, LCE]` window check, but `on_partial`
    /// observes the merged-so-far result after each scan task lands.
    /// The server's progressive `/query` mode is a thin wrapper over
    /// this.
    pub fn query_as_of_with_progress(
        &self,
        cube: &str,
        query: &Query,
        epoch: Epoch,
        on_partial: impl FnMut(QueryResult),
    ) -> Result<QueryResult, CubrickError> {
        // Guard before validating, exactly like `query_as_of`: the
        // guard and the LSE advance share a lock, so a validated
        // epoch cannot be purged mid-stream.
        let guard = self.manager.guard_snapshot(Snapshot::committed(epoch));
        let (lse, lce) = (self.manager.lse(), self.manager.lce());
        if epoch < lse || epoch > lce {
            return Err(CubrickError::EpochOutOfRange {
                requested: epoch,
                lse,
                lce,
            });
        }
        self.ops.queries.inc();
        self.query_at_with_progress(cube, query, guard.snapshot(), on_partial)
    }

    /// Runs the scan fan-out but returns the *per-brick* partials
    /// instead of merging them: one [`PartialResult`] per scanned
    /// brick, ordered by shard then brick id ascending — the same
    /// deterministic order the merge paths fold in.
    /// [`Engine::finalize_partials`] completes the query from any
    /// partitioning of this list; the merge oracle exercises every
    /// other association and ordering against the single-pass
    /// reference.
    pub fn query_brick_partials(
        &self,
        cube: &str,
        query: &Query,
        snapshot: &Snapshot,
    ) -> Result<Vec<PartialResult>, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let config = self.scan_config;
        let scan = self.shard_scan(
            &cube,
            &resolved,
            Some(snapshot.clone()),
            config,
            None,
            false,
        );
        let mut out = Vec::new();
        self.scan_shards(
            scan,
            config.sequential,
            Vec::push,
            |partials: Vec<PartialResult>, _| out.extend(partials),
        )?;
        Ok(out)
    }

    /// Merges externally produced brick partials (in the given order,
    /// folding from the identity) and finalizes the query — the other
    /// half of [`Engine::query_brick_partials`]. The merge is
    /// associative and commutative on the workload's exact
    /// arithmetic, so any partitioning of the same brick set
    /// finalizes identically; `oracle::agg` pins that property.
    pub fn finalize_partials(
        &self,
        cube: &str,
        query: &Query,
        partials: impl IntoIterator<Item = PartialResult>,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let mut merged = PartialResult::default();
        for partial in partials {
            merged.merge(partial);
        }
        Ok(QueryResult::finalize(&cube, &resolved, merged))
    }

    fn execute(
        &self,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
    ) -> Result<QueryResult, CubrickError> {
        let started = Instant::now();
        let merged = self.execute_partial(cube, resolved, snapshot)?;
        let result = QueryResult::finalize(cube, resolved, merged);
        self.metrics.query_nanos.record_duration(started.elapsed());
        Ok(result)
    }

    /// Shard fan-out producing mergeable partial aggregates; the
    /// distributed engine merges partials across nodes before
    /// finalizing (so `Avg` stays correct).
    pub(crate) fn execute_partial(
        &self,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
    ) -> Result<PartialResult, CubrickError> {
        self.execute_partial_with(cube, resolved, snapshot, self.scan_config, None, None)
    }

    /// [`Engine::execute_partial`] restricted to bricks `allowed`
    /// admits. The replica-routed distributed scan uses this: each
    /// node scans only the bricks the read router assigned to it, so
    /// a brick replicated on three hosts is counted exactly once.
    pub(crate) fn execute_partial_filtered(
        &self,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
        allowed: BrickFilter,
    ) -> Result<PartialResult, CubrickError> {
        let config = self.scan_config;
        self.execute_partial_with(cube, resolved, snapshot, config, Some(allowed), None)
    }

    /// The coordinator behind every merged query path: one
    /// [`ShardScan`] per shard, each shard folding its own bricks
    /// (ascending bid) into a local partial, the shard partials merged
    /// here in shard order. Every execution therefore folds the exact
    /// same sequence of brick partials and is byte-identical
    /// (aggregate sums over the workload's integer-valued floats are
    /// exact and order-independent; the deterministic order removes
    /// even the merge-order variable). `config.sequential` only
    /// decides whether the shards overlap.
    ///
    /// `progress`, when supplied, observes the merged-so-far partial
    /// after each shard that had bricks to scan — the progressive
    /// query protocol's refinement stream.
    fn execute_partial_with(
        &self,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
        config: ScanConfig,
        allowed: Option<BrickFilter>,
        mut progress: Option<&mut dyn FnMut(&PartialResult)>,
    ) -> Result<PartialResult, CubrickError> {
        let scan = self.shard_scan(cube, resolved, snapshot, config, allowed, true);
        if config.sequential {
            self.metrics.sequential_queries.inc();
        } else {
            self.metrics.parallel_queries.inc();
        }
        let mut merged = PartialResult::default();
        self.scan_shards(
            scan,
            config.sequential,
            PartialResult::merge,
            |partial: PartialResult, outcome| {
                merged.stats.bricks_pruned += outcome.pruned;
                if outcome.bricks == 0 {
                    return;
                }
                merged.stats.parallel_tasks += u64::from(!config.sequential);
                merged.merge(partial);
                if let Some(observe) = progress.as_mut() {
                    observe(&merged);
                }
            },
        )?;
        self.metrics
            .visibility_build_nanos
            .add(merged.stats.visibility_build_nanos);
        self.metrics.scan_nanos.add(merged.stats.scan_nanos);
        Ok(merged)
    }

    /// Builds the per-query scan request. `folded` says the caller
    /// merges each shard's bricks into one partial (every path but
    /// [`Engine::query_brick_partials`]). Only such a scan may answer
    /// from the snapshot memo, and only when its snapshot is settled —
    /// at or below the LCE now — with no replica filter, no sequential
    /// (reference) execution and no injected panic. RU scans and a
    /// transaction's own snapshot (above the LCE) always read bricks.
    fn shard_scan(
        &self,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
        config: ScanConfig,
        allowed: Option<BrickFilter>,
        folded: bool,
    ) -> ShardScan {
        let panic_bids = unpoison(self.panic_bids.read()).clone();
        let memo = snapshot
            .as_ref()
            .filter(|snap| {
                folded
                    && !config.sequential
                    && allowed.is_none()
                    && panic_bids.is_empty()
                    && snap.epoch() <= self.manager.lce()
            })
            .map(|snap| {
                let shape = AggQueryShape::of(resolved, config.kernel);
                let key = MemoKey::new(cube.name(), shape, snap);
                (Arc::clone(&self.memos), key)
            });
        ShardScan {
            cube: cube.clone(),
            resolved: resolved.clone(),
            snapshot,
            kernel: config.kernel,
            memo,
            tier: self.tier.clone(),
            allowed,
            panic_bids,
            num_shards: self.shards.num_shards(),
        }
    }

    /// Submits `scan` to every shard and joins in shard order, handing
    /// `on_shard` each shard's accumulator (its brick partials folded
    /// by `absorb`, ascending bid) and outcome. `sequential` joins
    /// each shard before submitting the next; otherwise all shards
    /// run at once. A panicking brick or a failed tier reload fails
    /// the whole query with a typed error — never a partial result.
    fn scan_shards<A: Default + Send + 'static>(
        &self,
        scan: ShardScan,
        sequential: bool,
        absorb: fn(&mut A, PartialResult),
        mut on_shard: impl FnMut(A, &ShardScanOutcome),
    ) -> Result<(), CubrickError> {
        type Joined<A> = Result<(A, ShardScanOutcome), (u64, ScanFailure)>;
        let scan = Arc::new(scan);
        let mut join = |handle: TaskHandle<Joined<A>>| {
            let cube = || scan.cube.name().to_owned();
            match handle.join() {
                Ok(Ok((acc, outcome))) => {
                    for &nanos in &outcome.scan_task_nanos {
                        self.metrics.scan_task_nanos.record(nanos);
                    }
                    on_shard(acc, &outcome);
                    Ok(())
                }
                Ok(Err((bid, ScanFailure::Panicked))) => Err(CubrickError::ScanTaskPanicked {
                    cube: cube(),
                    bid: Some(bid),
                }),
                Ok(Err((bid, ScanFailure::TierReload(reason)))) => {
                    Err(CubrickError::TierReloadFailed {
                        cube: cube(),
                        bid,
                        reason,
                    })
                }
                Err(_) => Err(CubrickError::ScanTaskPanicked {
                    cube: cube(),
                    bid: None,
                }),
            }
        };
        let mut pending = Vec::new();
        for shard in 0..self.shards.num_shards() {
            let task = Arc::clone(&scan);
            let handle = self.shards.submit_handle(shard, move |bricks| {
                let mut acc = A::default();
                let outcome = task.run(shard, bricks, |partial| absorb(&mut acc, partial))?;
                Ok((acc, outcome))
            });
            if sequential {
                join(handle)?;
            } else {
                pending.push(handle);
            }
        }
        pending.into_iter().try_for_each(join)
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
        let marked = self.mark_delete_where(&cube, filters, txn.epoch())?;
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
        // A partition delete walks every brick of the cube, so every
        // spilled brick must be resident first — an evicted brick the
        // walk misses would silently keep its rows.
        self.fault_in_cube(cube.name())?;
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
            Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                let mut marked = 0u64;
                let Some(cube_bricks) = bricks.get_mut(cube.name()) else {
                    return marked;
                };
                let layout = cube.layout();
                for (&bid, brick) in cube_bricks.iter_mut() {
                    let ranges = layout.range_indexes_of_bid(bid);
                    let contained = resolved.iter().all(|(dim, coords)| {
                        let (lo, hi) = layout.range_bounds(*dim, ranges[*dim]);
                        (lo..hi).all(|c| coords.contains(&c))
                    });
                    if contained {
                        brick.mark_delete(epoch);
                        marked += 1;
                    }
                }
                marked
            })
        });
        Ok(marked.into_iter().sum())
    }

    /// Runs one purge cycle at the current LSE over every brick
    /// (Section III-C4), and drops the memoized answers no reader at
    /// or above the LSE can ask for.
    pub fn purge(&self) -> PurgeStats {
        self.ops.purges.inc();
        let lse = self.manager.lse();
        let stats = self.shards.map_shards(|shard| {
            let memos = Arc::clone(&self.memos);
            Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                let mut stats = PurgeStats::default();
                for brick in bricks.values_mut().flat_map(HashMap::values_mut) {
                    if !brick.needs_purge(lse) {
                        continue;
                    }
                    let (rows, entries) = brick.purge(lse);
                    stats.rows_purged += rows;
                    stats.entries_reclaimed += entries as u64;
                    stats.bricks_changed += 1;
                }
                memos.shard(shard).expire_below(lse);
                stats
            })
        });
        let total = stats.into_iter().fold(PurgeStats::default(), |mut a, s| {
            a.rows_purged += s.rows_purged;
            a.entries_reclaimed += s.entries_reclaimed;
            a.bricks_changed += s.bricks_changed;
            a
        });
        self.ops.rows_purged.add(total.rows_purged);
        self.ops.entries_reclaimed.add(total.entries_reclaimed);
        total
    }

    /// Convenience used by the flush machinery and the benches:
    /// advance LSE as far as the manager allows (up to LCE), then
    /// purge. Durability gating belongs to the `wal` crate.
    pub fn advance_lse_and_purge(&self) -> PurgeStats {
        let lce = self.manager.lce();
        let stats = if self.manager.advance_lse(lce).is_ok() {
            self.purge()
        } else {
            PurgeStats::default()
        };
        // An LSE advance is what turns bricks clean-cold, so this is
        // the natural eviction point.
        if self.tier.is_some() {
            self.enforce_tier_budget();
        }
        stats
    }

    /// Brick ids this node currently stores for `cube`, ascending.
    pub(crate) fn brick_bids(&self, cube: &str) -> Vec<u64> {
        let name = cube.to_owned();
        let per_shard: Vec<Vec<u64>> = self.shards.map_shards(|_| {
            let name = name.clone();
            Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                bricks
                    .get(&name)
                    .map(|m| m.keys().copied().collect())
                    .unwrap_or_default()
            })
        });
        let mut bids: Vec<u64> = per_shard.into_iter().flatten().collect();
        if let Some(tier) = &self.tier {
            for bid in tier.spilled_bids(cube) {
                if !bids.contains(&bid) {
                    bids.push(bid);
                }
            }
        }
        bids.sort_unstable();
        bids
    }

    /// Whether this node stores `bid` of `cube`.
    pub(crate) fn has_brick(&self, cube: &str, bid: u64) -> bool {
        let name = cube.to_owned();
        self.shards
            .map_shards(|shard| {
                let name = name.clone();
                let here = shard == self.shards.shard_of(bid);
                Box::new(move |bricks: &mut crate::shard::ShardBricks| {
                    here && bricks.get(&name).is_some_and(|m| m.contains_key(&bid))
                })
            })
            .into_iter()
            .any(|b| b)
            || self
                .tier
                .as_ref()
                .is_some_and(|tier| tier.is_spilled(cube, bid))
    }

    /// Removes one brick from its shard (rebalance retire / failed
    /// handoff cleanup), clearing the shard's memoized answers for the
    /// cube. Returns whether the brick existed. The caller owns
    /// read-safety: no query may be routed here for this brick
    /// anymore.
    pub(crate) fn remove_brick(&self, cube: &str, bid: u64) -> bool {
        let shard = self.shards.shard_of(bid);
        let name = cube.to_owned();
        let memos = Arc::clone(&self.memos);
        let removed = self.shards.submit_and_wait(shard, move |bricks| {
            memos.shard(shard).forget_cube(&name);
            bricks
                .get_mut(&name)
                .is_some_and(|cube_bricks| cube_bricks.remove(&bid).is_some())
        });
        let spilled = self
            .tier
            .as_ref()
            .is_some_and(|tier| tier.forget(cube, bid));
        removed || spilled
    }

    /// Memory accounting across all bricks of all cubes.
    pub fn memory(&self) -> EngineMemory {
        let per_shard: Vec<CubeMemory> = self.shards.map_shards(|_| {
            Box::new(|bricks: &mut crate::shard::ShardBricks| {
                let mut memory = CubeMemory::default();
                for cube_bricks in bricks.values() {
                    for brick in cube_bricks.values() {
                        let m = brick.memory();
                        memory.data_bytes += m.data_bytes;
                        memory.aosi_bytes += m.aosi_bytes;
                        memory.rows += m.rows;
                        memory.bricks += 1;
                    }
                }
                memory
            })
        });
        let mut total = EngineMemory::default();
        for m in per_shard {
            total.data_bytes += m.data_bytes;
            total.aosi_bytes += m.aosi_bytes;
            total.rows += m.rows;
            total.bricks += m.bricks;
        }
        total.dictionary_bytes = unpoison(self.cubes.read())
            .values()
            .map(Cube::dictionary_bytes)
            .sum();
        total.mvcc_baseline_bytes = total.rows * 16;
        total
    }
}

/// Whether a brick may be spilled: its newest epoch is at or below
/// the LSE, so it is immutable and fully durable in the WAL. Empty
/// bricks (newest epoch 0) are never worth a file.
fn is_clean_cold(brick: &Brick, lse: Epoch) -> bool {
    let newest = brick.epochs().entries().last().map_or(0, |e| e.epoch());
    newest != 0 && newest <= lse
}

/// One shard's `(resident, clean-cold)` brick bytes at `lse`.
fn shard_bytes(bricks: &crate::shard::ShardBricks, lse: Epoch) -> ShardBytes {
    let (mut resident, mut eligible) = (0u64, 0u64);
    for brick in bricks.values().flat_map(HashMap::values) {
        let m = brick.memory();
        let bytes = (m.data_bytes + m.aosi_bytes) as u64;
        resident += bytes;
        if is_clean_cold(brick, lse) {
            eligible += bytes;
        }
    }
    (resident, eligible)
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cubes", &unpoison(self.cubes.read()).len())
            .field("shards", &self.shards.num_shards())
            .field("manager", &self.manager)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{Dimension, Metric};
    use crate::query::{AggFn, Aggregation, DimFilter};
    use columnar::Value;

    fn events_schema() -> CubeSchema {
        CubeSchema::new(
            "events",
            vec![
                Dimension::string("region", 8, 2),
                Dimension::int("day", 16, 4),
            ],
            vec![Metric::int("likes"), Metric::float("score")],
        )
        .unwrap()
    }

    fn engine() -> Engine {
        let engine = Engine::new(4);
        engine.create_cube(events_schema()).unwrap();
        engine
    }

    fn row(region: &str, day: i64, likes: i64, score: f64) -> Row {
        vec![
            Value::from(region),
            Value::from(day),
            Value::from(likes),
            Value::from(score),
        ]
    }

    fn sum_likes(engine: &Engine, mode: IsolationMode) -> f64 {
        engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                mode,
            )
            .unwrap()
            .scalar()
            .unwrap_or(0.0)
    }

    #[test]
    fn load_then_query_roundtrip() {
        let engine = engine();
        let outcome = engine
            .load(
                "events",
                &[
                    row("us", 0, 10, 1.0),
                    row("br", 1, 20, 2.0),
                    row("us", 9, 30, 3.0),
                ],
                0,
            )
            .unwrap();
        assert_eq!(outcome.accepted, 3);
        assert_eq!(outcome.rejected, 0);
        assert!(outcome.bricks_touched >= 2);
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 60.0);
    }

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
    fn uncommitted_txn_invisible_to_si_visible_to_ru() {
        let engine = engine();
        engine.load("events", &[row("us", 0, 5, 0.0)], 0).unwrap();
        let txn = engine.begin();
        engine
            .append("events", &[row("br", 1, 100, 0.0)], &txn)
            .unwrap();
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 5.0);
        assert_eq!(sum_likes(&engine, IsolationMode::ReadUncommitted), 105.0);
        // The transaction itself sees its own append.
        let own = engine
            .query_in_txn(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                &txn,
            )
            .unwrap();
        assert_eq!(own.scalar(), Some(105.0));
        engine.commit(&txn).unwrap();
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 105.0);
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
    fn delete_everything_then_purge_reclaims() {
        let engine = engine();
        engine
            .load(
                "events",
                &(0..100)
                    .map(|i| row("us", i % 16, i, 0.0))
                    .collect::<Vec<_>>(),
                0,
            )
            .unwrap();
        let (_, marked) = engine.delete_where("events", &[]).unwrap();
        assert!(marked >= 1);
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 0.0);
        let before = engine.memory();
        assert_eq!(before.rows, 100);
        let stats = engine.advance_lse_and_purge();
        assert_eq!(stats.rows_purged, 100);
        let after = engine.memory();
        assert_eq!(after.rows, 0);
    }

    #[test]
    fn purge_compacts_epoch_history() {
        let engine = engine();
        for i in 0..50 {
            engine
                .load("events", &[row("us", i % 16, i, 0.0)], 0)
                .unwrap();
        }
        let before = engine.memory();
        let stats = engine.advance_lse_and_purge();
        assert!(stats.entries_reclaimed > 0);
        let after = engine.memory();
        assert!(after.aosi_bytes <= before.aosi_bytes);
        assert_eq!(after.rows, 50);
        assert_eq!(
            sum_likes(&engine, IsolationMode::Snapshot),
            (0..50).sum::<i64>() as f64
        );
    }

    #[test]
    fn memory_reports_baseline_comparison() {
        let engine = engine();
        engine
            .load(
                "events",
                &(0..1000)
                    .map(|i| row("us", i % 16, i, 0.5))
                    .collect::<Vec<_>>(),
                0,
            )
            .unwrap();
        let m = engine.memory();
        assert_eq!(m.rows, 1000);
        assert_eq!(m.mvcc_baseline_bytes, 16_000);
        assert!(m.aosi_bytes < m.mvcc_baseline_bytes as usize);
        assert!(m.data_bytes > 0);
        assert!(m.dictionary_bytes > 0);
    }

    #[test]
    fn grouped_filtered_query_end_to_end() {
        let engine = engine();
        engine
            .load(
                "events",
                &[
                    row("us", 0, 10, 1.0),
                    row("us", 5, 20, 2.0),
                    row("br", 0, 40, 4.0),
                    row("mx", 0, 80, 8.0),
                ],
                0,
            )
            .unwrap();
        let result = engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
                    .filter(DimFilter::new(
                        "region",
                        vec![Value::from("us"), Value::from("br")],
                    ))
                    .grouped_by("region"),
                IsolationMode::Snapshot,
            )
            .unwrap();
        assert_eq!(result.rows.len(), 2);
        let by_key: std::collections::HashMap<String, f64> = result
            .rows
            .iter()
            .map(|(k, v)| (k[0].to_string(), v[0]))
            .collect();
        assert_eq!(by_key["us"], 30.0);
        assert_eq!(by_key["br"], 40.0);
    }

    #[test]
    fn unknown_cube_errors() {
        let engine = engine();
        assert!(matches!(
            engine.load("nope", &[], 0),
            Err(CubrickError::UnknownCube(_))
        ));
        assert!(matches!(
            engine.query("nope", &Query::default(), IsolationMode::Snapshot),
            Err(CubrickError::UnknownCube(_))
        ));
        assert!(matches!(
            engine.create_cube(
                CubeSchema::new("events", vec![Dimension::int("d", 2, 1)], vec![]).unwrap()
            ),
            Err(CubrickError::CubeExists(_))
        ));
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

    #[test]
    fn time_travel_reads_historical_snapshots() {
        let engine = engine();
        engine.load("events", &[row("us", 0, 10, 0.0)], 0).unwrap(); // T1
        engine.load("events", &[row("us", 1, 20, 0.0)], 0).unwrap(); // T2
        engine.delete_where("events", &[]).unwrap(); // T3
        engine.load("events", &[row("us", 2, 40, 0.0)], 0).unwrap(); // T4

        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let at = |epoch| {
            engine
                .query_as_of("events", &q, epoch)
                .unwrap()
                .scalar()
                .unwrap_or(0.0)
        };
        assert_eq!(at(1), 10.0);
        assert_eq!(at(2), 30.0);
        assert_eq!(at(3), 0.0, "the delete is visible at its own epoch");
        assert_eq!(at(4), 40.0);

        // Out of window: above LCE or below LSE.
        assert!(matches!(
            engine.query_as_of("events", &q, 99),
            Err(CubrickError::EpochOutOfRange { .. })
        ));
        engine.manager().advance_lse(3).unwrap();
        engine.purge();
        assert!(matches!(
            engine.query_as_of("events", &q, 2),
            Err(CubrickError::EpochOutOfRange { .. })
        ));
        assert_eq!(at(4), 40.0, "window floor moved, newest still readable");
    }

    #[test]
    fn time_travel_read_blocks_purge_past_it() {
        let engine = engine();
        engine.load("events", &[row("us", 0, 1, 0.0)], 0).unwrap();
        engine.load("events", &[row("us", 1, 2, 0.0)], 0).unwrap();
        // Hold a guard at epoch 1 (simulating a long historical scan).
        let guard = engine
            .manager()
            .guard_snapshot(aosi::Snapshot::committed(1));
        assert!(engine.manager().advance_lse(2).is_err());
        drop(guard);
        engine.manager().advance_lse(2).unwrap();
    }

    #[test]
    fn query_as_of_guards_before_validating() {
        // Regression: query_as_of used to validate the epoch window
        // first and register the read guard after, leaving a window
        // where a concurrent advance_lse + purge could compact
        // history under an already-validated epoch. Race historical
        // reads against a writer marching LSE forward: every read
        // must either fail the window check or see exactly its
        // epoch's data.
        use std::sync::Arc;
        let engine = Arc::new(engine());
        for i in 0..60i64 {
            engine
                .load("events", &[row("us", i % 16, 1, 0.0)], 0)
                .unwrap();
        }
        let writer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for e in 1..=60 {
                    if engine.manager().advance_lse(e).is_ok() {
                        engine.purge();
                    }
                }
            })
        };
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let mut ok_reads = 0u32;
        for e in (1..=60u64).rev().chain(1..=60) {
            match engine.query_as_of("events", &q, e) {
                Ok(result) => {
                    ok_reads += 1;
                    assert_eq!(
                        result.scalar().unwrap_or(0.0),
                        e as f64,
                        "as-of epoch {e} must see exactly the first {e} loads"
                    );
                }
                Err(CubrickError::EpochOutOfRange { .. }) => {}
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        writer.join().unwrap();
        assert!(ok_reads > 0, "some historical reads must land");
        // The window floor moved, but the newest epoch stays readable.
        let newest = engine.query_as_of("events", &q, 60).unwrap();
        assert_eq!(newest.scalar(), Some(60.0));
    }

    #[test]
    fn query_results_carry_populated_stats() {
        let engine = engine();
        engine
            .load(
                "events",
                &[
                    row("us", 0, 10, 1.0),
                    row("br", 5, 20, 2.0),
                    row("us", 9, 30, 3.0),
                ],
                0,
            )
            .unwrap();
        // The default kernel walks the visible ranges of every brick,
        // filtered or not: no bitmap is built.
        let unfiltered = engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")]),
                IsolationMode::Snapshot,
            )
            .unwrap();
        assert!(unfiltered.stats.bricks_scanned >= 2);
        assert_eq!(
            unfiltered.stats.range_scans,
            unfiltered.stats.bricks_scanned
        );
        assert_eq!(unfiltered.stats.bitmap_scans, 0);
        assert_eq!(unfiltered.stats.rows_visible, 3);
        let filtered = engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
                    .filter(DimFilter::new("region", vec![Value::from("us")])),
                IsolationMode::Snapshot,
            )
            .unwrap();
        assert_eq!(filtered.stats.range_scans, filtered.stats.bricks_scanned);
        assert_eq!(filtered.stats.bitmap_scans, 0);
        assert!(
            filtered.stats.visibility_build_nanos + filtered.stats.scan_nanos > 0,
            "wall time must be recorded"
        );
        assert!(
            filtered.stats.scan_time() + filtered.stats.visibility_build_time() > Duration::ZERO
        );
    }

    #[test]
    fn metrics_report_covers_all_sections() {
        let engine = engine();
        engine.load("events", &[row("us", 0, 1, 0.0)], 0).unwrap();
        engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")]),
                IsolationMode::Snapshot,
            )
            .unwrap();
        engine.advance_lse_and_purge();
        let report = engine.metrics_report();
        for needle in [
            "[aosi]",
            "[engine]",
            "[shards]",
            "loads = 1",
            "flushes = 1",
            "queries = 1",
            "purges = 1",
            "query_nanos.count = 1",
            "load_nanos.count = 1",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn concurrent_loads_and_queries() {
        use std::sync::Arc;
        let engine = Arc::new(engine());
        let mut handles = Vec::new();
        for client in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    engine
                        .load("events", &[row("us", (client * 50 + i) % 16, 1, 0.0)], 0)
                        .unwrap();
                }
            }));
        }
        let reader = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let v = sum_likes(&engine, IsolationMode::Snapshot);
                    assert!((0.0..=200.0).contains(&v));
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 200.0);
    }

    /// Byte-identical comparison of two query results (f64 compared
    /// through `to_bits` so NaN/−0.0 differences cannot hide).
    fn assert_rows_identical(a: &QueryResult, b: &QueryResult) {
        assert_eq!(a.rows.len(), b.rows.len(), "row count differs");
        for ((ka, va), (kb, vb)) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ka, kb, "group keys differ");
            let va: Vec<u64> = va.iter().map(|v| v.to_bits()).collect();
            let vb: Vec<u64> = vb.iter().map(|v| v.to_bits()).collect();
            assert_eq!(va, vb, "aggregate bytes differ");
        }
    }

    fn spread_load(engine: &Engine) {
        // Rows landing in several bricks on every shard, with repeats
        // so epochs vectors grow.
        for round in 0..4 {
            let rows: Vec<Row> = (0..16)
                .map(|i| row(["us", "br", "mx", "de"][i % 4], i as i64, i as i64, 0.5))
                .collect();
            engine.load("events", &rows, 0).unwrap();
            let _ = round;
        }
    }

    #[test]
    fn memoized_path_matches_sequential_reference_byte_for_byte() {
        let engine = engine();
        spread_load(&engine);
        let snapshot = Snapshot::committed(engine.manager().lce());
        let queries = vec![
            Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "likes"),
                Aggregation::new(AggFn::Avg, "score"),
            ]),
            Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
                .filter(DimFilter::new(
                    "region",
                    vec![Value::from("us"), Value::from("mx")],
                ))
                .grouped_by("region"),
            Query::aggregate(vec![
                Aggregation::new(AggFn::Min, "likes"),
                Aggregation::new(AggFn::Max, "likes"),
            ])
            .grouped_by("day"),
        ];
        for query in &queries {
            let fast = engine.query_at("events", query, &snapshot).unwrap();
            let reference = engine
                .query_at_reference("events", query, &snapshot)
                .unwrap();
            assert!(fast.stats.parallel_tasks > 0, "parallel path not taken");
            assert_eq!(reference.stats.parallel_tasks, 0);
            assert_rows_identical(&fast, &reference);
            // The second sighting stores each shard's answer; the
            // third is served from the memo, still identical.
            engine.query_at("events", query, &snapshot).unwrap();
            let warm = engine.query_at("events", query, &snapshot).unwrap();
            assert!(
                warm.stats.agg_cache_hits > 0,
                "third sighting should hit the memo"
            );
            assert_rows_identical(&warm, &reference);
        }
    }

    /// The engine-wide memo `(hits, misses)`, summed over the shards.
    fn memo_lookups(engine: &Engine) -> (u64, u64) {
        let stats = engine.agg_cache_stats().unwrap();
        (stats.hits, stats.misses)
    }

    /// A key is stored on its shard's second sighting and served on
    /// the third: no brick scanned, the data counters replayed exactly,
    /// no wall time, one task per shard all the same.
    #[test]
    fn the_memo_admits_on_the_second_sighting_and_replays_the_data_counters() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .filter(DimFilter::new("region", vec![Value::from("us")]))
            .grouped_by("day");
        let snapshot = Snapshot::committed(engine.manager().lce());
        let first = engine.query_at("events", &query, &snapshot).unwrap();
        assert_eq!(first.stats.agg_cache_hits, 0);
        assert!(first.stats.agg_cache_misses > 0);
        assert_eq!(engine.agg_cache_stats().unwrap().entries, 0, "one sighting");
        let second = engine.query_at("events", &query, &snapshot).unwrap();
        assert_eq!(second.stats.agg_cache_hits, 0);
        assert_eq!(engine.agg_cache_stats().unwrap().entries, 4, "every shard");

        let hit = engine.query_at("events", &query, &snapshot).unwrap();
        assert_eq!(hit.stats.agg_cache_misses, 0);
        assert_eq!(hit.stats.agg_cache_hits, first.stats.agg_cache_misses);
        assert_rows_identical(&hit, &first);
        let data = |s: &crate::query::QueryStats| {
            (
                s.bricks_scanned,
                s.bricks_pruned,
                s.rows_scanned,
                s.rows_visible,
                s.range_scans,
                s.bitmap_scans,
                s.parallel_tasks,
            )
        };
        assert_eq!(data(&hit.stats), data(&first.stats));
        assert_eq!(hit.stats.visibility_build_nanos + hit.stats.scan_nanos, 0);
        assert_rows_identical(
            &hit,
            &engine
                .query_at_reference("events", &query, &snapshot)
                .unwrap(),
        );
    }

    /// Only merged, overlapped, unrouted scans at a settled snapshot
    /// use the memo: RU, a transaction's own snapshot, an epoch above
    /// the LCE, the reference, the per-brick partials, a replica
    /// filter and an injected panic all read bricks, however often
    /// they repeat.
    #[test]
    fn ineligible_scans_never_consult_the_memo() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let lce = engine.manager().lce();
        let settled = Snapshot::committed(lce);
        let txn = engine.begin();
        engine
            .append("events", &[row("us", 0, 100, 0.0)], &txn)
            .unwrap();
        let cube = engine.cube("events").unwrap();
        let resolved = ResolvedQuery::resolve(&cube, &query).unwrap();
        let allow_all: BrickFilter = Arc::new(|_| true);
        let before = memo_lookups(&engine);
        for _ in 0..3 {
            engine
                .query("events", &query, IsolationMode::ReadUncommitted)
                .unwrap();
            let own = engine.query_in_txn("events", &query, &txn).unwrap();
            assert_eq!(own.scalar(), Some(100.0 + 4.0 * 120.0));
            engine
                .query_at("events", &query, &Snapshot::committed(lce + 1))
                .unwrap();
            engine
                .query_at_reference("events", &query, &settled)
                .unwrap();
            engine
                .query_brick_partials("events", &query, &settled)
                .unwrap();
            engine
                .execute_partial_filtered(
                    &cube,
                    &resolved,
                    Some(settled.clone()),
                    Arc::clone(&allow_all),
                )
                .unwrap();
        }
        engine.inject_scan_panic_for_test(u64::MAX);
        for _ in 0..3 {
            engine.query_at("events", &query, &settled).unwrap();
        }
        assert_eq!(memo_lookups(&engine), before, "no lookup at all");
        engine.clear_scan_panics_for_test();

        let sequential = Engine::new(4).with_scan_config(ScanConfig {
            sequential: true,
            ..ScanConfig::default()
        });
        sequential.create_cube(events_schema()).unwrap();
        spread_load(&sequential);
        let settled = Snapshot::committed(sequential.manager().lce());
        for _ in 0..3 {
            sequential.query_at("events", &query, &settled).unwrap();
        }
        assert_eq!(memo_lookups(&sequential), (0, 0));
        engine.rollback(&txn).unwrap();
    }

    /// Large answers overflow the per-shard budget: FIFO eviction keeps
    /// the charge under it, and the running charge always equals a
    /// from-scratch walk of the entries.
    #[test]
    fn the_memo_stays_under_its_budget_and_its_charge_matches_a_walk() {
        let engine = Engine::new(1);
        engine
            .create_cube(
                CubeSchema::new(
                    "wide",
                    vec![Dimension::int("a", 1024, 1024), Dimension::int("b", 4, 4)],
                    vec![Metric::int("m")],
                )
                .unwrap(),
            )
            .unwrap();
        let rows: Vec<Row> = (0..4096i64)
            .map(|i| vec![Value::from(i % 1024), Value::from(i / 1024), Value::from(i)])
            .collect();
        for _ in 0..8 {
            engine.load("wide", &rows, 0).unwrap();
        }
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "m")])
            .grouped_by("a")
            .grouped_by("b");
        for epoch in 1..=engine.manager().lce() {
            let snapshot = Snapshot::committed(epoch);
            for _ in 0..2 {
                let result = engine.query_at("wide", &query, &snapshot).unwrap();
                assert_eq!(result.rows.len(), 4096);
            }
            let memo = engine.memos.shard(0);
            assert!(memo.bytes() <= crate::memo::BUDGET_BYTES);
            assert_eq!(memo.bytes(), memo.walked_bytes(), "at epoch {epoch}");
        }
        let stats = engine.agg_cache_stats().unwrap();
        assert!(
            stats.evictions > 0,
            "8 answers of 4096 groups overflow 1 MiB"
        );
        assert!(stats.entries > 0);
        // The newest answer survived eviction and still replays.
        let newest = Snapshot::committed(engine.manager().lce());
        let hit = engine.query_at("wide", &query, &newest).unwrap();
        assert_eq!(hit.stats.agg_cache_hits, 1);
        assert_rows_identical(
            &hit,
            &engine.query_at_reference("wide", &query, &newest).unwrap(),
        );
    }

    /// Queries `query` at `snapshot` until the memo serves it, and
    /// returns the served answer.
    fn memoize(engine: &Engine, query: &Query, snapshot: &Snapshot) -> QueryResult {
        for _ in 0..2 {
            engine.query_at("events", query, snapshot).unwrap();
        }
        let hit = engine.query_at("events", query, snapshot).unwrap();
        assert!(hit.stats.agg_cache_hits > 0, "third sighting hits");
        hit
    }

    /// Every path that takes bricks away wholesale or writes rows under
    /// old epochs clears the shard's entries for the cube, so the next
    /// query at the same settled snapshot sees the change.
    #[test]
    fn wholesale_removals_and_old_epoch_writes_are_seen_by_the_next_query() {
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let sum_at = |engine: &Engine, snapshot: &Snapshot| {
            let fresh = engine.query_at("events", &query, snapshot).unwrap();
            let reference = engine
                .query_at_reference("events", &query, snapshot)
                .unwrap();
            assert_rows_identical(&fresh, &reference);
            fresh.scalar().unwrap_or(0.0)
        };

        // drop_cube, then create_cube under the same name.
        let dropped = engine();
        spread_load(&dropped);
        let snapshot = Snapshot::committed(dropped.manager().lce());
        assert_eq!(memoize(&dropped, &query, &snapshot).scalar(), Some(480.0));
        dropped.drop_cube("events").unwrap();
        dropped.create_cube(events_schema()).unwrap();
        assert_eq!(sum_at(&dropped, &snapshot), 0.0, "the old rows are gone");

        // remove_brick.
        let removed = engine();
        spread_load(&removed);
        let snapshot = Snapshot::committed(removed.manager().lce());
        memoize(&removed, &query, &snapshot);
        assert!(removed.remove_brick("events", removed.brick_bids("events")[0]));
        assert!(sum_at(&removed, &snapshot) < 480.0);

        // A handoff install and a recovery import, each writing a run
        // under an epoch the snapshot sees (epoch 5 touched only the
        // brick holding day 15, so the install does not dedup it away).
        let written = engine();
        spread_load(&written);
        written.load("events", &[row("de", 15, 0, 0.0)], 0).unwrap();
        let snapshot = Snapshot::committed(written.manager().lce());
        let cube = written.cube("events").unwrap();
        let batch = parse_rows(
            cube.schema(),
            cube.layout(),
            cube.dictionaries(),
            &[row("us", 0, 1000, 0.0)],
        );
        let (&bid, chunk) = batch.by_bid.iter().next().unwrap();
        let run = || crate::persist::DeltaRun::Insert {
            epoch: snapshot.epoch(),
            records: chunk.clone(),
        };
        assert_eq!(memoize(&written, &query, &snapshot).scalar(), Some(480.0));
        written.install_brick_runs(&cube, bid, vec![run()]).unwrap();
        assert_eq!(sum_at(&written, &snapshot), 1480.0);
        assert_eq!(memoize(&written, &query, &snapshot).scalar(), Some(1480.0));
        written.import_delta(vec![crate::persist::BrickDelta {
            cube: "events".into(),
            bid,
            runs: vec![run()],
        }]);
        assert_eq!(sum_at(&written, &snapshot), 2480.0);
        assert!(written.agg_cache_stats().unwrap().invalidations > 0);
    }

    /// Appends, partition deletes and commits leave settled answers in
    /// place: the old snapshot keeps hitting, identically, and nothing
    /// is invalidated.
    #[test]
    fn writes_under_new_epochs_leave_memoized_answers_in_place() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .filter(DimFilter::new("region", vec![Value::from("us")]));
        let snapshot = Snapshot::committed(engine.manager().lce());
        let memoized = memoize(&engine, &query, &snapshot);
        engine.load("events", &[row("us", 0, 1, 0.0)], 0).unwrap();
        engine.delete_where("events", &[]).unwrap();
        let replay = engine.query_at("events", &query, &snapshot).unwrap();
        assert!(replay.stats.agg_cache_hits > 0);
        assert_eq!(replay.stats.agg_cache_misses, 0);
        assert_rows_identical(&replay, &memoized);
        assert_eq!(engine.agg_cache_stats().unwrap().invalidations, 0);
        // The new snapshot is a new key.
        let fresh = Snapshot::committed(engine.manager().lce());
        let now = engine.query_at("events", &query, &fresh).unwrap();
        assert_eq!(now.stats.agg_cache_hits, 0);
        assert_eq!(now.scalar(), None, "deleted everything");
        let report = engine.metrics_report();
        assert!(report.contains("[engine.memo]"), "{report}");
    }

    /// Purge drops exactly the entries no reader at or above the new
    /// LSE can ask for.
    #[test]
    fn purge_expires_memoized_answers_below_the_lse() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")]);
        let lce = engine.manager().lce();
        for epoch in 1..=lce {
            memoize(&engine, &query, &Snapshot::committed(epoch));
        }
        let before = engine.agg_cache_stats().unwrap();
        assert_eq!(before.entries, 4 * lce as usize);
        engine.manager().advance_lse(lce - 1).unwrap();
        engine.purge();
        let after = engine.agg_cache_stats().unwrap();
        assert_eq!(after.entries, 4 * 2, "epochs lce - 1 and lce stay");
        assert_eq!(after.evictions - before.evictions, 4 * (lce - 2));
        assert_eq!(after.invalidations, 0);
        for epoch in [lce - 1, lce] {
            let kept = engine
                .query_at("events", &query, &Snapshot::committed(epoch))
                .unwrap();
            assert!(kept.stats.agg_cache_hits > 0, "epoch {epoch} kept");
        }
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
            .query_as_of(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                lce,
            )
            .unwrap();
        assert_eq!(sum.scalar(), Some(480.0 + 7.0), "no row of T1");
    }

    #[test]
    fn sequential_mode_joins_shards_one_at_a_time() {
        let engine = engine().with_scan_config(ScanConfig {
            sequential: true,
            ..ScanConfig::default()
        });
        spread_load(&engine);
        let result = engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                IsolationMode::Snapshot,
            )
            .unwrap();
        assert_eq!(result.stats.parallel_tasks, 0);
        let report = engine.metrics_report();
        assert!(report.contains("sequential_queries = 1"), "{report}");
    }

    #[test]
    fn panicking_scan_task_fails_the_query_with_a_typed_error() {
        let engine = engine();
        spread_load(&engine);
        // The bid space for this schema is tiny; poisoning every
        // possible bid guarantees at least one live brick's task
        // panics without reaching into brick-map internals.
        for bid in 0..64 {
            engine.inject_scan_panic_for_test(bid);
        }
        let err = engine
            .query(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                IsolationMode::Snapshot,
            )
            .unwrap_err();
        match err {
            CubrickError::ScanTaskPanicked { cube, bid } => {
                assert_eq!(cube, "events");
                assert!(bid.is_some(), "parallel path attributes the brick");
            }
            other => panic!("expected ScanTaskPanicked, got {other:?}"),
        }
        // The shard threads survive the panic: clearing the injection
        // makes the very same engine answer correctly again.
        engine.clear_scan_panics_for_test();
        let sum = sum_likes(&engine, IsolationMode::Snapshot);
        assert_eq!(sum, 4.0 * (0..16).sum::<i64>() as f64);
    }

    /// Regression: the reference path (and the per-brick-partials
    /// path) used to let a brick panic unwind the whole shard task,
    /// reporting `bid: None` — or, for `query_brick_partials`, to
    /// ignore the injection altogether.
    #[test]
    fn reference_path_attributes_the_panicking_brick() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let snapshot = Snapshot::committed(engine.manager().lce());
        let bids = engine.brick_bids("events");
        let poisoned = *bids.last().unwrap();
        engine.inject_scan_panic_for_test(poisoned);
        let reference = engine.query_at_reference("events", &query, &snapshot);
        let partials = engine
            .query_brick_partials("events", &query, &snapshot)
            .map(|_| ());
        for err in [reference.map(|_| ()).unwrap_err(), partials.unwrap_err()] {
            match err {
                CubrickError::ScanTaskPanicked { cube, bid } => {
                    assert_eq!(cube, "events");
                    assert_eq!(bid, Some(poisoned));
                }
                other => panic!("expected ScanTaskPanicked, got {other:?}"),
            }
        }
        // The brick's panic never reached the pool: no shard task
        // unwound, and the same engine answers again once cleared.
        assert_eq!(engine.shards().panics_caught(), 0);
        engine.clear_scan_panics_for_test();
        let healed = engine
            .query_at_reference("events", &query, &snapshot)
            .unwrap();
        assert_eq!(healed.scalar(), Some(4.0 * (0..16).sum::<i64>() as f64));
    }

    #[test]
    fn corrupted_memo_entry_is_observable() {
        // The corruption hook exists so the oracle can prove a stale
        // or bit-flipped memoized answer would be *caught* by the
        // reference diff — if corruption were invisible here, that
        // meta-test would be vacuous.
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let snapshot = Snapshot::committed(engine.manager().lce());
        let honest = memoize(&engine, &query, &snapshot);
        engine.corrupt_memo_for_test();
        let poisoned = engine.query_at("events", &query, &snapshot).unwrap();
        assert!(poisoned.stats.agg_cache_hits > 0, "must replay the memo");
        assert_ne!(
            poisoned.rows[0].1[0], honest.rows[0].1[0],
            "corrupted partial must change the answer"
        );
        let reference = engine
            .query_at_reference("events", &query, &snapshot)
            .unwrap();
        assert_eq!(reference.rows[0].1[0], honest.rows[0].1[0]);
    }

    #[test]
    fn brick_partials_roundtrip_through_finalize() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Avg, "score"),
        ])
        .grouped_by("region");
        let snapshot = Snapshot::committed(engine.manager().lce());
        let direct = engine.query_at("events", &query, &snapshot).unwrap();
        let partials = engine
            .query_brick_partials("events", &query, &snapshot)
            .unwrap();
        assert!(partials.len() > 1, "load must spread across bricks");
        // Forward order reproduces the query; so does reverse — the
        // merge is commutative on this workload's exact arithmetic.
        let forward = engine
            .finalize_partials("events", &query, partials.clone())
            .unwrap();
        assert_rows_identical(&forward, &direct);
        let backward = engine
            .finalize_partials("events", &query, partials.into_iter().rev())
            .unwrap();
        assert_rows_identical(&backward, &direct);
    }

    #[test]
    fn progressive_refinements_end_at_the_complete_result() {
        let engine = engine();
        spread_load(&engine);
        let query =
            Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]).grouped_by("region");
        let snapshot = Snapshot::committed(engine.manager().lce());
        let reference = engine
            .query_at_reference("events", &query, &snapshot)
            .unwrap();
        // Cold, admitted, then answered by the memo: one refinement per
        // shard with bricks every time.
        let mut counts = Vec::new();
        for _ in 0..3 {
            let mut refinements: Vec<QueryResult> = Vec::new();
            let complete = engine
                .query_at_with_progress("events", &query, &snapshot, |r| refinements.push(r))
                .unwrap();
            assert!(!refinements.is_empty(), "at least one refinement lands");
            // Refinements only grow (each merge folds more bricks in)
            // and the last one is exactly the complete result.
            for pair in refinements.windows(2) {
                assert!(pair[0].stats.bricks_scanned <= pair[1].stats.bricks_scanned);
            }
            let last = refinements.last().unwrap();
            assert_rows_identical(last, &complete);
            assert_eq!(last.stats.bricks_scanned, complete.stats.bricks_scanned);
            assert_rows_identical(&complete, &reference);
            counts.push((refinements.len(), complete.stats.agg_cache_hits));
        }
        assert_eq!(counts[2].0, counts[0].0);
        assert_eq!(counts[2].1 as usize, counts[2].0, "every shard hit");
    }

    // ---------------------------------------------------------------
    // Cold-tier integration (the tier's own registry mechanics are
    // unit-tested in `crate::tier`; these drive eviction and reload
    // through the engine's public surface).
    // ---------------------------------------------------------------

    fn tiered_engine(budget_bytes: usize) -> Engine {
        let engine = Engine::new(4)
            .with_tiered_storage(Box::new(crate::tier::MemStore::new()), budget_bytes);
        engine.create_cube(events_schema()).unwrap();
        engine
    }

    #[test]
    fn evicted_bricks_answer_queries_bit_identically() {
        let tiered = tiered_engine(1); // evict every clean brick
        let plain = engine();
        spread_load(&tiered);
        spread_load(&plain);
        tiered.advance_lse_and_purge();
        plain.advance_lse_and_purge();
        let stats = tiered.tier_stats().unwrap();
        assert!(stats.spills > 0, "a 1-byte budget must evict");
        assert!(stats.spilled_bricks > 0);
        let snapshot = Snapshot::committed(tiered.manager().lce());
        let queries = vec![
            Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "likes"),
                Aggregation::new(AggFn::Avg, "score"),
            ]),
            Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
                .filter(DimFilter::new(
                    "region",
                    vec![Value::from("us"), Value::from("mx")],
                ))
                .grouped_by("region"),
            Query::aggregate(vec![Aggregation::new(AggFn::Max, "likes")]).grouped_by("day"),
        ];
        for query in &queries {
            let cold = tiered.query_at("events", query, &snapshot).unwrap();
            let warm = plain.query_at("events", query, &snapshot).unwrap();
            assert_rows_identical(&cold, &warm);
        }
        assert!(
            tiered.tier_stats().unwrap().reloads > 0,
            "scans faulted the evicted bricks back in"
        );
    }

    /// Regression: `query_brick_partials` used to discard the
    /// fault-in accounting, so a reloaded brick reported 0 reloads.
    #[test]
    fn brick_partials_account_for_tier_reloads() {
        let tiered = tiered_engine(1); // evict every clean brick
        let plain = engine();
        spread_load(&tiered);
        spread_load(&plain);
        // LSE advance without a purge on either side: the evicted and
        // the resident bricks keep identical epochs vectors.
        for e in [&tiered, &plain] {
            e.manager().advance_lse(e.manager().lce()).unwrap();
        }
        let evicted = tiered.enforce_tier_budget().evicted;
        assert_eq!(evicted, tiered.brick_bids("events").len() as u64);
        let query = Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Avg, "score"),
        ])
        .grouped_by("region");
        let snapshot = Snapshot::committed(tiered.manager().lce());
        let partials = tiered
            .query_brick_partials("events", &query, &snapshot)
            .unwrap();
        let reloads: u64 = partials.iter().map(|p| p.stats.tier_reloads).sum();
        assert_eq!(reloads, evicted);
        let finalized = tiered
            .finalize_partials("events", &query, partials)
            .unwrap();
        let direct = plain.query_at("events", &query, &snapshot).unwrap();
        assert_rows_identical(&finalized, &direct);
    }

    #[test]
    fn a_write_faults_the_spilled_brick_back_in() {
        let engine = tiered_engine(1);
        engine.load("events", &[row("us", 0, 10, 1.0)], 0).unwrap();
        engine.advance_lse_and_purge();
        assert!(engine.tier_stats().unwrap().spilled_bricks >= 1);
        // Appending into a fresh empty brick would shadow the spilled
        // rows: the load must reload first, then land on top.
        engine.load("events", &[row("us", 0, 5, 1.0)], 0).unwrap();
        let stats = engine.tier_stats().unwrap();
        assert!(stats.reloads >= 1, "the append faulted the brick in");
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 15.0);
    }

    #[test]
    fn a_memo_hit_answers_for_spilled_bricks_without_touching_the_store() {
        let engine = tiered_engine(1);
        spread_load(&engine);
        let query =
            Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]).grouped_by("region");
        let snapshot = Snapshot::committed(engine.manager().lce());
        let warm = memoize(&engine, &query, &snapshot);
        // The purge at the new LSE keeps the answer: its snapshot is
        // still readable.
        engine.advance_lse_and_purge();
        let before = engine.tier_stats().unwrap();
        assert!(before.spilled_bricks > 0);
        let cold = engine.query_at("events", &query, &snapshot).unwrap();
        assert_rows_identical(&cold, &warm);
        assert_eq!(cold.stats.agg_cache_misses, 0, "every shard hit");
        assert_eq!(cold.stats.tier_reloads, 0);
        let after = engine.tier_stats().unwrap();
        assert_eq!(
            (after.reloads, after.reload_failures, after.spilled_bricks),
            (
                before.reloads,
                before.reload_failures,
                before.spilled_bricks
            ),
            "a memo hit must not read the store"
        );
    }

    #[test]
    fn dirty_bricks_stay_resident_until_the_lse_catches_up() {
        let engine = tiered_engine(1);
        spread_load(&engine);
        // Everything committed is newer than the LSE (0): nothing is
        // clean-cold, nothing may spill — the WAL does not hold these
        // rows yet.
        let sweep = engine.enforce_tier_budget();
        assert_eq!(sweep.evicted, 0);
        assert_eq!(engine.tier_stats().unwrap().spilled_bricks, 0);
        engine.advance_lse_and_purge();
        assert!(engine.tier_stats().unwrap().spilled_bricks > 0);
    }

    #[test]
    fn enforcement_stops_at_the_budget() {
        // Measure the workload's resident footprint on a throwaway
        // engine, then give the real one half that.
        let probe = tiered_engine(usize::MAX);
        spread_load(&probe);
        let total = probe.enforce_tier_budget().resident_bytes_before;
        assert!(total > 0);

        let engine = tiered_engine((total / 2) as usize);
        spread_load(&engine);
        engine.advance_lse_and_purge();
        let stats = engine.tier_stats().unwrap();
        assert!(stats.spilled_bricks > 0, "over budget: must evict");
        assert!(
            stats.resident_bytes <= total / 2,
            "resident {} exceeds the budget {}",
            stats.resident_bytes,
            total / 2
        );
        assert!(
            stats.resident_bytes > 0,
            "half the footprint should keep the warmer half resident"
        );
    }
}
