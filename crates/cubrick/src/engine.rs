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
//! * **Query**: one path, [`Engine::read`]. Pick a snapshot ([`At`]:
//!   the LCE, the caller's RW transaction, an epoch in the readable
//!   window, or one the caller already guards), register it as an
//!   active reader so purge cannot pull rows out from under the scan,
//!   fan out over shards, merge partial aggregates. [`At::Uncommitted`]
//!   skips the snapshot and scans every stored row — the paper's
//!   Figure 8/9 comparison point.
//! * **Delete**: partition-level only. A brick is deleted when its
//!   entire coordinate range is contained in the predicate, so a
//!   delete never removes rows outside the predicate (predicates must
//!   align with partition ranges, the paper's retention use case).
//! * **Purge / rollback**: shard-local rebuilds driven by the
//!   protocol-level `purge`/`rollback` results.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use aosi::{CacheStats, Epoch, ReadGuard, Snapshot, Txn, TxnManager, TxnPartitionIndex};
use obs::sync::unpoison;
use obs::{Counter, Histogram, ReportBuilder};

use crate::brick::DimStorage;
use crate::cube::{Cube, CubeMemory};
use crate::ddl::CubeSchema;
use crate::error::CubrickError;
use crate::memo::{MemoKey, ShardMemos};
use crate::query::{PartialResult, Query, QueryResult, ResolvedQuery, ScanKernel};
use crate::scan::{BrickFilter, ScanFailure, ShardScan, ShardScanOutcome};
use crate::shard::{ShardBricks, ShardPool, TaskHandle};
use crate::tier::{BrickStore, TierStats, TieredStore};

/// How the engine runs brick scans (see [`Engine::with_scan_config`]).
/// Every read runs under the engine's configuration, except
/// [`Engine::query_at_reference`], which always runs under
/// [`ScanConfig::sequential_uncached`].
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

/// Which snapshot an [`Engine::read`] sees, and whether the read
/// guards it.
#[derive(Clone, Copy, Debug)]
pub enum At<'a> {
    /// The freshest committed snapshot. The LCE is sampled under the
    /// lock the LSE advance holds, so it is always readable.
    Latest,
    /// No snapshot: every stored row, committed or not (the paper's
    /// "RU" comparison mode, Section VI-B).
    Uncommitted,
    /// An explicit transaction's own snapshot: the read sees the
    /// transaction's uncommitted appends.
    Txn(&'a Txn),
    /// Time travel to the committed snapshot at this epoch, which must
    /// lie in the readable window `[LSE, LCE]`
    /// ([`CubrickError::EpochOutOfRange`] otherwise). AOSI gets this
    /// almost for free: a committed epoch *is* a consistent snapshot
    /// (the LCE rule guarantees everything at or below it finished),
    /// and purge has not yet merged history above the LSE.
    Epoch(Epoch),
    /// A snapshot the caller guards, and the read does not: the server
    /// holds its guard for a whole response. (A cluster read guards it
    /// anyway, on every node it scans.)
    Snapshot(&'a Snapshot),
}

/// What an [`Engine::read`] hands over besides its returned, complete
/// result.
pub enum Deliver<'a> {
    /// Nothing.
    Final,
    /// Each refinement: the merged-so-far result, finalized, after
    /// every shard that had bricks to scan lands at the coordinator,
    /// in the deterministic merge order. The last one equals the
    /// returned result. The server's progressive mode streams these.
    Progress(&'a mut dyn FnMut(QueryResult)),
    /// Every brick partial, ordered by shard then brick id ascending:
    /// the order the merge folds in. [`Engine::finalize_partials`]
    /// completes the query from any partitioning of this list; the
    /// merge oracle checks every other association and order against
    /// the reference.
    BrickPartials(&'a mut Vec<PartialResult>),
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
pub(crate) struct OpCounters {
    pub(crate) loads: Counter,
    pub(crate) rows_loaded: Counter,
    pub(crate) flushes: Counter,
    queries: Counter,
    pub(crate) deletes: Counter,
    pub(crate) purges: Counter,
    pub(crate) rows_purged: Counter,
    pub(crate) entries_reclaimed: Counter,
    pub(crate) rollbacks: Counter,
}

/// Engine-level latency distributions and scan-time totals. All
/// lock-free (see the `obs` crate): recording sits directly on the
/// query and load paths.
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    query_nanos: Histogram,
    pub(crate) load_nanos: Histogram,
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
    pub(crate) manager: TxnManager,
    cubes: RwLock<HashMap<String, Cube>>,
    pub(crate) shards: Arc<ShardPool>,
    pub(crate) dim_storage: DimStorage,
    pub(crate) rollback_index: Option<TxnPartitionIndex>,
    scan_config: ScanConfig,
    /// Each shard's settled-snapshot answers.
    pub(crate) memos: Arc<ShardMemos>,
    /// Cold-tier residency manager, when tiered storage is enabled.
    pub(crate) tier: Option<Arc<TieredStore>>,
    pub(crate) ops: OpCounters,
    pub(crate) metrics: EngineMetrics,
    #[cfg(any(test, feature = "fault-hooks"))]
    pub(crate) faults: crate::fault::FaultHooks,
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
            tier: None,
            ops: OpCounters::default(),
            metrics: EngineMetrics::default(),
            #[cfg(any(test, feature = "fault-hooks"))]
            faults: Default::default(),
        }
    }

    /// Enables tiered storage: cold bricks spill into `store` whenever
    /// resident brick bytes exceed `budget_bytes`, and fault back in
    /// transparently when a scan or mutation touches them. Enforcement
    /// runs after every load/commit and on demand via
    /// [`Engine::enforce_tier_budget`].
    pub fn with_tiered_storage(mut self, store: Box<dyn BrickStore>, budget_bytes: usize) -> Self {
        let tier = Arc::new(TieredStore::new(store, budget_bytes));
        self.shards.map_shards(|_| {
            let tier = Arc::clone(&tier);
            Box::new(move |bricks: &mut ShardBricks| bricks.set_tier(tier))
        });
        self.tier = Some(tier);
        self
    }

    /// Cold-tier statistics, when tiered storage is enabled.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|tier| tier.stats())
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
        self.shards.map_shards(|shard| {
            let name = name.to_owned();
            let memos = Arc::clone(&self.memos);
            Box::new(move |bricks: &mut ShardBricks| {
                bricks.remove_cube(&name);
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

    /// Runs a query under `mode`: [`Engine::read`] at [`At::Latest`]
    /// or [`At::Uncommitted`], final result only.
    pub fn query(
        &self,
        cube: &str,
        query: &Query,
        mode: IsolationMode,
    ) -> Result<QueryResult, CubrickError> {
        let at = match mode {
            IsolationMode::Snapshot => At::Latest,
            IsolationMode::ReadUncommitted => At::Uncommitted,
        };
        self.read(cube, query, at, Deliver::Final)
    }

    /// The read path: resolves `query` against `cube`, takes the one
    /// guard `at` asks for, runs the shard fan-out and hands the
    /// answer over as `deliver` asks. The returned result is always
    /// the complete one.
    pub fn read(
        &self,
        cube: &str,
        query: &Query,
        at: At<'_>,
        deliver: Deliver<'_>,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        // Registered until the scan ends, so the LSE (and purge)
        // cannot pass the snapshot mid-scan.
        let guard = match at {
            At::Latest => Some(self.manager.begin_read()),
            At::Txn(txn) => Some(self.manager.guard_snapshot(txn.snapshot().clone())),
            At::Epoch(epoch) => Some(self.guard_as_of(epoch)?),
            At::Uncommitted | At::Snapshot(_) => None,
        };
        let snapshot = match at {
            At::Snapshot(snapshot) => Some(snapshot.clone()),
            _ => guard.as_ref().map(|guard| guard.snapshot().clone()),
        };
        let config = self.scan_config;
        let merged = self.scan(&cube, &resolved, snapshot, config, None, deliver)?;
        Ok(QueryResult::finalize(&cube, &resolved, merged))
    }

    /// Guards the committed snapshot at `epoch`, then checks it lies
    /// in the readable window `[LSE, LCE]`. Guard registration and the
    /// LSE advance share one lock, so an epoch that passes the check
    /// cannot be purged for the lifetime of the guard. (Checking
    /// first and guarding after left a window where a concurrent
    /// advance_lse + purge could compact history under an
    /// already-validated epoch.)
    fn guard_as_of(&self, epoch: Epoch) -> Result<ReadGuard, CubrickError> {
        let guard = self.manager.guard_snapshot(Snapshot::committed(epoch));
        let (lse, lce) = (self.manager.lse(), self.manager.lce());
        if epoch < lse || epoch > lce {
            return Err(CubrickError::EpochOutOfRange {
                requested: epoch,
                lse,
                lce,
            });
        }
        Ok(guard)
    }

    /// `read(cube, query, At::Snapshot(snapshot), Deliver::Final)`,
    /// kept only for `aosi_bench`, which cannot change in the same
    /// change as the engine. ROADMAP item 1 deletes it.
    #[doc(hidden)]
    pub fn query_at(
        &self,
        cube: &str,
        query: &Query,
        snapshot: &Snapshot,
    ) -> Result<QueryResult, CubrickError> {
        self.read(cube, query, At::Snapshot(snapshot), Deliver::Final)
    }

    /// Differential-testing reference: the same result as
    /// [`Engine::read`] at [`At::Snapshot`], but forced down the
    /// sequential scan path with the row-at-a-time kernel (over
    /// visibility bitmaps) and the snapshot memo bypassed, regardless
    /// of the engine's configuration. The scan-oracle layer compares
    /// the default (parallel + memoized, vectorized over visible
    /// ranges) path against this byte-for-byte. The caller guards
    /// `snapshot`.
    pub fn query_at_reference(
        &self,
        cube: &str,
        query: &Query,
        snapshot: &Snapshot,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.cube(cube)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let config = ScanConfig::sequential_uncached();
        let snapshot = Some(snapshot.clone());
        let merged = self.scan(&cube, &resolved, snapshot, config, None, Deliver::Final)?;
        Ok(QueryResult::finalize(&cube, &resolved, merged))
    }

    /// Merges externally produced brick partials (in the given order,
    /// folding from the identity) and finalizes the query — the other
    /// half of [`Deliver::BrickPartials`]. The merge is associative
    /// and commutative on the workload's exact arithmetic, so any
    /// partitioning of the same brick set finalizes identically;
    /// `oracle::agg` pins that property.
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

    /// The coordinator behind every read: one [`ShardScan`] per shard,
    /// each shard folding its own bricks (ascending bid) into a local
    /// partial, the shard partials merged here in shard order. Every
    /// execution therefore folds the exact same sequence of brick
    /// partials and is byte-identical (aggregate sums over the
    /// workload's integer-valued floats are exact and
    /// order-independent; the deterministic order removes even the
    /// merge-order variable). `config.sequential` only decides whether
    /// the shards overlap. `allowed` restricts the scan to the bricks
    /// the replica router gave this node, so the distributed engine
    /// counts a brick replicated on three hosts exactly once.
    ///
    /// [`Deliver::BrickPartials`] has the shards hand over every brick
    /// partial unfolded, so such a scan never answers from the memo;
    /// the returned partial is still their fold.
    pub(crate) fn scan(
        &self,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
        config: ScanConfig,
        allowed: Option<BrickFilter>,
        deliver: Deliver<'_>,
    ) -> Result<PartialResult, CubrickError> {
        let folded = !matches!(deliver, Deliver::BrickPartials(_));
        let scan = self.shard_scan(cube, resolved, snapshot, config, allowed, folded);
        let sequential = config.sequential;
        if sequential {
            self.metrics.sequential_queries.inc();
        } else {
            self.metrics.parallel_queries.inc();
        }
        let mut merged = PartialResult::default();
        // Folds one shard's answer in; says whether it had bricks.
        let land = |merged: &mut PartialResult, partial, outcome: &ShardScanOutcome| {
            merged.stats.bricks_pruned += outcome.pruned;
            if outcome.bricks > 0 {
                merged.stats.parallel_tasks += u64::from(!sequential);
                merged.merge(partial);
            }
            outcome.bricks > 0
        };
        match deliver {
            Deliver::Final => self.scan_shards(scan, sequential, PartialResult::merge, |p, o| {
                land(&mut merged, p, o);
            }),
            Deliver::Progress(observe) => {
                self.scan_shards(scan, sequential, PartialResult::merge, |p, o| {
                    if land(&mut merged, p, o) {
                        observe(QueryResult::finalize(cube, resolved, merged.clone()));
                    }
                })
            }
            Deliver::BrickPartials(out) => self.scan_shards(
                scan,
                sequential,
                Vec::push,
                |partials: Vec<PartialResult>, o| {
                    land(&mut merged, PartialResult::fold(&partials), o);
                    out.extend(partials);
                },
            ),
        }?;
        self.metrics
            .visibility_build_nanos
            .add(merged.stats.visibility_build_nanos);
        self.metrics.scan_nanos.add(merged.stats.scan_nanos);
        Ok(merged)
    }

    /// Builds the per-query scan request. `folded` says the caller
    /// merges each shard's bricks into one partial (every read but
    /// [`Deliver::BrickPartials`]). Only such a scan may answer
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
        #[cfg(any(test, feature = "fault-hooks"))]
        let panic_bids = self.faults.arm_scan(&self.memos);
        let memoizable = folded;
        #[cfg(any(test, feature = "fault-hooks"))]
        let memoizable = memoizable && panic_bids.is_empty();
        let memo = snapshot
            .as_ref()
            .filter(|snap| {
                memoizable
                    && !config.sequential
                    && allowed.is_none()
                    && snap.epoch() <= self.manager.lce()
            })
            .map(|snap| {
                let key = MemoKey::new(cube.name(), &resolved.plan, snap);
                (Arc::clone(&self.memos), key)
            });
        ShardScan {
            cube: cube.clone(),
            plan: Arc::clone(&resolved.plan),
            snapshot,
            kernel: config.kernel,
            fold: folded,
            memo,
            allowed,
            #[cfg(any(test, feature = "fault-hooks"))]
            panic_bids,
        }
    }

    /// Answers `scan` on every shard and lands the answers in shard
    /// order, handing `on_shard` each shard's accumulator (its brick
    /// partials folded by `absorb`, ascending bid) and outcome. A
    /// memo-eligible scan looks each shard's settled answer up here,
    /// on the calling thread, and submits a task only to the shards
    /// that miss; a hit is absorbed as that shard's one partial.
    /// `sequential` lands each shard before submitting the next;
    /// otherwise all missed shards run at once. A panicking brick or a
    /// failed tier reload fails the whole query with a typed error —
    /// never a partial result.
    ///
    /// Every query path runs exactly one fan-out, so this is where a
    /// query is counted (`queries`) and timed (`query_nanos`).
    fn scan_shards<A: Default + Send + 'static>(
        &self,
        scan: ShardScan,
        sequential: bool,
        absorb: fn(&mut A, PartialResult),
        mut on_shard: impl FnMut(A, &ShardScanOutcome),
    ) -> Result<(), CubrickError> {
        type Joined<A> = Result<(A, ShardScanOutcome), (u64, ScanFailure)>;
        enum Answer<A> {
            Memoized(A, ShardScanOutcome),
            Task(TaskHandle<Joined<A>>),
        }
        let scan = Arc::new(scan);
        let mut land = |answer: Answer<A>| {
            let joined = match answer {
                Answer::Memoized(acc, outcome) => Ok(Ok((acc, outcome))),
                Answer::Task(handle) => handle.join(),
            };
            let cube = || scan.cube.name().to_owned();
            match joined {
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
        let started = Instant::now();
        self.ops.queries.inc();
        let mut fan_out = || {
            let mut answers = Vec::new();
            for shard in 0..self.shards.num_shards() {
                let memoized =
                    (scan.memo.as_ref()).and_then(|(memos, key)| memos.shard(shard).get(key));
                let answer = match memoized {
                    Some((partial, outcome)) => {
                        let mut acc = A::default();
                        absorb(&mut acc, partial);
                        Answer::Memoized(acc, outcome)
                    }
                    None => {
                        let task = Arc::clone(&scan);
                        Answer::Task(self.shards.submit_handle(shard, move |bricks| {
                            let mut acc = A::default();
                            let outcome =
                                task.run(shard, bricks, |partial| absorb(&mut acc, partial))?;
                            Ok((acc, outcome))
                        }))
                    }
                };
                if sequential {
                    land(answer)?;
                } else {
                    answers.push(answer);
                }
            }
            answers.into_iter().try_for_each(&mut land)
        };
        let scanned = fan_out();
        self.metrics.query_nanos.record_duration(started.elapsed());
        scanned
    }

    /// Brick ids this node currently stores for `cube`, ascending.
    pub(crate) fn brick_bids(&self, cube: &str) -> Vec<u64> {
        let name = cube.to_owned();
        let per_shard: Vec<Vec<u64>> = self.shards.map_shards(|_| {
            let name = name.clone();
            Box::new(move |bricks: &mut ShardBricks| bricks.bids(&name))
        });
        let mut bids: Vec<u64> = per_shard.into_iter().flatten().collect();
        bids.sort_unstable();
        bids
    }

    /// Whether this node stores `bid` of `cube`.
    pub(crate) fn has_brick(&self, cube: &str, bid: u64) -> bool {
        let name = cube.to_owned();
        self.shards
            .submit_and_wait(self.shards.shard_of(bid), move |bricks| {
                bricks.contains(&name, bid)
            })
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
        self.shards.submit_and_wait(shard, move |bricks| {
            memos.shard(shard).forget_cube(&name);
            bricks.remove(&name, bid)
        })
    }

    /// Memory accounting across all bricks of all cubes.
    pub fn memory(&self) -> EngineMemory {
        let per_shard: Vec<CubeMemory> = self.shards.map_shards(|_| {
            Box::new(|bricks: &mut ShardBricks| {
                let mut memory = CubeMemory::default();
                for brick in bricks.resident() {
                    let m = brick.memory();
                    memory.data_bytes += m.data_bytes;
                    memory.aosi_bytes += m.aosi_bytes;
                    memory.rows += m.rows;
                    memory.bricks += 1;
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
pub(crate) mod tests {
    use super::*;
    use crate::ddl::{Dimension, Metric};
    use crate::ingest::parse_rows;
    use crate::query::{AggFn, Aggregation, CmpOp, DimFilter, OrderBy};
    use columnar::Row;
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

    pub(crate) fn engine() -> Engine {
        let engine = Engine::new(4);
        engine.create_cube(events_schema()).unwrap();
        engine
    }

    pub(crate) fn row(region: &str, day: i64, likes: i64, score: f64) -> Row {
        vec![
            Value::from(region),
            Value::from(day),
            Value::from(likes),
            Value::from(score),
        ]
    }

    pub(crate) fn sum_likes(engine: &Engine, mode: IsolationMode) -> f64 {
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
            .read(
                "events",
                &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
                At::Txn(&txn),
                Deliver::Final,
            )
            .unwrap();
        assert_eq!(own.scalar(), Some(105.0));
        engine.commit(&txn).unwrap();
        assert_eq!(sum_likes(&engine, IsolationMode::Snapshot), 105.0);
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
    fn time_travel_reads_historical_snapshots() {
        let engine = engine();
        engine.load("events", &[row("us", 0, 10, 0.0)], 0).unwrap(); // T1
        engine.load("events", &[row("us", 1, 20, 0.0)], 0).unwrap(); // T2
        engine.delete_where("events", &[]).unwrap(); // T3
        engine.load("events", &[row("us", 2, 40, 0.0)], 0).unwrap(); // T4

        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let at = |epoch| {
            engine
                .read("events", &q, At::Epoch(epoch), Deliver::Final)
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
            engine.read("events", &q, At::Epoch(99), Deliver::Final),
            Err(CubrickError::EpochOutOfRange { .. })
        ));
        engine.manager().advance_lse(3).unwrap();
        engine.purge();
        assert!(matches!(
            engine.read("events", &q, At::Epoch(2), Deliver::Final),
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
    fn an_epoch_read_guards_before_validating() {
        // Regression: an epoch read used to validate the epoch window
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
            match engine.read("events", &q, At::Epoch(e), Deliver::Final) {
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
        let newest = engine
            .read("events", &q, At::Epoch(60), Deliver::Final)
            .unwrap();
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

    /// Every read counts and times exactly one query: the
    /// coordinator's fan-out is the one place that does either. A read
    /// refused before its fan-out counts nothing.
    #[test]
    fn every_query_entry_point_counts_and_times_one_query() {
        let engine = &engine();
        spread_load(engine);
        let q = &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let lce = engine.manager().lce();
        let settled = &Snapshot::committed(lce);
        let txn = engine.begin();
        let cube = &engine.cube("events").unwrap();
        let resolved = &ResolvedQuery::resolve(cube, q).unwrap();
        type Row<'a> = (String, Box<dyn Fn() -> Result<(), CubrickError> + 'a>);
        let mut table: Vec<Row> = Vec::new();
        for (name, at) in [
            ("Latest", At::Latest),
            ("Uncommitted", At::Uncommitted),
            ("Txn", At::Txn(&txn)),
            ("Epoch", At::Epoch(lce)),
            ("Snapshot", At::Snapshot(settled)),
        ] {
            let read = move |deliver: Deliver<'_>| engine.read("events", q, at, deliver).map(drop);
            table.push((
                format!("{name} Final"),
                Box::new(move || read(Deliver::Final)),
            ));
            table.push((
                format!("{name} Progress"),
                Box::new(move || read(Deliver::Progress(&mut drop))),
            ));
            table.push((
                format!("{name} BrickPartials"),
                Box::new(move || read(Deliver::BrickPartials(&mut Vec::new()))),
            ));
        }
        table.push((
            "query".into(),
            Box::new(|| engine.query("events", q, IsolationMode::Snapshot).map(drop)),
        ));
        table.push((
            "query_at_reference".into(),
            Box::new(|| engine.query_at_reference("events", q, settled).map(drop)),
        ));
        table.push((
            "distributed node share".into(),
            Box::new(|| {
                let allow = Some(Arc::new(|_| true) as BrickFilter);
                let (snapshot, config) = (Some(settled.clone()), engine.scan_config());
                (engine.scan(cube, resolved, snapshot, config, allow, Deliver::Final)).map(drop)
            }),
        ));
        let counted = || {
            let report = engine.metrics_report();
            let timed = (report.lines())
                .find_map(|l| l.trim().strip_prefix("query_nanos.count = "))
                .map_or(0, |n| n.parse::<u64>().unwrap());
            (engine.op_stats().queries, timed)
        };
        for (name, call) in &table {
            let (queries, timed) = counted();
            call().unwrap();
            assert_eq!(counted(), (queries + 1, timed + 1), "{name}");
        }
        let before = counted();
        let refused = engine.read("events", q, At::Epoch(lce + 1), Deliver::Final);
        assert!(matches!(refused, Err(CubrickError::EpochOutOfRange { .. })));
        assert_eq!(counted(), before, "an epoch past the LCE scans nothing");
        engine.rollback(&txn).unwrap();
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

    pub(crate) fn spread_load(engine: &Engine) {
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
            let fast = engine
                .read("events", query, At::Snapshot(&snapshot), Deliver::Final)
                .unwrap();
            let reference = engine
                .query_at_reference("events", query, &snapshot)
                .unwrap();
            assert!(fast.stats.parallel_tasks > 0, "parallel path not taken");
            assert_eq!(reference.stats.parallel_tasks, 0);
            assert_rows_identical(&fast, &reference);
            // The second sighting stores each shard's answer; the
            // third is served from the memo, still identical.
            engine
                .read("events", query, At::Snapshot(&snapshot), Deliver::Final)
                .unwrap();
            let warm = engine
                .read("events", query, At::Snapshot(&snapshot), Deliver::Final)
                .unwrap();
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
    /// no wall time.
    #[test]
    fn the_memo_admits_on_the_second_sighting_and_replays_the_data_counters() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .filter(DimFilter::new("region", vec![Value::from("us")]))
            .grouped_by("day");
        let snapshot = Snapshot::committed(engine.manager().lce());
        let first = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
        assert_eq!(first.stats.agg_cache_hits, 0);
        assert!(first.stats.agg_cache_misses > 0);
        assert_eq!(engine.agg_cache_stats().unwrap().entries, 0, "one sighting");
        let second = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
        assert_eq!(second.stats.agg_cache_hits, 0);
        assert_eq!(engine.agg_cache_stats().unwrap().entries, 4, "every shard");

        let hit = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
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

    /// The scan plan is the memo key. Variants of a memoized query
    /// that differ only in HAVING, ORDER BY or LIMIT hit on every
    /// shard and finalize like the reference; one more filter
    /// coordinate, one more aggregation or one more group dimension
    /// is another plan, and misses on every shard.
    #[test]
    fn the_scan_plan_is_the_memo_key() {
        let engine = engine();
        spread_load(&engine);
        let query = |regions: &[&str]| {
            let regions = regions.iter().map(|&r| Value::from(r)).collect();
            Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
                .filter(DimFilter::new("region", regions))
                .grouped_by("day")
        };
        let base = || query(&["us", "br"]);
        let snapshot = Snapshot::committed(engine.manager().lce());
        let read = |query: &Query| {
            (engine.read("events", query, At::Snapshot(&snapshot), Deliver::Final)).unwrap()
        };
        read(&base());
        read(&base());
        let finalize_only = [
            base().having(0, CmpOp::Gt, 4.0),
            base().ordered_by(OrderBy::Aggregation(0), true),
            (base().ordered_by(OrderBy::Dimension("day".into()), false)).limited(3),
        ];
        for variant in &finalize_only {
            let before = memo_lookups(&engine);
            let hit = read(variant);
            let (hits, misses) = memo_lookups(&engine);
            assert_eq!((hits - before.0, misses - before.1), (4, 0), "{variant:?}");
            let reference = engine.query_at_reference("events", variant, &snapshot);
            assert_rows_identical(&hit, &reference.unwrap());
        }
        let mut more_aggregations = base();
        (more_aggregations.aggregations).push(Aggregation::new(AggFn::Count, "likes"));
        let other_plans = [
            query(&["us", "br", "mx"]),
            more_aggregations,
            base().grouped_by("region"),
        ];
        for variant in &other_plans {
            let before = memo_lookups(&engine);
            read(variant);
            let (hits, misses) = memo_lookups(&engine);
            assert_eq!((hits - before.0, misses - before.1), (0, 4), "{variant:?}");
        }
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
            let own = engine
                .read("events", &query, At::Txn(&txn), Deliver::Final)
                .unwrap();
            assert_eq!(own.scalar(), Some(100.0 + 4.0 * 120.0));
            engine
                .read(
                    "events",
                    &query,
                    At::Snapshot(&Snapshot::committed(lce + 1)),
                    Deliver::Final,
                )
                .unwrap();
            engine
                .query_at_reference("events", &query, &settled)
                .unwrap();
            let partials = Deliver::BrickPartials(&mut Vec::new());
            (engine.read("events", &query, At::Snapshot(&settled), partials)).unwrap();
            let snapshot = Some(settled.clone());
            let allowed = Some(Arc::clone(&allow_all));
            let config = engine.scan_config();
            (engine.scan(&cube, &resolved, snapshot, config, allowed, Deliver::Final)).unwrap();
        }
        engine.faults().inject_scan_panic(u64::MAX);
        for _ in 0..3 {
            engine
                .read("events", &query, At::Snapshot(&settled), Deliver::Final)
                .unwrap();
        }
        assert_eq!(memo_lookups(&engine), before, "no lookup at all");
        engine.faults().clear_scan_panics();

        let sequential = Engine::new(4).with_scan_config(ScanConfig {
            sequential: true,
            ..ScanConfig::default()
        });
        sequential.create_cube(events_schema()).unwrap();
        spread_load(&sequential);
        let settled = Snapshot::committed(sequential.manager().lce());
        for _ in 0..3 {
            sequential
                .read("events", &query, At::Snapshot(&settled), Deliver::Final)
                .unwrap();
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
                let result = engine
                    .read("wide", &query, At::Snapshot(&snapshot), Deliver::Final)
                    .unwrap();
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
        let hit = engine
            .read("wide", &query, At::Snapshot(&newest), Deliver::Final)
            .unwrap();
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
            engine
                .read("events", query, At::Snapshot(snapshot), Deliver::Final)
                .unwrap();
        }
        let hit = engine
            .read("events", query, At::Snapshot(snapshot), Deliver::Final)
            .unwrap();
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
            let fresh = engine
                .read("events", &query, At::Snapshot(snapshot), Deliver::Final)
                .unwrap();
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
        let replay = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
        assert!(replay.stats.agg_cache_hits > 0);
        assert_eq!(replay.stats.agg_cache_misses, 0);
        assert_rows_identical(&replay, &memoized);
        assert_eq!(engine.agg_cache_stats().unwrap().invalidations, 0);
        // The new snapshot is a new key.
        let fresh = Snapshot::committed(engine.manager().lce());
        let now = engine
            .read("events", &query, At::Snapshot(&fresh), Deliver::Final)
            .unwrap();
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
                .read(
                    "events",
                    &query,
                    At::Snapshot(&Snapshot::committed(epoch)),
                    Deliver::Final,
                )
                .unwrap();
            assert!(kept.stats.agg_cache_hits > 0, "epoch {epoch} kept");
        }
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
            engine.faults().inject_scan_panic(bid);
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
        engine.faults().clear_scan_panics();
        let sum = sum_likes(&engine, IsolationMode::Snapshot);
        assert_eq!(sum, 4.0 * (0..16).sum::<i64>() as f64);
    }

    /// Regression: the reference path (and the per-brick-partials
    /// path) used to let a brick panic unwind the whole shard task,
    /// reporting `bid: None` — or, for the per-brick partials, to
    /// ignore the injection altogether.
    #[test]
    fn reference_path_attributes_the_panicking_brick() {
        let engine = engine();
        spread_load(&engine);
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let snapshot = Snapshot::committed(engine.manager().lce());
        let bids = engine.brick_bids("events");
        let poisoned = *bids.last().unwrap();
        engine.faults().inject_scan_panic(poisoned);
        let reference = engine.query_at_reference("events", &query, &snapshot);
        let partials = Deliver::BrickPartials(&mut Vec::new());
        let partials = engine.read("events", &query, At::Snapshot(&snapshot), partials);
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
        engine.faults().clear_scan_panics();
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
        engine.faults().corrupt_memo();
        let poisoned = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
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
        let direct = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
        let mut partials = Vec::new();
        let folded = engine
            .read(
                "events",
                &query,
                At::Snapshot(&snapshot),
                Deliver::BrickPartials(&mut partials),
            )
            .unwrap();
        assert_rows_identical(&folded, &direct);
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
            let mut observe = |r| refinements.push(r);
            let progress = Deliver::Progress(&mut observe);
            let complete = engine
                .read("events", &query, At::Snapshot(&snapshot), progress)
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
    // Cold-tier integration (the residency transitions are
    // unit-tested in `crate::tier`; these drive eviction and reload
    // through the engine's public surface).
    // ---------------------------------------------------------------

    pub(crate) fn tiered_engine(budget_bytes: usize) -> Engine {
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
            let cold = tiered
                .read("events", query, At::Snapshot(&snapshot), Deliver::Final)
                .unwrap();
            let warm = plain
                .read("events", query, At::Snapshot(&snapshot), Deliver::Final)
                .unwrap();
            assert_rows_identical(&cold, &warm);
        }
        assert!(
            tiered.tier_stats().unwrap().reloads > 0,
            "scans faulted the evicted bricks back in"
        );
    }

    /// Regression: the per-brick partials used to discard the fault-in
    /// accounting, so a reloaded brick reported 0 reloads.
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
        let mut partials = Vec::new();
        let deliver = Deliver::BrickPartials(&mut partials);
        (tiered.read("events", &query, At::Snapshot(&snapshot), deliver)).unwrap();
        let reloads: u64 = partials.iter().map(|p| p.stats.tier_reloads).sum();
        assert_eq!(reloads, evicted);
        let finalized = tiered
            .finalize_partials("events", &query, partials)
            .unwrap();
        let direct = plain
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
        assert_rows_identical(&finalized, &direct);
    }

    /// One path that reads or writes brick `bid` of `events` by id
    /// (or the whole cube), returning what it hands back to its caller.
    type WritePath = fn(&Engine, u64) -> String;

    /// The paths a spilled target must be faulted in for. Each is run
    /// on a tiered engine whose every brick is spilled and on an
    /// untiered twin.
    const WRITE_PATHS: [(&str, WritePath); 7] = [
        ("load", |e, _| {
            format!(
                "{:?}",
                e.load("events", &[row("us", 0, 5, 1.0)], 0)
                    .map(|o| o.accepted)
            )
        }),
        ("append then commit", |e, _| {
            let txn = e.begin();
            let appended = e.append("events", &[row("us", 0, 5, 1.0)], &txn);
            e.commit(&txn).unwrap();
            format!("{appended:?}")
        }),
        ("delete_where", |e, _| {
            let days = (0..4).map(Value::from).collect();
            format!(
                "{:?}",
                e.delete_where("events", &[DimFilter::new("day", days)])
            )
        }),
        ("import_delta", |e, bid| {
            let delta = crate::persist::BrickDelta {
                cube: "events".into(),
                bid,
                runs: vec![write_run(e)],
            };
            format!("{:?}", e.import_delta(vec![delta]))
        }),
        ("install_brick_runs", |e, bid| {
            let cube = e.cube("events").unwrap();
            format!("{:?}", e.install_brick_runs(&cube, bid, vec![write_run(e)]))
        }),
        ("export_brick", |e, bid| {
            format!("{:?}", e.export_brick("events", bid))
        }),
        ("export_delta past the LSE", |e, _| {
            format!("{:?}", e.export_delta(0, e.manager().lce()))
        }),
    ];

    /// An insert of `("us", 0)` under an epoch above every committed
    /// one, so no install dedups it away.
    fn write_run(engine: &Engine) -> crate::persist::DeltaRun {
        let cube = engine.cube("events").unwrap();
        let rows = [row("us", 0, 1000, 0.5)];
        let batch = parse_rows(cube.schema(), cube.layout(), cube.dictionaries(), &rows);
        let chunk = batch.by_bid.into_values().next().unwrap();
        crate::persist::DeltaRun::Insert {
            epoch: engine.manager().lce() + 1,
            records: chunk,
        }
    }

    /// Every path that writes or exports a brick by id reloads a
    /// spilled target first — a write into a fresh empty brick would
    /// shadow the spilled rows — and leaves the engine bit for bit
    /// where an untiered twin ends up.
    #[test]
    fn a_write_faults_the_spilled_brick_back_in() {
        for (path, run) in WRITE_PATHS {
            let tiered = tiered_engine(1);
            let plain = engine();
            for e in [&tiered, &plain] {
                spread_load(e);
                e.advance_lse_and_purge();
            }
            let cube = tiered.cube("events").unwrap();
            let coords = [cube.encode_filter_value(0, &Value::from("us")).unwrap(), 0];
            let bid = cube.layout().bid_for_coords(&coords);
            let before = tiered.tier_stats().unwrap();
            assert_eq!(before.spilled_bricks, tiered.brick_bids("events").len());

            assert_eq!(
                run(&tiered, bid),
                run(&plain, bid),
                "{path}: what it returns"
            );
            let after = tiered.tier_stats().unwrap();
            assert!(after.reloads > before.reloads, "{path} reloaded nothing");
            assert_eq!(after.reload_failures, 0, "{path}");
            // Everything either engine stores, epochs vectors included.
            let everything = |e: &Engine| {
                let lce = e.manager().lce();
                e.manager().clock().observe(lce + 1);
                format!("{:?}", e.export_delta(0, lce + 1))
            };
            assert_eq!(
                everything(&tiered),
                everything(&plain),
                "{path}: stored bricks"
            );
            let snapshot = Snapshot::committed(plain.manager().lce());
            let query = Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "likes"),
                Aggregation::new(AggFn::Avg, "score"),
            ])
            .grouped_by("region");
            assert_rows_identical(
                &tiered
                    .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
                    .unwrap(),
                &plain
                    .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
                    .unwrap(),
            );
        }
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
        let cold = engine
            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
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
}
