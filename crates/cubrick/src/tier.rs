//! Tiered brick storage: the residency manager that evicts cold
//! bricks to a durable store and faults them back in on demand.
//!
//! The engine side of the spill machinery lives here; the durable
//! format and the `WalFs`-backed store implementation live in the
//! `wal` crate (`wal::tier`), which depends on this crate — the
//! [`BrickStore`] trait is the seam between them.
//!
//! ## Eligibility: only clean-cold bricks spill
//!
//! A brick may be evicted only when its newest epoch is at or below
//! the manager's LSE. The LSE cannot pass a pending transaction, so
//! such a brick can never hold rows of an uncommitted or
//! aborted-but-unreclaimed transaction, and no future flush round can
//! cover its epochs — every row in it is durable in the WAL chain and
//! immutable until it is faulted back in. That single rule is what
//! makes the rest of the design safe:
//!
//! * **Rollback** reclaims rows of an aborted epoch; aborted epochs
//!   are strictly above the LSE, so a spilled brick has nothing to
//!   reclaim and rollback may skip it.
//! * **Purge** compacts history at the LSE; skipping a spilled brick
//!   merely defers reclamation until the brick is next resident.
//! * **Crash recovery** replays the full WAL chain, which still holds
//!   every spilled row — spill files are a redundant cold copy, and a
//!   power cut at any point during spill, eviction, or reload loses
//!   nothing (`oracle::crash` pins this).
//!
//! ## Cached partials survive eviction
//!
//! The spill snapshot preserves the epochs vector's generation
//! counter verbatim, and the registry retains a copy of the vector
//! while the brick is cold. Aggregate cache entries are keyed on
//! (generation, snapshot), so they remain *valid* across
//! an evict/reload cycle — no invalidation happens on either edge —
//! and a warm aggregate partial can even answer a query for a brick
//! that is currently on disk, without faulting it in
//! ([`TieredStore::cached_serve`] feeds that path).

use std::collections::HashMap;

use aosi::EpochsVector;
use obs::{Counter, Gauge, ReportBuilder};
use parking_lot::Mutex;

use crate::brick::Brick;
use crate::cube::Cube;
use crate::shard::ShardBricks;

/// Errors from a [`BrickStore`] implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TierError {
    /// The underlying storage failed (write, sync, read, remove).
    Io(String),
    /// A snapshot decoded wrong: bad magic, torn tail, checksum
    /// mismatch, or a field that contradicts the cube's schema.
    Corrupt(String),
    /// No snapshot exists for the requested brick.
    Missing,
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Io(msg) => write!(f, "tier storage I/O failed: {msg}"),
            TierError::Corrupt(msg) => write!(f, "tier snapshot corrupt: {msg}"),
            TierError::Missing => write!(f, "tier snapshot missing"),
        }
    }
}

impl std::error::Error for TierError {}

/// Durable storage for evicted bricks. `wal::tier::WalBrickStore` is
/// the production implementation (checksummed snapshots through the
/// `WalFs` trait, so the crash oracle's simulated power cuts cover
/// it); tests use in-memory stores.
///
/// Implementations must make `spill` durable before returning: once
/// it returns `Ok`, a matching `reload` must succeed even after a
/// process restart (absent media corruption, which `reload` reports
/// as [`TierError::Corrupt`]).
pub trait BrickStore: Send + Sync {
    /// Durably writes a snapshot of `brick`. Returns the snapshot's
    /// size in bytes.
    fn spill(&self, cube: &Cube, bid: u64, brick: &Brick) -> Result<u64, TierError>;

    /// Reads a snapshot back into a brick, bit-identical to what was
    /// spilled (layout, rows, epochs vector *including its
    /// generation counter*).
    fn reload(&self, cube: &Cube, bid: u64) -> Result<Brick, TierError>;

    /// Removes a snapshot. Missing snapshots are not an error (the
    /// call must be idempotent — cleanup paths retry).
    fn discard(&self, cube: &str, bid: u64) -> Result<(), TierError>;
}

/// Registry entry for one evicted brick.
struct SpilledBrick {
    /// The epochs vector as of eviction, generation included. Kept so
    /// cache keys can still be formed (and cache hits served) while
    /// the brick's columns are on disk.
    epochs: EpochsVector,
    /// Snapshot size on disk.
    file_bytes: u64,
    /// What the brick occupied in memory (the bytes eviction freed).
    resident_bytes: usize,
}

/// Point-in-time counters for the cold tier (see
/// [`crate::Engine::tier_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Memory budget eviction enforces, in bytes.
    pub budget_bytes: usize,
    /// Resident brick bytes observed by the most recent enforcement
    /// sweep (after its evictions).
    pub resident_bytes: u64,
    /// Bricks currently evicted.
    pub spilled_bricks: usize,
    /// Bytes their snapshots occupy on disk.
    pub spilled_file_bytes: u64,
    /// Brick bytes eviction has freed (memory the spilled bricks
    /// would occupy if resident).
    pub spilled_resident_bytes: u64,
    /// Successful spills, cumulative.
    pub spills: u64,
    /// Successful reloads, cumulative.
    pub reloads: u64,
    /// Queries for a spilled brick answered straight from the
    /// aggregate cache, no reload.
    pub cache_serves: u64,
    /// Spill attempts that failed (the brick stayed resident).
    pub spill_failures: u64,
    /// Reload attempts that failed (the query or mutation errored).
    pub reload_failures: u64,
}

/// A per-brick registry map, `cube -> bid -> V`: keyed by cube name
/// first so a `(&str, u64)` lookup borrows instead of allocating.
type ByBrick<V> = HashMap<String, HashMap<u64, V>>;

/// `map`'s bricks of `cube`, created empty on first use (the name is
/// allocated once per cube, not per call).
fn cube_entry<'a, V>(map: &'a mut ByBrick<V>, cube: &str) -> &'a mut HashMap<u64, V> {
    if !map.contains_key(cube) {
        map.insert(cube.to_owned(), HashMap::new());
    }
    map.get_mut(cube).expect("inserted above")
}

struct TierInner {
    /// Evicted bricks.
    spilled: ByBrick<SpilledBrick>,
    /// Last-scan tick per resident brick, for eviction ranking.
    touches: ByBrick<u64>,
    /// The touch clock.
    tick: u64,
}

impl TierInner {
    fn spilled(&self, cube: &str, bid: u64) -> Option<&SpilledBrick> {
        self.spilled.get(cube)?.get(&bid)
    }

    fn touch(&mut self, cube: &str, bid: u64) {
        self.tick += 1;
        let tick = self.tick;
        cube_entry(&mut self.touches, cube).insert(bid, tick);
    }

    /// Drops `bid` of `cube` from both maps; returns whether it was
    /// spilled.
    fn forget(&mut self, cube: &str, bid: u64) -> bool {
        if let Some(touches) = self.touches.get_mut(cube) {
            touches.remove(&bid);
        }
        self.spilled
            .get_mut(cube)
            .is_some_and(|spilled| spilled.remove(&bid).is_some())
    }
}

/// The engine's cold-tier state: one durable [`BrickStore`], the
/// memory budget, the spilled-brick registry, and the recency clock
/// eviction ranks by.
pub struct TieredStore {
    store: Box<dyn BrickStore>,
    budget_bytes: usize,
    inner: Mutex<TierInner>,
    spills: Counter,
    reloads: Counter,
    cache_serves: Counter,
    spill_failures: Counter,
    reload_failures: Counter,
    /// Resident bytes after the last enforcement sweep.
    resident_bytes: Gauge,
}

impl TieredStore {
    /// Wraps a durable store under a memory budget.
    pub fn new(store: Box<dyn BrickStore>, budget_bytes: usize) -> Self {
        TieredStore {
            store,
            budget_bytes,
            inner: Mutex::new(TierInner {
                spilled: HashMap::new(),
                touches: HashMap::new(),
                tick: 0,
            }),
            spills: Counter::default(),
            reloads: Counter::default(),
            cache_serves: Counter::default(),
            spill_failures: Counter::default(),
            reload_failures: Counter::default(),
            resident_bytes: Gauge::default(),
        }
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The durable store (spill/reload run on shard threads).
    pub(crate) fn store(&self) -> &dyn BrickStore {
        &*self.store
    }

    /// Whether `bid` of `cube` is currently evicted.
    pub(crate) fn is_spilled(&self, cube: &str, bid: u64) -> bool {
        self.inner.lock().spilled(cube, bid).is_some()
    }

    /// The retained epochs vector of an evicted brick (cache-serve
    /// path).
    pub(crate) fn spilled_epochs(&self, cube: &str, bid: u64) -> Option<EpochsVector> {
        self.inner
            .lock()
            .spilled(cube, bid)
            .map(|s| s.epochs.clone())
    }

    /// Spilled bricks holding any run in `(lse, lse_prime]` — the
    /// retained epochs vectors answer this without touching disk.
    pub(crate) fn spilled_in_window(&self, lse: u64, lse_prime: u64) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        (inner.spilled.iter())
            .flat_map(|(cube, bricks)| bricks.iter().map(move |(&bid, s)| (cube, bid, s)))
            .filter(|(_, _, s)| {
                s.epochs
                    .entries()
                    .iter()
                    .any(|e| e.epoch() > lse && e.epoch() <= lse_prime)
            })
            .map(|(cube, bid, _)| (cube.clone(), bid))
            .collect()
    }

    /// Bids of `cube` currently evicted, unsorted.
    pub(crate) fn spilled_bids(&self, cube: &str) -> Vec<u64> {
        self.inner
            .lock()
            .spilled
            .get(cube)
            .map(|spilled| spilled.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Bumps the touch clock for a resident brick (called from scan
    /// paths so eviction can rank bricks by how recently queries
    /// touched them).
    pub(crate) fn touch(&self, cube: &str, bid: u64) {
        self.inner.lock().touch(cube, bid);
    }

    /// How recently `bid` was scanned, as a fraction of the touch
    /// clock (1.0 = the most recent touch in the engine, `None` =
    /// never touched). Comparable against
    /// [`aosi::SnapshotCache::partition_recency`], which uses the
    /// same convention — the eviction ranking takes the max of the
    /// two clocks.
    pub(crate) fn touch_recency(&self, cube: &str, bid: u64) -> Option<f64> {
        let inner = self.inner.lock();
        if inner.tick == 0 {
            return None;
        }
        inner
            .touches
            .get(cube)?
            .get(&bid)
            .map(|&t| t as f64 / inner.tick as f64)
    }

    /// Counts a query for a spilled brick answered from the
    /// aggregate cache.
    pub(crate) fn note_cache_serve(&self) {
        self.cache_serves.inc();
    }

    /// Counts a failed spill attempt (brick stays resident).
    pub(crate) fn note_spill_failure(&self) {
        self.spill_failures.inc();
    }

    /// Records a successful spill. Runs on the owning shard thread,
    /// after the durable write succeeded and the brick left the map.
    pub(crate) fn note_spilled(
        &self,
        cube: &str,
        bid: u64,
        epochs: EpochsVector,
        file_bytes: u64,
        resident_bytes: usize,
    ) {
        self.spills.inc();
        let mut inner = self.inner.lock();
        inner.forget(cube, bid);
        cube_entry(&mut inner.spilled, cube).insert(
            bid,
            SpilledBrick {
                epochs,
                file_bytes,
                resident_bytes,
            },
        );
    }

    /// Faults one brick back into its shard map. Must run on the
    /// owning shard thread — that is what makes the
    /// check-reload-insert sequence race-free (a concurrent task on
    /// the same shard either ran before us, in which case the brick
    /// is already back and we return `Ok(false)`, or runs after and
    /// sees it resident).
    ///
    /// Returns `Ok(true)` if a reload happened, `Ok(false)` if the
    /// brick was already resident (or never spilled). On success the
    /// snapshot file is discarded best-effort; a leftover file is
    /// harmless (startup cleanup removes strays, and the registry —
    /// not the directory — defines what is spilled).
    pub(crate) fn reload_into(
        &self,
        cube: &Cube,
        bid: u64,
        bricks: &mut ShardBricks,
    ) -> Result<bool, String> {
        if !self.is_spilled(cube.name(), bid) {
            return Ok(false);
        }
        if bricks
            .get(cube.name())
            .is_some_and(|m| m.contains_key(&bid))
        {
            // Registry says spilled but the brick is in the map:
            // another task on this shard reloaded it between our
            // registry check and now — impossible on the owning
            // thread, but cheap to tolerate.
            return Ok(false);
        }
        match self.store.reload(cube, bid) {
            Ok(brick) => {
                self.reloads.inc();
                bricks
                    .entry(cube.name().to_owned())
                    .or_default()
                    .insert(bid, brick);
                let mut inner = self.inner.lock();
                inner.forget(cube.name(), bid);
                inner.touch(cube.name(), bid);
                drop(inner);
                let _ = self.store.discard(cube.name(), bid);
                Ok(true)
            }
            Err(e) => {
                self.reload_failures.inc();
                Err(e.to_string())
            }
        }
    }

    /// Forgets an evicted brick and removes its snapshot (DDL drop /
    /// rebalance retire). Returns whether the registry held it.
    pub(crate) fn forget(&self, cube: &str, bid: u64) -> bool {
        let existed = self.inner.lock().forget(cube, bid);
        if existed {
            let _ = self.store.discard(cube, bid);
        }
        existed
    }

    /// Updates the resident-bytes gauge after an enforcement sweep.
    pub(crate) fn observe_resident_bytes(&self, bytes: u64) {
        self.resident_bytes.set(bytes);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> TierStats {
        let inner = self.inner.lock();
        let spilled = || inner.spilled.values().flat_map(HashMap::values);
        TierStats {
            budget_bytes: self.budget_bytes,
            resident_bytes: self.resident_bytes.get(),
            spilled_bricks: spilled().count(),
            spilled_file_bytes: spilled().map(|s| s.file_bytes).sum(),
            spilled_resident_bytes: spilled().map(|s| s.resident_bytes as u64).sum(),
            spills: self.spills.get(),
            reloads: self.reloads.get(),
            cache_serves: self.cache_serves.get(),
            spill_failures: self.spill_failures.get(),
            reload_failures: self.reload_failures.get(),
        }
    }

    /// Writes the `[<prefix>storage.tier]` report section.
    pub(crate) fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        let stats = self.stats();
        report
            .section(section)
            .metric("budget_bytes", self.budget_bytes)
            .gauge("resident_bytes", &self.resident_bytes)
            .metric("spilled_bricks", stats.spilled_bricks)
            .metric("spilled_file_bytes", stats.spilled_file_bytes)
            .metric("spilled_resident_bytes", stats.spilled_resident_bytes)
            .counter("spills", &self.spills)
            .counter("reloads", &self.reloads)
            .counter("cache_serves", &self.cache_serves)
            .counter("spill_failures", &self.spill_failures)
            .counter("reload_failures", &self.reload_failures);
    }
}

/// What one [`crate::Engine::enforce_tier_budget`] sweep did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierEnforcement {
    /// Resident brick bytes before the sweep.
    pub resident_bytes_before: u64,
    /// Resident brick bytes after evictions.
    pub resident_bytes_after: u64,
    /// Bricks evicted by this sweep.
    pub evicted: u64,
    /// Spill attempts that failed (bricks left resident).
    pub failed: u64,
    /// Clean-cold bytes that *could* have been evicted but were not
    /// needed (or could not be, once candidates ran out).
    pub eligible_bytes: u64,
}

/// In-memory [`BrickStore`] for tests (here and in the engine's tier
/// integration tests): spills a deep copy into a map, no codec.
#[cfg(test)]
pub(crate) struct MemStore {
    snapshots: parking_lot::Mutex<HashMap<(String, u64), Brick>>,
}

#[cfg(test)]
impl MemStore {
    pub(crate) fn new() -> Self {
        MemStore {
            snapshots: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    fn copy(cube_schema: &crate::ddl::CubeSchema, brick: &Brick) -> Brick {
        Brick::restore(
            cube_schema,
            brick.storage_kind(),
            (0..brick.num_dims()).map(|d| brick.dim_coords(d)).collect(),
            (0..brick.num_metrics())
                .map(|m| brick.metric_column(m).clone())
                .collect(),
            EpochsVector::from_parts_with_generation(
                brick.epochs().entries().to_vec(),
                brick.epochs().row_count(),
                brick.epochs().generation(),
            ),
        )
    }
}

#[cfg(test)]
impl BrickStore for MemStore {
    fn spill(&self, cube: &Cube, bid: u64, brick: &Brick) -> Result<u64, TierError> {
        let clone = Self::copy(cube.schema(), brick);
        self.snapshots
            .lock()
            .insert((cube.name().to_owned(), bid), clone);
        Ok(64)
    }

    fn reload(&self, cube: &Cube, bid: u64) -> Result<Brick, TierError> {
        let snapshots = self.snapshots.lock();
        let stored = snapshots
            .get(&(cube.name().to_owned(), bid))
            .ok_or(TierError::Missing)?;
        Ok(Self::copy(cube.schema(), stored))
    }

    fn discard(&self, cube: &str, bid: u64) -> Result<(), TierError> {
        self.snapshots.lock().remove(&(cube.to_owned(), bid));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Cube {
        let schema = crate::ddl::CubeSchema::new(
            "t",
            vec![crate::ddl::Dimension::int("d", 16, 4)],
            vec![crate::ddl::Metric::float("m")],
        )
        .unwrap();
        Cube::new(schema)
    }

    fn brick(cube: &Cube, rows: usize) -> Brick {
        let mut b = Brick::new(cube.schema());
        let records: Vec<(Vec<u32>, Vec<columnar::Value>)> = (0..rows)
            .map(|i| (vec![(i % 16) as u32], vec![columnar::Value::F64(i as f64)]))
            .collect();
        b.append(1, &crate::ingest::RecordChunk::from_rows(&records));
        b
    }

    #[test]
    fn registry_tracks_spill_reload_and_forget() {
        let tier = TieredStore::new(Box::new(MemStore::new()), 1024);
        let cube = cube();
        let b = brick(&cube, 8);
        let epochs = b.epochs().clone();
        let mem = b.memory();

        assert!(!tier.is_spilled("t", 3));
        let file_bytes = tier.store().spill(&cube, 3, &b).unwrap();
        tier.note_spilled("t", 3, epochs, file_bytes, mem.data_bytes + mem.aosi_bytes);
        assert!(tier.is_spilled("t", 3));
        assert_eq!(tier.spilled_bids("t"), vec![3]);
        assert_eq!(
            tier.spilled_epochs("t", 3).unwrap().generation(),
            b.epochs().generation()
        );

        let mut bricks = ShardBricks::new();
        assert!(tier.reload_into(&cube, 3, &mut bricks).unwrap());
        assert!(!tier.is_spilled("t", 3));
        let reloaded = bricks.get("t").unwrap().get(&3).unwrap();
        assert_eq!(reloaded.row_count(), 8);
        assert_eq!(reloaded.epochs().generation(), b.epochs().generation());
        // Second call is a no-op: resident already.
        assert!(!tier.reload_into(&cube, 3, &mut bricks).unwrap());

        let stats = tier.stats();
        assert_eq!(stats.spills, 1);
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.spilled_bricks, 0);

        tier.note_spilled("t", 4, b.epochs().clone(), 10, 100);
        assert!(tier.forget("t", 4));
        assert!(!tier.forget("t", 4));
    }

    #[test]
    fn reload_of_a_missing_snapshot_is_a_counted_failure() {
        let tier = TieredStore::new(Box::new(MemStore::new()), 1024);
        let cube = cube();
        let b = brick(&cube, 4);
        // Registered as spilled, but the store never saw it.
        tier.note_spilled("t", 9, b.epochs().clone(), 0, 0);
        let mut bricks = ShardBricks::new();
        let err = tier.reload_into(&cube, 9, &mut bricks).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert_eq!(tier.stats().reload_failures, 1);
        // Still registered — the brick is not silently forgotten.
        assert!(tier.is_spilled("t", 9));
    }

    #[test]
    fn touch_recency_ranks_hotter_bricks_higher() {
        let tier = TieredStore::new(Box::new(MemStore::new()), 1024);
        assert_eq!(tier.touch_recency("t", 1), None);
        tier.touch("t", 1);
        tier.touch("t", 2);
        let r1 = tier.touch_recency("t", 1).unwrap();
        let r2 = tier.touch_recency("t", 2).unwrap();
        assert!(r2 > r1);
        assert!(r2 <= 1.0);
        assert_eq!(tier.touch_recency("t", 3), None);
    }

    #[test]
    fn report_renders_the_storage_tier_section() {
        let tier = TieredStore::new(Box::new(MemStore::new()), 4096);
        tier.note_cache_serve();
        tier.note_spill_failure();
        tier.observe_resident_bytes(123);
        let mut report = ReportBuilder::new();
        tier.report_as(&mut report, "storage.tier");
        let text = report.finish();
        assert!(text.contains("[storage.tier]"), "{text}");
        assert!(text.contains("budget_bytes = 4096"), "{text}");
        assert!(text.contains("cache_serves = 1"), "{text}");
        assert!(text.contains("spill_failures = 1"), "{text}");
        assert!(text.contains("resident_bytes = 123"), "{text}");
    }
}
