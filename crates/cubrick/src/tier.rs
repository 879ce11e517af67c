//! Tiered brick storage: cold bricks evicted to a durable store under
//! a memory budget and faulted back in on demand.
//!
//! Residency is shard state. Each shard's map ([`ShardBricks`]) holds,
//! per cube and in ascending bid order, either a resident brick or a
//! [`SpilledBrick`] stub, and only the shard thread owning a brick
//! spills, reloads or forgets it — so no lock guards residency, and
//! [`ShardBricks::brick_mut`], the one way to a mutable brick, reloads
//! a spilled target before anything is written to it. This module
//! holds the transitions ([`SlotMut::fault_in`], [`SlotMut::spill`]),
//! the counters and gauges behind [`TierStats`], the eviction sweep,
//! and the seam to durable storage: the [`BrickStore`] trait, whose
//! production implementation (`wal::tier`, over the `WalFs` trait)
//! lives in the `wal` crate, which depends on this one.
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
//!   nothing (`oracle::torture` pins this).
//!
//! ## The snapshot memo survives eviction
//!
//! Spilling or reloading a brick changes where its rows live, not
//! which rows any snapshot sees, so neither edge touches the per-shard
//! snapshot memo ([`crate::memo`]). A memo hit answers for every brick
//! of its shard — spilled ones included — without reading the store.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aosi::{Epoch, EpochsVector};
use obs::{Counter, Gauge, Histogram, ReportBuilder};

use crate::brick::Brick;
use crate::cube::Cube;
use crate::shard::{ShardBricks, ShardPool, Slot, SlotMut, TaskHandle};

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

/// What a shard keeps of a brick it spilled.
pub(crate) struct SpilledBrick {
    /// The epochs vector as of eviction, generation included, so an
    /// export window can be checked against the brick while its
    /// columns are on disk.
    epochs: EpochsVector,
    /// Snapshot size on disk.
    file_bytes: u64,
    /// What the brick occupied in memory (the bytes eviction freed).
    resident_bytes: usize,
}

impl SpilledBrick {
    /// The epochs vector the brick had when it left memory.
    pub(crate) fn epochs(&self) -> &EpochsVector {
        &self.epochs
    }
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
    /// Spill attempts that failed (the brick stayed resident).
    pub spill_failures: u64,
    /// Reload attempts that failed (the query or mutation errored).
    pub reload_failures: u64,
}

/// The engine's cold tier, shared by every shard: the durable
/// [`BrickStore`], the memory budget, the touch clock eviction ranks
/// by, and the counters and gauges kept on spill, reload and forget.
pub(crate) struct TieredStore {
    store: Box<dyn BrickStore>,
    budget_bytes: usize,
    /// One clock for every shard, so eviction ranks bricks across
    /// shards by when they were last read.
    clock: AtomicU64,
    spills: Counter,
    reloads: Counter,
    spill_failures: Counter,
    reload_failures: Counter,
    /// Wall time of each [`BrickStore::spill`] call, failed ones too.
    spill_nanos: Histogram,
    /// Wall time of each [`BrickStore::reload`] call, failed ones too.
    reload_nanos: Histogram,
    /// Resident bytes after the last enforcement sweep.
    resident_bytes: Gauge,
    spilled_bricks: Gauge,
    spilled_file_bytes: Gauge,
    spilled_resident_bytes: Gauge,
}

impl TieredStore {
    /// Wraps a durable store under a memory budget.
    pub(crate) fn new(store: Box<dyn BrickStore>, budget_bytes: usize) -> Self {
        TieredStore {
            store,
            budget_bytes,
            clock: AtomicU64::new(0),
            spills: Counter::default(),
            reloads: Counter::default(),
            spill_failures: Counter::default(),
            reload_failures: Counter::default(),
            spill_nanos: Histogram::new(),
            reload_nanos: Histogram::new(),
            resident_bytes: Gauge::default(),
            spilled_bricks: Gauge::default(),
            spilled_file_bytes: Gauge::default(),
            spilled_resident_bytes: Gauge::default(),
        }
    }

    /// The next reading of the touch clock (never 0, which marks a
    /// brick no scan has read).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Puts a new stub on the spilled gauges.
    fn track(&self, stub: &SpilledBrick) {
        self.spilled_bricks.add(1);
        self.spilled_file_bytes.add(stub.file_bytes);
        self.spilled_resident_bytes.add(stub.resident_bytes as u64);
    }

    /// Takes a stub off the spilled gauges (reload or forget).
    fn untrack(&self, stub: &SpilledBrick) {
        self.spilled_bricks.sub(1);
        self.spilled_file_bytes.sub(stub.file_bytes);
        self.spilled_resident_bytes.sub(stub.resident_bytes as u64);
    }

    /// Forgets a spilled brick that leaves its shard (DDL drop,
    /// rebalance retire) and removes its snapshot.
    pub(crate) fn forget(&self, cube: &str, bid: u64, stub: &SpilledBrick) {
        self.untrack(stub);
        let _ = self.store.discard(cube, bid);
    }

    /// Point-in-time statistics.
    pub(crate) fn stats(&self) -> TierStats {
        TierStats {
            budget_bytes: self.budget_bytes,
            resident_bytes: self.resident_bytes.get(),
            spilled_bricks: self.spilled_bricks.get() as usize,
            spilled_file_bytes: self.spilled_file_bytes.get(),
            spilled_resident_bytes: self.spilled_resident_bytes.get(),
            spills: self.spills.get(),
            reloads: self.reloads.get(),
            spill_failures: self.spill_failures.get(),
            reload_failures: self.reload_failures.get(),
        }
    }

    /// Writes the `[<prefix>storage.tier]` report section.
    pub(crate) fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        report
            .section(section)
            .metric("budget_bytes", self.budget_bytes)
            .gauge("resident_bytes", &self.resident_bytes)
            .gauge("spilled_bricks", &self.spilled_bricks)
            .gauge("spilled_file_bytes", &self.spilled_file_bytes)
            .gauge("spilled_resident_bytes", &self.spilled_resident_bytes)
            .counter("spills", &self.spills)
            .counter("reloads", &self.reloads)
            .counter("spill_failures", &self.spill_failures)
            .counter("reload_failures", &self.reload_failures)
            .histogram("spill_nanos", &self.spill_nanos)
            .histogram("reload_nanos", &self.reload_nanos);
    }

    /// One eviction sweep judged at `lse`: while resident brick bytes
    /// exceed the budget, spill the coldest clean-cold bricks until
    /// the budget holds or candidates run out. Phase 1 is seeded by
    /// shard totals the caller already measured at that same `lse` (a
    /// load's append tasks); an older LSE never makes a brick
    /// eligible, so a brick that turns clean-cold meanwhile waits for
    /// the next sweep. A failed spill leaves its brick resident and is
    /// counted, never silent.
    pub(crate) fn sweep(
        &self,
        shards: &ShardPool,
        lse: Epoch,
        measured: &[Option<ShardBytes>],
    ) -> TierEnforcement {
        // Phase 1, after every load: two integers per shard — bytes
        // resident, and bytes of clean-cold bricks — with no
        // allocation, lock or sort, asked only of unmeasured shards.
        let pending: Vec<_> = (0..shards.num_shards())
            .map(|shard| match measured.get(shard).copied().flatten() {
                Some(bytes) => Ok(bytes),
                None => Err(shards.submit_handle(shard, move |b| shard_bytes(b, lse))),
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
        if resident_bytes <= self.budget_bytes as u64 || outcome.eligible_bytes == 0 {
            self.resident_bytes.set(resident_bytes);
            return outcome;
        }
        // Phase 2, only over budget: each shard names its clean-cold
        // bricks with their last touch; rank coldest-first (never
        // touched, then oldest touch; ties by cube and bid).
        let mut candidates: Vec<(u64, String, u64)> = shards
            .map_shards(|_| Box::new(move |bricks: &mut ShardBricks| clean_cold(bricks, lse)))
            .into_iter()
            .flatten()
            .collect();
        candidates.sort_unstable();
        for (_, cube, bid) in candidates {
            if outcome.resident_bytes_after <= self.budget_bytes as u64 {
                break;
            }
            let spilled = shards.submit_and_wait(shards.shard_of(bid), move |bricks| {
                bricks
                    .slot(&cube, bid)
                    .map_or(Ok(None), |slot| slot.spill(lse))
            });
            match spilled {
                Ok(Some(freed)) => {
                    outcome.evicted += 1;
                    outcome.resident_bytes_after =
                        outcome.resident_bytes_after.saturating_sub(freed as u64);
                }
                Ok(None) => {}
                Err(()) => outcome.failed += 1,
            }
        }
        self.resident_bytes.set(outcome.resident_bytes_after);
        outcome
    }
}

impl SlotMut<'_> {
    /// Reloads a spilled brick in place and stamps it with a fresh
    /// touch: `Ok(true)`. A resident brick is left alone: `Ok(false)`.
    /// Runs on the owning shard thread, which is what makes the
    /// check-reload-replace sequence race-free. Once the brick is
    /// back its snapshot is discarded best-effort; a leftover file is
    /// harmless (recovery never reads one, and the store's next open
    /// deletes it). A failed reload is counted and leaves the stub.
    pub(crate) fn fault_in(&mut self) -> Result<bool, String> {
        let Slot::Spilled(stub) = &*self.slot else {
            return Ok(false);
        };
        let tier = self.tier.expect("only a tiered shard holds spilled bricks");
        let started = Instant::now();
        let reloaded = tier.store.reload(self.cube, self.bid);
        tier.reload_nanos.record_duration(started.elapsed());
        let brick = reloaded.map_err(|e| {
            tier.reload_failures.inc();
            e.to_string()
        })?;
        tier.reloads.inc();
        tier.untrack(stub);
        let _ = tier.store.discard(self.cube.name(), self.bid);
        *self.slot = Slot::Resident {
            brick,
            touched: tier.tick(),
        };
        Ok(true)
    }

    /// Stamps a resident brick with the touch clock (the scan path:
    /// eviction ranks bricks by how recently queries read them). A
    /// no-op on an untiered shard.
    pub(crate) fn touch(&mut self) {
        if let (Some(tier), Slot::Resident { touched, .. }) = (self.tier, &mut *self.slot) {
            *touched = tier.tick();
        }
    }

    /// Spills the brick if it is still resident and clean-cold at
    /// `lse` — a write may have landed since the sweep named it. The
    /// snapshot is written first and the stub replaces the brick only
    /// once it is durable. Returns the bytes freed (`Ok(None)` when
    /// the brick is no longer eligible, `Err` when the durable write
    /// failed and the brick stayed resident). The snapshot memo is
    /// left alone: a spill changes where rows live, not which rows any
    /// snapshot sees.
    pub(crate) fn spill(self, lse: Epoch) -> Result<Option<usize>, ()> {
        let Slot::Resident { brick, .. } = &*self.slot else {
            return Ok(None);
        };
        if !is_clean_cold(brick, lse) {
            return Ok(None);
        }
        let tier = self.tier.expect("only a tiered shard spills");
        let started = Instant::now();
        let spilled = tier.store.spill(self.cube, self.bid, brick);
        tier.spill_nanos.record_duration(started.elapsed());
        let Ok(file_bytes) = spilled else {
            tier.spill_failures.inc();
            return Err(());
        };
        let m = brick.memory();
        let stub = SpilledBrick {
            epochs: brick.epochs().clone(),
            file_bytes,
            resident_bytes: m.data_bytes + m.aosi_bytes,
        };
        tier.spills.inc();
        tier.track(&stub);
        let freed = stub.resident_bytes;
        *self.slot = Slot::Spilled(stub);
        Ok(Some(freed))
    }
}

/// A shard's `(resident, clean-cold)` brick bytes: what phase 1 of
/// the sweep sums.
pub(crate) type ShardBytes = (u64, u64);

/// Whether a brick may be spilled: its newest epoch is at or below
/// the LSE, so it is immutable and fully durable in the WAL. Empty
/// bricks (newest epoch 0) are never worth a file.
fn is_clean_cold(brick: &Brick, lse: Epoch) -> bool {
    let newest = brick.epochs().entries().last().map_or(0, |e| e.epoch());
    newest != 0 && newest <= lse
}

/// One shard's `(resident, clean-cold)` brick bytes at `lse`.
pub(crate) fn shard_bytes(bricks: &ShardBricks, lse: Epoch) -> ShardBytes {
    let (mut resident, mut eligible) = (0u64, 0u64);
    for brick in bricks.resident() {
        let m = brick.memory();
        let bytes = (m.data_bytes + m.aosi_bytes) as u64;
        resident += bytes;
        if is_clean_cold(brick, lse) {
            eligible += bytes;
        }
    }
    (resident, eligible)
}

/// One shard's clean-cold bricks at `lse` as `(last touch, cube,
/// bid)` — the sweep's ranking key.
fn clean_cold(bricks: &ShardBricks, lse: Epoch) -> Vec<(u64, String, u64)> {
    bricks
        .slots()
        .filter_map(|(cube, bid, slot)| match slot {
            Slot::Resident { brick, touched } if is_clean_cold(brick, lse) => {
                Some((*touched, cube.to_owned(), bid))
            }
            _ => None,
        })
        .collect()
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
    snapshots: std::sync::Mutex<std::collections::HashMap<(String, u64), Brick>>,
}

#[cfg(test)]
impl MemStore {
    pub(crate) fn new() -> Self {
        MemStore {
            snapshots: std::sync::Mutex::default(),
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
        let mut snapshots = obs::sync::unpoison(self.snapshots.lock());
        snapshots.insert((cube.name().to_owned(), bid), clone);
        Ok(64)
    }

    fn reload(&self, cube: &Cube, bid: u64) -> Result<Brick, TierError> {
        let snapshots = obs::sync::unpoison(self.snapshots.lock());
        let stored = snapshots
            .get(&(cube.name().to_owned(), bid))
            .ok_or(TierError::Missing)?;
        Ok(Self::copy(cube.schema(), stored))
    }

    fn discard(&self, cube: &str, bid: u64) -> Result<(), TierError> {
        obs::sync::unpoison(self.snapshots.lock()).remove(&(cube.to_owned(), bid));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::brick::DimStorage;

    fn cube() -> Cube {
        let schema = crate::ddl::CubeSchema::new(
            "t",
            vec![crate::ddl::Dimension::int("d", 16, 4)],
            vec![crate::ddl::Metric::float("m")],
        )
        .unwrap();
        Cube::new(schema)
    }

    /// A shard on a tier of budget `budget_bytes`, holding brick `bid`
    /// of `t` for each `(bid, rows)` — every row appended at epoch 1.
    fn shard(budget_bytes: usize, bricks: &[(u64, usize)]) -> (Arc<TieredStore>, ShardBricks) {
        let tier = Arc::new(TieredStore::new(Box::new(MemStore::new()), budget_bytes));
        let mut shard = ShardBricks::default();
        shard.set_tier(Arc::clone(&tier));
        let cube = cube();
        for &(bid, rows) in bricks {
            let records: Vec<(Vec<u32>, Vec<columnar::Value>)> = (0..rows)
                .map(|i| (vec![(i % 16) as u32], vec![columnar::Value::F64(i as f64)]))
                .collect();
            let brick = shard.brick_mut(&cube, bid, DimStorage::Plain).unwrap();
            brick.append(1, &crate::ingest::RecordChunk::from_rows(&records));
        }
        (tier, shard)
    }

    #[test]
    fn a_slot_spills_reloads_and_forgets() {
        let (tier, mut shard) = shard(1024, &[(3, 8)]);
        let generation = shard.resident().next().unwrap().epochs().generation();

        // Dirty at LSE 0: nothing to do.
        assert_eq!(shard.slot("t", 3).unwrap().spill(0), Ok(None));
        let freed = shard.slot("t", 3).unwrap().spill(1).unwrap().unwrap();
        let stats = tier.stats();
        assert_eq!(
            (stats.spills, stats.spilled_bricks, stats.spilled_file_bytes),
            (1, 1, 64)
        );
        assert_eq!(stats.spilled_resident_bytes, freed as u64);
        assert_eq!(shard.resident().count(), 0);
        assert!(
            shard.contains("t", 3),
            "a spilled brick is still the shard's"
        );

        assert_eq!(shard.fault_in("t", 3), Ok(true));
        let reloaded = shard.resident().next().unwrap();
        assert_eq!(reloaded.row_count(), 8);
        assert_eq!(reloaded.epochs().generation(), generation);
        // Second call is a no-op: resident already.
        assert_eq!(shard.fault_in("t", 3), Ok(false));
        let stats = tier.stats();
        assert_eq!((stats.reloads, stats.spilled_bricks), (1, 0));
        assert_eq!(
            (stats.spilled_file_bytes, stats.spilled_resident_bytes),
            (0, 0)
        );

        // Forgetting a spilled brick removes its snapshot too.
        shard.slot("t", 3).unwrap().spill(1).unwrap();
        assert!(shard.remove("t", 3));
        assert!(!shard.remove("t", 3));
        assert_eq!(tier.stats().spilled_bricks, 0);
        assert_eq!(
            tier.store.reload(&cube(), 3).unwrap_err(),
            TierError::Missing
        );
    }

    #[test]
    fn reload_of_a_missing_snapshot_is_a_counted_failure() {
        let (tier, mut shard) = shard(1024, &[(9, 4)]);
        shard.slot("t", 9).unwrap().spill(1).unwrap();
        // Spilled, but the store lost the snapshot.
        tier.store.discard("t", 9).unwrap();
        let err = shard.fault_in("t", 9).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert_eq!(tier.stats().reload_failures, 1);
        // Still spilled — the brick is not silently forgotten, and no
        // empty brick took its place.
        assert_eq!(tier.stats().spilled_bricks, 1);
        assert_eq!(shard.resident().count(), 0);
        assert!(shard.contains("t", 9));
    }

    #[test]
    fn eviction_ranks_untouched_then_least_recently_read_bricks_first() {
        let (_, mut shard) = shard(1024, &[(1, 2), (2, 2), (5, 2)]);
        shard.slot("t", 2).unwrap().touch();
        shard.slot("t", 1).unwrap().touch();
        let order: Vec<u64> = {
            let mut ranked = clean_cold(&shard, 1);
            ranked.sort_unstable();
            ranked.into_iter().map(|(_, _, bid)| bid).collect()
        };
        assert_eq!(order, vec![5, 2, 1]);
        // A reload counts as a read.
        shard.slot("t", 2).unwrap().spill(1).unwrap();
        shard.fault_in("t", 2).unwrap();
        let mut ranked = clean_cold(&shard, 1);
        ranked.sort_unstable();
        assert_eq!(ranked.last().map(|c| c.2), Some(2));
        // Dirty at LSE 0: nothing is a candidate.
        assert!(clean_cold(&shard, 0).is_empty());
    }

    #[test]
    fn report_renders_the_storage_tier_section() {
        let (tier, mut shard) = shard(4096, &[(1, 4), (2, 4)]);
        shard.slot("t", 1).unwrap().spill(1).unwrap();
        shard.slot("t", 2).unwrap().spill(1).unwrap();
        shard.fault_in("t", 2).unwrap();
        tier.spill_failures.inc();
        tier.resident_bytes.set(123);
        let mut report = ReportBuilder::new();
        tier.report_as(&mut report, "storage.tier");
        let text = report.finish();
        for line in [
            "[storage.tier]",
            "budget_bytes = 4096",
            "spill_failures = 1",
            "resident_bytes = 123",
            "spilled_bricks = 1",
            "spilled_file_bytes = 64",
            "spills = 2",
            "reloads = 1",
            "spill_nanos.count = 2",
            "reload_nanos.count = 1",
        ] {
            assert!(text.contains(line), "{line} missing from:\n{text}");
        }
    }
}
