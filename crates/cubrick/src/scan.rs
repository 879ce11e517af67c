//! The scan executor: one [`ShardScan`] request per query, run once
//! on every shard thread.
//!
//! A shard owns its bricks, so it answers the whole request itself:
//! enumerate its bids (resident plus evicted), drop what the replica
//! router gave to another node, prune by coordinate range, and scan
//! the survivors in ascending bid order. Every query path — default,
//! sequential reference, per-brick partials — runs this one body and
//! differs only in what it does with the brick partials (`sink`) and
//! in whether the coordinator overlaps the shards.
//!
//! Bricks created *after* a shard enumerated are safe to miss: a
//! brick can only appear via a flush whose transaction either
//! committed before the snapshot was taken (its bricks already
//! existed) or is excluded by the snapshot's epoch/deps, so the rows
//! such a brick holds are invisible to the snapshot anyway. RU scans
//! have no snapshot and are best-effort by definition.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use aosi::Snapshot;

use crate::brick::Brick;
use crate::cube::Cube;
use crate::engine::{AggCache, BrickKey};
use crate::query::{AggQueryShape, CachedAgg, PartialResult, ResolvedQuery, ScanKernel};
use crate::shard::{shard_of, ShardBricks};
use crate::tier::TieredStore;

/// Replica routing: which bricks this node scans (see
/// [`crate::Engine::execute_partial_filtered`]). Owned and shareable
/// because it is evaluated on the shard threads.
pub(crate) type BrickFilter = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Everything a shard needs to answer one query for its own bricks.
/// Built once per query and shared by every shard's task.
pub(crate) struct ShardScan {
    pub(crate) cube: Cube,
    /// The cube's name as the caches key it.
    pub(crate) cube_key: Arc<str>,
    pub(crate) resolved: ResolvedQuery,
    /// `None` scans every stored row (read-uncommitted).
    pub(crate) snapshot: Option<Snapshot>,
    pub(crate) shape: Arc<AggQueryShape>,
    pub(crate) kernel: ScanKernel,
    pub(crate) agg_cache: Option<Arc<AggCache>>,
    pub(crate) tier: Option<Arc<TieredStore>>,
    /// Bricks the filter rejects are another replica's to scan.
    pub(crate) allowed: Option<BrickFilter>,
    /// Bids whose scan panics on purpose (test injection).
    pub(crate) panic_bids: HashSet<u64>,
    pub(crate) num_shards: usize,
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

/// What [`ShardScan::tier_prepare_brick`] decided about one brick.
enum TierPrepared {
    /// Nothing tiered to do: the brick is resident (or gone entirely,
    /// which the caller's own map lookup handles).
    Resident,
    /// The brick was evicted and has been faulted back in; scan it.
    Reloaded,
    /// The brick stays on disk: a warm aggregate-cache partial — keyed
    /// on the retained epochs vector, whose generation eviction
    /// preserved — answered for it.
    Served(PartialResult),
}

impl ShardScan {
    /// Answers the request for `shard`'s bricks. Must run on that
    /// shard's thread: owning the bricks is what makes enumeration,
    /// tier fault-in and the aggregate-cache probe race-free. Brick
    /// partials reach `sink` in ascending bid order.
    pub(crate) fn run(
        &self,
        shard: usize,
        bricks: &mut ShardBricks,
        mut sink: impl FnMut(PartialResult),
    ) -> Result<ShardScanOutcome, (u64, ScanFailure)> {
        let name = self.cube.name();
        let mut bids: Vec<u64> = bricks
            .get(name)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        // Evicted bricks are still part of the cube: they are faulted
        // in (or served from a warm aggregate partial) below.
        if let Some(tier) = &self.tier {
            let mine = |bid: &u64| shard_of(*bid, self.num_shards) == shard;
            bids.extend(tier.spilled_bids(name).into_iter().filter(mine));
        }
        bids.sort_unstable();
        bids.dedup();
        let mut outcome = ShardScanOutcome::default();
        for bid in bids {
            if self.allowed.as_ref().is_some_and(|allowed| !allowed(bid)) {
                continue;
            }
            if !self.resolved.brick_can_match(&self.cube, bid) {
                outcome.pruned += 1;
                continue;
            }
            outcome.bricks += 1;
            let key: BrickKey = (Arc::clone(&self.cube_key), bid);
            let reloaded = match self
                .tier_prepare_brick(bid, &key, bricks)
                .map_err(|reason| (bid, ScanFailure::TierReload(reason)))?
            {
                TierPrepared::Served(served) => {
                    sink(served);
                    continue;
                }
                TierPrepared::Resident => false,
                TierPrepared::Reloaded => true,
            };
            let Some(brick) = bricks.get(name).and_then(|m| m.get(&bid)) else {
                // Dropped between enumeration and scan (DDL).
                continue;
            };
            let started = Instant::now();
            // Per-brick `catch_unwind` keeps panic attribution exact:
            // the shard reports which brick blew up and keeps running.
            let mut scanned = catch_unwind(AssertUnwindSafe(|| {
                if self.panic_bids.contains(&bid) {
                    panic!("injected scan panic for brick {bid}");
                }
                self.scan_one_brick(brick, &key)
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

    /// Tiered storage's say before a brick is scanned. Resident bricks
    /// get a recency touch (feeding eviction ranking); evicted bricks
    /// are either answered from the aggregate cache without touching
    /// disk or faulted back in. `Err` carries the reload failure.
    fn tier_prepare_brick(
        &self,
        bid: u64,
        key: &BrickKey,
        bricks: &mut ShardBricks,
    ) -> Result<TierPrepared, String> {
        let Some(tier) = &self.tier else {
            return Ok(TierPrepared::Resident);
        };
        let name = self.cube.name();
        if bricks.get(name).is_some_and(|m| m.contains_key(&bid)) {
            tier.touch(name, bid);
            return Ok(TierPrepared::Resident);
        }
        if !tier.is_spilled(name, bid) {
            // Dropped between enumeration and scan (DDL): the caller's
            // map lookup skips it.
            return Ok(TierPrepared::Resident);
        }
        if let (Some(agg_cache), Some(snap)) = (&self.agg_cache, &self.snapshot) {
            if let Some(epochs) = tier.spilled_epochs(name, bid) {
                if let Some(cached) = agg_cache.peek(key, &epochs, snap, Arc::clone(&self.shape)) {
                    tier.note_cache_serve();
                    let mut partial = cached.replay();
                    partial.stats.tier_cache_serves = 1;
                    return Ok(TierPrepared::Served(partial));
                }
            }
        }
        tier.reload_into(&self.cube, bid, bricks)
            .map(|_| TierPrepared::Reloaded)
    }

    /// Scans one brick, consulting the aggregate cache first: a hit
    /// replays the brick's grouped [`crate::AggState`] table without
    /// touching the brick's columns (the visibility build is skipped
    /// too — the cached partial was keyed on the same generation +
    /// snapshot that a fresh build would use).
    ///
    /// RU scans (no snapshot) bypass the cache — there is no snapshot
    /// to key on.
    fn scan_one_brick(&self, brick: &Brick, key: &BrickKey) -> PartialResult {
        let (Some(agg_cache), Some(snap)) = (&self.agg_cache, &self.snapshot) else {
            return self.scan_one_brick_uncached(brick);
        };
        // On a miss the builder runs the real scan and hands the cache
        // a scrubbed capture, keeping the full partial (live work
        // counters included) for this query's own result.
        let mut fresh: Option<PartialResult> = None;
        let (cached, _hit) =
            agg_cache.get_or_build(key, brick.epochs(), snap, Arc::clone(&self.shape), || {
                let scanned = self.scan_one_brick_uncached(brick);
                let captured = CachedAgg::capture(&scanned);
                fresh = Some(scanned);
                captured
            });
        match fresh {
            Some(mut scanned) => {
                scanned.stats.agg_cache_misses = 1;
                scanned
            }
            None => cached.replay(),
        }
    }

    /// Scans one brick under the request's snapshot. Each kernel has
    /// exactly one visibility representation, recomputed per scan from
    /// the brick's epochs vector: the vectorized kernel walks the
    /// visible ranges (no bitmap is ever built), the row-at-a-time
    /// reference walks the visibility bitmap — so every oracle
    /// comparison is also a ranges-vs-bitmap differential. RU scans
    /// (no snapshot) see every stored row.
    fn scan_one_brick_uncached(&self, brick: &Brick) -> PartialResult {
        let resolved = &self.resolved;
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
                crate::query::scan_brick_ranges_vectorized(brick, &ranges, resolved)
            }
            ScanKernel::RowAtATime => {
                let visibility =
                    snapshot.map_or_else(|| brick.all_rows(), |snap| brick.visibility(snap));
                scan_started = Instant::now();
                crate::query::scan_brick_shared(brick, &visibility, resolved)
            }
        };
        scanned.stats.visibility_build_nanos = (scan_started - vis_started).as_nanos() as u64;
        scanned.stats.scan_nanos = scan_started.elapsed().as_nanos() as u64;
        scanned
    }
}
