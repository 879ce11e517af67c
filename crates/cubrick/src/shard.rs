//! Bid-sharded single-writer execution (Section V-B, "Flushing").
//!
//! "In order to avoid synchronization when multiple parallel
//! transactions are required to append records to the same bricks,
//! all bricks are sharded based on bid … Each shard has an input
//! queue where all brick operations should be placed, such as
//! queries, insertions, deletions and purges, and a single thread
//! consumes and applies the operations to the in-memory objects.
//! Furthermore, since all operations on a brick (shard) are applied
//! by a single thread, no low-level locking is required."
//!
//! A [`ShardPool`] is exactly that: N worker threads, each owning the
//! bricks whose `bid % N` equals its index — resident or spilled to
//! the cold tier, in one bid-ordered map per cube ([`ShardBricks`]) —
//! fed through a `std::sync::mpsc` channel of boxed operations (its
//! input queue).
//! Waited tasks answer on a one-slot reply channel. Scans parallelize
//! naturally across shards; appends to one brick serialize in queue
//! order, which is also what gives the transaction manager its
//! ordering assumption.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use aosi::EpochsVector;
use obs::{Counter, ReportBuilder};

use crate::brick::{Brick, DimStorage};
use crate::cube::Cube;
use crate::tier::{SpilledBrick, TieredStore};

/// Where one brick of a shard lives (see [`crate::tier`]).
pub(crate) enum Slot {
    /// In memory. `touched` is the tier clock's reading at the brick's
    /// last scan or reload (0: never read), what eviction ranks by.
    Resident { brick: Brick, touched: u64 },
    /// Evicted to the cold tier.
    Spilled(SpilledBrick),
}

impl Slot {
    fn brick(&self) -> Option<&Brick> {
        match self {
            Slot::Resident { brick, .. } => Some(brick),
            Slot::Spilled(_) => None,
        }
    }

    fn brick_mut(&mut self) -> Option<&mut Brick> {
        match self {
            Slot::Resident { brick, .. } => Some(brick),
            Slot::Spilled(_) => None,
        }
    }
}

/// One cube's bricks on a shard, ascending by bid.
struct CubeBricks {
    /// The cube the bricks belong to: what a reload decodes against.
    cube: Cube,
    slots: BTreeMap<u64, Slot>,
}

impl CubeBricks {
    fn walk<'a>(&'a mut self, tier: Option<&'a TieredStore>) -> impl Iterator<Item = SlotMut<'a>> {
        let cube = &self.cube;
        (self.slots.iter_mut()).map(move |(&bid, slot)| SlotMut {
            bid,
            cube,
            slot,
            tier,
        })
    }
}

/// The bricks owned by one shard thread: per cube, every brick the
/// shard holds in ascending bid order, resident or spilled. Residency
/// is the shard's own state, so the thread that owns a brick is the
/// only one that spills or reloads it — no lock involved.
#[derive(Default)]
pub struct ShardBricks {
    cubes: HashMap<String, CubeBricks>,
    /// The engine's cold tier, when tiered storage is enabled.
    tier: Option<Arc<TieredStore>>,
}

/// One brick's place in its shard's map, with what a residency change
/// needs: the brick's cube and the shard's tier.
pub(crate) struct SlotMut<'a> {
    pub(crate) bid: u64,
    pub(crate) cube: &'a Cube,
    pub(crate) slot: &'a mut Slot,
    pub(crate) tier: Option<&'a TieredStore>,
}

impl<'a> SlotMut<'a> {
    /// The brick's epochs vector, whether it is resident or spilled.
    pub(crate) fn epochs(&self) -> &EpochsVector {
        match &*self.slot {
            Slot::Resident { brick, .. } => brick.epochs(),
            Slot::Spilled(stub) => stub.epochs(),
        }
    }

    /// The brick, reloaded first if spilled; `true` when it was.
    pub(crate) fn load(mut self) -> Result<(&'a mut Brick, bool), String> {
        let reloaded = self.fault_in()?;
        let brick = self.slot.brick_mut().expect("resident after fault-in");
        Ok((brick, reloaded))
    }

    /// [`SlotMut::load`] for a scan: a brick that was already
    /// resident is touched, so eviction keeps the bricks queries read.
    pub(crate) fn read(mut self) -> Result<(&'a Brick, bool), String> {
        let reloaded = self.fault_in()?;
        if !reloaded {
            self.touch();
        }
        let brick = self.slot.brick().expect("resident after fault-in");
        Ok((brick, reloaded))
    }
}

impl ShardBricks {
    /// Puts this shard's bricks under the engine's cold tier.
    pub(crate) fn set_tier(&mut self, tier: Arc<TieredStore>) {
        self.tier = Some(tier);
    }

    /// `cube`'s bricks on this shard, ascending by bid.
    pub(crate) fn walk(&mut self, cube: &str) -> impl Iterator<Item = SlotMut<'_>> {
        let tier = self.tier.as_deref();
        (self.cubes.get_mut(cube).into_iter()).flat_map(move |bricks| bricks.walk(tier))
    }

    /// Every cube's bricks on this shard, each cube's ascending by bid.
    pub(crate) fn walk_all(&mut self) -> impl Iterator<Item = SlotMut<'_>> {
        let tier = self.tier.as_deref();
        (self.cubes.values_mut()).flat_map(move |bricks| bricks.walk(tier))
    }

    /// Brick `bid` of `cube`, if this shard holds it.
    pub(crate) fn slot(&mut self, cube: &str, bid: u64) -> Option<SlotMut<'_>> {
        let tier = self.tier.as_deref();
        let CubeBricks { cube, slots } = self.cubes.get_mut(cube)?;
        let slot = slots.get_mut(&bid)?;
        Some(SlotMut {
            bid,
            cube,
            slot,
            tier,
        })
    }

    /// Every brick with its cube and bid (each cube's ascending by bid).
    pub(crate) fn slots(&self) -> impl Iterator<Item = (&str, u64, &Slot)> {
        (self.cubes.iter()).flat_map(|(name, bricks)| {
            (bricks.slots.iter()).map(move |(&bid, slot)| (name.as_str(), bid, slot))
        })
    }

    /// Every resident brick.
    pub(crate) fn resident(&self) -> impl Iterator<Item = &Brick> {
        self.slots().filter_map(|(_, _, slot)| slot.brick())
    }

    /// Every resident brick, mutably.
    pub(crate) fn resident_mut(&mut self) -> impl Iterator<Item = &mut Brick> {
        (self.cubes.values_mut())
            .flat_map(|bricks| bricks.slots.values_mut())
            .filter_map(Slot::brick_mut)
    }

    /// The resident brick `bid` of every cube.
    pub(crate) fn resident_at(&mut self, bid: u64) -> impl Iterator<Item = &mut Brick> {
        (self.cubes.values_mut()).filter_map(move |bricks| bricks.slots.get_mut(&bid)?.brick_mut())
    }

    /// Whether this shard holds brick `bid` of `cube`, spilled or not.
    pub(crate) fn contains(&self, cube: &str, bid: u64) -> bool {
        (self.cubes.get(cube)).is_some_and(|bricks| bricks.slots.contains_key(&bid))
    }

    /// The bids of `cube` this shard holds, ascending.
    pub(crate) fn bids(&self, cube: &str) -> Vec<u64> {
        (self.cubes.get(cube))
            .map_or_else(Vec::new, |bricks| bricks.slots.keys().copied().collect())
    }

    /// Reloads brick `bid` of `cube` if it is spilled; `true` when it
    /// was. A task that writes to several bricks faults every target
    /// in first, so a failed reload fails it before anything lands.
    pub(crate) fn fault_in(&mut self, cube: &str, bid: u64) -> Result<bool, String> {
        self.slot(cube, bid)
            .map_or(Ok(false), |mut slot| slot.fault_in())
    }

    /// Brick `bid` of `cube` — reloaded if spilled, materialized empty
    /// on first use. The one way to a mutable brick by id: how every
    /// append path (load, recovery, handoff) finds its target, so no
    /// write can land in a fresh brick beside spilled rows.
    pub fn brick_mut(
        &mut self,
        cube: &Cube,
        bid: u64,
        storage: DimStorage,
    ) -> Result<&mut Brick, String> {
        // `entry` would allocate the cube's name on every call; only a
        // cube's first brick on a shard inserts.
        if !self.cubes.contains_key(cube.name()) {
            let bricks = CubeBricks {
                cube: cube.clone(),
                slots: BTreeMap::new(),
            };
            self.cubes.insert(cube.name().to_owned(), bricks);
        }
        let tier = self.tier.as_deref();
        let bricks = self.cubes.get_mut(cube.name()).expect("inserted above");
        let slot = bricks.slots.entry(bid).or_insert_with(|| Slot::Resident {
            brick: Brick::with_storage(cube.schema(), storage),
            touched: 0,
        });
        let slot = SlotMut {
            bid,
            cube: &bricks.cube,
            slot,
            tier,
        };
        slot.load().map(|(brick, _)| brick)
    }

    /// Removes brick `bid` of `cube`, discarding its snapshot if it is
    /// spilled. Returns whether the shard held it.
    pub(crate) fn remove(&mut self, cube: &str, bid: u64) -> bool {
        let Some(slot) = (self.cubes.get_mut(cube)).and_then(|bricks| bricks.slots.remove(&bid))
        else {
            return false;
        };
        self.forget(cube, bid, &slot);
        true
    }

    /// Removes every brick of `cube`, discarding the spilled ones'
    /// snapshots.
    pub(crate) fn remove_cube(&mut self, cube: &str) {
        if let Some(bricks) = self.cubes.remove(cube) {
            for (bid, slot) in &bricks.slots {
                self.forget(cube, *bid, slot);
            }
        }
    }

    fn forget(&self, cube: &str, bid: u64, slot: &Slot) {
        if let (Some(tier), Slot::Spilled(stub)) = (&self.tier, slot) {
            tier.forget(cube, bid, stub);
        }
    }
}

type Task = Box<dyn FnOnce(&mut ShardBricks) + Send>;

/// Per-pool lock-free counters (shared with the worker threads).
#[derive(Debug)]
struct PoolMetrics {
    /// Tasks executed, per shard.
    tasks: Vec<Counter>,
    /// Tasks queued but not yet taken, per shard: raised before each
    /// send and lowered right after the matching receive (std's
    /// `Sender` has no `len`). A statistic that publishes no other
    /// data, hence `Relaxed`; the send/receive pair orders the raise
    /// before its lowering, so it never underflows.
    queued: Vec<AtomicUsize>,
    /// Task panics caught (the shard survives each one).
    panics: Counter,
}

/// A pool of single-writer shard threads.
///
/// Workers are panic-safe: a panicking task is caught, counted, and
/// the shard keeps consuming its queue — one poisoned operation must
/// not take down the single thread that owns a slice of every cube's
/// bricks. Waited tasks ([`ShardPool::submit_and_wait`] /
/// [`ShardPool::map_shards`]) re-raise the panic on the calling
/// thread instead. A panicking task may leave its own partial writes
/// behind (same as before the catch — there is no rollback here);
/// isolation of such writes is the transaction layer's job.
pub struct ShardPool {
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
    metrics: Arc<PoolMetrics>,
}

impl ShardPool {
    /// Spawns `num_shards` worker threads.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let metrics = Arc::new(PoolMetrics {
            tasks: (0..num_shards).map(|_| Counter::new()).collect(),
            queued: (0..num_shards).map(|_| AtomicUsize::new(0)).collect(),
            panics: Counter::new(),
        });
        let mut senders = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let (tx, rx) = channel::<Task>();
            senders.push(tx);
            let metrics = Arc::clone(&metrics);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cubrick-shard-{shard}"))
                    .spawn(move || {
                        let mut bricks = ShardBricks::default();
                        // Channel closure (all senders dropped) ends
                        // the shard.
                        while let Ok(task) = rx.recv() {
                            metrics.queued[shard].fetch_sub(1, Ordering::Relaxed);
                            metrics.tasks[shard].inc();
                            if catch_unwind(AssertUnwindSafe(|| task(&mut bricks))).is_err() {
                                metrics.panics.inc();
                            }
                        }
                    })
                    .expect("spawn shard thread"),
            );
        }
        ShardPool {
            senders,
            handles,
            metrics,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard owning `bid`.
    pub fn shard_of(&self, bid: u64) -> usize {
        (bid % self.senders.len() as u64) as usize
    }

    /// Enqueues `task` on `shard` without waiting (recovery and
    /// handoff installs queue their imports this way, then barrier).
    pub fn submit(&self, shard: usize, task: impl FnOnce(&mut ShardBricks) + Send + 'static) {
        self.metrics.queued[shard].fetch_add(1, Ordering::Relaxed);
        self.senders[shard]
            .send(Box::new(task))
            .expect("shard thread alive");
    }

    /// Runs `task` on `shard` and waits for its result. If the task
    /// panics, the panic is re-raised here (the shard itself stays
    /// alive).
    pub fn submit_and_wait<R: Send + 'static>(
        &self,
        shard: usize,
        task: impl FnOnce(&mut ShardBricks) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = sync_channel(1);
        self.submit(shard, move |bricks| {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| task(bricks))));
        });
        self.unwrap_waited(rx.recv().expect("shard thread alive"))
    }

    /// Enqueues `task` on `shard` and returns a [`TaskHandle`] that
    /// yields the task's outcome on [`TaskHandle::join`].
    ///
    /// Unlike [`ShardPool::submit_and_wait`], a panicking task is
    /// surfaced as `Err(payload)` at the join instead of being
    /// re-raised — the caller decides what a failed task means. The
    /// panic is still counted by the pool and the shard stays alive.
    ///
    /// Handles joined in submission order yield deterministic merges
    /// regardless of which shard finishes first — this is how the
    /// engine keeps overlapped shard scans byte-identical to the
    /// sequential reference.
    pub fn submit_handle<R: Send + 'static>(
        &self,
        shard: usize,
        task: impl FnOnce(&mut ShardBricks) -> R + Send + 'static,
    ) -> TaskHandle<R> {
        let (tx, rx) = sync_channel(1);
        let metrics = Arc::clone(&self.metrics);
        self.submit(shard, move |bricks| {
            let outcome = catch_unwind(AssertUnwindSafe(|| task(bricks)));
            if outcome.is_err() {
                metrics.panics.inc();
            }
            let _ = tx.send(outcome);
        });
        TaskHandle { rx }
    }

    /// Runs `make_task(shard)` on every shard concurrently and
    /// collects the results in shard order. This is how scans fan
    /// out: each shard walks its own bricks in parallel.
    pub fn map_shards<R, F>(&self, make_task: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> Box<dyn FnOnce(&mut ShardBricks) -> R + Send>,
    {
        let mut receivers = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let task = make_task(shard);
            let (tx, rx) = sync_channel(1);
            self.submit(shard, move |bricks| {
                let _ = tx.send(catch_unwind(AssertUnwindSafe(|| task(bricks))));
            });
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .map(|rx| self.unwrap_waited(rx.recv().expect("shard thread alive")))
            .collect()
    }

    /// Unwraps a waited task's outcome, counting and re-raising a
    /// caught panic on the calling thread.
    fn unwrap_waited<R>(&self, outcome: std::thread::Result<R>) -> R {
        match outcome {
            Ok(r) => r,
            Err(payload) => {
                self.metrics.panics.inc();
                resume_unwind(payload)
            }
        }
    }

    /// Task panics caught so far (fire-and-forget and waited).
    pub fn panics_caught(&self) -> u64 {
        self.metrics.panics.get()
    }

    /// Counts a panic a task caught itself, to name what failed.
    pub(crate) fn count_panic(&self) {
        self.metrics.panics.inc();
    }

    /// Writes the shard-pool report section: pool totals plus
    /// per-shard executed-task counts and instantaneous queue depths.
    pub(crate) fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        let depth = |shard: usize| self.metrics.queued[shard].load(Ordering::Relaxed);
        let queue_depth: usize = (0..self.senders.len()).map(depth).sum();
        let tasks: u64 = self.metrics.tasks.iter().map(Counter::get).sum();
        report
            .section(section)
            .metric("shards", self.senders.len())
            .metric("tasks", tasks)
            .metric("queue_depth", queue_depth)
            .counter("panics_caught", &self.metrics.panics);
        for shard in 0..self.senders.len() {
            report
                .metric(
                    &format!("shard{shard}.tasks"),
                    self.metrics.tasks[shard].get(),
                )
                .metric(&format!("shard{shard}.queue_depth"), depth(shard));
        }
    }

    /// Blocks until every operation enqueued before this call has
    /// been applied (a queue barrier across all shards).
    pub fn drain(&self) {
        for shard in 0..self.senders.len() {
            self.submit_and_wait(shard, |_| ());
        }
    }
}

/// A pending tracked submission (see [`ShardPool::submit_handle`]).
pub struct TaskHandle<R> {
    rx: Receiver<std::thread::Result<R>>,
}

impl<R> TaskHandle<R> {
    /// Waits for the task's outcome. `Err` carries the payload of a
    /// task that panicked (already counted by the pool).
    pub fn join(self) -> std::thread::Result<R> {
        self.rx.recv().expect("shard thread alive")
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::ingest::RecordChunk;
    use columnar::Value;

    fn schema() -> CubeSchema {
        CubeSchema::new(
            "t",
            vec![Dimension::int("d", 16, 1)],
            vec![Metric::int("m")],
        )
        .unwrap()
    }

    #[test]
    fn shard_of_partitions_bids() {
        let pool = ShardPool::new(4);
        assert_eq!(pool.shard_of(0), 0);
        assert_eq!(pool.shard_of(5), 1);
        assert_eq!(pool.shard_of(7), 3);
        assert_eq!(pool.num_shards(), 4);
    }

    #[test]
    fn submit_and_wait_roundtrips() {
        let pool = ShardPool::new(2);
        let answer = pool.submit_and_wait(1, |_| 42);
        assert_eq!(answer, 42);
    }

    #[test]
    fn operations_on_one_shard_apply_in_order() {
        let pool = ShardPool::new(1);
        let cube = Cube::new(schema());
        for i in 0..100i64 {
            let cube = cube.clone();
            pool.submit(0, move |bricks| {
                let brick = bricks.brick_mut(&cube, 0, DimStorage::Plain).unwrap();
                brick.append(
                    1,
                    &RecordChunk::from_rows(&[(vec![(i % 16) as u32], vec![Value::I64(i)])]),
                );
            });
        }
        let values = pool.submit_and_wait(0, |bricks| {
            let brick = bricks.resident().next().unwrap();
            (0..brick.row_count() as usize)
                .map(|r| brick.metric_column(0).get_i64(r).unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(values, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn map_shards_collects_from_all() {
        let pool = ShardPool::new(3);
        let ids = pool.map_shards(|shard| Box::new(move |_: &mut ShardBricks| shard * 10));
        assert_eq!(ids, vec![0, 10, 20]);
    }

    #[test]
    fn drain_flushes_pending_work() {
        let pool = ShardPool::new(2);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for shard in 0..2 {
            let flag = std::sync::Arc::clone(&flag);
            pool.submit(shard, move |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = ShardPool::new(4);
        pool.submit(0, |_| ());
        drop(pool);
    }

    #[test]
    fn panicking_task_does_not_kill_the_shard() {
        let pool = ShardPool::new(2);
        // Fire-and-forget panic: the worker catches it and keeps
        // consuming its queue.
        pool.submit(0, |_| panic!("boom"));
        assert_eq!(pool.submit_and_wait(0, |_| 7), 7);
        assert_eq!(pool.panics_caught(), 1);

        // Waited panic: re-raised on the caller, shard still alive.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.submit_and_wait(0, |_| -> usize { panic!("waited boom") })
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        assert_eq!(pool.submit_and_wait(0, |_| 9), 9);

        // map_shards re-raises too, and the whole pool survives.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_shards(|shard| {
                Box::new(move |_: &mut ShardBricks| {
                    if shard == 1 {
                        panic!("shard 1 boom");
                    }
                    shard
                })
            })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.panics_caught(), 3);
        let ids = pool.map_shards(|shard| Box::new(move |_: &mut ShardBricks| shard));
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn submit_handle_joins_in_submission_order_and_surfaces_panics() {
        let pool = ShardPool::new(2);
        // Submit out of shard order; joining the handles in submission
        // order must return results in submission order even though
        // the two shards race.
        let handles: Vec<_> = (0..10u64)
            .map(|i| {
                pool.submit_handle(pool.shard_of(i), move |_| {
                    if i % 2 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i
                })
            })
            .collect();
        let joined: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(joined, (0..10).collect::<Vec<_>>());

        // A panicking task is an Err at the join — not a re-raise —
        // and is counted; the shard survives.
        let h = pool.submit_handle(0, |_| -> u64 { panic!("handle boom") });
        assert!(h.join().is_err());
        assert_eq!(pool.panics_caught(), 1);
        assert_eq!(pool.submit_and_wait(0, |_| 3), 3);
    }

    #[test]
    fn report_covers_tasks_and_queues() {
        let pool = ShardPool::new(2);
        pool.submit_and_wait(0, |_| ());
        pool.submit_and_wait(1, |_| ());
        let mut report = ReportBuilder::new();
        pool.report_as(&mut report, "shards");
        let text = report.finish();
        assert!(text.contains("[shards]"), "report:\n{text}");
        assert!(text.contains("shards = 2"), "report:\n{text}");
        assert!(text.contains("tasks = 2"), "report:\n{text}");
        assert!(text.contains("shard0.tasks = 1"), "report:\n{text}");
        assert!(text.contains("queue_depth = 0"), "report:\n{text}");
        assert!(text.contains("panics_caught = 0"), "report:\n{text}");
    }

    /// The queue-depth lines of the pool's report, as (total, shard 0,
    /// shard 1).
    fn queue_depths(pool: &ShardPool) -> (String, String, String) {
        let mut report = ReportBuilder::new();
        pool.report_as(&mut report, "shards");
        let text = report.finish();
        let line = |name: &str| {
            text.lines()
                .find(|l| l.starts_with(&format!("{name} = ")))
                .unwrap_or_else(|| panic!("no {name} in report:\n{text}"))
                .to_owned()
        };
        (
            line("queue_depth"),
            line("shard0.queue_depth"),
            line("shard1.queue_depth"),
        )
    }

    #[test]
    fn queue_depth_counts_tasks_behind_a_wedged_shard() {
        const QUEUED: usize = 5;
        let pool = ShardPool::new(2);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(0, move |_| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        // The wedge is off the queue and running; only what follows
        // it is queued.
        started_rx.recv().unwrap();
        for _ in 0..QUEUED {
            pool.submit(0, |_| ());
        }
        assert_eq!(
            queue_depths(&pool),
            (
                format!("queue_depth = {QUEUED}"),
                format!("shard0.queue_depth = {QUEUED}"),
                "shard1.queue_depth = 0".to_owned(),
            )
        );

        release_tx.send(()).unwrap();
        pool.drain();
        assert_eq!(
            queue_depths(&pool),
            (
                "queue_depth = 0".to_owned(),
                "shard0.queue_depth = 0".to_owned(),
                "shard1.queue_depth = 0".to_owned(),
            )
        );
    }

    /// A shard thread that acks its last task and loops back into
    /// `recv` while the owner drops the pool must still see the
    /// disconnect, or `drop` joins forever. Each drop runs on a helper
    /// thread, so a lost wakeup fails the test instead of hanging it.
    #[test]
    fn drop_right_after_waited_tasks_always_joins() {
        for round in 0..20_000 {
            let pool = ShardPool::new(2);
            for shard in 0..2 {
                pool.submit_and_wait(shard, |_| ());
            }
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let dropper = std::thread::spawn(move || {
                drop(pool);
                done_tx.send(()).unwrap();
            });
            assert!(
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .is_ok(),
                "round {round}: dropping the pool did not join its shards"
            );
            dropper.join().unwrap();
        }
    }
}
