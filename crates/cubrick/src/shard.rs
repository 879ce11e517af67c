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
//! bricks whose `bid % N` equals its index, fed through an unbounded
//! channel of boxed operations. Scans parallelize naturally across
//! shards; appends to one brick serialize in queue order, which is
//! also what gives the transaction manager its ordering assumption.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use obs::{Counter, ReportBuilder};

use crate::brick::{Brick, DimStorage};
use crate::cube::Cube;

/// The bricks owned by one shard thread: `cube name -> bid -> brick`.
pub type ShardBricks = HashMap<String, HashMap<u64, Brick>>;

type Task = Box<dyn FnOnce(&mut ShardBricks) + Send>;

/// Brick `bid` of `cube` on this shard, materialized empty on first
/// use — how every append path (load, recovery, handoff) finds its
/// target.
pub(crate) fn brick_mut<'a>(
    bricks: &'a mut ShardBricks,
    cube: &Cube,
    bid: u64,
    storage: DimStorage,
) -> &'a mut Brick {
    // `entry` would allocate the cube's name on every call; only a
    // cube's first brick on a shard inserts.
    if !bricks.contains_key(cube.name()) {
        bricks.insert(cube.name().to_owned(), HashMap::new());
    }
    bricks
        .get_mut(cube.name())
        .expect("inserted above")
        .entry(bid)
        .or_insert_with(|| Brick::with_storage(cube.schema(), storage))
}

/// Per-pool lock-free counters (shared with the worker threads).
#[derive(Debug)]
struct PoolMetrics {
    /// Tasks executed, per shard.
    tasks: Vec<Counter>,
    /// Task panics caught (the shard survives each one).
    panics: Counter,
}

/// The shard owning `bid` in a pool of `num_shards` (callable from a
/// shard thread, which must not hold the pool itself).
pub(crate) fn shard_of(bid: u64, num_shards: usize) -> usize {
    (bid % num_shards as u64) as usize
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
            panics: Counter::new(),
        });
        let mut senders = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let (tx, rx) = unbounded::<Task>();
            senders.push(tx);
            let metrics = Arc::clone(&metrics);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("cubrick-shard-{shard}"))
                    .spawn(move || {
                        let mut bricks = ShardBricks::new();
                        // Channel closure (all senders dropped) ends
                        // the shard.
                        while let Ok(task) = rx.recv() {
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
        shard_of(bid, self.senders.len())
    }

    /// Enqueues `task` on `shard` without waiting (recovery and
    /// handoff installs queue their imports this way, then barrier).
    pub fn submit(&self, shard: usize, task: impl FnOnce(&mut ShardBricks) + Send + 'static) {
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
        let (tx, rx) = unbounded();
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
        let (tx, rx) = unbounded();
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
            let (tx, rx) = unbounded();
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
        let queue_depth: usize = self.senders.iter().map(Sender::len).sum();
        let tasks: u64 = self.metrics.tasks.iter().map(Counter::get).sum();
        report
            .section(section)
            .metric("shards", self.senders.len())
            .metric("tasks", tasks)
            .metric("queue_depth", queue_depth)
            .counter("panics_caught", &self.metrics.panics);
        for (shard, sender) in self.senders.iter().enumerate() {
            report
                .metric(
                    &format!("shard{shard}.tasks"),
                    self.metrics.tasks[shard].get(),
                )
                .metric(&format!("shard{shard}.queue_depth"), sender.len());
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
        let schema = schema();
        for i in 0..100i64 {
            let schema = schema.clone();
            pool.submit(0, move |bricks| {
                let brick = bricks
                    .entry("t".into())
                    .or_default()
                    .entry(0)
                    .or_insert_with(|| Brick::new(&schema));
                brick.append(
                    1,
                    &RecordChunk::from_rows(&[(vec![(i % 16) as u32], vec![Value::I64(i)])]),
                );
            });
        }
        let values = pool.submit_and_wait(0, |bricks| {
            let brick = &bricks["t"][&0];
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
}
