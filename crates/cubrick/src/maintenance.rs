//! Background maintenance: the periodic purge procedure.
//!
//! "The proper data removal is conducted by a background procedure
//! (purge) at a later time when all prior transactions have already
//! finished" (Section III-C2). [`PurgeDaemon`] runs that loop: on a
//! fixed cadence it purges every brick at the node's current LSE —
//! and, for standalone in-memory deployments with no flush/replica
//! gating, it can also advance LSE to LCE first.
//!
//! Durable deployments keep `advance_lse` **off** and let the
//! `wal::FlushController` own LSE (Section III-D's replica gating);
//! the daemon then only reclaims what the flush machinery has already
//! declared safe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{Engine, PurgeStats};
use crate::shard::ShardBricks;
use crate::tier::TierEnforcement;

/// Handle to a running background purge loop. Dropping it stops the
/// loop and joins the thread.
pub struct PurgeDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    cycles: Arc<AtomicU64>,
    rows_purged: Arc<AtomicU64>,
    entries_reclaimed: Arc<AtomicU64>,
}

impl PurgeDaemon {
    /// Spawns a purge loop over `engine` with the given cadence.
    /// `advance_lse` selects standalone mode (LSE chases LCE) vs.
    /// durable mode (LSE owned by the flush machinery).
    pub fn spawn(engine: Arc<Engine>, interval: Duration, advance_lse: bool) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cycles = Arc::new(AtomicU64::new(0));
        let rows_purged = Arc::new(AtomicU64::new(0));
        let entries_reclaimed = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let cycles = Arc::clone(&cycles);
            let rows_purged = Arc::clone(&rows_purged);
            let entries_reclaimed = Arc::clone(&entries_reclaimed);
            std::thread::Builder::new()
                .name("cubrick-purge".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let stats = if advance_lse {
                            engine.advance_lse_and_purge()
                        } else {
                            engine.purge()
                        };
                        cycles.fetch_add(1, Ordering::Relaxed);
                        rows_purged.fetch_add(stats.rows_purged, Ordering::Relaxed);
                        entries_reclaimed.fetch_add(stats.entries_reclaimed, Ordering::Relaxed);
                        // Sleep in small slices so drop() is prompt.
                        let mut remaining = interval;
                        while !stop.load(Ordering::Relaxed) && !remaining.is_zero() {
                            let nap = remaining.min(Duration::from_millis(10));
                            std::thread::sleep(nap);
                            remaining = remaining.saturating_sub(nap);
                        }
                    }
                })
                .expect("spawn purge daemon")
        };
        PurgeDaemon {
            stop,
            handle: Some(handle),
            cycles,
            rows_purged,
            entries_reclaimed,
        }
    }

    /// Totals reclaimed so far.
    pub fn stats(&self) -> PurgeStats {
        PurgeStats {
            rows_purged: self.rows_purged.load(Ordering::Relaxed),
            entries_reclaimed: self.entries_reclaimed.load(Ordering::Relaxed),
            bricks_changed: 0,
        }
    }

    /// Purge cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Stops the loop, joins the thread and returns the final totals
    /// and cycle count: every cycle has finished adding to them.
    pub fn stop(mut self) -> (PurgeStats, u64) {
        self.shutdown();
        (self.stats(), self.cycles())
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PurgeDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Engine {
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
        (self.tier.as_ref()).map_or_else(TierEnforcement::default, |tier| {
            tier.sweep(&self.shards, self.manager.lse(), &[])
        })
    }

    /// Runs one purge cycle at the current LSE over every brick
    /// (Section III-C4), and drops the memoized answers no reader at
    /// or above the LSE can ask for.
    pub fn purge(&self) -> PurgeStats {
        self.ops.purges.inc();
        let lse = self.manager.lse();
        let stats = self.shards.map_shards(|shard| {
            let memos = Arc::clone(&self.memos);
            Box::new(move |bricks: &mut ShardBricks| {
                let mut stats = PurgeStats::default();
                for brick in bricks.resident_mut() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::engine::IsolationMode;
    use crate::query::{AggFn, Aggregation, Query};
    use columnar::Value;

    fn engine() -> Arc<Engine> {
        let engine = Engine::new(2);
        engine
            .create_cube(
                CubeSchema::new(
                    "t",
                    vec![Dimension::int("k", 16, 4)],
                    vec![Metric::int("m")],
                )
                .unwrap(),
            )
            .unwrap();
        Arc::new(engine)
    }

    fn count(engine: &Engine) -> u64 {
        engine
            .query(
                "t",
                &Query::aggregate(vec![Aggregation::new(AggFn::Count, "m")]),
                IsolationMode::Snapshot,
            )
            .unwrap()
            .scalar()
            .unwrap_or(0.0) as u64
    }

    #[test]
    fn daemon_reclaims_deleted_data_in_the_background() {
        let engine = engine();
        let daemon = PurgeDaemon::spawn(Arc::clone(&engine), Duration::from_millis(5), true);
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::I64(i % 16), Value::I64(1)])
            .collect();
        engine.load("t", &rows, 0).unwrap();
        engine.delete_where("t", &[]).unwrap();
        // The daemon should reclaim the tombstoned rows shortly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.memory().rows > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never purged; memory = {:?}",
                engine.memory()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(count(&engine), 0);
        // The daemon adds to its totals after the purge returns, so
        // read them once its thread has joined.
        let (stats, cycles) = daemon.stop();
        assert!(cycles >= 1);
        assert_eq!(stats.rows_purged, 200);
        // The engine keeps working after the daemon is gone.
        engine.load("t", &rows[..10], 0).unwrap();
        assert_eq!(count(&engine), 10);
    }

    #[test]
    fn daemon_without_lse_advance_respects_the_flush_gate() {
        let engine = engine();
        let daemon = PurgeDaemon::spawn(Arc::clone(&engine), Duration::from_millis(5), false);
        engine
            .load("t", &[vec![Value::I64(0), Value::I64(1)]], 0)
            .unwrap();
        engine.delete_where("t", &[]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // LSE never moved (no flush machinery ran): nothing reclaimed.
        assert_eq!(engine.memory().rows, 1, "purge must not outrun LSE");
        // Simulate the flush machinery advancing LSE; the daemon then
        // reclaims on its next cycle.
        engine
            .manager()
            .advance_lse(engine.manager().lce())
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.memory().rows > 0 {
            assert!(std::time::Instant::now() < deadline, "daemon never purged");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(daemon);
    }
}

#[cfg(test)]
mod engine_tests {
    use crate::engine::tests::{engine, row, spread_load, sum_likes, tiered_engine};
    use crate::engine::IsolationMode;

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
