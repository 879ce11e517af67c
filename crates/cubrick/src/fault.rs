//! The test seam: every deliberate bug the meta-tests re-introduce
//! to prove an oracle can see it.
//!
//! Compiled only with the `fault-hooks` feature (and in this crate's
//! own unit tests). The oracle crate, the root package's integration
//! tests and the bench crate turn it on; an engine built without it
//! carries no fault state and takes no fault branch.
//!
//! Hooks are per instance: each [`Engine`] and each
//! [`DistributedEngine`] owns one [`FaultHooks`], so a fault armed on
//! one never reaches another in the same process. Node engines use
//! the scan and memo hooks; a cluster's own hooks hold its handoff
//! break and its per-node purge target.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};

use obs::sync::unpoison;

use crate::distributed::DistributedEngine;
use crate::engine::Engine;
use crate::memo::ShardMemos;
use crate::persist::DeltaRun;

/// A deliberately broken brick handoff, for the meta-tests that prove
/// the elastic suite detects broken handoff implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffBreak {
    /// Drop the final insert run before installing at the
    /// destination: the new copy silently misses rows.
    InstallIncomplete,
    /// Treat a failed stream as success: retire the source anyway and
    /// mark the (empty) destination readable — the brick is lost.
    RetireDespiteFailure,
    /// Crash the receiving node after the first chunk lands.
    CrashReceiverMidStream,
}

/// The faults armed on one engine or one cluster. All off by default.
#[derive(Debug, Default)]
pub struct FaultHooks {
    scan_panics: RwLock<HashSet<u64>>,
    corrupt_memo: AtomicBool,
    handoff_break: Mutex<Option<HandoffBreak>>,
    per_node_purge: AtomicBool,
}

impl FaultHooks {
    /// Makes every scan and every export of brick `bid` panic on its
    /// shard thread. While any is armed, no scan consults the
    /// snapshot memo.
    pub fn inject_scan_panic(&self, bid: u64) {
        unpoison(self.scan_panics.write()).insert(bid);
    }

    /// Disarms every injected scan panic.
    pub fn clear_scan_panics(&self) {
        unpoison(self.scan_panics.write()).clear();
    }

    /// Before the next scan, nudges every memoized shard answer in
    /// place (counts and sums off by one, keys untouched): a memo
    /// serving wrong bytes, which the differential oracle must catch.
    pub fn corrupt_memo(&self) {
        self.corrupt_memo.store(true, Ordering::Relaxed);
    }

    /// Arms (or, with `None`, clears) a broken brick handoff.
    pub fn break_handoff(&self, b: Option<HandoffBreak>) {
        *unpoison(self.handoff_break.lock()) = b;
    }

    /// Makes [`DistributedEngine::purge_all`] move each node to its own
    /// LCE instead of one cluster-wide target, so one node's LSE can
    /// pass another's LCE and no snapshot stays readable everywhere.
    pub fn purge_per_node(&self, on: bool) {
        self.per_node_purge.store(on, Ordering::Relaxed);
    }

    /// The LSE target a cluster purge gives one node: the cluster-wide
    /// `cluster`, or the node's `own` while
    /// [`FaultHooks::purge_per_node`] is armed.
    pub(crate) fn purge_target(&self, cluster: aosi::Epoch, own: aosi::Epoch) -> aosi::Epoch {
        if self.per_node_purge.load(Ordering::Relaxed) {
            own
        } else {
            cluster
        }
    }

    /// Applies a pending memo corruption to `memos` and returns the
    /// bids whose scans must panic. Runs once per scan request.
    pub(crate) fn arm_scan(&self, memos: &ShardMemos) -> HashSet<u64> {
        if self.corrupt_memo.swap(false, Ordering::Relaxed) {
            memos.corrupt();
        }
        unpoison(self.scan_panics.read()).clone()
    }

    /// Whether exporting `bid` must panic.
    pub(crate) fn export_panics(&self, bid: u64) -> bool {
        unpoison(self.scan_panics.read()).contains(&bid)
    }

    /// The armed handoff break, if any.
    pub(crate) fn handoff_break(&self) -> Option<HandoffBreak> {
        *unpoison(self.handoff_break.lock())
    }
}

/// [`HandoffBreak::InstallIncomplete`]'s defect: `runs` without its
/// last insert run.
pub(crate) fn without_last_insert(mut runs: Vec<DeltaRun>) -> Vec<DeltaRun> {
    if let Some(pos) = runs
        .iter()
        .rposition(|r| matches!(r, DeltaRun::Insert { .. }))
    {
        runs.remove(pos);
    }
    runs
}

impl Engine {
    /// This engine's fault hooks.
    pub fn faults(&self) -> &FaultHooks {
        &self.faults
    }
}

impl DistributedEngine {
    /// This cluster's fault hooks (the handoff break and the per-node
    /// purge target). Each node engine has its own, reachable through
    /// its [`Engine::faults`].
    pub fn faults(&self) -> &FaultHooks {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use aosi::Snapshot;
    use columnar::Value;

    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::engine::{At, Deliver, Engine};
    use crate::error::CubrickError;
    use crate::query::{AggFn, Aggregation, Query};

    fn loaded() -> Engine {
        let engine = Engine::new(2);
        let schema = CubeSchema::new(
            "t",
            vec![Dimension::int("k", 16, 4)],
            vec![Metric::int("m")],
        )
        .unwrap();
        engine.create_cube(schema).unwrap();
        let rows: Vec<_> = (0..16)
            .map(|k| vec![Value::from(k), Value::from(1i64)])
            .collect();
        engine.load("t", &rows, 0).unwrap();
        engine
    }

    /// A fault armed on one engine leaves a second engine in the same
    /// process untouched: hooks are per instance, never global.
    #[test]
    fn a_hook_armed_on_one_engine_leaves_another_untouched() {
        let (armed, bystander) = (loaded(), loaded());
        let sum = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "m")]);
        let read = |e: &Engine| {
            let at = Snapshot::committed(e.manager().lce());
            e.read("t", &sum, At::Snapshot(&at), Deliver::Final)
        };
        for e in [&armed, &bystander] {
            for _ in 0..3 {
                read(e).unwrap();
            }
        }
        armed.faults().corrupt_memo();
        let corrupted = read(&armed).unwrap();
        assert_ne!(corrupted.scalar(), Some(16.0), "the armed memo lies");
        let honest = read(&bystander).unwrap();
        assert!(honest.stats.agg_cache_hits > 0, "served by its memo");
        assert_eq!(honest.scalar(), Some(16.0));

        for bid in armed.brick_bids("t") {
            armed.faults().inject_scan_panic(bid);
        }
        let err = read(&armed).unwrap_err();
        assert!(
            matches!(err, CubrickError::ScanTaskPanicked { .. }),
            "{err}"
        );
        let bid = bystander.brick_bids("t")[0];
        assert!(bystander.export_brick("t", bid).is_ok());
        let honest = read(&bystander).unwrap();
        assert_eq!(honest.scalar(), Some(16.0));
    }
}
