//! The per-node transaction manager.
//!
//! Owns the node's [`EpochClock`], the `pendingTxs` set, and the
//! LCE/LSE advancement rules of Section III-B:
//!
//! * RW begin: atomically fetch a fresh epoch, capture the current
//!   pending set as the transaction's `deps`, insert self into
//!   `pendingTxs`.
//! * Commit: remove from `pendingTxs`; LCE advances to the greatest
//!   committed epoch below which nothing is still pending. Committing
//!   out of order parks the epoch until its predecessors finish
//!   (Table I: `T3` committing before `T2` leaves LCE at 1).
//! * Rollback: the epoch simply disappears from `pendingTxs`; parked
//!   commits above it may then advance LCE. A caller that must first
//!   reclaim the aborted rows calls [`TxnManager::begin_rollback`],
//!   which refuses any later commit but keeps the epoch pending.
//! * RO begin: a [`Snapshot`] at LCE with an empty deps set; no clock
//!   advancement, no `pendingTxs` traffic.
//! * LSE: advances only up to LCE, never past an active reader
//!   ([`ReadGuard`] tracks those), and never onto or past an epoch
//!   that a pending transaction excludes via its deps set — purge
//!   merges every entry at or below LSE into the base run, which
//!   would leak a dep-excluded epoch's rows into that transaction's
//!   snapshot. Durability gating is the caller's contract (the `wal`
//!   crate verifies replica flushes first).
//!
//! Remote transactions (Section IV-C) are registered via the
//! `*_remote` methods by the cluster layer when begin/commit
//! broadcasts arrive, so the local pending set reflects the whole
//! cluster's in-flight transactions.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use obs::sync::unpoison;
use obs::{Counter, ReportBuilder};

use crate::clock::EpochClock;
use crate::epoch::Epoch;
use crate::error::AosiError;
use crate::snapshot::Snapshot;
use crate::txn::{Txn, TxnKind, TxnState};

/// Counters exposed for instrumentation and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// RW transactions begun.
    pub begun_rw: u64,
    /// RO transactions begun.
    pub begun_ro: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions rolled back.
    pub rolled_back: u64,
    /// Currently pending RW transactions.
    pub pending: usize,
    /// Commits parked waiting for earlier transactions.
    pub parked_commits: usize,
}

/// Lock-free event counters for the transaction path. Everything a
/// plain `fetch_add` can capture lives here; values that need the
/// state mutex (pending-set size, parked commits) stay in
/// [`ManagerStats`], and both feed [`TxnManager::report`].
#[derive(Debug, Default)]
pub struct ManagerMetrics {
    /// Successful LSE advances.
    pub lse_advances: Counter,
    /// LSE advances rejected (out of window or active reader below).
    pub lse_advances_denied: Counter,
    /// Read snapshots registered as active readers
    /// (`begin_read` + `guard_snapshot`).
    pub reads_guarded: Counter,
    /// Remote transactions registered from begin broadcasts.
    pub remote_registered: Counter,
}

#[derive(Default)]
struct State {
    /// Epochs of in-flight RW transactions (local and remote).
    pending: BTreeSet<Epoch>,
    /// Committed epochs waiting for all predecessors to finish
    /// before LCE may cover them.
    committed_waiting: BTreeSet<Epoch>,
    /// Epochs rolled back since the last purge cycle; partitions
    /// consult this to reclaim aborted rows.
    rolled_back: BTreeSet<Epoch>,
    /// Pending epochs whose rollback has begun: still pending (the
    /// LCE cannot pass them) but no longer committable.
    rolling_back: BTreeSet<Epoch>,
    /// Active read snapshots (epoch -> count), for LSE gating.
    active_reads: BTreeMap<Epoch, usize>,
    /// Smallest dep of each pending RW transaction that has one
    /// (epoch -> min dep), for LSE gating: purge at LSE merges every
    /// entry at or below LSE, so LSE must stay strictly below any
    /// epoch a live snapshot excludes. Entries leave with their
    /// transaction (commit or rollback).
    pending_deps: BTreeMap<Epoch, Epoch>,
    begun_rw: u64,
    begun_ro: u64,
    committed: u64,
    rolled_back_count: u64,
}

struct Inner {
    clock: EpochClock,
    state: Mutex<State>,
    metrics: ManagerMetrics,
}

/// Transaction manager for one node. Cheap to clone; all clones share
/// the same state.
#[derive(Clone)]
pub struct TxnManager {
    inner: Arc<Inner>,
}

impl TxnManager {
    /// Manager for node `node_idx` (1-based) of `num_nodes`.
    pub fn new(node_idx: u64, num_nodes: u64) -> Self {
        TxnManager {
            inner: Arc::new(Inner {
                clock: EpochClock::new(node_idx, num_nodes),
                state: Mutex::new(State::default()),
                metrics: ManagerMetrics::default(),
            }),
        }
    }

    /// Manager for a single-node deployment.
    pub fn single_node() -> Self {
        TxnManager::new(1, 1)
    }

    /// The node's epoch clock (for Lamport merging by the cluster
    /// layer).
    pub fn clock(&self) -> &EpochClock {
        &self.inner.clock
    }

    /// Begins a read-write transaction: fresh epoch, deps = pending
    /// transactions at begin time.
    pub fn begin_rw(&self) -> Txn {
        self.begin_rw_with_remote(std::iter::empty())
    }

    /// Begins a read-write transaction whose deps additionally
    /// include `remote_pending` — the union of `pendingTxs` returned
    /// by the other cluster nodes in the initial broadcast
    /// (Section IV-C).
    pub fn begin_rw_with_remote(&self, remote_pending: impl IntoIterator<Item = Epoch>) -> Txn {
        let mut st = unpoison(self.inner.state.lock());
        // Epoch assignment happens under the same lock that snapshots
        // the pending set, so no concurrently-beginning transaction
        // can slip between "get epoch" and "record pending".
        let epoch = self.inner.clock.next_epoch();
        let mut deps: BTreeSet<Epoch> = st.pending.iter().copied().filter(|&p| p < epoch).collect();
        deps.extend(remote_pending.into_iter().filter(|&p| p < epoch));
        if let Some(&min_dep) = deps.first() {
            st.pending_deps.insert(epoch, min_dep);
        }
        st.pending.insert(epoch);
        st.begun_rw += 1;
        drop(st);
        Txn::new(epoch, TxnKind::ReadWrite, Snapshot::new(epoch, deps))
    }

    /// Two-phase begin for distributed transactions (Section IV-C).
    ///
    /// Assigns the epoch and captures the *local* pending set; the
    /// caller completes the deps set with the remote pending sets
    /// returned by the begin broadcast (which is piggybacked on the
    /// transaction's first operation) and builds the final
    /// [`Snapshot`] itself. The transaction is already registered in
    /// `pendingTxs` when this returns.
    pub fn begin_rw_parts(&self) -> (Epoch, BTreeSet<Epoch>) {
        let mut st = unpoison(self.inner.state.lock());
        let epoch = self.inner.clock.next_epoch();
        let deps: BTreeSet<Epoch> = st.pending.iter().copied().filter(|&p| p < epoch).collect();
        if let Some(&min_dep) = deps.first() {
            st.pending_deps.insert(epoch, min_dep);
        }
        st.pending.insert(epoch);
        st.begun_rw += 1;
        drop(st);
        (epoch, deps)
    }

    /// Records additional deps learned after begin for a still-pending
    /// transaction — the cluster layer calls this on the origin node
    /// when the begin broadcast returns remote pending sets, so the
    /// LSE gate covers the transaction's *complete* deps set, not
    /// just the local slice captured by [`TxnManager::begin_rw_parts`].
    pub fn note_txn_deps(&self, epoch: Epoch, deps: impl IntoIterator<Item = Epoch>) {
        let Some(min_dep) = deps.into_iter().filter(|&d| d < epoch).min() else {
            return;
        };
        let mut st = unpoison(self.inner.state.lock());
        if !st.pending.contains(&epoch) {
            return;
        }
        let floor = st.pending_deps.entry(epoch).or_insert(min_dep);
        *floor = (*floor).min(min_dep);
    }

    /// Begins a read-only transaction at the Latest Committed Epoch.
    pub fn begin_ro(&self) -> Snapshot {
        unpoison(self.inner.state.lock()).begun_ro += 1;
        Snapshot::committed(self.inner.clock.lce())
    }

    /// Begins a read-only transaction and registers it as an active
    /// reader so LSE (and therefore purge) cannot pass it.
    pub fn begin_read(&self) -> ReadGuard {
        let mut st = unpoison(self.inner.state.lock());
        st.begun_ro += 1;
        let epoch = self.inner.clock.lce();
        *st.active_reads.entry(epoch).or_insert(0) += 1;
        drop(st);
        self.inner.metrics.reads_guarded.inc();
        ReadGuard {
            manager: self.clone(),
            guard_epoch: epoch,
            snapshot: Snapshot::committed(epoch),
        }
    }

    /// Registers a snapshot (typically a RW transaction's own) as an
    /// active reader for the duration of a scan.
    ///
    /// The registered epoch is the largest LSE the snapshot tolerates:
    /// purge at LSE merges, relabels, and applies deletes for all
    /// epochs `<= LSE`, which is only safe if the snapshot treats that
    /// whole prefix uniformly. A snapshot with no excluded pending
    /// transactions tolerates LSE up to its own epoch; one that
    /// excludes a dependency `d` distinguishes `d` itself, so it only
    /// tolerates LSE up to `d - 1`.
    pub fn guard_snapshot(&self, snapshot: Snapshot) -> ReadGuard {
        let guard_epoch = snapshot
            .deps()
            .first()
            .map(|&d| d.saturating_sub(1))
            .unwrap_or(snapshot.epoch())
            .min(snapshot.epoch());
        let mut st = unpoison(self.inner.state.lock());
        *st.active_reads.entry(guard_epoch).or_insert(0) += 1;
        drop(st);
        self.inner.metrics.reads_guarded.inc();
        ReadGuard {
            manager: self.clone(),
            guard_epoch,
            snapshot,
        }
    }

    /// Commits a transaction. Read-only handles commit trivially.
    pub fn commit(&self, txn: &Txn) -> Result<(), AosiError> {
        match txn.kind() {
            TxnKind::ReadOnly => Ok(()),
            TxnKind::ReadWrite => self.commit_epoch(txn.epoch()),
        }
    }

    /// Rolls a transaction back.
    pub fn rollback(&self, txn: &Txn) -> Result<(), AosiError> {
        if !txn.is_rw() {
            return Err(AosiError::ReadOnlyTxn(txn.epoch()));
        }
        self.rollback_epoch(txn.epoch())
    }

    /// Starts rolling a transaction back: from now on a commit of it
    /// is refused, but its epoch stays in `pendingTxs` — so the LCE
    /// cannot pass it — until [`TxnManager::rollback`] finishes it.
    /// A caller reclaims the aborted rows in between, so no snapshot
    /// at or below the LCE ever sees them.
    pub fn begin_rollback(&self, txn: &Txn) -> Result<(), AosiError> {
        if !txn.is_rw() {
            return Err(AosiError::ReadOnlyTxn(txn.epoch()));
        }
        let mut st = unpoison(self.inner.state.lock());
        if !st.pending.contains(&txn.epoch()) || !st.rolling_back.insert(txn.epoch()) {
            return Err(AosiError::TxnFinished(txn.epoch()));
        }
        Ok(())
    }

    /// Registers a transaction begun on another node (from its begin
    /// broadcast) into the local pending set.
    pub fn register_remote(&self, epoch: Epoch) {
        let mut st = unpoison(self.inner.state.lock());
        // A commit broadcast can never overtake its begin broadcast on
        // the same channel, so blind insertion is safe.
        st.pending.insert(epoch);
        drop(st);
        self.inner.metrics.remote_registered.inc();
    }

    /// Applies a remote transaction's commit broadcast.
    pub fn commit_remote(&self, epoch: Epoch) -> Result<(), AosiError> {
        self.commit_epoch(epoch)
    }

    /// Applies a remote transaction's rollback broadcast.
    pub fn rollback_remote(&self, epoch: Epoch) -> Result<(), AosiError> {
        self.rollback_epoch(epoch)
    }

    fn commit_epoch(&self, epoch: Epoch) -> Result<(), AosiError> {
        let mut st = unpoison(self.inner.state.lock());
        if st.rolling_back.contains(&epoch) || !st.pending.remove(&epoch) {
            return Err(AosiError::TxnFinished(epoch));
        }
        st.pending_deps.remove(&epoch);
        st.committed_waiting.insert(epoch);
        st.committed += 1;
        self.try_advance_lce(&mut st);
        Ok(())
    }

    fn rollback_epoch(&self, epoch: Epoch) -> Result<(), AosiError> {
        let mut st = unpoison(self.inner.state.lock());
        if !st.pending.remove(&epoch) {
            return Err(AosiError::TxnFinished(epoch));
        }
        st.pending_deps.remove(&epoch);
        st.rolling_back.remove(&epoch);
        st.rolled_back.insert(epoch);
        st.rolled_back_count += 1;
        // The epoch vanishing may unblock parked commits above it.
        self.try_advance_lce(&mut st);
        Ok(())
    }

    /// LCE rule: advance to the greatest parked committed epoch that
    /// has no pending transaction below it, consuming parked epochs
    /// as they become covered.
    fn try_advance_lce(&self, st: &mut State) {
        let min_pending = st.pending.first().copied().unwrap_or(Epoch::MAX);
        let mut new_lce = None;
        while let Some(&c) = st.committed_waiting.first() {
            if c < min_pending {
                st.committed_waiting.pop_first();
                new_lce = Some(c);
            } else {
                break;
            }
        }
        if let Some(lce) = new_lce {
            self.inner.clock.store_lce(lce);
        }
    }

    /// Latest Committed Epoch.
    pub fn lce(&self) -> Epoch {
        self.inner.clock.lce()
    }

    /// Latest Safe Epoch.
    pub fn lse(&self) -> Epoch {
        self.inner.clock.lse()
    }

    /// Current pending set (what a begin broadcast returns to a
    /// remote coordinator).
    pub fn pending_txs(&self) -> Vec<Epoch> {
        unpoison(self.inner.state.lock())
            .pending
            .iter()
            .copied()
            .collect()
    }

    /// Epochs rolled back since the last [`TxnManager::clear_rolled_back`].
    pub fn rolled_back_epochs(&self) -> Vec<Epoch> {
        unpoison(self.inner.state.lock())
            .rolled_back
            .iter()
            .copied()
            .collect()
    }

    /// Forgets rolled-back epochs once their rows have been reclaimed
    /// from every partition.
    pub fn clear_rolled_back(&self, epochs: &[Epoch]) {
        let mut st = unpoison(self.inner.state.lock());
        for e in epochs {
            st.rolled_back.remove(e);
        }
    }

    /// Lifecycle state of an epoch, if the manager still remembers it.
    pub fn state_of(&self, epoch: Epoch) -> Option<TxnState> {
        let st = unpoison(self.inner.state.lock());
        if st.pending.contains(&epoch) {
            Some(TxnState::Pending)
        } else if st.rolled_back.contains(&epoch) {
            Some(TxnState::RolledBack)
        } else if st.committed_waiting.contains(&epoch) || epoch <= self.inner.clock.lce() {
            Some(TxnState::Committed)
        } else {
            None
        }
    }

    /// Attempts to advance LSE to `candidate`.
    ///
    /// Enforces the paper's conditions (a) all transactions at or
    /// below `candidate` finished — implied by `candidate <= LCE` —
    /// and (b) no active read transaction below `candidate`, which
    /// includes the implicit reader every pending RW transaction
    /// carries: a snapshot excluding a dep `d` only tolerates LSE up
    /// to `d - 1` (purge at LSE merges everything at or below it, so
    /// a higher LSE would fold `d`'s rows into a run the snapshot
    /// considers visible). Condition (c), durability on all replicas,
    /// is the caller's contract: the flush/replication machinery must
    /// verify it before calling.
    pub fn advance_lse(&self, candidate: Epoch) -> Result<(), AosiError> {
        let st = unpoison(self.inner.state.lock());
        let lce = self.inner.clock.lce();
        let lse = self.inner.clock.lse();
        if candidate < lse || candidate > lce {
            self.inner.metrics.lse_advances_denied.inc();
            return Err(AosiError::InvalidLseAdvance {
                requested: candidate,
                lce,
                lse,
            });
        }
        if let Some((&oldest, _)) = st.active_reads.first_key_value() {
            if oldest < candidate {
                self.inner.metrics.lse_advances_denied.inc();
                return Err(AosiError::ActiveReaderBelow {
                    requested: candidate,
                    oldest_reader: oldest,
                });
            }
        }
        // A pending transaction excluding dep `d` reads as if guarded
        // at `d - 1` (see `guard_snapshot`); deny when `d <= candidate`.
        if let Some(&oldest_dep) = st.pending_deps.values().min() {
            if oldest_dep <= candidate {
                self.inner.metrics.lse_advances_denied.inc();
                return Err(AosiError::ActiveReaderBelow {
                    requested: candidate,
                    oldest_reader: oldest_dep.saturating_sub(1),
                });
            }
        }
        self.inner.clock.store_lse(candidate);
        self.inner.metrics.lse_advances.inc();
        Ok(())
    }

    /// Instrumentation snapshot.
    pub fn stats(&self) -> ManagerStats {
        let st = unpoison(self.inner.state.lock());
        ManagerStats {
            begun_rw: st.begun_rw,
            begun_ro: st.begun_ro,
            committed: st.committed,
            rolled_back: st.rolled_back_count,
            pending: st.pending.len(),
            parked_commits: st.committed_waiting.len(),
        }
    }

    /// The manager's lock-free event counters.
    pub fn metrics(&self) -> &ManagerMetrics {
        &self.inner.metrics
    }

    /// Writes the `[aosi]` section of a metrics report: the three
    /// clocks, the transaction lifecycle counters, the pending-set
    /// and active-reader sizes, and the LSE-advance counters.
    pub fn report(&self, report: &mut ReportBuilder) {
        self.report_as(report, "aosi");
    }

    /// [`TxnManager::report`] under a custom section name (a cluster
    /// node prefixes its node id).
    pub fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        let stats = self.stats();
        let active_readers: usize = {
            let st = unpoison(self.inner.state.lock());
            st.active_reads.values().sum()
        };
        let m = &self.inner.metrics;
        report
            .section(section)
            .metric("ec", self.inner.clock.current_ec())
            .metric("lce", self.lce())
            .metric("lse", self.lse())
            .metric("pending_txs", stats.pending)
            .metric("parked_commits", stats.parked_commits)
            .metric("active_readers", active_readers)
            .metric("begun_rw", stats.begun_rw)
            .metric("begun_ro", stats.begun_ro)
            .metric("committed", stats.committed)
            .metric("rolled_back", stats.rolled_back)
            .counter("reads_guarded", &m.reads_guarded)
            .counter("remote_registered", &m.remote_registered)
            .counter("lse_advances", &m.lse_advances)
            .counter("lse_advances_denied", &m.lse_advances_denied);
    }

    fn release_read(&self, epoch: Epoch) {
        let mut st = unpoison(self.inner.state.lock());
        if let Some(count) = st.active_reads.get_mut(&epoch) {
            *count -= 1;
            if *count == 0 {
                st.active_reads.remove(&epoch);
            }
        }
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("TxnManager")
            .field("ec", &self.inner.clock.current_ec())
            .field("lce", &self.lce())
            .field("lse", &self.lse())
            .field("pending", &stats.pending)
            .finish()
    }
}

/// RAII registration of an active read snapshot; while alive, LSE
/// cannot advance past the epochs the snapshot distinguishes, so
/// purge can never reclaim or relabel rows the reader might scan.
pub struct ReadGuard {
    manager: TxnManager,
    guard_epoch: Epoch,
    snapshot: Snapshot,
}

impl ReadGuard {
    /// The guarded snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        self.manager.release_read(self.guard_epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_walkthrough() {
        // Reproduces Table I of the paper on a single node.
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        let t2 = mgr.begin_rw();
        let t3 = mgr.begin_rw();
        assert_eq!((t1.epoch(), t2.epoch(), t3.epoch()), (1, 2, 3));
        assert!(t1.snapshot().deps().is_empty());
        assert_eq!(
            t2.snapshot().deps().iter().copied().collect::<Vec<_>>(),
            [1]
        );
        assert_eq!(
            t3.snapshot().deps().iter().copied().collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(mgr.clock().current_ec(), 4);
        assert_eq!(mgr.lce(), 0);
        assert_eq!(mgr.pending_txs(), [1, 2, 3]);

        mgr.commit(&t1).unwrap();
        assert_eq!(mgr.lce(), 1);
        // T3 commits before T2: LCE must not move (Section III-B).
        mgr.commit(&t3).unwrap();
        assert_eq!(mgr.lce(), 1);
        // T2 finishing releases both parked epochs.
        mgr.commit(&t2).unwrap();
        assert_eq!(mgr.lce(), 3);
        assert!(mgr.pending_txs().is_empty());
    }

    #[test]
    fn ro_transactions_run_at_lce_with_no_deps() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        let _t2 = mgr.begin_rw(); // left pending
        let snap = mgr.begin_ro();
        assert_eq!(snap.epoch(), 1);
        assert!(snap.deps().is_empty());
    }

    #[test]
    fn rollback_unblocks_parked_commits() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        let t2 = mgr.begin_rw();
        mgr.commit(&t2).unwrap();
        assert_eq!(mgr.lce(), 0, "T1 still pending");
        mgr.rollback(&t1).unwrap();
        assert_eq!(mgr.lce(), 2, "rollback of T1 releases T2");
        assert_eq!(mgr.rolled_back_epochs(), [1]);
        assert_eq!(mgr.state_of(1), Some(TxnState::RolledBack));
        assert_eq!(mgr.state_of(2), Some(TxnState::Committed));
    }

    #[test]
    fn a_begun_rollback_holds_the_lce_and_refuses_commit() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        let t2 = mgr.begin_rw();
        mgr.commit(&t2).unwrap();
        mgr.begin_rollback(&t1).unwrap();
        assert_eq!(mgr.lce(), 0, "T1 is still pending while it rolls back");
        assert_eq!(mgr.state_of(1), Some(TxnState::Pending));
        assert_eq!(mgr.commit(&t1), Err(AosiError::TxnFinished(1)));
        assert_eq!(mgr.begin_rollback(&t1), Err(AosiError::TxnFinished(1)));
        mgr.rollback(&t1).unwrap();
        assert_eq!(mgr.lce(), 2, "finishing the rollback releases T2");
        assert_eq!(mgr.begin_rollback(&t1), Err(AosiError::TxnFinished(1)));
    }

    #[test]
    fn double_commit_is_an_error() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        assert_eq!(mgr.commit(&t1), Err(AosiError::TxnFinished(1)));
        assert_eq!(mgr.rollback(&t1), Err(AosiError::TxnFinished(1)));
    }

    #[test]
    fn rollback_of_ro_txn_rejected() {
        let mgr = TxnManager::single_node();
        let t = mgr.begin_rw();
        mgr.commit(&t).unwrap();
        let snap = mgr.begin_ro();
        let ro = Txn::new(snap.epoch(), TxnKind::ReadOnly, snap);
        assert!(matches!(mgr.rollback(&ro), Err(AosiError::ReadOnlyTxn(_))));
    }

    #[test]
    fn remote_registration_feeds_deps_and_lce() {
        // Node 1 of 2 issues odd epochs; node 2's T2 arrives remotely.
        let mgr = TxnManager::new(1, 2);
        mgr.register_remote(2);
        // The begin broadcast that announced T2 also carries node 2's
        // clock; Lamport-merge it so local epochs move past 2.
        mgr.clock().observe(2);
        let t3 = mgr.begin_rw();
        assert_eq!(t3.epoch(), 3);
        assert_eq!(
            t3.snapshot().deps().iter().copied().collect::<Vec<_>>(),
            [2]
        );
        mgr.commit(&t3).unwrap();
        assert_eq!(mgr.lce(), 0, "remote T2 still pending locally");
        mgr.commit_remote(2).unwrap();
        assert_eq!(mgr.lce(), 3);
    }

    #[test]
    fn begin_rw_with_remote_unions_pending() {
        let mgr = TxnManager::new(1, 2);
        let t1 = mgr.begin_rw();
        let t3 = mgr.begin_rw_with_remote([2u64]);
        assert_eq!(
            t3.snapshot().deps().iter().copied().collect::<Vec<_>>(),
            [1, 2]
        );
        // Future epochs must never be deps.
        let t5 = mgr.begin_rw_with_remote([100u64]);
        assert!(!t5.snapshot().deps().contains(&100));
        mgr.commit(&t1).unwrap();
        mgr.commit(&t3).unwrap();
        mgr.commit(&t5).unwrap();
    }

    #[test]
    fn lse_cannot_pass_lce_or_regress() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        let t2 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        mgr.commit(&t2).unwrap();
        assert_eq!(mgr.lce(), 2);
        mgr.advance_lse(2).unwrap();
        assert!(matches!(
            mgr.advance_lse(1),
            Err(AosiError::InvalidLseAdvance { .. })
        ));
        assert!(matches!(
            mgr.advance_lse(3),
            Err(AosiError::InvalidLseAdvance { .. })
        ));
        assert_eq!(mgr.lse(), 2);
    }

    #[test]
    fn active_reader_blocks_lse() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        let guard = mgr.begin_read(); // reader at epoch 1
        let t2 = mgr.begin_rw();
        mgr.commit(&t2).unwrap();
        assert_eq!(mgr.lce(), 2);
        assert_eq!(
            mgr.advance_lse(2),
            Err(AosiError::ActiveReaderBelow {
                requested: 2,
                oldest_reader: 1
            })
        );
        // Reader at the candidate itself does not block.
        mgr.advance_lse(1).unwrap();
        drop(guard);
        mgr.advance_lse(2).unwrap();
        assert_eq!(mgr.lse(), 2);
    }

    #[test]
    fn guard_snapshot_without_deps_allows_lse_at_epoch() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        let t2 = mgr.begin_rw();
        let guard = mgr.guard_snapshot(t2.snapshot().clone());
        assert_eq!(guard.snapshot().epoch(), 2);
        mgr.commit(&t2).unwrap();
        // The snapshot sees everything <= 2 uniformly, so purging at
        // LSE = 2 cannot disturb it.
        mgr.advance_lse(2).unwrap();
    }

    #[test]
    fn guard_snapshot_with_deps_blocks_lse_at_min_dep() {
        // T3 begins while T2 is pending, so T3's snapshot must keep
        // distinguishing epoch 2 (it excludes it): LSE may reach 1
        // but not 2, or purge could merge T2's rows under an older
        // label or apply T2's deletes that T3 must not see.
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        let t2 = mgr.begin_rw();
        let t3 = mgr.begin_rw();
        assert_eq!(
            t3.snapshot().deps().iter().copied().collect::<Vec<_>>(),
            [2]
        );
        let guard = mgr.guard_snapshot(t3.snapshot().clone());
        mgr.commit(&t2).unwrap();
        mgr.commit(&t3).unwrap();
        assert_eq!(mgr.lce(), 3);
        mgr.advance_lse(1).unwrap();
        assert_eq!(
            mgr.advance_lse(2),
            Err(AosiError::ActiveReaderBelow {
                requested: 2,
                oldest_reader: 1
            })
        );
        drop(guard);
        mgr.advance_lse(3).unwrap();
    }

    #[test]
    fn pending_txn_dep_blocks_lse_without_a_guard() {
        // T1 begins, T3 begins while T1 is pending (deps {1}), T1
        // and T2 commit so LCE reaches 2. Even with no read guard in
        // sight, LSE must not reach 1: T3 is still pending and its
        // snapshot excludes epoch 1, so a purge at LSE >= 1 would
        // merge epoch-1 rows into the base run where T3 would
        // wrongly see them. (Found by the differential oracle:
        // begin/load/append/begin/commit/purge/read-in-txn.)
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        let t2 = mgr.begin_rw();
        let t3 = mgr.begin_rw();
        assert_eq!(
            t3.snapshot().deps().iter().copied().collect::<Vec<_>>(),
            [1, 2]
        );
        mgr.commit(&t1).unwrap();
        mgr.commit(&t2).unwrap();
        assert_eq!(mgr.lce(), 2);
        assert_eq!(
            mgr.advance_lse(1),
            Err(AosiError::ActiveReaderBelow {
                requested: 1,
                oldest_reader: 0
            })
        );
        assert_eq!(
            mgr.advance_lse(2),
            Err(AosiError::ActiveReaderBelow {
                requested: 2,
                oldest_reader: 0
            })
        );
        assert_eq!(mgr.lse(), 0);
        // Once T3 finishes, nothing distinguishes the prefix anymore.
        mgr.commit(&t3).unwrap();
        mgr.advance_lse(3).unwrap();
        assert_eq!(mgr.lse(), 3);
    }

    #[test]
    fn remote_learned_deps_block_lse() {
        // A distributed transaction learns an extra dep from the
        // begin broadcast after `begin_rw_parts`; the gate must honor
        // it once `note_txn_deps` lands.
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        let (epoch, local_deps) = mgr.begin_rw_parts();
        assert!(local_deps.is_empty());
        // The broadcast reports remote epoch 1 as pending-at-begin.
        mgr.note_txn_deps(epoch, [1]);
        assert!(mgr.advance_lse(1).is_err(), "remote dep 1 blocks LSE 1");
        mgr.commit_epoch(epoch).unwrap();
        mgr.advance_lse(mgr.lce()).unwrap();
        // Noting deps for a finished transaction is a no-op.
        mgr.note_txn_deps(epoch, [1]);
        mgr.advance_lse(mgr.lce()).unwrap();
    }

    #[test]
    fn stats_track_lifecycle() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        let t2 = mgr.begin_rw();
        let _ = mgr.begin_ro();
        mgr.commit(&t2).unwrap();
        mgr.rollback(&t1).unwrap();
        let s = mgr.stats();
        assert_eq!(s.begun_rw, 2);
        assert_eq!(s.begun_ro, 1);
        assert_eq!(s.committed, 1);
        assert_eq!(s.rolled_back, 1);
        assert_eq!(s.pending, 0);
        assert_eq!(s.parked_commits, 0);
    }

    #[test]
    fn clear_rolled_back_forgets_epochs() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.rollback(&t1).unwrap();
        assert_eq!(mgr.rolled_back_epochs(), [1]);
        mgr.clear_rolled_back(&[1]);
        assert!(mgr.rolled_back_epochs().is_empty());
        assert_eq!(mgr.state_of(1), None);
    }

    #[test]
    fn metrics_and_report_cover_the_lifecycle() {
        let mgr = TxnManager::single_node();
        let t1 = mgr.begin_rw();
        mgr.commit(&t1).unwrap();
        let guard = mgr.begin_read();
        assert_eq!(mgr.metrics().reads_guarded.get(), 1);
        let t2 = mgr.begin_rw();
        mgr.commit(&t2).unwrap();
        assert!(mgr.advance_lse(2).is_err(), "guard at 1 blocks");
        assert_eq!(mgr.metrics().lse_advances_denied.get(), 1);
        drop(guard);
        mgr.advance_lse(2).unwrap();
        assert_eq!(mgr.metrics().lse_advances.get(), 1);
        mgr.register_remote(100);
        assert_eq!(mgr.metrics().remote_registered.get(), 1);

        let mut rb = ReportBuilder::new();
        mgr.report(&mut rb);
        let text = rb.finish();
        assert!(text.starts_with("[aosi]\n"));
        for line in [
            "lce = 2",
            "lse = 2",
            "pending_txs = 1",
            "committed = 2",
            "reads_guarded = 1",
            "lse_advances = 1",
            "lse_advances_denied = 1",
            "remote_registered = 1",
            "active_readers = 0",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn concurrent_begin_commit_maintains_invariants() {
        use std::sync::Arc;
        let mgr = Arc::new(TxnManager::single_node());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let t = mgr.begin_rw();
                    // Interleave with a reader.
                    let snap = mgr.begin_ro();
                    assert!(snap.epoch() < t.epoch());
                    mgr.commit(&t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = mgr.stats();
        assert_eq!(s.committed, 4000);
        assert_eq!(s.pending, 0);
        assert_eq!(mgr.lce(), 4000);
        assert!(mgr.clock().current_ec() > mgr.lce());
    }
}
