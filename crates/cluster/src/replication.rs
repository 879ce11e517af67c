//! Replica flush tracking: the durability gate for LSE.
//!
//! Section III-D: LSE may only advance once "all data is safely
//! flushed to disk on all replicas", and "LSE needs to be prevented
//! from advancing if data is not safely stored on all replicas or if
//! any replica is offline". The tracker keeps one durable-epoch
//! watermark per node; the cluster-safe epoch is their minimum, and
//! it is withheld entirely while any node is offline.
//!
//! Elastic extension: a node that misses a write while down (a
//! *degraded* write committed without it) gets the missed epoch
//! recorded. Its effective watermark is then capped just below its
//! lowest hole — a replica cannot claim epoch `E` durable while a
//! write at `E' ≤ E` never reached it — until [`heal`](ReplicationTracker::heal)
//! clears the holes after catch-up. [`covers`](ReplicationTracker::covers)
//! turns the watermark into the per-replica read gate:
//! a replica may answer a snapshot locally only if its effective
//! watermark reaches the snapshot epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::RwLock;

use aosi::Epoch;
use obs::sync::unpoison;

use crate::protocol::NodeId;

/// Cluster-wide flush watermarks.
#[derive(Debug, Default)]
pub struct ReplicationTracker {
    state: RwLock<TrackerState>,
}

#[derive(Debug, Default)]
struct TrackerState {
    /// Highest epoch durably flushed per node.
    flushed: BTreeMap<NodeId, Epoch>,
    /// Epochs a node is known to have missed (degraded writes that
    /// committed while it was down). Holes cap the effective
    /// watermark until healed.
    missed: BTreeMap<NodeId, BTreeSet<Epoch>>,
    /// Nodes currently unreachable.
    offline: Vec<NodeId>,
}

impl TrackerState {
    /// Effective durable watermark: the flushed mark, capped just
    /// below the node's lowest unhealed hole.
    fn watermark(&self, node: NodeId) -> Option<Epoch> {
        let flushed = *self.flushed.get(&node)?;
        match self.missed.get(&node).and_then(|m| m.iter().next()) {
            Some(&hole) => Some(flushed.min(hole.saturating_sub(1))),
            None => Some(flushed),
        }
    }
}

impl ReplicationTracker {
    /// Tracker over nodes `1..=num_nodes`, all at epoch 0 and online.
    pub fn new(num_nodes: u64) -> Self {
        let tracker = ReplicationTracker::default();
        {
            let mut st = unpoison(tracker.state.write());
            for node in 1..=num_nodes {
                st.flushed.insert(node, 0);
            }
        }
        tracker
    }

    /// Starts tracking `node` (a joiner) with its watermark already at
    /// `epoch` — the join protocol calls this once the node holds all
    /// state up to that epoch. Idempotent for an already-tracked node
    /// (acts as `mark_flushed`).
    pub fn add_node(&self, node: NodeId, epoch: Epoch) {
        let mut st = unpoison(self.state.write());
        let slot = st.flushed.entry(node).or_insert(epoch);
        if epoch > *slot {
            *slot = epoch;
        }
    }

    /// Stops tracking `node` (a leaver): its watermark no longer caps
    /// the safe epoch and its holes are forgotten.
    pub fn remove_node(&self, node: NodeId) {
        let mut st = unpoison(self.state.write());
        st.flushed.remove(&node);
        st.missed.remove(&node);
        st.offline.retain(|&n| n != node);
    }

    /// Records that `node` has durably flushed everything up to
    /// `epoch`. Watermarks are monotonic; stale reports are ignored.
    pub fn mark_flushed(&self, node: NodeId, epoch: Epoch) {
        let mut st = unpoison(self.state.write());
        let slot = st.flushed.entry(node).or_insert(0);
        if epoch > *slot {
            *slot = epoch;
        }
    }

    /// Records that a write at `epoch` committed without reaching
    /// `node` (degraded write while the node was down). The node's
    /// effective watermark is capped below `epoch` until healed.
    pub fn mark_missed(&self, node: NodeId, epoch: Epoch) {
        let mut st = unpoison(self.state.write());
        st.missed.entry(node).or_default().insert(epoch);
    }

    /// Clears `node`'s missed epochs at or below `up_to` — called by
    /// the heal path once the node has re-fetched that state — and
    /// raises its flushed mark to `up_to`.
    pub fn heal(&self, node: NodeId, up_to: Epoch) {
        let mut st = unpoison(self.state.write());
        if let Some(holes) = st.missed.get_mut(&node) {
            holes.retain(|&e| e > up_to);
            if holes.is_empty() {
                st.missed.remove(&node);
            }
        }
        let slot = st.flushed.entry(node).or_insert(0);
        if up_to > *slot {
            *slot = up_to;
        }
    }

    /// Marks `node` unreachable: the safe epoch is withheld until it
    /// returns.
    pub fn mark_offline(&self, node: NodeId) {
        let mut st = unpoison(self.state.write());
        if !st.offline.contains(&node) {
            st.offline.push(node);
        }
    }

    /// Marks `node` reachable again.
    pub fn mark_online(&self, node: NodeId) {
        unpoison(self.state.write()).offline.retain(|&n| n != node);
    }

    /// Whether `node` is currently marked unreachable.
    pub fn is_offline(&self, node: NodeId) -> bool {
        unpoison(self.state.read()).offline.contains(&node)
    }

    /// The largest epoch durable on *every* tracked node, or `None`
    /// while any node is offline. This is the ceiling the flush
    /// machinery may pass to
    /// [`TxnManager::advance_lse`](aosi::TxnManager::advance_lse).
    pub fn safe_epoch(&self) -> Option<Epoch> {
        let st = unpoison(self.state.read());
        if !st.offline.is_empty() {
            return None;
        }
        st.flushed
            .keys()
            .map(|&n| st.watermark(n).unwrap_or(0))
            .min()
    }

    /// Whether `node` may answer a read at snapshot `epoch` locally:
    /// it must be online, tracked, and its effective watermark must
    /// reach the snapshot — the §III-D gate applied per replica.
    pub fn covers(&self, node: NodeId, epoch: Epoch) -> bool {
        let st = unpoison(self.state.read());
        if st.offline.contains(&node) {
            return false;
        }
        match st.watermark(node) {
            Some(w) => w >= epoch,
            None => false,
        }
    }

    /// Per-node *effective* watermarks (instrumentation).
    pub fn watermarks(&self) -> Vec<(NodeId, Epoch)> {
        let st = unpoison(self.state.read());
        st.flushed
            .keys()
            .map(|&n| (n, st.watermark(n).unwrap_or(0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_epoch_is_the_minimum_watermark() {
        let t = ReplicationTracker::new(3);
        assert_eq!(t.safe_epoch(), Some(0));
        t.mark_flushed(1, 10);
        t.mark_flushed(2, 7);
        t.mark_flushed(3, 12);
        assert_eq!(t.safe_epoch(), Some(7));
        t.mark_flushed(2, 11);
        assert_eq!(t.safe_epoch(), Some(10));
    }

    #[test]
    fn offline_node_withholds_safe_epoch() {
        let t = ReplicationTracker::new(2);
        t.mark_flushed(1, 5);
        t.mark_flushed(2, 5);
        assert_eq!(t.safe_epoch(), Some(5));
        t.mark_offline(2);
        assert_eq!(t.safe_epoch(), None, "paper: LSE must not advance");
        t.mark_online(2);
        assert_eq!(t.safe_epoch(), Some(5));
    }

    #[test]
    fn watermarks_are_monotonic() {
        let t = ReplicationTracker::new(1);
        t.mark_flushed(1, 9);
        t.mark_flushed(1, 4); // stale report
        assert_eq!(t.safe_epoch(), Some(9));
    }

    #[test]
    fn double_offline_and_online_are_idempotent() {
        let t = ReplicationTracker::new(2);
        t.mark_offline(1);
        t.mark_offline(1);
        t.mark_online(1);
        assert_eq!(t.safe_epoch(), Some(0));
    }

    #[test]
    fn watermarks_snapshot() {
        let t = ReplicationTracker::new(2);
        t.mark_flushed(2, 3);
        assert_eq!(t.watermarks(), vec![(1, 0), (2, 3)]);
    }

    #[test]
    fn missed_epoch_caps_the_watermark_until_healed() {
        let t = ReplicationTracker::new(2);
        t.mark_flushed(1, 10);
        t.mark_flushed(2, 10);
        // Node 2 missed the write at epoch 6: it may not claim 10.
        t.mark_missed(2, 6);
        assert_eq!(t.watermarks(), vec![(1, 10), (2, 5)]);
        assert_eq!(t.safe_epoch(), Some(5));
        assert!(!t.covers(2, 6));
        assert!(t.covers(2, 5));
        t.heal(2, 10);
        assert_eq!(t.safe_epoch(), Some(10));
        assert!(t.covers(2, 10));
    }

    #[test]
    fn lagging_replica_must_not_answer() {
        // Satellite 3, fails-pre-fix shape: before `covers` existed a
        // read could be answered by any online replica regardless of
        // its watermark; this pins the §III-D per-replica gate.
        let t = ReplicationTracker::new(3);
        t.mark_flushed(1, 20);
        t.mark_flushed(2, 4); // trails the snapshot
        t.mark_flushed(3, 20);
        let snapshot = 15;
        assert!(
            !t.covers(2, snapshot),
            "a replica whose safe epoch trails the snapshot must not answer locally"
        );
        // An offline replica never answers, even when its watermark covers.
        assert!(t.covers(3, snapshot));
        t.mark_offline(3);
        assert!(!t.covers(3, snapshot));
    }

    #[test]
    fn join_and_leave_adjust_the_floor() {
        let t = ReplicationTracker::new(2);
        t.mark_flushed(1, 8);
        t.mark_flushed(2, 8);
        // A joiner enters at the epoch it was caught up to.
        t.add_node(3, 8);
        assert_eq!(t.safe_epoch(), Some(8));
        t.mark_flushed(1, 12);
        t.mark_flushed(2, 12);
        assert_eq!(t.safe_epoch(), Some(8), "joiner now holds the floor");
        // A leaver stops capping the floor entirely.
        t.remove_node(3);
        assert_eq!(t.safe_epoch(), Some(12));
    }

    /// Satellite 3 property test: over seeded random ack schedules the
    /// cluster purge floor always equals the min over per-replica acks
    /// (capped by holes), and is withheld whenever anyone is offline.
    #[test]
    fn purge_floor_equals_min_ack_over_seeded_schedules() {
        fn splitmix(x: &mut u64) -> u64 {
            *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for seed in 0..50u64 {
            let mut rng = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1;
            let nodes = 2 + (splitmix(&mut rng) % 4); // 2..=5
            let t = ReplicationTracker::new(nodes);
            // Model state mirrored outside the tracker.
            let mut acked: Vec<Epoch> = vec![0; nodes as usize];
            let mut holes: Vec<BTreeSet<Epoch>> = vec![BTreeSet::new(); nodes as usize];
            let mut offline: BTreeSet<NodeId> = BTreeSet::new();
            for _ in 0..200 {
                let node = 1 + (splitmix(&mut rng) % nodes);
                let i = (node - 1) as usize;
                match splitmix(&mut rng) % 5 {
                    0 | 1 => {
                        let e = splitmix(&mut rng) % 64;
                        t.mark_flushed(node, e);
                        acked[i] = acked[i].max(e);
                    }
                    2 => {
                        let e = 1 + splitmix(&mut rng) % 64;
                        t.mark_missed(node, e);
                        holes[i].insert(e);
                    }
                    3 => {
                        if offline.contains(&node) {
                            t.mark_online(node);
                            offline.remove(&node);
                        } else {
                            t.mark_offline(node);
                            offline.insert(node);
                        }
                    }
                    _ => {
                        let e = splitmix(&mut rng) % 64;
                        t.heal(node, e);
                        holes[i].retain(|&h| h > e);
                        acked[i] = acked[i].max(e);
                    }
                }
                let expected = if offline.is_empty() {
                    Some(
                        (0..nodes as usize)
                            .map(|i| match holes[i].iter().next() {
                                Some(&h) => acked[i].min(h.saturating_sub(1)),
                                None => acked[i],
                            })
                            .min()
                            .unwrap(),
                    )
                } else {
                    None
                };
                assert_eq!(t.safe_epoch(), expected, "seed {seed}");
            }
        }
    }
}
