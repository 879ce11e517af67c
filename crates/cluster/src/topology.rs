//! Versioned elastic membership over the consistent-hash ring.
//!
//! The [`Topology`] is the cluster's single source of truth for *who
//! should host what*: a mutable node set, a [`Ring`] rebuilt on every
//! membership change, and the replication factor. Placement is
//! rack-unaware and fully deterministic from the ring (Section V-A's
//! consistent hashing, extended N-way): a brick's replica set is the
//! arc owner plus the next `replication - 1` distinct nodes clockwise,
//! so any node can compute any brick's home without coordination.
//!
//! Join/leave mutate only the membership; actually moving brick state
//! is the rebalancer's job (the cubrick layer diffs the directory
//! against `replicas()` and streams the difference).

use std::collections::BTreeSet;
use std::sync::RwLock;

use obs::sync::unpoison;

use crate::protocol::NodeId;
use crate::ring::Ring;

/// Mutable, versioned cluster membership plus deterministic N-way
/// replica placement.
#[derive(Debug)]
pub struct Topology {
    vnodes: u32,
    replication: usize,
    state: RwLock<TopoState>,
}

#[derive(Debug)]
struct TopoState {
    nodes: BTreeSet<NodeId>,
    ring: Ring,
    /// Bumped on every membership change; lets cached routing detect
    /// staleness cheaply.
    version: u64,
}

impl Topology {
    /// A topology over `nodes` with `replication` total copies per
    /// brick (1 = no redundancy; capped by the live node count).
    ///
    /// # Panics
    /// Panics on an empty node set, zero vnodes, or zero replication.
    pub fn new(nodes: &[NodeId], vnodes: u32, replication: usize) -> Self {
        assert!(replication >= 1, "need at least one copy of every brick");
        let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
        let ring = Ring::of_nodes(nodes, vnodes);
        Topology {
            vnodes,
            replication,
            state: RwLock::new(TopoState {
                nodes: set,
                ring,
                version: 1,
            }),
        }
    }

    /// Configured copies per brick (the effective set may be smaller
    /// while fewer nodes are members).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Current membership, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        unpoison(self.state.read()).nodes.iter().copied().collect()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        unpoison(self.state.read()).nodes.contains(&node)
    }

    /// Membership version (bumped by every join/leave).
    pub fn version(&self) -> u64 {
        unpoison(self.state.read()).version
    }

    /// Adds `node` to the membership, rebuilding the ring. Returns
    /// the new version; idempotent (re-adding is a no-op returning the
    /// current version).
    pub fn add_node(&self, node: NodeId) -> u64 {
        let mut st = unpoison(self.state.write());
        if st.nodes.insert(node) {
            let nodes: Vec<NodeId> = st.nodes.iter().copied().collect();
            st.ring = Ring::of_nodes(&nodes, self.vnodes);
            st.version += 1;
        }
        st.version
    }

    /// Removes `node`, rebuilding the ring. Returns the new version;
    /// idempotent.
    ///
    /// # Panics
    /// Panics when removing the last member — an empty cluster has no
    /// placement function.
    pub fn remove_node(&self, node: NodeId) -> u64 {
        let mut st = unpoison(self.state.write());
        if st.nodes.remove(&node) {
            assert!(!st.nodes.is_empty(), "cannot remove the last node");
            let nodes: Vec<NodeId> = st.nodes.iter().copied().collect();
            st.ring = Ring::of_nodes(&nodes, self.vnodes);
            st.version += 1;
        }
        st.version
    }

    /// The brick's replica set in preference order: arc owner first,
    /// then the next distinct nodes clockwise. Length is
    /// `min(replication, members)`.
    pub fn replicas(&self, key: u64) -> Vec<NodeId> {
        unpoison(self.state.read())
            .ring
            .nodes_for(key, self.replication - 1)
    }

    /// The brick's primary (arc owner).
    pub fn primary(&self, key: u64) -> NodeId {
        unpoison(self.state.read()).ring.node_for(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn replica_sets_are_deterministic_and_distinct() {
        let t = Topology::new(&[1, 2, 3, 4], 64, 2);
        for key in 0..500 {
            let set = t.replicas(key);
            assert_eq!(set, t.replicas(key));
            assert_eq!(set.len(), 2);
            assert_ne!(set[0], set[1]);
            assert_eq!(set[0], t.primary(key));
        }
    }

    #[test]
    fn replication_caps_at_membership() {
        let t = Topology::new(&[1, 2], 32, 3);
        assert_eq!(t.replicas(7).len(), 2);
    }

    #[test]
    fn join_only_inserts_the_new_node_into_replica_sets() {
        // Before/after a join, a key's replica set may change only by
        // the joiner displacing someone — no unrelated churn.
        let t = Topology::new(&[1, 2, 3], 64, 2);
        let before: HashMap<u64, Vec<NodeId>> = (0..2000).map(|k| (k, t.replicas(k))).collect();
        let v1 = t.version();
        assert!(t.add_node(4) > v1);
        for key in 0..2000u64 {
            let after = t.replicas(key);
            if after != before[&key] {
                assert!(
                    after.contains(&4),
                    "key {key}: {:?} -> {after:?} churned without the joiner",
                    before[&key]
                );
            }
        }
    }

    #[test]
    fn leave_reroutes_only_the_leavers_copies() {
        let t = Topology::new(&[1, 2, 3, 4], 64, 2);
        let before: HashMap<u64, Vec<NodeId>> = (0..2000).map(|k| (k, t.replicas(k))).collect();
        t.remove_node(3);
        assert!(!t.contains(3));
        for key in 0..2000u64 {
            let after = t.replicas(key);
            assert!(!after.contains(&3));
            if !before[&key].contains(&3) {
                assert_eq!(
                    after, before[&key],
                    "key {key} not hosted by the leaver must not move"
                );
            }
        }
    }

    #[test]
    fn membership_ops_are_idempotent() {
        let t = Topology::new(&[1, 2], 16, 1);
        let v = t.add_node(2);
        assert_eq!(v, t.version(), "re-add is a no-op");
        t.remove_node(9);
        assert_eq!(t.nodes(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "last node")]
    fn removing_the_last_node_panics() {
        let t = Topology::new(&[1], 16, 1);
        t.remove_node(1);
    }
}
