//! Consistent hashing ring for brick placement.
//!
//! "Bids are also used to assigning bricks to cluster nodes through
//! the use of consistency hashing" (Section V-A). Virtual nodes give
//! an even spread; adding or removing one node only moves the keys in
//! the arcs it owned.

use crate::protocol::NodeId;

/// A consistent-hashing ring over `NodeId`s.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, node)` sorted by point.
    points: Vec<(u64, NodeId)>,
}

fn hash64(mut x: u64) -> u64 {
    // SplitMix64 finalizer: cheap, well-distributed, dependency-free.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Ring {
    /// Builds a ring for nodes `1..=num_nodes` with `vnodes` virtual
    /// points per node.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(num_nodes: u64, vnodes: u32) -> Self {
        let nodes: Vec<NodeId> = (1..=num_nodes).collect();
        Ring::of_nodes(&nodes, vnodes)
    }

    /// Builds a ring over an **arbitrary** node set — the elastic
    /// topology's constructor, where join/leave produce non-contiguous
    /// memberships like `{1, 2, 4}`. Each node's virtual points depend
    /// only on its own id, so a node contributes the same arcs no
    /// matter who else is on the ring: `Ring::of_nodes(&[1..=n])` is
    /// identical to `Ring::new(n, vnodes)`, and removing a node moves
    /// only the keys it owned.
    ///
    /// # Panics
    /// Panics on an empty node set or zero vnodes.
    pub fn of_nodes(nodes: &[NodeId], vnodes: u32) -> Self {
        assert!(!nodes.is_empty(), "ring needs at least one node");
        assert!(vnodes >= 1, "ring needs at least one vnode per node");
        let mut points = Vec::with_capacity(nodes.len() * vnodes as usize);
        for &node in nodes {
            for v in 0..vnodes as u64 {
                points.push((
                    hash64(node.wrapping_mul(0x1_0000_0001).wrapping_add(v)),
                    node,
                ));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(p, _)| *p);
        Ring { points }
    }

    /// The node owning `key` (e.g. a brick id): the first ring point
    /// clockwise from the key's hash.
    pub fn node_for(&self, key: u64) -> NodeId {
        let h = hash64(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[idx % self.points.len()];
        node
    }

    /// The owner plus the next `replicas` *distinct* nodes clockwise —
    /// the replica set for a key.
    pub fn nodes_for(&self, key: u64, replicas: usize) -> Vec<NodeId> {
        let h = hash64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut out = Vec::with_capacity(replicas + 1);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == replicas + 1 {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn placement_is_deterministic() {
        let ring = Ring::new(8, 64);
        for key in 0..1000 {
            assert_eq!(ring.node_for(key), ring.node_for(key));
        }
    }

    #[test]
    fn all_nodes_receive_keys() {
        let ring = Ring::new(8, 64);
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for key in 0..10_000 {
            *counts.entry(ring.node_for(key)).or_default() += 1;
        }
        assert_eq!(counts.len(), 8, "every node owns some keys");
        // With 64 vnodes the spread should be within ~3x of fair.
        let fair = 10_000 / 8;
        for (&node, &count) in &counts {
            assert!(
                count > fair / 3 && count < fair * 3,
                "node {node} owns {count} of 10000"
            );
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = Ring::new(1, 4);
        for key in 0..100 {
            assert_eq!(ring.node_for(key), 1);
        }
    }

    #[test]
    fn replica_sets_are_distinct_and_led_by_owner() {
        let ring = Ring::new(5, 32);
        for key in 0..200 {
            let set = ring.nodes_for(key, 2);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], ring.node_for(key));
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn replicas_capped_by_cluster_size() {
        let ring = Ring::new(2, 16);
        let set = ring.nodes_for(7, 5);
        assert_eq!(set.len(), 2, "cannot have more replicas than nodes");
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        let before = Ring::new(5, 64);
        let after = Ring::new(4, 64); // node 5 removed
        let mut moved = 0;
        let total = 10_000;
        for key in 0..total {
            let b = before.node_for(key);
            let a = after.node_for(key);
            if b != a {
                moved += 1;
                assert_eq!(b, 5, "only keys owned by the removed node may move");
            }
        }
        assert!(moved > 0, "node 5 owned something");
    }

    #[test]
    fn of_nodes_matches_new_for_contiguous_ids() {
        let a = Ring::new(5, 64);
        let b = Ring::of_nodes(&[1, 2, 3, 4, 5], 64);
        for key in 0..2000 {
            assert_eq!(a.node_for(key), b.node_for(key));
            assert_eq!(a.nodes_for(key, 2), b.nodes_for(key, 2));
        }
    }

    #[test]
    fn sparse_membership_moves_only_the_removed_nodes_keys() {
        // {1,2,3,4} -> {1,2,4}: only keys node 3 owned may move.
        let before = Ring::of_nodes(&[1, 2, 3, 4], 64);
        let after = Ring::of_nodes(&[1, 2, 4], 64);
        let mut moved = 0;
        for key in 0..10_000u64 {
            let b = before.node_for(key);
            let a = after.node_for(key);
            if b != a {
                moved += 1;
                assert_eq!(b, 3, "only the removed node's keys may move");
            }
        }
        assert!(moved > 0, "node 3 owned something");
    }

    #[test]
    fn joining_node_only_gains_keys() {
        // {1,2,3} -> {1,2,3,9}: a key changes owner only by landing
        // on the new node.
        let before = Ring::of_nodes(&[1, 2, 3], 64);
        let after = Ring::of_nodes(&[1, 2, 3, 9], 64);
        for key in 0..10_000u64 {
            let b = before.node_for(key);
            let a = after.node_for(key);
            if b != a {
                assert_eq!(a, 9, "moves must land on the joiner");
            }
        }
    }
}
