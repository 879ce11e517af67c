//! Property-based tests of the distributed transaction flow.
//!
//! Random interleavings of begin / broadcast / commit / rollback
//! across a random cluster size must uphold the protocol's promises:
//! unique epochs, SI-consistent snapshots (never seeing a pending or
//! future transaction), LCE convergence, and no transaction ever
//! being forced to abort.

use std::collections::{BTreeMap, BTreeSet};

use cluster::{ProtocolCluster, SimulatedNetwork};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Begin a RW transaction on node `origin % n + 1` and broadcast.
    Begin { origin: u64 },
    /// Commit the oldest open transaction.
    CommitOldest,
    /// Commit the newest open transaction (out-of-order commit).
    CommitNewest,
    /// Roll back the oldest open transaction.
    RollbackOldest,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        5 => (0u64..8).prop_map(|origin| Event::Begin { origin }),
        3 => Just(Event::CommitOldest),
        2 => Just(Event::CommitNewest),
        1 => Just(Event::RollbackOldest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_schedules_preserve_protocol_invariants(
        num_nodes in 1u64..5,
        events in prop::collection::vec(event_strategy(), 1..60),
    ) {
        let cluster = ProtocolCluster::new(num_nodes, SimulatedNetwork::instant());
        let mut open = Vec::new();
        let mut seen_epochs = BTreeSet::new();
        // epoch -> true if committed, false if rolled back.
        let mut finished: BTreeMap<u64, bool> = BTreeMap::new();

        for event in events {
            match event {
                Event::Begin { origin } => {
                    let node = origin % num_nodes + 1;
                    let mut txn = cluster.begin_rw(node);
                    cluster.broadcast_begin(&mut txn, 16).unwrap();
                    // Unique epochs, stride residue intact.
                    prop_assert!(seen_epochs.insert(txn.epoch));
                    prop_assert_eq!(txn.epoch % num_nodes, node % num_nodes);
                    // The new snapshot must exclude every open txn and
                    // include every committed one below it.
                    let snap = txn.snapshot();
                    for other in &open {
                        let o: &cluster::DistributedTxn = other;
                        prop_assert!(!snap.sees(o.epoch),
                            "T{} sees pending T{}", txn.epoch, o.epoch);
                    }
                    for (&epoch, &committed) in &finished {
                        if committed && epoch < txn.epoch {
                            prop_assert!(snap.sees(epoch),
                                "T{} misses committed T{}", txn.epoch, epoch);
                        }
                        // Rolled-back epochs may satisfy `sees` at the
                        // protocol level: their *rows* are reclaimed
                        // physically by the engine's rollback, so
                        // there is nothing left to see (covered by the
                        // engine-level property tests).
                    }
                    open.push(txn);
                }
                Event::CommitOldest if !open.is_empty() => {
                    let txn = open.remove(0);
                    cluster.commit(&txn).unwrap();
                    finished.insert(txn.epoch, true);
                }
                Event::CommitNewest if !open.is_empty() => {
                    let txn = open.pop().unwrap();
                    cluster.commit(&txn).unwrap();
                    finished.insert(txn.epoch, true);
                }
                Event::RollbackOldest if !open.is_empty() => {
                    let txn = open.remove(0);
                    cluster.rollback(&txn).unwrap();
                    finished.insert(txn.epoch, false);
                }
                _ => {}
            }
            // LCE on every node never covers an open transaction.
            if let Some(min_open) = open.iter().map(|t| t.epoch).min() {
                for node in 1..=num_nodes {
                    prop_assert!(cluster.manager(node).lce() < min_open);
                }
            }
        }

        // Drain: commit everything still open; LCE must converge to
        // the maximum finished epoch on every node.
        for txn in open.drain(..) {
            cluster.commit(&txn).unwrap();
            finished.insert(txn.epoch, true);
        }
        // LCE converges to the largest *committed* epoch (rolled-back
        // epochs simply vanish; with everything finished they cannot
        // hold LCE back).
        let max_committed = finished
            .iter()
            .filter(|(_, &committed)| committed)
            .map(|(&epoch, _)| epoch)
            .max()
            .unwrap_or(0);
        for node in 1..=num_nodes {
            prop_assert_eq!(
                cluster.manager(node).lce(),
                max_committed,
                "node {} LCE did not converge", node
            );
            prop_assert!(cluster.manager(node).pending_txs().is_empty());
        }

        // Final RO snapshots see every committed transaction on
        // every node.
        for node in 1..=num_nodes {
            let snap = cluster.manager(node).begin_ro();
            for (&epoch, &committed) in &finished {
                if committed {
                    prop_assert!(snap.sees(epoch));
                }
            }
        }
    }

    /// RO transactions never see torn states: their epoch is always a
    /// committed prefix point, whatever the interleaving.
    #[test]
    fn ro_snapshots_are_always_committed_prefixes(
        num_nodes in 1u64..4,
        interleave in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let cluster = ProtocolCluster::new(num_nodes, SimulatedNetwork::instant());
        let mut open = std::collections::VecDeque::new();
        let mut node_cycle = 0u64;
        for begin in interleave {
            if begin || open.is_empty() {
                node_cycle += 1;
                let node = node_cycle % num_nodes + 1;
                let mut txn = cluster.begin_rw(node);
                cluster.broadcast_begin(&mut txn, 0).unwrap();
                open.push_back(txn);
            } else {
                let txn = open.pop_front().unwrap();
                cluster.commit(&txn).unwrap();
            }
            for node in 1..=num_nodes {
                let snap = cluster.manager(node).begin_ro();
                for t in &open {
                    prop_assert!(!snap.sees(t.epoch),
                        "RO snapshot at {} sees open T{}", snap.epoch(), t.epoch);
                }
            }
        }
    }
}
