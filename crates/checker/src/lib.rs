//! Online snapshot-isolation checker for the AOSI protocol.
//!
//! The chaos harness feeds every transaction lifecycle event, read
//! observation, and clock sample into an [`SiChecker`], which
//! verifies the protocol's invariants **while the system runs** —
//! the event log never has to be persisted or post-processed, and a
//! violation is caught at the first event that exhibits it.
//!
//! The invariants, in the paper's terms (Sections III-B, IV-A, IV-C):
//!
//! 1. **Epoch assignment** — epochs are unique cluster-wide, and a
//!    node's epochs stay in its stride residue class
//!    (`epoch % n == node % n`), so two nodes can never mint the
//!    same epoch no matter how clock merges interleave.
//! 2. **Lifecycle** — a transaction commits or rolls back at most
//!    once, never both, and only after it began; its deps all
//!    precede it.
//! 3. **Snapshot visibility** — a read at snapshot epoch `E` with
//!    deps `D` observes only epochs `j <= E` with `j ∉ D`, never a
//!    rolled-back epoch, and never a pending epoch other than the
//!    reading transaction itself (pending work is hidden by `D`;
//!    anything else visible must already be committed).
//! 4. **Committed reads are stable** — the same `(key, E, D)` always
//!    yields the same result fingerprint, no matter what the network
//!    reorders in between.
//! 5. **Clock sanity** — per node, `LSE <= LCE < EC` always holds,
//!    all three advance monotonically, and EC keeps its residue.
//!
//! The checker is deliberately independent of the cluster crate: it
//! sees only the event stream, so it cannot inherit a bug from the
//! protocol implementation it is checking.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use aosi::Epoch;
use obs::sync::unpoison;

/// 1-based node identifier.
pub type NodeId = u64;

/// One observation fed to the checker.
#[derive(Clone, Debug)]
pub enum TxnEvent {
    /// A RW transaction began on `node` with its deps fully
    /// assembled (after the begin broadcast).
    Begin {
        /// Coordinator node.
        node: NodeId,
        /// Epoch assigned by the coordinator's strided clock.
        epoch: Epoch,
        /// Union of pending sets captured at begin.
        deps: BTreeSet<Epoch>,
    },
    /// The transaction committed (coordinator decision).
    Commit {
        /// Coordinator node.
        node: NodeId,
        /// The committed epoch.
        epoch: Epoch,
    },
    /// The transaction rolled back (coordinator decision).
    Rollback {
        /// Coordinator node.
        node: NodeId,
        /// The rolled-back epoch.
        epoch: Epoch,
    },
    /// A query ran: which epochs its result actually contained.
    Read {
        /// Coordinator node of the query.
        node: NodeId,
        /// Snapshot epoch the query ran at.
        snapshot_epoch: Epoch,
        /// The snapshot's deps (empty for RO snapshots).
        deps: BTreeSet<Epoch>,
        /// Epochs whose writes were visible in the result.
        observed: BTreeSet<Epoch>,
        /// The reading RW transaction, if any (sees its own writes).
        reader: Option<Epoch>,
        /// Identifies *what* was read (query/cube), for stability.
        key: String,
        /// Hash of the result, for stability comparison.
        fingerprint: u64,
    },
    /// A sample of one node's epoch clock state.
    ClockSample {
        /// Sampled node.
        node: NodeId,
        /// Epoch Clock (next epoch to assign).
        ec: Epoch,
        /// Latest Committed Epoch.
        lce: Epoch,
        /// Lowest Stable Epoch.
        lse: Epoch,
    },
}

#[derive(Debug, Default)]
struct CheckerState {
    /// epoch -> (origin node, deps)
    begun: BTreeMap<Epoch, (NodeId, BTreeSet<Epoch>)>,
    committed: BTreeSet<Epoch>,
    rolled_back: BTreeSet<Epoch>,
    /// (key, snapshot epoch, deps) -> first fingerprint seen.
    fingerprints: HashMap<(String, Epoch, Vec<Epoch>), u64>,
    /// node -> last (ec, lce, lse) sample.
    clocks: BTreeMap<NodeId, (Epoch, Epoch, Epoch)>,
    violations: Vec<String>,
    events: u64,
}

/// The online checker. Cheap to share (`&SiChecker` is `Sync`);
/// every [`SiChecker::record`] call verifies the event against all
/// state accumulated so far.
#[derive(Debug)]
pub struct SiChecker {
    num_nodes: u64,
    state: Mutex<CheckerState>,
}

impl SiChecker {
    /// A checker for a cluster of `num_nodes` strided clocks.
    pub fn new(num_nodes: u64) -> Self {
        assert!(num_nodes > 0, "cluster cannot be empty");
        SiChecker {
            num_nodes,
            state: Mutex::new(CheckerState::default()),
        }
    }

    /// Feeds one event; any invariant it breaks is recorded.
    pub fn record(&self, event: TxnEvent) {
        let mut s = unpoison(self.state.lock());
        s.events += 1;
        match event {
            TxnEvent::Begin { node, epoch, deps } => {
                self.check_begin(&mut s, node, epoch, deps);
            }
            TxnEvent::Commit { node, epoch } => {
                self.check_finish(&mut s, node, epoch, false);
            }
            TxnEvent::Rollback { node, epoch } => {
                self.check_finish(&mut s, node, epoch, true);
            }
            TxnEvent::Read {
                node,
                snapshot_epoch,
                deps,
                observed,
                reader,
                key,
                fingerprint,
            } => {
                self.check_read(
                    &mut s,
                    node,
                    snapshot_epoch,
                    &deps,
                    &observed,
                    reader,
                    key,
                    fingerprint,
                );
            }
            TxnEvent::ClockSample { node, ec, lce, lse } => {
                self.check_clock(&mut s, node, ec, lce, lse);
            }
        }
    }

    fn check_begin(&self, s: &mut CheckerState, node: NodeId, epoch: Epoch, deps: BTreeSet<Epoch>) {
        if node == 0 || node > self.num_nodes {
            s.violations
                .push(format!("begin T{epoch}: unknown node {node}"));
            return;
        }
        if epoch % self.num_nodes != node % self.num_nodes {
            s.violations.push(format!(
                "begin T{epoch} on node {node}: epoch escaped the node's \
                 stride residue class (mod {})",
                self.num_nodes
            ));
        }
        if s.begun.contains_key(&epoch) {
            s.violations
                .push(format!("begin T{epoch}: epoch assigned twice"));
        }
        if s.committed.contains(&epoch) || s.rolled_back.contains(&epoch) {
            s.violations
                .push(format!("begin T{epoch}: epoch already finished"));
        }
        for &d in &deps {
            if d >= epoch {
                s.violations.push(format!(
                    "begin T{epoch}: dep T{d} does not precede the transaction"
                ));
            }
        }
        s.begun.insert(epoch, (node, deps));
    }

    fn check_finish(&self, s: &mut CheckerState, node: NodeId, epoch: Epoch, rollback: bool) {
        let what = if rollback { "rollback" } else { "commit" };
        match s.begun.get(&epoch) {
            None => {
                s.violations.push(format!("{what} T{epoch}: never began"));
            }
            Some((origin, _)) if *origin != node => {
                s.violations.push(format!(
                    "{what} T{epoch} from node {node}: transaction belongs to \
                     node {origin}"
                ));
            }
            Some(_) => {}
        }
        if s.committed.contains(&epoch) {
            s.violations
                .push(format!("{what} T{epoch}: transaction already committed"));
        }
        if s.rolled_back.contains(&epoch) {
            s.violations
                .push(format!("{what} T{epoch}: transaction already rolled back"));
        }
        if rollback {
            s.rolled_back.insert(epoch);
        } else {
            s.committed.insert(epoch);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_read(
        &self,
        s: &mut CheckerState,
        node: NodeId,
        snapshot_epoch: Epoch,
        deps: &BTreeSet<Epoch>,
        observed: &BTreeSet<Epoch>,
        reader: Option<Epoch>,
        key: String,
        fingerprint: u64,
    ) {
        for &j in observed {
            if j > snapshot_epoch {
                s.violations.push(format!(
                    "read@{snapshot_epoch} on node {node}: observed future \
                     epoch T{j}"
                ));
            }
            if deps.contains(&j) {
                s.violations.push(format!(
                    "read@{snapshot_epoch} on node {node}: observed excluded \
                     dep T{j}"
                ));
            }
            if s.rolled_back.contains(&j) {
                s.violations.push(format!(
                    "read@{snapshot_epoch} on node {node}: observed \
                     rolled-back epoch T{j}"
                ));
            }
            let is_reader_itself = reader == Some(j);
            if !is_reader_itself && !s.committed.contains(&j) {
                s.violations.push(format!(
                    "read@{snapshot_epoch} on node {node}: observed pending \
                     epoch T{j} (not hidden by deps, not the reader)"
                ));
            }
        }
        // Stability: identical (key, snapshot, deps) must always
        // produce the identical result.
        let sig = (
            key,
            snapshot_epoch,
            deps.iter().copied().collect::<Vec<_>>(),
        );
        match s.fingerprints.get(&sig) {
            None => {
                s.fingerprints.insert(sig, fingerprint);
            }
            Some(&first) if first != fingerprint => {
                s.violations.push(format!(
                    "read@{snapshot_epoch} key {:?}: committed read unstable \
                     ({first:#x} then {fingerprint:#x})",
                    sig.0
                ));
            }
            Some(_) => {}
        }
    }

    fn check_clock(&self, s: &mut CheckerState, node: NodeId, ec: Epoch, lce: Epoch, lse: Epoch) {
        if lse > lce {
            s.violations
                .push(format!("clock node {node}: LSE {lse} passed LCE {lce}"));
        }
        if lce >= ec {
            s.violations
                .push(format!("clock node {node}: LCE {lce} caught up to EC {ec}"));
        }
        if ec % self.num_nodes != node % self.num_nodes {
            s.violations.push(format!(
                "clock node {node}: EC {ec} escaped the stride residue class \
                 (mod {})",
                self.num_nodes
            ));
        }
        if let Some(&(pec, plce, plse)) = s.clocks.get(&node) {
            if ec < pec || lce < plce || lse < plse {
                s.violations.push(format!(
                    "clock node {node}: regression ({pec},{plce},{plse}) -> \
                     ({ec},{lce},{lse})"
                ));
            }
        }
        s.clocks.insert(node, (ec, lce, lse));
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<String> {
        unpoison(self.state.lock()).violations.clone()
    }

    /// Events processed so far.
    pub fn events_checked(&self) -> u64 {
        unpoison(self.state.lock()).events
    }

    /// Epochs currently begun-but-unfinished, as seen by the checker.
    pub fn pending(&self) -> Vec<Epoch> {
        let s = unpoison(self.state.lock());
        s.begun
            .keys()
            .filter(|e| !s.committed.contains(e) && !s.rolled_back.contains(e))
            .copied()
            .collect()
    }

    /// Panics with every violation if any invariant was broken.
    /// Chaos tests call this after settling; the panic message lists
    /// each violation so the seed can be replayed against it.
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(
            v.is_empty(),
            "SI checker found {} violation(s):\n  {}",
            v.len(),
            v.join("\n  ")
        );
    }
}

/// Replica-divergence checker: every replica of a brick answering the
/// same query at the same snapshot must produce an identical result
/// fingerprint. Feed it one observation per `(brick, replica)` pair;
/// the first fingerprint observed for a brick becomes the reference
/// and every later replica is compared against it.
///
/// This is the read-side complement of the [`SiChecker`]: SI says a
/// committed read is stable over *time*; this says it is stable over
/// *placement* — which replica happened to answer must be
/// unobservable.
#[derive(Debug, Default)]
pub struct ReplicaDivergenceChecker {
    /// `(cube, bid)` → (first replica seen, its fingerprint).
    reference: std::collections::HashMap<(String, u64), (NodeId, String)>,
    violations: Vec<String>,
    observations: u64,
}

impl ReplicaDivergenceChecker {
    /// Fresh checker with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one replica's answer for one brick. Any replica that
    /// disagrees with the first answer recorded for that brick is a
    /// violation.
    pub fn observe(&mut self, cube: &str, bid: u64, node: NodeId, fingerprint: &str) {
        self.observations += 1;
        let key = (cube.to_owned(), bid);
        match self.reference.get(&key) {
            None => {
                self.reference.insert(key, (node, fingerprint.to_owned()));
            }
            Some((ref_node, ref_fp)) => {
                if ref_fp != fingerprint {
                    self.violations.push(format!(
                        "cube {cube:?} brick {bid}: replica {node} diverges from \
                         replica {ref_node} ({fingerprint:?} != {ref_fp:?})"
                    ));
                }
            }
        }
    }

    /// Observations recorded so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// All divergences recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// `Err` with every divergence joined, `Ok` if replicas agree.
    pub fn finish(&self) -> Result<(), String> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} replica divergence(s):\n  {}",
                self.violations.len(),
                self.violations.join("\n  ")
            ))
        }
    }
}

/// Order-insensitive fingerprint helper for read stability: combine
/// each row's hash with a commutative fold so shard scheduling
/// cannot change the fingerprint of an identical result set.
pub fn fingerprint_rows<I: IntoIterator<Item = u64>>(row_hashes: I) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for h in row_hashes {
        // Commutative mix: multiplication by an odd constant after a
        // xor-fold, summed. Sensitive to multiplicity, blind to order.
        acc = acc.wrapping_add((h ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0x100_0000_01b3));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps(v: &[Epoch]) -> BTreeSet<Epoch> {
        v.iter().copied().collect()
    }

    fn begin(node: NodeId, epoch: Epoch, d: &[Epoch]) -> TxnEvent {
        TxnEvent::Begin {
            node,
            epoch,
            deps: deps(d),
        }
    }

    fn read(snapshot: Epoch, d: &[Epoch], observed: &[Epoch], fp: u64) -> TxnEvent {
        TxnEvent::Read {
            node: 1,
            snapshot_epoch: snapshot,
            deps: deps(d),
            observed: deps(observed),
            reader: None,
            key: "q".into(),
            fingerprint: fp,
        }
    }

    #[test]
    fn clean_history_stays_clean() {
        let c = SiChecker::new(3);
        c.record(begin(1, 1, &[]));
        c.record(begin(2, 5, &[1]));
        c.record(TxnEvent::Commit { node: 1, epoch: 1 });
        c.record(read(1, &[], &[1], 0xAB));
        c.record(read(1, &[], &[1], 0xAB));
        c.record(TxnEvent::Commit { node: 2, epoch: 5 });
        c.record(TxnEvent::ClockSample {
            node: 1,
            ec: 7,
            lce: 5,
            lse: 1,
        });
        c.assert_clean();
        assert_eq!(c.events_checked(), 7);
        assert!(c.pending().is_empty());
    }

    #[test]
    fn stride_violation_is_caught() {
        let c = SiChecker::new(3);
        c.record(begin(2, 1, &[])); // node 2 minting a residue-1 epoch
        assert!(c.violations()[0].contains("stride"));
    }

    #[test]
    fn duplicate_epoch_is_caught() {
        let c = SiChecker::new(2);
        c.record(begin(1, 3, &[]));
        c.record(begin(1, 3, &[]));
        assert!(c.violations().iter().any(|v| v.contains("twice")));
    }

    #[test]
    fn dep_not_preceding_is_caught() {
        let c = SiChecker::new(2);
        c.record(begin(1, 3, &[3]));
        assert!(c.violations()[0].contains("precede"));
    }

    #[test]
    fn double_commit_and_commit_after_rollback_are_caught() {
        let c = SiChecker::new(2);
        c.record(begin(1, 1, &[]));
        c.record(TxnEvent::Commit { node: 1, epoch: 1 });
        c.record(TxnEvent::Commit { node: 1, epoch: 1 });
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("already committed")));

        let c = SiChecker::new(2);
        c.record(begin(1, 1, &[]));
        c.record(TxnEvent::Rollback { node: 1, epoch: 1 });
        c.record(TxnEvent::Commit { node: 1, epoch: 1 });
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("already rolled back")));
    }

    #[test]
    fn finish_without_begin_is_caught() {
        let c = SiChecker::new(2);
        c.record(TxnEvent::Commit { node: 1, epoch: 9 });
        assert!(c.violations()[0].contains("never began"));
    }

    #[test]
    fn read_of_pending_rolled_back_or_future_is_caught() {
        let c = SiChecker::new(2);
        c.record(begin(1, 1, &[]));
        c.record(begin(2, 2, &[1]));
        // T1 pending and NOT in this snapshot's deps -> violation.
        c.record(read(3, &[], &[1], 1));
        assert!(c.violations().iter().any(|v| v.contains("pending")));
        // Excluded dep observed -> violation.
        c.record(read(3, &[1], &[1], 2));
        assert!(c.violations().iter().any(|v| v.contains("excluded dep")));
        // Future epoch observed -> violation.
        c.record(TxnEvent::Commit { node: 1, epoch: 1 });
        c.record(read(0, &[], &[1], 3));
        assert!(c.violations().iter().any(|v| v.contains("future")));
        // Rolled-back epoch observed -> violation.
        c.record(TxnEvent::Rollback { node: 2, epoch: 2 });
        c.record(read(5, &[], &[2], 4));
        assert!(c.violations().iter().any(|v| v.contains("rolled-back")));
    }

    #[test]
    fn own_writes_are_not_a_violation() {
        let c = SiChecker::new(2);
        c.record(begin(1, 1, &[]));
        c.record(TxnEvent::Read {
            node: 1,
            snapshot_epoch: 1,
            deps: BTreeSet::new(),
            observed: deps(&[1]),
            reader: Some(1),
            key: "own".into(),
            fingerprint: 7,
        });
        c.assert_clean();
    }

    #[test]
    fn unstable_committed_read_is_caught() {
        let c = SiChecker::new(2);
        c.record(begin(1, 1, &[]));
        c.record(TxnEvent::Commit { node: 1, epoch: 1 });
        c.record(read(1, &[], &[1], 0xAA));
        c.record(read(1, &[], &[1], 0xBB));
        assert!(c.violations()[0].contains("unstable"));
    }

    #[test]
    fn clock_violations_are_caught() {
        let c = SiChecker::new(2);
        c.record(TxnEvent::ClockSample {
            node: 1,
            ec: 5,
            lce: 6,
            lse: 7,
        });
        let v = c.violations();
        assert!(v.iter().any(|m| m.contains("LSE")));
        assert!(v.iter().any(|m| m.contains("LCE")));

        // Monotonicity.
        let c = SiChecker::new(2);
        c.record(TxnEvent::ClockSample {
            node: 1,
            ec: 5,
            lce: 2,
            lse: 0,
        });
        c.record(TxnEvent::ClockSample {
            node: 1,
            ec: 3,
            lce: 2,
            lse: 0,
        });
        assert!(c.violations().iter().any(|m| m.contains("regression")));

        // Residue.
        let c = SiChecker::new(2);
        c.record(TxnEvent::ClockSample {
            node: 1,
            ec: 4,
            lce: 1,
            lse: 0,
        });
        assert!(c.violations().iter().any(|m| m.contains("stride")));
    }

    #[test]
    fn fingerprint_is_order_insensitive_but_multiplicity_sensitive() {
        let a = fingerprint_rows([1u64, 2, 3]);
        let b = fingerprint_rows([3u64, 1, 2]);
        let d = fingerprint_rows([1u64, 2, 3, 3]);
        assert_eq!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn replica_divergence_agreeing_replicas_are_clean() {
        let mut c = ReplicaDivergenceChecker::new();
        c.observe("events", 3, 1, "fp-a");
        c.observe("events", 3, 2, "fp-a");
        c.observe("events", 7, 2, "fp-b");
        c.observe("events", 7, 3, "fp-b");
        assert_eq!(c.observations(), 4);
        assert!(c.finish().is_ok());
    }

    #[test]
    fn replica_divergence_flags_the_disagreeing_replica() {
        let mut c = ReplicaDivergenceChecker::new();
        c.observe("events", 3, 1, "fp-a");
        c.observe("events", 3, 2, "fp-DIFFERENT");
        let err = c.finish().unwrap_err();
        assert!(err.contains("brick 3"), "{err}");
        assert!(err.contains("replica 2"), "{err}");
        // Same fingerprint on a different brick is not a divergence.
        let mut c = ReplicaDivergenceChecker::new();
        c.observe("events", 3, 1, "fp-a");
        c.observe("events", 4, 2, "fp-b");
        assert!(c.finish().is_ok());
    }
}
