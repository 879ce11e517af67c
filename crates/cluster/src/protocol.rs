//! The distributed transaction flow of Section IV, hardened against
//! an unreliable wire.
//!
//! Epochs are assigned purely locally (strided clocks, Section IV-A);
//! the begin broadcast — piggybacked on the transaction's first
//! fan-out operation — updates every remote Epoch Clock past the new
//! epoch and returns each node's `pendingTxs`, whose union becomes
//! the transaction's deps (Section IV-C). Commits are a single
//! roundtrip with no consensus: "since there is no deterministic
//! reason why a transaction could fail once it starts execution …
//! the commit message can be implemented using a single roundtrip to
//! each node."
//!
//! Clock piggybacking follows Table IV exactly: operation fan-outs
//! push the origin's clock outward (one-way merge at the receivers);
//! commit responses additionally merge the remotes' clocks back into
//! the origin.
//!
//! ## Fault tolerance
//!
//! Every message goes through
//! [`SimulatedNetwork::transmit_checked`], which may drop, duplicate,
//! or delay it per the network's [`FaultPlan`](crate::FaultPlan).
//! The protocol compensates with three mechanisms:
//!
//! * **Bounded retry with exponential backoff** ([`RetryPolicy`]):
//!   a dropped or delayed request/response surfaces as a timeout and
//!   the whole roundtrip is retried.
//! * **Idempotent handlers**: each node remembers which
//!   `(epoch, message class)` pairs it already applied, so duplicate
//!   and retried deliveries are suppressed, and a begin that arrives
//!   *after* its transaction's commit/rollback (a reordering) is
//!   discarded instead of resurrecting the epoch in `pendingTxs`.
//! * **Re-driving partial finishes**: a commit/rollback that exhausts
//!   its retry budget on some node is queued and re-driven
//!   ([`ProtocolCluster::redrive_unacked`] /
//!   [`ProtocolCluster::settle`]) until every node acks — commits
//!   never block on a dead node, they just keep that node's LCE (and
//!   transitively the cluster's read frontier) behind until delivery
//!   succeeds.
//!
//! With no fault plan installed, `transmit_checked` always delivers
//! exactly once and this module behaves message-for-message like the
//! original lossless protocol.

use std::collections::BTreeSet;
use std::sync::{Mutex, RwLock};
use std::time::Duration;

use aosi::{AosiError, Epoch, Snapshot, TxnManager};
use obs::sync::unpoison;
use obs::{Counter, ReportBuilder};

use crate::bus::{Fate, MsgKind, SimulatedNetwork};

/// 1-based node identifier (matches the epoch stride residues).
pub type NodeId = u64;

/// Approximate wire size of a protocol message header.
const HEADER_BYTES: usize = 24;

/// Wire size of one piggybacked epoch clock value.
const CLOCK_BYTES: usize = std::mem::size_of::<Epoch>();

/// Retry budget for one logical message exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per roundtrip (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent
    /// retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    fn backoff_for(&self, attempt: u32) -> Duration {
        let mut d = self.base_backoff;
        for _ in 0..attempt {
            d = (d * 2).min(self.max_backoff);
        }
        d.min(self.max_backoff)
    }
}

/// Message classes that must be applied at most once per epoch.
const CLASS_BEGIN: u8 = 0;
const CLASS_COMMIT: u8 = 1;
const CLASS_ROLLBACK: u8 = 2;

/// A protocol payload as it travels (and lingers) on the wire.
///
/// Delayed messages are held as `WireMsg`s and applied once their
/// due sequence number passes — after messages sent later, which is
/// exactly a reordering.
#[derive(Clone, Debug)]
enum WireMsg {
    /// Begin registration: merge the origin's clock, register the
    /// epoch in the remote `pendingTxs`.
    Begin { epoch: Epoch, origin_ec: Epoch },
    /// Operation fan-out: one-way clock merge.
    Forward { origin_ec: Epoch },
    /// Commit or rollback of `epoch` at the receiver.
    Finish {
        epoch: Epoch,
        origin_ec: Epoch,
        rollback: bool,
    },
    /// A response travelling back to the coordinator; commit and
    /// rollback responses merge the remote's clock into the origin.
    Response { merge_ec: Option<Epoch> },
}

/// A message held in flight by a delay fault.
#[derive(Debug)]
struct DelayedMsg {
    due_seq: u64,
    to: NodeId,
    msg: WireMsg,
}

/// A commit/rollback that exhausted its retry budget on one node and
/// awaits re-driving.
#[derive(Clone, Debug)]
struct UnackedOp {
    epoch: Epoch,
    origin: NodeId,
    node: NodeId,
    rollback: bool,
    deps_bytes: usize,
    /// The origin's EC captured when the finish was decided — every
    /// fan-out leg carries the same clock value (Table IV).
    origin_ec: Epoch,
}

/// Per-node receive-side state: which `(epoch, class)` messages this
/// node has already applied. This is what makes every handler
/// idempotent under duplication, retry, and reordering.
#[derive(Debug, Default)]
struct Endpoint {
    applied: Mutex<BTreeSet<(Epoch, u8)>>,
}

/// Fault-handling counters, reported under `[cluster.protocol]`.
#[derive(Debug, Default)]
pub struct ProtocolMetrics {
    /// Roundtrip attempts beyond the first (per target).
    pub retries: Counter,
    /// Attempts that timed out (request or response lost/held).
    pub timeouts: Counter,
    /// Duplicate deliveries suppressed by the idempotency filter.
    pub dedup_hits: Counter,
    /// Messages for already-finished transactions (late reordered
    /// deliveries the managers rejected).
    pub stale_ops: Counter,
    /// Unacked commit/rollback deliveries re-driven.
    pub redrives: Counter,
    /// Delayed messages eventually applied out of order.
    pub delayed_applied: Counter,
}

/// A RW transaction coordinated from one node of the cluster.
#[derive(Debug)]
pub struct DistributedTxn {
    /// Coordinator node.
    pub origin: NodeId,
    /// The transaction's epoch.
    pub epoch: Epoch,
    deps: BTreeSet<Epoch>,
    broadcasted: bool,
    /// Remotes whose begin roundtrip succeeded.
    begun_on: BTreeSet<NodeId>,
    /// Remotes whose begin roundtrip exhausted its retry budget. A
    /// delayed begin may still land there, so finishes must reach
    /// these nodes too.
    failed_on: BTreeSet<NodeId>,
}

impl DistributedTxn {
    /// The snapshot this transaction reads from.
    ///
    /// # Panics
    /// Panics if called before the begin broadcast: without the
    /// remote pending sets the snapshot would not be SI-consistent.
    pub fn snapshot(&self) -> Snapshot {
        assert!(
            self.broadcasted,
            "snapshot requested before the begin broadcast completed"
        );
        Snapshot::new(self.epoch, self.deps.clone())
    }

    /// Deps gathered so far (local until broadcast, then global).
    pub fn deps(&self) -> &BTreeSet<Epoch> {
        &self.deps
    }

    /// `true` once the begin broadcast reached every remote.
    pub fn is_broadcasted(&self) -> bool {
        self.broadcasted
    }

    /// Remotes that acked this transaction's begin.
    pub fn begun_on(&self) -> &BTreeSet<NodeId> {
        &self.begun_on
    }

    /// Remotes whose begin could not be delivered (so far).
    pub fn failed_on(&self) -> &BTreeSet<NodeId> {
        &self.failed_on
    }

    /// Every node a finish message must reach: acked remotes plus
    /// remotes where a delayed begin may still land.
    fn finish_targets(&self) -> Vec<NodeId> {
        self.begun_on.union(&self.failed_on).copied().collect()
    }
}

/// All the per-node transaction managers plus the simulated wire.
///
/// Higher layers (the multi-node Cubrick engine) hold one of these
/// and route data operations themselves; this type owns only the
/// concurrency-control traffic.
pub struct ProtocolCluster {
    managers: Vec<TxnManager>,
    network: SimulatedNetwork,
    retry: RetryPolicy,
    endpoints: Vec<Endpoint>,
    delayed: Mutex<Vec<DelayedMsg>>,
    unacked: Mutex<Vec<UnackedOp>>,
    metrics: ProtocolMetrics,
    /// Nodes currently participating in begin broadcasts. Slots are
    /// provisioned up to capacity (`managers.len()`) so epoch stride
    /// residues stay stable across join/leave; membership changes
    /// only flip entries in this set.
    active: RwLock<BTreeSet<NodeId>>,
}

impl ProtocolCluster {
    /// A cluster of `num_nodes` nodes sharing `network`, with the
    /// default retry policy.
    pub fn new(num_nodes: u64, network: SimulatedNetwork) -> Self {
        Self::with_retry(num_nodes, network, RetryPolicy::default())
    }

    /// A cluster with an explicit retry budget.
    pub fn with_retry(num_nodes: u64, network: SimulatedNetwork, retry: RetryPolicy) -> Self {
        Self::with_capacity(
            num_nodes,
            &(1..=num_nodes).collect::<Vec<_>>(),
            network,
            retry,
        )
    }

    /// An elastic cluster: manager slots provisioned for nodes
    /// `1..=capacity` (fixing the epoch stride for good), with only
    /// `active` participating in broadcasts initially. Nodes outside
    /// the active set are dormant until
    /// [`ProtocolCluster::activate`]d by a join.
    ///
    /// # Panics
    /// Panics if `active` is empty or names a node beyond capacity.
    pub fn with_capacity(
        capacity: u64,
        active: &[NodeId],
        network: SimulatedNetwork,
        retry: RetryPolicy,
    ) -> Self {
        assert!(!active.is_empty(), "need at least one active node");
        assert!(
            active.iter().all(|&n| (1..=capacity).contains(&n)),
            "active nodes must be within 1..=capacity"
        );
        let managers = (1..=capacity)
            .map(|i| TxnManager::new(i, capacity))
            .collect();
        let endpoints = (0..capacity).map(|_| Endpoint::default()).collect();
        ProtocolCluster {
            managers,
            network,
            retry,
            endpoints,
            delayed: Mutex::new(Vec::new()),
            unacked: Mutex::new(Vec::new()),
            metrics: ProtocolMetrics::default(),
            active: RwLock::new(active.iter().copied().collect()),
        }
    }

    /// Provisioned cluster size (manager slots, active or not).
    pub fn num_nodes(&self) -> u64 {
        self.managers.len() as u64
    }

    /// Nodes currently participating in broadcasts, ascending.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        unpoison(self.active.read()).iter().copied().collect()
    }

    /// Whether `node` currently participates in broadcasts.
    pub fn is_active(&self, node: NodeId) -> bool {
        unpoison(self.active.read()).contains(&node)
    }

    /// Activates a dormant slot (a node join). The joiner's clock is
    /// caught up to the highest EC among already-active nodes so its
    /// first epoch sorts after everything already begun. Idempotent.
    ///
    /// # Panics
    /// Panics on a node beyond capacity.
    pub fn activate(&self, node: NodeId) {
        assert!(
            (1..=self.num_nodes()).contains(&node),
            "node {node} beyond provisioned capacity"
        );
        let mut active = unpoison(self.active.write());
        if active.insert(node) {
            let max_ec = active
                .iter()
                .filter(|&&n| n != node)
                .map(|&n| self.manager(n).clock().current_ec())
                .max()
                .unwrap_or(0);
            self.manager(node).clock().observe(max_ec);
        }
    }

    /// Deactivates a slot (a node leave): it stops receiving begin
    /// broadcasts. Its manager keeps its state, so a later
    /// [`ProtocolCluster::activate`] resumes cleanly. Idempotent.
    ///
    /// # Panics
    /// Panics when deactivating the last active node.
    pub fn deactivate(&self, node: NodeId) {
        let mut active = unpoison(self.active.write());
        if active.remove(&node) {
            assert!(!active.is_empty(), "cannot deactivate the last active node");
        }
    }

    /// The manager of `node` (1-based).
    pub fn manager(&self, node: NodeId) -> &TxnManager {
        &self.managers[(node - 1) as usize]
    }

    /// The shared network (for traffic stats).
    pub fn network(&self) -> &SimulatedNetwork {
        &self.network
    }

    /// Fault-handling counters.
    pub fn metrics(&self) -> &ProtocolMetrics {
        &self.metrics
    }

    /// Commit/rollback deliveries still awaiting a remote ack.
    pub fn unacked_len(&self) -> usize {
        unpoison(self.unacked.lock()).len()
    }

    /// Messages currently held in flight by delay faults.
    pub fn delayed_len(&self) -> usize {
        unpoison(self.delayed.lock()).len()
    }

    fn endpoint(&self, node: NodeId) -> &Endpoint {
        &self.endpoints[(node - 1) as usize]
    }

    /// Applies one wire message at its destination, idempotently.
    fn apply_wire(&self, to: NodeId, msg: &WireMsg) {
        match *msg {
            WireMsg::Begin { epoch, origin_ec } => {
                let ep = self.endpoint(to);
                let mut applied = unpoison(ep.applied.lock());
                // A begin after *any* prior message for this epoch is
                // a duplicate or a reordered late delivery; applying
                // it after a finish would resurrect the epoch in
                // pendingTxs and stall LCE forever.
                let seen = applied.contains(&(epoch, CLASS_BEGIN))
                    || applied.contains(&(epoch, CLASS_COMMIT))
                    || applied.contains(&(epoch, CLASS_ROLLBACK));
                if seen {
                    self.metrics.dedup_hits.inc();
                    return;
                }
                let remote = self.manager(to);
                // A begin for an epoch at or below this node's LCE is a
                // stale reordered delivery (delayed copy or redrive of a
                // roundtrip that already failed at the coordinator): the
                // epoch is globally finished here, and resurrecting it
                // into pendingTxs would let its late finish regress LCE.
                if epoch <= remote.lce() {
                    self.metrics.stale_ops.inc();
                    return;
                }
                applied.insert((epoch, CLASS_BEGIN));
                remote.clock().observe(origin_ec);
                remote.register_remote(epoch);
            }
            WireMsg::Forward { origin_ec } => {
                self.manager(to).clock().observe(origin_ec);
            }
            WireMsg::Finish {
                epoch,
                origin_ec,
                rollback,
            } => {
                let ep = self.endpoint(to);
                let mut applied = unpoison(ep.applied.lock());
                let class = if rollback {
                    CLASS_ROLLBACK
                } else {
                    CLASS_COMMIT
                };
                if applied.contains(&(epoch, CLASS_COMMIT))
                    || applied.contains(&(epoch, CLASS_ROLLBACK))
                {
                    self.metrics.dedup_hits.inc();
                    return;
                }
                applied.insert((epoch, class));
                let remote = self.manager(to);
                remote.clock().observe(origin_ec);
                let res = if rollback {
                    remote.rollback_remote(epoch)
                } else {
                    remote.commit_remote(epoch)
                };
                if res.is_err() {
                    // The epoch never registered here (its begin was
                    // lost for good); marking the class above still
                    // blocks any delayed begin from resurrecting it.
                    self.metrics.stale_ops.inc();
                }
            }
            WireMsg::Response { merge_ec } => {
                if let Some(ec) = merge_ec {
                    self.manager(to).clock().observe(ec);
                }
            }
        }
    }

    /// Applies every delayed message whose due sequence has passed.
    fn flush_due_delayed(&self) -> usize {
        let now = self.network.current_seq();
        self.flush_delayed_where(|m| m.due_seq <= now)
    }

    /// Applies every delayed message unconditionally ("eventual
    /// delivery" — used by [`ProtocolCluster::settle`]).
    fn flush_all_delayed(&self) -> usize {
        self.flush_delayed_where(|_| true)
    }

    fn flush_delayed_where(&self, pred: impl Fn(&DelayedMsg) -> bool) -> usize {
        let due: Vec<DelayedMsg> = {
            let mut q = unpoison(self.delayed.lock());
            let mut due = Vec::new();
            let mut rest = Vec::new();
            for m in q.drain(..) {
                if pred(&m) {
                    due.push(m);
                } else {
                    rest.push(m);
                }
            }
            *q = rest;
            due
        };
        for m in &due {
            self.apply_wire(m.to, &m.msg);
            self.metrics.delayed_applied.inc();
        }
        due.len()
    }

    /// One request/response exchange with retry. `respond` runs at
    /// the target after the request applies and returns
    /// `(response_pending_bytes, response_merge_ec, value)`; the
    /// value reaches the caller only if the response leg delivers.
    /// Returns `None` once the retry budget is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn roundtrip<R>(
        &self,
        origin: NodeId,
        target: NodeId,
        req_kind: MsgKind,
        resp_kind: MsgKind,
        req_payload_bytes: usize,
        req_pending_bytes: usize,
        req_msg: WireMsg,
        respond: impl Fn() -> (usize, Option<Epoch>, R),
    ) -> Option<R> {
        self.retrying(|| {
            self.flush_due_delayed();
            let fate = self.network.transmit_checked(
                req_kind,
                origin,
                target,
                req_payload_bytes,
                req_pending_bytes,
                CLOCK_BYTES,
            );
            match fate {
                Fate::Drop => {
                    self.metrics.timeouts.inc();
                    return None;
                }
                Fate::Delay { due_seq } => {
                    // The request is in flight somewhere; it will
                    // apply late. The sender can't tell that from a
                    // loss, so it still times out and retries.
                    unpoison(self.delayed.lock()).push(DelayedMsg {
                        due_seq,
                        to: target,
                        msg: req_msg.clone(),
                    });
                    self.metrics.timeouts.inc();
                    return None;
                }
                Fate::Deliver { copies } => {
                    for _ in 0..copies {
                        self.apply_wire(target, &req_msg);
                    }
                }
            }
            let (resp_pending_bytes, merge_ec, value) = respond();
            let fate = self.network.transmit_checked(
                resp_kind,
                target,
                origin,
                HEADER_BYTES + resp_pending_bytes,
                resp_pending_bytes,
                CLOCK_BYTES,
            );
            match fate {
                Fate::Drop => {
                    self.metrics.timeouts.inc();
                }
                Fate::Delay { due_seq } => {
                    unpoison(self.delayed.lock()).push(DelayedMsg {
                        due_seq,
                        to: origin,
                        msg: WireMsg::Response { merge_ec },
                    });
                    self.metrics.timeouts.inc();
                }
                // Extra response copies are harmless: clock merges
                // and pending-set unions are idempotent.
                Fate::Deliver { .. } => return Some(value),
            }
            None
        })
    }

    /// Runs `attempt` until it returns `Some`, at most
    /// `retry.max_attempts` times, counting each retry and sleeping
    /// the policy's backoff before it. `None` once the budget is
    /// exhausted.
    fn retrying<R>(&self, mut attempt: impl FnMut() -> Option<R>) -> Option<R> {
        for n in 0..self.retry.max_attempts {
            if n > 0 {
                self.metrics.retries.inc();
                let backoff = self.retry.backoff_for(n - 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            if let Some(value) = attempt() {
                return Some(value);
            }
        }
        None
    }

    /// Begins a RW transaction on `node`. Purely local: the begin
    /// broadcast rides on the first operation (see
    /// [`ProtocolCluster::broadcast_begin`]).
    pub fn begin_rw(&self, node: NodeId) -> DistributedTxn {
        let (epoch, deps) = self.manager(node).begin_rw_parts();
        DistributedTxn {
            origin: node,
            epoch,
            deps,
            broadcasted: unpoison(self.active.read()).len() == 1,
            begun_on: BTreeSet::new(),
            failed_on: BTreeSet::new(),
        }
    }

    /// Runs the begin broadcast for `txn`, piggybacked on an
    /// operation carrying `payload_bytes` to every other node:
    /// registers the epoch remotely, merges the origin's clock into
    /// each remote (one-way, as in Table IV's append event), and
    /// unions the remote pending sets into the deps.
    ///
    /// Under faults this is **resumable**: remotes that already acked
    /// are skipped, so a failed broadcast can be retried by calling
    /// again once the network heals. Returns
    /// [`AosiError::NodeUnreachable`] naming the first remote whose
    /// retry budget was exhausted.
    pub fn broadcast_begin(
        &self,
        txn: &mut DistributedTxn,
        payload_bytes: usize,
    ) -> Result<(), AosiError> {
        self.broadcast_begin_excluding(txn, payload_bytes, &BTreeSet::new())
    }

    /// [`ProtocolCluster::broadcast_begin`], skipping the nodes in
    /// `skip` entirely — the degraded-write path for replicas known to
    /// be down. A skipped node lands in neither `begun_on` nor
    /// `failed_on`, so finishes never target it; the caller must
    /// record the miss (e.g.
    /// [`ReplicationTracker::mark_missed`](crate::ReplicationTracker::mark_missed))
    /// so the §III-D gate holds the purge floor below the epoch until
    /// the node heals.
    ///
    /// Skipping dark nodes is SI-safe: deps come from the union of
    /// *reachable* pending sets, and every broadcasted transaction is
    /// registered on all nodes that were alive at its begin — so any
    /// transaction concurrent with this one is pending on some node
    /// this broadcast does reach.
    pub fn broadcast_begin_excluding(
        &self,
        txn: &mut DistributedTxn,
        payload_bytes: usize,
        skip: &BTreeSet<NodeId>,
    ) -> Result<(), AosiError> {
        if txn.broadcasted {
            return Ok(());
        }
        self.flush_due_delayed();
        let origin_ec = self.manager(txn.origin).clock().current_ec();
        let mut first_err = None;
        for node in self.active_nodes() {
            if node == txn.origin || txn.begun_on.contains(&node) || skip.contains(&node) {
                continue;
            }
            let remote = self.manager(node);
            let result = self.roundtrip(
                txn.origin,
                node,
                MsgKind::BeginRequest,
                MsgKind::BeginResponse,
                HEADER_BYTES + payload_bytes,
                0,
                WireMsg::Begin {
                    epoch: txn.epoch,
                    origin_ec,
                },
                || {
                    // Response: the remote's pendingTxs (and its EC,
                    // which Table IV shows the origin does not merge
                    // here).
                    let pending = remote.pending_txs();
                    let pending_bytes = pending.len() * std::mem::size_of::<Epoch>();
                    (pending_bytes, None, pending)
                },
            );
            match result {
                Some(pending) => {
                    txn.begun_on.insert(node);
                    txn.failed_on.remove(&node);
                    txn.deps
                        .extend(pending.into_iter().filter(|&p| p < txn.epoch));
                }
                None => {
                    txn.failed_on.insert(node);
                    first_err.get_or_insert(AosiError::NodeUnreachable {
                        epoch: txn.epoch,
                        node,
                    });
                }
            }
        }
        // Whatever deps the broadcast gathered (even partially, under
        // faults) must reach the origin's LSE gate: a purge that
        // outruns a remote-learned dep would leak its rows into this
        // transaction's snapshot.
        self.manager(txn.origin)
            .note_txn_deps(txn.epoch, txn.deps.iter().copied());
        match first_err {
            None => {
                txn.broadcasted = true;
                Ok(())
            }
            Some(e) => Err(e),
        }
    }

    /// Simulates forwarding an operation of `payload_bytes` from the
    /// coordinator to `targets`, carrying the origin's clock
    /// (one-way merge, Table IV's `append(T1)` row). The begin
    /// broadcast must already have run
    /// ([`AosiError::NotBroadcasted`] otherwise). Dropped forwards
    /// are retried; a delayed forward counts as delivered (it lands
    /// later, and clock merges commute).
    pub fn forward_op(
        &self,
        txn: &DistributedTxn,
        targets: &[NodeId],
        payload_bytes: usize,
    ) -> Result<(), AosiError> {
        if !txn.broadcasted {
            return Err(AosiError::NotBroadcasted(txn.epoch));
        }
        self.flush_due_delayed();
        let origin_ec = self.manager(txn.origin).clock().current_ec();
        for &node in targets {
            if node == txn.origin {
                continue;
            }
            let delivered = self.retrying(|| {
                let fate = self.network.transmit_checked(
                    MsgKind::Forward,
                    txn.origin,
                    node,
                    HEADER_BYTES + payload_bytes,
                    0,
                    CLOCK_BYTES,
                );
                match fate {
                    Fate::Drop => {
                        self.metrics.timeouts.inc();
                        return None;
                    }
                    Fate::Delay { due_seq } => {
                        unpoison(self.delayed.lock()).push(DelayedMsg {
                            due_seq,
                            to: node,
                            msg: WireMsg::Forward { origin_ec },
                        });
                    }
                    Fate::Deliver { .. } => {
                        self.manager(node).clock().observe(origin_ec);
                    }
                }
                Some(())
            });
            if delivered.is_none() {
                return Err(AosiError::NodeUnreachable {
                    epoch: txn.epoch,
                    node,
                });
            }
        }
        Ok(())
    }

    /// Commits `txn`: single roundtrip to every node that saw its
    /// begin, no consensus. Responses merge the remote clocks back
    /// into the origin (Table IV's `commit(T1)` row).
    ///
    /// A transaction that never broadcast sends **zero** messages —
    /// no other node registered it, so there is nothing to finish
    /// remotely.
    ///
    /// The local commit decision is final: remotes whose delivery
    /// exhausts the retry budget are queued for re-driving
    /// ([`ProtocolCluster::redrive_unacked`]) rather than failing the
    /// commit, and the affected node's LCE simply lags until the ack
    /// lands.
    pub fn commit(&self, txn: &DistributedTxn) -> Result<(), AosiError> {
        self.finish(txn, false)
    }

    /// Rolls `txn` back everywhere its begin may have reached (same
    /// message pattern and fault handling as commit).
    pub fn rollback(&self, txn: &DistributedTxn) -> Result<(), AosiError> {
        self.finish(txn, true)
    }

    fn finish(&self, txn: &DistributedTxn, rollback: bool) -> Result<(), AosiError> {
        self.flush_due_delayed();
        let origin = self.manager(txn.origin);
        if rollback {
            origin.rollback_remote(txn.epoch)?;
        } else {
            origin.commit_remote(txn.epoch)?;
        }
        {
            // Block any delayed begin still in flight *to the origin
            // itself* — there are none today (begins go only to
            // remotes), but the invariant is cheap to keep total.
            let mut applied = unpoison(self.endpoint(txn.origin).applied.lock());
            applied.insert((
                txn.epoch,
                if rollback {
                    CLASS_ROLLBACK
                } else {
                    CLASS_COMMIT
                },
            ));
        }
        let deps_bytes = if rollback {
            0
        } else {
            txn.deps.len() * std::mem::size_of::<Epoch>()
        };
        let origin_ec = origin.clock().current_ec();
        for node in txn.finish_targets() {
            self.drive_finish(&UnackedOp {
                epoch: txn.epoch,
                origin: txn.origin,
                node,
                rollback,
                deps_bytes,
                origin_ec,
            });
        }
        Ok(())
    }

    /// Runs one finish roundtrip; queues the op as unacked if the
    /// retry budget runs out. Returns `true` on ack.
    fn drive_finish(&self, op: &UnackedOp) -> bool {
        let origin = self.manager(op.origin);
        let remote = self.manager(op.node);
        let (req_kind, resp_kind) = if op.rollback {
            (MsgKind::RollbackRequest, MsgKind::RollbackResponse)
        } else {
            (MsgKind::CommitRequest, MsgKind::CommitResponse)
        };
        let result = self.roundtrip(
            op.origin,
            op.node,
            req_kind,
            resp_kind,
            HEADER_BYTES + op.deps_bytes,
            op.deps_bytes,
            WireMsg::Finish {
                epoch: op.epoch,
                origin_ec: op.origin_ec,
                rollback: op.rollback,
            },
            || {
                let remote_ec = remote.clock().current_ec();
                (0, Some(remote_ec), remote_ec)
            },
        );
        match result {
            Some(remote_ec) => {
                origin.clock().observe(remote_ec);
                true
            }
            None => {
                unpoison(self.unacked.lock()).push(op.clone());
                false
            }
        }
    }

    /// Re-attempts every unacked commit/rollback delivery once.
    /// Returns the number still unacked afterwards.
    pub fn redrive_unacked(&self) -> usize {
        let ops: Vec<UnackedOp> = std::mem::take(&mut *unpoison(self.unacked.lock()));
        for op in ops {
            self.metrics.redrives.inc();
            self.drive_finish(&op);
        }
        unpoison(self.unacked.lock()).len()
    }

    /// Drains delayed messages and re-drives unacked finishes until
    /// the cluster quiesces or no further progress is possible (a
    /// node still unreachable). Returns `true` when fully quiesced:
    /// no message in flight, every finish acked everywhere.
    pub fn settle(&self) -> bool {
        // A handful of rounds is plenty when the network is healthy;
        // under a permanent partition each round makes no progress
        // and the early-exit below fires.
        for _ in 0..32 {
            let flushed = self.flush_all_delayed();
            let before = unpoison(self.unacked.lock()).len();
            let after = if before > 0 {
                self.redrive_unacked()
            } else {
                before
            };
            if after == 0 && unpoison(self.delayed.lock()).is_empty() {
                return true;
            }
            if flushed == 0 && after >= before {
                return false;
            }
        }
        false
    }

    /// Writes the `[cluster.protocol]` section of a metrics report:
    /// retry/timeout/idempotency counters and the re-drive backlog.
    pub fn report(&self, report: &mut ReportBuilder) {
        report
            .section("cluster.protocol")
            .counter("retries", &self.metrics.retries)
            .counter("timeouts", &self.metrics.timeouts)
            .counter("dedup_hits", &self.metrics.dedup_hits)
            .counter("stale_ops", &self.metrics.stale_ops)
            .counter("redrives", &self.metrics.redrives)
            .counter("delayed_applied", &self.metrics.delayed_applied)
            .metric("unacked", self.unacked_len())
            .metric("delayed_in_flight", self.delayed_len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{FaultPlan, LatencyModel, LinkFaults};

    fn cluster(n: u64) -> ProtocolCluster {
        ProtocolCluster::new(n, SimulatedNetwork::instant())
    }

    fn faulted(n: u64, plan: FaultPlan) -> ProtocolCluster {
        ProtocolCluster::with_retry(
            n,
            SimulatedNetwork::with_faults(LatencyModel::instant(), plan),
            RetryPolicy {
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
        )
    }

    /// Reproduces Table IV: epoch clocks advancing on a 3-node
    /// cluster.
    #[test]
    fn table_iv_walkthrough() {
        let c = cluster(3);
        let ec = |n: NodeId| c.manager(n).clock().current_ec();
        assert_eq!((ec(1), ec(2), ec(3)), (1, 2, 3));

        // create(n1) -> T1: only n1's clock moves (1 -> 4).
        let mut t1 = c.begin_rw(1);
        assert_eq!(t1.epoch, 1);
        assert_eq!((ec(1), ec(2), ec(3)), (4, 2, 3));

        // append(T1): forwards to all nodes, pushing n1's clock out;
        // n2: 2 -> 5, n3: 3 -> 6; n1 unchanged.
        c.broadcast_begin(&mut t1, 1024).unwrap();
        assert_eq!((ec(1), ec(2), ec(3)), (4, 5, 6));

        // create(n3) -> T6 (EC 6 -> 9), create(n2) -> T5 (EC 5 -> 8).
        let t6 = c.begin_rw(3);
        assert_eq!(t6.epoch, 6);
        assert_eq!((ec(1), ec(2), ec(3)), (4, 5, 9));
        let t5 = c.begin_rw(2);
        assert_eq!(t5.epoch, 5);
        assert_eq!((ec(1), ec(2), ec(3)), (4, 8, 9));

        // commit(T1): n1 pushes EC=4 (no-op remotely) and merges the
        // responses 8 and 9, landing on 10.
        c.commit(&t1).unwrap();
        assert_eq!((ec(1), ec(2), ec(3)), (10, 8, 9));
    }

    #[test]
    fn begin_broadcast_unions_remote_pending() {
        let c = cluster(2);
        // A txn on node 2, begun and broadcast.
        let mut t2 = c.begin_rw(2);
        c.broadcast_begin(&mut t2, 0).unwrap();
        // A later txn on node 1 must pick up T2 as a dep even though
        // node 1 never began it.
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 0).unwrap();
        assert!(t.epoch > t2.epoch);
        assert!(t.deps().contains(&t2.epoch), "deps: {:?}", t.deps());
        let snap = t.snapshot();
        assert!(!snap.sees(t2.epoch));
        c.commit(&t2).unwrap();
        c.commit(&t).unwrap();
    }

    #[test]
    fn commit_advances_lce_on_every_node() {
        let c = cluster(3);
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 0).unwrap();
        c.commit(&t).unwrap();
        for node in 1..=3 {
            assert_eq!(c.manager(node).lce(), t.epoch, "node {node}");
        }
    }

    #[test]
    fn remote_lce_stalls_until_dep_commits() {
        let c = cluster(2);
        let mut t1 = c.begin_rw(1); // epoch 1
        c.broadcast_begin(&mut t1, 0).unwrap();
        let mut t2 = c.begin_rw(2); // epoch > 1
        c.broadcast_begin(&mut t2, 0).unwrap();
        c.commit(&t2).unwrap();
        for node in 1..=2 {
            assert_eq!(
                c.manager(node).lce(),
                0,
                "T1 still pending; LCE must stall on node {node}"
            );
        }
        c.commit(&t1).unwrap();
        for node in 1..=2 {
            assert_eq!(c.manager(node).lce(), t2.epoch, "node {node}");
        }
    }

    #[test]
    fn ro_transactions_generate_no_traffic() {
        let c = cluster(3);
        let before = c.network().stats().messages;
        let snap = c.manager(2).begin_ro();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(c.network().stats().messages, before);
    }

    #[test]
    fn rollback_disappears_everywhere() {
        let c = cluster(2);
        let mut t1 = c.begin_rw(1);
        c.broadcast_begin(&mut t1, 0).unwrap();
        let mut t2 = c.begin_rw(2);
        c.broadcast_begin(&mut t2, 0).unwrap();
        c.commit(&t2).unwrap();
        c.rollback(&t1).unwrap();
        for node in 1..=2 {
            assert_eq!(c.manager(node).lce(), t2.epoch, "node {node}");
            assert!(c.manager(node).pending_txs().is_empty());
        }
    }

    #[test]
    fn single_node_cluster_needs_no_broadcast() {
        let c = cluster(1);
        let t = c.begin_rw(1);
        assert!(t.is_broadcasted());
        let _ = t.snapshot();
        c.commit(&t).unwrap();
        assert_eq!(c.manager(1).lce(), t.epoch);
        assert_eq!(c.network().stats().messages, 0);
    }

    #[test]
    #[should_panic(expected = "begin broadcast")]
    fn snapshot_before_broadcast_panics() {
        let c = cluster(2);
        let t = c.begin_rw(1);
        let _ = t.snapshot();
    }

    #[test]
    fn write_skew_window_is_si_not_serializable() {
        // Section IV-B: two concurrent transactions where neither
        // sees the other — allowed under SI (write-skew shape).
        let c = cluster(2);
        let mut tk = c.begin_rw(1);
        c.broadcast_begin(&mut tk, 0).unwrap();
        let mut tl = c.begin_rw(2);
        c.broadcast_begin(&mut tl, 0).unwrap();
        let (k, l) = (tk.epoch.min(tl.epoch), tk.epoch.max(tl.epoch));
        let snap_k = if tk.epoch == k {
            tk.snapshot()
        } else {
            tl.snapshot()
        };
        let snap_l = if tl.epoch == l {
            tl.snapshot()
        } else {
            tk.snapshot()
        };
        assert!(!snap_k.sees(l), "k < l: timestamp ordering hides l");
        assert!(!snap_l.sees(k), "k pending when l began: deps hide k");
        c.commit(&tk).unwrap();
        c.commit(&tl).unwrap();
    }

    #[test]
    fn traffic_is_accounted() {
        let c = ProtocolCluster::new(3, SimulatedNetwork::instant());
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 500).unwrap();
        let begin_msgs = c.network().stats().messages;
        assert_eq!(begin_msgs, 4, "2 remotes x (request + response)");
        c.forward_op(&t, &[2, 3], 500).unwrap();
        assert_eq!(c.network().stats().messages, begin_msgs + 2);
        c.commit(&t).unwrap();
        assert_eq!(c.network().stats().messages, begin_msgs + 6);
        assert!(c.network().stats().bytes > 1500);
    }

    #[test]
    fn traffic_is_classified_by_type() {
        let c = ProtocolCluster::new(3, SimulatedNetwork::instant());
        let mut t1 = c.begin_rw(1);
        c.broadcast_begin(&mut t1, 500).unwrap();
        // T1 is pending when T2 begins, so both begin responses
        // piggyback one-epoch pending sets.
        let mut t2 = c.begin_rw(2);
        c.broadcast_begin(&mut t2, 500).unwrap();
        c.forward_op(&t2, &[1, 3], 500).unwrap();
        c.commit(&t2).unwrap();
        c.rollback(&t1).unwrap();

        let net = c.network();
        assert_eq!(net.messages_of(MsgKind::BeginRequest), 4);
        assert_eq!(net.messages_of(MsgKind::BeginResponse), 4);
        assert_eq!(net.messages_of(MsgKind::Forward), 2);
        assert_eq!(net.messages_of(MsgKind::CommitRequest), 2);
        assert_eq!(net.messages_of(MsgKind::CommitResponse), 2);
        assert_eq!(net.messages_of(MsgKind::RollbackRequest), 2);
        assert_eq!(net.messages_of(MsgKind::RollbackResponse), 2);
        assert_eq!(net.messages_of(MsgKind::Other), 0);
        // The typed counts partition the total message count.
        assert_eq!(net.stats().messages, 18);

        let mut report = obs::ReportBuilder::new();
        net.report(&mut report);
        let text = report.finish();
        assert!(text.contains("[cluster]"), "report:\n{text}");
        assert!(text.contains("messages = 18"), "report:\n{text}");
        assert!(
            text.contains("messages.begin_request = 4"),
            "report:\n{text}"
        );
        // Begin responses ship the remote pending sets ({T1} for
        // T1's broadcast, {T1, T2} for T2's: 2x8 + 2x16 = 48 bytes)
        // and T2's commit request ships its one-element deps set to
        // two remotes (16 bytes).
        assert!(
            text.contains("piggyback_pending_bytes = 64"),
            "report:\n{text}"
        );
        // Every message piggybacks one clock value.
        assert!(
            text.contains("piggyback_clock_bytes = 144"),
            "report:\n{text}"
        );
    }

    /// Regression for the fan-out bug: finishing a transaction whose
    /// begin never broadcast used to message every node anyway.
    /// Nothing remote ever registered the epoch, so the finish must
    /// be purely local: zero messages.
    #[test]
    fn never_broadcast_finish_sends_zero_messages() {
        let c = cluster(3);
        let t = c.begin_rw(1);
        assert!(!t.is_broadcasted());
        c.commit(&t).unwrap();
        assert_eq!(c.network().stats().messages, 0, "commit fan-out leaked");
        assert_eq!(c.manager(1).lce(), t.epoch);

        let t2 = c.begin_rw(1);
        c.rollback(&t2).unwrap();
        assert_eq!(c.network().stats().messages, 0, "rollback fan-out leaked");
        for node in 2..=3 {
            assert!(
                c.manager(node).pending_txs().is_empty(),
                "node {node} must never have seen the local-only txns"
            );
        }
    }

    /// The bare `assert!` became a typed error: forwarding before
    /// the begin broadcast must not abort the process.
    #[test]
    fn forward_before_broadcast_is_typed_error() {
        let c = cluster(2);
        let t = c.begin_rw(1);
        let err = c.forward_op(&t, &[2], 64).unwrap_err();
        assert_eq!(err, AosiError::NotBroadcasted(t.epoch));
        assert_eq!(c.network().stats().messages, 0);
    }

    #[test]
    fn retry_recovers_from_a_crash_window() {
        // Node 2 is dark for the first two message slots: the first
        // two begin-request attempts drop, the third lands.
        let c = faulted(3, FaultPlan::seeded(11).crash(2, 0, 2));
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 64).unwrap();
        assert!(t.is_broadcasted());
        assert_eq!(c.manager(2).pending_txs(), vec![t.epoch]);
        assert!(c.metrics().retries.get() >= 2);
        assert!(c.metrics().timeouts.get() >= 2);
        c.commit(&t).unwrap();
        assert!(c.settle());
        for node in 1..=3 {
            assert_eq!(c.manager(node).lce(), t.epoch, "node {node}");
        }
    }

    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let c = faulted(
            3,
            FaultPlan::seeded(5).dup_p(1.0), // every delivery doubled
        );
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 64).unwrap();
        assert_eq!(
            c.manager(2).pending_txs(),
            vec![t.epoch],
            "double begin must register once"
        );
        c.commit(&t).unwrap();
        assert!(c.settle());
        for node in 1..=3 {
            assert_eq!(c.manager(node).lce(), t.epoch, "node {node}");
        }
        assert!(
            c.metrics().dedup_hits.get() >= 4,
            "each duplicated request should hit the filter once: {}",
            c.metrics().dedup_hits.get()
        );
    }

    #[test]
    fn broadcast_is_resumable_after_node_restart() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let net = SimulatedNetwork::with_faults(LatencyModel::instant(), FaultPlan::seeded(3));
        let c = ProtocolCluster::with_retry(3, net, policy);
        c.network().crash_node(2);
        let mut t = c.begin_rw(1);
        let err = c.broadcast_begin(&mut t, 0).unwrap_err();
        assert_eq!(
            err,
            AosiError::NodeUnreachable {
                epoch: t.epoch,
                node: 2
            }
        );
        assert!(!t.is_broadcasted());
        assert_eq!(t.begun_on().iter().copied().collect::<Vec<_>>(), [3]);
        assert_eq!(t.failed_on().iter().copied().collect::<Vec<_>>(), [2]);

        c.network().restart_node(2);
        c.broadcast_begin(&mut t, 0).unwrap();
        assert!(t.is_broadcasted());
        assert!(t.failed_on().is_empty());
        // Node 3 was not re-contacted: 2 failed attempts to node 2,
        // one success each to 3 (first call) and 2 (second call).
        assert_eq!(c.network().messages_of(MsgKind::BeginRequest), 4);
        assert_eq!(c.network().messages_of(MsgKind::BeginResponse), 2);
        // And the epoch registered exactly once per remote.
        assert_eq!(c.manager(2).pending_txs(), vec![t.epoch]);
        assert_eq!(c.manager(3).pending_txs(), vec![t.epoch]);
        c.commit(&t).unwrap();
        assert!(c.settle());
    }

    #[test]
    fn unacked_commit_is_redriven_until_acked() {
        let c = faulted(3, FaultPlan::seeded(17));
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 0).unwrap();
        c.network().crash_node(2);
        c.commit(&t).unwrap();
        assert_eq!(c.unacked_len(), 1, "node 2's ack is outstanding");
        assert_eq!(c.manager(3).lce(), t.epoch, "healthy node already acked");
        assert_eq!(c.manager(2).lce(), 0, "dark node lags");
        assert!(!c.settle(), "cannot settle against a dark node");

        c.network().restart_node(2);
        assert!(c.settle());
        assert_eq!(c.unacked_len(), 0);
        assert_eq!(c.manager(2).lce(), t.epoch);
        assert!(c.metrics().redrives.get() >= 1);
    }

    /// Across many seeds with heavy delay/drop on one link, a begin
    /// that lands after its transaction's finish must never
    /// resurrect the epoch in the remote pending set (which would
    /// stall LCE forever).
    #[test]
    fn late_begin_never_resurrects_a_finished_txn() {
        for seed in 0..40u64 {
            let plan = FaultPlan::seeded(seed).link(
                1,
                2,
                LinkFaults {
                    drop_p: 0.3,
                    delay_p: 0.5,
                    dup_p: 0.2,
                },
            );
            let c = faulted(3, plan);
            let mut t = c.begin_rw(1);
            let broadcast = c.broadcast_begin(&mut t, 16);
            let finish = if seed % 2 == 0 {
                c.rollback(&t)
            } else if broadcast.is_ok() {
                c.commit(&t)
            } else {
                c.rollback(&t)
            };
            finish.unwrap();
            c.settle();
            // Whatever was reordered, dropped, or duplicated: the
            // epoch must not linger pending anywhere.
            for node in 1..=3 {
                assert!(
                    !c.manager(node).pending_txs().contains(&t.epoch),
                    "seed {seed}: T{} resurrected on node {node}",
                    t.epoch
                );
            }
        }
    }

    #[test]
    fn dormant_slots_receive_no_begins() {
        // Capacity 4, only nodes 1 and 2 active: a broadcast touches
        // one remote, and the dormant managers never hear of it.
        let c = ProtocolCluster::with_capacity(
            4,
            &[1, 2],
            SimulatedNetwork::instant(),
            RetryPolicy::default(),
        );
        assert_eq!(c.active_nodes(), vec![1, 2]);
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 64).unwrap();
        assert_eq!(c.network().stats().messages, 2, "one remote roundtrip");
        assert!(c.manager(3).pending_txs().is_empty());
        assert!(c.manager(4).pending_txs().is_empty());
        c.commit(&t).unwrap();
        assert_eq!(c.manager(2).lce(), t.epoch);
        assert_eq!(c.manager(3).lce(), 0, "dormant slot untouched");
    }

    #[test]
    fn lone_active_node_needs_no_broadcast() {
        let c = ProtocolCluster::with_capacity(
            3,
            &[2],
            SimulatedNetwork::instant(),
            RetryPolicy::default(),
        );
        let t = c.begin_rw(2);
        assert!(t.is_broadcasted());
        c.commit(&t).unwrap();
        assert_eq!(c.network().stats().messages, 0);
    }

    #[test]
    fn activation_catches_up_the_joiner_clock() {
        let c = ProtocolCluster::with_capacity(
            3,
            &[1, 2],
            SimulatedNetwork::instant(),
            RetryPolicy::default(),
        );
        // Push the active clocks forward.
        for _ in 0..5 {
            let mut t = c.begin_rw(1);
            c.broadcast_begin(&mut t, 0).unwrap();
            c.commit(&t).unwrap();
        }
        let frontier = c.manager(1).clock().current_ec();
        c.activate(3);
        assert!(c.is_active(3));
        let t = c.begin_rw(3);
        assert!(
            t.epoch > frontier,
            "joiner epoch {} must sort after the pre-join frontier {frontier}",
            t.epoch
        );
        c.deactivate(3);
        assert_eq!(c.active_nodes(), vec![1, 2]);
        // Idempotent both ways.
        c.deactivate(3);
        c.activate(2);
        assert_eq!(c.active_nodes(), vec![1, 2]);
    }

    #[test]
    fn broadcast_excluding_skips_dark_node_entirely() {
        let c = cluster(3);
        let mut t = c.begin_rw(1);
        let skip: BTreeSet<NodeId> = [2].into_iter().collect();
        c.broadcast_begin_excluding(&mut t, 64, &skip).unwrap();
        assert!(t.is_broadcasted());
        assert!(!t.begun_on().contains(&2));
        assert!(!t.failed_on().contains(&2));
        assert!(c.manager(2).pending_txs().is_empty());
        let before = c.network().stats().messages;
        c.commit(&t).unwrap();
        // Finish targets only node 3: one roundtrip.
        assert_eq!(c.network().stats().messages, before + 2);
        assert_eq!(c.manager(3).lce(), t.epoch);
        assert_eq!(c.manager(2).lce(), 0, "skipped node never saw the txn");
    }

    #[test]
    fn protocol_report_has_fault_counters() {
        let c = faulted(2, FaultPlan::seeded(11).crash(2, 0, 2));
        let mut t = c.begin_rw(1);
        c.broadcast_begin(&mut t, 0).unwrap();
        c.commit(&t).unwrap();
        c.settle();
        let mut report = obs::ReportBuilder::new();
        c.report(&mut report);
        let text = report.finish();
        assert!(text.contains("[cluster.protocol]"), "report:\n{text}");
        assert!(text.contains("retries"), "report:\n{text}");
        assert!(text.contains("timeouts"), "report:\n{text}");
        assert!(text.contains("dedup_hits"), "report:\n{text}");
        assert!(text.contains("unacked = 0"), "report:\n{text}");
    }
}
