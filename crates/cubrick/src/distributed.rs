//! The multi-node Cubrick cluster (Sections IV and V-B), elastic.
//!
//! One [`Engine`] per node, one shared [`ProtocolCluster`] for the
//! transaction traffic, a [`Topology`] (consistent-hash ring +
//! membership) placing brick replicas on nodes, and one
//! [`SimulatedNetwork`] accounting every hop. The load pipeline is
//! the paper's:
//!
//! 1. **Parse** on the node that received the buffer (any node).
//! 2. **Validate & forward**: check `max_rejected`; create the
//!    transaction; forward per-bid record groups to **every replica**
//!    of the owning arc, piggybacking the begin broadcast (pending
//!    sets + clocks) on the same messages.
//! 3. **Flush**: each replica applies the appends on its shard
//!    threads.
//!
//! Commit is a single roundtrip: "all remote nodes are required to
//! commit the transaction and no consensus protocol is required".
//!
//! ## Replica reads and the cluster-wide LSE gate (§III-D)
//!
//! The **brick directory** records which nodes hold a complete,
//! readable copy of each brick. A distributed query routes every
//! brick to the first *live* host in its replica preference order and
//! scans it exactly once cluster-wide; when the preferred replica is
//! dark the read falls back to the next copy, and only when no live
//! copy exists does the read fail ([`CubrickError::NoReplicaAvailable`]).
//!
//! Writes degrade rather than block: a replica that is down when a
//! load commits is *demoted* — dropped from the brick's readable set
//! and recorded as having **missed** the epoch in the
//! [`ReplicationTracker`], which caps its durability watermark below
//! the hole. [`DistributedEngine::purge_all`] then enforces the
//! paper's rule cluster-wide: the purge floor is the tracker's safe
//! epoch — the minimum over every replica's acked watermark, withheld
//! entirely while any node is offline — so "LSE needs to be prevented
//! from advancing if data is not safely stored on all replicas or if
//! any replica is offline".
//!
//! Node join/leave and the brick handoff protocol live in the
//! `elastic` module ([`DistributedEngine::join_node`] /
//! [`DistributedEngine::leave_node`] / [`DistributedEngine::transfer_brick`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use aosi::{ReadGuard, Snapshot};
use cluster::{
    MsgKind, NodeId, ProtocolCluster, ReplicationTracker, RetryPolicy, SimulatedNetwork, Topology,
};
use columnar::Row;
use obs::{Counter, ReportBuilder};
use parking_lot::{Mutex, RwLock};

use crate::cube::Cube;
use crate::ddl::CubeSchema;
use crate::elastic::HandoffBreak;
use crate::engine::{Engine, EngineMemory, IsolationMode, LoadStageTimings, PurgeStats};
use crate::error::CubrickError;
use crate::ingest::{parse_rows, ParsedBatch};
use crate::query::{PartialResult, Query, QueryResult, ResolvedQuery};

/// Read-routing plan: which bricks each node answers for, plus the
/// set of directory-known bids (bricks outside the directory fall
/// back to whichever node stores them).
type ReadRouting = (HashMap<NodeId, HashSet<u64>>, HashSet<u64>);

/// Result of a distributed load request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistributedLoadOutcome {
    /// The transaction's epoch.
    pub epoch: aosi::Epoch,
    /// Records stored.
    pub accepted: usize,
    /// Records rejected during parsing.
    pub rejected: usize,
    /// Nodes that received data.
    pub nodes_touched: usize,
    /// Stage latencies (parse / forward / flush / total).
    pub timings: LoadStageTimings,
}

/// Configuration for an elastic cluster
/// ([`DistributedEngine::elastic`]).
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Provisioned node slots (`1..=capacity`). Fixes the epoch
    /// stride for the cluster's lifetime; joins can only activate
    /// slots within capacity.
    pub capacity: u64,
    /// Initially active members.
    pub active: Vec<NodeId>,
    /// Shard threads per node.
    pub shards_per_node: usize,
    /// Copies of every brick (1 = no redundancy).
    pub replication: usize,
    /// Protocol retry budget.
    pub retry: RetryPolicy,
}

/// Which nodes host one brick.
#[derive(Clone, Debug, Default)]
pub(crate) struct BrickHosts {
    /// Nodes holding a complete, readable copy.
    pub(crate) readable: Vec<NodeId>,
    /// Nodes mid-handoff: writes fan out to them, reads skip them.
    pub(crate) pending: Vec<NodeId>,
}

/// `[cluster.rebalance]` counters.
#[derive(Debug, Default)]
pub(crate) struct RebalanceMetrics {
    pub(crate) replica_reads: Counter,
    pub(crate) fallback_reads: Counter,
    pub(crate) unanswered_reads: Counter,
    pub(crate) degraded_writes: Counter,
    pub(crate) handoffs_started: Counter,
    pub(crate) handoffs_completed: Counter,
    pub(crate) handoffs_failed: Counter,
    pub(crate) handoff_chunks: Counter,
    pub(crate) handoff_chunk_retries: Counter,
    pub(crate) bricks_moved: Counter,
}

/// An N-node Cubrick cluster in one process.
pub struct DistributedEngine {
    pub(crate) protocol: ProtocolCluster,
    pub(crate) engines: Vec<Engine>,
    pub(crate) topology: Topology,
    pub(crate) tracker: ReplicationTracker,
    /// `(cube, bid)` → hosts. The single source of truth for which
    /// node answers a brick read and which nodes receive its writes.
    pub(crate) directory: RwLock<HashMap<(String, u64), BrickHosts>>,
    /// Loads hold this shared for their route+flush window; a handoff
    /// capture holds it exclusively, so every write either lands in
    /// the captured state or fans out to the subscribed pending host.
    pub(crate) write_gate: RwLock<()>,
    /// Queries hold this shared for their fan-out; a brick retire
    /// holds it exclusively so no in-flight scan loses a brick.
    pub(crate) scan_gate: RwLock<()>,
    pub(crate) rebal: RebalanceMetrics,
    /// Deliberate handoff sabotage for meta-tests (see
    /// [`DistributedEngine::set_handoff_break`]).
    pub(crate) handoff_break: Mutex<Option<HandoffBreak>>,
}

impl DistributedEngine {
    /// Builds a fixed cluster of `num_nodes` nodes (all active,
    /// replication factor 1), each with `shards_per_node` shard
    /// threads, over `network`.
    pub fn new(num_nodes: u64, shards_per_node: usize, network: SimulatedNetwork) -> Self {
        Self::elastic(
            ElasticConfig {
                capacity: num_nodes,
                active: (1..=num_nodes).collect(),
                shards_per_node,
                replication: 1,
                retry: RetryPolicy::default(),
            },
            network,
        )
    }

    /// Builds an elastic cluster: `capacity` provisioned slots,
    /// `config.active` initially members, `config.replication` copies
    /// per brick.
    pub fn elastic(config: ElasticConfig, network: SimulatedNetwork) -> Self {
        let protocol =
            ProtocolCluster::with_capacity(config.capacity, &config.active, network, config.retry);
        let engines: Vec<Engine> = (1..=config.capacity)
            .map(|node| {
                Engine::with_manager(protocol.manager(node).clone(), config.shards_per_node)
            })
            .collect();
        let topology = Topology::new(&config.active, 64, config.replication);
        let tracker = ReplicationTracker::default();
        for &node in &config.active {
            tracker.add_node(node, 0);
        }
        DistributedEngine {
            protocol,
            engines,
            topology,
            tracker,
            directory: RwLock::new(HashMap::new()),
            write_gate: RwLock::new(()),
            scan_gate: RwLock::new(()),
            rebal: RebalanceMetrics::default(),
            handoff_break: Mutex::new(None),
        }
    }

    /// Provisioned cluster capacity (slots, active or not).
    pub fn num_nodes(&self) -> u64 {
        self.engines.len() as u64
    }

    /// Currently active members, ascending.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.protocol.active_nodes()
    }

    /// The engine running on `node` (1-based).
    pub fn engine(&self, node: NodeId) -> &Engine {
        &self.engines[(node - 1) as usize]
    }

    /// The shared network (traffic stats).
    pub fn network(&self) -> &SimulatedNetwork {
        self.protocol.network()
    }

    /// The protocol cluster (clock/pending inspection).
    pub fn protocol(&self) -> &ProtocolCluster {
        &self.protocol
    }

    /// The replica durability tracker (§III-D gate).
    pub fn tracker(&self) -> &ReplicationTracker {
        &self.tracker
    }

    /// The placement topology (membership + ring).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Read-routing tallies: `(replica_reads, fallback_reads,
    /// unanswered_reads)` — bricks answered by their preferred
    /// replica, bricks re-routed to a surviving copy, and bricks no
    /// live replica could serve (the chaos suites require the last to
    /// stay zero).
    pub fn read_routing_stats(&self) -> (u64, u64, u64) {
        (
            self.rebal.replica_reads.get(),
            self.rebal.fallback_reads.get(),
            self.rebal.unanswered_reads.get(),
        )
    }

    /// The brick's primary (arc owner) under the current topology.
    pub fn primary(&self, bid: u64) -> NodeId {
        self.topology.primary(bid)
    }

    /// The nodes currently serving readable copies of `bid`, replica
    /// preference order. Empty for a brick the cluster has never seen.
    pub fn brick_hosts(&self, cube: &str, bid: u64) -> Vec<NodeId> {
        let dir = self.directory.read();
        match dir.get(&(cube.to_owned(), bid)) {
            Some(entry) => self.prefer(bid, &entry.readable),
            None => Vec::new(),
        }
    }

    /// Every brick the directory tracks for `cube`, ascending.
    pub fn known_bricks(&self, cube: &str) -> Vec<u64> {
        let mut bids: Vec<u64> = self
            .directory
            .read()
            .keys()
            .filter(|(c, _)| c == cube)
            .map(|&(_, bid)| bid)
            .collect();
        bids.sort_unstable();
        bids
    }

    /// Marks `node` unreachable: network messages to/from it drop and
    /// the durability tracker withholds the cluster purge floor
    /// (§III-D: any replica offline ⇒ LSE frozen).
    pub fn crash_node(&self, node: NodeId) {
        self.network().crash_node(node);
        self.tracker.mark_offline(node);
    }

    /// Brings a crashed node back (its state survived — fail-stutter
    /// model). The node may still be missing epochs written while it
    /// was dark; [`DistributedEngine::heal_node`] re-streams those.
    pub fn restart_node(&self, node: NodeId) {
        self.network().restart_node(node);
        self.tracker.mark_online(node);
    }

    /// Whether `node` is currently unreachable (manual crash, planned
    /// crash window, or tracker-known outage).
    pub(crate) fn is_node_down(&self, node: NodeId) -> bool {
        self.network().is_down(node) || self.tracker.is_offline(node)
    }

    /// Orders `hosts` by the brick's replica preference (ring order
    /// first, then any remaining hosts ascending — e.g. copies not
    /// yet rebalanced off after a membership change).
    pub(crate) fn prefer(&self, bid: u64, hosts: &[NodeId]) -> Vec<NodeId> {
        let ring_order = self.topology.replicas(bid);
        let mut out: Vec<NodeId> = ring_order
            .iter()
            .copied()
            .filter(|n| hosts.contains(n))
            .collect();
        let mut rest: Vec<NodeId> = hosts.iter().copied().filter(|n| !out.contains(n)).collect();
        rest.sort_unstable();
        out.extend(rest);
        out
    }

    /// Cluster DDL: creates the cube on every slot (dormant ones too,
    /// so a later join already holds the metadata) with shared schema
    /// and dictionaries.
    pub fn create_cube(&self, schema: CubeSchema) -> Result<Cube, CubrickError> {
        let cube = Cube::new(schema);
        for engine in &self.engines {
            engine.register_cube(cube.clone())?;
        }
        Ok(cube)
    }

    /// Loads `rows` through coordinator `origin` in one implicit
    /// distributed transaction, fanning each brick's records to every
    /// live replica. Replicas known to be down are skipped (degraded
    /// write): they are demoted from the affected bricks' readable
    /// sets and their missed epoch recorded, holding the cluster
    /// purge floor down until they heal. A brick with **no** live
    /// replica aborts the load.
    pub fn load(
        &self,
        origin: NodeId,
        cube_name: &str,
        rows: &[Row],
        max_rejected: usize,
    ) -> Result<DistributedLoadOutcome, CubrickError> {
        let started = Instant::now();
        let cube = self.engine(origin).cube(cube_name)?;

        // 1. Parse at the receiving node.
        let parse_started = Instant::now();
        let batch = parse_rows(cube.schema(), cube.layout(), cube.dictionaries(), rows);
        let parse = parse_started.elapsed();
        if batch.rejected > max_rejected {
            return Err(CubrickError::TooManyRejected {
                rejected: batch.rejected,
                max_rejected,
            });
        }
        let (accepted, rejected) = (batch.accepted, batch.rejected);

        // Route + flush under the write gate so a handoff capture is
        // atomic with respect to this load: either our runs are in
        // the captured brick state, or we saw the subscribed pending
        // host and fanned out to it.
        let _wg = self.write_gate.read();
        let active = self.protocol.active_nodes();
        let down: BTreeSet<NodeId> = active
            .iter()
            .copied()
            .filter(|&n| self.is_node_down(n))
            .collect();

        // 2. Validate & forward: transaction + routing.
        let mut txn = self.protocol.begin_rw(origin);
        let forward_started = Instant::now();
        // The begin broadcast rides on the data fan-out, skipping
        // known-dark nodes entirely (they missed the epoch; the
        // tracker records it below). A *surprise* unreachable remote
        // still aborts: the load cannot take an SI-consistent
        // snapshot of nodes it cannot reach but believed alive.
        if let Err(e) = self.protocol.broadcast_begin_excluding(&mut txn, 0, &down) {
            let _ = self.protocol.rollback(&txn);
            return Err(e.into());
        }

        // Route every brick to all its live replicas; demote dark
        // readable hosts.
        let mut per_node: HashMap<NodeId, ParsedBatch> = HashMap::new();
        let mut demoted: Vec<(String, u64, NodeId)> = Vec::new();
        {
            let mut dir = self.directory.write();
            for (bid, records) in batch.by_bid {
                let key = (cube_name.to_owned(), bid);
                let entry = dir.entry(key.clone()).or_insert_with(|| BrickHosts {
                    readable: self
                        .topology
                        .replicas(bid)
                        .into_iter()
                        .filter(|n| !down.contains(n))
                        .collect(),
                    pending: Vec::new(),
                });
                let dark: Vec<NodeId> = entry
                    .readable
                    .iter()
                    .copied()
                    .filter(|n| down.contains(n))
                    .collect();
                for node in dark {
                    entry.readable.retain(|&n| n != node);
                    demoted.push((key.0.clone(), bid, node));
                }
                let targets: Vec<NodeId> = entry
                    .readable
                    .iter()
                    .chain(entry.pending.iter())
                    .copied()
                    .filter(|n| !down.contains(n))
                    .collect();
                if targets.is_empty() {
                    // Revert nothing: the rollback below unwinds the
                    // txn, and demotions are conservative (re-adding
                    // a host requires a re-stream anyway).
                    drop(dir);
                    let _ = self.protocol.rollback(&txn);
                    return Err(CubrickError::NoReplicaAvailable {
                        cube: cube_name.to_owned(),
                        bid,
                    });
                }
                // `vec![x; n]` clones n - 1 times and moves `x` into the
                // last slot: a single-replica brick's chunk is not copied.
                let copies = vec![records; targets.len()];
                for (&node, records) in targets.iter().zip(copies) {
                    let target = per_node.entry(node).or_default();
                    target.accepted += records.len();
                    target.by_bid.insert(bid, records);
                }
            }
        }
        let nodes_touched = per_node.len();
        // Forward the record groups (records that stay on the origin
        // do not cross the wire). An undeliverable forward aborts the
        // load before anything flushes.
        for (&node, node_batch) in &per_node {
            if node != origin {
                let bytes: usize = node_batch
                    .by_bid
                    .values()
                    .map(|chunk| chunk.len() * approx_record_bytes(&cube))
                    .sum();
                if let Err(e) = self.protocol.forward_op(&txn, &[node], bytes) {
                    let _ = self.protocol.rollback(&txn);
                    return Err(e.into());
                }
            }
        }
        let forward = forward_started.elapsed();

        // 3. Flush on every live replica. A failed flush (a panicking
        // append) aborts the load: roll back and reclaim what landed.
        let flush_started = Instant::now();
        let nodes: Vec<NodeId> = per_node.keys().copied().collect();
        let failed = std::thread::scope(|scope| {
            let tasks: Vec<_> = per_node
                .into_iter()
                .map(|(node, node_batch)| {
                    let (engine, cube, epoch) = (self.engine(node), cube.clone(), txn.epoch);
                    scope.spawn(move || engine.flush_batch(&cube, epoch, node_batch, None))
                })
                .collect();
            (tasks.into_iter()).find_map(|t| t.join().expect("flush thread completes").err())
        });
        if let Some(e) = failed {
            let _ = self.protocol.rollback(&txn);
            for engine in nodes.into_iter().map(|node| self.engine(node)) {
                engine.reclaim_epoch(txn.epoch);
                engine.manager().clear_rolled_back(&[txn.epoch]);
            }
            return Err(e);
        }
        let flush = flush_started.elapsed();

        self.protocol.commit(&txn)?;
        // Durability acks: every reachable member acked the epoch;
        // the dark ones missed it, capping the purge floor (§III-D).
        for &node in &active {
            if down.contains(&node) {
                self.tracker.mark_missed(node, txn.epoch);
            } else {
                self.tracker.mark_flushed(node, txn.epoch);
            }
        }
        if !down.is_empty() || !demoted.is_empty() {
            self.rebal.degraded_writes.inc();
        }
        Ok(DistributedLoadOutcome {
            epoch: txn.epoch,
            accepted,
            rejected,
            nodes_touched,
            timings: LoadStageTimings {
                parse,
                forward,
                flush,
                total: started.elapsed(),
            },
        })
    }

    /// Runs a query from coordinator `origin` under `mode`, routing
    /// every brick to one live replica and merging partial
    /// aggregates.
    pub fn query(
        &self,
        origin: NodeId,
        cube_name: &str,
        query: &Query,
        mode: IsolationMode,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.engine(origin).cube(cube_name)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let (snapshot, _guards): (Option<Snapshot>, Vec<ReadGuard>) = match mode {
            IsolationMode::Snapshot => {
                let snapshot = self.protocol.begin_ro(origin);
                // Pin the snapshot on every node for the scan's
                // lifetime: no purge anywhere may pass it.
                let guards = self
                    .engines
                    .iter()
                    .map(|e| e.manager().guard_snapshot(snapshot.clone()))
                    .collect();
                (Some(snapshot), guards)
            }
            IsolationMode::ReadUncommitted => (None, Vec::new()),
        };
        self.fan_out_query(origin, &cube, &resolved, snapshot)
    }

    /// Runs a query from coordinator `origin` at an **explicit**
    /// snapshot instead of the node's current LCE. This is how a
    /// reader replays a historical view — and how the chaos suite
    /// probes that committed reads stay stable while faults are
    /// being injected: the same `(query, snapshot)` pair must return
    /// the same result no matter what the network does in between.
    pub fn query_at(
        &self,
        origin: NodeId,
        cube_name: &str,
        query: &Query,
        snapshot: Snapshot,
    ) -> Result<QueryResult, CubrickError> {
        let cube = self.engine(origin).cube(cube_name)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        // Pin the snapshot cluster-wide, exactly like a live query.
        let _guards: Vec<ReadGuard> = self
            .engines
            .iter()
            .map(|e| e.manager().guard_snapshot(snapshot.clone()))
            .collect();
        self.fan_out_query(origin, &cube, &resolved, Some(snapshot))
    }

    /// Assigns every directory brick of `cube` to the first live host
    /// in its replica preference order. Returns the per-node brick
    /// assignment plus the set of directory-known bids (bricks *not*
    /// in the directory — state planted directly on an engine — fall
    /// back to scanning on whichever node stores them).
    fn route_reads(&self, cube: &str) -> Result<ReadRouting, CubrickError> {
        let mut assigned: HashMap<NodeId, HashSet<u64>> = HashMap::new();
        let mut known: HashSet<u64> = HashSet::new();
        let dir = self.directory.read();
        for ((cube_name, bid), hosts) in dir.iter() {
            if cube_name != cube {
                continue;
            }
            known.insert(*bid);
            let pref = self.prefer(*bid, &hosts.readable);
            match pref.iter().copied().find(|&n| !self.is_node_down(n)) {
                Some(node) => {
                    if Some(&node) == pref.first() && Some(&node) == hosts.readable.first() {
                        self.rebal.replica_reads.inc();
                    } else {
                        self.rebal.fallback_reads.inc();
                    }
                    assigned.entry(node).or_default().insert(*bid);
                }
                None => {
                    self.rebal.unanswered_reads.inc();
                    return Err(CubrickError::NoReplicaAvailable {
                        cube: cube.to_owned(),
                        bid: *bid,
                    });
                }
            }
        }
        Ok((assigned, known))
    }

    fn fan_out_query(
        &self,
        origin: NodeId,
        cube: &Cube,
        resolved: &ResolvedQuery,
        snapshot: Option<Snapshot>,
    ) -> Result<QueryResult, CubrickError> {
        // Shared scan gate: no brick retire may run mid-fan-out.
        let _sg = self.scan_gate.read();
        let (mut assigned, known) = self.route_reads(cube.name())?;
        let known = Arc::new(known);
        // Every live member participates: it scans its assigned
        // bricks plus anything it stores that the directory has never
        // heard of (legacy direct flushes).
        let participants: Vec<NodeId> = self
            .protocol
            .active_nodes()
            .into_iter()
            .filter(|&n| !self.is_node_down(n))
            .collect();
        let mut merged = PartialResult::default();
        // Partials are joined in node order so the merge is
        // deterministic; a scan failure on any node fails the whole
        // distributed query.
        let partials: Vec<Result<PartialResult, CubrickError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = participants
                .iter()
                .map(|&node| {
                    if node != origin {
                        // Query shipping + result return.
                        self.network().transmit_typed(MsgKind::Forward, 128, 0, 0);
                    }
                    let engine = self.engine(node);
                    let cube = cube.clone();
                    let resolved = resolved.clone();
                    let snapshot = snapshot.clone();
                    let mine: HashSet<u64> = assigned.remove(&node).unwrap_or_default();
                    let known = Arc::clone(&known);
                    scope.spawn(move || {
                        // Evaluated on the engine's shard threads, so
                        // the predicate owns its sets.
                        let allow = move |bid: u64| mine.contains(&bid) || !known.contains(&bid);
                        engine.execute_partial_filtered(&cube, &resolved, snapshot, Arc::new(allow))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for partial in partials {
            merged.merge(partial?);
        }
        Ok(QueryResult::finalize(cube, resolved, merged))
    }

    /// Distributed partition delete from coordinator `origin`
    /// (Section IV: "delete operations must test the user's
    /// predicates against each partition on every node"). Dark
    /// members are skipped like a degraded load: they miss the delete
    /// epoch and the tracker caps their watermark below it.
    pub fn delete_where(
        &self,
        origin: NodeId,
        cube_name: &str,
        filters: &[crate::query::DimFilter],
    ) -> Result<(aosi::Epoch, u64), CubrickError> {
        // The engine-level delete runs its own local implicit
        // transaction; the distributed version needs one shared
        // epoch, so it drives the brick marking directly.
        let cube = self.engine(origin).cube(cube_name)?;
        let _wg = self.write_gate.read();
        let active = self.protocol.active_nodes();
        let down: BTreeSet<NodeId> = active
            .iter()
            .copied()
            .filter(|&n| self.is_node_down(n))
            .collect();
        let mut txn = self.protocol.begin_rw(origin);
        if let Err(e) = self.protocol.broadcast_begin_excluding(&mut txn, 64, &down) {
            let _ = self.protocol.rollback(&txn);
            return Err(e.into());
        }
        // Ship the predicate everywhere before marking anything, so
        // an unreachable node aborts the delete while it is still
        // side-effect free.
        for &node in &active {
            if node != origin && !down.contains(&node) {
                if let Err(e) = self.protocol.forward_op(&txn, &[node], 64) {
                    let _ = self.protocol.rollback(&txn);
                    return Err(e.into());
                }
            }
        }
        let mut marked_total = 0u64;
        for &node in &active {
            if !down.contains(&node) {
                marked_total += self
                    .engine(node)
                    .mark_delete_where(&cube, filters, txn.epoch)?;
            }
        }
        self.protocol.commit(&txn)?;
        for &node in &active {
            if down.contains(&node) {
                self.tracker.mark_missed(node, txn.epoch);
            } else {
                self.tracker.mark_flushed(node, txn.epoch);
            }
        }
        if !down.is_empty() {
            self.rebal.degraded_writes.inc();
        }
        Ok((txn.epoch, marked_total))
    }

    /// Advances LSE and purges on every member, **gated cluster-wide**
    /// by the replica durability floor: no node's LSE may pass the
    /// minimum acked watermark over all replicas, and nothing purges
    /// at all while any replica is offline (§III-D). Returns the
    /// aggregate stats.
    pub fn purge_all(&self) -> PurgeStats {
        let Some(floor) = self.tracker.safe_epoch() else {
            // A replica is offline: the paper says LSE must not
            // advance at all.
            return PurgeStats::default();
        };
        let mut total = PurgeStats::default();
        for node in self.protocol.active_nodes() {
            let engine = self.engine(node);
            let manager = engine.manager();
            let target = floor.min(manager.lce()).max(manager.lse());
            if manager.advance_lse(target).is_ok() {
                let s = engine.purge();
                total.rows_purged += s.rows_purged;
                total.entries_reclaimed += s.entries_reclaimed;
                total.bricks_changed += s.bricks_changed;
            }
        }
        total
    }

    /// Renders the cluster-wide metrics report: the `[cluster]`
    /// network section, the protocol fault counters, the
    /// `[cluster.replication]` durability watermarks, the
    /// `[cluster.rebalance]` routing/handoff counters, then every
    /// node's `[aosi]`, `[engine]`, and `[shards]` sections prefixed
    /// `node{n}.`.
    pub fn metrics_report(&self) -> String {
        let mut report = ReportBuilder::new();
        self.network().report(&mut report);
        self.protocol.report(&mut report);
        {
            let section = report.section("cluster.replication");
            match self.tracker.safe_epoch() {
                Some(e) => section.metric("safe_epoch", e),
                None => section.metric("safe_epoch_withheld", 1u64),
            };
            for (node, watermark) in self.tracker.watermarks() {
                section.metric(&format!("watermark.node{node}"), watermark);
            }
        }
        report
            .section("cluster.rebalance")
            .counter("replica_reads", &self.rebal.replica_reads)
            .counter("fallback_reads", &self.rebal.fallback_reads)
            .counter("unanswered_reads", &self.rebal.unanswered_reads)
            .counter("degraded_writes", &self.rebal.degraded_writes)
            .counter("handoffs_started", &self.rebal.handoffs_started)
            .counter("handoffs_completed", &self.rebal.handoffs_completed)
            .counter("handoffs_failed", &self.rebal.handoffs_failed)
            .counter("handoff_chunks", &self.rebal.handoff_chunks)
            .counter("handoff_chunk_retries", &self.rebal.handoff_chunk_retries)
            .counter("bricks_moved", &self.rebal.bricks_moved);
        for (idx, engine) in self.engines.iter().enumerate() {
            engine.report_into(&mut report, &format!("node{}.", idx + 1));
        }
        report.finish()
    }

    /// Aggregate memory accounting across nodes.
    pub fn memory(&self) -> EngineMemory {
        let mut total = EngineMemory::default();
        for engine in &self.engines {
            let m = engine.memory();
            total.data_bytes += m.data_bytes;
            total.aosi_bytes += m.aosi_bytes;
            total.rows += m.rows;
            total.bricks += m.bricks;
        }
        // Dictionaries are shared cluster-wide: count them once.
        total.dictionary_bytes = self.engines[0].memory().dictionary_bytes;
        total.mvcc_baseline_bytes = total.rows * 16;
        total
    }
}

/// Rough wire size of one parsed record for traffic accounting.
pub(crate) fn approx_record_bytes(cube: &Cube) -> usize {
    cube.schema().dimensions.len() * 4 + cube.schema().metrics.len() * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{Dimension, Metric};
    use crate::query::{AggFn, Aggregation, DimFilter};
    use columnar::Value;

    fn cluster(nodes: u64) -> DistributedEngine {
        let d = DistributedEngine::new(nodes, 2, SimulatedNetwork::instant());
        d.create_cube(
            CubeSchema::new(
                "events",
                vec![
                    Dimension::string("region", 8, 1),
                    Dimension::int("day", 32, 4),
                ],
                vec![Metric::int("likes")],
            )
            .unwrap(),
        )
        .unwrap();
        d
    }

    fn row(region: &str, day: i64, likes: i64) -> Row {
        vec![Value::from(region), Value::from(day), Value::from(likes)]
    }

    fn total_likes(d: &DistributedEngine, origin: NodeId, mode: IsolationMode) -> f64 {
        d.query(
            origin,
            "events",
            &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
            mode,
        )
        .unwrap()
        .scalar()
        .unwrap_or(0.0)
    }

    #[test]
    fn load_spreads_data_across_nodes() {
        let d = cluster(4);
        let rows: Vec<Row> = (0..256)
            .map(|i| row(["us", "br", "mx", "ca"][i % 4], (i % 32) as i64, 1))
            .collect();
        let outcome = d.load(1, "events", &rows, 0).unwrap();
        assert_eq!(outcome.accepted, 256);
        assert!(outcome.nodes_touched >= 2, "data should spread");
        // Every node's engine holds some subset; the union is all.
        let stored: u64 = (1..=4).map(|n| d.engine(n).memory().rows).sum();
        assert_eq!(stored, 256);
        assert_eq!(total_likes(&d, 2, IsolationMode::Snapshot), 256.0);
    }

    #[test]
    fn query_from_any_coordinator_sees_committed_data() {
        let d = cluster(3);
        d.load(1, "events", &[row("us", 0, 10)], 0).unwrap();
        d.load(2, "events", &[row("br", 1, 20)], 0).unwrap();
        for origin in 1..=3 {
            assert_eq!(
                total_likes(&d, origin, IsolationMode::Snapshot),
                30.0,
                "coordinator {origin}"
            );
        }
    }

    #[test]
    fn grouped_query_merges_across_nodes() {
        let d = cluster(3);
        let rows: Vec<Row> = (0..60)
            .map(|i| row(["us", "br"][i % 2], (i % 32) as i64, (i % 2) as i64 + 1))
            .collect();
        d.load(1, "events", &rows, 0).unwrap();
        let result = d
            .query(
                2,
                "events",
                &Query::aggregate(vec![
                    Aggregation::new(AggFn::Sum, "likes"),
                    Aggregation::new(AggFn::Avg, "likes"),
                ])
                .grouped_by("region"),
                IsolationMode::Snapshot,
            )
            .unwrap();
        assert_eq!(result.rows.len(), 2);
        let by_key: std::collections::HashMap<String, Vec<f64>> = result
            .rows
            .iter()
            .map(|(k, v)| (k[0].to_string(), v.clone()))
            .collect();
        assert_eq!(by_key["us"], vec![30.0, 1.0], "30 rows of 1");
        assert_eq!(by_key["br"], vec![60.0, 2.0], "30 rows of 2");
    }

    #[test]
    fn distributed_delete_marks_everywhere() {
        let d = cluster(3);
        let rows: Vec<Row> = (0..64).map(|i| row("us", (i % 32) as i64, 1)).collect();
        d.load(1, "events", &rows, 0).unwrap();
        let (_, marked) = d.delete_where(2, "events", &[]).unwrap();
        assert!(marked >= 1);
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 0.0);
        let stats = d.purge_all();
        assert_eq!(stats.rows_purged, 64);
        assert_eq!(d.memory().rows, 0);
    }

    #[test]
    fn ru_sees_uncommitted_distributed_load() {
        let d = cluster(2);
        // Build a distributed txn manually: begin, flush, don't commit.
        let cube = d.engine(1).cube("events").unwrap();
        let mut txn = d.protocol().begin_rw(1);
        d.protocol().broadcast_begin(&mut txn, 0).unwrap();
        let batch = parse_rows(
            cube.schema(),
            cube.layout(),
            cube.dictionaries(),
            &[row("us", 0, 7)],
        );
        let node = d.primary(*batch.by_bid.keys().next().unwrap());
        d.engine(node)
            .flush_batch(&cube, txn.epoch, batch, None)
            .unwrap();
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 0.0);
        assert_eq!(total_likes(&d, 1, IsolationMode::ReadUncommitted), 7.0);
        d.protocol().commit(&txn).unwrap();
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 7.0);
    }

    #[test]
    fn filtered_delete_respects_containment() {
        let d = cluster(2);
        let rows: Vec<Row> = (0..32).map(|i| row("us", i as i64, 1)).collect();
        d.load(1, "events", &rows, 0).unwrap();
        let (_, marked) = d
            .delete_where(
                1,
                "events",
                &[DimFilter::new(
                    "day",
                    (0..4).map(|v| Value::from(v as i64)).collect(),
                )],
            )
            .unwrap();
        assert!(marked >= 1);
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 28.0);
    }

    #[test]
    fn network_traffic_is_accounted() {
        let d = cluster(4);
        let before = d.network().stats();
        let rows: Vec<Row> = (0..100).map(|i| row("us", (i % 32) as i64, 1)).collect();
        d.load(1, "events", &rows, 0).unwrap();
        let after_load = d.network().stats();
        assert!(after_load.messages > before.messages);
        assert!(after_load.bytes > before.bytes);
        let _ = total_likes(&d, 1, IsolationMode::Snapshot);
        assert!(d.network().stats().messages > after_load.messages);
    }

    #[test]
    fn metrics_report_covers_every_node() {
        let d = cluster(3);
        let rows: Vec<Row> = (0..64).map(|i| row("us", (i % 32) as i64, 1)).collect();
        d.load(1, "events", &rows, 0).unwrap();
        let _ = total_likes(&d, 2, IsolationMode::Snapshot);
        let report = d.metrics_report();
        assert!(report.contains("[cluster]"), "report:\n{report}");
        assert!(
            report.contains("messages.begin_request"),
            "report:\n{report}"
        );
        assert!(
            report.contains("[cluster.replication]"),
            "report:\n{report}"
        );
        assert!(report.contains("[cluster.rebalance]"), "report:\n{report}");
        assert!(report.contains("replica_reads"), "report:\n{report}");
        for node in 1..=3 {
            for section in ["aosi", "engine", "shards"] {
                let needle = format!("[node{node}.{section}]");
                assert!(report.contains(&needle), "missing {needle}:\n{report}");
            }
        }
        // The coordinator's load and everyone's scans show up.
        assert!(report.contains("node1.engine]"), "report:\n{report}");
        assert!(report.contains("flushes = 1"), "report:\n{report}");
        assert!(report.contains("queries = 0"), "report:\n{report}");
    }

    #[test]
    fn memory_aggregates_cluster_wide() {
        let d = cluster(3);
        let rows: Vec<Row> = (0..300).map(|i| row("us", (i % 32) as i64, 1)).collect();
        d.load(1, "events", &rows, 0).unwrap();
        let m = d.memory();
        assert_eq!(m.rows, 300);
        assert_eq!(m.mvcc_baseline_bytes, 4800);
        assert!(m.aosi_bytes > 0);
    }

    #[test]
    fn replicated_load_stores_every_brick_twice() {
        let d = DistributedEngine::elastic(
            ElasticConfig {
                capacity: 3,
                active: vec![1, 2, 3],
                shards_per_node: 2,
                replication: 2,
                retry: RetryPolicy::default(),
            },
            SimulatedNetwork::instant(),
        );
        d.create_cube(
            CubeSchema::new(
                "events",
                vec![Dimension::int("day", 32, 4)],
                vec![Metric::int("likes")],
            )
            .unwrap(),
        )
        .unwrap();
        let rows: Vec<Row> = (0..128)
            .map(|i| vec![Value::from((i % 32) as i64), Value::from(1i64)])
            .collect();
        d.load(1, "events", &rows, 0).unwrap();
        // Two copies of every row...
        let stored: u64 = (1..=3).map(|n| d.engine(n).memory().rows).sum();
        assert_eq!(stored, 256, "rf=2 stores each row twice");
        for bid in d.known_bricks("events") {
            assert_eq!(d.brick_hosts("events", bid).len(), 2, "bid {bid}");
        }
        // ...but every read counts each brick exactly once.
        assert_eq!(total_likes(&d, 2, IsolationMode::Snapshot), 128.0);
        assert!(d.rebal.replica_reads.get() > 0);
    }

    #[test]
    fn reads_fall_back_to_surviving_replica_and_purge_freezes() {
        let d = DistributedEngine::elastic(
            ElasticConfig {
                capacity: 3,
                active: vec![1, 2, 3],
                shards_per_node: 2,
                replication: 2,
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: std::time::Duration::ZERO,
                    max_backoff: std::time::Duration::ZERO,
                },
            },
            SimulatedNetwork::with_faults(
                cluster::LatencyModel::instant(),
                cluster::FaultPlan::seeded(7),
            ),
        );
        d.create_cube(
            CubeSchema::new(
                "events",
                vec![Dimension::int("day", 32, 4)],
                vec![Metric::int("likes")],
            )
            .unwrap(),
        )
        .unwrap();
        let rows: Vec<Row> = (0..64)
            .map(|i| vec![Value::from((i % 32) as i64), Value::from(1i64)])
            .collect();
        d.load(1, "events", &rows, 0).unwrap();
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 64.0);

        d.crash_node(3);
        // Every brick still answers from a surviving replica.
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 64.0);
        assert!(
            d.tracker().safe_epoch().is_none(),
            "offline replica must freeze the purge floor"
        );
        // A delete while node 3 is dark commits degraded...
        let (epoch, _) = d.delete_where(1, "events", &[]).unwrap();
        assert_eq!(total_likes(&d, 1, IsolationMode::Snapshot), 0.0);
        // ...and purging reclaims nothing: the floor is withheld.
        let stats = d.purge_all();
        assert_eq!(stats.rows_purged, 0, "LSE must not advance");

        // Back online: still capped below the missed epoch until healed.
        d.restart_node(3);
        assert!(d.tracker().safe_epoch().unwrap() < epoch);
        assert!(!d.tracker().covers(3, epoch));
        assert!(d.rebal.degraded_writes.get() >= 1);
    }
}
