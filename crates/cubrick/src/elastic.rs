//! Elastic membership: brick handoff, join/leave, heal, rebalance.
//!
//! A membership change (join, leave, crash-recovery) changes what the
//! [`Topology`](cluster::Topology) *wants* — which nodes should hold
//! each brick — while the directory records what the cluster
//! *has*. [`DistributedEngine::rebalance`] closes the gap with the
//! **handoff protocol**, one brick at a time:
//!
//! 1. **Subscribe + capture** — under the exclusive write gate, the
//!    destination is added to the brick's `pending` host list (every
//!    later write fans out to it) and the source's complete brick
//!    state is exported. The two happen atomically with respect to
//!    loads, so no epoch can fall between the captured state and the
//!    subscription.
//! 2. **Stream** — the capture crosses the simulated wire in chunks
//!    ([`MsgKind::HandoffChunk`]); drops are retried a bounded number
//!    of times, duplicates are harmless (installation dedups by
//!    `(epoch, kind)`), delays only defer installation.
//! 3. **Ack + install** — the destination acknowledges
//!    ([`MsgKind::HandoffAck`]), installs the runs, and the directory
//!    flips it from `pending` to `readable`. Reads may now route to
//!    it.
//! 4. **Retire** (move only) — the source leaves the directory first,
//!    then waits out in-flight scans (exclusive scan gate) before
//!    physically dropping its copy.
//!
//! Any failure before the ack leaves the source fully intact and
//! merely unsubscribes the destination: a crashed handoff can neither
//! lose a brick nor duplicate its ownership.

use std::collections::BTreeSet;
use std::sync::Arc;

use cluster::{Fate, MsgKind, NodeId};
use obs::sync::unpoison;

use crate::distributed::DistributedEngine;
use crate::engine::{At, Deliver};
use crate::error::CubrickError;
#[cfg(any(test, feature = "fault-hooks"))]
use crate::fault::HandoffBreak;
use crate::persist::DeltaRun;
use crate::query::{Query, QueryResult, ResolvedQuery};
use crate::scan::BrickFilter;

/// Per-chunk send attempts before a handoff gives up.
const HANDOFF_RETRIES: u32 = 4;
/// Runs per [`MsgKind::HandoffChunk`] message.
const RUNS_PER_CHUNK: usize = 4;

impl DistributedEngine {
    /// **Copies** brick `bid` of `cube` from `from` onto `to`
    /// (replicate — the source keeps its copy). On success `to` is a
    /// readable host. On failure the directory is exactly as before.
    pub fn copy_brick(
        &self,
        cube_name: &str,
        bid: u64,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), CubrickError> {
        self.rebal.handoffs_started.inc();
        let fail = |this: &Self| {
            this.rebal.handoffs_failed.inc();
            Err(CubrickError::HandoffFailed {
                cube: cube_name.to_owned(),
                bid,
                from,
                to,
            })
        };
        let cube = self.engine(to).cube(cube_name)?;
        let key = (cube_name.to_owned(), bid);

        // 1. Subscribe + capture, atomically w.r.t. writes.
        let runs = {
            let _wg = unpoison(self.write_gate.write());
            let mut dir = unpoison(self.directory.write());
            let Some(entry) = dir.get_mut(&key) else {
                return fail(self);
            };
            if entry.readable.contains(&to) {
                // Already a host: nothing to move.
                self.rebal.handoffs_completed.inc();
                return Ok(());
            }
            if !entry.readable.contains(&from) {
                return fail(self);
            }
            if !entry.pending.contains(&to) {
                entry.pending.push(to);
            }
            drop(dir);
            self.engine(from).export_brick(cube_name, bid)
        };
        // A failed capture (the export task panicked, or a spilled
        // brick could not be reloaded) aborts the handoff before
        // anything streams: unsubscribe the destination and fail —
        // treating it as an empty brick would stream nothing, mark
        // the copy readable, and retire the source.
        let runs = match runs {
            Ok(runs) => runs,
            Err(_) => {
                let mut dir = unpoison(self.directory.write());
                if let Some(entry) = dir.get_mut(&key) {
                    entry.pending.retain(|&n| n != to);
                }
                return fail(self);
            }
        };

        // 2. Stream the capture in chunks over the simulated wire.
        #[cfg(any(test, feature = "fault-hooks"))]
        let sabotage = self.faults.handoff_break();
        #[cfg(any(test, feature = "fault-hooks"))]
        let mut crash_receiver = sabotage == Some(HandoffBreak::CrashReceiverMidStream);
        let mut streamed = true;
        for chunk in runs.chunks(RUNS_PER_CHUNK.max(1)) {
            let bytes: usize = 64 + chunk.iter().map(run_bytes).sum::<usize>();
            if !self.send_with_retry(MsgKind::HandoffChunk, from, to, bytes) {
                streamed = false;
                break;
            }
            self.rebal.handoff_chunks.inc();
            #[cfg(any(test, feature = "fault-hooks"))]
            if std::mem::take(&mut crash_receiver) {
                // The receiver dies with the stream half landed.
                self.crash_node(to);
            }
        }
        // Handle the empty-brick edge (no runs): still do the ack
        // roundtrip so ownership only transfers over a live link.
        // 3. Ack roundtrip from the destination.
        let acked = streamed && self.send_with_retry(MsgKind::HandoffAck, to, from, 32);

        if !acked {
            #[cfg(any(test, feature = "fault-hooks"))]
            if sabotage == Some(HandoffBreak::RetireDespiteFailure) {
                // BROKEN ON PURPOSE: pretend it worked. The meta-test
                // proves the suite notices the lost brick.
                let mut dir = unpoison(self.directory.write());
                if let Some(entry) = dir.get_mut(&key) {
                    entry.pending.retain(|&n| n != to);
                    entry.readable.push(to);
                }
                return Ok(());
            }
            // Clean failure: unsubscribe; nothing was installed, the
            // source copy is untouched.
            let mut dir = unpoison(self.directory.write());
            if let Some(entry) = dir.get_mut(&key) {
                entry.pending.retain(|&n| n != to);
            }
            return fail(self);
        }

        // 4. Install at the destination. Writes that fanned out to
        // the pending subscription while we streamed are already
        // there; install dedups by (epoch, kind) so the overlap
        // between capture and subscription applies once.
        #[cfg(any(test, feature = "fault-hooks"))]
        let runs = match sabotage {
            // BROKEN ON PURPOSE: drop the last insert run.
            Some(HandoffBreak::InstallIncomplete) => crate::fault::without_last_insert(runs),
            _ => runs,
        };
        if self
            .engine(to)
            .install_brick_runs(&cube, bid, runs)
            .is_err()
        {
            // The destination could not fault its spilled copy back
            // in: nothing was installed, so unsubscribe and fail —
            // the source keeps the brick.
            let mut dir = unpoison(self.directory.write());
            if let Some(entry) = dir.get_mut(&key) {
                entry.pending.retain(|&n| n != to);
            }
            return fail(self);
        }

        // Flip: pending → readable.
        {
            let mut dir = unpoison(self.directory.write());
            if let Some(entry) = dir.get_mut(&key) {
                entry.pending.retain(|&n| n != to);
                if !entry.readable.contains(&to) {
                    entry.readable.push(to);
                }
            }
        }
        self.rebal.handoffs_completed.inc();
        Ok(())
    }

    /// Drops `host`'s copy of the brick: out of the directory first,
    /// then past the scan gate (no in-flight read loses the brick),
    /// then physically. Refuses to retire the last readable copy.
    pub fn retire_copy(&self, cube_name: &str, bid: u64, host: NodeId) -> bool {
        let key = (cube_name.to_owned(), bid);
        {
            let mut dir = unpoison(self.directory.write());
            let Some(entry) = dir.get_mut(&key) else {
                return false;
            };
            if !entry.readable.contains(&host) || entry.readable.len() == 1 {
                return false;
            }
            entry.readable.retain(|&n| n != host);
        }
        // Exclusive scan gate: every fan-out that might have routed a
        // read to this copy finishes before the rows vanish.
        let _sg = unpoison(self.scan_gate.write());
        self.engine(host).remove_brick(cube_name, bid);
        true
    }

    /// **Moves** brick `bid` from `from` to `to`: copy, then retire
    /// the source copy. On failure the source keeps the brick.
    pub fn transfer_brick(
        &self,
        cube_name: &str,
        bid: u64,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), CubrickError> {
        self.copy_brick(cube_name, bid, from, to)?;
        self.retire_copy(cube_name, bid, from);
        self.rebal.bricks_moved.inc();
        Ok(())
    }

    /// Drives the directory toward what the topology wants: streams
    /// missing replicas onto their assigned nodes, then retires
    /// copies on nodes the ring no longer maps the brick to. Returns
    /// the number of brick copies created. Idempotent — a failed run
    /// (e.g. destination crashed mid-stream) can simply be retried.
    pub fn rebalance(&self) -> Result<usize, CubrickError> {
        let keys: Vec<(String, u64)> = unpoison(self.directory.read()).keys().cloned().collect();
        let mut copies = 0usize;
        let mut first_err: Option<CubrickError> = None;
        for (cube_name, bid) in keys {
            let desired = self.topology.replicas(bid);
            let current: Vec<NodeId> = {
                let dir = unpoison(self.directory.read());
                match dir.get(&(cube_name.clone(), bid)) {
                    Some(entry) => entry.readable.clone(),
                    None => continue,
                }
            };
            // Add missing copies first.
            for &want in &desired {
                if current.contains(&want) || self.is_node_down(want) {
                    continue;
                }
                let Some(src) = self
                    .prefer(bid, &current)
                    .into_iter()
                    .find(|&n| !self.is_node_down(n))
                else {
                    continue;
                };
                match self.copy_brick(&cube_name, bid, src, want) {
                    Ok(()) => copies += 1,
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        continue;
                    }
                }
            }
            // Only shed extras once every desired replica has a copy:
            // a half-converged brick keeps all its old homes.
            let now: Vec<NodeId> = {
                let dir = unpoison(self.directory.read());
                dir.get(&(cube_name.clone(), bid))
                    .map(|e| e.readable.clone())
                    .unwrap_or_default()
            };
            if desired.iter().all(|n| now.contains(n)) {
                for &host in &now {
                    if !desired.contains(&host) && self.retire_copy(&cube_name, bid, host) {
                        self.rebal.bricks_moved.inc();
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(copies),
        }
    }

    /// Activates slot `node` and folds it into the ring: the joiner's
    /// clock catches up, the topology reassigns its ring share, and
    /// [`DistributedEngine::rebalance`] streams exactly those bricks
    /// onto it. Returns the number of brick copies it received.
    pub fn join_node(&self, node: NodeId) -> Result<usize, CubrickError> {
        self.protocol.activate(node);
        // `activate` raises only the joiner's EC, so its LCE could sit
        // below a member's LSE. Every epoch up to the members' smallest
        // LCE has finished on every member, and `purge_all` keeps each
        // LSE at or below it: the joiner takes it as its LCE, so no
        // member's LSE exceeds any member's LCE (DESIGN §17).
        let members = self.protocol.active_nodes().into_iter();
        let lces = members
            .filter(|&n| n != node)
            .map(|n| self.engine(n).manager().lce());
        let manager = self.engine(node).manager();
        if let Some(settled) = lces.min().filter(|&lce| lce > manager.lce()) {
            manager.register_remote(settled);
            manager.commit_remote(settled)?;
        }
        self.tracker.add_node(node, 0);
        self.topology.add_node(node);
        let moves = self.rebalance()?;
        // The joiner now holds a complete copy of every brick the
        // ring maps to it; raise its watermark to the cluster
        // frontier so the purge floor is not pinned at zero.
        self.tracker.heal(node, self.frontier());
        Ok(moves)
    }

    /// Gracefully removes `node`: its ring share moves to the
    /// successors, its bricks stream off it, then it leaves the
    /// member set. Returns the number of brick copies streamed off.
    pub fn leave_node(&self, node: NodeId) -> Result<usize, CubrickError> {
        self.topology.remove_node(node);
        let moves = self.rebalance()?;
        self.protocol.deactivate(node);
        self.tracker.remove_node(node);
        Ok(moves)
    }

    /// Recovers a restarted member: stale brick copies it was demoted
    /// from while dark are dropped, the ring's assignment is
    /// re-streamed onto it, and its durability watermark is healed to
    /// the cluster frontier. Returns the number of copies streamed.
    pub fn heal_node(&self, node: NodeId) -> Result<usize, CubrickError> {
        self.restart_node(node);
        // Drop copies the directory demoted while the node was dark —
        // they are missing epochs and must be re-streamed whole.
        let keys: Vec<(String, u64)> = unpoison(self.directory.read()).keys().cloned().collect();
        for (cube_name, bid) in keys {
            let readable = unpoison(self.directory.read())
                .get(&(cube_name.clone(), bid))
                .map(|e| e.readable.clone())
                .unwrap_or_default();
            if !readable.contains(&node) && self.engine(node).has_brick(&cube_name, bid) {
                let _sg = unpoison(self.scan_gate.write());
                self.engine(node).remove_brick(&cube_name, bid);
            }
        }
        let moves = self.rebalance()?;
        self.tracker.heal(node, self.frontier());
        Ok(moves)
    }

    /// The cluster's committed-epoch frontier: max LCE over members.
    fn frontier(&self) -> aosi::Epoch {
        self.protocol
            .active_nodes()
            .into_iter()
            .map(|n| self.engine(n).manager().lce())
            .max()
            .unwrap_or(0)
    }

    /// Sends one protocol message with bounded retries, treating a
    /// duplicate as one delivery and a delay as a (late) delivery.
    fn send_with_retry(&self, kind: MsgKind, from: NodeId, to: NodeId, bytes: usize) -> bool {
        for _ in 0..HANDOFF_RETRIES {
            match self.network().transmit_checked(kind, from, to, bytes, 0, 0) {
                Fate::Deliver { .. } | Fate::Delay { .. } => return true,
                Fate::Drop => self.rebal.handoff_chunk_retries.inc(),
            }
        }
        false
    }

    /// Every readable replica of every brick answers `query` at `at`
    /// **independently** and returns its fingerprinted result:
    /// `(bid, node, fingerprint)` triples for the replica-divergence
    /// checker. Two replicas of the same brick disagreeing at the same
    /// snapshot is a replication bug. The snapshot is admitted like a
    /// [`DistributedEngine::read`] from the first active node.
    pub fn replica_fingerprints(
        &self,
        cube_name: &str,
        query: &Query,
        at: At<'_>,
    ) -> Result<Vec<(u64, NodeId, String)>, CubrickError> {
        let coordinator = self.protocol.active_nodes()[0];
        let cube = self.engine(coordinator).cube(cube_name)?;
        let resolved = ResolvedQuery::resolve(&cube, query)?;
        let (participants, snapshot, _guards) = self.admit(coordinator, at)?;
        let _sg = unpoison(self.scan_gate.read());
        let pairs: Vec<(u64, NodeId)> = {
            let dir = unpoison(self.directory.read());
            let mut pairs: Vec<(u64, NodeId)> = dir
                .iter()
                .filter(|((c, _), _)| c == cube_name)
                .flat_map(|((_, bid), hosts)| {
                    hosts
                        .readable
                        .iter()
                        .filter(|n| participants.contains(n))
                        .map(|&n| (*bid, n))
                        .collect::<Vec<_>>()
                })
                .collect();
            pairs.sort_unstable();
            pairs
        };
        let mut out = Vec::with_capacity(pairs.len());
        for (bid, node) in pairs {
            let engine = self.engine(node);
            let allow: BrickFilter = Arc::new(move |b| b == bid);
            let (snapshot, config) = (snapshot.clone(), engine.scan_config());
            let partial = engine.scan(
                &cube,
                &resolved,
                snapshot,
                config,
                Some(allow),
                Deliver::Final,
            )?;
            let result = QueryResult::finalize(&cube, &resolved, partial);
            out.push((bid, node, fingerprint(&result)));
        }
        Ok(out)
    }

    /// Sums a metric per brick copy at `at` and checks copies agree; a
    /// convenience wrapper used by the chaos tests.
    pub fn check_replica_divergence(
        &self,
        cube_name: &str,
        metric: &str,
        at: At<'_>,
    ) -> Result<(), String> {
        let query = Query::aggregate(vec![crate::query::Aggregation::new(
            crate::query::AggFn::Sum,
            metric,
        )]);
        let triples = self
            .replica_fingerprints(cube_name, &query, at)
            .map_err(|e| e.to_string())?;
        let mut checker = checker::ReplicaDivergenceChecker::new();
        for (bid, node, fp) in triples {
            checker.observe(cube_name, bid, node, &fp);
        }
        checker.finish()
    }

    /// The set of `(node, bid)` pairs physically holding a brick of
    /// `cube`, straight from the engines (not the directory). Tests
    /// use the two views to assert no brick is orphaned (stored but
    /// unreachable) or owned twice inconsistently.
    pub fn physical_bricks(&self, cube: &str) -> BTreeSet<(NodeId, u64)> {
        let mut out = BTreeSet::new();
        for node in 1..=self.num_nodes() {
            for bid in self.engine(node).brick_bids(cube) {
                out.insert((node, bid));
            }
        }
        out
    }

    /// Directory view of ownership: `(node, bid)` for every readable
    /// copy of `cube`'s bricks.
    pub fn directory_bricks(&self, cube: &str) -> BTreeSet<(NodeId, u64)> {
        let dir = unpoison(self.directory.read());
        let mut out = BTreeSet::new();
        for ((c, bid), hosts) in dir.iter() {
            if c == cube {
                for &n in &hosts.readable {
                    out.insert((n, *bid));
                }
            }
        }
        out
    }

    /// Convenience: a snapshot-isolated total of `metric` over `cube`
    /// from `origin` — the chaos tests' canonical committed read.
    pub fn committed_total(
        &self,
        origin: NodeId,
        cube: &str,
        metric: &str,
    ) -> Result<f64, CubrickError> {
        let query = Query::aggregate(vec![crate::query::Aggregation::new(
            crate::query::AggFn::Sum,
            metric,
        )]);
        Ok(self
            .read(origin, cube, &query, At::Latest)?
            .scalar()
            .unwrap_or(0.0))
    }
}

/// Stable textual fingerprint of a query result: sorted rows, exact
/// float bits. Two replicas of one brick must produce identical
/// fingerprints at the same snapshot.
fn fingerprint(result: &QueryResult) -> String {
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|(keys, vals)| {
            let k: Vec<String> = keys.iter().map(|v| v.to_string()).collect();
            let v: Vec<String> = vals
                .iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect();
            format!("{}|{}", k.join(","), v.join(","))
        })
        .collect();
    rows.sort_unstable();
    rows.join(";")
}

/// Rough wire size of one delta run for traffic accounting.
fn run_bytes(run: &DeltaRun) -> usize {
    match run {
        DeltaRun::Insert { records, .. } => 16 + records.len() * 24,
        DeltaRun::Delete { .. } => 16,
    }
}
