//! Seeded chaos suite: drives the multi-node protocol (and the full
//! Cubrick cluster) under every injected fault class with the online
//! SI checker attached.
//!
//! Everything is deterministic: the fault plan's RNG and the
//! workload's RNG both derive from the test seed, so any failure
//! replays exactly. Override the seed list with a comma-separated
//! `AOSI_SEEDS` environment variable (the CI `torture` job pins it);
//! a failing seed writes a `harness chaos` artifact naming the command
//! that reruns it:
//!
//! ```text
//! AOSI_SEEDS=41 cargo test --test chaos_cluster chaos_drops
//! ```

use std::collections::BTreeSet;
use std::time::Duration;

use aosi::{Epoch, Snapshot};
use checker::{fingerprint_rows, SiChecker, TxnEvent};
use cluster::{
    DistributedTxn, FaultPlan, LatencyModel, ProtocolCluster, RetryPolicy, SimulatedNetwork,
};
use columnar::{Row, Value};
use cubrick::{
    AggFn, Aggregation, CubeSchema, Dimension, DistributedEngine, IsolationMode, Metric, Query,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const NODES: u64 = 3;

/// Runs `f` once per seed (`AOSI_SEEDS`, default `1,2,3`); a
/// panicking seed leaves a replayable artifact.
fn for_each_seed(test: &str, f: impl Fn(u64)) {
    oracle::for_each_seed("chaos", test, &[1, 2, 3], f);
}

/// Fast-retry policy for chaos runs (the backoff sleeps are real
/// time; determinism comes from the seeds, not the clock).
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

/// A single-threaded workload driver over the protocol layer that
/// mirrors every action into the [`SiChecker`].
struct Driver {
    cluster: ProtocolCluster,
    checker: SiChecker,
    rng: StdRng,
    active: Vec<DistributedTxn>,
    all_begun: Vec<Epoch>,
    rolled_back: BTreeSet<Epoch>,
    committed: BTreeSet<Epoch>,
    broadcast_failures: u64,
}

impl Driver {
    fn new(seed: u64, plan: FaultPlan) -> Self {
        let network = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        Driver {
            cluster: ProtocolCluster::with_retry(NODES, network, chaos_retry()),
            checker: SiChecker::new(NODES),
            // Offset so the workload stream differs from the fault
            // stream even for equal seeds.
            rng: StdRng::seed_from_u64(seed ^ 0xD1CE),
            active: Vec::new(),
            all_begun: Vec::new(),
            rolled_back: BTreeSet::new(),
            committed: BTreeSet::new(),
            broadcast_failures: 0,
        }
    }

    /// Epochs a snapshot would surface, as the driver knows them:
    /// everything the predicate admits minus physically-removed
    /// (rolled-back) epochs. Feeding this to the checker closes the
    /// loop — if the protocol let a pending or excluded epoch
    /// through, it shows up here.
    fn visible(&self, snap: &Snapshot) -> BTreeSet<Epoch> {
        self.all_begun
            .iter()
            .copied()
            .filter(|&e| snap.sees(e) && !self.rolled_back.contains(&e))
            .collect()
    }

    fn begin(&mut self) {
        let node = self.rng.gen_range(1..=NODES);
        let mut txn = self.cluster.begin_rw(node);
        let mut ok = false;
        for _ in 0..3 {
            if self.cluster.broadcast_begin(&mut txn, 32).is_ok() {
                ok = true;
                break;
            }
        }
        if ok {
            self.checker.record(TxnEvent::Begin {
                node,
                epoch: txn.epoch,
                deps: txn.deps().clone(),
            });
            self.all_begun.push(txn.epoch);
            self.active.push(txn);
        } else {
            // The begin never completed cluster-wide: abandon it.
            // The rollback still fans out to the nodes a delayed
            // begin might yet reach.
            self.broadcast_failures += 1;
            self.cluster.rollback(&txn).unwrap();
        }
    }

    fn finish_one(&mut self, rollback: bool) {
        if self.active.is_empty() {
            return;
        }
        let idx = self.rng.gen_range(0..self.active.len());
        let txn = self.active.swap_remove(idx);
        if rollback {
            self.cluster.rollback(&txn).unwrap();
            self.rolled_back.insert(txn.epoch);
            self.checker.record(TxnEvent::Rollback {
                node: txn.origin,
                epoch: txn.epoch,
            });
        } else {
            self.cluster.commit(&txn).unwrap();
            self.committed.insert(txn.epoch);
            self.checker.record(TxnEvent::Commit {
                node: txn.origin,
                epoch: txn.epoch,
            });
        }
    }

    fn forward(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let idx = self.rng.gen_range(0..self.active.len());
        let target = self.rng.gen_range(1..=NODES);
        // A lost forward is the caller's problem (it would abort the
        // data operation); the protocol invariants hold either way.
        let _ = self.cluster.forward_op(&self.active[idx], &[target], 64);
    }

    fn ro_read(&mut self) {
        let node = self.rng.gen_range(1..=NODES);
        let snap = self.cluster.begin_ro(node);
        let observed = self.visible(&snap);
        let fp = fingerprint_rows(observed.iter().copied());
        self.checker.record(TxnEvent::Read {
            node,
            snapshot_epoch: snap.epoch(),
            deps: snap.deps().clone(),
            observed,
            reader: None,
            // One key for all RO reads: any two nodes whose LCE
            // lands on the same epoch must expose the same history.
            key: "ro".into(),
            fingerprint: fp,
        });
    }

    fn rw_read(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let idx = self.rng.gen_range(0..self.active.len());
        let txn = &self.active[idx];
        let snap = txn.snapshot();
        let observed = self.visible(&snap);
        let fp = fingerprint_rows(observed.iter().copied());
        self.checker.record(TxnEvent::Read {
            node: txn.origin,
            snapshot_epoch: snap.epoch(),
            deps: snap.deps().clone(),
            observed,
            reader: Some(txn.epoch),
            key: format!("rw{}", txn.epoch),
            fingerprint: fp,
        });
    }

    fn sample_clocks(&mut self) {
        for node in 1..=NODES {
            let m = self.cluster.manager(node);
            self.checker.record(TxnEvent::ClockSample {
                node,
                ec: m.clock().current_ec(),
                lce: m.lce(),
                lse: m.lse(),
            });
        }
    }

    fn step(&mut self) {
        match self.rng.gen_range(0..10u32) {
            0..=3 => self.begin(),
            4..=5 => self.finish_one(false),
            6 => self.finish_one(true),
            7 => self.forward(),
            8 => self.ro_read(),
            _ => self.rw_read(),
        }
        self.sample_clocks();
    }

    /// Finishes every open transaction, settles the wire, and
    /// asserts the end state: checker clean, nothing stuck pending,
    /// and (once fully settled) LCE converged cluster-wide to the
    /// highest committed epoch.
    fn drain_and_verify(&mut self, label: &str) {
        while !self.active.is_empty() {
            let rollback = self.rng.gen_bool(0.2);
            self.finish_one(rollback);
        }
        let settled = self.cluster.settle();
        self.sample_clocks();
        self.checker.assert_clean();
        assert!(
            self.checker.events_checked() > 0,
            "{label}: the run never fed the checker"
        );
        for node in 1..=NODES {
            assert!(
                self.cluster.manager(node).pending_txs().is_empty(),
                "{label}: node {node} has transactions stuck pending: {:?}",
                self.cluster.manager(node).pending_txs()
            );
        }
        if settled {
            assert_eq!(self.cluster.unacked_len(), 0, "{label}");
            let expect = self.committed.iter().max().copied().unwrap_or(0);
            for node in 1..=NODES {
                assert_eq!(
                    self.cluster.manager(node).lce(),
                    expect,
                    "{label}: node {node} LCE did not converge"
                );
            }
        }
    }
}

fn run_protocol_chaos(label: &str, seed: u64, plan: FaultPlan, steps: usize) -> Driver {
    let mut d = Driver::new(seed, plan);
    for _ in 0..steps {
        d.step();
    }
    d.drain_and_verify(label);
    d
}

#[test]
fn chaos_drops() {
    for_each_seed("chaos_drops", |seed| {
        let plan = FaultPlan::seeded(seed).drop_p(0.10);
        let d = run_protocol_chaos("drops", seed, plan, 150);
        let (drops, _, _, _) = d.cluster.network().fault_stats();
        assert!(drops > 0, "seed {seed}: the drop plan never fired");
        assert!(
            d.cluster.metrics().retries.get() > 0,
            "seed {seed}: drops must force retries"
        );
    });
}

#[test]
fn chaos_duplicates() {
    for_each_seed("chaos_duplicates", |seed| {
        let plan = FaultPlan::seeded(seed).dup_p(0.25);
        let d = run_protocol_chaos("duplicates", seed, plan, 150);
        let (_, dups, _, _) = d.cluster.network().fault_stats();
        assert!(dups > 0, "seed {seed}: the duplicate plan never fired");
        assert!(
            d.cluster.metrics().dedup_hits.get() > 0,
            "seed {seed}: duplicates must hit the idempotency filter"
        );
    });
}

#[test]
fn chaos_delay_reorder() {
    for_each_seed("chaos_delay_reorder", |seed| {
        let plan = FaultPlan::seeded(seed).delay_p(0.20).delay_horizon(8);
        let d = run_protocol_chaos("delay", seed, plan, 150);
        let (_, _, delays, _) = d.cluster.network().fault_stats();
        assert!(delays > 0, "seed {seed}: the delay plan never fired");
        assert!(
            d.checker.events_checked() > 300,
            "seed {seed}: workload too small to mean anything"
        );
    });
}

#[test]
fn chaos_crash_restart() {
    for_each_seed("chaos_crash_restart", |seed| {
        // Two scheduled outages in message-sequence time plus one
        // scripted crash/restart mid-run.
        let plan = FaultPlan::seeded(seed).crash(2, 40, 80).crash(3, 200, 230);
        let mut d = Driver::new(seed, plan);
        for step in 0..150 {
            if step == 60 {
                d.cluster.network().crash_node(1.max(seed % NODES + 1));
            }
            if step == 90 {
                d.cluster.network().restart_node(1.max(seed % NODES + 1));
            }
            d.step();
        }
        d.drain_and_verify("crash");
        let (_, _, _, crash_drops) = d.cluster.network().fault_stats();
        assert!(
            crash_drops > 0,
            "seed {seed}: no message ever hit an outage"
        );
    });
}

#[test]
fn chaos_combined() {
    for_each_seed("chaos_combined", |seed| {
        let plan = FaultPlan::seeded(seed)
            .drop_p(0.05)
            .dup_p(0.05)
            .delay_p(0.08)
            .delay_horizon(6)
            .crash(2, 100, 130);
        let d = run_protocol_chaos("combined", seed, plan, 200);
        // The report must carry the full fault/retry story for this
        // run (CI greps these counters for regressions).
        let mut report = obs::ReportBuilder::new();
        d.cluster.network().report(&mut report);
        d.cluster.report(&mut report);
        let text = report.finish();
        assert!(text.contains("[cluster.faults]"), "report:\n{text}");
        assert!(text.contains("[cluster.protocol]"), "report:\n{text}");
        assert!(text.contains("retries"), "report:\n{text}");
    });
}

/// The full engine under combined faults: loads, deletes, and
/// queries keep conservation (no lost or phantom rows) and committed
/// reads stay stable when replayed at an explicit snapshot.
#[test]
fn chaos_cubrick_cluster() {
    for_each_seed("chaos_cubrick_cluster", |seed| {
        let plan = FaultPlan::seeded(seed)
            .drop_p(0.04)
            .dup_p(0.04)
            .delay_p(0.05)
            .delay_horizon(6);
        let network = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        let d = DistributedEngine::new(NODES, 2, network);
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
        let checker = SiChecker::new(NODES);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0B1);
        let sum_query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let total_from = |origin: u64| -> f64 {
            d.query(origin, "events", &sum_query, IsolationMode::Snapshot)
                .unwrap()
                .scalar()
                .unwrap_or(0.0)
        };

        let mut committed_total = 0.0f64;
        let mut probes: Vec<(Snapshot, u64)> = Vec::new();
        for i in 0..30 {
            let origin = rng.gen_range(1..=NODES);
            let batch = 20;
            let rows: Vec<Row> = (0..batch)
                .map(|r| {
                    vec![
                        Value::from(["us", "br", "mx"][r % 3]),
                        Value::from(((i * 7 + r) % 32) as i64),
                        Value::from(1i64),
                    ]
                })
                .collect();
            match d.load(origin, "events", &rows, 0) {
                Ok(outcome) => {
                    assert_eq!(outcome.accepted, batch);
                    committed_total += batch as f64;
                }
                Err(_) => {
                    // Unreachable node: the load rolled back before
                    // flushing anything — conservation must hold.
                }
            }

            // Conservation under SI: a query sees an exact prefix of
            // the committed loads — whole batches, never more than
            // has committed, never a torn batch.
            let seen = total_from(rng.gen_range(1..=NODES));
            assert!(
                seen <= committed_total,
                "seed {seed}: phantom rows ({seen} > {committed_total})"
            );
            assert_eq!(
                seen % batch as f64,
                0.0,
                "seed {seed}: torn batch visible ({seen})"
            );

            // Pin a snapshot and fingerprint it now...
            let snap = d.protocol().begin_ro(origin);
            let fp = d
                .query_at(origin, "events", &sum_query, snap.clone())
                .unwrap()
                .scalar()
                .unwrap_or(0.0)
                .to_bits();
            checker.record(TxnEvent::Read {
                node: origin,
                snapshot_epoch: snap.epoch(),
                deps: snap.deps().clone(),
                observed: BTreeSet::new(),
                reader: None,
                key: "sum".into(),
                fingerprint: fp,
            });
            probes.push((snap, fp));

            // ...and replay an older snapshot from a *different*
            // coordinator: the answer must not have changed.
            let (old_snap, old_fp) = probes[rng.gen_range(0..probes.len())].clone();
            let replay_origin = rng.gen_range(1..=NODES);
            let replay = d
                .query_at(replay_origin, "events", &sum_query, old_snap.clone())
                .unwrap()
                .scalar()
                .unwrap_or(0.0)
                .to_bits();
            assert_eq!(
                replay,
                old_fp,
                "seed {seed}: committed read at epoch {} changed",
                old_snap.epoch()
            );
            checker.record(TxnEvent::Read {
                node: replay_origin,
                snapshot_epoch: old_snap.epoch(),
                deps: old_snap.deps().clone(),
                observed: BTreeSet::new(),
                reader: None,
                key: "sum".into(),
                fingerprint: replay,
            });

            for node in 1..=NODES {
                let m = d.protocol().manager(node);
                checker.record(TxnEvent::ClockSample {
                    node,
                    ec: m.clock().current_ec(),
                    lce: m.lce(),
                    lse: m.lse(),
                });
            }
        }

        assert!(
            d.protocol().settle(),
            "seed {seed}: cluster failed to settle"
        );
        checker.assert_clean();
        for origin in 1..=NODES {
            assert_eq!(
                total_from(origin),
                committed_total,
                "seed {seed}: origin {origin} lost rows after settling"
            );
        }
        let report = d.metrics_report();
        assert!(report.contains("[cluster.faults]"), "report:\n{report}");
        assert!(report.contains("[cluster.protocol]"), "report:\n{report}");
    });
}
