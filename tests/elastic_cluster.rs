//! Elastic cluster chaos suite: replica placement, LSE-gated replica
//! reads, and node join/leave under seeded faults.
//!
//! Everything is deterministic per seed: the fault plan's RNG and the
//! workload's RNG both derive from the test seed, so any failure
//! replays exactly. Override the seed list with a comma-separated
//! `AOSI_SEEDS` environment variable — the CI `torture` job pins a
//! ≥20-seed corpus, and on failure uploads the `harness elastic`
//! artifact naming the command that reruns the exact run locally:
//!
//! ```text
//! AOSI_SEEDS=17 cargo test --test elastic_cluster kill_a_node_mid_workload
//! ```

use std::collections::BTreeSet;
use std::time::Duration;

use cluster::{FaultPlan, LatencyModel, NodeId, RetryPolicy, SimulatedNetwork};
use columnar::{Row, Value};
use cubrick::fault::HandoffBreak;
use cubrick::{At, CubeSchema, CubrickError, Dimension, DistributedEngine, ElasticConfig, Metric};
use rand::{rngs::StdRng, Rng, SeedableRng};

const BATCH: usize = 15;

/// Runs `f` once per seed (`AOSI_SEEDS`, default `1,2,3`); a
/// panicking seed leaves a replayable artifact.
fn for_each_seed(test: &str, f: impl Fn(u64)) {
    oracle::for_each_seed("elastic", test, &[1, 2, 3], f);
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

/// An elastic cluster over a seeded fault plan. `capacity` slots,
/// `active` initial members, replication factor `rf`.
fn build(capacity: u64, active: &[NodeId], rf: usize, plan: FaultPlan) -> DistributedEngine {
    let network = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
    let d = DistributedEngine::elastic(
        ElasticConfig {
            capacity,
            active: active.to_vec(),
            shards_per_node: 2,
            replication: rf,
            retry: fast_retry(),
        },
        network,
    );
    d.create_cube(
        CubeSchema::new(
            "events",
            vec![Dimension::int("day", 32, 1)],
            vec![Metric::int("likes")],
        )
        .unwrap(),
    )
    .unwrap();
    d
}

fn batch_rows(rng: &mut StdRng) -> Vec<Row> {
    (0..BATCH)
        .map(|_| vec![Value::from(rng.gen_range(0..32i64)), Value::from(1i64)])
        .collect()
}

/// Asserts the two ownership views agree: every physically stored
/// brick is reachable through the directory on that same node
/// (nothing orphaned), and every directory claim is physically backed
/// (nothing phantom). Also: no brick lists a host twice.
fn assert_ownership_consistent(d: &DistributedEngine, label: &str) {
    let physical = d.physical_bricks("events");
    let directory = d.directory_bricks("events");
    assert_eq!(
        physical, directory,
        "{label}: physical vs directory brick ownership diverged"
    );
    for bid in d.known_bricks("events") {
        let hosts = d.brick_hosts("events", bid);
        let distinct: BTreeSet<NodeId> = hosts.iter().copied().collect();
        assert_eq!(
            hosts.len(),
            distinct.len(),
            "{label}: brick {bid} lists a host twice: {hosts:?}"
        );
    }
}

/// Asserts every readable replica of every brick agrees at a pinned
/// snapshot (the replica-divergence check).
fn assert_no_divergence(d: &DistributedEngine, origin: NodeId, label: &str) {
    let snap = d.protocol().manager(origin).begin_ro();
    if let Err(e) = d.check_replica_divergence("events", "likes", At::Snapshot(&snap)) {
        panic!("{label}: {e}");
    }
}

/// Satellite 1: kill a node mid-workload. Writers and readers keep
/// running; every read is answered from a surviving replica, SI
/// conservation holds throughout, replicas agree, and the count is
/// conserved at quiesce — measured by *queries*, never by memory
/// accounting.
#[test]
fn kill_a_node_mid_workload() {
    for_each_seed("kill_a_node_mid_workload", |seed| {
        let plan = FaultPlan::seeded(seed)
            .drop_p(0.03)
            .dup_p(0.03)
            .delay_p(0.04)
            .delay_horizon(6);
        let d = build(3, &[1, 2, 3], 2, plan);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE1A5);
        let victim: NodeId = seed % 3 + 1;
        let survivors: Vec<NodeId> = (1..=3).filter(|&n| n != victim).collect();

        let mut committed = 0.0f64;
        for step in 0..24 {
            if step == 8 {
                d.crash_node(victim);
                // §III-D: an offline replica freezes the purge floor.
                assert!(
                    d.tracker().safe_epoch().is_none(),
                    "seed {seed}: purge floor must be withheld while {victim} is dark"
                );
                assert_eq!(d.purge_all().rows_purged, 0, "seed {seed}");
            }
            if step == 16 {
                d.heal_node(victim)
                    .unwrap_or_else(|e| panic!("seed {seed}: heal failed: {e}"));
            }
            let live: Vec<NodeId> = if (8..16).contains(&step) {
                survivors.clone()
            } else {
                vec![1, 2, 3]
            };
            let origin = live[rng.gen_range(0..live.len())];
            if let Ok(outcome) = d.load(origin, "events", &batch_rows(&mut rng), 0) {
                assert_eq!(outcome.accepted, BATCH);
                committed += BATCH as f64;
            }
            // Every read must be answered — from a fallback replica
            // while the victim is dark.
            let reader = live[rng.gen_range(0..live.len())];
            let seen = d
                .committed_total(reader, "events", "likes")
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: unanswered read: {e}"));
            assert!(
                seen <= committed,
                "seed {seed}: phantom rows ({seen} > {committed})"
            );
            assert_eq!(
                seen % BATCH as f64,
                0.0,
                "seed {seed}: torn batch visible ({seen})"
            );
        }

        assert!(d.protocol().settle(), "seed {seed}: failed to settle");
        // Count conservation at quiesce, by query, from every origin.
        for origin in 1..=3 {
            assert_eq!(
                d.committed_total(origin, "events", "likes").unwrap(),
                committed,
                "seed {seed}: origin {origin} lost rows"
            );
        }
        let (replica, fallback, unanswered) = d.read_routing_stats();
        assert!(replica > 0, "seed {seed}: no read used a preferred replica");
        assert!(
            fallback > 0,
            "seed {seed}: the outage never forced a fallback read"
        );
        assert_eq!(unanswered, 0, "seed {seed}: some read went unanswered");
        assert_no_divergence(&d, 1, &format!("seed {seed}"));
        assert_ownership_consistent(&d, &format!("seed {seed}"));
        // Healed: the purge floor thaws and purging works again.
        assert!(d.tracker().safe_epoch().is_some(), "seed {seed}");
    });
}

/// Satellite 2a: a node joining mid-workload ends up owning its ring
/// share; no brick is owned twice or orphaned; totals are conserved.
#[test]
fn join_mid_workload_takes_ring_share() {
    for_each_seed("join_mid_workload_takes_ring_share", |seed| {
        let d = build(4, &[1, 2, 3], 2, FaultPlan::seeded(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x107A);
        let mut committed = 0.0f64;
        for _ in 0..10 {
            let origin = rng.gen_range(1..=3);
            d.load(origin, "events", &batch_rows(&mut rng), 0).unwrap();
            committed += BATCH as f64;
        }
        let moved = d.join_node(4).unwrap();
        assert!(moved > 0, "seed {seed}: the joiner received no bricks");
        assert!(d.topology().contains(4));
        // The joiner owns its ring share: some bricks list it as a
        // readable host, and exactly where the ring says.
        let owned_by_4: Vec<u64> = d
            .known_bricks("events")
            .into_iter()
            .filter(|&bid| d.brick_hosts("events", bid).contains(&4))
            .collect();
        assert!(!owned_by_4.is_empty(), "seed {seed}");
        for &bid in &owned_by_4 {
            assert!(
                d.topology().replicas(bid).contains(&4),
                "seed {seed}: brick {bid} on node 4 against the ring's will"
            );
        }
        // Writes keep flowing through the new member.
        for _ in 0..10 {
            let origin = rng.gen_range(1..=4);
            d.load(origin, "events", &batch_rows(&mut rng), 0).unwrap();
            committed += BATCH as f64;
        }
        assert!(d.protocol().settle(), "seed {seed}");
        for origin in 1..=4 {
            assert_eq!(
                d.committed_total(origin, "events", "likes").unwrap(),
                committed,
                "seed {seed}: origin {origin}"
            );
        }
        assert_ownership_consistent(&d, &format!("seed {seed}"));
        assert_no_divergence(&d, 4, &format!("seed {seed}"));
        // Every brick holds exactly rf copies.
        for bid in d.known_bricks("events") {
            assert_eq!(
                d.brick_hosts("events", bid).len(),
                2,
                "seed {seed}: brick {bid} lost a replica"
            );
        }
    });
}

/// Satellite 2b: a graceful leave lands every brick on the ring
/// successors and the leaver holds nothing afterwards.
#[test]
fn graceful_leave_hands_bricks_to_successors() {
    for_each_seed("graceful_leave_hands_bricks_to_successors", |seed| {
        let d = build(4, &[1, 2, 3, 4], 2, FaultPlan::seeded(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1EA7);
        let mut committed = 0.0f64;
        for _ in 0..12 {
            let origin = rng.gen_range(1..=4);
            d.load(origin, "events", &batch_rows(&mut rng), 0).unwrap();
            committed += BATCH as f64;
        }
        d.leave_node(4).unwrap();
        assert!(!d.topology().contains(4));
        assert!(
            d.physical_bricks("events").iter().all(|&(n, _)| n != 4),
            "seed {seed}: the leaver still stores bricks"
        );
        for bid in d.known_bricks("events") {
            let hosts = d.brick_hosts("events", bid);
            assert!(!hosts.contains(&4), "seed {seed}: brick {bid}");
            assert_eq!(hosts.len(), 2, "seed {seed}: brick {bid} under-replicated");
            assert_eq!(
                hosts.iter().copied().collect::<BTreeSet<_>>(),
                d.topology()
                    .replicas(bid)
                    .into_iter()
                    .collect::<BTreeSet<_>>(),
                "seed {seed}: brick {bid} not on its ring successors"
            );
        }
        assert!(d.protocol().settle(), "seed {seed}");
        for origin in 1..=3 {
            assert_eq!(
                d.committed_total(origin, "events", "likes").unwrap(),
                committed,
                "seed {seed}: origin {origin}"
            );
        }
        assert_ownership_consistent(&d, &format!("seed {seed}"));
    });
}

/// Satellite 2c: join-then-leave round trip conserves brick ownership
/// exactly — back to replication-factor copies on the original
/// members, nothing orphaned on the visitor.
#[test]
fn join_leave_round_trip_conserves_ownership() {
    for_each_seed("join_leave_round_trip_conserves_ownership", |seed| {
        let d = build(4, &[1, 2, 3], 2, FaultPlan::seeded(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0707);
        let mut committed = 0.0f64;
        for _ in 0..8 {
            d.load(rng.gen_range(1..=3), "events", &batch_rows(&mut rng), 0)
                .unwrap();
            committed += BATCH as f64;
        }
        d.join_node(4).unwrap();
        for _ in 0..4 {
            d.load(rng.gen_range(1..=4), "events", &batch_rows(&mut rng), 0)
                .unwrap();
            committed += BATCH as f64;
        }
        d.leave_node(4).unwrap();
        assert!(
            d.physical_bricks("events").iter().all(|&(n, _)| n != 4),
            "seed {seed}: bricks orphaned on the departed node"
        );
        for bid in d.known_bricks("events") {
            let hosts: BTreeSet<NodeId> = d.brick_hosts("events", bid).into_iter().collect();
            assert_eq!(hosts.len(), 2, "seed {seed}: brick {bid}");
            assert!(hosts.iter().all(|n| (1..=3).contains(n)), "seed {seed}");
        }
        assert!(d.protocol().settle(), "seed {seed}");
        assert_eq!(
            d.committed_total(1, "events", "likes").unwrap(),
            committed,
            "seed {seed}"
        );
        assert_ownership_consistent(&d, &format!("seed {seed}"));
        assert_no_divergence(&d, 2, &format!("seed {seed}"));
    });
}

/// Satellite 2d: a crash during handoff neither loses nor duplicates
/// a brick — the failed transfer leaves the source fully intact, and
/// retrying after the receiver recovers completes the move.
#[test]
fn crash_during_handoff_loses_nothing() {
    for_each_seed("crash_during_handoff_loses_nothing", |seed| {
        let d = build(4, &[1, 2, 3], 2, FaultPlan::seeded(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5);
        let mut committed = 0.0f64;
        for _ in 0..10 {
            d.load(rng.gen_range(1..=3), "events", &batch_rows(&mut rng), 0)
                .unwrap();
            committed += BATCH as f64;
        }
        // The receiver dies after the first streamed chunk.
        d.faults()
            .break_handoff(Some(HandoffBreak::CrashReceiverMidStream));
        let joined = d.join_node(4);
        assert!(
            joined.is_err(),
            "seed {seed}: the interrupted join must report failure"
        );
        d.faults().break_handoff(None);
        // Nothing lost, nothing duplicated, node 4 holds nothing.
        assert!(
            d.physical_bricks("events").iter().all(|&(n, _)| n != 4),
            "seed {seed}"
        );
        assert_ownership_consistent(&d, &format!("seed {seed} (mid-crash)"));
        assert_eq!(
            d.committed_total(1, "events", "likes").unwrap(),
            committed,
            "seed {seed}: rows lost to the interrupted handoff"
        );
        // Recover the receiver and retry: the join completes.
        d.heal_node(4).unwrap();
        assert!(
            d.known_bricks("events")
                .iter()
                .any(|&bid| d.brick_hosts("events", bid).contains(&4)),
            "seed {seed}: retried join still moved nothing"
        );
        // A freshly joined node snapshots at its own LCE, which only
        // advances once it participates in a commit — load a few more
        // batches so node 4's read frontier covers the whole history.
        for _ in 0..3 {
            d.load(rng.gen_range(1..=4), "events", &batch_rows(&mut rng), 0)
                .unwrap();
            committed += BATCH as f64;
        }
        assert!(d.protocol().settle(), "seed {seed}");
        assert_eq!(
            d.committed_total(4, "events", "likes").unwrap(),
            committed,
            "seed {seed}"
        );
        assert_ownership_consistent(&d, &format!("seed {seed} (healed)"));
        assert_no_divergence(&d, 1, &format!("seed {seed}"));
    });
}

/// Meta-test: the suite *catches* a handoff that installs an
/// incomplete copy. With [`HandoffBreak::InstallIncomplete`] armed,
/// the destination silently misses rows — and the replica-divergence
/// check must flag exactly that.
#[test]
fn meta_broken_handoff_incomplete_install_is_caught() {
    let d = build(3, &[1, 2, 3], 2, FaultPlan::seeded(42));
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..8 {
        d.load(rng.gen_range(1..=3), "events", &batch_rows(&mut rng), 0)
            .unwrap();
    }
    // Pick a brick and move it to the one node not hosting it, with
    // the sabotage armed.
    let bid = d.known_bricks("events")[0];
    let hosts = d.brick_hosts("events", bid);
    let spare = (1..=3).find(|n| !hosts.contains(n)).unwrap();
    d.faults()
        .break_handoff(Some(HandoffBreak::InstallIncomplete));
    d.transfer_brick("events", bid, hosts[0], spare).unwrap();
    d.faults().break_handoff(None);
    // The broken copy diverges from the surviving honest replica.
    let snap = d.protocol().manager(1).begin_ro();
    let err = d
        .check_replica_divergence("events", "likes", At::Snapshot(&snap))
        .expect_err("the divergence check must catch the incomplete copy");
    assert!(err.contains(&format!("brick {bid}")), "{err}");
}

/// Meta-test: the suite catches a handoff that retires the source
/// even though the stream failed ([`HandoffBreak::RetireDespiteFailure`]):
/// the brick's only readable host is then a node that stores nothing,
/// so a read of it fails typed instead of conserving the count.
#[test]
fn meta_broken_handoff_lost_brick_is_caught() {
    // rf = 1 so the sabotaged move destroys the only copy.
    let d = build(4, &[1, 2, 3], 1, FaultPlan::seeded(43));
    let mut rng = StdRng::seed_from_u64(43);
    let mut committed = 0.0f64;
    for _ in 0..8 {
        d.load(rng.gen_range(1..=3), "events", &batch_rows(&mut rng), 0)
            .unwrap();
        committed += BATCH as f64;
    }
    let bid = d.known_bricks("events")[0];
    let source = d.brick_hosts("events", bid)[0];
    // The receiver is dark, so the stream cannot land; the sabotage
    // "completes" the move anyway.
    d.crash_node(4);
    d.faults()
        .break_handoff(Some(HandoffBreak::RetireDespiteFailure));
    d.transfer_brick("events", bid, source, 4).unwrap();
    d.faults().break_handoff(None);
    d.restart_node(4);
    // Count conservation — the suite's quiesce check — now fails: the
    // brick's one readable host, dormant slot 4, takes no part in a
    // read, so the read refuses to answer without the brick's rows.
    match d.committed_total(1, "events", "likes") {
        Err(CubrickError::NoReplicaAvailable { bid: lost, .. }) => assert_eq!(lost, bid),
        other => {
            panic!("the sabotaged handoff should have lost the brick ({other:?} of {committed})")
        }
    }
    // And the ownership views disagree: the directory claims node 4
    // serves the brick, but node 4 stores nothing.
    assert_ne!(
        d.physical_bricks("events"),
        d.directory_bricks("events"),
        "ownership audit should flag the phantom copy"
    );
}

/// A lone member cannot leave; joining past capacity panics. Guard
/// rails, pinned.
#[test]
#[should_panic(expected = "capacity")]
fn join_past_capacity_panics() {
    let d = build(2, &[1, 2], 1, FaultPlan::seeded(1));
    let _ = d.join_node(3);
}
