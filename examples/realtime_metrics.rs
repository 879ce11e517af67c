//! Realtime metrics pipeline on a simulated cluster, with durability:
//!
//! * several producers stream event batches into a 4-node
//!   distributed engine (Section IV's transaction flow end to end);
//! * dashboards query concurrently under snapshot isolation and must
//!   always observe transactionally consistent totals;
//! * once the producers finish, every node flushes one round and the
//!   cluster purges (Section III-D); then one node is crashed and
//!   recovered from its flush directory.
//!
//! ```sh
//! cargo run --release --example realtime_metrics
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use aosi_repro::cluster::{ReplicationTracker, SimulatedNetwork};
use aosi_repro::columnar::Value;
use aosi_repro::cubrick::{
    AggFn, Aggregation, At, CubeSchema, Dimension, DistributedEngine, Engine, Metric, Query,
};
use aosi_repro::wal::{recover_into, FlushController};

const NODES: u64 = 4;
const PRODUCERS: usize = 3;
const BATCHES_PER_PRODUCER: u64 = 60;
const BATCH_SIZE: usize = 200;

fn schema() -> CubeSchema {
    CubeSchema::new(
        "metrics",
        vec![
            Dimension::string("service", 8, 1),
            Dimension::int("minute", 1024, 64),
        ],
        vec![Metric::int("requests"), Metric::int("errors")],
    )
    .unwrap()
}

fn main() {
    let cluster = DistributedEngine::new(NODES, 2, SimulatedNetwork::instant());
    cluster.create_cube(schema()).expect("cluster DDL");

    let services = ["web", "api", "feed"];
    let total_requests = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Producers: each batch is one distributed implicit txn with
        // exactly `BATCH_SIZE` requests, so any consistent snapshot
        // total is a multiple of BATCH_SIZE.
        for producer in 0..PRODUCERS {
            let cluster = &cluster;
            let total_requests = &total_requests;
            scope.spawn(move || {
                let origin = (producer as u64 % NODES) + 1;
                let service = services[producer % services.len()];
                for batch_id in 0..BATCHES_PER_PRODUCER {
                    let rows: Vec<Vec<Value>> = (0..BATCH_SIZE)
                        .map(|i| {
                            let minute = (batch_id as i64 * 7 + i as i64) % 1024;
                            vec![
                                service.into(),
                                Value::I64(minute),
                                Value::I64(1),
                                Value::I64(u64::from(i % 50 == 0) as i64),
                            ]
                        })
                        .collect();
                    cluster
                        .load(origin, "metrics", &rows, 0)
                        .expect("stream batch");
                    total_requests.fetch_add(BATCH_SIZE as u64, Ordering::Relaxed);
                }
            });
        }

        // Dashboards: snapshot totals must always be whole batches.
        for dashboard in 0..2u64 {
            let cluster = &cluster;
            let done = &done;
            scope.spawn(move || {
                let origin = (dashboard % NODES) + 1;
                let mut observations = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let result = cluster
                        .read(
                            origin,
                            "metrics",
                            &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "requests")]),
                            At::Latest,
                        )
                        .expect("dashboard query");
                    let total = result.scalar().unwrap_or(0.0) as u64;
                    assert_eq!(
                        total % BATCH_SIZE as u64,
                        0,
                        "snapshot saw a partial batch — SI violated"
                    );
                    observations += 1;
                }
                println!("dashboard {dashboard}: {observations} consistent snapshot reads");
            });
        }

        // Producers run inside this scope; signal dashboards once the
        // producer threads complete.
        scope.spawn(|| {
            // Busy-wait on the produced count; producers are peers in
            // the same scope.
            while total_requests.load(Ordering::Relaxed)
                < PRODUCERS as u64 * BATCHES_PER_PRODUCER * BATCH_SIZE as u64
            {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    // --- durability: flush every node, then crash + recover node 2 ---
    let base = std::env::temp_dir().join(format!("aosi-realtime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let tracker = ReplicationTracker::new(NODES);
    for node in 1..=NODES {
        let mut ctl =
            FlushController::new(base.join(format!("node-{node}")), node).expect("flush dir");
        let outcome = ctl
            .flush_round(cluster.engine(node), &tracker)
            .expect("flush");
        println!(
            "node {node}: flushed through epoch {} ({} deltas, LSE advanced: {})",
            outcome.lse_prime, outcome.deltas, outcome.lse_advanced
        );
    }
    // With every replica flushed, LSE advances and purge compacts.
    let purged = cluster.purge_all();
    println!(
        "purge after flush: {} epochs entries reclaimed across the cluster",
        purged.entries_reclaimed
    );

    let node2_rows = cluster.engine(2).memory().rows;
    let restored = Engine::new(2);
    restored.create_cube(schema()).expect("cube");
    let report = recover_into(&base.join("node-2"), &restored).expect("recovery");
    println!(
        "recovered node 2 from disk: {} rounds, {} rows (lost node held {})",
        report.rounds_applied, report.rows_recovered, node2_rows
    );
    assert_eq!(report.rows_recovered, node2_rows, "no data lost");

    let grand_total = cluster
        .read(
            1,
            "metrics",
            &Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "requests"),
                Aggregation::new(AggFn::Sum, "errors"),
            ])
            .grouped_by("service"),
            At::Latest,
        )
        .expect("final query");
    println!("\nfinal per-service totals:");
    for (service, values) in &grand_total.rows {
        println!(
            "  {:<5} requests={:<7} errors={}",
            service[0], values[0], values[1]
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
