//! Cross-crate integration: the full stack — distributed engine,
//! protocol, persistence, recovery, baselines — working together.

use aosi_repro::cluster::{ReplicationTracker, SimulatedNetwork};
use aosi_repro::columnar::Value;
use aosi_repro::cubrick::{
    AggFn, Aggregation, At, CubeSchema, DimFilter, Dimension, DistributedEngine, Engine,
    IsolationMode, Metric, Query,
};
use aosi_repro::wal::{recover_into, FlushController};
use aosi_repro::workload::{Dataset, WideDataset};

fn schema() -> CubeSchema {
    CubeSchema::new(
        "events",
        vec![
            Dimension::string("region", 8, 2),
            Dimension::int("day", 32, 4),
        ],
        vec![Metric::int("likes")],
    )
    .unwrap()
}

fn row(region: &str, day: i64, likes: i64) -> Vec<Value> {
    vec![region.into(), Value::I64(day), Value::I64(likes)]
}

fn sum(engine: &DistributedEngine, origin: u64) -> f64 {
    engine
        .read(
            origin,
            "events",
            &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
            At::Latest,
        )
        .unwrap()
        .scalar()
        .unwrap_or(0.0)
}

#[test]
fn distributed_lifecycle_load_delete_purge() {
    let cluster = DistributedEngine::new(3, 2, SimulatedNetwork::instant());
    cluster.create_cube(schema()).unwrap();

    // Load from different coordinators.
    for (origin, day) in [(1u64, 0i64), (2, 5), (3, 10)] {
        let rows: Vec<_> = (0..50).map(|i| row("us", day, i)).collect();
        let outcome = cluster.load(origin, "events", &rows, 0).unwrap();
        assert_eq!(outcome.accepted, 50);
    }
    let expected: f64 = 3.0 * (0..50).sum::<i64>() as f64;
    for origin in 1..=3 {
        assert_eq!(sum(&cluster, origin), expected);
    }

    // Retention delete of the day-[4,8) partition range.
    let (_, marked) = cluster
        .delete_where(
            2,
            "events",
            &[DimFilter::new("day", (4..8).map(Value::from).collect())],
        )
        .unwrap();
    assert!(marked >= 1);
    let after_delete: f64 = 2.0 * (0..50).sum::<i64>() as f64;
    assert_eq!(sum(&cluster, 1), after_delete);

    // Purge physically reclaims once LSE advances everywhere.
    let stats = cluster.purge_all();
    assert_eq!(stats.rows_purged, 50);
    assert_eq!(cluster.memory().rows, 100);
    assert_eq!(sum(&cluster, 3), after_delete, "purge is invisible");
}

#[test]
fn flush_recover_node_preserves_its_shard_of_data() {
    let dir = std::env::temp_dir().join(format!("aosi-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cluster = DistributedEngine::new(2, 2, SimulatedNetwork::instant());
    cluster.create_cube(schema()).unwrap();
    let rows: Vec<_> = (0..200).map(|i| row("us", i % 32, 1)).collect();
    cluster.load(1, "events", &rows, 0).unwrap();

    let tracker = ReplicationTracker::new(2);
    let mut totals = 0u64;
    for node in 1..=2u64 {
        let mut ctl = FlushController::new(dir.join(format!("n{node}")), node).unwrap();
        ctl.flush_round(cluster.engine(node), &tracker).unwrap();
        let held = cluster.engine(node).memory().rows;
        let restored = Engine::new(2);
        restored.create_cube(schema()).unwrap();
        let report = recover_into(&dir.join(format!("n{node}")), &restored).unwrap();
        assert_eq!(report.rows_recovered, held, "node {node}");
        totals += report.rows_recovered;
    }
    assert_eq!(totals, 200);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_distributed_loads_stay_transactionally_consistent() {
    let cluster = DistributedEngine::new(3, 2, SimulatedNetwork::instant());
    cluster.create_cube(schema()).unwrap();
    const BATCH: usize = 40;

    std::thread::scope(|scope| {
        for producer in 0..3u64 {
            let cluster = &cluster;
            scope.spawn(move || {
                for b in 0..20i64 {
                    let rows: Vec<_> = (0..BATCH).map(|_| row("br", b % 32, 1)).collect();
                    cluster.load(producer + 1, "events", &rows, 0).unwrap();
                }
            });
        }
        for reader in 0..2u64 {
            let cluster = &cluster;
            scope.spawn(move || {
                for _ in 0..30 {
                    let total = sum(cluster, reader + 1) as u64;
                    assert_eq!(total % BATCH as u64, 0, "snapshot observed a torn batch");
                }
            });
        }
    });
    assert_eq!(sum(&cluster, 1) as u64, 3 * 20 * BATCH as u64);
}

#[test]
fn aosi_and_mvcc_baseline_agree_on_visible_data() {
    use aosi_repro::columnar::{ColumnType, Field, Schema};
    use aosi_repro::mvcc_baseline::{MvccStore, MvccTxnManager};

    // The same insert-only history through both systems must expose
    // the same rows and the documented memory asymmetry.
    let engine = Engine::new(2);
    engine.create_cube(schema()).unwrap();
    let mut store = MvccStore::new(
        Schema::new(vec![
            Field::new("region", ColumnType::Str),
            Field::new("day", ColumnType::I64),
            Field::new("likes", ColumnType::I64),
        ]),
        MvccTxnManager::new(),
    );

    for batch in 0..10i64 {
        let rows: Vec<_> = (0..100).map(|i| row("mx", batch % 32, i)).collect();
        engine.load("events", &rows, 0).unwrap();
        let mut txn = store.manager().begin();
        for r in &rows {
            store.insert(&mut txn, r);
        }
        store.commit(&mut txn).unwrap();
    }

    let aosi_sum = engine
        .query(
            "events",
            &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
            IsolationMode::Snapshot,
        )
        .unwrap()
        .scalar()
        .unwrap();
    let (bitmap, stats) = store.scan_snapshot(store.manager().latest());
    let mvcc_sum = store.aggregate_sum(2, &bitmap);
    assert_eq!(aosi_sum, mvcc_sum);
    assert_eq!(stats.rows_visible, 1000);

    // The paper's memory claim, executable: identical data, wildly
    // different concurrency-control footprints.
    let aosi_meta = engine.memory().aosi_bytes;
    let mvcc_meta = store.metadata_bytes();
    assert!(
        mvcc_meta >= 16_000,
        "MVCC pays >= 16 B per record ({mvcc_meta})"
    );
    assert!(
        aosi_meta < mvcc_meta / 4,
        "AOSI ({aosi_meta} B) must be far below MVCC ({mvcc_meta} B)"
    );
}

#[test]
fn workload_dataset_runs_through_the_distributed_stack() {
    let cluster = DistributedEngine::new(2, 2, SimulatedNetwork::instant());
    let dataset = WideDataset::default();
    cluster.create_cube(dataset.schema()).unwrap();
    let outcome = cluster
        .load(1, "wide", &dataset.batch(3, 0, 2000), 0)
        .unwrap();
    assert_eq!(outcome.accepted, 2000);
    let result = cluster
        .read(
            2,
            "wide",
            &Query::aggregate(vec![Aggregation::new(AggFn::Count, "m0")]).grouped_by("region"),
            At::Latest,
        )
        .unwrap();
    let counted: f64 = result.rows.iter().map(|(_, v)| v[0]).sum();
    assert_eq!(counted, 2000.0);
}
