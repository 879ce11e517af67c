//! Ablations of the design choices DESIGN.md calls out.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

use aosi::{Snapshot, TxnManager};
use columnar::Value;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cubrick::{Brick, CubeSchema, Dimension, Metric, RecordChunk, ShardPool};
use mvcc_baseline::{LockManager, LockMode};
use parking_lot::Mutex;

fn schema() -> CubeSchema {
    CubeSchema::new(
        "t",
        vec![Dimension::int("k", 64, 4)],
        vec![Metric::int("m")],
    )
    .unwrap()
}

/// One record as `RecordChunk::from_rows` takes it.
type Rec = (Vec<u32>, Vec<Value>);

/// Record `i` and the brick it is appended to.
fn record(i: u64) -> (u64, Rec) {
    (i % 16, (vec![(i % 64) as u32], vec![Value::I64(i as i64)]))
}

/// Ablation: bid-sharded single-writer queues (the paper's design)
/// vs. a mutex per brick, under 4 concurrent appenders.
///
/// Two shapes per model: `per_record` enqueues/locks once per record
/// (isolating raw per-operation overhead — the queue loses this on
/// purpose), and `batched` groups 100 records per brick operation,
/// which is what the engine's flush step actually does with a parsed
/// request.
fn bench_shard_vs_mutex(c: &mut Criterion) {
    const APPENDS_PER_THREAD: u64 = 2_000;
    const THREADS: u64 = 4;
    let mut group = c.benchmark_group("append_concurrency_model");
    group.sample_size(10);
    group.throughput(Throughput::Elements(APPENDS_PER_THREAD * THREADS));

    group.bench_function("sharded_single_writer_batched", |b| {
        b.iter(|| {
            let pool = ShardPool::new(4);
            let schema = schema();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let pool = &pool;
                    let schema = schema.clone();
                    scope.spawn(move || {
                        // Group 100 records per brick op, like the
                        // engine's per-bid flush batches.
                        let mut by_bid: std::collections::HashMap<u64, Vec<Rec>> =
                            std::collections::HashMap::new();
                        for i in 0..APPENDS_PER_THREAD {
                            let (bid, rec) = record(t * APPENDS_PER_THREAD + i);
                            by_bid.entry(bid).or_default().push(rec);
                            if i % 100 == 99 {
                                for (bid, recs) in by_bid.drain() {
                                    let schema = schema.clone();
                                    pool.submit(pool.shard_of(bid), move |bricks| {
                                        bricks
                                            .entry("t".into())
                                            .or_default()
                                            .entry(bid)
                                            .or_insert_with(|| Brick::new(&schema))
                                            .append(1, &RecordChunk::from_rows(&recs));
                                    });
                                }
                            }
                        }
                    });
                }
            });
            pool.drain();
            black_box(pool.num_shards())
        })
    });

    group.bench_function("mutex_per_brick_batched", |b| {
        b.iter(|| {
            let schema = schema();
            let bricks: Vec<Arc<Mutex<Brick>>> = (0..16)
                .map(|_| Arc::new(Mutex::new(Brick::new(&schema))))
                .collect();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let bricks = &bricks;
                    scope.spawn(move || {
                        let mut by_bid: std::collections::HashMap<u64, Vec<Rec>> =
                            std::collections::HashMap::new();
                        for i in 0..APPENDS_PER_THREAD {
                            let (bid, rec) = record(t * APPENDS_PER_THREAD + i);
                            by_bid.entry(bid).or_default().push(rec);
                            if i % 100 == 99 {
                                for (bid, recs) in by_bid.drain() {
                                    bricks[bid as usize]
                                        .lock()
                                        .append(1, &RecordChunk::from_rows(&recs));
                                }
                            }
                        }
                    });
                }
            });
            black_box(bricks.len())
        })
    });

    group.bench_function("sharded_single_writer_per_record", |b| {
        b.iter(|| {
            let pool = ShardPool::new(4);
            let schema = schema();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let pool = &pool;
                    let schema = schema.clone();
                    scope.spawn(move || {
                        for i in 0..APPENDS_PER_THREAD {
                            let (bid, rec) = record(t * APPENDS_PER_THREAD + i);
                            let schema = schema.clone();
                            pool.submit(pool.shard_of(bid), move |bricks| {
                                bricks
                                    .entry("t".into())
                                    .or_default()
                                    .entry(bid)
                                    .or_insert_with(|| Brick::new(&schema))
                                    .append(1, &RecordChunk::from_rows(&[rec]));
                            });
                        }
                    });
                }
            });
            pool.drain();
            black_box(pool.num_shards())
        })
    });

    group.bench_function("mutex_per_brick_per_record", |b| {
        b.iter(|| {
            let schema = schema();
            let bricks: Vec<Arc<Mutex<Brick>>> = (0..16)
                .map(|_| Arc::new(Mutex::new(Brick::new(&schema))))
                .collect();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let bricks = &bricks;
                    scope.spawn(move || {
                        for i in 0..APPENDS_PER_THREAD {
                            let (bid, rec) = record(t * APPENDS_PER_THREAD + i);
                            bricks[bid as usize]
                                .lock()
                                .append(1, &RecordChunk::from_rows(&[rec]));
                        }
                    });
                }
            });
            black_box(bricks.len())
        })
    });
    group.finish();
}

/// Ablation: AOSI's lock-free reads vs. a 2PL read path that takes a
/// shared lock per partition per scan.
fn bench_lock_free_vs_2pl_scan(c: &mut Criterion) {
    const PARTITIONS: u64 = 64;
    let mut brick = Brick::new(&schema());
    let records: Vec<Rec> = (0..10_000).map(|i| record(i).1).collect();
    brick.append(1, &RecordChunk::from_rows(&records));
    let snapshot = Snapshot::committed(1);

    let mut group = c.benchmark_group("scan_locking_ablation");
    group.bench_function("aosi_lock_free", |b| {
        b.iter(|| {
            let mut visible = 0usize;
            for _ in 0..PARTITIONS {
                visible += brick.visibility(&snapshot).count_ones();
            }
            black_box(visible)
        })
    });
    group.bench_function("2pl_shared_locks", |b| {
        let lm = LockManager::new();
        let mut txn_id = 0u64;
        b.iter(|| {
            txn_id += 1;
            let mut visible = 0usize;
            for p in 0..PARTITIONS {
                assert!(lm.acquire(txn_id, p, LockMode::Shared));
                visible += brick.visibility(&snapshot).count_ones();
            }
            lm.release_all(txn_id);
            black_box(visible)
        })
    });
    group.finish();
}

/// Ablation: the delayed-LCE rule (RO begin = one atomic load) vs.
/// an eager-LCE design where every RO transaction must snapshot the
/// pending set into a deps structure.
fn bench_lce_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ro_begin_lce_policy");
    for pending in [4usize, 256] {
        let mgr = TxnManager::single_node();
        let held: Vec<_> = (0..pending).map(|_| mgr.begin_rw()).collect();
        group.bench_with_input(BenchmarkId::new("delayed_lce", pending), &mgr, |b, mgr| {
            b.iter(|| black_box(mgr.begin_ro().epoch()))
        });
        group.bench_with_input(
            BenchmarkId::new("eager_lce_with_deps", pending),
            &mgr,
            |b, mgr| {
                b.iter(|| {
                    // What RO begin would cost if LCE advanced eagerly:
                    // capture the pending set as deps, like RW begin.
                    let epoch = mgr.clock().current_ec();
                    let deps: BTreeSet<u64> = mgr
                        .pending_txs()
                        .into_iter()
                        .filter(|&d| d < epoch)
                        .collect();
                    black_box(Snapshot::new(epoch, deps).epoch())
                })
            },
        );
        drop(held);
    }
    group.finish();
}

/// Ablation: bess-packed vs. plain dimension storage — scan cost and
/// footprint for a low-cardinality 5-dimension schema.
fn bench_bess_vs_plain(c: &mut Criterion) {
    use cubrick::DimStorage;
    let schema = CubeSchema::new(
        "t",
        vec![
            Dimension::int("a", 8, 2),
            Dimension::int("b", 4, 1),
            Dimension::int("c", 64, 8),
            Dimension::int("d", 24, 24),
            Dimension::int("e", 256, 64),
        ],
        vec![Metric::int("m")],
    )
    .unwrap();
    let records: Vec<Rec> = (0..100_000u64)
        .map(|i| {
            (
                vec![
                    (i % 8) as u32,
                    (i % 4) as u32,
                    (i % 64) as u32,
                    (i % 24) as u32,
                    (i % 256) as u32,
                ],
                vec![Value::I64(i as i64)],
            )
        })
        .collect();
    let records = RecordChunk::from_rows(&records);
    let mut group = c.benchmark_group("dim_storage_ablation");
    for (name, storage) in [("plain", DimStorage::Plain), ("bess", DimStorage::Bess)] {
        let mut brick = Brick::with_storage(&schema, storage);
        brick.append(1, &records);
        println!(
            "dim_storage_ablation/{name}: {} data bytes for 100k rows",
            brick.memory().data_bytes
        );
        group.bench_function(format!("scan_{name}"), |b| {
            b.iter(|| {
                // Touch every dimension of every row (a filter +
                // group-by over all five dimensions).
                let mut acc = 0u64;
                for row in 0..brick.row_count() as usize {
                    for dim in 0..5 {
                        acc = acc.wrapping_add(brick.dim_value(dim, row) as u64);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// Ablation: rollback cost with and without the Section III-C5
/// transaction-to-partition index, on an engine holding many bricks
/// of which the aborted transaction touched only one.
fn bench_rollback_index(c: &mut Criterion) {
    use columnar::Row;
    use cubrick::Engine;

    fn build(indexed: bool) -> Engine {
        let engine = if indexed {
            Engine::new(2).with_rollback_index()
        } else {
            Engine::new(2)
        };
        engine
            .create_cube(
                CubeSchema::new(
                    "t",
                    vec![Dimension::int("k", 4096, 8)],
                    vec![Metric::int("m")],
                )
                .unwrap(),
            )
            .unwrap();
        // Materialize ~512 bricks of committed history.
        let rows: Vec<Row> = (0..4096)
            .map(|i| vec![Value::I64(i), Value::I64(1)])
            .collect();
        engine.load("t", &rows, 0).unwrap();
        engine
    }

    let mut group = c.benchmark_group("rollback_partition_index");
    group.sample_size(20);
    for (name, indexed) in [("full_scan", false), ("indexed", true)] {
        let engine = build(indexed);
        group.bench_function(name, |b| {
            b.iter(|| {
                let txn = engine.begin();
                engine
                    .append("t", &[vec![Value::I64(7), Value::I64(1)]], &txn)
                    .unwrap();
                black_box(engine.rollback(&txn).unwrap())
            })
        });
    }
    group.finish();
}

/// Skew sensitivity: uniform vs. Zipf-skewed keys through the full
/// single-node load path. Skew concentrates appends on few bricks —
/// the single-writer shards serialize them — while uniform spreads
/// across shards.
fn bench_load_skew(c: &mut Criterion) {
    use cubrick::Engine;
    use workload::{Dataset, SingleColumnDataset, SkewedDataset};

    let mut group = c.benchmark_group("load_skew_sensitivity");
    group.sample_size(10);
    group.throughput(Throughput::Elements(20_000));

    let uniform = SingleColumnDataset::default();
    let skewed = SkewedDataset::new(1.2);
    let run = |b: &mut criterion::Bencher,
               schema: cubrick::CubeSchema,
               batches: &Vec<Vec<columnar::Row>>| {
        b.iter_with_setup(
            || {
                let engine = Engine::new(4);
                engine.create_cube(schema.clone()).unwrap();
                engine
            },
            |engine| {
                let name = schema.name.clone();
                for batch in batches {
                    engine.load(&name, batch, 0).unwrap();
                }
                black_box(engine.memory().rows)
            },
        )
    };
    let uniform_batches: Vec<_> = (0..4).map(|b| uniform.batch(3, b, 5000)).collect();
    group.bench_function("uniform", |b| run(b, uniform.schema(), &uniform_batches));
    let skewed_batches: Vec<_> = (0..4).map(|b| skewed.batch(3, b, 5000)).collect();
    group.bench_function("zipf_1.2", |b| run(b, skewed.schema(), &skewed_batches));
    group.finish();
}

criterion_group!(
    benches,
    bench_shard_vs_mutex,
    bench_lock_free_vs_2pl_scan,
    bench_lce_policy,
    bench_bess_vs_plain,
    bench_rollback_index,
    bench_load_skew
);
criterion_main!(benches);
