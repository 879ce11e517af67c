//! Baseline-system microbenchmarks: the Hive-ACID delta-merge cost,
//! MVCC vacuum vs. AOSI purge, ingest parsing, and the WAL codec.

use std::hint::black_box;

use columnar::{ColumnType, Field, Schema, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cubrick::{parse_rows, CubeSchema, Dimension, Metric};
use mvcc_baseline::{HiveAcidTable, MvccStore, MvccTxnManager};

const ROWS: u64 = 100_000;

/// Hive-style query-time merging: the same 100k rows, scanned with a
/// growing number of outstanding delta files, then compacted. AOSI's
/// single-version layout has no analogue of this curve.
fn bench_hive_delta_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("hive_delta_merge_scan");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ROWS));
    for deltas in [1u64, 64, 1024] {
        let mut table = HiveAcidTable::new(Schema::new(vec![
            Field::new("k", ColumnType::I64),
            Field::new("v", ColumnType::I64),
        ]));
        let per_delta = ROWS / deltas;
        for d in 0..deltas {
            let rows: Vec<_> = (0..per_delta)
                .map(|i| vec![Value::I64((d * per_delta + i) as i64), Value::I64(1)])
                .collect();
            // Each delta also deletes one row of the previous delta —
            // updates/deletes are why the delta files exist at all,
            // and the growing delete set is what query-time merging
            // pays for.
            let deletes = if d > 0 { vec![(d as u32, 0)] } else { vec![] };
            table.write_txn(rows, deletes);
        }
        group.bench_with_input(BenchmarkId::new("uncompacted", deltas), &deltas, |b, _| {
            b.iter(|| black_box(table.aggregate_sum(1).0))
        });
        table.compact();
        group.bench_with_input(BenchmarkId::new("compacted", deltas), &deltas, |b, _| {
            b.iter(|| black_box(table.aggregate_sum(1).0))
        });
    }
    group.finish();
}

/// Garbage collection head-to-head: AOSI purge (entry compaction +
/// bitmap rebuild) vs. MVCC vacuum (per-row liveness checks + table
/// rewrite) over the same logical workload: N rows inserted, half
/// superseded.
fn bench_gc_purge_vs_vacuum(c: &mut Criterion) {
    let mut group = c.benchmark_group("garbage_collection");
    group.sample_size(10);

    group.bench_function("aosi_purge_100k_rows", |b| {
        b.iter_with_setup(
            || {
                let mut v = aosi::EpochsVector::new();
                for epoch in 1..=100u64 {
                    v.append(epoch, 1000);
                }
                v.mark_delete(50);
                v
            },
            |v| black_box(aosi::purge::purge(&v, 100).purged_rows),
        )
    });

    group.bench_function("mvcc_vacuum_100k_rows", |b| {
        b.iter_with_setup(
            || {
                let schema = Schema::new(vec![Field::new("v", ColumnType::I64)]);
                let mut store = MvccStore::new(schema, MvccTxnManager::new());
                let mut txn = store.manager().begin();
                let rows: Vec<usize> = (0..100_000)
                    .map(|i| store.insert(&mut txn, &vec![Value::I64(i)]))
                    .collect();
                store.commit(&mut txn).unwrap();
                let mut deleter = store.manager().begin();
                for &row in rows.iter().take(50_000) {
                    store.delete(&mut deleter, row).unwrap();
                }
                store.commit(&mut deleter).unwrap();
                store
            },
            |mut store| {
                let horizon = store.manager().latest();
                black_box(store.vacuum(horizon))
            },
        )
    });
    group.finish();
}

/// Ingest parse throughput (the CPU-only first pipeline stage).
fn bench_parse(c: &mut Criterion) {
    let schema = CubeSchema::new(
        "t",
        vec![
            Dimension::string("region", 8, 2),
            Dimension::int("day", 64, 8),
        ],
        vec![Metric::int("m0"), Metric::float("f0")],
    )
    .unwrap();
    let cube = cubrick::Cube::new(schema);
    let regions = ["us", "br", "mx", "in", "de", "jp", "gb", "fr"];
    let rows: Vec<columnar::Row> = (0..5000)
        .map(|i| {
            vec![
                Value::Str(regions[i % 8].to_owned()),
                Value::I64((i % 64) as i64),
                Value::I64(i as i64),
                Value::F64(0.5),
            ]
        })
        .collect();
    let mut group = c.benchmark_group("ingest_parse");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("parse_5000_row_batch", |b| {
        b.iter(|| {
            let batch = parse_rows(cube.schema(), cube.layout(), cube.dictionaries(), &rows);
            black_box(batch.accepted)
        })
    });
    group.finish();
}

/// WAL codec throughput: encoding/decoding one flush round of 50k
/// rows.
fn bench_wal_codec(c: &mut Criterion) {
    let records: Vec<(Vec<u32>, Vec<Value>)> = (0..50_000u64)
        .map(|i| {
            (
                vec![(i % 8) as u32, (i % 64) as u32],
                vec![Value::I64(i as i64), Value::F64(0.25)],
            )
        })
        .collect();
    let round = wal::FlushRound {
        lse: 0,
        lse_prime: 10,
        dictionaries: vec![],
        deltas: vec![cubrick::BrickDelta {
            cube: "t".into(),
            bid: 3,
            runs: vec![cubrick::DeltaRun::Insert {
                epoch: 5,
                records: cubrick::RecordChunk::from_rows(&records),
            }],
        }],
    };
    let encoded = wal::codec::encode(&round);
    let mut group = c.benchmark_group("wal_codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_50k_rows", |b| {
        b.iter(|| black_box(wal::codec::encode(&round).len()))
    });
    group.bench_function("decode_50k_rows", |b| {
        b.iter(|| black_box(wal::codec::decode(&encoded).unwrap().lse_prime))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hive_delta_merge,
    bench_gc_purge_vs_vacuum,
    bench_parse,
    bench_wal_codec
);
criterion_main!(benches);
