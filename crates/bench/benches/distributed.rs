//! Distributed-protocol microbenchmarks: begin/commit roundtrips,
//! ring routing, and bid packing.

use std::hint::black_box;

use cluster::{ProtocolCluster, Ring, SimulatedNetwork};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cubrick::bid::BidLayout;
use cubrick::{CubeSchema, Dimension, Metric};

/// Full distributed RW lifecycle (begin + broadcast + commit) vs.
/// cluster size, zero-latency wire — isolates protocol CPU cost.
fn bench_distributed_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_txn_lifecycle");
    for nodes in [1u64, 4, 16] {
        let cluster = ProtocolCluster::new(nodes, SimulatedNetwork::instant());
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &cluster,
            |b, cluster| {
                b.iter(|| {
                    let mut txn = cluster.begin_rw(1);
                    cluster.broadcast_begin(&mut txn, 64).unwrap();
                    cluster.commit(&txn).unwrap();
                    black_box(txn.epoch)
                })
            },
        );
    }
    group.finish();
}

/// RO begin never touches the network regardless of cluster size.
fn bench_distributed_ro(c: &mut Criterion) {
    let cluster = ProtocolCluster::new(16, SimulatedNetwork::instant());
    c.bench_function("distributed_begin_ro_16_nodes", |b| {
        b.iter(|| black_box(cluster.manager(1).begin_ro().epoch()))
    });
}

/// Consistent-hash routing of bids to nodes.
fn bench_ring_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_node_for");
    for nodes in [8u64, 64, 200] {
        let ring = Ring::new(nodes, 64);
        let mut key = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &ring, |b, ring| {
            b.iter(|| {
                key = key.wrapping_add(1);
                black_box(ring.node_for(key))
            })
        });
    }
    group.finish();
}

/// Bid packing for a 5-dimension schema (per ingested record).
fn bench_bid_packing(c: &mut Criterion) {
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
    let layout = BidLayout::new(&schema);
    let mut coords = [0u32; 5];
    c.bench_function("bid_for_coords_5_dims", |b| {
        b.iter(|| {
            coords[0] = (coords[0] + 1) % 8;
            coords[2] = (coords[2] + 3) % 64;
            coords[4] = (coords[4] + 7) % 256;
            black_box(layout.bid_for_coords(&coords))
        })
    });
}

criterion_group!(
    benches,
    bench_distributed_txn,
    bench_distributed_ro,
    bench_ring_routing,
    bench_bid_packing
);
criterion_main!(benches);
