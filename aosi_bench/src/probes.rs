//! Micro-probes of single public functions, run in the traced pass of
//! every workload: the visibility builders, the transaction manager's
//! begin/commit pair, and the shard pool's dispatch floor.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use aosi::{visibility, EpochsVector, Snapshot, TxnManager};
use cubrick::ShardPool;

use crate::common::{ratio, shard_count, us};
use crate::report::Metrics;
use crate::stats::Samples;

/// Entries per synthetic epochs vector, crossed with [`DEPS`].
const ENTRIES: [u64; 3] = [16, 1024, 4096];
/// Pending transactions the snapshot must skip.
const DEPS: [u64; 2] = [0, 256];
const VISIBILITY_ROUNDS: usize = 200;
const CALLS: usize = 2000;

pub fn run(metrics: &mut Metrics) {
    // Visibility: one epoch per entry, 8 rows each; the snapshot reads
    // at the newest epoch and skips `deps` of the older ones.
    let (mut bitmap_ns, mut ranges_ns, mut entries_seen) = (0.0, 0.0, 0.0);
    for entries in ENTRIES {
        let mut vector = EpochsVector::new();
        for epoch in 1..=entries {
            vector.append(epoch, 8);
        }
        for deps in DEPS {
            let deps: BTreeSet<u64> = (1..entries)
                .step_by((entries / deps.max(1)).max(1) as usize)
                .take(deps as usize)
                .collect();
            let snapshot = Snapshot::new(entries, deps);
            let started = Instant::now();
            for _ in 0..VISIBILITY_ROUNDS {
                black_box(visibility::visible_bitmap(black_box(&vector), &snapshot));
            }
            bitmap_ns += started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            for _ in 0..VISIBILITY_ROUNDS {
                black_box(visibility::visible_ranges(black_box(&vector), &snapshot));
            }
            ranges_ns += started.elapsed().as_nanos() as f64;
            entries_seen += (entries as usize * VISIBILITY_ROUNDS) as f64;
        }
    }
    metrics.set(
        "aosi.visible_bitmap_ns_per_entry",
        ratio(bitmap_ns, entries_seen),
    );
    metrics.set(
        "aosi.visible_ranges_ns_per_entry",
        ratio(ranges_ns, entries_seen),
    );

    // begin_rw + commit, alone and behind 256 held-open transactions.
    let mut begin_commit = Samples::new();
    for pending in DEPS {
        let manager = TxnManager::single_node();
        let held: Vec<_> = (0..pending).map(|_| manager.begin_rw()).collect();
        for _ in 0..CALLS {
            let started = Instant::now();
            let txn = manager.begin_rw();
            manager.commit(&txn).expect("commit");
            begin_commit.push(us(started.elapsed()));
        }
        for txn in &held {
            manager.commit(txn).expect("commit held");
        }
    }
    metrics.set(
        "aosi.begin_commit_us_p50",
        begin_commit.percentile_or_zero(50.0),
    );

    // An empty task to every shard and back: what any query pays
    // before a brick is touched.
    let pool = ShardPool::new(shard_count());
    let mut noop = Samples::new();
    for _ in 0..CALLS {
        let started = Instant::now();
        black_box(pool.map_shards(|_| Box::new(|_| ())));
        noop.push(us(started.elapsed()));
    }
    metrics.set(
        "shard.noop_map_shards_us_p50",
        noop.percentile_or_zero(50.0),
    );
}
