//! The scan-path oracle corpus: 100+ pinned seeded schedules, each
//! proving the parallel + memoized scan executor (vectorized kernel
//! over visible ranges) byte-identical to the sequential reference
//! (row-at-a-time kernel over visibility bitmaps) at every committed
//! snapshot. The meta-test that corrupts the memo and demands the
//! comparator notice lives in `agg_oracle.rs`.
//!
//! A red run here means the fast scan path (shard fan-out, the ranges
//! kernel, or a memoized shard answer) disagreed with the slow path on
//! the same engine state. The failing schedule is minimized and dumped
//! automatically; rerun it with
//! `AOSI_SEEDS=<seed> cargo test -p oracle --test scan_oracle env_seeds`
//! or replay the artifact with
//! `AOSI_REPLAY=<file> cargo test -p oracle --test corpus env_replay`.

use cubrick::DimStorage;
use oracle::{check_seed, seeds, Scan, ScanReport};
use workload::ops::GenConfig;

/// Shorter schedules than the MVCC oracle's default: each seed's
/// work is tripled by the memo sweep, and 100+ seeds must stay
/// CI-friendly. Density of mutation/check interleavings matters more
/// than schedule length for staleness bugs.
fn cfg() -> GenConfig {
    GenConfig {
        ops: 40,
        slots: 3,
        max_batch: 6,
    }
}

fn check_scan_seed(seed: u64) -> ScanReport {
    // Every third seed runs on bess-packed bricks, so the corpus
    // exercises the kernels' gather fallback as well as the
    // per-dimension slice fast path.
    let storage = if seed % 3 == 0 {
        DimStorage::Bess
    } else {
        DimStorage::Plain
    };
    check_seed(&Scan { storage }, seed, &cfg())
}

/// 104 pinned seeds. Every schedule ends with a full-window sweep run
/// until the memo answers it, so each seed validates both the
/// parallel merge order and memo coherence across its whole epoch
/// history.
#[test]
fn scan_corpus_pinned_seeds() {
    let mut comparisons = 0u64;
    let mut cache_hits = 0u64;
    let mut parallel_tasks = 0u64;
    for seed in 1..=104u64 {
        let report = check_scan_seed(seed);
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
        comparisons += report.comparisons;
        cache_hits += report.cache_hits;
        parallel_tasks += report.parallel_tasks;
    }
    // Aggregate proofs-of-exercise: the corpus as a whole must have
    // hit the memo and fanned scans out, or the oracle is vacuous.
    assert!(cache_hits > 0, "corpus never hit the snapshot memo");
    assert!(parallel_tasks > 0, "corpus never took the parallel path");
    eprintln!(
        "scan oracle: 104 seeds, {comparisons} comparisons, \
         {cache_hits} memo hits"
    );
}

/// `AOSI_SEEDS=7,99` runs extra seeds (the red-CI rerun path).
#[test]
fn env_seeds() {
    for seed in seeds(&[]) {
        let report = check_scan_seed(seed);
        eprintln!(
            "scan oracle seed {seed}: clean ({} comparisons)",
            report.comparisons
        );
    }
}
