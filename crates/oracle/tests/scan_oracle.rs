//! The scan-path oracle corpus: 100+ pinned seeded schedules, each
//! proving the parallel + aggregate-cached scan executor (vectorized
//! kernel over visible ranges) byte-identical to the sequential
//! uncached reference (row-at-a-time kernel over visibility bitmaps)
//! at every committed snapshot. The meta-tests that corrupt the cache
//! and demand the comparator notice live in `agg_oracle.rs`.
//!
//! A red run here means the fast scan path (shard fan-out, the ranges
//! kernel, or a cached brick partial) disagreed with the slow path on
//! the same engine state. Reproduce a failing seed with
//! `AOSI_SCAN_SEEDS=<seed> cargo test -p oracle --test scan_oracle`.

use cubrick::DimStorage;
use oracle::scan::run_scan_schedule_with;
use workload::ops::{GenConfig, Schedule};

/// Shorter schedules than the MVCC oracle's default: each seed's
/// work is doubled by the warm-cache sweep, and 100+ seeds must stay
/// CI-friendly. Density of mutation/check interleavings matters more
/// than schedule length for cache-staleness bugs.
fn cfg() -> GenConfig {
    GenConfig {
        ops: 40,
        slots: 3,
        max_batch: 6,
    }
}

fn check_scan_seed(seed: u64) -> oracle::ScanReport {
    let schedule = Schedule::generate(seed, &cfg());
    // Every third seed runs on bess-packed bricks, so the corpus
    // exercises the kernels' gather fallback as well as the
    // per-dimension slice fast path.
    let storage = if seed % 3 == 0 {
        DimStorage::Bess
    } else {
        DimStorage::Plain
    };
    match run_scan_schedule_with(&schedule, storage) {
        Ok(report) => report,
        Err(divergence) => panic!(
            "scan oracle diverged on seed {seed} ({storage:?}): {divergence}\n\
             reproduce: AOSI_SCAN_SEEDS={seed} cargo test -p oracle --test scan_oracle"
        ),
    }
}

/// 104 pinned seeds. Every schedule ends with a full-window sweep run
/// cold and then warm, so each seed validates both the parallel merge
/// order and cache coherence across its whole epoch history.
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
    // hit the cache and fanned scans out, or the oracle is vacuous.
    assert!(cache_hits > 0, "corpus never hit the aggregate cache");
    assert!(parallel_tasks > 0, "corpus never took the parallel path");
    eprintln!(
        "scan oracle: 104 seeds, {comparisons} comparisons, \
         {cache_hits} cache hits"
    );
}

/// `AOSI_SCAN_SEEDS=7,99` replays extra seeds (the red-CI hook).
#[test]
fn env_scan_seeds_replay() {
    let Ok(spec) = std::env::var("AOSI_SCAN_SEEDS") else {
        return;
    };
    for part in spec.split([',', ' ']).filter(|s| !s.is_empty()) {
        let seed: u64 = part
            .parse()
            .unwrap_or_else(|e| panic!("bad seed {part:?} in AOSI_SCAN_SEEDS: {e}"));
        let report = check_scan_seed(seed);
        eprintln!(
            "scan oracle seed {seed}: clean ({} comparisons)",
            report.comparisons
        );
    }
}
