//! The merge-oracle corpus: pinned seeded schedules proving the
//! [`cubrick::AggState`] merge algebra — any partition of the brick
//! set, merged in any order and association, finalizes bit-identically
//! to the single-pass reference — plus the meta-tests that give the
//! oracle its teeth: the AVG mean-of-means trap and a deliberately
//! corrupted aggregate cache.
//!
//! Reproduce a failing seed with
//! `AOSI_AGG_SEEDS=<seed> cargo test -p oracle --test agg_oracle`.

use aosi::Snapshot;
use columnar::Value;
use cubrick::{AggFn, Aggregation, Query};
use oracle::agg::{check_agg_seed, replay_agg_artifact};
use oracle::scan::{compare_paths, scan_engine};
use workload::ops::{GenConfig, ORACLE_CUBE};

/// Shorter schedules than the scan oracle's: every checkpoint runs
/// the full battery times five merge plans, so per-seed work is ~5x a
/// scan-oracle seed and the corpus must stay CI-friendly.
fn cfg() -> GenConfig {
    GenConfig {
        ops: 24,
        slots: 3,
        max_batch: 6,
    }
}

/// 44 pinned seeds — the per-push merge corpus. Every schedule's
/// checkpoints re-merge the per-brick partials through forward,
/// reversed, and three seeded partition/association plans, and the
/// final sweep runs the window twice so cached partial replays are
/// re-merged too.
#[test]
fn agg_corpus_pinned_seeds() {
    let mut comparisons = 0u64;
    let mut partials = 0u64;
    for seed in 1..=44u64 {
        let report = check_agg_seed(seed, &cfg());
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
        comparisons += report.comparisons;
        partials += report.partials_folded;
    }
    // The corpus as a whole must have folded multi-brick partial
    // sets, or the associativity properties were vacuous.
    assert!(
        partials > comparisons,
        "corpus averaged under one partial per comparison"
    );
    eprintln!("merge oracle: 44 seeds, {comparisons} comparisons, {partials} partials folded");
}

/// `AOSI_AGG_SEEDS=7,99` replays extra seeds (the red-CI hook).
#[test]
fn env_agg_seeds_replay() {
    let Ok(spec) = std::env::var("AOSI_AGG_SEEDS") else {
        return;
    };
    for part in spec.split([',', ' ']).filter(|s| !s.is_empty()) {
        let seed: u64 = part
            .parse()
            .unwrap_or_else(|e| panic!("bad seed {part:?} in AOSI_AGG_SEEDS: {e}"));
        let report = check_agg_seed(seed, &cfg());
        eprintln!(
            "merge oracle seed {seed}: clean ({} comparisons)",
            report.comparisons
        );
    }
}

/// `AOSI_AGG_REPLAY=/path/a.seed,/path/b.seed` replays dumped
/// artifacts byte-for-byte.
#[test]
fn env_agg_artifact_replay() {
    let Ok(spec) = std::env::var("AOSI_AGG_REPLAY") else {
        return;
    };
    for path in spec.split(',').filter(|s| !s.is_empty()) {
        match replay_agg_artifact(std::path::Path::new(path)) {
            Ok(report) => eprintln!(
                "artifact {path}: clean ({} comparisons)",
                report.comparisons
            ),
            Err(divergence) => panic!("artifact {path} still diverges: {divergence}"),
        }
    }
}

/// AVG merge must combine `(sum, count)` pairs, not averaged doubles.
/// Two chunks with asymmetric row counts: chunk A holds three zeros,
/// chunk B one ten. True mean = 10/4 = 2.5; mean-of-means = (0+10)/2
/// = 5. If the merge ever degrades to finalized averages, this fails.
#[test]
fn avg_merge_combines_sum_count_not_means() {
    let engine = scan_engine();
    // "day" routes bricks: days 0-3 land in one brick, 8-11 another
    // (oracle schema buckets days by 4). Three rows score 0 in one
    // brick, one row score 10 in the other.
    let rows: Vec<Vec<Value>> = vec![
        vec![
            Value::from("r0"),
            Value::I64(0),
            Value::I64(1),
            Value::F64(0.0),
        ],
        vec![
            Value::from("r0"),
            Value::I64(1),
            Value::I64(1),
            Value::F64(0.0),
        ],
        vec![
            Value::from("r0"),
            Value::I64(2),
            Value::I64(1),
            Value::F64(0.0),
        ],
        vec![
            Value::from("r0"),
            Value::I64(9),
            Value::I64(1),
            Value::F64(10.0),
        ],
    ];
    engine.load(ORACLE_CUBE, &rows, 0).unwrap();
    let snapshot = Snapshot::committed(engine.manager().lce());
    let query = Query::aggregate(vec![Aggregation::new(AggFn::Avg, "score")]);
    let partials = engine
        .query_brick_partials(ORACLE_CUBE, &query, &snapshot)
        .unwrap();
    assert!(
        partials.len() >= 2,
        "rows must spread across bricks for the two-chunk regression"
    );
    // The naive merge: finalize each chunk separately, average the
    // averages. Guard that the workload actually makes it wrong.
    let chunk_means: Vec<f64> = partials
        .iter()
        .map(|p| {
            engine
                .finalize_partials(ORACLE_CUBE, &query, std::iter::once(p.clone()))
                .unwrap()
                .rows[0]
                .1[0]
        })
        .filter(|m| !m.is_nan())
        .collect();
    let mean_of_means: f64 = chunk_means.iter().sum::<f64>() / chunk_means.len() as f64;
    let merged = engine
        .finalize_partials(ORACLE_CUBE, &query, partials)
        .unwrap();
    assert_eq!(merged.rows[0].1[0], 2.5, "true mean of 0,0,0,10");
    assert_ne!(
        merged.rows[0].1[0], mean_of_means,
        "workload no longer distinguishes sum/count from mean-of-means"
    );
    let reference = engine
        .query_at_reference(ORACLE_CUBE, &query, &snapshot)
        .unwrap();
    assert_eq!(
        merged.rows[0].1[0].to_bits(),
        reference.rows[0].1[0].to_bits()
    );
}

/// Meta-test: a corrupted cached aggregate partial MUST be caught by
/// the differential compare. Warms the aggregate cache, nudges every
/// cached state in place without touching keys — what a missed
/// invalidation or a torn write would look like — and demands the
/// fast-vs-reference diff notice.
#[test]
fn corrupted_agg_cache_is_caught_by_the_oracle() {
    let engine = scan_engine();
    let rows: Vec<Vec<Value>> = (0..24)
        .map(|i| {
            vec![
                Value::from(format!("r{}", i % 4).as_str()),
                Value::from(i % 16),
                Value::from(i),
                Value::from(0.5),
            ]
        })
        .collect();
    engine.load(ORACLE_CUBE, &rows, 0).unwrap();
    let snapshot = Snapshot::committed(engine.manager().lce());
    compare_paths(&engine, &snapshot, None, "warm-up").expect("clean engine must agree");
    let stats = engine.agg_cache_stats().unwrap();
    assert!(stats.entries > 0, "warm-up left the aggregate cache empty");
    engine.corrupt_agg_cache_for_test();
    let divergence = compare_paths(&engine, &snapshot, None, "stale")
        .expect_err("oracle failed to catch a corrupted aggregate partial");
    assert!(
        divergence.detail.contains("differs from"),
        "unexpected divergence shape: {divergence}"
    );
    // Sanity: the corruption really was replayed from the cache.
    let after = engine.agg_cache_stats().unwrap();
    assert!(after.hits > stats.hits, "corrupted partials were not read");
}

/// The meta-test's dual: after the same corruption, invalidation (a
/// mutating load) must purge the poisoned partials so the engine
/// returns to agreement — aggregate-cache staleness cannot outlive
/// the next mutation of the brick.
#[test]
fn invalidation_heals_a_corrupted_agg_cache() {
    let engine = scan_engine();
    let rows: Vec<Vec<Value>> = (0..24)
        .map(|i| {
            vec![
                Value::from(format!("r{}", i % 4).as_str()),
                Value::from(i % 16),
                Value::from(i),
                Value::from(0.5),
            ]
        })
        .collect();
    engine.load(ORACLE_CUBE, &rows, 0).unwrap();
    let snapshot = Snapshot::committed(engine.manager().lce());
    compare_paths(&engine, &snapshot, None, "warm-up").unwrap();
    engine.corrupt_agg_cache_for_test();
    // Touch every loaded brick again: append invalidates their keys.
    engine.load(ORACLE_CUBE, &rows, 0).unwrap();
    compare_paths(&engine, &snapshot, None, "healed")
        .expect("invalidation must evict corrupted partials");
}
