//! The merge-oracle corpus: pinned seeded schedules proving the
//! [`cubrick::AggState`] merge algebra — any partition of the brick
//! set, merged in any order and association, finalizes bit-identically
//! to the single-pass reference — plus the meta-tests that give the
//! oracle its teeth: the AVG mean-of-means trap and deliberately
//! corrupted snapshot-memo entries.
//!
//! A failing seed is minimized and dumped automatically; rerun it with
//! `AOSI_SEEDS=<seed> cargo test -p oracle --test agg_oracle env_seeds`
//! or replay the artifact with
//! `AOSI_REPLAY=<file> cargo test -p oracle --test corpus env_replay`.

use aosi::Snapshot;
use columnar::Value;
use cubrick::{AggFn, Aggregation, Query};
use oracle::scan::scan_engine;
use oracle::{check_seed, compare_paths, seeds, Agg};
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
/// final sweep runs the window twice with fresh plans.
#[test]
fn agg_corpus_pinned_seeds() {
    let mut comparisons = 0u64;
    let mut partials = 0u64;
    for seed in 1..=44u64 {
        let report = check_seed(&Agg, seed, &cfg());
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

/// `AOSI_SEEDS=7,99` runs extra seeds (the nightly sweep and the
/// red-CI rerun path).
#[test]
fn env_seeds() {
    for seed in seeds(&[]) {
        let report = check_seed(&Agg, seed, &cfg());
        eprintln!(
            "merge oracle seed {seed}: clean ({} comparisons)",
            report.comparisons
        );
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

/// Meta-test: a corrupted memo entry MUST be caught by the
/// differential compare. Sweeps the battery until every shard serves
/// it from the snapshot memo, nudges every memoized state in place
/// without touching keys — what a missed invalidation or a torn write
/// would look like — and demands the fast-vs-reference diff notice.
#[test]
fn corrupted_memo_is_caught_by_the_oracle() {
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
    for pass in ["first sighting", "admission", "memo hit"] {
        compare_paths(&engine, &snapshot, None, pass).expect("clean engine must agree");
    }
    let stats = engine.agg_cache_stats().unwrap();
    assert!(stats.hits > 0, "the third pass was not served by the memo");
    engine.corrupt_memo_for_test();
    let divergence = compare_paths(&engine, &snapshot, None, "stale")
        .expect_err("oracle failed to catch a corrupted memo entry");
    assert!(
        divergence.detail.contains("differs from"),
        "unexpected divergence shape: {divergence}"
    );
    // Sanity: the corruption really was replayed from the memo.
    let after = engine.agg_cache_stats().unwrap();
    assert!(after.hits > stats.hits, "corrupted entries were not read");
}
