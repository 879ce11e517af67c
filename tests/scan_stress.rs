//! Concurrency stress for the parallel + memoized scan path: writers
//! mutate (append / rollback / purge) while readers hammer repeated
//! `At::Epoch` reads through the per-shard snapshot memo, with the
//! online SI checker riding along.
//!
//! What this proves, beyond the single-threaded scan oracle:
//!
//! * **Read stability under concurrent writes** — two reads of the
//!   same epoch must fingerprint identically even while writers
//!   append, roll back and purge between them (the checker's `Read`
//!   events share a per-query key, so any instability is a reported
//!   violation).
//! * **Quiescent equivalence** — after the threads join, every epoch
//!   in `[LSE, LCE]` is compared against the sequential reference
//!   byte-for-byte, until the memo answers the sweep itself.
//! * **The memo is actually exercised** — the run asserts a nonzero
//!   hit count; a memo that never answers would pass equivalence
//!   checks vacuously.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aosi::Snapshot;
use checker::{SiChecker, TxnEvent};
use columnar::{Row, Value};
use cubrick::{At, CubrickError, Deliver, DimStorage, Engine, ScanConfig, ScanKernel};
use oracle::checks::{build_query, fingerprint, normalize, NUM_QUERIES};
use oracle::compare_paths;
use workload::ops::{oracle_schema, ORACLE_CUBE};

const NODE: u64 = 1;
const WRITERS: usize = 3;
const READERS: usize = 4;
const WRITES_PER_WRITER: usize = 40;
const READS_PER_READER: usize = 60;

fn gen_rows(writer: usize, round: usize) -> Vec<Row> {
    (0..4)
        .map(|k| {
            let i = writer * 1000 + round * 4 + k;
            vec![
                Value::from(format!("r{}", i % 4).as_str()),
                Value::from((i % 16) as i64),
                Value::from(i as i64),
                Value::from(0.25),
            ]
        })
        .collect()
}

#[test]
fn concurrent_writers_and_cached_readers_stay_si_consistent() {
    let engine = Arc::new(Engine::new(4));
    engine.create_cube(oracle_schema()).unwrap();
    let checker = Arc::new(SiChecker::new(NODE));
    // Seed data so the first readers have something cacheable.
    engine.load(ORACLE_CUBE, &gen_rows(99, 0), 0).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let engine = Arc::clone(&engine);
            let checker = Arc::clone(&checker);
            scope.spawn(move || {
                for round in 0..WRITES_PER_WRITER {
                    let txn = engine.begin();
                    checker.record(TxnEvent::Begin {
                        node: NODE,
                        epoch: txn.epoch(),
                        deps: txn.snapshot().deps().clone(),
                    });
                    let rows = gen_rows(writer, round);
                    let (accepted, rejected) = engine.append(ORACLE_CUBE, &rows, &txn).unwrap();
                    assert_eq!((accepted, rejected), (rows.len(), 0));
                    if round % 7 == 3 {
                        // Rollback: physically reclaims the rows
                        // before the LCE may pass their epoch.
                        engine.rollback(&txn).unwrap();
                        checker.record(TxnEvent::Rollback {
                            node: NODE,
                            epoch: txn.epoch(),
                        });
                    } else {
                        engine.commit(&txn).unwrap();
                        checker.record(TxnEvent::Commit {
                            node: NODE,
                            epoch: txn.epoch(),
                        });
                    }
                    if round % 11 == 10 {
                        // Purge compacts history (and rebuilds epochs
                        // vectors) under the readers' feet; read
                        // guards keep their epochs safe.
                        engine.advance_lse_and_purge();
                    }
                }
            });
        }
        for reader in 0..READERS {
            let engine = Arc::clone(&engine);
            let checker = Arc::clone(&checker);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for round in 0..READS_PER_READER {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Re-reading a recent epoch (rather than always
                    // the newest) is what repeats a memo key: the key
                    // (shape, epoch, deps) recurs until purge passes
                    // the epoch.
                    let lce = engine.manager().lce();
                    let epoch = lce.saturating_sub((round % 3) as u64).max(1);
                    let idx = (reader + round) % NUM_QUERIES;
                    match engine.read(
                        ORACLE_CUBE,
                        &build_query(idx),
                        At::Epoch(epoch),
                        Deliver::Final,
                    ) {
                        Ok(result) => {
                            let norm = normalize(&result);
                            checker.record(TxnEvent::Read {
                                node: NODE,
                                snapshot_epoch: epoch,
                                deps: BTreeSet::new(),
                                observed: BTreeSet::new(),
                                reader: None,
                                key: format!("{ORACLE_CUBE}:q{idx}"),
                                fingerprint: fingerprint(&norm),
                            });
                        }
                        // The readable window can advance between
                        // sampling LCE and the guarded check inside
                        // the read; that is a benign race.
                        Err(CubrickError::EpochOutOfRange { .. }) => {}
                        Err(e) => panic!("reader failed: {e}"),
                    }
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);

    // Clocks only at quiescence (a mid-run sample could pair a stale
    // EC with a fresh LCE and trip the checker on a torn read).
    let clock = engine.manager().clock();
    checker.record(TxnEvent::ClockSample {
        node: NODE,
        ec: clock.current_ec(),
        lce: clock.lce(),
        lse: clock.lse(),
    });
    let violations = checker.violations();
    assert!(
        violations.is_empty(),
        "{} SI violation(s), first: {}",
        violations.len(),
        violations[0]
    );

    // Quiescent sweep: the fast path agrees with the sequential
    // reference at every surviving epoch — three times, so the memo
    // stores every key and then answers for it.
    let (lse, lce) = (engine.manager().lse(), engine.manager().lce());
    for _ in 0..3 {
        for epoch in lse..=lce {
            let snapshot = Snapshot::committed(epoch);
            compare_paths(&engine, &snapshot, None, "quiescent sweep")
                .unwrap_or_else(|d| panic!("scan paths diverged: {d}"));
        }
    }
    // The memo must have been genuinely exercised. Appends, rollbacks
    // and purges invalidate nothing.
    let stats = engine.agg_cache_stats().unwrap();
    assert!(
        stats.hits > 0,
        "no memo hits across the whole run: {stats:?}"
    );
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    // Total row count sanity: each writer rolls back rounds where
    // round % 7 == 3 (6 of its 40), commits the rest; plus the seed
    // batch; 4 rows per batch.
    let expected = ((WRITERS * (WRITES_PER_WRITER - 6)) + 1) * 4;
    let total = engine
        .query(
            ORACLE_CUBE,
            &build_query(1),
            cubrick::IsolationMode::Snapshot,
        )
        .unwrap();
    assert_eq!(total.rows[0].1[0], expected as f64, "row count drifted");
}

/// BESS-packed bricks through the full scan battery (which includes
/// GROUP BY + ORDER BY + LIMIT and empty/full coordinate-set filter
/// shapes via `oracle::compare_paths`), with the memo bypassed
/// (sequential) and in use. Bess bricks have no per-dimension slices, so this
/// pins the kernels' gather fallback against the row-at-a-time
/// reference at every epoch, including an open transaction's
/// snapshot with a non-empty deps set.
#[test]
fn bess_bricks_agree_with_reference_cold_and_warm() {
    let configs = [
        (
            "cold",
            ScanConfig {
                sequential: true,
                kernel: ScanKernel::Vectorized,
            },
        ),
        ("warm", ScanConfig::default()),
    ];
    for (label, config) in configs {
        let engine = Engine::new(4)
            .with_scan_config(config)
            .with_dim_storage(DimStorage::Bess);
        engine.create_cube(oracle_schema()).unwrap();
        for round in 0..8 {
            engine
                .load(ORACLE_CUBE, &gen_rows(round, round), 0)
                .unwrap();
        }
        // An open transaction: its uncommitted rows must stay
        // invisible to committed snapshots on both paths.
        let txn = engine.begin();
        engine.append(ORACLE_CUBE, &gen_rows(50, 1), &txn).unwrap();
        let (lse, lce) = (engine.manager().lse(), engine.manager().lce());
        for pass in 0..3 {
            for epoch in lse..=lce {
                let snapshot = Snapshot::committed(epoch);
                compare_paths(
                    &engine,
                    &snapshot,
                    None,
                    &format!("bess {label} pass {pass}"),
                )
                .unwrap_or_else(|d| panic!("bess {label} diverged: {d}"));
            }
        }
        let in_txn = txn.snapshot().clone();
        compare_paths(&engine, &in_txn, None, &format!("bess {label} in-txn"))
            .unwrap_or_else(|d| panic!("bess {label} in-txn diverged: {d}"));
        let stats = engine.agg_cache_stats().unwrap();
        match label {
            "warm" => assert!(stats.hits > 0, "warm run never hit the memo: {stats:?}"),
            _ => assert_eq!(stats.hits + stats.misses, 0, "cold run used the memo"),
        }
        engine.commit(&txn).unwrap();
    }
}
