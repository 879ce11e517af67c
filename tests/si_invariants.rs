//! Property-based snapshot-isolation invariants at the engine level.
//!
//! These run randomized operation schedules through the full engine
//! (parse → shards → epochs vectors → visibility) and check the
//! guarantees the protocol promises, not implementation details:
//!
//! 1. **Batch atomicity** — a snapshot sees each load entirely or not
//!    at all.
//! 2. **Snapshot stability** — re-running a query on the same
//!    explicit transaction returns identical results regardless of
//!    concurrent commits.
//! 3. **RU ⊇ SI** — read-uncommitted sees at least everything a
//!    snapshot sees (on insert-only histories).
//! 4. **Rollback erasure** — a rolled-back transaction's rows are
//!    unobservable under every isolation mode.
//! 5. **Purge transparency** — purge never changes any query answer.

use aosi_repro::columnar::Value;
use aosi_repro::cubrick::{
    AggFn, Aggregation, At, CubeSchema, Deliver, Dimension, Engine, IsolationMode, Metric, Query,
};
use proptest::prelude::*;

fn engine() -> Engine {
    let engine = Engine::new(2);
    engine
        .create_cube(
            CubeSchema::new(
                "t",
                vec![Dimension::int("k", 32, 4)],
                vec![Metric::int("m")],
            )
            .unwrap(),
        )
        .unwrap();
    engine
}

fn rows(keys: &[u8]) -> Vec<Vec<Value>> {
    keys.iter()
        .map(|&k| vec![Value::I64((k % 32) as i64), Value::I64(1)])
        .collect()
}

fn count(engine: &Engine, mode: IsolationMode) -> u64 {
    engine
        .query(
            "t",
            &Query::aggregate(vec![Aggregation::new(AggFn::Count, "m")]),
            mode,
        )
        .unwrap()
        .scalar()
        .unwrap_or(0.0) as u64
}

/// One generated engine operation.
#[derive(Clone, Debug)]
enum Op {
    /// Load a committed batch of this many rows.
    Load(Vec<u8>),
    /// Open a transaction, append, and roll it back.
    AbortedLoad(Vec<u8>),
    /// Delete everything, tombstone-style.
    DeleteAll,
    /// Advance LSE to LCE and purge.
    Purge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => prop::collection::vec(any::<u8>(), 1..20).prop_map(Op::Load),
        2 => prop::collection::vec(any::<u8>(), 1..20).prop_map(Op::AbortedLoad),
        1 => Just(Op::DeleteAll),
        2 => Just(Op::Purge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A model tracking committed-visible (logical) and stored
    /// (physical) row counts must agree with the engine after every
    /// operation. SI answers from the logical state; RU "simply reads
    /// all available data", which includes rows tombstoned by a
    /// delete until purge physically removes them.
    #[test]
    fn committed_counts_match_model(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let engine = engine();
        let mut logical = 0u64;
        let mut physical = 0u64;
        for op in &ops {
            match op {
                Op::Load(keys) => {
                    engine.load("t", &rows(keys), 0).unwrap();
                    logical += keys.len() as u64;
                    physical += keys.len() as u64;
                }
                Op::AbortedLoad(keys) => {
                    let txn = engine.begin();
                    engine.append("t", &rows(keys), &txn).unwrap();
                    // Rollback physically reclaims the aborted rows.
                    engine.rollback(&txn).unwrap();
                }
                Op::DeleteAll => {
                    engine.delete_where("t", &[]).unwrap();
                    logical = 0;
                }
                Op::Purge => {
                    engine.advance_lse_and_purge();
                    physical = logical;
                }
            }
            prop_assert_eq!(count(&engine, IsolationMode::Snapshot), logical);
            prop_assert_eq!(count(&engine, IsolationMode::ReadUncommitted), physical);
        }
    }

    /// Batch atomicity: with an open (uncommitted) transaction in the
    /// background, SI sees exactly the committed rows and RU sees
    /// committed + in-flight.
    #[test]
    fn open_transactions_are_invisible_to_si(
        committed in prop::collection::vec(any::<u8>(), 0..30),
        in_flight in prop::collection::vec(any::<u8>(), 1..30),
    ) {
        let engine = engine();
        if !committed.is_empty() {
            engine.load("t", &rows(&committed), 0).unwrap();
        }
        let txn = engine.begin();
        engine.append("t", &rows(&in_flight), &txn).unwrap();

        prop_assert_eq!(count(&engine, IsolationMode::Snapshot), committed.len() as u64);
        prop_assert_eq!(
            count(&engine, IsolationMode::ReadUncommitted),
            (committed.len() + in_flight.len()) as u64
        );
        // The transaction itself sees both.
        let own = engine
            .read("t", &Query::aggregate(vec![Aggregation::new(AggFn::Count, "m")]), At::Txn(&txn), Deliver::Final)
            .unwrap()
            .scalar()
            .unwrap_or(0.0) as u64;
        prop_assert_eq!(own, (committed.len() + in_flight.len()) as u64);

        engine.commit(&txn).unwrap();
        prop_assert_eq!(
            count(&engine, IsolationMode::Snapshot),
            (committed.len() + in_flight.len()) as u64
        );
    }

    /// Snapshot stability: a transaction's view never changes while
    /// it stays open, no matter what commits around it.
    #[test]
    fn explicit_txn_view_is_frozen(
        before in prop::collection::vec(any::<u8>(), 1..20),
        after in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        let engine = engine();
        engine.load("t", &rows(&before), 0).unwrap();
        let observer = engine.begin();
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "m")]);
        let first = engine.read("t", &q, At::Txn(&observer), Deliver::Final).unwrap().scalar().unwrap();

        engine.load("t", &rows(&after), 0).unwrap();
        engine.delete_where("t", &[]).unwrap();

        let second = engine.read("t", &q, At::Txn(&observer), Deliver::Final).unwrap().scalar().unwrap();
        prop_assert_eq!(first, second, "the observer's snapshot drifted");
        engine.commit(&observer).unwrap();
    }

    /// Purge transparency: purging never changes what any later query
    /// returns, with or without deletes in the history.
    #[test]
    fn purge_never_changes_answers(
        batches in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..10), 1..6),
        delete_after in prop::option::of(0usize..5),
    ) {
        let engine = engine();
        for (i, batch) in batches.iter().enumerate() {
            engine.load("t", &rows(batch), 0).unwrap();
            if delete_after == Some(i) {
                engine.delete_where("t", &[]).unwrap();
            }
        }
        let before = count(&engine, IsolationMode::Snapshot);
        let stats = engine.advance_lse_and_purge();
        let after = count(&engine, IsolationMode::Snapshot);
        prop_assert_eq!(before, after, "purge changed a query answer ({:?})", stats);
    }
}
