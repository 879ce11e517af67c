//! Regression: rejected records must not pollute the shared string
//! dictionary, and the WAL round-trip must preserve the exact (clean)
//! dictionary state.
//!
//! Before the lookup-before-encode fix in `parse_rows`, a rejected
//! record minted dictionary ids for its strings anyway. The phantom
//! entry permanently burned an id below the cardinality cap — locking
//! out a later legitimate string — and was persisted by every
//! following flush round, so recovery faithfully rebuilt the
//! pollution.

use std::path::PathBuf;
use std::sync::Arc;

use aosi_repro::cluster::ReplicationTracker;
use aosi_repro::columnar::Value;
use aosi_repro::cubrick::{
    AggFn, Aggregation, CubeSchema, DimFilter, Dimension, Engine, IsolationMode, Metric, Query,
};
use aosi_repro::wal::{recover_into_with, FlushController, SimFs, WalFs};

/// Region cardinality 4: exactly four distinct strings fit.
fn schema() -> CubeSchema {
    CubeSchema::new(
        "events",
        vec![
            Dimension::string("region", 4, 2),
            Dimension::int("day", 8, 4),
        ],
        vec![Metric::int("likes")],
    )
    .unwrap()
}

fn row(region: &str, day: i64, likes: i64) -> Vec<Value> {
    vec![region.into(), Value::I64(day), Value::I64(likes)]
}

fn count_for(engine: &Engine, region: &str) -> f64 {
    engine
        .query(
            "events",
            &Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
                .filter(DimFilter::new("region", vec![Value::from(region)])),
            IsolationMode::Snapshot,
        )
        .unwrap()
        .scalar()
        .unwrap_or(0.0)
}

#[test]
fn rejected_strings_do_not_burn_dictionary_capacity_across_wal_round_trip() {
    let fs = Arc::new(SimFs::new(11));
    let dir = PathBuf::from("/wal");
    let engine = Engine::new(2);
    engine.create_cube(schema()).unwrap();

    // Three legitimate regions, plus a record whose string is new but
    // whose integer dimension is out of range: the record is rejected
    // and "ghost" must not claim the fourth (and last) dictionary id.
    let outcome = engine
        .load(
            "events",
            &[
                row("ar", 0, 1),
                row("br", 1, 1),
                row("cl", 2, 1),
                row("ghost", 99, 1),
            ],
            1,
        )
        .unwrap();
    assert_eq!(outcome.accepted, 3);
    assert_eq!(outcome.rejected, 1);

    // Persist the dictionary state, then recover into a fresh engine.
    let mut ctl = FlushController::with_fs(fs.clone() as Arc<dyn WalFs>, dir.clone(), 1).unwrap();
    ctl.flush_round(&engine, &ReplicationTracker::new(1))
        .unwrap();
    let recovered = Engine::new(2);
    recovered.create_cube(schema()).unwrap();
    recover_into_with(fs.as_ref(), &dir, &recovered).unwrap();
    assert_eq!(count_for(&recovered, "ar"), 1.0);
    assert_eq!(count_for(&recovered, "br"), 1.0);
    assert_eq!(count_for(&recovered, "cl"), 1.0);

    // The last dictionary slot is still free: a fourth legitimate
    // region must be accepted by the recovered engine. With the
    // pre-fix pollution "ghost" held id 3, so "dk" would encode to id
    // 4 >= cardinality and be rejected here.
    let outcome = recovered.load("events", &[row("dk", 3, 1)], 0).unwrap();
    assert_eq!(outcome.accepted, 1, "fourth region must still fit");
    assert_eq!(count_for(&recovered, "dk"), 1.0);

    // A fifth distinct region is over the cap — rejected, and its
    // rejection must not disturb existing entries.
    let outcome = recovered.load("events", &[row("ec", 4, 1)], 1).unwrap();
    assert_eq!(outcome.rejected, 1);
    assert_eq!(count_for(&recovered, "dk"), 1.0);

    // Round-trip once more: the clean dictionary (now four entries)
    // survives another flush/recover cycle with ids intact.
    let fs2 = Arc::new(SimFs::new(13));
    let dir2 = PathBuf::from("/wal2");
    let mut ctl2 =
        FlushController::with_fs(fs2.clone() as Arc<dyn WalFs>, dir2.clone(), 1).unwrap();
    ctl2.flush_round(&recovered, &ReplicationTracker::new(1))
        .unwrap();
    let twice = Engine::new(2);
    twice.create_cube(schema()).unwrap();
    recover_into_with(fs2.as_ref(), &dir2, &twice).unwrap();
    for (region, expected) in [("ar", 1.0), ("br", 1.0), ("cl", 1.0), ("dk", 1.0)] {
        assert_eq!(count_for(&twice, region), expected, "region {region}");
    }
    assert_eq!(count_for(&twice, "ghost"), 0.0);
    assert_eq!(count_for(&twice, "ec"), 0.0);
}
