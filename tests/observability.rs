//! End-to-end observability: every subsystem — AOSI manager, engine,
//! shard pool, cluster network — shows up in one metrics report, and
//! query results carry populated per-query statistics.

use aosi_repro::aosi::Snapshot;
use aosi_repro::cluster::SimulatedNetwork;
use aosi_repro::columnar::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aosi_repro::cubrick::{
    AggFn, Aggregation, At, BrickDelta, CubeSchema, Deliver, DimFilter, Dimension,
    DistributedEngine, Engine, IsolationMode, Metric, OrderBy, Query,
};

thread_local! {
    /// Heap allocations and reallocations this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations: a gate
/// on work that grows with its input, where a timing gate would be
/// noise.
struct CountingAlloc;

fn count_allocation() {
    // A thread being torn down has no counter left; its frees and
    // allocations are nobody's measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `f`'s result and the heap allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

fn schema() -> CubeSchema {
    CubeSchema::new(
        "events",
        vec![
            Dimension::string("region", 8, 2),
            Dimension::int("day", 32, 4),
        ],
        vec![Metric::int("likes")],
    )
    .unwrap()
}

fn row(region: &str, day: i64, likes: i64) -> Vec<Value> {
    vec![region.into(), Value::I64(day), Value::I64(likes)]
}

fn sum_query() -> Query {
    Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
}

#[test]
fn query_results_carry_populated_stats_end_to_end() {
    let engine = Engine::new(2);
    engine.create_cube(schema()).unwrap();
    let rows: Vec<_> = (0..100).map(|i| row("us", i % 32, 1)).collect();
    engine.load("events", &rows, 0).unwrap();

    // The default kernel walks each brick's visible ranges, filtered
    // or not: no scan builds a bitmap.
    let unfiltered = engine
        .query("events", &sum_query(), IsolationMode::Snapshot)
        .unwrap();
    assert_eq!(unfiltered.scalar(), Some(100.0));
    assert!(unfiltered.stats.bricks_scanned >= 1);
    assert_eq!(
        unfiltered.stats.range_scans,
        unfiltered.stats.bricks_scanned
    );
    assert_eq!(unfiltered.stats.bitmap_scans, 0);
    assert_eq!(unfiltered.stats.rows_scanned, 100);
    assert_eq!(unfiltered.stats.rows_visible, 100);

    let day_3 = sum_query().filter(DimFilter::new("day", vec![Value::I64(3)]));
    let filtered = engine
        .query("events", &day_3, IsolationMode::Snapshot)
        .unwrap();
    assert!(filtered.stats.bricks_scanned >= 1);
    assert_eq!(filtered.stats.range_scans, filtered.stats.bricks_scanned);
    assert_eq!(filtered.stats.bitmap_scans, 0);
    assert!(filtered.stats.rows_visible < 100);
    assert!(
        filtered.stats.visibility_build_nanos + filtered.stats.scan_nanos > 0,
        "wall-clock phases must be measured"
    );

    // The reference kernel is the mirror image: a visibility bitmap
    // per brick, never the ranges.
    let snapshot = Snapshot::committed(engine.manager().lce());
    for query in [sum_query(), day_3] {
        let reference = engine
            .query_at_reference("events", &query, &snapshot)
            .unwrap();
        assert!(reference.stats.bricks_scanned >= 1);
        assert_eq!(reference.stats.bitmap_scans, reference.stats.bricks_scanned);
        assert_eq!(reference.stats.range_scans, 0);
    }
}

/// Regression: `rows_scanned` counts the rows a scan actually
/// traversed, not the brick's physical row count. An open
/// transaction's uncommitted suffix lies outside the visible ranges
/// and is never walked — before the fix the stat still reported
/// every stored row.
#[test]
fn rows_scanned_excludes_rows_hidden_from_the_snapshot() {
    let engine = Engine::new(2);
    engine.create_cube(schema()).unwrap();
    let rows: Vec<_> = (0..100).map(|i| row("us", i % 32, 1)).collect();
    engine.load("events", &rows, 0).unwrap();
    // An open (never committed) transaction appends 40 more rows:
    // physically stored, invisible to committed snapshots.
    let txn = engine.begin();
    let pending: Vec<_> = (0..40).map(|i| row("br", i % 32, 1)).collect();
    engine.append("events", &pending, &txn).unwrap();

    // Unfiltered: only the 100 committed rows are walked.
    let unfiltered = engine
        .query("events", &sum_query(), IsolationMode::Snapshot)
        .unwrap();
    assert_eq!(unfiltered.scalar(), Some(100.0));
    assert_eq!(
        unfiltered.stats.range_scans,
        unfiltered.stats.bricks_scanned
    );
    assert_eq!(unfiltered.stats.rows_scanned, 100);
    assert_eq!(unfiltered.stats.rows_visible, 100);

    // Filtered: same path, same traversal accounting.
    let filtered = engine
        .query(
            "events",
            &sum_query().filter(DimFilter::new("region", vec![Value::from("us")])),
            IsolationMode::Snapshot,
        )
        .unwrap();
    assert_eq!(filtered.stats.range_scans, filtered.stats.bricks_scanned);
    assert_eq!(filtered.stats.bitmap_scans, 0);
    assert_eq!(filtered.stats.rows_scanned, 100);
    assert_eq!(filtered.stats.rows_visible, 100);

    // Read-uncommitted sees (and traverses) everything.
    let dirty = engine
        .query("events", &sum_query(), IsolationMode::ReadUncommitted)
        .unwrap();
    assert_eq!(dirty.scalar(), Some(140.0));
    assert_eq!(dirty.stats.rows_scanned, 140);
}

/// The `[shards] tasks` total from the engine's metrics report.
fn shard_tasks(engine: &Engine) -> u64 {
    let report = engine.metrics_report();
    let shards = &report[report.find("[shards]").expect("[shards] section")..];
    let line = shards
        .lines()
        .find_map(|l| l.trim().strip_prefix("tasks = "))
        .expect("tasks line");
    line.parse().expect("task count")
}

/// A query that misses the snapshot memo is one round trip per shard
/// — enumeration, pruning and the scan happen in the same shard task —
/// however few bricks survive pruning. A settled answer memoized on
/// every shard is served by the coordinator with no shard task at all,
/// and a partial hit submits only the shards that missed.
#[test]
fn a_query_is_one_task_per_shard() {
    let engine = Engine::new(4);
    engine.create_cube(schema()).unwrap();
    engine.load("events", &grid_rows(), 0).unwrap();
    let snapshot = Snapshot::committed(engine.manager().lce());
    let one_brick = sum_query()
        .filter(DimFilter::new("region", vec![Value::from("r0")]))
        .filter(DimFilter::new("day", vec![Value::I64(3)]));
    let one_day = sum_query().filter(DimFilter::new("day", vec![Value::I64(3)]));
    // (query, bricks scanned, bricks pruned, shards with work)
    let cases = [
        (sum_query(), 32, 0, Some(4)),
        (one_day, 4, 28, None),
        (one_brick, 1, 31, Some(1)),
    ];
    let read = |query: &Query| {
        let before = shard_tasks(&engine);
        let answer = engine
            .read("events", query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap();
        (answer, shard_tasks(&engine) - before)
    };
    // A delta with no runs clears the memo of the one shard holding
    // (r0, day 3) and changes no row.
    let cube = engine.cube("events").unwrap();
    let r0 = cube.encode_filter_value(0, &Value::from("r0")).unwrap();
    let day3 = cube.encode_filter_value(1, &Value::I64(3)).unwrap();
    let clear_one_shard = BrickDelta {
        cube: "events".into(),
        bid: cube.layout().bid_for_coords(&[r0, day3]),
        runs: Vec::new(),
    };
    for (query, scanned, pruned, busy_shards) in &cases {
        // The first two sightings of a settled snapshot scan; the
        // third is a memo hit on every shard.
        for sighting in 1..=2 {
            let (answer, tasks) = read(query);
            assert_eq!(tasks, 4, "sighting {sighting}: one task per shard");
            assert_eq!(answer.stats.agg_cache_hits, 0);
        }
        let (result, tasks) = read(query);
        assert_eq!(tasks, 0, "an all-hit read submits no shard task");
        assert!(result.stats.agg_cache_hits > 0);
        assert_eq!(result.stats.bricks_scanned, *scanned);
        assert_eq!(result.stats.bricks_pruned, *pruned);
        if let Some(busy) = busy_shards {
            assert_eq!(result.stats.parallel_tasks, *busy);
        }
        assert!(result.stats.parallel_tasks >= 1);

        engine.import_delta(vec![clear_one_shard.clone()]);
        let (partial, tasks) = read(query);
        assert_eq!(tasks, 1, "a partial hit submits only the shard that missed");
        assert_eq!(partial.stats.bricks_scanned, *scanned);
        assert_eq!(partial.stats.bricks_pruned, *pruned);
        assert_eq!(partial.stats.parallel_tasks, result.stats.parallel_tasks);
        assert_eq!(partial.scalar(), result.scalar());

        let before = shard_tasks(&engine);
        let reference = engine
            .query_at_reference("events", query, &snapshot)
            .unwrap();
        assert_eq!(shard_tasks(&engine) - before, 4, "reference: same loop");
        assert_eq!(reference.stats.parallel_tasks, 0);
        assert_eq!(reference.stats.bricks_pruned, *pruned);
        assert_eq!(reference.scalar(), result.scalar());
    }
}

/// A settled read that every shard's memo answers runs wholly on the
/// calling thread, shares each shard's memoized table, and decodes
/// only the rows it emits: reading 64 memoized groups allocates
/// exactly as often as reading 8. Nor does it copy the query: the
/// shards' scan plan and the memo keys share the one the read
/// resolved, which holds the read to 31 allocations.
#[test]
fn a_memo_hit_allocates_the_same_for_64_groups_as_for_8() {
    let engine = Engine::new(2);
    // Four days per brick, so days 0-3 and 4-7 land on different
    // shards and both reads merge two shard tables.
    let schema = CubeSchema::new(
        "days",
        vec![Dimension::int("day", 128, 4)],
        vec![Metric::int("likes")],
    )
    .unwrap();
    engine.create_cube(schema).unwrap();
    let rows: Vec<_> = (0..256)
        .map(|i| vec![Value::I64(i % 64), Value::I64(i)])
        .collect();
    engine.load("days", &rows, 0).unwrap();
    let snapshot = Snapshot::committed(engine.manager().lce());
    // `GROUP BY day ORDER BY day LIMIT 8` over the first `days` days.
    let first_days = |days: i64| {
        Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .filter(DimFilter::new("day", (0..days).map(Value::I64).collect()))
            .grouped_by("day")
            .ordered_by(OrderBy::Dimension("day".into()), false)
            .limited(8)
    };
    let read = |query: &Query| {
        engine
            .read("days", query, At::Snapshot(&snapshot), Deliver::Final)
            .unwrap()
    };
    let hit_allocations = |query: &Query| {
        read(query);
        let fresh = read(query);
        let tasks = shard_tasks(&engine);
        let (hit, allocated) = allocations(|| read(query));
        assert_eq!(
            shard_tasks(&engine),
            tasks,
            "no shard task: all on this thread"
        );
        assert_eq!(hit.stats.agg_cache_hits, 2, "both shards hit");
        assert_eq!(hit.stats.parallel_tasks, 2, "both shards hold groups");
        assert_eq!(hit.rows, fresh.rows);
        let days: Vec<Value> = (0..8).map(Value::I64).collect();
        assert_eq!(
            hit.rows
                .iter()
                .map(|(k, _)| k[0].clone())
                .collect::<Vec<_>>(),
            days
        );
        allocated
    };
    let wide = hit_allocations(&first_days(64));
    let narrow = hit_allocations(&first_days(8));
    assert_eq!(
        wide, narrow,
        "a hit on 64 groups made {wide} allocations, on 8 groups {narrow}"
    );
    assert!(wide <= 31, "a hit made {wide} allocations");
}

/// A 4-shard engine spilling to a store in a fresh temp directory.
fn tiered_engine(tag: &str, budget_bytes: usize) -> (Engine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("obs-tier-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = aosi_repro::wal::WalBrickStore::open(&dir).unwrap();
    let engine = Engine::new(4).with_tiered_storage(Box::new(store), budget_bytes);
    engine.create_cube(schema()).unwrap();
    (engine, dir)
}

/// Every (region range, day range) brick of the 4 x 8 grid.
fn grid_rows() -> Vec<Vec<Value>> {
    (0..256)
        .map(|i| row(&format!("r{}", i % 8), i / 8, 1))
        .collect()
}

fn resident_bytes(engine: &Engine) -> u64 {
    let memory = engine.memory();
    (memory.data_bytes + memory.aosi_bytes) as u64
}

/// The shards a load of `rows` touches on a 4-shard engine.
fn shards_touched(engine: &Engine, rows: &[Vec<Value>]) -> usize {
    let cube = engine.cube("events").unwrap();
    rows.iter()
        .map(|r| {
            let region = cube.encode_filter_value(0, &r[0]).unwrap();
            let day = cube.encode_filter_value(1, &r[1]).unwrap();
            cube.layout().bid_for_coords(&[region, day]) % 4
        })
        .collect::<std::collections::BTreeSet<u64>>()
        .len()
}

/// Loads of all 32 bricks, of one brick, and of two bricks.
fn loads() -> [(Vec<Vec<Value>>, usize); 3] {
    [
        (grid_rows(), 32),
        (vec![row("r0", 3, 1), row("r1", 2, 1)], 1),
        (vec![row("r0", 3, 1), row("r6", 30, 1)], 2),
    ]
}

/// A load is one append task per shard it touches, however many
/// bricks that is — and nothing else on an untiered engine.
#[test]
fn a_load_is_one_task_per_touched_shard() {
    let engine = Engine::new(4);
    engine.create_cube(schema()).unwrap();
    for (rows, bricks) in loads() {
        let before = shard_tasks(&engine);
        let outcome = engine.load("events", &rows, 0).unwrap();
        assert_eq!(outcome.bricks_touched, bricks);
        let shards = shards_touched(&engine, &rows);
        assert_eq!(
            shard_tasks(&engine) - before,
            shards as u64,
            "{bricks} bricks on {shards} shards"
        );
    }
}

/// The sweep after a load needs two integers per shard; it names and
/// ranks bricks only when the budget is exceeded and something is
/// clean-cold. The append task on a touched shard returns its shard's
/// integers, so a load on the 4-shard tiered engine is exactly four
/// shard tasks: one append task per touched shard and one sweep task
/// per untouched one.
#[test]
fn a_load_under_budget_is_one_sweep_round_trip() {
    let (engine, dir) = tiered_engine("under", 1 << 30);
    for (rows, bricks) in loads() {
        let before = shard_tasks(&engine);
        let outcome = engine.load("events", &rows, 0).unwrap();
        assert_eq!(outcome.bricks_touched, bricks);
        assert_eq!(
            shard_tasks(&engine) - before,
            4,
            "{bricks} bricks on {} shards",
            shards_touched(&engine, &rows)
        );
    }
    // Flushed through the LCE, every brick is clean-cold: the sweep
    // reports all of it eligible and, under budget, stops there.
    engine
        .manager()
        .advance_lse(engine.manager().lce())
        .unwrap();
    let before = shard_tasks(&engine);
    let sweep = engine.enforce_tier_budget();
    assert_eq!(shard_tasks(&engine) - before, 4, "phase one only");
    assert_eq!(sweep.eligible_bytes, resident_bytes(&engine));
    assert_eq!(sweep.resident_bytes_after, sweep.resident_bytes_before);
    let stats = engine.tier_stats().unwrap();
    assert_eq!((stats.spills, stats.reloads), (0, 0));
    std::fs::remove_dir_all(dir).unwrap();
}

/// Over budget the ranking pass still runs — but only once there is
/// something it could spill.
#[test]
fn a_sweep_over_budget_still_ranks_and_spills() {
    let (engine, dir) = tiered_engine("over", 1);
    // Nothing is flushed yet, so nothing is eligible: the sweep after
    // the load cannot help and needs no task beyond the four appends.
    let before = shard_tasks(&engine);
    engine.load("events", &grid_rows(), 0).unwrap();
    assert_eq!(shard_tasks(&engine) - before, 4);
    assert_eq!(engine.tier_stats().unwrap().spills, 0);

    engine
        .manager()
        .advance_lse(engine.manager().lce())
        .unwrap();
    let clean_cold = resident_bytes(&engine);
    let before = shard_tasks(&engine);
    let sweep = engine.enforce_tier_budget();
    assert_eq!(sweep.eligible_bytes, clean_cold);
    assert_eq!(sweep.resident_bytes_before, clean_cold);
    assert_eq!((sweep.evicted, sweep.failed), (32, 0));
    assert_eq!(sweep.resident_bytes_after, 0);
    assert_eq!(
        shard_tasks(&engine) - before,
        4 + 4 + 32,
        "totals, candidates, one spill per brick"
    );
    // A load onto the spilled bricks reloads each inside its own
    // append task: still one task per touched shard.
    let before = shard_tasks(&engine);
    engine.load("events", &grid_rows(), 0).unwrap();
    assert_eq!(shard_tasks(&engine) - before, 4);
    assert_eq!(engine.tier_stats().unwrap().reloads, 32);
    let total = engine
        .query("events", &sum_query(), IsolationMode::Snapshot)
        .unwrap();
    assert_eq!(total.scalar(), Some(512.0), "spilled bricks reload");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn metrics_report_covers_every_single_node_subsystem() {
    let engine = Engine::new(2);
    engine.create_cube(schema()).unwrap();
    let rows: Vec<_> = (0..50).map(|i| row("br", i % 32, i)).collect();
    engine.load("events", &rows, 0).unwrap();
    engine
        .query("events", &sum_query(), IsolationMode::Snapshot)
        .unwrap();
    engine
        .delete_where("events", &[DimFilter::new("day", vec![Value::I64(1)])])
        .unwrap();
    engine.manager().advance_lse(engine.manager().lce()).ok();
    engine.purge();

    let report = engine.metrics_report();
    for section in ["[aosi]", "[engine]", "[shards]"] {
        assert!(report.contains(section), "missing {section} in:\n{report}");
    }
    assert!(report.contains("loads = 1"), "report:\n{report}");
    assert!(report.contains("queries = 1"), "report:\n{report}");
    assert!(report.contains("deletes = 1"), "report:\n{report}");
    assert!(report.contains("purges = 1"), "report:\n{report}");
    assert!(
        report.contains("query_nanos.count = 1"),
        "report:\n{report}"
    );
    assert!(report.contains("tasks ="), "report:\n{report}");
}

#[test]
fn metrics_report_covers_the_durability_path() {
    use aosi_repro::cluster::ReplicationTracker;
    use aosi_repro::wal::{recover_into_with, FlushController, SimFs, WalFs};
    use std::path::PathBuf;
    use std::sync::Arc;

    let fs = Arc::new(SimFs::new(7));
    let dir = PathBuf::from("/wal");
    let engine = Engine::new(2);
    engine.create_cube(schema()).unwrap();
    let rows: Vec<_> = (0..40).map(|i| row("us", i % 32, 1)).collect();
    engine.load("events", &rows, 0).unwrap();

    let mut ctl = FlushController::with_fs(fs.clone() as Arc<dyn WalFs>, dir.clone(), 1).unwrap();
    ctl.flush_round(&engine, &ReplicationTracker::new(1))
        .unwrap();
    let report = ctl.metrics_report();
    assert!(report.contains("[wal.flush]"), "report:\n{report}");
    for line in [
        "rounds_written = 1",
        "file_syncs = 1",
        "dir_syncs = 1",
        "renames = 1",
    ] {
        assert!(report.contains(line), "missing {line} in:\n{report}");
    }

    let recovered = Engine::new(2);
    recovered.create_cube(schema()).unwrap();
    let rep = recover_into_with(fs.as_ref(), &dir, &recovered).unwrap();
    let restored = recovered
        .query("events", &sum_query(), IsolationMode::Snapshot)
        .unwrap();
    assert_eq!(restored.scalar(), Some(40.0), "recovered data answers");
    let report = rep.metrics_report();
    assert!(report.contains("[wal.recovery]"), "report:\n{report}");
    for line in [
        "rounds_salvaged = 1",
        "rounds_skipped = 0",
        "gaps_detected = 0",
        "rows_recovered = 40",
    ] {
        assert!(report.contains(line), "missing {line} in:\n{report}");
    }
}

#[test]
fn metrics_report_covers_cluster_and_every_node() {
    let cluster = DistributedEngine::new(2, 2, SimulatedNetwork::instant());
    cluster.create_cube(schema()).unwrap();
    let rows: Vec<_> = (0..80).map(|i| row("mx", i % 32, 1)).collect();
    cluster.load(1, "events", &rows, 0).unwrap();
    let result = cluster.read(2, "events", &sum_query(), At::Latest).unwrap();
    assert_eq!(result.scalar(), Some(80.0));

    let report = cluster.metrics_report();
    assert!(report.contains("[cluster]"), "report:\n{report}");
    assert!(
        report.contains("messages.begin_request"),
        "typed traffic missing in:\n{report}"
    );
    for node in 1..=2 {
        for section in ["aosi", "engine", "shards"] {
            let header = format!("[node{node}.{section}]");
            assert!(report.contains(&header), "missing {header} in:\n{report}");
        }
    }
    assert!(report.contains("flushes = 1"), "report:\n{report}");
}
