//! Tiered-ingestion benchmark: continuous loads into an engine whose
//! memory budget holds only a fraction of the dataset, with the cold
//! tier spilling bricks through [`wal::WalBrickStore`] on the real
//! filesystem.
//!
//! The shape mirrors figure 10's ingestion scaling, but the variable
//! under test is the residency budget rather than the node count: the
//! dataset is sized to at least `AOSI_INGEST_MULT` (default 4) times
//! the budget, so steady-state ingestion *must* cycle bricks through
//! the cold tier to stay inside memory. Every `AOSI_FLUSH_EVERY`
//! batches a WAL flush round runs (advancing the LSE, which is what
//! makes bricks clean-cold and evictable), a full-scan conservation
//! query checks that the running metric sum survives the spill/reload
//! churn bit-exactly, and an eviction sweep is forced so the
//! post-sweep resident footprint can be held against the budget. At
//! the end the WAL round chain is recovered into a fresh engine and
//! the same conservation sum must come back — snapshots are a
//! redundant cold copy, never a recovery input.
//!
//! A sizing pass first ingests the identical batches into a plain
//! in-memory engine: it measures the dataset's resident footprint
//! (from which the budget is derived as `footprint / mult`) and
//! doubles as the no-tier ingestion baseline rate.
//!
//! Emits `BENCH_ingest.json` (override with `AOSI_BENCH_OUT`).
//! `AOSI_BENCH_ENFORCE=1` turns the bounds into an exit code: the
//! dataset must be ≥ `AOSI_BENCH_MIN_RATIO` (default 4.0) times the
//! budget, every post-flush eviction sweep must land at or under the
//! budget, at least one brick must spill and reload, and no spill or
//! reload may fail. Conservation and recovery mismatches abort
//! unconditionally — those are correctness bugs, not tuning.
//!
//! Knobs: `AOSI_INGEST_BATCHES`, `AOSI_BATCH`, `AOSI_SHARDS`,
//! `AOSI_FLUSH_EVERY`, `AOSI_INGEST_MULT`, and `AOSI_INGEST_BUDGET`
//! (explicit budget in bytes, 0 = derive from the sizing pass).

use std::time::Instant;

use cluster::ReplicationTracker;
use columnar::{Row, Value};
use cubrick::{AggFn, Aggregation, CubeSchema, Dimension, Engine, IsolationMode, Metric, Query};
use wal::{recover_into, FlushController, TempWalDir, WalBrickStore};

const CUBE: &str = "ingest";

fn schema() -> CubeSchema {
    CubeSchema::new(
        CUBE,
        vec![
            Dimension::string("region", 16, 2),
            Dimension::int("day", 32, 4),
        ],
        vec![Metric::int("likes"), Metric::float("score")],
    )
    .expect("static schema")
}

/// One batch: rows spread over all 64 (region, day) bricks so the
/// eviction sweep always has many candidates much smaller than the
/// budget.
fn batch(id: usize, rows_per_batch: usize) -> (Vec<Row>, f64) {
    let mut sum = 0.0;
    let rows = (0..rows_per_batch)
        .map(|k| {
            let i = id * rows_per_batch + k;
            let likes = (i % 100) as i64;
            sum += likes as f64;
            vec![
                Value::from(format!("r{}", i % 16).as_str()),
                Value::from((i % 32) as i64),
                Value::from(likes),
                Value::from(1.25),
            ]
        })
        .collect();
    (rows, sum)
}

fn total_sum(engine: &Engine) -> f64 {
    engine
        .query(
            CUBE,
            &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
            IsolationMode::Snapshot,
        )
        .expect("conservation query")
        .scalar()
        .unwrap_or(0.0)
}

fn main() {
    let batches = bench::env_usize("AOSI_INGEST_BATCHES", 64);
    let rows_per_batch = bench::env_usize("AOSI_BATCH", 2000);
    let shards = bench::env_usize("AOSI_SHARDS", 4);
    let flush_every = bench::env_usize("AOSI_FLUSH_EVERY", 4).max(1);
    let mult = bench::env_u64("AOSI_INGEST_MULT", 4).max(1);
    bench::banner(
        "Tiered ingestion",
        "sustained loads under a memory budget a fraction of the dataset",
        &[
            ("batches", batches.to_string()),
            ("rows per batch", rows_per_batch.to_string()),
            ("shards", shards.to_string()),
            ("flush every", format!("{flush_every} batches")),
            ("dataset / budget", format!("{mult}x")),
        ],
    );

    // Sizing pass: the same batches into a plain engine measure the
    // dataset's resident footprint and the no-tier baseline rate.
    let plain = Engine::new(shards);
    plain.create_cube(schema()).expect("cube");
    let started = Instant::now();
    let mut expected_total = 0.0f64;
    for id in 0..batches {
        let (rows, sum) = batch(id, rows_per_batch);
        plain.load(CUBE, &rows, 0).expect("sizing load");
        expected_total += sum;
    }
    let baseline_s = started.elapsed().as_secs_f64();
    let mem = plain.memory();
    let footprint = (mem.data_bytes + mem.aosi_bytes) as u64;
    let total_rows = (batches * rows_per_batch) as u64;
    let baseline_rows_per_s = total_rows as f64 / baseline_s;
    drop(plain);

    let budget_bytes = match bench::env_u64("AOSI_INGEST_BUDGET", 0) {
        0 => (footprint / mult).max(1),
        explicit => explicit,
    };
    println!(
        "dataset footprint {} ({} bricks), budget {}",
        workload::human_bytes(footprint),
        mem.bricks,
        workload::human_bytes(budget_bytes),
    );

    // The measured run: WAL chain and snapshot store live in sibling
    // directories (the flush controller owns its directory and deletes
    // files it does not recognize).
    let base = TempWalDir::new("ingest-bench");
    let wal_dir = base.path().join("wal");
    let tier_dir = base.path().join("tier");
    let store = WalBrickStore::open(&tier_dir).expect("snapshot store");
    let engine = Engine::new(shards).with_tiered_storage(Box::new(store), budget_bytes as usize);
    engine.create_cube(schema()).expect("cube");
    let mut ctl = FlushController::new(&wal_dir, 1).expect("flush controller");
    let tracker = ReplicationTracker::new(1);

    let mut running_sum = 0.0f64;
    let mut max_resident_after_sweep = 0u64;
    let mut sweep_failures = 0u64;
    let mut flushes = 0usize;
    let mut wal_bytes = 0u64;
    let started = Instant::now();
    for id in 0..batches {
        let (rows, sum) = batch(id, rows_per_batch);
        engine.load(CUBE, &rows, 0).expect("load");
        running_sum += sum;
        if (id + 1) % flush_every == 0 || id + 1 == batches {
            let outcome = ctl.flush_round(&engine, &tracker).expect("flush round");
            wal_bytes += outcome.bytes_written;
            flushes += 1;
            // Full-scan conservation: reloads whatever is spilled, so
            // every flush window cycles bricks both directions.
            let got = total_sum(&engine);
            assert!(
                got == running_sum,
                "conservation violated after batch {}: sum {got}, loaded {running_sum}",
                id + 1
            );
            let sweep = engine.enforce_tier_budget();
            sweep_failures += sweep.failed;
            max_resident_after_sweep = max_resident_after_sweep.max(sweep.resident_bytes_after);
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let rows_per_s = total_rows as f64 / elapsed_s;
    let stats = engine.tier_stats().expect("tier stats");
    let dataset_bytes = stats.resident_bytes + stats.spilled_resident_bytes;
    let ratio = dataset_bytes as f64 / budget_bytes as f64;

    // Recovery reads only the round chain — a fresh engine with no
    // snapshot store must reproduce the conservation sum.
    let recovered = Engine::new(shards);
    recovered.create_cube(schema()).expect("cube");
    let report = recover_into(&wal_dir, &recovered).expect("recovery");
    assert!(
        report.gaps_detected == 0 && report.unknown_cube_deltas == 0,
        "recovery chain damaged: {report:?}"
    );
    assert!(
        report.rows_recovered == total_rows,
        "recovery lost rows: {} of {total_rows}",
        report.rows_recovered
    );
    let recovered_sum = total_sum(&recovered);
    assert!(
        recovered_sum == expected_total,
        "recovered sum {recovered_sum} != loaded {expected_total}"
    );

    println!(
        "\ningest:   {} rows in {elapsed_s:.2}s — {} (baseline, no tier: {})",
        total_rows,
        workload::human_rate(rows_per_s),
        workload::human_rate(baseline_rows_per_s),
    );
    println!(
        "tier:     {} spills, {} reloads, {} cache serves, {} spilled bricks at end",
        stats.spills, stats.reloads, stats.cache_serves, stats.spilled_bricks
    );
    println!(
        "resident: max {} after {} sweeps, budget {} ({ratio:.1}x dataset / budget)",
        workload::human_bytes(max_resident_after_sweep),
        flushes,
        workload::human_bytes(budget_bytes),
    );
    println!(
        "wal:      {} rounds, {}; recovery replayed {} rows clean",
        flushes,
        workload::human_bytes(wal_bytes),
        report.rows_recovered
    );

    let out = std::env::var("AOSI_BENCH_OUT").unwrap_or_else(|_| "BENCH_ingest.json".into());
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"config\": {{\"batches\": {batches}, \
         \"rows_per_batch\": {rows_per_batch}, \"shards\": {shards}, \
         \"flush_every\": {flush_every}, \"budget_bytes\": {budget_bytes}}},\n  \
         \"sizing_footprint_bytes\": {footprint},\n  \
         \"dataset_bytes\": {dataset_bytes},\n  \"dataset_over_budget\": {ratio:.3},\n  \
         \"rows\": {total_rows},\n  \"elapsed_s\": {elapsed_s:.3},\n  \
         \"rows_per_s\": {rows_per_s:.0},\n  \"baseline_rows_per_s\": {baseline_rows_per_s:.0},\n  \
         \"spills\": {},\n  \"reloads\": {},\n  \"cache_serves\": {},\n  \
         \"spill_failures\": {},\n  \"reload_failures\": {},\n  \
         \"spilled_bricks_final\": {},\n  \"spilled_file_bytes\": {},\n  \
         \"max_resident_after_sweep\": {max_resident_after_sweep},\n  \
         \"wal_rounds\": {flushes},\n  \"wal_bytes\": {wal_bytes},\n  \
         \"recovered_rows\": {}\n}}\n",
        stats.spills,
        stats.reloads,
        stats.cache_serves,
        stats.spill_failures,
        stats.reload_failures,
        stats.spilled_bricks,
        stats.spilled_file_bytes,
        report.rows_recovered
    );
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");

    if bench::env_u64("AOSI_BENCH_ENFORCE", 0) != 0 {
        let min_ratio = bench::env_f64("AOSI_BENCH_MIN_RATIO", 4.0);
        if ratio < min_ratio {
            eprintln!(
                "ENFORCE FAILED: dataset is only {ratio:.2}x the budget, need {min_ratio:.2}x"
            );
            std::process::exit(1);
        }
        if max_resident_after_sweep > budget_bytes {
            eprintln!(
                "ENFORCE FAILED: resident bytes peaked at {max_resident_after_sweep} after an \
                 eviction sweep, budget is {budget_bytes}"
            );
            std::process::exit(1);
        }
        if stats.spills == 0 || stats.reloads == 0 {
            eprintln!(
                "ENFORCE FAILED: no cold-tier cycling ({} spills, {} reloads)",
                stats.spills, stats.reloads
            );
            std::process::exit(1);
        }
        if stats.spill_failures != 0 || stats.reload_failures != 0 || sweep_failures != 0 {
            eprintln!(
                "ENFORCE FAILED: {} spill failures, {} reload failures, {} sweep failures",
                stats.spill_failures, stats.reload_failures, sweep_failures
            );
            std::process::exit(1);
        }
        println!("enforce: OK");
    }
}
