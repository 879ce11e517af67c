//! `bulk_load_durable`: the write-only workload. One loader thread
//! (so every count repeats exactly) drives the library API:
//! time-ordered 2000-row `Engine::load`s into a tiered engine whose
//! budget is a quarter of the dataset, a WAL flush round and an
//! eviction sweep every 20 batches on the real filesystem, then
//! `recover_into` a fresh engine.
//!
//! `day` advances with the batch id, so old bricks go clean-cold and
//! stay spilled; every 50th batch is a late-arriving backfill for one
//! old day, which must fault its bricks back in.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cluster::ReplicationTracker;
use columnar::{Row, Value};
use cubrick::sql;
use cubrick::{AggFn, Aggregation, Engine, IsolationMode, Query, TierStats};
use wal::{recover_into, FlushController, WalBrickStore};

use crate::common::{
    ms, peak_rss_mb, ratio, report_value, set_up_repeatedly, shard_count, stream, us, Opts,
};
use crate::gen::{self, Fingerprint, Rng};
use crate::probes;
use crate::report::{Metrics, Outcome};
use crate::stats::Samples;
use crate::trace::{self, Tracer};

const CUBE: &str = "events";
const BATCH_ROWS: usize = 2000;
const FLUSH_EVERY: usize = 20;
const BACKFILL_EVERY: usize = 50;
/// Batches set-up loads (with the same flush cadence) before the
/// measured window: the untimed warm-up of this workload.
const PREFIX_BATCHES: usize = 300;
/// Sizing, measured once on the 2-core reference box and frozen: the
/// measured window loads `seconds x` this many batches, which takes
/// about three quarters of `seconds` there. A fixed count, not a
/// deadline, so that WAL bytes, spills and reloads are the same
/// numbers on every run of a seed.
const BATCHES_PER_SECOND: f64 = 300.0;
/// The tier budget per row of the whole dataset: under a quarter of
/// the ~44 bytes a row of this cube costs in memory (data + epochs
/// vector), so the dataset ends at 4.4x the budget.
const BUDGET_BYTES_PER_ROW: usize = 10;

/// Batch `id` of `total`: its rows and their `SUM(likes)`.
fn batch(rng: &mut Rng, id: usize, total: usize) -> (Vec<Row>, f64) {
    let today = (id as u64 * gen::EVENT_DAYS / total as u64).min(gen::EVENT_DAYS - 1);
    let day = if id % BACKFILL_EVERY == BACKFILL_EVERY - 1 && today >= 16 {
        rng.below(today - 8)
    } else {
        today
    };
    let rows: Vec<Row> = (0..BATCH_ROWS).map(|_| gen::row(rng, day)).collect();
    let likes = rows
        .iter()
        .map(|row| match row[3] {
            Value::I64(likes) => likes as f64,
            _ => unreachable!("likes is an INT"),
        })
        .sum();
    (rows, likes)
}

/// The engine under load plus everything the checks need.
struct Loader {
    engine: Engine,
    flusher: FlushController,
    tracker: ReplicationTracker,
    wal_dir: PathBuf,
    budget_bytes: u64,
    rng: Rng,
    total_batches: usize,
    next_batch: usize,
    likes_loaded: f64,
    failures: Vec<String>,
    // Measured-window accounting.
    wal_bytes: u64,
    max_resident_after_sweep: u64,
    epochs_bytes_max: usize,
}

impl Loader {
    /// Set-up: the store and WAL directories, the tiered engine, the
    /// cube, the flush controller, and the first `prefix` batches.
    fn set_up(dir: &Path, seed: u64, total_batches: usize, prefix: usize) -> Loader {
        let _ = std::fs::remove_dir_all(dir);
        let wal_dir = dir.join("wal");
        let store = WalBrickStore::open(dir.join("tier")).expect("open brick store");
        let budget_bytes = (total_batches * BATCH_ROWS * BUDGET_BYTES_PER_ROW) as u64;
        let engine =
            Engine::new(shard_count()).with_tiered_storage(Box::new(store), budget_bytes as usize);
        sql::execute(&engine, gen::EVENTS_DDL).expect("create cube");
        let mut loader = Loader {
            engine,
            flusher: FlushController::new(&wal_dir, 1).expect("flush controller"),
            tracker: ReplicationTracker::new(1),
            wal_dir,
            budget_bytes,
            rng: stream(seed, 0),
            total_batches,
            next_batch: 0,
            likes_loaded: 0.0,
            failures: Vec::new(),
            wal_bytes: 0,
            max_resident_after_sweep: 0,
            epochs_bytes_max: 0,
        };
        let mut untraced = Tracer::new();
        untraced.set_recording(false);
        let mut unmeasured = Window::open();
        for _ in 0..prefix {
            loader.step(&mut untraced, &mut unmeasured);
        }
        loader
    }

    /// One batch, plus the flush round and sweep when one is due.
    fn step(&mut self, tracer: &mut Tracer, window: &mut Window) {
        let id = self.next_batch;
        self.next_batch += 1;
        let (rows, likes) = batch(&mut self.rng, id, self.total_batches);
        // Every other batch is recorded; the difference between the
        // two halves' medians is the tracing overhead.
        let recorded = trace::alternate(id as u32);
        let was_recording = tracer.set_recording(recorded && tracer.is_recording());
        let op = id as u32;
        let (outcome, span, took) =
            tracer.time("engine.load", op, None, || self.engine.load(CUBE, &rows, 0));
        window.attempted += 1;
        match outcome {
            Ok(outcome) if outcome.rejected == 0 => {
                tracer.stage("engine.load.parse", span, outcome.timings.parse);
                tracer.stage("engine.load.flush", span, outcome.timings.flush);
                self.likes_loaded += likes;
                window.loads.push((ms(took), recorded));
                window.parse_us.push(us(outcome.timings.parse));
                window.flush_us.push(us(outcome.timings.flush));
            }
            other => {
                window.failed += 1;
                self.failures.push(format!("load of batch {id}: {other:?}"));
            }
        }
        tracer.set_recording(was_recording);
        if !self.next_batch.is_multiple_of(FLUSH_EVERY) && self.next_batch != self.total_batches {
            return;
        }
        window.attempted += 2;
        let (round, _, took) = tracer.time("wal.flush_round", op, None, || {
            self.flusher.flush_round(&self.engine, &self.tracker)
        });
        match round {
            Ok(round) => {
                self.wal_bytes += round.bytes_written;
                window.flush_round_ms.push(ms(took));
            }
            Err(e) => {
                window.failed += 1;
                self.failures
                    .push(format!("flush round after batch {id}: {e}"));
            }
        }
        let (sweep, _, took) = tracer.time("tier.enforce", op, None, || {
            self.engine.enforce_tier_budget()
        });
        window.enforce_ms.push(ms(took));
        self.max_resident_after_sweep = self
            .max_resident_after_sweep
            .max(sweep.resident_bytes_after);
        if sweep.failed > 0 || sweep.resident_bytes_after > self.budget_bytes {
            window.failed += 1;
            self.failures.push(format!(
                "sweep after batch {id}: {} failed spills, {} resident bytes over a budget of {}",
                sweep.failed, sweep.resident_bytes_after, self.budget_bytes
            ));
        }
        self.epochs_bytes_max = self.epochs_bytes_max.max(self.engine.memory().aosi_bytes);
    }

    fn tier_stats(&self) -> TierStats {
        self.engine.tier_stats().expect("tiered engine")
    }

    /// `[wal.flush]` counters: rounds, file syncs, directory syncs.
    fn wal_counters(&self) -> [f64; 3] {
        let report = self.flusher.metrics_report();
        ["rounds_written", "file_syncs", "dir_syncs"]
            .map(|name| report_value(&report, "wal.flush", name).unwrap_or(0.0))
    }
}

/// Samples of the measured window.
struct Window {
    opened: Instant,
    /// Per `Engine::load`: wall ms, and whether the tracer recorded it.
    loads: Vec<(f64, bool)>,
    parse_us: Samples,
    flush_us: Samples,
    flush_round_ms: Samples,
    enforce_ms: Samples,
    attempted: u64,
    failed: u64,
}

impl Window {
    fn open() -> Window {
        Window {
            opened: Instant::now(),
            loads: Vec::new(),
            parse_us: Samples::new(),
            flush_us: Samples::new(),
            flush_round_ms: Samples::new(),
            enforce_ms: Samples::new(),
            attempted: 0,
            failed: 0,
        }
    }
}

fn sum_likes(engine: &Engine) -> Result<f64, String> {
    engine
        .query(
            CUBE,
            &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
            IsolationMode::Snapshot,
        )
        .map(|result| result.scalar().unwrap_or(0.0))
        .map_err(|e| e.to_string())
}

pub fn run(opts: &Opts) -> Outcome {
    let mut metrics = Metrics::default();
    let prefix = opts.scaled(PREFIX_BATCHES);
    let measured = ((opts.seconds * BATCHES_PER_SECOND) as usize).max(FLUSH_EVERY);
    let measured = if opts.smoke { measured / 4 } else { measured };
    let total = prefix + measured;
    let dir = opts
        .results_dir
        .join(format!("bulk-{}", std::process::id()));

    let mut fingerprint = Fingerprint::default();
    {
        let mut rng = stream(opts.seed, 0);
        for id in 0..total.min(5) {
            // 5 batches x 2000 rows: the first 10k generated rows.
            for row in batch(&mut rng, id, total).0 {
                fingerprint.feed(format!("{row:?}").as_bytes());
            }
        }
    }

    let (mut loader, setup_s) =
        set_up_repeatedly(opts, || Loader::set_up(&dir, opts.seed, total, prefix));

    // The measured window: the remaining batches.
    let mut tracer = Tracer::new();
    tracer.set_recording(opts.trace);
    let tier_before = loader.tier_stats();
    let wal_before = loader.wal_counters();
    let wal_bytes_before = loader.wal_bytes;
    let mut window = Window::open();
    for _ in prefix..total {
        loader.step(&mut tracer, &mut window);
    }
    let ingest_s = window.opened.elapsed().as_secs_f64();
    let rows = (measured * BATCH_ROWS) as f64;
    let tier = loader.tier_stats();
    let memory = loader.engine.memory();
    let peak_rss = peak_rss_mb();

    // Recovery: the round chain alone must rebuild every row.
    let recovered = Engine::new(shard_count());
    sql::execute(&recovered, gen::EVENTS_DDL).expect("create cube");
    let (report, _, recover_took) = tracer.time("wal.recover_into", total as u32, None, || {
        recover_into(&loader.wal_dir, &recovered)
    });
    let total_rows = (total * BATCH_ROWS) as u64;
    let mut violations = std::mem::take(&mut loader.failures);
    let mut check = |ok: bool, why: String| {
        window.attempted += 1;
        if !ok {
            window.failed += 1;
            violations.push(why);
        }
    };
    let mut rounds_applied = 0;
    match &report {
        Ok(report) => {
            rounds_applied = report.rounds_applied;
            check(
                report.rows_recovered == total_rows
                    && report.gaps_detected == 0
                    && report.unknown_cube_deltas == 0,
                format!("recovery of {total_rows} rows: {report:?}"),
            );
        }
        Err(e) => check(false, format!("recovery failed: {e}")),
    }
    let recovered_sum = sum_likes(&recovered);
    check(
        recovered_sum == Ok(loader.likes_loaded),
        format!(
            "recovered SUM(likes) {recovered_sum:?} != loaded {}",
            loader.likes_loaded
        ),
    );
    // The live sum faults every spilled brick back in, so it runs
    // after the tier counters were read.
    let live_sum = sum_likes(&loader.engine);
    check(
        live_sum == Ok(loader.likes_loaded),
        format!(
            "live SUM(likes) {live_sum:?} != loaded {}",
            loader.likes_loaded
        ),
    );
    let after = loader.tier_stats();
    check(
        after.spill_failures == 0 && after.reload_failures == 0,
        format!(
            "{} spill failures, {} reload failures",
            after.spill_failures, after.reload_failures
        ),
    );
    let dataset_bytes = tier.resident_bytes + tier.spilled_resident_bytes;
    let dataset_over_budget = ratio(dataset_bytes as f64, loader.budget_bytes as f64);
    let spills = tier.spills - tier_before.spills;
    let reloads = tier.reloads - tier_before.reloads;
    if !opts.smoke {
        check(
            dataset_over_budget >= 4.0 && spills > 0 && reloads > 0 && reloads < spills,
            format!(
                "the tier is not exercised as designed: dataset {dataset_over_budget:.2}x the \
                 budget, {spills} spills, {reloads} reloads"
            ),
        );
    }

    // Whole-window figures, not the serving workloads' best second:
    // the loads of a window are not alike (every 50th is a backfill,
    // every 20th is followed by a round and a sweep, the cube grows),
    // so a slice's percentile depends on which loads fell into it.
    let mut loads = Samples::new();
    let [mut plain, mut traced] = [Samples::new(), Samples::new()];
    for &(load_ms, recorded) in &window.loads {
        loads.push(load_ms);
        if recorded { &mut traced } else { &mut plain }.push(load_ms);
    }
    metrics.set("op_p50_ms", loads.percentile_or_zero(50.0));
    metrics.set("op_p95_ms", loads.percentile_or_zero(95.0));
    // Flush rounds and sweeps included.
    metrics.set("ops_per_s", measured as f64 / ingest_s);
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set(
        "aosi_bytes_per_row",
        ratio(memory.aosi_bytes as f64, memory.rows as f64),
    );
    metrics.set("setup_s", setup_s);

    if opts.trace {
        metrics.set_validity(fingerprint.value(), loads.count(), &mut plain, &mut traced);
        metrics.set("bench.traced_ops", measured as f64);
        metrics.set(
            "engine.load_parse_us_p50",
            window.parse_us.percentile_or_zero(50.0),
        );
        metrics.set(
            "engine.load_flush_us_p50",
            window.flush_us.percentile_or_zero(50.0),
        );
        metrics.set("engine.load_ns_per_row", ratio(loads.sum() * 1e6, rows));
        metrics.set(
            "wal.flush_round_ms_p50",
            window.flush_round_ms.percentile_or_zero(50.0),
        );
        let wal_bytes = (loader.wal_bytes - wal_bytes_before) as f64;
        metrics.set(
            "wal.flush_mb_per_s",
            ratio(wal_bytes / 1e6, window.flush_round_ms.sum() / 1e3),
        );
        let wal_after = loader.wal_counters();
        for (name, (after, before)) in ["wal.rounds", "wal.file_syncs", "wal.dir_syncs"]
            .into_iter()
            .zip(wal_after.iter().zip(wal_before))
        {
            metrics.set(name, after - before);
        }
        metrics.set("wal.bytes_per_row", ratio(wal_bytes, rows));
        metrics.set("wal.recover_s", recover_took.as_secs_f64());
        metrics.set(
            "wal.recover_rows_per_s",
            ratio(total_rows as f64, recover_took.as_secs_f64()),
        );
        metrics.set("wal.rounds_applied", rounds_applied as f64);
        metrics.set(
            "tier.enforce_ms_p50",
            window.enforce_ms.percentile_or_zero(50.0),
        );
        metrics.set("tier.spills", spills as f64);
        metrics.set("tier.reloads", reloads as f64);
        metrics.set(
            "tier.reloads_per_spill",
            ratio(reloads as f64, spills as f64),
        );
        metrics.set(
            "tier.spilled_file_bytes_per_resident_byte",
            ratio(
                tier.spilled_file_bytes as f64,
                tier.spilled_resident_bytes as f64,
            ),
        );
        metrics.set(
            "tier.max_resident_over_budget",
            ratio(
                loader.max_resident_after_sweep as f64,
                loader.budget_bytes as f64,
            ),
        );
        metrics.set("tier.dataset_over_budget", dataset_over_budget);
        metrics.set("tier.spill_failures", after.spill_failures as f64);
        metrics.set("tier.reload_failures", after.reload_failures as f64);
        metrics.set("aosi.epochs_bytes_max", loader.epochs_bytes_max as f64);
        metrics.set(
            "columnar.data_bytes_per_row",
            ratio(memory.data_bytes as f64, memory.rows as f64),
        );
        metrics.set("columnar.dictionary_bytes", memory.dictionary_bytes as f64);
        let report = loader.engine.metrics_report();
        metrics.set(
            "shard.panics_caught",
            report_value(&report, "shards", "panics_caught").unwrap_or(0.0),
        );
        probes::run(&mut metrics);
        let path = opts.results_dir.join("trace-bulk_load_durable.jsonl");
        if let Err(e) = tracer.write_jsonl(&path) {
            violations.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let (attempted, failed) = (window.attempted, window.failed);
    drop(loader);
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        attempted,
        failed,
        violations,
        metrics,
    }
}
