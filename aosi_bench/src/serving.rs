//! The three HTTP workloads over the shared `dash` cube: `dash_scan`,
//! `realtime_mixed` and `pinned_replay`.
//!
//! Load model: the server runs in-process (`Server::start`, default
//! `ServerConfig`, default `ScanConfig`) on loopback and the
//! generator is at most two client threads, each a closed loop on its
//! own keep-alive connection. `realtime_mixed` swaps one reader for
//! an open-loop writer at a fixed rate — the reader's latency is then
//! measured at the same write pressure on both sides of a comparison
//! — and adds a benchmark-owned 1 Hz purge tick.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aosi::{CacheStats, Snapshot};
use columnar::Value;
use cubrick::sql::{self, Statement};
use cubrick::{Engine, QueryStats};
use server::client::Client;
use server::json::{self, Json};
use server::{Server, ServerConfig, ServerHandle};

use crate::common::{
    ms, peak_rss_mb, ratio, report_value, set_up_repeatedly, shard_count, sleep_until, stream, us,
    Clock, Opts,
};
use crate::gen::{self, Fingerprint, Mix, Rng, Template, TEMPLATES};
use crate::probes;
use crate::report::{Metrics, Outcome};
use crate::stats::{Samples, Slices};
use crate::trace::{self, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DashScan,
    RealtimeMixed,
    PinnedReplay,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::DashScan => "dash_scan",
            Kind::RealtimeMixed => "realtime_mixed",
            Kind::PinnedReplay => "pinned_replay",
        }
    }

    /// Rows loaded before the server starts.
    fn preload_rows(self) -> usize {
        match self {
            Kind::DashScan | Kind::PinnedReplay => 2_000_000,
            Kind::RealtimeMixed => 500_000,
        }
    }

    /// Closed-loop reader connections. One for `dash_scan`: a query
    /// already fans out over every shard thread, and on the 2-core
    /// reference box a second client added no throughput (178 against
    /// 183 queries/s) while doubling the run-to-run spread.
    fn readers(self) -> usize {
        match self {
            Kind::DashScan | Kind::RealtimeMixed => 1,
            Kind::PinnedReplay => 2,
        }
    }
}

const PRELOAD_BATCH_ROWS: usize = 5000;
/// Distinct preload batches; the preload cycles through them, so the
/// generator holds 40k rows, not the cube.
const POOL_BATCHES: usize = 8;
/// The open-loop writer: 250-row INSERTs, one every 10 ms.
const INSERT_ROWS: usize = 250;
const INSERT_INTERVAL: Duration = Duration::from_millis(10);
const INSERT_POOL: usize = 64;
/// `dash_scan` re-runs 1 in 50 served statements through the
/// row-at-a-time reference, at most this many (a reference scan of 2M
/// rows costs ~0.1 s).
const REFERENCE_EVERY: u64 = 50;
const REFERENCE_MAX: usize = 24;
/// The traced pass replays the first ops of client 0's stream until
/// either limit.
const REPLAY_OPS: u32 = 2000;
const REPLAY_BUDGET: Duration = Duration::from_secs(8);
/// In the `realtime_mixed` replay every fifth op is an INSERT.
const REPLAY_INSERT_EVERY: u32 = 5;

/// Client-observed median per template, in `TEMPLATES` order.
const TEMPLATE_P50_METRICS: [&str; 6] = [
    "query.t_total_p50_ms",
    "query.t_region_top_p50_ms",
    "query.t_minmax_day_p50_ms",
    "query.t_app_in_p50_ms",
    "query.t_region_in_p50_ms",
    "query.t_slice_p50_ms",
];

struct Fixture {
    engine: Arc<Engine>,
    server: ServerHandle,
    rows: u64,
}

/// Set-up as the program sees it: create the cube, load the preload
/// through `Engine::load`, purge (unless history is the point), start
/// the server. The row pool is generated before the clock starts.
fn set_up(kind: Kind, pool: &[Vec<columnar::Row>], batches: usize) -> Fixture {
    let engine = Arc::new(Engine::new(shard_count()));
    sql::execute(&engine, gen::DASH_DDL).expect("create cube");
    for batch in 0..batches {
        let outcome = engine
            .load("dash", &pool[batch % pool.len()], 0)
            .expect("preload");
        assert_eq!(outcome.rejected, 0, "generated rows are all valid");
    }
    if kind != Kind::PinnedReplay {
        engine.advance_lse_and_purge();
    }
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).expect("start server");
    Fixture {
        engine,
        server,
        rows: (batches * PRELOAD_BATCH_ROWS) as u64,
    }
}

/// What one reader saw.
#[derive(Default)]
struct ReaderLog {
    /// Measured window only: seconds into the window the request
    /// was sent, its latency in ms, its template.
    ops: Vec<(f64, f64, Template)>,
    attempted: u64,
    failed: u64,
    /// Replies the server marked `x-cubrick-dedup: shared`.
    shared: u64,
    /// `dash_scan`: served (statement, reply body) pairs to re-run.
    to_check: Vec<(String, String)>,
    violations: Vec<String>,
}

/// The statement source of one reader.
enum Source {
    Mix(Mix, Rng),
    /// `pinned_replay`: the fixed statements, round robin.
    Fixed(Vec<(Template, String)>, usize),
}

impl Source {
    fn for_client(kind: Kind, seed: u64, client: usize) -> Source {
        match kind {
            Kind::DashScan => Source::Mix(Mix::DASH_SCAN, stream(seed, client as u64)),
            Kind::RealtimeMixed => Source::Mix(Mix::REALTIME, stream(seed, client as u64)),
            // Both clients replay the same six statements; the second
            // starts half a cycle in.
            Kind::PinnedReplay => Source::Fixed(fixed_statements(seed), client * 3),
        }
    }

    fn next(&mut self) -> (Template, String) {
        match self {
            Source::Mix(mix, rng) => {
                let template = mix.pick(rng);
                (template, template.statement(rng))
            }
            Source::Fixed(statements, at) => {
                let next = statements[*at % statements.len()].clone();
                *at += 1;
                next
            }
        }
    }
}

fn fixed_statements(seed: u64) -> Vec<(Template, String)> {
    let mut rng = stream(seed, 100);
    TEMPLATES
        .iter()
        .map(|&t| (t, t.statement(&mut rng)))
        .collect()
}

fn insert_pool(seed: u64) -> Vec<String> {
    let mut rng = stream(seed, 200);
    (0..INSERT_POOL)
        .map(|_| gen::insert_statement(&mut rng, INSERT_ROWS))
        .collect()
}

/// Hash of the first 10k operations client 0 would issue (and, in
/// `realtime_mixed`, of the writer's statement pool): equal seeds must
/// print equal fingerprints whatever the machine's speed.
fn workload_fingerprint(kind: Kind, seed: u64) -> u32 {
    let mut fingerprint = Fingerprint::default();
    let mut source = Source::for_client(kind, seed, 0);
    for _ in 0..10_000 {
        fingerprint.feed(source.next().1.as_bytes());
    }
    if kind == Kind::RealtimeMixed {
        for statement in insert_pool(seed) {
            fingerprint.feed(statement.as_bytes());
        }
    }
    fingerprint.value()
}

/// Opens a session pinned to `epoch`.
fn open_pinned_session(client: &mut Client, epoch: u64) -> u64 {
    let opened = client
        .request("POST", "/session", None)
        .expect("open session")
        .json()
        .expect("session reply");
    let session = opened
        .get("session")
        .and_then(Json::as_f64)
        .expect("session id") as u64;
    let body = json::obj([
        ("session", Json::num(session as f64)),
        ("epoch", Json::num(epoch as f64)),
    ]);
    let pinned = client
        .request("POST", "/session/pin", Some(&body))
        .expect("pin session");
    assert_eq!(pinned.status, 200, "pin refused: {}", pinned.body);
    session
}

/// `COUNT(*)` of a single-row reply.
fn reply_count(reply: &Json) -> Option<f64> {
    let column = reply
        .get("columns")?
        .as_arr()?
        .iter()
        .position(|c| c.as_str() == Some("count(*)"))?;
    reply
        .get("rows")?
        .as_arr()?
        .first()?
        .as_arr()?
        .get(column)?
        .as_f64()
}

fn reader(
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    client_id: usize,
    clock: Clock,
    pin: Option<u64>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut client = Client::connect(fx.server.addr()).expect("connect");
    let session = pin.map(|epoch| open_pinned_session(&mut client, epoch));
    let mut source = Source::for_client(kind, seed, client_id);
    // pinned_replay: the first reply to each statement, by template.
    let mut first_reply: [Option<String>; 6] = Default::default();
    // realtime_mixed: the last COUNT(*) this reader saw.
    let mut last_count = 0.0f64;
    let mut issued = 0u64;
    loop {
        let started = Instant::now();
        if started >= clock.end {
            return log;
        }
        let (template, statement) = source.next();
        let reply = client.query(&statement, session);
        let took = started.elapsed();
        let measured = started >= clock.measure_from;
        if measured {
            log.attempted += 1;
        }
        let reply = match reply {
            Ok(reply) if reply.status == 200 => reply,
            other => {
                log.failed += u64::from(measured);
                log.violations.push(format!(
                    "{statement}: {}",
                    match other {
                        Ok(reply) => format!("status {} {}", reply.status, reply.body),
                        Err(e) => format!("transport error {e}"),
                    }
                ));
                continue;
            }
        };
        if measured {
            log.ops.push((
                (started - clock.measure_from).as_secs_f64(),
                ms(took),
                template,
            ));
            log.shared += u64::from(reply.header("x-cubrick-dedup") == Some("shared"));
        }
        issued += 1;
        match kind {
            Kind::DashScan => {
                if issued.is_multiple_of(REFERENCE_EVERY) && log.to_check.len() < REFERENCE_MAX {
                    log.to_check.push((statement, reply.body));
                }
            }
            // Snapshot isolation as a client can see it: a batch is
            // never torn (the count moves in whole statements) and a
            // reader never goes back in time.
            Kind::RealtimeMixed => {
                if template == Template::Total {
                    let count = reply.json().ok().as_ref().and_then(reply_count);
                    let whole = |c: f64| (c - fx.rows as f64) % INSERT_ROWS as f64 == 0.0;
                    match count {
                        Some(c) if whole(c) && c >= last_count => last_count = c,
                        _ => {
                            log.failed += 1;
                            log.violations.push(format!(
                                "SI violation: COUNT(*) {count:?} after {last_count} \
                                 (preload {}): {}",
                                fx.rows, reply.body
                            ));
                        }
                    }
                }
            }
            Kind::PinnedReplay => match &first_reply[template.index()] {
                None => first_reply[template.index()] = Some(reply.body),
                Some(first) if *first == reply.body => {}
                Some(first) => {
                    log.failed += 1;
                    log.violations.push(format!(
                        "pinned reply changed for {statement}: {first} then {}",
                        reply.body
                    ));
                }
            },
        }
    }
}

/// What the open-loop writer saw.
#[derive(Default)]
struct WriterLog {
    /// ms from when the statement was due to its ack, window only.
    latency: Samples,
    /// ms the generator sent after the due time, window only.
    late: Samples,
    attempted: u64,
    failed: u64,
    /// Acked statements, warm-up included (for the final count).
    acked: u64,
    violations: Vec<String>,
}

fn writer(fx: &Fixture, statements: &[String], clock: Clock) -> WriterLog {
    let mut log = WriterLog::default();
    let mut client = Client::connect(fx.server.addr()).expect("connect");
    for i in 0u32.. {
        let due = clock.start + INSERT_INTERVAL * i;
        if due >= clock.end {
            break;
        }
        sleep_until(due);
        let sent = Instant::now();
        let reply = client.query(&statements[i as usize % statements.len()], None);
        let acked_at = Instant::now();
        let measured = due >= clock.measure_from;
        log.attempted += u64::from(measured);
        match reply {
            Ok(reply) if reply.status == 200 => {
                log.acked += 1;
                if measured {
                    log.latency.push(ms(acked_at - due));
                    log.late.push(ms(sent - due));
                }
            }
            other => {
                log.failed += u64::from(measured);
                log.violations.push(format!(
                    "INSERT failed: {:?}",
                    other.map(|r| (r.status, r.body))
                ));
            }
        }
    }
    log
}

/// What the 1 Hz tick sampled (and, in `realtime_mixed`, purged).
#[derive(Default)]
struct TickLog {
    aosi_bytes_per_row: Samples,
    epochs_bytes_max: f64,
    queue_depth_max: f64,
    purge_ms: Samples,
    entries_reclaimed: u64,
    cycles: u64,
}

fn ticker(kind: Kind, engine: &Engine, clock: Clock) -> TickLog {
    let mut log = TickLog::default();
    for tick in 1u32.. {
        let at = clock.start + Duration::from_secs(1) * tick;
        if at >= clock.end {
            break;
        }
        sleep_until(at);
        let measured = at >= clock.measure_from;
        // Before the purge: the epochs vectors at their longest.
        let memory = engine.memory();
        let depth = report_value(&engine.metrics_report(), "shards", "queue_depth");
        let purge = (kind == Kind::RealtimeMixed).then(|| {
            let started = Instant::now();
            let stats = engine.advance_lse_and_purge();
            (started.elapsed(), stats)
        });
        if !measured {
            continue;
        }
        log.aosi_bytes_per_row
            .push(ratio(memory.aosi_bytes as f64, memory.rows as f64));
        log.epochs_bytes_max = log.epochs_bytes_max.max(memory.aosi_bytes as f64);
        log.queue_depth_max = log.queue_depth_max.max(depth.unwrap_or(0.0));
        if let Some((took, stats)) = purge {
            log.purge_ms.push(ms(took));
            log.entries_reclaimed += stats.entries_reclaimed;
            log.cycles += 1;
        }
    }
    log
}

/// Cumulative counters read at both ends of the measured window.
struct Counters {
    agg: CacheStats,
    vis: CacheStats,
    queries: f64,
    parallel: f64,
    sequential: f64,
    shard_tasks: f64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        let report = engine.metrics_report();
        let value = |section, name| report_value(&report, section, name).unwrap_or(0.0);
        Counters {
            agg: engine
                .agg_cache_stats()
                .expect("the default ScanConfig keeps the aggregate cache on"),
            vis: engine
                .visibility_cache_stats()
                .expect("the default ScanConfig keeps the visibility cache on"),
            queries: value("engine", "queries"),
            parallel: value("engine", "parallel_queries"),
            sequential: value("engine", "sequential_queries"),
            shard_tasks: value("shards", "tasks"),
        }
    }
}

/// `dash_scan`: the served rows must equal the row-at-a-time oracle's
/// at the epoch the reply names.
fn check_against_reference(engine: &Engine, statement: &str, body: &str) -> Result<(), String> {
    let Ok(Statement::Select { cube, query, .. }) = sql::parse(statement) else {
        return Err(format!("cannot re-parse {statement}"));
    };
    let reply = json::parse(body)?;
    let epoch = reply
        .get("epoch")
        .and_then(Json::as_f64)
        .ok_or("reply has no epoch")? as u64;
    let guard = engine.manager().guard_snapshot(Snapshot::committed(epoch));
    let reference = engine
        .query_at_reference(&cube, &query, guard.snapshot())
        .map_err(|e| e.to_string())?;
    let expected = Json::Arr(
        reference
            .rows
            .iter()
            .map(|(keys, values)| {
                let mut cells: Vec<Json> = keys
                    .iter()
                    .map(|key| match key {
                        Value::Str(s) => Json::str(s.as_str()),
                        Value::I64(i) => Json::num(*i as f64),
                        Value::F64(f) => Json::num(*f),
                    })
                    .collect();
                cells.extend(values.iter().map(|&v| Json::num(v)));
                Json::Arr(cells)
            })
            .collect(),
    );
    if reply.get("rows") == Some(&expected) {
        Ok(())
    } else {
        Err(format!(
            "served rows differ from the reference for {statement}: {body} vs {}",
            expected.render()
        ))
    }
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut metrics = Metrics::default();
    let mut violations = Vec::new();
    let batches = opts.scaled(kind.preload_rows() / PRELOAD_BATCH_ROWS);
    let pool: Vec<Vec<columnar::Row>> = {
        let mut rng = stream(opts.seed, 300);
        (0..POOL_BATCHES)
            .map(|_| gen::dash_batch(&mut rng, PRELOAD_BATCH_ROWS))
            .collect()
    };
    let fingerprint = workload_fingerprint(kind, opts.seed);

    let (fx, setup_s) = set_up_repeatedly(opts, || set_up(kind, &pool, batches));
    drop(pool);
    let engine = &*fx.engine;

    // pinned_replay reads mid-history; nothing purges, so the epoch
    // stays inside [LSE, LCE] for the whole run.
    let pin = (kind == Kind::PinnedReplay).then(|| engine.manager().lce() / 2);
    let inserts = if kind == Kind::RealtimeMixed {
        insert_pool(opts.seed)
    } else {
        Vec::new()
    };

    // Warm-up, then the measured window.
    let clock = Clock::starting_now(opts.warmup(), opts.seconds);
    let (readers, writer_log, ticks, before, after) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..kind.readers())
            .map(|id| {
                let fx = &fx;
                scope.spawn(move || reader(kind, fx, opts.seed, id, clock, pin))
            })
            .collect();
        let writer =
            (kind == Kind::RealtimeMixed).then(|| scope.spawn(|| writer(&fx, &inserts, clock)));
        let ticker = scope.spawn(|| ticker(kind, engine, clock));
        sleep_until(clock.measure_from);
        let before = Counters::read(engine);
        let readers: Vec<ReaderLog> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect();
        let writer_log = writer.map(|w| w.join().expect("writer thread"));
        let ticks = ticker.join().expect("ticker thread");
        (readers, writer_log, ticks, before, Counters::read(engine))
    });
    let memory = engine.memory();
    let server_report = fx.server.state().metrics_report();

    // Client-observed latencies.
    let mut all = Samples::new();
    let mut slices = Slices::new(clock.window_s());
    let mut per_template: [Samples; 6] = Default::default();
    let (mut attempted, mut failed, mut shared) = (0u64, 0u64, 0u64);
    for log in &readers {
        for &(at_s, latency_ms, template) in &log.ops {
            all.push(latency_ms);
            slices.push(at_s, latency_ms);
            per_template[template.index()].push(latency_ms);
        }
        attempted += log.attempted;
        failed += log.failed;
        shared += log.shared;
        violations.extend(log.violations.iter().cloned());
    }
    let selects = all.count();
    if let Some(log) = &writer_log {
        attempted += log.attempted;
        failed += log.failed;
        violations.extend(log.violations.iter().cloned());
    }

    // Correctness inside the run.
    match kind {
        Kind::DashScan => {
            for (statement, body) in readers.iter().flat_map(|log| &log.to_check) {
                attempted += 1;
                if let Err(why) = check_against_reference(engine, statement, body) {
                    failed += 1;
                    violations.push(why);
                }
            }
        }
        Kind::RealtimeMixed => {
            let acked = writer_log.as_ref().map_or(0, |log| log.acked);
            let expected = fx.rows + INSERT_ROWS as u64 * acked;
            attempted += 1;
            if memory.rows != expected {
                failed += 1;
                violations.push(format!(
                    "final row count {} != preload {} + {INSERT_ROWS} x {acked} acked inserts",
                    memory.rows, fx.rows
                ));
            }
        }
        // Checked reply by reply in the readers.
        Kind::PinnedReplay => {}
    }

    metrics.set("op_p50_ms", slices.best_percentile(50.0));
    metrics.set("op_p95_ms", slices.best_percentile(95.0));
    metrics.set("ops_per_s", slices.best_rate());
    metrics.set("peak_rss_mb", peak_rss_mb());
    let mut aosi_per_row = ticks.aosi_bytes_per_row.clone();
    if aosi_per_row.is_empty() {
        aosi_per_row.push(ratio(memory.aosi_bytes as f64, memory.rows as f64));
    }
    metrics.set("aosi_bytes_per_row", aosi_per_row.percentile_or_zero(50.0));
    metrics.set("setup_s", setup_s);

    if opts.trace {
        metrics.set("server.select_p99_ms", all.percentile_or_zero(99.0));
        for (name, samples) in TEMPLATE_P50_METRICS.iter().zip(per_template.iter_mut()) {
            metrics.set(name, samples.percentile_or_zero(50.0));
        }
        metrics.set(
            "server.dedup_shared_ratio",
            ratio(shared as f64, selects as f64),
        );
        let server_value =
            |section, name| report_value(&server_report, section, name).unwrap_or(0.0);
        metrics.set(
            "server.rejected_429",
            server_value("server", "responses.429"),
        );
        metrics.set(
            "server.responses_5xx",
            server_value("server", "responses.5xx"),
        );
        metrics.set(
            "shard.panics_caught",
            server_value("shards", "panics_caught"),
        );
        if let Some(mut log) = writer_log {
            metrics.set("server.insert_p50_ms", log.latency.percentile_or_zero(50.0));
            metrics.set("server.insert_p95_ms", log.latency.percentile_or_zero(95.0));
            metrics.set("server.insert_p99_ms", log.latency.percentile_or_zero(99.0));
            metrics.set(
                "server.insert_acks_per_s",
                log.latency.count() as f64 / clock.window_s(),
            );
            metrics.set(
                "bench.generator_late_ms_p95",
                log.late.percentile_or_zero(95.0),
            );
        }
        let delta = |after: u64, before: u64| (after - before) as f64;
        let hit_ratio = |after: &CacheStats, before: &CacheStats| {
            let hits = delta(after.hits, before.hits);
            ratio(hits, hits + delta(after.misses, before.misses))
        };
        metrics.set("agg.cache_hit_ratio", hit_ratio(&after.agg, &before.agg));
        metrics.set(
            "agg.cache_evictions",
            delta(after.agg.evictions, before.agg.evictions),
        );
        metrics.set(
            "agg.cache_invalidations",
            delta(after.agg.invalidations, before.agg.invalidations),
        );
        metrics.set(
            "aosi.vis_cache_hit_ratio",
            hit_ratio(&after.vis, &before.vis),
        );
        metrics.set(
            "aosi.vis_cache_evictions",
            delta(after.vis.evictions, before.vis.evictions),
        );
        metrics.set(
            "aosi.vis_cache_invalidations",
            delta(after.vis.invalidations, before.vis.invalidations),
        );
        let queries = after.queries - before.queries;
        metrics.set(
            "engine.parallel_query_share",
            ratio(
                after.parallel - before.parallel,
                (after.parallel - before.parallel) + (after.sequential - before.sequential),
            ),
        );
        metrics.set(
            "shard.tasks_per_query",
            ratio(after.shard_tasks - before.shard_tasks, queries),
        );
        metrics.set("shard.queue_depth_max", ticks.queue_depth_max);
        metrics.set(
            "aosi.epochs_bytes_max",
            ticks.epochs_bytes_max.max(memory.aosi_bytes as f64),
        );
        let mut purge_ms = ticks.purge_ms.clone();
        metrics.set(
            "maintenance.purge_ms_p50",
            purge_ms.percentile_or_zero(50.0),
        );
        metrics.set("maintenance.purge_ms_max", purge_ms.max().unwrap_or(0.0));
        metrics.set(
            "maintenance.entries_reclaimed",
            ticks.entries_reclaimed as f64,
        );
        metrics.set("maintenance.cycles", ticks.cycles as f64);
        metrics.set(
            "columnar.data_bytes_per_row",
            ratio(memory.data_bytes as f64, memory.rows as f64),
        );
        metrics.set("columnar.dictionary_bytes", memory.dictionary_bytes as f64);

        let mut tracer = Tracer::new();
        let [mut plain, mut recorded] = traced_replay(
            kind,
            &fx,
            opts.seed,
            pin,
            &inserts,
            &mut tracer,
            &mut metrics,
        );
        metrics.set_validity(fingerprint, selects, &mut plain, &mut recorded);
        probes::run(&mut metrics);
        let path = opts
            .results_dir
            .join(format!("trace-{}.jsonl", kind.name()));
        if let Err(e) = tracer.write_jsonl(&path) {
            violations.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    Outcome {
        attempted,
        failed,
        violations,
        metrics,
    }
}

/// The traced pass: client 0's first operations again, one client,
/// each entered at every layer boundary in turn. Per SELECT:
///
/// 1. `engine.query_at` directly — the first execution, so it pays
///    what the served query paid (cold on a static cube, invalidated
///    after a write); its `QueryStats` give the visibility and scan
///    stages.
/// 2. the HTTP round trip, then `sql::parse`, `sql::execute_statement`
///    and `Engine::query_at` once more. All four see the caches step 1
///    filled, so their differences isolate what each layer adds
///    (framing, admission, dedup, JSON; resolve and render; dispatch)
///    with the kernel's cost out of the picture.
///
/// Every other op runs the same calls with recording off. Returns the
/// HTTP round-trip times in ms, `[recording off, recording on]`; the
/// difference of their medians is the tracing overhead.
fn traced_replay(
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    pin: Option<u64>,
    inserts: &[String],
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> [Samples; 2] {
    let engine = &*fx.engine;
    let mut client = Client::connect(fx.server.addr()).expect("connect");
    let session = pin.map(|epoch| open_pinned_session(&mut client, epoch));
    let mut source = Source::for_client(kind, seed, 0);
    let mut totals = QueryStats::default();
    let (mut queries, mut insert_rows, mut recorded_insert_rows) = (0u64, 0u64, 0u64);
    let mut query_us = Samples::new();
    let mut visibility_us = Samples::new();
    let mut scan_us = Samples::new();
    let mut http_ms = [Samples::new(), Samples::new()];
    let mut load_ns = 0.0;
    let started = Instant::now();
    let mut op = 0u32;
    while op < REPLAY_OPS && started.elapsed() < REPLAY_BUDGET {
        op += 1;
        let recorded = trace::alternate(op);
        tracer.set_recording(recorded);
        if kind == Kind::RealtimeMixed && op.is_multiple_of(REPLAY_INSERT_EVERY) {
            let statement = &inserts[(op / REPLAY_INSERT_EVERY) as usize % inserts.len()];
            let (reply, http, _) = tracer.time("server.http_insert", op, None, || {
                client.query(statement, None)
            });
            assert_eq!(reply.expect("insert").status, 200);
            let body = json::obj([("sql", Json::str(statement.as_str()))]).render();
            let _ = tracer.time("server.json_parse_insert", op, None, || json::parse(&body));
            let (parsed, _, _) =
                tracer.time("sql.parse_insert", op, Some(http), || sql::parse(statement));
            let Ok(Statement::Insert { cube, rows }) = parsed else {
                panic!("generated INSERT does not parse");
            };
            let (outcome, load, took) = tracer.time("engine.load", op, Some(http), || {
                engine.load(&cube, &rows, 0)
            });
            let outcome = outcome.expect("load");
            tracer.stage("engine.load.parse", load, outcome.timings.parse);
            tracer.stage("engine.load.flush", load, outcome.timings.flush);
            insert_rows += rows.len() as u64;
            recorded_insert_rows += if recorded { rows.len() as u64 } else { 0 };
            load_ns += took.as_nanos() as f64;
            continue;
        }
        let (_, statement) = source.next();
        let Ok(Statement::Select { cube, query, .. }) = sql::parse(&statement) else {
            panic!("generated SELECT does not parse");
        };
        let epoch = pin.unwrap_or_else(|| engine.manager().lce());
        let guard = engine.manager().guard_snapshot(Snapshot::committed(epoch));

        // 1. The first execution, at the engine.
        let (result, first, took) = tracer.time("engine.query_at", op, None, || {
            engine.query_at(&cube, &query, guard.snapshot())
        });
        let stats = result.expect("query").stats;
        // Stage nanos are summed across the shard tasks that ran in
        // parallel; per task they estimate the stage's share of the
        // wall time.
        let tasks = stats.parallel_tasks.max(1);
        tracer.stage(
            "aosi.visibility_build",
            first,
            Duration::from_nanos(stats.visibility_build_nanos / tasks),
        );
        tracer.stage(
            "query.scan",
            first,
            Duration::from_nanos(stats.scan_nanos / tasks),
        );
        totals.absorb(&stats);
        queries += 1;
        query_us.push(us(took));
        visibility_us.push(stats.visibility_build_nanos as f64 / 1e3);
        scan_us.push(stats.scan_nanos as f64 / 1e3);

        // 2. The same statement from the front door down, caches warm.
        let (reply, http, took) = tracer.time("server.http_query", op, None, || {
            client.query(&statement, session)
        });
        let reply = reply.expect("query over http");
        assert_eq!(reply.status, 200, "{}", reply.body);
        http_ms[usize::from(recorded)].push(ms(took));
        let (parsed, _, _) = tracer.time("sql.parse_select", op, Some(http), || {
            sql::parse(&statement)
        });
        let Ok(Statement::Select { cube, query, .. }) = parsed else {
            unreachable!("parsed above");
        };
        let pinned = Statement::Select {
            cube: cube.clone(),
            query: query.clone(),
            as_of: Some(epoch),
        };
        let (_, execute, _) = tracer.time("sql.execute_statement", op, Some(http), || {
            sql::execute_statement(engine, pinned)
        });
        let _ = tracer.time("engine.query_at.warm", op, Some(execute), || {
            engine.query_at(&cube, &query, guard.snapshot())
        });
        // The server's JSON work on this exchange, re-done here. Its
        // time is inside the round trip, so these carry no parent.
        let body = json::obj([("sql", Json::str(statement.as_str()))]).render();
        let _ = tracer.time("server.json_parse", op, None, || json::parse(&body));
        let rendered = reply.json().expect("reply is JSON");
        tracer.time("server.json_render", op, None, || rendered.render());
    }
    tracer.set_recording(true);

    let mut durations = tracer.durations_us();
    let mut own = tracer.self_times_us();
    let p50 = |map: &mut std::collections::BTreeMap<&'static str, Samples>, name: &str| {
        map.get_mut(name)
            .map_or(0.0, |s| s.percentile_or_zero(50.0))
    };
    metrics.set("bench.traced_ops", op as f64);
    metrics.set(
        "server.frontdoor_us_p50",
        p50(&mut own, "server.http_query"),
    );
    // The bodies that cost something to parse are the 250-row INSERTs;
    // where the workload has none, the SELECT bodies.
    let json_parse = if durations.contains_key("server.json_parse_insert") {
        "server.json_parse_insert"
    } else {
        "server.json_parse"
    };
    metrics.set("server.json_parse_us_p50", p50(&mut durations, json_parse));
    metrics.set(
        "server.json_render_us_p50",
        p50(&mut durations, "server.json_render"),
    );
    metrics.set(
        "sql.parse_select_us_p50",
        p50(&mut durations, "sql.parse_select"),
    );
    metrics.set(
        "sql.parse_insert_us_p50",
        p50(&mut durations, "sql.parse_insert"),
    );
    metrics.set(
        "sql.parse_insert_ns_per_row",
        ratio(
            durations.get("sql.parse_insert").map_or(0.0, Samples::sum) * 1e3,
            recorded_insert_rows as f64,
        ),
    );
    metrics.set(
        "sql.exec_overhead_us_p50",
        p50(&mut own, "sql.execute_statement"),
    );
    metrics.set("engine.query_us_p50", query_us.percentile_or_zero(50.0));
    metrics.set("engine.query_us_p95", query_us.percentile_or_zero(95.0));
    metrics.set(
        "engine.dispatch_merge_us_p50",
        p50(&mut own, "engine.query_at"),
    );
    metrics.set(
        "engine.load_parse_us_p50",
        p50(&mut durations, "engine.load.parse"),
    );
    metrics.set(
        "engine.load_flush_us_p50",
        p50(&mut durations, "engine.load.flush"),
    );
    metrics.set("engine.load_ns_per_row", ratio(load_ns, insert_rows as f64));
    let per_query = |total: u64| ratio(total as f64, queries as f64);
    metrics.set(
        "engine.bricks_scanned_per_query",
        per_query(totals.bricks_scanned),
    );
    metrics.set(
        "engine.bricks_pruned_per_query",
        per_query(totals.bricks_pruned),
    );
    metrics.set(
        "engine.rows_scanned_per_query",
        per_query(totals.rows_scanned),
    );
    metrics.set(
        "engine.rows_visible_per_row_scanned",
        ratio(totals.rows_visible as f64, totals.rows_scanned as f64),
    );
    metrics.set(
        "query.scan_ns_per_row",
        ratio(totals.scan_nanos as f64, totals.rows_scanned as f64),
    );
    metrics.set(
        "query.scan_us_per_query_p50",
        scan_us.percentile_or_zero(50.0),
    );
    metrics.set(
        "aosi.visibility_ns_per_brick",
        ratio(
            totals.visibility_build_nanos as f64,
            totals.bricks_scanned as f64,
        ),
    );
    metrics.set(
        "aosi.visibility_us_per_query_p50",
        visibility_us.percentile_or_zero(50.0),
    );
    http_ms
}
