//! The serving front door: HTTP/JSON over the Cubrick engine.
//!
//! The paper's protocol exists so *many concurrent clients* can read
//! cheap snapshots under heavy ingestion; this crate is where those
//! clients actually connect. It is a hand-rolled HTTP/1.1 server
//! (`std::net` only — the build has no crates.io access) wrapping the
//! SQL layer with the three serving-layer mechanisms an in-process
//! engine cannot provide:
//!
//! * **Sessions** ([`session`]) — a session pins an `AS OF` epoch
//!   behind an AOSI read guard, so a dashboard paging through results
//!   sees one frozen snapshot across requests and purge cannot
//!   reclaim it mid-pagination.
//! * **Admission control** ([`admission`]) — a bounded in-flight
//!   semaphore above the `ShardPool` turns overload into typed `429`
//!   backpressure instead of unbounded thread pileup.
//! * **In-flight dedup** ([`dedup`]) — identical (statement, epoch)
//!   reads arriving while one is executing share that execution's
//!   response; snapshot immutability makes the sharing invisible.
//!
//! Result-surface conventions (shared with the console path, enforced
//! by the query layer): empty-group `Min`/`Max`/`Avg` finalize to NaN
//! and serialize as JSON `null`; `ORDER BY` is total with NaN last in
//! both directions; `DESC` reverses the comparator (never the rows),
//! tie-breaking by packed group key.
//!
//! # Protocol
//!
//! | Route                | Body                          | Answer |
//! |----------------------|-------------------------------|--------|
//! | `POST /query`        | `{"sql": "...", "session"?}`  | result table / ack |
//! | `POST /query` + `"progressive": true` | same          | chunked NDJSON refinement stream |
//! | `POST /session`      | —                             | `{"session": id}` |
//! | `POST /session/pin`  | `{"session", "epoch"?}`       | `{"session", "epoch"}` |
//! | `POST /session/close`| `{"session"}`                 | `{"closed": true}` |
//! | `GET /health`        | —                             | `{"status":"ok", ...}` |
//! | `GET /metrics`       | —                             | plain-text report |
//!
//! **Progressive SELECTs**: a `"progressive": true` member on
//! `POST /query` switches the response to `Transfer-Encoding:
//! chunked` NDJSON — one full result object per line as brick
//! partials land at the merge coordinator, each marked
//! `"partial": true`, with the final complete result (identical to
//! the non-progressive answer at the same epoch) marked
//! `"partial": false`. Refinements arrive in the executor's
//! deterministic merge order. Progressive responses bypass the
//! dedup layer (a stream cannot be shared) but still pass admission
//! control. Errors detected before the first byte (parse errors,
//! non-SELECT statements, bad epochs, saturation) come back as the
//! usual one-shot JSON statuses.
//!
//! Errors: 400 (malformed JSON/SQL), 404 (route, unknown session),
//! 405 (method), 413 (body cap), 422 (engine errors, bad epochs),
//! 429 (saturated; body carries `"kind":"saturated"`).

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod dedup;
pub mod http;
pub mod json;
pub mod session;

use std::collections::BTreeSet;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aosi::ReadGuard;
use checker::{SiChecker, TxnEvent};
use columnar::Value;
use cubrick::sql::{self, SelectOutcome, SqlError, SqlOutput, Statement};
use cubrick::{At, Deliver, Engine};
use obs::{Counter, Histogram, ReportBuilder};

use admission::{AdmissionGate, AdmitError};
use dedup::{DedupMap, Role};
use http::{
    finish_chunked, read_request, write_chunk, write_chunked_head, write_response, ReadError,
    Request,
};
use json::{obj, Json};
use session::{SessionError, SessionRegistry};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port.
    pub bind: SocketAddr,
    /// Queries executing at once; 0 rejects everything (tests).
    pub max_inflight: usize,
    /// Queries waiting for a slot beyond the in-flight limit.
    pub max_queue: usize,
    /// Longest a query waits in the admission queue before a 429.
    pub queue_timeout: Duration,
    /// Live session cap.
    pub max_sessions: usize,
    /// Idle read timeout per connection; an idle keep-alive
    /// connection is closed after this.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            max_inflight: 64,
            max_queue: 256,
            queue_timeout: Duration::from_secs(10),
            max_sessions: 1024,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// `[server]`-section counters.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// `POST /query` requests.
    pub query_requests: Counter,
    /// SELECTs among them.
    pub select_queries: Counter,
    /// Progressive (streamed NDJSON) SELECTs among them.
    pub progressive_queries: Counter,
    /// INSERTs among them.
    pub insert_queries: Counter,
    /// Session-endpoint requests.
    pub session_requests: Counter,
    /// `GET /health` requests.
    pub health_requests: Counter,
    /// `GET /metrics` requests.
    pub metrics_requests: Counter,
    /// Responses by status class.
    pub responses_2xx: Counter,
    /// 4xx responses other than 429.
    pub responses_4xx: Counter,
    /// 429 responses (admission rejections).
    pub responses_429: Counter,
    /// 5xx responses.
    pub responses_5xx: Counter,
    /// Connections accepted.
    pub connections_opened: Counter,
    /// Connections finished.
    pub connections_closed: Counter,
    /// End-to-end `/query` latency in nanoseconds.
    pub query_nanos: Histogram,
}

/// Shared server state: engine, gates, tables, metrics.
pub struct ServerState {
    engine: Arc<Engine>,
    gate: AdmissionGate,
    sessions: SessionRegistry,
    dedup: DedupMap,
    metrics: ServerMetrics,
    checker: Option<(Arc<SiChecker>, u64)>,
    started: Instant,
    shutdown: AtomicBool,
}

impl ServerState {
    /// Renders the `[server.*]` sections followed by the engine's own
    /// report — one text artifact with the whole node's health.
    pub fn metrics_report(&self) -> String {
        let uptime = self.started.elapsed();
        let queries = self.metrics.query_requests.get();
        let qps = queries as f64 / uptime.as_secs_f64().max(1e-9);
        let (inflight, queued) = self.gate.depths();
        let mut report = ReportBuilder::new();
        report
            .section("server")
            .metric("uptime_seconds", format!("{:.1}", uptime.as_secs_f64()))
            .counter("query.requests", &self.metrics.query_requests)
            .metric("query.qps", format!("{qps:.1}"))
            .counter("query.selects", &self.metrics.select_queries)
            .counter("query.progressive", &self.metrics.progressive_queries)
            .counter("query.inserts", &self.metrics.insert_queries)
            .counter("session.requests", &self.metrics.session_requests)
            .counter("health.requests", &self.metrics.health_requests)
            .counter("metrics.requests", &self.metrics.metrics_requests)
            .counter("responses.2xx", &self.metrics.responses_2xx)
            .counter("responses.4xx", &self.metrics.responses_4xx)
            .counter("responses.429", &self.metrics.responses_429)
            .counter("responses.5xx", &self.metrics.responses_5xx)
            .counter("connections.opened", &self.metrics.connections_opened)
            .counter("connections.closed", &self.metrics.connections_closed)
            .histogram("query_nanos", &self.metrics.query_nanos);
        report
            .section("server.admission")
            .counter("admitted", &self.gate.admitted)
            .counter("rejected", &self.gate.rejected)
            .metric("inflight", inflight)
            .metric("queued", queued)
            .gauge("queue_high_water", &self.gate.queue_high_water)
            .histogram("queue_wait_nanos", &self.gate.queue_wait_nanos);
        report
            .section("server.dedup")
            .counter("leaders", &self.dedup.leaders)
            .counter("followers", &self.dedup.followers);
        report
            .section("server.sessions")
            .metric("live", self.sessions.len());
        let mut text = report.finish();
        text.push('\n');
        text.push_str(&self.engine.metrics_report());
        text
    }
}

/// A running server: bound address plus shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (the OS-assigned port when `bind` used 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for metrics inspection in tests and benches.
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Stops accepting connections and joins the accept thread.
    /// Already-open connections finish their current request and are
    /// closed by their idle timeout.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

/// Builds and starts servers.
pub struct Server;

impl Server {
    /// Starts serving `engine` per `config`. Returns once the
    /// listener is bound; connections are handled on background
    /// threads (one per connection — plenty for the scale this
    /// reproduction targets, and the admission gate bounds the
    /// queries behind them regardless of connection count).
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        Self::start_with_checker(engine, config, None)
    }

    /// [`Server::start`] with the online SI checker riding along:
    /// every transaction on the insert path and every read records a
    /// checker event under `node`.
    pub fn start_with_checker(
        engine: Arc<Engine>,
        config: ServerConfig,
        checker: Option<(Arc<SiChecker>, u64)>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            engine,
            gate: AdmissionGate::new(config.max_inflight, config.max_queue, config.queue_timeout),
            sessions: SessionRegistry::new(config.max_sessions),
            dedup: DedupMap::new(),
            metrics: ServerMetrics::default(),
            checker,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        });
        let read_timeout = config.read_timeout;
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("cubrick-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    accept_state.metrics.connections_opened.inc();
                    let state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("cubrick-conn".into())
                        .spawn(move || {
                            handle_connection(&state, stream, read_timeout);
                            state.metrics.connections_closed.inc();
                        });
                }
            })?;
        Ok(ServerHandle {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream, read_timeout: Duration) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader, read_timeout) {
            Ok(request) => request,
            Err(ReadError::Closed) => return,
            Err(ReadError::TooLarge) => {
                let body = error_body("request body too large", "too_large").render();
                let _ = write_response(
                    reader.get_mut(),
                    413,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                );
                return;
            }
            Err(ReadError::Bad(msg)) => {
                let body = error_body(&msg, "protocol").render();
                let _ = write_response(
                    reader.get_mut(),
                    400,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                );
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let (status, content_type, extra, body) =
            if request.method == "POST" && request.path == "/query" {
                match handle_query_request(state, reader.get_mut(), &request.body, keep_alive) {
                    // Streamed to completion; the chunked terminator
                    // keeps keep-alive framing intact.
                    Ok(true) => {
                        state.metrics.responses_2xx.inc();
                        if !keep_alive {
                            return;
                        }
                        continue;
                    }
                    // Mid-stream I/O failure: the message is unframed,
                    // so the connection must close.
                    Ok(false) => {
                        state.metrics.responses_5xx.inc();
                        return;
                    }
                    Err(routed) => routed,
                }
            } else {
                route(state, &request)
            };
        match status {
            200 => state.metrics.responses_2xx.inc(),
            429 => state.metrics.responses_429.inc(),
            400..=499 => state.metrics.responses_4xx.inc(),
            _ => state.metrics.responses_5xx.inc(),
        }
        let extra_refs: Vec<(&str, &str)> = extra
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        if write_response(
            reader.get_mut(),
            status,
            content_type,
            &extra_refs,
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
    }
}

/// `POST /query`, timed. `Ok` means a streamed response went out
/// (`true`: completely, `false`: it broke mid-stream); `Err` is an
/// ordinary response still to be written.
fn handle_query_request(
    state: &ServerState,
    stream: &mut TcpStream,
    body: &[u8],
    keep_alive: bool,
) -> Result<bool, Routed> {
    let started = Instant::now();
    state.metrics.query_requests.inc();
    let outcome = run_query(state, stream, body, keep_alive);
    state.metrics.query_nanos.record_duration(started.elapsed());
    outcome
}

/// Parses the body and its statement once, then runs it as a one-shot
/// or, with `"progressive": true`, a streamed query.
fn run_query(
    state: &ServerState,
    stream: &mut TcpStream,
    body: &[u8],
    keep_alive: bool,
) -> Result<bool, Routed> {
    let body = parse_body(body)?;
    let progressive = body.get("progressive").and_then(Json::as_bool) == Some(true);
    if progressive {
        state.metrics.progressive_queries.inc();
    }
    let Some(sql) = body.get("sql").and_then(Json::as_str) else {
        return Err(bad_request("body needs a string `sql`"));
    };
    let session = body.get("session").and_then(Json::as_f64).map(|s| s as u64);
    let statement = sql::parse(sql).map_err(sql_error)?;
    if progressive {
        handle_progressive_query(state, stream, sql, session, statement, keep_alive)
    } else {
        Err(handle_query(state, sql, session, statement))
    }
}

type Routed = (u16, &'static str, Vec<(String, String)>, String);

fn route(state: &ServerState, request: &Request) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            state.metrics.health_requests.inc();
            let manager = state.engine.manager();
            let body = obj([
                ("status", Json::str("ok")),
                ("lce", Json::num(manager.lce() as f64)),
                ("lse", Json::num(manager.lse() as f64)),
                ("sessions", Json::num(state.sessions.len() as f64)),
            ]);
            (200, "application/json", Vec::new(), body.render())
        }
        ("GET", "/metrics") => {
            state.metrics.metrics_requests.inc();
            (200, "text/plain", Vec::new(), state.metrics_report())
        }
        ("POST", "/session") => {
            state.metrics.session_requests.inc();
            match state.sessions.open() {
                Ok(id) => json_ok(obj([("session", Json::num(id as f64))])),
                Err(e) => session_error(e),
            }
        }
        ("POST", "/session/pin") => {
            state.metrics.session_requests.inc();
            let parsed = match parse_body(&request.body) {
                Ok(parsed) => parsed,
                Err(routed) => return routed,
            };
            let Some(session) = parsed.get("session").and_then(Json::as_f64) else {
                return bad_request("body needs a numeric `session`");
            };
            let epoch = parsed.get("epoch").and_then(Json::as_f64).map(|e| e as u64);
            match state.sessions.pin(&state.engine, session as u64, epoch) {
                Ok(epoch) => json_ok(obj([
                    ("session", Json::num(session)),
                    ("epoch", Json::num(epoch as f64)),
                ])),
                Err(e) => session_error(e),
            }
        }
        ("POST", "/session/close") => {
            state.metrics.session_requests.inc();
            let parsed = match parse_body(&request.body) {
                Ok(parsed) => parsed,
                Err(routed) => return routed,
            };
            let Some(session) = parsed.get("session").and_then(Json::as_f64) else {
                return bad_request("body needs a numeric `session`");
            };
            match state.sessions.close(session as u64) {
                Ok(()) => json_ok(obj([("closed", Json::Bool(true))])),
                Err(e) => session_error(e),
            }
        }
        ("POST" | "GET", _) => (
            404,
            "application/json",
            Vec::new(),
            error_body(&format!("no route {}", request.path), "route").render(),
        ),
        _ => (
            405,
            "application/json",
            Vec::new(),
            error_body(&format!("method {} not allowed", request.method), "method").render(),
        ),
    }
}

fn handle_query(
    state: &ServerState,
    sql: &str,
    session: Option<u64>,
    statement: Statement,
) -> Routed {
    match statement {
        Statement::Select { cube, query, as_of } => {
            state.metrics.select_queries.inc();
            handle_select(state, sql, &cube, &query, as_of, session)
        }
        Statement::Insert { cube, rows } => {
            state.metrics.insert_queries.inc();
            let _permit = match state.gate.admit() {
                Ok(permit) => permit,
                Err(AdmitError::Saturated) => return saturated(),
            };
            handle_insert(state, &cube, &rows)
        }
        other => {
            let _permit = match state.gate.admit() {
                Ok(permit) => permit,
                Err(AdmitError::Saturated) => return saturated(),
            };
            match sql::execute_statement(&state.engine, other) {
                Ok(SqlOutput::Ok(msg)) => json_ok(obj([("ok", Json::str(msg))])),
                Ok(SqlOutput::Table { columns, rows }) => {
                    let columns = Json::Arr(columns.into_iter().map(Json::Str).collect());
                    let rows = Json::Arr(
                        rows.into_iter()
                            .map(|r| Json::Arr(r.into_iter().map(Json::Str).collect()))
                            .collect(),
                    );
                    json_ok(obj([("columns", columns), ("rows", rows)]))
                }
                Err(e) => sql_error(e),
            }
        }
    }
}

/// The SELECT path: resolve the effective epoch (statement `AS OF` >
/// session pin > freshest committed), admit, dedup, execute, render.
fn handle_select(
    state: &ServerState,
    sql: &str,
    cube: &str,
    query: &cubrick::Query,
    as_of: Option<u64>,
    session: Option<u64>,
) -> Routed {
    let (epoch, guard) = match resolve_read(state, as_of, session) {
        Ok(resolved) => resolved,
        Err(routed) => return routed,
    };
    let at = guard
        .as_ref()
        .map_or(At::Epoch(epoch), |g| At::Snapshot(g.snapshot()));
    let statement_key = sql.trim();
    match state.dedup.join(statement_key, epoch) {
        Some(Role::Follower(shared)) => {
            let (status, body) = (shared.0, shared.1.clone());
            (
                status,
                "application/json",
                vec![("x-cubrick-dedup".to_owned(), "shared".to_owned())],
                body,
            )
        }
        Some(Role::Leader(leader)) => {
            let routed = execute_select_routed(state, cube, query, epoch, at, statement_key);
            leader.publish(Arc::new((routed.0, routed.3.clone())));
            routed
        }
        // The previous leader died without publishing; run it solo.
        None => execute_select_routed(state, cube, query, epoch, at, statement_key),
    }
}

/// Resolves the effective read epoch for a SELECT — statement
/// `AS OF` beats the session pin beats the freshest committed. An
/// explicit or pinned epoch comes back unguarded: the read guards it
/// and checks the window itself ([`At::Epoch`]). The freshest one
/// comes back with the guard [`aosi::TxnManager::begin_read`]
/// registered, which samples the LCE under the lock the LSE advance
/// holds, so it is always readable. The caller holds that guard for
/// the whole response — the dedup key for buffered responses, the
/// refinement stream for progressive ones — and reads through it
/// ([`At::Snapshot`]). Either way a SELECT takes exactly one guard.
fn resolve_read(
    state: &ServerState,
    as_of: Option<u64>,
    session: Option<u64>,
) -> Result<(u64, Option<ReadGuard>), Routed> {
    let pinned = match (as_of, session) {
        (Some(epoch), _) => Some(epoch),
        (None, Some(id)) => state.sessions.pinned_epoch(id).map_err(session_error)?,
        (None, None) => None,
    };
    Ok(match pinned {
        Some(epoch) => (epoch, None),
        None => {
            let guard = state.engine.manager().begin_read();
            (guard.snapshot().epoch(), Some(guard))
        }
    })
}

/// Writes the progressive NDJSON stream: lazily opens the chunked
/// response on the first line, then one flushed chunk per line. The
/// lazy head is what lets every pre-stream error (parse, admission,
/// window) still go out as an ordinary status response.
struct ProgressiveSink<'a> {
    stream: &'a mut TcpStream,
    keep_alive: bool,
    started: bool,
    failed: bool,
}

impl ProgressiveSink<'_> {
    fn send(&mut self, line: &Json) {
        if self.failed {
            return;
        }
        if !self.started {
            // Head bytes may be partially written on failure, so the
            // connection counts as unframed either way.
            self.started = true;
            if write_chunked_head(self.stream, 200, "application/x-ndjson", self.keep_alive)
                .is_err()
            {
                self.failed = true;
                return;
            }
        }
        let mut text = line.render();
        text.push('\n');
        if write_chunk(self.stream, text.as_bytes()).is_err() {
            self.failed = true;
        }
    }

    fn finish(&mut self) {
        if !self.failed && finish_chunked(self.stream).is_err() {
            self.failed = true;
        }
    }
}

/// The progressive `/query` path. `Ok(true)`: the chunked stream was
/// written to completion (keep-alive framing intact). `Ok(false)`:
/// an I/O failure mid-stream left the message unframed — close the
/// connection. `Err`: the request was rejected before any response
/// byte; the caller writes the ordinary one-shot answer.
fn handle_progressive_query(
    state: &ServerState,
    stream: &mut TcpStream,
    sql: &str,
    session: Option<u64>,
    statement: Statement,
    keep_alive: bool,
) -> Result<bool, Routed> {
    let Statement::Select { cube, query, as_of } = statement else {
        return Err(bad_request("progressive mode requires a SELECT"));
    };
    state.metrics.select_queries.inc();
    let (epoch, guard) = resolve_read(state, as_of, session)?;
    let at = guard
        .as_ref()
        .map_or(At::Epoch(epoch), |g| At::Snapshot(g.snapshot()));
    let _permit = state.gate.admit().map_err(|_| saturated())?;
    let mut sink = ProgressiveSink {
        stream,
        keep_alive,
        started: false,
        failed: false,
    };
    let mut refine = |refinement| {
        let refinement = sql::shape_outcome(&query, refinement);
        sink.send(&render_progressive(&refinement, epoch, true));
    };
    let progress = Deliver::Progress(&mut refine);
    let outcome = sql::execute_select(&state.engine, &cube, &query, at, progress);
    match outcome {
        Ok(complete) => {
            if let Some((checker, node)) = &state.checker {
                checker.record(TxnEvent::Read {
                    node: *node,
                    snapshot_epoch: epoch,
                    deps: BTreeSet::new(),
                    observed: BTreeSet::new(),
                    reader: None,
                    key: format!("{cube}:{}", sql.trim()),
                    fingerprint: fingerprint_outcome(&complete),
                });
            }
            sink.send(&render_progressive(&complete, epoch, false));
            sink.finish();
            Ok(!sink.failed)
        }
        Err(e) => {
            let routed = sql_error(e);
            if !sink.started {
                // Nothing streamed yet (the usual case: resolution
                // fails before any partial lands) — ordinary status.
                return Err(routed);
            }
            // Refinements already went out; terminate the stream with
            // a final error line so the client is not left waiting.
            let mut line = json::parse(&routed.3)
                .unwrap_or_else(|_| error_body("query failed mid-stream", "engine"));
            line.set("partial", Json::Bool(false));
            sink.send(&line);
            sink.finish();
            Ok(!sink.failed)
        }
    }
}

/// One NDJSON line of the progressive stream: the ordinary SELECT
/// rendering plus the `partial` marker.
fn render_progressive(outcome: &SelectOutcome, epoch: u64, partial: bool) -> Json {
    let mut body = render_select(outcome, epoch);
    body.set("partial", Json::Bool(partial));
    body
}

fn execute_select_routed(
    state: &ServerState,
    cube: &str,
    query: &cubrick::Query,
    epoch: u64,
    at: At<'_>,
    statement_key: &str,
) -> Routed {
    let _permit = match state.gate.admit() {
        Ok(permit) => permit,
        Err(AdmitError::Saturated) => return saturated(),
    };
    let outcome = match sql::execute_select(&state.engine, cube, query, at, Deliver::Final) {
        Ok(outcome) => outcome,
        Err(e) => return sql_error(e),
    };
    if let Some((checker, node)) = &state.checker {
        checker.record(TxnEvent::Read {
            node: *node,
            snapshot_epoch: epoch,
            deps: BTreeSet::new(),
            observed: BTreeSet::new(),
            reader: None,
            key: format!("{cube}:{statement_key}"),
            fingerprint: fingerprint_outcome(&outcome),
        });
    }
    let body = render_select(&outcome, epoch);
    (200, "application/json", Vec::new(), body.render())
}

fn handle_insert(state: &ServerState, cube: &str, rows: &[columnar::Row]) -> Routed {
    // Explicit transaction so the SI checker sees Begin/Commit (or
    // Rollback when rows are rejected), exactly like a native writer.
    let txn = state.engine.begin();
    if let Some((checker, node)) = &state.checker {
        checker.record(TxnEvent::Begin {
            node: *node,
            epoch: txn.epoch(),
            deps: txn.snapshot().deps().clone(),
        });
    }
    let epoch = txn.epoch();
    match state.engine.append(cube, rows, &txn) {
        Ok((accepted, 0)) => match state.engine.commit(&txn) {
            Ok(()) => {
                if let Some((checker, node)) = &state.checker {
                    checker.record(TxnEvent::Commit { node: *node, epoch });
                }
                json_ok(obj([
                    (
                        "ok",
                        Json::str(format!(
                            "inserted {accepted} row(s) as transaction T{epoch}"
                        )),
                    ),
                    ("epoch", Json::num(epoch as f64)),
                    ("accepted", Json::num(accepted as f64)),
                ]))
            }
            Err(e) => engine_error(&e.to_string()),
        },
        Ok((_, rejected)) => {
            let rolled_back = state.engine.rollback(&txn);
            if let Some((checker, node)) = &state.checker {
                checker.record(TxnEvent::Rollback { node: *node, epoch });
            }
            let _ = rolled_back;
            engine_error(&format!(
                "{rejected} row(s) rejected; transaction rolled back"
            ))
        }
        Err(e) => {
            let rolled_back = state.engine.rollback(&txn);
            if let Some((checker, node)) = &state.checker {
                checker.record(TxnEvent::Rollback { node: *node, epoch });
            }
            let _ = rolled_back;
            engine_error(&e.to_string())
        }
    }
}

/// Renders a SELECT outcome: group-key cells keep their native JSON
/// types, aggregate cells are numbers with NaN/±inf as `null`.
fn render_select(outcome: &SelectOutcome, epoch: u64) -> Json {
    let rows = outcome
        .rows
        .iter()
        .map(|(keys, values)| {
            let mut cells: Vec<Json> = keys.iter().map(value_to_json).collect();
            cells.extend(values.iter().map(|&v| Json::num(v)));
            Json::Arr(cells)
        })
        .collect();
    obj([
        (
            "columns",
            Json::Arr(outcome.columns.iter().map(Json::str).collect()),
        ),
        ("rows", Json::Arr(rows)),
        ("row_count", Json::num(outcome.rows.len() as f64)),
        ("epoch", Json::num(epoch as f64)),
        (
            "stats",
            obj([
                ("rows_scanned", Json::num(outcome.stats.rows_scanned as f64)),
                ("rows_visible", Json::num(outcome.stats.rows_visible as f64)),
                (
                    "bricks_scanned",
                    Json::num(outcome.stats.bricks_scanned as f64),
                ),
            ]),
        ),
    ])
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Str(s) => Json::str(s.as_str()),
        Value::I64(i) => Json::num(*i as f64),
        Value::F64(f) => Json::num(*f),
    }
}

/// Order-insensitive fingerprint of a SELECT outcome for the SI
/// checker: FNV-1a per row, combined commutatively.
fn fingerprint_outcome(outcome: &SelectOutcome) -> u64 {
    let row_hashes = outcome.rows.iter().map(|(keys, values)| {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for key in keys {
            match key {
                Value::Str(s) => fold(s.as_bytes()),
                Value::I64(i) => fold(&i.to_le_bytes()),
                Value::F64(f) => fold(&f.to_bits().to_le_bytes()),
            }
            fold(&[0xfe]);
        }
        for value in values {
            fold(&value.to_bits().to_le_bytes());
        }
        hash
    });
    checker::fingerprint_rows(row_hashes)
}

fn parse_body(body: &[u8]) -> Result<Json, Routed> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Default::default()));
    }
    json::parse(text).map_err(|e| bad_request(&format!("bad JSON body: {e}")))
}

fn error_body(message: &str, kind: &str) -> Json {
    obj([("error", Json::str(message)), ("kind", Json::str(kind))])
}

fn json_ok(body: Json) -> Routed {
    (200, "application/json", Vec::new(), body.render())
}

fn bad_request(message: &str) -> Routed {
    (
        400,
        "application/json",
        Vec::new(),
        error_body(message, "bad_request").render(),
    )
}

fn engine_error(message: &str) -> Routed {
    (
        422,
        "application/json",
        Vec::new(),
        error_body(message, "engine").render(),
    )
}

fn saturated() -> Routed {
    (
        429,
        "application/json",
        Vec::new(),
        error_body(
            "server saturated: in-flight and queue limits reached; retry with backoff",
            "saturated",
        )
        .render(),
    )
}

fn sql_error(e: SqlError) -> Routed {
    match e {
        SqlError::Lex(msg) => (
            400,
            "application/json",
            Vec::new(),
            error_body(&format!("lex error: {msg}"), "parse").render(),
        ),
        SqlError::Parse(msg) => (
            400,
            "application/json",
            Vec::new(),
            error_body(&format!("parse error: {msg}"), "parse").render(),
        ),
        SqlError::Unsupported(msg) => (
            400,
            "application/json",
            Vec::new(),
            error_body(&format!("unsupported: {msg}"), "unsupported").render(),
        ),
        SqlError::Engine(msg) => engine_error(&msg),
    }
}

fn session_error(e: SessionError) -> Routed {
    let status = match e {
        SessionError::Unknown(_) => 404,
        SessionError::EpochOutOfRange { .. } => 422,
        SessionError::TooManySessions => 429,
    };
    (
        status,
        "application/json",
        Vec::new(),
        error_body(&e.to_string(), "session").render(),
    )
}
