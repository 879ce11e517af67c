//! Wire-level integration suite: every request/response below goes
//! through a real TCP connection against a live server — the JSON
//! renderings, status codes, session semantics, backpressure, and
//! dedup behavior a network client actually observes.

use std::sync::Arc;
use std::time::Duration;

use checker::SiChecker;
use columnar::Value;
use cubrick::Engine;
use server::client::Client;
use server::json::{obj, Json};
use server::{Server, ServerConfig, ServerHandle};

const NODE: u64 = 1;

fn start(config: ServerConfig) -> (Arc<Engine>, ServerHandle) {
    let engine = Arc::new(Engine::new(2));
    let handle = Server::start(Arc::clone(&engine), config).expect("start server");
    (engine, handle)
}

fn start_seeded(config: ServerConfig) -> (Arc<Engine>, ServerHandle) {
    let (engine, handle) = start(config);
    let mut client = Client::connect(handle.addr()).unwrap();
    let created = client
        .query(
            "CREATE CUBE t (region STRING DIM(4, 2), day INT DIM(8, 4), \
             likes INT METRIC, score FLOAT METRIC)",
            None,
        )
        .unwrap();
    assert_eq!(created.status, 200, "{}", created.body);
    let inserted = client
        .query(
            "INSERT INTO t VALUES ('us', 0, 10, 1.5), ('us', 1, 20, 2.5), ('br', 2, 30, 3.5)",
            None,
        )
        .unwrap();
    assert_eq!(inserted.status, 200, "{}", inserted.body);
    (engine, handle)
}

#[test]
fn select_round_trips_typed_json() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .query(
            "SELECT SUM(likes), AVG(score) FROM t GROUP BY region ORDER BY region",
            None,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json().unwrap();
    let columns: Vec<&str> = json
        .get("columns")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(columns, vec!["region", "sum(likes)", "avg(score)"]);
    let rows = json.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);
    // Rows are typed: string key cell, numeric aggregates.
    let br = rows[0].as_arr().unwrap();
    assert_eq!(br[0], Json::Str("br".into()));
    assert_eq!(br[1], Json::Num(30.0));
    assert_eq!(br[2], Json::Num(3.5));
    assert_eq!(json.get("row_count"), Some(&Json::Num(2.0)));
    assert!(json.get("epoch").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(json
        .get("stats")
        .and_then(|s| s.get("rows_visible"))
        .is_some());
}

#[test]
fn empty_group_min_max_render_as_null() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Ungrouped aggregation over an empty match set: COUNT 0, every
    // other aggregate NULL — the ±inf identities must never appear.
    let response = client
        .query(
            "SELECT MIN(likes), MAX(likes), AVG(score), COUNT(*) FROM t \
             WHERE region IN ('atlantis')",
            None,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json().unwrap();
    let row = json.get("rows").and_then(Json::as_arr).unwrap()[0]
        .as_arr()
        .unwrap();
    assert_eq!(
        row,
        &[Json::Null, Json::Null, Json::Null, Json::Num(0.0)],
        "empty Min/Max/Avg are JSON null, Count is 0: {}",
        response.body
    );
    // The raw body must never smuggle an inf/nan token past the
    // parser.
    assert!(!response.body.to_lowercase().contains("inf"));
    assert!(!response.body.to_lowercase().contains("nan"));
}

#[test]
fn empty_grouped_result_is_an_empty_rows_array() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .query(
            "SELECT SUM(likes) FROM t WHERE region IN ('atlantis') GROUP BY day",
            None,
        )
        .unwrap();
    let json = response.json().unwrap();
    assert_eq!(json.get("rows"), Some(&Json::Arr(Vec::new())));
    assert_eq!(json.get("row_count"), Some(&Json::Num(0.0)));
}

#[test]
fn progressive_select_streams_refinements_then_the_complete_result() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Spread rows across day buckets (DIM(8, 4) partitions days by 4)
    // so the scan produces more than one brick partial.
    let inserted = client
        .query(
            "INSERT INTO t VALUES ('us', 4, 40, 4.5), ('br', 5, 50, 5.5), ('mx', 7, 70, 7.5)",
            None,
        )
        .unwrap();
    assert_eq!(inserted.status, 200, "{}", inserted.body);
    let sql = "SELECT SUM(likes), COUNT(*) FROM t GROUP BY region ORDER BY region";
    let buffered = client.query(sql, None).unwrap();
    assert_eq!(buffered.status, 200, "{}", buffered.body);
    let complete = buffered.json().unwrap();

    let streamed = client.query_progressive(sql, None).unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));
    let lines = streamed.ndjson().unwrap();
    assert!(!lines.is_empty(), "stream carried no lines");
    // Every line but the last is a refinement; the last is complete.
    for (i, line) in lines.iter().enumerate() {
        let expected = i + 1 < lines.len();
        assert_eq!(
            line.get("partial"),
            Some(&Json::Bool(expected)),
            "line {i} of {}: {}",
            lines.len(),
            streamed.body
        );
    }
    // Refinements grow monotonically in scan coverage.
    let covered: Vec<f64> = lines
        .iter()
        .map(|l| {
            l.get("stats")
                .and_then(|s| s.get("bricks_scanned"))
                .and_then(Json::as_f64)
                .unwrap()
        })
        .collect();
    assert!(
        covered.windows(2).all(|w| w[0] <= w[1]),
        "bricks_scanned regressed across refinements: {covered:?}"
    );
    assert!(
        *covered.last().unwrap() >= 2.0,
        "final line must cover multiple bricks: {covered:?}"
    );
    // The final line matches the buffered answer cell for cell.
    let last = lines.last().unwrap();
    assert_eq!(last.get("rows"), complete.get("rows"), "{}", streamed.body);
    assert_eq!(last.get("columns"), complete.get("columns"));
    assert_eq!(last.get("row_count"), complete.get("row_count"));
    // Keep-alive framing survived the chunked response: the same
    // connection serves another request.
    let again = client.query("SELECT COUNT(*) FROM t", None).unwrap();
    assert_eq!(again.status, 200, "{}", again.body);
    // The stream is visible in the metrics report.
    let report = handle.state().metrics_report();
    let progressive = report
        .lines()
        .find(|l| l.starts_with("query.progressive = "))
        .unwrap();
    assert!(progressive.ends_with("= 1"), "{progressive}");
}

#[test]
fn progressive_rejections_are_ordinary_statuses() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Non-SELECT statements cannot stream.
    let response = client
        .query_progressive("INSERT INTO t VALUES ('us', 0, 1, 1.0)", None)
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("requires a SELECT"));
    // Parse errors, bad epochs, and unknown sessions keep their
    // one-shot status codes.
    let response = client.query_progressive("SELEKT 1", None).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    let response = client
        .query_progressive("SELECT COUNT(*) FROM t AS OF 99", None)
        .unwrap();
    assert_eq!(response.status, 422, "{}", response.body);
    let response = client
        .query_progressive("SELECT COUNT(*) FROM t", Some(777))
        .unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    // None of the rejections were chunked.
    assert!(response.header("transfer-encoding").is_none());
    // The connection is still framed for ordinary traffic.
    let ok = client.query("SELECT COUNT(*) FROM t", None).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);
}

/// A progressive request whose body is malformed is one ordinary 400,
/// counted once as a 4xx response.
#[test]
fn malformed_progressive_body_is_one_bad_request() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let count_4xx = || {
        let report = handle.state().metrics_report();
        let line = report
            .lines()
            .find_map(|l| l.strip_prefix("responses.4xx = "));
        line.unwrap().parse::<u64>().unwrap()
    };
    let before = count_4xx();
    let body = obj([("progressive", Json::Bool(true)), ("sql", Json::num(7.0))]);
    let response = client.request("POST", "/query", Some(&body)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("string `sql`"), "{}", response.body);
    assert!(response.header("transfer-encoding").is_none());
    assert_eq!(count_4xx(), before + 1);
}

#[test]
fn progressive_select_respects_admission_control() {
    let engine = Arc::new(Engine::new(2));
    cubrick::sql::execute(
        &engine,
        "CREATE CUBE t (region STRING DIM(4, 2), likes INT METRIC)",
    )
    .unwrap();
    cubrick::sql::execute(&engine, "INSERT INTO t VALUES ('us', 10)").unwrap();
    let handle = Server::start(
        Arc::clone(&engine),
        ServerConfig {
            max_inflight: 0,
            max_queue: 0,
            queue_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .query_progressive("SELECT COUNT(*) FROM t", None)
        .unwrap();
    assert_eq!(response.status, 429, "{}", response.body);
    assert_eq!(
        response.json().unwrap().get("kind"),
        Some(&Json::Str("saturated".into()))
    );
}

#[test]
fn session_pins_a_snapshot_across_requests() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = {
        let response = client.request("POST", "/session", None).unwrap();
        response
            .json()
            .unwrap()
            .get("session")
            .and_then(Json::as_f64)
            .unwrap() as u64
    };
    // Pin at the current snapshot (3 rows), then insert more.
    let pin = client
        .request(
            "POST",
            "/session/pin",
            Some(&obj([("session", Json::num(session as f64))])),
        )
        .unwrap();
    assert_eq!(pin.status, 200, "{}", pin.body);
    let pinned_epoch = pin
        .json()
        .unwrap()
        .get("epoch")
        .and_then(Json::as_f64)
        .unwrap();
    client
        .query("INSERT INTO t VALUES ('mx', 3, 100, 9.9)", None)
        .unwrap();
    // The pinned session still counts 3; a fresh read counts 4.
    let counts = |client: &mut Client, session: Option<u64>| -> f64 {
        let response = client.query("SELECT COUNT(*) FROM t", session).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        response
            .json()
            .unwrap()
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .as_arr()
            .unwrap()[0]
            .as_f64()
            .unwrap()
    };
    assert_eq!(counts(&mut client, Some(session)), 3.0);
    assert_eq!(counts(&mut client, None), 4.0);
    // An explicit AS OF on the statement overrides the session pin.
    let fresh = client
        .query(
            &format!("SELECT COUNT(*) FROM t AS OF {}", pinned_epoch as u64 + 1),
            Some(session),
        )
        .unwrap();
    let rows = fresh.json().unwrap();
    let v = rows.get("rows").and_then(Json::as_arr).unwrap()[0]
        .as_arr()
        .unwrap()[0]
        .as_f64()
        .unwrap();
    assert_eq!(v, 4.0, "statement AS OF wins over the session pin");
    // Closing the session releases it; further use 404s.
    let closed = client
        .request(
            "POST",
            "/session/close",
            Some(&obj([("session", Json::num(session as f64))])),
        )
        .unwrap();
    assert_eq!(closed.status, 200);
    let gone = client
        .query("SELECT COUNT(*) FROM t", Some(session))
        .unwrap();
    assert_eq!(gone.status, 404, "{}", gone.body);
}

/// The per-shard snapshot memo behind the front door: the third
/// identical pinned request is answered from every shard's memo, and
/// its reply is byte-equal to the first — `stats` included — with rows
/// matching the sequential reference executor. One statement per
/// branch of finalization: a filtered group-by, `ORDER BY` an
/// aggregate `DESC` with `LIMIT`, `ORDER BY` a `STRING` group key,
/// `HAVING`, and an ungrouped aggregate.
#[test]
fn memoized_pinned_reply_is_byte_equal_to_a_fresh_one() {
    let (engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let inserted = client
        .query(
            "INSERT INTO t VALUES ('mx', 5, 40, 4.5), ('de', 7, 50, 5.5), ('br', 6, 60, 6.5)",
            None,
        )
        .unwrap();
    assert_eq!(inserted.status, 200, "{}", inserted.body);
    let session = client
        .request("POST", "/session", None)
        .unwrap()
        .json()
        .unwrap()
        .get("session")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    let pin = client
        .request(
            "POST",
            "/session/pin",
            Some(&obj([("session", Json::num(session as f64))])),
        )
        .unwrap();
    let epoch = pin
        .json()
        .unwrap()
        .get("epoch")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    let statements = [
        "SELECT SUM(likes), MAX(score) FROM t WHERE day IN (0, 1, 5, 6) GROUP BY region",
        "SELECT SUM(likes), MIN(score) FROM t GROUP BY day ORDER BY SUM(likes) DESC LIMIT 3",
        "SELECT COUNT(*), AVG(score) FROM t GROUP BY region ORDER BY region",
        "SELECT SUM(likes) FROM t GROUP BY region HAVING SUM(likes) > 30",
        "SELECT COUNT(*), SUM(likes), AVG(score) FROM t WHERE region IN ('us', 'br')",
    ];
    for statement in statements {
        let mut replies = Vec::new();
        for sighting in 1..=3 {
            let before = engine.agg_cache_stats().unwrap().hits;
            let reply = client.query(statement, Some(session)).unwrap();
            assert_eq!(reply.status, 200, "{statement}: {}", reply.body);
            let hits = engine.agg_cache_stats().unwrap().hits - before;
            assert_eq!(
                hits > 0,
                sighting == 3,
                "{statement}, sighting {sighting}: {hits} hits"
            );
            replies.push(reply.body);
        }
        assert_eq!(
            replies[2], replies[0],
            "{statement}: memoized reply differs from fresh"
        );

        let Ok(cubrick::sql::Statement::Select { cube, query, .. }) =
            cubrick::sql::parse(statement)
        else {
            panic!("{statement} parses");
        };
        let reference = engine
            .query_at_reference(&cube, &query, &aosi::Snapshot::committed(epoch))
            .unwrap();
        assert!(!reference.rows.is_empty(), "{statement}: no rows");
        let expected: Vec<Json> = (reference.rows.iter())
            .map(|(keys, values)| {
                let mut cells: Vec<Json> = (keys.iter())
                    .map(|k| match k {
                        Value::I64(i) => Json::num(*i as f64),
                        _ => Json::str(k.to_string()),
                    })
                    .collect();
                cells.extend(values.iter().map(|&v| Json::num(v)));
                Json::Arr(cells)
            })
            .collect();
        for reply in [&replies[0], &replies[2]] {
            let served = server::json::parse(reply).unwrap();
            assert_eq!(
                served.get("rows"),
                Some(&Json::Arr(expected.clone())),
                "{statement}"
            );
        }
    }
}

/// Every SELECT takes exactly one read guard: a fresh one reads
/// through the guard that fixed its epoch, a pinned or `AS OF` one has
/// the read guard its epoch and check the window.
#[test]
fn every_select_takes_exactly_one_read_guard() {
    let (engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client
        .request("POST", "/session", None)
        .unwrap()
        .json()
        .unwrap()
        .get("session")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    let body = obj([("session", Json::num(session as f64))]);
    let pin = client.request("POST", "/session/pin", Some(&body)).unwrap();
    assert_eq!(pin.status, 200, "{}", pin.body);
    let sql = "SELECT COUNT(*) FROM t";
    let guards = || engine.manager().metrics().reads_guarded.get();
    for round in 0..3 {
        for (what, progressive, session, sql) in [
            ("fresh buffered", false, None, sql),
            ("fresh progressive", true, None, sql),
            ("pinned buffered", false, Some(session), sql),
            ("pinned progressive", true, Some(session), sql),
            ("AS OF", false, None, "SELECT COUNT(*) FROM t AS OF 1"),
        ] {
            let before = guards();
            let response = if progressive {
                client.query_progressive(sql, session).unwrap()
            } else {
                client.query(sql, session).unwrap()
            };
            assert_eq!(response.status, 200, "{what}: {}", response.body);
            assert_eq!(guards(), before + 1, "{what}, round {round}");
        }
    }
}

#[test]
fn unknown_session_is_a_404() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.query("SELECT COUNT(*) FROM t", Some(777)).unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    assert_eq!(
        response.json().unwrap().get("kind"),
        Some(&Json::Str("session".into()))
    );
}

#[test]
fn saturated_pool_returns_typed_429() {
    // max_inflight = 0: the gate rejects every query deterministically.
    // Seed the engine directly — the server's own gate would 429 the
    // setup statements too.
    let engine = Arc::new(Engine::new(2));
    cubrick::sql::execute(
        &engine,
        "CREATE CUBE t (region STRING DIM(4, 2), likes INT METRIC)",
    )
    .unwrap();
    cubrick::sql::execute(&engine, "INSERT INTO t VALUES ('us', 10)").unwrap();
    let handle = Server::start(
        Arc::clone(&engine),
        ServerConfig {
            max_inflight: 0,
            max_queue: 0,
            queue_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.query("SELECT COUNT(*) FROM t", None).unwrap();
    assert_eq!(response.status, 429, "{}", response.body);
    assert_eq!(
        response.json().unwrap().get("kind"),
        Some(&Json::Str("saturated".into()))
    );
    // The rejection is visible in the metrics report.
    let report = handle.state().metrics_report();
    assert!(report.contains("[server.admission]"), "{report}");
    let rejected = report
        .lines()
        .find(|l| l.starts_with("rejected = "))
        .unwrap();
    assert!(rejected.ends_with("= 1"), "one rejected select: {rejected}");
}

#[test]
fn protocol_errors_have_typed_statuses() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Bad SQL → 400 parse.
    let response = client.query("SELEKT 1", None).unwrap();
    assert_eq!(response.status, 400);
    // Unsupported SQL → 400 unsupported.
    let response = client.query("UPDATE t SET likes = 1", None).unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(
        response.json().unwrap().get("kind"),
        Some(&Json::Str("unsupported".into()))
    );
    // Engine errors → 422.
    let response = client.query("SELECT COUNT(*) FROM missing", None).unwrap();
    assert_eq!(response.status, 422);
    // AS OF outside the window → 422.
    let response = client
        .query("SELECT COUNT(*) FROM t AS OF 99", None)
        .unwrap();
    assert_eq!(response.status, 422, "{}", response.body);
    // Bad JSON body → 400.
    let response = client
        .request("POST", "/query", Some(&Json::Str("not an object".into())))
        .unwrap();
    assert_eq!(response.status, 400);
    // Unknown route → 404; bad method → 405.
    let response = client.request("POST", "/nope", None).unwrap();
    assert_eq!(response.status, 404);
    let response = client.request("PUT", "/query", None).unwrap();
    assert_eq!(response.status, 405);
}

#[test]
fn health_and_metrics_endpoints() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let health = client.request("GET", "/health", None).unwrap();
    assert_eq!(health.status, 200);
    let json = health.json().unwrap();
    assert_eq!(json.get("status"), Some(&Json::Str("ok".into())));
    assert!(json.get("lce").and_then(Json::as_f64).unwrap() >= 1.0);
    client.query("SELECT COUNT(*) FROM t", None).unwrap();
    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    for section in [
        "[server]",
        "[server.admission]",
        "[server.dedup]",
        "[server.sessions]",
        "[aosi]",
        "[engine]",
        "[shards]",
    ] {
        assert!(metrics.body.contains(section), "missing {section}");
    }
    assert!(metrics.body.contains("query.qps = "));
}

#[test]
fn identical_inflight_reads_are_deduplicated() {
    let (_engine, handle) = start_seeded(ServerConfig::default());
    let addr = handle.addr();
    let lce = {
        let mut client = Client::connect(addr).unwrap();
        let health = client.request("GET", "/health", None).unwrap();
        health
            .json()
            .unwrap()
            .get("lce")
            .and_then(Json::as_f64)
            .unwrap() as u64
    };
    // Many threads fire the same statement at the same frozen epoch
    // (AS OF pins the dedup key); at least one should share.
    let mut joins = Vec::new();
    for _ in 0..8 {
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut shared = 0u64;
            for _ in 0..20 {
                let response = client
                    .query(
                        &format!("SELECT SUM(likes) FROM t GROUP BY region AS OF {lce}"),
                        None,
                    )
                    .unwrap();
                assert_eq!(response.status, 200, "{}", response.body);
                if response.header("x-cubrick-dedup").is_some() {
                    shared += 1;
                }
            }
            shared
        }));
    }
    let shared: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(handle.state().metrics_report().contains("[server.dedup]"));
    // 160 identical requests: the dedup layer must have shared some
    // and every response was correct regardless (status asserted
    // above).
    assert!(shared > 0, "no request ever shared a leader's execution");
}

#[test]
fn concurrent_clients_with_checker_stay_si_clean() {
    let engine = Arc::new(Engine::new(2));
    let checker = Arc::new(SiChecker::new(NODE));
    let handle = Server::start_with_checker(
        Arc::clone(&engine),
        ServerConfig::default(),
        Some((Arc::clone(&checker), NODE)),
    )
    .unwrap();
    let addr = handle.addr();
    let mut seed = Client::connect(addr).unwrap();
    assert_eq!(
        seed.query("CREATE CUBE c (k INT DIM(8, 2), v INT METRIC)", None)
            .unwrap()
            .status,
        200
    );
    let mut joins = Vec::new();
    for client_id in 0..6 {
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut inserted = 0u64;
            for op in 0..25 {
                if op % 5 == 0 {
                    let response = client
                        .query(
                            &format!("INSERT INTO c VALUES ({}, {op})", (client_id + op) % 8),
                            None,
                        )
                        .unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    inserted += 1;
                } else {
                    let response = client.query("SELECT COUNT(*) FROM c", None).unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                }
            }
            inserted
        }));
    }
    let total_inserted: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    // Quiescent clock sample, then the SI verdict.
    let clock = engine.manager().clock();
    checker.record(checker::TxnEvent::ClockSample {
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
    // Count conservation: every committed insert is visible.
    let mut client = Client::connect(addr).unwrap();
    let response = client.query("SELECT COUNT(*) FROM c", None).unwrap();
    let count = response
        .json()
        .unwrap()
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()[0]
        .as_arr()
        .unwrap()[0]
        .as_f64()
        .unwrap();
    assert_eq!(count, total_inserted as f64, "row count drifted");
    handle.shutdown();
}
