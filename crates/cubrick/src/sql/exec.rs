//! Statement execution against an [`Engine`].

use super::parser::Statement;
use super::SqlError;
use crate::engine::{Engine, IsolationMode};
use crate::query::{Query, QueryStats};
use columnar::Value;

/// The result of executing one statement.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlOutput {
    /// DDL/DML acknowledgment with a human-readable summary.
    Ok(String),
    /// A result table: header plus rows of rendered cells.
    Table {
        /// Column headers.
        columns: Vec<String>,
        /// Rendered rows.
        rows: Vec<Vec<String>>,
    },
}

impl SqlOutput {
    /// Renders the output for a console session.
    pub fn render(&self) -> String {
        match self {
            SqlOutput::Ok(msg) => msg.clone(),
            SqlOutput::Table { columns, rows } => {
                let mut widths: Vec<usize> = columns.iter().map(String::len).collect();
                for row in rows {
                    for (w, cell) in widths.iter_mut().zip(row) {
                        *w = (*w).max(cell.len());
                    }
                }
                let mut out = String::new();
                let render_row = |cells: &[String], widths: &[usize]| -> String {
                    cells
                        .iter()
                        .zip(widths)
                        .map(|(c, w)| format!("{c:<w$}"))
                        .collect::<Vec<_>>()
                        .join("  ")
                };
                out.push_str(&render_row(columns, &widths));
                out.push('\n');
                for row in rows {
                    out.push_str(&render_row(row, &widths));
                    out.push('\n');
                }
                out
            }
        }
    }
}

/// Renders one aggregate cell for the console table: NaN (SQL NULL)
/// renders as `NULL`, integral values without a fraction, everything
/// else with four decimals.
pub fn render_float(v: f64) -> String {
    if v.is_nan() {
        "NULL".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// A typed SELECT result: the wire-protocol layer renders these rows
/// itself (JSON `null` for NaN aggregates, numbers for numbers),
/// while the console path stringifies them via [`render_float`].
#[derive(Clone, Debug, PartialEq)]
pub struct SelectOutcome {
    /// Column headers: the group-by dimensions followed by the
    /// aggregations in request order (or `rows` for an
    /// aggregation-free SELECT).
    pub columns: Vec<String>,
    /// One row per group: decoded group-key values plus aggregate
    /// values. NaN aggregates are SQL NULL (empty-group
    /// `Min`/`Max`/`Avg`).
    pub rows: Vec<(Vec<Value>, Vec<f64>)>,
    /// Scan counters from the underlying query.
    pub stats: QueryStats,
}

/// Executes one SELECT and returns typed rows.
///
/// `as_of` pins the read to an explicit epoch via the guarded
/// [`Engine::query_as_of`] window check; `None` reads the freshest
/// committed snapshot. Result-shape conventions shared by every
/// result surface:
///
/// * an aggregation-free SELECT yields one `rows` column holding the
///   visible row count;
/// * an ungrouped aggregation over an empty set yields one row —
///   COUNT is `0.0`, every other aggregate is NaN (SQL NULL).
pub fn execute_select(
    engine: &Engine,
    cube: &str,
    query: &Query,
    as_of: Option<u64>,
) -> Result<SelectOutcome, SqlError> {
    let result = match as_of {
        Some(epoch) => engine.query_as_of(cube, query, epoch)?,
        None => engine.query(cube, query, IsolationMode::Snapshot)?,
    };
    Ok(shape_outcome(query, result))
}

/// [`execute_select`] pinned to `epoch`, with every coordinator-side
/// refinement shaped and forwarded through `on_partial` before the
/// complete outcome is returned. The server's progressive `/query`
/// mode streams the refinements as NDJSON lines.
pub fn execute_select_with_progress(
    engine: &Engine,
    cube: &str,
    query: &Query,
    epoch: u64,
    mut on_partial: impl FnMut(SelectOutcome),
) -> Result<SelectOutcome, SqlError> {
    let result = engine.query_as_of_with_progress(cube, query, epoch, |partial| {
        on_partial(shape_outcome(query, partial));
    })?;
    Ok(shape_outcome(query, result))
}

/// Shapes an engine result into the shared SELECT surface: column
/// headers, the aggregation-free row count, and the one-NULL-row
/// convention for ungrouped aggregation over an empty set.
fn shape_outcome(query: &Query, result: crate::query::QueryResult) -> SelectOutcome {
    let mut columns = Vec::new();
    for group in &query.group_by {
        columns.push(group.clone());
    }
    for agg in &query.aggregations {
        let metric = if agg.metric.is_empty() {
            "*"
        } else {
            &agg.metric
        };
        columns.push(format!("{:?}({})", agg.func, metric).to_lowercase());
    }
    let mut rows: Vec<(Vec<Value>, Vec<f64>)>;
    if query.aggregations.is_empty() {
        // An aggregation-free SELECT still reports the visible row
        // count (useful for the single-column dataset).
        columns.push("rows".into());
        rows = vec![(Vec::new(), vec![result.stats.rows_visible as f64])];
    } else {
        rows = result.rows;
        // SQL semantics for an ungrouped aggregation over an empty
        // set: one row — COUNT is 0, the rest are NULL.
        if rows.is_empty() && query.group_by.is_empty() {
            rows.push((
                Vec::new(),
                query
                    .aggregations
                    .iter()
                    .map(|a| match a.func {
                        crate::query::AggFn::Count => 0.0,
                        _ => f64::NAN,
                    })
                    .collect(),
            ));
        }
    }
    SelectOutcome {
        columns,
        rows,
        stats: result.stats,
    }
}

/// Parses and executes one statement against `engine`.
///
/// Queries run under snapshot isolation (the system's default mode);
/// inserts and deletes are implicit transactions, exactly like the
/// engine's native API.
pub fn execute(engine: &Engine, sql: &str) -> Result<SqlOutput, SqlError> {
    execute_statement(engine, super::parser::parse(sql)?)
}

/// Executes one already-parsed statement against `engine`.
///
/// Split from [`execute`] so callers that inspect or rewrite the
/// statement first (the server overlays session-pinned `AS OF`
/// epochs) don't parse twice.
pub fn execute_statement(engine: &Engine, statement: Statement) -> Result<SqlOutput, SqlError> {
    match statement {
        Statement::CreateCube(schema) => {
            let name = schema.name.clone();
            let bricks = schema.max_bricks();
            engine.create_cube(schema)?;
            Ok(SqlOutput::Ok(format!(
                "created cube {name} (at most {bricks} bricks)"
            )))
        }
        Statement::Insert { cube, rows } => {
            let outcome = engine.load(&cube, &rows, 0)?;
            Ok(SqlOutput::Ok(format!(
                "inserted {} row(s) as transaction T{}",
                outcome.accepted, outcome.epoch
            )))
        }
        Statement::Select { cube, query, as_of } => {
            let outcome = execute_select(engine, &cube, &query, as_of)?;
            let rows_out = outcome
                .rows
                .iter()
                .map(|(keys, values)| {
                    let mut row: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                    row.extend(values.iter().map(|&v| render_float(v)));
                    row
                })
                .collect();
            Ok(SqlOutput::Table {
                columns: outcome.columns,
                rows: rows_out,
            })
        }
        Statement::Delete { cube, filters } => {
            let (epoch, marked) = engine.delete_where(&cube, &filters)?;
            Ok(SqlOutput::Ok(format!(
                "marked {marked} partition(s) deleted as transaction T{epoch} \
                 (rows reclaimed on the next purge)"
            )))
        }
        Statement::DropCube(name) => {
            engine.drop_cube(&name)?;
            Ok(SqlOutput::Ok(format!("dropped cube {name}")))
        }
        Statement::Purge => {
            let stats = engine.advance_lse_and_purge();
            Ok(SqlOutput::Ok(format!(
                "purged {} row(s), reclaimed {} epochs entr(ies) across {} brick(s) at LSE {}",
                stats.rows_purged,
                stats.entries_reclaimed,
                stats.bricks_changed,
                engine.manager().lse()
            )))
        }
        Statement::ShowCubes => {
            let rows = engine
                .cube_names()
                .into_iter()
                .map(|name| {
                    let bricks = engine
                        .cube(&name)
                        .map(|c| c.schema().max_bricks().to_string())
                        .unwrap_or_default();
                    vec![name, bricks]
                })
                .collect();
            Ok(SqlOutput::Table {
                columns: vec!["cube".into(), "max_bricks".into()],
                rows,
            })
        }
        Statement::ShowStats => {
            let ops = engine.op_stats();
            let txns = engine.manager().stats();
            Ok(SqlOutput::Table {
                columns: vec!["counter".into(), "value".into()],
                rows: vec![
                    vec!["loads".into(), ops.loads.to_string()],
                    vec!["rows_loaded".into(), ops.rows_loaded.to_string()],
                    vec!["queries".into(), ops.queries.to_string()],
                    vec!["deletes".into(), ops.deletes.to_string()],
                    vec!["purges".into(), ops.purges.to_string()],
                    vec!["rollbacks".into(), ops.rollbacks.to_string()],
                    vec!["txns_committed".into(), txns.committed.to_string()],
                    vec!["txns_pending".into(), txns.pending.to_string()],
                    vec![
                        "ec".into(),
                        engine.manager().clock().current_ec().to_string(),
                    ],
                    vec!["lce".into(), engine.manager().lce().to_string()],
                    vec!["lse".into(), engine.manager().lse().to_string()],
                ],
            })
        }
        Statement::ShowMemory => {
            let m = engine.memory();
            Ok(SqlOutput::Table {
                columns: vec!["metric".into(), "value".into()],
                rows: vec![
                    vec!["rows".into(), m.rows.to_string()],
                    vec!["data_bytes".into(), m.data_bytes.to_string()],
                    vec!["aosi_bytes".into(), m.aosi_bytes.to_string()],
                    vec!["dictionary_bytes".into(), m.dictionary_bytes.to_string()],
                    vec!["bricks".into(), m.bricks.to_string()],
                    vec![
                        "mvcc_baseline_bytes".into(),
                        m.mvcc_baseline_bytes.to_string(),
                    ],
                ],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_data() -> Engine {
        let engine = Engine::new(2);
        execute(
            &engine,
            "CREATE CUBE test (region STRING DIM(4, 2), gender STRING DIM(4, 1), \
             likes INT METRIC, comments INT METRIC)",
        )
        .unwrap();
        execute(
            &engine,
            "INSERT INTO test VALUES ('us', 'male', 12, 3), ('us', 'female', 7, 1), \
             ('br', 'male', 5, 0), ('mx', 'female', 9, 4)",
        )
        .unwrap();
        engine
    }

    #[test]
    fn full_session_roundtrip() {
        let engine = engine_with_data();
        let out = execute(
            &engine,
            "SELECT SUM(likes), COUNT(*) FROM test GROUP BY region",
        )
        .unwrap();
        let SqlOutput::Table { columns, rows } = out else {
            panic!("expected table");
        };
        assert_eq!(columns, vec!["region", "sum(likes)", "count(*)"]);
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&vec!["us".into(), "19".into(), "2".into()]));
        assert!(rows.contains(&vec!["br".into(), "5".into(), "1".into()]));
    }

    #[test]
    fn multi_dimension_group_by_via_sql() {
        let engine = engine_with_data();
        let out = execute(&engine, "SELECT COUNT(*) FROM test GROUP BY region, gender").unwrap();
        let SqlOutput::Table { columns, rows } = out else {
            panic!("expected table");
        };
        assert_eq!(columns, vec!["region", "gender", "count(*)"]);
        assert_eq!(rows.len(), 4, "four distinct (region, gender) pairs");
        assert!(rows.iter().all(|r| r.len() == 3 && r[2] == "1"));
    }

    #[test]
    fn order_by_and_limit_via_sql() {
        let engine = engine_with_data();
        let out = execute(
            &engine,
            "SELECT SUM(likes) FROM test GROUP BY region              ORDER BY SUM(likes) DESC LIMIT 2",
        )
        .unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!("expected table");
        };
        assert_eq!(
            rows,
            vec![
                vec!["us".to_string(), "19".to_string()],
                vec!["mx".to_string(), "9".to_string()],
            ]
        );
        // Ordering by a dimension, ascending by default.
        let out = execute(
            &engine,
            "SELECT COUNT(*) FROM test GROUP BY region ORDER BY region",
        )
        .unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!()
        };
        let regions: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(regions, vec!["br", "mx", "us"]);
        // ORDER BY of an aggregation not in the SELECT list fails.
        assert!(matches!(
            execute(
                &engine,
                "SELECT SUM(likes) FROM test GROUP BY region ORDER BY MAX(likes)"
            ),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn having_filters_groups_via_sql() {
        let engine = engine_with_data();
        // Sums by region: us=19, br=5, mx=9. HAVING > 8 keeps us, mx.
        let out = execute(
            &engine,
            "SELECT SUM(likes) FROM test GROUP BY region HAVING SUM(likes) > 8 \
             ORDER BY SUM(likes) DESC",
        )
        .unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!("expected table");
        };
        assert_eq!(
            rows,
            vec![
                vec!["us".to_string(), "19".to_string()],
                vec!["mx".to_string(), "9".to_string()],
            ]
        );
        // Every operator spelling parses and executes.
        for (clause, expected_regions) in [
            ("HAVING COUNT(*) = 1", 2usize),
            ("HAVING COUNT(*) != 1", 1),
            ("HAVING COUNT(*) <> 1", 1),
            ("HAVING COUNT(*) >= 1", 3),
            ("HAVING COUNT(*) <= 1", 2),
            ("HAVING COUNT(*) < 1", 0),
        ] {
            let out = execute(
                &engine,
                &format!("SELECT COUNT(*) FROM test GROUP BY region {clause}"),
            )
            .unwrap();
            let SqlOutput::Table { rows, .. } = out else {
                panic!("expected table");
            };
            assert_eq!(rows.len(), expected_regions, "{clause}");
        }
        // HAVING referencing an aggregation outside the SELECT list
        // is a parse error, exactly like ORDER BY.
        assert!(matches!(
            execute(
                &engine,
                "SELECT SUM(likes) FROM test GROUP BY region HAVING MAX(likes) > 0"
            ),
            Err(SqlError::Parse(_))
        ));
        // Malformed HAVING clauses fail cleanly.
        assert!(matches!(
            execute(
                &engine,
                "SELECT SUM(likes) FROM test GROUP BY region HAVING SUM(likes) 5"
            ),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            execute(
                &engine,
                "SELECT SUM(likes) FROM test GROUP BY region HAVING SUM(likes) > 'x'"
            ),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn where_clause_filters() {
        let engine = engine_with_data();
        let out = execute(
            &engine,
            "SELECT SUM(likes) FROM test WHERE region IN ('us') AND gender IN ('male')",
        )
        .unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!("expected table");
        };
        assert_eq!(rows, vec![vec!["12".to_string()]]);
    }

    #[test]
    fn delete_then_purge_via_sql() {
        let engine = engine_with_data();
        let out = execute(&engine, "DELETE FROM test WHERE gender IN ('male')").unwrap();
        assert!(matches!(out, SqlOutput::Ok(msg) if msg.contains("partition")));
        let out = execute(&engine, "SELECT COUNT(*) FROM test").unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!("expected table");
        };
        assert_eq!(rows, vec![vec!["2".to_string()]], "male partitions gone");
        let out = execute(&engine, "PURGE").unwrap();
        assert!(matches!(out, SqlOutput::Ok(msg) if msg.contains("purged 2 row(s)")));
    }

    #[test]
    fn show_stats_reports_counters() {
        let engine = engine_with_data();
        execute(&engine, "SELECT COUNT(*) FROM test").unwrap();
        execute(&engine, "DELETE FROM test").unwrap();
        execute(&engine, "PURGE").unwrap();
        let out = execute(&engine, "SHOW STATS").unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!()
        };
        let get = |name: &str| {
            rows.iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(get("loads"), "1");
        assert_eq!(get("rows_loaded"), "4");
        assert_eq!(get("queries"), "1");
        assert_eq!(get("deletes"), "1");
        assert_eq!(get("purges"), "1");
        assert_eq!(get("lce"), "2");
    }

    #[test]
    fn show_memory_reports_accounting() {
        let engine = engine_with_data();
        let out = execute(&engine, "SHOW MEMORY").unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!("expected table");
        };
        let rows_row = rows.iter().find(|r| r[0] == "rows").unwrap();
        assert_eq!(rows_row[1], "4");
    }

    #[test]
    fn errors_surface_cleanly() {
        let engine = Engine::new(1);
        assert!(matches!(
            execute(&engine, "SELECT SUM(x) FROM missing"),
            Err(SqlError::Engine(_))
        ));
        assert!(matches!(
            execute(&engine, "UPDATE t SET x = 1"),
            Err(SqlError::Unsupported(_))
        ));
        engine
            .create_cube(
                crate::ddl::CubeSchema::new(
                    "t",
                    vec![crate::ddl::Dimension::int("k", 4, 1)],
                    vec![],
                )
                .unwrap(),
            )
            .unwrap();
        assert!(matches!(
            execute(&engine, "SELECT SUM(nope) FROM t"),
            Err(SqlError::Engine(_))
        ));
    }

    #[test]
    fn select_without_aggregations_counts_rows() {
        let engine = Engine::new(1);
        execute(&engine, "CREATE CUBE sc (k INT DIM(16, 4))").unwrap();
        execute(&engine, "INSERT INTO sc VALUES (1), (2), (9)").unwrap();
        // Grammar needs at least one aggregation in SELECT; use the
        // engine path for the bare count instead.
        let out = execute(&engine, "SELECT COUNT(*) FROM sc").unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows, vec![vec!["3".to_string()]]);
    }

    #[test]
    fn drop_show_and_time_travel() {
        let engine = engine_with_data();
        // SHOW CUBES lists the cube.
        let out = execute(&engine, "SHOW CUBES").unwrap();
        let SqlOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows, vec![vec!["test".to_string(), "8".to_string()]]);

        // Time travel: epoch 1 (first insert) vs after a delete.
        execute(&engine, "DELETE FROM test").unwrap();
        let now = execute(&engine, "SELECT COUNT(*) FROM test").unwrap();
        let SqlOutput::Table { rows, .. } = now else {
            panic!()
        };
        assert_eq!(rows, vec![vec!["0".to_string()]]);
        let then = execute(&engine, "SELECT COUNT(*) FROM test AS OF 1").unwrap();
        let SqlOutput::Table { rows, .. } = then else {
            panic!()
        };
        assert_eq!(rows, vec![vec!["4".to_string()]]);
        // Out-of-window epochs error cleanly.
        assert!(matches!(
            execute(&engine, "SELECT COUNT(*) FROM test AS OF 99"),
            Err(SqlError::Engine(_))
        ));

        // DROP CUBE removes everything.
        execute(&engine, "DROP CUBE test").unwrap();
        assert!(matches!(
            execute(&engine, "SELECT COUNT(*) FROM test"),
            Err(SqlError::Engine(_))
        ));
        assert!(matches!(
            execute(&engine, "DROP CUBE test"),
            Err(SqlError::Engine(_))
        ));
    }

    #[test]
    fn render_formats_tables() {
        let out = SqlOutput::Table {
            columns: vec!["region".into(), "sum(likes)".into()],
            rows: vec![
                vec!["us".into(), "19".into()],
                vec!["brazil".into(), "5".into()],
            ],
        };
        let rendered = out.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("region"));
        assert!(lines[2].starts_with("brazil"));
    }

    #[test]
    fn float_rendering() {
        assert_eq!(render_float(3.0), "3");
        assert_eq!(render_float(2.5), "2.5000");
        assert_eq!(render_float(f64::NAN), "NULL");
    }
}
