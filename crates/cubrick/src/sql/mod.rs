//! A small SQL front-end over the engine.
//!
//! Cubrick is driven by DDL like the paper's Section V-A example:
//!
//! ```sql
//! CREATE CUBE test (region STRING DIM(4, 2), gender STRING DIM(4, 1),
//!                   likes INT METRIC, comments INT METRIC)
//! ```
//!
//! This module provides the statement surface a data-mart user needs
//! and nothing more — the analytic subset the engine actually
//! executes:
//!
//! * `CREATE CUBE name (col STRING|INT DIM(cardinality, range), …,
//!   col INT|FLOAT METRIC, …)`
//! * `INSERT INTO cube VALUES (…), (…), …` — one implicit
//!   transaction per statement.
//! * `SELECT agg(metric) [, …] FROM cube [WHERE dim IN (…) [AND …]]
//!   [GROUP BY dim]` — aggregations: `SUM`, `COUNT`, `MIN`, `MAX`,
//!   `AVG`.
//! * `DELETE FROM cube [WHERE dim IN (…)]` — partition-level, per the
//!   protocol.
//! * `PURGE` — advance LSE to LCE and garbage-collect.
//! * `SHOW MEMORY` — the Figure 6/7 accounting.
//!
//! There is intentionally no UPDATE and no single-row DELETE: the
//! parser rejects them with an explanation, which is the paper's
//! Section II argument surfaced at the API boundary.
//!
//! # Example
//!
//! ```
//! use cubrick::Engine;
//! use cubrick::sql::execute;
//!
//! let engine = Engine::new(1);
//! execute(&engine, "CREATE CUBE t (k INT DIM(8, 2), v INT METRIC)")?;
//! execute(&engine, "INSERT INTO t VALUES (1, 10), (2, 20)")?;
//! let out = execute(&engine, "SELECT SUM(v) FROM t")?;
//! assert!(out.render().contains("30"));
//! # Ok::<(), cubrick::sql::SqlError>(())
//! ```

mod exec;
mod lexer;
mod parser;

pub use exec::{
    execute, execute_select, execute_statement, render_float, shape_outcome, SelectOutcome,
    SqlOutput,
};
pub use parser::{parse, Statement};

/// Errors from the SQL layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer failure.
    Lex(String),
    /// Grammar failure.
    Parse(String),
    /// The statement is valid SQL but unsupported by design; the
    /// message explains the AOSI rationale.
    Unsupported(String),
    /// Execution failure from the engine.
    Engine(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(msg) => write!(f, "lex error: {msg}"),
            SqlError::Parse(msg) => write!(f, "parse error: {msg}"),
            SqlError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            SqlError::Engine(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<crate::error::CubrickError> for SqlError {
    fn from(e: crate::error::CubrickError) -> Self {
        SqlError::Engine(e.to_string())
    }
}
