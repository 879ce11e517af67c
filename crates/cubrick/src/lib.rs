//! A Cubrick-style in-memory OLAP engine (Section V of the paper),
//! hosting the AOSI protocol.
//!
//! Cubrick organizes data with *Granular Partitioning*: every
//! dimension declares its cardinality and a range size up front; the
//! overlap of one range per dimension is a partition — a **brick** —
//! identified by a *bid* built from the bitwise concatenation of the
//! per-dimension range indexes. Bricks are sparse, materialized on
//! first insert, store data column-wise, unordered and append-only,
//! and carry the AOSI epochs vector as their only concurrency-control
//! metadata.
//!
//! Layers in this crate:
//!
//! * [`CubeSchema`] / DDL — dimensions, metrics, cardinality, range
//!   sizes (Section V-A's `CREATE CUBE` statement).
//! * [`bid`] — bid packing/unpacking and range-index pruning.
//! * [`Brick`] — columnar partition + epochs vector.
//! * [`Cube`] — the brick map plus per-string-dimension dictionaries.
//! * `ingest` — the three-step pipeline: parse, validate/forward,
//!   flush (Section V-B), with `max_rejected` semantics.
//! * [`ShardPool`] — bid-sharded single-writer executors: every brick
//!   is owned by exactly one shard thread, so brick operations need
//!   no locks at all (Section V-B's flushing design).
//! * [`Engine`] — a single node: transaction manager + cubes +
//!   shards; loads, queries (snapshot-isolated or read-uncommitted),
//!   partition deletes, purge, rollback.
//! * [`DistributedEngine`] — N engines behind a consistent-hashing
//!   ring and the Section IV distributed transaction flow.
//!
//! # Example
//!
//! ```
//! use cubrick::{AggFn, Aggregation, CubeSchema, Dimension, Engine,
//!               IsolationMode, Metric, Query};
//! use columnar::Value;
//!
//! let engine = Engine::new(2);
//! engine.create_cube(CubeSchema::new(
//!     "events",
//!     vec![Dimension::string("region", 4, 2)],
//!     vec![Metric::int("likes")],
//! )?)?;
//! engine.load("events", &[
//!     vec![Value::from("us"), Value::from(12i64)],
//!     vec![Value::from("br"), Value::from(5i64)],
//! ], 0)?;
//! let total = engine.query(
//!     "events",
//!     &Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]),
//!     IsolationMode::Snapshot,
//! )?;
//! assert_eq!(total.scalar(), Some(17.0));
//! # Ok::<(), cubrick::CubrickError>(())
//! ```

pub mod agg;
pub mod bid;
mod brick;
mod cube;
mod ddl;
mod distributed;
mod elastic;
mod engine;
mod error;
mod ingest;
mod maintenance;
mod memo;
mod persist;
mod query;
mod scan;
mod shard;
pub mod sql;
mod tier;

pub use agg::AggState;
pub use brick::{Brick, BrickMemory, DimStorage};
pub use cube::{Cube, CubeMemory};
pub use ddl::{CubeSchema, Dimension, Metric, MetricType};
pub use distributed::{DistributedEngine, DistributedLoadOutcome, ElasticConfig};
#[doc(hidden)]
pub use elastic::HandoffBreak;
pub use engine::{
    Engine, EngineMemory, EngineOpStats, IsolationMode, LoadOutcome, LoadStageTimings, PurgeStats,
    ScanConfig,
};
pub use error::CubrickError;
pub use ingest::{parse_rows, ParsedBatch, RecordChunk};
pub use maintenance::PurgeDaemon;
pub use persist::{BrickDelta, DeltaRun};
pub use query::{
    AggFn, Aggregation, CmpOp, DimFilter, Having, OrderBy, PartialResult, Query, QueryResult,
    QueryStats, ScanKernel,
};
pub use shard::{ShardPool, TaskHandle};
pub use tier::{BrickStore, TierEnforcement, TierError, TierStats, TieredStore};
