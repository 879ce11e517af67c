//! Columnar storage substrate for the AOSI reproduction.
//!
//! The AOSI protocol (see the `aosi` crate) assumes the underlying
//! engine is column-oriented: every attribute of a record lives in its
//! own append-only vector, records are addressed by their implicit
//! vector index, and scans are driven by per-partition *bitmaps* that
//! mark which row positions a transaction is allowed to see.
//!
//! This crate provides those building blocks:
//!
//! * [`BessVector`] — the paper's bit-packed multi-dimension
//!   encoding (footnote 3): all dimension coordinates of a record
//!   packed into one bit stream.
//! * [`Bitmap`] — a dense, word-packed scan mask with the bulk
//!   set/clear-range operations the AOSI visibility pass needs.
//! * [`Column`] — a typed, append-only column vector (`i64`, `f64`,
//!   dictionary-encoded strings).
//! * [`Dictionary`] — order-of-arrival dictionary encoding for string
//!   columns, as used by Cubrick (Section V-A of the paper).
//! * [`Schema`] / [`ColumnType`] — minimal schema metadata shared by
//!   the engine, the baselines, and the workload generators.
//! * [`Value`] / [`Row`] — row-wise record representation used at the
//!   ingestion boundary before records are shredded into columns.

mod bess;
mod bitmap;
mod column;
mod dictionary;
mod schema;
mod value;

pub use bess::BessVector;
pub use bitmap::Bitmap;
pub use column::{extend_doubling, Column};
pub use dictionary::Dictionary;
pub use schema::{ColumnType, Field, Schema};
pub use value::{Row, Value};
