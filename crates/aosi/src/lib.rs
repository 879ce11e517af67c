//! # AOSI — Append-Only Snapshot Isolation
//!
//! This crate implements the concurrency-control protocol from
//! *Rethinking Concurrency Control for In-Memory OLAP DBMSs*
//! (Pedreira et al., ICDE 2018): a lock-free, single-version,
//! timestamp-based protocol that provides Snapshot Isolation for
//! column-oriented OLAP engines by dropping support for record
//! updates and single-record deletes.
//!
//! ## Protocol in one paragraph
//!
//! Every read-write transaction gets a monotonically increasing
//! *epoch* from its node's [`EpochClock`]. Nodes stride their epochs
//! (node *i* of *n* issues `i, i+n, i+2n, …`) so epochs never collide
//! across a cluster, and Lamport-style clock merging keeps nodes
//! loosely synchronized. Each partition keeps a tiny auxiliary
//! [`EpochsVector`]: one `(epoch, end, is_delete)` entry per
//! contiguous run of rows appended by one transaction — **not** one
//! timestamp per record. A transaction's [`Snapshot`] is its epoch
//! plus the set of transactions that were still pending when it began
//! (`deps`); a scan materializes the snapshot into a per-partition
//! visibility [`Bitmap`](columnar::Bitmap) and hands it to the
//! execution engine. Partition-level deletes are markers in the
//! epochs vector; `purge` applies them and compacts history once the
//! *Latest Safe Epoch* passes them.
//!
//! ## Key types
//!
//! * [`EpochClock`] — the three per-node counters (EC, LCE, LSE) with
//!   the invariant `EC > LCE >= LSE`, plus Lamport merging.
//! * [`TxnManager`] — begins/commits/rolls back transactions,
//!   maintains `pendingTxs`, and advances LCE/LSE per the paper's
//!   rules (Section III-B, Table I).
//! * [`EpochsVector`] — the per-partition metadata vector
//!   (Section III-C, Figures 1–3).
//! * [`Snapshot`] — an immutable visibility predicate.
//! * [`visibility::visible_bitmap`] — Table III's bitmap generation,
//!   including the secondary delete-cleanup pass.
//! * [`purge::purge`] — garbage collection at LSE (Figure 3).
//! * [`rollback::rollback_partition`] — removal of an aborted
//!   transaction's rows.
//!
//! ## Example
//!
//! ```
//! use aosi::{EpochsVector, TxnManager};
//!
//! let mgr = TxnManager::single_node();
//! let mut partition = EpochsVector::new();
//!
//! // T1 appends three rows, then commits.
//! let t1 = mgr.begin_rw();
//! partition.append(t1.epoch(), 3);
//! mgr.commit(&t1).unwrap();
//!
//! // A read-only transaction sees exactly those rows.
//! let snap = mgr.begin_ro();
//! let bitmap = partition.visible_bitmap(&snap);
//! assert_eq!(bitmap.count_ones(), 3);
//! ```

mod clock;
mod epoch;
mod epochs;
mod error;
mod manager;
mod snapshot;
mod txn;

pub mod cache;
pub mod purge;
pub mod rollback;
pub mod visibility;

pub use cache::CacheStats;
pub use clock::EpochClock;
pub use epoch::{Epoch, EpochEntry, NO_EPOCH};
pub use epochs::EpochsVector;
pub use error::AosiError;
pub use manager::{ManagerMetrics, ManagerStats, ReadGuard, TxnManager};
pub use purge::PurgeResult;
pub use rollback::{RollbackResult, TxnPartitionIndex};
pub use snapshot::Snapshot;
pub use txn::{Txn, TxnKind, TxnState};
