//! Oracle harnesses: seeded schedules, executed and checked, shrunk to
//! replayable artifacts when they fail.
//!
//! The paper's central claim is that AOSI provides Snapshot
//! Isolation semantics equivalent to an MVCC design while storing
//! one version per record and one epochs vector per partition. This
//! crate turns that claim into executable checks: a seeded generator
//! (`workload::ops`) produces a multi-transaction schedule — loads,
//! explicit append transactions, partition deletes, rollbacks,
//! flush/purge maintenance, and point-in-time reads — and a harness
//! drives the AOSI [`cubrick::Engine`] through it and checks it.
//!
//! Every harness plugs into one framework ([`framework`]): one
//! [`Harness`] trait, one [`Failure`] type, one [`shrink`]er, one
//! artifact format with [`check_seed`]/[`replay`], and one
//! deterministic op executor (`exec`) whose per-harness differences
//! are hooks. The harnesses:
//!
//! * [`Differential`] — AOSI against the MVCC reference
//!   (`mvcc_baseline`), with the online SI checker attached, in three
//!   modes: **deterministic**, thread-pooled **stress** (its own
//!   executor), and WAL-replay **crash-recovery**.
//! * [`Scan`] — the parallel, memoized scan path against the
//!   sequential reference, bit for bit.
//! * [`Agg`] — the brick-partial merge algebra under seeded
//!   partitions, orders and associations.
//! * [`Torture`] — a power cut at *every* write-syscall boundary of
//!   every flush round (via [`wal::SimFs`]), recovery checked to
//!   restore exactly a complete flushed prefix; on a tiered engine the
//!   cuts also land inside spills and reloads.
//!
//! The suites read three environment variables ([`mod@seeds`]):
//! `AOSI_SEEDS`, `AOSI_REPLAY` and `AOSI_ARTIFACT_DIR`. See
//! `TESTING.md` at the repo root for the workflow.

#![warn(missing_docs)]

pub mod agg;
pub mod checks;
pub mod differential;
mod exec;
pub mod framework;
pub mod reference;
pub mod scan;
pub mod seeds;
pub mod torture;

pub use agg::{compare_merges, Agg, AggReport};
pub use differential::{Differential, Inject, Mode, RunReport};
pub use framework::{check_seed, replay, shrink, Failure, Harness, Shrunk};
pub use scan::{compare_paths, Scan, ScanReport};
pub use seeds::{artifact_dir, for_each_seed, replay_paths, seeds};
pub use torture::{BugHooks, Torture, TortureReport, CRASH_GEN, TIER_GEN};
