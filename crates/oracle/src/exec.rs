//! The one deterministic schedule executor.
//!
//! [`Exec`] drives an [`Engine`] through a schedule's ops in order on
//! one thread, keeping the open transaction slots and the log of
//! committed operations the reference replays ([`CommittedOp`]). Where
//! harnesses differ they implement [`Hooks`], and each keeps its own
//! choice:
//!
//! * what a checkpoint compares ([`Hooks::check`]);
//! * what `Flush` and `Purge` do ([`Hooks::flush`], [`Hooks::purge`]);
//! * whether `Load` is one `Engine::load` or begin/append/commit
//!   ([`Hooks::bulk_load`]);
//! * whether the SI checker rides along (the `checker` argument of
//!   [`Exec::new`]).
//!
//! Ops naming a slot that is not open are no-ops, so every
//! subsequence of a schedule — what the shrinker produces — executes.
//! A partition delete first commits every open slot (the straggler
//! guard), so epoch order equals physical order and the row-level
//! reference stays sound (see `workload::ops`).
//!
//! The stress executor in [`crate::differential`] is separate: it runs
//! transaction-sized units on a thread pool.

use std::collections::BTreeSet;

use aosi::{Snapshot, Txn};
use checker::{SiChecker, TxnEvent};
use columnar::{Row, Value};
use cubrick::{At, Deliver, DimFilter, Engine};
use workload::ops::{bucket_days, oracle_schema, LogicalOp, Schedule, ORACLE_CUBE};

use crate::checks::{build_query, diff, eval_rows, fingerprint, normalize, Norm, NUM_QUERIES};
use crate::framework::Failure;
use crate::reference::{CommittedOp, Replay};

/// Checker node id of the single-node engine.
pub(crate) const NODE: u64 = 1;

/// Why execution stopped early.
pub(crate) enum Stop {
    /// A simulated power cut fired: the disk holds its durable image
    /// and every further syscall fails.
    PowerCut,
    /// A genuine failure.
    Fail(Failure),
}

impl From<Failure> for Stop {
    fn from(failure: Failure) -> Stop {
        Stop::Fail(failure)
    }
}

/// Where a checkpoint op reads.
pub(crate) enum Checkpoint {
    /// `CheckNow`: the latest committed snapshot, at this epoch.
    Now(u64),
    /// `CheckAsOf`: this epoch inside the readable window.
    AsOf(u64),
    /// `CheckTxn`: inside the open transaction in this slot.
    Txn(usize),
}

impl Checkpoint {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Checkpoint::Now(_) => "check",
            Checkpoint::AsOf(_) => "as-of",
            Checkpoint::Txn(_) => "in-txn",
        }
    }
}

/// What a harness adds to the shared executor.
pub(crate) trait Hooks {
    /// `true`: `Load` is one [`Engine::load`], which the reference log
    /// does not see — for harnesses that compare the engine with
    /// itself. `false`: begin/append/commit, logged and checked.
    fn bulk_load(&self) -> bool {
        false
    }

    /// Executes a `Flush` op.
    fn flush(&mut self, x: &mut Exec, _i: usize) -> Result<(), Stop> {
        x.engine.advance_lse_and_purge();
        Ok(())
    }

    /// Executes a `Purge` op.
    fn purge(&mut self, x: &mut Exec, _i: usize) -> Result<(), Stop> {
        x.engine.advance_lse_and_purge();
        Ok(())
    }

    /// Executes checkpoint op `i`.
    fn check(&mut self, x: &mut Exec, i: usize, at: Checkpoint) -> Result<(), Failure>;

    /// Post-processes an op's outcome: a harness on a simulated disk
    /// folds "the power died somewhere inside this op" into
    /// [`Stop::PowerCut`].
    fn settle(&self, outcome: Result<(), Stop>) -> Result<(), Stop> {
        outcome
    }
}

pub(crate) struct OpenSlot {
    pub txn: Txn,
    pub rows: Vec<Row>,
}

/// Engine, transaction slots, committed log, optional SI checker.
pub(crate) struct Exec {
    pub engine: Engine,
    pub slots: Vec<Option<OpenSlot>>,
    pub log: Vec<CommittedOp>,
    pub checker: Option<SiChecker>,
    /// Query comparisons performed.
    pub comparisons: u64,
}

/// The oracle cube on a default two-shard engine.
pub(crate) fn engine_with_cube() -> Engine {
    let engine = Engine::new(2);
    engine
        .create_cube(oracle_schema())
        .expect("oracle schema registers");
    engine
}

pub(crate) fn days_of(buckets: &[u32]) -> Vec<i64> {
    let set: BTreeSet<i64> = buckets.iter().flat_map(|b| bucket_days(*b)).collect();
    set.into_iter().collect()
}

pub(crate) fn day_filter(days: &[i64]) -> DimFilter {
    DimFilter::new("day", days.iter().copied().map(Value::I64).collect())
}

/// Sizes the slot table for the slots `schedule` names.
pub(crate) fn slot_count(schedule: &Schedule) -> usize {
    schedule
        .ops
        .iter()
        .filter_map(|op| match op {
            LogicalOp::Begin { slot }
            | LogicalOp::Append { slot, .. }
            | LogicalOp::Commit { slot }
            | LogicalOp::Rollback { slot }
            | LogicalOp::CheckTxn { slot } => Some(*slot + 1),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

impl Exec {
    pub(crate) fn new(engine: Engine, slots: usize, log: Vec<CommittedOp>, checker: bool) -> Exec {
        Exec {
            engine,
            slots: (0..slots).map(|_| None).collect(),
            log,
            checker: checker.then(|| SiChecker::new(1)),
            comparisons: 0,
        }
    }

    /// Applies `ops[from..]`. Returns the index just past the op in
    /// which a power cut fired, if one did (only hooks on a simulated
    /// disk ever report one).
    pub(crate) fn run(
        &mut self,
        hooks: &mut impl Hooks,
        ops: &[LogicalOp],
        from: usize,
    ) -> Result<Option<usize>, Failure> {
        for (i, op) in ops.iter().enumerate().skip(from) {
            let outcome = self.apply(hooks, i, op);
            match hooks.settle(outcome) {
                Ok(()) => {}
                Err(Stop::PowerCut) => return Ok(Some(i + 1)),
                Err(Stop::Fail(failure)) => return Err(failure),
            }
        }
        Ok(None)
    }

    pub(crate) fn apply(
        &mut self,
        hooks: &mut impl Hooks,
        i: usize,
        op: &LogicalOp,
    ) -> Result<(), Stop> {
        match op {
            LogicalOp::Begin { slot } => self.begin(*slot),
            LogicalOp::Append { slot, rows } => self.append(i, *slot, rows)?,
            LogicalOp::Commit { slot } => self.commit_slot(Some(i), *slot)?,
            LogicalOp::Rollback { slot } => self.rollback_slot(i, *slot)?,
            LogicalOp::Load { rows } if hooks.bulk_load() => {
                self.engine
                    .load(ORACLE_CUBE, rows, 0)
                    .map_err(|e| Failure::at(Some(i), format!("load failed: {e}")))?;
            }
            LogicalOp::Load { rows } => self.load(i, rows)?,
            LogicalOp::DeleteDays { buckets } => self.delete(i, buckets)?,
            LogicalOp::Purge => {
                hooks.purge(self, i)?;
                self.clock_sample();
            }
            LogicalOp::Flush => {
                hooks.flush(self, i)?;
                self.clock_sample();
            }
            LogicalOp::CheckNow => {
                // Single-threaded: nothing purges between dropping the
                // read guard and the checkpoint's queries, so the
                // guard only yields the committed snapshot epoch.
                let epoch = self.engine.manager().begin_read().snapshot().epoch();
                hooks.check(self, i, Checkpoint::Now(epoch))?;
            }
            LogicalOp::CheckAsOf { frac } => {
                let (lse, lce) = (self.engine.manager().lse(), self.engine.manager().lce());
                if lce > 0 {
                    let window = lce - lse + 1;
                    let epoch = (lse + (u64::from(*frac) * window) / 256).min(lce);
                    hooks.check(self, i, Checkpoint::AsOf(epoch))?;
                }
            }
            LogicalOp::CheckTxn { slot } => {
                if self.open(*slot).is_some() {
                    hooks.check(self, i, Checkpoint::Txn(*slot))?;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn open(&self, slot: usize) -> Option<&OpenSlot> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Feeds the SI checker, if one rides along.
    pub(crate) fn record(&self, event: impl FnOnce() -> TxnEvent) {
        if let Some(checker) = &self.checker {
            checker.record(event());
        }
    }

    fn record_begin(&self, txn: &Txn) {
        self.record(|| TxnEvent::Begin {
            node: NODE,
            epoch: txn.epoch(),
            deps: txn.snapshot().deps().clone(),
        });
    }

    fn clock_sample(&self) {
        if let Some(checker) = &self.checker {
            clock_sample(&self.engine, checker);
        }
    }

    fn begin(&mut self, slot: usize) {
        if slot < self.slots.len() && self.slots[slot].is_none() {
            let txn = self.engine.begin();
            self.record_begin(&txn);
            self.slots[slot] = Some(OpenSlot {
                txn,
                rows: Vec::new(),
            });
        }
    }

    fn append(&mut self, i: usize, slot: usize, rows: &[Row]) -> Result<(), Failure> {
        let Some(open) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        let (accepted, rejected) = self
            .engine
            .append(ORACLE_CUBE, rows, &open.txn)
            .map_err(|e| Failure::at(Some(i), format!("append failed: {e}")))?;
        if rejected != 0 || accepted != rows.len() {
            return Err(Failure::at(
                Some(i),
                format!("generated rows rejected: accepted {accepted}, rejected {rejected}"),
            ));
        }
        open.rows.extend_from_slice(rows);
        Ok(())
    }

    fn commit_slot(&mut self, i: Option<usize>, slot: usize) -> Result<(), Failure> {
        let Some(open) = self.slots.get_mut(slot).and_then(Option::take) else {
            return Ok(());
        };
        self.engine
            .commit(&open.txn)
            .map_err(|e| Failure::at(i, format!("commit failed: {e}")))?;
        let epoch = open.txn.epoch();
        self.record(|| TxnEvent::Commit { node: NODE, epoch });
        self.log.push(CommittedOp::Rows {
            epoch,
            rows: open.rows,
        });
        Ok(())
    }

    fn rollback_slot(&mut self, i: usize, slot: usize) -> Result<(), Failure> {
        let Some(open) = self.slots.get_mut(slot).and_then(Option::take) else {
            return Ok(());
        };
        let removed = self
            .engine
            .rollback(&open.txn)
            .map_err(|e| Failure::at(Some(i), format!("rollback failed: {e}")))?;
        if removed != open.rows.len() as u64 {
            return Err(Failure::at(
                Some(i),
                format!(
                    "rollback reclaimed {removed} rows, transaction appended {}",
                    open.rows.len()
                ),
            ));
        }
        let epoch = open.txn.epoch();
        self.record(|| TxnEvent::Rollback { node: NODE, epoch });
        Ok(())
    }

    /// A load through an explicit transaction, so the checker sees a
    /// full Begin/Commit lifecycle for every epoch.
    fn load(&mut self, i: usize, rows: &[Row]) -> Result<(), Failure> {
        let txn = self.engine.begin();
        self.record_begin(&txn);
        let (accepted, rejected) = self
            .engine
            .append(ORACLE_CUBE, rows, &txn)
            .map_err(|e| Failure::at(Some(i), format!("load failed: {e}")))?;
        if rejected != 0 || accepted != rows.len() {
            return Err(Failure::at(
                Some(i),
                format!("load rejected {rejected} generated rows"),
            ));
        }
        self.engine
            .commit(&txn)
            .map_err(|e| Failure::at(Some(i), format!("load commit failed: {e}")))?;
        let epoch = txn.epoch();
        self.record(|| TxnEvent::Commit { node: NODE, epoch });
        self.log.push(CommittedOp::Rows {
            epoch,
            rows: rows.to_vec(),
        });
        Ok(())
    }

    fn delete(&mut self, i: usize, buckets: &[u32]) -> Result<(), Failure> {
        // Straggler guard: a shrunk schedule may have lost the commits
        // that closed slots before this delete.
        for slot in 0..self.slots.len() {
            self.commit_slot(Some(i), slot)?;
        }
        let days = days_of(buckets);
        let (epoch, _marked) = self
            .engine
            .delete_where(ORACLE_CUBE, &[day_filter(&days)])
            .map_err(|e| Failure::at(Some(i), format!("delete_where failed: {e}")))?;
        // delete_where runs its own implicit transaction; with every
        // slot closed its dependency set is empty.
        self.record(|| TxnEvent::Begin {
            node: NODE,
            epoch,
            deps: BTreeSet::new(),
        });
        self.record(|| TxnEvent::Commit { node: NODE, epoch });
        self.log.push(CommittedOp::Delete { epoch, days });
        Ok(())
    }

    /// Commits every transaction still open, so the readable window is
    /// final.
    pub(crate) fn quiesce(&mut self) -> Result<(), Failure> {
        for slot in 0..self.slots.len() {
            self.commit_slot(None, slot)?;
        }
        Ok(())
    }

    /// Runs the check battery at committed epoch `target` and diffs it
    /// against the reference at `claimed` (they differ only under an
    /// injected stale-snapshot bug), feeding the checker.
    pub(crate) fn check_committed(
        &mut self,
        i: usize,
        label: &str,
        claimed: u64,
        target: u64,
    ) -> Result<(), Failure> {
        let replay = Replay::build(&self.log);
        let snap = Snapshot::committed(target);
        for idx in 0..NUM_QUERIES {
            let result = self
                .engine
                .read(
                    ORACLE_CUBE,
                    &build_query(idx),
                    At::Snapshot(&snap),
                    Deliver::Final,
                )
                .map_err(|e| Failure::at(Some(i), format!("{label} q{idx} failed: {e}")))?;
            let aosi = normalize(&result);
            let reference = eval_rows(&replay.rows_at_epoch(claimed), idx);
            self.comparisons += 1;
            if let Some(d) = diff(&aosi, &reference) {
                return Err(Failure::at(
                    Some(i),
                    format!("{label} q{idx} at epoch {claimed}: {d}"),
                ));
            }
            self.record(|| committed_read(claimed, idx, &aosi));
        }
        Ok(())
    }
}

/// The checker event for a committed-snapshot read of check query
/// `idx`. Live checkpoints and sweeps share the key, so a sweep
/// cross-validates every earlier fingerprint at the same epoch (SI
/// read stability).
pub(crate) fn committed_read(epoch: u64, idx: usize, norm: &Norm) -> TxnEvent {
    TxnEvent::Read {
        node: NODE,
        snapshot_epoch: epoch,
        deps: BTreeSet::new(),
        observed: BTreeSet::new(),
        reader: None,
        key: format!("{ORACLE_CUBE}:q{idx}"),
        fingerprint: fingerprint(norm),
    }
}

/// Queries `engine` at every epoch from its LSE through `through` and
/// diffs each against the reference replay of `log` pruned to
/// `through`: no lost history below, no phantom rows above, no hole in
/// between. Feeds `checker` when given. Returns comparisons performed.
pub(crate) fn sweep(
    engine: &Engine,
    log: &[CommittedOp],
    through: u64,
    what: &str,
    checker: Option<&SiChecker>,
) -> Result<u64, Failure> {
    let pruned: Vec<CommittedOp> = log
        .iter()
        .filter(|op| op.epoch() <= through)
        .cloned()
        .collect();
    let replay = Replay::build(&pruned);
    let mut comparisons = 0;
    for epoch in engine.manager().lse()..=through {
        for idx in 0..NUM_QUERIES {
            let result = engine
                .read(
                    ORACLE_CUBE,
                    &build_query(idx),
                    At::Epoch(epoch),
                    Deliver::Final,
                )
                .map_err(|e| Failure::new(format!("{what}: q{idx} at {epoch} failed: {e}")))?;
            let aosi = normalize(&result);
            let reference = eval_rows(&replay.rows_at_epoch(epoch), idx);
            comparisons += 1;
            if let Some(d) = diff(&aosi, &reference) {
                return Err(Failure::new(format!(
                    "{what}: q{idx} at epoch {epoch}: {d}"
                )));
            }
            if let Some(checker) = checker {
                checker.record(committed_read(epoch, idx, &aosi));
            }
        }
    }
    Ok(comparisons)
}

pub(crate) fn clock_sample(engine: &Engine, checker: &SiChecker) {
    let clock = engine.manager().clock();
    checker.record(TxnEvent::ClockSample {
        node: NODE,
        ec: clock.current_ec(),
        lce: clock.lce(),
        lse: clock.lse(),
    });
}

/// Samples the quiescent clocks, then fails on the first checker
/// violation.
pub(crate) fn checker_verdict(engine: &Engine, checker: &SiChecker) -> Result<(), Failure> {
    clock_sample(engine, checker);
    let violations = checker.violations();
    match violations.first() {
        Some(v) => Err(Failure::new(format!(
            "{} checker violation(s), first: {v}",
            violations.len()
        ))),
        None => Ok(()),
    }
}
