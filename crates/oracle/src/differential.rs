//! The differential oracle: AOSI against the MVCC reference on the
//! same schedule, in three execution modes.
//!
//! Every mode drives the AOSI [`Engine`] through a [`Schedule`] while
//! recording every committed operation into a [`CommittedOp`] log.
//! Checks rebuild the reference from that log ([`Replay`]) and diff
//! normalized query results; the online SI [`SiChecker`] rides along
//! on the AOSI side (transaction lifecycle, read stability, clock
//! sanity).
//!
//! * **Deterministic** — the shared `exec` executor, checks diffed
//!   inline at the op that runs them.
//! * **Stress** — ops are folded into self-contained units (one unit
//!   per explicit transaction, load, delete, maintenance step, or
//!   checkpoint) executed by a small thread pool. Append/load units
//!   hold a shared gate for their whole begin→commit span and delete
//!   units hold it exclusively, so epoch order equals physical order
//!   for delete-vs-append and the row-level reference model stays
//!   sound (see `workload::ops`). Committed-snapshot reads are
//!   recorded during the run and diffed post-hoc.
//! * **Crash** — deterministic execution plus a WAL
//!   [`FlushController`]; at the crash index the engine is dropped,
//!   a fresh engine recovers from the round files, the committed log
//!   is pruned to the recovered epoch, and the remaining schedule
//!   continues (dangling transaction slots become no-ops).
//!
//! Every mode ends with quiescence (leftover transactions are
//! committed) and a full-window sweep: a read at every epoch
//! (`At::Epoch`) in `[LSE, LCE]` diffed against the reference, then a checker
//! violation scan.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use aosi::Snapshot;
use checker::{SiChecker, TxnEvent};
use cluster::ReplicationTracker;
use columnar::Row;
use cubrick::{At, Deliver, Engine};
use wal::{recover_into, FlushController, TempWalDir};
use workload::ops::{LogicalOp, Schedule, ORACLE_CUBE};

use crate::checks::{build_query, diff, eval_rows, fingerprint, normalize, Norm, NUM_QUERIES};
use crate::exec::{
    checker_verdict, committed_read, day_filter, days_of, engine_with_cube, slot_count, sweep,
    Checkpoint, Exec, Hooks, Stop, NODE,
};
use crate::framework::{Failure, Harness};
use crate::reference::{model_txn_rows, CommittedOp, Replay};

/// Worker threads in stress mode.
const STRESS_THREADS: usize = 4;

/// How a schedule is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Single thread, schedule order, inline checks.
    Deterministic,
    /// Thread-pool execution of transaction-sized units.
    Stress,
    /// Deterministic execution with WAL flushes; the engine is
    /// killed before op `crash_at` and recovered from disk.
    Crash {
        /// Op index at which the engine dies (clamped to the
        /// schedule length; a past-the-end value crashes after the
        /// last op, before the final sweep).
        crash_at: usize,
    },
}

impl Mode {
    /// Artifact header form (`mode <this>`).
    pub fn to_line(self) -> String {
        match self {
            Mode::Deterministic => "deterministic".into(),
            Mode::Stress => "stress".into(),
            Mode::Crash { crash_at } => format!("crash {crash_at}"),
        }
    }

    /// Parses [`Mode::to_line`] output.
    pub fn parse(text: &str) -> Result<Mode, String> {
        let text = text.trim();
        match text {
            "deterministic" => Ok(Mode::Deterministic),
            "stress" => Ok(Mode::Stress),
            _ => match text.strip_prefix("crash ") {
                Some(idx) => idx
                    .trim()
                    .parse()
                    .map(|crash_at| Mode::Crash { crash_at })
                    .map_err(|e| format!("bad crash index: {e}")),
                None => Err(format!("unknown mode {text:?}")),
            },
        }
    }
}

/// Deliberate visibility bugs, used to prove the oracle catches what
/// it claims to catch (see the meta-test in `tests/corpus.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Committed-snapshot checkpoints silently read one epoch behind
    /// the snapshot they claim — the classic stale-snapshot bug.
    SnapshotBehind,
}

/// Counters from a clean run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunReport {
    /// Schedule ops executed.
    pub ops_executed: usize,
    /// Individual query comparisons performed.
    pub comparisons: u64,
    /// Events fed to the SI checker.
    pub checker_events: u64,
}

/// The differential oracle harness (`harness differential`; header
/// lines `mode <mode>` and `inject snapshot-behind`).
#[derive(Clone, Copy, Debug)]
pub struct Differential {
    /// Execution mode.
    pub mode: Mode,
    /// Injected bug, if any (meta-tests only).
    pub inject: Option<Inject>,
}

impl Differential {
    /// `mode` with no injected bug.
    pub fn new(mode: Mode) -> Differential {
        Differential { mode, inject: None }
    }
}

impl Default for Differential {
    fn default() -> Self {
        Differential::new(Mode::Deterministic)
    }
}

impl Harness for Differential {
    type Report = RunReport;

    fn name(&self) -> &'static str {
        "differential"
    }

    fn run(&self, schedule: &Schedule) -> Result<RunReport, Failure> {
        match self.mode {
            Mode::Deterministic => run_serial(schedule, None, self.inject),
            Mode::Crash { crash_at } => run_serial(schedule, Some(crash_at), self.inject),
            Mode::Stress => run_stress(schedule, self.inject),
        }
    }

    fn header(&self) -> Vec<String> {
        let mut lines = vec![format!("mode {}", self.mode.to_line())];
        if self.inject == Some(Inject::SnapshotBehind) {
            lines.push("inject snapshot-behind".into());
        }
        lines
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match (key, value) {
            ("mode", mode) => self.mode = Mode::parse(mode)?,
            ("inject", "snapshot-behind") => self.inject = Some(Inject::SnapshotBehind),
            ("inject", other) => return Err(format!("unknown injection {other:?}")),
            _ => return Err(format!("harness differential takes no {key:?} line")),
        }
        Ok(())
    }

    fn target(&self) -> &'static str {
        "corpus"
    }

    fn attempts(&self) -> usize {
        // Stress runs are nondeterministic: retry each candidate.
        if self.mode == Mode::Stress {
            3
        } else {
            1
        }
    }
}

// ---------------------------------------------------------------
// Deterministic / crash: the shared executor
// ---------------------------------------------------------------

struct WalState {
    dir: TempWalDir,
    tracker: ReplicationTracker,
    /// `None` after the crash.
    ctl: Option<FlushController>,
}

struct DiffHooks {
    inject: Option<Inject>,
    /// Crash mode only.
    wal: Option<WalState>,
}

impl Hooks for DiffHooks {
    fn flush(&mut self, x: &mut Exec, _i: usize) -> Result<(), Stop> {
        match self
            .wal
            .as_mut()
            .and_then(|w| Some((w.ctl.as_mut()?, &w.tracker)))
        {
            Some((ctl, tracker)) => {
                ctl.flush_round(&x.engine, tracker).expect("flush round IO");
            }
            // Deterministic mode, or post-crash: the original WAL
            // stream ended at the crash; durability is out of scope
            // for the remainder, so just advance and purge.
            None => {
                x.engine.advance_lse_and_purge();
            }
        }
        Ok(())
    }

    fn purge(&mut self, x: &mut Exec, _i: usize) -> Result<(), Stop> {
        if self.wal.is_some() {
            // Purge at the current (durable) LSE only — the LSE must
            // not outrun what the controller has flushed, or a crash
            // would lose purged history.
            x.engine.purge();
        } else {
            x.engine.advance_lse_and_purge();
        }
        Ok(())
    }

    fn check(&mut self, x: &mut Exec, i: usize, at: Checkpoint) -> Result<(), Failure> {
        match at {
            Checkpoint::Now(claimed) => {
                let target = match self.inject {
                    Some(Inject::SnapshotBehind) => claimed.saturating_sub(1),
                    None => claimed,
                };
                x.check_committed(i, at.label(), claimed, target)
            }
            Checkpoint::AsOf(epoch) => x.check_committed(i, at.label(), epoch, epoch),
            Checkpoint::Txn(slot) => check_txn(x, i, slot),
        }
    }
}

/// Diffs an in-transaction read against the reference model of what
/// the transaction sees: its snapshot plus its own appends.
fn check_txn(x: &mut Exec, i: usize, slot: usize) -> Result<(), Failure> {
    let open = x.open(slot).expect("checkpoint names an open slot");
    let epoch = open.txn.epoch();
    let deps = open.txn.snapshot().deps().clone();
    let mut comparisons = 0;
    let model = model_txn_rows(&x.log, epoch, &deps, &open.rows);
    for idx in 0..NUM_QUERIES {
        let result = x
            .engine
            .read(
                ORACLE_CUBE,
                &build_query(idx),
                At::Txn(&open.txn),
                Deliver::Final,
            )
            .map_err(|e| Failure::at(Some(i), format!("txn q{idx} failed: {e}")))?;
        let aosi = normalize(&result);
        comparisons += 1;
        if let Some(d) = diff(&aosi, &eval_rows(&model, idx)) {
            return Err(Failure::at(
                Some(i),
                format!("in-txn q{idx} at epoch {epoch} (deps {deps:?}): {d}"),
            ));
        }
        // The key carries the op index: two in-txn reads at the same
        // (epoch, deps) may legitimately differ when the transaction
        // appended rows in between, which the checker's stability
        // signature cannot see.
        x.record(|| TxnEvent::Read {
            node: NODE,
            snapshot_epoch: epoch,
            deps: deps.clone(),
            observed: BTreeSet::new(),
            reader: Some(epoch),
            key: format!("{ORACLE_CUBE}:txn#{i}:q{idx}"),
            fingerprint: fingerprint(&aosi),
        });
    }
    x.comparisons += comparisons;
    Ok(())
}

/// The crash: drop the engine and its open transactions, recover a
/// fresh engine from the round files, prune the reference log to the
/// recovered epoch, and check the recovered window.
fn crash_and_recover(x: &mut Exec, wal: &mut WalState) -> Result<(), Failure> {
    wal.ctl = None;
    x.slots.iter_mut().for_each(|slot| *slot = None);
    x.engine = engine_with_cube();
    let report = recover_into(wal.dir.path(), &x.engine)
        .map_err(|e| Failure::new(format!("recovery failed: {e}")))?;
    // Everything past the last durable round died with the process.
    x.log.retain(|op| op.epoch() <= report.recovered_epoch);
    // Pre-crash epochs are gone from the new engine's clock; a fresh
    // checker starts over on the recovered timeline.
    x.checker = Some(SiChecker::new(1));
    // Recovery must restore exactly the durable prefix.
    let lce = x.engine.manager().lce();
    let what = format!(
        "post-recovery (recovered through {})",
        report.recovered_epoch
    );
    x.comparisons += sweep(&x.engine, &x.log, lce, &what, None)?;
    Ok(())
}

fn run_serial(
    schedule: &Schedule,
    crash_at: Option<usize>,
    inject: Option<Inject>,
) -> Result<RunReport, Failure> {
    let mut hooks = DiffHooks {
        inject,
        wal: crash_at.map(|_| {
            let dir = TempWalDir::new(&format!("oracle-crash-{}", schedule.seed));
            WalState {
                tracker: ReplicationTracker::new(1),
                ctl: Some(FlushController::new(dir.path(), NODE).expect("WAL dir")),
                dir,
            }
        }),
    };
    let mut x = Exec::new(engine_with_cube(), slot_count(schedule), Vec::new(), true);
    let ops = &schedule.ops;
    match crash_at.map(|c| c.min(ops.len())) {
        Some(cut) => {
            x.run(&mut hooks, &ops[..cut], 0)?;
            crash_and_recover(&mut x, hooks.wal.as_mut().expect("crash mode has a WAL"))?;
            x.run(&mut hooks, ops, cut)?;
        }
        None => {
            x.run(&mut hooks, ops, 0)?;
        }
    }
    x.quiesce()?;
    let checker = x.checker.as_ref().expect("the checker rides along");
    let lce = x.engine.manager().lce();
    x.comparisons += sweep(&x.engine, &x.log, lce, "sweep", Some(checker))?;
    checker_verdict(&x.engine, checker)?;
    Ok(RunReport {
        ops_executed: ops.len(),
        comparisons: x.comparisons,
        checker_events: checker.events_checked(),
    })
}

// ---------------------------------------------------------------
// Stress executor
// ---------------------------------------------------------------

enum TxnStep {
    Rows(Vec<Row>),
    Check,
}

enum Unit {
    Txn { steps: Vec<TxnStep>, rollback: bool },
    Load(Vec<Row>),
    Delete(Vec<i64>),
    Maint,
    CheckNow,
    CheckAsOf(u8),
}

/// Folds slot-addressed ops into self-contained concurrent units. A
/// unit is emitted at its closing op's position; unclosed slots
/// commit at the end; ops referencing slots that are not open are
/// dropped (mirrors the serial executor's tolerance).
fn build_units(ops: &[LogicalOp]) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut open: Vec<Option<Vec<TxnStep>>> = Vec::new();
    let slot_mut = |open: &mut Vec<Option<Vec<TxnStep>>>, slot: usize| {
        if slot >= open.len() {
            open.resize_with(slot + 1, || None);
        }
        slot
    };
    for op in ops {
        match op {
            LogicalOp::Begin { slot } => {
                let s = slot_mut(&mut open, *slot);
                if open[s].is_none() {
                    open[s] = Some(Vec::new());
                }
            }
            LogicalOp::Append { slot, rows } => {
                let s = slot_mut(&mut open, *slot);
                if let Some(steps) = open[s].as_mut() {
                    steps.push(TxnStep::Rows(rows.clone()));
                }
            }
            LogicalOp::CheckTxn { slot } => {
                let s = slot_mut(&mut open, *slot);
                if let Some(steps) = open[s].as_mut() {
                    steps.push(TxnStep::Check);
                }
            }
            LogicalOp::Commit { slot } => {
                let s = slot_mut(&mut open, *slot);
                if let Some(steps) = open[s].take() {
                    units.push(Unit::Txn {
                        steps,
                        rollback: false,
                    });
                }
            }
            LogicalOp::Rollback { slot } => {
                let s = slot_mut(&mut open, *slot);
                if let Some(steps) = open[s].take() {
                    units.push(Unit::Txn {
                        steps,
                        rollback: true,
                    });
                }
            }
            LogicalOp::Load { rows } => units.push(Unit::Load(rows.clone())),
            LogicalOp::DeleteDays { buckets } => units.push(Unit::Delete(days_of(buckets))),
            LogicalOp::Purge | LogicalOp::Flush => units.push(Unit::Maint),
            LogicalOp::CheckNow => units.push(Unit::CheckNow),
            LogicalOp::CheckAsOf { frac } => units.push(Unit::CheckAsOf(*frac)),
        }
    }
    for steps in open.into_iter().flatten() {
        units.push(Unit::Txn {
            steps,
            rollback: false,
        });
    }
    units
}

/// A committed-snapshot read recorded during the concurrent phase,
/// validated against the reference after the run.
struct ReadObs {
    epoch: u64,
    query: usize,
    norm: Norm,
}

/// An in-transaction read: snapshot, dependency set, and the rows
/// the transaction had appended when it ran.
struct TxnReadObs {
    epoch: u64,
    deps: BTreeSet<u64>,
    own: Vec<Row>,
    query: usize,
    norm: Norm,
}

struct StressShared {
    engine: Engine,
    checker: SiChecker,
    /// Begin-to-commit gate: append/load units hold it shared,
    /// delete units exclusively, so a delete's epoch order equals
    /// its physical order relative to every append (the straggler
    /// exclusion the reference model requires).
    gate: RwLock<()>,
    log: Mutex<Vec<CommittedOp>>,
    reads: Mutex<Vec<ReadObs>>,
    txn_reads: Mutex<Vec<TxnReadObs>>,
    failed: Mutex<Option<Failure>>,
}

impl StressShared {
    fn fail_once(&self, detail: String) {
        let mut failed = self.failed.lock().unwrap();
        if failed.is_none() {
            *failed = Some(Failure::new(detail));
        }
    }

    fn run_unit(&self, unit: &Unit, unit_idx: usize, inject: Option<Inject>) {
        match unit {
            Unit::Load(rows) => {
                let _shared = self.gate.read().unwrap();
                let txn = self.engine.begin();
                self.checker.record(TxnEvent::Begin {
                    node: NODE,
                    epoch: txn.epoch(),
                    deps: txn.snapshot().deps().clone(),
                });
                match self.engine.append(ORACLE_CUBE, rows, &txn) {
                    Ok((_, 0)) => {}
                    Ok((_, rejected)) => {
                        return self.fail_once(format!("load rejected {rejected} generated rows"))
                    }
                    Err(e) => return self.fail_once(format!("load failed: {e}")),
                }
                if let Err(e) = self.engine.commit(&txn) {
                    return self.fail_once(format!("load commit failed: {e}"));
                }
                self.checker.record(TxnEvent::Commit {
                    node: NODE,
                    epoch: txn.epoch(),
                });
                self.log.lock().unwrap().push(CommittedOp::Rows {
                    epoch: txn.epoch(),
                    rows: rows.clone(),
                });
            }
            Unit::Txn { steps, rollback } => {
                let _shared = self.gate.read().unwrap();
                let txn = self.engine.begin();
                self.checker.record(TxnEvent::Begin {
                    node: NODE,
                    epoch: txn.epoch(),
                    deps: txn.snapshot().deps().clone(),
                });
                let mut own: Vec<Row> = Vec::new();
                for (step_idx, step) in steps.iter().enumerate() {
                    match step {
                        TxnStep::Rows(rows) => match self.engine.append(ORACLE_CUBE, rows, &txn) {
                            Ok((_, 0)) => own.extend_from_slice(rows),
                            Ok((_, rejected)) => {
                                return self.fail_once(format!(
                                    "append rejected {rejected} generated rows"
                                ))
                            }
                            Err(e) => return self.fail_once(format!("append failed: {e}")),
                        },
                        TxnStep::Check => {
                            for idx in 0..NUM_QUERIES {
                                let result = match self.engine.read(
                                    ORACLE_CUBE,
                                    &build_query(idx),
                                    At::Txn(&txn),
                                    Deliver::Final,
                                ) {
                                    Ok(r) => r,
                                    Err(e) => {
                                        return self.fail_once(format!("in-txn query failed: {e}"))
                                    }
                                };
                                let norm = normalize(&result);
                                self.checker.record(TxnEvent::Read {
                                    node: NODE,
                                    snapshot_epoch: txn.epoch(),
                                    deps: txn.snapshot().deps().clone(),
                                    observed: BTreeSet::new(),
                                    reader: Some(txn.epoch()),
                                    key: format!("{ORACLE_CUBE}:u{unit_idx}s{step_idx}:q{idx}"),
                                    fingerprint: fingerprint(&norm),
                                });
                                self.txn_reads.lock().unwrap().push(TxnReadObs {
                                    epoch: txn.epoch(),
                                    deps: txn.snapshot().deps().clone(),
                                    own: own.clone(),
                                    query: idx,
                                    norm,
                                });
                            }
                        }
                    }
                }
                if *rollback {
                    match self.engine.rollback(&txn) {
                        Ok(removed) if removed == own.len() as u64 => {
                            self.checker.record(TxnEvent::Rollback {
                                node: NODE,
                                epoch: txn.epoch(),
                            });
                        }
                        Ok(removed) => self.fail_once(format!(
                            "rollback reclaimed {removed} rows of {}",
                            own.len()
                        )),
                        Err(e) => self.fail_once(format!("rollback failed: {e}")),
                    }
                } else {
                    if let Err(e) = self.engine.commit(&txn) {
                        return self.fail_once(format!("commit failed: {e}"));
                    }
                    self.checker.record(TxnEvent::Commit {
                        node: NODE,
                        epoch: txn.epoch(),
                    });
                    self.log.lock().unwrap().push(CommittedOp::Rows {
                        epoch: txn.epoch(),
                        rows: own,
                    });
                }
            }
            Unit::Delete(days) => {
                let _exclusive = self.gate.write().unwrap();
                match self.engine.delete_where(ORACLE_CUBE, &[day_filter(days)]) {
                    Ok((epoch, _)) => {
                        self.checker.record(TxnEvent::Begin {
                            node: NODE,
                            epoch,
                            deps: BTreeSet::new(),
                        });
                        self.checker.record(TxnEvent::Commit { node: NODE, epoch });
                        self.log.lock().unwrap().push(CommittedOp::Delete {
                            epoch,
                            days: days.clone(),
                        });
                    }
                    Err(e) => self.fail_once(format!("delete failed: {e}")),
                }
            }
            Unit::Maint => {
                // advance_lse_and_purge backs off when a reader holds
                // an older guard; no gate needed.
                self.engine.advance_lse_and_purge();
            }
            Unit::CheckNow => {
                let guard = self.engine.manager().begin_read();
                let claimed = guard.snapshot().epoch();
                let snap = match inject {
                    Some(Inject::SnapshotBehind) => Snapshot::committed(claimed.saturating_sub(1)),
                    None => guard.snapshot().clone(),
                };
                for idx in 0..NUM_QUERIES {
                    let result = match self.engine.read(
                        ORACLE_CUBE,
                        &build_query(idx),
                        At::Snapshot(&snap),
                        Deliver::Final,
                    ) {
                        Ok(r) => r,
                        Err(e) => return self.fail_once(format!("check failed: {e}")),
                    };
                    let norm = normalize(&result);
                    self.checker.record(committed_read(claimed, idx, &norm));
                    self.reads.lock().unwrap().push(ReadObs {
                        epoch: claimed,
                        query: idx,
                        norm,
                    });
                }
            }
            Unit::CheckAsOf(frac) => {
                let (lse, lce) = (self.engine.manager().lse(), self.engine.manager().lce());
                if lce == 0 {
                    return;
                }
                let window = lce - lse + 1;
                let epoch = (lse + (u64::from(*frac) * window) / 256).min(lce);
                for idx in 0..NUM_QUERIES {
                    match self.engine.read(
                        ORACLE_CUBE,
                        &build_query(idx),
                        At::Epoch(epoch),
                        Deliver::Final,
                    ) {
                        Ok(result) => {
                            let norm = normalize(&result);
                            self.checker.record(committed_read(epoch, idx, &norm));
                            self.reads.lock().unwrap().push(ReadObs {
                                epoch,
                                query: idx,
                                norm,
                            });
                        }
                        // The window can move between reading LSE/LCE
                        // and the guarded re-check inside the read;
                        // a benign race, not a divergence.
                        Err(cubrick::CubrickError::EpochOutOfRange { .. }) => {}
                        Err(e) => return self.fail_once(format!("as-of check failed: {e}")),
                    }
                }
            }
        }
    }
}

fn run_stress(schedule: &Schedule, inject: Option<Inject>) -> Result<RunReport, Failure> {
    let units = build_units(&schedule.ops);
    let shared = StressShared {
        engine: engine_with_cube(),
        checker: SiChecker::new(1),
        gate: RwLock::new(()),
        log: Mutex::new(Vec::new()),
        reads: Mutex::new(Vec::new()),
        txn_reads: Mutex::new(Vec::new()),
        failed: Mutex::new(None),
    };
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..STRESS_THREADS {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= units.len() || shared.failed.lock().unwrap().is_some() {
                    break;
                }
                shared.run_unit(&units[idx], idx, inject);
            });
        }
    });
    if let Some(failure) = shared.failed.lock().unwrap().take() {
        return Err(failure);
    }

    // Post-hoc: diff every recorded read against the reference built
    // from the final committed log. Sound because every read ran at a
    // committed snapshot (all epochs <= E finished by the LCE rule)
    // and the gate excluded delete/append stragglers.
    let log = shared.log.into_inner().unwrap();
    let replay = Replay::build(&log);
    let mut comparisons = 0;
    for obs in shared.reads.into_inner().unwrap() {
        let reference = eval_rows(&replay.rows_at_epoch(obs.epoch), obs.query);
        comparisons += 1;
        if let Some(d) = diff(&obs.norm, &reference) {
            return Err(Failure::new(format!(
                "concurrent read q{} at epoch {}: {d}",
                obs.query, obs.epoch
            )));
        }
    }
    for obs in shared.txn_reads.into_inner().unwrap() {
        // Every epoch < E outside the deps set had finished before
        // the reader began, so the final log suffices to reconstruct
        // the read's visible rows.
        let model = model_txn_rows(&log, obs.epoch, &obs.deps, &obs.own);
        let reference = eval_rows(&model, obs.query);
        comparisons += 1;
        if let Some(d) = diff(&obs.norm, &reference) {
            return Err(Failure::new(format!(
                "concurrent in-txn read q{} at epoch {} (deps {:?}): {d}",
                obs.query, obs.epoch, obs.deps
            )));
        }
    }

    // Quiescent final sweep over the whole readable window. Clocks
    // are only sampled at quiescence: a concurrent sample could pair
    // an old EC with a newer LCE and trip the checker on a torn read
    // rather than a real violation.
    let (engine, checker) = (shared.engine, shared.checker);
    let lce = engine.manager().lce();
    comparisons += sweep(&engine, &log, lce, "sweep", Some(&checker))?;
    checker_verdict(&engine, &checker)?;
    Ok(RunReport {
        ops_executed: schedule.ops.len(),
        comparisons,
        checker_events: checker.events_checked(),
    })
}
