//! Tiered-storage torture: the crash harness re-run with a cold tier
//! under a tiny memory budget, so every boundary sweep also cuts
//! power in the middle of spills, evictions, and reloads.
//!
//! The cold tier's durability story rests on one claim: spill
//! snapshots are a *redundant* copy of history the WAL already
//! retains, so no crash point during spill/evict/reload can lose
//! acknowledged data — recovery replays the round chain and never
//! reads a snapshot. This module checks that claim the same way
//! [`crate::crash`] checks the flush path: route *all* durability
//! syscalls — flush rounds in `/sim/wal` and brick snapshots in the
//! sibling `/sim/tier` — through one [`wal::SimFs`], enumerate its
//! mutating syscalls, and re-run the schedule once per boundary with
//! a power cut at exactly that syscall.
//!
//! One seeded run ([`run_tier_torture`]) executes three phases:
//!
//! 1. **Census** — the schedule runs on a tiered engine (budget
//!    `TierTortureConfig::budget_bytes`, small enough that clean
//!    bricks are constantly evicted), differentially checked against
//!    the epoch-replay reference at every `CheckNow` — those queries
//!    fault evicted bricks back in, so bit-identity *across the
//!    evict/reload cycle* is what is being compared. An epilogue
//!    forces the cycle even on schedules that never flushed mid-run:
//!    terminal flush → eviction sweep → full query check (reloads) →
//!    second sweep. The census then asserts bounded residency (the
//!    sweep got under budget, or evicted every clean-cold byte) and
//!    runs the clean-shutdown and power-cut-fork recoveries into
//!    engines *without* a tier: recovery must never depend on
//!    snapshot files.
//! 2. **Boundary sweep** — one fresh run per census syscall: cut,
//!    reboot, recover into a fresh *tiered* engine whose store wipes
//!    the stale snapshot dir on open, assert nothing acknowledged was
//!    lost and the chain is clean, re-query every epoch against the
//!    reference, then resume the controller on the same disk, finish
//!    the schedule + epilogue, and recover once more — into a plain
//!    engine, proving the tier never became load-bearing. Spill
//!    syscall counts can drift a little between runs (eviction
//!    ranking ties break on scan-recency clocks fed by parallel scan
//!    tasks), so a boundary whose cut never fires is treated as a
//!    clean run, not an enumeration error.
//! 3. **Media probes** — seeded single-bit corruption of one durable
//!    snapshot, then deletion of another: queries that need those
//!    bricks must fail with the typed reload error — never panic,
//!    never return rows from damaged bytes — and the failure must be
//!    counted in [`cubrick::TierStats::reload_failures`].
//!
//! [`check_tier_seed`] mirrors [`crate::crash::check_crash_seed`]:
//! failures are minimized and dumped as `.seed` artifacts replayable
//! via `AOSI_TIER_REPLAY`; the test-suite entry points honor
//! `AOSI_TIER_SEEDS`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use aosi::{Snapshot, Txn};
use cluster::ReplicationTracker;
use columnar::Row;
use cubrick::{Engine, ScanConfig};
use wal::{
    is_power_cut, recover_into_with, FlushController, RecoverOptions, SimFs, WalBrickStore,
    WalError, WalFs,
};
use workload::ops::{GenConfig, LogicalOp, Schedule, ORACLE_CUBE};

use crate::checks::{build_query, diff, eval_rows, normalize, NUM_QUERIES};
use crate::crash::{
    failure, sim_dir, splitmix64, stop_failure, sweep_recovered, Stop, TortureFailure,
};
use crate::harness::{day_filter, days_of, engine_with_cube};
use crate::minimize::artifact_dir;
use crate::reference::{CommittedOp, Replay};

/// Node id of the single simulated node.
const NODE: u64 = 1;
/// Salt mixed into the schedule seed for filesystem randomness —
/// distinct from the crash harness's salt so the two tortures explore
/// different torn-write prefixes for the same seed.
const TIER_SEED_SALT: u64 = 0x71e2_c01d_b41c_5a17;

/// The snapshot directory: a *sibling* of the WAL chain dir. The
/// flush controller deletes unknown files in its own directory, so
/// snapshots must never live there.
fn tier_dir() -> PathBuf {
    PathBuf::from("/sim/tier")
}

/// Knobs for one tier-torture run.
#[derive(Clone, Debug)]
pub struct TierTortureConfig {
    /// Workload shape (re-executed once per crash boundary).
    pub gen: GenConfig,
    /// The cold-tier memory budget. Small relative to the workload's
    /// brick bytes, so eviction sweeps always have work.
    pub budget_bytes: usize,
    /// Whether to run the snapshot corruption/deletion probes.
    pub media_probes: bool,
}

impl Default for TierTortureConfig {
    fn default() -> Self {
        TierTortureConfig {
            gen: GenConfig {
                ops: 24,
                slots: 2,
                max_batch: 4,
            },
            budget_bytes: 1024,
            media_probes: true,
        }
    }
}

/// Counters from a clean tier-torture run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierTortureReport {
    /// Crash boundaries enumerated (mutating syscalls of the census
    /// run — WAL rounds and snapshot spills alike).
    pub crash_points: u64,
    /// Boundaries whose cut never fired on the replay run (spill
    /// ordering drift); they still ran the clean-recovery checks.
    pub boundaries_not_fired: u64,
    /// Round files the census run flushed.
    pub rounds_flushed: u64,
    /// Successful spills across the census run (epilogue included).
    pub spills: u64,
    /// Successful reloads across the census run (epilogue included).
    pub reloads: u64,
    /// Recoveries performed across all phases.
    pub recoveries: u64,
    /// Individual query comparisons against the reference.
    pub comparisons: u64,
    /// Media probes executed (0..=2).
    pub media_probes: usize,
}

// ---------------------------------------------------------------
// Executor
// ---------------------------------------------------------------

struct Slot {
    txn: Txn,
    rows: Vec<Row>,
}

/// Builds a fresh engine with tiered storage over `fs`: snapshot
/// store in [`tier_dir`] (wiping stale snapshots), a single shard so
/// spill ordering stays deterministic enough for boundary replay.
/// Scans run sequentially, which on one shard is the same execution
/// with the snapshot memo bypassed — a memo hit (correctly) answers
/// for spilled bricks without touching their snapshots, which would
/// let the media probes pass without ever exercising the reload path;
/// the memo-over-spilled-bricks path has its own unit coverage in
/// `cubrick`'s engine tests.
fn tiered_engine(fs: &Arc<SimFs>, budget_bytes: usize) -> Result<Engine, Stop> {
    let walfs: Arc<dyn WalFs> = fs.clone();
    let store = match WalBrickStore::open_with(walfs, tier_dir()) {
        Ok(store) => store,
        Err(e) if is_power_cut(&e) => return Err(Stop::PowerCut),
        Err(e) => return Err(Stop::Fail(format!("tier store open failed: {e}"))),
    };
    let engine = Engine::new(1)
        .with_scan_config(ScanConfig {
            sequential: true,
            ..ScanConfig::default()
        })
        .with_tiered_storage(Box::new(store), budget_bytes);
    engine
        .create_cube(workload::ops::oracle_schema())
        .map_err(|e| Stop::Fail(format!("oracle schema registers: {e}")))?;
    Ok(engine)
}

/// Drives a schedule against one tiered engine + flush controller on
/// a simulated filesystem. The same shape as the crash harness's
/// executor, with one difference: a power cut can fire inside an
/// eviction sweep, where the engine deliberately swallows the spill
/// failure (a failed spill leaves the brick resident). The executor
/// therefore checks `fs.crashed()` after every op instead of relying
/// on the op's own error to carry the cut.
struct TierTorture {
    fs: Arc<SimFs>,
    engine: Engine,
    tracker: ReplicationTracker,
    ctl: FlushController,
    slots: Vec<Option<Slot>>,
    log: Vec<CommittedOp>,
    /// Highest epoch a *successful* flush acknowledged as durable.
    acked: u64,
    comparisons: u64,
    rounds_flushed: u64,
}

impl TierTorture {
    fn open(
        fs: &Arc<SimFs>,
        engine: Engine,
        log: Vec<CommittedOp>,
        acked: u64,
        num_slots: usize,
    ) -> Result<TierTorture, Stop> {
        let walfs: Arc<dyn WalFs> = fs.clone();
        let ctl = match FlushController::with_fs(walfs, sim_dir(), NODE) {
            Ok(ctl) => ctl,
            Err(e) if is_power_cut(&e) => return Err(Stop::PowerCut),
            Err(e) => return Err(Stop::Fail(format!("controller open failed: {e}"))),
        };
        Ok(TierTorture {
            fs: fs.clone(),
            engine,
            tracker: ReplicationTracker::new(1),
            ctl,
            slots: (0..num_slots).map(|_| None).collect(),
            log,
            acked,
            comparisons: 0,
            rounds_flushed: 0,
        })
    }

    fn apply(&mut self, i: usize, op: &LogicalOp) -> Result<(), Stop> {
        match op {
            LogicalOp::Begin { slot } => {
                if *slot < self.slots.len() && self.slots[*slot].is_none() {
                    self.slots[*slot] = Some(Slot {
                        txn: self.engine.begin(),
                        rows: Vec::new(),
                    });
                }
                Ok(())
            }
            LogicalOp::Append { slot, rows } => self.append(i, *slot, rows),
            LogicalOp::Commit { slot } => self.commit_slot(i, *slot),
            LogicalOp::Rollback { slot } => self.rollback_slot(i, *slot),
            LogicalOp::Load { rows } => self.load(i, rows),
            LogicalOp::DeleteDays { buckets } => self.delete(i, buckets),
            LogicalOp::Purge => {
                self.engine.purge();
                Ok(())
            }
            LogicalOp::Flush => self.flush(i),
            LogicalOp::CheckNow => self.check_now(i),
            LogicalOp::CheckAsOf { .. } | LogicalOp::CheckTxn { .. } => Ok(()),
        }
    }

    fn append(&mut self, i: usize, slot: usize, rows: &[Row]) -> Result<(), Stop> {
        let Some(open) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        match self.engine.append(ORACLE_CUBE, rows, &open.txn) {
            Ok((accepted, 0)) if accepted == rows.len() => {
                open.rows.extend_from_slice(rows);
                Ok(())
            }
            Ok((accepted, rejected)) => Err(Stop::Fail(format!(
                "op #{i}: generated rows rejected: accepted {accepted}, rejected {rejected}"
            ))),
            Err(e) => Err(Stop::Fail(format!("op #{i}: append failed: {e}"))),
        }
    }

    fn commit_slot(&mut self, i: usize, slot: usize) -> Result<(), Stop> {
        let Some(open) = self.slots.get_mut(slot).and_then(Option::take) else {
            return Ok(());
        };
        self.engine
            .commit(&open.txn)
            .map_err(|e| Stop::Fail(format!("op #{i}: commit failed: {e}")))?;
        self.log.push(CommittedOp::Rows {
            epoch: open.txn.epoch(),
            rows: open.rows,
        });
        Ok(())
    }

    fn rollback_slot(&mut self, i: usize, slot: usize) -> Result<(), Stop> {
        let Some(open) = self.slots.get_mut(slot).and_then(Option::take) else {
            return Ok(());
        };
        let removed = self
            .engine
            .rollback(&open.txn)
            .map_err(|e| Stop::Fail(format!("op #{i}: rollback failed: {e}")))?;
        if removed != open.rows.len() as u64 {
            return Err(Stop::Fail(format!(
                "op #{i}: rollback reclaimed {removed} rows of {}",
                open.rows.len()
            )));
        }
        Ok(())
    }

    fn load(&mut self, i: usize, rows: &[Row]) -> Result<(), Stop> {
        let txn = self.engine.begin();
        match self.engine.append(ORACLE_CUBE, rows, &txn) {
            Ok((_, 0)) => {}
            Ok((_, rejected)) => {
                return Err(Stop::Fail(format!(
                    "op #{i}: load rejected {rejected} generated rows"
                )))
            }
            Err(e) => return Err(Stop::Fail(format!("op #{i}: load failed: {e}"))),
        }
        self.engine
            .commit(&txn)
            .map_err(|e| Stop::Fail(format!("op #{i}: load commit failed: {e}")))?;
        self.log.push(CommittedOp::Rows {
            epoch: txn.epoch(),
            rows: rows.to_vec(),
        });
        Ok(())
    }

    fn delete(&mut self, i: usize, buckets: &[u32]) -> Result<(), Stop> {
        for slot in 0..self.slots.len() {
            self.commit_slot(i, slot)?;
        }
        let days = days_of(buckets);
        let (epoch, _marked) = self
            .engine
            .delete_where(ORACLE_CUBE, &[day_filter(&days)])
            .map_err(|e| Stop::Fail(format!("op #{i}: delete_where failed: {e}")))?;
        self.log.push(CommittedOp::Delete { epoch, days });
        Ok(())
    }

    fn flush(&mut self, i: usize) -> Result<(), Stop> {
        match self.ctl.flush_round(&self.engine, &self.tracker) {
            Ok(outcome) => {
                if outcome.bytes_written > 0 {
                    self.rounds_flushed += 1;
                }
                self.acked = self.acked.max(self.ctl.flushed_through());
                Ok(())
            }
            Err(WalError::Io(e)) if is_power_cut(&e) => Err(Stop::PowerCut),
            Err(e) => Err(Stop::Fail(format!("op #{i}: flush round failed: {e}"))),
        }
    }

    /// Live differential check at the current committed snapshot —
    /// these queries fault evicted bricks back in, so each comparison
    /// covers the full evict/reload round trip.
    fn check_now(&mut self, i: usize) -> Result<(), Stop> {
        let claimed = self.engine.manager().begin_read().snapshot().epoch();
        let snap = Snapshot::committed(claimed);
        let replay = Replay::build(&self.log);
        for idx in 0..NUM_QUERIES {
            let result = self
                .engine
                .query_at(ORACLE_CUBE, &build_query(idx), &snap)
                .map_err(|e| Stop::Fail(format!("op #{i}: check q{idx} failed: {e}")))?;
            let aosi = normalize(&result);
            let reference = eval_rows(&replay.rows_at_epoch(claimed), idx);
            self.comparisons += 1;
            if let Some(d) = diff(&aosi, &reference) {
                return Err(Stop::Fail(format!(
                    "op #{i}: check q{idx} at epoch {claimed}: {d}"
                )));
            }
        }
        Ok(())
    }

    /// Runs `ops[resume_at..]`, the terminal flush, and the tier
    /// epilogue (evict → query-reload check → evict again), so even a
    /// schedule with no mid-run flush exercises the spill/reload
    /// cycle — and so the boundary enumeration covers cuts *inside*
    /// eviction sweeps. Returns the op index just past the cut when
    /// the power cut fires ("op index" extends past the schedule for
    /// the terminal flush and epilogue steps).
    fn run(&mut self, ops: &[LogicalOp], resume_at: usize) -> Result<Option<usize>, Stop> {
        for (i, op) in ops.iter().enumerate().skip(resume_at) {
            match self.step(|t| t.apply(i, op)) {
                Ok(()) => {}
                Err(Stop::PowerCut) => return Ok(Some(i + 1)),
                Err(stop) => return Err(stop),
            }
        }
        let mut mark = ops.len();
        for part in [0, 1, 2, 3] {
            let r = match part {
                0 => self.step(|t| t.flush(mark)),
                1 | 3 => self.step(|t| {
                    // The sweep itself reports spill failures through
                    // counters, not errors; the crashed() check in
                    // step() is what notices a cut in here.
                    t.engine.enforce_tier_budget();
                    Ok(())
                }),
                _ => self.step(|t| t.check_now(mark)),
            };
            mark += 1;
            match r {
                Ok(()) => {}
                Err(Stop::PowerCut) => return Ok(Some(mark)),
                Err(stop) => return Err(stop),
            }
        }
        Ok(None)
    }

    /// Runs one op and folds "the power died somewhere inside it"
    /// into [`Stop::PowerCut`]: after the cut every syscall fails, so
    /// an op's own error (a reload that could not read its snapshot,
    /// a swallowed spill failure followed by a failing check) is the
    /// cut's shadow, not a bug.
    fn step(&mut self, f: impl FnOnce(&mut Self) -> Result<(), Stop>) -> Result<(), Stop> {
        let r = f(self);
        if self.fs.crashed() {
            return Err(Stop::PowerCut);
        }
        r
    }
}

// ---------------------------------------------------------------
// The torture run
// ---------------------------------------------------------------

/// Runs the full tier torture for one schedule. `Ok` means every
/// crash boundary recovered to a complete flushed prefix with no help
/// from snapshot files, residency stayed bounded, and damaged
/// snapshots degraded to typed errors.
pub fn run_tier_torture(
    schedule: &Schedule,
    cfg: &TierTortureConfig,
) -> Result<TierTortureReport, TortureFailure> {
    let fs_seed = schedule.seed ^ TIER_SEED_SALT;
    let opts = RecoverOptions::default();
    let num_slots = schedule
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
        .unwrap_or(1);
    let mut report = TierTortureReport::default();

    // ----- Phase 1: census ------------------------------------
    let census_fs = Arc::new(SimFs::new(fs_seed));
    let engine = tiered_engine(&census_fs, cfg.budget_bytes).map_err(|s| stop_failure(s, None))?;
    let mut census = TierTorture::open(&census_fs, engine, Vec::new(), 0, num_slots)
        .map_err(|s| stop_failure(s, None))?;
    if let Some(i) = census
        .run(&schedule.ops, 0)
        .map_err(|s| stop_failure(s, None))?
    {
        return Err(failure(
            None,
            format!("census run hit a power cut at op {i} with no cut configured"),
        ));
    }
    report.crash_points = census_fs.mutating_ops();
    report.rounds_flushed = census.rounds_flushed;
    report.comparisons += census.comparisons;
    if let Some(stats) = census.engine.tier_stats() {
        report.spills = stats.spills;
        report.reloads = stats.reloads;
        if stats.spill_failures != 0 || stats.reload_failures != 0 {
            return Err(failure(
                None,
                format!(
                    "census on a healthy filesystem had {} spill and {} reload failure(s)",
                    stats.spill_failures, stats.reload_failures
                ),
            ));
        }
    }
    // Bounded residency: with everything flushed (clean-cold), one
    // more sweep must either reach the budget or have evicted every
    // eligible byte trying.
    let sweep = census.engine.enforce_tier_budget();
    if sweep.failed != 0 {
        return Err(failure(
            None,
            format!("{} spill(s) failed on a healthy filesystem", sweep.failed),
        ));
    }
    if sweep.resident_bytes_after > cfg.budget_bytes as u64
        && sweep.resident_bytes_after > sweep.resident_bytes_before - sweep.eligible_bytes
    {
        return Err(failure(
            None,
            format!(
                "residency is unbounded: {} bytes resident against a budget of {} with \
                 {} clean-cold bytes still eligible",
                sweep.resident_bytes_after, cfg.budget_bytes, sweep.eligible_bytes
            ),
        ));
    }
    let census_acked = census.acked;
    let census_log = census.log;

    // Clean-shutdown recovery into an engine *without* a tier: the
    // WAL alone must restore exactly what was acknowledged — spill
    // snapshots are a redundant copy, never a dependency.
    let live = engine_with_cube();
    let rep = recover_into_with(census_fs.as_ref(), &sim_dir(), &live, &opts)
        .map_err(|e| failure(None, format!("clean-shutdown recovery failed: {e}")))?;
    report.recoveries += 1;
    if rep.recovered_epoch != census_acked {
        return Err(failure(
            None,
            format!(
                "clean-shutdown recovery restored through epoch {} but the controller \
                 acknowledged {census_acked}",
                rep.recovered_epoch
            ),
        ));
    }
    if rep.gaps_detected != 0 || rep.rounds_skipped != 0 {
        return Err(failure(
            None,
            format!(
                "clean shutdown left a dirty chain: {} gap(s), {} skipped round(s)",
                rep.gaps_detected, rep.rounds_skipped
            ),
        ));
    }
    report.comparisons += sweep_recovered(
        &live,
        &census_log,
        rep.recovered_epoch,
        "clean-shutdown recovery (no tier)",
        None,
    )?;

    // Power-safety: if power died right now — mid-workload state,
    // bricks spilled — everything acknowledged must still recover
    // from the WAL of the dead image.
    let dead = census_fs.fork();
    dead.crash_now();
    let durable = engine_with_cube();
    let rep = recover_into_with(&dead, &sim_dir(), &durable, &opts)
        .map_err(|e| failure(None, format!("power-safe recovery failed: {e}")))?;
    report.recoveries += 1;
    if rep.recovered_epoch < census_acked {
        return Err(failure(
            None,
            format!(
                "acknowledged rounds are not power-safe under tiering: recovered through \
                 epoch {} but {census_acked} was acknowledged durable",
                rep.recovered_epoch
            ),
        ));
    }
    report.comparisons += sweep_recovered(
        &durable,
        &census_log,
        rep.recovered_epoch,
        "power-safe recovery (no tier)",
        None,
    )?;

    // ----- Phase 2: one power cut per boundary ----------------
    for cut in 0..report.crash_points {
        let fs = Arc::new(SimFs::with_cut(fs_seed, cut));
        let mut acked = 0u64;
        let mut log: Vec<CommittedOp> = Vec::new();
        let mut resume_at = 0usize;
        let mut fired = true;
        let opened = tiered_engine(&fs, cfg.budget_bytes)
            .and_then(|engine| TierTorture::open(&fs, engine, Vec::new(), 0, num_slots));
        match opened {
            // The earliest boundaries are the store/controller setup:
            // nothing ran.
            Err(Stop::PowerCut) => {}
            Err(stop) => return Err(stop_failure(stop, Some(cut))),
            Ok(mut t) => {
                match t.run(&schedule.ops, 0) {
                    Ok(Some(i)) => resume_at = i,
                    // Spill-count drift between runs: this replay
                    // needed fewer syscalls than the census, so the
                    // cut never fired. Still a valid (clean) history
                    // — run the recovery checks and move on.
                    Ok(None) => {
                        fired = false;
                        report.boundaries_not_fired += 1;
                    }
                    Err(stop) => return Err(stop_failure(stop, Some(cut))),
                }
                report.comparisons += t.comparisons;
                acked = t.acked;
                log = t.log;
            }
        }
        fs.reboot();

        // First recovery, into a fresh *tiered* engine: opening the
        // store wipes the dead run's stale snapshots, then the WAL
        // replays — recovered history must not be short of anything
        // acknowledged, cuts-during-spill included.
        let engine = match tiered_engine(&fs, cfg.budget_bytes) {
            Ok(engine) => engine,
            Err(stop) => return Err(stop_failure(stop, Some(cut))),
        };
        let rep = recover_into_with(fs.as_ref(), &sim_dir(), &engine, &opts)
            .map_err(|e| failure(Some(cut), format!("recovery after the cut failed: {e}")))?;
        report.recoveries += 1;
        if rep.recovered_epoch < acked {
            return Err(failure(
                Some(cut),
                format!(
                    "lost acknowledged history: recovered through epoch {} but the \
                     controller had acknowledged {acked}",
                    rep.recovered_epoch
                ),
            ));
        }
        if rep.gaps_detected != 0 || rep.rounds_skipped != 0 {
            return Err(failure(
                Some(cut),
                format!(
                    "a power cut alone must not dirty the chain: {} gap(s), {} \
                     skipped round(s)",
                    rep.gaps_detected, rep.rounds_skipped
                ),
            ));
        }
        let log: Vec<CommittedOp> = log
            .into_iter()
            .filter(|op| op.epoch() <= rep.recovered_epoch)
            .collect();
        report.comparisons += sweep_recovered(
            &engine,
            &log,
            rep.recovered_epoch,
            "post-cut recovery (tiered)",
            Some(cut),
        )?;
        if !fired {
            continue;
        }

        // Restart on the same disk and finish the workload on the
        // recovered tiered engine.
        let mut t = match TierTorture::open(&fs, engine, log, acked, num_slots) {
            Ok(t) => t,
            Err(stop) => return Err(stop_failure(stop, Some(cut))),
        };
        if t.ctl.flushed_through() != rep.recovered_epoch {
            return Err(failure(
                Some(cut),
                format!(
                    "controller resume disagrees with recovery: resumed at epoch {} \
                     but recovery restored through {}",
                    t.ctl.flushed_through(),
                    rep.recovered_epoch
                ),
            ));
        }
        match t.run(&schedule.ops, resume_at.min(schedule.ops.len())) {
            Ok(None) => {}
            Ok(Some(i)) => {
                return Err(failure(
                    Some(cut),
                    format!("a second power cut fired at op {i} after reboot"),
                ))
            }
            Err(stop) => return Err(stop_failure(stop, Some(cut))),
        }
        report.comparisons += t.comparisons;

        // Second recovery — into a plain engine again: the
        // crash-then-continue history must read back as one seamless
        // chain with the tier out of the picture entirely.
        let after = engine_with_cube();
        let rep2 = recover_into_with(fs.as_ref(), &sim_dir(), &after, &opts)
            .map_err(|e| failure(Some(cut), format!("post-continuation recovery failed: {e}")))?;
        report.recoveries += 1;
        if rep2.recovered_epoch < t.acked {
            return Err(failure(
                Some(cut),
                format!(
                    "continuation lost acknowledged history: recovered through {} \
                     but {} was acknowledged",
                    rep2.recovered_epoch, t.acked
                ),
            ));
        }
        if rep2.gaps_detected != 0 || rep2.rounds_skipped != 0 {
            return Err(failure(
                Some(cut),
                format!(
                    "crash-and-continue under tiering left {} gap(s) and {} \
                     unreachable round(s) on disk",
                    rep2.gaps_detected, rep2.rounds_skipped
                ),
            ));
        }
        let log: Vec<CommittedOp> = t
            .log
            .into_iter()
            .filter(|op| op.epoch() <= rep2.recovered_epoch)
            .collect();
        report.comparisons += sweep_recovered(
            &after,
            &log,
            rep2.recovered_epoch,
            "post-continuation recovery (no tier)",
            Some(cut),
        )?;
    }

    // ----- Phase 3: media probes ------------------------------
    // Damage durable snapshots on the census image and require typed,
    // counted failures from the queries that need them. Runs last:
    // it poisons the census filesystem.
    if cfg.media_probes {
        let engine = census.engine;
        let reload_failures_before = engine.tier_stats().map(|s| s.reload_failures).unwrap_or(0);
        // A flipped bit inside one snapshot.
        let files = census_fs.durable_files(&tier_dir());
        if let Some(victim) = files.first() {
            let h = splitmix64(fs_seed);
            if census_fs.flip_durable_bit(victim, h) {
                report.media_probes += 1;
                probe_queries_fail(&engine, "bit-flipped snapshot")?;
            }
        }
        // A deleted snapshot. Re-evict first — the failed probe
        // queries above reloaded every healthy brick.
        engine.enforce_tier_budget();
        let corrupt = files.first().cloned();
        let gone = census_fs
            .durable_files(&tier_dir())
            .into_iter()
            .find(|f| Some(f) != corrupt.as_ref());
        if let Some(victim) = gone {
            if census_fs.remove_everywhere(&victim) {
                report.media_probes += 1;
                probe_queries_fail(&engine, "deleted snapshot")?;
            }
        }
        if report.media_probes > 0 {
            let failures = engine.tier_stats().map(|s| s.reload_failures).unwrap_or(0);
            if failures <= reload_failures_before {
                return Err(failure(
                    None,
                    "media damage was not counted in tier reload_failures".to_string(),
                ));
            }
        }
    }

    Ok(report)
}

/// Runs the full query battery against damaged media and requires at
/// least one *typed* reload failure — and no panic, which would abort
/// the test process long before this check.
fn probe_queries_fail(engine: &Engine, what: &str) -> Result<(), TortureFailure> {
    let claimed = engine.manager().begin_read().snapshot().epoch();
    let snap = Snapshot::committed(claimed);
    let mut saw_reload_error = false;
    for idx in 0..NUM_QUERIES {
        if let Err(e) = engine.query_at(ORACLE_CUBE, &build_query(idx), &snap) {
            let msg = e.to_string();
            if msg.contains("reload of spilled") {
                saw_reload_error = true;
            } else {
                return Err(failure(
                    None,
                    format!("{what}: expected a tier reload error, got: {msg}"),
                ));
            }
        }
    }
    if !saw_reload_error {
        return Err(failure(
            None,
            format!("{what}: every query succeeded — damaged bytes were served or skipped"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------
// check_tier_seed + minimizer + artifacts
// ---------------------------------------------------------------

/// Generates the schedule for `seed`, runs the full tier torture, and
/// — on failure — minimizes the schedule, dumps a `.seed` artifact,
/// and panics with reproduction instructions.
pub fn check_tier_seed(seed: u64, cfg: &TierTortureConfig) -> TierTortureReport {
    let schedule = Schedule::generate(seed, &cfg.gen);
    match run_tier_torture(&schedule, cfg) {
        Ok(report) => report,
        Err(fail) => {
            let where_to = match minimize_tier(&schedule, cfg) {
                Some((min, min_fail, artifact)) => format!(
                    "minimized to {} ops, artifact: {} ({min_fail})",
                    min.ops.len(),
                    artifact.display()
                ),
                None => "failure did not reproduce under minimization".to_string(),
            };
            panic!(
                "tier-torture failure: seed {seed}: {fail}\n{where_to}\n\
                 replay: AOSI_TIER_SEEDS={seed} cargo test -p oracle --test tier_torture"
            );
        }
    }
}

fn tier_fails(schedule: &Schedule, cfg: &TierTortureConfig) -> Option<TortureFailure> {
    run_tier_torture(schedule, cfg).err()
}

/// Shrinks a failing schedule exactly like the crash minimizer:
/// prefix bisection, then greedy per-op removal, every candidate
/// re-running the entire boundary enumeration.
fn minimize_tier(
    schedule: &Schedule,
    cfg: &TierTortureConfig,
) -> Option<(Schedule, TortureFailure, PathBuf)> {
    let original = tier_fails(schedule, cfg)?;
    let sub = |ops: Vec<LogicalOp>| Schedule {
        seed: schedule.seed,
        ops,
    };

    let mut lo = 0usize;
    let mut hi = schedule.ops.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if tier_fails(&sub(schedule.ops[..mid].to_vec()), cfg).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut ops = schedule.ops[..hi].to_vec();

    loop {
        let mut changed = false;
        let mut i = ops.len();
        while i > 0 {
            i -= 1;
            let mut candidate = ops.clone();
            candidate.remove(i);
            if tier_fails(&sub(candidate.clone()), cfg).is_some() {
                ops = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let minimized = sub(ops);
    let fail = tier_fails(&minimized, cfg).unwrap_or(original);
    let artifact = write_tier_artifact(&minimized, cfg, &fail);
    Some((minimized, fail, artifact))
}

fn write_tier_artifact(
    schedule: &Schedule,
    cfg: &TierTortureConfig,
    fail: &TortureFailure,
) -> PathBuf {
    let dir = artifact_dir();
    fs::create_dir_all(&dir).expect("artifact dir is writable");
    let path = dir.join(format!("tier-seed{}.seed", schedule.seed));
    let mut text = String::new();
    text.push_str("# aosi tier-torture minimized failing schedule\n");
    text.push_str(&format!("# failure: {fail}\n"));
    text.push_str(
        "# replay: AOSI_TIER_REPLAY=<this file> cargo test -p oracle --test tier_torture\n",
    );
    text.push_str("mode tier-torture\n");
    text.push_str(&format!("budget {}\n", cfg.budget_bytes));
    text.push_str(&schedule.to_text());
    fs::write(&path, text).expect("artifact file is writable");
    path
}

/// Re-runs a tier-torture `.seed` artifact (schedule text with a
/// `mode tier-torture` header and an optional `budget <bytes>` line).
pub fn replay_tier_artifact(path: &Path) -> Result<TierTortureReport, TortureFailure> {
    let text = fs::read_to_string(path).map_err(|e| {
        failure(
            None,
            format!("cannot read artifact {}: {e}", path.display()),
        )
    })?;
    let mut cfg = TierTortureConfig::default();
    let mut rest = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(mode) = trimmed.strip_prefix("mode ") {
            if mode.trim() != "tier-torture" {
                return Err(failure(
                    None,
                    format!(
                        "artifact {} is a {mode:?} schedule — replay it with the \
                         harness it names, not the tier torture",
                        path.display()
                    ),
                ));
            }
        } else if let Some(budget) = trimmed.strip_prefix("budget ") {
            cfg.budget_bytes = budget
                .trim()
                .parse()
                .map_err(|e| failure(None, format!("bad budget line: {e}")))?;
        } else {
            rest.push_str(line);
            rest.push('\n');
        }
    }
    let schedule = Schedule::from_text(&rest).map_err(|e| failure(None, e))?;
    run_tier_torture(&schedule, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TierTortureConfig {
        TierTortureConfig {
            gen: GenConfig {
                ops: 12,
                slots: 2,
                max_batch: 3,
            },
            budget_bytes: 256,
            media_probes: true,
        }
    }

    #[test]
    fn tiny_seed_survives_every_boundary() {
        let schedule = Schedule::generate(3, &tiny().gen);
        let report = run_tier_torture(&schedule, &tiny()).unwrap();
        assert!(
            report.crash_points >= 8,
            "tier syscalls should add boundaries, got {}",
            report.crash_points
        );
        assert!(report.rounds_flushed >= 1, "the terminal flush writes");
        assert!(
            report.spills >= 1 && report.reloads >= 1,
            "the epilogue forces at least one evict/reload cycle \
             (spills {}, reloads {})",
            report.spills,
            report.reloads
        );
        assert!(report.recoveries >= 2 + report.crash_points);
        assert!(report.comparisons > 0);
        assert!(
            report.media_probes >= 1,
            "a spilled snapshot should exist to damage"
        );
    }

    #[test]
    fn artifact_roundtrip_replays_clean_schedules() {
        let schedule = Schedule::generate(5, &tiny().gen);
        let dir = std::env::temp_dir().join(format!("aosi-tier-artifact-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.seed");
        let mut text = String::from("# comment\nmode tier-torture\nbudget 256\n");
        text.push_str(&schedule.to_text());
        fs::write(&path, text).unwrap();
        let report = replay_tier_artifact(&path).unwrap();
        assert!(report.crash_points > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_artifacts_are_rejected() {
        let dir = std::env::temp_dir().join(format!("aosi-tier-reject-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-mode.seed");
        fs::write(&path, "mode torture\nseed 1\n").unwrap();
        let err = replay_tier_artifact(&path).unwrap_err();
        assert!(err.detail.contains("harness it names"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
