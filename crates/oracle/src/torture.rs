//! Crash-consistency torture: every write-syscall boundary of every
//! flush round is a simulated power cut — on a plain engine (the crash
//! torture) and on a tiered engine under a tiny memory budget (the tier
//! torture), where the cuts also land inside spills, evictions and
//! reloads.
//!
//! The paper's durability rule — "recover up to the last complete
//! flush execution, ignoring any subsequent partial flush" — is a
//! statement about *every possible crash point*, not just the ones a
//! test author thought of. This module checks it mechanically, in the
//! style of ALICE/CrashMonkey-type crash-consistency checkers: all
//! durability syscalls — flush rounds in `/sim/wal` and, on a tiered
//! engine, brick snapshots in the sibling `/sim/tier` — are routed
//! through one [`wal::SimFs`], a deterministic in-memory filesystem
//! with POSIX power-loss semantics (unsynced content is lost, a rename
//! is volatile until the directory is fsynced, the write in flight
//! leaves a seeded torn prefix).
//!
//! The cold tier's durability story rests on one claim: spill
//! snapshots are a *redundant* copy of history the WAL already
//! retains, so no crash point during spill/evict/reload can lose
//! acknowledged data — recovery replays the round chain and never
//! reads a snapshot. The tier torture checks it by recovering into
//! engines *without* a tier wherever the crash torture recovers.
//!
//! One seeded run ([`Torture::run`]) executes these phases:
//!
//! 1. **Census** — the schedule runs on the shared executor with no
//!    cut, then the epilogue: a terminal flush, and on a tiered engine
//!    an eviction sweep → full query check (reloads) → second sweep, so
//!    even a schedule with no mid-run flush cycles bricks through the
//!    cold tier. The mutating-syscall count *is* the crash-boundary
//!    enumeration. `CheckNow` ops are differentially checked against
//!    the epoch-replay reference (on a tiered engine they fault evicted
//!    bricks back in, so bit-identity across the evict/reload cycle is
//!    what is compared). A tiered census also asserts zero spill or
//!    reload failures and bounded residency. Recovery is then exercised
//!    twice: on the live image (clean shutdown must recover exactly
//!    what the controller acknowledged) and on a power-cut fork
//!    (acknowledged rounds must be power-safe — the probe that catches
//!    a missing directory fsync even for a single-round workload).
//! 2. **Boundary sweep** — one fresh run per crash boundary `k`:
//!    execute until the cut fires, reboot, recover into a fresh engine
//!    (a tiered one wipes the stale snapshot dir on open), and assert
//!    the recovered state is *exactly* a complete flushed prefix —
//!    never less than what a successful flush acknowledged, never a
//!    phantom row beyond the pruned committed log, never a hole (every
//!    epoch up to the recovered one is re-queried against the
//!    reference). The flush controller is then reopened on the same
//!    disk (resume must agree with recovery — the restart-clobber
//!    detector), the rest of the schedule and the epilogue run, and a
//!    second recovery, into a plain engine, must find a chain with zero
//!    gaps and zero skipped rounds. Spill syscall counts can drift a
//!    little between runs (eviction ranking ties break on scan-recency
//!    clocks fed by parallel scan tasks), so on a tiered engine a
//!    boundary whose cut never fires is counted as a clean run, not an
//!    enumeration error.
//! 3. **Hole probe** (crash) — a middle round file is deleted from a
//!    fork of the census image; recovery must detect the gap and stop
//!    at the consistent prefix instead of replaying stranded history.
//! 4. **Bit-flip probes** (crash) — seeded single-bit media corruption
//!    in a round file; recovery must degrade gracefully (skip, never
//!    panic, never apply damaged bytes) and stay prefix-consistent.
//! 5. **Media probes** (tier) — seeded single-bit corruption of one
//!    durable snapshot, then deletion of another: queries that need
//!    those bricks must fail with the typed reload error — never panic,
//!    never return rows from damaged bytes — and the failure must be
//!    counted in [`cubrick::TierStats::reload_failures`].
//!
//! [`BugHooks`] re-introduces each of the four fixed durability bugs
//! so the meta-tests can prove the harness actually catches what it
//! claims to catch: three through the `wal` crate's test seam
//! ([`wal::fault::FaultHooks`]), the missing directory fsync through
//! a filesystem wrapper whose `sync_dir` does nothing.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use aosi::Snapshot;
use cluster::ReplicationTracker;
use cubrick::{At, Deliver, Engine, ScanConfig};
use wal::fault::FaultHooks;
use wal::{is_power_cut, FlushController, SimFs, WalBrickStore, WalError, WalFs};
use workload::ops::{oracle_schema, GenConfig, LogicalOp, Schedule, ORACLE_CUBE};

use crate::checks::{build_query, NUM_QUERIES};
use crate::exec::{engine_with_cube, slot_count, sweep, Checkpoint, Exec, Hooks, Stop, NODE};
use crate::framework::{Failure, Harness};
use crate::reference::CommittedOp;

/// Salt mixed into the schedule seed to derive torn-write prefixes,
/// so filesystem randomness is decoupled from workload randomness.
const FS_SEED_SALT: u64 = 0x70f7_0a7e_c417_b011;
/// The tier torture's salt — distinct, so the two tortures explore
/// different torn-write prefixes for the same seed.
const TIER_SEED_SALT: u64 = 0x71e2_c01d_b41c_5a17;

/// Workload shape of the crash corpus. Smaller than the oracle
/// default: the schedule is re-executed once per crash boundary, so
/// op count multiplies into total work.
pub const CRASH_GEN: GenConfig = GenConfig {
    ops: 36,
    slots: 2,
    max_batch: 4,
};

/// Workload shape of the tier corpus (a tiered run has more
/// boundaries per op than a plain one).
pub const TIER_GEN: GenConfig = GenConfig {
    ops: 24,
    slots: 2,
    max_batch: 4,
};

/// The WAL directory inside the simulated filesystem.
fn sim_dir() -> PathBuf {
    PathBuf::from("/sim/wal")
}

/// The snapshot directory: a *sibling* of the WAL chain dir. The
/// flush controller deletes unknown files in its own directory, so
/// snapshots must never live there.
fn tier_dir() -> PathBuf {
    PathBuf::from("/sim/tier")
}

/// Bug 4's fake: a filesystem whose directory fsync does nothing, so
/// a renamed round's directory entry stays volatile and evaporates at
/// the next power cut.
struct NoDirSync(Arc<dyn WalFs>);

impl WalFs for NoDirSync {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.write_file(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.0.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.0.list(dir)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Re-introductions of the four fixed durability bugs, for the
/// meta-tests that prove the harness catches them. All default to
/// `false` (the fixed, production behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BugHooks {
    /// Bug 1: the reopened flush controller forgets the chain on disk
    /// and restarts at sequence 0, clobbering `round-00000000.cbk`.
    pub restart_clobber: bool,
    /// Bug 2: recovery does not validate the round chain and replays
    /// straight across a hole.
    pub skip_chain_validation: bool,
    /// Bug 3: the recovery marker commit fails (exercises the typed
    /// error path that used to be a panic).
    pub fail_marker: bool,
    /// Bug 4: the flush controller skips the directory fsync after
    /// rename, so a completed round's directory entry is volatile.
    pub skip_dir_sync: bool,
}

impl BugHooks {
    /// `true` when any hook is enabled.
    pub fn any(&self) -> bool {
        self.restart_clobber || self.skip_chain_validation || self.fail_marker || self.skip_dir_sync
    }

    fn tags(&self) -> Vec<&'static str> {
        [
            (self.restart_clobber, "restart-clobber"),
            (self.skip_chain_validation, "skip-chain-validation"),
            (self.fail_marker, "fail-marker"),
            (self.skip_dir_sync, "skip-dir-sync"),
        ]
        .into_iter()
        .filter_map(|(on, tag)| on.then_some(tag))
        .collect()
    }

    fn parse_tags(text: &str) -> Result<BugHooks, String> {
        let mut bugs = BugHooks::default();
        for tag in text.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match tag {
                "restart-clobber" => bugs.restart_clobber = true,
                "skip-chain-validation" => bugs.skip_chain_validation = true,
                "fail-marker" => bugs.fail_marker = true,
                "skip-dir-sync" => bugs.skip_dir_sync = true,
                other => return Err(format!("unknown bug hook {other:?}")),
            }
        }
        Ok(bugs)
    }

    /// The bugs the `wal` seam re-introduces (all but the missing
    /// directory fsync).
    fn faults(&self) -> FaultHooks {
        FaultHooks {
            restart_clobber: self.restart_clobber,
            skip_chain_validation: self.skip_chain_validation,
            fail_marker_commit: self.fail_marker,
        }
    }
}

/// The torture harness: `harness crash` (header line `bugs a,b`) or,
/// with a tier budget, `harness tier` (header line `budget <bytes>`).
#[derive(Clone, Debug)]
pub struct Torture {
    /// Seeded single-bit corruption probes against the census image.
    pub bitflip_probes: usize,
    /// Bug re-introductions (meta-tests only).
    pub bugs: BugHooks,
    /// `Some(bytes)`: run on a tiered engine with this memory budget —
    /// small relative to the workload's brick bytes, so eviction sweeps
    /// always have work — and run the snapshot media probes. `None`
    /// runs the hole probe instead: delete a middle round from the
    /// census image and require the gap to be detected.
    pub tier_budget: Option<usize>,
}

impl Torture {
    /// The crash torture's configuration.
    pub fn crash() -> Torture {
        Torture {
            bitflip_probes: 4,
            bugs: BugHooks::default(),
            tier_budget: None,
        }
    }

    /// The tier torture's configuration.
    pub fn tier() -> Torture {
        Torture {
            bitflip_probes: 0,
            bugs: BugHooks::default(),
            tier_budget: Some(1024),
        }
    }
}

/// Counters from a clean torture run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TortureReport {
    /// Crash boundaries enumerated (mutating syscalls of the census
    /// run — WAL rounds and snapshot spills alike); the boundary sweep
    /// ran one power cut at each.
    pub crash_points: u64,
    /// Boundaries whose cut never fired on the replay run (tiered
    /// spill ordering drift); they still ran the recovery checks.
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
    /// Hole probes executed (0 or 1).
    pub hole_probes: usize,
    /// Bit-flip probes executed.
    pub bitflip_probes: usize,
    /// Media probes executed (0..=2).
    pub media_probes: usize,
}

impl Harness for Torture {
    type Report = TortureReport;

    fn name(&self) -> &'static str {
        if self.tier_budget.is_some() {
            "tier"
        } else {
            "crash"
        }
    }

    fn run(&self, schedule: &Schedule) -> Result<TortureReport, Failure> {
        self.torture(schedule)
    }

    fn header(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if self.bugs.any() {
            lines.push(format!("bugs {}", self.bugs.tags().join(",")));
        }
        if let Some(budget) = self.tier_budget {
            lines.push(format!("budget {budget}"));
        }
        lines
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match (key, &mut self.tier_budget) {
            ("bugs", _) => self.bugs = BugHooks::parse_tags(value)?,
            ("budget", Some(budget)) => {
                *budget = value
                    .parse()
                    .map_err(|e| format!("bad budget {value:?}: {e}"))?;
            }
            ("budget", None) => return Err("the crash torture has no tier budget".into()),
            _ => return Err(format!("harness {} takes no {key:?} line", self.name())),
        }
        Ok(())
    }

    fn target(&self) -> &'static str {
        if self.tier_budget.is_some() {
            "tier_torture"
        } else {
            "crash_torture"
        }
    }
}

fn stop_failure(stop: Stop) -> Failure {
    match stop {
        Stop::PowerCut => {
            Failure::new("power cut fired where none was scheduled — boundary accounting is broken")
        }
        Stop::Fail(failure) => failure,
    }
}

/// The executor hooks on a simulated disk: `Flush` is a flush round
/// that may hit the power cut, `Purge` reclaims only up to the durable
/// LSE, and only `CheckNow` is checked — point-in-time and in-txn reads
/// are the differential oracle's domain. Deliberately checker-free:
/// this harness's job is durability, not isolation.
struct Disk {
    fs: Arc<SimFs>,
    /// Whether the engine spills to `fs` (see [`Hooks::settle`]).
    tiered: bool,
    ctl: FlushController,
    tracker: ReplicationTracker,
    /// Highest epoch a *successful* flush acknowledged as durable.
    /// Never reset — a restart does not un-promise durability.
    acked: u64,
    rounds_flushed: u64,
}

impl Hooks for Disk {
    fn flush(&mut self, x: &mut Exec, i: usize) -> Result<(), Stop> {
        match self.ctl.flush_round(&x.engine, &self.tracker) {
            Ok(outcome) => {
                if outcome.bytes_written > 0 {
                    self.rounds_flushed += 1;
                }
                self.acked = self.acked.max(self.ctl.flushed_through());
                Ok(())
            }
            Err(WalError::Io(e)) if is_power_cut(&e) => Err(Stop::PowerCut),
            Err(e) => Err(Failure::at(Some(i), format!("flush round failed: {e}")).into()),
        }
    }

    fn purge(&mut self, x: &mut Exec, _i: usize) -> Result<(), Stop> {
        // The controller's flush rounds are what advance the LSE:
        // reclaimed history must already be on disk.
        x.engine.purge();
        Ok(())
    }

    fn check(&mut self, x: &mut Exec, i: usize, at: Checkpoint) -> Result<(), Failure> {
        match at {
            Checkpoint::Now(epoch) => x.check_committed(i, at.label(), epoch, epoch),
            Checkpoint::AsOf(_) | Checkpoint::Txn(_) => Ok(()),
        }
    }

    /// On a tiered engine, after the cut every syscall fails, so an
    /// op's own error — a reload that could not read its snapshot, a
    /// spill failure the eviction sweep swallowed followed by a failing
    /// check — is the cut's shadow, not a bug. Without tiering only a
    /// flush touches the disk, and only its typed power-cut error
    /// counts as the cut: any other failure is reported.
    fn settle(&self, outcome: Result<(), Stop>) -> Result<(), Stop> {
        if self.tiered && self.fs.crashed() {
            return Err(Stop::PowerCut);
        }
        outcome
    }
}

/// The epilogue after the schedule: `None` is an eviction sweep.
const CRASH_EPILOGUE: [Option<LogicalOp>; 1] = [Some(LogicalOp::Flush)];
const TIER_EPILOGUE: [Option<LogicalOp>; 4] = [
    Some(LogicalOp::Flush),
    None,
    Some(LogicalOp::CheckNow),
    None,
];

impl Torture {
    /// A fresh engine over `fs`. On a tiered engine: the snapshot store
    /// in [`tier_dir`] (wiping stale snapshots), and a single shard so
    /// spill ordering stays deterministic enough for boundary replay.
    /// Its scans run sequentially, which on one shard is the same
    /// execution with the snapshot memo bypassed — a memo hit
    /// (correctly) answers for spilled bricks without touching their
    /// snapshots, which would let the media probes pass without ever
    /// exercising the reload path; the memo-over-spilled-bricks path
    /// has its own unit coverage in `cubrick`'s engine tests.
    fn engine(&self, fs: &Arc<SimFs>) -> Result<Engine, Stop> {
        let Some(budget) = self.tier_budget else {
            return Ok(engine_with_cube());
        };
        let walfs: Arc<dyn WalFs> = fs.clone();
        let store = match WalBrickStore::open_with(walfs, tier_dir()) {
            Ok(store) => store,
            Err(e) if is_power_cut(&e) => return Err(Stop::PowerCut),
            Err(e) => return Err(Failure::new(format!("tier store open failed: {e}")).into()),
        };
        let engine = Engine::new(1)
            .with_scan_config(ScanConfig {
                sequential: true,
                ..ScanConfig::default()
            })
            .with_tiered_storage(Box::new(store), budget);
        engine
            .create_cube(oracle_schema())
            .map_err(|e| Failure::new(format!("oracle schema registers: {e}")))?;
        Ok(engine)
    }

    /// Opens the flush controller on `fs` around `engine`.
    fn open(
        &self,
        fs: &Arc<SimFs>,
        engine: Engine,
        log: Vec<CommittedOp>,
        acked: u64,
        schedule: &Schedule,
    ) -> Result<(Exec, Disk), Stop> {
        let mut walfs: Arc<dyn WalFs> = fs.clone();
        if self.bugs.skip_dir_sync {
            walfs = Arc::new(NoDirSync(walfs));
        }
        let ctl = match FlushController::with_fs(walfs, sim_dir(), NODE) {
            Ok(ctl) => ctl,
            Err(e) if is_power_cut(&e) => return Err(Stop::PowerCut),
            Err(e) => return Err(Failure::new(format!("controller open failed: {e}")).into()),
        };
        let disk = Disk {
            fs: fs.clone(),
            tiered: self.tier_budget.is_some(),
            ctl,
            tracker: ReplicationTracker::new(1),
            acked,
            rounds_flushed: 0,
        };
        Ok((Exec::new(engine, slot_count(schedule), log, false), disk))
    }

    /// Runs `ops[from..]` and the epilogue. Returns the index just
    /// past the step in which the power cut fired ("op index" extends
    /// past the schedule for the epilogue steps).
    fn run_to_end(
        &self,
        x: &mut Exec,
        disk: &mut Disk,
        ops: &[LogicalOp],
        from: usize,
    ) -> Result<Option<usize>, Failure> {
        if let Some(i) = x.run(disk, ops, from)? {
            return Ok(Some(i));
        }
        let epilogue: &[Option<LogicalOp>] = if self.tier_budget.is_some() {
            &TIER_EPILOGUE
        } else {
            &CRASH_EPILOGUE
        };
        for (k, step) in epilogue.iter().enumerate() {
            let i = ops.len() + k;
            let outcome = match step {
                Some(op) => x.apply(disk, i, op),
                // The sweep reports spill failures through counters,
                // not errors; settle() is what notices a cut in here.
                None => {
                    x.engine.enforce_tier_budget();
                    Ok(())
                }
            };
            match disk.settle(outcome) {
                Ok(()) => {}
                Err(Stop::PowerCut) => return Ok(Some(i + 1)),
                Err(Stop::Fail(failure)) => return Err(failure),
            }
        }
        Ok(None)
    }

    /// Runs every phase for one schedule. `Ok` means every crash
    /// boundary and every probe recovered to exactly a complete
    /// flushed prefix.
    fn torture(&self, schedule: &Schedule) -> Result<TortureReport, Failure> {
        let salt = if self.tier_budget.is_some() {
            TIER_SEED_SALT
        } else {
            FS_SEED_SALT
        };
        let fs_seed = schedule.seed ^ salt;
        let faults = self.bugs.faults();
        let mut report = TortureReport::default();

        // ----- Phase 1: census ------------------------------------
        let census_fs = Arc::new(SimFs::new(fs_seed));
        let (mut census, mut census_disk) = self
            .engine(&census_fs)
            .and_then(|engine| self.open(&census_fs, engine, Vec::new(), 0, schedule))
            .map_err(stop_failure)?;
        if let Some(i) = self.run_to_end(&mut census, &mut census_disk, &schedule.ops, 0)? {
            return Err(Failure::new(format!(
                "census run hit a power cut at op {i} with no cut configured"
            )));
        }
        report.crash_points = census_fs.mutating_ops();
        report.rounds_flushed = census_disk.rounds_flushed;
        report.comparisons += census.comparisons;
        if let Some(budget) = self.tier_budget {
            let stats = census.engine.tier_stats().unwrap_or_default();
            report.spills = stats.spills;
            report.reloads = stats.reloads;
            if stats.spill_failures != 0 || stats.reload_failures != 0 {
                return Err(Failure::new(format!(
                    "census on a healthy filesystem had {} spill and {} reload failure(s)",
                    stats.spill_failures, stats.reload_failures
                )));
            }
            // Bounded residency: with everything flushed (clean-cold),
            // one more sweep must either reach the budget or have
            // evicted every eligible byte trying.
            let sweep = census.engine.enforce_tier_budget();
            if sweep.failed != 0 {
                return Err(Failure::new(format!(
                    "{} spill(s) failed on a healthy filesystem",
                    sweep.failed
                )));
            }
            if sweep.resident_bytes_after > budget as u64
                && sweep.resident_bytes_after > sweep.resident_bytes_before - sweep.eligible_bytes
            {
                return Err(Failure::new(format!(
                    "residency is unbounded: {} bytes resident against a budget of {} \
                         with {} clean-cold bytes still eligible",
                    sweep.resident_bytes_after, budget, sweep.eligible_bytes
                )));
            }
        }
        let census_acked = census_disk.acked;
        let census_log = &census.log;

        // Clean-shutdown recovery into a plain engine: the WAL alone
        // must restore exactly what the controller acknowledged, with
        // a pristine chain — spill snapshots are never a dependency.
        let live = engine_with_cube();
        let rep = faults
            .recover_into(census_fs.as_ref(), &sim_dir(), &live)
            .map_err(|e| Failure::new(format!("clean-shutdown recovery failed: {e}")))?;
        report.recoveries += 1;
        if rep.recovered_epoch != census_acked {
            return Err(Failure::new(format!(
                "clean-shutdown recovery restored through epoch {} but the controller \
                     acknowledged {census_acked}",
                rep.recovered_epoch
            )));
        }
        if rep.gaps_detected != 0 || rep.rounds_skipped != 0 {
            return Err(Failure::new(format!(
                "clean shutdown left a dirty chain: {} gap(s), {} skipped round(s)",
                rep.gaps_detected, rep.rounds_skipped
            )));
        }
        report.comparisons += sweep(
            &live,
            census_log,
            rep.recovered_epoch,
            "clean-shutdown recovery",
            None,
        )?;

        // Power-safety of acknowledged rounds: if power died right
        // now, everything a flush acknowledged must still be
        // recoverable. This is the single-round detector for a missing
        // directory fsync — the rename is visible but its entry never
        // durable.
        let dead = census_fs.fork();
        dead.crash_now();
        let durable = engine_with_cube();
        let rep = faults
            .recover_into(&dead, &sim_dir(), &durable)
            .map_err(|e| Failure::new(format!("power-safe recovery failed: {e}")))?;
        report.recoveries += 1;
        if rep.recovered_epoch < census_acked {
            return Err(Failure::new(format!(
                "acknowledged rounds are not power-safe: recovered through epoch {} \
                     but {census_acked} was acknowledged durable",
                rep.recovered_epoch
            )));
        }
        report.comparisons += sweep(
            &durable,
            census_log,
            rep.recovered_epoch,
            "power-safe recovery",
            None,
        )?;

        // ----- Phase 2: one power cut per boundary ----------------
        for cut in 0..report.crash_points {
            self.boundary(schedule, fs_seed, cut, &faults, &mut report)
                .map_err(|failure| Failure {
                    crash_point: Some(cut),
                    ..failure
                })?;
        }

        // ----- Phase 3: hole probe --------------------------------
        if self.tier_budget.is_none() && report.rounds_flushed >= 3 {
            let holed = census_fs.fork();
            let victim = sim_dir().join(format!("round-{:08}.cbk", report.rounds_flushed / 2));
            if holed.remove_everywhere(&victim) {
                report.hole_probes += 1;
                let engine = engine_with_cube();
                let rep = faults
                    .recover_into(&holed, &sim_dir(), &engine)
                    .map_err(|e| Failure::new(format!("hole-probe recovery failed: {e}")))?;
                report.recoveries += 1;
                if !faults.skip_chain_validation && rep.gaps_detected == 0 {
                    return Err(Failure::new(format!(
                        "a missing middle round ({}) went undetected",
                        victim.display()
                    )));
                }
                report.comparisons +=
                    sweep(&engine, census_log, rep.recovered_epoch, "hole probe", None)?;
            }
        }

        // ----- Phase 4: bit-flip probes ---------------------------
        for probe in 0..self.bitflip_probes {
            if report.rounds_flushed == 0 {
                break;
            }
            let flipped = census_fs.fork();
            let h = splitmix64(fs_seed ^ (probe as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
            let target = sim_dir().join(format!("round-{:08}.cbk", h % report.rounds_flushed));
            if !flipped.flip_durable_bit(&target, h >> 8) {
                continue;
            }
            report.bitflip_probes += 1;
            let engine = engine_with_cube();
            // Graceful degradation: corruption is skipped, never an
            // error, never a panic, never applied.
            let rep = faults
                .recover_into(&flipped, &sim_dir(), &engine)
                .map_err(|e| {
                    Failure::new(format!(
                        "recovery must degrade gracefully under media corruption: {e}"
                    ))
                })?;
            report.recoveries += 1;
            if rep.rounds_skipped == 0 {
                return Err(Failure::new(format!(
                    "a flipped bit in {} went undetected",
                    target.display()
                )));
            }
            report.comparisons += sweep(
                &engine,
                census_log,
                rep.recovered_epoch,
                "bit-flip probe",
                None,
            )?;
        }

        // ----- Phase 5: media probes ------------------------------
        // Runs last: it poisons the census filesystem.
        if self.tier_budget.is_some() {
            report.media_probes = media_probes(&census.engine, &census_fs, fs_seed)?;
        }

        Ok(report)
    }

    /// One power cut at boundary `cut`: run until it fires, recover,
    /// resume on the same disk, finish, recover again.
    fn boundary(
        &self,
        schedule: &Schedule,
        fs_seed: u64,
        cut: u64,
        faults: &FaultHooks,
        report: &mut TortureReport,
    ) -> Result<(), Failure> {
        let fs = Arc::new(SimFs::with_cut(fs_seed, cut));
        let mut acked = 0u64;
        let mut log: Vec<CommittedOp> = Vec::new();
        let mut resume_at = 0usize;
        let mut fired = true;
        let opened = self
            .engine(&fs)
            .and_then(|engine| self.open(&fs, engine, Vec::new(), 0, schedule));
        match opened {
            // The earliest boundaries are the store/controller setup:
            // nothing ran.
            Err(Stop::PowerCut) => {}
            Err(Stop::Fail(failure)) => return Err(failure),
            Ok((mut x, mut disk)) => {
                match self.run_to_end(&mut x, &mut disk, &schedule.ops, 0)? {
                    Some(i) => resume_at = i,
                    // Spill-count drift between tiered runs: this run
                    // needed fewer syscalls than the census, so the
                    // cut never fired. Still a valid (clean) history —
                    // run the first recovery's checks and move on.
                    None if self.tier_budget.is_some() => {
                        report.boundaries_not_fired += 1;
                        fired = false;
                    }
                    None => {
                        return Err(Failure::new(format!(
                            "boundary {cut} of {} never fired — the enumeration \
                                 drifted between runs",
                            report.crash_points
                        )))
                    }
                }
                report.comparisons += x.comparisons;
                acked = disk.acked;
                log = x.log;
            }
        }
        fs.reboot();

        // First recovery, into a fresh engine (a tiered one wipes the
        // dead run's stale snapshots on open): exactly a complete
        // flushed prefix, nothing acknowledged missing.
        let engine = self.engine(&fs).map_err(stop_failure)?;
        let rep = faults
            .recover_into(fs.as_ref(), &sim_dir(), &engine)
            .map_err(|e| Failure::new(format!("recovery after the cut failed: {e}")))?;
        report.recoveries += 1;
        if rep.recovered_epoch < acked {
            return Err(Failure::new(format!(
                "lost acknowledged history: recovered through epoch {} but the \
                     controller had acknowledged {acked}",
                rep.recovered_epoch
            )));
        }
        if rep.gaps_detected != 0 || rep.rounds_skipped != 0 {
            return Err(Failure::new(format!(
                "a power cut alone must not dirty the chain: {} gap(s), {} \
                     skipped round(s)",
                rep.gaps_detected, rep.rounds_skipped
            )));
        }
        // Commits after the last complete flush died with the process
        // — the paper hands them to replication, which this
        // single-node harness models by pruning the reference log.
        log.retain(|op| op.epoch() <= rep.recovered_epoch);
        report.comparisons += sweep(
            &engine,
            &log,
            rep.recovered_epoch,
            "post-cut recovery",
            None,
        )?;
        if !fired {
            return Ok(());
        }

        // Restart on the same disk: controller resume must agree with
        // recovery (the restart-clobber detector) ...
        let (mut x, mut disk) = self
            .open(&fs, engine, log, acked, schedule)
            .map_err(stop_failure)?;
        if !self.bugs.skip_chain_validation && disk.ctl.flushed_through() != rep.recovered_epoch {
            return Err(Failure::new(format!(
                "controller resume disagrees with recovery: resumed at epoch {} \
                     but recovery restored through {}",
                disk.ctl.flushed_through(),
                rep.recovered_epoch
            )));
        }
        faults.restart(&mut disk.ctl);
        // ... and the survivor finishes the workload.
        if let Some(i) = self.run_to_end(&mut x, &mut disk, &schedule.ops, resume_at)? {
            return Err(Failure::new(format!(
                "a second power cut fired at op {i} after reboot"
            )));
        }
        report.comparisons += x.comparisons;

        // Second recovery, into a plain engine: the crash-then-continue
        // history must read back as one seamless chain with no help
        // from snapshot files.
        let after = engine_with_cube();
        let rep2 = faults
            .recover_into(fs.as_ref(), &sim_dir(), &after)
            .map_err(|e| Failure::new(format!("post-continuation recovery failed: {e}")))?;
        report.recoveries += 1;
        if rep2.recovered_epoch < disk.acked {
            return Err(Failure::new(format!(
                "continuation lost acknowledged history: recovered through {} \
                     but {} was acknowledged",
                rep2.recovered_epoch, disk.acked
            )));
        }
        if rep2.gaps_detected != 0 || rep2.rounds_skipped != 0 {
            return Err(Failure::new(format!(
                "corruption-free crash-and-continue left {} gap(s) and {} \
                     unreachable round(s) on disk",
                rep2.gaps_detected, rep2.rounds_skipped
            )));
        }
        report.comparisons += sweep(
            &after,
            &x.log,
            rep2.recovered_epoch,
            "post-continuation recovery",
            None,
        )?;
        Ok(())
    }
}

/// Damages durable snapshots on the census image and requires typed,
/// counted failures from the queries that need them. Returns the
/// probes executed.
fn media_probes(engine: &Engine, fs: &SimFs, fs_seed: u64) -> Result<usize, Failure> {
    let mut probes = 0;
    let reload_failures_before = engine.tier_stats().map_or(0, |s| s.reload_failures);
    // A flipped bit inside one snapshot.
    let files = fs.durable_files(&tier_dir());
    if let Some(victim) = files.first() {
        if fs.flip_durable_bit(victim, splitmix64(fs_seed)) {
            probes += 1;
            probe_queries_fail(engine, "bit-flipped snapshot")?;
        }
    }
    // A deleted snapshot. Re-evict first — the failed probe queries
    // above reloaded every healthy brick.
    engine.enforce_tier_budget();
    let corrupt = files.first();
    let gone = fs
        .durable_files(&tier_dir())
        .into_iter()
        .find(|f| Some(f) != corrupt);
    if let Some(victim) = gone {
        if fs.remove_everywhere(&victim) {
            probes += 1;
            probe_queries_fail(engine, "deleted snapshot")?;
        }
    }
    let failures = engine.tier_stats().map_or(0, |s| s.reload_failures);
    if probes > 0 && failures <= reload_failures_before {
        return Err(Failure::new(
            "media damage was not counted in tier reload_failures",
        ));
    }
    Ok(probes)
}

/// Runs the full query battery against damaged media and requires at
/// least one *typed* reload failure — and no panic, which would abort
/// the test process long before this check.
fn probe_queries_fail(engine: &Engine, what: &str) -> Result<(), Failure> {
    let claimed = engine.manager().begin_read().snapshot().epoch();
    let snap = Snapshot::committed(claimed);
    let mut saw_reload_error = false;
    for idx in 0..NUM_QUERIES {
        if let Err(e) = engine.read(
            ORACLE_CUBE,
            &build_query(idx),
            At::Snapshot(&snap),
            Deliver::Final,
        ) {
            let msg = e.to_string();
            if !msg.contains("reload of spilled") {
                return Err(Failure::new(format!(
                    "{what}: expected a tier reload error, got: {msg}"
                )));
            }
            saw_reload_error = true;
        }
    }
    if !saw_reload_error {
        return Err(Failure::new(format!(
            "{what}: every query succeeded — damaged bytes were served or skipped"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: GenConfig = GenConfig {
        ops: 14,
        slots: 2,
        max_batch: 3,
    };

    fn tiny_crash() -> Torture {
        Torture {
            bitflip_probes: 2,
            ..Torture::crash()
        }
    }

    #[test]
    fn tiny_seed_survives_every_boundary() {
        let schedule = Schedule::generate(3, &TINY);
        let report = tiny_crash().run(&schedule).unwrap();
        assert!(
            report.crash_points >= 5,
            "multi-syscall workload expected, got {} boundaries",
            report.crash_points
        );
        assert!(report.rounds_flushed >= 1, "the terminal flush writes");
        // Census (2) + two recoveries per boundary + probes.
        assert!(report.recoveries >= 2 + 2 * report.crash_points);
        assert!(report.comparisons > 0);
    }

    #[test]
    fn tiny_tiered_seed_survives_every_boundary() {
        let torture = Torture {
            tier_budget: Some(256),
            ..Torture::tier()
        };
        let gen = GenConfig { ops: 12, ..TINY };
        let report = torture.run(&Schedule::generate(3, &gen)).unwrap();
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
    fn lost_dir_sync_is_caught_by_the_power_safety_probe() {
        let schedule = Schedule::generate(3, &TINY);
        let torture = Torture {
            bugs: BugHooks {
                skip_dir_sync: true,
                ..Default::default()
            },
            ..tiny_crash()
        };
        let fail = torture.run(&schedule).unwrap_err();
        assert!(
            fail.detail.contains("acknowledged"),
            "expected a lost-acked-history failure, got: {fail}"
        );
    }

    #[test]
    fn bug_tags_roundtrip() {
        let bugs = BugHooks {
            restart_clobber: true,
            skip_dir_sync: true,
            ..Default::default()
        };
        let parsed = BugHooks::parse_tags(&bugs.tags().join(",")).unwrap();
        assert_eq!(parsed, bugs);
        assert!(BugHooks::parse_tags("made-up-tag").is_err());
    }
}
