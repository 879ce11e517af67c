//! Merge-algebra differential oracle: any partition of a brick set,
//! merged in any order and association, must finalize bit-identically
//! to the single-pass sequential reference.
//!
//! The shard-merge executor's correctness argument is algebraic: a
//! brick partial is a grouped table of [`cubrick::AggState`] values,
//! `PartialResult::default()` is the merge identity, and `merge` is
//! associative and commutative on the workload's exact arithmetic
//! (integer-valued metrics make float sums exact, so reassociation
//! cannot change a single bit). The scan oracle pins the *default*
//! association — per-shard folds merged in shard order — against the
//! reference; this layer pins **every other** association: for each
//! checkpoint of a generated schedule it pulls the raw per-brick
//! partials via [`Engine::query_brick_partials`], then re-merges them
//! through seeded random partitions into chunks, shuffled chunk
//! orders, random binary merge trees, and interleaved identity
//! states, and demands each finalization agree with
//! [`Engine::query_at_reference`] through `f64::to_bits`.
//!
//! Failures shrink exactly like the other oracles: prefix bisection
//! plus greedy op removal against [`run_agg_schedule`], dumped as a
//! replayable `.seed` artifact (`AOSI_AGG_REPLAY` in the test suite
//! re-runs one; `AOSI_AGG_SEEDS` runs extra generator seeds).
//!
//! The meta-tests in `tests/agg_oracle.rs` prove the teeth: a
//! two-chunk AVG workload that a mean-of-means merge would get wrong,
//! and deliberately corrupted memo entries
//! ([`Engine::corrupt_memo_for_test`]) that the differential compare
//! must catch.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use aosi::Snapshot;
use columnar::Value;
use cubrick::{DimFilter, Engine, PartialResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::ops::{bucket_days, LogicalOp, Schedule, ORACLE_CUBE};

use crate::harness::Divergence;
use crate::minimize::artifact_dir;
use crate::scan::{build_scan_query, diff_bits, scan_engine, NUM_SCAN_QUERIES};

/// Re-merge plans tried per (checkpoint, query): each plan is one
/// seeded partition + shuffle + association draw. Small, because the
/// count multiplies the whole corpus.
const PLANS_PER_QUERY: usize = 3;

/// Counters from a clean merge-oracle run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggReport {
    /// Schedule ops executed.
    pub ops_executed: usize,
    /// Re-merged finalizations compared against the reference.
    pub comparisons: u64,
    /// Brick partials pulled and folded across the run.
    pub partials_folded: u64,
}

fn fail(op_index: Option<usize>, detail: impl Into<String>) -> Divergence {
    Divergence {
        op_index,
        detail: detail.into(),
    }
}

/// Folds `partials` through one seeded re-merge plan: partition into
/// `1..=n` chunks by random assignment, fold each chunk locally
/// (seeded from the identity, so the identity-state no-op is part of
/// every plan), then collapse the chunk partials through a random
/// binary merge tree — a different association and order every draw.
fn remerge(partials: &[PartialResult], rng: &mut StdRng) -> PartialResult {
    if partials.is_empty() {
        return PartialResult::default();
    }
    let k = rng.gen_range(1..=partials.len());
    let mut chunks: Vec<PartialResult> = (0..k).map(|_| PartialResult::default()).collect();
    for partial in partials {
        let slot = rng.gen_range(0..k);
        chunks[slot].merge(partial.clone());
    }
    // Random association: repeatedly merge one random chunk into
    // another until one remains. Empty chunks stay in the pool — they
    // are identity states and must be no-ops wherever they land.
    while chunks.len() > 1 {
        let j = rng.gen_range(1..chunks.len());
        let victim = chunks.swap_remove(j);
        let i = rng.gen_range(0..chunks.len());
        chunks[i].merge(victim);
    }
    chunks.pop().expect("one chunk remains")
}

/// Runs the whole scan battery at `snapshot`, and for each query
/// checks that the per-brick partials finalize to the reference
/// answer under: the documented forward fold, the reversed fold
/// (commutativity), and [`PLANS_PER_QUERY`] seeded
/// partition/shuffle/association draws. Returns (comparisons,
/// partials folded) on agreement.
pub fn compare_merges(
    engine: &Engine,
    snapshot: &Snapshot,
    op_index: Option<usize>,
    label: &str,
    rng: &mut StdRng,
) -> Result<(u64, u64), Divergence> {
    let mut comparisons = 0u64;
    let mut folded = 0u64;
    for idx in 0..NUM_SCAN_QUERIES {
        let query = build_scan_query(idx);
        let reference = engine
            .query_at_reference(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| fail(op_index, format!("{label} q{idx} reference failed: {e}")))?;
        let partials = engine
            .query_brick_partials(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| fail(op_index, format!("{label} q{idx} partials failed: {e}")))?;
        folded += partials.len() as u64;
        let mut check = |plan: &str, merged: PartialResult| -> Result<(), Divergence> {
            let finalized = engine
                .finalize_partials(ORACLE_CUBE, &query, std::iter::once(merged))
                .map_err(|e| fail(op_index, format!("{label} q{idx} finalize failed: {e}")))?;
            comparisons += 1;
            if let Some(d) = diff_bits(&finalized, &reference) {
                return Err(fail(
                    op_index,
                    format!(
                        "{label} q{idx} at epoch {}: {plan} re-merge differs from \
                         single-pass reference: {d}",
                        snapshot.epoch()
                    ),
                ));
            }
            Ok(())
        };
        // Forward fold from the identity — the documented contract.
        let mut forward = PartialResult::default();
        for partial in &partials {
            forward.merge(partial.clone());
        }
        check("forward", forward)?;
        // Reversed fold — commutativity's cheapest witness.
        let mut backward = PartialResult::default();
        for partial in partials.iter().rev() {
            backward.merge(partial.clone());
        }
        check("reversed", backward)?;
        for plan in 0..PLANS_PER_QUERY {
            check(&format!("plan#{plan}"), remerge(&partials, rng))?;
        }
    }
    Ok((comparisons, folded))
}

struct AggState {
    engine: Engine,
    slots: Vec<Option<aosi::Txn>>,
    rng: StdRng,
    comparisons: u64,
    partials_folded: u64,
}

impl AggState {
    fn check_at(&mut self, i: usize, label: &str, snapshot: &Snapshot) -> Result<(), Divergence> {
        let (comparisons, folded) =
            compare_merges(&self.engine, snapshot, Some(i), label, &mut self.rng)?;
        self.comparisons += comparisons;
        self.partials_folded += folded;
        Ok(())
    }

    fn apply(&mut self, i: usize, op: &LogicalOp) -> Result<(), Divergence> {
        match op {
            LogicalOp::Begin { slot } => {
                if *slot < self.slots.len() && self.slots[*slot].is_none() {
                    self.slots[*slot] = Some(self.engine.begin());
                }
            }
            LogicalOp::Append { slot, rows } => {
                if let Some(txn) = self.slots.get(*slot).and_then(Option::as_ref) {
                    let (accepted, rejected) = self
                        .engine
                        .append(ORACLE_CUBE, rows, txn)
                        .map_err(|e| fail(Some(i), format!("append failed: {e}")))?;
                    if rejected != 0 || accepted != rows.len() {
                        return Err(fail(Some(i), "generated rows rejected"));
                    }
                }
            }
            LogicalOp::Commit { slot } => {
                if let Some(txn) = self.slots.get_mut(*slot).and_then(Option::take) {
                    self.engine
                        .commit(&txn)
                        .map_err(|e| fail(Some(i), format!("commit failed: {e}")))?;
                }
            }
            LogicalOp::Rollback { slot } => {
                if let Some(txn) = self.slots.get_mut(*slot).and_then(Option::take) {
                    self.engine
                        .rollback(&txn)
                        .map_err(|e| fail(Some(i), format!("rollback failed: {e}")))?;
                }
            }
            LogicalOp::Load { rows } => {
                self.engine
                    .load(ORACLE_CUBE, rows, 0)
                    .map_err(|e| fail(Some(i), format!("load failed: {e}")))?;
            }
            LogicalOp::DeleteDays { buckets } => {
                let days: BTreeSet<i64> = buckets.iter().flat_map(|b| bucket_days(*b)).collect();
                let filter =
                    DimFilter::new("day", days.into_iter().map(Value::I64).collect::<Vec<_>>());
                self.engine
                    .delete_where(ORACLE_CUBE, &[filter])
                    .map_err(|e| fail(Some(i), format!("delete failed: {e}")))?;
            }
            LogicalOp::Purge | LogicalOp::Flush => {
                self.engine.advance_lse_and_purge();
            }
            LogicalOp::CheckNow => {
                let snapshot = self.engine.manager().begin_read().snapshot().clone();
                self.check_at(i, "check", &snapshot)?;
            }
            LogicalOp::CheckAsOf { frac } => {
                let (lse, lce) = (self.engine.manager().lse(), self.engine.manager().lce());
                if lce > 0 {
                    let window = lce - lse + 1;
                    let epoch = (lse + (u64::from(*frac) * window) / 256).min(lce);
                    self.check_at(i, "as-of", &Snapshot::committed(epoch))?;
                }
            }
            LogicalOp::CheckTxn { slot } => {
                // An open transaction's snapshot: brick partials keyed
                // on a non-empty deps set, and uncommitted rows that
                // every re-merge must keep excluded.
                if let Some(txn) = self.slots.get(*slot).and_then(Option::as_ref) {
                    let snapshot = txn.snapshot().clone();
                    self.check_at(i, "in-txn", &snapshot)?;
                }
            }
        }
        Ok(())
    }
}

/// Executes `schedule` against a parallel+memoized engine, checking
/// the merge algebra at every checkpoint, then sweeps the full
/// readable window twice (the second pass draws fresh re-merge plans
/// over the same per-brick partials, which never come from the memo).
/// Returns counters on agreement or the first [`Divergence`].
pub fn run_agg_schedule(schedule: &Schedule) -> Result<AggReport, Divergence> {
    let max_slot = schedule
        .ops
        .iter()
        .filter_map(|op| match op {
            LogicalOp::Begin { slot }
            | LogicalOp::Append { slot, .. }
            | LogicalOp::Commit { slot }
            | LogicalOp::Rollback { slot }
            | LogicalOp::CheckTxn { slot } => Some(*slot),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut state = AggState {
        engine: scan_engine(),
        slots: (0..=max_slot).map(|_| None).collect(),
        rng: StdRng::seed_from_u64(schedule.seed ^ 0xa66_0c1e_5eed_0002),
        comparisons: 0,
        partials_folded: 0,
    };
    for (i, op) in schedule.ops.iter().enumerate() {
        state.apply(i, op)?;
    }
    for slot in 0..state.slots.len() {
        if let Some(txn) = state.slots[slot].take() {
            state
                .engine
                .commit(&txn)
                .map_err(|e| fail(None, format!("quiescence commit failed: {e}")))?;
        }
    }
    let (lse, lce) = (state.engine.manager().lse(), state.engine.manager().lce());
    for pass in 0..2 {
        for epoch in lse..=lce {
            let snapshot = Snapshot::committed(epoch);
            let (comparisons, folded) = compare_merges(
                &state.engine,
                &snapshot,
                None,
                &format!("sweep#{pass}"),
                &mut state.rng,
            )?;
            state.comparisons += comparisons;
            state.partials_folded += folded;
        }
    }
    Ok(AggReport {
        ops_executed: schedule.ops.len(),
        comparisons: state.comparisons,
        partials_folded: state.partials_folded,
    })
}

/// Shrinks a failing schedule against [`run_agg_schedule`] — prefix
/// bisection, then greedy op removal, both valid because the agg
/// executor is deterministic and treats dangling slot references as
/// no-ops — and dumps a replayable `.seed` artifact. `None` when the
/// schedule does not fail.
pub fn minimize_agg(schedule: &Schedule) -> Option<(Schedule, Divergence, PathBuf)> {
    let original = run_agg_schedule(schedule).err()?;
    let sub = |ops: Vec<LogicalOp>| Schedule {
        seed: schedule.seed,
        ops,
    };
    let mut lo = 0usize;
    let mut hi = schedule.ops.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run_agg_schedule(&sub(schedule.ops[..mid].to_vec())).is_err() {
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
            if run_agg_schedule(&sub(candidate.clone())).is_err() {
                ops = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let minimized = sub(ops);
    let divergence = run_agg_schedule(&minimized).err().unwrap_or(original);
    let dir = artifact_dir();
    fs::create_dir_all(&dir).expect("artifact dir is writable");
    let path = dir.join(format!("agg-min-seed{}.seed", minimized.seed));
    let mut text = String::new();
    text.push_str("# aosi-agg-oracle minimized failing schedule\n");
    text.push_str(&format!("# divergence: {divergence}\n"));
    text.push_str("# replay: AOSI_AGG_REPLAY=<this file> cargo test -p oracle --test agg_oracle\n");
    text.push_str(&minimized.to_text());
    fs::write(&path, text).expect("artifact file is writable");
    Some((minimized, divergence, path))
}

/// Re-runs an agg-oracle `.seed` artifact (or any schedule text;
/// comment lines are ignored by the schedule parser's caller here).
pub fn replay_agg_artifact(path: &Path) -> Result<AggReport, Divergence> {
    let text = fs::read_to_string(path).map_err(|e| {
        fail(
            None,
            format!("cannot read artifact {}: {e}", path.display()),
        )
    })?;
    let body: String = text
        .lines()
        .filter(|line| {
            let t = line.trim();
            !t.starts_with('#') && !t.starts_with("mode ") && !t.starts_with("inject ")
        })
        .map(|line| format!("{line}\n"))
        .collect();
    let schedule = Schedule::from_text(&body).map_err(|detail| fail(None, detail))?;
    run_agg_schedule(&schedule)
}

/// Generates the schedule for `seed`, runs the merge oracle over it,
/// and — on divergence — minimizes, dumps an artifact, and panics
/// with reproduction instructions. The corpus test is a loop over
/// this.
pub fn check_agg_seed(seed: u64, cfg: &workload::ops::GenConfig) -> AggReport {
    let schedule = Schedule::generate(seed, cfg);
    match run_agg_schedule(&schedule) {
        Ok(report) => report,
        Err(divergence) => {
            let where_to = match minimize_agg(&schedule) {
                Some((min, min_divergence, artifact)) => format!(
                    "minimized to {} ops, artifact: {} ({min_divergence})",
                    min.ops.len(),
                    artifact.display()
                ),
                None => "failure did not reproduce under minimization".to_string(),
            };
            panic!(
                "merge oracle divergence: seed {seed}: {divergence}\n{where_to}\n\
                 replay: AOSI_AGG_SEEDS={seed} cargo test -p oracle --test agg_oracle"
            );
        }
    }
}
