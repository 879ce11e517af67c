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
//! partials via [`Deliver::BrickPartials`], then re-merges them
//! through seeded random partitions into chunks, shuffled chunk
//! orders, random binary merge trees, and interleaved identity
//! states, and demands each finalization agree with
//! [`Engine::query_at_reference`] through `f64::to_bits`.
//!
//! The [`Agg`] harness runs on the shared executor and framework, so
//! failures shrink and dump artifacts like every other harness.
//!
//! The meta-tests in `tests/agg_oracle.rs` prove the teeth: a
//! two-chunk AVG workload that a mean-of-means merge would get wrong,
//! and deliberately corrupted memo entries
//! ([`cubrick::fault::FaultHooks::corrupt_memo`]) that the differential compare
//! must catch.

use aosi::Snapshot;
use cubrick::{At, Deliver, Engine, PartialResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::ops::{Schedule, ORACLE_CUBE};

use crate::framework::{Failure, Harness};
use crate::scan::{build_scan_query, diff_bits, run_self_check, scan_engine, NUM_SCAN_QUERIES};

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
/// (commutativity), and `PLANS_PER_QUERY` seeded
/// partition/shuffle/association draws. Returns (comparisons,
/// partials folded) on agreement.
pub fn compare_merges(
    engine: &Engine,
    snapshot: &Snapshot,
    op_index: Option<usize>,
    label: &str,
    rng: &mut StdRng,
) -> Result<(u64, u64), Failure> {
    let mut comparisons = 0u64;
    let mut folded = 0u64;
    for idx in 0..NUM_SCAN_QUERIES {
        let query = build_scan_query(idx);
        let reference = engine
            .query_at_reference(ORACLE_CUBE, &query, snapshot)
            .map_err(|e| Failure::at(op_index, format!("{label} q{idx} reference failed: {e}")))?;
        let mut partials = Vec::new();
        let deliver = Deliver::BrickPartials(&mut partials);
        engine
            .read(ORACLE_CUBE, &query, At::Snapshot(snapshot), deliver)
            .map_err(|e| Failure::at(op_index, format!("{label} q{idx} partials failed: {e}")))?;
        folded += partials.len() as u64;
        let mut check = |plan: &str, merged: PartialResult| -> Result<(), Failure> {
            let finalized = engine
                .finalize_partials(ORACLE_CUBE, &query, std::iter::once(merged))
                .map_err(|e| {
                    Failure::at(op_index, format!("{label} q{idx} finalize failed: {e}"))
                })?;
            comparisons += 1;
            if let Some(d) = diff_bits(&finalized, &reference) {
                return Err(Failure::at(
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

/// The merge-algebra harness (`harness agg`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg;

impl Harness for Agg {
    type Report = AggReport;

    fn name(&self) -> &'static str {
        "agg"
    }

    /// Executes `schedule` against a parallel+memoized engine,
    /// checking the merge algebra at every checkpoint, then sweeps the
    /// full readable window twice (the second pass draws fresh
    /// re-merge plans over the same per-brick partials, which never
    /// come from the memo).
    fn run(&self, schedule: &Schedule) -> Result<AggReport, Failure> {
        let mut rng = StdRng::seed_from_u64(schedule.seed ^ 0xa66_0c1e_5eed_0002);
        let mut partials_folded = 0;
        let x = run_self_check(schedule, scan_engine(), 2, |engine, snapshot, i, label| {
            let (comparisons, folded) = compare_merges(engine, snapshot, i, label, &mut rng)?;
            partials_folded += folded;
            Ok(comparisons)
        })?;
        Ok(AggReport {
            ops_executed: schedule.ops.len(),
            comparisons: x.comparisons,
            partials_folded,
        })
    }

    fn target(&self) -> &'static str {
        "agg_oracle"
    }
}
