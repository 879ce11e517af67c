//! The pinned differential corpus: 40 seeds across the three execution
//! modes, plus the `AOSI_SEEDS`/`AOSI_REPLAY` hooks and the
//! injected-bug meta-tests.
//!
//! A red run here means the AOSI engine and the MVCC reference
//! disagreed (or the SI checker fired). The failing seed is
//! minimized and dumped automatically; rerun it with
//! `AOSI_SEEDS=<seed> cargo test -p oracle --test corpus env_seeds` or
//! replay the dumped artifact — from any harness — with
//! `AOSI_REPLAY=<file> cargo test -p oracle --test corpus env_replay`.

use oracle::{
    check_seed, replay, replay_paths, seeds, shrink, Differential, Harness, Inject, Mode,
};
use workload::ops::{GenConfig, LogicalOp, Schedule};

fn cfg() -> GenConfig {
    GenConfig::default()
}

/// 16 deterministic seeds: every divergence here is replayable and
/// minimizable byte-for-byte.
#[test]
fn pinned_corpus_deterministic() {
    let (mut comparisons, mut checker_events) = (0u64, 0u64);
    for seed in 1..=16u64 {
        let report = check_seed(&Differential::new(Mode::Deterministic), seed, &cfg());
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
        assert!(report.checker_events > 0, "seed {seed} checked nothing");
        comparisons += report.comparisons;
        checker_events += report.checker_events;
    }
    eprintln!(
        "deterministic corpus: 16 seeds, {comparisons} comparisons, \
         {checker_events} checker events"
    );
}

/// 12 stress seeds: the same schedules as transaction-sized units on
/// a thread pool, committed reads validated post-hoc.
#[test]
fn pinned_corpus_stress() {
    for seed in 101..=112u64 {
        let report = check_seed(&Differential::new(Mode::Stress), seed, &cfg());
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
    }
}

/// 12 crash-recovery seeds: WAL flush rounds during the run, engine
/// killed at a seed-derived index, recovered from disk, equivalence
/// re-checked against the pruned log, schedule continued.
#[test]
fn pinned_corpus_crash_recovery() {
    let (mut comparisons, mut checker_events) = (0u64, 0u64);
    for seed in 201..=212u64 {
        let len = Schedule::generate(seed, &cfg()).ops.len();
        // Spread crash points across the middle of the schedule.
        let crash_at = len / 4 + (seed as usize * 7) % (len / 2);
        let report = check_seed(&Differential::new(Mode::Crash { crash_at }), seed, &cfg());
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
        comparisons += report.comparisons;
        checker_events += report.checker_events;
    }
    eprintln!(
        "crash-recovery corpus: 12 seeds, {comparisons} comparisons, \
         {checker_events} checker events"
    );
}

/// `AOSI_SEEDS=7,99` runs extra seeds through all three modes (the
/// nightly sweep and the red-CI rerun path).
#[test]
fn env_seeds() {
    for seed in seeds(&[]) {
        let len = Schedule::generate(seed, &cfg()).ops.len();
        for mode in [
            Mode::Deterministic,
            Mode::Stress,
            Mode::Crash { crash_at: len / 2 },
        ] {
            check_seed(&Differential::new(mode), seed, &cfg());
        }
        eprintln!("differential seed {seed}: all three modes clean");
    }
}

/// `AOSI_REPLAY=a.seed,b.seed` re-runs dumped artifacts of any harness
/// through the harness their `harness` line names; the test fails
/// (reproducing the failure) if any still fails.
#[test]
fn env_replay() {
    for path in replay_paths() {
        match replay(&path) {
            Ok(report) => eprintln!("replayed {} clean: {report}", path.display()),
            Err(failure) => panic!("artifact {} reproduces: {failure}", path.display()),
        }
    }
}

/// Meta-test: an intentionally injected visibility bug — committed
/// checkpoints silently reading one epoch behind the snapshot they
/// claim — must be (a) caught, (b) minimized to a small schedule,
/// and (c) dumped as an artifact that still fails on replay. This is
/// the proof the oracle detects the class of bug it exists for.
#[test]
fn injected_visibility_bug_is_caught_and_minimized() {
    let schedule = Schedule::generate(7, &GenConfig::default());
    let harness = Differential {
        mode: Mode::Deterministic,
        inject: Some(Inject::SnapshotBehind),
    };
    let divergence = harness
        .run(&schedule)
        .expect_err("a stale-snapshot read must diverge");
    assert!(
        divergence.detail.contains("epoch"),
        "divergence names the epoch: {divergence}"
    );

    let min = shrink(&harness, &schedule).expect("a deterministic failure minimizes");
    assert!(
        min.schedule.ops.len() < schedule.ops.len() / 2,
        "shrunk {} ops to {}",
        schedule.ops.len(),
        min.schedule.ops.len()
    );
    // The minimal reproduction needs data and a checkpoint — it
    // cannot be smaller than two ops.
    assert!(min.schedule.ops.len() >= 2);
    assert!(
        min.schedule
            .ops
            .iter()
            .any(|op| matches!(op, LogicalOp::CheckNow)),
        "a committed checkpoint survives minimization"
    );

    // The dumped artifact reproduces the failure standalone.
    let replayed = replay(&min.artifact).expect_err("artifact still diverges");
    assert!(
        replayed.detail.contains("epoch"),
        "replayed divergence: {replayed}"
    );
}

/// The same injected bug is also caught by the stress executor's
/// post-hoc validation (at least one of a handful of seeds must
/// trip; scheduling noise may hide it on any single one).
#[test]
fn injected_bug_caught_under_stress() {
    let harness = Differential {
        mode: Mode::Stress,
        inject: Some(Inject::SnapshotBehind),
    };
    let caught = (7..12u64).any(|seed| harness.run(&Schedule::generate(seed, &cfg())).is_err());
    assert!(caught, "stale-snapshot reads survived the stress oracle");
}
