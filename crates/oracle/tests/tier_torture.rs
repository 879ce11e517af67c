//! The pinned tiered-storage torture corpus: each seed runs the full
//! tier torture (census with forced evict/reload cycles, one power
//! cut per mutating syscall — spill writes included — and the
//! snapshot media probes), plus the `AOSI_SEEDS` hook.
//!
//! A red run here means a crash boundary exists from which recovery
//! does not restore a complete flushed prefix without help from
//! snapshot files, or that damaged snapshot media was served instead
//! of failing typed. The failing schedule is minimized and dumped
//! automatically; rerun it with
//! `AOSI_SEEDS=<seed> cargo test -p oracle --test tier_torture env_seeds`
//! or replay the artifact with
//! `AOSI_REPLAY=<file> cargo test -p oracle --test corpus env_replay`.

use oracle::{check_seed, seeds, Torture, TIER_GEN};

/// 12 pinned seeds (the tier torture multiplies each schedule by a
/// larger syscall count than the crash torture, so the corpus is
/// smaller per-seed but must still cover the interesting shapes:
/// mid-schedule flushes, spill-then-reload cycles, media probes).
#[test]
fn pinned_tier_corpus() {
    let mut crash_points = 0u64;
    let mut spills = 0u64;
    let mut reloads = 0u64;
    let mut media_probes = 0usize;
    let mut multi_round_seeds = 0u32;
    for seed in 501..=512u64 {
        let report = check_seed(&Torture::tier(), seed, &TIER_GEN);
        assert!(
            report.crash_points >= 8,
            "seed {seed} enumerated only {} boundaries",
            report.crash_points
        );
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
        assert!(
            report.spills >= 1 && report.reloads >= 1,
            "seed {seed} never cycled a brick through the cold tier \
             (spills {}, reloads {})",
            report.spills,
            report.reloads
        );
        assert!(
            report.recoveries >= 2 + report.crash_points,
            "seed {seed}: {} recoveries for {} boundaries",
            report.recoveries,
            report.crash_points
        );
        crash_points += report.crash_points;
        spills += report.spills;
        reloads += report.reloads;
        media_probes += report.media_probes;
        if report.rounds_flushed >= 2 {
            multi_round_seeds += 1;
        }
    }
    assert!(
        multi_round_seeds >= 3,
        "only {multi_round_seeds}/12 seeds flushed more than one round"
    );
    assert!(
        media_probes >= 12,
        "most seeds should damage at least one snapshot, got {media_probes} probes"
    );
    eprintln!(
        "tier corpus: 12 seeds, {crash_points} boundaries cut, \
         {spills} spills, {reloads} reloads, {media_probes} media probes"
    );
}

/// `AOSI_SEEDS=7,99` runs extra seeds through the tier torture (the
/// nightly sweep and the red-CI rerun path).
#[test]
fn env_seeds() {
    for seed in seeds(&[]) {
        let report = check_seed(&Torture::tier(), seed, &TIER_GEN);
        eprintln!(
            "tier seed {seed}: {} boundaries clean ({} spills, {} reloads, \
             {} comparisons)",
            report.crash_points, report.spills, report.reloads, report.comparisons
        );
    }
}
