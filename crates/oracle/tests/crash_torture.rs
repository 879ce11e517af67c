//! The pinned crash-torture corpus: 40 seeds, each run through the
//! full four-phase torture (boundary census, one power cut per write
//! syscall, hole probe, bit-flip probes), plus the `AOSI_SEEDS` hook
//! and the four injected-bug meta-tests.
//!
//! A red run here means a crash boundary exists from which recovery
//! does not restore exactly a complete flushed prefix. The failing
//! schedule is minimized and dumped automatically; rerun it with
//! `AOSI_SEEDS=<seed> cargo test -p oracle --test crash_torture env_seeds`
//! or replay the artifact with
//! `AOSI_REPLAY=<file> cargo test -p oracle --test corpus env_replay`.

use std::panic::AssertUnwindSafe;

use oracle::{artifact_dir, check_seed, replay, seeds, BugHooks, Harness, Torture, CRASH_GEN};
use workload::ops::Schedule;

fn with_bugs(bugs: BugHooks) -> Torture {
    Torture {
        bugs,
        ..Torture::crash()
    }
}

/// 40 pinned seeds. Every mutating syscall of every seed's census run
/// becomes one simulated power cut; the corpus as a whole must cover
/// multi-round chains (several flushes back to back), hole probes,
/// and bit-flip probes.
#[test]
fn pinned_crash_corpus() {
    let mut multi_round_seeds = 0u32;
    let mut hole_probes = 0usize;
    let mut bitflip_probes = 0usize;
    let mut crash_points = 0u64;
    for seed in 301..=340u64 {
        let report = check_seed(&Torture::crash(), seed, &CRASH_GEN);
        assert!(
            report.crash_points >= 4,
            "seed {seed} enumerated only {} boundaries",
            report.crash_points
        );
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
        assert!(
            report.recoveries >= 2 + 2 * report.crash_points,
            "seed {seed}: {} recoveries for {} boundaries",
            report.recoveries,
            report.crash_points
        );
        if report.rounds_flushed >= 2 {
            multi_round_seeds += 1;
        }
        hole_probes += report.hole_probes;
        bitflip_probes += report.bitflip_probes;
        crash_points += report.crash_points;
    }
    // The acceptance bar: the corpus tortures multi-round workloads,
    // not just a single terminal flush.
    assert!(
        multi_round_seeds >= 10,
        "only {multi_round_seeds}/40 seeds flushed more than one round"
    );
    assert!(hole_probes >= 1, "no seed was deep enough for a hole probe");
    assert!(bitflip_probes >= 1, "no bit-flip probe landed");
    eprintln!(
        "crash corpus: 40 seeds, {crash_points} boundaries cut, \
         {hole_probes} hole probes, {bitflip_probes} bit-flip probes"
    );
    // Parity: a refactor of the engine or WAL leaves the corpus
    // exactly this shape. A change that moves it on purpose states the
    // new totals here.
    assert_eq!(
        (crash_points, hole_probes, bitflip_probes),
        (424, 18, 160),
        "crash corpus totals (boundaries, hole probes, bit-flip probes)"
    );
}

/// `AOSI_SEEDS=7,99` runs extra seeds through the torture (the
/// nightly sweep and the red-CI rerun path).
#[test]
fn env_seeds() {
    for seed in seeds(&[]) {
        let report = check_seed(&Torture::crash(), seed, &CRASH_GEN);
        eprintln!(
            "crash seed {seed}: {} boundaries clean ({} comparisons)",
            report.crash_points, report.comparisons
        );
    }
}

// ---------------------------------------------------------------
// Injected-bug meta-tests: each of the four fixed durability bugs,
// re-introduced behind its test hook, must be caught by the harness.
// This is the proof the torture detects the class of bug it exists
// for.
// ---------------------------------------------------------------

/// Bug 1 — the restart clobber: a controller reopened after a crash
/// restarts its file sequence at zero, overwriting `round-00000000`
/// and stranding the rest of the old chain behind an lse break. A
/// single-round chain clobbered by a full re-flush is legitimately
/// indistinguishable from a correct resume, so the detector is
/// probabilistic across seeds: some seed with a multi-round chain
/// must trip it.
#[test]
fn injected_restart_clobber_is_caught() {
    let bugs = BugHooks {
        restart_clobber: true,
        ..Default::default()
    };
    let caught = (301..=308u64).any(|seed| {
        let schedule = Schedule::generate(seed, &CRASH_GEN);
        with_bugs(bugs).run(&schedule).is_err()
    });
    assert!(caught, "a clobbering restart survived the torture");
}

/// Bugs 1+2 together — the pre-fix pairing: the clobbering restart
/// writes an inconsistent chain and gap-blind recovery replays it
/// anyway. With chain validation off the structural detector is
/// disarmed, so this must be caught the hard way: replayed duplicate
/// history diverges from the committed reference.
#[test]
fn injected_clobber_with_blind_recovery_is_caught() {
    let bugs = BugHooks {
        restart_clobber: true,
        skip_chain_validation: true,
        ..Default::default()
    };
    let caught = (301..=308u64).any(|seed| {
        let schedule = Schedule::generate(seed, &CRASH_GEN);
        with_bugs(bugs).run(&schedule).is_err()
    });
    assert!(caught, "clobber + gap-blind recovery survived the torture");
}

/// Bug 2 — gap-blind recovery: with chain validation off, a missing
/// middle round must still be caught, now by content (the hole-probe
/// sweep sees post-hole rows with pre-hole history missing). Needs a
/// seed deep enough (>= 3 rounds) for the hole probe to run, hence
/// `any` over a few.
#[test]
fn injected_gap_blind_recovery_is_caught() {
    let bugs = BugHooks {
        skip_chain_validation: true,
        ..Default::default()
    };
    let caught = (301..=312u64).any(|seed| {
        let schedule = Schedule::generate(seed, &CRASH_GEN);
        match with_bugs(bugs).run(&schedule) {
            Err(fail) => {
                eprintln!("seed {seed} caught gap-blind recovery: {fail}");
                true
            }
            Ok(_) => false,
        }
    });
    assert!(caught, "gap-blind recovery survived the torture");
}

/// Bug 3 — the recovery marker commit fails: this used to be a
/// `.expect` panic deep in recovery; it must now surface as an
/// orderly typed failure naming the marker, not a panic.
#[test]
fn injected_marker_failure_is_a_typed_error_not_a_panic() {
    let bugs = BugHooks {
        fail_marker: true,
        ..Default::default()
    };
    let schedule = Schedule::generate(301, &CRASH_GEN);
    let fail = with_bugs(bugs)
        .run(&schedule)
        .expect_err("a failing marker commit must fail recovery");
    assert!(
        fail.detail.contains("marker"),
        "failure names the marker commit: {fail}"
    );
}

/// Bug 4 — the missing directory fsync: the round file's content is
/// durable but its directory entry is not, so the rename evaporates
/// on power loss. The census power-safety probe catches this
/// deterministically on any seed that flushes at all.
#[test]
fn injected_missing_dir_sync_is_caught() {
    let bugs = BugHooks {
        skip_dir_sync: true,
        ..Default::default()
    };
    let schedule = Schedule::generate(301, &CRASH_GEN);
    let fail = with_bugs(bugs)
        .run(&schedule)
        .expect_err("volatile directory entries must fail the power-safety probe");
    assert!(
        fail.detail.contains("power-safe"),
        "failure names the power-safety probe: {fail}"
    );
}

/// The full red-run pipeline on an injected bug: `check_seed` panics
/// with reproduction instructions, the minimized artifact is written
/// with the bug tags in its header, and replaying the artifact
/// reproduces the failure standalone.
#[test]
fn injected_bug_minimizes_to_a_replayable_artifact() {
    let bugs = BugHooks {
        skip_dir_sync: true,
        ..Default::default()
    };
    let torture = with_bugs(bugs);
    let seed = 301u64;
    let panic_msg =
        std::panic::catch_unwind(AssertUnwindSafe(|| check_seed(&torture, seed, &CRASH_GEN)))
            .expect_err("an injected bug must panic the seed check");
    let panic_msg = panic_msg
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        panic_msg.contains(&format!("AOSI_SEEDS={seed}")),
        "panic carries reproduction instructions: {panic_msg}"
    );

    let artifact = artifact_dir().join(format!("crash-seed{seed}-skip-dir-sync.seed"));
    assert!(
        artifact.exists(),
        "minimized artifact written to {}",
        artifact.display()
    );
    let fail = replay(&artifact).expect_err("artifact still reproduces");
    assert!(
        fail.detail.contains("power-safe"),
        "replayed failure: {fail}"
    );
}
