//! Tier-1 smoke coverage for the differential oracle: one seed per
//! execution mode, so `cargo test -q` at the repo root exercises the
//! AOSI-vs-MVCC equivalence machinery end to end. The full pinned
//! corpus (40 seeds) lives in `crates/oracle/tests/corpus.rs` and
//! runs via `cargo test -p oracle --test corpus` (CI's `torture`
//! matrix job).

use oracle::{check_seed, Differential, Mode};
use workload::ops::{GenConfig, Schedule};

#[test]
fn oracle_deterministic_smoke() {
    let report = check_seed(
        &Differential::new(Mode::Deterministic),
        1,
        &GenConfig::default(),
    );
    assert!(report.comparisons > 0);
    assert!(report.checker_events > 0);
}

#[test]
fn oracle_stress_smoke() {
    let report = check_seed(&Differential::new(Mode::Stress), 101, &GenConfig::default());
    assert!(report.comparisons > 0);
}

#[test]
fn oracle_crash_recovery_smoke() {
    let len = Schedule::generate(201, &GenConfig::default()).ops.len();
    let report = check_seed(
        &Differential::new(Mode::Crash { crash_at: len / 2 }),
        201,
        &GenConfig::default(),
    );
    assert!(report.comparisons > 0);
}
