//! Tier-1 smoke coverage for the crash-consistency torture harness:
//! two seeds through the full four-phase torture (boundary census,
//! one simulated power cut per write syscall, hole probe, bit-flip
//! probes), so `cargo test -q` at the repo root proves the paper's
//! durability rule — recovery restores exactly a complete flushed
//! prefix — end to end. The full pinned corpus (40 seeds plus the
//! injected-bug meta-tests) lives in
//! `crates/oracle/tests/crash_torture.rs` and runs via
//! `cargo test -p oracle --test crash_torture` (CI's `torture` matrix
//! job).

use oracle::{check_seed, Torture, CRASH_GEN};

#[test]
fn crash_torture_smoke() {
    for seed in [301u64, 326] {
        let report = check_seed(&Torture::crash(), seed, &CRASH_GEN);
        assert!(
            report.crash_points >= 4,
            "seed {seed} enumerated only {} boundaries",
            report.crash_points
        );
        assert!(report.rounds_flushed >= 1, "seed {seed} never flushed");
        assert!(report.comparisons > 0, "seed {seed} compared nothing");
    }
}
