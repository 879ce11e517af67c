//! The three environment hooks every seeded suite reads, and nothing
//! else reads them:
//!
//! * `AOSI_SEEDS=7,99` — seeds to run. The oracle corpora run them
//!   through their `env_seeds` tests on top of the pinned corpus; the
//!   root chaos and elastic suites run them instead of their default
//!   list.
//! * `AOSI_REPLAY=a.seed,b.seed` — artifacts to replay through
//!   [`crate::replay`] (`cargo test -p oracle --test corpus env_replay`).
//! * `AOSI_ARTIFACT_DIR=dir` — where failing runs write artifacts
//!   (defaults to `$TMPDIR/aosi-oracle-seeds`).

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use workload::ops::Schedule;

use crate::framework::write_artifact;

/// Parses a seed list (comma- or whitespace-separated). `None` or an
/// empty list gives `default`.
///
/// # Panics
///
/// On any token that is not a `u64`, naming it: a typo must not
/// silently run other seeds than the ones asked for.
fn parse_seeds(spec: Option<&str>, default: &[u64]) -> Vec<u64> {
    let seeds: Vec<u64> = spec
        .unwrap_or("")
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|token| !token.is_empty())
        .map(|token| {
            token
                .parse()
                .unwrap_or_else(|e| panic!("bad seed {token:?} in AOSI_SEEDS: {e}"))
        })
        .collect();
    if seeds.is_empty() {
        default.to_vec()
    } else {
        seeds
    }
}

/// The `AOSI_SEEDS` list, or `default` when it is unset or empty.
pub fn seeds(default: &[u64]) -> Vec<u64> {
    parse_seeds(std::env::var("AOSI_SEEDS").ok().as_deref(), default)
}

/// The `AOSI_REPLAY` artifact paths (none when unset).
pub fn replay_paths() -> Vec<PathBuf> {
    std::env::var("AOSI_REPLAY")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|path| !path.is_empty())
        .map(PathBuf::from)
        .collect()
}

/// Where artifacts are written: `AOSI_ARTIFACT_DIR` if set (CI points
/// it at its upload path), else a stable directory under the system
/// temp dir.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("AOSI_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("aosi-oracle-seeds"))
}

/// Runs `f` once per seed of [`seeds`]`(default)` for a suite that
/// does not execute `workload::ops` schedules. A panicking seed first
/// writes a `harness <harness>` artifact naming `test` and the seed,
/// with the command that reruns it; then the seed's own panic resumes
/// so the test still fails with it (an artifact that cannot be written
/// is only reported).
pub fn for_each_seed(harness: &str, test: &str, default: &[u64], f: impl Fn(u64)) {
    for seed in seeds(default) {
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| f(seed))) {
            let rerun = format!("AOSI_SEEDS={seed} cargo test --test {harness}_cluster {test}");
            let artifact = write_artifact(
                harness,
                &[format!("test {test}")],
                &Schedule {
                    seed,
                    ops: Vec::new(),
                },
                &[format!("replay: {rerun}")],
            )
            .map_or_else(|e| format!("not written: {e}"), |p| p.display().to_string());
            eprintln!(
                "{harness} seed {seed} failed in {test}; artifact {artifact}\nrerun: {rerun}"
            );
            panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_seeds;

    #[test]
    fn seed_lists_reject_bad_tokens_and_default_when_unset() {
        for bad in ["41,x", "abc"] {
            let caught = std::panic::catch_unwind(|| parse_seeds(Some(bad), &[1, 2, 3]))
                .expect_err("a bad token must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            let token = bad.rsplit(',').next().unwrap();
            assert!(msg.contains(&format!("{token:?}")), "{bad}: {msg}");
        }
        assert_eq!(parse_seeds(None, &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(parse_seeds(Some(""), &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(parse_seeds(Some("7, 41,1337"), &[1]), vec![7, 41, 1337]);
    }
}
