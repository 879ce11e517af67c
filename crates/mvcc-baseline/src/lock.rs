//! A shared/exclusive lock manager: the 2PL baseline.
//!
//! The paper's Section I contrast: pessimistic protocols "lock the
//! data item being updated in such a way to stall and serialize all
//! subsequent accesses, thus sacrificing performance and causing data
//! contention". This is a classic lock table — one entry per resource
//! (partition, in the benchmarks), shared mode for scans, exclusive
//! for loads/deletes — used by the harness to measure exactly that
//! stall against AOSI's lock-free path.
//!
//! Deadlock handling is *wait-die*: an older transaction (smaller id)
//! waits for a younger holder, a younger requester dies immediately
//! and must retry. This keeps the table simple and is the behaviour
//! the 2PL benchmarks report as aborts.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

use obs::sync::unpoison;

/// Lock compatibility mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

#[derive(Default)]
struct ResourceLock {
    /// Holders in shared mode.
    sharers: HashSet<u64>,
    /// Holder in exclusive mode.
    exclusive: Option<u64>,
}

impl ResourceLock {
    fn compatible(&self, txn: u64, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.exclusive.is_none_or(|x| x == txn),
            LockMode::Exclusive => {
                self.exclusive.is_none_or(|x| x == txn) && self.sharers.iter().all(|&s| s == txn)
            }
        }
    }

    fn grant(&mut self, txn: u64, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                self.sharers.insert(txn);
            }
            LockMode::Exclusive => {
                // Upgrade path: drop our shared hold, take exclusive.
                self.sharers.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }

    /// The youngest (largest-id) current holder other than `txn`, for
    /// the wait-die test.
    fn youngest_other_holder(&self, txn: u64) -> Option<u64> {
        self.sharers
            .iter()
            .copied()
            .chain(self.exclusive)
            .filter(|&h| h != txn)
            .max()
    }

    fn is_free(&self) -> bool {
        self.sharers.is_empty() && self.exclusive.is_none()
    }
}

#[derive(Default)]
struct TableState {
    resources: HashMap<u64, ResourceLock>,
    /// Resources held per transaction, for `release_all`.
    held: HashMap<u64, HashSet<u64>>,
}

/// A process-wide lock table.
#[derive(Clone, Default)]
pub struct LockManager {
    state: Arc<Mutex<TableState>>,
    released: Arc<Condvar>,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires `resource` in `mode` for `txn`, blocking while
    /// incompatible holders exist. Returns `false` if wait-die kills
    /// the request (a younger transaction would wait on an older
    /// holder): the caller must abort and retry.
    pub fn acquire(&self, txn: u64, resource: u64, mode: LockMode) -> bool {
        let mut st = unpoison(self.state.lock());
        loop {
            let lock = st.resources.entry(resource).or_default();
            if lock.compatible(txn, mode) {
                lock.grant(txn, mode);
                st.held.entry(txn).or_default().insert(resource);
                return true;
            }
            // Wait-die: only wait on younger holders if we are older.
            if let Some(youngest) = lock.youngest_other_holder(txn) {
                if txn > youngest {
                    return false;
                }
            }
            st = unpoison(self.released.wait(st));
        }
    }

    /// Non-blocking acquire.
    pub fn try_acquire(&self, txn: u64, resource: u64, mode: LockMode) -> bool {
        let mut st = unpoison(self.state.lock());
        let lock = st.resources.entry(resource).or_default();
        if lock.compatible(txn, mode) {
            lock.grant(txn, mode);
            st.held.entry(txn).or_default().insert(resource);
            true
        } else {
            false
        }
    }

    /// Releases every lock `txn` holds (the "shrinking phase" done in
    /// one shot at commit/abort, i.e. strict 2PL).
    pub fn release_all(&self, txn: u64) {
        let mut st = unpoison(self.state.lock());
        let Some(resources) = st.held.remove(&txn) else {
            return;
        };
        for r in resources {
            if let Some(lock) = st.resources.get_mut(&r) {
                lock.sharers.remove(&txn);
                if lock.exclusive == Some(txn) {
                    lock.exclusive = None;
                }
                if lock.is_free() {
                    st.resources.remove(&r);
                }
            }
        }
        drop(st);
        self.released.notify_all();
    }

    /// Number of resources currently locked (instrumentation).
    pub fn locked_resources(&self) -> usize {
        unpoison(self.state.lock()).resources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        assert!(lm.acquire(1, 100, LockMode::Shared));
        assert!(lm.acquire(2, 100, LockMode::Shared));
        assert_eq!(lm.locked_resources(), 1);
        lm.release_all(1);
        lm.release_all(2);
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn exclusive_excludes_shared_and_exclusive() {
        let lm = LockManager::new();
        assert!(lm.acquire(1, 100, LockMode::Exclusive));
        assert!(!lm.try_acquire(2, 100, LockMode::Shared));
        assert!(!lm.try_acquire(2, 100, LockMode::Exclusive));
        lm.release_all(1);
        assert!(lm.try_acquire(2, 100, LockMode::Shared));
    }

    #[test]
    fn same_txn_reacquires_freely() {
        let lm = LockManager::new();
        assert!(lm.acquire(1, 5, LockMode::Shared));
        assert!(lm.acquire(1, 5, LockMode::Exclusive), "self-upgrade");
        assert!(lm.acquire(1, 5, LockMode::Shared));
        lm.release_all(1);
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn wait_die_kills_younger_requester() {
        let lm = LockManager::new();
        assert!(lm.acquire(1, 9, LockMode::Exclusive));
        // Txn 2 is younger than holder 1: dies instead of waiting.
        assert!(!lm.acquire(2, 9, LockMode::Exclusive));
        lm.release_all(1);
        assert!(lm.acquire(2, 9, LockMode::Exclusive));
    }

    #[test]
    fn older_requester_waits_for_release() {
        let lm = LockManager::new();
        assert!(lm.acquire(5, 7, LockMode::Exclusive));
        let lm2 = lm.clone();
        let acquired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&acquired);
        let handle = std::thread::spawn(move || {
            // Txn 3 is older than holder 5: blocks until release.
            assert!(lm2.acquire(3, 7, LockMode::Exclusive));
            flag.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!acquired.load(Ordering::SeqCst), "must still be blocked");
        lm.release_all(5);
        handle.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
    }

    #[test]
    fn release_all_is_idempotent_for_unknown_txn() {
        let lm = LockManager::new();
        lm.release_all(42);
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn independent_resources_do_not_interfere() {
        let lm = LockManager::new();
        assert!(lm.acquire(1, 1, LockMode::Exclusive));
        assert!(lm.acquire(2, 2, LockMode::Exclusive));
        assert_eq!(lm.locked_resources(), 2);
    }
}
