//! Poison-free locking over `std::sync`.
//!
//! A std lock is poisoned when a thread panics while holding it. The
//! engine does not treat that as fatal: the shard pool catches a
//! panicking task and keeps its thread serving, so a lock the task
//! held must stay usable for the next one. The data behind it is
//! whatever the panicking thread left; isolating such partial writes
//! is the transaction layer's job, not the lock's.

use std::sync::{LockResult, PoisonError};

/// The guard (or value) inside a lock result, poisoned or not:
/// `unpoison(mutex.lock())`, `unpoison(rwlock.read())`,
/// `unpoison(condvar.wait(guard))`.
pub fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let outcome = std::thread::spawn(move || {
            let mut guard = unpoison(m2.lock());
            *guard += 1;
            panic!("poison the mutex");
        })
        .join();
        assert!(outcome.is_err());
        assert!(m.is_poisoned());
        // The lock stays usable and keeps the panicking thread's write.
        *unpoison(m.lock()) += 1;
        assert_eq!(*unpoison(m.lock()), 2);
    }

    #[test]
    fn poisoned_rwlock_recovers_for_readers_and_writers() {
        let l = Arc::new(RwLock::new(vec![1]));
        let l2 = Arc::clone(&l);
        let outcome = std::thread::spawn(move || {
            let mut guard = unpoison(l2.write());
            guard.push(2);
            panic!("poison the rwlock");
        })
        .join();
        assert!(outcome.is_err());
        assert!(l.is_poisoned());
        assert_eq!(*unpoison(l.read()), vec![1, 2]);
        unpoison(l.write()).push(3);
        assert_eq!(*unpoison(l.read()), vec![1, 2, 3]);
    }
}
