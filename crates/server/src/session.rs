//! Session-scoped snapshot pinning.
//!
//! A session is a named epoch pin: `POST /session/pin` takes an AOSI
//! [`ReadGuard`] on the requested epoch, and every subsequent
//! `/query` on that session reads `AS OF` the pinned epoch unless the
//! statement carries its own explicit `AS OF`. The guard matters, not
//! just the number — a registered guard participates in the LSE
//! advance protocol, so purge can never reclaim a pinned epoch out
//! from under the session (the paper's read-stability contract,
//! stretched across requests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use aosi::{ReadGuard, Snapshot};
use cubrick::Engine;

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The session id is unknown (expired, closed, or never issued).
    Unknown(u64),
    /// The requested pin epoch is outside the readable window.
    EpochOutOfRange {
        /// Requested epoch.
        requested: u64,
        /// Purge floor at the time of the request.
        lse: u64,
        /// Freshest committed epoch at the time of the request.
        lce: u64,
    },
    /// The registry is at capacity.
    TooManySessions,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unknown(id) => write!(f, "unknown session {id}"),
            SessionError::EpochOutOfRange {
                requested,
                lse,
                lce,
            } => write!(
                f,
                "epoch {requested} outside readable window [{lse}, {lce}]"
            ),
            SessionError::TooManySessions => write!(f, "session table full"),
        }
    }
}

struct Session {
    /// The pin: holding the `ReadGuard` keeps the epoch readable.
    pin: Option<(u64, ReadGuard)>,
}

/// All live sessions. One per server.
pub struct SessionRegistry {
    sessions: Mutex<HashMap<u64, Session>>,
    next_id: AtomicU64,
    capacity: usize,
}

impl SessionRegistry {
    /// An empty registry holding at most `capacity` sessions.
    pub fn new(capacity: usize) -> Self {
        SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            capacity,
        }
    }

    /// Opens a session, returning its id.
    pub fn open(&self) -> Result<u64, SessionError> {
        let mut sessions = self.sessions.lock().unwrap();
        if sessions.len() >= self.capacity {
            return Err(SessionError::TooManySessions);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(id, Session { pin: None });
        Ok(id)
    }

    /// Pins `session` to `epoch` (or to the freshest committed epoch
    /// when `epoch` is `None`), replacing any previous pin. Returns
    /// the epoch actually pinned.
    ///
    /// The freshest epoch is sampled by
    /// [`aosi::TxnManager::begin_read`], under the lock the LSE advance
    /// holds, so it is always in the window. An explicit epoch is
    /// guarded *before* the window check — the same TOCTOU-safe order
    /// the engine itself uses — so a concurrent purge between check
    /// and registration cannot invalidate a pin that validated.
    pub fn pin(
        &self,
        engine: &Engine,
        session: u64,
        epoch: Option<u64>,
    ) -> Result<u64, SessionError> {
        let manager = engine.manager();
        let guard = match epoch {
            None => manager.begin_read(),
            Some(epoch) => {
                let guard = manager.guard_snapshot(Snapshot::committed(epoch));
                let (lse, lce) = (manager.lse(), manager.lce());
                if epoch < lse || epoch > lce {
                    return Err(SessionError::EpochOutOfRange {
                        requested: epoch,
                        lse,
                        lce,
                    });
                }
                guard
            }
        };
        let epoch = guard.snapshot().epoch();
        let mut sessions = self.sessions.lock().unwrap();
        let entry = sessions
            .get_mut(&session)
            .ok_or(SessionError::Unknown(session))?;
        entry.pin = Some((epoch, guard));
        Ok(epoch)
    }

    /// The session's pinned epoch, if any. Errors on unknown ids so
    /// clients learn their session died rather than silently reading
    /// fresh data.
    pub fn pinned_epoch(&self, session: u64) -> Result<Option<u64>, SessionError> {
        let sessions = self.sessions.lock().unwrap();
        sessions
            .get(&session)
            .map(|s| s.pin.as_ref().map(|(epoch, _)| *epoch))
            .ok_or(SessionError::Unknown(session))
    }

    /// Closes a session, dropping its pin (and the read guard with
    /// it, which lets LSE advance past the pinned epoch).
    pub fn close(&self, session: u64) -> Result<(), SessionError> {
        let mut sessions = self.sessions.lock().unwrap();
        sessions
            .remove(&session)
            .map(|_| ())
            .ok_or(SessionError::Unknown(session))
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use cubrick::{At, Deliver};

    use super::*;

    fn engine_with_rows(epochs: u64) -> Engine {
        let engine = Engine::new(1);
        cubrick::sql::execute(&engine, "CREATE CUBE s (k INT DIM(8, 2), v INT METRIC)").unwrap();
        for i in 0..epochs {
            cubrick::sql::execute(&engine, &format!("INSERT INTO s VALUES ({}, 1)", i % 8))
                .unwrap();
        }
        engine
    }

    #[test]
    fn open_pin_query_close() {
        let engine = engine_with_rows(3);
        let reg = SessionRegistry::new(8);
        let id = reg.open().unwrap();
        assert_eq!(reg.pinned_epoch(id).unwrap(), None);
        let pinned = reg.pin(&engine, id, Some(2)).unwrap();
        assert_eq!(pinned, 2);
        assert_eq!(reg.pinned_epoch(id).unwrap(), Some(2));
        // Default pin = freshest committed epoch.
        let pinned = reg.pin(&engine, id, None).unwrap();
        assert_eq!(pinned, engine.manager().lce());
        reg.close(id).unwrap();
        assert!(matches!(
            reg.pinned_epoch(id),
            Err(SessionError::Unknown(_))
        ));
    }

    #[test]
    fn pin_blocks_purge_of_pinned_epoch() {
        let engine = engine_with_rows(4);
        let reg = SessionRegistry::new(8);
        let id = reg.open().unwrap();
        reg.pin(&engine, id, Some(2)).unwrap();
        // Purge may advance LSE up to — but not past — the pin.
        engine.advance_lse_and_purge();
        assert!(engine.manager().lse() <= 2, "pin must hold the LSE back");
        let count = cubrick::Aggregation::new(cubrick::AggFn::Count, "v");
        let query = cubrick::Query::aggregate(vec![count]);
        let result = engine.read("s", &query, At::Epoch(2), Deliver::Final);
        assert!(result.is_ok(), "pinned epoch stays readable: {result:?}");
        // Closing the session releases the pin; purge can proceed.
        reg.close(id).unwrap();
        engine.advance_lse_and_purge();
        assert_eq!(engine.manager().lse(), engine.manager().lce());
    }

    /// Regression: a fresh pin used to sample the LCE and guard it
    /// after, so an LSE advance in between left the sample below the
    /// window and the server answered a spurious 422. Each pin is on a
    /// fresh session: a re-pinned session's old guard holds the LSE
    /// back and hides the race.
    #[test]
    fn a_fresh_pin_is_never_out_of_range() {
        let engine = Arc::new(engine_with_rows(1));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cubrick::sql::execute(&engine, "INSERT INTO s VALUES (1, 1)").unwrap();
                    let _ = engine.manager().advance_lse(engine.manager().lce());
                }
            })
        };
        let reg = SessionRegistry::new(1);
        let deadline = Instant::now() + Duration::from_secs(2);
        let (mut pinned, mut refused) = (0u64, 0u64);
        while Instant::now() < deadline {
            let id = reg.open().unwrap();
            match reg.pin(&engine, id, None) {
                Ok(_) => pinned += 1,
                Err(SessionError::EpochOutOfRange { .. }) => refused += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
            reg.close(id).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(pinned > 0);
        assert_eq!(
            refused,
            0,
            "{refused} of {} fresh pins refused",
            pinned + refused
        );
    }

    #[test]
    fn out_of_window_pin_is_rejected() {
        let engine = engine_with_rows(2);
        let reg = SessionRegistry::new(8);
        let id = reg.open().unwrap();
        assert!(matches!(
            reg.pin(&engine, id, Some(99)),
            Err(SessionError::EpochOutOfRange { requested: 99, .. })
        ));
    }

    #[test]
    fn capacity_is_enforced() {
        let reg = SessionRegistry::new(1);
        reg.open().unwrap();
        assert!(matches!(reg.open(), Err(SessionError::TooManySessions)));
    }
}
