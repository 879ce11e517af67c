//! Persistence and durability (Section III-D).
//!
//! "In-memory OLAP databases maintain persistency and ensure
//! durability by using two basic mechanisms: (a) disk flushes and
//! (b) replication." This crate implements the disk half and wires
//! the replication half ([`cluster::ReplicationTracker`]) into LSE
//! advancement:
//!
//! * [`codec`] — a self-delimiting binary format for flush rounds,
//!   with a checksummed completion footer so recovery can detect and
//!   ignore partial flushes.
//! * [`FlushController`] — runs flush rounds: picks a candidate
//!   `LSE'`, exports every brick's runs in `(LSE, LSE']`, writes one
//!   round file, and — once every replica reports the epoch durable —
//!   advances the node's LSE so purge may reclaim history. "No
//!   transactional history needs to be flushed to disk": only the
//!   current LSE rides in each round header.
//! * [`recovery`] — replays complete rounds in order, "ignoring any
//!   subsequent partial flush executions that might be found on
//!   disk", and validating the round chain (contiguous sequence
//!   numbers, each round's `lse` continuing the previous `lse_prime`).
//! * [`fault`] — the filesystem shim every durability syscall goes
//!   through: [`fault::RealFs`] in production, [`fault::SimFs`] (a
//!   deterministic in-memory filesystem with power-cut simulation)
//!   under the crash torture harness in `oracle::torture`.

mod chain;
pub mod codec;
pub mod fault;
mod flush;
pub mod recovery;
pub mod tier;
pub mod verify;

pub use codec::{DictDelta, FlushRound, WalError};
pub use fault::{is_power_cut, RealFs, SimFs, WalFs};
pub use flush::{FlushController, FlushOutcome, TempWalDir};
pub use recovery::{recover_into, recover_into_with, RecoveryReport};
pub use tier::WalBrickStore;
pub use verify::{verify_dir, RoundReport, RoundStatus, VerifyReport};
