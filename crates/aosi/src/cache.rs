//! Counters for snapshot-keyed memoization.
//!
//! Anything derived purely from a partition's content and a settled
//! snapshot `(epoch, deps)` never changes, so identical reads can share
//! one materialization without any invalidation protocol. Cubrick's
//! per-shard snapshot memo is the one client; this module holds the
//! point-in-time view of its counters that reports and benches read.

/// Point-in-time memo statistics, for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a memoized value.
    pub hits: u64,
    /// Lookups that had to materialize the value.
    pub misses: u64,
    /// Entries removed because their partition was dropped or written
    /// under old epochs.
    pub invalidations: u64,
    /// Entries removed by the capacity bound or because no legal
    /// reader can ask for them any more.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
}
