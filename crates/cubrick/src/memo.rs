//! The per-shard snapshot memo: a shard's folded answer to a repeated
//! `(query shape, settled snapshot)`, served without touching a brick.
//!
//! A snapshot at or below the LCE is *settled*. Data is single-version
//! and append-only, the LCE rule says every epoch at or below it has
//! finished (a rollback reclaims its rows before the epoch leaves
//! `pendingTxs`), and purge is invisible to every reader the LSE still
//! admits. So the rows a settled snapshot `(E, deps)` sees on a shard
//! never change, and neither does any aggregate over them: appends,
//! partition deletes, commits, rollbacks, purges and tier spills or
//! reloads can leave an entry alone. What *can* change a settled
//! answer is a path that writes rows under old epochs or takes bricks
//! away wholesale — `drop_cube`, `remove_brick`, a handoff install and
//! a recovery import — and each of those clears its shard's entries
//! for the cube inside the shard task that does the write. Purge drops
//! the entries no legal reader can ask for any more.
//!
//! Keys compare structurally (cube name, [`AggQueryShape`], epoch,
//! full deps set), never by fingerprint: a collision would serve one
//! query's answer to another. A key is stored only on its shard's
//! second sighting; the doorkeeper remembering first sightings is a
//! fixed table of fingerprints, where a collision can only change
//! admission. Entries live under a constant byte budget with FIFO
//! eviction.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, Mutex, MutexGuard};

use aosi::{CacheStats, Epoch, Snapshot};
use obs::sync::unpoison;
use obs::ReportBuilder;

use crate::agg::AggState;
use crate::query::{AggQueryShape, PartialResult, QueryStats};
use crate::scan::ShardScanOutcome;

/// Bytes one shard's memo may hold.
pub(crate) const BUDGET_BYTES: usize = 1 << 20;

/// First-sighting fingerprints one shard remembers (8 B each).
const DOORKEEPER_SLOTS: usize = 1024;

/// Which settled answer an entry holds.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    cube: Arc<str>,
    shape: Arc<AggQueryShape>,
    epoch: Epoch,
    deps: Arc<BTreeSet<Epoch>>,
}

impl MemoKey {
    pub(crate) fn new(cube: &str, shape: AggQueryShape, snapshot: &Snapshot) -> Self {
        MemoKey {
            cube: Arc::from(cube),
            shape: Arc::new(shape),
            epoch: snapshot.epoch(),
            deps: snapshot.shared_deps(),
        }
    }

    /// The largest LSE a reader of this snapshot tolerates — the epoch
    /// `TxnManager::guard_snapshot` registers for it.
    fn guard_epoch(&self) -> Epoch {
        self.deps
            .first()
            .map_or(self.epoch, |&d| d.saturating_sub(1))
            .min(self.epoch)
    }

    fn fingerprint(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// Heap bytes behind the key's three shared handles, each counted
    /// in full (a handle shared with another entry is counted twice).
    fn heap_bytes(&self) -> usize {
        const ARC_HEADER: usize = 2 * size_of::<usize>();
        // A B-tree leaf holds up to 11 keys plus a parent link and two
        // lengths; count one full leaf per started 11 deps.
        const DEPS_PER_NODE: usize = 11;
        const NODE_BYTES: usize = (DEPS_PER_NODE + 1) * size_of::<Epoch>();
        3 * ARC_HEADER
            + self.cube.len()
            + size_of::<AggQueryShape>()
            + self.shape.heap_bytes()
            + size_of::<BTreeSet<Epoch>>()
            + self.deps.len().div_ceil(DEPS_PER_NODE) * NODE_BYTES
    }
}

/// One shard's memoized answer: its folded groups, the counters that
/// describe its data, and how many bricks it scanned and pruned.
struct MemoEntry {
    groups: Box<[(u64, Box<[AggState]>)]>,
    stats: QueryStats,
    bricks: u64,
    pruned: u64,
    /// What [`entry_bytes`] charged for this entry.
    bytes: usize,
}

/// Bytes charged for one entry: its map and FIFO slots and every heap
/// allocation it owns.
fn entry_bytes(key: &MemoKey, groups: &[(u64, Box<[AggState]>)]) -> usize {
    size_of::<(MemoKey, MemoEntry)>()
        + size_of::<MemoKey>()
        + key.heap_bytes()
        + size_of_val(groups)
        + groups
            .iter()
            .map(|(_, states)| size_of_val(&**states))
            .sum::<usize>()
}

/// One shard's memo. Only that shard's tasks touch it.
pub(crate) struct ShardMemo {
    entries: HashMap<MemoKey, MemoEntry>,
    /// Keys in admission order, oldest first.
    order: VecDeque<MemoKey>,
    /// Fingerprints of keys seen once since their last admission.
    doorkeeper: Box<[u64]>,
    bytes: usize,
    counts: CacheStats,
}

impl ShardMemo {
    fn new() -> Self {
        ShardMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
            doorkeeper: vec![0; DOORKEEPER_SLOTS].into_boxed_slice(),
            bytes: 0,
            counts: CacheStats::default(),
        }
    }

    /// The memoized answer for `key`, counted as a hit or a miss. A hit
    /// replays the data counters and reports no wall time.
    pub(crate) fn get(&mut self, key: &MemoKey) -> Option<(PartialResult, ShardScanOutcome)> {
        let Some(entry) = self.entries.get(key) else {
            self.counts.misses += 1;
            return None;
        };
        self.counts.hits += 1;
        let partial = PartialResult {
            groups: (entry.groups.iter())
                .map(|(group, states)| (*group, states.to_vec()))
                .collect(),
            stats: QueryStats {
                agg_cache_hits: 1,
                ..entry.stats
            },
        };
        let outcome = ShardScanOutcome {
            bricks: entry.bricks,
            pruned: entry.pruned,
            scan_task_nanos: Vec::new(),
        };
        Some((partial, outcome))
    }

    /// Offers a freshly folded answer for a missed `key`. It is stored
    /// on the key's second sighting, if it fits the budget at all,
    /// evicting the oldest entries until it does.
    pub(crate) fn offer(
        &mut self,
        key: &MemoKey,
        folded: &PartialResult,
        outcome: &ShardScanOutcome,
    ) {
        let fingerprint = key.fingerprint();
        let seen = &mut self.doorkeeper[(fingerprint % DOORKEEPER_SLOTS as u64) as usize];
        if *seen != fingerprint {
            *seen = fingerprint;
            return;
        }
        *seen = 0;
        let groups: Box<[_]> = (folded.groups.iter())
            .map(|(&group, states)| (group, states.clone().into_boxed_slice()))
            .collect();
        let bytes = entry_bytes(key, &groups);
        if bytes > BUDGET_BYTES {
            return;
        }
        while self.bytes + bytes > BUDGET_BYTES {
            let oldest = self.order.pop_front().expect("charged bytes have an entry");
            let evicted = self
                .entries
                .remove(&oldest)
                .expect("ordered keys are stored");
            self.bytes -= evicted.bytes;
            self.counts.evictions += 1;
        }
        let s = &folded.stats;
        let entry = MemoEntry {
            groups,
            stats: QueryStats {
                bricks_scanned: s.bricks_scanned,
                rows_scanned: s.rows_scanned,
                rows_visible: s.rows_visible,
                range_scans: s.range_scans,
                bitmap_scans: s.bitmap_scans,
                ..QueryStats::default()
            },
            bricks: outcome.bricks,
            pruned: outcome.pruned,
            bytes,
        };
        self.bytes += bytes;
        self.order.push_back(key.clone());
        let replaced = self.entries.insert(key.clone(), entry);
        debug_assert!(replaced.is_none(), "offered only after a miss");
    }

    /// Clears every entry of `cube`: its bricks were dropped, removed,
    /// or written under old epochs.
    pub(crate) fn forget_cube(&mut self, cube: &str) {
        self.counts.invalidations += self.remove_where(|key| &*key.cube == cube);
    }

    /// Drops the entries no reader can ask for once the LSE is `lse`.
    pub(crate) fn expire_below(&mut self, lse: Epoch) {
        self.counts.evictions += self.remove_where(|key| key.guard_epoch() < lse);
    }

    fn remove_where(&mut self, doomed: impl Fn(&MemoKey) -> bool) -> u64 {
        let before = self.entries.len();
        let bytes = &mut self.bytes;
        self.entries.retain(|key, entry| {
            let keep = !doomed(key);
            if !keep {
                *bytes -= entry.bytes;
            }
            keep
        });
        self.order.retain(|key| !doomed(key));
        (before - self.entries.len()) as u64
    }

    /// Nudges every memoized aggregate state in place, keys untouched
    /// (see [`crate::fault::FaultHooks::corrupt_memo`]).
    #[cfg(any(test, feature = "fault-hooks"))]
    pub(crate) fn corrupt(&mut self) {
        for entry in self.entries.values_mut() {
            for (_, states) in entry.groups.iter_mut() {
                for state in states.iter_mut() {
                    *state = match *state {
                        AggState::Count { count } => AggState::Count { count: count + 1 },
                        AggState::Sum { sum } => AggState::Sum { sum: sum + 1.0 },
                        AggState::Min { min, seen } => AggState::Min {
                            min: min - 1.0,
                            seen,
                        },
                        AggState::Max { max, seen } => AggState::Max {
                            max: max + 1.0,
                            seen,
                        },
                        AggState::Avg { sum, count } => AggState::Avg {
                            sum: sum + 1.0,
                            count,
                        },
                    };
                }
            }
        }
    }

    /// Bytes currently charged against the budget.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The charge recomputed from scratch by walking every entry.
    #[cfg(test)]
    pub(crate) fn walked_bytes(&self) -> usize {
        (self.entries.iter())
            .map(|(key, entry)| entry_bytes(key, &entry.groups))
            .sum()
    }
}

/// One [`ShardMemo`] per shard. Shard `i`'s memo is locked only by
/// tasks running on shard `i` and by stats readers, so its lock is
/// uncontended by construction.
pub(crate) struct ShardMemos(Box<[Mutex<ShardMemo>]>);

impl ShardMemos {
    pub(crate) fn new(num_shards: usize) -> Self {
        ShardMemos(
            (0..num_shards)
                .map(|_| Mutex::new(ShardMemo::new()))
                .collect(),
        )
    }

    /// Shard `shard`'s memo. Call only from that shard's tasks.
    pub(crate) fn shard(&self, shard: usize) -> MutexGuard<'_, ShardMemo> {
        unpoison(self.0[shard].lock())
    }

    /// Lookups, admissions and removals summed over every shard.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for memo in self.0.iter() {
            let memo = unpoison(memo.lock());
            total.hits += memo.counts.hits;
            total.misses += memo.counts.misses;
            total.invalidations += memo.counts.invalidations;
            total.evictions += memo.counts.evictions;
            total.entries += memo.entries.len();
        }
        total
    }

    /// Writes the memo's report section.
    pub(crate) fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        let stats = self.stats();
        let bytes: usize = self
            .0
            .iter()
            .map(|memo| unpoison(memo.lock()).bytes())
            .sum();
        report
            .section(section)
            .metric("hits", stats.hits)
            .metric("misses", stats.misses)
            .metric("invalidations", stats.invalidations)
            .metric("evictions", stats.evictions)
            .metric("entries", stats.entries)
            .metric("bytes", bytes)
            .metric("budget_bytes_per_shard", BUDGET_BYTES);
    }

    /// Applies [`ShardMemo::corrupt`] to every shard's memo.
    #[cfg(any(test, feature = "fault-hooks"))]
    pub(crate) fn corrupt(&self) {
        for memo in self.0.iter() {
            unpoison(memo.lock()).corrupt();
        }
    }
}
