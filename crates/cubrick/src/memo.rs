//! The per-shard snapshot memo: a shard's folded answer to a repeated
//! `(scan plan, settled snapshot)`, served without touching a brick.
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
//! A query's coordinator looks every shard's key up itself, so a hit
//! costs no shard task. An answer is offered only by the shard task
//! that scanned it, queued on the same thread as those writes: an
//! answer scanned before such a write is offered before the write
//! clears the memo, never after it, where it would stay for good.
//!
//! The key is `(cube, ScanPlan, E, deps)`: the read's own
//! [`ScanPlan`], shared through its `Arc`, never a copy. Keys compare
//! structurally, never by fingerprint: a collision would serve one
//! query's answer to another. The kernel is not part of the key: the
//! scan oracle holds both kernels byte-identical. A key is stored
//! only on its shard's second sighting; the doorkeeper remembering
//! first sightings is a fixed table of fingerprints, where a collision
//! can only change admission. An entry holds its shard's folded
//! [`GroupTable`] behind an `Arc`, and a hit hands the coordinator a
//! clone of that `Arc`, so neither side copies a group. Entries live
//! under a constant byte budget, which charges each entry's table and
//! plan in full (the key keeps the plan's filter bitsets alive), with
//! FIFO eviction.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard};

use aosi::{CacheStats, Epoch, Snapshot};
use obs::sync::unpoison;
use obs::ReportBuilder;

#[cfg(any(test, feature = "fault-hooks"))]
use crate::agg::AggState;
use crate::agg::GroupTable;
use crate::query::{PartialResult, QueryStats, ScanPlan};
use crate::scan::ShardScanOutcome;

/// Bytes one shard's memo may hold.
pub(crate) const BUDGET_BYTES: usize = 1 << 20;

/// First-sighting fingerprints one shard remembers (8 B each).
const DOORKEEPER_SLOTS: usize = 1024;

/// Which settled answer an entry holds.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    cube: Arc<str>,
    plan: Arc<ScanPlan>,
    epoch: Epoch,
    deps: Arc<BTreeSet<Epoch>>,
}

impl MemoKey {
    pub(crate) fn new(cube: &str, plan: &Arc<ScanPlan>, snapshot: &Snapshot) -> Self {
        MemoKey {
            cube: Arc::from(cube),
            plan: Arc::clone(plan),
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
        // A B-tree leaf holds up to 11 keys plus a parent link and two
        // lengths; count one full leaf per started 11 deps.
        const DEPS_PER_NODE: usize = 11;
        const NODE_BYTES: usize = (DEPS_PER_NODE + 1) * size_of::<Epoch>();
        3 * ARC_HEADER
            + self.cube.len()
            + size_of::<ScanPlan>()
            + self.plan.heap_bytes()
            + size_of::<BTreeSet<Epoch>>()
            + self.deps.len().div_ceil(DEPS_PER_NODE) * NODE_BYTES
    }
}

/// An `Arc`'s reference counts, allocated beside its value.
const ARC_HEADER: usize = 2 * size_of::<usize>();

/// One shard's memoized answer: its folded group table, shared with
/// every hit on it, the counters that describe its data, and how many
/// bricks it scanned and pruned.
struct MemoEntry {
    groups: Arc<GroupTable>,
    stats: QueryStats,
    bricks: u64,
    pruned: u64,
    /// What [`entry_bytes`] charged for this entry.
    bytes: usize,
}

/// Bytes charged for one entry: its map and FIFO slots, its key's
/// heap, and the `Arc`'d table in full, though a hit in flight may
/// share it.
fn entry_bytes(key: &MemoKey, groups: &GroupTable) -> usize {
    size_of::<(MemoKey, MemoEntry)>()
        + size_of::<MemoKey>()
        + key.heap_bytes()
        + ARC_HEADER
        + size_of::<GroupTable>()
        + groups.heap_bytes()
}

/// One shard's memo. The coordinator of any query looks keys up in
/// it; only that shard's tasks offer, clear and expire entries.
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
    /// shares the entry's table, replays the data counters and reports
    /// no wall time.
    pub(crate) fn get(&mut self, key: &MemoKey) -> Option<(PartialResult, ShardScanOutcome)> {
        let Some(entry) = self.entries.get(key) else {
            self.counts.misses += 1;
            return None;
        };
        self.counts.hits += 1;
        let partial = PartialResult {
            groups: Arc::clone(&entry.groups),
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

    /// Offers a freshly folded answer for a missed `key`; the entry
    /// shares its table. It is stored on the key's second sighting, if
    /// it fits the budget at all, evicting the oldest entries until it
    /// does. Two identical queries can both miss and both offer; the
    /// later offer finds the key stored and leaves everything as it is.
    pub(crate) fn offer(
        &mut self,
        key: &MemoKey,
        folded: &PartialResult,
        outcome: &ShardScanOutcome,
    ) {
        if self.entries.contains_key(key) {
            return;
        }
        let fingerprint = key.fingerprint();
        let seen = &mut self.doorkeeper[(fingerprint % DOORKEEPER_SLOTS as u64) as usize];
        if *seen != fingerprint {
            *seen = fingerprint;
            return;
        }
        *seen = 0;
        let bytes = entry_bytes(key, &folded.groups);
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
            groups: Arc::clone(&folded.groups),
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
        self.entries.insert(key.clone(), entry);
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

    /// Nudges every memoized aggregate state, keys untouched (see
    /// [`crate::fault::FaultHooks::corrupt_memo`]). A table a hit in
    /// flight still shares is copied first, so only later hits lie.
    #[cfg(any(test, feature = "fault-hooks"))]
    pub(crate) fn corrupt(&mut self) {
        for entry in self.entries.values_mut() {
            for state in Arc::make_mut(&mut entry.groups).states_mut() {
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

/// One [`ShardMemo`] per shard. Shard `i`'s memo is locked by query
/// coordinators looking keys up (`Engine::scan_shards`), by tasks
/// running on shard `i` — the only ones that change it, see the
/// module docs — and by stats readers.
pub(crate) struct ShardMemos(Box<[Mutex<ShardMemo>]>);

impl ShardMemos {
    pub(crate) fn new(num_shards: usize) -> Self {
        ShardMemos(
            (0..num_shards)
                .map(|_| Mutex::new(ShardMemo::new()))
                .collect(),
        )
    }

    /// Shard `shard`'s memo. Look up from anywhere; change it only
    /// from that shard's tasks.
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::time::{Duration, Instant};

    use columnar::{Row, Value};

    use super::*;
    use crate::engine::tests::{engine, row};
    use crate::engine::{At, Deliver};
    use crate::query::{AggFn, Aggregation, Query, QueryResult, ResolvedQuery};

    fn sum_by_day() -> Query {
        Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]).grouped_by("day")
    }

    /// A result's group keys and aggregate bits.
    fn bits(result: &QueryResult) -> Vec<(Vec<Value>, Vec<u64>)> {
        (result.rows.iter())
            .map(|(keys, values)| (keys.clone(), values.iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    /// Two concurrent identical queries can both miss on the
    /// coordinator and both offer. Once the key is stored, further
    /// offers — even ones the doorkeeper would admit — change nothing.
    #[test]
    fn offering_a_stored_key_again_changes_nothing() {
        let cube = engine().cube("events").unwrap();
        let resolved = ResolvedQuery::resolve(&cube, &sum_by_day()).unwrap();
        let key = MemoKey::new("events", &resolved.plan, &Snapshot::committed(3));
        let answer = |sum| {
            let mut groups = GroupTable::with_capacity(1, 1);
            groups.push(1, &[AggState::Sum { sum }]);
            PartialResult {
                groups: Arc::new(groups),
                stats: QueryStats::default(),
            }
        };
        let outcome = ShardScanOutcome {
            bricks: 2,
            pruned: 1,
            scan_task_nanos: Vec::new(),
        };
        let mut memo = ShardMemo::new();
        memo.offer(&key, &answer(7.0), &outcome);
        memo.offer(&key, &answer(7.0), &outcome);
        assert_eq!(memo.entries.len(), 1, "stored on the second sighting");
        let (bytes, order) = (memo.bytes(), memo.order.clone());
        for _ in 0..2 {
            memo.offer(&key, &answer(8.0), &outcome);
        }
        assert_eq!(memo.bytes(), bytes);
        assert_eq!(memo.order, order);
        assert_eq!(memo.walked_bytes(), bytes);
        let (served, served_outcome) = memo.get(&key).unwrap();
        assert_eq!(served.groups, answer(7.0).groups);
        assert_eq!((served_outcome.bricks, served_outcome.pruned), (2, 1));
    }

    /// Readers re-read one settled snapshot while a writer takes
    /// bricks away (two at a time on each shard), drops the cube and
    /// re-creates it with other rows. Lookups run on the readers'
    /// threads, offers on the shard threads: a read that starts after a
    /// write returned and ends before the next one starts must equal
    /// the reference at its snapshot, never a memoized answer scanned
    /// before the write.
    #[test]
    fn settled_reads_racing_wholesale_writes_see_every_finished_write() {
        const READERS: u64 = 3;
        const ROUNDS: i64 = 24;
        let engine = engine();
        let schema = engine.cube("events").unwrap().schema().clone();
        let query = sum_by_day();
        // Every brick of the 4 x 4 grid; `round` changes the values.
        let load = |round: i64| {
            let rows: Vec<Row> = (0..128)
                .map(|i| row(&format!("r{}", i % 8), i / 8, round * 1000 + i, 0.0))
                .collect();
            engine.load("events", &rows, 0).unwrap();
        };
        // Even while no write runs. A read that starts and ends on one
        // even `phase` must equal `published[phase / 2]`.
        let phase = AtomicU64::new(0);
        type Answer = Option<Vec<(Vec<Value>, Vec<u64>)>>;
        let published: Mutex<Vec<(Snapshot, Answer)>> = Mutex::new(Vec::new());
        let (checked, stale, done) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
        let reference = |snapshot: &Snapshot| {
            let answer = engine.query_at_reference("events", &query, snapshot);
            (snapshot.clone(), answer.ok().map(|r| bits(&r)))
        };
        // Runs `change` with `phase` odd, then publishes the reference.
        let write = |change: &dyn Fn(), snapshot: &Snapshot| {
            phase.fetch_add(1, SeqCst);
            change();
            unpoison(published.lock()).push(reference(snapshot));
            phase.fetch_add(1, SeqCst);
            // Let a few reads land on the new phase.
            let (target, started) = (checked.load(SeqCst) + READERS, Instant::now());
            while checked.load(SeqCst) < target && started.elapsed() < Duration::from_secs(2) {
                std::thread::yield_now();
            }
        };
        load(0);
        let mut snapshot = Snapshot::committed(engine.manager().lce());
        unpoison(published.lock()).push(reference(&snapshot));
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    while !done.load(SeqCst) {
                        let before = phase.load(SeqCst);
                        let (snapshot, expected) =
                            unpoison(published.lock())[before as usize / 2].clone();
                        let got = engine
                            .read("events", &query, At::Snapshot(&snapshot), Deliver::Final)
                            .ok()
                            .map(|r| bits(&r));
                        if before.is_multiple_of(2) && phase.load(SeqCst) == before {
                            checked.fetch_add(1, SeqCst);
                            stale.fetch_add(u64::from(got != expected), SeqCst);
                        }
                    }
                });
            }
            for round in 1..=ROUNDS {
                let bids = engine.brick_bids("events");
                for shard in 0..4 {
                    let pair: Vec<u64> = (bids.iter().copied())
                        .filter(|&bid| engine.shards().shard_of(bid) == shard)
                        .take(2)
                        .collect();
                    let remove = || {
                        for &bid in &pair {
                            assert!(engine.remove_brick("events", bid));
                        }
                    };
                    write(&remove, &snapshot);
                }
                write(&|| engine.drop_cube("events").unwrap(), &snapshot);
                let recreate = || {
                    engine.create_cube(schema.clone()).unwrap();
                    load(round);
                };
                write(&recreate, &snapshot);
                // The next round reads a snapshot that sees the rows.
                snapshot = Snapshot::committed(engine.manager().lce());
                write(&|| (), &snapshot);
            }
            done.store(true, SeqCst);
        });
        let (checked, stale) = (checked.into_inner(), stale.into_inner());
        assert!(checked >= 7 * ROUNDS as u64, "only {checked} reads checked");
        assert_eq!(stale, 0, "{stale} of {checked} checked reads were stale");
    }
}
