//! Snapshot-keyed memoization of per-partition query results.
//!
//! Anything derived purely from a partition's content and a snapshot
//! is a pure function of the partition's entries and the snapshot's
//! `(epoch, deps)` pair, so identical reads can share one
//! materialization. Whether that pays depends on what is memoized:
//! visibility itself does not — recomputing it from a handful of
//! epochs-vector entries is cheaper than a probe under the mutex
//! (the paper's point, Section III-C3), so scans derive it fresh every
//! time — while a per-brick *aggregate* partial, which saves the whole
//! scan, does. Cubrick's aggregate cache is the one client of the
//! generic [`SnapshotCache`]. Each cached value is keyed on
//!
//! ```text
//! (partition id, epochs-vector generation, snapshot epoch,
//!  snapshot deps set, client tag)
//! ```
//!
//! where the *tag* is a client-chosen structural description of what
//! the value is (the resolved query shape, for aggregates).
//!
//! The epochs-vector *generation* (see
//! [`EpochsVector::generation`]) is the invalidation token: every
//! content mutation — append, delete marker, purge, rollback — bumps
//! it, and rebuilds continue the counter instead of restarting it, so
//! a `(generation, snapshot)` pair can never silently alias two
//! different entry lists. A stale entry therefore becomes
//! *unreachable* the moment its partition mutates; explicit
//! [`invalidate`](SnapshotCache::invalidate) calls exist to reclaim
//! the memory eagerly, not for correctness.
//!
//! Snapshot identity is full structural equality on the deps set (via
//! the snapshot's shared handle, no copy on lookup) rather than a
//! hash fingerprint — and the same rule binds the client tag: a
//! fingerprint collision would silently violate snapshot isolation,
//! which is exactly the failure mode the scan-oracle test layer
//! exists to catch. Tags must compare structurally (`Eq`), never by
//! digest.
//!
//! Capacity is bounded with least-recently-used eviction. Lookups
//! probe under a short mutex hold and compute outside the lock, so
//! parallel shard scan tasks only contend on the probe/insert.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use obs::{Counter, ReportBuilder};
use parking_lot::Mutex;

use crate::epoch::Epoch;
use crate::epochs::EpochsVector;
use crate::snapshot::Snapshot;

/// Full structural key for one cached value within a partition's
/// slot map: the invalidation token, the snapshot identity, and the
/// client's tag.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SlotKey<T> {
    generation: u64,
    epoch: Epoch,
    /// The complete deps set, compared structurally. `Arc` keeps the
    /// common path (snapshot reused across partitions) allocation-free.
    deps: Arc<BTreeSet<Epoch>>,
    tag: T,
}

impl<T> SlotKey<T> {
    fn new(vector: &EpochsVector, snapshot: &Snapshot, tag: T) -> Self {
        SlotKey {
            generation: vector.generation(),
            epoch: snapshot.epoch(),
            deps: snapshot.shared_deps(),
            tag,
        }
    }
}

struct Slot<V> {
    value: V,
    last_used: u64,
}

struct Inner<K, T, V> {
    partitions: HashMap<K, HashMap<SlotKey<T>, Slot<V>>>,
    /// Total slots across all partitions (the LRU bound applies
    /// globally, not per partition).
    len: usize,
    /// Monotonic use clock for LRU ordering.
    tick: u64,
}

/// Point-in-time cache statistics, for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cached value.
    pub hits: u64,
    /// Lookups that had to materialize the value.
    pub misses: u64,
    /// Slots removed by explicit [`SnapshotCache::invalidate`].
    pub invalidations: u64,
    /// Slots removed by the LRU capacity bound.
    pub evictions: u64,
    /// Live slots.
    pub entries: usize,
}

/// A bounded, snapshot-keyed cache of per-partition values, generic
/// over the partition identifier `K` (Cubrick uses `(cube, brick
/// id)`), the client tag `T`, and the cached value `V`.
///
/// Thread-safe; see the module docs for the key derivation, why the
/// epochs-vector generation makes staleness structurally
/// unreachable, and why tags must be structural (no fingerprints).
pub struct SnapshotCache<K: Eq + Hash + Clone, T: Eq + Hash + Clone, V: Clone> {
    inner: Mutex<Inner<K, T, V>>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
}

impl<K: Eq + Hash + Clone, T: Eq + Hash + Clone, V: Clone> SnapshotCache<K, T, V> {
    /// A cache holding at most `capacity` values (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SnapshotCache {
            inner: Mutex::new(Inner {
                partitions: HashMap::new(),
                len: 0,
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            invalidations: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The value for `(partition, vector, snapshot, tag)`, memoized:
    /// a probe under a short lock hold, then `build` runs *outside*
    /// the lock on a miss and the result is inserted.
    ///
    /// Returns the value and whether it was served from cache. The
    /// caller must pass the *current* vector of the partition named by
    /// `partition` — under Cubrick's single-writer shards that is the
    /// owning shard thread's view, which is exactly what makes the
    /// probe race-free.
    pub fn get_or_build(
        &self,
        partition: &K,
        vector: &EpochsVector,
        snapshot: &Snapshot,
        tag: T,
        build: impl FnOnce() -> V,
    ) -> (V, bool) {
        let key = SlotKey::new(vector, snapshot, tag);
        if let Some(value) = self.probe(partition, &key) {
            return (value, true);
        }
        let built = build();
        self.insert(partition, key, built.clone());
        (built, false)
    }

    /// The cached value for `(partition, vector, snapshot, tag)` if
    /// one exists, **without** building on a miss. Counts as a normal
    /// hit/miss and refreshes the slot's LRU position on a hit.
    ///
    /// This is the probe a tiered-storage residency manager uses to
    /// answer a query over an *evicted* partition from a still-warm
    /// cached value (the retained epochs vector supplies the
    /// generation key) instead of faulting the partition's data back
    /// in.
    pub fn peek(
        &self,
        partition: &K,
        vector: &EpochsVector,
        snapshot: &Snapshot,
        tag: T,
    ) -> Option<V> {
        let key = SlotKey::new(vector, snapshot, tag);
        self.probe(partition, &key)
    }

    /// How recently any of `partition`'s slots was used, as a
    /// fraction of the cache's current use clock: `1.0` means "hit by
    /// the latest probe", values near `0.0` mean long-cold, `None`
    /// means nothing is cached for the partition. Clock positions
    /// from different caches are not comparable, but these fractions
    /// are — the engine's residency manager takes the max of this and
    /// its own scan clock so cache-warm bricks are deprioritized for
    /// eviction.
    pub fn partition_recency(&self, partition: &K) -> Option<f64> {
        let inner = self.inner.lock();
        if inner.tick == 0 {
            return None;
        }
        inner
            .partitions
            .get(partition)
            .and_then(|slots| slots.values().map(|slot| slot.last_used).max())
            .map(|last| last as f64 / inner.tick as f64)
    }

    /// Drops every value cached for `partition`, returning how many
    /// slots were reclaimed. Called by the engine after any mutation
    /// of the partition (append, delete, purge, rollback); the
    /// generation key already makes the stale slots unreachable, so
    /// this is memory reclamation, not a correctness requirement.
    pub fn invalidate(&self, partition: &K) -> usize {
        let mut inner = self.inner.lock();
        let removed = inner
            .partitions
            .remove(partition)
            .map(|slots| slots.len())
            .unwrap_or(0);
        inner.len -= removed;
        self.invalidations.add(removed as u64);
        removed
    }

    /// Live slots across all partitions.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The LRU bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters plus the live-slot count, in one consistent-ish view
    /// (counters are relaxed atomics; exact under external quiescence,
    /// which is what tests provide).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
            entries: self.len(),
        }
    }

    /// Appends a `[section]` block with the cache counters to an obs
    /// report.
    pub fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        report
            .section(section)
            .counter("hits", &self.hits)
            .counter("misses", &self.misses)
            .counter("invalidations", &self.invalidations)
            .counter("evictions", &self.evictions)
            .metric("entries", self.len())
            .metric("capacity", self.capacity);
    }

    /// Applies `corrupt` to every cached value in place — *without*
    /// touching generations or keys, simulating the exact failure the
    /// generation token exists to prevent (a stale cache serving
    /// wrong bytes). Test-only: exists so oracle meta-tests can prove
    /// their differential layer detects a poisoned cache.
    #[doc(hidden)]
    pub fn corrupt_values_for_test(&self, mut corrupt: impl FnMut(&mut V)) {
        let mut inner = self.inner.lock();
        for slots in inner.partitions.values_mut() {
            for slot in slots.values_mut() {
                corrupt(&mut slot.value);
            }
        }
    }

    fn probe(&self, partition: &K, key: &SlotKey<T>) -> Option<V> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner
            .partitions
            .get_mut(partition)
            .and_then(|slots| slots.get_mut(key))
        {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.inc();
                Some(slot.value.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn insert(&self, partition: &K, key: SlotKey<T>, value: V) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Make room first (never evicts the slot being inserted).
        while inner.len >= self.capacity {
            if !Self::evict_lru(&mut inner) {
                break;
            }
            self.evictions.inc();
        }
        let slots = inner.partitions.entry(partition.clone()).or_default();
        if slots
            .insert(
                key,
                Slot {
                    value,
                    last_used: tick,
                },
            )
            .is_none()
        {
            inner.len += 1;
        }
    }

    /// Removes the globally least-recently-used slot. Linear in the
    /// number of slots — acceptable because it only runs at capacity,
    /// and capacity bounds the scan.
    fn evict_lru(inner: &mut Inner<K, T, V>) -> bool {
        let mut victim: Option<(K, SlotKey<T>, u64)> = None;
        for (pk, slots) in &inner.partitions {
            for (ak, slot) in slots {
                if victim.as_ref().is_none_or(|(_, _, t)| slot.last_used < *t) {
                    victim = Some((pk.clone(), ak.clone(), slot.last_used));
                }
            }
        }
        let Some((pk, ak, _)) = victim else {
            return false;
        };
        if let Some(slots) = inner.partitions.get_mut(&pk) {
            slots.remove(&ak);
            if slots.is_empty() {
                inner.partitions.remove(&pk);
            }
        }
        inner.len -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purge::purge;
    use crate::rollback::rollback_partition;

    fn vector(appends: &[(Epoch, u64)]) -> EpochsVector {
        let mut v = EpochsVector::new();
        for &(epoch, count) in appends {
            v.append(epoch, count);
        }
        v
    }

    /// The cache as `AggCache` instantiates it, with a stand-in value:
    /// the snapshot's visible row count — like a brick partial, a pure
    /// function of the vector's content and the snapshot.
    type Cache = SnapshotCache<&'static str, u8, u64>;

    fn lookup(
        cache: &Cache,
        partition: &'static str,
        v: &EpochsVector,
        s: &Snapshot,
    ) -> (u64, bool) {
        cache.get_or_build(&partition, v, s, 0, || v.visible_rows(s))
    }

    /// The generation-token proof, one row per mutation class: once a
    /// partition mutates, the slots cached for its old content stop
    /// being served — before any explicit invalidate — and stay
    /// reclaimable, while an unaffected partition keeps hitting.
    /// Rebuilds (rollback, purge) continue the generation counter, so
    /// the replacement vector can never alias a slot cached for the
    /// old entries.
    #[test]
    fn every_mutation_class_strands_the_affected_partitions_slots_only() {
        type Mutation = fn(&mut EpochsVector);
        let mut deleted_at_3 = vector(&[(1, 2), (2, 3)]);
        deleted_at_3.mark_delete(3);
        // (class, vector before, reader epoch, mutation, rows the
        // reader sees afterwards)
        let cases: [(&str, EpochsVector, Epoch, Mutation, u64); 5] = [
            (
                "append",
                vector(&[(1, 4)]),
                2,
                |v| {
                    v.append(2, 3);
                },
                7,
            ),
            (
                "partition delete",
                vector(&[(1, 4)]),
                2,
                |v| v.mark_delete(2),
                0,
            ),
            (
                "rollback",
                vector(&[(1, 2), (3, 3)]),
                3,
                |v| *v = rollback_partition(v, 3).vector,
                2,
            ),
            (
                "purge applying a delete",
                deleted_at_3,
                4,
                |v| *v = purge(v, 4).vector,
                0,
            ),
            (
                "purge merging entries, rows unchanged",
                vector(&[(1, 2), (2, 2)]),
                2,
                |v| *v = purge(v, 2).vector,
                4,
            ),
        ];
        for (class, before, epoch, mutate, visible_after) in cases {
            let cache = Cache::new(64);
            let s = Snapshot::committed(epoch);
            let bystander = vector(&[(1, 2)]);
            for (partition, v) in [("a", &before), ("b", &bystander)] {
                assert!(!lookup(&cache, partition, v, &s).1, "{class}: cold");
                assert!(lookup(&cache, partition, v, &s).1, "{class}: warmed");
            }

            let mut after = before.clone();
            mutate(&mut after);
            assert!(
                after.generation() > before.generation(),
                "{class}: generation must move forward"
            );
            let (rows, hit) = lookup(&cache, "a", &after, &s);
            assert!(!hit, "{class}: the stale slot must not be served");
            assert_eq!(rows, visible_after, "{class}: recomputed value");

            // Explicit invalidation reclaims the old-generation slot
            // and the one just built.
            assert_eq!(cache.invalidate(&"a"), 2, "{class}");
            assert!(
                lookup(&cache, "b", &bystander, &s).1,
                "{class}: unaffected partition must keep hitting"
            );
        }
    }

    #[test]
    fn lru_evicts_the_coldest_slot_at_capacity() {
        let cache = Cache::new(2);
        let v = vector(&[(1, 2)]);
        let s1 = Snapshot::committed(1);
        let s2 = Snapshot::committed(2);
        let s3 = Snapshot::committed(3);
        lookup(&cache, "p", &v, &s1);
        lookup(&cache, "p", &v, &s2);
        // Touch s1 so s2 is the LRU victim.
        assert!(lookup(&cache, "p", &v, &s1).1);
        lookup(&cache, "p", &v, &s3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            lookup(&cache, "p", &v, &s1).1,
            "recently used slot survives"
        );
        assert!(!lookup(&cache, "p", &v, &s2).1, "cold slot was evicted");
    }

    #[test]
    fn stats_and_report() {
        let cache = Cache::new(8);
        let v = vector(&[(1, 1)]);
        let s = Snapshot::committed(1);
        lookup(&cache, "p", &v, &s);
        lookup(&cache, "p", &v, &s);
        cache.invalidate(&"p");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
        let mut report = ReportBuilder::new();
        cache.report_as(&mut report, "cache");
        let text = report.finish();
        assert!(text.contains("[cache]"));
        assert!(text.contains("hits"));
    }

    #[test]
    fn generic_cache_keys_on_the_client_tag_structurally() {
        let cache: SnapshotCache<&'static str, (u32, Vec<u32>), u64> = SnapshotCache::new(64);
        let v = vector(&[(1, 3)]);
        let s = Snapshot::committed(1);
        let (a, hit) = cache.get_or_build(&"p", &v, &s, (7, vec![1, 2]), || 10);
        assert!(!hit);
        assert_eq!(a, 10);
        // Same tag value, built fresh elsewhere: structural equality
        // means it hits, and the builder must not run.
        let (b, hit) = cache.get_or_build(&"p", &v, &s, (7, vec![1, 2]), || {
            panic!("hit path must not rebuild")
        });
        assert!(hit);
        assert_eq!(b, 10);
        // A different tag is a different slot.
        let (c, hit) = cache.get_or_build(&"p", &v, &s, (7, vec![1, 3]), || 20);
        assert!(!hit);
        assert_eq!(c, 20);
        assert_eq!(cache.len(), 2);
        // Same epoch, different deps: structurally different keys and
        // different values — a fingerprint scheme could collide here.
        let v = vector(&[(1, 2), (3, 2)]);
        let with_dep = Snapshot::new(4, [3].into_iter().collect());
        let without = Snapshot::committed(4);
        let tag = (0, vec![]);
        let (a, _) = cache.get_or_build(&"q", &v, &with_dep, tag.clone(), || 2);
        let (b, hit) = cache.get_or_build(&"q", &v, &without, tag, || 4);
        assert!(!hit, "the deps set is part of the key");
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn peek_probes_without_building() {
        let cache: SnapshotCache<&'static str, u8, u64> = SnapshotCache::new(64);
        let v = vector(&[(1, 3)]);
        let s = Snapshot::committed(1);
        assert_eq!(
            cache.peek(&"p", &v, &s, 0),
            None,
            "cold probe builds nothing"
        );
        cache.get_or_build(&"p", &v, &s, 0, || 7);
        assert_eq!(cache.peek(&"p", &v, &s, 0), Some(7));
        assert_eq!(cache.peek(&"p", &v, &s, 1), None, "tag is part of the key");
        // A mutated vector (new generation) must never serve the old
        // value — the exact property that makes peek safe for evicted
        // partitions whose retained epochs vector supplies the key.
        let mut moved = vector(&[(1, 3)]);
        moved.append(2, 1);
        assert_eq!(cache.peek(&"p", &moved, &s, 0), None);
    }

    #[test]
    fn partition_recency_tracks_the_use_clock() {
        let cache: SnapshotCache<&'static str, u8, u64> = SnapshotCache::new(64);
        let v = vector(&[(1, 3)]);
        let s = Snapshot::committed(1);
        assert_eq!(cache.partition_recency(&"p"), None, "empty cache");
        cache.get_or_build(&"p", &v, &s, 0, || 1);
        cache.get_or_build(&"q", &v, &s, 0, || 2);
        let p = cache.partition_recency(&"p").unwrap();
        let q = cache.partition_recency(&"q").unwrap();
        assert!(q > p, "q touched last: {q} vs {p}");
        assert!(q <= 1.0);
        // Re-probing p makes it the warmer partition again.
        cache.get_or_build(&"p", &v, &s, 0, || 1);
        assert!(cache.partition_recency(&"p").unwrap() > cache.partition_recency(&"q").unwrap());
        assert_eq!(cache.partition_recency(&"missing"), None);
    }

    #[test]
    fn generic_cache_invalidation_and_corruption() {
        let cache: SnapshotCache<&'static str, u8, u64> = SnapshotCache::new(64);
        let v = vector(&[(1, 3)]);
        let s = Snapshot::committed(1);
        cache.get_or_build(&"p", &v, &s, 0, || 1);
        cache.get_or_build(&"q", &v, &s, 0, || 2);
        cache.corrupt_values_for_test(|value| *value += 100);
        let (poisoned, hit) = cache.get_or_build(&"p", &v, &s, 0, || 1);
        assert!(hit, "corruption must not evict");
        assert_eq!(poisoned, 101);
        assert_eq!(cache.invalidate(&"p"), 1);
        let (rebuilt, hit) = cache.get_or_build(&"p", &v, &s, 0, || 1);
        assert!(!hit);
        assert_eq!(rebuilt, 1);
        let (other, hit) = cache.get_or_build(&"q", &v, &s, 0, || 2);
        assert!(hit, "unaffected partition must keep hitting");
        assert_eq!(other, 102, "…even if what it serves was poisoned");
    }
}
