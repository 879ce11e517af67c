//! Snapshot-keyed memoization of per-partition scan artifacts.
//!
//! Building visibility (epochs vector → bitmap or ranges) dominates
//! repeated-snapshot query cost: the artifact is a pure function of
//! the partition's entries and the snapshot's `(epoch, deps)` pair,
//! so identical reads can share one materialization. The same
//! argument covers anything else derived purely from a partition's
//! content and a snapshot — Cubrick layers per-brick *aggregate*
//! partials on the identical keying — so the machinery is a generic
//! [`SnapshotCache`] and [`VisibilityCache`] is its oldest client.
//! Each cached value is keyed on
//!
//! ```text
//! (partition id, epochs-vector generation, snapshot epoch,
//!  snapshot deps set, client tag)
//! ```
//!
//! where the *tag* is a client-chosen structural description of what
//! the value is (artifact kind for visibility; resolved query shape
//! for aggregates).
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
//! parallel per-brick scan tasks only contend on the probe/insert.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

use columnar::Bitmap;
use obs::{Counter, ReportBuilder};
use parking_lot::Mutex;

use crate::epoch::Epoch;
use crate::epochs::EpochsVector;
use crate::snapshot::Snapshot;
use crate::visibility;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// are — the engine's residency manager takes the max across the
    /// visibility and aggregate caches so cache-warm bricks are
    /// deprioritized for eviction.
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

    /// Drops everything.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let removed = inner.len;
        inner.partitions.clear();
        inner.len = 0;
        self.invalidations.add(removed as u64);
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

/// Which artifact a visibility-cache slot holds. Bitmaps and ranges
/// for the same `(generation, snapshot)` are distinct entries:
/// queries with per-row filters need the bitmap while unfiltered
/// scans take the range fast path, and the two are not
/// interconvertible for free.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ArtifactKind {
    Bitmap,
    Ranges,
}

#[derive(Clone)]
enum Artifact {
    Bitmap(Arc<Bitmap>),
    Ranges(Arc<Vec<Range<u64>>>),
}

/// A bounded, snapshot-keyed cache of visibility artifacts, generic
/// over the partition identifier `K` — a [`SnapshotCache`] tagged by
/// artifact kind.
pub struct VisibilityCache<K: Eq + Hash + Clone> {
    cache: SnapshotCache<K, ArtifactKind, Artifact>,
}

impl<K: Eq + Hash + Clone> VisibilityCache<K> {
    /// A cache holding at most `capacity` artifacts (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        VisibilityCache {
            cache: SnapshotCache::new(capacity),
        }
    }

    /// The visibility bitmap for `snapshot` over `vector`, memoized.
    ///
    /// Returns the artifact and whether it was served from cache.
    pub fn bitmap(
        &self,
        partition: &K,
        vector: &EpochsVector,
        snapshot: &Snapshot,
    ) -> (Arc<Bitmap>, bool) {
        let (artifact, hit) =
            self.cache
                .get_or_build(partition, vector, snapshot, ArtifactKind::Bitmap, || {
                    Artifact::Bitmap(Arc::new(visibility::visible_bitmap(vector, snapshot)))
                });
        match artifact {
            Artifact::Bitmap(b) => (b, hit),
            Artifact::Ranges(_) => unreachable!("Bitmap tag only ever stores bitmaps"),
        }
    }

    /// The visible ranges for `snapshot` over `vector`, memoized.
    pub fn ranges(
        &self,
        partition: &K,
        vector: &EpochsVector,
        snapshot: &Snapshot,
    ) -> (Arc<Vec<Range<u64>>>, bool) {
        let (artifact, hit) =
            self.cache
                .get_or_build(partition, vector, snapshot, ArtifactKind::Ranges, || {
                    Artifact::Ranges(Arc::new(visibility::visible_ranges(vector, snapshot)))
                });
        match artifact {
            Artifact::Ranges(r) => (r, hit),
            Artifact::Bitmap(_) => unreachable!("Ranges tag only ever stores ranges"),
        }
    }

    /// Drops every artifact cached for `partition`, returning how many
    /// slots were reclaimed.
    pub fn invalidate(&self, partition: &K) -> usize {
        self.cache.invalidate(partition)
    }

    /// How recently any of `partition`'s artifacts was used, as a
    /// fraction of the cache's use clock (see
    /// [`SnapshotCache::partition_recency`]).
    pub fn partition_recency(&self, partition: &K) -> Option<f64> {
        self.cache.partition_recency(partition)
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.cache.clear()
    }

    /// Live slots across all partitions.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The LRU bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Counters plus the live-slot count.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Appends a `[section]` block with the cache counters to an obs
    /// report.
    pub fn report_as(&self, report: &mut ReportBuilder, section: &str) {
        self.cache.report_as(report, section)
    }

    /// Corrupts every cached artifact in place — bitmaps are inverted,
    /// range lists emptied — *without* touching generations or keys,
    /// simulating the exact failure the generation token exists to
    /// prevent. Test-only: exists so the scan-oracle meta-test can
    /// prove the oracle detects a stale cache serving wrong bytes.
    #[doc(hidden)]
    pub fn corrupt_for_test(&self) {
        self.cache
            .corrupt_values_for_test(|artifact| match artifact {
                Artifact::Bitmap(b) => {
                    let mut inverted = Bitmap::new(b.len());
                    for i in 0..b.len() {
                        if !b.get(i) {
                            inverted.set(i);
                        }
                    }
                    *artifact = Artifact::Bitmap(Arc::new(inverted));
                }
                Artifact::Ranges(_) => {
                    *artifact = Artifact::Ranges(Arc::new(Vec::new()));
                }
            });
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

    /// Warm both kinds for `partition` at `snapshot` and assert the
    /// next lookups hit.
    fn warm(
        cache: &VisibilityCache<&'static str>,
        partition: &'static str,
        v: &EpochsVector,
        s: &Snapshot,
    ) {
        let (_, hit) = cache.bitmap(&partition, v, s);
        assert!(!hit, "first bitmap lookup must miss");
        let (_, hit) = cache.ranges(&partition, v, s);
        assert!(!hit, "first ranges lookup must miss");
        let (_, hit) = cache.bitmap(&partition, v, s);
        assert!(hit, "warmed bitmap must hit");
        let (_, hit) = cache.ranges(&partition, v, s);
        assert!(hit, "warmed ranges must hit");
    }

    #[test]
    fn hit_returns_the_same_artifact_bytes() {
        let cache = VisibilityCache::new(64);
        let v = vector(&[(1, 3), (2, 4)]);
        let s = Snapshot::committed(2);
        let (first, hit0) = cache.bitmap(&"p", &v, &s);
        let (second, hit1) = cache.bitmap(&"p", &v, &s);
        assert!(!hit0 && hit1);
        assert!(Arc::ptr_eq(&first, &second), "hit shares the artifact");
        assert_eq!(*first, v.visible_bitmap(&s), "artifact matches direct");
        let (r, _) = cache.ranges(&"p", &v, &s);
        assert_eq!(*r, v.visible_ranges(&s));
    }

    #[test]
    fn distinct_snapshots_get_distinct_slots() {
        let cache = VisibilityCache::new(64);
        let v = vector(&[(1, 2), (3, 2)]);
        let deps: BTreeSet<Epoch> = [3].into_iter().collect();
        let with_dep = Snapshot::new(4, deps);
        let without = Snapshot::committed(4);
        let (a, _) = cache.bitmap(&"p", &v, &with_dep);
        let (b, _) = cache.bitmap(&"p", &v, &without);
        // Same epoch, different deps: structurally different keys and
        // different bytes — a fingerprint scheme could collide here.
        assert_ne!(*a, *b);
        assert_eq!(cache.stats().misses, 2);
    }

    // One test per mutation class below: the affected partition's
    // cached keys must stop being served (and be reclaimable), while
    // an unaffected partition's warmed snapshots still hit.

    #[test]
    fn append_invalidates_affected_keys_only() {
        let cache = VisibilityCache::new(64);
        let mut a = vector(&[(1, 4)]);
        let b = vector(&[(1, 2)]);
        let s = Snapshot::committed(1);
        warm(&cache, "a", &a, &s);
        warm(&cache, "b", &b, &s);

        // Mutation class: append. Generation moves, so the old slots
        // are unreachable even before the explicit invalidate.
        a.append(2, 3);
        let (bm, hit) = cache.bitmap(&"a", &a, &s);
        assert!(!hit, "post-append lookup must not serve the stale slot");
        assert_eq!(*bm, a.visible_bitmap(&s), "recomputed artifact correct");

        // Explicit invalidation reclaims a's slots (old gen + new gen).
        assert_eq!(cache.invalidate(&"a"), 3);
        // Unaffected partition still hits.
        let (_, hit) = cache.bitmap(&"b", &b, &s);
        assert!(hit, "unaffected partition must keep hitting");
        let (_, hit) = cache.ranges(&"b", &b, &s);
        assert!(hit);
    }

    #[test]
    fn partition_delete_invalidates_affected_keys_only() {
        let cache = VisibilityCache::new(64);
        let mut a = vector(&[(1, 4)]);
        let b = vector(&[(1, 2)]);
        let s_old = Snapshot::committed(1);
        warm(&cache, "a", &a, &s_old);
        warm(&cache, "b", &b, &s_old);

        // Mutation class: partition delete (marker push).
        a.mark_delete(2);
        assert_eq!(cache.invalidate(&"a"), 2);

        // Old snapshot recomputes and still sees the rows (delete at
        // epoch 2 is invisible at epoch 1); a snapshot past the delete
        // sees nothing.
        let (bm, hit) = cache.bitmap(&"a", &a, &s_old);
        assert!(!hit);
        assert_eq!(bm.count_ones(), 4);
        let (bm2, _) = cache.bitmap(&"a", &a, &Snapshot::committed(2));
        assert_eq!(bm2.count_ones(), 0);

        let (_, hit) = cache.bitmap(&"b", &b, &s_old);
        assert!(hit, "unaffected partition must keep hitting");
    }

    #[test]
    fn rollback_invalidates_affected_keys_only() {
        let cache = VisibilityCache::new(64);
        let a = vector(&[(1, 2), (3, 3)]);
        let b = vector(&[(1, 2)]);
        let s = Snapshot::committed(3);
        warm(&cache, "a", &a, &s);
        warm(&cache, "b", &b, &s);

        // Mutation class: rollback rebuild. The replacement vector
        // continues the generation counter, so the stale slots keyed
        // at the old generation can never be served for it.
        let rolled = rollback_partition(&a, 3).vector;
        assert!(rolled.generation() > a.generation());
        let (bm, hit) = cache.bitmap(&"a", &rolled, &s);
        assert!(!hit, "rebuilt vector must miss the stale slot");
        assert_eq!(*bm, rolled.visible_bitmap(&s));
        assert_eq!(bm.count_ones(), 2, "aborted epoch's rows are gone");

        assert_eq!(cache.invalidate(&"a"), 3, "old-gen slots reclaimed");
        let (_, hit) = cache.bitmap(&"b", &b, &s);
        assert!(hit, "unaffected partition must keep hitting");
    }

    #[test]
    fn purge_invalidates_affected_keys_only() {
        let cache = VisibilityCache::new(64);
        let mut a = vector(&[(1, 2), (2, 3)]);
        a.mark_delete(3);
        let b = vector(&[(1, 2)]);
        let s = Snapshot::committed(4);
        warm(&cache, "a", &a, &s);
        warm(&cache, "b", &b, &s);

        // Mutation class: purge / LSE advance past the delete.
        let purged = purge(&a, 4).vector;
        assert!(purged.generation() > a.generation());
        assert_eq!(purged.row_count(), 0, "delete applied by purge");
        let (bm, hit) = cache.bitmap(&"a", &purged, &s);
        assert!(!hit, "purged vector must miss the stale slot");
        assert_eq!(bm.len(), 0);

        assert_eq!(cache.invalidate(&"a"), 3);
        let (_, hit) = cache.ranges(&"b", &b, &s);
        assert!(hit, "unaffected partition must keep hitting");
    }

    #[test]
    fn generation_is_never_reused_across_a_rebuild() {
        // The soundness property behind the key: after purge, a
        // lookup keyed by the *new* vector can not collide with a slot
        // cached for the old contents, even with no invalidate call.
        let cache = VisibilityCache::new(64);
        let mut v = vector(&[(1, 2)]);
        v.append(2, 2);
        let s = Snapshot::committed(2);
        let (old_bm, _) = cache.bitmap(&"p", &v, &s);
        assert_eq!(old_bm.count_ones(), 4);

        let purged = purge(&v, 2).vector; // merges entries, rows stay
        let (new_bm, hit) = cache.bitmap(&"p", &purged, &s);
        assert!(!hit);
        assert_eq!(*new_bm, purged.visible_bitmap(&s));
    }

    #[test]
    fn lru_evicts_the_coldest_slot_at_capacity() {
        let cache = VisibilityCache::new(2);
        let v = vector(&[(1, 2)]);
        let s1 = Snapshot::committed(1);
        let s2 = Snapshot::committed(2);
        let s3 = Snapshot::committed(3);
        cache.bitmap(&"p", &v, &s1);
        cache.bitmap(&"p", &v, &s2);
        // Touch s1 so s2 is the LRU victim.
        let (_, hit) = cache.bitmap(&"p", &v, &s1);
        assert!(hit);
        cache.bitmap(&"p", &v, &s3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit) = cache.bitmap(&"p", &v, &s1);
        assert!(hit, "recently used slot survives");
        let (_, hit) = cache.bitmap(&"p", &v, &s2);
        assert!(!hit, "cold slot was evicted");
    }

    #[test]
    fn corrupt_for_test_poisons_cached_artifacts() {
        let cache = VisibilityCache::new(64);
        let v = vector(&[(1, 3)]);
        let s = Snapshot::committed(1);
        cache.bitmap(&"p", &v, &s);
        cache.ranges(&"p", &v, &s);
        cache.corrupt_for_test();
        let (bm, hit) = cache.bitmap(&"p", &v, &s);
        assert!(hit, "corruption must not evict — that is the point");
        assert_ne!(*bm, v.visible_bitmap(&s));
        let (r, hit) = cache.ranges(&"p", &v, &s);
        assert!(hit);
        assert!(r.is_empty());
    }

    #[test]
    fn stats_and_report() {
        let cache: VisibilityCache<&'static str> = VisibilityCache::new(8);
        let v = vector(&[(1, 1)]);
        let s = Snapshot::committed(1);
        cache.bitmap(&"p", &v, &s);
        cache.bitmap(&"p", &v, &s);
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

    // SnapshotCache-generic behavior, exercised with an arbitrary
    // value type the visibility wrapper never stores.

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
