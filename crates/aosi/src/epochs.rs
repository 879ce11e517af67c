//! The per-partition epochs vector (Section III-C, Figure 1).
//!
//! "Within each partition AOSI maintains an auxiliary vector called
//! *epochs* that keeps track of the association between records and
//! the transactions that inserted them." Each entry is one
//! `(epoch, idx)` pair — the implicit id of the last record the
//! transaction has inserted so far — plus a reserved bit marking
//! partition-delete events.
//!
//! Appends by the transaction already at the back of the vector
//! extend the back entry in place (Figure 1(b)); appends by any other
//! transaction push a new entry (Figure 1(c)). A partition-delete
//! pushes a marker carrying the current row count (Figure 2).
//!
//! The structure is single-writer by design: in Cubrick every
//! operation on a partition is applied by the one shard thread that
//! owns it (Section V-B), so the vector needs no internal locking —
//! this is where "completely lock-free" comes from.

use crate::epoch::{Epoch, EpochEntry};
use crate::snapshot::Snapshot;
use crate::visibility;
use columnar::Bitmap;

/// Transactional metadata for one partition.
#[derive(Clone, Debug, Default)]
pub struct EpochsVector {
    entries: Vec<EpochEntry>,
    /// Total rows in the partition's data vectors (the exclusive end
    /// of the last insert entry).
    rows: u64,
    /// Monotonic mutation counter: bumped by every entry-visible
    /// mutation (append, delete marker, purge, rollback). Two reads of
    /// the same partition observing the same generation are guaranteed
    /// to observe the same entries: entries are append-only between
    /// generation bumps, and rebuilds (purge, rollback) continue the
    /// counter rather than restarting it, so a generation value is
    /// never reused for different contents. Tier spill snapshots
    /// preserve it verbatim.
    generation: u64,
}

/// Equality compares the transactional content (entries and row
/// count), not the mutation [`generation`](EpochsVector::generation):
/// a purge-rebuilt vector equals a never-purged vector holding the
/// same entries even though their histories differ.
impl PartialEq for EpochsVector {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.rows == other.rows
    }
}

impl Eq for EpochsVector {}

impl EpochsVector {
    /// Empty vector for a fresh partition.
    pub fn new() -> Self {
        EpochsVector::default()
    }

    /// Rebuilds a vector from parts (used by purge/rollback/recovery).
    ///
    /// # Panics
    /// In debug builds, panics if insert-entry ends are not strictly
    /// increasing or `rows` mismatches the final end.
    pub fn from_parts(entries: Vec<EpochEntry>, rows: u64) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut prev = 0u64;
            for e in entries.iter().filter(|e| !e.is_delete()) {
                assert!(e.end() > prev || (e.end() == 0 && prev == 0));
                prev = e.end();
            }
            assert_eq!(prev, rows, "rows must equal the last insert end");
        }
        EpochsVector {
            entries,
            rows,
            generation: 0,
        }
    }

    /// Rebuilds a vector from parts **including its exact mutation
    /// generation** — the reload half of tiered storage. A spilled
    /// partition's snapshot stores the generation alongside the
    /// entries; restoring it verbatim keeps anything keyed on the
    /// generation before the eviction valid (the contents are
    /// bit-identical),
    /// and — because spill-eligible partitions are immutable-cold —
    /// no mutation can have advanced the counter in between, so the
    /// value can never alias different contents.
    ///
    /// # Panics
    /// In debug builds, panics under the same validation as
    /// [`EpochsVector::from_parts`].
    pub fn from_parts_with_generation(
        entries: Vec<EpochEntry>,
        rows: u64,
        generation: u64,
    ) -> Self {
        let mut vector = EpochsVector::from_parts(entries, rows);
        vector.generation = generation;
        vector
    }

    /// The mutation generation (see the field docs). Starts at 0 for a
    /// fresh partition and increases on every content change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Forces the generation counter, used by purge/rollback to carry
    /// the source partition's history forward (`source + 1`) so a
    /// rebuilt vector never reuses a generation that previously named
    /// different contents.
    pub(crate) fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Records the append of `count` rows by `epoch`.
    ///
    /// Returns the range of row ids `[start, end)` the caller must
    /// fill in the data vectors.
    pub fn append(&mut self, epoch: Epoch, count: u64) -> std::ops::Range<u64> {
        let start = self.rows;
        let end = start + count;
        if count == 0 {
            return start..end;
        }
        match self.entries.last_mut() {
            // Figure 1(b): same transaction still at the back — just
            // advance its idx.
            Some(last) if !last.is_delete() && last.epoch() == epoch => {
                last.extend_to(end);
            }
            _ => self.entries.push(EpochEntry::insert(epoch, end)),
        }
        self.rows = end;
        self.generation += 1;
        start..end
    }

    /// Records a partition-delete by `epoch` at the current row count.
    ///
    /// The data is only *marked* deleted; removal happens in purge
    /// once LSE passes the delete (Section III-C2).
    pub fn mark_delete(&mut self, epoch: Epoch) {
        self.entries.push(EpochEntry::delete(epoch, self.rows));
        self.generation += 1;
    }

    /// All entries, in append order.
    pub fn entries(&self) -> &[EpochEntry] {
        &self.entries
    }

    /// Total rows covered (the partition's data-vector length).
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// `true` if no entry has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if purge at `lse` would do useful work: a delete marker
    /// from an epoch `<= lse` is pending application, or two adjacent
    /// insert entries at or below `lse` can merge (Section III-C4:
    /// "if there are no entries … older than LSE and no pending
    /// delete operations, the purge procedure skips the … partition").
    pub fn needs_purge(&self, lse: Epoch) -> bool {
        let mut prev_insert_old = false;
        for e in &self.entries {
            if e.is_delete() {
                if e.epoch() <= lse {
                    return true;
                }
                // A retained marker breaks insert adjacency.
                prev_insert_old = false;
            } else if e.epoch() <= lse {
                if prev_insert_old {
                    return true;
                }
                prev_insert_old = true;
            } else {
                prev_insert_old = false;
            }
        }
        false
    }

    /// Materializes the visibility bitmap for `snapshot` over this
    /// partition (Section III-C3, Table III).
    pub fn visible_bitmap(&self, snapshot: &Snapshot) -> Bitmap {
        visibility::visible_bitmap(self, snapshot)
    }

    /// Number of rows `snapshot` sees, computed from visible ranges
    /// without materializing a bitmap.
    pub fn visible_rows(&self, snapshot: &Snapshot) -> u64 {
        visibility::visible_row_count(self, snapshot)
    }

    /// The visible rows as disjoint ascending ranges — what the
    /// production scan kernel walks.
    pub fn visible_ranges(&self, snapshot: &Snapshot) -> Vec<std::ops::Range<u64>> {
        visibility::visible_ranges(self, snapshot)
    }

    /// Heap bytes held by the entries — the "AOSI overhead" series of
    /// Figures 6 and 7.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<EpochEntry>()
    }

    /// Bytes actually used by live entries (capacity-independent).
    pub fn used_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<EpochEntry>()
    }

    /// Releases excess capacity (after purge shrinks the vector).
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders entries like the paper's figures: `(T1, 2)(T2, 8)…`
    fn render(v: &EpochsVector) -> String {
        v.entries().iter().map(|e| format!("{e:?}")).collect()
    }

    #[test]
    fn figure_1_walkthrough() {
        // Figure 1: T1 and T2 appending to the same partition.
        let mut v = EpochsVector::new();
        // (a) T1 inserts 3 records -> pair (T1, idx 2).
        assert_eq!(v.append(1, 3), 0..3);
        assert_eq!(v.entries().len(), 1);
        assert_eq!(v.entries()[0].last_idx(), Some(2));
        // (b) T1 inserts 2 more: back entry's idx is incremented.
        assert_eq!(v.append(1, 2), 3..5);
        assert_eq!(v.entries().len(), 1);
        assert_eq!(v.entries()[0].last_idx(), Some(4));
        // (c) T2 inserts 4: new pair (T2, idx 8).
        assert_eq!(v.append(2, 4), 5..9);
        assert_eq!(v.entries().len(), 2);
        assert_eq!(v.entries()[1].last_idx(), Some(8));
        // (d) T1 inserts 4 more: T1 is no longer at the back, so a
        // new entry is added.
        assert_eq!(v.append(1, 4), 9..13);
        assert_eq!(v.entries().len(), 3);
        assert_eq!(render(&v), "(T1, 5)(T2, 9)(T1, 13)");
        assert_eq!(v.row_count(), 13);
    }

    #[test]
    fn delete_marker_records_current_row_count() {
        let mut v = EpochsVector::new();
        v.append(1, 2);
        v.append(3, 2);
        v.mark_delete(5);
        v.append(3, 4);
        assert_eq!(render(&v), "(T1, 2)(T3, 4)(T5, DELETE@4)(T3, 8)");
        assert_eq!(v.row_count(), 8);
    }

    #[test]
    fn append_after_own_delete_starts_new_entry() {
        // A transaction appending after its own delete marker must not
        // extend an entry across the marker.
        let mut v = EpochsVector::new();
        v.append(3, 2);
        v.mark_delete(3);
        v.append(3, 2);
        assert_eq!(render(&v), "(T3, 2)(T3, DELETE@2)(T3, 4)");
    }

    #[test]
    fn zero_count_append_adds_nothing() {
        let mut v = EpochsVector::new();
        let r = v.append(1, 0);
        assert!(r.is_empty());
        assert!(v.is_empty());
        assert_eq!(v.row_count(), 0);
    }

    #[test]
    fn delete_on_empty_partition() {
        let mut v = EpochsVector::new();
        v.mark_delete(2);
        assert_eq!(v.row_count(), 0);
        assert_eq!(v.entries()[0].end(), 0);
        assert!(v.entries()[0].is_delete());
    }

    #[test]
    fn needs_purge_detects_applicable_deletes_and_old_history() {
        let mut v = EpochsVector::new();
        v.append(1, 2);
        assert!(!v.needs_purge(0), "nothing at or below LSE 0");
        assert!(!v.needs_purge(5), "single old entry cannot compact further");
        v.append(3, 2);
        assert!(v.needs_purge(3), "two old entries can merge");
        let mut d = EpochsVector::new();
        d.append(1, 2);
        d.mark_delete(2);
        assert!(!d.needs_purge(1), "delete at epoch 2 not yet safe");
        assert!(d.needs_purge(2), "delete at epoch 2 applicable");
    }

    #[test]
    fn memory_accounting_counts_entries_not_rows() {
        let mut v = EpochsVector::new();
        // One transaction loading a million rows in many batches costs
        // a single 16-byte entry — the paper's core memory claim.
        for _ in 0..1000 {
            v.append(1, 1000);
        }
        assert_eq!(v.row_count(), 1_000_000);
        assert_eq!(v.used_bytes(), 16);
    }

    #[test]
    fn from_parts_roundtrip() {
        let mut v = EpochsVector::new();
        v.append(1, 3);
        v.mark_delete(2);
        v.append(3, 1);
        let rebuilt = EpochsVector::from_parts(v.entries().to_vec(), v.row_count());
        assert_eq!(rebuilt, v);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows must equal")]
    fn from_parts_validates_rows() {
        EpochsVector::from_parts(vec![EpochEntry::insert(1, 3)], 5);
    }

    #[test]
    fn from_parts_with_generation_restores_the_counter_exactly() {
        let mut v = EpochsVector::new();
        v.append(1, 3);
        v.mark_delete(2);
        assert_eq!(v.generation(), 2);
        let rebuilt = EpochsVector::from_parts_with_generation(
            v.entries().to_vec(),
            v.row_count(),
            v.generation(),
        );
        assert_eq!(rebuilt, v);
        assert_eq!(rebuilt.generation(), v.generation());
        // Plain from_parts restarts the counter — the reload path must
        // not use it, or a generation observed before an eviction
        // would alias one the rebuilt vector re-earns later.
        assert_eq!(
            EpochsVector::from_parts(v.entries().to_vec(), v.row_count()).generation(),
            0
        );
    }

    #[test]
    fn generation_bumps_on_every_content_change() {
        let mut v = EpochsVector::new();
        assert_eq!(v.generation(), 0);
        v.append(1, 3);
        assert_eq!(v.generation(), 1);
        // In-place extension of the back entry is still a content
        // change: the bitmap for the same snapshot would gain rows.
        v.append(1, 2);
        assert_eq!(v.generation(), 2);
        v.mark_delete(2);
        assert_eq!(v.generation(), 3);
        // Zero-count appends change nothing and must not invalidate.
        v.append(3, 0);
        assert_eq!(v.generation(), 3);
    }

    #[test]
    fn equality_ignores_generation() {
        let mut a = EpochsVector::new();
        a.append(1, 2);
        a.append(1, 2);
        let mut b = EpochsVector::new();
        b.append(1, 4);
        assert_ne!(a.generation(), b.generation());
        assert_eq!(a, b, "same entries and rows compare equal");
    }
}
