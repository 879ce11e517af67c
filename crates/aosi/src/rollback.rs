//! Rollback: physically removing an aborted transaction's operations
//! (Section III-C5).
//!
//! AOSI has no deterministic isolation conflicts, so rollbacks only
//! happen on consistency violations, non-deterministic failures, or
//! explicit user aborts — they are assumed rare and the protocol is
//! "optimistic and largely optimized for commits". A rollback scans
//! every partition's epochs vector, removes all rows and entries the
//! aborted transaction produced, and swaps in a rebuilt partition,
//! exactly like purge does.
//!
//! Until the swap happens the aborted rows are invisible anyway: the
//! aborted epoch is in every concurrent snapshot's `deps` and is
//! never `<=` a committed reader's epoch once the LCE rule skips it.

use crate::epoch::{Epoch, EpochEntry};
use crate::epochs::EpochsVector;
use columnar::Bitmap;
use obs::sync::unpoison;

/// The alternative rollback accelerator the paper describes and
/// rejects (Section III-C5): "keep an auxiliary global hash map to
/// associate transactions to the partitions in which they appended or
/// deleted data", so a rollback visits only the touched partitions
/// instead of scanning every epochs vector in the system.
///
/// We implement it so the trade-off is measurable (see the
/// `ablations` benchmark): the index makes rollbacks O(partitions
/// touched), at the price of one map entry per pending transaction x
/// partition. Entries are dropped on commit, so the footprint is
/// bounded by in-flight transactions — still a real cost on hot
/// ingest paths, which is why the paper (and our default engine
/// configuration) leaves it off.
#[derive(Debug, Default)]
pub struct TxnPartitionIndex {
    map: std::sync::Mutex<std::collections::HashMap<Epoch, std::collections::HashSet<u64>>>,
}

impl TxnPartitionIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `epoch` touched `partition`.
    pub fn record(&self, epoch: Epoch, partition: u64) {
        unpoison(self.map.lock())
            .entry(epoch)
            .or_default()
            .insert(partition);
    }

    /// Partitions `epoch` touched (empty if unknown).
    pub fn partitions_of(&self, epoch: Epoch) -> Vec<u64> {
        unpoison(self.map.lock())
            .get(&epoch)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Drops the entry for a finished transaction.
    pub fn forget(&self, epoch: Epoch) {
        unpoison(self.map.lock()).remove(&epoch);
    }

    /// Number of tracked transactions.
    pub fn len(&self) -> usize {
        unpoison(self.map.lock()).len()
    }

    /// `true` when no transaction is tracked.
    pub fn is_empty(&self) -> bool {
        unpoison(self.map.lock()).is_empty()
    }

    /// Approximate heap bytes — the footprint the paper trades away.
    pub fn heap_bytes(&self) -> usize {
        let map = unpoison(self.map.lock());
        let entries: usize = map.values().map(|s| s.capacity() * 16 + 48).sum();
        map.capacity() * 16 + entries
    }
}

/// Outcome of rolling one transaction back out of one partition.
#[derive(Clone, Debug)]
pub struct RollbackResult {
    /// The replacement epochs vector.
    pub vector: EpochsVector,
    /// Which old rows survive.
    pub keep: Bitmap,
    /// Rows removed (the aborted transaction's inserts).
    pub removed_rows: u64,
    /// `false` if the transaction never touched this partition, in
    /// which case the caller skips the swap.
    pub changed: bool,
}

/// Removes every operation of `aborted` from `partition`.
pub fn rollback_partition(partition: &EpochsVector, aborted: Epoch) -> RollbackResult {
    let rows = usize::try_from(partition.row_count()).expect("partition too large");
    let mut keep = Bitmap::new_set(rows);

    let mut touched = false;
    let mut start = 0usize;
    for entry in partition.entries() {
        if entry.is_delete() {
            touched |= entry.epoch() == aborted;
            continue;
        }
        let end = entry.end() as usize;
        if entry.epoch() == aborted {
            keep.clear_range(start, end);
            touched = true;
        }
        start = end;
    }
    if !touched {
        return RollbackResult {
            vector: partition.clone(),
            keep,
            removed_rows: 0,
            changed: false,
        };
    }

    let mut new_entries: Vec<EpochEntry> = Vec::new();
    for entry in partition.entries() {
        if entry.epoch() == aborted {
            continue;
        }
        if entry.is_delete() {
            let new_point = keep.count_ones_in_range(0, entry.end() as usize) as u64;
            new_entries.push(EpochEntry::delete(entry.epoch(), new_point));
            continue;
        }
        // Recompute the end over surviving rows only.
        let new_end = keep.count_ones_in_range(0, entry.end() as usize) as u64;
        match new_entries.last_mut() {
            // Runs separated only by the aborted transaction's rows
            // or markers collapse back together — but never across a
            // surviving delete marker or a different epoch.
            Some(last) if !last.is_delete() && last.epoch() == entry.epoch() => {
                *last = EpochEntry::insert(entry.epoch(), new_end);
            }
            _ => new_entries.push(EpochEntry::insert(entry.epoch(), new_end)),
        }
    }
    let surviving = keep.count_ones() as u64;
    // Generation continues past the source (see `purge::purge`).
    let mut vector = EpochsVector::from_parts(new_entries, surviving);
    vector.set_generation(partition.generation() + 1);
    RollbackResult {
        vector,
        keep,
        removed_rows: rows as u64 - surviving,
        changed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    fn render(v: &EpochsVector) -> String {
        v.entries().iter().map(|e| format!("{e:?}")).collect()
    }

    #[test]
    fn rollback_removes_only_aborted_rows() {
        let mut v = EpochsVector::new();
        v.append(1, 2);
        v.append(2, 3);
        v.append(3, 1);
        let r = rollback_partition(&v, 2);
        assert!(r.changed);
        assert_eq!(r.removed_rows, 3);
        assert_eq!(r.keep.to_bit_string(), "110001");
        assert_eq!(render(&r.vector), "(T1, 2)(T3, 3)");
    }

    #[test]
    fn rollback_of_interleaved_runs_removes_all_of_them() {
        let mut v = EpochsVector::new();
        v.append(1, 2);
        v.append(2, 2);
        v.append(1, 2);
        v.append(2, 2);
        let r = rollback_partition(&v, 2);
        assert_eq!(r.removed_rows, 4);
        // T1's two runs collapse back into one entry.
        assert_eq!(render(&r.vector), "(T1, 4)");
    }

    #[test]
    fn rollback_removes_delete_markers_too() {
        let mut v = EpochsVector::new();
        v.append(1, 3);
        v.mark_delete(2);
        let r = rollback_partition(&v, 2);
        assert!(r.changed);
        assert_eq!(r.removed_rows, 0);
        assert_eq!(render(&r.vector), "(T1, 3)");
        // T1's data is live again for later readers.
        let bm = r.vector.visible_bitmap(&Snapshot::committed(5));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn untouched_partition_reports_unchanged() {
        let mut v = EpochsVector::new();
        v.append(1, 3);
        let r = rollback_partition(&v, 9);
        assert!(!r.changed);
        assert_eq!(r.vector, v);
        assert_eq!(r.removed_rows, 0);
    }

    #[test]
    fn surviving_delete_points_are_remapped() {
        let mut v = EpochsVector::new();
        v.append(2, 4); // aborted rows
        v.append(3, 2);
        v.mark_delete(5); // delete point 6
        let r = rollback_partition(&v, 2);
        assert_eq!(render(&r.vector), "(T3, 2)(T5, DELETE@2)");
        // The delete still wipes T3 for readers that see it.
        let bm = r.vector.visible_bitmap(&Snapshot::committed(6));
        assert!(bm.is_all_zero());
    }

    #[test]
    fn runs_do_not_merge_across_surviving_markers() {
        let mut v = EpochsVector::new();
        v.append(1, 2);
        v.mark_delete(3);
        v.append(1, 2);
        v.append(2, 1);
        let r = rollback_partition(&v, 2);
        assert_eq!(render(&r.vector), "(T1, 2)(T3, DELETE@2)(T1, 4)");
    }

    #[test]
    fn rollback_then_visibility_equals_never_having_run() {
        // Property: a rolled-back transaction leaves no trace.
        let mut with_t2 = EpochsVector::new();
        let mut without_t2 = EpochsVector::new();
        with_t2.append(1, 3);
        without_t2.append(1, 3);
        with_t2.append(2, 5);
        with_t2.append(3, 2);
        without_t2.append(3, 2);
        with_t2.mark_delete(2);
        let r = rollback_partition(&with_t2, 2);
        assert_eq!(render(&r.vector), render(&without_t2));
        for reader in 1..=4 {
            let snap = Snapshot::committed(reader);
            assert_eq!(
                r.vector.visible_bitmap(&snap).to_bit_string(),
                without_t2.visible_bitmap(&snap).to_bit_string(),
                "reader {reader}"
            );
        }
    }

    #[test]
    fn txn_partition_index_tracks_and_forgets() {
        let idx = TxnPartitionIndex::new();
        assert!(idx.is_empty());
        idx.record(5, 10);
        idx.record(5, 11);
        idx.record(5, 10); // duplicate
        idx.record(7, 10);
        let mut p5 = idx.partitions_of(5);
        p5.sort_unstable();
        assert_eq!(p5, vec![10, 11]);
        assert_eq!(idx.len(), 2);
        assert!(idx.heap_bytes() > 0);
        idx.forget(5);
        assert!(idx.partitions_of(5).is_empty());
        assert_eq!(idx.partitions_of(7), vec![10]);
        idx.forget(99); // unknown: no-op
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn rollback_of_sole_transaction_empties_partition() {
        let mut v = EpochsVector::new();
        v.append(4, 10);
        v.mark_delete(4);
        v.append(4, 2);
        let r = rollback_partition(&v, 4);
        assert!(r.vector.is_empty());
        assert_eq!(r.vector.row_count(), 0);
        assert_eq!(r.removed_rows, 12);
    }
}
