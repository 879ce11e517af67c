//! The MVCC column store.
//!
//! A flat columnar table where every record slot carries a
//! [`VersionMeta`]. Updates follow the SAP HANA model the paper
//! describes (Section VII): "updates are modeled as a deletion plus
//! reinsertion" — the old version's `deleted_at` is stamped and a new
//! version appended, so record versions accumulate until a vacuum
//! pass, and every scan must test two timestamps per row.

use columnar::{Bitmap, Column, ColumnType, Dictionary, Row, Schema, Value};

use crate::meta::VersionMeta;
use crate::txn::{MvccError, MvccTxn, MvccTxnManager};

/// Counters describing the work a scan performed, used by the
/// benchmark harness to contrast with AOSI's range-based bitmaps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvccScanStats {
    /// Rows whose metadata was examined (all of them).
    pub rows_checked: u64,
    /// Rows visible to the snapshot.
    pub rows_visible: u64,
}

/// An in-memory MVCC table.
pub struct MvccStore {
    schema: Schema,
    columns: Vec<Column>,
    dictionaries: Vec<Option<Dictionary>>,
    meta: Vec<VersionMeta>,
    manager: MvccTxnManager,
    /// Versions superseded and vacuumable (for instrumentation).
    dead_versions: u64,
}

impl MvccStore {
    /// Creates an empty store over `schema`.
    pub fn new(schema: Schema, manager: MvccTxnManager) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.column_type))
            .collect();
        let dictionaries = schema
            .fields()
            .iter()
            .map(|f| (f.column_type == ColumnType::Str).then(Dictionary::new))
            .collect();
        MvccStore {
            schema,
            columns,
            dictionaries,
            meta: Vec::new(),
            manager,
            dead_versions: 0,
        }
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The associated transaction manager.
    pub fn manager(&self) -> &MvccTxnManager {
        &self.manager
    }

    /// Total record versions (live + dead + uncommitted).
    pub fn version_count(&self) -> usize {
        self.meta.len()
    }

    /// Versions superseded by updates/deletes, awaiting vacuum.
    pub fn dead_versions(&self) -> u64 {
        self.dead_versions
    }

    /// Bytes of per-record concurrency-control metadata — the
    /// baseline series of Figures 6 and 7 (16 bytes per version).
    pub fn metadata_bytes(&self) -> usize {
        self.meta.capacity() * std::mem::size_of::<VersionMeta>()
    }

    /// Bytes of record payload.
    pub fn data_bytes(&self) -> usize {
        self.columns.iter().map(Column::heap_bytes).sum()
    }

    /// Inserts one row on behalf of `txn`; returns the new row id.
    ///
    /// # Panics
    /// Panics if the row does not match the schema.
    pub fn insert(&mut self, txn: &mut MvccTxn, row: &Row) -> usize {
        assert!(self.schema.validates(row), "row does not match schema");
        let row_id = self.meta.len();
        for (idx, value) in row.iter().enumerate() {
            match (value, &mut self.dictionaries[idx]) {
                (Value::Str(s), Some(dict)) => {
                    let id = dict.encode(s);
                    self.columns[idx].push_str_id(id);
                }
                _ => {
                    let ok = self.columns[idx].push_value(value);
                    debug_assert!(ok);
                }
            }
        }
        self.meta.push(VersionMeta::creating(txn.id));
        txn.created.push(row_id);
        row_id
    }

    /// Deletes `row` on behalf of `txn` (first-updater-wins).
    pub fn delete(&mut self, txn: &mut MvccTxn, row: usize) -> Result<(), MvccError> {
        if !self.row_visible(txn.id, txn.read_ts, row) {
            return Err(MvccError::NotVisible { row });
        }
        let meta = &mut self.meta[row];
        if !meta.is_live() {
            // Another transaction (in-flight or committed after our
            // snapshot) already stamped a delete: conflict. This is
            // exactly the class of aborts AOSI designs away.
            return Err(MvccError::WriteConflict { row });
        }
        meta.deleted_at = crate::meta::TXN_ID_BIT | txn.id;
        txn.deleted.push(row);
        Ok(())
    }

    /// Updates `row` to `new_row`: stamps the old version deleted and
    /// appends the new version. Returns the new row id.
    pub fn update(
        &mut self,
        txn: &mut MvccTxn,
        row: usize,
        new_row: &Row,
    ) -> Result<usize, MvccError> {
        self.delete(txn, row)?;
        Ok(self.insert(txn, new_row))
    }

    /// Commits `txn`: rewrites its provisional stamps to a fresh
    /// commit timestamp.
    pub fn commit(&mut self, txn: &mut MvccTxn) -> Result<u64, MvccError> {
        if txn.finished {
            return Err(MvccError::TxnFinished(txn.id));
        }
        let commit_ts = self.manager.next_commit_ts();
        for &row in &txn.created {
            self.meta[row].created_at = commit_ts;
        }
        for &row in &txn.deleted {
            self.meta[row].deleted_at = commit_ts;
            self.dead_versions += 1;
        }
        txn.finished = true;
        Ok(commit_ts)
    }

    /// Aborts `txn`: created versions become permanently invisible,
    /// provisional deletes are cleared.
    pub fn abort(&mut self, txn: &mut MvccTxn) -> Result<(), MvccError> {
        if txn.finished {
            return Err(MvccError::TxnFinished(txn.id));
        }
        for &row in &txn.created {
            // Never visible to any snapshot; reclaimed by vacuum.
            self.meta[row].created_at = u64::MAX;
            self.meta[row].deleted_at = 0;
            self.dead_versions += 1;
        }
        for &row in &txn.deleted {
            self.meta[row].clear_delete();
        }
        txn.finished = true;
        Ok(())
    }

    fn slot_visible(observer_txn: u64, read_ts: u64, slot: u64) -> bool {
        if VersionMeta::is_txn_id(slot) {
            VersionMeta::txn_id(slot) == observer_txn
        } else {
            slot <= read_ts
        }
    }

    /// Is `row` visible to a snapshot (`observer_txn` sees its own
    /// provisional stamps)?
    pub fn row_visible(&self, observer_txn: u64, read_ts: u64, row: usize) -> bool {
        let meta = &self.meta[row];
        if !Self::slot_visible(observer_txn, read_ts, meta.created_at) {
            return false;
        }
        if meta.is_live() {
            return true;
        }
        !Self::slot_visible(observer_txn, read_ts, meta.deleted_at)
    }

    /// Builds the visibility bitmap for an in-flight transaction.
    pub fn scan(&self, txn: &MvccTxn) -> (Bitmap, MvccScanStats) {
        self.scan_at(txn.id, txn.read_ts)
    }

    /// Builds the visibility bitmap for a bare snapshot timestamp
    /// (read-only query).
    pub fn scan_snapshot(&self, read_ts: u64) -> (Bitmap, MvccScanStats) {
        self.scan_at(0, read_ts)
    }

    fn scan_at(&self, observer_txn: u64, read_ts: u64) -> (Bitmap, MvccScanStats) {
        let mut bitmap = Bitmap::new(self.meta.len());
        let mut visible = 0u64;
        // One branchy two-timestamp check per row: the cost structure
        // the paper contrasts with AOSI's per-run range sets.
        for (row, _) in self.meta.iter().enumerate() {
            if self.row_visible(observer_txn, read_ts, row) {
                bitmap.set(row);
                visible += 1;
            }
        }
        (
            bitmap,
            MvccScanStats {
                rows_checked: self.meta.len() as u64,
                rows_visible: visible,
            },
        )
    }

    /// Sums a numeric column over the rows set in `bitmap`.
    pub fn aggregate_sum(&self, column: usize, bitmap: &Bitmap) -> f64 {
        let col = &self.columns[column];
        bitmap
            .iter_ones()
            .map(|row| col.get_numeric(row).unwrap_or(0.0))
            .sum()
    }

    /// Reads a committed cell (for tests); strings come back decoded.
    pub fn get(&self, row: usize, column: usize) -> Option<Value> {
        let col = &self.columns[column];
        match col {
            Column::Str(_) => {
                let id = col.get_str_id(row)?;
                let dict = self.dictionaries[column].as_ref()?;
                Some(Value::Str(dict.decode(id)?.to_owned()))
            }
            Column::I64(_) => col.get_i64(row).map(Value::I64),
            Column::F64(_) => col.get_f64(row).map(Value::F64),
        }
    }

    /// Decodes every row visible at snapshot `read_ts`, in storage
    /// order. Snapshot-read parity with the AOSI engine's time-travel
    /// read (`Engine::read` at `At::Epoch`): the differential oracle
    /// replays a committed schedule into the store and compares
    /// aggregate results computed over these rows against the AOSI side
    /// at the matching epoch.
    pub fn rows_at(&self, read_ts: u64) -> Vec<Row> {
        let (bitmap, _) = self.scan_snapshot(read_ts);
        let arity = self.schema.fields().len();
        bitmap
            .iter_ones()
            .map(|row| {
                (0..arity)
                    .map(|col| {
                        self.get(row, col)
                            .expect("visible row has a value in every column")
                    })
                    .collect()
            })
            .collect()
    }

    /// Vacuum: drops versions invisible to every snapshot at or after
    /// `horizon` (dead before the horizon, or aborted). The MVCC
    /// analogue of AOSI's purge — but it must rewrite the whole table
    /// *and* its 16-byte-per-row metadata.
    pub fn vacuum(&mut self, horizon: u64) -> usize {
        let mut keep = Bitmap::new(self.meta.len());
        for (row, meta) in self.meta.iter().enumerate() {
            let aborted = meta.created_at == u64::MAX;
            let dead = !meta.is_live()
                && !VersionMeta::is_txn_id(meta.deleted_at)
                && meta.deleted_at <= horizon;
            if !aborted && !dead {
                keep.set(row);
            }
        }
        let removed = self.meta.len() - keep.count_ones();
        if removed == 0 {
            return 0;
        }
        for col in &mut self.columns {
            *col = col.retain_by_bitmap(&keep);
        }
        let mut new_meta = Vec::with_capacity(keep.count_ones());
        new_meta.extend(keep.iter_ones().map(|row| self.meta[row]));
        self.meta = new_meta;
        self.dead_versions = self.dead_versions.saturating_sub(removed as u64);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Field;

    fn store() -> MvccStore {
        let schema = Schema::new(vec![
            Field::new("region", ColumnType::Str),
            Field::new("likes", ColumnType::I64),
        ]);
        MvccStore::new(schema, MvccTxnManager::new())
    }

    fn row(region: &str, likes: i64) -> Row {
        vec![Value::from(region), Value::from(likes)]
    }

    #[test]
    fn committed_inserts_become_visible() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        s.insert(&mut t1, &row("us", 10));
        s.insert(&mut t1, &row("br", 20));
        // Invisible before commit to a fresh snapshot.
        let (bm, stats) = s.scan_snapshot(s.manager().latest());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(stats.rows_checked, 2);
        s.commit(&mut t1).unwrap();
        let (bm, _) = s.scan_snapshot(s.manager().latest());
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn txn_sees_own_uncommitted_writes() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        s.insert(&mut t1, &row("us", 10));
        let (bm, _) = s.scan(&t1);
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn snapshot_isolation_hides_later_commits() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        s.insert(&mut t1, &row("us", 10));
        s.commit(&mut t1).unwrap();
        let reader = s.manager().begin(); // snapshot at ts 1
        let mut t2 = s.manager().begin();
        s.insert(&mut t2, &row("br", 20));
        s.commit(&mut t2).unwrap();
        let (bm, _) = s.scan(&reader);
        assert_eq!(bm.count_ones(), 1, "reader must not see t2's insert");
    }

    #[test]
    fn delete_hides_row_from_later_snapshots_only() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let r = s.insert(&mut t1, &row("us", 10));
        s.commit(&mut t1).unwrap();
        let reader = s.manager().begin();
        let mut t2 = s.manager().begin();
        s.delete(&mut t2, r).unwrap();
        s.commit(&mut t2).unwrap();
        let (bm, _) = s.scan(&reader);
        assert_eq!(bm.count_ones(), 1, "old snapshot still sees the row");
        let (bm, _) = s.scan_snapshot(s.manager().latest());
        assert_eq!(bm.count_ones(), 0, "new snapshot does not");
    }

    #[test]
    fn update_creates_new_version() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let old = s.insert(&mut t1, &row("us", 10));
        s.commit(&mut t1).unwrap();
        let mut t2 = s.manager().begin();
        let new = s.update(&mut t2, old, &row("us", 99)).unwrap();
        s.commit(&mut t2).unwrap();
        assert_eq!(s.version_count(), 2, "update keeps both versions");
        assert_eq!(s.dead_versions(), 1);
        let (bm, _) = s.scan_snapshot(s.manager().latest());
        assert!(!bm.get(old) && bm.get(new));
        assert_eq!(s.get(new, 1), Some(Value::I64(99)));
    }

    #[test]
    fn concurrent_updates_conflict_first_updater_wins() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let r = s.insert(&mut t1, &row("us", 10));
        s.commit(&mut t1).unwrap();
        let mut a = s.manager().begin();
        let mut b = s.manager().begin();
        s.delete(&mut a, r).unwrap();
        assert_eq!(
            s.delete(&mut b, r),
            Err(MvccError::WriteConflict { row: r })
        );
        // Aborting the first updater releases the row.
        s.abort(&mut a).unwrap();
        s.delete(&mut b, r).unwrap();
        s.commit(&mut b).unwrap();
    }

    #[test]
    fn deleting_invisible_row_is_rejected() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let r = s.insert(&mut t1, &row("us", 10));
        // A different transaction can't see t1's uncommitted row.
        let mut t2 = s.manager().begin();
        assert_eq!(s.delete(&mut t2, r), Err(MvccError::NotVisible { row: r }));
        s.commit(&mut t1).unwrap();
    }

    #[test]
    fn abort_undoes_inserts_and_deletes() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let r = s.insert(&mut t1, &row("us", 10));
        s.commit(&mut t1).unwrap();
        let mut t2 = s.manager().begin();
        s.insert(&mut t2, &row("br", 20));
        s.delete(&mut t2, r).unwrap();
        s.abort(&mut t2).unwrap();
        let (bm, _) = s.scan_snapshot(s.manager().latest());
        assert_eq!(bm.count_ones(), 1);
        assert!(bm.get(r), "aborted delete must not stick");
    }

    #[test]
    fn double_finish_rejected() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        s.insert(&mut t1, &row("us", 1));
        s.commit(&mut t1).unwrap();
        assert_eq!(s.commit(&mut t1), Err(MvccError::TxnFinished(t1.id)));
        assert_eq!(s.abort(&mut t1), Err(MvccError::TxnFinished(t1.id)));
    }

    #[test]
    fn metadata_bytes_grow_sixteen_per_version() {
        let mut s = store();
        let mut t = s.manager().begin();
        for i in 0..1000 {
            s.insert(&mut t, &row("us", i));
        }
        s.commit(&mut t).unwrap();
        assert!(s.metadata_bytes() >= 16_000);
        assert_eq!(s.version_count(), 1000);
    }

    #[test]
    fn vacuum_reclaims_dead_and_aborted_versions() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let a = s.insert(&mut t1, &row("us", 1));
        s.insert(&mut t1, &row("br", 2));
        s.commit(&mut t1).unwrap();
        let mut t2 = s.manager().begin();
        s.update(&mut t2, a, &row("us", 3)).unwrap();
        s.commit(&mut t2).unwrap();
        let mut t3 = s.manager().begin();
        s.insert(&mut t3, &row("mx", 4));
        s.abort(&mut t3).unwrap();
        assert_eq!(s.version_count(), 4);
        let removed = s.vacuum(s.manager().latest());
        assert_eq!(removed, 2, "one superseded + one aborted");
        assert_eq!(s.version_count(), 2);
        let (bm, _) = s.scan_snapshot(s.manager().latest());
        assert_eq!(bm.count_ones(), 2);
        let sum = s.aggregate_sum(1, &bm);
        assert_eq!(sum, 5.0, "likes 2 + 3 survive");
    }

    #[test]
    fn vacuum_respects_horizon() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        let r = s.insert(&mut t1, &row("us", 1));
        s.commit(&mut t1).unwrap();
        let old_snapshot = s.manager().latest(); // ts 1
        let mut t2 = s.manager().begin();
        s.delete(&mut t2, r).unwrap();
        s.commit(&mut t2).unwrap(); // deleted at ts 2
                                    // A reader at ts 1 still needs the row: horizon 1 keeps it.
        assert_eq!(s.vacuum(old_snapshot), 0);
        assert_eq!(s.vacuum(s.manager().latest()), 1);
    }

    #[test]
    fn aggregate_sum_over_bitmap() {
        let mut s = store();
        let mut t = s.manager().begin();
        for i in 1..=10 {
            s.insert(&mut t, &row("us", i));
        }
        s.commit(&mut t).unwrap();
        let (bm, _) = s.scan_snapshot(s.manager().latest());
        assert_eq!(s.aggregate_sum(1, &bm), 55.0);
    }

    #[test]
    fn rows_at_decodes_each_snapshot() {
        let mut s = store();
        let mut t1 = s.manager().begin();
        s.insert(&mut t1, &row("us", 1));
        let victim = s.insert(&mut t1, &row("br", 2));
        let ts1 = s.commit(&mut t1).unwrap();
        let mut t2 = s.manager().begin();
        s.delete(&mut t2, victim).unwrap();
        s.insert(&mut t2, &row("mx", 3));
        let ts2 = s.commit(&mut t2).unwrap();
        assert_eq!(s.rows_at(0), Vec::<Row>::new());
        assert_eq!(s.rows_at(ts1), vec![row("us", 1), row("br", 2)]);
        assert_eq!(s.rows_at(ts2), vec![row("us", 1), row("mx", 3)]);
    }
}
