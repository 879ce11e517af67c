//! Bricks: sparse columnar partitions (Section V-A, Figure 4(c)).
//!
//! "Within each brick, data is stored column-wise using one vector
//! per column and implicit record ids." Dimension coordinates are
//! `u32` (already dictionary-encoded for string dimensions); metrics
//! are typed columns. The only concurrency-control state is the AOSI
//! epochs vector — no per-record timestamps anywhere.

use std::ops::Range;

use aosi::{purge, rollback, Epoch, EpochsVector, Snapshot};
use columnar::{extend_doubling, BessVector, Bitmap, Column};

use crate::ddl::CubeSchema;
use crate::ingest::RecordChunk;

/// How a brick stores its dimension coordinates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DimStorage {
    /// One `Vec<u32>` per dimension (simple, fastest access).
    #[default]
    Plain,
    /// All dimensions bit-packed into one bess vector (the paper's
    /// footnote-3 layout; far smaller for low-cardinality schemas).
    Bess,
}

/// Memory breakdown of one brick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrickMemory {
    /// Bytes of dimension + metric payload.
    pub data_bytes: usize,
    /// Bytes of AOSI metadata (the epochs vector).
    pub aosi_bytes: usize,
    /// Rows stored.
    pub rows: u64,
}

#[derive(Clone, Debug)]
enum DimStore {
    Plain(Vec<Vec<u32>>),
    Bess(BessVector),
}

/// One materialized partition.
#[derive(Clone, Debug)]
pub struct Brick {
    dims: DimStore,
    metrics: Vec<Column>,
    epochs: EpochsVector,
}

impl Brick {
    /// Materializes an empty brick for `schema` with plain dimension
    /// storage.
    pub fn new(schema: &CubeSchema) -> Self {
        Brick::with_storage(schema, DimStorage::Plain)
    }

    /// Materializes an empty brick with the chosen dimension layout.
    pub fn with_storage(schema: &CubeSchema, storage: DimStorage) -> Self {
        let dims = match storage {
            DimStorage::Plain => DimStore::Plain(vec![Vec::new(); schema.dimensions.len()]),
            DimStorage::Bess => {
                let cards: Vec<u32> = schema.dimensions.iter().map(|d| d.cardinality).collect();
                DimStore::Bess(BessVector::new(&cards))
            }
        };
        Brick {
            dims,
            metrics: schema.metric_columns(),
            epochs: EpochsVector::new(),
        }
    }

    /// The dimension layout this brick uses.
    pub fn storage_kind(&self) -> DimStorage {
        match &self.dims {
            DimStore::Plain(_) => DimStorage::Plain,
            DimStore::Bess(_) => DimStorage::Bess,
        }
    }

    /// Materializes dimension `dim` as an owned coordinate column,
    /// for either layout — what the tier spill codec writes. Cold
    /// path: scans use [`Brick::dim_slice`] / [`Brick::gather_dim`].
    pub fn dim_coords(&self, dim: usize) -> Vec<u32> {
        self.dim_range(dim, 0..self.row_count() as usize)
    }

    fn dim_range(&self, dim: usize, rows: Range<usize>) -> Vec<u32> {
        match &self.dims {
            DimStore::Plain(dims) => dims[dim][rows].to_vec(),
            DimStore::Bess(bess) => {
                let rows: Vec<u32> = (rows.start as u32..rows.end as u32).collect();
                let mut out = Vec::new();
                bess.gather_dim(dim, &rows, &mut out);
                out
            }
        }
    }

    /// Reassembles a brick from a spilled snapshot: per-dimension
    /// coordinate columns, typed metric columns, and the epochs
    /// vector carrying its **original generation** (see
    /// [`EpochsVector::from_parts_with_generation`]) so cache slots
    /// keyed before the eviction stay valid. The result is
    /// bit-identical to the spilled brick under every scan path: a
    /// plain layout adopts the columns directly, a bess layout
    /// repacks the same coordinates deterministically.
    ///
    /// # Panics
    /// Panics when the parts disagree with each other or with
    /// `schema` — a snapshot that decoded to mismatched lengths must
    /// never be installed.
    pub fn restore(
        schema: &CubeSchema,
        storage: DimStorage,
        dim_columns: Vec<Vec<u32>>,
        metrics: Vec<Column>,
        epochs: EpochsVector,
    ) -> Self {
        let rows = epochs.row_count();
        assert_eq!(
            dim_columns.len(),
            schema.dimensions.len(),
            "dimension count mismatch"
        );
        assert_eq!(metrics.len(), schema.metrics.len(), "metric count mismatch");
        for d in &dim_columns {
            assert_eq!(d.len() as u64, rows, "dimension column length mismatch");
        }
        for m in &metrics {
            assert_eq!(m.len() as u64, rows, "metric column length mismatch");
        }
        let dims = match storage {
            DimStorage::Plain => DimStore::Plain(dim_columns),
            DimStorage::Bess => {
                let cards: Vec<u32> = schema.dimensions.iter().map(|d| d.cardinality).collect();
                let mut bess = BessVector::new(&cards);
                pack_columns(&mut bess, &dim_columns);
                DimStore::Bess(bess)
            }
        };
        Brick {
            dims,
            metrics,
            epochs,
        }
    }

    /// Appends a chunk of parsed records on behalf of transaction
    /// `epoch`, column by column. Capacities grow as per-row pushes
    /// would grow them (see [`extend_doubling`]), so a brick's
    /// footprint does not depend on the batch size it was loaded in.
    ///
    /// Applied by the owning shard thread only, so the append is
    /// lock-free by construction (Section V-B).
    pub fn append(&mut self, epoch: Epoch, chunk: &RecordChunk) {
        if chunk.is_empty() {
            return;
        }
        // Checked before anything is written: a chunk of another
        // shape would leave the columns at different lengths.
        let rows = chunk.len();
        assert!(
            chunk.coords.len() == self.num_dims()
                && chunk.coords.iter().all(|c| c.len() == rows)
                && chunk.metrics.iter().all(|m| m.len() == rows)
                && chunk
                    .metrics
                    .iter()
                    .map(Column::column_type)
                    .eq(self.metrics.iter().map(Column::column_type)),
            "chunk shape does not match the brick's schema"
        );
        let range = self.epochs.append(epoch, rows as u64);
        debug_assert_eq!(range.end - range.start, rows as u64);
        match &mut self.dims {
            DimStore::Plain(dims) => {
                for (dim, coords) in dims.iter_mut().zip(&chunk.coords) {
                    extend_doubling(dim, coords);
                }
            }
            DimStore::Bess(bess) => pack_columns(bess, &chunk.coords),
        }
        for (col, values) in self.metrics.iter_mut().zip(&chunk.metrics) {
            let extended = col.extend_from_column(values);
            debug_assert!(extended, "types were checked above");
        }
    }

    /// Copies the records at `rows` out as a chunk — what delta
    /// export and the elastic handoff carry for one epochs-vector run.
    pub fn chunk(&self, rows: Range<usize>) -> RecordChunk {
        RecordChunk {
            coords: (0..self.num_dims())
                .map(|dim| self.dim_range(dim, rows.clone()))
                .collect(),
            metrics: self.metrics.iter().map(|m| m.slice(rows.clone())).collect(),
        }
    }

    /// Marks the whole brick deleted by transaction `epoch`.
    pub fn mark_delete(&mut self, epoch: Epoch) {
        self.epochs.mark_delete(epoch);
    }

    /// Rows physically stored (including not-yet-visible and
    /// logically deleted ones).
    pub fn row_count(&self) -> u64 {
        self.epochs.row_count()
    }

    /// The AOSI visibility bitmap for `snapshot`.
    pub fn visibility(&self, snapshot: &Snapshot) -> Bitmap {
        self.epochs.visible_bitmap(snapshot)
    }

    /// A read-uncommitted "bitmap": every stored row.
    pub fn all_rows(&self) -> Bitmap {
        Bitmap::new_set(self.row_count() as usize)
    }

    /// Number of dimension columns.
    pub fn num_dims(&self) -> usize {
        match &self.dims {
            DimStore::Plain(dims) => dims.len(),
            DimStore::Bess(bess) => bess.num_dims(),
        }
    }

    /// Number of metric columns.
    pub fn num_metrics(&self) -> usize {
        self.metrics.len()
    }

    /// Coordinate of dimension `dim` at `row` (works for either
    /// layout).
    #[inline]
    pub fn dim_value(&self, dim: usize, row: usize) -> u32 {
        match &self.dims {
            DimStore::Plain(dims) => dims[dim][row],
            DimStore::Bess(bess) => bess.get(row, dim),
        }
    }

    /// Dimension coordinates of column `dim` as a slice.
    ///
    /// # Panics
    /// Panics for bess-packed bricks, which have no per-dimension
    /// slices — use [`Brick::dim_value`].
    pub fn dim_column(&self, dim: usize) -> &[u32] {
        match &self.dims {
            DimStore::Plain(dims) => &dims[dim],
            DimStore::Bess(_) => {
                panic!("dim_column on a bess-packed brick; use dim_value")
            }
        }
    }

    /// Dimension coordinates of column `dim` as a contiguous slice,
    /// when the layout has one: the non-panicking form of
    /// [`Brick::dim_column`]. `None` for bess-packed bricks — use
    /// [`Brick::gather_dim`] there.
    pub fn dim_slice(&self, dim: usize) -> Option<&[u32]> {
        match &self.dims {
            DimStore::Plain(dims) => Some(&dims[dim]),
            DimStore::Bess(_) => None,
        }
    }

    /// Decodes the coordinates of `dim` for every row id in `rows`
    /// into `out` (cleared first) — the gather fallback scan kernels
    /// use when [`Brick::dim_slice`] is unavailable. Works for either
    /// layout.
    pub fn gather_dim(&self, dim: usize, rows: &[u32], out: &mut Vec<u32>) {
        match &self.dims {
            DimStore::Plain(dims) => {
                let col = &dims[dim];
                out.clear();
                out.reserve(rows.len());
                out.extend(rows.iter().map(|&row| col[row as usize]));
            }
            DimStore::Bess(bess) => bess.gather_dim(dim, rows, out),
        }
    }

    /// Metric column `metric`.
    pub fn metric_column(&self, metric: usize) -> &Column {
        &self.metrics[metric]
    }

    /// The brick's epochs vector (protocol-level inspection).
    pub fn epochs(&self) -> &EpochsVector {
        &self.epochs
    }

    /// Whether purge at `lse` would change this brick.
    pub fn needs_purge(&self, lse: Epoch) -> bool {
        self.epochs.needs_purge(lse)
    }

    /// Purges the brick at `lse`: applies safe deletes, compacts
    /// history, rebuilds the data vectors, and swaps in place.
    /// Returns `(rows_purged, entries_reclaimed)`.
    pub fn purge(&mut self, lse: Epoch) -> (u64, usize) {
        let result = purge::purge(&self.epochs, lse);
        if !result.changed {
            return (0, 0);
        }
        if result.purged_rows > 0 {
            self.rebuild_data(&result.keep);
        }
        self.epochs = result.vector;
        self.epochs.shrink_to_fit();
        (result.purged_rows, result.entries_reclaimed)
    }

    /// Removes an aborted transaction's rows. Returns rows removed.
    pub fn rollback(&mut self, aborted: Epoch) -> u64 {
        let result = rollback::rollback_partition(&self.epochs, aborted);
        if !result.changed {
            return 0;
        }
        if result.removed_rows > 0 {
            self.rebuild_data(&result.keep);
        }
        self.epochs = result.vector;
        result.removed_rows
    }

    fn rebuild_data(&mut self, keep: &Bitmap) {
        match &mut self.dims {
            DimStore::Plain(dims) => {
                for dim in dims {
                    let mut new_dim = Vec::with_capacity(keep.count_ones());
                    new_dim.extend(keep.iter_ones().map(|row| dim[row]));
                    *dim = new_dim;
                }
            }
            DimStore::Bess(bess) => *bess = bess.retain_by_bitmap(keep),
        }
        for col in &mut self.metrics {
            *col = col.retain_by_bitmap(keep);
        }
    }

    /// Metric-column bytes only (test support for layout
    /// comparisons).
    #[doc(hidden)]
    pub fn metric_bytes_for_test(&self) -> usize {
        self.metrics.iter().map(Column::heap_bytes).sum()
    }

    /// Swaps in a raw metric column (test support: the schema cannot
    /// produce non-numeric metric cells, so kernel tests pinning the
    /// skip-non-numeric semantics inject a `Column::Str` here).
    ///
    /// # Panics
    /// Panics if the replacement's length differs from the brick's
    /// row count.
    #[doc(hidden)]
    pub fn replace_metric_for_test(&mut self, metric: usize, column: Column) {
        assert_eq!(
            column.len() as u64,
            self.row_count(),
            "replacement metric column length mismatch"
        );
        self.metrics[metric] = column;
    }

    /// Memory accounting for the overhead experiments and the
    /// eviction budget. Counts every heap allocation the brick owns:
    /// for plain storage that includes the outer spine (one `Vec`
    /// header per dimension lives on the heap too), for bess the
    /// packed words plus the field table.
    pub fn memory(&self) -> BrickMemory {
        let dim_bytes: usize = match &self.dims {
            DimStore::Plain(dims) => {
                dims.capacity() * std::mem::size_of::<Vec<u32>>()
                    + dims
                        .iter()
                        .map(|d| d.capacity() * std::mem::size_of::<u32>())
                        .sum::<usize>()
            }
            DimStore::Bess(bess) => bess.heap_bytes(),
        };
        let metric_bytes: usize = self.metrics.iter().map(Column::heap_bytes).sum();
        BrickMemory {
            data_bytes: dim_bytes + metric_bytes,
            aosi_bytes: self.epochs.heap_bytes(),
            rows: self.row_count(),
        }
    }
}

/// Packs per-dimension coordinate columns (of one length) onto `bess`,
/// record by record.
fn pack_columns(bess: &mut BessVector, columns: &[Vec<u32>]) {
    let mut coords = vec![0u32; columns.len()];
    for row in 0..columns.first().map_or(0, Vec::len) {
        for (coord, column) in coords.iter_mut().zip(columns) {
            *coord = column[row];
        }
        bess.push(&coords);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use columnar::Value;

    fn schema() -> CubeSchema {
        CubeSchema::new(
            "t",
            vec![Dimension::int("d", 8, 2)],
            vec![Metric::int("m"), Metric::float("f")],
        )
        .unwrap()
    }

    type Rec = (Vec<u32>, Vec<Value>);

    fn rec(coord: u32, m: i64, f: f64) -> Rec {
        (vec![coord], vec![Value::I64(m), Value::F64(f)])
    }

    fn chunk(recs: &[Rec]) -> RecordChunk {
        RecordChunk::from_rows(recs)
    }

    #[test]
    fn append_fills_all_columns() {
        let mut b = Brick::new(&schema());
        b.append(1, &chunk(&[rec(0, 10, 0.5), rec(1, 20, 1.5)]));
        assert_eq!(b.row_count(), 2);
        assert_eq!(b.dim_column(0), &[0, 1]);
        assert_eq!(b.metric_column(0).get_i64(1), Some(20));
        assert_eq!(b.metric_column(1).get_f64(0), Some(0.5));
    }

    #[test]
    fn visibility_respects_snapshots() {
        let mut b = Brick::new(&schema());
        b.append(1, &chunk(&[rec(0, 1, 0.0)]));
        b.append(3, &chunk(&[rec(1, 2, 0.0)]));
        let bm = b.visibility(&Snapshot::committed(1));
        assert_eq!(bm.to_bit_string(), "10");
        let bm = b.visibility(&Snapshot::committed(3));
        assert_eq!(bm.to_bit_string(), "11");
        assert_eq!(b.all_rows().count_ones(), 2, "RU sees everything");
    }

    #[test]
    fn purge_rebuilds_data_vectors() {
        let mut b = Brick::new(&schema());
        b.append(1, &chunk(&[rec(0, 1, 0.0), rec(1, 2, 0.0)]));
        b.mark_delete(2);
        b.append(3, &chunk(&[rec(2, 3, 0.0)]));
        let (purged, _) = b.purge(3);
        assert_eq!(purged, 2);
        assert_eq!(b.row_count(), 1);
        assert_eq!(b.dim_column(0), &[2]);
        assert_eq!(b.metric_column(0).get_i64(0), Some(3));
        assert_eq!(b.epochs().entries().len(), 1);
    }

    #[test]
    fn rollback_rebuilds_data_vectors() {
        let mut b = Brick::new(&schema());
        b.append(1, &chunk(&[rec(0, 1, 0.0)]));
        b.append(2, &chunk(&[rec(1, 2, 0.0), rec(2, 3, 0.0)]));
        b.append(1, &chunk(&[rec(3, 4, 0.0)]));
        assert_eq!(b.rollback(2), 2);
        assert_eq!(b.row_count(), 2);
        assert_eq!(b.dim_column(0), &[0, 3]);
        assert_eq!(b.metric_column(0).get_i64(1), Some(4));
        assert_eq!(b.rollback(9), 0, "unknown epoch is a no-op");
    }

    #[test]
    fn memory_counts_payload_and_metadata_separately() {
        let mut b = Brick::new(&schema());
        let recs: Vec<Rec> = (0..100).map(|i| rec(i % 8, i as i64, 0.0)).collect();
        b.append(1, &chunk(&recs));
        let m = b.memory();
        assert_eq!(m.rows, 100);
        // 100 x (4B dim + 8B + 8B metrics), capacities may round up.
        assert!(m.data_bytes >= 2000);
        // One epochs entry regardless of row count.
        assert!(m.aosi_bytes >= 16 && m.aosi_bytes < 1024);
    }

    /// Audit (ISSUE 10 satellite): the eviction budget is driven by
    /// `memory()`, so it must agree with an *independent* enumeration
    /// of every allocation the brick owns — catching omissions like
    /// the plain-layout spine or the bess field table, which the
    /// composed accessors used to drop.
    #[test]
    fn memory_matches_an_independent_allocation_walk() {
        let schema = CubeSchema::new(
            "wide",
            (0..6)
                .map(|i| Dimension::int(format!("d{i}"), 8, 2))
                .collect(),
            vec![Metric::int("m"), Metric::float("f")],
        )
        .unwrap();
        let mut b = Brick::with_storage(&schema, DimStorage::Plain);
        let recs: Vec<Rec> = (0..300)
            .map(|i| (vec![i % 8; 6], vec![Value::I64(i as i64), Value::F64(0.5)]))
            .collect();
        b.append(1, &chunk(&recs));
        b.mark_delete(2);
        b.append(3, &chunk(&recs[..50]));

        // Walk the actual structures allocation by allocation.
        let DimStore::Plain(dims) = &b.dims else {
            unreachable!()
        };
        let mut expected_data = dims.capacity() * std::mem::size_of::<Vec<u32>>();
        for d in dims {
            expected_data += d.capacity() * std::mem::size_of::<u32>();
        }
        for col in &b.metrics {
            expected_data += match col {
                Column::I64(v) => v.capacity() * std::mem::size_of::<i64>(),
                Column::F64(v) => v.capacity() * std::mem::size_of::<f64>(),
                Column::Str(v) => v.capacity() * std::mem::size_of::<u32>(),
            };
        }
        let m = b.memory();
        assert_eq!(m.data_bytes, expected_data);
        assert!(m.aosi_bytes >= b.epochs.entries().len() * 16);
    }

    #[test]
    fn restore_roundtrips_both_layouts_bit_identically() {
        let schema = schema();
        let recs: Vec<Rec> = (0..200)
            .map(|i| rec(i % 8, i as i64, i as f64 / 2.0))
            .collect();
        for storage in [DimStorage::Plain, DimStorage::Bess] {
            let mut original = Brick::with_storage(&schema, storage);
            original.append(1, &chunk(&recs[..120]));
            original.mark_delete(2);
            original.append(3, &chunk(&recs[120..]));

            let dims: Vec<Vec<u32>> = (0..original.num_dims())
                .map(|d| original.dim_coords(d))
                .collect();
            let metrics: Vec<Column> = (0..original.num_metrics())
                .map(|m| original.metric_column(m).clone())
                .collect();
            let epochs = EpochsVector::from_parts_with_generation(
                original.epochs().entries().to_vec(),
                original.row_count(),
                original.epochs().generation(),
            );
            let restored = Brick::restore(&schema, storage, dims, metrics, epochs);

            assert_eq!(restored.storage_kind(), storage);
            assert_eq!(restored.row_count(), original.row_count());
            assert_eq!(
                restored.epochs().generation(),
                original.epochs().generation(),
                "reload must carry the cache-invalidation token verbatim"
            );
            for row in 0..original.row_count() as usize {
                assert_eq!(restored.dim_value(0, row), original.dim_value(0, row));
                assert_eq!(
                    restored.metric_column(0).get_i64(row),
                    original.metric_column(0).get_i64(row)
                );
                assert_eq!(
                    restored.metric_column(1).get_f64(row),
                    original.metric_column(1).get_f64(row)
                );
            }
            for reader in 1..=4 {
                let snap = Snapshot::committed(reader);
                assert_eq!(
                    restored.visibility(&snap).to_bit_string(),
                    original.visibility(&snap).to_bit_string(),
                    "reader {reader}"
                );
            }
        }
    }

    #[test]
    fn plain_memory_includes_the_dimension_spine() {
        // A freshly materialized 6-dimension plain brick owns six Vec
        // headers on the heap before any row arrives; this read 0
        // before the audit fix.
        let schema = CubeSchema::new(
            "wide",
            (0..6)
                .map(|i| Dimension::int(format!("d{i}"), 8, 2))
                .collect(),
            vec![Metric::int("m")],
        )
        .unwrap();
        let b = Brick::with_storage(&schema, DimStorage::Plain);
        assert!(b.memory().data_bytes >= 6 * std::mem::size_of::<Vec<u32>>());
    }

    /// The growth rule: a brick filled in batches must land on the
    /// capacities per-row pushes gave (power-of-two doubling), not on
    /// a `39·2ᵏ` sequence. The expected bytes were recorded from the
    /// push-filled brick of the commit before chunks existed.
    #[test]
    fn chunk_filled_brick_has_the_footprint_of_a_push_filled_one() {
        for (storage, expected) in [(DimStorage::Plain, 81_944), (DimStorage::Bess, 67_592)] {
            let mut b = Brick::with_storage(&schema(), storage);
            for c in 0..100u32 {
                let recs: Vec<Rec> = (0..39).map(|i| rec((c + i) % 8, i as i64, 0.5)).collect();
                b.append(1 + u64::from(c), &chunk(&recs));
            }
            assert_eq!(b.row_count(), 3900);
            assert_eq!(b.memory().data_bytes, expected, "{storage:?}");
        }
    }

    #[test]
    fn chunk_copies_a_run_back_out_of_either_layout() {
        let first: Vec<Rec> = (0..70).map(|i| rec(i % 8, i as i64, 0.25)).collect();
        let second: Vec<Rec> = (0..30).map(|i| rec(7 - i % 8, -(i as i64), 1.5)).collect();
        for storage in [DimStorage::Plain, DimStorage::Bess] {
            let mut b = Brick::with_storage(&schema(), storage);
            b.append(1, &chunk(&first));
            b.append(2, &chunk(&second));
            assert_eq!(b.chunk(0..70), chunk(&first), "{storage:?}");
            assert_eq!(b.chunk(70..100), chunk(&second), "{storage:?}");
        }
    }

    #[test]
    fn a_chunk_of_another_shape_is_refused_before_anything_is_written() {
        let wrong_type = chunk(&[(vec![0], vec![Value::F64(0.5), Value::F64(0.5)])]);
        let mut ragged = chunk(&[rec(0, 1, 0.5), rec(1, 2, 0.5)]);
        ragged.metrics[1] = Column::F64(vec![0.5]);
        for bad in [wrong_type, ragged] {
            let mut b = Brick::new(&schema());
            let refused = std::panic::catch_unwind(move || {
                b.append(1, &bad);
                b
            });
            assert!(refused.is_err(), "a malformed chunk must not be appended");
        }
    }

    #[test]
    fn empty_append_is_noop() {
        let mut b = Brick::new(&schema());
        b.append(1, &chunk(&[]));
        assert_eq!(b.row_count(), 0);
        assert!(b.epochs().is_empty());
    }

    #[test]
    fn bess_brick_behaves_like_plain() {
        let schema = schema();
        let mut plain = Brick::with_storage(&schema, DimStorage::Plain);
        let mut bess = Brick::with_storage(&schema, DimStorage::Bess);
        let recs: Vec<Rec> = (0..200).map(|i| rec(i % 8, i as i64, 0.5)).collect();
        for b in [&mut plain, &mut bess] {
            b.append(1, &chunk(&recs[..100]));
            b.append(2, &chunk(&recs[100..150]));
            b.mark_delete(3);
            b.append(4, &chunk(&recs[150..]));
        }
        assert_eq!(plain.row_count(), bess.row_count());
        for row in 0..plain.row_count() as usize {
            assert_eq!(plain.dim_value(0, row), bess.dim_value(0, row), "row {row}");
        }
        for reader in 1..=5 {
            let snap = Snapshot::committed(reader);
            assert_eq!(
                plain.visibility(&snap).to_bit_string(),
                bess.visibility(&snap).to_bit_string(),
                "reader {reader}"
            );
        }
        // Purge rebuilds both layouts identically.
        let (p_rows, _) = plain.purge(5);
        let (b_rows, _) = bess.purge(5);
        assert_eq!(p_rows, b_rows);
        assert_eq!(plain.row_count(), bess.row_count());
        for row in 0..plain.row_count() as usize {
            assert_eq!(plain.dim_value(0, row), bess.dim_value(0, row));
            assert_eq!(
                plain.metric_column(0).get_i64(row),
                bess.metric_column(0).get_i64(row)
            );
        }
    }

    #[test]
    fn bess_brick_is_smaller_for_low_cardinality_dims() {
        // 8-value dimension: 3 bits packed vs 32 bits plain.
        let schema = schema();
        let mut plain = Brick::with_storage(&schema, DimStorage::Plain);
        let mut bess = Brick::with_storage(&schema, DimStorage::Bess);
        let recs: Vec<Rec> = (0..10_000).map(|i| rec(i % 8, 0, 0.0)).collect();
        plain.append(1, &chunk(&recs));
        bess.append(1, &chunk(&recs));
        let plain_dims = plain.memory().data_bytes - plain.metric_bytes_for_test();
        let bess_dims = bess.memory().data_bytes - bess.metric_bytes_for_test();
        assert!(
            bess_dims * 5 < plain_dims,
            "bess {bess_dims} B vs plain {plain_dims} B"
        );
    }

    #[test]
    #[should_panic(expected = "bess-packed")]
    fn dim_column_on_bess_panics() {
        let b = Brick::with_storage(&schema(), DimStorage::Bess);
        b.dim_column(0);
    }

    #[test]
    fn dim_slice_and_gather_cover_both_layouts() {
        let schema = schema();
        let recs: Vec<Rec> = (0..50).map(|i| rec(i % 8, i as i64, 0.0)).collect();
        let mut plain = Brick::with_storage(&schema, DimStorage::Plain);
        let mut bess = Brick::with_storage(&schema, DimStorage::Bess);
        plain.append(1, &chunk(&recs));
        bess.append(1, &chunk(&recs));
        assert!(bess.dim_slice(0).is_none(), "bess has no slices");
        let slice = plain.dim_slice(0).expect("plain exposes slices");
        assert_eq!(slice, plain.dim_column(0));
        let rows: Vec<u32> = (0..50).step_by(3).collect();
        let mut from_plain = Vec::new();
        let mut from_bess = Vec::new();
        plain.gather_dim(0, &rows, &mut from_plain);
        bess.gather_dim(0, &rows, &mut from_bess);
        assert_eq!(from_plain, from_bess);
        let expected: Vec<u32> = rows
            .iter()
            .map(|&r| plain.dim_value(0, r as usize))
            .collect();
        assert_eq!(from_plain, expected);
    }
}
