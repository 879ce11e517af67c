//! Typed append-only column vectors.
//!
//! AOSI "assumes that records are appended to these vectors in an
//! unordered and append-only manner, and that records can be
//! materialized by using the implicit ids on these vectors"
//! (Section III). A `Column` is exactly that: push-at-the-back only,
//! positional access, plus the bulk retain/truncate operations needed
//! by purge and rollback (which rebuild partitions rather than mutate
//! records in place).

use std::ops::Range;

use crate::bitmap::Bitmap;
use crate::schema::ColumnType;
use crate::value::Value;

/// Appends `src` to `dst`, growing the capacity through exactly the
/// sequence `src.len()` single `push` calls would (doubling, floor of
/// four) — a bare `extend_from_slice` reserves `len + n` on a first
/// overflow, which lands a vector filled in batches of `n` on an
/// `n·2ᵏ` capacity sequence with more slack than pushes leave.
pub fn extend_doubling<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    let needed = dst.len() + src.len();
    if needed > dst.capacity() {
        let mut capacity = dst.capacity();
        while capacity < needed {
            capacity = (capacity * 2).max(4);
        }
        dst.reserve_exact(capacity - dst.len());
    }
    dst.extend_from_slice(src);
}

/// One attribute of a partition, stored as a contiguous vector.
///
/// String columns store dictionary ids; the dictionary itself lives at
/// the cube level so ids are consistent across partitions.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// Integer data.
    I64(Vec<i64>),
    /// Float data.
    F64(Vec<f64>),
    /// Dictionary ids for a string column.
    Str(Vec<u32>),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(column_type: ColumnType) -> Self {
        match column_type {
            ColumnType::I64 => Column::I64(Vec::new()),
            ColumnType::F64 => Column::F64(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
        }
    }

    /// Creates an empty column with reserved capacity.
    pub fn with_capacity(column_type: ColumnType, capacity: usize) -> Self {
        match column_type {
            ColumnType::I64 => Column::I64(Vec::with_capacity(capacity)),
            ColumnType::F64 => Column::F64(Vec::with_capacity(capacity)),
            ColumnType::Str => Column::Str(Vec::with_capacity(capacity)),
        }
    }

    /// The column's physical type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::I64(_) => ColumnType::I64,
            Column::F64(_) => ColumnType::F64,
            Column::Str(_) => ColumnType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// `true` if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an integer row.
    ///
    /// # Panics
    /// Panics if the column is not `I64`.
    pub fn push_i64(&mut self, v: i64) {
        match self {
            Column::I64(vec) => vec.push(v),
            other => panic!("push_i64 on {:?} column", other.column_type()),
        }
    }

    /// Appends a float row.
    ///
    /// # Panics
    /// Panics if the column is not `F64`.
    pub fn push_f64(&mut self, v: f64) {
        match self {
            Column::F64(vec) => vec.push(v),
            other => panic!("push_f64 on {:?} column", other.column_type()),
        }
    }

    /// Appends a dictionary id row.
    ///
    /// # Panics
    /// Panics if the column is not `Str`.
    pub fn push_str_id(&mut self, id: u32) {
        match self {
            Column::Str(vec) => vec.push(id),
            other => panic!("push_str_id on {:?} column", other.column_type()),
        }
    }

    /// Positional integer read.
    pub fn get_i64(&self, idx: usize) -> Option<i64> {
        match self {
            Column::I64(v) => v.get(idx).copied(),
            _ => None,
        }
    }

    /// Positional float read.
    pub fn get_f64(&self, idx: usize) -> Option<f64> {
        match self {
            Column::F64(v) => v.get(idx).copied(),
            _ => None,
        }
    }

    /// Positional dictionary-id read.
    pub fn get_str_id(&self, idx: usize) -> Option<u32> {
        match self {
            Column::Str(v) => v.get(idx).copied(),
            _ => None,
        }
    }

    /// Positional read widened to `f64` (numeric columns only).
    pub fn get_numeric(&self, idx: usize) -> Option<f64> {
        match self {
            Column::I64(v) => v.get(idx).map(|&x| x as f64),
            Column::F64(v) => v.get(idx).copied(),
            Column::Str(_) => None,
        }
    }

    /// The integer payload as a contiguous slice, if this is an `I64`
    /// column — vectorized kernels consume whole slices instead of
    /// dispatching `get_numeric` per row.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The float payload as a contiguous slice, if this is an `F64`
    /// column.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The dictionary-id payload as a contiguous slice, if this is a
    /// `Str` column.
    pub fn as_str_id_slice(&self) -> Option<&[u32]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Appends a [`Value`] row; returns `false` on type mismatch.
    ///
    /// String values must be pre-encoded — use [`Column::push_str_id`]
    /// for string columns; this method rejects `Value::Str`.
    pub fn push_value(&mut self, value: &Value) -> bool {
        match (self, value) {
            (Column::I64(vec), Value::I64(v)) => {
                vec.push(*v);
                true
            }
            (Column::F64(vec), Value::F64(v)) => {
                vec.push(*v);
                true
            }
            _ => false,
        }
    }

    /// Appends every row of `other`, with the capacity growth of
    /// per-row pushes (see [`extend_doubling`]); returns `false`, and
    /// appends nothing, on type mismatch.
    pub fn extend_from_column(&mut self, other: &Column) -> bool {
        match (self, other) {
            (Column::I64(dst), Column::I64(src)) => extend_doubling(dst, src),
            (Column::F64(dst), Column::F64(src)) => extend_doubling(dst, src),
            (Column::Str(dst), Column::Str(src)) => extend_doubling(dst, src),
            _ => return false,
        }
        true
    }

    /// Copies the rows at `range` into a new column of the same type.
    ///
    /// # Panics
    /// Panics if `range` reaches past the column's length.
    pub fn slice(&self, range: Range<usize>) -> Column {
        match self {
            Column::I64(v) => Column::I64(v[range].to_vec()),
            Column::F64(v) => Column::F64(v[range].to_vec()),
            Column::Str(v) => Column::Str(v[range].to_vec()),
        }
    }

    /// Builds a new column keeping only the rows whose bit is set in
    /// `keep`. Used by purge (apply deletes) and rollback (drop an
    /// aborted transaction's rows) — both rebuild rather than mutate.
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()`.
    pub fn retain_by_bitmap(&self, keep: &Bitmap) -> Column {
        assert_eq!(keep.len(), self.len(), "bitmap/column length mismatch");
        fn filter<T: Copy>(data: &[T], keep: &Bitmap) -> Vec<T> {
            let mut out = Vec::with_capacity(keep.count_ones());
            out.extend(keep.iter_ones().map(|i| data[i]));
            out
        }
        match self {
            Column::I64(v) => Column::I64(filter(v, keep)),
            Column::F64(v) => Column::F64(filter(v, keep)),
            Column::Str(v) => Column::Str(filter(v, keep)),
        }
    }

    /// Drops all rows at positions `>= len` (rollback of a suffix).
    pub fn truncate(&mut self, len: usize) {
        match self {
            Column::I64(v) => v.truncate(len),
            Column::F64(v) => v.truncate(len),
            Column::Str(v) => v.truncate(len),
        }
    }

    /// Heap bytes used by the row payload.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::I64(v) => v.capacity() * std::mem::size_of::<i64>(),
            Column::F64(v) => v.capacity() * std::mem::size_of::<f64>(),
            Column::Str(v) => v.capacity() * std::mem::size_of::<u32>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_each_type() {
        let mut c = Column::new(ColumnType::I64);
        c.push_i64(5);
        c.push_i64(-1);
        assert_eq!(c.get_i64(1), Some(-1));
        assert_eq!(c.get_f64(0), None);

        let mut f = Column::new(ColumnType::F64);
        f.push_f64(2.5);
        assert_eq!(f.get_f64(0), Some(2.5));

        let mut s = Column::new(ColumnType::Str);
        s.push_str_id(7);
        assert_eq!(s.get_str_id(0), Some(7));
        assert_eq!(s.get_numeric(0), None);
    }

    #[test]
    fn get_numeric_widens_ints() {
        let mut c = Column::new(ColumnType::I64);
        c.push_i64(4);
        assert_eq!(c.get_numeric(0), Some(4.0));
    }

    #[test]
    fn slice_accessors_expose_only_the_matching_type() {
        let mut i = Column::new(ColumnType::I64);
        i.push_i64(3);
        assert_eq!(i.as_i64_slice(), Some(&[3i64][..]));
        assert_eq!(i.as_f64_slice(), None);
        assert_eq!(i.as_str_id_slice(), None);
        let mut f = Column::new(ColumnType::F64);
        f.push_f64(0.5);
        assert_eq!(f.as_f64_slice(), Some(&[0.5f64][..]));
        assert_eq!(f.as_i64_slice(), None);
        let mut s = Column::new(ColumnType::Str);
        s.push_str_id(9);
        assert_eq!(s.as_str_id_slice(), Some(&[9u32][..]));
        assert_eq!(s.as_f64_slice(), None);
    }

    #[test]
    #[should_panic(expected = "push_i64")]
    fn typed_push_on_wrong_column_panics() {
        let mut c = Column::new(ColumnType::F64);
        c.push_i64(1);
    }

    #[test]
    fn push_value_checks_type() {
        let mut c = Column::new(ColumnType::I64);
        assert!(c.push_value(&Value::I64(1)));
        assert!(!c.push_value(&Value::F64(1.0)));
        assert!(!c.push_value(&Value::Str("x".into())));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bulk_extend_grows_like_per_row_pushes() {
        for (start_capacity, batch) in [(0usize, 39usize), (0, 1), (100, 39), (7, 250)] {
            let mut pushed: Vec<i64> = Vec::with_capacity(start_capacity);
            let mut extended = Column::I64(Vec::with_capacity(start_capacity));
            for round in 0..40 {
                let rows: Vec<i64> = (0..batch as i64).map(|i| i + round).collect();
                for &v in &rows {
                    pushed.push(v);
                }
                assert!(extended.extend_from_column(&Column::I64(rows)));
                assert_eq!(
                    extended.heap_bytes(),
                    pushed.capacity() * 8,
                    "start {start_capacity}, batch {batch}, round {round}"
                );
            }
            assert_eq!(extended, Column::I64(pushed));
        }
    }

    #[test]
    fn extend_rejects_a_type_mismatch_and_slice_copies_a_range() {
        let mut c = Column::I64(vec![1, 2, 3, 4]);
        assert!(!c.extend_from_column(&Column::F64(vec![0.5])));
        assert_eq!(c.len(), 4);
        assert_eq!(c.slice(1..3), Column::I64(vec![2, 3]));
        assert_eq!(c.slice(4..4), Column::I64(vec![]));
    }

    #[test]
    fn retain_by_bitmap_filters_rows() {
        let mut c = Column::new(ColumnType::I64);
        for i in 0..10 {
            c.push_i64(i);
        }
        let mut keep = Bitmap::new(10);
        keep.set_range(2, 5);
        keep.set(9);
        let filtered = c.retain_by_bitmap(&keep);
        assert_eq!(filtered, Column::I64(vec![2, 3, 4, 9]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn retain_with_wrong_length_panics() {
        let c = Column::new(ColumnType::I64);
        c.retain_by_bitmap(&Bitmap::new(3));
    }

    #[test]
    fn truncate_drops_suffix() {
        let mut c = Column::new(ColumnType::Str);
        for i in 0..5 {
            c.push_str_id(i);
        }
        c.truncate(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_str_id(1), Some(1));
    }

    #[test]
    fn heap_bytes_reflects_capacity() {
        let c = Column::with_capacity(ColumnType::I64, 100);
        assert!(c.heap_bytes() >= 800);
    }
}
