//! Bit-packed dimension storage ("bess").
//!
//! Cubrick's bricks do not actually keep one vector per dimension:
//! "in reality all dimension columns are packed together and encoded
//! in a single vector called *bess*" (paper, footnote 3). Each
//! dimension contributes `ceil(log2(cardinality))` bits; a record's
//! coordinates are the concatenation of those fields, and records are
//! laid out back to back in a single bit stream.
//!
//! Compared to one `Vec<u32>` per dimension this trades a little
//! decode work for a large footprint cut when cardinalities are small
//! (a cardinality-8 dimension needs 3 bits instead of 32).

/// A row-major bit-packed vector of dimension coordinates.
///
/// ```
/// use columnar::BessVector;
/// // cardinalities 8 and 256: 3 + 8 = 11 bits per record.
/// let mut bess = BessVector::new(&[8, 256]);
/// assert_eq!(bess.bits_per_row(), 11);
/// bess.push(&[5, 200]);
/// assert_eq!(bess.get(0, 0), 5);
/// assert_eq!(bess.get(0, 1), 200);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BessVector {
    words: Vec<u64>,
    /// `(bit offset within a row, width)` per dimension.
    fields: Vec<(u32, u32)>,
    bits_per_row: u32,
    rows: usize,
}

fn width_for_cardinality(cardinality: u32) -> u32 {
    debug_assert!(cardinality >= 1);
    if cardinality <= 1 {
        1
    } else {
        32 - (cardinality - 1).leading_zeros()
    }
}

impl BessVector {
    /// Builds an empty bess vector for dimensions with the given
    /// cardinalities.
    ///
    /// # Panics
    /// Panics if `cardinalities` is empty or contains zero.
    pub fn new(cardinalities: &[u32]) -> Self {
        assert!(
            !cardinalities.is_empty(),
            "bess needs at least one dimension"
        );
        let mut offset = 0u32;
        let fields = cardinalities
            .iter()
            .map(|&card| {
                assert!(card >= 1, "zero cardinality");
                let width = width_for_cardinality(card);
                let field = (offset, width);
                offset += width;
                field
            })
            .collect();
        BessVector {
            words: Vec::new(),
            fields,
            bits_per_row: offset,
            rows: 0,
        }
    }

    /// Number of dimensions per record.
    pub fn num_dims(&self) -> usize {
        self.fields.len()
    }

    /// Bits one record occupies.
    pub fn bits_per_row(&self) -> u32 {
        self.bits_per_row
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends one record's coordinates.
    ///
    /// # Panics
    /// Panics (debug) if a coordinate does not fit its field width —
    /// the ingest pipeline validates cardinalities beforehand.
    pub fn push(&mut self, coords: &[u32]) {
        debug_assert_eq!(coords.len(), self.fields.len());
        let row_base = self.rows as u64 * self.bits_per_row as u64;
        let end_word = ((row_base + self.bits_per_row as u64).div_ceil(64)) as usize;
        if self.words.len() < end_word {
            self.words.resize(end_word, 0);
        }
        for (dim, &coord) in coords.iter().enumerate() {
            let (offset, width) = self.fields[dim];
            debug_assert!(
                width == 64 || (coord as u64) < (1u64 << width),
                "coordinate {coord} exceeds {width}-bit field"
            );
            self.set_bits(row_base + offset as u64, width, coord as u64);
        }
        self.rows += 1;
    }

    /// Reads the coordinate of `dim` at `row`.
    ///
    /// # Panics
    /// Panics if `row` or `dim` is out of range.
    #[inline]
    pub fn get(&self, row: usize, dim: usize) -> u32 {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let (offset, width) = self.fields[dim];
        let bit = row as u64 * self.bits_per_row as u64 + offset as u64;
        self.get_bits(bit, width) as u32
    }

    /// Decodes a whole record into `out` (resized as needed).
    pub fn materialize(&self, row: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.fields.len()).map(|dim| self.get(row, dim)));
    }

    /// Decodes the coordinate of `dim` for every row id in `rows`
    /// into `out` (cleared first) — the bulk gather scan kernels use
    /// on bess-packed bricks, where no per-dimension slice exists.
    /// The field geometry is resolved once instead of per row.
    ///
    /// # Panics
    /// Panics if `dim` or any row id is out of range.
    pub fn gather_dim(&self, dim: usize, rows: &[u32], out: &mut Vec<u32>) {
        let (offset, width) = self.fields[dim];
        out.clear();
        out.reserve(rows.len());
        for &row in rows {
            assert!(
                (row as usize) < self.rows,
                "row {row} out of range {}",
                self.rows
            );
            let bit = u64::from(row) * u64::from(self.bits_per_row) + u64::from(offset);
            out.push(self.get_bits(bit, width) as u32);
        }
    }

    /// Rebuilds the vector keeping only the rows whose bit is set in
    /// `keep` (purge/rollback path).
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()`.
    pub fn retain_by_bitmap(&self, keep: &crate::bitmap::Bitmap) -> BessVector {
        assert_eq!(keep.len(), self.rows, "bitmap/bess length mismatch");
        let mut out = BessVector {
            words: Vec::new(),
            fields: self.fields.clone(),
            bits_per_row: self.bits_per_row,
            rows: 0,
        };
        let mut coords = Vec::with_capacity(self.fields.len());
        for row in keep.iter_ones() {
            self.materialize(row, &mut coords);
            out.push(&coords);
        }
        out
    }

    /// Heap bytes owned by this vector: the packed words plus the
    /// per-dimension field table. The table is small (8 bytes per
    /// dimension) but real — eviction budgets that relied on this
    /// accounting would otherwise undercount every bess brick.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.fields.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    fn set_bits(&mut self, bit: u64, width: u32, value: u64) {
        let word = (bit / 64) as usize;
        let shift = (bit % 64) as u32;
        let mask = if width == 64 {
            !0u64
        } else {
            (1u64 << width) - 1
        };
        self.words[word] |= (value & mask) << shift;
        let spill = shift + width;
        if spill > 64 {
            self.words[word + 1] |= (value & mask) >> (64 - shift);
        }
    }

    fn get_bits(&self, bit: u64, width: u32) -> u64 {
        let word = (bit / 64) as usize;
        let shift = (bit % 64) as u32;
        let mask = if width == 64 {
            !0u64
        } else {
            (1u64 << width) - 1
        };
        let mut value = self.words[word] >> shift;
        let spill = shift + width;
        if spill > 64 {
            value |= self.words[word + 1] << (64 - shift);
        }
        value & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;

    #[test]
    fn width_matches_cardinality() {
        assert_eq!(width_for_cardinality(1), 1);
        assert_eq!(width_for_cardinality(2), 1);
        assert_eq!(width_for_cardinality(3), 2);
        assert_eq!(width_for_cardinality(4), 2);
        assert_eq!(width_for_cardinality(5), 3);
        assert_eq!(width_for_cardinality(256), 8);
        assert_eq!(width_for_cardinality(257), 9);
        assert_eq!(width_for_cardinality(u32::MAX), 32);
    }

    #[test]
    fn push_get_roundtrip() {
        let mut bess = BessVector::new(&[4, 256, 2]);
        assert_eq!(bess.bits_per_row(), 2 + 8 + 1);
        bess.push(&[3, 200, 1]);
        bess.push(&[0, 0, 0]);
        bess.push(&[2, 255, 1]);
        assert_eq!(bess.len(), 3);
        assert_eq!(bess.get(0, 0), 3);
        assert_eq!(bess.get(0, 1), 200);
        assert_eq!(bess.get(0, 2), 1);
        assert_eq!(bess.get(1, 1), 0);
        assert_eq!(bess.get(2, 1), 255);
    }

    #[test]
    fn rows_straddle_word_boundaries() {
        // 11 bits per row: rows regularly cross u64 boundaries.
        let mut bess = BessVector::new(&[1024, 2]);
        let values: Vec<(u32, u32)> = (0..200).map(|i| (i * 5 % 1024, i % 2)).collect();
        for &(a, b) in &values {
            bess.push(&[a, b]);
        }
        for (row, &(a, b)) in values.iter().enumerate() {
            assert_eq!(bess.get(row, 0), a, "row {row}");
            assert_eq!(bess.get(row, 1), b, "row {row}");
        }
    }

    #[test]
    fn wide_fields_spanning_words() {
        // 3 x 21-bit fields = 63 bits/row: the second row's fields
        // split across words.
        let card = 1 << 21;
        let mut bess = BessVector::new(&[card, card, card]);
        for i in 0..50u32 {
            bess.push(&[i * 41_943, (card - 1) - i, i]);
        }
        for i in 0..50u32 {
            assert_eq!(bess.get(i as usize, 0), i * 41_943);
            assert_eq!(bess.get(i as usize, 1), (card - 1) - i);
            assert_eq!(bess.get(i as usize, 2), i);
        }
    }

    #[test]
    fn gather_dim_matches_per_row_get() {
        let mut bess = BessVector::new(&[8, 1024, 2]);
        for i in 0..300u32 {
            bess.push(&[i % 8, i * 7 % 1024, i % 2]);
        }
        let rows: Vec<u32> = (0..300).step_by(7).collect();
        let mut out = Vec::new();
        for dim in 0..3 {
            bess.gather_dim(dim, &rows, &mut out);
            let expected: Vec<u32> = rows.iter().map(|&r| bess.get(r as usize, dim)).collect();
            assert_eq!(out, expected, "dim {dim}");
        }
        bess.gather_dim(0, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_dim_out_of_range_panics() {
        let mut bess = BessVector::new(&[4]);
        bess.push(&[1]);
        let mut out = Vec::new();
        bess.gather_dim(0, &[1], &mut out);
    }

    #[test]
    fn materialize_decodes_full_records() {
        let mut bess = BessVector::new(&[8, 8]);
        bess.push(&[5, 7]);
        let mut out = Vec::new();
        bess.materialize(0, &mut out);
        assert_eq!(out, vec![5, 7]);
    }

    #[test]
    fn retain_by_bitmap_keeps_selected_rows() {
        let mut bess = BessVector::new(&[16]);
        for i in 0..10u32 {
            bess.push(&[i]);
        }
        let mut keep = Bitmap::new(10);
        keep.set(1);
        keep.set(8);
        let filtered = bess.retain_by_bitmap(&keep);
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.get(0, 0), 1);
        assert_eq!(filtered.get(1, 0), 8);
    }

    #[test]
    fn packs_far_tighter_than_u32_columns() {
        let mut bess = BessVector::new(&[8, 4, 64, 24, 256]);
        for i in 0..10_000u32 {
            bess.push(&[i % 8, i % 4, i % 64, i % 24, i % 256]);
        }
        // 3+2+6+5+8 = 24 bits vs 5 x 32 = 160 bits per row.
        let plain_bytes = 10_000 * 5 * 4;
        assert!(bess.heap_bytes() * 5 < plain_bytes);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bess = BessVector::new(&[4]);
        bess.get(0, 0);
    }

    #[test]
    fn heap_bytes_counts_the_field_table_too() {
        // A rowless 40-dimension vector owns no packed words yet, but
        // its field table (8 bytes per dimension) is heap all the
        // same; heap_bytes used to report 0 here, undercounting every
        // bess brick by 8 B x dims.
        let empty = BessVector::new(&[4u32; 40]);
        assert!(
            empty.heap_bytes() >= 40 * std::mem::size_of::<(u32, u32)>(),
            "field table uncounted: {}",
            empty.heap_bytes()
        );

        // With rows, both parts must be present: at least the packed
        // bits plus the table.
        let mut filled = BessVector::new(&[8, 256]);
        for i in 0..1000u32 {
            filled.push(&[i % 8, i % 256]);
        }
        let min_words = (filled.bits_per_row() as usize * 1000).div_ceil(64);
        assert!(
            filled.heap_bytes() >= min_words * 8 + 2 * std::mem::size_of::<(u32, u32)>(),
            "words or table uncounted: {}",
            filled.heap_bytes()
        );
    }

    #[test]
    fn cardinality_one_dimension_works() {
        let mut bess = BessVector::new(&[1, 5]);
        bess.push(&[0, 4]);
        assert_eq!(bess.get(0, 0), 0);
        assert_eq!(bess.get(0, 1), 4);
    }
}
