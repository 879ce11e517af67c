//! Brick-id packing: the spatial address of a partition.
//!
//! "Each brick is identified by one id (bid) that dictates the
//! spatial position in the conceptual d-dimensional space … and is
//! composed by the bitwise concatenation of the range indexes on each
//! dimension" (Section V-A). The first declared dimension occupies
//! the least-significant bits.

use crate::ddl::CubeSchema;

/// Precomputed per-dimension shift/width for bid packing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BidLayout {
    /// `(shift, bits, range_size, num_ranges)` per dimension.
    dims: Vec<(u32, u32, u32, u32)>,
}

impl BidLayout {
    /// Derives the layout from a schema.
    pub fn new(schema: &CubeSchema) -> Self {
        let mut shift = 0;
        let dims = schema
            .dimensions
            .iter()
            .map(|d| {
                let bits = d.bid_bits();
                let entry = (shift, bits, d.range_size, d.num_ranges());
                shift += bits;
                entry
            })
            .collect();
        BidLayout { dims }
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// The bid of the brick containing `coords`.
    ///
    /// # Panics
    /// Panics (debug) if a coordinate is outside its cardinality; the
    /// ingest pipeline validates coordinates before calling.
    pub fn bid_for_coords(&self, coords: &[u32]) -> u64 {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut bid = 0u64;
        for (&coord, &(shift, _, range_size, num_ranges)) in coords.iter().zip(&self.dims) {
            let range_idx = coord / range_size;
            debug_assert!(range_idx < num_ranges, "coordinate out of cardinality");
            bid |= (range_idx as u64) << shift;
        }
        bid
    }

    /// Decomposes a bid back into per-dimension range indexes.
    pub fn range_indexes_of_bid(&self, bid: u64) -> Vec<u32> {
        self.dims
            .iter()
            .map(|&(shift, bits, _, _)| ((bid >> shift) & ((1u64 << bits) - 1)) as u32)
            .collect()
    }

    /// The range index of `coord` on dimension `dim`.
    pub fn range_index(&self, dim: usize, coord: u32) -> u32 {
        coord / self.dims[dim].2
    }

    /// The coordinate interval `[lo, hi)` covered by `range_idx` of
    /// dimension `dim`. The last range can reach past the dimension's
    /// cardinality (and `hi` saturates at `u32::MAX`); callers that
    /// count coordinates clamp `hi` to the cardinality.
    pub fn range_bounds(&self, dim: usize, range_idx: u32) -> (u32, u32) {
        let size = self.dims[dim].2;
        (range_idx * size, (range_idx + 1).saturating_mul(size))
    }
}

/// One-shot helper: bid of `coords` under `schema`.
pub fn bid_for_coords(schema: &CubeSchema, coords: &[u32]) -> u64 {
    BidLayout::new(schema).bid_for_coords(coords)
}

/// One-shot helper: range indexes of `bid` under `schema`.
pub fn range_indexes_of_bid(schema: &CubeSchema, bid: u64) -> Vec<u32> {
    BidLayout::new(schema).range_indexes_of_bid(bid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};

    fn paper_schema() -> CubeSchema {
        CubeSchema::new(
            "test",
            vec![
                Dimension::string("region", 4, 2),
                Dimension::string("gender", 4, 1),
            ],
            vec![Metric::int("likes"), Metric::int("comments")],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_bids() {
        // region contributes 1 low bit (2 ranges of size 2), gender 2
        // high bits (4 ranges of size 1).
        let layout = BidLayout::new(&paper_schema());
        assert_eq!(layout.bid_for_coords(&[0, 0]), 0b000);
        assert_eq!(layout.bid_for_coords(&[1, 0]), 0b000, "same region range");
        assert_eq!(layout.bid_for_coords(&[2, 0]), 0b001);
        assert_eq!(layout.bid_for_coords(&[0, 1]), 0b010);
        assert_eq!(layout.bid_for_coords(&[3, 3]), 0b111);
    }

    #[test]
    fn bid_roundtrips_to_range_indexes() {
        let layout = BidLayout::new(&paper_schema());
        for region in 0..4u32 {
            for gender in 0..4u32 {
                let bid = layout.bid_for_coords(&[region, gender]);
                assert_eq!(
                    layout.range_indexes_of_bid(bid),
                    vec![region / 2, gender],
                    "coords ({region},{gender})"
                );
            }
        }
    }

    #[test]
    fn range_bounds_cover_coordinates() {
        let layout = BidLayout::new(&paper_schema());
        assert_eq!(layout.range_bounds(0, 0), (0, 2));
        assert_eq!(layout.range_bounds(0, 1), (2, 4));
        assert_eq!(layout.range_bounds(1, 3), (3, 4));
        assert_eq!(layout.range_index(0, 3), 1);
    }

    #[test]
    fn zero_bit_dimension_contributes_nothing() {
        let schema = CubeSchema::new(
            "c",
            vec![
                Dimension::int("wide", 100, 100), // 1 range, 0 bits
                Dimension::int("narrow", 4, 1),   // 4 ranges, 2 bits
            ],
            vec![],
        )
        .unwrap();
        let layout = BidLayout::new(&schema);
        assert_eq!(layout.bid_for_coords(&[57, 3]), 0b11);
        assert_eq!(layout.range_indexes_of_bid(0b11), vec![0, 3]);
    }

    #[test]
    fn distinct_range_combinations_get_distinct_bids() {
        let schema = CubeSchema::new(
            "c",
            vec![Dimension::int("a", 8, 2), Dimension::int("b", 6, 2)],
            vec![],
        )
        .unwrap();
        let layout = BidLayout::new(&schema);
        let mut seen = std::collections::HashSet::new();
        for a in 0..8u32 {
            for b in 0..6u32 {
                let bid = layout.bid_for_coords(&[a, b]);
                seen.insert(bid);
            }
        }
        assert_eq!(seen.len(), 4 * 3, "one bid per range combination");
    }
}
