//! Cube DDL: the schema objects behind `CREATE CUBE` (Section V-A).
//!
//! Every dimension declares a **cardinality** (how many distinct
//! coordinate values it can take, `0..cardinality`) and a **range
//! size** (how many consecutive coordinates share one partition
//! range). The number of ranges per dimension, rounded up to a power
//! of two, decides how many bits the dimension contributes to the
//! brick id.

use columnar::{Column, ColumnType};

use crate::error::CubrickError;

/// Physical type of a metric column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricType {
    /// 64-bit signed integer metric.
    I64,
    /// 64-bit float metric.
    F64,
}

/// One dimension declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dimension {
    /// Column name.
    pub name: String,
    /// Number of distinct coordinate values (`0..cardinality`).
    pub cardinality: u32,
    /// Coordinates per partition range.
    pub range_size: u32,
    /// `true` if input values are strings to dictionary-encode;
    /// `false` if inputs are already integer coordinates.
    pub is_string: bool,
}

impl Dimension {
    /// A string dimension (values dictionary-encoded on ingest).
    pub fn string(name: impl Into<String>, cardinality: u32, range_size: u32) -> Self {
        Dimension {
            name: name.into(),
            cardinality,
            range_size,
            is_string: true,
        }
    }

    /// An integer dimension (values are coordinates directly).
    pub fn int(name: impl Into<String>, cardinality: u32, range_size: u32) -> Self {
        Dimension {
            name: name.into(),
            cardinality,
            range_size,
            is_string: false,
        }
    }

    /// Number of ranges this dimension is split into.
    pub fn num_ranges(&self) -> u32 {
        self.cardinality.div_ceil(self.range_size)
    }

    /// Bits this dimension contributes to the bid.
    pub fn bid_bits(&self) -> u32 {
        let ranges = self.num_ranges();
        if ranges <= 1 {
            0
        } else {
            32 - (ranges - 1).leading_zeros()
        }
    }
}

/// One metric declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Column name.
    pub name: String,
    /// Physical type.
    pub metric_type: MetricType,
}

impl Metric {
    /// An integer metric.
    pub fn int(name: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            metric_type: MetricType::I64,
        }
    }

    /// A float metric.
    pub fn float(name: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            metric_type: MetricType::F64,
        }
    }
}

/// A cube's full schema. Input rows are ordered dimensions first,
/// then metrics, matching the DDL declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CubeSchema {
    /// Cube name.
    pub name: String,
    /// Dimensions, in declaration order.
    pub dimensions: Vec<Dimension>,
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl CubeSchema {
    /// Validates and builds a schema.
    pub fn new(
        name: impl Into<String>,
        dimensions: Vec<Dimension>,
        metrics: Vec<Metric>,
    ) -> Result<Self, CubrickError> {
        let name = name.into();
        if dimensions.is_empty() {
            return Err(CubrickError::InvalidSchema(
                "a cube needs at least one dimension".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for n in dimensions
            .iter()
            .map(|d| &d.name)
            .chain(metrics.iter().map(|m| &m.name))
        {
            if !seen.insert(n.as_str()) {
                return Err(CubrickError::InvalidSchema(format!(
                    "duplicate column name {n:?}"
                )));
            }
        }
        let mut total_bits = 0u32;
        for d in &dimensions {
            if d.cardinality == 0 {
                return Err(CubrickError::InvalidSchema(format!(
                    "dimension {:?} has zero cardinality",
                    d.name
                )));
            }
            if d.range_size == 0 || d.range_size > d.cardinality {
                return Err(CubrickError::InvalidSchema(format!(
                    "dimension {:?} has invalid range size {} (cardinality {})",
                    d.name, d.range_size, d.cardinality
                )));
            }
            total_bits += d.bid_bits();
        }
        if total_bits > 63 {
            return Err(CubrickError::InvalidSchema(format!(
                "bid would need {total_bits} bits (max 63)"
            )));
        }
        Ok(CubeSchema {
            name,
            dimensions,
            metrics,
        })
    }

    /// Number of columns an input row must have.
    pub fn arity(&self) -> usize {
        self.dimensions.len() + self.metrics.len()
    }

    /// Position of dimension `name`.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d.name == name)
    }

    /// Position of metric `name` (within the metrics, not the row).
    pub fn metric_index(&self, name: &str) -> Option<usize> {
        self.metrics.iter().position(|m| m.name == name)
    }

    /// One empty typed column per metric, in declaration order.
    pub(crate) fn metric_columns(&self) -> Vec<Column> {
        self.metrics
            .iter()
            .map(|m| {
                Column::new(match m.metric_type {
                    MetricType::I64 => ColumnType::I64,
                    MetricType::F64 => ColumnType::F64,
                })
            })
            .collect()
    }

    /// Upper bound on the number of bricks this schema can
    /// materialize.
    pub fn max_bricks(&self) -> u64 {
        self.dimensions
            .iter()
            .map(|d| d.num_ranges() as u64)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DDL example of Section V-A:
    /// `CREATE CUBE(region STRING 4:2, gender STRING 4:1, likes INT,
    /// comments INT)`.
    pub(crate) fn paper_schema() -> CubeSchema {
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
    fn paper_example_layout() {
        let s = paper_schema();
        // region: 4/2 = 2 ranges -> 1 bit; gender: 4/1 = 4 -> 2 bits.
        assert_eq!(s.dimensions[0].num_ranges(), 2);
        assert_eq!(s.dimensions[0].bid_bits(), 1);
        assert_eq!(s.dimensions[1].num_ranges(), 4);
        assert_eq!(s.dimensions[1].bid_bits(), 2);
        // "3 bits are required to represent bid, resulting in at most
        // 8 bricks."
        assert_eq!(s.max_bricks(), 8);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn non_power_of_two_ranges_round_up() {
        let d = Dimension::int("d", 10, 3); // 4 ranges -> 2 bits
        assert_eq!(d.num_ranges(), 4);
        assert_eq!(d.bid_bits(), 2);
        let d = Dimension::int("d", 10, 2); // 5 ranges -> 3 bits
        assert_eq!(d.num_ranges(), 5);
        assert_eq!(d.bid_bits(), 3);
    }

    #[test]
    fn single_range_dimension_needs_no_bits() {
        let d = Dimension::int("d", 100, 100);
        assert_eq!(d.num_ranges(), 1);
        assert_eq!(d.bid_bits(), 0);
    }

    #[test]
    fn schema_rejects_bad_declarations() {
        assert!(matches!(
            CubeSchema::new("c", vec![], vec![]),
            Err(CubrickError::InvalidSchema(_))
        ));
        assert!(matches!(
            CubeSchema::new("c", vec![Dimension::int("d", 0, 1)], vec![]),
            Err(CubrickError::InvalidSchema(_))
        ));
        assert!(matches!(
            CubeSchema::new("c", vec![Dimension::int("d", 4, 5)], vec![]),
            Err(CubrickError::InvalidSchema(_))
        ));
        assert!(matches!(
            CubeSchema::new("c", vec![Dimension::int("d", 4, 1)], vec![Metric::int("d")]),
            Err(CubrickError::InvalidSchema(_))
        ));
    }

    #[test]
    fn schema_rejects_oversized_bid() {
        // 8 dims x 256 ranges (8 bits) = 64 bits > 63.
        let dims: Vec<Dimension> = (0..8)
            .map(|i| Dimension::int(format!("d{i}"), 256, 1))
            .collect();
        assert!(matches!(
            CubeSchema::new("c", dims, vec![]),
            Err(CubrickError::InvalidSchema(_))
        ));
    }

    #[test]
    fn lookups_by_name() {
        let s = paper_schema();
        assert_eq!(s.dim_index("gender"), Some(1));
        assert_eq!(s.dim_index("likes"), None);
        assert_eq!(s.metric_index("comments"), Some(1));
        assert_eq!(s.metric_index("region"), None);
    }
}
