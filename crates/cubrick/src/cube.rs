//! Cube metadata: schema, bid layout, and shared dictionaries.
//!
//! The bricks themselves live inside the shard pool (each brick is
//! owned by exactly one shard thread — Section V-B); a `Cube` is the
//! metadata needed to parse, route, and decode: the schema, the
//! precomputed bid layout, and one dictionary per string dimension.
//!
//! Dictionaries are shared `Arc`s: in a cluster, every node holds the
//! same dictionary objects, modelling Cubrick's cube metadata being
//! distributed at DDL time so that string coordinates are globally
//! consistent (see DESIGN.md, substitutions).

use std::sync::{Arc, Mutex, MutexGuard};

use columnar::Dictionary;
use obs::sync::unpoison;

use crate::bid::BidLayout;
use crate::ddl::CubeSchema;

/// Aggregated memory accounting for one cube on one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CubeMemory {
    /// Bytes of record payload across all bricks.
    pub data_bytes: usize,
    /// Bytes of AOSI metadata across all bricks.
    pub aosi_bytes: usize,
    /// Bytes of dictionary encodings.
    pub dictionary_bytes: usize,
    /// Rows stored.
    pub rows: u64,
    /// Bricks materialized.
    pub bricks: usize,
}

/// Cube metadata, cheap to clone and share across nodes.
#[derive(Clone)]
pub struct Cube {
    schema: Arc<CubeSchema>,
    layout: Arc<BidLayout>,
    dictionaries: Arc<Vec<Option<Arc<Mutex<Dictionary>>>>>,
}

impl Cube {
    /// Builds the metadata for `schema`.
    pub fn new(schema: CubeSchema) -> Self {
        let layout = BidLayout::new(&schema);
        let dictionaries = schema
            .dimensions
            .iter()
            .map(|d| d.is_string.then(|| Arc::new(Mutex::new(Dictionary::new()))))
            .collect();
        Cube {
            schema: Arc::new(schema),
            layout: Arc::new(layout),
            dictionaries: Arc::new(dictionaries),
        }
    }

    /// The cube's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// The schema.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// The bid layout.
    pub fn layout(&self) -> &BidLayout {
        &self.layout
    }

    /// Per-dimension dictionaries (`None` for integer dimensions).
    pub fn dictionaries(&self) -> &[Option<Arc<Mutex<Dictionary>>>] {
        &self.dictionaries
    }

    /// Encodes a filter value for dimension `dim` without minting new
    /// dictionary ids. Returns `None` when the value cannot match any
    /// stored row.
    pub fn encode_filter_value(&self, dim: usize, value: &columnar::Value) -> Option<u32> {
        match (value, &self.dictionaries[dim]) {
            (columnar::Value::Str(s), Some(dict)) => unpoison(dict.lock()).lookup(s),
            (columnar::Value::I64(v), None) => {
                let card = self.schema.dimensions[dim].cardinality;
                (*v >= 0 && *v < card as i64).then_some(*v as u32)
            }
            _ => None,
        }
    }

    /// Decodes coordinate `coord` of dimension `dim` for result
    /// presentation.
    pub fn decode_coord(&self, dim: usize, coord: u32) -> columnar::Value {
        decode(self.lock_dictionary(dim).as_deref(), coord)
    }

    /// Dimension `dim`'s dictionary, locked, so that many coordinates
    /// decode under one lock; `None` for an integer dimension.
    pub(crate) fn lock_dictionary(&self, dim: usize) -> Option<MutexGuard<'_, Dictionary>> {
        self.dictionaries[dim]
            .as_ref()
            .map(|dict| unpoison(dict.lock()))
    }

    /// Bytes held by this cube's dictionaries.
    pub fn dictionary_bytes(&self) -> usize {
        self.dictionaries
            .iter()
            .flatten()
            .map(|d| unpoison(d.lock()).heap_bytes())
            .sum()
    }
}

/// Decodes `coord` through `dict`, a dimension's locked dictionary
/// ([`Cube::lock_dictionary`]): its string, or the coordinate itself
/// for an integer dimension (`None`) or an id the dictionary lacks.
pub(crate) fn decode(dict: Option<&Dictionary>, coord: u32) -> columnar::Value {
    match dict.and_then(|dict| dict.decode(coord)) {
        Some(s) => columnar::Value::Str(s.to_owned()),
        None => columnar::Value::I64(coord as i64),
    }
}

impl std::fmt::Debug for Cube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cube")
            .field("name", &self.schema.name)
            .field("dimensions", &self.schema.dimensions.len())
            .field("metrics", &self.schema.metrics.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{Dimension, Metric};
    use columnar::Value;

    fn cube() -> Cube {
        Cube::new(
            CubeSchema::new(
                "c",
                vec![
                    Dimension::string("region", 4, 2),
                    Dimension::int("day", 8, 4),
                ],
                vec![Metric::int("likes")],
            )
            .unwrap(),
        )
    }

    #[test]
    fn encode_filter_value_never_mints_ids() {
        let c = cube();
        assert_eq!(c.encode_filter_value(0, &Value::from("us")), None);
        unpoison(c.dictionaries()[0].as_ref().unwrap().lock()).encode("us");
        assert_eq!(c.encode_filter_value(0, &Value::from("us")), Some(0));
        assert_eq!(c.encode_filter_value(0, &Value::from("br")), None);
    }

    #[test]
    fn encode_filter_value_validates_int_dims() {
        let c = cube();
        assert_eq!(c.encode_filter_value(1, &Value::from(3i64)), Some(3));
        assert_eq!(c.encode_filter_value(1, &Value::from(8i64)), None);
        assert_eq!(c.encode_filter_value(1, &Value::from(-1i64)), None);
        assert_eq!(c.encode_filter_value(1, &Value::from("x")), None);
    }

    #[test]
    fn decode_roundtrips_strings() {
        let c = cube();
        let id = unpoison(c.dictionaries()[0].as_ref().unwrap().lock()).encode("mx");
        assert_eq!(c.decode_coord(0, id), Value::Str("mx".into()));
        assert_eq!(c.decode_coord(1, 5), Value::I64(5));
    }

    #[test]
    fn clones_share_dictionaries() {
        let c = cube();
        let c2 = c.clone();
        unpoison(c.dictionaries()[0].as_ref().unwrap().lock()).encode("us");
        assert_eq!(c2.encode_filter_value(0, &Value::from("us")), Some(0));
    }
}
