//! The ingestion pipeline's parse step (Section V-B).
//!
//! "During the parsing phase, input records are extracted and
//! validated regarding number of columns, metric data types,
//! dimensional cardinality and string to id encoding. Records that do
//! not comply to these criteria are rejected and skipped. After all
//! valid input records are extracted, based on each input record's
//! coordinates the target bid … [is] computed."
//!
//! Parsing is a CPU-only step that can run on any node; the output is
//! one column-major [`RecordChunk`] per target brick, the only form in
//! which records travel between layers (forward, append, delta
//! export/import, handoff, WAL codec).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use columnar::{Column, Dictionary, Row, Value};
use obs::sync::unpoison;

use crate::bid::BidLayout;
use crate::ddl::{CubeSchema, MetricType};

/// Validated, encoded records of one brick, column-major: record `i`
/// is position `i` of every column. [`crate::Brick::append`] refuses
/// a chunk whose columns disagree in length or type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordChunk {
    /// One coordinate vector per dimension (every cube has one).
    pub coords: Vec<Vec<u32>>,
    /// One typed column per metric.
    pub metrics: Vec<Column>,
}

impl RecordChunk {
    /// Transposes `(coordinates, metrics)` records into a chunk — the
    /// constructor tests and benches use to hand-build brick content.
    /// Column count and metric types are taken from the first record.
    ///
    /// # Panics
    /// Panics when a later record's shape or metric types differ, or
    /// a metric is not numeric.
    pub fn from_rows(rows: &[(Vec<u32>, Vec<Value>)]) -> Self {
        let Some((coords, metrics)) = rows.first() else {
            return RecordChunk::default();
        };
        let mut chunk = RecordChunk {
            coords: vec![Vec::new(); coords.len()],
            metrics: metrics
                .iter()
                .map(|value| match value {
                    Value::I64(_) => Column::I64(Vec::new()),
                    Value::F64(_) => Column::F64(Vec::new()),
                    Value::Str(_) => panic!("metrics are numeric"),
                })
                .collect(),
        };
        for (coords, metrics) in rows {
            assert_eq!(coords.len(), chunk.coords.len(), "ragged coordinates");
            assert_eq!(metrics.len(), chunk.metrics.len(), "ragged metrics");
            chunk.push(coords, metrics);
        }
        chunk
    }

    /// Appends one validated record.
    fn push(&mut self, coords: &[u32], metrics: &[Value]) {
        for (column, &coord) in self.coords.iter_mut().zip(coords) {
            column.push(coord);
        }
        for (column, value) in self.metrics.iter_mut().zip(metrics) {
            let pushed = column.push_value(value);
            assert!(pushed, "metric type mismatch survived validation");
        }
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.coords.first().map_or(0, Vec::len)
    }

    /// `true` when the chunk holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The outcome of parsing one input buffer.
#[derive(Debug, Default)]
pub struct ParsedBatch {
    /// Accepted records, one chunk per target brick.
    pub by_bid: HashMap<u64, RecordChunk>,
    /// Records accepted.
    pub accepted: usize,
    /// Records rejected (bad arity, type, cardinality).
    pub rejected: usize,
}

impl ParsedBatch {
    /// Total bricks touched.
    pub fn bricks_touched(&self) -> usize {
        self.by_bid.len()
    }
}

/// A direct-mapped per-batch memo: each key has exactly one slot, and
/// its entry is found only there. A key whose slot holds another key
/// takes the caller's exact path, so keys crafted to collide cost no
/// more than no memo plus a slot check: there is no chain to flood,
/// and a cheap fingerprint is safe.
struct Memo<K, V>(Vec<Option<(K, V)>>);

impl<K, V> Memo<K, V> {
    /// About four slots per key the batch can hold, at most 256: a
    /// larger table parsed no faster on any workload's batch shape
    /// and is zeroed for every batch.
    fn new(keys: usize) -> Self {
        let len = keys.saturating_mul(4).clamp(2, 256).next_power_of_two();
        Memo(std::iter::repeat_with(|| None).take(len).collect())
    }

    /// The slot of the key with `fingerprint`, whichever key holds it
    /// now: the top bits of the Fibonacci-scrambled fingerprint.
    fn slot(&mut self, fingerprint: u64) -> &mut Option<(K, V)> {
        let scrambled = fingerprint.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let at = scrambled >> (64 - self.0.len().trailing_zeros());
        &mut self.0[at as usize]
    }
}

/// FNV-1a, a string's memo fingerprint.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Parses `rows` against `schema`, encoding string dimensions through
/// the cube's shared `dictionaries` (one slot per dimension, `None`
/// for integer dimensions).
///
/// Invalid records are counted in [`ParsedBatch::rejected`] and
/// skipped — enforcement of `max_rejected` happens at the request
/// level, where the whole batch can still be discarded.
pub fn parse_rows(
    schema: &CubeSchema,
    layout: &BidLayout,
    dictionaries: &[Option<Arc<Mutex<Dictionary>>>],
    rows: &[Row],
) -> ParsedBatch {
    debug_assert_eq!(dictionaries.len(), schema.dimensions.len());
    let mut batch = ParsedBatch::default();
    let num_dims = schema.dimensions.len();
    // Per-batch scratch, reused by every row: the row's coordinates,
    // and the dimensions whose string is unseen. Minting those ids is
    // deferred until the whole row validates, so a record rejected by
    // a later dimension or metric check never leaves a phantom entry
    // in the shared dictionary (which would otherwise be persisted by
    // every following flush round and permanently burn an id below
    // the cardinality cap).
    let mut coords = vec![0u32; num_dims];
    let mut pending: Vec<usize> = Vec::new();
    // Per-batch memos. A string dimension's holds the ids resolved
    // below its cardinality: a minted id never changes, so a hit
    // skips the dictionary mutex. `open` holds the chunk of the first
    // brick to claim each slot; a brick whose slot another holds keeps
    // its chunk in `by_bid`, so no brick's rows are ever split.
    let mut memos: Vec<_> = (schema.dimensions.iter())
        .zip(dictionaries)
        .map(|(dim, dict)| {
            let keys = rows.len().min(dim.cardinality as usize);
            dict.as_deref().map(|dict| (dict, Memo::new(keys)))
        })
        .collect();
    let mut open: Memo<u64, RecordChunk> = Memo::new(rows.len());
    'rows: for row in rows {
        if row.len() != schema.arity() {
            batch.rejected += 1;
            continue;
        }
        pending.clear();
        for (idx, dim) in schema.dimensions.iter().enumerate() {
            coords[idx] = match (&row[idx], &mut memos[idx]) {
                (Value::Str(s), Some((dict, memo))) => match memo.slot(fnv1a(s)) {
                    Some((key, id)) if *key == s.as_str() => *id,
                    slot => {
                        let dict = unpoison(dict.lock());
                        match dict.lookup(s) {
                            // Ids beyond the declared cardinality are
                            // rejected, matching the paper's
                            // "dimensional cardinality" validation.
                            Some(id) if id < dim.cardinality => {
                                *slot = Some((s.as_str(), id));
                                id
                            }
                            Some(_) => {
                                batch.rejected += 1;
                                continue 'rows;
                            }
                            // Unseen: viable only while id capacity
                            // remains; the mint itself waits for
                            // full-row validation (placeholder
                            // coordinate for now).
                            None if (dict.len() as u64) < u64::from(dim.cardinality) => {
                                pending.push(idx);
                                0
                            }
                            None => {
                                batch.rejected += 1;
                                continue 'rows;
                            }
                        }
                    }
                },
                (Value::I64(v), None) => {
                    if *v < 0 || *v >= dim.cardinality as i64 {
                        batch.rejected += 1;
                        continue 'rows;
                    }
                    *v as u32
                }
                _ => {
                    batch.rejected += 1;
                    continue 'rows;
                }
            };
        }
        let metrics = &row[num_dims..];
        for (metric, value) in schema.metrics.iter().zip(metrics) {
            match (metric.metric_type, value) {
                (MetricType::I64, Value::I64(_)) | (MetricType::F64, Value::F64(_)) => {}
                _ => {
                    batch.rejected += 1;
                    continue 'rows;
                }
            }
        }
        // The row is fully valid: mint the deferred ids. Capacity is
        // re-checked under the lock — a concurrent parser may have
        // minted other strings since the first pass.
        for &idx in &pending {
            let dim = &schema.dimensions[idx];
            let s = row[idx].as_str().expect("pending dimensions hold strings");
            let (dict, memo) = memos[idx]
                .as_mut()
                .expect("pending dimensions have dictionaries");
            let mut dict = unpoison(dict.lock());
            let id = match dict.lookup(s) {
                Some(id) => id,
                None if (dict.len() as u64) < u64::from(dim.cardinality) => dict.encode(s),
                None => {
                    batch.rejected += 1;
                    continue 'rows;
                }
            };
            if id >= dim.cardinality {
                batch.rejected += 1;
                continue 'rows;
            }
            *memo.slot(fnv1a(s)) = Some((s, id));
            coords[idx] = id;
        }
        let bid = layout.bid_for_coords(&coords);
        let new_chunk = || RecordChunk {
            coords: vec![Vec::new(); num_dims],
            metrics: schema.metric_columns(),
        };
        let chunk = match open.slot(bid) {
            Some((key, chunk)) if *key == bid => chunk,
            Some(_) => batch.by_bid.entry(bid).or_insert_with(new_chunk),
            slot @ None => &mut slot.insert((bid, new_chunk())).1,
        };
        chunk.push(&coords, metrics);
        batch.accepted += 1;
    }
    batch.by_bid.extend(open.0.into_iter().flatten());
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{Dimension, Metric};

    fn schema() -> CubeSchema {
        CubeSchema::new(
            "t",
            vec![
                Dimension::string("region", 4, 2),
                Dimension::int("day", 8, 4),
            ],
            vec![Metric::int("likes")],
        )
        .unwrap()
    }

    fn dicts(schema: &CubeSchema) -> Vec<Option<Arc<Mutex<Dictionary>>>> {
        schema
            .dimensions
            .iter()
            .map(|d| d.is_string.then(|| Arc::new(Mutex::new(Dictionary::new()))))
            .collect()
    }

    #[test]
    fn valid_rows_are_grouped_by_bid() {
        let schema = schema();
        let layout = BidLayout::new(&schema);
        let dicts = dicts(&schema);
        let rows = vec![
            vec![Value::from("us"), Value::from(0i64), Value::from(10i64)],
            vec![Value::from("br"), Value::from(1i64), Value::from(20i64)],
            vec![Value::from("us"), Value::from(5i64), Value::from(30i64)],
        ];
        let batch = parse_rows(&schema, &layout, &dicts, &rows);
        assert_eq!(batch.accepted, 3);
        assert_eq!(batch.rejected, 0);
        // us(0) day0 and br(1) day1 share region-range 0 / day-range 0;
        // us day5 lands in day-range 1.
        assert_eq!(batch.bricks_touched(), 2);
        let total: usize = batch.by_bid.values().map(RecordChunk::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn arity_and_type_violations_reject() {
        let schema = schema();
        let layout = BidLayout::new(&schema);
        let dicts = dicts(&schema);
        let rows = vec![
            vec![Value::from("us"), Value::from(0i64)], // short
            vec![Value::from(1i64), Value::from(0i64), Value::from(1i64)], // int for string dim
            vec![Value::from("us"), Value::from("x"), Value::from(1i64)], // string for int dim
            vec![Value::from("us"), Value::from(0i64), Value::from(0.5f64)], // float for int metric
        ];
        let batch = parse_rows(&schema, &layout, &dicts, &rows);
        assert_eq!(batch.accepted, 0);
        assert_eq!(batch.rejected, 4);
    }

    #[test]
    fn cardinality_violations_reject() {
        let schema = schema();
        let layout = BidLayout::new(&schema);
        let dicts = dicts(&schema);
        let rows = vec![
            vec![Value::from("a"), Value::from(0i64), Value::from(1i64)],
            vec![Value::from("b"), Value::from(0i64), Value::from(1i64)],
            vec![Value::from("c"), Value::from(0i64), Value::from(1i64)],
            vec![Value::from("d"), Value::from(0i64), Value::from(1i64)],
            vec![Value::from("e"), Value::from(0i64), Value::from(1i64)], // 5th > card 4
            vec![Value::from("a"), Value::from(8i64), Value::from(1i64)], // day out of range
            vec![Value::from("a"), Value::from(-1i64), Value::from(1i64)],
        ];
        let batch = parse_rows(&schema, &layout, &dicts, &rows);
        assert_eq!(batch.accepted, 4);
        assert_eq!(batch.rejected, 3);
    }

    /// Regression: a rejected record must not leave its strings in
    /// the shared dictionary. Before the lookup-before-encode fix,
    /// `encode` minted the id first and the cardinality check ran
    /// after — every rejected string permanently burned an id (and
    /// was persisted by each later flush round).
    #[test]
    fn rejected_rows_do_not_pollute_the_dictionary() {
        let schema = schema();
        let layout = BidLayout::new(&schema);
        let dicts = dicts(&schema);
        let bad_rows = vec![
            // New string, but the integer dimension is out of range.
            vec![Value::from("us"), Value::from(99i64), Value::from(1i64)],
            // New string, but the metric has the wrong type.
            vec![Value::from("br"), Value::from(0i64), Value::from(0.5f64)],
        ];
        let batch = parse_rows(&schema, &layout, &dicts, &bad_rows);
        assert_eq!(batch.accepted, 0);
        assert_eq!(batch.rejected, 2);
        let dict = unpoison(dicts[0].as_ref().unwrap().lock());
        assert!(
            dict.is_empty(),
            "rejected rows minted ids: {:?}",
            dict.entries_from(0)
        );
        drop(dict);
        // Reject-then-accept ordering: the same strings must now
        // encode cleanly, getting the ids the rejects would have
        // stolen.
        let good_rows = vec![
            vec![Value::from("us"), Value::from(0i64), Value::from(1i64)],
            vec![Value::from("br"), Value::from(1i64), Value::from(2i64)],
        ];
        let batch = parse_rows(&schema, &layout, &dicts, &good_rows);
        assert_eq!(batch.accepted, 2);
        let dict = unpoison(dicts[0].as_ref().unwrap().lock());
        assert_eq!(dict.lookup("us"), Some(0));
        assert_eq!(dict.lookup("br"), Some(1));
        assert_eq!(dict.len(), 2);
    }

    /// Regression: strings beyond the cardinality cap are rejected
    /// without growing the dictionary, so the cap stays exact — a
    /// fifth distinct string must not block a sixth row reusing one
    /// of the four legitimate entries, and repeated over-cap strings
    /// must not grow the dictionary without bound.
    #[test]
    fn over_cardinality_strings_never_mint_ids() {
        let schema = schema();
        let layout = BidLayout::new(&schema);
        let dicts = dicts(&schema);
        let mut rows: Vec<Row> = ["a", "b", "c", "d", "e", "f", "e"]
            .iter()
            .map(|s| vec![Value::from(*s), Value::from(0i64), Value::from(1i64)])
            .collect();
        rows.push(vec![Value::from("a"), Value::from(1i64), Value::from(1i64)]);
        let batch = parse_rows(&schema, &layout, &dicts, &rows);
        assert_eq!(batch.accepted, 5, "four distinct strings plus the reuse");
        assert_eq!(batch.rejected, 3);
        let dict = unpoison(dicts[0].as_ref().unwrap().lock());
        assert_eq!(dict.len(), 4, "dictionary holds exactly the cap");
        assert_eq!(dict.lookup("e"), None);
        assert_eq!(dict.lookup("f"), None);
    }

    /// Keys that share a slot evict each other and the slot names the
    /// key it holds, so a lookup never answers with another key's
    /// value: crafted collisions only cost misses.
    #[test]
    fn memo_collisions_miss_instead_of_answering_for_another_key() {
        let mut memo: Memo<u64, u32> = Memo::new(8);
        // Keys 1 and 2 with one fingerprint.
        *memo.slot(7) = Some((1, 10));
        assert_eq!(*memo.slot(7), Some((1, 10)));
        *memo.slot(7) = Some((2, 20));
        assert_eq!(*memo.slot(7), Some((2, 20)), "1 misses: its slot holds 2");
    }

    /// More bricks than the chunk table has slots: a brick whose slot
    /// another brick holds keeps its chunk in `by_bid`, and every
    /// brick still gets all its rows, in input order.
    #[test]
    fn bricks_beyond_the_chunk_table_keep_every_row_in_order() {
        let schema = CubeSchema::new(
            "t",
            vec![Dimension::int("x", 1024, 1)],
            vec![Metric::int("v")],
        )
        .unwrap();
        let rows: Vec<Row> = (0..3i64)
            .flat_map(|round| (0..600i64).map(move |x| vec![Value::from(x), Value::from(round)]))
            .collect();
        let batch = parse_rows(&schema, &BidLayout::new(&schema), &[None], &rows);
        assert_eq!(batch.bricks_touched(), 600);
        for (&bid, chunk) in &batch.by_bid {
            assert_eq!(chunk.coords, vec![vec![bid as u32; 3]]);
            assert_eq!(chunk.metrics, vec![Column::I64(vec![0, 1, 2])]);
        }
    }

    #[test]
    fn shared_dictionary_keeps_ids_stable_across_batches() {
        let schema = schema();
        let layout = BidLayout::new(&schema);
        let dicts = dicts(&schema);
        let rows1 = vec![vec![
            Value::from("us"),
            Value::from(0i64),
            Value::from(1i64),
        ]];
        let rows2 = vec![vec![
            Value::from("us"),
            Value::from(0i64),
            Value::from(2i64),
        ]];
        let b1 = parse_rows(&schema, &layout, &dicts, &rows1);
        let b2 = parse_rows(&schema, &layout, &dicts, &rows2);
        let c1 = b1.by_bid.values().next().unwrap().coords[0][0];
        let c2 = b2.by_bid.values().next().unwrap().coords[0][0];
        assert_eq!(c1, c2);
    }
}
