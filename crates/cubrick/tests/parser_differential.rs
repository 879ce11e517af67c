//! Differential test of the column-major parser against a
//! row-at-a-time model of the Section V-B validation rules.
//!
//! Random batches — wrong arity, metric type mismatches,
//! out-of-cardinality integers, unseen strings at and beyond the
//! dictionary capacity, duplicates — go through `parse_rows` and
//! through the model below. Both must accept and reject the same
//! rows, leave the same dictionaries behind (no phantom id from a row
//! a later column rejected), keep the same per-brick row order, and
//! the chunks appended to a plain and a bess brick must read back as
//! the model's rows. Several batches share the dictionaries, so an id
//! one batch's memo resolved must be the id the next batch sees.
//!
//! A second test races two parsers over shared unseen strings.

use std::collections::{BTreeMap, BTreeSet};

use columnar::{Row, Value};
use cubrick::{
    parse_rows, Brick, Cube, CubeSchema, DimStorage, Dimension, Metric, MetricType, RecordChunk,
};
use obs::sync::unpoison;
use proptest::prelude::*;

type Record = (Vec<u32>, Vec<Value>);

fn cube() -> Cube {
    Cube::new(
        CubeSchema::new(
            "t",
            vec![
                Dimension::string("region", 4, 2),
                Dimension::int("day", 8, 4),
                Dimension::string("app", 3, 1),
            ],
            vec![Metric::int("likes"), Metric::float("score")],
        )
        .unwrap(),
    )
}

/// The model: one dictionary per dimension (`None` for integer
/// dimensions), strings in id order.
type ModelDicts = Vec<Option<Vec<String>>>;

/// Validates and encodes one row the way Section V-B states it, a row
/// at a time: arity, then every dimension, then every metric; ids of
/// unseen strings are minted only once the whole row has passed.
fn model_row(schema: &CubeSchema, dicts: &mut ModelDicts, row: &Row) -> Option<Record> {
    if row.len() != schema.arity() {
        return None;
    }
    let mut coords = Vec::new();
    let mut unseen: Vec<(usize, &str)> = Vec::new();
    for (idx, dim) in schema.dimensions.iter().enumerate() {
        coords.push(match (&row[idx], &dicts[idx]) {
            (Value::Str(s), Some(dict)) => match dict.iter().position(|known| known == s) {
                Some(id) => id as u32,
                None if (dict.len() as u32) < dim.cardinality => {
                    unseen.push((idx, s.as_str()));
                    dict.len() as u32
                }
                None => return None,
            },
            (Value::I64(v), None) if (0..i64::from(dim.cardinality)).contains(v) => *v as u32,
            _ => return None,
        });
    }
    let metrics = &row[schema.dimensions.len()..];
    for (metric, value) in schema.metrics.iter().zip(metrics) {
        match (metric.metric_type, value) {
            (MetricType::I64, Value::I64(_)) | (MetricType::F64, Value::F64(_)) => {}
            _ => return None,
        }
    }
    for (idx, s) in unseen {
        dicts[idx].as_mut().unwrap().push(s.to_owned());
    }
    Some((coords, metrics.to_vec()))
}

// Pools larger than the dictionaries' capacities (4 and 3), sharing
// one string so the two dictionaries are seen to be independent.
const REGIONS: &[&str] = &["us", "br", "mx", "in", "jp", "de"];
const APPS: &[&str] = &["feed", "chat", "ads", "maps", "us"];

/// A row of the right arity and cell types; strings may be beyond a
/// dictionary's capacity and `day` beyond its cardinality.
fn typed_row() -> impl Strategy<Value = Row> {
    (0..REGIONS.len(), -1i64..10, 0..APPS.len(), -50i64..50).prop_map(|(r, day, a, likes)| {
        vec![
            Value::from(REGIONS[r]),
            Value::I64(day),
            Value::from(APPS[a]),
            Value::I64(likes),
            Value::F64(likes as f64 / 8.0),
        ]
    })
}

/// A cell of any type, for the wrong place.
fn stray_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..REGIONS.len()).prop_map(|i| Value::from(REGIONS[i])),
        (-2i64..40).prop_map(Value::I64),
        (0i64..8).prop_map(|v| Value::F64(v as f64 / 2.0)),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    prop_oneof![
        6 => typed_row(),
        // One cell replaced by a stray one.
        3 => (typed_row(), 0usize..5, stray_cell()).prop_map(|(mut row, at, cell)| {
            row[at] = cell;
            row
        }),
        // Wrong arity: one cell short, or one too many.
        1 => (typed_row(), prop::option::of(stray_cell())).prop_map(|(mut row, extra)| {
            match extra {
                Some(cell) => row.push(cell),
                None => drop(row.pop()),
            }
            row
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_agrees_with_the_row_at_a_time_model(
        batches in prop::collection::vec(prop::collection::vec(row_strategy(), 0..40), 2..6),
    ) {
        let cube = cube();
        let schema = cube.schema();
        let mut model_dicts: ModelDicts = schema
            .dimensions
            .iter()
            .map(|d| d.is_string.then(Vec::new))
            .collect();
        // Per brick: the model's rows over all batches, and one brick
        // per layout fed the parser's chunks.
        let mut model_rows: BTreeMap<u64, Vec<Record>> = BTreeMap::new();
        let mut bricks: BTreeMap<u64, [Brick; 2]> = BTreeMap::new();

        for (epoch, rows) in batches.iter().enumerate() {
            let mut expected: BTreeMap<u64, Vec<Record>> = BTreeMap::new();
            let mut rejected = 0;
            for row in rows {
                match model_row(schema, &mut model_dicts, row) {
                    Some(record) => expected
                        .entry(cube.layout().bid_for_coords(&record.0))
                        .or_default()
                        .push(record),
                    None => rejected += 1,
                }
            }

            let batch = parse_rows(schema, cube.layout(), cube.dictionaries(), rows);
            prop_assert_eq!(batch.rejected, rejected);
            prop_assert_eq!(batch.accepted, rows.len() - rejected);
            // The model never renumbers, so equal dictionaries after
            // every batch mean every earlier id is unchanged.
            for (dict, model) in cube.dictionaries().iter().zip(&model_dicts) {
                let entries = dict.as_ref().map(|d| unpoison(d.lock()).entries_from(0));
                prop_assert_eq!(&entries, model);
            }
            let parsed: BTreeMap<u64, &RecordChunk> =
                batch.by_bid.iter().map(|(&bid, chunk)| (bid, chunk)).collect();
            prop_assert_eq!(
                parsed.keys().collect::<Vec<_>>(),
                expected.keys().collect::<Vec<_>>()
            );
            for (bid, records) in expected {
                let chunk = parsed[&bid];
                prop_assert_eq!(chunk, &RecordChunk::from_rows(&records));
                let pair = bricks.entry(bid).or_insert_with(|| {
                    [DimStorage::Plain, DimStorage::Bess].map(|s| Brick::with_storage(schema, s))
                });
                for brick in pair {
                    brick.append(epoch as u64 + 1, chunk);
                }
                model_rows.entry(bid).or_default().extend(records);
            }
        }

        for (bid, records) in &model_rows {
            for brick in &bricks[bid] {
                prop_assert_eq!(brick.row_count(), records.len() as u64);
                for (row, (coords, metrics)) in records.iter().enumerate() {
                    for (dim, &coord) in coords.iter().enumerate() {
                        prop_assert_eq!(brick.dim_value(dim, row), coord);
                    }
                    for (metric, value) in metrics.iter().enumerate() {
                        prop_assert_eq!(
                            brick.metric_column(metric).get_numeric(row),
                            value.as_numeric()
                        );
                    }
                }
            }
        }
    }
}

/// Two parsers race over one cube's dictionaries with strings neither
/// has seen, some of them only on rows that a later column rejects.
/// Every row's `likes` is its global index, so each accepted record
/// traces back to the row it came from.
#[test]
fn concurrent_parsers_mint_dense_unique_ids_without_phantoms() {
    const BATCHES: usize = 40;
    const ROWS: usize = 50;
    let cube = Cube::new(
        CubeSchema::new(
            "t",
            vec![
                Dimension::string("region", 64, 8),
                Dimension::int("day", 8, 4),
                Dimension::string("app", 64, 8),
            ],
            vec![Metric::int("likes")],
        )
        .unwrap(),
    );
    // Row `id`: strings from pools both threads share, or — on a row
    // whose day (after `region`) or metric (after both strings) is
    // invalid — a string that only ever appears on rejected rows.
    let make_row = |id: usize| -> (Row, bool) {
        let x = id * 7 % 40;
        let valid = !x.is_multiple_of(5);
        let strings = if valid {
            [format!("r{}", x % 30), format!("a{}", x % 20)]
        } else {
            [format!("ghost-r{x}"), format!("ghost-a{x}")]
        };
        let [region, app] = strings.map(Value::from);
        let likes = id as i64;
        let (day, likes) = match (valid, x % 2) {
            (true, _) => (Value::I64((x % 8) as i64), Value::I64(likes)),
            (false, 0) => (Value::I64(99), Value::I64(likes)),
            (false, _) => (Value::I64(0), Value::F64(likes as f64)),
        };
        (vec![region, day, app, likes], valid)
    };
    let rows: Vec<(Row, bool)> = (0..2 * BATCHES * ROWS).map(make_row).collect();
    let batches: Vec<(usize, cubrick::ParsedBatch)> = std::thread::scope(|scope| {
        let workers: Vec<_> = rows
            .chunks(BATCHES * ROWS)
            .map(|half| {
                let cube = &cube;
                scope.spawn(move || {
                    half.chunks(ROWS)
                        .map(|batch| {
                            let batch_rows: Vec<Row> =
                                batch.iter().map(|(row, _)| row.clone()).collect();
                            let valid = batch.iter().filter(|(_, valid)| *valid).count();
                            let parsed = parse_rows(
                                cube.schema(),
                                cube.layout(),
                                cube.dictionaries(),
                                &batch_rows,
                            );
                            (valid, parsed)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });

    let dicts =
        [0, 2].map(|dim| unpoison(cube.dictionaries()[dim].as_ref().unwrap().lock()).clone());
    let mut accepted: [BTreeSet<String>; 2] = Default::default();
    for (valid, batch) in &batches {
        assert_eq!(batch.accepted, *valid);
        for chunk in batch.by_bid.values() {
            for record in 0..chunk.len() {
                let id = chunk.metrics[0].get_i64(record).unwrap();
                let (row, valid) = &rows[id as usize];
                assert!(valid, "rejected row {id} was accepted");
                for (slot, dim) in [0, 2].into_iter().enumerate() {
                    let string = row[dim].as_str().unwrap();
                    assert_eq!(
                        dicts[slot].decode(chunk.coords[dim][record]),
                        Some(string),
                        "row {id}, dimension {dim}"
                    );
                    accepted[slot].insert(string.to_owned());
                }
            }
        }
    }
    for (dict, accepted) in dicts.iter().zip(&accepted) {
        let entries = dict.entries_from(0);
        // Dense and unique: entry `i` looks up as id `i`.
        for (id, entry) in entries.iter().enumerate() {
            assert_eq!(dict.lookup(entry), Some(id as u32));
        }
        // No phantom: every entry came from an accepted row.
        assert_eq!(&entries.into_iter().collect::<BTreeSet<_>>(), accepted);
    }
}
