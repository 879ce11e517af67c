//! Property-based tests of the flush-round codec: lossless
//! roundtrips, and no silent acceptance of damaged files.

use columnar::{Column, Value};
use cubrick::{
    AggFn, Aggregation, BrickDelta, CubeSchema, DeltaRun, Dimension, Engine, IsolationMode, Metric,
    Query, RecordChunk,
};
use proptest::prelude::*;
use wal::codec::{decode, encode};
use wal::{recover_into, DictDelta, FlushRound, WalError};

/// One typed metric column of `rows` values: a run's metric has one
/// type in every record.
fn column_strategy(rows: usize) -> impl Strategy<Value = Column> {
    prop_oneof![
        prop::collection::vec(any::<i64>(), rows).prop_map(Column::I64),
        // Finite floats only: NaN breaks PartialEq-based comparison,
        // and metrics are measurement data, never NaN on ingest.
        prop::collection::vec(-1e12f64..1e12, rows).prop_map(Column::F64),
    ]
}

fn chunk_strategy() -> impl Strategy<Value = RecordChunk> {
    (1usize..4, 0usize..3, 0usize..8).prop_flat_map(|(dims, metrics, rows)| {
        (
            prop::collection::vec(prop::collection::vec(any::<u32>(), rows), dims),
            prop::collection::vec(column_strategy(rows), metrics),
        )
            .prop_map(move |(coords, metrics)| {
                if rows == 0 {
                    // An empty run has no columns on disk.
                    return RecordChunk::default();
                }
                RecordChunk { coords, metrics }
            })
    })
}

fn run_strategy() -> impl Strategy<Value = DeltaRun> {
    prop_oneof![
        4 => (1u64..1000, chunk_strategy())
            .prop_map(|(epoch, records)| DeltaRun::Insert { epoch, records }),
        1 => (1u64..1000).prop_map(|epoch| DeltaRun::Delete { epoch }),
    ]
}

fn dict_strategy() -> impl Strategy<Value = DictDelta> {
    (
        "[a-z_]{1,10}",
        0u16..8,
        0u32..1000,
        prop::collection::vec("[a-zA-Z0-9 '_-]{0,20}", 0..6),
    )
        .prop_map(|(cube, dim, first_id, entries)| DictDelta {
            cube,
            dim,
            first_id,
            entries,
        })
}

fn round_strategy() -> impl Strategy<Value = FlushRound> {
    (
        0u64..100,
        0u64..1000,
        prop::collection::vec(
            (any::<u64>(), "[a-z_]{1,12}").prop_flat_map(|(bid, cube)| {
                prop::collection::vec(run_strategy(), 1..5).prop_map(move |runs| BrickDelta {
                    cube: cube.clone(),
                    bid,
                    runs,
                })
            }),
            0..6,
        ),
        prop::collection::vec(dict_strategy(), 0..4),
    )
        .prop_map(|(lse, span, deltas, dictionaries)| FlushRound {
            lse,
            lse_prime: lse + span,
            deltas,
            dictionaries,
        })
}

/// The bytes the commit before column-major chunks wrote for
/// [`recorded_round`] (`CBRKWAL1`, 364 bytes).
const RECORDED_ROUND: &[u8] = include_bytes!("fixtures/recorded_round.bin");
/// The same round as the v2 encoder writes it (`CBRKWAL2`): the v1
/// bytes under a new magic and an XXH64 checksum.
const RECORDED_ROUND_V2: &[u8] = include_bytes!("fixtures/recorded_round_v2.bin");

fn rows(rows: &[(&[u32], i64, Option<f64>)]) -> RecordChunk {
    let rows: Vec<(Vec<u32>, Vec<Value>)> = rows
        .iter()
        .map(|&(coords, likes, score)| {
            let metrics = std::iter::once(Value::I64(likes))
                .chain(score.map(Value::F64))
                .collect();
            (coords.to_vec(), metrics)
        })
        .collect();
    RecordChunk::from_rows(&rows)
}

/// Two cubes — `events (region STRING DIM(4, 2), day INT DIM(8, 4);
/// likes INT, score FLOAT)` and `other (d INT DIM(8, 2); m INT)` —
/// with insert runs, delete runs and a dictionary delta.
fn recorded_round() -> FlushRound {
    FlushRound {
        lse: 0,
        lse_prime: 7,
        deltas: vec![
            BrickDelta {
                cube: "events".into(),
                bid: 0,
                runs: vec![
                    DeltaRun::Insert {
                        epoch: 3,
                        records: rows(&[(&[0, 1], -5, Some(2.5)), (&[1, 3], 9, Some(-0.5))]),
                    },
                    DeltaRun::Delete { epoch: 5 },
                    DeltaRun::Insert {
                        epoch: 7,
                        records: rows(&[(&[0, 2], 40, Some(1e-3))]),
                    },
                ],
            },
            BrickDelta {
                cube: "events".into(),
                bid: 3,
                runs: vec![DeltaRun::Insert {
                    epoch: 6,
                    records: rows(&[(&[2, 6], i64::MIN, Some(f64::MAX))]),
                }],
            },
            BrickDelta {
                cube: "other".into(),
                bid: 2,
                runs: vec![
                    DeltaRun::Insert {
                        epoch: 4,
                        records: rows(&[(&[5], 11, None), (&[4], -12, None), (&[5], 13, None)]),
                    },
                    DeltaRun::Delete { epoch: 6 },
                ],
            },
        ],
        dictionaries: vec![DictDelta {
            cube: "events".into(),
            dim: 0,
            first_id: 0,
            entries: vec!["us".into(), "it's".into(), "br".into()],
        }],
    }
}

/// The on-disk layout is pinned, not assumed: the encoder writes the
/// recorded v2 round byte for byte, and the decoder reads both
/// recorded versions back into the same chunks.
#[test]
fn encoding_is_byte_identical_to_the_recorded_round() {
    assert_eq!(&encode(&recorded_round())[..], RECORDED_ROUND_V2);
    assert_eq!(decode(RECORDED_ROUND_V2).unwrap(), recorded_round());
    assert_eq!(decode(RECORDED_ROUND).unwrap(), recorded_round());
}

/// v2 changed the magic and the checksum, and no byte between them.
#[test]
fn the_v2_round_differs_from_v1_only_in_magic_and_checksum() {
    assert_eq!(RECORDED_ROUND.len(), RECORDED_ROUND_V2.len());
    let body = RECORDED_ROUND.len() - 12;
    assert_eq!(&RECORDED_ROUND[..8], b"CBRKWAL1");
    assert_eq!(&RECORDED_ROUND_V2[..8], b"CBRKWAL2");
    assert_eq!(RECORDED_ROUND[8..body], RECORDED_ROUND_V2[8..body]);
    assert_ne!(
        RECORDED_ROUND[body..body + 8],
        RECORDED_ROUND_V2[body..body + 8]
    );
    assert_eq!(RECORDED_ROUND[body + 8..], RECORDED_ROUND_V2[body + 8..]);
}

/// Every single-bit flip of the v2 round, all 2,912 of them, is an
/// error: never a decoded round, never a panic.
#[test]
fn every_bit_flip_of_the_v2_round_is_an_error() {
    let mut flips = 0;
    for bit in 0..RECORDED_ROUND_V2.len() * 8 {
        let mut broken = RECORDED_ROUND_V2.to_vec();
        broken[bit / 8] ^= 1 << (bit % 8);
        assert!(decode(&broken).is_err(), "flip of bit {bit} decoded");
        flips += 1;
    }
    assert_eq!(flips, 2912);
}

/// The engine [`recorded_round`] was written from: its two cubes,
/// empty.
fn recorded_engine() -> Engine {
    let engine = Engine::new(2);
    let events = CubeSchema::new(
        "events",
        vec![
            Dimension::string("region", 4, 2),
            Dimension::int("day", 8, 4),
        ],
        vec![Metric::int("likes"), Metric::float("score")],
    );
    let other = CubeSchema::new(
        "other",
        vec![Dimension::int("d", 8, 2)],
        vec![Metric::int("m")],
    );
    engine.create_cube(events.unwrap()).unwrap();
    engine.create_cube(other.unwrap()).unwrap();
    engine
}

/// A directory holding `rounds`, in order, as round files.
fn round_dir(tag: &str, rounds: &[&[u8]]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (seq, bytes) in rounds.iter().enumerate() {
        std::fs::write(dir.join(format!("round-{seq:08}.cbk")), bytes).unwrap();
    }
    dir
}

fn sum(engine: &Engine, cube: &str, metric: &str) -> f64 {
    let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, metric)]);
    engine
        .query(cube, &query, IsolationMode::Snapshot)
        .unwrap()
        .scalar()
        .unwrap_or(0.0)
}

/// A WAL directory written before the change recovers under it.
#[test]
fn a_directory_holding_the_recorded_round_recovers() {
    let dir = std::env::temp_dir().join(format!("wal-recorded-round-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("round-00000000.cbk"), RECORDED_ROUND).unwrap();
    let engine = Engine::new(2);
    let events = CubeSchema::new(
        "events",
        vec![
            Dimension::string("region", 4, 2),
            Dimension::int("day", 8, 4),
        ],
        vec![Metric::int("likes"), Metric::float("score")],
    );
    let other = CubeSchema::new(
        "other",
        vec![Dimension::int("d", 8, 2)],
        vec![Metric::int("m")],
    );
    engine.create_cube(events.unwrap()).unwrap();
    engine.create_cube(other.unwrap()).unwrap();
    let report = recover_into(&dir, &engine).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(report.rounds_applied, 1);
    assert_eq!(report.rows_recovered, 7);
    assert_eq!(report.recovered_epoch, 7);
    let sum = |cube: &str, metric: &str| {
        let query = Query::aggregate(vec![Aggregation::new(AggFn::Sum, metric)]);
        engine
            .query(cube, &query, IsolationMode::Snapshot)
            .unwrap()
            .scalar()
            .unwrap_or(0.0)
    };
    // Brick 0's delete at epoch 5 hides epoch 3; brick 3 is untouched.
    assert_eq!(sum("events", "likes"), 40.0 + i64::MIN as f64);
    // `other`'s delete at epoch 6 follows its only insert.
    assert_eq!(sum("other", "m"), 0.0);
    let cube = engine.cube("events").unwrap();
    assert_eq!(cube.decode_coord(0, 1), Value::from("it's"));
}

/// A chain begun by a v1 process and continued by a v2 one recovers
/// both rounds, in order: the v2 round's delete hides what the v1
/// round wrote into brick 3, and its insert and dictionary entry land
/// after it.
#[test]
fn a_directory_holding_a_v1_round_then_a_v2_round_recovers_both() {
    let next = FlushRound {
        lse: 7,
        lse_prime: 9,
        deltas: vec![BrickDelta {
            cube: "events".into(),
            bid: 3,
            runs: vec![
                DeltaRun::Delete { epoch: 8 },
                DeltaRun::Insert {
                    epoch: 9,
                    records: rows(&[(&[3, 5], 2, Some(0.25))]),
                },
            ],
        }],
        dictionaries: vec![DictDelta {
            cube: "events".into(),
            dim: 0,
            first_id: 3,
            entries: vec!["mx".into()],
        }],
    };
    let v2 = encode(&next);
    assert_eq!(&v2[..8], b"CBRKWAL2");
    let dir = round_dir("v1-then-v2", &[RECORDED_ROUND, &v2]);
    let engine = recorded_engine();
    let report = recover_into(&dir, &engine).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(report.rounds_applied, 2);
    assert_eq!(report.rows_recovered, 8);
    assert_eq!(report.recovered_epoch, 9);
    // Brick 0 keeps epoch 7's 40; brick 3's i64::MIN is deleted at
    // epoch 8 and replaced by epoch 9's 2.
    assert_eq!(sum(&engine, "events", "likes"), 42.0);
    assert_eq!(sum(&engine, "other", "m"), 0.0);
    let cube = engine.cube("events").unwrap();
    assert_eq!(cube.decode_coord(0, 1), Value::from("it's"));
    assert_eq!(cube.decode_coord(0, 3), Value::from("mx"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every encodable round decodes back to itself.
    #[test]
    fn roundtrip_is_lossless(round in round_strategy()) {
        let bytes = encode(&round);
        let decoded = decode(&bytes).expect("self-encoded round must decode");
        prop_assert_eq!(decoded, round);
    }

    /// Any strict prefix of a round file is rejected — a partially
    /// written flush can never be mistaken for a complete one.
    #[test]
    fn truncation_is_always_detected(round in round_strategy(), cut_fraction in 0.0f64..1.0) {
        let bytes = encode(&round);
        let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
        match decode(&bytes[..cut]) {
            Err(WalError::Incomplete) | Err(WalError::Corrupt(_)) => {}
            Ok(_) => prop_assert!(false, "truncated file decoded at cut {}", cut),
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
    }

    /// A single flipped bit anywhere in the file is rejected.
    #[test]
    fn bit_flips_are_always_detected(
        round in round_strategy(),
        position_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = encode(&round);
        let position = ((bytes.len() as f64 * position_fraction) as usize).min(bytes.len() - 1);
        bytes[position] ^= 1 << bit;
        match decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => {
                // A flip in the checksum's own storage that still
                // matches would imply a hash collision — treat any
                // successful decode of damaged bytes as a failure.
                prop_assert!(false,
                    "damaged file decoded (flip at {position} bit {bit}); got {decoded:?}");
            }
        }
    }

    /// Appending garbage after the footer is rejected (file-length
    /// integrity).
    #[test]
    fn trailing_garbage_is_detected(round in round_strategy(), garbage in prop::collection::vec(any::<u8>(), 1..20)) {
        let mut bytes = encode(&round);
        bytes.extend(garbage);
        prop_assert!(decode(&bytes).is_err());
    }
}
