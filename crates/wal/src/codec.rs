//! Binary format for flush-round files.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    "CBRKWAL1"                     8 bytes
//! lse      u64   exclusive range start
//! lse'     u64   inclusive range end
//! deltas   u32
//!   per delta:
//!     cube  u16 length + utf-8 bytes
//!     bid   u64
//!     runs  u32
//!       per run:
//!         epoch u64
//!         kind  u8   0 = insert, 1 = delete
//!         insert only:
//!           dims u16, metrics u16, records u32
//!           per record: dims x u32 coords,
//!                       metrics x (tag u8: 0=i64 1=f64, payload 8B)
//!           (a metric's tag is the same in every record of a run)
//! dict deltas u32
//!   per delta:
//!     cube u16 length + utf-8, dim u16, first_id u32, entries u32,
//!     per entry: u16 length + utf-8 bytes
//! checksum u64  FNV-1a of everything above
//! magic    "DONE"                         4 bytes
//! ```
//!
//! Records are row-major here and column-major in memory
//! ([`RecordChunk`]); encode and decode transpose in one pass.
//!
//! The trailing checksum + magic make a round self-certifying: a
//! crash mid-write leaves a file without a valid footer, which
//! recovery classifies as [`WalError::Incomplete`] and skips — the
//! paper's "ignoring any subsequent partial flush executions".

use aosi::Epoch;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use columnar::Column;
use cubrick::{BrickDelta, DeltaRun, RecordChunk};

const HEADER_MAGIC: &[u8; 8] = b"CBRKWAL1";
const FOOTER_MAGIC: &[u8; 4] = b"DONE";

/// One flush round: the epoch window plus everything exported for it.
#[derive(Clone, Debug, PartialEq)]
pub struct FlushRound {
    /// Exclusive lower bound of the flushed epoch window.
    pub lse: Epoch,
    /// Inclusive upper bound (the candidate LSE').
    pub lse_prime: Epoch,
    /// Exported brick deltas.
    pub deltas: Vec<BrickDelta>,
    /// New dictionary entries since the previous round: coordinates
    /// on disk are dictionary ids, so recovery must rebuild every
    /// string dimension's dictionary with identical ids.
    pub dictionaries: Vec<DictDelta>,
}

/// The strings a dimension's dictionary gained since the last flush.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictDelta {
    /// Cube name.
    pub cube: String,
    /// Dimension index within the cube.
    pub dim: u16,
    /// Id of the first entry in `entries`.
    pub first_id: u32,
    /// New strings, in id order.
    pub entries: Vec<String>,
}

/// Decode failures.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content.
    Corrupt(String),
    /// Valid prefix but missing/invalid completion footer (partial
    /// flush) — recovery skips these.
    Incomplete,
    /// Recovery replayed the rounds but could not re-establish the
    /// engine's transactional state (e.g. the marker commit that
    /// pulls LCE over the recovered history failed). Reportable, not
    /// fatal: the caller decides whether to retry, alert, or abandon
    /// the node.
    Recovery(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(msg) => write!(f, "corrupt wal round: {msg}"),
            WalError::Incomplete => write!(f, "incomplete wal round (partial flush)"),
            WalError::Recovery(msg) => write!(f, "recovery failed: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Serializes a flush round.
pub fn encode(round: &FlushRound) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_slice(HEADER_MAGIC);
    buf.put_u64_le(round.lse);
    buf.put_u64_le(round.lse_prime);
    buf.put_u32_le(round.deltas.len() as u32);
    for delta in &round.deltas {
        buf.put_u16_le(delta.cube.len() as u16);
        buf.put_slice(delta.cube.as_bytes());
        buf.put_u64_le(delta.bid);
        buf.put_u32_le(delta.runs.len() as u32);
        for run in &delta.runs {
            buf.put_u64_le(run.epoch());
            match run {
                DeltaRun::Delete { .. } => buf.put_u8(1),
                DeltaRun::Insert { records, .. } => {
                    buf.put_u8(0);
                    let (coords, metrics) = (&records.coords, &records.metrics);
                    buf.put_u16_le(coords.len() as u16);
                    buf.put_u16_le(metrics.len() as u16);
                    buf.put_u32_le(records.len() as u32);
                    buf.reserve(records.len() * (coords.len() * 4 + metrics.len() * 9));
                    for row in 0..records.len() {
                        for dim in coords {
                            buf.put_u32_le(dim[row]);
                        }
                        for metric in metrics {
                            match metric {
                                Column::I64(v) => {
                                    buf.put_u8(0);
                                    buf.put_i64_le(v[row]);
                                }
                                Column::F64(v) => {
                                    buf.put_u8(1);
                                    buf.put_f64_le(v[row]);
                                }
                                Column::Str(_) => {
                                    unreachable!("metrics are numeric after parsing")
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    buf.put_u32_le(round.dictionaries.len() as u32);
    for dict in &round.dictionaries {
        buf.put_u16_le(dict.cube.len() as u16);
        buf.put_slice(dict.cube.as_bytes());
        buf.put_u16_le(dict.dim);
        buf.put_u32_le(dict.first_id);
        buf.put_u32_le(dict.entries.len() as u32);
        for entry in &dict.entries {
            buf.put_u16_le(entry.len() as u16);
            buf.put_slice(entry.as_bytes());
        }
    }
    let checksum = fnv1a(&buf);
    buf.put_u64_le(checksum);
    buf.put_slice(FOOTER_MAGIC);
    buf.freeze()
}

/// Deserializes a flush round, verifying the completion footer and
/// checksum.
pub fn decode(bytes: &[u8]) -> Result<FlushRound, WalError> {
    const FOOTER_LEN: usize = 8 + 4;
    if bytes.len() < HEADER_MAGIC.len() + FOOTER_LEN {
        return Err(WalError::Incomplete);
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    if &footer[8..] != FOOTER_MAGIC {
        return Err(WalError::Incomplete);
    }
    let stored = u64::from_le_bytes(footer[..8].try_into().expect("8 bytes"));
    if stored != fnv1a(body) {
        return Err(WalError::Corrupt("checksum mismatch".into()));
    }

    struct Reader<'a> {
        buf: &'a [u8],
    }
    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
            if self.buf.remaining() < n {
                return Err(WalError::Corrupt("truncated body".into()));
            }
            let (head, tail) = self.buf.split_at(n);
            self.buf = tail;
            Ok(head)
        }
        /// A `u16`-length-prefixed utf-8 string.
        fn string(&mut self, what: &str) -> Result<String, WalError> {
            let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
            match std::str::from_utf8(self.take(len)?) {
                Ok(s) => Ok(s.to_owned()),
                Err(_) => Err(WalError::Corrupt(format!("{what} not utf-8"))),
            }
        }
    }
    let mut reader = Reader { buf: body };

    if reader.take(8)? != HEADER_MAGIC {
        return Err(WalError::Corrupt("bad header magic".into()));
    }
    let lse = u64::from_le_bytes(reader.take(8)?.try_into().unwrap());
    let lse_prime = u64::from_le_bytes(reader.take(8)?.try_into().unwrap());
    let num_deltas = u32::from_le_bytes(reader.take(4)?.try_into().unwrap());

    let mut deltas = Vec::with_capacity(num_deltas as usize);
    for _ in 0..num_deltas {
        let cube = reader.string("cube name")?;
        let bid = u64::from_le_bytes(reader.take(8)?.try_into().unwrap());
        let num_runs = u32::from_le_bytes(reader.take(4)?.try_into().unwrap());
        let mut runs = Vec::with_capacity(num_runs as usize);
        for _ in 0..num_runs {
            let epoch = u64::from_le_bytes(reader.take(8)?.try_into().unwrap());
            match reader.take(1)?[0] {
                1 => runs.push(DeltaRun::Delete { epoch }),
                0 => {
                    let dims = u16::from_le_bytes(reader.take(2)?.try_into().unwrap()) as usize;
                    let metrics = u16::from_le_bytes(reader.take(2)?.try_into().unwrap()) as usize;
                    let count = u32::from_le_bytes(reader.take(4)?.try_into().unwrap()) as usize;
                    // Reserve for what the body can hold, not for
                    // what a damaged count claims.
                    let fits = count.min(reader.buf.len() / (dims * 4 + metrics * 9).max(1));
                    let mut coords = vec![Vec::with_capacity(fits); dims];
                    let mut columns: Vec<Column> = Vec::with_capacity(metrics);
                    for row in 0..count {
                        for dim in &mut coords {
                            dim.push(u32::from_le_bytes(reader.take(4)?.try_into().unwrap()));
                        }
                        for metric in 0..metrics {
                            let tag = reader.take(1)?[0];
                            let payload: [u8; 8] = reader.take(8)?.try_into().unwrap();
                            if row == 0 {
                                columns.push(match tag {
                                    0 => Column::I64(Vec::with_capacity(fits)),
                                    1 => Column::F64(Vec::with_capacity(fits)),
                                    t => {
                                        return Err(WalError::Corrupt(format!(
                                            "unknown metric tag {t}"
                                        )))
                                    }
                                });
                            }
                            match (&mut columns[metric], tag) {
                                (Column::I64(v), 0) => v.push(i64::from_le_bytes(payload)),
                                (Column::F64(v), 1) => v.push(f64::from_le_bytes(payload)),
                                (_, t) => {
                                    return Err(WalError::Corrupt(format!(
                                        "metric tag {t} differs from the run's first record"
                                    )))
                                }
                            }
                        }
                    }
                    let records = RecordChunk {
                        coords,
                        metrics: columns,
                    };
                    runs.push(DeltaRun::Insert { epoch, records });
                }
                k => return Err(WalError::Corrupt(format!("unknown run kind {k}"))),
            }
        }
        deltas.push(BrickDelta { cube, bid, runs });
    }
    let num_dicts = u32::from_le_bytes(reader.take(4)?.try_into().unwrap());
    let mut dictionaries = Vec::with_capacity(num_dicts as usize);
    for _ in 0..num_dicts {
        let cube = reader.string("cube name")?;
        let dim = u16::from_le_bytes(reader.take(2)?.try_into().unwrap());
        let first_id = u32::from_le_bytes(reader.take(4)?.try_into().unwrap());
        let count = u32::from_le_bytes(reader.take(4)?.try_into().unwrap()) as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(reader.string("dictionary entry")?);
        }
        dictionaries.push(DictDelta {
            cube,
            dim,
            first_id,
            entries,
        });
    }
    if !reader.buf.is_empty() {
        return Err(WalError::Corrupt("trailing bytes in body".into()));
    }
    Ok(FlushRound {
        lse,
        lse_prime,
        deltas,
        dictionaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Value;

    fn sample_round() -> FlushRound {
        FlushRound {
            lse: 2,
            lse_prime: 7,
            deltas: vec![
                BrickDelta {
                    cube: "events".into(),
                    bid: 42,
                    runs: vec![
                        DeltaRun::Insert {
                            epoch: 3,
                            records: RecordChunk::from_rows(&[
                                (vec![1, 2], vec![Value::I64(-5), Value::F64(2.5)]),
                                (vec![3, 0], vec![Value::I64(9), Value::F64(-0.5)]),
                            ]),
                        },
                        DeltaRun::Delete { epoch: 5 },
                        DeltaRun::Insert {
                            epoch: 7,
                            records: RecordChunk::default(),
                        },
                    ],
                },
                BrickDelta {
                    cube: "other".into(),
                    bid: 0,
                    runs: vec![DeltaRun::Delete { epoch: 6 }],
                },
            ],
            dictionaries: vec![DictDelta {
                cube: "events".into(),
                dim: 0,
                first_id: 3,
                entries: vec!["us".into(), "it's".into()],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let round = sample_round();
        let bytes = encode(&round);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, round);
    }

    #[test]
    fn empty_round_roundtrips() {
        let round = FlushRound {
            lse: 0,
            lse_prime: 0,
            deltas: vec![],
            dictionaries: vec![],
        };
        assert_eq!(decode(&encode(&round)).unwrap(), round);
    }

    #[test]
    fn truncated_file_is_incomplete() {
        let bytes = encode(&sample_round());
        for cut in [0, 5, bytes.len() - 1, bytes.len() - 4] {
            match decode(&bytes[..cut]) {
                Err(WalError::Incomplete) => {}
                other => panic!("cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bit_is_corrupt() {
        let bytes = encode(&sample_round()).to_vec();
        for idx in [10, 40, bytes.len() / 2] {
            let mut broken = bytes.clone();
            broken[idx] ^= 0x40;
            assert!(
                matches!(decode(&broken), Err(WalError::Corrupt(_))),
                "flip at {idx} undetected"
            );
        }
    }

    /// Columns are typed, so a metric whose tag changes between the
    /// records of one run has nowhere to go; it is corrupt, not
    /// silently dropped.
    #[test]
    fn a_metric_tag_that_changes_within_a_run_is_corrupt() {
        let mut bytes = encode(&sample_round()).to_vec();
        // First record of the first run: header 8 + lse 8 + lse' 8 +
        // deltas 4 + cube 2+6 + bid 8 + runs 4 + epoch 8 + kind 1 +
        // dims 2 + metrics 2 + records 4, then 2 coords; its first
        // metric tag follows.
        let first_tag = 8 + 8 + 8 + 4 + 8 + 8 + 4 + 8 + 1 + 2 + 2 + 4 + 8;
        let stride = 2 * 4 + 2 * 9;
        assert_eq!(bytes[first_tag], 0);
        bytes[first_tag + stride] = 1;
        let body = bytes.len() - 12;
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..body + 8].copy_from_slice(&checksum.to_le_bytes());
        match decode(&bytes) {
            Err(WalError::Corrupt(msg)) => assert!(msg.contains("differs"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_footer_magic_is_incomplete() {
        let mut bytes = encode(&sample_round()).to_vec();
        let n = bytes.len();
        bytes[n - 1] = b'X';
        assert!(matches!(decode(&bytes), Err(WalError::Incomplete)));
    }

    #[test]
    fn error_display() {
        assert!(WalError::Incomplete.to_string().contains("partial"));
        assert!(WalError::Corrupt("x".into()).to_string().contains('x'));
        assert!(WalError::Recovery("marker".into())
            .to_string()
            .contains("marker"));
    }
}
