//! Binary format for flush-round files.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    "CBRKWAL2"                     8 bytes
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
//! checksum u64  XXH64 (seed 0) of everything above
//! magic    "DONE"                         4 bytes
//! ```
//!
//! Records are row-major here and column-major in memory
//! ([`RecordChunk`]). Encode and decode move one column at a time,
//! with strided writes and reads across a run's record block.
//!
//! ## Versions
//!
//! Encoders write only v2. Decoders also accept v1 (`CBRKWAL1`, and
//! the cold tier's `CBTSNAP1`), which differs from v2 only in its
//! magic and in sealing the body with byte-serial FNV-1a. `unseal`
//! picks the verifier from the magic for both formats. XXH64 follows
//! the published specification
//! (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>).
//!
//! The trailing checksum + magic make a round self-certifying: a
//! crash mid-write leaves a file without a valid footer, which
//! recovery classifies as [`WalError::Incomplete`] and skips — the
//! paper's "ignoring any subsequent partial flush executions".

use aosi::Epoch;
use columnar::Column;
use cubrick::{BrickDelta, DeltaRun, RecordChunk};

const HEADER_MAGIC: &[u8; 8] = b"CBRKWAL2";
/// Rounds written before v2; read, never written.
const HEADER_MAGIC_V1: &[u8; 8] = b"CBRKWAL1";
/// Closes every sealed file, round or snapshot.
const FOOTER_MAGIC: &[u8; 4] = b"DONE";
/// A checksum and the footer magic.
pub(crate) const FOOTER_LEN: usize = 8 + FOOTER_MAGIC.len();

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

/// The v1 checksum, byte-serial FNV-1a; kept only to verify v1 files.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh64_merge(acc: u64, lane_acc: u64) -> u64 {
    (acc ^ xxh64_round(0, lane_acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 of `input` with seed 0, the v2 checksum: four accumulators
/// over 32-byte stripes, then the tail in 8-, 4- and 1-byte steps,
/// then the avalanche.
pub(crate) fn xxh64(input: &[u8]) -> u64 {
    const SEED: u64 = 0;
    let lane = |bytes: &[u8]| u64::from_le_bytes(bytes[..8].try_into().expect("8-byte lane"));
    let stripes = input.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut acc = if input.len() >= 32 {
        let mut v1 = SEED.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = SEED.wrapping_add(PRIME64_2);
        let mut v3 = SEED;
        let mut v4 = SEED.wrapping_sub(PRIME64_1);
        for stripe in stripes {
            v1 = xxh64_round(v1, lane(&stripe[0..]));
            v2 = xxh64_round(v2, lane(&stripe[8..]));
            v3 = xxh64_round(v3, lane(&stripe[16..]));
            v4 = xxh64_round(v4, lane(&stripe[24..]));
        }
        let acc = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(acc, xxh64_merge)
    } else {
        SEED.wrapping_add(PRIME64_5)
    };
    acc = acc.wrapping_add(input.len() as u64);
    while tail.len() >= 8 {
        acc ^= xxh64_round(0, lane(tail));
        acc = acc
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word")) as u64;
        acc ^= word.wrapping_mul(PRIME64_1);
        acc = acc
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        acc ^= (byte as u64).wrapping_mul(PRIME64_5);
        acc = acc.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(PRIME64_2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(PRIME64_3);
    acc ^ (acc >> 32)
}

/// Appends the v2 footer that seals `buf` (magic first): XXH64 of
/// every byte so far, then `DONE`.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let checksum = xxh64(buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf.extend_from_slice(FOOTER_MAGIC);
}

/// Why [`unseal`] refused a file before any field was read.
pub(crate) enum SealError {
    /// Shorter than a magic plus a footer.
    Short,
    /// The footer magic is missing: the write never finished.
    Torn,
    /// The header magic names neither version of the format.
    UnknownMagic,
    /// The body does not hash to the stored checksum.
    Mismatch,
}

/// Checks the seal of a file whose format has the magics `v1` and
/// `v2`, and returns the body between the magic and the checksum. The
/// magic picks the verifier: XXH64 (seed 0) for v2, FNV-1a for v1.
pub(crate) fn unseal<'a>(
    bytes: &'a [u8],
    v1: &[u8; 8],
    v2: &[u8; 8],
) -> Result<&'a [u8], SealError> {
    if bytes.len() < v2.len() + FOOTER_LEN {
        return Err(SealError::Short);
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    if &footer[8..] != FOOTER_MAGIC {
        return Err(SealError::Torn);
    }
    let (magic, fields) = body.split_at(v2.len());
    let checksum: fn(&[u8]) -> u64 = if magic == v2 {
        xxh64
    } else if magic == v1 {
        fnv1a
    } else {
        return Err(SealError::UnknownMagic);
    };
    let stored = u64::from_le_bytes(footer[..8].try_into().expect("8-byte checksum"));
    if stored != checksum(body) {
        return Err(SealError::Mismatch);
    }
    Ok(fields)
}

/// A cursor over a sealed body. Running out of bytes is the decoder's
/// own `E`, built by `truncated`.
pub(crate) struct Reader<'a, E> {
    buf: &'a [u8],
    truncated: fn() -> E,
}

impl<'a, E> Reader<'a, E> {
    pub(crate) fn new(buf: &'a [u8], truncated: fn() -> E) -> Self {
        Reader { buf, truncated }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], E> {
        if self.buf.len() < n {
            return Err((self.truncated)());
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// `count` items of `size` bytes each, as one slice. A count the
    /// body cannot hold is truncation, checked before anything is
    /// allocated for it.
    pub(crate) fn take_items(&mut self, count: usize, size: usize) -> Result<&'a [u8], E> {
        let bytes = count.checked_mul(size).ok_or_else(self.truncated)?;
        self.take(bytes)
    }

    /// A capacity for `count` items that each take at least
    /// `min_size` bytes: no more than the unread bytes can hold, so a
    /// damaged count reserves nothing it cannot fill.
    pub(crate) fn fits(&self, count: usize, min_size: usize) -> usize {
        count.min(self.buf.len() / min_size)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub(crate) fn u8(&mut self) -> Result<u8, E> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, E> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("took 2"),
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, E> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, E> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8"),
        ))
    }
}

/// Writes `values` little-endian into `records`, the `stride`-byte
/// records of a block, at byte `offset` of each: one column in one
/// pass. A stride of one value and an offset of 0 pack the column.
pub(crate) fn put_column<T: Copy, const N: usize>(
    records: &mut [u8],
    stride: usize,
    offset: usize,
    values: &[T],
    to_le: fn(T) -> [u8; N],
) {
    for (record, &value) in records.chunks_exact_mut(stride).zip(values) {
        record[offset..offset + N].copy_from_slice(&to_le(value));
    }
}

/// Appends `values` packed little-endian.
pub(crate) fn append_column<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    to_le: fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + values.len() * N, 0);
    put_column(&mut buf[start..], N, 0, values, to_le);
}

/// Reads the column at byte `offset` of each `stride`-byte record of
/// `records` back out in one pass: [`put_column`] inverted.
pub(crate) fn get_column<T, const N: usize>(
    records: &[u8],
    stride: usize,
    offset: usize,
    from_le: fn([u8; N]) -> T,
) -> Vec<T> {
    records
        .chunks_exact(stride)
        .map(|record| from_le(record[offset..offset + N].try_into().expect("N bytes")))
        .collect()
}

/// Serializes a flush round.
pub fn encode(round: &FlushRound) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    buf.extend_from_slice(HEADER_MAGIC);
    buf.extend_from_slice(&round.lse.to_le_bytes());
    buf.extend_from_slice(&round.lse_prime.to_le_bytes());
    buf.extend_from_slice(&(round.deltas.len() as u32).to_le_bytes());
    for delta in &round.deltas {
        buf.extend_from_slice(&(delta.cube.len() as u16).to_le_bytes());
        buf.extend_from_slice(delta.cube.as_bytes());
        buf.extend_from_slice(&delta.bid.to_le_bytes());
        buf.extend_from_slice(&(delta.runs.len() as u32).to_le_bytes());
        for run in &delta.runs {
            buf.extend_from_slice(&run.epoch().to_le_bytes());
            match run {
                DeltaRun::Delete { .. } => buf.push(1),
                DeltaRun::Insert { records, .. } => {
                    buf.push(0);
                    encode_records(&mut buf, records);
                }
            }
        }
    }
    buf.extend_from_slice(&(round.dictionaries.len() as u32).to_le_bytes());
    for dict in &round.dictionaries {
        buf.extend_from_slice(&(dict.cube.len() as u16).to_le_bytes());
        buf.extend_from_slice(dict.cube.as_bytes());
        buf.extend_from_slice(&dict.dim.to_le_bytes());
        buf.extend_from_slice(&dict.first_id.to_le_bytes());
        buf.extend_from_slice(&(dict.entries.len() as u32).to_le_bytes());
        for entry in &dict.entries {
            buf.extend_from_slice(&(entry.len() as u16).to_le_bytes());
            buf.extend_from_slice(entry.as_bytes());
        }
    }
    seal(&mut buf);
    buf
}

/// An insert run's shape and its row-major record block, filled one
/// column at a time.
fn encode_records(buf: &mut Vec<u8>, records: &RecordChunk) {
    let (coords, metrics) = (&records.coords, &records.metrics);
    buf.extend_from_slice(&(coords.len() as u16).to_le_bytes());
    buf.extend_from_slice(&(metrics.len() as u16).to_le_bytes());
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    let stride = coords.len() * 4 + metrics.len() * 9;
    let start = buf.len();
    buf.resize(start + records.len() * stride, 0);
    let block = &mut buf[start..];
    for (dim, values) in coords.iter().enumerate() {
        put_column(block, stride, dim * 4, values, u32::to_le_bytes);
    }
    for (metric, column) in metrics.iter().enumerate() {
        let offset = coords.len() * 4 + metric * 9;
        let tag = match column {
            Column::I64(v) => {
                put_column(block, stride, offset + 1, v, i64::to_le_bytes);
                0
            }
            Column::F64(v) => {
                put_column(block, stride, offset + 1, v, f64::to_le_bytes);
                1
            }
            Column::Str(_) => unreachable!("metrics are numeric after parsing"),
        };
        for record in block.chunks_exact_mut(stride) {
            record[offset] = tag;
        }
    }
}

type RoundReader<'a> = Reader<'a, WalError>;

/// A `u16`-length-prefixed utf-8 string.
fn string(reader: &mut RoundReader<'_>, what: &str) -> Result<String, WalError> {
    let len = reader.u16()? as usize;
    match std::str::from_utf8(reader.take(len)?) {
        Ok(s) => Ok(s.to_owned()),
        Err(_) => Err(WalError::Corrupt(format!("{what} not utf-8"))),
    }
}

/// Deserializes a flush round of either version, verifying the
/// completion footer and checksum.
pub fn decode(bytes: &[u8]) -> Result<FlushRound, WalError> {
    let body = unseal(bytes, HEADER_MAGIC_V1, HEADER_MAGIC).map_err(|e| match e {
        SealError::Short | SealError::Torn => WalError::Incomplete,
        SealError::UnknownMagic => WalError::Corrupt("bad header magic".into()),
        SealError::Mismatch => WalError::Corrupt("checksum mismatch".into()),
    })?;
    let mut reader = Reader::new(body, || WalError::Corrupt("truncated body".into()));
    let lse = reader.u64()?;
    let lse_prime = reader.u64()?;
    let num_deltas = reader.u32()? as usize;

    // The smallest delta is a name length, a bid and a run count.
    let mut deltas = Vec::with_capacity(reader.fits(num_deltas, 2 + 8 + 4));
    for _ in 0..num_deltas {
        let cube = string(&mut reader, "cube name")?;
        let bid = reader.u64()?;
        let num_runs = reader.u32()? as usize;
        // The smallest run is an epoch and a kind.
        let mut runs = Vec::with_capacity(reader.fits(num_runs, 8 + 1));
        for _ in 0..num_runs {
            let epoch = reader.u64()?;
            match reader.u8()? {
                1 => runs.push(DeltaRun::Delete { epoch }),
                0 => {
                    let records = decode_records(&mut reader)?;
                    runs.push(DeltaRun::Insert { epoch, records });
                }
                k => return Err(WalError::Corrupt(format!("unknown run kind {k}"))),
            }
        }
        deltas.push(BrickDelta { cube, bid, runs });
    }
    let num_dicts = reader.u32()? as usize;
    // The smallest dictionary delta: name length, dim, first id, count.
    let mut dictionaries = Vec::with_capacity(reader.fits(num_dicts, 2 + 2 + 4 + 4));
    for _ in 0..num_dicts {
        let cube = string(&mut reader, "cube name")?;
        let dim = reader.u16()?;
        let first_id = reader.u32()?;
        let count = reader.u32()? as usize;
        let mut entries = Vec::with_capacity(reader.fits(count, 2));
        for _ in 0..count {
            entries.push(string(&mut reader, "dictionary entry")?);
        }
        dictionaries.push(DictDelta {
            cube,
            dim,
            first_id,
            entries,
        });
    }
    if !reader.is_empty() {
        return Err(WalError::Corrupt("trailing bytes in body".into()));
    }
    Ok(FlushRound {
        lse,
        lse_prime,
        deltas,
        dictionaries,
    })
}

/// An insert run's record block, read back one column at a time. A
/// run with records has one typed column per metric, so a tag that
/// differs between its records is corrupt.
fn decode_records(reader: &mut RoundReader<'_>) -> Result<RecordChunk, WalError> {
    let dims = reader.u16()? as usize;
    let metrics = reader.u16()? as usize;
    let count = reader.u32()? as usize;
    let stride = dims * 4 + metrics * 9;
    let block = reader.take_items(count, stride)?;
    let coords = (0..dims)
        .map(|dim| get_column(block, stride, dim * 4, u32::from_le_bytes))
        .collect();
    // A run without records has no metric columns.
    let metrics = if count == 0 { 0 } else { metrics };
    let mut columns = Vec::with_capacity(metrics);
    for metric in 0..metrics {
        let offset = dims * 4 + metric * 9;
        let tag = block[offset];
        if tag > 1 {
            return Err(WalError::Corrupt(format!("unknown metric tag {tag}")));
        }
        if let Some(record) = block.chunks_exact(stride).find(|r| r[offset] != tag) {
            return Err(WalError::Corrupt(format!(
                "metric tag {} differs from the run's first record",
                record[offset]
            )));
        }
        columns.push(if tag == 0 {
            Column::I64(get_column(block, stride, offset + 1, i64::from_le_bytes))
        } else {
            Column::F64(get_column(block, stride, offset + 1, f64::from_le_bytes))
        });
    }
    Ok(RecordChunk {
        coords,
        metrics: columns,
    })
}

#[cfg(test)]
pub(crate) mod tests {
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
        let bytes = encode(&sample_round());
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
        let mut bytes = encode(&sample_round());
        // First record of the first run: header 8 + lse 8 + lse' 8 +
        // deltas 4 + cube 2+6 + bid 8 + runs 4 + epoch 8 + kind 1 +
        // dims 2 + metrics 2 + records 4, then 2 coords; its first
        // metric tag follows.
        let first_tag = 8 + 8 + 8 + 4 + 8 + 8 + 4 + 8 + 1 + 2 + 2 + 4 + 8;
        let stride = 2 * 4 + 2 * 9;
        assert_eq!(bytes[first_tag], 0);
        bytes[first_tag + stride] = 1;
        reseal(&mut bytes, HEADER_MAGIC, xxh64);
        match decode(&bytes) {
            Err(WalError::Corrupt(msg)) => assert!(msg.contains("differs"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Overwrites the magic of a sealed file and seals it again with
    /// `checksum`.
    pub(crate) fn reseal(bytes: &mut [u8], magic: &[u8; 8], checksum: fn(&[u8]) -> u64) {
        bytes[..8].copy_from_slice(magic);
        let body = bytes.len() - FOOTER_LEN;
        let sum = checksum(&bytes[..body]);
        bytes[body..body + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// The same file sealed as v1 (FNV-1a) and as v2 (XXH64).
    pub(crate) fn both_versions(
        v2_bytes: &[u8],
        v1_magic: &[u8; 8],
        v2_magic: &[u8; 8],
    ) -> [Vec<u8>; 2] {
        let mut v1 = v2_bytes.to_vec();
        reseal(&mut v1, v1_magic, fnv1a);
        let mut v2 = v2_bytes.to_vec();
        reseal(&mut v2, v2_magic, xxh64);
        [v1, v2]
    }

    #[test]
    fn xxh64_matches_the_specification() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"xxhash"), 0x32DD_3895_2C4B_C720);
        // Inputs that reach the 32-byte stripe loop and every tail
        // step. Their low 32 bits are the content checksums `zstd
        // --check` wrote for the same bytes (a zstd frame stores the
        // low half of XXH64 with seed 0).
        for (len, low) in [
            (6, 0x8d5c_e4c4u32),
            (31, 0xcc4a_6119),
            (32, 0xf790_fd97),
            (33, 0xba58_8784),
            (64, 0xf6ee_b01f),
            (100, 0x170f_e531),
            (1000, 0x33f1_a3fb),
        ] {
            let input: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(xxh64(&input) as u32, low, "{len} bytes");
        }
    }

    #[test]
    fn a_v1_round_decodes_to_the_same_round() {
        let round = sample_round();
        let [v1, v2] = both_versions(&encode(&round), HEADER_MAGIC_V1, HEADER_MAGIC);
        assert_eq!(v2, encode(&round), "encoders write v2");
        assert_eq!(decode(&v1).unwrap(), round);
        // A v1 magic on a v2 checksum, or the reverse, is corrupt.
        let mut crossed = v2.clone();
        crossed[..8].copy_from_slice(HEADER_MAGIC_V1);
        assert!(matches!(decode(&crossed), Err(WalError::Corrupt(_))));
        crossed = v1;
        crossed[..8].copy_from_slice(HEADER_MAGIC);
        assert!(matches!(decode(&crossed), Err(WalError::Corrupt(_))));
    }

    /// A correctly sealed round may still claim more than it holds; the
    /// decoder reserves only what the bytes can hold and reports the
    /// truncation, in either version.
    #[test]
    fn a_round_claiming_u32_max_deltas_is_corrupt() {
        let mut bytes = HEADER_MAGIC.to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        seal(&mut bytes);
        for sealed in both_versions(&bytes, HEADER_MAGIC_V1, HEADER_MAGIC) {
            match decode(&sealed) {
                Err(WalError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_footer_magic_is_incomplete() {
        let mut bytes = encode(&sample_round());
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
