//! Cold-tier brick snapshots over [`WalFs`].
//!
//! [`WalBrickStore`] is the production implementation of
//! [`cubrick::BrickStore`]: when a shard of the engine evicts a
//! clean-cold brick, the brick is serialized into one
//! self-certifying snapshot file written through the same [`WalFs`]
//! trait the flush controller uses — so the crash torture harness
//! (`oracle::torture`) enumerates power cuts at every mutating syscall
//! of the spill path exactly like it does for flush rounds.
//!
//! ## Format
//!
//! One file per evicted brick, `b-<hex cube>-<bid>.cbt` (all
//! integers little-endian):
//!
//! ```text
//! magic      "CBTSNAP2"                    8 bytes
//! cube       u16 length + utf-8 bytes
//! bid        u64
//! storage    u8    0 = plain, 1 = bess
//! generation u64   the epochs vector's mutation generation
//! rows       u64
//! epochs     u32
//!   per entry: epoch u64, end u64, kind u8 (0 = insert, 1 = delete)
//! dims       u16
//!   per dim: rows x u32 coordinates
//! metrics    u16
//!   per metric: tag u8 (0 = i64, 1 = f64) + rows x 8-byte payload
//! dicts      u16   string dimensions with a dictionary slice
//!   per dict: dim u16, entries u32,
//!             per entry u16 length + utf-8 bytes
//! checksum   u64   XXH64 (seed 0) of everything above
//! magic      "DONE"                        4 bytes
//! ```
//!
//! `CBTSNAP1` snapshots — the same bytes between magic and checksum,
//! sealed with FNV-1a — still decode; only v2 is written (see
//! [`crate::codec`]'s "Versions"). Encode reserves the exact size once
//! and writes each column in one pass; decode converts each column in
//! one pass, and reserves for a count no more than the file can hold.
//!
//! The generation counter rides in the snapshot verbatim, so a brick
//! that round-trips through the cold tier is bit-identical to the one
//! that left, epochs vector included. The dictionary slice makes a
//! snapshot self-describing — its string coordinates can be decoded
//! without the engine — and lets `reload` detect a snapshot that was
//! produced against a different dictionary history.
//!
//! ## Durability and staleness
//!
//! A spill becomes durable in the same four syscalls as a flush
//! round: write `.tmp`, fsync it, rename into place, fsync the
//! directory. Every spilled row is *also* in the WAL round chain
//! (eviction requires the brick's newest epoch at or below the LSE,
//! and the chain retains all rounds), so snapshots are a redundant
//! cold copy: crash recovery never reads them, and a power cut at
//! any spill/discard boundary loses nothing. For the same reason,
//! every snapshot found at store-open time is *stale* — recovery
//! has already rebuilt all bricks resident from the chain — and
//! [`WalBrickStore::open`] deletes them. Which bricks are spilled is
//! the engine's own state — each shard's brick map holds a stub per
//! spilled brick — and is never read back from this directory, so a
//! leftover file is harmless. Keep the snapshot directory
//! separate from the round-chain directory: the flush controller
//! clears unknown files in its own directory, and this store clears
//! everything in its.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aosi::{EpochEntry, EpochsVector};
use columnar::Column;
use cubrick::{Brick, BrickStore, Cube, DimStorage, MetricType, TierError};
use obs::sync::unpoison;

use crate::codec::{append_column, get_column, seal, unseal, Reader, SealError, FOOTER_LEN};
use crate::fault::{RealFs, WalFs};

const SNAP_MAGIC: &[u8; 8] = b"CBTSNAP2";
/// Snapshots written before v2; read, never written.
const SNAP_MAGIC_V1: &[u8; 8] = b"CBTSNAP1";
const SNAP_EXT: &str = "cbt";

/// [`cubrick::BrickStore`] over a [`WalFs`] directory. See the
/// module docs for format and durability semantics.
pub struct WalBrickStore {
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
}

impl WalBrickStore {
    /// Opens a snapshot store in `dir` on the real filesystem,
    /// deleting any stale snapshots a previous process left behind.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with(Arc::new(RealFs), dir)
    }

    /// Like [`WalBrickStore::open`] but routing every syscall through
    /// `fs` (the torture harness substitutes its simulated
    /// filesystem).
    pub fn open_with(fs: Arc<dyn WalFs>, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        // Everything on disk predates this process; recovery rebuilt
        // all bricks resident from the round chain, so old snapshots
        // (and torn .tmp files) describe bricks that are no longer
        // spilled.
        let mut removed = false;
        for path in fs.list(&dir)? {
            fs.remove_file(&path)?;
            removed = true;
        }
        if removed {
            fs.sync_dir(&dir)?;
        }
        Ok(WalBrickStore { fs, dir })
    }

    /// The directory snapshots are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, cube: &str, bid: u64) -> PathBuf {
        let mut name = String::from("b-");
        for byte in cube.bytes() {
            name.push_str(&format!("{byte:02x}"));
        }
        name.push_str(&format!("-{bid:016x}.{SNAP_EXT}"));
        self.dir.join(name)
    }
}

fn io_err(op: &str, e: std::io::Error) -> TierError {
    TierError::Io(format!("{op}: {e}"))
}

impl BrickStore for WalBrickStore {
    fn spill(&self, cube: &Cube, bid: u64, brick: &Brick) -> Result<u64, TierError> {
        let bytes = encode_snapshot(cube, bid, brick);
        let path = self.snapshot_path(cube.name(), bid);
        let tmp = path.with_extension("tmp");
        self.fs
            .write_file(&tmp, &bytes)
            .map_err(|e| io_err("write snapshot", e))?;
        self.fs
            .sync_file(&tmp)
            .map_err(|e| io_err("sync snapshot", e))?;
        self.fs
            .rename(&tmp, &path)
            .map_err(|e| io_err("rename snapshot", e))?;
        self.fs
            .sync_dir(&self.dir)
            .map_err(|e| io_err("sync snapshot dir", e))?;
        Ok(bytes.len() as u64)
    }

    fn reload(&self, cube: &Cube, bid: u64) -> Result<Brick, TierError> {
        let path = self.snapshot_path(cube.name(), bid);
        let bytes = match self.fs.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(TierError::Missing),
            Err(e) => return Err(io_err("read snapshot", e)),
        };
        decode_snapshot(cube, bid, &bytes)
    }

    fn discard(&self, cube: &str, bid: u64) -> Result<(), TierError> {
        let path = self.snapshot_path(cube, bid);
        match self.fs.remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err("remove snapshot", e)),
        }
        self.fs
            .sync_dir(&self.dir)
            .map_err(|e| io_err("sync snapshot dir", e))?;
        Ok(())
    }
}

/// Serializes `brick` into a self-certifying snapshot, reserving its
/// exact size once and writing each column in one pass.
fn encode_snapshot(cube: &Cube, bid: u64, brick: &Brick) -> Vec<u8> {
    let schema = cube.schema();
    let rows = brick.row_count();
    let epochs = brick.epochs();
    let dicts: Vec<(u16, Vec<String>)> = cube
        .dictionaries()
        .iter()
        .enumerate()
        .filter_map(|(dim, dict)| {
            dict.as_ref()
                .map(|d| (dim as u16, unpoison(d.lock()).entries_from(0)))
        })
        .collect();
    let (dims, metrics) = (schema.dimensions.len(), schema.metrics.len());
    let size = SNAP_MAGIC.len()
        + 2
        + schema.name.len()
        + 8 // bid
        + 1 // storage
        + 8 // generation
        + 8 // rows
        + 4
        + epochs.entries().len() * 17
        + 2
        + dims * rows as usize * 4
        + 2
        + metrics * (1 + rows as usize * 8)
        + 2
        + dicts
            .iter()
            .map(|(_, entries)| 2 + 4 + entries.iter().map(|e| 2 + e.len()).sum::<usize>())
            .sum::<usize>()
        + FOOTER_LEN;
    let mut buf = Vec::with_capacity(size);
    buf.extend_from_slice(SNAP_MAGIC);
    buf.extend_from_slice(&(schema.name.len() as u16).to_le_bytes());
    buf.extend_from_slice(schema.name.as_bytes());
    buf.extend_from_slice(&bid.to_le_bytes());
    buf.push(match brick.storage_kind() {
        DimStorage::Plain => 0,
        DimStorage::Bess => 1,
    });
    buf.extend_from_slice(&epochs.generation().to_le_bytes());
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.extend_from_slice(&(epochs.entries().len() as u32).to_le_bytes());
    for entry in epochs.entries() {
        buf.extend_from_slice(&entry.epoch().to_le_bytes());
        buf.extend_from_slice(&entry.end().to_le_bytes());
        buf.push(entry.is_delete() as u8);
    }
    buf.extend_from_slice(&(dims as u16).to_le_bytes());
    for dim in 0..dims {
        match brick.dim_slice(dim) {
            Some(coords) => append_column(&mut buf, coords, u32::to_le_bytes),
            None => append_column(&mut buf, &brick.dim_coords(dim), u32::to_le_bytes),
        }
    }
    buf.extend_from_slice(&(metrics as u16).to_le_bytes());
    for metric in 0..metrics {
        match brick.metric_column(metric) {
            Column::I64(values) => {
                buf.push(0);
                append_column(&mut buf, values, i64::to_le_bytes);
            }
            Column::F64(values) => {
                buf.push(1);
                append_column(&mut buf, values, f64::to_le_bytes);
            }
            Column::Str(_) => unreachable!("metrics are numeric after parsing"),
        }
    }
    buf.extend_from_slice(&(dicts.len() as u16).to_le_bytes());
    for (dim, entries) in &dicts {
        buf.extend_from_slice(&dim.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for entry in entries {
            buf.extend_from_slice(&(entry.len() as u16).to_le_bytes());
            buf.extend_from_slice(entry.as_bytes());
        }
    }
    seal(&mut buf);
    debug_assert_eq!(buf.len(), size, "snapshot size reserved exactly");
    buf
}

/// Deserializes and validates a snapshot of either version back into
/// a brick, converting each column in one pass. Every structural check
/// runs before [`Brick::restore`] is called, so a snapshot that lies
/// about itself surfaces as [`TierError::Corrupt`], never as an
/// installed-then-wrong brick.
fn decode_snapshot(cube: &Cube, want_bid: u64, bytes: &[u8]) -> Result<Brick, TierError> {
    let corrupt = |msg: &str| TierError::Corrupt(msg.to_owned());
    let body = unseal(bytes, SNAP_MAGIC_V1, SNAP_MAGIC).map_err(|e| {
        corrupt(match e {
            SealError::Short => "snapshot shorter than header + footer",
            SealError::Torn => "torn snapshot (bad footer magic)",
            SealError::UnknownMagic => "bad snapshot magic",
            SealError::Mismatch => "checksum mismatch",
        })
    })?;
    let mut reader = Reader::new(body, || {
        TierError::Corrupt("truncated snapshot body".into())
    });

    let schema = cube.schema();
    let name_len = reader.u16()? as usize;
    let name =
        std::str::from_utf8(reader.take(name_len)?).map_err(|_| corrupt("cube name not utf-8"))?;
    if name != schema.name {
        return Err(TierError::Corrupt(format!(
            "snapshot belongs to cube {name:?}, wanted {:?}",
            schema.name
        )));
    }
    let bid = reader.u64()?;
    if bid != want_bid {
        return Err(TierError::Corrupt(format!(
            "snapshot belongs to brick {bid}, wanted {want_bid}"
        )));
    }
    let storage = match reader.u8()? {
        0 => DimStorage::Plain,
        1 => DimStorage::Bess,
        tag => return Err(TierError::Corrupt(format!("unknown storage tag {tag}"))),
    };
    let generation = reader.u64()?;
    let rows = reader.u64()?;
    let num_entries = reader.u32()? as usize;
    let mut entries = Vec::with_capacity(reader.fits(num_entries, 17));
    let mut last_insert_end = 0u64;
    for _ in 0..num_entries {
        let epoch = reader.u64()?;
        let end = reader.u64()?;
        match reader.u8()? {
            1 => entries.push(EpochEntry::delete(epoch, end)),
            0 => {
                if end < last_insert_end {
                    return Err(corrupt("epochs vector ends not monotonic"));
                }
                last_insert_end = end;
                entries.push(EpochEntry::insert(epoch, end));
            }
            kind => return Err(TierError::Corrupt(format!("unknown entry kind {kind}"))),
        }
    }
    if last_insert_end != rows || (num_entries == 0 && rows != 0) {
        return Err(corrupt("row count disagrees with epochs vector"));
    }
    // Every column below is `rows` values long; `take_items` refuses a
    // count the body cannot hold before anything is reserved for it.
    let rows_usize = usize::try_from(rows).map_err(|_| corrupt("row count overflows"))?;

    let num_dims = reader.u16()? as usize;
    if num_dims != schema.dimensions.len() {
        return Err(TierError::Corrupt(format!(
            "snapshot has {num_dims} dimensions, schema has {}",
            schema.dimensions.len()
        )));
    }
    let mut dim_columns = Vec::with_capacity(num_dims);
    for _ in 0..num_dims {
        let coords = reader.take_items(rows_usize, 4)?;
        dim_columns.push(get_column(coords, 4, 0, u32::from_le_bytes));
    }

    let num_metrics = reader.u16()? as usize;
    if num_metrics != schema.metrics.len() {
        return Err(TierError::Corrupt(format!(
            "snapshot has {num_metrics} metrics, schema has {}",
            schema.metrics.len()
        )));
    }
    let mut metrics = Vec::with_capacity(num_metrics);
    for metric in &schema.metrics {
        let tag = reader.u8()?;
        let column = match (tag, metric.metric_type) {
            (0, MetricType::I64) => Column::I64(get_column(
                reader.take_items(rows_usize, 8)?,
                8,
                0,
                i64::from_le_bytes,
            )),
            (1, MetricType::F64) => Column::F64(get_column(
                reader.take_items(rows_usize, 8)?,
                8,
                0,
                f64::from_le_bytes,
            )),
            (tag, _) => {
                return Err(TierError::Corrupt(format!(
                    "metric {:?}: snapshot tag {tag} disagrees with schema",
                    metric.name
                )))
            }
        };
        metrics.push(column);
    }

    // The dictionary slice: the snapshot's string coordinates were
    // minted against these entries, and the live dictionary must
    // agree on every id (it may only have grown since the spill).
    let num_dicts = reader.u16()? as usize;
    for _ in 0..num_dicts {
        let dim = reader.u16()? as usize;
        let count = reader.u32()? as usize;
        let dict = cube
            .dictionaries()
            .get(dim)
            .and_then(|d| d.as_ref())
            .ok_or_else(|| {
                TierError::Corrupt(format!("dimension {dim} is not a string dimension"))
            })?;
        let dict = unpoison(dict.lock());
        for id in 0..count {
            let len = reader.u16()? as usize;
            let entry = std::str::from_utf8(reader.take(len)?)
                .map_err(|_| corrupt("dictionary entry not utf-8"))?;
            match dict.decode(id as u32) {
                Some(live) if live == entry => {}
                Some(live) => {
                    return Err(TierError::Corrupt(format!(
                        "dictionary drift on dimension {dim}: id {id} is {live:?} live, \
                         {entry:?} in snapshot"
                    )))
                }
                None => {
                    return Err(TierError::Corrupt(format!(
                        "dictionary drift on dimension {dim}: id {id} ({entry:?}) \
                         missing from the live dictionary"
                    )))
                }
            }
        }
    }
    if !reader.is_empty() {
        return Err(corrupt("trailing bytes in snapshot body"));
    }

    let epochs = EpochsVector::from_parts_with_generation(entries, rows, generation);
    Ok(Brick::restore(
        schema,
        storage,
        dim_columns,
        metrics,
        epochs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::both_versions;
    use crate::fault::SimFs;
    use columnar::Value;
    use cubrick::{CubeSchema, Dimension, Metric, RecordChunk};

    fn cube() -> Cube {
        Cube::new(
            CubeSchema::new(
                "events",
                vec![
                    Dimension::string("region", 4, 2),
                    Dimension::int("day", 8, 4),
                ],
                vec![Metric::int("likes"), Metric::float("score")],
            )
            .unwrap(),
        )
    }

    fn sample_brick(cube: &Cube, storage: DimStorage) -> Brick {
        // Mint dictionary ids the way ingest would.
        let dict = cube.dictionaries()[0].as_ref().unwrap();
        let us = unpoison(dict.lock()).encode("us");
        let br = unpoison(dict.lock()).encode("br");
        let mut brick = Brick::with_storage(cube.schema(), storage);
        brick.append(
            3,
            &RecordChunk::from_rows(&[
                (vec![us, 1], vec![Value::I64(10), Value::F64(0.5)]),
                (vec![br, 2], vec![Value::I64(-4), Value::F64(2.25)]),
            ]),
        );
        brick.mark_delete(4);
        brick.append(
            5,
            &RecordChunk::from_rows(&[(vec![us, 3], vec![Value::I64(7), Value::F64(-1.0)])]),
        );
        brick
    }

    fn assert_bit_identical(a: &Brick, b: &Brick, dims: usize, metrics: usize) {
        assert_eq!(a.row_count(), b.row_count());
        assert_eq!(a.storage_kind(), b.storage_kind());
        assert_eq!(a.epochs().entries(), b.epochs().entries());
        assert_eq!(a.epochs().generation(), b.epochs().generation());
        for dim in 0..dims {
            assert_eq!(a.dim_coords(dim), b.dim_coords(dim), "dim {dim}");
        }
        for metric in 0..metrics {
            assert_eq!(
                a.metric_column(metric),
                b.metric_column(metric),
                "metric {metric}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_both_layouts() {
        let cube = cube();
        for storage in [DimStorage::Plain, DimStorage::Bess] {
            let brick = sample_brick(&cube, storage);
            let bytes = encode_snapshot(&cube, 7, &brick);
            let restored = decode_snapshot(&cube, 7, &bytes).unwrap();
            assert_bit_identical(&brick, &restored, 2, 2);
        }
    }

    /// `encode_snapshot` of [`sample_brick`] as bid 7, plain layout
    /// then bess, recorded before the encoder moved off its byte-buffer
    /// crate: `CBTSNAP1` files still decode.
    const RECORDED_SNAPSHOTS: &[u8] = include_bytes!("../tests/fixtures/recorded_snapshot.bin");
    /// The same two snapshots as `CBTSNAP2`, recorded from the v2
    /// encoder: the v1 bytes under a new magic and an XXH64 checksum.
    const RECORDED_SNAPSHOTS_V2: &[u8] =
        include_bytes!("../tests/fixtures/recorded_snapshot_v2.bin");

    /// A recorded pair of snapshots, split into plain and bess.
    fn halves(recorded: &[u8]) -> [(DimStorage, &[u8]); 2] {
        let (plain, bess) = recorded.split_at(recorded.len() / 2);
        [(DimStorage::Plain, plain), (DimStorage::Bess, bess)]
    }

    #[test]
    fn encoding_is_byte_identical_to_the_recorded_snapshots() {
        let cube = cube();
        for (storage, recorded) in halves(RECORDED_SNAPSHOTS_V2) {
            let brick = sample_brick(&cube, storage);
            assert_eq!(encode_snapshot(&cube, 7, &brick), recorded, "{storage:?}");
            let restored = decode_snapshot(&cube, 7, recorded).unwrap();
            assert_bit_identical(&brick, &restored, 2, 2);
        }
        for (storage, recorded) in halves(RECORDED_SNAPSHOTS) {
            let brick = sample_brick(&cube, storage);
            let restored = decode_snapshot(&cube, 7, recorded).unwrap();
            assert_bit_identical(&brick, &restored, 2, 2);
        }
    }

    /// v2 changed the magic and the checksum, and no byte between them.
    #[test]
    fn the_v2_snapshots_differ_from_v1_only_in_magic_and_checksum() {
        assert_eq!(RECORDED_SNAPSHOTS.len(), RECORDED_SNAPSHOTS_V2.len());
        for ((_, v1), (_, v2)) in halves(RECORDED_SNAPSHOTS)
            .into_iter()
            .zip(halves(RECORDED_SNAPSHOTS_V2))
        {
            let body = v1.len() - FOOTER_LEN;
            assert_eq!(&v1[..8], SNAP_MAGIC_V1);
            assert_eq!(&v2[..8], SNAP_MAGIC);
            assert_eq!(v1[8..body], v2[8..body]);
            assert_ne!(v1[body..body + 8], v2[body..body + 8]);
            assert_eq!(v1[body + 8..], v2[body + 8..]);
        }
    }

    #[test]
    fn every_bit_flip_of_the_v2_snapshots_is_an_error() {
        let cube = cube();
        let mut flips = 0;
        for (_, recorded) in halves(RECORDED_SNAPSHOTS_V2) {
            for bit in 0..recorded.len() * 8 {
                let mut broken = recorded.to_vec();
                broken[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode_snapshot(&cube, 7, &broken).is_err(),
                    "flip of bit {bit} decoded"
                );
                flips += 1;
            }
        }
        assert_eq!(flips, RECORDED_SNAPSHOTS_V2.len() * 8);
    }

    /// A snapshot body of [`cube`]'s brick 7 up to and including its
    /// epochs vector, claiming `rows` rows and `entries` entries, of
    /// which it holds `held` — sealed as v1 and as v2.
    fn lying_snapshots(rows: u64, entries: u32, held: &[(u64, u64)]) -> [Vec<u8>; 2] {
        let mut bytes = SNAP_MAGIC.to_vec();
        bytes.extend_from_slice(&6u16.to_le_bytes());
        bytes.extend_from_slice(b"events");
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&rows.to_le_bytes());
        bytes.extend_from_slice(&entries.to_le_bytes());
        for &(epoch, end) in held {
            bytes.extend_from_slice(&epoch.to_le_bytes());
            bytes.extend_from_slice(&end.to_le_bytes());
            bytes.push(0);
        }
        bytes.extend_from_slice(&2u16.to_le_bytes());
        seal(&mut bytes);
        both_versions(&bytes, SNAP_MAGIC_V1, SNAP_MAGIC)
    }

    /// Correctly sealed snapshots whose counts claim more than the file
    /// holds: the decoder reserves only what the bytes can hold.
    #[test]
    fn counts_beyond_the_file_are_corrupt_not_reserved() {
        let cube = cube();
        let cases = [
            ("u32::MAX epochs entries", lying_snapshots(0, u32::MAX, &[])),
            (
                "an entry ending at row 2^40",
                lying_snapshots(1 << 40, 1, &[(1, 1 << 40)]),
            ),
        ];
        for (what, sealed) in cases {
            for bytes in sealed {
                match decode_snapshot(&cube, 7, &bytes) {
                    Err(TierError::Corrupt(msg)) => {
                        assert!(msg.contains("truncated"), "{what}: {msg}")
                    }
                    other => panic!("{what}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_brick_roundtrips() {
        let cube = cube();
        let brick = Brick::with_storage(cube.schema(), DimStorage::Plain);
        let bytes = encode_snapshot(&cube, 0, &brick);
        let restored = decode_snapshot(&cube, 0, &bytes).unwrap();
        assert_bit_identical(&brick, &restored, 2, 2);
    }

    #[test]
    fn flipped_bit_is_corrupt() {
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Plain);
        let bytes = encode_snapshot(&cube, 7, &brick);
        for idx in [10, bytes.len() / 2, bytes.len() - 20] {
            let mut broken = bytes.clone();
            broken[idx] ^= 0x10;
            match decode_snapshot(&cube, 7, &broken) {
                Err(TierError::Corrupt(msg)) => {
                    assert!(msg.contains("checksum"), "flip at {idx}: {msg}")
                }
                other => panic!("flip at {idx} undetected: {other:?}"),
            }
        }
    }

    #[test]
    fn torn_tail_is_corrupt() {
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Plain);
        let bytes = encode_snapshot(&cube, 7, &brick);
        for cut in [0, 5, bytes.len() - 1, bytes.len() - 4] {
            assert!(
                matches!(
                    decode_snapshot(&cube, 7, &bytes[..cut]),
                    Err(TierError::Corrupt(_))
                ),
                "cut at {cut} undetected"
            );
        }
    }

    #[test]
    fn wrong_cube_or_bid_is_rejected() {
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Plain);
        let bytes = encode_snapshot(&cube, 7, &brick);
        assert!(matches!(
            decode_snapshot(&cube, 8, &bytes),
            Err(TierError::Corrupt(_))
        ));
        let other = Cube::new(
            CubeSchema::new(
                "other",
                vec![
                    Dimension::string("region", 4, 2),
                    Dimension::int("day", 8, 4),
                ],
                vec![Metric::int("likes"), Metric::float("score")],
            )
            .unwrap(),
        );
        assert!(matches!(
            decode_snapshot(&other, 7, &bytes),
            Err(TierError::Corrupt(_))
        ));
    }

    #[test]
    fn dictionary_drift_is_rejected() {
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Plain);
        let bytes = encode_snapshot(&cube, 7, &brick);
        // A fresh cube whose dictionary history diverged: same ids,
        // different strings.
        let drifted = Cube::new(cube.schema().clone());
        let dict = drifted.dictionaries()[0].as_ref().unwrap();
        unpoison(dict.lock()).encode("de");
        unpoison(dict.lock()).encode("jp");
        match decode_snapshot(&drifted, 7, &bytes) {
            Err(TierError::Corrupt(msg)) => assert!(msg.contains("drift"), "{msg}"),
            other => panic!("drift undetected: {other:?}"),
        }
    }

    #[test]
    fn store_spills_reloads_and_discards_through_walfs() {
        let fs = Arc::new(SimFs::new(11));
        let dir = PathBuf::from("/sim/tier");
        let store = WalBrickStore::open_with(fs.clone(), &dir).unwrap();
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Bess);

        let size = store.spill(&cube, 3, &brick).unwrap();
        assert!(size > 0);
        assert!(matches!(store.reload(&cube, 99), Err(TierError::Missing)));
        let restored = store.reload(&cube, 3).unwrap();
        assert_bit_identical(&brick, &restored, 2, 2);

        store.discard("events", 3).unwrap();
        assert!(matches!(store.reload(&cube, 3), Err(TierError::Missing)));
        // Idempotent: discarding again is fine.
        store.discard("events", 3).unwrap();
    }

    #[test]
    fn a_completed_spill_survives_a_power_cut() {
        let fs = Arc::new(SimFs::new(23));
        let dir = PathBuf::from("/sim/tier");
        let store = WalBrickStore::open_with(fs.clone(), &dir).unwrap();
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Plain);
        store.spill(&cube, 5, &brick).unwrap();

        fs.crash_now();
        let restored = store.reload(&cube, 5).unwrap();
        assert_bit_identical(&brick, &restored, 2, 2);
    }

    #[test]
    fn open_deletes_stale_snapshots() {
        let fs = Arc::new(SimFs::new(31));
        let dir = PathBuf::from("/sim/tier");
        let cube = cube();
        let brick = sample_brick(&cube, DimStorage::Plain);
        {
            let store = WalBrickStore::open_with(fs.clone(), &dir).unwrap();
            store.spill(&cube, 1, &brick).unwrap();
        }
        // "Restart": recovery rebuilt everything resident, so the old
        // snapshot is stale and open clears it.
        let store = WalBrickStore::open_with(fs.clone(), &dir).unwrap();
        assert!(matches!(store.reload(&cube, 1), Err(TierError::Missing)));
        assert!(fs.list(&dir).unwrap().is_empty());
    }
}
