//! Fault-injecting filesystem shim for the WAL.
//!
//! Every durability-relevant syscall the flush controller and the
//! recovery path make goes through the [`WalFs`] trait: file writes,
//! file fsyncs, renames, directory fsyncs, reads, and listings. Two
//! implementations exist:
//!
//! * [`RealFs`] — the passthrough to `std::fs` used in production.
//! * [`SimFs`] — a fully in-memory filesystem with *deterministic
//!   power-cut simulation*, the substrate of the crash-consistency
//!   torture harness (`oracle::torture`).
//!
//! `SimFs` models the durability semantics POSIX actually guarantees,
//! not the ones programs like to assume:
//!
//! * A file's **content** only survives a power cut once `sync_file`
//!   ran; unsynced bytes are lost, and the write in flight at the cut
//!   leaves a *torn prefix* whose length is derived deterministically
//!   from the seed.
//! * A **name binding** (create or rename) only survives once the
//!   parent directory was `sync_dir`'d. A round file that was
//!   renamed into place but whose directory entry was never fsynced
//!   vanishes at the cut — the lost-rename failure mode the torture
//!   harness exists to catch.
//!
//! Each mutating call is one numbered *crash boundary*. A `SimFs`
//! built with [`SimFs::with_cut`] counts boundaries and, when the
//! configured one is reached, applies the power-cut semantics and
//! fails that call (and every later one) with a [`power cut
//! error`](is_power_cut). The harness enumerates every boundary of a
//! workload mechanically: run once with no cut to learn the count
//! ([`SimFs::mutating_ops`]), then once per boundary.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The filesystem surface the WAL needs. All paths are absolute or
/// caller-relative; implementations must be usable behind `Arc<dyn
/// WalFs>` from multiple threads.
pub trait WalFs: Send + Sync {
    /// Creates `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (or truncates) `path` and writes `bytes` to it. The
    /// content is *not* durable until [`WalFs::sync_file`].
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// fsyncs `path`'s content (not its directory entry).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Renames `from` to `to`. The new binding is *not* durable until
    /// the parent directory is [`WalFs::sync_dir`]'d.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// fsyncs the directory itself, making its entries durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes the name `path` (durable after the next `sync_dir`).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Reads the full content of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the entries of `dir` (files only, full paths).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

// ---------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------

/// Passthrough to `std::fs`. `sync_dir` opens the directory and
/// `sync_all`s it, which is how a directory entry is made durable on
/// POSIX systems.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

impl WalFs for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::options().write(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories as files; directory-entry
        // durability is best-effort there. On POSIX this is the real
        // thing.
        match std::fs::File::open(dir) {
            Ok(f) => f.sync_all(),
            Err(e) if cfg!(windows) => {
                let _ = e;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------
// Power-cut error
// ---------------------------------------------------------------

/// Marker payload inside the `io::Error` a [`SimFs`] returns from the
/// crash boundary onwards.
#[derive(Debug)]
struct PowerCut;

impl std::fmt::Display for PowerCut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated power cut")
    }
}

impl std::error::Error for PowerCut {}

fn power_cut_error() -> io::Error {
    io::Error::other(PowerCut)
}

/// `true` when `err` is a [`SimFs`] power-cut marker (as opposed to a
/// genuine I/O failure).
pub fn is_power_cut(err: &io::Error) -> bool {
    err.get_ref().is_some_and(|inner| inner.is::<PowerCut>())
}

// ---------------------------------------------------------------
// SimFs
// ---------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct Inode {
    /// What a reader of the live filesystem sees.
    content: Vec<u8>,
    /// What survives a power cut (set by `sync_file`).
    durable: Vec<u8>,
}

#[derive(Clone, Debug, Default)]
struct SimState {
    dirs: BTreeSet<PathBuf>,
    /// Visible namespace: name -> inode number.
    names: BTreeMap<PathBuf, u64>,
    /// Durable namespace: what the directory entries look like after
    /// a power cut (updated only by `sync_dir`).
    durable_names: BTreeMap<PathBuf, u64>,
    inodes: BTreeMap<u64, Inode>,
    next_ino: u64,
    /// Mutating syscalls executed so far (crash boundaries passed).
    ops: u64,
    crashed: bool,
}

/// Deterministic in-memory filesystem with power-cut simulation.
///
/// All state lives behind one mutex; the struct is cheap and holds no
/// OS resources. Use [`SimFs::new`] for a cut-free run (census /
/// reference) and [`SimFs::with_cut`] to die at one specific crash
/// boundary.
pub struct SimFs {
    state: Mutex<SimState>,
    seed: u64,
    cut_at: Option<u64>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SimFs {
    /// A simulated filesystem that never crashes (used for the census
    /// pass and as the substrate of post-run fault sweeps).
    pub fn new(seed: u64) -> SimFs {
        SimFs {
            state: Mutex::new(SimState::default()),
            seed,
            cut_at: None,
        }
    }

    /// A simulated filesystem that powers off at mutating-syscall
    /// boundary `cut_at` (0-based): that call fails with a power-cut
    /// error, unsynced state is lost (the in-flight write may leave a
    /// seeded torn prefix), and every later call fails too.
    pub fn with_cut(seed: u64, cut_at: u64) -> SimFs {
        SimFs {
            state: Mutex::new(SimState::default()),
            seed,
            cut_at: Some(cut_at),
        }
    }

    /// Mutating syscalls executed so far — after a cut-free run, the
    /// number of crash boundaries the workload exposes.
    pub fn mutating_ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// `true` once the configured power cut has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Ends the outage: the machine reboots with only the durable
    /// state. (The cut itself already reduced the visible namespace
    /// and contents to their durable versions.)
    pub fn reboot(&self) {
        self.state.lock().unwrap().crashed = false;
    }

    /// Immediately applies power-cut semantics (without an op in
    /// flight) and reboots: everything unsynced is dropped. Used by
    /// fault sweeps to ask "what would disk hold if power died right
    /// now?".
    pub fn crash_now(&self) {
        let mut st = self.state.lock().unwrap();
        Self::apply_power_cut(&mut st);
        st.crashed = false;
    }

    /// A deep copy of the current state (same seed, no cut) so a
    /// sweep can mutilate a fork without disturbing the original.
    pub fn fork(&self) -> SimFs {
        SimFs {
            state: Mutex::new(self.state.lock().unwrap().clone()),
            seed: self.seed,
            cut_at: None,
        }
    }

    /// Flips bit `bit` (modulo the file length) of the *durable*
    /// content of `path`, simulating media corruption that a later
    /// recovery will read. Returns `false` if the file is unknown or
    /// empty.
    pub fn flip_durable_bit(&self, path: &Path, bit: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        let Some(ino) = st.durable_names.get(path).copied() else {
            return false;
        };
        let Some(inode) = st.inodes.get_mut(&ino) else {
            return false;
        };
        if inode.durable.is_empty() {
            return false;
        }
        let idx = (bit / 8) as usize % inode.durable.len();
        let mask = 1u8 << (bit % 8);
        inode.durable[idx] ^= mask;
        // Keep visible content in lockstep so a sweep that recovers
        // without a crash sees the corruption too.
        inode.content = inode.durable.clone();
        true
    }

    /// Removes `path` from both namespaces (simulates a lost file /
    /// directory hole). Returns `false` when absent.
    pub fn remove_everywhere(&self, path: &Path) -> bool {
        let mut st = self.state.lock().unwrap();
        let a = st.names.remove(path).is_some();
        let b = st.durable_names.remove(path).is_some();
        a || b
    }

    /// The durable names under `dir`, sorted (what a post-cut listing
    /// would return).
    pub fn durable_files(&self, dir: &Path) -> Vec<PathBuf> {
        let st = self.state.lock().unwrap();
        st.durable_names
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect()
    }

    /// Crash boundary bookkeeping: fails when already crashed, fires
    /// the cut when this op is the victim. Returns `true` when the
    /// current op is the cut victim (its partial effect, if any, must
    /// be applied by the caller *before* [`SimFs::apply_power_cut`]).
    fn begin_op(&self, st: &mut SimState) -> io::Result<bool> {
        if st.crashed {
            return Err(power_cut_error());
        }
        let victim = self.cut_at == Some(st.ops);
        st.ops += 1;
        if victim {
            st.crashed = true;
        }
        Ok(victim)
    }

    /// Reduces the filesystem to its durable state: the visible
    /// namespace becomes the durable namespace and every inode's
    /// content reverts to its synced bytes. Orphaned inodes (never
    /// durably named) disappear.
    fn apply_power_cut(st: &mut SimState) {
        st.names = st.durable_names.clone();
        let live: BTreeSet<u64> = st.names.values().copied().collect();
        st.inodes.retain(|ino, _| live.contains(ino));
        for inode in st.inodes.values_mut() {
            inode.content = inode.durable.clone();
        }
    }

    /// Seeded torn-prefix length for the write in flight at the cut:
    /// any prefix of the new bytes (including none or all of them)
    /// may have reached the platter.
    fn torn_len(&self, op: u64, len: usize) -> usize {
        (splitmix64(self.seed ^ op.wrapping_mul(0x5851_f42d_4c95_7f2d)) % (len as u64 + 1)) as usize
    }
}

impl WalFs for SimFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let victim = self.begin_op(&mut st)?;
        if victim {
            Self::apply_power_cut(&mut st);
            return Err(power_cut_error());
        }
        // Directory creation is modelled as immediately durable: the
        // WAL creates its directory once, long before any crash of
        // interest, and journalled filesystems persist mkdir quickly.
        let mut p = dir.to_path_buf();
        loop {
            st.dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let victim = self.begin_op(&mut st)?;
        let op = st.ops;
        let ino = match st.names.get(path) {
            Some(&ino) => ino,
            None => {
                let ino = st.next_ino;
                st.next_ino += 1;
                st.names.insert(path.to_path_buf(), ino);
                st.inodes.insert(ino, Inode::default());
                ino
            }
        };
        if victim {
            // The cut strikes mid-write: a seeded prefix of the new
            // bytes may be durable — and, adversarially, the
            // truncation that preceded the write already destroyed
            // the old durable content (File::create truncates).
            let torn = self.torn_len(op, bytes.len());
            if let Some(inode) = st.inodes.get_mut(&ino) {
                inode.durable = bytes[..torn].to_vec();
            }
            Self::apply_power_cut(&mut st);
            return Err(power_cut_error());
        }
        if let Some(inode) = st.inodes.get_mut(&ino) {
            inode.content = bytes.to_vec();
        }
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let victim = self.begin_op(&mut st)?;
        if victim {
            Self::apply_power_cut(&mut st);
            return Err(power_cut_error());
        }
        let ino =
            st.names.get(path).copied().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, "sync_file: no such file")
            })?;
        if let Some(inode) = st.inodes.get_mut(&ino) {
            inode.durable = inode.content.clone();
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let victim = self.begin_op(&mut st)?;
        if victim {
            // The rename never happens; the machine dies first.
            Self::apply_power_cut(&mut st);
            return Err(power_cut_error());
        }
        let ino = st
            .names
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "rename: no such file"))?;
        st.names.insert(to.to_path_buf(), ino);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let victim = self.begin_op(&mut st)?;
        if victim {
            Self::apply_power_cut(&mut st);
            return Err(power_cut_error());
        }
        if !st.dirs.contains(dir) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "sync_dir: no such directory",
            ));
        }
        let visible: Vec<(PathBuf, u64)> = st
            .names
            .iter()
            .filter(|(p, _)| p.parent() == Some(dir))
            .map(|(p, &ino)| (p.clone(), ino))
            .collect();
        st.durable_names.retain(|p, _| p.parent() != Some(dir));
        st.durable_names.extend(visible);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let victim = self.begin_op(&mut st)?;
        if victim {
            Self::apply_power_cut(&mut st);
            return Err(power_cut_error());
        }
        st.names
            .remove(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "remove_file: no such file"))?;
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(power_cut_error());
        }
        let ino = st
            .names
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "read: no such file"))?;
        Ok(st.inodes[ino].content.clone())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.state.lock().unwrap();
        if st.crashed {
            return Err(power_cut_error());
        }
        if !st.dirs.contains(dir) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "list: no such directory",
            ));
        }
        Ok(st
            .names
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PathBuf {
        PathBuf::from("/sim/wal")
    }

    /// A full durable round: write, fsync, rename, fsync dir.
    fn write_round(fs: &SimFs, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = dir().join(format!("{name}.tmp"));
        let fin = dir().join(name);
        fs.write_file(&tmp, bytes)?;
        fs.sync_file(&tmp)?;
        fs.rename(&tmp, &fin)?;
        fs.sync_dir(&dir())
    }

    #[test]
    fn synced_and_dir_synced_data_survives_a_cut() {
        let fs = SimFs::new(7);
        fs.create_dir_all(&dir()).unwrap();
        write_round(&fs, "round-00000000.cbk", b"hello").unwrap();
        fs.crash_now();
        assert_eq!(
            fs.read(&dir().join("round-00000000.cbk")).unwrap(),
            b"hello"
        );
        assert_eq!(fs.list(&dir()).unwrap().len(), 1);
    }

    #[test]
    fn unsynced_rename_is_lost_on_cut() {
        let fs = SimFs::new(7);
        fs.create_dir_all(&dir()).unwrap();
        let tmp = dir().join("r.tmp");
        let fin = dir().join("r.cbk");
        fs.write_file(&tmp, b"data").unwrap();
        fs.sync_file(&tmp).unwrap();
        fs.rename(&tmp, &fin).unwrap();
        // No sync_dir: the binding is volatile.
        fs.crash_now();
        assert!(fs.read(&fin).is_err(), "lost rename");
        assert!(fs.read(&tmp).is_err(), "tmp entry was never durable either");
        assert!(fs.list(&dir()).unwrap().is_empty());
    }

    #[test]
    fn cut_during_write_leaves_a_seeded_torn_prefix() {
        // Boundaries: 0 create_dir, 1..=4 first round, 5 = the second
        // round's write — cut there.
        let fs = SimFs::with_cut(42, 5);
        fs.create_dir_all(&dir()).unwrap();
        write_round(&fs, "round-00000000.cbk", b"first").unwrap();
        let err = fs
            .write_file(&dir().join("round-00000001.tmp"), &[0xAB; 100])
            .unwrap_err();
        assert!(is_power_cut(&err));
        assert!(fs.crashed());
        // Everything after the cut fails until reboot.
        assert!(fs.list(&dir()).is_err());
        fs.reboot();
        // Round 0 survived; the torn tmp was never durably named.
        assert_eq!(fs.list(&dir()).unwrap().len(), 1);
        assert_eq!(
            fs.read(&dir().join("round-00000000.cbk")).unwrap(),
            b"first"
        );
    }

    #[test]
    fn enumeration_is_deterministic() {
        let census = |seed| {
            let fs = SimFs::new(seed);
            fs.create_dir_all(&dir()).unwrap();
            write_round(&fs, "a.cbk", b"a").unwrap();
            write_round(&fs, "b.cbk", b"bb").unwrap();
            fs.mutating_ops()
        };
        assert_eq!(census(1), census(1));
        assert_eq!(census(1), 1 + 2 * 4, "mkdir + 2 rounds x 4 syscalls");
    }

    #[test]
    fn every_boundary_fires_exactly_once() {
        let total = {
            let fs = SimFs::new(3);
            fs.create_dir_all(&dir()).unwrap();
            write_round(&fs, "a.cbk", b"abc").unwrap();
            fs.mutating_ops()
        };
        for cut in 0..total {
            let fs = SimFs::with_cut(3, cut);
            let run = || -> io::Result<()> {
                fs.create_dir_all(&dir())?;
                write_round(&fs, "a.cbk", b"abc")
            };
            let err = run().expect_err("cut must fire");
            assert!(is_power_cut(&err), "cut {cut}");
        }
    }

    #[test]
    fn bit_flip_and_hole_injection() {
        let fs = SimFs::new(9);
        fs.create_dir_all(&dir()).unwrap();
        write_round(&fs, "a.cbk", b"payload").unwrap();
        let path = dir().join("a.cbk");
        assert!(fs.flip_durable_bit(&path, 11));
        let corrupted = fs.read(&path).unwrap();
        assert_ne!(corrupted, b"payload");
        assert!(fs.remove_everywhere(&path));
        assert!(fs.read(&path).is_err());
    }
}
