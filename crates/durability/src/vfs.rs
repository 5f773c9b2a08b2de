//! # The durability layer's virtual file system
//!
//! Every byte the durability layer persists — WAL segments, checkpoints,
//! directory entries — flows through the [`Vfs`] trait, so the *same* WAL and
//! checkpoint code runs against the real disk ([`StdVfs`]) and against a
//! deterministic fault injector ([`FaultVfs`]). Production pays nothing for
//! the indirection beyond one virtual call per I/O operation, which is noise
//! next to the syscall it wraps; the default everywhere is `StdVfs`.
//!
//! ## Design
//!
//! The trait surface is exactly the operations the on-disk protocols need and
//! no more:
//!
//! * [`Vfs::read`] / [`Vfs::list_dir`] / [`Vfs::exists`] — the read side
//!   (segment scans, checkpoint loads, directory listings).
//! * [`Vfs::create`] / [`Vfs::open_append`] — the two ways a file is ever
//!   opened for writing. Both return a [`VfsFile`] whose writes always land
//!   at the current end of file (append semantics), so a `set_len` truncation
//!   followed by a write can never leave a zero gap in the middle of a
//!   segment.
//! * [`VfsFile::sync_data`] / [`VfsFile::sync_all`] — the durability points.
//! * [`Vfs::rename`] + [`Vfs::sync_dir`] — the atomic-rename checkpoint
//!   protocol's two halves.
//! * [`Vfs::remove_file`] — pruning and torn-segment cleanup.
//!
//! Deliberately **outside** the trait: the advisory writer lock
//! ([`crate::wal::acquire_dir_lock`]). Locking is process-coordination, not
//! durability — a simulated power cut must not release or corrupt a real
//! lock, and a fault injector must never be able to let two real writers
//! interleave. The lock always uses the real filesystem.
//!
//! ## FaultVfs: deterministic fault schedules and power cuts
//!
//! [`FaultVfs`] is a *write-through* wrapper over the real filesystem: every
//! operation actually executes against the backing directory, while a shadow
//! journal tracks which bytes and which directory entries would survive a
//! power cut — i.e. what has actually been fsynced. Faults come from a seeded
//! [splitmix64] stream, so a failing schedule is reproducible from its seed
//! alone:
//!
//! * **Transient EIO** (`fail_prob_ppm`) — the op fails, nothing is applied.
//! * **ENOSPC** (`enospc_prob_ppm`) — write-class ops fail with `ENOSPC`.
//! * **Short writes** (`short_write_prob_ppm`) — a seeded *prefix* of the
//!   buffer reaches the file, then the write reports EIO: exactly the torn
//!   frame a real crash mid-`write(2)` leaves.
//! * **Power cut** (`cut_at_op`) — at the N-th mutating operation the power
//!   goes out: the cutting op applies at most a partial prefix, and every
//!   subsequent operation fails. [`FaultVfs::materialize_cut`] then replays
//!   the **sync-consistent** image into a fresh directory: per file, the
//!   fsynced prefix survives verbatim, while the unsynced suffix survives
//!   fully, partially, as zeros (size extension committed before data pages),
//!   or not at all — chosen by the seeded stream. Unsynced directory entries
//!   (a created file before `sync_dir`, a rename, a removal) survive or
//!   vanish the same way, so mid-rotation and mid-checkpoint-rename cuts are
//!   covered.
//!
//! Scripted controls ([`FaultVfs::fail_writes_with`], [`FaultVfs::heal`])
//! force a fixed errno on file write/sync operations for server-level tests
//! of degraded mode and re-arm, independent of the probabilistic stream.
//!
//! Approximations (documented, acceptable for the protocols under test):
//! the shadow journal models one flat directory (all `sync_dir` calls flush
//! every pending entry), and `create`-with-truncate and `set_len` are treated
//! as immediately visible — the formats never rely on a truncation being
//! reordered after a crash.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A writable file handle. Writes always append at the current end of file;
/// `set_len` moves the end of file (shrinking only, in practice: torn-tail
/// truncation and retry cleanup).
pub trait VfsFile: Send {
    /// Append the whole buffer at the end of the file.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file *data* to stable storage (fdatasync).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flush file data and metadata to stable storage (fsync).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend with zeros) to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The durability layer's view of a filesystem. See the module docs for the
/// design rationale; implemented by [`StdVfs`] (production) and [`FaultVfs`]
/// (deterministic fault injection).
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// List the entries of a directory (files only, any order).
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Does the path exist?
    fn exists(&self, path: &Path) -> bool;
    /// Open an existing file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory, making entry creations/renames/removals durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// StdVfs
// ---------------------------------------------------------------------------

/// The real filesystem. Zero-sized; the default for every durability entry
/// point.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

/// A shared `Arc<dyn Vfs>` over [`StdVfs`].
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

/// A file or directory path together with the [`Vfs`] it lives on: what every
/// durability entry point takes. A bare `&Path` (or `&PathBuf`) means the real
/// file system, [`StdVfs`]; a `(path, &vfs)` pair goes through `vfs`.
#[derive(Clone, Debug)]
pub struct VfsPath<'a> {
    /// The path.
    pub path: &'a Path,
    /// The file system it is resolved on.
    pub vfs: Arc<dyn Vfs>,
}

impl<'a> VfsPath<'a> {
    /// Another path on the same file system.
    pub fn on<'b>(&self, path: &'b Path) -> VfsPath<'b> {
        VfsPath {
            path,
            vfs: self.vfs.clone(),
        }
    }
}

impl<'a, P: AsRef<Path> + ?Sized> From<&'a P> for VfsPath<'a> {
    fn from(path: &'a P) -> Self {
        VfsPath {
            path: path.as_ref(),
            vfs: std_vfs(),
        }
    }
}

impl<'a, P: AsRef<Path> + ?Sized> From<(&'a P, &Arc<dyn Vfs>)> for VfsPath<'a> {
    fn from((path, vfs): (&'a P, &Arc<dyn Vfs>)) -> Self {
        VfsPath {
            path: path.as_ref(),
            vfs: vfs.clone(),
        }
    }
}

impl VfsFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Truncate with a throwaway handle, then reopen in append mode: the
        // standard library rejects `truncate(true)` + `append(true)`, and a
        // plain write-mode cursor would sit past EOF after a `set_len`,
        // leaving a zero gap that scans would read as mid-file corruption.
        // Append mode always writes at the current end of file.
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

/// Errno constants used by the injector (values as on Linux).
pub const EIO: i32 = 5;
/// `ENOSPC`: no space left on device.
pub const ENOSPC: i32 = 28;
/// `EROFS`: read-only filesystem (classified permanent by the server).
pub const EROFS: i32 = 30;

fn errno(code: i32) -> io::Error {
    io::Error::from_raw_os_error(code)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn chance(rng: &mut u64, ppm: u32) -> bool {
    splitmix64(rng) % 1_000_000 < ppm as u64
}

/// The seeded fault schedule of a [`FaultVfs`]. Probabilities are in parts
/// per million of mutating operations; everything is driven by `seed` alone,
/// so a failing run reproduces exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Seed of the splitmix64 decision stream.
    pub seed: u64,
    /// Probability of a transient EIO on any mutating operation.
    pub fail_prob_ppm: u32,
    /// Probability of ENOSPC on write-class operations (writes, creates).
    pub enospc_prob_ppm: u32,
    /// Probability that a write persists only a seeded prefix, then fails.
    pub short_write_prob_ppm: u32,
    /// Cut the power at this (1-based) mutating operation: the op applies at
    /// most a partial prefix and every later operation fails.
    pub cut_at_op: Option<u64>,
}

/// Shadow record of one file: what of it has actually been fsynced.
#[derive(Debug, Default)]
struct ShadowFile {
    /// Bytes guaranteed to survive a power cut (captured at each file sync).
    durable: Vec<u8>,
    /// The directory entry itself is durable (file existed before tracking,
    /// or a `sync_dir` covered its creation/rename).
    entry_durable: bool,
    /// Renamed from this name since the last `sync_dir`: after a cut the file
    /// may reappear under the old name instead.
    prev_name: Option<PathBuf>,
}

#[derive(Debug)]
struct FaultState {
    rng: u64,
    /// Mutating operations so far (the `cut_at_op` clock).
    ops: u64,
    /// Faults injected (all kinds, the cut included).
    faults: u64,
    /// The power is out: every operation fails until `materialize_cut`.
    cut: bool,
    /// Scripted errno forced on file write/sync ops (`fail_writes_with`).
    forced: Option<i32>,
    files: HashMap<PathBuf, ShadowFile>,
    /// Files removed since the last `sync_dir`, with their durable bytes: a
    /// cut may resurrect them.
    tombstones: Vec<(PathBuf, Vec<u8>)>,
}

/// A deterministic fault-injecting [`Vfs`]: write-through to the real
/// filesystem plus a shadow journal of what is sync-consistent. See the
/// module docs for semantics.
#[derive(Debug)]
pub struct FaultVfs {
    config: FaultConfig,
    state: Mutex<FaultState>,
}

/// Which fault classes apply to an operation.
#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    /// Writes data: eligible for ENOSPC and the scripted errno.
    Write,
    /// Syncs data: eligible for the scripted errno.
    Sync,
    /// Namespace ops (create dir, rename, remove): transient faults only.
    Meta,
}

impl FaultVfs {
    /// A new injector with the given schedule. Wrap in an `Arc` and hand the
    /// same instance to [`crate::DurabilityConfig::vfs`] and to the test that
    /// scripts it.
    pub fn new(config: FaultConfig) -> Self {
        FaultVfs {
            config,
            state: Mutex::new(FaultState {
                rng: config.seed ^ 0x6A09_E667_F3BC_C908,
                ops: 0,
                faults: 0,
                cut: false,
                forced: None,
                files: HashMap::new(),
                tombstones: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Script a fixed errno onto every file write/sync/truncate until
    /// [`FaultVfs::heal`] — the lever for driving a server into degraded mode
    /// on demand.
    pub fn fail_writes_with(&self, code: i32) {
        self.lock().forced = Some(code);
    }

    /// Clear the scripted errno; probabilistic faults (if any) continue.
    pub fn heal(&self) {
        self.lock().forced = None;
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Faults injected so far (scripted, probabilistic and the cut).
    pub fn faults_injected(&self) -> u64 {
        self.lock().faults
    }

    /// Has the simulated power cut fired?
    pub fn power_cut(&self) -> bool {
        self.lock().cut
    }

    /// Gate one mutating operation: advance the op clock, fire the cut, apply
    /// scripted and probabilistic faults. `Ok(())` means the op proceeds.
    fn gate(&self, kind: OpKind) -> io::Result<()> {
        let mut s = self.lock();
        self.gate_locked(&mut s, kind)
    }

    fn gate_locked(&self, s: &mut FaultState, kind: OpKind) -> io::Result<()> {
        if s.cut {
            return Err(io::Error::other("simulated power is off"));
        }
        s.ops += 1;
        if self.config.cut_at_op == Some(s.ops) {
            s.cut = true;
            s.faults += 1;
            return Err(io::Error::other("simulated power cut"));
        }
        if let Some(code) = s.forced {
            if matches!(kind, OpKind::Write | OpKind::Sync) {
                s.faults += 1;
                return Err(errno(code));
            }
        }
        if chance(&mut s.rng, self.config.fail_prob_ppm) {
            s.faults += 1;
            return Err(errno(EIO));
        }
        if kind == OpKind::Write && chance(&mut s.rng, self.config.enospc_prob_ppm) {
            s.faults += 1;
            return Err(errno(ENOSPC));
        }
        Ok(())
    }

    /// Track a path, seeding its shadow from the real file if it predates the
    /// injector (pre-existing state counts as fully durable).
    fn track(s: &mut FaultState, path: &Path) {
        if !s.files.contains_key(path) {
            let durable = fs::read(path).unwrap_or_default();
            let existed = path.exists();
            s.files.insert(
                path.to_path_buf(),
                ShadowFile {
                    durable,
                    entry_durable: existed,
                    prev_name: None,
                },
            );
        }
    }

    /// Replay the sync-consistent image into `dest` (which must be a fresh or
    /// nonexistent directory): per file, durable bytes survive verbatim while
    /// unsynced suffixes and directory entries survive per the seeded stream.
    /// Call after the power cut; recovery then runs against `dest` with a
    /// real [`StdVfs`].
    pub fn materialize_cut(&self, dest: &Path) -> io::Result<()> {
        let mut s = self.lock();
        fs::create_dir_all(dest)?;
        let mut files: Vec<(PathBuf, &ShadowFile)> =
            s.files.iter().map(|(p, f)| (p.clone(), f)).collect();
        files.sort_unstable_by(|a, b| a.0.cmp(&b.0)); // deterministic rng order
        let mut out: Vec<(PathBuf, Vec<u8>)> = Vec::new();
        let mut rng = s.rng;
        for (path, shadow) in files {
            let real = fs::read(&path).unwrap_or_default();
            let durable_len = shadow.durable.len().min(real.len());
            let unsynced = &real[durable_len..];
            let mut content = real[..durable_len].to_vec();
            let keep = if unsynced.is_empty() {
                0
            } else {
                (splitmix64(&mut rng) % (unsynced.len() as u64 + 1)) as usize
            };
            match splitmix64(&mut rng) % 4 {
                0 => {}                                            // suffix lost
                1 => content.extend_from_slice(&unsynced[..keep]), // prefix survived
                2 => content.resize(content.len() + keep, 0),      // size, not data
                _ => content.extend_from_slice(unsynced),          // all survived
            }
            let survives = shadow.entry_durable || splitmix64(&mut rng).is_multiple_of(2);
            if !survives {
                continue;
            }
            // An un-fsynced rename: the entry may still be under the old name.
            let name = match &shadow.prev_name {
                Some(old) if splitmix64(&mut rng).is_multiple_of(2) => old.clone(),
                _ => path.clone(),
            };
            out.push((name, content));
        }
        // Un-fsynced removals may not have reached the disk either.
        for (path, durable) in &s.tombstones {
            if splitmix64(&mut rng).is_multiple_of(2) {
                out.push((path.clone(), durable.clone()));
            }
        }
        s.rng = rng;
        for (path, content) in out {
            let Some(name) = path.file_name() else {
                continue;
            };
            fs::write(dest.join(name), content)?;
        }
        Ok(())
    }
}

/// A write-through file handle of a [`FaultVfs`].
struct FaultFile {
    vfs: Arc<FaultVfs>,
    path: PathBuf,
    file: File,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        {
            let mut s = self.vfs.lock();
            match self.vfs.gate_locked(&mut s, OpKind::Write) {
                Ok(()) => {
                    // Short write: a seeded prefix reaches the file, then EIO.
                    if chance(&mut s.rng, self.vfs.config.short_write_prob_ppm) && !buf.is_empty() {
                        s.faults += 1;
                        let n = (splitmix64(&mut s.rng) % buf.len() as u64) as usize;
                        drop(s);
                        let _ = io::Write::write_all(&mut self.file, &buf[..n]);
                        return Err(errno(EIO));
                    }
                }
                Err(e) => {
                    // The cutting write may still land a partial prefix.
                    if s.cut && !buf.is_empty() {
                        let n = (splitmix64(&mut s.rng) % (buf.len() as u64 + 1)) as usize;
                        drop(s);
                        let _ = io::Write::write_all(&mut self.file, &buf[..n]);
                    }
                    return Err(e);
                }
            }
        }
        io::Write::write_all(&mut self.file, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.vfs.gate(OpKind::Sync)?;
        self.file.sync_data()?;
        let mut s = self.vfs.lock();
        FaultVfs::track(&mut s, &self.path);
        let durable = fs::read(&self.path).unwrap_or_default();
        if let Some(f) = s.files.get_mut(&self.path) {
            f.durable = durable;
        }
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.vfs.gate(OpKind::Write)?;
        self.file.set_len(len)?;
        // Truncation is modeled as immediately applied (see module docs): the
        // durable image never extends past the new end.
        let mut s = self.vfs.lock();
        if let Some(f) = s.files.get_mut(&self.path) {
            f.durable.truncate(len as usize);
        }
        Ok(())
    }
}

/// The `Vfs` impl needs `Arc<FaultVfs>` so file handles can point back at the
/// shared fault state.
impl Vfs for Arc<FaultVfs> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.lock().cut {
            return Err(io::Error::other("simulated power is off"));
        }
        fs::read(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if self.lock().cut {
            return Err(io::Error::other("simulated power is off"));
        }
        StdVfs.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(OpKind::Meta)?;
        let file = OpenOptions::new().append(true).open(path)?;
        let mut s = self.lock();
        FaultVfs::track(&mut s, path);
        drop(s);
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
            file,
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.gate(OpKind::Write)?;
        // Same truncate-then-append dance as `StdVfs::create` (std rejects
        // `truncate` + `append` on one handle).
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        let mut s = self.lock();
        // A re-created file starts with no durable bytes; its *name* stays
        // durable only if it already was.
        let entry_durable = s.files.remove(path).is_some_and(|f| f.entry_durable);
        s.files.insert(
            path.to_path_buf(),
            ShadowFile {
                durable: Vec::new(),
                entry_durable,
                prev_name: None,
            },
        );
        drop(s);
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
            file,
        }))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if self.lock().cut {
            return Err(io::Error::other("simulated power is off"));
        }
        fs::create_dir_all(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(OpKind::Meta)?;
        fs::rename(from, to)?;
        let mut s = self.lock();
        let mut shadow = s.files.remove(from).unwrap_or_default();
        // Until the directory is fsynced, the old durable name may win a cut.
        shadow.prev_name = if shadow.entry_durable {
            Some(from.to_path_buf())
        } else {
            None
        };
        shadow.entry_durable = false;
        s.files.insert(to.to_path_buf(), shadow);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(OpKind::Meta)?;
        fs::remove_file(path)?;
        let mut s = self.lock();
        if let Some(shadow) = s.files.remove(path) {
            if shadow.entry_durable {
                s.tombstones.push((path.to_path_buf(), shadow.durable));
            }
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.gate(OpKind::Sync)?;
        File::open(dir)?.sync_all()?;
        let mut s = self.lock();
        for f in s.files.values_mut() {
            f.entry_durable = true;
            f.prev_name = None;
        }
        s.tombstones.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbt-vfs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips_and_appends_after_set_len() {
        let dir = tmp_dir("std");
        let path = dir.join("f");
        let mut f = StdVfs.create(&path).unwrap();
        f.write_all(b"hello world").unwrap();
        f.set_len(5).unwrap();
        f.write_all(b"!").unwrap();
        f.sync_all().unwrap();
        drop(f);
        // No zero gap: the post-truncate write landed at the new EOF.
        assert_eq!(StdVfs.read(&path).unwrap(), b"hello!");
        let mut f = StdVfs.open_append(&path).unwrap();
        f.write_all(b"?").unwrap();
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"hello!?");
        assert!(StdVfs.exists(&path));
        StdVfs.rename(&path, &dir.join("g")).unwrap();
        StdVfs.sync_dir(&dir).unwrap();
        assert!(!StdVfs.exists(&path));
        StdVfs.remove_file(&dir.join("g")).unwrap();
        assert_eq!(StdVfs.list_dir(&dir).unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scripted_faults_fire_and_heal() {
        let dir = tmp_dir("scripted");
        let vfs = Arc::new(FaultVfs::new(FaultConfig::default()));
        let path = dir.join("f");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"ok").unwrap();
        vfs.fail_writes_with(ENOSPC);
        let err = f.write_all(b"fails").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        assert_eq!(f.sync_data().unwrap_err().raw_os_error(), Some(ENOSPC));
        vfs.heal();
        f.write_all(b"!").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(fs::read(&path).unwrap(), b"ok!");
        assert!(vfs.faults_injected() >= 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_schedules_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let dir = tmp_dir(&format!("det-{seed}"));
            let vfs = Arc::new(FaultVfs::new(FaultConfig {
                seed,
                fail_prob_ppm: 200_000,
                enospc_prob_ppm: 100_000,
                short_write_prob_ppm: 100_000,
                cut_at_op: None,
            }));
            let mut outcomes = Vec::new();
            let mut f = vfs.create(&dir.join("f")).unwrap();
            for i in 0..50u8 {
                outcomes.push(f.write_all(&[i; 16]).is_ok());
                outcomes.push(f.sync_data().is_ok());
            }
            drop(f);
            let bytes = fs::read(dir.join("f")).unwrap();
            let _ = fs::remove_dir_all(&dir);
            (outcomes, bytes, vfs.faults_injected())
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7).0, run(8).0, "different seeds should diverge");
    }

    #[test]
    fn power_cut_kills_all_later_ops_and_materializes_a_prefix() {
        let dir = tmp_dir("cut");
        let cut_dir = tmp_dir("cut-dest");
        fs::remove_dir_all(&cut_dir).unwrap();
        let vfs = Arc::new(FaultVfs::new(FaultConfig {
            seed: 3,
            cut_at_op: Some(6),
            ..FaultConfig::default()
        }));
        let path = dir.join("f");
        let mut f = vfs.create(&path).unwrap(); // op 1
        f.write_all(b"aaaa").unwrap(); // op 2
        f.sync_data().unwrap(); // op 3: "aaaa" durable
        vfs.sync_dir(&dir).unwrap(); // op 4: entry durable
        f.write_all(b"bbbb").unwrap(); // op 5: unsynced suffix
        let err = f.write_all(b"cccc").unwrap_err(); // op 6: the cut
        assert!(err.to_string().contains("power cut"), "{err}");
        assert!(vfs.power_cut());
        assert!(f.write_all(b"dddd").is_err(), "power stays off");
        assert!(vfs.sync_dir(&dir).is_err());
        vfs.materialize_cut(&cut_dir).unwrap();
        let survived = fs::read(cut_dir.join("f")).unwrap();
        assert!(
            survived.starts_with(b"aaaa"),
            "durable prefix must survive verbatim: {survived:?}"
        );
        assert!(
            survived.len() <= b"aaaabbbbcccc".len(),
            "nothing can survive that was never written"
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&cut_dir);
    }

    #[test]
    fn unsynced_entries_may_vanish_but_synced_ones_never_do() {
        // Across many seeds: a file created+synced+dir-synced always survives
        // the cut; a file whose creation was never dir-synced sometimes
        // vanishes.
        let mut unsynced_vanished = false;
        for seed in 0..32u64 {
            let dir = tmp_dir(&format!("entry-{seed}"));
            let cut_dir = dir.join("cut");
            let vfs = Arc::new(FaultVfs::new(FaultConfig {
                seed,
                ..FaultConfig::default()
            }));
            let mut a = vfs.create(&dir.join("durable")).unwrap();
            a.write_all(b"A").unwrap();
            a.sync_data().unwrap();
            drop(a);
            vfs.sync_dir(&dir).unwrap();
            let mut b = vfs.create(&dir.join("unsynced")).unwrap();
            b.write_all(b"B").unwrap();
            b.sync_data().unwrap(); // data synced, entry not
            drop(b);
            vfs.lock().cut = true; // cut "now"
            vfs.materialize_cut(&cut_dir).unwrap();
            assert!(
                cut_dir.join("durable").exists(),
                "seed {seed}: a fully synced entry must survive"
            );
            unsynced_vanished |= !cut_dir.join("unsynced").exists();
            let _ = fs::remove_dir_all(&dir);
        }
        assert!(
            unsynced_vanished,
            "an un-dir-synced entry should vanish for at least one seed"
        );
    }
}
