//! Materialized-view checkpoints.
//!
//! A checkpoint is one self-contained file holding every materialized map of
//! the engine (views, stored base relations and static tables) plus the
//! `events_applied` watermark and the program fingerprint:
//!
//! ```text
//! magic "DBTCKP" | version u8 | reserved u8 | fingerprint u64 | watermark u64
//! map_count u32 | map_count × (name, schema, entries)       — see codec::put_map
//! crc32 u32                                                 — over all preceding bytes
//! ```
//!
//! ## Atomic-rename protocol
//!
//! The file is written as `ckpt-<watermark>.tmp`, fsynced, and then renamed to
//! `ckpt-<watermark>.ckpt` (rename within a directory is atomic on POSIX).
//! A reader therefore never observes a half-written `.ckpt` file: either the
//! rename happened and the file is complete (its trailing CRC proves it), or
//! the crash left only a `.tmp`, which is ignored and deleted on the next
//! open. After the rename the directory itself is fsynced so the new name is
//! durable before any WAL segment below the watermark is pruned.
//!
//! Checkpoints are *redundant* state — everything in them can be rebuilt from
//! an older checkpoint plus the WAL — so [`load_latest`] falls back to older
//! files when the newest fails its CRC, and retention
//! ([`retain_and_prune_wal`]) only prunes WAL segments below the **oldest
//! retained** checkpoint's watermark, keeping every fallback path replayable.

use crate::codec::{self, crc32, Reader, FORMAT_VERSION};
use crate::vfs::VfsPath;
use crate::{io_err, DurabilityError};
use dbtoaster_gmr::Gmr;
use std::path::PathBuf;

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: &[u8; 6] = b"DBTCKP";

fn ckpt_name(watermark: u64) -> String {
    format!("ckpt-{watermark:020}.ckpt")
}

/// List checkpoint files in `dir`, sorted by watermark descending (newest
/// first). Read-only: stray `.tmp` files are skipped, not touched — cleanup
/// is [`clean_tmp_files`], which must only run under the WAL writer lock
/// (deleting another live process's in-flight `.tmp` would fail its rename).
pub fn list_checkpoints<'a>(
    dir: impl Into<VfsPath<'a>>,
) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let VfsPath { path: dir, vfs } = dir.into();
    let mut out = Vec::new();
    if !vfs.exists(dir) {
        return Ok(out);
    }
    for path in vfs.list_dir(dir).map_err(|e| io_err("reading", dir, e))? {
        let Some(name) = path.file_name() else {
            continue;
        };
        let name = name.to_string_lossy();
        if let Some(mark) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((mark, path));
        }
    }
    out.sort_unstable_by_key(|(w, _)| std::cmp::Reverse(*w));
    Ok(out)
}

/// Delete stray `ckpt-*.tmp` files left by an interrupted checkpoint write.
/// Call only while holding the directory's writer lock (a live checkpointer's
/// in-flight `.tmp` must not be pulled out from under its rename). Returns
/// the number removed.
pub fn clean_tmp_files<'a>(dir: impl Into<VfsPath<'a>>) -> Result<usize, DurabilityError> {
    let VfsPath { path: dir, vfs } = dir.into();
    let mut removed = 0;
    if !vfs.exists(dir) {
        return Ok(removed);
    }
    for path in vfs.list_dir(dir).map_err(|e| io_err("reading", dir, e))? {
        let Some(name) = path.file_name() else {
            continue;
        };
        let name = name.to_string_lossy();
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            vfs.remove_file(&path)
                .map_err(|e| io_err("removing", &path, e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// A decoded checkpoint: the engine state at `watermark` events applied.
#[derive(Debug)]
pub struct Checkpoint {
    /// `events_applied` at the moment the snapshot was taken.
    pub watermark: u64,
    /// Every materialized map, by name.
    pub maps: Vec<(String, Gmr)>,
}

/// Serialize a snapshot to `dir` under the atomic-rename protocol and return
/// the final path. `maps` is the engine's [`snapshot`](dbtoaster_runtime::Engine::snapshot)
/// output — shared immutable GMRs, so the caller's hot path does not wait
/// while this runs (it copies, instead of recycling, the buffers held here).
pub fn write_checkpoint<'a, 'd>(
    dir: impl Into<VfsPath<'d>>,
    fingerprint: u64,
    watermark: u64,
    maps: impl IntoIterator<Item = (&'a str, &'a Gmr)>,
) -> Result<PathBuf, DurabilityError> {
    let VfsPath { path: dir, vfs } = dir.into();
    vfs.create_dir_all(dir)
        .map_err(|e| io_err("creating", dir, e))?;
    let mut body = Vec::with_capacity(4096);
    body.extend_from_slice(CKPT_MAGIC);
    body.push(FORMAT_VERSION);
    body.push(0);
    codec::put_u64(&mut body, fingerprint);
    codec::put_u64(&mut body, watermark);
    // Deterministic map order keeps identical states byte-identical on disk.
    let mut maps: Vec<(&str, &Gmr)> = maps.into_iter().collect();
    maps.sort_unstable_by(|a, b| a.0.cmp(b.0));
    codec::put_u32(&mut body, maps.len() as u32);
    for (name, gmr) in maps {
        codec::put_map(&mut body, name, gmr);
    }
    let crc = crc32(&body);
    codec::put_u32(&mut body, crc);

    let tmp = dir.join(format!("ckpt-{watermark:020}.tmp"));
    let path = dir.join(ckpt_name(watermark));
    let write = || -> Result<(), DurabilityError> {
        let mut f = vfs.create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
        f.write_all(&body).map_err(|e| io_err("writing", &tmp, e))?;
        f.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
        drop(f);
        vfs.rename(&tmp, &path)
            .map_err(|e| io_err("renaming", &tmp, e))?;
        Ok(())
    };
    if let Err(e) = write() {
        // A failed write (ENOSPC, EIO, …) must not leave a stray `.tmp`
        // behind: the previous checkpoint stays the loadable one, and nothing
        // here advances WAL pruning. Cleanup is best-effort — if even the
        // remove fails, the next locked open's `clean_tmp_files` gets it.
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    // Make the rename durable before callers prune the WAL beneath it. This
    // must propagate: a swallowed failure here followed by pruning could
    // leave a directory whose only checkpoint never reached disk.
    vfs.sync_dir(dir)
        .map_err(|e| io_err("syncing directory", dir, e))?;
    Ok(path)
}

/// Shared envelope validation: read the file, check length, whole-file CRC,
/// magic, version and fingerprint, and return `(watermark, file bytes)`. The
/// map payload starts at byte 24 and ends 4 bytes before the end (the CRC
/// trailer). Both [`load_checkpoint`] and [`verify_checkpoint`] go through
/// here so the two can never disagree about what counts as valid.
fn read_envelope(at: VfsPath<'_>, fingerprint: u64) -> Result<(u64, Vec<u8>), DurabilityError> {
    let path = at.path;
    let bytes = at.vfs.read(path).map_err(|e| io_err("reading", path, e))?;
    let file = path.display().to_string();
    let corrupt = |offset: u64, detail: String| DurabilityError::Corrupt {
        file: file.clone(),
        offset,
        detail,
    };
    if bytes.len() < 28 {
        return Err(corrupt(
            0,
            format!("checkpoint truncated ({} bytes)", bytes.len()),
        ));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(corrupt(
            bytes.len() as u64 - 4,
            "checkpoint CRC mismatch".into(),
        ));
    }
    if &body[..6] != CKPT_MAGIC {
        return Err(corrupt(0, "bad magic".into()));
    }
    if body[6] != FORMAT_VERSION {
        return Err(DurabilityError::VersionMismatch {
            file,
            found: body[6],
        });
    }
    let found = u64::from_le_bytes(body[8..16].try_into().unwrap());
    if found != fingerprint {
        return Err(DurabilityError::FingerprintMismatch {
            file,
            expected: fingerprint,
            found,
        });
    }
    let watermark = u64::from_le_bytes(body[16..24].try_into().unwrap());
    Ok((watermark, bytes))
}

/// Load and verify one checkpoint file.
pub fn load_checkpoint<'a>(
    path: impl Into<VfsPath<'a>>,
    fingerprint: u64,
) -> Result<Checkpoint, DurabilityError> {
    let at = path.into();
    let path = at.path;
    let (watermark, bytes) = read_envelope(at, fingerprint)?;
    let body = &bytes[..bytes.len() - 4];
    let mut r = Reader::new(&body[24..]);
    let count = r.u32().map_err(DurabilityError::Codec)? as usize;
    let mut maps = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        maps.push(r.map().map_err(DurabilityError::Codec)?);
    }
    if !r.is_empty() {
        return Err(DurabilityError::Corrupt {
            file: path.display().to_string(),
            offset: (body.len() - r.remaining()) as u64,
            detail: format!("{} trailing bytes after last map", r.remaining()),
        });
    }
    Ok(Checkpoint { watermark, maps })
}

/// Load the newest checkpoint that passes verification, falling back to older
/// ones on CRC / truncation damage. Returns the checkpoint together with the
/// damaged files that were skipped. A *fingerprint* mismatch is **not** a
/// fallback case — it means the compiled program changed, and quietly
/// restoring an older incompatible state would diverge; it surfaces as a hard
/// error instead.
pub fn load_latest<'a>(
    dir: impl Into<VfsPath<'a>>,
    fingerprint: u64,
) -> Result<(Option<Checkpoint>, Vec<String>), DurabilityError> {
    let dir = dir.into();
    let mut skipped = Vec::new();
    for (_, path) in list_checkpoints(dir.clone())? {
        match load_checkpoint(dir.on(&path), fingerprint) {
            Ok(c) => return Ok((Some(c), skipped)),
            Err(e @ DurabilityError::FingerprintMismatch { .. }) => return Err(e),
            Err(e @ DurabilityError::VersionMismatch { .. }) => return Err(e),
            Err(e) => skipped.push(format!("{}: {e}", path.display())),
        }
    }
    Ok((None, skipped))
}

/// Cheap integrity check of a checkpoint file — the shared envelope
/// validation (whole-file CRC, magic, version, fingerprint) *without*
/// decoding the maps. Returns the watermark.
pub fn verify_checkpoint<'a>(
    path: impl Into<VfsPath<'a>>,
    fingerprint: u64,
) -> Result<u64, DurabilityError> {
    read_envelope(path.into(), fingerprint).map(|(watermark, _)| watermark)
}

/// Retention: keep the newest `keep` checkpoints that **verify** (whole-file
/// CRC + fingerprint), delete everything else — surplus old files and damaged
/// ones alike — and prune WAL segments wholly below the oldest retained
/// watermark. Verification comes first and nothing at all is deleted when no
/// checkpoint verifies: a damaged retention window must never cost the last
/// good fallback, and a bit-rotted file must never license pruning the WAL
/// its fallbacks would need. Returns the watermark pruning was keyed on
/// (0 = nothing verified, nothing deleted or pruned).
pub fn retain_and_prune_wal<'a>(
    dir: impl Into<VfsPath<'a>>,
    keep: usize,
    fingerprint: u64,
) -> Result<u64, DurabilityError> {
    let dir = dir.into();
    let keep = keep.max(1);
    let checkpoints = list_checkpoints(dir.clone())?; // newest first
    let mut retained = 0usize;
    let mut oldest_verified = 0u64;
    let mut expendable: Vec<&PathBuf> = Vec::new();
    for (w, path) in &checkpoints {
        if retained == keep {
            expendable.push(path); // older than the verified window
            continue;
        }
        match verify_checkpoint(dir.on(path), fingerprint) {
            Ok(_) => {
                retained += 1;
                oldest_verified = *w;
            }
            Err(e @ DurabilityError::FingerprintMismatch { .. }) => return Err(e),
            Err(e @ DurabilityError::VersionMismatch { .. }) => return Err(e),
            Err(_) => expendable.push(path), // damaged
        }
    }
    if retained == 0 {
        return Ok(0); // nothing trustworthy: touch nothing
    }
    for path in expendable {
        dir.vfs
            .remove_file(path)
            .map_err(|e| io_err("removing", path, e))?;
    }
    crate::wal::prune_segments(dir, oldest_verified)?;
    Ok(oldest_verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_gmr::{Schema, Value};
    use std::fs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbt-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_map() -> Gmr {
        let mut g = Gmr::new(Schema::new(["k"]));
        g.add_tuple(vec![Value::long(1)], 10.0);
        g.add_tuple(vec![Value::str("x")], -2.5);
        g
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmp_dir("round");
        let g = sample_map();
        write_checkpoint(&dir, 11, 100, [("M", &g)]).unwrap();
        let (ckpt, skipped) = load_latest(&dir, 11).unwrap();
        let ckpt = ckpt.expect("checkpoint present");
        assert!(skipped.is_empty());
        assert_eq!(ckpt.watermark, 100);
        assert_eq!(ckpt.maps.len(), 1);
        assert_eq!(ckpt.maps[0].0, "M");
        assert_eq!(ckpt.maps[0].1.get(&[Value::long(1)]), 10.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let g = sample_map();
        write_checkpoint(&dir, 1, 50, [("M", &g)]).unwrap();
        let newest = write_checkpoint(&dir, 1, 80, [("M", &g)]).unwrap();
        // Flip a byte in the newest checkpoint's body.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        fs::write(&newest, &bytes).unwrap();
        let (ckpt, skipped) = load_latest(&dir, 1).unwrap();
        assert_eq!(ckpt.expect("older checkpoint").watermark, 50);
        assert_eq!(skipped.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_hard() {
        let dir = tmp_dir("fp");
        let g = sample_map();
        write_checkpoint(&dir, 1, 50, [("M", &g)]).unwrap();
        match load_latest(&dir, 2) {
            Err(DurabilityError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_files_are_ignored_by_listing_and_removed_by_cleanup() {
        let dir = tmp_dir("tmp");
        fs::write(dir.join("ckpt-00000000000000000009.tmp"), b"half").unwrap();
        // Listing (and thus recovery) is read-only: the half-written file is
        // skipped but left alone.
        let (ckpt, _) = load_latest(&dir, 1).unwrap();
        assert!(ckpt.is_none());
        assert!(dir.join("ckpt-00000000000000000009.tmp").exists());
        // Explicit cleanup (run under the writer lock) removes it.
        assert_eq!(clean_tmp_files(&dir).unwrap(), 1);
        assert!(!dir.join("ckpt-00000000000000000009.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_newest_k() {
        let dir = tmp_dir("retain");
        let g = sample_map();
        for w in [10, 20, 30] {
            write_checkpoint(&dir, 1, w, [("M", &g)]).unwrap();
        }
        let oldest = retain_and_prune_wal(&dir, 2, 1).unwrap();
        assert_eq!(oldest, 20);
        let left = list_checkpoints(&dir).unwrap();
        assert_eq!(
            left.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![30, 20]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_never_trusts_an_unverified_checkpoint() {
        let dir = tmp_dir("retain-corrupt");
        let g = sample_map();
        let older = write_checkpoint(&dir, 1, 10, [("M", &g)]).unwrap();
        write_checkpoint(&dir, 1, 20, [("M", &g)]).unwrap();
        // Bit-rot the older retained checkpoint: pruning must key off the
        // newer (verified) one and delete the damaged file.
        let mut bytes = fs::read(&older).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&older, &bytes).unwrap();
        let keyed = retain_and_prune_wal(&dir, 2, 1).unwrap();
        assert_eq!(keyed, 20);
        assert!(!older.exists(), "damaged retained checkpoint is removed");
        // With every checkpoint damaged, nothing is deleted or pruned at all.
        let dir2 = tmp_dir("retain-allbad");
        let only = write_checkpoint(&dir2, 1, 5, [("M", &g)]).unwrap();
        let mut bytes = fs::read(&only).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&only, &bytes).unwrap();
        assert_eq!(retain_and_prune_wal(&dir2, 1, 1).unwrap(), 0);
        assert!(only.exists(), "with nothing trustworthy, delete nothing");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn retention_survives_a_damaged_window_by_keeping_the_older_good_one() {
        // [30 damaged, 20 damaged, 10 good], keep=2: the good w=10 file is the
        // only usable fallback and must be retained (not dropped as surplus),
        // with pruning keyed on it.
        let dir = tmp_dir("retain-window");
        let g = sample_map();
        let good = write_checkpoint(&dir, 1, 10, [("M", &g)]).unwrap();
        for w in [20, 30] {
            let p = write_checkpoint(&dir, 1, w, [("M", &g)]).unwrap();
            let mut bytes = fs::read(&p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            fs::write(&p, &bytes).unwrap();
        }
        assert_eq!(retain_and_prune_wal(&dir, 2, 1).unwrap(), 10);
        assert!(good.exists(), "the only good checkpoint must survive");
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
