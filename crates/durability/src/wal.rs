//! The segmented write-ahead log.
//!
//! ## File layout
//!
//! A WAL is a directory of segment files named `wal-<start>.seg`, where
//! `<start>` is the zero-padded sequence number of the first event the segment
//! contains (events are numbered from 1, in apply order). Each segment is:
//!
//! ```text
//! header:  magic "DBTWAL" | version u8 | reserved u8 | program fingerprint u64
//! records: [ payload_len u32 | crc32 u32 | payload ]*
//! payload: first_seq u64 | count u32 | count × UpdateEvent
//! ```
//!
//! One record holds one appended micro-batch. The CRC covers the payload, so a
//! flipped bit anywhere in a record is detected; the explicit version byte
//! turns a future format change into a clean error instead of a misparse.
//!
//! ## Torn tails vs. mid-log corruption
//!
//! A crash can leave the final record partially written (a *torn tail*): the
//! reader drops it, because the events it held were by definition never
//! acknowledged as applied in any published snapshot that survives recovery.
//! Anything else — a bad CRC or a short record with valid data *after* it, or
//! any damage in a non-final segment — cannot be produced by an append-only
//! writer crashing, so it is reported as a hard [`DurabilityError::Corrupt`]
//! error rather than silently skipped: silent divergence is the one failure
//! mode a deterministic-replay log must never have.
//!
//! [`WalWriter::open`] re-scans only the final segment, truncates a torn tail
//! to the last valid record boundary, and resumes appending there.

use crate::codec::{self, crc32, CodecError, Reader, FORMAT_VERSION};
use crate::vfs::{Vfs, VfsFile, VfsPath};
use crate::{io_err, DurabilityError, FsyncPolicy};
use dbtoaster_agca::UpdateEvent;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Magic prefix of every WAL segment.
pub const WAL_MAGIC: &[u8; 6] = b"DBTWAL";
/// Size of the segment header in bytes.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Size of a record frame header (payload length + CRC).
const FRAME_HEADER_LEN: usize = 8;

/// Name of the segment whose first event has sequence number `start`.
fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.seg")
}

/// List the WAL segments of `dir`, sorted by start sequence number.
pub fn list_segments<'a>(
    dir: impl Into<VfsPath<'a>>,
) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let VfsPath { path: dir, vfs } = dir.into();
    let mut out = Vec::new();
    if !vfs.exists(dir) {
        return Ok(out);
    }
    let entries = vfs.list_dir(dir).map_err(|e| io_err("reading", dir, e))?;
    for path in entries {
        let Some(name) = path.file_name() else {
            continue;
        };
        let name = name.to_string_lossy();
        if let Some(start) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((start, path));
        }
    }
    out.sort_unstable_by_key(|(start, _)| *start);
    Ok(out)
}

/// One decoded WAL record: a micro-batch of events starting at `first_seq`.
#[derive(Clone, Debug)]
pub struct WalRecord {
    /// Sequence number of the first event in the batch.
    pub first_seq: u64,
    /// The batch, in apply order.
    pub events: Vec<UpdateEvent>,
}

/// Result of scanning one segment file.
struct SegmentScan {
    records: Vec<WalRecord>,
    /// Byte offset one past the last valid record (the truncation point for a
    /// writer resuming after a torn tail).
    valid_end: u64,
    /// A torn (partially written) final record was dropped.
    torn: bool,
}

/// Read and verify one segment. `is_last` enables torn-tail tolerance; on
/// earlier segments every byte must parse.
fn scan_segment(
    vfs: &dyn Vfs,
    path: &Path,
    expected_fingerprint: u64,
    is_last: bool,
) -> Result<SegmentScan, DurabilityError> {
    let bytes = vfs.read(path).map_err(|e| io_err("reading", path, e))?;
    let file_name = path.display().to_string();
    // An entirely zero-filled final segment is the header-level analogue of
    // the zero-filled record tail below: a crash after the file's size
    // extension persisted but before any data page did. Nothing was logged;
    // treat it as a torn (empty) segment so reopen can clear it, instead of
    // wedging every recovery on "bad magic".
    if is_last && bytes.iter().all(|&b| b == 0) {
        return Ok(SegmentScan {
            records: Vec::new(),
            valid_end: 0,
            torn: true,
        });
    }
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        // Even the header is incomplete. For the last segment this is a crash
        // during segment creation: nothing was logged here yet.
        if is_last {
            return Ok(SegmentScan {
                records: Vec::new(),
                valid_end: bytes.len() as u64,
                torn: true,
            });
        }
        return Err(DurabilityError::Corrupt {
            file: file_name,
            offset: 0,
            detail: format!("segment header truncated ({} bytes)", bytes.len()),
        });
    }
    if &bytes[..6] != WAL_MAGIC {
        return Err(DurabilityError::Corrupt {
            file: file_name,
            offset: 0,
            detail: "bad magic".into(),
        });
    }
    if bytes[6] != FORMAT_VERSION {
        return Err(DurabilityError::VersionMismatch {
            file: file_name,
            found: bytes[6],
        });
    }
    let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if fingerprint != expected_fingerprint {
        return Err(DurabilityError::FingerprintMismatch {
            file: file_name,
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }

    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN as usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(SegmentScan {
                records,
                valid_end: pos as u64,
                torn: false,
            });
        }
        // A record that does not fully parse is a torn tail only if (a) this is
        // the final segment and (b) nothing decodable follows it — i.e. the bad
        // frame extends to (or beyond) the end of the file.
        let fail = |detail: String, records: Vec<WalRecord>, tail_reaches_eof: bool| {
            if is_last && tail_reaches_eof {
                Ok(SegmentScan {
                    records,
                    valid_end: pos as u64,
                    torn: true,
                })
            } else {
                Err(DurabilityError::Corrupt {
                    file: path.display().to_string(),
                    offset: pos as u64,
                    detail,
                })
            }
        };
        if remaining < FRAME_HEADER_LEN {
            return fail(
                format!("record frame header truncated ({remaining} bytes)"),
                records,
                true,
            );
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        // A zero-filled tail would otherwise decode as a CRC-valid empty
        // record (crc32 of the empty payload is 0) — but the writer never
        // appends empty records, and a run of zeros to EOF is exactly what a
        // power cut leaves when the filesystem committed a size extension
        // before the data pages. Treat it as torn, not as corruption.
        if len == 0 && stored_crc == 0 && bytes[pos..].iter().all(|&b| b == 0) {
            return fail("zero-filled tail".into(), records, true);
        }
        let body_start = pos + FRAME_HEADER_LEN;
        if len > bytes.len() - body_start {
            return fail(
                format!(
                    "record payload truncated (declared {len}, {} available)",
                    bytes.len() - body_start
                ),
                records,
                true,
            );
        }
        let payload = &bytes[body_start..body_start + len];
        let frame_end = body_start + len;
        if crc32(payload) != stored_crc {
            return fail(
                "record CRC mismatch".into(),
                records,
                frame_end == bytes.len(),
            );
        }
        let record = match decode_record(payload) {
            Ok(r) => r,
            // Undecodable despite a valid CRC: mid-log this is hard
            // corruption; as the very last frame it is one more torn-tail
            // shape (e.g. garbage whose CRC happens to hold) and dropping it
            // is the safe, prefix-consistent choice.
            Err(e) => {
                return fail(
                    format!("record payload undecodable despite valid CRC: {e}"),
                    records,
                    frame_end == bytes.len(),
                )
            }
        };
        records.push(record);
        pos = frame_end;
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut r = Reader::new(payload);
    let first_seq = r.u64()?;
    let count = r.u32()? as usize;
    let mut events = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        events.push(r.event()?);
    }
    if !r.is_empty() {
        return Err(CodecError::LengthOverflow(r.remaining() as u64));
    }
    Ok(WalRecord { first_seq, events })
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Statistics of one [`WalReader::replay`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records decoded (including ones entirely below `from_seq`).
    pub records: u64,
    /// Events delivered to the visitor (sequence number ≥ `from_seq`).
    pub events_replayed: u64,
    /// A torn final record was dropped.
    pub torn_tail_dropped: bool,
    /// Sequence number one past the last event read (`from_seq` if none).
    pub next_seq: u64,
}

/// Reads the WAL of a directory, tolerating a torn tail and refusing anything
/// worse (see the module docs for the exact rules).
pub struct WalReader {
    segments: Vec<(u64, PathBuf)>,
    fingerprint: u64,
    vfs: Arc<dyn Vfs>,
}

impl WalReader {
    /// Open the WAL in `dir`. Cheap: segment contents are read during
    /// [`WalReader::replay`].
    pub fn open<'a>(
        dir: impl Into<VfsPath<'a>>,
        fingerprint: u64,
    ) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        Ok(WalReader {
            segments: list_segments(dir.clone())?,
            fingerprint,
            vfs: dir.vfs,
        })
    }

    /// Stream every event with sequence number ≥ `from_seq` into `visit`, in
    /// order (per-event convenience wrapper over
    /// [`WalReader::replay_records`]).
    pub fn replay(
        &self,
        from_seq: u64,
        visit: &mut dyn FnMut(u64, UpdateEvent) -> Result<(), String>,
    ) -> Result<ReplayStats, DurabilityError> {
        self.replay_records(from_seq, &mut |first_seq, events| {
            for (off, ev) in events.into_iter().enumerate() {
                visit(first_seq + off as u64, ev)?;
            }
            Ok(())
        })
    }

    /// Stream every record (= one logged micro-batch) overlapping `from_seq`
    /// into `visit` as `(first visited sequence number, events)`, in order.
    /// Segments wholly below `from_seq` are skipped without decoding; a
    /// record straddling `from_seq` is trimmed to its suffix. This is the
    /// replay entry point recovery uses: each record becomes one delta batch,
    /// so the replayed engine takes exactly the batch boundaries the live
    /// writer took.
    ///
    /// Consistency checks (all hard errors):
    /// * the first visited record must cover `from_seq` (no gap between a
    ///   checkpoint watermark and the log),
    /// * sequence numbers must be contiguous from there on,
    /// * a segment's file name must match its first record.
    pub fn replay_records(
        &self,
        from_seq: u64,
        visit: &mut dyn FnMut(u64, Vec<UpdateEvent>) -> Result<(), String>,
    ) -> Result<ReplayStats, DurabilityError> {
        let mut stats = ReplayStats {
            next_seq: from_seq,
            ..ReplayStats::default()
        };
        let mut expected_next: Option<u64> = None;
        let last = self.segments.len().saturating_sub(1);
        for (i, (start, path)) in self.segments.iter().enumerate() {
            // Skip segments that end strictly below `from_seq`: the next
            // segment's start bounds this one's coverage.
            if let Some(&(next_start, _)) = self.segments.get(i + 1) {
                if next_start <= from_seq && expected_next.is_none() {
                    continue;
                }
            }
            let scan = scan_segment(self.vfs.as_ref(), path, self.fingerprint, i == last)?;
            stats.torn_tail_dropped |= scan.torn;
            let mut first_in_segment = true;
            for record in scan.records {
                stats.records += 1;
                if first_in_segment {
                    first_in_segment = false;
                    if record.first_seq != *start {
                        return Err(DurabilityError::Corrupt {
                            file: path.display().to_string(),
                            offset: SEGMENT_HEADER_LEN,
                            detail: format!(
                                "segment named for seq {start} starts at {}",
                                record.first_seq
                            ),
                        });
                    }
                }
                if let Some(expected) = expected_next {
                    if record.first_seq != expected {
                        return Err(DurabilityError::SequenceGap {
                            expected,
                            found: record.first_seq,
                            file: path.display().to_string(),
                        });
                    }
                }
                let record_end = record.first_seq + record.events.len() as u64;
                expected_next = Some(record_end);
                stats.next_seq = stats.next_seq.max(record_end);
                if record_end <= from_seq {
                    continue; // entirely below the watermark
                }
                if record.first_seq > from_seq && stats.events_replayed == 0 {
                    return Err(DurabilityError::SequenceGap {
                        expected: from_seq,
                        found: record.first_seq,
                        file: path.display().to_string(),
                    });
                }
                let skip = from_seq.saturating_sub(record.first_seq) as usize;
                let first_visited = record.first_seq + skip as u64;
                let events: Vec<UpdateEvent> = if skip == 0 {
                    record.events
                } else {
                    record.events.into_iter().skip(skip).collect()
                };
                stats.events_replayed += events.len() as u64;
                visit(first_visited, events).map_err(DurabilityError::Replay)?;
            }
        }
        Ok(stats)
    }

    /// Decode every record (for tests and tooling).
    pub fn records(&self) -> Result<(Vec<WalRecord>, bool), DurabilityError> {
        let mut out = Vec::new();
        let last = self.segments.len().saturating_sub(1);
        let mut torn = false;
        for (i, (_, path)) in self.segments.iter().enumerate() {
            let scan = scan_segment(self.vfs.as_ref(), path, self.fingerprint, i == last)?;
            torn |= scan.torn;
            out.extend(scan.records);
        }
        Ok((out, torn))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends framed event batches to the newest segment, rotating at a size
/// threshold. See [`FsyncPolicy`] for the durability/throughput trade-off.
///
/// Under [`FsyncPolicy::EveryBatch`] the writer owns a sync thread, and the
/// per-batch sync comes in two halves so the caller can overlap it with work
/// that makes nothing observable: [`WalWriter::begin_batch_boundary`] hands
/// the segment to that thread, [`WalWriter::end_batch_boundary`] waits for it
/// to come back synced. The serving layer appends a batch before its kernels
/// run, begins the sync, runs the kernels, and ends the sync before any
/// snapshot, subscriber delta, checkpoint or `flush()` ack covers the batch.
pub struct WalWriter {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    /// The open segment; `None` exactly while the sync thread has it (between
    /// the two halves of a batch boundary). Reached through
    /// [`WalWriter::file`], which panics then: nothing may write to, truncate
    /// or sync a file whose sync is still in flight.
    file: Option<Box<dyn VfsFile>>,
    /// The sync thread, under [`FsyncPolicy::EveryBatch`] only.
    syncer: Option<SyncThread>,
    /// The frame [`WalWriter::append`] encodes into, kept across appends so a
    /// warmed-up writer allocates nothing per record.
    frame: Vec<u8>,
    /// Bytes currently in the open segment (header included).
    segment_len: u64,
    rotate_at: u64,
    next_seq: u64,
    fingerprint: u64,
    policy: FsyncPolicy,
    bytes_written: u64,
    needs_sync: bool,
    /// Held for the writer's lifetime: an advisory exclusive lock on
    /// `<dir>/wal.lock`, so a second writer (another server instance, or
    /// another process) cannot truncate or interleave with a live log. The OS
    /// releases it when the process dies, so a crash never wedges recovery.
    _lock: File,
}

impl WalWriter {
    /// Open (or create) the WAL in `dir` for appending, resuming at
    /// `expected_next_seq` (one past the owning engine's `events_applied`
    /// watermark). Takes an exclusive advisory lock on the directory and
    /// refuses ([`DurabilityError::Locked`]) if another writer holds it.
    ///
    /// Scans only the final segment: a torn tail left by a crash is truncated
    /// to the last valid record boundary. If the log ends *below*
    /// `expected_next_seq` (possible under [`FsyncPolicy::Never`] after a
    /// machine crash, when a checkpoint outlived unsynced log writes), a fresh
    /// segment is started at the expected sequence — the checkpoint covers the
    /// missing range. A log ending *above* the expected sequence is a caller
    /// error (recovery must replay the log first) and is refused.
    pub fn open<'a>(
        dir: impl Into<VfsPath<'a>>,
        fingerprint: u64,
        expected_next_seq: u64,
        policy: FsyncPolicy,
        rotate_at: u64,
    ) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        let lock = acquire_dir_lock(dir.path)?;
        Self::open_locked(dir, fingerprint, expected_next_seq, policy, rotate_at, lock)
    }

    /// [`WalWriter::open`] with a lock already held (from
    /// [`acquire_dir_lock`]) — for callers that must mutate the directory
    /// (tmp cleanup, an initial checkpoint) *between* taking the lock and
    /// opening the log, without a window for a second writer. The advisory
    /// lock stays real whatever the vfs (see the [`crate::vfs`] docs).
    pub fn open_locked<'a>(
        dir: impl Into<VfsPath<'a>>,
        fingerprint: u64,
        expected_next_seq: u64,
        policy: FsyncPolicy,
        rotate_at: u64,
        lock: File,
    ) -> Result<Self, DurabilityError> {
        let at = dir.into();
        let segments = list_segments(at.clone())?;
        let VfsPath { path: dir, vfs } = at.clone();
        let rotate_at = rotate_at.max(1);
        let mut resumed = None;
        if let Some((start, path)) = segments.last() {
            let scan = scan_segment(vfs.as_ref(), path, fingerprint, true)?;
            if scan.valid_end < SEGMENT_HEADER_LEN {
                // The crash landed inside the 16-byte header itself: the
                // segment holds nothing decodable. Appending after a torn
                // header would corrupt the log, and leaving the file would
                // hard-error the next scan once it is no longer the final
                // segment — remove it and redo the open against what remains.
                vfs.remove_file(path)
                    .map_err(|e| io_err("removing torn segment", path, e))?;
                return Self::open_locked(
                    at,
                    fingerprint,
                    expected_next_seq,
                    policy,
                    rotate_at,
                    lock,
                );
            }
            let derived_next = scan
                .records
                .last()
                .map(|r| r.first_seq + r.events.len() as u64)
                .unwrap_or(*start);
            if derived_next > expected_next_seq {
                return Err(DurabilityError::Replay(format!(
                    "WAL ends at seq {derived_next} but the engine expects {expected_next_seq}; \
                     recover before appending"
                )));
            }
            if derived_next == expected_next_seq {
                // Append mode: writes always land at the (possibly truncated)
                // end of the file, never over the header.
                let mut file = vfs
                    .open_append(path)
                    .map_err(|e| io_err("opening", path, e))?;
                file.set_len(scan.valid_end)
                    .map_err(|e| io_err("truncating", path, e))?;
                // A truncated torn tail is synced before appending.
                resumed = Some((file, scan.valid_end, scan.torn));
            }
            // derived_next < expected_next_seq: the missing range is covered
            // by a checkpoint (see the doc comment); fall through and start a
            // fresh segment at the expected sequence.
        }
        // A fresh segment's header is pending; EveryBatch syncs it now.
        let (file, segment_len, bytes_written, needs_sync, sync_now) = match resumed {
            Some((file, valid_end, torn)) => (file, valid_end, 0, torn, torn),
            None => {
                let (file, header_len) =
                    start_segment(vfs.as_ref(), dir, expected_next_seq, fingerprint)?;
                let sync_now = policy == FsyncPolicy::EveryBatch;
                (file, SEGMENT_HEADER_LEN, header_len, true, sync_now)
            }
        };
        let mut w = WalWriter {
            dir: dir.to_path_buf(),
            vfs,
            file: Some(file),
            syncer: match policy {
                FsyncPolicy::EveryBatch => Some(SyncThread::spawn()?),
                FsyncPolicy::Never => None,
            },
            frame: Vec::new(),
            segment_len,
            rotate_at,
            next_seq: expected_next_seq,
            fingerprint,
            policy,
            bytes_written,
            needs_sync,
            _lock: lock,
        };
        if sync_now {
            w.sync()?;
        }
        Ok(w)
    }

    /// The open segment.
    ///
    /// # Panics
    ///
    /// While a sync is in flight: [`WalWriter::end_batch_boundary`] must
    /// bring the file back before anything else touches it.
    fn file(&mut self) -> &mut dyn VfsFile {
        self.file.as_deref_mut().expect(SYNC_IN_FLIGHT)
    }

    fn rotate(&mut self) -> Result<(), DurabilityError> {
        self.sync()?; // never leave a finished segment unsynced
        let (file, header_len) = start_segment(
            self.vfs.as_ref(),
            &self.dir,
            self.next_seq,
            self.fingerprint,
        )?;
        self.file = Some(file);
        self.segment_len = SEGMENT_HEADER_LEN;
        self.bytes_written += header_len;
        self.needs_sync = true;
        if self.policy == FsyncPolicy::EveryBatch {
            self.sync()?;
        }
        Ok(())
    }

    /// Sequence number the next appended event will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes appended through this writer (headers included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Append one micro-batch as a single framed record; returns the sequence
    /// number of its first event. Rotates to a new segment first when the
    /// current one has reached the size threshold (rotation syncs the
    /// finished segment). The record itself is not synced here: the caller
    /// ends each micro-batch with [`WalWriter::batch_boundary`] (or its two
    /// halves).
    ///
    /// # Panics
    ///
    /// While a sync is in flight (see [`WalWriter::begin_batch_boundary`]).
    pub fn append(&mut self, events: &[UpdateEvent]) -> Result<u64, DurabilityError> {
        if events.is_empty() {
            return Ok(self.next_seq);
        }
        if self.segment_len > SEGMENT_HEADER_LEN && self.segment_len >= self.rotate_at {
            self.rotate()?;
        }
        let first_seq = self.next_seq;
        // Encode straight into the frame, leaving room for the header, then
        // backfill length + CRC — avoids re-copying the whole payload.
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        codec::put_u64(frame, first_seq);
        codec::put_u32(frame, events.len() as u32);
        for ev in events {
            codec::put_event(frame, ev);
        }
        let payload_len = (frame.len() - FRAME_HEADER_LEN) as u32;
        let crc = crc32(&frame[FRAME_HEADER_LEN..]);
        frame[0..4].copy_from_slice(&payload_len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        let frame = &self.frame;
        self.file
            .as_deref_mut()
            .expect(SYNC_IN_FLIGHT)
            .write_all(frame)
            .map_err(|e| io_err("appending to", &self.dir, e))?;
        self.segment_len += frame.len() as u64;
        self.bytes_written += frame.len() as u64;
        self.next_seq += events.len() as u64;
        self.needs_sync = true;
        Ok(first_seq)
    }

    /// Force appended records to stable storage whatever the policy (no-op
    /// when nothing is pending), on the calling thread. The serving layer
    /// calls it where it promises durability: at a barrier (`flush()`) and at
    /// clean shutdown.
    ///
    /// # Panics
    ///
    /// While a sync is in flight (see [`WalWriter::begin_batch_boundary`]).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        if self.needs_sync {
            self.file()
                .sync_data()
                .map_err(|e| io_err("syncing segment in", &self.dir, e))?;
            self.needs_sync = false;
        }
        Ok(())
    }

    /// End a micro-batch: the one per-batch sync decision, as
    /// [`WalWriter::begin_batch_boundary`] and
    /// [`WalWriter::end_batch_boundary`] back to back. Under
    /// [`FsyncPolicy::EveryBatch`] it syncs what the batch appended (one
    /// fsync, none when nothing is pending); under [`FsyncPolicy::Never`] it
    /// does nothing.
    pub fn batch_boundary(&mut self) -> Result<(), DurabilityError> {
        self.begin_batch_boundary();
        self.end_batch_boundary()
    }

    /// Issue the batch boundary's sync without waiting for it. Under
    /// [`FsyncPolicy::EveryBatch`], with appended bytes pending, the segment
    /// goes to the sync thread, and every method that touches the file
    /// panics until [`WalWriter::end_batch_boundary`] brings it back; with
    /// nothing pending, or under [`FsyncPolicy::Never`], nothing happens.
    ///
    /// # Panics
    ///
    /// If a sync is already in flight.
    pub fn begin_batch_boundary(&mut self) {
        if self.policy == FsyncPolicy::Never || !self.needs_sync {
            return;
        }
        let file = self.file.take().expect(SYNC_IN_FLIGHT);
        let syncer = self.syncer.as_ref().expect("EveryBatch owns a sync thread");
        syncer
            .to
            .send(file)
            .expect("the sync thread lives as long as its writer");
    }

    /// Wait for the sync [`WalWriter::begin_batch_boundary`] issued; `Ok`
    /// when none is in flight. A failed sync leaves the appended bytes
    /// pending, but a caller must not retry it in place: after a failed fsync
    /// the kernel may have dropped the dirty pages and cleared the error, so
    /// a second fsync can falsely succeed ("fsyncgate").
    pub fn end_batch_boundary(&mut self) -> Result<(), DurabilityError> {
        if self.file.is_some() {
            return Ok(());
        }
        let syncer = self
            .syncer
            .as_mut()
            .expect("only EveryBatch hands the file out");
        let (file, synced) = match syncer.back.recv() {
            Ok(answer) => answer,
            // The sync thread dropped its side: a `sync_data` panicked, and
            // the panic belongs to the writer, which issued the sync.
            Err(_) => match syncer.handle.take().map(JoinHandle::join) {
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                _ => unreachable!("the sync thread only exits when its writer drops"),
            },
        };
        self.file = Some(file);
        synced.map_err(|e| io_err("syncing segment in", &self.dir, e))?;
        self.needs_sync = false;
        Ok(())
    }

    /// Cut the open segment back to the last committed record boundary.
    ///
    /// A failed [`WalWriter::append`] may have left a *partial* frame on disk
    /// (a short write); retrying the append without first truncating would
    /// put a valid record after garbage — mid-log corruption, a hard error on
    /// the next scan. Callers retrying an append in place MUST call this
    /// first and treat its failure as fatal to in-place retry (degrade
    /// instead: see the server's writer loop).
    pub fn truncate_to_boundary(&mut self) -> Result<(), DurabilityError> {
        let len = self.segment_len;
        self.file()
            .set_len(len)
            .map_err(|e| io_err("truncating segment in", &self.dir, e))?;
        Ok(())
    }

    /// Abandon the open segment and resume on a fresh one starting at
    /// `next_seq` — the re-arm path out of degraded mode.
    ///
    /// Called after a persistent append/sync failure, once a checkpoint at
    /// `next_seq - 1` has been written (the checkpoint covers everything the
    /// abandoned segment may have lost; replay skips segments wholly below
    /// the watermark without scanning them, so a torn tail left behind is
    /// harmless). Best-effort cleanup of the old segment is attempted but its
    /// failure is ignored — the old file is already out of the replay path.
    pub fn rearm(&mut self, next_seq: u64) -> Result<(), DurabilityError> {
        let len = self.segment_len;
        let _ = self.file().set_len(len);
        let _ = self.file().sync_data();
        let (file, header_len) =
            start_segment(self.vfs.as_ref(), &self.dir, next_seq, self.fingerprint)?;
        self.file = Some(file);
        self.segment_len = SEGMENT_HEADER_LEN;
        self.bytes_written += header_len;
        self.next_seq = next_seq;
        self.needs_sync = true;
        if self.policy == FsyncPolicy::EveryBatch {
            self.sync()?;
        }
        Ok(())
    }
}

impl Drop for WalWriter {
    /// Closes the sync thread's channel and joins it: a sync still in flight
    /// finishes before the writer (and its directory lock) goes away.
    fn drop(&mut self) {
        if let Some(SyncThread { to, handle, .. }) = self.syncer.take() {
            drop(to);
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

const SYNC_IN_FLIGHT: &str =
    "the WAL segment is out on a sync: end_batch_boundary must bring it back first";

/// The thread a [`WalWriter`] under [`FsyncPolicy::EveryBatch`] syncs its
/// batches on. The segment travels to it and back by value, one batch at a
/// time, so the file is never shared: a sync in flight owns it.
struct SyncThread {
    to: SyncSender<Box<dyn VfsFile>>,
    back: Receiver<(Box<dyn VfsFile>, io::Result<()>)>,
    /// Taken only to join: on drop, or to re-raise a panicking sync.
    handle: Option<JoinHandle<()>>,
}

impl SyncThread {
    /// Spawned by the opener's thread, so it inherits that thread's CPU set
    /// as the server's writer and checkpoint threads do.
    fn spawn() -> Result<Self, DurabilityError> {
        let (to, files) = mpsc::sync_channel::<Box<dyn VfsFile>>(1);
        let (synced, back) = mpsc::sync_channel(1);
        let handle = thread::Builder::new()
            .name("dbtoaster-wal-sync".into())
            .spawn(move || {
                while let Ok(mut file) = files.recv() {
                    let res = file.sync_data();
                    if synced.send((file, res)).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| DurabilityError::Io {
                message: format!("spawning the WAL sync thread: {e}"),
                retryable: false,
            })?;
        Ok(SyncThread {
            to,
            back,
            handle: Some(handle),
        })
    }
}

/// Take the exclusive advisory writer lock on `dir` (creating the directory
/// and `<dir>/wal.lock` if needed). The lock is released when the returned
/// file is dropped — or by the OS when the process dies, so a crashed holder
/// never blocks recovery. A held lock means a live writer may mutate the
/// directory at any time: take it *before* any cleanup or checkpoint write,
/// not just before appending.
pub fn acquire_dir_lock(dir: &Path) -> Result<File, DurabilityError> {
    fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
    let lock_path = dir.join("wal.lock");
    let lock = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&lock_path)
        .map_err(|e| io_err("creating", &lock_path, e))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(std::fs::TryLockError::WouldBlock) => Err(DurabilityError::Locked {
            file: lock_path.display().to_string(),
        }),
        Err(std::fs::TryLockError::Error(e)) => Err(io_err("locking", &lock_path, e)),
    }
}

/// Create a segment file with its header; returns the file (in append mode)
/// and the header length.
fn start_segment(
    vfs: &dyn Vfs,
    dir: &Path,
    start: u64,
    fingerprint: u64,
) -> Result<(Box<dyn VfsFile>, u64), DurabilityError> {
    let path = dir.join(segment_name(start));
    // Fresh file, sequential writes from offset 0 through the retained handle.
    let mut file = vfs
        .create(&path)
        .map_err(|e| io_err("creating", &path, e))?;
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    header.extend_from_slice(WAL_MAGIC);
    header.push(FORMAT_VERSION);
    header.push(0);
    codec::put_u64(&mut header, fingerprint);
    file.write_all(&header)
        .map_err(|e| io_err("writing", &path, e))?;
    // Make the new directory entry durable too: an fsynced segment whose name
    // the directory forgot is acknowledged data silently lost after a power
    // cut (record fsyncs flush the inode, not the parent directory).
    vfs.sync_dir(dir)
        .map_err(|e| io_err("syncing directory", dir, e))?;
    Ok((file, SEGMENT_HEADER_LEN))
}

/// Delete segments whose entire event range lies at or below `watermark`
/// (they are covered by a retained checkpoint). The newest segment is always
/// kept — it is the writer's append target. Returns the number removed.
pub fn prune_segments<'a>(
    dir: impl Into<VfsPath<'a>>,
    watermark: u64,
) -> Result<usize, DurabilityError> {
    let dir = dir.into();
    let vfs = dir.vfs.clone();
    let segments = list_segments(dir)?;
    let mut removed = 0;
    for window in segments.windows(2) {
        let (_, ref path) = window[0];
        let (next_start, _) = window[1];
        // Segment 0 covers [start, next_start - 1].
        if next_start <= watermark + 1 {
            vfs.remove_file(path)
                .map_err(|e| io_err("pruning", path, e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use dbtoaster_gmr::Value;

    fn ev(i: i64) -> UpdateEvent {
        UpdateEvent::insert("R", vec![Value::long(i), Value::long(i * 2)])
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbt-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmp_dir("round");
        let mut w = WalWriter::open(&dir, 42, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(1), ev(2)]).unwrap();
        w.append(&[ev(3)]).unwrap();
        w.batch_boundary().unwrap();
        assert_eq!(w.next_seq(), 4);
        assert!(w.bytes_written() > 0);
        drop(w);

        let r = WalReader::open(&dir, 42).unwrap();
        let mut seen = Vec::new();
        let stats = r
            .replay(1, &mut |seq, e| {
                seen.push((seq, e.tuple[0].clone()));
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.events_replayed, 3);
        assert_eq!(stats.next_seq, 4);
        assert!(!stats.torn_tail_dropped);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], (3, Value::long(3)));
        // Replay from the middle.
        let stats = r.replay(3, &mut |_, _| Ok(())).unwrap();
        assert_eq!(stats.events_replayed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_creates_segments_and_prune_removes_them() {
        let dir = tmp_dir("rotate");
        // Tiny threshold: every record rotates.
        let mut w = WalWriter::open(&dir, 7, 1, FsyncPolicy::Never, 1).unwrap();
        for i in 0..5 {
            w.append(&[ev(i)]).unwrap();
        }
        drop(w);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 4, "expected rotation, got {segs:?}");
        // All five events still replay, in order.
        let r = WalReader::open(&dir, 7).unwrap();
        let stats = r.replay(1, &mut |_, _| Ok(())).unwrap();
        assert_eq!(stats.events_replayed, 5);
        // Prune below watermark 3: segments covering only seqs ≤ 3 go away.
        let removed = prune_segments(&dir, 3).unwrap();
        assert!(removed > 0);
        let r = WalReader::open(&dir, 7).unwrap();
        let stats = r.replay(4, &mut |_, _| Ok(())).unwrap();
        assert_eq!(stats.events_replayed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_resumes_sequence() {
        let dir = tmp_dir("reopen");
        let mut w = WalWriter::open(&dir, 1, 1, FsyncPolicy::EveryBatch, 1 << 20).unwrap();
        w.append(&[ev(1), ev(2)]).unwrap();
        w.batch_boundary().unwrap();
        drop(w);
        let mut w = WalWriter::open(&dir, 1, 3, FsyncPolicy::EveryBatch, 1 << 20).unwrap();
        assert_eq!(w.next_seq(), 3);
        w.append(&[ev(3)]).unwrap();
        drop(w);
        let (records, torn) = WalReader::open(&dir, 1).unwrap().records().unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].first_seq, 3);
        // Reopening behind the log is refused.
        assert!(WalWriter::open(&dir, 1, 2, FsyncPolicy::Never, 1 << 20).is_err());
        // Reopening ahead of the log rotates to a fresh segment.
        let w = WalWriter::open(&dir, 1, 10, FsyncPolicy::Never, 1 << 20).unwrap();
        assert_eq!(w.next_seq(), 10);
        drop(w);
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = tmp_dir("fp");
        let mut w = WalWriter::open(&dir, 5, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(1)]).unwrap();
        drop(w);
        match WalReader::open(&dir, 6).unwrap().records() {
            Err(DurabilityError::FingerprintMismatch {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (6, 5));
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(&dir, 9, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(1)]).unwrap();
        w.append(&[ev(2)]).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // Chop 3 bytes off the final record.
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let r = WalReader::open(&dir, 9).unwrap();
        let mut n = 0;
        let stats = r
            .replay(1, &mut |_, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1, "torn record must be dropped");
        assert!(stats.torn_tail_dropped);
        // A writer reopening at the surviving watermark truncates and resumes.
        let mut w = WalWriter::open(&dir, 9, 2, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(2)]).unwrap();
        drop(w);
        let (records, torn) = WalReader::open(&dir, 9).unwrap().records().unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_live_writer_is_refused() {
        let dir = tmp_dir("lock");
        let w1 = WalWriter::open(&dir, 1, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        match WalWriter::open(&dir, 1, 1, FsyncPolicy::Never, 1 << 20) {
            Err(DurabilityError::Locked { .. }) => {}
            other => panic!("expected Locked, got {:?}", other.map(|_| "writer")),
        }
        drop(w1);
        // The lock dies with its holder.
        WalWriter::open(&dir, 1, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_segment_is_removed_on_reopen() {
        let dir = tmp_dir("tornhdr");
        let mut w = WalWriter::open(&dir, 4, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(1), ev(2)]).unwrap();
        drop(w);
        // Simulate a crash during rotation: the next segment exists but its
        // 16-byte header is torn. (A zero-extended full-length header — the
        // other shape a power cut leaves — must behave identically.)
        fs::write(dir.join(segment_name(3)), [0u8; 64]).unwrap();
        let scan = scan_segment(&StdVfs, &dir.join(segment_name(3)), 4, true).unwrap();
        assert!(scan.torn && scan.records.is_empty() && scan.valid_end == 0);
        fs::write(dir.join(segment_name(3)), &b"DBTWAL"[..5]).unwrap();
        // The reader drops it...
        let r = WalReader::open(&dir, 4).unwrap();
        let stats = r.replay(1, &mut |_, _| Ok(())).unwrap();
        assert_eq!(stats.events_replayed, 2);
        assert!(stats.torn_tail_dropped);
        // ...and a writer reopening must not append after the torn header:
        // the headerless file is removed and appends resume cleanly.
        let mut w = WalWriter::open(&dir, 4, 3, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(3)]).unwrap();
        drop(w);
        let (records, torn) = WalReader::open(&dir, 4).unwrap().records().unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].first_seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_filled_tail_is_torn_not_corrupt() {
        // A power cut can extend the file with zeros (size committed before
        // data pages); crc32("") == 0 makes each zero chunk look like a
        // CRC-valid empty record. It must be dropped as a torn tail.
        let dir = tmp_dir("zerotail");
        let mut w = WalWriter::open(&dir, 2, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(1)]).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        fs::write(&path, &bytes).unwrap();
        let r = WalReader::open(&dir, 2).unwrap();
        let mut n = 0;
        let stats = r
            .replay(1, &mut |_, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1);
        assert!(stats.torn_tail_dropped);
        // And the writer resumes after truncating the zeros away.
        let mut w = WalWriter::open(&dir, 2, 2, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(2)]).unwrap();
        drop(w);
        let (records, torn) = WalReader::open(&dir, 2).unwrap().records().unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let dir = tmp_dir("midlog");
        let mut w = WalWriter::open(&dir, 3, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(1)]).unwrap();
        w.append(&[ev(2)]).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        // Flip a byte inside the FIRST record's payload: valid data follows, so
        // this must be a hard error, not a tolerated tail.
        let mut bytes = fs::read(&path).unwrap();
        let idx = SEGMENT_HEADER_LEN as usize + FRAME_HEADER_LEN + 4;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match WalReader::open(&dir, 3).unwrap().records() {
            Err(DurabilityError::Corrupt { .. }) => {}
            other => panic!("expected hard corruption error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    /// [`StdVfs`] that counts `sync_data`/`sync_all` calls on the files it
    /// opens — lets the sync-point test assert actual fsync traffic.
    #[derive(Debug)]
    struct SyncCountingVfs {
        syncs: Arc<AtomicU64>,
    }

    struct SyncCountingFile {
        inner: Box<dyn VfsFile>,
        syncs: Arc<AtomicU64>,
    }

    impl VfsFile for SyncCountingFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.inner.write_all(buf)
        }
        fn sync_data(&mut self) -> io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync_data()
        }
        fn sync_all(&mut self) -> io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync_all()
        }
        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }
    }

    impl Vfs for SyncCountingVfs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            StdVfs.read(path)
        }
        fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            StdVfs.list_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            StdVfs.exists(path)
        }
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            Ok(Box::new(SyncCountingFile {
                inner: StdVfs.open_append(path)?,
                syncs: self.syncs.clone(),
            }))
        }
        fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            Ok(Box::new(SyncCountingFile {
                inner: StdVfs.create(path)?,
                syncs: self.syncs.clone(),
            }))
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            StdVfs.create_dir_all(dir)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            StdVfs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            StdVfs.remove_file(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            StdVfs.sync_dir(dir)
        }
    }

    /// The sync points. Under `EveryBatch` an append never syncs, each
    /// `batch_boundary` after appends syncs once and one with nothing pending
    /// does not, and a new segment's header is synced (at open and at
    /// rotation). Under `Never` neither appends nor boundaries sync; a
    /// rotation syncs the segment it finishes, and an explicit `sync` (a
    /// barrier, clean shutdown) syncs what is pending.
    #[test]
    fn syncs_happen_at_batch_boundaries_rotation_and_explicit_syncs_only() {
        let dir = tmp_dir("sync-points");
        let syncs = Arc::new(AtomicU64::new(0));
        let vfs: Arc<dyn Vfs> = Arc::new(SyncCountingVfs {
            syncs: syncs.clone(),
        });
        let synced = |want: u64, at: &str| assert_eq!(syncs.load(Ordering::Relaxed), want, "{at}");
        // A segment this small is full after one record: every append but a
        // segment's first rotates.
        let one_record = SEGMENT_HEADER_LEN + 1;

        let mut w = WalWriter::open((&dir, &vfs), 9, 1, FsyncPolicy::EveryBatch, 1 << 20).unwrap();
        synced(1, "EveryBatch: a new segment's header");
        w.append(&[ev(1)]).unwrap();
        w.append(&[ev(2)]).unwrap();
        synced(1, "EveryBatch: appends");
        w.batch_boundary().unwrap();
        synced(2, "EveryBatch: a boundary after appends");
        w.batch_boundary().unwrap();
        synced(2, "EveryBatch: a boundary with nothing pending");
        drop(w);
        let mut w =
            WalWriter::open((&dir, &vfs), 9, 3, FsyncPolicy::EveryBatch, one_record).unwrap();
        synced(2, "EveryBatch: reopening an intact segment");
        w.append(&[ev(3)]).unwrap();
        synced(3, "EveryBatch: a rotation, with nothing pending");
        w.batch_boundary().unwrap();
        synced(4, "EveryBatch: a boundary after a rotated append");
        drop(w);

        let mut w = WalWriter::open((&dir, &vfs), 9, 4, FsyncPolicy::Never, one_record).unwrap();
        w.append(&[ev(4)]).unwrap();
        w.batch_boundary().unwrap();
        synced(4, "Never: a rotation, an append, a boundary");
        w.append(&[ev(5)]).unwrap();
        synced(5, "Never: a rotation finishing an unsynced segment");
        w.batch_boundary().unwrap();
        synced(5, "Never: a boundary");
        w.sync().unwrap();
        synced(6, "Never: an explicit sync");
        w.sync().unwrap();
        synced(6, "Never: an explicit sync with nothing pending");
        drop(w);

        let (records, torn) = WalReader::open((&dir, &vfs), 9).unwrap().records().unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Between the two halves of a batch boundary the sync thread owns the
    /// segment: touching the file panics instead of writing behind the sync.
    #[test]
    fn a_sync_in_flight_owns_the_segment_until_it_ends() {
        let dir = tmp_dir("in-flight");
        let syncs = Arc::new(AtomicU64::new(0));
        let vfs: Arc<dyn Vfs> = Arc::new(SyncCountingVfs {
            syncs: syncs.clone(),
        });
        let mut w = WalWriter::open((&dir, &vfs), 3, 1, FsyncPolicy::EveryBatch, 1 << 20).unwrap();
        w.append(&[ev(1)]).unwrap();
        w.begin_batch_boundary();
        let appended = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.append(&[ev(2)]).map(|_| ())
        }));
        assert!(appended.is_err(), "an append during a sync must panic");
        w.end_batch_boundary().unwrap();
        assert_eq!(syncs.load(Ordering::Relaxed), 2, "the header, the batch");
        w.end_batch_boundary().unwrap();
        w.append(&[ev(2)]).unwrap();
        w.batch_boundary().unwrap();
        assert_eq!(syncs.load(Ordering::Relaxed), 3);
        drop(w);
        let (records, torn) = WalReader::open((&dir, &vfs), 3).unwrap().records().unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
