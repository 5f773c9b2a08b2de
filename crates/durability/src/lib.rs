//! # DBToaster durability
//!
//! The paper's views are "frequently fresh" — but, until this crate, only as
//! fresh as the process was long-lived: a restart of the serving engine lost
//! every materialized map and forced a full recomputation. This crate makes
//! the engine's state durable with the classic event-sourcing pair:
//!
//! * a **write-ahead log** ([`wal`]) of every applied update event, and
//! * periodic **materialized-view checkpoints** ([`checkpoint`]) of the whole
//!   engine snapshot,
//!
//! joined by **recovery** ([`recover()`](recover())): load the newest usable checkpoint,
//! replay the WAL above its watermark through the normal trigger path, and the
//! result is *bit-for-bit* the engine a never-crashed process would hold.
//! This exactness is not luck — higher-order delta processing is a
//! deterministic function of the ordered event stream, and the codec
//! ([`codec`]) round-trips `f64` multiplicities as raw bit patterns.
//!
//! Everything is hand-rolled on `std` only (files, bytes, CRC32): the durable
//! format must not depend on an external serialization crate, matching the
//! workspace's offline-shim philosophy.
//!
//! ## On-disk layout
//!
//! One durability directory holds both artifact kinds, side by side:
//!
//! ```text
//! <dir>/wal-00000000000000000001.seg    segments, named by first event seq
//! <dir>/wal-00000000000000180225.seg
//! <dir>/ckpt-00000000000000200000.ckpt  checkpoints, named by watermark
//! <dir>/ckpt-00000000000000400000.ckpt
//! ```
//!
//! Both formats carry an explicit version byte ([`codec::FORMAT_VERSION`]) and
//! CRC32 checksums — per record in the WAL, per file in checkpoints — so
//! corruption is *detected*, never silently decoded. The exact byte layouts
//! are documented in [`wal`] and [`checkpoint`].
//!
//! ## Fsync policy trade-offs
//!
//! [`FsyncPolicy`] decides one thing: whether the end of each micro-batch
//! ([`WalWriter::batch_boundary`]) forces the log to stable storage.
//!
//! * [`EveryBatch`](FsyncPolicy::EveryBatch) (default) — buffered appends,
//!   one fsync at each micro-batch boundary. The serving layer appends the
//!   batch before its kernels run and syncs it, on the WAL's sync thread,
//!   while they do; the sync returns before any snapshot, subscriber delta,
//!   checkpoint or `flush()` ack covers the batch. Survives OS/machine
//!   crashes with zero lost acknowledged batches; the serving layer logs one
//!   record per drained batch, so the flush amortizes over the batch.
//! * [`Never`](FsyncPolicy::Never) — no per-batch fsync. Appends survive
//!   *process* crashes (the write syscall completed), and the log is still
//!   synced at the points that promise durability: a barrier (the server's
//!   `flush()` ack), segment rotation (a finished segment is never left
//!   unsynced) and clean shutdown. A machine crash can lose the suffix
//!   appended since the last of those; recovery then falls back to the
//!   newest checkpoint plus whatever log suffix survived, and the WAL writer
//!   restarts a fresh segment above the checkpoint watermark if the log ended
//!   below it. Fastest, and a reasonable choice when the stream itself is
//!   re-playable from an upstream source.
//!
//! Under both policies, opening a torn segment syncs its truncation, and
//! [`EveryBatch`](FsyncPolicy::EveryBatch) also syncs each new segment's
//! header (at open, rotation and re-arm).
//!
//! In every policy the WAL append happens **before** the events are applied —
//! write-ahead in the literal sense — and under
//! [`EveryBatch`](FsyncPolicy::EveryBatch) the sync returns before anything
//! observes them, so no published snapshot can ever reflect an event the log
//! might lose.
//!
//! ## Atomic-rename checkpoint protocol
//!
//! Checkpoints are written to `ckpt-<watermark>.tmp`, fsynced, renamed to
//! `ckpt-<watermark>.ckpt` (atomic within a directory on POSIX), and the
//! directory is fsynced before any WAL pruning relies on the new file. A
//! half-written checkpoint is therefore impossible to mistake for a real one:
//! it is a `.tmp` that open-time cleanup deletes. Damaged checkpoints fall
//! back to older retained ones; WAL segments are pruned only below the
//! *oldest retained* watermark so every fallback is still replayable. See
//! [`checkpoint`] for details.
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a truncated final WAL record. The reader drops
//! it (those events were never applied to any recoverable state) and the
//! writer truncates it before resuming. Anything else — corruption with valid
//! data after it, damage in an old segment, a sequence gap — is a **hard
//! error**: deterministic replay must fail loudly rather than diverge
//! silently. The torn/corrupt distinction is tested by truncating a log at
//! every byte offset of the tail record (see `tests/torn_writes.rs`).

pub mod checkpoint;
pub mod codec;
pub mod recover;
pub mod vfs;
pub mod wal;

pub use checkpoint::{list_checkpoints, load_latest, write_checkpoint, Checkpoint};
pub use codec::{CodecError, FORMAT_VERSION};
pub use recover::{recover, Recovery};
pub use vfs::{std_vfs, FaultConfig, FaultVfs, StdVfs, Vfs, VfsFile, VfsPath};
pub use wal::{
    acquire_dir_lock, list_segments, prune_segments, ReplayStats, WalReader, WalRecord, WalWriter,
};

use dbtoaster_compiler::TriggerProgram;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// When the WAL forces appended records to stable storage. See the crate docs
/// for the full trade-off discussion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync once per micro-batch boundary: the batch is appended before it is
    /// applied and synced before any snapshot, subscriber delta, checkpoint
    /// or `flush()` ack covers it (the sync runs on the WAL's sync thread
    /// while the batch's kernels do).
    #[default]
    EveryBatch,
    /// No per-batch fsync (process-crash safe only); barriers, rotation and
    /// clean shutdown still sync.
    Never,
}

/// How the serving layer retries transient durability failures before giving
/// up on the current segment and entering degraded mode (see the server
/// crate's writer loop: degraded mode is *exited* through a re-arm that
/// checkpoints current state and rotates to a fresh segment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// In-place retries of a failed WAL append before declaring the segment
    /// degraded. Each retry first truncates back to the last record boundary
    /// (a failed write may have left a partial frame).
    pub max_inline_retries: u32,
    /// Backoff before the first retry; doubles per attempt. Re-arm attempts
    /// from degraded mode continue doubling from where the inline retries
    /// left off.
    pub initial_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// 4 inline retries, 5 ms initial backoff, 2 s ceiling.
    fn default() -> Self {
        RetryPolicy {
            max_inline_retries: 4,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Configuration of the durable serving pipeline (consumed by
/// `dbtoaster-server` through `ServerConfig::durability`).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoints.
    pub dir: PathBuf,
    /// Fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Rotate WAL segments once they reach this many bytes.
    pub segment_bytes: u64,
    /// Take a checkpoint after this many applied events (measured since the
    /// previous checkpoint). Checkpoint serialization runs off the hot path.
    pub checkpoint_every_events: u64,
    /// Filesystem every durable byte flows through. [`StdVfs`] (the default)
    /// in production; a [`FaultVfs`] under fault-injection tests.
    pub vfs: Arc<dyn Vfs>,
    /// Retry/backoff policy for transient durability failures.
    pub retry: RetryPolicy,
}

impl DurabilityConfig {
    /// Defaults: fsync per batch, 16 MiB segments, checkpoint every 200k
    /// events, the real filesystem, default retries.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            segment_bytes: 16 << 20,
            checkpoint_every_events: 200_000,
            vfs: std_vfs(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Errors raised by the durability layer.
#[derive(Clone, Debug, PartialEq)]
pub enum DurabilityError {
    /// An I/O operation failed (message carries path and OS error).
    /// `retryable` classifies it transient (EIO, ENOSPC, EINTR, EAGAIN,
    /// timeouts — conditions that can clear) vs permanent (EROFS, permission
    /// errors, missing files): the serving layer retries and re-arms only
    /// transient failures.
    Io {
        /// Operation, path and OS error.
        message: String,
        /// Worth retrying / re-arming?
        retryable: bool,
    },
    /// A field failed to decode.
    Codec(CodecError),
    /// On-disk bytes are damaged in a way recovery must not tolerate.
    Corrupt {
        /// Offending file.
        file: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// The file was written by a different format version.
    VersionMismatch {
        /// Offending file.
        file: String,
        /// Version byte found.
        found: u8,
    },
    /// The durable state belongs to a different compiled program.
    FingerprintMismatch {
        /// Offending file.
        file: String,
        /// Fingerprint of the current program.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// The log is missing events between a checkpoint watermark (or an earlier
    /// record) and the next surviving record.
    SequenceGap {
        /// First sequence number that should have been present.
        expected: u64,
        /// Sequence number actually found.
        found: u64,
        /// File where the gap was detected.
        file: String,
    },
    /// Replaying a logged event through the engine failed.
    Replay(String),
    /// Recovery succeeded but was degraded: damaged checkpoint files were
    /// skipped in favour of older ones, or replayed events failed their
    /// triggers (mirroring the live writer's skip-and-continue policy). The
    /// recovered state is the best reconstruction available; this surfaces
    /// the fact so operators notice.
    RecoveryDegraded(String),
    /// API misuse detected before touching disk (e.g. a missing
    /// `DurabilityConfig` where one is required). Not retryable.
    Config(String),
    /// Another live writer holds the WAL's advisory lock. Two writers on one
    /// directory would truncate and interleave each other's records; the
    /// second opener is refused instead. The lock dies with its process, so
    /// a crashed holder never blocks recovery.
    Locked {
        /// The lock file.
        file: String,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { message, .. } => write!(f, "i/o error {message}"),
            DurabilityError::Codec(e) => write!(f, "decode error: {e}"),
            DurabilityError::Corrupt {
                file,
                offset,
                detail,
            } => write!(f, "{file} corrupt at byte {offset}: {detail}"),
            DurabilityError::VersionMismatch { file, found } => write!(
                f,
                "{file} has format version {found}, this build reads {FORMAT_VERSION}"
            ),
            DurabilityError::FingerprintMismatch {
                file,
                expected,
                found,
            } => write!(
                f,
                "{file} belongs to program {found:#018x}, current program is {expected:#018x}"
            ),
            DurabilityError::SequenceGap {
                expected,
                found,
                file,
            } => write!(f, "{file}: expected event seq {expected}, found {found}"),
            DurabilityError::Replay(m) => write!(f, "replay failed: {m}"),
            DurabilityError::RecoveryDegraded(m) => write!(f, "recovery degraded: {m}"),
            DurabilityError::Config(m) => write!(f, "durability misconfigured: {m}"),
            DurabilityError::Locked { file } => {
                write!(f, "another live writer holds the WAL lock {file}")
            }
        }
    }
}

impl DurabilityError {
    /// Is this failure worth retrying (inline) or re-arming (fresh segment
    /// after a checkpoint)? Only transient I/O qualifies: EIO, ENOSPC and
    /// interrupted/timed-out syscalls can clear; everything else — corruption,
    /// fingerprint/version mismatches, sequence gaps, locks, config and
    /// permanent I/O errors — cannot, and retrying would just mask it.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DurabilityError::Io {
                retryable: true,
                ..
            }
        )
    }
}

impl std::error::Error for DurabilityError {}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Codec(e)
    }
}

/// Wrap an I/O failure with the operation and path that hit it, classifying
/// it transient (retry/re-arm can help: the disk hiccuped, space can be
/// freed, the syscall was interrupted) vs permanent (EROFS, permissions,
/// missing files — retrying cannot fix it).
pub(crate) fn io_err(context: &str, path: &std::path::Path, e: std::io::Error) -> DurabilityError {
    // EINTR=4, EIO=5, EAGAIN=11, ENOSPC=28 on Linux.
    let retryable = match e.raw_os_error() {
        Some(code) => matches!(code, 4 | 5 | 11 | 28),
        None => matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::Other // FaultVfs power cuts and the like
        ),
    };
    DurabilityError::Io {
        message: format!("{context} {}: {e}", path.display()),
        retryable,
    }
}

/// A stable fingerprint of a compiled program: the durable state is only
/// replayable against the exact trigger program that produced it, so both WAL
/// segments and checkpoints embed this value and recovery refuses a mismatch.
///
/// Computed as FNV-1a over the program's canonical rendering (maps and
/// triggers) plus its result descriptors — everything that influences how an
/// event mutates state or how results are read.
pub fn program_fingerprint(program: &TriggerProgram) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    eat(format!("{program}").as_bytes());
    for r in &program.results {
        eat(r.name.as_bytes());
        eat(format!("{:?}", r.out_vars).as_bytes());
        eat(format!("{:?}", r.access).as_bytes());
    }
    eat(&[FORMAT_VERSION]);
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::Expr;
    use dbtoaster_compiler::{compile, Catalog, CompileOptions, QuerySpec, RelationMeta};

    fn program(var: &str) -> TriggerProgram {
        let catalog: Catalog = [RelationMeta::stream("R", ["A", "V"])]
            .into_iter()
            .collect();
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var(var)]),
            ),
        };
        compile(&[q], &catalog, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a1 = program_fingerprint(&program("v"));
        let a2 = program_fingerprint(&program("v"));
        let b = program_fingerprint(&program("a"));
        assert_eq!(a1, a2, "same program must fingerprint identically");
        assert_ne!(a1, b, "different programs must fingerprint differently");
    }
}
