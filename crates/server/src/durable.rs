//! The durable pipeline: the writer-side WAL with its self-healing health
//! states, and the background checkpointer.

use crate::server::Shared;
use dbtoaster_agca::UpdateEvent;
use dbtoaster_durability::{
    checkpoint, program_fingerprint, DurabilityConfig, DurabilityError, RetryPolicy, Vfs, VfsPath,
    WalWriter,
};
use dbtoaster_gmr::{FastMap, Gmr};
use dbtoaster_runtime::Engine;
use dbtoaster_telemetry::{Counter, Stage};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Every map, handed to the checkpoint thread, which pays the serialization
/// cost off the hot path. A published view hands over the buffer of the
/// publish that just happened (it is unwritten since: O(1)); while the thread
/// holds it that buffer cannot be recycled, so each written published view
/// pays one full copy per checkpoint (`snapshot_full_copies`, reason
/// `pinned`). An unpublished map is snapshotted only here, so it pays one
/// full copy per checkpoint (or a patch, if it was written little since the
/// last two).
struct CkptJob {
    maps: FastMap<String, Gmr>,
    watermark: u64,
}

/// Write a checkpoint of `maps` at `watermark` and count it in `taken`,
/// raising `newest` to `watermark`: every checkpoint the server writes — the
/// initial one at open, the background thread's and re-arm's — goes through
/// here.
fn take_checkpoint<'a>(
    dir: impl Into<VfsPath<'a>>,
    fingerprint: u64,
    watermark: u64,
    maps: &FastMap<String, Gmr>,
    taken: &AtomicU64,
    newest: &AtomicU64,
) -> Result<(), DurabilityError> {
    let maps = maps.iter().map(|(n, g)| (n.as_str(), g));
    checkpoint::write_checkpoint(dir, fingerprint, watermark, maps)?;
    taken.fetch_add(1, Relaxed);
    newest.fetch_max(watermark, Relaxed);
    Ok(())
}

fn record_durability_error(shared: &Shared, e: DurabilityError) {
    shared
        .durability_error
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get_or_insert(e);
}

/// Where the WAL stands, as a state the writer moves through — degraded mode
/// is something the server *exits*, not a one-way trip.
///
/// `Armed → Degraded`: a transient append/sync failure survived the bounded
/// inline retries (or made in-place retry unsafe). Ingest keeps flowing and
/// events apply in memory; durability is suspended.
/// `Degraded → Armed`: a re-arm succeeded — a fresh checkpoint at the current
/// watermark captured everything applied while degraded, and the WAL resumed
/// on a fresh segment. Nothing is lost unless the process dies *while*
/// degraded.
/// `→ Failed`: a permanent error (EROFS, permissions). No further retries;
/// the error latches into `ViewServer::last_durability_error` and `/healthz`
/// flips to 503.
enum WalHealth {
    /// Appends flow to the log normally.
    Armed,
    /// Durability suspended; the writer attempts a re-arm once `next_rearm`
    /// passes, doubling `backoff` (capped) after each failed attempt.
    Degraded {
        backoff: Duration,
        next_rearm: Instant,
    },
    /// Permanent failure: durability is off for the rest of the session.
    Failed,
}

/// The writer thread's durable state: the open WAL, a handle to the
/// checkpoint thread, and the self-healing machinery ([`WalHealth`]).
pub(crate) struct DurableState {
    wal: WalWriter,
    /// The served engine's `wal_bytes_written` at open: its count stays
    /// cumulative over the engine's life, while `wal` counts from its open.
    wal_bytes_base: u64,
    ckpt_tx: Option<SyncSender<CkptJob>>,
    ckpt_thread: Option<JoinHandle<()>>,
    checkpoint_every: u64,
    events_since_ckpt: u64,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    fingerprint: u64,
    retry: RetryPolicy,
    health: WalHealth,
    io_retries: Counter,
    io_errors_transient: Counter,
    io_errors_permanent: Counter,
    degraded_transitions: Counter,
    degraded_gauge: Counter,
}

fn unix_epoch_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl DurableState {
    pub(crate) fn open(
        cfg: &DurabilityConfig,
        engine: &Engine,
        shared: &Arc<Shared>,
    ) -> Result<Self, DurabilityError> {
        let fingerprint = program_fingerprint(engine.program());
        let watermark = engine.stats().events;
        // The writer lock comes FIRST — before any directory read or mutation
        // (tmp cleanup, the initial checkpoint, the WAL scan). A second opener
        // racing a live server is refused here, with no window in which it
        // could delete the live checkpointer's in-flight `.tmp` or interleave
        // an initial checkpoint write.
        let lock = dbtoaster_durability::wal::acquire_dir_lock(&cfg.dir)?;
        let dir = (&cfg.dir, &cfg.vfs);
        checkpoint::clean_tmp_files(dir)?;
        let checkpoints = checkpoint::list_checkpoints(dir)?;
        // A checkpoint or WAL *ahead* of this engine means the directory holds
        // state the caller never recovered (durable `serve_with` on a used
        // directory instead of `open_or_create`). Adopting it would fork
        // history: the new WAL would restart below the stale watermark and a
        // later recovery would silently merge old state with the new stream.
        // Both checks run before ANY mutation — a refused open must not leave
        // an initial checkpoint behind for a later recovery to pick up. Only
        // *verified* checkpoints count, mirroring recovery's own fallback
        // policy: a damaged newest file that recovery skipped must not make
        // `open_or_create` refuse its own result.
        let mut newest_verified: Option<u64> = None;
        for (_, path) in &checkpoints {
            match checkpoint::verify_checkpoint((path, &cfg.vfs), fingerprint) {
                Ok(w) => {
                    newest_verified = Some(w);
                    break;
                }
                Err(e @ DurabilityError::FingerprintMismatch { .. }) => return Err(e),
                Err(e @ DurabilityError::VersionMismatch { .. }) => return Err(e),
                Err(_) => continue, // damaged: recovery skipped it too
            }
        }
        if let Some(newest) = newest_verified {
            if newest > watermark {
                return Err(DurabilityError::Config(format!(
                    "durability dir {} holds a checkpoint at watermark {newest}, ahead of this \
                     engine's {watermark} applied events; recover it first (use open_or_create)",
                    cfg.dir.display()
                )));
            }
        }
        // (Startup-only trade-off: this probe re-reads the final segment that
        // recovery already scanned and that `WalWriter::open_locked` will scan
        // once more. Threading one scan through all three would save at most
        // one segment read per process start — correctness-critical paths stay
        // independent instead.)
        if let Some(end) = dbtoaster_durability::wal::log_end_seq(dir, fingerprint)? {
            if end > watermark + 1 {
                return Err(DurabilityError::Config(format!(
                    "durability dir {} holds a WAL ending at seq {}, ahead of this engine's \
                     {watermark} applied events; recover it first (use open_or_create)",
                    cfg.dir.display(),
                    end - 1
                )));
            }
        }
        // First durable start (or wiped checkpoints): capture the engine's
        // current state synchronously. Pre-loaded tables and static views
        // never travel through the WAL, so "newest checkpoint + WAL suffix"
        // must be a complete recipe from the very first logged event. The
        // checkpoint is written *before* the WAL is created: a crash in
        // between leaves checkpoint-only state (recovered intact), whereas the
        // reverse order would leave a checkpoint-less WAL that a later
        // recovery would replay against an engine missing the tables.
        if checkpoints.is_empty() {
            take_checkpoint(
                dir,
                fingerprint,
                watermark,
                &engine.snapshot(),
                &shared.checkpoints_taken,
                &shared.checkpoint_watermark,
            )?;
        }
        shared
            .checkpoint_watermark
            .fetch_max(newest_verified.unwrap_or(watermark), Relaxed);
        let wal = WalWriter::open_locked(
            dir,
            fingerprint,
            watermark + 1,
            cfg.fsync,
            cfg.segment_bytes,
            lock,
        )?;
        let io_retries = shared.tel.counter("io_retries");
        let io_errors_transient = shared.tel.counter("io_errors_transient");
        let io_errors_permanent = shared.tel.counter("io_errors_permanent");
        let degraded_transitions = shared.tel.counter("degraded_transitions");
        let degraded_gauge = shared.tel.gauge("degraded");
        let (tx, rx) = mpsc::sync_channel::<CkptJob>(1);
        let ckpt_thread = {
            let shared = shared.clone();
            let dir = cfg.dir.clone();
            let keep = cfg.keep_checkpoints;
            let vfs = cfg.vfs.clone();
            let transient = io_errors_transient.clone();
            let permanent = io_errors_permanent.clone();
            thread::Builder::new()
                .name("dbtoaster-ckpt".into())
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let _t = shared.tel.stage_guard(Stage::CheckpointWrite);
                        let at = (&dir, &vfs);
                        let res = take_checkpoint(
                            at,
                            fingerprint,
                            job.watermark,
                            &job.maps,
                            &shared.checkpoints_taken,
                            &shared.checkpoint_watermark,
                        )
                        .and_then(|()| checkpoint::retain_and_prune_wal(at, keep, fingerprint));
                        match res {
                            Ok(_) => {}
                            // A transient failure, writing the checkpoint or
                            // pruning behind it, only delays the watermark or
                            // the pruning — the WAL still covers everything, so
                            // it is a warning, not a health failure. The next
                            // job retries from scratch. Permanent failures
                            // latch: they would hit every job the same way.
                            Err(e) if e.is_transient() => {
                                transient.inc();
                                shared
                                    .durability_warning
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .get_or_insert(e);
                            }
                            Err(e) => {
                                permanent.inc();
                                record_durability_error(&shared, e);
                            }
                        }
                    }
                })
                .map_err(|e| DurabilityError::Io {
                    message: format!("spawning checkpoint thread: {e}"),
                    retryable: false,
                })?
        };
        // A fresh open is armed, whatever an earlier serve sharing this
        // telemetry handle left the gauge at.
        degraded_gauge.set(0);
        Ok(DurableState {
            wal,
            wal_bytes_base: engine.stats().wal_bytes_written,
            ckpt_tx: Some(tx),
            ckpt_thread: Some(ckpt_thread),
            checkpoint_every: cfg.checkpoint_every_events.max(1),
            // Replayed events count toward the next checkpoint: without this,
            // a crash-looping server that never applies `checkpoint_every`
            // *new* events between crashes would never advance its watermark,
            // and the WAL (and every recovery) would grow without bound.
            events_since_ckpt: engine.stats().recovery_replayed_events,
            vfs: cfg.vfs.clone(),
            dir: cfg.dir.clone(),
            fingerprint,
            retry: cfg.retry,
            health: WalHealth::Armed,
            io_retries,
            io_errors_transient,
            io_errors_permanent,
            degraded_transitions,
            degraded_gauge,
        })
    }

    pub(crate) fn is_armed(&self) -> bool {
        matches!(self.health, WalHealth::Armed)
    }

    /// Bytes the served engine has appended to the log over its life.
    pub(crate) fn wal_bytes_written(&self) -> u64 {
        self.wal_bytes_base + self.wal.bytes_written()
    }

    /// Write-ahead: append the micro-batch *before* any of its events touch a
    /// view, and issue its batch-boundary sync, which runs while the batch's
    /// kernels do; [`DurableState::end_batch`] waits for it before anything
    /// makes the batch observable. Returns `false` when the log did not take
    /// the batch — it is then applied undurably, the snapshot marked
    /// degraded, and a later re-arm's checkpoint recaptures its effects.
    pub(crate) fn log_batch(
        &mut self,
        batch: &[UpdateEvent],
        engine: &Engine,
        shared: &Shared,
    ) -> bool {
        match self.health {
            WalHealth::Failed => false,
            WalHealth::Armed if batch.is_empty() => true,
            WalHealth::Armed => self.append_armed(batch, shared),
            // Degraded: every writer iteration (even an empty one — barriers,
            // subscribes, publish timeouts) is a chance to re-arm, so recovery
            // of durable operation does not wait for the next event.
            WalHealth::Degraded { .. } => self.try_rearm(batch, engine, shared),
        }
    }

    /// Append under [`WalHealth::Armed`]: bounded in-place retries with
    /// exponential backoff for transient append failures (each retry first
    /// truncates back to the last record boundary — a failed write may have
    /// left a partial frame that a blind retry would bury mid-log). The
    /// writer sleeps through the backoff, so the bounded ingest queue fills
    /// and producers backpressure instead of events being dropped. A logged
    /// batch's sync is issued here and waited for in
    /// [`DurableState::end_batch`].
    fn append_armed(&mut self, batch: &[UpdateEvent], shared: &Shared) -> bool {
        let _t = shared.tel.stage_guard(Stage::WalAppend);
        let mut backoff = self.retry.initial_backoff;
        let mut attempts = 0u32;
        loop {
            match self.wal.append(batch) {
                Ok(_) => break,
                Err(e) if e.is_transient() && attempts < self.retry.max_inline_retries => {
                    attempts += 1;
                    self.io_errors_transient.inc();
                    self.io_retries.inc();
                    if self.wal.truncate_to_boundary().is_err() {
                        // Cannot restore the record boundary: an in-place
                        // retry could land a valid record after garbage.
                        // Abandon the segment through the re-arm path.
                        self.enter_degraded(e, shared);
                        return false;
                    }
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.retry.max_backoff);
                }
                Err(e) if e.is_transient() => {
                    self.io_errors_transient.inc();
                    self.enter_degraded(e, shared);
                    return false;
                }
                Err(e) => {
                    self.io_errors_permanent.inc();
                    self.enter_failed(e, shared);
                    return false;
                }
            }
        }
        self.wal.begin_batch_boundary();
        true
    }

    /// Wait for the batch sync [`DurableState::log_batch`] issued (a no-op
    /// when none is in flight). The writer calls it every iteration, after
    /// the batch's kernels and before the publish, fan-out, cold reads,
    /// checkpoint hand-off and barrier acks that could make the batch
    /// observable, so no sync outlives its iteration. The wait is the WAL's
    /// exposed cost and is timed as [`Stage::WalAppend`].
    pub(crate) fn end_batch(&mut self, shared: &Shared) {
        let _t = shared.tel.stage_guard(Stage::WalAppend);
        if let Err(e) = self.wal.end_batch_boundary() {
            self.sync_failed(e, shared);
        }
    }

    /// Sync failures are NEVER retried in place: after a failed fsync the
    /// kernel may drop the dirty pages *and* clear the error flag, so a
    /// retried fsync can falsely succeed over lost data (the "fsyncgate"
    /// failure mode). A transient sync failure goes straight to degraded —
    /// the re-arm rewrites state from a fresh checkpoint instead of trusting
    /// the poisoned file — and anything else to failed. A batch whose sync
    /// failed is already applied; its snapshot is marked degraded.
    fn sync_failed(&mut self, e: DurabilityError, shared: &Shared) {
        if e.is_transient() {
            self.io_errors_transient.inc();
            self.enter_degraded(e, shared);
        } else {
            self.io_errors_permanent.inc();
            self.enter_failed(e, shared);
        }
    }

    /// Sync the log before a barrier is acknowledged: a `flush()` ack
    /// promises the acked epoch's events are durable, so no appended byte may
    /// stay unsynced past it. Under `EveryBatch` this is a no-op (each batch
    /// boundary already synced, and `sync` skips the syscall unless bytes are
    /// unsynced); under `Never` it is the fsync that makes the ack durable.
    /// Sync failures follow the fsyncgate rule (see `sync_failed`): straight
    /// to degraded or failed, never retried in place.
    pub(crate) fn barrier_sync(&mut self, shared: &Shared) {
        if !self.is_armed() {
            return;
        }
        if let Err(e) = self.wal.sync() {
            self.sync_failed(e, shared);
        }
    }

    /// One re-arm attempt out of degraded mode (rate-limited by the backoff
    /// deadline): checkpoint the engine's *current* state — capturing every
    /// event applied undurably while degraded — then abandon the poisoned
    /// segment and resume the WAL on a fresh one right above the checkpoint.
    /// The order matters: the checkpoint must land first, because the fresh
    /// segment starts *after* the degraded-period events and only the
    /// checkpoint covers them.
    fn try_rearm(&mut self, batch: &[UpdateEvent], engine: &Engine, shared: &Shared) -> bool {
        let WalHealth::Degraded {
            backoff,
            next_rearm,
        } = self.health
        else {
            return false;
        };
        if Instant::now() < next_rearm {
            return false;
        }
        self.io_retries.inc();
        let watermark = engine.stats().events;
        let res = take_checkpoint(
            (&self.dir, &self.vfs),
            self.fingerprint,
            watermark,
            &engine.snapshot(),
            &shared.checkpoints_taken,
            &shared.checkpoint_watermark,
        )
        .and_then(|()| self.wal.rearm(watermark + 1));
        match res {
            Ok(()) => {
                self.events_since_ckpt = 0;
                self.exit_degraded(shared);
                // Durable again: the triggering batch still has to hit the log
                // before it is applied (and its sync is issued with it).
                if batch.is_empty() {
                    true
                } else {
                    self.append_armed(batch, shared)
                }
            }
            Err(e) if e.is_transient() => {
                self.io_errors_transient.inc();
                let next = (backoff * 2).min(self.retry.max_backoff);
                self.health = WalHealth::Degraded {
                    backoff: next,
                    next_rearm: Instant::now() + next,
                };
                *shared
                    .degraded_error
                    .lock()
                    .unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
                false
            }
            Err(e) => {
                self.io_errors_permanent.inc();
                self.enter_failed(e, shared);
                false
            }
        }
    }

    fn enter_degraded(&mut self, e: DurabilityError, shared: &Shared) {
        let backoff = self.retry.initial_backoff;
        self.health = WalHealth::Degraded {
            backoff,
            next_rearm: Instant::now() + backoff,
        };
        self.degraded_transitions.inc();
        self.degraded_gauge.set(1);
        shared
            .last_transition_epoch
            .store(unix_epoch_secs(), Relaxed);
        *shared
            .degraded_error
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
    }

    fn exit_degraded(&mut self, shared: &Shared) {
        self.health = WalHealth::Armed;
        self.degraded_transitions.inc();
        self.degraded_gauge.set(0);
        shared
            .last_transition_epoch
            .store(unix_epoch_secs(), Relaxed);
        *shared
            .degraded_error
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = None;
    }

    fn enter_failed(&mut self, e: DurabilityError, shared: &Shared) {
        self.health = WalHealth::Failed;
        self.degraded_transitions.inc();
        self.degraded_gauge.set(0);
        shared
            .last_transition_epoch
            .store(unix_epoch_secs(), Relaxed);
        record_durability_error(shared, e);
    }

    /// Hand a checkpoint job to the background thread once enough events have
    /// accumulated. If the previous checkpoint is still being written the
    /// attempt is skipped and retried after the next batch — the writer never
    /// waits on checkpoint I/O.
    pub(crate) fn maybe_checkpoint(&mut self, engine: &Engine, applied: u64) {
        self.events_since_ckpt += applied;
        if !self.is_armed() || self.events_since_ckpt < self.checkpoint_every {
            return;
        }
        let job = CkptJob {
            maps: engine.snapshot(),
            watermark: engine.stats().events,
        };
        if let Some(tx) = &self.ckpt_tx {
            if tx.try_send(job).is_ok() {
                self.events_since_ckpt = 0;
            }
        }
    }

    /// Tear down the pipeline. A clean shutdown syncs the WAL and writes a
    /// final checkpoint (so the next open replays nothing); a crash
    /// ([`ViewServer::kill`]) skips both, leaving exactly what a dead process
    /// would have left.
    pub(crate) fn shutdown(mut self, engine: &Engine, clean: bool, shared: &Shared) {
        if clean && self.is_armed() {
            if let Err(e) = self.wal.sync() {
                record_durability_error(shared, e);
            }
            if let Some(tx) = &self.ckpt_tx {
                let _ = tx.send(CkptJob {
                    maps: engine.snapshot(),
                    watermark: engine.stats().events,
                });
            }
        }
        self.ckpt_tx = None; // closes the channel; the thread drains and exits
        if let Some(t) = self.ckpt_thread.take() {
            let _ = t.join();
        }
    }
}
