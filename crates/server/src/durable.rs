//! The durable pipeline: the one durable open (recover the directory into
//! the served engine, or start it fresh), the writer-side WAL with its
//! self-healing health states, and the background checkpointer.

use crate::server::Shared;
use dbtoaster_agca::UpdateEvent;
use dbtoaster_durability::{
    checkpoint, program_fingerprint, recover, DurabilityConfig, DurabilityError, RetryPolicy, Vfs,
    VfsPath, WalWriter,
};
use dbtoaster_gmr::{FastMap, Gmr};
use dbtoaster_runtime::Engine;
use dbtoaster_telemetry::{Counter, Stage, Telemetry};
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
/// raising `newest` to `watermark`: every checkpoint a running server writes —
/// the background thread's and re-arm's — goes through here (the initial one
/// at open counts in the engine's stats, which the server starts from).
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
    keep_checkpoints: usize,
    events_since_ckpt: u64,
    /// Watermark of the newest checkpoint at open, and the warning of a
    /// recovery that skipped damaged checkpoints: handed to the server by
    /// [`DurableState::start`].
    newest_checkpoint: u64,
    recovery_warning: Option<DurabilityError>,
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
    /// Open `cfg.dir` for `engine`: the one place that chooses between
    /// recovering the directory and starting it fresh. Under the directory's
    /// writer lock, held from the first read through the WAL open: recover
    /// the directory's state into `engine` (timed as
    /// [`Stage::RecoveryReplay`]), write an initial checkpoint if the
    /// directory has none, and open the WAL right above the engine's
    /// watermark. [`DurableState::start`] then hands the server what recovery
    /// found and starts the checkpoint thread.
    pub(crate) fn open(
        cfg: &DurabilityConfig,
        engine: &mut Engine,
        tel: &Telemetry,
    ) -> Result<Self, DurabilityError> {
        // The writer lock comes FIRST — before any directory read or mutation
        // (tmp cleanup, the recovery scan, the initial checkpoint, the WAL
        // scan). A second opener racing a live server is refused here, before
        // a possibly huge replay, with no window in which it could read files
        // the live checkpointer prunes or delete its in-flight `.tmp`.
        let lock = dbtoaster_durability::wal::acquire_dir_lock(&cfg.dir)?;
        let dir = (&cfg.dir, &cfg.vfs);
        checkpoint::clean_tmp_files(dir)?;
        // Recovery refuses an engine that has applied events while the
        // directory holds state (two histories) before anything is written.
        let recovery = {
            let _t = tel.stage_guard(Stage::RecoveryReplay);
            recover(dir, engine)?
        };
        let fingerprint = program_fingerprint(engine.program());
        let watermark = engine.stats().events;
        let mut newest_checkpoint = recovery.as_ref().map_or(0, |r| r.checkpoint_watermark);
        // A degraded recovery (an older checkpoint used) must stay
        // distinguishable from a clean one after the server is up.
        let recovery_warning = recovery
            .filter(|r| !r.skipped_checkpoints.is_empty())
            .map(|r| {
                let skipped = r.skipped_checkpoints.join("; ");
                DurabilityError::RecoveryDegraded(format!("skipped damaged checkpoints: {skipped}"))
            });
        // First durable start (or wiped checkpoints): capture the engine's
        // current state synchronously. Pre-loaded tables and static views
        // never travel through the WAL, so "newest checkpoint + WAL suffix"
        // must be a complete recipe from the very first logged event. The
        // checkpoint is written *before* the WAL is created: a crash in
        // between leaves checkpoint-only state (recovered intact), whereas the
        // reverse order would leave a checkpoint-less WAL whose replay leans
        // on the tables the next opener happens to load.
        if checkpoint::list_checkpoints(dir)?.is_empty() {
            let maps = engine.snapshot();
            let maps = maps.iter().map(|(n, g)| (n.as_str(), g));
            checkpoint::write_checkpoint(dir, fingerprint, watermark, maps)?;
            engine.stats_mut().checkpoints_taken += 1;
            newest_checkpoint = watermark;
        }
        let wal = WalWriter::open_locked(
            dir,
            fingerprint,
            watermark + 1,
            cfg.fsync,
            cfg.segment_bytes,
            lock,
        )?;
        let degraded_gauge = tel.gauge("degraded");
        // A fresh open is armed, whatever an earlier serve sharing this
        // telemetry handle left the gauge at.
        degraded_gauge.set(0);
        Ok(DurableState {
            wal,
            wal_bytes_base: engine.stats().wal_bytes_written,
            ckpt_tx: None,
            ckpt_thread: None,
            checkpoint_every: cfg.checkpoint_every_events.max(1),
            keep_checkpoints: cfg.keep_checkpoints,
            // Replayed events count toward the next checkpoint: without this,
            // a crash-looping server that never applies `checkpoint_every`
            // *new* events between crashes would never advance its watermark,
            // and the WAL (and every recovery) would grow without bound.
            events_since_ckpt: engine.stats().recovery_replayed_events,
            newest_checkpoint,
            recovery_warning,
            vfs: cfg.vfs.clone(),
            dir: cfg.dir.clone(),
            fingerprint,
            retry: cfg.retry,
            health: WalHealth::Armed,
            io_retries: tel.counter("io_retries"),
            io_errors_transient: tel.counter("io_errors_transient"),
            io_errors_permanent: tel.counter("io_errors_permanent"),
            degraded_transitions: tel.counter("degraded_transitions"),
            degraded_gauge,
        })
    }

    /// Hand the server what [`DurableState::open`] found — the newest
    /// checkpoint's watermark and a degraded recovery's warning — and start
    /// the checkpoint thread.
    pub(crate) fn start(&mut self, shared: &Arc<Shared>) -> Result<(), DurabilityError> {
        shared
            .checkpoint_watermark
            .fetch_max(self.newest_checkpoint, Relaxed);
        if let Some(w) = self.recovery_warning.take() {
            shared
                .durability_warning
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get_or_insert(w);
        }
        let (tx, rx) = mpsc::sync_channel::<CkptJob>(1);
        let shared = shared.clone();
        let dir = self.dir.clone();
        let keep = self.keep_checkpoints;
        let vfs = self.vfs.clone();
        let fingerprint = self.fingerprint;
        let transient = self.io_errors_transient.clone();
        let permanent = self.io_errors_permanent.clone();
        let ckpt_thread = thread::Builder::new()
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
                        // pruning behind it, only delays the watermark or the
                        // pruning — the WAL still covers everything, so it is
                        // a warning, not a health failure. The next job
                        // retries from scratch. Permanent failures latch:
                        // they would hit every job the same way.
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
            })?;
        self.ckpt_tx = Some(tx);
        self.ckpt_thread = Some(ckpt_thread);
        Ok(())
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
