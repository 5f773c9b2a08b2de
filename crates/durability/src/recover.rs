//! Crash recovery: newest usable checkpoint + WAL replay ⇒ a warm engine.
//!
//! Because higher-order delta processing is deterministic over an ordered
//! event stream, recovery is exact: starting from the checkpointed maps at
//! watermark `W` and replaying WAL events `W+1..` reproduces, bit for bit, the
//! engine a never-crashed process would hold after the same events. The replay
//! path is the *same* `Engine::process_batch` used live — one WAL record is
//! one live micro-batch, so recovery takes identical batch boundaries and
//! there is no separate recovery interpreter to drift out of sync.
//!
//! The live writer logs only events the engine's ingest gate admits, so a
//! logged event the gate refuses means the log was not written by this
//! program's writer: recovery fails with [`DurabilityError::Replay`] instead
//! of skipping it.

use crate::checkpoint;
use crate::vfs::VfsPath;
use crate::wal::{self, WalReader};
use crate::{program_fingerprint, DurabilityError};
use dbtoaster_agca::DeltaBatch;
use dbtoaster_runtime::Engine;

/// How [`recover`] rebuilt the engine it was handed.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Watermark of the checkpoint used (0 when recovery replayed the whole
    /// log from scratch).
    pub checkpoint_watermark: u64,
    /// Events replayed from the WAL on top of the checkpoint.
    pub replayed_events: u64,
    /// A torn final WAL record was dropped (normal after a crash).
    pub torn_tail_dropped: bool,
    /// Damaged checkpoint files that were skipped in favour of older ones.
    pub skipped_checkpoints: Vec<String>,
}

/// Does `dir` hold any durable state (checkpoints or WAL segments)?
pub(crate) fn has_state<'a>(dir: impl Into<VfsPath<'a>>) -> Result<bool, DurabilityError> {
    let dir = dir.into();
    Ok(!checkpoint::list_checkpoints(dir.clone())?.is_empty()
        || !wal::list_segments(dir)?.is_empty())
}

/// Restore the durable state in `dir` (a bare path, or a `(path, &vfs)` pair
/// for a non-default [`crate::Vfs`]) into `engine`, or return `Ok(None)`,
/// leaving `engine` untouched, when the directory holds none (a fresh start).
///
/// `engine` is the caller's engine for the directory's program, with its
/// static tables loaded and no event applied yet: an engine that has applied
/// events while the directory holds state would be a second history, and is
/// refused with [`DurabilityError::Config`]. Steps:
/// 1. load the newest checkpoint whose CRC verifies (older ones are fallbacks;
///    a program-fingerprint mismatch is a hard error — see
///    [`checkpoint::load_latest`]) and restore its maps via
///    [`Engine::restore`] — *without* re-running static-view initialization,
///    since the checkpoint already contains static tables and their derived
///    views;
/// 2. when no checkpoint verifies, keep the engine's own tables (tables never
///    travel through the WAL) and initialize its static views over them;
/// 3. replay every WAL record above the watermark through the normal
///    batch-trigger path (one record = one delta batch, exactly as the live
///    writer processed it), tolerating a torn tail and refusing mid-log
///    corruption, sequence gaps and events the ingest gate refuses.
///
/// On return, `engine.stats().events` equals `checkpoint_watermark +
/// replayed_events` and `stats().recovery_replayed_events` is set. On an
/// error other than the refusal, `engine` may hold a partial restore: drop
/// it.
///
/// This function only reads the directory. A live writer's checkpointer
/// prunes files, so take [`crate::acquire_dir_lock`] first; a durable
/// `ViewServer::spawn` recovers under the lock it then writes under.
pub fn recover<'a>(
    dir: impl Into<VfsPath<'a>>,
    engine: &mut Engine,
) -> Result<Option<Recovery>, DurabilityError> {
    let dir = dir.into();
    if !has_state(dir.clone())? {
        return Ok(None);
    }
    let applied = engine.stats().events;
    if applied > 0 {
        return Err(DurabilityError::Config(format!(
            "durability dir {} holds state, and this engine has already applied {applied} \
             events: serving it there would fork two histories (open the directory with a \
             fresh engine to resume its own)",
            dir.path.display()
        )));
    }
    let fingerprint = program_fingerprint(engine.program());
    let (ckpt, skipped_checkpoints) = checkpoint::load_latest(dir.clone(), fingerprint)?;
    let checkpoint_watermark = match ckpt {
        Some(c) => {
            engine.restore(c.maps, c.watermark);
            c.watermark
        }
        None => {
            // Every checkpoint was damaged (or none was ever written): replay
            // the full log on the caller's engine, whose loaded tables are
            // the state the first logged event saw.
            engine
                .init_static_views()
                .map_err(|err| DurabilityError::Replay(err.to_string()))?;
            0
        }
    };
    let reader = WalReader::open(dir, fingerprint)?;
    let mut delta = DeltaBatch::new();
    let stats = reader.replay_records(checkpoint_watermark + 1, &mut |first_seq, events| {
        // One WAL record = one live micro-batch: rebuild the same per-relation
        // delta batch the writer processed and drive it through the same
        // `process_batch` path, so the replayed engine takes identical batch
        // boundaries (and therefore identical bits) as the crashed server.
        let record_len = events.len();
        delta.refill(events);
        let report = engine.process_batch(&delta);
        match report.first_error {
            Some(e) => {
                let last_seq = first_seq + record_len.saturating_sub(1) as u64;
                Err(format!("events {first_seq}..={last_seq}: {e}"))
            }
            None => Ok(()),
        }
    })?;
    engine.stats_mut().recovery_replayed_events = stats.events_replayed;
    Ok(Some(Recovery {
        checkpoint_watermark,
        replayed_events: stats.events_replayed,
        torn_tail_dropped: stats.torn_tail_dropped,
        skipped_checkpoints,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use crate::FsyncPolicy;
    use dbtoaster_agca::{Expr, UpdateEvent};
    use dbtoaster_compiler::{
        compile, Catalog, CompileOptions, QuerySpec, RelationMeta, TriggerProgram,
    };
    use dbtoaster_gmr::Value;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbt-rec-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn catalog() -> Catalog {
        [RelationMeta::stream("R", ["A", "V"])]
            .into_iter()
            .collect()
    }

    fn program() -> TriggerProgram {
        let q = QuerySpec {
            name: "TOTAL".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
            ),
        };
        compile(&[q], &catalog(), &CompileOptions::default()).unwrap()
    }

    fn ev(v: i64) -> UpdateEvent {
        UpdateEvent::insert("R", vec![Value::long(v), Value::long(v)])
    }

    fn fresh() -> Engine {
        Engine::new(program(), &catalog())
    }

    fn total(e: &Engine) -> f64 {
        e.result("TOTAL").unwrap().scalar_value()
    }

    #[test]
    fn empty_dir_is_a_fresh_start() {
        let dir = tmp_dir("fresh");
        assert!(recover(&dir, &mut fresh()).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_plus_wal_tail_rebuilds_exactly() {
        let dir = tmp_dir("exact");
        let fp = program_fingerprint(&program());
        // Reference run: 6 events straight through an engine.
        let mut reference = fresh();
        let events: Vec<UpdateEvent> = (1..=6).map(ev).collect();
        let mut w = WalWriter::open(&dir, fp, 1, FsyncPolicy::EveryBatch, 1 << 20).unwrap();
        for (i, e) in events.iter().enumerate() {
            w.append(std::slice::from_ref(e)).unwrap();
            reference.process(e).unwrap();
            if i == 3 {
                // Checkpoint at watermark 4.
                let snap = reference.snapshot();
                checkpoint::write_checkpoint(
                    &dir,
                    fp,
                    4,
                    snap.iter().map(|(n, g)| (n.as_str(), g)),
                )
                .unwrap();
            }
        }
        w.batch_boundary().unwrap();
        drop(w);

        let mut engine = fresh();
        let rec = recover(&dir, &mut engine).unwrap().expect("state present");
        assert_eq!(rec.checkpoint_watermark, 4);
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(engine.stats().events, 6);
        assert_eq!(engine.stats().recovery_replayed_events, 2);
        assert_eq!(
            total(&engine).to_bits(),
            total(&reference).to_bits(),
            "recovered result must be bit-exact"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_only_state_recovers_intact() {
        // A crash between the initial checkpoint and WAL creation leaves a
        // checkpoint with no segments; the captured state (e.g. pre-loaded
        // tables) must come back, not a fresh empty engine.
        let dir = tmp_dir("ckptonly");
        let fp = program_fingerprint(&program());
        let mut engine = fresh();
        engine.process_all(&[ev(2), ev(5)]).unwrap();
        let snap = engine.snapshot();
        checkpoint::write_checkpoint(&dir, fp, 2, snap.iter().map(|(n, g)| (n.as_str(), g)))
            .unwrap();
        let mut engine = fresh();
        let rec = recover(&dir, &mut engine).unwrap().expect("state");
        assert_eq!(rec.checkpoint_watermark, 2);
        assert_eq!(rec.replayed_events, 0);
        assert_eq!(total(&engine), 7.0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The live writer never logs an event the gate refuses, so a log that
    /// holds one was written past the gate: recovery fails, naming the
    /// record, rather than skip the event and recover something no writer
    /// held.
    #[test]
    fn a_logged_event_the_gate_refuses_fails_recovery() {
        let dir = tmp_dir("refused");
        let fp = program_fingerprint(&program());
        let refused = [
            UpdateEvent::insert("R", vec![Value::long(1)]),
            UpdateEvent::insert("R", vec![Value::long(1), Value::str("x")]),
        ];
        for event in refused {
            let _ = fs::remove_dir_all(&dir);
            let mut w = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, 1 << 20).unwrap();
            w.append(&[ev(2)]).unwrap();
            w.append(&[ev(3), event, ev(4)]).unwrap();
            drop(w);
            let err = recover(&dir, &mut fresh()).expect_err("refused");
            let DurabilityError::Replay(m) = &err else {
                panic!("expected a replay error, got {err}");
            };
            assert!(m.starts_with("events 2..=4: event for R refused"), "{m}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_only_recovery_replays_from_scratch() {
        let dir = tmp_dir("walonly");
        let fp = program_fingerprint(&program());
        let mut w = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(2), ev(3)]).unwrap();
        drop(w);
        let mut engine = fresh();
        let rec = recover(&dir, &mut engine).unwrap().expect("state");
        assert_eq!(rec.checkpoint_watermark, 0);
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(total(&engine), 5.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_wal_below_checkpoint_still_recovers() {
        let dir = tmp_dir("pruned");
        let fp = program_fingerprint(&program());
        let mut engine = fresh();
        let mut w = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, 1).unwrap(); // rotate every record
        for i in 1..=3 {
            w.append(&[ev(i)]).unwrap();
            engine.process(&ev(i)).unwrap();
        }
        let snap = engine.snapshot();
        checkpoint::write_checkpoint(&dir, fp, 3, snap.iter().map(|(n, g)| (n.as_str(), g)))
            .unwrap();
        w.append(&[ev(4)]).unwrap();
        drop(w);
        wal::prune_segments(&dir, 3).unwrap();
        let mut engine = fresh();
        let rec = recover(&dir, &mut engine).unwrap().expect("state");
        assert_eq!(rec.checkpoint_watermark, 3);
        assert_eq!(rec.replayed_events, 1);
        assert_eq!(total(&engine), 10.0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// An engine that has applied events is a history of its own: recovering
    /// a directory's state into it would merge two histories, so recovery
    /// refuses it and leaves it as it was.
    #[test]
    fn an_engine_that_applied_events_is_refused() {
        let dir = tmp_dir("twohist");
        let fp = program_fingerprint(&program());
        let mut w = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(2)]).unwrap();
        drop(w);
        let mut engine = fresh();
        engine.process(&ev(5)).unwrap();
        let err = recover(&dir, &mut engine).expect_err("refused");
        assert!(matches!(err, DurabilityError::Config(_)), "{err}");
        assert_eq!(engine.stats().events, 1);
        assert_eq!(total(&engine), 5.0);
        let _ = fs::remove_dir_all(&dir);
    }
}
