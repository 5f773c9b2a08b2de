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
use dbtoaster_compiler::{Catalog, TriggerProgram};
use dbtoaster_runtime::Engine;

/// The result of [`recover`]: a warm engine plus provenance of how it was
/// rebuilt.
pub struct Recovery {
    /// Engine with every view restored; `stats().events` equals
    /// `checkpoint_watermark + replayed_events` and
    /// `stats().recovery_replayed_events` is set.
    pub engine: Engine,
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
pub fn has_state<'a>(dir: impl Into<VfsPath<'a>>) -> Result<bool, DurabilityError> {
    let dir = dir.into();
    Ok(!checkpoint::list_checkpoints(dir.clone())?.is_empty()
        || !wal::list_segments(dir)?.is_empty())
}

/// Rebuild an engine from the durable state in `dir` (a bare path, or a
/// `(path, &vfs)` pair for a non-default [`crate::Vfs`]), or return
/// `Ok(None)` when the directory holds none (a fresh start).
///
/// Steps:
/// 1. load the newest checkpoint whose CRC verifies (older ones are fallbacks;
///    a program-fingerprint mismatch is a hard error — see
///    [`checkpoint::load_latest`]),
/// 2. restore the maps into an engine via [`Engine::from_snapshot`] — *without*
///    re-running static-view initialization, since the checkpoint already
///    contains static tables and their derived views,
/// 3. replay every WAL record above the watermark through the normal
///    batch-trigger path (one record = one delta batch, exactly as the live
///    writer processed it), tolerating a torn tail and refusing mid-log
///    corruption, sequence gaps and events the ingest gate refuses.
///
/// This function only reads. If a live writer might hold the directory (e.g.
/// a racing restart), take [`crate::acquire_dir_lock`] first so its
/// checkpointer cannot prune files mid-scan — the facade's `open_or_create`
/// does exactly that.
pub fn recover<'a>(
    dir: impl Into<VfsPath<'a>>,
    program: TriggerProgram,
    catalog: &Catalog,
) -> Result<Option<Recovery>, DurabilityError> {
    let dir = dir.into();
    let fingerprint = program_fingerprint(&program);
    if !has_state(dir.clone())? {
        return Ok(None);
    }
    let (ckpt, skipped_checkpoints) = checkpoint::load_latest(dir.clone(), fingerprint)?;
    let (checkpoint_watermark, mut engine) = match ckpt {
        Some(c) => {
            let w = c.watermark;
            (w, Engine::from_snapshot(program, catalog, c.maps, w))
        }
        None => {
            // Every checkpoint was damaged (or none was ever written): replay
            // the full log against a fresh engine. Static views derive from
            // tables, which only travel in checkpoints — with none usable the
            // static initialization runs over whatever the catalog declares.
            let mut e = Engine::new(program, catalog);
            e.init_static_views()
                .map_err(|err| DurabilityError::Replay(err.to_string()))?;
            (0, e)
        }
    };
    let reader = WalReader::open(dir, fingerprint)?;
    let mut delta = DeltaBatch::new();
    let stats = reader.replay_records(checkpoint_watermark + 1, &mut |first_seq, events| {
        // One WAL record = one live micro-batch: rebuild the same per-relation
        // delta batch the writer processed and drive it through the same
        // `process_batch` path, so the replayed engine takes identical batch
        // boundaries (and therefore identical bits) as the crashed server.
        delta.clear();
        let record_len = events.len();
        for ev in events {
            delta.push_owned(ev);
        }
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
        engine,
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
    use dbtoaster_compiler::{compile, CompileOptions, QuerySpec, RelationMeta};
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

    #[test]
    fn empty_dir_is_a_fresh_start() {
        let dir = tmp_dir("fresh");
        assert!(recover(&dir, program(), &catalog()).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_plus_wal_tail_rebuilds_exactly() {
        let dir = tmp_dir("exact");
        let prog = program();
        let fp = program_fingerprint(&prog);
        // Reference run: 6 events straight through an engine.
        let mut reference = Engine::new(prog.clone(), &catalog());
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

        let rec = recover(&dir, prog, &catalog())
            .unwrap()
            .expect("state present");
        assert_eq!(rec.checkpoint_watermark, 4);
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(rec.engine.stats().events, 6);
        assert_eq!(rec.engine.stats().recovery_replayed_events, 2);
        let total = |e: &Engine| e.result("TOTAL").unwrap().scalar_value();
        assert_eq!(
            total(&rec.engine).to_bits(),
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
        let prog = program();
        let fp = program_fingerprint(&prog);
        let mut engine = Engine::new(prog.clone(), &catalog());
        engine.process_all(&[ev(2), ev(5)]).unwrap();
        let snap = engine.snapshot();
        checkpoint::write_checkpoint(&dir, fp, 2, snap.iter().map(|(n, g)| (n.as_str(), g)))
            .unwrap();
        let rec = recover(&dir, prog, &catalog()).unwrap().expect("state");
        assert_eq!(rec.checkpoint_watermark, 2);
        assert_eq!(rec.replayed_events, 0);
        assert_eq!(rec.engine.result("TOTAL").unwrap().scalar_value(), 7.0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The live writer never logs an event the gate refuses, so a log that
    /// holds one was written past the gate: recovery fails, naming the
    /// record, rather than skip the event and recover something no writer
    /// held.
    #[test]
    fn a_logged_event_the_gate_refuses_fails_recovery() {
        let dir = tmp_dir("refused");
        let prog = program();
        let fp = program_fingerprint(&prog);
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
            let err = recover(&dir, prog.clone(), &catalog())
                .err()
                .expect("refused");
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
        let prog = program();
        let fp = program_fingerprint(&prog);
        let mut w = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        w.append(&[ev(2), ev(3)]).unwrap();
        drop(w);
        let rec = recover(&dir, prog, &catalog()).unwrap().expect("state");
        assert_eq!(rec.checkpoint_watermark, 0);
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(rec.engine.result("TOTAL").unwrap().scalar_value(), 5.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_wal_below_checkpoint_still_recovers() {
        let dir = tmp_dir("pruned");
        let prog = program();
        let fp = program_fingerprint(&prog);
        let mut engine = Engine::new(prog.clone(), &catalog());
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
        let rec = recover(&dir, prog, &catalog()).unwrap().expect("state");
        assert_eq!(rec.checkpoint_watermark, 3);
        assert_eq!(rec.replayed_events, 1);
        assert_eq!(rec.engine.result("TOTAL").unwrap().scalar_value(), 10.0);
        let _ = fs::remove_dir_all(&dir);
    }
}
