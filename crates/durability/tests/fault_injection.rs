//! Targeted fault-injection regressions against the [`FaultVfs`].
//!
//! The headline invariant (ISSUE 9 satellite): **ENOSPC in the middle of a
//! checkpoint write must leave the durability directory exactly as it found
//! it** — no stray `.tmp` file, the previous checkpoint still loadable, and
//! WAL pruning never keyed on the watermark the failed checkpoint would have
//! established. The random torture harness (`harness torture`) covers broad
//! schedules; these tests pin the specific contracts with scripted faults.

use dbtoaster_agca::UpdateEvent;
use dbtoaster_durability::vfs::{EIO, ENOSPC};
use dbtoaster_durability::{
    checkpoint, wal, FaultConfig, FaultVfs, FsyncPolicy, Vfs, WalReader, WalWriter,
};
use dbtoaster_gmr::{Gmr, Value};
use std::path::PathBuf;
use std::sync::Arc;

const FP: u64 = 0xFEED_FACE_CAFE_BEEF;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbt-faultinj-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A quiet injector: no probabilistic faults, no power cut — faults are
/// scripted explicitly via `fail_writes_with` / `heal`.
fn quiet_fault() -> (Arc<FaultVfs>, Arc<dyn Vfs>) {
    let fault = Arc::new(FaultVfs::new(FaultConfig {
        seed: 7,
        fail_prob_ppm: 0,
        enospc_prob_ppm: 0,
        short_write_prob_ppm: 0,
        cut_at_op: None,
    }));
    let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
    (fault, vfs)
}

fn events(n: usize, base: i64) -> Vec<UpdateEvent> {
    (0..n)
        .map(|i| UpdateEvent::insert("R", vec![Value::long(base + i as i64), Value::long(1)]))
        .collect()
}

fn tmp_files(dir: &PathBuf) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .collect()
}

#[test]
fn enospc_during_checkpoint_is_invisible() {
    let dir = temp_dir("enospc");
    let (fault, vfs) = quiet_fault();

    // A healthy baseline: one checkpoint at watermark 10 and a WAL carrying
    // events 11.. across several small segments (rotate early and often).
    let map = Gmr::scalar(42.0);
    checkpoint::write_checkpoint((&dir, &vfs), FP, 10, [("TOTAL", &map)]).unwrap();
    let mut w = WalWriter::open((&dir, &vfs), FP, 11, FsyncPolicy::EveryBatch, 64).unwrap();
    for chunk in events(40, 11).chunks(5) {
        w.append(chunk).unwrap();
        w.batch_boundary().unwrap();
    }
    drop(w);
    let segments_before = wal::list_segments(&dir).unwrap();
    assert!(
        segments_before.len() > 1,
        "test needs several segments to make pruning observable"
    );

    // Disk full mid-checkpoint: the write at watermark 50 must fail loudly...
    fault.fail_writes_with(ENOSPC);
    let big = Gmr::scalar(51.0);
    let err = checkpoint::write_checkpoint((&dir, &vfs), FP, 50, [("TOTAL", &big)])
        .expect_err("checkpoint under ENOSPC must fail");
    assert!(err.is_transient(), "ENOSPC must classify transient: {err}");
    fault.heal();

    // ...and leave no trace: no stray .tmp,
    assert!(
        tmp_files(&dir).is_empty(),
        "a failed checkpoint left a stray .tmp behind"
    );

    // the previous checkpoint still the loadable latest,
    let (latest, skipped) = checkpoint::load_latest(&dir, FP).unwrap();
    let latest = latest.expect("previous checkpoint must survive the failure");
    assert_eq!(latest.watermark, 10);
    assert_eq!(latest.maps.len(), 1);
    assert_eq!(latest.maps[0].1.scalar_value().to_bits(), 42f64.to_bits());
    assert!(skipped.is_empty(), "no checkpoint should need skipping");

    // and retention still keyed on watermark 10 — never on the failed 50:
    // every WAL segment the surviving checkpoint needs is still there.
    let keyed = checkpoint::retain_and_prune_wal(&dir, 1, FP).unwrap();
    assert_eq!(keyed, 10, "pruning keyed on a checkpoint that never landed");
    let reader = WalReader::open(&dir, FP).unwrap();
    let mut replayed = 0u64;
    reader
        .replay(11, &mut |_seq, _ev| {
            replayed += 1;
            Ok(())
        })
        .unwrap();
    assert_eq!(replayed, 40, "WAL events above the watermark were pruned");

    // The directory stays fully usable once space returns.
    checkpoint::write_checkpoint((&dir, &vfs), FP, 50, [("TOTAL", &big)]).unwrap();
    let (latest, _) = checkpoint::load_latest(&dir, FP).unwrap();
    assert_eq!(latest.unwrap().watermark, 50);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_append_truncates_and_resumes_cleanly() {
    let dir = temp_dir("append-retry");
    let (fault, vfs) = quiet_fault();

    let mut w = WalWriter::open((&dir, &vfs), FP, 1, FsyncPolicy::EveryBatch, 1 << 20).unwrap();
    w.append(&events(5, 1)).unwrap();
    w.batch_boundary().unwrap();

    // EIO mid-append may leave a partial frame on disk; the retry contract is
    // truncate-to-boundary first, then append again once the fault clears.
    fault.fail_writes_with(EIO);
    let err = w
        .append(&events(5, 6))
        .expect_err("append under EIO must fail");
    assert!(err.is_transient(), "EIO must classify transient: {err}");
    fault.heal();
    w.truncate_to_boundary().unwrap();
    w.append(&events(5, 6)).unwrap();
    w.batch_boundary().unwrap();
    drop(w);

    // The log replays both records with no gap, duplicate, or torn garbage.
    let reader = WalReader::open(&dir, FP).unwrap();
    let (records, torn) = reader.records().unwrap();
    assert!(!torn, "truncate_to_boundary left a torn tail");
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].first_seq, 1);
    assert_eq!(records[1].first_seq, 6);
    assert_eq!(
        records.iter().map(|r| r.events.len()).sum::<usize>(),
        10,
        "replay must see exactly the ten appended events"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
