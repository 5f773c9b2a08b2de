//! Where a served durable server fsyncs its write-ahead log, counted on the
//! segment files themselves. The per-batch sync is the policy's one decision
//! (`WalWriter::batch_boundary`): under `EveryBatch` each logged batch costs
//! exactly one fsync and a `flush()` adds none; under `Never` no batch syncs,
//! and only a `flush()`, a rotation and a clean shutdown do.
//!
//! Under `EveryBatch` the batch's fsync runs on the WAL's sync thread while
//! the batch's kernels do, and nothing observes the batch before it returns:
//! no snapshot, no cold read, no `flush()` ack. A failed one is never retried
//! on its segment; the batch's snapshot is marked degraded until a re-arm.

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::{compile, Catalog, CompileOptions, QuerySpec, RelationMeta};
use dbtoaster_durability::{DurabilityConfig, FsyncPolicy, RetryPolicy, StdVfs, Vfs, VfsFile};
use dbtoaster_gmr::{FastMap, Gmr, Value};
use dbtoaster_runtime::Engine;
use dbtoaster_server::{ServerConfig, ViewServer};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// What the segment files' `sync_data` calls saw, and what the next one does.
#[derive(Debug, Default)]
struct SyncLog {
    state: Mutex<SyncState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct SyncState {
    /// `sync_data` calls per segment file.
    per_segment: HashMap<PathBuf, u64>,
    /// Hold every segment sync until released.
    hold: bool,
    /// The thread of the sync being held, once one is.
    held_on: Option<String>,
    /// Fail the next segment sync with `EIO`.
    fail_next: bool,
}

impl SyncLog {
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap()
    }

    fn total(&self) -> u64 {
        self.lock().per_segment.values().sum()
    }

    fn on(&self, segment: &Path) -> u64 {
        self.lock().per_segment.get(segment).copied().unwrap_or(0)
    }

    /// Wait until a held sync is waiting for its release; returns its thread.
    fn held_on(&self) -> String {
        let mut s = self.lock();
        while s.held_on.is_none() {
            s = self.changed.wait(s).unwrap();
        }
        s.held_on.clone().unwrap()
    }

    fn release(&self) {
        self.lock().hold = false;
        self.changed.notify_all();
    }
}

/// [`StdVfs`] whose WAL segment files (`wal-*.seg`) report their
/// `sync_data` calls to a [`SyncLog`] and obey it.
#[derive(Debug)]
struct SegmentSyncs(Arc<SyncLog>);

struct CountedFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    log: Arc<SyncLog>,
}

impl VfsFile for CountedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let mut s = self.log.lock();
        *s.per_segment.entry(self.path.clone()).or_default() += 1;
        if std::mem::take(&mut s.fail_next) {
            return Err(io::Error::from_raw_os_error(5)); // EIO
        }
        if s.hold {
            s.held_on = thread::current().name().map(str::to_string);
            self.log.changed.notify_all();
            while s.hold {
                s = self.log.changed.wait(s).unwrap();
            }
        }
        drop(s);
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.inner.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl SegmentSyncs {
    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("wal-") && name.ends_with(".seg")) {
            return file;
        }
        Box::new(CountedFile {
            inner: file,
            path: path.to_path_buf(),
            log: self.0.clone(),
        })
    }
}
impl Vfs for SegmentSyncs {
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
        Ok(self.wrap(path, StdVfs.open_append(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.create(path)?))
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

fn program() -> (dbtoaster_compiler::TriggerProgram, Catalog) {
    let catalog: Catalog = [RelationMeta::stream("R", ["A", "V"])]
        .into_iter()
        .collect();
    let q = QuerySpec {
        name: "TOTAL".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    let program = compile(&[q], &catalog, &CompileOptions::default()).unwrap();
    (program, catalog)
}

/// The durable config of the server [`durable`] opens in `dir`.
fn config(dir: &Path, policy: FsyncPolicy, segment_bytes: u64, log: &Arc<SyncLog>) -> ServerConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = policy;
    d.segment_bytes = segment_bytes;
    // Re-arms wait a second: long enough that no re-arm lands before a test
    // has looked at the degraded state.
    d.retry = RetryPolicy {
        initial_backoff: Duration::from_secs(1),
        ..RetryPolicy::default()
    };
    d.vfs = Arc::new(SegmentSyncs(log.clone()));
    ServerConfig {
        durability: Some(d),
        // Publish after every batch: a batch that could be observed before
        // its sync returns would be, in its own writer iteration.
        publish_interval: Duration::ZERO,
        ..ServerConfig::default()
    }
}

/// A durable server on a fresh directory named for `test` under `policy`,
/// rotating segments at `segment_bytes`, and the log of its segment syncs.
fn durable(
    test: &str,
    policy: FsyncPolicy,
    segment_bytes: u64,
) -> (ViewServer, Arc<SyncLog>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dbt-sync-points-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = Arc::new(SyncLog::default());
    let (program, catalog) = program();
    let engine = Engine::new(program, &catalog);
    let server =
        ViewServer::spawn(engine, vec![], config(&dir, policy, segment_bytes, &log)).unwrap();
    (server, log, dir)
}

fn batch(base: i64) -> impl Iterator<Item = UpdateEvent> {
    (base..base + 3).map(|k| {
        let row = vec![Value::long(k), Value::long(k % 5)];
        UpdateEvent::insert("R", row)
    })
}

/// Send a few events as one batch and wait, without a barrier, until the
/// writer has logged and applied them: a cold read is answered after the
/// batch drained ahead of it, and never syncs.
fn send_one_batch(server: &ViewServer, base: i64) {
    assert_eq!(server.handle().send_batch(batch(base)).unwrap(), 3);
    server.all_maps().unwrap();
}

/// Every map's entries with their multiplicities' bits, in key order.
fn bits(maps: &FastMap<String, Gmr>) -> BTreeMap<String, BTreeMap<String, u64>> {
    maps.iter()
        .map(|(name, gmr)| {
            let entries = gmr.iter().map(|(t, m)| (format!("{t:?}"), m.to_bits()));
            (name.clone(), entries.collect())
        })
        .collect()
}

fn counter(server: &ViewServer, name: &str) -> u64 {
    let metrics = server.metrics();
    metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn every_batch_syncs_once_per_logged_batch_and_a_flush_adds_none() {
    let (server, log, dir) = durable("every", FsyncPolicy::EveryBatch, 16 << 20);
    let opened = log.total();
    assert_eq!(opened, 1, "open syncs the new segment's header");
    for i in 0..20 {
        send_one_batch(&server, 3 * i);
    }
    let batches = server.stats().batches;
    assert_eq!(batches, 20);
    assert_eq!(log.total() - opened, batches, "one fsync per batch");
    server.flush().unwrap();
    server.flush().unwrap();
    assert_eq!(log.total() - opened, batches, "a flush adds none");
    drop(server);
    assert_eq!(
        log.total() - opened,
        batches,
        "a clean shutdown has nothing left to sync"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn never_syncs_only_at_flush_rotation_and_clean_shutdown() {
    // One byte: every append but a segment's first rotates.
    let (server, log, dir) = durable("never", FsyncPolicy::Never, 1);
    let synced = |want: u64, at: &str| assert_eq!(log.total(), want, "{at}");
    synced(0, "open");
    send_one_batch(&server, 0);
    synced(0, "a batch");
    server.flush().unwrap();
    synced(1, "a flush");
    server.flush().unwrap();
    synced(1, "a flush with nothing pending");
    send_one_batch(&server, 3);
    synced(1, "a batch rotating away from a synced segment");
    send_one_batch(&server, 6);
    synced(2, "a batch rotating away from an unsynced segment");
    assert_eq!(server.stats().batches, 3);
    drop(server);
    synced(3, "a clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// While a batch's sync is held on the sync thread, nothing observes the
/// batch: a `flush()` does not return, the served snapshot does not cover
/// it and a cold read does not answer. Releasing the sync lets all three
/// through.
#[test]
fn nothing_observes_a_batch_before_its_sync_returns() {
    let (server, log, dir) = durable("held", FsyncPolicy::EveryBatch, 16 << 20);
    send_one_batch(&server, 0);
    let before = server.current_snapshot().events_applied();
    assert_eq!(before, 3);
    log.lock().hold = true;
    assert_eq!(server.handle().send_batch(batch(3)).unwrap(), 3);
    let held_on = log.held_on();
    // Look first, release, then assert: a failed assertion must not leave
    // the writer stuck behind the held sync.
    thread::scope(|s| {
        let flushed = s.spawn(|| server.flush().unwrap());
        let read = s.spawn(|| server.all_maps().unwrap());
        // The sync is held, so nothing here can finish: the pause only gives
        // a wrong order the time to show.
        thread::sleep(Duration::from_millis(100));
        let flush_returned = flushed.is_finished();
        let read_answered = read.is_finished();
        let applied = server.current_snapshot().events_applied();
        log.release();
        flushed.join().unwrap();
        let maps = read.join().unwrap();
        assert_ne!(
            held_on, "dbtoaster-writer",
            "the batch synced on the writer"
        );
        assert!(!flush_returned, "a flush returned before the sync");
        assert!(!read_answered, "a cold read answered before the sync");
        assert_eq!(
            applied, before,
            "a snapshot covered the batch before its sync"
        );
        let total = maps["TOTAL"].iter().map(|(_, m)| m).sum::<f64>();
        assert_eq!(total, (0..6).map(|k| (k % 5) as f64).sum::<f64>());
    });
    assert_eq!(server.current_snapshot().events_applied(), 6);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch whose sync fails with `EIO` is served degraded, counts one
/// transient error, and its segment sees no second sync until the re-arm
/// abandons it (fsyncgate). After the re-arm the log is whole again: a
/// killed server reopens to the views it served.
#[test]
fn a_failed_batch_sync_is_served_degraded_and_never_retried_before_the_rearm() {
    let (server, log, dir) = durable("failed", FsyncPolicy::EveryBatch, 16 << 20);
    send_one_batch(&server, 0);
    let segments = dbtoaster_durability::wal::list_segments(&dir).unwrap();
    let [(_, segment)] = &segments[..] else {
        panic!("one segment expected, found {segments:?}");
    };
    let synced = log.on(segment);
    let transient = counter(&server, "io_errors_transient");
    log.lock().fail_next = true;
    assert_eq!(server.handle().send_batch(batch(3)).unwrap(), 3);
    server.flush().unwrap();
    let first = server.current_snapshot();
    assert_eq!(first.events_applied(), 6);
    assert!(first.degraded(), "the first snapshot covering the batch");
    assert_eq!(counter(&server, "io_errors_transient") - transient, 1);
    // Degraded batches apply from memory and never touch the segment.
    send_one_batch(&server, 6);
    server.flush().unwrap();
    assert_eq!(
        log.on(segment),
        synced + 1,
        "a second sync before the re-arm"
    );
    // The next writer iteration past the backoff re-arms on a fresh segment.
    thread::sleep(Duration::from_millis(1_100));
    send_one_batch(&server, 9);
    server.flush().unwrap();
    let rearmed = server.current_snapshot();
    assert!(!rearmed.degraded(), "re-armed");
    assert_eq!(rearmed.events_applied(), 12);
    let segments = dbtoaster_durability::wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 2, "the re-arm's fresh segment");

    let live = bits(&server.all_maps().unwrap());
    server.flush().unwrap();
    server.kill();
    // A fresh engine spawned on the directory recovers it.
    let (program, catalog) = program();
    let reopened = ViewServer::spawn(
        Engine::new(program, &catalog),
        vec![],
        config(&dir, FsyncPolicy::EveryBatch, 16 << 20, &log),
    )
    .unwrap();
    assert_eq!(reopened.stats().events, 12);
    assert_eq!(bits(&reopened.all_maps().unwrap()), live);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
