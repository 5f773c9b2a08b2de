//! Where a served durable server fsyncs its write-ahead log, counted on the
//! segment files themselves. The per-batch sync is the policy's one decision
//! (`WalWriter::batch_boundary`): under `EveryBatch` each logged batch costs
//! exactly one fsync and a `flush()` adds none; under `Never` no batch syncs,
//! and only a `flush()`, a rotation and a clean shutdown do.

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::{compile, Catalog, CompileOptions, QuerySpec, RelationMeta};
use dbtoaster_durability::{DurabilityConfig, FsyncPolicy, StdVfs, Vfs, VfsFile};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::Engine;
use dbtoaster_server::{ServerConfig, ViewServer};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// [`StdVfs`] that counts `sync_data` calls on WAL segment files
/// (`wal-*.seg`) and nothing else.
#[derive(Debug)]
struct SegmentSyncs(Arc<AtomicU64>);

struct CountedFile {
    inner: Box<dyn VfsFile>,
    syncs: Arc<AtomicU64>,
}

impl VfsFile for CountedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.syncs.fetch_add(1, SeqCst);
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
            syncs: self.0.clone(),
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

fn engine() -> Engine {
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
    Engine::new(program, &catalog)
}

/// A durable server on a fresh directory under `policy`, rotating segments
/// at `segment_bytes`, and its segment-sync counter.
fn durable(policy: FsyncPolicy, segment_bytes: u64) -> (ViewServer, Arc<AtomicU64>, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "dbt-sync-points-{:?}-{}",
        policy,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let syncs = Arc::new(AtomicU64::new(0));
    let mut d = DurabilityConfig::new(&dir);
    d.fsync = policy;
    d.segment_bytes = segment_bytes;
    d.vfs = Arc::new(SegmentSyncs(syncs.clone()));
    let config = ServerConfig {
        durability: Some(d),
        ..ServerConfig::default()
    };
    let server = ViewServer::spawn(engine(), vec![], config).unwrap();
    (server, syncs, dir)
}

/// Send a few events as one batch and wait, without a barrier, until the
/// writer has logged and applied them: a cold read is answered after the
/// batch drained ahead of it, and never syncs.
fn send_one_batch(server: &ViewServer, base: i64) {
    let events = (base..base + 3).map(|k| {
        let row = vec![Value::long(k), Value::long(k % 5)];
        UpdateEvent::insert("R", row)
    });
    assert_eq!(server.handle().send_batch(events).unwrap(), 3);
    server.all_maps().unwrap();
}

#[test]
fn every_batch_syncs_once_per_logged_batch_and_a_flush_adds_none() {
    let (server, syncs, dir) = durable(FsyncPolicy::EveryBatch, 16 << 20);
    let opened = syncs.load(SeqCst);
    assert_eq!(opened, 1, "open syncs the new segment's header");
    for i in 0..20 {
        send_one_batch(&server, 3 * i);
    }
    let batches = server.stats().batches;
    assert_eq!(batches, 20);
    assert_eq!(syncs.load(SeqCst) - opened, batches, "one fsync per batch");
    server.flush().unwrap();
    server.flush().unwrap();
    assert_eq!(syncs.load(SeqCst) - opened, batches, "a flush adds none");
    drop(server);
    assert_eq!(
        syncs.load(SeqCst) - opened,
        batches,
        "a clean shutdown has nothing left to sync"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn never_syncs_only_at_flush_rotation_and_clean_shutdown() {
    // One byte: every append but a segment's first rotates.
    let (server, syncs, dir) = durable(FsyncPolicy::Never, 1);
    let synced = |want: u64, at: &str| assert_eq!(syncs.load(SeqCst), want, "{at}");
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
