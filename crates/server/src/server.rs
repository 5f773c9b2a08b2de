//! The view server: single-writer ingest, epoch-published snapshots, and
//! output-delta subscriptions.
//!
//! ## Architecture
//!
//! ```text
//!  IngestHandle ──┐                       ┌──> ReaderHandle::snapshot()  (wait-free)
//!  IngestHandle ──┤  bounded MPSC queue   │
//!  IngestHandle ──┴──> [writer thread] ───┤──> ReaderHandle::query(name)
//!                      drains micro-      │
//!                      batches, applies   └──> Subscription::recv()
//!                      deltas, publishes       (per-batch output deltas)
//!                      snapshots
//! ```
//!
//! One writer thread owns the [`Engine`] and is the only mutator. Producers push
//! [`UpdateEvent`]s through a bounded channel ([`IngestHandle::send`] applies
//! backpressure when the queue is full). The writer drains up to
//! [`ServerConfig::max_batch`] queued events at a time, fires the compiled
//! triggers for each, and then **publishes**: it takes a snapshot (O(#views)
//! plus the keys written since the last two — each written view patches the
//! buffer it handed out two publishes ago, which the writer and the
//! [`EpochCell`] have dropped by then unless a reader pinned it; a pinned
//! buffer costs that view one full copy), computes per-query
//! output deltas from the engine's changed-key log, swaps the snapshot into an
//! [`EpochCell`], and fans the deltas out to subscribers.
//!
//! ## Consistency guarantee
//!
//! A [`Snapshot`] is immutable and **batch-atomic**: it reflects all statements
//! of every event up to and including the last event of some micro-batch, and
//! nothing of any later event. Readers can therefore evaluate cross-view
//! invariants (e.g. `SUM(value_view) == events_applied`) on any snapshot and
//! they hold exactly; a torn view is impossible by construction because the
//! writer only publishes between batches. Snapshot acquisition is wait-free and
//! never blocks the writer (see [`crate::swap`] for the reclamation protocol).
//!
//! Subscriptions see the same batch boundaries: each [`OutputDeltaBatch`] carries the
//! epoch of the snapshot it produced, and replaying batches `1..=e` on top of
//! the subscription's baseline snapshot reconstructs the epoch-`e` view state
//! bit-exactly (new multiplicities are copied verbatim from the view, not
//! re-derived).

use crate::http::{HttpConfig, HttpExporter};
use crate::results::{assemble_result, ResultRow, ResultTable};
use crate::swap::EpochCell;
use dbtoaster_agca::eval::{eval_with, matches_pattern, Bindings, EvalError, RelationSource};
use dbtoaster_agca::UpdateEvent;
use dbtoaster_compiler::{ProgramExplain, ResultAccess, TriggerProgram, ViewStats};
use dbtoaster_durability::{
    checkpoint, program_fingerprint, DurabilityConfig, DurabilityError, RetryPolicy, Vfs, WalWriter,
};
use dbtoaster_gmr::{FastMap, Gmr, Tuple, Value};
use dbtoaster_runtime::{ChangeSet, Engine, EngineStats, RuntimeError};
use dbtoaster_sql::OutputColumn;
use dbtoaster_telemetry::{
    Counter, MetricsSnapshot, SlowBatchTrace, Stage, Telemetry, TelemetryConfig,
};
use std::fmt;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError as MpscTrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Sizing knobs for a [`ViewServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Capacity (in messages) of the bounded ingest queue;
    /// [`IngestHandle::send`] blocks (backpressure) when it is full.
    pub queue_capacity: usize,
    /// Maximum events drained into one micro-batch, and the event count that
    /// forces a publish regardless of [`ServerConfig::publish_interval`].
    pub max_batch: usize,
    /// Coalescing window: under sustained load the writer publishes a fresh
    /// snapshot at least this often rather than after every drained batch,
    /// amortizing the per-publish cost (the name table, and a patch or copy
    /// per written view). Zero publishes after
    /// every batch. Barriers ([`ViewServer::flush`]) always force a publish,
    /// so staleness is bounded by this interval.
    pub publish_interval: Duration,
    /// When set, the writer appends every drained micro-batch to a write-ahead
    /// log **before** applying it and checkpoints the materialized state off
    /// the hot path; a crashed or killed server then reopens warm through
    /// `dbtoaster_durability::recover` (or `QueryEngineBuilder::open_or_create`).
    pub durability: Option<DurabilityConfig>,
    /// Telemetry knobs (slow-batch threshold, trace ring capacity). The server
    /// always runs with telemetry enabled — stage timings and per-view counters
    /// are how [`ViewServer::metrics`] and [`ViewServer::render_prometheus`]
    /// see inside the writer thread. If the engine already carries an enabled
    /// [`Telemetry`] handle (attached before `spawn`), that handle is reused
    /// and this config is ignored.
    pub telemetry: TelemetryConfig,
    /// When set, [`ViewServer::spawn`] starts the std-only HTTP exporter on
    /// the configured address, serving `/metrics`, `/healthz`, `/views`,
    /// `/explain` and `/traces` from a dedicated listener thread (see
    /// [`HttpConfig`]). The exporter only reads shared state — a stuck or
    /// slow scraper can never block the writer.
    pub http: Option<HttpConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 8192,
            max_batch: 512,
            publish_interval: Duration::from_millis(1),
            durability: None,
            telemetry: TelemetryConfig::default(),
            http: None,
        }
    }
}

/// Errors surfaced by the serving layer.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The named query is not served.
    UnknownQuery(String),
    /// A view referenced by a query plan is missing from the snapshot.
    UnknownView(String),
    /// The query exists but its output is spread over several maintained views
    /// (multiple aggregates, or `AVG` as SUM/COUNT); subscribe to one of the
    /// listed views instead.
    MultiViewOutput {
        /// The query that was asked for.
        query: String,
        /// The individually subscribable backing views.
        views: Vec<String>,
    },
    /// The server's writer thread has shut down.
    Closed,
    /// A runtime error recorded by the writer thread.
    Runtime(RuntimeError),
    /// Evaluating a computed result against a snapshot failed.
    Eval(EvalError),
    /// The durability layer failed (WAL open/append or checkpoint write).
    Durability(DurabilityError),
    /// The HTTP exporter could not bind or start its listener thread.
    Http(String),
    /// A background thread (writer or checkpointer) could not be spawned —
    /// typically resource exhaustion (EAGAIN). The server never starts
    /// half-assembled: a spawn failure is returned from [`ViewServer::spawn`]
    /// instead of panicking the caller.
    Spawn(String),
    /// The requested configuration is not supported by this serving mode
    /// (e.g. durability or a single HTTP exporter under sharded serving).
    Unsupported(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownQuery(q) => write!(f, "unknown query {q}"),
            ServeError::UnknownView(v) => write!(f, "unknown view {v}"),
            ServeError::MultiViewOutput { query, views } => write!(
                f,
                "query {query} is backed by several views; subscribe to one of: {}",
                views.join(", ")
            ),
            ServeError::Closed => write!(f, "view server is shut down"),
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
            ServeError::Eval(e) => write!(f, "evaluation error: {e}"),
            ServeError::Durability(e) => write!(f, "durability error: {e}"),
            ServeError::Http(e) => write!(f, "http exporter error: {e}"),
            ServeError::Spawn(e) => write!(f, "thread spawn error: {e}"),
            ServeError::Unsupported(e) => write!(f, "unsupported configuration: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DurabilityError> for ServeError {
    fn from(e: DurabilityError) -> Self {
        ServeError::Durability(e)
    }
}

/// An immutable, batch-atomic snapshot of every maintained view.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    events_applied: u64,
    degraded: bool,
    views: FastMap<String, Gmr>,
}

impl Snapshot {
    /// The publish epoch (0 = initial state, +1 per published batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total events applied by the writer when this snapshot was taken.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// `true` while the server is operating degraded: either the writer hit a
    /// runtime error (a failing event may be *partially* applied — there is no
    /// statement rollback — so cross-view invariants are no longer guaranteed
    /// from that point on), or the WAL is currently suspended after an I/O
    /// failure (events are applied in memory while the writer retries and
    /// re-arms; see `/healthz`'s `"degraded"` status). Runtime-error
    /// degradation is sticky; durability degradation clears once a re-arm
    /// restores the log. The first runtime error is available through
    /// `ViewServer::last_error`.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// A maintained view (or stored relation) by name.
    pub fn view(&self, name: &str) -> Option<&Gmr> {
        self.views.get(name)
    }

    /// Assemble a snapshot from already-merged views (the sharded serving
    /// layer's read path; plain servers only receive writer-published
    /// snapshots).
    pub(crate) fn assemble(
        epoch: u64,
        events_applied: u64,
        degraded: bool,
        views: FastMap<String, Gmr>,
    ) -> Snapshot {
        Snapshot {
            epoch,
            events_applied,
            degraded,
            views,
        }
    }

    /// Names of all views in the snapshot (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }
}

impl RelationSource for Snapshot {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.views.get(name).map(|g| g.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let g = self
            .views
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        if !pattern.is_empty() && pattern.iter().all(Option::is_some) {
            // Fully bound: a single map probe instead of a scan.
            let key: Tuple = pattern.iter().map(|p| p.clone().unwrap()).collect();
            let m = g.get(&key);
            if m != 0.0 {
                visit(&key, m);
            }
            return Ok(());
        }
        for (t, m) in g.iter() {
            if matches_pattern(t, pattern) {
                visit(t, m);
            }
        }
        Ok(())
    }
}

/// One output change of a subscribed query: a key moved from `old_mult` to
/// `new_mult` (either side may be 0.0 for appearing/disappearing keys).
#[derive(Clone, Debug, PartialEq)]
pub struct OutputDelta {
    /// The result key (group-by values; empty for scalar queries).
    pub key: Tuple,
    /// Multiplicity before the batch.
    pub old_mult: f64,
    /// Multiplicity after the batch (copied verbatim from the new snapshot).
    pub new_mult: f64,
}

/// The output deltas one micro-batch produced for one subscription. (Not to
/// be confused with the *input*-side [`dbtoaster_agca::DeltaBatch`], the
/// per-relation GMR deltas the writer feeds into the engine.)
#[derive(Clone, Debug)]
pub struct OutputDeltaBatch {
    /// Epoch of the snapshot these deltas lead up to.
    pub epoch: u64,
    /// Changed keys with their old and new multiplicities.
    pub deltas: Vec<OutputDelta>,
}

/// The serving-side description of one query: how to assemble its result table
/// and (via the compiled program) how to read its output for subscriptions.
#[derive(Clone, Debug)]
pub struct ServedQuery {
    /// Query name.
    pub name: String,
    /// Group-by variables (key columns of the maintained views).
    pub group_by: Vec<String>,
    /// Output columns in select-list order (empty when the query was registered
    /// without a SQL plan; results then fall back to the raw result access).
    pub outputs: Vec<OutputColumn>,
}

enum Msg {
    Event(UpdateEvent),
    Events(Vec<UpdateEvent>),
    Barrier(mpsc::Sender<u64>),
    Subscribe(SubscribeReq),
    Stop,
}

struct SubscribeReq {
    access: ResultAccess,
    tx: mpsc::Sender<OutputDeltaBatch>,
    ack: mpsc::Sender<Arc<Snapshot>>,
}

struct Subscriber {
    access: ResultAccess,
    tx: mpsc::Sender<OutputDeltaBatch>,
}

/// Batch-level counters mirrored out of the writer thread.
#[derive(Debug)]
struct StatsCell {
    events: AtomicU64,
    statements: AtomicU64,
    busy_nanos: AtomicU64,
    batches: AtomicU64,
    delta_batches: AtomicU64,
    batch_events_collapsed: AtomicU64,
    snapshots_published: AtomicU64,
    /// Snapshot work summed over views, mirrored from the engine after each
    /// publish.
    snapshot_keys_patched: AtomicU64,
    snapshot_entries_copied: AtomicU64,
    snapshot_full_copies: AtomicU64,
    subscriber_deltas: AtomicU64,
    wal_bytes_written: AtomicU64,
    checkpoints_taken: AtomicU64,
    recovery_replayed_events: AtomicU64,
    /// Static per-program count (trigger statements running as compiled
    /// kernels); mirrored so readers see it without touching the engine.
    compiled_triggers: AtomicU64,
    /// Per-strategy relation-run counters (batch-delta / entry-major),
    /// mirrored from the engine after each drained batch.
    batch_delta_runs: AtomicU64,
    entry_major_runs: AtomicU64,
    /// Watermark (events applied) of the newest successfully written
    /// checkpoint; `/healthz` reports `events - watermark` as checkpoint lag.
    checkpoint_watermark: AtomicU64,
    started: Instant,
}

pub(crate) struct Shared {
    cell: EpochCell<Snapshot>,
    stats: StatsCell,
    queries: FastMap<String, ServedQuery>,
    program: Arc<TriggerProgram>,
    /// The engine's entry-major override at spawn time (it cannot change
    /// while the writer owns the engine), so `/explain` reports the dispatch
    /// the writer actually runs.
    force_entry_major: bool,
    /// Is the server durable? Gates the checkpoint-lag readout in `/healthz`.
    durable: bool,
    error: Mutex<Option<RuntimeError>>,
    durability_error: Mutex<Option<DurabilityError>>,
    /// Startup provenance (e.g. a degraded recovery), kept apart from
    /// `durability_error` so it can never mask a later runtime failure.
    durability_warning: Mutex<Option<DurabilityError>>,
    /// Durability is suspended and the writer is retrying/re-arming in the
    /// background (serving continues from memory). Distinct from
    /// `durability_error`, which is the *permanent*-failure latch: `/healthz`
    /// reports `"degraded"` (still 200) here vs `"unhealthy"` (503) there.
    degraded: AtomicBool,
    /// The error that pushed the WAL into degraded mode; cleared by a
    /// successful re-arm.
    degraded_error: Mutex<Option<String>>,
    /// Total durability retries (inline append retries + re-arm attempts).
    durability_retries: AtomicU64,
    /// Unix-epoch seconds of the last armed ↔ degraded/failed transition.
    last_transition_epoch: AtomicU64,
    /// Crash simulation / hard abort: the writer stops at the next loop
    /// iteration without draining the queue or taking a final checkpoint.
    killed: AtomicBool,
    /// Cleared by the writer thread on exit (clean or crashed): the liveness
    /// bit `/healthz` reports.
    writer_alive: AtomicBool,
    /// Events enqueued but not yet drained by the writer (approximate:
    /// producers increment before a blocking send completes).
    queue_depth: AtomicU64,
    /// The telemetry registry shared by the writer thread, the checkpoint
    /// thread and metric readers. Reading a snapshot never blocks the writer.
    tel: Telemetry,
}

/// A concurrent serving wrapper around a compiled engine: one writer thread,
/// any number of lock-free readers and delta subscribers. See the module docs
/// for the architecture and consistency guarantee.
pub struct ViewServer {
    shared: Arc<Shared>,
    tx: SyncSender<Msg>,
    writer: Option<JoinHandle<Engine>>,
    http: Option<HttpExporter>,
}

impl ViewServer {
    /// Start serving: moves `engine` into a dedicated writer thread and
    /// publishes its current state as the epoch-0 snapshot. With
    /// [`ServerConfig::durability`] set, also opens the write-ahead log
    /// (resuming after any torn tail) and writes an initial checkpoint if the
    /// directory has none — failures there are the only error path.
    pub fn spawn(
        mut engine: Engine,
        queries: Vec<ServedQuery>,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        // Change tracking is enabled lazily, once the first subscriber joins;
        // snapshot-only serving pays nothing for the changed-key log.
        engine.set_change_tracking(false);
        engine.take_changes(); // drop changes from any pre-serve processing

        // Reuse a telemetry handle the caller already attached (so their
        // counters keep accumulating); otherwise start a fresh enabled one.
        let tel = match engine.telemetry() {
            Some(t) if t.is_enabled() => t.clone(),
            _ => Telemetry::with_config(config.telemetry.clone()),
        };
        engine.set_telemetry(tel.clone());

        let initial = Arc::new(Snapshot {
            epoch: 0,
            events_applied: engine.stats().events,
            degraded: false,
            views: engine.snapshot(),
        });
        let shared = Arc::new(Shared {
            cell: EpochCell::new(initial.clone()),
            stats: StatsCell {
                events: AtomicU64::new(engine.stats().events),
                statements: AtomicU64::new(engine.stats().statements),
                busy_nanos: AtomicU64::new(engine.stats().busy.as_nanos() as u64),
                batches: AtomicU64::new(0),
                delta_batches: AtomicU64::new(engine.stats().delta_batches),
                batch_events_collapsed: AtomicU64::new(engine.stats().batch_events_collapsed),
                snapshots_published: AtomicU64::new(0),
                snapshot_keys_patched: AtomicU64::new(0),
                snapshot_entries_copied: AtomicU64::new(0),
                snapshot_full_copies: AtomicU64::new(0),
                subscriber_deltas: AtomicU64::new(0),
                wal_bytes_written: AtomicU64::new(0),
                checkpoints_taken: AtomicU64::new(0),
                recovery_replayed_events: AtomicU64::new(engine.stats().recovery_replayed_events),
                compiled_triggers: AtomicU64::new(engine.stats().compiled_triggers),
                batch_delta_runs: AtomicU64::new(engine.stats().batch_delta_runs),
                entry_major_runs: AtomicU64::new(engine.stats().entry_major_runs),
                checkpoint_watermark: AtomicU64::new(0),
                started: Instant::now(),
            },
            queries: queries.into_iter().map(|q| (q.name.clone(), q)).collect(),
            program: engine.program_shared(),
            force_entry_major: engine.force_entry_major(),
            durable: config.durability.is_some(),
            error: Mutex::new(None),
            durability_error: Mutex::new(None),
            durability_warning: Mutex::new(None),
            degraded: AtomicBool::new(false),
            degraded_error: Mutex::new(None),
            durability_retries: AtomicU64::new(0),
            last_transition_epoch: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            writer_alive: AtomicBool::new(true),
            queue_depth: AtomicU64::new(0),
            tel,
        });
        let durable = match &config.durability {
            Some(cfg) => Some(DurableState::open(cfg, &engine, &shared)?),
            None => None,
        };
        let http = match &config.http {
            Some(hc) => Some(
                HttpExporter::spawn(shared.clone(), hc.clone())
                    .map_err(|e| ServeError::Http(e.to_string()))?,
            ),
            None => None,
        };
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let writer = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("dbtoaster-writer".into())
                .spawn(move || writer_loop(engine, rx, shared, initial, config, durable))
                .map_err(|e| ServeError::Spawn(format!("writer thread: {e}")))?
        };
        Ok(ViewServer {
            shared,
            tx,
            writer: Some(writer),
            http,
        })
    }

    /// Start the HTTP exporter after the fact (no-op error if one is already
    /// running); returns the bound address. Prefer [`ServerConfig::http`] so
    /// the endpoints are live from the first event.
    pub fn serve_http(&mut self, config: HttpConfig) -> Result<std::net::SocketAddr, ServeError> {
        if let Some(h) = &self.http {
            return Err(ServeError::Http(format!(
                "exporter already listening on {}",
                h.addr()
            )));
        }
        let h = HttpExporter::spawn(self.shared.clone(), config)
            .map_err(|e| ServeError::Http(e.to_string()))?;
        let addr = h.addr();
        self.http = Some(h);
        Ok(addr)
    }

    /// The HTTP exporter's bound address (useful with a `:0` config port),
    /// `None` when no exporter is running.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(|h| h.addr())
    }

    /// A cloneable producer handle onto the bounded ingest queue.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
        }
    }

    /// A new reader handle with its own registered pin slot. One handle serves
    /// one thread; create (or clone) one per reader thread.
    pub fn reader(&self) -> ReaderHandle {
        ReaderHandle {
            pin: self.shared.cell.register_pin(),
            shared: self.shared.clone(),
            _single_thread: PhantomData,
        }
    }

    /// Subscribe to a query's output deltas. The registration travels through
    /// the ingest queue, so the returned subscription's baseline snapshot and
    /// its first delta batch line up exactly: replaying every received batch on
    /// the baseline reconstructs the current result.
    ///
    /// Map-backed queries (the common case) compute deltas from the engine's
    /// changed-key log — O(changed keys) per publish. Queries with
    /// `ResultAccess::Computed` are re-evaluated against the old and new
    /// snapshots on every publish, and snapshot evaluation has no secondary
    /// indexes; keep such subscriptions off large views or widen
    /// [`ServerConfig::publish_interval`].
    pub fn subscribe(&self, query: &str) -> Result<Subscription, ServeError> {
        let access = self.resolve_access(query)?;
        let (tx, rx) = mpsc::channel();
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Msg::Subscribe(SubscribeReq {
                access,
                tx,
                ack: ack_tx,
            }))
            .map_err(|_| ServeError::Closed)?;
        let baseline = ack_rx.recv().map_err(|_| ServeError::Closed)?;
        Ok(Subscription {
            query: query.to_string(),
            baseline,
            rx,
        })
    }

    /// How a query's output is read, for delta computation.
    fn resolve_access(&self, query: &str) -> Result<ResultAccess, ServeError> {
        // 1. A query served with a SQL plan: a single aggregate output reads its
        //    backing view directly. Multi-aggregate (or AVG) queries spread
        //    their output over several views — each is subscribable on its own,
        //    so point the caller at them instead of a misleading "unknown".
        if let Some(sq) = self.shared.queries.get(query) {
            let aggs: Vec<&OutputColumn> = sq
                .outputs
                .iter()
                .filter(|o| !matches!(o, OutputColumn::GroupBy { .. }))
                .collect();
            if let [OutputColumn::Aggregate { view, .. }] = aggs.as_slice() {
                return Ok(ResultAccess::Map(view.clone()));
            }
            if !aggs.is_empty() {
                let mut views = Vec::new();
                for out in aggs {
                    match out {
                        OutputColumn::Aggregate { view, .. } => views.push(view.clone()),
                        OutputColumn::Average {
                            sum_view,
                            count_view,
                            ..
                        } => {
                            views.push(sum_view.clone());
                            views.push(count_view.clone());
                        }
                        OutputColumn::GroupBy { .. } => {}
                    }
                }
                return Err(ServeError::MultiViewOutput {
                    query: query.to_string(),
                    views,
                });
            }
        }
        // 2. A compiled program result (covers engine-level spawns).
        if let Some(r) = self.shared.program.results.iter().find(|r| r.name == query) {
            return Ok(r.access.clone());
        }
        // 3. A raw maintained view or stored relation.
        if self.shared.cell.load_unpinned().view(query).is_some() {
            return Ok(ResultAccess::Map(query.to_string()));
        }
        Err(ServeError::UnknownQuery(query.to_string()))
    }

    /// Block until every event enqueued before this call is applied and
    /// published; returns the epoch of the covering snapshot.
    pub fn flush(&self) -> Result<u64, ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Msg::Barrier(ack_tx))
            .map_err(|_| ServeError::Closed)?;
        ack_rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Merged engine + serving statistics (events, batches, publishes,
    /// fan-out, durability counters).
    pub fn stats(&self) -> EngineStats {
        let s = &self.shared.stats;
        EngineStats {
            events: s.events.load(Relaxed),
            statements: s.statements.load(Relaxed),
            busy: Duration::from_nanos(s.busy_nanos.load(Relaxed)),
            started: s.started,
            batches: s.batches.load(Relaxed),
            delta_batches: s.delta_batches.load(Relaxed),
            batch_events_collapsed: s.batch_events_collapsed.load(Relaxed),
            snapshots_published: s.snapshots_published.load(Relaxed),
            snapshot_keys_patched: s.snapshot_keys_patched.load(Relaxed),
            snapshot_entries_copied: s.snapshot_entries_copied.load(Relaxed),
            snapshot_full_copies: s.snapshot_full_copies.load(Relaxed),
            subscriber_deltas: s.subscriber_deltas.load(Relaxed),
            wal_bytes_written: s.wal_bytes_written.load(Relaxed),
            checkpoints_taken: s.checkpoints_taken.load(Relaxed),
            recovery_replayed_events: s.recovery_replayed_events.load(Relaxed),
            compiled_triggers: s.compiled_triggers.load(Relaxed),
            batch_delta_runs: s.batch_delta_runs.load(Relaxed),
            entry_major_runs: s.entry_major_runs.load(Relaxed),
            ..EngineStats::default()
        }
    }

    /// A point-in-time telemetry snapshot: batch-latency percentiles,
    /// per-stage timings (ingest wait, WAL append, kernel execute by strategy,
    /// snapshot publish, fan-out, checkpoint write), per-view counters and
    /// observed map sizes. Taking a snapshot never blocks the writer thread —
    /// histograms and counters are read with relaxed atomic loads.
    ///
    /// The writer folds its thread-local buffers into the shared registry
    /// every few dozen batches (and at every publish), so a snapshot taken
    /// right after [`ViewServer::flush`] covers all applied events.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.tel.snapshot()
    }

    /// [`ViewServer::metrics`] rendered in the Prometheus text exposition
    /// format (`dbtoaster_*` metric families), ready to serve from a
    /// `/metrics` endpoint.
    pub fn render_prometheus(&self) -> String {
        self.metrics().render_prometheus()
    }

    /// EXPLAIN ANALYZE of the served trigger program: the per-statement
    /// operator trees, the batch-dispatch decision (and its reason) per
    /// relation, and live per-view counters joined in from the telemetry
    /// registry. Render with [`ProgramExplain::render_text`] or
    /// [`ProgramExplain::render_json`]; also served over HTTP as `/explain`.
    pub fn explain(&self) -> ProgramExplain {
        explain_program(&self.shared)
    }

    /// Drain the slow-batch trace ring: structured span trees (relation,
    /// strategy, per-statement timings) for every batch that exceeded
    /// [`TelemetryConfig::slow_batch_threshold`] since the last drain.
    pub fn drain_slow_traces(&self) -> Vec<SlowBatchTrace> {
        self.shared.tel.drain_traces()
    }

    /// The server's shared [`Telemetry`] handle, for custom counters or
    /// JSON-line trace export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tel
    }

    /// The first runtime error the writer hit, if any. The writer keeps
    /// serving, but a failing event may have been *partially* applied (there
    /// is no statement rollback), so snapshots published after the error carry
    /// [`Snapshot::degraded`] and cross-view invariants are no longer
    /// guaranteed.
    pub fn last_error(&self) -> Option<RuntimeError> {
        self.shared
            .error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The first durability error hit by the writer or the checkpointer, if
    /// any. After a WAL failure the server keeps serving **in memory only**
    /// (appending stops, snapshots carry [`Snapshot::degraded`]); after a
    /// checkpoint failure the WAL keeps the state recoverable but recovery
    /// will replay from an older watermark.
    pub fn last_durability_error(&self) -> Option<DurabilityError> {
        self.shared
            .durability_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// A startup durability warning, if any — recovery provenance such as
    /// skipped damaged checkpoints or replayed poison events, recorded by the
    /// facade through [`ViewServer::record_durability_warning`]. Kept in its
    /// own slot so it can never mask a later *runtime* failure reported by
    /// [`ViewServer::last_durability_error`].
    pub fn durability_warning(&self) -> Option<DurabilityError> {
        self.shared
            .durability_warning
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Record a startup durability warning (does not overwrite an earlier
    /// one), surfaced through [`ViewServer::durability_warning`]. The facade
    /// uses this to carry recovery provenance into the running server, so a
    /// degraded recovery is distinguishable from a clean one.
    pub fn record_durability_warning(&self, e: DurabilityError) {
        self.shared
            .durability_warning
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_or_insert(e);
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Events currently queued but not yet drained by the writer.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queue_depth.load(Relaxed)
    }

    /// The `/healthz` body and health verdict, without going through the HTTP
    /// exporter (the sharded serving layer composes these per shard).
    pub fn health_json(&self) -> (bool, String) {
        health_body(&self.shared)
    }

    /// The currently published snapshot, without registering a long-lived
    /// reader pin (a transient pin is used internally; see
    /// [`EpochCell::load_unpinned`]).
    pub fn current_snapshot(&self) -> Arc<Snapshot> {
        self.shared.cell.load_unpinned()
    }

    /// Stop the writer (after it drains messages queued ahead of the stop
    /// request) and take the engine back for single-threaded use. With
    /// durability enabled this is a *clean* shutdown: the WAL is synced and a
    /// final checkpoint is written, so the next open replays nothing.
    pub fn shutdown(mut self) -> Result<Engine, ServeError> {
        let _ = self.tx.send(Msg::Stop);
        let writer = self.writer.take().expect("writer present until shutdown");
        writer.join().map_err(|_| ServeError::Closed)
    }

    /// Hard-stop the writer **without** draining the queue, syncing the WAL or
    /// taking a final checkpoint — the closest a live process can come to
    /// `kill -9`, used to exercise crash recovery (and as a fast abort).
    /// Events accepted but not yet applied are dropped; under a durable
    /// config, reopening the directory recovers exactly the applied prefix.
    pub fn kill(mut self) {
        self.shared.killed.store(true, Relaxed);
        // Wake a writer blocked on an empty queue; if the queue is full the
        // writer is busy and will see the flag at its next loop iteration.
        let _ = self.tx.try_send(Msg::Stop);
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl Drop for ViewServer {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.tx.send(Msg::Stop);
            let _ = writer.join();
        }
    }
}

/// A cloneable producer handle for the bounded ingest queue.
#[derive(Clone)]
pub struct IngestHandle {
    tx: SyncSender<Msg>,
    /// Keeps the queue-depth gauge `/healthz` reports. Producers increment
    /// *before* a (possibly blocking) send and undo on failure, so the
    /// writer's decrement at drain time can never underflow.
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Enqueue one update, blocking while the queue is full (backpressure).
    pub fn send(&self, event: UpdateEvent) -> Result<(), ServeError> {
        self.shared.queue_depth.fetch_add(1, Relaxed);
        self.tx.send(Msg::Event(event)).map_err(|_| {
            self.shared.queue_depth.fetch_sub(1, Relaxed);
            ServeError::Closed
        })
    }

    /// Enqueue one update without blocking; hands the event back when the queue
    /// is full or the server is down.
    pub fn try_send(&self, event: UpdateEvent) -> Result<(), TrySendError> {
        self.shared.queue_depth.fetch_add(1, Relaxed);
        self.tx.try_send(Msg::Event(event)).map_err(|e| {
            self.shared.queue_depth.fetch_sub(1, Relaxed);
            match e {
                MpscTrySendError::Full(Msg::Event(ev)) => TrySendError::Full(ev),
                MpscTrySendError::Disconnected(Msg::Event(ev)) => TrySendError::Closed(ev),
                _ => unreachable!("try_send only wraps events"),
            }
        })
    }

    /// Enqueue a stream of updates in chunks, amortizing the per-message queue
    /// cost (one queue slot carries up to 128 events). Blocks on a full queue.
    ///
    /// Returns the number of events accepted into the queue. When the server
    /// goes away mid-stream the error carries the count accepted **before**
    /// the failure, so a durable producer can resume from `accepted` without
    /// double-sending: events of a rejected chunk were *not* enqueued (a chunk
    /// is accepted or rejected atomically) and come back in
    /// [`SendBatchError::unsent`].
    ///
    /// While the writer is retrying a transient WAL failure (or operating
    /// degraded), it drains the queue slower — or not at all during a backoff
    /// sleep — so this call **blocks** once the bounded queue fills:
    /// backpressure, never drops. `accepted` still counts exactly the events
    /// enqueued; whether an accepted event was made durable is reported
    /// through `/healthz` (`"degraded"`) and [`ViewServer::flush`]-visible
    /// snapshots, not through this return value.
    pub fn send_batch(
        &self,
        events: impl IntoIterator<Item = UpdateEvent>,
    ) -> Result<usize, SendBatchError> {
        const CHUNK: usize = 128;
        let mut accepted = 0usize;
        let mut buf: Vec<UpdateEvent> = Vec::with_capacity(CHUNK);
        let send = |chunk: Vec<UpdateEvent>, accepted: &mut usize| -> Result<(), SendBatchError> {
            let n = chunk.len();
            self.shared.queue_depth.fetch_add(n as u64, Relaxed);
            match self.tx.send(Msg::Events(chunk)) {
                Ok(()) => {
                    *accepted += n;
                    Ok(())
                }
                Err(mpsc::SendError(msg)) => {
                    self.shared.queue_depth.fetch_sub(n as u64, Relaxed);
                    Err(SendBatchError {
                        accepted: *accepted,
                        unsent: match msg {
                            Msg::Events(v) => v,
                            _ => unreachable!("send_batch only wraps event chunks"),
                        },
                    })
                }
            }
        };
        for ev in events {
            buf.push(ev);
            if buf.len() == CHUNK {
                let full = std::mem::replace(&mut buf, Vec::with_capacity(CHUNK));
                send(full, &mut accepted)?;
            }
        }
        if !buf.is_empty() {
            send(buf, &mut accepted)?;
        }
        Ok(accepted)
    }
}

/// A [`IngestHandle::send_batch`] that failed part-way: the server shut down
/// after `accepted` events were enqueued.
#[derive(Clone, Debug)]
pub struct SendBatchError {
    /// Events accepted into the queue before the failure.
    pub accepted: usize,
    /// The rejected chunk (up to 128 events) handed back to the caller. Note
    /// that `unsent` covers **only this chunk**: events still inside the
    /// source iterator were never pulled and are not returned — a producer
    /// that hands over its only copy must keep the source until `send_batch`
    /// returns `Ok`, then resume from index `accepted` on failure.
    pub unsent: Vec<UpdateEvent>,
}

impl fmt::Display for SendBatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "view server shut down after accepting {} events ({} returned unsent)",
            self.accepted,
            self.unsent.len()
        )
    }
}

impl std::error::Error for SendBatchError {}

impl From<SendBatchError> for ServeError {
    fn from(_: SendBatchError) -> Self {
        ServeError::Closed
    }
}

/// A rejected [`IngestHandle::try_send`], carrying the event back to the caller.
#[derive(Clone, Debug)]
pub enum TrySendError {
    /// The ingest queue is full.
    Full(UpdateEvent),
    /// The server is shut down.
    Closed(UpdateEvent),
}

/// A lock-free snapshot reader. `Send` but intentionally `!Sync`: each handle
/// owns a pin slot that one thread at a time may use — clone the handle (or
/// call [`ViewServer::reader`]) for every reader thread.
pub struct ReaderHandle {
    shared: Arc<Shared>,
    pin: Arc<AtomicU64>,
    _single_thread: PhantomData<std::cell::Cell<()>>,
}

impl Clone for ReaderHandle {
    fn clone(&self) -> Self {
        ReaderHandle {
            pin: self.shared.cell.register_pin(),
            shared: self.shared.clone(),
            _single_thread: PhantomData,
        }
    }
}

impl ReaderHandle {
    /// Acquire the current snapshot. Wait-free; never blocks the writer.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.cell.load(&self.pin)
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// A maintained view from the current snapshot (O(1): the GMR shares the
    /// snapshot's map).
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.snapshot().view(name).cloned()
    }

    /// Assemble the full result table of a served query from the current
    /// snapshot. Consistent: every referenced view comes from one snapshot.
    pub fn query(&self, name: &str) -> Result<ResultTable, ServeError> {
        let snap = self.snapshot();
        if let Some(sq) = self.shared.queries.get(name) {
            if !sq.outputs.is_empty() {
                return assemble_result(&sq.outputs, &sq.group_by, &mut |v| snap.view(v).cloned())
                    .map_err(ServeError::UnknownView);
            }
        }
        if let Some(r) = self.shared.program.results.iter().find(|r| r.name == name) {
            let gmr = match &r.access {
                ResultAccess::Map(v) => snap
                    .view(v)
                    .cloned()
                    .ok_or_else(|| ServeError::UnknownView(v.clone()))?,
                ResultAccess::Computed { expr, .. } => {
                    eval_with(expr, &*snap, &mut Bindings::new()).map_err(ServeError::Eval)?
                }
            };
            return Ok(table_from_gmr(name, &gmr));
        }
        match snap.view(name) {
            Some(g) => Ok(table_from_gmr(name, g)),
            None => Err(ServeError::UnknownQuery(name.to_string())),
        }
    }
}

/// Render a raw GMR as a result table: key columns followed by one
/// multiplicity column named after the query.
fn table_from_gmr(name: &str, gmr: &Gmr) -> ResultTable {
    let mut columns: Vec<String> = gmr.schema().columns().to_vec();
    columns.push(name.to_string());
    let rows = gmr
        .iter()
        .map(|(t, m)| ResultRow {
            key: t.to_vec(),
            values: vec![m],
        })
        .collect();
    ResultTable { columns, rows }
}

/// A stream of per-batch output deltas for one query, starting from a baseline
/// snapshot. Replaying every received batch onto the baseline reconstructs the
/// live result exactly.
pub struct Subscription {
    query: String,
    baseline: Arc<Snapshot>,
    rx: Receiver<OutputDeltaBatch>,
}

impl Subscription {
    /// The subscribed query name.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The snapshot this subscription's delta stream starts from.
    pub fn baseline(&self) -> &Arc<Snapshot> {
        &self.baseline
    }

    /// Wait for the next delta batch — one arrives per published snapshot,
    /// with empty `deltas` when this query's output did not change in that
    /// batch. `None` once the server is shut down and all pending batches
    /// were consumed.
    pub fn recv(&self) -> Option<OutputDeltaBatch> {
        self.rx.recv().ok()
    }

    /// Take the next delta batch if one is ready.
    pub fn try_recv(&self) -> Option<OutputDeltaBatch> {
        self.rx.try_recv().ok()
    }
}

// ---------------------------------------------------------------------------
// Durable pipeline (writer-side WAL + background checkpointer)
// ---------------------------------------------------------------------------

/// A snapshot handed to the checkpoint thread: the buffers of the publish
/// that just happened (the views are unwritten since, so building the job is
/// O(#views) on the hot path) and the serialization cost is paid off it.
/// While the thread holds them those buffers cannot be recycled: each written
/// view pays one full copy per checkpoint (`snapshot_full_copies`, reason
/// `pinned`).
struct CkptJob {
    maps: FastMap<String, Gmr>,
    watermark: u64,
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
struct DurableState {
    wal: WalWriter,
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
    /// Mirrors [`WalWriter::coalesced_syncs`]: appends whose fsync was
    /// absorbed by a group-commit window instead of paid inline.
    group_commit_coalesced: Counter,
}

fn unix_epoch_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl DurableState {
    fn open(
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
        checkpoint::clean_tmp_files_with(cfg.vfs.as_ref(), &cfg.dir)?;
        let checkpoints = checkpoint::list_checkpoints_with(cfg.vfs.as_ref(), &cfg.dir)?;
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
            match checkpoint::verify_checkpoint_with(cfg.vfs.as_ref(), path, fingerprint) {
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
        if let Some(end) =
            dbtoaster_durability::wal::log_end_seq_with(cfg.vfs.as_ref(), &cfg.dir, fingerprint)?
        {
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
            let snap = engine.snapshot();
            checkpoint::write_checkpoint_with(
                cfg.vfs.as_ref(),
                &cfg.dir,
                fingerprint,
                watermark,
                snap.iter().map(|(n, g)| (n.as_str(), g)),
            )?;
            shared.stats.checkpoints_taken.fetch_add(1, Relaxed);
        }
        shared
            .stats
            .checkpoint_watermark
            .fetch_max(newest_verified.unwrap_or(watermark), Relaxed);
        let mut wal = WalWriter::open_locked_with(
            &cfg.dir,
            fingerprint,
            watermark + 1,
            cfg.fsync,
            cfg.segment_bytes,
            lock,
            cfg.vfs.clone(),
        )?;
        wal.set_group_commit_window(cfg.group_commit_window);
        let io_retries = shared.tel.counter("io_retries");
        let io_errors_transient = shared.tel.counter("io_errors_transient");
        let io_errors_permanent = shared.tel.counter("io_errors_permanent");
        let degraded_transitions = shared.tel.counter("degraded_transitions");
        let degraded_gauge = shared.tel.gauge("degraded");
        let group_commit_coalesced = shared.tel.counter("wal_group_commit_coalesced_total");
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
                        let res = checkpoint::write_checkpoint_with(
                            vfs.as_ref(),
                            &dir,
                            fingerprint,
                            job.watermark,
                            job.maps.iter().map(|(n, g)| (n.as_str(), g)),
                        )
                        .and_then(|_| {
                            checkpoint::retain_and_prune_wal_with(
                                vfs.as_ref(),
                                &dir,
                                keep,
                                fingerprint,
                            )
                        });
                        match res {
                            Ok(_) => {
                                shared.stats.checkpoints_taken.fetch_add(1, Relaxed);
                                shared
                                    .stats
                                    .checkpoint_watermark
                                    .fetch_max(job.watermark, Relaxed);
                            }
                            // A transient checkpoint failure only delays the
                            // watermark — the WAL still covers everything, so
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
        Ok(DurableState {
            wal,
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
            group_commit_coalesced,
        })
    }

    fn is_armed(&self) -> bool {
        matches!(self.health, WalHealth::Armed)
    }

    /// Write-ahead: append the micro-batch (and apply the fsync policy's
    /// batch-boundary sync) *before* any of its events touch a view. Returns
    /// `false` when the batch could not be made durable — it is then applied
    /// undurably, the snapshot marked degraded, and a later re-arm's
    /// checkpoint recaptures its effects.
    fn log_batch(&mut self, batch: &[UpdateEvent], engine: &Engine, shared: &Shared) -> bool {
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
    /// and producers backpressure instead of events being dropped.
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
                    shared.durability_retries.fetch_add(1, Relaxed);
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
        // Sync failures are NEVER retried in place: after a failed fsync the
        // kernel may drop the dirty pages *and* clear the error flag, so a
        // retried fsync can falsely succeed over lost data (the "fsyncgate"
        // failure mode). A transient sync failure goes straight to degraded —
        // the re-arm rewrites state from a fresh checkpoint instead of
        // trusting the poisoned file.
        match self.wal.batch_boundary() {
            Ok(()) => {
                shared
                    .stats
                    .wal_bytes_written
                    .store(self.wal.bytes_written(), Relaxed);
                self.group_commit_coalesced.set(self.wal.coalesced_syncs());
                true
            }
            Err(e) if e.is_transient() => {
                self.io_errors_transient.inc();
                self.enter_degraded(e, shared);
                false
            }
            Err(e) => {
                self.io_errors_permanent.inc();
                self.enter_failed(e, shared);
                false
            }
        }
    }

    /// Close any open group-commit window before a barrier is acknowledged:
    /// a `flush()` ack promises the acked epoch's events are durable under
    /// the configured policy, so a deferred fsync must not outlive it. A
    /// no-op when nothing is pending (the window already closed, or no window
    /// is configured — `sync` skips the syscall unless bytes are unsynced).
    /// Sync failures follow the fsyncgate rule (see `append_armed`): straight
    /// to degraded or failed, never retried in place.
    fn barrier_sync(&mut self, shared: &Shared) {
        if !self.is_armed() {
            return;
        }
        match self.wal.sync() {
            Ok(()) => {}
            Err(e) if e.is_transient() => {
                self.io_errors_transient.inc();
                self.enter_degraded(e, shared);
            }
            Err(e) => {
                self.io_errors_permanent.inc();
                self.enter_failed(e, shared);
            }
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
        shared.durability_retries.fetch_add(1, Relaxed);
        let watermark = engine.stats().events;
        let snap = engine.snapshot();
        let res = checkpoint::write_checkpoint_with(
            self.vfs.as_ref(),
            &self.dir,
            self.fingerprint,
            watermark,
            snap.iter().map(|(n, g)| (n.as_str(), g)),
        )
        .and_then(|_| self.wal.rearm(watermark + 1));
        match res {
            Ok(()) => {
                shared.stats.checkpoints_taken.fetch_add(1, Relaxed);
                shared
                    .stats
                    .checkpoint_watermark
                    .fetch_max(watermark, Relaxed);
                self.events_since_ckpt = 0;
                self.exit_degraded(shared);
                // Durable again: the triggering batch still has to hit the log
                // before it is applied.
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
        shared.degraded.store(true, Relaxed);
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
        shared.degraded.store(false, Relaxed);
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
        shared.degraded.store(false, Relaxed);
        shared
            .last_transition_epoch
            .store(unix_epoch_secs(), Relaxed);
        record_durability_error(shared, e);
    }

    /// Hand a checkpoint job to the background thread once enough events have
    /// accumulated. If the previous checkpoint is still being written the
    /// attempt is skipped and retried after the next batch — the writer never
    /// waits on checkpoint I/O.
    fn maybe_checkpoint(&mut self, engine: &Engine, applied: u64) {
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
    fn shutdown(mut self, engine: &Engine, clean: bool, shared: &Shared) {
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

// ---------------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------------

fn writer_loop(
    mut engine: Engine,
    rx: Receiver<Msg>,
    shared: Arc<Shared>,
    mut last: Arc<Snapshot>,
    config: ServerConfig,
    mut durable: Option<DurableState>,
) -> Engine {
    use std::sync::mpsc::RecvTimeoutError;

    let max_batch = config.max_batch.max(1);
    let mut subscribers: Vec<Subscriber> = Vec::new();
    // Recycled input-side delta batch (per-relation GMR deltas); rebuilt from
    // each drained micro-batch with zero steady-state allocation.
    let mut delta = dbtoaster_agca::DeltaBatch::new();
    // Continue from the engine's pre-serve processing time so the mirrored
    // busy counter never goes backwards.
    let mut serve_busy = engine.stats().busy;
    let mut epoch = 0u64;
    let mut batch: Vec<UpdateEvent> = Vec::with_capacity(max_batch);
    // Events applied but not yet published, with their merged changed-key log.
    // Publishing is *coalesced*: under sustained load the writer publishes once
    // per `publish_interval` (or every `max_batch` events, whichever comes
    // first) instead of after every drained batch, amortizing the per-publish
    // cost while keeping snapshot staleness bounded.
    let mut pending = ChangeSet::default();
    let mut pending_events = 0u64;
    let mut last_publish = Instant::now();
    let mut stop = false;
    let mut disconnected = false;
    let mut tracking = false;
    let mut degraded = false;

    while !stop && !disconnected {
        // Crash simulation / hard abort: stop here, mid-stream, without
        // draining the queue. Durable teardown below skips the final sync
        // and checkpoint on this path.
        if shared.killed.load(Relaxed) {
            break;
        }
        // Wait for work; with unpublished events, wait at most until the
        // publish deadline so idle periods cannot leave stale snapshots.
        // The wait itself is a telemetry stage: high ingest-queue wait with
        // low kernel time means the server is starved, not slow.
        let first = {
            let _t = shared.tel.stage_guard(Stage::IngestWait);
            if pending_events == 0 {
                match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => {
                        disconnected = true; // every producer handle is gone
                        None
                    }
                }
            } else {
                let wait = config
                    .publish_interval
                    .saturating_sub(last_publish.elapsed());
                match rx.recv_timeout(wait) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        disconnected = true;
                        None
                    }
                }
            }
        };

        batch.clear();
        let mut barriers: Vec<mpsc::Sender<u64>> = Vec::new();
        let mut joining: Vec<SubscribeReq> = Vec::new();
        let mut staged = first;
        while let Some(msg) = staged.take() {
            match msg {
                Msg::Event(ev) => batch.push(ev),
                Msg::Events(evs) => batch.extend(evs),
                Msg::Barrier(tx) => barriers.push(tx),
                Msg::Subscribe(req) => joining.push(req),
                Msg::Stop => {
                    stop = true;
                    break;
                }
            }
            if batch.len() >= max_batch {
                break;
            }
            staged = rx.try_recv().ok();
        }

        let t0 = Instant::now();
        // Write-ahead: the batch must be on the log (synced per the fsync
        // policy) before any of its statements run, so no published snapshot
        // can ever reflect an event the log does not contain.
        if let Some(d) = durable.as_mut() {
            // Called even with an empty batch: in degraded mode every writer
            // iteration doubles as a re-arm tick. The return value is not a
            // latch any more — snapshot degradation is read off the health
            // state below, so a successful re-arm clears it.
            d.log_batch(&batch, &engine, &shared);
        }
        let drained = batch.len() as u64;
        if drained > 0 {
            // Producers incremented before enqueueing, so the gauge holds at
            // least `drained` here.
            shared.queue_depth.fetch_sub(drained, Relaxed);
        }
        if !batch.is_empty() {
            // Coalesced publication now also means coalesced *computation*:
            // the drained micro-batch becomes one DeltaBatch of per-relation
            // GMR deltas, processed with per-batch (not per-event) kernel
            // dispatch. WAL replay rebuilds the same DeltaBatch per logged
            // record, so live and recovered state stay bit-exact. The events
            // were already logged above, so their tuples can be *moved* into
            // the delta keys.
            delta.clear();
            for ev in batch.drain(..) {
                delta.push_owned(ev);
            }
            let report = engine.process_batch(&delta);
            if let Some(e) = report.first_error {
                degraded = true;
                // Durable serving only: a failing event still consumes its
                // slot in the stream — the WAL numbered it, so the `events`
                // watermark must advance past it or every later checkpoint
                // would lag the log and recovery would re-apply (or re-trip
                // over) the poison event. Without a WAL, `events` keeps its
                // original meaning of successfully applied events.
                if durable.is_some() {
                    engine.stats_mut().events += report.failed_events;
                }
                let mut slot = shared.error.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(e);
            }
        }
        pending.merge(engine.take_changes());
        pending_events += drained;
        if drained > 0 {
            engine.stats_mut().batches += 1;
            shared.stats.batches.fetch_add(1, Relaxed);
        }

        // Joining subscribers force a publish so their baseline snapshot covers
        // every event processed before change tracking turns on for them.
        let due = pending_events > 0
            && (stop
                || disconnected
                || !barriers.is_empty()
                || !joining.is_empty()
                || pending_events >= max_batch as u64
                || last_publish.elapsed() >= config.publish_interval);
        if due {
            epoch += 1;
            let t_pub = Instant::now();
            let snap = Arc::new(Snapshot {
                epoch,
                events_applied: engine.stats().events,
                // Runtime-error degradation (`degraded`) is sticky; durability
                // degradation tracks the WAL health live, so a re-arm clears
                // it from the next published snapshot on.
                degraded: degraded || durable.as_ref().is_some_and(|d| !d.is_armed()),
                views: engine.snapshot(),
            });
            let snap_cost = t_pub.elapsed();
            let changes = std::mem::take(&mut pending);
            pending_events = 0;
            let fanned = {
                let _t = shared.tel.stage_guard(Stage::Fanout);
                fan_out(&mut subscribers, &changes, &last, &snap, epoch, &shared)
            };
            let t_swap = Instant::now();
            shared.cell.publish(snap.clone());
            // Snapshot construction (per written view: patch the buffer of
            // two publishes ago, or copy the view if someone still holds it)
            // plus the epoch swap; fan-out is timed separately above.
            shared
                .tel
                .record_stage(Stage::SnapshotPublish, snap_cost + t_swap.elapsed());
            // Letting go of the previous snapshot (the cell retired it in
            // `publish`) is what makes its buffers patchable two publishes on.
            last = snap;
            last_publish = Instant::now();

            let stats = engine.stats_mut();
            stats.snapshots_published += 1;
            stats.subscriber_deltas += fanned;
            shared.stats.snapshots_published.fetch_add(1, Relaxed);
            shared.stats.subscriber_deltas.fetch_add(fanned, Relaxed);
            // Fold the engine's thread-local telemetry buffers into the shared
            // registry at every publish, so a barrier-acked reader's
            // `metrics()` covers all its events.
            engine.flush_telemetry();
            mirror_snapshot_work(&mut engine, &shared);
        }
        // Checkpoint accounting rides the batch boundary: the snapshot
        // handoff happens here (O(#views) right after a publish; otherwise it
        // patches like one), the serialization in the checkpoint thread.
        if let Some(d) = durable.as_mut() {
            if drained > 0 {
                d.maybe_checkpoint(&engine, drained);
            }
        }
        serve_busy += t0.elapsed();

        // Mirror the stats before acking barriers so a caller returning from
        // `flush()` observes counters that cover its events.
        let s = engine.stats();
        shared.stats.events.store(s.events, Relaxed);
        shared.stats.statements.store(s.statements, Relaxed);
        shared.stats.delta_batches.store(s.delta_batches, Relaxed);
        shared
            .stats
            .batch_events_collapsed
            .store(s.batch_events_collapsed, Relaxed);
        shared
            .stats
            .batch_delta_runs
            .store(s.batch_delta_runs, Relaxed);
        shared
            .stats
            .entry_major_runs
            .store(s.entry_major_runs, Relaxed);
        shared
            .stats
            .busy_nanos
            .store(serve_busy.as_nanos() as u64, Relaxed);

        for req in joining.drain(..) {
            // The baseline is the last published snapshot: the subscriber's
            // first delta batch is computed against exactly that state.
            let _ = req.ack.send(last.clone());
            subscribers.push(Subscriber {
                access: req.access,
                tx: req.tx,
            });
        }
        if !barriers.is_empty() {
            // A barrier ack asserts durability up to `epoch` under the
            // configured policy — close any open group-commit window first.
            if let Some(d) = durable.as_mut() {
                d.barrier_sync(&shared);
            }
        }
        for tx in barriers.drain(..) {
            // `due` above guarantees all events ahead of this barrier are
            // published, so `epoch` covers them.
            let _ = tx.send(epoch);
        }

        // The changed-key log only costs while someone consumes it. Subscriber
        // arrivals and departures both coincide with a publish, so `pending`
        // is empty at every toggle and no window of changes is lost.
        let want_tracking = !subscribers.is_empty();
        if want_tracking != tracking {
            engine.set_change_tracking(want_tracking);
            tracking = want_tracking;
        }
    }
    engine.flush_telemetry(); // final fold so post-shutdown metrics are complete
    shared.writer_alive.store(false, Relaxed);
    let crashed = shared.killed.load(Relaxed);
    if let Some(d) = durable.take() {
        d.shutdown(&engine, !crashed, &shared);
    }
    // Fold the durability counters (and the final checkpoint's snapshot)
    // into the engine's own stats so a `shutdown()` caller gets the complete
    // picture.
    mirror_snapshot_work(&mut engine, &shared);
    let s = engine.stats_mut();
    s.wal_bytes_written = shared.stats.wal_bytes_written.load(Relaxed);
    s.checkpoints_taken = shared.stats.checkpoints_taken.load(Relaxed);
    engine
}

/// Copy what the engine's snapshots have cost so far — publishes and
/// checkpoint hand-offs alike — into its stats and the shared mirror.
fn mirror_snapshot_work(engine: &mut Engine, shared: &Shared) {
    let w = engine.snapshot_work();
    let stats = engine.stats_mut();
    stats.snapshot_keys_patched = w.keys_patched;
    stats.snapshot_entries_copied = w.entries_copied;
    stats.snapshot_full_copies = w.full_copies();
    let mirror = &shared.stats;
    mirror.snapshot_keys_patched.store(w.keys_patched, Relaxed);
    mirror
        .snapshot_entries_copied
        .store(w.entries_copied, Relaxed);
    mirror.snapshot_full_copies.store(w.full_copies(), Relaxed);
}

/// Compute and deliver each subscriber's delta batch, dropping subscribers
/// whose receiver is gone; returns the number of delta records delivered.
/// Every subscriber receives a message per publish (empty when its query's
/// output did not change), which doubles as the liveness probe that lets the
/// writer prune dropped subscribers and turn change tracking back off.
fn fan_out(
    subscribers: &mut Vec<Subscriber>,
    changes: &ChangeSet,
    old: &Snapshot,
    new: &Snapshot,
    epoch: u64,
    shared: &Shared,
) -> u64 {
    let mut fanned = 0u64;
    subscribers.retain(|sub| {
        let deltas = match output_deltas(&sub.access, changes, old, new) {
            Ok(deltas) => deltas,
            Err(e) => {
                // A failed evaluation must not masquerade as "no changes":
                // record it and drop nothing — the subscriber keeps its stream
                // and the error surfaces through `last_error`.
                let mut slot = shared.error.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(RuntimeError::Eval(e));
                Vec::new()
            }
        };
        let count = deltas.len() as u64;
        if sub.tx.send(OutputDeltaBatch { epoch, deltas }).is_ok() {
            fanned += count;
            true
        } else {
            false
        }
    });
    fanned
}

/// The output deltas of one query between two consecutive snapshots.
fn output_deltas(
    access: &ResultAccess,
    changes: &ChangeSet,
    old: &Snapshot,
    new: &Snapshot,
) -> Result<Vec<OutputDelta>, EvalError> {
    match access {
        ResultAccess::Map(view) => {
            let Some(ch) = changes.views.get(view) else {
                return Ok(Vec::new());
            };
            let old_view = old.view(view);
            let new_view = new.view(view);
            if ch.cleared {
                return Ok(full_diff(old_view, new_view));
            }
            let mut out = Vec::new();
            for key in ch.keys.keys() {
                let o = old_view.map_or(0.0, |g| g.get(key));
                let n = new_view.map_or(0.0, |g| g.get(key));
                if o != n {
                    out.push(OutputDelta {
                        key: key.clone(),
                        old_mult: o,
                        new_mult: n,
                    });
                }
            }
            Ok(out)
        }
        ResultAccess::Computed { expr, .. } => {
            let old_res = eval_with(expr, old, &mut Bindings::new())?;
            let new_res = eval_with(expr, new, &mut Bindings::new())?;
            Ok(full_diff(Some(&old_res), Some(&new_res)))
        }
    }
}

/// Diff two result states key-by-key.
fn full_diff(old: Option<&Gmr>, new: Option<&Gmr>) -> Vec<OutputDelta> {
    let mut out = Vec::new();
    if let Some(o) = old {
        for (key, om) in o.iter() {
            let nm = new.map_or(0.0, |g| g.get(key));
            if om != nm {
                out.push(OutputDelta {
                    key: key.clone(),
                    old_mult: om,
                    new_mult: nm,
                });
            }
        }
    }
    if let Some(n) = new {
        for (key, nm) in n.iter() {
            let missing = old.is_none_or(|g| g.get(key) == 0.0);
            if missing && nm != 0.0 {
                out.push(OutputDelta {
                    key: key.clone(),
                    old_mult: 0.0,
                    new_mult: nm,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// HTTP endpoint bodies (transport lives in `crate::http`)
// ---------------------------------------------------------------------------

fn lock_opt<T: Clone>(m: &Mutex<Option<T>>) -> Option<T> {
    m.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

fn json_opt_string(v: Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", dbtoaster_telemetry::json_escape(&s)),
        None => "null".to_string(),
    }
}

/// The EXPLAIN tree `/explain` serves: the compiled program's operator trees
/// and dispatch decisions, with live per-view counters joined in from the
/// telemetry registry.
pub(crate) fn explain_program(shared: &Shared) -> ProgramExplain {
    let mut ex = dbtoaster_compiler::explain(&shared.program, shared.force_entry_major);
    let snap = shared.tel.snapshot();
    if snap.enabled {
        ex.attach_stats(|name| {
            snap.view(name).map(|v| ViewStats {
                rows_written: v.rows_written,
                probes: v.probes,
                scans: v.scans,
                entries_scanned: v.entries_scanned,
                fused_scans: v.fused_scans,
                banded_hits: v.banded_hits,
                banded_bails: v.banded_bails,
                overlay_firings: v.overlay_firings,
                map_size: v.map_size,
            })
        });
        ex.attach_index_stats(|name| {
            snap.view(name).map(|v| dbtoaster_compiler::IndexStats {
                hash: v.indexes[0],
                ordered: v.indexes[1],
                entries: v.indexes[2],
                bytes: v.indexes[3],
            })
        });
    }
    ex
}

/// `/metrics`: the Prometheus text exposition of a fresh telemetry snapshot.
pub(crate) fn metrics_body(shared: &Shared) -> String {
    shared.tel.render_prometheus()
}

/// `/healthz`: writer liveness, queue depth, durability lag and the first
/// recorded errors, as one JSON object. The bool is the health verdict
/// (HTTP 200 vs 503): the writer thread is alive and durability has not
/// failed permanently. Three statuses ride on top of it:
/// `"ok"` (200), `"degraded"` (200 — still serving reads and applying
/// events, but durability is suspended while the writer retries/re-arms;
/// `degraded_error`, `durability_retries` and `last_transition_epoch` say
/// why, how hard, and since when), and `"unhealthy"` (503 — the writer died
/// or durability failed permanently).
pub(crate) fn health_body(shared: &Shared) -> (bool, String) {
    let writer_alive = shared.writer_alive.load(Relaxed);
    let killed = shared.killed.load(Relaxed);
    let events = shared.stats.events.load(Relaxed);
    let queue_depth = shared.queue_depth.load(Relaxed);
    let epoch = shared.cell.epoch();
    let wal_bytes = shared.stats.wal_bytes_written.load(Relaxed);
    let checkpoints = shared.stats.checkpoints_taken.load(Relaxed);
    let watermark = shared.stats.checkpoint_watermark.load(Relaxed);
    let error = lock_opt(&shared.error).map(|e| e.to_string());
    let durability_error = lock_opt(&shared.durability_error).map(|e| e.to_string());
    let durability_warning = lock_opt(&shared.durability_warning).map(|e| e.to_string());
    let degraded = shared.degraded.load(Relaxed);
    let degraded_error = lock_opt(&shared.degraded_error);
    let retries = shared.durability_retries.load(Relaxed);
    let transition = shared.last_transition_epoch.load(Relaxed);
    let healthy = writer_alive && durability_error.is_none();
    let body = format!(
        "{{\"status\":\"{status}\",\"writer_alive\":{writer_alive},\"killed\":{killed},\
         \"epoch\":{epoch},\"events_applied\":{events},\"ingest_queue_depth\":{queue_depth},\
         \"durable\":{durable},\"degraded\":{degraded},\"degraded_error\":{dgerr},\
         \"durability_retries\":{retries},\"last_transition_epoch\":{transition},\
         \"wal_bytes_written\":{wal_bytes},\
         \"checkpoints_taken\":{checkpoints},\"checkpoint_lag_events\":{lag},\
         \"last_error\":{error},\"last_durability_error\":{derr},\
         \"durability_warning\":{dwarn}}}",
        status = if !healthy {
            "unhealthy"
        } else if degraded {
            "degraded"
        } else {
            "ok"
        },
        durable = shared.durable,
        dgerr = json_opt_string(degraded_error),
        lag = if shared.durable {
            events.saturating_sub(watermark)
        } else {
            0
        },
        error = json_opt_string(error),
        derr = json_opt_string(durability_error),
        dwarn = json_opt_string(durability_warning),
    );
    (healthy, body)
}

/// `/views`: per-view work counters, observed sizes and secondary indexes
/// (how many of each representation, the columns the ordered ones are sorted
/// on, entries and bytes) from a fresh [`MetricsSnapshot`], as one JSON
/// object.
pub(crate) fn views_body(shared: &Shared) -> String {
    use dbtoaster_telemetry::json_escape;
    let snap = shared.tel.snapshot();
    let mut out = format!(
        "{{\"events\":{},\"batches\":{},\"traces_pending\":{},\"views\":[",
        snap.events, snap.batches, snap.traces_pending
    );
    let ordered = shared.program.ordered_indexes();
    for (i, v) in snap.views.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // The columns the view's ordered indexes are sorted on (declared by
        // the compiler; everything else about the indexes is live).
        let ordered_on: Vec<String> = ordered
            .iter()
            .filter(|d| d.map == v.name)
            .map(|d| {
                let column = shared.program.map(&d.map);
                match column.and_then(|m| m.out_vars.get(d.key_pos as usize)) {
                    Some(c) => format!("\"{}\"", json_escape(c)),
                    None => format!("\"t{}\"", d.key_pos),
                }
            })
            .collect();
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"rows_written\":{},\"probes\":{},\"scans\":{},\
             \"entries_scanned\":{},\"fused_scans\":{},\"banded_hits\":{},\
             \"banded_bails\":{},\"overlay_firings\":{},\"map_size\":{},\
             \"indexes\":{{\"hash\":{},\"ordered\":{},\"ordered_on\":[{}],\
             \"entries\":{},\"bytes\":{}}},\
             \"snapshot_keys_patched\":{},\"snapshot_entries_copied\":{},\
             \"snapshot_full_copies\":{{\"first\":{},\"pinned\":{},\"abandoned\":{}}}}}",
            json_escape(&v.name),
            v.rows_written,
            v.probes,
            v.scans,
            v.entries_scanned,
            v.fused_scans,
            v.banded_hits,
            v.banded_bails,
            v.overlay_firings,
            v.map_size,
            v.indexes[0],
            v.indexes[1],
            ordered_on.join(","),
            v.indexes[2],
            v.indexes[3],
            v.snapshot_keys_patched,
            v.snapshot_entries_copied,
            v.snapshot_full_copies[0],
            v.snapshot_full_copies[1],
            v.snapshot_full_copies[2]
        ));
    }
    out.push_str("]}");
    out
}

/// `/traces`: drain the slow-batch ring as JSON lines (empty body when no
/// batch exceeded the threshold since the last drain).
pub(crate) fn traces_body(shared: &Shared) -> String {
    shared.tel.drain_traces_json()
}
