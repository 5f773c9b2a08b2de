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
//! triggers for each, and then **publishes**: it snapshots the *published
//! views* (the keys written since the last two publishes — each written view
//! patches the buffer it handed out two publishes ago, which the writer and
//! the [`EpochCell`] have dropped by then unless a reader pinned it; a pinned
//! buffer costs that view one full copy), computes per-query
//! output deltas from the subscribed views' own write logs, swaps the snapshot
//! into an [`EpochCell`], and fans the deltas out to subscribers.
//!
//! A subscriber's cursor is the snapshot the previous publish handed out,
//! which the writer holds until the next one: the publish reads, with each
//! subscribed view's new buffer, the keys that view logged since that buffer
//! ([`dbtoaster_runtime::ViewMap::to_gmr_since`]) and compares old and new at
//! each of them once. When the view's log cannot tell — a `:=` statement
//! cleared it, its writes outgrew the patch budget, or a checkpoint and a cold
//! read ([`ViewServer::all_maps`]) each snapshotted it since — the two
//! snapshots are diffed in full.
//!
//! ## What is published
//!
//! A reader can read a served query's result, a compiled program result, or
//! one of the maps those name — nothing else. Those maps are the published
//! views: the ones named by the served queries' `outputs` and by the
//! program's `results`, resolved to [`MapId`]s once, at [`ViewServer::spawn`].
//! The higher-order maps that only maintain them (the paper's viewlet
//! transform materializes a query *and* its deltas, but only the query is
//! read) and stored base relations stay unpublished: no publish logs, patches
//! or copies them. A checkpoint still captures every map
//! ([`Engine::snapshot`]), and [`ViewServer::all_maps`] reads them all cold.
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

use crate::durable::DurableState;
use crate::http::{HttpConfig, HttpExporter};
use crate::results::{assemble_result, views_read, ResultRow, ResultTable};
use crate::swap::EpochCell;
use dbtoaster_agca::UpdateEvent;
use dbtoaster_compiler::{ProgramExplain, TriggerProgram};
use dbtoaster_durability::{DurabilityConfig, DurabilityError};
use dbtoaster_gmr::{FastMap, Gmr, Tuple};
use dbtoaster_runtime::{Engine, EngineStats, MapId, RuntimeError};
use dbtoaster_sql::{OutputColumn, TranslatedQuery};
use dbtoaster_telemetry::{MetricsSnapshot, Stage, Telemetry, TelemetryConfig, ValueGroup};
use std::fmt;
use std::marker::PhantomData;
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
    /// amortizing the per-publish cost (a patch or copy per written
    /// published view; see the module docs for which views those are). Zero
    /// publishes after every batch. Barriers ([`ViewServer::flush`]) always
    /// force a publish, so staleness is bounded by this interval.
    pub publish_interval: Duration,
    /// When set, the writer appends every drained micro-batch to a write-ahead
    /// log **before** applying it, syncs it (per the fsync policy) before any
    /// snapshot, subscriber delta, checkpoint or `flush()` ack covers it, and
    /// checkpoints the materialized state off the hot path. [`ViewServer::spawn`]
    /// opens the directory, recovering whatever state it holds into the
    /// engine it is handed, so a crashed or killed server reopens warm by
    /// spawning a fresh engine on the same directory.
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
    /// The durability layer failed (WAL open/append or checkpoint write).
    Durability(DurabilityError),
    /// The HTTP exporter could not bind or start its listener thread.
    Http(String),
    /// A background thread (writer or checkpointer) could not be spawned —
    /// typically resource exhaustion (EAGAIN). The server never starts
    /// half-assembled: a spawn failure is returned from [`ViewServer::spawn`]
    /// instead of panicking the caller.
    Spawn(String),
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
            ServeError::Durability(e) => write!(f, "durability error: {e}"),
            ServeError::Http(e) => write!(f, "http exporter error: {e}"),
            ServeError::Spawn(e) => write!(f, "thread spawn error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DurabilityError> for ServeError {
    fn from(e: DurabilityError) -> Self {
        ServeError::Durability(e)
    }
}

/// An immutable, batch-atomic snapshot of the published views: the maps the
/// served queries' outputs and the program's results name (see the module
/// docs). The maps that only maintain them are not in it.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    events_applied: u64,
    degraded: bool,
    published: Arc<PublishedViews>,
    /// `views[slot]` is the published view in that slot.
    views: Vec<Gmr>,
}

impl Snapshot {
    /// Snapshot every published view of `engine` as it stands. With a
    /// cursor — the previous published snapshot and, per slot, whether a
    /// subscriber watches that view — also return, per slot, the keys a
    /// watched view wrote since the cursor's snapshot of it, each once
    /// (`None` when its write log cannot tell, see the module docs, and for
    /// a slot nobody watches).
    fn take(
        published: &Arc<PublishedViews>,
        engine: &Engine,
        epoch: u64,
        degraded: bool,
        cursor: Option<(&Snapshot, &[bool])>,
    ) -> (Self, Vec<Written>) {
        let db = engine.database();
        let mut written = Vec::new();
        let views = published
            .ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| match cursor {
                Some((since, watched)) => {
                    let (gmr, keys) = if watched[slot] {
                        db.view_at(id).to_gmr_since(&since.views[slot])
                    } else {
                        (db.view_at(id).to_gmr(), None)
                    };
                    written.push(keys);
                    gmr
                }
                None => db.view_at(id).to_gmr(),
            })
            .collect();
        let snap = Snapshot {
            epoch,
            events_applied: engine.stats().events,
            degraded,
            published: published.clone(),
            views,
        };
        (snap, written)
    }

    /// The publish epoch (0 = initial state, +1 per published batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total events applied by the writer when this snapshot was taken.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// `true` while the WAL is suspended after an I/O failure: events are
    /// applied in memory while the writer retries and re-arms (see
    /// `/healthz`'s `"degraded"` status), and the flag clears once a re-arm
    /// restores the log. A refused event does not set it — the ingest gate
    /// keeps it out of the log and the views, which stay exact (see
    /// `ViewServer::last_error`).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// A published view by name; `None` for any other name, a higher-order
    /// map or stored relation included.
    pub fn view(&self, name: &str) -> Option<&Gmr> {
        let &slot = self.published.slots.get(name)?;
        Some(&self.views[slot])
    }

    /// Names of the published views, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.published.names.iter().map(String::as_str)
    }
}

/// The keys of one subscribed view written between two publishes, each once;
/// `None` when its write log cannot tell, and the two snapshots are diffed in
/// full.
type Written = Option<Vec<Tuple>>;

/// The views every publish covers, resolved once at [`ViewServer::spawn`]
/// and shared by every [`Snapshot`]: slot `i` holds map `ids[i]`, and each
/// published name reads one slot. A program result reads the slot of its
/// map ([`QueryResult::map`]), so a result merged into another query's map
/// shares that query's slot.
///
/// [`QueryResult::map`]: dbtoaster_compiler::QueryResult::map
#[derive(Debug)]
struct PublishedViews {
    /// Every published name, sorted.
    names: Vec<String>,
    ids: Vec<MapId>,
    /// Name → slot.
    slots: FastMap<String, usize>,
}

impl PublishedViews {
    /// The maps named by the served queries' outputs and by the program's
    /// results. A name the engine does not hold is left out; reading it fails
    /// as a missing view would.
    fn resolve(engine: &Engine, queries: &[TranslatedQuery]) -> Self {
        let results = &engine.program().results;
        let mut wanted: Vec<&str> = queries
            .iter()
            .flat_map(|q| &q.outputs)
            .flat_map(views_read)
            .collect();
        wanted.extend(results.iter().map(|r| r.name.as_str()));
        wanted.sort_unstable();
        wanted.dedup();
        let db = engine.database();
        let (mut names, mut ids, mut slots) = (Vec::new(), Vec::new(), FastMap::default());
        for name in wanted {
            let result = results.iter().find(|r| r.name == name);
            let Some(id) = db.id(result.map_or(name, |r| &r.map)) else {
                continue;
            };
            let slot = match ids.iter().position(|&held| held == id) {
                Some(slot) => slot,
                None => {
                    ids.push(id);
                    ids.len() - 1
                }
            };
            names.push(name.to_string());
            slots.insert(name.to_string(), slot);
        }
        PublishedViews { names, ids, slots }
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

enum Msg {
    Event(UpdateEvent),
    Events(Vec<UpdateEvent>),
    Barrier(mpsc::Sender<u64>),
    /// A barrier answered with every map ([`ViewServer::all_maps`]).
    ReadAll(mpsc::Sender<FastMap<String, Gmr>>),
    Subscribe(SubscribeReq),
    Stop,
}

struct SubscribeReq {
    /// The published slot of the view whose changes the subscriber receives.
    slot: usize,
    tx: mpsc::Sender<OutputDeltaBatch>,
    ack: mpsc::Sender<Arc<Snapshot>>,
}

struct Subscriber {
    slot: usize,
    tx: mpsc::Sender<OutputDeltaBatch>,
}

pub(crate) struct Shared {
    cell: EpochCell<Snapshot>,
    published: Arc<PublishedViews>,
    /// The writer engine's stats, copied in once per writer iteration (before
    /// barriers are acked). Each side holds the lock for one copy.
    stats: Mutex<EngineStats>,
    /// Checkpoints written, counted off the writer thread by
    /// [`take_checkpoint`](crate::durable); starts at the served engine's count and is
    /// overlaid on `stats` when it is read.
    pub(crate) checkpoints_taken: AtomicU64,
    /// Watermark (events applied) of the newest successfully written
    /// checkpoint; `/healthz` reports `events - watermark` as checkpoint lag.
    pub(crate) checkpoint_watermark: AtomicU64,
    queries: FastMap<String, TranslatedQuery>,
    program: Arc<TriggerProgram>,
    /// Is the server durable? Gates the checkpoint-lag readout in `/healthz`.
    durable: bool,
    error: Mutex<Option<RuntimeError>>,
    pub(crate) durability_error: Mutex<Option<DurabilityError>>,
    /// Startup provenance (e.g. a degraded recovery), kept apart from
    /// `durability_error` so it can never mask a later runtime failure.
    pub(crate) durability_warning: Mutex<Option<DurabilityError>>,
    /// The error that pushed the WAL into degraded mode; cleared by a
    /// successful re-arm. Whether the WAL is degraded (durability suspended
    /// while the writer retries and re-arms, serving from memory) is the
    /// `degraded` gauge in `tel`, and how often it retried the `io_retries`
    /// counter. Distinct from `durability_error`, the *permanent*-failure
    /// latch: `/healthz` reports `"degraded"` (still 200) for the one and
    /// `"unhealthy"` (503) for the other.
    pub(crate) degraded_error: Mutex<Option<String>>,
    /// Unix-epoch seconds of the last armed ↔ degraded/failed transition.
    pub(crate) last_transition_epoch: AtomicU64,
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
    pub(crate) tel: Telemetry,
}

impl Shared {
    /// The writer engine's stats as of its last iteration, with the
    /// checkpoint thread's count overlaid.
    fn stats(&self) -> EngineStats {
        let mut stats = *self.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.checkpoints_taken = self.checkpoints_taken.load(Relaxed);
        stats
    }
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
    /// publishes its current state as the epoch-0 snapshot. `queries` are
    /// the SQL queries whose result tables [`ReaderHandle::query`] assembles
    /// (their `outputs` and `group_by`), as `dbtoaster_sql::translate`
    /// returned them; an engine built without SQL serves its program's
    /// results with none.
    ///
    /// With [`ServerConfig::durability`] set, this is the one durable open.
    /// Under the directory's writer lock, held from the first read until the
    /// server stops, it recovers the directory's state into `engine` (newest
    /// usable checkpoint plus WAL replay, bit for bit; see
    /// [`dbtoaster_durability::recover()`]), writes an initial checkpoint if
    /// the directory has none, and opens the write-ahead log. Hand it a fresh
    /// engine with its static tables loaded: one that has applied events is
    /// refused on a directory that holds state. A recovery that skipped
    /// damaged checkpoints is reported by [`ViewServer::durability_warning`].
    /// Opening the directory is the only error path.
    pub fn spawn(
        mut engine: Engine,
        queries: Vec<TranslatedQuery>,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        // Reuse a telemetry handle the caller already attached (so their
        // counters keep accumulating); otherwise start a fresh enabled one.
        let tel = match engine.telemetry() {
            Some(t) if t.is_enabled() => t.clone(),
            _ => Telemetry::with_config(config.telemetry.clone()),
        };
        engine.set_telemetry(tel.clone());
        let mut durable = match &config.durability {
            Some(cfg) => Some(DurableState::open(cfg, &mut engine, &tel)?),
            None => None,
        };

        let published = Arc::new(PublishedViews::resolve(&engine, &queries));
        let initial = Arc::new(Snapshot::take(&published, &engine, 0, false, None).0);
        let shared = Arc::new(Shared {
            cell: EpochCell::new(initial.clone()),
            published,
            stats: Mutex::new(*engine.stats()),
            checkpoints_taken: AtomicU64::new(engine.stats().checkpoints_taken),
            checkpoint_watermark: AtomicU64::new(0),
            queries: queries.into_iter().map(|q| (q.name.clone(), q)).collect(),
            program: engine.program_shared(),
            durable: config.durability.is_some(),
            error: Mutex::new(None),
            durability_error: Mutex::new(None),
            durability_warning: Mutex::new(None),
            degraded_error: Mutex::new(None),
            last_transition_epoch: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            writer_alive: AtomicBool::new(true),
            queue_depth: AtomicU64::new(0),
            tel,
        });
        if let Some(d) = &mut durable {
            d.start(&shared)?;
        }
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
    /// Every served result is one published view, so deltas come from that
    /// view's own write log — O(keys it wrote) per publish, or a full diff of
    /// the view when the log cannot tell (see the module docs). A name that
    /// is neither a served query, a program result nor a published view (a
    /// higher-order map's, say) is [`ServeError::UnknownQuery`]; one whose
    /// view the engine does not hold is [`ServeError::UnknownView`].
    pub fn subscribe(&self, query: &str) -> Result<Subscription, ServeError> {
        let view = self.resolve_view(query)?;
        let Some(&slot) = self.shared.published.slots.get(&view) else {
            return Err(ServeError::UnknownView(view));
        };
        let (tx, rx) = mpsc::channel();
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Msg::Subscribe(SubscribeReq {
                slot,
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

    /// The maintained view a query's output is read from, for delta
    /// computation: a served query with one aggregate, a program result, or
    /// a published view by its own name. A higher-order map or stored
    /// relation is never published, so its name is a
    /// [`ServeError::UnknownQuery`] here, as [`ReaderHandle::view`] returns
    /// `None` for it; [`ViewServer::all_maps`] reads it cold.
    fn resolve_view(&self, query: &str) -> Result<String, ServeError> {
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
                return Ok(view.clone());
            }
            if !aggs.is_empty() {
                return Err(ServeError::MultiViewOutput {
                    query: query.to_string(),
                    views: aggs
                        .into_iter()
                        .flat_map(views_read)
                        .map(String::from)
                        .collect(),
                });
            }
        }
        // 2. A published view by its own name, a compiled program result's
        // included (covers engine-level spawns).
        if self.shared.published.slots.contains_key(query) {
            return Ok(query.to_string());
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

    /// Every map the engine holds — the published views, the higher-order
    /// maps that maintain them and stored relations — covering every event
    /// enqueued before this call. A cold read for checks and debugging, not
    /// for serving: it travels through the ingest queue like
    /// [`ViewServer::flush`] (publishing what it covers), and the writer
    /// answers it with [`Engine::snapshot`] between batches. That copies each
    /// unpublished map, whose writes are then logged until the log outgrows
    /// the patch budget and switches itself off (see `dbtoaster_runtime::store`).
    pub fn all_maps(&self) -> Result<FastMap<String, Gmr>, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.tx
            .send(Msg::ReadAll(tx))
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// The writer engine's [`EngineStats`] as of its last iteration: events,
    /// batches, publishes, fan-out and durability counters, cumulative over
    /// the engine's life (a re-served engine keeps counting). A caller
    /// returning from [`ViewServer::flush`] sees counters that cover its
    /// events; `checkpoints_taken` is read live from the checkpoint thread.
    /// The writer's time is in [`ViewServer::metrics`] (its batch
    /// histogram and stage timings); the stats hold counts only.
    /// Snapshot work is per view, in [`ViewServer::metrics`].
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// A point-in-time telemetry snapshot: batch-latency percentiles,
    /// per-stage timings (ingest wait, WAL append, kernel execute, snapshot
    /// publish, fan-out, checkpoint write), per-view counters and
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
    /// operator trees, each relation's plan (its live pass and `:=` tail),
    /// and live per-view counters joined in from the telemetry
    /// registry. Render with [`ProgramExplain::render_text`] or
    /// [`ProgramExplain::render_json`]; also served over HTTP as `/explain`.
    pub fn explain(&self) -> ProgramExplain {
        explain_program(&self.shared)
    }

    /// The server's shared [`Telemetry`] handle, for custom counters or
    /// JSON-line trace export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tel
    }

    /// Why the first event the writer refused was refused, if it refused
    /// one. The ingest gate ([`Engine::admits`]) runs before the WAL
    /// append: a refused event is neither logged nor applied, every view
    /// stays what the admitted events make it, and the writer keeps serving
    /// without marking snapshots [`Snapshot::degraded`].
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
    /// skipped damaged checkpoints, recorded when [`ViewServer::spawn`]
    /// opened the directory — or a transient checkpoint failure. Kept in its
    /// own slot so it can never mask a later *runtime* failure reported by
    /// [`ViewServer::last_durability_error`].
    pub fn durability_warning(&self) -> Option<DurabilityError> {
        self.shared
            .durability_warning
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Events currently queued but not yet drained by the writer.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queue_depth.load(Relaxed)
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

    /// A published view from the current snapshot (O(1): the GMR shares the
    /// snapshot's map); `None` for a higher-order map or stored relation,
    /// which are never published.
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
        // A published view by its own name, or a program result's, whose
        // key columns are named as its own query names them.
        let results = &self.shared.program.results;
        let result = results.iter().find(|r| r.name == name);
        match snap.view(name) {
            Some(g) => {
                let keys = result.map_or(g.schema().columns(), |r| &r.out_vars);
                Ok(table_from_gmr(name, keys, g))
            }
            None => Err(ServeError::UnknownQuery(name.to_string())),
        }
    }
}

/// Render a raw GMR as a result table: its key columns, named `keys`,
/// followed by one multiplicity column named after the query.
fn table_from_gmr(name: &str, keys: &[String], gmr: &Gmr) -> ResultTable {
    let mut columns: Vec<String> = keys.to_vec();
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
    // Recycled input-side delta batch (per-relation GMR deltas), rebuilt
    // from each drained micro-batch with zero steady-state allocation.
    let mut delta = dbtoaster_agca::DeltaBatch::new();
    let mut epoch = 0u64;
    let mut batch: Vec<UpdateEvent> = Vec::with_capacity(max_batch);
    // Events applied but not yet published. Publishing is *coalesced*: under
    // sustained load the writer publishes once per `publish_interval` (or
    // every `max_batch` events, whichever comes first) instead of after every
    // drained batch, amortizing the per-publish cost while keeping snapshot
    // staleness bounded.
    let mut pending_events = 0u64;
    let mut last_publish = Instant::now();
    let mut stop = false;
    let mut disconnected = false;
    // Per published slot: does a subscriber watch it? (Rebuilt per publish.)
    let mut watched: Vec<bool> = Vec::new();

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
        let mut reads: Vec<mpsc::Sender<FastMap<String, Gmr>>> = Vec::new();
        let mut joining: Vec<SubscribeReq> = Vec::new();
        let mut staged = first;
        while let Some(msg) = staged.take() {
            match msg {
                Msg::Event(ev) => batch.push(ev),
                Msg::Events(evs) => batch.extend(evs),
                Msg::Barrier(tx) => barriers.push(tx),
                Msg::ReadAll(tx) => reads.push(tx),
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

        let drained = batch.len() as u64;
        // The ingest gate, before the log: an event the catalog's types
        // refuse is neither logged nor applied.
        batch.retain(|ev| match engine.admits(ev) {
            Ok(()) => true,
            Err(e) => {
                let mut slot = shared.error.lock().unwrap_or_else(|p| p.into_inner());
                slot.get_or_insert(e);
                false
            }
        });
        // Write-ahead: the batch is appended to the log before any of its
        // statements run, and its sync (per the fsync policy) runs on the
        // WAL's sync thread while they do. `end_batch` below waits for it
        // before anything — a snapshot, a subscriber delta, a cold read, a
        // checkpoint or a `flush()` ack — can cover the batch, so none ever
        // reflects an event the log might lose.
        if let Some(d) = durable.as_mut() {
            // Called even with an empty batch: in degraded mode every writer
            // iteration doubles as a re-arm tick. The return value is not a
            // latch — snapshot degradation is read off the health state
            // below, so a successful re-arm clears it; it only says whether
            // the log took the batch.
            if d.log_batch(&batch, &engine, &shared) {
                engine.stats_mut().wal_bytes_written = d.wal_bytes_written();
            }
        }
        if drained > 0 {
            // Producers incremented before enqueueing, so the gauge holds at
            // least `drained` here.
            shared.queue_depth.fetch_sub(drained, Relaxed);
        }
        if !batch.is_empty() {
            // Coalesced publication now also means coalesced *computation*:
            // the drained micro-batch becomes one DeltaBatch of per-relation
            // GMR deltas, each event folded straight into its relation's
            // one run, processed with per-batch (not per-event) kernel
            // dispatch. WAL replay rebuilds the same DeltaBatch per logged
            // record, so live and recovered state stay bit-exact. The events
            // were already logged above, so each event's tuple becomes its
            // delta key as it is, uncopied.
            delta.refill(batch.drain(..));
            engine.process_batch(&delta);
        }
        // The batch's sync returns here, or the WAL leaves armed mode (the
        // snapshot below is then marked degraded): everything after this
        // point may make the batch observable.
        if let Some(d) = durable.as_mut() {
            d.end_batch(&shared);
        }
        pending_events += drained;
        if drained > 0 {
            engine.stats_mut().batches += 1;
        }

        // Joining subscribers force a publish so their baseline snapshot, the
        // cursor of their first delta batch, covers every event processed
        // before they join.
        let due = pending_events > 0
            && (stop
                || disconnected
                || !barriers.is_empty()
                || !reads.is_empty()
                || !joining.is_empty()
                || pending_events >= max_batch as u64
                || last_publish.elapsed() >= config.publish_interval);
        if due {
            epoch += 1;
            let t_pub = Instant::now();
            // Degradation tracks the WAL health live, so a re-arm clears it
            // from the next published snapshot on.
            let marked = durable.as_ref().is_some_and(|d| !d.is_armed());
            // Every subscriber's cursor is `last`: it joined at or before
            // the previous publish, whose snapshot the writer still holds.
            watched.clear();
            watched.resize(shared.published.ids.len(), false);
            for sub in &subscribers {
                watched[sub.slot] = true;
            }
            let cursor = (!subscribers.is_empty()).then_some((&*last, &watched[..]));
            let (snap, written) = Snapshot::take(&shared.published, &engine, epoch, marked, cursor);
            let snap = Arc::new(snap);
            let snap_cost = t_pub.elapsed();
            pending_events = 0;
            let fanned = {
                let _t = shared.tel.stage_guard(Stage::Fanout);
                fan_out(&mut subscribers, &written, &last, &snap, epoch)
            };
            let t_swap = Instant::now();
            shared.cell.publish(snap.clone());
            // Snapshot construction (per written published view: patch the
            // buffer of two publishes ago, or copy the view if someone still
            // holds it) plus the epoch swap; fan-out is timed separately
            // above.
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
            // Fold the engine's thread-local telemetry buffers into the shared
            // registry at every publish, so a barrier-acked reader's
            // `metrics()` covers all its events (and each view's snapshot
            // work, refreshed by this one walk over the maps).
            engine.flush_telemetry();
        }
        // Checkpoint accounting rides the batch boundary: the snapshot
        // handoff happens here (O(1) per published view right after a
        // publish, a copy or patch per unpublished map; see `CkptJob`), the
        // serialization in the checkpoint thread.
        if let Some(d) = durable.as_mut() {
            if drained > 0 {
                d.maybe_checkpoint(&engine, drained);
            }
        }

        // Copy the stats out before acking barriers so a caller returning
        // from `flush()` observes counters that cover its events.
        *shared.stats.lock().unwrap_or_else(|p| p.into_inner()) = *engine.stats();

        for req in joining.drain(..) {
            // The baseline is the last published snapshot: the subscriber's
            // first delta batch is computed against exactly that state.
            let _ = req.ack.send(last.clone());
            subscribers.push(Subscriber {
                slot: req.slot,
                tx: req.tx,
            });
        }
        if !barriers.is_empty() {
            // A barrier ack asserts durability up to `epoch`: sync whatever
            // the policy left unsynced first.
            if let Some(d) = durable.as_mut() {
                d.barrier_sync(&shared);
            }
        }
        for tx in barriers.drain(..) {
            // `due` above guarantees all events ahead of this barrier are
            // published, so `epoch` covers them.
            let _ = tx.send(epoch);
        }
        for tx in reads.drain(..) {
            let _ = tx.send(engine.snapshot());
        }
    }
    engine.flush_telemetry(); // final fold so post-shutdown metrics are complete
    shared.writer_alive.store(false, Relaxed);
    let crashed = shared.killed.load(Relaxed);
    if let Some(d) = durable.take() {
        d.shutdown(&engine, !crashed, &shared);
    }
    // The checkpoint thread counted its checkpoints (the final one too) off
    // this thread; hand the count back with the engine.
    engine.stats_mut().checkpoints_taken = shared.checkpoints_taken.load(Relaxed);
    engine
}

/// Compute and deliver each subscriber's delta batch, dropping subscribers
/// whose receiver is gone; returns the number of delta records delivered.
/// `written[slot]` holds the keys the view in `slot` wrote since `old`.
/// Every subscriber receives a message per publish (empty when its
/// query's output did not change), which doubles as the liveness probe that
/// lets the writer prune dropped subscribers.
fn fan_out(
    subscribers: &mut Vec<Subscriber>,
    written: &[Written],
    old: &Snapshot,
    new: &Snapshot,
    epoch: u64,
) -> u64 {
    let mut fanned = 0u64;
    subscribers.retain(|sub| {
        let slot = sub.slot;
        let deltas = output_deltas(&old.views[slot], &new.views[slot], &written[slot]);
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

/// The output deltas of one view between two consecutive snapshots: old and
/// new compared at each written key, or everywhere when the keys are unknown.
fn output_deltas(old: &Gmr, new: &Gmr, written: &Written) -> Vec<OutputDelta> {
    let Some(keys) = written else {
        return full_diff(old, new);
    };
    keys.iter()
        .filter_map(|key| changed(key, old.get(key), new.get(key)))
        .collect()
}

/// The delta of one key, unless its multiplicity kept its bits.
fn changed(key: &Tuple, old_mult: f64, new_mult: f64) -> Option<OutputDelta> {
    (old_mult.to_bits() != new_mult.to_bits()).then(|| OutputDelta {
        key: key.clone(),
        old_mult,
        new_mult,
    })
}

/// Diff two states of one view key by key: each key `old` holds, then each
/// key only `new` holds (a stored multiplicity is never zero).
fn full_diff(old: &Gmr, new: &Gmr) -> Vec<OutputDelta> {
    let held = old
        .iter()
        .filter_map(|(key, om)| changed(key, om, new.get(key)));
    let appeared = new
        .iter()
        .filter(|(key, _)| old.get(key) == 0.0)
        .filter_map(|(key, nm)| changed(key, 0.0, nm));
    held.chain(appeared).collect()
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
/// and relation plans, with live per-view counters joined in from the
/// telemetry registry.
pub(crate) fn explain_program(shared: &Shared) -> ProgramExplain {
    let mut ex = dbtoaster_compiler::explain(&shared.program);
    let snap = shared.tel.snapshot();
    if snap.enabled {
        ex.attach_stats(|name| snap.view(name).cloned());
        ex.attach_index_stats(|name| snap.view(name).cloned());
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
    let stats = shared.stats();
    let queue_depth = shared.queue_depth.load(Relaxed);
    let epoch = shared.cell.epoch();
    let watermark = shared.checkpoint_watermark.load(Relaxed);
    let error = lock_opt(&shared.error).map(|e| e.to_string());
    let durability_error = lock_opt(&shared.durability_error).map(|e| e.to_string());
    let durability_warning = lock_opt(&shared.durability_warning).map(|e| e.to_string());
    // The WAL's health is the telemetry `/metrics` exports; a server
    // without durability registers neither, and reports `false` and 0.
    let (degraded, retries) = if shared.durable {
        (
            shared.tel.gauge("degraded").get() == 1,
            shared.tel.counter("io_retries").get(),
        )
    } else {
        (false, 0)
    };
    let degraded_error = lock_opt(&shared.degraded_error);
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
        events = stats.events,
        durable = shared.durable,
        wal_bytes = stats.wal_bytes_written,
        checkpoints = stats.checkpoints_taken,
        dgerr = json_opt_string(degraded_error),
        lag = if shared.durable {
            stats.events.saturating_sub(watermark)
        } else {
            0
        },
        error = json_opt_string(error),
        derr = json_opt_string(durability_error),
        dwarn = json_opt_string(durability_warning),
    );
    (healthy, body)
}

/// `/views`: every view's record from a fresh [`MetricsSnapshot`], as one
/// JSON object: per [`ValueGroup`] — work, resident, snapshot — its
/// undotted values, then each object its dotted values sit in
/// (`"indexes":{…}`, `"snapshot_full_copies":{…}`), in
/// [`VIEW_VALUES`](dbtoaster_telemetry::VIEW_VALUES)
/// order. Inside `indexes`, `ordered_on` follows the count of ordered
/// indexes: the columns they are sorted on, as the compiler declared them.
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
        out.push_str(&format!("{{\"name\":\"{}\"", json_escape(&v.name)));
        for group in [ValueGroup::Work, ValueGroup::Resident, ValueGroup::Snapshot] {
            let (flat, nested): (Vec<_>, Vec<_>) = v
                .group(group)
                .partition(|(value, _)| value.object().is_none());
            for (value, n) in flat {
                out.push_str(&format!(",\"{}\":{n}", value.name));
            }
            for object in nested.chunk_by(|a, b| a.0.object() == b.0.object()) {
                let fields: Vec<String> = object
                    .iter()
                    .map(|(value, n)| match value.name {
                        "indexes.ordered" => {
                            format!("\"ordered\":{n},\"ordered_on\":[{}]", ordered_on.join(","))
                        }
                        _ => format!("\"{}\":{n}", value.key()),
                    })
                    .collect();
                let name = object[0].0.object().unwrap_or_default();
                out.push_str(&format!(",\"{name}\":{{{}}}", fields.join(",")));
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// `/traces`: drain the slow-batch ring as JSON lines (empty body when no
/// batch exceeded the threshold since the last drain).
pub(crate) fn traces_body(shared: &Shared) -> String {
    shared.tel.drain_traces_json()
}
