//! The query engine: executes a compiled trigger program against a stream of updates.
//!
//! The engine owns the [`Database`] of views, stored base relations and static tables.
//! Its native unit of work is the [`DeltaBatch`]: per-relation GMR deltas built from a
//! slice of the update stream (insert = `+1`, delete = `−1`, same-key events collapsed
//! by ring addition — see [`dbtoaster_agca::batch`]). [`Engine::process`] is the
//! degenerate batch of one event; [`Engine::process_batch`] is the real entry point the
//! serving writer and WAL replay use.
//!
//! Per single-tuple firing the execution order is the paper's (Section 7.2):
//!
//! 1. all incremental (`+=`) statements of the matching trigger, which all read the
//!    *old* versions of the views they use — the state before the firing;
//! 2. the update itself is applied to the stored base relation (if it is stored at all —
//!    full Higher-Order IVM usually does not need the base relations);
//! 3. all re-evaluation (`:=`) statements, which read the *new* versions.
//!
//! No firing fails. The catalog types every column a number or a string, `compile`
//! rejects a query that does arithmetic on a string or matches a number against a
//! `LIKE` pattern, and [`Engine::admits`] — the ingest gate — refuses an event whose
//! arity or value kinds do not match its relation before anything runs: a refused event
//! writes nothing and counts in [`BatchReport::failed_events`]. Past the gate every
//! kernel is total; a kernel error there is a corrupt program, and the engine panics
//! naming the statement's target.
//!
//! ## Batch execution
//!
//! One executor, **batch-delta**, runs that sequence once per *run* instead of once
//! per event (see the compiler's `batch_delta` module for the derivation):
//!
//! 1. every `+=` statement of both sign triggers that reads nothing the run writes is
//!    evaluated for all entries back-to-back against the *pre-run* state with its
//!    writes buffered (statement prelude and loop-invariant fused scans amortized over
//!    the run). When some statement does read a map the same run writes — the
//!    relation's live pass lists it, and the maps it reads are the relation's *live
//!    maps* — one **live pass** over the run's firings follows, in entry order: per
//!    firing, every listed statement is evaluated against the store, then whatever the
//!    firing writes to a live map — rows just evaluated or rows buffered before the
//!    pass, the base update last — is written at once, so the next firing reads what
//!    per-event processing would have it read, through the same single lookup (a range
//!    sum stays one search of one ordered index, whatever the run has added to it).
//!    The pass costs what its statements cost per event; it is skipped for runs of at
//!    most one firing and for relations with an empty live pass. Then all writes still
//!    buffered land, one application per statement per run (each write logged by the
//!    target view itself, for its snapshots — see [`crate::store`]);
//! 2. the base update, one pass over the run's net entries (unless the live pass made
//!    it, firing by firing);
//! 3. the `:=` statements of the run's **last event**, once, against the new state — of
//!    a run's per-event `:=` firings only the last one's output survives, and this is
//!    it. A trigger of nothing but `:=` statements (re-evaluation mode) is the
//!    degenerate run: an empty phase 1 and one re-evaluation per run instead of one per
//!    event.
//!
//! A run of one firing — [`Engine::process`], the batch of one event — is the same
//! sequence for one event. Every run of every relation takes this one executor:
//! `compile` derives a live pass for every triggered relation or refuses the program,
//! and [`Engine::new`] panics on a program that leaves a triggered relation without
//! one — a corrupt program, like an unresolved target. Nothing depends on a run's size
//! or the state, so a WAL replay runs the same sequence as the live run. Statements are
//! evaluated through one function, `kernel_rows`, which runs the statement's compiled
//! kernel (reading maps through [`dbtoaster_agca::RelationSource`] by id, emitting
//! `(key, multiplicity)` rows); the compiler rejects a program with a statement it
//! cannot lower, so there is no other evaluator in the engine. The references are
//! per-event processing and the definitions recomputed by `dbtoaster_agca::eval` (the
//! test suites' oracle). See the compiler's `batch_delta` module for the live-pass
//! argument and the `:=` tail (bit-exact on integer-weighted streams; to summation
//! order on float aggregates).
//!
//! A batch holds one run per relation, however its events interleave: every map is a
//! function of the base relations, so processing the batch relation by relation ends
//! where stream order ends (see [`dbtoaster_agca::batch`]). An interleaved stream
//! (alternating bids/asks, TPC-H's Orders and Lineitem) runs as a few runs, not
//! hundreds, and [`Engine::process_batch`] runs a batch as it is built.
//!
//! ## Resolution
//!
//! Nothing on the per-event path finds a map by name. [`Engine::new`] resolves, once:
//!
//! * every statement's target map, every relation's stored base map and, for the live
//!   pass, which of those are the relation's live maps — to [`MapId`]s;
//! * every kernel's relation table (`CompiledStmt::rels`, what its probes, scans,
//!   fused scans and band lookups read) — to the same ids, through which collection,
//!   the live pass, the `:=` tail and static-view initialization all read;
//! * every secondary index a kernel scans — declared on its map before the first
//!   event (the program's `ordered_indexes` and `hash_indexes`), so no read builds
//!   one.
//!
//! A statement whose target does not resolve, or a kernel read of a relation that does
//! not, is a corrupt program and panics where it runs. A map declared later — one only
//! a restored snapshot holds — is resolved when it is declared. What stays a string
//! hash is one lookup per run: its relation's name → the relation's resolved record
//! (its column types for the gate, its dispatch, its stored base map). An event of a relation no trigger reads and no map stores is
//! gated and counted, and nothing else.

use crate::store::{Database, MapId, Seg, SnapshotWork};
use dbtoaster_agca::batch::{DeltaBatch, RelationDelta};
use dbtoaster_agca::eval::RelId;
use dbtoaster_agca::plan::{CompiledStmt, KernelState};
use dbtoaster_agca::{AtomKind, UpdateEvent, UpdateSign};
use dbtoaster_compiler::{
    Catalog, LivePass, RelationMeta, ResultAccess, Statement, StmtOp, TriggerProgram,
};
use dbtoaster_gmr::{FastMap, Gmr, Tuple, Value};
use dbtoaster_telemetry::{
    slot_of, LocalHistogram, RunSpan, SlowBatchTrace, Stage, StmtSpan, Telemetry, ViewRecord,
    ViewSummary, TRACE_ARM_MIN_EVENTS,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors raised while processing events.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A view the caller named was never declared.
    UnknownView(String),
    /// The ingest gate refused an event (or a table row): its relation is not
    /// in the catalog, or its arity or a value's kind does not match the
    /// relation's columns (see [`Engine::admits`]).
    Refused {
        /// The event's relation.
        relation: String,
        /// What does not match.
        reason: String,
    },
    /// The named query is not part of the compiled program.
    UnknownQuery(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownView(v) => write!(f, "unknown view {v}"),
            RuntimeError::Refused { relation, reason } => {
                write!(f, "event for {relation} refused: {reason}")
            }
            RuntimeError::UnknownQuery(q) => write!(f, "unknown query {q}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The outcome of one [`Engine::process_batch`] call. Processing never stops
/// at a refused event: the rest of the batch is applied, and the caller
/// learns how many events were refused and why the first one was.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Stream events the batch covered (applied + refused).
    pub events: u64,
    /// Events the ingest gate refused ([`Engine::admits`]): each
    /// [`DeltaEntry`](dbtoaster_agca::DeltaEntry) whose tuple does not match
    /// its relation counts its events, before any kernel runs, so the count is
    /// the same at every batch size. A refused event writes nothing, and the
    /// views are exactly those of the stream without it; `stats().events`
    /// grows by `events - failed_events`.
    pub failed_events: u64,
    /// Why the first refused event was refused, if any was.
    pub first_error: Option<RuntimeError>,
    /// The relation runs that fired triggers, in processing order. Runs with
    /// no trigger under either sign — base-relation-only updates — are not
    /// recorded. Deterministic for a given program and batch boundaries, so a
    /// WAL replay produces the same sequence as live processing. Empty unless
    /// [`Engine::set_run_recording`] is on (recording costs one small
    /// allocation per run, which the zero-allocation steady-state contract
    /// of the batch-of-1 path cannot afford by default).
    pub runs: Vec<RunRecord>,
}

/// One relation run's execution record inside a [`BatchReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The run's relation name.
    pub relation: String,
    /// Stream events the run covered.
    pub events: u64,
}

/// Runtime statistics: event counts, processing time and memory footprint.
///
/// A serving writer (`ViewServer`) keeps its counters here, in the engine
/// it owns: it adds `batches` (queue drains), `snapshots_published`,
/// `subscriber_deltas`, and, when durable, `wal_bytes_written` and
/// `checkpoints_taken`; these stay zero on a plain single-threaded engine.
/// Every counter is cumulative over the engine's life, across re-serves.
/// `ViewServer::stats()` returns the writer's copy as of its last iteration.
/// Snapshot work is not a field: a plain engine reads it from
/// [`Engine::snapshot_work`], a server from its per-view telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Events applied so far; refused events do not count. A durable serving
    /// writer logs only admitted events, so this is also its WAL watermark.
    pub events: u64,
    /// Statements executed so far.
    pub statements: u64,
    /// Total time spent inside `process` / `process_batch`.
    pub busy: Duration,
    /// Micro-batches drained by a serving writer loop (queue drains; see
    /// [`EngineStats::delta_batches`] for the processing-side unit).
    pub batches: u64,
    /// Delta batches processed through [`Engine::process_batch`] (a plain
    /// [`Engine::process`] call counts as a batch of one).
    pub delta_batches: u64,
    /// Events whose work vanished before any kernel ran because a same-key
    /// opposite-sign event in the same batch cancelled them (ring addition
    /// inside the [`DeltaBatch`]).
    pub batch_events_collapsed: u64,
    /// Snapshots published for concurrent readers.
    pub snapshots_published: u64,
    /// Output-delta records fanned out to subscribers (sum over subscribers).
    pub subscriber_deltas: u64,
    /// Bytes appended to the write-ahead log by a durable serving writer.
    pub wal_bytes_written: u64,
    /// Checkpoints written by a durable serving writer.
    pub checkpoints_taken: u64,
    /// Events replayed from the WAL when this engine was recovered from disk
    /// (0 for engines built fresh or restored purely from a checkpoint).
    pub recovery_replayed_events: u64,
    /// Relation runs executed on the batch-delta path (pre-state evaluation,
    /// the live pass where entries interact, the `:=` tail; see the module
    /// docs).
    pub batch_delta_runs: u64,
    /// Always 0: the statement-major strategy was folded into batch-delta.
    /// Kept, never written, only because the frozen benchmark reads it for
    /// its `runtime.runs_statement_major` ledger row; goes with that row
    /// (ROADMAP, Smaller: the frozen-ledger residue).
    pub statement_major_runs: u64,
    /// Always 0: every run is batch-delta. Kept, never written, only
    /// because the frozen benchmark reads it for its
    /// `runtime.runs_entry_major` ledger row; goes with that row (ROADMAP,
    /// Smaller: the frozen-ledger residue).
    pub entry_major_runs: u64,
}

impl EngineStats {
    /// Average events per processed delta batch (0.0 before the first batch).
    /// Since the batch-first refactor this reflects the size of the
    /// [`DeltaBatch`]es actually driven through the engine, not raw serving
    /// queue drains.
    pub fn events_per_batch(&self) -> f64 {
        if self.delta_batches > 0 {
            self.events as f64 / self.delta_batches as f64
        } else {
            0.0
        }
    }

    /// Average view refresh rate (events per second of processing time), the metric of
    /// Figures 6 and 7.
    pub fn refresh_rate(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// A point-in-time sample used by the trace experiments (Figures 8–10 and 13–18).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSample {
    /// Fraction of the stream processed when the sample was taken.
    pub fraction: f64,
    /// Cumulative processing time in seconds.
    pub elapsed_secs: f64,
    /// Average refresh rate since the start (events / second).
    pub refresh_rate: f64,
    /// Approximate memory footprint of all views, in megabytes.
    pub memory_mb: f64,
}

/// Engine-internal copy of one relation's batch dispatch (trigger indexes
/// fit in `u16`), so run processing never clones strings out of the
/// dispatch table.
#[derive(Clone, Copy, Debug)]
struct DispatchEntry {
    insert: Option<u16>,
    delete: Option<u16>,
    /// Index into [`TriggerProgram::live_passes`] when some statement reads
    /// run-written state, i.e. when multi-firing runs need the live pass
    /// (resolved once at dispatch-build time).
    live_pass: Option<u16>,
    /// The relation's stored base map, if the program keeps one.
    base: Option<MapId>,
    /// Is the base map one of the relation's live maps (the live pass
    /// applies the base update firing by firing)?
    base_live: bool,
    /// Does either trigger have `:=` statements (a run fires them as its
    /// tail)?
    tail: bool,
}

/// One kernel as the engine runs it — a trigger statement's, or a static
/// view's initializer — with the maps it writes and reads resolved to ids
/// (see the module docs on resolution).
#[derive(Clone, Debug, Default)]
struct Bound {
    /// The target map; `None` (a corrupt program) panics where the statement
    /// writes.
    target: Option<MapId>,
    /// The kernel's relation table bound to the database
    /// ([`CompiledStmt::bind`]).
    rels: Vec<Option<RelId>>,
    /// Is the target one of its relation's live maps
    /// ([`LivePass::live_maps`])? The live pass writes its rows firing by
    /// firing.
    live: bool,
}

/// One catalog relation as the per-event path reads it, resolved once (see
/// the module docs on resolution): a run finds its gate, its dispatch and its
/// stored base map through one lookup of its name.
#[derive(Clone, Debug)]
struct Relation {
    /// Its columns and their types: what the gate admits.
    meta: RelationMeta,
    /// Its batch dispatch, when some trigger reads it.
    dispatch: Option<DispatchEntry>,
    /// Its stored base map, if the program keeps one (a dispatched relation's
    /// is also its entry's `base`).
    base: Option<MapId>,
}

impl Relation {
    /// The gate ([`Engine::admits`]) for one row of this relation.
    fn admits(&self, row: &[Value]) -> Result<(), RuntimeError> {
        self.meta
            .check_row(row)
            .map_err(|reason| RuntimeError::Refused {
                relation: self.meta.name.clone(),
                reason,
            })
    }

    /// Does an event of this relation touch nothing — no trigger reads it and
    /// no map stores it? Such an event is gated and counted only.
    fn is_inert(&self) -> bool {
        self.dispatch.is_none() && self.base.is_none()
    }
}

impl DispatchEntry {
    /// The trigger fired by events of `sign`, if the relation has one.
    fn trigger(&self, sign: UpdateSign) -> Option<u16> {
        match sign {
            UpdateSign::Insert => self.insert,
            UpdateSign::Delete => self.delete,
        }
    }
}

/// Run `kernel` for one event `tuple` against `db`, reading through its
/// relation table bound to `rels`, appending its `(key, multiplicity)` rows
/// to `out` and touching no view. Collection, the live pass, the `:=` tail
/// and static-view initialization all come through here. `state` is reused
/// across events — zero per-event allocation in steady state. A trigger slot
/// is written only when it does not already hold the event's very value
/// ([`Value::is_same`]), so the statements of one event fill each column
/// once.
///
/// `first` marks the first of a series of back-to-back evaluations of
/// `kernel` against an unchanged `db`: the kernel's buffers are sized and
/// its loop-invariant fused scans run, and the rest of the series reuses
/// both.
///
/// The kernel is total on what the gate admits (see the module docs), so
/// an error is a corrupt program: it panics, naming the statement's
/// `target`.
#[allow(clippy::too_many_arguments)]
fn kernel_rows(
    state: &mut KernelState,
    db: &Database,
    kernel: &CompiledStmt,
    rels: &[Option<RelId>],
    tuple: &[Value],
    first: bool,
    out: &mut Vec<(Tuple, f64)>,
    target: &str,
) {
    if first {
        state.prepare(kernel);
    }
    for &slot in &kernel.used_trigger_slots {
        let (held, v) = (&mut state.frame[slot as usize], &tuple[slot as usize]);
        if !held.is_same(v) {
            *held = v.clone();
        }
    }
    // The kernel appends to `state.out`: lend it the caller's buffer for the
    // call instead of copying rows across.
    std::mem::swap(&mut state.out, out);
    let res = kernel.execute_batch_entry(db, rels, state, first);
    std::mem::swap(&mut state.out, out);
    if let Err(e) = res {
        panic!("the kernel writing {target} failed on an admitted event (a corrupt program): {e}");
    }
}

/// One statement's deferred (buffered but not yet applied) rows on the
/// batch-delta path: the evaluate phase fills one of these per executed
/// statement, the apply phase walks them in order.
#[derive(Debug, Default)]
struct DeferredStmt {
    /// Trigger index.
    tidx: u16,
    /// Statement index within the trigger.
    stmt: u16,
    /// Entry boundaries into `rows` with per-entry repetition counts.
    segs: Vec<Seg>,
    /// Buffered `(key, multiplicity)` rows.
    rows: Vec<(Tuple, f64)>,
    /// The live pass already applied these rows (the target is a map the
    /// run's own statements read): the apply phase only accounts for them.
    applied: bool,
}

/// Pooled [`DeferredStmt`] buffers for batch-delta execution. `live` marks
/// how many slots the current run has filled; discarding a run's work is just
/// `live = 0` (buffers keep their capacity for the next run).
#[derive(Debug, Default)]
struct BdScratch {
    stmts: Vec<DeferredStmt>,
    live: usize,
    /// The live pass already applied the run's base update, firing by firing
    /// (the relation's own stored slice is a map its statements read).
    base_applied: bool,
}

impl BdScratch {
    /// Acquire the next pooled buffer, cleared and tagged.
    fn acquire(&mut self, tidx: u16, stmt: u16) -> &mut DeferredStmt {
        if self.live == self.stmts.len() {
            self.stmts.push(DeferredStmt::default());
        }
        let slot = &mut self.stmts[self.live];
        self.live += 1;
        slot.tidx = tidx;
        slot.stmt = stmt;
        slot.segs.clear();
        slot.rows.clear();
        slot.applied = false;
        slot
    }
}

/// The DBToaster runtime engine.
pub struct Engine {
    program: Arc<TriggerProgram>,
    /// Everything else: a batch borrows the program while it writes this.
    exec: Executor,
}

/// What an [`Engine`] runs its program against: the store, the resolved
/// dispatch and statements, and the scratch every batch reuses. The run
/// methods take the program as an argument, borrowed from the engine for
/// the batch.
struct Executor {
    db: Database,
    stats: EngineStats,
    /// Reusable kernel execution state (frame, pattern buffers, scratch maps,
    /// work counters), shared by every execution path.
    kernel: KernelState,
    /// Recycled row buffer of one statement firing (the `:=` tail, static
    /// views).
    rows: Vec<(Tuple, f64)>,
    /// Batch-delta deferred-statement buffers (pooled across runs).
    bd: BdScratch,
    /// Recycled batch-of-1 for [`Engine::process`] (zero-allocation wrapper).
    single: DeltaBatch,
    /// Recycled copy of a batch without the entries the gate refused.
    admitted: DeltaBatch,
    /// The catalog's relations, resolved ([`Relation`]), and their positions
    /// by name: the one string lookup of a run.
    relations: Vec<Relation>,
    relation_ids: FastMap<String, u32>,
    /// Per run of the batch being processed: its position in `relations`
    /// (`None`: a relation the catalog does not declare, which the gate
    /// refuses).
    run_rels: Vec<Option<u32>>,
    /// `[trigger][statement]` → the statement's kernel, resolved.
    stmts: Vec<Vec<Bound>>,
    /// Per [`TriggerProgram::maps`] entry: its initializer kernel, resolved
    /// (default where the map has none).
    inits: Vec<Bound>,
    /// Fill [`BatchReport::runs`] with per-run records (off by default; see
    /// [`Engine::set_run_recording`]).
    record_runs: bool,
    /// Telemetry buffers, present only after [`Engine::set_telemetry`] with
    /// an enabled handle. `None` keeps the hot path at one predictable
    /// branch per batch.
    tel: Option<Box<TelemetryState>>,
}

/// How many delta batches between automatic telemetry flushes (local
/// histogram buffers and per-view pendings folded into the shared atomics).
const TELEMETRY_FLUSH_BATCHES: u64 = 64;

/// Reused scratch for one statement span of an armed batch (strings and
/// vectors recycled — assembling an owned [`SlowBatchTrace`] only happens on
/// the slow path).
#[derive(Debug, Default)]
struct StmtScratch {
    target: String,
    nanos: u64,
    rows: u64,
}

/// Reused scratch for one relation run of an armed batch.
#[derive(Debug, Default)]
struct RunScratch {
    relation: String,
    /// "batch-delta", or "base-only" for a run that fired no trigger.
    strategy: &'static str,
    events: u64,
    entries: u64,
    nanos: u64,
    live_firings: u64,
    stmts: Vec<StmtScratch>,
    stmts_live: usize,
}

/// Engine-side telemetry buffers. Everything recorded per event or per batch
/// lands in plain-integer locals (no atomics, no extra clock reads on the
/// batch-of-1 path beyond the pre-existing busy-time pair); the shared
/// [`Telemetry`] atomics are touched only by [`Engine::flush_telemetry`],
/// which runs automatically every [`TELEMETRY_FLUSH_BATCHES`] batches.
struct TelemetryState {
    tel: Telemetry,
    /// Whole-batch latency (the existing busy-time `Instant` pair re-used).
    batch_hist: LocalHistogram,
    /// Kernel-execute latency of the runs that fired triggers.
    kernel_hist: LocalHistogram,
    /// Shared per-view records, index-aligned with `map_ids` and the
    /// kernel's [`dbtoaster_agca::KernelCounters`] slots.
    views: Vec<Arc<ViewRecord>>,
    map_ids: Vec<MapId>,
    /// Un-flushed per-view deltas (plain adds on the hot path).
    pending_rows: Vec<u64>,
    pending_live: Vec<u64>,
    /// `[tidx][stmt]` → view slot of the trigger statement's target.
    stmt_slot: Vec<Vec<u32>>,
    /// Events/batches already folded into the telemetry counters.
    flushed_events: u64,
    flushed_batches: u64,
    slow_threshold_nanos: u64,
    /// Span timing armed for the current batch (big enough to amortize the
    /// per-run/per-statement clock reads; never the batch-of-1 path).
    armed: bool,
    runs: Vec<RunScratch>,
    runs_live: usize,
}

impl TelemetryState {
    /// Start a run span (armed batches only). Strings are recycled.
    fn begin_run(&mut self, relation: &str, events: u64, entries: usize) {
        if self.runs_live == self.runs.len() {
            self.runs.push(RunScratch::default());
        }
        let r = &mut self.runs[self.runs_live];
        r.relation.clear();
        r.relation.push_str(relation);
        r.strategy = "";
        r.events = events;
        r.entries = entries as u64;
        r.nanos = 0;
        r.live_firings = 0;
        r.stmts_live = 0;
        self.runs_live += 1;
    }

    /// Count one live-pass evaluation of statement `j` of trigger `tidx`,
    /// returning the counter slot of its target view.
    fn note_live_firing(&mut self, tidx: usize, j: usize) -> Option<usize> {
        if self.armed && self.runs_live > 0 {
            self.runs[self.runs_live - 1].live_firings += 1;
        }
        let slot = *self.stmt_slot.get(tidx)?.get(j)? as usize;
        *self.pending_live.get_mut(slot)? += 1;
        Some(slot)
    }

    /// Close the current run span; `fired`: the run fired triggers.
    fn end_run(&mut self, fired: bool, nanos: u64) {
        let r = &mut self.runs[self.runs_live - 1];
        r.strategy = if fired { "batch-delta" } else { "base-only" };
        r.nanos = nanos;
        if fired {
            self.kernel_hist.record(nanos);
        }
    }

    /// Record one statement span under the current run.
    fn stmt_span(&mut self, target: &str, nanos: u64, rows: u64) {
        if self.runs_live == 0 {
            return;
        }
        let r = &mut self.runs[self.runs_live - 1];
        if r.stmts_live == r.stmts.len() {
            r.stmts.push(StmtScratch::default());
        }
        let s = &mut r.stmts[r.stmts_live];
        s.target.clear();
        s.target.push_str(target);
        s.nanos = nanos;
        s.rows = rows;
        r.stmts_live += 1;
    }

    /// Build an owned trace from the scratch spans (slow path; allocates).
    fn assemble_trace(&self, elapsed_nanos: u64, events: u64) -> SlowBatchTrace {
        SlowBatchTrace {
            seq: 0, // assigned by the ring
            elapsed_nanos,
            threshold_nanos: self.slow_threshold_nanos,
            events,
            runs: self.runs[..self.runs_live]
                .iter()
                .map(|r| RunSpan {
                    relation: r.relation.clone(),
                    strategy: r.strategy.to_string(),
                    events: r.events,
                    entries: r.entries,
                    nanos: r.nanos,
                    live_firings: r.live_firings,
                    statements: r.stmts[..r.stmts_live]
                        .iter()
                        .map(|s| StmtSpan {
                            target: s.target.clone(),
                            nanos: s.nanos,
                            rows: s.rows,
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Total rows one buffered statement will apply: emitted rows times the
/// per-entry repetition count.
fn segs_rows(segs: &[Seg]) -> u64 {
    segs.iter()
        .map(|s| (s.end - s.start) as u64 * s.reps as u64)
        .sum()
}

impl Engine {
    /// Build an engine for a compiled program. `catalog` supplies the column names of
    /// stored base relations and declares every static table, whether or not a view
    /// reads it, so [`Engine::load_table`] can fill any of them. A program that
    /// leaves a triggered relation without a live pass is corrupt: this panics,
    /// naming the relation.
    pub fn new(program: TriggerProgram, catalog: &Catalog) -> Self {
        let mut db = Database::new();
        for m in &program.maps {
            db.declare(m.name.clone(), m.out_vars.iter().cloned());
        }
        let tables = catalog
            .relations()
            .iter()
            .filter(|r| r.kind == AtomKind::Table);
        for rel in program
            .stored_relations
            .iter()
            .chain(program.static_tables.iter())
            .chain(tables.map(|r| &r.name))
        {
            if db.contains(rel) {
                continue;
            }
            let columns: Vec<String> = catalog
                .get(rel)
                .map(|r| r.columns.clone())
                .unwrap_or_default();
            db.declare(rel.clone(), columns);
        }
        let relations: Vec<Relation> = catalog
            .relations()
            .iter()
            .map(|meta| Relation {
                meta: meta.clone(),
                dispatch: None,
                base: None,
            })
            .collect();
        let relation_ids = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.meta.name.clone(), i as u32))
            .collect();
        let exec = Executor {
            db,
            stats: EngineStats::default(),
            kernel: KernelState::default(),
            rows: Vec::new(),
            bd: BdScratch::default(),
            single: DeltaBatch::new(),
            admitted: DeltaBatch::new(),
            relations,
            relation_ids,
            run_rels: Vec::new(),
            stmts: Vec::new(),
            inits: Vec::new(),
            record_runs: false,
            tel: None,
        };
        let mut engine = Engine {
            program: Arc::new(program),
            exec,
        };
        engine.resolve();
        engine
    }

    /// Resolve what the per-event path addresses by position (see the module
    /// docs): declare every secondary index the program's kernels scan, then
    /// resolve every catalog relation's dispatch and base map and bind every
    /// statement and static-view initializer to map ids. Run by
    /// [`Engine::new`] and again whenever a map is declared later; the
    /// declarations are idempotent and a map keeps its id. A triggered
    /// relation without a live pass is a corrupt program: it panics, naming
    /// the relation.
    fn resolve(&mut self) {
        let Engine {
            program,
            exec:
                Executor {
                    db,
                    relations,
                    relation_ids,
                    stmts,
                    inits,
                    ..
                },
        } = self;
        for decl in program.ordered_indexes() {
            if let Some(view) = db.view_mut(&decl.map) {
                view.declare_ordered(decl.mask, decl.key_pos as usize);
            }
        }
        for decl in program.hash_indexes() {
            if let Some(view) = db.view_mut(&decl.map) {
                view.declare_hash(decl.mask);
            }
        }
        let db = &*db;
        let bind = |target: &str, kernel: &CompiledStmt, lp: Option<&LivePass>| Bound {
            target: db.id(target),
            rels: kernel.bind(db),
            live: lp.is_some_and(|lp| lp.live_maps.iter().any(|m| m == target)),
        };
        *stmts = program
            .triggers
            .iter()
            .map(|t| {
                let lp = program.live_pass_for(&t.relation);
                let bound = t.statements.iter().map(|s| bind(&s.target, &s.kernel, lp));
                bound.collect()
            })
            .collect();
        *inits = program
            .maps
            .iter()
            .map(|m| match &m.init {
                Some(init) => bind(&m.name, init, None),
                None => Bound::default(),
            })
            .collect();
        for r in relations.iter_mut() {
            r.base = db.id(&r.meta.name);
        }
        for d in program.batch_dispatch() {
            let Some(lp) = program
                .live_passes
                .iter()
                .position(|lp| lp.relation == d.relation)
            else {
                panic!(
                    "the triggers of {} have no live pass (a corrupt program: `compile` \
                     derives one for every triggered relation)",
                    d.relation
                );
            };
            // A relation the catalog does not declare never passes the gate.
            let Some(&r) = relation_ids.get(&d.relation) else {
                continue;
            };
            let pass = &program.live_passes[lp];
            let live_pass = (!pass.statements.is_empty()).then_some(lp as u16);
            let base_live = pass.live_maps.contains(&d.relation);
            let tail = program.triggers.iter().any(|t| {
                t.relation == d.relation && t.statements.iter().any(|s| s.op == StmtOp::Replace)
            });
            let r = &mut relations[r as usize];
            r.dispatch = Some(DispatchEntry {
                insert: d.insert.map(|i| i as u16),
                delete: d.delete.map(|i| i as u16),
                live_pass,
                base: r.base,
                base_live,
                tail,
            });
        }
    }

    /// Enable or disable per-run records in [`BatchReport::runs`] (off by
    /// default — recording allocates per run, which the batch-of-1 hot path
    /// keeps at zero). The run *counter* in [`EngineStats`] is always
    /// maintained.
    pub fn set_run_recording(&mut self, enabled: bool) {
        self.exec.record_runs = enabled;
    }

    /// Restore a checkpointed snapshot in place: every map it names is
    /// replaced wholesale and the event counter resumes at `events_applied`,
    /// **without** re-running [`Engine::init_static_views`] — the snapshot
    /// already contains static tables and the views derived from them. This
    /// is the restore half of the durability layer's checkpoint/recovery
    /// protocol; replaying logged events `events_applied+1..` through
    /// [`Engine::process_batch`] afterwards reproduces a never-restarted
    /// engine bit-for-bit.
    pub fn restore(&mut self, maps: impl IntoIterator<Item = (String, Gmr)>, events_applied: u64) {
        let mut declared = false;
        for (name, gmr) in maps {
            let id = match self.exec.db.id(&name) {
                Some(id) => id,
                None => {
                    // Present in the snapshot but not declared here: a
                    // table of another catalog (the checkpoint's
                    // fingerprint covers the program, not the catalog).
                    declared = true;
                    let columns = gmr.schema().columns().iter().cloned();
                    self.exec.db.declare(name, columns)
                }
            };
            self.exec.db.at_mut(id).load_gmr(&gmr);
        }
        if declared {
            self.resolve();
        }
        self.exec.stats.events = events_applied;
    }

    /// A no-op, kept only because the frozen benchmark calls it. The engine
    /// keeps no changed-key log: what a publish changed is read from each
    /// view's own snapshot log ([`crate::ViewMap::to_gmr_since`]).
    pub fn set_change_tracking(&mut self, _enabled: bool) {}

    /// A no-op, kept only because the frozen benchmark calls it (see
    /// [`Engine::set_change_tracking`]).
    pub fn take_changes(&mut self) {}

    /// A consistent point-in-time snapshot of every view and stored relation:
    /// name → shared GMR. Costs O(number of views) plus the keys written since
    /// the previous two snapshots — each written view patches a recycled
    /// buffer — or a full copy of a view whose buffer a reader still holds
    /// (see [`crate::store`]).
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        self.exec.db.snapshot()
    }

    /// What the snapshots taken so far cost, summed over views: keys patched,
    /// entries copied, full copies by reason.
    pub fn snapshot_work(&self) -> SnapshotWork {
        self.exec.db.snapshot_work()
    }

    /// Mutable access to the statistics (the serving layer records batch-level
    /// counters here).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.exec.stats
    }

    /// The compiled program this engine executes.
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// A shared handle to the compiled program (for callers that outlive the
    /// engine borrow, e.g. the serving layer's subscription resolver).
    pub fn program_shared(&self) -> Arc<TriggerProgram> {
        self.program.clone()
    }

    /// The ingest gate: does the catalog admit `event`? It must name a
    /// relation the catalog declares, with one value per column, each of its
    /// column's type ([`ColumnType`](dbtoaster_gmr::ColumnType)). [`Engine::process_batch`] refuses
    /// what this refuses, and a serving writer calls it before the WAL
    /// append, so a refused event is never logged.
    pub fn admits(&self, event: &UpdateEvent) -> Result<(), RuntimeError> {
        self.admits_row(&event.relation, &event.tuple)
    }

    /// [`Engine::admits`] for a tuple of `relation`: an event's, or a table
    /// row's.
    pub fn admits_row(&self, relation: &str, row: &[Value]) -> Result<(), RuntimeError> {
        self.exec.admits_row(relation, row)
    }

    /// May [`Engine::load_table`] load `rows` into `name`? It may when the
    /// catalog declares `name`, the engine stores it (every catalog table is
    /// stored; a stream only when some map keeps its base relation), and
    /// every row passes [`Engine::admits_row`].
    pub fn admits_table(&self, name: &str, rows: &[Vec<Value>]) -> Result<(), RuntimeError> {
        let refused = |reason: &str| RuntimeError::Refused {
            relation: name.to_string(),
            reason: reason.into(),
        };
        match (
            self.exec.relation_ids.contains_key(name),
            self.exec.db.id(name),
        ) {
            (false, _) => Err(refused("the catalog declares no such relation")),
            (true, None) => Err(refused("it is a stream no map stores")),
            (true, Some(_)) => rows.iter().try_for_each(|r| self.admits_row(name, r)),
        }
    }

    /// Load the contents of a static table (each row with multiplicity 1). Call
    /// [`Engine::init_static_views`] after all tables are loaded. The load
    /// must pass [`Engine::admits_table`] (the `QueryEngine` facade asks it
    /// and returns the refusal): a refused load panics here, before any
    /// kernel could read a row.
    pub fn load_table(&mut self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        if let Err(e) = self.admits_table(name, &rows) {
            panic!("load_table: {e}");
        }
        let view = self
            .exec
            .db
            .view_mut(name)
            .expect("admitted tables are stored");
        for r in rows {
            view.add(r, 1.0);
        }
    }

    /// Run the kernels of the views that depend only on static tables and load
    /// the results (the paper's handling of `Nation`, `Region` and the MDDB
    /// metadata). The kernels read only rows the gate admitted, so this
    /// returns `Ok`; the `Result` stays for callers written against it.
    pub fn init_static_views(&mut self) -> Result<(), RuntimeError> {
        let Engine {
            program,
            exec:
                Executor {
                    db,
                    kernel,
                    rows,
                    inits,
                    ..
                },
        } = self;
        for (m, bound) in program.maps.iter().zip(inits.iter()) {
            let Some(init) = &m.init else { continue };
            rows.clear();
            kernel_rows(kernel, db, init, &bound.rels, &[], true, rows, &m.name);
            if let Some(id) = bound.target {
                let view = db.at_mut(id);
                view.clear();
                let all = Seg {
                    start: 0,
                    end: rows.len(),
                    reps: 1,
                };
                view.apply_rows(rows, &[all]);
            }
        }
        Ok(())
    }

    /// Process a single update event: the degenerate batch of one. Exactly
    /// equivalent to the historical per-event path — one run, one entry, one
    /// firing — after one lookup of the event's relation. An event of a
    /// relation no trigger reads and no map stores is gated and counted
    /// only. Any other is copied into the recycled batch of one, so an event
    /// of arity at most [`dbtoaster_gmr::tuple::INLINE_CAP`] (3), whose key
    /// stays inline, allocates nothing in steady state; a wider one —
    /// Lineitem's 16 columns, the order book's 5 — spills its key to one heap
    /// slab per call. Past that copy each statement reads the event's columns
    /// in place and fills a kernel slot only with a value it does not already
    /// hold, and a map write moves the key its statement built.
    pub fn process(&mut self, event: &UpdateEvent) -> Result<(), RuntimeError> {
        let report = self.exec.process(&self.program, event);
        match report.first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Process a delta batch, one batch-delta pass per relation run (see the
    /// module docs). The gate goes first: an entry [`Engine::admits`] would
    /// refuse is taken out of the batch, with its events counted in
    /// [`BatchReport::failed_events`], and the rest is processed as if it had
    /// never held them.
    pub fn process_batch(&mut self, batch: &DeltaBatch) -> BatchReport {
        if batch.is_empty() {
            return BatchReport::default();
        }
        let t0 = Instant::now();
        self.exec.resolve_runs(batch);
        self.exec.execute(&self.program, t0, batch)
    }

    /// Process a sequence of events one at a time, stopping at the first error
    /// (the historical strict API; batching callers use
    /// [`Engine::process_batch`]).
    pub fn process_all<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a UpdateEvent>,
    ) -> Result<(), RuntimeError> {
        for e in events {
            self.process(e)?;
        }
        Ok(())
    }
}

impl Executor {
    /// [`Engine::admits_row`].
    fn admits_row(&self, relation: &str, row: &[Value]) -> Result<(), RuntimeError> {
        match self.relation_ids.get(relation) {
            Some(&r) => self.relations[r as usize].admits(row),
            None => Err(RuntimeError::Refused {
                relation: relation.to_string(),
                reason: "the catalog declares no such relation".into(),
            }),
        }
    }

    /// Resolve each run of `batch` to its relation: `run_rels`, one lookup a
    /// run.
    fn resolve_runs(&mut self, batch: &DeltaBatch) {
        self.run_rels.clear();
        let ids = &self.relation_ids;
        let runs = batch.runs().iter();
        self.run_rels
            .extend(runs.map(|run| ids.get(run.relation()).copied()));
    }

    // -----------------------------------------------------------------------
    // Batch execution
    // -----------------------------------------------------------------------

    /// [`Engine::process`].
    fn process(&mut self, program: &TriggerProgram, event: &UpdateEvent) -> BatchReport {
        let t0 = Instant::now();
        let rel = self.relation_ids.get(&event.relation).copied();
        if let Some(r) = rel.filter(|&r| self.relations[r as usize].is_inert()) {
            let mut report = BatchReport {
                events: 1,
                ..BatchReport::default()
            };
            if let Err(e) = self.relations[r as usize].admits(&event.tuple) {
                report.failed_events = 1;
                report.first_error = Some(e);
            }
            self.arm(report.events);
            self.end_batch(t0, &report, false);
            return report;
        }
        let mut single = std::mem::take(&mut self.single);
        single.clear();
        single.push(event);
        self.run_rels.clear();
        self.run_rels.push(rel);
        let report = self.execute(program, t0, &single);
        self.single = single;
        report
    }

    /// [`Engine::process_batch`] of a non-empty batch, started at `t0`, whose
    /// runs `run_rels` resolves.
    fn execute(
        &mut self,
        program: &TriggerProgram,
        t0: Instant,
        batch: &DeltaBatch,
    ) -> BatchReport {
        let mut report = BatchReport {
            events: batch.events(),
            ..BatchReport::default()
        };
        // The ingest gate: a batch holding an entry it refuses is processed
        // as a copy without that entry.
        let mut admitted: Option<DeltaBatch> = None;
        let admits_run = |(run, r): (&RelationDelta, &Option<u32>)| {
            let rel = r.map(|r| &self.relations[r as usize]);
            rel.is_some_and(|rel| run.entries().iter().all(|e| rel.admits(&e.key).is_ok()))
        };
        if !batch.runs().iter().zip(&self.run_rels).all(admits_run) {
            let mut scratch = std::mem::take(&mut self.admitted);
            let mut first = None;
            report.failed_events = batch.retain_into(&mut scratch, |run, e| {
                let refused = self.admits_row(run.relation(), &e.key).err();
                let admitted = refused.is_none();
                first = first.take().or(refused);
                admitted
            });
            report.first_error = first;
            self.resolve_runs(&scratch);
            admitted = Some(scratch);
        }
        let source: &DeltaBatch = admitted.as_ref().unwrap_or(batch);
        let armed = self.arm(report.events);
        let mut run_count = 0u32;
        let mut fired = false;
        let run_rels = std::mem::take(&mut self.run_rels);
        for (run, rel) in source.runs().iter().zip(&run_rels) {
            let rel = rel.expect("the gate admits only relations the catalog declares");
            let rt0 = if armed {
                self.tel
                    .as_deref_mut()
                    .expect("armed implies tel")
                    .begin_run(run.relation(), run.events(), run.entries().len());
                Some(Instant::now())
            } else {
                None
            };
            fired = self.process_run(program, run, rel, &mut report);
            run_count += 1;
            if let Some(rt0) = rt0 {
                let nanos = rt0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.tel
                    .as_deref_mut()
                    .expect("armed implies tel")
                    .end_run(fired, nanos);
            }
        }
        self.run_rels = run_rels;
        self.stats.batch_events_collapsed += source.collapsed_events();
        if let Some(a) = admitted {
            self.admitted = a;
        }
        // Kernel attribution without extra clock reads: a single-run batch
        // (the overwhelmingly common case, and always the batch-of-1 path)
        // is its one run, so the whole batch measurement is the run's
        // kernel-execute time. Multi-run batches were attributed per run
        // above when armed.
        let whole = fired && run_count == 1 && !armed;
        self.end_batch(t0, &report, whole);
        report
    }

    /// Arm per-run/per-statement span timing for a batch of `events` events
    /// if it is big enough to amortize the extra clock reads — never the
    /// batch-of-1 path. Returns whether it armed.
    fn arm(&mut self, events: u64) -> bool {
        match self.tel.as_deref_mut() {
            Some(ts) => {
                ts.runs_live = 0;
                ts.armed = events >= TRACE_ARM_MIN_EVENTS;
                ts.armed
            }
            None => false,
        }
    }

    /// Count a processed batch begun at `t0`: its events, its busy time and,
    /// with telemetry, its latency — also as kernel time when the batch was
    /// one unarmed run that fired triggers (`kernel`) — and a slow-batch
    /// trace; every `TELEMETRY_FLUSH_BATCHES` batches, a flush.
    fn end_batch(&mut self, t0: Instant, report: &BatchReport, kernel: bool) {
        self.stats.events += report.events - report.failed_events;
        self.stats.delta_batches += 1;
        let elapsed = t0.elapsed();
        self.stats.busy += elapsed;
        if let Some(ts) = self.tel.as_deref_mut() {
            let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            ts.batch_hist.record(nanos);
            if kernel {
                ts.kernel_hist.record(nanos);
            }
            if ts.slow_threshold_nanos > 0 && nanos >= ts.slow_threshold_nanos {
                let trace = ts.assemble_trace(nanos, report.events);
                ts.tel.push_trace(trace);
            }
            ts.armed = false;
            if self
                .stats
                .delta_batches
                .is_multiple_of(TELEMETRY_FLUSH_BATCHES)
            {
                self.flush_telemetry();
            }
        }
    }

    /// Run one run of relation `rel` (its position in `relations`). Returns
    /// whether it fired triggers (`false` when it applied only a base
    /// update).
    fn process_run(
        &mut self,
        program: &TriggerProgram,
        run: &RelationDelta,
        rel: u32,
        report: &mut BatchReport,
    ) -> bool {
        let rel = &self.relations[rel as usize];
        let Some(disp) = rel.dispatch else {
            // No trigger for this relation under either sign (e.g. an update
            // to a relation no query depends on): still keep the stored base
            // relation consistent.
            self.apply_base_run(rel.base, run);
            return false;
        };
        self.run_batch_delta(program, disp, run);
        self.stats.batch_delta_runs += 1;
        if self.record_runs {
            report.runs.push(RunRecord {
                relation: run.relation().to_string(),
                events: run.events(),
            });
        }
        true
    }

    /// Route the kernel's work counters at the view slot of a trigger
    /// statement's target (no-op without telemetry).
    #[inline]
    fn set_counter_slot(&mut self, tidx: u16, j: usize) {
        if let Some(ts) = self.tel.as_deref() {
            if let Some(&slot) = ts.stmt_slot.get(tidx as usize).and_then(|v| v.get(j)) {
                if slot != u32::MAX {
                    self.kernel.counter_slot = slot as usize;
                }
            }
        }
    }

    /// A statement-span start time, taken only when the current batch armed
    /// span timing (see [`TelemetryState::armed`]).
    #[inline]
    fn armed_instant(&self) -> Option<Instant> {
        match self.tel.as_deref() {
            Some(ts) if ts.armed => Some(Instant::now()),
            _ => None,
        }
    }

    /// Close a statement span opened by [`Engine::armed_instant`].
    fn note_stmt(&mut self, st0: Option<Instant>, target: &str, rows: u64) {
        if let Some(t0) = st0 {
            let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if let Some(ts) = self.tel.as_deref_mut() {
                ts.stmt_span(target, nanos, rows);
            }
        }
    }

    /// Credit rows written to the current counter slot's view (no-op without
    /// telemetry).
    #[inline]
    fn note_rows(&mut self, rows: u64) {
        if rows == 0 {
            return;
        }
        if let Some(ts) = self.tel.as_deref_mut() {
            if let Some(r) = ts.pending_rows.get_mut(self.kernel.counter_slot) {
                *r += rows;
            }
        }
    }

    /// Evaluate statement `j` of trigger `tidx` for one event tuple against
    /// the current state and apply its rows. Returns the rows produced.
    fn fire_statement(
        &mut self,
        program: &TriggerProgram,
        tidx: u16,
        j: usize,
        tuple: &[Value],
    ) -> u64 {
        let stmt = &program.triggers[tidx as usize].statements[j];
        self.set_counter_slot(tidx, j);
        self.stats.statements += 1;
        let Executor {
            db,
            kernel,
            rows,
            stmts,
            ..
        } = self;
        let bound = &stmts[tidx as usize][j];
        rows.clear();
        kernel_rows(
            kernel,
            db,
            &stmt.kernel,
            &bound.rels,
            tuple,
            true,
            rows,
            &stmt.target,
        );
        let all = Seg {
            start: 0,
            end: rows.len(),
            reps: 1,
        };
        let produced = rows.len() as u64;
        apply_statement_rows(db, stmt, bound.target, &[all], rows);
        self.note_rows(produced);
        produced
    }

    /// Batch-delta execution of one run (see the module docs): collect every
    /// incremental statement's rows over the run's entries against the
    /// pre-run state (for a multi-firing run of a relation with a non-empty
    /// live pass: that pass in place of the statements it lists), apply
    /// the buffers in statement order, apply the base update, fire the last
    /// event's `:=` statements.
    fn run_batch_delta(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
    ) {
        self.collect_batch_delta(program, disp, run);
        {
            let Executor {
                db, bd, tel, stmts, ..
            } = self;
            for ds in &mut bd.stmts[..bd.live] {
                let (t, j) = (ds.tidx as usize, ds.stmt as usize);
                let (stmt, target) = (&program.triggers[t].statements[j], stmts[t][j].target);
                if !ds.applied {
                    apply_statement_rows(db, stmt, target, &ds.segs, &mut ds.rows);
                }
                if let Some(ts) = tel.as_deref_mut() {
                    let slot = ts
                        .stmt_slot
                        .get(ds.tidx as usize)
                        .and_then(|v| v.get(ds.stmt as usize));
                    if let Some(r) = slot.and_then(|&s| ts.pending_rows.get_mut(s as usize)) {
                        *r += segs_rows(&ds.segs);
                    }
                }
            }
        }
        self.bd.live = 0;
        if !self.bd.base_applied {
            self.apply_base_run(disp.base, run);
        }
        self.fire_replace_tail(program, disp, run);
    }

    /// The `:=` tail of a batch-delta run: the re-evaluation statements of
    /// the run's **last event** (cancelled or not — it is the event whose
    /// firing per-event processing ends on), once, against the state the
    /// run's increments and base update left. For a multi-firing run the
    /// derivation makes the `:=` statements the trigger's tail and mirrors
    /// them across the signs, so whichever sign came last re-evaluates the
    /// same targets; a run of one firing needs neither. A run whose every
    /// entry cancelled changed no state, so it fires no tail — as firing by
    /// firing it fires nothing.
    fn fire_replace_tail(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
    ) {
        if !disp.tail || run.entries().iter().all(|e| e.mult == 0.0) {
            return;
        }
        let Some((sign, key)) = run.last_event() else {
            return;
        };
        let Some(tidx) = disp.trigger(sign) else {
            return;
        };
        let statements = &program.triggers[tidx as usize].statements;
        for (j, stmt) in statements.iter().enumerate() {
            if stmt.op != StmtOp::Replace {
                continue;
            }
            let st0 = self.armed_instant();
            let rows = self.fire_statement(program, tidx, j, key);
            self.note_stmt(st0, &stmt.target, rows);
        }
    }

    /// Phase one of [`Engine::run_batch_delta`]: buffer every incremental
    /// statement's rows, in statement order whatever the trigger's order of
    /// `+=` and `:=`, evaluated against the pre-run state and touching no
    /// view — except, when the run has more than one firing and the relation
    /// a non-empty live pass, the statements that pass lists, which it then
    /// evaluates (and whose inputs it writes) firing by firing.
    fn collect_batch_delta(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
    ) {
        self.bd.live = 0;
        self.bd.base_applied = false;
        // With at most one firing there is nothing for it to interact with —
        // which also keeps the batch-of-1 path free of any live-pass work.
        let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
        let lp = disp
            .live_pass
            .filter(|_| firings > 1)
            .map(|i| &program.live_passes[i as usize]);
        // First deferred-statement slot of each sign's trigger (where there
        // is a live pass the `+=` statements lead their triggers, so
        // statement `j` of the trigger lands in slot `base + j`).
        let mut base = [0usize; 2];
        for (s, (sign, tidx)) in [
            (UpdateSign::Insert, disp.insert),
            (UpdateSign::Delete, disp.delete),
        ]
        .into_iter()
        .enumerate()
        {
            base[s] = self.bd.live;
            let Some(tidx) = tidx else { continue };
            if !run.entries().iter().any(|e| e.sign() == Some(sign)) {
                continue;
            }
            for (j, stmt) in program.triggers[tidx as usize]
                .statements
                .iter()
                .enumerate()
            {
                if stmt.op != StmtOp::Increment {
                    continue;
                }
                if lp.is_some_and(|lp| lp.lists(tidx as usize, j)) {
                    // Left to the live pass, which fills this slot.
                    self.bd.acquire(tidx, j as u16);
                    continue;
                }
                self.set_counter_slot(tidx, j);
                let st0 = self.armed_instant();
                self.collect_statement_over(stmt, run, sign, tidx, j as u16);
                if st0.is_some() {
                    let rows = segs_rows(&self.bd.stmts[self.bd.live - 1].segs);
                    self.note_stmt(st0, &stmt.target, rows);
                }
            }
        }
        let Some(lp) = lp else {
            return;
        };
        let st0 = self.armed_instant();
        let rows = self.live_pass(program, disp, lp, run, base);
        self.note_stmt(st0, "(live pass)", rows);
    }

    /// The live pass of a batch-delta run (see the module docs): walk the
    /// run's firings in entry order. Per firing, evaluate every statement the
    /// live pass lists against the store as the run's earlier firings left
    /// it — the state before the firing, which every `+=` of a firing reads —
    /// and append its rows to the statement's deferred buffer (`base + j`);
    /// then apply what the firing writes to the relation's live maps (the
    /// rows just evaluated, or the firing's segment of the rows buffered
    /// before the pass), the base update last. Returns the number of rows
    /// the pass evaluated.
    fn live_pass(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        lp: &LivePass,
        run: &RelationDelta,
        base: [usize; 2],
    ) -> u64 {
        let Executor {
            db,
            kernel,
            bd,
            stats,
            tel,
            stmts,
            ..
        } = self;
        // Per sign: the trigger, its `+=` statements and their resolution.
        let sides = [disp.insert, disp.delete].map(|tidx| {
            let t = tidx.map(usize::from);
            let increments = t.map_or(&[][..], |t| program.triggers[t].increments());
            (tidx, increments, t.map_or(&[][..], |t| &stmts[t][..]))
        });
        bd.base_applied = disp.base_live;
        // Entries of each sign met so far: entry `k` of a sign owns segment
        // `k` of every statement of that sign's trigger buffered before the
        // pass.
        let mut seen = [0usize; 2];
        let mut evaluated = 0u64;
        for entry in run.entries() {
            let Some(sign) = entry.sign() else { continue };
            let s = usize::from(sign == UpdateSign::Delete);
            let k = seen[s];
            seen[s] += 1;
            // A sign without a trigger has no statements: only the stored
            // slice moves.
            let (tidx, statements, bound) = sides[s];
            let listed = |j: usize| tidx.is_some_and(|t| lp.lists(t as usize, j));
            for firing in 1..=entry.firings() {
                for (j, stmt) in statements.iter().enumerate() {
                    if !listed(j) {
                        continue;
                    }
                    stats.statements += 1;
                    if let Some(slot) = tel
                        .as_deref_mut()
                        .and_then(|ts| ts.note_live_firing(tidx? as usize, j))
                    {
                        kernel.counter_slot = slot;
                    }
                    // The store moves between firings: every evaluation is
                    // the first against its state.
                    let ds = &mut bd.stmts[base[s] + j];
                    let start = ds.rows.len();
                    let rels = &bound[j].rels;
                    kernel_rows(
                        kernel,
                        db,
                        &stmt.kernel,
                        rels,
                        &entry.key,
                        true,
                        &mut ds.rows,
                        &stmt.target,
                    );
                    let end = ds.rows.len();
                    evaluated += (end - start) as u64;
                    ds.segs.push(Seg {
                        start,
                        end,
                        reps: 1,
                    });
                }
                for (j, stmt) in statements.iter().enumerate() {
                    if !bound[j].live {
                        continue;
                    }
                    let id = resolved(bound[j].target, stmt);
                    let ds = &mut bd.stmts[base[s] + j];
                    ds.applied = true;
                    // This firing's segment: just evaluated, or buffered —
                    // and then applied once per firing of the entry. Its keys
                    // move on its last application: the apply phase only
                    // accounts for these rows.
                    let (seg, last) = match listed(j) {
                        true => (ds.segs[ds.segs.len() - 1], true),
                        false => (ds.segs[k], firing == entry.firings()),
                    };
                    let view = db.at_mut(id);
                    for (key, mult) in &mut ds.rows[seg.start..seg.end] {
                        let key = match last {
                            true => std::mem::take(key),
                            false => key.clone(),
                        };
                        view.add(key, *mult);
                    }
                }
                if let Some(id) = disp.base.filter(|_| disp.base_live) {
                    db.at_mut(id).add(entry.key.clone(), sign.multiplier());
                }
            }
        }
        evaluated
    }

    /// Buffer one incremental statement's rows over all of a run's entries of
    /// one sign without applying them: setup once, then back-to-back
    /// evaluations against the unchanged pre-run store.
    fn collect_statement_over(
        &mut self,
        stmt: &Statement,
        run: &RelationDelta,
        sign: UpdateSign,
        tidx: u16,
        stmt_j: u16,
    ) {
        let Executor {
            db,
            kernel,
            bd,
            stats,
            stmts,
            ..
        } = self;
        let slot = bd.acquire(tidx, stmt_j);
        let rels = &stmts[tidx as usize][stmt_j as usize].rels;
        let mut first = true;
        for entry in run.entries() {
            if entry.sign() != Some(sign) {
                continue;
            }
            stats.statements += 1;
            let start = slot.rows.len();
            kernel_rows(
                kernel,
                db,
                &stmt.kernel,
                rels,
                &entry.key,
                std::mem::take(&mut first),
                &mut slot.rows,
                &stmt.target,
            );
            slot.segs.push(Seg {
                start,
                end: slot.rows.len(),
                reps: entry.firings(),
            });
        }
    }

    /// One base-update pass for a whole run into the relation's stored base
    /// map `base`, if it keeps one: each entry's net multiplicity is applied
    /// in one write (exact — net multiplicities are integers).
    fn apply_base_run(&mut self, base: Option<MapId>, run: &RelationDelta) {
        let Some(id) = base else {
            return;
        };
        let rows = run.entries().iter().map(|e| (&e.key, e.mult));
        self.db.at_mut(id).add_rows(rows);
    }

    /// [`Engine::flush_telemetry`].
    fn flush_telemetry(&mut self) {
        let Some(ts) = self.tel.as_deref_mut() else {
            return;
        };
        ts.batch_hist
            .flush_into(ts.tel.batch_hist().expect("enabled handle"));
        let kernel = ts.tel.stage_hist(Stage::KernelBatchDelta);
        ts.kernel_hist.flush_into(kernel.expect("enabled handle"));
        for (i, record) in ts.views.iter().enumerate() {
            let mut r = self.db.at(ts.map_ids[i]).readings();
            let w = self.kernel.counter_slots.get(i).map(|c| c.take());
            let w = w.unwrap_or_default();
            for (slot, n) in [
                (const { slot_of("rows_written") }, &mut ts.pending_rows[i]),
                (const { slot_of("live_firings") }, &mut ts.pending_live[i]),
            ] {
                r.values[slot] = std::mem::take(n);
            }
            for (slot, n) in [
                (const { slot_of("probes") }, w.probes),
                (const { slot_of("scans") }, w.scans),
                (const { slot_of("entries_scanned") }, w.entries_scanned),
                (const { slot_of("fused_scans") }, w.fused_scans),
                (const { slot_of("range_sum_hits") }, w.range_sum_hits),
                (const { slot_of("range_sum_bails") }, w.range_sum_bails),
            ] {
                r.values[slot] = n;
            }
            record.publish(&r.values);
        }
        ts.tel.add_events(
            self.stats.events - ts.flushed_events,
            self.stats.delta_batches - ts.flushed_batches,
        );
        ts.flushed_events = self.stats.events;
        ts.flushed_batches = self.stats.delta_batches;
    }
}

impl Engine {
    /// Snapshot a query result as a GMR over its output columns.
    pub fn result(&self, query: &str) -> Result<Gmr, RuntimeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| RuntimeError::UnknownQuery(query.to_string()))?;
        let ResultAccess::Map(name) = &qr.access;
        self.exec
            .db
            .view(name)
            .map(|v| v.to_gmr())
            .ok_or_else(|| RuntimeError::UnknownView(name.clone()))
    }

    /// Direct access to a view's contents (for tests and debugging).
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.exec.db.view(name).map(|v| v.to_gmr())
    }

    /// The store itself, read-only (for tests and debugging: its views'
    /// declared indexes, footprints, ids).
    pub fn database(&self) -> &Database {
        &self.exec.db
    }

    /// Approximate memory footprint of all views and stored relations, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.exec.db.approx_bytes()
    }

    /// Total number of entries across all views and stored relations.
    pub fn total_entries(&self) -> usize {
        self.exec
            .db
            .names()
            .filter_map(|n| self.exec.db.view(n).map(|v| v.len()))
            .sum()
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.exec.stats
    }

    /// Structured EXPLAIN of the compiled trigger program: one operator tree
    /// per statement plus the live pass and `:=` tail of each relation. With telemetry attached the tree carries live per-view
    /// counters — EXPLAIN ANALYZE — after an implicit
    /// [`Engine::flush_telemetry`]; without telemetry the `analyze` blocks
    /// are absent. Render with [`ProgramExplain::render_text`] or
    /// [`ProgramExplain::render_json`].
    ///
    /// [`ProgramExplain::render_text`]: dbtoaster_compiler::ProgramExplain::render_text
    /// [`ProgramExplain::render_json`]: dbtoaster_compiler::ProgramExplain::render_json
    pub fn explain(&mut self) -> dbtoaster_compiler::ProgramExplain {
        self.flush_telemetry();
        let mut ex = dbtoaster_compiler::explain(&self.program);
        match self.exec.tel.as_deref() {
            Some(ts) => {
                let snap = ts.tel.snapshot();
                ex.attach_stats(|name| snap.view(name).cloned());
                ex.attach_index_stats(|name| snap.view(name).cloned());
            }
            None => ex.attach_index_stats(|name| {
                let readings = self.exec.db.view(name)?.readings();
                Some(ViewSummary {
                    name: name.to_string(),
                    ..readings
                })
            }),
        }
        ex
    }

    /// Attach a [`Telemetry`] handle. With an enabled handle the engine
    /// records whole-batch latency, kernel timings, per-view
    /// work counters and slow-batch traces into it — all buffered in plain
    /// integers and folded into the shared atomics every
    /// `TELEMETRY_FLUSH_BATCHES` (64) batches (or on
    /// [`Engine::flush_telemetry`]).
    /// A disabled handle detaches: the hot path goes back to one predictable
    /// branch per batch, allocation-free as before.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        if !tel.is_enabled() {
            self.exec.tel = None;
            self.exec.kernel.counter_slot = 0;
            return;
        }
        let map_names: Vec<String> = self.exec.db.names().map(|n| n.to_string()).collect();
        let map_ids: Vec<MapId> = map_names
            .iter()
            .filter_map(|n| self.exec.db.id(n))
            .collect();
        let views: Vec<Arc<ViewRecord>> = map_names
            .iter()
            .map(|n| tel.view(n).expect("enabled handle"))
            .collect();
        let slot_of = |name: &str| -> u32 {
            map_names
                .iter()
                .position(|n| n == name)
                .map_or(u32::MAX, |i| i as u32)
        };
        let stmt_slot: Vec<Vec<u32>> = self
            .program
            .triggers
            .iter()
            .map(|t| t.statements.iter().map(|s| slot_of(&s.target)).collect())
            .collect();
        let slow_threshold_nanos = {
            let c = tel.config().expect("enabled handle");
            c.slow_batch_threshold.as_nanos().min(u64::MAX as u128) as u64
        };
        // One kernel counter block per view; reset anything a previous
        // attachment left behind so counts start from zero.
        self.exec.kernel.ensure_counter_slots(map_names.len());
        for c in &self.exec.kernel.counter_slots {
            let _ = c.take();
        }
        self.exec.kernel.counter_slot = 0;
        let n = map_names.len();
        self.exec.tel = Some(Box::new(TelemetryState {
            tel,
            batch_hist: LocalHistogram::new(),
            kernel_hist: LocalHistogram::new(),
            views,
            map_ids,
            pending_rows: vec![0; n],
            pending_live: vec![0; n],
            stmt_slot,
            flushed_events: self.exec.stats.events,
            flushed_batches: self.exec.stats.delta_batches,
            slow_threshold_nanos,
            armed: false,
            runs: Vec::new(),
            runs_live: 0,
        }));
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.exec.tel.as_ref().map(|t| &t.tel)
    }

    /// Fold all locally buffered telemetry (latency histograms, event
    /// totals, and per view its record: the rows and live firings buffered
    /// here, the kernel's work counters and the store's
    /// [`ViewMap::readings`](crate::store::ViewMap::readings)) into the
    /// shared [`Telemetry`] atomics. Allocation-free; runs
    /// automatically every `TELEMETRY_FLUSH_BATCHES` (64) batches, and callers
    /// (the serving writer, tests) invoke it before reading a
    /// snapshot.
    pub fn flush_telemetry(&mut self) {
        self.exec.flush_telemetry();
    }

    /// Build a trace sample at the given stream fraction.
    pub fn sample(&self, fraction: f64) -> TraceSample {
        TraceSample {
            fraction,
            elapsed_secs: self.exec.stats.busy.as_secs_f64(),
            refresh_rate: self.exec.stats.refresh_rate(),
            memory_mb: self.memory_bytes() as f64 / (1024.0 * 1024.0),
        }
    }

    /// The sign multiplier helper re-exported for callers building events by hand.
    pub fn sign_multiplier(sign: UpdateSign) -> f64 {
        sign.multiplier()
    }
}

/// A statement's target map, resolved at construction; a target the
/// program never declared is a corrupt program.
fn resolved(target: Option<MapId>, stmt: &Statement) -> MapId {
    target.unwrap_or_else(|| panic!("statement {stmt} writes an undeclared map"))
}

/// The one row applier: drain a statement's buffered rows into its target
/// map `target` (resolved at construction), whether the rows are one
/// firing's or a whole run's ([`crate::ViewMap::apply_rows`]: keys move, and
/// consecutive same-key rows are one write). A `:=` statement clears its
/// target first.
fn apply_statement_rows(
    db: &mut Database,
    stmt: &Statement,
    target: Option<MapId>,
    segs: &[Seg],
    rows: &mut [(Tuple, f64)],
) {
    let target = db.at_mut(resolved(target, stmt));
    if stmt.op == StmtOp::Replace {
        target.clear();
    }
    target.apply_rows(rows, segs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::Expr;
    use dbtoaster_compiler::{compile, CompileMode, CompileOptions, QuerySpec, RelationMeta};

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

    fn example1_query() -> QuerySpec {
        // Q = Sum[]( R(a,b) * S(c,d) ): count of the cross product (Example 1).
        QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("S", ["c", "d"])]),
            ),
        }
    }

    fn long_tuple(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::long(v)).collect()
    }

    fn run_example1(mode: CompileMode) -> f64 {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(mode),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        engine.init_static_views().unwrap();
        // ||R|| = 2, ||S|| = 3 as in the paper's example table, then the insert sequence
        // S, R, S, S.
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[2, 2])),
            UpdateEvent::insert("S", long_tuple(&[1, 10])),
            UpdateEvent::insert("S", long_tuple(&[2, 20])),
            UpdateEvent::insert("S", long_tuple(&[3, 30])),
            UpdateEvent::insert("S", long_tuple(&[4, 40])),
            UpdateEvent::insert("R", long_tuple(&[3, 3])),
            UpdateEvent::insert("S", long_tuple(&[5, 50])),
            UpdateEvent::insert("S", long_tuple(&[6, 60])),
        ];
        engine.process_all(&events).unwrap();
        engine.result("Q").unwrap().scalar_value()
    }

    /// `catalog()` plus a static table that no view of `example1_query` reads.
    fn nation_engine() -> Engine {
        let mut catalog = catalog();
        catalog.add(RelationMeta::table("Nation", ["nationkey", "name"]).with_strings(["NAME"]));
        let options = CompileOptions::default();
        let program = compile(&[example1_query()], &catalog, &options).unwrap();
        Engine::new(program, &catalog)
    }

    #[test]
    fn a_loaded_table_no_view_reads_keeps_its_rows_under_its_own_columns() {
        let mut engine = nation_engine();
        let france = vec![Value::long(1), Value::str("FRANCE")];
        engine.load_table(
            "Nation",
            [france.clone(), vec![Value::long(2), Value::str("PERU")]],
        );
        engine.init_static_views().unwrap();
        let nation = engine.view("Nation").unwrap();
        assert_eq!(nation.schema().columns(), ["nationkey", "name"]);
        assert_eq!((nation.len(), nation.get(&france)), (2, 1.0));
    }

    #[test]
    #[should_panic(
        expected = "load_table: event for Region refused: the catalog declares no such relation"
    )]
    fn loading_a_table_the_catalog_does_not_declare_panics() {
        nation_engine().load_table("Region", [vec![Value::long(1)]]);
    }

    #[test]
    #[should_panic(expected = "load_table: event for Nation refused: column name is a string")]
    fn loading_an_ill_typed_row_panics() {
        nation_engine().load_table("Nation", [vec![Value::long(1), Value::long(7)]]);
    }

    #[test]
    fn example1_sequence_matches_paper_table() {
        // After the full sequence: ||R|| = 3, ||S|| = 6, so Q = 18 (paper, time point 4).
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            assert_eq!(run_example1(mode), 18.0, "mode {mode}");
        }
    }

    #[test]
    fn deletions_are_handled() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        engine
            .process_all(&[
                UpdateEvent::insert("R", long_tuple(&[1, 1])),
                UpdateEvent::insert("S", long_tuple(&[7, 7])),
                UpdateEvent::insert("S", long_tuple(&[8, 8])),
                UpdateEvent::delete("S", long_tuple(&[7, 7])),
            ])
            .unwrap();
        assert_eq!(engine.result("Q").unwrap().scalar_value(), 1.0);
        assert_eq!(engine.stats().events, 4);
    }

    #[test]
    fn unknown_query_errors() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let engine = Engine::new(program, &catalog());
        assert!(matches!(
            engine.result("Nope"),
            Err(RuntimeError::UnknownQuery(_))
        ));
    }

    #[test]
    fn an_event_of_the_wrong_arity_is_refused() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let err = engine
            .process(&UpdateEvent::insert("R", long_tuple(&[1])))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "event for R refused: 1 values for 2 columns"
        );
        // A refused event is not counted as applied.
        assert_eq!(engine.stats().events, 0);
    }

    #[test]
    fn stats_and_memory_accumulate() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let before = engine.memory_bytes();
        engine
            .process(&UpdateEvent::insert("R", long_tuple(&[1, 2])))
            .unwrap();
        assert!(engine.memory_bytes() >= before);
        let sample = engine.sample(0.5);
        assert_eq!(sample.fraction, 0.5);
        assert_eq!(engine.stats().events, 1);
        assert_eq!(engine.stats().delta_batches, 1);
        assert!(engine.total_entries() >= 1);
    }

    #[test]
    fn batch_processing_matches_per_event() {
        // The same stream (with a cancelling pair and a duplicate key) through
        // the per-event path and one big batch must land on identical views.
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[1, 1])), // duplicate key
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
            UpdateEvent::insert("S", long_tuple(&[8, 8])),
            UpdateEvent::delete("S", long_tuple(&[7, 7])), // cancels within batch
            UpdateEvent::insert("R", long_tuple(&[2, 5])),
        ];
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let program = compile(
                &[example1_query()],
                &catalog(),
                &CompileOptions::for_mode(mode),
            )
            .unwrap();
            let mut per_event = Engine::new(program.clone(), &catalog());
            per_event.process_all(&events).unwrap();

            let mut batched = Engine::new(program, &catalog());
            let batch = DeltaBatch::from_events(&events);
            let report = batched.process_batch(&batch);
            assert!(report.first_error.is_none(), "mode {mode}");
            assert_eq!(report.events, 6);
            assert_eq!(batched.stats().events, 6, "mode {mode}");
            assert!(
                batched.stats().batch_events_collapsed >= 2,
                "cancelling pair must be collapsed (mode {mode})"
            );
            assert_eq!(
                per_event.result("Q").unwrap().scalar_value(),
                batched.result("Q").unwrap().scalar_value(),
                "mode {mode}"
            );
            for name in per_event.database().names() {
                let a = per_event.view(name).unwrap();
                let b = batched.view(name).expect("same view set");
                assert!(a.equivalent(&b, 0.0), "view {name} differs in {mode}");
            }
        }
    }

    /// An interleaved batch runs as one run per relation — in re-evaluation
    /// mode too, whose triggers are nothing but `:=` statements — and ends
    /// where per-event processing ends.
    #[test]
    fn an_interleaved_batch_runs_one_run_per_relation() {
        let events = [
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
            UpdateEvent::insert("R", long_tuple(&[2, 5])),
            UpdateEvent::delete("S", long_tuple(&[7, 7])),
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
        ];
        for mode in [CompileMode::HigherOrder, CompileMode::Reevaluate] {
            let options = CompileOptions::for_mode(mode);
            let program = compile(&[example1_query()], &catalog(), &options).unwrap();
            let mut per_event = Engine::new(program.clone(), &catalog());
            per_event.process_all(&events).unwrap();
            let mut batched = Engine::new(program, &catalog());
            batched.set_run_recording(true);
            let runs = batched
                .process_batch(&DeltaBatch::from_events(&events))
                .runs;
            let runs: Vec<_> = runs
                .iter()
                .map(|r| (r.relation.as_str(), r.events))
                .collect();
            assert_eq!(runs, [("R", 3), ("S", 2)], "mode {mode}");
            for name in per_event.database().names() {
                let (a, b) = (per_event.view(name).unwrap(), batched.view(name).unwrap());
                assert!(a.equivalent(&b, 0.0), "view {name} differs in {mode}");
            }
        }
    }

    #[test]
    fn a_refused_event_mid_batch_leaves_the_rest_applied() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let string = vec![Value::long(2), Value::str("x")];
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[9])), // wrong arity: its own run
            UpdateEvent::insert("R", string.clone()),   // a string in a number column
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
            UpdateEvent::insert("Nope", long_tuple(&[7])), // not in the catalog
        ];
        let batch = DeltaBatch::from_events(&events);
        let report = engine.process_batch(&batch);
        assert_eq!(report.events, 5);
        assert_eq!(report.failed_events, 3);
        assert!(matches!(
            report.first_error,
            Some(RuntimeError::Refused { .. })
        ));
        let refused = engine
            .admits(&UpdateEvent::insert("R", string))
            .unwrap_err();
        assert_eq!(
            refused.to_string(),
            "event for R refused: column B is a number, not Str(\"x\")"
        );
        // The good events around the refused ones are fully applied.
        assert_eq!(engine.stats().events, 2);
        assert_eq!(engine.result("Q").unwrap().scalar_value(), 1.0);
    }
}
