//! The query engine: executes a compiled trigger program against a stream of updates.
//!
//! The engine owns the [`Database`] of views, stored base relations and static tables.
//! Its native unit of work is the [`DeltaBatch`]: per-relation GMR deltas built from a
//! slice of the update stream (insert = `+1`, delete = `−1`, same-key events collapsed
//! by ring addition — see [`dbtoaster_agca::batch`]), each run gated and executed
//! by one collection loop. [`Engine::process_batch`] hands it a batch's runs, as the
//! serving writer and WAL replay do; [`Engine::process`] hands it one event, read in
//! place, as one entry that borrows the event's tuple.
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
//! kernel is total: `CompiledStmt::execute` has no error path, and neither has
//! `kernel_rows`. A kernel panics only on a corrupt program — a relation the store
//! does not hold, named in the message, or a value error past the type checker.
//!
//! ## Batch execution
//!
//! One executor, **batch-delta**, runs that sequence once per *run* instead of once
//! per event (see the compiler's `batch_delta` module for the derivation):
//!
//! 1. every `+=` statement of both sign triggers that reads nothing the run writes is
//!    evaluated for all entries back-to-back against the *pre-run* state with its
//!    writes buffered (statement prelude and loop-invariant fused scans amortized over
//!    the run). When some statement does read a map the same run writes — it *fires
//!    live*, and the maps it reads are the relation's *live maps* — one **live pass**
//!    over the run's firings follows, in entry order: per firing, every statement that
//!    fires live is evaluated against the store, then whatever the firing writes to a
//!    live map — rows just evaluated or rows buffered before the pass, the base update
//!    last — is written at once, so the next firing reads what per-event processing
//!    would have it read, through the same single lookup (a range sum stays one search
//!    of one ordered index, whatever the run has added to it). The pass costs what its
//!    statements cost per event; it is skipped for runs of at most one firing and for
//!    relations where no statement fires live. Then all writes still buffered land, one
//!    application per statement per run (each write logged by the target view itself,
//!    for its snapshots — see [`crate::store`]);
//! 2. the base update, one pass over the run's net entries (unless the live pass made
//!    it, firing by firing);
//! 3. the `:=` statements of the run's **last event**, once, against the new state — of
//!    a run's per-event `:=` firings only the last one's output survives, and this is
//!    it. A trigger of nothing but `:=` statements (re-evaluation mode) is the
//!    degenerate run: an empty phase 1 and one re-evaluation per run instead of one per
//!    event.
//!
//! A run of one firing — [`Engine::process`]'s one entry — is the same
//! sequence for one event. Every run of every relation takes this one executor, as
//! its relation's plan (`TriggerProgram::relation_plans`) states it: `compile` refuses
//! a program whose plans do not derive, and [`Engine::new`] panics on one, naming the
//! relation and the condition that bailed — a corrupt program, like an unresolved
//! target. Nothing depends on a run's size
//! or the state, so a WAL replay runs the same sequence as the live run. Statements are
//! evaluated only by their compiled kernels — `kernel_rows` for one firing, the
//! collection loop for a run's entries — reading maps through
//! [`dbtoaster_agca::RelationSource`] by id and emitting `(key, multiplicity)` rows;
//! the compiler rejects a program with a statement it
//! cannot lower, so there is no other evaluator in the engine. The references are
//! per-event processing and the definitions recomputed by `dbtoaster_agca::eval` (the
//! test suites' oracle). See the compiler's `batch_delta` module for the live-pass
//! argument and the `:=` tail (bit-exact on integer-weighted streams; to summation
//! order on float aggregates).
//!
//! Collection runs **kernel units**, as the relation's plan lists them
//! (`RelationPlan::kernels`): every `+=` statement sits in exactly one unit, one kernel
//! and the statements whose rows it fills. A statement alone is a unit of one; sibling
//! statements — same key, the same plan but for the values they add, none firing live
//! — share a fused kernel: one walk of the shared plan per entry, one key per row, and
//! each member's row into the member's own deferred buffer at its own statement
//! position, so the apply phase and the live pass see each member as they see any
//! statement. Each member's rows are the ones its own kernel would emit, bit for bit
//! (see `dbtoaster_agca::plan`). When the members' maps are one shared key table (the
//! compiler's `RelationPlan::shared`, resolved in [`Engine::new`]), the unit emits one
//! row per key with a value per member into its first member's slot instead, and the
//! apply phase writes it with one probe ([`crate::store`] on shared tables). TPC-H q1's
//! four Lineitem maps run as one kernel and write one table: one row per Lineitem
//! event, not four.
//!
//! Every evaluation — collection's, the live pass's, the `:=` tail's, a static view's —
//! tries the kernel's straight-line form first (`CompiledStmt::run_straight`; see
//! `dbtoaster_agca::plan` on straight-line units and event guards). A trigger-only unit
//! runs from the entry's tuple in place and appends each member's row straight to its
//! deferred slot: no trigger slot seeded, no buffer lent. A guard-tested kernel whose
//! entry fails every term's guards has no rows, and its series of evaluations begins at
//! the first entry the interpreter does run. [`EngineStats::statements`] counts one
//! evaluation per unit and entry whichever way it ran; [`EngineStats::straight_line`]
//! counts those the interpreter did not run.
//!
//! A batch holds one run per relation, however its events interleave: every map is a
//! function of the base relations, so processing the batch relation by relation ends
//! where stream order ends (see [`dbtoaster_agca::batch`]). An interleaved stream
//! (alternating bids/asks, TPC-H's Orders and Lineitem) runs as a few runs, not
//! hundreds, and [`Engine::process_batch`] runs a batch as it is built.
//!
//! ## Resolution
//!
//! Nothing on the per-event path finds a map or a statement by name or by search.
//! [`Engine::new`] derives the relation plans once and resolves, once:
//!
//! * each plan — to its relation's dispatch record (its triggers' indexes, whether it
//!   has a live pass and a `:=` tail, whether its base map is live), two flags on
//!   each statement: does it fire live, and is its target a live map, and its kernel
//!   units, by trigger, each run where its first member stands; its shared key
//!   tables — to [`Database::share`]d tables, and each unit that writes one to the
//!   table and its members' columns;
//! * every statement's target map and every relation's stored base map — to
//!   [`MapId`]s, which also index the per-view work counts (below);
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
//! (its column types for the gate, its dispatch, its stored base map). The gate checks
//! a run's entries against that record; when it refuses an entry of a batch's run, a
//! recycled copy of that run without it runs instead, so no other run is copied, and
//! a single event is never copied: refused, it runs nothing. A run of a relation no
//! trigger reads and no map stores is gated and counted, and nothing else.
//!
//! ## Per-view work
//!
//! With telemetry attached ([`Engine::set_telemetry`]) each map declared by then has one
//! [`LocalCounts`] block, by [`MapId`], beside its shared record: a statement's kernel
//! is handed its target's block and counts its probes, scans and range sums there, and
//! the rows the statement writes and its live firings land in the same block. A unit's
//! kernel does one walk for all its members, so its probes and scans count once, in its
//! first member's block; each member's `rows_written` is its own. An armed batch's
//! trace names a unit's span for its first member's target, with the rows of every
//! member. Without telemetry every kernel counts into one discard block, as does
//! static-view initialization. A flush reads each view's store readings, drains its block into them
//! and publishes the result; it names no counter, so a new work count is one
//! `VIEW_VALUES` row and the `add` where the work happens.

use crate::store::{Database, MapId, Seg};
use dbtoaster_agca::batch::{DeltaBatch, DeltaEntry, RelationDelta};
use dbtoaster_agca::eval::RelId;
use dbtoaster_agca::plan::{CompiledStmt, KernelState, MemberRows, Straight, TableRows};
use dbtoaster_agca::{AtomKind, UpdateEvent, UpdateSign};
use dbtoaster_compiler::{Catalog, KernelUnit, RelationMeta, Statement, StmtOp, TriggerProgram};
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use dbtoaster_telemetry::{
    slot_of, LocalCounts, LocalHistogram, RunSpan, SlowBatchTrace, Stage, StmtSpan, Telemetry,
    ViewRecord, ViewSummary, TRACE_ARM_MIN_EVENTS,
};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

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
    /// [`DeltaEntry`] whose tuple does not match
    /// its relation counts its events, before any kernel runs, so the count is
    /// the same at every batch size. A refused event writes nothing, and the
    /// views are exactly those of the stream without it; `stats().events`
    /// grows by `events - failed_events`.
    pub failed_events: u64,
    /// Why the first refused event was refused, if any was.
    pub first_error: Option<RuntimeError>,
}

/// Runtime statistics: event counts, processing time and memory footprint.
///
/// A serving writer (`ViewServer`) keeps its counters here, in the engine
/// it owns: it adds `batches` (queue drains), `snapshots_published`,
/// `subscriber_deltas`, and, when durable, `wal_bytes_written` and
/// `checkpoints_taken`; these stay zero on a plain single-threaded engine.
/// Every counter is cumulative over the engine's life, across re-serves.
/// `ViewServer::stats()` returns the writer's copy as of its last iteration.
/// Snapshot work is not a field: a plain engine reads it per view from
/// [`ViewMap::snapshot_work`](crate::ViewMap::snapshot_work), a server from
/// its per-view telemetry. Time is not a field either: the engine reads the
/// clock only for an attached [`Telemetry`] (its batch histogram), so the
/// stats are counts alone, equal for equal streams, and a caller that wants
/// a refresh rate times its own loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events applied so far; refused events do not count. A durable serving
    /// writer logs only admitted events, so this is also its WAL watermark.
    pub events: u64,
    /// Kernel executions so far: one per kernel unit or statement evaluated —
    /// a sibling group's fused kernel counts once for all its members (q1's
    /// six Lineitem statements count 1 per event).
    pub statements: u64,
    /// Of those, the executions the plan interpreter did not run (see
    /// `dbtoaster_agca::plan` on straight-line units and event guards): a
    /// trigger-only unit's, which ran straight-line, and a guard-tested
    /// kernel's whose event failed every term's guards.
    pub straight_line: u64,
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
}

/// One relation's [`RelationPlan`](dbtoaster_compiler::RelationPlan) as a
/// run reads it, resolved at construction (trigger indexes fit in `u16`;
/// which statements fire live is each statement's [`Bound::fires_live`]).
#[derive(Clone, Copy, Debug)]
struct DispatchEntry {
    insert: Option<u16>,
    delete: Option<u16>,
    /// Does some statement fire live, i.e. do multi-firing runs need the
    /// live pass?
    live_pass: bool,
    /// The relation's stored base map, if the program keeps one.
    base: Option<MapId>,
    /// Is the base map one of the relation's live maps (the live pass
    /// applies the base update firing by firing)?
    base_live: bool,
    /// Do the triggers close with `:=` statements (a run fires them as its
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
    /// ([`RelationPlan::live_maps`](dbtoaster_compiler::RelationPlan::live_maps))?
    /// The live pass writes its rows firing by firing.
    live: bool,
    /// Does the statement fire live (its relation's plan lists it in
    /// [`RelationPlan::live`](dbtoaster_compiler::RelationPlan::live))? A
    /// multi-firing run evaluates it firing by firing.
    fires_live: bool,
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
}

impl Bound {
    /// Resolve the target and the kernel's relation table to `db`'s ids.
    fn bind(&mut self, db: &Database, target: &str, kernel: &CompiledStmt) {
        self.target = db.id(target);
        self.rels = kernel.bind(db);
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
/// to `out` and touching no view. The live pass, the `:=` tail and
/// static-view initialization come through here, each with a lowered
/// statement's kernel, a unit of one, evaluated once against the state it
/// reads; collection readies the state the same way ([`seed`]) and lends a
/// run's buffers once. A kernel with a straight-line form tries it first
/// ([`CompiledStmt::run_straight`]); the interpreter runs what it leaves.
/// `state` is reused across events — zero per-event allocation in steady
/// state. A trigger slot is written only when it does not already hold the
/// event's very value ([`Value::is_same`]), so the statements of one event
/// fill each column once. The kernel counts its work into `counts`
/// ([`view_counts`]). Returns whether the straight-line form was the whole
/// execution.
///
/// The kernel is total on what the gate admits (see the module docs): it
/// panics only on a corrupt program.
fn kernel_rows(
    state: &mut KernelState,
    db: &Database,
    kernel: &CompiledStmt,
    rels: &[Option<RelId>],
    tuple: &[Value],
    out: &mut Vec<(Tuple, f64)>,
    counts: &LocalCounts,
) -> bool {
    if kernel.run_straight(tuple, std::slice::from_mut(out)) {
        return true;
    }
    seed(state, kernel, tuple, true);
    // The kernel appends to its member's row buffer: lend it the caller's
    // buffer for the call instead of copying rows across.
    std::mem::swap(&mut state.rows_of(kernel)[0], out);
    kernel.execute(db, rels, state, counts, true);
    std::mem::swap(&mut state.rows_of(kernel)[0], out);
    false
}

/// Ready `state` for an evaluation of `kernel` for event `tuple`: sized for
/// it when `first` — the first of a series of back-to-back evaluations of
/// `kernel` against an unchanged store, which also runs its loop-invariant
/// fused scans for the rest of the series — and each trigger slot the
/// kernel reads holding the event's value.
fn seed(state: &mut KernelState, kernel: &CompiledStmt, tuple: &[Value], first: bool) {
    if first {
        state.prepare(kernel);
    }
    for &slot in &kernel.used_trigger_slots {
        let (held, v) = (&mut state.frame[slot as usize], &tuple[slot as usize]);
        if !held.is_same(v) {
            *held = v.clone();
        }
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
    /// The unit, by its index in the trigger, whose members' maps are one
    /// shared table and whose rows this slot — its first member's — holds
    /// in `table`, for all its members; the others' slots stay empty.
    shared: Option<usize>,
    table: TableRows,
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

/// The deferred slots of a kernel unit's members, as its straight-line
/// form appends to them ([`MemberRows`]): member `i` is statement
/// `members[i]` of the trigger, in slot `base + members[i]`.
struct Slots<'a> {
    stmts: &'a mut [DeferredStmt],
    base: usize,
    members: &'a [usize],
}

impl MemberRows for Slots<'_> {
    fn member(&mut self, i: usize) -> &mut Vec<(Tuple, f64)> {
        &mut self.stmts[self.base + self.members[i]].rows
    }
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
        slot.shared = None;
        slot.applied = false;
        slot
    }
}

/// A kernel unit as a run executes it: the plan's unit and, when its
/// members' maps are one shared table, that table and each member's column
/// in it.
#[derive(Debug)]
struct Unit {
    plan: KernelUnit,
    table: Option<(u32, Box<[usize]>)>,
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
    /// Reusable kernel execution state (frame, pattern buffers, scratch
    /// maps), shared by every execution path.
    kernel: KernelState,
    /// The work counts of a kernel whose view is not counted: every kernel
    /// without telemetry, and static-view initialization. Never read.
    discard: LocalCounts,
    /// Recycled row buffer of one statement firing (the `:=` tail, static
    /// views).
    rows: Vec<(Tuple, f64)>,
    /// Batch-delta deferred-statement buffers (pooled across runs).
    bd: BdScratch,
    /// Recycled copy of a run without the entries the gate refused.
    admitted: RelationDelta,
    /// The catalog's relations, resolved ([`Relation`]), and their positions
    /// by name: the one string lookup of a run.
    relations: Vec<Relation>,
    relation_ids: FastMap<String, u32>,
    /// `[trigger][statement]` → the statement's kernel, resolved.
    stmts: Vec<Vec<Bound>>,
    /// Per [`TriggerProgram::maps`] entry: its initializer kernel, resolved
    /// (default where the map has none).
    inits: Vec<Bound>,
    /// `[trigger]` → its kernel units, in order of their first members
    /// ([`RelationPlan::kernels`](dbtoaster_compiler::RelationPlan::kernels)).
    /// A unit's kernel reads the relation table of its first member, whose
    /// resolution it shares, and counts its work for that member's target.
    units: Vec<Vec<Unit>>,
    /// Telemetry buffers, present only after [`Engine::set_telemetry`] with
    /// an enabled handle. `None` keeps the hot path at one predictable
    /// branch per batch.
    tel: Option<Box<TelemetryState>>,
}

/// How many delta batches between automatic telemetry flushes (local
/// histograms and per-view counts folded into the shared atomics).
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
/// lands in plain-integer locals (no atomics, and on the single-event path
/// one clock pair, the call's latency: the engine reads the clock for
/// telemetry only); the shared [`Telemetry`] atomics are touched only by
/// [`Engine::flush_telemetry`], which runs automatically every
/// [`TELEMETRY_FLUSH_BATCHES`] batches.
struct TelemetryState {
    tel: Telemetry,
    /// Whole-batch latency (one `Instant` pair per `process` /
    /// `process_batch` call).
    batch_hist: LocalHistogram,
    /// Kernel-execute latency of the runs that fired triggers.
    kernel_hist: LocalHistogram,
    /// Per view, by [`MapId`]: its shared record and its work counts since
    /// the last flush — what its statements' kernels count, the rows they
    /// write and their live firings. A map declared after attachment (one
    /// only a restored snapshot holds) is past these and uncounted.
    views: Vec<(Arc<ViewRecord>, LocalCounts)>,
    /// Events/batches already folded into the telemetry counters.
    flushed_events: u64,
    flushed_batches: u64,
    slow_threshold_nanos: u64,
    /// Span timing armed for the current batch (big enough to amortize the
    /// per-run/per-statement clock reads; never a single event).
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

    /// The work counts of view `target`, if it is counted.
    fn counts(&self, target: Option<MapId>) -> Option<&LocalCounts> {
        self.views.get(target? as usize).map(|(_, c)| c)
    }

    /// Count one live-pass evaluation of a statement writing `target`.
    fn note_live_firing(&mut self, target: Option<MapId>) {
        if self.armed && self.runs_live > 0 {
            self.runs[self.runs_live - 1].live_firings += 1;
        }
        if let Some(c) = self.counts(target) {
            c.add(const { slot_of("live_firings") }, 1);
        }
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

/// The block a kernel writing view `target` counts its work into: the view's
/// own while telemetry is attached ([`TelemetryState::views`]), else
/// `discard`.
fn view_counts<'a>(
    tel: &'a Option<Box<TelemetryState>>,
    discard: &'a LocalCounts,
    target: Option<MapId>,
) -> &'a LocalCounts {
    tel.as_deref()
        .and_then(|ts| ts.counts(target))
        .unwrap_or(discard)
}

/// The single-tuple firings `entries` stand for.
fn firings<K>(entries: &[DeltaEntry<K>]) -> u64 {
    entries.iter().map(|e| u64::from(e.firings())).sum()
}

/// The gate's refusal of an event or a row of a relation the catalog does
/// not declare.
fn undeclared(relation: &str) -> RuntimeError {
    RuntimeError::Refused {
        relation: relation.to_string(),
        reason: "the catalog declares no such relation".into(),
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
    /// reads it, so [`Engine::load_table`] can fill any of them. A program
    /// whose relation plans do not derive
    /// ([`TriggerProgram::relation_plans`]) is corrupt: this panics, naming
    /// the relation and the condition that bailed.
    pub fn new(program: TriggerProgram, catalog: &Catalog) -> Self {
        let plans = program.relation_plans().unwrap_or_else(|(relation, bail)| {
            panic!(
                "the triggers of {relation} do not derive a relation plan (a corrupt program: \
                 `compile` refuses it): {}",
                bail.describe()
            )
        });
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
        let mut relations: Vec<Relation> = catalog
            .relations()
            .iter()
            .map(|meta| Relation {
                meta: meta.clone(),
                dispatch: None,
                base: None,
            })
            .collect();
        let relation_ids: FastMap<String, u32> = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.meta.name.clone(), i as u32))
            .collect();
        // Each plan as a run reads it: flags on its statements and its
        // relation's dispatch (ids are bound by `resolve`).
        let unbound = |n: usize| vec![Bound::default(); n];
        let mut stmts: Vec<Vec<Bound>> = program
            .triggers
            .iter()
            .map(|t| unbound(t.statements.len()))
            .collect();
        let mut units: Vec<Vec<Unit>> = (0..program.triggers.len()).map(|_| Vec::new()).collect();
        for plan in plans {
            // A table written by the runs of two relations is shared once.
            for group in &plan.shared {
                let ids: Vec<MapId> = group
                    .iter()
                    .map(|m| db.id(m).expect("a declared map"))
                    .collect();
                if db.member(ids[0]).is_none() {
                    db.share(&ids);
                }
            }
            for t in [plan.insert, plan.delete].into_iter().flatten() {
                let statements = &program.triggers[t].statements;
                for (b, s) in stmts[t].iter_mut().zip(statements) {
                    b.live = plan.live_maps.contains(&s.target);
                }
            }
            for &(t, j) in &plan.live {
                stmts[t][j].fires_live = true;
            }
            for unit in plan.kernels {
                let t = &program.triggers[unit.trigger];
                let columns = unit.members.iter().map(|&j| db.id(&t.statements[j].target));
                let columns: Option<Vec<(u32, usize)>> = columns.map(|id| db.member(id?)).collect();
                let table = match columns {
                    Some(columns) if columns.len() > 1 => {
                        let cols = columns.iter().map(|&(_, c)| c).collect();
                        Some((columns[0].0, cols))
                    }
                    _ => None,
                };
                units[unit.trigger].push(Unit { plan: unit, table });
            }
            // A relation the catalog does not declare never passes the gate.
            if let Some(&r) = relation_ids.get(&plan.relation) {
                relations[r as usize].dispatch = Some(DispatchEntry {
                    insert: plan.insert.map(|i| i as u16),
                    delete: plan.delete.map(|i| i as u16),
                    live_pass: !plan.live.is_empty(),
                    base: None,
                    base_live: plan.live_maps.contains(&plan.relation),
                    tail: plan.tail > 0,
                });
            }
        }
        let exec = Executor {
            db,
            stats: EngineStats::default(),
            kernel: KernelState::default(),
            discard: LocalCounts::default(),
            rows: Vec::new(),
            bd: BdScratch::default(),
            admitted: RelationDelta::default(),
            relations,
            relation_ids,
            stmts,
            inits: unbound(program.maps.len()),
            units,
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
    /// bind every catalog relation's base map and every statement and
    /// static-view initializer to map ids. Run by [`Engine::new`] and again
    /// whenever a map is declared later; the declarations are idempotent and
    /// a map keeps its id.
    fn resolve(&mut self) {
        let Engine {
            program,
            exec:
                Executor {
                    db,
                    relations,
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
        for (t, bound) in program.triggers.iter().zip(stmts.iter_mut()) {
            for (s, b) in t.statements.iter().zip(bound) {
                b.bind(db, &s.target, &s.kernel);
            }
        }
        for (m, b) in program.maps.iter().zip(inits.iter_mut()) {
            if let Some(init) = &m.init {
                b.bind(db, &m.name, init);
            }
        }
        for r in relations.iter_mut() {
            r.base = db.id(&r.meta.name);
            if let Some(d) = &mut r.dispatch {
                d.base = r.base;
            }
        }
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
            self.exec.db.load_gmr(id, &gmr);
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
    /// name → shared GMR, a shared table's members each as the map it stands
    /// for. Costs O(number of views) plus the keys written since the previous
    /// two snapshots — each written view patches a recycled buffer, and
    /// arms its write log for the next — or a full copy of a view whose
    /// buffer a reader still holds (see [`crate::store`]).
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        self.exec.db.snapshot()
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
        self.exec.gate(relation, row).map(drop)
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
            (false, _) => Err(undeclared(name)),
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
                    discard,
                    rows,
                    inits,
                    ..
                },
        } = self;
        for (m, bound) in program.maps.iter().zip(inits.iter()) {
            let Some(init) = &m.init else { continue };
            rows.clear();
            kernel_rows(kernel, db, init, &bound.rels, &[], rows, discard);
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

    /// Process a single update event: gated, then read in place as a run of
    /// one entry (`±1`, one event) by the executor every batch run takes (see
    /// [`Engine::process_batch`]). Nothing copies the event: kernels read its
    /// columns in place, and a stored base map builds a key only when the
    /// event brings one it does not hold. A lone event never arms span timing.
    pub fn process(&mut self, event: &UpdateEvent) -> Result<(), RuntimeError> {
        let t0 = self.exec.clock();
        let exec = &mut self.exec;
        let gated = exec.gate(&event.relation, &event.tuple);
        let fired = gated.as_ref().is_ok_and(|&rel| {
            let entry = DeltaEntry {
                key: &event.tuple[..],
                mult: event.sign.multiplier(),
                events: 1,
                last: (0, event.sign),
            };
            exec.process_run(&self.program, std::slice::from_ref(&entry), 1, rel)
        });
        exec.end_batch(t0, 1, u64::from(gated.is_err()), fired);
        gated.map(drop)
    }

    /// Process a delta batch, one batch-delta pass per relation run (see the
    /// module docs), each run gated as it comes: an entry [`Engine::admits`]
    /// would refuse is taken out of its run, with its events counted in
    /// [`BatchReport::failed_events`], and the rest is processed as if the
    /// batch had never held them. A run of a relation the catalog does not
    /// declare is refused whole.
    pub fn process_batch(&mut self, batch: &DeltaBatch) -> BatchReport {
        if batch.is_empty() {
            return BatchReport::default();
        }
        let t0 = self.exec.clock();
        let exec = &mut self.exec;
        let mut report = BatchReport {
            events: batch.events(),
            ..BatchReport::default()
        };
        let armed = exec.arm(batch.events());
        let (mut ran, mut fired) = (0u32, false);
        for run in batch.runs() {
            match exec.relation_ids.get(run.relation()) {
                Some(&rel) => {
                    if let Some(f) = exec.run(&self.program, rel, run, &mut report) {
                        (ran, fired) = (ran + 1, f);
                    }
                }
                None => {
                    report.failed_events += run.events();
                    let refusal = || undeclared(run.relation());
                    report.first_error.get_or_insert_with(refusal);
                }
            }
        }
        // Kernel attribution without extra clock reads: a batch that ran one
        // run (the overwhelmingly common case) is that run, so the whole
        // batch measurement is the run's kernel-execute time. Armed batches
        // were attributed per run.
        let kernel = fired && ran == 1 && !armed;
        exec.end_batch(t0, report.events, report.failed_events, kernel);
        report
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
    /// The gate ([`Engine::admits_row`]) for one row of `relation`: the
    /// relation's position in `relations`, or the refusal.
    fn gate(&self, relation: &str, row: &[Value]) -> Result<u32, RuntimeError> {
        match self.relation_ids.get(relation) {
            Some(&r) => self.relations[r as usize].admits(row).map(|()| r),
            None => Err(undeclared(relation)),
        }
    }

    // -----------------------------------------------------------------------
    // Batch execution
    // -----------------------------------------------------------------------

    /// The gate of a batch's run: gate `run` against relation `rel` (its
    /// position in `relations`), counting each refused entry's events and
    /// the first refusal into `report`, and process what the gate admits —
    /// the run itself, or a recycled copy of it without the refused entries,
    /// unless that copy is empty. Returns whether it fired triggers, or
    /// `None` when nothing was left to run.
    fn run(
        &mut self,
        program: &TriggerProgram,
        rel: u32,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) -> Option<bool> {
        let relation = &self.relations[rel as usize];
        if run
            .entries()
            .iter()
            .all(|e| relation.admits(&e.key).is_ok())
        {
            return Some(self.process_run(program, run.entries(), run.events(), rel));
        }
        let mut admitted = std::mem::take(&mut self.admitted);
        report.failed_events += run.retain_into(&mut admitted, |e| {
            let refused = relation.admits(&e.key).err();
            let kept = refused.is_none();
            report.first_error = report.first_error.take().or(refused);
            kept
        });
        let fired = (admitted.events() > 0)
            .then(|| self.process_run(program, admitted.entries(), admitted.events(), rel));
        self.admitted = admitted;
        fired
    }

    /// Arm per-run/per-statement span timing for a batch of `events` events
    /// if it is big enough to amortize the extra clock reads — never a
    /// lone event. Returns whether it armed.
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

    /// The start of a batch's latency: the clock is read for telemetry only,
    /// so an engine without an enabled handle reads none.
    fn clock(&self) -> Option<Instant> {
        self.tel.is_some().then(Instant::now)
    }

    /// Count a processed batch of `events` events, `failed` of them refused:
    /// its events and, with telemetry (a batch begun at `t0`, from
    /// [`Executor::clock`]), its latency — also as kernel time when the
    /// batch was one unarmed run that fired triggers (`kernel`) — and a
    /// slow-batch trace; every `TELEMETRY_FLUSH_BATCHES` batches, a flush.
    fn end_batch(&mut self, t0: Option<Instant>, events: u64, failed: u64, kernel: bool) {
        self.stats.events += events - failed;
        self.stats.delta_batches += 1;
        if let (Some(ts), Some(t0)) = (self.tel.as_deref_mut(), t0) {
            let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            ts.batch_hist.record(nanos);
            if kernel {
                ts.kernel_hist.record(nanos);
            }
            if ts.slow_threshold_nanos > 0 && nanos >= ts.slow_threshold_nanos {
                let trace = ts.assemble_trace(nanos, events);
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

    /// Run the admitted `entries` (a batch's run, or [`Engine::process`]'s
    /// event) of `events` events of relation `rel` (its position in
    /// `relations`), in a span of its own when the batch armed span timing.
    /// Returns whether it fired triggers (`false` when it applied at most a
    /// base update: a relation no trigger reads, and no map either when it
    /// is not stored).
    fn process_run<K: Borrow<[Value]>>(
        &mut self,
        program: &TriggerProgram,
        entries: &[DeltaEntry<K>],
        events: u64,
        rel: u32,
    ) -> bool {
        let rel = &self.relations[rel as usize];
        if let Some(ts) = self.tel.as_deref_mut().filter(|ts| ts.armed) {
            ts.begin_run(&rel.meta.name, events, entries.len());
        }
        let rt0 = self.armed_instant();
        self.stats.batch_events_collapsed += events.saturating_sub(firings(entries));
        let fired = match rel.dispatch {
            Some(disp) => {
                self.run_batch_delta(program, disp, entries);
                self.stats.batch_delta_runs += 1;
                true
            }
            None => {
                self.apply_base_run(rel.base, entries);
                false
            }
        };
        if let Some(rt0) = rt0 {
            let nanos = rt0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.tel
                .as_deref_mut()
                .expect("armed implies tel")
                .end_run(fired, nanos);
        }
        fired
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
        let Executor {
            db,
            kernel,
            discard,
            rows,
            stmts,
            stats,
            tel,
            ..
        } = self;
        let bound = &stmts[tidx as usize][j];
        let counts = view_counts(tel, discard, bound.target);
        rows.clear();
        let straight = kernel_rows(kernel, db, &stmt.kernel, &bound.rels, tuple, rows, counts);
        stats.statements += 1;
        stats.straight_line += u64::from(straight);
        let all = Seg {
            start: 0,
            end: rows.len(),
            reps: 1,
        };
        let produced = rows.len() as u64;
        apply_statement_rows(db, stmt, bound.target, &[all], rows);
        counts.add(const { slot_of("rows_written") }, produced);
        produced
    }

    /// Batch-delta execution of one run (see the module docs): collect every
    /// incremental statement's rows over the run's entries against the
    /// pre-run state (for a multi-firing run of a relation with a non-empty
    /// live pass: that pass in place of the statements it lists), apply
    /// the buffers in statement order, apply the base update, fire the last
    /// event's `:=` statements.
    fn run_batch_delta<K: Borrow<[Value]>>(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        entries: &[DeltaEntry<K>],
    ) {
        self.collect_batch_delta(program, disp, entries);
        {
            let Executor {
                db,
                bd,
                tel,
                stmts,
                units,
                ..
            } = self;
            for ds in &mut bd.stmts[..bd.live] {
                let (t, j) = (ds.tidx as usize, ds.stmt as usize);
                if let Some(u) = ds.shared {
                    let unit = &units[t][u];
                    let (table, cols) = unit.table.as_ref().expect("a shared unit");
                    db.table_mut(*table)
                        .apply_rows(&mut ds.table, &ds.segs, cols);
                    if let Some(ts) = tel.as_deref() {
                        count_member_rows(ts, &stmts[t], unit, ds);
                    }
                    continue;
                }
                let (stmt, target) = (&program.triggers[t].statements[j], stmts[t][j].target);
                if !ds.applied {
                    apply_statement_rows(db, stmt, target, &ds.segs, &mut ds.rows);
                }
                if let Some(c) = tel.as_deref().and_then(|ts| ts.counts(target)) {
                    c.add(const { slot_of("rows_written") }, segs_rows(&ds.segs));
                }
            }
        }
        self.bd.live = 0;
        if !self.bd.base_applied {
            self.apply_base_run(disp.base, entries);
        }
        self.fire_replace_tail(program, disp, entries);
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
    fn fire_replace_tail<K: Borrow<[Value]>>(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        entries: &[DeltaEntry<K>],
    ) {
        if !disp.tail || entries.iter().all(|e| e.mult == 0.0) {
            return;
        }
        // The run's last event is the last event of the entry it came last in.
        let Some(last) = entries.iter().max_by_key(|e| e.last.0) else {
            return;
        };
        let Some(tidx) = disp.trigger(last.last.1) else {
            return;
        };
        let statements = &program.triggers[tidx as usize].statements;
        for (j, stmt) in statements.iter().enumerate() {
            if stmt.op != StmtOp::Replace {
                continue;
            }
            let st0 = self.armed_instant();
            let rows = self.fire_statement(program, tidx, j, last.key.borrow());
            self.note_stmt(st0, &stmt.target, rows);
        }
    }

    /// Phase one of [`Engine::run_batch_delta`]: buffer every incremental
    /// statement's rows, in statement order whatever the trigger's order of
    /// `+=` and `:=`, evaluated against the pre-run state and touching no
    /// view — except, when the run has more than one firing, the statements
    /// that fire live, which the live pass then evaluates (and whose inputs
    /// it writes) firing by firing.
    fn collect_batch_delta<K: Borrow<[Value]>>(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        entries: &[DeltaEntry<K>],
    ) {
        self.bd.live = 0;
        self.bd.base_applied = false;
        // With at most one firing there is nothing for it to interact with —
        // which also keeps a single event free of any live-pass work.
        let live = disp.live_pass && firings(entries) > 1;
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
            if !entries.iter().any(|e| e.sign() == Some(sign)) {
                continue;
            }
            let t = tidx as usize;
            let statements = program.triggers[t].increments();
            for j in 0..statements.len() {
                self.bd.acquire(tidx, j as u16);
            }
            for u in 0..self.units[t].len() {
                let lead = self.units[t][u].plan.members[0];
                // The live pass fills the slot of a statement it fires: a
                // unit of one.
                if live && self.stmts[t][lead].fires_live {
                    continue;
                }
                let st0 = self.armed_instant();
                let rows = self.collect_over(tidx, u, entries, sign, base[s]);
                self.note_stmt(st0, &statements[lead].target, rows);
            }
        }
        if !live {
            return;
        }
        let st0 = self.armed_instant();
        let rows = self.live_pass(program, disp, entries, base);
        self.note_stmt(st0, "(live pass)", rows);
    }

    /// The live pass of a batch-delta run (see the module docs): walk the
    /// run's firings in entry order. Per firing, evaluate every statement
    /// that fires live against the store as the run's earlier firings left
    /// it — the state before the firing, which every `+=` of a firing reads —
    /// and append its rows to the statement's deferred buffer (`base + j`);
    /// then apply what the firing writes to the relation's live maps (the
    /// rows just evaluated, or the firing's segment of the rows buffered
    /// before the pass), the base update last. Returns the number of rows
    /// the pass evaluated.
    fn live_pass<K: Borrow<[Value]>>(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        entries: &[DeltaEntry<K>],
        base: [usize; 2],
    ) -> u64 {
        let Executor {
            db,
            kernel,
            discard,
            bd,
            stats,
            tel,
            stmts,
            ..
        } = self;
        // Per sign: its trigger's `+=` statements and their resolution.
        let sides = [disp.insert, disp.delete].map(|tidx| match tidx.map(usize::from) {
            Some(t) => (program.triggers[t].increments(), &stmts[t][..]),
            None => (&[][..], &[][..]),
        });
        bd.base_applied = disp.base_live;
        // Entries of each sign met so far: entry `k` of a sign owns segment
        // `k` of every statement of that sign's trigger buffered before the
        // pass.
        let mut seen = [0usize; 2];
        let mut evaluated = 0u64;
        for entry in entries {
            let Some(sign) = entry.sign() else { continue };
            let key = entry.key.borrow();
            let s = usize::from(sign == UpdateSign::Delete);
            let k = seen[s];
            seen[s] += 1;
            // A sign without a trigger has no statements: only the stored
            // slice moves.
            let (statements, bound) = sides[s];
            for firing in 1..=entry.firings() {
                for (j, stmt) in statements.iter().enumerate() {
                    if !bound[j].fires_live {
                        continue;
                    }
                    stats.statements += 1;
                    if let Some(ts) = tel.as_deref_mut() {
                        ts.note_live_firing(bound[j].target);
                    }
                    // The store moves between firings: every evaluation is
                    // the first against its state.
                    let ds = &mut bd.stmts[base[s] + j];
                    let start = ds.rows.len();
                    let straight = kernel_rows(
                        kernel,
                        db,
                        &stmt.kernel,
                        &bound[j].rels,
                        key,
                        &mut ds.rows,
                        view_counts(tel, discard, bound[j].target),
                    );
                    stats.straight_line += u64::from(straight);
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
                    let (seg, last) = match bound[j].fires_live {
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
                    db.at_mut(id).add_rows([(key, sign.multiplier())]);
                }
            }
        }
        evaluated
    }

    /// Buffer the rows of kernel unit `u` of trigger `tidx` over all of a
    /// run's entries of one sign without applying them, each member `j`'s in
    /// its statement's slot `base + j` — or, when the members' maps are one
    /// shared table, one row per key for all of them in the first member's
    /// slot: back-to-back evaluations against the unchanged pre-run store,
    /// one segment per entry. A trigger-only unit appends to the slots
    /// itself, entry by entry; any other kernel is lent the slots' rows for
    /// the run and set up once, at the first entry the interpreter runs.
    /// The kernel counts its work for its first member's target. Returns the
    /// rows buffered.
    fn collect_over<K: Borrow<[Value]>>(
        &mut self,
        tidx: u16,
        u: usize,
        entries: &[DeltaEntry<K>],
        sign: UpdateSign,
        base: usize,
    ) -> u64 {
        let Executor {
            db,
            kernel: state,
            discard,
            bd,
            stats,
            stmts,
            units,
            tel,
            ..
        } = self;
        let unit = &units[tidx as usize][u];
        let (kernel, members) = (&unit.plan.kernel, &unit.plan.members);
        let bound = &stmts[tidx as usize][members[0]];
        let counts = view_counts(tel, discard, bound.target);
        let shared = unit.table.is_some();
        if shared {
            let lead = &mut bd.stmts[base + members[0]];
            lead.shared = Some(u);
            lead.table.reset(members.len());
        }
        // A trigger-only unit appends to the slots themselves; any other
        // kernel is lent them for the run: the members' rows, or a shared
        // table's rows.
        let lent = !matches!(kernel.straight, Some(Straight::Unit(_)));
        let lend = |state: &mut KernelState, bd: &mut BdScratch| {
            if lent && !shared {
                for (buf, &m) in state.rows_of(kernel).iter_mut().zip(members) {
                    std::mem::swap(buf, &mut bd.stmts[base + m].rows);
                }
            }
        };
        lend(state, bd);
        if lent && shared {
            state.table = Some(std::mem::take(&mut bd.stmts[base + members[0]].table));
        }
        let (mut fresh, mut rows) = (true, 0);
        for entry in entries {
            if entry.sign() != Some(sign) {
                continue;
            }
            let key = entry.key.borrow();
            stats.statements += 1;
            let straight = match shared {
                true => kernel.run_straight_table(key, &mut bd.stmts[base + members[0]].table),
                false => {
                    let mut slots = Slots {
                        stmts: &mut bd.stmts,
                        base,
                        members,
                    };
                    kernel.run_straight(key, &mut slots)
                }
            };
            if straight {
                stats.straight_line += 1;
            } else {
                // The series begins at the first entry the interpreter runs.
                let first = std::mem::take(&mut fresh);
                seed(state, kernel, key, first);
                kernel.execute(db, &bound.rels, state, counts, first);
            }
            // A shared table's rows are all in its first member's slot.
            let slots = if shared { &members[..1] } else { &members[..] };
            for (k, &m) in slots.iter().enumerate() {
                let ds = &mut bd.stmts[base + m];
                let end = match (lent, shared) {
                    (false, false) => ds.rows.len(),
                    (false, true) => ds.table.len(),
                    (true, false) => state.rows_of(kernel)[k].len(),
                    (true, true) => state.table.as_ref().map_or(0, TableRows::len),
                };
                let seg = Seg {
                    start: ds.segs.last().map_or(0, |s| s.end),
                    end,
                    reps: entry.firings(),
                };
                rows += segs_rows(std::slice::from_ref(&seg));
                ds.segs.push(seg);
            }
        }
        lend(state, bd);
        if let Some(table) = state.table.take() {
            bd.stmts[base + members[0]].table = table;
        }
        rows
    }

    /// One base-update pass for a whole run into the relation's stored base
    /// map `base`, if it keeps one: each entry's net multiplicity is applied
    /// in one write (exact — net multiplicities are integers), the key
    /// borrowed unless it enters the map.
    fn apply_base_run<K: Borrow<[Value]>>(
        &mut self,
        base: Option<MapId>,
        entries: &[DeltaEntry<K>],
    ) {
        let Some(id) = base else {
            return;
        };
        let rows = entries.iter().map(|e| (e.key.borrow(), e.mult));
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
        for (i, (record, counts)) in ts.views.iter().enumerate() {
            let mut r = self.db.view_at(i as MapId).readings();
            counts.drain_into(&mut r.values);
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
    /// Snapshot a query result as a GMR over its output columns: the map it
    /// reads ([`QueryResult::map`], another query's when the two were
    /// merged), with the columns its own query names. A repeated reader: the
    /// snapshot arms the map's write log, so the next ones patch a recycled
    /// buffer instead of copying the map (see [`crate::store`]).
    ///
    /// [`QueryResult::map`]: dbtoaster_compiler::QueryResult::map
    pub fn result(&self, query: &str) -> Result<Gmr, RuntimeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| RuntimeError::UnknownQuery(query.to_string()))?;
        let view = self.exec.db.view(&qr.map);
        let view = view.ok_or_else(|| RuntimeError::UnknownView(qr.map.clone()))?;
        Ok(view.to_gmr().renamed(Schema::new(qr.out_vars.clone())))
    }

    /// Direct access to a map's contents, by map name (for tests and
    /// debugging). A result merged into another query's map has no map of
    /// its own name — q1's `q1_4_sum` and `q1_5` give `None` here — so a
    /// result is read through [`Engine::result`]. A copy that leaves the
    /// map's snapshot log as it was ([`crate::View::copy_gmr`]): a one-off
    /// read does not make every later write of the map log its key, as
    /// [`Engine::result`] and [`Engine::snapshot`], the repeated readers
    /// whose snapshots patch recycled buffers, do.
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.exec.db.view(name).map(|v| v.copy_gmr())
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
            return;
        }
        // Registered in name order (what the views' surfaces list), kept
        // by id.
        let db = &self.exec.db;
        let mut views: Vec<(MapId, Arc<ViewRecord>)> = db
            .names()
            .map(|n| {
                (
                    db.id(n).expect("named"),
                    tel.view(n).expect("enabled handle"),
                )
            })
            .collect();
        views.sort_unstable_by_key(|&(id, _)| id);
        let views = views
            .into_iter()
            .map(|(_, v)| (v, LocalCounts::default()))
            .collect();
        let slow_threshold_nanos = {
            let c = tel.config().expect("enabled handle");
            c.slow_batch_threshold.as_nanos().min(u64::MAX as u128) as u64
        };
        self.exec.tel = Some(Box::new(TelemetryState {
            tel,
            batch_hist: LocalHistogram::new(),
            kernel_hist: LocalHistogram::new(),
            views,
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
    /// totals, and per view its record: its work counts since the last
    /// flush and the store's
    /// [`ViewMap::readings`](crate::store::ViewMap::readings)) into the
    /// shared [`Telemetry`] atomics. Allocation-free; runs
    /// automatically every `TELEMETRY_FLUSH_BATCHES` (64) batches, and callers
    /// (the serving writer, tests) invoke it before reading a
    /// snapshot.
    pub fn flush_telemetry(&mut self) {
        self.exec.flush_telemetry();
    }
}

/// Count each member's own `rows_written` for a shared unit's buffered
/// rows: the rows holding a value of it, times their repetitions.
fn count_member_rows(ts: &TelemetryState, bound: &[Bound], unit: &Unit, ds: &DeferredStmt) {
    for (i, &m) in unit.plan.members.iter().enumerate() {
        if let Some(c) = ts.counts(bound[m].target) {
            let held = |s: &Seg| (s.start..s.end).filter(|&r| ds.table.values(r)[i].is_some());
            let rows = ds
                .segs
                .iter()
                .map(|s| held(s).count() as u64 * u64::from(s.reps));
            c.add(const { slot_of("rows_written") }, rows.sum());
        }
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

    /// [`Engine::process`] reads its event in place, and counts and refuses
    /// as the event's batch of one does: an insert, a delete, an event of a
    /// relation the catalog does not declare and an ill-typed one, in every
    /// mode (a stored base map in all but HigherOrder, a `:=` tail in
    /// re-evaluation).
    #[test]
    fn an_event_is_processed_as_its_batch_of_one() {
        let counts = |e: &Engine| {
            let s = e.stats();
            (s.events, s.delta_batches, s.statements, s.straight_line)
        };
        let events = [
            UpdateEvent::insert("R", long_tuple(&[1, 2])),
            UpdateEvent::insert("S", long_tuple(&[2, 3])),
            UpdateEvent::delete("R", long_tuple(&[1, 2])),
            UpdateEvent::insert("T", long_tuple(&[1])),
            UpdateEvent::insert("S", vec![Value::long(4), Value::str("x")]),
        ];
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let options = CompileOptions::for_mode(mode);
            let program = compile(&[example1_query()], &catalog(), &options).unwrap();
            let mut single = Engine::new(program.clone(), &catalog());
            let mut batched = Engine::new(program, &catalog());
            for event in &events {
                let refused = single.process(event).err();
                let report = batched.process_batch(&DeltaBatch::from_events([event]));
                let ctx = format!("{mode}: {event:?}");
                assert_eq!(refused, report.first_error, "{ctx}");
                assert_eq!(counts(&single), counts(&batched), "{ctx}");
                for (name, view) in single.snapshot() {
                    let same = batched
                        .view(&name)
                        .is_some_and(|b| b.equivalent(&view, 0.0));
                    assert!(same, "{ctx}: {name}");
                }
            }
            let refused = (single.stats().events, single.stats().delta_batches);
            assert_eq!(refused, (3, 5), "{mode}: two events refused");
        }
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
        assert_eq!(engine.stats().events, 1);
        assert_eq!(engine.stats().delta_batches, 1);
        assert!(engine.total_entries() >= 1);
    }

    /// Telemetry counts a view under its id: a map only a restored snapshot
    /// holds, declared after telemetry is attached, is past the counters and
    /// stays uncounted, and the program's views keep counting.
    #[test]
    fn a_map_restored_after_telemetry_is_attached_stays_uncounted() {
        let program = compile(&[example1_query()], &catalog(), &CompileOptions::default());
        let mut engine = Engine::new(program.unwrap(), &catalog());
        let tel = Telemetry::enabled();
        engine.set_telemetry(tel.clone());
        let mut nation = nation_engine();
        nation.load_table("Nation", [vec![Value::long(1), Value::str("FRANCE")]]);
        let snapshot = nation.snapshot().into_iter().filter(|(n, _)| n == "Nation");
        engine.restore(snapshot, 0);
        assert!(engine.view("Nation").is_some());
        let r = UpdateEvent::insert("R", long_tuple(&[1, 2]));
        let s = UpdateEvent::insert("S", long_tuple(&[3, 4]));
        engine.process_all(&[r, s]).unwrap();
        engine.flush_telemetry();
        let snap = tel.snapshot();
        assert!(snap.view("Nation").is_none());
        let q = snap.view("Q").expect("the query view is counted");
        assert!(q.get("rows_written") > 0, "{q:?}");
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
            let batch = DeltaBatch::from_events(&events);
            let runs: Vec<_> = batch
                .runs()
                .iter()
                .map(|r| (r.relation(), r.events()))
                .collect();
            assert_eq!(runs, [("R", 3), ("S", 2)], "mode {mode}");
            // Every run of the admitted batch ran, once.
            let report = batched.process_batch(&batch);
            assert_eq!((report.failed_events, report.first_error), (0, None));
            assert_eq!(batched.stats().batch_delta_runs, 2, "mode {mode}");
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
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
            UpdateEvent::insert("S", long_tuple(&[8, 8])),
            UpdateEvent::delete("S", long_tuple(&[8, 8])), // collapses, admitted
            UpdateEvent::insert("R", long_tuple(&[9])),    // wrong arity: its own run
            UpdateEvent::delete("R", long_tuple(&[9])),    // collapses, refused
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", string.clone()), // a string in a number column
            UpdateEvent::insert("Nope", long_tuple(&[7])), // not in the catalog
        ];
        let batch = DeltaBatch::from_events(&events);
        let report = engine.process_batch(&batch);
        assert_eq!(report.events, 8);
        assert_eq!(report.failed_events, 4);
        // The first refusal in batch order: the wrong-arity run, which comes
        // after the admitted `S` run and before `R`'s string entry.
        assert_eq!(
            report.first_error.map(|e| e.to_string()).as_deref(),
            Some("event for R refused: 1 values for 2 columns")
        );
        let refused = engine
            .admits(&UpdateEvent::insert("R", string))
            .unwrap_err();
        assert_eq!(
            refused.to_string(),
            "event for R refused: column B is a number, not Str(\"x\")"
        );
        // The good events around the refused ones are fully applied, and
        // only the admitted runs' cancelled pairs count as collapsed.
        assert_eq!(engine.stats().events, 4);
        assert_eq!(engine.stats().batch_events_collapsed, 2);
        assert_eq!(engine.result("Q").unwrap().scalar_value(), 1.0);
    }
}
