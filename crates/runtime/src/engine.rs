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
//! sequence for one event. **Entry-major** ([`BatchStrategy::EntryMajor`]) is not a
//! second executor: it is the same executor over the run split into runs of one firing
//! each, `|mult|` per surviving entry, in entry order — exactly per-event processing of
//! the run's net stream. A run takes it when the relation's batch-delta derivation
//! bailed (a hand-assembled trigger whose `:=` statements cannot be the run's tail — no
//! compiled workload program has one), so [`TriggerProgram::batch_dispatch`] chose it
//! statically.
//!
//! The dispatch of a run depends on the program alone — never on the run's size or the
//! state — so a WAL replay takes the same sequence as the live run. Statements are
//! evaluated through one function, `kernel_rows`, which runs the statement's compiled
//! kernel (reading maps through [`dbtoaster_agca::RelationSource`] by id, emitting
//! `(key, multiplicity)` rows); the compiler rejects a program with a statement it
//! cannot lower, so there is no other evaluator in the engine. The references are
//! per-event processing and the definitions recomputed by `dbtoaster_agca::eval` (the
//! test suites' oracle). See the compiler's `batch_delta` module for the live-pass
//! argument and the `:=` tail (bit-exact on integer-weighted streams; to summation
//! order on float aggregates).
//!
//! When a program is increment-only, [`Engine::process_batch`] additionally
//! *merges* same-relation runs of a batch before processing (ring addition of
//! their entries): each run's processing is a pure state difference, so the
//! telescoping sum over merged runs is exact, and interleaved streams (e.g.
//! alternating bids/asks) collapse from many short runs into one per relation.
//!
//! ## Resolution
//!
//! Nothing on the per-event path finds a map by name. [`Engine::new`] resolves, once:
//!
//! * every statement's target map, every relation's stored base map and, for the live
//!   pass, which of those are the relation's live maps — to [`MapId`]s;
//! * every kernel's relation table (`CompiledStmt::rels`, what its probes, scans,
//!   fused scans and sorted runs read) — to the same ids, through which collection,
//!   the live pass, the `:=` tail and static-view initialization all read;
//! * every secondary index a kernel scans — declared on its map before the first
//!   event (the program's `ordered_indexes` and `hash_indexes`), so no read builds
//!   one.
//!
//! A statement whose target does not resolve, or a kernel read of a relation that does
//! not, is a corrupt program and panics where it runs. A map declared later — a table
//! [`Engine::load_table`] declares on the fly, a map only a snapshot holds — is resolved
//! when it is declared. What stays a string hash is the relation → dispatch lookup and
//! the relation → column types lookup of the gate, once per run each.

use crate::store::{Database, MapId, SnapshotWork};
use dbtoaster_agca::batch::{DeltaBatch, RelationDelta};
use dbtoaster_agca::eval::RelId;
use dbtoaster_agca::plan::{CompiledStmt, KernelState};
use dbtoaster_agca::{UpdateEvent, UpdateSign};
use dbtoaster_compiler::{
    BatchStrategy, Catalog, LivePass, RelationMeta, ResultAccess, Statement, StmtOp, TriggerProgram,
};
use dbtoaster_gmr::{FastMap, Gmr, Tuple, Value};
use dbtoaster_telemetry::{
    LocalHistogram, RunSpan, SlowBatchTrace, Stage, StmtSpan, Telemetry, ViewCounters,
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
    /// the same at every batch size and shard count. A refused event writes
    /// nothing, and the views are exactly those of the stream without it;
    /// `stats().events` grows by `events - failed_events`.
    pub failed_events: u64,
    /// Why the first refused event was refused, if any was.
    pub first_error: Option<RuntimeError>,
    /// Which strategy executed each relation run, in processing order
    /// (after any run merging). Runs with no trigger under either
    /// sign — base-relation-only updates — are not recorded. Deterministic
    /// for a given program and batch boundaries, so a WAL replay produces
    /// the same sequence as live processing. Empty unless
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
    /// The strategy that executed: the relation's static dispatch.
    pub strategy: BatchStrategy,
    /// Stream events the run covered.
    pub events: u64,
}

/// Runtime statistics: event counts, processing time and memory footprint.
///
/// The serving-level counters (`batches`, `snapshots_published`,
/// `subscriber_deltas`, `snapshot_*`) stay zero on a plain single-threaded
/// engine; the serving layer fills them in and surfaces the merged view
/// through `ViewServer::stats()`. ([`Engine::snapshot`] takes `&self`; a plain
/// engine's snapshot work is read from [`Engine::snapshot_work`].)
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Events applied so far; refused events do not count. A durable serving
    /// writer logs only admitted events, so this is also its WAL watermark.
    pub events: u64,
    /// Statements executed so far.
    pub statements: u64,
    /// Total time spent inside `process` / `process_batch`.
    pub busy: Duration,
    /// Wall-clock time of engine creation.
    pub started: Instant,
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
    /// Logged keys replayed into recycled snapshot buffers, over all views
    /// and every snapshot taken (publishes and checkpoint hand-offs).
    pub snapshot_keys_patched: u64,
    /// Entries copied by full snapshot copies, over all views.
    pub snapshot_entries_copied: u64,
    /// Per-view full copies taken instead of a patch (first two snapshots of
    /// a view, a pinned buffer, an abandoned write log; `/metrics` splits
    /// them by reason).
    pub snapshot_full_copies: u64,
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
    /// Relation runs executed entry-major — as runs of one firing each,
    /// because the relation's batch-delta derivation bailed.
    pub entry_major_runs: u64,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            events: 0,
            statements: 0,
            busy: Duration::ZERO,
            started: Instant::now(),
            batches: 0,
            delta_batches: 0,
            batch_events_collapsed: 0,
            snapshots_published: 0,
            snapshot_keys_patched: 0,
            snapshot_entries_copied: 0,
            snapshot_full_copies: 0,
            subscriber_deltas: 0,
            wal_bytes_written: 0,
            checkpoints_taken: 0,
            recovery_replayed_events: 0,
            batch_delta_runs: 0,
            statement_major_runs: 0,
            entry_major_runs: 0,
        }
    }
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

/// Engine-internal copy of one relation's batch dispatch decision (trigger
/// indexes fit in `u16`; the strategy is `Copy`), so run processing never
/// clones strings out of the dispatch table.
#[derive(Clone, Copy, Debug)]
struct DispatchEntry {
    insert: Option<u16>,
    delete: Option<u16>,
    strategy: BatchStrategy,
    /// Index into [`TriggerProgram::live_passes`] when the strategy is
    /// batch-delta and some statement reads run-written state, i.e. when
    /// multi-firing runs need the live pass (resolved once at
    /// dispatch-build time).
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

impl DispatchEntry {
    /// The trigger fired by events of `sign`, if the relation has one.
    fn trigger(&self, sign: UpdateSign) -> Option<u16> {
        match sign {
            UpdateSign::Insert => self.insert,
            UpdateSign::Delete => self.delete,
        }
    }
}

/// One entry's emitted row range within the shared row buffer, plus how many
/// times it is applied (`|net multiplicity|` single-tuple firings).
#[derive(Clone, Copy, Debug)]
struct Seg {
    start: usize,
    end: usize,
    reps: u32,
}

/// Run `kernel` for one event `tuple` against `db`, reading through its
/// relation table bound to `rels`, appending its `(key, multiplicity)` rows
/// to `out` and touching no view. Collection, the live pass, the `:=` tail
/// and static-view initialization all come through here. `state` is reused
/// across events — zero per-event allocation in steady state.
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
        state.frame[slot as usize] = tuple[slot as usize].clone();
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
    /// Recycled run of one firing for entry-major execution.
    firing: DeltaBatch,
    /// Recycled merged-run batch for [`Engine::process_batch`]'s run merging.
    merged: DeltaBatch,
    /// Recycled copy of a batch without the entries the gate refused.
    admitted: DeltaBatch,
    /// The catalog's relations by name: what the gate admits.
    schemas: FastMap<String, RelationMeta>,
    /// May same-relation runs of one batch be merged before processing? True
    /// when every statement of the program is an increment (`+=`): each run's
    /// processing is then a pure state difference, so the telescoping sum
    /// over merged runs is exact. `:=` statements bind to a run's *last*
    /// event, which merging could change, so replace-bearing programs keep
    /// their original run boundaries.
    merge_runs: bool,
    /// Per-relation batch dispatch, resolved from
    /// [`TriggerProgram::batch_dispatch`] at construction.
    dispatch: FastMap<String, DispatchEntry>,
    /// `[trigger][statement]` → the statement's kernel, resolved.
    stmts: Vec<Vec<Bound>>,
    /// Per [`TriggerProgram::maps`] entry: its initializer kernel, resolved
    /// (default where the map has none).
    inits: Vec<Bound>,
    /// Fill [`BatchReport::runs`] with per-run strategy records (off by
    /// default; see [`Engine::set_run_recording`]).
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
    /// Kernel-execute latency split by executed strategy:
    /// `[batch-delta, entry-major]`.
    stage_hists: [LocalHistogram; 2],
    /// Shared per-view counter blocks, index-aligned with `map_names`,
    /// `map_ids` and the kernel's [`dbtoaster_agca::KernelCounters`] slots.
    views: Vec<Arc<ViewCounters>>,
    map_names: Vec<String>,
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
    arm_min_events: u64,
    /// Span timing armed for the current batch (big enough to amortize the
    /// per-run/per-statement clock reads; never the batch-of-1 path).
    armed: bool,
    runs: Vec<RunScratch>,
    runs_live: usize,
}

impl TelemetryState {
    fn stage_index(strategy: BatchStrategy) -> usize {
        match strategy {
            BatchStrategy::BatchDelta => 0,
            BatchStrategy::EntryMajor => 1,
        }
    }

    fn stage_of(idx: usize) -> Stage {
        match idx {
            0 => Stage::KernelBatchDelta,
            _ => Stage::KernelEntryMajor,
        }
    }

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

    /// Close the current run span.
    fn end_run(&mut self, strategy: Option<BatchStrategy>, nanos: u64) {
        let r = &mut self.runs[self.runs_live - 1];
        r.strategy = strategy.map_or("base-only", |s| s.as_str());
        r.nanos = nanos;
        if let Some(s) = strategy {
            self.stage_hists[Self::stage_index(s)].record(nanos);
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
    /// stored base relations and static tables.
    pub fn new(program: TriggerProgram, catalog: &Catalog) -> Self {
        let mut db = Database::new();
        for m in &program.maps {
            db.declare(m.name.clone(), m.out_vars.iter().cloned());
        }
        for rel in program
            .stored_relations
            .iter()
            .chain(program.static_tables.iter())
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
        let merge_runs = program
            .triggers
            .iter()
            .all(|t| t.statements.iter().all(|s| s.op == StmtOp::Increment));
        let schemas = catalog
            .relations()
            .iter()
            .map(|r| (r.name.clone(), r.clone()))
            .collect();
        let mut engine = Engine {
            program: Arc::new(program),
            db,
            stats: EngineStats::default(),
            kernel: KernelState::default(),
            rows: Vec::new(),
            bd: BdScratch::default(),
            single: DeltaBatch::new(),
            firing: DeltaBatch::new(),
            merged: DeltaBatch::new(),
            admitted: DeltaBatch::new(),
            schemas,
            merge_runs,
            dispatch: FastMap::default(),
            stmts: Vec::new(),
            inits: Vec::new(),
            record_runs: false,
            tel: None,
        };
        engine.resolve();
        engine
    }

    /// Resolve what the per-event path addresses by position (see the module
    /// docs): declare every secondary index the program's kernels scan, then
    /// build the dispatch table and bind every statement and static-view
    /// initializer to map ids. Run by [`Engine::new`] and again whenever a
    /// map is declared later; the declarations are idempotent and a map
    /// keeps its id.
    fn resolve(&mut self) {
        let Engine {
            program,
            db,
            dispatch,
            stmts,
            inits,
            ..
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
        *dispatch = program
            .batch_dispatch()
            .into_iter()
            .map(|d| {
                let live_pass = program
                    .live_passes
                    .iter()
                    .position(|lp| lp.relation == d.relation && !lp.statements.is_empty())
                    .map(|i| i as u16);
                let base_live = program
                    .live_pass_for(&d.relation)
                    .is_some_and(|lp| lp.live_maps.contains(&d.relation));
                let tail = program.triggers.iter().any(|t| {
                    t.relation == d.relation && t.statements.iter().any(|s| s.op == StmtOp::Replace)
                });
                let entry = DispatchEntry {
                    insert: d.insert.map(|i| i as u16),
                    delete: d.delete.map(|i| i as u16),
                    strategy: d.strategy,
                    live_pass,
                    base: db.id(&d.relation),
                    base_live,
                    tail,
                };
                (d.relation, entry)
            })
            .collect();
    }

    /// Enable or disable per-run strategy records in [`BatchReport::runs`]
    /// (off by default — recording allocates per run, which the batch-of-1
    /// hot path keeps at zero). The strategy-run *counters* in
    /// [`EngineStats`] are always maintained.
    pub fn set_run_recording(&mut self, enabled: bool) {
        self.record_runs = enabled;
    }

    /// Rebuild an engine from a checkpointed snapshot: every map is restored
    /// wholesale and the event counter resumes at `events_applied`, **without**
    /// re-running [`Engine::init_static_views`] — the snapshot already contains
    /// static tables and the views derived from them. This is the restore half
    /// of the durability layer's checkpoint/recovery protocol; replaying logged
    /// events `events_applied+1..` through [`Engine::process_batch`] afterwards
    /// reproduces a never-restarted engine bit-for-bit.
    pub fn from_snapshot(
        program: TriggerProgram,
        catalog: &Catalog,
        maps: impl IntoIterator<Item = (String, Gmr)>,
        events_applied: u64,
    ) -> Self {
        let mut engine = Engine::new(program, catalog);
        let mut declared = false;
        for (name, gmr) in maps {
            let id = match engine.db.id(&name) {
                Some(id) => id,
                None => {
                    // Present in the snapshot but not declared by the
                    // program: a table `load_table` declared on the fly.
                    declared = true;
                    let columns = gmr.schema().columns().iter().cloned();
                    engine.db.declare(name, columns)
                }
            };
            engine.db.at_mut(id).load_gmr(&gmr);
        }
        if declared {
            engine.resolve();
        }
        engine.stats.events = events_applied;
        engine
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
        self.db.snapshot()
    }

    /// What the snapshots taken so far cost, summed over views: keys patched,
    /// entries copied, full copies by reason.
    pub fn snapshot_work(&self) -> SnapshotWork {
        self.db.snapshot_work()
    }

    /// Mutable access to the statistics (the serving layer records batch-level
    /// counters here).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
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
        let checked = match self.schemas.get(relation) {
            Some(meta) => meta.check_row(row),
            None => Err("the catalog declares no such relation".into()),
        };
        checked.map_err(|reason| RuntimeError::Refused {
            relation: relation.to_string(),
            reason,
        })
    }

    /// Does every entry of `run` pass the gate?
    fn admits_run(&self, run: &RelationDelta) -> bool {
        let meta = self.schemas.get(run.relation());
        meta.is_some_and(|meta| run.entries().iter().all(|e| meta.check_row(&e.key).is_ok()))
    }

    /// Load the contents of a static table (each row with multiplicity 1). Call
    /// [`Engine::init_static_views`] after all tables are loaded. The rows of
    /// a table the catalog declares must pass [`Engine::admits_row`] (the
    /// `QueryEngine` facade checks them and returns the refusal); an
    /// ill-typed one panics here, before any kernel could read it.
    pub fn load_table(&mut self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        // Collected first: the gate reads the catalog while the view is
        // written.
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        if self.schemas.contains_key(name) {
            if let Some(e) = rows.iter().find_map(|r| self.admits_row(name, r).err()) {
                panic!("load_table: {e}");
            }
        }
        let mut rows = rows.into_iter();
        let id = match self.db.id(name) {
            Some(id) => id,
            None => {
                // Declare on the fly for tables that only appear in view
                // definitions, taking the arity from the first row.
                let Some(first) = rows.next() else { return };
                let columns = (0..first.len()).map(|i| format!("c{i}"));
                let id = self.db.declare(name, columns);
                self.resolve();
                self.db.at_mut(id).add(first, 1.0);
                id
            }
        };
        let view = self.db.at_mut(id);
        for r in rows {
            view.add(r, 1.0);
        }
    }

    /// Run the kernels of the views that depend only on static tables and load
    /// the results (the paper's handling of `Nation`, `Region` and the MDDB
    /// metadata). The kernels read only rows the gate admitted, so this
    /// returns `Ok`; the `Result` stays for callers written against it.
    pub fn init_static_views(&mut self) -> Result<(), RuntimeError> {
        let program = self.program.clone();
        let Engine {
            db,
            kernel,
            rows,
            inits,
            ..
        } = self;
        for (m, bound) in program.maps.iter().zip(inits.iter()) {
            let Some(init) = &m.init else { continue };
            rows.clear();
            kernel_rows(kernel, db, init, &bound.rels, &[], true, rows, &m.name);
            if let Some(id) = bound.target {
                let view = db.at_mut(id);
                view.clear();
                view.add_rows(Coalesce::new(rows.iter().map(|(k, m)| (k, *m))));
            }
        }
        Ok(())
    }

    /// Process a single update event: the degenerate batch of one. Exactly
    /// equivalent to the historical per-event path — one run, one entry, one
    /// firing — and still allocation-free in steady state (the batch-of-1 is
    /// recycled and its single key stays inline for typical arities).
    pub fn process(&mut self, event: &UpdateEvent) -> Result<(), RuntimeError> {
        let mut single = std::mem::take(&mut self.single);
        single.clear();
        single.push(event);
        let report = self.process_batch(&single);
        self.single = single;
        match report.first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Process a delta batch, firing each relation run's triggers under the
    /// statically chosen [`BatchStrategy`] (see the module docs). The gate
    /// goes first: an entry [`Engine::admits`] would refuse is taken out of
    /// the batch, with its events counted in [`BatchReport::failed_events`],
    /// and the rest is processed as if it had never held them.
    pub fn process_batch(&mut self, batch: &DeltaBatch) -> BatchReport {
        if batch.is_empty() {
            return BatchReport::default();
        }
        let t0 = Instant::now();
        let program = self.program.clone();
        let mut report = BatchReport {
            events: batch.events(),
            ..BatchReport::default()
        };
        // Increment-only programs: fold same-relation runs together first so
        // interleaved streams process one run per relation (ring addition may
        // also cancel entries across runs; see the module docs for legality).
        let mut merged: Option<DeltaBatch> = None;
        if self.merge_runs && batch.has_repeated_relation() {
            let mut scratch = std::mem::take(&mut self.merged);
            batch.merge_runs_into(&mut scratch);
            merged = Some(scratch);
        }
        let source: &DeltaBatch = merged.as_ref().unwrap_or(batch);
        // The ingest gate: a batch holding an entry it refuses is processed
        // as a copy without that entry.
        let mut admitted: Option<DeltaBatch> = None;
        if !source.runs().iter().all(|run| self.admits_run(run)) {
            let mut scratch = std::mem::take(&mut self.admitted);
            let mut first = None;
            report.failed_events = source.retain_into(&mut scratch, |run, e| {
                let refused = self.admits_row(run.relation(), &e.key).err();
                let admitted = refused.is_none();
                first = first.take().or(refused);
                admitted
            });
            report.first_error = first;
            admitted = Some(scratch);
        }
        let source: &DeltaBatch = admitted.as_ref().unwrap_or(source);
        // Arm per-run/per-statement span timing only for batches big enough
        // to amortize the extra clock reads — never the batch-of-1 path.
        let armed = match self.tel.as_deref_mut() {
            Some(ts) => {
                ts.runs_live = 0;
                ts.armed = report.events >= ts.arm_min_events;
                ts.armed
            }
            None => false,
        };
        let mut run_count = 0u32;
        let mut last_strategy: Option<BatchStrategy> = None;
        for run in source.runs() {
            let rt0 = if armed {
                self.tel
                    .as_deref_mut()
                    .expect("armed implies tel")
                    .begin_run(run.relation(), run.events(), run.entries().len());
                Some(Instant::now())
            } else {
                None
            };
            let strat = self.process_run(&program, run, &mut report);
            run_count += 1;
            last_strategy = strat;
            if let Some(rt0) = rt0 {
                let nanos = rt0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.tel
                    .as_deref_mut()
                    .expect("armed implies tel")
                    .end_run(strat, nanos);
            }
        }
        self.stats.batch_events_collapsed += source.collapsed_events();
        if let Some(m) = merged {
            self.merged = m;
        }
        if let Some(a) = admitted {
            self.admitted = a;
        }
        self.stats.events += report.events - report.failed_events;
        self.stats.delta_batches += 1;
        let elapsed = t0.elapsed();
        self.stats.busy += elapsed;
        if let Some(ts) = self.tel.as_deref_mut() {
            let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            ts.batch_hist.record(nanos);
            // Strategy attribution without extra clock reads: a single-run
            // batch (the overwhelmingly common case, and always the
            // batch-of-1 path) is its one run, so the whole batch
            // measurement is the run's kernel-execute time. Multi-run
            // batches were attributed per run above when armed.
            if run_count == 1 && !armed {
                if let Some(s) = last_strategy {
                    ts.stage_hists[TelemetryState::stage_index(s)].record(nanos);
                }
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

    // -----------------------------------------------------------------------
    // Batch execution
    // -----------------------------------------------------------------------

    /// Dispatch one relation run. Returns the strategy that executed
    /// (`None` when the run applied only a base update).
    fn process_run(
        &mut self,
        program: &TriggerProgram,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) -> Option<BatchStrategy> {
        let Some(&disp) = self.dispatch.get(run.relation()) else {
            // No trigger for this relation under either sign (e.g. an update
            // to a relation no query depends on): still keep the stored base
            // relation consistent.
            self.apply_base_run(self.db.id(run.relation()), run);
            return None;
        };
        let executed = disp.strategy;
        match executed {
            BatchStrategy::BatchDelta => self.run_batch_delta(program, disp, run),
            BatchStrategy::EntryMajor => self.run_firing_by_firing(program, disp, run),
        }
        match executed {
            BatchStrategy::BatchDelta => self.stats.batch_delta_runs += 1,
            BatchStrategy::EntryMajor => self.stats.entry_major_runs += 1,
        }
        if self.record_runs {
            report.runs.push(RunRecord {
                relation: run.relation().to_string(),
                strategy: executed,
                events: run.events(),
            });
        }
        Some(executed)
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

    /// Entry-major execution of one run: the batch-delta executor over runs
    /// of one firing each — every surviving entry `|mult|` times, in entry
    /// order — which is event-at-a-time processing of the net stream.
    fn run_firing_by_firing(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
    ) {
        let mut one = std::mem::take(&mut self.firing);
        for entry in run.entries() {
            let Some(sign) = entry.sign() else { continue };
            for _ in 0..entry.firings() {
                one.clear();
                one.push_key(run.relation(), entry.key.clone(), sign);
                self.run_batch_delta(program, disp, &one.runs()[0]);
            }
        }
        self.firing = one;
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
        let Engine {
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
        apply_statement_rows(db, stmt, bound.target, &[all], rows);
        let produced = rows.len() as u64;
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
            let Engine {
                db, bd, tel, stmts, ..
            } = self;
            for ds in &bd.stmts[..bd.live] {
                let (t, j) = (ds.tidx as usize, ds.stmt as usize);
                let (stmt, target) = (&program.triggers[t].statements[j], stmts[t][j].target);
                if !ds.applied {
                    apply_statement_rows(db, stmt, target, &ds.segs, &ds.rows);
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
    /// same targets; a run of one firing needs neither.
    fn fire_replace_tail(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
    ) {
        if !disp.tail {
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
        let Engine {
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
            for _ in 0..entry.firings() {
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
                    // This firing's segment: just evaluated, or buffered.
                    let seg = if listed(j) {
                        ds.segs[ds.segs.len() - 1]
                    } else {
                        ds.segs[k]
                    };
                    let view = db.at_mut(id);
                    for (key, mult) in ds.rows[seg.start..seg.end]
                        .iter()
                        .filter(|(_, m)| *m != 0.0)
                    {
                        view.add(key.clone(), *mult);
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
        let Engine {
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

    /// Snapshot a query result as a GMR over its output columns.
    pub fn result(&self, query: &str) -> Result<Gmr, RuntimeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| RuntimeError::UnknownQuery(query.to_string()))?;
        let ResultAccess::Map(name) = &qr.access;
        self.db
            .view(name)
            .map(|v| v.to_gmr())
            .ok_or_else(|| RuntimeError::UnknownView(name.clone()))
    }

    /// Direct access to a view's contents (for tests and debugging).
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.db.view(name).map(|v| v.to_gmr())
    }

    /// The store itself, read-only (for tests and debugging: its views'
    /// declared indexes, footprints, ids).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Approximate memory footprint of all views and stored relations, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    /// Total number of entries across all views and stored relations.
    pub fn total_entries(&self) -> usize {
        self.db
            .names()
            .filter_map(|n| self.db.view(n).map(|v| v.len()))
            .sum()
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Structured EXPLAIN of the compiled trigger program: one operator tree
    /// per statement plus the batch-dispatch decision (and its reason) per
    /// relation. With telemetry attached the tree carries live per-view
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
        if let Some(ts) = self.tel.as_deref() {
            use std::sync::atomic::Ordering::Relaxed;
            ex.attach_stats(|name| {
                let i = ts.map_names.iter().position(|n| n == name)?;
                let v = &ts.views[i];
                Some(dbtoaster_compiler::ViewStats {
                    rows_written: v.rows_written.load(Relaxed),
                    probes: v.probes.load(Relaxed),
                    scans: v.scans.load(Relaxed),
                    entries_scanned: v.entries_scanned.load(Relaxed),
                    fused_scans: v.fused_scans.load(Relaxed),
                    range_sum_hits: v.range_sum_hits.load(Relaxed),
                    range_sum_bails: v.range_sum_bails.load(Relaxed),
                    live_firings: v.live_firings.load(Relaxed),
                    map_size: v.map_size.load(Relaxed),
                })
            });
        }
        ex.attach_index_stats(|name| Some(self.db.view(name)?.index_totals()));
        ex
    }

    /// Attach a [`Telemetry`] handle. With an enabled handle the engine
    /// records whole-batch latency, per-strategy kernel timings, per-view
    /// work counters and slow-batch traces into it — all buffered in plain
    /// integers and folded into the shared atomics every
    /// `TELEMETRY_FLUSH_BATCHES` (64) batches (or on
    /// [`Engine::flush_telemetry`]).
    /// A disabled handle detaches: the hot path goes back to one predictable
    /// branch per batch, allocation-free as before.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        if !tel.is_enabled() {
            self.tel = None;
            self.kernel.counter_slot = 0;
            return;
        }
        let map_names: Vec<String> = self.db.names().map(|n| n.to_string()).collect();
        let map_ids: Vec<MapId> = map_names.iter().filter_map(|n| self.db.id(n)).collect();
        let views: Vec<Arc<ViewCounters>> = map_names
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
        let (slow_threshold_nanos, arm_min_events) = {
            let c = tel.config().expect("enabled handle");
            (
                c.slow_batch_threshold.as_nanos().min(u64::MAX as u128) as u64,
                c.trace_arm_min_events,
            )
        };
        // One kernel counter block per view; reset anything a previous
        // attachment left behind so counts start from zero.
        self.kernel.ensure_counter_slots(map_names.len());
        for c in &self.kernel.counter_slots {
            let _ = c.take();
        }
        self.kernel.counter_slot = 0;
        let n = map_names.len();
        self.tel = Some(Box::new(TelemetryState {
            tel,
            batch_hist: LocalHistogram::new(),
            stage_hists: [LocalHistogram::new(), LocalHistogram::new()],
            views,
            map_names,
            map_ids,
            pending_rows: vec![0; n],
            pending_live: vec![0; n],
            stmt_slot,
            flushed_events: self.stats.events,
            flushed_batches: self.stats.delta_batches,
            slow_threshold_nanos,
            arm_min_events,
            armed: false,
            runs: Vec::new(),
            runs_live: 0,
        }));
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_ref().map(|t| &t.tel)
    }

    /// Fold all locally buffered telemetry (latency histograms, per-view
    /// counters, kernel work counters, observed map sizes, event totals)
    /// into the shared [`Telemetry`] atomics. Allocation-free; runs
    /// automatically every `TELEMETRY_FLUSH_BATCHES` (64) batches, and callers
    /// (the serving writer, tests) invoke it before reading a
    /// snapshot.
    pub fn flush_telemetry(&mut self) {
        let Some(ts) = self.tel.as_deref_mut() else {
            return;
        };
        use std::sync::atomic::Ordering::Relaxed;
        ts.batch_hist
            .flush_into(ts.tel.batch_hist().expect("enabled handle"));
        for (i, h) in ts.stage_hists.iter_mut().enumerate() {
            h.flush_into(
                ts.tel
                    .stage_hist(TelemetryState::stage_of(i))
                    .expect("enabled handle"),
            );
        }
        for (i, view) in ts.views.iter().enumerate() {
            if let Some(c) = self.kernel.counter_slots.get(i) {
                let w = c.take();
                if w.probes
                    | w.scans
                    | w.entries_scanned
                    | w.fused_scans
                    | w.range_sum_hits
                    | w.range_sum_bails
                    != 0
                {
                    view.probes.fetch_add(w.probes, Relaxed);
                    view.scans.fetch_add(w.scans, Relaxed);
                    view.entries_scanned.fetch_add(w.entries_scanned, Relaxed);
                    view.fused_scans.fetch_add(w.fused_scans, Relaxed);
                    view.range_sum_hits.fetch_add(w.range_sum_hits, Relaxed);
                    view.range_sum_bails.fetch_add(w.range_sum_bails, Relaxed);
                }
            }
            let rows = std::mem::take(&mut ts.pending_rows[i]);
            if rows != 0 {
                view.rows_written.fetch_add(rows, Relaxed);
            }
            let live = std::mem::take(&mut ts.pending_live[i]);
            if live != 0 {
                view.live_firings.fetch_add(live, Relaxed);
            }
            let v = self.db.at(ts.map_ids[i]);
            view.map_size.store(v.len() as u64, Relaxed);
            let t = v.index_totals();
            for (gauge, n) in view
                .indexes
                .iter()
                .zip([t.hash, t.ordered, t.entries, t.bytes])
            {
                gauge.store(n, Relaxed);
            }
            let w = v.snapshot_work();
            view.snapshot_keys_patched.store(w.keys_patched, Relaxed);
            view.snapshot_entries_copied
                .store(w.entries_copied, Relaxed);
            for (slot, n) in view.snapshot_full_copies.iter().zip([
                w.first_copies,
                w.pinned_copies,
                w.abandoned_copies,
            ]) {
                slot.store(n, Relaxed);
            }
        }
        ts.tel.add_events(
            self.stats.events - ts.flushed_events,
            self.stats.delta_batches - ts.flushed_batches,
        );
        ts.flushed_events = self.stats.events;
        ts.flushed_batches = self.stats.delta_batches;
    }

    /// Build a trace sample at the given stream fraction.
    pub fn sample(&self, fraction: f64) -> TraceSample {
        TraceSample {
            fraction,
            elapsed_secs: self.stats.busy.as_secs_f64(),
            refresh_rate: self.stats.refresh_rate(),
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

/// The one row applier: write a statement's buffered rows to its target map
/// `target` (resolved at construction), whether the rows are one firing's or
/// a whole run's. A `:=` statement clears its target first.
fn apply_statement_rows(
    db: &mut Database,
    stmt: &Statement,
    target: Option<MapId>,
    segs: &[Seg],
    rows: &[(Tuple, f64)],
) {
    let target = db.at_mut(resolved(target, stmt));
    if stmt.op == StmtOp::Replace {
        target.clear();
    }
    let it = segs.iter().flat_map(|s| {
        let slice = &rows[s.start..s.end];
        (0..s.reps).flat_map(move |_| slice.iter().map(|(k, m)| (k, *m)))
    });
    target.add_rows(Coalesce::new(it));
}

/// Coalesce consecutive same-key rows of a buffered application stream into
/// one write each. Driven over a whole batch, the entries of a run often hit
/// the same group keys (every entry, for a scalar aggregate), so this turns
/// O(entries) target-map writes per statement into O(distinct consecutive
/// keys). Summation is reassociated relative to per-event processing — exact
/// on integer weights, last-ulp on floats (the documented batch caveat); a
/// batch of one entry coalesces nothing beyond what the kernel sink already
/// did, keeping the batch-of-1 path bit-exact.
struct Coalesce<'a, I: Iterator<Item = (&'a Tuple, f64)>> {
    inner: std::iter::Peekable<I>,
}

impl<'a, I: Iterator<Item = (&'a Tuple, f64)>> Coalesce<'a, I> {
    fn new(inner: I) -> Self {
        Coalesce {
            inner: inner.peekable(),
        }
    }
}

impl<'a, I: Iterator<Item = (&'a Tuple, f64)>> Iterator for Coalesce<'a, I> {
    type Item = (&'a Tuple, f64);

    fn next(&mut self) -> Option<(&'a Tuple, f64)> {
        let (key, mut mult) = self.inner.next()?;
        while let Some(&(next_key, next_mult)) = self.inner.peek() {
            if next_key != key {
                break;
            }
            mult += next_mult;
            self.inner.next();
        }
        Some((key, mult))
    }
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
            for name in per_event.db.names() {
                let a = per_event.view(name).unwrap();
                let b = batched.view(name).expect("same view set");
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
