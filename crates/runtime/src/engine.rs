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
//! 1. all incremental (`+=`) statements of the matching trigger, which by construction
//!    read the *old* versions of the views they use;
//! 2. the update itself is applied to the stored base relation (if it is stored at all —
//!    full Higher-Order IVM usually does not need the base relations);
//! 3. all re-evaluation (`:=`) statements, which read the *new* versions.
//!
//! ## Batch execution
//!
//! How a multi-entry delta drives that sequence is chosen statically per relation by
//! [`TriggerProgram::batch_dispatch`] — two strategies, one firing order:
//!
//! * **Batch-delta** (chosen whenever the compiler derived a run-linear
//!   program for the relation — see the compiler's `batch_delta` module) is
//!   the three phases above run once per *run* instead of once per event:
//!   1. every incremental statement of both sign triggers that reads nothing
//!      the run writes is evaluated for all entries back-to-back against the
//!      *pre-run* state with its writes buffered (statement prelude and
//!      loop-invariant fused scans amortized over the run). When some
//!      statement does read a map the same run writes — the relation's
//!      run-linear program lists it, and the maps it reads are the relation's
//!      *live maps* — one **live pass** over the run's firings follows, in
//!      entry order: each listed statement is evaluated for the firing
//!      against the store, and whatever the firing writes to a live map —
//!      rows just evaluated or rows buffered before the pass, the base
//!      update included — is written at once, so the next firing reads what
//!      per-event processing would have it read, through the same single
//!      lookup (a range sum stays one search of one ordered index, whatever
//!      the run has added to it). Those writes are remembered and taken back
//!      if the pass fails. The pass costs what its statements cost per event;
//!      it is skipped for runs of at most one firing and for relations with
//!      an empty program. Then all writes still buffered land: one target
//!      resolution, one change-log entry and one version bump per statement
//!      per run;
//!   2. the base update, one pass over the run's net entries (unless the
//!      live pass made it, firing by firing);
//!   3. the `:=` statements of the run's **last event**, once, against the
//!      new state — of a run's per-event `:=` firings only the last one's
//!      output survives, and this is it. A trigger of nothing but `:=`
//!      statements (re-evaluation mode) is the degenerate run: an empty
//!      phase 1 and one re-evaluation per run instead of one per event.
//!
//!   Any evaluation error in phase 1 discards the (still unapplied) buffers,
//!   undoes the live pass's writes and replays the whole run entry-major, reproducing per-event poison
//!   semantics exactly. A failing `:=` in phase 3 counts its binding event as
//!   failed, like the per-event path does.
//! * **Entry-major** (the per-event oracle, the path of every relation the
//!   derivation bailed on — increment chains that read their own targets,
//!   right-hand sides not affine in what the run writes, `:=` statements that
//!   are not a mirrored tail — and the replay path above): each surviving
//!   entry fires the full per-event sequence `|mult|` times. Always exact;
//!   amortizes only the per-batch dispatch.
//!
//! The strategy of a run depends on the program and the
//! [`Engine::set_force_entry_major`] setting alone — never on the run's size
//! or the state — so a WAL replay takes the same sequence as the live run.
//! Both strategies evaluate statements through one function,
//! `Evaluator::rows`, the only place that chooses between a compiled kernel
//! and the AST interpreter (both read through [`RelationSource`] and emit
//! `(key, multiplicity)` rows), so the interpreter remains the
//! differential-testing oracle for batch execution too. See the compiler's
//! `batch_delta` module for the affine-split argument and the `:=` tail
//! (bit-exact on integer-weighted streams; to summation order on float
//! aggregates).
//!
//! When a program is increment-only, [`Engine::process_batch`] additionally
//! *merges* same-relation runs of a batch before processing (ring addition of
//! their entries): each run's processing is a pure state difference, so the
//! telescoping sum over merged runs is exact, and interleaved streams (e.g.
//! alternating bids/asks) collapse from many short runs into one per relation.

use crate::store::{CachedSource, Database, SnapshotWork};
use dbtoaster_agca::batch::{DeltaBatch, RelationDelta};
use dbtoaster_agca::eval::{
    eval_with, eval_with_scratch, Bindings, EvalError, EvalScratch, RelationSource,
};
use dbtoaster_agca::plan::{CompiledStmt, KernelState};
use dbtoaster_agca::{UpdateEvent, UpdateSign};
use dbtoaster_compiler::{
    BatchStrategy, Catalog, ResultAccess, RunLinear, Statement, StmtOp, Trigger, TriggerProgram,
};
use dbtoaster_gmr::{FastMap, Gmr, Tuple, Value};
use dbtoaster_telemetry::{
    LocalHistogram, RunSpan, SlowBatchTrace, Stage, StmtSpan, Telemetry, ViewCounters,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernel for statement `j`, when the trigger has one.
fn flat_get(kernels: &[Option<CompiledStmt>], j: usize) -> Option<&CompiledStmt> {
    kernels.get(j).and_then(|k| k.as_ref())
}

/// The keys of one view that were touched since the last [`Engine::take_changes`].
///
/// `cleared` is set when a `:=` statement wiped the view, in which case `keys`
/// only covers writes *after* the clear and a consumer should diff the view
/// against its previous snapshot wholesale.
#[derive(Clone, Debug, Default)]
pub struct ViewChange {
    /// The view was cleared by a re-evaluation statement.
    pub cleared: bool,
    /// Distinct keys written since the last drain (post-clear writes only when
    /// `cleared` is set). The unit value map is used as a cheap hash set.
    pub keys: FastMap<Tuple, ()>,
}

/// Changed-key log across all views, drained by [`Engine::take_changes`].
///
/// This is the hook the serving layer uses to turn statement-level writes into
/// per-query output deltas: after a batch, each changed key's old multiplicity
/// (previous snapshot) and new multiplicity (current snapshot) are compared.
#[derive(Clone, Debug, Default)]
pub struct ChangeSet {
    /// Per-view change records, keyed by view name.
    pub views: FastMap<String, ViewChange>,
}

impl ChangeSet {
    /// The change record for one view, created on first touch. Resolved once
    /// per (statement, batch) on the batch path — the per-write cost is then
    /// one key clone into the set, no name hashing.
    fn entry(&mut self, view: &str) -> &mut ViewChange {
        if !self.views.contains_key(view) {
            self.views.insert(view.to_string(), ViewChange::default());
        }
        self.views.get_mut(view).expect("inserted above")
    }

    fn record_key(&mut self, view: &str, key: Tuple) {
        // Single hash on the hit path (this runs once per write on the
        // per-firing paths while change tracking is on).
        if let Some(c) = self.views.get_mut(view) {
            c.keys.insert(key, ());
        } else {
            let mut c = ViewChange::default();
            c.keys.insert(key, ());
            self.views.insert(view.to_string(), c);
        }
    }

    fn record_clear(&mut self, view: &str) {
        let c = self.entry(view);
        c.cleared = true;
        c.keys.clear();
    }

    /// Are there no recorded changes?
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Fold a newer change set into this one (`self` happened first). A newer
    /// clear supersedes older keys; otherwise key sets union.
    pub fn merge(&mut self, newer: ChangeSet) {
        for (view, change) in newer.views {
            match self.views.get_mut(&view) {
                None => {
                    self.views.insert(view, change);
                }
                Some(existing) => {
                    if change.cleared {
                        *existing = change;
                    } else {
                        existing.keys.extend(change.keys);
                    }
                }
            }
        }
    }
}

/// Errors raised while processing events.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// Statement evaluation failed.
    Eval(EvalError),
    /// A statement targets a view that was never declared.
    UnknownView(String),
    /// A statement's key variable is neither bound by the trigger nor produced by the
    /// right-hand side.
    MissingKeyVariable { statement: String, variable: String },
    /// An event's tuple arity does not match the trigger's variables.
    EventArityMismatch {
        relation: String,
        expected: usize,
        actual: usize,
    },
    /// The named query is not part of the compiled program.
    UnknownQuery(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Eval(e) => write!(f, "evaluation error: {e}"),
            RuntimeError::UnknownView(v) => write!(f, "unknown view {v}"),
            RuntimeError::MissingKeyVariable {
                statement,
                variable,
            } => {
                write!(
                    f,
                    "key variable {variable} not available in statement {statement}"
                )
            }
            RuntimeError::EventArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "event for {relation} has {actual} values, trigger expects {expected}"
            ),
            RuntimeError::UnknownQuery(q) => write!(f, "unknown query {q}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<EvalError> for RuntimeError {
    fn from(e: EvalError) -> Self {
        RuntimeError::Eval(e)
    }
}

/// The outcome of one [`Engine::process_batch`] call. Processing never stops
/// at the first failure — a poison event inside a batch keeps its slot in the
/// stream (and, under durability, its WAL sequence number) while the rest of
/// the batch is applied; the caller learns how many events failed and what
/// went wrong first.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Stream events the batch covered (successful + failed).
    pub events: u64,
    /// Events whose trigger work failed (counted by the delta entries or
    /// firings they were folded into; such events may be *partially* applied —
    /// there is no statement rollback).
    pub failed_events: u64,
    /// The first error encountered, if any.
    pub first_error: Option<RuntimeError>,
    /// Which strategy actually executed each relation run, in processing
    /// order (after any run merging and after any runtime fallback from
    /// batch-delta to entry-major). Runs with no trigger under either sign —
    /// base-relation-only updates — are not recorded. Deterministic for a
    /// given program, override setting and batch boundaries, so a WAL replay
    /// produces the same sequence as live processing. Empty unless
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
    /// The strategy that actually executed (the dispatch choice, or
    /// [`BatchStrategy::EntryMajor`] when a batch-delta run fell back at
    /// runtime).
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
    /// Events processed so far. On a plain engine only successfully applied
    /// events count; a *durable* serving writer also counts failed events,
    /// because each logged event owns a WAL sequence slot and the watermark
    /// must advance past a poison event for recovery to line up.
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
    /// Number of trigger statements executing through compiled kernels
    /// (slot-addressed plans) rather than the AST interpreter. 0 when the
    /// program carries no kernels or the engine was forced onto the
    /// interpreter path (see [`Engine::set_force_interpreter`]).
    pub compiled_triggers: u64,
    /// Relation runs executed on the batch-delta path (pre-state evaluation,
    /// the live pass where entries interact, the `:=` tail; see the module
    /// docs).
    pub batch_delta_runs: u64,
    /// Always 0: the statement-major strategy was folded into batch-delta.
    /// Kept, never written, only because the frozen benchmark reads it for
    /// its `runtime.runs_statement_major` ledger row; goes with that row
    /// (ROADMAP item 6(e)).
    pub statement_major_runs: u64,
    /// Relation runs executed entry-major — per-event firing, either by
    /// dispatch (the relation's batch-delta derivation bailed, or the oracle
    /// override) or as the replay of a batch-delta run that hit an error.
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
            compiled_triggers: 0,
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
    /// Index into [`TriggerProgram::run_linear`] when the strategy is
    /// batch-delta and some statement has a run-linear part, i.e. when
    /// multi-firing runs need the live pass (resolved once at
    /// dispatch-build time).
    run_linear: Option<u16>,
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

/// One trigger statement as the evaluator sees it.
#[derive(Clone, Copy)]
struct StmtRef<'a> {
    /// The trigger's variables, positionally bound to the event tuple.
    trigger_vars: &'a [String],
    stmt: &'a Statement,
    /// The statement's compiled kernel; `None` = interpret the AST.
    kernel: Option<&'a CompiledStmt>,
}

/// Everything statement evaluation needs besides a relation source, reused
/// across events — zero per-event allocation in steady state on the compiled
/// path.
#[derive(Debug, Default)]
struct Evaluator {
    /// Compiled-kernel execution state (frame, pattern buffers, scratch
    /// maps, work counters).
    kernel: KernelState,
    /// Interpreter scratch: memoized product orders + recycled pattern buffer.
    scratch: EvalScratch,
    /// Interpreter trigger-variable bindings, re-seeded per evaluation.
    bindings: Bindings,
}

impl Evaluator {
    /// Evaluate statement `s` for one event `tuple` against `src`, appending
    /// its `(key, multiplicity)` rows to `out` and touching no view. This is
    /// the one place that chooses between a compiled kernel and the AST
    /// interpreter; collection, the live pass and single firings all come
    /// through here, so the two evaluators cannot drift apart by call site.
    ///
    /// `first` marks the first of a series of back-to-back evaluations of `s`
    /// against an unchanged `src`: the kernel's buffers are sized and its
    /// loop-invariant fused scans run, and the rest of the series reuses
    /// both.
    fn rows(
        &mut self,
        src: &dyn RelationSource,
        s: StmtRef<'_>,
        tuple: &[Value],
        first: bool,
        out: &mut Vec<(Tuple, f64)>,
    ) -> Result<(), RuntimeError> {
        match s.kernel {
            Some(kernel) => {
                let state = &mut self.kernel;
                if first {
                    state.prepare(kernel);
                }
                for &slot in &kernel.used_trigger_slots {
                    state.frame[slot as usize] = tuple[slot as usize].clone();
                }
                // The kernel appends to `state.out`: lend it the caller's
                // buffer for the call instead of copying rows across.
                std::mem::swap(&mut state.out, out);
                let res = kernel.execute_batch_entry(src, state, first);
                std::mem::swap(&mut state.out, out);
                res.map_err(RuntimeError::Eval)
            }
            None => {
                if first {
                    // No stale name may leak across triggers.
                    self.bindings.clear();
                }
                for (var, value) in s.trigger_vars.iter().zip(tuple) {
                    self.bindings.set(var, value.clone());
                }
                let result =
                    eval_with_scratch(&s.stmt.rhs, src, &mut self.bindings, &mut self.scratch)?;
                if result.is_empty() {
                    return Ok(());
                }
                let key_sources = resolve_key_sources(s.stmt, &self.bindings, result.schema())?;
                for (row, mult) in result.iter() {
                    let key: Tuple = key_sources
                        .iter()
                        .map(|s| match s {
                            Ok(v) => v.clone(),
                            Err(i) => row[*i].clone(),
                        })
                        .collect();
                    out.push((key, mult));
                }
                Ok(())
            }
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
    /// Changed-key log, present only while change tracking is enabled.
    changes: Option<ChangeSet>,
    /// Reusable statement-evaluation state, shared by every execution path.
    eval: Evaluator,
    /// Recycled row buffer of a single firing (entry-major, the `:=` tail).
    rows: Vec<(Tuple, f64)>,
    /// Batch-delta deferred-statement buffers (pooled across runs).
    bd: BdScratch,
    /// Recycled batch-of-1 for [`Engine::process`] (zero-allocation wrapper).
    single: DeltaBatch,
    /// Recycled merged-run batch for [`Engine::process_batch`]'s run merging.
    merged: DeltaBatch,
    /// May same-relation runs of one batch be merged before processing? True
    /// when every statement of the program is an increment (`+=`): each run's
    /// processing is then a pure state difference, so the telescoping sum
    /// over merged runs is exact. `:=` statements bind to a run's *last*
    /// event, which merging could change, so replace-bearing programs keep
    /// their original run boundaries.
    merge_runs: bool,
    /// Per-relation batch dispatch, resolved from
    /// [`TriggerProgram::batch_dispatch`] at construction (and on
    /// [`Engine::set_force_entry_major`]).
    dispatch: FastMap<String, DispatchEntry>,
    /// Undo log of the batch-delta live pass: per write it made to a view
    /// ahead of the apply phase, the view (an index into the relation's
    /// [`RunLinear::live_maps`]), the key and the multiplicity the key had
    /// before. Replayed backwards when the pass fails; empty between passes.
    undo: Vec<(u16, Tuple, f64)>,
    /// Ignore compiled kernels and interpret every statement (the
    /// differential-testing oracle; see [`Engine::set_force_interpreter`]).
    force_interpreter: bool,
    /// Run every relation entry-major (the per-event oracle; see
    /// [`Engine::set_force_entry_major`]).
    force_entry_major: bool,
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
    /// Shared per-view counter blocks, index-aligned with `map_names` and
    /// with the kernel's [`dbtoaster_agca::KernelCounters`] slots.
    views: Vec<Arc<ViewCounters>>,
    map_names: Vec<String>,
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
                    overlay_firings: r.live_firings,
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
        for decl in program.ordered_indexes() {
            if let Some(view) = db.view_mut(&decl.map) {
                view.declare_ordered(decl.mask, decl.key_pos as usize);
            }
        }
        let mut engine = Engine {
            program: Arc::new(program),
            db,
            stats: EngineStats::default(),
            changes: None,
            eval: Evaluator::default(),
            rows: Vec::new(),
            bd: BdScratch::default(),
            single: DeltaBatch::new(),
            merged: DeltaBatch::new(),
            merge_runs,
            dispatch: FastMap::default(),
            undo: Vec::new(),
            force_interpreter: false,
            force_entry_major: false,
            record_runs: false,
            tel: None,
        };
        engine.set_force_entry_major(false);
        engine.set_force_interpreter(false);
        engine
    }

    /// Force (or un-force) [`BatchStrategy::EntryMajor`] for every relation,
    /// rebuilding the dispatch table: the per-event oracle the differential
    /// suites compare batch-delta against. Like
    /// [`Engine::set_force_interpreter`], it selects a reference path that
    /// agrees with the default bit-for-bit on integer data and to summation
    /// order on float aggregates.
    pub fn set_force_entry_major(&mut self, force: bool) {
        self.force_entry_major = force;
        self.dispatch = self
            .program
            .batch_dispatch()
            .into_iter()
            .map(|d| {
                let run_linear = self
                    .program
                    .run_linear
                    .iter()
                    .position(|rl| rl.relation == d.relation && !rl.statements.is_empty())
                    .map(|i| i as u16);
                (
                    d.relation,
                    DispatchEntry {
                        insert: d.insert.map(|i| i as u16),
                        delete: d.delete.map(|i| i as u16),
                        strategy: if force {
                            BatchStrategy::EntryMajor
                        } else {
                            d.strategy
                        },
                        run_linear,
                    },
                )
            })
            .collect();
    }

    /// Is every relation forced entry-major?
    pub fn force_entry_major(&self) -> bool {
        self.force_entry_major
    }

    /// Enable or disable per-run strategy records in [`BatchReport::runs`]
    /// (off by default — recording allocates per run, which the batch-of-1
    /// hot path keeps at zero). The strategy-run *counters* in
    /// [`EngineStats`] are always maintained.
    pub fn set_run_recording(&mut self, enabled: bool) {
        self.record_runs = enabled;
    }

    /// Force (or un-force) the AST-interpreter path for every statement,
    /// ignoring compiled kernels: the reference evaluator the equivalence
    /// suites compare kernels against. The two paths agree bit-for-bit on
    /// integer data but may differ in the last ulp on floating-point
    /// aggregates (different summation orders), so a durable deployment that
    /// flipped this across a restart would replay float view state to
    /// relative ~1e-15, not bit-exactly.
    pub fn set_force_interpreter(&mut self, force: bool) {
        self.force_interpreter = force;
        // Count only kernels the dispatcher will actually use: a trigger whose
        // kernel list is misaligned with its statement list falls back to the
        // interpreter wholesale (see `process`), and the stat must agree.
        self.stats.compiled_triggers = if force {
            0
        } else {
            self.program
                .triggers
                .iter()
                .zip(self.program.compiled.iter())
                .filter(|(t, c)| c.stmts.len() == t.statements.len())
                .map(|(_, c)| c.compiled_count() as u64)
                .sum()
        };
    }

    /// Is the engine on the interpreter-only path?
    pub fn force_interpreter(&self) -> bool {
        self.force_interpreter
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
        for (name, gmr) in maps {
            if !engine.db.contains(&name) {
                // Present in the snapshot but not declared by the program: a
                // table that was declared on the fly by `load_table`.
                engine
                    .db
                    .declare(name.clone(), gmr.schema().columns().iter().cloned());
            }
            engine
                .db
                .view_mut(&name)
                .expect("declared above")
                .load_gmr(&gmr);
        }
        engine.stats.events = events_applied;
        engine
    }

    /// Enable or disable the changed-key log consumed by [`Engine::take_changes`].
    /// Off by default; costs one cheap key clone per view write when on.
    pub fn set_change_tracking(&mut self, enabled: bool) {
        if enabled {
            self.changes.get_or_insert_with(ChangeSet::default);
        } else {
            self.changes = None;
        }
    }

    /// Drain the changed-key log accumulated since the last call (empty when
    /// change tracking is disabled).
    pub fn take_changes(&mut self) -> ChangeSet {
        match self.changes.as_mut() {
            Some(c) => std::mem::take(c),
            None => ChangeSet::default(),
        }
    }

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

    /// Load the contents of a static table (each row with multiplicity 1). Call
    /// [`Engine::init_static_views`] after all tables are loaded.
    pub fn load_table(&mut self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        let mut rows = rows.into_iter();
        if !self.db.contains(name) {
            // Declare on the fly for tables that only appear in view definitions,
            // taking the arity from the first row.
            match rows.next() {
                Some(first) => {
                    self.db
                        .declare(name.to_string(), (0..first.len()).map(|i| format!("c{i}")));
                    self.db.view_mut(name).unwrap().add(first, 1.0);
                }
                None => return,
            }
        }
        let view = self.db.view_mut(name).expect("declared above");
        for r in rows {
            view.add(r, 1.0);
        }
    }

    /// Evaluate the definitions of views that depend only on static tables and load the
    /// results (the paper's handling of `Nation`, `Region` and the MDDB metadata).
    pub fn init_static_views(&mut self) -> Result<(), RuntimeError> {
        let program = self.program.clone();
        for m in &program.maps {
            if !m.init_from_tables {
                continue;
            }
            let result = eval_with(&m.definition, &self.db, &mut Bindings::new())?;
            if let Some(view) = self.db.view_mut(&m.name) {
                view.load_gmr(&result);
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
    /// statically chosen [`BatchStrategy`] (see the module docs). Never stops
    /// early: failed events are skipped past (keeping their stream slot) and
    /// reported, so a durable writer's WAL watermark and a replay stay lined
    /// up with live processing.
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

    /// Dispatch one relation run. Returns the strategy that actually
    /// executed (`None` when the run applied only a base update or failed
    /// its arity gate).
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
            self.apply_base_run(run);
            return None;
        };
        // Arity gate, per run (runs are arity-uniform by construction): a
        // mismatched event applies nothing — not even the base update — just
        // like the per-event path.
        for idx in [disp.insert, disp.delete].into_iter().flatten() {
            let trigger = &program.triggers[idx as usize];
            if trigger.trigger_vars.len() != run.arity() {
                report.failed_events += run.events();
                report
                    .first_error
                    .get_or_insert(RuntimeError::EventArityMismatch {
                        relation: run.relation().to_string(),
                        expected: trigger.trigger_vars.len(),
                        actual: run.arity(),
                    });
                return None;
            }
        }
        let executed = match disp.strategy {
            BatchStrategy::BatchDelta => self.run_batch_delta(program, disp, run, report),
            BatchStrategy::EntryMajor => {
                self.run_entry_major(program, disp, run, report);
                BatchStrategy::EntryMajor
            }
        };
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
                    self.eval.kernel.counter_slot = slot as usize;
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
            if let Some(r) = ts.pending_rows.get_mut(self.eval.kernel.counter_slot) {
                *r += rows;
            }
        }
    }

    /// Entry-major execution of one run: every surviving entry fires the full
    /// per-event trigger sequence `|mult|` times — identical to
    /// event-at-a-time processing of the net stream.
    fn run_entry_major(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) {
        for entry in run.entries() {
            let Some(sign) = entry.sign() else { continue };
            for _ in 0..entry.firings() {
                if let Err(e) = self.fire_single(
                    program,
                    run.relation(),
                    disp.trigger(sign),
                    sign,
                    &entry.key,
                ) {
                    report.failed_events += 1;
                    report.first_error.get_or_insert(e);
                }
            }
        }
    }

    /// One complete single-tuple firing: increments, base update, replaces.
    fn fire_single(
        &mut self,
        program: &TriggerProgram,
        relation: &str,
        tidx: Option<u16>,
        sign: UpdateSign,
        key: &Tuple,
    ) -> Result<(), RuntimeError> {
        let Some(tidx) = tidx else {
            // This sign has no trigger: only the stored base relation moves.
            self.apply_base_raw(relation, key, sign.multiplier());
            return Ok(());
        };
        let statements = &program.triggers[tidx as usize].statements;
        let of_op = |op: StmtOp| (0..statements.len()).filter(move |&j| statements[j].op == op);
        // Phase 1: incremental statements read the old state.
        for j in of_op(StmtOp::Increment) {
            self.fire_statement(program, tidx, j, key)?;
        }
        // Phase 2: reflect the update in the stored base relation (if stored).
        self.apply_base_raw(relation, key, sign.multiplier());
        // Phase 3: re-evaluation statements read the new state.
        for j in of_op(StmtOp::Replace) {
            self.fire_statement(program, tidx, j, key)?;
        }
        Ok(())
    }

    /// Evaluate statement `j` of trigger `tidx` for one event tuple against
    /// the current state and apply its rows. Returns the rows produced.
    fn fire_statement(
        &mut self,
        program: &TriggerProgram,
        tidx: u16,
        j: usize,
        tuple: &[Value],
    ) -> Result<u64, RuntimeError> {
        let trigger = &program.triggers[tidx as usize];
        let stmt = &trigger.statements[j];
        let s = StmtRef {
            trigger_vars: &trigger.trigger_vars,
            stmt,
            kernel: flat_get(self.kernels_for(program, tidx), j),
        };
        self.set_counter_slot(tidx, j);
        self.stats.statements += 1;
        let Engine {
            db,
            eval,
            rows,
            changes,
            ..
        } = self;
        rows.clear();
        eval.rows(&*db, s, tuple, true, rows)?;
        let all = Seg {
            start: 0,
            end: rows.len(),
            reps: 1,
        };
        apply_statement_rows(db, changes, stmt, &[all], rows)?;
        let produced = rows.len() as u64;
        self.note_rows(produced);
        Ok(produced)
    }

    /// Batch-delta execution of one run (see the module docs): collect every
    /// incremental statement's rows over the run's entries against the
    /// pre-run state (for a multi-firing run of a relation with a run-linear
    /// program: the live pass in place of that program's statements), apply
    /// the buffers in statement order, apply the base update, fire the last
    /// event's `:=` statements. Returns the strategy that actually executed:
    /// any collection error discards the (still unapplied) buffers — the
    /// database is as the run found it at that point — and replays the whole
    /// run entry-major, which reproduces per-event poison semantics exactly
    /// and does its own failure accounting.
    fn run_batch_delta(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) -> BatchStrategy {
        if self.collect_batch_delta(program, disp, run).is_err() {
            self.bd.live = 0;
            self.run_entry_major(program, disp, run, report);
            return BatchStrategy::EntryMajor;
        }
        // Apply phase. Targets were verified during collection, so these
        // applies cannot fail; surface a defensive error anyway.
        let mut first_err: Option<RuntimeError> = None;
        {
            let Engine {
                db,
                changes,
                bd,
                tel,
                ..
            } = self;
            for ds in &bd.stmts[..bd.live] {
                let stmt = &program.triggers[ds.tidx as usize].statements[ds.stmt as usize];
                let applied = match ds.applied {
                    true => Ok(()),
                    false => apply_statement_rows(db, changes, stmt, &ds.segs, &ds.rows),
                };
                if let Err(e) = applied {
                    first_err.get_or_insert(e);
                } else if let Some(ts) = tel.as_deref_mut() {
                    // Rows are credited at apply time (not collection), so a
                    // run that falls back entry-major never double-counts.
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
            self.apply_base_run(run);
        }
        if let Some(e) = first_err {
            report.failed_events += run.events();
            report.first_error.get_or_insert(e);
        }
        self.fire_replace_tail(program, disp, run, report);
        BatchStrategy::BatchDelta
    }

    /// The `:=` tail of a batch-delta run: the re-evaluation statements of
    /// the run's **last event** (cancelled or not — it is the event whose
    /// firing per-event processing ends on), once, against the state the
    /// run's increments and base update left. Eligibility gate 1 makes the
    /// `:=` statements the trigger's tail and mirrors them across the signs,
    /// so whichever sign came last re-evaluates the same targets.
    fn fire_replace_tail(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) {
        let Some((sign, key)) = run.last_event() else {
            return;
        };
        let Some(tidx) = disp.trigger(sign) else {
            return;
        };
        let trigger = &program.triggers[tidx as usize];
        for j in trigger.increments().len()..trigger.statements.len() {
            let st0 = self.armed_instant();
            match self.fire_statement(program, tidx, j, key) {
                Ok(rows) => self.note_stmt(st0, &trigger.statements[j].target, rows),
                Err(e) => {
                    // Mirror the single-event contract: the binding event
                    // counts as failed and its remaining statements are
                    // skipped.
                    report.failed_events += 1;
                    report.first_error.get_or_insert(e);
                    break;
                }
            }
        }
    }

    /// Phase one of [`Engine::run_batch_delta`]: buffer every incremental
    /// statement's rows, evaluated against the pre-run state and touching no
    /// view — except, when the run has more than one firing and the relation
    /// a run-linear program, the statements that program lists, which the
    /// live pass then evaluates (and whose inputs it writes) firing by
    /// firing. On `Err` the database is as it was before the call, so the
    /// caller can fall back wholesale.
    fn collect_batch_delta(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
    ) -> Result<(), RuntimeError> {
        self.bd.live = 0;
        self.bd.base_applied = false;
        // With at most one firing there is nothing for it to interact with —
        // which also keeps the batch-of-1 path free of any live-pass work.
        let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
        let rl = disp
            .run_linear
            .filter(|_| firings > 1)
            .map(|i| &program.run_linear[i as usize]);
        // First deferred-statement slot of each sign's trigger (statement `j`
        // of the trigger lands in slot `base + j`).
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
            let trigger = &program.triggers[tidx as usize];
            let kernels = self.kernels_for(program, tidx);
            for (j, stmt) in trigger.increments().iter().enumerate() {
                if !self.db.contains(&stmt.target) {
                    return Err(RuntimeError::UnknownView(stmt.target.clone()));
                }
                if rl.is_some_and(|rl| rl.lists(tidx as usize, j)) {
                    // Left to the live pass, which fills this slot.
                    self.bd.acquire(tidx, j as u16);
                    continue;
                }
                self.set_counter_slot(tidx, j);
                let st0 = self.armed_instant();
                let s = StmtRef {
                    trigger_vars: &trigger.trigger_vars,
                    stmt,
                    kernel: flat_get(kernels, j),
                };
                self.collect_statement_over(s, run, sign, tidx, j as u16)?;
                if st0.is_some() {
                    let rows = segs_rows(&self.bd.stmts[self.bd.live - 1].segs);
                    self.note_stmt(st0, &stmt.target, rows);
                }
            }
        }
        let Some(rl) = rl else {
            return Ok(());
        };
        let st0 = self.armed_instant();
        let rows = self.live_pass(program, disp, rl, run, base);
        if rows.is_err() {
            // Take back what the pass wrote, last write first.
            for (map, key, before) in self.undo.drain(..).rev() {
                if let Some(view) = self.db.view_mut(&rl.live_maps[map as usize]) {
                    view.set(key, before);
                }
            }
        }
        self.undo.clear();
        self.note_stmt(st0, "(live pass)", *rows.as_ref().unwrap_or(&0));
        rows.map(drop)
    }

    /// The live pass of a batch-delta run (see the module docs): walk the
    /// run's firings in entry order; per firing and statement of its trigger,
    /// in statement order, evaluate the statement if the run-linear program
    /// lists it — against the store as the run's earlier firings left it —
    /// and append the rows to the statement's deferred buffer (`base + j`);
    /// then, if the statement's target is one of the relation's live maps,
    /// apply what the firing writes to it (the rows just evaluated, or the
    /// firing's segment of the rows buffered before the pass) at once,
    /// remembering what each key held. The base update follows the same
    /// rule. A statement never reads its own or an earlier statement's target
    /// (dispatch gate 2), so writing statement by statement is still a
    /// pre-event read for the rest of the firing — as it is per event.
    /// Returns the number of rows the pass evaluated.
    fn live_pass(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        rl: &RunLinear,
        run: &RelationDelta,
        base: [usize; 2],
    ) -> Result<u64, RuntimeError> {
        // Per sign: the trigger, its `+=` statements, their kernels and its
        // variables.
        let sides = [disp.insert, disp.delete].map(|tidx| {
            let trigger = tidx.map(|t| &program.triggers[t as usize]);
            (
                tidx,
                trigger.map_or(&[][..], Trigger::increments),
                tidx.map_or(&[][..], |t| self.kernels_for(program, t)),
                trigger.map_or(&[][..], |t| &t.trigger_vars[..]),
            )
        });
        let Engine {
            db,
            eval,
            bd,
            undo,
            changes,
            stats,
            tel,
            ..
        } = self;
        let live_of = |name: &str| rl.live_maps.iter().position(|n| n == name);
        let base_map = live_of(run.relation());
        bd.base_applied = base_map.is_some();
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
            let (tidx, statements, kernels, trigger_vars) = sides[s];
            for _ in 0..entry.firings() {
                for (j, stmt) in statements.iter().enumerate() {
                    let ds = &mut bd.stmts[base[s] + j];
                    let own = if tidx.is_some_and(|t| rl.lists(t as usize, j)) {
                        stats.statements += 1;
                        if let Some(slot) = tel
                            .as_deref_mut()
                            .and_then(|ts| ts.note_live_firing(tidx? as usize, j))
                        {
                            eval.kernel.counter_slot = slot;
                        }
                        let s = StmtRef {
                            trigger_vars,
                            stmt,
                            kernel: flat_get(kernels, j),
                        };
                        // The store moves between firings: every evaluation
                        // is the first against its state.
                        let start = ds.rows.len();
                        eval.rows(&*db, s, &entry.key, true, &mut ds.rows)?;
                        let end = ds.rows.len();
                        if end > start {
                            evaluated += (end - start) as u64;
                            ds.segs.push(Seg {
                                start,
                                end,
                                reps: 1,
                            });
                        }
                        start..end
                    } else {
                        ds.segs[k].start..ds.segs[k].end
                    };
                    if let Some(map) = live_of(&stmt.target) {
                        ds.applied = true;
                        let view = db
                            .view_mut(&stmt.target)
                            .ok_or_else(|| RuntimeError::UnknownView(stmt.target.clone()))?;
                        let mut change = changes.as_mut().map(|c| c.entry(&stmt.target));
                        for (key, mult) in ds.rows[own].iter().filter(|(_, m)| *m != 0.0) {
                            if let Some(c) = change.as_mut() {
                                c.keys.insert(key.clone(), ());
                            }
                            let before = view.add_returning_previous(key.clone(), *mult);
                            undo.push((map as u16, key.clone(), before));
                        }
                    }
                }
                if let (Some(map), Some(view)) = (base_map, db.view_mut(run.relation())) {
                    if let Some(log) = changes.as_mut() {
                        log.record_key(run.relation(), entry.key.clone());
                    }
                    let before = view.add_returning_previous(entry.key.clone(), sign.multiplier());
                    undo.push((map as u16, entry.key.clone(), before));
                }
            }
        }
        Ok(evaluated)
    }

    /// Buffer one incremental statement's rows over all of a run's entries of
    /// one sign without applying them: setup once, then back-to-back
    /// evaluations against the unchanged pre-run store. Any evaluation error
    /// aborts the whole collection (the caller replays entry-major).
    fn collect_statement_over(
        &mut self,
        s: StmtRef<'_>,
        run: &RelationDelta,
        sign: UpdateSign,
        tidx: u16,
        stmt_j: u16,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            eval,
            bd,
            stats,
            ..
        } = self;
        let slot = bd.acquire(tidx, stmt_j);
        // Nothing is written until the apply phase, so probe and scan targets
        // can be resolved once per name for the run.
        let src = CachedSource::new(db);
        let mut first = true;
        for entry in run.entries() {
            if entry.sign() != Some(sign) {
                continue;
            }
            stats.statements += 1;
            let start = slot.rows.len();
            eval.rows(
                &src,
                s,
                &entry.key,
                std::mem::take(&mut first),
                &mut slot.rows,
            )?;
            slot.segs.push(Seg {
                start,
                end: slot.rows.len(),
                reps: entry.firings(),
            });
        }
        Ok(())
    }

    /// The compiled kernels for a trigger, when present, aligned with its
    /// statement list and not overridden by [`Engine::set_force_interpreter`].
    fn kernels_for<'p>(
        &self,
        program: &'p TriggerProgram,
        tidx: u16,
    ) -> &'p [Option<CompiledStmt>] {
        if self.force_interpreter {
            return &[];
        }
        let trigger = &program.triggers[tidx as usize];
        program
            .compiled
            .get(tidx as usize)
            .map(|c| c.stmts.as_slice())
            .filter(|s| s.len() == trigger.statements.len())
            .unwrap_or(&[])
    }

    /// One base-update pass for a whole run: each entry's net multiplicity is
    /// applied in one write (exact — net multiplicities are integers).
    fn apply_base_run(&mut self, run: &RelationDelta) {
        let Engine { db, changes, .. } = self;
        let Some(view) = db.view_mut(run.relation()) else {
            return;
        };
        let mut change = changes.as_mut().map(|c| c.entry(run.relation()));
        let rows = run.entries().iter().map(|e| (&e.key, e.mult));
        view.add_rows(rows, &mut |k| {
            if let Some(c) = change.as_mut() {
                c.keys.insert(k.clone(), ());
            }
        });
    }

    /// Apply one single-tuple base update (the entry-major / no-trigger path).
    fn apply_base_raw(&mut self, relation: &str, key: &Tuple, mult: f64) {
        if let Some(view) = self.db.view_mut(relation) {
            view.add(key.clone(), mult);
            if let Some(log) = self.changes.as_mut() {
                log.record_key(relation, key.clone());
            }
        }
    }

    /// Snapshot a query result as a GMR over its output columns.
    pub fn result(&self, query: &str) -> Result<Gmr, RuntimeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| RuntimeError::UnknownQuery(query.to_string()))?;
        match &qr.access {
            ResultAccess::Map(name) => self
                .db
                .view(name)
                .map(|v| v.to_gmr())
                .ok_or_else(|| RuntimeError::UnknownView(name.clone())),
            ResultAccess::Computed { expr, .. } => {
                eval_with(expr, &self.db, &mut Bindings::new()).map_err(RuntimeError::from)
            }
        }
    }

    /// Direct access to a view's contents (for tests and debugging).
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.db.view(name).map(|v| v.to_gmr())
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
        let mut ex = dbtoaster_compiler::explain(&self.program, self.force_entry_major);
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
                    banded_hits: v.banded_hits.load(Relaxed),
                    banded_bails: v.banded_bails.load(Relaxed),
                    overlay_firings: v.overlay_firings.load(Relaxed),
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
            self.eval.kernel.counter_slot = 0;
            return;
        }
        let map_names: Vec<String> = self.db.names().map(|n| n.to_string()).collect();
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
        self.eval.kernel.ensure_counter_slots(map_names.len());
        for c in &self.eval.kernel.counter_slots {
            let _ = c.take();
        }
        self.eval.kernel.counter_slot = 0;
        let n = map_names.len();
        self.tel = Some(Box::new(TelemetryState {
            tel,
            batch_hist: LocalHistogram::new(),
            stage_hists: [LocalHistogram::new(), LocalHistogram::new()],
            views,
            map_names,
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
    /// (the serving writer, the bench harness) invoke it before reading a
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
            if let Some(c) = self.eval.kernel.counter_slots.get(i) {
                let w = c.take();
                if w.probes
                    | w.scans
                    | w.entries_scanned
                    | w.fused_scans
                    | w.banded_hits
                    | w.banded_bails
                    != 0
                {
                    view.probes.fetch_add(w.probes, Relaxed);
                    view.scans.fetch_add(w.scans, Relaxed);
                    view.entries_scanned.fetch_add(w.entries_scanned, Relaxed);
                    view.fused_scans.fetch_add(w.fused_scans, Relaxed);
                    view.banded_hits.fetch_add(w.banded_hits, Relaxed);
                    view.banded_bails.fetch_add(w.banded_bails, Relaxed);
                }
            }
            let rows = std::mem::take(&mut ts.pending_rows[i]);
            if rows != 0 {
                view.rows_written.fetch_add(rows, Relaxed);
            }
            let live = std::mem::take(&mut ts.pending_live[i]);
            if live != 0 {
                view.overlay_firings.fetch_add(live, Relaxed);
            }
            if let Some(v) = self.db.view(&ts.map_names[i]) {
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

/// The one row applier: write a statement's buffered rows to its target map
/// — a single target resolution, change-log entry and snapshot-cache bump per
/// call, whether the rows are one firing's or a whole run's. A `:=` statement
/// clears its target first. A missing target view (program corruption —
/// compiled programs always declare their targets) applies nothing.
fn apply_statement_rows(
    db: &mut Database,
    changes: &mut Option<ChangeSet>,
    stmt: &Statement,
    segs: &[Seg],
    rows: &[(Tuple, f64)],
) -> Result<(), RuntimeError> {
    let target = db
        .view_mut(&stmt.target)
        .ok_or_else(|| RuntimeError::UnknownView(stmt.target.clone()))?;
    if stmt.op == StmtOp::Replace {
        target.clear();
        if let Some(log) = changes.as_mut() {
            log.record_clear(&stmt.target);
        }
    }
    let mut change = changes.as_mut().map(|c| c.entry(&stmt.target));
    let it = segs.iter().flat_map(|s| {
        let slice = &rows[s.start..s.end];
        (0..s.reps).flat_map(move |_| slice.iter().map(|(k, m)| (k, *m)))
    });
    target.add_rows(Coalesce::new(it), &mut |k| {
        if let Some(c) = change.as_mut() {
            c.keys.insert(k.clone(), ());
        }
    });
    Ok(())
}

/// Resolve each of a statement's key variables to its source — a trigger
/// binding (range restriction, `Ok`) or a result-column position (`Err`) —
/// once per evaluation, outside the row loop.
fn resolve_key_sources(
    stmt: &Statement,
    bindings: &Bindings,
    schema: &dbtoaster_gmr::Schema,
) -> Result<Vec<Result<Value, usize>>, RuntimeError> {
    stmt.key_vars
        .iter()
        .map(|kv| {
            if let Some(v) = bindings.get(kv) {
                Ok(Ok(v.clone()))
            } else if let Some(i) = schema.index_of(kv) {
                Ok(Err(i))
            } else {
                Err(RuntimeError::MissingKeyVariable {
                    statement: stmt.to_string(),
                    variable: kv.clone(),
                })
            }
        })
        .collect()
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
    fn event_arity_mismatch_detected() {
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
        assert!(matches!(err, RuntimeError::EventArityMismatch { .. }));
        // A failed single event is not counted as applied.
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
    fn poison_event_mid_batch_keeps_its_slot_and_the_rest_applies() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[9])), // arity mismatch: its own run
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
        ];
        let batch = DeltaBatch::from_events(&events);
        let report = engine.process_batch(&batch);
        assert_eq!(report.events, 3);
        assert_eq!(report.failed_events, 1);
        assert!(matches!(
            report.first_error,
            Some(RuntimeError::EventArityMismatch { .. })
        ));
        // The good events around the poison one are fully applied.
        assert_eq!(engine.stats().events, 2);
        assert_eq!(engine.result("Q").unwrap().scalar_value(), 1.0);
    }
}
