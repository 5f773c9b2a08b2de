//! The driver: a case at points of the execution lattice, both oracles, the
//! shrinker, the tier-1 slice and its census.
//!
//! [`check`] builds the [`Recompute`] oracle once per case, and the program
//! and a per-event reference engine once per compile mode. At each [`Point`]
//! it feeds the batches to an engine whose live passes are kept or cleared,
//! and asserts:
//!
//! * **values**: every map, stored relation and static table equals the
//!   per-event reference and the recomputed definitions (bit-exact on exact
//!   data, [`FLOAT_EPS`] relative on float data); a held snapshot still holds
//!   what it held; a sharded engine's merged views equal the batched engine's
//!   (on float data a `MapClass::Summed` map may drift, and with the live
//!   passes cleared, which a shard's slice re-derives, any map may); an
//!   engine recovered from a WAL cut equals one fed that prefix bit for bit
//!   and, fed the rest, runs the same `RunRecord`s and ends where the batched
//!   engine ended;
//! * **work**, on exact data: with the live passes kept, the kernels scan no
//!   more entries than the same batches fired firing by firing;
//! * **failures**: none but on a poison case, and there the values checks
//!   hold on every view that reads no relation holding the poison and none
//!   that either side reported a failure on (see `BatchReport::failed_events`).
//!
//! On a failure the case is shrunk — its events (ddmin), then its queries,
//! then the point — and the panic carries a `common::replay(…)` line.

use super::gen::*;
use super::{assert_views, view_names, views_differ, Recompute, Views, FLOAT_EPS};
use dbtoaster::agca::{DeltaBatch, Expr, RelationDelta, UpdateEvent};
use dbtoaster::compiler::{BatchStrategy, Catalog, CompileMode, MapClass, TriggerProgram};
use dbtoaster::durability::WalWriter;
use dbtoaster::durability::{program_fingerprint, recover, write_checkpoint, FsyncPolicy};
use dbtoaster::gmr::{Gmr, Value};
use dbtoaster::runtime::TelemetryConfig;
use dbtoaster::runtime::{BatchReport, Engine, RuntimeError, ShardedEngine, Telemetry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// `program` without live passes or derivation outcomes, as a hand-assembled
/// program is: every relation dispatches entry-major.
pub fn underivable(program: &TriggerProgram) -> TriggerProgram {
    TriggerProgram {
        live_passes: Vec::new(),
        batch_delta_reasons: Vec::new(),
        ..program.clone()
    }
}

/// Static-table rows by table.
pub type Tables = HashMap<String, Vec<Vec<Value>>>;

/// An engine for `program` with `tables` loaded and its static views built.
pub fn engine_with(program: &TriggerProgram, catalog: &Catalog, tables: &Tables) -> Engine {
    let mut engine = Engine::new(program.clone(), catalog);
    for (table, rows) in tables {
        engine.load_table(table, rows.iter().cloned());
    }
    engine.init_static_views().expect("static views");
    engine
}

fn engine(case: &Case, program: &TriggerProgram) -> Engine {
    engine_with(program, &case.catalog, &case.tables)
}

/// `events` one at a time through `program`; every event must apply.
pub fn per_event(program: &TriggerProgram, catalog: &Catalog, events: &[UpdateEvent]) -> Engine {
    let mut engine = Engine::new(program.clone(), catalog);
    let applied = engine.process_all(events);
    applied.unwrap_or_else(|e| panic!("per-event: {e}"));
    engine
}

/// `events` one at a time through `engine`, and the errors they raised.
pub fn failures(engine: &mut Engine, events: &[UpdateEvent]) -> Vec<RuntimeError> {
    let failed = events.iter().filter_map(|e| engine.process(e).err());
    failed.collect()
}

/// Assert two engines over one program hold the same views, bit for bit.
pub fn assert_engines(ctx: &str, want: &Engine, got: &Engine) {
    let (want_view, got_view) = (|n: &str| want.view(n), |n: &str| got.view(n));
    assert_views(ctx, want.program(), &want_view, &got_view, &|_| 0.0);
}

// ------------------------------------------------------------- work oracle

/// What an engine's kernels did, from its telemetry and stats.
#[derive(Debug)]
pub struct Work {
    /// Σ `entries_scanned` over every view.
    pub scanned: u64,
    /// `EngineStats::statements`.
    pub statements: u64,
    /// Σ live-pass firings over every view.
    pub live_firings: u64,
}

/// Attach the telemetry that counts [`Work`], and record runs.
pub fn instrument(engine: &mut Engine) -> Telemetry {
    let tel = Telemetry::with_config(TelemetryConfig::default());
    engine.set_telemetry(tel.clone());
    engine.set_run_recording(true);
    tel
}

pub fn work(engine: &mut Engine, tel: &Telemetry) -> Work {
    engine.flush_telemetry();
    let views = tel.snapshot().views;
    Work {
        scanned: views.iter().map(|v| v.entries_scanned).sum(),
        statements: engine.stats().statements,
        live_firings: views.iter().map(|v| v.live_firings).sum(),
    }
}

/// Every run of a batch that failed nowhere took its relation's static
/// dispatch: nothing re-routes a run but the replay of a failed one.
pub fn assert_dispatched(ctx: &str, program: &TriggerProgram, report: &BatchReport) {
    let dispatch = program.batch_dispatch();
    for run in report.runs.iter().filter(|_| report.failed_events == 0) {
        let d = dispatch.iter().find(|d| d.relation == run.relation);
        let (rel, dispatched) = (&run.relation, d.map(|d| d.strategy));
        assert_eq!(Some(run.strategy), dispatched, "{ctx}: a {rel} run");
    }
}

/// The work `program` does over `events` in batches of `n` (batch 1 is
/// per-event processing), with the static dispatch checked on the way.
pub fn batch_work(prog: &TriggerProgram, cat: &Catalog, events: &[UpdateEvent], n: usize) -> Work {
    let mut engine = Engine::new(prog.clone(), cat);
    let tel = instrument(&mut engine);
    for r in cuts(events, Partition::Fixed(n), false) {
        let report = engine.process_batch(&DeltaBatch::from_events(&events[r]));
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
        assert_dispatched(&format!("batch {n}"), prog, &report);
    }
    work(&mut engine, &tel)
}

// ------------------------------------------------------------- the driver

/// What a point's batched run reported.
pub struct Outcome {
    pub reports: Vec<BatchReport>,
    pub per_event_failures: u64,
    /// The batched maps equal the per-event ones (only a failure may differ).
    pub maps_agree: bool,
    /// The batched engine after its last batch, its telemetry flushed.
    pub engine: Engine,
}

/// A mode's program, its per-event reference and the relations that failed.
type Prepared = (CompileMode, TriggerProgram, Engine, Vec<String>);

fn prepare(case: &Case, mode: CompileMode) -> Prepared {
    let program = case.compile(mode);
    let mut reference = engine(case, &program);
    let failed = case.events.iter().filter(|e| reference.process(e).is_err());
    let failed = failed.map(|e| e.relation.clone()).collect();
    (mode, program, reference, failed)
}

/// `program` restricted to its views that read none of `relations`, by their
/// definitions' atoms (a map without one reads all). A trigger writes only
/// maps whose definitions name its relation, so no other event changes these.
fn reading_none(program: &TriggerProgram, relations: &BTreeSet<String>) -> TriggerProgram {
    let named = |d: &Expr| d.atoms().iter().any(|r| relations.contains(&r.name));
    let reads = |d: &Expr| !relations.is_empty() && (d.is_zero() || named(d));
    let unread = |names: &BTreeSet<String>| names.difference(relations).cloned().collect();
    let maps = program.maps.iter().filter(|m| !reads(&m.definition));
    TriggerProgram {
        maps: maps.cloned().collect(),
        stored_relations: unread(&program.stored_relations),
        static_tables: unread(&program.static_tables),
        ..program.clone()
    }
}

/// Run `case` at each of `points`, in order (consecutive points of one mode
/// share its reference); a failure is shrunk to a `common::replay(…)` line.
pub fn check(case: &Case, points: &[Point]) -> Vec<Outcome> {
    let oracle = Recompute::new(&case.catalog, &case.tables, &case.events);
    let mut prepared: Option<Prepared> = None;
    let mut visit_at = |p: &Point| {
        if prepared.as_ref().is_none_or(|q| q.0 != p.mode) {
            prepared = Some(prepare(case, p.mode));
        }
        visit(case, prepared.as_ref().unwrap(), p, &oracle)
    };
    let outcomes = points.iter().map(|p| {
        let run = panic::catch_unwind(AssertUnwindSafe(|| visit_at(p)));
        run.unwrap_or_else(|e| shrink(case, p, message(e)))
    });
    outcomes.collect()
}

/// Run a shrunk repro: the case restricted to `events` and the point's
/// queries, at `point`.
pub fn replay(case: Case, events: &[usize], point: Point) {
    check(&case.restrict(events, point.queries), &[point]);
}

fn visit(case: &Case, prep: &Prepared, p: &Point, oracle: &Recompute) -> Outcome {
    let ctx = format!("{} at {p}", case.label);
    let (_, compiled, reference, failed_per_event) = prep;
    let per_event_failures = failed_per_event.len() as u64;
    let entry_major = underivable(compiled);
    let program = if p.live { compiled } else { &entry_major };
    let eps = if case.float { FLOAT_EPS } else { 0.0 };
    let cuts = cuts(&case.events, p.partition, case.split_repeated_keys);
    let batch = |r: &Range<usize>| DeltaBatch::from_events(&case.events[r.clone()]);
    let same = |what: &str, want: Views, got: Views, eps: f64| {
        assert_views(&format!("{ctx}: {what}"), program, want, got, &|_| eps);
    };

    let mut batched = engine(case, program);
    let tel = instrument(&mut batched);
    let hold_at = p.snapshot.map(|s| s % (cuts.len() + 1));
    let mut held = None;
    // The WAL cut's checkpoints and stop, and the state there.
    let wal = p.wal.map(|cut| cut.resolve(cuts.len()));
    let initial = (!case.tables.is_empty()).then_some(0);
    let imaged = wal.map(|(stop, c)| [Some(stop), c, initial]);
    let imaged = imaged.unwrap_or_default();
    let mut images = BTreeMap::new();
    let mut reports = Vec::with_capacity(cuts.len());
    for i in 0..=cuts.len() {
        if hold_at == Some(i) {
            held = Some(hold(&batched, program));
        }
        if imaged.contains(&Some(i)) {
            images.insert(i, batched.snapshot().into_iter().collect());
        }
        if let Some(r) = cuts.get(i) {
            reports.push(batched.process_batch(&batch(r)));
            assert_dispatched(&ctx, program, &reports[i]);
        }
    }
    let kept = work(&mut batched, &tel).scanned;
    let view = |n: &str| batched.view(n);

    // Values, and failures: `BatchReport::failed_events` states what holds.
    let failed: u64 = reports.iter().map(|r| r.failed_events).sum();
    let events = case.events.len() as u64;
    assert_eq!(batched.stats().events + failed, events, "{ctx}: events");
    let first = reports.iter().find_map(|r| r.first_error.as_ref());
    let failures = format!("{failed} batched failures, {per_event_failures} per event");
    let failures = format!("{ctx}: {failures}; the first batched: {first:?}");
    let clean = failed + per_event_failures == 0;
    assert!(case.poison || clean, "{failures}");
    // A failure lets the maps differ, but only in the views over a relation
    // that holds the poison, failed per event or was in a batch that failed;
    // and `Recompute` cannot evaluate the poison.
    let string = |v: &Value| matches!(v, Value::Str(_));
    let poisoned = |e: &&UpdateEvent| case.poison && e.tuple.iter().any(string);
    let failing = cuts.iter().zip(&reports).filter(|b| b.1.failed_events > 0);
    let failing = failing.flat_map(|(r, _)| &case.events[r.clone()]);
    let tainted = case.events.iter().filter(poisoned).chain(failing);
    let tainted = tainted.map(|e| &e.relation).chain(failed_per_event);
    let checked = reading_none(program, &tainted.cloned().collect());
    let by_event = |n: &str| reference.view(n);
    if let Some(diff) = views_differ(&checked, &by_event, &view, &|_| eps) {
        panic!("{failures}; batched vs per event: {diff}");
    }
    oracle.check(&ctx, &checked, &view, eps);
    let maps_agree = !case.poison || views_differ(program, &by_event, &view, &|_| eps).is_none();
    if let Some([snapshot, then]) = held {
        same("held snapshot", &reader(&then), &reader(&snapshot), 0.0);
    }
    same("last snapshot", &view, &reader(&batched.snapshot()), 0.0);

    // Work, on exact data only: a float sum that a delete cancels leaves a
    // ±ulp residue or not depending on the summation order, and a residue
    // is an entry that later scans count. A failed run is collected, then
    // replayed, so poison cases do the work twice. And a run whose entries
    // all cancel still fires its `:=` tail (`a_cancelled_run_fires_no_tail`).
    let cancelled = |run: &RelationDelta| {
        has_tail(program, run.relation()) && run.entries().iter().all(|e| e.mult == 0.0)
    };
    let cancels = cuts.iter().any(|r| batch(r).runs().iter().any(cancelled));
    if p.live && !case.float && !case.poison && !cancels {
        let mut cleared = engine(case, &entry_major);
        let cleared_tel = instrument(&mut cleared);
        for r in &cuts {
            cleared.process_batch(&batch(r));
        }
        let firing = work(&mut cleared, &cleared_tel).scanned;
        let scans = format!("live passes scanned {kept} entries, firing by firing {firing}");
        assert!(kept <= firing, "{ctx}: {scans}");
    }

    let shardable = p.shards.is_empty() || case.shardable();
    assert!(shardable, "{ctx}: no shard axis");
    // Each shard count runs on a thread of its own.
    let runs = thread::scope(|s| {
        let cuts = &cuts;
        let run = |&n: &usize| s.spawn(move || sharded(case, program, cuts, n));
        let runs: Vec<_> = p.shards.iter().map(run).collect();
        runs.into_iter().map(joined).collect::<Vec<_>>()
    });
    for (n, sharded) in p.shards.iter().zip(runs) {
        assert_eq!(sharded.events(), events, "{ctx}: {n} shards");
        // A slice re-derives its live passes: with them cleared here, the
        // shards run batch-delta where `batched` fired firing by firing.
        let summed = |m: &str| sharded.plan().class(m) == MapClass::Summed;
        let drift = |m: &str| if !p.live || summed(m) { eps } else { 0.0 };
        let label = format!("{ctx}: {n} shards");
        let merged = |m: &str| sharded.merged_view(m);
        assert_views(&label, program, &view, &merged, &drift);
    }

    if let Some((stop, checkpoint)) = wal {
        let mut resumed = recovered(case, program, &cuts[..stop], checkpoint, &images, &ctx);
        resumed.set_run_recording(true);
        for (i, r) in cuts.iter().enumerate().skip(stop) {
            let runs = resumed.process_batch(&batch(r)).runs;
            assert_eq!(runs, reports[i].runs, "{ctx}: batch {i} after recovery");
        }
        let resumed = resumed.snapshot();
        same("recovered and resumed", &view, &reader(&resumed), eps);
    }
    Outcome {
        reports,
        per_event_failures,
        maps_agree,
        engine: batched,
    }
}

/// `case`'s batches `cuts` through `prog` on `n` shards, with its tables
/// loaded; every batch must apply.
fn sharded(case: &Case, prog: &TriggerProgram, cuts: &[Range<usize>], n: usize) -> ShardedEngine {
    let mut sharded = ShardedEngine::new(prog.clone(), &case.catalog, n);
    for (table, rows) in &case.tables {
        sharded.load_table(table, rows);
    }
    sharded.init_static_views().expect("static views");
    for r in cuts {
        let error = sharded.process_events(&case.events[r.clone()]).first_error;
        assert!(error.is_none(), "{}: {n} shards: {error:?}", case.label);
    }
    sharded
}

/// What a scoped thread returned, or its panic, resumed here.
pub fn joined<T>(handle: thread::ScopedJoinHandle<T>) -> T {
    handle.join().unwrap_or_else(|e| panic::resume_unwind(e))
}

/// Whether `program`'s triggers on `relation` end in a `:=` tail.
pub fn has_tail(program: &TriggerProgram, relation: &str) -> bool {
    let mut triggers = program.triggers.iter().filter(|t| t.relation == relation);
    triggers.any(|t| t.increments().len() < t.statements.len())
}

/// A reader of the views in `map`.
pub fn reader<S: BuildHasher>(map: &HashMap<String, Gmr, S>) -> impl Fn(&str) -> Option<Gmr> + '_ {
    |n| map.get(n).cloned()
}

/// A snapshot to hold, and the views it should keep holding.
fn hold(engine: &Engine, program: &TriggerProgram) -> [HashMap<String, Gmr>; 2] {
    let views = view_names(program).into_iter();
    let views = views.filter_map(|n| Some((n.clone(), engine.view(&n)?)));
    [engine.snapshot().into_iter().collect(), views.collect()]
}

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// Write `batches` to a WAL, with a checkpoint at boundary `checkpoint` and
/// before the first batch when there are tables (which travel only in
/// checkpoints); recover, and assert the recovered engine equals the one fed
/// those batches: its `images` by boundary hold the checkpoints and the end.
fn recovered(
    case: &Case,
    program: &TriggerProgram,
    batches: &[Range<usize>],
    checkpoint: Option<usize>,
    images: &BTreeMap<usize, HashMap<String, Gmr>>,
    ctx: &str,
) -> Engine {
    let ctx = format!("{ctx}: recovered after {} records", batches.len());
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dbtoaster-lattice-{}-{n}", std::process::id()));
    let (dir, fp) = (dir.as_path(), program_fingerprint(program));
    let _ = std::fs::remove_dir_all(dir);
    let initial = (!case.tables.is_empty()).then_some(0);
    let mut wal = WalWriter::open(dir, fp, 1, FsyncPolicy::Never, 512).expect("wal");
    let (mut written, mut watermark) = (0u64, 0u64);
    for i in 0..=batches.len() {
        if checkpoint == Some(i) || initial == Some(i) {
            let maps = images[&i].iter().map(|(n, g)| (n.as_str(), g));
            write_checkpoint(dir, fp, written, maps).expect("checkpoint");
            watermark = written;
        }
        let Some(r) = batches.get(i) else { break };
        wal.append(&case.events[r.clone()]).expect("append");
        written += r.len() as u64;
    }
    drop(wal);
    let rec = recover(dir, program.clone(), &case.catalog);
    let rec = rec.expect("recover").expect("durable state");
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(rec.checkpoint_watermark, watermark, "{ctx}: checkpoint");
    assert_eq!(rec.replayed_events, written - watermark, "{ctx}: replayed");
    let want = reader(&images[&batches.len()]);
    assert_views(&ctx, program, &want, &|n| rec.engine.view(n), &|_| 0.0);
    rec.engine
}

// ------------------------------------------------------------- shrinking

fn message(e: Box<dyn std::any::Any + Send>) -> String {
    let text = e.downcast_ref::<&str>().map(|s| s.to_string());
    let string = e.downcast_ref::<String>().cloned();
    string.or(text).unwrap_or_default()
}

/// Shrink a failing point of `case`: its events by ddmin, then its queries,
/// then the point itself; then fail with the repro.
fn shrink(case: &Case, point: &Point, msg: String) -> ! {
    let loud = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let fails = |keep: &[usize], p: &Point| {
        let c = case.restrict(keep, p.queries);
        let oracle = Recompute::new(&c.catalog, &c.tables, &c.events);
        let visited = || visit(&c, &prepare(&c, p.mode), p, &oracle);
        panic::catch_unwind(AssertUnwindSafe(visited)).is_err()
    };
    let mut p = *point;
    let mut keep: Vec<usize> = (0..case.events.len()).collect();
    let mut n = 2;
    while keep.len() >= 2 {
        let chunk = keep.len().div_ceil(n);
        let without = |i: usize| -> Vec<usize> {
            let gone = i * chunk..(i + 1) * chunk;
            let kept = keep.iter().enumerate().filter(|(j, _)| !gone.contains(j));
            kept.map(|(_, &e)| e).collect()
        };
        match (0..n).map(without).find(|k| fails(k, &p)) {
            Some(k) => (keep, n) = (k, (n - 1).max(2)),
            None if n >= keep.len() => break,
            None => n = (2 * n).min(keep.len()),
        }
    }
    let all = (1 << case.query_count()) - 1;
    for q in 0..case.query_count() {
        let queries = p.queries & !(1 << q);
        if queries & all != 0 && fails(&keep, &Point { queries, ..p }) {
            p.queries = queries;
        }
    }
    let simpler: [fn(&mut Point); 5] = [
        |p| p.wal = None,
        |p| p.shards = &[],
        |p| p.snapshot = None,
        |p| p.live = true,
        |p| p.partition = Partition::PerEvent,
    ];
    for f in simpler {
        let mut q = p;
        f(&mut q);
        if q != p && fails(&keep, &q) {
            p = q;
        }
    }
    panic::set_hook(loud);
    let small = case.restrict(&keep, p.queries);
    let event = |e: &UpdateEvent| format!("    {:?} {}{:?}\n", e.sign, e.relation, e.tuple);
    let (text, events) = (small.text(), small.events.iter().map(event));
    let events: String = events.collect();
    let (n, of, label) = (keep.len(), case.events.len(), &case.label);
    let repro = format!("common::replay({label}, &{keep:?}, {p});");
    panic!("{msg}\n\nshrunk to {n} of {of} events; reproduce with\n    {repro}\n{text}{events}")
}

// ------------------------------------------------------------- sweeps

/// Which way a sweep leans: the axis its file is about.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Lean {
    /// Every axis at random.
    Any,
    /// Batches of one: the compile modes against each other and the oracle.
    PerEvent,
    /// Real batches, live passes kept.
    Batches,
    /// Real batches over the cases with a `:=` tail or a star or cubic join.
    Tails,
    /// Live passes cleared: every run fires firing by firing.
    EntryMajor,
    /// Shards over the cases whose shard plan is executor-free.
    Local,
    /// Shards over the cases that need the exchange executor.
    Exchange,
    /// Shards over multi-query cases that need the exchange executor.
    Mixed,
}

fn has_executor(case: &Case) -> bool {
    let program = case.compile(CompileMode::HigherOrder);
    ShardedEngine::new(program, &case.catalog, 2).has_executor()
}

impl Lean {
    pub fn accepts(self, case: &Case) -> bool {
        use Shape::{CorrelatedNested, CubicChain, Nested, Star};
        let tails = [Nested, CorrelatedNested, Star, CubicChain];
        match self {
            Lean::Tails => tails.iter().any(|s| case.shapes.contains(s)),
            Lean::Local => case.shardable() && !has_executor(case),
            Lean::Exchange => case.shardable() && has_executor(case),
            Lean::Mixed => case.shardable() && case.query_count() > 1 && has_executor(case),
            _ => true,
        }
    }
}

/// The seeded lattice points of a case: one per compile mode.
pub fn points(seed: u64, case: &Case, lean: Lean) -> Vec<Point> {
    let mut rng = Rng::new(seed, 3);
    let mut point = |mode| {
        let partition = match (lean, rng.below(100)) {
            (Lean::PerEvent, _) => Partition::PerEvent,
            (Lean::Batches | Lean::Tails, 0..=34) | (_, 10..=34) => Partition::Fixed(64),
            (_, 0..=9) => Partition::PerEvent,
            (_, 35..=69) => Partition::Geometric(rng.next()),
            _ => Partition::Huge(rng.next()),
        };
        let live = match lean {
            Lean::EntryMajor => false,
            Lean::Batches | Lean::Tails => true,
            _ => rng.percent(65),
        };
        let shards = match lean {
            _ if !case.shardable() => &[][..],
            Lean::Local | Lean::Exchange | Lean::Mixed => rng.pick(&[&[2][..], &[4]]),
            _ => rng.pick(&[&[][..], &[], &[], &[1], &[2], &[4]]),
        };
        let snapshot = rng.percent(30).then(|| rng.below(64));
        let (checkpoint, stop) = (rng.percent(60).then(|| rng.below(64)), rng.below(64));
        let mut point = Point::plain(mode, partition);
        (point.live, point.shards, point.snapshot) = (live, shards, snapshot);
        point.wal = rng.percent(30).then_some(WalCut { checkpoint, stop });
        point
    };
    MODES.map(&mut point).to_vec()
}

/// Workload queries `names` over `events` events of their dataset at
/// `seed`, in `modes`, at points drawn from the seed and the names.
pub fn check_workload(names: &[&'static str], events: usize, seed: u64, modes: &[CompileMode]) {
    let case = workload_case(names, events, seed);
    let bytes = names.iter().flat_map(|n| n.bytes());
    let salted = bytes.fold(seed, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    let mut points = points(salted, &case, Lean::Any);
    points.retain(|p| modes.contains(&p.mode));
    check(&case, &points);
}

/// Check every accepted case of `seeds`; returns how many ran.
pub fn sweep(seeds: Range<u64>, lean: Lean) -> usize {
    let mut ran = 0;
    for (seed, c) in seeds.map(|seed| (seed, case(seed))) {
        if lean.accepts(&c) {
            check(&c, &points(seed, &c, lean));
            ran += 1;
        }
    }
    ran
}

/// The fixed-seed slice tier-1 runs: each sweep test's lean and seeds,
/// disjoint from every other's.
pub const SLICE: [(Lean, Range<u64>); 8] = [
    (Lean::PerEvent, 0..16),
    (Lean::Any, 100..148),
    (Lean::Batches, 200..224),
    (Lean::Tails, 300..348),
    (Lean::EntryMajor, 400..424),
    (Lean::Local, 500..524),
    (Lean::Exchange, 600..648),
    (Lean::Mixed, 700..748),
];

/// Run the slice that leans on `lean`; at least four cases must run.
pub fn run_slice(lean: Lean) {
    let (_, seeds) = SLICE.iter().find(|s| s.0 == lean).expect("a slice");
    let ran = sweep(seeds.clone(), lean);
    assert!(ran >= 4, "{lean:?}: only {ran} cases in {seeds:?}");
}

/// Twenty times the slice's seeds, past all of them, every axis at random.
pub fn soak() {
    let seeds: u64 = SLICE.iter().map(|s| s.1.end - s.1.start).sum();
    let ran = sweep(1_000_000..1_000_000 + 20 * seeds, Lean::Any);
    eprintln!("soak: {ran} cases");
}

// ------------------------------------------------------------- census

/// What the tier-1 slice covers: a count per fact, over its cases and points.
pub fn census() -> BTreeMap<String, usize> {
    let mut seen = BTreeMap::new();
    for (lean, seeds) in &SLICE {
        for (seed, case) in seeds.clone().map(|seed| (seed, case(seed))) {
            if !lean.accepts(&case) {
                continue;
            }
            let facts = case.class().map(|c| format!("class {c:?}")).into_iter();
            let facts = facts.chain(case.shapes.iter().map(|s| format!("shape {s:?}")));
            let facts = facts.chain(case.hand.map(|h| format!("hand {h:?}")));
            let flags = case.hostile.then_some("hostile stream").into_iter();
            let flags = flags
                .chain(case.poison.then_some("poison event"))
                .map(String::from);
            for fact in facts.chain(flags).chain(["cases".to_string()]) {
                *seen.entry(fact).or_insert(0) += 1;
            }
            let points = points(seed, &case, *lean);
            points.iter().for_each(|p| tally(&mut seen, &case, p));
        }
    }
    seen
}

fn tally(seen: &mut BTreeMap<String, usize>, case: &Case, p: &Point) {
    let (mut facts, compiled) = (vec!["points"], case.compile(p.mode));
    let entry_major = underivable(&compiled);
    let program = if p.live { &compiled } else { &entry_major };
    for d in program.batch_dispatch() {
        let pass = program.live_pass_for(&d.relation);
        let pass = pass.filter(|lp| !lp.statements.is_empty());
        facts.push(match (d.strategy, pass) {
            (BatchStrategy::EntryMajor, _) => "entry-major relation",
            (_, Some(_)) => "non-empty live pass",
            (_, None) => "empty live pass",
        });
        if d.strategy == BatchStrategy::BatchDelta && has_tail(program, &d.relation) {
            facts.push("`:=` tail");
        }
    }
    let cuts = cuts(&case.events, p.partition, case.split_repeated_keys);
    if let Some(&n) = p.shards.iter().find(|&&n| n >= 2) {
        let exchanges = ShardedEngine::new(program.clone(), &case.catalog, n).has_executor();
        let plan = ["local plan", "exchange plan"][exchanges as usize];
        // Run the first plan of each kind, to see what it ships.
        if !seen.contains_key(plan) {
            let run = sharded(case, program, &cuts, n);
            let ships = run.exchange_stats().bytes > 0;
            seen.insert(format!("{plan} shipping bytes: {ships}"), 1);
        }
        facts.push(plan);
    }
    if let Some(cut) = p.wal {
        let (stop, checkpoint) = cut.resolve(cuts.len());
        let initial = (!case.tables.is_empty()).then_some(0);
        if checkpoint.or(initial).is_some_and(|at| at < stop) {
            facts.push("WAL cut after a checkpoint");
        }
    }
    let batches = cuts.len();
    if p.snapshot.is_some_and(|s| s % (batches + 1) < batches) {
        facts.push("snapshot held across batches");
    }
    for fact in facts {
        *seen.entry(fact.to_string()).or_insert(0) += 1;
    }
}

/// The coverage guard: the slice hits all three classes, every shape and
/// hand-assembled program, a non-empty and an empty live pass, a `:=` tail,
/// entry-major runs, an exchange plan that ships and a local one that does
/// not, a WAL cut after a checkpoint, a held snapshot, a hostile stream and
/// a poison case.
pub fn assert_census() {
    let seen = census();
    eprintln!("{seen:#?}");
    use Class::{Hierarchical, NonHierarchical, QHierarchical};
    let classes = [QHierarchical, Hierarchical, NonHierarchical].map(|c| format!("class {c:?}"));
    let shapes = SHAPES.iter().map(|s| format!("shape {s:?}"));
    let hands = HANDS.iter().map(|h| format!("hand {h:?}"));
    let rest = "non-empty live pass, empty live pass, `:=` tail, entry-major relation, \
        exchange plan shipping bytes: true, local plan shipping bytes: false, \
        WAL cut after a checkpoint, snapshot held across batches, hostile stream, poison event";
    let facts = classes.into_iter().chain(shapes).chain(hands);
    let facts = facts.chain(rest.split(", ").map(String::from));
    let missing: Vec<String> = facts.filter(|f| !seen.contains_key(f)).collect();
    assert!(missing.is_empty(), "not in the tier-1 slice: {missing:?}");
}
