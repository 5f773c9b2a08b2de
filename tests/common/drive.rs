//! The driver: a case at points of the execution lattice, both oracles, the
//! shrinker, the tier-1 slice and its census.
//!
//! [`check`] builds the [`Recompute`] oracle once per case, and the program
//! and a per-event reference engine once per compile mode. At each [`Point`]
//! it feeds the batches to an engine, and asserts:
//!
//! * **values**: every map, stored relation and static table equals the
//!   per-event reference and the recomputed definitions (bit-exact on exact
//!   data, [`FLOAT_EPS`] relative on float data); a held snapshot still holds
//!   what it held; an engine recovered from a WAL cut equals one fed that
//!   prefix bit for bit and, fed the rest, runs as many runs and statements
//!   per batch and ends where the batched engine ended;
//! * **work**: every batch runs exactly the statements its runs prescribe
//!   ([`statements`]) — each `:=` tail once per run that changed anything —
//!   and, on exact data, the kernels scan no more entries than each batch's
//!   net stream ([`net_stream`]) processed event by event;
//! * **refusals**: the ingest gate refuses exactly the case's ill-typed
//!   event, if it has one — per event and batched, one failed event — and
//!   never logs it, while every view equals the stream without it (see
//!   `BatchReport::failed_events`).
//!
//! On a failure the case is shrunk — its events (ddmin), then its queries,
//! then the point — and the panic carries a `common::replay(…)` line.

use super::gen::*;
use super::{assert_views, view_names, views_differ, Recompute, Views, FLOAT_EPS};
use dbtoaster::agca::plan::Straight;
use dbtoaster::agca::{DeltaBatch, RelationDelta, UpdateEvent, UpdateSign};
use dbtoaster::compiler::{Catalog, CompileMode, RelationPlan, StmtOp, TriggerProgram};
use dbtoaster::durability::WalWriter;
use dbtoaster::durability::{program_fingerprint, recover, write_checkpoint, FsyncPolicy};
use dbtoaster::gmr::{Gmr, Value};
use dbtoaster::runtime::TelemetryConfig;
use dbtoaster::runtime::{BatchReport, Engine, RuntimeError, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

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
    /// Σ range sums answered, and walked instead, over every view.
    pub range_sums: (u64, u64),
}

/// Attach the telemetry that counts [`Work`].
pub fn instrument(engine: &mut Engine) -> Telemetry {
    let tel = Telemetry::with_config(TelemetryConfig::default());
    engine.set_telemetry(tel.clone());
    tel
}

/// Process `batch`: its report, and the batch-delta runs and statements it
/// ran.
fn process(engine: &mut Engine, batch: &DeltaBatch) -> (BatchReport, (u64, u64)) {
    let steps = |e: &Engine| (e.stats().batch_delta_runs, e.stats().statements);
    let before = steps(engine);
    let report = engine.process_batch(batch);
    let after = steps(engine);
    (report, (after.0 - before.0, after.1 - before.1))
}

pub fn work(engine: &mut Engine, tel: &Telemetry) -> Work {
    engine.flush_telemetry();
    let views = tel.snapshot().views;
    Work {
        scanned: views.iter().map(|v| v.get("entries_scanned")).sum(),
        statements: engine.stats().statements,
        live_firings: views.iter().map(|v| v.get("live_firings")).sum(),
        range_sums: (
            views.iter().map(|v| v.get("range_sum_hits")).sum(),
            views.iter().map(|v| v.get("range_sum_bails")).sum(),
        ),
    }
}

/// A batch's net stream: each surviving entry `|mult|` times, run by run in
/// entry order — the single-tuple firings the batch stands for, which
/// `Engine::process` runs one at a time.
pub fn net_stream(batch: &DeltaBatch) -> Vec<UpdateEvent> {
    let mut out = Vec::new();
    for run in batch.runs() {
        for e in run.entries() {
            let Some(sign) = e.sign() else { continue };
            let event = UpdateEvent {
                relation: run.relation().to_string(),
                sign,
                tuple: e.key.to_vec(),
            };
            out.extend(std::iter::repeat_n(event, e.firings() as usize));
        }
    }
    out
}

/// The kernels `program` executes for `batch`, less the entry of the
/// `refused` event. A run executes each kernel unit of an entry's sign
/// (`RelationPlan::kernels`: a `+=` statement alone, or a sibling group)
/// once per entry — once per firing where it fires live in a multi-firing
/// run — and the `:=` statements of its last event's trigger once, unless
/// every entry cancelled.
pub fn statements(
    program: &TriggerProgram,
    batch: &DeltaBatch,
    refused: Option<&UpdateEvent>,
) -> u64 {
    let plans = plans(program);
    let mut admitted = RelationDelta::default();
    let mut n = 0;
    for run in batch.runs() {
        run.retain_into(&mut admitted, |e| {
            refused.is_none_or(|r| r.relation != run.relation() || r.tuple[..] != e.key[..])
        });
        let run = &admitted;
        let Some(plan) = plans.iter().find(|p| p.relation == run.relation()) else {
            continue;
        };
        let trigger = |sign| match sign {
            UpdateSign::Insert => plan.insert,
            UpdateSign::Delete => plan.delete,
        };
        let firings: u64 = run.entries().iter().map(|e| u64::from(e.firings())).sum();
        for e in run.entries() {
            let Some(t) = e.sign().and_then(trigger) else {
                continue;
            };
            let units = plan.kernels.iter().filter(|u| u.trigger == t);
            n += units
                .map(
                    |u| match firings > 1 && plan.live.contains(&(t, u.members[0])) {
                        true => u64::from(e.firings()),
                        false => 1,
                    },
                )
                .sum::<u64>();
        }
        let tail = run.last_event().and_then(|(sign, _)| trigger(sign));
        if let Some(t) = tail.filter(|_| firings > 0) {
            let statements = program.triggers[t].statements.iter();
            n += statements.filter(|s| s.op == StmtOp::Replace).count() as u64;
        }
    }
    n
}

/// The work `program` does over `events` in batches of `n` (batch 1 is
/// per-event processing).
pub fn batch_work(prog: &TriggerProgram, cat: &Catalog, events: &[UpdateEvent], n: usize) -> Work {
    let mut engine = Engine::new(prog.clone(), cat);
    let tel = instrument(&mut engine);
    for r in cuts(events, Partition::Fixed(n), false) {
        let report = engine.process_batch(&DeltaBatch::from_events(&events[r]));
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
    }
    work(&mut engine, &tel)
}

/// The work `program` does over the net streams of `events` in batches of
/// `n`, event by event: every batch's firings, each its own single-tuple
/// step.
pub fn net_work(prog: &TriggerProgram, cat: &Catalog, events: &[UpdateEvent], n: usize) -> Work {
    let mut engine = Engine::new(prog.clone(), cat);
    let tel = instrument(&mut engine);
    for r in cuts(events, Partition::Fixed(n), false) {
        let applied = engine.process_all(&net_stream(&DeltaBatch::from_events(&events[r])));
        applied.unwrap_or_else(|e| panic!("net stream: {e}"));
    }
    work(&mut engine, &tel)
}

// ------------------------------------------------------------- the driver

/// What a point's batched run reported.
pub struct Outcome {
    pub reports: Vec<BatchReport>,
    /// The batched engine after its last batch, its telemetry flushed.
    pub engine: Engine,
}

/// A mode's program, and its per-event reference with the positions of the
/// events it refused.
type Prepared = (CompileMode, TriggerProgram, Engine, Vec<usize>);

fn prepare(case: &Case, mode: CompileMode) -> Prepared {
    let program = case.compile(mode);
    let mut reference = engine(case, &program);
    let events = case.events.iter().enumerate();
    let refused = events.filter(|(_, e)| reference.process(e).is_err());
    let refused = refused.map(|(i, _)| i).collect();
    (mode, program, reference, refused)
}

/// Run `case` at each of `points`, in order (consecutive points of one mode
/// share its reference); a failure is shrunk to a `common::replay(…)` line.
pub fn check(case: &Case, points: &[Point]) -> Vec<Outcome> {
    let oracle = Recompute::new(&case.catalog, &case.tables, &case.admitted());
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
    let (_, program, reference, refused_per_event) = prep;
    let eps = if case.float { FLOAT_EPS } else { 0.0 };
    let cuts = cuts(&case.events, p.partition, case.split_repeated_keys);
    let same = |what: &str, want: Views, got: Views, eps: f64| {
        assert_views(&format!("{ctx}: {what}"), program, want, got, &|_| eps);
    };

    let mut batched = engine(case, program);
    let batch = |r: &Range<usize>| DeltaBatch::from_events(&case.events[r.clone()]);
    let tel = instrument(&mut batched);
    let initial_statements = batched.stats().statements;
    let mut prescribed = 0;
    let hold_at = p.snapshot.map(|s| s % (cuts.len() + 1));
    let mut held = None;
    // The WAL cut's checkpoints and stop, and the state there.
    let wal = p.wal.map(|cut| cut.resolve(cuts.len()));
    let initial = (!case.tables.is_empty()).then_some(0);
    let imaged = wal.map(|(stop, c)| [Some(stop), c, initial]);
    let imaged = imaged.unwrap_or_default();
    let mut images = BTreeMap::new();
    let mut reports = Vec::with_capacity(cuts.len());
    let mut ran_per_batch = Vec::with_capacity(cuts.len());
    for i in 0..=cuts.len() {
        if hold_at == Some(i) {
            held = Some(hold(&batched, program));
        }
        if imaged.contains(&Some(i)) {
            images.insert(i, batched.snapshot().into_iter().collect());
        }
        if let Some(r) = cuts.get(i) {
            let refused = case.ill_typed.filter(|at| r.contains(at));
            let b = batch(r);
            prescribed += statements(program, &b, refused.map(|at| &case.events[at]));
            let (report, ran) = process(&mut batched, &b);
            reports.push(report);
            ran_per_batch.push(ran);
        }
    }
    let done = work(&mut batched, &tel);
    let ran = done.statements - initial_statements;
    assert_eq!(ran, prescribed, "{ctx}: statements run, and prescribed");
    let kept = done.scanned;
    let view = |n: &str| batched.view(n);

    // Values, and refusals: the gate refuses the ill-typed event and only
    // it, per event and batched, and every view is the stream without it.
    let ill_typed: Vec<usize> = case.ill_typed.into_iter().collect();
    assert_eq!(refused_per_event, &ill_typed, "{ctx}: refused per event");
    let refused = ill_typed.len() as u64;
    let failed: u64 = reports.iter().map(|r| r.failed_events).sum();
    let first = reports.iter().find_map(|r| r.first_error.as_ref());
    assert_eq!(
        failed, refused,
        "{ctx}: refused batched, the first: {first:?}"
    );
    let events = case.events.len() as u64;
    assert_eq!(batched.stats().events + failed, events, "{ctx}: events");
    let by_event = |n: &str| reference.view(n);
    if let Some(diff) = views_differ(program, &by_event, &view, &|_| eps) {
        panic!("{ctx}: batched vs per event: {diff}");
    }
    oracle.check(&ctx, program, &view, eps);
    if let Some([snapshot, then]) = held {
        same("held snapshot", &reader(&then), &reader(&snapshot), 0.0);
    }
    same("last snapshot", &view, &reader(&batched.snapshot()), 0.0);

    // Work, on exact data only: a float sum that a delete cancels leaves a
    // ±ulp residue or not depending on the summation order, and a residue
    // is an entry that later scans count. The reference fires each batch's
    // net stream event by event (the gate refuses the ill-typed event).
    if !case.float {
        let mut firing = engine(case, program);
        let firing_tel = instrument(&mut firing);
        for r in &cuts {
            failures(&mut firing, &net_stream(&batch(r)));
        }
        let firing = work(&mut firing, &firing_tel).scanned;
        let scans = format!("batches scanned {kept} entries, event by event {firing}");
        assert!(kept <= firing, "{ctx}: {scans}");
    }

    if let Some((stop, checkpoint)) = wal {
        let mut resumed = recovered(case, program, &cuts[..stop], checkpoint, &images, &ctx);
        for (i, r) in cuts.iter().enumerate().skip(stop) {
            let (report, ran) = process(&mut resumed, &batch(r));
            assert_eq!(
                (ran, report.failed_events),
                (ran_per_batch[i], reports[i].failed_events),
                "{ctx}: batch {i} after recovery: (runs, statements) and refusals"
            );
        }
        let resumed = resumed.snapshot();
        same("recovered and resumed", &view, &reader(&resumed), eps);
    }
    Outcome {
        reports,
        engine: batched,
    }
}

/// What a scoped thread returned, or its panic, resumed here.
pub fn joined<T>(handle: thread::ScopedJoinHandle<T>) -> T {
    handle.join().unwrap_or_else(|e| panic::resume_unwind(e))
}

/// `program`'s relation plans (every program a case runs derives them).
pub fn plans(program: &TriggerProgram) -> Vec<RelationPlan> {
    program.relation_plans().expect("the program derives")
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
/// As a serving writer does, append only the events the gate admits: the
/// log holds the admitted events and nothing else (recovery fails on any
/// event the gate refuses).
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
    let gate = Engine::new(program.clone(), &case.catalog);
    let (mut written, mut watermark) = (0u64, 0u64);
    for i in 0..=batches.len() {
        if checkpoint == Some(i) || initial == Some(i) {
            let maps = images[&i].iter().map(|(n, g)| (n.as_str(), g));
            write_checkpoint(dir, fp, written, maps).expect("checkpoint");
            watermark = written;
        }
        let Some(r) = batches.get(i) else { break };
        let batch = case.events[r.clone()].iter();
        let admitted: Vec<UpdateEvent> =
            batch.filter(|e| gate.admits(e).is_ok()).cloned().collect();
        wal.append(&admitted).expect("append");
        written += admitted.len() as u64;
    }
    drop(wal);
    let mut engine = Engine::new(program.clone(), &case.catalog);
    let rec = recover(dir, &mut engine);
    let rec = rec.expect("recover").expect("durable state");
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(rec.checkpoint_watermark, watermark, "{ctx}: checkpoint");
    assert_eq!(rec.replayed_events, written - watermark, "{ctx}: replayed");
    assert_eq!(engine.stats().events, written, "{ctx}: the log's events");
    let want = reader(&images[&batches.len()]);
    assert_views(&ctx, program, &want, &|n| engine.view(n), &|_| 0.0);
    engine
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
    let simpler: [fn(&mut Point); 3] = [
        |p| p.wal = None,
        |p| p.snapshot = None,
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
    /// Real batches.
    Batches,
    /// Real batches over the cases with a `:=` tail or a star or cubic join.
    Tails,
}

impl Lean {
    pub fn accepts(self, case: &Case) -> bool {
        use Shape::{CorrelatedNested, CubicChain, Nested, Quantile, Star};
        let tails = [Nested, CorrelatedNested, Quantile, Star, CubicChain];
        match self {
            Lean::Tails => tails.iter().any(|s| case.shapes.contains(s)),
            _ => true,
        }
    }
}

/// The lattice points a seed draws: one per compile mode.
pub fn points(seed: u64, lean: Lean) -> Vec<Point> {
    let mut rng = Rng::new(seed, 3);
    let mut point = |mode| {
        let partition = match (lean, rng.below(100)) {
            (Lean::PerEvent, _) => Partition::PerEvent,
            (Lean::Batches | Lean::Tails, 0..=34) | (_, 10..=34) => Partition::Fixed(64),
            (_, 0..=9) => Partition::PerEvent,
            (_, 35..=69) => Partition::Geometric(rng.next()),
            _ => Partition::Huge(rng.next()),
        };
        // The draw that once chose whether a point kept its live passes,
        // still taken so every other coordinate stays where it was.
        if matches!(lean, Lean::Any | Lean::PerEvent) {
            rng.percent(65);
        }
        let snapshot = rng.percent(30).then(|| rng.below(64));
        let (checkpoint, stop) = (rng.percent(60).then(|| rng.below(64)), rng.below(64));
        let mut point = Point::plain(mode, partition);
        point.snapshot = snapshot;
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
    let mut points = points(salted, Lean::Any);
    points.retain(|p| modes.contains(&p.mode));
    check(&case, &points);
}

/// Check every accepted case of `seeds`; returns how many ran.
pub fn sweep(seeds: Range<u64>, lean: Lean) -> usize {
    let mut ran = 0;
    for (seed, c) in seeds.map(|seed| (seed, case(seed))) {
        if lean.accepts(&c) {
            check(&c, &points(seed, lean));
            ran += 1;
        }
    }
    ran
}

/// The fixed-seed slice tier-1 runs: each sweep test's lean and seeds,
/// disjoint from every other's.
pub const SLICE: [(Lean, Range<u64>); 4] = [
    (Lean::PerEvent, 0..16),
    (Lean::Any, 100..148),
    (Lean::Batches, 200..224),
    (Lean::Tails, 300..348),
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
            let quantile = case.hostile && case.shapes.contains(&Shape::Quantile);
            let weighed_key = case.hostile && case.weighs_a_group_by_column();
            let mixed = case.mixes_numbers_past_2_53_in_a_key();
            let flags = flags
                .chain(quantile.then_some("hostile stream under a quantile filter"))
                .chain(weighed_key.then_some("hostile stream weighing a group-by column"))
                .chain(mixed.then_some("hostile stream mixing Long and Double past 2^53 in a key"))
                .chain(case.ill_typed.map(|_| "ill-typed event"))
                .map(String::from);
            for fact in facts.chain(flags).chain(["cases".to_string()]) {
                *seen.entry(fact).or_insert(0) += 1;
            }
            let points = points(seed, *lean);
            points.iter().for_each(|p| tally(&mut seen, &case, p));
        }
    }
    seen
}

fn tally(seen: &mut BTreeMap<String, usize>, case: &Case, p: &Point) {
    let (mut facts, compiled) = (vec!["points"], case.compile(p.mode));
    let (mut fused, mut straight, mut guarded) = (false, false, false);
    for plan in plans(&compiled) {
        fused |= plan.kernels.iter().any(|u| u.members.len() > 1);
        for u in &plan.kernels {
            straight |= matches!(u.kernel.straight, Some(Straight::Unit(_)));
            guarded |= matches!(u.kernel.straight, Some(Straight::Guards(_)));
        }
        facts.push(match plan.live.is_empty() {
            true => "empty live pass",
            false => "non-empty live pass",
        });
        if plan.tail > 0 {
            facts.push("`:=` tail");
        }
    }
    let cuts = cuts(&case.events, p.partition, case.split_repeated_keys);
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
    let mut facts: Vec<String> = facts.into_iter().map(String::from).collect();
    for (fact, reached) in [
        ("fused group", fused),
        ("straight-line unit", straight),
        ("guard-skipped kernel", guarded),
    ] {
        if reached {
            facts.push(format!("{fact} [{:?}]", p.mode));
        }
    }
    let plans = compiled.triggers.iter().flat_map(|t| &t.statements);
    let plans: Vec<String> = plans.map(|s| format!("{:?}", s.kernel.plan)).collect();
    for (fact, op) in [
        ("range sum in a loop", "RangeSum"),
        ("threshold", "Threshold("),
    ] {
        if plans.iter().any(|plan| plan.contains(op)) {
            facts.push(format!("{fact} [{:?}]", p.mode));
        }
    }
    for fact in facts {
        *seen.entry(fact).or_insert(0) += 1;
    }
}

/// The coverage guard: the slice hits all three classes, every shape and
/// hand-assembled program, a non-empty and an empty live pass, a `:=` tail,
/// a WAL cut after a checkpoint, a held snapshot, a hostile stream (one under
/// a quantile filter, one weighing a query by its own group-by column, one
/// holding `Long` and `Double` values past 2^53 in one key column), an
/// ill-typed event, a higher-order program with a band sum inside a loop
/// fused into a threshold, and sibling statements run as one kernel in the
/// higher-order and naive viewlet modes (the census counts them per mode).
pub fn assert_census() {
    let seen = census();
    eprintln!("{seen:#?}");
    use Class::{Hierarchical, NonHierarchical, QHierarchical};
    let classes = [QHierarchical, Hierarchical, NonHierarchical].map(|c| format!("class {c:?}"));
    let shapes = SHAPES.iter().map(|s| format!("shape {s:?}"));
    let hands = HANDS.iter().map(|h| format!("hand {h:?}"));
    let rest = "non-empty live pass, empty live pass, `:=` tail, \
        WAL cut after a checkpoint, snapshot held across batches, hostile stream, ill-typed event, \
        range sum in a loop [HigherOrder], threshold [HigherOrder], \
        fused group [HigherOrder], fused group [NaiveViewlet], \
        straight-line unit [HigherOrder], straight-line unit [FirstOrder], \
        straight-line unit [NaiveViewlet], straight-line unit [Reevaluate], \
        guard-skipped kernel [HigherOrder], guard-skipped kernel [FirstOrder], \
        guard-skipped kernel [NaiveViewlet], \
        hostile stream under a quantile filter, hostile stream weighing a group-by column, \
        hostile stream mixing Long and Double past 2^53 in a key";
    let facts = classes.into_iter().chain(shapes).chain(hands);
    let facts = facts.chain(rest.split(", ").map(String::from));
    let missing: Vec<String> = facts.filter(|f| !seen.contains_key(f)).collect();
    assert!(missing.is_empty(), "not in the tier-1 slice: {missing:?}");
}
