//! Fused sibling statements against the same statements run alone, and
//! every kernel of the `tpch_durable` program against the plan interpreter.
//!
//! TPC-H q1's six results read four maps: its `AVG(quantity)` halves are
//! its `SUM(quantity)` and `COUNT(*)`, so `q1_4_sum` reads `q1_1` and `q1_5`
//! reads `q1_4_cnt`. The four Lineitem statements run as one fused kernel
//! per trigger (one walk of the shared guard, one key, four values). Each of
//! its aggregates is also a query of its own whose program has one statement
//! per trigger, so it runs unfused. q1's four maps are one shared key table
//! (a value column each), each reference's map a map of its own, so the
//! comparison checks the table against separate maps. Fed the same float
//! TPC-H stream — per
//! event, and in `process_batch` chunks of 8 and 512 — every q1 result must
//! equal its single-aggregate reference bit for bit, key by key
//! (`f64::to_bits`), through `Engine::result` and, for the four members,
//! read cold as maps through `Engine::view`, and each member must have
//! written as many rows as its reference. The stream is the one the benchmark's `tpch_durable` workload
//! feeds at seed 42; the tier-1 tests take a 20,000-event prefix, the
//! ignored ones the workload's whole 250,000 events (CI runs them in
//! release). q1's kernel is a trigger-only unit, so it runs straight-line on
//! every Lineitem entry (`EngineStats::straight_line`), as its references
//! do; the kernel differential runs every Lineitem and Orders kernel of q1,
//! q6 and q12 both ways over the same stream, against the state the engine
//! holds before each event.

use dbtoaster::agca::plan::{CompiledStmt, KernelState, Straight};
use dbtoaster::agca::RelationSource;
use dbtoaster::gmr::Tuple;
use dbtoaster::prelude::*;
use dbtoaster::runtime::Engine;
use dbtoaster::telemetry::{LocalCounts, ViewSummary};
use dbtoaster::workloads;

/// q1's filter and grouping, around one aggregate.
fn single(aggregate: &str) -> String {
    format!(
        "SELECT returnflag, {aggregate} AS v FROM Lineitem \
         WHERE shipdate <= DATE('1998-09-01') GROUP BY returnflag"
    )
}

/// Each q1 result and the single-aggregate query it must equal.
const PAIRS: [(&str, &str); 6] = [
    ("q1_1", "sum_qty"),
    ("q1_2", "sum_price"),
    ("q1_3", "sum_disc_price"),
    ("q1_4_sum", "sum_qty"),
    ("q1_4_cnt", "count_order"),
    ("q1_5", "count_order"),
];

/// The references: name and aggregate.
const REFERENCES: [(&str, &str); 4] = [
    ("sum_qty", "SUM(quantity)"),
    ("sum_price", "SUM(extendedprice)"),
    ("sum_disc_price", "SUM(extendedprice * (1 - discount))"),
    ("count_order", "COUNT(*)"),
];

/// The results q1 reads through another of its results' map.
const MERGED: [(&str, &str); 2] = [("q1_4_sum", "q1_1"), ("q1_5", "q1_4_cnt")];

/// q1's four maps: one shared key table.
const Q1_MAPS: [&str; 4] = ["q1_1", "q1_2", "q1_3", "q1_4_cnt"];

/// The shared table and column of each of the maps `names`, if any.
fn shared_columns<const N: usize>(engine: &Engine, names: &[&str; N]) -> [Option<(u32, usize)>; N] {
    let db = engine.database();
    names.map(|n| db.member(db.id(n).expect("a declared map")))
}

/// An engine running `sql` as query `name`, with per-view telemetry.
fn engine(name: &str, sql: &str) -> (Engine, Telemetry) {
    engine_of(&[(name, sql)])
}

/// An engine running `queries`, higher-order, with per-view telemetry.
fn engine_of(queries: &[(&str, &str)]) -> (Engine, Telemetry) {
    let catalog = workloads::full_catalog();
    let mut builder = QueryEngineBuilder::new(catalog.clone()).mode(CompileMode::HigherOrder);
    for (name, sql) in queries {
        builder = builder.add_query(*name, *sql);
    }
    let built = builder
        .build()
        .unwrap_or_else(|e| panic!("{queries:?}: {e}"));
    let mut engine = Engine::new(built.program().clone(), &catalog);
    let tel = Telemetry::with_config(TelemetryConfig::default());
    engine.set_telemetry(tel.clone());
    (engine, tel)
}

/// How many kernels the `Lineitem` insert trigger runs as: one per kernel
/// unit (its statements are all `+=`).
fn lineitem_kernels(engine: &Engine) -> usize {
    let program = engine.program();
    let plans = program.relation_plans().expect("compiled programs derive");
    let plan = plans.iter().find(|p| p.relation == "Lineitem").unwrap();
    let t = plan.insert.unwrap();
    plan.kernels.iter().filter(|u| u.trigger == t).count()
}

/// Feed `events` to `engine` one at a time (`chunk` 1) or in batches.
fn feed(engine: &mut Engine, events: &[UpdateEvent], chunk: usize) {
    for part in events.chunks(chunk) {
        match chunk {
            1 => engine.process(&part[0]).unwrap(),
            _ => {
                let report = engine.process_batch(&DeltaBatch::from_events(part));
                assert_eq!(report.failed_events, 0, "{:?}", report.first_error);
            }
        }
    }
}

/// A result's entries as `(key, multiplicity bits)`, sorted by key.
fn bits(engine: &Engine, result: &str) -> Vec<(Vec<Value>, u64)> {
    let gmr = engine
        .result(result)
        .unwrap_or_else(|e| panic!("result {result}: {e}"));
    sorted_bits(&gmr)
}

/// `gmr`'s entries as `(key, multiplicity bits)`, sorted by key.
fn sorted_bits(gmr: &Gmr) -> Vec<(Vec<Value>, u64)> {
    let mut rows: Vec<_> = gmr.iter().map(|(k, m)| (k.to_vec(), m.to_bits())).collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("comparable keys"));
    rows
}

/// The rows the map `result` reads has written.
fn rows_written(engine: &mut Engine, tel: &Telemetry, result: &str) -> u64 {
    let results = &engine.program().results;
    let map = results
        .iter()
        .find(|r| r.name == result)
        .unwrap()
        .map
        .clone();
    engine.flush_telemetry();
    let snapshot = tel.snapshot();
    let record = snapshot
        .view(&map)
        .unwrap_or_else(|| panic!("no record of {map}"));
    record.get("rows_written")
}

fn q1_matches_its_aggregates_run_alone(events: usize) {
    let events = workloads::tpch::ledger_events(events, 42);
    let q1 = workloads::query("q1").unwrap();
    for chunk in [1, 8, 512] {
        let (mut fused, fused_tel) = engine("q1", q1.sql);
        assert_eq!(lineitem_kernels(&fused), 1, "q1 runs as one kernel");
        assert_eq!(
            shared_columns(&fused, &Q1_MAPS),
            [0, 1, 2, 3].map(|c| Some((0, c)))
        );
        let results = &fused.program().results;
        let merged = results.iter().filter(|r| r.map != r.name);
        let merged: Vec<(&str, &str)> = merged.map(|r| (&*r.name, &*r.map)).collect();
        assert_eq!(merged, MERGED, "q1's AVG halves read its SUM and COUNT");
        feed(&mut fused, &events, chunk);
        // Its one unit per trigger ran straight-line on every Lineitem entry.
        let stats = fused.stats();
        assert!(stats.statements > 0);
        assert_eq!(stats.straight_line, stats.statements, "chunks of {chunk}");
        for (name, aggregate) in REFERENCES {
            let (mut alone, alone_tel) = engine(name, &single(aggregate));
            assert_eq!(lineitem_kernels(&alone), 1, "{name} runs unfused");
            assert_eq!(shared_columns(&alone, &[name]), [None], "{name} is a map");
            assert!(alone.program().relation_plans().unwrap()[0]
                .kernels
                .iter()
                .all(|u| u.members.len() == 1));
            feed(&mut alone, &events, chunk);
            // Both ran one kernel per entry.
            assert_eq!(fused.stats().statements, alone.stats().statements, "{name}");
            let written = rows_written(&mut alone, &alone_tel, name);
            for (view, _) in PAIRS.iter().filter(|p| p.1 == name) {
                let ctx = format!("{view} vs {name}, chunks of {chunk}");
                let want = bits(&alone, name);
                assert!(want.len() >= 3, "{ctx}: {want:?}");
                assert_eq!(bits(&fused, view), want, "{ctx}");
                if Q1_MAPS.contains(view) {
                    // The table's column, read cold as the map it stands for.
                    let column = fused.view(view).expect("a member reads as a map");
                    assert_eq!(sorted_bits(&column), want, "{ctx}: the column");
                }
                assert_eq!(rows_written(&mut fused, &fused_tel, view), written, "{ctx}");
            }
        }
        for (result, survivor) in MERGED {
            let ctx = format!("{result} vs {survivor}, chunks of {chunk}");
            assert_eq!(bits(&fused, result), bits(&fused, survivor), "{ctx}");
        }
    }
}

#[test]
fn fused_siblings_are_bit_exact_against_each_statement_alone() {
    q1_matches_its_aggregates_run_alone(20_000);
}

/// The same at the `tpch_durable` workload's length (CI, release).
#[test]
#[ignore]
fn fused_siblings_are_bit_exact_at_ledger_length() {
    q1_matches_its_aggregates_run_alone(250_000);
}

/// Rows as their keys render — telling `Long(3)` from `Double(3.0)` and
/// `-0.0` from `0.0` — and their multiplicities' bits, per member.
fn rendered(rows: &[Vec<(Tuple, f64)>]) -> Vec<Vec<(String, u64)>> {
    let row = |(k, m): &(Tuple, f64)| (format!("{k:?}"), m.to_bits());
    rows.iter().map(|r| r.iter().map(row).collect()).collect()
}

/// Run `kernel` for `event` over `src` as the engine does — its
/// straight-line form first, the interpreter for what that leaves — or,
/// without `straight`, with the interpreter alone. Returns whether the form
/// was the whole execution, each member's rows and the work counted.
fn run_kernel(
    kernel: &CompiledStmt,
    src: &dyn RelationSource,
    event: &[Value],
    straight: bool,
) -> (bool, Vec<Vec<(String, u64)>>, ViewSummary) {
    let mut rows = vec![Vec::new(); kernel.members.len()];
    let counts = LocalCounts::default();
    let ran = straight && kernel.run_straight(event, &mut rows[..]);
    if !ran {
        let mut state = KernelState::new();
        state.prepare(kernel);
        state.frame[..event.len()].clone_from_slice(event);
        kernel.execute(src, &kernel.bind(src), &mut state, &counts, true);
        rows = state.rows_of(kernel).to_vec();
    }
    let mut work = ViewSummary::default();
    counts.drain_into(&mut work.values);
    (ran, rendered(&rows), work)
}

/// Every kernel unit of `tpch_durable`'s Lineitem and Orders triggers (q1,
/// q6 and q12, higher-order), for each of the first `events` events of the
/// ledger stream: run as the engine runs it and with the interpreter alone
/// on a clone without the straight-line form, over the state the engine
/// holds before the event, each member gets the same rows, bit for bit, and
/// the same work is counted. Then the engine applies the event.
fn kernels_match_the_interpreter(events: usize) {
    let queries = ["q1", "q6", "q12"].map(|name| {
        let q = workloads::query(name).unwrap();
        (q.name, q.sql)
    });
    let (mut engine, _) = engine_of(&queries);
    let program = engine.program().clone();
    let plans = program.relation_plans().expect("compiled programs derive");
    // Per (relation, sign): each unit's kernel, and the interpreter's clone.
    let mut kernels = Vec::new();
    for plan in plans
        .iter()
        .filter(|p| ["Lineitem", "Orders"].contains(&&*p.relation))
    {
        for (sign, trigger) in [
            (UpdateSign::Insert, plan.insert),
            (UpdateSign::Delete, plan.delete),
        ] {
            let units = plan.kernels.iter().filter(|u| Some(u.trigger) == trigger);
            let pairs = units.map(|u| {
                let interpreted = CompiledStmt {
                    straight: None,
                    ..u.kernel.clone()
                };
                (u.kernel.clone(), interpreted)
            });
            kernels.push(((plan.relation.clone(), sign), pairs.collect::<Vec<_>>()));
        }
    }
    assert_eq!(kernels.len(), 4, "Lineitem and Orders, each sign");
    let (mut straight, mut skipped, mut interpreted) = (0, 0, 0);
    for event in workloads::tpch::ledger_events(events, 42) {
        let key = (event.relation.clone(), event.sign);
        let units = kernels.iter().filter(|(k, _)| *k == key);
        for (kernel, alone) in units.flat_map(|(_, units)| units) {
            let src: &dyn RelationSource = engine.database();
            let (ran, got, work) = run_kernel(kernel, src, &event.tuple, true);
            let (_, want, want_work) = run_kernel(alone, src, &event.tuple, false);
            let ctx = format!("{:?} for {event:?}", kernel.plan);
            assert_eq!(got, want, "{ctx}");
            assert_eq!(work, want_work, "{ctx}");
            match (&kernel.straight, ran) {
                (Some(Straight::Unit(_)), true) => straight += 1,
                (Some(Straight::Guards(_)), true) => skipped += 1,
                (Some(Straight::Unit(_)), false) => panic!("{ctx}: a unit fell back"),
                (_, _) => interpreted += 1,
            }
        }
        engine.process(&event).unwrap();
    }
    // Each form ran, and the interpreter ran where no form could.
    assert!(
        straight > 0 && skipped > 0 && interpreted > 0,
        "{straight} {skipped} {interpreted}"
    );
}

#[test]
fn tpch_durable_kernels_match_the_interpreter() {
    kernels_match_the_interpreter(20_000);
}

/// The same at the `tpch_durable` workload's length (CI, release).
#[test]
#[ignore]
fn tpch_durable_kernels_match_the_interpreter_at_ledger_length() {
    kernels_match_the_interpreter(250_000);
}
