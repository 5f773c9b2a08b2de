//! Fused sibling statements against the same statements run alone.
//!
//! TPC-H q1's six Lineitem statements run as one fused kernel per trigger
//! (one walk of the shared guard, one key, six values). Each of its
//! aggregates is also a query of its own whose program has one statement per
//! trigger, so it runs unfused. Fed the same float TPC-H stream — per event,
//! and in `process_batch` chunks of 8 and 512 — every q1 map must equal its
//! single-aggregate reference bit for bit, key by key (`f64::to_bits`), and
//! each map must have written as many rows as its reference. The stream is
//! the one the benchmark's `tpch_durable` workload feeds at seed 42; the
//! tier-1 test takes a 20,000-event prefix, the ignored one the workload's
//! whole 250,000 events (CI runs it in release).

mod common;

use dbtoaster::prelude::*;
use dbtoaster::runtime::Engine;
use dbtoaster::workloads;

/// q1's filter and grouping, around one aggregate.
fn single(aggregate: &str) -> String {
    format!(
        "SELECT returnflag, {aggregate} AS v FROM Lineitem \
         WHERE shipdate <= DATE('1998-09-01') GROUP BY returnflag"
    )
}

/// Each q1 map and the single-aggregate query it must equal.
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

/// An engine running `sql` as query `name`, with per-view telemetry.
fn engine(name: &str, sql: &str) -> (Engine, Telemetry) {
    let catalog = workloads::full_catalog();
    let built = QueryEngineBuilder::new(catalog.clone())
        .add_query(name, sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
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

/// A view's entries as `(key, multiplicity bits)`, sorted by key.
fn bits(engine: &Engine, view: &str) -> Vec<(Vec<Value>, u64)> {
    let gmr = engine
        .view(view)
        .unwrap_or_else(|| panic!("no view {view}"));
    let mut rows: Vec<_> = gmr.iter().map(|(k, m)| (k.to_vec(), m.to_bits())).collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("comparable keys"));
    rows
}

fn rows_written(engine: &mut Engine, tel: &Telemetry, view: &str) -> u64 {
    engine.flush_telemetry();
    let snapshot = tel.snapshot();
    let record = snapshot
        .view(view)
        .unwrap_or_else(|| panic!("no record of {view}"));
    record.get("rows_written")
}

fn q1_matches_its_aggregates_run_alone(events: usize) {
    let events = common::ledger_tpch_events(events, 42);
    let q1 = workloads::query("q1").unwrap();
    for chunk in [1, 8, 512] {
        let (mut fused, fused_tel) = engine("q1", q1.sql);
        assert_eq!(lineitem_kernels(&fused), 1, "q1 runs as one kernel");
        feed(&mut fused, &events, chunk);
        for (name, aggregate) in REFERENCES {
            let (mut alone, alone_tel) = engine(name, &single(aggregate));
            assert_eq!(lineitem_kernels(&alone), 1, "{name} runs unfused");
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
                assert_eq!(rows_written(&mut fused, &fused_tel, view), written, "{ctx}");
            }
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
