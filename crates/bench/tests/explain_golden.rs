//! EXPLAIN golden tests over the full workload suite.
//!
//! For every workload query the rendered EXPLAIN must tell the truth about
//! execution: each live [`BatchReport`] run record's strategy must be exactly
//! the strategy EXPLAIN printed for that relation — the dispatch is static, no
//! run is re-routed by its size or by the state. The `reason:` and
//! `run-linear on …:` lines of the batch-delta overlay pass are pinned as
//! goldens on the four shapes the workload has: no run-linear part (`q1`),
//! an overlay of the query's own auxiliary maps (`bsp`), a `:=` tail (`vwap`)
//! and a bail (`q17a`). A census pins how many relations each compile mode
//! dispatches to each strategy, so a gate change that silently demotes a
//! relation to the per-event path fails by name.
//!
//! The JSON form must round-trip through [`ProgramExplain::parse_json`], and
//! the explained strategy must follow the entry-major override exactly as the
//! live dispatch does.

use dbtoaster::prelude::*;
use dbtoaster::workloads;
use dbtoaster_bench::{build_engine, dataset_for};

const EVENTS: usize = 400;
const SEED: u64 = 7;
const CHUNK: usize = 32;

/// Replay a query's stream in multi-event delta batches, returning every run
/// record plus the engine for explaining.
fn run_batched(
    q: &workloads::WorkloadQuery,
    force_entry_major: bool,
) -> (QueryEngine, Vec<(String, BatchStrategy)>) {
    let data = dataset_for(q.family, EVENTS, SEED);
    let mut engine = build_engine(q, CompileMode::HigherOrder, &data);
    engine.set_force_entry_major(force_entry_major);
    engine.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
    engine.set_run_recording(true);
    let mut runs = Vec::new();
    for chunk in data.events.chunks(CHUNK) {
        let batch = DeltaBatch::from_events(chunk);
        let report = engine.process_batch(&batch);
        assert_eq!(
            report.failed_events, 0,
            "{}: {:?}",
            q.name, report.first_error
        );
        runs.extend(report.runs.iter().map(|r| (r.relation.clone(), r.strategy)));
    }
    (engine, runs)
}

fn check_query(q: &workloads::WorkloadQuery, force_entry_major: bool) {
    let (mut engine, runs) = run_batched(q, force_entry_major);
    assert!(!runs.is_empty(), "{}: no batch runs recorded", q.name);
    let ex = engine.explain();
    assert_eq!(
        ex.forced.as_deref(),
        force_entry_major.then_some("entry-major"),
        "{}: explained override disagrees with the engine's",
        q.name
    );
    for (relation, live) in &runs {
        let rel = ex
            .relations
            .iter()
            .find(|r| &r.relation == relation)
            .unwrap_or_else(|| panic!("{}: relation {relation} ran but is not explained", q.name));
        assert!(
            !rel.reason.is_empty(),
            "{}: {relation} has no strategy reason",
            q.name
        );
        let explained = rel.strategy.as_str();
        assert_eq!(
            explained,
            live.as_str(),
            "{}: relation {relation} explained as {explained} but ran {}",
            q.name,
            live.as_str()
        );
    }
    if !force_entry_major {
        check_goldens(q.name, &ex);
    }
    // The JSON form round-trips structurally.
    let json = ex.render_json();
    let parsed = ProgramExplain::parse_json(&json)
        .unwrap_or_else(|| panic!("{}: unparseable explain JSON", q.name));
    assert_eq!(
        parsed, ex,
        "{}: explain JSON round-trip changed the tree",
        q.name
    );
}

/// Golden `reason:` / run-linear lines under the default dispatch.
fn check_goldens(query: &str, ex: &ProgramExplain) {
    let reason = |relation: &str| -> &str {
        let rel = ex.relations.iter().find(|r| r.relation == relation);
        &rel.unwrap_or_else(|| panic!("{query}: no relation {relation}"))
            .reason
    };
    let text = ex.render_text();
    match query {
        "q1" => {
            assert_eq!(
                reason("Lineitem"),
                "batch-delta derived (no statement reads run-written state; no overlay pass)"
            );
            assert!(!text.contains("run-linear on"), "{text}");
        }
        "bsp" => {
            assert_eq!(
                reason("Bids"),
                "batch-delta derived (2 run-linear statements over an overlay of \
                 `m_bsp_1`, `m_bsp_2`)"
            );
            // The run-linear part of the result statement: the four terms
            // that read the auxiliary maps, not the two state-free ones.
            let part = "run-linear on insert:\n  bsp[bids@broker_id] += \
                ((Sum[](($m_bsp_1(bids@broker_id, y_t) * (bids@t > y_t))) * bids@volume * bids@price) \
                + Sum[](($m_bsp_2(bids@broker_id, x_t) * (x_t > bids@t))) \
                + (-1 * Sum[](($m_bsp_2(bids@broker_id, y_t) * (bids@t > y_t)))) \
                + (-1 * Sum[](($m_bsp_1(bids@broker_id, x_t) * (x_t > bids@t))) * bids@volume * bids@price))\n    \
                kernel: compiled\n";
            assert!(text.contains(part), "{text}");
            assert!(text.contains("run-linear on delete:\n  bsp[bids@broker_id] += "));
            assert!(
                text.contains(" overlay="),
                "ANALYZE shows overlay firings: {text}"
            );
        }
        "vwap" => {
            // Three O(1) increments that read nothing the run writes, then
            // the nested-aggregate re-evaluation as the run's `:=` tail.
            assert_eq!(
                reason("Bids"),
                "batch-delta derived (no statement reads run-written state; no overlay pass); \
                 1 replace (`:=`) statement fired once per run, for its last event"
            );
            assert!(!text.contains("run-linear on"), "{text}");
        }
        "q17a" => assert_eq!(
            reason("Lineitem"),
            "batch-delta ineligible: the statement for `q17a` is not affine in run-written \
             `m_q17a_1`"
        ),
        _ => {}
    }
}

/// Default dispatch: batch-delta where derived, on every workload query.
#[test]
fn explained_strategies_match_live_batch_runs() {
    let queries = workloads::all_queries();
    assert!(queries.len() >= 15, "workload suite shrank?");
    for q in &queries {
        check_query(q, false);
    }
}

/// The entry-major override must show up identically in EXPLAIN and in the
/// runs. (A spot-check subset keeps the test inside a reasonable budget.)
#[test]
fn explained_strategies_follow_the_entry_major_override() {
    for name in ["q1", "q3", "axf", "bsv", "vwap", "mddb1"] {
        check_query(&workloads::query(name).unwrap(), true);
    }
}

/// Dispatch census: `(batch-delta, entry-major)` relation counts over every
/// workload query, per compile mode. A relation leaving batch-delta is a
/// silent slowdown of one to two orders of magnitude at batch 512 (PR 15's
/// post-mortem), so the counts are pinned and a mismatch names the relations.
#[test]
fn dispatch_census_per_compile_mode() {
    for (mode, batch_delta, entry_major) in [
        (CompileMode::HigherOrder, 35, 4),
        (CompileMode::FirstOrder, 29, 10),
        (CompileMode::NaiveViewlet, 29, 10),
        (CompileMode::Reevaluate, 39, 0),
    ] {
        let mut counts = (0, 0);
        let mut per_event = Vec::new();
        for q in workloads::all_queries() {
            let engine = QueryEngineBuilder::new(workloads::full_catalog())
                .add_query(q.name, q.sql)
                .mode(mode)
                .build()
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            let ex = dbtoaster::compiler::explain(engine.program(), false);
            for rel in ex.relations {
                match rel.strategy.as_str() {
                    "batch-delta" => counts.0 += 1,
                    "entry-major" => {
                        counts.1 += 1;
                        per_event.push(format!("{}.{}: {}", q.name, rel.relation, rel.reason));
                    }
                    other => panic!("{}.{}: strategy {other}", q.name, rel.relation),
                }
            }
        }
        assert_eq!(
            counts,
            (batch_delta, entry_major),
            "[{mode}] entry-major relations:\n{}",
            per_event.join("\n")
        );
    }
}
