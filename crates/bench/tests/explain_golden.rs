//! EXPLAIN golden tests over the full workload suite.
//!
//! For every workload query the rendered EXPLAIN must tell the truth about
//! execution: each live [`BatchReport`] run record's strategy must be exactly
//! the strategy EXPLAIN printed for that relation — the dispatch is static, no
//! run is re-routed by its size or by the state. The `reason:` and
//! `run-linear on …:` lines of the batch-delta overlay pass are pinned as
//! goldens on the three shapes the workload has: no run-linear part (`q1`),
//! an overlay of the query's own auxiliary maps (`bsp`), and a bail.
//!
//! The JSON form must round-trip through [`ProgramExplain::parse_json`], and
//! the explained strategy must follow `DBTOASTER_FORCE_BATCH_STRATEGY`
//! overrides exactly as the live dispatch does — all in one test function
//! because the override is process-global state.

use dbtoaster::prelude::*;
use dbtoaster::workloads;
use dbtoaster_bench::{build_engine, dataset_for};

const EVENTS: usize = 400;
const SEED: u64 = 7;
const CHUNK: usize = 32;

/// Replay a query's stream in multi-event delta batches, returning every run
/// record plus the engine for explaining.
fn run_batched(q: &workloads::WorkloadQuery) -> (QueryEngine, Vec<(String, BatchStrategy)>) {
    let data = dataset_for(q.family, EVENTS, SEED);
    let mut engine = build_engine(q, CompileMode::HigherOrder, &data);
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

fn check_query(q: &workloads::WorkloadQuery, forced: Option<BatchStrategy>) {
    let (mut engine, runs) = run_batched(q);
    assert!(!runs.is_empty(), "{}: no batch runs recorded", q.name);
    let ex = engine.explain();
    assert_eq!(
        ex.forced.as_deref(),
        forced.map(|f| f.as_str()),
        "{}: explained override disagrees with the environment",
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
    if forced.is_none() {
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
        "q17a" => assert!(
            reason("Lineitem").starts_with(
                "batch-delta ineligible: `q17a` has a nonzero third delta (more than quadratic); "
            ),
            "{}",
            reason("Lineitem")
        ),
        _ => {}
    }
}

/// One test function on purpose: `DBTOASTER_FORCE_BATCH_STRATEGY` is process
/// state, and tests within a binary run concurrently.
#[test]
fn explained_strategies_match_live_batch_runs_across_overrides() {
    let queries = workloads::all_queries();
    assert!(queries.len() >= 15, "workload suite shrank?");

    // Default dispatch: batch-delta where derived.
    std::env::remove_var(dbtoaster::runtime::FORCE_BATCH_STRATEGY_ENV);
    for q in &queries {
        check_query(q, None);
    }

    // Forced overrides must show up identically in EXPLAIN and in the runs.
    // (A spot-check subset keeps the test inside a reasonable budget.)
    for (name, forced) in [
        ("entry", BatchStrategy::EntryMajor),
        ("statement", BatchStrategy::StatementMajor),
    ] {
        std::env::set_var(dbtoaster::runtime::FORCE_BATCH_STRATEGY_ENV, name);
        for q in queries
            .iter()
            .filter(|q| ["q1", "q3", "axf", "bsv", "vwap", "mddb1"].contains(&q.name))
        {
            check_query(q, Some(forced));
        }
    }
    std::env::remove_var(dbtoaster::runtime::FORCE_BATCH_STRATEGY_ENV);
}
