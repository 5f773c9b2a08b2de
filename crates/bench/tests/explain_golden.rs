//! EXPLAIN golden tests over the full workload suite.
//!
//! For every workload query the rendered EXPLAIN must tell the truth about
//! execution: each live [`BatchReport`] run record's strategy must be exactly
//! the strategy EXPLAIN printed for that relation — the dispatch is static, no
//! run is re-routed by its size or by the state. The `reason:` line and the
//! `run: live` marks of the batch-delta live pass are pinned as goldens on
//! the four shapes the workload has: no statement that reads what its run
//! writes (`q1`), one that reads the query's own auxiliary maps (`bsp`), a
//! `:=` tail (`vwap`) and a bail (`q17a`). A census pins how many relations each compile mode
//! dispatches to each strategy, so a gate change that silently demotes a
//! relation to the per-event path fails by name. `axf` pins the range-sum
//! story: its fused prelude scans print as `range-sum … ordered@t<i>`, each map
//! they read gets a `== map … ==` block with its ordered index, and a second
//! census pins which maps of which queries carry one.
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

/// Golden `reason:` / `run: live` lines under the default dispatch.
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
            assert!(!text.contains("run: live"), "{text}");
        }
        "bsp" => {
            assert_eq!(
                reason("Bids"),
                "batch-delta derived (2 live statements, fired entry by entry, read \
                 run-written `m_bsp_1`, `m_bsp_2`)"
            );
            // The result statement of either sign reads the auxiliary maps
            // its own run writes; the statements that write them read nothing.
            let live = "  bsp[bids@broker_id] += ((Sum[](($m_bsp_1(bids@broker_id, y_t) * \
                        (bids@t > y_t))) * bids@volume * bids@price) + ";
            assert_eq!(
                text.matches("    kernel: compiled\n    run: live\n")
                    .count(),
                2
            );
            for (at, _) in text.match_indices("    kernel: compiled\n    run: live\n") {
                let stmt = text[..at].lines().last().unwrap();
                assert!(stmt.starts_with("  bsp[bids@broker_id] += "), "{stmt}");
            }
            assert!(text.contains(live), "{text}");
            assert!(
                text.contains(" overlay="),
                "ANALYZE shows live-pass firings: {text}"
            );
        }
        "axf" => {
            // Six price-band aggregates per `Asks` event, fused into two
            // scans, each answered from an ordered index.
            for line in [
                "    prelude: range-sum m_axf_1[=$2, >$5] members=3 ordered@t1; →$11 \
                 fast[$3 + -($5) > 1000] band(t1: key < $3 + -(1000)); ",
                "    prelude: range-sum m_axf_3[>$5, =$2] members=3 ordered@t0; ",
            ] {
                assert!(text.contains(line), "{text}");
            }
            assert!(!text.contains("fused scan"), "{text}");
            let maps: Vec<&str> = ex.maps.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(maps, ["m_axf_1", "m_axf_2", "m_axf_3", "m_axf_4"]);
            let block = "== map m_axf_3 ==\n  index (m_axf_3@@k1): ordered by a_price\n    \
                         analyze: indexes hash=0 ordered=1 entries=";
            assert!(text.contains(block), "{text}");
            // ANALYZE: every range sum of the replay came from an index.
            for rel in &ex.relations {
                let a = rel.triggers[0].statements[0].analyze.expect("telemetry on");
                assert!(a.banded_hits > 0 && a.banded_bails == 0, "{a:?}");
                assert_eq!((a.scans, a.fused_scans), (0, 0), "{a:?}");
            }
        }
        "vwap" => {
            // Three O(1) increments that read nothing the run writes, then
            // the nested-aggregate re-evaluation as the run's `:=` tail.
            assert_eq!(
                reason("Bids"),
                "batch-delta derived (no statement reads run-written state; no overlay pass); \
                 1 replace (`:=`) statement fired once per run, for its last event"
            );
            assert!(!text.contains("run: live"), "{text}");
            // Its nested range sum binds no column by equality: there is no
            // secondary index to keep ordered, and the plan scans as before.
            assert!(ex.maps.is_empty() && !text.contains("== map"), "{text}");
            assert!(!text.contains("range-sum"), "{text}");
            assert!(text.contains("scan m_vwap_2[>$7]"), "{text}");
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

/// Ordered-index census: which `(map, bound columns)` the compiler declares
/// ordered over the whole workload suite, per compile mode. Three
/// higher-order programs have range-sum scans — `q4` (ship dates after an
/// order's date, per order), `axf` and `bsp`; first-order and re-evaluation
/// mode scan base relations, which leave more than one column free.
#[test]
fn ordered_index_census_per_compile_mode() {
    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
        CompileMode::Reevaluate,
    ] {
        let mut declared = Vec::new();
        for q in workloads::all_queries() {
            let engine = QueryEngineBuilder::new(workloads::full_catalog())
                .add_query(q.name, q.sql)
                .mode(mode)
                .build()
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            for d in engine.program().ordered_indexes() {
                declared.push(format!("{}[{:#b}]@t{}", d.map, d.mask, d.key_pos));
            }
        }
        // `q4`'s auxiliary count map is the same in the naive viewlet
        // transform as in higher-order mode.
        let expected: &[&str] = match mode {
            CompileMode::HigherOrder => &[
                "m_q4_3[0b10]@t0",
                "m_axf_1[0b1]@t1",
                "m_axf_2[0b1]@t1",
                "m_axf_3[0b10]@t0",
                "m_axf_4[0b10]@t0",
                "m_bsp_1[0b1]@t1",
                "m_bsp_2[0b1]@t1",
            ],
            CompileMode::NaiveViewlet => &["m_q4_3[0b10]@t0"],
            _ => &[],
        };
        assert_eq!(declared, expected, "[{mode}]");
    }
}
