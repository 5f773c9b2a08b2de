//! EXPLAIN golden tests over the full workload suite.
//!
//! For every workload query the rendered EXPLAIN must tell the truth about
//! execution: each live [`BatchReport`] run record's strategy must be exactly
//! the strategy EXPLAIN printed for that relation — the dispatch is static, no
//! run is re-routed by its size or by the state. The `reason:` line and the
//! `run: live` marks of the batch-delta live pass are pinned as goldens on
//! the four shapes the workload has: no statement that reads what its run
//! writes (`q1`), one that reads the query's own auxiliary maps (`bsp`), a
//! `:=` tail (`vwap`) and one that reads them under a lift and a comparison
//! (`q17a`). A census pins how many relations each compile mode dispatches to
//! each strategy — every one batch-delta — so a change that silently demotes
//! a relation to the per-event path fails by name. `axf` pins the range-sum
//! story: its fused prelude scans print as `range-sum … ordered@t<i>`, each map
//! they read gets a `== map … ==` block with its ordered index, and a second
//! census pins which maps of which queries carry one. `vwap` and `mst` pin
//! quantile filters inside a loop: one search per execution of the band's
//! ordered index, against totals probed once per execution, and the sums
//! they filter as a walk of the keys inside the cut, weighted by the key
//! where the price × volume map folded into the volume map. `q3` pins a
//! declared hash index's line in its map's block, and the map's own bytes
//! (live, and in a snapshot buffer) beside it.
//!
//! The JSON form must round-trip through [`ProgramExplain::parse_json`], and
//! a program without live passes — a hand-assembled one, whose derivation
//! never ran — must be explained entry-major exactly as it runs.

use dbtoaster::prelude::*;
use dbtoaster::runtime::Engine;
use dbtoaster::workloads;
use dbtoaster_bench::dataset_for;

const EVENTS: usize = 400;
const SEED: u64 = 7;
const CHUNK: usize = 32;

/// Replay a query's stream in multi-event delta batches, returning every run
/// record plus the engine for explaining. `underivable` drops the compiled
/// program's live passes first, so every relation dispatches entry-major.
fn run_batched(
    q: &workloads::WorkloadQuery,
    underivable: bool,
) -> (Engine, Vec<(String, BatchStrategy)>) {
    let data = dataset_for(q.family, EVENTS, SEED);
    let catalog = workloads::full_catalog();
    let mut program = QueryEngineBuilder::new(catalog.clone())
        .add_query(q.name, q.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", q.name))
        .program()
        .clone();
    if underivable {
        program.live_passes.clear();
        program.batch_delta_reasons.clear();
    }
    let mut engine = Engine::new(program, &dbtoaster::to_compiler_catalog(&catalog));
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone());
    }
    engine.init_static_views().unwrap();
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

fn check_query(q: &workloads::WorkloadQuery, underivable: bool) {
    let (mut engine, runs) = run_batched(q, underivable);
    assert!(!runs.is_empty(), "{}: no batch runs recorded", q.name);
    let ex = engine.explain();
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
    if underivable {
        for rel in &ex.relations {
            assert_eq!(rel.strategy, "entry-major", "{}", q.name);
            assert_eq!(rel.reason, "batch-delta not derived", "{}", q.name);
        }
        assert!(engine.stats().entry_major_runs > 0, "{}", q.name);
        assert!(!ex.render_text().contains("run: live"), "{}", q.name);
    } else {
        check_goldens(q.name, &ex);
    }
    if q.name == "q3" && !underivable {
        // The map's own bytes sit beside its index's: the live map, and no
        // snapshot buffer until something snapshots it — then one copy.
        let bytes = |ex: &ProgramExplain| {
            let m = ex.maps.iter().find(|m| m.name == "m_q3_1");
            m.and_then(|m| m.analyze.clone()).expect("m_q3_1 analyzed")
        };
        let before = bytes(&ex);
        assert!(
            before.get("map_bytes") > 0 && before.get("snapshot_bytes") == 0,
            "{before:?}"
        );
        // Its one index is a hash index: all the index bytes are hash bytes.
        assert!(
            before.get("indexes.hash_bytes") > 0
                && before.get("indexes.hash_bytes") == before.get("indexes.bytes")
                && before.get("indexes.ordered_bytes") == 0,
            "{before:?}"
        );
        drop(engine.snapshot());
        let after = bytes(&engine.explain());
        assert_eq!(
            after.get("snapshot_bytes"),
            before.get("map_bytes"),
            "{after:?}"
        );
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
                "batch-delta derived (no statement reads run-written state; no live pass)"
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
            assert_eq!(text.matches("\n    run: live\n").count(), 2);
            for (at, _) in text.match_indices("\n    run: live\n") {
                let stmt = text[..at].lines().last().unwrap();
                assert!(stmt.starts_with("  bsp[bids@broker_id] += "), "{stmt}");
            }
            assert!(text.contains(live), "{text}");
            assert!(
                text.contains(" live_firings="),
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
                         analyze: indexes.hash=0 indexes.ordered=1 indexes.entries=";
            assert!(text.contains(block), "{text}");
            // ANALYZE: every range sum of the replay came from an index.
            for rel in &ex.relations {
                let a = rel.triggers[0].statements[0]
                    .analyze
                    .as_ref()
                    .expect("telemetry on");
                assert!(
                    a.get("range_sum_hits") > 0 && a.get("range_sum_bails") == 0,
                    "{a:?}"
                );
                assert_eq!((a.get("scans"), a.get("fused_scans")), (0, 0), "{a:?}");
            }
        }
        "vwap" => {
            // Three O(1) increments that read nothing the run writes, then
            // the nested-aggregate re-evaluation as the run's `:=` tail.
            assert_eq!(
                reason("Bids"),
                "batch-delta derived (no statement reads run-written state; no live pass); \
                 1 replace (`:=`) statement fired once per run, for its last event"
            );
            assert!(!text.contains("run: live"), "{text}");
            // `Σ price · volume` per price is `price × m_vwap_2[price]`, so
            // there is no `m_vwap_3`: the one map of volumes per price keeps
            // an ordered index over the whole map. Every volume being
            // non-negative, the `:=` searches it once for the price where the
            // filter flips, against the total probed once per execution, and
            // the outer sum walks only the prices inside the cut, each
            // weighted by its price.
            let pass = "    prelude: cut walk m_vwap_2[>$5] members=1 entry-invariant ordered@t0; \
                        →$9 numeric pass[slot ×$5, \
                        lift $6 := subsum(probe m_vwap_1[]) (loop-invariant: once per execution), \
                        threshold $5 from 0.25 * $6 > range-sum m_vwap_2[>$7] ordered@t0 key > $5 \
                        (one search per execution)]\n    | scalar ×$9\n";
            assert!(text.contains(pass), "{text}");
            let block = "== map m_vwap_2 ==\n  index (): ordered by b2_price\n    \
                         analyze: indexes.hash=0 indexes.ordered=1 indexes.entries=";
            assert!(text.contains(block), "{text}");
            let maps: Vec<&str> = ex.maps.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(maps, ["m_vwap_2"]);
            assert!(
                !text.contains("m_vwap_3")
                    && !text.contains("scan m_vwap_2")
                    && !text.contains("filter ")
                    && !text.contains("another aggregate in the member"),
                "{text}"
            );
            for rel in &ex.relations {
                let result = rel.triggers[0].statements.last().unwrap();
                let a = result.analyze.as_ref().expect("telemetry on");
                assert!(a.get("fused_scans") > 0, "{a:?}");
            }
            assert_lookups_answered(ex);
        }
        "mst" => {
            // Both sides' quantile filters are one search each of an
            // ordered index, against totals probed once per execution; each
            // bid row is multiplied by the asks' sums, which do not depend on
            // the row: a walk of the asks' cut per execution, the price ×
            // volume sum over `m_mst_2` weighted by the price (no map holds
            // price × volume). The bids' loop scans two free columns.
            for line in [
                "lift $9 := subsum(probe m_mst_3[]) (loop-invariant: once per execution)",
                "threshold $6 from 0.25 * $9 > range-sum m_mst_4[>$7] ordered@t0 key > $6 \
                 (one search per execution)",
                "    prelude: cut walk m_mst_2[>$10] members=1 entry-invariant ordered@t0; \
                 →$22 numeric pass[slot ×$10, \
                 lift $13 := subsum(probe m_mst_1[]) (loop-invariant: once per execution), \
                 threshold $10 from 0.25 * $13 > range-sum m_mst_2[>$11] ordered@t0 key > $10 \
                 (one search per execution)]",
                "    prelude: cut walk m_mst_7[>$18] members=1 entry-invariant ordered@t0; \
                 →$23 numeric pass[",
                "scalar ×$22",
                "scalar ×$23",
            ] {
                assert!(text.contains(line), "{text}");
            }
            assert!(
                !text.contains("scan m_mst_2")
                    && !text.contains("scan m_mst_4")
                    && !text.contains("m_mst_8")
                    && !text.contains("filter "),
                "{text}"
            );
            assert_lookups_answered(ex);
        }
        "q3" => {
            // Each map a kernel scans by a partial key lists its hash index
            // before the first event; ANALYZE finds it the only one.
            let block = "== map m_q3_1 ==\n  index (m_q3_1@@k0): hash\n    \
                         analyze: indexes.hash=1 indexes.ordered=0 indexes.entries=";
            assert!(text.contains(block), "{text}");
        }
        "q17a" => {
            // The result statement of either sign reads the auxiliary maps
            // its own run writes under a lift and a comparison.
            assert_eq!(
                reason("Lineitem"),
                "batch-delta derived (2 live statements, fired entry by entry, read \
                 run-written `m_q17a_1`, `m_q17a_2`)"
            );
            assert_eq!(text.matches("\n    run: live\n").count(), 2);
            for (at, _) in text.match_indices("\n    run: live\n") {
                let stmt = text[..at].lines().last().unwrap();
                assert!(stmt.starts_with("  q17a[] += "), "{stmt}");
            }
        }
        _ => {}
    }
}

/// ANALYZE: the result statements of the replay made range-sum lookups, and
/// every one was answered without a walk.
fn assert_lookups_answered(ex: &ProgramExplain) {
    for rel in &ex.relations {
        let result = rel.triggers[0].statements.last().unwrap();
        let a = result.analyze.as_ref().expect("telemetry on");
        assert!(
            a.get("range_sum_hits") > 0 && a.get("range_sum_bails") == 0,
            "{a:?}"
        );
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

/// A program without live passes runs every relation entry-major, and
/// EXPLAIN must say so, identically to the runs. (A spot-check subset keeps
/// the test inside a reasonable budget.)
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
        (CompileMode::HigherOrder, 39, 0),
        (CompileMode::FirstOrder, 39, 0),
        (CompileMode::NaiveViewlet, 39, 0),
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
            let ex = dbtoaster::compiler::explain(engine.program());
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
/// order's date, per order), `axf` and `bsp`; `vwap` and `mst` search and
/// walk their one-column price maps whole (mask `0`), in the naive viewlet
/// transform too; first-order and re-evaluation mode scan base relations,
/// which leave more than one column free.
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
                "m_vwap_2[0b0]@t0",
                "m_axf_1[0b1]@t1",
                "m_axf_2[0b1]@t1",
                "m_axf_3[0b10]@t0",
                "m_axf_4[0b10]@t0",
                "m_bsp_1[0b1]@t1",
                "m_bsp_2[0b1]@t1",
                "m_mst_2[0b0]@t0",
                "m_mst_4[0b0]@t0",
                "m_mst_7[0b0]@t0",
            ],
            CompileMode::NaiveViewlet => &[
                "m_q4_3[0b10]@t0",
                "m_vwap_2[0b0]@t0",
                "m_mst_2[0b0]@t0",
                "m_mst_4[0b0]@t0",
                "m_mst_9[0b0]@t0",
            ],
            _ => &[],
        };
        assert_eq!(declared, expected, "[{mode}]");
    }
}
