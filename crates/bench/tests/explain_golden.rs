//! EXPLAIN golden tests over the full workload suite.
//!
//! For every workload query the rendered EXPLAIN must tell the truth about
//! execution: each relation a live [`BatchReport`] run record names is
//! explained, with its live pass. The `live pass:` line and the `run: live`
//! marks of the batch-delta live pass are pinned as goldens on the four
//! shapes the workload has: no statement that reads what its run writes
//! (`q1`), one that reads the query's own auxiliary maps (`bsp`), a `:=` tail
//! (`vwap`) and one that reads them under a lift and a comparison (`q17a`). A
//! census pins, per compile mode, how many relations the workload's programs
//! trigger on and how many of them have a non-empty live pass, so a change
//! that silently sends more statements firing by firing fails by name;
//! another pins the sibling groups of the benchmark's query sets, whose
//! statements run as one kernel (`q1`'s `fused:` lines are a golden too). `axf` pins the range-sum
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
//! A third census pins, per trigger, how many kernel units run
//! straight-line and how many test their event guards first (`q1`'s
//! `straight-line:` lines are a golden too).
//!
//! The JSON form must round-trip through [`ProgramExplain::parse_json`].

use dbtoaster::compiler::{explain, UnitExplain};
use dbtoaster::prelude::*;
use dbtoaster::runtime::Engine;
use dbtoaster::workloads;
use dbtoaster_bench::dataset_for;

const EVENTS: usize = 400;
const SEED: u64 = 7;
const CHUNK: usize = 32;

/// Replay a query's stream in multi-event delta batches, returning the
/// relation of every run of every batch plus the engine for explaining.
fn run_batched(q: &workloads::WorkloadQuery) -> (Engine, Vec<String>) {
    let data = dataset_for(q.family, EVENTS, SEED);
    let catalog = workloads::full_catalog();
    let program = QueryEngineBuilder::new(catalog.clone())
        .add_query(q.name, q.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", q.name))
        .program()
        .clone();
    let mut engine = Engine::new(program, &catalog);
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone());
    }
    engine.init_static_views().unwrap();
    engine.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
    let mut runs = Vec::new();
    for chunk in data.events.chunks(CHUNK) {
        let batch = DeltaBatch::from_events(chunk);
        let report = engine.process_batch(&batch);
        assert_eq!(
            report.failed_events, 0,
            "{}: {:?}",
            q.name, report.first_error
        );
        runs.extend(batch.runs().iter().map(|r| r.relation().to_string()));
    }
    (engine, runs)
}

fn check_query(q: &workloads::WorkloadQuery) {
    let (mut engine, runs) = run_batched(q);
    let ran = engine.stats().batch_delta_runs;
    assert!(ran > 0, "{}: no batch-delta runs", q.name);
    let ex = engine.explain();
    // The runs that ran are exactly the runs of explained relations.
    let explained: Vec<_> = runs
        .iter()
        .filter_map(|relation| ex.relations.iter().find(|r| &r.relation == relation))
        .collect();
    assert_eq!(
        explained.len() as u64,
        ran,
        "{}: a relation ran but is not explained",
        q.name
    );
    for rel in explained {
        let relation = &rel.relation;
        assert!(
            !rel.live_pass.is_empty(),
            "{}: {relation} has no live-pass line",
            q.name
        );
    }
    check_goldens(q.name, &ex);
    if q.name == "q3" {
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

/// Golden `live pass:` / `run: live` lines.
fn check_goldens(query: &str, ex: &ProgramExplain) {
    let live_pass = |relation: &str| -> &str {
        let rel = ex.relations.iter().find(|r| r.relation == relation);
        &rel.unwrap_or_else(|| panic!("{query}: no relation {relation}"))
            .live_pass
    };
    let text = ex.render_text();
    match query {
        "q1" => {
            assert_eq!(
                live_pass("Lineitem"),
                "none (no statement reads run-written state)"
            );
            assert!(!text.contains("run: live"), "{text}");
            // The AVG's halves read the SUM's and the COUNT's maps, and
            // the four maps are one key table, whose aggregates run as one
            // kernel per trigger, straight from the event, printed under
            // the live pass.
            let fused = "result q1_4_sum reads q1_1\n\
                         result q1_5 reads q1_4_cnt\n\
                         == relation Lineitem ==\n\
                         live pass: none (no statement reads run-written state)\n\
                         shared table: q1_1, q1_2, q1_3, q1_4_cnt\n\
                         fused: q1_1, q1_2, q1_3, q1_4_cnt (on insert)\n\
                         fused: q1_1, q1_2, q1_3, q1_4_cnt (on delete)\n\
                         straight-line: q1_1, q1_2, q1_3, q1_4_cnt (on insert)\n\
                         straight-line: q1_1, q1_2, q1_3, q1_4_cnt (on delete)\n\
                         on insert:\n";
            assert!(text.starts_with(fused), "{text}");
            let merged =
                [("q1_4_sum", "q1_1"), ("q1_5", "q1_4_cnt")].map(|(r, m)| (r.into(), m.into()));
            assert_eq!(ex.merged, merged);
        }
        "bsp" => {
            assert_eq!(
                live_pass("Bids"),
                "2 statements, fired entry by entry, read run-written `m_bsp_1`, `m_bsp_2`"
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
                live_pass("Bids"),
                "none (no statement reads run-written state); \
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
                live_pass("Lineitem"),
                "2 statements, fired entry by entry, read run-written `m_q17a_1`, `m_q17a_2`"
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

/// Every workload query: each relation that ran is explained, and the
/// goldens hold.
#[test]
fn explained_relations_match_live_batch_runs() {
    let queries = workloads::all_queries();
    assert!(queries.len() >= 15, "workload suite shrank?");
    for q in &queries {
        check_query(q);
    }
}

/// Live-pass census: `(triggered relations, relations with a non-empty live
/// pass)` over every workload query, per compile mode. Every relation
/// derives (`compile` would refuse the query otherwise); a relation whose
/// live pass becomes non-empty fires statements entry by entry it did not
/// before, so the counts are pinned and a mismatch names the relations.
/// Every trigger of every program belongs to exactly one relation plan, as
/// its relation's trigger of its sign.
#[test]
fn live_pass_census_per_compile_mode() {
    for (mode, relations, live) in [
        (CompileMode::HigherOrder, 39, 7),
        (CompileMode::FirstOrder, 39, 13),
        (CompileMode::NaiveViewlet, 39, 13),
        (CompileMode::Reevaluate, 39, 0),
    ] {
        let mut counts = (0, 0);
        let mut listed = Vec::new();
        for q in workloads::all_queries() {
            let engine = QueryEngineBuilder::new(workloads::full_catalog())
                .add_query(q.name, q.sql)
                .mode(mode)
                .build()
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            let program = engine.program();
            let plans = program.relation_plans().expect("compiled programs derive");
            // Every plan slot holding a trigger, as (relation, sign).
            let slots: Vec<(usize, &str, UpdateSign)> = plans
                .iter()
                .flat_map(|p| {
                    let signs = [
                        (p.insert, UpdateSign::Insert),
                        (p.delete, UpdateSign::Delete),
                    ];
                    let held = signs.into_iter().filter_map(|(i, s)| Some((i?, s)));
                    held.map(|(i, s)| (i, p.relation.as_str(), s))
                })
                .collect();
            for (i, t) in program.triggers.iter().enumerate() {
                let owners: Vec<_> = slots.iter().filter(|s| s.0 == i).collect();
                let expected = (i, t.relation.as_str(), t.sign);
                assert_eq!(owners, [&expected], "{} [{mode}]: {t}", q.name);
            }
            for rel in dbtoaster::compiler::explain(program).relations {
                counts.0 += 1;
                if !rel.live_pass.starts_with("none") {
                    counts.1 += 1;
                    listed.push(format!("{}.{}: {}", q.name, rel.relation, rel.live_pass));
                }
            }
        }
        assert_eq!(
            counts,
            (relations, live),
            "[{mode}] relations with a live pass:\n{}",
            listed.join("\n")
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

/// Sibling-group census: per bundled program (the benchmark's four query
/// sets) and compile mode, every trigger with a group, as `relation/sign:
/// statements → kernels [members]…`. A group runs its `+=` statements as one
/// kernel, so a change to the rule that decides them fails here by name.
/// The engine fills every deferred slot from the relation plan's kernel
/// units, so for these and for every workload query alone, in every mode,
/// each `+=` statement sits in exactly one unit, and a trigger's units come
/// in order of their first members.
/// q1's four maps (its six results, two of them merged into other results'
/// maps) are one group wherever q1 runs incrementally; in
/// higher-order mode `tpch_dash`'s Lineitem also fuses q3's and q10's
/// price and discounted-price maps, and the order-book programs fuse the
/// volume-and-count map pairs each side keeps (`m_axf_3` adds the volume,
/// `m_axf_4` one, under the same key, with nothing else to walk).
/// Re-evaluation has no `+=` statements to fuse, and `vwap` no siblings.
#[test]
fn fused_group_census_per_compile_mode() {
    const DURABLE: &[&str] = &["q1", "q6", "q12"];
    const DASH: &[&str] = &["q1", "q3", "q6", "q10", "q12", "ssb4"];
    const BOOK: &[&str] = &["axf", "bsp", "bsv"];
    const Q1: &str = "[q1_1, q1_2, q1_3, q1_4_cnt]";
    let census = |names: &[&str], mode: CompileMode| -> Vec<String> {
        let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
        for name in names {
            let q = workloads::query(name).unwrap();
            builder = builder.add_query(q.name, q.sql);
        }
        let engine = builder
            .build()
            .unwrap_or_else(|e| panic!("{names:?} [{mode}]: {e}"));
        let program = engine.program();
        let mut lines = Vec::new();
        for plan in program.relation_plans().expect("compiled programs derive") {
            for t in [plan.insert, plan.delete].into_iter().flatten() {
                let trigger = &program.triggers[t];
                let units: Vec<_> = plan.kernels.iter().filter(|u| u.trigger == t).collect();
                let mut placed: Vec<usize> = units.iter().flat_map(|u| u.members.clone()).collect();
                placed.sort_unstable();
                let increments: Vec<usize> = (0..trigger.increments().len()).collect();
                assert_eq!(placed, increments, "{names:?} [{mode}]: {trigger}");
                let leads: Vec<usize> = units.iter().map(|u| u.members[0]).collect();
                assert!(leads.is_sorted(), "{names:?} [{mode}]: units {leads:?}");
                let groups: Vec<_> = units.iter().filter(|u| u.members.len() > 1).collect();
                if groups.is_empty() {
                    continue;
                }
                let n = trigger.statements.len();
                let kernels = units.len() + n - increments.len();
                let named = groups.iter().map(|g| {
                    let targets = g
                        .members
                        .iter()
                        .map(|&j| trigger.statements[j].target.as_str());
                    format!("[{}]", targets.collect::<Vec<_>>().join(", "))
                });
                let named: Vec<String> = named.collect();
                let (relation, sign) = (&trigger.relation, trigger.sign);
                lines.push(format!(
                    "{relation}/{sign:?}: {n} → {kernels} {}",
                    named.join(" ")
                ));
            }
        }
        lines
    };
    let both = |relation: &str, counts: &str, groups: &str| -> Vec<String> {
        ["Insert", "Delete"]
            .map(|sign| format!("{relation}/{sign}: {counts} {groups}"))
            .to_vec()
    };
    let dash_ho = format!("{Q1} [m_q3_5, m_q3_6] [m_q10_12, m_q10_13]");
    let dash_naive = format!("{Q1} [m_q3_4, m_q3_5] [m_mq31_19, m_mq32_20]");
    let book = |bids: &str, groups: &str| -> Vec<String> {
        let asks = both("Asks", "3 → 2", "[m_axf_3, m_axf_4]");
        asks.into_iter().chain(both("Bids", bids, groups)).collect()
    };
    let none = Vec::<String>::new;
    for (mode, durable, dash, book) in [
        (
            CompileMode::HigherOrder,
            both("Lineitem", "7 → 4", Q1),
            both("Lineitem", "24 → 19", &dash_ho),
            book("8 → 6", "[m_axf_1, m_axf_2] [m_bsp_5, m_bsp_6]"),
        ),
        (
            CompileMode::FirstOrder,
            both("Lineitem", "6 → 3", Q1),
            both("Lineitem", "9 → 6", Q1),
            none(),
        ),
        (
            CompileMode::NaiveViewlet,
            both("Lineitem", "7 → 4", Q1),
            both("Lineitem", "35 → 30", &dash_naive),
            book("8 → 7", "[m_axf_1, m_axf_2]"),
        ),
        (CompileMode::Reevaluate, none(), none(), none()),
    ] {
        assert_eq!(census(DURABLE, mode), durable, "tpch_durable [{mode}]");
        assert_eq!(census(DASH, mode), dash, "tpch_dash [{mode}]");
        assert_eq!(census(BOOK, mode), book, "book_join [{mode}]");
        assert_eq!(census(&["vwap"], mode), none(), "book_nested [{mode}]");
        for q in workloads::all_queries() {
            census(&[q.name], mode);
        }
    }
}

/// The straight-line census: per trigger of the benchmark's query sets, in
/// every compile mode, `units → S straight-line, G guard-tested`, for every
/// trigger with either. A straight-line unit runs from the event's fields
/// without the plan interpreter; a guard-tested kernel tests its event
/// guards first and runs nothing for an event that fails them. In
/// higher-order mode `tpch_durable`'s Lineitem runs q1's unit, q6 and
/// `m_q12_3` straight-line and tests q12's shipdate window first, and its
/// Orders runs `m_q12_1` and `m_q12_2` straight-line and tests q12's two
/// priority guards first.
#[test]
fn straight_line_census_per_compile_mode() {
    const DURABLE: &[&str] = &["q1", "q6", "q12"];
    const DASH: &[&str] = &["q1", "q3", "q6", "q10", "q12", "ssb4"];
    const BOOK: &[&str] = &["axf", "bsp", "bsv"];
    let census = |names: &[&str], mode: CompileMode| -> Vec<String> {
        let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
        for name in names {
            let q = workloads::query(name).unwrap();
            builder = builder.add_query(q.name, q.sql);
        }
        let engine = builder
            .build()
            .unwrap_or_else(|e| panic!("{names:?} [{mode}]: {e}"));
        let ex = explain(engine.program());
        let mut lines = Vec::new();
        for plan in engine
            .program()
            .relation_plans()
            .expect("compiled programs derive")
        {
            let rel = ex.relations.iter().find(|r| r.relation == plan.relation);
            let rel = rel.expect("every relation explained");
            for t in [plan.insert, plan.delete].into_iter().flatten() {
                let sign = engine.program().triggers[t].sign;
                let on = format!("{sign:?}").to_lowercase();
                let count = |units: &[UnitExplain]| units.iter().filter(|u| u.sign == on).count();
                let (s, g) = (count(&rel.straight_line), count(&rel.guard_tested));
                if s + g > 0 {
                    let units = plan.kernels.iter().filter(|u| u.trigger == t).count();
                    lines.push(format!("{}/{sign:?}: {units} → {s}, {g}", plan.relation));
                }
            }
        }
        lines
    };
    let both = |relation: &str, counts: &str| -> Vec<String> {
        ["Insert", "Delete"]
            .map(|sign| format!("{relation}/{sign}: {counts}"))
            .to_vec()
    };
    let pairs = |rows: &[(&str, &str)]| -> Vec<String> {
        rows.iter().flat_map(|(r, c)| both(r, c)).collect()
    };
    let expected = |mode: CompileMode| -> [Vec<String>; 4] {
        match mode {
            CompileMode::HigherOrder => [
                pairs(&[("Lineitem", "4 → 3, 1"), ("Orders", "3 → 2, 1")]),
                pairs(&[
                    ("Lineitem", "19 → 6, 7"),
                    ("Customer", "10 → 2, 2"),
                    ("Orders", "23 → 8, 15"),
                ]),
                pairs(&[("Asks", "2 → 1, 0"), ("Bids", "6 → 3, 0")]),
                pairs(&[("Bids", "2 → 2, 0")]),
            ],
            CompileMode::FirstOrder => [
                pairs(&[("Lineitem", "3 → 2, 1"), ("Orders", "1 → 0, 1")]),
                pairs(&[
                    ("Lineitem", "6 → 2, 3"),
                    ("Customer", "3 → 0, 1"),
                    ("Orders", "4 → 0, 2"),
                ]),
                pairs(&[]),
                pairs(&[]),
            ],
            CompileMode::NaiveViewlet => [
                pairs(&[("Lineitem", "4 → 1, 1"), ("Orders", "3 → 0, 1")]),
                pairs(&[
                    ("Lineitem", "30 → 1, 12"),
                    ("Customer", "21 → 0, 4"),
                    ("Orders", "28 → 0, 24"),
                ]),
                pairs(&[]),
                pairs(&[("Bids", "3 → 1, 0")]),
            ],
            // Re-evaluation runs `:=` statements only: no kernel units.
            CompileMode::Reevaluate => [pairs(&[]), pairs(&[]), pairs(&[]), pairs(&[])],
        }
    };
    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
        CompileMode::Reevaluate,
    ] {
        let [durable, dash, book, nested] = expected(mode);
        assert_eq!(census(DURABLE, mode), durable, "tpch_durable [{mode}]");
        assert_eq!(census(DASH, mode), dash, "tpch_dash [{mode}]");
        assert_eq!(census(BOOK, mode), book, "book_join [{mode}]");
        assert_eq!(census(&["vwap"], mode), nested, "book_nested [{mode}]");
    }
}

/// The shared-table census: per relation of the benchmark's query sets, in
/// every compile mode, the key tables its sibling groups share (see the
/// compiler's `batch_delta` module): maps that one fused unit writes and
/// nothing reads or keeps apart are one table with a value column each.
/// `tpch_durable`'s and `tpch_dash`'s Lineitem keep q1's four maps as one
/// 4-column table; the order-book pairs carry ordered indexes their
/// kernels read, so `book_join` and `book_nested` have none. Every table is
/// a fused group of its relation, and every workload query alone derives.
#[test]
fn shared_table_census_per_compile_mode() {
    const DURABLE: &[&str] = &["q1", "q6", "q12"];
    const DASH: &[&str] = &["q1", "q3", "q6", "q10", "q12", "ssb4"];
    const BOOK: &[&str] = &["axf", "bsp", "bsv"];
    let census = |names: &[&str], mode: CompileMode| -> Vec<String> {
        let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
        for name in names {
            let q = workloads::query(name).unwrap();
            builder = builder.add_query(q.name, q.sql);
        }
        let engine = builder
            .build()
            .unwrap_or_else(|e| panic!("{names:?} [{mode}]: {e}"));
        let ex = explain(engine.program());
        let mut lines = Vec::new();
        for rel in &ex.relations {
            for table in &rel.shared {
                assert!(
                    rel.fused.iter().any(|u| &u.members == table),
                    "{names:?} [{mode}]: {table:?} is no fused group of {}",
                    rel.relation
                );
                lines.push(format!("{}: [{}]", rel.relation, table.join(", ")));
            }
        }
        lines
    };
    let q1 = || vec!["Lineitem: [q1_1, q1_2, q1_3, q1_4_cnt]".to_string()];
    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
        CompileMode::Reevaluate,
    ] {
        // Re-evaluation has no `+=` statements, so no sibling groups.
        let tpch = match mode {
            CompileMode::Reevaluate => Vec::new(),
            _ => q1(),
        };
        assert_eq!(census(DURABLE, mode), tpch, "tpch_durable [{mode}]");
        assert_eq!(census(DASH, mode), tpch, "tpch_dash [{mode}]");
        assert!(census(BOOK, mode).is_empty(), "book_join [{mode}]");
        assert!(census(&["vwap"], mode).is_empty(), "book_nested [{mode}]");
        for q in workloads::all_queries() {
            let want = if q.name == "q1" {
                tpch.clone()
            } else {
                Vec::new()
            };
            assert_eq!(census(&[q.name], mode), want, "{} [{mode}]", q.name);
        }
    }
}
