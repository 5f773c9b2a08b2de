//! Shard-count equivalence: partitioned execution must be invisible.
//!
//! Property: for any event stream, any partition of it into ingest batches,
//! and any shard count N ∈ {1, 2, 4, 8}, [`ShardedEngine`]'s merged views are
//! **bit-exactly** equal to a per-event single [`Engine`], to the 1-shard
//! sharded engine and to every map's definition recomputed from the final
//! base relations (the shared [`common::Recompute`] oracle) — in all four
//! compile modes. Streams are integer-weighted, which is the
//! regime where every merge class (disjoint union for partitioned maps, GMR
//! addition for summed scalars) is exact in f64; duplicate keys and
//! insert/delete cancellations are generated on purpose. On the generated
//! workload data (float prices) the contract is per map class: only a summed
//! map may differ in bits, by at most 1e-9 relative
//! (`workload_queries_merge_exactly_across_shard_counts`).
//!
//! The query sets exercise both shard plans: a co-partitionable set (join and
//! group-by keyed on the shared column → every map shard-local, no exchange
//! executor) and a forced cross-shard set (self-join with no shared variable →
//! no co-partitioning exists, the exchange executor must carry the result).
//! A coverage guard at the bottom pins the same split onto the real workload
//! queries so the property suite can't silently drift into testing only one
//! plan shape.

mod common;

use common::Recompute;
use dbtoaster::agca::{CmpOp, Expr, UpdateEvent};
use dbtoaster::compiler::{compile, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta};
use dbtoaster::gmr::Value;
use dbtoaster::runtime::{Engine, ShardedEngine};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

fn catalog() -> Catalog {
    [
        RelationMeta::stream("R", ["A", "B"]),
        RelationMeta::stream("S", ["B", "C"]),
    ]
    .into_iter()
    .collect()
}

/// Queries whose every map can live on one shard: the join and the group-by
/// are keyed on the shared column `b`, so hash-partitioning both R and S on
/// `b` makes them fully local; the scalar totals merge by GMR addition.
fn local_queries() -> Vec<QuerySpec> {
    vec![
        // Scalar join aggregate (summed merge class).
        QuerySpec {
            name: "TOTAL".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("S", ["b", "c"]),
                    Expr::var("c"),
                ]),
            ),
        },
        // Group-by on the partition column with a comparison filter.
        QuerySpec {
            name: "PER_B".into(),
            out_vars: vec!["b".into()],
            expr: Expr::agg_sum(
                ["b"],
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::cmp(CmpOp::Le, Expr::var("a"), Expr::var("b")),
                    Expr::var("a"),
                ]),
            ),
        },
        // Group-by join keyed on the join column: co-partitioned on `b`.
        QuerySpec {
            name: "JOINB".into(),
            out_vars: vec!["b".into()],
            expr: Expr::agg_sum(
                ["b"],
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("S", ["b", "c"])]),
            ),
        },
    ]
}

/// A self-join with **no** shared variable between the two R atoms: no
/// hash-partitioning of R can co-locate every contributing pair, so the
/// shardability analysis must fall back to the exchange executor.
fn cross_queries() -> Vec<QuerySpec> {
    vec![QuerySpec {
        name: "CROSS".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::rel("R", ["a2", "b2"]),
                Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("a2")),
            ]),
        ),
    }]
}

/// Deterministic stream generator (same LCG as `batch_equivalence.rs`):
/// inserts and deletes over small integer domains, deletes drawn from the
/// live multiset so multiplicities never go negative.
fn random_stream(seed: u64, len: usize) -> Vec<UpdateEvent> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut live_r: Vec<Vec<Value>> = Vec::new();
    let mut live_s: Vec<Vec<Value>> = Vec::new();
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let relation_r = next(2) == 0;
        let (live, rel) = if relation_r {
            (&mut live_r, "R")
        } else {
            (&mut live_s, "S")
        };
        let delete = !live.is_empty() && next(100) < 35;
        if delete {
            let i = next(live.len() as u64) as usize;
            let tuple = live.swap_remove(i);
            out.push(UpdateEvent::delete(rel, tuple));
        } else {
            let tuple: Vec<Value> = (0..2).map(|_| Value::long(next(6) as i64)).collect();
            live.push(tuple.clone());
            out.push(UpdateEvent::insert(rel, tuple));
        }
    }
    out
}

/// Split a stream at random boundaries into the ingest batches handed to
/// `process_events` (possibly all singletons, possibly one huge batch).
fn random_chunks(events: &[UpdateEvent], seed: u64) -> Vec<&[UpdateEvent]> {
    let mut state = seed.wrapping_mul(0xd1342543de82ef95).wrapping_add(7);
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let style = next(4);
    let mut chunks = Vec::new();
    let mut lo = 0usize;
    for i in 0..events.len() {
        let cut = match style {
            0 => next(4) == 0,               // geometric, mean ~4
            1 => (i + 1).is_multiple_of(64), // fixed 64
            2 => true,                       // per-event
            _ => next(100) < 2,              // huge batches
        };
        if cut {
            chunks.push(&events[lo..=i]);
            lo = i + 1;
        }
    }
    if lo < events.len() {
        chunks.push(&events[lo..]);
    }
    chunks
}

/// The complete list of view names the full program maintains.
fn view_names(reference: &Engine) -> Vec<String> {
    let program = reference.program();
    let mut names: Vec<String> = program.maps.iter().map(|m| m.name.clone()).collect();
    names.extend(program.stored_relations.iter().cloned());
    names.extend(program.static_tables.iter().cloned());
    names.sort_unstable();
    names.dedup();
    names
}

/// Every merged view of `sharded` must equal the per-event reference, bit for
/// bit (eps 0.0; `Gmr::equivalent` unions keys, so zero-entry retention
/// differences between a merged union and a single map cannot mask a gap).
fn assert_merged_matches(reference: &Engine, sharded: &ShardedEngine, ctx: &str) {
    let names = view_names(reference);
    assert!(!names.is_empty(), "{ctx}: no maps to compare");
    for name in names {
        match (reference.view(&name), sharded.merged_view(&name)) {
            (Some(ga), Some(gb)) => assert!(
                ga.equivalent(&gb, 0.0),
                "{ctx}: view {name} diverges\nper-event:\n{ga}\nsharded:\n{gb}"
            ),
            (None, None) => {}
            (a, b) => panic!(
                "{ctx}: view {name} present in only one engine (reference: {}, sharded: {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

fn run_sharded(
    program: &dbtoaster::compiler::TriggerProgram,
    cat: &Catalog,
    n: usize,
    chunks: &[&[UpdateEvent]],
    ctx: &str,
) -> ShardedEngine {
    let mut sharded = ShardedEngine::new(program.clone(), cat, n);
    for chunk in chunks {
        let report = sharded.process_events(chunk);
        assert!(
            report.first_error.is_none(),
            "{ctx}: {:?}",
            report.first_error
        );
    }
    sharded
}

/// The core property check: per-event reference vs 1-shard vs N-shard, over
/// the same random stream and the same random batch boundaries, and each
/// merged state against the recomputed definitions.
fn check_case(
    specs: &[QuerySpec],
    mode: CompileMode,
    seed: u64,
    len: usize,
    expect_executor: Option<bool>,
) {
    let cat = catalog();
    let program = compile(specs, &cat, &CompileOptions::for_mode(mode))
        .unwrap_or_else(|e| panic!("compile [{mode}]: {e}"));
    let events = random_stream(seed, len);
    let chunks = random_chunks(&events, seed ^ 0xabcdef);
    let oracle = Recompute::new(&cat, &Default::default(), &events);

    let mut reference = Engine::new(program.clone(), &cat);
    reference
        .process_all(&events)
        .unwrap_or_else(|e| panic!("per-event [{mode}]: {e}"));

    let ctx = format!("seed {seed} [{mode}/1-shard]");
    let single = run_sharded(&program, &cat, 1, &chunks, &ctx);
    assert_merged_matches(&reference, &single, &ctx);
    oracle.check(&ctx, &program, &|m| single.merged_view(m), 0.0);

    for n in SHARD_COUNTS {
        let ctx = format!("seed {seed} [{mode}/{n}-shard]");
        let sharded = run_sharded(&program, &cat, n, &chunks, &ctx);
        if let Some(want) = expect_executor {
            assert_eq!(
                sharded.has_executor(),
                want,
                "{ctx}: unexpected shard plan (executor)"
            );
        }
        assert_eq!(sharded.events(), events.len() as u64, "{ctx}: event count");
        // Bit-exact against the per-event engine...
        assert_merged_matches(&reference, &sharded, &ctx);
        // ...and directly against the 1-shard engine, name by name.
        for name in view_names(&reference) {
            let (g1, gn) = (single.merged_view(&name), sharded.merged_view(&name));
            match (g1, gn) {
                (Some(g1), Some(gn)) => assert!(
                    g1.equivalent(&gn, 0.0),
                    "{ctx}: view {name} diverges from 1-shard\n1-shard:\n{g1}\n{n}-shard:\n{gn}"
                ),
                (None, None) => {}
                _ => panic!("{ctx}: view {name} present at only one shard count"),
            }
        }
        oracle.check(&ctx, &program, &|m| sharded.merged_view(m), 0.0);
    }
}

/// The local query set must actually compile to an executor-free plan, and the
/// cross query must actually force the exchange executor (with real exchange
/// traffic) — otherwise the property tests above silently degenerate.
#[test]
fn query_sets_span_both_shard_plans() {
    let cat = catalog();
    let opts = CompileOptions::for_mode(CompileMode::HigherOrder);
    let local = compile(&local_queries(), &cat, &opts).unwrap();
    let mut sharded = ShardedEngine::new(local, &cat, 4);
    assert!(
        !sharded.has_executor(),
        "co-partitioned query set must be fully shard-local: {:?}",
        sharded.plan()
    );
    let events = random_stream(11, 200);
    let report = sharded.process_events(&events);
    assert!(report.first_error.is_none());
    assert_eq!(
        sharded.exchange_stats().bytes,
        0,
        "local plan must not ship"
    );

    let cross = compile(&cross_queries(), &cat, &opts).unwrap();
    let mut sharded = ShardedEngine::new(cross, &cat, 4);
    assert!(
        sharded.has_executor(),
        "no-shared-variable self-join must force the exchange executor: {:?}",
        sharded.plan()
    );
    let report = sharded.process_events(&events);
    assert!(report.first_error.is_none());
    assert!(
        sharded.exchange_stats().bytes > 0,
        "exchange plan must account interchange traffic"
    );
}

/// The real workload queries must cover both plan shapes too: at least one
/// fully shard-local query and at least one that exchanges.
#[test]
fn workload_queries_span_both_shard_plans() {
    use dbtoaster::prelude::*;
    let sql_catalog = dbtoaster::workloads::full_catalog();
    let cat = dbtoaster::to_compiler_catalog(&sql_catalog);
    let (mut local, mut exchanging) = (Vec::new(), Vec::new());
    for q in dbtoaster::workloads::all_queries() {
        let engine = QueryEngineBuilder::new(sql_catalog.clone())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap_or_else(|e| panic!("compile workload {}: {e}", q.name));
        let sharded = ShardedEngine::new(engine.program().clone(), &cat, 2);
        if sharded.has_executor() {
            exchanging.push(q.name);
        } else {
            local.push(q.name);
        }
    }
    assert!(
        !local.is_empty(),
        "no workload query is fully shard-local (exchanging: {exchanging:?})"
    );
    assert!(
        !exchanging.is_empty(),
        "no workload query exercises the exchange executor (local: {local:?})"
    );
}

/// Workload queries over generated workload data (float prices, static
/// tables loaded): the merged maps at N ∈ {1, 2, 4} shards equal one engine
/// fed the same batches of 256. The float contract, per map: bits may differ
/// only for a [`MapClass::Summed`] map, whose merge adds per-shard partial
/// sums in a different order than one engine does, and then by at most 1e-9
/// relative. Every other class is a disjoint union, a copy, or the
/// executor's full-stream map, and must be bit-exact. (On this stream only
/// `q1`'s summed aggregates drift, at 2 and 4 shards.)
///
/// [`MapClass::Summed`]: dbtoaster::compiler::MapClass::Summed
#[test]
fn workload_queries_merge_exactly_across_shard_counts() {
    use dbtoaster::agca::DeltaBatch;
    use dbtoaster::compiler::MapClass;
    use dbtoaster::prelude::*;
    const BATCH: usize = 256;
    const PREFIX: usize = 2_000;
    let sql_catalog = dbtoaster::workloads::full_catalog();
    let cat = dbtoaster::to_compiler_catalog(&sql_catalog);
    for name in ["q1", "q3", "q6", "vwap", "axf"] {
        let q = dbtoaster::workloads::query(name).unwrap();
        let data = dbtoaster::workloads::dataset_for(q.family, PREFIX, 42);
        let events = &data.events;
        let program = QueryEngineBuilder::new(sql_catalog.clone())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap()
            .program()
            .clone();

        let mut reference = Engine::new(program.clone(), &cat);
        for (table, rows) in &data.tables {
            reference.load_table(table, rows.iter().cloned());
        }
        reference.init_static_views().unwrap();
        for chunk in events.chunks(BATCH) {
            let report = reference.process_batch(&DeltaBatch::from_events(chunk));
            assert!(report.first_error.is_none(), "{name}: {report:?}");
        }
        for r in &program.results {
            let result = reference.result(&r.name).unwrap();
            assert!(!result.is_empty(), "{name}: result {} is empty", r.name);
        }

        for n in [1usize, 2, 4] {
            let ctx = format!("{name} [{n}-shard]");
            let mut sharded = ShardedEngine::new(program.clone(), &cat, n);
            for (table, rows) in &data.tables {
                sharded.load_table(table, rows);
            }
            sharded.init_static_views().unwrap();
            for chunk in events.chunks(BATCH) {
                let report = sharded.process_events(chunk);
                assert!(report.first_error.is_none(), "{ctx}: {report:?}");
            }
            for view in view_names(&reference) {
                let (want, got) = match (reference.view(&view), sharded.merged_view(&view)) {
                    (Some(w), Some(g)) => (w, g),
                    (None, None) => continue,
                    (w, g) => panic!(
                        "{ctx}: view {view} present in only one engine \
                         (reference: {}, sharded: {})",
                        w.is_some(),
                        g.is_some()
                    ),
                };
                let class = sharded.plan().class(&view);
                for key in want.iter().chain(got.iter()).map(|(t, _)| t) {
                    let (w, g) = (want.get(key), got.get(key));
                    if w.to_bits() == g.to_bits() || (w == 0.0 && g == 0.0) {
                        continue;
                    }
                    assert_eq!(
                        class,
                        MapClass::Summed,
                        "{ctx}: {view}[{key:?}] = {g} merged vs {w} in one engine, \
                         and a {class:?} map must be bit-exact"
                    );
                    assert!(
                        (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                        "{ctx}: summed {view}[{key:?}] = {g} merged vs {w} in one engine"
                    );
                }
            }
        }
    }
}

/// Ordered secondary indexes are declared from the kernels of whatever
/// program an engine runs, so every slice of a sharded program — `bsp`'s
/// shard-local slices, `axf`'s exchange executor — must come out with the
/// indexes of the maps it keeps: the merged views equal the unsharded engine
/// bit for bit, and each slice's index holds exactly its map's entries.
#[test]
fn ordered_indexes_survive_shard_slicing() {
    use dbtoaster::prelude::*;
    let sql_catalog = dbtoaster::workloads::full_catalog();
    let cat = dbtoaster::to_compiler_catalog(&sql_catalog);
    let events = dbtoaster::workloads::finance::generate(&dbtoaster::workloads::FinanceConfig {
        events: 3_000,
        seed: 9,
        ..Default::default()
    })
    .events;
    for (name, exchanges) in [("bsp", false), ("axf", true)] {
        let q = dbtoaster::workloads::query(name).unwrap();
        let program = QueryEngineBuilder::new(sql_catalog.clone())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap()
            .program()
            .clone();
        let declared = program.ordered_indexes();
        assert!(!declared.is_empty(), "{name}: nothing to survive");
        let mut reference = Engine::new(program.clone(), &cat);
        reference.process_all(&events).unwrap();

        let mut sharded = ShardedEngine::new(program.clone(), &cat, 2);
        assert_eq!(sharded.has_executor(), exchanges, "{name}");
        for chunk in events.chunks(97) {
            assert!(sharded.process_events(chunk).first_error.is_none());
        }
        assert_merged_matches(&reference, &sharded, name);
        Recompute::new(&cat, &Default::default(), &events).check(
            name,
            &program,
            &|m| sharded.merged_view(m),
            0.0,
        );

        let (shards, executor, _, _) = sharded.into_parts();
        let mut indexed = 0;
        for mut engine in shards.into_iter().chain(executor) {
            let ex = engine.explain();
            for m in &ex.maps {
                let live = m.analyze.expect("a live engine attaches its indexes");
                let entries = engine.view(&m.name).unwrap().len() as u64;
                assert_eq!(
                    (live.hash, live.ordered, live.entries),
                    (0, 1, entries),
                    "{name}: {}",
                    m.name
                );
                indexed += entries;
            }
        }
        let total: usize = declared
            .iter()
            .map(|d| reference.view(&d.map).unwrap().len())
            .sum();
        assert_eq!(
            indexed, total as u64,
            "{name}: entries under ordered indexes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Co-partitioned queries: N shards ≡ 1 shard ≡ per-event ≡ recomputed,
    /// all modes.
    #[test]
    fn local_plans_are_bit_exact_across_shard_counts(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            check_case(&local_queries(), mode, seed, 240, None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forced cross-shard query: the exchange executor must carry the result
    /// bit-exactly at every shard count. (Quadratic in |R| — shorter streams.)
    #[test]
    fn exchange_plans_are_bit_exact_across_shard_counts(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            check_case(&cross_queries(), mode, seed, 120, Some(true));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Mixed program: local and cross queries compiled together share one
    /// shard plan (executor present for the cross map, partitioned maps still
    /// merged from the shards) — the merge must stay exact per map class.
    #[test]
    fn mixed_programs_are_bit_exact_across_shard_counts(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        let mut specs = local_queries();
        specs.extend(cross_queries());
        check_case(&specs, CompileMode::HigherOrder, seed, 160, Some(true));
    }
}
