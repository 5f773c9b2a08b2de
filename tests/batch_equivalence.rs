//! Batch-partition equivalence: the batch-first processing spine must be a
//! pure refactoring of event-at-a-time processing.
//!
//! Property: for any event stream and **any** partition of it into delta
//! batches, `Engine::process_batch` over the partition produces final view
//! maps **bit-exactly** equal to `Engine::process` over the events one at a
//! time — in all four compile modes, on the compiled-kernel path and with the
//! interpreter forced, and under every forced batch strategy (the batch-delta
//! default, the pre-batch-delta statement-major dispatch, and the entry-major
//! oracle). Streams are integer-weighted (all arithmetic exact in f64), which
//! is exactly the regime where the ring-linearity argument of
//! `dbtoaster_agca::batch` promises bit equality; duplicate keys and
//! insert/delete cancellations inside one batch are generated on purpose.
//!
//! The query set spans all three batch strategies: linear aggregates and
//! group-bys (batch-delta with no run-linear part, statement-major when
//! batch-delta is disabled), a quadratic self-join whose intra-batch
//! interaction is carried by the overlay pass, a stream-scaled self-join
//! whose overlay pass also reads another stream's stored slice, and a
//! nested-aggregate shape. The order-book section drives the workload's own
//! self-join queries — `bsp` alone and `axf+bsp+bsv` in one engine, the
//! program the `book_join` benchmark serves — at the served batch sizes, and
//! pins the work a batch does (entries scanned) at or below its events'.

use dbtoaster::agca::{CmpOp, DeltaBatch, Expr, UpdateEvent};
use dbtoaster::compiler::{
    compile, BatchStrategy, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta,
};
use dbtoaster::gmr::Value;
use dbtoaster::runtime::Engine;
use proptest::prelude::*;

fn catalog() -> Catalog {
    [
        RelationMeta::stream("R", ["A", "B"]),
        RelationMeta::stream("S", ["B", "C"]),
    ]
    .into_iter()
    .collect()
}

/// The query shapes under test (see module docs).
fn queries() -> Vec<QuerySpec> {
    vec![
        // Linear scalar join aggregate (batch-delta in HO mode).
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
        // Group-by with a comparison filter.
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
        // Self-join: quadratic in R. The statement reads the auxiliary map its
        // own run writes; the overlay pass covers that intra-batch interaction
        // exactly, so this is batch-delta eligible.
        QuerySpec {
            name: "SELFJ".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("R", ["a2", "b"])]),
            ),
        },
        // Self-join scaled by a second stream: quadratic in R, and the second
        // delta w.r.t. R keeps a live S atom — a *stream*, not a static
        // table. S is constant during an R-run (runs are per-relation), so
        // the derivation still succeeds: batch-delta, with run-linear parts
        // whose non-run-written reads pass through to the pre-run store.
        QuerySpec {
            name: "SCALED".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("R", ["a2", "b"]),
                    Expr::rel("S", ["b", "c"]),
                ]),
            ),
        },
    ]
}

/// A nested-aggregate query (compiled separately: its re-evaluation statements
/// exercise the once-per-run `:=` phase).
fn nested_query() -> QuerySpec {
    let inner = Expr::agg_sum(
        Vec::<String>::new(),
        Expr::product_of([Expr::rel("S", ["b2", "c"]), Expr::var("c")]),
    );
    QuerySpec {
        name: "NESTED".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::lift("z", inner),
                Expr::cmp(CmpOp::Lt, Expr::var("b"), Expr::var("z")),
            ]),
        ),
    }
}

/// Deterministic stream generator: inserts and deletes over small integer
/// domains, with deletes drawn from the live multiset so multiplicities never
/// go negative and same-key cancellations are common.
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
        let (live, rel, arity) = if relation_r {
            (&mut live_r, "R", 2)
        } else {
            (&mut live_s, "S", 2)
        };
        let delete = !live.is_empty() && next(100) < 35;
        if delete {
            let i = next(live.len() as u64) as usize;
            let tuple = live.swap_remove(i);
            out.push(UpdateEvent::delete(rel, tuple));
        } else {
            let tuple: Vec<Value> = (0..arity).map(|_| Value::long(next(6) as i64)).collect();
            live.push(tuple.clone());
            out.push(UpdateEvent::insert(rel, tuple));
        }
    }
    out
}

/// Split a stream into batches at random boundaries (possibly one big batch,
/// possibly all singletons).
fn random_partition(events: &[UpdateEvent], seed: u64) -> Vec<DeltaBatch> {
    let mut state = seed.wrapping_mul(0xd1342543de82ef95).wrapping_add(7);
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let style = next(3);
    let mut batches = Vec::new();
    let mut current = DeltaBatch::new();
    for (i, e) in events.iter().enumerate() {
        current.push(e);
        let cut = match style {
            0 => next(4) == 0,               // geometric, mean ~4
            1 => (i + 1).is_multiple_of(64), // fixed 64
            _ => next(100) < 2,              // huge batches
        };
        if cut {
            batches.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// Every maintained map (views + stored relations) of `a` must equal `b`'s,
/// bit for bit.
fn assert_engines_identical(a: &Engine, b: &Engine, ctx: &str) {
    let mut names: Vec<String> = a.program().maps.iter().map(|m| m.name.clone()).collect();
    names.extend(a.program().stored_relations.iter().cloned());
    names.extend(a.program().static_tables.iter().cloned());
    assert!(!names.is_empty(), "{ctx}: no maps to compare");
    for name in names {
        let (va, vb) = (a.view(&name), b.view(&name));
        match (va, vb) {
            (Some(ga), Some(gb)) => assert!(
                ga.equivalent(&gb, 0.0),
                "{ctx}: view {name} diverges\nper-event:\n{ga}\nbatched:\n{gb}"
            ),
            (None, None) => {}
            _ => panic!("{ctx}: view {name} present in only one engine"),
        }
    }
}

fn check_case(
    specs: &[QuerySpec],
    mode: CompileMode,
    force_interp: bool,
    force_strategy: Option<BatchStrategy>,
    seed: u64,
) {
    check_case_n(specs, mode, force_interp, force_strategy, seed, 300);
}

fn check_case_n(
    specs: &[QuerySpec],
    mode: CompileMode,
    force_interp: bool,
    force_strategy: Option<BatchStrategy>,
    seed: u64,
    len: usize,
) {
    let program = compile(specs, &catalog(), &CompileOptions::for_mode(mode))
        .unwrap_or_else(|e| panic!("compile [{mode}]: {e}"));
    let events = random_stream(seed, len);
    let batches = random_partition(&events, seed ^ 0xabcdef);

    let reference = per_event_engine(&program, &catalog(), force_interp, &events);
    let batched = batched_engine(&program, &catalog(), force_interp, force_strategy, &batches);
    assert_eq!(batched.stats().events, reference.stats().events);

    // Forcing must actually disable the disallowed strategies.
    let stats = batched.stats();
    match force_strategy {
        Some(BatchStrategy::EntryMajor) => {
            assert_eq!(stats.batch_delta_runs, 0, "[{mode}] forced entry-major");
            assert_eq!(stats.statement_major_runs, 0, "[{mode}] forced entry-major");
        }
        Some(BatchStrategy::StatementMajor) => {
            assert_eq!(stats.batch_delta_runs, 0, "[{mode}] batch-delta disabled");
        }
        Some(BatchStrategy::BatchDelta) | None => {}
    }

    let path = if force_interp { "interp" } else { "compiled" };
    let strat = force_strategy.map_or("auto", |s| s.as_str());
    assert_engines_identical(
        &reference,
        &batched,
        &format!("seed {seed} [{mode}/{path}/{strat}]"),
    );
}

/// Guard the suite's own premise: the HO-compiled query set must exercise
/// batch-delta (including the stream-scaled self-join, whose second delta
/// keeps a surviving stream atom), the entry-major fallback must still exist for
/// genuinely ineligible shapes, and disabling batch-delta must reveal the
/// legacy statement-major dispatch.
#[test]
fn query_set_spans_all_batch_strategies() {
    let program = compile(
        &queries(),
        &catalog(),
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let dispatch = program.batch_dispatch();
    assert!(
        dispatch
            .iter()
            .any(|d| d.strategy == BatchStrategy::BatchDelta),
        "linear queries should derive batch-delta somewhere: {dispatch:?}"
    );
    assert!(
        dispatch
            .iter()
            .all(|d| d.strategy == BatchStrategy::BatchDelta),
        "the stream-scaled self-join's surviving S atom now reads stored \
         pre-run state, so every relation here is batch-delta: {dispatch:?}"
    );
    // A cubic self-join has a nonzero *third* delta — permanently ineligible
    // for batch-delta, so entry-major survives as the exact fallback. (Compiled only: the cubic per-event path is a known latent
    // bug, see ROADMAP residue (c).)
    let cubic = compile(
        &[QuerySpec {
            name: "CUBIC".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("R", ["a2", "b"]),
                    Expr::rel("R", ["a3", "b"]),
                ]),
            ),
        }],
        &catalog(),
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    assert!(
        cubic
            .batch_dispatch()
            .iter()
            .any(|d| d.strategy == BatchStrategy::EntryMajor),
        "a cubic self-join must keep the entry-major fallback: {:?}",
        cubic.batch_dispatch()
    );
    // Forcing statement-major recovers the pre-batch-delta dispatch.
    let legacy = program.batch_dispatch_forced(Some(BatchStrategy::StatementMajor));
    assert!(
        legacy
            .iter()
            .all(|d| d.strategy != BatchStrategy::BatchDelta),
        "forced statement-major must disable batch-delta: {legacy:?}"
    );
    assert!(
        legacy
            .iter()
            .any(|d| d.strategy == BatchStrategy::StatementMajor),
        "linear queries should allow statement-major somewhere: {legacy:?}"
    );
    // Forcing entry-major is the oracle: everything entry-major.
    let oracle = program.batch_dispatch_forced(Some(BatchStrategy::EntryMajor));
    assert!(
        oracle
            .iter()
            .all(|d| d.strategy == BatchStrategy::EntryMajor),
        "forced entry-major must cover every relation: {oracle:?}"
    );
}

/// Coverage guard for the batch benchmark sweep: every query it measures must
/// dispatch batch-delta on all of its stream relations in higher-order mode —
/// if one regresses to a fallback strategy, the sweep silently stops
/// measuring the batch-delta path (and, for `bsp`/`bsv`, its overlay pass). (Other workload queries — e.g. the
/// EXISTS-correlated TPC-H q4 — legitimately stay on the fallbacks.)
#[test]
fn batch_sweep_queries_dispatch_batch_delta() {
    use dbtoaster::prelude::*;
    for name in ["q1", "q3", "q6", "axf", "bsp", "bsv"] {
        let q = dbtoaster::workloads::query(name).unwrap();
        let engine = QueryEngineBuilder::new(dbtoaster::workloads::full_catalog())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap_or_else(|e| panic!("compile workload {}: {e}", q.name));
        let dispatch = engine.program().batch_dispatch();
        assert!(!dispatch.is_empty(), "{}: no stream relations", q.name);
        for d in &dispatch {
            assert_eq!(
                d.strategy,
                BatchStrategy::BatchDelta,
                "workload {} relation {} lost batch-delta dispatch",
                q.name,
                d.relation
            );
        }
    }
}

/// Regression twin of the trigger-variable-capture tests in
/// `plan_equivalence.rs`: self-join chains whose auxiliary maps are keyed by
/// trigger variables (the alpha-renamed `{map}@@k{i}` columns). The R×R×R
/// cubic chain used to panic at compile time and the R·S·R path chain used to
/// diverge; here they must additionally stay bit-exact under every batch
/// partition and every forced batch strategy. Streams are short — the cubic
/// query is cubic in |R| and runs under Reevaluate + interpreter too.
fn chain_queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            name: "PATH".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("S", ["b", "c"]),
                    Expr::rel("R", ["c", "d"]),
                ]),
            ),
        },
        QuerySpec {
            name: "CUBIC".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("R", ["b", "c"]),
                    Expr::rel("R", ["c", "d"]),
                ]),
            ),
        },
    ]
}

#[test]
fn trigger_variable_chains_batch_bit_exact_all_modes() {
    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
        CompileMode::Reevaluate,
    ] {
        for force_interp in [false, true] {
            check_case_n(&chain_queries(), mode, force_interp, None, 7, 80);
        }
    }
}

#[test]
fn trigger_variable_chains_batch_bit_exact_forced_strategies() {
    for force in [
        Some(BatchStrategy::EntryMajor),
        Some(BatchStrategy::StatementMajor),
        Some(BatchStrategy::BatchDelta),
    ] {
        for force_interp in [false, true] {
            check_case_n(
                &chain_queries(),
                CompileMode::HigherOrder,
                force_interp,
                force,
                3,
                80,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_partitions_are_bit_exact(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            for force_interp in [false, true] {
                check_case(&queries(), mode, force_interp, None, seed);
            }
        }
    }

    #[test]
    fn nested_aggregates_random_partitions_are_bit_exact(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            for force_interp in [false, true] {
                check_case(std::slice::from_ref(&nested_query()), mode, force_interp, None, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same property under every forced batch strategy: the entry-major
    /// oracle, the legacy statement-major dispatch, and explicit batch-delta
    /// (which equals the automatic choice) must all stay bit-exact with
    /// per-event processing.
    #[test]
    fn forced_strategies_are_bit_exact(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for force in [
            Some(BatchStrategy::EntryMajor),
            Some(BatchStrategy::StatementMajor),
            Some(BatchStrategy::BatchDelta),
        ] {
            for mode in [
                CompileMode::HigherOrder,
                CompileMode::FirstOrder,
                CompileMode::NaiveViewlet,
                CompileMode::Reevaluate,
            ] {
                for force_interp in [false, true] {
                    check_case(&queries(), mode, force_interp, force, seed);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Order-book self-joins: the workload's own quadratic queries
// ---------------------------------------------------------------------------

/// The compiled program (and its catalog) for a set of workload queries in
/// one engine, through the SQL front end.
fn book_program(
    names: &[&str],
    mode: CompileMode,
) -> (dbtoaster::compiler::TriggerProgram, Catalog) {
    let catalog = dbtoaster::workloads::full_catalog();
    let mut b = dbtoaster::QueryEngineBuilder::new(catalog.clone());
    for name in names {
        let q = dbtoaster::workloads::query(name).unwrap();
        b = b.add_query(q.name, q.sql);
    }
    let program = b
        .mode(mode)
        .build()
        .unwrap_or_else(|e| panic!("compile {names:?} [{mode}]: {e}"))
        .program()
        .clone();
    (program, dbtoaster::to_compiler_catalog(&catalog))
}

/// One order: `(t, id, broker_id, price, volume)`, typed like the workload
/// generator's. Prices are multiples of 500 around axfinder's 1000 band and
/// everything is a small integer, so every aggregate of `axf`, `bsp` and
/// `bsv` (whose 0.5 factor is a power of two) is exact in f64.
fn order(t: i64, id: i64, broker: i64, price: i64, volume: i64) -> Vec<Value> {
    vec![
        Value::long(t),
        Value::long(id),
        Value::long(broker),
        Value::double((price * 500) as f64),
        Value::double(volume as f64),
    ]
}

/// Deterministic order-book stream over `Bids`/`Asks`: timestamps shared by
/// neighbouring orders (so `x.t > y.t` has ties), three brokers, deletes drawn
/// from the live multiset — often the order just placed, which cancels inside
/// its batch — and occasional re-inserts of a live order (a repeated key,
/// net multiplicity 2 in its run).
fn book_stream(seed: u64, len: usize) -> Vec<UpdateEvent> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(11);
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut live: [Vec<Vec<Value>>; 2] = [Vec::new(), Vec::new()];
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let side = next(2) as usize;
        let rel = ["Bids", "Asks"][side];
        let book = &mut live[side];
        let roll = next(100);
        if roll < 30 && !book.is_empty() {
            let idx = if next(3) == 0 {
                book.len() - 1
            } else {
                next(book.len() as u64) as usize
            };
            out.push(UpdateEvent::delete(rel, book.swap_remove(idx)));
        } else if roll < 36 && !book.is_empty() {
            let again = book[next(book.len() as u64) as usize].clone();
            book.push(again.clone());
            out.push(UpdateEvent::insert(rel, again));
        } else {
            let tuple = order(
                (i / 2) as i64,
                i as i64,
                next(3) as i64,
                next(8) as i64,
                1 + next(9) as i64,
            );
            book.push(tuple.clone());
            out.push(UpdateEvent::insert(rel, tuple));
        }
    }
    out
}

fn fixed_partition(events: &[UpdateEvent], size: usize) -> Vec<DeltaBatch> {
    events.chunks(size).map(DeltaBatch::from_events).collect()
}

fn per_event_engine(
    program: &dbtoaster::compiler::TriggerProgram,
    catalog: &Catalog,
    force_interp: bool,
    events: &[UpdateEvent],
) -> Engine {
    let mut reference = Engine::new(program.clone(), catalog);
    reference.set_force_interpreter(force_interp);
    reference
        .process_all(events)
        .unwrap_or_else(|e| panic!("per-event: {e}"));
    reference
}

fn batched_engine(
    program: &dbtoaster::compiler::TriggerProgram,
    catalog: &Catalog,
    force_interp: bool,
    force_strategy: Option<BatchStrategy>,
    batches: &[DeltaBatch],
) -> Engine {
    let mut batched = Engine::new(program.clone(), catalog);
    batched.set_force_interpreter(force_interp);
    batched.set_force_batch_strategy(force_strategy);
    for b in batches {
        let report = batched.process_batch(b);
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
    }
    batched
}

/// `bsp` alone and `axf+bsp+bsv` in one engine, at the batch sizes the batch
/// sweep and the server use and over random partitions, in all four compile
/// modes, compiled and interpreted, under every strategy override: bit-exact
/// against per-event processing. Re-evaluation mode recomputes a quadratic
/// join per event, so it gets a shorter stream.
#[test]
fn order_book_self_joins_batch_bit_exact() {
    const BOOK_SEED: u64 = 20120826;
    for names in [&["bsp"][..], &["axf", "bsp", "bsv"][..]] {
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let len = if mode == CompileMode::Reevaluate {
                140
            } else {
                700
            };
            let events = book_stream(BOOK_SEED, len);
            let (program, catalog) = book_program(names, mode);
            let mut partitions: Vec<(String, Vec<DeltaBatch>)> = [1usize, 8, 64, 512]
                .into_iter()
                .map(|n| (format!("batch {n}"), fixed_partition(&events, n)))
                .collect();
            for seed in [3u64, 4, 5] {
                partitions.push((format!("random {seed}"), random_partition(&events, seed)));
            }
            for force_interp in [false, true] {
                let reference = per_event_engine(&program, &catalog, force_interp, &events);
                for force in [
                    None,
                    Some(BatchStrategy::StatementMajor),
                    Some(BatchStrategy::EntryMajor),
                ] {
                    for (label, batches) in &partitions {
                        let batched =
                            batched_engine(&program, &catalog, force_interp, force, batches);
                        assert_eq!(batched.stats().events, events.len() as u64);
                        if mode == CompileMode::HigherOrder && force.is_none() {
                            // The dispatch is static: nothing re-routes a run.
                            assert_eq!(batched.stats().entry_major_runs, 0, "{names:?} {label}");
                            assert_eq!(batched.stats().statement_major_runs, 0);
                        }
                        let path = if force_interp { "interp" } else { "compiled" };
                        let strat = force.map_or("auto", |s| s.as_str());
                        assert_engines_identical(
                            &reference,
                            &batched,
                            &format!("{names:?} {label} [{mode}/{path}/{strat}]"),
                        );
                    }
                }
            }
        }
    }
}

/// The three run shapes the overlay pass has to get right, planted in one
/// `Bids` run: a repeated key (net multiplicity ±2 — the firing's second
/// repetition must see the first), an insert-then-delete that cancels inside
/// the run (fires nothing, feeds the overlay nothing), and mixed signs
/// (delete-trigger rows interleaved with insert-trigger rows in entry order).
#[test]
fn order_book_planted_runs_batch_bit_exact() {
    let prefix = vec![
        UpdateEvent::insert("Bids", order(1, 1, 0, 2, 3)),
        UpdateEvent::insert("Bids", order(2, 2, 0, 5, 2)),
        UpdateEvent::insert("Bids", order(2, 3, 1, 1, 7)),
        UpdateEvent::insert("Asks", order(2, 4, 0, 6, 4)),
        UpdateEvent::insert("Bids", order(3, 5, 0, 4, 1)),
        UpdateEvent::insert("Bids", order(3, 5, 0, 4, 1)), // stored twice
    ];
    let run = vec![
        UpdateEvent::insert("Bids", order(4, 6, 0, 7, 5)),
        UpdateEvent::insert("Bids", order(4, 6, 0, 7, 5)), // repeated key: +2
        UpdateEvent::insert("Bids", order(5, 7, 0, 3, 9)),
        UpdateEvent::delete("Bids", order(5, 7, 0, 3, 9)), // cancels in-run
        UpdateEvent::delete("Bids", order(2, 2, 0, 5, 2)), // mixed sign
        UpdateEvent::insert("Bids", order(6, 8, 1, 0, 6)),
        UpdateEvent::delete("Bids", order(3, 5, 0, 4, 1)),
        UpdateEvent::delete("Bids", order(3, 5, 0, 4, 1)), // repeated key: −2
        UpdateEvent::insert("Bids", order(7, 9, 0, 2, 2)),
    ];
    let planted = DeltaBatch::from_events(&run);
    let mults: Vec<f64> = planted.runs()[0].entries().iter().map(|e| e.mult).collect();
    assert_eq!(planted.runs().len(), 1);
    assert_eq!(mults, [2.0, 0.0, -1.0, 1.0, -2.0, 1.0]);

    let events: Vec<UpdateEvent> = prefix.iter().chain(&run).cloned().collect();
    let batches = vec![DeltaBatch::from_events(&prefix), planted];
    for names in [&["bsp"][..], &["axf", "bsp", "bsv"][..]] {
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let (program, catalog) = book_program(names, mode);
            for force_interp in [false, true] {
                let reference = per_event_engine(&program, &catalog, force_interp, &events);
                // Not vacuous: the run moved the self-join results.
                assert!(!reference.view("bsp").unwrap().is_empty());
                let batched = batched_engine(&program, &catalog, force_interp, None, &batches);
                assert_engines_identical(
                    &reference,
                    &batched,
                    &format!("planted {names:?} [{mode}/interp={force_interp}]"),
                );
            }
        }
    }
}

/// `mddb1` is the workload's widest overlay (two run-linear statements over
/// fourteen auxiliary maps) and its aggregates are genuine floats, so batches
/// reassociate sums: every maintained map must match per-event processing to
/// a relative 1e-9 rather than bit for bit.
#[test]
fn mddb1_overlay_batches_match_per_event_within_float_tolerance() {
    let q = dbtoaster::workloads::query("mddb1").unwrap();
    let data = dbtoaster::workloads::mddb::generate(&dbtoaster::workloads::MddbConfig {
        atoms: 12,
        steps: 20,
        seed: 7,
    });
    let build = || {
        let mut engine = dbtoaster::QueryEngineBuilder::new(dbtoaster::workloads::full_catalog())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap();
        for (table, rows) in &data.tables {
            engine.load_table(table, rows.clone()).unwrap();
        }
        engine.init().unwrap();
        engine
    };
    let mut reference = build();
    reference.process_all(&data.events).unwrap();
    for size in [8usize, 64, 512] {
        let mut batched = build();
        for b in fixed_partition(&data.events, size) {
            assert!(batched.process_batch(&b).first_error.is_none());
        }
        assert!(batched.stats().batch_delta_runs > 0);
        assert_eq!(batched.stats().entry_major_runs, 0);
        for m in &reference.program().maps {
            let (a, b) = (
                reference.view(&m.name).unwrap(),
                batched.view(&m.name).unwrap(),
            );
            // Both directions; an absent key reads as 0.
            for (key, _) in a.iter().chain(b.iter()) {
                let (x, y) = (a.get(key), b.get(key));
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                    "batch {size}: {}{key:?}: {x} vs {y}",
                    m.name
                );
            }
        }
    }
}

/// Timing-free regression guard for "a batch must never be slower than its
/// events": on a fixed 5k-event order book, the entries the kernels scan —
/// summed over every view's counters — at batch 512 must not exceed the same
/// sum at batch 1, and no run may leave the static batch-delta dispatch. (The
/// pair-correction design this replaced failed both: its cost gate re-routed
/// large `Bids` runs entry-major, and where it did not, the `@delta` self-join
/// scanned the run once per entry.)
#[test]
fn order_book_batch_512_scans_no_more_than_per_event() {
    use dbtoaster::runtime::{Telemetry, TelemetryConfig};
    let data = dbtoaster::workloads::finance::generate(&dbtoaster::workloads::FinanceConfig {
        events: 5_000,
        seed: 42,
        ..Default::default()
    });
    for names in [&["bsp"][..], &["axf", "bsp", "bsv"][..]] {
        let (program, catalog) = book_program(names, CompileMode::HigherOrder);
        let scanned = |batch: usize| -> u64 {
            let mut engine = Engine::new(program.clone(), &catalog);
            let tel = Telemetry::with_config(TelemetryConfig::default());
            engine.set_telemetry(tel.clone());
            for b in fixed_partition(&data.events, batch) {
                let report = engine.process_batch(&b);
                assert!(report.first_error.is_none(), "{:?}", report.first_error);
            }
            assert_eq!(
                engine.stats().entry_major_runs,
                0,
                "{names:?}: batch {batch} re-routed a run entry-major"
            );
            engine.flush_telemetry();
            tel.snapshot().views.iter().map(|v| v.entries_scanned).sum()
        };
        let (per_event, batched) = (scanned(1), scanned(512));
        assert!(per_event > 0, "{names:?}: the counters saw no scans");
        assert!(
            batched <= per_event,
            "{names:?}: batch 512 scanned {batched} entries, its events scan {per_event}"
        );
    }
}
