//! Batch-partition equivalence: the batch-first processing spine must be a
//! pure refactoring of event-at-a-time processing.
//!
//! Property: for any event stream and **any** partition of it into delta
//! batches, `Engine::process_batch` over the partition produces final view
//! maps **bit-exactly** equal to `Engine::process` over the events one at a
//! time — in all four compile modes, on the compiled-kernel path and with the
//! interpreter forced, under the default dispatch (batch-delta where derived)
//! and with the entry-major oracle forced. Streams are integer-weighted (all arithmetic exact in f64), which
//! is exactly the regime where the ring-linearity argument of
//! `dbtoaster_agca::batch` promises bit equality; duplicate keys and
//! insert/delete cancellations inside one batch are generated on purpose.
//!
//! The query set spans both batch strategies: linear aggregates and
//! group-bys (batch-delta with no run-linear part), a quadratic self-join
//! whose intra-batch interaction is carried by the live pass, a
//! stream-scaled self-join whose live pass also reads another stream's
//! stored slice, a nested-aggregate shape whose re-evaluation statement is
//! the run's `:=` tail, and a cubic self-join that stays entry-major. The
//! replace-tail section plants the run shapes the tail has to get right, on
//! that nested shape and on the workload's `vwap`. The order-book section drives the workload's own
//! self-join queries — `bsp` alone and `axf+bsp+bsv` in one engine, the
//! program the `book_join` benchmark serves — at the served batch sizes, plants
//! values outside the range sums' exactness contract, and pins the work a
//! batch does (entries touched) against its events' and against the size of
//! the buckets it reads.

use dbtoaster::agca::{CmpOp, DeltaBatch, Expr, UpdateEvent};
use dbtoaster::compiler::{
    compile, BatchStrategy, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta,
};
use dbtoaster::gmr::{Tuple, Value};
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
        // own run writes; the live pass covers that intra-batch interaction
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
        // the derivation still succeeds: batch-delta, with live statements
        // whose non-run-written reads see the pre-run store.
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
/// exercise the once-per-run `:=` tail).
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

/// A three-way self-join on one column: its statements hold two run-written
/// atoms in one product term, so batch-delta derivation bails and `R` runs
/// entry-major (compiled separately — dispatch is per relation, and sharing a
/// program would drag the other queries' `R` triggers onto the per-event path
/// with it).
fn cubic_query() -> QuerySpec {
    QuerySpec {
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
    force_entry_major: bool,
    seed: u64,
) {
    check_case_n(specs, mode, force_interp, force_entry_major, seed, 300);
}

fn check_case_n(
    specs: &[QuerySpec],
    mode: CompileMode,
    force_interp: bool,
    force_entry_major: bool,
    seed: u64,
    len: usize,
) {
    let program = compile(specs, &catalog(), &CompileOptions::for_mode(mode))
        .unwrap_or_else(|e| panic!("compile [{mode}]: {e}"));
    let events = random_stream(seed, len);
    let batches = random_partition(&events, seed ^ 0xabcdef);

    let reference = per_event_engine(&program, &catalog(), force_interp, &events);
    let batched = batched_engine(
        &program,
        &catalog(),
        force_interp,
        force_entry_major,
        &batches,
    );
    assert_eq!(batched.stats().events, reference.stats().events);
    if force_entry_major {
        assert_eq!(batched.stats().batch_delta_runs, 0, "[{mode}] forced");
    }

    let path = if force_interp { "interp" } else { "compiled" };
    let strat = if force_entry_major { "entry" } else { "auto" };
    assert_engines_identical(
        &reference,
        &batched,
        &format!("seed {seed} [{mode}/{path}/{strat}]"),
    );
}

/// Guard the suite's own premise: the HO-compiled query set must exercise
/// batch-delta on every relation (including the stream-scaled self-join, whose
/// run-linear parts read another stream's stored slice), the nested shape
/// must carry a `:=` tail on a batch-delta relation, re-evaluation mode must
/// be batch-delta throughout (all tail), and the entry-major path must still
/// exist for a genuinely ineligible shape.
#[test]
fn query_set_spans_both_batch_strategies() {
    use dbtoaster::compiler::StmtOp;
    let ho = CompileOptions::for_mode(CompileMode::HigherOrder);
    let program = compile(&queries(), &catalog(), &ho).unwrap();
    let dispatch = program.batch_dispatch();
    assert!(
        dispatch
            .iter()
            .all(|d| d.strategy == BatchStrategy::BatchDelta),
        "every relation of the main query set is batch-delta: {dispatch:?}"
    );
    assert!(
        program
            .run_linear
            .iter()
            .any(|rl| !rl.statements.is_empty()),
        "the self-joins need the live pass"
    );

    let has_tail = |program: &dbtoaster::compiler::TriggerProgram, relation: &str| {
        program
            .triggers
            .iter()
            .filter(|t| t.relation == relation)
            .all(|t| t.statements.iter().any(|s| s.op == StmtOp::Replace))
    };
    let nested = compile(&[nested_query()], &catalog(), &ho).unwrap();
    let tailed: Vec<_> = nested
        .batch_dispatch()
        .into_iter()
        .filter(|d| has_tail(&nested, &d.relation))
        .collect();
    assert!(
        !tailed.is_empty(),
        "NESTED lost its re-evaluation statement"
    );
    for d in &tailed {
        assert_eq!(d.strategy, BatchStrategy::BatchDelta, "{}", d.relation);
        let t = &nested.triggers[d.insert.unwrap()];
        assert!(!t.increments().is_empty(), "increments before the tail");
    }
    let rep = CompileOptions::for_mode(CompileMode::Reevaluate);
    let reeval = compile(&queries(), &catalog(), &rep).unwrap();
    for d in reeval.batch_dispatch() {
        assert_eq!(d.strategy, BatchStrategy::BatchDelta, "{}", d.relation);
        assert!(has_tail(&reeval, &d.relation));
    }

    let cubic = compile(&[cubic_query()], &catalog(), &ho).unwrap();
    assert!(
        cubic
            .batch_dispatch()
            .iter()
            .all(|d| d.strategy == BatchStrategy::EntryMajor),
        "a cubic self-join must stay entry-major: {:?}",
        cubic.batch_dispatch()
    );
}

/// Coverage guard for the batch benchmark sweep: every query it measures must
/// dispatch batch-delta on all of its stream relations in higher-order mode —
/// if one regresses to a fallback strategy, the sweep silently stops
/// measuring the batch-delta path (and, for `bsp`/`bsv`, its live pass). (Other workload queries — e.g. the
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
/// partition, also with entry-major forced. Streams are short — the cubic
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
            check_case_n(&chain_queries(), mode, force_interp, false, 7, 80);
        }
    }
}

#[test]
fn trigger_variable_chains_batch_bit_exact_forced_entry_major() {
    for force_interp in [false, true] {
        check_case_n(
            &chain_queries(),
            CompileMode::HigherOrder,
            force_interp,
            true,
            3,
            80,
        );
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
                check_case(&queries(), mode, force_interp, false, seed);
            }
        }
    }

    /// The two shapes that need a program of their own: the `:=` tail and
    /// the entry-major cubic self-join.
    #[test]
    fn nested_and_cubic_random_partitions_are_bit_exact(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for spec in [nested_query(), cubic_query()] {
            for mode in [
                CompileMode::HigherOrder,
                CompileMode::FirstOrder,
                CompileMode::NaiveViewlet,
                CompileMode::Reevaluate,
            ] {
                for force_interp in [false, true] {
                    check_case(std::slice::from_ref(&spec), mode, force_interp, false, seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same property with the entry-major oracle forced: per-event firing
    /// inside the batch must stay bit-exact with per-event processing.
    #[test]
    fn forced_entry_major_is_bit_exact(seed32 in 0u32..1_000_000u32) {
        let seed = seed32 as u64;
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            for force_interp in [false, true] {
                check_case(&queries(), mode, force_interp, true, seed);
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
    force_entry_major: bool,
    batches: &[DeltaBatch],
) -> Engine {
    let mut batched = Engine::new(program.clone(), catalog);
    batched.set_force_interpreter(force_interp);
    batched.set_force_entry_major(force_entry_major);
    for b in batches {
        let report = batched.process_batch(b);
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
    }
    batched
}

/// `bsp` alone and `axf+bsp+bsv` in one engine, at the batch sizes the batch
/// sweep and the server use and over random partitions, in all four compile
/// modes, compiled and interpreted, with and without the entry-major
/// override: bit-exact against per-event processing. Re-evaluation mode recomputes a quadratic
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
                for force in [false, true] {
                    for (label, batches) in &partitions {
                        let batched =
                            batched_engine(&program, &catalog, force_interp, force, batches);
                        assert_eq!(batched.stats().events, events.len() as u64);
                        if mode == CompileMode::HigherOrder && !force {
                            // The dispatch is static: nothing re-routes a run.
                            assert_eq!(batched.stats().entry_major_runs, 0, "{names:?} {label}");
                        }
                        let path = if force_interp { "interp" } else { "compiled" };
                        let strat = if force { "entry" } else { "auto" };
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

/// The three run shapes the live pass has to get right, planted in one
/// `Bids` run: a repeated key (net multiplicity ±2 — the firing's second
/// repetition must see the first), an insert-then-delete that cancels inside
/// the run (fires nothing, writes nothing), and mixed signs
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
                let batched = batched_engine(&program, &catalog, force_interp, false, &batches);
                assert_engines_identical(
                    &reference,
                    &batched,
                    &format!("planted {names:?} [{mode}/interp={force_interp}]"),
                );
            }
        }
    }
}

/// Values outside the range sums' exactness contract, met *under
/// maintenance*: an ordered index learns of an offender when it is written,
/// has to answer the group's range sums by traversal while it is there, and
/// has to resume the moment it is gone — counted per group, not latched. On
/// top of an ordinary three-broker book, brokers 5–8 each get one kind of
/// offender in the middle of a run of ordinary orders on both sides of the
/// book: half-unit volumes (placed, traded around, cancelled), `-0.0`
/// volumes, a 2^53 volume (placed, traded around, cancelled), a NaN volume
/// (never cancelled: `NaN - NaN` is not zero, so no incremental strategy
/// could forget it), and an order cancelled before it is placed (a `-1`
/// multiplicity in between). `axf` and `bsp` in every incremental mode, at
/// batch 1, 8 and 512, must equal re-evaluation bit for bit (all NaNs being
/// one value, as they are to `Value`); the offending brokers' volumes are
/// dyadic and coarse enough that every sum is exact in any order.
#[test]
fn order_book_offenders_suspend_range_sums_and_match_reevaluation() {
    use dbtoaster::runtime::{Telemetry, TelemetryConfig};
    let hostile = |t: i64, id: i64, broker: i64, price: i64, volume: f64| {
        let mut o = order(t, id, broker, price, 0);
        o[4] = Value::double(volume);
        o
    };
    let big = (1u64 << 53) as f64;
    let coarse = (1u64 << 20) as f64;
    let mut events = book_stream(77, 420);
    let mut id = 10_000;
    let mut plant = |events: &mut Vec<UpdateEvent>, at: usize, broker: i64, bad: f64, unit: f64| {
        // Ordinary orders around the offender on both sides of the book (so
        // its group is read while it is there), then the offender's own
        // cancellation where `bad - bad` is zero, then more ordinary orders.
        let mut run = Vec::new();
        let mut place = |run: &mut Vec<UpdateEvent>, rel: &str, t: i64, price: i64, vol: f64| {
            id += 1;
            let o = hostile(t, id, broker, price, vol);
            run.push(UpdateEvent::insert(rel, o.clone()));
            o
        };
        place(&mut run, "Bids", 3, 1, unit);
        place(&mut run, "Asks", 4, 5, 2.0 * unit);
        let offender = place(&mut run, "Bids", 5, 2, bad);
        let other = place(&mut run, "Asks", 5, 6, bad);
        place(&mut run, "Bids", 6, 7, 3.0 * unit);
        place(&mut run, "Asks", 7, 1, unit);
        place(&mut run, "Bids", 8, 4, 2.0 * unit);
        if !bad.is_nan() {
            run.push(UpdateEvent::delete("Bids", offender));
            run.push(UpdateEvent::delete("Asks", other));
        }
        place(&mut run, "Asks", 9, 3, 4.0 * unit);
        place(&mut run, "Bids", 9, 6, unit);
        events.splice(at..at, run);
    };
    plant(&mut events, 400, 8, f64::NAN, 1.0);
    plant(&mut events, 310, 7, big, coarse);
    plant(&mut events, 205, 6, -0.0, 1.0);
    plant(&mut events, 100, 5, 0.5, 1.0);
    // Cancelled before it is placed.
    let early = order(50, 20_000, 5, 3, 4);
    events.insert(130, UpdateEvent::delete("Bids", early.clone()));
    events.insert(180, UpdateEvent::insert("Bids", early));

    let names = ["axf", "bsp"];
    let results = |engine: &Engine| -> Vec<(String, Vec<(Tuple, u64)>)> {
        names
            .iter()
            .map(|n| {
                let view = engine.view(n).unwrap();
                let mut rows: Vec<(Tuple, u64)> = view
                    .iter()
                    .map(|(k, m)| (k.clone(), Value::numeric_bits(m)))
                    .collect();
                rows.sort();
                (n.to_string(), rows)
            })
            .collect()
    };
    let (program, catalog) = book_program(&names, CompileMode::Reevaluate);
    let expected = results(&per_event_engine(&program, &catalog, false, &events));
    for broker in [5, 6, 7, 8] {
        assert!(
            expected
                .iter()
                .all(|(_, rows)| rows.iter().any(|(k, _)| k[0] == Value::long(broker))),
            "broker {broker} has no result to get wrong: {expected:?}"
        );
    }
    let nan = Value::numeric_bits(f64::NAN);
    assert!(expected.iter().all(|(_, rows)| rows
        .iter()
        .any(|(k, m)| k[0] == Value::long(8) && *m == nan)));

    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
    ] {
        let (program, catalog) = book_program(&names, mode);
        for batch in [1, 8, 512] {
            let mut engine = Engine::new(program.clone(), &catalog);
            let tel = Telemetry::with_config(TelemetryConfig::default());
            engine.set_telemetry(tel.clone());
            for b in fixed_partition(&events, batch) {
                let report = engine.process_batch(&b);
                assert!(report.first_error.is_none(), "{:?}", report.first_error);
            }
            assert_eq!(
                results(&engine),
                expected,
                "[{mode}] batch {batch} diverges from re-evaluation"
            );
            if mode == CompileMode::HigherOrder {
                // Both ways of answering a range sum were taken.
                engine.flush_telemetry();
                for v in tel
                    .snapshot()
                    .views
                    .iter()
                    .filter(|v| names.contains(&&*v.name))
                {
                    assert!(
                        v.banded_hits > 0 && v.banded_bails > 0,
                        "batch {batch}: {v:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replace-tail runs: `+=` statements, the base update, then `:=` once
// ---------------------------------------------------------------------------

/// The run shapes the `:=` tail has to get right, planted as the second batch
/// after `prefix`: the run's last event decides which sign trigger's `:=`
/// statements fire, and its entry may have cancelled in-run or carry a net
/// multiplicity beyond one. Every shape must land bit-exactly on per-event
/// processing in all compile modes and both evaluators, and no higher-order
/// run may leave batch-delta.
fn check_planted_tail_runs(
    program_for: &dyn Fn(CompileMode) -> (dbtoaster::compiler::TriggerProgram, Catalog),
    prefix: &[UpdateEvent],
    runs: &[(&str, Vec<UpdateEvent>)],
    result: &str,
) {
    for (label, run) in runs {
        let planted = DeltaBatch::from_events(run);
        assert_eq!(planted.runs().len(), 1, "{label}: one relation run");
        let events: Vec<UpdateEvent> = prefix.iter().chain(run).cloned().collect();
        let batches = vec![DeltaBatch::from_events(prefix), planted];
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let (program, catalog) = program_for(mode);
            for force_interp in [false, true] {
                let reference = per_event_engine(&program, &catalog, force_interp, &events);
                // Not vacuous: the result is live when the run ends.
                assert!(!reference.view(result).unwrap().is_empty(), "{label}");
                let batched = batched_engine(&program, &catalog, force_interp, false, &batches);
                if mode == CompileMode::HigherOrder {
                    assert_eq!(batched.stats().entry_major_runs, 0, "{label}");
                }
                assert_engines_identical(
                    &reference,
                    &batched,
                    &format!("{label} [{mode}/interp={force_interp}]"),
                );
            }
        }
    }
}

/// `vwap`: three O(1) increments and the nested-aggregate `:=` per `Bids`
/// trigger — the program the `book_nested` benchmark serves.
#[test]
fn vwap_replace_tail_planted_runs_batch_bit_exact() {
    let ins = |t, id, price, volume| UpdateEvent::insert("Bids", order(t, id, 0, price, volume));
    let del = |t, id, price, volume| UpdateEvent::delete("Bids", order(t, id, 0, price, volume));
    let prefix = vec![
        ins(1, 1, 2, 3),
        ins(1, 2, 5, 2),
        ins(2, 3, 1, 7),
        ins(2, 4, 6, 4),
        ins(3, 5, 4, 1),
        ins(3, 5, 4, 1), // stored twice
    ];
    let runs = vec![
        (
            "last event an insert",
            vec![del(1, 2, 5, 2), ins(4, 6, 7, 5), ins(4, 7, 3, 9)],
        ),
        (
            "last event a delete",
            vec![ins(4, 6, 7, 5), ins(4, 7, 3, 9), del(2, 3, 1, 7)],
        ),
        (
            "last entry nets to zero",
            vec![
                ins(4, 6, 7, 5),
                del(1, 1, 2, 3),
                ins(4, 7, 3, 9),
                del(4, 7, 3, 9),
            ],
        ),
        (
            "net multiplicity +2, then -2 last",
            vec![
                ins(4, 6, 7, 5),
                ins(4, 6, 7, 5),
                del(3, 5, 4, 1),
                del(3, 5, 4, 1),
            ],
        ),
        ("whole run cancels", vec![ins(4, 6, 7, 5), del(4, 6, 7, 5)]),
    ];
    check_planted_tail_runs(
        &|mode| book_program(&["vwap"], mode),
        &prefix,
        &runs,
        "vwap",
    );
}

/// `NESTED`: `S` carries one increment and the `:=`; `R` only increments that
/// read the map `S` maintains.
#[test]
fn nested_replace_tail_planted_runs_batch_bit_exact() {
    let t = |a: i64, b: i64| vec![Value::long(a), Value::long(b)];
    let prefix = vec![
        UpdateEvent::insert("R", t(1, 2)),
        UpdateEvent::insert("R", t(2, 5)),
        UpdateEvent::insert("R", t(3, 9)),
        UpdateEvent::insert("S", t(1, 4)),
        UpdateEvent::insert("S", t(2, 3)),
        UpdateEvent::insert("S", t(2, 3)), // stored twice
    ];
    let ins = |b, c| UpdateEvent::insert("S", t(b, c));
    let del = |b, c| UpdateEvent::delete("S", t(b, c));
    let runs = vec![
        (
            "last event an insert",
            vec![del(1, 4), ins(3, 1), ins(4, 2)],
        ),
        ("last event a delete", vec![ins(3, 1), ins(4, 2), del(1, 4)]),
        (
            "last entry nets to zero",
            vec![ins(3, 1), ins(4, 2), del(4, 2)],
        ),
        (
            "net multiplicity +2, then -2 last",
            vec![ins(3, 6), ins(3, 6), del(2, 3), del(2, 3)],
        ),
    ];
    let program_for = |mode| {
        let options = CompileOptions::for_mode(mode);
        (
            compile(&[nested_query()], &catalog(), &options).unwrap(),
            catalog(),
        )
    };
    check_planted_tail_runs(&program_for, &prefix, &runs, "NESTED");
}

/// A poison event in the middle of a replace-tail run: an order whose volume
/// is a string fails `vwap`'s first increment. Collection aborts before
/// anything is applied and the run replays entry-major, so the report's
/// failure count and first error, and every map, equal per-event processing —
/// there is no per-entry failure bookkeeping on the batch path to get wrong.
#[test]
fn poison_event_in_a_replace_tail_run_matches_per_event() {
    let mut poison = order(5, 8, 0, 4, 1);
    poison[4] = Value::str("not a volume");
    let prefix = vec![
        UpdateEvent::insert("Bids", order(1, 1, 0, 2, 3)),
        UpdateEvent::insert("Bids", order(2, 2, 0, 5, 2)),
    ];
    let run = vec![
        UpdateEvent::insert("Bids", order(3, 3, 0, 1, 7)),
        UpdateEvent::insert("Bids", order(4, 4, 0, 6, 4)),
        UpdateEvent::insert("Bids", poison),
        UpdateEvent::delete("Bids", order(1, 1, 0, 2, 3)),
        UpdateEvent::insert("Bids", order(6, 9, 0, 3, 2)),
    ];
    let (program, catalog) = book_program(&["vwap"], CompileMode::HigherOrder);
    for force_interp in [false, true] {
        let mut reference = Engine::new(program.clone(), &catalog);
        reference.set_force_interpreter(force_interp);
        let errors: Vec<_> = prefix
            .iter()
            .chain(&run)
            .filter_map(|e| reference.process(e).err())
            .collect();
        assert_eq!(
            errors.len(),
            1,
            "exactly the poison event fails: {errors:?}"
        );

        let mut batched = Engine::new(program.clone(), &catalog);
        batched.set_force_interpreter(force_interp);
        batched.set_run_recording(true);
        let report = batched.process_batch(&DeltaBatch::from_events(&prefix));
        assert!(report.first_error.is_none());
        let report = batched.process_batch(&DeltaBatch::from_events(&run));
        assert_eq!(report.events, run.len() as u64);
        assert_eq!(report.failed_events, 1);
        assert_eq!(report.first_error.as_ref(), errors.first());
        assert_eq!(report.runs.len(), 1);
        assert_eq!(
            report.runs[0].strategy,
            BatchStrategy::EntryMajor,
            "replayed"
        );
        assert_eq!(batched.stats().events, reference.stats().events);
        assert!(!reference.view("vwap").unwrap().is_empty());
        assert_engines_identical(
            &reference,
            &batched,
            &format!("poisoned run [interp={force_interp}]"),
        );
    }
}

/// A poison event *after* the live pass has written. In first-order mode
/// `bsp`'s one statement reads the stored slice of `Bids`, which its own run
/// writes: inside a run the engine applies the base update firing
/// by firing — and has to take those writes back when a later firing fails
/// (an order whose volume is a string fails the statement's arithmetic). The
/// run then replays entry-major, and the report, every map and the stored
/// relation equal per-event processing bit for bit. In the other incremental
/// modes the same order already fails a statement that is collected before
/// the live pass starts; the outcome must be the same.
#[test]
fn poison_event_after_live_writes_is_rolled_back() {
    use dbtoaster::runtime::{Telemetry, TelemetryConfig};
    let mut poison = order(5, 8, 0, 4, 1);
    poison[4] = Value::str("not a volume");
    let prefix = vec![
        UpdateEvent::insert("Bids", order(1, 1, 0, 2, 3)),
        UpdateEvent::insert("Bids", order(2, 2, 0, 5, 2)),
    ];
    let run = vec![
        UpdateEvent::insert("Bids", order(3, 3, 0, 1, 7)),
        UpdateEvent::delete("Bids", order(1, 1, 0, 2, 3)),
        UpdateEvent::insert("Bids", poison),
        UpdateEvent::insert("Bids", order(6, 9, 0, 3, 2)),
    ];
    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
    ] {
        let (program, catalog) = book_program(&["bsp"], mode);
        for force_interp in [false, true] {
            let mut reference = Engine::new(program.clone(), &catalog);
            reference.set_force_interpreter(force_interp);
            let errors: Vec<_> = prefix
                .iter()
                .chain(&run)
                .filter_map(|e| reference.process(e).err())
                .collect();
            assert_eq!(
                errors.len(),
                1,
                "[{mode}] only the poison fails: {errors:?}"
            );

            let mut batched = Engine::new(program.clone(), &catalog);
            batched.set_force_interpreter(force_interp);
            batched.set_run_recording(true);
            let tel = Telemetry::with_config(TelemetryConfig::default());
            batched.set_telemetry(tel.clone());
            let report = batched.process_batch(&DeltaBatch::from_events(&prefix));
            assert!(report.first_error.is_none());
            batched.flush_telemetry();
            let live_firings = |tel: &Telemetry| -> u64 {
                tel.snapshot().views.iter().map(|v| v.overlay_firings).sum()
            };
            let before = live_firings(&tel);
            let report = batched.process_batch(&DeltaBatch::from_events(&run));
            assert_eq!(report.failed_events, 1, "[{mode}]");
            assert_eq!(report.first_error.as_ref(), errors.first());
            assert_eq!(report.runs[0].strategy, BatchStrategy::EntryMajor);
            batched.flush_telemetry();
            if mode == CompileMode::FirstOrder {
                // Not vacuous: the pass had fired (and written the stored
                // slice) before it met the poison.
                assert!(live_firings(&tel) >= before + 2, "[{mode}]");
            }
            assert!(!reference.view("bsp").unwrap().is_empty());
            assert_engines_identical(
                &reference,
                &batched,
                &format!("rolled-back run [{mode}/interp={force_interp}]"),
            );
        }
    }
}

/// Timing-free work guard for the tail: at batch 512 a `:=` statement is
/// evaluated once per run, not once per event — `vwap` in higher-order mode
/// (three increments per event plus the tail) and `q1` in re-evaluation mode
/// (nothing but tails) — and no run leaves batch-delta. The streams are
/// insert-only with distinct keys, so firings equal events.
#[test]
fn replace_statements_fire_once_per_run_not_per_event() {
    use dbtoaster::compiler::StmtOp;
    use dbtoaster::prelude::*;
    use dbtoaster::workloads;
    let book = workloads::finance::generate(&workloads::FinanceConfig {
        events: 2_048,
        seed: 42,
        ..Default::default()
    });
    let mut tpch = workloads::tpch::generate(&workloads::TpchConfig::scaled(0.002, 42));
    tpch.truncate(1_024);
    for (name, mode, data) in [
        ("vwap", CompileMode::HigherOrder, book),
        ("q1", CompileMode::Reevaluate, tpch),
    ] {
        let q = workloads::query(name).unwrap();
        let mut engine = QueryEngineBuilder::new(workloads::full_catalog())
            .add_query(q.name, q.sql)
            .mode(mode)
            .build()
            .unwrap();
        for (table, rows) in &data.tables {
            engine.load_table(table, rows.clone()).unwrap();
        }
        engine.init().unwrap();
        engine.set_run_recording(true);
        // Statements per firing, by kind, of each relation's insert trigger.
        let shape: Vec<(String, u64, u64)> = engine
            .program()
            .triggers
            .iter()
            .filter(|t| t.sign == UpdateSign::Insert)
            .map(|t| {
                let replaces = t.statements.iter().filter(|s| s.op == StmtOp::Replace);
                (
                    t.relation.clone(),
                    t.increments().len() as u64,
                    replaces.count() as u64,
                )
            })
            .collect();
        assert!(shape.iter().any(|(_, _, r)| *r > 0), "{name}: no `:=` left");
        let inserts: Vec<UpdateEvent> = data
            .events
            .iter()
            .filter(|e| e.sign == UpdateSign::Insert)
            .filter(|e| shape.iter().any(|(rel, _, _)| *rel == e.relation))
            .cloned()
            .collect();
        let (mut expected, mut runs) = (0u64, 0u64);
        for chunk in inserts.chunks(512) {
            let batch = DeltaBatch::from_events(chunk);
            let report = engine.process_batch(&batch);
            assert!(
                report.first_error.is_none(),
                "{name}: {:?}",
                report.first_error
            );
            for (run, rec) in batch.runs().iter().zip(&report.runs) {
                assert_eq!(rec.strategy, BatchStrategy::BatchDelta, "{name}");
                let (_, increments, replaces) = shape
                    .iter()
                    .find(|(rel, _, _)| rel == run.relation())
                    .unwrap();
                let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
                assert_eq!(firings, run.events(), "{name}: distinct insert keys");
                expected += increments * firings + replaces;
                runs += 1;
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.entry_major_runs, 0, "{name}");
        assert_eq!(stats.batch_delta_runs, runs, "{name}");
        assert!(
            runs < stats.events / 100,
            "{name}: {runs} runs for {} events",
            stats.events
        );
        assert_eq!(
            stats.statements, expected,
            "{name}: a `:=` fired per event ({} events, {runs} runs)",
            stats.events
        );
    }
}

/// `mddb1` has the workload's widest live pass (two statements reading
/// fourteen auxiliary maps their own run writes) and its aggregates are genuine floats, so batches
/// reassociate sums: every maintained map must match per-event processing to
/// a relative 1e-9 rather than bit for bit.
#[test]
fn mddb1_live_pass_batches_match_per_event_within_float_tolerance() {
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

/// Σ `entries_scanned` over every view of an engine that replays `events` in
/// batches of `batch`, with the static dispatch checked on the way.
fn entries_scanned(
    program: &dbtoaster::compiler::TriggerProgram,
    catalog: &Catalog,
    events: &[UpdateEvent],
    batch: usize,
) -> u64 {
    use dbtoaster::runtime::{Telemetry, TelemetryConfig};
    let mut engine = Engine::new(program.clone(), catalog);
    let tel = Telemetry::with_config(TelemetryConfig::default());
    engine.set_telemetry(tel.clone());
    for b in fixed_partition(events, batch) {
        let report = engine.process_batch(&b);
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
    }
    assert_eq!(
        engine.stats().entry_major_runs,
        0,
        "batch {batch} re-routed a run entry-major"
    );
    engine.flush_telemetry();
    tel.snapshot().views.iter().map(|v| v.entries_scanned).sum()
}

/// Timing-free regression guard for "a batch must never be slower than its
/// events": on a fixed 5k-event order book, the entries the kernels touch —
/// summed over every view's counters — at batch 8, 64 and 512 are no more
/// than the same sum at batch 1, and no run may leave the static batch-delta
/// dispatch. Two designs have failed it: PR 15's predecessor re-routed large
/// `Bids` runs entry-major and scanned the run once per entry where it did
/// not (5× to 100× the work); and any scheme that answers a statement from
/// two structures — the pre-run state plus something holding the run's own
/// writes — fails it once lookups are searches, because `log a + log b >
/// log (a + b)` (+4 % at batch 8, +38 % at batch 512 on `bsp`). It holds
/// because a statement that reads what its run writes makes one lookup per
/// firing, into maps the run keeps current, exactly as per event.
///
/// The second assertion pins that a lookup is a search at all: a bucket of
/// this stream holds ~250 bids on average, a search compares under ten.
#[test]
fn order_book_batches_scan_no_more_than_their_events() {
    let data = dbtoaster::workloads::finance::generate(&dbtoaster::workloads::FinanceConfig {
        events: 5_000,
        seed: 42,
        ..Default::default()
    });
    for names in [&["bsp"][..], &["axf"][..], &["axf", "bsp", "bsv"][..]] {
        let (program, catalog) = book_program(names, CompileMode::HigherOrder);
        let per_event = entries_scanned(&program, &catalog, &data.events, 1);
        assert!(per_event > 0, "{names:?}: the counters saw no scans");
        // `bsv` is O(1) per event and scans nothing; `axf` and `bsp` make two
        // range-sum scans per event each.
        let scans = data.events.len() as u64 * if names.len() == 1 { 1 } else { 3 };
        assert!(
            per_event < 60 * scans,
            "{names:?}: {per_event} entries for {scans} scans is a traversal, not a search"
        );
        for batch in [8, 64, 512] {
            let batched = entries_scanned(&program, &catalog, &data.events, batch);
            assert!(
                batched <= per_event,
                "{names:?}: batch {batch} touched {batched} entries, its events touch {per_event}"
            );
        }
    }
}

/// The other half of the work oracle: what an `axf` or `bsp` event costs must
/// not follow the size of the bucket it reads. Over 5k, 10k and 20k events of
/// the same order book the buckets (`[broker, price]` / `[broker, t]` groups
/// of the auxiliary maps) grow fourfold; the entries compared per event —
/// binary searches over sorted runs, so two more comparisons per search on
/// top of six or seven — must grow by less than half.
#[test]
fn order_book_work_per_event_does_not_follow_the_bucket_size() {
    for name in ["axf", "bsp"] {
        let (program, catalog) = book_program(&[name], CompileMode::HigherOrder);
        let measure = |events: usize| -> (f64, usize) {
            let data =
                dbtoaster::workloads::finance::generate(&dbtoaster::workloads::FinanceConfig {
                    events,
                    seed: 42,
                    ..Default::default()
                });
            let scanned = entries_scanned(&program, &catalog, &data.events, 1);
            let mut engine = Engine::new(program.clone(), &catalog);
            engine.process_all(&data.events).unwrap();
            let bucket = program
                .ordered_indexes()
                .iter()
                .map(|d| engine.view(&d.map).unwrap().len())
                .max()
                .unwrap();
            (scanned as f64 / events as f64, bucket)
        };
        let sweep = [5_000, 10_000, 20_000].map(measure);
        let ((small, small_bucket), (large, large_bucket)) = (sweep[0], sweep[2]);
        assert!(
            large_bucket as f64 >= 3.5 * small_bucket as f64,
            "{name}: the buckets were meant to grow fourfold: {sweep:?}"
        );
        assert!(
            small > 0.0 && large < 1.5 * small,
            "{name}: entries per event follow the bucket: {sweep:?}"
        );
    }
}
