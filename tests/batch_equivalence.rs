//! Batch-partition equivalence: the batch-first processing spine must be a
//! pure refactoring of event-at-a-time processing.
//!
//! For any stream and any partition of it into delta batches — one run per
//! relation, each run one batch-delta pass — `Engine::process_batch` must
//! end bit-exactly where `Engine::process` over the events one at a time
//! ends, in all four compile modes, and both must equal every map's
//! definition recomputed from the final base relations. Two seeded slices of
//! generated programs check it through `common::check`: random
//! partitions, and the cases with a `:=` tail or a star or cubic join.
//!
//! Pinned regressions follow: what a firing reads, hand-assembled programs
//! whose derivation bails, failing firings, the `:=` tail's run shapes, the
//! workload's order-book self-joins, and the work a batch does.

mod common;

use common::{Case, Hand, Partition, Point, Recompute, Shape, Source};
use dbtoaster::agca::{DeltaBatch, Expr, UpdateEvent, UpdateSign};
use dbtoaster::compiler::{derive_live_passes, CompileMode, StmtOp, Trigger, TriggerProgram};
use dbtoaster::gmr::Value;
use dbtoaster::runtime::Engine;
use dbtoaster::workloads::{self, Dataset, FinanceConfig};

const HO: CompileMode = CompileMode::HigherOrder;

/// Higher-order points at `partitions`.
fn higher_order(partitions: &[Partition]) -> Vec<Point> {
    partitions.iter().map(|&p| Point::plain(HO, p)).collect()
}

/// Guard the suite's own premise on the generator's named shapes: in
/// higher-order mode the linear, group-by, self-join and scaled self-join
/// queries together (the last one's live statements read a stored `S`), the
/// star and the cubic chain derive a live pass per relation and fire live;
/// re-evaluation is all tail; `NESTED`'s `:=` tails follow increments. (The
/// census pins the slices.)
#[test]
fn query_set_spans_live_passes_and_tails() {
    use common::Shape::*;
    let derived = |shapes: &[Shape], mode| {
        let specs = shapes.iter().map(|s| s.query()).collect();
        let program = Case::new(Source::Queries(specs), vec![]).compile(mode);
        let dispatch = program.batch_dispatch();
        let all = dispatch
            .iter()
            .all(|d| program.live_pass_for(&d.relation).is_some());
        assert!(all, "{shapes:?} [{mode}]: {dispatch:?}");
        program
    };
    let live = |p: TriggerProgram| {
        let pass = p.live_pass_for("R").map(|lp| lp.statements.len());
        pass.unwrap_or(0) > 0
    };
    let main = [Single, EquiJoin, GroupBy, SelfJoin, ScaledSelfJoin];
    assert!(live(derived(&main, HO)), "the self-joins fire live");
    for cubic in [Star, CubicChain] {
        assert!(live(derived(&[cubic], HO)), "{cubic:?} fires live");
    }
    let reeval = derived(&main, CompileMode::Reevaluate);
    for d in reeval.batch_dispatch() {
        assert!(common::has_tail(&reeval, &d.relation), "{}", d.relation);
    }
    let mut tails = 0;
    for t in &derived(&[Nested], HO).triggers {
        let increments = t.increments().len();
        let tail = t.statements.len() - increments;
        assert!(tail == 0 || increments > 0, "{}: a bare tail", t.relation);
        tails += tail;
    }
    assert!(tails > 0, "NESTED lost its `:=` tail");
}

/// Coverage guard for the served queries: every query the benchmark batches
/// derives a live pass for each of its stream relations in higher-order
/// mode, and `bsp`'s and `bsv`'s fire statements live, or the benchmark
/// silently stops measuring the live pass. (The census in `explain_golden`
/// pins every other workload query's live passes.)
#[test]
fn batch_sweep_queries_dispatch_batch_delta() {
    for name in ["q1", "q3", "q6", "axf", "bsp", "bsv"] {
        let program = common::workload_program(&[name], HO);
        let dispatch = program.batch_dispatch();
        assert!(!dispatch.is_empty(), "{name}: no stream relations");
        for d in &dispatch {
            let pass = program.live_pass_for(&d.relation);
            let pass = pass.unwrap_or_else(|| panic!("{name}: {} has no live pass", d.relation));
            let self_join = name == "bsp" || name == "bsv";
            assert!(
                !self_join || !pass.statements.is_empty(),
                "{name}: {pass:?}"
            );
        }
    }
}

/// Regression twin of the trigger-variable-capture tests in
/// `plan_equivalence.rs`: self-join chains whose auxiliary maps are keyed by
/// trigger variables (the alpha-renamed `{map}@@k{i}` columns). The R×R×R
/// cubic chain used to panic at compile time and the R·S·R path chain used to
/// diverge; here they must additionally stay bit-exact under a random batch
/// partition.
#[test]
fn trigger_variable_chains_batch_bit_exact_all_modes() {
    let case = common::shaped(&[Shape::PathChain, Shape::CubicChain], 7, 80);
    common::check(&case, &common::in_all_modes(Partition::Geometric(7)));
}

#[test]
fn random_partitions_are_bit_exact() {
    common::run_slice(common::Lean::Batches);
}

#[test]
fn nested_and_cubic_random_partitions_are_bit_exact() {
    common::run_slice(common::Lean::Tails);
}

// ---------------------------------------------------------------------------
// Runs of one firing: what a firing reads, and what a failing one writes
// ---------------------------------------------------------------------------

/// A firing reads the same state at every batch size. `Q`'s statements read
/// `M`, which their own run writes, so the derivation lists them in the live
/// pass: a batch evaluates them firing by firing, a batch of one evaluates
/// them once, and both must read `M` as it was before the firing — four
/// inserts of one `a` make `Q` 0 + 1 + 2 + 3 = 6, whatever the batching. (The
/// values oracle holds `Q` to the pairs of `R` tuples with equal `a`.)
#[test]
fn a_firing_reads_the_state_before_it_at_every_batch_size() {
    let program = Hand::Pairs.program();
    let lp = program.live_pass_for("R").expect("R derives");
    assert_eq!(lp.live_maps, ["M"]);
    let listed: Vec<usize> = lp.statements.iter().map(|s| s.stmt).collect();
    assert_eq!(listed, [1, 1], "both signs' `Q` statements fire live");
    let sizes = [2, 4, 64].map(Partition::Fixed);
    for n in [4i64, 64] {
        let one_key = |i| UpdateEvent::insert("R", vec![Value::long(1), Value::long(i)]);
        let events: Vec<UpdateEvent> = (0..n).map(one_key).collect();
        let case = Case::new(Source::Program(program.clone()), events);
        for o in common::check(&case, &higher_order(&sizes)) {
            let q = o.engine.view("Q").unwrap().scalar_value();
            assert_eq!(q, (n * (n - 1) / 2) as f64, "{n} inserts");
        }
    }
    // Both signs, repeated keys, cancellations inside a batch.
    for seed in 0..4 {
        let random = [Partition::Geometric(seed)];
        let points = higher_order(&[&sizes[..], &random].concat());
        common::check(&common::assembled(Hand::Pairs, seed), &points);
    }
}

/// A relation whose derivation bails has no engine to run it: the
/// derivation names the condition for `R`, and `Engine::new` refuses the
/// program, naming `R` — a corrupt program, as an unresolved target is.
/// (`compile` turns the same condition into `CompileError::Underivable`;
/// no program it emits has one.)
#[test]
fn a_relation_whose_derivation_bails_is_refused_by_name() {
    for hand in common::BAILING {
        let program = hand.program();
        let bail = hand.bail().expect("a bailing hand");
        let derived = derive_live_passes(&program.triggers);
        assert_eq!(derived, Err(("R".to_string(), bail)), "{hand:?}");
        assert!(program.live_passes.is_empty(), "{hand:?}");
        let built = std::panic::catch_unwind(|| Engine::new(program, &common::catalog()));
        let Err(e) = built else {
            panic!("{hand:?}: an engine without a live pass for R")
        };
        let message = e.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.starts_with("the triggers of R have no live pass"),
            "{hand:?}: {message}"
        );
    }
    for hand in common::HANDS {
        assert_eq!(hand.bail(), None, "{hand:?}");
        assert!(hand.program().live_pass_for("R").is_some(), "{hand:?}");
    }
}

/// A refused event writes nothing. `N[a] += b` would multiply a string in
/// on a tuple whose `b` is one, after `M[a] += 1` — the statement before it.
/// The gate refuses that tuple before any statement runs: per event and
/// under every partition, it must leave `M`, `N` and the stored `R` as the
/// stream without it leaves them, count as one failed event with the same
/// refusal, and let every other event apply.
#[test]
fn a_failed_event_writes_nothing() {
    let statements = |sign: UpdateSign| -> (UpdateSign, Vec<common::Stmt>) {
        let (one, b) = (Expr::one(), Expr::var("b"));
        let (one, b) = match sign {
            UpdateSign::Insert => (one, b),
            UpdateSign::Delete => (Expr::neg(one), Expr::neg(b)),
        };
        let inc = StmtOp::Increment;
        (sign, vec![("M", &["a"], inc, one), ("N", &["a"], inc, b)])
    };
    let r = || Expr::rel("R", ["a", "b"]);
    let n = Expr::agg_sum(["a"], Expr::product_of([r(), Expr::var("b")]));
    let defs = [("M", Expr::agg_sum(["a"], r())), ("N", n)];
    let triggers = [UpdateSign::Insert, UpdateSign::Delete].map(statements);
    let program = common::assemble(triggers.to_vec(), &defs);
    let clean = common::small_stream(21, 240);
    let mut events = clean.clone();
    let ill_typed = vec![Value::long(1), Value::str("x")];
    events.insert(120, UpdateEvent::insert("R", ill_typed));

    let mut per_event = Engine::new(program.clone(), &common::catalog());
    let errors = common::failures(&mut per_event, &events);
    assert_eq!(
        errors.len(),
        1,
        "exactly the ill-typed event is refused: {errors:?}"
    );
    assert!(!per_event.view("M").unwrap().is_empty());

    // `common::check` holds the batched maps to the per-event ones and to
    // the stream without the refused event.
    let without = Recompute::new(&common::catalog(), &Default::default(), &clean);
    let mut case = Case::new(Source::Program(program.clone()), events);
    case.ill_typed = Some(120);
    let fixed = [1, 2, 8, 64, 512].map(Partition::Fixed);
    let points = higher_order(&[&fixed[..], &[1, 2, 3].map(Partition::Geometric)].concat());
    for (p, o) in points.iter().zip(common::check(&case, &points)) {
        let failed: u64 = o.reports.iter().map(|r| r.failed_events).sum();
        assert_eq!(failed, 1, "{p}");
        without.check(&format!("{p}"), &program, &|m| o.engine.view(m), 0.0);
        for e in o.reports.iter().filter_map(|r| r.first_error.as_ref()) {
            assert_eq!(Some(e), errors.first(), "{p}");
        }
    }
}

/// The ingest gate across the lattice: a string in a number column, or a
/// tuple one value short, in the middle of a stream over a join and a
/// self-join. In every mode, per event and in batches of 2, 8, 64 and 512
/// and geometric ones, live passes kept, and through a WAL written and
/// recovered past it, `common::check` holds exactly that event refused — one
/// failed event — and every map equal to the stream without it, bit for bit.
#[test]
fn an_ill_typed_event_is_refused_at_every_batch_size() {
    let base = common::shaped(&[Shape::EquiJoin, Shape::SelfJoin], 5, 120);
    let fixed = [1, 2, 8, 64, 512].map(Partition::Fixed);
    let partitions = [&fixed[..], &[Partition::Geometric(3)]].concat();
    for tuple in [vec![Value::long(1), Value::str("x")], vec![Value::long(1)]] {
        let mut case = base.clone();
        case.events.insert(60, UpdateEvent::insert("S", tuple));
        case.ill_typed = Some(60);
        let mut points = Vec::new();
        for mode in common::MODES {
            for &partition in &partitions {
                let batches = common::cuts(&case.events, partition, false).len();
                let wal = common::WalCut {
                    checkpoint: Some(batches / 2),
                    stop: batches,
                };
                let plain = Point::plain(mode, partition);
                points.push(Point {
                    wal: Some(wal),
                    ..plain
                });
            }
        }
        for (p, o) in points.iter().zip(common::check(&case, &points)) {
            let failed: u64 = o.reports.iter().map(|r| r.failed_events).sum();
            assert_eq!(failed, 1, "{p}");
        }
    }
}

// ---------------------------------------------------------------------------
// Order-book self-joins: the workload's own quadratic queries
// ---------------------------------------------------------------------------

/// One order: `(t, id, broker_id, price, volume)`, typed like the workload
/// generator's. Prices are multiples of 500 around axfinder's 1000 band and
/// everything is a small integer, so every aggregate of `axf`, `bsp` and
/// `bsv` (whose 0.5 factor is a power of two) is exact in f64.
fn order(t: i64, id: i64, broker: i64, price: i64, volume: i64) -> Vec<Value> {
    let ints = [t, id, broker].map(Value::long);
    let doubles = [(price * 500) as f64, volume as f64].map(Value::double);
    ints.into_iter().chain(doubles).collect()
}

/// Events, `;`-separated: a sign, a relation — `B` and `A` are `Bids` and
/// `Asks`, whose fields are [`order`]'s — then the values. A word that is no
/// number is a string there.
fn events(spec: &str) -> Vec<UpdateEvent> {
    let event = |e: &str| {
        let words: Vec<&str> = e.split_whitespace().collect();
        let n: Vec<i64> = words[1..].iter().map(|w| w.parse().unwrap_or(0)).collect();
        let (rel, mut tuple) = match &words[0][1..] {
            "B" => ("Bids", order(n[0], n[1], n[2], n[3], n[4])),
            "A" => ("Asks", order(n[0], n[1], n[2], n[3], n[4])),
            rel => (rel, n.iter().map(|&v| Value::long(v)).collect()),
        };
        for (i, w) in words[1..].iter().enumerate() {
            if w.parse::<i64>().is_err() {
                tuple[i] = Value::str(w);
            }
        }
        match words[0].starts_with('+') {
            true => UpdateEvent::insert(rel, tuple),
            false => UpdateEvent::delete(rel, tuple),
        }
    };
    spec.split(';').map(event).collect()
}

/// Deterministic order-book stream over `Bids`/`Asks`: timestamps shared by
/// neighbouring orders (so `x.t > y.t` has ties), three brokers, deletes drawn
/// from the live multiset — often the order just placed, which cancels inside
/// its batch — and occasional re-inserts of a live order (a repeated key,
/// net multiplicity 2 in its run).
fn book_stream(seed: u64, len: usize) -> Vec<UpdateEvent> {
    let mut rng = common::Rng::new(seed, 11);
    let mut live: [Vec<Vec<Value>>; 2] = [Vec::new(), Vec::new()];
    let mut out = Vec::with_capacity(len);
    for i in 0..len as i64 {
        let side = rng.below(2);
        let (rel, book) = (["Bids", "Asks"][side], &mut live[side]);
        let roll = rng.below(100);
        if roll < 30 && !book.is_empty() {
            let (last, any) = (book.len() - 1, rng.below(book.len()));
            let idx = if rng.below(3) == 0 { last } else { any };
            out.push(UpdateEvent::delete(rel, book.swap_remove(idx)));
        } else if roll < 36 && !book.is_empty() {
            let again = book[rng.below(book.len())].clone();
            book.push(again.clone());
            out.push(UpdateEvent::insert(rel, again));
        } else {
            let [broker, price, volume] = [3, 8, 9].map(|n| rng.below(n) as i64);
            let tuple = order(i / 2, i, broker, price, 1 + volume);
            book.push(tuple.clone());
            out.push(UpdateEvent::insert(rel, tuple));
        }
    }
    out
}

/// Integer order-book events as a case of `names`.
fn book_case(names: &[&'static str], events: Vec<UpdateEvent>) -> Case {
    let tables = Default::default();
    Case::sql(names, Dataset { tables, events }, false)
}

/// `bsp` alone and `axf+bsp+bsv` in one engine, at the batch sizes the
/// benchmark and the server use and over random partitions, in all four
/// compile modes: bit-exact against per-event processing and against the
/// recomputed definitions. Re-evaluation mode recomputes a quadratic join per
/// event, so it gets a shorter stream.
#[test]
fn order_book_self_joins_batch_bit_exact() {
    const BOOK_SEED: u64 = 20120826;
    let mut partitions = [1, 8, 64, 512].map(Partition::Fixed).to_vec();
    partitions.extend([3, 5].map(Partition::Geometric));
    partitions.push(Partition::Huge(4));
    for names in [&["bsp"][..], &["axf", "bsp", "bsv"][..]] {
        for (len, modes) in [(700, &common::MODES[..3]), (140, &common::MODES[3..])] {
            let at = |&m| partitions.iter().map(move |&p| Point::plain(m, p));
            let points: Vec<Point> = modes.iter().flat_map(at).collect();
            common::check(&book_case(names, book_stream(BOOK_SEED, len)), &points);
        }
    }
}

/// The three run shapes the live pass has to get right, planted in one
/// `Bids` run after a prefix that stores one bid twice: a repeated key (net
/// multiplicity ±2 — the firing's second repetition must see the first), an
/// insert-then-delete that cancels inside the run (fires nothing, writes
/// nothing), and mixed signs (delete-trigger rows interleaved with
/// insert-trigger rows in entry order).
#[test]
fn order_book_planted_runs_batch_bit_exact() {
    let prefix = "+B 1 1 0 2 3; +B 2 2 0 5 2; +B 2 3 1 1 7; \
                  +A 2 4 0 6 4; +B 3 5 0 4 1; +B 3 5 0 4 1";
    let run = "+B 4 6 0 7 5; +B 4 6 0 7 5; +B 5 7 0 3 9; -B 5 7 0 3 9; -B 2 2 0 5 2; \
               +B 6 8 1 0 6; -B 3 5 0 4 1; -B 3 5 0 4 1; +B 7 9 0 2 2";
    let planted = DeltaBatch::from_events(&events(run));
    let mults: Vec<f64> = planted.runs()[0].entries().iter().map(|e| e.mult).collect();
    assert_eq!(planted.runs().len(), 1);
    assert_eq!(mults, [2.0, 0.0, -1.0, 1.0, -2.0, 1.0]);

    let events = events(&format!("{prefix}; {run}"));
    for names in [&["bsp"][..], &["axf", "bsp", "bsv"][..]] {
        let case = book_case(names, events.clone());
        let outcomes = common::check(&case, &common::in_all_modes(Partition::Sizes(&[6])));
        // Not vacuous: the run moved the self-join results.
        assert!(!outcomes[0].engine.view("bsp").unwrap().is_empty());
    }
}

/// Ordered secondary indexes are declared from the kernels of the program an
/// engine runs, and batches write through them: `bsp` and `axf` over finance
/// events in batches of 97 end bit-exactly where per-event processing and the
/// recomputed definitions do, and EXPLAIN ANALYZE finds each indexed map with
/// one ordered index, no hash index, holding exactly the map's entries.
#[test]
fn ordered_indexes_hold_their_maps_entries_after_batches() {
    let cat = common::workload_catalog();
    let events = workloads::finance::generate(&FinanceConfig {
        events: 3_000,
        seed: 9,
        ..Default::default()
    })
    .events;
    for name in ["bsp", "axf"] {
        let program = common::workload_program(&[name], HO);
        let declared = program.ordered_indexes();
        assert!(!declared.is_empty(), "{name}: no ordered index");
        let reference = common::per_event(&program, &cat, &events);
        let mut engine = Engine::new(program.clone(), &cat);
        for chunk in events.chunks(97) {
            let report = engine.process_batch(&DeltaBatch::from_events(chunk));
            assert!(report.first_error.is_none(), "{name}: {report:?}");
        }
        let view = |m: &str| engine.view(m);
        common::assert_views(name, &program, &|m| reference.view(m), &view, &|_| 0.0);
        Recompute::new(&cat, &Default::default(), &events).check(name, &program, &view, 0.0);

        let mut indexed = 0;
        for m in &engine.explain().maps {
            let live = m
                .analyze
                .as_ref()
                .expect("a live engine attaches its indexes");
            let entries = engine.view(&m.name).unwrap().len() as u64;
            let (counts, ctx) = (
                (
                    live.get("indexes.hash"),
                    live.get("indexes.ordered"),
                    live.get("indexes.entries"),
                ),
                &m.name,
            );
            assert_eq!(counts, (0, 1, entries), "{name}: {ctx}");
            indexed += entries;
        }
        let views = declared.iter().map(|d| reference.view(&d.map));
        let total: usize = views.map(|v| v.unwrap().len()).sum();
        assert_eq!(indexed, total as u64, "{name}: indexed entries");
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
    let mut events = book_stream(77, 420);
    let mut id = 10_000;
    plant(&mut events, 400, &mut id, 8, (None, f64::NAN), 1.0);
    let (big, coarse) = ((1u64 << 53) as f64, (1u64 << 20) as f64);
    plant(&mut events, 310, &mut id, 7, (None, big), coarse);
    plant(&mut events, 205, &mut id, 6, (None, -0.0), 1.0);
    plant(&mut events, 100, &mut id, 5, (None, 0.5), 1.0);
    // Cancelled before it is placed.
    let early = order(50, 20_000, 5, 3, 4);
    events.insert(130, UpdateEvent::delete("Bids", early.clone()));
    events.insert(180, UpdateEvent::insert("Bids", early));

    // Not vacuous: every offending broker has a result, broker 8's is NaN.
    let names = ["axf", "bsp"];
    let reevaluate = common::workload_program(&names, CompileMode::Reevaluate);
    let expected = common::per_event(&reevaluate, &common::workload_catalog(), &events);
    for (name, broker) in names.iter().flat_map(|n| [5, 6, 7, 8].map(|b| (n, b))) {
        let view = expected.view(name).unwrap();
        let rows = view.iter().filter(|(k, _)| k[0] == Value::long(broker));
        let values: Vec<f64> = rows.map(|(_, m)| m).collect();
        let nan = broker != 8 || values.iter().any(|m| m.is_nan());
        let found = !values.is_empty() && nan;
        assert!(found, "{name}: broker {broker}: {values:?}");
    }

    let case = book_case(&["axf", "bsp"], events);
    let at = |&mode| [1, 8, 512].map(move |n| Point::plain(mode, Partition::Fixed(n)));
    let points: Vec<Point> = common::MODES[..3].iter().flat_map(at).collect();
    for (p, outcome) in points.iter().zip(common::check(&case, &points)) {
        // Both ways of answering a range sum were taken.
        let views = outcome.engine.telemetry().unwrap().snapshot().views;
        let views = views.iter().filter(|v| names.contains(&&*v.name));
        for v in views.filter(|_| p.mode == HO) {
            assert!(
                v.get("range_sum_hits") > 0 && v.get("range_sum_bails") > 0,
                "{p}: {v:?}"
            );
        }
    }
}

/// Plant, at `at`, an offender on each side of the book — an order of
/// `broker` whose volume is `volume` and, if given, whose price is `price` —
/// among ordinary orders of the broker whose volumes are multiples of
/// `unit`: ordinary orders around the offenders on both sides (so their
/// group is read while they are there), then the offenders' cancellation
/// where `volume - volume` is zero, then more ordinary orders. `id` numbers
/// the orders.
fn plant(
    events: &mut Vec<UpdateEvent>,
    at: usize,
    id: &mut i64,
    broker: i64,
    (price, volume): (Option<f64>, f64),
    unit: f64,
) {
    let mut order_at = |t: i64, price: i64, volume: f64| {
        *id += 1;
        let mut o = order(t, *id, broker, price, 0);
        o[4] = Value::double(volume);
        o
    };
    let (ins, del) = (UpdateEvent::insert, UpdateEvent::delete);
    let (mut offender, mut other) = (order_at(5, 2, volume), order_at(5, 6, volume));
    if let Some(price) = price {
        (offender[3], other[3]) = (Value::double(price), Value::double(price));
    }
    let mut run = vec![
        ins("Bids", order_at(3, 1, unit)),
        ins("Asks", order_at(4, 5, 2.0 * unit)),
        ins("Bids", offender.clone()),
        ins("Asks", other.clone()),
        ins("Bids", order_at(6, 7, 3.0 * unit)),
        ins("Asks", order_at(7, 1, unit)),
        ins("Bids", order_at(8, 4, 2.0 * unit)),
    ];
    if !volume.is_nan() {
        run.extend([del("Bids", offender), del("Asks", other)]);
    }
    let (ask, bid) = (order_at(9, 3, 4.0 * unit), order_at(9, 6, unit));
    run.extend([ins("Asks", ask), ins("Bids", bid)]);
    events.splice(at..at, run);
}

/// The same offenders under the nested aggregates, whose band sums over
/// prices are looked up in the price maps' ordered indexes: while an order
/// whose volume is 0.5, 2^53 or NaN, or whose price is 0.5, is in the book,
/// every lookup into its side walks, and so does the sum of the prices
/// inside the cut (−0.0 leaves no entry to offend with);
/// and while a bid cancelled before it is placed is out of the book, its
/// price holds a negative net volume, the band sums are not monotone in the
/// price, and every refresh runs its quantile filters row by row.
/// Every ordinary volume is a multiple of 2^20, so with a 2^53 volume in the
/// book every sum is still exact in any order. `vwap` and `mst` answer what
/// re-evaluation answers, bit for bit, after every event — a `:=` result
/// depends on the last event's maps only, so the final state alone would
/// not show a wrong lookup while an offender was there — and in every
/// incremental mode at batch 1, 8 and 512 they end where per-event
/// processing and the recomputed definitions end.
#[test]
fn order_book_offenders_walk_nested_range_sums_and_match_reevaluation() {
    let unit = (1u64 << 20) as f64;
    let mut events = book_stream(78, 120);
    for e in &mut events {
        let volume = e.tuple[4].as_f64().unwrap();
        e.tuple[4] = Value::double(volume * unit);
    }
    let mut id = 10_000;
    let big = (1u64 << 53) as f64;
    let offenders = [
        (None, f64::NAN),
        (None, big),
        (Some(0.5), unit),
        (None, -0.0),
    ];
    for (at, bad) in [118, 90, 60, 30].into_iter().zip(offenders) {
        plant(&mut events, at, &mut id, 1, bad, unit);
    }
    plant(&mut events, 5, &mut id, 2, (None, 0.5), unit);
    // Cancelled before it is placed, at a price no other order has, with
    // about a quarter of the volume above it: while it is out, `vwap`'s
    // filter passes the prices just below it, fails those just above and
    // passes the top ones — no search finds that.
    let mut early = order(40, 30_000, 2, 0, 0);
    (early[3], early[4]) = (Value::double(2_750.0), Value::double(40.0 * unit));
    events.insert(100, UpdateEvent::insert("Bids", early.clone()));
    events.insert(40, UpdateEvent::delete("Bids", early));

    let catalog = common::workload_catalog();
    for name in ["vwap", "mst"] {
        let programs = [HO, CompileMode::Reevaluate].map(|m| common::workload_program(&[name], m));
        let [mut ho, mut reevaluated] = programs.clone().map(|p| Engine::new(p, &catalog));
        for (i, e) in events.iter().enumerate() {
            ho.process(e).unwrap();
            reevaluated.process(e).unwrap();
            let want = |n: &str| (n == name).then(|| reevaluated.view(n)).flatten();
            let got = |n: &str| (n == name).then(|| ho.view(n)).flatten();
            let diff = common::views_differ(&programs[1], &want, &got, &|_| 0.0);
            assert!(
                diff.is_none(),
                "{name} after event {i} ({e:?}): {}",
                diff.unwrap()
            );
        }
        // Not vacuous: the NaN reached the result.
        let view = reevaluated.view(name).unwrap();
        assert!(view.iter().any(|(_, m)| m.is_nan()), "{name}: {view}");

        let case = book_case(&[name], events.clone());
        let at = |&mode| [1, 8, 512].map(move |n| Point::plain(mode, Partition::Fixed(n)));
        let points: Vec<Point> = common::MODES[..3].iter().flat_map(at).collect();
        // Both ways of answering a band sum were taken, over the
        // higher-order points together: a batch of 512 holds the whole
        // stream, so its bids are one run, whose `:=` tail reads the band
        // sums only once, against the final book.
        let (mut hits, mut bails) = (0, 0);
        for (p, outcome) in points.iter().zip(common::check(&case, &points)) {
            let views = outcome.engine.telemetry().unwrap().snapshot().views;
            for v in views.iter().filter(|v| p.mode == HO && v.name == name) {
                hits += v.get("range_sum_hits");
                bails += v.get("range_sum_bails");
            }
        }
        assert!(
            hits > 0 && bails > 0,
            "{name}: {hits} searches, {bails} walks"
        );
    }
}

// ---------------------------------------------------------------------------
// Replace-tail runs: `+=` statements, the base update, then `:=` once
// ---------------------------------------------------------------------------

/// The run shapes the `:=` tail has to get right, each planted as the batch
/// after a six-event prefix: the run's last event decides which sign
/// trigger's `:=` statements fire, and its entry may have cancelled in-run or
/// carry a net multiplicity beyond one. Every shape must land bit-exactly on
/// per-event processing and on the recomputed definitions in all compile
/// modes, with every run on its static dispatch; `result` must be live when
/// the run ends.
fn check_planted_tail_runs(case_of: &dyn Fn(Vec<UpdateEvent>) -> Case, runs: &[&str], out: &str) {
    for run in &runs[1..] {
        let relations = DeltaBatch::from_events(&events(run)).runs().len();
        assert_eq!(relations, 1, "{run}");
        let case = case_of(events(&format!("{}; {run}", runs[0])));
        let outcomes = common::check(&case, &common::in_all_modes(Partition::Sizes(&[6])));
        assert!(!outcomes[0].engine.view(out).unwrap().is_empty(), "{run}");
    }
}

/// `vwap`: three O(1) increments and the nested-aggregate `:=` per `Bids`
/// trigger — the program the `book_nested` benchmark serves. After a prefix
/// that stores one bid twice, the run's last event is an insert, then a
/// delete; its last entry nets to zero; net multiplicity +2 then −2 last; the
/// whole run cancels.
#[test]
fn vwap_replace_tail_planted_runs_batch_bit_exact() {
    let runs = [
        "+B 1 1 0 2 3; +B 1 2 0 5 2; +B 2 3 0 1 7; +B 2 4 0 6 4; +B 3 5 0 4 1; +B 3 5 0 4 1",
        "-B 1 2 0 5 2; +B 4 6 0 7 5; +B 4 7 0 3 9",
        "+B 4 6 0 7 5; +B 4 7 0 3 9; -B 2 3 0 1 7",
        "+B 4 6 0 7 5; -B 1 1 0 2 3; +B 4 7 0 3 9; -B 4 7 0 3 9",
        "+B 4 6 0 7 5; +B 4 6 0 7 5; -B 3 5 0 4 1; -B 3 5 0 4 1",
        "+B 4 6 0 7 5; -B 4 6 0 7 5",
    ];
    check_planted_tail_runs(&|events| book_case(&["vwap"], events), &runs, "vwap");
}

/// The generator's `Nested` shape: `S` carries one increment and the `:=`;
/// `R` only increments that read the map `S` maintains. The same run shapes
/// as `vwap`'s, but a whole run cancelling.
#[test]
fn nested_replace_tail_planted_runs_batch_bit_exact() {
    let runs = [
        "+R 1 2; +R 2 5; +R 3 9; +S 1 4; +S 2 3; +S 2 3",
        "-S 1 4; +S 3 1; +S 4 2",
        "+S 3 1; +S 4 2; -S 1 4",
        "+S 3 1; +S 4 2; -S 4 2",
        "+S 3 6; +S 3 6; -S 2 3; -S 2 3",
    ];
    let nested = || Source::Queries(vec![Shape::Nested.query()]);
    let triggers = Case::new(nested(), vec![]).compile(HO).triggers;
    let s = triggers.iter().filter(|t| t.relation == "S");
    let mut s_statements = s.flat_map(|t| &t.statements);
    assert!(s_statements.any(|s| s.op == StmtOp::Replace), "no tail");
    check_planted_tail_runs(&|events| Case::new(nested(), events), &runs, "NESTED");
}

/// A batch-delta run whose entries all cancel fires no `:=` tail: it left
/// the state unchanged, and its net stream — nothing, event by event — fires
/// nothing.
#[test]
fn a_cancelled_run_fires_no_tail() {
    let case = Case::new(Source::Queries(vec![Shape::Star.query()]), vec![]);
    let program = case.compile(CompileMode::Reevaluate);
    let events = events("-R 3 2; +R 3 2");
    let kept = common::batch_work(&program, &case.catalog, &events, 2);
    let net = common::net_work(&program, &case.catalog, &events, 2);
    let (kept, net) = (kept.statements, net.statements);
    assert!(kept <= net, "{kept} statements vs {net}");
}

/// Timing-free work guard for the tail: at batch 512 a `:=` statement is
/// evaluated once per run, not once per event — `vwap` in higher-order mode
/// (three increments per event plus the tail) and `q1` in re-evaluation mode
/// (nothing but tails) — and every run is counted as a batch-delta run. The
/// streams are insert-only with distinct keys, so firings equal events.
#[test]
fn replace_statements_fire_once_per_run_not_per_event() {
    let book = book_data(2_048);
    let mut tpch = workloads::tpch::generate(&workloads::TpchConfig::scaled(0.002, 42));
    tpch.truncate(1_024);
    for (name, mode, data) in [("vwap", HO, book), ("q1", CompileMode::Reevaluate, tpch)] {
        let program = common::workload_program(&[name], mode);
        let mut engine = common::engine_with(&program, &common::workload_catalog(), &data.tables);
        engine.set_run_recording(true);
        // Statements per firing, by kind, of each relation's insert trigger.
        fn shape(t: &Trigger) -> (&str, u64, u64) {
            let replaces = t.statements.iter().filter(|s| s.op == StmtOp::Replace);
            let (increments, replaces) = (t.increments().len(), replaces.count());
            (&t.relation, increments as u64, replaces as u64)
        }
        let inserts = |t: &&Trigger| t.sign == UpdateSign::Insert;
        let shape: Vec<_> = program.triggers.iter().filter(inserts).map(shape).collect();
        assert!(shape.iter().any(|s| s.2 > 0), "{name}: no `:=` left");
        let mut inserts = data.events;
        inserts.retain(|e| e.sign == UpdateSign::Insert && shape.iter().any(|s| s.0 == e.relation));
        let (mut expected, mut runs) = (0u64, 0u64);
        for chunk in inserts.chunks(512) {
            let batch = DeltaBatch::from_events(chunk);
            let report = engine.process_batch(&batch);
            assert!(report.first_error.is_none(), "{name}: {report:?}");
            for (run, rec) in batch.runs().iter().zip(&report.runs) {
                assert_eq!(rec.relation, run.relation(), "{name}");
                let (_, increments, replaces) =
                    shape.iter().find(|s| s.0 == run.relation()).unwrap();
                let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
                assert_eq!(firings, run.events(), "{name}: distinct insert keys");
                expected += increments * firings + replaces;
                runs += 1;
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.batch_delta_runs, runs, "{name}");
        let per_run = format!("{name}: {} events, {runs} runs", stats.events);
        assert!(runs < stats.events / 100, "{per_run}");
        let statements = stats.statements;
        assert_eq!(statements, expected, "{per_run}: a `:=` fired per event");
    }
}

/// `mddb1` has the workload's widest live pass (two statements reading
/// fourteen auxiliary maps their own run writes) and its aggregates are
/// genuine floats, so batches reassociate sums: every maintained map must
/// match per-event processing and its recomputed definition to a relative
/// 1e-9 rather than bit for bit.
#[test]
fn mddb1_live_pass_batches_match_per_event_within_float_tolerance() {
    let case = common::workload_case(&["mddb1"], usize::MAX, 7);
    common::check(&case, &higher_order(&[8, 64, 512].map(Partition::Fixed)));
}

/// Order-book data: `events` events of the finance generator at seed 42.
fn book_data(events: usize) -> Dataset {
    workloads::finance::generate(&FinanceConfig {
        events,
        seed: 42,
        ..Default::default()
    })
}

/// Timing-free guard for "promotion never costs work": the relations that
/// became batch-delta when the affine split went — their statements read
/// run-written state under a lift, comparison or `EXISTS`, or twice in one
/// product — do no more work in batches of 64 (their live pass) than the
/// same batches' net streams processed event by event, as they ran before
/// (`common::net_work`): Σ `entries_scanned` and `stats.statements` are
/// each no larger. (Per-event processing of the stream itself is no bound
/// on the entries scanned: a batch's net stream fires its events in another
/// order, and `mst` scans 0.25 % more at batch 64.)
#[test]
fn promoted_relations_do_no_more_work_than_entry_major() {
    let mut tpch = workloads::tpch::generate(&workloads::TpchConfig::scaled(0.002, 42));
    tpch.truncate(1_500);
    // None of these queries reads a static table.
    let catalog = common::workload_catalog();
    for (name, mode, events) in [
        ("q17a", HO, &tpch.events),
        ("q18a", HO, &tpch.events),
        ("vwap", CompileMode::FirstOrder, &book_data(600).events),
        ("psp", CompileMode::FirstOrder, &book_data(300).events),
        ("mst", CompileMode::NaiveViewlet, &book_data(200).events),
    ] {
        let program = common::workload_program(&[name], mode);
        // The two sides run side by side.
        let (live, net) = std::thread::scope(|s| {
            let net = s.spawn(|| common::net_work(&program, &catalog, events, 64));
            (
                common::batch_work(&program, &catalog, events, 64),
                common::joined(net),
            )
        });
        // Not vacuous: the live pass ran and the kernels scanned.
        let ctx = format!("{name} [{mode}]: batch-delta {live:?}, event by event {net:?}");
        assert!(live.live_firings > 0 && net.scanned > 0, "{ctx}");
        let scans = live.scanned <= net.scanned;
        assert!(scans && live.statements <= net.statements, "{ctx}");
    }
}

/// Timing-free regression guard for "a batch must never be slower than its
/// events": on a fixed 5k-event order book, the entries the kernels touch —
/// summed over every view's counters — at batch 8, 64 and 512 are no more
/// than the same sum at batch 1. Two designs have failed it: a cost gate that
/// re-routed large `Bids` runs to per-firing execution scanned the run once
/// per entry where it did not (5× to 100× the work); and any scheme that
/// answers a statement from two structures — the pre-run state plus
/// something holding the run's own writes — fails it once lookups are
/// searches, because `log a + log b > log (a + b)` (+4 % at batch 8, +38 %
/// at batch 512 on `bsp`). It holds
/// because a statement that reads what its run writes makes one lookup per
/// firing, into maps the run keeps current, exactly as per event.
///
/// The second assertion pins that a lookup is a search at all: a bucket of
/// this stream holds ~250 bids on average, a search compares under ten.
#[test]
fn order_book_batches_scan_no_more_than_their_events() {
    let data = book_data(5_000);
    let catalog = common::workload_catalog();
    for names in [&["bsp"][..], &["axf"][..], &["axf", "bsp", "bsv"][..]] {
        let program = common::workload_program(names, HO);
        let per_event = common::batch_work(&program, &catalog, &data.events, 1).scanned;
        assert!(per_event > 0, "{names:?}: the counters saw no scans");
        // `bsv` is O(1) per event and scans nothing; `axf` and `bsp` make two
        // range-sum scans per event each.
        let scans = data.events.len() as u64 * if names.len() == 1 { 1 } else { 3 };
        let traversal = format!("{names:?}: {per_event} entries for {scans} scans");
        assert!(per_event < 60 * scans, "{traversal}: not a search");
        for batch in [8, 64, 512] {
            let batched = common::batch_work(&program, &catalog, &data.events, batch).scanned;
            let touched = format!("{names:?}: batch {batch} touched {batched} entries");
            assert!(batched <= per_event, "{touched}, its events {per_event}");
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
    let catalog = common::workload_catalog();
    for name in ["axf", "bsp"] {
        let program = common::workload_program(&[name], HO);
        let measure = |events: usize| -> (f64, usize) {
            let data = book_data(events);
            let scanned = common::batch_work(&program, &catalog, &data.events, 1).scanned;
            let engine = common::per_event(&program, &catalog, &data.events);
            let buckets = program.ordered_indexes().into_iter();
            let bucket = buckets.map(|d| engine.view(&d.map).unwrap().len()).max();
            let bucket = bucket.unwrap();
            (scanned as f64 / events as f64, bucket)
        };
        let sweep = [5_000, 10_000, 20_000].map(measure);
        let ((small, small_bucket), (large, large_bucket)) = (sweep[0], sweep[2]);
        let ctx = format!("{name}: {sweep:?}");
        let grew = large_bucket as f64 >= 3.5 * small_bucket as f64;
        assert!(grew, "{ctx}: the buckets were meant to grow fourfold");
        let flat = small > 0.0 && large < 1.5 * small;
        assert!(flat, "{ctx}: entries per event follow the bucket");
    }
}

/// The nested aggregates' work oracle: `vwap` and `mst` compare a band sum
/// (`Σ volume above this price`) with a quarter of the total for every price
/// of the book on every event, and `mst` multiplies each bid row by a sum
/// over the asks that does not depend on the row. Walked per row, that is
/// quadratic — a stream four times as long costs ten times the entries per
/// event. With each band read from an ordered index the engine keeps, each
/// filter one search of it
/// (`order_book_nested_thresholds_search_once_per_refresh`) and each sum it
/// filters over one price column a walk of the prices inside the cut, what
/// is left per event is `O(log n + |cut|)` for `vwap` and the bids' loop for
/// `mst`: the entries per event must grow by less than six times, every
/// search answered from an index.
#[test]
fn order_book_nested_work_grows_n_log_n() {
    let catalog = common::workload_catalog();
    for name in ["vwap", "mst"] {
        let program = common::workload_program(&[name], HO);
        let measure = |events: usize| {
            let data = book_data(events);
            let work = common::batch_work(&program, &catalog, &data.events, 1);
            (work.scanned as f64 / events as f64, work.range_sums)
        };
        let sweep = [400, 1_600].map(measure);
        let ctx = format!("{name}: {sweep:?}");
        let [(small, (hits, bails)), (large, _)] = sweep;
        assert!(small > 0.0 && large < 6.0 * small, "{ctx}: quadratic");
        assert!(hits > 0 && bails == 0, "{ctx}: not answered from an index");
    }
}

/// The quantile filters' work oracle. Looked up per price, `vwap`'s band sum
/// costs a lookup and a filter per price of the book: 25.7 lookups an event
/// over 400 events and 83.9 over 1,600 (`mst`, filtering both sides of the
/// book: 222 and 740). Every volume of this book is non-negative, so each
/// band sum is monotone in the price and each filter is one search per
/// refresh: at both lengths at most four range sums an event (`mst` has
/// four filters). A refresh that sorted the band into a run per execution
/// and walked a `price × volume` map whole touched 55.3 and 172.6 entries
/// an event in `vwap`; searching the volume map's ordered index and walking
/// only the prices inside the cut, `vwap` touches at most a third of that,
/// every search answered from the index.
#[test]
fn order_book_nested_thresholds_search_once_per_refresh() {
    let catalog = common::workload_catalog();
    for name in ["vwap", "mst"] {
        let program = common::workload_program(&[name], HO);
        for (events, entries) in [(400, 55.3), (1_600, 172.6)] {
            let work = common::batch_work(&program, &catalog, &book_data(events).events, 1);
            let per_event = |n: u64| n as f64 / events as f64;
            let ((hits, bails), ctx) = (work.range_sums, format!("{name}, {events} events"));
            let lookups = per_event(hits + bails);
            assert!(lookups <= 4.0, "{ctx}: {lookups} range sums an event");
            assert!(
                hits > 0 && bails == 0,
                "{ctx}: {hits} searches, {bails} walks"
            );
            let scanned = per_event(work.scanned);
            let fewer = name != "vwap" || scanned <= entries / 3.0;
            assert!(fewer, "{ctx}: {scanned} entries an event");
        }
    }
}
