//! Batch-partition equivalence: the batch-first processing spine must be a
//! pure refactoring of event-at-a-time processing.
//!
//! For any stream and any partition of it into delta batches,
//! `Engine::process_batch` must end bit-exactly where `Engine::process` over
//! the events one at a time ends — in all four compile modes, with the live
//! passes kept (batch-delta) and cleared (every relation entry-major: runs of
//! one firing) — and both must equal every map's definition recomputed from
//! the final base relations. Three seeded slices of generated programs check
//! it through the shared driver (`common`): random partitions, the cases
//! with a `:=` tail or a star or cubic join, and live passes cleared.
//!
//! Pinned regressions follow: what a firing reads, hand-assembled programs
//! whose derivation bails, failing firings, the `:=` tail's run shapes, the
//! workload's order-book self-joins, and the work a batch does.

mod common;

use common::{Case, Hand, Partition, Point, Recompute, Shape, Source};
use dbtoaster::agca::{DeltaBatch, Expr, UpdateEvent, UpdateSign};
use dbtoaster::compiler::{BatchStrategy, CompileMode, StmtOp, Trigger, TriggerProgram};
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
/// star and the cubic chain are batch-delta and fire live; re-evaluation is
/// batch-delta and all tail; `NESTED`'s `:=` tails follow increments; without
/// live passes every run is entry-major. (The census pins the slices.)
#[test]
fn query_set_spans_both_batch_strategies() {
    use common::Shape::*;
    use BatchStrategy::{BatchDelta, EntryMajor};
    let batch_delta = |shapes: &[Shape], mode| {
        let specs = shapes.iter().map(|s| s.query()).collect();
        let program = Case::new(Source::Queries(specs), vec![]).compile(mode);
        let dispatch = program.batch_dispatch();
        let all = dispatch.iter().all(|d| d.strategy == BatchDelta);
        assert!(all, "{shapes:?} [{mode}]: {dispatch:?}");
        program
    };
    let live = |p: TriggerProgram| {
        let pass = p.live_pass_for("R").map(|lp| lp.statements.len());
        pass.unwrap_or(0) > 0
    };
    let main = [Single, EquiJoin, GroupBy, SelfJoin, ScaledSelfJoin];
    assert!(live(batch_delta(&main, HO)), "the self-joins fire live");
    for cubic in [Star, CubicChain] {
        assert!(live(batch_delta(&[cubic], HO)), "{cubic:?} fires live");
    }
    let reeval = batch_delta(&main, CompileMode::Reevaluate);
    for d in reeval.batch_dispatch() {
        assert!(common::has_tail(&reeval, &d.relation), "{}", d.relation);
    }
    let mut tails = 0;
    for t in &batch_delta(&[Nested], HO).triggers {
        let increments = t.increments().len();
        let tail = t.statements.len() - increments;
        assert!(tail == 0 || increments > 0, "{}: a bare tail", t.relation);
        tails += tail;
    }
    assert!(tails > 0, "NESTED lost its `:=` tail");

    // Entry-major: a program whose relations cannot batch, run by run.
    let star = common::underivable(&batch_delta(&[Star], HO));
    let mut engine = Engine::new(star, &common::catalog());
    engine.set_run_recording(true);
    let report = engine.process_batch(&DeltaBatch::from_events(&common::small_stream(5, 40)));
    assert!(report.first_error.is_none(), "{:?}", report.first_error);
    let runs = &report.runs;
    let entry_major = runs.iter().all(|r| r.strategy == EntryMajor);
    assert!(!runs.is_empty() && entry_major, "{runs:?}");
    assert_eq!(engine.stats().batch_delta_runs, 0);
}

/// Coverage guard for the served queries: every query the benchmark batches
/// must dispatch batch-delta on all of its stream relations in higher-order
/// mode, or the benchmark silently stops measuring the batch-delta path (and,
/// for `bsp`/`bsv`, its live pass). (The census in `explain_golden` pins
/// every other workload query batch-delta.)
#[test]
fn batch_sweep_queries_dispatch_batch_delta() {
    for name in ["q1", "q3", "q6", "axf", "bsp", "bsv"] {
        let dispatch = common::workload_program(&[name], HO).batch_dispatch();
        assert!(!dispatch.is_empty(), "{name}: no stream relations");
        for d in &dispatch {
            assert_eq!(d.strategy, BatchStrategy::BatchDelta, "{name}");
        }
    }
}

/// Regression twin of the trigger-variable-capture tests in
/// `plan_equivalence.rs`: self-join chains whose auxiliary maps are keyed by
/// trigger variables (the alpha-renamed `{map}@@k{i}` columns). The R×R×R
/// cubic chain used to panic at compile time and the R·S·R path chain used to
/// diverge; here they must additionally stay bit-exact under a random batch
/// partition, also firing by firing.
#[test]
fn trigger_variable_chains_batch_bit_exact_all_modes() {
    let case = common::shaped(&[Shape::PathChain, Shape::CubicChain], 7, 80);
    common::check(&case, &common::in_all_modes(Partition::Geometric(7)));
}

#[test]
fn trigger_variable_chains_batch_bit_exact_forced_entry_major() {
    let case = common::shaped(&[Shape::PathChain, Shape::CubicChain], 3, 80);
    let mut point = Point::plain(HO, Partition::Geometric(3));
    point.live = false;
    common::check(&case, &[point]);
}

#[test]
fn random_partitions_are_bit_exact() {
    common::run_slice(common::Lean::Batches);
}

#[test]
fn nested_and_cubic_random_partitions_are_bit_exact() {
    common::run_slice(common::Lean::Tails);
}

/// With the live passes cleared every run goes entry-major, as runs of one
/// firing, and must stay bit-exact with per-event processing.
#[test]
fn forced_entry_major_is_bit_exact() {
    common::run_slice(common::Lean::EntryMajor);
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

/// A relation whose derivation bails runs entry-major — the batch-delta
/// executor over runs of one firing — at every batch size: bit-exact with
/// per-event processing at batch 1, 8 and 64 and on a random partition (the
/// driver holds every run to the static, entry-major dispatch), and EXPLAIN
/// names the condition that bailed.
#[test]
fn underivable_relations_are_bit_exact_firing_by_firing() {
    for hand in common::HANDS {
        let Some(bail) = hand.bail() else { continue };
        let program = hand.program();
        let outcome = program.batch_delta_reason("R").expect("R has an outcome");
        assert_eq!(outcome.bail.as_ref(), Some(&bail));
        let case = common::assembled(hand, 11);
        let partitions = [1, 8, 64].map(Partition::Fixed);
        let partitions = [&partitions[..], &[Partition::Geometric(5)]].concat();
        let outcomes = common::check(&case, &higher_order(&partitions));
        let t = outcomes[0].engine.view("T").unwrap();
        assert!(!t.is_empty(), "{hand:?}");

        let ex = Engine::new(program, &case.catalog).explain();
        let r = ex.relations.iter().find(|r| r.relation == "R").unwrap();
        assert_eq!(r.strategy, "entry-major", "{hand:?}");
        let reason = format!("batch-delta ineligible: {}", bail.describe());
        assert_eq!(r.reason, reason, "{hand:?}");
    }
}

/// A failed event writes nothing. `N[a] += b` fails on a tuple whose `b` is
/// a string, after `M[a] += 1` — the statement before it — has been
/// evaluated. Per event and under every partition, the poison event must
/// leave `M`, `N` and the stored `R` as the stream without it leaves them,
/// count as one failed event, and let every other event apply.
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
    let poison = vec![Value::long(1), Value::str("x")];
    events.insert(120, UpdateEvent::insert("R", poison));

    let mut per_event = Engine::new(program.clone(), &common::catalog());
    let errors = common::failures(&mut per_event, &events);
    assert_eq!(errors.len(), 1, "exactly the poison fails: {errors:?}");
    assert!(!per_event.view("M").unwrap().is_empty());

    // The driver holds the batched maps to the per-event ones; here every
    // partition must also equal the stream without the poison.
    let without = Recompute::new(&common::catalog(), &Default::default(), &clean);
    let mut case = Case::new(Source::Program(program.clone()), events);
    case.poison = true;
    let fixed = [1, 2, 8, 64, 512].map(Partition::Fixed);
    let points = higher_order(&[&fixed[..], &[1, 2, 3].map(Partition::Geometric)].concat());
    for (p, o) in points.iter().zip(common::check(&case, &points)) {
        let failed: u64 = o.reports.iter().map(|r| r.failed_events).sum();
        assert!(failed == 1 && o.maps_agree, "{p}: {failed} failed");
        without.check(&format!("{p}"), &program, &|m| o.engine.view(m), 0.0);
        for e in o.reports.iter().filter_map(|r| r.first_error.as_ref()) {
            assert_eq!(Some(e), errors.first(), "{p}");
        }
    }
}

/// Open: one stream can fail different events batched and per event (see
/// `BatchReport::failed_events`). Per event, `S(2, "x")` meets `R(1, 2)`,
/// multiplies the string in, fails and writes nothing. As one first-order
/// batch the `R` insert and delete cancel before anything fires, the `S`
/// firing's products are zero, and the string is stored without a failure;
/// every later firing that reads it fails.
#[test]
#[ignore]
fn a_poison_fails_the_same_events_batched_and_per_event() {
    let (r, s) = (Expr::rel("R", ["a", "b"]), Expr::rel("S", ["b", "c"]));
    let q = common::scalar_query(vec![r, s, Expr::var("c")]);
    let mut case = Case::new(Source::Queries(vec![q]), events("+R 1 2; +S 2 x; -R 1 2"));
    case.poison = true;
    let point = Point::plain(CompileMode::FirstOrder, Partition::Fixed(3));
    let outcome = common::check(&case, &[point]).remove(0);
    let failed: u64 = outcome.reports.iter().map(|r| r.failed_events).sum();
    assert_eq!(failed, outcome.per_event_failures);
    assert!(outcome.maps_agree);
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
    let mut plant = |events: &mut Vec<UpdateEvent>, at: usize, broker: i64, bad: f64, unit: f64| {
        // Ordinary orders around the offender on both sides of the book (so
        // its group is read while it is there), then the offender's own
        // cancellation where `bad - bad` is zero, then more ordinary orders.
        let mut order_at = |t: i64, price: i64, volume: f64| {
            id += 1;
            let mut o = order(t, id, broker, price, 0);
            o[4] = Value::double(volume);
            o
        };
        let (ins, del) = (UpdateEvent::insert, UpdateEvent::delete);
        let (offender, other) = (order_at(5, 2, bad), order_at(5, 6, bad));
        let mut run = vec![
            ins("Bids", order_at(3, 1, unit)),
            ins("Asks", order_at(4, 5, 2.0 * unit)),
            ins("Bids", offender.clone()),
            ins("Asks", other.clone()),
            ins("Bids", order_at(6, 7, 3.0 * unit)),
            ins("Asks", order_at(7, 1, unit)),
            ins("Bids", order_at(8, 4, 2.0 * unit)),
        ];
        if !bad.is_nan() {
            run.extend([del("Bids", offender), del("Asks", other)]);
        }
        let (ask, bid) = (order_at(9, 3, 4.0 * unit), order_at(9, 6, unit));
        run.extend([ins("Asks", ask), ins("Bids", bid)]);
        events.splice(at..at, run);
    };
    plant(&mut events, 400, 8, f64::NAN, 1.0);
    let (big, coarse) = ((1u64 << 53) as f64, (1u64 << 20) as f64);
    plant(&mut events, 310, 7, big, coarse);
    plant(&mut events, 205, 6, -0.0, 1.0);
    plant(&mut events, 100, 5, 0.5, 1.0);
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
            assert!(v.range_sum_hits > 0 && v.range_sum_bails > 0, "{p}: {v:?}");
        }
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

/// Open: a batch-delta run whose entries all cancel still fires its `:=`
/// tail, re-evaluating a state it did not change; firing by firing, the
/// cancelled entry fires nothing. (The work oracle skips such batches.)
#[test]
#[ignore]
fn a_cancelled_run_fires_no_tail() {
    let case = Case::new(Source::Queries(vec![Shape::Star.query()]), vec![]);
    let program = case.compile(CompileMode::Reevaluate);
    let events = events("-R 3 2; +R 3 2");
    let kept = common::batch_work(&program, &case.catalog, &events, 2);
    let cleared = common::batch_work(&common::underivable(&program), &case.catalog, &events, 2);
    let (kept, cleared) = (kept.statements, cleared.statements);
    assert!(kept <= cleared, "{kept} statements vs {cleared}");
}

/// A poison event in the middle of a replace-tail run: an order whose volume
/// is a string fails `vwap`'s first increment. Collection aborts before
/// anything is applied and the run replays entry-major, so the report's
/// failure count and first error, and every map, equal per-event processing —
/// there is no per-entry failure bookkeeping on the batch path to get wrong.
#[test]
fn poison_event_in_a_replace_tail_run_matches_per_event() {
    let prefix = "+B 1 1 0 2 3; +B 2 2 0 5 2";
    let run = "+B 3 3 0 1 7; +B 4 4 0 6 4; +B 5 8 0 4 x; -B 1 1 0 2 3; +B 6 9 0 3 2";
    check_poisoned_run(&["vwap"], &[HO], prefix, run);
}

/// The `:=` tail's residue (see `BatchReport::failed_events`): a failing
/// re-evaluation counts once per run, not once per event, and keeps its
/// targets where the run before left them. In re-evaluation mode `vwap`'s
/// triggers are nothing but `:=` statements over the stored `Bids`; an order
/// whose volume is a string is stored by its own firing (the base update
/// precedes the tail) and makes every later re-evaluation fail. Per event
/// that is one failure per event from the poison on; a batch-delta run fires
/// the tail once, for its last event, and reports one failure per run. When
/// the poison opens its run the maps agree — `vwap` keeps the last value
/// computed before it either way. When it follows other orders in its run,
/// per-event processing has re-evaluated `vwap` over them and the batch has
/// not: the maps differ, and the batch has said so.
#[test]
fn poisoned_replace_tail_fails_once_per_run_not_per_event() {
    let (prefix, poison) = ("+B 1 1 0 2 3; +B 2 2 0 5 2", "+B 5 8 0 4 x");
    let (run, after) = (
        ["+B 3 3 0 1 7", "-B 1 1 0 2 3", "+B 4 4 0 6 4"],
        "+B 6 9 0 3 2; +B 7 10 0 2 5; -B 2 2 0 5 2",
    );
    for (at, agree) in [(0, true), (2, false)] {
        let (before, rest) = run.split_at(at);
        let run = [before, &[poison], rest].concat().join("; ");
        let mut case = book_case(&["vwap"], events(&format!("{prefix}; {run}; {after}")));
        case.poison = true;
        let point = Point::plain(CompileMode::Reevaluate, Partition::Sizes(&[2, 4]));
        let outcome = common::check(&case, &[point]).remove(0);
        assert_eq!(outcome.per_event_failures, 7 - at as u64, "one per event");
        assert_eq!(outcome.maps_agree, agree, "poison {at} into its run");
        for report in &outcome.reports[1..] {
            assert_eq!(report.failed_events, 1, "one per run");
            assert_eq!(report.runs.len(), 1);
            assert_eq!(report.runs[0].strategy, BatchStrategy::BatchDelta);
        }
    }
}

/// `prefix`, then `run` with a poison order in it, through `names` in each of
/// `modes`: per event only the poison fails; as one batch the run fails once,
/// replays entry-major, and ends where per-event processing ends — which is
/// the stream without the poison, since it failed before writing anything.
/// Returns the live-pass firings the run's batch made, per mode.
fn check_poisoned_run(names: &[&str], modes: &[CompileMode], prefix: &str, run: &str) -> Vec<u64> {
    let (prefix, run) = (events(prefix), events(run));
    let events: Vec<UpdateEvent> = prefix.iter().chain(&run).cloned().collect();
    let mut applied = events.clone();
    applied.retain(|e| !matches!(e.tuple[4], Value::Str(_)));
    let catalog = common::workload_catalog();
    let oracle = Recompute::new(&catalog, &Default::default(), &applied);
    let mut firings = Vec::new();
    for &mode in modes {
        let program = common::workload_program(names, mode);
        let mut reference = Engine::new(program.clone(), &catalog);
        let errors = common::failures(&mut reference, &events);
        assert_eq!(errors.len(), 1, "[{mode}] only the poison fails");
        assert!(!reference.view(names[0]).unwrap().is_empty(), "[{mode}]");

        let mut batched = Engine::new(program.clone(), &catalog);
        let tel = common::instrument(&mut batched);
        let report = batched.process_batch(&DeltaBatch::from_events(&prefix));
        assert!(report.first_error.is_none());
        let before = common::work(&mut batched, &tel).live_firings;
        let report = batched.process_batch(&DeltaBatch::from_events(&run));
        let counts = (report.events, report.failed_events);
        assert_eq!(counts, (run.len() as u64, 1), "[{mode}]");
        assert_eq!(report.first_error.as_ref(), errors.first(), "[{mode}]");
        let strategies: Vec<BatchStrategy> = report.runs.iter().map(|r| r.strategy).collect();
        assert_eq!(strategies, [BatchStrategy::EntryMajor], "replayed");
        firings.push(common::work(&mut batched, &tel).live_firings - before);
        assert_eq!(batched.stats().events, reference.stats().events);
        let ctx = format!("poisoned run [{mode}]");
        common::assert_engines(&ctx, &reference, &batched);
        oracle.check(&ctx, &program, &|m| batched.view(m), 0.0);
    }
    firings
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
    let prefix = "+B 1 1 0 2 3; +B 2 2 0 5 2";
    let run = "+B 3 3 0 1 7; -B 1 1 0 2 3; +B 5 8 0 4 x; +B 6 9 0 3 2";
    let firings = check_poisoned_run(&["bsp"], &common::MODES[..3], prefix, run);
    // Not vacuous: in first-order mode the pass had fired (and written the
    // stored slice) before it met the poison, and then replayed.
    assert!(firings[1] >= 2, "{firings:?}");
}

/// Timing-free work guard for the tail: at batch 512 a `:=` statement is
/// evaluated once per run, not once per event — `vwap` in higher-order mode
/// (three increments per event plus the tail) and `q1` in re-evaluation mode
/// (nothing but tails) — and no run leaves batch-delta. The streams are
/// insert-only with distinct keys, so firings equal events.
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
                assert_eq!(rec.strategy, BatchStrategy::BatchDelta, "{name}");
                let (_, increments, replaces) =
                    shape.iter().find(|s| s.0 == run.relation()).unwrap();
                let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
                assert_eq!(firings, run.events(), "{name}: distinct insert keys");
                expected += increments * firings + replaces;
                runs += 1;
            }
        }
        let stats = engine.stats();
        let run_counts = (stats.entry_major_runs, stats.batch_delta_runs);
        assert_eq!(run_counts, (0, runs), "{name}");
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
/// same batches run entry-major, firing by firing, as they ran before:
/// Σ `entries_scanned` and `stats.statements` are each no larger. (Per-event
/// processing is no bound on the entries scanned: a batch's net stream fires
/// its events in another order, and `mst` scans 0.25 % more at batch 64.)
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
        let cleared = common::underivable(&program);
        let (live, entry_major) = std::thread::scope(|s| {
            let entry_major = s.spawn(|| common::batch_work(&cleared, &catalog, events, 64));
            (
                common::batch_work(&program, &catalog, events, 64),
                common::joined(entry_major),
            )
        });
        // Not vacuous: the live pass ran and the kernels scanned.
        let ctx = format!("{name} [{mode}]: batch-delta {live:?}, entry-major {entry_major:?}");
        assert!(live.live_firings > 0 && entry_major.scanned > 0, "{ctx}");
        let scans = live.scanned <= entry_major.scanned;
        assert!(scans && live.statements <= entry_major.statements, "{ctx}");
    }
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
