//! Heap-allocation smoke test for the per-event hot path.
//!
//! The paper's headline claim is that a single-tuple update costs a handful of
//! constant-time map probes. This test pins the allocator side of that claim:
//! in steady state, processing an event through the compiled kernels must not
//! allocate at all — no key-vector clones or result materialization hiding in
//! the trigger path — and a snapshot allocates per view, not per entry. The
//! same allocator counts live bytes, which pins what the engine's resident
//! state costs against what `memory_bytes` charges for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Per thread: the tests of this binary run concurrently, and each must
    // count only the allocations of its own engine.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// `try_with`: the allocator also runs while a thread's locals are torn down.
fn count_one(grown: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    count_bytes(grown);
}

fn count_bytes(grown: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + grown));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::{compile, CompileMode, CompileOptions, QuerySpec, RelationMeta};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::Engine;

fn build_engine() -> Engine {
    // Example 2 shape: Sum[]( O(ok, xch) * LI(ok, price) * xch * price ) — an
    // equijoin aggregate, the canonical single-tuple-update workload.
    let catalog = [
        RelationMeta::stream("O", ["OK", "XCH"]),
        RelationMeta::stream("LI", ["OK", "PRICE"]),
    ]
    .into_iter()
    .collect();
    let q = QuerySpec {
        name: "Q".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("O", ["ok", "xch"]),
                Expr::rel("LI", ["ok", "price"]),
                Expr::var("xch"),
                Expr::var("price"),
            ]),
        ),
    };
    let program = compile(
        &[q],
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    Engine::new(program, &catalog)
}

fn events(n: i64, offset: i64) -> Vec<UpdateEvent> {
    (0..n)
        .flat_map(|i| {
            let k = offset + i;
            [
                UpdateEvent::insert("O", vec![Value::long(k), Value::double(2.0)]),
                UpdateEvent::insert("LI", vec![Value::long(k), Value::double(10.0)]),
            ]
        })
        .collect()
}

/// A steady-state churn batch: inserts and the matching deletes over a fixed
/// key range, so the maps stop growing after the first pass and the only cost
/// left is the per-event trigger work itself.
fn churn_events(keys: i64) -> Vec<UpdateEvent> {
    (0..keys)
        .flat_map(|k| {
            [
                UpdateEvent::insert("O", vec![Value::long(k), Value::double(2.0)]),
                UpdateEvent::insert("LI", vec![Value::long(k), Value::double(10.0)]),
                UpdateEvent::delete("O", vec![Value::long(k), Value::double(2.0)]),
                UpdateEvent::delete("LI", vec![Value::long(k), Value::double(10.0)]),
            ]
        })
        .collect()
}

/// The compiled-kernel path must process events with **zero** heap
/// allocations in steady state: the frame, pattern buffers and row buffer are
/// engine-owned and recycled, keys of typical arity are inline, and a probe
/// never materializes results.
#[test]
fn compiled_path_allocates_nothing_in_steady_state() {
    let mut engine = build_engine();
    // Two warm-up passes: size every buffer, touch every map entry shape.
    let batch = churn_events(64);
    engine.process_all(&batch).unwrap();
    engine.process_all(&batch).unwrap();

    let before = alloc_count();
    engine.process_all(&batch).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "compiled path allocated {allocs} times over {} steady-state events",
        batch.len()
    );
}

/// Telemetry must not cost the hot path its zero-allocation property: with an
/// enabled handle attached, the steady-state compiled path still allocates
/// nothing. Histogram recording goes into engine-owned plain-integer buffers,
/// the periodic flush folds them with atomic adds, and the slow-batch tracer
/// only allocates when it assembles a trace (parked here via an unreachable
/// threshold, as a latency-sensitive deployment would configure it).
#[test]
fn compiled_path_with_telemetry_allocates_nothing_in_steady_state() {
    use dbtoaster_runtime::{Telemetry, TelemetryConfig};
    let mut engine = build_engine();
    let tel = Telemetry::with_config(TelemetryConfig {
        slow_batch_threshold: std::time::Duration::from_secs(3600),
    });
    engine.set_telemetry(tel.clone());
    let batch = churn_events(64);
    engine.process_all(&batch).unwrap();
    engine.process_all(&batch).unwrap();

    let before = alloc_count();
    engine.process_all(&batch).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "telemetry-enabled compiled path allocated {allocs} times over {} steady-state events",
        batch.len()
    );
    // And the samples actually landed: one per event (each process() call is
    // a batch of one), visible after an explicit flush.
    engine.flush_telemetry();
    let snap = tel.snapshot();
    assert_eq!(snap.batch_latency.count, 3 * batch.len() as u64);
    assert_eq!(snap.events, 3 * batch.len() as u64);
}

/// A spilled key built from a slice costs one allocation: its slab, filled
/// in place, with no staging vector in between. So does one projected by
/// an iterator of known length.
#[test]
fn a_wide_tuple_from_a_slice_allocates_once() {
    use dbtoaster_gmr::tuple::{project, Tuple};
    let values: Vec<Value> = (0..8).map(Value::long).collect();
    let before = alloc_count();
    let tuple = Tuple::from(values.as_slice());
    let allocs = alloc_count() - before;
    assert!(!tuple.is_inline());
    assert_eq!(tuple, values);
    assert_eq!(
        allocs, 1,
        "an arity-8 tuple from a slice allocated {allocs} times"
    );
    let before = alloc_count();
    let projected = project(&values, &[7, 6, 5, 4, 3]);
    let allocs = alloc_count() - before;
    assert_eq!(projected.len(), 5);
    assert_eq!(allocs, 1, "an arity-5 projection allocated {allocs} times");
}

/// An event wider than `INLINE_CAP` allocates nothing either: `process`
/// reads the event's tuple in place, so an arity-8 stream whose base map is
/// not stored, churned through a keyed `+=` statement, reads 0 per call in
/// steady state — and so does an arity-8 relation no view reads, interleaved
/// in the same stream.
#[test]
fn wide_events_allocate_nothing_in_steady_state() {
    let columns = ["A", "B", "C", "D", "E", "F", "G", "H"];
    let catalog = [
        RelationMeta::stream("W", columns),
        RelationMeta::stream("INERT", columns),
    ]
    .into_iter()
    .collect();
    let vars = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let q = QuerySpec {
        name: "BY_A".into(),
        out_vars: vec!["a".into()],
        expr: Expr::agg_sum(
            ["a"],
            Expr::product_of([Expr::rel("W", vars), Expr::var("h")]),
        ),
    };
    let program = compile(
        &[q],
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    assert!(program.stored_relations.is_empty(), "no base map is stored");
    let mut engine = Engine::new(program, &catalog);

    let row = |k: i64| (0..8).map(|c| Value::long(k % 4 + c)).collect::<Vec<_>>();
    let churn: Vec<UpdateEvent> = (0..64)
        .flat_map(|k| {
            [
                UpdateEvent::insert("W", row(k)),
                UpdateEvent::insert("INERT", row(k)),
                UpdateEvent::delete("W", row(k)),
                UpdateEvent::delete("INERT", row(k)),
            ]
        })
        .collect();
    engine.process_all(&churn).unwrap();
    engine.process_all(&churn).unwrap();

    let before = alloc_count();
    engine.process_all(&churn).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "arity-8 events allocated {allocs} times over {} steady-state calls",
        churn.len()
    );
    // Not vacuous: every event was admitted and the statement ran.
    assert_eq!(engine.stats().events, 3 * churn.len() as u64);
    assert!(engine.stats().statements >= 3 * churn.len() as u64 / 2);
}

/// Two keyed relations of 5 and 8 columns, like TPC-H's Orders and
/// Lineitem, each summed by its first column (`BY_FIVE`, `BY_EIGHT`),
/// neither base map stored.
fn five_and_eight_engine() -> Engine {
    let (five, eight) = (
        ["A", "B", "C", "D", "E"],
        ["A", "B", "C", "D", "E", "F", "G", "H"],
    );
    let catalog = [
        RelationMeta::stream("FIVE", five),
        RelationMeta::stream("EIGHT", eight),
    ]
    .into_iter()
    .collect();
    let query = |name: &str, rel: &str, arity: usize| {
        let vars: Vec<String> = (0..arity).map(|c| format!("v{c}")).collect();
        let last = vars[arity - 1].clone();
        QuerySpec {
            name: name.into(),
            out_vars: vec!["v0".into()],
            expr: Expr::agg_sum(
                ["v0"],
                Expr::product_of([Expr::rel(rel, vars), Expr::var(last)]),
            ),
        }
    };
    let program = compile(
        &[query("BY_FIVE", "FIVE", 5), query("BY_EIGHT", "EIGHT", 8)],
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    assert!(program.stored_relations.is_empty(), "no base map is stored");
    Engine::new(program, &catalog)
}

/// A stream that switches relations allocates nothing either: `process`
/// reads each event in place, whatever the arity of the one before it: the
/// two relations of [`five_and_eight_engine`] alternate on every event.
#[test]
fn alternating_arities_allocate_nothing_in_steady_state() {
    let mut engine = five_and_eight_engine();

    let row = |k: i64, arity: i64| {
        (0..arity)
            .map(|c| Value::long(k % 4 + c))
            .collect::<Vec<_>>()
    };
    let churn: Vec<UpdateEvent> = (0..64)
        .flat_map(|k| {
            [
                UpdateEvent::insert("FIVE", row(k, 5)),
                UpdateEvent::insert("EIGHT", row(k, 8)),
                UpdateEvent::delete("FIVE", row(k, 5)),
                UpdateEvent::delete("EIGHT", row(k, 8)),
            ]
        })
        .collect();
    engine.process_all(&churn).unwrap();
    engine.process_all(&churn).unwrap();

    let before = alloc_count();
    engine.process_all(&churn).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "alternating arity-5 and arity-8 events allocated {allocs} times over {} steady-state calls",
        churn.len()
    );
    // Not vacuous: every event was admitted and its statement ran.
    assert_eq!(engine.stats().events, 3 * churn.len() as u64);
    assert_eq!(engine.stats().statements, 3 * churn.len() as u64);
}

/// A recycled batch refilled with owned events allocates nothing: each
/// event's tuple moves in as its entry's key (the `Tuple` key made one slab
/// per event wider than `INLINE_CAP`). Lineitem-shaped (arity 8) and
/// Orders-shaped (arity 5) rows interleave, with both signs and one
/// insert/delete pair that cancels; two batches alternate, each undoing the
/// other, and `process_batch` over them allocates nothing either. The
/// events are cloned before the count starts.
#[test]
fn refilling_a_batch_with_owned_events_allocates_nothing_in_steady_state() {
    use dbtoaster_agca::{DeltaBatch, UpdateSign};
    let mut engine = five_and_eight_engine();

    let row = |k: i64, arity: i64| {
        (0..arity)
            .map(|c| Value::long(10 * k + c))
            .collect::<Vec<_>>()
    };
    // `up` inserts keys 0..32 and deletes 32..64; its mirror undoes it.
    let mut up: Vec<UpdateEvent> = (0..32)
        .flat_map(|k| {
            [
                UpdateEvent::insert("EIGHT", row(k, 8)),
                UpdateEvent::insert("FIVE", row(k, 5)),
                UpdateEvent::delete("EIGHT", row(k + 32, 8)),
                UpdateEvent::delete("FIVE", row(k + 32, 5)),
            ]
        })
        .collect();
    up.insert(40, UpdateEvent::insert("EIGHT", row(99, 8)));
    up.insert(90, UpdateEvent::delete("EIGHT", row(99, 8)));
    let mirror = |e: &UpdateEvent| match e.sign {
        UpdateSign::Insert => UpdateEvent::delete(&e.relation, e.tuple.clone()),
        UpdateSign::Delete => UpdateEvent::insert(&e.relation, e.tuple.clone()),
    };
    let down: Vec<UpdateEvent> = up.iter().map(mirror).collect();
    let passes: Vec<Vec<UpdateEvent>> = (0..8).map(|i| [&up, &down][i % 2].clone()).collect();
    let mut delta = DeltaBatch::new();
    let (mut refills, mut processing) = (Vec::new(), Vec::new());
    for events in passes {
        let before = alloc_count();
        delta.refill(events);
        refills.push(alloc_count() - before);
        let before = alloc_count();
        let report = engine.process_batch(&delta);
        processing.push(alloc_count() - before);
        assert!(report.first_error.is_none());
    }
    assert_eq!(
        (&refills[2..], &processing[2..]),
        (&[0; 6][..], &[0; 6][..]),
        "refill and process_batch allocated {refills:?} and {processing:?} times per batch \
         of {} owned events",
        delta.events()
    );
    // Not vacuous: both runs are there, the pair cancelled, the rest ran.
    let runs: Vec<_> = delta
        .runs()
        .iter()
        .map(|r| (r.arity(), r.entries().len()))
        .collect();
    assert_eq!(runs, [(8, 65), (5, 64)]);
    assert_eq!((delta.events(), delta.collapsed_events()), (130, 2));
    assert_eq!(engine.stats().events, 8 * 130);
    assert!(engine.view("BY_EIGHT").unwrap().is_empty());
}

/// A stored base map wider than `INLINE_CAP` takes a key only when the key
/// enters it: first-order IVM of `Sum(W(a..e) * V(a..e))` stores both arity-5
/// relations, and each event probes the other one fully bound and writes
/// its own. An event of a key the map holds allocates nothing; one that
/// brings a new key allocates exactly its slab, also after a cold read of
/// the map (`Engine::view`), which does not start its snapshot log.
#[test]
fn a_stored_wide_base_map_allocates_only_a_new_key() {
    let columns = ["A", "B", "C", "D", "E"];
    let catalog = [
        RelationMeta::stream("W", columns),
        RelationMeta::stream("V", columns),
    ]
    .into_iter()
    .collect();
    let vars = ["a", "b", "c", "d", "e"];
    let q = QuerySpec {
        name: "Q".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("W", vars), Expr::rel("V", vars)]),
        ),
    };
    let program = compile(
        &[q],
        &catalog,
        &CompileOptions::for_mode(CompileMode::FirstOrder),
    )
    .unwrap();
    assert!(
        program.stored_relations.contains("W"),
        "W's base map is stored"
    );
    let mut engine = Engine::new(program, &catalog);

    let row = |k: i64| (0..5).map(|c| Value::long(k + c)).collect::<Vec<_>>();
    let held: Vec<UpdateEvent> = (0..64)
        .flat_map(|k| {
            [
                UpdateEvent::insert("W", row(k)),
                UpdateEvent::insert("V", row(k)),
            ]
        })
        .collect();
    let churn: Vec<UpdateEvent> = (0..64)
        .flat_map(|k| {
            [
                UpdateEvent::insert("W", row(k)),
                UpdateEvent::insert("V", row(k)),
                UpdateEvent::delete("W", row(k)),
                UpdateEvent::delete("V", row(k)),
            ]
        })
        .collect();
    engine.process_all(&held).unwrap();
    engine.process_all(&churn).unwrap();
    engine.process_all(&churn).unwrap();

    let before = alloc_count();
    engine.process_all(&churn).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "events of held arity-5 keys allocated {allocs} times over {} calls",
        churn.len()
    );

    // A cold read copies the map and leaves its snapshot log off, so the
    // writes after it log nothing.
    let cold = engine.view("W").unwrap();
    assert_eq!((cold.len(), cold.get(&row(7))), (64, 1.0));

    // A new key: one slab, and none for the event that takes it out again.
    let (fresh, gone) = (
        UpdateEvent::insert("W", row(1000)),
        UpdateEvent::delete("W", row(1000)),
    );
    let before = alloc_count();
    engine.process(&fresh).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 1,
        "an event of a new arity-5 key allocated {allocs} times"
    );
    let before = alloc_count();
    engine.process(&gone).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(allocs, 0, "taking the new key out allocated {allocs} times");
    // Not vacuous: every held key was written back to one, and the join
    // counted every pair. (A result's snapshot starts its map's log, so it
    // comes last.)
    let w = engine.view("W").unwrap();
    assert_eq!((w.len(), w.get(&row(7))), (64, 1.0));
    assert_eq!(engine.result("Q").unwrap().scalar_value(), 64.0);
}

/// A fused straight-line unit appends to its members' deferred slots: three
/// sibling `+=` statements keyed by a string column — weighted by a column,
/// by a constant and by nothing, under one guard — run as one trigger-only
/// kernel whose one key per row is cloned for the other members, and a warm
/// engine allocates nothing per event or per batch of 64.
#[test]
fn fused_siblings_allocate_nothing_in_steady_state() {
    use dbtoaster_agca::{CmpOp, DeltaBatch};
    let catalog = [RelationMeta::stream("W", ["S", "X", "Y"]).with_strings(["S"])]
        .into_iter()
        .collect();
    let query = |name: &str, value: Option<Expr>| {
        let w = Expr::rel("W", ["s", "x", "y"]);
        let guard = Expr::cmp(CmpOp::Gt, Expr::var("x"), Expr::val(0i64));
        let factors = [w, guard].into_iter().chain(value);
        QuerySpec {
            name: name.into(),
            out_vars: vec!["s".into()],
            expr: Expr::agg_sum(["s"], Expr::product_of(factors)),
        }
    };
    let queries = [
        query("BY_Y", Some(Expr::var("y"))),
        query("HALF", Some(Expr::val(0.5))),
        query("COUNT", None),
    ];
    let program = compile(
        &queries,
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let plans = program.relation_plans().expect("W derives");
    let fused: Vec<usize> = plans[0].kernels.iter().map(|u| u.members.len()).collect();
    assert_eq!(fused, [3, 3], "one group of three per trigger");
    let mut engine = Engine::new(program, &catalog);

    let row = |k: i64| {
        let key = Value::str(format!("key-{}", k % 4));
        vec![key, Value::long(k % 3), Value::double(k as f64 / 4.0)]
    };
    let inserts: Vec<UpdateEvent> = (0..64).map(|k| UpdateEvent::insert("W", row(k))).collect();
    let deletes: Vec<UpdateEvent> = (0..64).map(|k| UpdateEvent::delete("W", row(k))).collect();
    let churn: Vec<UpdateEvent> = inserts.iter().chain(&deletes).cloned().collect();
    let cycle = [
        DeltaBatch::from_events(&inserts),
        DeltaBatch::from_events(&deletes),
    ];
    let run_cycle = |engine: &mut Engine| {
        for b in &cycle {
            assert!(engine.process_batch(b).first_error.is_none());
        }
    };
    for _ in 0..2 {
        engine.process_all(&churn).unwrap();
        run_cycle(&mut engine);
    }

    let (statements, straight) = (engine.stats().statements, engine.stats().straight_line);
    let before = alloc_count();
    engine.process_all(&churn).unwrap();
    let per_event = alloc_count() - before;
    let before = alloc_count();
    run_cycle(&mut engine);
    let per_batch = alloc_count() - before;
    assert_eq!(
        (per_event, per_batch),
        (0, 0),
        "fused siblings allocated ({per_event}, {per_batch}) times over {} events, \
         one at a time and in batches of 64",
        churn.len()
    );
    // Not vacuous: the fused kernel ran once per entry, straight-line, the
    // guard passed for some, and the maps were left empty by the churn.
    let entries: u64 = cycle
        .iter()
        .map(|b| b.runs()[0].entries().len() as u64)
        .sum();
    let stats = engine.stats();
    assert_eq!(stats.statements - statements, churn.len() as u64 + entries);
    assert_eq!(stats.straight_line - straight, churn.len() as u64 + entries);
    assert!(engine.view("BY_Y").unwrap().is_empty());
}

/// The batch-delta live pass reuses its buffers: a keyed self-join reads the
/// auxiliary map its own run writes, so every multi-entry run fires that
/// statement entry by entry and writes the map as it goes — deferred row
/// buffers recycled — and a warm engine allocates nothing per run.
#[test]
fn live_pass_allocates_nothing_in_steady_state() {
    use dbtoaster_agca::DeltaBatch;
    let catalog = [RelationMeta::stream("R", ["A", "B"])]
        .into_iter()
        .collect();
    let q = QuerySpec {
        name: "SELFJ".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("R", ["a2", "b"])]),
        ),
    };
    let program = compile(
        &[q],
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let plans = program.relation_plans().expect("R derives");
    assert!(
        plans
            .iter()
            .any(|p| p.relation == "R" && !p.live.is_empty()),
        "the self-join reads what its run writes"
    );
    let mut engine = Engine::new(program, &catalog);

    let tuple = |i: i64| vec![Value::long(i), Value::long(i % 7)];
    let inserts: Vec<UpdateEvent> = (0..64)
        .map(|i| UpdateEvent::insert("R", tuple(i)))
        .collect();
    let deletes: Vec<UpdateEvent> = (0..64)
        .map(|i| UpdateEvent::delete("R", tuple(i)))
        .collect();
    let cycle = [
        DeltaBatch::from_events(&inserts),
        DeltaBatch::from_events(&deletes),
    ];
    let run_cycle = |engine: &mut Engine| {
        for b in &cycle {
            assert!(engine.process_batch(b).first_error.is_none());
        }
    };
    run_cycle(&mut engine);
    run_cycle(&mut engine);

    let before = alloc_count();
    run_cycle(&mut engine);
    let allocs = alloc_count() - before;
    assert_eq!(allocs, 0, "live pass allocated {allocs} times per cycle");
    assert_eq!(engine.stats().entry_major_runs, 0);
    assert_eq!(engine.result("SELFJ").unwrap().scalar_value(), 0.0);
}

/// Ordered secondary indexes stay inside the same budget: an inequality
/// self-join (`bsp`'s shape) maintains two `[group, t]` maps the compiler
/// declares ordered on `t`; every event writes both — an insertion into or a
/// removal from a sorted block, running sums fixed up behind it — and answers
/// four range sums from them. Over a fixed key range the blocks settle at
/// their high-water capacity, so a warm engine allocates nothing per event.
#[test]
fn ordered_index_writes_and_range_sums_allocate_nothing_in_steady_state() {
    use dbtoaster_agca::CmpOp;
    use dbtoaster_runtime::{Telemetry, TelemetryConfig};
    let catalog = [RelationMeta::stream("R", ["G", "T", "V"])]
        .into_iter()
        .collect();
    let q = QuerySpec {
        name: "LATER".into(),
        out_vars: vec!["g".into()],
        expr: Expr::agg_sum(
            ["g"],
            Expr::product_of([
                Expr::rel("R", ["g", "t", "v"]),
                Expr::rel("R", ["g", "t2", "v2"]),
                Expr::cmp(CmpOp::Gt, Expr::var("t"), Expr::var("t2")),
                Expr::var("v"),
            ]),
        ),
    };
    let program = compile(
        &[q],
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let ordered = program.ordered_indexes();
    assert_eq!(ordered.len(), 2, "{ordered:?}");
    let mut engine = Engine::new(program, &catalog);
    let tel = Telemetry::with_config(TelemetryConfig {
        slow_batch_threshold: std::time::Duration::from_secs(3600),
    });
    engine.set_telemetry(tel.clone());

    // A standing book of 4 groups x 300 timestamps (several blocks a group),
    // and a churn pass that adds and removes a further 100 per group, in an
    // order that lands all over the sorted runs.
    let order = |i: i64| {
        vec![
            Value::long(i % 4),
            Value::long(1 + i),
            Value::long(2 + i % 5),
        ]
    };
    let standing: Vec<UpdateEvent> = (0..1200)
        .map(|i| UpdateEvent::insert("R", order(i * 3)))
        .collect();
    let churn: Vec<UpdateEvent> = (0..400)
        .map(|i| UpdateEvent::insert("R", order((i * 37 % 400) * 9 + 1)))
        .chain((0..400).map(|i| UpdateEvent::delete("R", order((i * 91 % 400) * 9 + 1))))
        .collect();
    engine.process_all(&standing).unwrap();
    engine.process_all(&churn).unwrap();
    engine.process_all(&churn).unwrap();

    let before = alloc_count();
    engine.process_all(&churn).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "ordered-index path allocated {allocs} times over {} steady-state events",
        churn.len()
    );
    // Not vacuous: every event's range sums were answered from the indexes.
    engine.flush_telemetry();
    let views = tel.snapshot().views;
    let later = views.iter().find(|v| v.name == "LATER").unwrap();
    assert!(
        later.get("range_sum_hits") > 0 && later.get("range_sum_bails") == 0,
        "{later:?}"
    );
    assert_eq!(later.get("fused_scans"), 0, "{later:?}");
}

/// Range sums inside a loop stay inside the budget too: `vwap`'s shape — the
/// bids' price × volume wherever a quarter of all volume exceeds the volume
/// bid above the price — re-evaluates per event, probing the total once,
/// searching the ordered index of the volume map for the price where the
/// filter flips and walking the prices inside the cut. Over a fixed price
/// range every write updates an entry the index holds, so a warm engine
/// allocates nothing per event.
#[test]
fn range_sums_inside_a_loop_allocate_nothing_in_steady_state() {
    use dbtoaster_agca::CmpOp;
    use dbtoaster_runtime::{Telemetry, TelemetryConfig};
    let catalog = [RelationMeta::stream("BIDS", ["PRICE", "VOLUME"])]
        .into_iter()
        .collect();
    let sum = |factors: Vec<Expr>| Expr::agg_sum(Vec::<String>::new(), Expr::product_of(factors));
    let total = sum(vec![Expr::rel("BIDS", ["p3", "v3"]), Expr::var("v3")]);
    let above = sum(vec![
        Expr::rel("BIDS", ["p2", "v2"]),
        Expr::var("v2"),
        Expr::cmp(CmpOp::Gt, Expr::var("p2"), Expr::var("p1")),
    ]);
    let quarter = Expr::product_of([Expr::Const(Value::double(0.25)), Expr::var("s1")]);
    let q = QuerySpec {
        name: "VWAP".into(),
        out_vars: vec![],
        expr: sum(vec![
            Expr::rel("BIDS", ["p1", "v1"]),
            Expr::var("p1"),
            Expr::var("v1"),
            Expr::lift("s1", total),
            Expr::lift("s2", above),
            Expr::cmp(CmpOp::Gt, quarter, Expr::var("s2")),
        ]),
    };
    let program = compile(
        &[q],
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let mut engine = Engine::new(program, &catalog);
    let tel = Telemetry::with_config(TelemetryConfig {
        slow_batch_threshold: std::time::Duration::from_secs(3600),
    });
    engine.set_telemetry(tel.clone());

    // A standing book over 300 prices, and a churn pass that places and
    // cancels a further bid at each of 100 of them, all over the run.
    let bid = |price: i64, volume: i64| vec![Value::long(price), Value::long(volume)];
    let standing: Vec<UpdateEvent> = (1..=300)
        .map(|p| UpdateEvent::insert("BIDS", bid(p, 1 + p % 7)))
        .collect();
    let churn: Vec<UpdateEvent> = (0..100)
        .map(|i| UpdateEvent::insert("BIDS", bid(1 + (i * 37 % 100) * 3, 5)))
        .chain((0..100).map(|i| UpdateEvent::delete("BIDS", bid(1 + (i * 91 % 100) * 3, 5))))
        .collect();
    engine.process_all(&standing).unwrap();
    engine.process_all(&churn).unwrap();
    engine.process_all(&churn).unwrap();

    let before = alloc_count();
    engine.process_all(&churn).unwrap();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs,
        0,
        "range sums inside a loop allocated {allocs} times over {} steady-state events",
        churn.len()
    );
    // Not vacuous: every refresh searched the index once — a lookup per
    // price would count about 300 an event.
    engine.flush_telemetry();
    let views = tel.snapshot().views;
    let vwap = views.iter().find(|v| v.name == "VWAP").unwrap();
    let refreshes = (standing.len() + 3 * churn.len()) as u64;
    let (hits, bails) = (vwap.get("range_sum_hits"), vwap.get("range_sum_bails"));
    assert!(hits > 0 && hits <= refreshes && bails == 0, "{vwap:?}");
}

/// A publish must not allocate per entry: with a fixed key set (writes only
/// change multiplicities), a steady-state [`Engine::snapshot`] after a batch
/// patches recycled buffers in place and allocates only the name → GMR table
/// it returns (plus a fresh copy of the one-entry result, whose write log
/// never fits the patch budget) — O(#views), whatever the views hold.
#[test]
fn steady_state_snapshot_allocates_per_view_not_per_entry() {
    const KEYS: i64 = 8_192;
    let mut engine = build_engine();
    engine.process_all(&events(KEYS, 0)).unwrap();
    // Two alternating batches over 64 of the keys: the second undoes the
    // first, so no entry is ever inserted or removed.
    let churn = churn_events(64);
    let (up, down): (Vec<_>, Vec<_>) = churn.chunks(4).map(|c| (&c[..2], &c[2..])).unzip();
    let batches = [up.concat(), down.concat()];

    // The serving writer's hold pattern: the previous snapshot is dropped only
    // once the next one exists. Warm-up hands out both buffers of every view
    // and sizes the write logs.
    let mut last = engine.snapshot();
    for round in 0..6 {
        engine.process_all(&batches[round % 2]).unwrap();
        last = engine.snapshot();
    }
    let views = last.len() as u64;
    let entries: usize = last.values().map(|g| g.len()).sum();
    assert!(entries > 2 * KEYS as usize, "the views hold the key set");

    for round in 0..4 {
        engine.process_all(&batches[round % 2]).unwrap();
        let (work, before) = (snapshot_work(&engine), alloc_count());
        let next = engine.snapshot();
        let allocs = alloc_count() - before;
        let work_after = snapshot_work(&engine);
        assert!(
            allocs <= 4 * views,
            "snapshot() of {entries} entries in {views} views allocated {allocs} times"
        );
        assert!(work_after.0 > work.0);
        assert!(work_after.1 - work.1 <= views);
        last = next;
    }
    drop(last);
}

/// Keys patched and entries copied by the engine's snapshots so far, summed
/// over its views.
fn snapshot_work(engine: &Engine) -> (u64, u64) {
    let db = engine.database();
    db.names()
        .filter_map(|n| db.view(n))
        .map(|v| v.snapshot_work())
        .fold((0, 0), |(k, e), w| {
            (k + w.keys_patched, e + w.entries_copied)
        })
}

/// A scan rebuilds each full key it probes for in a buffer on the stack, so
/// keys past `INLINE_CAP` allocate nothing either: an arity-4 map (one
/// string column) probed fully bound, scanned through a hash index of two
/// free columns and through an ordered index by its fallback walk, which
/// rebuilds a key per band value.
#[test]
fn wide_keys_are_probed_and_scanned_without_allocating() {
    use dbtoaster_gmr::{Schema, Tuple};
    use dbtoaster_runtime::ViewMap;
    let mut v = ViewMap::new(Schema::new(["a", "b", "c", "d"]));
    v.declare_hash(0b0011);
    v.declare_ordered(0b0111, 3);
    let key = |i: i64| {
        Tuple::from(vec![
            Value::long(i % 3),
            Value::str("s"),
            Value::long(i % 5),
            Value::long(i),
        ])
    };
    for i in 0..300 {
        v.add(key(i), 1.0 + i as f64);
    }
    assert!(!key(0).is_inline());
    let bind = |i: i64, mask: u8| -> Vec<Option<Value>> {
        let k = key(i);
        (0..4)
            .map(|c| (mask & (1 << c) != 0).then(|| k[c].clone()))
            .collect()
    };
    let patterns: Vec<(&str, Vec<Option<Value>>)> = (0..15)
        .flat_map(|i| {
            [
                ("probe", bind(i * 7, 0b1111)),
                ("hash", bind(i, 0b0011)),
                ("ordered", bind(i, 0b0111)),
            ]
        })
        .collect();
    let scan = |kind: &str| {
        let (mut entries, mut sum) = (0u64, 0.0);
        for (_, p) in patterns.iter().filter(|(k, _)| *k == kind) {
            v.for_each(p, &mut |_, m| {
                entries += 1;
                sum += m;
            });
        }
        (entries, sum)
    };
    for kind in ["probe", "hash", "ordered"] {
        let warm = scan(kind);
        assert!(warm.0 >= 15, "{kind}: {warm:?}");
        let before = alloc_count();
        let again = scan(kind);
        let allocs = alloc_count() - before;
        assert_eq!(
            allocs, 0,
            "{kind} scans of an arity-4 map allocated {allocs} times"
        );
        assert_eq!(again, warm, "{kind}");
    }
}

/// What the engine's resident state costs, against what `memory_bytes`
/// charges for it: the benchmark's `tpch_dash` query set over its 120k-event
/// TPC-H stream (seed 42), per event through `Engine::process`. The live
/// heap the engine holds afterwards — its maps, their indexes, frames and
/// buffers; the events and tables stay with the caller — is at most
/// `RESIDENT_PER_CHARGED` times `memory_bytes`, and at most
/// `RESIDENT_BYTES` in all. The allocator's count is exact, so both are
/// deterministic: 56.1 MB held, 1.31x the charge, with hash-index groups
/// that hold their members' free columns only; 69.1 MB (1.31x) with groups
/// that copied each member's full key and multiplicity; 112.8 MB (1.62x)
/// with a 24-byte `Value` and a table per group. A key layout that regrows
/// `Value` or `Tuple`, a table in every small group, or groups that copy
/// what the primary map holds break a bound before it shows in `state_mb`,
/// which charges by formula; the absolute bound keeps a drop in the charge
/// from passing for a drop in bytes. About 2 s at the test profile's
/// opt-level.
#[test]
fn resident_heap_stays_within_a_multiple_of_memory_bytes() {
    const RESIDENT_PER_CHARGED: f64 = 1.4;
    const RESIDENT_BYTES: f64 = 60e6;
    use dbtoaster_workloads::{query, tpch, tpch_catalog, TpchConfig};
    const EVENTS: usize = 120_000;
    let catalog = tpch_catalog();
    let mut specs = Vec::new();
    for name in ["q1", "q3", "q6", "q10", "q12", "ssb4"] {
        let q = query(name).unwrap();
        let parsed = dbtoaster_sql::parse_query(q.sql).unwrap();
        let plan = dbtoaster_sql::translate(q.name, &parsed, &catalog).unwrap();
        specs.extend(plan.views);
    }
    let program = compile(
        &specs,
        &catalog,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let mut data = tpch::generate(&TpchConfig::with_fixed_working_set(
        EVENTS as f64 / 5.0 / 1_500_000.0,
        42,
        30_000,
        120_000,
    ));
    assert!(data.len() >= EVENTS, "{} events generated", data.len());
    data.truncate(EVENTS);

    let before = live_bytes();
    let mut engine = Engine::new(program, &catalog);
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.iter().cloned());
    }
    engine.init_static_views().unwrap();
    for event in &data.events {
        engine.process(event).unwrap();
    }
    let held = (live_bytes() - before) as f64;
    let charged = engine.memory_bytes() as f64;
    let ratio = held / charged;
    assert!(
        ratio <= RESIDENT_PER_CHARGED,
        "the engine holds {held} bytes, {ratio:.3}x the {charged} `memory_bytes` charges"
    );
    assert!(
        held <= RESIDENT_BYTES,
        "the engine holds {held} bytes, over the {RESIDENT_BYTES} bound"
    );
}
