//! Heap-allocation smoke test for the per-event hot path.
//!
//! The paper's headline claim is that a single-tuple update costs a handful of
//! constant-time map probes. This test pins the allocator side of that claim:
//! processing one event must (a) stay under a small constant allocation budget
//! and (b) not allocate proportionally to the size of the maintained views —
//! i.e. no key-vector clones or result materialization hiding in the trigger
//! path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Per thread: the tests of this binary run concurrently, and each must
    // count only the allocations of its own engine.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
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

/// Allocations per event after warm-up, over `measure` pre-built events.
fn allocs_per_event(engine: &mut Engine, measure: &[UpdateEvent]) -> f64 {
    let before = alloc_count();
    for e in measure {
        engine.process(e).unwrap();
    }
    (alloc_count() - before) as f64 / measure.len() as f64
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
/// never materializes results. (The interpreter path, by contrast, builds
/// result GMRs per statement — its budget is the constant bound below.)
#[test]
fn compiled_path_allocates_nothing_in_steady_state() {
    let mut engine = build_engine();
    assert!(
        engine.stats().compiled_triggers > 0,
        "expected compiled kernels for the equijoin workload"
    );
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
        ..TelemetryConfig::default()
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

/// The batch-delta live pass reuses its buffers: a keyed self-join reads the
/// auxiliary map its own run writes, so every multi-entry run fires that
/// statement entry by entry and writes the map as it goes — deferred row
/// buffers and the undo log recycled — and a warm engine allocates nothing
/// per run.
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
    let rl = program.run_linear_for("R").expect("R is batch-delta");
    assert!(
        !rl.statements.is_empty(),
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
        ..TelemetryConfig::default()
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
        later.banded_hits > 0 && later.banded_bails == 0,
        "{later:?}"
    );
    assert_eq!(later.fused_scans, 0, "{later:?}");
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
        let (work, before) = (engine.snapshot_work(), alloc_count());
        let next = engine.snapshot();
        let allocs = alloc_count() - before;
        let work_after = engine.snapshot_work();
        assert!(
            allocs <= 4 * views,
            "snapshot() of {entries} entries in {views} views allocated {allocs} times"
        );
        assert!(work_after.keys_patched > work.keys_patched);
        assert!(work_after.entries_copied - work.entries_copied <= views);
        last = next;
    }
    drop(last);
}

#[test]
fn per_event_allocations_are_small_and_constant() {
    let mut engine = build_engine();
    // This test pins the *interpreter* budget; kernels would trivially pass it.
    engine.set_force_interpreter(true);

    // Warm-up at a small working set, then measure.
    engine.process_all(&events(64, 0)).unwrap();
    let small_batch = events(256, 1_000);
    let small = allocs_per_event(&mut engine, &small_batch);

    // Grow the views 20x, then measure again.
    engine.process_all(&events(20_000, 10_000)).unwrap();
    let large_batch = events(256, 50_000);
    let large = allocs_per_event(&mut engine, &large_batch);

    // (a) Constant budget: a trigger firing is a few statements, each of which
    // may build a handful of small scratch vectors and result maps — but it
    // must never materialize lookup results or clone per-entry keys.
    assert!(
        small < 120.0,
        "per-event allocations too high at small views: {small:.1}"
    );
    assert!(
        large < 120.0,
        "per-event allocations too high at large views: {large:.1}"
    );

    // (b) Size independence: growing the views 20x must not grow the per-event
    // allocation count materially (hash-map growth amortizes to ~0).
    assert!(
        large <= small * 1.5 + 8.0,
        "per-event allocations scale with view size: {small:.1} -> {large:.1}"
    );
}
