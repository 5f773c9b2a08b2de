//! Regression test: compiled kernels may nest a partial scan of a view
//! *inside* the visit callback of another partial scan of the **same** view
//! (a non-hoistable inline sub-aggregate, e.g. `M(b,x) * (z := Sum[](M(d,x)*d))`
//! where the inner scan depends on the outer scan's binding `x`), through the
//! index of another mask. A read takes `&self` and changes nothing — both
//! indexes are declared before the kernel runs — so the nested scan has
//! nothing to wait on. (An index built by the first scan of its mask, behind
//! a lock held across the visit, once deadlocked here on the first event.)

use dbtoaster_agca::eval::{eval, Bindings};
use dbtoaster_agca::{lower_statement, Expr, KernelState};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::Database;
use dbtoaster_telemetry::LocalCounts;

#[test]
fn nested_partial_scan_of_same_view_does_not_deadlock() {
    let mut db = Database::new();
    db.declare("M", vec!["A".to_string(), "B".to_string()]);
    let m = db.view_mut("M").unwrap();
    for (a, b, mult) in [(1, 10, 2.0), (1, 20, 1.0), (2, 10, 3.0), (2, 30, 1.0)] {
        m.add(vec![Value::long(a), Value::long(b)], mult);
    }
    // The outer scan binds the first column, the inner one the second.
    m.declare_hash(0b01);
    m.declare_hash(0b10);

    // M(b, x) * (z := Sum[]( M(d, x) * d )) * z — the inner scan constrains
    // its second column to the outer scan's `x` binding, so it cannot be
    // hoisted and runs inline, inside the outer scan's visit callback, over a
    // different binding mask of the same map.
    let inner = Expr::agg_sum(
        Vec::<String>::new(),
        Expr::product_of([Expr::view("M", ["d", "x"]), Expr::var("d")]),
    );
    let rhs = Expr::product_of([
        Expr::view("M", ["b", "x"]),
        Expr::lift("z", inner),
        Expr::var("z"),
    ]);
    let trigger_vars = vec!["b".to_string()];
    let stmt = lower_statement(&trigger_vars, &["x".to_string()], &rhs)
        .expect("statement should lower to a compiled kernel");

    let mut state = KernelState::new();
    state.prepare(&stmt);
    state.frame[0] = Value::long(1);
    stmt.execute(
        &db,
        &stmt.bind(&db),
        &mut state,
        &LocalCounts::default(),
        true,
    );
    let totals = db.view("M").and_then(|v| v.map()).unwrap().index_totals();
    assert_eq!(
        (totals.get("indexes.hash"), totals.get("indexes.entries")),
        (2, 8),
        "the scans built nothing"
    );

    // Same statement through the AST interpreter as the oracle.
    let mut ctx = Bindings::new();
    ctx.insert("b".to_string(), Value::long(1));
    let expected = eval(&rhs, &db, &ctx).unwrap();
    let mut got: Vec<(Vec<Value>, f64)> = state.rows_of(&stmt)[0]
        .drain(..)
        .map(|(k, m)| (k.to_vec(), m))
        .collect();
    got.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
    let xi = expected.schema().index_of("x").unwrap();
    let mut want: Vec<(Vec<Value>, f64)> = expected
        .iter()
        .map(|(t, m)| (vec![t[xi].clone()], m))
        .collect();
    want.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
    assert_eq!(got, want, "compiled nested scan diverges from interpreter");
}
