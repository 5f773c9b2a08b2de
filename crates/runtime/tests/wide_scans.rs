//! Scans of views wider than a binding-pattern mask can express: masks have
//! 63 usable bits, so a column at position 63 or later can be bound but not
//! indexed. The store then walks the map and filters it by the pattern —
//! compiled kernels re-check no row a source hands them, so a scan bound
//! there must still see exactly the matching entries.

use dbtoaster_agca::eval::{eval, matches_pattern, Bindings};
use dbtoaster_agca::{lower_statement, Expr, KernelState};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::Database;
use dbtoaster_telemetry::LocalCounts;

const ARITY: usize = 65;

/// `W(C0, …, C64)`: entry `r` holds `r` at column 0, `r % 3` at 63, `r % 2`
/// at 64 and `0` elsewhere, with multiplicity `1 + r`.
fn wide_db() -> Database {
    let mut db = Database::new();
    db.declare("W", (0..ARITY).map(|i| format!("C{i}")));
    let w = db.view_mut("W").unwrap();
    for r in 0..6i64 {
        let key: Vec<Value> = (0..ARITY)
            .map(|i| match i {
                0 => Value::long(r),
                63 => Value::long(r % 3),
                64 => Value::long(r % 2),
                _ => Value::long(0),
            })
            .collect();
        w.add(key, 1.0 + r as f64);
    }
    db
}

/// A pattern binding column `i` to `v` for each `(i, v)`.
fn pattern(bound: &[(usize, i64)]) -> Vec<Option<Value>> {
    let mut p = vec![None; ARITY];
    for &(i, v) in bound {
        p[i] = Some(Value::long(v));
    }
    p
}

#[test]
fn the_store_hands_over_exactly_the_matching_entries() {
    let mut db = wide_db();
    let w = db.view_mut("W").unwrap();
    // A hash index binding column 0: a pattern binding 0 and 63 must not be
    // answered from its group alone.
    w.declare_hash(0b1);
    // An ordered index no mask can express is not kept.
    w.declare_ordered(((1u64 << 63) - 1) & !1, 0);
    assert!(!w.has_index(((1u64 << 63) - 1) & !1));
    let all = w.lookup(&pattern(&[]));
    assert_eq!(all.len(), 6);
    for bound in [
        &[(63, 1)][..],
        &[(64, 0)],
        &[(63, 2), (64, 1)],
        &[(0, 4), (63, 1)],
        &[(0, 4), (63, 2)],
        &[(0, 3), (64, 1)],
    ] {
        let p = pattern(bound);
        let mut got = w.lookup(&p);
        let mut want: Vec<_> = all
            .iter()
            .filter(|(k, _)| matches_pattern(k, &p))
            .cloned()
            .collect();
        got.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
        want.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
        assert_eq!(got, want, "pattern binding {bound:?}");
    }
}

/// `Sum[](W(…) * v0)`, `var_at(i)` naming column `i`, compiled and checked
/// against the evaluator with `trigger_vars` bound to each event's values.
fn check(trigger_vars: &[&str], var_at: impl Fn(usize) -> String, events: &[&[i64]]) {
    let mut db = wide_db();
    db.view_mut("W").unwrap().declare_hash(0b1);
    let rhs = Expr::agg_sum(
        Vec::<String>::new(),
        Expr::product_of([Expr::view("W", (0..ARITY).map(var_at)), Expr::var("v0")]),
    );
    let trigger_vars: Vec<String> = trigger_vars.iter().map(|v| v.to_string()).collect();
    let stmt = lower_statement(&trigger_vars, &[], &rhs).expect("the statement lowers");
    let rels = stmt.bind(&db);
    let mut state = KernelState::new();
    state.prepare(&stmt);
    for event in events {
        let mut ctx = Bindings::new();
        for (slot, (name, &v)) in trigger_vars.iter().zip(event.iter()).enumerate() {
            state.frame[slot] = Value::long(v);
            ctx.insert(name.clone(), Value::long(v));
        }
        state.rows_of(&stmt)[0].clear();
        stmt.execute(&db, &rels, &mut state, &LocalCounts::default(), true);
        let got: f64 = state.rows_of(&stmt)[0].iter().map(|(_, m)| m).sum();
        let want: f64 = eval(&rhs, &db, &ctx).unwrap().iter().map(|(_, m)| m).sum();
        assert_eq!(got, want, "event {event:?} of {rhs}");
    }
}

#[test]
fn a_kernel_scan_bound_at_column_63_matches_the_evaluator() {
    let var_at = |i: usize| match i {
        63 => "x".to_string(),
        _ => format!("v{i}"),
    };
    check(&["x"], var_at, &[&[0], &[1], &[2], &[7]]);
    // Bound at 0 and 63: the mask of column 0 has a hash index.
    check(&["v0", "x"], var_at, &[&[4, 1], &[4, 2], &[3, 0]]);
    // Bound at 64 alone.
    let var_at = |i: usize| match i {
        64 => "y".to_string(),
        _ => format!("v{i}"),
    };
    check(&["y"], var_at, &[&[0], &[1]]);
}
