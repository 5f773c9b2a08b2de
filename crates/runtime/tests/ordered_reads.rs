//! Compiled kernels reading through ordered indexes: a band sum inside a
//! loop is a lookup, a quantile filter one search per execution, and a
//! quantile-filtered sum over a group with one free column a walk of the
//! keys inside the cut. Each answers what the same kernel answers over the
//! same database without the indexes — every lookup a walk, every filter
//! row by row, every sum in scan order — bit for bit, offenders included.

use dbtoaster_agca::plan::template_mask;
use dbtoaster_agca::{lower_statement, CmpOp, CompiledStmt, Expr, KernelState};
use dbtoaster_gmr::{Tuple, Value};
use dbtoaster_runtime::Database;
use dbtoaster_telemetry::{LocalCounts, ViewSummary};

/// `R(A, B)`, `N(A)` and `P(B)`, filled with `rows`, with every ordered
/// index `stmts` read declared when `indexed`.
fn database(rows: &[(&str, Vec<Value>, f64)], stmts: &[&CompiledStmt], indexed: bool) -> Database {
    let mut db = Database::new();
    for (name, columns) in [
        ("R", &["A", "B"][..]),
        ("N", &["A"]),
        ("P", &["B"]),
        ("T", &[]),
    ] {
        db.declare(name, columns.iter().map(|c| c.to_string()));
    }
    for (name, key, m) in rows {
        db.view_mut(name).unwrap().add(Tuple::from(&key[..]), *m);
    }
    for stmt in stmts.iter().filter(|_| indexed) {
        for (rel, template, key_pos) in stmt.ordered_reads() {
            let view = db.view_mut(&stmt.rels[rel as usize]).unwrap();
            view.declare_ordered(template_mask(template), key_pos as usize);
        }
    }
    db
}

/// Run `stmt` for trigger `y`: the rows' multiplicities as bits, and the work.
fn run(stmt: &CompiledStmt, db: &Database, y: i64) -> (Vec<u64>, ViewSummary) {
    let mut state = KernelState::new();
    state.prepare(stmt);
    state.frame[0] = Value::long(y);
    let counts = LocalCounts::default();
    stmt.execute(db, &stmt.bind(db), &mut state, &counts, true);
    let bits = state.rows_of(stmt)[0]
        .iter()
        .map(|r| r.1.to_bits())
        .collect();
    let mut work = ViewSummary::default();
    counts.drain_into(&mut work.values);
    (bits, work)
}

/// Run `stmt` over `rows` with and without its ordered indexes: the rows
/// must be the same bits; the indexed run's work.
fn same(stmt: &CompiledStmt, rows: &[(&str, Vec<Value>, f64)], y: i64) -> ViewSummary {
    let (got, work) = run(stmt, &database(rows, &[stmt], true), y);
    let (walked, plain) = run(stmt, &database(rows, &[stmt], false), y);
    assert_eq!(got, walked, "with the indexes vs without, at y = {y}");
    assert_eq!(plain.get("range_sum_hits"), 0, "no index, no range sum");
    work
}

fn sum(factors: Vec<Expr>) -> Expr {
    Expr::agg_sum(Vec::<String>::new(), Expr::product_of(factors))
}

/// `R(1, ·)` is a book of keys 2, 3, 5, 7 and 11 holding 3, 1, 2, 1 and 4;
/// `R(2, ·)` and `R(3, ·)` add rows to the loop. `N(y)` is `R(y, ·)`'s total.
fn book(extra: Option<(i64, Value, f64)>) -> Vec<(&'static str, Vec<Value>, f64)> {
    let rows = [
        (1, 2, 3.0),
        (1, 3, 1.0),
        (1, 5, 2.0),
        (1, 7, 1.0),
        (1, 11, 4.0),
    ];
    let rows = rows
        .into_iter()
        .chain([(2, 4, 1.0), (2, 6, 1.0), (3, 12, 1.0)]);
    let mut out: Vec<_> = rows
        .map(|(a, b, m)| ("R", vec![Value::long(a), Value::long(b)], m))
        .collect();
    out.extend(extra.map(|(a, b, m)| ("R", vec![Value::long(a), b], m)));
    out.extend([(1, 11.0), (2, 2.0), (3, 1.0)].map(|(a, t)| ("N", vec![Value::long(a)], t)));
    out
}

/// A band sum whose bound the loop binds is one lookup per row into the
/// group's ordered index; each offender makes every lookup into its group
/// walk, and the answer stays the walk's.
#[test]
fn band_sums_inside_a_loop_are_answered_from_the_ordered_index() {
    // `Sum[](R(a, b) * (z := Sum[](R(y, b2) * (b2 > b))) * z * b)`.
    let band = sum(vec![
        Expr::rel("R", ["y", "b2"]),
        Expr::cmp(CmpOp::Gt, Expr::var("b2"), Expr::var("b")),
    ]);
    let e = sum(vec![
        Expr::rel("R", ["a", "b"]),
        Expr::lift("z", band),
        Expr::var("z"),
        Expr::var("b"),
    ]);
    let stmt = lower_statement(&["y".into()], &[], &e).unwrap();
    for y in [1, 2, 9] {
        let work = same(&stmt, &book(None), y);
        // Eight outer rows, one lookup each; the loop is the one walk.
        assert_eq!(
            (work.get("range_sum_hits"), work.get("range_sum_bails")),
            (8, 0),
            "y = {y}"
        );
        assert_eq!(work.get("scans"), 1);
    }
    for (key, mult) in [
        (Value::double(0.5), 1.0),
        (Value::double(-0.0), 1.0),
        (Value::str("k"), 1.0),
        (Value::long(7), 0.5),
        (Value::long(7), (1u64 << 53) as f64),
    ] {
        let work = same(&stmt, &book(Some((1, key.clone(), mult))), 1);
        let (hits, bails) = (work.get("range_sum_hits"), work.get("range_sum_bails"));
        assert!(bails > 0 && hits == 0, "{key} × {mult}: {work:?}");
    }
}

/// `Sum[](R(a, b) * a * [0.5 × Σ R(y, ·) > Σ R(y, b2) * (b2 band b)])`,
/// the comparison written either way round: `vwap`'s quantile filter. With
/// `pass`, the filter without the weight, lifted into `z` that the statement
/// sums, its total probed from `N(y)`: a quantile-filtered sum.
fn quantile(band: CmpOp, sum_left: bool, pass: bool) -> Expr {
    let above = sum(vec![
        Expr::rel("R", ["y", "b2"]),
        Expr::cmp(band, Expr::var("b2"), Expr::var("b")),
    ]);
    let half = Expr::product_of([Expr::val(0.5), Expr::var("s1")]);
    let filter = match sum_left {
        true => Expr::cmp(CmpOp::Lt, Expr::var("s2"), half),
        false => Expr::cmp(CmpOp::Gt, half, Expr::var("s2")),
    };
    let total = match pass {
        true => Expr::rel("N", ["y"]),
        false => sum(vec![Expr::rel("R", ["y", "t"])]),
    };
    let (s1, s2) = (Expr::lift("s1", total), Expr::lift("s2", above));
    let mut factors = vec![Expr::rel("R", ["a", "b"]), s1, s2, filter];
    if pass {
        return Expr::product_of([Expr::lift("z", sum(factors)), Expr::var("z")]);
    }
    factors.push(Expr::var("a"));
    sum(factors)
}

/// A quantile filter inside a loop is one search of the band's ordered
/// index per execution, for every band direction and either orientation;
/// with a negative net multiplicity or an inexact entry in the band's group
/// every row runs the lift and the filter, and so does a single row whose
/// key is no finite number or a `Long` past 2^53. The loop scans two free
/// columns, so a quantile-filtered sum over it stays a numeric pass in scan
/// order.
#[test]
fn quantile_filters_search_the_ordered_index_once_per_execution() {
    let directions = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le];
    for (band, sum_left) in directions.into_iter().flat_map(|b| [(b, false), (b, true)]) {
        for pass in [false, true] {
            let stmt =
                lower_statement(&["y".into()], &[], &quantile(band, sum_left, pass)).unwrap();
            assert_eq!(stmt.thresholds, 1);
            assert!(stmt.prelude.iter().all(|f| f.cut_pos.is_none()));
            for y in [1, 2, 9] {
                let work = same(&stmt, &book(None), y);
                let counts = (work.get("range_sum_hits"), work.get("range_sum_bails"));
                assert_eq!(counts, (1, 0), "{band:?} {sum_left} {pass} at y = {y}");
            }
        }
    }
    let rows = 9;
    for pass in [false, true] {
        let stmt = lower_statement(&["y".into()], &[], &quantile(CmpOp::Gt, false, pass)).unwrap();
        for (extra, counts) in [
            ((1, Value::long(13), -1.0), (rows, 0)),
            ((1, Value::double(0.5), 1.0), (0, rows)),
            ((4, Value::double(f64::NAN), 1.0), (1, 1)),
            ((4, Value::long((1 << 53) + 1), 1.0), (1, 1)),
            ((4, Value::str("k"), 1.0), (1, 1)),
            ((4, Value::double(-0.0), 1.0), (1, 0)),
            ((4, Value::double(4.5), 1.0), (1, 0)),
        ] {
            let key = extra.1.clone();
            let work = same(&stmt, &book(Some(extra)), 1);
            let got = (work.get("range_sum_hits"), work.get("range_sum_bails"));
            assert_eq!(got, counts, "{key} (pass: {pass})");
        }
    }
}

/// `vwap`'s refresh over `P(b)`, a one-column group: `Σ P(b) · b · [0.25 ×
/// T > Σ P(b2) above b]`, or the same count without the weight.
fn refresh(weighted: bool) -> Expr {
    let above = sum(vec![
        Expr::rel("P", ["b2"]),
        Expr::cmp(CmpOp::Gt, Expr::var("b2"), Expr::var("b")),
    ]);
    let share = Expr::product_of([Expr::val(0.25), Expr::var("s1")]);
    let mut factors = vec![Expr::rel("P", ["b"])];
    factors.extend(weighted.then(|| Expr::var("b")));
    factors.extend([
        Expr::lift("s1", Expr::rel("T", Vec::<String>::new())),
        Expr::lift("s2", above),
        Expr::cmp(CmpOp::Gt, share, Expr::var("s2")),
    ]);
    sum(factors)
}

/// Prices 1..=40, each holding `1 + b % 3`, and their total in `T`.
fn prices(extra: &[(Value, f64)]) -> Vec<(&'static str, Vec<Value>, f64)> {
    let mut rows: Vec<_> = (1..=40i64)
        .map(|b| ("P", vec![Value::long(b)], (1 + b % 3) as f64))
        .collect();
    rows.extend(extra.iter().map(|(k, m)| ("P", vec![k.clone()], *m)));
    let total: f64 = rows.iter().map(|r| r.2).sum();
    rows.push(("T", vec![], total));
    rows
}

/// A quantile-filtered sum over a group with one free column is one search
/// and a walk of the keys inside the cut — about a quarter of them here —
/// weighted by its key or not. Offenders: a negative net multiplicity (no
/// search: every row filters, its lookup answered from the index), an
/// inexact multiplicity and a key that is no band key (neither search nor
/// lookup), and keys large enough that key × multiplicity sums could round
/// in another order (the search answers, the sum walks in scan order); once
/// the offender is gone, the walk answers again.
#[test]
fn quantile_filtered_sums_walk_only_the_cut() {
    for weighted in [true, false] {
        let stmt = lower_statement(&["y".into()], &[], &refresh(weighted)).unwrap();
        assert_eq!(stmt.prelude.len(), 1);
        assert_eq!(stmt.prelude[0].cut_pos, Some(0));
        let work = same(&stmt, &prices(&[]), 0);
        assert_eq!(
            (work.get("range_sum_hits"), work.get("range_sum_bails")),
            (1, 0)
        );
        assert_eq!((work.get("fused_scans"), work.get("scans")), (1, 1));
        assert!(work.get("entries_scanned") < 30, "{work:?}");
        let big = Value::long(1 << 50);
        for (extra, hits, walked) in [
            (vec![(Value::long(20), -5.0)], 40, true),
            (vec![(Value::long(20), 0.5)], 0, true),
            (vec![(Value::double(20.5), 1.0)], 0, true),
            (vec![(big.clone(), 16.0)], 1, true),
            (vec![(big.clone(), 16.0), (big, -16.0)], 1, false),
        ] {
            let work = same(&stmt, &prices(&extra), 0);
            let ctx = format!("{extra:?}, weighted: {weighted}: {work:?}");
            assert_eq!(work.get("range_sum_hits"), hits, "{ctx}");
            assert_eq!(work.get("entries_scanned") > 40, walked, "{ctx}");
        }
    }
}
