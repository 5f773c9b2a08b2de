//! Query type checking against the catalog's column types.
//!
//! A compiled kernel does arithmetic on numbers and matches `LIKE` patterns
//! against strings; it cannot fail on any other value. So [`compile`] checks
//! each query it receives before deriving anything: every variable takes the
//! type of the base column an atom binds it to, or of the scalar a lift binds
//! it to (a string if any binding is one), and the query is rejected with
//! [`CompileError::Type`], naming the column, when
//!
//! * a string variable or string constant sits in a multiplicity or
//!   arithmetic position (a product, a sum, a negation, an aggregate's body,
//!   `EXISTS`);
//! * `LIKE` is applied to a number;
//! * `div`, `sqrt` or `listmax` is applied to a string.
//!
//! Comparisons, lifts and group-by keys take either type. Derivation and
//! materialization only rename and split the checked expressions, so the
//! trigger statements inherit the check; the engine's ingest gate keeps
//! every value it stores of its column's type.
//!
//! [`compile`]: crate::compile()

use crate::compile::CompileError;
use crate::program::Catalog;
use dbtoaster_agca::{AtomKind, Expr, ScalarFn};
use dbtoaster_gmr::{ColumnType, Value};
use std::collections::HashMap;

/// Each variable's type and what gave it that type (`Relation.column`, or
/// the constant a lift binds).
type Vars = HashMap<String, (ColumnType, String)>;

/// Check `expr` (atom kinds already fixed) against `catalog`'s column types.
pub fn check_types(expr: &Expr, catalog: &Catalog) -> Result<(), CompileError> {
    let mut vars = Vars::new();
    // A lift may read a variable an atom later in the expression binds: the
    // second pass sees every binding.
    for _ in 0..2 {
        expr.visit(&mut |e| bind(e, catalog, &mut vars));
    }
    check(expr, &vars)
}

/// The bindings `e` itself makes (not its sub-expressions').
fn bind(e: &Expr, catalog: &Catalog, vars: &mut Vars) {
    match e {
        Expr::Rel(r) if r.kind != AtomKind::View => {
            let Some(meta) = catalog.get(&r.name) else {
                return;
            };
            for ((arg, ty), column) in r.args.iter().zip(&meta.types).zip(&meta.columns) {
                note(vars, arg, *ty, || format!("{}.{column}", r.name));
            }
        }
        Expr::Lift(x, body) => {
            if let Some((ty, origin)) = scalar_type(body, vars) {
                note(vars, x, ty, || origin);
            }
        }
        _ => {}
    }
}

/// Record that `var` is bound to a `ty`; a string binding wins.
fn note(vars: &mut Vars, var: &str, ty: ColumnType, origin: impl FnOnce() -> String) {
    let held = vars.get(var).map(|(t, _)| *t);
    if held.is_none() || (held == Some(ColumnType::Number) && ty == ColumnType::String) {
        vars.insert(var.to_string(), (ty, origin()));
    }
}

/// The type of a scalar operand and where it comes from, when it is a
/// variable or a constant; every other scalar is a number.
fn scalar_type(e: &Expr, vars: &Vars) -> Option<(ColumnType, String)> {
    match e {
        Expr::Var(x) => vars.get(x).cloned(),
        Expr::Const(v) => Some((ColumnType::of(v), constant(v))),
        _ => None,
    }
}

fn constant(v: &Value) -> String {
    match v.as_str() {
        Some(s) => format!("'{s}'"),
        None => v.to_string(),
    }
}

fn is_string(e: &Expr, vars: &Vars) -> Option<String> {
    scalar_type(e, vars)
        .filter(|(ty, _)| *ty == ColumnType::String)
        .map(|(_, origin)| origin)
}

/// Check `e` in a multiplicity or arithmetic position.
fn check(e: &Expr, vars: &Vars) -> Result<(), CompileError> {
    match e {
        Expr::Const(_) | Expr::Var(_) => match is_string(e, vars) {
            Some(column) => Err(type_error(column, "a string used as a number")),
            None => Ok(()),
        },
        Expr::Rel(_) => Ok(()),
        Expr::Lift(_, body) => check_scalar(body, vars),
        Expr::Cmp(_, l, r) => {
            check_scalar(l, vars)?;
            check_scalar(r, vars)
        }
        Expr::Apply(f, args) => {
            for a in args {
                let string = is_string(a, vars);
                match (f, string) {
                    (ScalarFn::Like(_), None) => {
                        let column = scalar_type(a, vars).map_or_else(|| a.to_string(), |t| t.1);
                        return Err(type_error(column, "LIKE applied to a number"));
                    }
                    (ScalarFn::Like(_), Some(_)) => {}
                    (_, Some(column)) => {
                        return Err(type_error(column, &format!("{f} applied to a string")));
                    }
                    (_, None) => {}
                }
                check_scalar(a, vars)?;
            }
            Ok(())
        }
        Expr::Add(terms) | Expr::Mul(terms) => terms.iter().try_for_each(|t| check(t, vars)),
        Expr::Neg(inner) | Expr::AggSum(_, inner) | Expr::Exists(inner) => check(inner, vars),
    }
}

/// Check `e` in a scalar position (a comparison operand, a lift body, a
/// function argument): a variable or constant of either type, or a number
/// computed in an arithmetic position.
fn check_scalar(e: &Expr, vars: &Vars) -> Result<(), CompileError> {
    match e {
        Expr::Const(_) | Expr::Var(_) => Ok(()),
        _ => check(e, vars),
    }
}

fn type_error(column: String, reason: &str) -> CompileError {
    CompileError::Type {
        column,
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RelationMeta;
    use dbtoaster_agca::CmpOp;

    fn catalog() -> Catalog {
        let r = RelationMeta::stream("R", ["A", "B"]).with_strings(["B"]);
        [r].into_iter().collect()
    }

    fn r() -> Expr {
        Expr::rel("R", ["a", "b"])
    }

    fn column(e: Expr) -> Option<String> {
        match check_types(&e, &catalog()) {
            Err(CompileError::Type { column, .. }) => Some(column),
            Ok(()) => None,
            Err(other) => panic!("{other}"),
        }
    }

    #[test]
    fn strings_compare_lift_and_group_but_do_no_arithmetic() {
        let fine = Expr::agg_sum(
            ["b"],
            Expr::product_of([
                r(),
                Expr::cmp(CmpOp::Eq, Expr::var("b"), Expr::val(Value::str("x"))),
                Expr::lift("c", Expr::var("b")),
                Expr::var("a"),
            ]),
        );
        assert_eq!(column(fine), None);
        let weighed = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([r(), Expr::var("b")]),
        );
        assert_eq!(column(weighed).as_deref(), Some("R.B"));
        let lifted = Expr::product_of([r(), Expr::lift("c", Expr::var("b")), Expr::var("c")]);
        assert_eq!(column(lifted).as_deref(), Some("R.B"));
        let summed = Expr::cmp(
            CmpOp::Lt,
            Expr::sum_of([Expr::var("b"), Expr::one()]),
            Expr::var("a"),
        );
        assert_eq!(
            column(Expr::product_of([r(), summed])).as_deref(),
            Some("R.B")
        );
    }

    #[test]
    fn scalar_functions_take_their_argument_type() {
        let like = |v: &str| Expr::Apply(ScalarFn::Like("x%".into()), vec![Expr::var(v)]);
        assert_eq!(column(Expr::product_of([r(), like("b")])), None);
        assert_eq!(
            column(Expr::product_of([r(), like("a")])).as_deref(),
            Some("R.A")
        );
        let div = Expr::Apply(ScalarFn::Div, vec![Expr::var("a"), Expr::var("b")]);
        assert_eq!(column(Expr::product_of([r(), div])).as_deref(), Some("R.B"));
    }
}
