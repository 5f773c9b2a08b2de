//! The delta transform (Section 3.4 of the paper).
//!
//! AGCA is closed under taking deltas: for every expression `Q` and update `u` there is
//! an expression `Δ_u Q` such that `Q(D + ΔD) = Q(D) + Δ_u Q(D, ΔD)`. Because GMRs with
//! `+` and `*` form a ring, the delta is computed by purely syntactic rules — the
//! product rule is a direct consequence of distributivity.
//!
//! This module implements the single-tuple form `Δ_{±R(~t)}` used by the compiler: the
//! inserted/deleted tuple is passed through fresh *trigger variables*, and the delta of
//! the updated relation atom becomes a product of lifts `(x_i := t_i)`.

use crate::expr::{AtomKind, Expr};
use std::fmt;

/// Insertion or deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateSign {
    /// `+R(~t)`
    Insert,
    /// `-R(~t)`
    Delete,
}

impl UpdateSign {
    /// +1.0 for insertions, -1.0 for deletions.
    pub fn multiplier(self) -> f64 {
        match self {
            UpdateSign::Insert => 1.0,
            UpdateSign::Delete => -1.0,
        }
    }

    /// Both signs, in the order the paper enumerates them.
    pub fn both() -> [UpdateSign; 2] {
        [UpdateSign::Insert, UpdateSign::Delete]
    }
}

impl fmt::Display for UpdateSign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateSign::Insert => write!(f, "+"),
            UpdateSign::Delete => write!(f, "-"),
        }
    }
}

/// A single-tuple update event `±R(t_1, ..., t_k)` described symbolically: the tuple
/// components are named by *trigger variables* which are bound at runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleUpdate {
    /// The updated relation.
    pub relation: String,
    /// Insertion or deletion.
    pub sign: UpdateSign,
    /// Trigger variable names, one per column of the relation.
    pub trigger_vars: Vec<String>,
}

impl TupleUpdate {
    /// Build an update for `relation` with canonical trigger variable names
    /// `<relation>@<column>` derived from the given column names. The `@` separator
    /// cannot appear in SQL identifiers, so trigger variables can never collide with the
    /// column variables produced by the SQL frontend.
    pub fn new(relation: impl Into<String>, sign: UpdateSign, columns: &[String]) -> TupleUpdate {
        let relation = relation.into();
        let prefix = relation.to_lowercase();
        TupleUpdate {
            trigger_vars: columns
                .iter()
                .map(|c| format!("{}@{}", prefix, c.to_lowercase()))
                .collect(),
            relation,
            sign,
        }
    }
}

impl fmt::Display for TupleUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}({})",
            self.sign,
            self.relation,
            self.trigger_vars.join(", ")
        )
    }
}

/// A concrete single-tuple update event: the runtime counterpart of [`TupleUpdate`],
/// carrying actual values instead of trigger-variable names.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateEvent {
    /// The updated relation.
    pub relation: String,
    /// Insertion or deletion.
    pub sign: UpdateSign,
    /// The inserted / deleted tuple.
    pub tuple: Vec<dbtoaster_gmr::Value>,
}

impl UpdateEvent {
    /// An insertion event.
    pub fn insert(relation: impl Into<String>, tuple: Vec<dbtoaster_gmr::Value>) -> Self {
        UpdateEvent {
            relation: relation.into(),
            sign: UpdateSign::Insert,
            tuple,
        }
    }

    /// A deletion event.
    pub fn delete(relation: impl Into<String>, tuple: Vec<dbtoaster_gmr::Value>) -> Self {
        UpdateEvent {
            relation: relation.into(),
            sign: UpdateSign::Delete,
            tuple,
        }
    }
}

/// Compute the single-tuple delta `Δ_{±R(~t)} Q`.
///
/// The result references the trigger variables of `update` as *input variables*; it is
/// not simplified — callers typically pass it through [`crate::opt::simplify`].
pub fn delta(expr: &Expr, update: &TupleUpdate) -> Expr {
    match expr {
        Expr::Const(_) | Expr::Var(_) | Expr::Cmp(..) | Expr::Apply(..) => Expr::zero(),
        Expr::Rel(r) => {
            if r.kind == AtomKind::Stream && r.name == update.relation {
                debug_assert_eq!(
                    r.args.len(),
                    update.trigger_vars.len(),
                    "update arity mismatch for {}",
                    r.name
                );
                let lifts = r
                    .args
                    .iter()
                    .zip(update.trigger_vars.iter())
                    .map(|(col, tv)| Expr::lift(col.clone(), Expr::var(tv.clone())));
                let body = Expr::product_of(lifts);
                match update.sign {
                    UpdateSign::Insert => body,
                    UpdateSign::Delete => Expr::neg(body),
                }
            } else {
                // Static tables, views and other stream relations do not change.
                Expr::zero()
            }
        }
        Expr::Add(terms) => Expr::sum_of(terms.iter().map(|t| delta(t, update))),
        Expr::Mul(factors) => delta_product(factors, update),
        Expr::Neg(e) => Expr::neg(delta(e, update)),
        Expr::AggSum(gb, e) => {
            let d = delta(e, update);
            if d.is_zero() {
                Expr::zero()
            } else {
                Expr::AggSum(gb.clone(), Box::new(d))
            }
        }
        Expr::Lift(x, e) => {
            let d = delta(e, update);
            if d.is_zero() {
                Expr::zero()
            } else {
                // Δ(x := Q) = (x := Q + ΔQ) - (x := Q).
                Expr::sum_of([
                    Expr::lift(x.clone(), Expr::sum_of([(**e).clone(), d])),
                    Expr::neg(Expr::lift(x.clone(), (**e).clone())),
                ])
            }
        }
        Expr::Exists(e) => {
            let d = delta(e, update);
            if d.is_zero() {
                Expr::zero()
            } else {
                // Δ Exists(Q) = Exists(Q + ΔQ) - Exists(Q), analogous to the lift rule.
                Expr::sum_of([
                    Expr::exists(Expr::sum_of([(**e).clone(), d])),
                    Expr::neg(Expr::exists((**e).clone())),
                ])
            }
        }
    }
}

/// Product rule, folded pairwise:
/// `Δ(Q1 * Q2) = ΔQ1 * Q2 + Q1 * ΔQ2 + ΔQ1 * ΔQ2`.
fn delta_product(factors: &[Expr], update: &TupleUpdate) -> Expr {
    match factors.len() {
        0 => Expr::zero(),
        1 => delta(&factors[0], update),
        _ => {
            let head = &factors[0];
            let tail = Expr::product_of(factors[1..].iter().cloned());
            let d_head = delta(head, update);
            let d_tail = delta(&tail, update);
            let mut terms = Vec::new();
            if !d_head.is_zero() {
                terms.push(Expr::product_of([d_head.clone(), tail.clone()]));
            }
            if !d_tail.is_zero() {
                terms.push(Expr::product_of([head.clone(), d_tail.clone()]));
            }
            if !d_head.is_zero() && !d_tail.is_zero() {
                terms.push(Expr::product_of([d_head, d_tail]));
            }
            Expr::sum_of(terms)
        }
    }
}

/// Apply `delta` repeatedly for a sequence of updates (a k-th order delta).
pub fn higher_order_delta(expr: &Expr, updates: &[TupleUpdate]) -> Expr {
    updates.iter().fold(expr.clone(), |e, u| delta(&e, u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp as Op;

    fn count_rs() -> Expr {
        // Q = Sum[]( R(a) * S(b) )  — Example 1's count of the product.
        Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("R", ["a"]), Expr::rel("S", ["b"])]),
        )
    }

    fn upd(rel: &str, cols: &[&str], sign: UpdateSign) -> TupleUpdate {
        TupleUpdate::new(
            rel,
            sign,
            &cols.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn delta_of_other_relation_is_zero() {
        let q = Expr::rel("R", ["a", "b"]);
        let d = delta(&q, &upd("S", &["c"], UpdateSign::Insert));
        assert!(d.is_zero());
    }

    #[test]
    fn delta_of_static_table_is_zero() {
        let q = Expr::table("Nation", ["n"]);
        let d = delta(&q, &upd("Nation", &["n"], UpdateSign::Insert));
        assert!(d.is_zero());
    }

    #[test]
    fn delta_of_matching_atom_is_lift_product() {
        let q = Expr::rel("R", ["a", "b"]);
        let d = delta(&q, &upd("R", &["a", "b"], UpdateSign::Insert));
        assert_eq!(
            d,
            Expr::product_of([
                Expr::lift("a", Expr::var("r@a")),
                Expr::lift("b", Expr::var("r@b")),
            ])
        );
        let dd = delta(&q, &upd("R", &["a", "b"], UpdateSign::Delete));
        assert!(matches!(dd, Expr::Neg(_)));
    }

    #[test]
    fn degree_decreases_with_each_delta() {
        // Theorem 1: deg(ΔQ) = deg(Q) - 1 for positive-degree queries without nesting.
        let q = count_rs();
        assert_eq!(q.degree(), 2);
        let d1 = delta(&q, &upd("R", &["a"], UpdateSign::Insert));
        assert_eq!(d1.degree(), 1);
        let d2 = delta(&d1, &upd("S", &["b"], UpdateSign::Insert));
        assert_eq!(d2.degree(), 0);
        // The third-order delta is identically zero.
        let d3 = delta(&d2, &upd("R", &["a"], UpdateSign::Insert));
        assert!(d3.is_zero());
    }

    #[test]
    fn second_order_delta_commutes() {
        let q = count_rs();
        let dr = upd("R", &["a"], UpdateSign::Insert);
        let ds = upd("S", &["b"], UpdateSign::Insert);
        let drs = higher_order_delta(&q, &[dr.clone(), ds.clone()]);
        let dsr = higher_order_delta(&q, &[ds, dr]);
        // Both are structurally a Sum[] over the two trigger lifts; their degree is 0.
        assert_eq!(drs.degree(), 0);
        assert_eq!(dsr.degree(), 0);
        assert!(!drs.is_zero());
        assert!(!dsr.is_zero());
    }

    #[test]
    fn self_join_delta_has_three_terms() {
        // Δ(R(a) * R(a)) = ΔR*R + R*ΔR + ΔR*ΔR (Example 12's non-linearity).
        let q = Expr::product_of([Expr::rel("R", ["a"]), Expr::rel("R", ["a"])]);
        let d = delta(&q, &upd("R", &["a"], UpdateSign::Insert));
        match d {
            Expr::Add(ts) => assert_eq!(ts.len(), 3),
            other => panic!("expected 3-term sum, got {other}"),
        }
    }

    #[test]
    fn nested_aggregate_delta_references_original() {
        // Δ(z := Qn) = (z := Qn + ΔQn) - (z := Qn): the original nested query appears
        // twice, which is why Theorem 1 does not apply to nested aggregates.
        let qn = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("S", ["c", "d"]),
                Expr::cmp(Op::Gt, Expr::var("a"), Expr::var("c")),
                Expr::var("d"),
            ]),
        );
        let q = Expr::lift("z", qn);
        let d = delta(&q, &upd("S", &["c", "d"], UpdateSign::Insert));
        match &d {
            Expr::Add(ts) => {
                assert_eq!(ts.len(), 2);
                assert!(ts[0].references_relation("S"));
            }
            other => panic!("expected sum, got {other}"),
        }
        // Delta w.r.t. an unrelated relation is zero.
        assert!(delta(&q, &upd("T", &["x"], UpdateSign::Insert)).is_zero());
    }

    #[test]
    fn comparison_and_constants_have_zero_delta() {
        let e = Expr::cmp(Op::Lt, Expr::var("a"), Expr::val(10));
        assert!(delta(&e, &upd("R", &["a"], UpdateSign::Insert)).is_zero());
        assert!(delta(&Expr::val(42), &upd("R", &["a"], UpdateSign::Insert)).is_zero());
        assert!(delta(&Expr::var("x"), &upd("R", &["a"], UpdateSign::Insert)).is_zero());
    }

    #[test]
    fn trigger_variable_naming() {
        let u = TupleUpdate::new(
            "Lineitem",
            UpdateSign::Insert,
            &["ORDK".into(), "PRICE".into()],
        );
        assert_eq!(u.trigger_vars, vec!["lineitem@ordk", "lineitem@price"]);
        assert_eq!(format!("{u}"), "+Lineitem(lineitem@ordk, lineitem@price)");
    }
}
