//! Binding-pattern analysis: input and output variables of AGCA expressions.
//!
//! Every AGCA expression `Q[~x_in][~x_out]` has *input variables* (parameters that must
//! be bound before the expression can be evaluated — e.g. correlation variables of a
//! nested subquery, or the trigger variables introduced by the delta transform) and
//! *output variables* (the columns of its result schema). Section 3.3 of the paper.
//!
//! The analysis mirrors the evaluation order: products propagate bindings from left to
//! right ("sideways information passing"), so a comparison may legally reference a
//! variable produced by an atom to its left.

use crate::expr::Expr;
use std::collections::BTreeSet;
use std::fmt;

/// The binding pattern of an expression.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarInfo {
    /// Variables that must be bound by the evaluation context.
    pub inputs: BTreeSet<String>,
    /// Output variables (result columns), in order of first production.
    pub outputs: Vec<String>,
}

impl VarInfo {
    fn push_output(&mut self, v: &str) {
        if !self.outputs.iter().any(|o| o == v) {
            self.outputs.push(v.to_string());
        }
    }
}

/// Errors raised by the scope analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScopeError {
    /// A group-by variable is neither produced by the aggregated expression nor bound.
    UnboundGroupBy(String),
    /// The terms of a union do not produce the same output columns.
    UnionSchemaMismatch(String, String),
}

impl fmt::Display for ScopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeError::UnboundGroupBy(v) => write!(f, "group-by variable {v} is unbound"),
            ScopeError::UnionSchemaMismatch(a, b) => {
                write!(f, "union of incompatible schemas [{a}] and [{b}]")
            }
        }
    }
}

impl std::error::Error for ScopeError {}

/// Compute the binding pattern of `expr` given the already-bound variables `bound`.
pub fn var_info(expr: &Expr, bound: &BTreeSet<String>) -> Result<VarInfo, ScopeError> {
    let mut info = VarInfo::default();
    collect(expr, bound, &mut info)?;
    Ok(info)
}

/// Output variables of a closed expression (no externally bound variables).
pub fn output_vars(expr: &Expr) -> Vec<String> {
    var_info(expr, &BTreeSet::new())
        .map(|i| i.outputs)
        .unwrap_or_default()
}

/// Input variables of a closed expression.
pub fn input_vars(expr: &Expr) -> BTreeSet<String> {
    var_info(expr, &BTreeSet::new())
        .map(|i| i.inputs)
        .unwrap_or_default()
}

fn need(var: &str, bound: &BTreeSet<String>, produced: &VarInfo, info: &mut VarInfo) {
    if !bound.contains(var) && !produced.outputs.iter().any(|o| o == var) {
        info.inputs.insert(var.to_string());
    }
}

/// Collect the vars of a scalar-position expression (comparison side, `Apply` argument,
/// lift body): everything it needs that is not in scope becomes an input; its own
/// outputs (if any — e.g. a nested `AggSum` with no group-by has none) are discarded.
fn collect_scalar(
    expr: &Expr,
    bound: &BTreeSet<String>,
    outer: &VarInfo,
    info: &mut VarInfo,
) -> Result<(), ScopeError> {
    let mut scope = bound.clone();
    scope.extend(outer.outputs.iter().cloned());
    scope.extend(info.outputs.iter().cloned());
    let nested = var_info(expr, &scope)?;
    info.inputs.extend(nested.inputs);
    Ok(())
}

fn collect(expr: &Expr, bound: &BTreeSet<String>, info: &mut VarInfo) -> Result<(), ScopeError> {
    match expr {
        Expr::Const(_) => {}
        Expr::Var(x) => need(x, bound, &VarInfo::default(), info),
        Expr::Rel(r) => {
            for a in &r.args {
                info.push_output(a);
            }
        }
        Expr::Add(terms) => {
            let mut first: Option<Vec<String>> = None;
            for t in terms {
                let ti = var_info(t, bound)?;
                info.inputs.extend(ti.inputs);
                match &first {
                    None => {
                        for o in &ti.outputs {
                            info.push_output(o);
                        }
                        first = Some(ti.outputs);
                    }
                    Some(f) => {
                        let same =
                            f.len() == ti.outputs.len() && f.iter().all(|c| ti.outputs.contains(c));
                        if !same {
                            return Err(ScopeError::UnionSchemaMismatch(
                                f.join(", "),
                                ti.outputs.join(", "),
                            ));
                        }
                    }
                }
            }
        }
        Expr::Mul(factors) => {
            // Left-to-right: each factor sees the outputs of the factors before it.
            let mut scope = bound.clone();
            for f in factors {
                let fi = var_info(f, &scope)?;
                for i in fi.inputs {
                    if !scope.contains(&i) && !info.outputs.contains(&i) {
                        info.inputs.insert(i);
                    }
                }
                for o in &fi.outputs {
                    info.push_output(o);
                    scope.insert(o.clone());
                }
            }
        }
        Expr::Neg(e) | Expr::Exists(e) => collect(e, bound, info)?,
        Expr::AggSum(gb, e) => {
            let inner = var_info(e, bound)?;
            info.inputs.extend(inner.inputs);
            for g in gb {
                if inner.outputs.iter().any(|o| o == g) || bound.contains(g) {
                    info.push_output(g);
                } else {
                    return Err(ScopeError::UnboundGroupBy(g.clone()));
                }
            }
        }
        Expr::Lift(x, e) => {
            collect_scalar(e, bound, &VarInfo::default(), info)?;
            info.push_output(x);
        }
        Expr::Cmp(_, l, r) => {
            collect_scalar(l, bound, &VarInfo::default(), info)?;
            collect_scalar(r, bound, &VarInfo::default(), info)?;
        }
        Expr::Apply(_, args) => {
            for a in args {
                collect_scalar(a, bound, &VarInfo::default(), info)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp as Op;

    fn bound(vars: &[&str]) -> BTreeSet<String> {
        vars.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn relation_atoms_produce_outputs() {
        let e = Expr::rel("R", ["A", "B"]);
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert_eq!(i.outputs, vec!["A", "B"]);
        assert!(i.inputs.is_empty());
    }

    #[test]
    fn sideways_information_passing_in_products() {
        // R(A,B) * (A < C): C is an input, A is produced by the atom.
        let e = Expr::product_of([
            Expr::rel("R", ["A", "B"]),
            Expr::cmp(Op::Lt, Expr::var("A"), Expr::var("C")),
        ]);
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert_eq!(i.outputs, vec!["A", "B"]);
        assert_eq!(i.inputs, bound(&["C"]));

        // With C bound from outside there are no inputs.
        let i2 = var_info(&e, &bound(&["C"])).unwrap();
        assert!(i2.inputs.is_empty());
    }

    #[test]
    fn comparison_before_binding_is_an_input() {
        // (A < C) * R(A,B): evaluation order is left to right, so A is required *before*
        // the atom produces it — it is an input of the whole product.
        let e = Expr::product_of([
            Expr::cmp(Op::Lt, Expr::var("A"), Expr::var("C")),
            Expr::rel("R", ["A", "B"]),
        ]);
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert!(i.inputs.contains("A"));
        assert!(i.inputs.contains("C"));
    }

    #[test]
    fn lift_produces_its_target() {
        // (z := Sum[](S(C,D) * (A > C) * D)): correlated nested aggregate from Example 5.
        let nested = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("S", ["C", "D"]),
                Expr::cmp(Op::Gt, Expr::var("A"), Expr::var("C")),
                Expr::var("D"),
            ]),
        );
        let e = Expr::lift("z", nested);
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert_eq!(i.outputs, vec!["z"]);
        assert_eq!(i.inputs, bound(&["A"]));
    }

    #[test]
    fn example5_full_query_has_no_inputs() {
        // Sum[A,B]( R(A,B) * (z := Qn) * (B < z) )
        let qn = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("S", ["C", "D"]),
                Expr::cmp(Op::Gt, Expr::var("A"), Expr::var("C")),
                Expr::var("D"),
            ]),
        );
        let q = Expr::agg_sum(
            ["A", "B"],
            Expr::product_of([
                Expr::rel("R", ["A", "B"]),
                Expr::lift("z", qn),
                Expr::cmp(Op::Lt, Expr::var("B"), Expr::var("z")),
            ]),
        );
        let i = var_info(&q, &BTreeSet::new()).unwrap();
        assert!(i.inputs.is_empty(), "inputs: {:?}", i.inputs);
        assert_eq!(i.outputs, vec!["A", "B"]);
    }

    #[test]
    fn aggsum_restricts_outputs() {
        let e = Expr::agg_sum(["B"], Expr::rel("R", ["A", "B"]));
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert_eq!(i.outputs, vec!["B"]);
    }

    #[test]
    fn unbound_group_by_is_an_error() {
        let e = Expr::agg_sum(["Z"], Expr::rel("R", ["A", "B"]));
        assert!(matches!(
            var_info(&e, &BTreeSet::new()),
            Err(ScopeError::UnboundGroupBy(_))
        ));
        // ...unless the variable is bound from outside.
        assert!(var_info(&e, &bound(&["Z"])).is_ok());
    }

    #[test]
    fn union_schema_mismatch_detected() {
        let e = Expr::sum_of([Expr::rel("R", ["A"]), Expr::rel("S", ["B"])]);
        assert!(matches!(
            var_info(&e, &BTreeSet::new()),
            Err(ScopeError::UnionSchemaMismatch(..))
        ));
    }

    #[test]
    fn union_same_columns_ok() {
        let e = Expr::sum_of([Expr::rel("R", ["A", "B"]), Expr::rel("S", ["B", "A"])]);
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert_eq!(i.outputs.len(), 2);
    }

    #[test]
    fn delta_style_lift_of_trigger_var() {
        // (A := r_a) * (B := r_b) — the single-tuple delta of R(A,B).
        let e = Expr::product_of([
            Expr::lift("A", Expr::var("r_a")),
            Expr::lift("B", Expr::var("r_b")),
        ]);
        let i = var_info(&e, &BTreeSet::new()).unwrap();
        assert_eq!(i.outputs, vec!["A", "B"]);
        assert_eq!(i.inputs, bound(&["r_a", "r_b"]));
    }
}
