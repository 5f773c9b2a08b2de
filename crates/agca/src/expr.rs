//! The AGCA abstract syntax tree.
//!
//! AGCA (AGgregate CAlculus, Section 3.2 of the paper) is a small algebraic language
//! over generalized multiset relations. Expressions are built from constants, variables,
//! relation atoms, comparisons and lifts (`x := Q`), combined with generalized union
//! (`+`), natural join (`*`) and group-by summation (`Sum_A`).
//!
//! Two ergonomic extensions of the paper's core syntax are included, both of which the
//! released DBToaster system also has:
//!
//! * [`Expr::Exists`] — the domain operator mapping non-zero multiplicities to 1, used to
//!   translate `EXISTS` / `IN` subqueries;
//! * [`Expr::Apply`] — scalar function application (division, `LISTMAX`, `LIKE`, …) used
//!   to translate arithmetic that has no multiplicity-level encoding.

use dbtoaster_gmr::FastMap;
use dbtoaster_gmr::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators usable in [`Expr::Cmp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its arguments swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the operator (`NOT (a < b)` ⇔ `a >= b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Evaluate the comparison on two values (with numeric coercion).
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Scalar (value-level) functions usable in [`Expr::Apply`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarFn {
    /// Division of two scalars (division by zero yields 0, see `Value::div`).
    Div,
    /// Maximum of the arguments (TPC-H's `LISTMAX`).
    ListMax,
    /// Square root of a single argument (used by the MDDB workload's `vec_length`).
    Sqrt,
    /// SQL `LIKE` with a `%`-pattern against a single string argument; yields 0/1.
    Like(String),
}

impl ScalarFn {
    /// Does the function take `n` arguments? The one statement of each
    /// function's arity: the evaluator refuses, and `compile` rejects, any
    /// other count.
    pub fn takes(&self, n: usize) -> bool {
        match self {
            ScalarFn::Div => n == 2,
            ScalarFn::Sqrt | ScalarFn::Like(_) => n == 1,
            ScalarFn::ListMax => n >= 1,
        }
    }
}

impl fmt::Display for ScalarFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarFn::Div => write!(f, "div"),
            ScalarFn::ListMax => write!(f, "listmax"),
            ScalarFn::Sqrt => write!(f, "sqrt"),
            ScalarFn::Like(p) => write!(f, "like['{p}']"),
        }
    }
}

/// What kind of collection a relation atom refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomKind {
    /// A base relation that receives insertions and deletions (a "stream" in the paper).
    Stream,
    /// A static base relation (e.g. TPC-H `Nation`, `Region`); deltas w.r.t. it are zero.
    Table,
    /// A materialized view (map) maintained by the generated trigger program.
    View,
}

/// A relation or view atom `R(x1, ..., xk)`.
#[derive(Clone, Debug, PartialEq)]
pub struct RelRef {
    /// Relation / view name.
    pub name: String,
    /// Column variables, in relation-schema order.
    pub args: Vec<String>,
    /// Stream, static table or materialized view.
    pub kind: AtomKind,
}

/// An AGCA expression. Every expression denotes a GMR (a finite map from tuples over its
/// output variables to multiplicities), evaluated relative to a context of bound
/// variables (see [`mod@crate::eval`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant multiplicity `c` (the GMR `{<> -> c}` for numeric constants). String
    /// constants may only appear as scalar arguments of comparisons, lifts and `Apply`.
    Const(Value),
    /// The value of a bound variable, as a nullary multiplicity.
    Var(String),
    /// A relation, table or view atom.
    Rel(RelRef),
    /// Generalized union of terms.
    Add(Vec<Expr>),
    /// Natural join of factors, with left-to-right sideways information passing.
    Mul(Vec<Expr>),
    /// Additive inverse (sugar for multiplication by `-1`).
    Neg(Box<Expr>),
    /// Group-by summation `Sum_{group_by}(expr)`.
    AggSum(Vec<String>, Box<Expr>),
    /// Lift / assignment `x := expr`: binds the scalar value of `expr` to variable `x`
    /// producing the singleton `{<x: v> -> 1}`.
    Lift(String, Box<Expr>),
    /// Comparison of two scalar expressions; yields multiplicity 1 (true) or 0 (false).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Domain operator: maps every non-zero multiplicity to 1.
    Exists(Box<Expr>),
    /// Scalar function application over scalar arguments.
    Apply(ScalarFn, Vec<Expr>),
}

impl Expr {
    // ------------------------------------------------------------------ constructors

    /// The zero of the ring (empty GMR).
    pub fn zero() -> Expr {
        Expr::Const(Value::long(0))
    }

    /// The one of the ring (`{<> -> 1}`).
    pub fn one() -> Expr {
        Expr::Const(Value::long(1))
    }

    /// A numeric constant.
    pub fn val(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// A stream relation atom.
    pub fn rel<S: Into<String>>(
        name: impl Into<String>,
        args: impl IntoIterator<Item = S>,
    ) -> Expr {
        Expr::Rel(RelRef {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
            kind: AtomKind::Stream,
        })
    }

    /// A static table atom.
    pub fn table<S: Into<String>>(
        name: impl Into<String>,
        args: impl IntoIterator<Item = S>,
    ) -> Expr {
        Expr::Rel(RelRef {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
            kind: AtomKind::Table,
        })
    }

    /// A materialized view atom.
    pub fn view<S: Into<String>>(
        name: impl Into<String>,
        args: impl IntoIterator<Item = S>,
    ) -> Expr {
        Expr::Rel(RelRef {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
            kind: AtomKind::View,
        })
    }

    /// Sum of terms (flattens nested sums; empty sum is zero).
    pub fn sum_of(terms: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out = Vec::new();
        for t in terms {
            match t {
                Expr::Add(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Expr::zero(),
            1 => out.pop().unwrap(),
            _ => Expr::Add(out),
        }
    }

    /// Product of factors (flattens nested products; empty product is one).
    pub fn product_of(factors: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out = Vec::new();
        for t in factors {
            match t {
                Expr::Mul(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Expr::one(),
            1 => out.pop().unwrap(),
            _ => Expr::Mul(out),
        }
    }

    /// Group-by summation.
    pub fn agg_sum<S: Into<String>>(group_by: impl IntoIterator<Item = S>, body: Expr) -> Expr {
        Expr::AggSum(
            group_by.into_iter().map(Into::into).collect(),
            Box::new(body),
        )
    }

    /// Lift `var := body`.
    pub fn lift(var: impl Into<String>, body: Expr) -> Expr {
        Expr::Lift(var.into(), Box::new(body))
    }

    /// Comparison.
    pub fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
        Expr::Cmp(op, Box::new(left), Box::new(right))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    /// Existence / domain operator.
    pub fn exists(e: Expr) -> Expr {
        Expr::Exists(Box::new(e))
    }

    /// Scalar function application.
    pub fn apply(f: ScalarFn, args: Vec<Expr>) -> Expr {
        Expr::Apply(f, args)
    }

    // ------------------------------------------------------------------ predicates

    /// Is this literally the constant zero?
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::Const(v) if v.as_f64().map(|x| x == 0.0).unwrap_or(false))
    }

    /// Is this literally the constant one?
    pub fn is_one(&self) -> bool {
        matches!(self, Expr::Const(v) if v.as_f64().map(|x| x == 1.0).unwrap_or(false))
    }

    /// Is this a constant (numeric or string)?
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Expr::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Does the expression contain any relation atom of the given kind?
    pub fn contains_atom_kind(&self, kind: AtomKind) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Rel(r) = e {
                if r.kind == kind {
                    found = true;
                }
            }
        });
        found
    }

    /// Does the expression reference the named relation (of any kind)?
    pub fn references_relation(&self, name: &str) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Rel(r) = e {
                if r.name == name {
                    found = true;
                }
            }
        });
        found
    }

    /// Names of all stream relations referenced (the relations whose updates trigger
    /// maintenance).
    pub fn stream_relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let Expr::Rel(r) = e {
                if r.kind == AtomKind::Stream {
                    out.insert(r.name.clone());
                }
            }
        });
        out
    }

    /// All relation atoms (of every kind) in the expression.
    pub fn atoms(&self) -> Vec<RelRef> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Rel(r) = e {
                out.push(r.clone());
            }
        });
        out
    }

    /// The *degree* of the expression: the maximum, over the monomials of its expanded
    /// form, of the number of stream-relation atoms joined (Theorem 1 of the paper).
    /// Lifted subexpressions (nested aggregates) contribute their own degree, which is
    /// why Theorem 1 does not apply to them.
    pub fn degree(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Cmp(..) | Expr::Apply(..) => 0,
            Expr::Rel(r) => usize::from(r.kind == AtomKind::Stream),
            Expr::Add(ts) => ts.iter().map(Expr::degree).max().unwrap_or(0),
            Expr::Mul(fs) => fs.iter().map(Expr::degree).sum(),
            Expr::Neg(e) | Expr::AggSum(_, e) | Expr::Lift(_, e) | Expr::Exists(e) => e.degree(),
        }
    }

    // ------------------------------------------------------------------ traversal

    /// Visit every sub-expression (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Rel(_) => {}
            Expr::Add(ts) | Expr::Mul(ts) | Expr::Apply(_, ts) => {
                for t in ts {
                    t.visit(f);
                }
            }
            Expr::Neg(e) | Expr::AggSum(_, e) | Expr::Lift(_, e) | Expr::Exists(e) => e.visit(f),
            Expr::Cmp(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
        }
    }

    /// Rebuild the expression by mapping every child through `f` (single level).
    pub fn map_children(&self, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Rel(_) => self.clone(),
            Expr::Add(ts) => Expr::Add(ts.iter().map(&mut *f).collect()),
            Expr::Mul(ts) => Expr::Mul(ts.iter().map(&mut *f).collect()),
            Expr::Apply(func, ts) => Expr::Apply(func.clone(), ts.iter().map(&mut *f).collect()),
            Expr::Neg(e) => Expr::Neg(Box::new(f(e))),
            Expr::AggSum(gb, e) => Expr::AggSum(gb.clone(), Box::new(f(e))),
            Expr::Lift(x, e) => Expr::Lift(x.clone(), Box::new(f(e))),
            Expr::Exists(e) => Expr::Exists(Box::new(f(e))),
            Expr::Cmp(op, l, r) => Expr::Cmp(*op, Box::new(f(l)), Box::new(f(r))),
        }
    }

    // ------------------------------------------------------------------ substitution

    /// Rename a variable everywhere it appears: value uses (`Var`), relation-atom
    /// arguments, group-by lists and lift targets.
    pub fn rename_var(&self, old: &str, new: &str) -> Expr {
        let mut map = FastMap::default();
        map.insert(old.to_string(), new.to_string());
        self.rename_vars(&map)
    }

    /// Rename variables everywhere according to `map`.
    pub fn rename_vars(&self, map: &FastMap<String, String>) -> Expr {
        let rn = |s: &String| map.get(s).cloned().unwrap_or_else(|| s.clone());
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(x) => Expr::Var(rn(x)),
            Expr::Rel(r) => Expr::Rel(RelRef {
                name: r.name.clone(),
                args: r.args.iter().map(rn).collect(),
                kind: r.kind,
            }),
            Expr::AggSum(gb, e) => {
                Expr::AggSum(gb.iter().map(rn).collect(), Box::new(e.rename_vars(map)))
            }
            Expr::Lift(x, e) => Expr::Lift(rn(x), Box::new(e.rename_vars(map))),
            _ => self.map_children(&mut |c| c.rename_vars(map)),
        }
    }

    /// Replace *value uses* of a variable (i.e. `Var(name)` occurrences) with a scalar
    /// expression. Binding positions (relation args, group-by lists, lift targets) are
    /// left untouched; use [`Expr::rename_var`] for those.
    pub fn substitute_value(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Var(x) if x == name => replacement.clone(),
            _ => self.map_children(&mut |c| c.substitute_value(name, replacement)),
        }
    }

    /// All variable names mentioned anywhere (value uses, binding positions, group-bys).
    pub fn all_variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| match e {
            Expr::Var(x) => {
                out.insert(x.clone());
            }
            Expr::Rel(r) => out.extend(r.args.iter().cloned()),
            Expr::AggSum(gb, _) => out.extend(gb.iter().cloned()),
            Expr::Lift(x, _) => {
                out.insert(x.clone());
            }
            _ => {}
        });
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Rel(r) => {
                let tag = match r.kind {
                    AtomKind::Stream => "",
                    AtomKind::Table => "#",
                    AtomKind::View => "$",
                };
                write!(f, "{tag}{}({})", r.name, r.args.join(", "))
            }
            Expr::Add(ts) => {
                let parts: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
                write!(f, "({})", parts.join(" + "))
            }
            Expr::Mul(ts) => {
                let parts: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
                write!(f, "({})", parts.join(" * "))
            }
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::AggSum(gb, e) => write!(f, "Sum[{}]({e})", gb.join(", ")),
            Expr::Lift(x, e) => write!(f, "({x} := {e})"),
            Expr::Cmp(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Exists(e) => write!(f, "Exists({e})"),
            Expr::Apply(func, args) => {
                let parts: Vec<String> = args.iter().map(|t| t.to_string()).collect();
                write!(f, "{func}({})", parts.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expr {
        // Sum[B]( R(A,B) * S(B,C) * (A < C) * A )
        Expr::agg_sum(
            ["B"],
            Expr::product_of([
                Expr::rel("R", ["A", "B"]),
                Expr::rel("S", ["B", "C"]),
                Expr::cmp(CmpOp::Lt, Expr::var("A"), Expr::var("C")),
                Expr::var("A"),
            ]),
        )
    }

    #[test]
    fn constructors_flatten() {
        let e = Expr::product_of([
            Expr::Mul(vec![Expr::var("a"), Expr::var("b")]),
            Expr::var("c"),
        ]);
        assert_eq!(
            e,
            Expr::Mul(vec![Expr::var("a"), Expr::var("b"), Expr::var("c")])
        );
        assert_eq!(Expr::sum_of([]), Expr::zero());
        assert_eq!(Expr::product_of([]), Expr::one());
        assert_eq!(Expr::sum_of([Expr::var("x")]), Expr::var("x"));
    }

    #[test]
    fn degree_counts_stream_atoms() {
        assert_eq!(sample().degree(), 2);
        let with_table =
            Expr::product_of([Expr::rel("R", ["A"]), Expr::table("Nation", ["A", "N"])]);
        assert_eq!(with_table.degree(), 1);
        assert_eq!(Expr::val(5).degree(), 0);
        let union = Expr::sum_of([sample(), Expr::rel("T", ["X"])]);
        assert_eq!(union.degree(), 2);
    }

    #[test]
    fn stream_relations_collects_names() {
        let rels = sample().stream_relations();
        assert_eq!(rels.len(), 2);
        assert!(rels.contains("R") && rels.contains("S"));
        assert!(!Expr::table("Nation", ["N"])
            .stream_relations()
            .contains("Nation"));
    }

    #[test]
    fn rename_var_covers_binding_positions() {
        let e = sample().rename_var("B", "B1");
        assert!(e.all_variables().contains("B1"));
        assert!(!e.all_variables().contains("B"));
        match &e {
            Expr::AggSum(gb, _) => assert_eq!(gb, &vec!["B1".to_string()]),
            _ => panic!("expected AggSum"),
        }
    }

    #[test]
    fn substitute_value_leaves_bindings() {
        let e = sample().substitute_value("A", &Expr::val(7));
        // The relation atom still binds A; only the value uses changed.
        assert!(e.all_variables().contains("A"));
        let display = e.to_string();
        assert!(display.contains("(7 < C)"));
        assert!(display.contains("R(A, B)"));
    }

    #[test]
    fn cmp_op_flip_negate_eval() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert!(CmpOp::Lt.eval(&Value::long(1), &Value::double(1.5)));
        assert!(!CmpOp::Eq.eval(&Value::str("a"), &Value::str("b")));
    }

    #[test]
    fn display_round_trips_structure() {
        let s = sample().to_string();
        assert!(s.starts_with("Sum[B]("));
        assert!(s.contains("R(A, B)"));
        assert!(s.contains("(A < C)"));
    }

    #[test]
    fn zero_one_predicates() {
        assert!(Expr::zero().is_zero());
        assert!(Expr::one().is_one());
        assert!(!Expr::val(2).is_one());
        assert!(Expr::Const(Value::double(0.0)).is_zero());
    }
}
