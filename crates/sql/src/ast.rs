//! Abstract syntax for the SQL fragment accepted by the frontend.
//!
//! The fragment covers the workload of the paper's evaluation: select-project-join
//! aggregate queries with `GROUP BY`, arithmetic in the select list, conjunctive and
//! disjunctive `WHERE` clauses, `BETWEEN`, `IN` lists, `LIKE`, `EXISTS` / `NOT EXISTS`
//! and scalar (correlated) subqueries compared against expressions, plus the restricted
//! `CASE WHEN ... THEN ... ELSE ... END` form used by TPC-H Q12/Q14.

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(expr)`
    Sum,
    /// `COUNT(*)` / `COUNT(expr)`
    Count,
    /// `AVG(expr)` — maintained as a SUM and a COUNT (generalized Higher-Order IVM).
    Avg,
}

/// Comparison operators (shared with AGCA through a simple mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlCmpOp {
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

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A column reference `alias.column` or `column`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional table alias qualifier.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

/// Scalar-valued SQL expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum SqlExpr {
    /// Column reference.
    Column(ColumnRef),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE('yyyy-mm-dd')`, encoded as the integer `yyyymmdd`.
    Date(i64),
    /// Binary arithmetic.
    Arith(ArithOp, Box<SqlExpr>, Box<SqlExpr>),
    /// Unary minus.
    Neg(Box<SqlExpr>),
    /// Aggregate call (only valid in the select list or inside a scalar subquery's
    /// select list).
    Aggregate(AggFunc, Option<Box<SqlExpr>>),
    /// A scalar subquery.
    Subquery(Box<SelectQuery>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case {
        /// Condition of the single WHEN branch.
        when: Box<Condition>,
        /// THEN expression.
        then: Box<SqlExpr>,
        /// ELSE expression.
        otherwise: Box<SqlExpr>,
    },
    /// `LISTMAX(a, b, ...)` — TPC-H helper used to guard divisions.
    ListMax(Vec<SqlExpr>),
}

/// Boolean conditions.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation.
    Not(Box<Condition>),
    /// Comparison of two scalar expressions (either side may be a scalar subquery).
    Cmp(SqlCmpOp, SqlExpr, SqlExpr),
    /// `expr BETWEEN lo AND hi`.
    Between(SqlExpr, SqlExpr, SqlExpr),
    /// `expr IN (v1, v2, ...)` over literal values.
    InList(SqlExpr, Vec<SqlExpr>),
    /// `expr LIKE 'pattern'`.
    Like(SqlExpr, String),
    /// `EXISTS (subquery)`.
    Exists(Box<SelectQuery>),
}

/// An item of the select list.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    /// The selected expression (an aggregate or a group-by column).
    pub expr: SqlExpr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A table in the FROM clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// A `SELECT ... FROM ... [WHERE ...] [GROUP BY ...]` query.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectQuery {
    /// Select list.
    pub select: Vec<SelectItem>,
    /// FROM tables.
    pub from: Vec<TableRef>,
    /// Optional WHERE condition.
    pub where_clause: Option<Condition>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
}

impl SelectQuery {
    /// All table references, including those of nested subqueries.
    pub fn all_tables(&self) -> Vec<String> {
        let mut out: Vec<String> = self.from.iter().map(|t| t.table.clone()).collect();
        fn walk_cond(c: &Condition, out: &mut Vec<String>) {
            match c {
                Condition::And(a, b) | Condition::Or(a, b) => {
                    walk_cond(a, out);
                    walk_cond(b, out);
                }
                Condition::Not(a) => walk_cond(a, out),
                Condition::Cmp(_, l, r) => {
                    walk_expr(l, out);
                    walk_expr(r, out);
                }
                Condition::Between(a, b, c) => {
                    walk_expr(a, out);
                    walk_expr(b, out);
                    walk_expr(c, out);
                }
                Condition::InList(e, vs) => {
                    walk_expr(e, out);
                    for v in vs {
                        walk_expr(v, out);
                    }
                }
                Condition::Like(e, _) => walk_expr(e, out),
                Condition::Exists(q) => out.extend(q.all_tables()),
            }
        }
        fn walk_expr(e: &SqlExpr, out: &mut Vec<String>) {
            match e {
                SqlExpr::Arith(_, a, b) => {
                    walk_expr(a, out);
                    walk_expr(b, out);
                }
                SqlExpr::Neg(a) => walk_expr(a, out),
                SqlExpr::Aggregate(_, Some(a)) => walk_expr(a, out),
                SqlExpr::Subquery(q) => out.extend(q.all_tables()),
                SqlExpr::Case {
                    when,
                    then,
                    otherwise,
                } => {
                    walk_cond(when, out);
                    walk_expr(then, out);
                    walk_expr(otherwise, out);
                }
                SqlExpr::ListMax(args) => {
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                _ => {}
            }
        }
        if let Some(w) = &self.where_clause {
            walk_cond(w, &mut out);
        }
        for item in &self.select {
            walk_expr(&item.expr, &mut out);
        }
        out
    }

    /// Maximum nesting depth of subqueries (0 for a flat query).
    pub fn nesting_depth(&self) -> usize {
        fn cond_depth(c: &Condition) -> usize {
            match c {
                Condition::And(a, b) | Condition::Or(a, b) => cond_depth(a).max(cond_depth(b)),
                Condition::Not(a) => cond_depth(a),
                Condition::Cmp(_, l, r) => expr_depth(l).max(expr_depth(r)),
                Condition::Between(a, b, c) => expr_depth(a).max(expr_depth(b)).max(expr_depth(c)),
                Condition::InList(e, _) | Condition::Like(e, _) => expr_depth(e),
                Condition::Exists(q) => 1 + q.nesting_depth(),
            }
        }
        fn expr_depth(e: &SqlExpr) -> usize {
            match e {
                SqlExpr::Arith(_, a, b) => expr_depth(a).max(expr_depth(b)),
                SqlExpr::Neg(a) | SqlExpr::Aggregate(_, Some(a)) => expr_depth(a),
                SqlExpr::Subquery(q) => 1 + q.nesting_depth(),
                SqlExpr::Case {
                    then, otherwise, ..
                } => expr_depth(then).max(expr_depth(otherwise)),
                SqlExpr::ListMax(args) => args.iter().map(expr_depth).max().unwrap_or(0),
                _ => 0,
            }
        }
        self.where_clause.as_ref().map(cond_depth).unwrap_or(0).max(
            self.select
                .iter()
                .map(|s| expr_depth(&s.expr))
                .max()
                .unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(q: &str, c: &str) -> SqlExpr {
        SqlExpr::Column(ColumnRef {
            qualifier: Some(q.into()),
            column: c.into(),
        })
    }

    #[test]
    fn all_tables_includes_subqueries() {
        let sub = SelectQuery {
            select: vec![SelectItem {
                expr: SqlExpr::Aggregate(AggFunc::Sum, Some(Box::new(col("b", "v")))),
                alias: None,
            }],
            from: vec![TableRef {
                table: "Bids".into(),
                alias: "b".into(),
            }],
            where_clause: None,
            group_by: vec![],
        };
        let q = SelectQuery {
            select: vec![SelectItem {
                expr: SqlExpr::Aggregate(AggFunc::Count, None),
                alias: None,
            }],
            from: vec![TableRef {
                table: "Asks".into(),
                alias: "a".into(),
            }],
            where_clause: Some(Condition::Cmp(
                SqlCmpOp::Gt,
                col("a", "volume"),
                SqlExpr::Subquery(Box::new(sub)),
            )),
            group_by: vec![],
        };
        let tables = q.all_tables();
        assert!(tables.contains(&"Asks".to_string()));
        assert!(tables.contains(&"Bids".to_string()));
        assert_eq!(q.nesting_depth(), 1);
    }
}
