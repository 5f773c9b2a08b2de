//! SQL → AGCA translation.
//!
//! The translation follows the standard conjunctive-query reading that the paper uses
//! throughout its examples (e.g. Example 6 translating Example 2's SQL):
//!
//! * every FROM table becomes a relation atom whose arguments are per-alias column
//!   variables;
//! * top-level equality predicates between columns are *unified* — both columns map to
//!   the same variable, turning equijoins (and equality correlations of nested
//!   subqueries) into shared variables, which is what the compiler's decomposition and
//!   index selection rely on;
//! * remaining predicates become comparison factors; disjunctions, `NOT`, `IN` lists and
//!   `CASE` are translated through 0/1 indicator expressions (`a OR b = a + b − a·b`);
//! * scalar subqueries are lifted (`z := Sum[](...)`) and compared through `z`;
//!   `EXISTS` becomes a lifted count compared against 0;
//! * each aggregate of the select list becomes one maintained view
//!   `Sum_{group-by}(atoms * predicates * value)`; `AVG` is maintained as a SUM and a
//!   COUNT view combined at result-access time (generalized Higher-Order IVM).

use crate::ast::{
    AggFunc, ArithOp, ColumnRef, Condition, SelectQuery, SqlCmpOp, SqlExpr, TableRef,
};
use crate::catalog::SqlCatalog;
use dbtoaster_agca::{CmpOp, Expr, ScalarFn};
use dbtoaster_gmr::Value;
use std::collections::HashMap;
use std::fmt;

/// A view that must be maintained for the query.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewSpec {
    /// View (map) name.
    pub name: String,
    /// Key columns (the query's group-by variables).
    pub out_vars: Vec<String>,
    /// Defining AGCA expression over the base relations.
    pub expr: Expr,
}

/// How one output column of the query is obtained.
#[derive(Clone, Debug, PartialEq)]
pub enum OutputColumn {
    /// A group-by column, exposed as a key column of every maintained view.
    GroupBy {
        /// SQL-visible column name.
        column: String,
        /// The AGCA variable carrying it.
        var: String,
    },
    /// An aggregate read directly from a maintained view.
    Aggregate {
        /// SQL-visible column name.
        column: String,
        /// The maintained view holding it.
        view: String,
    },
    /// An `AVG` aggregate computed as SUM / COUNT at access time.
    Average {
        /// SQL-visible column name.
        column: String,
        /// View holding the sum.
        sum_view: String,
        /// View holding the count.
        count_view: String,
    },
}

/// The result of translating one SQL query.
#[derive(Clone, Debug, PartialEq)]
pub struct TranslatedQuery {
    /// Query name.
    pub name: String,
    /// Group-by variables (key columns of every maintained view).
    pub group_by: Vec<String>,
    /// Views to compile and maintain.
    pub views: Vec<ViewSpec>,
    /// Output columns in select-list order.
    pub outputs: Vec<OutputColumn>,
}

/// Translation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum TranslateError {
    /// A FROM table is not in the catalog.
    UnknownTable(String),
    /// A column could not be resolved in any visible scope.
    UnknownColumn(String),
    /// A column resolves to more than one table in the same scope.
    AmbiguousColumn(String),
    /// The query uses a feature outside the supported fragment.
    Unsupported(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnknownTable(t) => write!(f, "unknown table {t}"),
            TranslateError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            TranslateError::AmbiguousColumn(c) => write!(f, "ambiguous column {c}"),
            TranslateError::Unsupported(m) => write!(f, "unsupported SQL feature: {m}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a parsed SQL query into maintained views and output columns.
pub fn translate(
    name: &str,
    query: &SelectQuery,
    catalog: &SqlCatalog,
) -> Result<TranslatedQuery, TranslateError> {
    let mut tr = Translator {
        catalog,
        uf: UnionFind::default(),
        fresh: 0,
    };
    // Phase A: collect variable unifications (equijoins, equality correlations).
    let scopes = vec![tr.scope_of(query)?];
    tr.collect_unifications(query, &scopes)?;

    // Phase B: build the maintained views.
    let scope = tr.scope_of(query)?;
    let factors = tr.body_factors(query, std::slice::from_ref(&scope))?;

    // Group-by variables and output columns.
    let mut group_by = Vec::new();
    let mut group_columns: HashMap<String, String> = HashMap::new();
    for g in &query.group_by {
        let var = tr.resolve_column(g, std::slice::from_ref(&scope))?;
        if !group_by.contains(&var) {
            group_by.push(var.clone());
        }
        group_columns.insert(g.column.to_lowercase(), var);
    }

    let mut views = Vec::new();
    let mut outputs = Vec::new();
    let mut agg_index = 0usize;
    for item in &query.select {
        match &item.expr {
            SqlExpr::Column(c) => {
                let var = tr.resolve_column(c, std::slice::from_ref(&scope))?;
                if !group_by.contains(&var) {
                    return Err(TranslateError::Unsupported(format!(
                        "non-aggregate column {} not in GROUP BY",
                        c.column
                    )));
                }
                outputs.push(OutputColumn::GroupBy {
                    column: item
                        .alias
                        .clone()
                        .unwrap_or_else(|| c.column.to_lowercase()),
                    var,
                });
            }
            SqlExpr::Aggregate(func, arg) => {
                agg_index += 1;
                let col_name = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("{}_{}", name, agg_index));
                let base = format!("{}_{}", name, agg_index);
                match func {
                    AggFunc::Sum | AggFunc::Count => {
                        let view_name = if query
                            .select
                            .iter()
                            .filter(|s| !matches!(s.expr, SqlExpr::Column(_)))
                            .count()
                            == 1
                        {
                            name.to_string()
                        } else {
                            base
                        };
                        let expr = tr.aggregate_expr(
                            &factors,
                            &group_by,
                            arg.as_deref(),
                            *func,
                            std::slice::from_ref(&scope),
                        )?;
                        views.push(ViewSpec {
                            name: view_name.clone(),
                            out_vars: group_by.clone(),
                            expr,
                        });
                        outputs.push(OutputColumn::Aggregate {
                            column: col_name,
                            view: view_name,
                        });
                    }
                    AggFunc::Avg => {
                        let sum_name = format!("{base}_sum");
                        let cnt_name = format!("{base}_cnt");
                        let sum_expr = tr.aggregate_expr(
                            &factors,
                            &group_by,
                            arg.as_deref(),
                            AggFunc::Sum,
                            std::slice::from_ref(&scope),
                        )?;
                        let cnt_expr = tr.aggregate_expr(
                            &factors,
                            &group_by,
                            None,
                            AggFunc::Count,
                            std::slice::from_ref(&scope),
                        )?;
                        views.push(ViewSpec {
                            name: sum_name.clone(),
                            out_vars: group_by.clone(),
                            expr: sum_expr,
                        });
                        views.push(ViewSpec {
                            name: cnt_name.clone(),
                            out_vars: group_by.clone(),
                            expr: cnt_expr,
                        });
                        outputs.push(OutputColumn::Average {
                            column: col_name,
                            sum_view: sum_name,
                            count_view: cnt_name,
                        });
                    }
                }
            }
            other => {
                return Err(TranslateError::Unsupported(format!(
                    "select item must be a group-by column or a single aggregate, got {other:?}"
                )));
            }
        }
    }
    if views.is_empty() {
        return Err(TranslateError::Unsupported(
            "query has no aggregate in its select list".into(),
        ));
    }
    let _ = group_columns;
    Ok(TranslatedQuery {
        name: name.to_string(),
        group_by,
        views,
        outputs,
    })
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// One scope: alias → (table name, columns).
type Scope = Vec<(String, String, Vec<String>)>;

#[derive(Default)]
struct UnionFind {
    parent: HashMap<String, String>,
}

impl UnionFind {
    fn find(&self, v: &str) -> String {
        let mut cur = v.to_string();
        while let Some(p) = self.parent.get(&cur) {
            if *p == cur {
                break;
            }
            cur = p.clone();
        }
        cur
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Deterministic representative: lexicographically smaller root.
        if ra <= rb {
            self.parent.insert(rb, ra);
        } else {
            self.parent.insert(ra, rb);
        }
    }
}

struct Translator<'a> {
    catalog: &'a SqlCatalog,
    uf: UnionFind,
    fresh: usize,
}

impl<'a> Translator<'a> {
    fn scope_of(&self, q: &SelectQuery) -> Result<Scope, TranslateError> {
        q.from
            .iter()
            .map(|t: &TableRef| {
                let def = self
                    .catalog
                    .get(&t.table)
                    .ok_or_else(|| TranslateError::UnknownTable(t.table.clone()))?;
                Ok((
                    t.alias.to_lowercase(),
                    def.name.clone(),
                    def.columns.clone(),
                ))
            })
            .collect()
    }

    fn raw_var(alias: &str, column: &str) -> String {
        format!("{}_{}", alias.to_lowercase(), column.to_lowercase())
    }

    /// Resolve a column reference to its (pre-unification) variable name.
    fn resolve_raw(&self, c: &ColumnRef, scopes: &[Scope]) -> Result<String, TranslateError> {
        let col = c.column.to_lowercase();
        match &c.qualifier {
            Some(q) => {
                let q = q.to_lowercase();
                for scope in scopes.iter().rev() {
                    if let Some((alias, _, columns)) = scope.iter().find(|(a, _, _)| *a == q) {
                        if columns.contains(&col) {
                            return Ok(Self::raw_var(alias, &col));
                        }
                        return Err(TranslateError::UnknownColumn(format!("{q}.{col}")));
                    }
                }
                Err(TranslateError::UnknownColumn(format!("{q}.{col}")))
            }
            None => {
                for scope in scopes.iter().rev() {
                    let matches: Vec<&(String, String, Vec<String>)> = scope
                        .iter()
                        .filter(|(_, _, columns)| columns.contains(&col))
                        .collect();
                    if matches.len() == 1 {
                        return Ok(Self::raw_var(&matches[0].0, &col));
                    }
                    if matches.len() > 1 {
                        return Err(TranslateError::AmbiguousColumn(col));
                    }
                }
                Err(TranslateError::UnknownColumn(col))
            }
        }
    }

    fn resolve_column(&self, c: &ColumnRef, scopes: &[Scope]) -> Result<String, TranslateError> {
        Ok(self.uf.find(&self.resolve_raw(c, scopes)?))
    }

    // ------------------------------------------------ phase A: unification

    fn collect_unifications(
        &mut self,
        q: &SelectQuery,
        scopes: &[Scope],
    ) -> Result<(), TranslateError> {
        if let Some(w) = &q.where_clause {
            self.collect_cond(w, q, scopes, true)?;
        }
        Ok(())
    }

    #[allow(clippy::only_used_in_recursion)]
    fn collect_cond(
        &mut self,
        c: &Condition,
        q: &SelectQuery,
        scopes: &[Scope],
        conjunctive: bool,
    ) -> Result<(), TranslateError> {
        match c {
            Condition::And(a, b) => {
                self.collect_cond(a, q, scopes, conjunctive)?;
                self.collect_cond(b, q, scopes, conjunctive)?;
            }
            Condition::Or(a, b) => {
                self.collect_cond(a, q, scopes, false)?;
                self.collect_cond(b, q, scopes, false)?;
            }
            Condition::Not(a) => self.collect_cond(a, q, scopes, false)?,
            Condition::Cmp(op, l, r) => {
                if conjunctive && *op == SqlCmpOp::Eq {
                    if let (SqlExpr::Column(a), SqlExpr::Column(b)) = (l, r) {
                        let va = self.resolve_raw(a, scopes)?;
                        let vb = self.resolve_raw(b, scopes)?;
                        self.uf.union(&va, &vb);
                    }
                }
                self.collect_expr(l, scopes)?;
                self.collect_expr(r, scopes)?;
            }
            Condition::Between(a, b, c2) => {
                self.collect_expr(a, scopes)?;
                self.collect_expr(b, scopes)?;
                self.collect_expr(c2, scopes)?;
            }
            Condition::InList(e, vs) => {
                self.collect_expr(e, scopes)?;
                for v in vs {
                    self.collect_expr(v, scopes)?;
                }
            }
            Condition::Like(e, _) => self.collect_expr(e, scopes)?,
            Condition::Exists(sub) => self.collect_subquery(sub, scopes)?,
        }
        Ok(())
    }

    fn collect_expr(&mut self, e: &SqlExpr, scopes: &[Scope]) -> Result<(), TranslateError> {
        match e {
            SqlExpr::Arith(_, a, b) => {
                self.collect_expr(a, scopes)?;
                self.collect_expr(b, scopes)?;
            }
            SqlExpr::Neg(a) | SqlExpr::Aggregate(_, Some(a)) => self.collect_expr(a, scopes)?,
            SqlExpr::Subquery(sub) => self.collect_subquery(sub, scopes)?,
            SqlExpr::Case {
                when,
                then,
                otherwise,
            } => {
                // CASE conditions are not conjunctive contexts.
                self.collect_cond(when, &dummy_query(), scopes, false)?;
                self.collect_expr(then, scopes)?;
                self.collect_expr(otherwise, scopes)?;
            }
            SqlExpr::ListMax(args) => {
                for a in args {
                    self.collect_expr(a, scopes)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn collect_subquery(
        &mut self,
        sub: &SelectQuery,
        scopes: &[Scope],
    ) -> Result<(), TranslateError> {
        let mut child_scopes = scopes.to_vec();
        child_scopes.push(self.scope_of(sub)?);
        self.collect_unifications(sub, &child_scopes)
    }

    // ------------------------------------------------ phase B: expression building

    /// The relation atoms and predicate factors of a (sub)query body.
    fn body_factors(
        &mut self,
        q: &SelectQuery,
        scopes: &[Scope],
    ) -> Result<Vec<Expr>, TranslateError> {
        let scope = scopes.last().cloned().unwrap_or_default();
        let mut factors = Vec::new();
        for (alias, table, columns) in &scope {
            let args: Vec<String> = columns
                .iter()
                .map(|c| self.uf.find(&Self::raw_var(alias, c)))
                .collect();
            factors.push(Expr::rel(table.clone(), args));
        }
        if let Some(w) = &q.where_clause {
            factors.extend(self.condition_factors(w, scopes)?);
        }
        Ok(factors)
    }

    /// Translate a condition appearing as a top-level conjunct into factors.
    fn condition_factors(
        &mut self,
        c: &Condition,
        scopes: &[Scope],
    ) -> Result<Vec<Expr>, TranslateError> {
        match c {
            Condition::And(a, b) => {
                let mut out = self.condition_factors(a, scopes)?;
                out.extend(self.condition_factors(b, scopes)?);
                Ok(out)
            }
            Condition::Cmp(SqlCmpOp::Eq, SqlExpr::Column(_), SqlExpr::Column(_)) => {
                // Already handled by variable unification.
                Ok(vec![])
            }
            other => Ok(vec![self.indicator(other, scopes)?]),
        }
    }

    /// Translate a condition into a 0/1 AGCA expression.
    fn indicator(&mut self, c: &Condition, scopes: &[Scope]) -> Result<Expr, TranslateError> {
        match c {
            Condition::And(a, b) => Ok(Expr::product_of([
                self.indicator(a, scopes)?,
                self.indicator(b, scopes)?,
            ])),
            Condition::Or(a, b) => {
                let ia = self.indicator(a, scopes)?;
                let ib = self.indicator(b, scopes)?;
                Ok(Expr::sum_of([
                    ia.clone(),
                    ib.clone(),
                    Expr::neg(Expr::product_of([ia, ib])),
                ]))
            }
            Condition::Not(a) => {
                let ia = self.indicator(a, scopes)?;
                Ok(Expr::sum_of([Expr::one(), Expr::neg(ia)]))
            }
            Condition::Cmp(op, l, r) => {
                let mut prefix = Vec::new();
                let le = self.scalar(l, scopes, &mut prefix)?;
                let re = self.scalar(r, scopes, &mut prefix)?;
                prefix.push(Expr::cmp(cmp_op(*op), le, re));
                Ok(Expr::product_of(prefix))
            }
            Condition::Between(e, lo, hi) => {
                let mut prefix = Vec::new();
                let ee = self.scalar(e, scopes, &mut prefix)?;
                let loe = self.scalar(lo, scopes, &mut prefix)?;
                let hie = self.scalar(hi, scopes, &mut prefix)?;
                prefix.push(Expr::cmp(CmpOp::Ge, ee.clone(), loe));
                prefix.push(Expr::cmp(CmpOp::Le, ee, hie));
                Ok(Expr::product_of(prefix))
            }
            Condition::InList(e, values) => {
                // Membership in a list of constants: a sum of equality indicators (the
                // constants are distinct, so no overlap correction is needed).
                let mut prefix = Vec::new();
                let ee = self.scalar(e, scopes, &mut prefix)?;
                let alternatives: Vec<Expr> = values
                    .iter()
                    .map(|v| {
                        let ve = self.scalar(v, scopes, &mut prefix)?;
                        Ok(Expr::cmp(CmpOp::Eq, ee.clone(), ve))
                    })
                    .collect::<Result<_, TranslateError>>()?;
                prefix.push(Expr::sum_of(alternatives));
                Ok(Expr::product_of(prefix))
            }
            Condition::Like(e, pattern) => {
                let mut prefix = Vec::new();
                let ee = self.scalar(e, scopes, &mut prefix)?;
                prefix.push(Expr::apply(ScalarFn::Like(pattern.clone()), vec![ee]));
                Ok(Expr::product_of(prefix))
            }
            Condition::Exists(sub) => {
                let count = self.subquery_count(sub, scopes)?;
                let z = self.fresh_var("ex");
                Ok(Expr::product_of([
                    Expr::lift(z.clone(), count),
                    Expr::cmp(CmpOp::Gt, Expr::var(z), Expr::val(0)),
                ]))
            }
        }
    }

    /// Translate a scalar SQL expression. Scalar subqueries are lifted into fresh
    /// variables appended to `prefix`.
    fn scalar(
        &mut self,
        e: &SqlExpr,
        scopes: &[Scope],
        prefix: &mut Vec<Expr>,
    ) -> Result<Expr, TranslateError> {
        match e {
            SqlExpr::Column(c) => Ok(Expr::var(self.resolve_column(c, scopes)?)),
            SqlExpr::Int(v) => Ok(Expr::val(*v)),
            SqlExpr::Float(v) => Ok(Expr::val(*v)),
            SqlExpr::Date(v) => Ok(Expr::val(*v)),
            SqlExpr::Str(s) => Ok(Expr::Const(Value::str(s))),
            SqlExpr::Neg(a) => Ok(Expr::neg(self.scalar(a, scopes, prefix)?)),
            SqlExpr::Arith(op, a, b) => {
                let ae = self.scalar(a, scopes, prefix)?;
                let be = self.scalar(b, scopes, prefix)?;
                Ok(match op {
                    ArithOp::Add => Expr::sum_of([ae, be]),
                    ArithOp::Sub => Expr::sum_of([ae, Expr::neg(be)]),
                    ArithOp::Mul => Expr::product_of([ae, be]),
                    ArithOp::Div => Expr::apply(ScalarFn::Div, vec![ae, be]),
                })
            }
            SqlExpr::ListMax(args) => {
                let translated: Vec<Expr> = args
                    .iter()
                    .map(|a| self.scalar(a, scopes, prefix))
                    .collect::<Result<_, _>>()?;
                Ok(Expr::apply(ScalarFn::ListMax, translated))
            }
            SqlExpr::Case {
                when,
                then,
                otherwise,
            } => {
                let iw = self.indicator(when, scopes)?;
                let te = self.scalar(then, scopes, prefix)?;
                let oe = self.scalar(otherwise, scopes, prefix)?;
                // CASE WHEN c THEN a ELSE b = c*a + (1-c)*b.
                Ok(Expr::sum_of([
                    Expr::product_of([iw.clone(), te]),
                    Expr::product_of([Expr::sum_of([Expr::one(), Expr::neg(iw)]), oe]),
                ]))
            }
            SqlExpr::Subquery(sub) => {
                let sub_expr = self.scalar_subquery(sub, scopes)?;
                let z = self.fresh_var("sub");
                prefix.push(Expr::lift(z.clone(), sub_expr));
                Ok(Expr::var(z))
            }
            SqlExpr::Aggregate(..) => Err(TranslateError::Unsupported(
                "aggregate in a scalar context outside a subquery select list".into(),
            )),
        }
    }

    /// Translate a scalar subquery (single select item containing aggregates).
    fn scalar_subquery(
        &mut self,
        sub: &SelectQuery,
        scopes: &[Scope],
    ) -> Result<Expr, TranslateError> {
        if !sub.group_by.is_empty() {
            return Err(TranslateError::Unsupported(
                "GROUP BY in a scalar subquery".into(),
            ));
        }
        if sub.select.len() != 1 {
            return Err(TranslateError::Unsupported(
                "scalar subquery must select exactly one expression".into(),
            ));
        }
        let mut child_scopes = scopes.to_vec();
        child_scopes.push(self.scope_of(sub)?);
        let body = self.body_factors(sub, &child_scopes)?;
        let item = sub.select[0].expr.clone();
        self.subquery_select_expr(&item, &body, &child_scopes)
    }

    /// Translate the select expression of a scalar subquery: aggregate nodes become
    /// `Sum[]` over the subquery body, everything else is scalar arithmetic around them.
    fn subquery_select_expr(
        &mut self,
        e: &SqlExpr,
        body: &[Expr],
        scopes: &[Scope],
    ) -> Result<Expr, TranslateError> {
        match e {
            SqlExpr::Aggregate(AggFunc::Sum, Some(arg)) => {
                let mut prefix = Vec::new();
                let value = self.scalar(arg, scopes, &mut prefix)?;
                let mut factors = body.to_vec();
                factors.extend(prefix);
                factors.push(value);
                Ok(Expr::agg_sum(
                    Vec::<String>::new(),
                    Expr::product_of(factors),
                ))
            }
            SqlExpr::Aggregate(AggFunc::Count, _) | SqlExpr::Aggregate(AggFunc::Sum, None) => Ok(
                Expr::agg_sum(Vec::<String>::new(), Expr::product_of(body.to_vec())),
            ),
            SqlExpr::Aggregate(AggFunc::Avg, Some(arg)) => {
                let sum = self.subquery_select_expr(
                    &SqlExpr::Aggregate(AggFunc::Sum, Some(arg.clone())),
                    body,
                    scopes,
                )?;
                let count = self.subquery_select_expr(
                    &SqlExpr::Aggregate(AggFunc::Count, None),
                    body,
                    scopes,
                )?;
                Ok(Expr::apply(ScalarFn::Div, vec![sum, count]))
            }
            SqlExpr::Arith(op, a, b) => {
                let ae = self.subquery_select_expr(a, body, scopes)?;
                let be = self.subquery_select_expr(b, body, scopes)?;
                Ok(match op {
                    ArithOp::Add => Expr::sum_of([ae, be]),
                    ArithOp::Sub => Expr::sum_of([ae, Expr::neg(be)]),
                    ArithOp::Mul => Expr::product_of([ae, be]),
                    ArithOp::Div => Expr::apply(ScalarFn::Div, vec![ae, be]),
                })
            }
            SqlExpr::Neg(a) => Ok(Expr::neg(self.subquery_select_expr(a, body, scopes)?)),
            SqlExpr::Int(_)
            | SqlExpr::Float(_)
            | SqlExpr::Date(_)
            | SqlExpr::Str(_)
            | SqlExpr::Column(_) => {
                let mut prefix = Vec::new();
                let v = self.scalar(e, scopes, &mut prefix)?;
                if prefix.is_empty() {
                    Ok(v)
                } else {
                    Err(TranslateError::Unsupported(
                        "nested subquery inside a subquery select constant".into(),
                    ))
                }
            }
            other => Err(TranslateError::Unsupported(format!(
                "unsupported scalar-subquery select expression {other:?}"
            ))),
        }
    }

    /// Translate an EXISTS subquery into its tuple count.
    fn subquery_count(
        &mut self,
        sub: &SelectQuery,
        scopes: &[Scope],
    ) -> Result<Expr, TranslateError> {
        let mut child_scopes = scopes.to_vec();
        child_scopes.push(self.scope_of(sub)?);
        let body = self.body_factors(sub, &child_scopes)?;
        Ok(Expr::agg_sum(Vec::<String>::new(), Expr::product_of(body)))
    }

    /// Build the maintained-view expression for one top-level aggregate.
    fn aggregate_expr(
        &mut self,
        body: &[Expr],
        group_by: &[String],
        arg: Option<&SqlExpr>,
        func: AggFunc,
        scopes: &[Scope],
    ) -> Result<Expr, TranslateError> {
        let mut factors = body.to_vec();
        if func == AggFunc::Sum {
            if let Some(arg) = arg {
                let mut prefix = Vec::new();
                let value = self.scalar(arg, scopes, &mut prefix)?;
                factors.extend(prefix);
                factors.push(value);
            }
        }
        Ok(Expr::agg_sum(
            group_by.iter().cloned(),
            Expr::product_of(factors),
        ))
    }

    fn fresh_var(&mut self, hint: &str) -> String {
        self.fresh += 1;
        format!("__{hint}{}", self.fresh)
    }
}

fn dummy_query() -> SelectQuery {
    SelectQuery {
        select: vec![],
        from: vec![],
        where_clause: None,
        group_by: vec![],
    }
}

fn cmp_op(op: SqlCmpOp) -> CmpOp {
    match op {
        SqlCmpOp::Eq => CmpOp::Eq,
        SqlCmpOp::Ne => CmpOp::Ne,
        SqlCmpOp::Lt => CmpOp::Lt,
        SqlCmpOp::Le => CmpOp::Le,
        SqlCmpOp::Gt => CmpOp::Gt,
        SqlCmpOp::Ge => CmpOp::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use crate::parser::parse_query;

    fn catalog() -> SqlCatalog {
        [
            TableDef::stream("Orders", ["ordk", "ck", "xch"]),
            TableDef::stream("Lineitem", ["ordk", "pk", "price", "qty"]),
            TableDef::stream("Customer", ["ck", "nk", "acctbal"]),
            TableDef::stream("Bids", ["t", "id", "broker_id", "price", "volume"]),
            TableDef::stream("Asks", ["t", "id", "broker_id", "price", "volume"]),
        ]
        .into_iter()
        .collect()
    }

    fn translate_sql(name: &str, sql: &str) -> TranslatedQuery {
        let q = parse_query(sql).unwrap();
        translate(name, &q, &catalog()).unwrap()
    }

    #[test]
    fn example2_translation_shares_join_variable() {
        let t = translate_sql(
            "q",
            "SELECT SUM(li.price * o.xch) FROM Orders o, Lineitem li WHERE o.ordk = li.ordk",
        );
        assert_eq!(t.views.len(), 1);
        let expr = &t.views[0].expr;
        // Both atoms use the same unified variable for the join column and there is no
        // explicit equality comparison left.
        let s = expr.to_string();
        assert!(s.contains("Orders("));
        assert!(s.contains("Lineitem("));
        assert!(
            !s.contains("="),
            "equijoin should be variable unification: {s}"
        );
        assert_eq!(expr.degree(), 2);
        assert_eq!(t.group_by.len(), 0);
    }

    #[test]
    fn group_by_columns_become_out_vars() {
        let t = translate_sql(
            "q3",
            "SELECT o.ck, SUM(li.price) FROM Orders o, Lineitem li \
             WHERE o.ordk = li.ordk GROUP BY o.ck",
        );
        assert_eq!(t.group_by, vec!["o_ck".to_string()]);
        assert_eq!(t.views[0].out_vars, vec!["o_ck".to_string()]);
        assert_eq!(t.outputs.len(), 2);
        assert!(matches!(t.outputs[0], OutputColumn::GroupBy { .. }));
    }

    #[test]
    fn avg_views() {
        let t = translate_sql("qa", "SELECT AVG(li.qty) FROM Lineitem li");
        assert_eq!(t.views.len(), 2);
        assert!(matches!(&t.outputs[0], OutputColumn::Average { .. }));
    }

    #[test]
    fn correlated_scalar_subquery_is_lifted_with_shared_variable() {
        // Q17a-style.
        let t = translate_sql(
            "q17a",
            "SELECT SUM(li.price) FROM Lineitem li, Orders o \
             WHERE o.ordk = li.ordk AND li.qty < 0.5 * \
             (SELECT SUM(l2.qty) FROM Lineitem l2 WHERE l2.ordk = o.ordk)",
        );
        let s = t.views[0].expr.to_string();
        assert!(s.contains(":="), "scalar subquery must be lifted: {s}");
        // The correlation column is unified: the inner Lineitem atom, the outer Orders
        // atom and the outer Lineitem atom all share one variable for the order key
        // (the representative of the unified class).
        assert!(s.matches("l2_ordk").count() >= 3, "{s}");
    }

    #[test]
    fn exists_translates_to_lifted_count() {
        let t = translate_sql(
            "q4",
            "SELECT COUNT(*) FROM Orders o WHERE EXISTS \
             (SELECT * FROM Lineitem l WHERE l.ordk = o.ordk)",
        );
        let s = t.views[0].expr.to_string();
        assert!(s.contains(":="));
        assert!(s.contains("> 0"));
    }

    #[test]
    fn not_exists_translates_via_indicator() {
        let t = translate_sql(
            "q22a",
            "SELECT SUM(c.acctbal) FROM Customer c WHERE NOT EXISTS \
             (SELECT * FROM Orders o WHERE o.ck = c.ck)",
        );
        let s = t.views[0].expr.to_string();
        assert!(s.contains(":="));
        // NOT is 1 - indicator.
        assert!(s.contains("-"), "{s}");
    }

    #[test]
    fn disjunction_uses_inclusion_exclusion() {
        let t = translate_sql(
            "axf",
            "SELECT SUM(a.volume - b.volume) FROM Bids b, Asks a \
             WHERE b.broker_id = a.broker_id \
             AND (a.price - b.price > 1000 OR b.price - a.price > 1000)",
        );
        let s = t.views[0].expr.to_string();
        assert!(s.contains("+"), "inclusion-exclusion sum expected: {s}");
        // The equijoin on broker_id is unified away.
        assert_eq!(t.views[0].expr.degree(), 2);
    }

    #[test]
    fn uncorrelated_subquery_like_psp() {
        let t = translate_sql(
            "psp",
            "SELECT SUM(a.price - b.price) FROM Bids b, Asks a \
             WHERE b.volume > 0.0001 * (SELECT SUM(b1.volume) FROM Bids b1) \
             AND a.volume > 0.0001 * (SELECT SUM(a1.volume) FROM Asks a1)",
        );
        let s = t.views[0].expr.to_string();
        assert_eq!(s.matches(":=").count(), 2, "{s}");
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let q = parse_query("SELECT SUM(x.a) FROM Missing x").unwrap();
        assert!(matches!(
            translate("q", &q, &catalog()),
            Err(TranslateError::UnknownTable(_))
        ));
        let q2 = parse_query("SELECT SUM(o.nope) FROM Orders o").unwrap();
        assert!(matches!(
            translate("q", &q2, &catalog()),
            Err(TranslateError::UnknownColumn(_))
        ));
    }

    #[test]
    fn non_grouped_plain_column_is_rejected() {
        let q = parse_query("SELECT o.ck, SUM(o.xch) FROM Orders o").unwrap();
        assert!(matches!(
            translate("q", &q, &catalog()),
            Err(TranslateError::Unsupported(_))
        ));
    }

    #[test]
    fn in_list_and_case_translate() {
        let t = translate_sql(
            "q12",
            "SELECT SUM(CASE WHEN o.xch IN (1, 2) THEN 1 ELSE 0 END) \
             FROM Orders o, Lineitem li WHERE o.ordk = li.ordk",
        );
        let s = t.views[0].expr.to_string();
        assert!(s.contains("="), "IN list becomes equalities: {s}");
    }
}
