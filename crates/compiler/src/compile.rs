//! The compilation pipeline: viewlet transform and Higher-Order IVM (Sections 4–5).
//!
//! [`compile`] turns a set of AGCA queries into a [`TriggerProgram`]. The recursion
//! follows Algorithm 2 of the paper:
//!
//! 1. the query itself is registered as a materialized view;
//! 2. for every view awaiting maintenance and every `(relation, ±)` pair, the delta is
//!    taken, simplified and turned into an update statement whose subexpressions are
//!    materialized by the [`crate::materialize::Materializer`];
//! 3. the newly created views are themselves queued for maintenance, until no view with
//!    a non-zero delta remains.
//!
//! The baseline strategies of the evaluation (REP, classical IVM, the naive viewlet
//! transform) are obtained from the same pipeline through [`CompileOptions`].

use crate::materialize::{contains_base_atoms, MapRegistry, Materializer};
use crate::program::{
    Catalog, CompileMode, CompileOptions, CompileReport, CompiledTrigger, MapDecl, QueryResult,
    QuerySpec, ResultAccess, Statement, StmtOp, Trigger, TriggerProgram,
};
use dbtoaster_agca::opt::{extract_range_restrictions, order_factors, unify_factors, Monomial};
use dbtoaster_agca::scope::output_vars;
use dbtoaster_agca::{
    decorrelate, delta, expand, simplify, AtomKind, Expr, TupleUpdate, UpdateSign,
};
use dbtoaster_gmr::FastMap;
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised during compilation.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A relation atom refers to a relation missing from the catalog.
    UnknownRelation(String),
    /// A relation atom's arity does not match the catalog.
    ArityMismatch {
        relation: String,
        expected: usize,
        actual: usize,
    },
    /// No queries were given.
    NoQueries,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            CompileError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "relation {relation} has {actual} columns, atom uses {expected}"
            ),
            CompileError::NoQueries => write!(f, "no queries to compile"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile a set of queries into a trigger program under the given options.
pub fn compile(
    queries: &[QuerySpec],
    catalog: &Catalog,
    options: &CompileOptions,
) -> Result<TriggerProgram, CompileError> {
    if queries.is_empty() {
        return Err(CompileError::NoQueries);
    }
    let mut registry = MapRegistry::new();
    let mut report = CompileReport::default();
    let mut triggers: Vec<Trigger> = Vec::new();
    let mut results: Vec<QueryResult> = Vec::new();

    // ------------------------------------------------------------- register queries
    for q in queries {
        let mut expr = fix_atom_kinds(&q.expr, catalog)?;
        if options.enable_decorrelation {
            // Rewrite equality-correlated nested aggregates into group-by form; purely
            // structural (the nested-rewrite report flag is set by the materializer when
            // rule 4 actually fires).
            expr = decorrelate(&expr);
        }
        let expr = simplify(&expr);

        results.push(QueryResult {
            name: q.name.clone(),
            out_vars: q.out_vars.clone(),
            access: ResultAccess::Map(q.name.clone()),
        });

        if options.mode == CompileMode::Reevaluate {
            registry.register_named(&q.name, expr.clone(), q.out_vars.clone(), true, 0);
            for rel in expr.stream_relations() {
                for sign in UpdateSign::both() {
                    let meta = catalog
                        .get(&rel)
                        .ok_or_else(|| CompileError::UnknownRelation(rel.clone()))?;
                    let update = TupleUpdate::new(&rel, sign, &meta.columns);
                    let stmt = Statement {
                        target: q.name.clone(),
                        key_vars: q.out_vars.clone(),
                        loop_vars: q.out_vars.clone(),
                        op: StmtOp::Replace,
                        rhs: expr.clone(),
                    };
                    report.statements += 1;
                    push_statement(&mut triggers, &rel, sign, &update.trigger_vars, stmt);
                }
            }
        } else {
            registry.register_named(&q.name, expr, q.out_vars.clone(), true, 0);
        }
    }

    // ----------------------------------------------------- viewlet / HO-IVM recursion
    if options.mode != CompileMode::Reevaluate {
        while let Some((idx, depth)) = registry.pop_pending() {
            let decl = registry.decl(idx).clone();
            let my_canon = registry.canon_key(idx).to_string();
            if !decl.definition.contains_atom_kind(AtomKind::Stream) {
                continue; // static view: initialized from tables, never updated.
            }
            let streams = decl.definition.stream_relations();
            for rel_name in streams {
                let meta = catalog
                    .get(&rel_name)
                    .ok_or_else(|| CompileError::UnknownRelation(rel_name.clone()))?;
                if meta.kind != AtomKind::Stream {
                    continue;
                }
                let reeval = options.enable_reevaluation_heuristic
                    && nested_requires_reevaluation(&decl.definition, &rel_name);
                for sign in UpdateSign::both() {
                    let update = TupleUpdate::new(&rel_name, sign, &meta.columns);
                    let bound: BTreeSet<String> = update.trigger_vars.iter().cloned().collect();
                    report.max_delta_order = report.max_delta_order.max(depth + 1);

                    let stmt = if reeval {
                        report.used_reevaluation = true;
                        let mut mat = Materializer {
                            registry: &mut registry,
                            options,
                            report: &mut report,
                            depth: depth + 1,
                            avoid: Some(my_canon.clone()),
                            name_hint: short_hint(&decl.name),
                        };
                        let rhs = mat.materialize_body(
                            &decl.definition,
                            &decl.out_vars,
                            &BTreeSet::new(),
                        );
                        let rhs = reorder_products(&rhs, &BTreeSet::new());
                        Some(Statement {
                            target: decl.name.clone(),
                            key_vars: decl.out_vars.clone(),
                            loop_vars: decl.out_vars.clone(),
                            op: StmtOp::Replace,
                            rhs,
                        })
                    } else {
                        if has_equality_correlated_nested(&decl.definition, &rel_name) {
                            report.used_incremental_nested = true;
                        }
                        let d = simplify(&delta(&decl.definition, &update));
                        if d.is_zero() {
                            None
                        } else {
                            let materialize_here =
                                options.materialize_deltas && depth < options.max_depth;
                            make_increment_statement(
                                &decl,
                                d,
                                &bound,
                                &mut registry,
                                options,
                                &mut report,
                                depth,
                                materialize_here,
                            )
                        }
                    };
                    if let Some(stmt) = stmt {
                        report.statements += 1;
                        push_statement(&mut triggers, &rel_name, sign, &update.trigger_vars, stmt);
                    }
                }
            }
        }
    }

    // ----------------------------------------------------------------- finalize
    let maps = registry.into_maps();
    let mut stored_relations = BTreeSet::new();
    let mut static_tables = BTreeSet::new();
    for t in &triggers {
        for s in &t.statements {
            for rel in s.base_reads() {
                match catalog.get(&rel).map(|m| m.kind) {
                    Some(AtomKind::Table) => {
                        static_tables.insert(rel);
                    }
                    _ => {
                        stored_relations.insert(rel);
                    }
                }
            }
        }
    }
    for m in &maps {
        for atom in m.definition.atoms() {
            if atom.kind == AtomKind::Table
                || catalog.get(&atom.name).map(|r| r.kind) == Some(AtomKind::Table)
            {
                static_tables.insert(atom.name.clone());
            }
        }
    }
    for t in &mut triggers {
        order_statements(t);
    }

    // Lower every statement to a compiled kernel where its shape allows (the
    // runtime interprets the rest). This is the compile-once step that retires
    // per-event AST interpretation on the hot path; it must run after
    // `order_statements` so kernels align index-for-index with the statements.
    let compiled: Vec<CompiledTrigger> = triggers
        .iter()
        .map(|t| CompiledTrigger {
            stmts: t
                .statements
                .iter()
                .map(|s| dbtoaster_agca::lower_statement(&t.trigger_vars, &s.key_vars, &s.rhs))
                .collect(),
        })
        .collect();

    // Batch-delta: per eligible relation, the run-linear parts of its trigger
    // statements (see `crate::batch_delta`), lowered through the same kernel
    // pipeline. They read nothing their statements do not already read.
    let (run_linear, batch_delta_reasons) = crate::batch_delta::derive_run_linear(&triggers);

    Ok(TriggerProgram {
        maps,
        triggers,
        compiled,
        results,
        stored_relations,
        static_tables,
        run_linear,
        batch_delta_reasons,
        report,
    })
}

/// Set the `AtomKind` of every base atom from the catalog and validate arities.
pub fn fix_atom_kinds(expr: &Expr, catalog: &Catalog) -> Result<Expr, CompileError> {
    let result = match expr {
        Expr::Rel(r) if r.kind != AtomKind::View => {
            let meta = catalog
                .get(&r.name)
                .ok_or_else(|| CompileError::UnknownRelation(r.name.clone()))?;
            if meta.columns.len() != r.args.len() {
                return Err(CompileError::ArityMismatch {
                    relation: r.name.clone(),
                    expected: r.args.len(),
                    actual: meta.columns.len(),
                });
            }
            Expr::Rel(dbtoaster_agca::RelRef {
                name: r.name.clone(),
                args: r.args.clone(),
                kind: meta.kind,
            })
        }
        Expr::Rel(_) => expr.clone(),
        _ => {
            let mut err = None;
            let mapped = expr.map_children(&mut |c| match fix_atom_kinds(c, catalog) {
                Ok(e) => e,
                Err(e) => {
                    err = Some(e);
                    c.clone()
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            mapped
        }
    };
    Ok(result)
}

fn short_hint(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_alphanumeric())
        .take(8)
        .collect()
}

fn push_statement(
    triggers: &mut Vec<Trigger>,
    relation: &str,
    sign: UpdateSign,
    trigger_vars: &[String],
    stmt: Statement,
) {
    if let Some(t) = triggers
        .iter_mut()
        .find(|t| t.relation == relation && t.sign == sign)
    {
        t.statements.push(stmt);
    } else {
        triggers.push(Trigger {
            relation: relation.to_string(),
            sign,
            trigger_vars: trigger_vars.to_vec(),
            statements: vec![stmt],
        });
    }
}

/// Build an incremental (`+=`) update statement from a simplified delta expression.
#[allow(clippy::too_many_arguments)]
fn make_increment_statement(
    decl: &MapDecl,
    d: Expr,
    bound: &BTreeSet<String>,
    registry: &mut MapRegistry,
    options: &CompileOptions,
    report: &mut CompileReport,
    depth: usize,
    materialize: bool,
) -> Option<Statement> {
    // Strip a top-level AggSum that matches the target's key columns.
    let out_vars = decl.out_vars.clone();
    let body = match d {
        Expr::AggSum(gb, b)
            if gb.len() == out_vars.len() && gb.iter().all(|g| out_vars.contains(g)) =>
        {
            *b
        }
        other => other,
    };
    let protected: BTreeSet<String> = out_vars.iter().cloned().collect();
    let poly = expand(&body);
    if poly.monomials.is_empty() {
        return None;
    }
    if poly.monomials.len() > 1 {
        report.used_expansion = true;
    }
    let unified: Vec<Monomial> = poly
        .monomials
        .iter()
        .map(|m| Monomial {
            coef: m.coef,
            factors: order_factors(&unify_factors(&m.factors, bound, &protected), bound),
        })
        .collect();

    // Range restrictions shared by every clause can be applied to the statement's key.
    let mut common: Option<FastMap<String, String>> = None;
    if options.enable_range_restriction {
        for m in &unified {
            let (subst, _) = extract_range_restrictions(&m.factors, &out_vars, bound);
            common = Some(match common {
                None => subst,
                Some(c) => c
                    .into_iter()
                    .filter(|(k, v)| subst.get(k) == Some(v))
                    .collect(),
            });
        }
    }
    let common = common.unwrap_or_default();

    let mut key_vars = out_vars.clone();
    let mut loop_vars = Vec::new();
    for kv in key_vars.iter_mut() {
        match common.get(kv) {
            Some(t) => *kv = t.clone(),
            None => loop_vars.push(kv.clone()),
        }
    }

    let mut opts = options.clone();
    opts.materialize_deltas = materialize;
    let mut mat = Materializer {
        registry,
        options: &opts,
        report,
        depth: depth + 1,
        avoid: None,
        name_hint: short_hint(&decl.name),
    };
    let mut terms = Vec::with_capacity(unified.len());
    for m in &unified {
        // Drop the extracted range-restriction lifts and rename their variables to the
        // trigger arguments everywhere else in the clause.
        let mut factors: Vec<Expr> = Vec::with_capacity(m.factors.len());
        for f in &m.factors {
            if let Expr::Lift(x, e) = f {
                if let (Some(t), Expr::Var(v)) = (common.get(x), &**e) {
                    if v == t {
                        continue;
                    }
                }
            }
            factors.push(f.clone());
        }
        let factors: Vec<Expr> = factors.iter().map(|f| f.rename_vars(&common)).collect();
        let term = mat.materialize_monomial(
            &Monomial {
                coef: m.coef,
                factors,
            },
            &loop_vars,
            bound,
        );
        // Normalize every clause to exactly the loop variables so the clauses of the
        // statement's right-hand side union cleanly at runtime.
        terms.push(crate::materialize::normalize_schema(
            term, &loop_vars, bound,
        ));
    }
    let rhs = simplify(&Expr::sum_of(terms));
    if rhs.is_zero() {
        return None;
    }
    let rhs = reorder_products(&rhs, bound);
    Some(Statement {
        target: decl.name.clone(),
        key_vars,
        loop_vars,
        op: StmtOp::Increment,
        rhs,
    })
}

/// Recursively re-order the factors of every product so that each factor's input
/// variables are produced to its left (or are bound). The optimizer's rewrites operate
/// on products as multisets; this final pass restores an evaluable sideways-information-
/// passing order before a statement is emitted. Factors whose inputs come from an
/// enclosing scope are left in their original relative order.
pub(crate) fn reorder_products(e: &Expr, bound: &BTreeSet<String>) -> Expr {
    match e {
        Expr::Mul(fs) => {
            let fs: Vec<Expr> = fs.iter().map(|f| reorder_products(f, bound)).collect();
            Expr::product_of(order_factors(&fs, bound))
        }
        _ => e.map_children(&mut |c| reorder_products(c, bound)),
    }
}

/// Output variables of the base atoms that are *not* nested inside a lift or `Exists`
/// (the "outer" query of a nested-aggregate pattern).
fn outer_atom_vars(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Rel(r) if r.kind != AtomKind::View => out.extend(r.args.iter().cloned()),
        Expr::Lift(..) | Expr::Exists(..) | Expr::Cmp(..) | Expr::Apply(..) => {}
        Expr::Add(ts) | Expr::Mul(ts) => {
            for t in ts {
                outer_atom_vars(t, out);
            }
        }
        Expr::Neg(e) | Expr::AggSum(_, e) => outer_atom_vars(e, out),
        _ => {}
    }
}

fn nested_bodies(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    expr.visit(&mut |e| match e {
        Expr::Lift(_, b) | Expr::Exists(b) if contains_base_atoms(b) => {
            out.push((**b).clone());
        }
        _ => {}
    });
    out
}

/// Variables appearing as arguments of base atoms anywhere in the expression (including
/// inside nested aggregates).
fn inner_atom_arg_vars(expr: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    expr.visit(&mut |e| {
        if let Expr::Rel(r) = e {
            if r.kind != AtomKind::View {
                out.extend(r.args.iter().cloned());
            }
        }
    });
    out
}

fn equality_correlated(body: &Expr, outer: &BTreeSet<String>) -> bool {
    // A nested aggregate is equality-correlated with the outer query when it shares a
    // variable with the outer atoms — either because decorrelation turned the equality
    // into a group-by variable, or because the SQL frontend unified the correlation
    // columns into a single shared variable used in an inner atom argument.
    output_vars(body).iter().any(|v| outer.contains(v))
        || inner_atom_arg_vars(body).iter().any(|v| outer.contains(v))
}

/// Does maintaining this view for updates to `relation` require re-evaluation rather
/// than an incremental delta? Per Section 5.1, re-evaluation is chosen when the view has
/// a nested aggregate over `relation` that is *not* correlated with the outer query on
/// an equality (i.e. uncorrelated, or correlated only through inequalities).
pub fn nested_requires_reevaluation(definition: &Expr, relation: &str) -> bool {
    let mut outer = BTreeSet::new();
    outer_atom_vars(definition, &mut outer);
    nested_bodies(definition)
        .iter()
        .any(|b| b.references_relation(relation) && !equality_correlated(b, &outer))
}

/// Does the view have an equality-correlated nested aggregate over `relation`?
pub fn has_equality_correlated_nested(definition: &Expr, relation: &str) -> bool {
    let mut outer = BTreeSet::new();
    outer_atom_vars(definition, &mut outer);
    nested_bodies(definition)
        .iter()
        .any(|b| b.references_relation(relation) && equality_correlated(b, &outer))
}

/// Order the statements of a trigger so that incremental statements read the *old*
/// versions of the views they use and re-evaluation statements read the *new* versions:
/// increments that read a view precede the increment writing it; replaces come last,
/// after everything they read has been updated.
fn order_statements(trigger: &mut Trigger) {
    let stmts = std::mem::take(&mut trigger.statements);
    let (increments, replaces): (Vec<_>, Vec<_>) =
        stmts.into_iter().partition(|s| s.op == StmtOp::Increment);

    // Kahn's algorithm over "must precede" edges: reader -> writer for increments.
    let ordered_inc = topo_order(&increments, |a, b| a.reads().contains(&b.target));
    // For replaces: writer -> reader (a replace reading map m runs after m's replace).
    let ordered_rep = topo_order(&replaces, |a, b| b.reads().contains(&a.target));

    trigger.statements = ordered_inc.into_iter().chain(ordered_rep).collect();
}

/// Stable topological order where `precedes(a, b)` means `a` must come before `b`.
/// Falls back to the original order if the constraint graph has a cycle.
fn topo_order(
    stmts: &[Statement],
    precedes: impl Fn(&Statement, &Statement) -> bool,
) -> Vec<Statement> {
    let n = stmts.len();
    let mut indegree = vec![0usize; n];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j && precedes(&stmts[i], &stmts[j]) {
                edges[i].push(j);
                indegree[j] += 1;
            }
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    loop {
        let next = (0..n).find(|&i| !placed[i] && indegree[i] == 0);
        match next {
            Some(i) => {
                placed[i] = true;
                out.push(stmts[i].clone());
                for &j in &edges[i] {
                    indegree[j] = indegree[j].saturating_sub(1);
                }
            }
            None => break,
        }
    }
    if out.len() != n {
        // Cycle: keep the original order.
        return stmts.to_vec();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RelationMeta;
    use dbtoaster_agca::CmpOp as Op;

    fn rs_catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
            RelationMeta::stream("T", ["C", "D"]),
            RelationMeta::table("Nation", ["NK", "NAME"]),
        ]
        .into_iter()
        .collect()
    }

    fn count_query() -> QuerySpec {
        // Example 1: count of R x S (no join condition).
        QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["A", "B"]), Expr::rel("S", ["B1", "C"])]),
            ),
        }
    }

    fn join_sum_query() -> QuerySpec {
        // Example 2: SUM(price * xch) over an equijoin.
        QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["K", "XCH"]),
                    Expr::rel("S", ["K", "PRICE"]),
                    Expr::var("XCH"),
                    Expr::var("PRICE"),
                ]),
            ),
        }
    }

    #[test]
    fn higher_order_compilation_of_example1() {
        let prog = compile(
            &[count_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        // Q plus the two first-order views (count of S, count of R); the second-order
        // deltas are constants and are inlined.
        assert!(prog.maps.len() >= 3, "{prog}");
        assert!(prog.trigger("R", UpdateSign::Insert).is_some());
        assert!(prog.trigger("S", UpdateSign::Delete).is_some());
        // No statement in HO mode reads a base relation: everything is views+constants.
        assert!(prog.stored_relations.is_empty(), "{prog}");
        // The insert-into-R trigger updates Q using the materialized count of S.
        let tr = prog.trigger("R", UpdateSign::Insert).unwrap();
        assert!(tr.statements.iter().any(|s| s.target == "Q"));
    }

    #[test]
    fn first_order_mode_reads_base_relations() {
        let prog = compile(
            &[count_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::FirstOrder),
        )
        .unwrap();
        // Only the query map is materialized; deltas read the stored base relations.
        assert_eq!(prog.maps.len(), 1);
        assert!(!prog.stored_relations.is_empty());
    }

    #[test]
    fn reevaluation_mode_replaces_result() {
        let prog = compile(
            &[count_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::Reevaluate),
        )
        .unwrap();
        let tr = prog.trigger("R", UpdateSign::Insert).unwrap();
        assert_eq!(tr.statements.len(), 1);
        assert_eq!(tr.statements[0].op, StmtOp::Replace);
        assert!(prog.stored_relations.contains("R") && prog.stored_relations.contains("S"));
    }

    #[test]
    fn example2_triggers_are_constant_time() {
        let prog = compile(
            &[join_sum_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        // Every statement in the R/S triggers has no loop variables (constant work).
        for t in &prog.triggers {
            for s in &t.statements {
                assert!(
                    s.loop_vars.is_empty(),
                    "expected constant-time statement, got {s} in {t}"
                );
            }
        }
        assert!(prog.report.max_delta_order >= 2);
    }

    #[test]
    fn static_tables_do_not_get_triggers() {
        let q = QuerySpec {
            name: "QN".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["A", "NK"]),
                    Expr::rel("Nation", ["NK", "NAME"]),
                ]),
            ),
        };
        let prog = compile(
            &[q],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        assert!(prog.trigger("Nation", UpdateSign::Insert).is_none());
        assert!(prog.static_tables.contains("Nation"));
        // The delta map over Nation alone is initialized from tables.
        assert!(prog.maps.iter().any(|m| m.init_from_tables));
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::rel("Mystery", ["x"]),
        };
        let err = compile(
            &[q],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::UnknownRelation(_)));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::rel("R", ["x"]),
        };
        let err = compile(
            &[q],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::ArityMismatch { .. }));
    }

    #[test]
    fn reevaluation_heuristic_for_uncorrelated_nested_aggregate() {
        // Q = Sum[](R(A,B) * (z := Sum[](S(C,D)*D)) * (B < z)) — PSP-like: the nested
        // aggregate is uncorrelated, so updates to S re-evaluate the top level.
        let nested = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("S", ["C", "D"]), Expr::var("D")]),
        );
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["A", "B"]),
                    Expr::lift("z", nested),
                    Expr::cmp(Op::Lt, Expr::var("B"), Expr::var("z")),
                ]),
            ),
        };
        let prog = compile(
            &[q],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        assert!(prog.report.used_reevaluation);
        let s_trigger = prog.trigger("S", UpdateSign::Insert).unwrap();
        assert!(s_trigger
            .statements
            .iter()
            .any(|s| s.op == StmtOp::Replace && s.target == "Q"));
        // Replaces are ordered after the increments that maintain the views they read.
        let last = s_trigger.statements.last().unwrap();
        assert_eq!(last.op, StmtOp::Replace);
    }

    #[test]
    fn equality_correlated_nested_aggregate_stays_incremental() {
        // Q17a-like: nested aggregate correlated on an equality (shared variable K after
        // decorrelation).
        let nested = Expr::agg_sum(
            ["K"],
            Expr::product_of([Expr::rel("S", ["K", "D"]), Expr::var("D")]),
        );
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["K", "B"]),
                    Expr::lift("z", nested),
                    Expr::cmp(Op::Lt, Expr::var("B"), Expr::var("z")),
                    Expr::var("B"),
                ]),
            ),
        };
        let prog = compile(
            &[q],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        assert!(!prog.report.used_reevaluation, "{prog}");
        assert!(prog.report.used_incremental_nested);
    }

    #[test]
    fn statement_ordering_reads_before_writes() {
        let prog = compile(
            &[join_sum_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        for t in &prog.triggers {
            for (i, s) in t.statements.iter().enumerate() {
                if s.op != StmtOp::Increment {
                    continue;
                }
                for later in &t.statements[i + 1..] {
                    // No later increment statement writes a map this one reads... i.e.
                    // if it does, that is exactly the allowed "read old value" pattern,
                    // so here we check the inverse: nothing written earlier is read here.
                    let _ = later;
                }
                for earlier in &t.statements[..i] {
                    assert!(
                        !s.reads().contains(&earlier.target),
                        "statement {s} reads {} which was already updated",
                        earlier.target
                    );
                }
            }
        }
    }

    #[test]
    fn naive_mode_creates_more_expensive_maps() {
        let ho = compile(
            &[count_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let naive = compile(
            &[count_query()],
            &rs_catalog(),
            &CompileOptions::for_mode(CompileMode::NaiveViewlet),
        )
        .unwrap();
        // Both compile; the naive program materializes at least as many maps.
        assert!(naive.maps.len() >= ho.maps.len());
    }
}
