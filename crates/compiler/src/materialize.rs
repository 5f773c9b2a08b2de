//! Materialization decisions (Section 5.1 of the paper).
//!
//! Instead of materializing an entire delta query as a single view (the naive viewlet
//! transform), Higher-Order IVM selects a set of subqueries `~M` to materialize and
//! rewrites the delta into an equivalent expression over those views. The heuristics
//! implemented here correspond to the rewrite rules of Figure 1:
//!
//! 1. **Query decomposition** — each connected component of a clause's join graph is
//!    materialized independently (bound trigger variables do not connect components,
//!    which is exactly why single-tuple deltas decompose so well).
//! 2. **Polynomial expansion** — clauses are produced by [`dbtoaster_agca::opt::expand`]
//!    before decomposition.
//! 3. **Input variables** — factors that reference bound (trigger or correlation)
//!    variables in value positions are never pulled inside a materialized view; the view
//!    is keyed by the columns those factors need instead.
//! 4. **Nested aggregates** — lifted subqueries containing relation atoms are
//!    materialized separately; the lift itself stays in the rewritten expression and
//!    references the nested view.
//! 5. **Key-only weights** — a value factor (a variable, or arithmetic over variables;
//!    never a comparison) whose variables are all key columns of the map it would join
//!    stays outside it: `Sum[p](Bids(p, v) * p * v)` keyed by `p` is `p ×
//!    Sum[p](Bids(p, v) * v)`, a map the volumes per price already are. The weight
//!    multiplies each looked-up entry instead of every aggregated row, the map gains no
//!    key (its variables were keys already), and no filter moves, so the map can only
//!    deduplicate into another — `vwap`'s `price × volume` map is its volume map.
//!
//! Duplicate view elimination is performed by the [`MapRegistry`], which keys maps by
//! the canonical form of their definition. Query views take part too: a query whose
//! definition is alpha-equivalent to an earlier query's (TPC-H q1's `AVG(quantity)`
//! halves repeat its `SUM(quantity)` and `COUNT(*)`) gets no map of its own, and its
//! result reads the earlier query's map ([`crate::QueryResult::map`]).

use crate::compile::CompileError;
use crate::program::{CompileMode, CompileOptions, CompileReport, MapDecl, Statement, StmtOp};
use dbtoaster_agca::opt::{canonical_key, order_factors, unify_factors, Monomial};
use dbtoaster_agca::scope::var_info;
use dbtoaster_agca::{simplify, AtomKind, Expr, ScalarFn};
use std::collections::{BTreeSet, VecDeque};

/// Registry of materialized views created during compilation, with structural
/// deduplication and a work queue for the Higher-Order IVM recursion.
#[derive(Debug, Default)]
pub struct MapRegistry {
    maps: Vec<MapDecl>,
    /// Canonical key of `AggSum(out_vars, definition)` per map, used for dedup.
    canon_keys: Vec<String>,
    /// Depth (delta order) at which each map was created.
    depths: Vec<usize>,
    /// Indices of maps whose maintenance statements have not been generated yet.
    pending: VecDeque<usize>,
    counter: usize,
}

impl MapRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MapRegistry::default()
    }

    /// All registered maps.
    pub fn maps(&self) -> &[MapDecl] {
        &self.maps
    }

    /// Consume the registry, returning the map declarations, each static one
    /// (no stream atom in its definition) with the kernel that initializes it
    /// from the tables.
    pub fn into_maps(self) -> Result<Vec<MapDecl>, CompileError> {
        let mut maps = self.maps;
        for m in &mut maps {
            if !m.definition.contains_atom_kind(AtomKind::Stream) {
                let init = Statement::new(
                    &[],
                    m.name.clone(),
                    m.out_vars.clone(),
                    m.out_vars.clone(),
                    StmtOp::Replace,
                    m.definition.clone(),
                )?;
                m.init = Some(init.kernel);
            }
        }
        Ok(maps)
    }

    /// Canonical key of a prospective map (definition + key order).
    pub fn key_of(definition: &Expr, out_vars: &[String]) -> String {
        canonical_key(&Expr::AggSum(
            out_vars.to_vec(),
            Box::new(definition.clone()),
        ))
    }

    /// Register a query view under its own name and return the name of the
    /// map it reads, with `true` when that map is new. A query view whose
    /// canonical key (definition and key order, as [`MapRegistry::register`]
    /// keys it) equals a view registered before it reuses that map instead:
    /// no second map, no pending derivation, so no statements. The first
    /// view registered survives; the caller counts the reuse and makes the
    /// query's result read the survivor.
    pub fn register_named(
        &mut self,
        name: &str,
        definition: Expr,
        out_vars: Vec<String>,
        depth: usize,
    ) -> (String, bool) {
        let key = Self::key_of(&definition, &out_vars);
        if let Some(idx) = self.canon_keys.iter().position(|k| *k == key) {
            return (self.maps[idx].name.clone(), false);
        }
        self.maps.push(MapDecl {
            name: name.to_string(),
            out_vars,
            definition,
            is_query_result: true,
            init: None,
        });
        self.canon_keys.push(key);
        self.depths.push(depth);
        self.pending.push_back(self.maps.len() - 1);
        (name.to_string(), true)
    }

    /// Register (or reuse) an auxiliary view for `definition` keyed by `out_vars`.
    ///
    /// Returns `(map name, key columns in the map's order, newly created)`. When
    /// deduplication finds an existing structurally-equivalent map, the caller's key
    /// variables are positionally compatible with the existing map's key order (both
    /// canonicalize the key list first), so they can be used directly as reference
    /// arguments.
    pub fn register(
        &mut self,
        definition: Expr,
        out_vars: Vec<String>,
        depth: usize,
        dedup: bool,
        name_hint: &str,
    ) -> (String, Vec<String>, bool) {
        let key = Self::key_of(&definition, &out_vars);
        if dedup {
            if let Some(idx) = self.canon_keys.iter().position(|k| *k == key) {
                return (self.maps[idx].name.clone(), out_vars, false);
            }
        }
        self.counter += 1;
        let name = format!("m_{}_{}", name_hint.to_lowercase(), self.counter);
        // Alpha-rename key columns inherited from trigger variables (they contain
        // `@`). A map keyed by a literal trigger-variable name — e.g.
        // `m[r@b] := Sum[r@b](S(r@b, c) * R(c, d))` from a ΔR term — is a capture
        // hazard: deriving *this map's* maintenance statements w.r.t. a later
        // update of the same relation re-introduces the trigger variable `r@b`
        // as a bound runtime value, silently pinning what should be a `foreach`
        // loop column to the updated tuple. Renaming to a per-map key name at
        // registration makes the definition's free variables disjoint from every
        // possible trigger variable (`<rel>@<col>` never contains `@@`). View
        // references are positional, so callers keep their own argument names.
        let (stored_out_vars, definition) = if out_vars.iter().any(|v| v.contains('@')) {
            let subst: dbtoaster_gmr::FastMap<String, String> = out_vars
                .iter()
                .enumerate()
                .filter(|(_, v)| v.contains('@'))
                .map(|(i, v)| (v.clone(), format!("{name}@@k{i}")))
                .collect();
            let renamed: Vec<String> = out_vars
                .iter()
                .map(|v| subst.get(v).cloned().unwrap_or_else(|| v.clone()))
                .collect();
            (renamed, definition.rename_vars(&subst))
        } else {
            (out_vars.clone(), definition)
        };
        self.maps.push(MapDecl {
            name: name.clone(),
            out_vars: stored_out_vars,
            definition,
            is_query_result: false,
            init: None,
        });
        self.canon_keys.push(key);
        self.depths.push(depth);
        let idx = self.maps.len() - 1;
        self.pending.push_back(idx);
        (name, out_vars, true)
    }

    /// Next map awaiting maintenance-statement generation, with its depth.
    pub fn pop_pending(&mut self) -> Option<(usize, usize)> {
        self.pending.pop_front().map(|i| (i, self.depths[i]))
    }

    /// Map declaration by index.
    pub fn decl(&self, idx: usize) -> &MapDecl {
        &self.maps[idx]
    }

    /// Canonical key of a registered map.
    pub fn canon_key(&self, idx: usize) -> &str {
        &self.canon_keys[idx]
    }
}

/// Context for one materialization pass.
pub struct Materializer<'a> {
    /// Map registry shared across the whole compilation.
    pub registry: &'a mut MapRegistry,
    /// Compilation options.
    pub options: &'a CompileOptions,
    /// Materialize delta subexpressions as auxiliary maps; when false the
    /// clause is evaluated directly over the stored base relations.
    pub materialize: bool,
    /// Rule-usage report being accumulated.
    pub report: &'a mut CompileReport,
    /// Depth (delta order) of the maps created by this pass.
    pub depth: usize,
    /// Canonical key that must not be re-used (the map currently being re-evaluated),
    /// to avoid self-referential materialization decisions.
    pub avoid: Option<String>,
    /// Short name used in generated map names.
    pub name_hint: String,
}

impl<'a> Materializer<'a> {
    /// Rewrite `expr` (whose result columns are `needed` and whose externally bound
    /// variables are `bound`) into an equivalent expression over materialized views,
    /// registering the views as a side effect.
    pub fn materialize_body(
        &mut self,
        expr: &Expr,
        needed: &[String],
        bound: &BTreeSet<String>,
    ) -> Expr {
        let expr = simplify(expr);
        match expr {
            Expr::AggSum(gb, body) => {
                let inner = self.materialize_sum(&body, &gb, bound);
                simplify(&Expr::AggSum(gb, Box::new(inner)))
            }
            other => self.materialize_sum(&other, needed, bound),
        }
    }

    fn materialize_sum(
        &mut self,
        expr: &Expr,
        needed: &[String],
        bound: &BTreeSet<String>,
    ) -> Expr {
        let poly = dbtoaster_agca::expand(expr);
        if poly.monomials.len() > 1 {
            self.report.used_expansion = true;
        }
        let terms: Vec<Expr> = poly
            .monomials
            .iter()
            .map(|m| {
                let term = self.materialize_monomial(m, needed, bound);
                normalize_schema(term, needed, bound)
            })
            .collect();
        simplify(&Expr::sum_of(terms))
    }

    /// Materialization decision for a single multiplicative clause.
    pub fn materialize_monomial(
        &mut self,
        mono: &Monomial,
        needed: &[String],
        bound: &BTreeSet<String>,
    ) -> Expr {
        if !self.materialize {
            return mono.to_expr();
        }
        let needed_set: BTreeSet<String> = needed.iter().cloned().collect();
        let factors = unify_factors(&mono.factors, bound, &needed_set);
        let factors = order_factors(&factors, bound);

        // Rewrite nested aggregates (rule 4): lifted subqueries, Exists bodies and bare
        // group-by aggregates that contain base-relation atoms are materialized
        // recursively (so that comparisons referencing bound correlation variables stay
        // outside the maps); the lift / Exists / AggSum node itself stays in the clause.
        let mut scope = bound.clone();
        let mut rewritten: Vec<Expr> = Vec::with_capacity(factors.len());
        for f in factors {
            let nf = match &f {
                Expr::Lift(x, e) if contains_base_atoms(e) => {
                    self.report.used_nested_rewrite = true;
                    let inner_out = var_info(e, &scope).map(|i| i.outputs).unwrap_or_default();
                    let e2 = self.materialize_body(e, &inner_out, &scope);
                    Expr::Lift(x.clone(), Box::new(e2))
                }
                Expr::Exists(e) if contains_base_atoms(e) => {
                    self.report.used_nested_rewrite = true;
                    let inner_out = var_info(e, &scope).map(|i| i.outputs).unwrap_or_default();
                    let e2 = self.materialize_body(e, &inner_out, &scope);
                    Expr::Exists(Box::new(e2))
                }
                Expr::AggSum(_, body) if contains_base_atoms(body) => {
                    self.materialize_body(&f, &[], &scope)
                }
                _ => f,
            };
            if let Ok(info) = var_info(&nf, &scope) {
                scope.extend(info.outputs);
            }
            rewritten.push(nf);
        }

        // Partition into relational factors (containing base atoms) and the rest.
        let relational: Vec<usize> = rewritten
            .iter()
            .enumerate()
            .filter(|(_, f)| contains_base_atoms(f))
            .map(|(i, _)| i)
            .collect();
        if relational.is_empty() {
            return Monomial {
                coef: mono.coef,
                factors: rewritten,
            }
            .to_expr();
        }

        // Connected components of the join graph: factors are connected when they share
        // an output variable that is not bound (bound variables are lookup keys and do
        // not force co-materialization — this is what makes single-tuple deltas cheap).
        let outputs_of: Vec<BTreeSet<String>> = rewritten
            .iter()
            .map(|f| {
                var_info(f, bound)
                    .map(|i| i.outputs.into_iter().collect())
                    .unwrap_or_default()
            })
            .collect();
        let mut components: Vec<Vec<usize>> = Vec::new();
        // Rule 1 (decomposition into join-graph components) is higher-order
        // mode's alone.
        if self.options.mode == CompileMode::HigherOrder {
            for &i in &relational {
                let connects = components.iter().position(|comp: &Vec<usize>| {
                    comp.iter().any(|&j| {
                        outputs_of[i]
                            .intersection(&outputs_of[j])
                            .any(|v| !bound.contains(v))
                    })
                });
                match connects {
                    Some(c) => components[c].push(i),
                    None => components.push(vec![i]),
                }
            }
            // Merging may cascade (a later factor can connect two earlier components);
            // run a fix-point pass.
            loop {
                let mut merged = false;
                'outer: for a in 0..components.len() {
                    for b in (a + 1)..components.len() {
                        let connect = components[a].iter().any(|&i| {
                            components[b].iter().any(|&j| {
                                outputs_of[i]
                                    .intersection(&outputs_of[j])
                                    .any(|v| !bound.contains(v))
                            })
                        });
                        if connect {
                            let bs = components.remove(b);
                            components[a].extend(bs);
                            merged = true;
                            break 'outer;
                        }
                    }
                }
                if !merged {
                    break;
                }
            }
        } else {
            components.push(relational.clone());
        }
        if components.len() > 1 {
            self.report.used_decomposition = true;
        }

        // Assign non-relational scalar factors to a component when all their variables
        // come from that component and none are bound (rule 3 keeps factors that touch
        // input variables outside the materialization).
        let mut assigned: Vec<Option<usize>> = vec![None; rewritten.len()];
        for (i, f) in rewritten.iter().enumerate() {
            if relational.contains(&i) {
                continue;
            }
            let mergeable = matches!(f, Expr::Var(_) | Expr::Cmp(..) | Expr::Apply(..));
            if !mergeable {
                continue;
            }
            let vars = f.all_variables();
            if vars.is_empty() || vars.iter().any(|v| bound.contains(v)) {
                if vars.iter().any(|v| bound.contains(v)) {
                    self.report.used_input_var_extraction = true;
                }
                continue;
            }
            let home = components.iter().position(|comp| {
                vars.iter()
                    .all(|v| comp.iter().any(|&j| outputs_of[j].contains(v)))
            });
            match home {
                Some(c) => assigned[i] = Some(c),
                None => self.report.used_input_var_extraction = true,
            }
        }

        // Variables needed outside each component: statement keys, bound lookups, and
        // variables referenced by factors outside the component.
        let mut result_factors: Vec<Expr> = Vec::new();
        for (ci, comp) in components.iter().enumerate() {
            let mut comp_factors: Vec<usize> = Vec::new();
            let mut comp_outputs: BTreeSet<String> = BTreeSet::new();
            for (i, _) in rewritten.iter().enumerate() {
                if comp.contains(&i) || assigned[i] == Some(ci) {
                    comp_factors.push(i);
                    comp_outputs.extend(outputs_of[i].iter().cloned());
                }
            }
            // Variables referenced by everything *not* in this component.
            let mut external_vars: BTreeSet<String> = needed.iter().cloned().collect();
            external_vars.extend(bound.iter().cloned());
            for (i, f) in rewritten.iter().enumerate() {
                if comp.contains(&i) || assigned[i] == Some(ci) {
                    continue;
                }
                external_vars.extend(f.all_variables());
            }
            let out_vars: Vec<String> = comp_outputs
                .iter()
                .filter(|v| external_vars.contains(*v))
                .cloned()
                .collect();
            // Rule 5: a value factor over the map's own key columns is a
            // function of the key, so it multiplies the looked-up entry
            // instead of every aggregated row. Its variables are keys
            // already, so leaving it outside gives the map no new key.
            let (outside, inside): (Vec<usize>, Vec<usize>) =
                comp_factors.into_iter().partition(|&i| {
                    assigned[i] == Some(ci)
                        && is_value_factor(&rewritten[i])
                        && rewritten[i]
                            .all_variables()
                            .iter()
                            .all(|v| out_vars.contains(v))
                });
            let comp_factors: Vec<Expr> = inside.iter().map(|&i| rewritten[i].clone()).collect();
            result_factors.extend(outside.iter().map(|&i| rewritten[i].clone()));

            let body = Expr::product_of(comp_factors.clone());
            let def = simplify(&Expr::AggSum(out_vars.clone(), Box::new(body.clone())));
            let key = MapRegistry::key_of(&def, &out_vars);
            if self.avoid.as_deref() == Some(key.as_str()) {
                // Would materialize the very map we are re-evaluating: keep the factors
                // inline over the base relations instead.
                result_factors.extend(comp_factors);
                continue;
            }
            let (name, ref_args, created) = self.registry.register(
                def,
                out_vars,
                self.depth,
                self.options.mode != CompileMode::Reevaluate,
                &self.name_hint,
            );
            if created {
                self.report.maps_created += 1;
            } else {
                self.report.maps_deduplicated += 1;
            }
            result_factors.push(Expr::view(name, ref_args));
        }

        // Keep the unassigned non-relational factors.
        for (i, f) in rewritten.iter().enumerate() {
            if relational.contains(&i) || assigned[i].is_some() {
                continue;
            }
            result_factors.push(f.clone());
        }

        let ordered = order_factors(&result_factors, bound);
        Monomial {
            coef: mono.coef,
            factors: ordered,
        }
        .to_expr()
    }
}

/// Does the expression contain any stream or static-table atom (i.e. anything that must
/// be materialized before it can appear in a trigger statement)?
pub fn contains_base_atoms(expr: &Expr) -> bool {
    expr.contains_atom_kind(AtomKind::Stream) || expr.contains_atom_kind(AtomKind::Table)
}

/// Is the factor a value multiplied in — a variable, or arithmetic over
/// variables — rather than a filter? Comparisons and `LIKE` are filters.
fn is_value_factor(f: &Expr) -> bool {
    match f {
        Expr::Var(_) => true,
        Expr::Apply(func, _) => !matches!(func, ScalarFn::Like(_)),
        _ => false,
    }
}

/// Project a rewritten clause down to exactly the `needed` output columns by wrapping it
/// in a group-by summation. The clauses of one sum may otherwise expose different
/// (superset) schemas — e.g. a clause whose views still carry bound lookup columns next
/// to a clause that is a pure trigger-variable constant — and generalized union requires
/// uniform schemas.
///
/// When the clause is a product of groups of factors that share no (unbound) variables,
/// the summation is pushed into each group — `Sum(Q1 * Q2) = Sum(Q1) * Sum(Q2)` for
/// disconnected `Q1`, `Q2`. This is the statement-level form of rule 1 and is what gives
/// the PSP/MST re-evaluation statements of Section 6.2 their `O(|B| + |A|)` (rather than
/// `O(|B| · |A|)`) evaluation cost.
pub fn normalize_schema(term: Expr, needed: &[String], bound: &BTreeSet<String>) -> Expr {
    if term.is_zero() {
        return term;
    }
    if let Expr::Mul(factors) = &term {
        if let Some(decomposed) = push_down_aggregation(factors, needed, bound) {
            return decomposed;
        }
    }
    simplify(&Expr::AggSum(needed.to_vec(), Box::new(term)))
}

/// Split a product into groups connected through unbound variables and aggregate each
/// group independently. Returns `None` when the product does not decompose (or a needed
/// column cannot be attributed to exactly one group).
fn push_down_aggregation(
    factors: &[Expr],
    needed: &[String],
    bound: &BTreeSet<String>,
) -> Option<Expr> {
    // Variables that connect factors: everything except bound (trigger / correlation)
    // variables, which are constants at evaluation time.
    let vars_of: Vec<BTreeSet<String>> = factors
        .iter()
        .map(|f| {
            f.all_variables()
                .into_iter()
                .filter(|v| !bound.contains(v))
                .collect()
        })
        .collect();
    let mut groups: Vec<(BTreeSet<String>, Vec<usize>)> = Vec::new();
    for (i, vars) in vars_of.iter().enumerate() {
        let hit = groups
            .iter()
            .position(|(gvars, _)| !gvars.is_disjoint(vars) && !vars.is_empty());
        match hit {
            Some(g) => {
                groups[g].0.extend(vars.iter().cloned());
                groups[g].1.push(i);
            }
            None => groups.push((vars.clone(), vec![i])),
        }
    }
    // Transitive closure of the merging (a later factor may bridge two earlier groups).
    loop {
        let mut merged = false;
        'outer: for a in 0..groups.len() {
            for b in (a + 1)..groups.len() {
                if !groups[a].0.is_disjoint(&groups[b].0)
                    && !groups[a].0.is_empty()
                    && !groups[b].0.is_empty()
                {
                    let (vars, idxs) = groups.remove(b);
                    groups[a].0.extend(vars);
                    groups[a].1.extend(idxs);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            break;
        }
    }
    if groups.len() <= 1 {
        return None;
    }
    // Attribute each needed column to the (unique) group that can produce it.
    let mut group_needed: Vec<Vec<String>> = vec![Vec::new(); groups.len()];
    for col in needed {
        let owners: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, (vars, _))| vars.contains(col))
            .map(|(i, _)| i)
            .collect();
        match owners.as_slice() {
            [single] => group_needed[*single].push(col.clone()),
            _ => return None,
        }
    }
    let parts: Vec<Expr> = groups
        .iter()
        .zip(group_needed.iter())
        .map(|((_, idxs), gb)| {
            let body = Expr::product_of(idxs.iter().map(|&i| factors[i].clone()));
            simplify(&Expr::AggSum(gb.clone(), Box::new(body)))
        })
        .collect();
    Some(simplify(&Expr::product_of(parts)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ho_options() -> CompileOptions {
        CompileOptions::for_mode(CompileMode::HigherOrder)
    }

    fn bound(vars: &[&str]) -> BTreeSet<String> {
        vars.iter().map(|s| s.to_string()).collect()
    }

    fn run_monomial(
        factors: Vec<Expr>,
        needed: &[&str],
        bnd: &[&str],
        options: &CompileOptions,
    ) -> (Expr, Vec<MapDecl>, CompileReport) {
        let mut reg = MapRegistry::new();
        let mut report = CompileReport::default();
        let mut mat = Materializer {
            registry: &mut reg,
            options,
            materialize: crate::compile::materializes_deltas(options.mode),
            report: &mut report,
            depth: 1,
            avoid: None,
            name_hint: "q".into(),
        };
        let needed: Vec<String> = needed.iter().map(|s| s.to_string()).collect();
        let e = mat.materialize_monomial(&Monomial::of(factors), &needed, &bound(bnd));
        (e, reg.into_maps().unwrap(), report)
    }

    #[test]
    fn example10_decomposition_of_disconnected_join() {
        // Delta of Sum[](R(A,B)*S(B,C)*T(C,D)) for +S(b,c): Sum[](R(A,b)*T(c,D)).
        // R and T are disconnected once b, c are bound: two separate maps.
        let (e, maps, report) = run_monomial(
            vec![Expr::rel("R", ["A", "b"]), Expr::rel("T", ["c", "D"])],
            &[],
            &["b", "c"],
            &ho_options(),
        );
        assert_eq!(maps.len(), 2, "expected M1[b] and M2[c], got {maps:?}");
        assert!(report.used_decomposition);
        // Both maps are keyed by the bound variable they contain.
        let keys: Vec<Vec<String>> = maps.iter().map(|m| m.out_vars.clone()).collect();
        assert!(keys.contains(&vec!["b".to_string()]));
        assert!(keys.contains(&vec!["c".to_string()]));
        // The rewritten clause references both views.
        let views: Vec<_> = e
            .atoms()
            .into_iter()
            .filter(|a| a.kind == AtomKind::View)
            .collect();
        assert_eq!(views.len(), 2);
    }

    #[test]
    fn naive_mode_materializes_cross_product() {
        let options = CompileOptions::for_mode(CompileMode::NaiveViewlet);
        let (_, maps, _) = run_monomial(
            vec![Expr::rel("R", ["A", "b"]), Expr::rel("T", ["c", "D"])],
            &[],
            &["b", "c"],
            &options,
        );
        // Without decomposition the whole cross product is one map keyed by (b, c).
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].out_vars.len(), 2);
    }

    #[test]
    fn value_terms_are_pushed_into_the_component() {
        // Example 2: delta of SUM(price * xch) w.r.t. +O(ordk, xch):
        //   LI(o_ordk, PRICE) * PRICE * o_xch
        // PRICE is aggregated inside the map; o_xch (a trigger variable) stays outside.
        let (e, maps, report) = run_monomial(
            vec![
                Expr::rel("LI", ["o_ordk", "PRICE"]),
                Expr::var("PRICE"),
                Expr::var("o_xch"),
            ],
            &[],
            &["o_ordk", "o_xch"],
            &ho_options(),
        );
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].out_vars, vec!["o_ordk"]);
        let def = maps[0].definition.to_string();
        assert!(
            def.contains("PRICE"),
            "aggregated value folded into the map: {def}"
        );
        assert!(
            !def.contains("o_xch"),
            "trigger variable must stay outside: {def}"
        );
        assert!(e.to_string().contains("o_xch"));
        assert!(report.used_input_var_extraction);
    }

    #[test]
    fn nested_aggregate_is_materialized_separately() {
        // C(ck) * (x := Sum[](LI(ok, qty) * qty)) * (100 < x)
        let nested = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("LI", ["ok", "qty"]), Expr::var("qty")]),
        );
        let (e, maps, report) = run_monomial(
            vec![
                Expr::rel("C", ["ck"]),
                Expr::lift("x", nested),
                Expr::cmp(dbtoaster_agca::CmpOp::Lt, Expr::val(100), Expr::var("x")),
            ],
            &["ck"],
            &[],
            &ho_options(),
        );
        assert!(report.used_nested_rewrite);
        // Two maps: one for C(ck) and one for the nested aggregate.
        assert_eq!(maps.len(), 2, "{maps:?}");
        // The lift remains in the rewritten expression and references a view.
        let s = e.to_string();
        assert!(s.contains(":="), "lift still present: {s}");
        assert!(s.contains("$"), "references a view: {s}");
    }

    #[test]
    fn dedup_reuses_structurally_equal_maps() {
        let mut reg = MapRegistry::new();
        let mut report = CompileReport::default();
        let options = ho_options();
        let def = Expr::agg_sum(
            ["ok"],
            Expr::product_of([Expr::rel("LI", ["ok", "q"]), Expr::var("q")]),
        );
        {
            let mut mat = Materializer {
                registry: &mut reg,
                options: &options,
                materialize: true,
                report: &mut report,
                depth: 1,
                avoid: None,
                name_hint: "q".into(),
            };
            let m1 = mat.materialize_monomial(
                &Monomial::of(vec![def.clone()]),
                &["ok".to_string()],
                &bound(&[]),
            );
            // Same definition with renamed variables: must reuse the same map.
            let def2 = Expr::agg_sum(
                ["o2"],
                Expr::product_of([Expr::rel("LI", ["o2", "q2"]), Expr::var("q2")]),
            );
            let m2 = mat.materialize_monomial(
                &Monomial::of(vec![def2]),
                &["o2".to_string()],
                &bound(&[]),
            );
            let name1 = match &m1 {
                Expr::Rel(r) => r.name.clone(),
                other => panic!("expected view ref, got {other}"),
            };
            let name2 = match &m2 {
                Expr::Rel(r) => r.name.clone(),
                other => panic!("expected view ref, got {other}"),
            };
            assert_eq!(name1, name2);
        }
        assert_eq!(reg.maps().len(), 1);
        assert_eq!(report.maps_deduplicated, 1);
    }

    #[test]
    fn first_order_mode_keeps_base_relations_inline() {
        let options = CompileOptions::for_mode(CompileMode::FirstOrder);
        let (e, maps, _) = run_monomial(
            vec![Expr::rel("R", ["A", "b"]), Expr::rel("T", ["c", "D"])],
            &[],
            &["b", "c"],
            &options,
        );
        assert!(maps.is_empty());
        assert!(e.contains_atom_kind(AtomKind::Stream));
    }

    /// Rule 5: a weight by the map's own key column stays outside the map,
    /// which then deduplicates into the unweighted one; a comparison on that
    /// column stays inside, and a weight by a column that is no key stays
    /// inside too.
    #[test]
    fn key_only_weights_stay_outside_and_comparisons_inside() {
        let options = ho_options();
        let mut reg = MapRegistry::new();
        let mut report = CompileReport::default();
        let mut mat = Materializer {
            registry: &mut reg,
            options: &options,
            materialize: true,
            report: &mut report,
            depth: 1,
            avoid: None,
            name_hint: "q".into(),
        };
        let needed = ["P".to_string()];
        let mut run = |factors: Vec<Expr>| {
            mat.materialize_monomial(&Monomial::of(factors), &needed, &bound(&[]))
        };
        let volumes = run(vec![Expr::rel("B", ["P", "V"]), Expr::var("V")]);
        let weighted = run(vec![
            Expr::rel("B", ["P", "V"]),
            Expr::var("P"),
            Expr::var("V"),
        ]);
        let filtered = run(vec![
            Expr::rel("B", ["P", "V"]),
            Expr::var("V"),
            Expr::cmp(dbtoaster_agca::CmpOp::Lt, Expr::var("P"), Expr::val(9)),
        ]);
        assert_eq!(volumes.to_string(), "$m_q_1(P)");
        assert_eq!(weighted.to_string(), "($m_q_1(P) * P)");
        assert_eq!(filtered.to_string(), "$m_q_2(P)");
        assert_eq!((report.maps_created, report.maps_deduplicated), (2, 1));
        let maps = reg.into_maps().unwrap();
        let defs: Vec<String> = maps.iter().map(|m| m.definition.to_string()).collect();
        assert!(!defs[0].contains("P * "), "{defs:?}");
        assert!(defs[1].contains("(P < 9)"), "{defs:?}");
    }

    #[test]
    fn inequality_join_keeps_comparison_outside() {
        // Bids(B) * Asks(A) * (B < A): the comparison spans two components, so both maps
        // are keyed by their price column and the comparison stays in the statement.
        let (e, maps, _) = run_monomial(
            vec![
                Expr::rel("Bids", ["B"]),
                Expr::rel("Asks", ["A"]),
                Expr::cmp(dbtoaster_agca::CmpOp::Lt, Expr::var("B"), Expr::var("A")),
            ],
            &[],
            &[],
            &ho_options(),
        );
        assert_eq!(maps.len(), 2);
        assert!(e.to_string().contains("<"));
        assert!(maps.iter().any(|m| m.out_vars == vec!["B".to_string()]));
        assert!(maps.iter().any(|m| m.out_vars == vec!["A".to_string()]));
    }
}
