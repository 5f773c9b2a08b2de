//! Shardability analysis and per-shard program slicing.
//!
//! ## The idea
//!
//! Partition every base relation by the hash of one of its columns (its
//! *partition key*) across `N` engine instances. A trigger statement can then
//! run **shard-local** — on the shard that owns the firing tuple, against that
//! shard's slice of the state — exactly when every piece of state it probes is
//! *co-partitioned* with the firing tuple: the probe key equals the trigger's
//! partition variable, so all rows the probe can reach hash to the same shard
//! the event was routed to. This extends the read-before-write analysis behind
//! [`TriggerProgram::batch_dispatch`]: where that analysis asks *when* a read
//! sees consistent state within a batch, this one asks *where* the read's
//! state lives.
//!
//! Statements that fail the test (a probe off the partition key, a scalar
//! aggregate read by a keyed trigger, a `:=` re-evaluation) are sliced out
//! into a **global program** run by a single *exchange executor* engine that
//! receives every shard's [`RelationDelta`] (the bounded-channel interchange
//! unit, with [`RelationDelta::to_gmr`] as the merge form) and maintains the
//! unpartitionable maps exactly.
//!
//! ## Classification
//!
//! Every map lands in one [`MapClass`]:
//!
//! * [`Replicated`](MapClass::Replicated) — never stream-written (static
//!   table aggregates). Every engine initializes an identical copy; a merged
//!   read takes any one of them.
//! * [`Partitioned`](MapClass::Partitioned)`(i)` — every statement targeting
//!   the map writes key column `i` from its trigger's partition variable, so
//!   the key space is split disjointly across shards and a merged read is a
//!   disjoint union. A probe of the map is local iff its `i`-th argument is
//!   the reading trigger's partition variable.
//! * [`Summed`](MapClass::Summed) — stream-written, read by no statement, and
//!   writes are not key-aligned (typically scalar query results). Each shard
//!   accumulates its slice of the delta stream; a merged read **adds** the
//!   per-shard values. Exact because every statement *writing* it is local,
//!   i.e. each event's full contribution is computed on one shard. (Over
//!   integer-weighted streams the addition is exact; float workloads
//!   reassociate the sum — same caveat as batch-delta execution.)
//! * [`Global`](MapClass::Global) — everything else, maintained only by the
//!   exchange executor.
//!
//! Globality is a fixpoint: a statement is global if it is structurally
//! unshardable *or* touches a global map; a stream-written map is global if
//! any statement targeting **or reading** it is global (the executor must own
//! the full value it reads). The local and global slices are therefore closed
//! under their own reads, and [`slice_program`] can re-derive each slice's
//! run-linear batch-delta program independently.
//!
//! Within one shard, a run's intra-batch interactions are handled by the
//! slice's own batch-delta live pass; *cross-shard* interactions cannot
//! arise for local statements, because any read of run-written state goes
//! through the very probe key the analysis proved equal to both partition
//! variables — co-partitioned entries land on the same shard.
//!
//! [`TriggerProgram::batch_dispatch`]: crate::program::TriggerProgram::batch_dispatch
//! [`RelationDelta`]: dbtoaster_agca::RelationDelta
//! [`RelationDelta::to_gmr`]: dbtoaster_agca::RelationDelta::to_gmr

use crate::program::{
    Catalog, CompiledTrigger, MapDecl, ResultAccess, Statement, StmtOp, Trigger, TriggerProgram,
};
use dbtoaster_agca::{AtomKind, CmpOp, Expr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Where a map lives in a sharded deployment and how per-shard slices merge
/// into the global value (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapClass {
    /// Identical on every engine (static-table derived); merge = take one.
    Replicated,
    /// Key column `i` is the owning shard's partition key; keys are disjoint
    /// across shards and merge is a disjoint union.
    Partitioned(usize),
    /// Per-shard partial aggregates; merge adds multiplicities.
    Summed,
    /// Maintained only by the exchange executor.
    Global,
}

/// Per-relation shardability verdict, with a human-readable reason string in
/// the style of the batch-strategy reasons (surfaced by EXPLAIN).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RelationShardPlan {
    /// The stream relation.
    pub relation: String,
    /// Name of the partition column (trigger variable), when the relation has
    /// at least one column.
    pub partition_column: Option<String>,
    /// Do all of this relation's trigger statements run shard-local?
    pub local: bool,
    /// Why (first offending statement when not local).
    pub reason: String,
}

/// The complete shardability analysis of a trigger program.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Partition column index per stream relation (positional, into the
    /// relation's tuple). Relations with no columns are absent.
    pub partition: BTreeMap<String, usize>,
    /// Classification of every map.
    pub map_class: BTreeMap<String, MapClass>,
    /// `local_stmts[t][s]` — does statement `s` of trigger `t` (indices into
    /// [`TriggerProgram::triggers`]) run shard-local?
    pub local_stmts: Vec<Vec<bool>>,
    /// Per-relation verdicts, in trigger order.
    pub relations: Vec<RelationShardPlan>,
}

impl ShardPlan {
    /// Partition column index for `relation`, if assigned.
    pub fn partition_index(&self, relation: &str) -> Option<usize> {
        self.partition.get(relation).copied()
    }

    /// The per-relation verdict for `relation`.
    pub fn relation_plan(&self, relation: &str) -> Option<&RelationShardPlan> {
        self.relations.iter().find(|r| r.relation == relation)
    }

    /// Classification of `map` (unknown maps are conservatively global).
    pub fn class(&self, map: &str) -> MapClass {
        self.map_class.get(map).copied().unwrap_or(MapClass::Global)
    }

    /// Does any statement or map need the exchange executor?
    pub fn has_global(&self) -> bool {
        self.map_class.values().any(|c| *c == MapClass::Global)
            || self.local_stmts.iter().flatten().any(|l| !l)
    }

    /// Does every statement run shard-local (no exchange at all)?
    pub fn fully_local(&self) -> bool {
        !self.has_global()
    }
}

/// The two programs a sharded deployment runs: the shard-local slice (on
/// every shard, over its partition of the stream) and the global slice (on
/// the exchange executor, over the full stream), if any statement needs it.
#[derive(Clone, Debug)]
pub struct ShardSlices {
    /// Statements proven co-partitioned, with their own re-derived kernels
    /// and run-linear program.
    pub local: TriggerProgram,
    /// The exchange executor's program (`None` when fully local).
    pub global: Option<TriggerProgram>,
}

/// How many rounds of coordinate-descent the partition-key search runs; each
/// round sweeps every relation once, so a handful of rounds converges on the
/// small programs the compiler emits.
const PCOL_SEARCH_ROUNDS: usize = 8;

/// Analyze a compiled trigger program for shardability: pick a partition
/// column per relation (maximizing the number of shard-local statements) and
/// classify every map and statement. Pure over the program — deterministic
/// for a given input.
pub fn analyze_sharding(program: &TriggerProgram) -> ShardPlan {
    let maps: BTreeMap<&str, &MapDecl> =
        program.maps.iter().map(|m| (m.name.as_str(), m)).collect();
    // One (relation, trigger_vars) entry per relation: both signs bind the
    // same positional variable names (they come from the catalog columns).
    let mut rels: Vec<(&str, &[String])> = Vec::new();
    for t in &program.triggers {
        if !rels.iter().any(|(r, _)| *r == t.relation.as_str()) {
            rels.push((&t.relation, &t.trigger_vars));
        }
    }
    // writers[m] = statements targeting map m.
    let mut writers: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (ti, t) in program.triggers.iter().enumerate() {
        for (si, s) in t.statements.iter().enumerate() {
            writers.entry(&s.target).or_default().push((ti, si));
        }
    }

    // --- partition-key search: coordinate descent on the count of one-step
    // local statements (deterministic: relations in first-trigger order,
    // ties to the smaller column index).
    let mut assign: BTreeMap<String, usize> = rels
        .iter()
        .filter(|(_, tv)| !tv.is_empty())
        .map(|(r, _)| (r.to_string(), 0))
        .collect();
    let objective = |assign: &BTreeMap<String, usize>| -> usize {
        program
            .triggers
            .iter()
            .flat_map(|t| t.statements.iter().map(move |s| (t, s)))
            .filter(|(t, s)| structural_cause(program, t, s, assign, &maps, &writers).is_none())
            .count()
    };
    let mut best = objective(&assign);
    for _ in 0..PCOL_SEARCH_ROUNDS {
        let mut improved = false;
        for (rel, tv) in &rels {
            if tv.is_empty() {
                continue;
            }
            let current = assign[*rel];
            let mut best_col = current;
            for col in 0..tv.len() {
                if col == current {
                    continue;
                }
                assign.insert(rel.to_string(), col);
                let score = objective(&assign);
                if score > best {
                    best = score;
                    best_col = col;
                }
            }
            assign.insert(rel.to_string(), best_col);
            improved |= best_col != current;
        }
        if !improved {
            break;
        }
    }

    // --- globality fixpoint: start from structural causes, then let global
    // maps drag in every statement that targets or reads them, and global
    // statements drag in every stream-written map they touch.
    let mut cause: Vec<Vec<Option<String>>> = program
        .triggers
        .iter()
        .map(|t| {
            t.statements
                .iter()
                .map(|s| structural_cause(program, t, s, &assign, &maps, &writers))
                .collect()
        })
        .collect();
    let mut global_maps: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for (ti, t) in program.triggers.iter().enumerate() {
            for (si, s) in t.statements.iter().enumerate() {
                let mut touched: Vec<String> = vec![s.target.clone()];
                touched.extend(s.reads());
                if cause[ti][si].is_some() {
                    // Global statement: the executor must own its target and
                    // every stream-written map it reads.
                    for m in touched {
                        if writers.contains_key(m.as_str()) && global_maps.insert(m) {
                            changed = true;
                        }
                    }
                } else if let Some(m) = touched.iter().find(|m| global_maps.contains(*m)) {
                    // Local so far: demoted if anything it touches went global.
                    cause[ti][si] = Some(format!(
                        "`{}` depends on `{m}`, which lives on the exchange executor",
                        s.target
                    ));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // --- map classification.
    let mut map_class = BTreeMap::new();
    for m in &program.maps {
        let class = if !writers.contains_key(m.name.as_str()) {
            MapClass::Replicated
        } else if global_maps.contains(&m.name) || m.init_from_tables {
            // (A stream-written map with a table-only init would double-count
            // its init under addition; the compiler never emits one, but the
            // executor handles it exactly if it ever appears.)
            MapClass::Global
        } else {
            match aligned_positions(&m.name, &assign, &writers, program) {
                Some(a) if !a.is_empty() => MapClass::Partitioned(*a.iter().next().unwrap()),
                _ => MapClass::Summed,
            }
        };
        map_class.insert(m.name.clone(), class);
    }

    // --- per-relation verdicts.
    let mut relations: Vec<RelationShardPlan> = Vec::new();
    for (ti, t) in program.triggers.iter().enumerate() {
        if relations.iter().any(|r| r.relation == t.relation) {
            // Merge the second sign's verdict into the first entry.
            let entry = relations
                .iter_mut()
                .find(|r| r.relation == t.relation)
                .unwrap();
            if entry.local {
                if let Some(c) = cause[ti].iter().flatten().next() {
                    entry.local = false;
                    entry.reason = format!("exchanges deltas: {c}");
                }
            }
            continue;
        }
        let partition_column = assign
            .get(&t.relation)
            .and_then(|&i| t.trigger_vars.get(i))
            .cloned();
        let (local, reason) = match cause[ti].iter().flatten().next() {
            Some(c) => (false, format!("exchanges deltas: {c}")),
            None => (
                true,
                match &partition_column {
                    Some(col) => format!(
                        "shard-local (partition {}.{col}): every probe is on the partition key",
                        t.relation
                    ),
                    None => "shard-local: no keyed state probed".to_string(),
                },
            ),
        };
        relations.push(RelationShardPlan {
            relation: t.relation.clone(),
            partition_column,
            local,
            reason,
        });
    }

    ShardPlan {
        partition: assign,
        map_class,
        local_stmts: cause
            .iter()
            .map(|t| t.iter().map(|c| c.is_none()).collect())
            .collect(),
        relations,
    }
}

/// Slice a program along its shard plan into the shard-local program (run by
/// every shard over its partition of the stream) and the exchange executor's
/// global program (run over the full stream), if one is needed. Each slice is
/// a complete, self-contained [`TriggerProgram`]: kernels are re-lowered and
/// the run-linear batch-delta program re-derived over the slice's own maps, so a
/// slice engine dispatches batch strategies exactly as an unsharded engine
/// would for that statement subset.
pub fn slice_program(program: &TriggerProgram, plan: &ShardPlan, catalog: &Catalog) -> ShardSlices {
    ShardSlices {
        local: build_slice(program, plan, catalog, true),
        global: plan
            .has_global()
            .then(|| build_slice(program, plan, catalog, false)),
    }
}

fn build_slice(
    program: &TriggerProgram,
    plan: &ShardPlan,
    catalog: &Catalog,
    local: bool,
) -> TriggerProgram {
    let keep_map = |name: &str| match plan.class(name) {
        MapClass::Global => !local,
        // Both slices keep replicated maps: local statements and global
        // statements may each read them, and they are never stream-written,
        // so double maintenance cannot arise.
        MapClass::Replicated => true,
        MapClass::Partitioned(_) | MapClass::Summed => local,
    };
    let maps: Vec<MapDecl> = program
        .maps
        .iter()
        .filter(|m| keep_map(&m.name))
        .cloned()
        .collect();
    let mut triggers: Vec<Trigger> = Vec::new();
    for (ti, t) in program.triggers.iter().enumerate() {
        // Keeping a subsequence preserves the read-before-write order the
        // compiler established: dropped statements never write state the kept
        // ones read (cross-slice reads are ruled out by the fixpoint).
        let statements: Vec<Statement> = t
            .statements
            .iter()
            .enumerate()
            .filter(|(si, _)| plan.local_stmts[ti][*si] == local)
            .map(|(_, s)| s.clone())
            .collect();
        if !statements.is_empty() {
            triggers.push(Trigger {
                relation: t.relation.clone(),
                sign: t.sign,
                trigger_vars: t.trigger_vars.clone(),
                statements,
            });
        }
    }
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
    let (run_linear, batch_delta_reasons) = crate::batch_delta::derive_run_linear(&triggers);
    // Stored relations / static tables, recomputed for the slice exactly as
    // `compile` does for the full program.
    let mut stored_relations = BTreeSet::new();
    let mut static_tables = BTreeSet::new();
    let mut classify = |rel: String| match catalog.get(&rel).map(|m| m.kind) {
        Some(AtomKind::Table) => {
            static_tables.insert(rel);
        }
        _ => {
            stored_relations.insert(rel);
        }
    };
    for t in &triggers {
        for s in &t.statements {
            s.base_reads().into_iter().for_each(&mut classify);
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
    // Results stay with the slice that holds every map they touch; merged
    // serving assembles results from the *merged* snapshot, so slices only
    // carry them for introspection.
    let results = program
        .results
        .iter()
        .filter(|r| match &r.access {
            ResultAccess::Map(m) => maps.iter().any(|d| &d.name == m),
            ResultAccess::Computed { expr, .. } => expr
                .atoms()
                .iter()
                .all(|a| maps.iter().any(|d| d.name == a.name)),
        })
        .cloned()
        .collect();
    TriggerProgram {
        maps,
        triggers,
        compiled,
        results,
        stored_relations,
        static_tables,
        run_linear,
        batch_delta_reasons,
        report: program.report.clone(),
    }
}

/// Key positions of `map` written from the partition variable by **every**
/// targeting statement (`None` when nothing writes the map).
fn aligned_positions(
    map: &str,
    assign: &BTreeMap<String, usize>,
    writers: &BTreeMap<&str, Vec<(usize, usize)>>,
    program: &TriggerProgram,
) -> Option<BTreeSet<usize>> {
    let stmts = writers.get(map)?;
    let mut acc: Option<BTreeSet<usize>> = None;
    for &(ti, si) in stmts {
        let t = &program.triggers[ti];
        let s = &t.statements[si];
        let pvar = assign.get(&t.relation).and_then(|&i| t.trigger_vars.get(i));
        let here: BTreeSet<usize> = match pvar {
            Some(p) => s
                .key_vars
                .iter()
                .enumerate()
                .filter(|(_, k)| *k == p)
                .map(|(i, _)| i)
                .collect(),
            None => BTreeSet::new(),
        };
        acc = Some(match acc {
            None => here,
            Some(prev) => prev.intersection(&here).copied().collect(),
        });
    }
    acc
}

/// Is the statement *structurally* unshardable under the given partition
/// assignment — ignoring globality contagion? Returns the reason when so.
fn structural_cause(
    program: &TriggerProgram,
    t: &Trigger,
    s: &Statement,
    assign: &BTreeMap<String, usize>,
    maps: &BTreeMap<&str, &MapDecl>,
    writers: &BTreeMap<&str, Vec<(usize, usize)>>,
) -> Option<String> {
    if s.op != StmtOp::Increment {
        return Some(format!("`{}` is rebuilt by a `:=` statement", s.target));
    }
    let Some(pvar) = assign.get(&t.relation).and_then(|&i| t.trigger_vars.get(i)) else {
        // No partition variable (zero-column relation): any keyed probe is
        // off-shard; a probe-free statement is trivially local.
        return if s.rhs.atoms().is_empty() {
            None
        } else {
            Some(format!(
                "`{}` probes state from an unkeyed trigger",
                s.target
            ))
        };
    };
    let mut probes = Vec::new();
    collect_probes(&s.rhs, &[], &mut probes);
    for (atom, env) in probes {
        match atom.kind {
            AtomKind::Table => continue,
            AtomKind::View | AtomKind::Stream => {
                if maps.contains_key(atom.name.as_str()) {
                    if !writers.contains_key(atom.name.as_str()) {
                        continue; // static/replicated: identical everywhere
                    }
                    let aligned =
                        aligned_positions(&atom.name, assign, writers, program).unwrap_or_default();
                    if aligned.is_empty() {
                        return Some(format!(
                            "`{}` reads `{}`, which no key column can partition",
                            s.target, atom.name
                        ));
                    }
                    let probe_on_key = aligned
                        .iter()
                        .any(|&i| atom.args.get(i).is_some_and(|a| same_var(a, pvar, &env)));
                    if !probe_on_key {
                        return Some(format!(
                            "`{}` probes `{}` off the partition key",
                            s.target, atom.name
                        ));
                    }
                } else {
                    // Stored base-relation read: local iff probed on the
                    // relation's own partition column.
                    let ok = assign
                        .get(&atom.name)
                        .and_then(|&i| atom.args.get(i))
                        .is_some_and(|arg| same_var(arg, pvar, &env));
                    if !ok {
                        return Some(format!(
                            "`{}` probes stored `{}` off the partition key",
                            s.target, atom.name
                        ));
                    }
                }
            }
        }
    }
    None
}

/// Collect every relation atom of `e` together with the variable equalities
/// in scope at that atom: `x := y` lifts and `x = y` comparisons among the
/// *direct* factors of each enclosing product. Equalities from one additive
/// branch never leak into another. A probe argument equated with the
/// partition variable only reaches rows whose key equals it — rows the firing
/// shard owns — so clause-scoped equalities are sound evidence of locality.
fn collect_probes(
    e: &Expr,
    env: &[(String, String)],
    out: &mut Vec<(dbtoaster_agca::RelRef, Vec<(String, String)>)>,
) {
    match e {
        Expr::Rel(r) => out.push((r.clone(), env.to_vec())),
        Expr::Mul(factors) => {
            let mut scoped = env.to_vec();
            for f in factors {
                match f {
                    Expr::Lift(v, inner) => {
                        if let Expr::Var(w) = &**inner {
                            scoped.push((v.clone(), w.clone()));
                        }
                    }
                    Expr::Cmp(CmpOp::Eq, a, b) => {
                        if let (Expr::Var(x), Expr::Var(y)) = (&**a, &**b) {
                            scoped.push((x.clone(), y.clone()));
                        }
                    }
                    _ => {}
                }
            }
            for f in factors {
                collect_probes(f, &scoped, out);
            }
        }
        Expr::Add(terms) => {
            for t in terms {
                collect_probes(t, env, out);
            }
        }
        Expr::Neg(x) | Expr::AggSum(_, x) | Expr::Lift(_, x) | Expr::Exists(x) => {
            collect_probes(x, env, out)
        }
        Expr::Cmp(_, a, b) => {
            collect_probes(a, env, out);
            collect_probes(b, env, out);
        }
        Expr::Apply(_, args) => {
            for a in args {
                collect_probes(a, env, out);
            }
        }
        Expr::Const(_) | Expr::Var(_) => {}
    }
}

/// Are `a` and `b` the same variable under the equalities in `env`?
fn same_var(a: &str, b: &str, env: &[(String, String)]) -> bool {
    if a == b {
        return true;
    }
    let mut reach: BTreeSet<&str> = BTreeSet::new();
    reach.insert(a);
    loop {
        let mut grew = false;
        for (x, y) in env {
            if reach.contains(x.as_str()) && reach.insert(y.as_str()) {
                grew = true;
            }
            if reach.contains(y.as_str()) && reach.insert(x.as_str()) {
                grew = true;
            }
        }
        if !grew {
            return reach.contains(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::program::{CompileMode, CompileOptions, QuerySpec, RelationMeta};
    use dbtoaster_agca::Expr;

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
            RelationMeta::stream("T", ["A", "C"]),
        ]
        .into_iter()
        .collect()
    }

    fn ho(queries: &[QuerySpec]) -> TriggerProgram {
        compile(
            queries,
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap()
    }

    /// R ⋈ S on B, grouped by B: both relations partition on the join key and
    /// every probe is on it — the axfinder shape, fully shard-local.
    fn join_on_b() -> QuerySpec {
        QuerySpec {
            name: "JOINB".into(),
            out_vars: vec!["b".into()],
            expr: Expr::agg_sum(
                ["b"],
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("S", ["b", "c"])]),
            ),
        }
    }

    /// Scalar self-join with a join key: quadratic, but co-partitioned pairs
    /// always share a shard, so the per-shard live passes stay exact.
    fn selfj() -> QuerySpec {
        QuerySpec {
            name: "SELFJ".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("R", ["a2", "b"])]),
            ),
        }
    }

    /// Scalar cross product: every pair of events interacts regardless of
    /// key, which surfaces as a scalar map read — unpartitionable.
    fn cross() -> QuerySpec {
        QuerySpec {
            name: "CROSS".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("R", ["a2", "b2"])]),
            ),
        }
    }

    fn stmt_count(p: &TriggerProgram) -> usize {
        p.triggers.iter().map(|t| t.statements.len()).sum()
    }

    #[test]
    fn co_partitioned_join_is_fully_local() {
        let program = ho(&[join_on_b()]);
        let plan = analyze_sharding(&program);
        assert!(plan.fully_local(), "plan: {plan:#?}");
        assert_eq!(plan.partition_index("R"), Some(1), "R partitions on B");
        assert_eq!(plan.partition_index("S"), Some(0), "S partitions on B");
        assert_eq!(plan.class("JOINB"), MapClass::Partitioned(0));
        for r in &plan.relations {
            assert!(r.local, "{r:?}");
            assert!(r.reason.starts_with("shard-local"), "{r:?}");
        }
        let slices = slice_program(&program, &plan, &catalog());
        assert!(slices.global.is_none());
        assert_eq!(stmt_count(&slices.local), stmt_count(&program));
    }

    #[test]
    fn keyed_self_join_is_local_with_summed_result() {
        let program = ho(&[selfj()]);
        let plan = analyze_sharding(&program);
        assert!(plan.fully_local(), "plan: {plan:#?}");
        assert_eq!(plan.partition_index("R"), Some(1), "join key B");
        assert_eq!(plan.class("SELFJ"), MapClass::Summed);
        // The local slice must re-derive the run-linear program for the
        // quadratic map: within-shard interactions still need it.
        let slices = slice_program(&program, &plan, &catalog());
        let rl = slices.local.run_linear_for("R").expect("R eligible");
        assert!(
            !rl.statements.is_empty(),
            "quadratic self-join needs a live pass on each shard"
        );
    }

    #[test]
    fn cross_product_exchanges_deltas() {
        let program = ho(&[cross()]);
        let plan = analyze_sharding(&program);
        assert!(!plan.fully_local());
        assert_eq!(plan.class("CROSS"), MapClass::Global);
        let r = plan.relation_plan("R").expect("R planned");
        assert!(!r.local);
        assert!(r.reason.starts_with("exchanges deltas:"), "{}", r.reason);
        let slices = slice_program(&program, &plan, &catalog());
        let global = slices.global.expect("needs the exchange executor");
        assert_eq!(
            stmt_count(&slices.local) + stmt_count(&global),
            stmt_count(&program),
            "slices must partition the statement set"
        );
        assert!(
            global.maps.iter().any(|m| m.name == "CROSS"),
            "executor owns the unpartitionable result"
        );
    }

    #[test]
    fn conflicting_join_keys_split_the_program() {
        // Q1 pins R to column B, Q2 pins R to column A: one of them must go
        // through the exchange executor, the other stays local.
        let q2 = QuerySpec {
            name: "JOINA".into(),
            out_vars: vec!["a".into()],
            expr: Expr::agg_sum(
                ["a"],
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("T", ["a", "c"])]),
            ),
        };
        let program = ho(&[join_on_b(), q2]);
        let plan = analyze_sharding(&program);
        assert!(!plan.fully_local(), "conflict must force an exchange");
        let global = [plan.class("JOINB"), plan.class("JOINA")]
            .iter()
            .filter(|c| **c == MapClass::Global)
            .count();
        assert_eq!(
            global, 1,
            "exactly one result moves to the executor: {plan:#?}"
        );
        let slices = slice_program(&program, &plan, &catalog());
        let g = slices.global.expect("executor needed");
        assert!(
            stmt_count(&slices.local) > 0,
            "the aligned query stays local"
        );
        assert_eq!(
            stmt_count(&slices.local) + stmt_count(&g),
            stmt_count(&program)
        );
    }

    #[test]
    fn replace_statements_go_global() {
        let program = compile(
            &[join_on_b()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::Reevaluate),
        )
        .unwrap();
        let plan = analyze_sharding(&program);
        assert!(!plan.fully_local());
        for r in &plan.relations {
            assert!(!r.local, "re-evaluation is inherently global: {r:?}");
        }
        let slices = slice_program(&program, &plan, &catalog());
        assert_eq!(stmt_count(&slices.local), 0);
        assert_eq!(
            stmt_count(&slices.global.expect("executor")),
            stmt_count(&program)
        );
    }
}
