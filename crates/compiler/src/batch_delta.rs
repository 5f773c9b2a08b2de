//! **Batch-delta** programs: run a whole relation run's trigger statements at
//! the pre-run state — except the ones that read what the run itself writes,
//! which fire entry by entry against maps the run keeps current.
//!
//! ## The problem
//!
//! A trigger statement's right-hand side is the *single-tuple* delta of its
//! target map, evaluated at the pre-event state. Driving it over a multi-entry
//! [`RelationDelta`](dbtoaster_agca::RelationDelta) against the **pre-run**
//! state drops the interaction between entries of the same run: for a map `M`
//! quadratic in the updated relation `R`, the delta of a later entry depends
//! on the earlier entries already being applied — through the auxiliary maps
//! (or `R`'s stored slice) that the statement reads and the same run writes.
//!
//! ## The fix: only some statements, and only some maps, see the order
//!
//! Call a map **run-written** when some statement of `R`'s triggers targets
//! it, and count `R`'s own stored slice among them. A `+=` statement that
//! reads no run-written atom produces the same rows whenever in the run it is
//! evaluated, so it is evaluated for every entry back-to-back against the
//! pre-run store (loop-invariant prelude scans amortized over the run) and
//! its writes are buffered. The statements that do read one — the ones its
//! [`RelationPlan`] fires live, the relation's **live pass** — are evaluated
//! firing by firing, in entry order, and the
//! run-written maps they read (the **live maps**) are written firing by
//! firing too. Within a firing the order is per-event's: every listed
//! statement is evaluated first — all `+=` statements of a firing read the
//! state before it — and then the firing's rows for every statement that
//! targets a live map, evaluated or already buffered, land, the base update
//! last. What such a statement reads is therefore exactly what per-event
//! processing would have it read, whatever its shape — two run-written atoms
//! in one product, one under a lift, comparison or `EXISTS` — and whatever
//! its place in the trigger: a read of its own target, or of an earlier
//! statement's, sees the earlier firings' writes and not its own firing's. It
//! is one lookup into one structure, whatever the index, and everything else
//! about the run stays a batch.
//!
//! A statement's rows are the same as per event either way, so the results
//! are exact wherever the stream arithmetic is (integer weights and
//! aggregates below 2⁵³ reproduce per-event results bit for bit; float
//! aggregates to summation order, because buffered rows are applied statement
//! by statement, not event by event). Relations whose statements read no
//! run-written state — every linear query — have an empty live pass, and a
//! run of at most one firing has nothing to interact with (see below): both
//! skip the firing-by-firing pass entirely.
//!
//! ## The `:=` tail
//!
//! A re-evaluation statement wipes its target and rebuilds it from the
//! *current* state, so of a run's per-event firings only the last one's
//! output survives. When every `:=` statement follows every `+=` statement in
//! its trigger, and both sign triggers re-evaluate the same targets, that
//! surviving firing reads exactly the state the run's buffered increments and
//! base update leave behind (the compiler orders a trigger's `:=` statements
//! writer before reader, `order_statements`). The `:=` statements therefore
//! need no delta form: the engine fires the last event's once, after the base
//! update. A trigger that is *only* `:=` statements — every trigger of
//! re-evaluation mode — is the degenerate case: an empty increment phase and
//! the tail.
//!
//! ## Derivability (per relation)
//!
//! Derivation succeeds iff the `:=` statements can be the run's tail:
//!
//! * **the mirrored tail**: in each sign trigger every `+=` precedes every
//!   `:=`, and if any `:=` exists, both sign triggers exist and re-evaluate
//!   the same set of targets;
//! * **one gate**: no `+=` statement reads a `:=` target — the target is
//!   rewritten once per run, after its last entry, not once per firing, so
//!   the live pass cannot keep it current.
//!
//! The `+=` statements' shapes and order are not checked: the live pass
//! reproduces per-event reads for any right-hand side. Every relation of the
//! bundled workload derives in every compile mode, and so does every
//! relation of every program the compiler emits: it orders each trigger's
//! `:=` statements after its `+=` statements and re-evaluates a target under
//! both signs. [`TriggerProgram::relation_plans`] returns the condition that
//! bailed, `compile` refuses the program with it
//! ([`CompileError::Underivable`](crate::CompileError::Underivable)), and
//! the engine refuses a hand-assembled program with it.
//!
//! ## One plan per relation
//!
//! What a relation's runs execute is one [`RelationPlan`], derived by that
//! one function from the triggers and stored nowhere: `compile` calls it to
//! refuse a program that does not derive, the engine once at construction,
//! where it resolves each plan into trigger indexes, per-statement flags,
//! kernel units and shared tables, and `explain` to render each relation's
//! `live pass:`, `shared table:` and `fused:` lines.
//!
//! ## Sibling statements
//!
//! Every `+=` statement runs in exactly one **kernel unit**
//! ([`KernelUnit`]): one kernel and the statements whose rows it fills. A
//! statement alone is a unit of one, with its own kernel. Statements that do
//! the same work and differ only in what they add share a unit. Such a
//! **group** is a set of `+=` statements of one trigger, none of which fires
//! live — so none reads another's target, which its run writes — with equal
//! key and loop variables, whose plans are equal once each term's value ops
//! are taken out — [`CompiledStmt::fuse`] decides that, and builds the
//! kernel: one walk of the shared frame per entry, one key per row, and each
//! member's row into that member's own buffer, with the products and the
//! rows its own plan makes, bit for bit. TPC-H q1's four Lineitem maps
//! are one group per sign. The same derivation lists each relation's units
//! ([`RelationPlan::kernels`]): the engine resolves them with the rest of
//! the plan and runs each where its first member stands, and `explain`
//! prints a `fused:` line per group of two or more. A member keeps its own
//! buffered rows at its own statement position, so the apply phase and the
//! live pass see a unit's members as they see any statement.
//!
//! ## Shared key tables
//!
//! A group's maps can go further and be one key table with a value column
//! per member, so that the unit's row costs one key and one map write, not
//! one per member. The same derivation lists those groups
//! ([`RelationPlan::shared`]): the targets of a sibling group that is
//! exactly the unit writing them in every trigger that writes any of them,
//! where no kernel reads one, no `:=` rewrites one, and none is a live map,
//! a stored relation or a static view. TPC-H q1's four maps are one; the
//! order-book pairs are not, because kernels read them through their
//! ordered indexes. Nothing is stored, so a program's fingerprint does not
//! change; the engine builds the tables at construction and `explain`
//! prints a `shared table:` line per table.
//!
//! ## Runs of one firing
//!
//! A run of one firing — the batch of one event — has nothing to interact
//! with: no live pass, every `+=` evaluated against the state before the
//! firing and applied in statement order, the base update, then the
//! firing's `:=` statements — per-event processing, which is
//! `Engine::process`. No firing fails: the engine's ingest gate refuses an
//! ill-typed event before any run forms.

use crate::program::{BatchDeltaBail, StmtOp, Trigger, TriggerProgram};
use dbtoaster_agca::{AtomKind, CompiledStmt, UpdateSign};
use std::collections::{BTreeMap, BTreeSet};

/// How the runs of one stream relation execute (see the module docs): its
/// two sign triggers, the `+=` statements that fire live, the maps they read
/// of the run's writes and the `:=` tail. [`TriggerProgram::relation_plans`]
/// derives one per triggered relation; the engine resolves them once, at
/// construction, and `explain` renders them.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationPlan {
    /// The stream relation.
    pub relation: String,
    /// Index into [`TriggerProgram::triggers`] of the insert trigger, if any.
    pub insert: Option<usize>,
    /// Index into [`TriggerProgram::triggers`] of the delete trigger, if any.
    pub delete: Option<usize>,
    /// The `+=` statements that read run-written state, as `(trigger,
    /// statement)` positions in that order: a multi-firing run evaluates
    /// them firing by firing, in entry order. Empty when no statement of the
    /// relation reads run-written state — its runs have no interaction.
    pub live: Vec<(usize, usize)>,
    /// The run-written names those statements read, sorted: the *live
    /// maps*, which a multi-firing run writes firing by firing instead of
    /// once at its end.
    pub live_maps: Vec<String>,
    /// How many `:=` statements close the insert trigger (the delete trigger
    /// re-evaluates the same targets): the run's tail, fired once for its
    /// last event.
    pub tail: usize,
    /// The kernel units of both triggers, insert first, each trigger's in
    /// order of their first members: every `+=` statement of a trigger sits
    /// in exactly one (see the module docs).
    pub kernels: Vec<KernelUnit>,
    /// The shared key tables its units write (see the module docs): each
    /// the targets of a sibling group, in its first unit's statement order,
    /// which is the order of the table's value columns.
    pub shared: Vec<Vec<String>>,
}

/// `+=` statements of one trigger and the one kernel that fills their rows
/// (see the module docs): a statement alone with its own kernel, or a
/// sibling group with the kernel [`CompiledStmt::fuse`] builds.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelUnit {
    /// Index into [`TriggerProgram::triggers`].
    pub trigger: usize,
    /// The members' positions in the trigger, in statement order.
    pub members: Vec<usize>,
    /// The kernel: member `i`'s rows go to its row buffer `i`
    /// ([`CompiledStmt::members`]).
    pub kernel: CompiledStmt,
}

impl TriggerProgram {
    /// The plan of every relation a trigger reads, in first-appearance order
    /// (see the module docs), or the first relation whose derivation bails
    /// and the condition that bailed.
    pub fn relation_plans(&self) -> Result<Vec<RelationPlan>, (String, BatchDeltaBail)> {
        let mut relations: Vec<&str> = Vec::new();
        for t in &self.triggers {
            if !relations.contains(&t.relation.as_str()) {
                relations.push(&t.relation);
            }
        }
        let plan = |rel: &str| relation_plan(rel, &self.triggers).map_err(|b| (rel.to_string(), b));
        let mut plans = relations
            .into_iter()
            .map(plan)
            .collect::<Result<Vec<_>, _>>()?;
        let tables = shared_tables(self, &plans);
        for plan in &mut plans {
            let writes = |t: &&Vec<String>| plan.kernels.iter().any(|u| self.targets(u)[0] == t[0]);
            plan.shared = tables.iter().filter(writes).cloned().collect();
        }
        Ok(plans)
    }

    /// The targets of a kernel unit's members, in statement order.
    fn targets(&self, unit: &KernelUnit) -> Vec<&str> {
        let statements = &self.triggers[unit.trigger].statements;
        unit.members
            .iter()
            .map(|&j| statements[j].target.as_str())
            .collect()
    }
}

/// The shared key tables of `program` (see the module docs): the targets of
/// each sibling group that is exactly what writes them, wherever they are
/// written, and that nothing reads or keeps apart — no kernel reads one, no
/// `:=` rewrites one, and none is a live map, a stored relation or a static
/// view. Each table once, in the order of its first unit.
fn shared_tables(program: &TriggerProgram, plans: &[RelationPlan]) -> Vec<Vec<String>> {
    let statements = || program.triggers.iter().flat_map(|t| &t.statements);
    let inits = program.maps.iter().filter_map(|m| m.init.as_ref());
    let read: BTreeSet<&str> = statements()
        .map(|s| &s.kernel)
        .chain(inits)
        .flat_map(|k| k.rels.iter().map(String::as_str))
        .collect();
    let apart = |name: &str| {
        read.contains(name)
            || program.stored_relations.contains(name)
            || program.static_tables.contains(name)
            || program.map(name).is_none_or(|m| m.init.is_some())
            || plans.iter().any(|p| p.live_maps.iter().any(|m| m == name))
    };
    // Per target, the target set of every statement that writes it: its
    // unit's for a `+=`, none for a `:=`.
    let mut writers: BTreeMap<&str, Vec<BTreeSet<&str>>> = BTreeMap::new();
    for unit in plans.iter().flat_map(|p| &p.kernels) {
        let targets = program.targets(unit);
        for &t in &targets {
            writers
                .entry(t)
                .or_default()
                .push(targets.iter().copied().collect());
        }
    }
    for s in statements().filter(|s| s.op == StmtOp::Replace) {
        writers.entry(&s.target).or_default().push(BTreeSet::new());
    }
    let mut tables: Vec<Vec<String>> = Vec::new();
    for unit in plans.iter().flat_map(|p| &p.kernels) {
        let targets = program.targets(unit);
        let set: BTreeSet<&str> = targets.iter().copied().collect();
        let table = set.len() > 1
            && set.len() == targets.len()
            && targets
                .iter()
                .all(|t| !apart(t) && writers[t].iter().all(|w| *w == set))
            && !tables.iter().any(|held| held[0] == targets[0]);
        if table {
            tables.push(targets.iter().map(|t| t.to_string()).collect());
        }
    }
    tables
}

fn relation_plan(relation: &str, triggers: &[Trigger]) -> Result<RelationPlan, BatchDeltaBail> {
    let position = |sign| {
        triggers
            .iter()
            .position(|t| t.relation == relation && t.sign == sign)
    };
    let (insert, delete) = (position(UpdateSign::Insert), position(UpdateSign::Delete));
    let rel_triggers: Vec<(usize, &Trigger)> = [insert, delete]
        .into_iter()
        .flatten()
        .map(|i| (i, &triggers[i]))
        .collect();
    // The `:=` statements are a tail, mirrored across the signs.
    let mut replaced: Vec<BTreeSet<&str>> = Vec::new();
    for (_, t) in &rel_triggers {
        let tail = &t.statements[t.increments().len()..];
        if let Some(s) = tail.iter().find(|s| s.op == StmtOp::Increment) {
            return Err(BatchDeltaBail::IncrementAfterReplace {
                target: s.target.clone(),
            });
        }
        replaced.push(tail.iter().map(|s| s.target.as_str()).collect());
    }
    if replaced.iter().any(|r| !r.is_empty()) {
        match replaced.as_slice() {
            [ins, del] if ins == del => {}
            [_, _] => return Err(BatchDeltaBail::UnmirroredReplace),
            // A sign without a trigger would skip the re-evaluation its
            // counterpart relies on.
            _ => return Err(BatchDeltaBail::OneSidedReplace),
        }
    }
    // Mirrored, so either sign's set is the relation's.
    let replaced = &replaced[0];

    // The gate and the listing: a `+=` statement that reads a run-written
    // atom fires live, and what it reads of the run's writes is a live map.
    let targets: BTreeSet<&str> = rel_triggers
        .iter()
        .flat_map(|(_, t)| t.statements.iter().map(|s| s.target.as_str()))
        .collect();
    let mut live = Vec::new();
    let mut live_maps = BTreeSet::new();
    for &(ti, t) in &rel_triggers {
        for (si, s) in t.increments().iter().enumerate() {
            if let Some(read) = s
                .reads()
                .into_iter()
                .find(|r| replaced.contains(r.as_str()))
            {
                return Err(BatchDeltaBail::ReadsReplaceTarget {
                    target: s.target.clone(),
                    read,
                });
            }
            let run_reads: BTreeSet<String> = s
                .rhs
                .atoms()
                .into_iter()
                .filter(|a| match a.kind {
                    AtomKind::View => targets.contains(a.name.as_str()),
                    _ => a.name == relation,
                })
                .map(|a| a.name)
                .collect();
            if !run_reads.is_empty() {
                live_maps.extend(run_reads);
                live.push((ti, si));
            }
        }
    }
    let tail = insert.map_or(0, |i| {
        let t = &triggers[i];
        t.statements.len() - t.increments().len()
    });
    let kernels = rel_triggers
        .iter()
        .flat_map(|&(ti, t)| kernel_units(ti, t, &live))
        .collect();
    Ok(RelationPlan {
        relation: relation.to_string(),
        insert,
        delete,
        live,
        live_maps: live_maps.into_iter().collect(),
        tail,
        kernels,
        shared: Vec::new(),
    })
}

/// The kernel units of trigger `ti` (see the module docs): its `+=`
/// statements taken in statement order, each that does not fire live joining
/// the first unit whose first member has its key and loop variables and its
/// frame ([`CompiledStmt::frame_shape`]), every other one a unit of its own.
/// No member reads another's target: a statement that reads any target of
/// its relation's triggers fires live.
fn kernel_units(ti: usize, t: &Trigger, live: &[(usize, usize)]) -> Vec<KernelUnit> {
    let stmts = t.increments();
    let keyed = |j: usize| (&stmts[j].key_vars, &stmts[j].loop_vars);
    // Only a statement that shares its key with another can have a sibling:
    // the rest are not rendered.
    let shapes: Vec<Option<String>> = (0..stmts.len())
        .map(|j| {
            let shared = (0..stmts.len()).any(|m| m != j && keyed(m) == keyed(j));
            let fuses = shared && !live.contains(&(ti, j));
            fuses.then(|| stmts[j].kernel.frame_shape()).flatten()
        })
        .collect();
    let mut units: Vec<Vec<usize>> = Vec::new();
    for j in 0..stmts.len() {
        let joins = |g: &&mut Vec<usize>| {
            shapes[j].is_some() && (keyed(g[0]), &shapes[g[0]]) == (keyed(j), &shapes[j])
        };
        match units.iter_mut().find(joins) {
            Some(g) => g.push(j),
            None => units.push(vec![j]),
        }
    }
    units
        .into_iter()
        .map(|members| {
            let kernel = match members[..] {
                [j] => stmts[j].kernel.clone(),
                _ => {
                    let kernels: Vec<&CompiledStmt> =
                        members.iter().map(|&j| &stmts[j].kernel).collect();
                    CompiledStmt::fuse(&kernels).expect("statements of one frame fuse")
                }
            };
            KernelUnit {
                trigger: ti,
                members,
                kernel,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::RelationPlan;
    use crate::compile::compile;
    use crate::program::StmtOp::{Increment, Replace};
    use crate::program::{
        BatchDeltaBail, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta, Statement,
        StmtOp, Trigger, TriggerProgram,
    };
    use dbtoaster_agca::{CmpOp, Expr, UpdateSign};

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

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

    fn linear() -> QuerySpec {
        QuerySpec {
            name: "TOTAL".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("S", ["b", "c"]),
                    Expr::var("c"),
                ]),
            ),
        }
    }

    /// The plan of `relation` in a compiled program.
    fn plan_of(program: &TriggerProgram, relation: &str) -> RelationPlan {
        let plans = program.relation_plans().expect("compiled programs derive");
        let plan = plans.into_iter().find(|p| p.relation == relation);
        plan.unwrap_or_else(|| panic!("{relation} has no plan"))
    }

    #[test]
    fn quadratic_query_gets_a_live_pass() {
        for mode in [CompileMode::HigherOrder, CompileMode::FirstOrder] {
            let program = compile(&[selfj()], &catalog(), &CompileOptions::for_mode(mode)).unwrap();
            let lp = plan_of(&program, "R");
            assert!(
                !lp.live.is_empty(),
                "{mode}: the self-join statement reads what its own run writes"
            );
            for &(ti, si) in &lp.live {
                let t = &program.triggers[ti];
                let full = &t.statements[si];
                assert_eq!(t.relation, "R");
                // Listed because it reads something the run writes, and every
                // such map is a live map.
                let written =
                    |name: &str| t.statements.iter().any(|w| w.target == name) || name == "R";
                let reads: Vec<String> = full.rhs.atoms().into_iter().map(|a| a.name).collect();
                assert!(reads.iter().any(|r| written(r)), "{mode}: {full}");
                for r in &reads {
                    assert_eq!(written(r), lp.live_maps.contains(r), "{mode}: {r}");
                }
            }
            // Higher-order reads the auxiliary map; first-order IVM reads the
            // stored slice of R itself.
            assert_eq!(
                lp.live_maps.contains(&"R".to_string()),
                mode == CompileMode::FirstOrder,
                "{mode}: {:?}",
                lp.live_maps
            );
        }
    }

    fn stmt(target: &str, key: &[&str], op: StmtOp, rhs: Expr) -> Statement {
        let key_vars = key.iter().map(|k| k.to_string()).collect();
        Statement::new(
            &["a".into(), "b".into()],
            target.into(),
            key_vars,
            vec![],
            op,
            rhs,
        )
        .unwrap()
    }

    fn trigger(sign: UpdateSign, statements: Vec<Statement>) -> Trigger {
        Trigger {
            relation: "R".into(),
            sign,
            trigger_vars: vec!["a".into(), "b".into()],
            statements,
        }
    }

    /// `R`'s derivation: its plan, or the condition that bailed.
    fn derive(triggers: &[Trigger]) -> Result<RelationPlan, BatchDeltaBail> {
        let program = TriggerProgram {
            triggers: triggers.to_vec(),
            ..TriggerProgram::default()
        };
        match program.relation_plans() {
            Ok(mut plans) => {
                assert_eq!(plans.len(), 1);
                Ok(plans.remove(0))
            }
            Err((relation, bail)) => {
                assert_eq!(relation, "R");
                Err(bail)
            }
        }
    }

    /// The first condition that bails for `R` (`None` = derived).
    fn bail_of(triggers: &[Trigger]) -> Option<BatchDeltaBail> {
        derive(triggers).err()
    }

    #[test]
    fn live_pass_lists_every_statement_that_reads_run_written_state() {
        // M is written by R's trigger, N is not. Every shape that reads M —
        // two M atoms in one product, M under a lift, a comparison or EXISTS,
        // M read after (or by) its own write — is listed, not bailed; the
        // same shapes over N alone are not listed.
        let sum = |v: &str| Expr::agg_sum(Vec::<String>::new(), Expr::view(v, ["a"]));
        let shapes = |v: &str| {
            vec![
                Expr::product_of([Expr::view(v, ["a"]), Expr::view(v, ["b"])]),
                Expr::product_of([Expr::lift("z", sum(v)), Expr::var("z")]),
                Expr::cmp(CmpOp::Lt, Expr::var("b"), sum(v)),
                Expr::exists(Expr::view(v, ["a"])),
            ]
        };
        let mut statements = vec![stmt("M", &["a"], Increment, Expr::one())];
        for (i, rhs) in shapes("M").into_iter().chain(shapes("N")).enumerate() {
            statements.push(stmt(&format!("Q{i}"), &[], Increment, rhs));
        }
        // Reads its own target.
        statements.push(stmt("M", &["a"], Increment, Expr::view("M", ["a"])));
        let lp = derive(&[trigger(UpdateSign::Insert, statements)]).expect("R derives");
        let listed: Vec<usize> = lp.live.iter().map(|&(_, j)| j).collect();
        assert_eq!(listed, [1, 2, 3, 4, 9]);
        assert_eq!(lp.live_maps, ["M"]);
    }

    #[test]
    fn reads_of_a_replace_target_bail_with_their_own_reason() {
        // M += Q is affine as written, but Q is rewritten once per run, not
        // added to per firing.
        let inc = || stmt("M", &["a"], Increment, count_of("Q"));
        let rep = || stmt("Q", &[], Replace, count_of("M"));
        let bail = bail_of(&[
            trigger(UpdateSign::Insert, vec![inc(), rep()]),
            trigger(UpdateSign::Delete, vec![inc(), rep()]),
        ])
        .expect("R must bail");
        assert_eq!(
            bail,
            BatchDeltaBail::ReadsReplaceTarget {
                target: "M".into(),
                read: "Q".into()
            }
        );
        assert_eq!(
            bail.describe(),
            "the statement for `M` reads `Q`, which a replace (`:=`) statement rewrites once per run"
        );
    }

    #[test]
    fn replace_statements_must_form_a_mirrored_tail() {
        let inc = || stmt("M", &["a"], Increment, Expr::one());
        let rep = |target: &str| stmt(target, &[], Replace, count_of("M"));
        let both = |ins: Vec<Statement>, del: Vec<Statement>| {
            [
                trigger(UpdateSign::Insert, ins),
                trigger(UpdateSign::Delete, del),
            ]
        };
        // Increments, then the same `:=` targets under both signs: derived,
        // a tail of one, and the tail contributes nothing to the live pass.
        let plan = derive(&both(vec![inc(), rep("Q")], vec![inc(), rep("Q")]));
        let plan = plan.expect("a mirrored tail derives");
        assert_eq!((plan.insert, plan.delete, plan.tail), (Some(0), Some(1), 1));
        assert!(plan.live.is_empty());
        // Replace-only triggers (re-evaluation mode) are the degenerate case.
        assert_eq!(bail_of(&both(vec![rep("Q")], vec![rep("Q")])), None);
        assert_eq!(
            bail_of(&both(vec![rep("Q"), inc()], vec![inc(), rep("Q")])),
            Some(BatchDeltaBail::IncrementAfterReplace { target: "M".into() })
        );
        assert_eq!(
            bail_of(&both(vec![inc(), rep("Q")], vec![inc(), rep("P")])),
            Some(BatchDeltaBail::UnmirroredReplace)
        );
        assert_eq!(
            bail_of(&both(vec![inc(), rep("Q")], vec![inc()])),
            Some(BatchDeltaBail::UnmirroredReplace)
        );
        assert_eq!(
            bail_of(&[trigger(UpdateSign::Insert, vec![inc(), rep("Q")])]),
            Some(BatchDeltaBail::OneSidedReplace)
        );
    }

    #[test]
    fn siblings_fuse_unless_one_reads_another_ones_target() {
        // `M[a] += X[a] * b` and `N[a] += X[a]` walk the same probe of `X`
        // under the same key and differ in their value: one group per
        // trigger, which runs one kernel.
        let pair = |x: &str| {
            let probe = || Expr::view(x, ["a"]);
            vec![
                stmt(
                    "M",
                    &["a"],
                    Increment,
                    Expr::product_of([probe(), Expr::var("b")]),
                ),
                stmt("N", &["a"], Increment, probe()),
            ]
        };
        let both = |x: &str| {
            derive(&[
                trigger(UpdateSign::Insert, pair(x)),
                trigger(UpdateSign::Delete, pair(x)),
            ])
            .expect("R derives")
        };
        let units = |plan: &RelationPlan| -> Vec<(usize, Vec<usize>)> {
            let units = plan.kernels.iter();
            units.map(|u| (u.trigger, u.members.clone())).collect()
        };
        let plan = both("P");
        assert_eq!(units(&plan), [(0, vec![0, 1]), (1, vec![0, 1])]);
        assert!(plan.live.is_empty());
        // With `X = N` each reads the second one's target, which their run
        // writes: both fire live, entry by entry, so nothing fuses: each is
        // a unit of one that runs its own kernel.
        let plan = both("N");
        let alone = [(0, vec![0]), (0, vec![1]), (1, vec![0]), (1, vec![1])];
        assert_eq!(units(&plan), alone);
        assert_eq!(plan.live, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        for u in &plan.kernels {
            let own = &pair("N")[u.members[0]].kernel;
            assert_eq!(&u.kernel, own);
        }
    }

    fn count_of(view: &str) -> Expr {
        Expr::agg_sum(Vec::<String>::new(), Expr::view(view, Vec::<String>::new()))
    }

    #[test]
    fn linear_query_derives_an_empty_live_pass() {
        let program = compile(
            &[linear()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        for rel in ["R", "S"] {
            let lp = plan_of(&program, rel);
            assert!(
                lp.live.is_empty() && lp.live_maps.is_empty(),
                "{rel}: linear maps read nothing their own run writes: {:?}",
                lp.live
            );
        }
    }

    #[test]
    fn reevaluation_mode_derives_an_empty_increment_phase_plus_the_tail() {
        let program = compile(
            &[linear()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::Reevaluate),
        )
        .unwrap();
        for lp in program.relation_plans().unwrap() {
            assert!(lp.live.is_empty() && lp.live_maps.is_empty());
            let t = &program.triggers[lp.insert.unwrap()];
            assert!(t.increments().is_empty() && !t.statements.is_empty());
            assert_eq!(lp.tail, t.statements.len());
        }
    }
}
