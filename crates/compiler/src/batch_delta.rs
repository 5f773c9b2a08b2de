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
//! its writes are buffered. The statements that do read one — the relation's
//! [`LivePass`] — are evaluated firing by firing, in entry order, and the
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
//! both signs. [`derive_live_passes`] returns the condition that bailed, and
//! `compile` refuses the program with it
//! ([`CompileError::Underivable`](crate::CompileError::Underivable)); the
//! engine refuses a hand-assembled program whose triggered relation has no
//! live pass.
//!
//! ## Runs of one firing
//!
//! A run of one firing — the batch of one event — has nothing to interact
//! with: no live pass, every `+=` evaluated against the state before the
//! firing and applied in statement order, the base update, then the
//! firing's `:=` statements — per-event processing, which is
//! `Engine::process`. No firing fails: the engine's ingest gate refuses an
//! ill-typed event before any run forms.

use crate::program::{BatchDeltaBail, LivePass, LiveStmt, StmtOp, Trigger};
use dbtoaster_agca::AtomKind;
use std::collections::BTreeSet;

/// Derive the per-relation live passes of a trigger program (see the module
/// docs): one [`LivePass`] per relation a trigger reads, in first-appearance
/// order — with no statements when nothing the relation's triggers read is
/// run-written — or the first relation whose derivation bails, and the
/// condition that bailed.
pub fn derive_live_passes(triggers: &[Trigger]) -> Result<Vec<LivePass>, (String, BatchDeltaBail)> {
    let mut relations: Vec<&str> = Vec::new();
    for t in triggers {
        if !relations.contains(&t.relation.as_str()) {
            relations.push(&t.relation);
        }
    }
    let derive = |rel: &str| derive_relation(rel, triggers).map_err(|bail| (rel.to_string(), bail));
    relations.into_iter().map(derive).collect()
}

fn derive_relation(relation: &str, triggers: &[Trigger]) -> Result<LivePass, BatchDeltaBail> {
    let rel_triggers: Vec<(usize, &Trigger)> = triggers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.relation == relation)
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
    let mut statements = Vec::new();
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
                statements.push(LiveStmt {
                    trigger: ti,
                    stmt: si,
                });
            }
        }
    }
    Ok(LivePass {
        relation: relation.to_string(),
        statements,
        live_maps: live_maps.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use crate::compile::compile;
    use crate::program::StmtOp::{Increment, Replace};
    use crate::program::{
        BatchDeltaBail, Catalog, CompileMode, CompileOptions, LivePass, QuerySpec, RelationMeta,
        Statement, StmtOp, Trigger,
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

    #[test]
    fn quadratic_query_gets_a_live_pass() {
        for mode in [CompileMode::HigherOrder, CompileMode::FirstOrder] {
            let program = compile(&[selfj()], &catalog(), &CompileOptions::for_mode(mode)).unwrap();
            let lp = program.live_pass_for("R").expect("R derives");
            assert!(
                !lp.statements.is_empty(),
                "{mode}: the self-join statement reads what its own run writes"
            );
            for s in &lp.statements {
                let t = &program.triggers[s.trigger];
                let full = &t.statements[s.stmt];
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

    /// `R`'s derivation: its live pass, or the condition that bailed.
    fn derive(triggers: &[Trigger]) -> Result<LivePass, BatchDeltaBail> {
        match super::derive_live_passes(triggers) {
            Ok(mut passes) => {
                assert_eq!(passes.len(), 1);
                Ok(passes.remove(0))
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
        let listed: Vec<usize> = lp.statements.iter().map(|s| s.stmt).collect();
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
        // and the tail contributes nothing to the live pass.
        assert_eq!(
            bail_of(&both(vec![inc(), rep("Q")], vec![inc(), rep("Q")])),
            None
        );
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
            let lp = program.live_pass_for(rel).expect("linear derives");
            assert!(
                lp.statements.is_empty() && lp.live_maps.is_empty(),
                "{rel}: linear maps read nothing their own run writes: {:?}",
                lp.statements
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
        for d in program.batch_dispatch() {
            let lp = program.live_pass_for(&d.relation).unwrap();
            assert!(lp.statements.is_empty() && lp.live_maps.is_empty());
            let t = &program.triggers[d.insert.unwrap()];
            assert!(t.increments().is_empty() && !t.statements.is_empty());
        }
    }
}
