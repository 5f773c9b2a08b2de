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
//! it, and count `R`'s own stored slice among them. Split every right-hand
//! side by its degree in the run-written state (`split_by_degree`): the
//! product terms with no run-written atom are constant over the run, the
//! others are the statement's **run-linear part**. A statement whose
//! run-linear part is empty produces the same rows whenever in the run it is
//! evaluated, so it is evaluated for every entry back-to-back against the
//! pre-run store (loop-invariant prelude scans amortized over the run) and
//! its writes are buffered. The statements that have one — the relation's
//! [`RunLinear`] program — are evaluated firing by firing, in entry order,
//! and the run-written maps they read (the **live maps**) are written firing
//! by firing too: the firing's rows for every statement that targets one,
//! evaluated or already buffered, land before the next statement is
//! evaluated. What such a statement reads is therefore exactly what per-event
//! processing would have it read — one lookup into one structure, whatever
//! the index — and everything else about the run stays a batch.
//!
//! A statement's rows are the same as per event either way, so the results
//! are exact wherever the stream arithmetic is (integer weights and
//! aggregates below 2⁵³ reproduce per-event results bit for bit; float
//! aggregates to summation order, because buffered rows are applied statement
//! by statement, not event by event). Relations whose statements read no
//! run-written state — every linear query — have an empty program, and a run
//! of at most one firing has nothing to interact with: both skip the
//! firing-by-firing pass entirely.
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
//! ## Eligibility (per relation)
//!
//! Derivation succeeds — and [`BatchStrategy::BatchDelta`] is chosen — iff:
//!
//! 1. the `:=` statements form a mirrored tail: in each sign trigger every
//!    `+=` precedes every `:=`, and if any `:=` exists, both sign triggers
//!    exist and re-evaluate the same set of targets;
//! 2. the increment order realizes pre-event reads: no `+=` statement reads
//!    its own target or the target of an earlier statement in its trigger
//!    (this is the topological order the compiler aims for; a cycle falls
//!    back to an order whose per-event semantics a pre-state evaluation
//!    cannot reproduce);
//! 3. every `+=` statement is affine in the run-written state as written: no
//!    product term holds two run-written atoms, none holds one under a lift,
//!    comparison, `EXISTS` or scalar function, and none reads a `:=` target
//!    at all (it is rewritten once per run, not per firing).
//!
//! Gate 1 and the `:=` clause of gate 3 are what the execution needs: a
//! statement fired entry by entry against the maps themselves reads what it
//! reads per event, whatever its shape. The rest of gates 2 and 3 is
//! stricter than that and only keeps the dispatch of the bundled queries
//! where it is (ROADMAP item 3(b)).
//!
//! An underivable relation runs entry-major — per-event firing inside the
//! batch — and EXPLAIN prints the gate that bailed.
//!
//! [`BatchStrategy::BatchDelta`]: crate::program::BatchStrategy::BatchDelta

use crate::program::{
    BatchDeltaBail, BatchDeltaOutcome, RunLinear, RunLinearStmt, StmtOp, Trigger,
};
use dbtoaster_agca::{simplify, AtomKind, Expr, RelRef};
use std::collections::BTreeSet;

/// Derive the per-relation run-linear programs of a trigger program (see the
/// module docs): one [`RunLinear`] per eligible relation — with no statements
/// when nothing the relation's triggers read is run-written — plus, for every
/// relation, the outcome record (eligible, or the first gate that bailed; the
/// data behind EXPLAIN's strategy reasons).
pub fn derive_run_linear(triggers: &[Trigger]) -> (Vec<RunLinear>, Vec<BatchDeltaOutcome>) {
    let mut relations: Vec<&str> = Vec::new();
    for t in triggers {
        if !relations.contains(&t.relation.as_str()) {
            relations.push(&t.relation);
        }
    }
    let mut programs = Vec::new();
    let mut outcomes = Vec::new();
    for rel in relations {
        let bail = match derive_relation(rel, triggers) {
            Ok(p) => {
                programs.push(p);
                None
            }
            Err(bail) => Some(bail),
        };
        outcomes.push(BatchDeltaOutcome {
            relation: rel.to_string(),
            bail,
        });
    }
    (programs, outcomes)
}

fn derive_relation(relation: &str, triggers: &[Trigger]) -> Result<RunLinear, BatchDeltaBail> {
    let rel_triggers: Vec<(usize, &Trigger)> = triggers
        .iter()
        .enumerate()
        .filter(|(_, t)| t.relation == relation)
        .collect();
    // Gate 1: the `:=` statements are a tail, mirrored across the signs.
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
    // Gate 2: every increment's read of an in-trigger target precedes its write.
    for (_, t) in &rel_triggers {
        for (i, s) in t.increments().iter().enumerate() {
            let reads = s.reads();
            if let Some(w) = t.statements[..=i]
                .iter()
                .find(|w| reads.contains(&w.target))
            {
                return Err(BatchDeltaBail::ReadAfterWrite {
                    target: w.target.clone(),
                });
            }
        }
    }

    // Gate 3 and the derivation proper: split every increment's right-hand
    // side by its degree in the run-written state; a non-empty linear part
    // lists the statement.
    let targets: BTreeSet<&str> = rel_triggers
        .iter()
        .flat_map(|(_, t)| t.statements.iter().map(|s| s.target.as_str()))
        .collect();
    let run_written = |a: &RelRef| match a.kind {
        AtomKind::View => targets.contains(a.name.as_str()),
        _ => a.name == relation,
    };
    let mut statements = Vec::new();
    let mut live_maps = BTreeSet::new();
    for &(ti, t) in &rel_triggers {
        for (si, s) in t.increments().iter().enumerate() {
            // A `:=` target is run-written, but never additively: any read
            // of one is non-affine.
            let replaced_read = s
                .reads()
                .into_iter()
                .find(|r| replaced.contains(r.as_str()));
            let (_, lin) = match replaced_read {
                Some(read) => Err(read),
                None => split_by_degree(&s.rhs, &run_written),
            }
            .map_err(|read| BatchDeltaBail::NonAffineRunRead {
                target: s.target.clone(),
                read,
            })?;
            let lin = simplify(&lin);
            if lin.is_zero() {
                continue;
            }
            live_maps.extend(lin.atoms().into_iter().filter(&run_written).map(|a| a.name));
            statements.push(RunLinearStmt {
                trigger: ti,
                stmt: si,
            });
        }
    }
    Ok(RunLinear {
        relation: relation.to_string(),
        statements,
        live_maps: live_maps.into_iter().collect(),
    })
}

/// Split `e` by its degree in the run-written atoms: `e = constant + linear`,
/// where `constant` holds no run-written atom and every product term of
/// `linear` holds exactly one, in multiplicity position (reached only through
/// sums, products, negation and group-by summation — the operators linear in
/// a factor's multiplicity). `Err(name)` names the run-written atom that
/// makes `e` non-affine: the second one of a product term, or one under a
/// lift, comparison, `EXISTS` or scalar function.
fn split_by_degree(
    e: &Expr,
    run_written: &dyn Fn(&RelRef) -> bool,
) -> Result<(Expr, Expr), String> {
    match e {
        Expr::Const(_) | Expr::Var(_) => Ok((e.clone(), Expr::zero())),
        Expr::Rel(r) if run_written(r) => Ok((Expr::zero(), e.clone())),
        Expr::Rel(_) => Ok((e.clone(), Expr::zero())),
        Expr::Add(ts) => {
            let (mut cs, mut ls) = (Vec::new(), Vec::new());
            for t in ts {
                let (c, l) = split_by_degree(t, run_written)?;
                cs.push(c);
                ls.push(l);
            }
            Ok((Expr::Add(cs), Expr::Add(ls)))
        }
        Expr::Neg(inner) => {
            let (c, l) = split_by_degree(inner, run_written)?;
            Ok((Expr::neg(c), Expr::neg(l)))
        }
        Expr::AggSum(gb, inner) => {
            let (c, l) = split_by_degree(inner, run_written)?;
            Ok((
                Expr::AggSum(gb.clone(), Box::new(c)),
                Expr::AggSum(gb.clone(), Box::new(l)),
            ))
        }
        Expr::Mul(fs) => {
            // Π(cᵢ + lᵢ): the constant part is Πcᵢ, the linear part is
            // lₖ·Π_{i≠k} cᵢ for the one factor with a linear part; a second
            // such factor would make the product quadratic.
            let mut consts = Vec::with_capacity(fs.len());
            let mut linear: Option<(usize, Expr)> = None;
            for (i, f) in fs.iter().enumerate() {
                let (c, l) = split_by_degree(f, run_written)?;
                if !simplify(&l).is_zero() {
                    if linear.is_some() {
                        let second = run_written_atom(f, run_written);
                        return Err(second.expect("a linear part holds a run-written atom"));
                    }
                    linear = Some((i, l));
                }
                consts.push(c);
            }
            let lin = match linear {
                None => Expr::zero(),
                Some((k, l)) => {
                    let mut factors = consts.clone();
                    factors[k] = l;
                    Expr::Mul(factors)
                }
            };
            Ok((Expr::Mul(consts), lin))
        }
        Expr::Lift(..) | Expr::Cmp(..) | Expr::Exists(..) | Expr::Apply(..) => {
            match run_written_atom(e, run_written) {
                Some(name) => Err(name),
                None => Ok((e.clone(), Expr::zero())),
            }
        }
    }
}

/// The name of the first run-written atom anywhere in `e`.
fn run_written_atom(e: &Expr, run_written: &dyn Fn(&RelRef) -> bool) -> Option<String> {
    e.atoms()
        .into_iter()
        .find(|a| run_written(a))
        .map(|a| a.name)
}

#[cfg(test)]
mod tests {
    use crate::compile::compile;
    use crate::program::StmtOp::{Increment, Replace};
    use crate::program::{
        BatchDeltaBail, BatchStrategy, Catalog, CompileMode, CompileOptions, QuerySpec,
        RelationMeta, Statement, StmtOp, Trigger,
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
    fn quadratic_query_gets_a_run_linear_part_and_batch_delta_dispatch() {
        for mode in [CompileMode::HigherOrder, CompileMode::FirstOrder] {
            let program = compile(&[selfj()], &catalog(), &CompileOptions::for_mode(mode)).unwrap();
            let rl = program.run_linear_for("R").expect("R eligible");
            assert!(
                !rl.statements.is_empty(),
                "{mode}: the self-join statement reads what its own run writes"
            );
            for s in &rl.statements {
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
                    assert_eq!(written(r), rl.live_maps.contains(r), "{mode}: {r}");
                }
            }
            // Higher-order reads the auxiliary map; first-order IVM reads the
            // stored slice of R itself.
            assert_eq!(
                rl.live_maps.contains(&"R".to_string()),
                mode == CompileMode::FirstOrder,
                "{mode}: {:?}",
                rl.live_maps
            );
            let dispatch = program.batch_dispatch();
            let r = dispatch.iter().find(|d| d.relation == "R").unwrap();
            assert_eq!(r.strategy, BatchStrategy::BatchDelta);
        }
    }

    #[test]
    fn run_linear_part_keeps_exactly_the_terms_with_one_run_written_atom() {
        let written = |a: &dbtoaster_agca::RelRef| a.name == "M";
        // 2·Sum[](M(a)·(a > 3))·x  +  x·x  +  (−Sum[](N(a)))
        let m_term = Expr::product_of([
            Expr::val(2),
            Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::view("M", ["a"]),
                    Expr::cmp(CmpOp::Gt, Expr::var("a"), Expr::val(3)),
                ]),
            ),
            Expr::var("x"),
        ]);
        let rhs = Expr::sum_of([
            m_term.clone(),
            Expr::product_of([Expr::var("x"), Expr::var("x")]),
            Expr::neg(Expr::agg_sum(Vec::<String>::new(), Expr::view("N", ["a"]))),
        ]);
        let (_, lin) = super::split_by_degree(&rhs, &written).unwrap();
        assert_eq!(
            dbtoaster_agca::simplify(&lin),
            dbtoaster_agca::simplify(&m_term)
        );

        // Two run-written atoms in one term, or one under a lift, comparison
        // or EXISTS, is not affine.
        let sum_m = Expr::agg_sum(Vec::<String>::new(), Expr::view("M", ["a"]));
        for bad in [
            Expr::product_of([Expr::view("M", ["a"]), Expr::view("M", ["b"])]),
            Expr::product_of([Expr::lift("z", sum_m.clone()), Expr::var("z")]),
            Expr::cmp(CmpOp::Lt, Expr::var("x"), sum_m.clone()),
            Expr::exists(Expr::view("M", ["a"])),
        ] {
            assert_eq!(
                super::split_by_degree(&bad, &written),
                Err("M".to_string()),
                "{bad}"
            );
        }
        // ...while the same shapes over a map the run does not write are constant.
        let (c, l) =
            super::split_by_degree(&Expr::exists(Expr::view("N", ["a"])), &written).unwrap();
        assert!(dbtoaster_agca::simplify(&l).is_zero() && !c.is_zero());
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

    /// The first gate that bails for `R` (`None` = derived).
    fn bail_of(triggers: &[Trigger]) -> Option<BatchDeltaBail> {
        let (programs, outcomes) = super::derive_run_linear(triggers);
        assert_eq!(programs.len(), usize::from(outcomes[0].bail.is_none()));
        outcomes[0].bail.clone()
    }

    #[test]
    fn non_affine_read_of_run_written_state_bails_with_its_own_reason() {
        // Q += Exists(M(a)); M[a] += 1 — ordered for pre-event reads, nothing
        // cubic, but Q is not affine in M, which the same trigger writes.
        let bail = bail_of(&[trigger(
            UpdateSign::Insert,
            vec![
                stmt("Q", &[], Increment, Expr::exists(Expr::view("M", ["a"]))),
                stmt("M", &["a"], Increment, Expr::one()),
            ],
        )])
        .expect("R must bail");
        assert_eq!(
            bail,
            BatchDeltaBail::NonAffineRunRead {
                target: "Q".into(),
                read: "M".into()
            }
        );
        assert_eq!(
            bail.describe(),
            "the statement for `Q` is not affine in run-written `M`"
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
        // and the tail contributes nothing to the run-linear program.
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
        // An increment reading a `:=` target bails even where the read is
        // affine as written: the target is rewritten, not added to.
        let reads_q = || stmt("M", &["a"], Increment, count_of("Q"));
        assert_eq!(
            bail_of(&both(vec![reads_q(), rep("Q")], vec![reads_q(), rep("Q")])),
            Some(BatchDeltaBail::NonAffineRunRead {
                target: "M".into(),
                read: "Q".into()
            })
        );
    }

    fn count_of(view: &str) -> Expr {
        Expr::agg_sum(Vec::<String>::new(), Expr::view(view, Vec::<String>::new()))
    }

    #[test]
    fn linear_query_is_eligible_with_no_run_linear_part() {
        let program = compile(
            &[linear()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        for rel in ["R", "S"] {
            let rl = program.run_linear_for(rel).expect("linear is eligible");
            assert!(
                rl.statements.is_empty() && rl.live_maps.is_empty(),
                "{rel}: linear maps read nothing their own run writes: {:?}",
                rl.statements
            );
            let dispatch = program.batch_dispatch();
            let d = dispatch.iter().find(|d| d.relation == rel).unwrap();
            assert_eq!(d.strategy, BatchStrategy::BatchDelta);
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
            assert_eq!(d.strategy, BatchStrategy::BatchDelta, "{}", d.relation);
            let rl = program.run_linear_for(&d.relation).unwrap();
            assert!(rl.statements.is_empty() && rl.live_maps.is_empty());
            let t = &program.triggers[d.insert.unwrap()];
            assert!(t.increments().is_empty() && !t.statements.is_empty());
        }
    }
}
