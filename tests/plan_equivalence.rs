//! Compiled kernels against the definition-recompute oracle: every maintained
//! map, not just the query result, must equal its definition re-evaluated by
//! the AST evaluator, outside the engine, over the final base relations.
//!
//! Each bundled query runs through the shared driver (`common`) over its
//! workload dataset at seed 11, at seeded points of the execution lattice,
//! within 1e-9 relative (the data holds non-dyadic doubles). The sweep runs a
//! seeded slice of generated programs over integer data, bit-exact, every
//! axis at random; the coverage guard pins what the slice reaches.

#[macro_use]
mod common;

use common::{Case, Partition, Shape, Source};
use dbtoaster::agca::{AtomKind, CmpOp, Expr};
use dbtoaster::prelude::*;
use dbtoaster::workloads;

/// `strategy_equivalence` runs the same queries over the datasets at seed 7.
const SEED: u64 = 11;

const ALL_MODES: [CompileMode; 4] = common::MODES;

/// Every bundled query compiles in every mode. A trigger statement owns its
/// kernel by construction (one that does not lower rejects the program); a
/// static view — a map over tables only — must carry its init kernel. And
/// the tier-1 slice — every file's sweeps — reaches every class, shape and
/// lattice axis (see `common::assert_census`).
#[test]
fn representative_queries_actually_compile() {
    for q in workloads::all_queries() {
        for mode in ALL_MODES {
            let program = common::workload_program(&[q.name], mode);
            assert!(program.statement_count() > 0, "{} [{mode}]", q.name);
            for m in &program.maps {
                let is_static = !m.definition.contains_atom_kind(AtomKind::Stream);
                let ctx = format!("{} [{mode}] {}", q.name, m.name);
                assert_eq!(m.init.is_some(), is_static, "{ctx}");
            }
        }
    }
    common::assert_census();
}

// The per-query test names predate the oracle: "interpreted" is now every
// map's definition re-evaluated by the AST evaluator, outside the engine.
workload_tests! {
    q1_compiled_equals_interpreted: ["q1"], 700, ALL_MODES;
    q3_compiled_equals_interpreted: ["q3"], 700, ALL_MODES;
    q4_compiled_equals_interpreted: ["q4"], 400, ALL_MODES;
    q5_compiled_equals_interpreted: ["q5"], 500, ALL_MODES;
    q6_compiled_equals_interpreted: ["q6"], 700, ALL_MODES;
    q10_compiled_equals_interpreted: ["q10"], 600, ALL_MODES;
    q11a_compiled_equals_interpreted: ["q11a"], 600, ALL_MODES;
    q12_compiled_equals_interpreted: ["q12"], 600, ALL_MODES;
    q17a_compiled_equals_interpreted: ["q17a"], 400, ALL_MODES;
    q18a_compiled_equals_interpreted: ["q18a"], 400, ALL_MODES;
    q22a_compiled_equals_interpreted: ["q22a"], 400, ALL_MODES;
    ssb4_compiled_equals_interpreted: ["ssb4"], 500, ALL_MODES;
    vwap_compiled_equals_interpreted: ["vwap"], 150, ALL_MODES;
    axf_compiled_equals_interpreted: ["axf"], 500, ALL_MODES;
    bsp_compiled_equals_interpreted: ["bsp"], 500, ALL_MODES;
    /// The program the `book_join` benchmark serves: three queries sharing
    /// `Bids` in one engine. The kernels answer `axf`'s and `bsp`'s range
    /// sums from ordered indexes; the oracle sums plain relations.
    book_join_program_compiled_equals_interpreted: ["axf", "bsp", "bsv"], 500, ALL_MODES;
    bsv_compiled_equals_interpreted: ["bsv"], 500, ALL_MODES;
    mst_compiled_equals_interpreted: ["mst"], 60, ALL_MODES;
    psp_compiled_equals_interpreted: ["psp"], 250, ALL_MODES;
    mddb1_compiled_equals_interpreted: ["mddb1"], 200, ALL_MODES;
}

mod random_programs {
    /// The seeded slice of generated programs, every lattice axis at random.
    #[test]
    fn compiled_is_bit_exact_on_random_programs() {
        super::common::run_slice(super::common::Lean::Any);
    }

    /// Twenty times the tier-1 slice's cases, on seeds past all of them:
    /// `cargo test --release --test plan_equivalence -- --ignored`.
    #[test]
    #[ignore]
    fn soak_twenty_times_the_slice() {
        super::common::soak();
    }
}

/// Self-join chains whose auxiliary maps are keyed by *trigger variables*
/// (`R@0`-style columns of the firing tuple). Before `MapRegistry::register`
/// alpha-renamed those columns per map, two chains could land on one map name
/// with clashing schemas: the cubic R×R×R query panicked at compile time
/// ("cannot union schemas") and the R·S·R path join compiled but diverged
/// from ground truth on mixed insert/delete streams.
mod trigger_variable_capture {
    use super::common::{self, Partition, Shape};

    #[test]
    fn cubic_self_join_matches_recompute_oracle() {
        for seed in [7, 19] {
            let case = common::shaped(&[Shape::CubicChain], seed, 60);
            common::check(&case, &common::in_all_modes(Partition::PerEvent));
        }
    }

    #[test]
    fn path_join_matches_recompute_oracle() {
        for seed in [3, 23] {
            let case = common::shaped(&[Shape::PathChain], seed, 80);
            common::check(&case, &common::in_all_modes(Partition::PerEvent));
        }
    }
}

// ------------------------------------------------------------- open findings

/// Open: an inequality self-join with a lift correlated on the join's other
/// side does not compile in higher-order and first-order mode. The delta
/// places `z := m(a2)` ahead of the factor that binds `a2`, and lowering
/// rejects the statement ("unbound columns in scalar position"). The
/// generator leaves correlated lifts off inequality joins until this passes.
#[test]
#[ignore]
fn inequality_join_with_a_correlated_lift_compiles() {
    let (a, a2) = (Expr::var("a"), Expr::var("a2"));
    let s = Expr::product_of([Expr::rel("S", ["a2", "nc"]), Expr::var("nc")]);
    let lift = Expr::lift("z", Expr::agg_sum(["a2"], s));
    let (r1, r2) = (Expr::rel("R", ["a", "b"]), Expr::rel("R", ["a2", "b2"]));
    let below = |x: &Expr, y: Expr| Expr::cmp(CmpOp::Lt, x.clone(), y);
    let q = common::scalar_query(vec![r1, r2, below(&a, a2), lift, below(&a, Expr::var("z"))]);
    let case = Case::new(Source::Queries(vec![q]), common::small_stream(1, 60));
    common::check(&case, &common::in_all_modes(Partition::Geometric(1)));
}

/// `Long(2^53 + 1)` and `Double(2^53)` are equal values but not the same
/// one: the first passes `B > 2^53` and the second does not, and `B + 1`
/// is `2^53 + 2` for the first and rounds back to `2^53` for the second. A
/// stream alternating the two in `R`'s summed column must end where
/// recomputation does, bit for bit, in every mode. The statements of an
/// event skip a trigger slot that already holds the event's value; a skip
/// that asked `==` instead of `Value::is_same` would keep the previous
/// event's value and fail both queries here.
#[test]
fn equal_but_distinct_numbers_refill_their_trigger_slots() {
    use dbtoaster::agca::UpdateEvent;
    let big = 1i64 << 53;
    let row = |i: i64| {
        let b = match i % 2 {
            0 => Value::long(big + 1),
            _ => Value::double(big as f64),
        };
        // A distinct `a` per row: `R` as a relation holds both values apart.
        vec![Value::long(i), b]
    };
    let mut events: Vec<UpdateEvent> = (0..12).map(|i| UpdateEvent::insert("R", row(i))).collect();
    events.push(UpdateEvent::delete("R", row(4)));
    events.push(UpdateEvent::delete("R", row(7)));
    let (r, b) = (Expr::rel("R", ["a", "b"]), Expr::var("b"));
    let above = Expr::cmp(CmpOp::Gt, b.clone(), Expr::val(big));
    let count = common::scalar_query(vec![r.clone(), above]);
    let lifted = Expr::lift("x", Expr::sum_of([b, Expr::val(1i64)]));
    let mut sum = common::scalar_query(vec![r, lifted, Expr::var("x")]);
    sum.name = "Q2".into();
    let case = Case::new(Source::Queries(vec![count, sum]), events);
    common::check(&case, &common::in_all_modes(Partition::PerEvent));
}

/// `Value` equates −0.0 with 0.0 and hashes them alike, so a map key holds
/// whichever arrived first and a comparison on it answers for both: in the
/// generator's `Nested` shape, `R(0, −0.0)` and `R(1, 0)` share the key `b`.
/// When `Value` ordered −0.0 below 0.0, higher-order and naive-viewlet
/// maintenance counted both as `b < z` (2) once `z` was 0, where
/// re-evaluation counted one (1). The order now agrees with equality, and
/// the generator puts −0.0 in compared columns too.
#[test]
fn negative_zero_keys_compare_as_the_zero_they_equal() {
    use dbtoaster::agca::UpdateEvent;
    let s = |c: f64| vec![Value::long(1), c.into()];
    let r = |a, b: f64| vec![Value::long(a), b.into()];
    let (r0, r1) = (
        UpdateEvent::insert("R", r(0, -0.0)),
        UpdateEvent::insert("R", r(1, 0.0)),
    );
    let s = [
        UpdateEvent::insert("S", s(0.5)),
        UpdateEvent::delete("S", s(0.5)),
    ];
    let events = vec![s[0].clone(), r0, r1, s[1].clone()];
    let case = Case::new(Source::Queries(vec![Shape::Nested.query()]), events);
    common::check(&case, &common::in_all_modes(Partition::PerEvent));
}
