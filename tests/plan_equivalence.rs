//! Differential tests for compiled trigger kernels.
//!
//! The engine runs nothing but compiled kernels (`dbtoaster_agca::plan`).
//! The semantic ground truth is the AST evaluator, outside the engine: every
//! maintained map — not just the query result, because any divergence in an
//! auxiliary view eventually surfaces in a result — must equal its own
//! definition re-evaluated over the final base relations (the shared
//! [`common::Recompute`] oracle).
//!
//! Three layers:
//!
//! * every bundled workload query, in all four compile modes, processed
//!   event by event and in delta batches of 64 — where every relation must
//!   run batch-delta, none entry-major. Workload data contains non-dyadic
//!   doubles (TPC-H cent prices), so sums may differ in the last ulp between
//!   summation orders; maps are compared with a tight *relative* tolerance
//!   (1e-9, about seven orders of magnitude above ulp noise and seven below
//!   any real divergence).
//! * proptest-generated random programs (joins, group-bys, comparisons,
//!   lifts, nested aggregates, negation) over integer-valued streams, where
//!   f64 arithmetic is exact in any order — compared **bit-exact** (eps 0.0),
//!   event by event and over a random partition into batches.
//! * self-join chains keyed by trigger variables, in every compile mode.

mod common;

use common::Recompute;
use dbtoaster::agca::AtomKind;
use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Family};

// ---------------------------------------------------------------- workloads

fn dataset_for(family: Family, events: usize) -> workloads::Dataset {
    match family {
        Family::Tpch => {
            let mut d = workloads::tpch::generate(&workloads::TpchConfig {
                scale: 0.002,
                seed: 11,
                orders_working_set: 40,
                lineitem_working_set: 160,
            });
            d.truncate(events);
            d
        }
        Family::Finance => workloads::finance::generate(&workloads::FinanceConfig {
            events,
            seed: 11,
            brokers: 5,
            delete_probability: 0.25,
        }),
        Family::Scientific => {
            let mut d = workloads::mddb::generate(&workloads::MddbConfig {
                atoms: 12,
                steps: 20,
                seed: 11,
            });
            d.truncate(events);
            d
        }
    }
}

/// One engine maintaining every query of `qs` (which share a family, hence a
/// dataset), its static tables loaded, before any event.
fn new_engine(
    qs: &[workloads::WorkloadQuery],
    mode: CompileMode,
    data: &workloads::Dataset,
) -> QueryEngine {
    let names: Vec<&str> = qs.iter().map(|q| q.name).collect();
    let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
    for q in qs {
        builder = builder.add_query(q.name, q.sql);
    }
    let mut engine = builder
        .build()
        .unwrap_or_else(|e| panic!("{names:?} [{mode}]: build failed: {e}"));
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone()).unwrap();
    }
    engine.init().unwrap();
    engine
}

const ALL_MODES: [CompileMode; 4] = [
    CompileMode::HigherOrder,
    CompileMode::FirstOrder,
    CompileMode::NaiveViewlet,
    CompileMode::Reevaluate,
];

fn check_workload(name: &str, events: usize) {
    check_program(&[name], events);
}

/// One engine maintaining all of `names`, in every compile mode, fed event by
/// event and in batches of 64: every maintained map must equal its recomputed
/// definition, and no batch run may take the entry-major path.
fn check_program(names: &[&str], events: usize) {
    let qs: Vec<workloads::WorkloadQuery> = names
        .iter()
        .map(|n| workloads::query(n).unwrap_or_else(|| panic!("unknown query {n}")))
        .collect();
    let data = dataset_for(qs[0].family, events);
    let catalog = dbtoaster::to_compiler_catalog(&workloads::full_catalog());
    let oracle = Recompute::new(&catalog, &data.tables, &data.events);
    for mode in ALL_MODES {
        let mut engine = new_engine(&qs, mode, &data);
        engine
            .process_all(&data.events)
            .unwrap_or_else(|e| panic!("{names:?} [{mode}]: processing failed: {e}"));
        oracle.check(
            &format!("{names:?} [{mode}]"),
            engine.program(),
            &|m| engine.view(m),
            1e-9,
        );

        let mut batched = new_engine(&qs, mode, &data);
        for chunk in data.events.chunks(64) {
            let report = batched.process_batch(&DeltaBatch::from_events(chunk));
            assert!(
                report.first_error.is_none(),
                "{names:?} [{mode}] batch 64: {:?}",
                report.first_error
            );
        }
        let stats = batched.stats();
        assert_eq!(stats.entry_major_runs, 0, "{names:?} [{mode}] batch 64");
        assert!(stats.batch_delta_runs > 0, "{names:?} [{mode}] batch 64");
        oracle.check(
            &format!("{names:?} [{mode}] batch 64"),
            batched.program(),
            &|m| batched.view(m),
            1e-9,
        );
    }
}

/// Every bundled query compiles in every mode. A trigger statement owns its
/// kernel by construction (one that does not lower rejects the program); a
/// static view — a map over tables only — must carry its init kernel.
#[test]
fn representative_queries_actually_compile() {
    for q in workloads::all_queries() {
        for mode in ALL_MODES {
            let engine = QueryEngineBuilder::new(workloads::full_catalog())
                .add_query(q.name, q.sql)
                .mode(mode)
                .build()
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            let program = engine.program();
            assert!(program.statement_count() > 0, "{} [{mode}]", q.name);
            for m in &program.maps {
                let is_static = !m.definition.contains_atom_kind(AtomKind::Stream);
                assert_eq!(
                    m.init.is_some(),
                    is_static,
                    "{} [{mode}] {}",
                    q.name,
                    m.name
                );
            }
        }
    }
}

// The per-query test names predate the oracle: "interpreted" is now every
// map's definition re-evaluated by the AST evaluator, outside the engine.

#[test]
fn q1_compiled_equals_interpreted() {
    check_workload("q1", 700);
}

#[test]
fn q3_compiled_equals_interpreted() {
    check_workload("q3", 700);
}

#[test]
fn q4_compiled_equals_interpreted() {
    check_workload("q4", 400);
}

#[test]
fn q5_compiled_equals_interpreted() {
    check_workload("q5", 500);
}

#[test]
fn q6_compiled_equals_interpreted() {
    check_workload("q6", 700);
}

#[test]
fn q10_compiled_equals_interpreted() {
    check_workload("q10", 600);
}

#[test]
fn q11a_compiled_equals_interpreted() {
    check_workload("q11a", 600);
}

#[test]
fn q12_compiled_equals_interpreted() {
    check_workload("q12", 600);
}

#[test]
fn q17a_compiled_equals_interpreted() {
    check_workload("q17a", 400);
}

#[test]
fn q18a_compiled_equals_interpreted() {
    check_workload("q18a", 400);
}

#[test]
fn q22a_compiled_equals_interpreted() {
    check_workload("q22a", 400);
}

#[test]
fn ssb4_compiled_equals_interpreted() {
    check_workload("ssb4", 500);
}

#[test]
fn vwap_compiled_equals_interpreted() {
    check_workload("vwap", 150);
}

#[test]
fn axf_compiled_equals_interpreted() {
    check_workload("axf", 500);
}

#[test]
fn bsp_compiled_equals_interpreted() {
    check_workload("bsp", 500);
}

/// The program the `book_join` benchmark serves: three queries sharing
/// `Bids` in one engine. The kernels answer `axf`'s and `bsp`'s range sums
/// from ordered indexes; the oracle sums plain relations.
#[test]
fn book_join_program_compiled_equals_interpreted() {
    check_program(&["axf", "bsp", "bsv"], 500);
}

#[test]
fn bsv_compiled_equals_interpreted() {
    check_workload("bsv", 500);
}

#[test]
fn mst_compiled_equals_interpreted() {
    check_workload("mst", 60);
}

#[test]
fn psp_compiled_equals_interpreted() {
    check_workload("psp", 250);
}

#[test]
fn mddb1_compiled_equals_interpreted() {
    check_workload("mddb1", 200);
}

// ------------------------------------------------- proptest random programs

mod random_programs {
    use super::common::Recompute;
    use dbtoaster::agca::{DeltaBatch, Expr, UpdateEvent};
    use dbtoaster::compiler::{
        compile, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta,
    };
    use dbtoaster::gmr::Value;
    use dbtoaster::runtime::Engine;
    use proptest::prelude::*;

    /// Small deterministic generator state derived from a proptest seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % bound
        }

        fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
            &xs[self.next(xs.len())]
        }
    }

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

    /// A random query over R(a,b) and S(b,c): a product of one or two atoms,
    /// optional comparison and weight factors, optionally a lifted nested
    /// aggregate with a filter, wrapped in a group-by over a random subset of
    /// the bound variables. Every generated query is a valid AGCA expression
    /// with all value uses bound.
    fn random_query(seed: u64) -> QuerySpec {
        let mut g = Gen(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1));
        let mut factors: Vec<Expr> = vec![Expr::rel("R", ["a", "b"])];
        let mut bound: Vec<&'static str> = vec!["a", "b"];
        if g.next(2) == 0 {
            factors.push(Expr::rel("S", ["b", "c"]));
            bound.push("c");
        }
        match g.next(4) {
            0 => {
                let l = *g.pick(&bound);
                let r = *g.pick(&bound);
                let op = *g.pick(&[
                    dbtoaster::agca::CmpOp::Lt,
                    dbtoaster::agca::CmpOp::Le,
                    dbtoaster::agca::CmpOp::Eq,
                    dbtoaster::agca::CmpOp::Ne,
                ]);
                factors.push(Expr::cmp(op, Expr::var(l), Expr::var(r)));
            }
            1 => {
                // Lifted nested aggregate correlated on b, plus a filter on it.
                let nested = Expr::agg_sum(
                    ["b"],
                    Expr::product_of([Expr::rel("S", ["b", "d"]), Expr::var("d")]),
                );
                factors.push(Expr::lift("z", nested));
                factors.push(Expr::cmp(
                    dbtoaster::agca::CmpOp::Lt,
                    Expr::var("a"),
                    Expr::var("z"),
                ));
            }
            2 => {
                // Scalar weight.
                factors.push(Expr::var(*g.pick(&bound)));
            }
            _ => {}
        }
        if g.next(4) == 0 {
            factors.push(Expr::neg(Expr::val(1)));
        }
        let candidates: Vec<&'static str> = bound
            .iter()
            .copied()
            .filter(|_| g.next(2) == 0)
            .take(2)
            .collect();
        let out_vars: Vec<String> = candidates.iter().map(|s| s.to_string()).collect();
        QuerySpec {
            name: "Q".into(),
            out_vars: out_vars.clone(),
            expr: Expr::agg_sum(out_vars, Expr::product_of(factors)),
        }
    }

    /// Random insert/delete stream over R and S with a small integer domain.
    fn stream(seed: u64, events: usize) -> Vec<UpdateEvent> {
        let mut g = Gen(seed.wrapping_add(77));
        let mut live: Vec<(&'static str, i64, i64)> = Vec::new();
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            if !live.is_empty() && g.next(4) == 0 {
                let (rel, x, y) = live.swap_remove(g.next(live.len()));
                out.push(UpdateEvent::delete(
                    rel,
                    vec![Value::long(x), Value::long(y)],
                ));
            } else {
                let rel = if g.next(2) == 0 { "R" } else { "S" };
                let x = g.next(6) as i64;
                let y = g.next(5) as i64;
                live.push((rel, x, y));
                out.push(UpdateEvent::insert(
                    rel,
                    vec![Value::long(x), Value::long(y)],
                ));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Compiled kernels reproduce every map's recomputed definition
        /// **bit-exactly** on random programs over integer data, in every
        /// compilation mode — event by event and over a random partition of
        /// the stream into batches of 1–40 events, none run entry-major.
        #[test]
        fn compiled_is_bit_exact_on_random_programs(seed in 0u32..1_000_000) {
            let seed = seed as u64;
            let q = random_query(seed);
            let events = stream(seed, 200);
            let mut g = Gen(seed ^ 0x5eed);
            let mut batches = Vec::new();
            let mut rest = &events[..];
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at((1 + g.next(40)).min(rest.len()));
                batches.push(DeltaBatch::from_events(batch));
                rest = tail;
            }
            let oracle = Recompute::new(&catalog(), &Default::default(), &events);
            for mode in [
                CompileMode::HigherOrder,
                CompileMode::FirstOrder,
                CompileMode::NaiveViewlet,
                CompileMode::Reevaluate,
            ] {
                let program = compile(
                    std::slice::from_ref(&q),
                    &catalog(),
                    &CompileOptions::for_mode(mode),
                )
                .unwrap_or_else(|e| panic!("seed {seed} [{mode}]: {e}"));

                let mut engine = Engine::new(program.clone(), &catalog());
                engine
                    .process_all(&events)
                    .unwrap_or_else(|e| panic!("seed {seed} [{mode}]: {e}"));
                oracle.check(
                    &format!("seed {seed} [{mode}] {}", q.expr),
                    engine.program(),
                    &|m| engine.view(m),
                    0.0,
                );

                let mut batched = Engine::new(program, &catalog());
                for b in &batches {
                    let report = batched.process_batch(b);
                    prop_assert!(report.first_error.is_none(), "{:?}", report.first_error);
                }
                prop_assert_eq!(batched.stats().entry_major_runs, 0);
                oracle.check(
                    &format!("seed {seed} [{mode}] batched {}", q.expr),
                    batched.program(),
                    &|m| batched.view(m),
                    0.0,
                );
            }
        }
    }
}

// -------------------------------------- trigger-variable capture regression

/// Self-join chains whose auxiliary maps are keyed by *trigger variables*
/// (`R@0`-style columns of the firing tuple). Before `MapRegistry::register`
/// alpha-renamed those columns per map, two different chains could land on the
/// same map name with clashing schemas: the cubic R×R×R query panicked at
/// compile time ("cannot union schemas") and the R·S·R path join compiled but
/// silently diverged from ground truth on mixed insert/delete streams. Both
/// are pinned here against the definition-recompute oracle, on every map,
/// across every compile mode.
mod trigger_variable_capture {
    use super::common::Recompute;
    use dbtoaster::agca::{Expr, UpdateEvent};
    use dbtoaster::compiler::{
        compile, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta,
    };
    use dbtoaster::gmr::Value;
    use dbtoaster::runtime::Engine;

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

    fn cubic() -> QuerySpec {
        QuerySpec {
            name: "CUBIC".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("R", ["b", "c"]),
                    Expr::rel("R", ["c", "d"]),
                ]),
            ),
        }
    }

    fn path() -> QuerySpec {
        QuerySpec {
            name: "PATH".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("S", ["b", "c"]),
                    Expr::rel("R", ["c", "d"]),
                ]),
            ),
        }
    }

    /// Mixed insert/delete stream over tiny integer domains (0..4), so chain
    /// joins hit many matches and deletions retract non-trivial state.
    fn stream(seed: u64, len: usize) -> Vec<UpdateEvent> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut live_r: Vec<Vec<Value>> = Vec::new();
        let mut live_s: Vec<Vec<Value>> = Vec::new();
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let relation_r = next(2) == 0;
            let (live, rel) = if relation_r {
                (&mut live_r, "R")
            } else {
                (&mut live_s, "S")
            };
            let delete = !live.is_empty() && next(100) < 35;
            if delete {
                let i = next(live.len() as u64) as usize;
                let tuple = live.swap_remove(i);
                out.push(UpdateEvent::delete(rel, tuple));
            } else {
                let tuple: Vec<Value> = (0..2).map(|_| Value::long(next(4) as i64)).collect();
                live.push(tuple.clone());
                out.push(UpdateEvent::insert(rel, tuple));
            }
        }
        out
    }

    fn check_against_oracle(q: &QuerySpec, seed: u64, len: usize) {
        let events = stream(seed, len);
        let oracle = Recompute::new(&catalog(), &Default::default(), &events);
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let program = compile(
                std::slice::from_ref(q),
                &catalog(),
                &CompileOptions::for_mode(mode),
            )
            .unwrap_or_else(|e| panic!("compile {} [{mode}]: {e}", q.name));
            let mut engine = Engine::new(program, &catalog());
            engine
                .process_all(&events)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            oracle.check(
                &format!("{} [{mode}]", q.name),
                engine.program(),
                &|m| engine.view(m),
                0.0,
            );
        }
    }

    #[test]
    fn cubic_self_join_matches_recompute_oracle() {
        // Pre-fix: compile panicked in HigherOrder mode before any event ran.
        check_against_oracle(&cubic(), 7, 60);
        check_against_oracle(&cubic(), 19, 60);
    }

    #[test]
    fn path_join_matches_recompute_oracle() {
        // Pre-fix: compiled fine but drifted from ground truth per event.
        check_against_oracle(&path(), 3, 80);
        check_against_oracle(&path(), 23, 80);
    }
}
