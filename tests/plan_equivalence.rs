//! Differential tests for compiled trigger kernels.
//!
//! The AST interpreter is the semantic ground truth; the compiled
//! slot-addressed plan path (`dbtoaster_agca::plan`) must agree with it on
//! every maintained map — not just the query result — because any divergence
//! in an auxiliary view eventually surfaces in a result.
//!
//! Two layers:
//!
//! * every benchmark workload query runs twice (kernels on / interpreter
//!   forced) over the same stream, comparing all maintained maps. Workload
//!   data contains non-dyadic doubles (TPC-H cent prices), so sums may differ
//!   in the last ulp between summation orders; maps are compared with a tight
//!   *relative* tolerance (1e-9, about seven orders of magnitude above ulp
//!   noise and seven below any real divergence).
//! * proptest-generated random programs (joins, group-bys, comparisons,
//!   lifts, nested aggregates, negation) over integer-valued streams, where
//!   f64 arithmetic is exact in any order — compared **bit-exact** (eps 0.0).

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
/// dataset) over the same stream.
fn run_engine(
    qs: &[workloads::WorkloadQuery],
    mode: CompileMode,
    data: &workloads::Dataset,
    force_interpreter: bool,
) -> QueryEngine {
    let names: Vec<&str> = qs.iter().map(|q| q.name).collect();
    let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
    for q in qs {
        builder = builder.add_query(q.name, q.sql);
    }
    let mut engine = builder
        .build()
        .unwrap_or_else(|e| panic!("{names:?} [{mode}]: build failed: {e}"));
    engine.set_force_interpreter(force_interpreter);
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone()).unwrap();
    }
    engine.init().unwrap();
    engine
        .process_all(&data.events)
        .unwrap_or_else(|e| panic!("{names:?} [{mode}]: processing failed: {e}"));
    engine
}

/// Compare two GMRs key-by-key with a relative tolerance.
fn assert_maps_match(context: &str, map: &str, got: &Gmr, expected: &Gmr, rel_eps: f64) {
    let keys: Vec<_> = got
        .iter()
        .map(|(t, _)| t.clone())
        .chain(expected.iter().map(|(t, _)| t.clone()))
        .collect();
    for key in keys {
        let g = got.get(&key);
        let e = expected.get(&key);
        let scale = 1.0_f64.max(g.abs()).max(e.abs());
        assert!(
            (g - e).abs() <= rel_eps * scale,
            "{context}: map {map} diverges at key {key:?}: compiled {g} vs interpreted {e}"
        );
    }
}

fn check_workload(name: &str, events: usize, modes: &[CompileMode]) {
    check_program(&[name], events, modes);
}

/// Kernels on vs interpreter forced, for one engine maintaining all of
/// `names`: every maintained map must agree.
fn check_program(names: &[&str], events: usize, modes: &[CompileMode]) {
    let qs: Vec<workloads::WorkloadQuery> = names
        .iter()
        .map(|n| workloads::query(n).unwrap_or_else(|| panic!("unknown query {n}")))
        .collect();
    let data = dataset_for(qs[0].family, events);
    for &mode in modes {
        let compiled = run_engine(&qs, mode, &data, false);
        let interpreted = run_engine(&qs, mode, &data, true);
        assert_eq!(interpreted.stats().compiled_triggers, 0);
        let context = format!("{names:?} [{mode}]");
        for m in &compiled.program().maps {
            let got = compiled
                .view(&m.name)
                .unwrap_or_else(|| panic!("{context}: missing view {}", m.name));
            let expect = interpreted
                .view(&m.name)
                .unwrap_or_else(|| panic!("{context}: missing view {}", m.name));
            assert_maps_match(&context, &m.name, &got, &expect, 1e-9);
        }
    }
}

/// Higher-Order IVM must compile the hot path of these queries: if a future
/// lowering change silently regresses one of them to the interpreter, this
/// fails before the benchmark numbers do.
#[test]
fn representative_queries_actually_compile() {
    for name in ["q1", "q3", "q6", "q12", "axf", "bsv", "vwap"] {
        let q = workloads::query(name).unwrap();
        let data = dataset_for(q.family, 50);
        let engine = run_engine(
            std::slice::from_ref(&q),
            CompileMode::HigherOrder,
            &data,
            false,
        );
        assert!(
            engine.stats().compiled_triggers > 0,
            "{name}: no statement lowered to a compiled kernel"
        );
    }
}

#[test]
fn q1_compiled_equals_interpreted() {
    check_workload(
        "q1",
        700,
        &[CompileMode::HigherOrder, CompileMode::FirstOrder],
    );
}

#[test]
fn q3_compiled_equals_interpreted() {
    check_workload("q3", 700, &[CompileMode::HigherOrder]);
}

#[test]
fn q4_compiled_equals_interpreted() {
    check_workload("q4", 400, &[CompileMode::HigherOrder]);
}

#[test]
fn q5_compiled_equals_interpreted() {
    check_workload("q5", 500, &[CompileMode::HigherOrder]);
}

#[test]
fn q6_compiled_equals_interpreted() {
    check_workload(
        "q6",
        700,
        &[
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ],
    );
}

#[test]
fn q10_compiled_equals_interpreted() {
    check_workload("q10", 600, &[CompileMode::HigherOrder]);
}

#[test]
fn q11a_compiled_equals_interpreted() {
    check_workload("q11a", 600, &[CompileMode::HigherOrder]);
}

#[test]
fn q12_compiled_equals_interpreted() {
    check_workload("q12", 600, &[CompileMode::HigherOrder]);
}

#[test]
fn q17a_compiled_equals_interpreted() {
    check_workload("q17a", 400, &[CompileMode::HigherOrder]);
}

#[test]
fn q18a_compiled_equals_interpreted() {
    check_workload("q18a", 400, &[CompileMode::HigherOrder]);
}

#[test]
fn q22a_compiled_equals_interpreted() {
    check_workload("q22a", 400, &[CompileMode::HigherOrder]);
}

#[test]
fn ssb4_compiled_equals_interpreted() {
    check_workload("ssb4", 500, &[CompileMode::HigherOrder]);
}

#[test]
fn vwap_compiled_equals_interpreted() {
    check_workload("vwap", 150, &[CompileMode::HigherOrder]);
}

#[test]
fn axf_compiled_equals_interpreted() {
    check_workload(
        "axf",
        500,
        &[CompileMode::HigherOrder, CompileMode::FirstOrder],
    );
}

#[test]
fn bsp_compiled_equals_interpreted() {
    check_workload(
        "bsp",
        500,
        &[CompileMode::HigherOrder, CompileMode::FirstOrder],
    );
}

/// The program the `book_join` benchmark serves: three queries sharing
/// `Bids` in one engine. The kernels answer `axf`'s and `bsp`'s range sums
/// from ordered indexes; the interpreter walks the same indexes entry by
/// entry.
#[test]
fn book_join_program_compiled_equals_interpreted() {
    check_program(
        &["axf", "bsp", "bsv"],
        500,
        &[CompileMode::HigherOrder, CompileMode::FirstOrder],
    );
}

#[test]
fn bsv_compiled_equals_interpreted() {
    check_workload("bsv", 500, &[CompileMode::HigherOrder]);
}

#[test]
fn mst_compiled_equals_interpreted() {
    check_workload("mst", 60, &[CompileMode::HigherOrder]);
}

#[test]
fn psp_compiled_equals_interpreted() {
    check_workload("psp", 250, &[CompileMode::HigherOrder]);
}

#[test]
fn mddb1_compiled_equals_interpreted() {
    check_workload("mddb1", 200, &[CompileMode::HigherOrder]);
}

// ------------------------------------------------- proptest random programs

mod random_programs {
    use dbtoaster::agca::{Expr, UpdateEvent};
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

        /// Compiled kernels reproduce the interpreter **bit-exactly** on
        /// random programs over integer data, in every compilation mode.
        #[test]
        fn compiled_is_bit_exact_on_random_programs(seed in 0u32..1_000_000) {
            let seed = seed as u64;
            let q = random_query(seed);
            let events = stream(seed, 200);
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

                let mut compiled = Engine::new(program.clone(), &catalog());
                compiled
                    .process_all(&events)
                    .unwrap_or_else(|e| panic!("seed {seed} [{mode}] compiled: {e}"));

                let mut interp = Engine::new(program, &catalog());
                interp.set_force_interpreter(true);
                interp
                    .process_all(&events)
                    .unwrap_or_else(|e| panic!("seed {seed} [{mode}] interpreted: {e}"));

                let got = compiled.snapshot();
                let expect = interp.snapshot();
                prop_assert_eq!(got.len(), expect.len());
                for (name, g) in got.iter() {
                    let e = expect.get(name).expect("same view set");
                    prop_assert!(
                        g.equivalent(e, 0.0),
                        "seed {} [{}]: map {} differs\ncompiled:\n{}\ninterpreted:\n{}",
                        seed, mode, name, g, e
                    );
                }
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
/// are pinned here against a from-scratch re-evaluation oracle, across every
/// compile mode, on the compiled-kernel path and with the interpreter forced.
mod trigger_variable_capture {
    use dbtoaster::agca::{DeltaBatch, Expr, UpdateEvent};
    use dbtoaster::compiler::{
        compile, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta,
    };
    use dbtoaster::gmr::{Gmr, Value};
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

    /// Ground truth independent of the incremental machinery: one big
    /// re-evaluation batch on the interpreter recomputes the query from the
    /// final relation state.
    fn recompute(q: &QuerySpec, events: &[UpdateEvent]) -> Gmr {
        let program = compile(
            std::slice::from_ref(q),
            &catalog(),
            &CompileOptions::for_mode(CompileMode::Reevaluate),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        engine.set_force_interpreter(true);
        let mut batch = DeltaBatch::new();
        for e in events {
            batch.push(e);
        }
        let report = engine.process_batch(&batch);
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
        engine.view(&q.name).unwrap()
    }

    fn check_against_oracle(q: &QuerySpec, seed: u64, len: usize) {
        let events = stream(seed, len);
        let truth = recompute(q, &events);
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            for force_interp in [false, true] {
                let program = compile(
                    std::slice::from_ref(q),
                    &catalog(),
                    &CompileOptions::for_mode(mode),
                )
                .unwrap_or_else(|e| panic!("compile {} [{mode}]: {e}", q.name));
                let mut engine = Engine::new(program, &catalog());
                engine.set_force_interpreter(force_interp);
                engine
                    .process_all(&events)
                    .unwrap_or_else(|e| panic!("{} [{mode}/interp={force_interp}]: {e}", q.name));
                let got = engine.view(&q.name).unwrap();
                assert!(
                    got.equivalent(&truth, 1e-6),
                    "{} [{mode}/interp={force_interp}] diverges from recompute oracle\n\
                     got:\n{got}\ntruth:\n{truth}",
                    q.name
                );
            }
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
