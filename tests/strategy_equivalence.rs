//! Cross-strategy equivalence tests.
//!
//! The strongest correctness check in the repository: for every benchmark query, the
//! result produced by Higher-Order IVM (the paper's contribution) must equal — at every
//! point we sample, and in particular at the end of the stream — the result produced by
//! classical first-order IVM and by full re-evaluation of the query. Any bug in the
//! delta transform, the materialization heuristics, statement ordering or the runtime
//! shows up as a divergence here.

use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Family};

const EPS: f64 = 1e-6;

fn dataset_for(family: Family, events: usize) -> workloads::Dataset {
    match family {
        Family::Tpch => {
            let mut d = workloads::tpch::generate(&workloads::TpchConfig {
                scale: 0.002,
                seed: 7,
                orders_working_set: 40,
                lineitem_working_set: 160,
            });
            d.truncate(events);
            d
        }
        Family::Finance => workloads::finance::generate(&workloads::FinanceConfig {
            events,
            seed: 7,
            brokers: 5,
            delete_probability: 0.25,
        }),
        Family::Scientific => {
            let mut d = workloads::mddb::generate(&workloads::MddbConfig {
                atoms: 12,
                steps: 20,
                seed: 7,
            });
            d.truncate(events);
            d
        }
    }
}

/// The results of one engine maintaining every query of `qs` (which share a
/// family, hence a dataset), in `qs` order.
fn run_queries(
    qs: &[workloads::WorkloadQuery],
    mode: CompileMode,
    events: usize,
) -> Vec<ResultTable> {
    let names: Vec<&str> = qs.iter().map(|q| q.name).collect();
    let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
    for q in qs {
        builder = builder.add_query(q.name, q.sql);
    }
    let mut engine = builder
        .build()
        .unwrap_or_else(|e| panic!("{names:?} [{mode}]: build failed: {e}"));
    let data = dataset_for(qs[0].family, events);
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone()).unwrap();
    }
    engine.init().unwrap();
    engine
        .process_all(&data.events)
        .unwrap_or_else(|e| panic!("{names:?} [{mode}]: processing failed: {e}"));
    qs.iter()
        .map(|q| {
            engine
                .result(q.name)
                .unwrap_or_else(|e| panic!("{} [{mode}]: result failed: {e}", q.name))
        })
        .collect()
}

/// Compare two result tables modulo row order and floating-point noise.
fn assert_equivalent(query: &str, mode: CompileMode, got: &ResultTable, expected: &ResultTable) {
    // Collect (key -> values) from both, treating missing rows as all-zero aggregates
    // (an empty group and an absent group are indistinguishable for SUM/COUNT views).
    let mut keys: Vec<Vec<Value>> = Vec::new();
    for r in got.rows.iter().chain(expected.rows.iter()) {
        if !keys.contains(&r.key) {
            keys.push(r.key.clone());
        }
    }
    let lookup = |t: &ResultTable, key: &Vec<Value>| -> Vec<f64> {
        t.rows
            .iter()
            .find(|r| &r.key == key)
            .map(|r| r.values.clone())
            .unwrap_or_else(|| vec![0.0; t.columns.len()])
    };
    for key in keys {
        let g = lookup(got, &key);
        let e = lookup(expected, &key);
        let n = g.len().max(e.len());
        for i in 0..n {
            let gv = g.get(i).copied().unwrap_or(0.0);
            let ev = e.get(i).copied().unwrap_or(0.0);
            let scale = 1.0_f64.max(ev.abs());
            assert!(
                (gv - ev).abs() / scale < EPS,
                "{query} [{mode}] diverges from re-evaluation at key {key:?} column {i}: {gv} vs {ev}"
            );
        }
    }
}

fn check_query(name: &str, events: usize, modes: &[CompileMode]) {
    check_program(&[name], events, modes);
}

/// Every incremental mode against re-evaluation, for one engine maintaining
/// all of `names`.
fn check_program(names: &[&str], events: usize, modes: &[CompileMode]) {
    let qs: Vec<workloads::WorkloadQuery> = names
        .iter()
        .map(|n| workloads::query(n).unwrap_or_else(|| panic!("unknown query {n}")))
        .collect();
    let reference = run_queries(&qs, CompileMode::Reevaluate, events);
    for (name, r) in names.iter().zip(&reference) {
        assert!(
            !r.columns.is_empty(),
            "{name}: reference result has no columns"
        );
    }
    for &mode in modes {
        let got = run_queries(&qs, mode, events);
        for ((name, g), r) in names.iter().zip(&got).zip(&reference) {
            assert_equivalent(name, mode, g, r);
        }
    }
}

const STANDARD_MODES: &[CompileMode] = &[CompileMode::HigherOrder, CompileMode::FirstOrder];
const ALL_MODES: &[CompileMode] = &[
    CompileMode::HigherOrder,
    CompileMode::FirstOrder,
    CompileMode::NaiveViewlet,
];

// ------------------------------------------------------------------- TPC-H queries

#[test]
fn q1_equivalence() {
    check_query("q1", 800, ALL_MODES);
}

#[test]
fn q3_equivalence() {
    check_query("q3", 800, STANDARD_MODES);
}

#[test]
fn q4_equivalence() {
    check_query("q4", 500, STANDARD_MODES);
}

#[test]
fn q5_equivalence() {
    check_query("q5", 600, STANDARD_MODES);
}

#[test]
fn q6_equivalence() {
    check_query("q6", 800, ALL_MODES);
}

#[test]
fn q10_equivalence() {
    check_query("q10", 800, STANDARD_MODES);
}

#[test]
fn q11a_equivalence() {
    check_query("q11a", 800, ALL_MODES);
}

#[test]
fn q12_equivalence() {
    check_query("q12", 800, STANDARD_MODES);
}

#[test]
fn q17a_equivalence() {
    check_query("q17a", 500, STANDARD_MODES);
}

#[test]
fn q18a_equivalence() {
    check_query("q18a", 500, STANDARD_MODES);
}

#[test]
fn q22a_equivalence() {
    check_query("q22a", 500, STANDARD_MODES);
}

#[test]
fn ssb4_equivalence() {
    check_query("ssb4", 600, STANDARD_MODES);
}

// ----------------------------------------------------------------- finance queries

#[test]
fn vwap_equivalence() {
    check_query("vwap", 150, STANDARD_MODES);
}

#[test]
fn axf_equivalence() {
    check_query("axf", 500, STANDARD_MODES);
}

#[test]
fn bsp_equivalence() {
    check_query("bsp", 500, STANDARD_MODES);
}

/// The program the `book_join` benchmark serves: three queries sharing
/// `Bids` in one engine.
#[test]
fn book_join_program_equivalence() {
    check_program(&["axf", "bsp", "bsv"], 500, ALL_MODES);
}

#[test]
fn bsv_equivalence() {
    check_query("bsv", 500, ALL_MODES);
}

#[test]
fn mst_equivalence() {
    check_query("mst", 60, STANDARD_MODES);
}

#[test]
fn psp_equivalence() {
    check_query("psp", 250, STANDARD_MODES);
}

// -------------------------------------------------------------- scientific queries

#[test]
fn mddb1_equivalence() {
    check_query("mddb1", 200, STANDARD_MODES);
}

// ------------------------------------------- randomized cursor/bindings property test

mod random_streams {
    use dbtoaster::agca::{eval, Bindings, Expr, MemSource, UpdateEvent, UpdateSign};
    use dbtoaster::compiler::{compile, CompileMode, CompileOptions, QuerySpec, RelationMeta};
    use dbtoaster::gmr::{Gmr, Schema, Value};
    use dbtoaster::runtime::Engine;

    /// Tiny deterministic LCG so the property test needs no external crates.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: i64) -> i64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % bound as u64) as i64
        }
    }

    fn catalog() -> dbtoaster::compiler::Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

    /// Query shapes covering joins, group-by and comparisons — all linear, so
    /// every strategy (including classical IVM and the naive viewlet
    /// transform) must maintain them exactly.
    fn shapes() -> Vec<QuerySpec> {
        vec![
            QuerySpec {
                name: "join_sum".into(),
                out_vars: vec![],
                expr: Expr::agg_sum(
                    Vec::<String>::new(),
                    Expr::product_of([
                        Expr::rel("R", ["a", "b"]),
                        Expr::rel("S", ["b", "c"]),
                        Expr::var("c"),
                    ]),
                ),
            },
            QuerySpec {
                name: "group_by".into(),
                out_vars: vec!["b".into()],
                expr: Expr::agg_sum(
                    ["b"],
                    Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::var("a")]),
                ),
            },
            QuerySpec {
                name: "selection".into(),
                out_vars: vec![],
                expr: Expr::agg_sum(
                    Vec::<String>::new(),
                    Expr::product_of([
                        Expr::rel("R", ["a", "b"]),
                        Expr::cmp(dbtoaster::agca::CmpOp::Lt, Expr::var("a"), Expr::var("b")),
                    ]),
                ),
            },
        ]
    }

    /// Random insert/delete stream over R and S with a small key domain, so
    /// collisions, cancellations and re-insertions all occur.
    fn stream(seed: u64, events: usize) -> Vec<UpdateEvent> {
        let mut rng = Lcg(seed.wrapping_mul(2654435769).wrapping_add(1));
        let mut live: Vec<(&'static str, i64, i64)> = Vec::new();
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            let delete = !live.is_empty() && rng.next(4) == 0;
            if delete {
                let idx = rng.next(live.len() as i64) as usize;
                let (rel, x, y) = live.swap_remove(idx);
                out.push(UpdateEvent::delete(
                    rel,
                    vec![Value::long(x), Value::long(y)],
                ));
            } else {
                let rel = if rng.next(2) == 0 { "R" } else { "S" };
                let x = rng.next(6);
                let y = rng.next(5);
                live.push((rel, x, y));
                out.push(UpdateEvent::insert(
                    rel,
                    vec![Value::long(x), Value::long(y)],
                ));
            }
        }
        out
    }

    /// Reference semantics: mirror the stream into a [`MemSource`] and
    /// re-evaluate the query expression from scratch with the evaluator.
    fn reference(events: &[UpdateEvent], q: &QuerySpec) -> Gmr {
        let mut src = MemSource::new();
        src.set_relation("R", Gmr::new(Schema::new(["c0", "c1"])));
        src.set_relation("S", Gmr::new(Schema::new(["c0", "c1"])));
        for e in events {
            let mult = match e.sign {
                UpdateSign::Insert => 1.0,
                UpdateSign::Delete => -1.0,
            };
            src.apply_update(&e.relation, e.tuple.clone(), mult);
        }
        eval(&q.expr, &src, &Bindings::new()).unwrap()
    }

    /// Property: for random streams, the view contents produced through the
    /// cursor-based `for_each_matching` read path and the scoped `Bindings`
    /// evaluator are bit-identical (eps = 0.0 — all data is integral) to
    /// direct re-evaluation, under every compilation strategy.
    #[test]
    fn random_streams_agree_with_reference_semantics_in_all_modes() {
        for seed in 0..10u64 {
            let events = stream(seed, 240);
            for q in shapes() {
                let expected = reference(&events, &q);
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
                    .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
                    let mut engine = Engine::new(program, &catalog());
                    engine
                        .process_all(&events)
                        .unwrap_or_else(|e| panic!("{} [{mode}] seed {seed}: {e}", q.name));
                    let got = engine.result(&q.name).unwrap();
                    assert!(
                        got.equivalent(&expected, 0.0),
                        "{} [{mode}] seed {seed}: engine view differs from reference\n\
                         engine:\n{got}\nreference:\n{expected}",
                        q.name
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------- deletions / negative results

#[test]
fn deletions_restore_previous_results() {
    // Processing an insert followed by the matching delete must leave every query
    // result exactly where it was (GMRs make deletions just negative-multiplicity
    // insertions, so this checks the whole pipeline's sign handling).
    let catalog = workloads::full_catalog();
    let q = workloads::query("axf").unwrap();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q.name, q.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap();
    let data = dataset_for(Family::Finance, 300);
    engine.process_all(&data.events).unwrap();
    let before = engine.result("axf").unwrap();

    let bid = vec![
        Value::long(99_999),
        Value::long(424_242),
        Value::long(1),
        Value::double(9_000.0),
        Value::double(10.0),
    ];
    engine
        .process(&UpdateEvent::insert("Bids", bid.clone()))
        .unwrap();
    engine.process(&UpdateEvent::delete("Bids", bid)).unwrap();
    let after = engine.result("axf").unwrap();
    assert_equivalent("axf", CompileMode::HigherOrder, &after, &before);
}
