//! End-to-end smoke tests: every benchmark query compiles under every strategy and
//! processes a realistic stream without errors, producing finite results; multiple
//! queries can share one engine; static tables are honoured.

use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Family};

fn small_dataset(family: Family) -> workloads::Dataset {
    match family {
        Family::Tpch => {
            let mut d = workloads::tpch::generate(&workloads::TpchConfig {
                scale: 0.003,
                seed: 11,
                orders_working_set: 60,
                lineitem_working_set: 240,
            });
            d.truncate(1_500);
            d
        }
        Family::Finance => workloads::finance::generate(&workloads::FinanceConfig {
            events: 1_500,
            seed: 11,
            ..Default::default()
        }),
        Family::Scientific => workloads::mddb::generate(&workloads::MddbConfig {
            atoms: 20,
            steps: 30,
            seed: 11,
        }),
    }
}

#[test]
fn every_query_compiles_under_every_strategy() {
    let catalog = workloads::full_catalog();
    for q in workloads::all_queries() {
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let engine = QueryEngineBuilder::new(catalog.clone())
                .add_query(q.name, q.sql)
                .mode(mode)
                .build()
                .unwrap_or_else(|e| panic!("{} [{mode}] failed to compile: {e}", q.name));
            assert!(
                !engine.program().maps.is_empty(),
                "{} [{mode}]: no maps",
                q.name
            );
        }
    }
}

#[test]
fn every_query_processes_a_stream_with_higher_order_ivm() {
    let catalog = workloads::full_catalog();
    for q in workloads::all_queries() {
        let mut engine = QueryEngineBuilder::new(catalog.clone())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let mut data = small_dataset(q.family);
        // MST and VWAP have quadratic per-event cost even under Higher-Order IVM (the
        // paper's worst cases); keep their streams short so the smoke test stays fast.
        match q.name {
            "mst" => data.truncate(150),
            "vwap" => data.truncate(300),
            _ => {}
        }
        for (t, rows) in &data.tables {
            engine.load_table(t, rows.clone()).unwrap();
        }
        engine.init().unwrap();
        engine
            .process_all(&data.events)
            .unwrap_or_else(|e| panic!("{}: stream processing failed: {e}", q.name));
        let result = engine
            .result(q.name)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        for row in &result.rows {
            for v in &row.values {
                assert!(v.is_finite(), "{}: non-finite aggregate {v}", q.name);
            }
        }
        assert_eq!(engine.stats().events as usize, data.events.len());
        assert!(engine.stats().refresh_rate() > 0.0);
    }
}

#[test]
fn multiple_queries_share_one_engine_and_deduplicate_views() {
    let catalog = workloads::tpch_catalog();
    let q3 = workloads::query("q3").unwrap();
    let q10 = workloads::query("q10").unwrap();
    let q6 = workloads::query("q6").unwrap();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q3.name, q3.sql)
        .add_query(q10.name, q10.sql)
        .add_query(q6.name, q6.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap();
    let data = small_dataset(Family::Tpch);
    for (t, rows) in &data.tables {
        engine.load_table(t, rows.clone()).unwrap();
    }
    engine.init().unwrap();
    engine.process_all(&data.events).unwrap();
    for name in ["q3", "q10", "q6"] {
        let r = engine.result(name).unwrap();
        for row in &r.rows {
            assert!(row.values.iter().all(|v| v.is_finite()));
        }
    }
    assert_eq!(engine.program().results.len(), 3);
}

#[test]
fn static_tables_affect_results() {
    // SSB4 groups by the region of the supplier's nation, which comes from the static
    // Nation table; loading the tables before the stream must produce a non-empty
    // grouped result, and skipping them must leave the result empty.
    let catalog = workloads::tpch_catalog();
    let q = workloads::query("ssb4").unwrap();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q.name, q.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap();
    let data = small_dataset(Family::Tpch);
    for (t, rows) in &data.tables {
        engine.load_table(t, rows.clone()).unwrap();
    }
    engine.init().unwrap();
    engine.process_all(&data.events).unwrap();

    // Without the static tables the same stream yields an empty result.
    let mut engine2 = QueryEngineBuilder::new(workloads::tpch_catalog())
        .add_query(q.name, q.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap();
    engine2.process_all(&data.events).unwrap();
    let with_tables: f64 = engine
        .result("ssb4")
        .unwrap()
        .rows
        .iter()
        .flat_map(|r| r.values.clone())
        .map(f64::abs)
        .sum();
    let without_tables: f64 = engine2
        .result("ssb4")
        .unwrap()
        .rows
        .iter()
        .flat_map(|r| r.values.clone())
        .map(f64::abs)
        .sum();
    assert!(with_tables > 0.0, "expected non-empty SSB4 result");
    assert_eq!(without_tables, 0.0);
}

/// A workload query served through the facade — events sent one at a time,
/// a subscriber attached — ends where the embedded engine ends.
#[test]
fn served_workload_query_matches_the_embedded_engine() {
    let q = workloads::query("q6").unwrap();
    let data = small_dataset(Family::Tpch);
    let engine = || {
        let mut engine = QueryEngineBuilder::new(workloads::tpch_catalog())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap();
        for (t, rows) in &data.tables {
            engine.load_table(t, rows.clone()).unwrap();
        }
        engine.init().unwrap();
        engine
    };
    let mut embedded = engine();
    embedded.process_all(&data.events).unwrap();
    let expected = embedded.result(q.name).unwrap().scalar();

    let server = engine().serve().unwrap();
    let sub = server.subscribe(q.name).unwrap();
    let ingest = server.handle();
    for e in &data.events {
        ingest.send(e.clone()).unwrap();
    }
    server.flush().unwrap();
    let got = server.reader().query(q.name).unwrap().scalar();
    // The writer drains micro-batches whose batch-delta execution may
    // reassociate q6's float sum (the float caveat in
    // `crates/agca/src/batch.rs`): equal up to relative rounding, not
    // necessarily bit-equal to the event-at-a-time order.
    let tol = 1e-9 * expected.abs().max(1.0);
    assert!(
        (got - expected).abs() <= tol,
        "served {got} vs embedded {expected}"
    );

    // Shutting down joins the writer, so every delta it published is queued.
    drop(ingest);
    server.shutdown().unwrap();
    let mut deltas = 0;
    while let Some(batch) = sub.try_recv() {
        deltas += batch.deltas.len();
    }
    assert!(deltas > 0, "the subscription saw no output deltas");
}

#[test]
fn memory_and_trace_samples_are_monotone_in_events() {
    let catalog = workloads::finance_catalog();
    let q = workloads::query("bsv").unwrap();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q.name, q.sql)
        .build()
        .unwrap();
    let data = small_dataset(Family::Finance);
    let half = data.events.len() / 2;
    engine.process_all(&data.events[..half]).unwrap();
    let s1 = engine.sample(0.5);
    engine.process_all(&data.events[half..]).unwrap();
    let s2 = engine.sample(1.0);
    assert!(s2.elapsed_secs >= s1.elapsed_secs);
    assert!(s2.refresh_rate > 0.0);
    assert!(s2.memory_mb > 0.0);
}

#[test]
fn query_engine_reports_compilation_features() {
    // The compile report drives Figure 2; spot-check a few entries.
    let catalog = workloads::full_catalog();
    let cases = [
        ("q3", false),  // flat equijoin: no nested rewrite needed
        ("q17a", true), // equality-correlated nested aggregate
        ("vwap", true), // inequality-correlated nested aggregate
    ];
    for (name, nested) in cases {
        let q = workloads::query(name).unwrap();
        let engine = QueryEngineBuilder::new(catalog.clone())
            .add_query(q.name, q.sql)
            .build()
            .unwrap();
        assert_eq!(
            engine.program().report.used_nested_rewrite,
            nested,
            "{name} nested-rewrite flag"
        );
    }
}

/// A statement the kernel compiler cannot lower is a compile error, naming
/// the statement and the reason — never a program that fails per event at
/// run time. `SUM('x')` puts a string in multiplicity position.
#[test]
fn unlowerable_sql_is_rejected_by_build() {
    use dbtoaster::compiler::CompileError;
    let catalog: SqlCatalog = [TableDef::stream("R", ["a", "b"])].into_iter().collect();
    for mode in [CompileMode::HigherOrder, CompileMode::Reevaluate] {
        let err = QueryEngineBuilder::new(catalog.clone())
            .add_query("q", "SELECT SUM('x') FROM R r")
            .mode(mode)
            .build()
            .err()
            .unwrap_or_else(|| panic!("[{mode}] an unlowerable program built"));
        let DbToasterError::Compile(CompileError::Unlowerable { statement, reason }) = &err else {
            panic!("[{mode}] expected Unlowerable, got {err}");
        };
        assert!(
            statement.starts_with("q[] ") && statement.contains("'x'"),
            "{statement}"
        );
        assert_eq!(reason, "non-numeric constant in multiplicity position");
        assert!(err.to_string().contains(reason.as_str()), "{err}");
    }
}

/// The program fingerprint guards WAL and checkpoint replay, so a change to
/// the IR that leaks into it orphans every durable directory. Pinned to the
/// values the bundled programs had before statements carried their kernels.
#[test]
fn bundled_program_fingerprints_are_pinned() {
    for (names, mode, fingerprint) in [
        (
            &["q1"][..],
            CompileMode::HigherOrder,
            0xe840_3195_ddcb_fba6_u64,
        ),
        (
            &["axf", "bsp", "bsv"][..],
            CompileMode::HigherOrder,
            0xe1ff_ccc0_123d_c93c,
        ),
        (
            &["vwap"][..],
            CompileMode::HigherOrder,
            0xec8d_5845_de39_75e7,
        ),
        (&["q3"][..], CompileMode::FirstOrder, 0xa609_ac01_192e_2f04),
    ] {
        let mut builder = QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
        for name in names {
            let q = workloads::query(name).unwrap();
            builder = builder.add_query(q.name, q.sql);
        }
        let engine = builder.build().unwrap();
        assert_eq!(
            dbtoaster::durability::program_fingerprint(engine.program()),
            fingerprint,
            "{names:?} [{mode}]"
        );
    }
}
