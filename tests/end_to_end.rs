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
        assert_eq!(engine.stats().delta_batches as usize, data.events.len());
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

/// A served stream with an ill-typed event between good ones — a string
/// where `Lineitem` has a number — ends where the embedded engine ends over
/// the admitted events. The writer refuses the event before it is applied,
/// so the snapshot is not degraded and `last_error` holds the refusal.
#[test]
fn a_refused_event_leaves_the_served_views_exact() {
    let q = workloads::query("q6").unwrap();
    let data = small_dataset(Family::Tpch);
    let engine = || {
        let mut engine = QueryEngineBuilder::new(workloads::tpch_catalog())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap();
        engine.init().unwrap();
        engine
    };
    let mut embedded = engine();
    embedded.process_all(&data.events).unwrap();
    let expected = embedded.result(q.name).unwrap().scalar();

    let at = data
        .events
        .iter()
        .position(|e| e.relation == "Lineitem")
        .unwrap();
    let mut ill_typed = data.events[at].clone();
    ill_typed.tuple[4] = Value::str("cheap");
    let mut stream = data.events.clone();
    stream.insert(at + 1, ill_typed);
    let server = engine().serve().unwrap();
    server.handle().send_batch(stream).unwrap();
    server.flush().unwrap();
    let got = server.reader().query(q.name).unwrap().scalar();
    let tol = 1e-9 * expected.abs().max(1.0);
    assert!(
        (got - expected).abs() <= tol,
        "served {got} vs embedded {expected}"
    );
    assert!(!server.reader().snapshot().degraded());
    let refusal = server.last_error().expect("the refusal").to_string();
    assert!(
        refusal.starts_with("event for Lineitem refused: column extendedprice"),
        "{refusal}"
    );
    assert_eq!(server.stats().events as usize, data.events.len());
    server.shutdown().unwrap();
}

/// A served snapshot holds what readers read. The six dashboard queries
/// served through the facade publish exactly their output views (q1's AVG
/// halves by the names of the maps they read): the
/// higher-order maps and stored tables behind them are never patched or
/// copied by a publish, and are not readable or subscribable by name. The
/// served results still equal the embedded engine's.
#[test]
fn a_served_snapshot_holds_the_query_views_not_the_higher_order_maps() {
    use dbtoaster::sql::{parse_query, translate, OutputColumn};
    const QUERIES: [&str; 6] = ["q1", "q3", "q6", "q10", "q12", "ssb4"];
    let data = small_dataset(Family::Tpch);
    let engine = || {
        let mut builder = QueryEngineBuilder::new(workloads::tpch_catalog());
        for name in QUERIES {
            builder = builder.add_query(name, workloads::query(name).unwrap().sql);
        }
        let mut engine = builder.mode(CompileMode::HigherOrder).build().unwrap();
        for (t, rows) in &data.tables {
            engine.load_table(t, rows.clone()).unwrap();
        }
        engine.init().unwrap();
        engine
    };
    let mut embedded = engine();
    embedded.process_all(&data.events).unwrap();

    // The union of the views the queries' output columns read.
    let mut outputs: Vec<String> = Vec::new();
    for name in QUERIES {
        let sql = parse_query(workloads::query(name).unwrap().sql).unwrap();
        for out in translate(name, &sql, &workloads::tpch_catalog())
            .unwrap()
            .outputs
        {
            match out {
                OutputColumn::Aggregate { view, .. } => outputs.push(view),
                OutputColumn::Average {
                    sum_view,
                    count_view,
                    ..
                } => outputs.extend([sum_view, count_view]),
                OutputColumn::GroupBy { .. } => {}
            }
        }
    }
    outputs.sort();
    outputs.dedup();

    let server = engine().serve().unwrap();
    let ingest = server.handle();
    for chunk in data.events.chunks(100) {
        ingest.send_batch(chunk.to_vec()).unwrap();
        server.flush().unwrap();
    }
    let snap = server.current_snapshot();
    assert!(snap.epoch() >= 15, "one publish per flushed chunk");
    assert_eq!(snap.names().collect::<Vec<_>>(), outputs);

    // Batches may reassociate float sums (see the q6 test above), so a group
    // that cancels can be left at ±ulps on one side and absent on the other.
    let rows = |t: ResultTable| -> std::collections::BTreeMap<Vec<Value>, Vec<f64>> {
        t.rows.into_iter().map(|r| (r.key, r.values)).collect()
    };
    for name in QUERIES {
        let served = rows(server.reader().query(name).unwrap());
        let expected = rows(embedded.result(name).unwrap());
        assert!(!expected.is_empty(), "{name}: the prefix leaves a result");
        for key in served.keys().chain(expected.keys()) {
            let (got, want) = (served.get(key), expected.get(key));
            let width = got.or(want).map_or(0, Vec::len);
            for i in 0..width {
                let (g, w) = (got.map_or(0.0, |v| v[i]), want.map_or(0.0, |v| v[i]));
                let tol = 1e-9 * w.abs().max(1.0);
                assert!((g - w).abs() <= tol, "{name}{key:?}: {g} vs {w}");
            }
        }
    }

    // A result merged into another's map publishes that map: q1's AVG
    // halves read its SUM's and its COUNT's.
    let results = &embedded.program().results;
    let map_of = |n: &String| {
        let result = results.iter().find(|r| r.name == *n);
        result.map_or(n.clone(), |r| r.map.clone())
    };
    let mut maps: Vec<String> = outputs.iter().map(map_of).collect();
    maps.sort();
    maps.dedup();
    assert_eq!(maps.len(), outputs.len() - 2);
    let views = server.metrics().views;
    let (published, internal): (Vec<_>, Vec<_>) =
        views.iter().partition(|v| maps.contains(&v.name));
    assert_eq!(published.len(), maps.len());
    assert!(
        published
            .iter()
            .all(|v| v.get("snapshot_keys_patched") + v.get("snapshot_entries_copied") > 0),
        "every published view is patched or copied"
    );
    assert!(
        internal.len() > published.len(),
        "{} internal maps",
        internal.len()
    );
    for v in &internal {
        assert_eq!(
            (
                v.get("snapshot_keys_patched"),
                v.get("snapshot_entries_copied")
            ),
            (0, 0),
            "{}: an unpublished map paid for a publish",
            v.name
        );
        assert!(server.reader().view(&v.name).is_none(), "{}", v.name);
        assert!(
            matches!(server.subscribe(&v.name), Err(ServeError::UnknownQuery(_))),
            "{}",
            v.name
        );
    }
    server.shutdown().unwrap();
}

/// TPC-H q1's `AVG(quantity)` halves are its `SUM(quantity)` and
/// `COUNT(*)`, so `q1_4_sum` reads `q1_1`'s map and `q1_5` reads
/// `q1_4_cnt`'s. Served, every q1 result read by name
/// (`ReaderHandle::query`, the merged ones included) and every subscription
/// to one, replayed from its baseline, equals the embedded engine's
/// `Engine::result`, columns included; a durable q1 server killed and
/// recovered reads all six results as it did before the crash, bit for bit,
/// and keeps q1's four maps as one shared key table before and after.
#[test]
fn merged_results_read_as_their_own_served_subscribed_and_recovered() {
    use dbtoaster::runtime::Engine;
    use std::collections::BTreeMap;
    let q1 = workloads::query("q1").unwrap();
    let data = small_dataset(Family::Tpch);
    let builder = || {
        QueryEngineBuilder::new(workloads::tpch_catalog())
            .add_query(q1.name, q1.sql)
            .mode(CompileMode::HigherOrder)
    };
    let program = builder().build().unwrap().program().clone();
    let merged: Vec<(&str, &str)> = program
        .results
        .iter()
        .filter(|r| r.map != r.name)
        .map(|r| (r.name.as_str(), r.map.as_str()))
        .collect();
    assert_eq!(merged, [("q1_4_sum", "q1_1"), ("q1_5", "q1_4_cnt")]);
    let names: Vec<&str> = program.results.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names.len(), 6);
    let mut embedded = Engine::new(program.clone(), &workloads::tpch_catalog());
    for e in &data.events {
        embedded.process(e).unwrap();
    }

    // A result as its key columns and `key → multiplicity bits`.
    type Bits = (Vec<String>, BTreeMap<Vec<Value>, u64>);
    let served_bits = |t: ResultTable| -> Bits {
        let keys = t.columns[..t.columns.len() - 1].to_vec();
        (
            keys,
            t.rows
                .into_iter()
                .map(|r| (r.key, r.values[0].to_bits()))
                .collect(),
        )
    };
    let near = |name: &str, got: &Bits, want: &Gmr| {
        assert_eq!(got.0, want.schema().columns(), "{name}: columns");
        assert_eq!(got.1.len(), want.len(), "{name}: keys");
        for (key, w) in want.iter() {
            let g = f64::from_bits(got.1[key.as_slice()]);
            let tol = 1e-9 * w.abs().max(1.0);
            assert!((g - w).abs() <= tol, "{name}{key:?}: {g} vs {w}");
        }
    };

    let server = builder().serve().unwrap();
    let subs: Vec<_> = names.iter().map(|n| server.subscribe(n).unwrap()).collect();
    let ingest = server.handle();
    for chunk in data.events.chunks(100) {
        ingest.send_batch(chunk.to_vec()).unwrap();
        server.flush().unwrap();
    }
    let reader = server.reader();
    let served: Vec<Bits> = names
        .iter()
        .map(|n| served_bits(reader.query(n).unwrap()))
        .collect();
    drop((reader, ingest));
    server.shutdown().unwrap();
    for ((name, sub), got) in names.iter().zip(&subs).zip(&served) {
        let want = embedded.result(name).unwrap();
        assert!(!want.is_empty(), "{name}: the prefix leaves a result");
        near(name, got, &want);
        let baseline = sub.baseline().view(name).expect("a published result");
        let mut state: BTreeMap<Vec<Value>, u64> = baseline
            .iter()
            .map(|(k, m)| (k.to_vec(), m.to_bits()))
            .collect();
        while let Some(batch) = sub.try_recv() {
            for d in batch.deltas {
                match d.new_mult == 0.0 {
                    true => state.remove(d.key.as_slice()),
                    false => state.insert(d.key.to_vec(), d.new_mult.to_bits()),
                };
            }
        }
        assert_eq!(state, got.1, "{name}: subscription replayed");
    }
    for (result, survivor) in merged {
        let at = |n: &str| names.iter().position(|m| *m == n).unwrap();
        assert_eq!(served[at(result)].1, served[at(survivor)].1, "{result}");
    }

    let dir = std::env::temp_dir().join(format!("dbt-merged-q1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let read_all = |server: &ViewServer| -> Vec<Bits> {
        let reader = server.reader();
        names
            .iter()
            .map(|n| served_bits(reader.query(n).unwrap()))
            .collect()
    };
    let server = builder().open_or_create(&dir).unwrap();
    let ingest = server.handle();
    for chunk in data.events.chunks(100) {
        ingest.send_batch(chunk.to_vec()).unwrap();
    }
    server.flush().unwrap();
    let before = read_all(&server);
    drop(ingest);
    server.kill();
    let recovered = builder().open_or_create(&dir).unwrap();
    assert_eq!(read_all(&recovered), before, "recovered");
    for (name, got) in names.iter().zip(&before) {
        near(name, got, &embedded.result(name).unwrap());
    }
    let recovered = recovered.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    // q1's four maps are one key table with a column each, in the embedded
    // engine and in the recovered one, which restored its members from the
    // checkpoint and replayed the log into it: every result above was read
    // through it.
    let q1_maps = ["q1_1", "q1_2", "q1_3", "q1_4_cnt"];
    for engine in [&embedded, &recovered] {
        let db = engine.database();
        let columns = q1_maps.map(|m| db.member(db.id(m).unwrap()));
        assert_eq!(
            columns,
            [0, 1, 2, 3].map(|c| Some((0, c))),
            "q1's maps share one table"
        );
        let table = db.table(0);
        assert_eq!(table.width(), 4);
        let keys = db.view("q1_4_cnt").unwrap().len();
        assert!(keys > 0 && table.len() == keys, "one row per returnflag");
    }
}

/// `view` reads a map by its map name. A merged q1 result's name (`q1_4_sum`,
/// `q1_5`) names no map, so `Engine::view` and `QueryEngine::view` give
/// `None` for it, while `Engine::result` reads it through the map it shares
/// and `QueryEngine::result` assembles q1's table from it.
#[test]
fn a_merged_result_name_reads_through_result_not_view() {
    use dbtoaster::runtime::Engine;
    let q1 = workloads::query("q1").unwrap();
    let data = small_dataset(Family::Tpch);
    let mut facade = QueryEngineBuilder::new(workloads::tpch_catalog())
        .add_query(q1.name, q1.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap();
    let mut engine = Engine::new(facade.program().clone(), &workloads::tpch_catalog());
    for e in &data.events {
        facade.process(e).unwrap();
        engine.process(e).unwrap();
    }
    for (result, map) in [("q1_4_sum", "q1_1"), ("q1_5", "q1_4_cnt")] {
        assert!(engine.view(result).is_none(), "Engine::view({result})");
        assert!(facade.view(result).is_none(), "QueryEngine::view({result})");
        let (read, shared) = (engine.result(result).unwrap(), engine.view(map).unwrap());
        assert!(!read.is_empty(), "{result} holds rows");
        assert!(
            read.equivalent(&shared.renamed(read.schema().clone()), 0.0),
            "{result}"
        );
    }
    let table = facade.result(q1.name).unwrap();
    assert!(!table.rows.is_empty() && table.columns.contains(&"avg_qty".to_string()));
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
    let (events, batches) = (engine.stats().events, engine.stats().delta_batches);
    assert_eq!((events, batches), (half as u64, half as u64));
    engine.process_all(&data.events[half..]).unwrap();
    let all = data.events.len() as u64;
    assert_eq!(engine.stats().events, all);
    assert_eq!(engine.stats().delta_batches, all);
    assert!(engine.memory_bytes() > 0);
}

/// The engine reads the clock for telemetry only. With an enabled handle
/// every `process` call and every non-empty `process_batch` call is one
/// sample of the batch histogram, and a 1 ns slow-batch threshold traces a
/// lone event; without one the stats are counts alone, so an engine with a
/// handle and one without, fed the same stream, report equal `EngineStats`.
#[test]
fn telemetry_times_every_call_and_stats_are_counts() {
    use dbtoaster::runtime::Engine;
    use std::time::Duration;
    let q = workloads::query("bsv").unwrap();
    let program = QueryEngineBuilder::new(workloads::finance_catalog())
        .add_query(q.name, q.sql)
        .build()
        .unwrap()
        .program()
        .clone();
    let catalog = workloads::finance_catalog();
    let data = small_dataset(Family::Finance);
    let (single, batched) = data.events.split_at(data.events.len() / 2);
    let feed = |engine: &mut Engine| {
        for e in single {
            engine.process(e).unwrap();
        }
        let mut calls = single.len() as u64;
        for chunk in batched.chunks(8) {
            assert_eq!(engine.process_batch(&DeltaBatch::new()).events, 0);
            let report = engine.process_batch(&DeltaBatch::from_events(chunk));
            assert_eq!(report.failed_events, 0);
            calls += 1;
        }
        calls
    };
    let mut untimed = Engine::new(program.clone(), &catalog);
    let mut timed = Engine::new(program.clone(), &catalog);
    let tel = Telemetry::enabled();
    timed.set_telemetry(tel.clone());
    let calls = feed(&mut untimed);
    assert_eq!(feed(&mut timed), calls);
    timed.flush_telemetry();
    assert_eq!(tel.batch_hist().unwrap().summary().count, calls);
    assert_eq!(timed.stats().delta_batches, calls);
    assert_eq!(*untimed.stats(), *timed.stats());
    assert_eq!(untimed.stats().events, data.events.len() as u64);
    assert!(untimed.telemetry().is_none());

    let mut traced = Engine::new(program, &catalog);
    let tel = Telemetry::with_config(TelemetryConfig {
        slow_batch_threshold: Duration::from_nanos(1),
    });
    traced.set_telemetry(tel.clone());
    traced.process(&data.events[0]).unwrap();
    traced.flush_telemetry();
    let traces = tel.drain_traces();
    assert_eq!(traces.len(), 1, "{traces:?}");
    assert_eq!((traces[0].events, traces[0].threshold_nanos), (1, 1));
    assert!(traces[0].elapsed_nanos >= 1);
    assert_eq!(tel.batch_hist().unwrap().summary().count, 1);
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

/// A program whose kernels could fail per event is a compile error, naming
/// what is wrong — never a program that fails per event at run time.
/// `SUM('x')` puts a string constant in multiplicity position, which the
/// type check rejects before any statement is lowered.
#[test]
fn unlowerable_sql_is_rejected_by_build() {
    use dbtoaster::compiler::CompileError;
    let catalog: Catalog = [RelationMeta::stream("R", ["a", "b"])]
        .into_iter()
        .collect();
    for mode in [CompileMode::HigherOrder, CompileMode::Reevaluate] {
        let err = QueryEngineBuilder::new(catalog.clone())
            .add_query("q", "SELECT SUM('x') FROM R r")
            .mode(mode)
            .build()
            .err()
            .unwrap_or_else(|| panic!("[{mode}] an unlowerable program built"));
        let DbToasterError::Compile(CompileError::Type { column, reason }) = &err else {
            panic!("[{mode}] expected a type error, got {err}");
        };
        assert_eq!(column, "'x'");
        assert_eq!(reason, "a string used as a number");
        assert!(err.to_string().contains(reason.as_str()), "{err}");
    }
}

/// The catalog's string columns reach the SQL front end: summing a string
/// column and matching a number against a `LIKE` pattern are compile
/// errors naming the column, in every mode.
#[test]
fn ill_typed_sql_names_the_column() {
    use dbtoaster::compiler::CompileError;
    for (sql, column) in [
        (
            "SELECT SUM(c.mktsegment) FROM Customer c",
            "Customer.mktsegment",
        ),
        (
            "SELECT SUM(c.acctbal) FROM Customer c WHERE c.custkey LIKE '1%'",
            "Customer.custkey",
        ),
    ] {
        for mode in [CompileMode::HigherOrder, CompileMode::Reevaluate] {
            let err = QueryEngineBuilder::new(workloads::tpch_catalog())
                .add_query("q", sql)
                .mode(mode)
                .build()
                .err()
                .unwrap_or_else(|| panic!("[{mode}] {sql} built"));
            let DbToasterError::Compile(CompileError::Type { column: named, .. }) = &err else {
                panic!("[{mode}] {sql}: expected a type error, got {err}");
            };
            assert_eq!(named, column, "[{mode}] {sql}");
        }
    }
}

/// The program fingerprint guards WAL and checkpoint replay, so a change to
/// the IR that leaks into it orphans every durable directory. Pinned to the
/// values the bundled programs had before statements carried their kernels;
/// `vwap`'s since its `price × volume` map folded into its volume map, a new
/// program whose durable directories the old one's fingerprint refuses;
/// `q1`'s since its `AVG(quantity)` halves read its `SUM(quantity)` and
/// `COUNT(*)` maps (`QueryResult::map`), the same kind of new program.
#[test]
fn bundled_program_fingerprints_are_pinned() {
    for (names, mode, fingerprint) in [
        (
            &["q1"][..],
            CompileMode::HigherOrder,
            0xe1be_b54b_24eb_0613_u64,
        ),
        (
            &["axf", "bsp", "bsv"][..],
            CompileMode::HigherOrder,
            0xe1ff_ccc0_123d_c93c,
        ),
        (
            &["vwap"][..],
            CompileMode::HigherOrder,
            0xd297_c611_08c4_4346,
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

/// Every secondary index the per-event path reads exists before the first
/// event, and nothing builds one after. For every bundled query in every
/// compile mode: once the static views are initialized, each `(map, bound
/// positions)` a trigger statement's or static view's kernel scans with a
/// position free has its index; a replay of the query's stream — `:=`
/// statements clearing their targets included — leaves every map's hash and
/// ordered index counts as construction left them.
#[test]
fn indexes_are_declared_before_the_first_event() {
    use dbtoaster::agca::plan::template_mask;
    use dbtoaster::compiler::StmtOp;
    use dbtoaster::runtime::Engine;
    let catalog = workloads::full_catalog();
    let mut replaced = 0;
    for q in workloads::all_queries() {
        let mut data = small_dataset(q.family);
        data.truncate(if matches!(q.name, "mst" | "vwap") {
            100
        } else {
            300
        });
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let ctx = format!("{} [{mode}]", q.name);
            let program = QueryEngineBuilder::new(catalog.clone())
                .add_query(q.name, q.sql)
                .mode(mode)
                .build()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"))
                .program()
                .clone();
            let statements = program.triggers.iter().flat_map(|t| &t.statements);
            replaced += statements.filter(|s| s.op == StmtOp::Replace).count();
            let kernels: Vec<_> = program
                .triggers
                .iter()
                .flat_map(|t| t.statements.iter().map(|s| &s.kernel))
                .chain(program.maps.iter().filter_map(|m| m.init.as_ref()))
                .cloned()
                .collect();
            let mut engine = Engine::new(program, &catalog);
            for (table, rows) in &data.tables {
                engine.load_table(table, rows.clone());
            }
            engine.init_static_views().unwrap();
            for k in &kernels {
                for (rel, template) in k.scans() {
                    let mask = template_mask(template);
                    let view = engine.database().view(&k.rels[rel as usize]);
                    let view = view.and_then(|v| v.map()).expect("a kernel reads a map");
                    let partial = mask != 0 && mask != (1 << template.len()) - 1;
                    assert!(
                        !partial || view.has_index(mask),
                        "{ctx}: {}[{mask:#b}] is scanned but has no index",
                        k.rels[rel as usize]
                    );
                }
            }
            // Index counts per map, as the engine's telemetry reports them.
            engine.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
            let counts = |engine: &mut Engine| {
                engine.flush_telemetry();
                let snapshot = engine.telemetry().unwrap().snapshot();
                let counts = snapshot.views.iter().map(|v| {
                    (
                        v.name.clone(),
                        vec![v.get("indexes.hash"), v.get("indexes.ordered")],
                    )
                });
                counts.collect::<Vec<_>>()
            };
            let built = counts(&mut engine);
            for e in &data.events {
                engine
                    .process(e)
                    .unwrap_or_else(|err| panic!("{ctx}: {err}"));
            }
            assert_eq!(
                counts(&mut engine),
                built,
                "{ctx}: an index was built by a read"
            );
        }
    }
    assert!(replaced > 0, "no program clears a map");
}

/// The compiler keeps a value factor over a map's own key columns outside
/// the map, so a map of `price × volume` per price is `price ×` the map of
/// volumes per price, which exists already: `vwap` keeps two auxiliary maps,
/// not three (`m_vwap_3` is gone), and `mst`'s asks-side `Σ price · volume`
/// (`m_mst_6` of old) reads `m_mst_2`. No other workload program has such a
/// factor: the benchmark's other three programs render as pinned, byte for
/// byte (FNV-1a of the rendering; map and statement counts beside it). The
/// two TPC-H programs are pinned since q1's AVG halves stopped being maps of
/// their own: 43 → 41 maps and 126 → 122 statements, and 11 → 9 and 24 →
/// 20.
#[test]
fn key_weighted_maps_fold_and_other_programs_render_as_pinned() {
    fn fnv(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let program = |names: &[&str]| {
        let mut builder = QueryEngineBuilder::new(workloads::full_catalog());
        for name in names {
            let q = workloads::query(name).unwrap();
            builder = builder.add_query(q.name, q.sql);
        }
        builder.build().unwrap().program().clone()
    };
    for (names, maps, statements, rendering) in [
        (
            &["q1", "q3", "q6", "q10", "q12", "ssb4"][..],
            41,
            122,
            0xc683_672c_615e_64f8_u64,
        ),
        (&["q1", "q6", "q12"][..], 9, 20, 0xa0e4_97ac_160d_01a7),
        (&["axf", "bsp", "bsv"][..], 10, 22, 0x7430_482d_1e54_fa67),
    ] {
        let p = program(names);
        let counts = (p.maps.len(), p.statement_count());
        assert_eq!(counts, (maps, statements), "{names:?}");
        assert_eq!(fnv(&p.to_string()), rendering, "{names:?}:\n{p}");
    }
    let vwap = program(&["vwap"]);
    let names: Vec<&str> = vwap.maps.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["vwap", "m_vwap_1", "m_vwap_2"]);
    assert_eq!(vwap.statement_count(), 6);
    let mst = program(&["mst"]);
    assert_eq!((mst.maps.len(), mst.statement_count()), (8, 18));
    let text = mst.to_string();
    assert!(text.contains("$m_mst_2(a_price) * a_price * "), "{text}");
}
