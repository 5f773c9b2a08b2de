//! Shard-count equivalence: partitioned execution must be invisible.
//!
//! For any stream, any partition of it into ingest batches and 1, 2 or 4
//! shards, [`ShardedEngine`]'s merged views equal one engine fed the same
//! batches, per-event processing, and every map's definition recomputed from
//! the final base relations. The shared driver (`common`) checks it over
//! three seeded slices of generated programs: those whose shard plan is
//! shard-local, those that need the exchange executor, and multi-query
//! programs that mix both. On integer data every merge class is exact; on
//! float data a summed map may differ in bits, by at most 1e-9 relative
//! (`workload_queries_merge_exactly_across_shard_counts`), and so may any map
//! at a point with the live passes cleared, which a shard's slice re-derives.

mod common;

use common::{Partition, Point, Recompute};
use dbtoaster::compiler::CompileMode;
use dbtoaster::runtime::ShardedEngine;
use dbtoaster::workloads;

/// The equi-join and group-by shapes, keyed on the shared column, must
/// compile to an executor-free plan that ships nothing, and the inequality
/// self-join, which shares no variable, must force the exchange executor and
/// ship bytes; otherwise the slices below silently degenerate. (What the
/// slices reach is pinned by the census in `plan_equivalence`.)
#[test]
fn query_sets_span_both_shard_plans() {
    use common::Shape::{EquiJoin, GroupBy, Inequality};
    for (shapes, exchanges) in [(&[EquiJoin, GroupBy][..], false), (&[Inequality][..], true)] {
        let case = common::shaped(shapes, 11, 200);
        let mut sharded =
            ShardedEngine::new(case.compile(CompileMode::HigherOrder), &case.catalog, 4);
        let plan = format!("{shapes:?}: {:?}", sharded.plan());
        assert_eq!(sharded.has_executor(), exchanges, "{plan}");
        let report = sharded.process_events(&case.events);
        assert!(report.first_error.is_none(), "{plan}: {report:?}");
        let shipped = sharded.exchange_stats().bytes;
        assert_eq!(shipped > 0, exchanges, "{plan}: shipped {shipped} bytes");
    }
}

/// The real workload queries cover both plan shapes too: at least one fully
/// shard-local query and at least one that exchanges.
#[test]
fn workload_queries_span_both_shard_plans() {
    let cat = common::workload_catalog();
    let (mut local, mut exchanging) = (Vec::new(), Vec::new());
    for q in workloads::all_queries() {
        let program = common::workload_program(&[q.name], CompileMode::HigherOrder);
        if ShardedEngine::new(program, &cat, 2).has_executor() {
            exchanging.push(q.name);
        } else {
            local.push(q.name);
        }
    }
    let plans = format!("local: {local:?}, exchanging: {exchanging:?}");
    assert!(!local.is_empty() && !exchanging.is_empty(), "{plans}");
}

/// Workload queries over generated workload data (float prices, static
/// tables loaded), batches of 256, at 1, 2 and 4 shards. The float contract,
/// per map: bits may differ only for a [`MapClass::Summed`] map, whose merge
/// adds per-shard partial sums in a different order than one engine does,
/// and then by at most 1e-9 relative. Every other class is a disjoint union,
/// a copy, or the executor's full-stream map, and must be bit-exact. (On this
/// stream only `q1`'s summed aggregates drift, at 2 and 4 shards.)
///
/// [`MapClass::Summed`]: dbtoaster::compiler::MapClass::Summed
#[test]
fn workload_queries_merge_exactly_across_shard_counts() {
    for name in ["q1", "q3", "q6", "vwap", "axf"] {
        let q = workloads::query(name).unwrap();
        let data = workloads::dataset_for(q.family, 2_000, 42);
        let case = common::Case::sql(&[name], data, true);
        let point = Point {
            shards: &[1, 2, 4],
            ..Point::plain(CompileMode::HigherOrder, Partition::Fixed(256))
        };
        common::check(&case, &[point]);
    }
}

/// Ordered secondary indexes are declared from the kernels of whatever
/// program an engine runs, so every slice of a sharded program — `bsp`'s
/// shard-local slices, `axf`'s exchange executor — must come out with the
/// indexes of the maps it keeps: the merged views equal the unsharded engine
/// bit for bit, and each slice's index holds exactly its map's entries.
#[test]
fn ordered_indexes_survive_shard_slicing() {
    let cat = common::workload_catalog();
    let events = workloads::finance::generate(&workloads::FinanceConfig {
        events: 3_000,
        seed: 9,
        ..Default::default()
    })
    .events;
    for (name, exchanges) in [("bsp", false), ("axf", true)] {
        let program = common::workload_program(&[name], CompileMode::HigherOrder);
        let declared = program.ordered_indexes();
        assert!(!declared.is_empty(), "{name}: nothing to survive");
        let reference = common::per_event(&program, &cat, &events);

        let mut sharded = ShardedEngine::new(program.clone(), &cat, 2);
        assert_eq!(sharded.has_executor(), exchanges, "{name}");
        for chunk in events.chunks(97) {
            assert!(sharded.process_events(chunk).first_error.is_none());
        }
        let merged = |m: &str| sharded.merged_view(m);
        common::assert_views(name, &program, &|m| reference.view(m), &merged, &|_| 0.0);
        Recompute::new(&cat, &Default::default(), &events).check(name, &program, &merged, 0.0);

        let (shards, executor, _, _) = sharded.into_parts();
        let mut indexed = 0;
        for mut engine in shards.into_iter().chain(executor) {
            let ex = engine.explain();
            for m in &ex.maps {
                let live = m.analyze.expect("a live engine attaches its indexes");
                let entries = engine.view(&m.name).unwrap().len() as u64;
                let (counts, ctx) = ((live.hash, live.ordered, live.entries), &m.name);
                assert_eq!(counts, (0, 1, entries), "{name}: {ctx}");
                indexed += entries;
            }
        }
        let views = declared.iter().map(|d| reference.view(&d.map));
        let total: usize = views.map(|v| v.unwrap().len()).sum();
        assert_eq!(indexed, total as u64, "{name}: indexed entries");
    }
}

/// Generated programs whose every map lives on one shard: N shards ≡ one
/// engine ≡ per-event ≡ recomputed, all modes.
#[test]
fn local_plans_are_bit_exact_across_shard_counts() {
    common::run_slice(common::Lean::Local);
}

/// Generated programs no partitioning co-locates: the exchange executor must
/// carry the result bit-exactly at every shard count.
#[test]
fn exchange_plans_are_bit_exact_across_shard_counts() {
    common::run_slice(common::Lean::Exchange);
}

/// Several queries compiled together share one shard plan (executor present
/// for the cross maps, partitioned maps still merged from the shards): the
/// merge must stay exact per map class.
#[test]
fn mixed_programs_are_bit_exact_across_shard_counts() {
    common::run_slice(common::Lean::Mixed);
}
