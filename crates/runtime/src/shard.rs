//! # Shard-parallel execution: partition the delta ring across engines
//!
//! A [`ShardedEngine`] runs the same compiled [`TriggerProgram`] on `N`
//! independent [`Engine`] instances, each owning a hash-partition of every
//! base relation. The partitioning rule comes from the compiler's
//! shardability analysis ([`analyze_sharding`]): each stream relation gets a
//! partition column, and every trigger statement is classified *shard-local*
//! (all probes are provably on the partition key, so the statement over a
//! shard's slice of the stream reads only shard-owned state) or *global*
//! (some probe crosses partitions).
//!
//! [`slice_program`] splits the program accordingly:
//!
//! * the **local slice** runs on every shard, over that shard's partition of
//!   the event stream;
//! * the **global slice** (if any statement needs it) runs on the *exchange
//!   executor* — one extra engine that receives every shard's
//!   [`RelationDelta`]s (the [`RelationDelta::to_gmr`] interchange form,
//!   re-batched in stream order) and maintains exactly the maps no partition
//!   key can localize.
//!
//! ## Why the merge is exact
//!
//! Every map the local slice maintains falls into a [`MapClass`]:
//!
//! * [`MapClass::Partitioned`] — the map's key contains the partition
//!   column, so shard slices have **disjoint** key sets and the merged map
//!   is their union (GMR addition over disjoint keys — no float
//!   reassociation at all).
//! * [`MapClass::Summed`] — shard slices are partial aggregates over
//!   disjoint input partitions; GMR addition merges them. Exact under exact
//!   arithmetic (the integer-valued streams of the equivalence suite stay
//!   bit-exact; float streams reassociate one addition per shard).
//! * [`MapClass::Replicated`] — static-table derived, identical everywhere;
//!   take any shard's copy.
//! * [`MapClass::Global`] — lives only on the exchange executor, which sees
//!   the full stream; take its copy.
//!
//! Because every statement is an `Increment` computing a pure state
//! difference (the analysis sends `:=` programs to the executor wholesale),
//! processing a shard's sub-stream is order-insensitive with respect to the
//! other shards' events — the same final-state invariant that justifies
//! batch run-merging justifies the scatter here.
//!
//! [`analyze_sharding`]: dbtoaster_compiler::analyze_sharding
//! [`slice_program`]: dbtoaster_compiler::slice_program
//! [`MapClass`]: dbtoaster_compiler::MapClass
//! [`RelationDelta`]: dbtoaster_agca::RelationDelta
//! [`RelationDelta::to_gmr`]: dbtoaster_agca::RelationDelta::to_gmr

use crate::engine::{BatchReport, Engine, RuntimeError};
use dbtoaster_agca::batch::DeltaBatch;
use dbtoaster_agca::UpdateEvent;
use dbtoaster_compiler::program::{Catalog, ResultAccess, TriggerProgram};
use dbtoaster_compiler::shard::{analyze_sharding, slice_program, MapClass, ShardPlan};
use dbtoaster_gmr::hash::{FastMap, FxBuildHasher};
use dbtoaster_gmr::{Gmr, Value};
use std::hash::BuildHasher;

/// Exchange-traffic counters: what the shards ship to the exchange executor.
///
/// Bytes are the interchange-form estimate — each shipped delta entry is its
/// tuple (8 bytes per value) plus an 8-byte multiplicity, per
/// [`RelationDelta::to_gmr`]'s positional GMR encoding.
///
/// [`RelationDelta::to_gmr`]: dbtoaster_agca::RelationDelta::to_gmr
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeStats {
    /// Delta batches shipped to the executor.
    pub batches: u64,
    /// Coalesced delta entries shipped.
    pub entries: u64,
    /// Interchange-form bytes shipped.
    pub bytes: u64,
}

/// `N` engines over hash-partitioned slices of the stream, plus an optional
/// exchange executor for the statements no partition key can localize. See
/// the module docs for the partitioning rule and the merge argument.
pub struct ShardedEngine {
    /// The full (unsliced) program: result access, map classes and relation
    /// metadata for merged reads.
    program: TriggerProgram,
    plan: ShardPlan,
    shards: Vec<Engine>,
    executor: Option<Engine>,
    exchange: ExchangeStats,
    /// Scatter buffers, pooled across batches (index = shard).
    scatter: Vec<DeltaBatch>,
}

impl ShardedEngine {
    /// Build a sharded deployment of `program` with `n` shards (`n >= 1`).
    ///
    /// Runs the shardability analysis, slices the program, and constructs
    /// `n` engines on the local slice plus (when any statement or map is
    /// global) one executor on the global slice.
    pub fn new(program: TriggerProgram, catalog: &Catalog, n: usize) -> Self {
        let n = n.max(1);
        let plan = analyze_sharding(&program);
        let slices = slice_program(&program, &plan, catalog);
        let shards: Vec<Engine> = (0..n)
            .map(|_| Engine::new(slices.local.clone(), catalog))
            .collect();
        let executor = slices.global.map(|g| Engine::new(g, catalog));
        ShardedEngine {
            program,
            plan,
            shards,
            executor,
            exchange: ExchangeStats::default(),
            scatter: Vec::new(),
        }
    }

    /// The shardability analysis this deployment runs under.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Does this deployment run an exchange executor?
    pub fn has_executor(&self) -> bool {
        self.executor.is_some()
    }

    /// Exchange-traffic counters (zero when fully shard-local).
    pub fn exchange_stats(&self) -> ExchangeStats {
        self.exchange
    }

    /// The shard that owns `event`: hash of the partition-column value when
    /// the relation has one, hash of the whole tuple otherwise (any
    /// deterministic spread keeps correctness — unpartitioned relations only
    /// feed `Summed`/`Global` maps). The hasher is the workspace's seedless
    /// [`FxBuildHasher`], so placement is reproducible across runs.
    pub fn shard_of(&self, event: &UpdateEvent) -> usize {
        let h = match self.plan.partition_index(&event.relation) {
            Some(i) if i < event.tuple.len() => FxBuildHasher::default().hash_one(&event.tuple[i]),
            _ => FxBuildHasher::default().hash_one(&event.tuple),
        };
        (h % self.shards.len() as u64) as usize
    }

    /// Decompose into the engines and the plan they were sliced by:
    /// `(shard engines, executor engine, plan, full program)`.
    pub fn into_parts(self) -> (Vec<Engine>, Option<Engine>, ShardPlan, TriggerProgram) {
        (self.shards, self.executor, self.plan, self.program)
    }

    /// Broadcast a static-table load to every engine (tables are replicated).
    pub fn load_table(&mut self, name: &str, rows: &[Vec<Value>]) {
        for e in self.shards.iter_mut().chain(self.executor.as_mut()) {
            e.load_table(name, rows.iter().cloned());
        }
    }

    /// Initialize table-derived views on every engine.
    pub fn init_static_views(&mut self) -> Result<(), RuntimeError> {
        for e in self.shards.iter_mut().chain(self.executor.as_mut()) {
            e.init_static_views()?;
        }
        Ok(())
    }

    /// Process a batch of events: scatter by partition key into per-shard
    /// delta batches (relative order preserved within each shard), run every
    /// shard's batch, then ship the full batch to the exchange executor.
    ///
    /// The executor's copy *is* the delta exchange: each shard's contribution
    /// rides in as the coalesced [`RelationDelta`] entries of its sub-stream,
    /// and [`ExchangeStats`] accounts the interchange-form traffic.
    ///
    /// [`RelationDelta`]: dbtoaster_agca::RelationDelta
    pub fn process_events(&mut self, events: &[UpdateEvent]) -> BatchReport {
        while self.scatter.len() < self.shards.len() {
            self.scatter.push(DeltaBatch::new());
        }
        for b in &mut self.scatter {
            b.clear();
        }
        for ev in events {
            let s = self.shard_of(ev);
            self.scatter[s].push(ev);
        }
        let mut report = BatchReport {
            events: events.len() as u64,
            ..BatchReport::default()
        };
        let fold = |report: &mut BatchReport, r: BatchReport| {
            report.failed_events += r.failed_events;
            if report.first_error.is_none() {
                report.first_error = r.first_error;
            }
            report.runs.extend(r.runs);
        };
        for (i, engine) in self.shards.iter_mut().enumerate() {
            let batch = &self.scatter[i];
            if batch.is_empty() {
                continue;
            }
            let r = engine.process_batch(batch);
            fold(&mut report, r);
        }
        if let Some(executor) = self.executor.as_mut() {
            let batch = DeltaBatch::from_events(events);
            self.exchange.batches += 1;
            for run in batch.runs() {
                let entries = run.entries().len() as u64;
                self.exchange.entries += entries;
                self.exchange.bytes += entries * 8 * (run.arity() as u64 + 1);
            }
            let r = executor.process_batch(&batch);
            // The executor refuses what the shards refused; the shards
            // already counted it.
            if report.first_error.is_none() {
                report.first_error = r.first_error;
            }
        }
        report
    }

    /// The merged value of one view (map, stored relation or static table),
    /// per its [`MapClass`] (see the module docs for the merge argument).
    ///
    /// [`MapClass`]: dbtoaster_compiler::MapClass
    pub fn merged_view(&self, name: &str) -> Option<Gmr> {
        let local = self.shards[0].program();
        if self.program.static_tables.contains(name) {
            return self.shards[0].view(name);
        }
        if self.program.stored_relations.contains(name) {
            // Stored slices are disjoint by the scatter, so addition is a
            // disjoint union; the executor stores the full relation.
            if local.stored_relations.contains(name) {
                return self.sum_over_shards(name);
            }
            return self.executor.as_ref().and_then(|e| e.view(name));
        }
        match self.plan.class(name) {
            MapClass::Replicated => {
                let src = if local.maps.iter().any(|m| m.name == name) {
                    &self.shards[0]
                } else {
                    self.executor.as_ref()?
                };
                src.view(name)
            }
            MapClass::Global => self.executor.as_ref().and_then(|e| e.view(name)),
            MapClass::Partitioned(_) | MapClass::Summed => self.sum_over_shards(name),
        }
    }

    fn sum_over_shards(&self, name: &str) -> Option<Gmr> {
        let first = self.shards[0].view(name)?;
        let mut out = Gmr::new(first.schema().clone());
        for shard in &self.shards {
            for (t, mult) in shard.view(name)?.iter() {
                out.add_tuple(t.clone(), mult);
            }
        }
        Some(out)
    }

    /// A merged point-in-time snapshot of every view the full program
    /// declares: shard-count-invariant by construction (see module docs).
    pub fn merged_snapshot(&self) -> FastMap<String, Gmr> {
        let mut names: Vec<&str> = self.program.maps.iter().map(|m| m.name.as_str()).collect();
        names.extend(self.program.stored_relations.iter().map(String::as_str));
        names.extend(self.program.static_tables.iter().map(String::as_str));
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .filter_map(|n| self.merged_view(n).map(|g| (n.to_string(), g)))
            .collect()
    }

    /// Snapshot a query result as a GMR over its output columns, merged
    /// across shards. Mirrors [`Engine::result`] on the merged state.
    pub fn result(&self, query: &str) -> Result<Gmr, RuntimeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| RuntimeError::UnknownQuery(query.to_string()))?;
        let ResultAccess::Map(name) = &qr.access;
        self.merged_view(name)
            .ok_or_else(|| RuntimeError::UnknownView(name.clone()))
    }

    /// Total events processed (sum of per-shard counts; the executor's copy
    /// of the stream is not double-counted).
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|e| e.stats().events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::Expr;
    use dbtoaster_compiler::prelude::*;
    use dbtoaster_compiler::program::{QuerySpec, RelationMeta};
    use std::collections::BTreeMap;

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

    /// R ⋈ S on B grouped by B (fully shard-local) plus a scalar cross
    /// product of R with itself (forces the exchange executor).
    fn queries() -> Vec<QuerySpec> {
        vec![
            QuerySpec {
                name: "JOINB".into(),
                out_vars: vec!["b".into()],
                expr: Expr::agg_sum(
                    ["b"],
                    Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("S", ["b", "c"])]),
                ),
            },
            QuerySpec {
                name: "CROSS".into(),
                out_vars: vec![],
                expr: Expr::agg_sum(
                    Vec::<String>::new(),
                    Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("R", ["a2", "b2"])]),
                ),
            },
        ]
    }

    fn events() -> Vec<UpdateEvent> {
        // Deterministic little LCG over integer keys: inserts with periodic
        // deletes of previously inserted tuples, spread over both relations.
        let mut out = Vec::new();
        let mut x: i64 = 7;
        for i in 0..200 {
            x = (x * 1103515245 + 12345) % 1000;
            let a = Value::long(x.abs() % 17);
            let b = Value::long((x.abs() / 17) % 13);
            if i % 2 == 0 {
                out.push(UpdateEvent::insert("R", vec![a, b]));
            } else {
                out.push(UpdateEvent::insert("S", vec![b, a]));
            }
            if i % 7 == 3 && i >= 14 {
                // Re-delete an event from 14 steps ago (same generator state).
                let prior = &out[i - 14];
                out.push(UpdateEvent {
                    relation: prior.relation.clone(),
                    sign: dbtoaster_agca::UpdateSign::Delete,
                    tuple: prior.tuple.clone(),
                });
            }
        }
        out
    }

    fn canon(g: &Gmr) -> BTreeMap<String, f64> {
        g.iter()
            .filter(|(_, m)| *m != 0.0)
            .map(|(t, m)| (format!("{t:?}"), m))
            .collect()
    }

    fn canon_all(s: &FastMap<String, Gmr>) -> BTreeMap<String, BTreeMap<String, f64>> {
        s.iter()
            .map(|(n, g)| (n.clone(), canon(g)))
            .filter(|(_, m)| !m.is_empty())
            .collect()
    }

    #[test]
    fn merged_snapshot_is_shard_count_invariant() {
        let catalog = catalog();
        let program = compile(
            &queries(),
            &catalog,
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let evs = events();

        // Reference: one plain engine over the whole stream.
        let mut reference = Engine::new(program.clone(), &catalog);
        for e in &evs {
            reference.process(e).unwrap();
        }
        let want = canon_all(&reference.snapshot());

        for n in [1usize, 2, 4, 8] {
            let mut sharded = ShardedEngine::new(program.clone(), &catalog, n);
            assert!(sharded.has_executor(), "CROSS forces the exchange path");
            let report = sharded.process_events(&evs);
            assert!(report.first_error.is_none(), "{report:?}");
            assert_eq!(report.events, evs.len() as u64);
            let got = canon_all(&sharded.merged_snapshot());
            assert_eq!(got, want, "merged snapshot must be {n}-shard invariant");
            if n > 1 {
                let ex = sharded.exchange_stats();
                assert!(ex.batches > 0 && ex.entries > 0 && ex.bytes > 0);
            }
        }
    }

    #[test]
    fn merged_result_matches_reference_per_query() {
        let catalog = catalog();
        let program = compile(
            &queries(),
            &catalog,
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let evs = events();
        let mut reference = Engine::new(program.clone(), &catalog);
        for e in &evs {
            reference.process(e).unwrap();
        }
        let mut sharded = ShardedEngine::new(program.clone(), &catalog, 3);
        sharded.process_events(&evs);
        for q in ["JOINB", "CROSS"] {
            let want = canon(&reference.result(q).unwrap());
            let got = canon(&sharded.result(q).unwrap());
            assert_eq!(got, want, "{q}");
        }
        // Events are counted once despite the executor's full copy.
        assert_eq!(sharded.events(), evs.len() as u64);
    }

    #[test]
    fn scatter_routes_by_partition_column() {
        let catalog = catalog();
        let program = compile(
            &queries()[..1], // JOINB only: fully local, R partitions on B
            &catalog,
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let sharded = ShardedEngine::new(program, &catalog, 4);
        assert!(!sharded.has_executor());
        // Same partition-key value ⇒ same shard, for both relations (R.B is
        // column 1, S.B is column 0 — co-partitioned on the join key).
        let b = Value::long(42);
        let r1 = UpdateEvent::insert("R", vec![Value::long(1), b.clone()]);
        let r2 = UpdateEvent::insert("R", vec![Value::long(2), b.clone()]);
        let s1 = UpdateEvent::insert("S", vec![b.clone(), Value::long(9)]);
        assert_eq!(sharded.shard_of(&r1), sharded.shard_of(&r2));
        assert_eq!(sharded.shard_of(&r1), sharded.shard_of(&s1));
    }
}
