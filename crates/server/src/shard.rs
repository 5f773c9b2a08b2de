//! # Sharded serving: scatter ingest, barrier flushes, merged reads
//!
//! [`ShardedViewServer`] wraps a [`ShardedEngine`] in one [`ViewServer`] per
//! shard (plus one for the exchange executor when the program has a global
//! slice). Each sub-server keeps the single-writer architecture — the shard
//! layer adds three things:
//!
//! * **Scatter ingest** — [`ShardedViewServer::send_batch`] routes every
//!   event to its owning shard by the partition rule of the compiler's
//!   shardability analysis ([`shard_for`]), preserving relative order within
//!   a shard. When an exchange executor runs, the full batch is also shipped
//!   to it (the delta-exchange path), with the traffic accounted in
//!   [`ExchangeStats`] and as `dbtoaster_exchange_*` counters on `/metrics`.
//! * **Global epoch barrier** — [`ShardedViewServer::flush`] barriers every
//!   shard *and* the executor: when it returns, all events enqueued before
//!   the call are applied and published everywhere. A
//!   [`ShardedViewServer::barrier_snapshot`] taken by the flushing producer
//!   is therefore consistent across views **and** shards: every per-shard
//!   snapshot covers the same scattered prefix of that producer's stream.
//! * **Merged reads** — snapshots and query results merge per-shard view
//!   slices by their [`MapClass`] (partitioned → disjoint union, summed →
//!   GMR addition, replicated → any shard, global → the executor), the same
//!   exactness argument as [`dbtoaster_runtime::shard`].
//!
//! Durability and the single-endpoint HTTP exporter are not supported in
//! sharded mode yet ([`ServeError::Unsupported`]); the `/metrics` and
//! `/healthz` bodies are exposed as methods instead
//! ([`ShardedViewServer::metrics_body`], [`ShardedViewServer::health_json`])
//! with per-shard `shard="…"` labels and per-shard status fields.
//!
//! [`ShardedEngine`]: dbtoaster_runtime::ShardedEngine
//! [`shard_for`]: dbtoaster_runtime::shard_for
//! [`ExchangeStats`]: dbtoaster_runtime::ExchangeStats
//! [`MapClass`]: dbtoaster_compiler::MapClass

use crate::server::{ServeError, ServerConfig, Snapshot, ViewServer};
use dbtoaster_agca::UpdateEvent;
use dbtoaster_compiler::shard::{MapClass, ShardPlan};
use dbtoaster_compiler::{ResultAccess, TriggerProgram};
use dbtoaster_gmr::{FastMap, Gmr};
use dbtoaster_runtime::{shard_for, EngineStats, ExchangeStats, RuntimeError, ShardedEngine};
use dbtoaster_telemetry::{merge_prometheus_labeled, Counter};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One row of [`ShardedViewServer::shard_status`]: the per-shard health
/// fields surfaced on `/healthz` (satisfying the ops contract that queue
/// depth, epoch and exchange backlog are observable per shard).
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// `"shard-N"`, or `"executor"` for the exchange executor.
    pub role: String,
    /// Events queued but not yet drained by this shard's writer.
    pub queue_depth: u64,
    /// This shard's published snapshot epoch.
    pub epoch: u64,
    /// Events applied by this shard's writer.
    pub events_applied: u64,
    /// Is this shard's snapshot degraded (runtime error observed)?
    pub degraded: bool,
}

/// A sharded serving deployment: one writer thread per shard plus an
/// optional exchange executor, with scatter ingest, barrier flushes and
/// merged reads. See the module docs.
pub struct ShardedViewServer {
    plan: ShardPlan,
    program: TriggerProgram,
    /// Maps and stored relations the *local* slice declares (merge routing).
    local_maps: BTreeSet<String>,
    local_stored: BTreeSet<String>,
    shards: Vec<ViewServer>,
    executor: Option<ViewServer>,
    exchange_batches: Counter,
    exchange_entries: Counter,
    exchange_bytes: Counter,
}

impl ShardedViewServer {
    /// Spawn one [`ViewServer`] per shard of `sharded` (plus the executor's).
    ///
    /// `config.durability` and `config.http` must be unset — the WAL is
    /// single-writer-per-directory and the HTTP exporter binds one shared
    /// state; both return [`ServeError::Unsupported`] under sharding.
    pub fn spawn(sharded: ShardedEngine, config: ServerConfig) -> Result<Self, ServeError> {
        if config.durability.is_some() {
            return Err(ServeError::Unsupported(
                "durability under sharded serving (run one durable server, or shard upstream)"
                    .into(),
            ));
        }
        if config.http.is_some() {
            return Err(ServeError::Unsupported(
                "the single-endpoint HTTP exporter under sharded serving (serve \
                 ShardedViewServer::metrics_body / health_json instead)"
                    .into(),
            ));
        }
        let (engines, executor_engine, plan, program) = sharded.into_parts();
        let first = engines.first().expect("at least one shard");
        let local_maps: BTreeSet<String> = first
            .program()
            .maps
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let local_stored: BTreeSet<String> = first.program().stored_relations.clone();
        let mut shards = Vec::with_capacity(engines.len());
        for engine in engines {
            shards.push(ViewServer::spawn(engine, vec![], config.clone())?);
        }
        let executor = match executor_engine {
            Some(engine) => Some(ViewServer::spawn(engine, vec![], config.clone())?),
            None => None,
        };
        // Exchange counters live on the executor's telemetry (the traffic
        // exists only when it does) and render on `/metrics` as
        // `dbtoaster_exchange_*{shard="executor"}`.
        let (exchange_batches, exchange_entries, exchange_bytes) = match &executor {
            Some(ex) => (
                ex.telemetry().counter("exchange_batches_total"),
                ex.telemetry().counter("exchange_entries_total"),
                ex.telemetry().counter("exchange_bytes_total"),
            ),
            None => (Counter::default(), Counter::default(), Counter::default()),
        };
        Ok(ShardedViewServer {
            plan,
            program,
            local_maps,
            local_stored,
            shards,
            executor,
            exchange_batches,
            exchange_entries,
            exchange_bytes,
        })
    }

    /// Number of shards (excluding the executor).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Does this deployment run an exchange executor?
    pub fn has_executor(&self) -> bool {
        self.executor.is_some()
    }

    /// The shardability analysis this deployment runs under.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The full (unsliced) program.
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// Exchange-traffic counters (all zero when fully shard-local).
    pub fn exchange_stats(&self) -> ExchangeStats {
        ExchangeStats {
            batches: self.exchange_batches.get(),
            entries: self.exchange_entries.get(),
            bytes: self.exchange_bytes.get(),
        }
    }

    /// Scatter a batch of events to their owning shards (bounded queues —
    /// blocks for backpressure like [`IngestHandle::send_batch`]) and ship
    /// the full batch to the exchange executor when one runs.
    ///
    /// [`IngestHandle::send_batch`]: crate::server::IngestHandle::send_batch
    pub fn send_batch(&self, events: Vec<UpdateEvent>) -> Result<usize, ServeError> {
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<UpdateEvent>> = (0..n).map(|_| Vec::new()).collect();
        if let Some(ex) = &self.executor {
            let mut bytes = 0u64;
            for ev in &events {
                bytes += 8 * (ev.tuple.len() as u64 + 1);
            }
            self.exchange_batches.inc();
            self.exchange_entries.add(events.len() as u64);
            self.exchange_bytes.add(bytes);
            ex.handle()
                .send_batch(events.iter().cloned())
                .map_err(|_| ServeError::Closed)?;
        }
        let total = events.len();
        for ev in events {
            let s = shard_for(&self.plan, &ev, n);
            per_shard[s].push(ev);
        }
        for (i, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.shards[i]
                .handle()
                .send_batch(batch)
                .map_err(|_| ServeError::Closed)?;
        }
        Ok(total)
    }

    /// Global epoch barrier: block until every event enqueued (by this
    /// producer) before the call is applied and published on every shard and
    /// on the executor. Returns the per-shard covering epochs, executor last.
    pub fn flush(&self) -> Result<Vec<u64>, ServeError> {
        let mut epochs = Vec::with_capacity(self.shards.len() + 1);
        for s in &self.shards {
            epochs.push(s.flush()?);
        }
        if let Some(ex) = &self.executor {
            epochs.push(ex.flush()?);
        }
        Ok(epochs)
    }

    /// A merged snapshot of the *currently published* per-shard snapshots.
    /// Each constituent is batch-atomic on its shard; for a cut that is also
    /// consistent **across** shards, barrier first (or use
    /// [`ShardedViewServer::barrier_snapshot`]) and keep producers quiescent
    /// for the read.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let shard_snaps: Vec<Arc<Snapshot>> =
            self.shards.iter().map(|s| s.current_snapshot()).collect();
        let exec_snap = self.executor.as_ref().map(|e| e.current_snapshot());
        let epoch = shard_snaps
            .iter()
            .chain(exec_snap.iter())
            .map(|s| s.epoch())
            .sum();
        let events = shard_snaps.iter().map(|s| s.events_applied()).sum();
        let degraded = shard_snaps
            .iter()
            .chain(exec_snap.iter())
            .any(|s| s.degraded());
        let views = self.merge_views(&shard_snaps, exec_snap.as_ref());
        Arc::new(Snapshot::assemble(epoch, events, degraded, views))
    }

    /// [`ShardedViewServer::flush`] + [`ShardedViewServer::snapshot`]: an
    /// epoch-pinned, cross-view **and** cross-shard consistent cut covering
    /// everything this producer enqueued before the call.
    pub fn barrier_snapshot(&self) -> Result<Arc<Snapshot>, ServeError> {
        self.flush()?;
        Ok(self.snapshot())
    }

    /// Snapshot a query result as a GMR over its output columns, merged
    /// across shards (mirrors `Engine::result` on the merged state).
    pub fn result(&self, query: &str) -> Result<Gmr, ServeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| ServeError::UnknownQuery(query.to_string()))?;
        let ResultAccess::Map(name) = &qr.access;
        self.snapshot()
            .view(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownView(name.clone()))
    }

    /// Merged engine + serving statistics, summed across shards (the
    /// executor's duplicate copy of the stream is excluded so `events`
    /// counts each ingested event once).
    pub fn stats(&self) -> EngineStats {
        let mut out = self.shards[0].stats();
        for s in &self.shards[1..] {
            let st = s.stats();
            out.events += st.events;
            out.statements += st.statements;
            out.busy += st.busy;
            out.batches += st.batches;
            out.delta_batches += st.delta_batches;
            out.batch_events_collapsed += st.batch_events_collapsed;
            out.snapshots_published += st.snapshots_published;
            out.subscriber_deltas += st.subscriber_deltas;
            out.batch_delta_runs += st.batch_delta_runs;
            out.entry_major_runs += st.entry_major_runs;
        }
        out
    }

    /// Per-shard status rows (queue depth, epoch, events, degradation), with
    /// the executor last under the role `"executor"`. The executor's queue
    /// depth is the **exchange backlog** — deltas shipped but not yet
    /// applied.
    pub fn shard_status(&self) -> Vec<ShardStatus> {
        let row = |role: String, s: &ViewServer| {
            let snap = s.current_snapshot();
            ShardStatus {
                role,
                queue_depth: s.queue_depth(),
                epoch: s.epoch(),
                events_applied: snap.events_applied(),
                degraded: snap.degraded(),
            }
        };
        let mut out: Vec<ShardStatus> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| row(format!("shard-{i}"), s))
            .collect();
        if let Some(ex) = &self.executor {
            out.push(row("executor".into(), ex));
        }
        out
    }

    /// The `/healthz` body for the whole deployment: overall verdict (every
    /// writer alive) plus one embedded object per shard with its queue
    /// depth, epoch and the exchange backlog fields.
    pub fn health_json(&self) -> (bool, String) {
        let mut healthy = true;
        let mut parts = Vec::new();
        let mut push = |role: &str, s: &ViewServer| {
            let (ok, body) = s.health_json();
            healthy &= ok;
            parts.push(format!("\"{role}\":{body}"));
        };
        for (i, s) in self.shards.iter().enumerate() {
            push(&format!("shard-{i}"), s);
        }
        if let Some(ex) = &self.executor {
            push("executor", ex);
        }
        let ex_stats = self.exchange_stats();
        let backlog = self.executor.as_ref().map_or(0, |e| e.queue_depth());
        let body = format!(
            "{{\"status\":\"{}\",\"shards\":{},\"exchange_backlog\":{},\
             \"exchange_batches\":{},\"exchange_entries\":{},\"exchange_bytes\":{},{}}}",
            if healthy { "ok" } else { "unhealthy" },
            self.shards.len(),
            backlog,
            ex_stats.batches,
            ex_stats.entries,
            ex_stats.bytes,
            parts.join(","),
        );
        (healthy, body)
    }

    /// The `/metrics` body for the whole deployment: every shard's
    /// Prometheus families merged with a `shard="N"` label (executor under
    /// `shard="executor"`), including the `dbtoaster_exchange_*` counters.
    pub fn metrics_body(&self) -> String {
        let mut parts: Vec<(String, String)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i.to_string(), s.render_prometheus()))
            .collect();
        if let Some(ex) = &self.executor {
            parts.push(("executor".to_string(), ex.render_prometheus()));
        }
        merge_prometheus_labeled("shard", &parts)
    }

    /// The first runtime error recorded by any shard's writer, if any.
    pub fn last_error(&self) -> Option<RuntimeError> {
        self.shards
            .iter()
            .chain(self.executor.iter())
            .find_map(|s| s.last_error())
    }

    /// Stop every writer after draining queued events.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        for s in self.shards.drain(..) {
            s.shutdown()?;
        }
        if let Some(ex) = self.executor.take() {
            ex.shutdown()?;
        }
        Ok(())
    }

    /// Merge per-shard snapshot views by map class (see the module docs and
    /// `dbtoaster_runtime::shard` for the exactness argument).
    fn merge_views(
        &self,
        shards: &[Arc<Snapshot>],
        executor: Option<&Arc<Snapshot>>,
    ) -> FastMap<String, Gmr> {
        let mut names: Vec<&str> = self.program.maps.iter().map(|m| m.name.as_str()).collect();
        names.extend(self.program.stored_relations.iter().map(String::as_str));
        names.extend(self.program.static_tables.iter().map(String::as_str));
        names.sort_unstable();
        names.dedup();
        let sum_over = |name: &str| -> Option<Gmr> {
            let first = shards[0].view(name)?;
            let mut out = Gmr::new(first.schema().clone());
            for s in shards {
                for (t, mult) in s.view(name)?.iter() {
                    out.add_tuple(t.clone(), mult);
                }
            }
            Some(out)
        };
        let mut out = FastMap::default();
        for name in names {
            let merged = if self.program.static_tables.contains(name) {
                shards[0].view(name).cloned()
            } else if self.program.stored_relations.contains(name) {
                if self.local_stored.contains(name) {
                    sum_over(name)
                } else {
                    executor.and_then(|e| e.view(name).cloned())
                }
            } else {
                match self.plan.class(name) {
                    MapClass::Replicated => {
                        if self.local_maps.contains(name) {
                            shards[0].view(name).cloned()
                        } else {
                            executor.and_then(|e| e.view(name).cloned())
                        }
                    }
                    MapClass::Global => executor.and_then(|e| e.view(name).cloned()),
                    MapClass::Partitioned(_) | MapClass::Summed => sum_over(name),
                }
            };
            if let Some(g) = merged {
                out.insert(name.to_string(), g);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::Expr;
    use dbtoaster_compiler::{
        compile, Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta,
    };
    use dbtoaster_gmr::Value;
    use dbtoaster_runtime::Engine;
    use std::collections::BTreeMap;

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

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
        let mut out = Vec::new();
        let mut x: i64 = 3;
        for i in 0..150 {
            x = (x * 48271) % 2147483647;
            let a = Value::long(x % 11);
            let b = Value::long((x / 11) % 7);
            if i % 2 == 0 {
                out.push(UpdateEvent::insert("R", vec![a, b]));
            } else {
                out.push(UpdateEvent::insert("S", vec![b, a]));
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

    fn program() -> dbtoaster_compiler::TriggerProgram {
        compile(
            &queries(),
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap()
    }

    #[test]
    fn sharded_server_matches_single_engine() {
        let catalog = catalog();
        let evs = events();
        let mut reference = Engine::new(program(), &catalog);
        for e in &evs {
            reference.process(e).unwrap();
        }

        let sharded = ShardedEngine::new(program(), &catalog, 3);
        let server = ShardedViewServer::spawn(sharded, ServerConfig::default()).unwrap();
        assert!(server.has_executor());
        server.send_batch(evs.clone()).unwrap();
        let snap = server.barrier_snapshot().unwrap();
        assert_eq!(snap.events_applied(), evs.len() as u64);
        for q in ["JOINB", "CROSS"] {
            let want = canon(&reference.result(q).unwrap());
            let got = canon(&server.result(q).unwrap());
            assert_eq!(got, want, "{q}");
        }
        let ex = server.exchange_stats();
        assert!(ex.batches > 0 && ex.entries > 0 && ex.bytes > 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn health_and_metrics_carry_per_shard_fields() {
        let catalog = catalog();
        let sharded = ShardedEngine::new(program(), &catalog, 2);
        let server = ShardedViewServer::spawn(sharded, ServerConfig::default()).unwrap();
        server.send_batch(events()).unwrap();
        server.flush().unwrap();

        let status = server.shard_status();
        assert_eq!(status.len(), 3, "2 shards + executor");
        assert_eq!(status[0].role, "shard-0");
        assert_eq!(status[2].role, "executor");
        assert!(status.iter().all(|s| s.queue_depth == 0), "{status:?}");
        assert!(status.iter().all(|s| s.epoch > 0), "{status:?}");
        let applied: u64 = status[..2].iter().map(|s| s.events_applied).sum();
        assert_eq!(applied, 150);

        let (healthy, body) = server.health_json();
        assert!(healthy, "{body}");
        for needle in [
            "\"shard-0\":{",
            "\"shard-1\":{",
            "\"executor\":{",
            "\"exchange_backlog\":",
            "\"exchange_bytes\":",
            "\"ingest_queue_depth\":",
        ] {
            assert!(body.contains(needle), "missing {needle} in {body}");
        }

        let metrics = server.metrics_body();
        for needle in [
            "shard=\"0\"",
            "shard=\"1\"",
            "shard=\"executor\"",
            "dbtoaster_exchange_bytes_total",
        ] {
            assert!(metrics.contains(needle), "missing {needle}");
        }
        // Families must be declared exactly once despite three renders.
        assert_eq!(metrics.matches("# TYPE dbtoaster_events_total").count(), 1);
        server.shutdown().unwrap();
    }

    #[test]
    fn sharded_spawn_rejects_durability_and_http() {
        let catalog = catalog();
        let sharded = ShardedEngine::new(program(), &catalog, 2);
        let cfg = ServerConfig {
            durability: Some(dbtoaster_durability::DurabilityConfig::new("/tmp/nope")),
            ..ServerConfig::default()
        };
        assert!(matches!(
            ShardedViewServer::spawn(sharded, cfg),
            Err(ServeError::Unsupported(_))
        ));
    }
}
