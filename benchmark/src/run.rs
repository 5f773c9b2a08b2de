//! One workload, one process: build the inputs from the seed, run the
//! phases, check the outputs, and collect the metrics.

use crate::check::{compare, table_of};
use crate::inputs::{clone_events, generate};
use crate::layers::{self, BatchPass, Build, DurabilityLayers, PerEventPass};
use crate::phases::{self, Paced, Saturation, SubReplay};
use crate::spec::{self, Spec, LOAD_THREADS, REL_TOLERANCE};
use crate::stats::summarize;
use crate::trace::Tracer;
use crate::{host, report::Metric, rounds};
use dbtoaster::prelude::*;
use dbtoaster::runtime::EngineStats;
use dbtoaster::workloads::Dataset;
use dbtoaster::ResultTable;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long an untraced run repeats its timed phases.
    pub seconds: f64,
    pub trace: bool,
    /// Stream lengths are divided by this; 1 except in the smoke test.
    pub shrink: usize,
    /// Where the WAL directory and the span file go.
    pub out_dir: PathBuf,
}

#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; empty means correct.
    pub errors: Vec<String>,
    /// Generator self-check failures: the run measured nothing usable.
    pub invalid: Vec<String>,
    /// What the gate compared, for the log.
    pub notes: Vec<String>,
    pub provenance: Vec<(&'static str, String)>,
    pub trace_file: Option<PathBuf>,
    /// How late each paced event was handed over, pooled over the replicas.
    late_ns: Vec<f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Everything one pass of the served phases produced.
struct Served {
    spawn: Duration,
    in_memory: Option<Saturation>,
    saturation: Saturation,
    after_saturation: EngineStats,
    stages: MetricsSnapshot,
    writer_wall: Duration,
    paced: Paced,
    final_stats: EngineStats,
    sub: Option<(u64, u64)>,
    recover_s: f64,
    replayed_events: u64,
}

/// In the traced run's batch-512 pass a snapshot is taken after every fourth
/// batch (the server takes one after each): what one snapshot costs does not
/// depend on how many batches it covers, and four times fewer keep the traced
/// run of `tpch_dash` inside its time budget.
const SNAPSHOT_EVERY: usize = 4;

/// One replica of the workload: its own stream, engine and server.
pub(crate) struct Replica<'a> {
    pub(crate) spec: &'a Spec,
    pub(crate) opts: &'a Options,
    pub(crate) index: usize,
    pub(crate) seed: u64,
    pub(crate) data: &'a Dataset,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) out: &'a mut Outcome,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = spec::spec(&opts.workload).ok_or_else(|| {
        let names: Vec<_> = spec::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {:?}; one of {names:?}", opts.workload)
    })?;
    let events = (spec.events / opts.shrink).max(32);
    let paced_events = (spec.paced_events / opts.shrink).clamp(8, events / 2);
    let mut out = Outcome {
        provenance: provenance(spec, opts, events, paced_events),
        ..Outcome::default()
    };
    if LOAD_THREADS > host::nproc() {
        out.invalid.push(format!(
            "{LOAD_THREADS} load threads on {} cores",
            host::nproc()
        ));
    }
    // Replica 0 runs the seed itself; the others take seeds far from it.
    let streams: Vec<(u64, Dataset)> = (0..spec.replicas as u64)
        .map(|i| {
            let seed = opts
                .seed
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (seed, generate(spec, seed, events))
        })
        .collect();
    let mut tracer = Tracer::new(opts.trace);
    fn replica<'a>(
        spec: &'a Spec,
        opts: &'a Options,
        streams: &'a [(u64, Dataset)],
        index: usize,
        tracer: &'a mut Tracer,
        out: &'a mut Outcome,
    ) -> Replica<'a> {
        Replica {
            spec,
            opts,
            index,
            seed: streams[index].0,
            data: &streams[index].1,
            tracer,
            out,
        }
    }
    let mut first = replica(spec, opts, &streams, 0, &mut tracer, &mut out);
    first.note_rss("generating the inputs");
    first.reevaluate_gate();
    if opts.trace {
        let layer_parts: Vec<Vec<Metric>> = (0..streams.len())
            .map(|i| replica(spec, opts, &streams, i, &mut tracer, &mut out).traced(paced_events))
            .collect();
        out.metrics = mean_by_name(&layer_parts);
        let path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
        match tracer.write_jsonl(&path, spec.name) {
            Ok(()) => out.trace_file = Some(path),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
        out.notes.extend(tracer.totals().iter().map(|(name, t)| {
            format!(
                "span {name}: n={} total={:.3} ms self={:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )
        }));
    } else {
        out.metrics = rounds::measure(spec, opts, &streams, &mut out);
    }
    // Generator self-check: a load thread that ran late measured itself.
    let late = summarize(std::mem::take(&mut out.late_ns));
    if late.p99 / 1e6 > spec.fresh_limit_ms * 0.1 {
        out.invalid.push(format!(
            "load thread ran {:.3} ms late at p99, more than a tenth of the {} ms limit",
            late.p99 / 1e6,
            spec.fresh_limit_ms
        ));
    }
    if !out.correct() {
        out.failed = out.attempted;
    }
    Ok(out)
}

fn provenance(
    spec: &Spec,
    opts: &Options,
    events: usize,
    paced_events: usize,
) -> Vec<(&'static str, String)> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    vec![
        ("workload", spec.name.to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("benchmark_tracing", opts.trace.to_string()),
        ("available_parallelism", host::nproc().to_string()),
        ("load_threads", LOAD_THREADS.to_string()),
        ("load_thread_cpu", host::LOAD_CPU.to_string()),
        ("server_threads_cpu", host::SERVER_CPU.to_string()),
        ("build_profile", host::build_profile().to_string()),
        ("git_commit", host::git_commit(&repo_root)),
        ("compile_mode", "HigherOrder".to_string()),
        ("queries", spec.queries.join("+")),
        ("replicas", spec.replicas.to_string()),
        ("stream_events_per_replica", events.to_string()),
        ("paced_events_per_replica", paced_events.to_string()),
        ("paced_rate_per_s", spec.paced_rate.to_string()),
        ("fresh_limit_ms", spec.fresh_limit_ms.to_string()),
        ("durable", spec.durable.to_string()),
        (
            "server_config",
            "max_batch=512 publish_interval=1ms queue_capacity=8192".into(),
        ),
        (
            "durability_config",
            "fsync=EveryBatch checkpoint_every_events=200000 segment_bytes=16MiB".into(),
        ),
    ]
}

/// The per-layer metrics of a traced run: the mean over the replicas.
fn mean_by_name(parts: &[Vec<Metric>]) -> Vec<Metric> {
    let mut out = parts[0].clone();
    for (i, m) in out.iter_mut().enumerate() {
        m.value = parts.iter().map(|p| p[i].value).sum::<f64>() / parts.len() as f64;
    }
    out
}

impl Replica<'_> {
    /// Log the resident set at a phase boundary of the first replica: what
    /// the inputs alone hold is the benchmark's own share of `rss_peak_mb`.
    pub(crate) fn note_rss(&mut self, at: &str) {
        if self.index > 0 {
            return;
        }
        let mb = |b: Option<u64>| b.unwrap_or(0) as f64 / 1e6;
        let note = format!(
            "rss after {at}: {:.1} MB now, {:.1} MB peak",
            mb(host::rss_bytes()),
            mb(host::rss_peak_bytes())
        );
        self.note(note);
    }

    pub(crate) fn note(&mut self, note: String) {
        self.out.notes.push(format!("[{}] {note}", self.index));
    }

    fn error(&mut self, e: String) {
        self.out.errors.push(format!("[{}] {e}", self.index));
    }

    /// Compare two sets of named result tables; `exact` also demands equal
    /// bits, and `log` writes what was compared into the log (a pass that is
    /// repeated logs its first comparison and every failed one).
    pub(crate) fn compare_all(
        &mut self,
        what: &str,
        a: &[(String, ResultTable)],
        b: &[ResultTable],
        exact: bool,
        log: bool,
    ) {
        let (mut rows, mut bit_exact, mut max_rel) = (0usize, true, 0.0f64);
        for ((name, ta), tb) in a.iter().zip(b) {
            match compare(&format!("{what}: {name}"), ta, tb) {
                Ok(c) => {
                    rows += c.rows;
                    bit_exact &= c.bit_exact;
                    max_rel = max_rel.max(c.max_rel_diff);
                }
                Err(e) => return self.error(e),
            }
        }
        if exact && !bit_exact {
            self.error(format!(
                "{what}: not bit-exact (max relative difference {max_rel:e})"
            ));
        }
        if log {
            self.note(format!(
                "{what}: {} queries, {rows} rows, bit_exact={bit_exact}, max_rel_diff={max_rel:e} (tolerance {REL_TOLERANCE:e})",
                a.len()
            ));
        }
    }

    /// Embedded HigherOrder against `CompileMode::Reevaluate` on a fixed prefix.
    fn reevaluate_gate(&mut self) {
        let prefix = &self.data.events[..self.spec.reevaluate_prefix.min(self.data.len())];
        let mut results = Vec::new();
        for mode in [CompileMode::HigherOrder, CompileMode::Reevaluate] {
            let mut engine = phases::build_embedded(self.spec, self.data, mode);
            if let Err(e) = engine.process_all(prefix) {
                return self.error(format!("{mode} on the prefix: {e}"));
            }
            results.push(facade_results(self.spec, &engine));
        }
        let reevaluated: Vec<ResultTable> =
            results.pop().unwrap().into_iter().map(|r| r.1).collect();
        let what = format!("HigherOrder vs Reevaluate on {} events", prefix.len());
        self.compare_all(&what, &results[0], &reevaluated, false, true);
    }

    pub(crate) fn wal_dir(&self, tag: &str) -> Option<PathBuf> {
        self.spec.durable.then(|| {
            let dir = self.opts.out_dir.join(format!(
                "wal-{}-{}-{}-{tag}",
                self.spec.name,
                std::process::id(),
                self.index
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
    }

    /// The gate on a server that has applied the whole stream: no writer
    /// error, served views == `expected`, and subscription baseline + every
    /// delivered delta == the subscribed query's final result. Returns the
    /// served views.
    pub(crate) fn check_served(
        &mut self,
        server: &ViewServer,
        expected: &[(String, ResultTable)],
        sub: Option<&mut SubReplay>,
        log: bool,
    ) -> Vec<ResultTable> {
        if let Some(e) = server.last_error() {
            self.error(format!("writer runtime error: {e}"));
        }
        if let Some(e) = server.last_durability_error() {
            self.error(format!("writer durability error: {e}"));
        }
        let served = served_results(server, expected);
        self.compare_all(
            "served vs embedded final views",
            expected,
            &served,
            false,
            log,
        );
        if let Some(sub) = sub {
            sub.drain();
            let query = self.spec.subscribe.expect("subscribed");
            let live = server.reader().query(query).expect("query");
            let replayed = ResultTable {
                columns: live.columns.clone(),
                rows: sub
                    .state
                    .iter()
                    .map(|(k, v)| dbtoaster::ResultRow {
                        key: k.clone(),
                        values: vec![*v],
                    })
                    .collect(),
            };
            let what = format!(
                "subscription baseline + {} deltas vs final {query}",
                sub.deltas
            );
            self.compare_all(&what, &[(query.to_string(), replayed)], &[live], true, log);
        }
        served
    }

    /// (E) kill the durable `server`, which has acknowledged `acknowledged`
    /// events and serves `pre_kill`, and recover it from `dir`. Returns the
    /// time from SQL text to a warm snapshot, in seconds, and the events the
    /// recovery replayed.
    pub(crate) fn kill_and_recover(
        &mut self,
        server: ViewServer,
        dir: &Path,
        expected: &[(String, ResultTable)],
        pre_kill: Vec<ResultTable>,
        acknowledged: u64,
    ) -> (f64, u64) {
        let applied = server.stats().events;
        if applied != acknowledged {
            self.error(format!(
                "{applied} events applied before the kill, {acknowledged} acknowledged"
            ));
        }
        server.kill();
        let s = self.tracer.begin("bench.recover");
        let (recovered, took, covered) = phases::recover(self.spec, self.data, dir, acknowledged);
        self.tracer.end(s);
        if !covered {
            self.error(format!(
                "recovered snapshot covers {} of {acknowledged} acknowledged events",
                recovered.current_snapshot().events_applied()
            ));
        }
        if let Some(w) = recovered.durability_warning() {
            self.error(format!("degraded recovery: {w}"));
        }
        let replayed_events = recovered.stats().recovery_replayed_events;
        let pre_kill: Vec<(String, ResultTable)> = expected
            .iter()
            .map(|(n, _)| n.clone())
            .zip(pre_kill)
            .collect();
        let after = served_results(&recovered, expected);
        self.compare_all("recovered vs pre-kill views", &pre_kill, &after, true, true);
        recovered.shutdown().expect("shutdown");
        (took.as_secs_f64(), replayed_events)
    }

    /// The traced run's phases A, C, D and E against the server. `expected`
    /// gives the final results to hold the served views to, by the names
    /// `served_results` reads.
    fn served(&mut self, expected: &[(String, ResultTable)], paced_events: usize) -> Served {
        let spec = self.spec;
        let n = self.data.len();
        let n_sat = n - paced_events;

        // The durable workload first saturates an in-memory server, so the
        // cost of durability is measured on the same events in the same run.
        let in_memory = spec.durable.then(|| {
            let (server, _) = phases::setup(spec, self.data, None);
            let events = clone_events(&self.data.events[..n_sat]);
            let sat = phases::saturate(&server, events, &mut Tracer::new(false));
            server.shutdown().expect("shutdown");
            sat
        });

        // (A) set-up.
        let dir = self.wal_dir("traced");
        host::pin_to_cpu(host::SERVER_CPU);
        let engine = phases::build_engine(spec, self.data, CompileMode::HigherOrder);
        let s = self.tracer.begin("server.spawn");
        let server = phases::serve(engine, dir.as_deref());
        let spawn = Duration::from_nanos(self.tracer.end(s));
        host::pin_to_cpu(host::LOAD_CPU);
        let spawned = Instant::now();
        let mut sub = spec.subscribe.map(|q| SubReplay::start(&server, q));

        // (C) saturation, then (D) the paced tail of the same stream.
        let events = clone_events(&self.data.events[..n_sat]);
        let tail = clone_events(&self.data.events[n_sat..]);
        let saturation = phases::saturate(&server, events, self.tracer);
        self.note_rss("saturation");
        let after_saturation = server.stats();
        let stages = server.metrics();
        let writer_wall = spawned.elapsed();
        let due_ns = phases::due_times(self.seed, spec.paced_rate, tail.len());
        let s = self.tracer.begin("bench.paced");
        let paced = phases::paced(&server, spec, tail, &due_ns, sub.as_mut());
        self.tracer.end(s);
        server.flush().expect("flush");
        let final_stats = server.stats();
        let served = self.check_served(&server, expected, sub.as_mut(), true);

        // (E) kill and recover.
        let (recover_s, replayed_events) = match dir.as_deref() {
            Some(dir) => self.kill_and_recover(server, dir, expected, served, n as u64),
            None => {
                server.shutdown().expect("shutdown");
                (0.0, 0)
            }
        };
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        // Generator self-check: a rate the server cannot sustain measures
        // the queue, not the system.
        let late = summarize(paced.late_ns.clone());
        self.out.late_ns.extend_from_slice(&paced.late_ns);
        let later = paced.later_than(spec.fresh_limit_ms);
        let (fresh_p50, fresh_p90) = paced.fresh_ms(spec.paced_rate);
        self.note(format!(
            "paced {} events in {:.3}s: freshness p50={fresh_p50:.3}ms p90={fresh_p90:.3}ms p99={:.3}ms, {later} later than {}ms, {} never visible, {} refused; backlog max {}; load thread late p50={:.1}us p99={:.1}us max={:.1}us",
            paced.events,
            paced.wall.as_secs_f64(),
            summarize(paced.fresh_ns.clone()).p99 / 1e6,
            spec.fresh_limit_ms,
            paced.never_visible(),
            paced.send_errors,
            paced.backlog.iter().max().copied().unwrap_or(0),
            late.p50 / 1e3,
            late.p99 / 1e3,
            paced.late_ns.iter().cloned().fold(0.0, f64::max) / 1e3,
        ));
        if paced.backlog_growing(spec) {
            self.out
                .invalid
                .push("open-loop backlog past one freshness limit of events at the end of the paced phase".into());
        }

        // A refused event never becomes visible, so it is counted once. An
        // event that is visible late has not failed: how late events are on
        // this host is the host's doing as much as the program's, and is
        // reported as `server.late_frac`.
        let mut served_events = saturation.events + paced.events;
        let mut failed = (saturation.events - saturation.accepted) as u64 + paced.never_visible();
        if let Some(m) = &in_memory {
            served_events += m.events;
            failed += (m.events - m.accepted) as u64;
        }
        self.out.attempted += served_events as u64;
        self.out.failed += failed;

        Served {
            spawn,
            in_memory,
            saturation,
            after_saturation,
            stages,
            writer_wall,
            paced,
            final_stats,
            sub: sub.map(|s| (s.batches, s.deltas)),
            recover_s,
            replayed_events,
        }
    }

    /// The per-layer run: the same inputs, with a span around every call into
    /// a layer's public functions.
    fn traced(&mut self, paced_events: usize) -> Vec<Metric> {
        let spec = self.spec;
        let n = self.data.len() as u64;
        let track = spec.subscribe.is_some();
        // Three engines over the same stream: per event, in batches of 8,
        // and in the server's batches of 512; they must agree.
        let (mut engine, built) = layers::build(spec, self.data, self.tracer);
        let per_event = layers::per_event_pass(&mut engine, &self.data.events, self.tracer);
        let expected = engine_results(&engine);
        drop(engine);
        let mut batches = Vec::new();
        let mut durability = None;
        for (size, snapshot_every) in [(8, 0), (layers::CHUNK, SNAPSHOT_EVERY)] {
            let (mut engine, _) = layers::build(spec, self.data, &mut Tracer::new(false));
            let pass = layers::batch_pass(
                &mut engine,
                &self.data.events,
                size,
                snapshot_every,
                track,
                self.tracer,
            );
            let got: Vec<ResultTable> = engine_results(&engine).into_iter().map(|r| r.1).collect();
            self.compare_all(
                &format!("batch-{size} vs per-event engine"),
                &expected,
                &got,
                false,
                true,
            );
            if size == layers::CHUNK {
                durability = self.wal_dir("layers").map(|dir| {
                    let d = layers::durability(&engine, &self.data.events, &dir, self.tracer);
                    let _ = std::fs::remove_dir_all(dir);
                    d
                });
            }
            batches.push(pass);
        }
        let batch512 = batches.pop().expect("two batch passes");
        let batch8 = batches.pop().expect("two batch passes");
        self.out.attempted += 3 * n;
        self.out.failed += per_event.failed_events + batch8.failed_events + batch512.failed_events;

        let served = self.served(&expected, paced_events);
        self.layer_metrics(
            &built,
            &per_event,
            (&batch8, &batch512),
            durability.unwrap_or_default(),
            &served,
        )
    }

    fn layer_metrics(
        &self,
        built: &Build,
        per_event: &PerEventPass,
        (batch8, batch512): (&BatchPass, &BatchPass),
        d: DurabilityLayers,
        served: &Served,
    ) -> Vec<Metric> {
        let sat = &served.saturation;
        let sat_events = sat.accepted.max(1) as f64;
        let served_ns_per_event = sat.wall.as_nanos() as f64 / sat_events;
        let after = &served.after_saturation;
        let paced = &served.paced;
        let failed_frac = self.out.failed as f64 / self.out.attempted.max(1) as f64;
        let gap_frac = served
            .in_memory
            .map_or(0.0, |m| 1.0 - sat.rate() / m.rate());
        let wal_ns_per_event = d.wal_append_ns_per_event + d.wal_sync_ns_per_event;

        let mut m: Vec<Metric> = Vec::new();
        let mut put =
            |name: &str, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));
        put(
            "sql.parse_translate_ms",
            built.parse_translate_ns as f64 / 1e6,
            "ms",
        );
        put("compiler.compile_ms", built.compile_ns as f64 / 1e6, "ms");
        put(
            "runtime.load_init_ms",
            built.load_init_ns as f64 / 1e6,
            "ms",
        );
        put("server.spawn_ms", served.spawn.as_secs_f64() * 1e3, "ms");
        put("compiler.statements", built.statements as f64, "count");
        put("compiler.maps", built.maps as f64, "count");
        put(
            "compiler.kernel_coverage",
            built.compiled_statements as f64 / built.statements.max(1) as f64,
            "ratio",
        );
        put(
            "runtime.process_ns_per_event",
            per_event.process_ns_per_event,
            "ns/event",
        );
        put(
            "runtime.batch8_ns_per_event",
            batch8.process_ns_per_event,
            "ns/event",
        );
        put(
            "runtime.batch512_ns_per_event",
            batch512.process_ns_per_event,
            "ns/event",
        );
        put(
            "runtime.runs_batch_delta",
            batch512.stats.batch_delta_runs as f64,
            "count",
        );
        put(
            "runtime.runs_statement_major",
            batch512.stats.statement_major_runs as f64,
            "count",
        );
        put(
            "runtime.runs_entry_major",
            batch512.stats.entry_major_runs as f64,
            "count",
        );
        put(
            "runtime.events_collapsed",
            batch512.stats.batch_events_collapsed as f64,
            "count",
        );
        put(
            "runtime.statements_per_event",
            batch512.stats.statements as f64 / batch512.stats.events.max(1) as f64,
            "count",
        );
        put(
            "runtime.take_changes_ns_per_event",
            batch512.take_changes_ns_per_event,
            "ns/event",
        );
        put("runtime.snapshot_ms", batch512.snapshot_ms, "ms");
        put(
            "runtime.state_entries",
            batch512.state_entries as f64,
            "count",
        );
        put("runtime.state_bytes", batch512.state_bytes as f64, "bytes");
        put(
            "agca.batch_build_ns_per_event",
            batch512.build_ns_per_event,
            "ns/event",
        );
        put(
            "durability.wal_append_ns_per_event",
            d.wal_append_ns_per_event,
            "ns/event",
        );
        put("durability.wal_sync_us", d.wal_sync_us, "us");
        put(
            "durability.wal_bytes_per_event",
            d.wal_bytes_per_event,
            "bytes/event",
        );
        put("durability.gap_frac", gap_frac, "ratio");
        put("durability.ckpt_write_ms", d.ckpt_write_ms, "ms");
        put("durability.ckpt_bytes", d.ckpt_bytes as f64, "bytes");
        put("durability.ckpt_load_ms", d.ckpt_load_ms, "ms");
        put(
            "durability.wal_replay_ns_per_event",
            d.wal_replay_ns_per_event,
            "ns/event",
        );
        put(
            "durability.replayed_events",
            served.replayed_events as f64,
            "count",
        );
        put(
            "durability.checkpoints_taken",
            served.final_stats.checkpoints_taken as f64,
            "count",
        );
        put("durability.recover_s", served.recover_s, "s");
        put("server.refresh_per_s", sat.rate(), "events/s");
        put(
            "server.send_ns_per_event",
            sat.send.as_nanos() as f64 / sat_events,
            "ns/event",
        );
        put("server.flush_wait_ms", sat.flush.as_secs_f64() * 1e3, "ms");
        put("server.batches", after.batches as f64, "count");
        put(
            "server.events_per_batch",
            after.events as f64 / after.batches.max(1) as f64,
            "count",
        );
        put(
            "server.publishes",
            after.snapshots_published as f64,
            "count",
        );
        put(
            "server.queue_depth_max",
            paced.queue_depth_max as f64,
            "count",
        );
        put(
            "server.overhead_ns_per_event",
            served_ns_per_event - batch512.process_ns_per_event - wal_ns_per_event,
            "ns/event",
        );
        put(
            "server.snapshot_load_ns",
            summarize(paced.snapshot_load_ns.clone()).p50,
            "ns",
        );
        let (fresh, read) = (
            summarize(paced.fresh_ns.clone()),
            summarize(paced.read_ns.clone()),
        );
        put("server.query_us", read.p50 / 1e3, "us");
        put("server.read_p99_us", read.p99 / 1e3, "us");
        let (fresh_p50, fresh_p90) = paced.fresh_ms(self.spec.paced_rate);
        put("server.fresh_p50_ms", fresh_p50, "ms");
        put("server.fresh_p90_ms", fresh_p90, "ms");
        put("server.fresh_p99_ms", fresh.p99 / 1e6, "ms");
        put(
            "server.late_frac",
            paced.later_than(self.spec.fresh_limit_ms) as f64 / paced.events.max(1) as f64,
            "ratio",
        );
        put(
            "server.sub_deltas",
            served.sub.map_or(0, |s| s.1) as f64,
            "count",
        );
        put(
            "server.sub_batches",
            served.sub.map_or(0, |s| s.0) as f64,
            "count",
        );
        put(
            "telemetry.overhead_frac",
            per_event.telemetry_overhead_frac,
            "ratio",
        );
        // The program's own stage histograms, read once after saturation.
        let writer_stages = [
            (
                Stage::IngestWait,
                "telemetry.stage_ingest_wait_ns_per_event",
            ),
            (Stage::WalAppend, "telemetry.stage_wal_append_ns_per_event"),
            (
                Stage::KernelBatchDelta,
                "telemetry.stage_kernel_batch_delta_ns_per_event",
            ),
            (
                Stage::KernelStatementMajor,
                "telemetry.stage_kernel_statement_major_ns_per_event",
            ),
            (
                Stage::KernelEntryMajor,
                "telemetry.stage_kernel_entry_major_ns_per_event",
            ),
            (
                Stage::SnapshotPublish,
                "telemetry.stage_snapshot_publish_ns_per_event",
            ),
            (Stage::Fanout, "telemetry.stage_fanout_ns_per_event"),
        ];
        let stage_ns = |s: Stage| served.stages.stage(s).map_or(0, |h| h.sum_nanos) as f64;
        let mut attributed = 0.0;
        for (stage, name) in writer_stages {
            attributed += stage_ns(stage);
            put(name, stage_ns(stage) / sat_events, "ns/event");
        }
        // Checkpoints are written off the writer thread, so they are not part
        // of the writer's wall time.
        put(
            "telemetry.stage_checkpoint_write_ns_per_event",
            stage_ns(Stage::CheckpointWrite) / sat_events,
            "ns/event",
        );
        put(
            "telemetry.unattributed_frac",
            1.0 - attributed / served.writer_wall.as_nanos() as f64,
            "ratio",
        );
        put(
            "bench.gen_late_p99_us",
            summarize(paced.late_ns.clone()).p99 / 1e3,
            "us",
        );
        put(
            "bench.trace_overhead_frac",
            per_event.trace_overhead_frac,
            "ratio",
        );
        put("bench.failed_frac", failed_frac, "ratio");
        m
    }
}

/// The user-visible result table of every served query, through the facade.
pub(crate) fn facade_results(spec: &Spec, engine: &QueryEngine) -> Vec<(String, ResultTable)> {
    spec.queries
        .iter()
        .map(|q| (q.to_string(), engine.result(q).expect("result")))
        .collect()
}

/// Every result of the compiled program, read from a bare `Engine`.
fn engine_results(engine: &dbtoaster::runtime::Engine) -> Vec<(String, ResultTable)> {
    engine
        .program()
        .results
        .iter()
        .map(|r| {
            let gmr = engine.result(&r.name).expect("result");
            (r.name.clone(), table_of(&r.name, &gmr))
        })
        .collect()
}

/// The same results read from the server's published snapshot.
fn served_results(server: &ViewServer, names: &[(String, ResultTable)]) -> Vec<ResultTable> {
    let reader = server.reader();
    names
        .iter()
        .map(|(name, _)| reader.query(name).expect("query"))
        .collect()
}
