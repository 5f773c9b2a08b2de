//! The traced run's direct drive: each layer's public functions are called
//! from here with a span around every call, on the same 512-event chunks the
//! server would form.

use crate::inputs::Timed;
use crate::phases;
use crate::spec::Spec;
use crate::stats::median;
use crate::trace::Tracer;
use dbtoaster::compiler::{compile, CompileOptions, QuerySpec};
use dbtoaster::durability::{
    load_latest, program_fingerprint, write_checkpoint, FsyncPolicy, WalReader, WalWriter,
};
use dbtoaster::prelude::*;
use dbtoaster::runtime::{Engine, EngineStats};
use dbtoaster::sql::{parse_query, translate};
use dbtoaster::workloads::Dataset;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The server's default `max_batch`.
pub const CHUNK: usize = 512;

#[derive(Clone, Copy, Debug, Default)]
pub struct Build {
    pub parse_translate_ns: u64,
    pub compile_ns: u64,
    pub load_init_ns: u64,
    pub statements: usize,
    pub compiled_statements: usize,
    pub maps: usize,
}

/// SQL text → initialised `Engine`, one span per layer.
pub fn build(spec: &Spec, data: &Dataset, tracer: &mut Tracer) -> (Engine, Build) {
    let sql_catalog = phases::catalog(spec);
    let queries = spec.workload_queries();
    let s = tracer.begin("sql.parse_translate");
    let mut specs: Vec<QuerySpec> = Vec::new();
    for q in &queries {
        let parsed = parse_query(q.sql).expect("parse");
        let plan = translate(q.name, &parsed, &sql_catalog).expect("translate");
        specs.extend(plan.views.into_iter().map(|v| QuerySpec {
            name: v.name,
            out_vars: v.out_vars,
            expr: v.expr,
        }));
    }
    let parse_translate_ns = tracer.end(s);
    let catalog = dbtoaster::to_compiler_catalog(&sql_catalog);
    let s = tracer.begin("compiler.compile");
    let options = CompileOptions::for_mode(CompileMode::HigherOrder);
    let program = compile(&specs, &catalog, &options).expect("compile");
    let compile_ns = tracer.end(s);
    let mut built = Build {
        parse_translate_ns,
        compile_ns,
        load_init_ns: 0,
        statements: program.statement_count(),
        compiled_statements: program.compiled_statement_count(),
        maps: program.maps.len(),
    };
    let s = tracer.begin("runtime.load_init");
    let mut engine = Engine::new(program, &catalog);
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.iter().cloned());
    }
    engine.init_static_views().expect("init");
    built.load_init_ns = tracer.end(s);
    (engine, built)
}

#[derive(Clone, Copy, Debug, Default)]
struct Acc {
    ns: u64,
    events: u64,
}

impl Acc {
    fn add(&mut self, ns: u64, events: usize) {
        self.ns += ns;
        self.events += events as u64;
    }

    fn per_event(&self) -> f64 {
        self.ns as f64 / self.events.max(1) as f64
    }
}

/// How one block of the per-event pass calls `Engine::process`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// One clock pair around the block.
    Bare,
    /// One span per call.
    Traced,
    /// As `Bare`, with an enabled `Telemetry` handle attached.
    Telemetry,
}

/// Forward then reversed, so each mode samples the same mean stream position
/// (per-event cost grows with state on the order-book queries).
const CYCLE: [Mode; 6] = [
    Mode::Bare,
    Mode::Traced,
    Mode::Telemetry,
    Mode::Telemetry,
    Mode::Traced,
    Mode::Bare,
];
/// Events per block of the per-event pass: few, because vwap's cost grows
/// with the square of the stream position and a cycle must be short beside
/// a 500-event stream for its two halves to balance.
const BLOCK: usize = 4;

#[derive(Clone, Copy, Debug, Default)]
pub struct PerEventPass {
    /// `Engine::process` with one clock pair per block.
    pub process_ns_per_event: f64,
    /// What a span per call adds to it, as a share.
    pub trace_overhead_frac: f64,
    /// What an enabled `Telemetry` handle adds to it, as a share.
    pub telemetry_overhead_frac: f64,
    pub failed_events: u64,
}

/// The stream through `Engine::process`, one event per call, cycling block
/// by block between a bare clock, a span per call, and attached telemetry:
/// the three see the same range of state sizes, so their ratios are the
/// overhead of tracing and of telemetry. The ratios are taken over complete
/// cycles only: a partial last cycle would give the stream's last (on the
/// order-book queries, most expensive) blocks to the first modes alone.
pub fn per_event_pass(
    engine: &mut Engine,
    events: &[UpdateEvent],
    tracer: &mut Tracer,
) -> PerEventPass {
    let telemetry = Telemetry::enabled();
    let mut bare = Acc::default();
    let mut paired = [Acc::default(); 3];
    let mut failed = 0u64;
    tracer.reserve(events.len() / 3 + 8);
    let pass = tracer.begin("bench.per_event_pass");
    for cycle in events.chunks(BLOCK * CYCLE.len()) {
        let complete = cycle.len() == BLOCK * CYCLE.len();
        for (block, mode) in cycle.chunks(BLOCK).zip(CYCLE) {
            if mode == Mode::Telemetry {
                engine.set_telemetry(telemetry.clone());
            }
            let t0 = Instant::now();
            for ev in block {
                let s = match mode {
                    Mode::Traced => Some(tracer.begin("runtime.process")),
                    _ => None,
                };
                failed += engine.process(ev).is_err() as u64;
                if let Some(s) = s {
                    tracer.end(s);
                }
            }
            let ns = t0.elapsed().as_nanos() as u64;
            if mode == Mode::Telemetry {
                engine.set_telemetry(Telemetry::disabled());
            }
            if mode == Mode::Bare {
                bare.add(ns, block.len());
            }
            if complete {
                paired[mode as usize].add(ns, block.len());
            }
        }
    }
    tracer.end(pass);
    let over_bare = |mode: Mode| {
        paired[mode as usize].per_event() / paired[Mode::Bare as usize].per_event() - 1.0
    };
    PerEventPass {
        process_ns_per_event: bare.per_event(),
        trace_overhead_frac: over_bare(Mode::Traced),
        telemetry_overhead_frac: over_bare(Mode::Telemetry),
        failed_events: failed,
    }
}

#[derive(Clone, Debug)]
pub struct BatchPass {
    /// `Engine::process_batch` alone.
    pub process_ns_per_event: f64,
    /// `DeltaBatch::from_events`.
    pub build_ns_per_event: f64,
    pub take_changes_ns_per_event: f64,
    /// Median `Engine::snapshot()` over the last fifth of the stream.
    pub snapshot_ms: f64,
    pub failed_events: u64,
    pub stats: EngineStats,
    pub state_entries: usize,
    pub state_bytes: usize,
}

/// The stream through `Engine::process_batch` in `size`-event delta batches,
/// as the server's writer drives it: build the batch, process it, drain the
/// changed-key log, and after every `snapshot_every`-th batch take the
/// snapshot a publish would take (0 takes none).
pub fn batch_pass(
    engine: &mut Engine,
    events: &[UpdateEvent],
    size: usize,
    snapshot_every: usize,
    track_changes: bool,
    tracer: &mut Tracer,
) -> BatchPass {
    engine.set_change_tracking(track_changes);
    let (mut build, mut process, mut changes) = (0u64, 0u64, 0u64);
    let mut failed = 0u64;
    // (events applied so far, nanoseconds) of each snapshot.
    let mut snapshots: Vec<(usize, f64)> = Vec::new();
    tracer.reserve(4 * events.len() / size + 8);
    let pass = tracer.begin("bench.batch_pass");
    for (i, chunk) in events.chunks(size).enumerate() {
        let s = tracer.begin("agca.from_events");
        let batch = DeltaBatch::from_events(chunk);
        build += tracer.end(s);
        let s = tracer.begin("runtime.process_batch");
        let report = engine.process_batch(&batch);
        process += tracer.end(s);
        failed += report.failed_events;
        let s = tracer.begin("runtime.take_changes");
        black_box(engine.take_changes());
        changes += tracer.end(s);
        if snapshot_every > 0 && (i + 1) % snapshot_every == 0 {
            let s = tracer.begin("runtime.snapshot");
            black_box(engine.snapshot());
            snapshots.push(((i + 1) * size, tracer.end(s) as f64));
        }
    }
    tracer.end(pass);
    // The publish cost near end state (the last snapshot when the last fifth
    // of the stream holds none).
    let tail_from = events.len() - events.len() / 5;
    let mut tail: Vec<f64> = snapshots
        .iter()
        .filter(|(at, _)| *at >= tail_from)
        .map(|(_, ns)| *ns)
        .collect();
    if tail.is_empty() {
        tail.extend(snapshots.last().map(|(_, ns)| *ns));
    }
    let n = events.len().max(1) as f64;
    BatchPass {
        process_ns_per_event: process as f64 / n,
        build_ns_per_event: build as f64 / n,
        take_changes_ns_per_event: changes as f64 / n,
        snapshot_ms: if tail.is_empty() {
            0.0
        } else {
            median(tail) / 1e6
        },
        failed_events: failed,
        stats: engine.stats().clone(),
        state_entries: engine.total_entries(),
        state_bytes: engine.memory_bytes(),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityLayers {
    pub wal_append_ns_per_event: f64,
    /// Median `batch_boundary` (the per-batch fsync), microseconds.
    pub wal_sync_us: f64,
    /// Mean `batch_boundary` per event, for the server remainder.
    pub wal_sync_ns_per_event: f64,
    pub wal_bytes_per_event: f64,
    pub ckpt_write_ms: f64,
    pub ckpt_bytes: u64,
    pub ckpt_load_ms: f64,
    /// Decode only; applying the events is the runtime's cost.
    pub wal_replay_ns_per_event: f64,
}

/// Drive the durability layer alone: log the stream in server-sized chunks,
/// checkpoint `engine`'s state, load it back, and decode the log.
pub fn durability(
    engine: &Engine,
    events: &[UpdateEvent],
    dir: &Path,
    tracer: &mut Tracer,
) -> DurabilityLayers {
    let fp = program_fingerprint(engine.program());
    let n = events.len() as f64;
    let mut wal = WalWriter::open(dir, fp, 1, FsyncPolicy::EveryBatch, 16 << 20).expect("wal");
    let (mut append_ns, mut sync_ns) = (0u64, Vec::with_capacity(events.len() / CHUNK + 1));
    let t = Timed::start();
    for chunk in events.chunks(CHUNK) {
        let s = tracer.begin("durability.wal_append");
        wal.append(chunk).expect("append");
        append_ns += tracer.end(s);
        let s = tracer.begin("durability.wal_batch_boundary");
        wal.batch_boundary().expect("sync");
        sync_ns.push(tracer.end(s) as f64);
    }
    t.stop();
    let wal_bytes = wal.bytes_written();
    drop(wal);

    let snapshot = engine.snapshot();
    let s = tracer.begin("durability.write_checkpoint");
    let path = write_checkpoint(
        dir,
        fp,
        events.len() as u64,
        snapshot.iter().map(|(n, g)| (n.as_str(), g)),
    )
    .expect("checkpoint");
    let write_ns = tracer.end(s);
    let ckpt_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let s = tracer.begin("durability.load_latest");
    let (ckpt, skipped) = load_latest(dir, fp).expect("load");
    let load_ns = tracer.end(s);
    assert!(
        ckpt.is_some() && skipped.is_empty(),
        "checkpoint unreadable"
    );

    let reader = WalReader::open(dir, fp).expect("reader");
    let s = tracer.begin("durability.wal_replay");
    let replay = reader
        .replay(1, &mut |_, ev| {
            black_box(ev);
            Ok(())
        })
        .expect("replay");
    let replay_ns = tracer.end(s);
    assert_eq!(replay.events_replayed, events.len() as u64);

    DurabilityLayers {
        wal_append_ns_per_event: append_ns as f64 / n,
        wal_sync_ns_per_event: sync_ns.iter().sum::<f64>() / n,
        wal_sync_us: median(sync_ns) / 1e3,
        wal_bytes_per_event: wal_bytes as f64 / n,
        ckpt_write_ms: write_ns as f64 / 1e6,
        ckpt_bytes,
        ckpt_load_ms: load_ns as f64 / 1e6,
        wal_replay_ns_per_event: replay_ns as f64 / n,
    }
}
