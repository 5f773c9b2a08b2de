//! Shared infrastructure for the benchmark harness and the Criterion benches.
//!
//! Every experiment of the paper's evaluation (Section 9) is regenerated through the
//! functions in this crate:
//!
//! | paper artifact | function | harness subcommand |
//! |---|---|---|
//! | Figure 2 (workload features & rules) | [`figure2_rows`] | `harness fig2` |
//! | Figures 6 & 7 (refresh rates, all queries × strategies) | [`figure6_rows`] | `harness fig6` |
//! | Figures 8–10, 13–18 (per-query traces) | [`trace_series`] | `harness fig8` / `fig9` / `fig10` / `traces` |
//! | Figure 11 (stream-length scaling) | [`figure11_rows`] | `harness fig11` |
//! | Figure 12 (compilation flags) | documented in EXPERIMENTS.md | — |
//!
//! The absolute numbers differ from the paper (interpreted statements on different
//! hardware rather than compiled C++ on a 2009 Xeon), but the *shape* — which strategy
//! wins, by how many orders of magnitude, and how it evolves along the stream — is the
//! reproduction target.

use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Family, WorkloadQuery};
use std::time::{Duration, Instant};

/// Which compilation strategies a figure compares.
pub const STRATEGIES: &[CompileMode] = &[
    CompileMode::Reevaluate,
    CompileMode::FirstOrder,
    CompileMode::NaiveViewlet,
    CompileMode::HigherOrder,
];

/// Experiment sizing knobs (scaled-down defaults keep `cargo bench` tractable).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Stream length per query for the refresh-rate experiments.
    pub events: usize,
    /// Wall-clock budget per (query, strategy) run; slower strategies stop early, like
    /// the paper's two-hour timeout.
    pub time_budget: Duration,
    /// Random seed for the generators.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            events: 20_000,
            time_budget: Duration::from_secs(5),
            seed: 42,
        }
    }
}

/// Result of replaying a stream against one compiled query.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Query name.
    pub query: String,
    /// Compilation strategy.
    pub mode: CompileMode,
    /// Events actually processed before the budget ran out.
    pub processed: usize,
    /// Events available in the stream.
    pub total: usize,
    /// Average view refreshes per second.
    pub refresh_rate: f64,
    /// Final approximate memory footprint (MB).
    pub memory_mb: f64,
    /// Processing time in seconds.
    pub elapsed: f64,
    /// Per-batch latency percentiles from the run's telemetry handle (each
    /// `process` call is a batch of one, so for the per-event figures these
    /// are per-event latencies).
    pub latency: Option<HistogramSummary>,
}

/// A point of a trace figure (Figures 8–10 and 13–18).
#[derive(Clone, Debug)]
pub struct TracePoint {
    /// Fraction of the stream processed.
    pub fraction: f64,
    /// Cumulative processing time (minutes, as in the paper's upper panels).
    pub time_minutes: f64,
    /// Average refresh rate so far (1/s).
    pub refresh_rate: f64,
    /// Approximate memory (MB).
    pub memory_mb: f64,
}

/// Generate the dataset appropriate for a query's family.
pub fn dataset_for(family: Family, events: usize, seed: u64) -> workloads::Dataset {
    match family {
        Family::Tpch => {
            let scale = (events as f64 / 2_000_000.0).clamp(0.0005, 10.0);
            let mut d =
                workloads::tpch::generate(&workloads::TpchConfig::scaled(scale.max(0.002), seed));
            d.truncate(events);
            d
        }
        Family::Finance => workloads::finance::generate(&workloads::FinanceConfig {
            events,
            seed,
            ..Default::default()
        }),
        Family::Scientific => {
            let atoms = 60;
            let steps = (events / atoms).max(2);
            let mut d = workloads::mddb::generate(&workloads::MddbConfig { atoms, steps, seed });
            d.truncate(events);
            d
        }
    }
}

/// Build a ready-to-run engine (static tables loaded) for one query and strategy.
pub fn build_engine(
    q: &WorkloadQuery,
    mode: CompileMode,
    data: &workloads::Dataset,
) -> QueryEngine {
    build_engine_opts(q, mode, data, false)
}

/// [`build_engine`] with an explicit execution-path choice: `force_interpreter`
/// bypasses compiled trigger kernels so the AST-interpreter baseline stays
/// measurable after the compiled path became the default.
pub fn build_engine_opts(
    q: &WorkloadQuery,
    mode: CompileMode,
    data: &workloads::Dataset,
    force_interpreter: bool,
) -> QueryEngine {
    let catalog = workloads::full_catalog();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q.name, q.sql)
        .mode(mode)
        .build()
        .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
    engine.set_force_interpreter(force_interpreter);
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone()).unwrap();
    }
    engine.init().unwrap();
    engine
}

/// Replay a stream against one query under one strategy, honouring a time budget.
pub fn run_stream(
    q: &WorkloadQuery,
    mode: CompileMode,
    data: &workloads::Dataset,
    budget: Duration,
) -> RunStats {
    run_stream_opts(q, mode, data, budget, false)
}

/// [`run_stream`] with an explicit execution-path choice (see
/// [`build_engine_opts`]).
pub fn run_stream_opts(
    q: &WorkloadQuery,
    mode: CompileMode,
    data: &workloads::Dataset,
    budget: Duration,
    force_interpreter: bool,
) -> RunStats {
    let mut engine = build_engine_opts(q, mode, data, force_interpreter);
    // Measure with telemetry ENABLED: the published figures carry its (small)
    // cost, and the latency percentiles come from the same run. Slow-batch
    // tracing is parked with an unreachable threshold so no trace ever
    // assembles mid-measurement. `DBTOASTER_BENCH_TELEMETRY=off` swaps in a
    // disabled handle for A/B-ing the instrumentation cost on one machine.
    let tel = bench_telemetry();
    engine.set_telemetry(tel.clone());
    let start = Instant::now();
    let mut processed = 0usize;
    for event in &data.events {
        engine
            .process(event)
            .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
        processed += 1;
        // Check the budget every 64 events to keep the overhead negligible.
        if processed.is_multiple_of(64) && start.elapsed() > budget {
            break;
        }
    }
    engine.flush_telemetry();
    let snap = tel.snapshot();
    // The reported operation count is the telemetry/engine event counter, not
    // the loop's own tally: throughput math and `stats()` draw from one
    // source and can never disagree.
    debug_assert!(!snap.enabled || snap.events == processed as u64);
    let stats = engine.stats();
    RunStats {
        query: q.name.to_string(),
        mode,
        processed: if snap.enabled {
            snap.events as usize
        } else {
            processed
        },
        total: data.events.len(),
        refresh_rate: stats.refresh_rate(),
        memory_mb: engine.memory_bytes() as f64 / (1024.0 * 1024.0),
        elapsed: stats.busy.as_secs_f64(),
        latency: snap.enabled.then_some(snap.batch_latency),
    }
}

/// The telemetry handle benchmark runs attach: enabled by default (published
/// figures carry the instrumentation cost), disabled when
/// `DBTOASTER_BENCH_TELEMETRY=off` — the switch behind same-machine A/B
/// measurements of telemetry overhead.
fn bench_telemetry() -> Telemetry {
    if bench_telemetry_off() {
        Telemetry::disabled()
    } else {
        Telemetry::with_config(TelemetryConfig {
            slow_batch_threshold: Duration::from_secs(3600),
            ..TelemetryConfig::default()
        })
    }
}

/// True when `DBTOASTER_BENCH_TELEMETRY=off` requests uninstrumented runs.
pub fn bench_telemetry_off() -> bool {
    std::env::var("DBTOASTER_BENCH_TELEMETRY").is_ok_and(|v| v == "off")
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// One row of Figure 2: query features and the rewrite rules its compilation used.
#[derive(Clone, Debug)]
pub struct Figure2Row {
    /// Query name.
    pub query: String,
    /// Workload family.
    pub family: Family,
    /// Number of relation atoms in the outer query.
    pub tables: usize,
    /// Nesting depth.
    pub nesting: usize,
    /// GROUP BY present.
    pub group_by: bool,
    /// Rule 1: query decomposition fired.
    pub decomposition: bool,
    /// Rule 2: polynomial expansion fired.
    pub expansion: bool,
    /// Rule 3: input-variable extraction fired.
    pub input_vars: bool,
    /// Rule 4: nested-aggregate rewrite fired, with the chosen strategy:
    /// `-`, `I` (incremental), `R` (re-evaluation) or `R,I`.
    pub nested_strategy: String,
    /// Number of maps materialized.
    pub maps: usize,
}

/// Compile every workload query with Higher-Order IVM and report which rules fired.
pub fn figure2_rows() -> Vec<Figure2Row> {
    let catalog = workloads::full_catalog();
    workloads::all_queries()
        .iter()
        .map(|q| {
            let engine = QueryEngineBuilder::new(catalog.clone())
                .add_query(q.name, q.sql)
                .mode(CompileMode::HigherOrder)
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
            let report = &engine.program().report;
            let nested_strategy = match (report.used_reevaluation, report.used_incremental_nested) {
                (false, false) if !report.used_nested_rewrite => "-".to_string(),
                (false, false) => "I".to_string(),
                (true, false) => "R".to_string(),
                (false, true) => "I".to_string(),
                (true, true) => "R,I".to_string(),
            };
            Figure2Row {
                query: q.name.to_string(),
                family: q.family,
                tables: q.tables,
                nesting: q.nesting,
                group_by: q.group_by,
                decomposition: report.used_decomposition,
                expansion: report.used_expansion,
                input_vars: report.used_input_var_extraction,
                nested_strategy,
                maps: engine.program().maps.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 6 & 7
// ---------------------------------------------------------------------------

/// One query's refresh rates under every strategy (a row of Figure 7 / a bar group of
/// Figure 6).
#[derive(Clone, Debug)]
pub struct Figure6Row {
    /// Query name.
    pub query: String,
    /// One entry per strategy in [`STRATEGIES`] order.
    pub rates: Vec<RunStats>,
}

/// Run every query under every strategy.
pub fn figure6_rows(config: &ExperimentConfig, queries: &[WorkloadQuery]) -> Vec<Figure6Row> {
    queries
        .iter()
        .map(|q| {
            let data = dataset_for(q.family, config.events, config.seed);
            let rates = STRATEGIES
                .iter()
                .map(|&mode| run_stream(q, mode, &data, config.time_budget))
                .collect();
            Figure6Row {
                query: q.name.to_string(),
                rates,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Trace figures (8, 9, 10, 13–18)
// ---------------------------------------------------------------------------

/// Replay a stream and sample statistics at each 10% of the trace, as in the paper's
/// trace figures.
pub fn trace_series(
    q: &WorkloadQuery,
    mode: CompileMode,
    data: &workloads::Dataset,
    samples: usize,
    budget: Duration,
) -> Vec<TracePoint> {
    let mut engine = build_engine(q, mode, data);
    let mut out = Vec::with_capacity(samples);
    let chunk = (data.events.len() / samples).max(1);
    let start = Instant::now();
    'outer: for (i, part) in data.events.chunks(chunk).enumerate() {
        for event in part {
            engine
                .process(event)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            if start.elapsed() > budget {
                let s = engine.sample((i + 1) as f64 / samples as f64);
                out.push(TracePoint {
                    fraction: s.fraction,
                    time_minutes: s.elapsed_secs / 60.0,
                    refresh_rate: s.refresh_rate,
                    memory_mb: s.memory_mb,
                });
                break 'outer;
            }
        }
        let s = engine.sample((i + 1) as f64 / samples as f64);
        out.push(TracePoint {
            fraction: s.fraction,
            time_minutes: s.elapsed_secs / 60.0,
            refresh_rate: s.refresh_rate,
            memory_mb: s.memory_mb,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// One bar of Figure 11: a query's refresh rate at a given relative stream length,
/// normalized to the shortest stream.
#[derive(Clone, Debug)]
pub struct Figure11Row {
    /// Query name.
    pub query: String,
    /// (relative scale, absolute refresh rate, rate relative to scale 1).
    pub points: Vec<(usize, f64, f64)>,
}

/// Scaling experiment: replay streams of increasing length (fixed working set) under
/// Higher-Order IVM and report the refresh rate relative to the shortest stream.
pub fn figure11_rows(
    base_events: usize,
    relative_scales: &[usize],
    seed: u64,
    queries: &[&str],
    budget: Duration,
) -> Vec<Figure11Row> {
    queries
        .iter()
        .map(|name| {
            let q = workloads::query(name).unwrap_or_else(|| panic!("unknown query {name}"));
            let mut points = Vec::new();
            let mut baseline = None;
            for &rel in relative_scales {
                let scale = 0.002 * rel as f64;
                let mut data = workloads::tpch::generate(
                    &workloads::TpchConfig::with_fixed_working_set(scale, seed, 150, 600),
                );
                data.truncate(base_events * rel);
                let stats = run_stream(&q, CompileMode::HigherOrder, &data, budget);
                let rate = stats.refresh_rate;
                let base = *baseline.get_or_insert(rate);
                points.push((rel, rate, if base > 0.0 { rate / base } else { 0.0 }));
            }
            Figure11Row {
                query: name.to_string(),
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Micro benchmark suite (harness `micro` subcommand, BENCH_micro.json)
// ---------------------------------------------------------------------------

/// One measured micro-benchmark: a named operation with its achieved rate.
#[derive(Clone, Debug, Default)]
pub struct MicroResult {
    /// Benchmark name (stable across runs; the perf trajectory is keyed on it).
    pub name: String,
    /// Operations (events, inserts, probes...) per second of processing time.
    pub ops_per_sec: f64,
    /// Operations performed during the measurement.
    pub ops: usize,
    /// Measured wall-clock seconds.
    pub elapsed_secs: f64,
    /// Batch strategies the engine actually ran (batch sweep only; joined
    /// with `+` when the query's relations dispatch differently).
    pub strategy: Option<String>,
    /// Events cancelled by in-batch/run coalescing (batch sweep only).
    pub collapsed: Option<u64>,
    /// Per-batch latency percentiles from the run's telemetry handle.
    pub latency: Option<HistogramSummary>,
}

fn time_ops(name: &str, ops: usize, f: impl FnOnce()) -> MicroResult {
    let t0 = Instant::now();
    f();
    let elapsed = t0.elapsed().as_secs_f64();
    MicroResult {
        name: name.to_string(),
        ops_per_sec: if elapsed > 0.0 {
            ops as f64 / elapsed
        } else {
            0.0
        },
        ops,
        elapsed_secs: elapsed,
        ..Default::default()
    }
}

/// Run the substrate micro-benchmarks (view-map maintenance, GMR join/agg) and
/// the fig6 Higher-Order refresh-rate runs for a representative query subset.
/// This is the data series behind `BENCH_micro.json`.
pub fn micro_benchmarks(config: &ExperimentConfig) -> Vec<MicroResult> {
    use dbtoaster::gmr::{Gmr, Schema, Value};
    use dbtoaster::runtime::ViewMap;
    let mut out = Vec::new();

    // View-map insert/cancel churn: the inner operation of every trigger statement.
    const VM_OPS: usize = 400_000;
    out.push(time_ops("viewmap_insert_churn", VM_OPS, || {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        for i in 0..VM_OPS as i64 {
            v.add(vec![Value::long(i % 4_093), Value::long(i % 64)], 1.0);
        }
        std::hint::black_box(v.len());
    }));

    // Partial-pattern probes against a pre-built secondary index.
    let mut probe_map = ViewMap::new(Schema::new(["a", "b"]));
    for i in 0..40_000i64 {
        probe_map.add(vec![Value::long(i % 997), Value::long(i)], 1.0);
    }
    probe_map.lookup(&[Some(Value::long(3)), None]);
    const PROBES: usize = 200_000;
    out.push(time_ops("viewmap_partial_lookup", PROBES, || {
        let mut total = 0usize;
        for i in 0..PROBES as i64 {
            total += probe_map.lookup(&[Some(Value::long(i % 997)), None]).len();
        }
        std::hint::black_box(total);
    }));

    // GMR hash join, the re-evaluation baseline's dominant operation.
    let mut r = Gmr::new(Schema::new(["a", "b"]));
    let mut s = Gmr::new(Schema::new(["b", "c"]));
    for i in 0..2_000i64 {
        r.add_tuple(vec![Value::long(i % 50), Value::long(i)], 1.0);
        s.add_tuple(vec![Value::long(i), Value::long(i * 2)], 1.0);
    }
    const JOINS: usize = 50;
    out.push(time_ops("gmr_join_2k_x_2k", JOINS * r.len(), || {
        for _ in 0..JOINS {
            std::hint::black_box(r.join(&s).len());
        }
    }));

    // fig6 refresh rate, Higher-Order IVM only, representative query subset.
    // Each query is measured twice since the compiled-kernel PR: once on the
    // (default) compiled trigger path — the `fig6_ho_*` series, keeping the
    // perf trajectory comparable across runs — and once with the kernels
    // bypassed (`*_interp`), so the compiled-vs-interpreted gap stays visible.
    for name in ["q1", "q3", "q6", "axf", "bsp", "bsv"] {
        let q = match workloads::query(name) {
            Some(q) => q,
            None => continue,
        };
        let data = dataset_for(q.family, config.events, config.seed);
        for (suffix, force_interpreter) in [("", false), ("_interp", true)] {
            let stats = run_stream_opts(
                &q,
                CompileMode::HigherOrder,
                &data,
                config.time_budget,
                force_interpreter,
            );
            out.push(MicroResult {
                name: format!("fig6_ho_{name}{suffix}"),
                ops_per_sec: stats.refresh_rate,
                ops: stats.processed,
                elapsed_secs: stats.elapsed,
                latency: stats.latency,
                ..Default::default()
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Batch benchmarks (harness `batch` subcommand, BENCH_batch.json)
// ---------------------------------------------------------------------------

/// Batch sizes the `batch` subcommand sweeps. Size 1 is the per-event
/// baseline (the degenerate delta batch); the larger sizes measure how much
/// of the per-event dispatch cost — trigger resolution, kernel prelude,
/// loop-invariant fused scans, per-statement target resolution, change-log
/// and snapshot-cache bookkeeping — batching amortizes away.
pub const BATCH_SIZES: &[usize] = &[1, 8, 64, 512];

/// Replay one query's stream through `Engine::process_batch` at a fixed batch
/// size, measuring wall-clock events/sec (ingest-to-applied, conversion cost
/// included — the honest number a serving writer would see).
fn batch_run(
    q: &workloads::WorkloadQuery,
    data: &workloads::Dataset,
    mode: CompileMode,
    batch_size: usize,
    budget: Duration,
) -> MicroResult {
    let suffix = match mode {
        CompileMode::HigherOrder => "",
        CompileMode::Reevaluate => "_rep",
        CompileMode::FirstOrder => "_fo",
        CompileMode::NaiveViewlet => "_naive",
    };
    let mut engine = build_engine(q, mode, data);
    let tel = bench_telemetry();
    engine.set_telemetry(tel.clone());
    let mut delta = DeltaBatch::new();
    // Pre-chunk an owned copy of the stream before the clock starts: a real
    // producer (the serving writer draining its queue, WAL replay decoding a
    // record) owns its events, so conversion moves the tuples rather than
    // cloning them — the copy below models the producer's cost, not the
    // engine's.
    let chunks: Vec<Vec<UpdateEvent>> =
        data.events.chunks(batch_size).map(|c| c.to_vec()).collect();
    let start = Instant::now();
    let mut processed = 0usize;
    let mut batches = 0usize;
    for chunk in chunks {
        let n = chunk.len();
        delta.clear();
        for ev in chunk {
            delta.push_owned(ev);
        }
        let report = engine.process_batch(&delta);
        if let Some(e) = report.first_error {
            panic!("{} [batch {batch_size}]: {e}", q.name);
        }
        processed += n;
        batches += 1;
        // Check the budget every 32 batches to keep the overhead negligible.
        if batches.is_multiple_of(32) && start.elapsed() > budget {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    engine.flush_telemetry();
    let snap = tel.snapshot();
    debug_assert!(!snap.enabled || snap.events == processed as u64);
    // Single source of truth (see run_stream_opts).
    let processed = if snap.enabled {
        snap.events as usize
    } else {
        processed
    };
    // Report which strategies the dispatch actually chose (a query whose
    // relations split across strategies reports all of them), plus how many
    // events in-batch coalescing cancelled outright.
    let stats = engine.stats();
    let mut used: Vec<&str> = Vec::new();
    if stats.batch_delta_runs > 0 {
        used.push("batch-delta");
    }
    if stats.entry_major_runs > 0 {
        used.push("entry-major");
    }
    MicroResult {
        name: format!("batch{batch_size}_{}{suffix}", q.name),
        ops_per_sec: if elapsed > 0.0 {
            processed as f64 / elapsed
        } else {
            0.0
        },
        ops: processed,
        elapsed_secs: elapsed,
        strategy: Some(used.join("+")),
        collapsed: Some(stats.batch_events_collapsed),
        latency: snap.enabled.then_some(snap.batch_latency),
    }
}

/// The batch-size sweep behind `BENCH_batch.json`: fig6 representative
/// queries plus the finance self-join workloads, each replayed at every
/// [`BATCH_SIZES`] entry. Per-event throughput is expected to *rise* with
/// the batch size for every query now that batch-delta programs are the
/// default dispatch: linear queries amortize dispatch and fused-scan
/// preludes, axfinder answers its price-band aggregates from ordered
/// indexes at every batch size, and the self-joins `bsp` and `bsv` read
/// their own run's writes through the batch-delta live pass instead of
/// falling back to per-event firing.
pub fn batch_benchmarks(config: &ExperimentConfig) -> Vec<MicroResult> {
    let mut out = Vec::new();
    for name in ["q1", "q3", "q6", "axf", "bsp", "bsv"] {
        let q = match workloads::query(name) {
            Some(q) => q,
            None => continue,
        };
        let data = dataset_for(q.family, config.events, config.seed);
        for &size in BATCH_SIZES {
            out.push(batch_run(
                &q,
                &data,
                CompileMode::HigherOrder,
                size,
                config.time_budget,
            ));
        }
    }
    // Re-evaluation mode is where batching changes the *asymptotics*: `:=`
    // statements fire once per relation run instead of once per event, so a
    // run of N same-relation events costs one re-evaluation, not N. REP's
    // per-event cost grows with the stored relations, so the comparison must
    // cover the *same* stream at every batch size: a short fixed stream that
    // every size completes within the budget (prefix rates would otherwise
    // favour whichever size stopped earliest).
    for name in ["q1", "q3", "q6"] {
        let q = match workloads::query(name) {
            Some(q) => q,
            None => continue,
        };
        let rep_events = config.events.min(4096);
        let data = dataset_for(q.family, rep_events, config.seed);
        for &size in BATCH_SIZES {
            out.push(batch_run(
                &q,
                &data,
                CompileMode::Reevaluate,
                size,
                config.time_budget.max(Duration::from_secs(30)),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Serving benchmarks (harness `serve` subcommand, BENCH_serve.json)
// ---------------------------------------------------------------------------

/// Replay a workload through a [`ViewServer`] with `readers` concurrent
/// snapshot readers and optionally one output-delta subscriber, measuring
/// writer throughput (events/s of wall time, ingest → flush) and aggregate
/// read throughput. Returns `(events_per_sec, reads_per_sec, deltas, processed)`.
fn serve_run(
    q: &workloads::WorkloadQuery,
    data: &workloads::Dataset,
    readers: usize,
    subscribe: bool,
) -> (f64, f64, u64, usize) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    let engine = build_engine(q, CompileMode::HigherOrder, data);
    let server = engine
        .serve_with(ServerConfig {
            queue_capacity: 8192,
            max_batch: 2048,
            ..ServerConfig::default()
        })
        .unwrap_or_else(|e| panic!("{}: {e}", q.name));

    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    // Probe one maintained view per snapshot read: the metric is the lock-free
    // snapshot-acquisition path, not per-query result-table assembly (whose
    // cost is workload-dependent and, on a single core, would just measure CPU
    // sharing between assembly and the writer).
    let probe: Option<String> = server.reader().snapshot().names().next().map(String::from);
    let reader_threads: Vec<_> = (0..readers)
        .map(|_| {
            let reader = server.reader();
            let done = done.clone();
            let reads = reads.clone();
            let probe = probe.clone();
            std::thread::spawn(move || {
                while !done.load(Relaxed) {
                    let snap = reader.snapshot();
                    if let Some(name) = &probe {
                        std::hint::black_box(snap.view(name).map(|g| g.len()));
                    }
                    reads.fetch_add(1, Relaxed);
                    // Poll rather than spin: a dashboard-style reader yields
                    // between reads instead of monopolizing a core.
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    let delta_count = Arc::new(AtomicU64::new(0));
    let sub_thread = subscribe.then(|| {
        let sub = server
            .subscribe(q.name)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        let delta_count = delta_count.clone();
        std::thread::spawn(move || {
            while let Some(batch) = sub.recv() {
                delta_count.fetch_add(batch.deltas.len() as u64, Relaxed);
            }
        })
    });

    let ingest = server.handle();
    // Clone the stream before the clock starts: the single-threaded baseline
    // replays borrowed events, so the comparison should not charge the copy.
    let events: Vec<UpdateEvent> = data.events.clone();
    let start = Instant::now();
    ingest.send_batch(events).expect("server alive");
    server.flush().expect("flush");
    let wall = start.elapsed().as_secs_f64();
    done.store(true, Relaxed);
    for t in reader_threads {
        t.join().expect("reader thread");
    }
    let processed = server.stats().events as usize;
    assert!(server.last_error().is_none(), "{}: writer error", q.name);
    drop(server); // joins the writer, closing the subscription stream
    if let Some(t) = sub_thread {
        t.join().expect("subscriber thread");
    }
    let rate = |n: f64| if wall > 0.0 { n / wall } else { 0.0 };
    (
        rate(processed as f64),
        rate(reads.load(Relaxed) as f64),
        delta_count.load(Relaxed),
        processed,
    )
}

/// The serving-layer benchmark suite: writer throughput alone vs. under 4
/// concurrent readers (the acceptance comparison against the single-threaded
/// `fig6_ho_*` rates), aggregate snapshot-read throughput, and subscription
/// fan-out. This is the data series behind `BENCH_serve.json`.
pub fn serve_benchmarks(config: &ExperimentConfig) -> Vec<MicroResult> {
    let mut out = Vec::new();
    for name in ["q1", "q3", "q6"] {
        let q = match workloads::query(name) {
            Some(q) => q,
            None => continue,
        };
        let data = dataset_for(q.family, config.events, config.seed);
        let (solo, _, _, processed) = serve_run(&q, &data, 0, false);
        out.push(MicroResult {
            name: format!("serve_writer_{name}"),
            ops_per_sec: solo,
            ops: processed,
            elapsed_secs: if solo > 0.0 {
                processed as f64 / solo
            } else {
                0.0
            },
            ..Default::default()
        });
        let (contended, read_rate, _, processed) = serve_run(&q, &data, 4, false);
        out.push(MicroResult {
            name: format!("serve_writer_{name}_4readers"),
            ops_per_sec: contended,
            ops: processed,
            elapsed_secs: if contended > 0.0 {
                processed as f64 / contended
            } else {
                0.0
            },
            ..Default::default()
        });
        out.push(MicroResult {
            name: format!("serve_reads_{name}_4readers"),
            ops_per_sec: read_rate,
            ops: processed,
            elapsed_secs: 0.0,
            ..Default::default()
        });
    }
    // Subscription fan-out on a single-aggregate query (map-backed deltas).
    if let Some(q) = workloads::query("q6") {
        let data = dataset_for(q.family, config.events, config.seed);
        let (rate, _, deltas, processed) = serve_run(&q, &data, 0, true);
        out.push(MicroResult {
            name: "serve_writer_q6_1sub".into(),
            ops_per_sec: rate,
            ops: processed,
            elapsed_secs: if rate > 0.0 {
                processed as f64 / rate
            } else {
                0.0
            },
            ..Default::default()
        });
        out.push(MicroResult {
            name: "serve_sub_deltas_q6".into(),
            ops_per_sec: 0.0,
            ops: deltas as usize,
            elapsed_secs: 0.0,
            ..Default::default()
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Durability benchmarks (harness `recover` subcommand, BENCH_recover.json)
// ---------------------------------------------------------------------------

/// The durability benchmark suite: durable writer throughput (WAL ahead of
/// every micro-batch), WAL bytes per event, checkpoint write/load rates
/// (entries/s) and WAL replay rate (events/s) after a [`ViewServer::kill`]
/// crash. This is the data series behind `BENCH_recover.json`.
pub fn recover_benchmarks(config: &ExperimentConfig) -> Vec<MicroResult> {
    use dbtoaster::durability::{
        self, load_latest, program_fingerprint, write_checkpoint, DurabilityConfig, WalReader,
    };
    use dbtoaster::runtime::Engine;
    use dbtoaster::to_compiler_catalog;

    let mut out = Vec::new();
    let catalog = to_compiler_catalog(&workloads::full_catalog());
    for name in ["q1", "q3", "q6"] {
        let q = match workloads::query(name) {
            Some(q) => q,
            None => continue,
        };
        let data = dataset_for(q.family, config.events, config.seed);
        let dir =
            std::env::temp_dir().join(format!("dbt-bench-recover-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Durable serve: WAL every batch, one periodic checkpoint mid-stream
        // so recovery exercises both the checkpoint load and a long replay.
        let engine = build_engine(&q, CompileMode::HigherOrder, &data);
        let program = engine.program().clone();
        let mut dcfg = DurabilityConfig::new(&dir);
        dcfg.checkpoint_every_events = (config.events as u64 / 2).max(1);
        let server = engine
            .open_or_create_with(ServerConfig {
                max_batch: 2048,
                durability: Some(dcfg),
                ..ServerConfig::default()
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ingest = server.handle();
        let t0 = Instant::now();
        ingest
            .send_batch(data.events.clone())
            .expect("server alive");
        server.flush().expect("flush");
        let wall = t0.elapsed().as_secs_f64();
        let stats = server.stats();
        assert_eq!(stats.events as usize, data.events.len());
        let rate = |n: f64, secs: f64| if secs > 0.0 { n / secs } else { 0.0 };
        out.push(MicroResult {
            name: format!("durable_writer_{name}"),
            ops_per_sec: rate(stats.events as f64, wall),
            ops: stats.events as usize,
            elapsed_secs: wall,
            ..Default::default()
        });
        // Log density: total WAL bytes in `ops` (rate column left 0.0 — this
        // row is a size, not a throughput; bytes/event = ops / events).
        out.push(MicroResult {
            name: format!("wal_bytes_{name}"),
            ops_per_sec: 0.0,
            ops: stats.wal_bytes_written as usize,
            elapsed_secs: 0.0,
            ..Default::default()
        });
        // Crash (no final checkpoint): the WAL tail above the periodic
        // checkpoint must be replayed on reopen.
        server.kill();

        let fp = program_fingerprint(&program);
        let t0 = Instant::now();
        let (ckpt, _) = load_latest(&dir, fp).expect("checkpoint readable");
        let ckpt = ckpt.expect("checkpoint present");
        let load_secs = t0.elapsed().as_secs_f64();
        let entries: usize = ckpt.maps.iter().map(|(_, g)| g.len()).sum();
        out.push(MicroResult {
            name: format!("ckpt_load_{name}"),
            ops_per_sec: rate(entries as f64, load_secs),
            ops: entries,
            elapsed_secs: load_secs,
            ..Default::default()
        });

        let watermark = ckpt.watermark;
        let mut warm = Engine::from_snapshot(program.clone(), &catalog, ckpt.maps, watermark);
        let reader = WalReader::open(&dir, fp).expect("wal readable");
        let t0 = Instant::now();
        let replay = reader
            .replay(watermark + 1, &mut |_, ev| {
                warm.process(&ev).map_err(|e| e.to_string())
            })
            .expect("replay");
        let replay_secs = t0.elapsed().as_secs_f64();
        assert_eq!(warm.stats().events as usize, data.events.len());
        out.push(MicroResult {
            name: format!("wal_replay_{name}"),
            ops_per_sec: rate(replay.events_replayed as f64, replay_secs),
            ops: replay.events_replayed as usize,
            elapsed_secs: replay_secs,
            ..Default::default()
        });

        // End-to-end recovery (checkpoint discovery + load + replay).
        let t0 = Instant::now();
        let rec = durability::recover(&dir, program.clone(), &catalog)
            .expect("recover")
            .expect("state present");
        let total_secs = t0.elapsed().as_secs_f64();
        assert_eq!(rec.engine.stats().events as usize, data.events.len());
        out.push(MicroResult {
            name: format!("recover_total_{name}"),
            ops_per_sec: rate(rec.engine.stats().events as f64, total_secs),
            ops: rec.engine.stats().events as usize,
            elapsed_secs: total_secs,
            ..Default::default()
        });

        // Checkpoint write rate at full state size.
        let snap = warm.snapshot();
        let t0 = Instant::now();
        write_checkpoint(
            &dir,
            fp,
            warm.stats().events,
            snap.iter().map(|(n, g)| (n.as_str(), g)),
        )
        .expect("checkpoint write");
        let write_secs = t0.elapsed().as_secs_f64();
        let entries: usize = snap.values().map(|g| g.len()).sum();
        out.push(MicroResult {
            name: format!("ckpt_write_{name}"),
            ops_per_sec: rate(entries as f64, write_secs),
            ops: entries,
            elapsed_secs: write_secs,
            ..Default::default()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render micro-benchmark results as JSON (hand-rolled: the workspace builds
/// without a JSON dependency).
pub fn micro_json(label: &str, config: &ExperimentConfig, results: &[MicroResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(label)));
    out.push_str(&format!("  \"events\": {},\n", config.events));
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut extra = String::new();
        if let Some(s) = &r.strategy {
            extra.push_str(&format!(", \"strategy\": \"{}\"", json_escape(s)));
        }
        if let Some(c) = r.collapsed {
            extra.push_str(&format!(", \"collapsed\": {c}"));
        }
        if let Some(l) = &r.latency {
            extra.push_str(&format!(
                ", \"latency\": {{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \
                 \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                l.count, l.mean_nanos, l.p50_nanos, l.p90_nanos, l.p99_nanos, l.max_nanos
            ));
        }
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops_per_sec\": {:.1}, \"ops\": {}, \"elapsed_secs\": {:.4}{}}}{}\n",
            json_escape(&r.name),
            r.ops_per_sec,
            r.ops,
            r.elapsed_secs,
            extra,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validate the `latency` blocks of a [`micro_json`] document: every block
/// must carry all six fields with numeric values, and at least one block must
/// be present. Returns the number of blocks checked. The CI release-harness
/// smoke runs this against the emitted JSON so a refactor that silently drops
/// the percentile block fails the build instead of degrading dashboards.
pub fn validate_latency_json(json: &str) -> Result<usize, String> {
    const KEYS: [&str; 6] = [
        "\"count\"",
        "\"mean_ns\"",
        "\"p50_ns\"",
        "\"p90_ns\"",
        "\"p99_ns\"",
        "\"max_ns\"",
    ];
    let mut found = 0usize;
    let mut rest = json;
    while let Some(pos) = rest.find("\"latency\":") {
        let after = &rest[pos + "\"latency\":".len()..];
        let Some(open) = after.find('{') else {
            return Err("latency key without an object".into());
        };
        let Some(close) = after[open..].find('}') else {
            return Err("unterminated latency object".into());
        };
        let body = &after[open..=open + close];
        for key in KEYS {
            let Some(kpos) = body.find(key) else {
                return Err(format!("latency block missing {key}: {body}"));
            };
            let val = body[kpos + key.len()..]
                .trim_start_matches(':')
                .trim_start();
            let num: String = val
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            if num.parse::<f64>().is_err() {
                return Err(format!("latency field {key} is not numeric: {body}"));
            }
        }
        found += 1;
        rest = &after[open + close..];
    }
    if found == 0 {
        return Err("no latency block found in JSON output".into());
    }
    Ok(found)
}

/// Render micro-benchmark results as an aligned text table.
pub fn format_micro(results: &[MicroResult]) -> String {
    let mut out =
        String::from("benchmark                      ops/sec        ops      elapsed(s)\n");
    for r in results {
        out.push_str(&format!(
            "{:<28} {:>12.1} {:>10} {:>12.4}",
            r.name, r.ops_per_sec, r.ops, r.elapsed_secs
        ));
        if let Some(s) = &r.strategy {
            out.push_str(&format!("  {s}"));
        }
        if let Some(c) = r.collapsed {
            out.push_str(&format!(" ({c} collapsed)"));
        }
        if let Some(l) = &r.latency {
            out.push_str(&format!(
                "  p50={}ns p99={}ns max={}ns",
                l.p50_nanos, l.p99_nanos, l.max_nanos
            ));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------------

/// Render Figure 2 as an aligned text table.
pub fn format_figure2(rows: &[Figure2Row]) -> String {
    let mut out = String::from(
        "query      fam      T  Gb  Nst  D  P  I  N     maps\n\
         ------------------------------------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<8} {:<2} {:<3} {:<4} {:<2} {:<2} {:<2} {:<5} {:<4}\n",
            r.query,
            r.family.to_string(),
            r.tables,
            if r.group_by { "y" } else { "-" },
            r.nesting,
            if r.decomposition { "D" } else { "-" },
            if r.expansion { "P" } else { "-" },
            if r.input_vars { "S" } else { "-" },
            r.nested_strategy,
            r.maps,
        ));
    }
    out
}

/// Render Figure 6/7 as an aligned text table (view refreshes per second).
pub fn format_figure6(rows: &[Figure6Row]) -> String {
    let mut out = String::from(
        "query      REP          IVM          Naive        DBToaster    speedup(DBT/REP)\n\
         --------------------------------------------------------------------------------\n",
    );
    for r in rows {
        let rates: Vec<f64> = r.rates.iter().map(|s| s.refresh_rate).collect();
        let speedup = if rates[0] > 0.0 {
            rates[3] / rates[0]
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}x\n",
            r.query, rates[0], rates[1], rates[2], rates[3], speedup
        ));
    }
    out
}

/// Render a trace series.
pub fn format_trace(query: &str, mode: CompileMode, points: &[TracePoint]) -> String {
    let mut out = format!("{query} [{mode}]\n  frac   time(min)   refresh(1/s)   mem(MB)\n");
    for p in points {
        out.push_str(&format!(
            "  {:>4.2} {:>10.4} {:>14.1} {:>9.3}\n",
            p.fraction, p.time_minutes, p.refresh_rate, p.memory_mb
        ));
    }
    out
}

/// Render Figure 11.
pub fn format_figure11(rows: &[Figure11Row]) -> String {
    let mut out = String::from("query      scale  refresh(1/s)  relative-to-1x\n");
    for r in rows {
        for (rel, rate, relative) in &r.points {
            out.push_str(&format!(
                "{:<10} {:>5}x {:>12.1} {:>14.2}\n",
                r.query, rel, rate, relative
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Shard-parallel sweep (harness `shard`)
// ---------------------------------------------------------------------------

/// Queries the shard sweep runs: a mix chosen so the sharding analysis lands
/// both fully shard-local plans and plans that route cross-shard terms
/// through the exchange executor (which of the two each query got is part of
/// the report).
pub const SHARD_QUERIES: &[&str] = &["q1", "q3", "q6", "vwap", "axf"];

/// One (query, shard count) verdict of the shard sweep's invariance pass.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Query name.
    pub query: String,
    /// Shard count of this run.
    pub shards: usize,
    /// The whole trigger program ran shard-local (no exchange executor).
    pub fully_local: bool,
    /// Interchange-form bytes shipped to the exchange executor.
    pub exchange_bytes: u64,
    /// Merged state matched the single-engine oracle bit for bit (false =
    /// equal only up to float-addition reassociation in Summed-class merges).
    pub bit_exact: bool,
}

/// Everything the harness `shard` subcommand reports.
pub struct ShardSweep {
    /// Throughput per (query, shard count), `MicroResult::strategy` carrying
    /// `local` / `exchange`.
    pub results: Vec<MicroResult>,
    /// Invariance verdict per (query, shard count).
    pub rows: Vec<ShardRow>,
    /// The shard counts swept.
    pub counts: Vec<usize>,
    /// Queries whose merged state matched the oracle at every shard count.
    pub verified: usize,
    /// Queries swept.
    pub total: usize,
    /// Queries bit-exact at every shard count (subset of `verified`).
    pub bit_exact: usize,
    /// Queries with a fully shard-local plan.
    pub local: usize,
    /// Queries that needed the exchange executor.
    pub exchanging: usize,
}

/// Compare a view against the oracle: `(equal, bit_exact)`. Equality allows
/// the relative rounding that merging per-shard float sums can introduce
/// (same caveat as batch-delta reassociation, see `crates/agca/src/batch.rs`);
/// bit-exactness is reported separately because Partitioned-class merges are
/// disjoint unions and must not drift at all.
fn gmr_matches(want: &Gmr, got: &Gmr) -> (bool, bool) {
    // Canonicalize away explicit zero-multiplicity entries: whether a zero is
    // retained or dropped is a storage detail that differs between a merged
    // union and a single map, not an answer difference.
    let canon = |g: &Gmr| -> std::collections::BTreeMap<String, f64> {
        g.iter()
            .filter(|(_, m)| *m != 0.0)
            .map(|(t, m)| (format!("{t:?}"), m))
            .collect()
    };
    let want = canon(want);
    let got = canon(got);
    if want.len() != got.len() {
        return (false, false);
    }
    let mut bit = true;
    for (t, m) in &want {
        let Some(g) = got.get(t) else {
            return (false, false);
        };
        if g.to_bits() != m.to_bits() {
            bit = false;
            if (g - m).abs() > 1e-9 * m.abs().max(1.0) {
                return (false, false);
            }
        }
    }
    (true, bit)
}

/// The shard sweep: for each query in [`SHARD_QUERIES`] and each shard count,
/// verify shard-count invariance (merged state equals a single-engine oracle
/// fed the same batches) and measure scatter/process/merge throughput over
/// the full stream. Panics on any invariance violation — a wrong answer must
/// never be reported as a benchmark number.
pub fn shard_sweep(config: &ExperimentConfig, counts: &[usize]) -> ShardSweep {
    use dbtoaster::runtime::{Engine, ShardedEngine};
    const CHUNK: usize = 256;
    let catalog = workloads::full_catalog();
    let ccat = dbtoaster::to_compiler_catalog(&catalog);
    let mut sweep = ShardSweep {
        results: Vec::new(),
        rows: Vec::new(),
        counts: counts.to_vec(),
        verified: 0,
        total: 0,
        bit_exact: 0,
        local: 0,
        exchanging: 0,
    };
    for name in SHARD_QUERIES {
        let q = workloads::query(name).unwrap_or_else(|| panic!("workload query {name} missing"));
        let data = dataset_for(q.family, config.events, config.seed);
        let program = QueryEngineBuilder::new(catalog.clone())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", q.name))
            .program()
            .clone();

        // Oracle: one plain engine over a fixed prefix, batched exactly like
        // the sharded runs (so only shard *merging* can differ, not batch
        // boundaries).
        let prefix = data.events.len().min(4_000);
        let mut oracle = Engine::new(program.clone(), &ccat);
        for (table, rows) in &data.tables {
            oracle.load_table(table, rows.iter().cloned());
        }
        oracle.init_static_views().unwrap();
        let mut delta = DeltaBatch::new();
        for chunk in data.events[..prefix].chunks(CHUNK) {
            delta.clear();
            for ev in chunk {
                delta.push(ev);
            }
            oracle.process_batch(&delta);
        }
        // The SQL planner registers one result per translated view (not under
        // the user-facing query name); invariance must hold for every one.
        let want: Vec<(String, Gmr)> = program
            .results
            .iter()
            .map(|r| {
                let g = oracle
                    .result(&r.name)
                    .unwrap_or_else(|e| panic!("{}: oracle result {}: {e}", q.name, r.name));
                (r.name.clone(), g)
            })
            .collect();

        sweep.total += 1;
        let mut all_bit_exact = true;
        let mut was_local = false;
        for &n in counts {
            // Invariance pass: fixed prefix, no budget cutoff.
            let mut sharded = ShardedEngine::new(program.clone(), &ccat, n);
            for (table, rows) in &data.tables {
                sharded.load_table(table, rows);
            }
            sharded.init_static_views().unwrap();
            for chunk in data.events[..prefix].chunks(CHUNK) {
                let report = sharded.process_events(chunk);
                if let Some(e) = report.first_error {
                    panic!("{} [shards={n}]: {e}", q.name);
                }
            }
            let mut bit = true;
            for (rn, w) in &want {
                let got = sharded
                    .result(rn)
                    .unwrap_or_else(|e| panic!("{} [shards={n}]: result {rn}: {e}", q.name));
                let (equal, b) = gmr_matches(w, &got);
                assert!(
                    equal,
                    "{} [shards={n}]: merged result {rn} diverged from the single-engine oracle",
                    q.name
                );
                bit &= b;
            }
            all_bit_exact &= bit;
            was_local = !sharded.has_executor();
            sweep.rows.push(ShardRow {
                query: q.name.to_string(),
                shards: n,
                fully_local: !sharded.has_executor(),
                exchange_bytes: sharded.exchange_stats().bytes,
                bit_exact: bit,
            });

            // Throughput pass: fresh engine, full stream, honouring the budget.
            let mut bench = ShardedEngine::new(program.clone(), &ccat, n);
            for (table, rows) in &data.tables {
                bench.load_table(table, rows);
            }
            bench.init_static_views().unwrap();
            let start = Instant::now();
            let mut processed = 0usize;
            for chunk in data.events.chunks(CHUNK) {
                let report = bench.process_events(chunk);
                if let Some(e) = report.first_error {
                    panic!("{} [shards={n}]: {e}", q.name);
                }
                processed += chunk.len();
                if start.elapsed() > config.time_budget {
                    break;
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            sweep.results.push(MicroResult {
                name: format!("{}/shards={n}", q.name),
                ops_per_sec: if elapsed > 0.0 {
                    processed as f64 / elapsed
                } else {
                    0.0
                },
                ops: processed,
                elapsed_secs: elapsed,
                strategy: Some(
                    if bench.has_executor() {
                        "exchange"
                    } else {
                        "local"
                    }
                    .to_string(),
                ),
                ..Default::default()
            });
        }
        sweep.verified += 1;
        if all_bit_exact {
            sweep.bit_exact += 1;
        }
        if was_local {
            sweep.local += 1;
        } else {
            sweep.exchanging += 1;
        }
    }
    sweep
}

/// The line CI greps for (`shard-count invariance: verified ...`): every
/// query's merged state matched the oracle at every swept shard count, with
/// the bit-exact / float-tolerance split spelled out.
pub fn shard_invariance_line(s: &ShardSweep) -> String {
    format!(
        "shard-count invariance: verified {}/{} queries across shards {:?} \
         ({} bit-exact, {} within float tolerance; {} fully-local, {} exchanging)",
        s.verified,
        s.total,
        s.counts,
        s.bit_exact,
        s.total - s.bit_exact,
        s.local,
        s.exchanging
    )
}

/// JSON document for `BENCH_shard.json`.
pub fn shard_json(label: &str, config: &ExperimentConfig, s: &ShardSweep) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(label)));
    out.push_str(&format!("  \"events\": {},\n", config.events));
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!(
        "  \"shard_counts\": [{}],\n",
        s.counts
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"invariance\": {{\"verified\": {}, \"total\": {}, \"bit_exact\": {}, \
         \"fully_local\": {}, \"exchanging\": {}}},\n",
        s.verified, s.total, s.bit_exact, s.local, s.exchanging
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in s.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"shards\": {}, \"fully_local\": {}, \
             \"exchange_bytes\": {}, \"bit_exact\": {}}}{}\n",
            json_escape(&r.query),
            r.shards,
            r.fully_local,
            r.exchange_bytes,
            r.bit_exact,
            if i + 1 < s.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"results\": [\n");
    for (i, r) in s.results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops_per_sec\": {:.1}, \"ops\": {}, \
             \"elapsed_secs\": {:.4}, \"plan\": \"{}\"}}{}\n",
            json_escape(&r.name),
            r.ops_per_sec,
            r.ops,
            r.elapsed_secs,
            json_escape(r.strategy.as_deref().unwrap_or("")),
            if i + 1 < s.results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_covers_all_queries() {
        let rows = figure2_rows();
        assert_eq!(rows.len(), workloads::all_queries().len());
        // PSP must be re-evaluated, Q17a incremental.
        let psp = rows.iter().find(|r| r.query == "psp").unwrap();
        assert!(psp.nested_strategy.contains('R'));
        let q17a = rows.iter().find(|r| r.query == "q17a").unwrap();
        assert!(q17a.nested_strategy.contains('I'));
        assert!(!format_figure2(&rows).is_empty());
    }

    #[test]
    fn small_refresh_rate_run_produces_sane_numbers() {
        let q = workloads::query("q6").unwrap();
        let data = dataset_for(Family::Tpch, 500, 1);
        let stats = run_stream(&q, CompileMode::HigherOrder, &data, Duration::from_secs(10));
        assert_eq!(stats.processed, data.events.len());
        assert!(stats.refresh_rate > 0.0);
        assert!(stats.memory_mb >= 0.0);
        // The run carries its own latency percentiles, one sample per event.
        let lat = stats.latency.expect("run_stream attaches telemetry");
        assert_eq!(lat.count, data.events.len() as u64);
        assert!(lat.p50_nanos > 0 && lat.p50_nanos <= lat.p99_nanos);
        assert!(lat.p99_nanos <= lat.max_nanos.max(lat.p99_nanos));
    }

    #[test]
    fn micro_json_latency_blocks_validate() {
        let results = vec![
            MicroResult {
                name: "with_latency".into(),
                ops_per_sec: 10.0,
                ops: 10,
                elapsed_secs: 1.0,
                latency: Some(HistogramSummary {
                    count: 10,
                    sum_nanos: 1000,
                    max_nanos: 200,
                    mean_nanos: 100.0,
                    p50_nanos: 90,
                    p90_nanos: 150,
                    p99_nanos: 190,
                }),
                ..Default::default()
            },
            MicroResult {
                name: "without".into(),
                ..Default::default()
            },
        ];
        let config = ExperimentConfig::default();
        let json = micro_json("test", &config, &results);
        assert_eq!(validate_latency_json(&json), Ok(1));
        // A document with no latency block at all must be rejected.
        let none = micro_json("test", &config, &results[1..]);
        assert!(validate_latency_json(&none).is_err());
        // A mangled block (missing field) must be rejected too.
        let broken = json.replace("\"p99_ns\"", "\"p99\"");
        assert!(validate_latency_json(&broken).is_err());
    }

    #[test]
    fn serve_run_matches_single_threaded_results() {
        let q = workloads::query("q6").unwrap();
        // Large enough that q6's date/discount/quantity filters match some rows.
        let data = dataset_for(Family::Tpch, 4000, 1);
        let (rate, _reads, deltas, processed) = serve_run(&q, &data, 2, true);
        assert_eq!(processed, data.events.len());
        assert!(rate > 0.0);
        assert!(deltas > 0, "subscription saw no output deltas");
        // The served result equals the single-threaded engine's result.
        let mut engine = build_engine(&q, CompileMode::HigherOrder, &data);
        engine.process_all(&data.events).unwrap();
        let expected = engine.result(q.name).unwrap().scalar();
        let served = build_engine(&q, CompileMode::HigherOrder, &data)
            .serve()
            .unwrap();
        let ingest = served.handle();
        for e in &data.events {
            ingest.send(e.clone()).unwrap();
        }
        served.flush().unwrap();
        let got = served.reader().query(q.name).unwrap().scalar();
        // The served run batches events into micro-batches whose batch-delta
        // execution may reassociate q6's float sum (see the float caveat in
        // `crates/agca/src/batch.rs`): equal up to relative rounding, not
        // necessarily bit-equal to the event-at-a-time order.
        let tol = 1e-9 * expected.abs().max(1.0);
        assert!(
            (got - expected).abs() <= tol,
            "served {got} vs single-threaded {expected}"
        );
    }

    #[test]
    fn trace_series_is_monotone_in_time() {
        let q = workloads::query("bsv").unwrap();
        let data = dataset_for(Family::Finance, 600, 1);
        let pts = trace_series(
            &q,
            CompileMode::HigherOrder,
            &data,
            5,
            Duration::from_secs(10),
        );
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[1].time_minutes >= w[0].time_minutes);
            assert!(w[1].fraction > w[0].fraction);
        }
        assert!(!format_trace("bsv", CompileMode::HigherOrder, &pts).is_empty());
    }
}
