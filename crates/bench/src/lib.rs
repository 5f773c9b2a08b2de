//! Shared infrastructure for the experiment harness (the `harness` binary).
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
//!
//! Timing the system layer by layer is the job of the `benchmark/` package
//! (`BENCHMARK.json`), not of this crate; [`profile`] samples where a
//! per-event `process` call spends its time (`harness profile`).
//!
//! The absolute numbers differ from the paper (compiled Rust kernels on different
//! hardware rather than generated C++ on a 2009 Xeon), but the *shape* — which strategy
//! wins, by how many orders of magnitude, and how it evolves along the stream — is the
//! reproduction target.

pub mod profile;

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

/// Experiment sizing knobs (scaled-down defaults keep `harness all` tractable).
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

impl TracePoint {
    /// `engine`'s memory after `fraction` of the stream, which took it
    /// `busy` of processing time.
    fn of(engine: &QueryEngine, fraction: f64, busy: Duration) -> TracePoint {
        TracePoint {
            fraction,
            time_minutes: busy.as_secs_f64() / 60.0,
            refresh_rate: rate(engine.stats().events, busy),
            memory_mb: engine.memory_bytes() as f64 / (1024.0 * 1024.0),
        }
    }
}

/// Events per second of `busy` (0.0 for no events).
fn rate(events: u64, busy: Duration) -> f64 {
    events as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE)
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
    let catalog = workloads::full_catalog();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q.name, q.sql)
        .mode(mode)
        .build()
        .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
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
    let mut engine = build_engine(q, mode, data);
    let start = Instant::now();
    for (i, event) in data.events.iter().enumerate() {
        engine
            .process(event)
            .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
        // Check the budget every 64 events to keep the overhead negligible.
        if (i + 1).is_multiple_of(64) && start.elapsed() > budget {
            break;
        }
    }
    let busy = start.elapsed();
    // The reported operation count is the engine's event counter, the same
    // source the refresh rate is computed from.
    let events = engine.stats().events;
    RunStats {
        query: q.name.to_string(),
        mode,
        processed: events as usize,
        total: data.events.len(),
        refresh_rate: rate(events, busy),
        memory_mb: engine.memory_bytes() as f64 / (1024.0 * 1024.0),
        elapsed: busy.as_secs_f64(),
    }
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
/// trace figures. A point's time is the processing time of the chunks so far,
/// each timed on its own: reading the memory footprint between them is not
/// counted.
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
    let (mut busy, mut over) = (Duration::ZERO, false);
    for (i, part) in data.events.chunks(chunk).enumerate() {
        let t0 = Instant::now();
        for event in part {
            engine
                .process(event)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", q.name));
            // The budget is checked every 64 events, as in `run_stream`.
            over = engine.stats().events.is_multiple_of(64) && start.elapsed() > budget;
            if over {
                break;
            }
        }
        busy += t0.elapsed();
        out.push(TracePoint::of(
            &engine,
            (i + 1) as f64 / samples as f64,
            busy,
        ));
        if over {
            break;
        }
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
