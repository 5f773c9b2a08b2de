//! # DBToaster telemetry
//!
//! Metrics, latency histograms and slow-batch traces for the whole pipeline:
//! a std-only, dependency-free measurement layer shared by the runtime engine,
//! the view server, the durability call sites and the benchmark harness.
//!
//! ## Design
//!
//! The paper's headline number is a *refresh rate*, so the engine's hot path
//! is measured in nanoseconds per event — the instrumentation must cost close
//! to nothing or it distorts the very number it reports. Three rules follow:
//!
//! 1. **Shared state is written with plain relaxed atomics.** Every counter,
//!    gauge and histogram bucket is an [`AtomicU64`] recorded with
//!    `Ordering::Relaxed`. The values are statistical: a metrics snapshot
//!    taken mid-record may see a bucket increment before the matching `count`
//!    increment (or vice versa), which skews a percentile readout by at most
//!    the records in flight — irrelevant at the sample counts involved.
//!    Nothing synchronizes *through* a metric, so no stronger ordering is
//!    needed, and on x86 a relaxed `fetch_add` is a single `lock xadd` with
//!    no fence. Readers never block writers: the only locks in the crate
//!    guard the registration lists (touched once per name) and the trace
//!    ring buffer (touched only by slow batches and by drains).
//! 2. **Single-writer hot paths use [`LocalHistogram`].** A relaxed atomic add
//!    is cheap but not free (~5-10ns); the engine's fastest compiled queries
//!    process an event in ~150ns, so even four atomic adds per event would
//!    blow a few-percent overhead budget. A `LocalHistogram` is a plain
//!    `u64` array owned by the writer — recording is an increment on an
//!    L1-resident line (~1-2ns) — and is folded into the shared
//!    [`Histogram`] by an explicit, amortized `flush_into` (the engine
//!    flushes every 64 batches). Metrics readers therefore see engine-side
//!    numbers with a bounded, documented lag; server-side stage guards
//!    record straight into shared histograms because their rate is per
//!    *micro-batch*, not per event.
//! 3. **The slow path is the only allocating path.** Recording, flushing and
//!    snapshotting never allocate on the writer thread; only assembling a
//!    [`SlowBatchTrace`] (for a batch that already blew a multi-millisecond
//!    threshold) builds owned strings and vectors.
//!
//! ## Bucket math
//!
//! Latencies are recorded in integer nanoseconds into a fixed 128-bucket
//! log-linear histogram (the HDR idea at a small, allocation-free footprint):
//! each power-of-two octave is split into 4 linear sub-buckets, so
//!
//! * values 0–3 ns map to buckets 0–3 exactly;
//! * a value `v ≥ 4` with `e = floor(log2 v)` maps to bucket
//!   `4·(e−1) + ((v >> (e−2)) & 3)`;
//! * bucket 127 is the overflow bucket: everything from ~7.5 s up.
//!
//! The math is pure integer work (`leading_zeros`, one shift, one mask) — no
//! floats on the record path. 32 octaves cover 1 ns .. ~8.6 s. A quantile
//! readout returns the midpoint of the bucket it lands in, so its relative
//! error is at most half a sub-bucket width: ±12.5% worst case. (Full
//! 2-significant-digit HDR fidelity would need ~64 sub-buckets per octave —
//! about 1800 buckets; 128 buckets keep every histogram on a handful of cache
//! lines, which is what lets the engine afford one per pipeline stage.)
//!
//! ## Overhead budget
//!
//! | path | cost | rate |
//! |---|---|---|
//! | `LocalHistogram::record` | ~1-2 ns (plain add) | per engine batch |
//! | kernel counters (`Cell<u64>` in the executor) | ~1 ns | per scan/statement |
//! | engine flush (fold locals + per-view pendings into atomics) | ~1-2 µs | every 64 batches |
//! | `Histogram::record` (shared, relaxed atomics) | ~20-30 ns | per server micro-batch / stage |
//! | `StageGuard` (two `Instant::now` + record) | ~60 ns | per server micro-batch / stage |
//! | trace assembly | allocates | only for batches over the slow threshold |
//!
//! The acceptance bar — fig6 micro throughput within 3% with telemetry
//! enabled — is met by keeping everything that runs per *event* in the first
//! two rows.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Number of histogram buckets (see the module docs for the bucket math).
pub const BUCKETS: usize = 128;

/// Sub-buckets per power-of-two octave.
const SUB: u64 = 4;

/// Map a nanosecond value to its bucket index. Pure integer math; monotone.
#[inline]
pub fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let e = 63 - nanos.leading_zeros() as u64; // e >= 2
    let sub = (nanos >> (e - 2)) & (SUB - 1);
    (((e - 1) * SUB + sub) as usize).min(BUCKETS - 1)
}

/// Inclusive lower bound of a bucket, in nanoseconds.
#[inline]
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let e = idx as u64 / SUB + 1;
    let sub = idx as u64 % SUB;
    (1u64 << e) + (sub << (e - 2))
}

/// The value a quantile readout reports for a bucket: exact for the first
/// octave, the bucket midpoint elsewhere (±12.5% worst-case relative error),
/// and the lower bound for the overflow bucket (the true maximum is reported
/// separately).
#[inline]
fn bucket_representative(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let lower = bucket_lower_bound(idx);
    if idx == BUCKETS - 1 {
        return lower;
    }
    let width = bucket_lower_bound(idx + 1) - lower;
    lower + width / 2
}

/// A fixed-size log-bucketed latency histogram on relaxed atomics. Concurrent
/// recorders and readers never block each other (see the module docs for the
/// ordering argument).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(nanos, Relaxed);
        self.max.fetch_max(nanos, Relaxed);
    }

    /// Record one duration sample.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A consistent-enough point-in-time readout (see the module docs on
    /// relaxed snapshots).
    pub fn summary(&self) -> HistogramSummary {
        let mut buckets = [0u64; BUCKETS];
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Relaxed);
        }
        // Percentiles walk the bucket copy, whose total can differ from the
        // `count` cell by records in flight; using the copy's own total keeps
        // the walk internally consistent.
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Relaxed);
        let max = self.max.load(Relaxed);
        let q = |quantile: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((quantile * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (i, &b) in buckets.iter().enumerate() {
                cum += b;
                if cum >= rank {
                    return bucket_representative(i).min(max.max(i as u64));
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum_nanos: sum,
            max_nanos: max,
            mean_nanos: if count > 0 {
                sum as f64 / count as f64
            } else {
                0.0
            },
            p50_nanos: q(0.50),
            p90_nanos: q(0.90),
            p99_nanos: q(0.99),
        }
    }
}

/// Percentile readout of one [`Histogram`]. All values in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum_nanos: u64,
    /// Largest sample (exact, not bucketed).
    pub max_nanos: u64,
    /// Mean sample.
    pub mean_nanos: f64,
    /// Median (bucket midpoint; ±12.5% worst case).
    pub p50_nanos: u64,
    /// 90th percentile.
    pub p90_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
}

/// A single-writer histogram on plain `u64`s: recording costs one or two
/// L1-resident increments, and the owner folds it into a shared [`Histogram`]
/// with [`LocalHistogram::flush_into`] at its own (amortized) cadence. This is
/// what the engine's per-event path records into.
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
    /// Smallest touched bucket index since the last flush, so a flush scans
    /// only the dirty range instead of all 128 buckets.
    lo: usize,
    hi: usize,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            lo: BUCKETS,
            hi: 0,
        }
    }

    /// Record one nanosecond sample (plain arithmetic, no atomics).
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        let idx = bucket_index(nanos);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        if nanos > self.max {
            self.max = nanos;
        }
        if idx < self.lo {
            self.lo = idx;
        }
        if idx + 1 > self.hi {
            self.hi = idx + 1;
        }
    }

    /// Samples recorded since the last flush.
    pub fn pending(&self) -> u64 {
        self.count
    }

    /// Fold the recorded samples into a shared histogram and reset. Touches
    /// only the dirty bucket range; allocation-free.
    pub fn flush_into(&mut self, shared: &Histogram) {
        if self.count == 0 {
            return;
        }
        for i in self.lo..self.hi {
            let b = self.buckets[i];
            if b > 0 {
                shared.buckets[i].fetch_add(b, Relaxed);
                self.buckets[i] = 0;
            }
        }
        shared.count.fetch_add(self.count, Relaxed);
        shared.sum.fetch_add(self.sum, Relaxed);
        shared.max.fetch_max(self.max, Relaxed);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.lo = BUCKETS;
        self.hi = 0;
    }
}

/// Pipeline stages with dedicated latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Writer thread blocked waiting on the ingest queue.
    IngestWait,
    /// WAL append + batch-boundary fsync, ahead of processing.
    WalAppend,
    /// Kernel execution of a relation run under the batch-delta strategy.
    KernelBatchDelta,
    /// Always zero: the strategy it timed was folded into batch-delta. Kept,
    /// never recorded into, only because the frozen benchmark reads it for
    /// its `telemetry.stage_kernel_statement_major_ns_per_event` ledger row;
    /// goes with that row (ROADMAP item 6(e)).
    KernelStatementMajor,
    /// Kernel execution of a relation run under the entry-major strategy.
    KernelEntryMajor,
    /// Snapshot construction + epoch publish.
    SnapshotPublish,
    /// Subscription delta computation and fan-out.
    Fanout,
    /// Background checkpoint serialization + rename.
    CheckpointWrite,
    /// Recovery: checkpoint load + WAL replay at open.
    RecoveryReplay,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 9] = [
        Stage::IngestWait,
        Stage::WalAppend,
        Stage::KernelBatchDelta,
        Stage::KernelStatementMajor,
        Stage::KernelEntryMajor,
        Stage::SnapshotPublish,
        Stage::Fanout,
        Stage::CheckpointWrite,
        Stage::RecoveryReplay,
    ];

    /// Stable snake_case name (Prometheus label value, JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestWait => "ingest_wait",
            Stage::WalAppend => "wal_append",
            Stage::KernelBatchDelta => "kernel_batch_delta",
            Stage::KernelStatementMajor => "kernel_statement_major",
            Stage::KernelEntryMajor => "kernel_entry_major",
            Stage::SnapshotPublish => "snapshot_publish",
            Stage::Fanout => "fanout",
            Stage::CheckpointWrite => "checkpoint_write",
            Stage::RecoveryReplay => "recovery_replay",
        }
    }
}

/// Per-view work counters, all relaxed atomics. The engine accumulates these
/// in plain pending cells and folds them in on its flush cadence; the kernel
/// scan counters cover the compiled path (the AST interpreter is a
/// differential-testing oracle, not a measured production path).
#[derive(Debug, Default)]
pub struct ViewCounters {
    /// Rows applied to the view by trigger statements (repetitions included).
    pub rows_written: AtomicU64,
    /// Fully bound index probes executed by compiled kernels against this view.
    pub probes: AtomicU64,
    /// Full scans executed against this view (plan scans and fused-prelude
    /// traversals).
    pub scans: AtomicU64,
    /// Entries visited by compiled-kernel scans targeting this view.
    pub entries_scanned: AtomicU64,
    /// Fused prelude scan executions.
    pub fused_scans: AtomicU64,
    /// Range-sum scans answered from an ordered index (the counter keeps the
    /// name it had when the sorted structure was a per-run cache).
    pub banded_hits: AtomicU64,
    /// Range-sum scans that bailed to a full traversal.
    pub banded_bails: AtomicU64,
    /// Firings of batch-delta live passes into this view: evaluations, inside
    /// multi-firing runs, of statements that read what their own run writes
    /// (the name dates from when they ran against a run-local overlay).
    pub overlay_firings: AtomicU64,
    /// Observed map size (entries) at the last engine flush.
    pub map_size: AtomicU64,
    /// Logged keys replayed into recycled snapshot buffers (cumulative, as of
    /// the last engine flush — like the four snapshot counters below).
    pub snapshot_keys_patched: AtomicU64,
    /// Entries copied by full snapshot copies.
    pub snapshot_entries_copied: AtomicU64,
    /// Full snapshot copies by reason, in [`SNAPSHOT_COPY_REASONS`] order.
    pub snapshot_full_copies: [AtomicU64; 3],
    /// The view's secondary indexes at the last engine flush, in
    /// [`INDEX_GAUGES`] order.
    pub indexes: [AtomicU64; 4],
}

/// What a view's index gauges count: how many hash and how many ordered
/// secondary indexes it has, the entries they index and the bytes they hold
/// (each summed over the indexes).
pub const INDEX_GAUGES: [&str; 4] = ["hash", "ordered", "entries", "bytes"];

/// Why a snapshot copied a whole view instead of patching a recycled buffer:
/// the view had not yet handed out two buffers; a reader, subscriber baseline
/// or checkpoint still held the buffer due for reuse; the write log was
/// abandoned (a `:=`/bulk load, or more writes than a patch is worth).
pub const SNAPSHOT_COPY_REASONS: [&str; 3] = ["first", "pinned", "abandoned"];

/// Point-in-time copy of one view's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewSummary {
    /// View (map) name.
    pub name: String,
    /// See [`ViewCounters::rows_written`].
    pub rows_written: u64,
    /// See [`ViewCounters::probes`].
    pub probes: u64,
    /// See [`ViewCounters::scans`].
    pub scans: u64,
    /// See [`ViewCounters::entries_scanned`].
    pub entries_scanned: u64,
    /// See [`ViewCounters::fused_scans`].
    pub fused_scans: u64,
    /// See [`ViewCounters::banded_hits`].
    pub banded_hits: u64,
    /// See [`ViewCounters::banded_bails`].
    pub banded_bails: u64,
    /// See [`ViewCounters::overlay_firings`].
    pub overlay_firings: u64,
    /// See [`ViewCounters::map_size`].
    pub map_size: u64,
    /// See [`ViewCounters::snapshot_keys_patched`].
    pub snapshot_keys_patched: u64,
    /// See [`ViewCounters::snapshot_entries_copied`].
    pub snapshot_entries_copied: u64,
    /// See [`ViewCounters::snapshot_full_copies`].
    pub snapshot_full_copies: [u64; 3],
    /// See [`ViewCounters::indexes`].
    pub indexes: [u64; 4],
}

/// One per-statement span of a slow-batch trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StmtSpan {
    /// Target map of the statement.
    pub target: String,
    /// Wall time of the statement over the whole run, in nanoseconds
    /// (0 when the executing strategy does not time statements).
    pub nanos: u64,
    /// Rows the statement emitted.
    pub rows: u64,
}

/// One relation run of a slow-batch trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSpan {
    /// Relation of the run.
    pub relation: String,
    /// Batch strategy that actually executed ("batch-delta" or
    /// "entry-major"; "base-only" for a run that fired no trigger).
    pub strategy: String,
    /// Events in the run.
    pub events: u64,
    /// Distinct delta entries in the run.
    pub entries: u64,
    /// Wall time of the run in nanoseconds (for single-run batches this is
    /// the whole batch's measurement).
    pub nanos: u64,
    /// Statement evaluations of the run's live pass.
    pub overlay_firings: u64,
    /// Per-statement spans, present when the batch was large enough to arm
    /// statement timing (see [`TelemetryConfig::trace_arm_min_events`]).
    pub statements: Vec<StmtSpan>,
}

/// A structured trace of one batch that exceeded the slow threshold.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlowBatchTrace {
    /// Monotone trace sequence number.
    pub seq: u64,
    /// Total batch wall time in nanoseconds.
    pub elapsed_nanos: u64,
    /// The threshold the batch exceeded.
    pub threshold_nanos: u64,
    /// Events in the batch.
    pub events: u64,
    /// Per-run span tree.
    pub runs: Vec<RunSpan>,
}

impl SlowBatchTrace {
    /// Render as one JSON line (hand-rolled; the workspace builds without a
    /// JSON dependency).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"elapsed_ns\":{},\"threshold_ns\":{},\"events\":{},\"runs\":[",
            self.seq, self.elapsed_nanos, self.threshold_nanos, self.events
        );
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"relation\":\"{}\",\"strategy\":\"{}\",\"events\":{},\"entries\":{},\
                 \"ns\":{},\"overlay_firings\":{},\"statements\":[",
                json_escape(&r.relation),
                json_escape(&r.strategy),
                r.events,
                r.entries,
                r.nanos,
                r.overlay_firings
            ));
            for (j, s) in r.statements.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"target\":\"{}\",\"ns\":{},\"rows\":{}}}",
                    json_escape(&s.target),
                    s.nanos,
                    s.rows
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for a JSON string literal (shared by the trace renderer,
/// the EXPLAIN JSON form and the HTTP exporter's `/views` endpoint).
pub fn json_escape(s: &str) -> String {
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

/// Telemetry knobs.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Batches slower than this get a [`SlowBatchTrace`] in the ring buffer.
    pub slow_batch_threshold: Duration,
    /// Ring-buffer capacity; the oldest trace is dropped when full.
    pub trace_capacity: usize,
    /// Minimum events in a batch before per-statement timing is armed (small
    /// batches skip the per-statement `Instant` pairs so the per-event hot
    /// path stays clock-free).
    pub trace_arm_min_events: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slow_batch_threshold: Duration::from_millis(10),
            trace_capacity: 32,
            trace_arm_min_events: 16,
        }
    }
}

struct Inner {
    config: TelemetryConfig,
    /// Whole-batch (ingest-to-applied) latency.
    batch: Histogram,
    /// One histogram per [`Stage`], indexed by position in [`Stage::ALL`].
    stages: [Histogram; Stage::ALL.len()],
    /// Named counters: registration takes the lock once per name; the handles
    /// are lock-free afterwards.
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    /// Named gauges, same discipline; rendered with TYPE `gauge` so values
    /// may go down (e.g. the `degraded` flag) without breaking scrapers.
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    /// Per-view counters, same registration discipline.
    views: Mutex<Vec<(String, Arc<ViewCounters>)>>,
    /// Slow-batch trace ring buffer.
    traces: Mutex<VecDeque<SlowBatchTrace>>,
    trace_seq: AtomicU64,
    /// Canonical pipeline counters (the single source both `EngineStats`
    /// mirrors and the bench harness report from).
    events: AtomicU64,
    batches: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cheap, cloneable telemetry handle. [`Telemetry::disabled`] carries no
/// state at all: every record path starts with one `is_some` branch and the
/// compiler drops the rest, keeping the zero-allocation hot path intact.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// An enabled handle with the given config.
    pub fn with_config(config: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                batch: Histogram::new(),
                stages: std::array::from_fn(|_| Histogram::new()),
                counters: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
                views: Mutex::new(Vec::new()),
                traces: Mutex::new(VecDeque::with_capacity(config.trace_capacity)),
                trace_seq: AtomicU64::new(0),
                events: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                config,
            })),
        }
    }

    /// An enabled handle with default config.
    pub fn enabled() -> Self {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Is this a recording handle?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The active config (None when disabled).
    pub fn config(&self) -> Option<&TelemetryConfig> {
        self.inner.as_ref().map(|i| &i.config)
    }

    /// The whole-batch latency histogram (None when disabled).
    pub fn batch_hist(&self) -> Option<&Histogram> {
        self.inner.as_ref().map(|i| &i.batch)
    }

    /// One stage's histogram (None when disabled).
    pub fn stage_hist(&self, stage: Stage) -> Option<&Histogram> {
        self.inner
            .as_ref()
            .map(|i| &i.stages[Stage::ALL.iter().position(|s| *s == stage).unwrap()])
    }

    /// Record one stage duration.
    #[inline]
    pub fn record_stage(&self, stage: Stage, d: Duration) {
        if let Some(h) = self.stage_hist(stage) {
            h.record_duration(d);
        }
    }

    /// A drop guard that records the elapsed time into a stage histogram.
    /// Disabled handles never read the clock.
    pub fn stage_guard(&self, stage: Stage) -> StageGuard<'_> {
        StageGuard {
            hist: self.stage_hist(stage).map(|h| (h, Instant::now())),
        }
    }

    /// A named counter handle; registration locks once per distinct name,
    /// increments are lock-free. Disabled handles return a detached counter.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter { cell: None };
        };
        let mut reg = lock(&inner.counters);
        if let Some((_, c)) = reg.iter().find(|(n, _)| n == name) {
            return Counter {
                cell: Some(c.clone()),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        reg.push((name.to_string(), cell.clone()));
        Counter { cell: Some(cell) }
    }

    /// A named gauge handle — identical mechanics to [`Telemetry::counter`]
    /// but exported with Prometheus TYPE `gauge`, so the value may move in
    /// both directions (use [`Counter::set`]).
    pub fn gauge(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter { cell: None };
        };
        let mut reg = lock(&inner.gauges);
        if let Some((_, c)) = reg.iter().find(|(n, _)| n == name) {
            return Counter {
                cell: Some(c.clone()),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        reg.push((name.to_string(), cell.clone()));
        Counter { cell: Some(cell) }
    }

    /// The per-view counter block for a view, registering it on first use
    /// (None when disabled). Callers cache the `Arc` so the hot path never
    /// sees the registry lock.
    pub fn view(&self, name: &str) -> Option<Arc<ViewCounters>> {
        let inner = self.inner.as_ref()?;
        let mut reg = lock(&inner.views);
        if let Some((_, v)) = reg.iter().find(|(n, _)| n == name) {
            return Some(v.clone());
        }
        let v = Arc::new(ViewCounters::default());
        reg.push((name.to_string(), v.clone()));
        Some(v)
    }

    /// Add to the canonical event/batch counters (the engine folds its
    /// deltas in on each flush).
    pub fn add_events(&self, events: u64, batches: u64) {
        if let Some(inner) = &self.inner {
            inner.events.fetch_add(events, Relaxed);
            inner.batches.fetch_add(batches, Relaxed);
        }
    }

    /// Canonical events processed (0 when disabled).
    pub fn events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.events.load(Relaxed))
    }

    /// Push a slow-batch trace, evicting the oldest when the ring is full.
    /// Returns the assigned sequence number.
    pub fn push_trace(&self, mut trace: SlowBatchTrace) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let seq = inner.trace_seq.fetch_add(1, Relaxed);
        trace.seq = seq;
        let mut ring = lock(&inner.traces);
        if ring.len() >= inner.config.trace_capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(trace);
        seq
    }

    /// Drain all pending slow-batch traces, oldest first.
    pub fn drain_traces(&self) -> Vec<SlowBatchTrace> {
        match &self.inner {
            Some(inner) => lock(&inner.traces).drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Drain all pending traces as JSON lines (one object per line).
    pub fn drain_traces_json(&self) -> String {
        let mut out = String::new();
        for t in self.drain_traces() {
            out.push_str(&t.to_json_line());
            out.push('\n');
        }
        out
    }

    /// A consistent point-in-time snapshot of every metric. Never blocks
    /// recorders: the registry locks guard only the name lists, which
    /// recorders do not touch after registration.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = lock(&inner.counters)
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Relaxed)))
            .collect();
        let gauges = lock(&inner.gauges)
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Relaxed)))
            .collect();
        let views = lock(&inner.views)
            .iter()
            .map(|(n, v)| ViewSummary {
                name: n.clone(),
                rows_written: v.rows_written.load(Relaxed),
                probes: v.probes.load(Relaxed),
                scans: v.scans.load(Relaxed),
                entries_scanned: v.entries_scanned.load(Relaxed),
                fused_scans: v.fused_scans.load(Relaxed),
                banded_hits: v.banded_hits.load(Relaxed),
                banded_bails: v.banded_bails.load(Relaxed),
                overlay_firings: v.overlay_firings.load(Relaxed),
                map_size: v.map_size.load(Relaxed),
                snapshot_keys_patched: v.snapshot_keys_patched.load(Relaxed),
                snapshot_entries_copied: v.snapshot_entries_copied.load(Relaxed),
                snapshot_full_copies: std::array::from_fn(|r| {
                    v.snapshot_full_copies[r].load(Relaxed)
                }),
                indexes: std::array::from_fn(|i| v.indexes[i].load(Relaxed)),
            })
            .collect();
        MetricsSnapshot {
            enabled: true,
            events: inner.events.load(Relaxed),
            batches: inner.batches.load(Relaxed),
            batch_latency: inner.batch.summary(),
            stages: Stage::ALL
                .iter()
                .zip(inner.stages.iter())
                .map(|(s, h)| (*s, h.summary()))
                .collect(),
            counters,
            gauges,
            views,
            traces_pending: lock(&inner.traces).len(),
        }
    }

    /// Prometheus text exposition of a fresh snapshot.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// A drop guard recording elapsed wall time into a stage histogram.
pub struct StageGuard<'a> {
    hist: Option<(&'a Histogram, Instant)>,
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        if let Some((h, start)) = self.hist.take() {
            h.record_duration(start.elapsed());
        }
    }
}

/// A named counter handle (lock-free; no-op when detached).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Add to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Store an absolute value (gauge semantics).
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.store(v, Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// Point-in-time copy of every metric a [`Telemetry`] handle holds.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// False for the snapshot of a disabled handle (everything else empty).
    pub enabled: bool,
    /// Canonical events processed.
    pub events: u64,
    /// Canonical batches processed.
    pub batches: u64,
    /// Whole-batch latency percentiles.
    pub batch_latency: HistogramSummary,
    /// Per-stage latency percentiles, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSummary)>,
    /// Registered named counters.
    pub counters: Vec<(String, u64)>,
    /// Registered named gauges.
    pub gauges: Vec<(String, u64)>,
    /// Per-view work counters and observed map sizes.
    pub views: Vec<ViewSummary>,
    /// Slow-batch traces waiting in the ring buffer.
    pub traces_pending: usize,
}

impl MetricsSnapshot {
    /// One stage's summary.
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSummary> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// One view's summary.
    pub fn view(&self, name: &str) -> Option<&ViewSummary> {
        self.views.iter().find(|v| v.name == name)
    }

    /// Prometheus text exposition (summary metrics with quantile labels,
    /// counters and gauges). Conforms to the text format version 0.0.4:
    /// every metric family gets `# HELP` and `# TYPE` lines and label values
    /// are escaped; serve it with [`PROMETHEUS_CONTENT_TYPE`].
    pub fn render_prometheus(&self) -> String {
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        let header = |out: &mut String, name: &str, help: &str, kind: &str| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n",
                help = prometheus_escape_help(help)
            ));
        };
        header(
            &mut out,
            "dbtoaster_events_total",
            "Update events folded into the views.",
            "counter",
        );
        out.push_str(&format!("dbtoaster_events_total {}\n", self.events));
        header(
            &mut out,
            "dbtoaster_batches_total",
            "Delta batches processed.",
            "counter",
        );
        out.push_str(&format!("dbtoaster_batches_total {}\n", self.batches));
        header(
            &mut out,
            "dbtoaster_batch_seconds",
            "Whole-batch processing latency.",
            "summary",
        );
        let b = &self.batch_latency;
        for (q, v) in [(0.5, b.p50_nanos), (0.9, b.p90_nanos), (0.99, b.p99_nanos)] {
            out.push_str(&format!(
                "dbtoaster_batch_seconds{{quantile=\"{q}\"}} {:e}\n",
                secs(v)
            ));
        }
        out.push_str(&format!("dbtoaster_batch_seconds_count {}\n", b.count));
        out.push_str(&format!(
            "dbtoaster_batch_seconds_sum {:e}\n",
            secs(b.sum_nanos)
        ));
        header(
            &mut out,
            "dbtoaster_batch_seconds_max",
            "Largest observed batch latency.",
            "gauge",
        );
        out.push_str(&format!(
            "dbtoaster_batch_seconds_max {:e}\n",
            secs(b.max_nanos)
        ));
        header(
            &mut out,
            "dbtoaster_stage_seconds",
            "Per-pipeline-stage latency.",
            "summary",
        );
        for (stage, h) in &self.stages {
            let name = stage.name();
            for (q, v) in [(0.5, h.p50_nanos), (0.9, h.p90_nanos), (0.99, h.p99_nanos)] {
                out.push_str(&format!(
                    "dbtoaster_stage_seconds{{stage=\"{name}\",quantile=\"{q}\"}} {:e}\n",
                    secs(v)
                ));
            }
            out.push_str(&format!(
                "dbtoaster_stage_seconds_count{{stage=\"{name}\"}} {}\n",
                h.count
            ));
            out.push_str(&format!(
                "dbtoaster_stage_seconds_sum{{stage=\"{name}\"}} {:e}\n",
                secs(h.sum_nanos)
            ));
        }
        for (name, v) in &self.counters {
            header(
                &mut out,
                &format!("dbtoaster_{name}"),
                "Registered named counter.",
                "counter",
            );
            out.push_str(&format!("dbtoaster_{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            header(
                &mut out,
                &format!("dbtoaster_{name}"),
                "Registered named gauge.",
                "gauge",
            );
            out.push_str(&format!("dbtoaster_{name} {v}\n"));
        }
        let view_counter =
            |out: &mut String, metric: &str, help: &str, get: &dyn Fn(&ViewSummary) -> u64| {
                header(out, &format!("dbtoaster_view_{metric}"), help, "counter");
                for v in &self.views {
                    out.push_str(&format!(
                        "dbtoaster_view_{metric}{{view=\"{}\"}} {}\n",
                        prometheus_escape_label(&v.name),
                        get(v)
                    ));
                }
            };
        view_counter(
            &mut out,
            "rows_written_total",
            "Rows applied to the view by trigger statements.",
            &|v| v.rows_written,
        );
        view_counter(
            &mut out,
            "probes_total",
            "Fully bound index probes executed against the view.",
            &|v| v.probes,
        );
        view_counter(
            &mut out,
            "scans_total",
            "Full scans executed against the view.",
            &|v| v.scans,
        );
        view_counter(
            &mut out,
            "entries_scanned_total",
            "Entries visited by kernel scans of the view.",
            &|v| v.entries_scanned,
        );
        view_counter(
            &mut out,
            "fused_scans_total",
            "Fused prelude scan executions.",
            &|v| v.fused_scans,
        );
        view_counter(
            &mut out,
            "banded_hits_total",
            "Range-sum scans answered from an ordered index.",
            &|v| v.banded_hits,
        );
        view_counter(
            &mut out,
            "banded_bails_total",
            "Range-sum scans that fell back to a full traversal.",
            &|v| v.banded_bails,
        );
        view_counter(
            &mut out,
            "overlay_firings_total",
            "Statements fired into the view by batch-delta live passes.",
            &|v| v.overlay_firings,
        );
        view_counter(
            &mut out,
            "snapshot_keys_patched_total",
            "Logged keys replayed into recycled snapshot buffers of the view.",
            &|v| v.snapshot_keys_patched,
        );
        view_counter(
            &mut out,
            "snapshot_entries_copied_total",
            "Entries copied by full snapshot copies of the view.",
            &|v| v.snapshot_entries_copied,
        );
        header(
            &mut out,
            "dbtoaster_view_snapshot_full_copies_total",
            "Snapshots that copied the whole view, by reason.",
            "counter",
        );
        for v in &self.views {
            for (reason, n) in SNAPSHOT_COPY_REASONS.iter().zip(v.snapshot_full_copies) {
                out.push_str(&format!(
                    "dbtoaster_view_snapshot_full_copies_total{{view=\"{}\",reason=\"{reason}\"}} {n}\n",
                    prometheus_escape_label(&v.name),
                ));
            }
        }
        header(
            &mut out,
            "dbtoaster_view_map_size",
            "Observed view size in entries at the last engine flush.",
            "gauge",
        );
        for v in &self.views {
            out.push_str(&format!(
                "dbtoaster_view_map_size{{view=\"{}\"}} {}\n",
                prometheus_escape_label(&v.name),
                v.map_size
            ));
        }
        out
    }
}

/// The Content-Type an HTTP exporter must send with
/// [`MetricsSnapshot::render_prometheus`] output.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escape a Prometheus label *value*: backslash, double quote and newline.
pub fn prometheus_escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Merge several already-rendered Prometheus expositions into one, tagging
/// every sample with an instance label (e.g. `shard="0"`). Used by the
/// sharded view server to expose per-shard metric families on a single
/// `/metrics` endpoint without re-implementing the render.
///
/// Families keep their `# HELP`/`# TYPE` headers exactly once (first
/// occurrence wins) and all samples of a family are grouped together, as the
/// text format requires; within a family, samples appear in `parts` order.
pub fn merge_prometheus_labeled(label_key: &str, parts: &[(String, String)]) -> String {
    // family name (from its header block) → (header lines, sample lines)
    let mut order: Vec<String> = Vec::new();
    let mut families: std::collections::HashMap<String, (String, String)> =
        std::collections::HashMap::new();
    for (label_value, rendered) in parts {
        let label = format!("{label_key}=\"{}\"", prometheus_escape_label(label_value));
        let mut current: Option<String> = None;
        for line in rendered.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                // "# HELP <name> ..." / "# TYPE <name> ...": key on <name>.
                let name = rest
                    .split_whitespace()
                    .nth(1)
                    .unwrap_or_default()
                    .to_string();
                if !families.contains_key(&name) {
                    order.push(name.clone());
                    families.insert(name.clone(), (String::new(), String::new()));
                }
                let fam = families.get_mut(&name).expect("inserted above");
                // Every shard renders identical headers; keep each line once.
                if !fam.0.lines().any(|l| l == line) {
                    fam.0.push_str(line);
                    fam.0.push('\n');
                }
                current = Some(name);
                continue;
            }
            if line.is_empty() {
                continue;
            }
            // A sample: inject the instance label at the first '{', or before
            // the first space when the sample has no label set.
            let fam_name = current.clone().unwrap_or_else(|| {
                line.split(['{', ' '])
                    .next()
                    .unwrap_or_default()
                    .to_string()
            });
            if !families.contains_key(&fam_name) {
                order.push(fam_name.clone());
                families.insert(fam_name.clone(), (String::new(), String::new()));
            }
            let fam = families.get_mut(&fam_name).expect("inserted above");
            let labeled = match line.find('{') {
                Some(i) if i < line.find(' ').unwrap_or(usize::MAX) => {
                    format!("{}{{{label},{}", &line[..i], &line[i + 1..])
                }
                _ => match line.find(' ') {
                    Some(i) => format!("{}{{{label}}}{}", &line[..i], &line[i..]),
                    None => line.to_string(),
                },
            };
            fam.1.push_str(&labeled);
            fam.1.push('\n');
        }
    }
    let mut out = String::new();
    for name in &order {
        let (header, samples) = &families[name];
        out.push_str(header);
        out.push_str(samples);
    }
    out
}

/// Escape a `# HELP` docstring: backslash and newline (quotes stay literal).
fn prometheus_escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prometheus_groups_families_and_labels_samples() {
        let a = "# HELP m_total Things.\n# TYPE m_total counter\nm_total 3\n\
                 # HELP v_total Per view.\n# TYPE v_total counter\nv_total{view=\"X\"} 1\n";
        let b = "# HELP m_total Things.\n# TYPE m_total counter\nm_total 5\n\
                 # HELP v_total Per view.\n# TYPE v_total counter\nv_total{view=\"X\"} 2\n";
        let merged = merge_prometheus_labeled(
            "shard",
            &[
                ("0".to_string(), a.to_string()),
                ("1".to_string(), b.to_string()),
            ],
        );
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# HELP m_total Things.",
                "# TYPE m_total counter",
                "m_total{shard=\"0\"} 3",
                "m_total{shard=\"1\"} 5",
                "# HELP v_total Per view.",
                "# TYPE v_total counter",
                "v_total{shard=\"0\",view=\"X\"} 1",
                "v_total{shard=\"1\",view=\"X\"} 2",
            ]
        );
    }

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            assert!(
                v >= bucket_lower_bound(idx),
                "v={v} below its bucket's lower bound"
            );
            if idx < BUCKETS - 1 {
                assert!(
                    v < bucket_lower_bound(idx + 1),
                    "v={v} at or above the next bucket's lower bound"
                );
            }
            prev = idx;
        }
        // Exact first octave.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Octave boundaries land on sub-bucket 0.
        for e in 2..32u64 {
            assert_eq!(bucket_index(1 << e), ((e - 1) * 4) as usize);
        }
    }

    #[test]
    fn overflow_bucket_catches_everything_large() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1 << 40), BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_nanos, u64::MAX);
        // The percentile readout reports the overflow bucket's lower bound,
        // never more than the recorded max.
        assert_eq!(s.p99_nanos, bucket_lower_bound(BUCKETS - 1));
    }

    #[test]
    fn zero_sample_summary_is_all_zero() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_nanos, 0);
        assert_eq!(s.p99_nanos, 0);
        assert_eq!(s.max_nanos, 0);
        assert_eq!(s.mean_nanos, 0.0);
    }

    #[test]
    fn percentiles_land_within_bucket_error() {
        // A uniform 1..=100_000ns distribution: the true p50 is 50_000ns and
        // the bucketed readout must stay within the ±12.5% sub-bucket bound.
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100_000);
        for (got, want) in [(s.p50_nanos, 50_000.0), (s.p90_nanos, 90_000.0)] {
            let rel = (got as f64 - want).abs() / want;
            assert!(
                rel <= 0.125,
                "percentile {got} vs true {want}: off by {rel}"
            );
        }
        assert!(s.p50_nanos <= s.p90_nanos && s.p90_nanos <= s.p99_nanos);
        assert_eq!(s.max_nanos, 100_000);
        assert!(s.p99_nanos <= s.max_nanos);
    }

    #[test]
    fn local_histogram_flush_matches_direct_recording() {
        let direct = Histogram::new();
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 3, 17, 900, 1 << 20, 1 << 40] {
            direct.record(v);
            local.record(v);
        }
        local.flush_into(&shared);
        local.flush_into(&shared); // second flush must be a no-op
        let (a, b) = (direct.summary(), shared.summary());
        assert_eq!(a.count, b.count);
        assert_eq!(a.sum_nanos, b.sum_nanos);
        assert_eq!(a.max_nanos, b.max_nanos);
        assert_eq!(a.p50_nanos, b.p50_nanos);
        assert_eq!(a.p99_nanos, b.p99_nanos);
    }

    /// Readers never block the writer: a recording thread pushes a known
    /// number of samples, counter bumps and traces while another thread
    /// hammers `snapshot()` + `render_prometheus()`. Every intermediate
    /// snapshot must be sane (monotone counts, never exceeding the total) and
    /// the final snapshot exact.
    #[test]
    fn snapshot_never_blocks_or_corrupts_the_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const SAMPLES: u64 = 1_000_000;
        let tel = Telemetry::with_config(TelemetryConfig {
            slow_batch_threshold: Duration::from_nanos(0),
            trace_capacity: 8,
            ..TelemetryConfig::default()
        });
        let view = tel.view("V").unwrap();
        let counter = tel.counter("custom_total");
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let tel = tel.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                let mut last_events = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let s = tel.snapshot();
                    assert!(s.enabled);
                    assert!(s.events >= last_events, "events went backwards");
                    assert!(s.events <= SAMPLES);
                    assert!(s.batch_latency.count <= SAMPLES);
                    let v = s.view("V").unwrap();
                    assert!(v.rows_written <= SAMPLES);
                    let text = s.render_prometheus();
                    assert!(text.contains("dbtoaster_events_total"));
                    last_events = s.events;
                    snaps += 1;
                }
                snaps
            })
        };

        let hist = tel.batch_hist().unwrap();
        for i in 0..SAMPLES {
            hist.record(i % 10_000);
            view.rows_written.fetch_add(1, Ordering::Relaxed);
            counter.inc();
            tel.add_events(1, 1);
            if i % 100_000 == 0 {
                tel.push_trace(SlowBatchTrace {
                    seq: i,
                    elapsed_nanos: 1,
                    threshold_nanos: 0,
                    events: 1,
                    runs: Vec::new(),
                });
            }
        }
        done.store(true, Ordering::Relaxed);
        let snaps = reader.join().unwrap();
        assert!(snaps > 0, "reader never completed a snapshot");

        let s = tel.snapshot();
        assert_eq!(s.events, SAMPLES);
        assert_eq!(s.batches, SAMPLES);
        assert_eq!(s.batch_latency.count, SAMPLES);
        assert_eq!(s.view("V").unwrap().rows_written, SAMPLES);
        assert_eq!(
            s.counters
                .iter()
                .find(|(n, _)| n == "custom_total")
                .unwrap()
                .1,
            SAMPLES
        );
        // The trace ring kept only the newest `trace_capacity` traces.
        let traces = tel.drain_traces();
        assert_eq!(traces.len(), 8);
        assert!(traces.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn trace_json_lines_are_escaped_and_structured() {
        let tel = Telemetry::with_config(TelemetryConfig::default());
        tel.push_trace(SlowBatchTrace {
            seq: 7,
            elapsed_nanos: 42,
            threshold_nanos: 10,
            events: 3,
            runs: vec![RunSpan {
                relation: "R\"x\"".into(),
                strategy: "batch-delta".into(),
                events: 3,
                entries: 2,
                nanos: 40,
                overlay_firings: 1,
                statements: vec![StmtSpan {
                    target: "V".into(),
                    nanos: 12,
                    rows: 5,
                }],
            }],
        });
        let lines = tel.drain_traces_json();
        assert_eq!(lines.lines().count(), 1);
        // `push_trace` assigns the ring's own sequence number (first push = 0).
        assert!(lines.contains("\"seq\":0"));
        assert!(
            lines.contains("R\\\"x\\\""),
            "relation name not escaped: {lines}"
        );
        assert!(lines.contains("\"strategy\":\"batch-delta\""));
        assert!(lines.contains("\"rows\":5"));
        // Disabled handles drop traces and render nothing.
        let off = Telemetry::disabled();
        off.push_trace(SlowBatchTrace {
            seq: 1,
            elapsed_nanos: 1,
            threshold_nanos: 1,
            events: 1,
            runs: Vec::new(),
        });
        assert!(off.drain_traces().is_empty());
        assert!(!off.snapshot().enabled);
    }
}
