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
    /// WAL append ahead of processing, plus the wait for the batch-boundary
    /// fsync after it: the fsync runs on the WAL's sync thread while the
    /// batch's kernels do, so this is the WAL's exposed cost.
    WalAppend,
    /// Kernel execution of a relation run (every run is batch-delta).
    KernelBatchDelta,
    /// Always zero: the strategy it timed was folded into batch-delta. Kept,
    /// never recorded into, only because the frozen benchmark reads it for
    /// its `telemetry.stage_kernel_statement_major_ns_per_event` ledger row;
    /// goes with that row (ROADMAP, Smaller: the frozen-ledger residue).
    KernelStatementMajor,
    /// Always zero: every run is batch-delta. Kept, never recorded into,
    /// only because the frozen benchmark reads it for its
    /// `telemetry.stage_kernel_entry_major_ns_per_event` ledger row; goes
    /// with that row (ROADMAP, Smaller: the frozen-ledger residue).
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

/// What a per-view value is: a count that only grows, or a level read at the
/// last engine flush (Prometheus TYPE `counter` / `gauge`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// Cumulative since the view was registered.
    Counter,
    /// A reading; may go down.
    Gauge,
}

/// Which part of a view's cost a value describes. EXPLAIN ANALYZE shows the
/// work group on the statements that write the view and the resident group
/// on the view's `== map ==` block; `/views` and `/metrics` show every group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueGroup {
    /// What trigger statements and compiled kernels did to and with the view,
    /// and how big it is. The engine counts the work itself and hands each
    /// flush the counts since the last one, which the record adds.
    Work,
    /// The bytes the view holds: its live map, its snapshot buffers and its
    /// secondary indexes (how many of each kind, what they index and hold).
    Resident,
    /// What publishing the view's snapshots cost, as the store counts it:
    /// keys patched into recycled buffers and whole copies by reason.
    Snapshot,
}

/// One per-view value: how it is named, counted, grouped and described.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewValue {
    /// Canonical name, unique in [`VIEW_VALUES`]. A dotted name `object.key`
    /// sits inside `object` in `/views`, and EXPLAIN keys it by `key`.
    /// `/metrics` exports it as family `dbtoaster_view_<name>` with the dot an
    /// underscore (plus `_total` for a counter), unless `label` splits it.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: ValueKind,
    /// Which part of the view's cost it describes.
    pub group: ValueGroup,
    /// For a dotted name: the `/metrics` label whose values are the keys of
    /// `object` — the entries sharing the object are one family,
    /// `dbtoaster_view_<object>`, split by that label.
    pub label: Option<&'static str>,
    /// One-line description (the `/metrics` `# HELP` text).
    pub help: &'static str,
}

impl ViewValue {
    /// The `/views` object holding the value, if its name is dotted.
    pub fn object(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(object, _)| object)
    }

    /// The value's key inside its object (its whole name if undotted).
    pub const fn key(&self) -> &'static str {
        let bytes = self.name.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'.' {
                return self.name.split_at(i + 1).1;
            }
            i += 1;
        }
        self.name
    }

    /// Does a flush add this value (a work counter, handed as a count since
    /// the last flush) rather than store it (a reading)?
    pub fn accumulates(&self) -> bool {
        self.kind == ValueKind::Counter && self.group == ValueGroup::Work
    }
}

const fn counter(name: &'static str, group: ValueGroup, help: &'static str) -> ViewValue {
    ViewValue {
        name,
        kind: ValueKind::Counter,
        group,
        label: None,
        help,
    }
}

const fn gauge(name: &'static str, group: ValueGroup, help: &'static str) -> ViewValue {
    ViewValue {
        kind: ValueKind::Gauge,
        ..counter(name, group, help)
    }
}

/// One reason's full snapshot copies: a part of the `snapshot_full_copies`
/// family, split by `reason`.
const fn copies(name: &'static str) -> ViewValue {
    ViewValue {
        label: Some("reason"),
        ..counter(
            name,
            Snapshot,
            "Snapshots that copied the whole view, by reason.",
        )
    }
}

use ValueGroup::{Resident, Snapshot, Work};

/// Every per-view value, declared once, in the order every surface renders
/// them: `/views` (a group's undotted values, then its objects), EXPLAIN
/// ANALYZE (text and JSON, one group per block), and `/metrics` (counters,
/// then gauges). A view's shared record is one cell per entry
/// ([`ViewRecord`]), its point-in-time copy one `u64` per entry
/// ([`ViewSummary`]).
#[rustfmt::skip]
pub const VIEW_VALUES: [ViewValue; 22] = [
    counter("rows_written", Work,
        "Rows applied to the view by trigger statements."),
    counter("probes", Work,
        "Fully bound index probes executed against the view."),
    counter("scans", Work,
        "Full scans executed against the view."),
    counter("entries_scanned", Work,
        "Entries visited by kernel scans of the view."),
    counter("fused_scans", Work,
        "Fused prelude scan executions."),
    counter("range_sum_hits", Work,
        "Range-sum scans answered from an ordered index."),
    counter("range_sum_bails", Work,
        "Range-sum scans that fell back to a full traversal."),
    counter("live_firings", Work,
        "Statements fired into the view by batch-delta live passes."),
    gauge("map_size", Work,
        "Observed view size in entries at the last engine flush."),
    gauge("indexes.hash", Resident,
        "Hash secondary indexes of the view."),
    gauge("indexes.ordered", Resident,
        "Ordered secondary indexes of the view."),
    gauge("indexes.entries", Resident,
        "Entries indexed, summed over the view's secondary indexes."),
    gauge("indexes.bytes", Resident,
        "Bytes the view's secondary indexes hold: hash_bytes plus ordered_bytes."),
    gauge("indexes.hash_bytes", Resident,
        "Bytes the view's hash indexes hold."),
    gauge("indexes.ordered_bytes", Resident,
        "Bytes the view's ordered indexes hold."),
    gauge("map_bytes", Resident,
        "Bytes the live view holds."),
    gauge("snapshot_bytes", Resident,
        "Bytes the view's snapshot buffers hold (0 for a view nobody snapshots)."),
    counter("snapshot_keys_patched", Snapshot,
        "Logged keys replayed into recycled snapshot buffers of the view."),
    counter("snapshot_entries_copied", Snapshot,
        "Entries copied by full snapshot copies of the view."),
    copies("snapshot_full_copies.first"),
    copies("snapshot_full_copies.pinned"),
    copies("snapshot_full_copies.abandoned"),
];

/// Number of per-view values.
const N: usize = VIEW_VALUES.len();

/// The position of the value named `name` in [`VIEW_VALUES`]. Evaluated in
/// a const context (`const { slot_of("probes") }`), an unknown name fails
/// the build; at run time it panics.
pub const fn slot_of(name: &str) -> usize {
    let mut i = 0;
    while i < N {
        let (a, b) = (VIEW_VALUES[i].name.as_bytes(), name.as_bytes());
        if a.len() == b.len() {
            let mut j = 0;
            while j < a.len() && a[j] == b[j] {
                j += 1;
            }
            if j == a.len() {
                return i;
            }
        }
        i += 1;
    }
    panic!("no per-view value of that name in VIEW_VALUES")
}

/// Why a snapshot copied a whole view instead of patching a recycled buffer
/// (the `reason` label values of `snapshot_full_copies`): the view had not
/// yet handed out two buffers; a reader, subscriber baseline or checkpoint
/// still held the buffer due for reuse; the write log was abandoned (a
/// `:=`/bulk load, or more writes than a patch is worth).
pub const SNAPSHOT_COPY_REASONS: [&str; 3] = {
    let mut out = [""; 3];
    let (mut i, mut n) = (0, 0);
    while i < N {
        if VIEW_VALUES[i].label.is_some() {
            out[n] = VIEW_VALUES[i].key();
            n += 1;
        }
        i += 1;
    }
    out
};

/// One view's shared record: a relaxed atomic per [`VIEW_VALUES`] entry.
/// The engine folds its buffered counts and its readings in on its flush
/// cadence ([`ViewRecord::publish`]); readers copy it into a
/// [`ViewSummary`].
#[derive(Debug)]
pub struct ViewRecord([AtomicU64; N]);

impl Default for ViewRecord {
    fn default() -> Self {
        ViewRecord(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl ViewRecord {
    /// The cell of the value named `name` (panics on an unknown name).
    pub fn cell(&self, name: &str) -> &AtomicU64 {
        &self.0[slot_of(name)]
    }

    /// Fold one flush into the record, in [`VIEW_VALUES`] order: a work
    /// counter adds its count since the last flush, every other value is
    /// stored as read. Allocation-free.
    pub fn publish(&self, values: &[u64; N]) {
        for ((cell, v), &n) in self.0.iter().zip(&VIEW_VALUES).zip(values) {
            if !v.accumulates() {
                cell.store(n, Relaxed);
            } else if n != 0 {
                cell.fetch_add(n, Relaxed);
            }
        }
    }

    /// A point-in-time copy under the view's name.
    pub fn summary(&self, name: &str) -> ViewSummary {
        ViewSummary {
            name: name.to_string(),
            values: std::array::from_fn(|i| self.0[i].load(Relaxed)),
        }
    }
}

/// Point-in-time copy of one view's record: a `u64` per [`VIEW_VALUES`]
/// entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewSummary {
    /// View (map) name.
    pub name: String,
    /// The values, in [`VIEW_VALUES`] order.
    pub values: [u64; N],
}

impl Default for ViewSummary {
    fn default() -> Self {
        ViewSummary {
            name: String::new(),
            values: [0; N],
        }
    }
}

impl ViewSummary {
    /// The value named `name` (panics on an unknown name).
    pub fn get(&self, name: &str) -> u64 {
        self.values[slot_of(name)]
    }

    /// This summary with `name` set to `n` (panics on an unknown name).
    pub fn with(mut self, name: &str, n: u64) -> ViewSummary {
        self.values[slot_of(name)] = n;
        self
    }

    /// This summary with every value outside `group` zeroed: what one
    /// EXPLAIN block shows of it.
    pub fn only(mut self, group: ValueGroup) -> ViewSummary {
        for (n, v) in self.values.iter_mut().zip(&VIEW_VALUES) {
            if v.group != group {
                *n = 0;
            }
        }
        self
    }

    /// `(entry, value)` pairs of one group, in table order.
    pub fn group(&self, group: ValueGroup) -> impl Iterator<Item = (&'static ViewValue, u64)> + '_ {
        VIEW_VALUES
            .iter()
            .zip(self.values)
            .filter(move |(v, _)| v.group == group)
    }
}

/// One per-statement span of a slow-batch trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StmtSpan {
    /// Target map of the statement.
    pub target: String,
    /// Wall time of the statement over the whole run, in nanoseconds.
    pub nanos: u64,
    /// Rows the statement emitted.
    pub rows: u64,
}

/// One relation run of a slow-batch trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSpan {
    /// Relation of the run.
    pub relation: String,
    /// "batch-delta" for a run that fired triggers, "base-only" for one
    /// that only updated a stored relation.
    pub strategy: String,
    /// Events in the run.
    pub events: u64,
    /// Distinct delta entries in the run.
    pub entries: u64,
    /// Wall time of the run in nanoseconds (for single-run batches this is
    /// the whole batch's measurement).
    pub nanos: u64,
    /// Statement evaluations of the run's live pass.
    pub live_firings: u64,
    /// Per-statement spans, present when the batch was large enough to arm
    /// statement timing (see [`TRACE_ARM_MIN_EVENTS`]).
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
                 \"ns\":{},\"live_firings\":{},\"statements\":[",
                json_escape(&r.relation),
                json_escape(&r.strategy),
                r.events,
                r.entries,
                r.nanos,
                r.live_firings
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

/// Capacity of the slow-batch trace ring; the oldest trace is dropped when
/// it is full.
pub const TRACE_CAPACITY: usize = 32;

/// Minimum events in a batch before per-statement timing is armed (small
/// batches skip the per-statement `Instant` pairs so the per-event hot path
/// stays clock-free).
pub const TRACE_ARM_MIN_EVENTS: u64 = 16;

/// Telemetry knobs.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Batches slower than this get a [`SlowBatchTrace`] in the ring buffer.
    pub slow_batch_threshold: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slow_batch_threshold: Duration::from_millis(10),
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
    /// Per-view records, same registration discipline.
    views: Mutex<Vec<(String, Arc<ViewRecord>)>>,
    /// Slow-batch trace ring buffer.
    traces: Mutex<VecDeque<SlowBatchTrace>>,
    trace_seq: AtomicU64,
    /// Events and delta batches, folded in from the engine's own counters
    /// (`EngineStats`) at each telemetry flush, for `/metrics` and `/views`.
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
                traces: Mutex::new(VecDeque::with_capacity(TRACE_CAPACITY)),
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

    /// The record of a view, registering it on first use (None when
    /// disabled). Callers cache the `Arc` so the hot path never sees the
    /// registry lock.
    pub fn view(&self, name: &str) -> Option<Arc<ViewRecord>> {
        let inner = self.inner.as_ref()?;
        let mut reg = lock(&inner.views);
        if let Some((_, v)) = reg.iter().find(|(n, _)| n == name) {
            return Some(v.clone());
        }
        let v = Arc::new(ViewRecord::default());
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
        if ring.len() >= TRACE_CAPACITY {
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
            .map(|(n, v)| v.summary(n))
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
    /// Per-view records.
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
        // One family per table entry — or per labelled object — counters
        // first, then gauges; within a family one series per view.
        for kind in [ValueKind::Counter, ValueKind::Gauge] {
            let entries: Vec<&ViewValue> = VIEW_VALUES.iter().filter(|v| v.kind == kind).collect();
            for family in entries.chunk_by(|a, b| a.label.is_some() && a.object() == b.object()) {
                let v = family[0];
                let stem = match v.label {
                    Some(_) => v.object().unwrap_or(v.name).to_string(),
                    None => v.name.replace('.', "_"),
                };
                let suffix = if kind == ValueKind::Counter {
                    "_total"
                } else {
                    ""
                };
                let metric = format!("dbtoaster_view_{stem}{suffix}");
                let kind_name = if kind == ValueKind::Counter {
                    "counter"
                } else {
                    "gauge"
                };
                header(&mut out, &metric, v.help, kind_name);
                for view in &self.views {
                    let name = prometheus_escape_label(&view.name);
                    for v in family {
                        let n = view.get(v.name);
                        match v.label {
                            Some(label) => out.push_str(&format!(
                                "{metric}{{view=\"{name}\",{label}=\"{}\"}} {n}\n",
                                v.key()
                            )),
                            None => out.push_str(&format!("{metric}{{view=\"{name}\"}} {n}\n")),
                        }
                    }
                }
            }
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
                    assert!(v.get("rows_written") <= SAMPLES);
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
            view.cell("rows_written").fetch_add(1, Ordering::Relaxed);
            counter.inc();
            tel.add_events(1, 1);
            if i % 20_000 == 0 {
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
        assert_eq!(s.view("V").unwrap().get("rows_written"), SAMPLES);
        assert_eq!(
            s.counters
                .iter()
                .find(|(n, _)| n == "custom_total")
                .unwrap()
                .1,
            SAMPLES
        );
        // 50 traces pushed: the ring kept only the newest `TRACE_CAPACITY`.
        let traces = tel.drain_traces();
        assert_eq!(traces.len(), TRACE_CAPACITY);
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
                live_firings: 1,
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
