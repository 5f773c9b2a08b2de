//! The run's phases, each a function over pre-built inputs: (A) set-up,
//! (B) embedded replay, (C) closed-loop saturation, (D) open-loop paced
//! load with freshness and read sampling, (E) kill and recover.

use crate::host::{pin_to_cpu, LOAD_CPU, SERVER_CPU};
use crate::inputs::{clone_events, Timed};
use crate::reference::{Reference, Sample};
use crate::spec::{Family, Spec, READ_SAMPLE_MS};
use crate::stats::{interquartile_mean, summarize};
use crate::trace::Tracer;
use dbtoaster::gmr::Value;
use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Dataset};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub fn catalog(spec: &Spec) -> SqlCatalog {
    match spec.family {
        Family::Tpch => workloads::tpch_catalog(),
        Family::Book => workloads::finance_catalog(),
    }
}

/// SQL text → engine with its static tables loaded (not yet initialised).
pub fn build_engine(spec: &Spec, data: &Dataset, mode: CompileMode) -> QueryEngine {
    let mut builder = QueryEngineBuilder::new(catalog(spec)).mode(mode);
    for q in spec.workload_queries() {
        builder = builder.add_query(q.name, q.sql);
    }
    let mut engine = builder
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    for (table, rows) in &data.tables {
        engine
            .load_table(table, rows.iter().cloned())
            .expect("load");
    }
    engine
}

pub fn build_embedded(spec: &Spec, data: &Dataset, mode: CompileMode) -> QueryEngine {
    let mut engine = build_engine(spec, data, mode);
    engine.init().expect("init");
    engine
}

/// Engine → serving server, with the defaults users run: `max_batch` 512,
/// `publish_interval` 1 ms, and for a durable server fsync `EveryBatch` and a
/// checkpoint every 200k events.
pub fn serve(engine: QueryEngine, wal_dir: Option<&Path>) -> ViewServer {
    match wal_dir {
        // `open_or_create_with` initialises the static views itself.
        Some(dir) => engine.open_or_create_with(ServerConfig {
            durability: Some(DurabilityConfig::new(dir)),
            ..ServerConfig::default()
        }),
        None => {
            let mut engine = engine;
            engine.init().expect("init");
            engine.serve()
        }
    }
    .expect("serve")
}

/// Phase A: SQL text → serving server. The load thread sets the server up
/// on [`SERVER_CPU`], where the server's threads then stay, and goes back.
pub fn setup(spec: &Spec, data: &Dataset, wal_dir: Option<&Path>) -> (ViewServer, Duration) {
    pin_to_cpu(SERVER_CPU);
    let t = Timed::start();
    let engine = build_engine(spec, data, CompileMode::HigherOrder);
    let server = serve(engine, wal_dir);
    let took = t.stop();
    pin_to_cpu(LOAD_CPU);
    (server, took)
}

/// Phase B: one event per `QueryEngine::process` call, clocked in chunks of
/// `chunk` events with a reading of the reference between them. Returns the
/// chunks' samples and the number of events the engine refused.
pub fn embedded(
    engine: &mut QueryEngine,
    events: &[UpdateEvent],
    chunk: usize,
    reference: &mut Reference,
) -> (Vec<Sample>, u64) {
    let mut failed = 0u64;
    let mut samples = Vec::with_capacity(events.len().div_ceil(chunk));
    let mut before = reference.read();
    for events in events.chunks(chunk) {
        let t = Timed::start();
        for ev in events {
            if engine.process(ev).is_err() {
                failed += 1;
            }
        }
        let seconds = t.stop().as_secs_f64();
        let after = reference.read();
        samples.push(Sample {
            seconds,
            before,
            after,
        });
        before = after;
    }
    (samples, failed)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Saturation {
    pub events: usize,
    pub accepted: usize,
    pub wall: Duration,
    /// Time inside `send_batch`: enqueue plus backpressure.
    pub send: Duration,
    /// Time inside `flush` after the last event was enqueued.
    pub flush: Duration,
}

impl Saturation {
    pub fn rate(&self) -> f64 {
        self.accepted as f64 / self.wall.as_secs_f64()
    }
}

/// Phase C: closed loop, one client: `send_batch` the stream, then `flush`.
pub fn saturate(server: &ViewServer, events: Vec<UpdateEvent>, tracer: &mut Tracer) -> Saturation {
    let ingest = server.handle();
    let n = events.len();
    let t = Timed::start();
    let s = tracer.begin("server.send_batch");
    let accepted = match ingest.send_batch(events) {
        Ok(n) => n,
        Err(e) => e.accepted,
    };
    tracer.end(s);
    let send = t.started().elapsed();
    let s = tracer.begin("server.flush");
    server.flush().expect("flush");
    tracer.end(s);
    let wall = t.stop();
    Saturation {
        events: n,
        accepted,
        wall,
        send,
        flush: wall - send,
    }
}

/// Phase C of an untraced run: closed loop, one client, `chunk` events at a
/// time: `send_batch` them, `flush`, next chunk. Between chunks, while the
/// server is idle, the load thread clones the next chunk's events and reads
/// the reference on the server's core. Returns the chunks' samples and the
/// number of events the server accepted.
pub fn saturate_chunks(
    server: &ViewServer,
    events: &[UpdateEvent],
    chunk: usize,
    reference: &mut Reference,
) -> (Vec<Sample>, usize) {
    let ingest = server.handle();
    let mut accepted = 0;
    let mut samples = Vec::with_capacity(events.len().div_ceil(chunk));
    let mut before = reference.read_on(SERVER_CPU, LOAD_CPU);
    for events in events.chunks(chunk) {
        let events = clone_events(events);
        let t = Timed::start();
        accepted += match ingest.send_batch(events) {
            Ok(n) => n,
            Err(e) => e.accepted,
        };
        server.flush().expect("flush");
        let seconds = t.stop().as_secs_f64();
        let after = reference.read_on(SERVER_CPU, LOAD_CPU);
        samples.push(Sample {
            seconds,
            before,
            after,
        });
        before = after;
    }
    (samples, accepted)
}

/// A subscription replayed on the load thread: baseline plus every delivered
/// delta must reproduce the query's final result.
pub struct SubReplay {
    sub: Subscription,
    pub state: HashMap<Vec<Value>, f64>,
    pub batches: u64,
    pub deltas: u64,
}

impl SubReplay {
    /// Subscribe before the first event, so the baseline is the empty result.
    pub fn start(server: &ViewServer, query: &str) -> Self {
        let sub = server.subscribe(query).expect("subscribe");
        assert_eq!(sub.baseline().events_applied(), 0, "baseline not empty");
        SubReplay {
            sub,
            state: HashMap::new(),
            batches: 0,
            deltas: 0,
        }
    }

    pub fn drain(&mut self) {
        while let Some(batch) = self.sub.try_recv() {
            self.batches += 1;
            self.deltas += batch.deltas.len() as u64;
            for d in batch.deltas {
                if d.new_mult == 0.0 {
                    self.state.remove(d.key.as_slice());
                } else {
                    self.state.insert(d.key.to_vec(), d.new_mult);
                }
            }
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct Paced {
    pub events: usize,
    pub send_errors: u64,
    /// Due time → first snapshot that covers the event, one per visible event.
    pub fresh_ns: Vec<f64>,
    /// How late after its due time each event was handed to the server.
    pub late_ns: Vec<f64>,
    /// Time to read every served query once with `ReaderHandle::query` (one
    /// refresh of the dashboard), one per sample tick.
    pub read_ns: Vec<f64>,
    /// `ReaderHandle::snapshot` latencies, one per sample tick.
    pub snapshot_load_ns: Vec<f64>,
    /// Events sent but not yet visible, at each sample tick.
    pub backlog: Vec<u64>,
    pub queue_depth_max: u64,
    pub wall: Duration,
}

impl Paced {
    pub fn never_visible(&self) -> u64 {
        (self.events - self.fresh_ns.len()) as u64
    }

    pub fn later_than(&self, limit_ms: f64) -> u64 {
        let limit_ns = limit_ms * 1e6;
        self.fresh_ns.iter().filter(|f| **f > limit_ns).count() as u64
    }

    /// Median and 90th percentile of freshness, in milliseconds: each taken
    /// per window of about half a second of arrivals (at least 100 events),
    /// then the interquartile mean over the windows. A host stall of tens of
    /// milliseconds stays inside the window it hit, where pooled samples would
    /// let it decide the upper percentiles of the whole phase.
    pub fn fresh_ms(&self, paced_rate: f64) -> (f64, f64) {
        let fresh = &self.fresh_ns;
        if fresh.is_empty() {
            return (0.0, 0.0);
        }
        let windows = ((fresh.len() as f64 / paced_rate / 0.5).round() as usize)
            .min(fresh.len() / 100)
            .max(1);
        let (p50s, p90s): (Vec<f64>, Vec<f64>) = fresh
            .chunks(fresh.len().div_ceil(windows))
            .map(|window| {
                let s = summarize(window.to_vec());
                (s.p50, s.p90)
            })
            .unzip();
        (
            interquartile_mean(p50s) / 1e6,
            interquartile_mean(p90s) / 1e6,
        )
    }

    /// Did the open-loop backlog outgrow the system? True when, over the
    /// last tenth of the sample ticks, the events sent but not yet visible
    /// average more than the rate delivers in one freshness limit: a rate the
    /// server cannot sustain grows the backlog past any such level, while a
    /// stall it recovers from does not hold it there.
    pub fn backlog_growing(&self, spec: &Spec) -> bool {
        let tail = &self.backlog[self.backlog.len() - self.backlog.len() / 10..];
        if tail.is_empty() {
            return false;
        }
        let mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
        mean > spec.paced_rate * spec.fresh_limit_ms / 1e3
    }
}

/// The load thread's cadence: it naps this long (the kernel adds its 50 us
/// timer slack), then polls the snapshot and hands over every event that has
/// fallen due. It never spins: a thread that spins for seconds is preempted
/// for whole scheduler slices (3-4 ms) and takes a core from the server's
/// checkpoint thread, while one that has just slept is scheduled promptly.
/// An event is therefore handed over up to one nap late, which is charged to
/// its freshness and reported as `bench.gen_late_p99_us`.
const NAP: Duration = Duration::from_micros(50);

/// How long the paced phase waits, after its last event was sent, for every
/// event to become visible.
const NEVER_VISIBLE: Duration = Duration::from_secs(30);

/// Due times of an open-loop arrival process at `rate` events per second, as
/// nanosecond offsets from the start of the phase: independent exponential
/// gaps (Poisson arrivals) drawn from the seed. A fixed period would lock the
/// arrivals to the writer's publish cycle and quantise every freshness
/// percentile to multiples of the period.
pub fn due_times(seed: u64, rate: f64, events: usize) -> Vec<u64> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut uniform = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mean_gap_ns = 1e9 / rate;
    let mut at = 0.0f64;
    (0..events)
        .map(|_| {
            at += -mean_gap_ns * (1.0 - uniform()).ln();
            at as u64
        })
        .collect()
}

/// Phase D: open loop at a fixed absolute rate. Event `i` is due at
/// `start + due_ns[i]`; every [`NAP`] the load thread polls the published
/// snapshot and hands over what has fallen due, and every [`READ_SAMPLE_MS`]
/// it times one read of every served query.
pub fn paced(
    server: &ViewServer,
    spec: &Spec,
    events: Vec<UpdateEvent>,
    due_ns: &[u64],
    mut sub: Option<&mut SubReplay>,
) -> Paced {
    assert_eq!(events.len(), due_ns.len());
    let ingest = server.handle();
    let reader = server.reader();
    let base = reader.snapshot().events_applied();
    let n = events.len();
    let tick = Duration::from_millis(READ_SAMPLE_MS);
    let mut out = Paced {
        events: n,
        fresh_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        ..Paced::default()
    };
    let ticks = (due_ns.last().copied().unwrap_or(0) / tick.as_nanos() as u64) as usize + 64;
    out.read_ns.reserve(ticks);
    out.snapshot_load_ns.reserve(ticks);
    out.backlog.reserve(ticks);

    let t = Timed::start();
    let start = t.started();
    let due = |i: usize| start + Duration::from_nanos(due_ns[i]);
    let mut visible = 0usize;
    let mut sent = 0usize;
    let mut next_tick = start + tick;
    // One poll: credit newly covered events, and on a tick sample the reads.
    let mut poll = |out: &mut Paced, sent: usize, visible: &mut usize| -> Instant {
        let snap = reader.snapshot();
        let now = Instant::now();
        let covered = ((snap.events_applied() - base) as usize).min(n);
        while *visible < covered {
            out.fresh_ns.push((now - due(*visible)).as_nanos() as f64);
            *visible += 1;
        }
        if now >= next_tick {
            let t0 = Instant::now();
            black_box(reader.snapshot());
            out.snapshot_load_ns.push(t0.elapsed().as_nanos() as f64);
            // A microsecond-sized refresh is timed three times back to back
            // and the median kept: the first one after a nap runs on cold
            // caches and would put its noise into every percentile. A slow
            // refresh is timed once, so that reading never takes the load
            // thread away from its schedule for long.
            let mut refresh = [0.0f64; 3];
            let mut timed = 0;
            while timed < 3 && (timed == 0 || refresh[0] < 100_000.0) {
                let t0 = Instant::now();
                for q in spec.queries {
                    black_box(reader.query(q).expect("query"));
                }
                refresh[timed] = t0.elapsed().as_nanos() as f64;
                timed += 1;
            }
            refresh[..timed].sort_by(f64::total_cmp);
            out.read_ns.push(refresh[timed / 2]);
            out.backlog.push((sent - *visible) as u64);
            out.queue_depth_max = out.queue_depth_max.max(server.queue_depth());
            if let Some(sub) = sub.as_deref_mut() {
                sub.drain();
            }
            next_tick = now + tick;
        }
        now
    };
    let mut events = events.into_iter();
    while sent < n {
        let now = poll(&mut out, sent, &mut visible);
        let mut fallen_due = 0;
        while sent + fallen_due < n && due(sent + fallen_due) <= now {
            out.late_ns
                .push((now - due(sent + fallen_due)).as_nanos() as f64);
            fallen_due += 1;
        }
        if fallen_due > 0 {
            let accepted = match ingest.send_batch(events.by_ref().take(fallen_due)) {
                Ok(n) => n,
                Err(e) => e.accepted,
            };
            out.send_errors += (fallen_due - accepted) as u64;
            sent += fallen_due;
        }
        std::thread::sleep(NAP);
    }
    // Every event is sent; wait for the rest to become visible. A stall of
    // the host delays them and does not lose them, so only an event still
    // invisible after [`NEVER_VISIBLE`] counts as never visible.
    let deadline = Instant::now() + NEVER_VISIBLE;
    while visible < n && poll(&mut out, sent, &mut visible) < deadline {
        std::thread::sleep(NAP);
    }
    out.wall = t.stop();
    out
}

/// Phase E: the server was killed; time SQL text → a snapshot that covers
/// every acknowledged event.
pub fn recover(
    spec: &Spec,
    data: &Dataset,
    wal_dir: &Path,
    acknowledged: u64,
) -> (ViewServer, Duration, bool) {
    pin_to_cpu(SERVER_CPU);
    let t = Timed::start();
    let engine = build_engine(spec, data, CompileMode::HigherOrder);
    let server = serve(engine, Some(wal_dir));
    let covered = server.current_snapshot().events_applied() == acknowledged;
    let took = t.stop();
    pin_to_cpu(LOAD_CPU);
    (server, took, covered)
}
