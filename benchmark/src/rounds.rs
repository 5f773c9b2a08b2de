//! The untraced run: phases A, B and C repeated in rounds over the same
//! inputs, every pass clocked chunk by chunk.
//!
//! Every pass of a phase does exactly the same work on the same events, so a
//! chunk has one true time and each pass samples it. What the host's other
//! tenants add to a sample is taken out with the speed reference read before
//! and after it ([`crate::reference`]); the chunk's time is the median of its
//! scaled samples, and a phase's time the sum over its chunks.

use crate::phases::{self, SubReplay};
use crate::reference::{Reference, Sample};
use crate::report::Metric;
use crate::run::{facade_results, Outcome, Replica};
use crate::spec::{Spec, RUN_SECONDS};
use crate::stats::{median, quantile};
use crate::{host, run::Options, trace::Tracer};
use dbtoaster::prelude::*;
use dbtoaster::workloads::Dataset;
use dbtoaster::ResultTable;
use std::time::{Duration, Instant};

/// Rounds of each phase that run however small `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// Set-ups timed for `setup_s` before every round, so that they are spread
/// over the whole run as the passes are.
const SETUPS_PER_ROUND: usize = 3;

/// Events per `send_batch` + `flush` of the served pass: two of the
/// server's batches, so that the writer forms full batches and works on one
/// while the next is handed over.
const SERVED_CHUNK: usize = 1024;

/// The samples of the passes a phase made over one stream.
#[derive(Clone, Debug, Default)]
pub struct Passes {
    /// `[chunk][pass]`.
    samples: Vec<Vec<Sample>>,
}

impl Passes {
    fn record(&mut self, pass: Vec<Sample>) {
        if self.samples.is_empty() {
            self.samples = vec![Vec::new(); pass.len()];
        }
        assert_eq!(pass.len(), self.samples.len(), "a pass of other chunks");
        for (chunk, s) in self.samples.iter_mut().zip(pass) {
            chunk.push(s);
        }
    }

    /// The time of one pass: the sum over the chunks of the median of the
    /// chunk's samples, each scaled to the speed of a host whose reference
    /// reads `quiet` (`f64::INFINITY` leaves the samples as they were clocked).
    fn seconds(&self, quiet: f64) -> f64 {
        self.samples
            .iter()
            .map(|chunk| median(chunk.iter().map(|s| s.at_quiet_speed(quiet)).collect()))
            .sum()
    }

    /// Each pass's own wall time, for the log.
    fn pass_seconds(&self) -> Vec<f64> {
        let passes = self.samples.first().map_or(0, Vec::len);
        (0..passes)
            .map(|p| self.samples.iter().map(|chunk| chunk[p].seconds).sum())
            .collect()
    }
}

/// What the rounds measured on one replica.
struct Measured<'a> {
    index: usize,
    seed: u64,
    data: &'a Dataset,
    /// The embedded engine's final results, which every served pass must match.
    expected: Vec<(String, ResultTable)>,
    state_bytes: usize,
    embedded: Passes,
    served: Passes,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Embedded = 0,
    Served = 1,
}

/// Run the untraced phases over `streams` and return the end-to-end metrics.
pub fn measure(
    spec: &Spec,
    opts: &Options,
    streams: &[(u64, Dataset)],
    out: &mut Outcome,
) -> Vec<Metric> {
    let mut tracer = Tracer::new(false);
    let mut replicas: Vec<Measured> = streams
        .iter()
        .enumerate()
        .map(|(index, (seed, data))| Measured {
            index,
            seed: *seed,
            data,
            expected: Vec::new(),
            state_bytes: 0,
            embedded: Passes::default(),
            served: Passes::default(),
        })
        .collect();

    // A round is a few set-ups (A), each shut down at once, and then one
    // pass of (B) or of (C) over every replica. How many rounds each phase
    // makes is fixed by the workload and `--seconds`, not by the clock, so
    // that a slow spell of the host lengthens the run and changes nothing
    // else. The two phases take turns, so both are spread over the whole run.
    let scale = opts.seconds / RUN_SECONDS;
    let target = [spec.embedded_rounds, spec.served_rounds]
        .map(|r| ((r as f64 * scale).round() as usize).max(MIN_ROUNDS));
    let mut reference = Reference::new();
    let mut setups: Vec<Sample> = Vec::new();
    let mut spent = [Duration::ZERO; 2];
    let mut rounds = [0usize; 2];
    while rounds != target {
        // The phase that is less far through its rounds goes next; the first
        // embedded pass makes the results the served ones must match.
        let phase = if rounds[0] * target[1] <= rounds[1] * target[0] {
            Phase::Embedded
        } else {
            Phase::Served
        };
        let p = phase as usize;
        let started = Instant::now();
        for _ in 0..SETUPS_PER_ROUND {
            let m = &replicas[setups.len() % replicas.len()];
            let dir = m.replica(spec, opts, &mut tracer, out).wal_dir("setup");
            let before = reference.read_on(host::SERVER_CPU, host::LOAD_CPU);
            let (server, took) = phases::setup(spec, m.data, dir.as_deref());
            let after = reference.read_on(host::SERVER_CPU, host::LOAD_CPU);
            server.shutdown().expect("shutdown");
            setups.push(Sample {
                seconds: took.as_secs_f64(),
                before,
                after,
            });
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        for m in replicas.iter_mut() {
            let r = m.replica(spec, opts, &mut tracer, out);
            match phase {
                Phase::Embedded => m.embedded_pass(r, &mut reference),
                // The first served pass of a durable workload ends in (E),
                // kill and recover.
                Phase::Served => m.served_pass(r, &mut reference, rounds[p] == 0),
            }
        }
        spent[p] += started.elapsed();
        rounds[p] += 1;
        if rounds == [1, 1] {
            replicas[0]
                .replica(spec, opts, &mut tracer, out)
                .note_rss("the first round of both phases");
        }
    }

    let quiet = reference.quiet();
    let [q1, q2, q3] = reference.quartiles();
    out.notes.push(format!(
        "speed reference: {} readings, a quiet one takes {quiet:.0} ns, {:.1} % were taken beside a busy neighbour; quartiles {q1:.0}, {q2:.0}, {q3:.0} ns",
        reference.readings(),
        100.0 * reference.busy_share(quiet),
    ));
    let events: usize = replicas.iter().map(|m| m.data.len()).sum();
    // Events per second of a phase, scaled to a host whose reference reads
    // `quiet`; `f64::INFINITY` scales nothing.
    let rate = |phase: Phase, quiet: f64| -> f64 {
        let seconds: f64 = replicas
            .iter()
            .map(|m| m.passes(phase).seconds(quiet))
            .sum();
        events as f64 / seconds
    };
    for (name, phase) in [("embedded", Phase::Embedded), ("served", Phase::Served)] {
        // What each whole round clocked, beside the scaled estimate.
        let passes = rounds[phase as usize];
        let mut by_round = vec![0.0; passes];
        for m in &replicas {
            for (total, s) in by_round.iter_mut().zip(m.passes(phase).pass_seconds()) {
                *total += s;
            }
        }
        by_round.sort_by(f64::total_cmp);
        out.notes.push(format!(
            "{name}: {passes} rounds in {:.1} s over {} replicas, {events} events a round; events/s as clocked, by round: slowest {:.0}, median {:.0}, fastest {:.0}; by chunk, median: {:.0} as clocked, {:.0} at the quiet host's speed",
            spent[phase as usize].as_secs_f64(),
            replicas.len(),
            events as f64 / by_round[passes - 1],
            events as f64 / quantile(&by_round, 0.5),
            events as f64 / by_round[0],
            rate(phase, f64::INFINITY),
            rate(phase, quiet),
        ));
    }

    let clocked = median(setups.iter().map(|s| s.seconds).collect());
    let setup_s = median(setups.iter().map(|s| s.at_quiet_speed(quiet)).collect());
    out.notes.push(format!(
        "set-up: {} times; median {clocked:.6} s as clocked, {setup_s:.6} s at the quiet host's speed",
        setups.len(),
    ));
    vec![
        Metric::new("setup_s", setup_s, "s").samples(setups.len()),
        Metric::new(
            "engine_refresh_per_s",
            rate(Phase::Embedded, quiet),
            "events/s",
        )
        .samples(events * rounds[0]),
        Metric::new("refresh_per_s", rate(Phase::Served, quiet), "events/s")
            .samples(events * rounds[1]),
        Metric::new(
            "state_mb",
            replicas.iter().map(|m| m.state_bytes).sum::<usize>() as f64
                / replicas.len() as f64
                / 1e6,
            "MB",
        ),
        Metric::new(
            "rss_peak_mb",
            host::rss_peak_bytes().unwrap_or(0) as f64 / 1e6,
            "MB",
        ),
    ]
}

impl<'a> Measured<'a> {
    fn passes(&self, phase: Phase) -> &Passes {
        match phase {
            Phase::Embedded => &self.embedded,
            Phase::Served => &self.served,
        }
    }

    fn replica<'b>(
        &self,
        spec: &'b Spec,
        opts: &'b Options,
        tracer: &'b mut Tracer,
        out: &'b mut Outcome,
    ) -> Replica<'b>
    where
        'a: 'b,
    {
        Replica {
            spec,
            opts,
            index: self.index,
            seed: self.seed,
            data: self.data,
            tracer,
            out,
        }
    }

    /// (B) the whole stream through a fresh embedded engine.
    fn embedded_pass(&mut self, mut r: Replica, reference: &mut Reference) {
        let events = &self.data.events;
        let mut engine = phases::build_embedded(r.spec, self.data, CompileMode::HigherOrder);
        let (samples, refused) =
            phases::embedded(&mut engine, events, r.spec.embedded_chunk, reference);
        self.embedded.record(samples);
        r.out.attempted += events.len() as u64;
        r.out.failed += refused;
        let results = facade_results(r.spec, &engine);
        if self.expected.is_empty() {
            self.state_bytes = engine.memory_bytes();
            self.expected = results;
        } else {
            let again: Vec<ResultTable> = results.into_iter().map(|r| r.1).collect();
            r.compare_all(
                "embedded pass vs the first",
                &self.expected,
                &again,
                true,
                false,
            );
        }
    }

    /// (C) the whole stream through a fresh server, chunk by chunk.
    fn served_pass(&mut self, mut r: Replica, reference: &mut Reference, first: bool) {
        let n = self.data.len();
        let dir = r.wal_dir("served");
        let (server, _) = phases::setup(r.spec, self.data, dir.as_deref());
        let mut sub = r.spec.subscribe.map(|q| SubReplay::start(&server, q));
        let (samples, accepted) =
            phases::saturate_chunks(&server, &self.data.events, SERVED_CHUNK, reference);
        self.served.record(samples);
        r.out.attempted += n as u64;
        r.out.failed += (n - accepted) as u64;
        let served = r.check_served(&server, &self.expected, sub.as_mut(), first);
        match dir.as_deref() {
            Some(dir) if first => {
                let took = r.kill_and_recover(server, dir, &self.expected, served, n as u64);
                r.note(format!("recover_s={}", took.0));
            }
            _ => {
                server.shutdown().expect("shutdown");
            }
        }
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
