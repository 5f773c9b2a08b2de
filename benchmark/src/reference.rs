//! The host's speed, read beside every timed region.
//!
//! The host shares its cores' caches with other tenants. While a neighbour
//! is busy, code that lives in the caches (hash-map probes: the engine) runs
//! 1.3-1.8 times slower though it never leaves its core, and arithmetic
//! runs as fast as ever. The neighbours come and go within milliseconds and
//! their share of the time moves between 5 % and 99 % over minutes, so two
//! runs of one program a few minutes apart differ by 40 %.
//!
//! A reading times a fixed piece of such work: updates at random keys of a
//! 140 KB hash map. The fastest readings of a run are the quiet host; a timed
//! region is bracketed by two readings on the core it ran on, and
//! [`Sample::at_quiet_speed`] scales its time to the quiet host's speed.
//! On a quiet host every reading is the quiet one and nothing is scaled.

use crate::host;
use std::collections::HashMap;
use std::time::Instant;

/// Keys of the table: with their values, the empty slots and the map's
/// control bytes about 140 KB, which stays in a core's own second-level
/// cache and not in its first.
const KEYS: u64 = 4096;

/// Updates per slice: about 15 microseconds on a quiet host.
const UPDATES: usize = 1500;

/// How much of the reference's slow-down a timed region shares. The engine's
/// work is hash-map probes like the reference's, over more memory. Fitted
/// over twelve runs of each workload while the neighbours' share of the time
/// moved between 8 % and 83 %: at 0.7-0.85 the three timed metrics of the
/// four workloads spread least between the runs (README, "The host's speed").
const SHARE: f64 = 0.8;

/// A reading this much slower than the quiet one was taken beside a busy
/// neighbour (such readings cluster at 1.6); below it a reading differs from
/// the quiet one by what the timed region before it left in the cache.
const BUSY: f64 = 1.15;

pub struct Reference {
    table: HashMap<u64, f64>,
    state: u64,
    /// Every reading of the run, in nanoseconds.
    readings: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            table: HashMap::with_capacity(KEYS as usize),
            state: 0x9E37_79B9_7F4A_7C15,
            readings: Vec::new(),
        };
        for _ in 0..8 {
            r.slice();
        }
        r
    }

    #[inline(never)]
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..UPDATES {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *self.table.entry((self.state >> 33) % KEYS).or_insert(0.0) += 1.0;
        }
        t.elapsed().as_nanos() as f64
    }

    /// One reading on the core this thread runs on, in nanoseconds: a walk
    /// over the whole table to bring back into this core's cache what the
    /// timed region before put out of it, then the faster of two slices.
    pub fn read(&mut self) -> f64 {
        for v in self.table.values_mut() {
            *v += 1.0;
        }
        let reading = self.slice().min(self.slice());
        self.readings.push(reading);
        reading
    }

    /// One reading on core `cpu`, for a region that ran on another thread
    /// there: move over, read, move back to `back`.
    pub fn read_on(&mut self, cpu: usize, back: usize) -> f64 {
        host::pin_to_cpu(cpu);
        let reading = self.read();
        host::pin_to_cpu(back);
        reading
    }

    /// The quiet host's reading: the first percentile of the run's ten
    /// thousand readings or more, or, when so few were quiet that the first
    /// percentile is a busy one, the tenth fastest. Quiet readings lie within
    /// a few percent of each other and busy ones half as high again, so this
    /// is a quiet one whenever one reading in a thousand was; in the busiest
    /// spells seen one in fifty still is.
    pub fn quiet(&self) -> f64 {
        let mut sorted = self.readings.clone();
        sorted.sort_by(f64::total_cmp);
        let Some(&tenth) = sorted.get(9.min(sorted.len().saturating_sub(1))) else {
            return 1.0;
        };
        let first_percentile = sorted[sorted.len() / 100];
        if first_percentile <= BUSY * tenth {
            first_percentile
        } else {
            tenth
        }
    }

    /// What share of the run's readings were slower than `quiet`.
    pub fn busy_share(&self, quiet: f64) -> f64 {
        let busy = self.readings.iter().filter(|r| **r > BUSY * quiet).count();
        busy as f64 / self.readings.len().max(1) as f64
    }

    pub fn readings(&self) -> usize {
        self.readings.len()
    }

    /// The readings' quartiles, for the log.
    pub fn quartiles(&self) -> [f64; 3] {
        let mut sorted = self.readings.clone();
        sorted.sort_by(f64::total_cmp);
        [0.25, 0.5, 0.75].map(|q| crate::stats::quantile(&sorted, q))
    }
}

/// One timed region: its wall time in seconds, and the reference's readings
/// just before and just after it on the core it ran on.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub seconds: f64,
    pub before: f64,
    pub after: f64,
}

impl Sample {
    /// The region's time at the speed of a host whose reference reads
    /// `quiet` (`f64::INFINITY` leaves it as it was clocked).
    pub fn at_quiet_speed(&self, quiet: f64) -> f64 {
        let excess = |reading: f64| {
            let slowdown = reading / quiet;
            if slowdown > BUSY {
                slowdown - 1.0
            } else {
                0.0
            }
        };
        self.seconds / (1.0 + SHARE * (excess(self.before) + excess(self.after)) / 2.0)
    }
}
