//! Inputs are built from the seed before any clock starts; a timed region
//! only moves or borrows them.

use crate::spec::{Family, Spec};
use dbtoaster::prelude::UpdateEvent;
use dbtoaster::workloads::{finance, tpch, Dataset, FinanceConfig, TpchConfig};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static IN_TIMED_REGION: Cell<bool> = const { Cell::new(false) };
}

/// A timed region of the load thread. Generating or cloning events while one
/// is open is a bug in the benchmark and panics.
pub struct Timed(Instant);

impl Timed {
    pub fn start() -> Self {
        let was = IN_TIMED_REGION.replace(true);
        assert!(!was, "timed regions do not nest");
        Timed(Instant::now())
    }

    pub fn started(&self) -> Instant {
        self.0
    }

    pub fn stop(self) -> Duration {
        let d = self.0.elapsed();
        IN_TIMED_REGION.set(false);
        d
    }
}

fn assert_untimed(what: &str) {
    assert!(!IN_TIMED_REGION.get(), "{what} inside a timed region");
}

/// TPC-H events per generated order while the working set fills (5.7
/// measured; more once deletions start), rounded down so the first guess at
/// the scale is rarely short.
const TPCH_EVENTS_PER_ORDER: f64 = 5.0;

pub fn generate(spec: &Spec, seed: u64, events: usize) -> Dataset {
    assert_untimed("event generation");
    // First guess at how much to generate; grown until the kept events suffice.
    let mut raw = match (spec.family, spec.relations) {
        (Family::Tpch, _) => events,
        (Family::Book, None) => events,
        // Bids and asks are equally likely.
        (Family::Book, Some(_)) => events * 2 + 64,
    };
    loop {
        let mut data = match spec.family {
            Family::Tpch => {
                // The generator makes 1.5M orders per unit of scale.
                let scale = (raw as f64 / TPCH_EVENTS_PER_ORDER / 1_500_000.0).max(0.0002);
                tpch::generate(&TpchConfig::with_fixed_working_set(
                    scale, seed, 30_000, 120_000,
                ))
            }
            Family::Book => finance::generate(&FinanceConfig {
                events: raw,
                seed,
                delete_probability: 0.25,
                ..FinanceConfig::default()
            }),
        };
        if let Some(keep) = spec.relations {
            data.events.retain(|e| keep.contains(&e.relation.as_str()));
        }
        if data.len() >= events {
            data.truncate(events);
            return data;
        }
        raw += raw / 2;
    }
}

pub fn clone_events(events: &[UpdateEvent]) -> Vec<UpdateEvent> {
    assert_untimed("event cloning");
    events.to_vec()
}
