//! The repo's benchmark: four workloads driven through the whole vertical
//! (SQL text → compiled engine → view server → durability), measured from
//! outside. `README.md` has the metric tables and the reasons for each
//! workload; `../BENCHMARK.json` names what the driver reads.
//!
//! One process runs one workload. With tracing off it reports the end-to-end
//! metrics; with tracing on it replays the same inputs with spans around each
//! call into a layer's public functions and reports the per-layer metrics.

pub mod check;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod phases;
pub mod reference;
pub mod report;
pub(crate) mod rounds;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
