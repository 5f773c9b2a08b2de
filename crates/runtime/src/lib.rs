//! # DBToaster runtime
//!
//! A single-core, main-memory runtime that executes the trigger programs produced by
//! `dbtoaster-compiler` (Section 7 of the paper):
//!
//! * [`store`] — the [`ViewMap`] keyed multiplicity map with secondary
//!   indexes per binding pattern, and the [`Database`] namespace of
//!   views, stored base relations and static tables;
//! * `ordered` — the sorted, sum-annotated representation of a secondary
//!   index that answers range sums in `O(log n)`;
//! * [`engine`] — the [`Engine`] that binds trigger variables, executes
//!   update statements in read-old / write / read-new order and exposes query results,
//!   refresh-rate statistics and memory estimates.
//!
//! ```
//! use dbtoaster_runtime::prelude::*;
//! use dbtoaster_compiler::prelude::*;
//! use dbtoaster_agca::{Expr, UpdateEvent};
//! use dbtoaster_gmr::Value;
//!
//! let catalog: Catalog = [
//!     RelationMeta::stream("O", ["ORDK", "XCH"]),
//!     RelationMeta::stream("LI", ["ORDK", "PRICE"]),
//! ].into_iter().collect();
//! let q = QuerySpec {
//!     name: "Q".into(),
//!     out_vars: vec![],
//!     expr: Expr::agg_sum(Vec::<String>::new(), Expr::product_of([
//!         Expr::rel("O", ["ORDK", "XCH"]),
//!         Expr::rel("LI", ["ORDK", "PRICE"]),
//!         Expr::var("XCH"),
//!         Expr::var("PRICE"),
//!     ])),
//! };
//! let program = compile(&[q], &catalog, &CompileOptions::default()).unwrap();
//! let mut engine = Engine::new(program, &catalog);
//! engine.process(&UpdateEvent::insert("O", vec![Value::long(1), Value::double(2.0)])).unwrap();
//! engine.process(&UpdateEvent::insert("LI", vec![Value::long(1), Value::double(10.0)])).unwrap();
//! assert_eq!(engine.result("Q").unwrap().scalar_value(), 20.0);
//! ```

pub mod engine;
mod ordered;
pub mod shard;
pub mod store;

pub use engine::{BatchReport, Engine, EngineStats, RunRecord, RuntimeError, TraceSample};
pub use shard::{ExchangeStats, ShardedEngine};
pub use store::{Database, MapId, SnapshotWork, ViewMap};

pub use dbtoaster_telemetry::{
    HistogramSummary, MetricsSnapshot, SlowBatchTrace, Stage, Telemetry, TelemetryConfig,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{
        BatchReport, Engine, EngineStats, RunRecord, RuntimeError, TraceSample,
    };
    pub use crate::shard::{ExchangeStats, ShardedEngine};
    pub use crate::store::{Database, MapId, SnapshotWork, ViewMap};
    pub use dbtoaster_telemetry::{
        HistogramSummary, MetricsSnapshot, SlowBatchTrace, Stage, Telemetry, TelemetryConfig,
    };
}
