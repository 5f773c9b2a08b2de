//! # DBToaster in Rust
//!
//! A from-scratch reproduction of *"DBToaster: Higher-order Delta Processing for
//! Dynamic, Frequently Fresh Views"* (Koch et al., VLDB Journal). DBToaster keeps
//! materialized views of standard SQL queries continuously fresh under very high
//! single-tuple update rates by compiling each query into a *trigger program* that
//! maintains the query result together with a hierarchy of higher-order delta views.
//!
//! This crate is the public facade; the heavy lifting lives in the workspace crates:
//!
//! | crate | contents |
//! |---|---|
//! | `dbtoaster-gmr` | generalized multiset relations (values, tuples, the GMR ring) |
//! | `dbtoaster-agca` | the AGCA calculus: evaluation, delta transform, optimizer; the shared schema (`Catalog`, `RelationMeta`, `QuerySpec`) |
//! | `dbtoaster-sql` | SQL parser and SQL→AGCA translation |
//! | `dbtoaster-compiler` | viewlet transform & Higher-Order IVM compiler |
//! | `dbtoaster-runtime` | view store with secondary indexes and the trigger executor |
//! | `dbtoaster-server` | concurrent view serving: snapshots, readers, output-delta subscriptions |
//! | `dbtoaster-workloads` | TPC-H-like / order-book / MDDB generators and the query set |
//!
//! ## Quickstart
//!
//! ```
//! use dbtoaster::prelude::*;
//!
//! let catalog: Catalog = [
//!     RelationMeta::stream("Orders", ["ordk", "ck", "xch"]),
//!     RelationMeta::stream("Lineitem", ["ordk", "price"]),
//! ].into_iter().collect();
//!
//! let mut engine = QueryEngineBuilder::new(catalog)
//!     .add_query("total_sales",
//!         "SELECT SUM(li.price * o.xch) FROM Orders o, Lineitem li WHERE o.ordk = li.ordk")
//!     .mode(CompileMode::HigherOrder)
//!     .build()
//!     .unwrap();
//!
//! engine.process(&UpdateEvent::insert("Orders",
//!     vec![Value::long(1), Value::long(7), Value::double(2.0)])).unwrap();
//! engine.process(&UpdateEvent::insert("Lineitem",
//!     vec![Value::long(1), Value::double(100.0)])).unwrap();
//!
//! assert_eq!(engine.result("total_sales").unwrap().scalar(), 200.0);
//! ```

pub mod api;

pub use api::{
    to_compiler_catalog, DbToasterError, QueryEngine, QueryEngineBuilder, ResultRow, ResultTable,
    SqlCatalog,
};

// Re-export the workspace crates under stable names.
pub use dbtoaster_agca as agca;
pub use dbtoaster_compiler as compiler;
pub use dbtoaster_durability as durability;
pub use dbtoaster_gmr as gmr;
pub use dbtoaster_runtime as runtime;
pub use dbtoaster_server as server;
pub use dbtoaster_sql as sql;
pub use dbtoaster_telemetry as telemetry;
pub use dbtoaster_workloads as workloads;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::api::{DbToasterError, QueryEngine, QueryEngineBuilder, ResultRow, ResultTable};
    pub use dbtoaster_agca::{
        Catalog, DeltaBatch, DeltaEntry, RelationDelta, RelationMeta, UpdateEvent, UpdateSign,
    };
    pub use dbtoaster_compiler::{CompileMode, CompileOptions, ProgramExplain};
    pub use dbtoaster_durability::{DurabilityConfig, DurabilityError, FsyncPolicy};
    pub use dbtoaster_gmr::{Gmr, Schema, Value};
    pub use dbtoaster_runtime::BatchReport;
    pub use dbtoaster_server::{
        HttpConfig, IngestHandle, OutputDelta, OutputDeltaBatch, ReaderHandle, SendBatchError,
        ServeError, ServerConfig, Snapshot, Subscription, ViewServer,
    };
    // The frozen benchmark names the catalog by its old name.
    pub use crate::api::SqlCatalog;
    pub use dbtoaster_telemetry::{
        HistogramSummary, MetricsSnapshot, SlowBatchTrace, Stage, Telemetry, TelemetryConfig,
    };
}
