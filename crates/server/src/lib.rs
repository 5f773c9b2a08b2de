//! # DBToaster view server
//!
//! The paper's pitch is *dynamic, frequently fresh views*: views maintained so
//! cheaply per tuple that applications can read them continuously. This crate
//! supplies the missing serving half — it wraps a compiled engine in a
//! **single-writer / multi-reader** service:
//!
//! * **Ingest** — producers push [`UpdateEvent`](dbtoaster_agca::UpdateEvent)s
//!   into a bounded MPSC queue through cloneable [`IngestHandle`]s; a full
//!   queue applies backpressure instead of growing without bound.
//! * **Writer** — exactly one thread owns the
//!   [`Engine`](dbtoaster_runtime::Engine). It drains micro-batches from the
//!   queue, fires the compiled triggers, and publishes after every batch.
//! * **Snapshots** — publication swaps an `Arc<`[`Snapshot`]`>` into an
//!   [`EpochCell`]: an epoch-pinned pointer cell whose read
//!   path is wait-free and whose publish never waits on readers. Taking a
//!   snapshot costs O(#views) plus the keys written since the previous two:
//!   every written view patches a recycled buffer
//!   ([`Gmr::shared_data`](dbtoaster_gmr::Gmr::shared_data) is what readers
//!   get) and copies its whole map only when a reader, subscriber baseline or
//!   checkpoint still holds that buffer, or a bulk write outgrew the log.
//! * **Subscriptions** — consumers register for a query's **output deltas**:
//!   after each batch the writer turns the engine's changed-key log into
//!   `(key, old multiplicity, new multiplicity)` records per subscribed query
//!   and fans them out. Replaying a subscription's batches onto its baseline
//!   snapshot reconstructs the live result bit-exactly.
//! * **Durability** (optional, [`ServerConfig::durability`]) — the writer
//!   appends every micro-batch to a write-ahead log *before* applying it and
//!   checkpoints the materialized maps off the hot path; a crashed server
//!   ([`ViewServer::kill`] simulates one) reopens warm and bit-exact via the
//!   `dbtoaster-durability` crate's recovery.
//!
//! ## Consistency guarantee
//!
//! Snapshots are *batch-atomic*: each reflects a prefix of the ingested event
//! stream aligned on micro-batch boundaries, across **all** views at once.
//! Cross-view invariants (a SUM view agreeing with a COUNT view, a total
//! agreeing with [`Snapshot::events_applied`]) hold on every snapshot a reader
//! can observe; torn reads are impossible because the single writer only
//! publishes between batches and published snapshots are immutable.
//!
//! ## Quickstart
//!
//! ```
//! use dbtoaster_runtime::Engine;
//! use dbtoaster_compiler::{compile, CompileOptions, QuerySpec, RelationMeta, Catalog};
//! use dbtoaster_agca::{Expr, UpdateEvent};
//! use dbtoaster_gmr::Value;
//! use dbtoaster_server::{ServerConfig, ViewServer};
//!
//! let catalog: Catalog = [RelationMeta::stream("R", ["A", "V"])].into_iter().collect();
//! let q = QuerySpec {
//!     name: "total".into(),
//!     out_vars: vec![],
//!     expr: Expr::agg_sum(Vec::<String>::new(), Expr::product_of([
//!         Expr::rel("R", ["A", "V"]),
//!         Expr::var("V"),
//!     ])),
//! };
//! let program = compile(&[q], &catalog, &CompileOptions::default()).unwrap();
//! let engine = Engine::new(program, &catalog);
//!
//! let server = ViewServer::spawn(engine, vec![], ServerConfig::default()).unwrap();
//! let ingest = server.handle();
//! let reader = server.reader();
//! let sub = server.subscribe("total").unwrap();
//!
//! ingest.send(UpdateEvent::insert("R", vec![Value::long(1), Value::long(7)])).unwrap();
//! server.flush().unwrap();
//!
//! assert_eq!(reader.query("total").unwrap().scalar(), 7.0);
//! let batch = sub.recv().unwrap();
//! assert_eq!(batch.deltas[0].new_mult, 7.0);
//! ```

pub mod http;
pub mod results;
pub mod server;
pub mod shard;
pub mod swap;

pub use http::{HttpConfig, HttpExporter};
pub use results::{assemble_result, ResultRow, ResultTable};
pub use server::{
    IngestHandle, OutputDelta, OutputDeltaBatch, ReaderHandle, SendBatchError, ServeError,
    ServedQuery, ServerConfig, Snapshot, Subscription, TrySendError, ViewServer,
};
pub use shard::{ShardStatus, ShardedViewServer};
pub use swap::EpochCell;

// The durability knobs appear in `ServerConfig`; re-export them so serving
// callers need no direct dependency on the durability crate.
pub use dbtoaster_durability::{DurabilityConfig, DurabilityError, FsyncPolicy};
