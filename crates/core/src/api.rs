//! The high-level DBToaster API: SQL in, continuously fresh views out.
//!
//! [`QueryEngineBuilder`] mirrors how the released DBToaster toolchain is used: you
//! declare a schema, add SQL view queries, pick a compilation strategy (Figure 12's
//! flags follow from the [`CompileMode`]) and obtain a [`QueryEngine`] — the
//! equivalent of the generated C++/Scala binary — which consumes single-tuple updates
//! and keeps every query result fresh.

use dbtoaster_agca::UpdateEvent;
use dbtoaster_compiler::{
    compile, Catalog, CompileError, CompileMode, CompileOptions, QuerySpec, TriggerProgram,
};
use dbtoaster_durability::DurabilityConfig;
use dbtoaster_gmr::{Gmr, Value};
use dbtoaster_runtime::{Engine, EngineStats, RuntimeError, TraceSample};
use dbtoaster_server::{ServeError, ServerConfig, ViewServer};
use dbtoaster_sql::{parse_query, translate, ParseError, TranslateError, TranslatedQuery};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;

pub use dbtoaster_server::{ResultRow, ResultTable};

/// Errors surfaced by the high-level API.
#[derive(Clone, Debug, PartialEq)]
pub enum DbToasterError {
    /// SQL parse error.
    Parse(String, ParseError),
    /// SQL-to-AGCA translation error.
    Translate(String, TranslateError),
    /// Compilation error.
    Compile(CompileError),
    /// Runtime error.
    Runtime(RuntimeError),
    /// The named query does not exist.
    UnknownQuery(String),
    /// Serving-layer error.
    Serve(ServeError),
}

impl fmt::Display for DbToasterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbToasterError::Parse(q, e) => write!(f, "query {q}: {e}"),
            DbToasterError::Translate(q, e) => write!(f, "query {q}: {e}"),
            DbToasterError::Compile(e) => write!(f, "compilation failed: {e}"),
            DbToasterError::Runtime(e) => write!(f, "runtime error: {e}"),
            DbToasterError::UnknownQuery(q) => write!(f, "unknown query {q}"),
            DbToasterError::Serve(e) => write!(f, "serving error: {e}"),
        }
    }
}

impl std::error::Error for DbToasterError {}

impl From<CompileError> for DbToasterError {
    fn from(e: CompileError) -> Self {
        DbToasterError::Compile(e)
    }
}

impl From<RuntimeError> for DbToasterError {
    fn from(e: RuntimeError) -> Self {
        DbToasterError::Runtime(e)
    }
}

impl From<ServeError> for DbToasterError {
    fn from(e: ServeError) -> Self {
        DbToasterError::Serve(e)
    }
}

/// The one [`Catalog`] under the name the frozen benchmark declares its
/// schema by; nothing else uses it.
pub type SqlCatalog = Catalog;

/// A clone of `catalog`, kept only because the frozen benchmark calls it:
/// the SQL frontend, the compiler and the engine read one [`Catalog`].
pub fn to_compiler_catalog(catalog: &Catalog) -> Catalog {
    catalog.clone()
}

/// Builder for a [`QueryEngine`].
#[derive(Clone, Debug)]
pub struct QueryEngineBuilder {
    catalog: Catalog,
    queries: Vec<(String, String)>,
    options: CompileOptions,
}

impl QueryEngineBuilder {
    /// Start a builder over the given schema.
    pub fn new(catalog: Catalog) -> Self {
        QueryEngineBuilder {
            catalog,
            queries: Vec::new(),
            options: CompileOptions::default(),
        }
    }

    /// Add a SQL view query to maintain.
    pub fn add_query(mut self, name: impl Into<String>, sql: impl Into<String>) -> Self {
        self.queries.push((name.into(), sql.into()));
        self
    }

    /// Select a compilation strategy (DBToaster, IVM, Naive, REP).
    pub fn mode(mut self, mode: CompileMode) -> Self {
        self.options = CompileOptions::for_mode(mode);
        self
    }

    /// Build the engine and start serving it concurrently: one writer thread
    /// ingesting updates, any number of lock-free snapshot readers and
    /// output-delta subscribers. Shorthand for `build()?.serve()`.
    pub fn serve(self) -> Result<ViewServer, DbToasterError> {
        self.build()?.serve()
    }

    /// Open a **durable** serving instance anchored in `dir`, creating it on
    /// first use: sugar over `build()?.serve_with(..)` with
    /// [`ServerConfig::durability`] set. When the directory already holds
    /// state for this exact program (checkpoints + write-ahead log, matched
    /// by fingerprint), [`ViewServer::spawn`] recovers it — newest usable
    /// checkpoint plus WAL replay, bit-for-bit — before serving resumes;
    /// otherwise the fresh engine's state is checkpointed as the starting
    /// point. Either way the returned server logs every micro-batch ahead of
    /// applying it and checkpoints periodically, so a crash (or
    /// [`ViewServer::kill`]) loses nothing that was applied.
    ///
    /// State belonging to a *different* program (changed queries or schema) is
    /// refused with a fingerprint-mismatch error rather than silently
    /// discarded. Workloads that pre-load static tables should use
    /// [`QueryEngineBuilder::build`] + [`QueryEngine::load_table`] +
    /// [`QueryEngine::open_or_create_with`] so the tables are in place before
    /// the initial checkpoint captures them.
    pub fn open_or_create(self, dir: impl Into<PathBuf>) -> Result<ViewServer, DbToasterError> {
        let config = ServerConfig {
            durability: Some(DurabilityConfig::new(dir.into())),
            ..ServerConfig::default()
        };
        self.open_or_create_with(config)
    }

    /// [`QueryEngineBuilder::open_or_create`] with explicit serving and
    /// durability knobs; `config.durability` must be set.
    pub fn open_or_create_with(self, config: ServerConfig) -> Result<ViewServer, DbToasterError> {
        self.build()?.open_or_create_with(config)
    }

    /// Parse, translate and compile the queries, returning a ready-to-run engine.
    pub fn build(self) -> Result<QueryEngine, DbToasterError> {
        let mut specs: Vec<QuerySpec> = Vec::new();
        let mut plans: Vec<TranslatedQuery> = Vec::new();
        for (name, sql) in &self.queries {
            let parsed = parse_query(sql).map_err(|e| DbToasterError::Parse(name.clone(), e))?;
            let plan = translate(name, &parsed, &self.catalog)
                .map_err(|e| DbToasterError::Translate(name.clone(), e))?;
            specs.extend(plan.views.iter().cloned());
            plans.push(plan);
        }
        let program = compile(&specs, &self.catalog, &self.options)?;
        let engine = Engine::new(program, &self.catalog);
        Ok(QueryEngine {
            engine,
            plans: plans.into_iter().map(|p| (p.name.clone(), p)).collect(),
            mode: self.options.mode,
        })
    }
}

/// A compiled, running DBToaster query engine.
pub struct QueryEngine {
    engine: Engine,
    plans: HashMap<String, TranslatedQuery>,
    mode: CompileMode,
}

impl QueryEngine {
    /// The compilation mode this engine was built with.
    pub fn mode(&self) -> CompileMode {
        self.mode
    }

    /// The compiled trigger program.
    pub fn program(&self) -> &TriggerProgram {
        self.engine.program()
    }

    /// Load a static table; call [`QueryEngine::init`] once every table is
    /// loaded. Refuses the whole load, loading nothing, when
    /// [`Engine::admits_table`] refuses it: the catalog declares no such
    /// relation, it is a stream no map stores, or a row does not match the
    /// relation's columns. Loading no rows does nothing.
    pub fn load_table(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<(), DbToasterError> {
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        if rows.is_empty() {
            return Ok(());
        }
        self.engine.admits_table(name, &rows)?;
        self.engine.load_table(name, rows);
        Ok(())
    }

    /// Initialize static views after all tables have been loaded.
    pub fn init(&mut self) -> Result<(), DbToasterError> {
        self.engine
            .init_static_views()
            .map_err(DbToasterError::from)
    }

    /// Process one update event.
    pub fn process(&mut self, event: &UpdateEvent) -> Result<(), DbToasterError> {
        self.engine.process(event).map_err(DbToasterError::from)
    }

    /// Process a sequence of update events one at a time (strict: stops at
    /// the first error).
    pub fn process_all<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a UpdateEvent>,
    ) -> Result<(), DbToasterError> {
        for e in events {
            self.engine.process(e)?;
        }
        Ok(())
    }

    /// Record per-relation run execution into
    /// [`BatchReport::runs`](dbtoaster_runtime::BatchReport::runs) (which
    /// strategy executed). Off by default: recording costs one small
    /// allocation per run.
    pub fn set_run_recording(&mut self, on: bool) {
        self.engine.set_run_recording(on);
    }

    /// Process a [`DeltaBatch`](dbtoaster_agca::DeltaBatch) of per-relation
    /// GMR deltas — the engine's native unit since the batch-first refactor.
    /// Processing never stops at a refused event (the rest of the batch
    /// applies); the returned [`BatchReport`](dbtoaster_runtime::BatchReport)
    /// carries the refused count and the first refusal.
    pub fn process_batch(
        &mut self,
        batch: &dbtoaster_agca::DeltaBatch,
    ) -> dbtoaster_runtime::BatchReport {
        self.engine.process_batch(batch)
    }

    /// Snapshot a maintained view as a GMR (mainly for tests and debugging).
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.engine.view(name)
    }

    /// Snapshot the full result table of a query, assembling group-by columns and
    /// aggregates (including `AVG` columns computed as SUM / COUNT).
    pub fn result(&self, query: &str) -> Result<ResultTable, DbToasterError> {
        let plan = self
            .plans
            .get(query)
            .ok_or_else(|| DbToasterError::UnknownQuery(query.to_string()))?;
        dbtoaster_server::assemble_result(&plan.outputs, &plan.group_by, &mut |name| {
            self.engine.view(name)
        })
        .map_err(DbToasterError::UnknownQuery)
    }

    /// Start serving this engine concurrently with default sizing: one writer
    /// thread owning the engine, lock-free snapshot readers
    /// ([`ViewServer::reader`]) and output-delta subscribers
    /// ([`ViewServer::subscribe`]). Consumes the engine; get it back with
    /// [`ViewServer::shutdown`].
    pub fn serve(self) -> Result<ViewServer, DbToasterError> {
        self.serve_with(ServerConfig::default())
    }

    /// Durable serving with explicit sizing: like
    /// [`QueryEngineBuilder::open_or_create`], but starting from an engine
    /// whose tables are already loaded. Sugar over [`QueryEngine::init`] and
    /// [`QueryEngine::serve_with`]: `config.durability` must be set, and if
    /// its directory holds recoverable state for this program, the server
    /// recovers it into this engine on top of its loaded tables (see
    /// [`ViewServer::spawn`]).
    pub fn open_or_create_with(
        mut self,
        config: ServerConfig,
    ) -> Result<ViewServer, DbToasterError> {
        if config.durability.is_none() {
            return Err(DbToasterError::Serve(ServeError::Durability(
                dbtoaster_durability::DurabilityError::Config(
                    "open_or_create_with requires ServerConfig::durability".into(),
                ),
            )));
        }
        self.init()?;
        self.serve_with(config)
    }

    /// Start serving with explicit queue / micro-batch sizing.
    pub fn serve_with(self, config: ServerConfig) -> Result<ViewServer, DbToasterError> {
        let queries = self.plans.into_values().collect();
        ViewServer::spawn(self.engine, queries, config).map_err(DbToasterError::from)
    }

    /// Runtime statistics (events processed, refresh rate).
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// EXPLAIN / EXPLAIN ANALYZE of the compiled trigger program: one operator
    /// tree per statement (probes vs scans, product order, fused preludes,
    /// band specs), the batch-dispatch decision per relation with the reason
    /// it was taken, and — when telemetry is attached — live per-operator
    /// counters joined in, so the same tree doubles as EXPLAIN ANALYZE.
    /// Render with [`ProgramExplain::render_text`] or
    /// [`ProgramExplain::render_json`].
    ///
    /// [`ProgramExplain::render_text`]: dbtoaster_compiler::ProgramExplain::render_text
    /// [`ProgramExplain::render_json`]: dbtoaster_compiler::ProgramExplain::render_json
    pub fn explain(&mut self) -> dbtoaster_compiler::ProgramExplain {
        self.engine.explain()
    }

    /// [`QueryEngine::explain`] rendered as indented text.
    pub fn explain_text(&mut self) -> String {
        self.engine.explain().render_text()
    }

    /// [`QueryEngine::explain`] rendered as a JSON document.
    pub fn explain_json(&mut self) -> String {
        self.engine.explain().render_json()
    }

    /// Attach a [`Telemetry`](dbtoaster_telemetry::Telemetry) handle: batch
    /// latency histograms, per-stage timings, per-view counters and slow-batch
    /// traces. An enabled handle costs a few nanoseconds per batch; the
    /// default disabled handle keeps the hot path untouched.
    pub fn set_telemetry(&mut self, tel: dbtoaster_telemetry::Telemetry) {
        self.engine.set_telemetry(tel);
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&dbtoaster_telemetry::Telemetry> {
        self.engine.telemetry()
    }

    /// Fold the engine's thread-local telemetry buffers into the shared
    /// registry so a subsequent `Telemetry::snapshot` covers every processed
    /// event (the engine otherwise flushes every few dozen batches).
    pub fn flush_telemetry(&mut self) {
        self.engine.flush_telemetry();
    }

    /// Approximate memory footprint of all maintained state, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }

    /// A point-in-time sample for the trace experiments.
    pub fn sample(&self, fraction: f64) -> TraceSample {
        self.engine.sample(fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_compiler::RelationMeta;

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("Orders", ["ordk", "ck", "xch"]),
            RelationMeta::stream("Lineitem", ["ordk", "price"]),
        ]
        .into_iter()
        .collect()
    }

    fn insert(rel: &str, vals: Vec<Value>) -> UpdateEvent {
        UpdateEvent::insert(rel, vals)
    }

    #[test]
    fn end_to_end_example2() {
        let mut engine = QueryEngineBuilder::new(catalog())
            .add_query(
                "total",
                "SELECT SUM(li.price * o.xch) FROM Orders o, Lineitem li WHERE o.ordk = li.ordk",
            )
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap();
        engine.init().unwrap();
        engine
            .process_all(&[
                insert(
                    "Orders",
                    vec![Value::long(1), Value::long(10), Value::double(2.0)],
                ),
                insert("Lineitem", vec![Value::long(1), Value::double(100.0)]),
                insert("Lineitem", vec![Value::long(1), Value::double(50.0)]),
                insert(
                    "Orders",
                    vec![Value::long(2), Value::long(11), Value::double(3.0)],
                ),
                insert("Lineitem", vec![Value::long(2), Value::double(10.0)]),
            ])
            .unwrap();
        let result = engine.result("total").unwrap();
        assert_eq!(result.scalar(), 2.0 * 150.0 + 3.0 * 10.0);
        assert_eq!(engine.stats().events, 5);
        assert!(engine.memory_bytes() > 0);
    }

    #[test]
    fn group_by_and_average_results() {
        let mut engine = QueryEngineBuilder::new(catalog())
            .add_query(
                "per_order",
                "SELECT li.ordk, SUM(li.price) AS total, AVG(li.price) AS avg_price, COUNT(*) AS n \
                 FROM Lineitem li GROUP BY li.ordk",
            )
            .build()
            .unwrap();
        engine
            .process_all(&[
                insert("Lineitem", vec![Value::long(1), Value::double(10.0)]),
                insert("Lineitem", vec![Value::long(1), Value::double(30.0)]),
                insert("Lineitem", vec![Value::long(2), Value::double(5.0)]),
            ])
            .unwrap();
        let result = engine.result("per_order").unwrap();
        assert_eq!(result.len(), 2);
        let row1 = result
            .rows
            .iter()
            .find(|r| r.key == vec![Value::long(1)])
            .unwrap();
        assert_eq!(row1.values, vec![40.0, 20.0, 2.0]);
    }

    #[test]
    fn parse_and_translate_errors_are_reported() {
        match QueryEngineBuilder::new(catalog())
            .add_query("bad", "SELECT FROM nowhere")
            .build()
        {
            Err(DbToasterError::Parse(..)) => {}
            Err(other) => panic!("expected parse error, got {other}"),
            Ok(_) => panic!("expected parse error"),
        }
        match QueryEngineBuilder::new(catalog())
            .add_query("bad", "SELECT SUM(x.a) FROM Missing x")
            .build()
        {
            Err(DbToasterError::Translate(..)) => {}
            Err(other) => panic!("expected translate error, got {other}"),
            Ok(_) => panic!("expected translate error"),
        }
    }

    /// A table the engine cannot hold is refused, not a panic: a name the
    /// catalog lacks, and a stream no compiled map stores.
    #[test]
    fn loading_rows_the_engine_stores_no_table_for_is_refused() {
        let mut engine = QueryEngineBuilder::new(catalog())
            .add_query("q", "SELECT SUM(li.price) FROM Lineitem li")
            .build()
            .unwrap();
        let row = vec![Value::long(1), Value::double(2.0)];
        for name in ["Nowhere", "Lineitem"] {
            let refused = engine.load_table(name, [row.clone()]);
            assert!(
                matches!(
                    refused,
                    Err(DbToasterError::Runtime(RuntimeError::Refused { .. }))
                ),
                "{name}: {refused:?}"
            );
        }
        assert_eq!(engine.load_table("Nowhere", []), Ok(()));
    }

    #[test]
    fn unknown_query_result_errors() {
        let engine = QueryEngineBuilder::new(catalog())
            .add_query("q", "SELECT SUM(li.price) FROM Lineitem li")
            .build()
            .unwrap();
        assert!(matches!(
            engine.result("nope"),
            Err(DbToasterError::UnknownQuery(_))
        ));
    }

    #[test]
    fn all_modes_agree_on_a_simple_join() {
        let events = vec![
            insert(
                "Orders",
                vec![Value::long(1), Value::long(5), Value::double(2.0)],
            ),
            insert("Lineitem", vec![Value::long(1), Value::double(7.0)]),
            UpdateEvent::delete("Lineitem", vec![Value::long(1), Value::double(7.0)]),
            insert("Lineitem", vec![Value::long(1), Value::double(9.0)]),
        ];
        let mut answers = Vec::new();
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let mut engine = QueryEngineBuilder::new(catalog())
                .add_query(
                    "total",
                    "SELECT SUM(li.price * o.xch) FROM Orders o, Lineitem li WHERE o.ordk = li.ordk",
                )
                .mode(mode)
                .build()
                .unwrap();
            engine.process_all(&events).unwrap();
            answers.push(engine.result("total").unwrap().scalar());
        }
        assert!(
            answers.iter().all(|a| (*a - 18.0).abs() < 1e-9),
            "{answers:?}"
        );
    }
}
