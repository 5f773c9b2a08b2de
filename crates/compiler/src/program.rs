//! The trigger-program intermediate representation.
//!
//! The output of compilation (both the naive viewlet transform of Section 4 and
//! Higher-Order IVM of Section 5) is a *trigger program*: a set of materialized-view
//! declarations plus, for every stream relation and update sign, a list of update
//! statements of the form
//!
//! ```text
//! foreach ~x do  M[~x]  +=  Q'[~x]        (increment)
//! foreach ~x do  M[~x]  :=  Q'[~x]        (replace / re-evaluation)
//! ```
//!
//! where `Q'` is an AGCA expression over the other materialized views, the trigger
//! variables and (in the baseline modes) the stored base relations.

use dbtoaster_agca::{AtomKind, CompiledStmt, Expr, UpdateSign};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Metadata about a base relation known to the compiler.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationMeta {
    /// Relation name (case-sensitive, as used in AGCA atoms).
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// `Stream` for relations receiving updates, `Table` for static relations.
    pub kind: AtomKind,
}

impl RelationMeta {
    /// A stream relation.
    pub fn stream<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        RelationMeta {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            kind: AtomKind::Stream,
        }
    }

    /// A static table.
    pub fn table<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        RelationMeta {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            kind: AtomKind::Table,
        }
    }
}

/// The set of base relations visible to a compilation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    relations: Vec<RelationMeta>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Add a relation (replacing any previous definition of the same name).
    pub fn add(&mut self, meta: RelationMeta) {
        self.relations.retain(|r| r.name != meta.name);
        self.relations.push(meta);
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&RelationMeta> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// All relations.
    pub fn relations(&self) -> &[RelationMeta] {
        &self.relations
    }

    /// Names of all stream relations.
    pub fn stream_names(&self) -> Vec<String> {
        self.relations
            .iter()
            .filter(|r| r.kind == AtomKind::Stream)
            .map(|r| r.name.clone())
            .collect()
    }
}

impl FromIterator<RelationMeta> for Catalog {
    fn from_iter<T: IntoIterator<Item = RelationMeta>>(iter: T) -> Self {
        let mut c = Catalog::new();
        for r in iter {
            c.add(r);
        }
        c
    }
}

/// A query to compile: a named AGCA expression whose result is to be kept fresh.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Result view name.
    pub name: String,
    /// Output (group-by) variables of the result.
    pub out_vars: Vec<String>,
    /// The query, over stream/table atoms.
    pub expr: Expr,
}

/// A materialized view (map) declaration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MapDecl {
    /// Map name.
    pub name: String,
    /// Key columns (output variables of the definition).
    pub out_vars: Vec<String>,
    /// Defining expression over base relations (never over other views).
    pub definition: Expr,
    /// Is this map one of the user-visible query results?
    pub is_query_result: bool,
    /// Must the map be initialized by evaluating its definition over the static tables
    /// at engine start-up (true when the definition references no stream relation)?
    pub init_from_tables: bool,
}

/// `+=` or `:=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StmtOp {
    /// Incremental update: add the right-hand side to the target entries.
    Increment,
    /// Re-evaluation: clear the target and replace it with the right-hand side.
    Replace,
}

impl fmt::Display for StmtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmtOp::Increment => write!(f, "+="),
            StmtOp::Replace => write!(f, ":="),
        }
    }
}

/// A single update statement inside a trigger.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Target map name.
    pub target: String,
    /// One entry per key column of the target map: either a trigger variable (bound at
    /// runtime — a range restriction) or a loop variable produced by the right-hand side.
    pub key_vars: Vec<String>,
    /// The key variables that are *not* bound by the trigger (the `foreach` variables).
    pub loop_vars: Vec<String>,
    /// Increment or replace.
    pub op: StmtOp,
    /// Right-hand side, over views, trigger variables and (in baseline modes) base
    /// relations.
    pub rhs: Expr,
}

impl Statement {
    /// Map names read by the right-hand side.
    pub fn reads(&self) -> BTreeSet<String> {
        self.rhs
            .atoms()
            .into_iter()
            .filter(|a| a.kind == AtomKind::View)
            .map(|a| a.name)
            .collect()
    }

    /// Base relations read directly by the right-hand side.
    pub fn base_reads(&self) -> BTreeSet<String> {
        self.rhs
            .atoms()
            .into_iter()
            .filter(|a| a.kind != AtomKind::View)
            .map(|a| a.name)
            .collect()
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.loop_vars.is_empty() {
            write!(
                f,
                "{}[{}] {} {}",
                self.target,
                self.key_vars.join(", "),
                self.op,
                self.rhs
            )
        } else {
            write!(
                f,
                "foreach {} do {}[{}] {} {}",
                self.loop_vars.join(", "),
                self.target,
                self.key_vars.join(", "),
                self.op,
                self.rhs
            )
        }
    }
}

/// All statements fired by a single update event `±R(~t)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trigger {
    /// The updated relation.
    pub relation: String,
    /// Insert or delete.
    pub sign: UpdateSign,
    /// Trigger variable names, positionally bound to the updated tuple's values.
    pub trigger_vars: Vec<String>,
    /// Statements, in execution order (increments first, then re-evaluations; see the
    /// runtime's execution model).
    pub statements: Vec<Statement>,
}

impl Trigger {
    /// The trigger's leading `+=` statements. The compiler orders every
    /// increment before every re-evaluation (`order_statements`), so for its
    /// triggers this is all of them; batch-delta eligibility requires it.
    pub fn increments(&self) -> &[Statement] {
        let n = self
            .statements
            .iter()
            .take_while(|s| s.op == StmtOp::Increment)
            .count();
        &self.statements[..n]
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "on {} into {} values ({}):",
            if self.sign == UpdateSign::Insert {
                "insert"
            } else {
                "delete"
            },
            self.relation,
            self.trigger_vars.join(", ")
        )?;
        for s in &self.statements {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// How a user-visible query result is obtained from the maintained maps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ResultAccess {
    /// The result is a single maintained map.
    Map(String),
    /// The result is computed on access from maintained maps (generalized Higher-Order
    /// IVM, e.g. `AVG = SUM / COUNT`).
    Computed {
        /// Expression over view atoms.
        expr: Expr,
        /// Output variables of the computed result.
        out_vars: Vec<String>,
    },
}

/// A named query result of the program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Query name (as given in the [`QuerySpec`]).
    pub name: String,
    /// Result columns.
    pub out_vars: Vec<String>,
    /// How to read the result.
    pub access: ResultAccess,
}

/// Which rewrite rules and strategies fired during compilation of a query — the data
/// behind Figure 2 of the paper.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileReport {
    /// Rule 1 (query decomposition) split some clause into several components.
    pub used_decomposition: bool,
    /// Rule 2 (polynomial expansion) produced more than one clause somewhere.
    pub used_expansion: bool,
    /// Rule 3: some factor referencing input variables was kept out of a materialization.
    pub used_input_var_extraction: bool,
    /// Rule 4: a nested aggregate was decorrelated / materialized separately.
    pub used_nested_rewrite: bool,
    /// The re-evaluation strategy was chosen for at least one (relation, sign) pair.
    pub used_reevaluation: bool,
    /// The incremental strategy was used for at least one nested-aggregate query.
    pub used_incremental_nested: bool,
    /// Number of materialized maps created (excluding deduplicated reuses).
    pub maps_created: usize,
    /// Number of map reuses through duplicate view elimination.
    pub maps_deduplicated: usize,
    /// Number of statements emitted.
    pub statements: usize,
    /// Maximum delta order reached (depth of the viewlet recursion).
    pub max_delta_order: usize,
}

/// The compiled kernels of one trigger: one entry per statement, in statement
/// order. `None` marks a statement whose shape could not be lowered — the
/// runtime interprets it through the AST evaluator instead (see
/// [`dbtoaster_agca::plan`]).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompiledTrigger {
    /// Per-statement kernels, aligned with [`Trigger::statements`].
    pub stmts: Vec<Option<CompiledStmt>>,
}

impl CompiledTrigger {
    /// Number of statements that compiled to kernels.
    pub fn compiled_count(&self) -> usize {
        self.stmts.iter().flatten().count()
    }
}

/// A compiled trigger program.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TriggerProgram {
    /// Materialized view declarations.
    pub maps: Vec<MapDecl>,
    /// Triggers, one per (stream relation, sign) with at least one statement.
    pub triggers: Vec<Trigger>,
    /// Compiled trigger kernels, aligned index-for-index with
    /// [`TriggerProgram::triggers`] (empty when kernels were not built, e.g.
    /// for hand-assembled programs). Derived data: excluded from the program
    /// fingerprint, which hashes the canonical rendering only.
    pub compiled: Vec<CompiledTrigger>,
    /// User-visible query results.
    pub results: Vec<QueryResult>,
    /// Base relations that must be kept in storage because some statement reads them.
    pub stored_relations: BTreeSet<String>,
    /// Static tables referenced by the program (always stored).
    pub static_tables: BTreeSet<String>,
    /// Per-relation run-linear programs, one for every relation whose
    /// triggers are batch-delta eligible (see [`BatchStrategy::BatchDelta`]).
    /// Derived data, like [`TriggerProgram::compiled`]: excluded from the
    /// program fingerprint.
    pub run_linear: Vec<RunLinear>,
    /// Per-relation batch-delta derivation outcomes: eligible, or which gate
    /// bailed. Derived data like [`TriggerProgram::compiled`]: excluded from
    /// the program fingerprint and empty for hand-assembled programs.
    pub batch_delta_reasons: Vec<BatchDeltaOutcome>,
    /// Compilation report (rule usage, counts).
    pub report: CompileReport,
}

/// How the statements for one relation's triggers execute over a multi-entry
/// delta batch (see [`TriggerProgram::batch_dispatch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStrategy {
    /// Entry-major: each delta entry fires the full per-event trigger sequence
    /// (`|mult|` times), exactly like event-at-a-time processing. The per-event
    /// oracle, the path of every relation batch-delta derivation bailed on,
    /// and the replay path of a batch-delta run that hit an evaluation error.
    EntryMajor,
    /// Batch-delta: the whole run is one delta GMR. Every incremental
    /// statement of both sign triggers that reads nothing the run writes is
    /// evaluated for all entries against the **pre-run** state, its writes
    /// buffered; the relation's [`RunLinear`] statements — the ones that do
    /// read what the run writes — are evaluated firing by firing against
    /// maps the run keeps current as it goes, to account for entries of the
    /// same run interacting. The buffered writes and the base update follow,
    /// and the `:=` statements of the run's last event fire once against the
    /// new state — the one firing whose output survives per-event
    /// processing. Chosen whenever the derivation succeeds — see
    /// [`crate::batch_delta`] for the argument and its eligibility gates.
    BatchDelta,
}

impl BatchStrategy {
    /// Stable lowercase name (used in EXPLAIN, run spans and bench reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            BatchStrategy::EntryMajor => "entry-major",
            BatchStrategy::BatchDelta => "batch-delta",
        }
    }
}

impl fmt::Display for BatchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The run-linear program of one batch-delta eligible relation (see
/// [`crate::batch_delta`]): the trigger statements whose right-hand side has
/// a *run-linear part* — product terms that read a map, or the relation's own
/// stored slice, that the same relation's triggers write — and the maps those
/// terms read. A multi-firing run evaluates every other statement once per
/// entry against the pre-run state, and these firing by firing in entry
/// order, writing the maps they read as it goes: sequential per-event
/// processing for exactly the part of the program where the order of a run's
/// entries matters.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunLinear {
    /// The stream relation whose runs this program completes.
    pub relation: String,
    /// The statements with a run-linear part, in `(trigger, statement)`
    /// order; empty when no statement of the relation reads run-written state
    /// — the relation is still batch-delta eligible, its runs just have no
    /// interaction.
    pub statements: Vec<RunLinearStmt>,
    /// The run-written names those statements read, sorted: the *live maps*,
    /// which a run writes firing by firing instead of once at its end.
    pub live_maps: Vec<String>,
}

impl RunLinear {
    /// Is statement `stmt` of trigger `trigger` one of [`RunLinear::statements`]?
    pub fn lists(&self, trigger: usize, stmt: usize) -> bool {
        self.statements
            .iter()
            .any(|s| s.trigger == trigger && s.stmt == stmt)
    }
}

/// One trigger statement with a run-linear part, by position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunLinearStmt {
    /// Index into [`TriggerProgram::triggers`] of the statement's trigger.
    pub trigger: usize,
    /// Index into that trigger's [`Trigger::statements`].
    pub stmt: usize,
}

/// Which eligibility gate stopped batch-delta derivation for a
/// relation (see [`crate::batch_delta`] for the gates themselves). Recorded at
/// compile time so EXPLAIN can name the exact condition instead of a generic
/// "not eligible".
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchDeltaBail {
    /// Gate 1: an incremental statement follows a re-evaluation statement in
    /// its trigger, so the `:=` statements are not a tail that can fire once
    /// after the run's increments.
    IncrementAfterReplace {
        /// The increment's target map.
        target: String,
    },
    /// Gate 1: the insert and delete triggers re-evaluate different target
    /// sets, so which `:=` output survives depends on the per-event
    /// interleaving of signs.
    UnmirroredReplace,
    /// Gate 1: a re-evaluation statement exists but one update sign has no
    /// trigger to mirror it.
    OneSidedReplace,
    /// Gate 2: a statement reads `target` at or after the point its own
    /// trigger writes it, so pre-run-state evaluation cannot reproduce the
    /// per-event order.
    ReadAfterWrite {
        /// The map read before (or at) its own write.
        target: String,
    },
    /// Gate 3: the statement for `target` is not affine in `read`, which the
    /// same relation's triggers write: a product term holds two run-written
    /// atoms, or one under a lift, comparison, `EXISTS` or scalar function —
    /// or `read` is rewritten wholesale by a `:=` statement, which a run fires
    /// once, after its last entry, not per firing.
    NonAffineRunRead {
        /// The statement's target map.
        target: String,
        /// The run-written map (or the relation's stored slice) read.
        read: String,
    },
}

impl BatchDeltaBail {
    /// Stable human-readable description (used by EXPLAIN; golden-tested).
    pub fn describe(&self) -> String {
        match self {
            BatchDeltaBail::IncrementAfterReplace { target } => {
                format!("increment of `{target}` follows a replace (`:=`) statement")
            }
            BatchDeltaBail::UnmirroredReplace => {
                "insert and delete triggers replace different targets".to_string()
            }
            BatchDeltaBail::OneSidedReplace => {
                "a replace statement lacks a mirroring trigger for the other sign".to_string()
            }
            BatchDeltaBail::ReadAfterWrite { target } => {
                format!("statement reads `{target}` at or after its own write")
            }
            BatchDeltaBail::NonAffineRunRead { target, read } => {
                format!("the statement for `{target}` is not affine in run-written `{read}`")
            }
        }
    }
}

/// The recorded outcome of batch-delta derivation for one relation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchDeltaOutcome {
    /// The stream relation.
    pub relation: String,
    /// `None` — derivation succeeded (the relation has a [`RunLinear`]);
    /// `Some` — the first gate that fired.
    pub bail: Option<BatchDeltaBail>,
}

/// The per-relation trigger grouping used by batch execution: both sign
/// triggers of one relation, plus the statically chosen [`BatchStrategy`].
#[derive(Clone, Debug)]
pub struct RelationDispatch {
    /// The stream relation.
    pub relation: String,
    /// Index into [`TriggerProgram::triggers`] of the insert trigger, if any.
    pub insert: Option<usize>,
    /// Index into [`TriggerProgram::triggers`] of the delete trigger, if any.
    pub delete: Option<usize>,
    /// How a batch drives this relation's statement lists.
    pub strategy: BatchStrategy,
}

/// A secondary index the compiler declares *ordered*: the index of `map`
/// over the key positions in `mask` is kept sorted on `key_pos`, the one
/// position the mask leaves free, so the range-sum scans that read it (see
/// [`dbtoaster_agca::plan`]) cost two binary searches per interval end
/// instead of a walk over the group. An ordered index *replaces* the hash
/// index of the same mask; it is not kept beside it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderedIndexDecl {
    /// The map (or stored relation) indexed.
    pub map: String,
    /// Bitmask of the key positions the scans bind by equality.
    pub mask: u64,
    /// The free position the index is sorted on.
    pub key_pos: u16,
}

impl TriggerProgram {
    /// The ordered secondary indexes of the program, sorted: one per `(map,
    /// bound positions)` some compiled kernel reads through a range-sum scan
    /// ([`dbtoaster_agca::plan::FusedScan::band_pos`]). Derived from the
    /// kernels, like they are from the statements; the runtime declares these
    /// on the stored maps.
    pub fn ordered_indexes(&self) -> Vec<OrderedIndexDecl> {
        let decls: BTreeSet<OrderedIndexDecl> = self
            .compiled
            .iter()
            .flat_map(|c| c.stmts.iter().flatten())
            .flat_map(|k| &k.prelude)
            .filter_map(|fs| {
                Some(OrderedIndexDecl {
                    map: fs.rel.clone(),
                    mask: (0..fs.template.len().min(63))
                        .filter(|&i| fs.template[i].is_some())
                        .fold(0, |m, i| m | 1 << i),
                    key_pos: fs.band_pos?,
                })
            })
            .collect();
        decls.into_iter().collect()
    }

    /// Find a map declaration by name.
    pub fn map(&self, name: &str) -> Option<&MapDecl> {
        self.maps.iter().find(|m| m.name == name)
    }

    /// Find the trigger for a (relation, sign) pair.
    pub fn trigger(&self, relation: &str, sign: UpdateSign) -> Option<&Trigger> {
        self.triggers
            .iter()
            .find(|t| t.relation == relation && t.sign == sign)
    }

    /// Total number of statements across all triggers.
    pub fn statement_count(&self) -> usize {
        self.triggers.iter().map(|t| t.statements.len()).sum()
    }

    /// Total number of statements lowered to compiled kernels.
    pub fn compiled_statement_count(&self) -> usize {
        self.compiled.iter().map(|c| c.compiled_count()).sum()
    }

    /// Group the program's triggers by relation and choose, per relation, how
    /// a multi-entry delta batch drives them (the runtime resolves the result
    /// into its dispatch table once, at engine construction):
    /// [`BatchStrategy::BatchDelta`] when the relation has a derived
    /// [`RunLinear`] (including an empty one), [`BatchStrategy::EntryMajor`] —
    /// per-event processing inside the batch, always exact — otherwise. The
    /// reason a relation is entry-major is its [`BatchDeltaOutcome`].
    pub fn batch_dispatch(&self) -> Vec<RelationDispatch> {
        let mut relations: Vec<&str> = Vec::new();
        for t in &self.triggers {
            if !relations.contains(&t.relation.as_str()) {
                relations.push(&t.relation);
            }
        }
        relations
            .into_iter()
            .map(|rel| {
                let idx_of = |sign: UpdateSign| {
                    self.triggers
                        .iter()
                        .position(|t| t.relation == rel && t.sign == sign)
                };
                RelationDispatch {
                    relation: rel.to_string(),
                    insert: idx_of(UpdateSign::Insert),
                    delete: idx_of(UpdateSign::Delete),
                    strategy: match self.run_linear_for(rel) {
                        Some(_) => BatchStrategy::BatchDelta,
                        None => BatchStrategy::EntryMajor,
                    },
                }
            })
            .collect()
    }

    /// The run-linear program for `relation`, if its triggers are batch-delta
    /// eligible.
    pub fn run_linear_for(&self, relation: &str) -> Option<&RunLinear> {
        self.run_linear.iter().find(|c| c.relation == relation)
    }

    /// The recorded batch-delta derivation outcome for `relation`, if the
    /// program was compiled with reasons (hand-assembled programs have none).
    pub fn batch_delta_reason(&self, relation: &str) -> Option<&BatchDeltaOutcome> {
        self.batch_delta_reasons
            .iter()
            .find(|o| o.relation == relation)
    }
}

impl fmt::Display for TriggerProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- maps --")?;
        for m in &self.maps {
            writeln!(
                f,
                "{}[{}] := {}",
                m.name,
                m.out_vars.join(", "),
                m.definition
            )?;
        }
        writeln!(f, "-- triggers --")?;
        for t in &self.triggers {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Compilation strategy, corresponding to the systems compared in the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompileMode {
    /// Full Higher-Order IVM (the "DBToaster" columns of Figures 6/7).
    HigherOrder,
    /// Classical first-order IVM: the query is maintained with first-order deltas
    /// evaluated over the stored base relations ("IVM" columns).
    FirstOrder,
    /// The naive viewlet transform: recursive materialization without decomposition or
    /// delta simplification ("Naive" columns).
    NaiveViewlet,
    /// Full re-evaluation of the query on every update ("REP" columns).
    Reevaluate,
}

impl fmt::Display for CompileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompileMode::HigherOrder => "DBToaster",
            CompileMode::FirstOrder => "IVM",
            CompileMode::NaiveViewlet => "Naive",
            CompileMode::Reevaluate => "REP",
        };
        write!(f, "{s}")
    }
}

/// Tunable compilation options (the paper's Figure 12 compilation flags).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Overall strategy.
    pub mode: CompileMode,
    /// Maximum recursion depth of the viewlet transform (`--depth` in Figure 12).
    pub max_depth: usize,
    /// Apply rule 1 (query decomposition into join-graph components).
    pub enable_decomposition: bool,
    /// Extract range restrictions (loop-variable elimination, Section 5.3).
    pub enable_range_restriction: bool,
    /// Deduplicate structurally equivalent views.
    pub enable_dedup: bool,
    /// Use the re-evaluation heuristic for non-equality-correlated nested aggregates.
    pub enable_reevaluation_heuristic: bool,
    /// Decorrelate equality-correlated nested aggregates before compilation.
    pub enable_decorrelation: bool,
    /// Materialize delta subexpressions as auxiliary maps. When false (classical IVM and
    /// re-evaluation), delta queries are evaluated directly over stored base relations.
    pub materialize_deltas: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::for_mode(CompileMode::HigherOrder)
    }
}

impl CompileOptions {
    /// The canonical option set for each compilation mode.
    pub fn for_mode(mode: CompileMode) -> Self {
        match mode {
            CompileMode::HigherOrder => CompileOptions {
                mode,
                max_depth: 16,
                enable_decomposition: true,
                enable_range_restriction: true,
                enable_dedup: true,
                enable_reevaluation_heuristic: true,
                enable_decorrelation: true,
                materialize_deltas: true,
            },
            CompileMode::FirstOrder => CompileOptions {
                mode,
                max_depth: 1,
                enable_decomposition: false,
                enable_range_restriction: true,
                enable_dedup: true,
                enable_reevaluation_heuristic: false,
                enable_decorrelation: true,
                materialize_deltas: false,
            },
            CompileMode::NaiveViewlet => CompileOptions {
                mode,
                max_depth: 16,
                enable_decomposition: false,
                enable_range_restriction: false,
                enable_dedup: true,
                enable_reevaluation_heuristic: false,
                enable_decorrelation: true,
                materialize_deltas: true,
            },
            CompileMode::Reevaluate => CompileOptions {
                mode,
                max_depth: 0,
                enable_decomposition: false,
                enable_range_restriction: false,
                enable_dedup: false,
                enable_reevaluation_heuristic: false,
                enable_decorrelation: true,
                materialize_deltas: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup_and_replace() {
        let mut c = Catalog::new();
        c.add(RelationMeta::stream("R", ["A", "B"]));
        c.add(RelationMeta::table("Nation", ["NK", "NAME"]));
        assert_eq!(c.get("R").unwrap().columns, vec!["A", "B"]);
        assert_eq!(c.stream_names(), vec!["R"]);
        // Replacing an existing relation keeps a single entry.
        c.add(RelationMeta::stream("R", ["A"]));
        assert_eq!(c.get("R").unwrap().columns, vec!["A"]);
        assert_eq!(c.relations().len(), 2);
    }

    #[test]
    fn statement_reads_distinguish_views_from_base() {
        let s = Statement {
            target: "Q".into(),
            key_vars: vec!["a".into()],
            loop_vars: vec!["a".into()],
            op: StmtOp::Increment,
            rhs: Expr::product_of([Expr::view("M1", ["a"]), Expr::rel("R", ["a", "b"])]),
        };
        assert!(s.reads().contains("M1"));
        assert!(!s.reads().contains("R"));
        assert!(s.base_reads().contains("R"));
        assert!(s.to_string().contains("foreach a do Q[a] +="));
    }

    #[test]
    fn options_per_mode() {
        let ho = CompileOptions::for_mode(CompileMode::HigherOrder);
        assert!(ho.enable_decomposition);
        let ivm = CompileOptions::for_mode(CompileMode::FirstOrder);
        assert_eq!(ivm.max_depth, 1);
        let naive = CompileOptions::for_mode(CompileMode::NaiveViewlet);
        assert!(!naive.enable_decomposition && !naive.enable_range_restriction);
        let rep = CompileOptions::for_mode(CompileMode::Reevaluate);
        assert_eq!(rep.max_depth, 0);
        assert_eq!(format!("{}", CompileMode::HigherOrder), "DBToaster");
    }

    #[test]
    fn display_of_statement_without_loop_vars() {
        let s = Statement {
            target: "Q".into(),
            key_vars: vec!["o_ck".into()],
            loop_vars: vec![],
            op: StmtOp::Replace,
            rhs: Expr::one(),
        };
        assert_eq!(s.to_string(), "Q[o_ck] := 1");
    }
}
