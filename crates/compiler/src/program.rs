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

use crate::compile::CompileError;
use dbtoaster_agca::plan::template_mask;
use dbtoaster_agca::{lower_statement, AtomKind, CompiledStmt, Expr, UpdateSign};
use dbtoaster_gmr::{ColumnType, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Metadata about a base relation known to the compiler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationMeta {
    /// Relation name (case-sensitive, as used in AGCA atoms).
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Column types, one per column: what `compile` type-checks queries
    /// against and what the engine admits events by.
    pub types: Vec<ColumnType>,
    /// `Stream` for relations receiving updates, `Table` for static relations.
    pub kind: AtomKind,
}

impl RelationMeta {
    /// A stream relation, every column a number.
    pub fn stream<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        RelationMeta::new(name.into(), columns, AtomKind::Stream)
    }

    /// A static table, every column a number.
    pub fn table<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        RelationMeta::new(name.into(), columns, AtomKind::Table)
    }

    fn new<S: Into<String>>(
        name: String,
        columns: impl IntoIterator<Item = S>,
        kind: AtomKind,
    ) -> Self {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        RelationMeta {
            name,
            types: vec![ColumnType::Number; columns.len()],
            columns,
            kind,
        }
    }

    /// The relation with the named columns declared strings. Panics on a
    /// name the relation does not have.
    pub fn with_strings<S: AsRef<str>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        for c in columns {
            let c = c.as_ref();
            let i = self.columns.iter().position(|have| have == c);
            let i = i.unwrap_or_else(|| panic!("relation {} has no column {c}", self.name));
            self.types[i] = ColumnType::String;
        }
        self
    }

    /// Does `row` fit the relation — one value per column, each of its
    /// column's type? If not, why not.
    pub fn check_row(&self, row: &[Value]) -> Result<(), String> {
        let (got, want) = (row.len(), self.types.len());
        if got != want {
            return Err(format!("{got} values for {want} columns"));
        }
        match self.types.iter().zip(row).position(|(t, v)| !t.admits(v)) {
            None => Ok(()),
            Some(i) => {
                let (column, t, v) = (&self.columns[i], self.types[i], &row[i]);
                Err(format!("column {column} is a {t}, not {v:?}"))
            }
        }
    }
}

/// The set of base relations visible to a compilation.
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Result view name.
    pub name: String,
    /// Output (group-by) variables of the result.
    pub out_vars: Vec<String>,
    /// The query, over stream/table atoms.
    pub expr: Expr,
}

/// A materialized view (map) declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct MapDecl {
    /// Map name.
    pub name: String,
    /// Key columns (output variables of the definition).
    pub out_vars: Vec<String>,
    /// Defining expression over base relations (never over other views).
    pub definition: Expr,
    /// Is this map one of the user-visible query results?
    pub is_query_result: bool,
    /// The definition's kernel, present exactly when the definition references no
    /// stream relation: such a map is initialized once, from the static tables, at
    /// engine start-up and never updated.
    pub init: Option<CompiledStmt>,
}

/// `+=` or `:=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq)]
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
    /// The right-hand side lowered to the compiled kernel the runtime executes.
    pub kernel: CompiledStmt,
}

impl Statement {
    /// A statement of the trigger binding `trigger_vars`, with its right-hand
    /// side lowered to its kernel. A shape the kernel compiler cannot lower
    /// rejects the program ([`CompileError::Unlowerable`]).
    pub fn new(
        trigger_vars: &[String],
        target: String,
        key_vars: Vec<String>,
        loop_vars: Vec<String>,
        op: StmtOp,
        rhs: Expr,
    ) -> Result<Statement, CompileError> {
        match lower_statement(trigger_vars, &key_vars, &rhs) {
            Ok(kernel) => Ok(Statement {
                target,
                key_vars,
                loop_vars,
                op,
                rhs,
                kernel,
            }),
            Err(e) => Err(CompileError::Unlowerable {
                statement: render(&target, &key_vars, &loop_vars, op, &rhs),
                reason: e.0.to_string(),
            }),
        }
    }

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

/// A statement's source text (what [`Statement`]'s `Display` prints).
fn render(
    target: &str,
    key_vars: &[String],
    loop_vars: &[String],
    op: StmtOp,
    rhs: &Expr,
) -> String {
    let head = format!("{target}[{}] {op} {rhs}", key_vars.join(", "));
    if loop_vars.is_empty() {
        head
    } else {
        format!("foreach {} do {head}", loop_vars.join(", "))
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(
            &self.target,
            &self.key_vars,
            &self.loop_vars,
            self.op,
            &self.rhs,
        ))
    }
}

/// All statements fired by a single update event `±R(~t)`.
#[derive(Clone, Debug, PartialEq)]
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

/// How a user-visible query result is obtained from the maintained maps: every
/// result is one maintained map (derived columns such as `AVG = SUM / COUNT` are
/// assembled from several results by the serving layer).
#[derive(Clone, Debug, PartialEq)]
pub enum ResultAccess {
    /// The result is a single maintained map.
    Map(String),
}

/// A named query result of the program.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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

/// A compiled trigger program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriggerProgram {
    /// Materialized view declarations.
    pub maps: Vec<MapDecl>,
    /// Triggers, one per (stream relation, sign) with at least one statement.
    pub triggers: Vec<Trigger>,
    /// User-visible query results.
    pub results: Vec<QueryResult>,
    /// Base relations that must be kept in storage because some statement reads them.
    pub stored_relations: BTreeSet<String>,
    /// Static tables referenced by the program (always stored).
    pub static_tables: BTreeSet<String>,
    /// Per-relation live passes, one for every relation whose triggers are
    /// batch-delta eligible (see [`BatchStrategy::BatchDelta`]). Derived
    /// data, like the statements' kernels: excluded from the program
    /// fingerprint, which hashes the canonical rendering only.
    pub live_passes: Vec<LivePass>,
    /// Per-relation batch-delta derivation outcomes: eligible, or which
    /// condition bailed. Derived data: excluded from the program fingerprint
    /// and empty for hand-assembled programs.
    pub batch_delta_reasons: Vec<BatchDeltaOutcome>,
    /// Compilation report (rule usage, counts).
    pub report: CompileReport,
}

/// How the statements for one relation's triggers execute over a multi-entry
/// delta batch (see [`TriggerProgram::batch_dispatch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStrategy {
    /// Entry-major: the run split into runs of one firing each (`|mult|` per
    /// surviving entry, in entry order), each executed batch-delta — exactly
    /// event-at-a-time processing, where every `+=` statement of a firing
    /// reads the state before it. Not a second executor, and never the
    /// static choice for a relation of a compiled workload program: it is
    /// the dispatch of a relation whose derivation bailed (a hand-assembled
    /// trigger whose `:=` statements cannot be the run's tail).
    EntryMajor,
    /// Batch-delta: the whole run is one delta GMR. Every incremental
    /// statement of both sign triggers that reads nothing the run writes is
    /// evaluated for all entries against the **pre-run** state, its writes
    /// buffered; the relation's [`LivePass`] statements — the ones that do
    /// read what the run writes — are evaluated firing by firing against
    /// maps the run keeps current as it goes, to account for entries of the
    /// same run interacting. The buffered writes and the base update follow,
    /// and the `:=` statements of the run's last event fire once against the
    /// new state — the one firing whose output survives per-event
    /// processing. Chosen whenever the derivation succeeds — see
    /// [`crate::batch_delta`] for the argument and its eligibility conditions.
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

/// The live pass of one batch-delta eligible relation (see
/// [`crate::batch_delta`]): the `+=` statements whose right-hand side reads a
/// map, or the relation's own stored slice, that the same relation's triggers
/// write, and the maps they read of those. A multi-firing run evaluates every
/// other statement once per entry against the pre-run state, and these firing
/// by firing in entry order, writing the maps they read as it goes: sequential
/// per-event processing for exactly the part of the program where the order
/// of a run's entries matters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LivePass {
    /// The stream relation whose runs this pass completes.
    pub relation: String,
    /// The statements that read run-written state, in `(trigger, statement)`
    /// order; empty when no statement of the relation reads run-written
    /// state — the relation is still batch-delta eligible, its runs just have
    /// no interaction.
    pub statements: Vec<LiveStmt>,
    /// The run-written names those statements read, sorted: the *live maps*,
    /// which a run writes firing by firing instead of once at its end.
    pub live_maps: Vec<String>,
}

impl LivePass {
    /// Is statement `stmt` of trigger `trigger` one of [`LivePass::statements`]?
    pub fn lists(&self, trigger: usize, stmt: usize) -> bool {
        self.statements
            .iter()
            .any(|s| s.trigger == trigger && s.stmt == stmt)
    }
}

/// One trigger statement that reads run-written state, by position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveStmt {
    /// Index into [`TriggerProgram::triggers`] of the statement's trigger.
    pub trigger: usize,
    /// Index into that trigger's [`Trigger::statements`].
    pub stmt: usize,
}

/// Which eligibility condition stopped batch-delta derivation for a relation
/// (see [`crate::batch_delta`] for the conditions themselves). Recorded at
/// compile time so EXPLAIN can name the exact condition instead of a generic
/// "not eligible".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchDeltaBail {
    /// Tail: an incremental statement follows a re-evaluation statement in
    /// its trigger, so the `:=` statements are not a tail that can fire once
    /// after the run's increments.
    IncrementAfterReplace {
        /// The increment's target map.
        target: String,
    },
    /// Tail: the insert and delete triggers re-evaluate different target
    /// sets, so which `:=` output survives depends on the per-event
    /// interleaving of signs.
    UnmirroredReplace,
    /// Tail: a re-evaluation statement exists but one update sign has no
    /// trigger to mirror it.
    OneSidedReplace,
    /// The gate: the statement for `target` reads `read`, which a `:=`
    /// statement of the same relation's triggers rewrites wholesale — once
    /// per run, after its last entry, not once per firing.
    ReadsReplaceTarget {
        /// The statement's target map.
        target: String,
        /// The `:=` target read.
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
            BatchDeltaBail::ReadsReplaceTarget { target, read } => format!(
                "the statement for `{target}` reads `{read}`, which a replace (`:=`) statement \
                 rewrites once per run"
            ),
        }
    }
}

/// The recorded outcome of batch-delta derivation for one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchDeltaOutcome {
    /// The stream relation.
    pub relation: String,
    /// `None` — derivation succeeded (the relation has a [`LivePass`]);
    /// `Some` — the first condition that failed.
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

/// A hash secondary index the compiler declares (see
/// [`TriggerProgram::hash_indexes`]): the entries of `map` bucketed by their
/// values at the key positions in `mask`, so a scan binding those positions
/// visits its bucket only.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct HashIndexDecl {
    /// The map (or stored relation) indexed.
    pub map: String,
    /// Bitmask of the key positions the scans bind by equality.
    pub mask: u64,
}

impl TriggerProgram {
    /// The ordered secondary indexes of the program, sorted: one per `(map,
    /// bound positions)` some compiled kernel reads through an ordered index
    /// ([`dbtoaster_agca::plan::CompiledStmt::ordered_reads`]: range-sum and
    /// cut-walk scans, band-sum lookups and the quantile searches over
    /// them). Derived from the kernels, like they are from the statements;
    /// the runtime declares these on the stored maps.
    pub fn ordered_indexes(&self) -> Vec<OrderedIndexDecl> {
        let decls: BTreeSet<OrderedIndexDecl> = self
            .triggers
            .iter()
            .flat_map(|t| &t.statements)
            .flat_map(|s| {
                let k = &s.kernel;
                k.ordered_reads()
                    .into_iter()
                    .map(|(rel, template, key_pos)| OrderedIndexDecl {
                        map: k.rels[rel as usize].clone(),
                        mask: template_mask(template),
                        key_pos,
                    })
            })
            .collect();
        decls.into_iter().collect()
    }

    /// The hash secondary indexes of the program, sorted: one per `(map,
    /// bound positions)` some compiled kernel — a trigger statement's or a
    /// static view's initializer — reads with a pattern that leaves a
    /// position free ([`CompiledStmt::scans`]), except where that mask has
    /// an ordered index ([`TriggerProgram::ordered_indexes`]), which answers
    /// the scan instead. The runtime declares these on the stored maps
    /// before the first event, so no read builds an index.
    pub fn hash_indexes(&self) -> Vec<HashIndexDecl> {
        let ordered: BTreeSet<(String, u64)> = self
            .ordered_indexes()
            .into_iter()
            .map(|d| (d.map, d.mask))
            .collect();
        let kernels = self
            .triggers
            .iter()
            .flat_map(|t| &t.statements)
            .map(|s| &s.kernel)
            .chain(self.maps.iter().filter_map(|m| m.init.as_ref()));
        let mut decls = BTreeSet::new();
        for k in kernels {
            for (rel, template) in k.scans() {
                let mask = template_mask(template);
                let full = template.len() < 64 && mask == (1 << template.len()) - 1;
                let map = &k.rels[rel as usize];
                if mask != 0 && !full && !ordered.contains(&(map.clone(), mask)) {
                    decls.insert(HashIndexDecl {
                        map: map.clone(),
                        mask,
                    });
                }
            }
        }
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

    /// Total number of statements lowered to compiled kernels: every statement
    /// (an unlowerable one rejects the program). Kept for the benchmark's
    /// `compiler.kernel_coverage` row.
    pub fn compiled_statement_count(&self) -> usize {
        self.statement_count()
    }

    /// Group the program's triggers by relation and choose, per relation, how
    /// a multi-entry delta batch drives them (the runtime resolves the result
    /// into its dispatch table once, at engine construction):
    /// [`BatchStrategy::BatchDelta`] when the relation has a derived
    /// [`LivePass`] (including an empty one), [`BatchStrategy::EntryMajor`] —
    /// runs of one firing, per-event processing inside the batch — otherwise. The
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
                    strategy: match self.live_pass_for(rel) {
                        Some(_) => BatchStrategy::BatchDelta,
                        None => BatchStrategy::EntryMajor,
                    },
                }
            })
            .collect()
    }

    /// The live pass for `relation`, if its triggers are batch-delta
    /// eligible.
    pub fn live_pass_for(&self, relation: &str) -> Option<&LivePass> {
        self.live_passes.iter().find(|c| c.relation == relation)
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

/// Compilation options: the mode, from which every compilation flag of the
/// paper's Figure 12 follows where the compiler reads it (decomposition and
/// the re-evaluation heuristic in higher-order mode only, range restriction
/// in higher- and first-order mode, view deduplication and decorrelation
/// everywhere re-evaluation does not skip them, materialized deltas in the
/// higher-order and naive-viewlet modes).
#[derive(Clone, Debug, PartialEq)]
pub struct CompileOptions {
    /// Overall strategy.
    pub mode: CompileMode,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::for_mode(CompileMode::HigherOrder)
    }
}

impl CompileOptions {
    /// The options of a compilation mode.
    pub fn for_mode(mode: CompileMode) -> Self {
        CompileOptions { mode }
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
        let s = Statement::new(
            &[],
            "Q".into(),
            vec!["a".into()],
            vec!["a".into()],
            StmtOp::Increment,
            Expr::product_of([Expr::view("M1", ["a"]), Expr::rel("R", ["a", "b"])]),
        )
        .unwrap();
        assert!(s.reads().contains("M1"));
        assert!(!s.reads().contains("R"));
        assert!(s.base_reads().contains("R"));
        assert!(s.to_string().contains("foreach a do Q[a] +="));
    }

    #[test]
    fn options_per_mode() {
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            assert_eq!(CompileOptions::for_mode(mode).mode, mode);
        }
        assert_eq!(CompileOptions::default().mode, CompileMode::HigherOrder);
        assert_eq!(format!("{}", CompileMode::HigherOrder), "DBToaster");
    }

    #[test]
    fn display_of_statement_without_loop_vars() {
        let s = Statement::new(
            &["o_ck".into()],
            "Q".into(),
            vec!["o_ck".into()],
            vec![],
            StmtOp::Replace,
            Expr::one(),
        )
        .unwrap();
        assert_eq!(s.to_string(), "Q[o_ck] := 1");
    }

    #[test]
    fn an_unlowerable_statement_names_itself_and_the_reason() {
        let err = Statement::new(
            &[],
            "Q".into(),
            vec!["k".into()],
            vec![],
            StmtOp::Replace,
            Expr::one(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CompileError::Unlowerable {
                statement: "Q[k] := 1".into(),
                reason: "unbound key variable".into(),
            }
        );
    }
}
