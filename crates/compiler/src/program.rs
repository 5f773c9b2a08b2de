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
pub use dbtoaster_agca::{Catalog, QuerySpec, RelationMeta};
use std::collections::BTreeSet;
use std::fmt;

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
    /// triggers this is all of them; a relation's plan requires it (its `:=`
    /// statements are the run's tail, see [`crate::batch_delta`]).
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

/// A named query result of the program: the maintained map it reads
/// (derived columns such as `AVG = SUM / COUNT` are assembled from several
/// results by the serving layer).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Query name (as given in the [`QuerySpec`]).
    pub name: String,
    /// Result columns, named as the query names them.
    pub out_vars: Vec<String>,
    /// The map the result reads: the query's own (named `name`), or, when
    /// an earlier query's definition is the same up to variable names, that
    /// query's map, which then maintains both. Its key columns are
    /// positionally the result's `out_vars`. Every reader of a result by
    /// name resolves it through this field.
    pub map: String,
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
    /// Compilation report (rule usage, counts).
    pub report: CompileReport,
}

/// Which condition stopped batch-delta derivation for a relation (see
/// [`crate::batch_delta`] for the conditions themselves): what
/// [`CompileError::Underivable`] names.
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
    /// Stable human-readable description (the `reason` of
    /// [`CompileError::Underivable`]).
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
