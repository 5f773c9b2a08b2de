//! # DBToaster Higher-Order IVM compiler
//!
//! This crate implements the paper's primary contribution: the compilation of SQL-like
//! AGCA queries into *trigger programs* that maintain the query result (and a hierarchy
//! of auxiliary views) incrementally as single-tuple updates arrive.
//!
//! * [`program`] — the trigger-program IR ([`TriggerProgram`], [`MapDecl`],
//!   [`Statement`], [`Trigger`]) and the [`CompileOptions`]/[`CompileMode`]
//!   corresponding to the systems compared in the paper's evaluation (DBToaster,
//!   IVM, Naive, REP). It re-exports the schema types [`Catalog`], [`RelationMeta`]
//!   and [`QuerySpec`], which `dbtoaster-agca` defines for every layer.
//! * [`materialize`] — materialization decisions: the heuristic rewrite rules of
//!   Figure 1 (query decomposition, input-variable extraction, nested-aggregate
//!   decorrelation) and duplicate view elimination.
//! * [`mod@compile`] — the viewlet transform / Higher-Order IVM recursion (Algorithms 1–3)
//!   producing the trigger program.
//!
//! ```
//! use dbtoaster_compiler::prelude::*;
//! use dbtoaster_agca::Expr;
//!
//! // Example 2 of the paper: SUM(LI.PRICE * O.XCH) over an equijoin.
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
//! assert!(program.trigger("O", UpdateSign::Insert).is_some());
//! ```

pub mod batch_delta;
pub mod compile;
pub mod explain;
pub mod materialize;
pub mod program;
pub mod typecheck;

pub use batch_delta::{KernelUnit, RelationPlan};
pub use compile::{compile, fix_atom_kinds, CompileError};
pub use explain::{
    explain, FusedExplain, MapExplain, OrderedIndexExplain, ProgramExplain, RelationExplain,
    StmtExplain,
};
pub use materialize::{MapRegistry, Materializer};
pub use program::{
    BatchDeltaBail, Catalog, CompileMode, CompileOptions, CompileReport, HashIndexDecl, MapDecl,
    OrderedIndexDecl, QueryResult, QuerySpec, RelationMeta, Statement, StmtOp, Trigger,
    TriggerProgram,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::batch_delta::{KernelUnit, RelationPlan};
    pub use crate::compile::{compile, CompileError};
    pub use crate::explain::{explain, ProgramExplain};
    pub use crate::program::{
        BatchDeltaBail, Catalog, CompileMode, CompileOptions, CompileReport, HashIndexDecl,
        MapDecl, OrderedIndexDecl, QueryResult, QuerySpec, RelationMeta, Statement, StmtOp,
        Trigger, TriggerProgram,
    };
    pub use dbtoaster_agca::UpdateSign;
}
