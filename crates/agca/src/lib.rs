//! # AGCA — the AGgregate CAlculus of DBToaster
//!
//! This crate implements the query calculus at the core of the paper *"DBToaster:
//! Higher-order Delta Processing for Dynamic, Frequently Fresh Views"*:
//!
//! * [`expr`] — the AGCA abstract syntax (constants, variables, relation atoms, lifts,
//!   comparisons, `+`, `*`, `Sum_A`), Section 3.2;
//! * [`scope`] — binding-pattern analysis (input/output variables), Section 3.3;
//! * [`mod@eval`] — the reference evaluation semantics over GMRs, Section 3.2;
//! * [`mod@delta`] — the delta transform for single-tuple updates, Section 3.4;
//! * [`opt`] — the expression rewrites of Section 5.3: partial evaluation, polynomial
//!   expansion, unification, range-restriction extraction, decorrelation and
//!   canonicalization.
//!
//! The Higher-Order IVM compiler (`dbtoaster-compiler`) is a client of this crate: it
//! repeatedly takes deltas, simplifies them and decides which subexpressions to
//! materialize; the runtime (`dbtoaster-runtime`) evaluates the resulting trigger
//! statements with [`eval::eval`].
//!
//! ## Example: Example 2 of the paper
//!
//! ```
//! use dbtoaster_agca::prelude::*;
//!
//! // Q = Sum[]( O(ordk, xch) * LI(ordk, price) * xch * price )
//! let q = Expr::agg_sum(
//!     Vec::<String>::new(),
//!     Expr::product_of([
//!         Expr::rel("O", ["ordk", "xch"]),
//!         Expr::rel("LI", ["ordk", "price"]),
//!         Expr::var("xch"),
//!         Expr::var("price"),
//!     ]),
//! );
//! assert_eq!(q.degree(), 2);
//!
//! // The delta w.r.t. insertions into O has degree 1 ...
//! let upd = TupleUpdate::new("O", UpdateSign::Insert, &["ordk".into(), "xch".into()]);
//! let d = delta(&q, &upd);
//! assert_eq!(d.degree(), 1);
//!
//! // ... and the second-order delta is constant in the database.
//! let upd2 = TupleUpdate::new("LI", UpdateSign::Insert, &["ordk".into(), "price".into()]);
//! let dd = delta(&d, &upd2);
//! assert_eq!(dd.degree(), 0);
//! ```

pub mod batch;
pub mod delta;
pub mod eval;
pub mod expr;
pub mod opt;
pub mod plan;
pub mod scope;

pub use batch::{DeltaBatch, DeltaEntry, RelationDelta};
pub use delta::{delta, higher_order_delta, TupleUpdate, UpdateEvent, UpdateSign};
pub use eval::{eval, eval_scalar, Bindings, EvalError, EvalScratch, MemSource, RelationSource};
pub use expr::{AtomKind, CmpOp, Expr, RelRef, ScalarFn};
pub use opt::{canonical_key, decorrelate, expand, simplify, Monomial, Polynomial};
pub use plan::{lower_statement, CompiledStmt, KernelCounters, KernelState, KernelWork};
pub use scope::{input_vars, output_vars, var_info, VarInfo};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::batch::{DeltaBatch, DeltaEntry, RelationDelta};
    pub use crate::delta::{delta, higher_order_delta, TupleUpdate, UpdateEvent, UpdateSign};
    pub use crate::eval::{eval, eval_scalar, Bindings, EvalError, MemSource, RelationSource};
    pub use crate::expr::{AtomKind, CmpOp, Expr, RelRef, ScalarFn};
    pub use crate::opt::{canonical_key, decorrelate, expand, simplify, Monomial, Polynomial};
    pub use crate::plan::{lower_statement, CompiledStmt, KernelCounters, KernelState, KernelWork};
    pub use crate::scope::{input_vars, output_vars, var_info, VarInfo};
    pub use dbtoaster_gmr::prelude::*;
}
