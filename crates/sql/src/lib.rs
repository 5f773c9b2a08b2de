//! # DBToaster SQL frontend
//!
//! Parses the SQL fragment used by the paper's workload (select-project-join aggregate
//! queries with nested subqueries) and translates it into the AGCA calculus consumed by
//! the Higher-Order IVM compiler.
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a small recursive-descent SQL parser;
//! * [`mod@translate`] — SQL → AGCA translation against the shared
//!   [`Catalog`](dbtoaster_agca::Catalog), producing one maintained view
//!   ([`QuerySpec`](dbtoaster_agca::QuerySpec)) per aggregate plus a description of how
//!   the result columns are read back. Table names and column names resolve
//!   case-insensitively.
//!
//! ```
//! use dbtoaster_agca::{Catalog, RelationMeta};
//! use dbtoaster_sql::prelude::*;
//!
//! let catalog: Catalog = [
//!     RelationMeta::stream("Orders", ["ordk", "xch"]),
//!     RelationMeta::stream("Lineitem", ["ordk", "price"]),
//! ].into_iter().collect();
//!
//! let q = parse_query(
//!     "SELECT SUM(li.price * o.xch) FROM Orders o, Lineitem li WHERE o.ordk = li.ordk",
//! ).unwrap();
//! let plan = translate("total_sales", &q, &catalog).unwrap();
//! assert_eq!(plan.views.len(), 1);
//! assert_eq!(plan.views[0].expr.degree(), 2);
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod translate;

pub use ast::{
    AggFunc, ArithOp, ColumnRef, Condition, SelectItem, SelectQuery, SqlCmpOp, SqlExpr, TableRef,
};
pub use parser::{parse_query, ParseError};
pub use translate::{translate, OutputColumn, TranslateError, TranslatedQuery};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::ast::{AggFunc, SelectQuery};
    pub use crate::parser::{parse_query, ParseError};
    pub use crate::translate::{translate, OutputColumn, TranslateError, TranslatedQuery};
}
