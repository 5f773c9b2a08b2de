//! # Generalized Multiset Relations (GMRs)
//!
//! This crate provides the data model underlying the DBToaster reproduction:
//! *generalized multiset relations* as defined in Section 3.1 of the paper
//! "DBToaster: Higher-order Delta Processing for Dynamic, Frequently Fresh Views".
//!
//! A GMR is a function from tuples to rational multiplicities that is non-zero on at
//! most finitely many tuples. GMRs generalize SQL's multiset relations in two ways:
//!
//! * multiplicities may be **negative** — a deletion is simply a GMR with negative
//!   multiplicities, and applying an update means *adding* it to the database;
//! * multiplicities may be **fractional** — aggregate values live in the multiplicity,
//!   so maintaining an aggregate means adding to a number instead of replacing a tuple.
//!
//! Together with generalized union (`+`, [`Gmr::add_gmr`]) and natural join
//! (`*`, [`Gmr::join`]) GMRs form a ring, which is what makes the delta transform of
//! AGCA expressions (implemented in the `dbtoaster-agca` crate) a purely syntactic
//! rewrite.
//!
//! ## Contents
//!
//! * [`value`] — the dynamically typed [`Value`] scalar (64-bit integers,
//!   doubles and shared strings, 16 bytes each) with the coercion rules used
//!   throughout the system.
//! * [`mod@tuple`] — the shared [`Tuple`] key type (inline up to arity `INLINE_CAP` (3),
//!   cheap to clone) plus a helper for projection.
//! * [`hash`] — the fast deterministic hasher behind [`FastMap`], used
//!   by every hot-path map in the system.
//! * [`schema`] — ordered column-name lists and positional lookup.
//! * [`mod@gmr`] — the [`Gmr`] collection type and its ring operations.
//!
//! ## Example
//!
//! ```
//! use dbtoaster_gmr::prelude::*;
//!
//! // R(A, B) with two tuples.
//! let mut r = Gmr::new(Schema::new(["A", "B"]));
//! r.add_tuple(vec![Value::long(1), Value::long(2)], 1.0);
//! r.add_tuple(vec![Value::long(3), Value::long(5)], 1.0);
//!
//! // S(B, C) with one tuple.
//! let mut s = Gmr::new(Schema::new(["B", "C"]));
//! s.add_tuple(vec![Value::long(2), Value::long(7)], 1.0);
//!
//! // Natural join on the shared column B.
//! let j = r.join(&s);
//! assert_eq!(j.schema().columns(), &["A", "B", "C"]);
//! assert_eq!(j.len(), 1);
//! ```

pub mod gmr;
pub mod hash;
pub mod schema;
pub mod tuple;
pub mod value;

pub use gmr::Gmr;
pub use hash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::{ColumnType, Value};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::gmr::Gmr;
    pub use crate::hash::{FastMap, FastSet};
    pub use crate::schema::Schema;
    pub use crate::tuple::Tuple;
    pub use crate::value::Value;
}
