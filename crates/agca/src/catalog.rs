//! The one schema a program is compiled against: its base relations
//! ([`RelationMeta`], gathered in a [`Catalog`]) and the queries to maintain
//! over them ([`QuerySpec`]).
//!
//! The SQL frontend translates against this catalog, the compiler
//! type-checks and compiles against it, and the engine admits events and
//! table rows by it. The compiler re-exports all three types, so
//! `dbtoaster_compiler::{Catalog, RelationMeta, QuerySpec}` name them too.
//!
//! Case rules:
//! - names are stored as given, and AGCA atoms name a relation exactly as
//!   stored: [`Catalog::get`], which the compiler and the engine use, matches
//!   names exactly;
//! - [`Catalog::find`], which the SQL frontend uses, and [`Catalog::add`]'s
//!   replacement match relation names ASCII case-insensitively, so a catalog
//!   never holds two names that differ only in case;
//! - [`RelationMeta::with_strings`] matches column names ASCII
//!   case-insensitively. The SQL frontend lowercases a relation's columns
//!   when it builds a scope, so SQL column references are case-insensitive.
//!
//! `dbtoaster::SqlCatalog` (an alias of [`Catalog`]) and
//! `dbtoaster::to_compiler_catalog` (a clone) remain only because the frozen
//! benchmark calls them.

use crate::expr::{AtomKind, Expr};
use dbtoaster_gmr::{ColumnType, Value};

/// A base relation: its name, columns and column types, and whether it
/// receives updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationMeta {
    /// Relation name, as used in AGCA atoms.
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

    /// The relation with the named columns (case-insensitive) declared
    /// strings. Panics on a name the relation does not have.
    pub fn with_strings<S: AsRef<str>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        for c in columns {
            let c = c.as_ref();
            let i = self
                .columns
                .iter()
                .position(|have| have.eq_ignore_ascii_case(c));
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

/// The base relations visible to a translation, a compilation and an engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    relations: Vec<RelationMeta>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Add a relation, replacing any previous definition whose name differs
    /// at most in ASCII case.
    pub fn add(&mut self, meta: RelationMeta) {
        self.relations
            .retain(|r| !r.name.eq_ignore_ascii_case(&meta.name));
        self.relations.push(meta);
    }

    /// Look up a relation by its name exactly as stored, as an AGCA atom
    /// names it.
    pub fn get(&self, name: &str) -> Option<&RelationMeta> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Look up a relation by name, ASCII case-insensitively, as SQL names a
    /// table.
    pub fn find(&self, name: &str) -> Option<&RelationMeta> {
        self.relations
            .iter()
            .find(|r| r.name.eq_ignore_ascii_case(name))
    }

    /// All relations, in the order they were added.
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

/// A query to maintain: a named AGCA expression whose result is kept fresh.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Result view name.
    pub name: String,
    /// Output (group-by) variables of the result.
    pub out_vars: Vec<String>,
    /// The query, over stream/table atoms.
    pub expr: Expr,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_and_replace_ignore_ascii_case_get_does_not() {
        let mut c = Catalog::new();
        c.add(RelationMeta::stream("R", ["A", "B"]));
        c.add(RelationMeta::table("Nation", ["NK", "NAME"]));
        assert_eq!(c.find("r").unwrap().columns, vec!["A", "B"]);
        assert_eq!(c.find("NATION").unwrap().name, "Nation");
        assert_eq!(c.get("Nation").unwrap().name, "Nation");
        assert!(c.get("r").is_none() && c.get("NATION").is_none());
        assert_eq!(c.stream_names(), vec!["R"]);
        // Replacing an existing relation keeps a single entry, named as the
        // replacement names it.
        c.add(RelationMeta::table("r", ["A"]));
        assert_eq!(c.relations().len(), 2);
        assert!(c.get("R").is_none());
        let r = c.get("r").unwrap();
        assert_eq!((r.name.as_str(), r.kind), ("r", AtomKind::Table));
        assert!(c.find("S").is_none());
    }

    #[test]
    fn columns_are_numbers_unless_declared_strings() {
        let r = RelationMeta::stream("Customer", ["custkey", "MktSegment"])
            .with_strings(["mktsegment"]);
        assert_eq!(r.columns, ["custkey", "MktSegment"]);
        assert_eq!(r.types, [ColumnType::Number, ColumnType::String]);
        assert!(r.check_row(&[Value::long(1), Value::str("x")]).is_ok());
        assert_eq!(
            r.check_row(&[Value::long(1), Value::long(2)]).unwrap_err(),
            "column MktSegment is a string, not Long(2)"
        );
        assert_eq!(
            r.check_row(&[Value::long(1)]).unwrap_err(),
            "1 values for 2 columns"
        );
    }

    #[test]
    #[should_panic(expected = "relation R has no column c")]
    fn a_string_column_the_relation_lacks_panics() {
        let _ = RelationMeta::stream("R", ["a", "b"]).with_strings(["c"]);
    }
}
