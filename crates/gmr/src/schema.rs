//! Schemas: ordered lists of column (variable) names.
//!
//! In AGCA the columns of a GMR are query variables; a schema is therefore an ordered
//! list of variable names. Schemas are small (a handful of columns), so lookups are
//! linear scans — cheaper than a hash map at these sizes and free of allocation.
//!
//! The column list is stored behind an `Arc`, making `Schema::clone` a refcount bump:
//! the evaluator clones schemas on every product step and every GMR construction, so
//! this matters on the per-event path. Schemas are immutable after construction except
//! for [`Schema::push`], which copies (it only runs at compile time).

use std::fmt;
use std::sync::Arc;

/// An ordered list of column names.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    columns: Arc<[String]>,
}

impl Schema {
    /// Build a schema from column names.
    pub fn new<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema {
            columns: columns
                .into_iter()
                .map(Into::into)
                .collect::<Vec<String>>()
                .into(),
        }
    }

    /// The empty (nullary) schema of scalar GMRs.
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Is this the nullary schema?
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Does the schema contain the column?
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Positions of the given columns; returns `None` if any is missing.
    pub fn positions_of(&self, names: &[String]) -> Option<Vec<usize>> {
        names.iter().map(|n| self.index_of(n)).collect()
    }

    /// Columns shared with another schema, as (self position, other position) pairs.
    pub fn shared_positions(&self, other: &Schema) -> Vec<(usize, usize)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| other.index_of(c).map(|j| (i, j)))
            .collect()
    }

    /// Schema of the natural join `self * other`: self's columns followed by other's
    /// columns that are not already present.
    pub fn join(&self, other: &Schema) -> Schema {
        if other.is_empty() {
            return self.clone();
        }
        let mut columns = self.columns.to_vec();
        for c in other.columns.iter() {
            if !columns.iter().any(|x| x == c) {
                columns.push(c.clone());
            }
        }
        Schema {
            columns: columns.into(),
        }
    }

    /// Do the two schemas contain the same column set (ignoring order)?
    pub fn same_columns(&self, other: &Schema) -> bool {
        self.arity() == other.arity() && self.columns.iter().all(|c| other.contains(c))
    }

    /// Append a column (panics if already present — schemas never repeat columns).
    pub fn push(&mut self, name: impl Into<String>) {
        let name = name.into();
        assert!(!self.contains(&name), "duplicate column {name}");
        let mut columns = self.columns.to_vec();
        columns.push(name);
        self.columns = columns.into();
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.columns.join(", "))
    }
}

impl<S: Into<String>> FromIterator<S> for Schema {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Schema::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lookup() {
        let s = Schema::new(["a", "b", "c"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert!(s.contains("c"));
        assert_eq!(s.positions_of(&["c".into(), "a".into()]), Some(vec![2, 0]));
        assert_eq!(s.positions_of(&["c".into(), "z".into()]), None);
    }

    #[test]
    fn join_schema_unions_in_order() {
        let r = Schema::new(["a", "b"]);
        let s = Schema::new(["b", "c"]);
        assert_eq!(r.join(&s), Schema::new(["a", "b", "c"]));
        assert_eq!(r.shared_positions(&s), vec![(1, 0)]);
    }

    #[test]
    fn same_columns_ignores_order() {
        let r = Schema::new(["a", "b"]);
        let s = Schema::new(["b", "a"]);
        let t = Schema::new(["b", "c"]);
        assert!(r.same_columns(&s));
        assert!(!r.same_columns(&t));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn push_rejects_duplicates() {
        let mut s = Schema::new(["a"]);
        s.push("a");
    }

    #[test]
    fn display_and_empty() {
        assert_eq!(format!("{}", Schema::new(["x", "y"])), "[x, y]");
        assert!(Schema::empty().is_empty());
        assert_eq!(Schema::empty().arity(), 0);
    }
}
