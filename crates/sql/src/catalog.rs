//! The SQL catalog: table definitions visible to the frontend.

use dbtoaster_gmr::ColumnType;

/// A table definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDef {
    /// Canonical table name.
    pub name: String,
    /// Column names (stored lowercase; lookups are case-insensitive).
    pub columns: Vec<String>,
    /// Column types, one per column: a number unless declared a string
    /// ([`TableDef::with_strings`]).
    pub types: Vec<ColumnType>,
    /// `true` for relations that receive updates (streams), `false` for static tables.
    pub is_stream: bool,
}

impl TableDef {
    /// A stream table, every column a number.
    pub fn stream<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        TableDef::new(name.into(), columns, true)
    }

    /// A static table, every column a number.
    pub fn table<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        TableDef::new(name.into(), columns, false)
    }

    fn new<S: Into<String>>(
        name: String,
        columns: impl IntoIterator<Item = S>,
        is_stream: bool,
    ) -> Self {
        let columns: Vec<String> = columns
            .into_iter()
            .map(|c| c.into().to_lowercase())
            .collect();
        TableDef {
            name,
            types: vec![ColumnType::Number; columns.len()],
            columns,
            is_stream,
        }
    }

    /// The table with the named columns declared strings. Panics on a name
    /// the table does not have.
    pub fn with_strings<S: AsRef<str>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        for c in columns {
            let c = c.as_ref().to_lowercase();
            let i = self.columns.iter().position(|have| *have == c);
            let i = i.unwrap_or_else(|| panic!("table {} has no column {c}", self.name));
            self.types[i] = ColumnType::String;
        }
        self
    }

    /// Does the table have the named column (case-insensitive)?
    pub fn has_column(&self, column: &str) -> bool {
        let c = column.to_lowercase();
        self.columns.contains(&c)
    }
}

/// The set of tables known to the SQL frontend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SqlCatalog {
    tables: Vec<TableDef>,
}

impl SqlCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        SqlCatalog::default()
    }

    /// Add or replace a table definition.
    pub fn add(&mut self, def: TableDef) {
        self.tables
            .retain(|t| !t.name.eq_ignore_ascii_case(&def.name));
        self.tables.push(def);
    }

    /// Look up a table by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&TableDef> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// All table definitions.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }
}

impl FromIterator<TableDef> for SqlCatalog {
    fn from_iter<T: IntoIterator<Item = TableDef>>(iter: T) -> Self {
        let mut c = SqlCatalog::new();
        for t in iter {
            c.add(t);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let mut c = SqlCatalog::new();
        c.add(TableDef::stream("Lineitem", ["ORDERKEY", "Quantity"]));
        let t = c.get("LINEITEM").unwrap();
        assert!(t.has_column("quantity"));
        assert!(t.has_column("QUANTITY"));
        assert!(!t.has_column("nope"));
        assert!(t.is_stream);
    }

    #[test]
    fn columns_are_numbers_unless_declared_strings() {
        let t =
            TableDef::stream("Customer", ["custkey", "MktSegment"]).with_strings(["mktsegment"]);
        assert_eq!(t.types, [ColumnType::Number, ColumnType::String]);
    }

    #[test]
    fn add_replaces_existing() {
        let mut c = SqlCatalog::new();
        c.add(TableDef::stream("T", ["a"]));
        c.add(TableDef::table("t", ["a", "b"]));
        assert_eq!(c.tables().len(), 1);
        assert!(!c.get("T").unwrap().is_stream);
    }
}
