//! Schemas of the benchmark workloads (Section 8 of the paper).
//!
//! Three workload families are modelled, with condensed schemas that keep every column
//! the benchmark queries touch:
//!
//! * **TPC-H-like** — `Customer`, `Orders`, `Lineitem`, `Part`, `Supplier`, `Partsupp`
//!   as update streams plus the static `Nation` and `Region` tables;
//! * **financial order book** — `Bids` and `Asks` with schema
//!   `(t, id, broker_id, price, volume)`;
//! * **MDDB molecular dynamics** — the `AtomPositions` insert stream plus the static
//!   `AtomMeta` table.

use dbtoaster_agca::{Catalog, RelationMeta};

/// Column list of a TPC-H-like relation.
pub fn tpch_columns(table: &str) -> Option<Vec<&'static str>> {
    Some(match table {
        "Customer" => vec!["custkey", "nationkey", "mktsegment", "acctbal"],
        "Orders" => vec![
            "orderkey",
            "custkey",
            "orderdate",
            "orderpriority",
            "totalprice",
        ],
        "Lineitem" => vec![
            "orderkey",
            "partkey",
            "suppkey",
            "quantity",
            "extendedprice",
            "discount",
            "shipdate",
            "returnflag",
        ],
        "Part" => vec![
            "partkey",
            "brand",
            "type",
            "size",
            "container",
            "retailprice",
        ],
        "Supplier" => vec!["suppkey", "nationkey", "acctbal"],
        "Partsupp" => vec!["partkey", "suppkey", "availqty", "supplycost"],
        "Nation" => vec!["nationkey", "regionkey", "name"],
        "Region" => vec!["regionkey", "name"],
        _ => return None,
    })
}

/// The string columns of a TPC-H-like relation; every other column is a number
/// (keys, quantities, prices, `yyyymmdd` dates).
pub fn tpch_strings(table: &str) -> &'static [&'static str] {
    match table {
        "Customer" => &["mktsegment"],
        "Orders" => &["orderpriority"],
        "Lineitem" => &["returnflag"],
        "Part" => &["brand", "type", "container"],
        "Nation" | "Region" => &["name"],
        _ => &[],
    }
}

/// The TPC-H-like catalog. `Nation` and `Region` are static tables; everything else is
/// an update stream.
pub fn tpch_catalog() -> Catalog {
    let mut c = Catalog::new();
    for t in [
        "Customer", "Orders", "Lineitem", "Part", "Supplier", "Partsupp",
    ] {
        c.add(RelationMeta::stream(t, tpch_columns(t).unwrap()).with_strings(tpch_strings(t)));
    }
    for t in ["Nation", "Region"] {
        c.add(RelationMeta::table(t, tpch_columns(t).unwrap()).with_strings(tpch_strings(t)));
    }
    c
}

/// Column list of the order-book relations.
pub fn finance_columns() -> Vec<&'static str> {
    vec!["t", "id", "broker_id", "price", "volume"]
}

/// The financial order-book catalog: `Bids` and `Asks` update streams, every
/// column a number.
pub fn finance_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(RelationMeta::stream("Bids", finance_columns()));
    c.add(RelationMeta::stream("Asks", finance_columns()));
    c
}

/// Column lists of the MDDB relations.
pub fn mddb_columns(table: &str) -> Option<Vec<&'static str>> {
    Some(match table {
        "AtomPositions" => vec!["trj_id", "t", "atom_id", "x", "y", "z"],
        "AtomMeta" => vec!["atom_id", "residue_name", "atom_name"],
        _ => return None,
    })
}

/// The MDDB catalog: an `AtomPositions` insert stream of numbers and a static
/// `AtomMeta` table whose residue and atom names are strings.
pub fn mddb_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(RelationMeta::stream(
        "AtomPositions",
        mddb_columns("AtomPositions").unwrap(),
    ));
    c.add(
        RelationMeta::table("AtomMeta", mddb_columns("AtomMeta").unwrap())
            .with_strings(["residue_name", "atom_name"]),
    );
    c
}

/// A catalog containing every workload relation (used by tools that compile the whole
/// query set at once).
pub fn full_catalog() -> Catalog {
    let mut c = tpch_catalog();
    for r in finance_catalog()
        .relations()
        .iter()
        .chain(mddb_catalog().relations())
    {
        c.add(r.clone());
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::AtomKind;

    #[test]
    fn catalogs_contain_expected_tables() {
        let t = tpch_catalog();
        assert_eq!(t.get("Lineitem").unwrap().kind, AtomKind::Stream);
        assert_eq!(t.get("Nation").unwrap().kind, AtomKind::Table);
        assert!(t
            .find("lineitem")
            .unwrap()
            .columns
            .iter()
            .any(|c| c == "shipdate"));

        let f = finance_catalog();
        assert!(f
            .get("Bids")
            .unwrap()
            .columns
            .iter()
            .any(|c| c == "broker_id"));

        let m = mddb_catalog();
        assert_eq!(m.get("AtomMeta").unwrap().kind, AtomKind::Table);

        let all = full_catalog();
        assert!(all.get("Bids").is_some() && all.get("Orders").is_some());
        // Lookup ignores case, so no two relation names may differ only in it.
        let rels = all.relations();
        assert_eq!(rels.len(), 8 + 2 + 2);
        for (i, a) in rels.iter().enumerate() {
            assert!(rels[..i]
                .iter()
                .all(|b| !b.name.eq_ignore_ascii_case(&a.name)));
        }
    }

    #[test]
    fn unknown_table_has_no_columns() {
        assert!(tpch_columns("Nope").is_none());
        assert!(mddb_columns("Nope").is_none());
    }
}
