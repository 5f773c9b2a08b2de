//! The benchmark query set (Appendix A of the paper, adapted to the condensed schemas).
//!
//! Each [`WorkloadQuery`] carries the SQL text, the workload family it belongs to and
//! the structural features reported in Figure 2 of the paper (number of joined tables,
//! join type, where-clause features, group-by, nesting depth). Every structural class
//! of Figure 2 is covered.

use serde::{Deserialize, Serialize};

/// Workload family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// TPC-H-like decision support.
    Tpch,
    /// Algorithmic-trading order-book queries.
    Finance,
    /// MDDB molecular-dynamics queries.
    Scientific,
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::Tpch => write!(f, "TPC-H"),
            Family::Finance => write!(f, "Finance"),
            Family::Scientific => write!(f, "Sci."),
        }
    }
}

/// One benchmark query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadQuery {
    /// Short name (e.g. `q3`, `vwap`).
    pub name: &'static str,
    /// Workload family.
    pub family: Family,
    /// SQL text.
    pub sql: &'static str,
    /// Number of relation atoms joined in the outer query (Figure 2, column "T").
    pub tables: usize,
    /// Nesting depth (Figure 2, column "Nst.").
    pub nesting: usize,
    /// Does the query have a GROUP BY clause?
    pub group_by: bool,
    /// Does the query contain inequality joins or inequality-correlated subqueries?
    pub has_inequality: bool,
}

/// The full query set.
pub fn all_queries() -> Vec<WorkloadQuery> {
    vec![
        // ------------------------------------------------------------------ TPC-H
        WorkloadQuery {
            name: "q1",
            family: Family::Tpch,
            sql: "SELECT returnflag, SUM(quantity) AS sum_qty, SUM(extendedprice) AS sum_base_price, \
                  SUM(extendedprice * (1 - discount)) AS sum_disc_price, AVG(quantity) AS avg_qty, \
                  COUNT(*) AS count_order \
                  FROM Lineitem WHERE shipdate <= DATE('1998-09-01') GROUP BY returnflag",
            tables: 1,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q3",
            family: Family::Tpch,
            sql: "SELECT o.orderkey, SUM(l.extendedprice * (1 - l.discount)) AS revenue \
                  FROM Customer c, Orders o, Lineitem l \
                  WHERE c.mktsegment = 'BUILDING' AND o.custkey = c.custkey AND l.orderkey = o.orderkey \
                  AND o.orderdate < DATE('1995-03-15') AND l.shipdate > DATE('1995-03-15') \
                  GROUP BY o.orderkey",
            tables: 3,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q4",
            family: Family::Tpch,
            sql: "SELECT o.orderpriority, COUNT(*) AS order_count FROM Orders o \
                  WHERE o.orderdate >= DATE('1993-07-01') AND o.orderdate < DATE('1993-10-01') \
                  AND EXISTS (SELECT * FROM Lineitem l WHERE l.orderkey = o.orderkey AND l.shipdate > o.orderdate) \
                  GROUP BY o.orderpriority",
            tables: 1,
            nesting: 1,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q5",
            family: Family::Tpch,
            sql: "SELECT n.name, SUM(l.extendedprice * (1 - l.discount)) AS revenue \
                  FROM Customer c, Orders o, Lineitem l, Supplier s, Nation n, Region r \
                  WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey AND l.suppkey = s.suppkey \
                  AND c.nationkey = s.nationkey AND s.nationkey = n.nationkey AND n.regionkey = r.regionkey \
                  AND r.name = 'ASIA' AND o.orderdate >= DATE('1994-01-01') AND o.orderdate < DATE('1995-01-01') \
                  GROUP BY n.name",
            tables: 6,
            nesting: 0,
            group_by: true,
            has_inequality: false,
        },
        WorkloadQuery {
            name: "q6",
            family: Family::Tpch,
            sql: "SELECT SUM(l.extendedprice * l.discount) AS revenue FROM Lineitem l \
                  WHERE l.shipdate >= DATE('1994-01-01') AND l.shipdate < DATE('1995-01-01') \
                  AND (l.discount BETWEEN 0.05 AND 0.07) AND l.quantity < 24",
            tables: 1,
            nesting: 0,
            group_by: false,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q10",
            family: Family::Tpch,
            sql: "SELECT c.custkey, SUM(l.extendedprice * (1 - l.discount)) AS revenue \
                  FROM Customer c, Orders o, Lineitem l, Nation n \
                  WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey \
                  AND o.orderdate >= DATE('1993-10-01') AND o.orderdate < DATE('1994-01-01') \
                  AND l.returnflag = 'R' AND c.nationkey = n.nationkey \
                  GROUP BY c.custkey",
            tables: 4,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q11a",
            family: Family::Tpch,
            sql: "SELECT ps.partkey, SUM(ps.supplycost * ps.availqty) AS query11a \
                  FROM Partsupp ps, Supplier s WHERE ps.suppkey = s.suppkey GROUP BY ps.partkey",
            tables: 2,
            nesting: 0,
            group_by: true,
            has_inequality: false,
        },
        WorkloadQuery {
            name: "q12",
            family: Family::Tpch,
            sql: "SELECT l.returnflag, SUM(CASE WHEN o.orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count \
                  FROM Orders o, Lineitem l \
                  WHERE o.orderkey = l.orderkey AND l.shipdate >= DATE('1994-01-01') AND l.shipdate < DATE('1995-01-01') \
                  GROUP BY l.returnflag",
            tables: 2,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q17a",
            family: Family::Tpch,
            sql: "SELECT SUM(l.extendedprice) AS query17a FROM Lineitem l, Part p \
                  WHERE p.partkey = l.partkey AND l.quantity < 0.005 * \
                  (SELECT SUM(l2.quantity) FROM Lineitem l2 WHERE l2.partkey = p.partkey)",
            tables: 2,
            nesting: 1,
            group_by: false,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q18a",
            family: Family::Tpch,
            sql: "SELECT c.custkey, SUM(l1.quantity) AS query18a \
                  FROM Customer c, Orders o, Lineitem l1 \
                  WHERE 100 < (SELECT SUM(l3.quantity) FROM Lineitem l3 WHERE l1.orderkey = l3.orderkey) \
                  AND c.custkey = o.custkey AND o.orderkey = l1.orderkey \
                  GROUP BY c.custkey",
            tables: 3,
            nesting: 1,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "q22a",
            family: Family::Tpch,
            sql: "SELECT c1.nationkey, SUM(c1.acctbal) AS query22a FROM Customer c1 \
                  WHERE c1.acctbal < (SELECT SUM(c2.acctbal) FROM Customer c2 WHERE c2.acctbal > 0) \
                  AND 0 = (SELECT SUM(1) FROM Orders o WHERE o.custkey = c1.custkey) \
                  GROUP BY c1.nationkey",
            tables: 1,
            nesting: 1,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "ssb4",
            family: Family::Tpch,
            sql: "SELECT n.regionkey, SUM(l.quantity) AS total \
                  FROM Customer c, Orders o, Lineitem l, Supplier s, Nation n \
                  WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey AND s.suppkey = l.suppkey \
                  AND o.orderdate >= DATE('1997-01-01') AND o.orderdate < DATE('1998-01-01') \
                  AND n.nationkey = s.nationkey \
                  GROUP BY n.regionkey",
            tables: 5,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        // ---------------------------------------------------------------- Finance
        WorkloadQuery {
            name: "vwap",
            family: Family::Finance,
            sql: "SELECT SUM(b1.price * b1.volume) AS vwap FROM Bids b1 \
                  WHERE 0.25 * (SELECT SUM(b3.volume) FROM Bids b3) > \
                  (SELECT SUM(b2.volume) FROM Bids b2 WHERE b2.price > b1.price)",
            tables: 1,
            nesting: 1,
            group_by: false,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "axf",
            family: Family::Finance,
            sql: "SELECT b.broker_id, SUM(a.volume - b.volume) AS axf FROM Bids b, Asks a \
                  WHERE b.broker_id = a.broker_id \
                  AND (a.price - b.price > 1000 OR b.price - a.price > 1000) \
                  GROUP BY b.broker_id",
            tables: 2,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "bsp",
            family: Family::Finance,
            sql: "SELECT x.broker_id, SUM(x.volume * x.price - y.volume * y.price) AS bsp \
                  FROM Bids x, Bids y WHERE x.broker_id = y.broker_id AND x.t > y.t \
                  GROUP BY x.broker_id",
            tables: 2,
            nesting: 0,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "bsv",
            family: Family::Finance,
            sql: "SELECT x.broker_id, SUM(x.volume * x.price * y.volume * y.price * 0.5) AS bsv \
                  FROM Bids x, Bids y WHERE x.broker_id = y.broker_id GROUP BY x.broker_id",
            tables: 2,
            nesting: 0,
            group_by: true,
            has_inequality: false,
        },
        WorkloadQuery {
            name: "mst",
            family: Family::Finance,
            sql: "SELECT b.broker_id, SUM(a.price * a.volume - b.price * b.volume) AS mst \
                  FROM Bids b, Asks a \
                  WHERE 0.25 * (SELECT SUM(a1.volume) FROM Asks a1) > \
                        (SELECT SUM(a2.volume) FROM Asks a2 WHERE a2.price > a.price) \
                  AND 0.25 * (SELECT SUM(b1.volume) FROM Bids b1) > \
                        (SELECT SUM(b2.volume) FROM Bids b2 WHERE b2.price > b.price) \
                  GROUP BY b.broker_id",
            tables: 2,
            nesting: 1,
            group_by: true,
            has_inequality: true,
        },
        WorkloadQuery {
            name: "psp",
            family: Family::Finance,
            sql: "SELECT SUM(a.price - b.price) AS psp FROM Bids b, Asks a \
                  WHERE b.volume > 0.0001 * (SELECT SUM(b1.volume) FROM Bids b1) \
                  AND a.volume > 0.0001 * (SELECT SUM(a1.volume) FROM Asks a1)",
            tables: 2,
            nesting: 1,
            group_by: false,
            has_inequality: true,
        },
        // -------------------------------------------------------------- Scientific
        WorkloadQuery {
            name: "mddb1",
            family: Family::Scientific,
            sql: "SELECT p.t, SUM((p.x - p2.x) * (p.x - p2.x) + (p.y - p2.y) * (p.y - p2.y) + (p.z - p2.z) * (p.z - p2.z)) AS rdf \
                  FROM AtomPositions p, AtomMeta m, AtomPositions p2, AtomMeta m2 \
                  WHERE p.trj_id = p2.trj_id AND p.t = p2.t \
                  AND p.atom_id = m.atom_id AND p2.atom_id = m2.atom_id \
                  AND m.residue_name = 'LYS' AND m2.residue_name = 'TIP3' \
                  GROUP BY p.t",
            tables: 4,
            nesting: 0,
            group_by: true,
            has_inequality: false,
        },
    ]
}

/// Look up a query by name.
pub fn query(name: &str) -> Option<WorkloadQuery> {
    all_queries().into_iter().find(|q| q.name == name)
}

/// Queries of one family.
pub fn queries_of(family: Family) -> Vec<WorkloadQuery> {
    all_queries()
        .into_iter()
        .filter(|q| q.family == family)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::full_catalog;
    use dbtoaster_sql::{parse_query, translate};

    #[test]
    fn the_query_set_covers_every_family() {
        let all = all_queries();
        assert!(all.len() >= 18);
        assert!(!queries_of(Family::Tpch).is_empty());
        assert!(!queries_of(Family::Finance).is_empty());
        assert!(!queries_of(Family::Scientific).is_empty());
        assert!(query("q17a").is_some());
        assert!(query("nonexistent").is_none());
    }

    #[test]
    fn every_query_parses_and_translates() {
        let catalog = full_catalog();
        for q in all_queries() {
            let parsed =
                parse_query(q.sql).unwrap_or_else(|e| panic!("{}: parse error {e}", q.name));
            let translated = translate(q.name, &parsed, &catalog)
                .unwrap_or_else(|e| panic!("{}: translation error {e}", q.name));
            assert!(!translated.views.is_empty(), "{} produced no views", q.name);
            // The recorded nesting depth matches the parsed structure.
            assert_eq!(parsed.nesting_depth(), q.nesting, "{} nesting", q.name);
            assert_eq!(
                !parsed.group_by.is_empty(),
                q.group_by,
                "{} group-by",
                q.name
            );
        }
    }
}
