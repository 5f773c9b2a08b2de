//! The correctness gate: result tables compared key by key.

use crate::spec::REL_TOLERANCE;
use dbtoaster::gmr::{Gmr, Value};
use dbtoaster::{ResultRow, ResultTable};
use std::collections::HashMap;

/// What one comparison found.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    pub rows: usize,
    pub bit_exact: bool,
    /// Largest relative difference seen.
    pub max_rel_diff: f64,
}

/// A raw view as a result table: key columns, then the multiplicity.
pub fn table_of(name: &str, gmr: &Gmr) -> ResultTable {
    let mut columns: Vec<String> = gmr.schema().columns().to_vec();
    columns.push(name.to_string());
    ResultTable {
        columns,
        rows: gmr
            .iter()
            .map(|(t, m)| ResultRow {
                key: t.to_vec(),
                values: vec![m],
            })
            .collect(),
    }
}

fn by_key(t: &ResultTable) -> HashMap<&[Value], &[f64]> {
    t.rows
        .iter()
        .map(|r| (r.key.as_slice(), r.values.as_slice()))
        .collect()
}

/// Compare two result tables of one query. A key missing on one side counts
/// as all zeros there (an engine may or may not keep a group whose
/// aggregates cancelled to zero).
pub fn compare(what: &str, a: &ResultTable, b: &ResultTable) -> Result<Comparison, String> {
    let (ma, mb) = (by_key(a), by_key(b));
    let mut out = Comparison {
        rows: ma.len().max(mb.len()),
        bit_exact: true,
        max_rel_diff: 0.0,
    };
    let mut check = |key: &[Value], x: f64, y: f64| -> Result<(), String> {
        if x.to_bits() == y.to_bits() {
            return Ok(());
        }
        out.bit_exact = false;
        let rel = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
        out.max_rel_diff = out.max_rel_diff.max(rel);
        if rel <= REL_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "{what}: key {key:?}: {x} vs {y} (relative {rel:e})"
            ))
        }
    };
    for (key, va) in &ma {
        match mb.get(key) {
            Some(vb) if vb.len() == va.len() => {
                for (x, y) in va.iter().zip(vb.iter()) {
                    check(key, *x, *y)?;
                }
            }
            Some(vb) => return Err(format!("{what}: key {key:?}: {va:?} vs {vb:?}")),
            None => {
                for x in va.iter() {
                    check(key, *x, 0.0)?;
                }
            }
        }
    }
    for (key, vb) in &mb {
        if !ma.contains_key(key) {
            for y in vb.iter() {
                check(key, 0.0, *y)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(i64, f64)]) -> ResultTable {
        ResultTable {
            columns: vec!["k".into(), "v".into()],
            rows: rows
                .iter()
                .map(|(k, v)| ResultRow {
                    key: vec![Value::long(*k)],
                    values: vec![*v],
                })
                .collect(),
        }
    }

    #[test]
    fn order_and_zero_groups_do_not_matter() {
        let a = table(&[(1, 2.0), (2, 3.0), (3, 0.0)]);
        let b = table(&[(2, 3.0), (1, 2.0)]);
        let c = compare("t", &a, &b).unwrap();
        assert!(c.bit_exact);
    }

    #[test]
    fn tolerance_is_relative() {
        let a = table(&[(1, 1e12)]);
        let b = table(&[(1, 1e12 + 1.0)]);
        let c = compare("t", &a, &b).unwrap();
        assert!(!c.bit_exact && c.max_rel_diff > 0.0);
        assert!(compare("t", &a, &table(&[(1, 1.001e12)])).is_err());
        assert!(compare("t", &a, &table(&[(2, 1e12)])).is_err());
    }
}
