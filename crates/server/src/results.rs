//! Query-result assembly shared by the single-threaded engine facade and the
//! concurrent reader handles.
//!
//! A SQL query's user-visible result is assembled from one or more maintained
//! views (group-by keys, aggregate views, `AVG` as SUM/COUNT). The assembly
//! logic is independent of *where* the views come from — the live engine or an
//! immutable published snapshot — so it takes a view-lookup closure.

use dbtoaster_gmr::{FastSet, Gmr, Tuple, Value};
use dbtoaster_sql::OutputColumn;
use std::collections::HashMap;

/// One row of a query result: the group-by key followed by the aggregate values.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Group-by key values (empty for scalar queries).
    pub key: Vec<Value>,
    /// Aggregate values, in select-list order.
    pub values: Vec<f64>,
}

/// A materialized snapshot of a query result.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultTable {
    /// Column names: group-by columns followed by aggregate columns.
    pub columns: Vec<String>,
    /// Result rows (unordered).
    pub rows: Vec<ResultRow>,
}

impl ResultTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single scalar value of a grand-total query (first aggregate of the only row),
    /// or 0.0 when the result is empty.
    pub fn scalar(&self) -> f64 {
        self.rows
            .first()
            .and_then(|r| r.values.first())
            .copied()
            .unwrap_or(0.0)
    }
}

/// The maintained views an output column reads: none for a group-by column,
/// one for an aggregate, the sum and the count view for an `AVG`.
pub(crate) fn views_read(out: &OutputColumn) -> impl Iterator<Item = &str> {
    let (first, second) = match out {
        OutputColumn::GroupBy { .. } => (None, None),
        OutputColumn::Aggregate { view, .. } => (Some(view), None),
        OutputColumn::Average {
            sum_view,
            count_view,
            ..
        } => (Some(sum_view), Some(count_view)),
    };
    first.into_iter().chain(second).map(String::as_str)
}

/// Assemble the result table of one query from its output-column plan.
///
/// `lookup` resolves a maintained view by name (from the live engine or from a
/// snapshot); returning `None` aborts with the missing view's name.
pub fn assemble_result(
    outputs: &[OutputColumn],
    group_by: &[String],
    lookup: &mut dyn FnMut(&str) -> Option<Gmr>,
) -> Result<ResultTable, String> {
    let mut columns: Vec<String> = Vec::new();
    for out in outputs {
        match out {
            OutputColumn::GroupBy { column, .. } => columns.push(column.clone()),
            OutputColumn::Aggregate { column, .. } => columns.push(column.clone()),
            OutputColumn::Average { column, .. } => columns.push(column.clone()),
        }
    }

    // Collect every key that appears in any aggregate view (set-deduplicated;
    // this runs on the concurrent reader polling path).
    let mut keys: Vec<Tuple> = Vec::new();
    let mut seen: FastSet<Tuple> = FastSet::default();
    let mut view_snapshots: HashMap<String, Gmr> = HashMap::new();
    for out in outputs {
        for name in views_read(out) {
            if view_snapshots.contains_key(name) {
                continue;
            }
            let snapshot = lookup(name).ok_or_else(|| name.to_string())?;
            for (t, _) in snapshot.iter() {
                if seen.insert(t.clone()) {
                    keys.push(t.clone());
                }
            }
            view_snapshots.insert(name.to_string(), snapshot);
        }
    }
    if keys.is_empty() && group_by.is_empty() {
        keys.push(Tuple::new());
    }

    let mut rows = Vec::with_capacity(keys.len());
    for key in keys {
        let mut values = Vec::new();
        for out in outputs {
            match out {
                OutputColumn::GroupBy { .. } => {
                    // Rendered as part of the key; nothing to push here.
                }
                OutputColumn::Aggregate { view, .. } => {
                    values.push(view_snapshots[view.as_str()].get(&key));
                }
                OutputColumn::Average {
                    sum_view,
                    count_view,
                    ..
                } => {
                    let s = view_snapshots[sum_view.as_str()].get(&key);
                    let c = view_snapshots[count_view.as_str()].get(&key);
                    values.push(if c == 0.0 { 0.0 } else { s / c });
                }
            }
        }
        rows.push(ResultRow {
            key: key.to_vec(),
            values,
        });
    }
    Ok(ResultTable { columns, rows })
}
