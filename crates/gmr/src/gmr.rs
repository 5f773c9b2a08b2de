//! The [`Gmr`] collection type and its ring operations.
//!
//! A GMR maps tuples to multiplicities and is non-zero on finitely many tuples. The two
//! ring operations are generalized union ([`Gmr::add_gmr`], tuple-wise addition of
//! multiplicities) and natural join ([`Gmr::join`], multiplication of multiplicities of
//! join-compatible tuples). Group-by summation ([`Gmr::agg_sum`]) is the
//! multiplicity-preserving projection `Sum_A` of the paper.
//!
//! Multiplicities are `f64` at runtime; exactly-zero entries are removed eagerly so that
//! an insertion followed by the corresponding deletion restores the original GMR.
//!
//! ## Snapshot sharing
//!
//! A GMR's tuple map has two representations: **owned** (a plain [`FastMap`],
//! the working form — mutation has zero synchronization overhead) and
//! **shared** (an `Arc`'d map produced by [`Gmr::from_shared`], the form the
//! runtime's view store hands out as point-in-time snapshots). Cloning a
//! shared GMR is a reference-count bump; mutating one first copies it out to
//! an owned map (copy-on-write). This keeps the single-threaded evaluation
//! hot path free of atomics while making the serving layer's epoch-published
//! snapshots O(1) to clone and immutable by construction.

use crate::hash::{fast_map_with_capacity, FastMap, FastSet};
use crate::schema::Schema;
use crate::tuple::{self, Tuple};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Owned-or-shared tuple map (see the module docs on snapshot sharing).
#[derive(Clone, Debug)]
enum MapRepr {
    Owned(FastMap<Tuple, f64>),
    Shared(Arc<FastMap<Tuple, f64>>),
}

impl Default for MapRepr {
    fn default() -> Self {
        MapRepr::Owned(FastMap::default())
    }
}

impl MapRepr {
    #[inline]
    fn map(&self) -> &FastMap<Tuple, f64> {
        match self {
            MapRepr::Owned(m) => m,
            MapRepr::Shared(a) => a,
        }
    }

    /// Mutable access, copying a shared map out to an owned one first.
    #[inline]
    fn make_owned(&mut self) -> &mut FastMap<Tuple, f64> {
        if let MapRepr::Shared(a) = self {
            *self = MapRepr::Owned((**a).clone());
        }
        match self {
            MapRepr::Owned(m) => m,
            MapRepr::Shared(_) => unreachable!("converted to owned above"),
        }
    }
}

/// A generalized multiset relation: a finite map from tuples to `f64` multiplicities.
///
/// Keys are [`Tuple`]s (inline up to arity `INLINE_CAP` (3)) in a [`FastMap`], so single-tuple
/// updates and probes are one cheap hash away and never clone key vectors. Snapshot
/// GMRs ([`Gmr::from_shared`]) share their map and are O(1) to clone.
#[derive(Clone, Debug, Default)]
pub struct Gmr {
    schema: Schema,
    data: MapRepr,
}

impl Gmr {
    /// An empty GMR with the given schema.
    pub fn new(schema: Schema) -> Self {
        Gmr {
            schema,
            data: MapRepr::default(),
        }
    }

    /// An empty GMR with the given schema and pre-allocated capacity.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        Gmr {
            schema,
            data: MapRepr::Owned(fast_map_with_capacity(capacity)),
        }
    }

    /// A GMR over an existing shared tuple map (O(1); no copy). This is how the
    /// runtime's view store exposes point-in-time snapshots.
    pub fn from_shared(schema: Schema, data: Arc<FastMap<Tuple, f64>>) -> Self {
        Gmr {
            schema,
            data: MapRepr::Shared(data),
        }
    }

    /// The shared tuple map backing a snapshot GMR, or `None` for an owned
    /// (working) GMR.
    pub fn shared_data(&self) -> Option<&Arc<FastMap<Tuple, f64>>> {
        match &self.data {
            MapRepr::Shared(a) => Some(a),
            MapRepr::Owned(_) => None,
        }
    }

    /// The nullary scalar GMR `{<> -> mult}` (the representation of a constant).
    pub fn scalar(mult: f64) -> Self {
        let mut g = Gmr::new(Schema::empty());
        g.add_tuple(tuple::empty(), mult);
        g
    }

    /// A singleton GMR `{t -> mult}`.
    pub fn singleton(schema: Schema, t: impl Into<Tuple>, mult: f64) -> Self {
        let mut g = Gmr::new(schema);
        g.add_tuple(t, mult);
        g
    }

    /// The GMR's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples with non-zero multiplicity.
    pub fn len(&self) -> usize {
        self.data.map().len()
    }

    /// Is the GMR empty (the zero of the ring)?
    pub fn is_empty(&self) -> bool {
        self.data.map().is_empty()
    }

    /// Multiplicity of a tuple (0.0 if absent).
    pub fn get(&self, t: &[Value]) -> f64 {
        self.data.map().get(t).copied().unwrap_or(0.0)
    }

    /// The multiplicity of the empty tuple — the "value" of a scalar GMR.
    pub fn scalar_value(&self) -> f64 {
        self.get(&[])
    }

    /// Iterate over `(tuple, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.data.map().iter().map(|(t, &m)| (t, m))
    }

    /// Add `mult` to the multiplicity of `t`, removing the entry if it becomes zero.
    pub fn add_tuple(&mut self, t: impl Into<Tuple>, mult: f64) {
        if mult == 0.0 {
            return;
        }
        let t = t.into();
        debug_assert_eq!(
            t.len(),
            self.schema.arity(),
            "tuple arity {} does not match schema {}",
            t.len(),
            self.schema
        );
        let entry = self.data.make_owned().entry(t);
        match entry {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let v = o.get_mut();
                *v += mult;
                if *v == 0.0 {
                    o.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(mult);
            }
        }
    }

    /// Generalized union: tuple-wise addition of multiplicities. The other GMR's columns
    /// must be the same set as this one's (order may differ; tuples are reordered).
    pub fn add_gmr(&mut self, other: &Gmr) {
        if other.is_empty() {
            return;
        }
        assert!(
            self.schema.same_columns(other.schema()) || self.is_empty(),
            "cannot union schemas {} and {}",
            self.schema,
            other.schema
        );
        if self.is_empty() && !self.schema.same_columns(other.schema()) {
            // Adopt the other schema when we are the freshly created zero GMR.
            self.schema = other.schema.clone();
        }
        if self.schema == other.schema {
            for (t, m) in other.iter() {
                self.add_tuple(t.clone(), m);
            }
        } else {
            let positions: Vec<usize> = self
                .schema
                .columns()
                .iter()
                .map(|c| other.schema.index_of(c).expect("checked same columns"))
                .collect();
            for (t, m) in other.iter() {
                self.add_tuple(tuple::project(t, &positions), m);
            }
        }
    }

    /// Multiply every multiplicity by a constant.
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            // Never copy a shared map out just to clear it.
            self.data = MapRepr::default();
        } else if factor != 1.0 {
            for m in self.data.make_owned().values_mut() {
                *m *= factor;
            }
        }
    }

    /// The additive inverse `-R` (a "deletion" of R).
    pub fn negate(&self) -> Gmr {
        let mut out = self.clone();
        out.scale(-1.0);
        out
    }

    /// Natural join (the ring multiplication): tuples that agree on shared columns are
    /// concatenated and their multiplicities multiplied.
    pub fn join(&self, other: &Gmr) -> Gmr {
        let out_schema = self.schema.join(&other.schema);
        let shared = self.schema.shared_positions(&other.schema);
        let other_new: Vec<usize> = (0..other.schema.arity())
            .filter(|j| !shared.iter().any(|&(_, oj)| oj == *j))
            .collect();
        let mut out = Gmr::with_capacity(out_schema, self.len().min(other.len()));

        // Probe the smaller side against the larger side via a hash index on the shared
        // columns when there are shared columns; otherwise produce the full product.
        if shared.is_empty() {
            for (lt, lm) in self.iter() {
                for (rt, rm) in other.iter() {
                    let t: Tuple = lt
                        .iter()
                        .cloned()
                        .chain(other_new.iter().map(|&j| rt[j].clone()))
                        .collect();
                    out.add_tuple(t, lm * rm);
                }
            }
            return out;
        }

        let mut index: FastMap<Tuple, Vec<(&Tuple, f64)>> = fast_map_with_capacity(other.len());
        let other_shared: Vec<usize> = shared.iter().map(|&(_, j)| j).collect();
        for (rt, rm) in other.iter() {
            index
                .entry(tuple::project(rt, &other_shared))
                .or_default()
                .push((rt, rm));
        }
        let self_shared: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
        for (lt, lm) in self.iter() {
            let key = tuple::project(lt, &self_shared);
            if let Some(matches) = index.get(&key) {
                for (rt, rm) in matches {
                    let t: Tuple = lt
                        .iter()
                        .cloned()
                        .chain(other_new.iter().map(|&j| rt[j].clone()))
                        .collect();
                    out.add_tuple(t, lm * rm);
                }
            }
        }
        out
    }

    /// Group-by summation `Sum_A(Q)`: project onto `group_by` columns and sum the
    /// multiplicities of tuples that project to the same group.
    pub fn agg_sum(&self, group_by: &[String]) -> Gmr {
        let positions = self
            .schema
            .positions_of(group_by)
            .unwrap_or_else(|| panic!("group-by columns {group_by:?} not in {}", self.schema));
        let mut out = Gmr::with_capacity(Schema::new(group_by.iter().cloned()), self.len());
        for (t, m) in self.iter() {
            out.add_tuple(tuple::project(t, &positions), m);
        }
        out
    }

    /// Filter tuples by a predicate on (tuple, multiplicity).
    pub fn filter(&self, mut pred: impl FnMut(&[Value], f64) -> bool) -> Gmr {
        let mut out = Gmr::new(self.schema.clone());
        for (t, m) in self.iter() {
            if pred(t, m) {
                out.add_tuple(t.clone(), m);
            }
        }
        out
    }

    /// Map every multiplicity through a function (e.g. `Exists`: non-zero → 1).
    pub fn map_multiplicities(&self, mut f: impl FnMut(f64) -> f64) -> Gmr {
        let mut out = Gmr::new(self.schema.clone());
        for (t, m) in self.iter() {
            out.add_tuple(t.clone(), f(m));
        }
        out
    }

    /// Total number of heap bytes used by this GMR (approximate; used for the memory
    /// traces of Figures 8–10). Inline tuples cost only their map slot; spilled
    /// tuples add their shared value slab (counted once — slabs are not shared
    /// between entries in practice).
    pub fn approx_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<Value>();
        let per_entry = std::mem::size_of::<Tuple>() + std::mem::size_of::<f64>() + 16;
        self.data
            .map()
            .keys()
            .map(|t| {
                per_entry
                    + if t.is_inline() {
                        0
                    } else {
                        t.len() * per_value + 16
                    }
            })
            .sum()
    }

    /// The same GMR with its columns renamed, position by position, to
    /// `schema`'s (which must have as many): O(1) for a snapshot GMR, which
    /// keeps sharing its map.
    pub fn renamed(mut self, schema: Schema) -> Gmr {
        assert_eq!(
            self.schema.arity(),
            schema.arity(),
            "renaming {:?} to {:?}",
            self.schema.columns(),
            schema.columns()
        );
        self.schema = schema;
        self
    }

    /// Reorder the columns of this GMR to the given schema (must be the same column set).
    pub fn reorder(&self, target: &Schema) -> Gmr {
        assert!(
            self.schema.same_columns(target),
            "schema mismatch in reorder"
        );
        if &self.schema == target {
            return self.clone();
        }
        let positions: Vec<usize> = target
            .columns()
            .iter()
            .map(|c| self.schema.index_of(c).unwrap())
            .collect();
        let mut out = Gmr::with_capacity(target.clone(), self.len());
        for (t, m) in self.iter() {
            out.add_tuple(tuple::project(t, &positions), m);
        }
        out
    }

    /// Structural equality: same column set and same tuple→multiplicity mapping
    /// (up to column reordering and a small numeric tolerance).
    pub fn equivalent(&self, other: &Gmr, eps: f64) -> bool {
        if !self.schema.same_columns(&other.schema) {
            return self.is_empty() && other.is_empty();
        }
        // Reorder once when the column orders differ; borrow otherwise.
        let reordered;
        let other = if self.schema == other.schema {
            other
        } else {
            reordered = other.reorder(&self.schema);
            &reordered
        };
        // A length mismatch is not conclusive: entries may still agree within
        // eps of zero, so always do the full symmetric check.
        let mut keys: FastSet<&Tuple> = self.data.map().keys().collect();
        keys.extend(other.data.map().keys());
        keys.iter()
            .all(|k| (self.get(k) - other.get(k)).abs() <= eps)
    }
}

impl fmt::Display for Gmr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GMR{} {{", self.schema)?;
        let mut rows: Vec<String> = self
            .iter()
            .map(|(t, m)| {
                let vals: Vec<String> = t.iter().map(|v| v.to_string()).collect();
                format!("  <{}> -> {}", vals.join(", "), m)
            })
            .collect();
        rows.sort();
        for r in rows {
            writeln!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(cols: &[&str], rows: &[(&[i64], f64)]) -> Gmr {
        let mut g = Gmr::new(Schema::new(cols.iter().copied()));
        for (vals, m) in rows {
            let t: Tuple = vals.iter().map(|&v| Value::long(v)).collect();
            g.add_tuple(t, *m);
        }
        g
    }

    #[test]
    fn add_tuple_cancels_to_zero() {
        let mut g = Gmr::new(Schema::new(["a"]));
        g.add_tuple(vec![Value::long(1)], 2.0);
        g.add_tuple(vec![Value::long(1)], -2.0);
        assert!(g.is_empty());
    }

    #[test]
    fn union_is_tuplewise_addition() {
        let mut r = rel(&["a"], &[(&[1], 1.0), (&[2], 3.0)]);
        let s = rel(&["a"], &[(&[2], -1.0), (&[3], 5.0)]);
        r.add_gmr(&s);
        assert_eq!(r.get(&[Value::long(1)]), 1.0);
        assert_eq!(r.get(&[Value::long(2)]), 2.0);
        assert_eq!(r.get(&[Value::long(3)]), 5.0);
    }

    #[test]
    fn union_reorders_columns() {
        let mut r = rel(&["a", "b"], &[(&[1, 2], 1.0)]);
        let s = rel(&["b", "a"], &[(&[2, 1], 1.0)]);
        r.add_gmr(&s);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&[Value::long(1), Value::long(2)]), 2.0);
    }

    #[test]
    fn join_on_shared_column() {
        let r = rel(&["a", "b"], &[(&[1, 2], 2.0), (&[3, 5], 1.0)]);
        let s = rel(&["b", "c"], &[(&[2, 7], 3.0), (&[9, 9], 1.0)]);
        let j = r.join(&s);
        assert_eq!(j.schema().columns(), &["a", "b", "c"]);
        assert_eq!(j.len(), 1);
        assert_eq!(
            j.get(&[Value::long(1), Value::long(2), Value::long(7)]),
            6.0
        );
    }

    #[test]
    fn join_without_shared_columns_is_cross_product() {
        let r = rel(&["a"], &[(&[1], 1.0), (&[2], 1.0)]);
        let s = rel(&["b"], &[(&[10], 2.0)]);
        let j = r.join(&s);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(&[Value::long(1), Value::long(10)]), 2.0);
    }

    #[test]
    fn scalar_joins_scale() {
        let r = rel(&["a"], &[(&[1], 2.0)]);
        let c = Gmr::scalar(-1.0);
        let j = r.join(&c);
        assert_eq!(j.get(&[Value::long(1)]), -2.0);
        assert_eq!(j.schema().columns(), &["a"]);
    }

    #[test]
    fn agg_sum_projects_and_sums() {
        let r = rel(
            &["a", "b"],
            &[(&[1, 2], 7.0), (&[4, 2], 1.0), (&[3, 5], 2.0)],
        );
        let g = r.agg_sum(&["b".to_string()]);
        assert_eq!(g.get(&[Value::long(2)]), 8.0);
        assert_eq!(g.get(&[Value::long(5)]), 2.0);
        // Nullary aggregation gives the grand total.
        let total = r.agg_sum(&[]);
        assert_eq!(total.scalar_value(), 10.0);
    }

    #[test]
    fn negate_and_equivalent() {
        let r = rel(&["a"], &[(&[1], 2.0)]);
        let n = r.negate();
        assert_eq!(n.get(&[Value::long(1)]), -2.0);
        let mut z = r.clone();
        z.add_gmr(&n);
        assert!(z.is_empty());
        assert!(r.equivalent(&r.reorder(&Schema::new(["a"])), 0.0));
        assert!(!r.equivalent(&n, 0.0));
    }

    #[test]
    fn equivalent_ignores_column_order() {
        let r = rel(&["a", "b"], &[(&[1, 2], 1.0)]);
        let s = rel(&["b", "a"], &[(&[2, 1], 1.0)]);
        assert!(r.equivalent(&s, 0.0));
    }

    #[test]
    fn shared_snapshots_are_immutable_under_cow_mutation() {
        let owned = rel(&["a"], &[(&[1], 1.0), (&[2], 2.0)]);
        assert!(owned.shared_data().is_none(), "working GMRs are owned");
        let arc = Arc::new(owned.iter().map(|(t, m)| (t.clone(), m)).collect());
        let mut g = Gmr::from_shared(owned.schema().clone(), arc);
        let snapshot = g.clone(); // O(1): shares the Arc'd map
        assert!(Arc::ptr_eq(
            g.shared_data().unwrap(),
            snapshot.shared_data().unwrap()
        ));
        g.add_tuple(vec![Value::long(3)], 5.0);
        g.add_tuple(vec![Value::long(1)], -1.0);
        // The snapshot still sees the old state; the mutated GMR copied out.
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.get(&[Value::long(1)]), 1.0);
        assert_eq!(g.get(&[Value::long(1)]), 0.0);
        assert_eq!(g.get(&[Value::long(3)]), 5.0);
        assert!(g.shared_data().is_none(), "mutation copies out to owned");
    }

    #[test]
    fn approx_bytes_grows_with_contents() {
        let empty = Gmr::new(Schema::new(["a"]));
        let full = rel(&["a"], &[(&[1], 1.0), (&[2], 1.0)]);
        assert!(full.approx_bytes() > empty.approx_bytes());
    }
}
