//! The definition-recompute oracle shared by the root equivalence suites.
//!
//! The contract the paper implies is that every maintained map equals its
//! definition recomputed from the base relations. [`Recompute`] checks exactly
//! that: `agca::eval` of each [`MapDecl::definition`] over a [`MemSource`]
//! holding the static tables plus the net effect of the stream. A `MemSource`
//! has no indexes and the evaluator shares no code with the compiled kernels,
//! so the oracle is independent of the store and the executor it checks.
//!
//! [`MapDecl::definition`]: dbtoaster::compiler::MapDecl::definition

use dbtoaster::agca::{eval, Bindings, Expr, MemSource, UpdateEvent};
use dbtoaster::compiler::{Catalog, TriggerProgram};
use dbtoaster::gmr::{Gmr, Schema, Value};
use std::collections::HashMap;

/// The final base relations of a stream, ready to re-evaluate definitions over.
pub struct Recompute {
    src: MemSource,
}

impl Recompute {
    /// Every relation of `catalog` (empty unless written), the static
    /// `tables` (each row once) and the net effect of `events`.
    pub fn new(
        catalog: &Catalog,
        tables: &HashMap<String, Vec<Vec<Value>>>,
        events: &[UpdateEvent],
    ) -> Self {
        let mut src = MemSource::new();
        for r in catalog.relations() {
            src.set_relation(r.name.clone(), Gmr::new(Schema::new(r.columns.clone())));
        }
        for (name, rows) in tables {
            for row in rows {
                src.apply_update(name, row.clone(), 1.0);
            }
        }
        for e in events {
            src.apply_update(&e.relation, e.tuple.clone(), e.sign.multiplier());
        }
        Recompute { src }
    }

    /// Assert that every map of `program`, as `view` reads it, equals its
    /// recomputed definition key by key: within relative `rel_eps`, or
    /// bit-exactly with `rel_eps == 0` (NaN matching NaN, `-0.0` matching
    /// `0.0`). A key absent on either side reads as zero.
    pub fn check(
        &self,
        ctx: &str,
        program: &TriggerProgram,
        view: &dyn Fn(&str) -> Option<Gmr>,
        rel_eps: f64,
    ) {
        for m in &program.maps {
            let grouped = Expr::agg_sum(m.out_vars.clone(), m.definition.clone());
            let expected = eval(&grouped, &self.src, &Bindings::new())
                .unwrap_or_else(|e| panic!("{ctx}: recomputing {}: {e}", m.name));
            let got = view(&m.name).unwrap_or_else(|| panic!("{ctx}: no map {}", m.name));
            let expected = expected.reorder(got.schema());
            for (key, _) in got.iter().chain(expected.iter()) {
                let (g, e) = (got.get(key), expected.get(key));
                let scale = 1.0_f64.max(g.abs()).max(e.abs());
                assert!(
                    g == e || (g.is_nan() && e.is_nan()) || (g - e).abs() <= rel_eps * scale,
                    "{ctx}: map {} diverges from its recomputed definition at {key:?}: \
                     maintained {g} vs recomputed {e}",
                    m.name
                );
            }
        }
    }
}
