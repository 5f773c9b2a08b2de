//! The one generator, driver and pair of oracles behind the root equivalence
//! suites.
//!
//! The contract the paper implies is that every maintained map equals its
//! definition recomputed from the base relations, for any update stream and
//! every compile mode; and (DBSP) that a view is the integral of its delta
//! stream, so every way of cutting the stream into batches or recovery
//! replays integrates to the same map. Three pieces check it:
//!
//! * [`gen`]: `case(seed)` builds a program over `R(A,B)`, `S(B,C)` and the
//!   static `T(C,D)` — one to three generated queries or a hand-assembled
//!   trigger program — and a stream, deterministically from the seed;
//! * [`drive`]: `check(case, points)` runs a case at points of the execution
//!   lattice, with the work oracle, and shrinks a failure to a
//!   `common::replay(…)` line;
//! * this module: the values oracle [`Recompute`] and the map comparison.
//!
//! The module is compiled into every root test binary; each uses part of it.
#![allow(dead_code)]

pub mod drive;
pub mod gen;

/// One test per bundled workload query set, `test: [queries], events, modes;`,
/// each checked over its dataset at the calling file's `SEED`.
#[allow(unused_macros)]
macro_rules! workload_tests {
    ($($(#[$doc:meta])* $test:ident: $names:expr, $events:expr, $modes:expr;)*) => {$(
        $(#[$doc])*
        #[test]
        fn $test() {
            common::check_workload(&$names, $events, SEED, &$modes);
        }
    )*};
}

pub use drive::*;
pub use gen::*;

use dbtoaster::agca::{eval, Bindings, Expr, MemSource, UpdateEvent};
use dbtoaster::compiler::{Catalog, QuerySpec, TriggerProgram};
use dbtoaster::gmr::{Gmr, Schema, Value};
use std::cell::RefCell;
use std::collections::HashMap;

/// The relative tolerance on float data. Batches and the oracle add the same
/// terms in different orders, and float addition is not associative; on
/// integer (and dyadic) data every order is exact.
pub const FLOAT_EPS: f64 = 1e-9;

/// A reader of a program's views: an engine's or a snapshot's.
pub type Views<'a> = &'a dyn Fn(&str) -> Option<Gmr>;

/// The tolerance per view name.
pub type Eps<'a> = &'a dyn Fn(&str) -> f64;

/// The values oracle: the final base relations of a stream, to re-evaluate
/// every map's definition over with `agca::eval`. A `MemSource` has no
/// indexes and the evaluator shares no code with the compiled kernels, so the
/// oracle is independent of the store and the executor it checks.
pub struct Recompute {
    src: MemSource,
    /// Recomputed definitions by their AGCA text: the modes of one case share
    /// most of them, the query results always.
    cache: RefCell<HashMap<String, Gmr>>,
}

impl Recompute {
    /// Every relation of `catalog` (empty unless written), the static
    /// `tables` (each row once) and the net effect of `events`.
    pub fn new(catalog: &Catalog, tables: &Tables, events: &[UpdateEvent]) -> Self {
        let mut src = MemSource::new();
        for r in catalog.relations() {
            src.set_relation(r.name.clone(), Gmr::new(Schema::new(r.columns.clone())));
        }
        for (table, rows) in tables {
            rows.iter()
                .for_each(|r| src.apply_update(table, r.clone(), 1.0));
        }
        for e in events {
            src.apply_update(&e.relation, e.tuple.clone(), e.sign.multiplier());
        }
        let cache = RefCell::new(HashMap::new());
        Recompute { src, cache }
    }

    /// Assert that `view` holds every map of `program` equal to its
    /// recomputed definition, within relative `eps`, and every stored
    /// relation and static table equal to the net stream and the loaded
    /// rows, bit for bit. A hand-assembled map whose definition is the zero
    /// expression has none and is skipped.
    pub fn check(&self, ctx: &str, program: &TriggerProgram, view: Views, eps: f64) {
        for m in program.maps.iter().filter(|m| !m.definition.is_zero()) {
            let got = view(&m.name).unwrap_or_else(|| panic!("{ctx}: no map {}", m.name));
            let grouped = Expr::agg_sum(m.out_vars.clone(), m.definition.clone());
            let want = self.recomputed(ctx, &m.name, &grouped);
            let diff = differ(&m.name, &want, &got, eps);
            assert!(diff.is_none(), "{ctx}: recomputed: {}", diff.unwrap());
        }
        let (stored, tables) = (&program.stored_relations, &program.static_tables);
        for name in stored.iter().chain(tables) {
            let want = self.src.relation(name).expect("a catalog relation");
            let got = view(name).unwrap_or_else(|| panic!("{ctx}: no relation {name}"));
            let diff = differ(name, want, &got, 0.0);
            assert!(diff.is_none(), "{ctx}: net stream: {}", diff.unwrap());
        }
    }
}

impl Recompute {
    /// Assert that `result` reads every result of `program` under the
    /// columns its own query names: for a query merged into another's map,
    /// its definition in `queries` recomputed, else its map's (as
    /// [`Recompute::check`] has it), within relative `eps`.
    pub fn check_results(
        &self,
        ctx: &str,
        program: &TriggerProgram,
        queries: &[QuerySpec],
        result: Views,
        eps: f64,
    ) {
        for r in &program.results {
            let got = result(&r.name).unwrap_or_else(|| panic!("{ctx}: no result {}", r.name));
            let columns = got.schema().columns();
            assert_eq!(columns, r.out_vars, "{ctx}: the columns of {}", r.name);
            let query = queries.iter().find(|q| q.name == r.name && r.map != r.name);
            let grouped = match query {
                Some(q) => Expr::agg_sum(q.out_vars.clone(), q.expr.clone()),
                None => {
                    let m = program.maps.iter().find(|m| m.name == r.map);
                    let m = m.unwrap_or_else(|| panic!("{ctx}: no map {}", r.map));
                    Expr::agg_sum(m.out_vars.clone(), m.definition.clone())
                }
            };
            let want = self.recomputed(ctx, &r.name, &grouped);
            let want = want.renamed(Schema::new(r.out_vars.clone()));
            let diff = differ(&r.name, &want, &got, eps);
            assert!(diff.is_none(), "{ctx}: recomputed: {}", diff.unwrap());
        }
    }

    /// `grouped` evaluated over the final relations, once per text.
    fn recomputed(&self, ctx: &str, name: &str, grouped: &Expr) -> Gmr {
        let mut cache = self.cache.borrow_mut();
        let want = cache.entry(grouped.to_string()).or_insert_with(|| {
            let evaluate = |e: &Expr| eval(e, &self.src, &Bindings::new());
            let evaluated = evaluate(grouped).or_else(|_| evaluate(&atoms_first(grouped)));
            evaluated.unwrap_or_else(|e| panic!("{ctx}: recomputing {name}: {e}"))
        });
        want.clone()
    }
}

/// `e` with each product's relation atoms moved to its front, for a
/// definition that does not evaluate as written: the evaluator binds
/// variables left to right, and a compiled map's definition may compare a
/// variable before the atom that binds it. A join commutes, and a lift of a
/// variable an atom already bound is an equality test, so the value is the
/// same; the written order stays the first try because it filters early.
fn atoms_first(e: &Expr) -> Expr {
    match e.map_children(&mut atoms_first) {
        Expr::Mul(factors) => {
            let (atoms, rest): (Vec<Expr>, Vec<Expr>) =
                factors.into_iter().partition(|f| matches!(f, Expr::Rel(_)));
            Expr::Mul(atoms.into_iter().chain(rest).collect())
        }
        other => other,
    }
}

/// The first key where `got` differs from `want`, an absent key reading as
/// zero: in any bit when `eps` is 0 (`-0.0` matching `0.0` and NaN matching
/// NaN, as `Value` equality has them), else beyond `eps` relative.
fn differ(name: &str, want: &Gmr, got: &Gmr, eps: f64) -> Option<String> {
    let same = got.schema() == want.schema() || !got.schema().same_columns(want.schema());
    let reordered = (!same).then(|| got.reorder(want.schema()));
    let got = reordered.as_ref().unwrap_or(got);
    let near = |w: f64, g: f64| eps > 0.0 && (g - w).abs() <= eps * 1f64.max(g.abs()).max(w.abs());
    let off = |w: f64, g: f64| Value::numeric_bits(w) != Value::numeric_bits(g) && !near(w, g);
    let keys = want.iter().chain(got.iter());
    let mut keys = keys.map(|(k, _)| (k, want.get(k), got.get(k)));
    let (key, w, g) = keys.find(|&(_, w, g)| off(w, g))?;
    let why = match eps > 0.0 {
        true => format!("beyond {eps} relative; float data summed in another order may drift"),
        false => "exact data: every summation order gives the same bits".into(),
    };
    let key = key.as_slice();
    Some(format!("{name}{key:?} = {g}, expected {w} ({why})"))
}

/// Every map, stored relation and static table `program` declares.
pub fn view_names(program: &TriggerProgram) -> Vec<String> {
    let (stored, tables) = (&program.stored_relations, &program.static_tables);
    let maps = program.maps.iter().map(|m| &m.name);
    let mut names: Vec<String> = maps.chain(stored).chain(tables).cloned().collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// The first of `program`'s views where two readers disagree (beyond
/// `eps(name)`), or that only one of them holds.
pub fn views_differ(program: &TriggerProgram, want: Views, got: Views, eps: Eps) -> Option<String> {
    let differs = |name: String| match (want(&name), got(&name)) {
        (Some(w), Some(g)) => differ(&name, &w, &g, eps(&name)),
        (None, None) => None,
        _ => Some(format!("{name} held by one side only")),
    };
    view_names(program).into_iter().find_map(differs)
}

/// Assert two readers of `program`'s views agree on every name, within
/// `eps(name)`, and hold the same names.
pub fn assert_views(ctx: &str, program: &TriggerProgram, want: Views, got: Views, eps: Eps) {
    if let Some(diff) = views_differ(program, want, got, eps) {
        panic!("{ctx}: {diff}");
    }
}
