//! The case generator: programs, streams and lattice points, deterministic
//! in a seed.
//!
//! A generated [`Case`] runs over one catalog — streams `R(A,B)` and
//! `S(B,C)`, static table `T(C,D)` — and holds either one to three queries
//! that share relations in one program, or a hand-assembled trigger program.
//! Queries are built from a join skeleton (a [`Shape`]: equi-, self- and
//! inequality joins, the cubic and path chains, a three-way star) plus
//! decorations (group-by, comparison, weight, negation, a lifted nested
//! aggregate correlated or not, `EXISTS`, a static-table atom). Each case has
//! a [`Class`], computed from its atoms' variable sets.
//!
//! Streams draw from small integer domains with same-key cancellations. A
//! quarter of the generated cases draw from a hostile domain instead:
//! multiplicities beyond ±1, deletes before inserts, net-zero blocks, ints
//! past 2^53 in key-only columns beside the double 2^53 (so one key column
//! holds both kinds of number), 0.5 / −0.0 in weight columns no query
//! compares, −0.0 in compared columns and, in cases with a quantile filter,
//! NaN and ints past 2^53 in compared columns no query weighs, and a closing
//! block that leaves the filter's group holding a negative net multiplicity
//! (see [`plant_negative_quantile`]); a query weighted by one of its own
//! group-by columns (`Sum[B](R(A,B) * B)`, whose weight the compiler keeps
//! outside the maps it looks entries up in) may draw 0.5 and −0.0 there
//! ([`Case::weighs_a_group_by_column`]; the census finds it). One in ten
//! cases with a weight column carries one ill-typed event: a string in that
//! number column, or a tuple one value short. One in eight generated query
//! sets carries a [`Twin`] of its first query, a view the compiler merges
//! into the first query's map.

use dbtoaster::agca::opt::canonicalize;
use dbtoaster::agca::{CmpOp, Expr, UpdateEvent, UpdateSign};
use dbtoaster::compiler::{
    compile, BatchDeltaBail, Catalog, CompileMode, CompileOptions, MapDecl, QuerySpec,
    RelationMeta, Statement, StmtOp, Trigger, TriggerProgram,
};
use dbtoaster::gmr::{FastMap, Value};
use dbtoaster::workloads::{self, Dataset, Family};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;

/// splitmix64, forked per purpose so that, e.g., a longer stream does not
/// change a case's queries.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(seed ^ purpose.wrapping_mul(0xd134_2543_de82_ef95))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn percent(&mut self, p: usize) -> bool {
        self.below(100) < p
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// What a generated query is made of: a join skeleton, then decorations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Shape {
    /// `R(a,b)`.
    Single,
    /// `R(a,b) S(b,c)`.
    EquiJoin,
    /// `R(a,b) R(a2,b)`: quadratic in `R`, carried by the live pass.
    SelfJoin,
    /// `R(a,b) R(a2,b) S(b,c)`: its live pass reads another stream.
    ScaledSelfJoin,
    /// `R(a,b) R(a2,b2) (a < a2)`: an inequality self-join sharing no
    /// variable.
    Inequality,
    /// `R(a,b) R(b,c) R(c,d)`: maps keyed by trigger variables.
    CubicChain,
    /// `R(a,b) S(b,c) R(c,d)`.
    PathChain,
    /// `R(a,b) R(a2,b) R(a3,b)`: two run-written atoms in one product.
    Star,
    GroupBy,
    Comparison,
    Weight,
    Negation,
    /// A lifted aggregate over `S` sharing no variable with the query.
    Nested,
    /// A lifted aggregate over `S` grouped by a variable of the query.
    CorrelatedNested,
    /// `c × Σ S > Σ S above the loop key`: a band sum inside the loop
    /// compared with a share of the total, `vwap`'s quantile filter.
    Quantile,
    Exists,
    StaticTable,
}

use Shape::*;

/// Every shape: the join skeletons, then the decorations.
pub const SHAPES: [Shape; 17] = [
    Single,
    EquiJoin,
    SelfJoin,
    ScaledSelfJoin,
    Inequality,
    CubicChain,
    PathChain,
    Star,
    GroupBy,
    Comparison,
    Weight,
    Negation,
    Nested,
    CorrelatedNested,
    Quantile,
    Exists,
    StaticTable,
];

pub const SKELETONS: &[Shape] = SHAPES.split_at(8).0;

impl Shape {
    /// A skeleton's `(relation, variable, variable)` atoms.
    fn atoms(self) -> &'static [(&'static str, &'static str, &'static str)] {
        match self {
            Single => &[("R", "a", "b")],
            EquiJoin => &[("R", "a", "b"), ("S", "b", "c")],
            SelfJoin => &[("R", "a", "b"), ("R", "a2", "b")],
            ScaledSelfJoin => &[("R", "a", "b"), ("R", "a2", "b"), ("S", "b", "c")],
            Inequality => &[("R", "a", "b"), ("R", "a2", "b2")],
            CubicChain => &[("R", "a", "b"), ("R", "b", "c"), ("R", "c", "d")],
            PathChain => &[("R", "a", "b"), ("S", "b", "c"), ("R", "c", "d")],
            Star => &[("R", "a", "b"), ("R", "a2", "b"), ("R", "a3", "b")],
            _ => panic!("{self:?} decorates a skeleton"),
        }
    }

    /// The shape as a named query: a skeleton alone, a decoration on
    /// `R(a,b)`, its choices drawn at a fixed seed.
    pub fn query(self) -> QuerySpec {
        let name = format!("{self:?}").to_uppercase();
        let mut rng = Rng::new(0, 5);
        match SKELETONS.contains(&self) {
            true => build(name, self, &[], &mut rng),
            false => build(name, Single, &[self], &mut rng),
        }
    }
}

/// A query from a skeleton and decorations, in order; `rng` chooses the
/// variables, comparison operators and constants.
fn build(name: String, skeleton: Shape, decorations: &[Shape], rng: &mut Rng) -> QuerySpec {
    let mut factors: Vec<Expr> = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    for &(rel, x, y) in skeleton.atoms() {
        factors.push(Expr::rel(rel, [x, y]));
        for v in [x, y] {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    if skeleton == Inequality {
        factors.push(Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("a2")));
    }
    let mut out_vars = Vec::new();
    for &d in decorations {
        let v = rng.pick(&bound);
        match d {
            StaticTable => {
                factors.push(Expr::table("T", [v, "e"]));
                bound.push("e");
            }
            Comparison => {
                let op = rng.pick(&[CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Gt]);
                let right = match rng.percent(25) {
                    true => Expr::val(rng.below(5) as i64),
                    false => Expr::var(rng.pick(&bound)),
                };
                factors.push(Expr::cmp(op, Expr::var(v), right));
            }
            Weight => factors.push(Expr::var(v)),
            Negation => factors.push(Expr::neg(Expr::one())),
            Nested | CorrelatedNested => {
                let group = if d == Nested { vec![] } else { vec![v] };
                let key = group.first().copied().unwrap_or("nb");
                let inner = Expr::product_of([Expr::rel("S", [key, "nc"]), Expr::var("nc")]);
                factors.push(Expr::lift("z", Expr::agg_sum(group, inner)));
                let compared = Expr::var(rng.pick(&bound));
                factors.push(Expr::cmp(CmpOp::Lt, compared, Expr::var("z")));
            }
            Quantile => {
                let sum = |f: Vec<Expr>| Expr::agg_sum(Vec::<String>::new(), Expr::product_of(f));
                let total = sum(vec![Expr::rel("S", ["qb", "qc"]), Expr::var("qc")]);
                let above = Expr::cmp(CmpOp::Gt, Expr::var("qx"), Expr::var(v));
                let above = sum(vec![Expr::rel("S", ["qx", "qy"]), Expr::var("qy"), above]);
                let share = Expr::product_of([Expr::val(0.5), Expr::var("qt")]);
                factors.push(Expr::lift("qt", total));
                factors.push(Expr::lift("qa", above));
                factors.push(Expr::cmp(CmpOp::Gt, share, Expr::var("qa")));
            }
            Exists => {
                let inner = Expr::agg_sum([v], Expr::rel("S", [v, "xc"]));
                factors.push(Expr::exists(inner));
            }
            GroupBy => {
                out_vars.push(v.to_string());
                let w = rng.pick(&bound).to_string();
                if rng.percent(50) && w != v {
                    out_vars.push(w);
                }
            }
            _ => panic!("{d:?} is a skeleton"),
        }
    }
    QuerySpec {
        name,
        expr: Expr::agg_sum(out_vars.clone(), Expr::product_of(factors)),
        out_vars,
    }
}

/// A query named `Q` over no free variable.
pub fn scalar_query(factors: Vec<Expr>) -> QuerySpec {
    QuerySpec {
        name: "Q".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(Vec::<String>::new(), Expr::product_of(factors)),
    }
}

/// A random query: a skeleton, maybe a static-table atom, one of comparison,
/// weight, nested aggregate (correlated or not) or `EXISTS`, maybe a weight
/// and a negation, maybe a group-by over up to two bound variables, maybe a
/// quantile filter.
fn random_query(rng: &mut Rng, name: String) -> (QuerySpec, Vec<Shape>) {
    let skeleton = rng.pick(SKELETONS);
    let mut shapes = Vec::new();
    if rng.percent(20) {
        shapes.push(StaticTable);
    }
    // The three-atom skeletons are cubic to recompute: nothing nested there.
    // An inequality join with a correlated lift does not compile (see
    // `inequality_join_with_a_correlated_lift_compiles`).
    let light = !matches!(skeleton, ScaledSelfJoin | CubicChain | PathChain | Star);
    let correlated = skeleton != Inequality;
    let main = [
        Some(Comparison),
        Some(Weight),
        None,
        Some(Nested),
        correlated.then_some(CorrelatedNested),
        Some(Exists),
    ];
    shapes.extend(main[rng.below(if light { 6 } else { 3 })]);
    if !shapes.contains(&Weight) && rng.percent(25) {
        shapes.push(Weight);
    }
    if rng.percent(15) {
        shapes.push(Negation);
    }
    if rng.percent(45) {
        shapes.push(GroupBy);
    }
    // Drawn from a fork, so the queries without one stay what they were.
    if light && correlated && Rng::new(rng.0, 6).percent(15) {
        shapes.push(Quantile);
    }
    let q = build(name, skeleton, &shapes, rng);
    shapes.insert(0, skeleton);
    (q, shapes)
}

/// A query repeated under another name, which the compiler does not
/// materialize twice: the twin's result reads its original's map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Twin {
    /// The query again with every variable renamed, so its output columns
    /// are named differently.
    Renamed,
    /// An `AVG` over the query's own sum, as SQL translates one: the sum
    /// again under the average's name, and the count of the same rows.
    Average,
    /// Not a repeat: two sibling aggregates beside the query, shaped as
    /// TPC-H q1's `COUNT(*)` and `SUM(x)` by one group — `R(a,b) T(b,e)`
    /// over the static table `T`, grouped by `a`, counted and weighted by
    /// `a`. Their statements share their frame, so they fuse, and nothing
    /// reads or rewrites their maps: in every incremental mode they are one
    /// shared key table, which the interpreter's sink fills (the frame
    /// reads `T`).
    Siblings,
}

pub const TWINS: [Twin; 3] = [Twin::Renamed, Twin::Average, Twin::Siblings];

impl Twin {
    /// The queries that repeat `q`, named after `n` queries.
    fn of(self, q: &QuerySpec, n: usize) -> Vec<QuerySpec> {
        let named = |suffix: &str, expr: Expr, out_vars: Vec<String>| QuerySpec {
            name: format!("Q{n}{suffix}"),
            expr,
            out_vars,
        };
        match self {
            Twin::Renamed => {
                // A prefix keeps the variables' order, which the compiler's
                // rewrites may read.
                let vars = canonicalize(&q.expr).1.into_keys();
                let renamed: FastMap<String, String> =
                    vars.map(|v| (v.clone(), format!("t{v}"))).collect();
                let out_vars = q.out_vars.iter().map(|v| renamed[v].clone()).collect();
                vec![named("", q.expr.rename_vars(&renamed), out_vars)]
            }
            Twin::Average => {
                let Expr::AggSum(group, body) = &q.expr else {
                    unreachable!("a generated query is a sum")
                };
                let factors = match &**body {
                    Expr::Mul(factors) => factors.clone(),
                    other => vec![other.clone()],
                };
                let rows = factors.into_iter().filter(|f| !matches!(f, Expr::Var(_)));
                let count = Expr::agg_sum(group.clone(), Expr::product_of(rows));
                vec![
                    named("_avg_sum", q.expr.clone(), q.out_vars.clone()),
                    named("_avg_cnt", count, q.out_vars.clone()),
                ]
            }
            Twin::Siblings => {
                let rows = || [Expr::rel("R", ["sa", "sb"]), Expr::table("T", ["sb", "se"])];
                let group = vec!["sa".to_string()];
                let sum = |weight: Option<Expr>| {
                    let factors = rows().into_iter().chain(weight);
                    Expr::agg_sum(group.clone(), Expr::product_of(factors))
                };
                vec![
                    named("_cnt", sum(None), group.clone()),
                    named("_sum", sum(Some(Expr::var("sa"))), group.clone()),
                ]
            }
        }
    }
}

/// Olteanu's classes: q-hierarchical ⊂ hierarchical ⊂ all queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    QHierarchical,
    Hierarchical,
    NonHierarchical,
}

/// A query's class from its relation atoms (nested ones included): it is
/// hierarchical when any two variables' atom sets are nested or disjoint,
/// and q-hierarchical when, besides, a free variable's atom set is strictly
/// inside only free variables' sets.
pub fn class_of(q: &QuerySpec) -> Class {
    let atoms: Vec<Vec<String>> = q.expr.atoms().into_iter().map(|r| r.args).collect();
    let vars: BTreeSet<&String> = atoms.iter().flatten().collect();
    let of = |x: &String| -> BTreeSet<usize> {
        (0..atoms.len()).filter(|&i| atoms[i].contains(x)).collect()
    };
    let free = |v: &String| q.out_vars.contains(v);
    let mut class = Class::QHierarchical;
    for &x in &vars {
        for &y in &vars {
            let (ax, ay) = (of(x), of(y));
            if !(ax.is_subset(&ay) || ay.is_subset(&ax) || ax.is_disjoint(&ay)) {
                return Class::NonHierarchical;
            }
            if free(x) && !free(y) && ax.is_subset(&ay) && ax != ay {
                class = Class::Hierarchical;
            }
        }
    }
    class
}

/// A stream column of `R` or `S`, as (relation, position).
type Column = (&'static str, usize);

/// How the queries use the stream columns: only as keys (join, group-by and
/// correlation variables), as a weight (a value multiplied in) somewhere, as
/// a weight never compared, and in a comparison somewhere. A compared key
/// holding −0.0 or 0.0 compares as the one zero they are (see
/// `negative_zero_keys_compare_as_the_zero_they_equal`).
fn columns(specs: &[QuerySpec]) -> [Vec<Column>; 4] {
    fn uses(e: &Expr, in_cmp: bool, vars: &mut [BTreeSet<String>; 2]) {
        match e {
            Expr::Var(v) => drop(vars[in_cmp as usize].insert(v.clone())),
            Expr::Cmp(_, l, r) => [l, r].iter().for_each(|x| uses(x, true, vars)),
            Expr::Add(xs) | Expr::Mul(xs) | Expr::Apply(_, xs) => {
                xs.iter().for_each(|x| uses(x, in_cmp, vars))
            }
            Expr::Neg(x) | Expr::AggSum(_, x) | Expr::Lift(_, x) | Expr::Exists(x) => {
                uses(x, in_cmp, vars)
            }
            Expr::Const(_) | Expr::Rel(_) => {}
        }
    }
    let all = [("R", 0), ("R", 1), ("S", 0), ("S", 1)];
    let (mut key_only, mut used) = (all.to_vec(), [Vec::new(), Vec::new()]);
    for q in specs {
        let mut vars = [BTreeSet::new(), BTreeSet::new()];
        uses(&q.expr, false, &mut vars);
        for r in q.expr.atoms() {
            for (col, v) in r.args.iter().enumerate() {
                let Some(&c) = all.iter().find(|c| c.0 == r.name && c.1 == col) else {
                    continue;
                };
                for (vars, cols) in vars.iter().zip(&mut used) {
                    if vars.contains(v) {
                        key_only.retain(|k| *k != c);
                        cols.push(c);
                    }
                }
            }
        }
    }
    let [weights, compared] = used;
    let mut plain = weights.clone();
    plain.retain(|c| !compared.contains(c));
    [key_only, weights, plain, compared]
}

/// The values a stream draws.
#[derive(Clone, Default)]
struct Domain {
    /// Stream dynamics beyond insert/delete-a-live-tuple.
    hostile: bool,
    /// Columns whose values are shifted past 2^53, where `f64` cannot tell
    /// neighbouring keys apart, and that sometimes hold the double 2^53.
    big_keys: Vec<Column>,
    /// Columns that sometimes hold 0.5 or −0.0.
    odd_weights: Vec<Column>,
    /// Compared columns that sometimes hold −0.0.
    negative_zeros: Vec<Column>,
    /// Compared columns no query weighs that sometimes hold NaN or an int
    /// past 2^53: loop keys a quantile filter's per-row guards must catch.
    odd_keys: Vec<Column>,
    /// `B` is the event's index: no two inserts share a key.
    fresh_keys: bool,
}

impl Domain {
    fn tuple(&self, rng: &mut Rng, rel: &'static str, at: usize) -> Vec<Value> {
        let value = |col: usize, rng: &mut Rng| {
            let v = rng.below(5) as i64;
            if self.fresh_keys && col == 1 {
                Value::long(at as i64)
            } else if self.big_keys.contains(&(rel, col)) {
                match rng.percent(20) {
                    true => Value::double((1u64 << 53) as f64),
                    false => Value::long((1 << 53) + v),
                }
            } else if self.odd_weights.contains(&(rel, col)) && rng.percent(15) {
                Value::double(rng.pick(&[0.5, -0.0]))
            } else if self.odd_keys.contains(&(rel, col)) && rng.percent(10) {
                match rng.percent(50) {
                    true => Value::double(f64::NAN),
                    false => Value::long((1 << 53) + v),
                }
            } else if self.negative_zeros.contains(&(rel, col)) && rng.percent(15) {
                Value::double(-0.0)
            } else {
                Value::long(v)
            }
        };
        vec![value(0, rng), value(1, rng)]
    }
}

/// An insert/delete stream over `rels`: deletes take a live tuple, so
/// same-key cancellations are common; a hostile domain adds repeated
/// inserts, deletes of tuples inserted later, and net-zero blocks.
fn stream(rng: &mut Rng, rels: &[&'static str], len: usize, dom: &Domain) -> Vec<UpdateEvent> {
    use UpdateSign::{Delete, Insert};
    let (mut live, mut owed, mut out) = (Vec::new(), Vec::new(), Vec::new());
    while out.len() < len {
        let roll = rng.below(100);
        let rel = rng.pick(rels);
        let fresh = dom.tuple(rng, rel, out.len());
        let events: Vec<(UpdateSign, &str, Vec<Value>)> = match roll {
            0..=34 if !live.is_empty() => {
                let (rel, t) = live.swap_remove(rng.below(live.len()));
                vec![(Delete, rel, t)]
            }
            35..=42 if dom.hostile && !live.is_empty() => {
                let (rel, t): (&str, Vec<Value>) = live[rng.below(live.len())].clone();
                live.push((rel, t.clone()));
                vec![(Insert, rel, t)]
            }
            43..=46 if dom.hostile => {
                owed.push((rel, fresh.clone()));
                vec![(Delete, rel, fresh)]
            }
            47..=50 if dom.hostile && !owed.is_empty() => {
                let (rel, t) = owed.swap_remove(rng.below(owed.len()));
                vec![(Insert, rel, t)]
            }
            51..=53 if dom.hostile => {
                let other = dom.tuple(rng, rel, out.len());
                let block = [(Insert, fresh.clone()), (Insert, other.clone())];
                let cancel = [(Delete, other), (Delete, fresh)];
                let block = block.into_iter().chain(cancel);
                block.map(|(s, t)| (s, rel, t)).collect()
            }
            _ => {
                live.push((rel, fresh.clone()));
                vec![(Insert, rel, fresh)]
            }
        };
        out.extend(events.into_iter().map(|(sign, rel, t)| match sign {
            Insert => UpdateEvent::insert(rel, t),
            Delete => UpdateEvent::delete(rel, t),
        }));
    }
    out.truncate(len);
    out
}

/// An `R`/`S` stream over the small domain, for tests that need one.
pub fn small_stream(seed: u64, len: usize) -> Vec<UpdateEvent> {
    stream(&mut Rng::new(seed, 2), &["R", "S"], len, &Domain::default())
}

/// Hand-assembled trigger programs over `R(a, b)`. Each counts pairs of `R`
/// tuples with equal `a` in `Q` from the counts `M[a]`; all but `Pairs` add a
/// `:=` of `Σ M[x]²`, inside the mirrored tail or outside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hand {
    /// `+=` only; `Q`'s statements read `M`, which their run writes.
    Pairs,
    /// A mirrored tail whose `:=` negates after a delete: batch-delta, and
    /// the run's last event picks the sign.
    SignedTail,
    /// The `:=` precedes the increments.
    IncrementAfterReplace,
    /// The two signs end with `:=`s of different targets.
    UnmirroredReplace,
    /// Only the insert trigger has a `:=`.
    OneSidedReplace,
    /// `N += T` reads the tail's target.
    ReadsReplaceTarget,
}

/// The hand-assembled programs of the lattice: both derive.
pub const HANDS: [Hand; 2] = [Hand::Pairs, Hand::SignedTail];

/// The hand-assembled programs whose derivation bails: no engine runs them.
pub const BAILING: [Hand; 4] = [
    Hand::IncrementAfterReplace,
    Hand::UnmirroredReplace,
    Hand::OneSidedReplace,
    Hand::ReadsReplaceTarget,
];

/// One hand-assembled statement over the trigger variables `a`, `b` of
/// `R(a, b)`: target, key (trigger variables only), op, right-hand side.
pub type Stmt = (&'static str, &'static [&'static str], StmtOp, Expr);

/// `M[a] += ±1`, then `Q[] += M[a]` per insert and `Q[] += 1 − M[a]` per
/// delete: `Q` counts pairs exactly when every `+=` of a firing reads the
/// state before it.
fn pair_statements(sign: UpdateSign) -> Vec<Stmt> {
    let (one, m) = (Expr::one(), Expr::view("M", ["a"]));
    let (count, pairs) = match sign {
        UpdateSign::Insert => (one, m),
        UpdateSign::Delete => (Expr::neg(one), Expr::sum_of([Expr::one(), Expr::neg(m)])),
    };
    vec![
        ("M", &["a"], StmtOp::Increment, count),
        ("Q", &[], StmtOp::Increment, pairs),
    ]
}

impl Hand {
    /// The bail the batch-delta derivation reports for `R` (`None`: it
    /// derives).
    pub fn bail(self) -> Option<BatchDeltaBail> {
        Some(match self {
            Hand::Pairs | Hand::SignedTail => return None,
            Hand::IncrementAfterReplace => {
                BatchDeltaBail::IncrementAfterReplace { target: "M".into() }
            }
            Hand::UnmirroredReplace => BatchDeltaBail::UnmirroredReplace,
            Hand::OneSidedReplace => BatchDeltaBail::OneSidedReplace,
            Hand::ReadsReplaceTarget => BatchDeltaBail::ReadsReplaceTarget {
                target: "N".into(),
                read: "T".into(),
            },
        })
    }

    pub fn program(self) -> TriggerProgram {
        use UpdateSign::{Delete, Insert};
        let square = |target: &'static str| -> Stmt {
            let m = || Expr::view("M", ["x"]);
            let rhs = Expr::agg_sum(Vec::<String>::new(), Expr::product_of([m(), m()]));
            (target, &[], StmtOp::Replace, rhs)
        };
        let negated = |(target, key, op, rhs): Stmt| (target, key, op, Expr::neg(rhs));
        let with = |sign, before: Option<Stmt>, after: &[Stmt]| {
            let mut statements: Vec<Stmt> = before.into_iter().collect();
            statements.extend(pair_statements(sign));
            statements.extend(after.iter().cloned());
            (sign, statements)
        };
        let t = Expr::view("T", Vec::<String>::new());
        let reads_t: Stmt = ("N", &["a"], StmtOp::Increment, t);
        let triggers = match self {
            Hand::Pairs => vec![with(Insert, None, &[]), with(Delete, None, &[])],
            Hand::SignedTail => vec![
                with(Insert, None, &[square("T")]),
                with(Delete, None, &[negated(square("T"))]),
            ],
            Hand::IncrementAfterReplace => vec![
                with(Insert, Some(square("T")), &[]),
                with(Delete, Some(square("T")), &[]),
            ],
            Hand::UnmirroredReplace => vec![
                with(Insert, None, &[square("T")]),
                with(Delete, None, &[square("U")]),
            ],
            Hand::OneSidedReplace => vec![with(Insert, None, &[square("T")])],
            Hand::ReadsReplaceTarget => vec![
                with(Insert, None, &[reads_t.clone(), square("T")]),
                with(Delete, None, &[reads_t, square("T")]),
            ],
        };
        // `M` and `Q` are functions of `R` when both signs count it; the
        // other targets depend on the stream's history.
        let r = |a: &str, b: &str| Expr::rel("R", [a, b]);
        let half = |sign: f64, e: Expr| {
            let halved = Expr::product_of([Expr::val(0.5 * sign), e]);
            Expr::agg_sum(Vec::<String>::new(), halved)
        };
        let squares = Expr::product_of([r("a", "b"), r("a", "b2")]);
        let q = Expr::sum_of([half(1.0, squares), half(-1.0, r("a", "b"))]);
        let defs = [("M", Expr::agg_sum(["a"], r("a", "b"))), ("Q", q)];
        let counts = (self != Hand::OneSidedReplace) as usize;
        assemble(triggers, &defs[..2 * counts])
    }
}

/// A hand-assembled program over `R(a, b)`, stored: one trigger per
/// `(sign, statements)`, a map per target, defined as `defs` says (a map
/// without one is declared as zero, which the values oracle skips), and the
/// live passes derived as the compiler derives them — none where the
/// derivation bails, which the engine refuses.
pub fn assemble(triggers: Vec<(UpdateSign, Vec<Stmt>)>, defs: &[(&str, Expr)]) -> TriggerProgram {
    let vars = ["a".to_string(), "b".to_string()];
    let statement = |(target, key, op, rhs): Stmt| {
        let key = key.iter().map(|k| k.to_string()).collect();
        Statement::new(&vars, target.into(), key, vec![], op, rhs).unwrap()
    };
    let trigger = |(sign, statements): (UpdateSign, Vec<Stmt>)| Trigger {
        relation: "R".into(),
        sign,
        trigger_vars: vars.to_vec(),
        statements: statements.into_iter().map(statement).collect(),
    };
    let triggers: Vec<Trigger> = triggers.into_iter().map(trigger).collect();
    let mut maps: Vec<MapDecl> = Vec::new();
    for s in triggers.iter().flat_map(|t| &t.statements) {
        if !maps.iter().any(|m| m.name == s.target) {
            let definition = defs.iter().find(|(n, _)| *n == s.target);
            maps.push(MapDecl {
                name: s.target.clone(),
                out_vars: s.key_vars.clone(),
                definition: definition.map_or_else(Expr::zero, |(_, d)| d.clone()),
                is_query_result: false,
                init: None,
            });
        }
    }
    TriggerProgram {
        maps,
        triggers,
        stored_relations: ["R".to_string()].into(),
        ..TriggerProgram::default()
    }
}

/// Where a case's program comes from.
#[derive(Clone)]
pub enum Source {
    /// Queries compiled per mode.
    Queries(Vec<QuerySpec>),
    /// Workload queries by name, compiled per mode through the SQL front end.
    Sql(Vec<&'static str>),
    /// A fixed program: the mode does not change it.
    Program(TriggerProgram),
}

impl Default for Source {
    fn default() -> Self {
        Source::Queries(Vec::new())
    }
}

/// One program, its catalog and static tables, and a stream.
#[derive(Clone, Default)]
pub struct Case {
    /// A Rust expression that rebuilds the case, for the printed repro.
    pub label: String,
    pub catalog: Catalog,
    pub tables: HashMap<String, Vec<Vec<Value>>>,
    pub source: Source,
    pub events: Vec<UpdateEvent>,
    pub shapes: BTreeSet<Shape>,
    pub hand: Option<Hand>,
    pub twin: Option<Twin>,
    /// Float data, where summation order shows in the last bits.
    pub float: bool,
    pub hostile: bool,
    /// The position of the one event the ingest gate must refuse, if any.
    pub ill_typed: Option<usize>,
    /// Cut a batch before an event whose tuple it holds: the program's `:=`
    /// depends on firing order, and only batches that fire each event as its
    /// own entry fire in stream order.
    pub split_repeated_keys: bool,
}

/// `R(A,B)` and `S(B,C)` streams and the static `T(C,D)`.
pub fn catalog() -> Catalog {
    let r = RelationMeta::stream("R", ["A", "B"]);
    let s = RelationMeta::stream("S", ["B", "C"]);
    let t = RelationMeta::table("T", ["C", "D"]);
    [r, s, t].into_iter().collect()
}

impl Case {
    /// `events` through `source`, over the generated catalog.
    pub fn new(source: Source, events: Vec<UpdateEvent>) -> Case {
        Case {
            label: "the test's case".into(),
            catalog: catalog(),
            source,
            events,
            ..Case::default()
        }
    }

    /// Workload queries over explicit data.
    pub fn sql(names: &[&'static str], data: Dataset, float: bool) -> Case {
        Case {
            catalog: workload_catalog(),
            tables: data.tables,
            float,
            ..Case::new(Source::Sql(names.to_vec()), data.events)
        }
    }

    pub fn compile(&self, mode: CompileMode) -> TriggerProgram {
        match &self.source {
            Source::Queries(specs) => {
                let compiled = compile(specs, &self.catalog, &CompileOptions::for_mode(mode));
                compiled.unwrap_or_else(|e| panic!("{}: compile [{mode:?}]: {e}", self.label))
            }
            Source::Sql(names) => workload_program(names, mode),
            Source::Program(p) => p.clone(),
        }
    }

    /// The case with only the events at `keep` and the queries in the mask.
    pub fn restrict(&self, keep: &[usize], queries: u8) -> Case {
        let mut c = self.clone();
        c.events = keep.iter().map(|&i| self.events[i].clone()).collect();
        c.ill_typed = self
            .ill_typed
            .and_then(|i| keep.iter().position(|&k| k == i));
        if let Source::Queries(specs) = &self.source {
            let kept = (0..specs.len()).filter(|i| queries >> i & 1 == 1);
            c.source = Source::Queries(kept.map(|i| specs[i].clone()).collect());
        }
        c
    }

    /// The stream without its ill-typed event: what every view must equal.
    pub fn admitted(&self) -> Vec<UpdateEvent> {
        let kept = self.events.iter().enumerate();
        let kept = kept.filter(|(i, _)| Some(*i) != self.ill_typed);
        kept.map(|(_, e)| e.clone()).collect()
    }

    /// The worst class among the queries.
    pub fn class(&self) -> Option<Class> {
        match &self.source {
            Source::Queries(specs) => specs.iter().map(class_of).max(),
            _ => None,
        }
    }

    /// Does a query multiply by one of its own group-by columns —
    /// `Sum[B](R(A,B) * B)`, whose weight stays outside the maps, a factor
    /// of the key each entry is looked up by?
    pub fn weighs_a_group_by_column(&self) -> bool {
        let Source::Queries(specs) = &self.source else {
            return false;
        };
        specs.iter().any(|q| match &q.expr {
            Expr::AggSum(group, body) => match &**body {
                Expr::Mul(factors) => factors
                    .iter()
                    .any(|f| matches!(f, Expr::Var(v) if group.contains(v))),
                _ => false,
            },
            _ => false,
        })
    }

    /// Does one column of one relation hold both a `Long` and a `Double`
    /// past 2^53 — numbers that compare exactly but not as `f64` does?
    pub fn mixes_numbers_past_2_53_in_a_key(&self) -> bool {
        let big = |x: f64| x.abs() >= (1u64 << 53) as f64;
        let mut seen: BTreeMap<(&str, usize), [bool; 2]> = BTreeMap::new();
        for e in &self.events {
            for (col, v) in e.tuple.iter().enumerate() {
                let kind = match v {
                    Value::Long(x) if big(*x as f64) => 0,
                    Value::Double(x) if big(*x) => 1,
                    _ => continue,
                };
                seen.entry((&e.relation, col)).or_default()[kind] = true;
            }
        }
        seen.values().any(|&[long, double]| long && double)
    }

    pub fn query_count(&self) -> usize {
        match &self.source {
            Source::Queries(specs) => specs.len(),
            Source::Sql(names) => names.len(),
            Source::Program(_) => 1,
        }
    }

    /// The program as text: each query's AGCA, or the trigger program.
    pub fn text(&self) -> String {
        match &self.source {
            Source::Queries(specs) => specs
                .iter()
                .map(|q| format!("{}[{}] := {}\n", q.name, q.out_vars.join(", "), q.expr))
                .collect(),
            Source::Sql(names) => format!("workload queries {names:?}\n"),
            Source::Program(p) => p.to_string(),
        }
    }
}

/// The generated case of `seed`: one in eight is a hand-assembled program,
/// the rest one to three queries.
pub fn case(seed: u64) -> Case {
    let mut rng = Rng::new(seed, 1);
    if rng.percent(12) {
        return assembled(rng.pick(&HANDS), seed);
    }
    let queries = (0..1 + rng.below(3)).map(|i| random_query(&mut rng, format!("Q{i}")));
    let (mut specs, shapes): (Vec<QuerySpec>, Vec<Vec<Shape>>) = queries.unzip();
    let shapes: BTreeSet<Shape> = shapes.into_iter().flatten().collect();
    // Drawn from its own stream, so a case without a twin stays what it
    // was, and one with a twin keeps its stream: a repeat uses the columns
    // its original does. Siblings come from a fork of their own, so a case
    // keeps the twin it drew, and their weight joins the columns.
    let mut twins = Rng::new(seed, 7);
    let mut twin = twins.percent(12).then(|| twins.pick(&TWINS[..2]));
    if twin.is_none() && Rng::new(seed, 8).percent(12) {
        twin = Some(Twin::Siblings);
    }
    if let Some(t) = twin {
        specs.extend(t.of(&specs[0], specs.len()));
    }
    let [key_only, weights, plain_weights, compared] = columns(&specs);
    let hostile = rng.percent(25);
    let mut unweighted = compared.clone();
    unweighted.retain(|c| !weights.contains(c));
    let quantile = hostile && shapes.contains(&Quantile);
    let dom = Domain {
        hostile,
        big_keys: if hostile { key_only } else { vec![] },
        odd_weights: if hostile { plain_weights } else { vec![] },
        negative_zeros: if hostile { compared } else { vec![] },
        odd_keys: if quantile { unweighted } else { vec![] },
        fresh_keys: false,
    };
    // Three-atom joins, and re-evaluating them per event, are cubic.
    let cubic = [ScaledSelfJoin, CubicChain, PathChain, Star];
    let len = match cubic.iter().any(|s| shapes.contains(s)) {
        true => 40 + rng.below(60),
        false => 60 + rng.below(180),
    };
    let mut events_rng = Rng::new(seed, 2);
    let mut events = stream(&mut events_rng, &["R", "S"], len, &dom);
    if quantile {
        plant_negative_quantile(&mut events);
    }
    let mut ill_typed = None;
    if !weights.is_empty() && rng.percent(10) {
        let (rel, col) = rng.pick(&weights);
        let mut t = dom.tuple(&mut events_rng, rel, len);
        match rng.percent(50) {
            true => t[col] = Value::str("ill-typed"),
            false => drop(t.pop()),
        }
        let at = rng.below(len + 1);
        events.insert(at, UpdateEvent::insert(rel, t));
        ill_typed = Some(at);
    }
    let mut row = || [5, 4].map(|n| Value::long(rng.below(n) as i64)).to_vec();
    let tables = [("T".to_string(), (0..6).map(|_| row()).collect())].into();
    Case {
        label: format!("common::case({seed})"),
        tables,
        shapes,
        twin,
        hostile,
        ill_typed,
        ..Case::new(Source::Queries(specs), events)
    }
}

/// Close a stream with `R` rows at 2, 3 and 4 in both columns, then `S`
/// cancelled down to nothing and refilled with weights 1, 1, −1 and 2 at
/// keys 1 to 4 — the −1 deleted, never inserted. `Quantile`'s filter `½ Σ
/// S > Σ S above v` then keeps `v` = 2 and 4 but not 3: its band sums are
/// not monotone in `v`, so no search of the group finds the rows it keeps.
fn plant_negative_quantile(events: &mut Vec<UpdateEvent>) {
    let mut net: BTreeMap<Vec<Value>, i64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.relation == "S") {
        let m = if e.sign == UpdateSign::Insert { 1 } else { -1 };
        *net.entry(e.tuple.clone()).or_insert(0) += m;
    }
    let row = |x: i64, y: i64| vec![Value::long(x), Value::long(y)];
    events.extend((2..5).map(|v| UpdateEvent::insert("R", row(v, v))));
    for (t, m) in net {
        let undo = if m > 0 {
            UpdateEvent::delete
        } else {
            UpdateEvent::insert
        };
        events.extend((0..m.abs()).map(|_| undo("S", t.clone())));
    }
    let refill = [(1, 1), (2, 1), (4, 2)].map(|(k, w)| UpdateEvent::insert("S", row(k, w)));
    events.push(UpdateEvent::delete("S", row(3, 1)));
    events.extend(refill);
}

/// A hand-assembled program over an `R` stream. A program with a `:=`
/// depends on the order its firings run in, so it gets fresh keys and
/// batches that never repeat one.
pub fn assembled(hand: Hand, seed: u64) -> Case {
    let ordered = hand != Hand::Pairs;
    let dom = Domain {
        fresh_keys: ordered,
        ..Domain::default()
    };
    let events = stream(&mut Rng::new(seed, 2), &["R"], 240, &dom);
    Case {
        hand: Some(hand),
        split_repeated_keys: ordered,
        label: format!("common::assembled(common::Hand::{hand:?}, {seed})"),
        ..Case::new(Source::Program(hand.program()), events)
    }
}

/// One query per named shape in one program, over a small stream.
pub fn shaped(shapes: &[Shape], seed: u64, len: usize) -> Case {
    let list = format!("{shapes:?}").replace(", ", ", common::Shape::");
    let list = list.replace('[', "[common::Shape::");
    let specs = shapes.iter().map(|s| s.query()).collect();
    Case {
        shapes: shapes.iter().copied().collect(),
        label: format!("common::shaped(&{list}, {seed}, {len})"),
        ..Case::new(Source::Queries(specs), small_stream(seed, len))
    }
}

// ------------------------------------------------------------- workloads

/// The bundled workload catalog, as the compiler sees it.
pub fn workload_catalog() -> Catalog {
    workloads::full_catalog()
}

/// The program of workload queries `names` in one engine, through the SQL
/// front end.
pub fn workload_program(names: &[&str], mode: CompileMode) -> TriggerProgram {
    let mut b = dbtoaster::QueryEngineBuilder::new(workloads::full_catalog()).mode(mode);
    for name in names {
        let q = workloads::query(name).unwrap_or_else(|| panic!("unknown query {name}"));
        b = b.add_query(q.name, q.sql);
    }
    let engine = b.build();
    let engine = engine.unwrap_or_else(|e| panic!("compile {names:?} [{mode:?}]: {e}"));
    engine.program().clone()
}

/// A small dataset of a workload family: the first `events` events.
pub fn workload_data(family: Family, events: usize, seed: u64) -> Dataset {
    let mut d = match family {
        Family::Tpch => workloads::tpch::generate(&workloads::TpchConfig {
            scale: 0.002,
            seed,
            orders_working_set: 40,
            lineitem_working_set: 160,
        }),
        Family::Finance => workloads::finance::generate(&workloads::FinanceConfig {
            events,
            seed,
            brokers: 5,
            delete_probability: 0.25,
        }),
        Family::Scientific => workloads::mddb::generate(&workloads::MddbConfig {
            atoms: 12,
            steps: 20,
            seed,
        }),
    };
    d.truncate(events);
    d
}

/// Workload queries `names` (one family) over `events` events of its
/// dataset at `seed`: float data.
pub fn workload_case(names: &[&'static str], events: usize, seed: u64) -> Case {
    let family = workloads::query(names[0]).unwrap().family;
    Case {
        label: format!("common::workload_case(&{names:?}, {events}, {seed})"),
        ..Case::sql(names, workload_data(family, events, seed), true)
    }
}

// ------------------------------------------------------------- the lattice

/// How a stream is cut into batches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Partition {
    PerEvent,
    Fixed(usize),
    /// Cut after each event with probability 1/4.
    Geometric(u64),
    /// Cut after each event with probability 1/50.
    Huge(u64),
    /// Batches of these sizes, then one batch of the rest.
    Sizes(&'static [usize]),
}

/// The batches of `events` under `p`, as index ranges.
pub fn cuts(events: &[UpdateEvent], p: Partition, split_repeated_keys: bool) -> Vec<Range<usize>> {
    let mut rng = match p {
        Partition::Geometric(s) | Partition::Huge(s) => Rng::new(s, 4),
        _ => Rng::new(0, 4),
    };
    let (mut out, mut lo) = (Vec::new(), 0);
    for (i, e) in events.iter().enumerate() {
        let repeated = |d: &UpdateEvent| d.relation == e.relation && d.tuple == e.tuple;
        if split_repeated_keys && events[lo..i].iter().any(repeated) {
            out.push(lo..i);
            lo = i;
        }
        let cut = match p {
            Partition::PerEvent => true,
            Partition::Fixed(n) => i + 1 - lo >= n,
            Partition::Geometric(_) => rng.percent(25),
            Partition::Huge(_) => rng.percent(2),
            Partition::Sizes(sizes) => sizes.get(out.len()) == Some(&(i + 1 - lo)),
        };
        if cut {
            out.push(lo..i + 1);
            lo = i + 1;
        }
    }
    out.extend((lo < events.len()).then_some(lo..events.len()));
    out
}

/// Kill the writer after `stop` WAL records, with a checkpoint written at
/// batch boundary `checkpoint` (both reduced modulo the batches there are).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalCut {
    pub checkpoint: Option<usize>,
    pub stop: usize,
}

impl WalCut {
    /// `(stop, checkpoint)` over `batches` batches: the checkpoint at or
    /// before the stop.
    pub fn resolve(self, batches: usize) -> (usize, Option<usize>) {
        let stop = self.stop % (batches + 1);
        (stop, self.checkpoint.map(|c| c % (stop + 1)))
    }
}

/// One point of the execution lattice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    pub mode: CompileMode,
    pub partition: Partition,
    /// Take a snapshot before this batch (modulo the batches) and hold it.
    pub snapshot: Option<usize>,
    pub wal: Option<WalCut>,
    /// The case's queries to keep, as a bitmask (the shrinker drops some).
    pub queries: u8,
}

pub const MODES: [CompileMode; 4] = [
    CompileMode::HigherOrder,
    CompileMode::FirstOrder,
    CompileMode::NaiveViewlet,
    CompileMode::Reevaluate,
];

impl Point {
    /// Batches as `partition` cuts them, nothing else.
    pub fn plain(mode: CompileMode, partition: Partition) -> Point {
        Point {
            mode,
            partition,
            snapshot: None,
            wal: None,
            queries: u8::MAX,
        }
    }
}

/// `partition` in every compile mode.
pub fn in_all_modes(partition: Partition) -> [Point; 4] {
    MODES.map(|m| Point::plain(m, partition))
}

/// Pasteable Rust for the point: its `Debug` form, with paths.
impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = format!("common::{self:?}")
            .replace("mode: ", "mode: dbtoaster::compiler::CompileMode::")
            .replace("partition: ", "partition: common::Partition::")
            .replace("Sizes([", "Sizes(&[")
            .replace("(WalCut", "(common::WalCut");
        f.write_str(&text)
    }
}
