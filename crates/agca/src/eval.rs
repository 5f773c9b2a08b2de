//! Reference evaluation semantics for AGCA expressions.
//!
//! [`eval`] implements the denotational semantics of Section 3.2: given a source of
//! relation contents and a context of bound variables, an expression evaluates to a GMR
//! over its output variables. Products pass bindings from left to right (sideways
//! information passing), comparisons and lifts evaluate their operands as scalars in the
//! current context, and `Sum_A` projects while summing multiplicities.
//!
//! The evaluator is the semantic ground truth of the whole system: the runtime executes
//! compiled trigger statements with it, and the test-suite checks every compilation
//! strategy against re-evaluation through it.
//!
//! ## Hot-path design
//!
//! Per-event evaluation is engineered to stay allocation-free in its inner loops:
//!
//! * **Cursor protocol** — [`RelationSource::for_each_matching`] streams borrowed
//!   `(&[Value], f64)` entries straight out of the backing store into a visitor
//!   closure; no result vector is materialized and no tuple is cloned on the read
//!   path. (The old collecting `iter_matching` shim is gone; callers that need an
//!   owned snapshot collect inside their visitor.)
//! * **Scoped bindings** — [`Bindings`] is a shadow stack, not a hash map. The
//!   product loop pushes one scope per factor (bind → recurse → unbind via
//!   [`Bindings`] truncation) and overwrites the scope's value slots per tuple, so
//!   per-tuple context handling costs a few `Value` clones and zero allocations
//!   (the old implementation cloned the entire context map per tuple). Lookups are
//!   reverse linear scans, which beats hashing at the handful-of-variables sizes
//!   AGCA contexts have, and makes shadowing automatic.
//! * **Tuple keys** — result GMRs are keyed by [`Tuple`] (inline up to
//!   [`dbtoaster_gmr::tuple::INLINE_CAP`] values), so group-by keys and join
//!   outputs of typical arity are built without heap allocation.
//! * **Join-order hoisting** — before evaluating a product, scalar lifts whose
//!   value is already computable are hoisted ahead of relation atoms that
//!   would otherwise be scanned with unbound arguments (see
//!   `product_order_by`), turning the compiler's delta-statement pattern
//!   `M(ok) * (ok := t)` into an indexed probe. The hoisted order depends only
//!   on the expression's structure, so a persistent [`EvalScratch`] memoizes
//!   it per product node instead of re-deriving it per event.

use crate::expr::{AtomKind, CmpOp, Expr, ScalarFn};
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use std::fmt;
use std::sync::Arc;

/// A variable-binding context: a stack of `(name, value)` pairs with
/// last-binding-wins lookup (shadowing) and O(1) scope push/undo.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    entries: Vec<(String, Value)>,
}

impl Bindings {
    /// An empty context.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// An empty context with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Bindings {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Bind `name` to `value`, replacing the innermost existing binding of the
    /// same name (top-level map-like semantics).
    pub fn insert(&mut self, name: String, value: Value) {
        match self.entries.iter_mut().rev().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((name, value)),
        }
    }

    /// [`Bindings::insert`] from a borrowed name: clones the name only when the
    /// binding is new. The batch executor re-seeds the same trigger variables
    /// once per delta entry, so steady-state re-binding allocates nothing.
    pub fn set(&mut self, name: &str, value: Value) {
        match self.entries.iter_mut().rev().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Drop every binding, retaining capacity (the batch executor clears its
    /// reused context between statements so no stale name can leak across
    /// triggers).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The value bound to `name`, if any (innermost binding wins).
    #[inline]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Is `name` bound?
    #[inline]
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of bindings (shadowed bindings count).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(name, value)` pairs, innermost last.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    // ---- scope stack (crate-internal hot path) ----

    /// Current stack depth; pass to [`Bindings::unwind`] to undo.
    #[inline]
    pub(crate) fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Push a shadowing binding slot for `name` with a placeholder value; the
    /// caller overwrites it through [`Bindings::set_slot`] before any lookup.
    #[inline]
    pub(crate) fn push_slot(&mut self, name: &str) {
        self.entries.push((name.to_string(), Value::Long(0)));
    }

    /// Overwrite the value of the slot at absolute index `slot`.
    #[inline]
    pub(crate) fn set_slot(&mut self, slot: usize, value: Value) {
        self.entries[slot].1 = value;
    }

    /// Drop every binding pushed since `mark`.
    #[inline]
    pub(crate) fn unwind(&mut self, mark: usize) {
        self.entries.truncate(mark);
    }
}

/// Errors raised during evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// A variable was read before being bound.
    UnboundVariable(String),
    /// A relation or view is not present in the [`RelationSource`].
    UnknownRelation(String),
    /// An expression used in scalar position produced a non-scalar result.
    NotScalar(String),
    /// A tuple's arity did not match the atom's argument list.
    ArityMismatch {
        relation: String,
        expected: usize,
        actual: usize,
    },
    /// A value-level operation failed (e.g. arithmetic on a string).
    Value(String),
    /// A scalar function was applied to the wrong number or type of arguments.
    BadApply(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            EvalError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EvalError::NotScalar(e) => write!(f, "expression is not scalar: {e}"),
            EvalError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for {relation}: expected {expected}, got {actual}"
            ),
            EvalError::Value(e) => write!(f, "value error: {e}"),
            EvalError::BadApply(e) => write!(f, "bad scalar function application: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<dbtoaster_gmr::value::ValueError> for EvalError {
    fn from(e: dbtoaster_gmr::value::ValueError) -> Self {
        EvalError::Value(e.to_string())
    }
}

/// A source of relation and view contents.
///
/// The primary access path is the **cursor protocol**: `for_each_matching`
/// receives a partial binding pattern (`pattern[i] = Some(v)` constrains
/// position `i` of the tuple to equal `v`) and streams every matching
/// `(tuple, multiplicity)` pair into the visitor as a *borrowed* slice —
/// implementations must not clone tuples to answer a lookup.
/// Implementations are free to stream any superset of the matching tuples
/// (the evaluator re-checks the constraints), but an index-backed
/// implementation that answers exactly is what gives compiled trigger
/// statements their constant-time behaviour.
pub trait RelationSource {
    /// Arity of the named relation, or `None` if unknown.
    fn relation_arity(&self, name: &str) -> Option<usize>;

    /// Stream tuples (with multiplicities) matching the partial binding
    /// pattern into `visit`.
    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError>;

    /// Range sums over an ordered index, for sources that keep one:
    /// `sums[i]` = Σ multiplicity over the tuples matching `pattern` — which
    /// leaves exactly one position free — whose value at that position lies
    /// in `ranges[i].0 ≤ value < ranges[i].1`. Range ends are integers or
    /// infinite; `bound_mag` bounds the magnitude of every number the
    /// caller's original comparisons went through (see the plan module's
    /// "Range sums over ordered indexes").
    ///
    /// `Ok(Some(n))` — answered, bit-identical to summing the matching
    /// tuples in any order, after comparing `n` entries. `Ok(None)` — the
    /// source has no ordered index for the pattern, or the addressed group
    /// cannot answer exactly right now; the caller sums over
    /// [`RelationSource::for_each_matching`] instead. The default has no
    /// ordered indexes.
    fn range_sums(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        bound_mag: f64,
        ranges: &[(f64, f64)],
        sums: &mut [f64],
    ) -> Result<Option<u64>, EvalError> {
        let _ = (name, pattern, bound_mag, ranges, sums);
        Ok(None)
    }
}

/// Does `tuple` satisfy the partial binding pattern?
#[inline]
pub fn matches_pattern(tuple: &[Value], pattern: &[Option<Value>]) -> bool {
    pattern
        .iter()
        .zip(tuple.iter())
        .all(|(p, v)| p.as_ref().map(|want| want == v).unwrap_or(true))
}

/// A trivial in-memory [`RelationSource`] backed by a map of GMRs. Used by tests, by the
/// re-evaluation (REP) baseline and as the initial database of the runtime engine.
#[derive(Clone, Debug, Default)]
pub struct MemSource {
    relations: dbtoaster_gmr::FastMap<String, Gmr>,
}

impl MemSource {
    /// An empty source.
    pub fn new() -> Self {
        MemSource::default()
    }

    /// Register (or replace) a relation.
    pub fn set_relation(&mut self, name: impl Into<String>, gmr: Gmr) {
        self.relations.insert(name.into(), gmr);
    }

    /// Get a relation's contents, if present.
    pub fn relation(&self, name: &str) -> Option<&Gmr> {
        self.relations.get(name)
    }

    /// Apply a single-tuple update (positive multiplicity = insert, negative = delete).
    pub fn apply_update(&mut self, name: &str, tuple: Vec<Value>, mult: f64) {
        if let Some(g) = self.relations.get_mut(name) {
            g.add_tuple(tuple, mult);
        } else {
            let schema = Schema::new((0..tuple.len()).map(|i| format!("c{i}")));
            let mut g = Gmr::new(schema);
            g.add_tuple(tuple, mult);
            self.relations.insert(name.to_string(), g);
        }
    }
}

impl RelationSource for MemSource {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.relations.get(name).map(|g| g.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let g = self
            .relations
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        for (t, m) in g.iter() {
            if matches_pattern(t, pattern) {
                visit(t, m);
            }
        }
        Ok(())
    }
}

/// Reusable evaluation scratch state: per-`Mul`-node join-order cache and a
/// recycled lookup-pattern buffer.
///
/// The interpreter re-derives the product evaluation order (`product_order_by`)
/// and re-probes `scalar_ready` for every product it evaluates — work that is
/// invariant per expression node, because the *set* of bound variables at any
/// node is determined by the expression's structure, never by the data. A
/// long-lived `EvalScratch` (the runtime engine keeps one per engine) memoizes
/// the order per node so repeated evaluations of the same statement pay O(1)
/// instead of O(factors²) per event, and recycles the atom-lookup pattern
/// buffer so `eval_atom` stops allocating one `Vec` per atom per event.
///
/// **Cache-key invariant:** orders are keyed by the address of the `Mul` node's
/// factor slice, so a scratch must not outlive the expressions it has seen, and
/// must only be reused across evaluations where each node is evaluated under
/// the same *bound-variable set* (always true for a fixed set of expression
/// roots, e.g. the statements of one trigger program). Fresh-scratch entry
/// points ([`eval`], [`eval_with`]) trivially satisfy both conditions.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Mul-node factor-slice address → hoisted evaluation order
    /// (`None` = natural left-to-right order, nothing to hoist).
    product_orders: FastMap<usize, Option<Arc<[u16]>>>,
    /// Recycled lookup-pattern buffer for [`eval_atom`]; `None` while a
    /// (hypothetically re-entrant) atom evaluation is using it.
    pattern_buf: Option<Vec<Option<Value>>>,
}

/// Evaluate an expression to a GMR over its output variables.
pub fn eval(expr: &Expr, src: &dyn RelationSource, ctx: &Bindings) -> Result<Gmr, EvalError> {
    let mut scratch = ctx.clone();
    eval_with(expr, src, &mut scratch)
}

/// Evaluate an expression in a mutable context. Equivalent to [`eval`] but
/// avoids cloning the context; the context is returned unchanged (inner scopes
/// are pushed and unwound internally).
pub fn eval_with(
    expr: &Expr,
    src: &dyn RelationSource,
    ctx: &mut Bindings,
) -> Result<Gmr, EvalError> {
    eval_with_scratch(expr, src, ctx, &mut EvalScratch::default())
}

/// [`eval_with`] against a caller-owned [`EvalScratch`], letting repeated
/// evaluations of the same statements reuse cached join orders and buffers.
pub fn eval_with_scratch(
    expr: &Expr,
    src: &dyn RelationSource,
    ctx: &mut Bindings,
    scratch: &mut EvalScratch,
) -> Result<Gmr, EvalError> {
    match expr {
        Expr::Const(v) => Ok(Gmr::scalar(v.as_f64().map_err(EvalError::from)?)),
        Expr::Var(x) => {
            let v = ctx
                .get(x)
                .ok_or_else(|| EvalError::UnboundVariable(x.clone()))?;
            Ok(Gmr::scalar(v.as_f64().map_err(EvalError::from)?))
        }
        Expr::Rel(r) => eval_atom(r, src, ctx, scratch),
        Expr::Add(terms) => {
            let mut acc = Gmr::new(Schema::empty());
            for t in terms {
                let g = eval_with_scratch(t, src, ctx, scratch)?;
                if acc.is_empty() {
                    acc = g;
                } else if !g.is_empty() {
                    acc.add_gmr(&g);
                }
            }
            Ok(acc)
        }
        Expr::Mul(factors) => eval_product(factors, src, ctx, scratch),
        Expr::Neg(e) => Ok(eval_with_scratch(e, src, ctx, scratch)?.negate()),
        Expr::AggSum(gb, e) => {
            let inner = eval_with_scratch(e, src, ctx, scratch)?;
            let mut out = Gmr::new(Schema::new(gb.iter().cloned()));
            if inner.is_empty() {
                return Ok(out);
            }
            // Group-by columns may come from the inner result or from the context.
            let inner_schema = inner.schema().clone();
            let sources: Vec<Result<usize, Value>> = gb
                .iter()
                .map(|g| match inner_schema.index_of(g) {
                    Some(i) => Ok(Ok(i)),
                    None => ctx
                        .get(g)
                        .cloned()
                        .map(Err)
                        .ok_or_else(|| EvalError::UnboundVariable(g.clone())),
                })
                .collect::<Result<_, _>>()?;
            for (t, m) in inner.iter() {
                let key: Tuple = sources
                    .iter()
                    .map(|s| match s {
                        Ok(i) => t[*i].clone(),
                        Err(v) => v.clone(),
                    })
                    .collect();
                out.add_tuple(key, m);
            }
            Ok(out)
        }
        Expr::Lift(x, e) => {
            let v = eval_scalar_scratch(e, src, ctx, scratch)?;
            // If the variable is already bound, the lift degenerates into an equality
            // check on the bound value (Section 3.2's distinction between `=` and `:=`
            // is handled here by the context).
            if let Some(existing) = ctx.get(x) {
                if existing == &v {
                    return Ok(Gmr::scalar(1.0));
                }
                return Ok(Gmr::new(Schema::empty()));
            }
            Ok(Gmr::singleton(Schema::new([x.clone()]), [v], 1.0))
        }
        Expr::Cmp(op, l, r) => {
            let lv = eval_scalar_scratch(l, src, ctx, scratch)?;
            let rv = eval_scalar_scratch(r, src, ctx, scratch)?;
            if op.eval(&lv, &rv) {
                Ok(Gmr::scalar(1.0))
            } else {
                Ok(Gmr::new(Schema::empty()))
            }
        }
        Expr::Exists(e) => {
            let g = eval_with_scratch(e, src, ctx, scratch)?;
            Ok(g.map_multiplicities(|m| if m != 0.0 { 1.0 } else { 0.0 }))
        }
        Expr::Apply(f, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_scalar_scratch(a, src, ctx, scratch))
                .collect::<Result<_, _>>()?;
            let v = apply_scalar_fn(f, &vals)?;
            Ok(Gmr::scalar(v.as_f64().map_err(EvalError::from)?))
        }
    }
}

fn eval_atom(
    r: &crate::expr::RelRef,
    src: &dyn RelationSource,
    ctx: &mut Bindings,
    scratch: &mut EvalScratch,
) -> Result<Gmr, EvalError> {
    let _ = AtomKind::Stream; // all kinds are looked up the same way at evaluation time
    if let Some(arity) = src.relation_arity(&r.name) {
        if arity != r.args.len() {
            return Err(EvalError::ArityMismatch {
                relation: r.name.clone(),
                expected: r.args.len(),
                actual: arity,
            });
        }
    }
    // Partial binding pattern from the context, built in the recycled scratch
    // buffer (no per-call allocation once the buffer has grown to the maximum
    // atom arity). The visitor below never recurses into evaluation, so the
    // buffer cannot be needed re-entrantly; the take/put-back protocol falls
    // back to a fresh allocation if that ever changes.
    let mut pattern = scratch.pattern_buf.take().unwrap_or_default();
    pattern.clear();
    pattern.extend(r.args.iter().map(|a| ctx.get(a).cloned()));

    // Output schema: argument variables, deduplicated in order (repeated variables add
    // an implicit self-equality constraint).
    let mut out_cols: Vec<&String> = Vec::with_capacity(r.args.len());
    for a in &r.args {
        if !out_cols.contains(&a) {
            out_cols.push(a);
        }
    }
    let dedup = out_cols.len() != r.args.len();
    let mut out = Gmr::new(Schema::new(out_cols.iter().map(|c| c.as_str())));

    let mut arity_err: Option<EvalError> = None;
    let streamed = src.for_each_matching(&r.name, &pattern, &mut |t, m| {
        if arity_err.is_some() {
            return;
        }
        if t.len() != r.args.len() {
            arity_err = Some(EvalError::ArityMismatch {
                relation: r.name.clone(),
                expected: r.args.len(),
                actual: t.len(),
            });
            return;
        }
        // Re-check the context constraints (sources may over-approximate).
        if !matches_pattern(t, &pattern) {
            return;
        }
        if dedup {
            // Check repeated-variable consistency (each argument must agree with
            // its first occurrence) and project to the deduplicated schema. The
            // argument lists are short, so positional scans are allocation-free
            // and faster than a hash map here.
            let consistent = r.args.iter().enumerate().all(|(i, a)| {
                match r.args[..i].iter().position(|b| b == a) {
                    Some(j) => t[i] == t[j],
                    None => true,
                }
            });
            if !consistent {
                return;
            }
            let key: Tuple = out_cols
                .iter()
                .map(|c| {
                    let i = r
                        .args
                        .iter()
                        .position(|a| &a == c)
                        .expect("output columns come from the argument list");
                    t[i].clone()
                })
                .collect();
            out.add_tuple(key, m);
        } else {
            out.add_tuple(Tuple::from(t), m);
        }
    });
    pattern.clear();
    scratch.pattern_buf = Some(pattern);
    streamed?;
    if let Some(e) = arity_err {
        return Err(e);
    }
    Ok(out)
}

/// Is `e` a pure scalar expression (no collection-valued subterms) whose
/// variables are all bound (per the `extra` list of product-local outputs and
/// the `is_bound` context predicate)? Shared between the interpreter's product
/// hoisting and the plan compiler's static lowering
/// (see [`mod@crate::plan`]), so both make the same decision.
pub(crate) fn scalar_ready_by(e: &Expr, extra: &[&str], is_bound: &dyn Fn(&str) -> bool) -> bool {
    match e {
        Expr::Const(_) => true,
        Expr::Var(x) => extra.iter().any(|n| *n == x) || is_bound(x),
        Expr::Neg(inner) => scalar_ready_by(inner, extra, is_bound),
        Expr::Add(ts) | Expr::Mul(ts) | Expr::Apply(_, ts) => {
            ts.iter().all(|t| scalar_ready_by(t, extra, is_bound))
        }
        Expr::Cmp(_, l, r) => {
            scalar_ready_by(l, extra, is_bound) && scalar_ready_by(r, extra, is_bound)
        }
        // Rel / AggSum / Lift / Exists: collection-valued — never hoisted.
        _ => false,
    }
}

/// Variables a factor binds for the factors to its right.
fn push_outputs<'e>(f: &'e Expr, extra: &mut Vec<&'e str>) {
    match f {
        Expr::Rel(r) => extra.extend(r.args.iter().map(String::as_str)),
        Expr::Lift(x, _) => extra.push(x),
        Expr::AggSum(gb, _) => extra.extend(gb.iter().map(String::as_str)),
        Expr::Neg(e) | Expr::Exists(e) => push_outputs(e, extra),
        _ => {}
    }
}

/// Plan the evaluation order of product factors: left-to-right, except that
/// scalar lifts whose value is already computable are hoisted ahead of the
/// first relation atom that would otherwise leave their target unbound.
///
/// This turns the delta-statement pattern `M(ok) * (ok := t)` — which the
/// delta transform emits with the lift *after* the atom — into an indexed
/// probe of `M` instead of a full scan, restoring the paper's constant-time
/// per-update claim. It does not change the denotation: the product is
/// ring-commutative, only sideways information passing is order-sensitive,
/// and a hoisted lift depends exclusively on variables bound before the
/// product started.
///
/// Returns `None` when the hoisted order is the natural left-to-right order
/// (the common case), so callers can skip the indirection entirely. The order
/// depends only on which variables are bound — never on their values — which
/// is what lets both [`EvalScratch`] memoize it per node and the plan compiler
/// ([`mod@crate::plan`]) bake it into compiled kernels.
pub(crate) fn product_order_by(
    factors: &[Expr],
    is_bound: &dyn Fn(&str) -> bool,
) -> Option<Arc<[u16]>> {
    let mut order: Vec<u16> = Vec::with_capacity(factors.len());
    let mut extra: Vec<&str> = Vec::new();
    let mut hoisted = vec![false; factors.len()];
    for (i, factor) in factors.iter().enumerate() {
        if hoisted[i] {
            continue;
        }
        if let Expr::Rel(r) = factor {
            for a in &r.args {
                if extra.iter().any(|n| n == a) || is_bound(a) {
                    continue;
                }
                if let Some(j) = factors.iter().enumerate().skip(i + 1).position(|(j, f)| {
                    !hoisted[j]
                        && matches!(f, Expr::Lift(x, body)
                            if x == a && scalar_ready_by(body, &extra, is_bound))
                }) {
                    let j = j + i + 1;
                    hoisted[j] = true;
                    order.push(j as u16);
                    push_outputs(&factors[j], &mut extra);
                }
            }
        }
        order.push(i as u16);
        push_outputs(factor, &mut extra);
    }
    if order.iter().enumerate().all(|(i, &o)| i == o as usize) {
        None
    } else {
        Some(order.into())
    }
}

fn eval_product(
    factors: &[Expr],
    src: &dyn RelationSource,
    ctx: &mut Bindings,
    scratch: &mut EvalScratch,
) -> Result<Gmr, EvalError> {
    // The hoisted order is invariant per node (see `product_order_by`): compute
    // it once per node per scratch lifetime, not per event.
    let cache_key = factors.as_ptr() as usize;
    let cached = scratch.product_orders.get(&cache_key);
    // Guard against a violated lifetime invariant (a new expression's factor
    // slice reusing a freed slice's address): a cached permutation of the
    // wrong length is treated as a miss instead of indexing out of bounds.
    let valid = match &cached {
        Some(Some(o)) => o.len() == factors.len(),
        Some(None) => true,
        None => false,
    };
    let order: Option<Arc<[u16]>> = if valid {
        cached.cloned().unwrap()
    } else {
        let computed = product_order_by(factors, &|n| ctx.contains_key(n));
        scratch.product_orders.insert(cache_key, computed.clone());
        computed
    };
    let factor_at = |i: usize| match &order {
        Some(o) => &factors[o[i] as usize],
        None => &factors[i],
    };
    // Accumulator starts as the ring's one: {<> -> 1}.
    let mut acc = Gmr::scalar(1.0);
    for fi in 0..factors.len() {
        let factor = factor_at(fi);
        if acc.is_empty() {
            return Ok(Gmr::new(Schema::empty()));
        }
        let acc_schema = acc.schema().clone();
        let mut next: Option<Gmr> = None;

        // Open one binding scope for this factor: a shadow slot per accumulator
        // column, overwritten in place for every accumulator tuple. This is the
        // bind → recurse → unbind discipline that replaces per-tuple context
        // cloning.
        let mark = ctx.mark();
        for col in acc_schema.columns() {
            ctx.push_slot(col);
        }
        let mut failure: Option<EvalError> = None;
        for (t, m) in acc.iter() {
            for (i, v) in t.iter().enumerate() {
                ctx.set_slot(mark + i, v.clone());
            }
            let r = match eval_with_scratch(factor, src, ctx, scratch) {
                Ok(r) => r,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            if r.is_empty() {
                continue;
            }
            let r_schema = r.schema().clone();
            if next.is_none() {
                next = Some(Gmr::new(acc_schema.join(&r_schema)));
            }
            let out = next.as_mut().unwrap();
            let shared = acc_schema.shared_positions(&r_schema);
            let new_positions: Vec<usize> = (0..r_schema.arity())
                .filter(|j| !shared.iter().any(|&(_, oj)| oj == *j))
                .collect();
            for (s, n) in r.iter() {
                // Join consistency on shared columns (defensive: most factors already
                // respect the bindings of ctx, but e.g. unbound lifts might not).
                if !shared.iter().all(|&(i, j)| t[i] == s[j]) {
                    continue;
                }
                let tuple: Tuple = t
                    .iter()
                    .cloned()
                    .chain(new_positions.iter().map(|&j| s[j].clone()))
                    .collect();
                out.add_tuple(tuple, m * n);
            }
        }
        ctx.unwind(mark);
        if let Some(e) = failure {
            return Err(e);
        }
        acc = next.unwrap_or_else(|| Gmr::new(Schema::empty()));
    }
    Ok(acc)
}

/// Evaluate an expression in scalar position (comparison operand, lift body, `Apply`
/// argument) to a single [`Value`].
pub fn eval_scalar(
    expr: &Expr,
    src: &dyn RelationSource,
    ctx: &Bindings,
) -> Result<Value, EvalError> {
    let mut scratch = ctx.clone();
    eval_scalar_with(expr, src, &mut scratch)
}

/// [`eval_scalar`] over a mutable context (no clone; context returned unchanged).
pub fn eval_scalar_with(
    expr: &Expr,
    src: &dyn RelationSource,
    ctx: &mut Bindings,
) -> Result<Value, EvalError> {
    eval_scalar_scratch(expr, src, ctx, &mut EvalScratch::default())
}

fn eval_scalar_scratch(
    expr: &Expr,
    src: &dyn RelationSource,
    ctx: &mut Bindings,
    scratch: &mut EvalScratch,
) -> Result<Value, EvalError> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(x) => ctx
            .get(x)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(x.clone())),
        Expr::Neg(e) => Ok(eval_scalar_scratch(e, src, ctx, scratch)?.neg()?),
        Expr::Apply(f, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_scalar_scratch(a, src, ctx, scratch))
                .collect::<Result<_, _>>()?;
            apply_scalar_fn(f, &vals)
        }
        Expr::Add(terms) => terms.iter().try_fold(Value::long(0), |acc, t| {
            let v = eval_scalar_scratch(t, src, ctx, scratch)?;
            Ok(acc.add(&v)?)
        }),
        Expr::Mul(factors) => factors.iter().try_fold(Value::long(1), |acc, t| {
            let v = eval_scalar_scratch(t, src, ctx, scratch)?;
            Ok(acc.mul(&v)?)
        }),
        // General case: evaluate to a GMR, which must be nullary (a scalar) — or have
        // all of its columns bound by the context (e.g. a decorrelated nested aggregate
        // `Sum[OK](LI(OK,Q)*Q)` looked up with OK bound), in which case the sum of its
        // multiplicities is the scalar value.
        other => {
            let g = eval_with_scratch(other, src, ctx, scratch)?;
            if g.schema().is_empty() || g.is_empty() {
                Ok(Value::double(g.scalar_value()))
            } else if g.schema().columns().iter().all(|c| ctx.contains_key(c)) {
                Ok(Value::double(g.iter().map(|(_, m)| m).sum()))
            } else {
                Err(EvalError::NotScalar(other.to_string()))
            }
        }
    }
}

/// Apply a scalar function to already-evaluated arguments.
pub fn apply_scalar_fn(f: &ScalarFn, args: &[Value]) -> Result<Value, EvalError> {
    match f {
        ScalarFn::Div => {
            if args.len() != 2 {
                return Err(EvalError::BadApply("div expects 2 arguments".into()));
            }
            Ok(args[0].div(&args[1])?)
        }
        ScalarFn::ListMax => {
            if args.is_empty() {
                return Err(EvalError::BadApply("listmax expects >= 1 argument".into()));
            }
            let mut best = args[0].as_f64()?;
            for a in &args[1..] {
                best = best.max(a.as_f64()?);
            }
            Ok(Value::double(best))
        }
        ScalarFn::Sqrt => {
            if args.len() != 1 {
                return Err(EvalError::BadApply("sqrt expects 1 argument".into()));
            }
            Ok(Value::double(args[0].as_f64()?.max(0.0).sqrt()))
        }
        ScalarFn::Like(pattern) => {
            let s = args
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| EvalError::BadApply("like expects a string argument".into()))?;
            Ok(Value::bool(like_match(pattern, s)))
        }
    }
}

/// Match a SQL `LIKE` pattern containing `%` wildcards (no `_` support).
pub fn like_match(pattern: &str, s: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return pattern == s;
    }
    let mut rest = s;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            match rest.strip_prefix(part) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else {
            match rest.find(part) {
                Some(pos) => rest = &rest[pos + part.len()..],
                None => return false,
            }
        }
    }
    true
}

/// Convenience: evaluate a comparison operator symbolically when both sides are
/// constants (used by the optimizer's partial evaluation).
pub fn const_cmp(op: CmpOp, l: &Value, r: &Value) -> bool {
    op.eval(l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp as Op;

    fn db() -> MemSource {
        // R(A,B) = {(1,2)->1, (3,5)->1, (4,2)->1}, S(C,D) = {(2,10)->1, (5,20)->2}
        let mut src = MemSource::new();
        let mut r = Gmr::new(Schema::new(["A", "B"]));
        r.add_tuple(vec![Value::long(1), Value::long(2)], 1.0);
        r.add_tuple(vec![Value::long(3), Value::long(5)], 1.0);
        r.add_tuple(vec![Value::long(4), Value::long(2)], 1.0);
        src.set_relation("R", r);
        let mut s = Gmr::new(Schema::new(["C", "D"]));
        s.add_tuple(vec![Value::long(2), Value::long(10)], 1.0);
        s.add_tuple(vec![Value::long(5), Value::long(20)], 2.0);
        src.set_relation("S", s);
        src
    }

    fn empty_ctx() -> Bindings {
        Bindings::new()
    }

    #[test]
    fn selection_via_comparison() {
        // Sum[](R(x,y) * (x < y)) = number of tuples with A < B = 3
        let e = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["x", "y"]),
                Expr::cmp(Op::Lt, Expr::var("x"), Expr::var("y")),
            ]),
        );
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        assert_eq!(g.scalar_value(), 2.0);
    }

    #[test]
    fn bound_variable_selects() {
        // Example 3: R(x,y) with x bound to 3 returns only the (3,5) tuple.
        let e = Expr::rel("R", ["x", "y"]);
        let mut ctx = Bindings::new();
        ctx.insert("x".into(), Value::long(3));
        let g = eval(&e, &db(), &ctx).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.get(&[Value::long(3), Value::long(5)]), 1.0);
    }

    #[test]
    fn example4_weighted_group_by() {
        // Sum[y](R(x,y) * 2 * x) over R = {(1,2),(3,5),(4,2)} gives {2 -> 10, 5 -> 6}.
        let e = Expr::agg_sum(
            ["y"],
            Expr::product_of([Expr::rel("R", ["x", "y"]), Expr::val(2), Expr::var("x")]),
        );
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        assert_eq!(g.get(&[Value::long(2)]), 10.0);
        assert_eq!(g.get(&[Value::long(5)]), 6.0);
    }

    #[test]
    fn equijoin_via_shared_variable() {
        // Sum[](R(a,b) * S(b,d) * d): join B=C via shared variable b.
        // Matches: (1,2)-(2,10) d=10; (4,2)-(2,10) d=10; (3,5)-(5,20) d=20*mult 2.
        let e = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::rel("S", ["b", "d"]),
                Expr::var("d"),
            ]),
        );
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        assert_eq!(g.scalar_value(), 10.0 + 10.0 + 40.0);
    }

    #[test]
    fn lift_binds_nested_aggregate() {
        // Sum[a,b](R(a,b) * (z := Sum[](S(c,d)*(a > c)*d)) * (b < z))
        // Example 5 shape: for each R row, total D over S rows with C < A, kept if B < z.
        let qn = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("S", ["c", "d"]),
                Expr::cmp(Op::Gt, Expr::var("a"), Expr::var("c")),
                Expr::var("d"),
            ]),
        );
        let e = Expr::agg_sum(
            ["a", "b"],
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::lift("z", qn),
                Expr::cmp(Op::Lt, Expr::var("b"), Expr::var("z")),
            ]),
        );
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        // R(1,2): z = 0 (no S.C < 1) -> 2 < 0 false.
        // R(3,5): z = 10 (S.C=2) -> 5 < 10 true.
        // R(4,2): z = 10 -> 2 < 10 true.
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(&[Value::long(3), Value::long(5)]), 1.0);
        assert_eq!(g.get(&[Value::long(4), Value::long(2)]), 1.0);
    }

    #[test]
    fn lift_on_bound_variable_acts_as_equality() {
        let e = Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::lift("b", Expr::val(2))]);
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        // Only rows with B = 2 survive.
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn negation_and_union() {
        // R - R = 0
        let e = Expr::sum_of([
            Expr::rel("R", ["a", "b"]),
            Expr::neg(Expr::rel("R", ["a", "b"])),
        ]);
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn exists_clamps_multiplicities() {
        let e = Expr::exists(Expr::rel("S", ["c", "d"]));
        let g = eval(&e, &db(), &empty_ctx()).unwrap();
        assert_eq!(g.get(&[Value::long(5), Value::long(20)]), 1.0);
    }

    #[test]
    fn scalar_functions() {
        let ctx = empty_ctx();
        let d = db();
        assert_eq!(
            eval_scalar(
                &Expr::apply(ScalarFn::Div, vec![Expr::val(10), Expr::val(4)]),
                &d,
                &ctx
            )
            .unwrap(),
            Value::double(2.5)
        );
        assert_eq!(
            eval_scalar(
                &Expr::apply(
                    ScalarFn::ListMax,
                    vec![Expr::val(1), Expr::val(7), Expr::val(3)]
                ),
                &d,
                &ctx
            )
            .unwrap(),
            Value::double(7.0)
        );
        assert_eq!(
            eval_scalar(
                &Expr::apply(
                    ScalarFn::Like("%BRASS".into()),
                    vec![Expr::Const(Value::str("SMALL BRASS"))]
                ),
                &d,
                &ctx
            )
            .unwrap(),
            Value::bool(true)
        );
    }

    #[test]
    fn like_matching() {
        assert!(like_match("%green%", "dark green metal"));
        assert!(like_match("PROMO%", "PROMO BURNISHED"));
        assert!(!like_match("PROMO%", "STANDARD"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abcd"));
        assert!(like_match("%a%b%", "xxaxxbxx"));
        assert!(!like_match("%a%b%", "bbbb-a"));
    }

    #[test]
    fn unbound_variable_errors() {
        let e = Expr::var("missing");
        assert!(matches!(
            eval(&e, &db(), &empty_ctx()),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn unknown_relation_errors() {
        let e = Expr::rel("Nope", ["x"]);
        assert!(matches!(
            eval(&e, &db(), &empty_ctx()),
            Err(EvalError::UnknownRelation(_))
        ));
    }

    #[test]
    fn repeated_variable_enforces_self_equality() {
        // T(x, x) keeps only tuples with equal columns.
        let mut src = db();
        let mut t = Gmr::new(Schema::new(["A", "B"]));
        t.add_tuple(vec![Value::long(1), Value::long(1)], 1.0);
        t.add_tuple(vec![Value::long(1), Value::long(2)], 1.0);
        src.set_relation("T", t);
        let e = Expr::rel("T", ["x", "x"]);
        let g = eval(&e, &src, &empty_ctx()).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.get(&[Value::long(1)]), 1.0);
    }

    #[test]
    fn aggsum_with_context_group_var() {
        // Sum[k](S(c,d) * d) where k is bound from the context: the group key is taken
        // from the context (this is what trigger statements with loop substitution do).
        let e = Expr::agg_sum(
            ["k"],
            Expr::product_of([Expr::rel("S", ["c", "d"]), Expr::var("d")]),
        );
        let mut ctx = Bindings::new();
        ctx.insert("k".into(), Value::long(99));
        let g = eval(&e, &db(), &ctx).unwrap();
        assert_eq!(g.get(&[Value::long(99)]), 50.0);
    }
}
