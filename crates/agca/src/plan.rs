//! Compiled trigger kernels: flat, slot-addressed execution plans for AGCA
//! delta statements.
//!
//! The paper's headline refresh rates come from *compiling* trigger statements
//! into straight-line imperative code (Section 5 generates C++), not from
//! interpreting the calculus per event. This module is the reproduction of
//! that step: a trigger statement's right-hand side is lowered **once, at
//! program-compile time** into a plan ([`CompiledStmt`]) — a small tree of
//! [`Op`]s in which
//!
//! * every variable reference is a pre-resolved [`Slot`] into a fixed-size
//!   frame of [`Value`]s (no name lookups, no `Bindings` scans at run time);
//! * every relation atom carries a prebuilt **pattern template** whose bound
//!   holes are filled from the frame into a reusable pattern buffer (no
//!   per-event pattern allocation);
//! * the product evaluation order — including the lift hoisting that turns
//!   `M(ok) * (ok := t)` into an indexed probe — is chosen statically by the
//!   same `product_order_by`/`scalar_ready_by` analysis the interpreter
//!   uses per event, so compiled and interpreted execution agree by
//!   construction.
//!
//! ## Execution model
//!
//! A plan executes as a *pipeline*: each [`Op`] binds frame slots and emits
//! `(frame, multiplicity)` continuations downstream, bottoming out in the
//! statement sink which materializes `(key, multiplicity)` rows from the
//! statement's pre-resolved key slots into a reusable output buffer. The
//! engine then applies the buffered rows to the target map — exactly the
//! read-everything-then-write discipline of the interpreter, so statements
//! whose right-hand side reads their own target keep their semantics.
//!
//! Grouping (`AggSum`) needs no runtime work in this model: multiplicities are
//! combined additively by the accumulating sink, and multiplication
//! distributes over addition in the GMR ring, so emitting ungrouped rows is
//! denotationally identical to grouping eagerly. What `AggSum` *does* affect
//! is lowering-time scope: variables bound inside the aggregate and not in its
//! group-by list go out of scope, so a later mention of the same name compiles
//! to a fresh slot — mirroring the interpreter's schema projection. The two
//! non-linear operators are handled specially: [`Op::Exists`] materializes its
//! input into a reusable scratch group map and clamps each group to
//! multiplicity one; nested aggregates in scalar position become
//! [`Scalar::SubSum`], a sub-plan whose emissions are summed into a single
//! value.
//!
//! ## Slot / frame discipline
//!
//! Slots are allocated during lowering, trigger variables first (slot `i` =
//! trigger variable `i`, which is how the engine seeds the frame from the
//! event tuple), then one slot per binder (atom argument first occurrence,
//! lift target) in evaluation order. Slots are never reused — the frame is a
//! few dozen values at most — and lowering guarantees every slot is written
//! before it is read, so the executor never checks for unbound slots. A name
//! already in scope is never re-bound: a repeated atom argument becomes a
//! pattern constraint (bound) or an equality check (free repetition), and a
//! lift onto a bound name becomes an equality filter, matching the
//! interpreter's context semantics.
//!
//! ## Lowering rules (sketch)
//!
//! | AGCA form | lowers to |
//! |---|---|
//! | `Const(c)` / `Var(x)` in multiplicity position | [`Op::ConstMult`] / [`Op::SlotMult`] |
//! | `R(args)` all-bound | [`Op::Probe`] (single map probe) |
//! | `R(args)` with free args | [`Op::Scan`] (index-backed cursor, binds slots) |
//! | `A * B * …` | [`Op::Product`] in statically hoisted order |
//! | `A + B + …` | [`Op::Sum`] with per-term slot unification |
//! | `-A` | [`Op::Neg`] (multiplicity negation) |
//! | `Sum_gb(A)` | [`Op::AggSum`] (scope projection; grouping deferred to the sink) |
//! | `x := e`, `x` unbound / bound | [`Op::LiftBind`] / [`Op::LiftEq`] |
//! | `l op r` | [`Op::CmpFilter`] |
//! | `Exists(A)` | [`Op::Exists`] (scratch group map, clamp to 1) |
//! | scalar positions | [`Scalar`] (value-level ops + [`Scalar::SubSum`] sub-plans) |
//!
//! Lowering is best-effort: any construct whose static boundness cannot be
//! established (an unbound variable, sum terms with mismatched outputs, a
//! collection with unbound columns in scalar position, a non-numeric constant
//! in multiplicity position) makes [`lower_statement`] return `None` and the
//! engine falls back to the AST interpreter for that statement — which is also
//! the differential-testing oracle for the statements that *do* compile.
//!
//! ## Range sums over ordered indexes
//!
//! Statements like axfinder's spend their time in a *prelude*: a fused scan
//! over a loop-invariant map filtered by a range predicate on the event tuple
//! (`b_price > t_price + k`, say) — an inequality self-join, in the query.
//! Lowering detects this shape statically ([`BandSpec`]): a fused-scan
//! comparison whose two sides are linear in exactly one scan-bound key slot
//! with `±1` coefficients, rearranged into `key < bound` / `key > bound` (or
//! their inclusive forms) where `bound` is computable before the scan binds
//! anything. A member made only of such comparisons is the sum of the
//! multiplicities whose key falls in one interval. When the scan binds at
//! least one column by equality, leaves exactly one column free and every
//! member is such a sum over that column, the scan is a **range-sum scan**
//! ([`FusedScan::band_pos`]): the compiler declares the scan's secondary
//! index *ordered* on the free column, the store keeps each group of it as a
//! sorted run with running sums, and the executor answers every member with
//! one [`RelationSource::range_sums`] call — two binary searches per interval
//! end instead of a walk over the group — on every execution: a single
//! event, an entry of a delta run, or a firing of the batch-delta live pass,
//! which reads the same stored maps. A scan of that kind that does not
//! qualify is traversed, and EXPLAIN says what disqualified it
//! ([`FusedScan::range_sum_bail`]).
//!
//! **Exactness.** A difference of running sums reassociates the float
//! additions a traversal would do, and the rearranged comparison is only an
//! *algebraic* identity, so a range sum is used only where both are exact:
//! every multiplicity and every key of the addressed group a finite
//! integer-valued double (keys non-zero), `Σ|multiplicity| < 2^53`, every
//! bound-expression leaf a non-zero integer, and the bound magnitudes plus
//! the largest key below `2^53`. The executor checks the bounds per lookup,
//! the index keeps count of the entries that break the rest per group (see
//! the runtime's `ordered` module), and any violation sends that one lookup
//! down the plain traversal — counted as a `banded_bail` — so the two ways of
//! computing a member are bit-identical, not approximately equal.

use crate::eval::{matches_pattern, product_order_by, EvalError, RelationSource};
use crate::expr::{CmpOp, Expr, RelRef, ScalarFn};
use dbtoaster_gmr::{FastMap, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// A pre-resolved frame index (see the module docs on slot discipline).
pub type Slot = u16;

/// A compiled scalar expression: evaluates to a single [`Value`] against the
/// frame, mirroring the interpreter's `eval_scalar_with`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Scalar {
    /// A literal value.
    Const(Value),
    /// The current value of a frame slot.
    Slot(Slot),
    /// Value-level negation.
    Neg(Box<Scalar>),
    /// Value-level sum (folded left-to-right from `0`, like the interpreter).
    Add(Vec<Scalar>),
    /// Value-level product (folded left-to-right from `1`).
    Mul(Vec<Scalar>),
    /// Scalar function application.
    Apply(ScalarFn, Vec<Scalar>),
    /// A comparison in scalar position, yielding `1.0` / `0.0` as a double
    /// (the interpreter routes this through a scalar GMR, producing a double).
    Cmp(CmpOp, Box<Scalar>, Box<Scalar>),
    /// A collection expression in scalar position whose output columns are all
    /// bound (e.g. a decorrelated nested aggregate probed with its keys): run
    /// the sub-plan and sum the emitted multiplicities.
    SubSum(Box<Op>),
}

/// One operator of a compiled plan. Each op receives an incoming multiplicity,
/// optionally binds frame slots, and emits zero or more continuations
/// downstream (see the module docs on the pipeline execution model).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Emit a constant multiplicity.
    ConstMult(f64),
    /// Emit a slot's numeric value as a multiplicity.
    SlotMult(Slot),
    /// Emit a computed scalar's numeric value as a multiplicity.
    ScalarMult(Scalar),
    /// Fully bound atom lookup: fill the pattern buffer from `template` and
    /// emit the stored multiplicity of the single matching tuple, if present.
    Probe {
        /// Relation / view / map name.
        rel: String,
        /// Pattern buffer index (see [`KernelState`]).
        buf: u16,
        /// One frame slot per atom position.
        template: Vec<Slot>,
    },
    /// Cursor over an atom with free positions: for every tuple matching the
    /// bound positions, check free-position equalities (repeated variables),
    /// bind the `binds` slots from the tuple and emit its multiplicity.
    Scan {
        /// Relation / view / map name.
        rel: String,
        /// Pattern buffer index (see [`KernelState`]).
        buf: u16,
        /// Per position: `Some(slot)` = bound hole filled from the frame,
        /// `None` = free.
        template: Vec<Option<Slot>>,
        /// `(tuple position, frame slot)` bindings for first occurrences of
        /// free variables.
        binds: Vec<(u16, Slot)>,
        /// `(position, earlier position)` equality checks for repeated free
        /// variables.
        eqs: Vec<(u16, u16)>,
    },
    /// Natural join: run the factors as nested loops, in the statically chosen
    /// order, multiplying multiplicities.
    Product(Vec<Op>),
    /// Generalized union: run every term against the same downstream
    /// continuation (distributivity makes this exact in the GMR ring).
    Sum(Vec<Op>),
    /// Additive inverse: negate the inner multiplicities.
    Neg(Box<Op>),
    /// Group-by summation. Grouping itself is deferred to the accumulating
    /// sink; the marker documents the scope projection applied at lowering.
    AggSum(Box<Op>),
    /// Bind a slot to a computed scalar and emit multiplicity 1 (a lift whose
    /// target is unbound).
    LiftBind {
        /// Slot to bind.
        slot: Slot,
        /// Value to bind it to.
        value: Scalar,
    },
    /// A lift onto an already-bound variable: emit 1 if the computed value
    /// equals the slot's current value, else prune.
    LiftEq {
        /// Slot holding the previously bound value.
        slot: Slot,
        /// Value to compare against.
        value: Scalar,
    },
    /// Comparison filter: emit 1 if the comparison holds, else prune.
    CmpFilter {
        /// Comparison operator.
        cmp: CmpOp,
        /// Left operand.
        left: Scalar,
        /// Right operand.
        right: Scalar,
    },
    /// Domain operator: materialize the inner emissions into a scratch group
    /// map keyed by the slots the inner plan binds, then emit multiplicity 1
    /// per surviving (non-cancelled) group.
    Exists {
        /// The materialized sub-plan.
        inner: Box<Op>,
        /// Slots the inner plan binds (the group key; rebound per group when
        /// re-emitting).
        slots: Vec<Slot>,
        /// Scratch map index (see [`KernelState`]).
        scratch: u16,
    },
}

/// A numeric-only compiled scalar, evaluated directly on `f64`s in the fused
/// fast path. Exactness relative to the [`Value`]-level evaluator is
/// guaranteed by construction plus runtime guards: pure-integer chains bail
/// out (to the exact general path) whenever a leaf or intermediate magnitude
/// exceeds 2^53, and string-valued slots bail at the leaf.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NumExpr {
    /// A numeric literal.
    Const(f64),
    /// A frame slot (must hold a numeric at runtime; strings bail).
    Slot(Slot),
    /// Negation.
    Neg(Box<NumExpr>),
    /// Left-folded sum.
    Add(Vec<NumExpr>),
    /// Left-folded product.
    Mul(Vec<NumExpr>),
}

/// One step of a fast fused-member pipeline, mirroring the general ops in
/// order (so zero-weight short-circuits behave identically).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FastOp {
    /// A comparison filter.
    Pred(CmpOp, NumExpr, NumExpr),
    /// A multiplicative weight.
    Weight(NumExpr),
}

/// One member of a [`FusedScan`]: the per-entry continuation (filters and
/// weights) of one hoisted sub-aggregate, summed into `dest`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FusedMember {
    /// Ops applied to every scanned entry (no further iteration sources).
    pub cont: Vec<Op>,
    /// Numeric specialization of `cont`, used when present and falling back
    /// to `cont` per entry whenever a guard trips (see [`NumExpr`]).
    pub fast: Option<Vec<FastOp>>,
    /// Frame slot receiving the member's total (as a double).
    pub dest: Slot,
    /// Range-sum specialization of `fast`: present when every fast op is a
    /// range comparison linear in one scanned column (see [`BandSpec`]).
    pub band: Option<BandSpec>,
}

/// A range-sum specialization of one fused member: every op of its fast
/// pipeline is a range comparison (`<`, `<=`, `>`, `>=`) that is linear, with
/// coefficient ±1, in exactly one scanned column — so the member's total is
/// the sum of the multiplicities of the entries whose key falls in one
/// interval, which an ordered index answers with two binary searches per
/// interval end instead of a traversal (axfinder's six price-band aggregates
/// are the canonical case: O(log n) per event instead of O(n)).
///
/// Bit-exactness with the traversal is guaranteed by runtime guards, not by
/// construction: the range sum is used only when every key and multiplicity
/// of the addressed group and every bound-expression leaf is a nonzero
/// integer-valued finite number and all magnitude sums stay below 2^53. In
/// that regime every f64 addition both paths perform is exact integer
/// arithmetic, so the algebraic rearrangement `price - key > 1000 ⇔ key <
/// price - 1000` is an identity and differences of running sums equal the
/// traversal's accumulators. Any guard violation falls back to the full
/// traversal for that one execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BandSpec {
    /// The scanned tuple position whose value is the band key.
    pub key_pos: u16,
    /// Normalized constraints `key cmp bound`, all of which must hold. The
    /// bound expressions read only slots that are invariant during the scan
    /// (trigger slots), never scan-bound slots.
    pub ranges: Vec<(CmpOp, NumExpr)>,
}

/// A loop-invariant sub-aggregate scan hoisted into the statement prelude.
///
/// Several [`Scalar::SubSum`] sub-plans of one statement often traverse the
/// same bucket with the same pattern (axfinder's six `Sum[](M(bk,p) * filter)`
/// terms are the canonical case). Because such a sub-plan reads only trigger
/// slots (plus what its own scan binds), its value is the same wherever in the
/// statement it is evaluated — so it is computed **once**, before the main
/// plan, and sub-plans sharing a scan signature share a **single** bucket
/// traversal with one accumulator per member. The main plan then just reads
/// the result slots. (The prelude runs unconditionally, even when the main
/// plan would short-circuit on a zero factor; the store is read-only during a
/// statement, so this can never change a result.)
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FusedScan {
    /// Relation / view / map name.
    pub rel: String,
    /// Pattern buffer index (see [`KernelState`]).
    pub buf: u16,
    /// Per position: `Some(slot)` = bound hole filled from the frame,
    /// `None` = free.
    pub template: Vec<Option<Slot>>,
    /// Union of all members' `(tuple position, frame slot)` bindings.
    pub binds: Vec<(u16, Slot)>,
    /// `(position, earlier position)` equality checks.
    pub eqs: Vec<(u16, u16)>,
    /// The fused sub-aggregates.
    pub members: Vec<FusedMember>,
    /// Does the scan read nothing from the trigger slots (neither through its
    /// template holes nor through any member's filters/weights)? Such a scan
    /// produces the same totals for every entry of a delta batch, so the
    /// batch executor runs it **once per batch** instead of once per entry
    /// (see [`CompiledStmt::execute_batch_entry`]).
    pub entry_invariant: bool,
    /// The scanned position a range-sum scan sums over: set when the
    /// template binds at least one position, leaves exactly this one free,
    /// and every member (at most [`MAX_RANGE_MEMBERS`]) carries a
    /// [`BandSpec`] on it. The scan's `(relation, bound positions)` index is
    /// then declared ordered on this position and the traversal is replaced
    /// by one [`RelationSource::range_sums`] call (see the module docs).
    pub band_pos: Option<u16>,
}

/// A compiled trigger statement: the lowered right-hand side plus the
/// pre-resolved key slots and the buffer shapes its execution needs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompiledStmt {
    /// Hoisted loop-invariant sub-aggregate scans, run before `plan` (see
    /// [`FusedScan`]).
    pub prelude: Vec<FusedScan>,
    /// The lowered right-hand side.
    pub plan: Op,
    /// One frame slot per target key column, in key order.
    pub key_slots: Vec<Slot>,
    /// Total number of frame slots the plan addresses.
    pub frame_size: u16,
    /// Arity of each pattern buffer used by the plan's atoms.
    pub pattern_arities: Vec<u16>,
    /// Number of scratch group maps used by `Exists` operators.
    pub scratch_maps: u16,
    /// Number of leading frame slots seeded from the event tuple.
    pub trigger_slots: u16,
    /// The trigger slots the plan (or its prelude, or the key) actually
    /// reads, sorted. Seeding only these — instead of the full event tuple —
    /// matters for wide schemas: a TPC-H lineitem statement typically touches
    /// 3–5 of 16 columns, and per-entry seeding is a large share of a small
    /// kernel's batch cost.
    pub used_trigger_slots: Vec<Slot>,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Why a statement could not be lowered (the engine falls back to the
/// interpreter; the reason is only used by tests and diagnostics).
#[derive(Clone, Copy, Debug)]
pub struct Unsupported(pub &'static str);

struct Lowerer {
    /// Visible bindings, innermost last (mirrors the interpreter's context +
    /// accumulator columns at every point of the recursion).
    scope: Vec<(String, Slot)>,
    /// Slot pins for sum-term unification: while lowering the later terms of a
    /// `Sum`, binders reuse the slot the first term assigned to the same name,
    /// so downstream slot references are term-independent. A pinned slot's
    /// former binding is out of scope whenever a later binder claims it, so
    /// reuse never aliases two live values.
    pinned: Vec<(String, Slot)>,
    next_slot: u32,
    pattern_arities: Vec<u16>,
    scratch_maps: u16,
}

impl Lowerer {
    fn new() -> Self {
        Lowerer {
            scope: Vec::new(),
            pinned: Vec::new(),
            next_slot: 0,
            pattern_arities: Vec::new(),
            scratch_maps: 0,
        }
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    fn bind(&mut self, name: &str) -> Result<Slot, Unsupported> {
        let slot = match self.pinned.iter().rev().find(|(n, _)| n == name) {
            Some(&(_, s)) => s,
            None => {
                if self.next_slot >= u16::MAX as u32 {
                    return Err(Unsupported("frame slot overflow"));
                }
                let s = self.next_slot as Slot;
                self.next_slot += 1;
                s
            }
        };
        self.scope.push((name.to_string(), slot));
        Ok(slot)
    }

    fn alloc_pattern(&mut self, arity: usize) -> Result<u16, Unsupported> {
        if arity > u16::MAX as usize || self.pattern_arities.len() >= u16::MAX as usize {
            return Err(Unsupported("pattern buffer overflow"));
        }
        self.pattern_arities.push(arity as u16);
        Ok((self.pattern_arities.len() - 1) as u16)
    }

    fn lower_op(&mut self, e: &Expr) -> Result<Op, Unsupported> {
        match e {
            Expr::Const(v) => match v.as_f64() {
                Ok(f) => Ok(Op::ConstMult(f)),
                Err(_) => Err(Unsupported("non-numeric constant in multiplicity position")),
            },
            Expr::Var(x) => self
                .lookup(x)
                .map(Op::SlotMult)
                .ok_or(Unsupported("unbound variable in multiplicity position")),
            Expr::Rel(r) => self.lower_atom(r),
            Expr::Add(terms) => self.lower_sum(terms),
            Expr::Mul(factors) => self.lower_product(factors),
            Expr::Neg(inner) => Ok(Op::Neg(Box::new(self.lower_op(inner)?))),
            Expr::AggSum(gb, inner) => {
                let mark = self.scope.len();
                let inner = self.lower_op(inner)?;
                // Keep the group-by columns bound by the inner plan visible;
                // everything else the inner plan bound goes out of scope
                // (the interpreter projects the result onto `gb`).
                let mut keep: Vec<(String, Slot)> = Vec::new();
                for g in gb {
                    let pos = self
                        .scope
                        .iter()
                        .rposition(|(n, _)| n == g)
                        .ok_or(Unsupported("unbound group-by variable"))?;
                    if pos >= mark && !keep.iter().any(|(n, _)| n == g) {
                        keep.push(self.scope[pos].clone());
                    }
                }
                self.scope.truncate(mark);
                if keep.is_empty() {
                    // The aggregate exposes no new bindings downstream (its
                    // group-by columns, if any, are all outer-bound, so every
                    // group collapses onto the context's key). It is therefore
                    // a pure scalar factor: sum the inner emissions into one
                    // value instead of streaming per-entry rows — this is what
                    // turns axfinder-style statements with half a dozen
                    // `Sum[](M(bk,p) * filter)` terms from O(entries) map
                    // writes per event into O(terms).
                    return Ok(Op::ScalarMult(Scalar::SubSum(Box::new(Op::AggSum(
                        Box::new(inner),
                    )))));
                }
                self.scope.extend(keep);
                Ok(Op::AggSum(Box::new(inner)))
            }
            Expr::Lift(x, body) => {
                let value = self.lower_scalar(body)?;
                match self.lookup(x) {
                    Some(slot) => Ok(Op::LiftEq { slot, value }),
                    None => {
                        let slot = self.bind(x)?;
                        Ok(Op::LiftBind { slot, value })
                    }
                }
            }
            Expr::Cmp(op, l, r) => Ok(Op::CmpFilter {
                cmp: *op,
                left: self.lower_scalar(l)?,
                right: self.lower_scalar(r)?,
            }),
            Expr::Exists(inner) => {
                let mark = self.scope.len();
                let inner = self.lower_op(inner)?;
                let slots: Vec<Slot> = self.scope[mark..].iter().map(|&(_, s)| s).collect();
                if self.scratch_maps == u16::MAX {
                    return Err(Unsupported("scratch map overflow"));
                }
                let scratch = self.scratch_maps;
                self.scratch_maps += 1;
                // The bindings stay visible: `Exists` preserves its input
                // schema, only multiplicities change.
                Ok(Op::Exists {
                    inner: Box::new(inner),
                    slots,
                    scratch,
                })
            }
            Expr::Apply(f, args) => {
                let args = args
                    .iter()
                    .map(|a| self.lower_scalar(a))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Op::ScalarMult(Scalar::Apply(f.clone(), args)))
            }
        }
    }

    fn lower_atom(&mut self, r: &RelRef) -> Result<Op, Unsupported> {
        let arity = r.args.len();
        let mut template: Vec<Option<Slot>> = Vec::with_capacity(arity);
        let mut eqs: Vec<(u16, u16)> = Vec::new();
        // First free occurrence of each unbound argument name, by position.
        let mut firsts: Vec<(usize, &str)> = Vec::new();
        for (i, a) in r.args.iter().enumerate() {
            if let Some(slot) = self.lookup(a) {
                template.push(Some(slot));
            } else if let Some(&(j, _)) = firsts.iter().find(|(_, n)| *n == a) {
                template.push(None);
                eqs.push((i as u16, j as u16));
            } else {
                template.push(None);
                firsts.push((i, a));
            }
        }
        let buf = self.alloc_pattern(arity)?;
        if firsts.is_empty() && eqs.is_empty() {
            let template: Vec<Slot> = template
                .into_iter()
                .map(|t| t.expect("all bound"))
                .collect();
            return Ok(Op::Probe {
                rel: r.name.clone(),
                buf,
                template,
            });
        }
        let mut binds: Vec<(u16, Slot)> = Vec::with_capacity(firsts.len());
        for (i, a) in firsts {
            binds.push((i as u16, self.bind(a)?));
        }
        Ok(Op::Scan {
            rel: r.name.clone(),
            buf,
            template,
            binds,
            eqs,
        })
    }

    fn lower_product(&mut self, factors: &[Expr]) -> Result<Op, Unsupported> {
        // Statically choose the same evaluation order the interpreter would:
        // boundness at this node is structural, so the per-event analysis
        // moves wholesale to compile time.
        let order = {
            let scope = &self.scope;
            product_order_by(factors, &|n| scope.iter().rev().any(|(s, _)| s == n))
        };
        let mut ops = Vec::with_capacity(factors.len());
        match order {
            Some(perm) => {
                for &i in perm.iter() {
                    ops.push(self.lower_op(&factors[i as usize])?);
                }
            }
            None => {
                for f in factors {
                    ops.push(self.lower_op(f)?);
                }
            }
        }
        Ok(Op::Product(ops))
    }

    fn lower_sum(&mut self, terms: &[Expr]) -> Result<Op, Unsupported> {
        let mark = self.scope.len();
        let pin_mark = self.pinned.len();
        let mut ops = Vec::with_capacity(terms.len());
        let mut first_outputs: Vec<(String, Slot)> = Vec::new();
        for (k, t) in terms.iter().enumerate() {
            self.scope.truncate(mark);
            let op = self.lower_op(t);
            let op = match op {
                Ok(op) => op,
                Err(e) => {
                    self.pinned.truncate(pin_mark);
                    return Err(e);
                }
            };
            let mut outputs: Vec<(String, Slot)> = self.scope[mark..].to_vec();
            outputs.sort();
            if k == 0 {
                first_outputs = outputs;
                // Pin the first term's output slots so later terms' binders
                // land in the same frame positions.
                self.pinned.extend(self.scope[mark..].iter().cloned());
            } else if outputs != first_outputs {
                // The interpreter unions term results by column *set*; terms
                // with different output sets would panic there, and a term
                // binding a pinned name only in a dead inner scope would leave
                // a slot aliased — fall back to interpretation for both.
                self.pinned.truncate(pin_mark);
                return Err(Unsupported("sum terms bind different outputs"));
            }
            ops.push(op);
        }
        self.pinned.truncate(pin_mark);
        self.scope.truncate(mark);
        let restore: Vec<(String, Slot)> = first_outputs;
        self.scope.extend(restore);
        Ok(Op::Sum(ops))
    }

    fn lower_scalar(&mut self, e: &Expr) -> Result<Scalar, Unsupported> {
        match e {
            Expr::Const(v) => Ok(Scalar::Const(v.clone())),
            Expr::Var(x) => self
                .lookup(x)
                .map(Scalar::Slot)
                .ok_or(Unsupported("unbound variable in scalar position")),
            Expr::Neg(inner) => Ok(Scalar::Neg(Box::new(self.lower_scalar(inner)?))),
            Expr::Add(ts) => Ok(Scalar::Add(
                ts.iter()
                    .map(|t| self.lower_scalar(t))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Mul(ts) => Ok(Scalar::Mul(
                ts.iter()
                    .map(|t| self.lower_scalar(t))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Apply(f, args) => Ok(Scalar::Apply(
                f.clone(),
                args.iter()
                    .map(|a| self.lower_scalar(a))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Cmp(op, l, r) => Ok(Scalar::Cmp(
                *op,
                Box::new(self.lower_scalar(l)?),
                Box::new(self.lower_scalar(r)?),
            )),
            // Collection-valued expression in scalar position: compile a
            // sub-plan and sum its emissions. Sound only when every output
            // column is already bound — if the sub-plan binds new visible
            // slots, the interpreter would raise `NotScalar`; fall back.
            Expr::Rel(_) | Expr::AggSum(..) | Expr::Lift(..) | Expr::Exists(_) => {
                let mark = self.scope.len();
                let op = self.lower_op(e)?;
                if self.scope.len() != mark {
                    self.scope.truncate(mark);
                    return Err(Unsupported("unbound columns in scalar position"));
                }
                Ok(Scalar::SubSum(Box::new(op)))
            }
        }
    }
}

/// Lower one trigger statement to a compiled kernel. `trigger_vars` seed frame
/// slots `0..n` (positionally matching the event tuple); `key_vars` name the
/// target map's key columns. Returns `None` when any construct cannot be
/// statically resolved — the engine then interprets this statement.
pub fn lower_statement(
    trigger_vars: &[String],
    key_vars: &[String],
    rhs: &Expr,
) -> Option<CompiledStmt> {
    let mut lw = Lowerer::new();
    for v in trigger_vars {
        // Duplicate trigger variable names shadow like the interpreter's
        // context: every position gets a slot, innermost lookup wins.
        lw.bind(v).ok()?;
    }
    let plan = lw.lower_op(rhs).ok()?;
    // A bound name is never re-bound during lowering, so innermost lookup is
    // equivalent to the interpreter's trigger-bindings-first key resolution.
    let key_slots: Option<Vec<Slot>> = key_vars.iter().map(|kv| lw.lookup(kv)).collect();
    let mut stmt = CompiledStmt {
        prelude: Vec::new(),
        plan,
        key_slots: key_slots?,
        frame_size: lw.next_slot as u16,
        pattern_arities: lw.pattern_arities,
        scratch_maps: lw.scratch_maps,
        trigger_slots: trigger_vars.len() as u16,
        used_trigger_slots: Vec::new(),
    };
    hoist_invariant_subsums(&mut stmt);
    stmt.used_trigger_slots = used_trigger_slots(&stmt);
    Some(stmt)
}

/// The trigger slots a compiled statement consumes: reads of the main plan,
/// reads of every hoisted prelude scan (bound template holes and member
/// continuations), and trigger-bound key slots.
fn used_trigger_slots(stmt: &CompiledStmt) -> Vec<Slot> {
    let mut reads = Vec::new();
    op_reads(&stmt.plan, &mut reads);
    for fs in &stmt.prelude {
        reads.extend(fs.template.iter().flatten().copied());
        for m in &fs.members {
            for op in &m.cont {
                op_reads(op, &mut reads);
            }
        }
    }
    reads.extend(stmt.key_slots.iter().copied());
    reads.retain(|s| (*s as usize) < stmt.trigger_slots as usize);
    reads.sort_unstable();
    reads.dedup();
    reads
}

// ---------------------------------------------------------------------------
// Loop-invariant sub-aggregate hoisting and shared-scan fusion
// ---------------------------------------------------------------------------

/// Slots read by an op tree (frame positions whose value it consumes).
fn op_reads(op: &Op, out: &mut Vec<Slot>) {
    match op {
        Op::ConstMult(_) => {}
        Op::SlotMult(s) => out.push(*s),
        Op::ScalarMult(s) => scalar_reads(s, out),
        Op::Probe { template, .. } => out.extend(template.iter().copied()),
        Op::Scan { template, .. } => out.extend(template.iter().flatten().copied()),
        Op::Product(ops) | Op::Sum(ops) => {
            for o in ops {
                op_reads(o, out);
            }
        }
        Op::Neg(inner) | Op::AggSum(inner) => op_reads(inner, out),
        Op::LiftBind { value, .. } => scalar_reads(value, out),
        Op::LiftEq { slot, value } => {
            out.push(*slot);
            scalar_reads(value, out);
        }
        Op::CmpFilter { left, right, .. } => {
            scalar_reads(left, out);
            scalar_reads(right, out);
        }
        Op::Exists { inner, .. } => op_reads(inner, out),
    }
}

/// Slots written by an op tree (scan bindings, lift targets, exists rebinds).
fn op_writes(op: &Op, out: &mut Vec<Slot>) {
    match op {
        Op::Scan { binds, .. } => out.extend(binds.iter().map(|&(_, s)| s)),
        Op::Product(ops) | Op::Sum(ops) => {
            for o in ops {
                op_writes(o, out);
            }
        }
        Op::Neg(inner) | Op::AggSum(inner) => op_writes(inner, out),
        Op::LiftBind { slot, .. } => out.push(*slot),
        Op::Exists { inner, slots, .. } => {
            out.extend(slots.iter().copied());
            op_writes(inner, out);
        }
        Op::ScalarMult(s) | Op::LiftEq { value: s, .. } => scalar_writes(s, out),
        Op::CmpFilter { left, right, .. } => {
            scalar_writes(left, out);
            scalar_writes(right, out);
        }
        Op::ConstMult(_) | Op::SlotMult(_) | Op::Probe { .. } => {}
    }
}

fn scalar_reads(s: &Scalar, out: &mut Vec<Slot>) {
    match s {
        Scalar::Const(_) => {}
        Scalar::Slot(slot) => out.push(*slot),
        Scalar::Neg(inner) => scalar_reads(inner, out),
        Scalar::Add(xs) | Scalar::Mul(xs) | Scalar::Apply(_, xs) => {
            for x in xs {
                scalar_reads(x, out);
            }
        }
        Scalar::Cmp(_, l, r) => {
            scalar_reads(l, out);
            scalar_reads(r, out);
        }
        Scalar::SubSum(op) => op_reads(op, out),
    }
}

fn scalar_writes(s: &Scalar, out: &mut Vec<Slot>) {
    match s {
        Scalar::SubSum(op) => op_writes(op, out),
        Scalar::Neg(inner) => scalar_writes(inner, out),
        Scalar::Add(xs) | Scalar::Mul(xs) | Scalar::Apply(_, xs) => {
            for x in xs {
                scalar_writes(x, out);
            }
        }
        Scalar::Cmp(_, l, r) => {
            scalar_writes(l, out);
            scalar_writes(r, out);
        }
        Scalar::Const(_) | Scalar::Slot(_) => {}
    }
}

/// May `op` appear in a fused member's per-entry continuation? Anything
/// without a further iteration source or sub-plan qualifies.
fn simple_cont_op(op: &Op) -> bool {
    match op {
        Op::ConstMult(_) | Op::SlotMult(_) => true,
        Op::ScalarMult(s) | Op::LiftBind { value: s, .. } | Op::LiftEq { value: s, .. } => {
            simple_scalar(s)
        }
        Op::CmpFilter { left, right, .. } => simple_scalar(left) && simple_scalar(right),
        Op::Product(ops) | Op::Sum(ops) => ops.iter().all(simple_cont_op),
        Op::Neg(inner) | Op::AggSum(inner) => simple_cont_op(inner),
        Op::Probe { .. } | Op::Scan { .. } | Op::Exists { .. } => false,
    }
}

fn simple_scalar(s: &Scalar) -> bool {
    match s {
        Scalar::Const(_) | Scalar::Slot(_) => true,
        Scalar::Neg(inner) => simple_scalar(inner),
        Scalar::Add(xs) | Scalar::Mul(xs) | Scalar::Apply(_, xs) => xs.iter().all(simple_scalar),
        Scalar::Cmp(_, l, r) => simple_scalar(l) && simple_scalar(r),
        Scalar::SubSum(_) => false,
    }
}

struct Hoister {
    trigger_slots: u16,
    next_slot: u32,
    groups: Vec<FusedScan>,
}

impl Hoister {
    fn hoist_op(&mut self, op: &mut Op) {
        match op {
            Op::ScalarMult(s) => self.hoist_scalar(s),
            Op::Product(ops) | Op::Sum(ops) => {
                for o in ops {
                    self.hoist_op(o);
                }
            }
            Op::Neg(inner) | Op::AggSum(inner) => self.hoist_op(inner),
            Op::LiftBind { value, .. } | Op::LiftEq { value, .. } => self.hoist_scalar(value),
            Op::CmpFilter { left, right, .. } => {
                self.hoist_scalar(left);
                self.hoist_scalar(right);
            }
            Op::Exists { inner, .. } => self.hoist_op(inner),
            Op::ConstMult(_) | Op::SlotMult(_) | Op::Probe { .. } | Op::Scan { .. } => {}
        }
    }

    fn hoist_scalar(&mut self, s: &mut Scalar) {
        match s {
            Scalar::SubSum(op) => {
                // Hoist inner sub-sums first (a nested eligible aggregate may
                // make the outer one simple enough too — and is itself worth
                // hoisting regardless).
                self.hoist_op(op);
                if let Some(dest) = self.try_extract(op) {
                    *s = Scalar::Slot(dest);
                }
            }
            Scalar::Neg(inner) => self.hoist_scalar(inner),
            Scalar::Add(xs) | Scalar::Mul(xs) | Scalar::Apply(_, xs) => {
                for x in xs {
                    self.hoist_scalar(x);
                }
            }
            Scalar::Cmp(_, l, r) => {
                self.hoist_scalar(l);
                self.hoist_scalar(r);
            }
            Scalar::Const(_) | Scalar::Slot(_) => {}
        }
    }

    /// Extract a `SubSum` plan of shape `AggSum*(Product[Scan, cont…])` (or a
    /// bare scan) whose reads are confined to trigger slots plus its own
    /// bindings, merging it into a fused prelude scan. Returns the result
    /// slot on success.
    fn try_extract(&mut self, op: &Op) -> Option<Slot> {
        // Strip grouping markers (grouping is a no-op for an accumulating sink).
        let mut body = op;
        while let Op::AggSum(inner) = body {
            body = inner;
        }
        let (scan, cont) = match body {
            Op::Scan { .. } => (body, &[][..]),
            Op::Product(ops) => match ops.split_first() {
                Some((first @ Op::Scan { .. }, rest)) => (first, rest),
                _ => return None,
            },
            _ => return None,
        };
        if !cont.iter().all(simple_cont_op) {
            return None;
        }
        let Op::Scan {
            rel,
            buf,
            template,
            binds,
            eqs,
        } = scan
        else {
            return None;
        };
        // Invariance: every slot the sub-plan reads is either a trigger slot
        // or written by the sub-plan itself (its scan bindings and any
        // internal lifts).
        let mut reads = Vec::new();
        op_reads(body, &mut reads);
        let mut own = Vec::new();
        op_writes(body, &mut own);
        if !reads
            .iter()
            .all(|s| (*s as usize) < self.trigger_slots as usize || own.contains(s))
        {
            return None;
        }
        if self.next_slot >= u16::MAX as u32 {
            return None;
        }
        // Batch invariance: a sub-plan that reads no trigger slot at all (its
        // reads are entirely its own bindings) computes the same total for
        // every entry of a delta batch.
        let entry_invariant = !reads
            .iter()
            .any(|s| (*s as usize) < self.trigger_slots as usize);
        let dest = self.next_slot as Slot;
        self.next_slot += 1;
        let fast = compile_fast(cont);
        let band = fast.as_deref().and_then(|f| member_band(f, binds));
        let member = FusedMember {
            fast,
            cont: cont.to_vec(),
            dest,
            band,
        };
        // With equal templates and equality checks, the bound positions are
        // fully determined (first free occurrences), so (rel, template, eqs)
        // is the complete scan signature.
        if let Some(group) = self
            .groups
            .iter_mut()
            .find(|g| g.rel == *rel && g.template == *template && g.eqs == *eqs)
        {
            // Same scan signature: share the traversal; each member keeps its
            // own bind slots (written together per entry). One variant member
            // makes the whole traversal per-entry (re-accumulating invariant
            // members redundantly but correctly).
            for &b in binds {
                if !group.binds.contains(&b) {
                    group.binds.push(b);
                }
            }
            group.members.push(member);
            group.entry_invariant &= entry_invariant;
            return Some(dest);
        }
        self.groups.push(FusedScan {
            rel: rel.clone(),
            buf: *buf,
            template: template.clone(),
            binds: binds.clone(),
            eqs: eqs.clone(),
            members: vec![member],
            entry_invariant,
            band_pos: None,
        });
        Some(dest)
    }
}

/// `a cmp b ⇔ b mirror(cmp) a`.
fn mirror_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Flatten an `Add`/`Neg` tree into signed `Slot`/`Const` leaves
/// (`true` = negated). Returns `false` if the tree contains `Mul` — such
/// predicates stay on the per-entry path.
fn flatten_linear(e: &NumExpr, neg: bool, out: &mut Vec<(bool, NumExpr)>) -> bool {
    match e {
        NumExpr::Const(_) | NumExpr::Slot(_) => {
            out.push((neg, e.clone()));
            true
        }
        NumExpr::Neg(x) => flatten_linear(x, !neg, out),
        NumExpr::Add(xs) => xs.iter().all(|x| flatten_linear(x, neg, out)),
        NumExpr::Mul(_) => false,
    }
}

/// Rebuild a flat signed-leaf list into a [`NumExpr`].
fn bound_expr(leaves: Vec<(bool, NumExpr)>) -> NumExpr {
    let mut terms: Vec<NumExpr> = leaves
        .into_iter()
        .map(|(n, e)| if n { NumExpr::Neg(Box::new(e)) } else { e })
        .collect();
    match terms.len() {
        0 => NumExpr::Const(0.0),
        1 => terms.pop().unwrap(),
        _ => NumExpr::Add(terms),
    }
}

/// Derive a [`BandSpec`] from a member's fast pipeline against the member's
/// own scan bindings: no weights, and every predicate a range comparison in
/// which exactly one leaf — always over the same scanned position — is a
/// scan-bound slot with coefficient ±1 (reachable through `Add`/`Neg` only).
/// Each predicate is rearranged into `key cmp bound`; the rearrangement is an
/// *algebraic* identity, made exact at run time by the integer guards
/// documented on [`BandSpec`].
fn member_band(fast: &[FastOp], binds: &[(u16, Slot)]) -> Option<BandSpec> {
    let key_slot = |e: &NumExpr| match e {
        NumExpr::Slot(s) => binds.iter().find(|(_, bs)| bs == s).map(|(p, _)| *p),
        _ => None,
    };
    let mut key_pos: Option<u16> = None;
    let mut ranges = Vec::new();
    for op in fast {
        let FastOp::Pred(cmp, l, r) = op else {
            return None;
        };
        if matches!(cmp, CmpOp::Eq | CmpOp::Ne) {
            return None;
        }
        let mut left = Vec::new();
        let mut right = Vec::new();
        if !flatten_linear(l, false, &mut left) || !flatten_linear(r, false, &mut right) {
            return None;
        }
        let lk: Vec<usize> = (0..left.len())
            .filter(|&i| key_slot(&left[i].1).is_some())
            .collect();
        let rk: Vec<usize> = (0..right.len())
            .filter(|&i| key_slot(&right[i].1).is_some())
            .collect();
        let (key_in_left, idx) = match (lk.as_slice(), rk.as_slice()) {
            ([i], []) => (true, *i),
            ([], [i]) => (false, *i),
            _ => return None,
        };
        let (mut rest, other) = if key_in_left {
            (left, right)
        } else {
            (right, left)
        };
        let (negated, key_leaf) = rest.remove(idx);
        let pos = key_slot(&key_leaf).unwrap();
        if *key_pos.get_or_insert(pos) != pos {
            return None;
        }
        // Orient the key's side left: `±key + rest cmp_l other`.
        let cmp_l = if key_in_left { *cmp } else { mirror_cmp(*cmp) };
        let (cmp_k, bound) = if !negated {
            // key cmp_l other - rest
            let terms: Vec<_> = other
                .into_iter()
                .chain(rest.into_iter().map(|(n, e)| (!n, e)))
                .collect();
            (cmp_l, terms)
        } else {
            // -key + rest cmp_l other ⇔ key mirror(cmp_l) rest - other
            let terms: Vec<_> = rest
                .into_iter()
                .chain(other.into_iter().map(|(n, e)| (!n, e)))
                .collect();
            (mirror_cmp(cmp_l), terms)
        };
        ranges.push((cmp_k, bound_expr(bound)));
    }
    key_pos.map(|kp| BandSpec {
        key_pos: kp,
        ranges,
    })
}

/// Specialize a fused member's continuation into numeric fast ops, when every
/// step is a comparison filter or a multiplicative weight over numeric-only
/// scalars. Returns `None` (general path only) otherwise.
fn compile_fast(cont: &[Op]) -> Option<Vec<FastOp>> {
    cont.iter()
        .map(|op| match op {
            Op::CmpFilter { cmp, left, right } => {
                Some(FastOp::Pred(*cmp, num_expr(left)?, num_expr(right)?))
            }
            Op::ConstMult(c) => Some(FastOp::Weight(NumExpr::Const(*c))),
            Op::SlotMult(s) => Some(FastOp::Weight(NumExpr::Slot(*s))),
            Op::ScalarMult(s) => Some(FastOp::Weight(num_expr(s)?)),
            _ => None,
        })
        .collect()
}

fn num_expr(s: &Scalar) -> Option<NumExpr> {
    match s {
        // Integer literals beyond 2^53 are not exactly representable; leave
        // the member on the exact general path.
        Scalar::Const(Value::Long(v)) if v.unsigned_abs() <= (1u64 << 53) => {
            Some(NumExpr::Const(*v as f64))
        }
        Scalar::Const(Value::Double(d)) => Some(NumExpr::Const(*d)),
        Scalar::Slot(slot) => Some(NumExpr::Slot(*slot)),
        Scalar::Neg(inner) => Some(NumExpr::Neg(Box::new(num_expr(inner)?))),
        Scalar::Add(xs) => Some(NumExpr::Add(
            xs.iter().map(num_expr).collect::<Option<_>>()?,
        )),
        Scalar::Mul(xs) => Some(NumExpr::Mul(
            xs.iter().map(num_expr).collect::<Option<_>>()?,
        )),
        _ => None,
    }
}

/// 2^53: integers of smaller magnitude are exactly representable in an `f64`,
/// and so is every sum of them that stays below it — the bound of every
/// exactness guard here and in the runtime's ordered indexes.
pub const EXACT_INT_BOUND: f64 = (1u64 << 53) as f64;

/// Evaluate a [`NumExpr`] against the frame. Returns `(value, int_pure)`
/// where `int_pure` tracks whether the [`Value`]-level evaluator would have
/// stayed in exact `i64` arithmetic; `None` bails to the general path (string
/// slot, or an exact-integer chain leaving the 2^53-safe range).
fn eval_num(e: &NumExpr, frame: &[Value]) -> Option<(f64, bool)> {
    match e {
        NumExpr::Const(c) => Some((*c, c.fract() == 0.0 && c.abs() <= EXACT_INT_BOUND)),
        NumExpr::Slot(slot) => match &frame[*slot as usize] {
            Value::Long(v) => {
                if v.unsigned_abs() <= (1u64 << 53) {
                    Some((*v as f64, true))
                } else {
                    None
                }
            }
            Value::Double(d) => Some((*d, false)),
            Value::Str(_) => None,
        },
        NumExpr::Neg(inner) => {
            let (v, ip) = eval_num(inner, frame)?;
            Some((-v, ip))
        }
        NumExpr::Add(xs) => {
            let mut acc = 0.0;
            let mut ip = true;
            for x in xs {
                let (v, xp) = eval_num(x, frame)?;
                acc += v;
                ip &= xp;
                // `>=`: a result of exactly 2^53 may itself be 2^53+1 rounded
                // down, while i64 arithmetic would have stayed exact.
                if ip && acc.abs() >= EXACT_INT_BOUND {
                    return None;
                }
            }
            Some((acc, ip))
        }
        NumExpr::Mul(xs) => {
            let mut acc = 1.0;
            let mut ip = true;
            for x in xs {
                let (v, xp) = eval_num(x, frame)?;
                acc *= v;
                ip &= xp;
                if ip && acc.abs() >= EXACT_INT_BOUND {
                    return None;
                }
            }
            Some((acc, ip))
        }
    }
}

/// Evaluate a range-sum bound: `Add`/`Neg` folds over finite, nonzero,
/// integer-valued leaves only. Returns `(value, Σ|leaf|)`; the magnitude sum
/// is what bounds every intermediate of both the original and the rearranged
/// comparison (see [`BandSpec`]). `None` = fall back to the full traversal.
fn eval_bound(e: &NumExpr, frame: &[Value]) -> Option<(f64, f64)> {
    match e {
        NumExpr::Const(c) => bound_leaf(*c),
        NumExpr::Slot(s) => match &frame[*s as usize] {
            Value::Long(v) if v.unsigned_abs() <= (1u64 << 53) => bound_leaf(*v as f64),
            Value::Double(d) => bound_leaf(*d),
            _ => None,
        },
        NumExpr::Neg(x) => {
            let (v, mag) = eval_bound(x, frame)?;
            Some((-v, mag))
        }
        NumExpr::Add(xs) => {
            let (mut acc, mut mag) = (0.0f64, 0.0f64);
            for x in xs {
                let (v, m) = eval_bound(x, frame)?;
                acc += v;
                mag += m;
            }
            (mag < EXACT_INT_BOUND).then_some((acc, mag))
        }
        NumExpr::Mul(_) => None,
    }
}

fn bound_leaf(v: f64) -> Option<(f64, f64)> {
    (v.is_finite() && v.fract() == 0.0 && v != 0.0 && v.abs() <= EXACT_INT_BOUND)
        .then(|| (v, v.abs()))
}

/// Evaluate a comparison exactly as `CmpOp::eval` does on numeric [`Value`]s:
/// equality through `Value`'s normalized bit patterns, ordering through IEEE
/// `total_cmp`.
#[inline]
fn num_cmp(op: CmpOp, l: f64, r: f64) -> bool {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => Value::numeric_bits(l) == Value::numeric_bits(r),
        CmpOp::Ne => Value::numeric_bits(l) != Value::numeric_bits(r),
        CmpOp::Lt => l.total_cmp(&r) == Ordering::Less,
        CmpOp::Le => l.total_cmp(&r) != Ordering::Greater,
        CmpOp::Gt => l.total_cmp(&r) == Ordering::Greater,
        CmpOp::Ge => l.total_cmp(&r) != Ordering::Less,
    }
}

/// Outcome of the fast member pipeline for one entry.
enum FastOutcome {
    /// Contribution to add to the accumulator.
    Contribute(f64),
    /// Filtered out (or zero-weight short-circuit): no contribution.
    Skip,
    /// A guard tripped: re-evaluate this entry through the general ops.
    Bail,
}

fn run_fast(ops: &[FastOp], frame: &[Value], mut mult: f64) -> FastOutcome {
    for op in ops {
        match op {
            FastOp::Pred(cmp, l, r) => {
                let Some((lv, _)) = eval_num(l, frame) else {
                    return FastOutcome::Bail;
                };
                let Some((rv, _)) = eval_num(r, frame) else {
                    return FastOutcome::Bail;
                };
                if !num_cmp(*cmp, lv, rv) {
                    return FastOutcome::Skip;
                }
            }
            FastOp::Weight(w) => {
                let Some((v, _)) = eval_num(w, frame) else {
                    return FastOutcome::Bail;
                };
                mult *= v;
                if mult == 0.0 {
                    // Mirror the general executor's zero short-circuit.
                    return FastOutcome::Skip;
                }
            }
        }
    }
    FastOutcome::Contribute(mult)
}

/// Hoist loop-invariant [`Scalar::SubSum`] scans into the statement prelude,
/// fusing sub-plans that share a scan signature into a single traversal (see
/// [`FusedScan`]).
fn hoist_invariant_subsums(stmt: &mut CompiledStmt) {
    let mut h = Hoister {
        trigger_slots: stmt.trigger_slots,
        next_slot: stmt.frame_size as u32,
        groups: Vec::new(),
    };
    let mut plan = std::mem::replace(&mut stmt.plan, Op::ConstMult(0.0));
    h.hoist_op(&mut plan);
    stmt.plan = plan;
    stmt.frame_size = h.next_slot as u16;
    stmt.prelude = h.groups;
    for g in &mut stmt.prelude {
        g.band_pos = g.range_sum_position().ok();
    }
}

impl FusedScan {
    /// The position a range-sum scan sums over (see [`FusedScan::band_pos`]):
    /// every fused member (members joining a group later may not be) carries
    /// a [`BandSpec`] on one position, it is the only free one, at least one
    /// other is bound, and the members fit [`MAX_RANGE_MEMBERS`]. `Err` says
    /// why such a scan is traversed instead — `None` when its members are not
    /// all sums over one band key, which needs no saying.
    fn range_sum_position(&self) -> Result<u16, Option<&'static str>> {
        let band_of = |m: &FusedMember| m.band.as_ref().map(|b| b.key_pos);
        let p = self.members.first().and_then(band_of).ok_or(None)?;
        if self.members.iter().any(|m| band_of(m) != Some(p)) {
            return Err(None);
        }
        let free = self.template.iter().filter(|t| t.is_none()).count();
        Err(Some(if free == self.template.len() {
            "no column bound by equality"
        } else if free > 1 {
            "more than one free column"
        } else if !self.eqs.is_empty() {
            "a column constrained to equal another"
        } else if self.members.len() > MAX_RANGE_MEMBERS {
            "too many members"
        } else {
            return Ok(p);
        }))
    }

    /// Why this scan is traversed although every member sums a band of one
    /// key column — what EXPLAIN prints next to it. `None` for a range-sum
    /// scan and for one whose members are not all such sums.
    pub fn range_sum_bail(&self) -> Option<&'static str> {
        self.range_sum_position().err().flatten()
    }
}

/// Most members one range-sum scan answers (their intervals live in a
/// fixed-size buffer on the executor's stack; axfinder's scans have three).
pub const MAX_RANGE_MEMBERS: usize = 8;

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Work counters for one attribution slot (one target view, in the engine's
/// use). Increments are plain `Cell` adds on L1-resident lines — about a
/// cycle each, cheap enough to run unconditionally on the kernel hot paths —
/// and the owner drains them with [`KernelCounters::take`] at its own
/// (amortized) cadence.
#[derive(Debug, Default)]
pub struct KernelCounters {
    /// Fully bound index probes executed ([`Op::Probe`]).
    pub probes: Cell<u64>,
    /// Full scans executed ([`Op::Scan`] plus fused-prelude traversals).
    pub scans: Cell<u64>,
    /// Entries visited by those scans.
    pub entries_scanned: Cell<u64>,
    /// Fused prelude traversals (one bucket walk answering every member).
    pub fused_scans: Cell<u64>,
    /// Range-sum scans answered from an ordered index (the entries their
    /// binary searches compared count into `entries_scanned`).
    pub banded_hits: Cell<u64>,
    /// Range-sum scans that bailed to a full traversal: a bound or a group
    /// outside the exactness contract, or a source without ordered indexes.
    pub banded_bails: Cell<u64>,
}

/// A drained, plain-integer copy of one [`KernelCounters`] block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// See [`KernelCounters::probes`].
    pub probes: u64,
    /// See [`KernelCounters::scans`].
    pub scans: u64,
    /// See [`KernelCounters::entries_scanned`].
    pub entries_scanned: u64,
    /// See [`KernelCounters::fused_scans`].
    pub fused_scans: u64,
    /// See [`KernelCounters::banded_hits`].
    pub banded_hits: u64,
    /// See [`KernelCounters::banded_bails`].
    pub banded_bails: u64,
}

impl KernelCounters {
    /// Copy the counters out and reset them.
    pub fn take(&self) -> KernelWork {
        KernelWork {
            probes: self.probes.take(),
            scans: self.scans.take(),
            entries_scanned: self.entries_scanned.take(),
            fused_scans: self.fused_scans.take(),
            banded_hits: self.banded_hits.take(),
            banded_bails: self.banded_bails.take(),
        }
    }
}

#[inline]
fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Reusable per-engine kernel execution state: the slot frame, one pattern
/// buffer per atom, scratch group maps for `Exists`, and the buffered output
/// rows. Steady-state execution allocates nothing — every buffer is sized on
/// first use and recycled.
#[derive(Debug, Default)]
pub struct KernelState {
    /// The slot frame. `frame[0..trigger_slots]` is seeded by the caller from
    /// the event tuple before [`CompiledStmt::execute`].
    pub frame: Vec<Value>,
    patterns: Vec<Vec<Option<Value>>>,
    scratch: Vec<FastMap<Tuple, f64>>,
    /// Per-member accumulators for fused prelude scans.
    fused_accs: Vec<Cell<f64>>,
    /// Buffered `(key, multiplicity)` emissions of the last execution.
    pub out: Vec<(Tuple, f64)>,
    /// Work-counter blocks, one per attribution slot (the engine maps slots
    /// to target views). Slot 0 always exists and doubles as the discard
    /// block when no finer attribution is configured.
    pub counter_slots: Vec<KernelCounters>,
    /// The block the next execution's counters land in. Set by the engine
    /// before [`CompiledStmt::execute`]; out-of-range values clamp to the
    /// last block.
    pub counter_slot: usize,
}

impl KernelState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        KernelState::default()
    }

    /// Size the buffers for a statement and clear the output. Must be called
    /// (and the trigger slots seeded) before [`CompiledStmt::execute`].
    pub fn prepare(&mut self, stmt: &CompiledStmt) {
        if self.frame.len() < stmt.frame_size as usize {
            self.frame.resize(stmt.frame_size as usize, Value::Long(0));
        }
        while self.patterns.len() < stmt.pattern_arities.len() {
            self.patterns.push(Vec::new());
        }
        for (i, &arity) in stmt.pattern_arities.iter().enumerate() {
            // `resize` down keeps capacity, so alternating between statements
            // settles with every buffer at its high-water arity.
            self.patterns[i].resize(arity as usize, None);
        }
        while self.scratch.len() < stmt.scratch_maps as usize {
            self.scratch.push(FastMap::default());
        }
        let members = stmt
            .prelude
            .iter()
            .map(|f| f.members.len())
            .max()
            .unwrap_or(0);
        if self.fused_accs.len() < members {
            self.fused_accs.resize(members, Cell::new(0.0));
        }
        self.out.clear();
    }

    /// Make sure at least `n` counter blocks exist (never shrinks).
    pub fn ensure_counter_slots(&mut self, n: usize) {
        while self.counter_slots.len() < n.max(1) {
            self.counter_slots.push(KernelCounters::default());
        }
    }
}

/// Downstream continuation of an emission: the remaining pipeline stages plus
/// the terminal sink.
enum Tail<'a> {
    /// Statement sink: materialize the key from `key_slots` and push a row.
    Rows,
    /// Scalar sub-plan sink: add the multiplicity to the accumulator.
    Acc(&'a Cell<f64>),
    /// `Exists` sink: accumulate into a group map keyed by `slots`.
    Group {
        map: &'a RefCell<FastMap<Tuple, f64>>,
        slots: &'a [Slot],
    },
    /// Remaining product factors, then the rest.
    Seq(&'a [Op], &'a Tail<'a>),
}

struct Exec<'a> {
    src: &'a dyn RelationSource,
    frame: &'a mut [Value],
    patterns: &'a mut [Vec<Option<Value>>],
    scratch: &'a mut [FastMap<Tuple, f64>],
    accs: &'a [Cell<f64>],
    counters: &'a KernelCounters,
    out: &'a mut Vec<(Tuple, f64)>,
    /// Rows below this index belong to earlier batch entries: the sink's
    /// consecutive-same-key collapse must never merge across them (each
    /// entry's rows are applied a different number of times).
    merge_floor: usize,
    key_slots: &'a [Slot],
    error: Option<EvalError>,
}

impl Exec<'_> {
    #[inline]
    fn fail(&mut self, e: EvalError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Take pattern buffer `buf` out of the state with its bound holes filled
    /// from the frame; the caller puts it back.
    fn take_pattern(&mut self, buf: u16, template: &[Option<Slot>]) -> Vec<Option<Value>> {
        let mut pattern = std::mem::take(&mut self.patterns[buf as usize]);
        for (p, t) in pattern.iter_mut().zip(template.iter()) {
            *p = t.map(|slot| self.frame[slot as usize].clone());
        }
        pattern
    }

    /// Stream the entries of a partially bound atom: fill the pattern buffer
    /// from the frame, re-check bound positions (sources may over-approximate),
    /// enforce repeated-variable equalities, bind the free-position slots, and
    /// hand each surviving `(entry-multiplicity)` to `on_match`. Shared by
    /// [`Op::Scan`] and the fused prelude so the prologue cannot drift.
    fn scan_atom(
        &mut self,
        rel: &str,
        buf: u16,
        template: &[Option<Slot>],
        eqs: &[(u16, u16)],
        binds: &[(u16, Slot)],
        on_match: &mut dyn FnMut(&mut Self, f64),
    ) {
        bump(&self.counters.scans);
        let pattern = self.take_pattern(buf, template);
        let arity = template.len();
        let src = self.src;
        let result = src.for_each_matching(rel, &pattern, &mut |t, m| {
            bump(&self.counters.entries_scanned);
            if self.error.is_some() || m == 0.0 {
                return;
            }
            if t.len() != arity {
                self.fail(EvalError::ArityMismatch {
                    relation: rel.to_string(),
                    expected: arity,
                    actual: t.len(),
                });
                return;
            }
            if !matches_pattern(t, &pattern) {
                return;
            }
            for &(i, j) in eqs {
                if t[i as usize] != t[j as usize] {
                    return;
                }
            }
            for &(pos, slot) in binds {
                self.frame[slot as usize] = t[pos as usize].clone();
            }
            on_match(self, m);
        });
        self.patterns[buf as usize] = pattern;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Deliver an emission to the continuation.
    fn finish(&mut self, mult: f64, tail: &Tail) {
        match tail {
            Tail::Rows => {
                // Consecutive emissions for the same key (the common case for
                // loop-free statements, whose key comes entirely from trigger
                // slots) collapse into one row, so applying the buffer costs
                // one map write per key run instead of one per emission —
                // never across an entry boundary (`merge_floor`).
                if self.out.len() > self.merge_floor {
                    if let Some(last) = self.out.last_mut() {
                        if last.0.len() == self.key_slots.len()
                            && self
                                .key_slots
                                .iter()
                                .enumerate()
                                .all(|(i, &s)| last.0[i] == self.frame[s as usize])
                        {
                            last.1 += mult;
                            return;
                        }
                    }
                }
                let key: Tuple = self
                    .key_slots
                    .iter()
                    .map(|&s| self.frame[s as usize].clone())
                    .collect();
                self.out.push((key, mult));
            }
            Tail::Acc(acc) => acc.set(acc.get() + mult),
            Tail::Group { map, slots } => {
                let key: Tuple = slots
                    .iter()
                    .map(|&s| self.frame[s as usize].clone())
                    .collect();
                // GMR semantics treat exact-zero totals as absent; zero
                // entries are left in place and skipped by the Exists replay.
                *map.borrow_mut().entry(key).or_insert(0.0) += mult;
            }
            Tail::Seq(ops, rest) => match ops.split_first() {
                Some((first, remaining)) => {
                    self.exec(first, mult, &Tail::Seq(remaining, rest));
                }
                None => self.finish(mult, rest),
            },
        }
    }

    /// Execute one op with an incoming multiplicity.
    fn exec(&mut self, op: &Op, mult: f64, tail: &Tail) {
        if self.error.is_some() || mult == 0.0 {
            // Zero short-circuits exactly like the interpreter's empty
            // accumulator: downstream factors are never evaluated.
            return;
        }
        match op {
            Op::ConstMult(c) => self.finish(mult * c, tail),
            Op::SlotMult(slot) => match self.frame[*slot as usize].as_f64() {
                Ok(v) => self.finish(mult * v, tail),
                Err(e) => self.fail(EvalError::Value(e.to_string())),
            },
            Op::ScalarMult(s) => match self.eval_scalar(s) {
                Ok(v) => match v.as_f64() {
                    Ok(f) => self.finish(mult * f, tail),
                    Err(e) => self.fail(EvalError::Value(e.to_string())),
                },
                Err(e) => self.fail(e),
            },
            Op::Probe { rel, buf, template } => {
                bump(&self.counters.probes);
                let mut pattern = std::mem::take(&mut self.patterns[*buf as usize]);
                for (p, &slot) in pattern.iter_mut().zip(template.iter()) {
                    *p = Some(self.frame[slot as usize].clone());
                }
                let arity = template.len();
                let src = self.src;
                let result = src.for_each_matching(rel, &pattern, &mut |t, m| {
                    if self.error.is_some() || m == 0.0 {
                        return;
                    }
                    if t.len() != arity {
                        self.fail(EvalError::ArityMismatch {
                            relation: rel.clone(),
                            expected: arity,
                            actual: t.len(),
                        });
                        return;
                    }
                    // Sources may over-approximate; re-check like the
                    // interpreter does.
                    if !matches_pattern(t, &pattern) {
                        return;
                    }
                    self.finish(mult * m, tail);
                });
                self.patterns[*buf as usize] = pattern;
                if let Err(e) = result {
                    self.fail(e);
                }
            }
            Op::Scan {
                rel,
                buf,
                template,
                binds,
                eqs,
            } => {
                self.scan_atom(rel, *buf, template, eqs, binds, &mut |me, m| {
                    me.finish(mult * m, tail)
                });
            }
            Op::Product(ops) => self.finish(mult, &Tail::Seq(ops, tail)),
            Op::Sum(terms) => {
                for t in terms {
                    self.exec(t, mult, tail);
                }
            }
            Op::Neg(inner) => self.exec(inner, -mult, tail),
            Op::AggSum(inner) => self.exec(inner, mult, tail),
            Op::LiftBind { slot, value } => match self.eval_scalar(value) {
                Ok(v) => {
                    self.frame[*slot as usize] = v;
                    self.finish(mult, tail);
                }
                Err(e) => self.fail(e),
            },
            Op::LiftEq { slot, value } => match self.eval_scalar(value) {
                Ok(v) => {
                    if self.frame[*slot as usize] == v {
                        self.finish(mult, tail);
                    }
                }
                Err(e) => self.fail(e),
            },
            Op::CmpFilter { cmp, left, right } => {
                let l = match self.eval_scalar(left) {
                    Ok(v) => v,
                    Err(e) => return self.fail(e),
                };
                let r = match self.eval_scalar(right) {
                    Ok(v) => v,
                    Err(e) => return self.fail(e),
                };
                if cmp.eval(&l, &r) {
                    self.finish(mult, tail);
                }
            }
            Op::Exists {
                inner,
                slots,
                scratch,
            } => {
                let idx = *scratch as usize;
                let mut map = std::mem::take(&mut self.scratch[idx]);
                map.clear();
                let map = {
                    let cell = RefCell::new(map);
                    self.exec(inner, 1.0, &Tail::Group { map: &cell, slots });
                    cell.into_inner()
                };
                if self.error.is_none() {
                    for (key, &m) in map.iter() {
                        if m == 0.0 {
                            continue; // cancelled group (GMR removes exact zeros)
                        }
                        for (i, &slot) in slots.iter().enumerate() {
                            self.frame[slot as usize] = key[i].clone();
                        }
                        self.finish(mult, tail);
                    }
                }
                self.scratch[idx] = map;
            }
        }
    }

    /// Run one fused prelude scan: a single bucket traversal feeding every
    /// member's filter chain into its own accumulator, then write the totals
    /// into the members' result slots. A range-sum scan (see [`BandSpec`]) is
    /// answered from the source's ordered index instead, whenever the index
    /// can answer exactly.
    fn run_prelude(&mut self, fs: &FusedScan) {
        if self.error.is_some() {
            return;
        }
        if fs.band_pos.is_some() {
            if self.run_range_sums(fs) {
                bump(&self.counters.banded_hits);
                return;
            }
            if self.error.is_some() {
                return;
            }
            bump(&self.counters.banded_bails);
        }
        bump(&self.counters.fused_scans);
        let accs = self.accs;
        for c in &accs[..fs.members.len()] {
            c.set(0.0);
        }
        self.scan_atom(
            &fs.rel,
            fs.buf,
            &fs.template,
            &fs.eqs,
            &fs.binds,
            &mut |me, m| {
                for (k, member) in fs.members.iter().enumerate() {
                    if let Some(fast) = &member.fast {
                        match run_fast(fast, me.frame, m) {
                            FastOutcome::Contribute(c) => {
                                accs[k].set(accs[k].get() + c);
                                continue;
                            }
                            FastOutcome::Skip => continue,
                            FastOutcome::Bail => {} // exact general path below
                        }
                    }
                    let acc_tail = Tail::Acc(&accs[k]);
                    me.finish(m, &Tail::Seq(&member.cont, &acc_tail));
                }
            },
        );
        if self.error.is_none() {
            for (k, member) in fs.members.iter().enumerate() {
                self.frame[member.dest as usize] = Value::double(accs[k].get());
            }
        }
    }

    /// Answer every member of a range-sum scan from the source's ordered
    /// index. Returns `false` — the caller falls back to the full traversal,
    /// which is the bit-exactness baseline — when a bound-expression leaf is
    /// not a finite non-zero integer-valued number (which rules the
    /// `-0.0`/`+0.0` `total_cmp` corner cases out of both evaluation orders)
    /// or a magnitude sum reaches 2^53, when the source keeps no ordered index
    /// for the scan, or when the addressed group cannot answer exactly.
    /// Within the guards every addition either path performs is exact, so the
    /// range sums equal the traversal's accumulators bit for bit.
    fn run_range_sums(&mut self, fs: &FusedScan) -> bool {
        // Each member's constraints, intersected into one `lo ≤ key < hi`.
        // Keys and bounds are integers, so `key ≤ b ⇔ key < b + 1` and
        // `key > b ⇔ key ≥ b + 1`; `|b| < 2^53` keeps `b + 1` exact.
        let mut ranges = [(f64::NEG_INFINITY, f64::INFINITY); MAX_RANGE_MEMBERS];
        let mut bound_mag = 0.0f64;
        for (range, m) in ranges.iter_mut().zip(&fs.members) {
            let Some(band) = &m.band else {
                return false;
            };
            for (cmp, be) in &band.ranges {
                let Some((b, mag)) = eval_bound(be, self.frame) else {
                    return false;
                };
                // `-0.0` bounds (an all-negated-zero-terms fold) would order
                // differently under `total_cmp` than the original compare.
                if b == 0.0 && b.is_sign_negative() {
                    return false;
                }
                bound_mag = bound_mag.max(mag);
                match cmp {
                    CmpOp::Lt => range.1 = range.1.min(b),
                    CmpOp::Le => range.1 = range.1.min(b + 1.0),
                    CmpOp::Gt => range.0 = range.0.max(b + 1.0),
                    CmpOp::Ge => range.0 = range.0.max(b),
                    CmpOp::Eq | CmpOp::Ne => return false,
                }
            }
        }
        let n = fs.members.len();
        let mut sums = [0.0f64; MAX_RANGE_MEMBERS];
        let pattern = self.take_pattern(fs.buf, &fs.template);
        let answer =
            self.src
                .range_sums(&fs.rel, &pattern, bound_mag, &ranges[..n], &mut sums[..n]);
        self.patterns[fs.buf as usize] = pattern;
        match answer {
            Ok(Some(compared)) => {
                let scanned = &self.counters.entries_scanned;
                scanned.set(scanned.get() + compared);
                for (m, &sum) in fs.members.iter().zip(&sums) {
                    self.frame[m.dest as usize] = Value::double(sum);
                }
                true
            }
            Ok(None) => false,
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    fn eval_scalar(&mut self, s: &Scalar) -> Result<Value, EvalError> {
        match s {
            Scalar::Const(v) => Ok(v.clone()),
            Scalar::Slot(slot) => Ok(self.frame[*slot as usize].clone()),
            Scalar::Neg(inner) => Ok(self
                .eval_scalar(inner)?
                .neg()
                .map_err(|e| EvalError::Value(e.to_string()))?),
            Scalar::Add(terms) => terms.iter().try_fold(Value::long(0), |acc, t| {
                let v = self.eval_scalar(t)?;
                acc.add(&v).map_err(|e| EvalError::Value(e.to_string()))
            }),
            Scalar::Mul(factors) => factors.iter().try_fold(Value::long(1), |acc, t| {
                let v = self.eval_scalar(t)?;
                acc.mul(&v).map_err(|e| EvalError::Value(e.to_string()))
            }),
            Scalar::Apply(f, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_scalar(a))
                    .collect::<Result<_, _>>()?;
                crate::eval::apply_scalar_fn(f, &vals)
            }
            Scalar::Cmp(op, l, r) => {
                let lv = self.eval_scalar(l)?;
                let rv = self.eval_scalar(r)?;
                Ok(Value::double(if op.eval(&lv, &rv) { 1.0 } else { 0.0 }))
            }
            Scalar::SubSum(op) => {
                let acc = Cell::new(0.0);
                self.exec(op, 1.0, &Tail::Acc(&acc));
                if let Some(e) = &self.error {
                    return Err(e.clone());
                }
                Ok(Value::double(acc.get()))
            }
        }
    }
}

impl CompiledStmt {
    /// Execute the kernel against a relation source, buffering `(key,
    /// multiplicity)` rows into `state.out`. The caller must have called
    /// [`KernelState::prepare`] and seeded `state.frame[0..trigger_slots]`
    /// from the event tuple.
    pub fn execute(
        &self,
        src: &dyn RelationSource,
        state: &mut KernelState,
    ) -> Result<(), EvalError> {
        self.execute_batch_entry(src, state, true)
    }

    /// [`CompiledStmt::execute`] for one entry of a delta batch: when
    /// `run_invariant_preludes` is `false`, prelude scans marked
    /// [`FusedScan::entry_invariant`] are skipped — their result slots still
    /// hold the totals computed for the batch's first entry, which are valid
    /// for every entry because such scans read no trigger slot and the store
    /// they read is unchanged until the run's buffered writes are applied. Rows are
    /// **appended** to `state.out`; the batch executor tracks entry
    /// boundaries itself.
    pub fn execute_batch_entry(
        &self,
        src: &dyn RelationSource,
        state: &mut KernelState,
        run_invariant_preludes: bool,
    ) -> Result<(), EvalError> {
        debug_assert!(state.frame.len() >= self.frame_size as usize);
        let merge_floor = state.out.len();
        if state.counter_slots.is_empty() {
            state.counter_slots.push(KernelCounters::default());
        }
        let counter_slot = state.counter_slot.min(state.counter_slots.len() - 1);
        let mut exec = Exec {
            src,
            frame: &mut state.frame,
            patterns: &mut state.patterns,
            scratch: &mut state.scratch,
            accs: &state.fused_accs,
            counters: &state.counter_slots[counter_slot],
            out: &mut state.out,
            merge_floor,
            key_slots: &self.key_slots,
            error: None,
        };
        for fs in &self.prelude {
            if run_invariant_preludes || !fs.entry_invariant {
                exec.run_prelude(fs);
            }
        }
        exec.exec(&self.plan, 1.0, &Tail::Rows);
        match exec.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Bindings, MemSource};
    use crate::expr::CmpOp as OpC;
    use dbtoaster_gmr::{Gmr, Schema};

    fn db() -> MemSource {
        let mut src = MemSource::new();
        let mut r = Gmr::new(Schema::new(["A", "B"]));
        r.add_tuple(vec![Value::long(1), Value::long(2)], 1.0);
        r.add_tuple(vec![Value::long(3), Value::long(5)], 2.0);
        r.add_tuple(vec![Value::long(4), Value::long(2)], 1.0);
        src.set_relation("R", r);
        let mut s = Gmr::new(Schema::new(["B", "C"]));
        s.add_tuple(vec![Value::long(2), Value::long(10)], 1.0);
        s.add_tuple(vec![Value::long(5), Value::long(20)], 3.0);
        src.set_relation("S", s);
        src
    }

    /// Compile `rhs` as a loop statement over `key_vars`, run it, and compare
    /// against the interpreter's GMR keyed the same way.
    fn check(rhs: &Expr, trigger: &[(&str, i64)], key_vars: &[&str]) {
        let tvars: Vec<String> = trigger.iter().map(|(n, _)| n.to_string()).collect();
        let kvars: Vec<String> = key_vars.iter().map(|k| k.to_string()).collect();
        let stmt =
            lower_statement(&tvars, &kvars, rhs).unwrap_or_else(|| panic!("failed to lower {rhs}"));
        let src = db();
        let mut state = KernelState::new();
        state.prepare(&stmt);
        for (i, (_, v)) in trigger.iter().enumerate() {
            state.frame[i] = Value::long(*v);
        }
        stmt.execute(&src, &mut state).unwrap();
        let mut compiled = Gmr::new(Schema::new(key_vars.iter().copied()));
        for (k, m) in state.out.drain(..) {
            compiled.add_tuple(k, m);
        }

        let mut ctx = Bindings::new();
        for (n, v) in trigger {
            ctx.insert(n.to_string(), Value::long(*v));
        }
        let reference = eval(rhs, &src, &ctx).unwrap();
        let mut expected = Gmr::new(Schema::new(key_vars.iter().copied()));
        for (t, m) in reference.iter() {
            let key: Tuple = key_vars
                .iter()
                .map(|kv| match ctx.get(kv) {
                    Some(v) => v.clone(),
                    None => {
                        let i = reference.schema().index_of(kv).expect("key var in result");
                        t[i].clone()
                    }
                })
                .collect();
            expected.add_tuple(key, m);
        }
        assert!(
            compiled.equivalent(&expected, 0.0),
            "compiled ≠ interpreted for {rhs}\ncompiled:\n{compiled}\nexpected:\n{expected}"
        );
    }

    /// A sum over a band of one key column is a range-sum scan when the
    /// pattern binds the other column; when it binds none, the scan is
    /// traversed and says why.
    #[test]
    fn range_sum_scans_need_a_bound_column_and_say_so() {
        let banded = |first: &str| {
            Expr::product_of([
                Expr::agg_sum(
                    Vec::<String>::new(),
                    Expr::product_of([
                        Expr::rel("R", [first, "b"]),
                        Expr::cmp(OpC::Gt, Expr::var("b"), Expr::var("x")),
                    ]),
                ),
                Expr::var("x"),
            ])
        };
        let tvars = ["x".to_string(), "y".to_string()];
        let bound = lower_statement(&tvars, &[], &banded("y")).unwrap();
        assert_eq!(bound.prelude.len(), 1);
        assert_eq!(bound.prelude[0].band_pos, Some(1));
        assert_eq!(bound.prelude[0].range_sum_bail(), None);
        let free = lower_statement(&tvars, &[], &banded("a")).unwrap();
        assert_eq!(free.prelude.len(), 1);
        assert_eq!(free.prelude[0].band_pos, None);
        assert_eq!(
            free.prelude[0].range_sum_bail(),
            Some("no column bound by equality")
        );
        check(&banded("y"), &[("x", 2), ("y", 3)], &[]);
        check(&banded("a"), &[("x", 2), ("y", 3)], &[]);
    }

    #[test]
    fn scan_and_probe_match_interpreter() {
        // Free scan grouped by b.
        check(
            &Expr::agg_sum(["b"], Expr::rel("R", ["a", "b"])),
            &[],
            &["b"],
        );
        // Fully bound probe via trigger variables.
        check(&Expr::rel("R", ["x", "y"]), &[("x", 3), ("y", 5)], &[]);
        // Partially bound scan.
        check(&Expr::rel("R", ["x", "b"]), &[("x", 4)], &["b"]);
    }

    #[test]
    fn join_with_weights_matches_interpreter() {
        let e = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::rel("S", ["b", "c"]),
                Expr::var("c"),
            ]),
        );
        check(&e, &[], &[]);
    }

    #[test]
    fn hoisted_lift_becomes_probe() {
        // The delta-statement pattern: atom before its binding lift.
        let e = Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::lift("a", Expr::var("t"))]);
        let stmt = lower_statement(&["t".into()], &["b".into()], &e).unwrap();
        // The lift must have been hoisted ahead of the atom, making position
        // `a` a bound hole of the scan template.
        let ops = match &stmt.plan {
            Op::Product(ops) => ops,
            other => panic!("expected product, got {other:?}"),
        };
        assert!(
            matches!(ops[0], Op::LiftBind { .. }),
            "lift not hoisted: {ops:?}"
        );
        check(&e, &[("t", 3)], &["b"]);
    }

    #[test]
    fn comparisons_lifts_and_sums() {
        let e = Expr::agg_sum(
            ["b"],
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::cmp(OpC::Lt, Expr::var("a"), Expr::var("b")),
                Expr::var("a"),
            ]),
        );
        check(&e, &[], &["b"]);
        let sum = Expr::sum_of([
            Expr::rel("R", ["a", "b"]),
            Expr::neg(Expr::rel("R", ["a", "b"])),
        ]);
        check(&sum, &[], &["a", "b"]);
    }

    #[test]
    fn nested_aggregate_in_scalar_position() {
        // z := Sum[]( S(c,d) * d ), then filter on it — the PSP shape.
        let nested = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("S", ["c", "d"]), Expr::var("d")]),
        );
        let e = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::lift("z", nested),
                Expr::cmp(OpC::Lt, Expr::var("b"), Expr::var("z")),
            ]),
        );
        check(&e, &[], &[]);
    }

    #[test]
    fn exists_clamps_multiplicities() {
        let e = Expr::agg_sum(["b"], Expr::exists(Expr::rel("R", ["a", "b"])));
        check(&e, &[], &["b"]);
        // Exists over a fully bound probe (scalar existence).
        let e2 = Expr::product_of([
            Expr::rel("R", ["a", "b"]),
            Expr::exists(Expr::rel("S", ["b", "c2"])),
        ]);
        check(&e2, &[], &["a", "b", "c2"]);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut src = db();
        let mut t = Gmr::new(Schema::new(["X", "Y"]));
        t.add_tuple(vec![Value::long(1), Value::long(1)], 1.0);
        t.add_tuple(vec![Value::long(1), Value::long(2)], 1.0);
        src.set_relation("T", t);
        let e = Expr::rel("T", ["x", "x"]);
        let stmt = lower_statement(&[], &["x".into()], &e).unwrap();
        let mut state = KernelState::new();
        state.prepare(&stmt);
        stmt.execute(&src, &mut state).unwrap();
        assert_eq!(state.out.len(), 1);
        assert_eq!(state.out[0].0.as_slice(), &[Value::long(1)]);
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        // Unbound variable in multiplicity position.
        assert!(lower_statement(&[], &[], &Expr::var("nope")).is_none());
        // Key variable not bound anywhere.
        assert!(lower_statement(&[], &["k".into()], &Expr::one()).is_none());
        // String constant in multiplicity position.
        assert!(lower_statement(&[], &[], &Expr::Const(Value::str("x"))).is_none());
    }

    #[test]
    fn unknown_relation_errors_at_runtime() {
        let stmt = lower_statement(&[], &["x".into()], &Expr::rel("Nope", ["x"])).unwrap();
        let mut state = KernelState::new();
        state.prepare(&stmt);
        let err = stmt.execute(&db(), &mut state).unwrap_err();
        assert!(matches!(err, EvalError::UnknownRelation(_)));
    }
}
