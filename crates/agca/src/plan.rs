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
//!   per-event pattern allocation), and addresses its map by position in the
//!   statement's relation table ([`CompiledStmt::rels`]), which the runtime
//!   resolves to the store's ids once, when it is built (no name lookups at
//!   run time for relations either);
//! * the product evaluation order — including the lift hoisting that turns
//!   `M(ok) * (ok := t)` into an indexed probe — is chosen statically by the
//!   same `product_order_by`/`scalar_ready_by` analysis the interpreter
//!   uses per event, so compiled and interpreted execution agree by
//!   construction. One step goes further: a comparison of trigger values and
//!   constants alone — a guard on the event, like TPC-H q12's `shipdate`
//!   window — moves to the front of a product that reads a map, so an event
//!   outside it probes nothing. A filter passes its multiplicity on
//!   unchanged or drops the row, so every product stays the same; a product
//!   that ended in such a filter after an op that may yield zero keeps a
//!   copy of it there, whose zero short-circuit drops the zero rows the
//!   product's end dropped, so every emitted row stays the same too.
//!
//! ## Execution model
//!
//! A plan executes as a *pipeline*: each [`Op`] binds frame slots and emits
//! `(frame, multiplicity)` continuations downstream, bottoming out in the
//! kernel's sink, which materializes `(key, multiplicity)` rows from the
//! pre-resolved key slots into each member statement's reusable row buffer
//! (see kernel units, below). The engine then applies the buffered rows to
//! the target map — exactly the
//! read-everything-then-write discipline of the interpreter, so statements
//! whose right-hand side reads their own target keep their semantics.
//!
//! Execution is total: [`CompiledStmt::execute`] returns nothing and has no
//! error path. The ingest gate admits only events whose values fit their
//! columns' types, and `compile` refuses a program that does arithmetic on a
//! string, matches a number against `LIKE` or applies a scalar function to
//! the wrong number of arguments (lowering refuses that last one itself), so
//! no value operation of an admitted program can fail. A source hands over
//! exactly the tuples that match a pattern ([`RelationSource::for_each_at`]),
//! so no scanned row is re-checked. The executor panics only on what a
//! corrupt program reaches: a relation its source does not hold (the message
//! names it) or a value error past the type checker (the message names the
//! relations the statement reads).
//!
//! An execution counts its work into a [`LocalCounts`] block its caller
//! hands it, by [`VIEW_VALUES`](dbtoaster_telemetry::VIEW_VALUES) slot: the
//! kernel holds no counters and no notion of which view it works for.
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
//! Lowering is total or it fails: any construct whose static boundness cannot
//! be established (an unbound variable, sum terms with mismatched outputs, a
//! collection with unbound columns in scalar position, a non-numeric constant
//! in multiplicity position) makes [`lower_statement`] return [`Unsupported`]
//! with the reason, and the compiler rejects the program. There is no
//! interpreter to fall back to at run time; the AST evaluator
//! ([`mod@crate::eval`]) is the test suites' oracle only.
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
//! one [`RelationSource::range_sums_at`] call — two binary searches per interval
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
//! down the plain traversal — counted as a `range_sum_bail` — so the two ways of
//! computing a member are bit-identical, not approximately equal.
//!
//! ## Range sums inside a loop
//!
//! A band sum whose bound reads a slot an enclosing loop binds cannot be
//! hoisted: `vwap`'s `Sum[](m_vwap_2(p2) * (p2 > p1))` under the scan that
//! binds `p1` is worth a different total on every outer row, and walking
//! `m_vwap_2` once per row makes the statement quadratic. When such a
//! sub-sum has the shape `AggSum*(Product[Scan, cont…])`, its template holes
//! read trigger slots only, the scan leaves exactly the band column free with
//! no repeated variables, and `cont` is a band member ([`BandSpec`]), the
//! sub-sum becomes a [`Scalar::RangeSum`] lookup instead. The scanned group is
//! fixed for the whole execution, and the compiler declares its index ordered
//! on the band column ([`CompiledStmt::ordered_reads`]) — for a one-column map
//! like `m_vwap_2`, an index of mask `0`, one group holding the whole map — so
//! every lookup is one [`RelationSource::range_sums_at`] call: two binary
//! searches per interval end and one subtraction, against running sums the
//! engine maintains on every write. Nothing is built per execution, and a
//! warm engine allocates nothing.
//!
//! The exactness contract is the ordered indexes' own, with the same guards
//! ([`band_key`], [`exact_mult`], [`EXACT_INT_BOUND`]): a group holding a key
//! that is no band key or a multiplicity that is not exact, or whose
//! `Σ|multiplicity|` reaches 2^53, is walked by every lookup while it does,
//! and a bound outside the contract sends its one lookup down the walk — the
//! sub-sum as it was before the rewrite, kept as the lookup's `traverse` —
//! as does a source with no ordered index for the group. Answers count as
//! `range_sum_hits`, walks as `range_sum_bails`; `entries_scanned` counts
//! each search's comparisons.
//!
//! A scanning or probing sub-sum inside a loop that reads nothing the loop
//! binds but cannot join the prelude (its member holds another aggregate,
//! such as a band lookup it is weighted by, or it is a probe, like `vwap`'s
//! total `m_vwap_1[]`) is worth the same on every row: it becomes a
//! [`Scalar::CachedSum`], evaluated at its first use in an execution and
//! reused after.
//!
//! ## Quantile filters inside a loop
//!
//! `vwap` keeps a price where `0.25 × Σ volume > Σ volume above the price`:
//! a band-sum lift, and one order comparison — its only reader — whose other
//! side is the same on every row. Looked up row by row, that is a search and
//! a `Value`-level filter per price. With every multiplicity of the band's
//! group non-negative the band sum is monotone in the loop key, so along the
//! group's sorted keys the filter flips at most once. The lift and the
//! filter fuse into an [`Op::Threshold`]: at its first row of an execution
//! it evaluates the other operand and asks the group's ordered index for the
//! flip ([`RelationSource::cut_at`]) — a binary search over the blocks'
//! running sums, then over the block's, evaluating the filter as it stands
//! on each cell's sum as the lookup would answer it — and keeps the passing
//! keys as one interval. Every row then pays one numeric comparison of its
//! key. The scan's rows, their order and their multiplicities are
//! untouched, so the result is the lift's and the filter's, bit for bit,
//! whatever the scanned map holds.
//!
//! The fusion needs the band's one constraint to be bound by a slot a scan
//! earlier in the product binds, the filter to be the lift's only reader, and
//! the other operand to read only trigger slots, prelude results or lifts of
//! cached sums bound before it. The threshold stands where the filter stood.
//! An execution whose group has no ordered index, is not exact or holds a
//! negative net multiplicity (its `Σ multiplicity` short of its
//! `Σ|multiplicity|`), or whose operand is no number, runs the lift and the
//! filter on every row — counted as they count, not latched — and so does a
//! single row whose key is no finite number or a `Long` beyond 2^53, where
//! an `f64` comparison could disagree with `Value`'s. A search counts as one
//! `range_sum_hits`, its filter evaluations into `entries_scanned`.
//!
//! The outer sum is then one numeric pass. A loop-invariant sub-sum whose
//! rows only go through thresholds on the key its scan binds, loop-invariant
//! lifts and weights by that key — `vwap`'s whole refresh `Σ m_vwap_2(p) ·
//! p · [0.25 × total > Σ volume above p]` (the compiler keeps the price out
//! of the map, so `price × volume` per price is `p × m_vwap_2(p)`), and
//! `mst`'s sums over the asks — joins the prelude as a fused scan whose
//! member's fast pipeline is one [`FastOp::Cut`] per threshold and one
//! [`FastOp::Weight`] per weight. When the scan leaves one column free, the
//! member has one cut on it and at most one weight by it, the scan is a
//! **cut walk** ([`FusedScan::cut_pos`]): its index is declared ordered, and
//! an execution runs the member's lifts and search up front, then walks
//! only the keys inside the cut ([`RelationSource::walk_band_at`]), adding
//! each multiplicity times its key — `O(log n + |cut|)`, where `|cut|` is
//! about a quarter of `vwap`'s prices. The walk answers only where every
//! product and every sum of them is an exact integer, in any order (the
//! group exact and `max|key| · Σ|multiplicity| < 2^53`); otherwise, and over
//! a scan with two free columns (`mst`'s bids), the pass walks in scan
//! order: its first row runs the continuation, which searches; every row
//! after that adds the multiplicity of an entry whose key lies in the cut,
//! times its weights, with no lift, no `Value` and no interpreted filter. A
//! row the cut cannot answer — the execution fell back, or the key is no
//! loop key — runs the continuation as the plan would, so the sum is the
//! walk's, bit for bit. The lifts need no step of their own: a row takes the
//! pass only once every cut is searched, by a row that ran every lift
//! before it.
//!
//! EXPLAIN notes a scanning sub-sum that stays a walk with the reason
//! ([`range_sum_refusal`]): a template hole bound by the loop (the group
//! changes per row), a weight in the member (the sum is not of
//! multiplicities), or another aggregate in the member — `psp`'s outer sum,
//! which compares the scanned volume with `0.0001 ×` a total.
//!
//! ## Kernel units: the statements one kernel fills
//!
//! Every kernel fills the rows of one or more statements, its **members**
//! ([`CompiledStmt::members`]), each into a row buffer of its own
//! ([`KernelState::rows_of`]). A lowered statement is a unit of one: one
//! member whose one term is the identity ([`SiblingTerm::IDENTITY`]), so
//! its sink builds the key and pushes the plan's row as it comes.
//!
//! A trigger often holds statements that do the same work and differ only in
//! what they add: TPC-H q1's six Lineitem statements share the key
//! `[returnflag]` and the guard `shipdate <= 19980901`, and add the
//! quantity, the price, the discounted price or one. [`CompiledStmt::fuse`]
//! runs such siblings as one kernel. Each member's plan is taken apart into
//! its **frame** — the plan with the value ops ([`Op::ConstMult`],
//! [`Op::SlotMult`], and [`Op::ScalarMult`]s that read no map) taken out of
//! each term — and its **value**, one [`SiblingTerm`] per term. The members
//! must have the same frame, key slots, relation table and prelude. The
//! fused kernel walks that frame once per execution, so the guard is tested
//! once and the key built once per row; the sink applies every member's
//! value ops to the row and pushes the member's row into the member's own
//! buffer. A unit of one is the case with no value ops to apply.
//!
//! **Exactness.** A member's multiplicity comes from the same `f64`
//! products, in the same order, as its own plan, and a member emits a row
//! exactly when its own plan would. Value ops that end a product stay where
//! they are. A nonzero constant before them joins the value only when
//! filters, lifts and other such constants are all that follows it: they
//! pass a multiplicity on unchanged, so its products do not change.
//! The executor's zero short-circuit is replayed per value op, and after a
//! moved constant that ends the value (`zero_drops`). A slot or a probe
//! never moves. A sum qualifies term by term only when its terms share one
//! frame that emits at most one row, as q1's `extendedprice * (1 -
//! discount)` does: its own plan emits each term's row back to back, and so
//! does the fused sink. Each member's consecutive rows under one key
//! collapse into one row of its buffer, so applying the buffer costs one map
//! write per key run — but never across executions: each execution's rows
//! start at their member's **merge floor**, the buffer's length when it
//! began (a batch applies each entry's rows a different number of times).
//!
//! ## Straight-line units and event guards
//!
//! The paper's trigger code for an O(1) statement is a few lines over the
//! event's fields; interpreting a plan for it costs more than the work it
//! does. When a kernel is lowered or fused it derives, once, a form that
//! runs without [`CompiledStmt::execute`] ([`CompiledStmt::straight`],
//! kept in the `straight` submodule), and the engine tries that form first
//! ([`CompiledStmt::run_straight`]):
//!
//! * a **trigger-only unit** ([`Straight::Unit`]) reads no relation and
//!   has no prelude, its key slots are all trigger slots, its frame — the
//!   plan taken apart as fusion takes it apart — holds only constants and
//!   event guards, and its members' values only value ops over trigger
//!   slots and constants: TPC-H q1's unit, q6 and `m_q12_3` on Lineitem,
//!   `m_q12_1` and `m_q12_2` on Orders. It runs from the event tuple in
//!   place — no frame seeded, no [`KernelState`], no buffer lent — and
//!   appends each member's row straight to the caller's buffer for it
//!   ([`MemberRows`]). It runs step for step what the interpreter runs:
//!   each guard through the same [`CmpOp::eval`] on the same `Value`s, each
//!   member's multiplicity as the same `f64` products in plan order, with
//!   the zero short-circuit before each value op and `zero_drops` replayed,
//!   and the member's rows of one event — all under the event's one key —
//!   summed in term order into one, as the sink collapses them above the
//!   merge floor. The key is built once and cloned for each later member.
//!   So its rows are the interpreter's bit for bit by construction, with
//!   no numeric fallback: it never leaves `Value` arithmetic;
//! * any other kernel whose top-level terms all begin with event guards —
//!   lowering puts them first (see the lowering section) — and that has no
//!   prelude keeps those guards ([`Straight::Guards`]). An event that fails
//!   some guard of every term gets no rows, and the interpreter does not
//!   run for it: q12's Lineitem kernel outside the `shipdate` window, its
//!   Orders kernel for any priority but the two it counts. An execution the
//!   guards stop would have probed and scanned nothing, so the work counts
//!   are unchanged. A kernel with a prelude has no such form: its
//!   entry-invariant scans fill their result slots at a run's first
//!   execution, and every prelude scan counts its work, whatever the
//!   guards say.
//!
//! There is no switch and no second path for the same shape: the
//! interpreter never runs a trigger-only unit, and runs a guard-tested
//! kernel only for an event that passes some term's guards.

use crate::eval::{product_order_by, RelId, RelationSource};
use crate::expr::{CmpOp, Expr, RelRef, ScalarFn};
use dbtoaster_gmr::{FastMap, Tuple, Value};
use dbtoaster_telemetry::{slot_of, LocalCounts};
use std::cell::{Cell, RefCell};

mod straight;
pub use straight::{MemberRows, Straight, StraightUnit};

/// A pre-resolved frame index (see the module docs on slot discipline).
pub type Slot = u16;

/// A compiled scalar expression: evaluates to a single [`Value`] against the
/// frame, mirroring the interpreter's `eval_scalar_with`.
#[derive(Clone, Debug, PartialEq)]
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
    /// A band sum inside a loop, answered from the ordered index of the
    /// group `traverse` scans (see the module docs on range sums inside a
    /// loop). Yields the same double as `SubSum(traverse)`, bit for bit.
    RangeSum {
        /// Normalized constraints `key cmp bound`, as in [`BandSpec`]; the
        /// bounds may read slots the enclosing loop binds.
        ranges: Vec<(CmpOp, NumExpr)>,
        /// The sub-sum this lookup replaces — a scan leaving only the band
        /// column free — run whenever the lookup cannot answer exactly.
        traverse: Box<Op>,
    },
    /// A loop-invariant scanning sub-sum inside a loop that cannot join the
    /// prelude: evaluated like `SubSum(plan)` at its first use in an
    /// execution, its value reused by every later one (see the module docs
    /// on range sums inside a loop).
    CachedSum {
        /// Index of its value among the execution's cached sums.
        cache: u16,
        /// The sub-plan.
        plan: Box<Op>,
    },
}

/// One operator of a compiled plan. Each op receives an incoming multiplicity,
/// optionally binds frame slots, and emits zero or more continuations
/// downstream (see the module docs on the pipeline execution model).
#[derive(Clone, Debug, PartialEq)]
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
        /// Index into [`CompiledStmt::rels`].
        rel: u16,
        /// Pattern buffer index (see [`KernelState`]).
        buf: u16,
        /// One frame slot per atom position.
        template: Vec<Slot>,
    },
    /// Cursor over an atom with free positions: for every tuple matching the
    /// bound positions, check free-position equalities (repeated variables),
    /// bind the `binds` slots from the tuple and emit its multiplicity.
    Scan {
        /// Index into [`CompiledStmt::rels`].
        rel: u16,
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
    /// A quantile filter inside a loop: a band-sum lift and the order
    /// comparison that is its only reader, answered by one search per
    /// execution (see the module docs on quantile filters).
    Threshold(Box<Threshold>),
}

/// The fused `LiftBind` + `CmpFilter` pair of an [`Op::Threshold`]: the
/// filter compares a loop-invariant operand with a band sum whose one bound
/// is the loop key — `operand cmp Σ{m(k) : k range key}`, or mirrored.
#[derive(Clone, Debug, PartialEq)]
pub struct Threshold {
    /// Index of its interval among the execution's thresholds.
    pub cache: u16,
    /// The band's one constraint, `k range key`.
    pub range: CmpOp,
    /// The loop key: the band's bound, a slot the enclosing scan binds.
    pub key: Slot,
    /// The loop-invariant side of the filter.
    pub operand: Scalar,
    /// The filter's comparison.
    pub cmp: CmpOp,
    /// Is the band sum the filter's left operand?
    pub sum_left: bool,
    /// The original lift and filter, run whenever the search cannot answer.
    pub fallback: Vec<Op>,
}

impl Threshold {
    /// The band sum's lookup, as the fallback lift holds it.
    pub fn lookup(&self) -> Option<&Scalar> {
        match self.fallback.first() {
            Some(Op::LiftBind { value, .. }) => band_lookup(value),
            _ => None,
        }
    }
}

/// A node of a plan tree: an op or a scalar. [`Node::children`] is the one
/// statement of the tree's shape; every walk over a plan reads it.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    /// An op.
    Op(&'a Op),
    /// A scalar.
    Scalar(&'a Scalar),
}

impl<'a> Node<'a> {
    /// The node's sub-scalars, then its sub-ops, each in the order the
    /// executor reaches them: a lift's value, a comparison's two sides, a
    /// product's factors, a sub-sum's plan, a band lookup's walk, a
    /// threshold's operand and then its fallback.
    pub fn children(self) -> impl Iterator<Item = Node<'a>> {
        use std::slice::from_ref as one;
        let (scalars, second, ops): (&'a [Scalar], Option<&'a Scalar>, &'a [Op]) = match self {
            Node::Op(op) => match op {
                Op::ConstMult(_) | Op::SlotMult(_) | Op::Probe { .. } | Op::Scan { .. } => {
                    (&[], None, &[])
                }
                Op::ScalarMult(s) | Op::LiftBind { value: s, .. } | Op::LiftEq { value: s, .. } => {
                    (one(s), None, &[])
                }
                Op::CmpFilter { left, right, .. } => (one(left), Some(right), &[]),
                Op::Product(ops) | Op::Sum(ops) => (&[], None, ops),
                Op::Neg(inner) | Op::AggSum(inner) | Op::Exists { inner, .. } => {
                    (&[], None, one(&**inner))
                }
                Op::Threshold(t) => (one(&t.operand), None, &t.fallback),
            },
            Node::Scalar(s) => match s {
                Scalar::Const(_) | Scalar::Slot(_) => (&[], None, &[]),
                Scalar::Neg(inner) => (one(&**inner), None, &[]),
                Scalar::Add(xs) | Scalar::Mul(xs) | Scalar::Apply(_, xs) => (xs, None, &[]),
                Scalar::Cmp(_, l, r) => (one(&**l), Some(&**r), &[]),
                Scalar::SubSum(op)
                | Scalar::RangeSum { traverse: op, .. }
                | Scalar::CachedSum { plan: op, .. } => (&[], None, one(&**op)),
            },
        };
        let scalars = scalars.iter().chain(second).map(Node::Scalar);
        scalars.chain(ops.iter().map(Node::Op))
    }

    /// Visit this node and, depth first, the children of every visited node
    /// for which `enter` returns `true`.
    pub fn walk(self, enter: &mut impl FnMut(Node<'a>) -> bool) {
        if enter(self) {
            self.children().for_each(|c| c.walk(enter));
        }
    }
}

/// A numeric-only compiled scalar, evaluated directly on `f64`s in the fused
/// fast path. Exactness relative to the [`Value`]-level evaluator is
/// guaranteed by construction plus runtime guards: pure-integer chains bail
/// out (to the exact general path) whenever a leaf or intermediate magnitude
/// exceeds 2^53, and string-valued slots bail at the leaf.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub enum FastOp {
    /// A comparison filter.
    Pred(CmpOp, NumExpr, NumExpr),
    /// A multiplicative weight.
    Weight(NumExpr),
    /// The loop key must lie in the interval an [`Op::Threshold`] of the
    /// member's continuation searched (see the module docs on quantile
    /// filters); an unsearched or fallen-back cut, or a key that is no loop
    /// key, sends the entry down the continuation.
    Cut {
        /// The threshold's [`Threshold::cache`].
        cut: u16,
        /// Its [`Threshold::range`].
        range: CmpOp,
        /// Its [`Threshold::key`], a slot the member's scan binds.
        key: Slot,
    },
}

/// One member of a [`FusedScan`]: the per-entry continuation (filters and
/// weights) of one hoisted sub-aggregate, summed into `dest`.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedMember {
    /// Ops applied to every scanned entry (no further iteration sources).
    pub cont: Vec<Op>,
    /// Numeric specialization of `cont`, used when present and falling back
    /// to `cont` per entry whenever a guard trips (see [`NumExpr`]). For a
    /// quantile-filtered sum, only the cuts of its thresholds.
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
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct FusedScan {
    /// Index into [`CompiledStmt::rels`].
    pub rel: u16,
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
    /// (see [`CompiledStmt::execute`]).
    pub entry_invariant: bool,
    /// The scanned position a range-sum scan sums over: set when the
    /// template binds at least one position, leaves exactly this one free,
    /// and every member (at most [`MAX_RANGE_MEMBERS`]) carries a
    /// [`BandSpec`] on it. The scan's `(relation, bound positions)` index is
    /// then declared ordered on this position and the traversal is replaced
    /// by one [`RelationSource::range_sums_at`] call (see the module docs).
    pub band_pos: Option<u16>,
    /// The scanned position a cut walk visits: set when the template leaves
    /// exactly this one position free, with no equality checks, and the one
    /// member's numeric pass is one [`FastOp::Cut`] on the key it binds
    /// there, weighted by that key at most once. The scan's index is then
    /// declared ordered on this position, and an execution whose cut is
    /// searched walks only the keys inside it (see the module docs on
    /// quantile filters).
    pub cut_pos: Option<u16>,
}

/// A compiled trigger statement: the lowered right-hand side plus the
/// pre-resolved key slots and the buffer shapes its execution needs.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledStmt {
    /// The relations, views and maps the plan reads, each once, in order of
    /// first appearance. Ops address them by index; an executor reads them
    /// through ids bound once per source ([`CompiledStmt::bind`]).
    pub rels: Vec<String>,
    /// Hoisted loop-invariant sub-aggregate scans, run before `plan` (see
    /// [`FusedScan`]).
    pub prelude: Vec<FusedScan>,
    /// Number of [`Scalar::CachedSum`]s in the plan.
    pub cached_sums: u16,
    /// Number of [`Op::Threshold`]s in the plan.
    pub thresholds: u16,
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
    /// The statements whose rows the kernel fills (see the module docs on
    /// kernel units): per member, in statement order, the terms of its
    /// value. Member `i`'s rows go into row buffer `i`
    /// ([`KernelState::rows_of`]). A lowered statement is one member with
    /// one [`SiblingTerm::IDENTITY`]; [`CompiledStmt::fuse`] makes more.
    pub members: Vec<Vec<SiblingTerm>>,
    /// How the kernel runs without the interpreter, if it can (see the
    /// module docs on straight-line units and event guards): derived when
    /// it is lowered or fused.
    pub straight: Option<Straight>,
}

/// One term of a member's value: what the member's own plan multiplies a
/// row of the kernel's frame by.
#[derive(Clone, Debug, PartialEq)]
pub struct SiblingTerm {
    /// Its value ops — [`Op::ConstMult`], [`Op::SlotMult`] and
    /// [`Op::ScalarMult`]s that read no map — in the member's plan order.
    pub values: Vec<Op>,
    /// Did a frame op follow the last of them in the member's own plan? Then
    /// that op's zero short-circuit drops a row whose product is zero.
    pub zero_drops: bool,
}

impl SiblingTerm {
    /// The term of a lowered statement: the plan's row as it comes.
    pub const IDENTITY: SiblingTerm = SiblingTerm {
        values: Vec::new(),
        zero_drops: false,
    };
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Why a statement could not be lowered; the compiler reports it as the
/// reason the program is rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// The statement's relation table (see [`CompiledStmt::rels`]).
    rels: Vec<String>,
    /// How many leading slots the trigger's event seeds.
    trigger_slots: u32,
}

impl Lowerer {
    fn new() -> Self {
        Lowerer {
            scope: Vec::new(),
            pinned: Vec::new(),
            next_slot: 0,
            pattern_arities: Vec::new(),
            scratch_maps: 0,
            rels: Vec::new(),
            trigger_slots: 0,
        }
    }

    /// `name`'s index in the relation table, added on first use.
    fn rel(&mut self, name: &str) -> Result<u16, Unsupported> {
        let i = match self.rels.iter().position(|r| r == name) {
            Some(i) => i,
            None => {
                self.rels.push(name.to_string());
                self.rels.len() - 1
            }
        };
        u16::try_from(i).map_err(|_| Unsupported("relation table overflow"))
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
            Expr::Apply(f, args) => Ok(Op::ScalarMult(self.lower_apply(f, args)?)),
        }
    }

    /// `f` applied to its lowered arguments, refused when it is given a
    /// number of them it does not take ([`ScalarFn::takes`]; the executor
    /// could not apply it).
    fn lower_apply(&mut self, f: &ScalarFn, args: &[Expr]) -> Result<Scalar, Unsupported> {
        if !f.takes(args.len()) {
            return Err(Unsupported("scalar function of the wrong arity"));
        }
        let args = args.iter().map(|a| self.lower_scalar(a));
        Ok(Scalar::Apply(f.clone(), args.collect::<Result<_, _>>()?))
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
        let rel = self.rel(&r.name)?;
        if firsts.is_empty() && eqs.is_empty() {
            let template: Vec<Slot> = template
                .into_iter()
                .map(|t| t.expect("all bound"))
                .collect();
            return Ok(Op::Probe { rel, buf, template });
        }
        let mut binds: Vec<(u16, Slot)> = Vec::with_capacity(firsts.len());
        for (i, a) in firsts {
            binds.push((i as u16, self.bind(a)?));
        }
        Ok(Op::Scan {
            rel,
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
        // Guards on the event lead a product that reads a map, in stable
        // order (see the module docs). One that ended in a guard after an op
        // that may yield zero keeps a copy of it there: its zero
        // short-circuit drops the zero rows the product's end dropped.
        if ops.iter().all(|op| passes_mult(op) || is_value_op(op)) {
            return Ok(Op::Product(ops));
        }
        let on_event = |op: &Op| guards_event(op, self.trigger_slots);
        let last = ops.iter().rposition(|op| !on_event(op));
        let end = match last {
            Some(i) if i + 1 < ops.len() && may_zero(&ops[i]) => ops.last().cloned(),
            _ => None,
        };
        let (mut guards, rest): (Vec<Op>, Vec<Op>) = ops.into_iter().partition(|op| on_event(op));
        guards.extend(rest);
        guards.extend(end);
        Ok(Op::Product(guards))
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
                // The reference evaluator unions term results by column
                // *set*; terms with different output sets have no meaning
                // there, and a term binding a pinned name only in a dead
                // inner scope would leave a slot aliased — reject both.
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
            Expr::Apply(f, args) => self.lower_apply(f, args),
            Expr::Cmp(op, l, r) => Ok(Scalar::Cmp(
                *op,
                Box::new(self.lower_scalar(l)?),
                Box::new(self.lower_scalar(r)?),
            )),
            // Collection-valued expression in scalar position: compile a
            // sub-plan and sum its emissions. Sound only when every output
            // column is already bound — if the sub-plan binds new visible
            // slots, the reference evaluator raises `NotScalar`; reject.
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

/// Is `op` an event guard: a filter whose operands are trigger slots and
/// constants only?
fn guards_event(op: &Op, trigger_slots: u32) -> bool {
    let on_event = |s: &Scalar| match s {
        Scalar::Slot(slot) => u32::from(*slot) < trigger_slots,
        Scalar::Const(_) => true,
        _ => false,
    };
    matches!(op, Op::CmpFilter { left, right, .. } if on_event(left) && on_event(right))
}

/// Lower one trigger statement (or, with no trigger variables, a static
/// view's definition) to a compiled kernel. `trigger_vars` seed frame slots
/// `0..n` (positionally matching the event tuple); `key_vars` name the target
/// map's key columns. Fails with the first construct that cannot be
/// statically resolved.
pub fn lower_statement(
    trigger_vars: &[String],
    key_vars: &[String],
    rhs: &Expr,
) -> Result<CompiledStmt, Unsupported> {
    let mut lw = Lowerer::new();
    for v in trigger_vars {
        // Duplicate trigger variable names shadow like the interpreter's
        // context: every position gets a slot, innermost lookup wins.
        lw.bind(v)?;
    }
    lw.trigger_slots = lw.next_slot;
    let plan = lw.lower_op(rhs)?;
    // A bound name is never re-bound during lowering, so innermost lookup is
    // equivalent to the interpreter's trigger-bindings-first key resolution.
    let key_slots = key_vars
        .iter()
        .map(|kv| lw.lookup(kv).ok_or(Unsupported("unbound key variable")))
        .collect::<Result<Vec<Slot>, _>>()?;
    let mut stmt = CompiledStmt {
        rels: lw.rels,
        prelude: Vec::new(),
        cached_sums: 0,
        thresholds: 0,
        plan,
        key_slots,
        frame_size: lw.next_slot as u16,
        pattern_arities: lw.pattern_arities,
        scratch_maps: lw.scratch_maps,
        trigger_slots: trigger_vars.len() as u16,
        used_trigger_slots: Vec::new(),
        members: vec![vec![SiblingTerm::IDENTITY]],
        straight: None,
    };
    hoist_invariant_subsums(&mut stmt);
    stmt.used_trigger_slots = used_trigger_slots(&stmt);
    stmt.straight = Straight::of(&stmt);
    Ok(stmt)
}

/// The trigger slots a compiled statement consumes: reads of the main plan,
/// reads of every hoisted prelude scan (bound template holes and member
/// continuations), and trigger-bound key slots.
fn used_trigger_slots(stmt: &CompiledStmt) -> Vec<Slot> {
    let holes = stmt
        .prelude
        .iter()
        .flat_map(|fs| fs.template.iter().flatten());
    let mut reads: Vec<Slot> = holes.copied().collect();
    stmt.roots().for_each(|root| slots_read(root, &mut reads));
    reads.extend(&stmt.key_slots);
    reads.retain(|s| (*s as usize) < stmt.trigger_slots as usize);
    reads.sort_unstable();
    reads.dedup();
    reads
}

// ---------------------------------------------------------------------------
// Loop-invariant sub-aggregate hoisting and shared-scan fusion
// ---------------------------------------------------------------------------

/// Slots a plan tree reads (frame positions whose value it consumes), once
/// per reader. A threshold reads what its fallback reads.
fn slots_read(node: Node, out: &mut Vec<Slot>) {
    node.walk(&mut |n| {
        match n {
            Node::Op(Op::SlotMult(s) | Op::LiftEq { slot: s, .. })
            | Node::Scalar(Scalar::Slot(s)) => out.push(*s),
            Node::Op(Op::Probe { template, .. }) => out.extend(template),
            Node::Op(Op::Scan { template, .. }) => out.extend(template.iter().flatten()),
            Node::Op(Op::Threshold(t)) => {
                t.fallback.iter().for_each(|o| slots_read(Node::Op(o), out));
                return false;
            }
            _ => {}
        }
        true
    });
}

/// Slots a plan tree writes (scan bindings, lift targets, exists rebinds).
fn slots_written(node: Node, out: &mut Vec<Slot>) {
    node.walk(&mut |n| {
        match n {
            Node::Op(Op::Scan { binds, .. }) => out.extend(binds.iter().map(|&(_, s)| s)),
            Node::Op(Op::LiftBind { slot, .. }) => out.push(*slot),
            Node::Op(Op::Exists { slots, .. }) => out.extend(slots),
            _ => {}
        }
        true
    });
}

/// The bitmask of a template's bound positions (positions past 62 are
/// never indexed, as in the runtime's store).
pub fn template_mask(template: &[Option<Slot>]) -> u64 {
    (0..template.len().min(63))
        .filter(|&i| template[i].is_some())
        .fold(0, |m, i| m | 1 << i)
}

/// Is a tree free of iteration sources and sub-plans — may it stand in a
/// fused member's per-entry continuation?
fn simple(node: Node) -> bool {
    let source = matches!(
        node,
        Node::Op(Op::Probe { .. } | Op::Scan { .. } | Op::Exists { .. } | Op::Threshold(_))
            | Node::Scalar(Scalar::SubSum(_) | Scalar::RangeSum { .. } | Scalar::CachedSum { .. })
    );
    !source && node.children().all(simple)
}

/// Can `op` emit more than once per incoming emission — is what follows it
/// in a product inside a loop? Only a sub-op can make it: a scalar position
/// yields one value.
fn iterates(op: &Op) -> bool {
    matches!(op, Op::Scan { .. } | Op::Exists { .. })
        || Node::Op(op)
            .children()
            .any(|c| matches!(c, Node::Op(o) if iterates(o)))
}

/// The `AggSum*(Product[Scan, cont…])` (or bare scan) shape of a sub-sum:
/// its scan and the per-entry continuation after it.
pub fn scan_body(op: &Op) -> Option<(&Op, &[Op])> {
    // Strip grouping markers (grouping is a no-op for an accumulating sink).
    let mut body = op;
    while let Op::AggSum(inner) = body {
        body = inner;
    }
    match body {
        Op::Scan { .. } => Some((body, &[][..])),
        Op::Product(ops) => match ops.split_first() {
            Some((first @ Op::Scan { .. }, rest)) => Some((first, rest)),
            _ => None,
        },
        _ => None,
    }
}

/// The [`Scalar::RangeSum`] a lift's value is: bare, or summed as a one-op
/// sub-plan (`SubSum(ScalarMult(RangeSum))`, as lowering wraps a lifted
/// aggregate).
fn band_lookup(s: &Scalar) -> Option<&Scalar> {
    match s {
        Scalar::RangeSum { .. } => Some(s),
        Scalar::SubSum(op) => match &**op {
            Op::ScalarMult(inner) => band_lookup(inner),
            _ => None,
        },
        _ => None,
    }
}

/// The scan a band-sum lookup's walk reads: its relation, pattern buffer and
/// template.
fn lookup_scan(traverse: &Op) -> Option<(u16, u16, &[Option<Slot>])> {
    match scan_body(traverse)? {
        (
            Op::Scan {
                rel, buf, template, ..
            },
            _,
        ) => Some((*rel, *buf, template)),
        _ => None,
    }
}

/// The one position a template leaves free, if it leaves exactly one.
fn free_position(template: &[Option<Slot>]) -> Option<u16> {
    let mut free = (0..template.len()).filter(|&i| template[i].is_none());
    match (free.next(), free.next()) {
        (Some(pos), None) => u16::try_from(pos).ok(),
        _ => None,
    }
}

/// Why a scanning sub-sum of a lowered statement stayed a walk, where it is
/// one of the reasons the module docs list — what EXPLAIN prints next to it.
/// `None` for any other sub-plan. `trigger_slots` is the statement's.
pub fn range_sum_refusal(op: &Op, trigger_slots: u16) -> Option<&'static str> {
    let (Op::Scan { template, .. }, cont) = scan_body(op)? else {
        return None;
    };
    let aggregate = |op: &Op| match op {
        Op::ScalarMult(s) | Op::LiftBind { value: s, .. } | Op::LiftEq { value: s, .. } => {
            !simple(Node::Scalar(s))
        }
        Op::Threshold(_) => true,
        _ => false,
    };
    let is_weight = |f: &FastOp| matches!(f, FastOp::Weight(_));
    if template.iter().flatten().any(|&s| s >= trigger_slots) {
        Some("a template hole bound by the loop")
    } else if cont.iter().any(aggregate) {
        Some("another aggregate in the member")
    } else if compile_fast(cont)?.iter().any(is_weight) {
        Some("a weight in the member")
    } else {
        None
    }
}

struct Hoister {
    trigger_slots: u16,
    next_slot: u32,
    groups: Vec<FusedScan>,
    cached_sums: u16,
    thresholds: u16,
    /// Every slot the statement reads, once per reader.
    reads: Vec<Slot>,
    /// Does the op being hoisted run once per row of an enclosing loop?
    in_loop: bool,
}

impl Hoister {
    fn hoist_op(&mut self, op: &mut Op) {
        match op {
            Op::ScalarMult(s) => self.hoist_scalar(s),
            Op::Product(ops) => {
                let outer = self.in_loop;
                for o in ops.iter_mut() {
                    self.hoist_op(o);
                    self.in_loop |= iterates(o);
                }
                self.in_loop = outer;
                self.fuse_thresholds(ops);
            }
            Op::Sum(ops) => {
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
            Op::ConstMult(_)
            | Op::SlotMult(_)
            | Op::Probe { .. }
            | Op::Scan { .. }
            | Op::Threshold(_) => {}
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
                } else if let Some(lookup) = self.try_range_sum(op) {
                    *s = lookup;
                } else if self.in_loop
                    && self.cached_sums < u16::MAX
                    && (scan_body(op).is_some() || matches!(**op, Op::Probe { .. }))
                    && self.invariant(op)
                {
                    // A walk worth the same on every row of the loop.
                    let plan = std::mem::replace(op, Box::new(Op::ConstMult(0.0)));
                    let cache = self.cached_sums;
                    self.cached_sums += 1;
                    *s = Scalar::CachedSum { cache, plan };
                }
            }
            Scalar::RangeSum { .. } | Scalar::CachedSum { .. } => {}
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

    /// Invariance: is every slot the sub-plan reads either a trigger slot or
    /// written by the sub-plan itself (its scan bindings and any internal
    /// lifts)? Then it is worth the same wherever in the statement it runs.
    fn invariant(&self, op: &Op) -> bool {
        let mut reads = Vec::new();
        slots_read(Node::Op(op), &mut reads);
        let mut own = Vec::new();
        slots_written(Node::Op(op), &mut own);
        reads
            .iter()
            .all(|s| (*s as usize) < self.trigger_slots as usize || own.contains(s))
    }

    /// Is `s` worth the same on every row of an execution: a constant, a
    /// trigger slot, a prelude result or a cached sum — bare, or summed as
    /// a one-op sub-plan, as lowering wraps a lifted aggregate?
    fn invariant_scalar(&self, s: &Scalar) -> bool {
        let prelude = |x: Slot| {
            self.groups
                .iter()
                .flat_map(|g| &g.members)
                .any(|m| m.dest == x)
        };
        match s {
            Scalar::Const(_) | Scalar::CachedSum { .. } => true,
            Scalar::Slot(x) => *x < self.trigger_slots || prelude(*x),
            Scalar::SubSum(op) => matches!(&**op, Op::ScalarMult(x) if self.invariant_scalar(x)),
            _ => false,
        }
    }

    /// Fuse each band-sum lift of a product with the order comparison that
    /// is its only reader into an [`Op::Threshold`], when the comparison's
    /// other side is loop-invariant (see the module docs on quantile
    /// filters). The threshold stands where the comparison stood: nothing
    /// between the two reads what the lift binds.
    fn fuse_thresholds(&mut self, ops: &mut Vec<Op>) {
        let mut f = 0;
        while f < ops.len() {
            let Some((lift, mut threshold)) = self.threshold(ops, f) else {
                f += 1;
                continue;
            };
            threshold.cache = self.thresholds;
            self.thresholds += 1;
            let filter = std::mem::replace(&mut ops[f], Op::ConstMult(1.0));
            threshold.fallback = vec![ops.remove(lift), filter];
            ops[f - 1] = Op::Threshold(Box::new(threshold));
        }
    }

    /// The threshold the comparison `ops[f]` forms with a band-sum lift
    /// before it, and that lift's index.
    fn threshold(&self, ops: &[Op], f: usize) -> Option<(usize, Threshold)> {
        let Op::CmpFilter { cmp, left, right } = &ops[f] else {
            return None;
        };
        if matches!(cmp, CmpOp::Eq | CmpOp::Ne) || self.thresholds == u16::MAX {
            return None;
        }
        let before = &ops[..f];
        let lifted = |x: &Slot| {
            before.iter().any(|o| match o {
                Op::LiftBind { slot, value } => slot == x && self.invariant_scalar(value),
                _ => false,
            })
        };
        let sides = [(true, left, right), (false, right, left)];
        sides.into_iter().find_map(|(sum_left, sum, operand)| {
            let &Scalar::Slot(s) = sum else {
                return None;
            };
            let is_lift = |o: &Op| matches!(o, Op::LiftBind { slot, .. } if *slot == s);
            let lift = before.iter().position(is_lift)?;
            let Op::LiftBind { value, .. } = &before[lift] else {
                return None;
            };
            let Some(Scalar::RangeSum { ranges, .. }) = band_lookup(value) else {
                return None;
            };
            let [(range, NumExpr::Slot(key))] = ranges.as_slice() else {
                return None;
            };
            let binds_key =
                |o: &Op| matches!(o, Op::Scan { binds, .. } if binds.iter().any(|b| b.1 == *key));
            let mut reads = Vec::new();
            slots_read(Node::Scalar(operand), &mut reads);
            let invariant = simple(Node::Scalar(operand))
                && reads
                    .iter()
                    .all(|x| self.invariant_scalar(&Scalar::Slot(*x)) || lifted(x));
            let only_reader = self.reads.iter().filter(|&&r| r == s).count() == 1;
            let fuses = before[..lift].iter().any(binds_key) && invariant && only_reader;
            fuses.then(|| {
                let threshold = Threshold {
                    cache: 0,
                    range: *range,
                    key: *key,
                    operand: operand.clone(),
                    cmp: *cmp,
                    sum_left,
                    fallback: Vec::new(),
                };
                (lift, threshold)
            })
        })
    }

    /// The numeric pass of a continuation whose every op is a loop-invariant
    /// lift, an [`Op::Threshold`] on a key `binds` binds or a weight by such
    /// a key, at least one a threshold: one [`FastOp::Cut`] per threshold and
    /// one [`FastOp::Weight`] per weight, in order (see the module docs on
    /// quantile filters). A lift needs no step: an entry takes the pass only
    /// once every cut is searched, which a row down the continuation did,
    /// every lift before it included, and the lift binds the same value on
    /// every row.
    fn quantile_pass(&self, cont: &[Op], binds: &[(u16, Slot)]) -> Option<Vec<FastOp>> {
        let bound = |s: &Slot| binds.iter().any(|b| b.1 == *s);
        let mut pass = Vec::new();
        for op in cont {
            match op {
                Op::LiftBind { value, .. } if self.invariant_scalar(value) => {}
                Op::Threshold(t) if bound(&t.key) => pass.push(FastOp::Cut {
                    cut: t.cache,
                    range: t.range,
                    key: t.key,
                }),
                Op::SlotMult(s) if bound(s) => pass.push(FastOp::Weight(NumExpr::Slot(*s))),
                _ => return None,
            }
        }
        pass.iter()
            .any(|f| matches!(f, FastOp::Cut { .. }))
            .then_some(pass)
    }

    /// Extract a `SubSum` plan of shape `AggSum*(Product[Scan, cont…])` (or a
    /// bare scan) whose reads are confined to trigger slots plus its own
    /// bindings, merging it into a fused prelude scan — `cont` made of
    /// filters and weights, or of quantile filters ([`Hoister::quantile_pass`]).
    /// Returns the result slot on success.
    fn try_extract(&mut self, op: &Op) -> Option<Slot> {
        let (scan, cont) = scan_body(op)?;
        let Op::Scan { binds, .. } = scan else {
            return None;
        };
        let fast = match cont.iter().all(|op| simple(Node::Op(op))) {
            true => compile_fast(cont),
            false => Some(self.quantile_pass(cont, binds)?),
        };
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
        if !self.invariant(op) || self.next_slot >= u16::MAX as u32 {
            return None;
        }
        // Batch invariance: a sub-plan that reads no trigger slot at all (its
        // reads are entirely its own bindings) computes the same total for
        // every entry of a delta batch.
        let mut reads = Vec::new();
        slots_read(Node::Op(op), &mut reads);
        let entry_invariant = !reads
            .iter()
            .any(|s| (*s as usize) < self.trigger_slots as usize);
        let dest = self.next_slot as Slot;
        self.next_slot += 1;
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
            rel: *rel,
            buf: *buf,
            template: template.clone(),
            binds: binds.clone(),
            eqs: eqs.clone(),
            members: vec![member],
            entry_invariant,
            band_pos: None,
            cut_pos: None,
        });
        Some(dest)
    }

    /// Turn a sub-sum [`Hoister::try_extract`] refused — its band bounds
    /// read a slot an enclosing loop binds — into a [`Scalar::RangeSum`]
    /// lookup, when its scan's group is fixed for the execution (template
    /// holes read trigger slots only), the band column is its one free
    /// column, and its continuation is a band member (see the module docs).
    fn try_range_sum(&self, op: &Op) -> Option<Scalar> {
        let (scan, cont) = scan_body(op)?;
        let Op::Scan {
            template,
            binds,
            eqs,
            ..
        } = scan
        else {
            return None;
        };
        if !eqs.is_empty() || template.iter().flatten().any(|&s| s >= self.trigger_slots) {
            return None;
        }
        let band = member_band(&compile_fast(cont)?, binds)?;
        if free_position(template) != Some(band.key_pos) {
            return None;
        }
        Some(Scalar::RangeSum {
            ranges: band.ranges,
            traverse: Box::new(op.clone()),
        })
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

/// The band key of `v`, when it can be one: a finite, non-zero,
/// integer-valued number of magnitude ≤ 2^53 (zero is out because `-0.0` and
/// `+0.0` are one key but two positions in IEEE order).
pub fn band_key(v: &Value) -> Option<f64> {
    let k = match v {
        Value::Long(l) if l.unsigned_abs() <= 1 << 53 => *l as f64,
        Value::Double(d) => *d,
        _ => return None,
    };
    (k != 0.0 && k.abs() <= EXACT_INT_BOUND && integral(k)).then_some(k)
}

/// The contribution of a multiplicity to a running sum, when it is exact.
pub fn exact_mult(m: f64) -> Option<i64> {
    (m.abs() < EXACT_INT_BOUND && integral(m)).then_some(m as i64)
}

/// Is `x`, of magnitude at most 2^63, a whole number? `fract` would call
/// libm's `trunc` on every entry of a walk; a round trip through `i64` is
/// two instructions, and `NaN` fails it.
#[inline]
fn integral(x: f64) -> bool {
    (x as i64) as f64 == x
}

/// Number of comparisons a binary search over `n` sorted items makes — what
/// a range sum adds to `entries_scanned` per search.
pub fn search_steps(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

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

/// Intersect a band's constraints into one `lo ≤ key < hi`, folding the
/// magnitudes of their bounds into `bound_mag`. `None` — walk instead — when
/// a bound is outside the exactness contract (see [`eval_bound`]). Keys and
/// bounds are integers, so `key ≤ b ⇔ key < b + 1` and `key > b ⇔ key ≥
/// b + 1`; `|b| < 2^53` keeps `b + 1` exact.
fn band_interval(
    ranges: &[(CmpOp, NumExpr)],
    frame: &[Value],
    bound_mag: &mut f64,
) -> Option<(f64, f64)> {
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for (cmp, be) in ranges {
        let (b, mag) = eval_bound(be, frame)?;
        // A `-0.0` bound (a fold of negated terms that cancel) is no
        // non-zero integer either.
        if b == 0.0 && b.is_sign_negative() {
            return None;
        }
        *bound_mag = bound_mag.max(mag);
        match cmp {
            CmpOp::Lt => hi = hi.min(b),
            CmpOp::Le => hi = hi.min(b + 1.0),
            CmpOp::Gt => lo = lo.max(b + 1.0),
            CmpOp::Ge => lo = lo.max(b),
            CmpOp::Eq | CmpOp::Ne => return None,
        }
    }
    Some((lo, hi))
}

/// Evaluate a comparison exactly as `CmpOp::eval` does on numeric [`Value`]s:
/// equality through `Value`'s normalized bit patterns, ordering through
/// [`Value::numeric_cmp`].
#[inline]
fn num_cmp(op: CmpOp, l: f64, r: f64) -> bool {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => Value::numeric_bits(l) == Value::numeric_bits(r),
        CmpOp::Ne => Value::numeric_bits(l) != Value::numeric_bits(r),
        CmpOp::Lt => Value::numeric_cmp(l, r) == Ordering::Less,
        CmpOp::Le => Value::numeric_cmp(l, r) != Ordering::Greater,
        CmpOp::Gt => Value::numeric_cmp(l, r) == Ordering::Greater,
        CmpOp::Ge => Value::numeric_cmp(l, r) != Ordering::Less,
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

fn run_fast(ops: &[FastOp], frame: &[Value], cuts: &[Cut], mut mult: f64) -> FastOutcome {
    for op in ops {
        match op {
            FastOp::Cut { cut, range, key } => {
                let (Cut::Keys(lo, hi), Some(p)) =
                    (cuts[*cut as usize], loop_key(&frame[*key as usize]))
                else {
                    return FastOutcome::Bail;
                };
                if !admits(*range, (lo, hi), p) {
                    return FastOutcome::Skip;
                }
            }
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
/// [`FusedScan`]), turn band sums inside loops into [`Scalar::RangeSum`]
/// lookups, and fuse the quantile filters that read them into
/// [`Op::Threshold`]s.
fn hoist_invariant_subsums(stmt: &mut CompiledStmt) {
    let mut reads = stmt.key_slots.clone();
    slots_read(Node::Op(&stmt.plan), &mut reads);
    let mut h = Hoister {
        trigger_slots: stmt.trigger_slots,
        next_slot: stmt.frame_size as u32,
        groups: Vec::new(),
        cached_sums: 0,
        thresholds: 0,
        reads,
        in_loop: false,
    };
    let mut plan = std::mem::replace(&mut stmt.plan, Op::ConstMult(0.0));
    h.hoist_op(&mut plan);
    stmt.plan = plan;
    stmt.frame_size = h.next_slot as u16;
    stmt.prelude = h.groups;
    stmt.cached_sums = h.cached_sums;
    stmt.thresholds = h.thresholds;
    for g in &mut stmt.prelude {
        g.band_pos = g.range_sum_position().ok();
        g.cut_pos = g.cut_walk_position();
    }
}

// ---------------------------------------------------------------------------
// Kernel units: sibling statements fused into one kernel
// ---------------------------------------------------------------------------

/// Is `op` a value op a fused member keeps for itself: a multiplier that
/// reads no map?
fn is_value_op(op: &Op) -> bool {
    match op {
        Op::ConstMult(_) | Op::SlotMult(_) => true,
        Op::ScalarMult(s) => {
            let mut pure = true;
            Node::Scalar(s).walk(&mut |n| {
                pure &= matches!(n, Node::Scalar(_));
                pure
            });
            pure
        }
        _ => false,
    }
}

/// Does `op` pass its multiplicity on unchanged (a filter or a lift), so a
/// nonzero constant may cross it?
fn passes_mult(op: &Op) -> bool {
    matches!(
        op,
        Op::CmpFilter { .. } | Op::LiftBind { .. } | Op::LiftEq { .. }
    )
}

/// May `op` turn a nonzero multiplicity into zero? A filter or a lift
/// passes it on, and a constant of magnitude one or more keeps it nonzero.
fn may_zero(op: &Op) -> bool {
    match op {
        Op::ConstMult(c) => c.abs() < 1.0,
        op => !passes_mult(op),
    }
}

/// Does a frame emit at most one row per walk: no scan, sum or `Exists`?
fn single_row(frame: &[Op]) -> bool {
    let mut one = true;
    for op in frame {
        Node::Op(op).walk(&mut |n| match n {
            Node::Op(Op::Scan { .. } | Op::Sum(_) | Op::Exists { .. } | Op::Threshold(_)) => {
                one = false;
                false
            }
            // A scalar is one value, whatever it sums.
            Node::Scalar(_) => false,
            Node::Op(_) => one,
        });
    }
    one
}

/// Are two plan parts the same, as they render? `==` would equate a
/// `Long(2)` constant with a `Double(2.0)`, which bind different keys.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The factors of a plan term: a product's, or the op itself.
fn factors(op: &Op) -> &[Op] {
    match op {
        Op::Product(ops) => ops,
        _ => std::slice::from_ref(op),
    }
}

/// Take a term's factors apart into its frame and its value. The trailing
/// value ops are the value; before them a nonzero constant joins the value
/// when only filters, lifts and other such constants follow it — the
/// products it takes part in are then the same — and every other factor
/// stays in the frame, in order.
fn split_term(factors: &[Op]) -> (Vec<Op>, SiblingTerm) {
    let (mut frame, mut values) = (Vec::new(), Vec::new());
    let (mut trailing, mut crossable, mut zero_drops) = (true, true, false);
    for op in factors.iter().rev() {
        if trailing && is_value_op(op) {
            values.push(op.clone());
            continue;
        }
        trailing = false;
        match op {
            Op::ConstMult(c) if *c != 0.0 && crossable => {
                zero_drops |= values.is_empty();
                values.push(op.clone());
            }
            _ => {
                crossable &= passes_mult(op);
                frame.push(op.clone());
            }
        }
    }
    frame.reverse();
    values.reverse();
    (frame, SiblingTerm { values, zero_drops })
}

impl CompiledStmt {
    /// A lowered statement's plan taken apart into the factors of its frame
    /// and its terms (see [`CompiledStmt::frame`]). A sum whose terms share
    /// one single-row frame splits term by term: per row, its terms emit
    /// back to back, as its own plan emits them; any other plan is one term.
    /// `None` for a kernel that is already fused: one whose members are not
    /// one lowered statement's.
    fn split(&self) -> Option<(Vec<Op>, Vec<SiblingTerm>)> {
        if !matches!(&self.members[..], [m] if m[..] == [SiblingTerm::IDENTITY]) {
            return None;
        }
        let summed = match &self.plan {
            Op::Sum(terms) => {
                let split: Vec<_> = terms.iter().map(|t| split_term(factors(t))).collect();
                match split.first() {
                    Some((f, _)) if single_row(f) && split.iter().all(|(g, _)| same(g, f)) => {
                        let f = f.clone();
                        Some((f, split.into_iter().map(|(_, t)| t).collect()))
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        Some(summed.unwrap_or_else(|| {
            let (frame, term) = split_term(factors(&self.plan));
            (frame, vec![term])
        }))
    }

    /// This kernel with each term's value ops taken out — what fused
    /// siblings must share, with `frame_size` and `used_trigger_slots`
    /// cleared, which values may widen — and the terms taken out
    /// ([`CompiledStmt::split`]). `None` for a fused kernel.
    fn frame(&self) -> Option<(CompiledStmt, Vec<SiblingTerm>)> {
        let (frame, terms) = self.split()?;
        let plan = match <[Op; 1]>::try_from(frame) {
            Ok([op]) => op,
            Err(ops) => Op::Product(ops),
        };
        let frame = CompiledStmt {
            plan,
            frame_size: 0,
            used_trigger_slots: Vec::new(),
            straight: None,
            ..self.clone()
        };
        Some((frame, terms))
    }

    /// How this kernel's frame renders — kernels whose frames render the same
    /// fuse ([`CompiledStmt::fuse`]) — or `None` for a fused kernel.
    pub fn frame_shape(&self) -> Option<String> {
        self.frame().map(|(frame, _)| format!("{frame:?}"))
    }

    /// Fuse sibling statements into one kernel: one walk of the frame they
    /// share, and per row each member's own value ops into its own row
    /// buffer (see the module docs on kernel units). `None` unless every
    /// member is one lowered statement's kernel and all have the same frame
    /// as it renders — the plan once each term's value ops are taken out,
    /// with the same key slots, relation table, prelude and buffers.
    pub fn fuse(members: &[&CompiledStmt]) -> Option<CompiledStmt> {
        let mut frames = members.iter().map(|m| m.frame());
        let (mut fused, lead) = frames.next()??;
        let shape = format!("{fused:?}");
        let mut sinks = vec![lead];
        for f in frames {
            let (frame, terms) = f?;
            if format!("{frame:?}") != shape {
                return None;
            }
            sinks.push(terms);
        }
        let mut used: Vec<Slot> = members
            .iter()
            .flat_map(|m| m.used_trigger_slots.iter().copied())
            .collect();
        used.sort_unstable();
        used.dedup();
        fused.frame_size = members.iter().map(|m| m.frame_size).max()?;
        fused.used_trigger_slots = used;
        fused.members = sinks;
        fused.straight = Straight::of(&fused);
        Some(fused)
    }
}

impl CompiledStmt {
    /// Every `(relation, template)` the kernel reads with a pattern that
    /// leaves a position free — plan scans wherever they sit (sub-sums,
    /// cached sums, fallbacks, band-sum walks, prelude members) and fused
    /// prelude scans. Each is answered from the secondary index of the
    /// template's bound positions ([`template_mask`]), which is what the
    /// runtime declares up front.
    pub fn scans(&self) -> Vec<(u16, &[Option<Slot>])> {
        let mut out: Vec<_> = self
            .prelude
            .iter()
            .map(|f| (f.rel, &f.template[..]))
            .collect();
        for root in self.roots() {
            root.walk(&mut |n| {
                if let Node::Op(Op::Scan { rel, template, .. }) = n {
                    out.push((*rel, template));
                }
                true
            });
        }
        out
    }

    /// Every `(relation, template, sorted position)` the kernel reads
    /// through an ordered index: range-sum and cut-walk prelude scans, and
    /// the group of every [`Scalar::RangeSum`] lookup — which the
    /// [`Op::Threshold`] searches over it read too — wherever it sits.
    pub fn ordered_reads(&self) -> Vec<(u16, &[Option<Slot>], u16)> {
        let mut walks = Vec::new();
        for root in self.roots() {
            root.walk(&mut |n| match n {
                Node::Scalar(Scalar::RangeSum { traverse, .. }) => {
                    walks.push(&**traverse);
                    false
                }
                _ => true,
            });
        }
        let prelude = self.prelude.iter().filter_map(|f| {
            let pos = f.band_pos.or(f.cut_pos)?;
            Some((f.rel, &f.template[..], pos))
        });
        let lookups = walks.into_iter().filter_map(|walk| {
            let (rel, _, template) = lookup_scan(walk)?;
            Some((rel, template, free_position(template)?))
        });
        prelude.chain(lookups).collect()
    }

    /// The plan trees the kernel runs: its plan, then the continuation ops
    /// of every prelude member.
    fn roots(&self) -> impl Iterator<Item = Node<'_>> {
        let conts = self.prelude.iter().flat_map(|f| &f.members);
        let conts = conts.flat_map(|m| &m.cont);
        std::iter::once(&self.plan).chain(conts).map(Node::Op)
    }

    /// The plan's relation table resolved against `src`: what
    /// [`CompiledStmt::execute`] reads through. A relation the source does
    /// not know stays `None`, and the read that reaches it panics.
    pub fn bind(&self, src: &dyn RelationSource) -> Vec<Option<RelId>> {
        self.rels.iter().map(|r| src.relation_id(r)).collect()
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

    /// The position a cut walk visits (see [`FusedScan::cut_pos`]).
    fn cut_walk_position(&self) -> Option<u16> {
        let [member] = self.members.as_slice() else {
            return None;
        };
        let pos = free_position(&self.template).filter(|_| self.eqs.is_empty())?;
        let key = |s: &Slot| self.binds.iter().any(|&(p, b)| p == pos && b == *s);
        let (mut cuts, mut weights) = (0, 0);
        for f in member.fast.as_deref()? {
            match f {
                FastOp::Cut { key: k, .. } if key(k) => cuts += 1,
                FastOp::Weight(NumExpr::Slot(s)) if key(s) => weights += 1,
                _ => return None,
            }
        }
        (cuts == 1 && weights <= 1).then_some(pos)
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

/// The [`VIEW_VALUES`](dbtoaster_telemetry::VIEW_VALUES) slots an execution
/// counts its work into ([`LocalCounts::add`]): fully bound probes
/// ([`Op::Probe`]); full scans ([`Op::Scan`] plus fused-prelude traversals)
/// and the entries they visit; fused prelude traversals (one bucket walk
/// answering every member); range sums answered from an ordered index (the
/// entries their binary searches compared count as visited) and those that
/// bailed to a full traversal — a bound or a group outside the exactness
/// contract, or a source without ordered indexes.
const PROBES: usize = slot_of("probes");
const SCANS: usize = slot_of("scans");
const ENTRIES_SCANNED: usize = slot_of("entries_scanned");
const FUSED_SCANS: usize = slot_of("fused_scans");
const RANGE_SUM_HITS: usize = slot_of("range_sum_hits");
const RANGE_SUM_BAILS: usize = slot_of("range_sum_bails");

/// Reusable per-engine kernel execution state: the slot frame, one pattern
/// buffer per atom, scratch group maps for `Exists`, and one row buffer per
/// member. Steady-state execution allocates nothing — every buffer is sized on
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
    /// The values of the executing statement's [`Scalar::CachedSum`]s, once
    /// computed.
    cached: Vec<Option<Value>>,
    /// What the executing statement's [`Op::Threshold`]s found, once
    /// searched.
    cuts: Vec<Cut>,
    /// The `(key, multiplicity)` row buffers: member `i` of the executing
    /// kernel appends to `rows[i]`, which its caller may lend it
    /// ([`KernelState::rows_of`]).
    rows: Vec<Vec<(Tuple, f64)>>,
    /// Where each member's rows of the executing kernel start: its merge
    /// floor (see the module docs on kernel units).
    floors: Vec<usize>,
}

impl KernelState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        KernelState::default()
    }

    /// Size the buffers for a statement. Must be called (and the trigger
    /// slots seeded) before [`CompiledStmt::execute`], which appends to the
    /// row buffers ([`KernelState::rows_of`]).
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
        if self.cached.len() < stmt.cached_sums as usize {
            self.cached.resize(stmt.cached_sums as usize, None);
        }
        if self.cuts.len() < stmt.thresholds as usize {
            self.cuts.resize(stmt.thresholds as usize, Cut::Unsearched);
        }
        self.rows_of(stmt);
    }

    /// The row buffers an execution of `stmt` appends to, one per member
    /// ([`CompiledStmt::members`]). A caller lends its own buffers by
    /// swapping them in, and takes them back the same way.
    pub fn rows_of(&mut self, stmt: &CompiledStmt) -> &mut [Vec<(Tuple, f64)>] {
        let n = stmt.members.len();
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
        &mut self.rows[..n]
    }
}

/// What an execution knows of one [`Op::Threshold`].
#[derive(Clone, Copy, Debug, Default)]
enum Cut {
    /// Not searched yet in this execution.
    #[default]
    Unsearched,
    /// The loop keys whose rows pass lie between these two keys of the
    /// band's group (see [`admits`]).
    Keys(f64, f64),
    /// Every row runs the lift and the filter.
    Fallback,
}

/// Does loop key `p` lie between a threshold's edges `lo` and `hi`? A band
/// `k > key` or `k ≤ key` sums by the group's keys `≤ p`, so the keys of
/// one cell are `[lo, hi)`; `k ≥ key` and `k < key` sum by those `< p`, and
/// a cell's keys are `(lo, hi]` ([`closed_above`]).
fn admits(range: CmpOp, (lo, hi): (f64, f64), p: f64) -> bool {
    match closed_above(range) {
        false => lo <= p && p < hi,
        true => lo < p && p <= hi,
    }
}

/// Are a band `range`'s cells closed at their upper edge?
fn closed_above(range: CmpOp) -> bool {
    !matches!(range, CmpOp::Gt | CmpOp::Le)
}

/// A loop key as the number a threshold compares: a finite number, a `Long`
/// only within 2^53 — beyond it `Value` compares exact integers, which `f64`
/// cannot. `None` sends the row down the lift and the filter.
fn loop_key(v: &Value) -> Option<f64> {
    match v {
        Value::Long(l) if l.unsigned_abs() <= 1 << 53 => Some(*l as f64),
        Value::Double(d) if d.is_finite() => Some(*d),
        _ => None,
    }
}

/// Downstream continuation of an emission: the remaining pipeline stages plus
/// the terminal sink.
enum Tail<'a> {
    /// The kernel's sink ([`CompiledStmt::members`]): per member, its value
    /// ops, then its row under the key `key_slots` hold.
    Members(&'a [Vec<SiblingTerm>]),
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

/// A comparison operand as [`Exec::operand`] leaves it: a slot or a
/// constant to read in place, or the value of anything else.
enum Operand<'p> {
    Slot(Slot),
    Const(&'p Value),
    Computed(Value),
}

/// Bind a pattern hole to `v`, unless it already holds this very value
/// ([`Value::is_same`]): the statements of one event probe with the same
/// trigger values, so most holes keep what the last execution wrote.
#[inline]
fn fill_hole(hole: &mut Option<Value>, v: &Value) {
    if !hole.as_ref().is_some_and(|held| held.is_same(v)) {
        *hole = Some(v.clone());
    }
}

struct Exec<'a> {
    src: &'a dyn RelationSource,
    /// The statement's relation table bound to `src` (see
    /// [`CompiledStmt::bind`]).
    rels: &'a [Option<RelId>],
    /// The relation names, for the panic of a corrupt program.
    names: &'a [String],
    frame: &'a mut [Value],
    patterns: &'a mut [Vec<Option<Value>>],
    scratch: &'a mut [FastMap<Tuple, f64>],
    accs: &'a [Cell<f64>],
    cached: &'a mut [Option<Value>],
    cuts: &'a mut [Cut],
    counts: &'a LocalCounts,
    key_slots: &'a [Slot],
    /// The members' row buffers, and where each member's rows of this
    /// execution start: rows below a member's floor belong to earlier
    /// executions (earlier batch entries), and the sink's same-key collapse
    /// never merges across it.
    rows: &'a mut [Vec<(Tuple, f64)>],
    floors: &'a [usize],
}

/// The value of a value operation, which the type checker has made total
/// on every admitted event: an error is a corrupt program. The panic names
/// the relations the statement reads (`names`, [`CompiledStmt::rels`]).
#[inline]
fn total<T, E: std::fmt::Display>(names: &[String], r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        panic!(
            "a kernel reading {names:?} hit a value error past the type checker \
             (a corrupt program): {e}"
        )
    })
}

impl Exec<'_> {
    /// The source id of relation `rel`. A relation the source does not hold
    /// is a corrupt program.
    #[inline]
    fn rel_id(&self, rel: u16) -> RelId {
        match self.rels[rel as usize] {
            Some(id) => id,
            None => panic!(
                "a kernel reads relation {}, which its source does not hold (a corrupt program)",
                self.names[rel as usize]
            ),
        }
    }

    /// Take pattern buffer `buf` out of the state with its bound holes filled
    /// from the frame; the caller puts it back.
    fn take_pattern(&mut self, buf: u16, template: &[Option<Slot>]) -> Vec<Option<Value>> {
        let mut pattern = std::mem::take(&mut self.patterns[buf as usize]);
        for (p, t) in pattern.iter_mut().zip(template.iter()) {
            match t {
                Some(slot) => fill_hole(p, &self.frame[*slot as usize]),
                None => *p = None,
            }
        }
        pattern
    }

    /// Evaluate a comparison operand: a slot or a constant is read in place
    /// ([`Exec::operand_value`]), anything else computed.
    fn operand<'p>(&mut self, s: &'p Scalar) -> Operand<'p> {
        match s {
            Scalar::Slot(slot) => Operand::Slot(*slot),
            Scalar::Const(v) => Operand::Const(v),
            _ => Operand::Computed(self.eval_scalar(s)),
        }
    }

    /// The value an [`Exec::operand`] stands for. Reading a slot after the
    /// other operand is computed reads what it held before: a sub-plan binds
    /// only slots unbound where the comparison stands, and a slot it reads is
    /// bound.
    fn operand_value<'v>(&'v self, o: &'v Operand) -> &'v Value {
        match o {
            Operand::Slot(slot) => &self.frame[*slot as usize],
            Operand::Const(v) => v,
            Operand::Computed(v) => v,
        }
    }

    /// Does `left cmp right` hold? Slot and constant operands are read in
    /// place, not cloned.
    fn compare(&mut self, cmp: CmpOp, left: &Scalar, right: &Scalar) -> bool {
        let l = self.operand(left);
        let r = self.operand(right);
        cmp.eval(self.operand_value(&l), self.operand_value(&r))
    }

    /// Stream the entries of a partially bound atom: fill the pattern buffer
    /// from the frame, enforce repeated-variable equalities on what the
    /// source hands over (exactly the entries matching the pattern), bind
    /// the free-position slots, and hand each surviving
    /// `(entry-multiplicity)` to `on_match`. Shared by [`Op::Scan`] and the
    /// fused prelude so the prologue cannot drift.
    fn scan_atom(
        &mut self,
        rel: u16,
        buf: u16,
        template: &[Option<Slot>],
        eqs: &[(u16, u16)],
        binds: &[(u16, Slot)],
        mut on_match: impl FnMut(&mut Self, f64),
    ) {
        self.counts.add(SCANS, 1);
        let id = self.rel_id(rel);
        let pattern = self.take_pattern(buf, template);
        let src = self.src;
        let mut walked = 0u64;
        src.for_each_at(id, &pattern, &mut |t, m| {
            walked += 1;
            if m == 0.0 {
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
        self.counts.add(ENTRIES_SCANNED, walked);
        self.patterns[buf as usize] = pattern;
    }

    /// Does `key` hold the frame's key values?
    #[inline]
    fn holds_key(&self, key: &Tuple) -> bool {
        key.len() == self.key_slots.len()
            && self
                .key_slots
                .iter()
                .enumerate()
                .all(|(i, &s)| key[i] == self.frame[s as usize])
    }

    /// The frame's key, built.
    #[inline]
    fn key(&self) -> Tuple {
        self.key_slots
            .iter()
            .map(|&s| self.frame[s as usize].clone())
            .collect()
    }

    /// Deliver an emission to the continuation.
    fn finish(&mut self, mult: f64, tail: &Tail) {
        match tail {
            Tail::Members(members) => self.emit(mult, members),
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

    /// Deliver a row of the kernel's frame to every member, in statement
    /// order (see the module docs on kernel units): per term, its value ops
    /// as the member's own plan applies them ([`Exec::term`]), then its row,
    /// into the member's buffer. Consecutive rows under one key (the common
    /// case for loop-free statements, whose key comes entirely from trigger
    /// slots) collapse into the member's last row above its floor, so
    /// applying the buffer costs one map write per key run; any other row is
    /// pushed under a key built once for the frame row and cloned for every
    /// later member.
    fn emit(&mut self, mult: f64, members: &[Vec<SiblingTerm>]) {
        // The member whose last row holds this frame row's key, once built.
        let mut built: Option<usize> = None;
        for (i, terms) in members.iter().enumerate() {
            for term in terms {
                let Some(m) = self.term(mult, term) else {
                    continue;
                };
                let n = self.rows[i].len();
                if n > self.floors[i] && self.holds_key(&self.rows[i][n - 1].0) {
                    self.rows[i][n - 1].1 += m;
                    continue;
                }
                let key = match built {
                    Some(b) => self.rows[b].last().expect("the built key").0.clone(),
                    None => self.key(),
                };
                self.rows[i].push((key, m));
                built = Some(i);
            }
        }
    }

    /// A member term's multiplicity for a frame row of multiplicity `m`: the
    /// same products, in the same order, as the member's own plan, which
    /// [`Exec::exec`] stops at a zero multiplicity before each value op —
    /// and, where a filter or a lift followed the term's last value op,
    /// after it (`zero_drops`). `None` where the member's plan emits no row.
    fn term(&mut self, mut m: f64, term: &SiblingTerm) -> Option<f64> {
        for op in &term.values {
            if m == 0.0 {
                return None;
            }
            m *= match op {
                Op::ConstMult(c) => *c,
                Op::SlotMult(slot) => total(self.names, self.frame[*slot as usize].as_f64()),
                Op::ScalarMult(s) => total(self.names, self.eval_scalar(s).as_f64()),
                _ => unreachable!("a member's value holds value ops only"),
            };
        }
        (!(term.zero_drops && m == 0.0)).then_some(m)
    }

    /// Execute one op with an incoming multiplicity.
    fn exec(&mut self, op: &Op, mult: f64, tail: &Tail) {
        if mult == 0.0 {
            // Zero short-circuits exactly like the interpreter's empty
            // accumulator: downstream factors are never evaluated.
            return;
        }
        match op {
            Op::ConstMult(c) => self.finish(mult * c, tail),
            Op::SlotMult(slot) => {
                let v = total(self.names, self.frame[*slot as usize].as_f64());
                self.finish(mult * v, tail)
            }
            Op::ScalarMult(s) => {
                let v = total(self.names, self.eval_scalar(s).as_f64());
                self.finish(mult * v, tail)
            }
            Op::Probe { rel, buf, template } => {
                self.counts.add(PROBES, 1);
                let id = self.rel_id(*rel);
                let mut pattern = std::mem::take(&mut self.patterns[*buf as usize]);
                for (p, &slot) in pattern.iter_mut().zip(template.iter()) {
                    fill_hole(p, &self.frame[slot as usize]);
                }
                let src = self.src;
                src.for_each_at(id, &pattern, &mut |_, m| {
                    if m != 0.0 {
                        self.finish(mult * m, tail);
                    }
                });
                self.patterns[*buf as usize] = pattern;
            }
            Op::Scan {
                rel,
                buf,
                template,
                binds,
                eqs,
            } => {
                self.scan_atom(*rel, *buf, template, eqs, binds, |me, m| {
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
            Op::LiftBind { slot, value } => {
                self.frame[*slot as usize] = self.eval_scalar(value);
                self.finish(mult, tail);
            }
            Op::LiftEq { slot, value } => {
                let v = self.operand(value);
                if self.frame[*slot as usize] == *self.operand_value(&v) {
                    self.finish(mult, tail);
                }
            }
            Op::CmpFilter { cmp, left, right } => {
                if self.compare(*cmp, left, right) {
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
                for (key, &m) in map.iter() {
                    if m == 0.0 {
                        continue; // cancelled group (GMR removes exact zeros)
                    }
                    for (i, &slot) in slots.iter().enumerate() {
                        self.frame[slot as usize] = key[i].clone();
                    }
                    self.finish(mult, tail);
                }
                self.scratch[idx] = map;
            }
            Op::Threshold(t) => self.threshold(t, mult, tail),
        }
    }

    /// Pass a row on when its loop key lies inside `t`'s interval, searched
    /// at the first row of the execution; run the lift and the filter when
    /// the search or the key cannot answer. (Kept out of [`Exec::exec`], whose
    /// code every statement runs.)
    #[inline(never)]
    fn threshold(&mut self, t: &Threshold, mult: f64, tail: &Tail) {
        let cache = t.cache as usize;
        if matches!(self.cuts[cache], Cut::Unsearched) {
            self.cuts[cache] = self.search(t);
        }
        match (self.cuts[cache], loop_key(&self.frame[t.key as usize])) {
            (Cut::Keys(lo, hi), Some(p)) => {
                if admits(t.range, (lo, hi), p) {
                    self.finish(mult, tail);
                }
            }
            _ => self.finish(mult, &Tail::Seq(&t.fallback, tail)),
        }
    }

    /// Search the band's group once for the loop keys whose rows pass `t`'s
    /// filter, through its ordered index ([`RelationSource::cut_at`]): with
    /// every multiplicity of the group non-negative its band sums are
    /// monotone in the loop key, so the filter — evaluated as it stands, on
    /// each sum as the lookup answers it — flips at most once. `Fallback`
    /// when the operand is no number, or the group has no ordered index, is
    /// not exact or holds a negative net multiplicity.
    fn search(&mut self, t: &Threshold) -> Cut {
        let c = self.eval_scalar(&t.operand);
        if !c.is_numeric() {
            return Cut::Fallback;
        }
        let Some(Scalar::RangeSum { traverse, .. }) = t.lookup() else {
            return Cut::Fallback;
        };
        let Some((rel, buf, template)) = lookup_scan(traverse) else {
            return Cut::Fallback;
        };
        let id = self.rel_id(rel);
        let pattern = self.take_pattern(buf, template);
        let upper = matches!(t.range, CmpOp::Gt | CmpOp::Ge);
        let mut passes = |sum: f64| {
            let sum = Value::double(sum);
            match t.sum_left {
                true => t.cmp.eval(&sum, &c),
                false => t.cmp.eval(&c, &sum),
            }
        };
        let found = self.src.cut_at(id, &pattern, upper, &mut passes);
        self.patterns[buf as usize] = pattern;
        let Some(((lo, hi), evaluated)) = found else {
            return Cut::Fallback;
        };
        self.counts.add(RANGE_SUM_HITS, 1);
        self.counts.add(ENTRIES_SCANNED, evaluated);
        Cut::Keys(lo, hi)
    }

    /// Run one fused prelude scan: a single bucket traversal feeding every
    /// member's filter chain into its own accumulator, then write the totals
    /// into the members' result slots. A range-sum scan (see [`BandSpec`]) is
    /// answered from the source's ordered index instead, whenever the index
    /// can answer exactly.
    fn run_prelude(&mut self, fs: &FusedScan) {
        if fs.cut_pos.is_some() && self.cut_walk(fs) {
            return;
        }
        if fs.band_pos.is_some() {
            if self.run_range_sums(fs) {
                self.counts.add(RANGE_SUM_HITS, 1);
                return;
            }
            self.counts.add(RANGE_SUM_BAILS, 1);
        }
        self.counts.add(FUSED_SCANS, 1);
        let accs = self.accs;
        for c in &accs[..fs.members.len()] {
            c.set(0.0);
        }
        self.scan_atom(fs.rel, fs.buf, &fs.template, &fs.eqs, &fs.binds, |me, m| {
            for (k, member) in fs.members.iter().enumerate() {
                if let Some(fast) = &member.fast {
                    match run_fast(fast, me.frame, me.cuts, m) {
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
        });
        for (k, member) in fs.members.iter().enumerate() {
            self.frame[member.dest as usize] = Value::double(accs[k].get());
        }
    }

    /// Answer a cut walk (see [`FusedScan::cut_pos`]) from the source's
    /// ordered index: run what a first row would run before the cut — the
    /// member's loop-invariant lifts and its threshold's search — then visit
    /// only the keys inside the cut, adding each multiplicity, times the key
    /// where the pass weighs by it. `false` — the caller walks the scan in
    /// its own order — when the search fell back or the group is outside the
    /// walk's exactness contract, where a sum in another order could round
    /// ([`RelationSource::walk_band_at`]).
    fn cut_walk(&mut self, fs: &FusedScan) -> bool {
        let member = &fs.members[0];
        for op in &member.cont {
            match op {
                Op::LiftBind { slot, value } => {
                    self.frame[*slot as usize] = self.eval_scalar(value);
                }
                Op::Threshold(t) if matches!(self.cuts[t.cache as usize], Cut::Unsearched) => {
                    self.cuts[t.cache as usize] = self.search(t);
                }
                _ => {}
            }
        }
        let pass = member.fast.as_deref().unwrap_or_default();
        let weighted = pass.iter().any(|f| matches!(f, FastOp::Weight(_)));
        let Some(&FastOp::Cut { cut, range, .. }) =
            pass.iter().find(|f| matches!(f, FastOp::Cut { .. }))
        else {
            return false;
        };
        let Cut::Keys(lo, hi) = self.cuts[cut as usize] else {
            return false;
        };
        let id = self.rel_id(fs.rel);
        let pattern = self.take_pattern(fs.buf, &fs.template);
        let mut total = 0.0;
        let mut add = |key: f64, m: f64| total += if weighted { m * key } else { m };
        let walked = self
            .src
            .walk_band_at(id, &pattern, (lo, hi), closed_above(range), &mut add);
        self.patterns[fs.buf as usize] = pattern;
        let Some(touched) = walked else {
            return false;
        };
        self.counts.add(SCANS, 1);
        self.counts.add(FUSED_SCANS, 1);
        self.counts.add(ENTRIES_SCANNED, touched);
        self.frame[member.dest as usize] = Value::double(total);
        true
    }

    /// Answer every member of a range-sum scan from the source's ordered
    /// index. Returns `false` — the caller falls back to the full traversal,
    /// which is the bit-exactness baseline — when a bound is outside the
    /// contract ([`band_interval`]), when the source keeps no ordered index
    /// for the scan, or when the addressed group cannot answer exactly.
    /// Within the guards every addition either path performs is exact, so the
    /// range sums equal the traversal's accumulators bit for bit.
    fn run_range_sums(&mut self, fs: &FusedScan) -> bool {
        let mut ranges = [(f64::NEG_INFINITY, f64::INFINITY); MAX_RANGE_MEMBERS];
        let mut bound_mag = 0.0f64;
        for (range, m) in ranges.iter_mut().zip(&fs.members) {
            let band = m.band.as_ref();
            match band.and_then(|b| band_interval(&b.ranges, self.frame, &mut bound_mag)) {
                Some(interval) => *range = interval,
                None => return false,
            }
        }
        let id = self.rel_id(fs.rel);
        let n = fs.members.len();
        let mut sums = [0.0f64; MAX_RANGE_MEMBERS];
        let pattern = self.take_pattern(fs.buf, &fs.template);
        let answer = self
            .src
            .range_sums_at(id, &pattern, bound_mag, &ranges[..n], &mut sums[..n]);
        self.patterns[fs.buf as usize] = pattern;
        let Some(compared) = answer else {
            return false;
        };
        self.counts.add(ENTRIES_SCANNED, compared);
        for (m, &sum) in fs.members.iter().zip(&sums) {
            self.frame[m.dest as usize] = Value::double(sum);
        }
        true
    }

    fn eval_scalar(&mut self, s: &Scalar) -> Value {
        match s {
            Scalar::Const(v) => v.clone(),
            Scalar::Slot(slot) => self.frame[*slot as usize].clone(),
            Scalar::Neg(inner) => total(self.names, self.eval_scalar(inner).neg()),
            Scalar::Add(terms) => terms.iter().fold(Value::long(0), |acc, t| {
                let v = self.eval_scalar(t);
                total(self.names, acc.add(&v))
            }),
            Scalar::Mul(factors) => factors.iter().fold(Value::long(1), |acc, t| {
                let v = self.eval_scalar(t);
                total(self.names, acc.mul(&v))
            }),
            Scalar::Apply(f, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval_scalar(a)).collect();
                total(self.names, crate::eval::apply_scalar_fn(f, &vals))
            }
            Scalar::Cmp(op, l, r) => Value::double(if self.compare(*op, l, r) { 1.0 } else { 0.0 }),
            Scalar::SubSum(op) => self.sub_sum(op),
            Scalar::RangeSum { ranges, traverse } => match self.range_sum(ranges, traverse) {
                Some(sum) => {
                    self.counts.add(RANGE_SUM_HITS, 1);
                    Value::double(sum)
                }
                None => {
                    self.counts.add(RANGE_SUM_BAILS, 1);
                    self.sub_sum(traverse)
                }
            },
            Scalar::CachedSum { cache, plan } => {
                if let Some(v) = &self.cached[*cache as usize] {
                    return v.clone();
                }
                let v = self.sub_sum(plan);
                self.cached[*cache as usize] = Some(v.clone());
                v
            }
        }
    }

    /// Run a sub-plan and sum its emissions.
    fn sub_sum(&mut self, op: &Op) -> Value {
        let acc = Cell::new(0.0);
        self.exec(op, 1.0, &Tail::Acc(&acc));
        Value::double(acc.get())
    }

    /// Answer a [`Scalar::RangeSum`] from the ordered index of the group its
    /// walk scans ([`RelationSource::range_sums_at`]). `None` — walk instead
    /// — when the bounds, the group or the two together are outside the
    /// exactness contract, or the group has no ordered index; within it the
    /// answer is the walk's total, bit for bit (see [`Exec::run_range_sums`]).
    fn range_sum(&mut self, ranges: &[(CmpOp, NumExpr)], traverse: &Op) -> Option<f64> {
        let mut bound_mag = 0.0f64;
        let interval = band_interval(ranges, self.frame, &mut bound_mag)?;
        let (rel, buf, template) = lookup_scan(traverse)?;
        let id = self.rel_id(rel);
        let pattern = self.take_pattern(buf, template);
        let mut sum = [0.0];
        let answer = self
            .src
            .range_sums_at(id, &pattern, bound_mag, &[interval], &mut sum);
        self.patterns[buf as usize] = pattern;
        self.counts.add(ENTRIES_SCANNED, answer?);
        Some(sum[0])
    }
}

impl CompiledStmt {
    /// Execute the kernel against a relation source through the relation ids
    /// `rels` bound against it ([`CompiledStmt::bind`]), **appending** member
    /// `i`'s `(key, multiplicity)` rows to its row buffer `i`
    /// ([`KernelState::rows_of`]); a batch executor tracks entry boundaries
    /// itself. Its work — probes, scans, entries visited, fused scans,
    /// range-sum hits and bails — is counted into `counts` (in the engine,
    /// the block of the view its first member writes; a fused kernel's
    /// counts once for all its members). The caller
    /// must have called [`KernelState::prepare`] and seeded
    /// `state.frame[0..trigger_slots]` from the event tuple.
    ///
    /// For one entry of a delta batch after the first, `run_invariant_preludes`
    /// is `false`: prelude scans marked [`FusedScan::entry_invariant`] are
    /// skipped — their result slots still hold the totals computed for the
    /// batch's first entry, which are valid for every entry because such
    /// scans read no trigger slot and the store they read is unchanged until
    /// the run's buffered writes are applied.
    ///
    /// Execution cannot fail (see the module docs). It panics on a corrupt
    /// program: a relation `src` does not hold, or a value error the type
    /// checker should have refused.
    pub fn execute(
        &self,
        src: &dyn RelationSource,
        rels: &[Option<RelId>],
        state: &mut KernelState,
        counts: &LocalCounts,
        run_invariant_preludes: bool,
    ) {
        debug_assert!(state.frame.len() >= self.frame_size as usize);
        debug_assert_eq!(rels.len(), self.rels.len());
        // Cached sums and cuts hold per execution: the store and the trigger
        // slots may have moved since.
        let cached = &mut state.cached[..self.cached_sums as usize];
        cached.fill(None);
        let cuts = &mut state.cuts[..self.thresholds as usize];
        cuts.fill(Cut::Unsearched);
        let rows = &mut state.rows[..self.members.len()];
        state.floors.clear();
        state.floors.extend(rows.iter().map(Vec::len));
        let mut exec = Exec {
            src,
            rels,
            names: &self.rels,
            frame: &mut state.frame,
            patterns: &mut state.patterns,
            scratch: &mut state.scratch,
            accs: &state.fused_accs,
            cached,
            cuts,
            counts,
            key_slots: &self.key_slots,
            rows,
            floors: &state.floors,
        };
        for fs in &self.prelude {
            if run_invariant_preludes || !fs.entry_invariant {
                exec.run_prelude(fs);
            }
        }
        exec.exec(&self.plan, 1.0, &Tail::Members(&self.members));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Bindings, MemSource};
    use crate::expr::CmpOp as OpC;
    use crate::expr::ScalarFn;
    use dbtoaster_gmr::{Gmr, Schema};
    use dbtoaster_telemetry::ViewSummary;

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
        let stmt = lower_statement(&tvars, &kvars, rhs)
            .unwrap_or_else(|e| panic!("failed to lower {rhs}: {}", e.0));
        let src = db();
        let mut state = KernelState::new();
        state.prepare(&stmt);
        for (i, (_, v)) in trigger.iter().enumerate() {
            state.frame[i] = Value::long(*v);
        }
        stmt.execute(
            &src,
            &stmt.bind(&src),
            &mut state,
            &LocalCounts::default(),
            true,
        );
        let mut compiled = Gmr::new(Schema::new(key_vars.iter().copied()));
        for (k, m) in state.rows_of(&stmt)[0].drain(..) {
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

    /// Run `stmt` for trigger `y` against `src`; the rows and the work.
    fn run_with(stmt: &CompiledStmt, src: &MemSource, y: i64) -> (Vec<(Tuple, f64)>, ViewSummary) {
        let mut state = KernelState::new();
        state.prepare(stmt);
        state.frame[0] = Value::long(y);
        let counts = LocalCounts::default();
        stmt.execute(src, &stmt.bind(src), &mut state, &counts, true);
        let mut work = ViewSummary::default();
        counts.drain_into(&mut work.values);
        (std::mem::take(&mut state.rows_of(stmt)[0]), work)
    }

    /// Sibling statements fused into one kernel hand every member exactly
    /// the rows its own kernel emits, bit for bit: over a scan, weighted by a
    /// column, by a float constant or by nothing; over a guard, with a
    /// constant moved past it, a sum of two terms on it and no value at all,
    /// where the guard passes and where it does not. A sum over a scan would
    /// emit its terms' rows term after term, so it fuses with nothing, and
    /// neither do different frames.
    #[test]
    fn fused_siblings_emit_each_members_own_rows() {
        let lowered = |rhs: Expr, key: &str| {
            lower_statement(&["y".to_string()], &[key.to_string()], &rhs).unwrap()
        };
        let fused_rows = |stmt: &CompiledStmt, src: &MemSource, y: i64| {
            let mut state = KernelState::new();
            state.prepare(stmt);
            state.frame[0] = Value::long(y);
            let counts = LocalCounts::default();
            stmt.execute(src, &stmt.bind(src), &mut state, &counts, true);
            state.rows_of(stmt).to_vec()
        };
        let bits = |rows: &[(Tuple, f64)]| -> Vec<(Tuple, u64)> {
            rows.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect()
        };
        let src = db();
        let r = || Expr::rel("R", ["a", "b"]);
        let guard = || Expr::cmp(OpC::Gt, Expr::var("y"), Expr::val(0i64));
        let scan = [
            Expr::product_of([r(), Expr::var("b")]),
            Expr::product_of([r(), Expr::val(0.1)]),
            r(),
        ]
        .map(|rhs| lowered(rhs, "a"));
        let y = || Expr::var("y");
        let guarded = [
            Expr::product_of([Expr::val(-1i64), guard(), y()]),
            Expr::product_of([Expr::val(-0.3), guard()]),
            Expr::sum_of([
                Expr::product_of([guard(), y()]),
                Expr::product_of([Expr::val(-1i64), guard(), y(), y()]),
            ]),
            guard(),
        ]
        .map(|rhs| lowered(rhs, "y"));
        for members in [&scan[..], &guarded[..]] {
            let refs: Vec<&CompiledStmt> = members.iter().collect();
            let fused = CompiledStmt::fuse(&refs).expect("siblings fuse");
            for y in [-2, 0, 3] {
                let got = fused_rows(&fused, &src, y);
                assert_eq!(got.len(), members.len(), "fused: {:?}", fused.members);
                for (m, rows) in members.iter().zip(&got) {
                    let alone = run_with(m, &src, y).0;
                    assert_eq!(bits(rows), bits(&alone), "{:?} at y = {y}", m.plan);
                }
            }
        }
        let summed = Expr::sum_of([r(), Expr::product_of([r(), Expr::var("b")])]);
        assert!(CompiledStmt::fuse(&[&scan[2], &lowered(summed, "a")]).is_none());
        assert!(CompiledStmt::fuse(&[&scan[0], &guarded[0]]).is_none());
    }

    /// Hostile event values: NaN, ±0.0, 2^53 ± 1 as `Long` and as `Double`,
    /// the extreme `Long`s and equal `Long`/`Double` pairs — and, for a
    /// column no value op reads, empty and non-empty strings.
    fn hostile(strings: bool) -> Vec<Value> {
        let big = 1i64 << 53;
        let mut values = vec![
            Value::double(f64::NAN),
            Value::double(0.0),
            Value::double(-0.0),
        ];
        for n in [big - 1, big, big + 1] {
            values.extend([Value::long(n), Value::double(n as f64)]);
        }
        values.extend([Value::long(i64::MIN), Value::long(i64::MAX)]);
        values.extend([
            Value::long(0),
            Value::long(3),
            Value::double(3.0),
            Value::double(0.5),
        ]);
        values.extend([Value::long(-2), Value::double(1e-200)]);
        if strings {
            values.extend([Value::str(""), Value::str("x")]);
        }
        values
    }

    /// `n` events `(a, b, c)` drawn from the hostile values, the same on
    /// every run: `a` from all of them, `b` and `c` — which value ops read —
    /// from the numbers.
    fn hostile_events(n: usize) -> Vec<[Value; 3]> {
        let (any, numbers) = (hostile(true), hostile(false));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |from: &[Value]| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            from[(x % from.len() as u64) as usize].clone()
        };
        (0..n)
            .map(|_| [draw(&any), draw(&numbers), draw(&numbers)])
            .collect()
    }

    /// Rows as their keys render — telling `Long(3)` from `Double(3.0)` and
    /// `-0.0` from `0.0` — and their multiplicities' bits.
    fn rendered(rows: &[(Tuple, f64)]) -> Vec<(String, u64)> {
        rows.iter()
            .map(|(k, m)| (format!("{k:?}"), m.to_bits()))
            .collect()
    }

    /// Run `stmt` for `event` as the engine does — its straight-line form
    /// first, the interpreter for what that leaves — and with the
    /// interpreter alone on a clone without the form, each member's buffer
    /// holding a row of an earlier execution under the event's key first.
    /// Both must hand every member the same rows, bit for bit, and count the
    /// same work. Returns whether the form was the whole execution.
    fn straight_agrees(stmt: &CompiledStmt, src: &MemSource, event: &[Value]) -> bool {
        let earlier: Tuple = stmt
            .key_slots
            .iter()
            .map(|&s| event[s as usize].clone())
            .collect();
        let run = |stmt: &CompiledStmt, straight: bool| {
            let mut rows = vec![vec![(earlier.clone(), 1.0)]; stmt.members.len()];
            let counts = LocalCounts::default();
            let ran = straight && stmt.run_straight(event, &mut rows[..]);
            if !ran {
                let mut state = KernelState::new();
                state.prepare(stmt);
                state.frame[..event.len()].clone_from_slice(event);
                state.rows_of(stmt).swap_with_slice(&mut rows);
                stmt.execute(src, &stmt.bind(src), &mut state, &counts, true);
                rows = state.rows_of(stmt).to_vec();
            }
            let mut work = ViewSummary::default();
            counts.drain_into(&mut work.values);
            (
                ran,
                rows.iter().map(|r| rendered(r)).collect::<Vec<_>>(),
                work,
            )
        };
        let interpreted = CompiledStmt {
            straight: None,
            ..stmt.clone()
        };
        let (ran, got, work) = run(stmt, true);
        let (_, want, want_work) = run(&interpreted, false);
        assert_eq!(got, want, "{:?} for {event:?}", stmt.plan);
        assert_eq!(work, want_work, "{:?} for {event:?}", stmt.plan);
        ran
    }

    /// Every straight-line unit and guard-tested kernel hands each member
    /// exactly the rows the interpreter hands it, over the hostile grid: a
    /// guard on any value (strings included) and on two slots, insert and
    /// delete signs, a two-term sum like TPC-H q1's discounted price, a
    /// constant moved past the guard — one that underflows to zero with
    /// another, which the guard's zero short-circuit drops —, a zero before
    /// a later value op, value ops over scalar functions, keys of zero, one
    /// and two columns, a fused group, and kernels reading a relation whose
    /// terms lead with guards. A value op before a guard keeps the kernel
    /// interpreted.
    fn straight_line_kernels_match_the_interpreter(events: usize) {
        let trigger: Vec<String> = ["a", "b", "c"].map(String::from).into();
        let lowered = |rhs: Expr, key: &[&str]| {
            let key: Vec<String> = key.iter().map(|k| k.to_string()).collect();
            lower_statement(&trigger, &key, &rhs).unwrap()
        };
        let (a, b, c) = (|| Expr::var("a"), || Expr::var("b"), || Expr::var("c"));
        let on_a = || Expr::cmp(OpC::Gt, a(), Expr::val(0i64));
        let a_le_b = || Expr::cmp(OpC::Le, a(), b());
        let is_x = || Expr::cmp(OpC::Eq, a(), Expr::val(Value::str("x")));
        let neg = |e: Expr| Expr::product_of([Expr::val(-1i64), e]);
        // q1's `extendedprice * (1 - discount)`, inserted and deleted.
        let disc = |sign: i64| {
            Expr::sum_of([
                Expr::product_of([Expr::val(sign), on_a(), b()]),
                Expr::product_of([Expr::val(-sign), on_a(), b(), c()]),
            ])
        };
        let div = || {
            Expr::apply(
                ScalarFn::Div,
                vec![Expr::Add(vec![b(), c()]), Expr::val(3i64)],
            )
        };
        let max = || {
            Expr::apply(
                ScalarFn::ListMax,
                vec![b(), Expr::neg(c()), Expr::cmp(OpC::Lt, b(), c())],
            )
        };
        let units = [
            lowered(Expr::product_of([on_a(), b()]), &["a"]),
            lowered(neg(Expr::product_of([on_a(), b()])), &["a"]),
            lowered(disc(1), &["a"]),
            lowered(disc(-1), &["a"]),
            lowered(
                Expr::product_of([Expr::val(0.5), a_le_b(), c()]),
                &["a", "b"],
            ),
            lowered(Expr::product_of([Expr::val(-0.3), is_x()]), &[]),
            lowered(
                Expr::product_of([Expr::val(1e-200), Expr::val(1e-200), on_a()]),
                &["a"],
            ),
            lowered(Expr::product_of([on_a(), b(), c()]), &["c"]),
            lowered(Expr::product_of([a_le_b(), div(), max()]), &["a"]),
            lowered(on_a(), &["a"]),
        ];
        for u in &units {
            assert!(
                matches!(u.straight, Some(Straight::Unit(_))),
                "{:?}",
                u.plan
            );
        }
        let siblings = [&units[0], &units[2], &units[6], &units[9]];
        let fused = CompiledStmt::fuse(&siblings).expect("one frame, one key");
        assert!(matches!(fused.straight, Some(Straight::Unit(_))));
        let r = || Expr::rel("R", ["a", "d"]);
        let guarded = [
            lowered(Expr::product_of([r(), on_a(), Expr::var("d")]), &["a"]),
            lowered(
                Expr::sum_of([
                    Expr::product_of([r(), is_x()]),
                    neg(Expr::product_of([r(), a_le_b(), c()])),
                ]),
                &["a"],
            ),
        ];
        for g in &guarded {
            assert!(
                matches!(g.straight, Some(Straight::Guards(_))),
                "{:?}",
                g.plan
            );
        }
        let interpreted = lowered(Expr::product_of([b(), on_a()]), &["a"]);
        assert_eq!(interpreted.straight, None, "{:?}", interpreted.plan);
        let src = db();
        let kernels = units.iter().chain(&guarded).chain([&fused, &interpreted]);
        let (mut straight, mut skipped) = (0, 0);
        for k in kernels {
            for event in hostile_events(events) {
                let ran = straight_agrees(k, &src, &event);
                match k.straight {
                    Some(Straight::Unit(_)) => {
                        assert!(ran);
                        straight += 1;
                    }
                    Some(Straight::Guards(_)) => skipped += usize::from(ran),
                    None => assert!(!ran),
                }
            }
        }
        assert_eq!(straight, 11 * events);
        assert!(
            skipped > events / 2,
            "guard-tested kernels skipped {skipped} events"
        );
    }

    #[test]
    fn straight_line_kernels_hand_each_member_the_interpreters_rows() {
        straight_line_kernels_match_the_interpreter(2_000);
    }

    /// The same at 100 times the events (CI, release).
    #[test]
    #[ignore]
    fn straight_line_kernels_match_the_interpreter_at_scale() {
        straight_line_kernels_match_the_interpreter(200_000);
    }

    /// A filter on trigger values and constants alone leads its product, as
    /// TPC-H q12's `shipdate` window does: an event outside it probes
    /// nothing and emits nothing, and one inside emits the row of the product
    /// in the interpreter's order, bit for bit — none where that product's
    /// value is zero, which the copy of the filter left at its end drops.
    #[test]
    fn guards_on_the_event_filter_before_anything_is_probed() {
        let src = db();
        let probe = Expr::product_of([
            Expr::rel("R", ["k", "j"]),
            Expr::lift("k", Expr::var("y")),
            Expr::lift("j", Expr::val(5i64)),
        ]);
        let window = |cmp, bound: i64| Expr::cmp(cmp, Expr::var("z"), Expr::val(bound));
        let rhs = Expr::product_of([
            Expr::agg_sum(Vec::<String>::new(), probe),
            window(OpC::Ge, 10),
            window(OpC::Lt, 20),
        ]);
        let tvars = ["y".to_string(), "z".to_string()];
        let stmt = lower_statement(&tvars, &[], &rhs).unwrap();
        let Op::Product(ops) = &stmt.plan else {
            panic!("{:?}", stmt.plan)
        };
        let filter = |op: &Op| matches!(op, Op::CmpFilter { .. });
        let kinds: Vec<bool> = ops.iter().map(filter).collect();
        assert_eq!(kinds, [true, true, false, true], "{:?}", stmt.plan);
        // The interpreter's order: the same lowering, moving no guard.
        let mut lw = Lowerer::new();
        for v in &tvars {
            lw.bind(v).unwrap();
        }
        let interpreted = CompiledStmt {
            plan: lw.lower_op(&rhs).unwrap(),
            ..stmt.clone()
        };
        let run = |stmt: &CompiledStmt, y: i64, z: i64| {
            let mut state = KernelState::new();
            state.prepare(stmt);
            state.frame[0] = Value::long(y);
            state.frame[1] = Value::long(z);
            let counts = LocalCounts::default();
            stmt.execute(&src, &stmt.bind(&src), &mut state, &counts, true);
            let mut work = ViewSummary::default();
            counts.drain_into(&mut work.values);
            let rows = state.rows_of(stmt)[0].iter();
            let bits: Vec<_> = rows.map(|(k, m)| (k.clone(), m.to_bits())).collect();
            (bits, work.get("probes"))
        };
        assert_eq!(run(&stmt, 3, 25), (vec![], 0));
        assert_eq!(run(&interpreted, 3, 25), (vec![], 1));
        for (y, z, rows) in [(3, 15, 1), (9, 15, 0)] {
            let got = run(&stmt, y, z);
            assert_eq!(got, run(&interpreted, y, z), "y = {y}, z = {z}");
            assert_eq!((got.0.len(), got.1), (rows, 1), "y = {y}, z = {z}");
            check(&rhs, &[("y", y), ("z", z)], &[]);
        }
    }

    /// Rows under one key collapse within an execution and never across
    /// two: each execution's rows start at its member's merge floor, the
    /// length of the lent buffer when it began. Two executions of one kernel
    /// into the same buffers — a unit of one and a fused unit, keyed by the
    /// trigger so every row of a scan of `R` shares the key — leave one row
    /// per execution in each member's buffer, each the execution's whole sum.
    #[test]
    fn same_key_rows_collapse_within_an_execution_not_across_two() {
        let lowered =
            |rhs: Expr| lower_statement(&["y".to_string()], &["y".to_string()], &rhs).unwrap();
        let r = || Expr::rel("R", ["a", "b"]);
        let count = lowered(r());
        let weighted = lowered(Expr::product_of([r(), Expr::var("b")]));
        let fused = CompiledStmt::fuse(&[&weighted, &count]).expect("siblings fuse");
        let src = db();
        // `R` holds (1, 2) once, (3, 5) twice and (4, 2) once.
        for (stmt, sums) in [(&count, &[4.0f64][..]), (&fused, &[14.0, 4.0][..])] {
            let mut state = KernelState::new();
            state.prepare(stmt);
            state.frame[0] = Value::long(7);
            for _ in 0..2 {
                let counts = LocalCounts::default();
                stmt.execute(&src, &stmt.bind(&src), &mut state, &counts, true);
            }
            let rows = state.rows_of(stmt);
            assert_eq!(rows.len(), sums.len(), "{:?}", stmt.members);
            for (rows, &sum) in rows.iter().zip(sums) {
                let key: Tuple = [Value::long(7)].into_iter().collect();
                let bits: Vec<_> = rows.iter().map(|(k, m)| (k, m.to_bits())).collect();
                assert_eq!(bits, [(&key, sum.to_bits()); 2], "{:?}", stmt.members);
            }
        }
    }

    /// A band sum whose bound an enclosing scan binds becomes a lookup into
    /// the ordered index of the group it scans, which the kernel lists among
    /// its ordered reads. A source without ordered indexes answers none of
    /// them: every lookup walks, as the sub-sum did, bit for bit (the
    /// runtime's `ordered_reads` tests take the index).
    #[test]
    fn band_sums_inside_a_loop_are_lookups_that_walk_without_an_index() {
        // `Sum[](R(y, b2) * (b2 > b))` inside the loop over `R(a, b)`, `y` a
        // trigger variable.
        let band = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["y", "b2"]),
                Expr::cmp(OpC::Gt, Expr::var("b2"), Expr::var("b")),
            ]),
        );
        let e = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::lift("z", band),
                Expr::var("z"),
                Expr::var("b"),
            ]),
        );
        let stmt = lower_statement(&["y".into()], &[], &e).unwrap();
        assert!(stmt.prelude.is_empty());
        assert!(format!("{:?}", stmt.plan).contains("RangeSum"));
        let reads: Vec<_> = stmt
            .ordered_reads()
            .into_iter()
            .map(|(r, t, k)| (r, t.to_vec(), k))
            .collect();
        assert_eq!(reads, [(0, vec![Some(0), None], 1)]);
        for y in [1, 3, 4, 9] {
            check(&e, &[("y", y)], &[]);
        }
        // Three outer rows: one walk of `R` for the loop, one per lookup.
        let (rows, work) = run_with(&stmt, &db(), 1);
        assert_eq!(
            (work.get("range_sum_hits"), work.get("range_sum_bails")),
            (0, 3)
        );
        assert_eq!(work.get("scans"), 4);
        let (walked, _) = run_with(&unhoisted(&e), &db(), 1);
        let bits = |rows: &[(Tuple, f64)]| rows.iter().map(|r| r.1.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows), bits(&walked));
    }

    /// `rhs` lowered for trigger `y` with nothing hoisted: every sub-sum
    /// walks wherever it stands.
    fn unhoisted(rhs: &Expr) -> CompiledStmt {
        let mut lw = Lowerer::new();
        lw.bind("y").unwrap();
        let plan = lw.lower_op(rhs).unwrap();
        CompiledStmt {
            rels: lw.rels,
            prelude: Vec::new(),
            cached_sums: 0,
            thresholds: 0,
            plan,
            key_slots: Vec::new(),
            frame_size: lw.next_slot as u16,
            pattern_arities: lw.pattern_arities,
            scratch_maps: lw.scratch_maps,
            trigger_slots: 1,
            used_trigger_slots: vec![0],
            members: vec![vec![SiblingTerm::IDENTITY]],
            straight: None,
        }
    }

    /// A loop-invariant scanning sub-sum that cannot join the prelude — its
    /// member is weighted by a band sum of its own — is walked once per
    /// execution, not once per row of the loop around it.
    #[test]
    fn invariant_sub_sums_inside_a_loop_are_walked_once_per_execution() {
        let band = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["y", "f"]),
                Expr::cmp(OpC::Lt, Expr::var("f"), Expr::var("d")),
            ]),
        );
        let invariant = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("S", ["c", "d"]),
                Expr::lift("w", band),
                Expr::var("w"),
            ]),
        );
        let e = Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::lift("z", invariant),
                Expr::var("z"),
                Expr::var("b"),
            ]),
        );
        let stmt = lower_statement(&["y".into()], &[], &e).unwrap();
        assert_eq!((stmt.cached_sums, stmt.ordered_reads().len()), (1, 1));
        for y in [1, 3, 4, 9] {
            check(&e, &[("y", y)], &[]);
        }
        // One walk of `R` for the loop, one of `S` for the cached sum, and a
        // lookup for each of `S`'s two rows — a walk of `R`, without an index.
        let (rows, work) = run_with(&stmt, &db(), 1);
        assert_eq!((work.get("scans"), work.get("range_sum_bails")), (4, 2));
        let (walked, plain) = run_with(&unhoisted(&e), &db(), 1);
        assert_eq!(rows, walked);
        assert_eq!(plain.get("scans"), 1 + 3 * 3);
    }

    /// `Sum[](R(a, b) * a * [0.5 × Σ R(y, ·) > Σ R(y, b2) * (b2 band b)])`,
    /// the comparison written either way round: `vwap`'s quantile filter.
    fn quantile(band: OpC, sum_left: bool) -> Expr {
        let total = Expr::agg_sum(Vec::<String>::new(), Expr::rel("R", ["y", "t"]));
        quantile_of(band, sum_left, total, Some(Expr::var("a")))
    }

    /// The filter without the weight, lifted into `z` that the statement
    /// sums, and its total probed from `N(y)`, as `vwap`'s is: `vwap`'s whole
    /// refresh, a quantile-filtered sum.
    fn quantile_sum(band: OpC, sum_left: bool) -> Expr {
        let sum = quantile_of(band, sum_left, Expr::rel("N", ["y"]), None);
        Expr::product_of([Expr::lift("z", sum), Expr::var("z")])
    }

    fn quantile_of(band: OpC, sum_left: bool, total: Expr, weight: Option<Expr>) -> Expr {
        let sum = |f: Vec<Expr>| Expr::agg_sum(Vec::<String>::new(), Expr::product_of(f));
        let above = Expr::cmp(band, Expr::var("b2"), Expr::var("b"));
        let above = sum(vec![Expr::rel("R", ["y", "b2"]), above]);
        let half = Expr::product_of([Expr::val(0.5), Expr::var("s1")]);
        let filter = match sum_left {
            true => Expr::cmp(OpC::Lt, Expr::var("s2"), half),
            false => Expr::cmp(OpC::Gt, half, Expr::var("s2")),
        };
        let (s1, s2) = (Expr::lift("s1", total), Expr::lift("s2", above));
        let factors = [Expr::rel("R", ["a", "b"]), s1, s2, filter];
        sum(factors.into_iter().chain(weight).collect())
    }

    /// `R(1, ·)` is a book of keys 2, 3, 5, 7 and 11 holding 3, 1, 2, 1 and
    /// 4; `R(2, ·)` and `R(3, ·)` add rows to the loop. `N(y)` is `R(y, ·)`'s
    /// total.
    fn book(extra: Option<(i64, Value, f64)>) -> MemSource {
        let mut r = Gmr::new(Schema::new(["A", "B"]));
        let rows = [
            (1, 2, 3.0),
            (1, 3, 1.0),
            (1, 5, 2.0),
            (1, 7, 1.0),
            (1, 11, 4.0),
        ];
        let rows = rows
            .into_iter()
            .chain([(2, 4, 1.0), (2, 6, 1.0), (3, 12, 1.0)]);
        for (a, b, m) in rows {
            r.add_tuple(vec![Value::long(a), Value::long(b)], m);
        }
        if let Some((a, b, m)) = extra {
            r.add_tuple(vec![Value::long(a), b], m);
        }
        let mut n = Gmr::new(Schema::new(["A"]));
        for (a, total) in [(1, 11.0), (2, 2.0), (3, 1.0)] {
            n.add_tuple(vec![Value::long(a)], total);
        }
        let mut src = MemSource::new();
        src.set_relation("R", r);
        src.set_relation("N", n);
        src
    }

    /// A quantile filter inside a loop fuses into a threshold — and a
    /// quantile-filtered sum into a numeric pass over the loop — for every
    /// band direction and either orientation. A source without ordered
    /// indexes cannot search: every row runs the lift and the filter, and
    /// the rows are the plan's, bit for bit, offenders included. (The
    /// runtime's `ordered_reads` tests search through an index.)
    #[test]
    fn quantile_filters_inside_a_loop_fuse_into_thresholds() {
        let bits = |rows: &[(Tuple, f64)]| rows.iter().map(|r| r.1.to_bits()).collect::<Vec<_>>();
        let directions = [OpC::Gt, OpC::Ge, OpC::Lt, OpC::Le];
        let extras = [
            None,
            Some((1, Value::long(13), -1.0)),
            Some((1, Value::double(0.5), 1.0)),
            Some((4, Value::double(f64::NAN), 1.0)),
            Some((4, Value::long((1 << 53) + 1), 1.0)),
        ];
        for (band, sum_left) in directions.into_iter().flat_map(|b| [(b, false), (b, true)]) {
            for (e, pass) in [
                (quantile(band, sum_left), false),
                (quantile_sum(band, sum_left), true),
            ] {
                if !pass {
                    check(&e, &[("y", 1)], &[]);
                }
                let stmt = lower_statement(&["y".into()], &[], &e).unwrap();
                assert_eq!(stmt.thresholds, 1, "{e}");
                let fused = stmt.prelude.iter().flat_map(|f| &f.members);
                let fused = fused
                    .filter(|m| matches!(m.fast.as_deref(), Some([FastOp::Cut { cut: 0, .. }])));
                assert_eq!(fused.count(), pass as usize, "{e}");
                for extra in extras.clone() {
                    let src = book(extra.clone());
                    let (rows, work) = run_with(&stmt, &src, 1);
                    let (walked, _) = run_with(&unhoisted(&e), &src, 1);
                    assert_eq!(bits(&rows), bits(&walked), "{e} with {extra:?}");
                    assert_eq!(work.get("range_sum_hits"), 0, "{e} with {extra:?}");
                }
            }
        }
    }

    /// `scans` finds every partially bound read, wherever lowering and
    /// hoisting put it: the loop's scan, the prelude's fused scan and the
    /// walk a threshold falls back to; `ordered_reads` the band's group, which
    /// the threshold searches. Probes need no index and are not listed.
    #[test]
    fn scans_reach_every_partially_bound_read() {
        let stmt = lower_statement(&["y".into()], &[], &quantile(OpC::Gt, false)).unwrap();
        let (y, free) = (Some(0), None);
        assert_eq!(stmt.rels, ["R"]);
        assert_eq!((stmt.prelude.len(), stmt.thresholds), (1, 1));
        let mut scans: Vec<(u16, Vec<Option<Slot>>)> = stmt
            .scans()
            .into_iter()
            .map(|(r, t)| (r, t.to_vec()))
            .collect();
        scans.sort();
        let want = [vec![free, free], vec![y, free], vec![y, free]];
        assert_eq!(scans, want.map(|t| (0, t)));
        let reads: Vec<_> = stmt
            .ordered_reads()
            .into_iter()
            .map(|(r, t, k)| (r, t.to_vec(), k))
            .collect();
        assert_eq!(reads, [(0, vec![y, free], 1)]);
        assert_eq!(template_mask(&[y, free]), 0b01);
        let probe = lower_statement(&["x".into(), "y".into()], &[], &Expr::rel("R", ["x", "y"]));
        assert!(probe.unwrap().scans().is_empty());
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
        stmt.execute(
            &src,
            &stmt.bind(&src),
            &mut state,
            &LocalCounts::default(),
            true,
        );
        let rows = &state.rows_of(&stmt)[0];
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0.as_slice(), &[Value::long(1)]);
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_a_reason() {
        let reason = |keys: &[&str], e: &Expr| {
            let keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            lower_statement(&[], &keys, e).unwrap_err().0
        };
        assert_eq!(
            reason(&[], &Expr::var("nope")),
            "unbound variable in multiplicity position"
        );
        assert_eq!(reason(&["k"], &Expr::one()), "unbound key variable");
        assert_eq!(
            reason(&[], &Expr::Const(Value::str("x"))),
            "non-numeric constant in multiplicity position"
        );
        assert_eq!(
            reason(
                &[],
                &Expr::sum_of([Expr::rel("R", ["a", "b"]), Expr::rel("S", ["b", "c"])])
            ),
            "sum terms bind different outputs"
        );
        let div = Expr::Apply(ScalarFn::Div, vec![Expr::val(1)]);
        assert_eq!(reason(&[], &div), "scalar function of the wrong arity");
    }

    /// A relation the source does not hold is a corrupt program: the
    /// executor has no error path, and panics naming the relation.
    #[test]
    #[should_panic(expected = "reads relation Nope")]
    fn unknown_relation_errors_at_runtime() {
        let stmt = lower_statement(&[], &["x".into()], &Expr::rel("Nope", ["x"])).unwrap();
        let mut state = KernelState::new();
        state.prepare(&stmt);
        let src = db();
        stmt.execute(
            &src,
            &stmt.bind(&src),
            &mut state,
            &LocalCounts::default(),
            true,
        );
    }

    /// A value error is a corrupt program too (`compile`'s type checker
    /// refuses arithmetic on a string; lowering alone does not): the panic
    /// names the relations the statement reads.
    #[test]
    #[should_panic(expected = "a kernel reading [\"R\", \"T\"] hit a value error")]
    fn value_error_panics_naming_the_relations_read() {
        let mut src = db();
        let mut t = Gmr::new(Schema::new(["S"]));
        t.add_tuple(vec![Value::str("x")], 1.0);
        src.set_relation("T", t);
        let q = Expr::product_of([
            Expr::rel("R", ["a", "b"]),
            Expr::rel("T", ["s"]),
            Expr::neg(Expr::var("s")),
        ]);
        let stmt = lower_statement(&[], &[], &q).unwrap();
        let mut state = KernelState::new();
        state.prepare(&stmt);
        stmt.execute(
            &src,
            &stmt.bind(&src),
            &mut state,
            &LocalCounts::default(),
            true,
        );
    }
}
