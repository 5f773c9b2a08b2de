//! Straight-line kernels: a kernel run, or ruled out for an event, from the
//! event's fields without the plan interpreter (see the parent module's docs
//! on straight-line units and event guards).
//!
//! Both forms are derived once, when a kernel is lowered or fused
//! ([`CompiledStmt::straight`]), and read the event tuple in place: trigger
//! slot `i` is the event's column `i`, so nothing is seeded into a frame.

use super::{factors, guards_event, total, CompiledStmt, Node, Op, Scalar, SiblingTerm, Slot};
use dbtoaster_gmr::{Tuple, Value};

/// How a kernel runs without the plan interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum Straight {
    /// A trigger-only unit: every row it emits comes from the event alone.
    Unit(StraightUnit),
    /// The event guards that lead each top-level term of the plan, as
    /// [`Op::CmpFilter`]s: an event that fails some guard of every term gets
    /// no rows, and the interpreter does not run for it.
    Guards(Vec<Vec<Op>>),
}

/// A kernel unit that reads no relation and has no prelude, whose key is
/// trigger slots, whose frame is constants and event guards, and whose
/// members' values are value ops over trigger slots and constants. It runs
/// as the interpreter would run it, step for step: the frame's constants
/// and guards in plan order with the zero short-circuit before each, then
/// per member its terms' value ops (the interpreter's sink's products and
/// short-circuits, `zero_drops` included), the member's rows of the
/// execution summed into one, in term order, as the interpreter's sink
/// collapses them under the one key an event has.
#[derive(Clone, Debug, PartialEq)]
pub struct StraightUnit {
    /// The frame: [`Op::ConstMult`]s and event guards, in plan order.
    frame: Vec<Op>,
    /// Per member, the terms of its value ([`CompiledStmt::members`]).
    members: Vec<Vec<SiblingTerm>>,
    /// The key, one trigger slot per column.
    key: Vec<Slot>,
}

/// Where a straight-line unit appends each member's rows: member `i`'s row
/// buffer, which may live anywhere its caller keeps it (the engine's
/// deferred statement slots, say) — nothing is lent.
pub trait MemberRows {
    /// Member `i`'s row buffer.
    fn member(&mut self, i: usize) -> &mut Vec<(Tuple, f64)>;
}

impl MemberRows for [Vec<(Tuple, f64)>] {
    fn member(&mut self, i: usize) -> &mut Vec<(Tuple, f64)> {
        &mut self[i]
    }
}

impl Straight {
    /// The straight-line form of `stmt`, if it has one: a trigger-only unit,
    /// else the event guards leading every top-level term. A kernel with a
    /// prelude has neither: an execution fills its result slots (for every
    /// entry after the first when they are entry-invariant) and counts the
    /// scans it makes, whatever the guards say.
    pub(super) fn of(stmt: &CompiledStmt) -> Option<Straight> {
        if !stmt.prelude.is_empty() {
            return None;
        }
        StraightUnit::of(stmt)
            .map(Straight::Unit)
            .or_else(|| leading_guards(stmt).map(Straight::Guards))
    }
}

impl CompiledStmt {
    /// Run the kernel for event `tuple` without the interpreter where its
    /// straight-line form can: a trigger-only unit appends its members' rows
    /// to `rows`, and a guard-tested kernel whose event fails every term's
    /// guards has none. Returns whether that was the whole execution;
    /// `false` leaves the event to [`CompiledStmt::execute`], which a
    /// trigger-only unit never reaches.
    #[inline]
    pub fn run_straight(&self, tuple: &[Value], rows: &mut (impl MemberRows + ?Sized)) -> bool {
        match &self.straight {
            Some(Straight::Unit(unit)) => {
                unit.run(tuple, &self.rels, rows);
                true
            }
            Some(Straight::Guards(guards)) => !admits(guards, tuple),
            None => false,
        }
    }
}

/// Does `tuple` pass some term's guards?
fn admits(guards: &[Vec<Op>], tuple: &[Value]) -> bool {
    guards
        .iter()
        .any(|term| term.iter().all(|g| holds(g, tuple)))
}

/// Does event guard `g` hold on `tuple`? The same [`CmpOp::eval`](crate::CmpOp::eval)
/// on the same `Value`s the interpreter's filter reads in place.
#[inline]
fn holds(g: &Op, tuple: &[Value]) -> bool {
    let Op::CmpFilter { cmp, left, right } = g else {
        unreachable!("an event guard is a filter")
    };
    cmp.eval(operand(left, tuple), operand(right, tuple))
}

/// An event guard's operand, read in place.
#[inline]
fn operand<'a>(s: &'a Scalar, tuple: &'a [Value]) -> &'a Value {
    match s {
        Scalar::Slot(slot) => &tuple[*slot as usize],
        Scalar::Const(v) => v,
        _ => unreachable!("an event guard reads trigger slots and constants"),
    }
}

/// The event guards leading each top-level term of `stmt`'s plan, or `None`
/// when some term has none.
fn leading_guards(stmt: &CompiledStmt) -> Option<Vec<Vec<Op>>> {
    fn lead(op: &Op, trigger_slots: u16) -> Vec<Op> {
        let on_event = |op: &&Op| guards_event(op, trigger_slots.into());
        match op {
            Op::Product(ops) => ops.iter().take_while(on_event).cloned().collect(),
            // Both pass a nonzero multiplicity on nonzero.
            Op::Neg(inner) | Op::AggSum(inner) => lead(inner, trigger_slots),
            op => std::iter::once(op).filter(on_event).cloned().collect(),
        }
    }
    let terms = match &stmt.plan {
        Op::Sum(terms) => &terms[..],
        plan => std::slice::from_ref(plan),
    };
    let guards: Vec<Vec<Op>> = terms.iter().map(|t| lead(t, stmt.trigger_slots)).collect();
    let all = !guards.is_empty() && guards.iter().all(|g| !g.is_empty());
    all.then_some(guards)
}

/// Does `s` read only trigger slots and constants, through value ops?
fn on_event(s: &Scalar, trigger_slots: u16) -> bool {
    let mut pure = true;
    Node::Scalar(s).walk(&mut |n| {
        pure &= match n {
            Node::Scalar(Scalar::Slot(slot)) => *slot < trigger_slots,
            Node::Scalar(
                Scalar::Const(_)
                | Scalar::Neg(_)
                | Scalar::Add(_)
                | Scalar::Mul(_)
                | Scalar::Apply(..)
                | Scalar::Cmp(..),
            ) => true,
            _ => false,
        };
        pure
    });
    pure
}

impl StraightUnit {
    /// The trigger-only unit `stmt` is, if it is one: a lowered statement
    /// taken apart into its frame and its one member's terms as fusion takes
    /// it apart, a fused kernel as it stands.
    fn of(stmt: &CompiledStmt) -> Option<StraightUnit> {
        let ts = stmt.trigger_slots;
        if !stmt.rels.is_empty() || stmt.key_slots.iter().any(|&s| s >= ts) {
            return None;
        }
        let (frame, members) = match stmt.split() {
            Some((frame, terms)) => (frame, vec![terms]),
            None => (factors(&stmt.plan).to_vec(), stmt.members.clone()),
        };
        let framed = |op: &Op| matches!(op, Op::ConstMult(_)) || guards_event(op, ts.into());
        let value = |op: &Op| match op {
            Op::ConstMult(_) => true,
            Op::SlotMult(slot) => *slot < ts,
            Op::ScalarMult(s) => on_event(s, ts),
            _ => false,
        };
        let values = members.iter().flatten().flat_map(|t| &t.values);
        (frame.iter().all(framed) && values.clone().all(value)).then(|| StraightUnit {
            frame,
            members,
            key: stmt.key_slots.clone(),
        })
    }

    /// Run the unit for event `tuple`, appending each member's row, if it
    /// has one, to its buffer in `rows`: the key built from the event once
    /// and cloned for every later member. `names` is the kernel's relation
    /// table, for the panic of a corrupt program.
    fn run(&self, tuple: &[Value], names: &[String], rows: &mut (impl MemberRows + ?Sized)) {
        let mut mult = 1.0;
        for op in &self.frame {
            if mult == 0.0 {
                return;
            }
            match op {
                Op::ConstMult(c) => mult *= c,
                g if !holds(g, tuple) => return,
                _ => {}
            }
        }
        // The member whose new last row holds the key, once built.
        let mut built: Option<usize> = None;
        for (i, terms) in self.members.iter().enumerate() {
            let mut row: Option<f64> = None;
            for term in terms {
                if let Some(m) = term_mult(mult, term, tuple, names) {
                    row = Some(row.map_or(m, |r| r + m));
                }
            }
            let Some(m) = row else { continue };
            let key = match built {
                Some(b) => rows.member(b).last().expect("the built key").0.clone(),
                None => self
                    .key
                    .iter()
                    .map(|&s| tuple[s as usize].clone())
                    .collect(),
            };
            rows.member(i).push((key, m));
            built = Some(i);
        }
    }
}

/// A member term's multiplicity for a frame row of multiplicity `m`, as the
/// interpreter's sink computes it: a zero multiplicity stops before each
/// value op, and with `zero_drops` a zero product emits nothing. `None`
/// where the member's own plan emits no row.
fn term_mult(mut m: f64, term: &SiblingTerm, tuple: &[Value], names: &[String]) -> Option<f64> {
    for op in &term.values {
        if m == 0.0 {
            return None;
        }
        m *= match op {
            Op::ConstMult(c) => *c,
            Op::SlotMult(slot) => total(names, tuple[*slot as usize].as_f64()),
            Op::ScalarMult(s) => total(names, value(s, tuple, names).as_f64()),
            _ => unreachable!("a member's value holds value ops only"),
        };
    }
    (!(term.zero_drops && m == 0.0)).then_some(m)
}

/// The value of a scalar over the event, as the interpreter's
/// `eval_scalar` computes it from the same slots and constants.
fn value(s: &Scalar, tuple: &[Value], names: &[String]) -> Value {
    let v = |s: &Scalar| value(s, tuple, names);
    match s {
        Scalar::Const(c) => c.clone(),
        Scalar::Slot(slot) => tuple[*slot as usize].clone(),
        Scalar::Neg(inner) => total(names, v(inner).neg()),
        Scalar::Add(terms) => terms
            .iter()
            .fold(Value::long(0), |acc, t| total(names, acc.add(&v(t)))),
        Scalar::Mul(factors) => factors
            .iter()
            .fold(Value::long(1), |acc, t| total(names, acc.mul(&v(t)))),
        Scalar::Apply(f, args) => {
            let vals: Vec<Value> = args.iter().map(v).collect();
            total(names, crate::eval::apply_scalar_fn(f, &vals))
        }
        Scalar::Cmp(op, l, r) => Value::double(if op.eval(&v(l), &v(r)) { 1.0 } else { 0.0 }),
        _ => unreachable!("a straight-line value reads the event only"),
    }
}
