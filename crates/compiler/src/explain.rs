//! EXPLAIN / EXPLAIN ANALYZE for compiled trigger programs.
//!
//! Higher-order delta compilation turns a query into opaque flat trigger
//! kernels; this module renders them back into an operator tree an operator
//! can read. Per relation it reports how a run of a delta batch executes —
//! its live pass (which statements read what their own run writes and so
//! fire entry by entry, marked `run: live`, and which maps they read),
//! whether a `:=` tail fires once per run, one `fused:` line per sibling
//! group whose statements run as one kernel, one `straight-line:` line per
//! kernel unit that runs from the event's fields without the plan
//! interpreter and one `guard-tested:` line per kernel whose event guards
//! are tested before it runs — and per statement the compiled
//! plan: probes vs scans, product order, fused-prelude
//! signatures (`range-sum` where the scan is answered from an ordered index),
//! band specs and slot assignments, straight from [`dbtoaster_agca::plan`].
//! Every map the compiler declared a secondary index on gets a `== map … ==`
//! block naming each index's bound columns and its kind: ordered (with the
//! column it is sorted on) or hash — the whole index set the program pays
//! for, visible before the first event.
//!
//! The same tree doubles as **EXPLAIN ANALYZE**: callers with a live engine
//! attach each view's telemetry record ([`ViewSummary`]): its work group —
//! rows written, probes, scans, entries scanned, fused scans, range-sum
//! hits/bails, live-pass firings, current map size — on the statements that
//! write the view via [`ProgramExplain::attach_stats`], and its resident
//! group — how many secondary indexes of each representation, their
//! entries and bytes, beside the bytes of the map itself, live and in its
//! snapshot buffers — on the map's block via
//! [`ProgramExplain::attach_index_stats`]. Every rendering iterates
//! [`VIEW_VALUES`], the one declaration of those values. Both a text
//! rendering and a dependency-free JSON form (round-trippable through
//! [`ProgramExplain::parse_json`]) are provided; the server's `/explain`
//! endpoint serves both.

use crate::batch_delta::{KernelUnit, RelationPlan};
use crate::program::{StmtOp, TriggerProgram};
use dbtoaster_agca::plan::{
    range_sum_refusal, scan_body, FastOp, FusedScan, Node, NumExpr, Op, Scalar, Straight,
};
use dbtoaster_agca::CmpOp;
use dbtoaster_agca::CompiledStmt;
use dbtoaster_agca::UpdateSign;
use dbtoaster_telemetry::{json_escape, ValueGroup, ViewSummary, VIEW_VALUES};
use std::fmt::Write as _;

/// One explained trigger statement: its source text, fused-prelude
/// signatures, rendered kernel plan tree, and (after
/// [`ProgramExplain::attach_stats`]) the live counters of its target view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StmtExplain {
    /// The statement, as the trigger program prints it.
    pub statement: String,
    /// Target map name (the ANALYZE attribution key).
    pub target: String,
    /// `+=` or `:=`.
    pub op: String,
    /// Does the statement read what its own relation's runs write? Inside a
    /// multi-firing run such a statement fires entry by entry, against maps
    /// the run keeps current, instead of once per entry at the pre-run state
    /// (see [`crate::batch_delta`]).
    pub live: bool,
    /// One line per hoisted fused-prelude scan.
    pub prelude: Vec<String>,
    /// The plan tree, one indented line per operator.
    pub plan: Vec<String>,
    /// The target view's work group (EXPLAIN ANALYZE only; every other
    /// value 0).
    pub analyze: Option<ViewSummary>,
}

/// The explained statements of one `(relation, sign)` trigger.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriggerExplain {
    /// `"insert"` or `"delete"`.
    pub sign: String,
    /// Statements in execution order.
    pub statements: Vec<StmtExplain>,
}

/// The batch execution story of one stream relation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RelationExplain {
    /// The stream relation.
    pub relation: String,
    /// Its live pass — the statements that fire entry by entry and the
    /// run-written maps they read, or none — and its `:=` tail, if any.
    pub live_pass: String,
    /// Its sibling groups — the kernel units of two or more statements
    /// ([`RelationPlan::kernels`]), each run as one kernel: insert first,
    /// each by its first member.
    pub fused: Vec<UnitExplain>,
    /// Its kernel units that run straight-line, from the event's fields
    /// alone ([`Straight::Unit`]), in the same order.
    pub straight_line: Vec<UnitExplain>,
    /// Its kernel units whose event guards are tested before the
    /// interpreter runs ([`Straight::Guards`]), in the same order.
    pub guard_tested: Vec<UnitExplain>,
    /// Sign triggers present for the relation.
    pub triggers: Vec<TriggerExplain>,
}

/// One kernel unit: `+=` statements of one trigger run as one kernel (see
/// [`crate::batch_delta`]) — a sibling group, or a unit of one. Its work
/// counts (probes, scans, …) land on its first member's target; each
/// member's `rows_written` on its own.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UnitExplain {
    /// `"insert"` or `"delete"`.
    pub sign: String,
    /// The members' targets, in statement order.
    pub members: Vec<String>,
}

/// One ordered secondary index the compiler declared (see
/// [`TriggerProgram::ordered_indexes`]), with its columns named.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OrderedIndexExplain {
    /// The key columns the index's scans bind by equality.
    pub bound: Vec<String>,
    /// The key column the groups are sorted on.
    pub key: String,
}

/// The index story of one map that carries a declared secondary index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapExplain {
    /// The map.
    pub name: String,
    /// Its declared ordered indexes.
    pub ordered: Vec<OrderedIndexExplain>,
    /// Its declared hash indexes (see [`TriggerProgram::hash_indexes`]):
    /// the key columns each one's scans bind by equality.
    pub hash: Vec<Vec<String>>,
    /// Its resident group: live secondary indexes and bytes (EXPLAIN
    /// ANALYZE only; every other value 0).
    pub analyze: Option<ViewSummary>,
}

/// A full EXPLAIN (or, with stats attached, EXPLAIN ANALYZE) of a compiled
/// trigger program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramExplain {
    /// Per-relation live pass and plans.
    pub relations: Vec<RelationExplain>,
    /// The maps that carry a declared secondary index, by name.
    pub maps: Vec<MapExplain>,
}

/// Explain `program`: exactly the relation plans an engine running it
/// resolves. A program whose derivation bails is corrupt (`compile` refuses
/// it, and no engine runs it): this panics, naming the relation.
pub fn explain(program: &TriggerProgram) -> ProgramExplain {
    let plans = program.relation_plans().unwrap_or_else(|(relation, bail)| {
        panic!(
            "explain: the triggers of {relation} do not derive: {}",
            bail.describe()
        )
    });
    let relations = plans
        .into_iter()
        .map(|plan| {
            let triggers = [plan.insert, plan.delete]
                .into_iter()
                .flatten()
                .map(|i| explain_trigger(program, &plan, i))
                .collect();
            let units = |keep: &dyn Fn(&KernelUnit) -> bool| {
                let kept = plan.kernels.iter().filter(|u| keep(u));
                kept.map(|u| unit_explain(program, u)).collect()
            };
            RelationExplain {
                live_pass: live_pass(&plan),
                fused: units(&|u| u.members.len() > 1),
                straight_line: units(&|u| matches!(u.kernel.straight, Some(Straight::Unit(_)))),
                guard_tested: units(&|u| matches!(u.kernel.straight, Some(Straight::Guards(_)))),
                relation: plan.relation,
                triggers,
            }
        })
        .collect();
    ProgramExplain {
        relations,
        maps: explain_maps(program),
    }
}

/// A kernel unit by its sign and its members' targets.
fn unit_explain(program: &TriggerProgram, unit: &KernelUnit) -> UnitExplain {
    let t = &program.triggers[unit.trigger];
    UnitExplain {
        sign: sign_str(t.sign),
        members: unit
            .members
            .iter()
            .map(|&j| t.statements[j].target.clone())
            .collect(),
    }
}

/// One block per map with a declared secondary index, ordered by name.
/// Columns are named from the map's declaration (`t<i>` for a stored
/// relation, which has none).
fn explain_maps(program: &TriggerProgram) -> Vec<MapExplain> {
    let column = |map: &str, i: usize| {
        program
            .map(map)
            .and_then(|m| m.out_vars.get(i).cloned())
            .unwrap_or_else(|| format!("t{i}"))
    };
    let bound = |map: &str, mask: u64| -> Vec<String> {
        (0..63)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| column(map, i))
            .collect()
    };
    // The block of `name`, created in name order on first use.
    fn block<'a>(maps: &'a mut Vec<MapExplain>, name: &str) -> &'a mut MapExplain {
        let i = match maps.binary_search_by(|m| m.name.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                let fresh = MapExplain {
                    name: name.to_string(),
                    ..MapExplain::default()
                };
                maps.insert(i, fresh);
                i
            }
        };
        &mut maps[i]
    }
    let mut maps = Vec::new();
    for decl in program.ordered_indexes() {
        let index = OrderedIndexExplain {
            bound: bound(&decl.map, decl.mask),
            key: column(&decl.map, decl.key_pos as usize),
        };
        block(&mut maps, &decl.map).ordered.push(index);
    }
    for decl in program.hash_indexes() {
        let index = bound(&decl.map, decl.mask);
        block(&mut maps, &decl.map).hash.push(index);
    }
    maps
}

/// One line per relation: its live pass, and its `:=` tail.
fn live_pass(plan: &RelationPlan) -> String {
    let mut line = match plan.live.len() {
        0 => "none (no statement reads run-written state)".to_string(),
        n => format!(
            "{n} statements, fired entry by entry, read run-written {}",
            plan.live_maps
                .iter()
                .map(|m| format!("`{m}`"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    if plan.tail > 0 {
        let _ = write!(
            line,
            "; {} replace (`:=`) statement{} fired once per run, for its last event",
            plan.tail,
            if plan.tail == 1 { "" } else { "s" }
        );
    }
    line
}

fn explain_trigger(program: &TriggerProgram, plan: &RelationPlan, idx: usize) -> TriggerExplain {
    let t = &program.triggers[idx];
    let statements = t
        .statements
        .iter()
        .enumerate()
        .map(|(j, s)| StmtExplain {
            live: plan.live.contains(&(idx, j)),
            ..explain_statement(s)
        })
        .collect();
    TriggerExplain {
        sign: sign_str(t.sign),
        statements,
    }
}

fn sign_str(sign: UpdateSign) -> String {
    match sign {
        UpdateSign::Insert => "insert".to_string(),
        UpdateSign::Delete => "delete".to_string(),
    }
}

fn explain_statement(s: &crate::program::Statement) -> StmtExplain {
    let mut plan = Vec::new();
    push_op(&mut plan, 0, &s.kernel.plan, &s.kernel);
    StmtExplain {
        statement: s.to_string(),
        target: s.target.clone(),
        op: match s.op {
            StmtOp::Increment => "+=".to_string(),
            StmtOp::Replace => ":=".to_string(),
        },
        live: false,
        prelude: s
            .kernel
            .prelude
            .iter()
            .map(|fs| fused_scan_line(fs, &s.kernel.rels))
            .collect(),
        plan,
        analyze: None,
    }
}

// --- plan rendering --------------------------------------------------------

fn pattern_str(template: &[Option<u16>], binds: &[(u16, u16)]) -> String {
    let cells: Vec<String> = template
        .iter()
        .enumerate()
        .map(|(pos, cell)| match cell {
            Some(slot) => format!("=${slot}"),
            None => match binds.iter().find(|(p, _)| *p as usize == pos) {
                Some((_, slot)) => format!(">${slot}"),
                None => "_".to_string(),
            },
        })
        .collect();
    cells.join(", ")
}

fn num_str(n: &NumExpr) -> String {
    match n {
        NumExpr::Const(c) => format!("{c}"),
        NumExpr::Slot(s) => format!("${s}"),
        NumExpr::Neg(i) => format!("-({})", num_str(i)),
        NumExpr::Add(ts) => ts.iter().map(num_str).collect::<Vec<_>>().join(" + "),
        NumExpr::Mul(ts) => ts.iter().map(num_str).collect::<Vec<_>>().join(" * "),
    }
}

/// `s` rendered; `rels` is the statement's relation table, which names the
/// maps its sub-plans read.
fn scalar_str(s: &Scalar, rels: &[String]) -> String {
    let list = |ts: &[Scalar], sep: &str| {
        let ts: Vec<String> = ts.iter().map(|t| scalar_str(t, rels)).collect();
        ts.join(sep)
    };
    match s {
        Scalar::Const(v) => format!("{v}"),
        Scalar::Slot(slot) => format!("${slot}"),
        Scalar::Neg(i) => format!("-({})", scalar_str(i, rels)),
        Scalar::Add(ts) => list(ts, " + "),
        Scalar::Mul(ts) => list(ts, " * "),
        Scalar::Apply(f, args) => format!("{f}({})", list(args, ", ")),
        Scalar::Cmp(op, l, r) => format!("({} {op} {})", scalar_str(l, rels), scalar_str(r, rels)),
        Scalar::SubSum(op) => format!("subsum({})", op_summary(op, rels)),
        Scalar::CachedSum { plan, .. } => {
            format!(
                "subsum({}) (loop-invariant: once per execution)",
                op_summary(plan, rels)
            )
        }
        Scalar::RangeSum { .. } => range_sum_str(s, rels),
    }
}

/// A band-sum lookup: `range-sum <map>[<pattern>] ordered@t<key> <constraints>`.
fn range_sum_str(s: &Scalar, rels: &[String]) -> String {
    let Scalar::RangeSum {
        ranges, traverse, ..
    } = s
    else {
        return String::new();
    };
    let scan = match scan_body(traverse) {
        Some((
            Op::Scan {
                rel,
                template,
                binds,
                ..
            },
            _,
        )) => {
            let key = template.iter().position(Option::is_none).unwrap_or(0);
            let pattern = pattern_str(template, binds);
            format!("{}[{pattern}] ordered@t{key}", rels[*rel as usize])
        }
        _ => String::new(),
    };
    format!("range-sum {scan} {}", ranges_str(ranges))
}

/// A band's normalized constraints, `key cmp bound` each.
fn ranges_str(ranges: &[(CmpOp, NumExpr)]) -> String {
    let ranges: Vec<String> = ranges
        .iter()
        .map(|(cmp, b)| format!("key {cmp} {}", num_str(b)))
        .collect();
    ranges.join(", ")
}

/// One-line summary of an op (used inside scalar positions).
fn op_summary(op: &Op, rels: &[String]) -> String {
    match op {
        Op::ConstMult(c) => format!("const ×{c}"),
        Op::SlotMult(s) => format!("slot ×${s}"),
        Op::ScalarMult(s) => format!("scalar ×{}", scalar_str(s, rels)),
        Op::Probe { rel, template, .. } => format!(
            "probe {}[{}]",
            rels[*rel as usize],
            template
                .iter()
                .map(|s| format!("${s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Op::Scan {
            rel,
            template,
            binds,
            ..
        } => {
            let rel = &rels[*rel as usize];
            format!("scan {rel}[{}]", pattern_str(template, binds))
        }
        Op::Product(ops) => format!("product({})", ops.len()),
        Op::Sum(ts) => format!("sum({})", ts.len()),
        Op::Neg(_) => "neg".to_string(),
        Op::AggSum(_) => "agg-sum".to_string(),
        Op::LiftBind { slot, value } => {
            format!("lift ${slot} := {}", scalar_str(value, rels))
        }
        Op::LiftEq { slot, value } => {
            format!("lift-eq ${slot} == {}", scalar_str(value, rels))
        }
        Op::CmpFilter { cmp, left, right } => {
            let (l, r) = (scalar_str(left, rels), scalar_str(right, rels));
            format!("filter {l} {cmp} {r}")
        }
        Op::Exists { slots, .. } => format!(
            "exists key=[{}]",
            slots
                .iter()
                .map(|s| format!("${s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Op::Threshold(t) => {
            let sum = t
                .lookup()
                .map_or_else(String::new, |s| range_sum_str(s, rels));
            let operand = scalar_str(&t.operand, rels);
            let (l, r) = if t.sum_left {
                (sum, operand)
            } else {
                (operand, sum)
            };
            let key = t.key;
            format!(
                "threshold ${key} from {l} {} {r} (one search per execution)",
                t.cmp
            )
        }
    }
}

/// Append the tree rendering of `op` (children indented two spaces per level).
/// `k` is the statement's kernel: its relation table names the maps, its
/// trigger slots feed [`range_sum_refusal`].
fn push_op(lines: &mut Vec<String>, depth: usize, op: &Op, k: &CompiledStmt) {
    let indent = "  ".repeat(depth);
    match op {
        Op::Product(ops) => {
            lines.push(format!("{indent}product"));
            for o in ops {
                push_op(lines, depth + 1, o, k);
            }
        }
        Op::Sum(ts) => {
            lines.push(format!("{indent}sum"));
            for t in ts {
                push_op(lines, depth + 1, t, k);
            }
        }
        Op::Neg(inner) => {
            lines.push(format!("{indent}neg"));
            push_op(lines, depth + 1, inner, k);
        }
        Op::AggSum(inner) => {
            lines.push(format!("{indent}agg-sum"));
            push_op(lines, depth + 1, inner, k);
        }
        Op::Exists { inner, .. } => {
            lines.push(format!("{indent}{}", op_summary(op, &k.rels)));
            push_op(lines, depth + 1, inner, k);
        }
        Op::Scan {
            rel,
            template,
            binds,
            eqs,
            ..
        } => {
            let eq_note = if eqs.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> = eqs.iter().map(|(a, b)| format!("t{a}==t{b}")).collect();
                format!(" where {}", pairs.join(", "))
            };
            lines.push(format!(
                "{indent}scan {}[{}]{eq_note}",
                k.rels[*rel as usize],
                pattern_str(template, binds)
            ));
        }
        other => {
            lines.push(format!("{indent}{}", op_summary(other, &k.rels)));
            // Sub-plans hidden inside scalar positions (decorrelated nested
            // aggregates) still deserve a subtree, and a scanning one that
            // stayed a walk says why it is no range sum. A band lookup's one
            // line says all: its walk is the sub-sum it was.
            let values = Node::Op(other).children();
            for value in values.filter(|c| matches!(c, Node::Scalar(_))) {
                value.walk(&mut |n| match n {
                    Node::Scalar(Scalar::SubSum(sub) | Scalar::CachedSum { plan: sub, .. }) => {
                        let why = range_sum_refusal(sub, k.trigger_slots);
                        let note =
                            why.map_or(String::new(), |w| format!(" (not a range sum: {w})"));
                        lines.push(format!("{indent}  subsum:{note}"));
                        push_op(lines, depth + 2, sub, k);
                        false
                    }
                    Node::Scalar(Scalar::RangeSum { .. }) => false,
                    _ => true,
                });
            }
        }
    }
}

fn fast_str(f: &FastOp) -> String {
    match f {
        FastOp::Pred(cmp, l, r) => format!("{} {cmp} {}", num_str(l), num_str(r)),
        FastOp::Weight(w) => format!("×{}", num_str(w)),
        FastOp::Cut { cut, key, .. } => format!("${key} in cut {cut}"),
    }
}

fn fused_scan_line(fs: &FusedScan, rels: &[String]) -> String {
    let mut line = format!(
        "{} {}[{}] members={}",
        match (fs.band_pos, fs.cut_pos) {
            (Some(_), _) => "range-sum",
            (_, Some(_)) => "cut walk",
            _ => "fused scan",
        },
        rels[fs.rel as usize],
        pattern_str(&fs.template, &fs.binds),
        fs.members.len()
    );
    if fs.entry_invariant {
        line.push_str(" entry-invariant");
    }
    if let Some(pos) = fs.band_pos.or(fs.cut_pos) {
        line.push_str(&format!(" ordered@t{pos}"));
    }
    if let Some(why) = fs.range_sum_bail() {
        let _ = write!(line, " (not a range sum: {why})");
    }
    for m in &fs.members {
        let _ = write!(line, "; →${}", m.dest);
        if let Some(fast) = &m.fast {
            // A quantile-filtered sum's cuts are the thresholds of its
            // continuation: it prints the continuation, which is what a row
            // outside a cut runs.
            let pass = fast.iter().any(|f| matches!(f, FastOp::Cut { .. }));
            let steps: Vec<String> = match pass {
                true => m.cont.iter().map(|op| op_summary(op, rels)).collect(),
                false => fast.iter().map(fast_str).collect(),
            };
            let kind = if pass { "numeric pass" } else { "fast" };
            let _ = write!(line, " {kind}[{}]", steps.join(", "));
        }
        if let Some(band) = &m.band {
            let ranges = ranges_str(&band.ranges);
            let _ = write!(line, " band(t{}: {ranges})", band.key_pos);
        }
    }
    line
}

// --- ANALYZE join ----------------------------------------------------------

impl ProgramExplain {
    /// Attach live per-view counters: `lookup` maps a target view name to its
    /// record, of which each statement keeps the work group. Statements whose
    /// target the lookup cannot resolve keep `analyze: None`.
    pub fn attach_stats<F>(&mut self, lookup: F)
    where
        F: Fn(&str) -> Option<ViewSummary>,
    {
        for rel in &mut self.relations {
            for stmt in rel
                .triggers
                .iter_mut()
                .flat_map(|t| t.statements.iter_mut())
            {
                stmt.analyze = lookup(&stmt.target).map(|v| v.only(ValueGroup::Work));
            }
        }
    }

    /// Attach the live secondary indexes and bytes of the explained maps:
    /// `lookup` maps a map name to its record, of which each block keeps the
    /// resident group. Maps the lookup cannot resolve keep `analyze: None`.
    pub fn attach_index_stats<F>(&mut self, lookup: F)
    where
        F: Fn(&str) -> Option<ViewSummary>,
    {
        for m in &mut self.maps {
            m.analyze = lookup(&m.name).map(|v| v.only(ValueGroup::Resident));
        }
    }

    /// Render the tree as indented text (the `harness --explain` / `/explain`
    /// default).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for rel in &self.relations {
            let _ = writeln!(out, "== relation {} ==", rel.relation);
            let _ = writeln!(out, "live pass: {}", rel.live_pass);
            for (label, units) in rel.unit_lists() {
                for u in units {
                    let _ = writeln!(out, "{label}: {} (on {})", u.members.join(", "), u.sign);
                }
            }
            for t in &rel.triggers {
                let _ = writeln!(out, "on {}:", t.sign);
                for s in &t.statements {
                    render_stmt(&mut out, s);
                }
            }
        }
        for m in &self.maps {
            let _ = writeln!(out, "== map {} ==", m.name);
            for i in &m.ordered {
                let _ = writeln!(
                    out,
                    "  index ({}): ordered by {}",
                    i.bound.join(", "),
                    i.key
                );
            }
            for bound in &m.hash {
                let _ = writeln!(out, "  index ({}): hash", bound.join(", "));
            }
            if let Some(a) = &m.analyze {
                analyze_text(&mut out, a, ValueGroup::Resident);
            }
        }
        out
    }

    /// Render the tree as a self-contained JSON document (no dependencies;
    /// parseable back via [`ProgramExplain::parse_json`]).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"relations\":[");
        for (i, rel) in self.relations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"relation\":\"{}\",\"live_pass\":\"{}\"",
                json_escape(&rel.relation),
                json_escape(&rel.live_pass)
            );
            for (key, units) in rel.unit_lists() {
                let _ = write!(out, ",\"{}\":[", key.replace('-', "_"));
                for (j, u) in units.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"sign\":\"{}\",\"members\":", json_escape(&u.sign));
                    strings_json(&mut out, &u.members);
                    out.push('}');
                }
                out.push(']');
            }
            out.push_str(",\"triggers\":[");
            triggers_json(&mut out, &rel.triggers);
            out.push_str("]}");
        }
        out.push_str("],\"maps\":[");
        for (i, m) in self.maps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"ordered\":[", json_escape(&m.name));
            for (j, idx) in m.ordered.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"bound\":");
                strings_json(&mut out, &idx.bound);
                let _ = write!(out, ",\"key\":\"{}\"}}", json_escape(&idx.key));
            }
            out.push_str("],\"hash\":[");
            for (j, bound) in m.hash.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                strings_json(&mut out, bound);
            }
            out.push_str("],\"analyze\":");
            analyze_json(&mut out, m.analyze.as_ref(), ValueGroup::Resident);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a [`ProgramExplain::render_json`] document back. Returns `None`
    /// on any structural mismatch.
    pub fn parse_json(s: &str) -> Option<ProgramExplain> {
        let v = json::parse(s)?;
        let obj = v.as_object()?;
        let mut relations = Vec::new();
        for rv in obj.get("relations")?.as_array()? {
            let r = rv.as_object()?;
            let triggers = triggers_from_json(r.get("triggers")?)?;
            let units = |key: &str| -> Option<Vec<UnitExplain>> {
                let unit = |uv: &json::Json| {
                    let u = uv.as_object()?;
                    Some(UnitExplain {
                        sign: u.get("sign")?.as_str()?.to_string(),
                        members: strings_from_json(u.get("members")?)?,
                    })
                };
                r.get(key)?.as_array()?.iter().map(unit).collect()
            };
            relations.push(RelationExplain {
                relation: r.get("relation")?.as_str()?.to_string(),
                live_pass: r.get("live_pass")?.as_str()?.to_string(),
                fused: units("fused")?,
                straight_line: units("straight_line")?,
                guard_tested: units("guard_tested")?,
                triggers,
            });
        }
        let mut maps = Vec::new();
        for mv in obj.get("maps")?.as_array()? {
            let m = mv.as_object()?;
            let mut ordered = Vec::new();
            for iv in m.get("ordered")?.as_array()? {
                let i = iv.as_object()?;
                ordered.push(OrderedIndexExplain {
                    bound: strings_from_json(i.get("bound")?)?,
                    key: i.get("key")?.as_str()?.to_string(),
                });
            }
            let mut hash = Vec::new();
            for bv in m.get("hash")?.as_array()? {
                hash.push(strings_from_json(bv)?);
            }
            let name = m.get("name")?.as_str()?.to_string();
            let analyze = analyze_from_json(m.get("analyze")?, &name, ValueGroup::Resident)?;
            maps.push(MapExplain {
                name,
                ordered,
                hash,
                analyze,
            });
        }
        Some(ProgramExplain { relations, maps })
    }
}

impl RelationExplain {
    /// Its unit lists, each with the label its text lines carry (its JSON
    /// key, with `_` for `-`).
    fn unit_lists(&self) -> [(&'static str, &[UnitExplain]); 3] {
        [
            ("fused", &self.fused),
            ("straight-line", &self.straight_line),
            ("guard-tested", &self.guard_tested),
        ]
    }
}

fn render_stmt(out: &mut String, s: &StmtExplain) {
    let _ = writeln!(out, "  {}", s.statement);
    if s.live {
        let _ = writeln!(out, "    run: live");
    }
    for p in &s.prelude {
        let _ = writeln!(out, "    prelude: {p}");
    }
    for line in &s.plan {
        let _ = writeln!(out, "    | {line}");
    }
    if let Some(a) = &s.analyze {
        analyze_text(out, a, ValueGroup::Work);
    }
}

/// One group of a view's record as an `analyze:` line, `name=value` each.
fn analyze_text(out: &mut String, a: &ViewSummary, group: ValueGroup) {
    out.push_str("    analyze:");
    for (v, n) in a.group(group) {
        let _ = write!(out, " {}={n}", v.name);
    }
    out.push('\n');
}

/// One group of a view's record as a JSON object keyed by each value's key
/// (`null` when not analyzed).
fn analyze_json(out: &mut String, a: Option<&ViewSummary>, group: ValueGroup) {
    let Some(a) = a else {
        out.push_str("null");
        return;
    };
    out.push('{');
    for (i, (v, n)) in a.group(group).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", v.key());
    }
    out.push('}');
}

/// [`analyze_json`] read back into the record of view `name`: every value of
/// `group` must be present.
fn analyze_from_json(v: &json::Json, name: &str, group: ValueGroup) -> Option<Option<ViewSummary>> {
    if *v == json::Json::Null {
        return Some(None);
    }
    let a = v.as_object()?;
    let mut summary = ViewSummary {
        name: name.to_string(),
        ..ViewSummary::default()
    };
    for (n, value) in summary.values.iter_mut().zip(&VIEW_VALUES) {
        if value.group == group {
            *n = a.get(value.key())?.as_u64()?;
        }
    }
    Some(Some(summary))
}

fn triggers_json(out: &mut String, triggers: &[TriggerExplain]) {
    for (j, t) in triggers.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"sign\":\"{}\",\"statements\":[",
            json_escape(&t.sign)
        );
        for (k, s) in t.statements.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            stmt_json(out, s);
        }
        out.push_str("]}");
    }
}

fn triggers_from_json(v: &json::Json) -> Option<Vec<TriggerExplain>> {
    v.as_array()?
        .iter()
        .map(|tv| {
            let t = tv.as_object()?;
            Some(TriggerExplain {
                sign: t.get("sign")?.as_str()?.to_string(),
                statements: t
                    .get("statements")?
                    .as_array()?
                    .iter()
                    .map(stmt_from_json)
                    .collect::<Option<_>>()?,
            })
        })
        .collect()
}

fn stmt_json(out: &mut String, s: &StmtExplain) {
    let _ = write!(
        out,
        "{{\"statement\":\"{}\",\"target\":\"{}\",\"op\":\"{}\",\"live\":{}",
        json_escape(&s.statement),
        json_escape(&s.target),
        json_escape(&s.op),
        s.live
    );
    out.push_str(",\"prelude\":");
    strings_json(out, &s.prelude);
    out.push_str(",\"plan\":");
    strings_json(out, &s.plan);
    out.push_str(",\"analyze\":");
    analyze_json(out, s.analyze.as_ref(), ValueGroup::Work);
    out.push('}');
}

/// A JSON array of strings.
fn strings_json(out: &mut String, strings: &[String]) {
    out.push('[');
    for (i, s) in strings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(s));
    }
    out.push(']');
}

/// A [`strings_json`] array, parsed back.
fn strings_from_json(v: &json::Json) -> Option<Vec<String>> {
    let items = v.as_array()?.iter();
    items.map(|e| e.as_str().map(str::to_string)).collect()
}

fn stmt_from_json(v: &json::Json) -> Option<StmtExplain> {
    let o = v.as_object()?;
    let strings = |key: &str| strings_from_json(o.get(key)?);
    let target = o.get("target")?.as_str()?.to_string();
    let analyze = analyze_from_json(o.get("analyze")?, &target, ValueGroup::Work)?;
    Some(StmtExplain {
        statement: o.get("statement")?.as_str()?.to_string(),
        target,
        op: o.get("op")?.as_str()?.to_string(),
        live: o.get("live")?.as_bool()?,
        prelude: strings("prelude")?,
        plan: strings("plan")?,
        analyze,
    })
}

/// A minimal JSON reader — just enough to round-trip
/// [`ProgramExplain::render_json`] documents and to assert on the server's
/// JSON endpoints in tests. Std-only by policy (the build environment has no
/// registry access, and the real `serde_json` would be the only consumer).
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as f64; integers up to 2^53 are exact).
        Num(f64),
        /// A string (escapes decoded).
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object.
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean value, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The number as a `u64`, if this is a non-negative integer number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The number, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }

        /// The fields, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
            match self {
                Json::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed, trailing content
    /// rejected). Returns `None` on any syntax error.
    pub fn parse(s: &str) -> Option<Json> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b'{' => {
                *pos += 1;
                let mut obj = BTreeMap::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Some(Json::Obj(obj));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match parse_value(b, pos)? {
                        Json::Str(s) => s,
                        _ => return None,
                    };
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return None;
                    }
                    *pos += 1;
                    let val = parse_value(b, pos)?;
                    obj.insert(key, val);
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b'}' => {
                            *pos += 1;
                            return Some(Json::Obj(obj));
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut arr = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Some(Json::Arr(arr));
                }
                loop {
                    arr.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b']' => {
                            *pos += 1;
                            return Some(Json::Arr(arr));
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => {
                *pos += 1;
                let mut out = String::new();
                loop {
                    match *b.get(*pos)? {
                        b'"' => {
                            *pos += 1;
                            return Some(Json::Str(out));
                        }
                        b'\\' => {
                            *pos += 1;
                            match *b.get(*pos)? {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'b' => out.push('\u{8}'),
                                b'f' => out.push('\u{c}'),
                                b'u' => {
                                    let hex = b.get(*pos + 1..*pos + 5)?;
                                    let code =
                                        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16)
                                            .ok()?;
                                    // Surrogate pairs are not produced by any
                                    // in-tree writer; reject rather than
                                    // mis-decode.
                                    out.push(char::from_u32(code)?);
                                    *pos += 4;
                                }
                                _ => return None,
                            }
                            *pos += 1;
                        }
                        _ => {
                            // Consume one UTF-8 scalar (multi-byte safe).
                            let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                            let c = rest.chars().next()?;
                            out.push(c);
                            *pos += c.len_utf8();
                        }
                    }
                }
            }
            b't' => {
                if b.get(*pos..*pos + 4)? == b"true" {
                    *pos += 4;
                    Some(Json::Bool(true))
                } else {
                    None
                }
            }
            b'f' => {
                if b.get(*pos..*pos + 5)? == b"false" {
                    *pos += 5;
                    Some(Json::Bool(false))
                } else {
                    None
                }
            }
            b'n' => {
                if b.get(*pos..*pos + 4)? == b"null" {
                    *pos += 4;
                    Some(Json::Null)
                } else {
                    None
                }
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()?
                    .parse::<f64>()
                    .ok()
                    .map(Json::Num)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::program::{Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta};
    use dbtoaster_agca::Expr;

    fn program() -> TriggerProgram {
        let catalog: Catalog = [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect();
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("S", ["b", "c"]),
                    Expr::var("c"),
                ]),
            ),
        };
        compile(
            &[q],
            &catalog,
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap()
    }

    #[test]
    fn explain_reports_a_live_pass_per_relation() {
        let p = program();
        let ex = explain(&p);
        assert_eq!(ex.relations.len(), 2);
        for rel in &ex.relations {
            assert_eq!(rel.live_pass, "none (no statement reads run-written state)");
            assert!(!rel.triggers.is_empty());
            for t in &rel.triggers {
                for s in &t.statements {
                    assert!(!s.plan.is_empty());
                }
            }
        }
    }

    #[test]
    fn json_round_trips_with_and_without_stats() {
        let p = program();
        let mut ex = explain(&p);
        let parsed = ProgramExplain::parse_json(&ex.render_json()).expect("parses");
        assert_eq!(parsed, ex);
        ex.attach_stats(|name| {
            let v = ViewSummary {
                name: name.to_string(),
                ..ViewSummary::default()
            };
            Some(
                v.with("rows_written", 7)
                    .with("probes", 3)
                    .with("entries_scanned", 11)
                    .with("map_size", 5),
            )
        });
        let parsed = ProgramExplain::parse_json(&ex.render_json()).expect("parses");
        assert_eq!(parsed, ex);
    }

    #[test]
    fn text_rendering_contains_the_load_bearing_lines() {
        let p = program();
        let text = explain(&p).render_text();
        assert!(text.contains("== relation R =="));
        assert!(text.contains("live pass: none"));
        assert!(
            text.contains("    | "),
            "every statement prints its kernel's plan"
        );
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let v = json::parse(r#"{"a":"x\"\\\né","b":[1,2.5,-3],"c":null}"#).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("a").unwrap().as_str().unwrap(), "x\"\\\né");
        assert_eq!(
            o.get("b").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-3.0)
        );
        assert!(json::parse("{\"a\":}").is_none());
        assert!(json::parse("[1,2,]").is_none());
        assert!(json::parse("{} trailing").is_none());
    }
}
