//! EXPLAIN / EXPLAIN ANALYZE for compiled trigger programs.
//!
//! Higher-order delta compilation turns a query into opaque flat trigger
//! kernels; this module renders them back into an operator tree an operator
//! can read. Per relation it reports the [`BatchStrategy`] a multi-entry
//! delta batch will use **and why** — whether batch-delta derivation
//! succeeded (which statements read what their own run writes and so fire
//! entry by entry — marked `run: live` — and whether a `:=` tail fires once
//! per run) or which eligibility gate
//! bailed ([`BatchDeltaBail`](crate::program::BatchDeltaBail)) — and per
//! statement the compiled plan: probes vs scans, product order, fused-prelude
//! signatures (`range-sum` where the scan is answered from an ordered index),
//! band specs and slot assignments, straight from [`dbtoaster_agca::plan`].
//! Every map the compiler declared an ordered index on gets a `== map … ==`
//! block naming the index's bound columns and the column it is sorted on.
//!
//! The same tree doubles as **EXPLAIN ANALYZE**: callers with a live engine
//! attach per-target-view counters ([`ViewStats`] — rows written, probes,
//! scans, entries scanned, fused scans, range-sum hits/bails, live-pass
//! firings, current map size) via [`ProgramExplain::attach_stats`] and the
//! maps' live secondary indexes ([`IndexStats`] — how many of each
//! representation, entries, bytes) via
//! [`ProgramExplain::attach_index_stats`]. Both a text
//! rendering and a dependency-free JSON form (round-trippable through
//! [`ProgramExplain::parse_json`]) are provided; the server's `/explain`
//! endpoint serves both.

use crate::program::{BatchStrategy, RelationDispatch, StmtOp, Trigger, TriggerProgram};
use dbtoaster_agca::plan::{FastOp, FusedScan, NumExpr, Op, Scalar};
use dbtoaster_agca::UpdateSign;
use std::fmt::Write as _;

/// Live per-view kernel counters joined into the tree for EXPLAIN ANALYZE.
/// All counts are cumulative since engine start; `map_size` is the current
/// entry count of the target map.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Rows written to the view by trigger statements.
    pub rows_written: u64,
    /// Fully bound index probes executed by kernels targeting the view.
    pub probes: u64,
    /// Full scans executed (plan scans plus fused-prelude traversals).
    pub scans: u64,
    /// Entries visited by those scans.
    pub entries_scanned: u64,
    /// Fused prelude traversals.
    pub fused_scans: u64,
    /// Range-sum scans answered from an ordered index.
    pub banded_hits: u64,
    /// Range-sum scans that fell back to a full traversal.
    pub banded_bails: u64,
    /// Firings of the batch-delta live pass: evaluations, inside multi-firing
    /// runs, of statements that read what their own run writes (the name
    /// dates from when they ran against a run-local overlay).
    pub overlay_firings: u64,
    /// Current number of entries in the map.
    pub map_size: u64,
}

/// One explained trigger statement: its source text, compilation status,
/// fused-prelude signatures, rendered plan tree, and (after
/// [`ProgramExplain::attach_stats`]) the live counters of its target view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StmtExplain {
    /// The statement, as the trigger program prints it.
    pub statement: String,
    /// Target map name (the ANALYZE attribution key).
    pub target: String,
    /// `+=` or `:=`.
    pub op: String,
    /// Did the statement lower to a compiled kernel (`false` = interpreted)?
    pub compiled: bool,
    /// Does the statement read what its own relation's runs write? Inside a
    /// multi-firing run such a statement fires entry by entry, against maps
    /// the run keeps current, instead of once per entry at the pre-run state
    /// (see [`crate::batch_delta`]).
    pub live: bool,
    /// One line per hoisted fused-prelude scan.
    pub prelude: Vec<String>,
    /// The plan tree, one indented line per operator.
    pub plan: Vec<String>,
    /// Live counters of the target view (EXPLAIN ANALYZE only).
    pub analyze: Option<ViewStats>,
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
    /// The chosen [`BatchStrategy`], as its stable lowercase name.
    pub strategy: String,
    /// Why that strategy was chosen (derivation success, the exact bail gate,
    /// or the forced override).
    pub reason: String,
    /// The shardability verdict for the relation (see
    /// [`crate::shard::analyze_sharding`]): `shard-local (...)` or
    /// `exchanges deltas: ...`, in the same stable style as `reason`.
    pub shard: String,
    /// Sign triggers present for the relation.
    pub triggers: Vec<TriggerExplain>,
}

/// The live secondary indexes of one map, joined in for EXPLAIN ANALYZE
/// (and served on `/views`): how many there are of each representation, and
/// what they hold in total under the store's cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Hash indexes (built by the first partial-pattern lookup of a mask).
    pub hash: u64,
    /// Ordered indexes (declared by the compiler).
    pub ordered: u64,
    /// Entries indexed, summed over the indexes.
    pub entries: u64,
    /// Bytes held, summed over the indexes.
    pub bytes: u64,
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

/// The index story of one map that carries an ordered index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MapExplain {
    /// The map.
    pub name: String,
    /// Its declared ordered indexes.
    pub ordered: Vec<OrderedIndexExplain>,
    /// Its live secondary indexes (EXPLAIN ANALYZE only).
    pub analyze: Option<IndexStats>,
}

/// A full EXPLAIN (or, with stats attached, EXPLAIN ANALYZE) of a compiled
/// trigger program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramExplain {
    /// The forced strategy override in effect, if any (the stable name;
    /// `"entry-major"` is the only one there is).
    pub forced: Option<String>,
    /// Per-relation strategy, reason and plans.
    pub relations: Vec<RelationExplain>,
    /// The maps that carry an ordered secondary index, by name.
    pub maps: Vec<MapExplain>,
}

/// Explain `program`. `force_entry_major` is the engine's per-event-oracle
/// override (`Engine::set_force_entry_major` in the runtime) — pass the
/// engine's setting so EXPLAIN reports exactly what the dispatch table holds.
pub fn explain(program: &TriggerProgram, force_entry_major: bool) -> ProgramExplain {
    let shard_plan = crate::shard::analyze_sharding(program);
    let relations = program
        .batch_dispatch()
        .into_iter()
        .map(|d| {
            let triggers = [d.insert, d.delete]
                .into_iter()
                .flatten()
                .map(|i| explain_trigger(program, i))
                .collect();
            let strategy = if force_entry_major {
                BatchStrategy::EntryMajor
            } else {
                d.strategy
            };
            RelationExplain {
                reason: strategy_reason(program, &d, force_entry_major),
                shard: shard_plan
                    .relation_plan(&d.relation)
                    .map(|r| r.reason.clone())
                    .unwrap_or_default(),
                relation: d.relation,
                strategy: strategy.as_str().to_string(),
                triggers,
            }
        })
        .collect();
    ProgramExplain {
        forced: force_entry_major.then(|| BatchStrategy::EntryMajor.as_str().to_string()),
        relations,
        maps: explain_maps(program),
    }
}

/// One block per map with a declared ordered index. Columns are named from
/// the map's declaration (`t<i>` for a stored relation, which has none).
fn explain_maps(program: &TriggerProgram) -> Vec<MapExplain> {
    let mut maps: Vec<MapExplain> = Vec::new();
    for decl in program.ordered_indexes() {
        let column = |i: usize| {
            program
                .map(&decl.map)
                .and_then(|m| m.out_vars.get(i).cloned())
                .unwrap_or_else(|| format!("t{i}"))
        };
        let index = OrderedIndexExplain {
            bound: (0..63)
                .filter(|i| decl.mask & (1 << i) != 0)
                .map(column)
                .collect(),
            key: column(decl.key_pos as usize),
        };
        match maps.last_mut().filter(|m| m.name == decl.map) {
            Some(m) => m.ordered.push(index),
            None => maps.push(MapExplain {
                name: decl.map,
                ordered: vec![index],
                analyze: None,
            }),
        }
    }
    maps
}

/// One reason per relation: how batch-delta was derived, or the gate that
/// bailed (which is why the relation runs entry-major).
fn strategy_reason(
    program: &TriggerProgram,
    d: &RelationDispatch,
    force_entry_major: bool,
) -> String {
    if force_entry_major {
        return "forced entry-major override".to_string();
    }
    let Some(rl) = program.run_linear_for(&d.relation) else {
        return match program
            .batch_delta_reason(&d.relation)
            .and_then(|o| o.bail.as_ref())
        {
            Some(bail) => format!("batch-delta ineligible: {}", bail.describe()),
            None => "batch-delta not derived".to_string(),
        };
    };
    let mut reason = if rl.statements.is_empty() {
        // Wording kept from when the live pass ran against a run-local
        // overlay: the EXPLAIN of a program without one must not change.
        "batch-delta derived (no statement reads run-written state; no overlay pass)".to_string()
    } else {
        format!(
            "batch-delta derived ({} live statements, fired entry by entry, read run-written {})",
            rl.statements.len(),
            rl.live_maps
                .iter()
                .map(|m| format!("`{m}`"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    // Mirrored across the signs (eligibility gate 1), so either trigger counts.
    let tail = d.insert.map_or(0, |i| {
        let t = &program.triggers[i];
        t.statements.len() - t.increments().len()
    });
    if tail > 0 {
        let _ = write!(
            reason,
            "; {tail} replace (`:=`) statement{} fired once per run, for its last event",
            if tail == 1 { "" } else { "s" }
        );
    }
    reason
}

fn explain_trigger(program: &TriggerProgram, idx: usize) -> TriggerExplain {
    let t: &Trigger = &program.triggers[idx];
    let rl = program.run_linear_for(&t.relation);
    let statements = t
        .statements
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let kernel = program
                .compiled
                .get(idx)
                .and_then(|c| c.stmts.get(j))
                .and_then(|k| k.as_ref());
            StmtExplain {
                live: rl.is_some_and(|rl| rl.lists(idx, j)),
                ..explain_statement(s, kernel)
            }
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

fn explain_statement(
    s: &crate::program::Statement,
    kernel: Option<&dbtoaster_agca::CompiledStmt>,
) -> StmtExplain {
    let (prelude, plan) = match kernel {
        Some(k) => {
            let prelude = k.prelude.iter().map(fused_scan_line).collect();
            let mut plan = Vec::new();
            push_op(&mut plan, 0, &k.plan);
            (prelude, plan)
        }
        None => (Vec::new(), vec!["<interpreted: AST evaluator>".to_string()]),
    };
    StmtExplain {
        statement: s.to_string(),
        target: s.target.clone(),
        op: match s.op {
            StmtOp::Increment => "+=".to_string(),
            StmtOp::Replace => ":=".to_string(),
        },
        compiled: kernel.is_some(),
        live: false,
        prelude,
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

fn scalar_str(s: &Scalar) -> String {
    match s {
        Scalar::Const(v) => format!("{v}"),
        Scalar::Slot(slot) => format!("${slot}"),
        Scalar::Neg(i) => format!("-({})", scalar_str(i)),
        Scalar::Add(ts) => ts.iter().map(scalar_str).collect::<Vec<_>>().join(" + "),
        Scalar::Mul(ts) => ts.iter().map(scalar_str).collect::<Vec<_>>().join(" * "),
        Scalar::Apply(f, args) => format!(
            "{f}({})",
            args.iter().map(scalar_str).collect::<Vec<_>>().join(", ")
        ),
        Scalar::Cmp(op, l, r) => format!("({} {op} {})", scalar_str(l), scalar_str(r)),
        Scalar::SubSum(op) => format!("subsum({})", op_summary(op)),
    }
}

/// One-line summary of an op (used inside scalar positions).
fn op_summary(op: &Op) -> String {
    match op {
        Op::ConstMult(c) => format!("const ×{c}"),
        Op::SlotMult(s) => format!("slot ×${s}"),
        Op::ScalarMult(s) => format!("scalar ×{}", scalar_str(s)),
        Op::Probe { rel, template, .. } => format!(
            "probe {rel}[{}]",
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
            format!("scan {rel}[{}]", pattern_str(template, binds))
        }
        Op::Product(ops) => format!("product({})", ops.len()),
        Op::Sum(ts) => format!("sum({})", ts.len()),
        Op::Neg(_) => "neg".to_string(),
        Op::AggSum(_) => "agg-sum".to_string(),
        Op::LiftBind { slot, value } => format!("lift ${slot} := {}", scalar_str(value)),
        Op::LiftEq { slot, value } => format!("lift-eq ${slot} == {}", scalar_str(value)),
        Op::CmpFilter { cmp, left, right } => {
            format!("filter {} {cmp} {}", scalar_str(left), scalar_str(right))
        }
        Op::Exists { slots, .. } => format!(
            "exists key=[{}]",
            slots
                .iter()
                .map(|s| format!("${s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Append the tree rendering of `op` (children indented two spaces per level).
fn push_op(lines: &mut Vec<String>, depth: usize, op: &Op) {
    let indent = "  ".repeat(depth);
    match op {
        Op::Product(ops) => {
            lines.push(format!("{indent}product"));
            for o in ops {
                push_op(lines, depth + 1, o);
            }
        }
        Op::Sum(ts) => {
            lines.push(format!("{indent}sum"));
            for t in ts {
                push_op(lines, depth + 1, t);
            }
        }
        Op::Neg(inner) => {
            lines.push(format!("{indent}neg"));
            push_op(lines, depth + 1, inner);
        }
        Op::AggSum(inner) => {
            lines.push(format!("{indent}agg-sum"));
            push_op(lines, depth + 1, inner);
        }
        Op::Exists { inner, .. } => {
            lines.push(format!("{indent}{}", op_summary(op)));
            push_op(lines, depth + 1, inner);
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
                "{indent}scan {rel}[{}]{eq_note}",
                pattern_str(template, binds)
            ));
        }
        other => {
            lines.push(format!("{indent}{}", op_summary(other)));
            // Sub-plans hidden inside scalar positions (decorrelated nested
            // aggregates) still deserve a subtree.
            for sub in scalar_subplans(other) {
                lines.push(format!("{indent}  subsum:"));
                push_op(lines, depth + 2, sub);
            }
        }
    }
}

/// The `SubSum` sub-plans reachable from an op's scalar positions.
fn scalar_subplans(op: &Op) -> Vec<&Op> {
    fn walk<'a>(s: &'a Scalar, out: &mut Vec<&'a Op>) {
        match s {
            Scalar::SubSum(op) => out.push(op),
            Scalar::Neg(i) => walk(i, out),
            Scalar::Add(ts) | Scalar::Mul(ts) | Scalar::Apply(_, ts) => {
                ts.iter().for_each(|t| walk(t, out))
            }
            Scalar::Cmp(_, l, r) => {
                walk(l, out);
                walk(r, out);
            }
            Scalar::Const(_) | Scalar::Slot(_) => {}
        }
    }
    let mut out = Vec::new();
    match op {
        Op::ScalarMult(s) | Op::LiftBind { value: s, .. } | Op::LiftEq { value: s, .. } => {
            walk(s, &mut out)
        }
        Op::CmpFilter { left, right, .. } => {
            walk(left, &mut out);
            walk(right, &mut out);
        }
        _ => {}
    }
    out
}

fn fused_scan_line(fs: &FusedScan) -> String {
    let mut line = format!(
        "{} {}[{}] members={}",
        if fs.band_pos.is_some() {
            "range-sum"
        } else {
            "fused scan"
        },
        fs.rel,
        pattern_str(&fs.template, &fs.binds),
        fs.members.len()
    );
    if fs.entry_invariant {
        line.push_str(" entry-invariant");
    }
    if let Some(pos) = fs.band_pos {
        line.push_str(&format!(" ordered@t{pos}"));
    }
    if let Some(why) = fs.range_sum_bail() {
        let _ = write!(line, " (not a range sum: {why})");
    }
    for m in &fs.members {
        let _ = write!(line, "; →${}", m.dest);
        if let Some(fast) = &m.fast {
            let steps: Vec<String> = fast
                .iter()
                .map(|f| match f {
                    FastOp::Pred(cmp, l, r) => format!("{} {cmp} {}", num_str(l), num_str(r)),
                    FastOp::Weight(w) => format!("×{}", num_str(w)),
                })
                .collect();
            let _ = write!(line, " fast[{}]", steps.join(", "));
        }
        if let Some(band) = &m.band {
            let ranges: Vec<String> = band
                .ranges
                .iter()
                .map(|(cmp, b)| format!("key {cmp} {}", num_str(b)))
                .collect();
            let _ = write!(line, " band(t{}: {})", band.key_pos, ranges.join(", "));
        }
    }
    line
}

// --- ANALYZE join ----------------------------------------------------------

impl ProgramExplain {
    /// Attach live per-view counters: `lookup` maps a target view name to its
    /// [`ViewStats`]. Statements whose target the lookup cannot resolve keep
    /// `analyze: None`.
    pub fn attach_stats<F>(&mut self, lookup: F)
    where
        F: Fn(&str) -> Option<ViewStats>,
    {
        for rel in &mut self.relations {
            for stmt in rel
                .triggers
                .iter_mut()
                .flat_map(|t| t.statements.iter_mut())
            {
                stmt.analyze = lookup(&stmt.target);
            }
        }
    }

    /// Attach the live secondary indexes of the explained maps: `lookup`
    /// maps a map name to its [`IndexStats`]. Maps the lookup cannot resolve
    /// keep `analyze: None`.
    pub fn attach_index_stats<F>(&mut self, lookup: F)
    where
        F: Fn(&str) -> Option<IndexStats>,
    {
        for m in &mut self.maps {
            m.analyze = lookup(&m.name);
        }
    }

    /// Render the tree as indented text (the `harness --explain` / `/explain`
    /// default).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some(f) = &self.forced {
            let _ = writeln!(out, "forced strategy override: {f}");
        }
        for rel in &self.relations {
            let _ = writeln!(out, "== relation {} ==", rel.relation);
            let _ = writeln!(out, "strategy: {}", rel.strategy);
            let _ = writeln!(out, "reason: {}", rel.reason);
            if !rel.shard.is_empty() {
                let _ = writeln!(out, "shard: {}", rel.shard);
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
            if let Some(a) = &m.analyze {
                let _ = writeln!(
                    out,
                    "    analyze: indexes hash={} ordered={} entries={} bytes={}",
                    a.hash, a.ordered, a.entries, a.bytes
                );
            }
        }
        out
    }

    /// Render the tree as a self-contained JSON document (no dependencies;
    /// parseable back via [`ProgramExplain::parse_json`]).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"forced\":");
        match &self.forced {
            Some(f) => {
                let _ = write!(out, "\"{}\"", json_escape(f));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"relations\":[");
        for (i, rel) in self.relations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"relation\":\"{}\",\"strategy\":\"{}\",\"reason\":\"{}\",\"shard\":\"{}\",\"triggers\":[",
                json_escape(&rel.relation),
                json_escape(&rel.strategy),
                json_escape(&rel.reason),
                json_escape(&rel.shard)
            );
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
                let bound: Vec<String> = idx
                    .bound
                    .iter()
                    .map(|b| format!("\"{}\"", json_escape(b)))
                    .collect();
                let _ = write!(
                    out,
                    "{{\"bound\":[{}],\"key\":\"{}\"}}",
                    bound.join(","),
                    json_escape(&idx.key)
                );
            }
            out.push_str("],\"analyze\":");
            match &m.analyze {
                Some(a) => {
                    let _ = write!(
                        out,
                        "{{\"hash\":{},\"ordered\":{},\"entries\":{},\"bytes\":{}}}",
                        a.hash, a.ordered, a.entries, a.bytes
                    );
                }
                None => out.push_str("null"),
            }
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
        let forced = match obj.get("forced")? {
            json::Json::Null => None,
            json::Json::Str(f) => Some(f.clone()),
            _ => return None,
        };
        let mut relations = Vec::new();
        for rv in obj.get("relations")?.as_array()? {
            let r = rv.as_object()?;
            let triggers = triggers_from_json(r.get("triggers")?)?;
            relations.push(RelationExplain {
                relation: r.get("relation")?.as_str()?.to_string(),
                strategy: r.get("strategy")?.as_str()?.to_string(),
                reason: r.get("reason")?.as_str()?.to_string(),
                // Absent in pre-shard documents: tolerate for forward compat.
                shard: r
                    .get("shard")
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string(),
                triggers,
            });
        }
        // Absent in documents that predate ordered indexes.
        let mut maps = Vec::new();
        for mv in obj.get("maps").and_then(|m| m.as_array()).unwrap_or(&[]) {
            let m = mv.as_object()?;
            let mut ordered = Vec::new();
            for iv in m.get("ordered")?.as_array()? {
                let i = iv.as_object()?;
                ordered.push(OrderedIndexExplain {
                    bound: i
                        .get("bound")?
                        .as_array()?
                        .iter()
                        .map(|b| b.as_str().map(str::to_string))
                        .collect::<Option<_>>()?,
                    key: i.get("key")?.as_str()?.to_string(),
                });
            }
            let analyze = match m.get("analyze")? {
                json::Json::Null => None,
                a => {
                    let a = a.as_object()?;
                    let field = |k: &str| a.get(k).and_then(json::Json::as_u64);
                    Some(IndexStats {
                        hash: field("hash")?,
                        ordered: field("ordered")?,
                        entries: field("entries")?,
                        bytes: field("bytes")?,
                    })
                }
            };
            maps.push(MapExplain {
                name: m.get("name")?.as_str()?.to_string(),
                ordered,
                analyze,
            });
        }
        Some(ProgramExplain {
            forced,
            relations,
            maps,
        })
    }
}

fn render_stmt(out: &mut String, s: &StmtExplain) {
    let _ = writeln!(out, "  {}", s.statement);
    let _ = writeln!(
        out,
        "    kernel: {}",
        if s.compiled {
            "compiled"
        } else {
            "interpreted"
        }
    );
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
        let _ = writeln!(
            out,
            "    analyze: rows={} probes={} scans={} entries={} fused={} banded={}/{} \
             overlay={} map_size={}",
            a.rows_written,
            a.probes,
            a.scans,
            a.entries_scanned,
            a.fused_scans,
            a.banded_hits,
            a.banded_bails,
            a.overlay_firings,
            a.map_size
        );
    }
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
        "{{\"statement\":\"{}\",\"target\":\"{}\",\"op\":\"{}\",\"compiled\":{},\"live\":{}",
        json_escape(&s.statement),
        json_escape(&s.target),
        json_escape(&s.op),
        s.compiled,
        s.live
    );
    out.push_str(",\"prelude\":[");
    for (i, p) in s.prelude.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(p));
    }
    out.push_str("],\"plan\":[");
    for (i, p) in s.plan.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(p));
    }
    out.push_str("],\"analyze\":");
    match &s.analyze {
        Some(a) => {
            let _ = write!(
                out,
                "{{\"rows_written\":{},\"probes\":{},\"scans\":{},\"entries_scanned\":{},\
                 \"fused_scans\":{},\"banded_hits\":{},\"banded_bails\":{},\
                 \"overlay_firings\":{},\"map_size\":{}}}",
                a.rows_written,
                a.probes,
                a.scans,
                a.entries_scanned,
                a.fused_scans,
                a.banded_hits,
                a.banded_bails,
                a.overlay_firings,
                a.map_size
            );
        }
        None => out.push_str("null"),
    }
    out.push('}');
}

fn stmt_from_json(v: &json::Json) -> Option<StmtExplain> {
    let o = v.as_object()?;
    let strings = |key: &str| -> Option<Vec<String>> {
        o.get(key)?
            .as_array()?
            .iter()
            .map(|e| e.as_str().map(str::to_string))
            .collect()
    };
    let analyze = match o.get("analyze")? {
        json::Json::Null => None,
        a => {
            let a = a.as_object()?;
            let field = |k: &str| a.get(k).and_then(json::Json::as_u64);
            Some(ViewStats {
                rows_written: field("rows_written")?,
                probes: field("probes")?,
                scans: field("scans")?,
                entries_scanned: field("entries_scanned")?,
                fused_scans: field("fused_scans")?,
                banded_hits: field("banded_hits")?,
                banded_bails: field("banded_bails")?,
                overlay_firings: field("overlay_firings")?,
                map_size: field("map_size")?,
            })
        }
    };
    Some(StmtExplain {
        statement: o.get("statement")?.as_str()?.to_string(),
        target: o.get("target")?.as_str()?.to_string(),
        op: o.get("op")?.as_str()?.to_string(),
        compiled: o.get("compiled")?.as_bool()?,
        live: o.get("live")?.as_bool()?,
        prelude: strings("prelude")?,
        plan: strings("plan")?,
        analyze,
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
    fn explain_reports_strategy_and_reason_per_relation() {
        let p = program();
        let ex = explain(&p, false);
        assert_eq!(ex.relations.len(), 2);
        for rel in &ex.relations {
            assert_eq!(rel.strategy, "batch-delta");
            assert!(rel.reason.contains("batch-delta derived"), "{}", rel.reason);
            assert!(!rel.triggers.is_empty());
            for t in &rel.triggers {
                for s in &t.statements {
                    assert!(s.compiled, "workload statements lower: {}", s.statement);
                    assert!(!s.plan.is_empty());
                }
            }
        }
    }

    #[test]
    fn forced_overrides_are_reflected() {
        let p = program();
        let entry = explain(&p, true);
        assert_eq!(entry.forced.as_deref(), Some("entry-major"));
        for rel in &entry.relations {
            assert_eq!(rel.strategy, "entry-major");
            assert_eq!(rel.reason, "forced entry-major override");
        }
        assert_eq!(explain(&p, false).forced, None);
    }

    #[test]
    fn json_round_trips_with_and_without_stats() {
        let p = program();
        let mut ex = explain(&p, false);
        let parsed = ProgramExplain::parse_json(&ex.render_json()).expect("parses");
        assert_eq!(parsed, ex);
        ex.attach_stats(|_| {
            Some(ViewStats {
                rows_written: 7,
                probes: 3,
                entries_scanned: 11,
                map_size: 5,
                ..ViewStats::default()
            })
        });
        let parsed = ProgramExplain::parse_json(&ex.render_json()).expect("parses");
        assert_eq!(parsed, ex);
    }

    #[test]
    fn text_rendering_contains_the_load_bearing_lines() {
        let p = program();
        let text = explain(&p, false).render_text();
        assert!(text.contains("== relation R =="));
        assert!(text.contains("strategy: batch-delta"));
        assert!(text.contains("reason: "));
        assert!(text.contains("shard: "));
        assert!(text.contains("kernel: compiled"));
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
