//! Multi-tuple delta batches: the native unit of the processing spine.
//!
//! The paper's trigger programs consume *single-tuple* updates, but every layer
//! around the engine already thinks in batches: the serving writer drains
//! coalesced micro-batches, the write-ahead log frames one record per batch,
//! and compiled kernels amortize per-statement setup. A [`DeltaBatch`] closes
//! the gap: it represents a contiguous slice of the update stream as a sequence
//! of **per-relation GMR deltas** — for each maximal run of same-relation
//! events, one signed multiplicity map (insert = `+1`, delete = `−1`, same-key
//! events collapsed by ring addition). A single event is the degenerate batch
//! of one run with one entry.
//!
//! ## Why a batch of updates *is* a GMR delta
//!
//! GMRs form a ring, and a relation update is just the addition of a delta
//! GMR: inserting tuple `t` is `R ← R + {t → 1}`, deleting it is
//! `R ← R + {t → −1}`. Addition is associative and commutative, so a run of
//! updates to one relation sums to a single delta GMR
//! `ΔR = Σᵢ {tᵢ → ±1}` — keys whose contributions cancel (an insert/delete
//! pair) vanish from the sum entirely, *before any trigger runs*. This is the
//! DBSP view of streams (a batch of changes to a relation is one Z-set), and
//! the representation a future sharded deployment would exchange between
//! nodes.
//!
//! ## What batching is allowed to change — and what it is not
//!
//! Processing a `DeltaBatch` must leave the engine in the same state as
//! processing its events one at a time. Two observations make that cheap:
//!
//! 1. **Each surviving entry is still a correct single-tuple step.** Firing
//!    the (relation, sign) trigger once per unit of a key's net multiplicity
//!    is a sequence of valid incremental steps, so the engine lands on the
//!    same final state as the event-at-a-time path (the views are a function
//!    of the base stream, and the net stream is identical). Cancelled pairs
//!    contribute nothing to the net stream, which is why net-zero keys can be
//!    dropped.
//! 2. **Ring linearity lets a statement run over the whole delta at once.**
//!    Where a trigger's incremental statements read nothing the same run
//!    writes (their own targets, or the updated base relation where stored),
//!    the delta a statement computes for entry `tᵢ` is the same whether the
//!    other entries have been applied or not, so the per-statement work can
//!    run over all entries back-to-back — statement prelude and
//!    loop-invariant fused scans amortized across the batch — with the
//!    buffered results applied afterwards. Where they do read what the run
//!    writes, the next section restores the interaction.
//!
//! ## Batch-delta programs
//!
//! The compiler derives, per relation, a **whole-run trigger program**
//! (`derive_run_linear` in `dbtoaster-compiler`): treat the run's net delta
//! `ΔR = Σₑ mₑ{tₑ}` as one update. Every incremental statement that reads
//! nothing the run itself writes is evaluated for all entries back-to-back
//! against the *pre-run* state. A statement whose right-hand side has a
//! *run-linear part* — product terms that read a map the run writes — is
//! where the order of the run's entries matters: those statements fire once
//! per firing, in entry order, and the maps they read are written firing by
//! firing too, so each reads exactly what per-event processing would have it
//! read, through the same single lookup. Linear queries read nothing their
//! own run writes and have no such statement; quadratic self-joins read
//! their own auxiliary maps and close with one such *live pass*, which costs
//! what those statements cost per event.
//! Re-evaluation (`:=`) statements need no delta form: of a run's per-event
//! firings only the last one's output survives, so they fire once, for the
//! run's last event, after the buffered writes and the base update.
//!
//! Derivation bails out — and the relation runs entry-major, each surviving
//! entry firing the full per-event sequence — when that argument does not
//! hold: `:=` statements that are not a trigger's tail or not mirrored across
//! both sign triggers, an incremental statement reading a map an earlier
//! statement of the same trigger writes, or a right-hand side not affine in
//! the run-written maps (two such atoms in one product, one under a lift,
//! comparison or `EXISTS`, or any read of a `:=` target). The choice is
//! static per relation — it never depends on a run's size or on the state —
//! so a WAL replay takes the same strategy sequence as the live run. The
//! dispatch actually taken is observable through
//! `EngineStats::{batch_delta_runs, entry_major_runs}` and per run via
//! `BatchReport::runs` under `Engine::set_run_recording`.
//!
//! Both arguments are exact in the GMR ring. Over floating-point
//! multiplicities they are exact up to summation order: integer-weighted
//! streams reproduce the per-event state bit for bit, while float aggregates
//! can differ in the last ulp when a batch reorders or cancels contributions
//! (the same caveat as switching between the compiled and interpreted
//! execution paths). Batch processing is *deterministic* either way: the same
//! events partitioned the same way — in particular a live serving run and its
//! WAL replay, which share the batch boundaries — produce identical bits.
//!
//! ## Representation
//!
//! Entries keep their **first-arrival order** (a collapse folds a later event
//! into the existing entry in place), so batch execution visits keys in a
//! deterministic, stream-correlated order, and [`RelationDelta::last_event`]
//! remembers the final event of the run for the statements that must be bound
//! to it (re-evaluation statements fire once per run, as the last event's
//! firing is the one whose output survives). All buffers — the run pool, the
//! per-run entry list and collapse index — are recycled by [`DeltaBatch::clear`],
//! so a steady-state producer (including the engine's own batch-of-1 wrapper
//! around `process`) allocates nothing.

use crate::delta::{UpdateEvent, UpdateSign};
use dbtoaster_gmr::{FastMap, Gmr, Tuple};

/// One key of a per-relation delta: the net multiplicity of all events in the
/// run that carried this tuple, plus how many events were folded in.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaEntry {
    /// The updated tuple.
    pub key: Tuple,
    /// Net signed multiplicity (`+1` per insert, `−1` per delete, ring-added).
    /// Exactly `0.0` for a fully cancelled key — such entries stay in place
    /// (preserving arrival order and event accounting) and are skipped by the
    /// engine before any kernel runs.
    pub mult: f64,
    /// Number of stream events folded into this entry.
    pub events: u32,
}

impl DeltaEntry {
    /// How many single-tuple trigger firings this entry stands for
    /// (`|mult|`; 0 for a cancelled key).
    pub fn firings(&self) -> u32 {
        self.mult.abs() as u32
    }

    /// The sign of the net multiplicity, if the entry survived collapsing.
    pub fn sign(&self) -> Option<UpdateSign> {
        if self.mult > 0.0 {
            Some(UpdateSign::Insert)
        } else if self.mult < 0.0 {
            Some(UpdateSign::Delete)
        } else {
            None
        }
    }
}

/// The GMR delta of one maximal run of same-relation events inside a
/// [`DeltaBatch`]: a signed multiplicity map over the updated tuples, with
/// entries in first-arrival order.
#[derive(Clone, Debug, Default)]
pub struct RelationDelta {
    relation: String,
    arity: usize,
    entries: Vec<DeltaEntry>,
    /// Collapse index: tuple → position in `entries`.
    index: FastMap<Tuple, u32>,
    events: u64,
    /// `(sign, entry index)` of the last event pushed into the run.
    last: Option<(UpdateSign, u32)>,
}

impl RelationDelta {
    /// The updated relation.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Tuple arity of this run (a same-relation event with a different arity
    /// starts a new run, so one run is always arity-uniform).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Stream events folded into this run.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The run's entries in first-arrival order, including cancelled
    /// (`mult == 0.0`) keys.
    pub fn entries(&self) -> &[DeltaEntry] {
        &self.entries
    }

    /// Sign and tuple of the last event pushed into this run (the binding for
    /// once-per-run re-evaluation statements).
    pub fn last_event(&self) -> Option<(UpdateSign, &Tuple)> {
        self.last
            .map(|(sign, i)| (sign, &self.entries[i as usize].key))
    }

    /// Events whose work vanished through ring cancellation: the difference
    /// between the events pushed and the single-tuple firings that remain.
    pub fn collapsed_events(&self) -> u64 {
        let firings: u64 = self.entries.iter().map(|e| e.firings() as u64).sum();
        self.events.saturating_sub(firings)
    }

    /// The run as a standalone GMR delta over a positional schema (the
    /// interchange form — e.g. what a shard would ship to a peer).
    pub fn to_gmr(&self) -> Gmr {
        let mut g = Gmr::delta(self.arity);
        for e in &self.entries {
            g.add_tuple(e.key.clone(), e.mult);
        }
        g
    }

    /// Re-initialize this (pooled) run for a new relation, keeping buffer
    /// capacity.
    fn reset(&mut self, relation: &str, arity: usize) {
        self.relation.clear();
        self.relation.push_str(relation);
        self.arity = arity;
        self.entries.clear();
        self.index.clear();
        self.events = 0;
        self.last = None;
    }

    /// Fold a coalesced entry of another run into this one (merge support):
    /// ring-add its net multiplicity and carry its event count. Returns the
    /// entry's index in this run.
    fn fold_entry(&mut self, key: &Tuple, mult: f64, events: u32) -> u32 {
        use std::collections::hash_map::Entry;
        let idx = match self.index.entry(key.clone()) {
            Entry::Occupied(o) => {
                let i = *o.get();
                let e = &mut self.entries[i as usize];
                e.mult += mult;
                e.events += events;
                i
            }
            Entry::Vacant(v) => {
                let i = self.entries.len() as u32;
                let key = v.key().clone();
                v.insert(i);
                self.entries.push(DeltaEntry { key, mult, events });
                i
            }
        };
        self.events += events as u64;
        idx
    }

    /// Fold one tuple into the run (caller guarantees relation/arity match).
    /// One hash of the key either way (entry API).
    fn push_key(&mut self, key: Tuple, sign: UpdateSign) {
        use std::collections::hash_map::Entry;
        let mult = sign.multiplier();
        let idx = match self.index.entry(key) {
            Entry::Occupied(o) => {
                let i = *o.get();
                let e = &mut self.entries[i as usize];
                e.mult += mult;
                e.events += 1;
                i
            }
            Entry::Vacant(v) => {
                let i = self.entries.len() as u32;
                let key = v.key().clone(); // cheap: inline copy or Arc bump
                v.insert(i);
                self.entries.push(DeltaEntry {
                    key,
                    mult,
                    events: 1,
                });
                i
            }
        };
        self.events += 1;
        self.last = Some((sign, idx));
    }
}

/// A contiguous slice of the update stream as per-relation GMR deltas: the
/// native unit the engine processes (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    /// Pooled runs; only the first `live` are part of the current batch.
    runs: Vec<RelationDelta>,
    live: usize,
    events: u64,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Build a batch from an event slice (convenience for tests and callers
    /// without a pooled batch to reuse).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a UpdateEvent>) -> Self {
        let mut b = DeltaBatch::new();
        for e in events {
            b.push(e);
        }
        b
    }

    /// Drop the batch contents, retaining every buffer for reuse.
    pub fn clear(&mut self) {
        self.live = 0;
        self.events = 0;
    }

    /// Fold one event into the batch: appended to the current run when it
    /// targets the same relation with the same arity, otherwise a new run
    /// begins. Insert/delete events of one relation share a run — that is
    /// what lets opposite-sign same-key events cancel.
    pub fn push(&mut self, event: &UpdateEvent) {
        let run = self.run_for(&event.relation, event.tuple.len());
        run.push_key(Tuple::from(event.tuple.as_slice()), event.sign);
        self.events += 1;
    }

    /// [`DeltaBatch::push`] taking the event by value: the tuple's values are
    /// *moved* into the delta key instead of cloned — the cheapest conversion
    /// for producers that own their events (the serving writer's drained
    /// micro-batches, WAL replay records).
    pub fn push_owned(&mut self, event: UpdateEvent) {
        let run = self.run_for(&event.relation, event.tuple.len());
        run.push_key(Tuple::from(event.tuple), event.sign);
        self.events += 1;
    }

    fn run_for(&mut self, relation: &str, arity: usize) -> &mut RelationDelta {
        let need_new_run = match self.current() {
            Some(run) => run.relation != relation || run.arity != arity,
            None => true,
        };
        if need_new_run {
            if self.live == self.runs.len() {
                self.runs.push(RelationDelta::default());
            }
            self.runs[self.live].reset(relation, arity);
            self.live += 1;
        }
        &mut self.runs[self.live - 1]
    }

    fn current(&self) -> Option<&RelationDelta> {
        self.live.checked_sub(1).map(|i| &self.runs[i])
    }

    /// The batch's runs, in stream order.
    pub fn runs(&self) -> &[RelationDelta] {
        &self.runs[..self.live]
    }

    /// Total stream events folded into the batch.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Does the batch hold no events?
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Events across all runs whose work vanished through ring cancellation.
    pub fn collapsed_events(&self) -> u64 {
        self.runs().iter().map(|r| r.collapsed_events()).sum()
    }

    /// Does any `(relation, arity)` pair own more than one run? When it does,
    /// [`DeltaBatch::merge_runs_into`] would shrink the batch; when it does
    /// not, merging is the identity and callers can skip it.
    pub fn has_repeated_relation(&self) -> bool {
        let runs = self.runs();
        runs.iter().enumerate().any(|(i, r)| {
            runs[..i]
                .iter()
                .any(|p| p.relation == r.relation && p.arity == r.arity)
        })
    }

    /// Rebuild this batch into `out` with all same-`(relation, arity)` runs
    /// ring-added into one run each, in first-appearance order. Because GMR
    /// addition is associative and commutative, the merged batch carries the
    /// same net delta per relation; cross-run same-key cancellations that the
    /// stream order hid now collapse. Merging reorders *processing* across
    /// relations, which is state-preserving exactly when every trigger
    /// statement computes a pure state difference (all-`Increment` programs —
    /// the engine checks this; `:=` statements are bound to a specific event
    /// position and must keep the original run boundaries).
    pub fn merge_runs_into(&self, out: &mut DeltaBatch) {
        out.clear();
        for run in self.runs() {
            let dst = match (0..out.live)
                .find(|&i| out.runs[i].relation == run.relation && out.runs[i].arity == run.arity)
            {
                Some(i) => &mut out.runs[i],
                None => {
                    if out.live == out.runs.len() {
                        out.runs.push(RelationDelta::default());
                    }
                    out.runs[out.live].reset(&run.relation, run.arity);
                    out.live += 1;
                    &mut out.runs[out.live - 1]
                }
            };
            for e in &run.entries {
                dst.fold_entry(&e.key, e.mult, e.events);
            }
            if let Some((sign, i)) = run.last {
                let key = &run.entries[i as usize].key;
                let idx = dst.index[key];
                dst.last = Some((sign, idx));
            }
        }
        out.events = self.events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_gmr::Value;

    fn ins(rel: &str, vals: &[i64]) -> UpdateEvent {
        UpdateEvent::insert(rel, vals.iter().map(|&v| Value::long(v)).collect())
    }

    fn del(rel: &str, vals: &[i64]) -> UpdateEvent {
        UpdateEvent::delete(rel, vals.iter().map(|&v| Value::long(v)).collect())
    }

    #[test]
    fn runs_split_on_relation_change_and_arity_change() {
        let events = [
            ins("R", &[1, 2]),
            ins("R", &[3, 4]),
            ins("S", &[1]),
            ins("R", &[5, 6]),
            ins("R", &[7]), // same relation, different arity: new run
        ];
        let b = DeltaBatch::from_events(&events);
        assert_eq!(b.events(), 5);
        let runs = b.runs();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].relation(), "R");
        assert_eq!(runs[0].entries().len(), 2);
        assert_eq!(runs[1].relation(), "S");
        assert_eq!(runs[2].arity(), 2);
        assert_eq!(runs[3].arity(), 1);
    }

    #[test]
    fn same_key_events_collapse_by_ring_addition() {
        let events = [
            ins("R", &[1, 2]),
            ins("R", &[1, 2]),
            del("R", &[3, 4]),
            del("R", &[1, 2]),
        ];
        let b = DeltaBatch::from_events(&events);
        let run = &b.runs()[0];
        assert_eq!(run.events(), 4);
        assert_eq!(run.entries().len(), 2);
        assert_eq!(run.entries()[0].mult, 1.0); // +1 +1 −1
        assert_eq!(run.entries()[0].events, 3);
        assert_eq!(run.entries()[1].mult, -1.0);
        assert_eq!(run.collapsed_events(), 2); // one cancelled pair
        assert_eq!(b.collapsed_events(), 2);
    }

    #[test]
    fn net_zero_keys_vanish_but_keep_their_slot() {
        let events = [ins("R", &[1]), del("R", &[1])];
        let b = DeltaBatch::from_events(&events);
        let run = &b.runs()[0];
        assert_eq!(run.entries().len(), 1);
        assert_eq!(run.entries()[0].mult, 0.0);
        assert_eq!(run.entries()[0].firings(), 0);
        assert_eq!(run.entries()[0].sign(), None);
        assert_eq!(run.collapsed_events(), 2);
        // The cancelled key still anchors last_event for := binding.
        let (sign, key) = run.last_event().unwrap();
        assert_eq!(sign, UpdateSign::Delete);
        assert_eq!(key.as_slice(), &[Value::long(1)]);
    }

    #[test]
    fn batch_delta_equals_sum_of_singleton_deltas() {
        let events = [
            ins("R", &[1, 2]),
            del("R", &[5, 6]),
            ins("R", &[1, 2]),
            del("R", &[1, 2]),
        ];
        let b = DeltaBatch::from_events(&events);
        let batch_gmr = b.runs()[0].to_gmr();
        // Ring-sum the per-event singleton deltas.
        let mut sum = Gmr::delta(2);
        for e in &events {
            let mut d = Gmr::delta(2);
            d.add_tuple(Tuple::from(e.tuple.as_slice()), e.sign.multiplier());
            sum.merge_delta(&d);
        }
        assert!(batch_gmr.equivalent(&sum, 0.0));
    }

    #[test]
    fn merge_runs_folds_same_relation_runs_and_cancels_across_them() {
        let events = [
            ins("R", &[1, 2]),
            ins("S", &[7]), // splits R into two runs
            del("R", &[1, 2]),
            ins("R", &[3, 4]),
            ins("S", &[7]),
        ];
        let b = DeltaBatch::from_events(&events);
        assert_eq!(b.runs().len(), 4);
        assert!(b.has_repeated_relation());

        let mut merged = DeltaBatch::new();
        b.merge_runs_into(&mut merged);
        assert_eq!(merged.events(), b.events());
        let runs = merged.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].relation(), "R");
        assert_eq!(runs[0].events(), 3);
        // Cross-run cancellation: the [1,2] insert/delete pair nets to zero.
        assert_eq!(runs[0].entries()[0].mult, 0.0);
        assert_eq!(runs[0].entries()[1].mult, 1.0);
        assert_eq!(runs[0].collapsed_events(), 2);
        assert_eq!(runs[1].relation(), "S");
        assert_eq!(runs[1].entries()[0].mult, 2.0);
        // last_event re-anchored to the merged entry slots.
        let (sign, key) = runs[0].last_event().unwrap();
        assert_eq!(sign, UpdateSign::Insert);
        assert_eq!(key.as_slice(), &[Value::long(3), Value::long(4)]);

        // A batch without repeats merges to itself.
        let single = DeltaBatch::from_events(&[ins("R", &[1, 2]), ins("S", &[7])]);
        assert!(!single.has_repeated_relation());
    }

    #[test]
    fn clear_retains_buffers_and_resets_state() {
        let mut b = DeltaBatch::from_events(&[ins("R", &[1, 2]), ins("S", &[1])]);
        b.clear();
        assert!(b.is_empty());
        assert!(b.runs().is_empty());
        b.push(&ins("T", &[9, 9]));
        assert_eq!(b.runs().len(), 1);
        assert_eq!(b.runs()[0].relation(), "T");
        assert_eq!(b.events(), 1);
    }
}
