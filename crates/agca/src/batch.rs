//! Multi-tuple delta batches: the native unit of the processing spine.
//!
//! The paper's trigger programs consume *single-tuple* updates, but every layer
//! around the engine already thinks in batches: the serving writer drains
//! coalesced micro-batches, the write-ahead log frames one record per batch,
//! and compiled kernels amortize per-statement setup. A [`DeltaBatch`] closes
//! the gap: it represents a contiguous slice of the update stream as
//! **per-relation GMR deltas** — for each `(relation, arity)` the batch's
//! events touch, one run: a signed multiplicity map (insert = `+1`, delete =
//! `−1`, same-key events collapsed by ring addition) that every event of
//! that pair folds into, wherever it comes in the stream. A single event is
//! the degenerate batch of one run with one entry.
//!
//! ## Why a batch of updates *is* a GMR delta
//!
//! GMRs form a ring, and a relation update is just the addition of a delta
//! GMR: inserting tuple `t` is `R ← R + {t → 1}`, deleting it is
//! `R ← R + {t → −1}`. Addition is associative and commutative, so a run of
//! updates to one relation sums to a single delta GMR
//! `ΔR = Σᵢ {tᵢ → ±1}` — keys whose contributions cancel (an insert/delete
//! pair) vanish from the sum entirely, *before any trigger runs*. This is the
//! DBSP view of streams (a batch of changes to a relation is one Z-set).
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
//! The compiler derives, per relation, a **whole-run trigger program** (its
//! `RelationPlan`, from `TriggerProgram::relation_plans` in
//! `dbtoaster-compiler`): treat the run's net delta
//! `ΔR = Σₑ mₑ{tₑ}` as one update. Every incremental statement that reads
//! nothing the run itself writes is evaluated for all entries back-to-back
//! against the *pre-run* state. A statement whose right-hand side reads a map
//! the run writes — in any shape — is where the order of the run's entries
//! matters: those statements fire once per firing, in entry order, and the
//! maps they read are written firing by firing too, so each reads exactly
//! what per-event processing would have it read, through the same single
//! lookup. Linear queries read nothing their
//! own run writes and have no such statement; quadratic self-joins read
//! their own auxiliary maps and close with one such *live pass*, which costs
//! what those statements cost per event.
//! Re-evaluation (`:=`) statements need no delta form: of a run's per-event
//! firings only the last one's output survives, so they fire once, for the
//! run's last event, after the buffered writes and the base update.
//!
//! Derivation fails only when the `:=` statements cannot be the run's tail:
//! they are not a trigger's tail, not mirrored across both sign triggers, or
//! an incremental statement reads one's target (rewritten once per run, not
//! once per firing). `compile` refuses such a program
//! (`CompileError::Underivable`), and no bundled query needs it refused, so
//! every run of every relation runs batch-delta, whatever its size or the
//! state, and a WAL replay runs the same runs as the live run: the runs of
//! the batch it rebuilds (counted by `EngineStats::batch_delta_runs`).
//!
//! Both arguments are exact in the GMR ring. Over floating-point
//! multiplicities they are exact up to summation order: integer-weighted
//! streams reproduce the per-event state bit for bit, while float aggregates
//! can differ in the last ulp when a batch reorders or cancels contributions
//! (the same caveat as comparing against a recomputation of the view
//! definitions). Batch processing is *deterministic* either way: the same
//! events partitioned the same way — in particular a live serving run and its
//! WAL replay, which share the batch boundaries — produce identical bits.
//!
//! ## Representation
//!
//! A batch holds one run per `(relation, arity)`, in first-appearance order,
//! and folds each event straight into its pair's run, wherever it comes in
//! the stream: an interleaved stream (TPC-H's Orders and Lineitem, bids and
//! asks) is a few runs, not hundreds. Grouping reorders processing across
//! relations, and that is exact: every map a compiled program maintains is
//! a function of the base relations, which the reordered stream leaves as
//! the stream itself does, so per-event processing of the batch's events
//! relation by relation ends where per-event processing in stream order
//! ends — and each run is one relation's stretch of that reordered stream,
//! which the argument above covers (its increments sum to one delta, its
//! `:=` tail re-evaluates from the state the run leaves, as the stretch's
//! last firing would). Every producer — the serving writer, WAL replay,
//! [`DeltaBatch::from_events`] — builds this one layout, and the engine runs
//! a batch as it is.
//!
//! Entries keep their **first-arrival order** (a collapse folds a later event
//! into the existing entry in place), so batch execution visits keys in a
//! deterministic, stream-correlated order. Each entry remembers the position
//! of its last event among its run's events, and that event's sign, so the
//! entry whose last event came latest holds the final event of the run, for
//! the statements that must be bound to it (re-evaluation statements fire
//! once per run, as the last event's firing is the one whose output survives)
//! — also in a run some of whose entries were taken out
//! ([`RelationDelta::retain_into`], how the engine's ingest gate drops a
//! refused entry from its run). Each entry's key is the tuple of the first
//! event that carried it (`Vec<Value>`): an owned event's tuple moves into
//! its entry as it is, and a later event of the same key folds into that
//! entry, its tuple dropped. A
//! run indexes its entries by key hash — positions, not keys, so a new key
//! moves into its entry uncloned — only once it holds a second one: a
//! one-entry run — every batch of one event — compares the next key with its
//! entry instead, so it hashes nothing. All buffers — the run pool, the
//! per-run entry list and collapse index — are recycled by
//! [`DeltaBatch::clear`], so a steady-state producer that owns its events
//! ([`DeltaBatch::refill`]) allocates nothing, and one that borrows them
//! ([`DeltaBatch::push`]) one clone of each tuple. The engine builds no run
//! for a single event: it reads the event's tuple in place, as one
//! [`DeltaEntry`] that borrows it.

use crate::delta::{UpdateEvent, UpdateSign};
use dbtoaster_gmr::{FastMap, Value};

/// One key of a per-relation delta: the net multiplicity of all events in the
/// run that carried this tuple, plus how many events were folded in. A run
/// owns its keys, each the tuple of the first event that carried it, moved
/// in as the event held it; the engine reads a single event as one entry
/// whose key borrows the event's tuple (`DeltaEntry<&[Value]>`).
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaEntry<K = Vec<Value>> {
    /// The updated tuple.
    pub key: K,
    /// Net signed multiplicity (`+1` per insert, `−1` per delete, ring-added).
    /// Exactly `0.0` for a fully cancelled key — such entries stay in place
    /// (preserving arrival order and event accounting) and are skipped by the
    /// engine before any kernel runs.
    pub mult: f64,
    /// Number of stream events folded into this entry.
    pub events: u32,
    /// Position in the run of the last event folded into this entry, and
    /// that event's sign.
    pub last: (u32, UpdateSign),
}

impl<K> DeltaEntry<K> {
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

/// The GMR delta of one relation's events inside a [`DeltaBatch`] (one run
/// per `(relation, arity)`): a signed multiplicity map over the updated
/// tuples, with entries in first-arrival order.
#[derive(Clone, Debug, Default)]
pub struct RelationDelta {
    relation: String,
    arity: usize,
    entries: Vec<DeltaEntry>,
    /// Collapse index: a key's hash → the position of the latest entry with
    /// that hash, and per indexed entry the position of the one before it
    /// with the same hash ([`NONE`] ends the chain). Both are empty while
    /// the run holds at most one entry (see the module docs).
    index: FastMap<u64, u32>,
    chain: Vec<u32>,
    events: u64,
}

/// The end of a collapse-index chain.
const NONE: u32 = u32::MAX;

impl RelationDelta {
    /// The updated relation.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Tuple arity of this run (a same-relation event of another arity goes
    /// to another run, so one run is always arity-uniform).
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

    /// Events whose work vanished through ring cancellation: the difference
    /// between the events pushed and the single-tuple firings that remain.
    pub fn collapsed_events(&self) -> u64 {
        let firings: u64 = self.entries.iter().map(|e| e.firings() as u64).sum();
        self.events.saturating_sub(firings)
    }

    /// Rebuild this run into `out` without the entries `keep` refuses,
    /// keeping the rest in order. Returns the stream events the refused
    /// entries held. A kept entry keeps its last event's position, so the
    /// run's last event is the last one kept.
    pub fn retain_into(
        &self,
        out: &mut RelationDelta,
        mut keep: impl FnMut(&DeltaEntry) -> bool,
    ) -> u64 {
        out.reset(&self.relation, self.arity);
        for e in self.entries.iter().filter(|e| keep(e)) {
            out.fold(e.key.clone(), e.mult, e.events, e.last);
        }
        self.events - out.events
    }

    /// Re-initialize this (pooled) run for a new relation, keeping buffer
    /// capacity.
    fn reset(&mut self, relation: &str, arity: usize) {
        self.relation.clear();
        self.relation.push_str(relation);
        self.arity = arity;
        self.entries.clear();
        if !self.index.is_empty() {
            self.index.clear();
            self.chain.clear();
        }
        self.events = 0;
    }

    /// Ring-add `mult` and `events` into `key`'s entry, appending a new
    /// entry when the run has none (caller guarantees relation/arity match
    /// and that `last` comes after every event already folded). A run of at
    /// most one entry keeps no collapse index: the second key is compared
    /// with the first, and both are indexed only when they differ; from then
    /// on, one hash of the key either way. The index holds hashes and
    /// positions, not keys: a new key moves into its entry uncloned.
    fn fold(&mut self, key: Vec<Value>, mult: f64, events: u32, last: (u32, UpdateSign)) {
        use std::hash::BuildHasher;
        self.events += events as u64;
        let n = self.entries.len() as u32;
        let found = match n {
            0 => None,
            1 if self.entries[0].key == key => Some(0),
            _ => {
                if n == 1 {
                    let first = self.index.hasher().hash_one(&self.entries[0].key);
                    self.index.insert(first, 0);
                    self.chain.push(NONE);
                }
                let hash = self.index.hasher().hash_one(&key);
                let head = self.index.entry(hash).or_insert(NONE);
                let mut at = *head;
                while at != NONE && self.entries[at as usize].key != key {
                    at = self.chain[at as usize];
                }
                if at == NONE {
                    self.chain.push(std::mem::replace(head, n));
                }
                (at != NONE).then_some(at)
            }
        };
        let Some(i) = found else {
            let entry = DeltaEntry {
                key,
                mult,
                events,
                last,
            };
            self.entries.push(entry);
            return;
        };
        let e = &mut self.entries[i as usize];
        e.mult += mult;
        e.events += events;
        e.last = last;
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

    /// Fold one event into the batch: into the run of its relation and
    /// arity, wherever it is, or a new run when there is none. Insert/delete
    /// events of one relation share a run — that is what lets opposite-sign
    /// same-key events cancel.
    pub fn push(&mut self, event: &UpdateEvent) {
        self.push_key(&event.relation, event.tuple.clone(), event.sign);
    }

    /// [`DeltaBatch::push`] taking the event by value: the event's tuple
    /// *is* the delta key, moved in untouched — no copy, no allocation — for
    /// producers that own their events (the serving writer's drained
    /// micro-batches, WAL replay records).
    pub fn push_owned(&mut self, event: UpdateEvent) {
        self.push_key(&event.relation, event.tuple, event.sign);
    }

    /// Clear the batch and fold `events` into it by value
    /// ([`DeltaBatch::push_owned`]): how the serving writer builds each
    /// drained micro-batch and WAL replay each logged record. A recycled
    /// batch refilled with events of the shapes it held before allocates
    /// nothing.
    pub fn refill(&mut self, events: impl IntoIterator<Item = UpdateEvent>) {
        self.clear();
        for e in events {
            self.push_owned(e);
        }
    }

    /// [`DeltaBatch::push`] of an event given as its parts, the tuple already
    /// a key.
    fn push_key(&mut self, relation: &str, key: Vec<Value>, sign: UpdateSign) {
        let run = self.run_for(relation, key.len());
        let at = run.events as u32;
        run.fold(key, sign.multiplier(), 1, (at, sign));
        self.events += 1;
    }

    /// The run an event of `(relation, arity)` folds into, begun when the
    /// batch has none: the one routine behind every push.
    fn run_for(&mut self, relation: &str, arity: usize) -> &mut RelationDelta {
        let holds = |r: &RelationDelta| r.relation == relation && r.arity == arity;
        let found = self.runs[..self.live].iter().position(holds);
        let i = found.unwrap_or_else(|| {
            if self.live == self.runs.len() {
                self.runs.push(RelationDelta::default());
            }
            self.runs[self.live].reset(relation, arity);
            self.live += 1;
            self.live - 1
        });
        &mut self.runs[i]
    }

    /// The batch's runs, in the order their relations first appear.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_gmr::{Gmr, Schema};

    /// Sign and tuple of the last event pushed into `run`: the entry whose
    /// last event came latest.
    fn last_event(run: &RelationDelta) -> Option<(UpdateSign, &[Value])> {
        let e = run.entries().iter().max_by_key(|e| e.last.0)?;
        Some((e.last.1, &e.key))
    }

    fn ins(rel: &str, vals: &[i64]) -> UpdateEvent {
        UpdateEvent::insert(rel, vals.iter().map(|&v| Value::long(v)).collect())
    }

    fn del(rel: &str, vals: &[i64]) -> UpdateEvent {
        UpdateEvent::delete(rel, vals.iter().map(|&v| Value::long(v)).collect())
    }

    /// One run per `(relation, arity)`, in first-appearance order, each
    /// event folded into its pair's run wherever it comes.
    #[test]
    fn runs_group_by_relation_and_arity() {
        let events = [
            ins("R", &[1, 2]),
            ins("R", &[3, 4]),
            ins("S", &[1]),
            ins("R", &[5, 6]),
            ins("R", &[7]), // same relation, different arity: another run
        ];
        let b = DeltaBatch::from_events(&events);
        assert_eq!(b.events(), 5);
        let runs = b.runs();
        let shapes: Vec<_> = runs.iter().map(|r| (r.relation(), r.arity())).collect();
        assert_eq!(shapes, [("R", 2), ("S", 1), ("R", 1)]);
        assert_eq!((runs[0].entries().len(), runs[0].events()), (3, 3));
        // `last` counts within the run: R's third event of arity 2.
        assert_eq!(runs[0].entries()[2].last, (2, UpdateSign::Insert));
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
        let (sign, key) = last_event(run).unwrap();
        assert_eq!(sign, UpdateSign::Delete);
        assert_eq!(key, &[Value::long(1)]);
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
        let schema = || Schema::new(["A", "B"]);
        let mut batch_gmr = Gmr::new(schema());
        for e in b.runs()[0].entries() {
            batch_gmr.add_tuple(e.key.clone(), e.mult);
        }
        // Ring-sum the per-event singleton deltas.
        let mut sum = Gmr::new(schema());
        for e in &events {
            sum.add_tuple(e.tuple.clone(), e.sign.multiplier());
        }
        assert!(batch_gmr.equivalent(&sum, 0.0));
    }

    /// Events of one relation cancel across the other relations' events
    /// between them, and the run's last event is its relation's last.
    #[test]
    fn interleaved_events_fold_into_their_relations_run_and_cancel() {
        let events = [
            ins("R", &[1, 2]),
            ins("S", &[7]),
            del("R", &[1, 2]),
            ins("R", &[3, 4]),
            ins("S", &[7]),
        ];
        let b = DeltaBatch::from_events(&events);
        let runs = b.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].relation(), runs[0].events()), ("R", 3));
        assert_eq!(runs[0].entries()[0].mult, 0.0);
        assert_eq!(runs[0].entries()[1].mult, 1.0);
        assert_eq!(runs[0].collapsed_events(), 2);
        assert_eq!(runs[1].relation(), "S");
        assert_eq!(runs[1].entries()[0].mult, 2.0);
        let (sign, key) = last_event(&runs[0]).unwrap();
        assert_eq!(sign, UpdateSign::Insert);
        assert_eq!(key, &[Value::long(3), Value::long(4)]);
    }

    /// A run of one entry hashes nothing; a second event of the same key
    /// still folds into it, and a second key indexes both.
    #[test]
    fn a_one_entry_run_keeps_no_collapse_index() {
        let mut b = DeltaBatch::from_events(&[ins("R", &[1, 2])]);
        assert!(b.runs()[0].index.is_empty());
        b.push(&del("R", &[1, 2]));
        let run = &b.runs()[0];
        assert!(run.index.is_empty());
        assert_eq!(run.entries().len(), 1);
        assert_eq!((run.entries()[0].mult, run.entries()[0].events), (0.0, 2));
        assert_eq!(last_event(run).unwrap().0, UpdateSign::Delete);
        b.push(&ins("R", &[3, 4]));
        b.push(&ins("R", &[1, 2]));
        let run = &b.runs()[0];
        assert_eq!(run.index.len(), 2);
        assert_eq!(run.entries()[0].mult, 1.0);
        assert_eq!(run.events(), 4);
        assert_eq!(
            last_event(run).unwrap().1,
            &[Value::long(1), Value::long(2)]
        );
        // A pooled run that was indexed starts over without its index.
        b.clear();
        b.push(&ins("R", &[5, 6]));
        assert!(b.runs()[0].index.is_empty());
    }

    /// The collapse index holds hashes: two distinct keys of one
    /// collapse-index hash chain and fold apart, each into its own entry,
    /// whether the batch clones them (`push`) or takes them (`refill`). The
    /// second key is built to collide under the FxHash steps (the length,
    /// then one word per value).
    #[test]
    fn colliding_keys_keep_their_own_entries() {
        use std::hash::BuildHasher;
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        let prefix = |a: f64| step(step(0, 2), a.to_bits()).rotate_left(5);
        let (a, b) = (1.5f64, 2.5f64);
        let (a2, b2) = (3..)
            .map(|i| i as f64 + 0.5)
            .map(|a2| (a2, f64::from_bits(b.to_bits() ^ prefix(a) ^ prefix(a2))))
            .find(|(_, b2)| b2.is_finite() && *b2 != 0.0)
            .unwrap();
        let key = |x: f64, y: f64| vec![Value::double(x), Value::double(y)];
        let (k1, k2, k3) = (key(a, b), key(a2, b2), key(9.5, 9.5));
        let events = [
            UpdateEvent::insert("R", k1.clone()),
            UpdateEvent::insert("R", k2.clone()),
            UpdateEvent::delete("R", k1.clone()),
            UpdateEvent::insert("R", k2.clone()),
            UpdateEvent::insert("R", k3.clone()),
        ];
        let mut owned = DeltaBatch::new();
        owned.refill(events.iter().cloned());
        for b in [DeltaBatch::from_events(&events), owned] {
            let run = &b.runs()[0];
            let hash = |k: &Vec<Value>| run.index.hasher().hash_one(k);
            assert_eq!(hash(&k1), hash(&k2), "the keys collide");
            assert_ne!(k1, k2);
            let entries: Vec<_> = run.entries().iter().map(|e| (&e.key, e.mult)).collect();
            assert_eq!(entries, [(&k1, 0.0), (&k2, 2.0), (&k3, 1.0)]);
            assert_eq!(run.index.len(), 2);
        }
    }

    /// A refilled batch takes each entry's key from the first event that
    /// carried it, the very allocation that event held, and drops a later
    /// event's tuple into the entry it folds into; `retain_into` and the
    /// last event read those owned keys as they read pushed ones. Wide rows
    /// (arity 8 and 5, like Lineitem and Orders), both signs, a pair that
    /// cancels.
    #[test]
    fn an_owned_events_tuple_is_its_entrys_key() {
        let row = |k: i64, arity: i64| (0..arity).map(|c| Value::long(10 * k + c)).collect();
        let events = vec![
            UpdateEvent::insert("L", row(1, 8)),
            UpdateEvent::insert("O", row(1, 5)),
            UpdateEvent::delete("L", row(2, 8)),
            UpdateEvent::insert("L", row(3, 8)),
            UpdateEvent::delete("L", row(1, 8)), // cancels the first
            UpdateEvent::delete("O", row(4, 5)),
            UpdateEvent::insert("O", row(1, 5)), // folds into the second
        ];
        let pushed = DeltaBatch::from_events(&events);
        let at = |i: usize| events[i].tuple.as_ptr();
        let (lineitem, orders) = ([at(0), at(2), at(3)], [at(1), at(5)]);
        let mut batch = DeltaBatch::new();
        batch.refill(events);
        let keys = |r: &RelationDelta| {
            r.entries()
                .iter()
                .map(|e| e.key.as_ptr())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&batch.runs()[0]), lineitem);
        assert_eq!(keys(&batch.runs()[1]), orders);
        for (want, got) in pushed.runs().iter().zip(batch.runs()) {
            assert_same_run(want, got);
        }

        let run = &batch.runs()[0];
        assert_eq!((run.entries()[0].mult, run.collapsed_events()), (0.0, 2));
        assert_eq!(last_event(run), Some((UpdateSign::Delete, &row(1, 8)[..])));
        let mut out = RelationDelta::default();
        let refused = run.retain_into(&mut out, |e| e.key != row(3, 8));
        assert_eq!((refused, out.events(), out.entries().len()), (1, 3, 2));
        assert_eq!(last_event(&out), Some((UpdateSign::Delete, &row(1, 8)[..])));
        let refused = run.retain_into(&mut out, |e| e.key != row(1, 8));
        assert_eq!((refused, out.events(), out.entries().len()), (2, 2, 2));
        assert_eq!(last_event(&out), Some((UpdateSign::Insert, &row(3, 8)[..])));
        let run = &batch.runs()[1];
        assert_eq!(run.retain_into(&mut out, |_| true), 0);
        assert_same_run(run, &out);
        assert_eq!(last_event(&out), Some((UpdateSign::Insert, &row(1, 5)[..])));
        assert_eq!(out.entries()[0].mult, 2.0);
    }

    /// A run's entry is six words: its `Vec` key, the multiplicity, the
    /// event count and the last event (`dbtoaster-gmr` pins `Value` and
    /// `Tuple` the same way).
    #[test]
    fn a_delta_entry_is_six_words() {
        assert_eq!(std::mem::size_of::<DeltaEntry>(), 48);
    }

    /// A one-entry run folds a later event of its key by comparison, without
    /// an index, across another relation's event, and the last event is the
    /// later one.
    #[test]
    fn an_interleaved_one_entry_run_re_anchors_the_last_event() {
        let events = [ins("R", &[1, 2]), ins("S", &[7]), del("R", &[1, 2])];
        let b = DeltaBatch::from_events(&events);
        let r = &b.runs()[0];
        assert_eq!((r.entries().len(), r.events()), (1, 2));
        assert!(r.index.is_empty());
        let (sign, key) = last_event(r).unwrap();
        assert_eq!(sign, UpdateSign::Delete);
        assert_eq!(key, &[Value::long(1), Value::long(2)]);
        assert_eq!(r.entries()[0].mult, 0.0);
    }

    /// Refused entries leave, with their events, and the last event kept is
    /// the run's last event.
    #[test]
    fn retain_into_drops_refused_entries_and_their_events() {
        let events = [
            ins("R", &[1, 2]),
            del("R", &[3, 4]),
            ins("R", &[9, 9]),
            ins("R", &[1, 2]),
            ins("S", &[9, 9]),
            ins("R", &[9, 9]),
            ins("S", &[5, 5]),
        ];
        let b = DeltaBatch::from_events(&events);
        let mut out = RelationDelta::default();
        let nines = |e: &DeltaEntry| e.key == [Value::long(9), Value::long(9)];
        let refused = b.runs()[0].retain_into(&mut out, |e| !nines(e));
        assert_eq!((refused, out.events()), (2, 3));
        assert_eq!((out.relation(), out.entries().len()), ("R", 2));
        assert_eq!(out.entries()[0].mult, 2.0);
        let (sign, key) = last_event(&out).unwrap();
        assert_eq!(
            (sign, key),
            (UpdateSign::Insert, &[Value::long(1), Value::long(2)][..])
        );
        let refused = b.runs()[1].retain_into(&mut out, |e| !nines(e));
        assert_eq!((refused, out.relation(), out.events()), (1, "S", 1));
        // A run left empty holds no event.
        let refused = b.runs()[1].retain_into(&mut out, |_| false);
        assert_eq!((refused, out.events()), (2, 0));
        assert!(out.entries().is_empty() && last_event(&out).is_none());
        // The run's last event, refused: the one before it is kept.
        let b = DeltaBatch::from_events(&events[..3]);
        b.runs()[0].retain_into(&mut out, |e| !nines(e));
        let (sign, key) = last_event(&out).unwrap();
        assert_eq!(
            (sign, key),
            (UpdateSign::Delete, &[Value::long(3), Value::long(4)][..])
        );
    }

    /// Assert two runs are the same run, entry for entry: relation, arity,
    /// keys, multiplicity bits, events, last events and collapses.
    fn assert_same_run(want: &RelationDelta, got: &RelationDelta) {
        let run = |r: &RelationDelta| {
            let last = last_event(r).map(|(sign, key)| (sign, key.to_vec()));
            let collapsed = r.collapsed_events();
            (
                r.relation().to_owned(),
                r.arity(),
                r.events(),
                last,
                collapsed,
            )
        };
        assert_eq!(run(want), run(got));
        assert_eq!(
            want.entries().len(),
            got.entries().len(),
            "{}",
            want.relation()
        );
        for (a, b) in want.entries().iter().zip(got.entries()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.mult.to_bits(), b.mult.to_bits(), "{:?}", a.key);
            assert_eq!((a.events, a.last), (b.events, b.last), "{:?}", a.key);
        }
    }

    /// Refill the pooled `batch` with `events` and assert each run is the
    /// batch of its `(relation, arity)`'s events alone, the runs in the
    /// order their pairs first appear, and no events lost.
    fn assert_runs_are_per_relation_batches(events: &[UpdateEvent], batch: &mut DeltaBatch) {
        batch.refill(events.iter().cloned());
        let pair = |e: &UpdateEvent| (e.relation.clone(), e.tuple.len());
        let mut pairs: Vec<(String, usize)> = Vec::new();
        for p in events.iter().map(pair) {
            if !pairs.contains(&p) {
                pairs.push(p);
            }
        }
        let runs = batch
            .runs()
            .iter()
            .map(|r| (r.relation().to_owned(), r.arity()));
        assert_eq!(runs.collect::<Vec<_>>(), pairs);
        for run in batch.runs() {
            let own = events
                .iter()
                .filter(|e| e.relation == run.relation() && e.tuple.len() == run.arity());
            let alone = DeltaBatch::from_events(own);
            assert_eq!(alone.runs().len(), 1);
            assert_same_run(&alone.runs()[0], run);
        }
        assert_eq!(batch.events(), events.len() as u64);
    }

    /// Every event folds into its `(relation, arity)` run wherever it comes:
    /// each run equals the batch of its pair's events alone — interleaved
    /// relations, a pair cancelling across another relation's events, two
    /// arities of one relation, and a pooled batch reused after `clear()`.
    #[test]
    fn each_run_is_the_batch_of_its_relations_events_alone() {
        let mut batch = DeltaBatch::new();
        let interleaved = [
            ins("O", &[1, 10]),
            ins("L", &[1, 5]),
            ins("L", &[1, 6]),
            ins("O", &[2, 20]),
            ins("L", &[2, 5]),
            ins("L", &[1, 5]),
            del("O", &[1, 10]),
            ins("L", &[2, 7]),
        ];
        assert_runs_are_per_relation_batches(&interleaved, &mut batch);
        let lineitem = &batch.runs()[1];
        assert_eq!((lineitem.relation(), lineitem.events()), ("L", 5));
        assert_eq!(lineitem.entries()[0].mult, 2.0);
        // `last` counts within the relation: the last L event is its fifth.
        assert_eq!(lineitem.entries()[3].last, (4, UpdateSign::Insert));
        assert_eq!(batch.runs()[0].entries()[0].mult, 0.0);

        let cancelling = [
            ins("R", &[1, 2]),
            ins("S", &[7]),
            del("R", &[1, 2]),
            del("S", &[7]),
            ins("R", &[3, 4]),
        ];
        assert_runs_are_per_relation_batches(&cancelling, &mut batch);
        assert_eq!(batch.collapsed_events(), 4);
        assert_eq!(last_event(&batch.runs()[0]).unwrap().0, UpdateSign::Insert);

        let arities = [
            ins("R", &[1, 2]),
            ins("R", &[1]),
            ins("R", &[1, 2]),
            del("R", &[1]),
            ins("R", &[3]),
        ];
        assert_runs_are_per_relation_batches(&arities, &mut batch);
        let shapes: Vec<_> = batch
            .runs()
            .iter()
            .map(|r| (r.arity(), r.events()))
            .collect();
        assert_eq!(shapes, [(2, 2), (1, 3)]);

        // A pseudo-random interleaving of three relations over a few keys,
        // cut into batches of every size from 1 to 40, the pooled batch
        // reused after `clear()`.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n) as i64
        };
        let events: Vec<UpdateEvent> = (0..820)
            .map(|_| {
                let rel = ["A", "B", "C"][next(3) as usize];
                let key = [next(4), next(3), next(2)];
                let key = &key[..1 + next(2) as usize];
                match next(3) {
                    0 => del(rel, key),
                    _ => ins(rel, key),
                }
            })
            .collect();
        let mut at = 0;
        for size in (1..=40).cycle() {
            if at >= events.len() {
                break;
            }
            let chunk = &events[at..(at + size).min(events.len())];
            assert_runs_are_per_relation_batches(chunk, &mut batch);
            at += chunk.len();
        }
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
