//! Ordered secondary indexes: one sorted, sum-annotated run per group.
//!
//! A secondary index whose mask leaves exactly one key column free can be
//! declared *ordered* on that column ([`crate::store::ViewMap::declare_ordered`];
//! the compiler declares it for every map a trigger kernel reads through range
//! sums, quantile searches or cut walks — see `dbtoaster_agca::plan`). On a
//! one-column map the mask is `0`: one group, the whole map. Instead of a
//! hash group of free columns, each group then holds its entries as `(band
//! key, multiplicity)` pairs sorted by band key, cut into blocks of about
//! `√n` entries, with running sums of the multiplicities inside every block
//! and in front of every block.
//!
//! * **Range sum** — `Σ multiplicity over lo ≤ key < hi` is two binary
//!   searches (block, then entry) per end and one subtraction: `O(log n)`.
//! * **Flip search** — where a filter on the band sums above (or below) each
//!   key flips, when those sums are monotone: a binary search over the
//!   blocks' running sums, then over one block's, evaluating the filter on
//!   each cell's sum: `O(log n)` evaluations (`Run::cut`).
//! * **Interval walk** — the entries of one key interval in key order: a
//!   search for the first, then one step per entry (`Run::walk`).
//! * **Write** — one binary search, one insertion into a block and a fix-up
//!   of the running sums behind it: `O(√n)` amortized (a block splits at
//!   twice the target size; the run is re-cut when it holds four times the
//!   blocks its length calls for, which takes `Θ(n)` writes to bring about).
//! * **Memory** — the group key once, then 24 bytes per entry (key,
//!   multiplicity, running sum) plus one `Vec` header per block.
//!
//! ## Exactness
//!
//! A range sum read off running sums adds the multiplicities in a different
//! order than a traversal would, so it is only handed out where every order
//! gives the same bits: the running sums are kept in (wrapping) `i64`
//! arithmetic over the entries that are *exact* — band key a finite, non-zero,
//! integer-valued number of magnitude ≤ 2^53, multiplicity an integer of
//! magnitude < 2^53 — and a group answers only while it holds no other entry
//! and `Σ|multiplicity| < 2^53`. The offenders are counted, not latched: an
//! inexact multiplicity stays in the run (contributing nothing to the sums),
//! a key that cannot be a band key is set aside with its full tuple, and the
//! group resumes answering with the write that removes the last of them.
//! Until then the caller traverses (`OrderedIndex::for_each_key`). A flip
//! search needs monotone sums besides: the group holds no negative net
//! multiplicity exactly when its exact `Σ multiplicity` equals its
//! `Σ|multiplicity|`, both of which the run keeps. An interval walk hands out
//! keys and multiplicities for a caller that sums `key × multiplicity`, so it
//! answers only where every such sum is exact in any order: `max|key| ·
//! Σ|multiplicity| < 2^53`. The guards are `dbtoaster_agca::plan`'s
//! [`band_key`] and [`exact_mult`].

use dbtoaster_agca::plan::{band_key, exact_mult, search_steps, EXACT_INT_BOUND};
use dbtoaster_gmr::tuple::INLINE_CAP;
use dbtoaster_gmr::{FastMap, Tuple, Value};

/// Blocks are never cut smaller than this, so small groups stay one block.
const MIN_BLOCK: usize = 16;

/// Map-slot footprint of one stored tuple of `arity` values (the cost model
/// of [`crate::store::ViewMap::approx_bytes`]): the inline tuple plus
/// hash-table overhead, plus the shared value slab of a spilled one (arity
/// past `INLINE_CAP`; every tuple of a view has its arity, so every key of
/// a view costs the same).
pub(crate) fn slot_bytes(arity: usize) -> usize {
    let spill = if arity <= INLINE_CAP {
        0
    } else {
        arity * std::mem::size_of::<Value>() + 16
    };
    std::mem::size_of::<Tuple>() + 16 + spill
}

/// [`slot_bytes`] of `t`'s arity.
pub(crate) fn tuple_slot_bytes(t: &Tuple) -> usize {
    slot_bytes(t.len())
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    key: f64,
    mult: f64,
    /// Σ exact multiplicities of this block's entries up to and including
    /// this one.
    prefix: i64,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Block {
    /// Σ exact multiplicities of all earlier blocks.
    before: i64,
    /// Never empty, ascending by key.
    entries: Vec<Entry>,
}

impl Block {
    /// Σ exact multiplicities of this block and every earlier one.
    fn end(&self) -> i64 {
        self.before
            .wrapping_add(self.entries.last().map_or(0, |e| e.prefix))
    }
}

/// One group of an ordered index.
#[derive(Clone, Debug, Default)]
struct Run {
    blocks: Vec<Block>,
    /// Entries in `blocks`.
    len: usize,
    /// Entries in `blocks` whose multiplicity is not exact.
    inexact: usize,
    /// Σ|multiplicity| over the exact entries.
    abs_sum: u128,
    /// Full keys of the group's entries whose band column cannot be a band
    /// key (the unit value map is used as a hash set).
    rogue: FastMap<Tuple, ()>,
}

impl Run {
    fn is_empty(&self) -> bool {
        self.len == 0 && self.rogue.is_empty()
    }

    /// Entries per block this run's length calls for.
    fn target(&self) -> usize {
        ((self.len as f64).sqrt() as usize).max(MIN_BLOCK)
    }

    /// Set the multiplicity of `key` (`0.0` removes it).
    fn set(&mut self, key: f64, mult: f64) {
        if self.blocks.is_empty() {
            if mult == 0.0 {
                return;
            }
            self.blocks.push(Block::default());
        }
        // The last block that starts at or before `key` (the first otherwise).
        let b = self
            .blocks
            .partition_point(|blk| blk.entries.first().is_some_and(|e| e.key <= key))
            .saturating_sub(1);
        let block = &mut self.blocks[b];
        let i = block.entries.partition_point(|e| e.key < key);
        let old = match block.entries.get_mut(i).filter(|e| e.key == key) {
            Some(e) if mult == 0.0 => {
                let old = e.mult;
                block.entries.remove(i);
                self.len -= 1;
                old
            }
            Some(e) => std::mem::replace(&mut e.mult, mult),
            None if mult == 0.0 => return,
            None => {
                let prefix = i.checked_sub(1).map_or(0, |p| block.entries[p].prefix);
                block.entries.insert(i, Entry { key, mult, prefix });
                self.len += 1;
                0.0
            }
        };
        let mut delta = 0i64;
        for (m, sign) in [(old, -1i64), (mult, 1)] {
            match exact_mult(m) {
                Some(x) => {
                    delta = delta.wrapping_add(sign * x);
                    let abs = u128::from(x.unsigned_abs());
                    self.abs_sum = if sign < 0 {
                        self.abs_sum - abs
                    } else {
                        self.abs_sum + abs
                    };
                }
                // `m` is a stored (non-zero) multiplicity: zero is exact.
                None if sign < 0 => self.inexact -= 1,
                None => self.inexact += 1,
            }
        }
        for e in &mut block.entries[i..] {
            e.prefix = e.prefix.wrapping_add(delta);
        }
        let block_len = block.entries.len();
        for later in &mut self.blocks[b + 1..] {
            later.before = later.before.wrapping_add(delta);
        }
        let target = self.target();
        if block_len == 0 {
            self.blocks.remove(b);
        } else if block_len > 2 * target {
            self.split(b);
        }
        if self.blocks.len() > 4 * (self.len / target + 1) {
            self.recut(target);
        }
    }

    /// Cut block `b` in half.
    fn split(&mut self, b: usize) {
        let block = &mut self.blocks[b];
        let mut tail = block.entries.split_off(block.entries.len() / 2);
        let head_sum = block.entries.last().map_or(0, |e| e.prefix);
        for e in &mut tail {
            e.prefix = e.prefix.wrapping_sub(head_sum);
        }
        let before = block.before.wrapping_add(head_sum);
        self.blocks.insert(
            b + 1,
            Block {
                before,
                entries: tail,
            },
        );
    }

    /// Re-cut the whole run into blocks of `target` entries.
    fn recut(&mut self, target: usize) {
        let old = std::mem::take(&mut self.blocks);
        let mut before = 0i64;
        let mut block = Block::default();
        for e in old.into_iter().flat_map(|b| b.entries) {
            if block.entries.len() == target {
                before = before.wrapping_add(block.entries.last().map_or(0, |e| e.prefix));
                self.blocks.push(std::mem::take(&mut block));
                block.before = before;
                block.entries.reserve(target);
            }
            let prefix = block
                .entries
                .last()
                .map_or(0, |e| e.prefix)
                .wrapping_add(exact_mult(e.mult).unwrap_or(0));
            block.entries.push(Entry { prefix, ..e });
        }
        if !block.entries.is_empty() {
            self.blocks.push(block);
        }
    }

    /// `(Σ exact multiplicities of the keys below x, entries compared)`. An
    /// infinite `x` needs no search: nothing is below `-∞`, everything below
    /// `+∞`.
    fn sum_below(&self, x: f64) -> (i64, u64) {
        if x.is_infinite() {
            return (if x < 0.0 { 0 } else { self.total() }, 0);
        }
        let b = self
            .blocks
            .partition_point(|blk| blk.entries.first().is_some_and(|e| e.key < x));
        let Some(block) = b.checked_sub(1).map(|b| &self.blocks[b]) else {
            return (0, search_steps(self.blocks.len()));
        };
        // The block starts below `x`, so at least one entry is below it.
        let i = block.entries.partition_point(|e| e.key < x);
        (
            block.before.wrapping_add(block.entries[i - 1].prefix),
            search_steps(self.blocks.len()) + search_steps(block.entries.len()),
        )
    }

    /// Σ exact multiplicities of the whole run.
    fn total(&self) -> i64 {
        self.blocks.last().map_or(0, Block::end)
    }

    /// Inside the exactness contract: no set-aside key, no inexact
    /// multiplicity, `Σ|multiplicity| < 2^53`.
    fn exact(&self) -> bool {
        self.rogue.is_empty() && self.inexact == 0 && self.abs_sum < 1 << 53
    }

    /// The cut of a filter on the band sums of the run's cells: cell `j` of
    /// `n + 1` holds the loop keys with `j` run keys below them, and its band
    /// sum is the first `j` multiplicities (`upper`: the rest). On an exact,
    /// negative-free run the sums are monotone in `j`, so `passes` — the
    /// filter, evaluated on each sum as a double — flips at most once: a
    /// binary search over the blocks' running sums, then over the block's,
    /// finds the first entry whose cell fails where the first cell passes
    /// (or the reverse). Returns the passing loop keys as the run keys
    /// bounding them (infinite at the ends; `(+∞, -∞)` when none passes) and
    /// the sums evaluated.
    fn cut(&self, upper: bool, passes: &mut dyn FnMut(f64) -> bool) -> ((f64, f64), u64) {
        let total = self.total();
        let mut cell = |below: i64| passes((if upper { total - below } else { below }) as f64);
        let (first, last) = (cell(0), cell(total));
        let (inf, steps) = (f64::INFINITY, 2);
        if first == last {
            return (if first { (-inf, inf) } else { (inf, -inf) }, steps);
        }
        // The last entry's cell sums the whole run, and fails: a block and
        // an entry of it fail.
        let b = self.blocks.partition_point(|b| cell(b.end()) == first);
        let block = &self.blocks[b];
        let i = block
            .entries
            .partition_point(|e| cell(block.before.wrapping_add(e.prefix)) == first);
        let key = block.entries[i].key;
        let steps = steps + search_steps(self.blocks.len()) + search_steps(block.entries.len());
        (if first { (-inf, key) } else { (key, inf) }, steps)
    }

    /// Hand `visit` every `(key, multiplicity)` whose key lies in `[lo, hi)`
    /// — `(lo, hi]` when `hi_in` — in ascending key order. Returns the
    /// entries visited plus the comparisons that found the first.
    fn walk(&self, (lo, hi): (f64, f64), hi_in: bool, visit: &mut dyn FnMut(f64, f64)) -> u64 {
        let before = |k: f64| if hi_in { k <= lo } else { k < lo };
        let after = |k: f64| if hi_in { k > hi } else { k >= hi };
        let b = self
            .blocks
            .partition_point(|blk| blk.entries.last().is_some_and(|e| before(e.key)));
        let mut steps = search_steps(self.blocks.len());
        let Some(first) = self.blocks.get(b) else {
            return steps;
        };
        let start = first.entries.partition_point(|e| before(e.key));
        steps += search_steps(first.entries.len());
        let entries = first.entries[start..]
            .iter()
            .chain(self.blocks[b + 1..].iter().flat_map(|blk| &blk.entries));
        for e in entries.take_while(|e| !after(e.key)) {
            visit(e.key, e.mult);
            steps += 1;
        }
        steps
    }

    /// Largest `|key|` of the run (`0.0` when it holds none).
    fn max_abs_key(&self) -> f64 {
        let first = self.blocks.first().and_then(|b| b.entries.first());
        let last = self.blocks.last().and_then(|b| b.entries.last());
        first
            .into_iter()
            .chain(last)
            .fold(0.0, |m, e| m.max(e.key.abs()))
    }
}

/// One group as [`OrderedIndex::contents`] reports it: its key, the sorted
/// `(band key bits, multiplicity bits)` pairs of its run, and its set-aside
/// keys, sorted.
#[cfg(test)]
pub(crate) type GroupContents = (Tuple, Vec<(u64, u64)>, Vec<Tuple>);

/// One key of a group, as [`OrderedIndex::for_each_key`] hands it out.
pub(crate) enum GroupKey<'a> {
    /// The band-column value of an entry held in the sorted run (as a
    /// double; the primary map knows whether it was stored as a long).
    Band(f64),
    /// The full key of an entry whose band column cannot be a band key.
    Full(&'a Tuple),
}

/// An ordered secondary index: projected (bound-column) key → sorted run over
/// the one free column. See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct OrderedIndex {
    /// Position of the free (band) column in the full key.
    key_pos: usize,
    groups: FastMap<Tuple, Run>,
    /// Entries indexed, over all groups.
    entries: usize,
    /// Heap footprint, maintained per write.
    bytes: usize,
}

/// Per group: its key's map slot and the run header.
fn group_bytes(group: &Tuple) -> usize {
    tuple_slot_bytes(group) + std::mem::size_of::<Run>()
}

/// What the blocks of a run hold.
fn run_bytes(run: &Run) -> usize {
    run.len * std::mem::size_of::<Entry>() + run.blocks.len() * std::mem::size_of::<Block>()
}

impl OrderedIndex {
    /// Position of the band column in the full key.
    pub(crate) fn key_pos(&self) -> usize {
        self.key_pos
    }

    pub(crate) fn new(key_pos: usize) -> Self {
        OrderedIndex {
            key_pos,
            ..OrderedIndex::default()
        }
    }

    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Forget every entry (the index stays declared, and keeps its group
    /// table's capacity like the primary map keeps its own).
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.entries = 0;
        self.bytes = 0;
    }

    /// Mirror one primary-map write: `full` (whose bound columns project to
    /// `group`) now has multiplicity `mult`, `0.0` meaning it is gone.
    pub(crate) fn set(&mut self, group: Tuple, full: &[Value], mult: f64) {
        use std::collections::hash_map::Entry as Slot;
        let mut slot = match self.groups.entry(group) {
            Slot::Occupied(o) => o,
            Slot::Vacant(_) if mult == 0.0 => return,
            Slot::Vacant(v) => {
                self.bytes += group_bytes(v.key());
                v.insert_entry(Run::default())
            }
        };
        let run = slot.get_mut();
        let held = (run.len + run.rogue.len(), run_bytes(run));
        match band_key(&full[self.key_pos]) {
            Some(key) => run.set(key, mult),
            None if mult == 0.0 => {
                if run.rogue.remove(full).is_some() {
                    self.bytes -= slot_bytes(full.len());
                }
            }
            None => {
                if !run.rogue.contains_key(full) {
                    run.rogue.insert(Tuple::from(full), ());
                    self.bytes += slot_bytes(full.len());
                }
            }
        }
        self.entries = self.entries + run.len + run.rogue.len() - held.0;
        self.bytes = self.bytes + run_bytes(run) - held.1;
        if run.is_empty() {
            let (group, _) = slot.remove_entry();
            self.bytes -= group_bytes(&group);
        }
    }

    /// Answer `sums[i] = Σ multiplicity over ranges[i].0 ≤ band key <
    /// ranges[i].1` for the group `group`, where the range ends are integers
    /// (or infinite) and `bound_mag` bounds the magnitude of every number
    /// the caller's original comparisons went through. Returns the number of
    /// entries compared, or `None` — the caller traverses — when the group
    /// cannot answer exactly (see the module docs; `bound_mag + max|key|`
    /// reaching 2^53 would let the caller's own comparison round).
    pub(crate) fn range_sums(
        &self,
        group: &[Value],
        bound_mag: f64,
        ranges: &[(f64, f64)],
        sums: &mut [f64],
    ) -> Option<u64> {
        let Some(run) = self.groups.get(group) else {
            sums.fill(0.0);
            return Some(0);
        };
        if !run.exact() || bound_mag + run.max_abs_key() >= EXACT_INT_BOUND {
            return None;
        }
        let mut compared = 0;
        for (&(lo, hi), sum) in ranges.iter().zip(sums) {
            *sum = if lo < hi {
                let (below_hi, a) = run.sum_below(hi);
                let (below_lo, b) = run.sum_below(lo);
                compared += a + b;
                below_hi.wrapping_sub(below_lo) as f64
            } else {
                0.0
            };
        }
        Some(compared)
    }

    /// The cut of a quantile filter over the group `group` (see [`Run::cut`]):
    /// the passing loop keys' bounding run keys and the sums evaluated, or
    /// `None` — the caller filters row by row — when the group is outside
    /// the exactness contract or holds a negative net multiplicity (exactly
    /// when its `Σ multiplicity` falls short of its `Σ|multiplicity|`), which
    /// would make its band sums non-monotone. An absent group is empty.
    pub(crate) fn cut(
        &self,
        group: &[Value],
        upper: bool,
        passes: &mut dyn FnMut(f64) -> bool,
    ) -> Option<((f64, f64), u64)> {
        let empty;
        let run = match self.groups.get(group) {
            Some(run) => run,
            None => {
                empty = Run::default();
                &empty
            }
        };
        let negative_free = u128::try_from(run.total()).ok() == Some(run.abs_sum);
        (run.exact() && negative_free).then(|| run.cut(upper, passes))
    }

    /// Walk the entries of the group `group` whose key lies in `[lo, hi)` —
    /// `(lo, hi]` when `hi_in` — in key order (see [`Run::walk`]). `None` —
    /// the caller walks the primary map in its own order — unless every
    /// product of a key and a multiplicity of the group, and every sum of
    /// them, is an exact integer in any order: the group exact and
    /// `max|key| · Σ|multiplicity| < 2^53`.
    pub(crate) fn walk(
        &self,
        group: &[Value],
        interval: (f64, f64),
        hi_in: bool,
        visit: &mut dyn FnMut(f64, f64),
    ) -> Option<u64> {
        let Some(run) = self.groups.get(group) else {
            return Some(0);
        };
        let bound = run.max_abs_key() * run.abs_sum as f64;
        (run.exact() && bound < EXACT_INT_BOUND).then(|| run.walk(interval, hi_in, visit))
    }

    /// Hand every key of the group `group` to `visit`: the run in ascending
    /// band-key order, then the set-aside full keys.
    pub(crate) fn for_each_key(&self, group: &[Value], visit: &mut dyn FnMut(GroupKey<'_>)) {
        let Some(run) = self.groups.get(group) else {
            return;
        };
        for e in run.blocks.iter().flat_map(|b| &b.entries) {
            visit(GroupKey::Band(e.key));
        }
        for full in run.rogue.keys() {
            visit(GroupKey::Full(full));
        }
    }

    /// Recompute `(entries, bytes)` from what the index holds — what the
    /// maintained counters must equal.
    #[cfg(test)]
    pub(crate) fn recount(&self) -> (usize, usize) {
        self.groups.iter().fold((0, 0), |(n, bytes), (g, run)| {
            (
                n + run.len + run.rogue.len(),
                bytes
                    + group_bytes(g)
                    + run_bytes(run)
                    + run.rogue.keys().map(tuple_slot_bytes).sum::<usize>(),
            )
        })
    }

    /// Check every structural invariant of the index (tests): blocks
    /// non-empty and ascending, running sums equal to recomputed ones,
    /// offender counts and the maintained totals right.
    #[cfg(test)]
    pub(crate) fn check(&self) {
        assert_eq!((self.entries, self.bytes), self.recount());
        for run in self.groups.values() {
            assert!(!run.is_empty());
            let (mut before, mut last, mut len, mut inexact, mut abs) =
                (0i64, f64::NEG_INFINITY, 0, 0, 0u128);
            for block in &run.blocks {
                assert!(!block.entries.is_empty());
                assert_eq!(block.before, before);
                let mut prefix = 0i64;
                for e in &block.entries {
                    assert!(e.key > last && e.mult != 0.0);
                    last = e.key;
                    match exact_mult(e.mult) {
                        Some(x) => {
                            prefix = prefix.wrapping_add(x);
                            abs += u128::from(x.unsigned_abs());
                        }
                        None => inexact += 1,
                    }
                    assert_eq!(e.prefix, prefix);
                }
                before = before.wrapping_add(prefix);
                len += block.entries.len();
            }
            assert_eq!((run.len, run.inexact, run.abs_sum), (len, inexact, abs));
            assert!(run.blocks.len() <= 4 * (run.len / run.target() + 1));
        }
    }

    /// The logical contents, for comparing two indexes that were built along
    /// different write histories (tests).
    #[cfg(test)]
    pub(crate) fn contents(&self) -> Vec<GroupContents> {
        let mut out: Vec<_> = self
            .groups
            .iter()
            .map(|(g, run)| {
                let pairs = run
                    .blocks
                    .iter()
                    .flat_map(|b| &b.entries)
                    .map(|e| (e.key.to_bits(), e.mult.to_bits()))
                    .collect();
                let mut rogue: Vec<Tuple> = run.rogue.keys().cloned().collect();
                rogue.sort();
                (g.clone(), pairs, rogue)
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(group: i64, key: Value) -> (Tuple, Tuple) {
        let g: Tuple = [Value::long(group)].into_iter().collect();
        let f: Tuple = [Value::long(group), key].into_iter().collect();
        (g, f)
    }

    fn put(idx: &mut OrderedIndex, group: i64, key: Value, mult: f64) {
        let (g, f) = full(group, key);
        idx.set(g, &f, mult);
    }

    fn ask(idx: &OrderedIndex, group: i64, lo: f64, hi: f64) -> Option<f64> {
        let mut sums = [0.0];
        idx.range_sums(&[Value::long(group)], 0.0, &[(lo, hi)], &mut sums)
            .map(|_| sums[0])
    }

    /// A deterministic stream of inserts, updates and deletes, checked after
    /// every write against a plain sorted model.
    #[test]
    fn range_sums_match_a_model_under_inserts_updates_and_deletes() {
        let mut idx = OrderedIndex::new(1);
        let mut model: std::collections::BTreeMap<i64, f64> = Default::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..6000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Grow to a few hundred keys, then shrink to nothing.
            let key = 1 + (x % 700) as i64;
            let mult = if step < 3500 {
                ((x >> 32) % 9) as f64 - 4.0
            } else {
                0.0
            };
            put(&mut idx, 7, Value::long(key), mult);
            if mult == 0.0 {
                model.remove(&key);
            } else {
                model.insert(key, mult);
            }
            if step % 50 == 0 {
                idx.check();
                let (lo, hi) = ((x >> 20) % 700, (x >> 40) % 800);
                let want: f64 = model
                    .range(lo as i64..(hi as i64).max(lo as i64))
                    .map(|(_, m)| m)
                    .sum();
                assert_eq!(
                    ask(&idx, 7, lo as f64, hi as f64),
                    Some(want),
                    "step {step}"
                );
                let total: f64 = model.values().sum();
                assert_eq!(
                    ask(&idx, 7, f64::NEG_INFINITY, f64::INFINITY),
                    Some(total),
                    "step {step}"
                );
            }
        }
        for key in 1..=700 {
            put(&mut idx, 7, Value::long(key), 0.0);
        }
        idx.check();
        assert_eq!(idx.recount(), (0, 0));
    }

    /// The cut of `passes` over a sorted model of one group, cell by cell
    /// (see `Run::cut`).
    fn model_cut(model: &[(f64, f64)], upper: bool, passes: impl Fn(f64) -> bool) -> (f64, f64) {
        let total: f64 = model.iter().map(|e| e.1).sum();
        let cell = |below: f64| passes(if upper { total - below } else { below });
        let (first, inf) = (cell(0.0), f64::INFINITY);
        let mut below = 0.0;
        for &(key, m) in model {
            below += m;
            if cell(below) != first {
                return if first { (-inf, key) } else { (key, inf) };
            }
        }
        if first {
            (-inf, inf)
        } else {
            (inf, -inf)
        }
    }

    /// A deterministic stream of inserts, updates and deletes over one
    /// group, with the group key an empty tuple (a one-column map's mask-0
    /// index): after every few writes, cuts in both directions against a
    /// spread of thresholds, and walks of random intervals, closed at either
    /// end, equal a re-sort of the entries.
    #[test]
    fn cuts_and_walks_match_a_re_sort_under_inserts_and_deletes() {
        let mut idx = OrderedIndex::new(0);
        let mut model: std::collections::BTreeMap<i64, f64> = Default::default();
        let mut x = 0x2545f4914f6cdd1du64;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = 1 + (x % 500) as i64;
            let mult = match step < 2500 {
                true => ((x >> 32) % 5) as f64,
                false => 0.0,
            };
            let full: Tuple = [Value::long(key)].into_iter().collect();
            idx.set(Tuple::default(), &full, mult);
            match mult == 0.0 {
                true => drop(model.remove(&key)),
                false => drop(model.insert(key, mult)),
            }
            if step % 40 != 0 {
                continue;
            }
            idx.check();
            let sorted: Vec<(f64, f64)> = model.iter().map(|(&k, &m)| (k as f64, m)).collect();
            let total: f64 = sorted.iter().map(|e| e.1).sum();
            for share in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
                let c = (share * total).round();
                for upper in [false, true] {
                    let passes = |sum: f64| c > sum;
                    let got = idx.cut(&[], upper, &mut |sum| passes(sum));
                    let want = model_cut(&sorted, upper, passes);
                    assert_eq!(got.map(|g| g.0), Some(want), "step {step}, {c} > sum");
                }
            }
            let (lo, hi) = (((x >> 20) % 520) as f64, ((x >> 40) % 520) as f64);
            for hi_in in [false, true] {
                let mut seen = Vec::new();
                let visited = idx.walk(&[], (lo, hi), hi_in, &mut |k, m| seen.push((k, m)));
                let inside = |k: f64| match hi_in {
                    true => lo < k && k <= hi,
                    false => lo <= k && k < hi,
                };
                let want: Vec<_> = sorted.iter().copied().filter(|e| inside(e.0)).collect();
                assert_eq!(
                    seen, want,
                    "step {step}: ({lo}, {hi}) closed above: {hi_in}"
                );
                assert!(visited.unwrap() >= want.len() as u64);
            }
        }
        for key in model.into_keys() {
            let full: Tuple = [Value::long(key)].into_iter().collect();
            idx.set(Tuple::default(), &full, 0.0);
        }
        assert_eq!(idx.recount(), (0, 0));
    }

    /// A group refuses a cut while it holds a negative net multiplicity, an
    /// inexact multiplicity or a key that cannot be a band key, and a walk
    /// while it holds either of the last two or a key large enough that a
    /// sum of keys times multiplicities could round; each answers again
    /// once the offender is gone. An absent group is empty to both.
    #[test]
    fn offenders_suspend_cuts_and_walks_until_they_leave() {
        let mut idx = OrderedIndex::new(1);
        for (key, m) in [(10, 2.0), (20, 3.0), (30, 1.0)] {
            put(&mut idx, 1, Value::long(key), m);
        }
        let cut = |idx: &OrderedIndex| idx.cut(&[Value::long(1)], true, &mut |sum| 3.0 > sum);
        let walk = |idx: &OrderedIndex| {
            let mut total = 0.0;
            let all = (f64::NEG_INFINITY, f64::INFINITY);
            idx.walk(&[Value::long(1)], all, false, &mut |k, m| total += k * m)
                .map(|_| total)
        };
        let answers = |idx: &OrderedIndex| (cut(idx).map(|c| c.0), walk(idx));
        let clean = answers(&idx);
        assert_eq!(clean, (Some((20.0, f64::INFINITY)), Some(110.0)));
        let big = Value::long(1 << 51);
        for (key, mult, cuts, walks) in [
            (Value::long(15), -1.0, false, true),
            (Value::long(15), 0.5, false, false),
            (Value::double(0.5), 1.0, false, false),
            (Value::str("x"), 1.0, false, false),
            (big, 4.0, true, false),
        ] {
            put(&mut idx, 1, key.clone(), mult);
            let (c, w) = answers(&idx);
            assert_eq!((c.is_some(), w.is_some()), (cuts, walks), "{key} × {mult}");
            put(&mut idx, 1, key, 0.0);
            assert_eq!(answers(&idx), clean);
        }
        let absent = idx.cut(&[Value::long(9)], false, &mut |sum| sum < 1.0);
        assert_eq!(
            absent.map(|c| c.0),
            Some((f64::NEG_INFINITY, f64::INFINITY))
        );
        let mut seen = 0;
        let all = (f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(
            idx.walk(&[Value::long(9)], all, true, &mut |_, _| seen += 1),
            Some(0)
        );
        assert_eq!(seen, 0);
    }

    #[test]
    fn offenders_suspend_answers_until_they_leave() {
        let mut idx = OrderedIndex::new(1);
        put(&mut idx, 1, Value::long(10), 2.0);
        put(&mut idx, 1, Value::long(20), 3.0);
        assert_eq!(ask(&idx, 1, 0.0, 100.0), Some(5.0));
        // Each offender in turn: inexact multiplicities in the run, keys that
        // cannot be band keys set aside.
        let offenders: [(Value, f64); 8] = [
            (Value::long(15), 0.5),
            (Value::long(15), f64::NAN),
            (Value::long(15), f64::INFINITY),
            (Value::long(15), EXACT_INT_BOUND),
            (Value::double(0.5), 1.0),
            (Value::double(-0.0), 1.0),
            (Value::double(f64::NAN), 1.0),
            (Value::str("x"), 1.0),
        ];
        for (key, mult) in offenders {
            put(&mut idx, 1, key.clone(), mult);
            idx.check();
            assert_eq!(ask(&idx, 1, 0.0, 100.0), None, "{key} × {mult}");
            let mut seen = 0;
            idx.for_each_key(&[Value::long(1)], &mut |_| seen += 1);
            assert_eq!(seen, 3);
            // Another group is not affected.
            assert_eq!(ask(&idx, 2, 0.0, 100.0), Some(0.0));
            put(&mut idx, 1, key, 0.0);
            idx.check();
            assert_eq!(ask(&idx, 1, 0.0, 100.0), Some(5.0));
        }
        // Σ|m| reaching 2^53 suspends too, and lifts when it drops again.
        put(&mut idx, 1, Value::long(30), EXACT_INT_BOUND - 5.0);
        assert_eq!(ask(&idx, 1, 0.0, 100.0), None);
        put(&mut idx, 1, Value::long(30), EXACT_INT_BOUND - 6.0);
        assert_eq!(ask(&idx, 1, 0.0, 100.0), Some(EXACT_INT_BOUND - 1.0));
        // So does a bound the caller's comparison could not evaluate exactly.
        let mut sums = [0.0];
        assert_eq!(
            idx.range_sums(
                &[Value::long(1)],
                EXACT_INT_BOUND - 30.0,
                &[(0.0, 9.0)],
                &mut sums
            ),
            None
        );
    }
}
