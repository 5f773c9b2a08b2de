//! Ordered secondary indexes: one sorted, sum-annotated run per group.
//!
//! A secondary index whose mask leaves exactly one key column free can be
//! declared *ordered* on that column ([`crate::store::ViewMap::declare_ordered`];
//! the compiler declares it for every map a trigger kernel reads through range
//! sums — see `dbtoaster_agca::plan`). Instead of a hash bucket of full keys,
//! each group then holds its entries as `(band key, multiplicity)` pairs
//! sorted by band key, cut into blocks of about `√n` entries, with running
//! sums of the multiplicities inside every block and in front of every block.
//!
//! * **Range sum** — `Σ multiplicity over lo ≤ key < hi` is two binary
//!   searches (block, then entry) per end and one subtraction: `O(log n)`.
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
//! Until then the caller traverses (`OrderedIndex::for_each_key`).

use dbtoaster_agca::plan::EXACT_INT_BOUND;
use dbtoaster_gmr::{FastMap, Tuple, Value};

/// Blocks are never cut smaller than this, so small groups stay one block.
const MIN_BLOCK: usize = 16;

/// Map-slot footprint of one stored tuple (the cost model of
/// [`crate::store::ViewMap::approx_bytes`]): the inline tuple plus hash-table
/// overhead, plus the shared value slab of a spilled one.
pub(crate) fn tuple_slot_bytes(t: &Tuple) -> usize {
    let spill = if t.is_inline() {
        0
    } else {
        t.len() * std::mem::size_of::<Value>() + 16
    };
    std::mem::size_of::<Tuple>() + 16 + spill
}

/// The band key of `v`, when it can be one: a finite, non-zero,
/// integer-valued number of magnitude ≤ 2^53 (zero is out because `-0.0` and
/// `+0.0` are one key but two positions in a total order).
fn band_key(v: &Value) -> Option<f64> {
    let k = match v {
        Value::Long(l) if l.unsigned_abs() <= 1 << 53 => *l as f64,
        Value::Double(d) => *d,
        _ => return None,
    };
    (k.fract() == 0.0 && k != 0.0 && k.abs() <= EXACT_INT_BOUND).then_some(k)
}

/// The contribution of a multiplicity to the running sums, when it is exact.
fn exact_mult(m: f64) -> Option<i64> {
    (m.fract() == 0.0 && m.abs() < EXACT_INT_BOUND).then_some(m as i64)
}

/// Number of comparisons a binary search over `n` sorted items makes.
fn search_steps(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
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
            let all = self.blocks.last().map_or(0, |b| {
                b.before
                    .wrapping_add(b.entries.last().map_or(0, |e| e.prefix))
            });
            return (if x < 0.0 { 0 } else { all }, 0);
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
    pub(crate) fn set(&mut self, group: Tuple, full: &Tuple, mult: f64) {
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
                    self.bytes -= tuple_slot_bytes(full);
                }
            }
            None => {
                if run.rogue.insert(full.clone(), ()).is_none() {
                    self.bytes += tuple_slot_bytes(full);
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
        if !run.rogue.is_empty()
            || run.inexact != 0
            || run.abs_sum >= 1 << 53
            || bound_mag + run.max_abs_key() >= EXACT_INT_BOUND
        {
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
