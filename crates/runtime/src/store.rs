//! View storage: keyed multiplicity maps with secondary indexes.
//!
//! The runtime stores every materialized view (and, in the baseline modes, the base
//! relations) as a [`ViewMap`]: a hash map from key tuples to multiplicities, plus one
//! secondary index per partial-key binding pattern the compiled trigger statements
//! scan, declared before the first event. This mirrors Section 7.1 of the paper, where
//! the generated C++ addresses every map as a variable and gives it a Boost
//! Multi-Index container with one secondary index per binding pattern, fixed at
//! compile time.
//!
//! ## Hot-path design
//!
//! * **Maps by id** — a [`Database`] keeps its views in a vector, and a view's position
//!   is its [`MapId`], fixed when the view is declared. The engine resolves everything
//!   its per-event path touches — statement targets, stored base relations, the
//!   relations each kernel reads — to ids once, when it is built, and indexes the
//!   vector from then on. The name table serves the name-addressed API
//!   ([`Database::view`], [`Database::snapshot`], …) for cold callers.
//! * **Keys are [`Tuple`]s** — inline up to arity `INLINE_CAP` (3), spilled beyond it to
//!   one shared slab, hashed with the fast deterministic [`FastMap`] hasher. A write
//!   moves its key rather than copying it: a statement's buffered rows drain into the
//!   map (`ViewMap::apply_rows`), so a new key enters uncloned and a key the map
//!   already holds is dropped, the stored one kept, in one hash probe. What is copied
//!   is what a second holder keeps: the key into the snapshot write log (once per
//!   write, while the view is snapshotted), its free columns into a hash index when
//!   it is born, its group projection into an ordered index on every write, and a
//!   row applied more than once (an entry of net multiplicity above one) for each
//!   application but its last.
//! * **Cursor reads** — [`ViewMap::for_each`] streams *borrowed* `(&[Value], f64)`
//!   entries to a visitor; nothing on the read path clones a stored key. The
//!   collecting [`ViewMap::lookup`] remains for tests and cold callers.
//! * **Indexes are declared, not discovered** — [`ViewMap::declare_hash`] and
//!   [`ViewMap::declare_ordered`] build the index of one binding-pattern mask from the
//!   current contents, every write after keeps it current, and [`ViewMap::clear`]
//!   empties it and keeps it. The engine declares, from the compiled program, one index
//!   per `(map, mask)` some kernel scans (the compiler's `hash_indexes` and
//!   `ordered_indexes`), so no read ever builds one: reads take `&self` and change
//!   nothing, and a kernel may nest a scan of a view inside the visit of another scan
//!   of it. A scan of a mask nobody declared (a test, a cold caller) walks the map,
//!   filtering by the pattern.
//! * **Index maintenance pays only for what an index holds** — [`ViewMap::add`] makes
//!   one primary probe and clones no key, and the probe says whether the key was
//!   born, died or stayed. A hash index holds no multiplicities, so it is written
//!   only when a key is born (its free columns pushed onto the group, no search: the
//!   primary says the key is new) or dies (the group searched and the member
//!   removed); an ordered index keeps running sums of the multiplicities, so every
//!   write reaches it. A view with no index pays the probe alone.
//! * **Two index representations, one per mask** — the primary map holds every
//!   multiplicity and every full key once; an index links to its entries as the
//!   paper's multi-index containers do, it does not copy them. A *hash* index maps a
//!   projected key to its group of members' *free columns* (the key columns its mask
//!   leaves unbound), so a partial-pattern scan rebuilds each member's full key from
//!   the pattern and its free columns and probes the primary map for the stored key
//!   and its multiplicity: one probe per member visited. A group's size picks its
//!   form: the one member of an index with one free column is held inline, up to 16
//!   members are one flat vector searched linearly, a larger group a set, so a
//!   singleton group costs its table slot and not a table. An *ordered* index, for a
//!   mask that leaves one column free, maps a projected key to a run of
//!   `(free-column value, multiplicity)` sorted by that value with running sums,
//!   which answers [`ViewMap::range_sums`] and [`ViewMap::cut`] in `O(log n)`,
//!   [`ViewMap::walk_band`] in `O(log n)` plus the entries walked, and takes a write
//!   in `O(√n)` amortized (see the `ordered` module for the layout and the exactness
//!   contract); on a one-column view its mask is `0`, one group for the whole map.
//!   Scanning it rebuilds keys and probes the primary map as a hash scan does — the
//!   fallback path, not the one it is declared for. A mask has one index: an
//!   ordered declaration replaces a hash index of the same mask. Every rebuild (a
//!   hash or ordered scan, a fully bound probe) fills a buffer local to the call, on
//!   the stack up to eight columns, so it allocates nothing.
//! * **Cost model** — [`ViewMap::approx_bytes`] charges each primary entry its
//!   map-slot footprint (spilled — arity > 3 — tuples add their shared value
//!   slab); each hash-index group its table slot (its projected key and the
//!   group, where a primary slot has its multiplicity) plus its member buffer at
//!   what it holds: nothing for an inline member, 16 bytes per free-column value
//!   in a vector, for a set the table its size calls for (one tuple and one
//!   control byte per bucket, at most 7/8 full); and an ordered group its key
//!   once plus 24 bytes per entry and one `Vec` header per block. A group's
//!   form follows its size, so the charge depends only on what is held. Index
//!   footprints are maintained per write and every key of a view has its
//!   arity, so [`ViewMap::approx_bytes`] is `O(indexes)`. `Value` itself is 16
//!   bytes inline (a `Tuple` of up to three, 56); a string value is a one-word
//!   handle to a shared body, and dates are plain `yyyymmdd` longs, so the
//!   slab estimate does not double-count string storage. The snapshot
//!   buffers a view keeps are charged the same way but reported apart (on
//!   EXPLAIN ANALYZE and `/views`): `approx_bytes` is the live state. A
//!   shared table (below) charges each key once — its map slot — plus a
//!   value per member; its first member's readings carry the keys, and
//!   every member's its own value column.
//! * **Sibling maps share one key table** — the maps of a sibling group that
//!   exactly one fused kernel unit writes, in every trigger that writes any
//!   of them, and that nothing else reads or keeps apart (the compiler's
//!   `RelationPlan::shared`: TPC-H q1's four Lineitem maps), are one
//!   [`SharedTable`]: one hash map from a key to its row of `k` values, a
//!   value per member. The unit's rows carry one key and a value per member
//!   (`TableRows`), so a row costs one key built, one hash, one probe and
//!   one write, not `k`. A key enters with its first non-zero value and
//!   leaves with its last, so a member that nets to zero leaves the key to
//!   the others; a freed row is reused, so a key costs no allocation of its
//!   own. Each column receives exactly the writes its member's own rows
//!   would make to its own map (`SharedTable::apply_rows`: the same
//!   consecutive-key sums), so a member's contents are bit for bit a
//!   separate map's — `0.0 + x == x`, and a stored value is never zero.
//!   Readers see the members as maps ([`View`], [`Database::view_at`]):
//!   each keeps its id, its name, its key count and its own snapshot
//!   buffers and write log, and its snapshot holds the keys whose value is
//!   non-zero. A member has no secondary index: no kernel reads one.
//!
//! ## Snapshots cost what was written, not what is stored
//!
//! [`ViewMap::to_gmr`] hands readers a plain `Arc<FastMap<Tuple, f64>>`. A view
//! that is snapshotted keeps the last **two** buffers it handed out and an
//! append-only log of the keys written since the older one was current; the
//! next snapshot takes the older buffer back, and if nobody else still holds
//! it, *patches* it — per logged key, copy the live multiplicity or remove the
//! key — instead of copying the map. A snapshot therefore costs O(keys written
//! in the last two epochs). It falls back to one full O(n) copy when the
//! buffer is still pinned (a reader, a subscriber baseline, the checkpoint
//! thread), when the view has not yet handed out two buffers, or when the log
//! was abandoned (`clear`, `load_gmr`, or more logged writes than
//! `1/PATCH_BUDGET_DIVISOR` of the entries). Logging starts at a view's first
//! snapshot, so a view that is never snapshotted pays one branch per write.
//! The repeated readers arm it — a result (`Engine::result`), the serving
//! layer's publishes, checkpoints (`Engine::snapshot`) — and a one-off read
//! does not: [`ViewMap::copy_gmr`] (`Engine::view`) copies the map and
//! leaves its log as it was.
//!
//! The log is the only record of what was written, and it has two consumers:
//! the buffers, which it patches, and a subscriber's cursor. A subscriber
//! holds the snapshot it last diffed against, and [`ViewMap::to_gmr_since`]
//! reports, with the new snapshot, the keys written since that one — the log
//! from the newer buffer's mark, or all of it when the held snapshot is the
//! older buffer. When the log was abandoned since, or the held snapshot has
//! rotated out (two snapshots in between, a checkpoint's and a cold read's),
//! the answer is "unknown" and the subscriber diffs the two snapshots in full:
//! correct, and O(view) instead of O(keys written).
//!
//! What stays resident depends on how often a view is snapshotted. A written
//! view snapshotted every epoch — the serving layer publishes only the views
//! readers read — holds three copies of its primary map in steady state: the
//! live one and the two buffers (secondary indexes are never copied). A map
//! snapshotted only now and then — the higher-order maps the server leaves
//! unpublished, which only checkpoints and cold reads snapshot — pays about
//! one copy per snapshot, and its log abandons both buffers once the writes
//! since outgrow the patch budget: from then until the next checkpoint it is
//! resident once, as a map that is never snapshotted is.

mod index;
mod snapshot;
mod table;

use crate::ordered::{slot_bytes, GroupKey, OrderedIndex};
use dbtoaster_agca::eval::{matches_pattern, RelId, RelationSource};
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use dbtoaster_telemetry::{slot_of, ViewSummary};
use index::{reindex, HashIndex, Index};
pub use snapshot::SnapshotWork;
use snapshot::{unpoisoned, SnapshotState};
use std::sync::{Arc, Mutex};
pub use table::SharedTable;

/// Keys of up to this many columns are rebuilt on the stack ([`KeyBuf`]).
const KEY_BUF: usize = 8;

/// A full key rebuilt from a binding pattern, in a buffer local to the call:
/// reads take `&self` and may nest, so no scratch space lives in the view.
/// Up to [`KEY_BUF`] columns the buffer is on the stack and a rebuild
/// allocates nothing (a string value is a reference-count bump); past that
/// it is one vector per call.
struct KeyBuf {
    stack: [Value; KEY_BUF],
    /// The key when it is wider than `stack`, else empty.
    heap: Vec<Value>,
    len: usize,
}

impl KeyBuf {
    /// A buffer holding `pattern`'s bound values, its free positions yet to
    /// be filled by [`KeyBuf::key`].
    fn new(pattern: &[Option<Value>]) -> KeyBuf {
        // Free positions hold a placeholder until `key` fills them.
        let slot = |i: usize| pattern.get(i).cloned().flatten().unwrap_or(Value::Long(0));
        if pattern.len() <= KEY_BUF {
            KeyBuf {
                stack: std::array::from_fn(slot),
                heap: Vec::new(),
                len: pattern.len(),
            }
        } else {
            KeyBuf {
                stack: std::array::from_fn(|_| Value::Long(0)),
                heap: (0..pattern.len()).map(slot).collect(),
                len: pattern.len(),
            }
        }
    }

    /// The key with `values[i]` at position `positions[i]`, the pattern's
    /// bound values elsewhere.
    fn key(&mut self, positions: &[usize], values: &[Value]) -> &[Value] {
        let key = if self.heap.is_empty() {
            &mut self.stack[..self.len]
        } else {
            &mut self.heap[..]
        };
        for (&i, v) in positions.iter().zip(values) {
            key[i] = v.clone();
        }
        key
    }
}

/// One entry's rows within a statement's row buffer, `rows[start..end]`,
/// and how many times they are applied (`|net multiplicity|` single-tuple
/// firings); see `ViewMap::apply_rows`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Seg {
    pub start: usize,
    pub end: usize,
    pub reps: u32,
}

/// A materialized view: tuples over a fixed-arity key mapped to `f64` multiplicities,
/// with one declared secondary index per binding pattern its scans use.
///
/// [`ViewMap::to_gmr`] hands out an immutable *shared* snapshot of the map
/// ([`Gmr::from_shared`]): O(1) while the view is unwritten since the last one,
/// otherwise O(keys written since the reused buffer was current) — see the
/// module docs for when that degrades to a full copy. The write path pays one
/// branch (is the view being snapshotted?) and, when it is, one key clone into
/// the log; this is what lets the serving layer publish consistent snapshots
/// per micro-batch without slowing the single-threaded trigger hot path.
#[derive(Debug)]
pub struct ViewMap {
    schema: Schema,
    data: FastMap<Tuple, f64>,
    /// Snapshot buffers, write log and work counters.
    snapshots: Mutex<SnapshotState>,
    /// Declared secondary indexes, one per bitmask of bound key positions.
    indexes: Vec<(u64, Index)>,
}

/// A clone starts with no snapshot buffers of its own: sharing the source's
/// would pin them.
impl Clone for ViewMap {
    fn clone(&self) -> Self {
        ViewMap {
            schema: self.schema.clone(),
            data: self.data.clone(),
            snapshots: Mutex::default(),
            indexes: self.indexes.clone(),
        }
    }
}

impl ViewMap {
    /// An empty view with the given key schema.
    pub fn new(schema: Schema) -> Self {
        ViewMap {
            schema,
            data: FastMap::default(),
            snapshots: Mutex::default(),
            indexes: Vec::new(),
        }
    }

    /// The key schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Multiplicity of a key (0.0 when absent).
    pub fn get(&self, key: &[Value]) -> f64 {
        self.data.get(key).copied().unwrap_or(0.0)
    }

    /// Iterate `(key, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.data.iter().map(|(k, &m)| (k, m))
    }

    /// Add `mult` to the entry for `key`, removing it if the result is zero.
    ///
    /// One map probe, and no key clone: a hash index projects the key only
    /// when it enters or leaves the map, an ordered index on every write.
    pub fn add(&mut self, key: impl Into<Tuple>, mult: f64) {
        if mult != 0.0 {
            let key = key.into();
            self.log_write(&key);
            self.add_unlogged(key, mult);
        }
    }

    /// Apply borrowed rows (a run's entries to its stored base map), every
    /// non-zero row in order: a held key is found by its slice and written in
    /// place, and only a key that enters the map is built, through
    /// [`ViewMap::add`]. An owned buffer drains through `ViewMap::apply_rows`.
    pub fn add_rows<'a>(&mut self, rows: impl IntoIterator<Item = (&'a [Value], f64)>) {
        for (key, mult) in rows.into_iter().filter(|r| r.1 != 0.0) {
            let Some(v) = self.data.get_mut(key) else {
                self.add(Tuple::from(key), mult);
                continue;
            };
            *v += mult;
            let v = *v;
            // `log_write` of the stored key: its clone shares the key's slab.
            let s = unpoisoned(self.snapshots.get_mut());
            if s.newer.is_some() {
                let (held, _) = self.data.get_key_value(key).expect("a held key");
                s.log_key(held, self.data.len());
            }
            if v == 0.0 {
                self.data.remove(key);
            }
            reindex(&mut self.indexes, key, v);
        }
    }

    /// Drain a statement's buffered rows into the view: each segment's rows
    /// `reps` times over, in order, consecutive rows of one key summed into
    /// one write. Driven over a whole run, a run's entries often hit the same
    /// group keys (every entry, for a scalar aggregate), so a statement costs
    /// O(distinct consecutive keys) writes, not O(entries). Summation is
    /// reassociated relative to per-event processing — exact on integer
    /// weights, last-ulp on floats (the documented batch caveat); a run of one
    /// entry sums nothing the kernel's sink did not.
    ///
    /// Keys move: a segment's last application takes each row's key out of
    /// `rows` (leaving an empty tuple), so a new key enters the map uncloned
    /// and a key the map holds is dropped, the stored one kept; only the
    /// earlier applications of a segment with `reps > 1` clone.
    pub(crate) fn apply_rows(&mut self, rows: &mut [(Tuple, f64)], segs: &[Seg]) {
        // The stream: each row's index, and whether this is its last visit.
        let mut stream = segs
            .iter()
            .flat_map(|s| {
                (1..=s.reps).flat_map(move |r| (s.start..s.end).map(move |i| (i, r == s.reps)))
            })
            .peekable();
        while let Some((i, mut last)) = stream.next() {
            let mut sum = rows[i].1;
            while let Some(&(j, last_j)) = stream.peek() {
                if rows[j].0 != rows[i].0 {
                    break;
                }
                sum += rows[j].1;
                last |= j == i && last_j;
                stream.next();
            }
            let key = match last {
                true => std::mem::take(&mut rows[i].0),
                false => rows[i].0.clone(),
            };
            self.add(key, sum);
        }
    }

    /// Record a write for the snapshot buffers: nothing (one branch) until the
    /// view's first snapshot, then one key clone, until the log outgrows the
    /// patch budget and is abandoned.
    #[inline]
    fn log_write(&mut self, key: &Tuple) {
        let s = unpoisoned(self.snapshots.get_mut());
        if s.newer.is_some() {
            s.log_key(key, self.data.len());
        }
    }

    /// The owned write path behind [`ViewMap::add`]: everything except the
    /// snapshot log. `mult` must be non-zero.
    fn add_unlogged(&mut self, key: Tuple, mult: f64) {
        debug_assert_eq!(key.len(), self.schema.arity(), "key arity mismatch");
        use std::collections::hash_map::Entry;
        // One primary probe says whether the key is born, dies or stays; a
        // hash index is written only on the first two, an ordered one on all.
        match self.data.entry(key) {
            Entry::Occupied(mut o) if *o.get() + mult != 0.0 => {
                *o.get_mut() += mult;
                reindex(&mut self.indexes, o.key(), *o.get());
            }
            Entry::Occupied(o) => reindex(&mut self.indexes, &o.remove_entry().0, 0.0),
            Entry::Vacant(v) => {
                for (mask, index) in &mut self.indexes {
                    index.insert(*mask, v.key(), mult);
                }
                v.insert(mult);
            }
        }
    }

    /// Remove all entries (used by `:=` statements). Declared indexes stay,
    /// empty, and track the writes that follow.
    pub fn clear(&mut self) {
        unpoisoned(self.snapshots.get_mut()).abandon();
        self.data.clear();
        for (_, index) in &mut self.indexes {
            index.clear();
        }
    }

    /// The index of binding-pattern mask `mask`, if one is declared.
    fn index(&self, mask: u64) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|(m, _)| *m == mask)
            .map(|(_, i)| i)
    }

    /// Is an index of binding-pattern mask `mask` declared?
    pub fn has_index(&self, mask: u64) -> bool {
        self.index(mask).is_some()
    }

    /// Keep a hash index of `mask` from now on, built from the current
    /// contents. A no-op when the mask already has an index, or binds no key
    /// column, or binds every one (a primary probe), or one past the arity.
    pub fn declare_hash(&mut self, mask: u64) {
        let arity = self.schema.arity();
        if mask == 0 || mask >> arity.min(63) != 0 || full_mask(arity) == Some(mask) {
            return;
        }
        if self.has_index(mask) {
            return;
        }
        let mut index = HashIndex::new(mask, arity);
        for k in self.data.keys() {
            index.insert(mask, k);
        }
        self.indexes.push((mask, Index::Hash(index)));
    }

    /// Keep the secondary index of `mask` as an ordered index on the key
    /// column `key_pos` — the one column the mask must leave free — from now
    /// on, built from the current contents and replacing a hash index of the
    /// same mask. A no-op when the mask already has its ordered index, or
    /// cannot express the binding (a bound column at position 63 or later:
    /// reads of such a pattern walk the map, see [`ViewMap::for_each`]). On a
    /// one-column view the mask is `0`: one group, the whole map, which
    /// scans still walk as the primary map.
    pub fn declare_ordered(&mut self, mask: u64, key_pos: usize) {
        let arity = self.schema.arity();
        if (63..arity).any(|i| i != key_pos) {
            return;
        }
        assert!(
            (0..arity).all(|i| (i < 63 && mask & (1 << i) != 0) != (i == key_pos)),
            "an ordered index binds every key column but the one it is sorted on \
             (mask {mask:#b}, sorted on {key_pos}, arity {arity})"
        );
        if matches!(self.index(mask), Some(Index::Ordered(_))) {
            return;
        }
        let mut index = OrderedIndex::new(key_pos);
        for (k, &m) in self.data.iter() {
            index.set(project_mask(k, mask), k, m);
        }
        self.indexes.retain(|(m, _)| *m != mask);
        self.indexes.push((mask, Index::Ordered(index)));
    }

    /// Stream exactly the entries matching a partial binding pattern into
    /// `visit`, borrowing keys straight out of the store: one primary probe
    /// when the pattern binds every column, one group of the mask's declared
    /// index when it binds some (and a primary probe per member, for its
    /// stored key and multiplicity), the whole map otherwise — or when nobody
    /// declared an index for the mask, or the pattern binds a column no mask
    /// can express (position 63 or later), then filtered by the pattern.
    pub fn for_each(&self, pattern: &[Option<Value>], visit: &mut dyn FnMut(&[Value], f64)) {
        debug_assert_eq!(pattern.len(), self.schema.arity());
        let Some(mask) = pattern_mask(pattern) else {
            return self.for_each_filtered(pattern, visit);
        };
        if mask == 0 {
            for (k, &m) in self.data.iter() {
                visit(k, m);
            }
            return;
        }
        if full_mask(self.schema.arity()) == Some(mask) {
            // Fully bound: a single primary probe.
            self.visit_stored(KeyBuf::new(pattern).key(&[], &[]), visit);
            return;
        }
        let probe = || -> Tuple { pattern.iter().flatten().cloned().collect() };
        match self.index(mask) {
            // Neither index holds a multiplicity or, in general, the stored
            // key: rebuild each member's key from the pattern and probe the
            // primary map, which hands out the stored key (a `Long(1)`
            // pattern finds a key stored as `Double(1.0)`).
            Some(Index::Hash(h)) => {
                if let Some(group) = h.groups.get(&probe()) {
                    let mut buf = KeyBuf::new(pattern);
                    group.for_each(h.free.len(), |free| {
                        self.visit_stored(buf.key(&h.free, free), visit);
                    });
                }
            }
            Some(Index::Ordered(o)) => {
                let mut buf = KeyBuf::new(pattern);
                let band = [o.key_pos()];
                o.for_each_key(&probe(), &mut |key| match key {
                    GroupKey::Full(full) => self.visit_stored(full, visit),
                    GroupKey::Band(k) => {
                        self.visit_stored(buf.key(&band, &[Value::Double(k)]), visit)
                    }
                });
            }
            None => self.for_each_filtered(pattern, visit),
        }
    }

    /// Walk the whole map, handing `visit` the entries matching `pattern`.
    fn for_each_filtered(&self, pattern: &[Option<Value>], visit: &mut dyn FnMut(&[Value], f64)) {
        for (k, &m) in self.data.iter() {
            if matches_pattern(k, pattern) {
                visit(k, m);
            }
        }
    }

    /// Hand `visit` the stored entry equal to `key`, if there is one.
    fn visit_stored(&self, key: &[Value], visit: &mut dyn FnMut(&[Value], f64)) {
        if let Some((k, &m)) = self.data.get_key_value(key) {
            visit(k, m);
        }
    }

    /// Range sums over the ordered index of `pattern`'s mask: `sums[i]` = Σ
    /// multiplicity over the entries matching `pattern` whose one free
    /// column lies in `ranges[i].0 ≤ value < ranges[i].1` (integer or
    /// infinite ends; `bound_mag` as in
    /// [`RelationSource::range_sums_at`]). Returns the number of entries
    /// compared — `O(log n)` — or `None` when the mask has no ordered index
    /// or the group cannot answer exactly; the caller then traverses
    /// ([`ViewMap::for_each`]).
    pub fn range_sums(
        &self,
        pattern: &[Option<Value>],
        bound_mag: f64,
        ranges: &[(f64, f64)],
        sums: &mut [f64],
    ) -> Option<u64> {
        let (index, group) = self.ordered_group(pattern)?;
        index.range_sums(&group, bound_mag, ranges, sums)
    }

    /// The ordered index of `pattern`'s mask and the group `pattern` binds.
    fn ordered_group(&self, pattern: &[Option<Value>]) -> Option<(&OrderedIndex, Tuple)> {
        let Index::Ordered(index) = self.index(pattern_mask(pattern)?)? else {
            return None;
        };
        Some((index, pattern.iter().flatten().cloned().collect()))
    }

    /// A quantile filter's cut over the ordered index of `pattern`'s mask
    /// (see [`RelationSource::cut_at`]): `None` when the mask has no ordered
    /// index, or the group is outside the exactness contract or holds a
    /// negative net multiplicity.
    pub fn cut(
        &self,
        pattern: &[Option<Value>],
        upper: bool,
        passes: &mut dyn FnMut(f64) -> bool,
    ) -> Option<((f64, f64), u64)> {
        let (index, group) = self.ordered_group(pattern)?;
        index.cut(&group, upper, passes)
    }

    /// Walk one key interval of the ordered index of `pattern`'s mask, in
    /// key order (see [`RelationSource::walk_band_at`]): `None` when the mask
    /// has no ordered index or the group's keys times multiplicities could
    /// round.
    pub fn walk_band(
        &self,
        pattern: &[Option<Value>],
        interval: (f64, f64),
        hi_in: bool,
        visit: &mut dyn FnMut(f64, f64),
    ) -> Option<u64> {
        let (index, group) = self.ordered_group(pattern)?;
        index.walk(&group, interval, hi_in, visit)
    }

    /// Entries matching a partial binding pattern, collected into a vector.
    /// Prefer [`ViewMap::for_each`] on hot paths.
    pub fn lookup(&self, pattern: &[Option<Value>]) -> Vec<(Tuple, f64)> {
        let mut out = Vec::new();
        self.for_each(pattern, &mut |k, m| out.push((Tuple::from(k), m)));
        out
    }

    /// Snapshot the view contents as an immutable shared GMR. O(1) while the
    /// view is unwritten since the last snapshot (the same buffer is handed out
    /// again); otherwise the older of the two buffers is brought up to date
    /// from the write log, or — when it is pinned, missing, or the log was
    /// abandoned — replaced by one O(n) copy (see the module docs).
    pub fn to_gmr(&self) -> Gmr {
        self.snapshot(None).0
    }

    /// [`ViewMap::to_gmr`], and the keys written since `earlier` — a snapshot
    /// of this view that the caller has held since it was handed out — each
    /// once: the log from the newer buffer's mark when `earlier` is that
    /// buffer, the whole log when it is the older one. `None` when the log
    /// cannot tell: it was abandoned since (`clear`, `load_gmr`, the patch
    /// budget), or `earlier` has rotated out (two or more snapshots since), or
    /// it is not a buffer of this view. A consumer then diffs `earlier`
    /// against the new snapshot wholesale.
    pub fn to_gmr_since(&self, earlier: &Gmr) -> (Gmr, Option<Vec<Tuple>>) {
        self.snapshot(Some(earlier))
    }

    /// The one snapshot path behind [`ViewMap::to_gmr`] and
    /// [`ViewMap::to_gmr_since`]: the cursor is read before rotation trims
    /// the log.
    fn snapshot(&self, earlier: Option<&Gmr>) -> (Gmr, Option<Vec<Tuple>>) {
        let (buffer, written) = unpoisoned(self.snapshots.lock()).take(
            earlier,
            |key| self.data.get(key).copied(),
            || self.data.clone(),
            self.data.len(),
        );
        (Gmr::from_shared(self.schema.clone(), buffer), written)
    }

    /// Cumulative snapshot work of this view (see [`SnapshotWork`]).
    pub fn snapshot_work(&self) -> SnapshotWork {
        unpoisoned(self.snapshots.lock()).work
    }

    /// Replace the contents of the view from a GMR (columns matched by name when the
    /// schemas share the same column set, positionally otherwise).
    pub fn load_gmr(&mut self, gmr: &Gmr) {
        self.clear();
        if gmr.schema() == &self.schema {
            // Identical schemas: copy the map wholesale (`clear` stopped the
            // snapshot log and emptied the indexes, so bypassing `add` loses
            // nothing once those are refilled).
            self.data = gmr.iter().map(|(t, m)| (t.clone(), m)).collect();
            for (mask, index) in &mut self.indexes {
                for (k, &m) in self.data.iter() {
                    index.insert(*mask, k, m);
                }
            }
            return;
        }
        for (key, m) in keys_in(&self.schema, gmr) {
            self.add(key, m);
        }
    }

    /// The view's contents as a GMR, copied without arming its write log:
    /// the cold read of [`Database::view`]'s one-off readers. A repeated
    /// reader takes [`ViewMap::to_gmr`], which patches a recycled buffer.
    pub fn copy_gmr(&self) -> Gmr {
        Gmr::from_shared(self.schema.clone(), Arc::new(self.data.clone()))
    }

    /// Approximate heap footprint in bytes (entries plus secondary indexes).
    /// See the module docs for the cost model. `O(indexes)`.
    pub fn approx_bytes(&self) -> usize {
        self.map_bytes() + self.index_totals().values[BYTES] as usize
    }

    /// What the live primary map holds under the cost model: one key slot
    /// per entry.
    fn map_bytes(&self) -> usize {
        self.data.len() * slot_bytes(self.schema.arity())
    }

    /// What the snapshot buffers the view keeps for reuse (up to two, see the
    /// module docs) hold under the same model. Not part of
    /// [`ViewMap::approx_bytes`]: a view that is never snapshotted keeps none.
    fn snapshot_bytes(&self) -> usize {
        let buffered = unpoisoned(self.snapshots.lock()).buffered_entries();
        buffered * slot_bytes(self.schema.arity())
    }

    /// The view's readings in the layout of its telemetry record
    /// ([`dbtoaster_telemetry::VIEW_VALUES`]): its size, its resident group
    /// ([`ViewMap::index_totals`] with the live map's and the snapshot
    /// buffers' bytes beside the indexes') and its snapshot work; the work
    /// values stay 0 (the engine counts those). The one read of a view's
    /// bytes: the engine's telemetry flush publishes it, and EXPLAIN ANALYZE
    /// without telemetry attaches it.
    pub fn readings(&self) -> ViewSummary {
        let mut r = self.index_totals();
        for (slot, n) in [
            (const { slot_of("map_size") }, self.len() as u64),
            (const { slot_of("map_bytes") }, self.map_bytes() as u64),
            (
                const { slot_of("snapshot_bytes") },
                self.snapshot_bytes() as u64,
            ),
        ] {
            r.values[slot] = n;
        }
        self.snapshot_work().record(&mut r);
        r
    }

    /// How many secondary indexes of each representation the view has, and
    /// what they hold: entries summed over the indexes (every primary entry
    /// appears once in each) and bytes under the cost model of
    /// [`ViewMap::approx_bytes`], as the `indexes.*` values of a record.
    /// `O(indexes)` — footprints are maintained per write. Every other value
    /// stays 0: [`ViewMap::readings`] adds the view's own bytes.
    pub fn index_totals(&self) -> ViewSummary {
        let mut t = ViewSummary::default();
        let n = &mut t.values;
        for (_, index) in &self.indexes {
            match index {
                Index::Hash(h) => {
                    n[HASH] += 1;
                    n[ENTRIES] += self.data.len() as u64;
                    n[HASH_BYTES] += h.bytes as u64;
                }
                Index::Ordered(o) => {
                    n[ORDERED] += 1;
                    n[ENTRIES] += o.entries() as u64;
                    n[ORDERED_BYTES] += o.bytes() as u64;
                }
            }
            n[BYTES] += index.bytes() as u64;
        }
        t
    }
}

/// Where [`ViewMap::index_totals`] counts, in a view's telemetry record.
const HASH: usize = slot_of("indexes.hash");
const ORDERED: usize = slot_of("indexes.ordered");
const ENTRIES: usize = slot_of("indexes.entries");
const BYTES: usize = slot_of("indexes.bytes");
const HASH_BYTES: usize = slot_of("indexes.hash_bytes");
const ORDERED_BYTES: usize = slot_of("indexes.ordered_bytes");

/// The binding-pattern mask of `pattern`, or `None` when it binds a column
/// at position 63 or later, which masks cannot express.
fn pattern_mask(pattern: &[Option<Value>]) -> Option<u64> {
    pattern
        .iter()
        .enumerate()
        .try_fold(0u64, |m, (i, p)| match p {
            None => Some(m),
            Some(_) => (i < 63).then(|| m | (1 << i)),
        })
}

/// The mask of a pattern binding every one of `arity` key columns, if masks
/// can express it.
fn full_mask(arity: usize) -> Option<u64> {
    (arity <= 63).then(|| (1u64 << arity) - 1)
}

fn project_mask(key: &[Value], mask: u64) -> Tuple {
    key.iter()
        .enumerate()
        .filter(|(i, _)| *i < 63 && mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

/// A view's position in its [`Database`], fixed when the view is declared.
/// It is also the [`RelId`] compiled kernels read the view by.
pub type MapId = RelId;

/// `gmr`'s entries with their keys in the column order of `schema`: columns
/// matched by name when the two schemas share their column set,
/// positionally otherwise.
fn keys_in<'a>(schema: &Schema, gmr: &'a Gmr) -> impl Iterator<Item = (Tuple, f64)> + 'a {
    let positions: Option<Vec<usize>> = match gmr.schema().same_columns(schema) {
        true => (schema.columns().iter())
            .map(|c| gmr.schema().index_of(c))
            .collect(),
        false => None,
    };
    gmr.iter().map(move |(t, m)| match &positions {
        Some(pos) => (pos.iter().map(|&i| t[i].clone()).collect(), m),
        None => (t.clone(), m),
    })
}

/// The runtime database: the [`ViewMap`]s holding materialized views, stored
/// base relations and static tables, and the [`SharedTable`]s holding the
/// maps of sibling groups, addressed by [`MapId`] on the hot path and by
/// name everywhere else. A member of a shared table keeps its id and its
/// name, and readers see it as the map it stands for ([`View`]).
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// The views; a view's index is its id. A member of a shared table has
    /// an empty map here, which nothing writes.
    maps: Vec<ViewMap>,
    /// `members[id]`: the shared table and column holding view `id`, if it
    /// is a member of one.
    members: Vec<Option<(u32, usize)>>,
    tables: Vec<SharedTable>,
    /// `names[id]` names `maps[id]`.
    names: Vec<String>,
    /// Name → id, for the name-addressed API.
    ids: FastMap<String, MapId>,
}

/// A view as its readers see it: a map of its own, or the column of a
/// shared table that stands for it.
#[derive(Clone, Copy, Debug)]
pub enum View<'a> {
    /// A map of its own.
    Map(&'a ViewMap),
    /// Column `.1` of a shared table.
    Member(&'a SharedTable, usize),
}

impl<'a> View<'a> {
    /// The map, unless this is a member of a shared table.
    pub fn map(self) -> Option<&'a ViewMap> {
        match self {
            View::Map(m) => Some(m),
            View::Member(..) => None,
        }
    }

    /// The key schema.
    pub fn schema(self) -> &'a Schema {
        match self {
            View::Map(m) => m.schema(),
            View::Member(t, c) => t.schema(c),
        }
    }

    /// Number of entries: a member's keys whose value is non-zero.
    pub fn len(self) -> usize {
        match self {
            View::Map(m) => m.len(),
            View::Member(t, c) => t.member_len(c),
        }
    }

    /// Is the view empty?
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Multiplicity of a key (0.0 when absent).
    pub fn get(self, key: &[Value]) -> f64 {
        match self {
            View::Map(m) => m.get(key),
            View::Member(t, c) => t.get(c, key),
        }
    }

    /// [`ViewMap::to_gmr`]: a snapshot, patched from the view's write log
    /// — which this arms — once the view has handed out two.
    pub fn to_gmr(self) -> Gmr {
        match self {
            View::Map(m) => m.to_gmr(),
            View::Member(t, c) => t.snapshot(c, None).0,
        }
    }

    /// [`ViewMap::to_gmr_since`].
    pub fn to_gmr_since(self, earlier: &Gmr) -> (Gmr, Option<Vec<Tuple>>) {
        match self {
            View::Map(m) => m.to_gmr_since(earlier),
            View::Member(t, c) => t.snapshot(c, Some(earlier)),
        }
    }

    /// [`ViewMap::copy_gmr`]: a copy that leaves the write log as it was.
    pub fn copy_gmr(self) -> Gmr {
        match self {
            View::Map(m) => m.copy_gmr(),
            View::Member(t, c) => t.copy(c),
        }
    }

    /// [`ViewMap::snapshot_work`].
    pub fn snapshot_work(self) -> SnapshotWork {
        match self {
            View::Map(m) => m.snapshot_work(),
            View::Member(t, c) => t.snapshot_work(c),
        }
    }

    /// [`ViewMap::readings`]; a member's bytes are its share of its table's
    /// ([`SharedTable::approx_bytes`]).
    pub fn readings(self) -> ViewSummary {
        match self {
            View::Map(m) => m.readings(),
            View::Member(t, c) => t.readings(c),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create (or replace, keeping its id) a view with the given key
    /// columns. Returns its id.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        columns: impl IntoIterator<Item = String>,
    ) -> MapId {
        let name = name.into();
        let view = ViewMap::new(Schema::new(columns));
        if let Some(&id) = self.ids.get(&name) {
            self.maps[id as usize] = view;
            return id;
        }
        let id = MapId::try_from(self.maps.len()).expect("fewer than 2^32 views");
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        self.maps.push(view);
        self.members.push(None);
        id
    }

    /// Keep the declared, empty views `ids` as one shared table, one value
    /// column each, in this order; returns the table's index. Their ids and
    /// names stay, and read as before ([`Database::view_at`]); their rows
    /// are written through [`Database::table_mut`].
    pub fn share(&mut self, ids: &[MapId]) -> u32 {
        let t = u32::try_from(self.tables.len()).expect("fewer than 2^32 tables");
        let schemas = ids.iter().map(|&id| self.at(id).schema().clone());
        self.tables.push(SharedTable::new(schemas));
        for (c, &id) in ids.iter().enumerate() {
            debug_assert!(self.at(id).is_empty(), "a shared view starts empty");
            self.members[id as usize] = Some((t, c));
        }
        t
    }

    /// The shared table and column holding view `id`, if it is a member of
    /// one.
    pub fn member(&self, id: MapId) -> Option<(u32, usize)> {
        self.members[id as usize]
    }

    /// Shared table `t` ([`Database::share`]).
    pub fn table(&self, t: u32) -> &SharedTable {
        &self.tables[t as usize]
    }

    /// Mutable access to shared table `t`.
    pub fn table_mut(&mut self, t: u32) -> &mut SharedTable {
        &mut self.tables[t as usize]
    }

    /// The id of the named view, if it exists.
    pub fn id(&self, name: &str) -> Option<MapId> {
        self.ids.get(name).copied()
    }

    /// The map with id `id`, which the hot path reads and writes: never a
    /// member of a shared table, whose rows the table holds. Panics on an
    /// id this database never handed out.
    pub fn at(&self, id: MapId) -> &ViewMap {
        &self.maps[id as usize]
    }

    /// Mutable access to the map with id `id`.
    pub fn at_mut(&mut self, id: MapId) -> &mut ViewMap {
        &mut self.maps[id as usize]
    }

    /// View `id` as its readers see it: its map, or its column of a shared
    /// table.
    pub fn view_at(&self, id: MapId) -> View<'_> {
        match self.member(id) {
            Some((t, c)) => View::Member(self.table(t), c),
            None => View::Map(self.at(id)),
        }
    }

    /// Does a view with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.ids.contains_key(name)
    }

    /// The named view as its readers see it ([`Database::view_at`]).
    pub fn view(&self, name: &str) -> Option<View<'_>> {
        Some(self.view_at(self.id(name)?))
    }

    /// Mutable access to a map (`None` for a member of a shared table).
    pub fn view_mut(&mut self, name: &str) -> Option<&mut ViewMap> {
        let id = self.id(name)?;
        self.member(id).is_none().then(|| self.at_mut(id))
    }

    /// Replace the contents of view `id` from a GMR (see
    /// [`ViewMap::load_gmr`]); a member of a shared table replaces its
    /// column and leaves the others.
    pub fn load_gmr(&mut self, id: MapId, gmr: &Gmr) {
        match self.member(id) {
            Some((t, c)) => {
                let keys = keys_in(self.table(t).schema(c), gmr).collect::<Vec<_>>();
                self.table_mut(t).load(c, keys);
            }
            None => self.at_mut(id).load_gmr(gmr),
        }
    }

    /// Names of all views, sorted, borrowed from the store (no `String` clones).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let mut v: Vec<&str> = self.names.iter().map(String::as_str).collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Total approximate memory footprint of all views, in bytes: a shared
    /// table counts its keys once.
    pub fn approx_bytes(&self) -> usize {
        let maps = self.maps.iter().map(|m| m.approx_bytes());
        maps.chain(self.tables.iter().map(|t| t.approx_bytes()))
            .sum()
    }

    /// A consistent point-in-time snapshot of every view: name → shared GMR
    /// ([`View::to_gmr`]). Costs the name table (O(number of views)) plus,
    /// per view, the keys written since the buffer it reuses was current — or
    /// a full copy of the view where that buffer is pinned or its log was
    /// abandoned.
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        let views = (0..self.maps.len()).map(|id| self.view_at(id as MapId));
        (self.names.iter().cloned())
            .zip(views.map(View::to_gmr))
            .collect()
    }
}

impl RelationSource for Database {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.view(name).map(|v| v.schema().arity())
    }

    fn relation_id(&self, name: &str) -> Option<RelId> {
        self.id(name)
    }

    fn for_each_at(
        &self,
        id: RelId,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) {
        self.at(id).for_each(pattern, visit);
    }

    fn range_sums_at(
        &self,
        id: RelId,
        pattern: &[Option<Value>],
        bound_mag: f64,
        ranges: &[(f64, f64)],
        sums: &mut [f64],
    ) -> Option<u64> {
        self.at(id).range_sums(pattern, bound_mag, ranges, sums)
    }

    fn cut_at(
        &self,
        id: RelId,
        pattern: &[Option<Value>],
        upper: bool,
        passes: &mut dyn FnMut(f64) -> bool,
    ) -> Option<((f64, f64), u64)> {
        self.at(id).cut(pattern, upper, passes)
    }

    fn walk_band_at(
        &self,
        id: RelId,
        pattern: &[Option<Value>],
        interval: (f64, f64),
        hi_in: bool,
        visit: &mut dyn FnMut(f64, f64),
    ) -> Option<u64> {
        self.at(id).walk_band(pattern, interval, hi_in, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_gmr::FastSet;
    use index::{Group, SMALL_GROUP};

    fn key(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::long(v)).collect()
    }

    #[test]
    fn add_and_cancel() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 2]), 2.5);
        v.add(key(&[1, 2]), -2.5);
        assert!(v.is_empty());
        v.add(key(&[1, 2]), 1.0);
        assert_eq!(v.get(&key(&[1, 2])), 1.0);
        assert_eq!(v.get(&key(&[9, 9])), 0.0);
    }

    /// Where a key's values live: its inline buffer, or its shared slab.
    fn slab(t: &Tuple) -> *const Value {
        t.as_slice().as_ptr()
    }

    /// One segment of `rows`, applied `reps` times.
    fn all(rows: &[(Tuple, f64)], reps: u32) -> [Seg; 1] {
        let end = rows.len();
        [Seg {
            start: 0,
            end,
            reps,
        }]
    }

    /// The owned apply moves keys: a row whose key the map holds leaves the
    /// stored key object in place (its slab, for a wide tuple) and drops its
    /// own, and a new key enters the map as the very tuple the row held,
    /// through the hash index too.
    #[test]
    fn applied_rows_move_new_keys_in_and_keep_held_ones() {
        let mut v = ViewMap::new(Schema::new(["a", "b", "c", "d", "e"]));
        v.declare_hash(0b1);
        let held = key(&[1, 2, 3, 4, 5]);
        assert!(!held.is_inline(), "a wide key lives in a shared slab");
        let held_slab = slab(&held);
        v.add(held, 1.0);
        let (again, fresh) = (key(&[1, 2, 3, 4, 5]), key(&[6, 7, 8, 9, 10]));
        assert_ne!(slab(&again), held_slab, "an equal key built apart");
        let fresh_slab = slab(&fresh);
        let mut rows = vec![(again, 2.0), (fresh, 1.0)];
        let segs = all(&rows, 1);
        v.apply_rows(&mut rows, &segs);
        let stored = |k: &[i64]| {
            let (t, m) = v.data.get_key_value(&key(k)[..]).expect("stored");
            (slab(t), *m)
        };
        assert_eq!(stored(&[1, 2, 3, 4, 5]), (held_slab, 3.0));
        assert_eq!(stored(&[6, 7, 8, 9, 10]), (fresh_slab, 1.0));
        assert!(rows.iter().all(|(k, _)| k.is_empty()), "keys moved out");
        assert_hash_indexes_match_a_rebuild(&v);
    }

    /// A snapshotted view logs each write's key once, whether the key moved
    /// in or was dropped: consecutive rows of one key are one write.
    #[test]
    fn applied_rows_log_each_written_key_once() {
        let mut v = ViewMap::new(Schema::new(["a"]));
        for i in 0..64 {
            v.add(key(&[i]), 1.0);
        }
        let _reader = v.to_gmr();
        let mut rows = vec![(key(&[1]), 1.0), (key(&[1]), 2.0)];
        rows.extend([(key(&[70]), 1.0), (key(&[1]), -1.0)]);
        let segs = [
            Seg {
                start: 0,
                end: 2,
                reps: 1,
            },
            Seg {
                start: 2,
                end: 4,
                reps: 1,
            },
        ];
        v.apply_rows(&mut rows, &segs);
        let log = &unpoisoned(v.snapshots.lock()).log;
        assert_eq!(log, &[key(&[1]), key(&[70]), key(&[1])]);
        assert_eq!((v.get(&key(&[1])), v.get(&key(&[70]))), (3.0, 1.0));
    }

    /// A segment applied `reps` times is the stream of its rows repeated:
    /// one key repeated sums its repetitions first and writes once, keys that
    /// alternate write once per repetition — bit for bit what the borrowing
    /// applier it replaced wrote (the sums below differ in their last bits
    /// when associated otherwise).
    #[test]
    fn a_segment_applied_reps_times_adds_like_its_rows_repeated() {
        let mut v = ViewMap::new(Schema::new(["a"]));
        v.add(key(&[1]), 5.0);
        v.add(key(&[2]), 5.0);
        let mut rows = vec![(key(&[1]), 0.1)];
        let segs = all(&rows, 3);
        v.apply_rows(&mut rows, &segs);
        let summed_first: f64 = 5.0 + (0.1 + 0.1 + 0.1);
        assert_ne!(summed_first, 5.0 + 0.1 + 0.1 + 0.1);
        assert_eq!(v.get(&key(&[1])).to_bits(), summed_first.to_bits());
        assert!(rows[0].0.is_empty(), "its last repetition moves");
        let mut rows = vec![(key(&[2]), 0.1), (key(&[3]), 0.2)];
        let segs = all(&rows, 2);
        v.apply_rows(&mut rows, &segs);
        let one_by_one: f64 = 5.0 + 0.1 + 0.1;
        assert_ne!(one_by_one, 5.0 + (0.1 + 0.1));
        assert_eq!(v.get(&key(&[2])).to_bits(), one_by_one.to_bits());
        assert_eq!(v.get(&key(&[3])).to_bits(), (0.2f64 + 0.2).to_bits());
        assert!(
            rows.iter().all(|(k, _)| k.is_empty()),
            "the last repetition moves"
        );
    }

    #[test]
    fn lookup_with_full_and_partial_patterns() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.add(key(&[1, 20]), 2.0);
        v.add(key(&[2, 30]), 3.0);
        // Full key lookup.
        let full = v.lookup(&[Some(Value::long(1)), Some(Value::long(20))]);
        assert_eq!(full, vec![(key(&[1, 20]), 2.0)]);
        // Partial: first column bound.
        let part = v.lookup(&[Some(Value::long(1)), None]);
        assert_eq!(part.len(), 2);
        // Unbound: full scan.
        assert_eq!(v.lookup(&[None, None]).len(), 3);
        // Missing key.
        assert!(v.lookup(&[Some(Value::long(7)), None]).is_empty());
    }

    #[test]
    fn secondary_index_stays_consistent_under_updates() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        // Build the index from the contents, then mutate.
        v.declare_hash(0b01);
        assert_eq!(v.lookup(&[Some(Value::long(1)), None]).len(), 1);
        v.add(key(&[1, 20]), 1.0);
        v.add(key(&[1, 10]), -1.0); // removes the first entry
        let res = v.lookup(&[Some(Value::long(1)), None]);
        assert_eq!(res, vec![(key(&[1, 20]), 1.0)]);
    }

    #[test]
    fn multiplicity_change_without_entry_change_keeps_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.declare_hash(0b01);
        v.add(key(&[1, 10]), 2.5); // multiplicity update only
        assert_eq!(
            v.lookup(&[Some(Value::long(1)), None]),
            vec![(key(&[1, 10]), 3.5)]
        );
    }

    #[test]
    fn for_each_streams_borrowed_entries() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.add(key(&[1, 20]), 2.0);
        let mut total = 0.0;
        let mut seen = 0;
        v.for_each(&[Some(Value::long(1)), None], &mut |k, m| {
            assert_eq!(k.len(), 2);
            total += m;
            seen += 1;
        });
        assert_eq!(seen, 2);
        assert_eq!(total, 3.0);
    }

    #[test]
    fn gmr_round_trip() {
        let mut v = ViewMap::new(Schema::new(["a"]));
        v.add(key(&[1]), 5.0);
        v.add(key(&[2]), -1.0);
        let g = v.to_gmr();
        assert_eq!(g.get(&key(&[1])), 5.0);
        let mut v2 = ViewMap::new(Schema::new(["a"]));
        v2.load_gmr(&g);
        assert_eq!(v2.get(&key(&[2])), -1.0);
        assert_eq!(v2.len(), 2);
    }

    #[test]
    fn load_gmr_matches_columns_by_name() {
        let mut g = Gmr::new(Schema::new(["b", "a"]));
        g.add_tuple(key(&[10, 1]), 3.0);
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.load_gmr(&g);
        assert_eq!(v.get(&key(&[1, 10])), 3.0);
    }

    #[test]
    fn database_implements_relation_source() {
        let mut db = Database::new();
        let s = db.declare("S", vec!["c".to_string()]);
        let r = db.declare("R", vec!["a".to_string(), "b".to_string()]);
        db.view_mut("R").unwrap().add(key(&[1, 2]), 1.0);
        assert_eq!(db.relation_arity("R"), Some(2));
        let mut rows = 0;
        db.for_each_matching("R", &[Some(Value::long(1)), None], &mut |_, _| rows += 1)
            .unwrap();
        assert_eq!(rows, 1);
        assert!(db.for_each_matching("Nope", &[], &mut |_, _| {}).is_err());
        assert!(db.approx_bytes() > 0);
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["R", "S"]);
        // Ids address the same views, and a re-declared view keeps its id.
        assert_eq!(
            (db.relation_id("R"), db.relation_id("S")),
            (Some(r), Some(s))
        );
        assert_eq!(db.relation_id("Nope"), None);
        let mut by_id = 0;
        db.for_each_at(r, &[Some(Value::long(1)), None], &mut |_, _| by_id += 1);
        assert_eq!(by_id, 1);
        assert_eq!(db.declare("R", vec!["x".to_string()]), r);
        assert!(db.at(r).is_empty() && db.at(r).schema().arity() == 1);
    }

    #[test]
    fn to_gmr_snapshot_is_isolated_from_later_writes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        let snap = v.to_gmr();
        v.add(key(&[1, 10]), 2.0);
        v.add(key(&[2, 20]), 4.0);
        assert_eq!(snap.get(&key(&[1, 10])), 1.0);
        assert_eq!(snap.len(), 1);
        assert_eq!(v.get(&key(&[1, 10])), 3.0);
        // A snapshot also survives a clear (`:=` statements).
        let snap2 = v.to_gmr();
        v.clear();
        assert_eq!(snap2.len(), 2);
        assert!(v.is_empty());
    }

    /// Every ordered index of `v` must be what declaring it afresh over the
    /// primary map builds, and structurally sound.
    fn assert_ordered_indexes_match_a_rebuild(v: &ViewMap) {
        let mut fresh = ViewMap::new(v.schema().clone());
        fresh.data = v.data.clone();
        let mut ordered = 0;
        for (mask, index) in &v.indexes {
            let Index::Ordered(kept) = index else {
                continue;
            };
            kept.check();
            let key_pos = (0..v.schema().arity())
                .find(|i| mask & (1 << i) == 0)
                .unwrap();
            fresh.declare_ordered(*mask, key_pos);
            let Some(Index::Ordered(rebuilt)) = fresh.index(*mask) else {
                panic!("declared ordered");
            };
            assert_eq!(kept.contents(), rebuilt.contents(), "mask {mask:#b}");
            assert_eq!(kept.entries(), v.len());
            ordered += 1;
        }
        assert!(ordered > 0, "no ordered index to check");
    }

    /// `[group, t] → m` entries: three groups of exact entries, plus one
    /// inexact multiplicity and one key that cannot be a band key.
    fn ordered_fixture() -> ViewMap {
        let mut v = ViewMap::new(Schema::new(["g", "t"]));
        v.declare_ordered(0b01, 1);
        for i in 1..=90i64 {
            v.add(key(&[i % 3, i]), (i % 5 + 1) as f64);
        }
        v.add(key(&[2, 1000]), 0.5);
        v.add(key(&[2, 0]), 1.0);
        v
    }

    fn range(v: &ViewMap, group: i64, lo: f64, hi: f64) -> Option<f64> {
        let mut sums = [0.0];
        v.range_sums(
            &[Some(Value::long(group)), None],
            0.0,
            &[(lo, hi)],
            &mut sums,
        )
        .map(|_| sums[0])
    }

    #[test]
    fn ordered_index_answers_range_sums_and_traverses_like_a_hash_index() {
        let v = ordered_fixture();
        assert_ordered_indexes_match_a_rebuild(&v);
        // Group 1 holds t = 1, 4, …, 88 with multiplicity t % 5 + 1.
        let want: f64 = (10..40)
            .filter(|t| t % 3 == 1)
            .map(|t| (t % 5 + 1) as f64)
            .sum();
        assert_eq!(range(&v, 1, 10.0, 40.0), Some(want));
        assert_eq!(range(&v, 7, 10.0, 40.0), Some(0.0), "absent group");
        assert_eq!(range(&v, 2, 10.0, 40.0), None, "group 2 holds offenders");
        // A mask without an ordered index has no range sums.
        let mut sums = [0.0];
        let by_t = [None, Some(Value::long(4))];
        assert_eq!(v.range_sums(&by_t, 0.0, &[(0.0, 9.0)], &mut sums), None);
        // Traversal hands out the stored keys and multiplicities, offenders
        // included, exactly as a hash index over the same contents does.
        let mut hashed = ViewMap::new(v.schema().clone());
        hashed.data = v.data.clone();
        hashed.declare_hash(0b01);
        for g in 0..4 {
            let pattern = [Some(Value::long(g)), None];
            let (mut a, mut b) = (v.lookup(&pattern), hashed.lookup(&pattern));
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(a, b, "group {g}");
        }
        assert_eq!(hashed.index_totals().get("indexes.hash"), 1);
    }

    /// A one-column view keeps a mask-0 ordered index: one group, the whole
    /// map. It answers range sums, cuts and interval walks, scans still walk
    /// the primary map, `clear` keeps it declared and writes after it are
    /// indexed, and the cost model charges it beside the map.
    #[test]
    fn a_one_column_view_keeps_one_ordered_group() {
        let mut v = ViewMap::new(Schema::new(["p"]));
        for p in 1..=30i64 {
            v.add(key(&[p]), (p % 4) as f64);
        }
        v.declare_ordered(0, 0);
        assert_ordered_indexes_match_a_rebuild(&v);
        let all = [None];
        let mut sums = [0.0];
        assert!(v
            .range_sums(&all, 0.0, &[(10.0, 20.0)], &mut sums)
            .is_some());
        let want: f64 = (10..20).map(|p| (p % 4) as f64).sum();
        assert_eq!(sums[0], want);
        let cut = v.cut(&all, true, &mut |above| above < 10.0).map(|c| c.0);
        // Σ above 23 is 9 (24 and 28 hold nothing), Σ above 22 is 12.
        assert_eq!(cut, Some((23.0, f64::INFINITY)));
        let mut walked = Vec::new();
        v.walk_band(&all, (25.0, 30.0), true, &mut |k, m| walked.push((k, m)));
        let want: Vec<(f64, f64)> = (26..=30).map(|p| (p as f64, (p % 4) as f64)).collect();
        assert_eq!(
            walked,
            want.into_iter().filter(|e| e.1 != 0.0).collect::<Vec<_>>()
        );
        // A scan of the whole map walks the primary, in its order.
        let primary: Vec<Tuple> = v.data.keys().cloned().collect();
        let scanned: Vec<Tuple> = v.lookup(&all).into_iter().map(|e| e.0).collect();
        assert_eq!(scanned, primary);
        let totals = v.index_totals();
        assert_eq!(
            (
                totals.get("indexes.hash"),
                totals.get("indexes.ordered"),
                totals.get("indexes.entries")
            ),
            (0, 1, v.len() as u64)
        );
        assert!(totals.get("indexes.ordered_bytes") > 0);
        assert_eq!(
            v.approx_bytes(),
            v.map_bytes() + totals.get("indexes.bytes") as usize
        );
        v.clear();
        assert!(v.has_index(0) && v.index_totals().get("indexes.bytes") == 0);
        v.add(key(&[7]), 2.0);
        assert_ordered_indexes_match_a_rebuild(&v);
        assert_eq!(v.index_totals().get("indexes.entries"), 1);
    }

    /// A wider view has no mask-0 ordered index: the mask must bind every
    /// column but the sorted one.
    #[test]
    #[should_panic(expected = "an ordered index binds every key column but the one")]
    fn a_mask_zero_ordered_index_needs_a_one_column_view() {
        ViewMap::new(Schema::new(["g", "t"])).declare_ordered(0, 1);
    }

    /// The cost model, pinned: a hash-index group pays its table slot and
    /// then what its members hold — nothing for one inline member, a value
    /// per free column in a vector, the table of a set — and an
    /// ordered index 24 bytes per entry plus its block headers and the group
    /// key once. Multiplicities are charged once, in the primary map.
    #[test]
    fn approx_bytes_charges_each_index_what_it_holds() {
        let tuple = std::mem::size_of::<Tuple>() as u64;
        let value = std::mem::size_of::<Value>() as u64;
        let group = tuple + 8 + std::mem::size_of::<Group>() as u64;
        let set = std::mem::size_of::<FastSet<Tuple>>() as u64;
        let mut ordered = ViewMap::new(Schema::new(["g", "t"]));
        ordered.declare_ordered(0b01, 1);
        let mut hashed = ViewMap::new(Schema::new(["g", "t"]));
        hashed.declare_hash(0b01);
        let (groups, per_group) = (4u64, 1000u64);
        for v in [&mut ordered, &mut hashed] {
            for i in 0..(groups * per_group) as i64 {
                v.add(key(&[i % groups as i64, 1 + i]), 1.0);
            }
        }
        let n = groups * per_group;
        let primary = n * (tuple + 16);
        // Large groups: each a set, whose table has the 2048 buckets that
        // the 7/8 load limit calls for at 1000 members.
        let h = hashed.index_totals();
        assert_eq!(
            (
                h.get("indexes.hash"),
                h.get("indexes.ordered"),
                h.get("indexes.entries")
            ),
            (1, 0, n)
        );
        assert_eq!(
            h.get("indexes.bytes"),
            groups * (group + set + 2048 * (tuple + 1) + 16)
        );
        assert_eq!(
            hashed.approx_bytes() as u64,
            primary + h.get("indexes.bytes")
        );
        // Small groups, one free column: one inline member costs its slot
        // alone, five cost five values. Two free columns: two values each.
        let mut small = ViewMap::new(Schema::new(["g", "t"]));
        small.declare_hash(0b01);
        small.add(key(&[0, 0]), 1.0);
        (1..=5).for_each(|t| small.add(key(&[1, t]), 2.0));
        assert_eq!(
            small.index_totals().get("indexes.bytes"),
            2 * group + 5 * value
        );
        let mut wide = ViewMap::new(Schema::new(["g", "a", "b"]));
        wide.declare_hash(0b001);
        (0..6).for_each(|i| wide.add(key(&[i % 2, i, -i]), 1.0));
        assert_eq!(
            wide.index_totals().get("indexes.bytes"),
            2 * group + 6 * 2 * value
        );
        // The map's own bytes: the live map, and each snapshot buffer it
        // keeps a copy of it — outside `approx_bytes`.
        assert_eq!(hashed.map_bytes() as u64, primary);
        assert_eq!(hashed.snapshot_bytes(), 0);
        let (_first, _second) = (hashed.to_gmr(), hashed.to_gmr());
        assert_eq!(hashed.snapshot_bytes(), hashed.map_bytes());
        hashed.add(key(&[0, 0]), 1.0);
        let _third = hashed.to_gmr();
        let one_more = tuple + 16;
        assert_eq!(hashed.snapshot_bytes() as u64, 2 * primary + one_more);
        let footprint = hashed.readings();
        assert_eq!(
            (footprint.get("map_bytes"), footprint.get("snapshot_bytes")),
            (primary + one_more, 2 * primary + one_more)
        );
        assert_eq!(
            (
                footprint.get("indexes.hash"),
                footprint.get("indexes.bytes")
            ),
            (1, hashed.index_totals().get("indexes.bytes"))
        );
        assert_eq!(
            (
                footprint.get("indexes.hash_bytes"),
                footprint.get("indexes.ordered_bytes")
            ),
            (footprint.get("indexes.bytes"), 0)
        );
        let o = ordered.index_totals();
        assert_eq!(
            (
                o.get("indexes.hash"),
                o.get("indexes.ordered"),
                o.get("indexes.entries")
            ),
            (0, 1, n)
        );
        assert_eq!(
            (o.get("indexes.hash_bytes"), o.get("indexes.ordered_bytes")),
            (0, o.get("indexes.bytes"))
        );
        let per_entry = (o.get("indexes.bytes") - groups * (tuple + 16)) as f64 / n as f64;
        assert!(
            (24.0..26.0).contains(&per_entry),
            "an ordered entry costs its 24 bytes and a share of a block header, not {per_entry}"
        );
        assert_eq!(
            ordered.approx_bytes() as u64,
            primary + o.get("indexes.bytes")
        );
        // The ratio the two formulas above give: a set's bucket and control
        // byte against an ordered entry's 26 bytes at most.
        let ratio = (tuple + 1) as f64 / 26.0;
        assert!(
            o.get("indexes.bytes") as f64 * ratio < h.get("indexes.bytes") as f64,
            "{} vs {} (ratio {ratio})",
            o.get("indexes.bytes"),
            h.get("indexes.bytes")
        );
        assert_ordered_indexes_match_a_rebuild(&ordered);
        assert_hash_indexes_match_a_rebuild(&hashed);
        assert_hash_indexes_match_a_rebuild(&small);
        assert_hash_indexes_match_a_rebuild(&wide);
    }

    /// The form a group of `members` members of `width` free columns each
    /// must take, and the form it has.
    fn forms(g: &Group, width: usize) -> (&'static str, &'static str) {
        let members = g.members(width);
        let want = if members == 1 && width == 1 {
            "one"
        } else if members <= SMALL_GROUP {
            "small"
        } else {
            "large"
        };
        let has = match g {
            Group::One(_) => "one",
            Group::Small(_) => "small",
            Group::Large(_) => "large",
        };
        (want, has)
    }

    /// Every hash index of `v` must be what declaring it afresh over the
    /// primary map builds: the same groups, each in the form its size picks
    /// with the same members (as free-column tuples), and the same bytes.
    /// Every member is a primary entry, so no group is empty.
    fn assert_hash_indexes_match_a_rebuild(v: &ViewMap) {
        let sorted = |g: &Group, width: usize| {
            let mut members = Vec::new();
            g.for_each(width, |free| members.push(Tuple::from(free)));
            members.sort();
            members
        };
        let mut fresh = ViewMap::new(v.schema().clone());
        fresh.data = v.data.clone();
        for (mask, index) in &v.indexes {
            let Index::Hash(kept) = index else {
                continue;
            };
            fresh.declare_hash(*mask);
            let Some(Index::Hash(rebuilt)) = fresh.index(*mask) else {
                panic!("declared hash");
            };
            let width = kept.free.len();
            assert_eq!(kept.free, rebuilt.free, "mask {mask:#b}");
            assert_eq!(kept.bytes, rebuilt.bytes, "mask {mask:#b}");
            assert_eq!(kept.groups.len(), rebuilt.groups.len(), "mask {mask:#b}");
            for (key, group) in &kept.groups {
                let other = &rebuilt.groups[key];
                let (want, has) = forms(group, width);
                assert_eq!(want, has, "group {key}");
                assert_eq!(forms(other, width), (want, has), "group {key}");
                assert!(group.members(width) > 0, "group {key}");
                assert_eq!(sorted(group, width), sorted(other, width), "group {key}");
            }
        }
    }

    /// A hash-index group is one inline member, a vector up to `SMALL_GROUP`
    /// members and a set past it, whichever way it got there; an emptied
    /// group is removed and its bytes returned.
    #[test]
    fn a_hash_group_changes_form_at_its_size_limit_both_ways() {
        let mut v = ViewMap::new(Schema::new(["g", "t"]));
        v.declare_hash(0b01);
        let limit = SMALL_GROUP as i64;
        let group = |v: &ViewMap| -> Option<(usize, &'static str)> {
            let Some(Index::Hash(h)) = v.index(0b01) else {
                panic!("declared hash");
            };
            let g = h.groups.get(&key(&[1]))?;
            Some((g.members(1), forms(g, 1).1))
        };
        // Grow past the limit, rewriting multiplicities on the way.
        for t in 0..2 * limit {
            v.add(key(&[1, t]), 1.0 + t as f64);
            v.add(key(&[1, t / 2]), 0.5);
            assert_hash_indexes_match_a_rebuild(&v);
            if t == 0 {
                assert_eq!(group(&v), Some((1, "one")));
            }
        }
        assert_eq!(group(&v), Some((2 * SMALL_GROUP, "large")));
        // Shrink back across it, from both ends, down to the inline form.
        for t in 0..2 * limit - 1 {
            let t = if t % 2 == 0 {
                t / 2
            } else {
                2 * limit - 1 - t / 2
            };
            v.add(key(&[1, t]), -v.get(&key(&[1, t])));
            assert_hash_indexes_match_a_rebuild(&v);
        }
        assert_eq!(group(&v), Some((1, "one")));
        // Empty it: the group is gone and the index holds nothing.
        let last = v.iter().next().map(|(k, m)| (k.clone(), m)).unwrap();
        v.add(last.0, -last.1);
        assert_hash_indexes_match_a_rebuild(&v);
        assert_eq!(group(&v), None);
        assert_eq!(v.index_totals().get("indexes.bytes"), 0);
        assert!(v.is_empty());
    }

    /// A hash scan rebuilds each member's key and probes the primary map, so
    /// it finds what equality finds and hands out the key as stored: a
    /// `Long(1)` pattern finds a `Double(1.0)` key, `0.0` finds `-0.0`, a
    /// NaN finds a NaN, an empty string itself, and a spilled arity-4 key is
    /// rebuilt whole. Removing each, in another representation of the same
    /// values where there is one, empties the index.
    #[test]
    fn hostile_keys_round_trip_through_a_hash_index() {
        let (l, d, s) = (Value::long, Value::double, Value::str);
        // (stored key, the pattern a scan binds, what removes it)
        let two: [(Vec<Value>, Value, Vec<Value>); 6] = [
            (vec![d(1.0), l(5)], l(1), vec![l(1), l(5)]),
            (vec![l(7), d(2.0)], l(7), vec![l(7), l(2)]),
            (vec![d(-0.0), l(1)], d(0.0), vec![d(0.0), l(1)]),
            (vec![l(3), d(-0.0)], l(3), vec![l(3), l(0)]),
            (
                vec![d(f64::NAN), d(f64::NAN)],
                d(f64::NAN),
                vec![d(f64::NAN), d(f64::NAN)],
            ),
            (vec![s(""), s("")], s(""), vec![s(""), s("")]),
        ];
        let mut v = ViewMap::new(Schema::new(["g", "t"]));
        v.declare_hash(0b01);
        for (stored, _, _) in &two {
            v.add(Tuple::from(stored.clone()), 2.0);
            // A second member beside each, so groups take the vector form.
            v.add(Tuple::from(vec![stored[0].clone(), s("x")]), 1.0);
        }
        assert_hash_indexes_match_a_rebuild(&v);
        for (stored, bound, _) in &two {
            let mut found = v.lookup(&[Some(bound.clone()), None]);
            found.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(found.len(), 2, "{stored:?}");
            let (k, m) = found.iter().find(|(k, _)| k[1] != s("x")).unwrap();
            assert_eq!(*m, 2.0, "{stored:?}");
            // The stored representation, not the pattern's.
            assert_eq!(format!("{:?}", k.to_vec()), format!("{stored:?}"));
        }
        for (stored, _, removes) in &two {
            v.add(Tuple::from(removes.clone()), -2.0);
            v.add(Tuple::from(vec![stored[0].clone(), s("x")]), -1.0);
            assert_hash_indexes_match_a_rebuild(&v);
        }
        assert!(v.is_empty());
        assert_eq!(v.index_totals().get("indexes.bytes"), 0);

        // A spilled key, two columns bound and two free, strings included.
        let mut v = ViewMap::new(Schema::new(["a", "b", "c", "d"]));
        v.declare_hash(0b0101);
        let wide =
            |i: i64| Tuple::from(vec![l(i % 2), s(""), d(-0.0), Value::str(format!("k{i}"))]);
        for i in 0..40 {
            v.add(wide(i), 1.0 + i as f64);
            assert_hash_indexes_match_a_rebuild(&v);
        }
        assert!(!wide(0).is_inline());
        let pattern = [Some(d(1.0)), None, Some(l(0)), None];
        let found = v.lookup(&pattern);
        assert_eq!(found.len(), 20);
        for (k, m) in &found {
            assert_eq!(v.get(k), *m);
            assert!(matches!(k[0], Value::Long(1)) && matches!(k[2], Value::Double(_)));
        }
        for i in 0..40 {
            v.add(wide(i), -1.0 - i as f64);
            assert_hash_indexes_match_a_rebuild(&v);
        }
        assert!(v.is_empty());
        assert_eq!(v.index_totals().get("indexes.bytes"), 0);
    }

    /// An index is a declaration: it survives the clear, empty, and tracks
    /// the writes that follow — a hash index as an ordered one.
    #[test]
    fn clear_empties_indexes_and_keeps_them() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.declare_hash(0b01);
        v.clear();
        assert!(v.is_empty());
        let emptied = ViewSummary::default().with("indexes.hash", 1);
        assert_eq!(v.index_totals(), emptied);
        assert!(v.lookup(&[Some(Value::long(1)), None]).is_empty());
        v.add(key(&[1, 20]), 2.0);
        v.add(key(&[2, 20]), 3.0);
        assert_eq!(
            v.lookup(&[Some(Value::long(1)), None]),
            vec![(key(&[1, 20]), 2.0)]
        );
        assert_eq!(v.index_totals().get("indexes.entries"), 2);

        let mut v = ordered_fixture();
        v.clear();
        assert_eq!(
            v.index_totals(),
            ViewSummary::default().with("indexes.ordered", 1)
        );
        assert_eq!(range(&v, 1, 0.0, 100.0), Some(0.0));
        v.add(key(&[1, 10]), 3.0);
        v.add(key(&[1, 20]), 4.0);
        assert_eq!(range(&v, 1, 0.0, 15.0), Some(3.0));
        assert_ordered_indexes_match_a_rebuild(&v);
    }

    #[test]
    fn clone_preserves_contents_and_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.declare_hash(0b01);
        let c = v.clone();
        assert_eq!(c.get(&key(&[1, 10])), 1.0);
        assert!(c.has_index(0b01));
        assert_eq!(c.lookup(&[Some(Value::long(1)), None]).len(), 1);

        // A clone's ordered index is its own: writes to either side leave
        // the other's answers alone.
        let mut v = ordered_fixture();
        let mut c = v.clone();
        let before = range(&v, 1, 0.0, 100.0);
        c.add(key(&[1, 50]), 7.0);
        v.add(key(&[2, 1000]), -0.5);
        assert_eq!(range(&v, 1, 0.0, 100.0), before);
        assert_eq!(range(&c, 1, 0.0, 100.0), before.map(|s| s + 7.0));
        assert_eq!(range(&c, 2, 0.0, 100.0), None);
        assert_ordered_indexes_match_a_rebuild(&v);
        assert_ordered_indexes_match_a_rebuild(&c);
    }

    #[test]
    fn load_gmr_refills_ordered_indexes() {
        let source = ordered_fixture();
        // Same schema (the wholesale copy) and renamed columns (the per-row
        // path), into a view that held something else.
        for columns in [["g", "t"], ["x", "y"]] {
            let mut v = ViewMap::new(Schema::new(columns));
            v.declare_ordered(0b01, 1);
            v.add(key(&[9, 9]), 9.0);
            v.load_gmr(&source.to_gmr());
            assert_eq!(v.len(), source.len());
            assert_eq!(range(&v, 9, 0.0, 100.0), Some(0.0));
            assert_eq!(range(&v, 1, 10.0, 40.0), range(&source, 1, 10.0, 40.0));
            assert_ordered_indexes_match_a_rebuild(&v);
        }
    }

    /// A scan of a mask nobody declared walks the map and builds nothing;
    /// it hands out exactly the entries a scan of a declared index of that
    /// mask does, for every pattern of every mask, empty groups included.
    #[test]
    fn a_scan_of_an_undeclared_mask_walks_to_what_an_indexed_scan_returns() {
        let mut walked = ViewMap::new(Schema::new(["a", "b", "c"]));
        for i in 0..60i64 {
            walked.add(key(&[i % 4, i % 7, i]), 1.0 + (i % 3) as f64);
        }
        walked.add(key(&[1, 1, 1]), -2.0); // cancels an entry
        let mut indexed = walked.clone();
        for mask in 1..0b111 {
            indexed.declare_hash(mask);
        }
        assert_eq!(indexed.index_totals().get("indexes.hash"), 6);
        let sorted = |mut rows: Vec<(Tuple, f64)>| {
            rows.sort_by(|x, y| x.0.cmp(&y.0));
            rows
        };
        for mask in 1..0b111u64 {
            for probe in [(0, 0, 0), (1, 3, 8), (3, 6, 59), (9, 9, 99)] {
                let probe = [probe.0, probe.1, probe.2].map(Value::long);
                let pattern: Vec<Option<Value>> = (0..3)
                    .map(|i| (mask & (1 << i) != 0).then(|| probe[i].clone()))
                    .collect();
                assert_eq!(
                    sorted(walked.lookup(&pattern)),
                    sorted(indexed.lookup(&pattern)),
                    "mask {mask:#b}, pattern {pattern:?}"
                );
            }
        }
        assert_eq!(walked.index_totals(), ViewSummary::default());
    }
}
