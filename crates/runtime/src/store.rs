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
//! * **Keys are [`Tuple`]s** — inline up to arity `INLINE_CAP` (3), cheap to clone (at most a few
//!   `Value` copies or one `Arc` bump), hashed with the fast deterministic
//!   [`FastMap`] hasher. A single-tuple view update is one hash probe with no key
//!   allocation.
//! * **Cursor reads** — [`ViewMap::for_each`] streams *borrowed* `(&[Value], f64)`
//!   entries to a visitor; nothing on the read path clones a key. The collecting
//!   [`ViewMap::lookup`] remains for tests and cold callers.
//! * **Indexes are declared, not discovered** — [`ViewMap::declare_hash`] and
//!   [`ViewMap::declare_ordered`] build the index of one binding-pattern mask from the
//!   current contents, every write after keeps it current, and [`ViewMap::clear`]
//!   empties it and keeps it. The engine declares, from the compiled program, one index
//!   per `(map, mask)` some kernel scans (the compiler's `hash_indexes` and
//!   `ordered_indexes`), so no read ever builds one: reads take `&self` and change
//!   nothing, and a kernel may nest a scan of a view inside the visit of another scan
//!   of it. A scan of a mask nobody declared (a test, a cold caller) walks the map,
//!   filtering by the pattern.
//! * **Index maintenance pays only when indexes exist** — [`ViewMap::add`] takes the
//!   fast path (a single map probe, zero clones) while the view has no secondary
//!   index; otherwise every write is mirrored into each index (one group probe per
//!   index), a plain loop over the view's handful of `(mask, index)` pairs.
//! * **Two index representations, one per mask** — a *hash* index maps a projected key
//!   to its bucket of `(full key, multiplicity)`, so a partial-pattern scan is pure
//!   bucket iteration with no probe back into the primary map, and a write is one
//!   bucket probe (the key is cloned only when the entry is new). An *ordered* index,
//!   for a mask that leaves one column free, maps a projected key to a run of
//!   `(free-column value, multiplicity)` sorted by that value with running sums,
//!   which answers [`ViewMap::range_sums`] in `O(log n)` and takes a write in `O(√n)`
//!   amortized (see the `ordered` module for the layout and the exactness contract).
//!   It stores no full keys, so scanning it costs a primary probe per entry — the
//!   fallback path, not the one it is declared for. A mask has one index: an
//!   ordered declaration replaces a hash index of the same mask.
//! * **Cost model** — [`ViewMap::approx_bytes`] charges each primary entry and
//!   each hash-bucket entry its map-slot footprint (spilled — arity > 3 —
//!   tuples add their shared value slab; a bucket entry adds its mirrored
//!   multiplicity, a bucket its projected key), and an ordered group its key
//!   once plus 24 bytes per entry and one `Vec` header per block. Index
//!   footprints are maintained per write, so [`ViewMap::index_totals`] is
//!   `O(indexes)`. `Value` itself is 24 bytes inline; string values are
//!   interned `Arc<str>`s whose bodies are shared, and dates are plain
//!   `yyyymmdd` longs, so the slab estimate does not double-count string
//!   storage.
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

use crate::ordered::{tuple_slot_bytes, GroupKey, OrderedIndex};
use dbtoaster_agca::eval::{matches_pattern, EvalError, RelId, RelationSource};
use dbtoaster_compiler::IndexStats;
use dbtoaster_gmr::hash::fast_map_with_capacity;
use dbtoaster_gmr::{FastMap, FastSet, Gmr, Schema, Tuple, Value};
use std::sync::{Arc, Mutex, PoisonError};

/// A hash secondary index: projected key → (full key → multiplicity).
/// Multiplicities are mirrored into the buckets so a partial-pattern scan is
/// pure iteration — no per-entry probe back into the primary map. Maintenance
/// is O(1) per write (one bucket probe).
#[derive(Clone, Debug, Default)]
struct HashIndex {
    buckets: FastMap<Tuple, FastMap<Tuple, f64>>,
    /// Footprint, maintained per write.
    bytes: usize,
}

impl HashIndex {
    /// Mirror one primary-map write: `full` (projecting to `group`) now has
    /// multiplicity `mult`, `0.0` meaning it is gone.
    fn set(&mut self, group: Tuple, full: &Tuple, mult: f64) {
        let held = tuple_slot_bytes(full) + std::mem::size_of::<f64>();
        if mult == 0.0 {
            if let Some(bucket) = self.buckets.get_mut(&group) {
                if bucket.remove(full.as_slice()).is_some() {
                    self.bytes -= held;
                }
                if bucket.is_empty() {
                    self.buckets.remove(&group);
                    self.bytes -= tuple_slot_bytes(&group) + 8;
                }
            }
            return;
        }
        use std::collections::hash_map::Entry;
        let bucket = match self.buckets.entry(group) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.bytes += tuple_slot_bytes(v.key()) + 8;
                v.insert(FastMap::default())
            }
        };
        // Overwrite in place when the entry exists, so multiplicity-only
        // updates cost one probe and no key clone.
        match bucket.get_mut(full.as_slice()) {
            Some(slot) => *slot = mult,
            None => {
                bucket.insert(full.clone(), mult);
                self.bytes += held;
            }
        }
    }
}

/// The secondary index of one binding-pattern mask (see the module docs).
#[derive(Clone, Debug)]
enum Index {
    Hash(HashIndex),
    Ordered(OrderedIndex),
}

impl Index {
    fn set(&mut self, group: Tuple, full: &Tuple, mult: f64) {
        match self {
            Index::Hash(h) => h.set(group, full, mult),
            Index::Ordered(o) => o.set(group, full, mult),
        }
    }

    fn clear(&mut self) {
        match self {
            Index::Hash(h) => {
                h.buckets.clear();
                h.bytes = 0;
            }
            Index::Ordered(o) => o.clear(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Index::Hash(h) => h.bytes,
            Index::Ordered(o) => o.bytes(),
        }
    }
}

/// What readers get: an immutable shared copy of a view's primary map.
type Buffer = Arc<FastMap<Tuple, f64>>;

/// The snapshot lock of a [`ViewMap`] guards a value that is consistent
/// after every single update (see [`SnapshotState`]), so a lock poisoned by
/// a panicking reader is recovered rather than propagated.
fn unpoisoned<G>(lock_result: Result<G, PoisonError<G>>) -> G {
    lock_result.unwrap_or_else(PoisonError::into_inner)
}

/// The write log is abandoned — and the next snapshots are full copies — once
/// it holds more keys than `len() / PATCH_BUDGET_DIVISOR`. Measured on
/// `tpch_dash` (310k entries in 45 views, seed 42, 2-core host; the
/// benchmark's batch-512 pass, a snapshot every fourth batch): a full copy
/// costs 46–65 ns per entry — building it and freeing the buffer it replaces,
/// 14–20 ms per snapshot before buffers were recycled — and a patched key
/// 265–490 ns (3.1–5.7 ms per 11.6k logged keys), because each one is a probe
/// into the live map and an insert into a buffer that has fallen out of the
/// caches. Run back to back, one logged key is worth 7–8 copied entries, so
/// at 8 a patch costs at most about what the copy would have. The same bound
/// keeps the log under an eighth of the view's key count however long a view
/// goes between snapshots, and sends small hot views (a handful of groups,
/// hundreds of writes per batch) down the copy branch, which for them is the
/// cheap one.
const PATCH_BUDGET_DIVISOR: usize = 8;

/// Work done by [`ViewMap::to_gmr`] since the view was created (summed over
/// views by [`Database::snapshot_work`]). Timing-free: the counts depend only
/// on the sequence of writes, snapshots and buffer holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotWork {
    /// Logged keys replayed into a reclaimed buffer (duplicates included).
    pub keys_patched: u64,
    /// Entries copied by full copies.
    pub entries_copied: u64,
    /// Full copies because the view had not yet handed out two buffers.
    pub first_copies: u64,
    /// Full copies because someone still held the buffer due for reuse — a
    /// reader that never lets go, a subscriber baseline, a checkpoint being
    /// written.
    pub pinned_copies: u64,
    /// Full copies (up to two per abandonment) because the write log was
    /// abandoned: a `clear`/`load_gmr`, or more writes than the patch budget.
    pub abandoned_copies: u64,
    /// Write logs abandoned: a `clear`/`load_gmr` of a view that had handed
    /// out a buffer, or more writes than the patch budget. Each costs the
    /// next one or two snapshots a full copy, and a subscriber cursor a full
    /// diff ([`ViewMap::to_gmr_since`]).
    pub logs_abandoned: u64,
}

impl SnapshotWork {
    /// Full copies for any reason.
    pub fn full_copies(&self) -> u64 {
        self.first_copies + self.pinned_copies + self.abandoned_copies
    }
}

impl std::ops::AddAssign for SnapshotWork {
    fn add_assign(&mut self, o: SnapshotWork) {
        self.keys_patched += o.keys_patched;
        self.entries_copied += o.entries_copied;
        self.first_copies += o.first_copies;
        self.pinned_copies += o.pinned_copies;
        self.abandoned_copies += o.abandoned_copies;
        self.logs_abandoned += o.logs_abandoned;
    }
}

/// The buffers a view has handed out and the log that brings them up to date.
/// Every update leaves it consistent: a buffer is taken out before it is
/// patched, and the log is trimmed only after.
#[derive(Debug, Default)]
struct SnapshotState {
    /// The buffer handed out last: `data` as of `log[mark..]` not yet applied.
    /// `Some` is also what turns write logging on.
    newer: Option<Buffer>,
    /// The buffer handed out before it: `data` as of none of `log` applied.
    older: Option<Buffer>,
    /// Keys written since `older` was current (since `newer`, while there is
    /// no `older`), in write order, duplicates included.
    log: Vec<Tuple>,
    /// `log[..mark]` was written before `newer` was handed out.
    mark: usize,
    /// The log was abandoned and no patch has succeeded since (the next full
    /// copy is counted as an abandoned one).
    abandoned: bool,
    work: SnapshotWork,
}

impl SnapshotState {
    /// Log one written key of a view that holds `entries` entries. Out of
    /// line, so the write loop of a view that is never snapshotted stays as
    /// small as it was before there was a log.
    #[inline(never)]
    fn log_key(&mut self, key: &Tuple, entries: usize) {
        self.log.push(key.clone());
        if self.log.len() * PATCH_BUDGET_DIVISOR > entries {
            self.abandon();
        }
    }

    /// The keys written since `earlier` was handed out, each once, when
    /// `earlier` is one of the two buffers (see [`ViewMap::to_gmr_since`]).
    /// Identity is sound: the caller holds `earlier`, so it is alive and was
    /// not patched since, and a live `Arc` is the only one at its address.
    fn written_since(&self, earlier: &Buffer) -> Option<Vec<Tuple>> {
        let is = |b: &Option<Buffer>| b.as_ref().is_some_and(|b| Arc::ptr_eq(b, earlier));
        let from = if is(&self.newer) {
            self.mark
        } else if is(&self.older) {
            0
        } else {
            return None;
        };
        let mut seen = FastSet::default();
        Some(
            self.log[from..]
                .iter()
                .filter(|k| seen.insert(*k))
                .cloned()
                .collect(),
        )
    }

    /// Give up on patching: forget both buffers (their holders keep them
    /// alive) and stop logging until the next snapshot.
    fn abandon(&mut self) {
        if self.newer.is_some() {
            self.newer = None;
            self.older = None;
            self.log.clear();
            self.mark = 0;
            self.abandoned = true;
            self.work.logs_abandoned += 1;
        }
    }
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
    /// With no secondary indexes this is a single map probe and never clones
    /// the key; once indexes exist, the key is cloned only when the entry set
    /// changes (insert of a new key or removal of a cancelled one).
    pub fn add(&mut self, key: impl Into<Tuple>, mult: f64) {
        if mult != 0.0 {
            let key = key.into();
            self.log_write(&key);
            self.add_unlogged(key, mult);
        }
    }

    /// Apply a pre-buffered row batch: every surviving (non-zero) row is added
    /// in iteration order.
    pub fn add_rows<'a>(&mut self, rows: impl IntoIterator<Item = (&'a Tuple, f64)>) {
        for (key, mult) in rows {
            if mult == 0.0 {
                continue;
            }
            self.log_write(key);
            self.add_unlogged(key.clone(), mult);
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

    /// The shared write path behind [`ViewMap::add`] / [`ViewMap::add_rows`]:
    /// everything except the snapshot log. `mult` must be non-zero.
    fn add_unlogged(&mut self, key: Tuple, mult: f64) {
        debug_assert_eq!(key.len(), self.schema.arity(), "key arity mismatch");
        use std::collections::hash_map::Entry;

        if self.indexes.is_empty() {
            // Fast path: no index maintenance, no key clone.
            match self.data.entry(key) {
                Entry::Occupied(mut o) => {
                    let v = o.get_mut();
                    *v += mult;
                    if *v == 0.0 {
                        o.remove();
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(mult);
                }
            }
            return;
        }

        let new_mult = match self.data.entry(key.clone()) {
            Entry::Occupied(mut o) => {
                let v = o.get_mut();
                *v += mult;
                if *v == 0.0 {
                    o.remove();
                    0.0
                } else {
                    *v
                }
            }
            Entry::Vacant(v) => {
                v.insert(mult);
                mult
            }
        };
        for (mask, index) in &mut self.indexes {
            index.set(project_mask(&key, *mask), &key, new_mult);
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
        let mut index = HashIndex {
            buckets: fast_map_with_capacity(self.data.len()),
            bytes: 0,
        };
        for (k, &m) in self.data.iter() {
            index.set(project_mask(k, mask), k, m);
        }
        self.indexes.push((mask, Index::Hash(index)));
    }

    /// Keep the secondary index of `mask` as an ordered index on the key
    /// column `key_pos` — the one column the mask must leave free — from now
    /// on, built from the current contents and replacing a hash index of the
    /// same mask. A no-op when the mask already has its ordered index.
    pub fn declare_ordered(&mut self, mask: u64, key_pos: usize) {
        let arity = self.schema.arity();
        assert!(
            mask != 0 && (0..arity).all(|i| (i < 63 && mask & (1 << i) != 0) != (i == key_pos)),
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

    /// Stream the entries matching a partial binding pattern into `visit`,
    /// borrowing keys straight out of the store: one primary probe when the
    /// pattern binds every column, one bucket of the mask's declared index
    /// when it binds some, the whole map otherwise — or when nobody declared
    /// an index for the mask, then filtered by the pattern.
    pub fn for_each(&self, pattern: &[Option<Value>], visit: &mut dyn FnMut(&[Value], f64)) {
        debug_assert_eq!(pattern.len(), self.schema.arity());
        let mask = pattern_mask(pattern);
        if mask == 0 {
            for (k, &m) in self.data.iter() {
                visit(k, m);
            }
            return;
        }
        if full_mask(self.schema.arity()) == Some(mask) {
            // Fully bound: a single primary probe.
            let key: Tuple = pattern.iter().map(|p| p.clone().unwrap()).collect();
            if let Some(&m) = self.data.get(key.as_slice()) {
                visit(&key, m);
            }
            return;
        }
        let probe = || -> Tuple { pattern.iter().flatten().cloned().collect() };
        match self.index(mask) {
            Some(Index::Hash(h)) => {
                for (k, &m) in h.buckets.get(&probe()).into_iter().flatten() {
                    visit(k, m);
                }
            }
            // An ordered group holds no full keys: rebuild each from the
            // pattern and probe the primary map, which also knows whether the
            // sorted column was stored as a long or a double.
            Some(Index::Ordered(o)) => o.for_each_key(&probe(), &mut |key| {
                let band;
                let full: &[Value] = match key {
                    GroupKey::Full(full) => full.as_slice(),
                    GroupKey::Band(k) => {
                        band = pattern
                            .iter()
                            .map(|p| p.clone().unwrap_or(Value::Double(k)))
                            .collect::<Tuple>();
                        band.as_slice()
                    }
                };
                if let Some((k, &m)) = self.data.get_key_value(full) {
                    visit(k, m);
                }
            }),
            None => {
                for (k, &m) in self.data.iter() {
                    if matches_pattern(k, pattern) {
                        visit(k, m);
                    }
                }
            }
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
        let Index::Ordered(index) = self.index(pattern_mask(pattern))? else {
            return None;
        };
        let probe: Tuple = pattern.iter().flatten().cloned().collect();
        index.range_sums(&probe, bound_mag, ranges, sums)
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
        let mut guard = unpoisoned(self.snapshots.lock());
        let s = &mut *guard;
        let written = earlier
            .and_then(Gmr::shared_data)
            .and_then(|e| s.written_since(e));
        if let Some(newer) = s.newer.as_ref().filter(|_| s.log.len() == s.mark) {
            return (
                Gmr::from_shared(self.schema.clone(), newer.clone()),
                written,
            );
        }
        let mut reused = s.older.take();
        let current = match reused.as_mut().and_then(Arc::get_mut) {
            Some(buffer) => {
                for key in &s.log {
                    match self.data.get(key) {
                        Some(&m) => drop(buffer.insert(key.clone(), m)),
                        None => drop(buffer.remove(key)),
                    }
                }
                s.work.keys_patched += s.log.len() as u64;
                s.abandoned = false;
                reused.expect("patched in place")
            }
            None => {
                if reused.is_some() {
                    s.work.pinned_copies += 1;
                } else if s.abandoned {
                    s.work.abandoned_copies += 1;
                } else {
                    s.work.first_copies += 1;
                }
                s.work.entries_copied += self.data.len() as u64;
                Arc::new(self.data.clone())
            }
        };
        // Rotate: what was newer is now the older buffer, and the log keeps
        // only what was written since it was handed out.
        s.log.drain(..s.mark);
        s.mark = s.log.len();
        s.older = s.newer.replace(current.clone());
        (Gmr::from_shared(self.schema.clone(), current), written)
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
                    index.set(project_mask(k, *mask), k, m);
                }
            }
            return;
        }
        let positions: Option<Vec<usize>> = if gmr.schema().same_columns(&self.schema) {
            self.schema
                .columns()
                .iter()
                .map(|c| gmr.schema().index_of(c))
                .collect()
        } else {
            None
        };
        for (t, m) in gmr.iter() {
            let key: Tuple = match &positions {
                Some(pos) => pos.iter().map(|&i| t[i].clone()).collect(),
                None => t.clone(),
            };
            self.add(key, m);
        }
    }

    /// Approximate heap footprint in bytes (entries plus secondary indexes).
    /// See the module docs for the cost model.
    pub fn approx_bytes(&self) -> usize {
        let base: usize = self.data.keys().map(tuple_slot_bytes).sum();
        base + self.index_totals().bytes as usize
    }

    /// How many secondary indexes of each representation the view has, and
    /// what they hold: entries summed over the indexes (every primary entry
    /// appears once in each) and bytes under the cost model of
    /// [`ViewMap::approx_bytes`]. `O(indexes)` — footprints are maintained
    /// per write.
    pub fn index_totals(&self) -> IndexStats {
        let mut t = IndexStats::default();
        for (_, index) in &self.indexes {
            match index {
                Index::Hash(_) => {
                    t.hash += 1;
                    t.entries += self.data.len() as u64;
                }
                Index::Ordered(o) => {
                    t.ordered += 1;
                    t.entries += o.entries() as u64;
                }
            }
            t.bytes += index.bytes() as u64;
        }
        t
    }
}

fn pattern_mask(pattern: &[Option<Value>]) -> u64 {
    pattern.iter().enumerate().fold(0u64, |m, (i, p)| {
        if p.is_some() && i < 63 {
            m | (1 << i)
        } else {
            m
        }
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

/// The runtime database: the [`ViewMap`]s holding materialized views, stored
/// base relations and static tables, addressed by [`MapId`] on the hot path
/// and by name everywhere else.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// The views; a view's index is its id.
    maps: Vec<ViewMap>,
    /// `names[id]` names `maps[id]`.
    names: Vec<String>,
    /// Name → id, for the name-addressed API.
    ids: FastMap<String, MapId>,
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
        id
    }

    /// The id of the named view, if it exists.
    pub fn id(&self, name: &str) -> Option<MapId> {
        self.ids.get(name).copied()
    }

    /// The view with id `id`. Panics on an id this database never handed out.
    pub fn at(&self, id: MapId) -> &ViewMap {
        &self.maps[id as usize]
    }

    /// Mutable access to the view with id `id`.
    pub fn at_mut(&mut self, id: MapId) -> &mut ViewMap {
        &mut self.maps[id as usize]
    }

    /// Does a view with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.ids.contains_key(name)
    }

    /// Immutable access to a view.
    pub fn view(&self, name: &str) -> Option<&ViewMap> {
        Some(self.at(self.id(name)?))
    }

    /// Mutable access to a view.
    pub fn view_mut(&mut self, name: &str) -> Option<&mut ViewMap> {
        let id = self.id(name)?;
        Some(self.at_mut(id))
    }

    /// Names of all views, sorted, borrowed from the store (no `String` clones).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let mut v: Vec<&str> = self.names.iter().map(String::as_str).collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Total approximate memory footprint of all views, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.maps.iter().map(|m| m.approx_bytes()).sum()
    }

    /// A consistent point-in-time snapshot of every view: name → shared GMR
    /// ([`ViewMap::to_gmr`]). Costs the name table (O(number of views)) plus,
    /// per view, the keys written since the buffer it reuses was current — or
    /// a full copy of the view where that buffer is pinned or its log was
    /// abandoned.
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        self.names
            .iter()
            .zip(&self.maps)
            .map(|(n, v)| (n.clone(), v.to_gmr()))
            .collect()
    }

    /// Snapshot work summed over all views.
    pub fn snapshot_work(&self) -> SnapshotWork {
        let mut total = SnapshotWork::default();
        for v in &self.maps {
            total += v.snapshot_work();
        }
        total
    }
}

impl RelationSource for Database {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.view(name).map(|m| m.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let m = self
            .view(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        m.for_each(pattern, visit);
        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(hashed.index_totals().hash, 1);
    }

    /// The cost model, pinned: a hash index pays a full key slot (plus the
    /// mirrored multiplicity) per entry, an ordered one 24 bytes per entry
    /// plus its block headers; both pay the group key once.
    #[test]
    fn approx_bytes_charges_each_index_what_it_holds() {
        let tuple = std::mem::size_of::<Tuple>() as u64;
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
        let h = hashed.index_totals();
        assert_eq!((h.hash, h.ordered, h.entries), (1, 0, n));
        assert_eq!(h.bytes, n * (tuple + 16 + 8) + groups * (tuple + 16 + 8));
        assert_eq!(hashed.approx_bytes() as u64, primary + h.bytes);
        let o = ordered.index_totals();
        assert_eq!((o.hash, o.ordered, o.entries), (0, 1, n));
        let per_entry = (o.bytes - groups * (tuple + 16)) as f64 / n as f64;
        assert!(
            (24.0..26.0).contains(&per_entry),
            "an ordered entry costs its 24 bytes and a share of a block header, not {per_entry}"
        );
        assert_eq!(ordered.approx_bytes() as u64, primary + o.bytes);
        assert!(o.bytes * 4 < h.bytes, "{} vs {}", o.bytes, h.bytes);
        assert_ordered_indexes_match_a_rebuild(&ordered);
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
        let emptied = IndexStats {
            hash: 1,
            ..IndexStats::default()
        };
        assert_eq!(v.index_totals(), emptied);
        assert!(v.lookup(&[Some(Value::long(1)), None]).is_empty());
        v.add(key(&[1, 20]), 2.0);
        v.add(key(&[2, 20]), 3.0);
        assert_eq!(
            v.lookup(&[Some(Value::long(1)), None]),
            vec![(key(&[1, 20]), 2.0)]
        );
        assert_eq!(v.index_totals().entries, 2);

        let mut v = ordered_fixture();
        v.clear();
        assert_eq!(
            v.index_totals(),
            IndexStats {
                ordered: 1,
                ..IndexStats::default()
            }
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
        assert_eq!(indexed.index_totals().hash, 6);
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
        assert_eq!(walked.index_totals(), IndexStats::default());
    }
}
