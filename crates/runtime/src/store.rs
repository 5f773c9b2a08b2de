//! View storage: keyed multiplicity maps with secondary indexes.
//!
//! The runtime stores every materialized view (and, in the baseline modes, the base
//! relations) as a [`ViewMap`]: a hash map from key tuples to multiplicities, plus
//! lazily-built secondary indexes for the partial-key binding patterns that trigger
//! statements actually use. This mirrors Section 7.1 of the paper, where the generated
//! C++ uses Boost Multi-Index containers with one secondary index per binding pattern.
//!
//! ## Hot-path design
//!
//! * **Keys are [`Tuple`]s** — inline up to arity `INLINE_CAP` (3), cheap to clone (at most a few
//!   `Value` copies or one `Arc` bump), hashed with the fast deterministic
//!   [`FastMap`] hasher. A single-tuple view update is one hash probe with no key
//!   allocation.
//! * **Cursor reads** — [`ViewMap::for_each`] streams *borrowed* `(&[Value], f64)`
//!   entries to a visitor; nothing on the read path clones a key. The collecting
//!   [`ViewMap::lookup`] remains for tests and cold callers.
//! * **Index maintenance pays only when indexes exist** — [`ViewMap::add`] takes the
//!   fast path (a single map probe, zero clones) until the view has a secondary
//!   index; afterwards every write is mirrored into each index (one group probe
//!   per index).
//! * **Two index representations, one per mask** — a *hash* index is created by
//!   the first partial-pattern lookup of its mask: projected key → bucket of
//!   `(full key, multiplicity)`, so a partial-pattern scan is pure bucket
//!   iteration with no probe back into the primary map, and a write is one
//!   bucket probe (the key is cloned only when the entry is new). An *ordered*
//!   index is declared up front ([`ViewMap::declare_ordered`]) for a mask that
//!   leaves one column free: projected key → run of `(free-column value,
//!   multiplicity)` sorted by that value with running sums, which answers
//!   [`ViewMap::range_sums`] in `O(log n)` and takes a write in `O(√n)`
//!   amortized (see the `ordered` module for the layout and the exactness
//!   contract). It stores no full keys, so scanning it costs a primary probe
//!   per entry — the fallback path, not the one it is declared for.
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
//! Secondary indexes live behind an [`RwLock`] so that read-only evaluation (through
//! the [`RelationSource`] trait) can build a hash index on first use; afterwards every
//! partial lookup is a hash probe, which is what gives compiled trigger statements
//! their constant-time behaviour.
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
//! `1/PATCH_BUDGET_DIVISOR` of the entries). Steady state is three resident
//! copies of a written view's primary map: the live one and the two buffers
//! (secondary indexes are never copied). Logging starts at a view's first
//! snapshot, so an engine that never snapshots pays one branch per write.

use crate::ordered::{tuple_slot_bytes, GroupKey, OrderedIndex};
use dbtoaster_agca::eval::{EvalError, RelationSource};
use dbtoaster_compiler::IndexStats;
use dbtoaster_gmr::hash::fast_map_with_capacity;
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

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

    fn bytes(&self) -> usize {
        match self {
            Index::Hash(h) => h.bytes,
            Index::Ordered(o) => o.bytes(),
        }
    }
}

/// Indexes are held behind `Arc`s so a scan can clone the handle and release
/// the registry lock *before* iterating. Compiled trigger kernels re-enter
/// scans from inside scan callbacks (nested sub-aggregates over the same
/// view); holding the read guard across the visit would self-deadlock against
/// a nested `ensure_index` write. Mutation goes through `Arc::make_mut`,
/// which never actually copies on the engine's single-threaded write path
/// (no scan handle is alive while `&mut self` methods run).
type IndexRegistry = FastMap<u64, Arc<Index>>;
/// What readers get: an immutable shared copy of a view's primary map.
type Buffer = Arc<FastMap<Tuple, f64>>;

/// Both locks of a [`ViewMap`] guard values that are consistent after every
/// single update (the index registry only sees whole-entry inserts and
/// `clear`; for the snapshot state see [`SnapshotState`]), so a lock poisoned
/// by a panicking visitor is recovered rather than propagated.
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
    /// The log was abandoned and no patch has succeeded since.
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

    /// Give up on patching: forget both buffers (their holders keep them
    /// alive) and stop logging until the next snapshot.
    fn abandon(&mut self) {
        if self.newer.is_some() {
            self.newer = None;
            self.older = None;
            self.log.clear();
            self.mark = 0;
            self.abandoned = true;
        }
    }
}

/// A materialized view: tuples over a fixed-arity key mapped to `f64` multiplicities,
/// with secondary hash indexes per binding pattern.
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
    /// Secondary indexes: bitmask of bound key positions → shared index.
    indexes: RwLock<IndexRegistry>,
}

/// A clone starts with no snapshot buffers of its own: sharing the source's
/// would pin them.
impl Clone for ViewMap {
    fn clone(&self) -> Self {
        ViewMap {
            schema: self.schema.clone(),
            data: self.data.clone(),
            snapshots: Mutex::default(),
            indexes: RwLock::new(unpoisoned(self.indexes.read()).clone()),
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
            indexes: RwLock::default(),
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
            self.add_returning_previous(key.into(), mult);
        }
    }

    /// [`ViewMap::add`] a non-zero `mult`, returning the multiplicity the key
    /// had before (`0.0` when it was absent) — what [`ViewMap::set`] takes to
    /// undo the write exactly.
    pub fn add_returning_previous(&mut self, key: Tuple, mult: f64) -> f64 {
        debug_assert!(mult != 0.0);
        self.log_write(&key);
        self.add_unlogged(key, mult)
    }

    /// Set the multiplicity of `key` outright, `0.0` removing the entry
    /// (primary map, every secondary index and the snapshot log follow). The
    /// engine's rollback: `x + m - m` need not be `x` in floating point, a
    /// remembered `x` is.
    pub fn set(&mut self, key: Tuple, mult: f64) {
        self.log_write(&key);
        if mult == 0.0 {
            self.data.remove(key.as_slice());
        } else {
            self.data.insert(key.clone(), mult);
        }
        for (mask, index) in unpoisoned(self.indexes.get_mut()).iter_mut() {
            Arc::make_mut(index).set(project_mask(&key, *mask), &key, mult);
        }
    }

    /// Apply a pre-buffered row batch: every surviving (non-zero) row is added
    /// in iteration order, with `on_write` invoked per applied row (the
    /// engine's change-log hook).
    pub fn add_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a Tuple, f64)>,
        on_write: &mut dyn FnMut(&Tuple),
    ) {
        for (key, mult) in rows {
            if mult == 0.0 {
                continue;
            }
            on_write(key);
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
    /// everything except the snapshot log. `mult` must be non-zero. Returns
    /// the key's multiplicity before the write.
    fn add_unlogged(&mut self, key: Tuple, mult: f64) -> f64 {
        debug_assert_eq!(key.len(), self.schema.arity(), "key arity mismatch");
        use std::collections::hash_map::Entry;

        let indexes = unpoisoned(self.indexes.get_mut());
        if indexes.is_empty() {
            // Fast path: no index maintenance, no key clone.
            return match self.data.entry(key) {
                Entry::Occupied(mut o) => {
                    let v = o.get_mut();
                    let previous = *v;
                    *v += mult;
                    if *v == 0.0 {
                        o.remove();
                    }
                    previous
                }
                Entry::Vacant(v) => {
                    v.insert(mult);
                    0.0
                }
            };
        }

        let (previous, new_mult) = match self.data.entry(key.clone()) {
            Entry::Occupied(mut o) => {
                let v = o.get_mut();
                let previous = *v;
                *v += mult;
                if *v == 0.0 {
                    o.remove();
                    (previous, 0.0)
                } else {
                    (previous, *v)
                }
            }
            Entry::Vacant(v) => {
                v.insert(mult);
                (0.0, mult)
            }
        };
        for (mask, index) in indexes.iter_mut() {
            Arc::make_mut(index).set(project_mask(&key, *mask), &key, new_mult);
        }
        previous
    }

    /// Remove all entries (used by `:=` statements). Hash indexes go with
    /// them (the next lookup rebuilds the ones still in use); ordered indexes
    /// are declarations and stay, empty.
    pub fn clear(&mut self) {
        unpoisoned(self.snapshots.get_mut()).abandon();
        self.data.clear();
        unpoisoned(self.indexes.get_mut()).retain(|_, index| match Arc::make_mut(index) {
            Index::Hash(_) => false,
            Index::Ordered(o) => {
                o.clear();
                true
            }
        });
    }

    /// Keep the secondary index of `mask` as an ordered index on the key
    /// column `key_pos` — the one column the mask must leave free — from now
    /// on (built from the current contents, replacing a hash index of the
    /// same mask). Unlike a hash index the declaration survives
    /// [`ViewMap::clear`].
    pub fn declare_ordered(&mut self, mask: u64, key_pos: usize) {
        let arity = self.schema.arity();
        assert!(
            mask != 0 && (0..arity).all(|i| (i < 63 && mask & (1 << i) != 0) != (i == key_pos)),
            "an ordered index binds every key column but the one it is sorted on \
             (mask {mask:#b}, sorted on {key_pos}, arity {arity})"
        );
        let mut index = OrderedIndex::new(key_pos);
        for (k, &m) in self.data.iter() {
            index.set(project_mask(k, mask), k, m);
        }
        unpoisoned(self.indexes.get_mut()).insert(mask, Arc::new(Index::Ordered(index)));
    }

    /// Stream the entries matching a partial binding pattern into `visit`,
    /// borrowing keys straight out of the store. Builds a secondary index for
    /// the pattern's mask on first use; subsequent lookups are hash probes.
    pub fn for_each(&self, pattern: &[Option<Value>], visit: &mut dyn FnMut(&[Value], f64)) {
        debug_assert_eq!(pattern.len(), self.schema.arity());
        let mask = pattern_mask(pattern);
        if mask == 0 {
            for (k, &m) in self.data.iter() {
                visit(k, m);
            }
            return;
        }
        let arity = self.schema.arity();
        if arity <= 63 && mask == (1u64 << arity) - 1 {
            // Fully bound: a single primary probe.
            let key: Tuple = pattern.iter().map(|p| p.clone().unwrap()).collect();
            if let Some(&m) = self.data.get(key.as_slice()) {
                visit(&key, m);
            }
            return;
        }
        self.ensure_index(mask);
        let probe: Tuple = pattern.iter().flatten().cloned().collect();
        // Clone the index handle and drop the registry guard before visiting:
        // visitors may re-enter `for_each` (compiled kernels nest scans), and
        // a nested `ensure_index` must be able to take the write lock.
        let index = unpoisoned(self.indexes.read()).get(&mask).cloned();
        match index.as_deref() {
            Some(Index::Hash(h)) => {
                for (k, &m) in h.buckets.get(&probe).into_iter().flatten() {
                    visit(k, m);
                }
            }
            // An ordered group holds no full keys: rebuild each from the
            // pattern and probe the primary map, which also knows whether the
            // sorted column was stored as a long or a double.
            Some(Index::Ordered(o)) => o.for_each_key(&probe, &mut |key| {
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
            None => {}
        }
    }

    /// Range sums over the ordered index of `pattern`'s mask: `sums[i]` = Σ
    /// multiplicity over the entries matching `pattern` whose one free
    /// column lies in `ranges[i].0 ≤ value < ranges[i].1` (integer or
    /// infinite ends; `bound_mag` as in
    /// [`RelationSource::range_sums`]). Returns the number of entries
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
        let registry = unpoisoned(self.indexes.read());
        let Index::Ordered(index) = registry.get(&pattern_mask(pattern))?.as_ref() else {
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

    /// Build (if the mask has none yet) a hash index for a binding-pattern
    /// mask.
    pub fn ensure_index(&self, mask: u64) {
        if mask == 0 || unpoisoned(self.indexes.read()).contains_key(&mask) {
            return;
        }
        let mut index = HashIndex {
            buckets: fast_map_with_capacity(self.data.len()),
            bytes: 0,
        };
        for (k, &m) in self.data.iter() {
            index.set(project_mask(k, mask), k, m);
        }
        unpoisoned(self.indexes.write()).insert(mask, Arc::new(Index::Hash(index)));
    }

    /// Snapshot the view contents as an immutable shared GMR. O(1) while the
    /// view is unwritten since the last snapshot (the same buffer is handed out
    /// again); otherwise the older of the two buffers is brought up to date
    /// from the write log, or — when it is pinned, missing, or the log was
    /// abandoned — replaced by one O(n) copy (see the module docs).
    pub fn to_gmr(&self) -> Gmr {
        let mut guard = unpoisoned(self.snapshots.lock());
        let s = &mut *guard;
        if let Some(newer) = s.newer.as_ref().filter(|_| s.log.len() == s.mark) {
            return Gmr::from_shared(self.schema.clone(), newer.clone());
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
        Gmr::from_shared(self.schema.clone(), current)
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
            // snapshot log and left only the — empty — ordered indexes, so
            // bypassing `add` loses nothing once those are refilled).
            self.data = gmr.iter().map(|(t, m)| (t.clone(), m)).collect();
            for (mask, index) in unpoisoned(self.indexes.get_mut()).iter_mut() {
                let index = Arc::make_mut(index);
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
        for index in unpoisoned(self.indexes.read()).values() {
            match index.as_ref() {
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

fn project_mask(key: &[Value], mask: u64) -> Tuple {
    key.iter()
        .enumerate()
        .filter(|(i, _)| *i < 63 && mask & (1 << i) != 0)
        .map(|(_, v)| v.clone())
        .collect()
}

/// The runtime database: a namespace of [`ViewMap`]s holding materialized views, stored
/// base relations and static tables.
#[derive(Clone, Debug, Default)]
pub struct Database {
    maps: FastMap<String, ViewMap>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create (or replace) a view with the given key columns.
    pub fn declare(&mut self, name: impl Into<String>, columns: impl IntoIterator<Item = String>) {
        self.maps
            .insert(name.into(), ViewMap::new(Schema::new(columns)));
    }

    /// Does a view with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.maps.contains_key(name)
    }

    /// Immutable access to a view.
    pub fn view(&self, name: &str) -> Option<&ViewMap> {
        self.maps.get(name)
    }

    /// Mutable access to a view.
    pub fn view_mut(&mut self, name: &str) -> Option<&mut ViewMap> {
        self.maps.get_mut(name)
    }

    /// Names of all views, sorted, borrowed from the store (no `String` clones).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let mut v: Vec<&str> = self.maps.keys().map(String::as_str).collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Total approximate memory footprint of all views, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.maps.values().map(|m| m.approx_bytes()).sum()
    }

    /// A consistent point-in-time snapshot of every view: name → shared GMR
    /// ([`ViewMap::to_gmr`]). Costs the name table (O(number of views)) plus,
    /// per view, the keys written since the buffer it reuses was current — or
    /// a full copy of the view where that buffer is pinned or its log was
    /// abandoned.
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        self.maps
            .iter()
            .map(|(n, v)| (n.clone(), v.to_gmr()))
            .collect()
    }

    /// Snapshot work summed over all views.
    pub fn snapshot_work(&self) -> SnapshotWork {
        let mut total = SnapshotWork::default();
        for v in self.maps.values() {
            total += v.snapshot_work();
        }
        total
    }
}

impl RelationSource for Database {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.maps.get(name).map(|m| m.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let m = self
            .maps
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        m.for_each(pattern, visit);
        Ok(())
    }

    fn range_sums(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        bound_mag: f64,
        ranges: &[(f64, f64)],
        sums: &mut [f64],
    ) -> Result<Option<u64>, EvalError> {
        let m = self
            .maps
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        Ok(m.range_sums(pattern, bound_mag, ranges, sums))
    }
}

/// A read-only [`Database`] view that memoizes name→view resolution.
///
/// Compiled kernels address every probe and scan by relation name; driven
/// over a multi-entry delta batch, the *same* op asks for the *same* name
/// once per entry, and the per-call string hash becomes the dominant
/// removable cost of small kernels. Ops own their name strings, so the cache
/// is keyed by the `&str`'s address — a pointer identity hit needs no
/// hashing and no character comparison. Sound only while the database is not
/// mutated (the batch executor buffers all rows before applying, so a whole
/// statement-over-entries pass is read-only); the wrapper borrows the
/// database immutably, letting the compiler enforce exactly that.
pub struct CachedSource<'a> {
    db: &'a Database,
    /// `(name address, name length, resolved view)` — a fixed handful of
    /// inline slots scanned linearly (zero heap allocation; a statement
    /// referencing more distinct relations simply falls back to uncached
    /// lookups for the overflow).
    cache: std::cell::Cell<usize>,
    slots: [std::cell::Cell<(*const u8, usize, Option<&'a ViewMap>)>; 8],
}

impl<'a> CachedSource<'a> {
    /// Wrap a database for one read-only batch pass.
    pub fn new(db: &'a Database) -> Self {
        CachedSource {
            db,
            cache: std::cell::Cell::new(0),
            slots: std::array::from_fn(|_| std::cell::Cell::new((std::ptr::null(), 0, None))),
        }
    }

    fn resolve(&self, name: &str) -> Option<&'a ViewMap> {
        let key = (name.as_ptr(), name.len());
        let len = self.cache.get();
        for slot in &self.slots[..len] {
            let (p, l, v) = slot.get();
            if p == key.0 && l == key.1 {
                return v;
            }
        }
        let view = self.db.view(name)?;
        if len < self.slots.len() {
            self.slots[len].set((key.0, key.1, Some(view)));
            self.cache.set(len + 1);
        }
        Some(view)
    }
}

impl RelationSource for CachedSource<'_> {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.resolve(name).map(|m| m.schema().arity())
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let m = self
            .resolve(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        m.for_each(pattern, visit);
        Ok(())
    }

    fn range_sums(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        bound_mag: f64,
        ranges: &[(f64, f64)],
        sums: &mut [f64],
    ) -> Result<Option<u64>, EvalError> {
        let m = self
            .resolve(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        Ok(m.range_sums(pattern, bound_mag, ranges, sums))
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
        // Build the index, then mutate.
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
        v.lookup(&[Some(Value::long(1)), None]); // build the index
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
        db.declare("R", vec!["a".to_string(), "b".to_string()]);
        db.view_mut("R").unwrap().add(key(&[1, 2]), 1.0);
        assert_eq!(db.relation_arity("R"), Some(2));
        let mut rows = 0;
        db.for_each_matching("R", &[Some(Value::long(1)), None], &mut |_, _| rows += 1)
            .unwrap();
        assert_eq!(rows, 1);
        assert!(db.for_each_matching("Nope", &[], &mut |_, _| {}).is_err());
        assert!(db.approx_bytes() > 0);
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["R"]);
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
        for (&mask, index) in unpoisoned(v.indexes.read()).iter() {
            let Index::Ordered(kept) = index.as_ref() else {
                continue;
            };
            kept.check();
            let key_pos = (0..v.schema().arity())
                .find(|i| mask & (1 << i) == 0)
                .unwrap();
            fresh.declare_ordered(mask, key_pos);
            let registry = unpoisoned(fresh.indexes.read());
            let Index::Ordered(rebuilt) = registry[&mask].as_ref() else {
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
        hashed.ensure_index(0b01);
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

    #[test]
    fn clear_resets_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.index_totals(), IndexStats::default());
        assert!(v.lookup(&[Some(Value::long(1)), None]).is_empty());

        // An ordered index is a declaration: it survives the clear, empty,
        // and tracks the writes that follow.
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

    /// `set` is how the engine takes back a write: handed what
    /// `add_returning_previous` returned, it restores the key bit for bit —
    /// where adding the negated multiplicity would not — and every index
    /// follows, ordered ones included.
    #[test]
    fn set_undoes_an_add_exactly_in_the_map_and_its_indexes() {
        let mut v = ordered_fixture();
        v.lookup(&[None, Some(Value::long(10))]);
        let reference = v.clone();
        let held = key(&[1, 10]);
        let fresh = key(&[1, 11]);
        let x = v.get(&held);
        assert!(x != 0.0 && v.get(&fresh) == 0.0);
        v.set(held.clone(), 0.1);
        assert_ne!((0.1f64 + 0.2) - 0.2, 0.1, "the values must not round-trip");
        let mut undo = vec![
            (held.clone(), v.add_returning_previous(held.clone(), 0.2)),
            (fresh.clone(), v.add_returning_previous(fresh.clone(), 5.0)),
            (
                held.clone(),
                v.add_returning_previous(held.clone(), -0.30000000000000004),
            ),
        ];
        assert_eq!(undo[0].1, 0.1);
        assert_eq!(undo[1].1, 0.0);
        assert_eq!(v.get(&held), 0.0, "cancelled, so removed");
        while let Some((k, before)) = undo.pop() {
            v.set(k, before);
        }
        assert_eq!(v.get(&held).to_bits(), 0.1f64.to_bits());
        assert_eq!(v.get(&fresh), 0.0);
        assert_ordered_indexes_match_a_rebuild(&v);
        v.set(held, x);
        assert_eq!(v.data, reference.data);
        assert_eq!(range(&v, 1, 0.0, 100.0), range(&reference, 1, 0.0, 100.0));
        for g in 0..4 {
            let by_group = [Some(Value::long(g)), None];
            let (mut a, mut b) = (v.lookup(&by_group), reference.lookup(&by_group));
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(a, b, "group {g}");
        }
        let by_t = [None, Some(Value::long(10))];
        assert_eq!(v.lookup(&by_t).len(), reference.lookup(&by_t).len());
        assert_ordered_indexes_match_a_rebuild(&v);
    }

    #[test]
    fn clone_preserves_contents_and_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]);
        let c = v.clone();
        assert_eq!(c.get(&key(&[1, 10])), 1.0);
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
}
