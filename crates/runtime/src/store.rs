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
//!   fast path (a single map probe, zero clones) until the first partial-pattern
//!   lookup creates a secondary index; afterwards every write mirrors the new
//!   multiplicity into each index bucket (one probe per index; the key is cloned
//!   only when the entry is new). Buckets store `(key, multiplicity)`, so a
//!   partial-pattern scan is pure bucket iteration with no per-entry probe back
//!   into the primary map — the cost profile compiled trigger kernels rely on.
//! * **Cost model** — [`ViewMap::approx_bytes`] charges each entry its map-slot
//!   footprint; spilled (arity > 4) tuples add their shared value slab. `Value`
//!   itself is 24 bytes inline; string values are interned `Arc<str>`s whose bodies
//!   are shared, and dates are plain `yyyymmdd` longs, so the slab estimate does not
//!   double-count string storage.
//!
//! Secondary indexes live behind an [`RwLock`] so that read-only evaluation (through
//! the [`RelationSource`] trait) can build an index on first use; afterwards every
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

use dbtoaster_agca::eval::{EvalError, RelationSource};
use dbtoaster_gmr::hash::fast_map_with_capacity;
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A secondary index: projected key → (full key → multiplicity). Multiplicities
/// are mirrored into the buckets so a partial-pattern scan is pure iteration —
/// no per-entry probe back into the primary map. Maintenance is O(1) per write
/// per index (one bucket probe), paid only by views that both receive writes
/// and serve partial-pattern lookups.
type Index = FastMap<Tuple, FastMap<Tuple, f64>>;
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
        if mult == 0.0 {
            return;
        }
        let key = key.into();
        self.log_write(&key);
        self.add_unlogged(key, mult);
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
    /// everything except the snapshot log. `mult` must be non-zero.
    fn add_unlogged(&mut self, key: Tuple, mult: f64) {
        debug_assert_eq!(key.len(), self.schema.arity(), "key arity mismatch");
        use std::collections::hash_map::Entry;

        let indexes = unpoisoned(self.indexes.get_mut());
        if indexes.is_empty() {
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

        let (removed, new_mult) = match self.data.entry(key.clone()) {
            Entry::Occupied(mut o) => {
                let v = o.get_mut();
                *v += mult;
                if *v == 0.0 {
                    o.remove();
                    (true, 0.0)
                } else {
                    (false, *v)
                }
            }
            Entry::Vacant(v) => {
                v.insert(mult);
                (false, mult)
            }
        };
        for (mask, index) in indexes.iter_mut() {
            let index = Arc::make_mut(index);
            let proj = project_mask(&key, *mask);
            if removed {
                if let Some(bucket) = index.get_mut(&proj) {
                    bucket.remove(key.as_slice());
                    if bucket.is_empty() {
                        index.remove(&proj);
                    }
                }
            } else {
                // Mirror the new multiplicity into the bucket (overwriting in
                // place when the entry already exists, so multiplicity-only
                // updates cost one probe and no key clone).
                let bucket = index.entry(proj).or_default();
                match bucket.get_mut(key.as_slice()) {
                    Some(slot) => *slot = new_mult,
                    None => {
                        bucket.insert(key.clone(), new_mult);
                    }
                }
            }
        }
    }

    /// Remove all entries (used by `:=` statements).
    pub fn clear(&mut self) {
        unpoisoned(self.snapshots.get_mut()).abandon();
        self.data.clear();
        unpoisoned(self.indexes.get_mut()).clear();
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
        if let Some(bucket) = index.as_ref().and_then(|idx| idx.get(&probe)) {
            for (k, &m) in bucket.iter() {
                visit(k, m);
            }
        }
    }

    /// Entries matching a partial binding pattern, collected into a vector.
    /// Prefer [`ViewMap::for_each`] on hot paths.
    pub fn lookup(&self, pattern: &[Option<Value>]) -> Vec<(Tuple, f64)> {
        let mut out = Vec::new();
        self.for_each(pattern, &mut |k, m| out.push((Tuple::from(k), m)));
        out
    }

    /// Build (if needed) the secondary index for a binding-pattern mask.
    pub fn ensure_index(&self, mask: u64) {
        if mask == 0 || unpoisoned(self.indexes.read()).contains_key(&mask) {
            return;
        }
        let mut index: Index = fast_map_with_capacity(self.data.len());
        for (k, &m) in self.data.iter() {
            index
                .entry(project_mask(k, mask))
                .or_default()
                .insert(k.clone(), m);
        }
        unpoisoned(self.indexes.write()).insert(mask, Arc::new(index));
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
            // snapshot log, so bypassing `add` loses nothing).
            self.data = gmr.iter().map(|(t, m)| (t.clone(), m)).collect();
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
        let per_value = std::mem::size_of::<Value>();
        let entry = |t: &Tuple| {
            std::mem::size_of::<Tuple>()
                + 16
                + if t.is_inline() {
                    0
                } else {
                    t.len() * per_value + 16
                }
        };
        let base: usize = self.data.keys().map(entry).sum();
        let idx: usize = unpoisoned(self.indexes.read())
            .values()
            .map(|i| {
                i.iter()
                    .map(|(k, v)| {
                        entry(k)
                            + v.keys().map(entry).sum::<usize>()
                            + v.len() * std::mem::size_of::<f64>()
                            + 8
                    })
                    .sum::<usize>()
            })
            .sum();
        base + idx
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

    #[test]
    fn clear_resets_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]);
        v.clear();
        assert!(v.is_empty());
        assert!(v.lookup(&[Some(Value::long(1)), None]).is_empty());
    }

    #[test]
    fn clone_preserves_contents_and_indexes() {
        let mut v = ViewMap::new(Schema::new(["a", "b"]));
        v.add(key(&[1, 10]), 1.0);
        v.lookup(&[Some(Value::long(1)), None]);
        let c = v.clone();
        assert_eq!(c.get(&key(&[1, 10])), 1.0);
        assert_eq!(c.lookup(&[Some(Value::long(1)), None]).len(), 1);
    }
}
