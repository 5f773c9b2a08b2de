//! A view's snapshot buffers and the write log that patches them (see the
//! parent module's docs on snapshots).

#[cfg(doc)]
use super::ViewMap;
use dbtoaster_gmr::{FastMap, FastSet, Gmr, Tuple};
use dbtoaster_telemetry::{slot_of, ViewSummary};
use std::sync::{Arc, PoisonError};

/// What readers get: an immutable shared copy of a view's primary map.
pub(super) type Buffer = Arc<FastMap<Tuple, f64>>;

/// The snapshot lock of a [`ViewMap`] guards a value that is consistent
/// after every single update (see [`SnapshotState`]), so a lock poisoned by
/// a panicking reader is recovered rather than propagated.
pub(super) fn unpoisoned<G>(lock_result: Result<G, PoisonError<G>>) -> G {
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
pub(super) const PATCH_BUDGET_DIVISOR: usize = 8;

/// Work done by [`ViewMap::to_gmr`] since the view was created
/// ([`ViewMap::snapshot_work`]). Timing-free: the counts depend only
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

    /// Write the counts into a view's telemetry record.
    pub(super) fn record(&self, r: &mut ViewSummary) {
        for (slot, n) in [
            (
                const { slot_of("snapshot_keys_patched") },
                self.keys_patched,
            ),
            (
                const { slot_of("snapshot_entries_copied") },
                self.entries_copied,
            ),
            (
                const { slot_of("snapshot_full_copies.first") },
                self.first_copies,
            ),
            (
                const { slot_of("snapshot_full_copies.pinned") },
                self.pinned_copies,
            ),
            (
                const { slot_of("snapshot_full_copies.abandoned") },
                self.abandoned_copies,
            ),
        ] {
            r.values[slot] = n;
        }
    }
}

/// The buffers a view has handed out and the log that brings them up to date.
/// Every update leaves it consistent: a buffer is taken out before it is
/// patched, and the log is trimmed only after.
#[derive(Debug, Default)]
pub(super) struct SnapshotState {
    /// The buffer handed out last: `data` as of `log[mark..]` not yet applied.
    /// `Some` is also what turns write logging on.
    pub(super) newer: Option<Buffer>,
    /// The buffer handed out before it: `data` as of none of `log` applied.
    pub(super) older: Option<Buffer>,
    /// Keys written since `older` was current (since `newer`, while there is
    /// no `older`), in write order, duplicates included.
    pub(super) log: Vec<Tuple>,
    /// `log[..mark]` was written before `newer` was handed out.
    pub(super) mark: usize,
    /// The log was abandoned and no patch has succeeded since (the next full
    /// copy is counted as an abandoned one).
    pub(super) abandoned: bool,
    pub(super) work: SnapshotWork,
}

impl SnapshotState {
    /// Log one written key of a view that holds `entries` entries. Out of
    /// line, so the write loop of a view that is never snapshotted stays as
    /// small as it was before there was a log.
    #[inline(never)]
    pub(super) fn log_key(&mut self, key: &Tuple, entries: usize) {
        self.log.push(key.clone());
        if self.log.len() * PATCH_BUDGET_DIVISOR > entries {
            self.abandon();
        }
    }

    /// The keys written since `earlier` was handed out, each once, when
    /// `earlier` is one of the two buffers (see [`ViewMap::to_gmr_since`]).
    /// Identity is sound: the caller holds `earlier`, so it is alive and was
    /// not patched since, and a live `Arc` is the only one at its address.
    pub(super) fn written_since(&self, earlier: &Buffer) -> Option<Vec<Tuple>> {
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

    /// The one snapshot path of a view (see [`ViewMap::to_gmr_since`]):
    /// the buffer to hand out and, when `earlier` is given, the keys written
    /// since it. The view's live contents are read through `get` (a key's
    /// multiplicity, `None` when it holds none) and copied whole by `copy`;
    /// it holds `entries` keys. The cursor is read before rotation trims the
    /// log.
    pub(super) fn take(
        &mut self,
        earlier: Option<&Gmr>,
        get: impl Fn(&Tuple) -> Option<f64>,
        copy: impl FnOnce() -> FastMap<Tuple, f64>,
        entries: usize,
    ) -> (Buffer, Option<Vec<Tuple>>) {
        let written = earlier
            .and_then(Gmr::shared_data)
            .and_then(|e| self.written_since(e));
        if let Some(newer) = self.newer.as_ref().filter(|_| self.log.len() == self.mark) {
            return (newer.clone(), written);
        }
        let mut reused = self.older.take();
        let current = match reused.as_mut().and_then(Arc::get_mut) {
            Some(buffer) => {
                for key in &self.log {
                    match get(key) {
                        Some(m) => drop(buffer.insert(key.clone(), m)),
                        None => drop(buffer.remove(key)),
                    }
                }
                self.work.keys_patched += self.log.len() as u64;
                self.abandoned = false;
                reused.expect("patched in place")
            }
            None => {
                if reused.is_some() {
                    self.work.pinned_copies += 1;
                } else if self.abandoned {
                    self.work.abandoned_copies += 1;
                } else {
                    self.work.first_copies += 1;
                }
                self.work.entries_copied += entries as u64;
                Arc::new(copy())
            }
        };
        // Rotate: what was newer is now the older buffer, and the log keeps
        // only what was written since it was handed out.
        self.log.drain(..self.mark);
        self.mark = self.log.len();
        self.older = self.newer.replace(current.clone());
        (current, written)
    }

    /// Entries held by the buffers kept for reuse.
    pub(super) fn buffered_entries(&self) -> usize {
        let entries = |b: &Option<Buffer>| b.as_ref().map_or(0, |b| b.len());
        entries(&self.newer) + entries(&self.older)
    }

    /// Give up on patching: forget both buffers (their holders keep them
    /// alive) and stop logging until the next snapshot.
    pub(super) fn abandon(&mut self) {
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
