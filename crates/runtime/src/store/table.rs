//! Shared key tables: the maps of a sibling group as one hash table with a
//! value column per member (see the parent module's docs).

use super::snapshot::{unpoisoned, SnapshotState, SnapshotWork};
use super::Seg;
use crate::ordered::slot_bytes;
use dbtoaster_agca::plan::TableRows;
use dbtoaster_gmr::{FastMap, Gmr, Schema, Tuple, Value};
use dbtoaster_telemetry::{slot_of, ViewSummary};
use std::collections::hash_map::Entry;
use std::sync::{Arc, Mutex};

/// The maps one fused kernel unit writes and nothing else writes or reads,
/// as one table: a key holds one value per member, and stays while any of
/// them is non-zero. Each member reads as the map it stands for — its keys
/// are those whose value is non-zero — with its own snapshot buffers and
/// write log, so a member's snapshots cost what was written to it.
#[derive(Debug)]
pub struct SharedTable {
    /// Key → its row of `values`.
    data: FastMap<Tuple, u32>,
    /// One value per member per row, row `r` at `r * width`; a row whose
    /// key left is on `free` for the next key that enters, so a key costs
    /// no allocation of its own.
    values: Vec<f64>,
    free: Vec<u32>,
    members: Box<[Member]>,
    /// Per member, its pending run of `apply_rows`: reused, so an apply
    /// allocates nothing.
    pending: Vec<Option<Run>>,
    /// The `(column, sum)` writes of one flush: reused likewise.
    sums: Vec<(usize, f64)>,
}

/// One member of a [`SharedTable`]: the map it stands for.
#[derive(Debug)]
struct Member {
    schema: Schema,
    /// Keys whose value is non-zero.
    len: usize,
    snapshots: Mutex<SnapshotState>,
}

/// A member's rows of one key, consecutive in its own stream, summed: the
/// first row of the run, and the sum.
#[derive(Clone, Copy, Debug)]
struct Run {
    row: usize,
    sum: f64,
}

/// A clone's members start with no snapshot buffers of their own (as a
/// [`super::ViewMap`]'s clone does).
impl Clone for SharedTable {
    fn clone(&self) -> Self {
        let members = self.members.iter().map(|m| Member {
            schema: m.schema.clone(),
            len: m.len,
            snapshots: Mutex::default(),
        });
        SharedTable {
            data: self.data.clone(),
            values: self.values.clone(),
            free: self.free.clone(),
            members: members.collect(),
            pending: Vec::new(),
            sums: Vec::new(),
        }
    }
}

impl SharedTable {
    /// An empty table of the maps with these key schemas, in column order.
    pub(super) fn new(schemas: impl IntoIterator<Item = Schema>) -> SharedTable {
        let member = |schema| Member {
            schema,
            len: 0,
            snapshots: Mutex::default(),
        };
        SharedTable {
            data: FastMap::default(),
            values: Vec::new(),
            free: Vec::new(),
            members: schemas.into_iter().map(member).collect(),
            pending: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Keys in the table: those with some non-zero value.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value columns: one per member.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// Drain a unit's buffered rows into the table, member `i`'s values into
    /// column `cols[i]`: each segment's rows `reps` times over, in order,
    /// each member's consecutive rows of one key — consecutive among its own
    /// rows, the ones holding a value of it — summed into one write, as
    /// `ViewMap::apply_rows` writes the member's own rows into its own map,
    /// so every column is bit for bit the map it stands for. Members whose
    /// runs end together write in one probe: on a straight-line unit's
    /// rows, every member, once per key run. A row's key moves into the
    /// table once no visit of the row and no pending run of it remains;
    /// until then a write clones it.
    pub(crate) fn apply_rows(&mut self, rows: &mut TableRows, segs: &[Seg], cols: &[usize]) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        pending.resize(rows.width(), None);
        for seg in segs {
            for rep in 1..=seg.reps {
                for r in seg.start..seg.end {
                    // Whether the runs starting at row `p` hold `r`'s key,
                    // compared once per such row.
                    let mut compared: Option<(usize, bool)> = None;
                    for i in 0..rows.width() {
                        let Some(v) = rows.values(r)[i] else { continue };
                        let Some(run) = pending[i] else {
                            pending[i] = Some(Run { row: r, sum: v });
                            continue;
                        };
                        let same = match compared {
                            Some((p, same)) if p == run.row => same,
                            _ => {
                                let same = rows.key(run.row) == rows.key(r);
                                compared = Some((run.row, same));
                                same
                            }
                        };
                        if same {
                            pending[i] = Some(Run {
                                sum: run.sum + v,
                                ..run
                            });
                            continue;
                        }
                        // A row of an earlier segment, or one before `r` on
                        // this segment's last repetition, is visited no more.
                        let done = run.row < seg.start || (rep == seg.reps && run.row < r);
                        self.flush(rows, &mut pending, cols, run.row, Some(r), done);
                        pending[i] = Some(Run { row: r, sum: v });
                    }
                }
            }
        }
        while let Some(row) = pending.iter().flatten().map(|run| run.row).next() {
            self.flush(rows, &mut pending, cols, row, None, true);
        }
        self.pending = pending;
    }

    /// Write, in one probe, the pending runs that start at row `row` and
    /// end at row `at` — those of the members with a value in it; all of
    /// them at the end of the rows — and clear them. The row's key moves
    /// when it is `done`, visited no more, and no other run starts there.
    fn flush(
        &mut self,
        rows: &mut TableRows,
        pending: &mut [Option<Run>],
        cols: &[usize],
        row: usize,
        at: Option<usize>,
        done: bool,
    ) {
        let starts = |p: &Option<Run>| p.is_some_and(|p| p.row == row);
        let ends = |j: usize, rows: &TableRows| at.is_none_or(|r| rows.values(r)[j].is_some());
        let moves = done && (pending.iter().enumerate()).all(|(j, p)| !starts(p) || ends(j, rows));
        let key = match moves {
            true => rows.take_key(row),
            false => rows.key(row).clone(),
        };
        let mut sums = std::mem::take(&mut self.sums);
        sums.clear();
        for (j, p) in pending.iter_mut().enumerate() {
            if starts(p) && ends(j, rows) {
                sums.push((cols[j], p.take().expect("a pending run").sum));
            }
        }
        self.write(key, &sums);
        self.sums = sums;
    }

    /// Add `sums[..].1` to the key's columns `sums[..].0`, in one probe: a
    /// zero sum writes nothing, as a map's `add` of zero does, and each
    /// column written is logged for its member's snapshots (with the
    /// member's key count before the write, as a map logs). A key enters
    /// when one of its values does and leaves when the last one does.
    pub fn add(&mut self, key: impl Into<Tuple>, sums: &[(usize, f64)]) {
        self.write(key.into(), sums);
    }

    fn write(&mut self, key: Tuple, sums: &[(usize, f64)]) {
        let mut sums = sums.iter().filter(|(_, s)| *s != 0.0).peekable();
        if sums.peek().is_none() {
            return;
        }
        let width = self.members.len();
        let (members, values) = (&mut self.members, &mut self.values);
        match self.data.entry(key) {
            Entry::Occupied(o) => {
                let row = &mut values[*o.get() as usize * width..][..width];
                for &(c, s) in sums {
                    members[c].log(o.key());
                    let was = row[c] != 0.0;
                    row[c] += s;
                    match (was, row[c] != 0.0) {
                        (false, true) => members[c].len += 1,
                        (true, false) => members[c].len -= 1,
                        _ => {}
                    }
                }
                if row.iter().all(|&v| v == 0.0) {
                    self.free.push(o.remove());
                }
            }
            Entry::Vacant(v) => {
                let r = self.free.pop().unwrap_or_else(|| {
                    values.resize(values.len() + width, 0.0);
                    (values.len() / width - 1) as u32
                });
                let row = &mut values[r as usize * width..][..width];
                row.fill(0.0);
                for &(c, s) in sums {
                    members[c].log(v.key());
                    members[c].len += 1;
                    row[c] = s;
                }
                v.insert(r);
            }
        }
    }

    /// Member `c`'s value in row `r`.
    fn at(&self, r: u32, c: usize) -> f64 {
        self.values[r as usize * self.members.len() + c]
    }

    /// Member `c`'s value of `key`, `None` when it holds none.
    fn value(&self, c: usize, key: &[Value]) -> Option<f64> {
        let v = self.at(*self.data.get(key)?, c);
        (v != 0.0).then_some(v)
    }

    /// Member `c`'s map: the keys whose value `c` is non-zero.
    fn column(&self, c: usize) -> FastMap<Tuple, f64> {
        let values = self.data.iter().map(|(k, &r)| (k, self.at(r, c)));
        values
            .filter(|(_, v)| *v != 0.0)
            .map(|(k, v)| (k.clone(), v))
            .collect()
    }

    /// Member `c`'s key schema.
    pub(super) fn schema(&self, c: usize) -> &Schema {
        &self.members[c].schema
    }

    /// Member `c`'s key count.
    pub(super) fn member_len(&self, c: usize) -> usize {
        self.members[c].len
    }

    /// Member `c`'s multiplicity of `key` (0.0 when absent).
    pub(super) fn get(&self, c: usize, key: &[Value]) -> f64 {
        self.value(c, key).unwrap_or(0.0)
    }

    /// Member `c`'s snapshot, patched from its own write log as a map's is
    /// (see [`super::ViewMap::to_gmr_since`]).
    pub(super) fn snapshot(&self, c: usize, earlier: Option<&Gmr>) -> (Gmr, Option<Vec<Tuple>>) {
        let m = &self.members[c];
        let (buffer, written) = unpoisoned(m.snapshots.lock()).take(
            earlier,
            |key| self.value(c, key),
            || self.column(c),
            m.len,
        );
        (Gmr::from_shared(m.schema.clone(), buffer), written)
    }

    /// Member `c`'s contents, copied without arming its write log.
    pub(super) fn copy(&self, c: usize) -> Gmr {
        Gmr::from_shared(self.members[c].schema.clone(), Arc::new(self.column(c)))
    }

    /// Member `c`'s cumulative snapshot work.
    pub(super) fn snapshot_work(&self, c: usize) -> SnapshotWork {
        unpoisoned(self.members[c].snapshots.lock()).work
    }

    /// Replace member `c`'s contents with `keys` — a restore: its log is
    /// abandoned, as a map's `load_gmr` abandons its own, and the other
    /// columns stay.
    pub(super) fn load(&mut self, c: usize, keys: impl IntoIterator<Item = (Tuple, f64)>) {
        unpoisoned(self.members[c].snapshots.get_mut()).abandon();
        let width = self.members.len();
        let (values, free) = (&mut self.values, &mut self.free);
        self.data.retain(|_, &mut r| {
            let row = &mut values[r as usize * width..][..width];
            row[c] = 0.0;
            let held = row.iter().any(|&v| v != 0.0);
            if !held {
                free.push(r);
            }
            held
        });
        self.members[c].len = 0;
        for (key, m) in keys {
            self.write(key, &[(c, m)]);
        }
    }

    /// Footprint under the store's cost model: each key once — a map slot,
    /// whose row index stands where a map's multiplicity does — plus a
    /// value per member.
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * self.entry_bytes()
    }

    /// One key's bytes: its slot and its values.
    fn entry_bytes(&self) -> usize {
        slot_bytes(self.members[0].schema.arity()) + self.width() * std::mem::size_of::<f64>()
    }

    /// Member `c`'s readings, as a map's ([`super::ViewMap::readings`]):
    /// its own key count, and as its bytes its value column — the first
    /// member also the keys, so the members' bytes sum to the table's.
    pub(super) fn readings(&self, c: usize) -> ViewSummary {
        let m = &self.members[c];
        let value = std::mem::size_of::<f64>();
        let bytes = match c {
            0 => self.entry_bytes() - (self.width() - 1) * value,
            _ => value,
        };
        let buffered = unpoisoned(m.snapshots.lock()).buffered_entries();
        let mut r = ViewSummary::default();
        for (slot, n) in [
            (const { slot_of("map_size") }, m.len),
            (const { slot_of("map_bytes") }, self.data.len() * bytes),
            (
                const { slot_of("snapshot_bytes") },
                buffered * slot_bytes(m.schema.arity()),
            ),
        ] {
            r.values[slot] = n as u64;
        }
        self.snapshot_work(c).record(&mut r);
        r
    }
}

impl Member {
    /// Log a write of `key` for the member's snapshots, if it is
    /// snapshotted (see `ViewMap::log_write`).
    fn log(&mut self, key: &Tuple) {
        let s = unpoisoned(self.snapshots.get_mut());
        if s.newer.is_some() {
            s.log_key(key, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ViewMap;

    fn key(k: i64) -> Tuple {
        Tuple::from(vec![Value::long(k)])
    }

    fn table(width: usize) -> SharedTable {
        SharedTable::new((0..width).map(|c| Schema::new([format!("k{c}")])))
    }

    /// Member `c` as a map: its keys and values, sorted, as bits.
    fn member(t: &SharedTable, c: usize) -> Vec<(Tuple, u64)> {
        let mut rows: Vec<_> = t
            .column(c)
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect();
        rows.sort();
        rows
    }

    /// A key enters with its first non-zero value and leaves with its last:
    /// a member netting to zero leaves it to the others, and each member
    /// counts only its own keys.
    #[test]
    fn a_key_stays_while_any_member_holds_it() {
        let mut t = table(3);
        t.add(key(1), &[(0, 2.0), (1, 5.0)]);
        t.add(key(2), &[(2, 1.0)]);
        assert_eq!(
            (t.len(), t.member_len(0), t.member_len(1), t.member_len(2)),
            (2, 1, 1, 1)
        );
        t.add(key(1), &[(0, -2.0)]);
        assert_eq!((t.len(), t.member_len(0), t.member_len(1)), (2, 0, 1));
        assert_eq!((t.get(0, &key(1)), t.get(1, &key(1))), (0.0, 5.0));
        assert!(member(&t, 0).is_empty());
        t.add(key(1), &[(1, -5.0), (2, 0.0)]);
        assert_eq!((t.len(), t.member_len(1)), (1, 0));
        t.add(key(2), &[(2, -1.0)]);
        assert!(t.is_empty() && (0..3).all(|c| t.member_len(c) == 0));
        // A freed row is reused: a new key takes no row of its own.
        t.add(key(3), &[(0, 1.0)]);
        assert_eq!(t.values.len(), 2 * t.width());
    }

    /// A member's snapshot is its own: writes to other columns of its keys
    /// leave it alone, and its next snapshot sees only its own writes.
    #[test]
    fn a_members_snapshot_is_isolated_from_the_other_columns() {
        let mut t = table(2);
        for k in 0..32 {
            t.add(key(k), &[(0, 1.0), (1, 1.0)]);
        }
        let (first, _) = t.snapshot(0, None);
        t.add(key(5), &[(0, 1.0)]);
        let (second, _) = t.snapshot(0, None);
        assert_eq!((first.get(&key(5)), second.get(&key(5))), (1.0, 2.0));
        drop(first);
        t.add(key(3), &[(1, 4.0)]);
        t.add(key(40), &[(1, 1.0)]);
        let (third, written) = t.snapshot(0, Some(&second));
        assert_eq!(written, Some(Vec::new()), "member 0 wrote nothing");
        assert_eq!((third.len(), third.get(&key(3))), (32, 1.0));
        t.add(key(3), &[(0, -1.0), (1, 2.0)]);
        let (fourth, written) = t.snapshot(0, Some(&third));
        assert_eq!(written, Some(vec![key(3)]));
        assert_eq!((fourth.len(), fourth.get(&key(3))), (31, 0.0));
        assert_eq!((second.len(), third.len()), (32, 32));
        assert!(t.snapshot_work(0).keys_patched > 0, "patched, not copied");
        assert_eq!(t.snapshot(1, None).0.get(&key(3)), 7.0);
    }

    /// `apply_rows` writes each column exactly as the member's own rows
    /// write its own map through `ViewMap::apply_rows` — bit for bit, with
    /// float values whose sums depend on their association — whatever the
    /// members' rows hold: a member absent from a row does not break its
    /// run of one key, and segments repeat.
    #[test]
    fn applied_rows_write_each_column_as_its_own_map() {
        let values = [0.1, 0.2, 0.3, 1e16, -1e16, 1.0, -0.1, 3.0];
        let mut seed = 17u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for case in 0..300 {
            let width = 1 + next(3) as usize;
            let cols: Vec<usize> = (0..width).rev().collect();
            let mut t = table(width);
            let mut maps: Vec<ViewMap> = (0..width)
                .map(|_| ViewMap::new(Schema::new(["k"])))
                .collect();
            for _ in 0..3 {
                let mut rows = TableRows::default();
                rows.reset(width);
                let mut own: Vec<Vec<(Tuple, f64)>> = vec![Vec::new(); width];
                let mut segs = Vec::new();
                let mut own_segs: Vec<Vec<Seg>> = vec![Vec::new(); width];
                for _ in 0..1 + next(6) {
                    let (start, starts) =
                        (rows.len(), own.iter().map(Vec::len).collect::<Vec<_>>());
                    for _ in 0..next(4) {
                        let k = key(next(3) as i64);
                        let r = rows.push_key(k.clone());
                        for (i, own) in own.iter_mut().enumerate() {
                            if next(4) > 0 {
                                let v = values[next(values.len() as u64) as usize];
                                *rows.value_mut(r, i) = Some(v);
                                own.push((k.clone(), v));
                            }
                        }
                    }
                    let reps = 1 + next(3) as u32;
                    segs.push(Seg {
                        start,
                        end: rows.len(),
                        reps,
                    });
                    for i in 0..width {
                        own_segs[i].push(Seg {
                            start: starts[i],
                            end: own[i].len(),
                            reps,
                        });
                    }
                }
                t.apply_rows(&mut rows, &segs, &cols);
                for i in 0..width {
                    maps[i].apply_rows(&mut own[i], &own_segs[i]);
                }
                for (i, map) in maps.iter().enumerate() {
                    let mut want: Vec<_> =
                        map.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
                    want.sort();
                    assert_eq!(member(&t, cols[i]), want, "case {case}, member {i}");
                    assert_eq!(t.member_len(cols[i]), map.len(), "case {case}, member {i}");
                }
            }
        }
    }
}
