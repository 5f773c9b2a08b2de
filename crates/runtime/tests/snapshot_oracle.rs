//! Store-level oracle for [`ViewMap::to_gmr`]: values and work.
//!
//! A snapshot is built by patching a recycled buffer from a write log, so two
//! things can go wrong that a full copy never could: a snapshot that differs
//! from the live map, and a handed-out snapshot that changes under its
//! holder. The property test drives random interleavings of every operation
//! that touches the snapshot state, keeps a random subset of the snapshots
//! alive, and checks both **bit-exactly** (NaN, ±0.0 and huge multiplicities
//! are in the domain) against a full copy taken at the same instant.
//!
//! The work guards are timing-free: they read [`ViewMap::snapshot_work`] and
//! pin that a snapshot costs the keys written in the last two epochs, and a
//! held buffer one full copy — not one per epoch.
//!
//! The same interleavings also drive the **subscriber cursor**
//! ([`ViewMap::to_gmr_since`]): a new snapshot taken against a held one must
//! report every key whose multiplicity bits differ between the two, each
//! once, and may answer "unknown" only when the view's log was abandoned
//! since the held snapshot, the view was replaced by a clone, or the held
//! snapshot rotated out (two new buffers handed out since).
//!
//! The same interleavings — writes, row batches, `clear`, `load_gmr`, `Clone`,
//! a hash index declared beside it — also drive a view that carries an
//! **ordered** secondary index (the `axf` shape: `[group, price]` sorted on
//! the price), and after every step the index must agree with the primary
//! map: a traversal hands out the group's entries bit for bit, and a range
//! sum is the exact sum when every entry of the group is inside the
//! exactness contract and refused (`None`) when one is not.

use dbtoaster_gmr::{FastSet, Gmr, Schema, Tuple, Value};
use dbtoaster_runtime::{Database, MapId, SnapshotWork, ViewMap};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Multiplicities that stress bit-exactness: cancelling pairs, signed zeros,
/// NaN, infinities (whose sum is NaN) and magnitudes that absorb small adds.
const MULTS: [f64; 12] = [
    1.0,
    -1.0,
    2.5,
    -2.5,
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1e300,
    f64::MIN_POSITIVE,
];

const KEYS_A: i64 = 24;
const KEYS_B: i64 = 16;

fn key(a: i64, b: i64) -> Tuple {
    [Value::long(a), Value::long(b)].into_iter().collect()
}

/// `(key, multiplicity bits)`, sorted — the form both sides are compared in.
fn sorted_bits<'a>(rows: impl Iterator<Item = (&'a Tuple, f64)>) -> Vec<(Tuple, u64)> {
    let mut rows: Vec<_> = rows.map(|(k, m)| (k.clone(), m.to_bits())).collect();
    rows.sort();
    rows
}

/// The oracle: a full copy of the live map, taken now.
fn full_copy(view: &ViewMap) -> Vec<(Tuple, u64)> {
    sorted_bits(view.iter())
}

fn contents(gmr: &Gmr) -> Vec<(Tuple, u64)> {
    sorted_bits(gmr.iter())
}

/// Does the snapshot hold exactly `expected`, bit for bit? (Probes instead of
/// sorting: this runs for every held snapshot after every step.)
fn holds(gmr: &Gmr, expected: &[(Tuple, u64)]) -> bool {
    gmr.len() == expected.len()
        && expected
            .iter()
            .all(|(k, bits)| gmr.get(k).to_bits() == *bits)
}

/// One generated step: `(kind, a, b, mult index, small count)`.
type Step = (u8, i64, i64, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..32, 0..KEYS_A, 0..KEYS_B, 0..MULTS.len(), 0usize..6),
        1..120,
    )
}

/// Snapshots patched (not copied) across all cases — the run is vacuous if
/// the generator never reaches the patch branch.
static PATCHED: AtomicU64 = AtomicU64::new(0);
/// Cursor answers with at least one changed key, and "unknown" answers: the
/// cursor check is vacuous unless the generator reaches both.
static CURSOR_KEYS: AtomicU64 = AtomicU64::new(0);
static CURSOR_UNKNOWN: AtomicU64 = AtomicU64::new(0);
/// Member snapshots patched across the shared-table cases.
static TABLE_PATCHED: AtomicU64 = AtomicU64::new(0);

/// A snapshot kept alive, with what the view was when it was handed out.
struct Held {
    snap: Gmr,
    /// The full copy taken at the same instant.
    expected: Vec<(Tuple, u64)>,
    /// `logs_abandoned` of the view, clones and new buffers handed out, at
    /// that instant.
    abandoned: u64,
    clones: u64,
    buffers: u64,
}

/// The view, the counters the cursor check reads, and the last buffer handed
/// out (to count new ones).
struct Subject {
    view: ViewMap,
    clones: u64,
    buffers: u64,
    newest: Option<Gmr>,
}

impl Subject {
    /// Take a snapshot, `since` a held one (the cursor) or not, check it
    /// against a full copy and count a new buffer.
    fn snapshot(&mut self, since: Option<&Held>) -> Gmr {
        let before = self.view.snapshot_work();
        let snap = match since {
            None => self.view.to_gmr(),
            Some(held) => {
                let (snap, written) = self.view.to_gmr_since(&held.snap);
                self.check_cursor(held, &snap, written);
                snap
            }
        };
        let after = self.view.snapshot_work();
        assert_eq!(
            contents(&snap),
            full_copy(&self.view),
            "snapshot differs from a full copy taken at the same instant"
        );
        PATCHED.fetch_add(after.keys_patched - before.keys_patched, Relaxed);
        let same = |a: &Gmr, b: &Gmr| {
            std::sync::Arc::ptr_eq(a.shared_data().unwrap(), b.shared_data().unwrap())
        };
        if !self.newest.as_ref().is_some_and(|n| same(n, &snap)) {
            self.buffers += 1;
        }
        self.newest = Some(snap.clone());
        snap
    }

    fn check_cursor(&self, held: &Held, new: &Gmr, written: Option<Vec<Tuple>>) {
        let now = (self.view.snapshot_work(), self.clones, self.buffers);
        check_cursor(now, held, new, written);
    }

    /// Keep `snap`, handed out just now, alive.
    fn hold(&self, snap: Gmr) -> Held {
        Held {
            snap,
            expected: full_copy(&self.view),
            abandoned: self.view.snapshot_work().logs_abandoned,
            clones: self.clones,
            buffers: self.buffers,
        }
    }
}

/// The cursor's answer for `new`, taken against `held`, when the view's
/// snapshot work, its clones and the buffers it has handed out are `now`:
/// every key whose bits differ reported, each once, and "unknown" only
/// when the log was abandoned, the view replaced or `held` rotated out.
fn check_cursor(
    (work, clones, buffers): (SnapshotWork, u64, u64),
    held: &Held,
    new: &Gmr,
    written: Option<Vec<Tuple>>,
) {
    let Some(keys) = written else {
        // Read before this snapshot rotated anything.
        let abandoned = work.logs_abandoned > held.abandoned;
        let replaced = clones > held.clones;
        let rotated_out = buffers - held.buffers >= 2;
        assert!(
            abandoned || replaced || rotated_out,
            "the cursor answered \"unknown\" with its log intact and the held \
             snapshot still one of the view's two buffers"
        );
        CURSOR_UNKNOWN.fetch_add(1, Relaxed);
        return;
    };
    let reported: FastSet<&Tuple> = keys.iter().collect();
    assert_eq!(reported.len(), keys.len(), "a key reported twice");
    let old = &held.snap;
    let differs = old
        .iter()
        .chain(new.iter())
        .map(|(k, _)| k)
        .filter(|k| old.get(k).to_bits() != new.get(k).to_bits());
    for key in differs {
        assert!(
            reported.contains(key),
            "key {key:?} changed since the held snapshot but was not reported"
        );
    }
    if !keys.is_empty() {
        CURSOR_KEYS.fetch_add(1, Relaxed);
    }
}

/// The ordered index over `[a = group, b sorted]` must agree with the
/// primary map, group by group (see the module docs). The band key `b = 0`
/// and most of [`MULTS`] are outside the exactness contract.
fn assert_ordered_index_agrees(view: &ViewMap, step: u8) {
    let totals = view.index_totals();
    assert_eq!(
        totals.get("indexes.ordered"),
        1,
        "step {step}: the declaration is gone"
    );
    assert_eq!(
        totals.get("indexes.entries"),
        view.len() as u64 * (totals.get("indexes.hash") + totals.get("indexes.ordered")),
        "step {step}"
    );
    for a in 0..KEYS_A {
        let pattern = [Some(Value::long(a)), None];
        let group: Vec<(&Tuple, f64)> = view
            .iter()
            .filter(|(k, _)| k[0] == Value::long(a))
            .collect();
        let mut seen = Vec::new();
        view.for_each(&pattern, &mut |k, m| {
            seen.push((Tuple::from(k), m.to_bits()))
        });
        seen.sort();
        assert_eq!(
            seen,
            sorted_bits(group.iter().map(|&(k, m)| (k, m))),
            "step {step}: traversal of group {a}"
        );
        let exact = group.iter().all(|(k, m)| {
            k[1] != Value::long(0) && m.fract() == 0.0 && m.abs() < (1u64 << 53) as f64
        });
        let (lo, hi) = (3.0, 11.0);
        let mut sums = [f64::NAN];
        let answered = view.range_sums(&pattern, 0.0, &[(lo, hi)], &mut sums);
        assert_eq!(answered.is_some(), exact, "step {step}: group {a}");
        if exact {
            let want: f64 = group
                .iter()
                .filter(|(k, _)| (lo..hi).contains(&k[1].as_f64().unwrap()))
                .fold(0.0, |sum, (_, m)| sum + m);
            assert_eq!(sums[0].to_bits(), want.to_bits(), "step {step}: group {a}");
        }
    }
}

fn run_case(steps: Vec<Step>, ordered: bool) {
    let mut view = ViewMap::new(Schema::new(["a", "b"]));
    if ordered {
        view.declare_ordered(0b01, 1);
    }
    // Enough entries that a handful of writes stays inside the patch budget.
    for a in 0..KEYS_A {
        for b in 0..KEYS_B {
            if (a * 7 + b * 3) % 4 != 0 {
                view.add(key(a, b), 1.0 + a as f64);
            }
        }
    }
    let mut sub = Subject {
        view,
        clones: 0,
        buffers: 0,
        newest: None,
    };
    let mut held: Vec<Held> = Vec::new();

    for (kind, a, b, mi, n) in steps {
        let view = &mut sub.view;
        match kind {
            // Writes dominate, as they do between two publishes.
            0..=9 => view.add(key(a, b), MULTS[mi]),
            // A delete: cancel the key exactly (a no-op when it is absent).
            10..=13 => view.add(key(a, b), -view.get(&key(a, b))),
            14..=16 => {
                let rows: Vec<(Tuple, f64)> = (0..=n)
                    .map(|i| {
                        (
                            key((a + i as i64) % KEYS_A, b),
                            MULTS[(mi + i) % MULTS.len()],
                        )
                    })
                    .collect();
                view.add_rows(rows.iter().map(|(k, m)| (k.as_slice(), *m)));
            }
            17..=25 => {
                // From kind 22 on, through the cursor of a held snapshot.
                let since = (kind >= 22 && !held.is_empty()).then(|| a as usize % held.len());
                let snap = sub.snapshot(since.map(|i| &held[i]));
                if n % 2 == 0 {
                    held.push(sub.hold(snap));
                }
            }
            26 | 27 => {
                if !held.is_empty() {
                    held.swap_remove(a as usize % held.len());
                }
            }
            28 => view.declare_hash(1 + (a as u64 % 2)),
            29 => {
                sub.view = view.clone();
                sub.clones += 1;
            }
            30 => {
                // Bulk load: an owned GMR, or (odd `n`) one of its own snapshots.
                let source = if n % 2 == 1 {
                    sub.snapshot(None)
                } else {
                    let mut g = Gmr::new(Schema::new(["a", "b"]));
                    for i in 0..(n as i64 + 1) * 8 {
                        g.add_tuple(key((a + i) % KEYS_A, (b + i / 3) % KEYS_B), 0.5 + i as f64);
                    }
                    g
                };
                sub.view.load_gmr(&source);
            }
            _ => view.clear(),
        }
        for h in &held {
            assert!(
                holds(&h.snap, &h.expected),
                "a held snapshot changed after step kind {kind}"
            );
        }
        if ordered {
            assert_ordered_index_agrees(&sub.view, kind);
        }
    }
    assert_eq!(contents(&sub.view.to_gmr()), full_copy(&sub.view));
}

/// The members of a shared key table through the same kinds of steps: a
/// member written alone, a key written across every column (one member
/// netting to zero beside the others), snapshots — through the cursor too
/// — held and dropped, a clone of the database, and a member reloaded or
/// emptied by a restore. Every member's snapshot must equal a full copy of
/// the member bit for bit, a held one must never change whatever the other
/// columns do, and the table holds exactly the keys some member holds.
fn run_table_case(steps: Vec<Step>) {
    const WIDTH: usize = 3;
    let mut db = Database::new();
    let columns = || ["a", "b"].map(String::from);
    let ids: Vec<MapId> = (0..WIDTH)
        .map(|c| db.declare(format!("M{c}"), columns()))
        .collect();
    let t = db.share(&ids);
    for a in 0..KEYS_A {
        for b in 0..KEYS_B {
            let values = [(0, 1.0 + a as f64), (1, 2.0), (2, b as f64)];
            db.table_mut(t)
                .add(key(a, b), &values[..1 + ((a + b) % 3) as usize]);
        }
    }
    let copy = |db: &Database, c: usize| contents(&db.view_at(ids[c]).copy_gmr());
    let (mut clones, mut buffers, mut newest) = (0, [0u64; WIDTH], [(); WIDTH].map(|_| None));
    let mut held: Vec<(usize, Held)> = Vec::new();
    for (kind, a, b, mi, n) in steps {
        let c = n % WIDTH;
        let k = key(a, b);
        let get = |db: &Database, c: usize| db.view_at(ids[c]).get(&k);
        match kind {
            0..=9 => db.table_mut(t).add(k.clone(), &[(c, MULTS[mi])]),
            10..=13 => {
                let cancel = -get(&db, c);
                db.table_mut(t).add(k.clone(), &[(c, cancel)]);
            }
            14..=16 => {
                let row = [
                    (c, -get(&db, c)),
                    ((c + 1) % WIDTH, MULTS[mi]),
                    ((c + 2) % WIDTH, MULTS[(mi + n) % MULTS.len()]),
                ];
                db.table_mut(t).add(k.clone(), &row);
            }
            17..=25 => {
                let view = db.view_at(ids[c]);
                let mut since = held.iter().filter(|(m, _)| *m == c).map(|(_, h)| h);
                let since = (kind >= 22).then(|| since.next_back()).flatten();
                let before = view.snapshot_work().keys_patched;
                let snap = match since {
                    Some(h) => {
                        let (snap, written) = view.to_gmr_since(&h.snap);
                        check_cursor(
                            (view.snapshot_work(), clones, buffers[c]),
                            h,
                            &snap,
                            written,
                        );
                        snap
                    }
                    None => view.to_gmr(),
                };
                assert_eq!(contents(&snap), copy(&db, c), "member {c}");
                TABLE_PATCHED.fetch_add(view.snapshot_work().keys_patched - before, Relaxed);
                let shared =
                    |n: &Gmr| Arc::ptr_eq(n.shared_data().unwrap(), snap.shared_data().unwrap());
                if !newest[c].as_ref().is_some_and(shared) {
                    buffers[c] += 1;
                }
                newest[c] = Some(snap.clone());
                if n % 2 == 0 {
                    let hold = Held {
                        expected: contents(&snap),
                        snap,
                        abandoned: view.snapshot_work().logs_abandoned,
                        clones,
                        buffers: buffers[c],
                    };
                    held.push((c, hold));
                }
            }
            26 | 27 => {
                if !held.is_empty() {
                    held.swap_remove(a as usize % held.len());
                }
            }
            28 | 29 => {
                db = db.clone();
                clones += 1;
            }
            30 => {
                let mut g = Gmr::new(Schema::new(["b", "a"]));
                for i in 0..(n as i64 + 1) * 8 {
                    g.add_tuple(key((b + i / 3) % KEYS_B, (a + i) % KEYS_A), 0.5 + i as f64);
                }
                db.load_gmr(ids[c], &g);
            }
            _ => db.load_gmr(ids[c], &Gmr::new(Schema::new(["a", "b"]))),
        }
        for (c, h) in &held {
            assert!(
                holds(&h.snap, &h.expected),
                "member {c}'s held snapshot changed (step {kind})"
            );
        }
        let mut keys = FastSet::default();
        for (c, &id) in ids.iter().enumerate() {
            let member = copy(&db, c);
            assert_eq!(db.view_at(id).len(), member.len(), "member {c}'s count");
            keys.extend(member.into_iter().map(|(k, _)| k));
        }
        assert_eq!(
            db.table(t).len(),
            keys.len(),
            "the table holds what its members hold"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn snapshots_equal_full_copies_and_never_change(steps in steps()) {
        run_case(steps, false);
    }

    #[test]
    fn an_ordered_index_agrees_with_the_primary_after_every_step(steps in steps()) {
        run_case(steps, true);
    }

    #[test]
    fn shared_table_members_snapshot_as_their_own_maps(steps in steps()) {
        run_table_case(steps);
    }
}

/// The same property at ten times the cases (CI runs it under the serving
/// stress step's hard timeout).
#[test]
#[ignore = "soak: 10x the cases of the default run"]
fn snapshots_equal_full_copies_and_never_change_soak() {
    let mut rng = TestRng::from_name("snapshots_equal_full_copies_and_never_change_soak");
    for _ in 0..2000 {
        run_case(steps().generate(&mut rng), false);
        run_case(steps().generate(&mut rng), true);
        run_table_case(steps().generate(&mut rng));
    }
    assert!(
        PATCHED.load(Relaxed) > 0,
        "no case reached the patch branch"
    );
}

#[test]
fn the_generator_reaches_the_patch_branch() {
    let mut rng = TestRng::from_name("the_generator_reaches_the_patch_branch");
    for _ in 0..50 {
        run_case(steps().generate(&mut rng), false);
        run_table_case(steps().generate(&mut rng));
    }
    assert!(
        PATCHED.load(Relaxed) > 0 && TABLE_PATCHED.load(Relaxed) > 0,
        "no case reached the patch branch"
    );
    assert!(
        CURSOR_KEYS.load(Relaxed) > 0 && CURSOR_UNKNOWN.load(Relaxed) > 0,
        "the cursor never reported keys, or never answered \"unknown\""
    );
}

// ---------------------------------------------------------------------------
// Work guards
// ---------------------------------------------------------------------------

const N: i64 = 4096;

fn big_view() -> ViewMap {
    let mut view = ViewMap::new(Schema::new(["a", "b"]));
    for i in 0..N {
        view.add(key(i, i % 7), 1.0);
    }
    view
}

/// Write `k` keys starting at `from`: updates, inserts (beyond `N`) and, for
/// every third key, a removal.
fn write_epoch(view: &mut ViewMap, from: i64, k: i64) {
    for i in from..from + k {
        let i = i % (N + 64);
        let mult = if i % 3 == 0 {
            -view.get(&key(i, i % 7))
        } else {
            2.0
        };
        view.add(key(i, i % 7), if mult == 0.0 { 1.0 } else { mult });
    }
}

#[test]
fn a_snapshot_costs_the_writes_of_the_last_two_epochs() {
    let mut view = big_view();
    // The serving writer's hold pattern: the previous snapshot stays alive
    // until the next one is built.
    let mut last = view.to_gmr();
    // Warm-up: a view copies until it has handed out two buffers.
    write_epoch(&mut view, 0, 20);
    last = {
        let next = view.to_gmr();
        drop(last);
        next
    };
    let mut writes = [0i64, 20];
    let warm = view.snapshot_work();
    assert_eq!(warm.first_copies, 2, "{warm:?}");
    assert_eq!(warm.keys_patched, 0, "{warm:?}");

    for epoch in 1..40i64 {
        let k = 1 + (epoch * 13) % 60;
        write_epoch(&mut view, epoch * 50, k);
        writes = [writes[1], k];
        let before = view.snapshot_work();
        let next = view.to_gmr();
        let after = view.snapshot_work();
        assert_eq!(contents(&next), full_copy(&view));
        assert_eq!(
            after.keys_patched - before.keys_patched,
            (writes[0] + writes[1]) as u64,
            "epoch {epoch}: patched keys are the writes of the last two epochs"
        );
        assert_eq!(after.entries_copied, before.entries_copied, "epoch {epoch}");
        assert_eq!(after.full_copies(), before.full_copies(), "epoch {epoch}");
        last = next;
    }
    drop(last);

    // An unwritten view hands out the same buffer again, at no cost.
    let before = view.snapshot_work();
    let (a, b) = (view.to_gmr(), view.to_gmr());
    assert!(std::sync::Arc::ptr_eq(
        a.shared_data().unwrap(),
        b.shared_data().unwrap()
    ));
    assert_eq!(view.snapshot_work(), before);
}

#[test]
fn a_pinned_buffer_costs_one_full_copy_not_one_per_epoch() {
    let mut view = big_view();
    for epoch in 0..4 {
        write_epoch(&mut view, epoch * 50, 10);
        drop(view.to_gmr());
    }
    write_epoch(&mut view, 900, 10);
    let held = view.to_gmr();
    let expected = contents(&held);
    let before = view.snapshot_work();
    for epoch in 0..50 {
        write_epoch(&mut view, epoch * 50, 10);
        drop(view.to_gmr());
    }
    let after = view.snapshot_work();
    assert_eq!(after.pinned_copies - before.pinned_copies, 1, "{after:?}");
    assert_eq!(after.full_copies() - before.full_copies(), 1, "{after:?}");
    let copied = after.entries_copied - before.entries_copied;
    assert!(
        copied > 0 && copied <= (N + 64) as u64,
        "one copy of the view, not {copied} entries"
    );
    assert_eq!(contents(&held), expected, "the held snapshot never changed");
}

#[test]
fn bulk_writes_and_clears_abandon_the_log_and_copy() {
    let mut view = big_view();
    for epoch in 0..3 {
        write_epoch(&mut view, epoch * 50, 10);
        drop(view.to_gmr());
    }
    // More writes than a patch is worth: the log is dropped, the next two
    // snapshots copy, and patching resumes after them.
    write_epoch(&mut view, 0, N / 4);
    let before = view.snapshot_work();
    drop(view.to_gmr());
    write_epoch(&mut view, 0, 5);
    drop(view.to_gmr());
    let after = view.snapshot_work();
    assert_eq!(after.abandoned_copies - before.abandoned_copies, 2);
    assert_eq!(after.keys_patched, before.keys_patched);
    write_epoch(&mut view, 100, 5);
    drop(view.to_gmr());
    assert_eq!(view.snapshot_work().keys_patched - after.keys_patched, 10);
    assert_eq!(view.snapshot_work().full_copies(), after.full_copies());

    // A `:=`-style clear does the same.
    let snap = view.to_gmr();
    view.clear();
    view.add(key(1, 1), 3.0);
    let before = view.snapshot_work();
    let cleared = view.to_gmr();
    assert_eq!(cleared.len(), 1);
    assert!(snap.len() > 1, "the earlier snapshot survives the clear");
    assert_eq!(
        view.snapshot_work().abandoned_copies - before.abandoned_copies,
        1
    );
}
