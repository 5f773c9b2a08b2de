//! Concurrency stress tests for the serving layer.
//!
//! * `concurrent_readers_never_observe_torn_snapshots` — four reader threads
//!   continuously assert a conservation invariant (a SUM view, a COUNT view and
//!   the snapshot's own event counter must all agree) while the writer applies
//!   50k updates. A torn snapshot — one view ahead of another, or a view ahead
//!   of the epoch metadata — fails the assertion immediately.
//! * `subscription_replay_reconstructs_final_view` — replays the output-delta
//!   stream of a group-by query (inserts *and* deletes) on top of the
//!   subscription's baseline and requires bit-exact agreement with the final
//!   view, including the old-multiplicity of every delta record.
//! * `held_snapshot_survives_a_thousand_publishes_under_concurrent_readers` —
//!   snapshots are patched recycled buffers, so a reader that holds one must
//!   never see it change: one thread pins a snapshot of a 16k-entry view
//!   across ≥ 1,000 publishes (three times over) and compares it bit for bit,
//!   while three others check conservation on every fresh snapshot.
//! * `long_holds_cost_one_copy_each_not_one_per_publish` — the same hold
//!   pattern in lock-step on one thread, where the work is deterministic: a
//!   held snapshot costs each written view exactly one full copy, the other
//!   publishes patch.
//! * `subscriptions_stay_exact_under_checkpoints_and_cold_reads` — the
//!   subscription replay on a durable server whose checkpoints and cold reads
//!   snapshot the subscribed views between publishes.

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::{compile, Catalog, CompileOptions, QuerySpec, RelationMeta, ResultAccess};
use dbtoaster_gmr::{FastMap, Gmr, Tuple, Value};
use dbtoaster_runtime::Engine;
use dbtoaster_server::{ServerConfig, Snapshot, ViewServer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn catalog() -> Catalog {
    [RelationMeta::stream("R", ["A", "V"])]
        .into_iter()
        .collect()
}

/// Compile `TOTAL = Sum[](R(a,v) * v)` and `CNT = Sum[](R(a,v))` into one program.
fn conservation_engine() -> (Engine, String, String) {
    let total = QuerySpec {
        name: "TOTAL".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    let cnt = QuerySpec {
        name: "CNT".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(Vec::<String>::new(), Expr::rel("R", ["a", "v"])),
    };
    let program = compile(&[total, cnt], &catalog(), &CompileOptions::default()).unwrap();
    let map_of = |name: &str| -> String {
        let r = program.results.iter().find(|r| r.name == name);
        let ResultAccess::Map(m) = &r.expect("result present").access;
        m.clone()
    };
    let (total_map, cnt_map) = (map_of("TOTAL"), map_of("CNT"));
    (Engine::new(program, &catalog()), total_map, cnt_map)
}

#[test]
fn concurrent_readers_never_observe_torn_snapshots() {
    const EVENTS: i64 = 50_000;
    let (engine, total_map, cnt_map) = conservation_engine();
    let server = ViewServer::spawn(
        engine,
        vec![],
        ServerConfig {
            queue_capacity: 4096,
            max_batch: 64,
            ..ServerConfig::default()
        },
    )
    .expect("spawn without durability is infallible");

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let reader = server.reader();
            let done = done.clone();
            let (total_map, cnt_map) = (total_map.clone(), cnt_map.clone());
            thread::spawn(move || {
                let mut snapshots_checked = 0u64;
                let mut last_epoch = 0u64;
                loop {
                    let finished = done.load(SeqCst);
                    let snap = reader.snapshot();
                    let total = snap.view(&total_map).map_or(0.0, |g| g.scalar_value());
                    let cnt = snap.view(&cnt_map).map_or(0.0, |g| g.scalar_value());
                    // Conservation: every event inserts exactly (key, 1), so the
                    // SUM view, the COUNT view and the snapshot's own event
                    // counter must agree on every published epoch.
                    assert_eq!(
                        total,
                        cnt,
                        "torn snapshot at epoch {}: SUM {} != COUNT {}",
                        snap.epoch(),
                        total,
                        cnt
                    );
                    assert_eq!(
                        total,
                        snap.events_applied() as f64,
                        "snapshot at epoch {} out of step with its event counter",
                        snap.epoch()
                    );
                    assert!(
                        snap.epoch() >= last_epoch,
                        "snapshot epoch went backwards: {} < {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    snapshots_checked += 1;
                    if finished {
                        break;
                    }
                }
                snapshots_checked
            })
        })
        .collect();

    let ingest = server.handle();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..EVENTS {
        // Random keys (with repeats) so multiplicities pile up; weight always 1.
        let key = rng.random_range(0..(EVENTS / 4).max(1));
        ingest
            .send(UpdateEvent::insert(
                "R",
                vec![Value::long(key), Value::long(1)],
            ))
            .unwrap();
    }
    let epoch = server.flush().unwrap();
    assert!(epoch > 0);
    done.store(true, SeqCst);

    let mut total_checked = 0;
    for r in readers {
        total_checked += r.join().expect("reader thread panicked");
    }
    assert!(total_checked >= 4, "readers made no progress");

    let stats = server.stats();
    assert_eq!(stats.events, EVENTS as u64);
    assert!(stats.batches > 0);
    assert!(stats.snapshots_published > 0);
    assert!(
        stats.snapshots_published <= stats.batches,
        "publishes are coalesced across batches"
    );
    assert!(stats.events_per_batch() > 0.0);
    assert!(server.last_error().is_none());

    // The final snapshot holds the exact stream total.
    let reader = server.reader();
    let snap = reader.snapshot();
    assert_eq!(snap.view(&total_map).unwrap().scalar_value(), EVENTS as f64);
    let engine = server.shutdown().expect("clean shutdown");
    assert_eq!(engine.stats().events, EVENTS as u64);
}

#[test]
fn subscription_replay_reconstructs_final_view() {
    const EVENTS: usize = 20_000;
    let per_key = QuerySpec {
        name: "PER_KEY".into(),
        out_vars: vec!["a".into()],
        expr: Expr::agg_sum(
            ["a".to_string()],
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    let program = compile(&[per_key], &catalog(), &CompileOptions::default()).unwrap();
    let ResultAccess::Map(view_name) = program.results[0].access.clone();
    let engine = Engine::new(program, &catalog());
    let server = ViewServer::spawn(
        engine,
        vec![],
        ServerConfig {
            queue_capacity: 1024,
            max_batch: 37, // deliberately odd so batch boundaries wander
            ..ServerConfig::default()
        },
    )
    .expect("spawn without durability is infallible");

    let sub = server.subscribe("PER_KEY").unwrap();
    assert!(sub.baseline().view(&view_name).unwrap().is_empty());

    // Random inserts and deletes; deletes replay earlier inserts so entries
    // cancel to zero now and then (exercising key removal in the deltas).
    let ingest = server.handle();
    let mut rng = StdRng::seed_from_u64(99);
    let mut live: Vec<(i64, i64)> = Vec::new();
    for _ in 0..EVENTS {
        let delete = !live.is_empty() && rng.random_bool(0.35);
        if delete {
            let idx = rng.random_range(0..live.len());
            let (a, v) = live.swap_remove(idx);
            ingest
                .send(UpdateEvent::delete(
                    "R",
                    vec![Value::long(a), Value::long(v)],
                ))
                .unwrap();
        } else {
            let a = rng.random_range(0..64i64);
            let v = rng.random_range(1..100i64);
            live.push((a, v));
            ingest
                .send(UpdateEvent::insert(
                    "R",
                    vec![Value::long(a), Value::long(v)],
                ))
                .unwrap();
        }
    }
    server.flush().unwrap();
    let engine = server.shutdown().expect("clean shutdown");
    let final_view = engine.view(&view_name).expect("view exists");

    // Replay: apply each received batch on top of the baseline. `old_mult`
    // must match the replayed state exactly, batch epochs must be increasing,
    // and the end state must equal the final view bit-for-bit.
    let mut state: FastMap<Tuple, f64> = FastMap::default();
    let mut last_epoch = 0u64;
    let mut batches = 0u64;
    while let Some(batch) = sub.try_recv() {
        assert!(
            batch.epoch > last_epoch,
            "batch epochs must be strictly increasing"
        );
        last_epoch = batch.epoch;
        batches += 1;
        for d in &batch.deltas {
            let current = state.get(&d.key).copied().unwrap_or(0.0);
            assert_eq!(
                current, d.old_mult,
                "delta for {:?} disagrees with replayed state",
                d.key
            );
            if d.new_mult == 0.0 {
                state.remove(&d.key);
            } else {
                state.insert(d.key.clone(), d.new_mult);
            }
        }
    }
    assert!(batches > 1, "expected multiple delta batches");
    assert_eq!(state.len(), final_view.len(), "key sets differ");
    for (key, mult) in final_view.iter() {
        assert_eq!(
            state.get(key).copied(),
            Some(mult),
            "replayed multiplicity differs for {key:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Held snapshots over patched buffers
// ---------------------------------------------------------------------------

/// Distinct keys of the per-key view: large enough that a 64-event batch stays
/// far inside the patch budget, so steady-state publishes patch.
const KEYS: i64 = 16_384;
const BATCH: usize = 64;

/// `PER_KEY[a] = Sum(R(a,v) * v)` beside the two scalar views of
/// [`conservation_engine`], served with one publish per `BATCH` events and
/// pre-loaded with one event per key. Returns the map names of
/// (PER_KEY, TOTAL, CNT).
fn per_key_server() -> (ViewServer, [String; 3]) {
    let spec = |name: &str, group: bool, weighted: bool| QuerySpec {
        name: name.into(),
        out_vars: if group { vec!["a".into()] } else { vec![] },
        expr: Expr::agg_sum(
            if group { vec!["a".to_string()] } else { vec![] },
            if weighted {
                Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")])
            } else {
                Expr::rel("R", ["a", "v"])
            },
        ),
    };
    let queries = [
        spec("PER_KEY", true, true),
        spec("TOTAL", false, true),
        spec("CNT", false, false),
    ];
    let program = compile(&queries, &catalog(), &CompileOptions::default()).unwrap();
    let names = ["PER_KEY", "TOTAL", "CNT"].map(|q| {
        let ResultAccess::Map(m) = &program.results.iter().find(|r| r.name == q).unwrap().access;
        m.clone()
    });
    let server = ViewServer::spawn(
        Engine::new(program, &catalog()),
        vec![],
        ServerConfig {
            max_batch: BATCH,
            publish_interval: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("spawn without durability is infallible");
    let ingest = server.handle();
    ingest
        .send_batch(
            (0..KEYS).map(|a| UpdateEvent::insert("R", vec![Value::long(a), Value::long(1)])),
        )
        .unwrap();
    server.flush().unwrap();
    (server, names)
}

/// One publish: `BATCH` weight-1 inserts at random keys, then a barrier.
fn publish_one(server: &ViewServer, rng: &mut StdRng) {
    let events: Vec<_> = (0..BATCH)
        .map(|_| {
            let a = rng.random_range(0..KEYS);
            UpdateEvent::insert("R", vec![Value::long(a), Value::long(1)])
        })
        .collect();
    server.handle().send_batch(events).unwrap();
    server.flush().unwrap();
}

/// Every event inserts `(key, 1)`: the per-key sums, the SUM view, the COUNT
/// view and the snapshot's event counter must agree on every snapshot.
fn assert_conserved(snap: &Snapshot, names: &[String; 3]) {
    let per_key: f64 = snap.view(&names[0]).unwrap().iter().map(|(_, m)| m).sum();
    let total = snap.view(&names[1]).unwrap().scalar_value();
    let cnt = snap.view(&names[2]).unwrap().scalar_value();
    let applied = snap.events_applied() as f64;
    assert!(
        per_key == applied && total == applied && cnt == applied,
        "torn snapshot at epoch {}: per-key {per_key}, SUM {total}, COUNT {cnt}, applied {applied}",
        snap.epoch()
    );
}

fn bits(gmr: &Gmr) -> Vec<(Tuple, u64)> {
    let mut rows: Vec<_> = gmr.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect();
    rows.sort();
    rows
}

#[test]
fn held_snapshot_survives_a_thousand_publishes_under_concurrent_readers() {
    const HOLDS: u64 = 3;
    const HOLD_PUBLISHES: u64 = 1_000;
    let (server, names) = per_key_server();
    let done = Arc::new(AtomicBool::new(false));
    let holds_done = Arc::new(AtomicU64::new(0));

    let cyclers: Vec<_> = (0..3)
        .map(|_| {
            let (reader, done, names) = (server.reader(), done.clone(), names.clone());
            thread::spawn(move || {
                let mut checked = 0u64;
                while !done.load(SeqCst) {
                    assert_conserved(&reader.snapshot(), &names);
                    checked += 1;
                }
                checked
            })
        })
        .collect();
    let holder = {
        let (reader, names, holds_done) = (server.reader(), names.clone(), holds_done.clone());
        thread::spawn(move || {
            for _ in 0..HOLDS {
                let held = reader.snapshot();
                let expected = bits(held.view(&names[0]).unwrap());
                // Waiting on the writer's progress, not forcing an interleaving.
                while reader.epoch() < held.epoch() + HOLD_PUBLISHES {
                    thread::sleep(Duration::from_millis(1));
                }
                assert_conserved(&held, &names);
                assert_eq!(
                    bits(held.view(&names[0]).unwrap()),
                    expected,
                    "the snapshot held since epoch {} changed",
                    held.epoch()
                );
                holds_done.fetch_add(1, SeqCst);
            }
        })
    };

    let mut rng = StdRng::seed_from_u64(17);
    let mut publishes = 0u64;
    while holds_done.load(SeqCst) < HOLDS {
        publish_one(&server, &mut rng);
        publishes += 1;
        assert!(
            publishes < 50 * HOLDS * HOLD_PUBLISHES,
            "the holder made no progress"
        );
    }
    done.store(true, SeqCst);
    holder.join().expect("holder thread panicked");
    for c in cyclers {
        assert!(c.join().expect("reader thread panicked") > 0);
    }
    assert!(publishes >= HOLDS * HOLD_PUBLISHES);
    assert!(server.last_error().is_none());
    assert_conserved(&server.current_snapshot(), &names);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn long_holds_cost_one_copy_each_not_one_per_publish() {
    const HOLDS: u64 = 3;
    const HOLD_PUBLISHES: u64 = 1_000;
    let (server, names) = per_key_server();
    let (held_reader, cycling_reader) = (server.reader(), server.reader());
    let mut rng = StdRng::seed_from_u64(23);
    // Past warm-up: every view has handed out two buffers.
    for _ in 0..4 {
        publish_one(&server, &mut rng);
    }
    let pinned = |server: &ViewServer| -> u64 {
        let views = server.metrics().views;
        views.iter().map(|v| v.snapshot_full_copies[1]).sum()
    };
    let (before, pinned_before) = (server.stats(), pinned(&server));

    for _ in 0..HOLDS {
        let held = held_reader.snapshot();
        let expected = bits(held.view(&names[0]).unwrap());
        for _ in 0..HOLD_PUBLISHES {
            publish_one(&server, &mut rng);
            // The cycling reader lets go before the next publish.
            assert_conserved(&cycling_reader.snapshot(), &names);
        }
        assert_eq!(bits(held.view(&names[0]).unwrap()), expected);
    }

    let after = server.stats();
    assert_eq!(
        after.snapshots_published - before.snapshots_published,
        HOLDS * HOLD_PUBLISHES
    );
    // A held snapshot pins one buffer of the per-key view (the scalar views
    // are copied on every publish anyway — one entry each, their log never
    // fits the patch budget): one full copy per hold, every other publish
    // patches two epochs of writes.
    assert_eq!(pinned(&server) - pinned_before, HOLDS);
    let copied = after.snapshot_entries_copied - before.snapshot_entries_copied;
    let scalar_copies = 2 * HOLDS * HOLD_PUBLISHES;
    assert!(
        copied <= HOLDS * KEYS as u64 + scalar_copies,
        "{copied} entries copied over {HOLDS} holds: more than one copy per hold"
    );
    let patched = after.snapshot_keys_patched - before.snapshot_keys_patched;
    assert!(
        patched <= 2 * BATCH as u64 * HOLDS * HOLD_PUBLISHES,
        "{patched} keys patched: more than two epochs of writes per publish"
    );
    assert!(patched >= BATCH as u64 * (HOLDS * HOLD_PUBLISHES - 2 * HOLDS));
    server.shutdown().expect("clean shutdown");
}

// ---------------------------------------------------------------------------
// Subscriptions on a durable server
// ---------------------------------------------------------------------------

/// A subscriber's cursor is the snapshot the previous publish handed out, and
/// its deltas are read from the subscribed view's own write log. Checkpoints
/// (every few events) and cold reads (`all_maps`) snapshot the same views
/// between publishes, rotating their buffers, so a publish may find its
/// cursor one buffer back (the whole log) or rotated out (a full diff). Two
/// subscriptions — a grouped view big enough to be patched, and a scalar view
/// whose every write abandons its log — must replay onto their baselines to
/// the final views bit for bit, with each changed key once per batch, no
/// delta for an unchanged key, and `subscriber_deltas` equal to what was
/// delivered.
#[test]
fn subscriptions_stay_exact_under_checkpoints_and_cold_reads() {
    use dbtoaster_durability::{DurabilityConfig, FsyncPolicy};
    use dbtoaster_gmr::FastSet;
    const KEYS: i64 = 4096;
    let spec = |name: &str, out_vars: Vec<String>| QuerySpec {
        name: name.into(),
        out_vars: out_vars.clone(),
        expr: Expr::agg_sum(
            out_vars,
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    let queries = [spec("PER_KEY", vec!["a".into()]), spec("TOTAL", vec![])];
    let program = compile(&queries, &catalog(), &CompileOptions::default()).unwrap();
    let names = ["PER_KEY", "TOTAL"].map(|q| {
        let ResultAccess::Map(m) = &program.results.iter().find(|r| r.name == q).unwrap().access;
        m.clone()
    });
    let dir = std::env::temp_dir().join(format!("dbt-sub-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durability = DurabilityConfig::new(&dir);
    durability.fsync = FsyncPolicy::Never;
    durability.checkpoint_every_events = 7;
    let server = ViewServer::spawn(
        Engine::new(program, &catalog()),
        vec![],
        ServerConfig {
            // Publishes only at barriers, cold reads and joins, so most
            // writer iterations apply a chunk and checkpoint without one.
            max_batch: 1 << 16,
            publish_interval: Duration::from_secs(3600),
            durability: Some(durability),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ingest = server.handle();
    let event = |insert: bool, (a, v): (i64, i64)| {
        let tuple = vec![Value::long(a), Value::long(v)];
        if insert {
            UpdateEvent::insert("R", tuple)
        } else {
            UpdateEvent::delete("R", tuple)
        }
    };
    let mut live: Vec<(i64, i64)> = (0..KEYS).map(|a| (a, 1)).collect();
    ingest
        .send_batch(live.iter().map(|&row| event(true, row)))
        .unwrap();
    server.flush().unwrap();
    let subs = [("PER_KEY", &names[0]), ("TOTAL", &names[1])]
        .map(|(query, view)| (server.subscribe(query).unwrap(), view.clone()));

    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..400 {
        let chunk: Vec<UpdateEvent> = (0..rng.random_range(1..24))
            .map(|_| {
                if rng.random_bool(0.4) {
                    let row = live.swap_remove(rng.random_range(0..live.len()));
                    event(false, row)
                } else {
                    let row = (rng.random_range(0..KEYS), rng.random_range(1..100i64));
                    live.push(row);
                    event(true, row)
                }
            })
            .collect();
        ingest.send_batch(chunk).unwrap();
        match rng.random_range(0..6) {
            0 => drop(server.flush().unwrap()),
            1 => drop(server.all_maps().unwrap()),
            _ => {}
        }
    }
    server.flush().unwrap();
    drop(ingest);
    let engine = server.shutdown().expect("clean shutdown");
    assert!(
        engine.stats().checkpoints_taken > 10,
        "{:?}",
        engine.stats()
    );
    let patched = engine.database().view(&names[0]).unwrap().snapshot_work();
    assert!(patched.keys_patched > 0, "{patched:?}");

    let mut delivered = 0u64;
    for (sub, view) in &subs {
        let mut state: FastMap<Tuple, f64> = sub
            .baseline()
            .view(view)
            .unwrap()
            .iter()
            .map(|(k, m)| (k.clone(), m))
            .collect();
        let mut batches = 0;
        while let Some(batch) = sub.try_recv() {
            let mut seen = FastSet::default();
            for d in &batch.deltas {
                assert!(
                    seen.insert(&d.key),
                    "{view}: {:?} twice in one batch",
                    d.key
                );
                let current = state.get(&d.key).copied().unwrap_or(0.0);
                assert_eq!(
                    current.to_bits(),
                    d.old_mult.to_bits(),
                    "{view}: {:?}",
                    d.key
                );
                assert_ne!(
                    d.old_mult.to_bits(),
                    d.new_mult.to_bits(),
                    "{view}: a delta for unchanged {:?}",
                    d.key
                );
                if d.new_mult == 0.0 {
                    state.remove(&d.key);
                } else {
                    state.insert(d.key.clone(), d.new_mult);
                }
            }
            delivered += batch.deltas.len() as u64;
            batches += 1;
        }
        assert!(batches > 50, "{view}: {batches} delta batches");
        let replayed = bits(&Gmr::from_shared(
            engine.view(view).unwrap().schema().clone(),
            Arc::new(state),
        ));
        assert_eq!(replayed, bits(&engine.view(view).unwrap()), "{view}");
    }
    assert_eq!(engine.stats().subscriber_deltas, delivered);
    let _ = std::fs::remove_dir_all(&dir);
}
