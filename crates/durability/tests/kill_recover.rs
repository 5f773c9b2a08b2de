//! Kill-and-recover equivalence, end to end through the facade.
//!
//! Drives ≥50k events into a durable `ViewServer`, hard-drops it mid-stream
//! with `ViewServer::kill()` (no flush, no final checkpoint — the closest a
//! live process comes to `kill -9`), reopens the directory with
//! `open_or_create`, and requires:
//!
//! * every map equals a never-crashed reference engine over the applied
//!   prefix, **bit for bit** (all maintained maps, not just results: read
//!   cold through `ViewServer::all_maps`, since a snapshot holds only the
//!   published views);
//! * recovery replayed only the events above the newest checkpoint watermark
//!   (asserted exactly via `recovery_replayed_events`);
//! * replaying the remainder of the stream converges both runs to the same
//!   final state, bit for bit;
//! * a clean shutdown then reopens with zero replay (the final checkpoint
//!   covers everything).
//!
//! `open_or_create` and a durable `serve_with` are the same open
//! (`ViewServer::spawn` recovers the directory into the engine it is
//! handed): a used directory comes back warm through either, an engine with
//! a history of its own is refused there, and with every checkpoint damaged
//! the log replays on the caller's static tables, bit-exact or loud.

use dbtoaster::gmr::FastMap;
use dbtoaster::prelude::*;
use dbtoaster::QueryEngineBuilder;
use dbtoaster_durability::checkpoint;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const EVENTS: usize = 60_000;
const CHECKPOINT_EVERY: u64 = 8_192;

fn catalog() -> Catalog {
    [
        RelationMeta::stream("Orders", ["ordk", "ck", "xch"]),
        RelationMeta::stream("Lineitem", ["ordk", "price"]),
    ]
    .into_iter()
    .collect()
}

fn builder() -> QueryEngineBuilder {
    QueryEngineBuilder::new(catalog())
        .add_query(
            "revenue",
            "SELECT o.ck, SUM(li.price * o.xch) AS total \
             FROM Orders o, Lineitem li WHERE o.ordk = li.ordk GROUP BY o.ck",
        )
        .mode(CompileMode::HigherOrder)
}

fn config(dir: &std::path::Path) -> ServerConfig {
    let mut d = DurabilityConfig::new(dir);
    d.checkpoint_every_events = CHECKPOINT_EVERY;
    // `kill()` models a process crash; the completed write syscalls survive it
    // under any policy, so the fast one keeps the test snappy.
    d.fsync = FsyncPolicy::Never;
    ServerConfig {
        durability: Some(d),
        ..ServerConfig::default()
    }
}

/// A mixed insert/delete stream over both relations.
fn events() -> Vec<UpdateEvent> {
    let mut rng = StdRng::seed_from_u64(0x4B31);
    let mut out = Vec::with_capacity(EVENTS);
    let mut live_items: Vec<(i64, i64)> = Vec::new();
    let mut next_order = 0i64;
    for _ in 0..EVENTS {
        match rng.random_range(0..10u32) {
            0..=2 => {
                out.push(UpdateEvent::insert(
                    "Orders",
                    vec![
                        Value::long(next_order),
                        Value::long(next_order % 97),
                        Value::double((next_order % 5) as f64 + 0.5),
                    ],
                ));
                next_order += 1;
            }
            3..=8 => {
                let ordk = rng.random_range(0..(next_order + 1).max(1));
                let price = rng.random_range(1..1000i64);
                live_items.push((ordk, price));
                out.push(UpdateEvent::insert(
                    "Lineitem",
                    vec![Value::long(ordk), Value::double(price as f64)],
                ));
            }
            _ if !live_items.is_empty() => {
                let (ordk, price) = live_items.swap_remove(rng.random_range(0..live_items.len()));
                out.push(UpdateEvent::delete(
                    "Lineitem",
                    vec![Value::long(ordk), Value::double(price as f64)],
                ));
            }
            _ => {
                out.push(UpdateEvent::insert(
                    "Lineitem",
                    vec![Value::long(0), Value::double(1.0)],
                ));
            }
        }
    }
    out
}

/// Bit-exact comparison of every map the server holds — read cold, the
/// published views and the higher-order maps behind them — against a
/// single-threaded engine. The published snapshot, which covers the same
/// events once the cold read returns, must hold the same published views,
/// each result's under its name.
fn assert_snapshot_matches_engine(
    server: &ViewServer,
    engine: &dbtoaster::QueryEngine,
    context: &str,
) {
    let maps = server.all_maps().unwrap();
    let snap = server.current_snapshot();
    let results = &engine.program().results;
    for name in snap.names() {
        // A result reads its map, which another result's may be.
        let map = results
            .iter()
            .find(|r| r.name == name)
            .map_or(name, |r| &r.map);
        let (published, cold) = (snap.view(name).unwrap(), &maps[map]);
        assert_eq!(published.len(), cold.len(), "{context}: {name} published");
        for (t, m) in published.iter() {
            assert_eq!(
                cold.get(t).to_bits(),
                m.to_bits(),
                "{context}: {name} published"
            );
        }
    }
    let mut compared = 0;
    for (name, served) in &maps {
        let reference = engine
            .view(name)
            .unwrap_or_else(|| panic!("{context}: reference lacks view {name}"));
        assert_eq!(
            served.len(),
            reference.len(),
            "{context}: view {name} sizes differ"
        );
        for (t, m) in served.iter() {
            assert_eq!(
                reference.get(t).to_bits(),
                m.to_bits(),
                "{context}: {name}[{t:?}] differs"
            );
        }
        compared += 1;
    }
    assert!(compared >= 2, "{context}: expected several maintained maps");
}

type Bits = BTreeMap<String, BTreeMap<String, u64>>;

/// Every map's entries with their multiplicities' bits, in key order.
fn bits(maps: &FastMap<String, Gmr>) -> Bits {
    maps.iter()
        .map(|(name, gmr)| {
            let entries = gmr.iter().map(|(t, m)| (format!("{t:?}"), m.to_bits()));
            (name.clone(), entries.collect())
        })
        .collect()
}

/// `server`'s maps, read cold, equal `want` bit for bit; a failure names the
/// maps that differ.
fn assert_maps_equal(server: &ViewServer, want: &Bits, context: &str) {
    let got = bits(&server.all_maps().unwrap());
    let names: std::collections::BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    let total = names.len();
    let differ: Vec<&String> = names
        .into_iter()
        .filter(|n| got.get(*n) != want.get(*n))
        .collect();
    assert!(
        differ.is_empty(),
        "{context}: {} of {total} maps differ: {differ:?}",
        differ.len()
    );
}

#[test]
fn kill_and_recover_is_bit_exact_and_replays_only_above_the_watermark() {
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-kill-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let stream = events();

    // --- Phase 1: durable server, killed mid-stream -----------------------
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    let ingest = server.handle();
    // The feeder offers only the first 2/3 of the stream: however the kill
    // races the writer, the crash is guaranteed to land mid-stream.
    let offered = EVENTS * 2 / 3;
    let feeder = {
        let part: Vec<UpdateEvent> = stream[..offered].to_vec();
        std::thread::spawn(move || match ingest.send_batch(part) {
            Ok(n) => n,
            Err(e) => e.accepted,
        })
    };
    // Let it run until a periodic checkpoint has completed (beyond the
    // initial one at watermark 0) and plenty of further events applied, then
    // pull the plug mid-stream.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = server.stats();
        if s.checkpoints_taken >= 2 && s.events >= 2 * CHECKPOINT_EVERY {
            break;
        }
        assert!(Instant::now() < deadline, "writer made no progress");
        std::thread::yield_now();
    }
    server.kill();
    let accepted = feeder.join().expect("feeder thread");

    // --- Phase 2: reopen and verify the recovered prefix ------------------
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    let stats = server.stats();
    let applied = stats.events as usize;
    assert!(
        applied <= accepted,
        "recovered {applied} events but only {accepted} were ever accepted"
    );
    assert!(applied >= 2 * CHECKPOINT_EVERY as usize);
    assert!(applied <= offered, "kill was supposed to land mid-stream");

    // Replay must start exactly at the newest durable checkpoint watermark.
    let (ckpt, _) = checkpoint::load_latest(
        &dir,
        dbtoaster_durability::program_fingerprint(builder().build().unwrap().program()),
    )
    .unwrap();
    let watermark = ckpt.expect("checkpoint present").watermark;
    assert!(
        watermark >= CHECKPOINT_EVERY,
        "no periodic checkpoint survived"
    );
    assert_eq!(
        stats.recovery_replayed_events,
        applied as u64 - watermark,
        "recovery must replay exactly the events above the checkpoint watermark"
    );

    // Bit-exact prefix equivalence against a never-crashed reference.
    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    reference.process_all(&stream[..applied]).unwrap();
    assert_snapshot_matches_engine(&server, &reference, "after recovery");
    assert_eq!(
        server.reader().query("revenue").unwrap().len(),
        reference.result("revenue").unwrap().len(),
        "served result table diverged"
    );

    // --- Phase 3: replay the remainder and converge ------------------------
    // Checkpoints are taken mid-run here too, and the checkpoint thread holds
    // the snapshot it serializes: the writer must copy around those buffers,
    // never patch them, for the state below to stay bit-exact.
    let pinned_copies = |server: &ViewServer| -> u64 {
        let views = server.metrics().views;
        views
            .iter()
            .map(|v| v.get("snapshot_full_copies.pinned"))
            .sum()
    };
    let (pinned_before, checkpoints_before) = (pinned_copies(&server), stats.checkpoints_taken);
    let n = server
        .handle()
        .send_batch(stream[applied..].to_vec())
        .unwrap();
    assert_eq!(n, EVENTS - applied);
    server.flush().unwrap();
    reference.process_all(&stream[applied..]).unwrap();
    let final_stats = server.stats();
    assert_eq!(final_stats.events as usize, EVENTS);
    assert!(final_stats.wal_bytes_written > 0);
    assert_snapshot_matches_engine(&server, &reference, "after full replay");
    // Nothing but the checkpoint thread held a snapshot during the replay, so
    // full copies forced by a pinned buffer track checkpoints (at most one
    // per view per checkpoint, one more for a checkpoint still being
    // written) — not publishes, of which there were dozens.
    let checkpoints = final_stats.checkpoints_taken - checkpoints_before;
    let pinned = pinned_copies(&server) - pinned_before;
    let views = server.metrics().views.len() as u64;
    assert!(checkpoints >= 1, "the replay was long enough to checkpoint");
    assert!(
        pinned <= (checkpoints + 1) * views,
        "{pinned} pinned-buffer copies for {checkpoints} checkpoints over {views} views"
    );
    assert!(final_stats.snapshots_published > 4 * (checkpoints + 1));

    // --- Phase 4: clean shutdown reopens with zero replay ------------------
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.stats().events as usize, EVENTS);
    assert!(engine.stats().checkpoints_taken > 0);
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    let stats = server.stats();
    assert_eq!(stats.events as usize, EVENTS);
    assert_eq!(
        stats.recovery_replayed_events, 0,
        "a cleanly shut down server must reopen from its final checkpoint alone"
    );
    assert_snapshot_matches_engine(&server, &reference, "after clean reopen");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// Ordered secondary indexes are derived state: a checkpoint holds the maps,
/// not the indexes, so recovery has to leave every ordered index of `axf`'s
/// four auxiliary maps as if it had been maintained all along — refilled by
/// the checkpoint load, then written through by WAL replay. Kill past a
/// checkpoint, reopen, finish the stream: every view equals a never-crashed engine bit
/// for bit, each index holds its map's entries, and the range sums of the
/// events after recovery were all answered from the indexes. A clean
/// shutdown and reopen (checkpoint only, zero replay) must do the same.
#[test]
fn ordered_indexes_survive_checkpoint_kill_and_recover() {
    use dbtoaster::workloads;
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-kill-axf-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let axf = workloads::query("axf").unwrap();
    let builder = || {
        QueryEngineBuilder::new(workloads::full_catalog())
            .add_query(axf.name, axf.sql)
            .mode(CompileMode::HigherOrder)
    };
    let config = || {
        let mut c = config(&dir);
        c.durability.as_mut().unwrap().checkpoint_every_events = 4_096;
        c
    };
    let stream = workloads::finance::generate(&workloads::FinanceConfig {
        events: 9_000,
        seed: 5,
        ..Default::default()
    })
    .events;
    let ordered = builder().build().unwrap().program().ordered_indexes();
    let maps: Vec<&str> = ordered.iter().map(|d| d.map.as_str()).collect();
    assert_eq!(maps, ["m_axf_1", "m_axf_2", "m_axf_3", "m_axf_4"]);
    // Every ordered index holds exactly its map's entries.
    let assert_indexes_full = |server: &ViewServer, context: &str| {
        let views = server.metrics().views;
        for map in &maps {
            let v = views.iter().find(|v| v.name == *map).unwrap();
            assert!(v.get("map_size") > 0, "{context}: {map} is empty");
            assert_eq!(
                ["indexes.hash", "indexes.ordered", "indexes.entries"].map(|n| v.get(n)),
                [0, 1, v.get("map_size")],
                "{context}: {map} [hash, ordered, entries]"
            );
        }
    };

    // Killed with a periodic checkpoint behind it and 500 applied events
    // past it (fewer than a checkpoint interval, so they are in the WAL only).
    let server = builder().open_or_create_with(config()).unwrap();
    server
        .handle()
        .send_batch(stream[..4_500].to_vec())
        .unwrap();
    server.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.stats().checkpoints_taken < 2 {
        assert!(Instant::now() < deadline, "no periodic checkpoint");
        std::thread::yield_now();
    }
    let applied = 5_000;
    server
        .handle()
        .send_batch(stream[4_500..applied].to_vec())
        .unwrap();
    server.flush().unwrap();
    server.kill();

    let server = builder().open_or_create_with(config()).unwrap();
    assert_eq!(server.stats().events as usize, applied);
    let replayed = server.stats().recovery_replayed_events;
    assert!((500..applied as u64).contains(&replayed), "{replayed}");
    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    reference.process_all(&stream[..applied]).unwrap();
    assert_snapshot_matches_engine(&server, &reference, "axf recovered");

    server
        .handle()
        .send_batch(stream[applied..].to_vec())
        .unwrap();
    server.flush().unwrap();
    reference.process_all(&stream[applied..]).unwrap();
    assert_snapshot_matches_engine(&server, &reference, "axf replayed");
    assert_indexes_full(&server, "after recovery");
    let views = server.metrics().views;
    let result = views.iter().find(|v| v.name == "axf").unwrap();
    assert!(
        result.get("range_sum_hits") > 0
            && result.get("range_sum_bails") == 0
            && result.get("fused_scans") == 0,
        "range sums after recovery must come from the indexes: {result:?}"
    );

    // Checkpoint only: a clean shutdown reopens with nothing to replay.
    server.shutdown().unwrap();
    let server = builder().open_or_create_with(config()).unwrap();
    assert_eq!(server.stats().recovery_replayed_events, 0);
    assert_snapshot_matches_engine(&server, &reference, "axf reopened");
    // The gauges are refreshed when a batch is applied: place and cancel one
    // order (an ordered-index insert and removal on top of the loaded state).
    let (book, order) = (&stream[0].relation, &stream[0].tuple);
    for touch in [
        UpdateEvent::insert(book, order.clone()),
        UpdateEvent::delete(book, order.clone()),
    ] {
        server.handle().send_batch(vec![touch]).unwrap();
        server.flush().unwrap();
    }
    assert_snapshot_matches_engine(&server, &reference, "axf touched");
    assert_indexes_full(&server, "after a clean reopen");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// Refused before the WAL: the writer's ingest gate runs before the append,
/// so ill-typed events inside a drained micro-batch — an `Orders` tuple one
/// value short and a `Lineitem` price that is a string — are neither logged
/// nor applied. The log holds exactly the admitted events, the watermark
/// counts them, and a reopened server recovers the live maps bit for bit,
/// all of them read cold through `all_maps`, without a warning.
#[test]
fn an_event_refused_before_the_wal_is_never_logged() {
    use dbtoaster_durability::{program_fingerprint, WalReader};
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-refused-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let admitted: Vec<UpdateEvent> = events()[..400].to_vec();
    let mut stream = admitted.clone();
    let price = UpdateEvent::insert("Lineitem", vec![Value::long(3), Value::str("x")]);
    stream.insert(200, price);
    stream.insert(100, UpdateEvent::insert("Orders", vec![Value::long(1)]));

    let server = builder().open_or_create_with(config(&dir)).unwrap();
    server.handle().send_batch(stream).unwrap();
    server.flush().unwrap();
    let refusal = server.last_error().expect("the refusal").to_string();
    assert!(refusal.starts_with("event for Orders refused"), "{refusal}");
    assert!(!server.reader().snapshot().degraded());
    assert_eq!(server.stats().events as usize, admitted.len(), "watermark");
    let live = server.all_maps().unwrap();
    server.kill();

    let fp = program_fingerprint(builder().build().unwrap().program());
    let mut logged = Vec::new();
    let reader = WalReader::open(&dir, fp).unwrap();
    let mut visit = |_, mut events: Vec<UpdateEvent>| {
        logged.append(&mut events);
        Ok(())
    };
    reader.replay_records(1, &mut visit).unwrap();
    assert_eq!(logged, admitted, "the log holds the admitted events");

    let server = builder().open_or_create_with(config(&dir)).unwrap();
    assert_eq!(server.stats().events as usize, admitted.len());
    assert!(server.durability_warning().is_none());
    let recovered = server.all_maps().unwrap();
    assert_eq!(recovered.len(), live.len());
    for (name, g) in &live {
        let r = &recovered[name];
        assert_eq!(r.len(), g.len(), "{name}");
        for (t, m) in g.iter() {
            assert_eq!(r.get(t).to_bits(), m.to_bits(), "{name}[{t:?}]");
        }
    }
    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    reference.process_all(&admitted).unwrap();
    assert_snapshot_matches_engine(&server, &reference, "refused before the WAL");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// Served ≡ replayed over an interleaved stream. The serving writer and WAL
/// replay build each batch with every event folded straight into its
/// relation's one run, and `process_batch` runs it as it is. TPC-H's `q1`,
/// `q6` and `q12`, served durably in uneven batches over the interleaved
/// Orders/Lineitem stream, killed, and recovered by replaying the whole log:
/// every map the server held, every map recovered, and every map of an
/// engine fed the same batches through `DeltaBatch::from_events` agree bit
/// for bit, and the served engine ran exactly that engine's runs and
/// statements.
#[test]
fn an_interleaved_stream_serves_and_replays_one_run_per_relation_bit_exactly() {
    use dbtoaster::runtime::EngineStats;
    use dbtoaster::workloads::{self, Family};
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-grouped-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let builder = || {
        let mut b =
            QueryEngineBuilder::new(workloads::full_catalog()).mode(CompileMode::HigherOrder);
        for name in ["q1", "q6", "q12"] {
            let q = workloads::query(name).unwrap();
            b = b.add_query(q.name, q.sql);
        }
        b
    };
    // Only the initial checkpoint: recovery replays every logged batch.
    let config = || {
        let mut c = config(&dir);
        c.durability.as_mut().unwrap().checkpoint_every_events = u64::MAX;
        c
    };
    let stream = workloads::dataset_for(Family::Tpch, 6_000, 11).events;
    assert_eq!(stream.len(), 6_000);
    // Uneven batches of at most 128 events: `send_batch` hands each to the
    // writer as one message, drained as one batch before the next is sent.
    let mut batches = Vec::new();
    let (mut at, mut size) = (0, 1);
    while at < stream.len() {
        let end = (at + size).min(stream.len());
        batches.push(&stream[at..end]);
        (at, size) = (end, (size * 37 + 11) % 128 + 1);
    }
    // A batch interleaves when it holds more stretches of one relation's
    // events than relations.
    let stretches = |b: &[UpdateEvent]| {
        1 + b
            .windows(2)
            .filter(|w| w[0].relation != w[1].relation)
            .count()
    };
    let interleaved = batches
        .iter()
        .filter(|b| stretches(b) > DeltaBatch::from_events(**b).runs().len());
    assert!(
        interleaved.count() > batches.len() / 2,
        "Orders and Lineitem interleave"
    );

    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    for batch in &batches {
        let report = reference.process_batch(&DeltaBatch::from_events(*batch));
        assert_eq!(report.failed_events, 0);
    }

    let server = builder().open_or_create_with(config()).unwrap();
    for batch in &batches {
        server.handle().send_batch(batch.to_vec()).unwrap();
        server.flush().unwrap();
    }
    let (served, want) = (server.stats(), reference.stats());
    let work = |s: &EngineStats| {
        (
            s.events,
            s.delta_batches,
            s.batch_delta_runs,
            s.statements,
            s.batch_events_collapsed,
        )
    };
    assert_eq!(
        served.delta_batches,
        batches.len() as u64,
        "one writer batch per batch sent"
    );
    assert_eq!(work(&served), work(want), "served runs and statements");
    assert_snapshot_matches_engine(&server, &reference, "served");
    let served_maps = bits(&server.all_maps().unwrap());
    server.kill();

    let server = builder().open_or_create_with(config()).unwrap();
    let stats = server.stats();
    assert_eq!(stats.recovery_replayed_events, stream.len() as u64);
    assert_eq!(work(&stats).2, work(want).2, "replayed runs");
    assert_snapshot_matches_engine(&server, &reference, "replayed");
    assert_maps_equal(&server, &served_maps, "replayed against served");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_runs_the_same_runs_as_the_live_run() {
    // Run equivalence under recovery, at run granularity: replay rebuilds
    // one delta batch per WAL record and drives it through the same
    // `process_batch` as the live writer, so the full sequence of
    // (relation, events) runs of the batches it builds — across uneven
    // micro-batches and a mid-batch refused event — must be identical. An
    // aggregate counter check could mask compensating swaps; this one cannot.
    use dbtoaster::agca::DeltaBatch;
    use dbtoaster::runtime::Engine;
    use dbtoaster_durability::{program_fingerprint, WalReader, WalWriter};

    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-runrec-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // The revenue query's deltas are linear: its relations have an empty live
    // pass. The Lineitem self-join adds a query whose delta re-reads a map
    // Lineitem itself maintains, so multi-firing Lineitem runs make the
    // batch-delta live pass. The `vwap`-shaped nested aggregate (the
    // order-book query, over Lineitem prices) gives Lineitem a `:=`
    // statement: its runs end in the replace tail, and replay must bind it to
    // the same last event the live run did.
    let program = QueryEngineBuilder::new(catalog())
        .add_query(
            "revenue",
            "SELECT o.ck, SUM(li.price * o.xch) AS total \
             FROM Orders o, Lineitem li WHERE o.ordk = li.ordk GROUP BY o.ck",
        )
        .add_query(
            "lineitem_pairs",
            "SELECT li1.ordk, SUM(li1.price * li2.price) AS pp \
             FROM Lineitem li1, Lineitem li2 WHERE li1.ordk = li2.ordk GROUP BY li1.ordk",
        )
        .add_query(
            "price_vwap",
            "SELECT SUM(l1.price) AS vwap FROM Lineitem l1 \
             WHERE 0.25 * (SELECT SUM(l3.price) FROM Lineitem l3) > \
             (SELECT SUM(l2.price) FROM Lineitem l2 WHERE l2.price > l1.price)",
        )
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap()
        .program()
        .clone();
    assert!(
        program
            .triggers
            .iter()
            .filter(|t| t.relation == "Lineitem")
            .all(|t| t.increments().len() < t.statements.len()),
        "Lineitem lost its `:=` tail"
    );
    let ccat = catalog();
    let fp = program_fingerprint(&program);

    let mut stream: Vec<UpdateEvent> = events()[..2_000].to_vec();
    // Arity-mismatched insert: refused in the middle of whatever micro-batch
    // it lands in, without stopping the stream. (A serving writer would not
    // log it; both runs refuse it alike.)
    stream.insert(700, UpdateEvent::insert("Lineitem", vec![Value::long(3)]));

    // The (relation, events) of every run of a batch.
    let runs_of = |delta: &DeltaBatch| -> Vec<(String, u64)> {
        let runs = delta.runs().iter();
        runs.map(|r| (r.relation().to_string(), r.events()))
            .collect()
    };

    // Live run: uneven micro-batches, one WAL record each (the live writer's
    // contract: record boundaries == batch boundaries).
    let mut live = Engine::new(program.clone(), &ccat);
    let mut wal = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, u64::MAX).unwrap();
    let mut live_runs: Vec<(String, u64)> = Vec::new();
    let mut live_failed = 0u64;
    let mut delta = DeltaBatch::new();
    let mut rest: &[UpdateEvent] = &stream;
    let mut size = 1usize;
    while !rest.is_empty() {
        let n = size.min(rest.len());
        let (chunk, tail) = rest.split_at(n);
        rest = tail;
        size = (size * 3 + 1) % 257 + 1;
        wal.append(chunk).unwrap();
        delta.clear();
        for ev in chunk {
            delta.push(ev);
        }
        live_runs.extend(runs_of(&delta));
        let report = live.process_batch(&delta);
        live_failed += report.failed_events;
    }
    wal.sync().unwrap();
    drop(wal);
    assert_eq!(
        live_failed, 1,
        "exactly the arity-mismatched event is refused"
    );

    // Replay: same records, same batches, same dispatch.
    let reader = WalReader::open(&dir, fp).unwrap();
    let mut replayed = Engine::new(program, &ccat);
    let mut replay_runs: Vec<(String, u64)> = Vec::new();
    let mut replay_failed = 0u64;
    let mut delta = DeltaBatch::new();
    reader
        .replay_records(1, &mut |_first_seq, events| {
            delta.clear();
            for ev in events {
                delta.push_owned(ev);
            }
            replay_runs.extend(runs_of(&delta));
            replay_failed += replayed.process_batch(&delta).failed_events;
            Ok(())
        })
        .unwrap();

    assert!(
        live_runs.iter().any(|r| r.0 == "Lineitem" && r.1 > 3),
        "expected multi-firing Lineitem runs (the live pass): {live_runs:?}"
    );
    assert_eq!(
        live_runs, replay_runs,
        "live and replayed run sequences must be identical"
    );
    // Both ran every admitted run of a relation with triggers, alike.
    assert_eq!(replay_failed, live_failed);
    let ran = |e: &Engine| (e.stats().batch_delta_runs, e.stats().statements);
    assert!(ran(&live).0 > 0, "no batch-delta runs");
    assert_eq!(
        ran(&live),
        ran(&replayed),
        "(runs, statements) live vs replayed"
    );
    // Identical runs must mean identical bits.
    for m in &live.program().maps {
        let (a, b) = (live.view(&m.name), replayed.view(&m.name));
        match (a, b) {
            (Some(ga), Some(gb)) => assert!(
                ga.equivalent(&gb, 0.0),
                "view {} diverges between live and replay",
                m.name
            ),
            (None, None) => {}
            _ => panic!("view {} present on only one side", m.name),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn durable_serve_recovers_a_used_directory_and_refuses_a_second_history() {
    // `ViewServer::spawn` is the one durable open: a durable `serve_with` on
    // a used directory recovers it, exactly as `open_or_create` does.
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-used-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let stream = events();
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    server.handle().send_batch(stream[..500].to_vec()).unwrap();
    server.flush().unwrap();
    let live = bits(&server.all_maps().unwrap());
    drop(server); // clean shutdown: final checkpoint at watermark 500

    let server = builder().build().unwrap().serve_with(config(&dir)).unwrap();
    assert_eq!(server.stats().events, 500, "comes back warm");
    assert_maps_equal(&server, &live, "served on a used directory");
    drop(server);

    // An engine that has applied events is a history of its own: serving it
    // on a directory that holds another would fork the two.
    let second_history = || {
        let mut engine = builder().build().unwrap();
        engine.process(&stream[0]).unwrap();
        match engine.serve_with(config(&dir)) {
            Err(e) => assert!(e.to_string().contains("two histories"), "{e}"),
            Ok(_) => panic!("an engine with its own history must be refused"),
        }
    };
    second_history();

    // With every checkpoint wiped only the WAL is left. A refused open must
    // not leave an initial checkpoint behind for a later recovery to adopt;
    // a fresh engine then either replays the log bit-exactly or fails loudly.
    for (_, path) in dbtoaster_durability::list_checkpoints(&dir).unwrap() {
        fs::remove_file(path).unwrap();
    }
    second_history();
    assert!(
        dbtoaster_durability::list_checkpoints(&dir)
            .unwrap()
            .is_empty(),
        "a refused open must not leave a checkpoint behind"
    );
    if let Ok(server) = builder().build().unwrap().serve_with(config(&dir)) {
        assert_eq!(server.stats().events, 500);
        assert_maps_equal(&server, &live, "replayed the WAL alone");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Static tables travel only in checkpoints. With every checkpoint damaged,
/// recovery replays the whole log on the engine the caller hands it — the one
/// holding the loaded tables — so a reopened `ssb4` over the TPC-H tables
/// must hold exactly the maps the killed server held, `Nation`, `Region` and
/// the views derived from them included; the only other legal outcome is a
/// loud refusal.
#[test]
fn damaged_checkpoints_replay_on_the_callers_static_tables() {
    use dbtoaster::workloads;
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-static-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut data = workloads::tpch::generate(&workloads::TpchConfig {
        scale: 0.003,
        seed: 11,
        orders_working_set: 60,
        lineitem_working_set: 240,
    });
    data.truncate(1_500);
    let q = workloads::query("ssb4").unwrap();
    let open = || {
        let mut engine = QueryEngineBuilder::new(workloads::tpch_catalog())
            .add_query(q.name, q.sql)
            .mode(CompileMode::HigherOrder)
            .build()
            .unwrap();
        for (table, rows) in &data.tables {
            engine.load_table(table, rows.clone()).unwrap();
        }
        engine.open_or_create_with(config(&dir))
    };
    let server = open().unwrap();
    server.handle().send_batch(data.events.clone()).unwrap();
    server.flush().unwrap();
    let live = bits(&server.all_maps().unwrap());
    assert!(!live["Nation"].is_empty() && !live["ssb4"].is_empty());
    server.kill();

    let checkpoints = dbtoaster_durability::list_checkpoints(&dir).unwrap();
    assert!(!checkpoints.is_empty());
    for (_, path) in checkpoints {
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        fs::write(&path, bytes).unwrap();
    }
    match open() {
        Ok(server) => {
            assert_eq!(server.stats().events, data.events.len() as u64);
            assert_eq!(
                server.stats().recovery_replayed_events,
                server.stats().events
            );
            assert!(server.durability_warning().is_some(), "a degraded recovery");
            assert_maps_equal(&server, &live, "every checkpoint damaged");
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn send_batch_reports_partial_progress_when_the_server_dies() {
    let server = builder().serve().unwrap();
    let ingest = server.handle();
    let stream = events();
    let total = stream.len();
    let feeder = std::thread::spawn(move || match ingest.send_batch(stream) {
        Ok(n) => Ok(n),
        Err(e) => Err((e.accepted, e.unsent.len())),
    });
    // Kill while the feeder is (very likely) still pushing; either way the
    // contract must hold.
    while server.stats().events < 512 {
        std::thread::yield_now();
    }
    server.kill();
    match feeder.join().expect("feeder") {
        Ok(n) => assert_eq!(n, total, "a fully accepted batch reports its length"),
        Err((accepted, unsent)) => {
            assert!(accepted < total);
            assert!(unsent > 0, "the rejected chunk must come back");
            assert_eq!(
                accepted % 128,
                0,
                "chunks are accepted or rejected atomically"
            );
        }
    }
}

#[test]
fn transient_wal_fault_degrades_then_rearms_and_stays_bit_exact() {
    // ISSUE 9 acceptance: a server that hits a transient WAL fault must
    // degrade (serving from memory, durability suspended), then — once the
    // fault clears — re-arm onto a fresh segment and resume durable writes,
    // with the post-crash recovered state bit-exact against the live one.
    use dbtoaster_durability::vfs::EIO;
    use dbtoaster_durability::{FaultConfig, FaultVfs, RetryPolicy};
    use std::sync::Arc;

    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-rearm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let stream = events();
    let fault = Arc::new(FaultVfs::new(FaultConfig {
        seed: 11,
        fail_prob_ppm: 0,
        enospc_prob_ppm: 0,
        short_write_prob_ppm: 0,
        cut_at_op: None,
    }));
    let faulty_config = || {
        let mut d = DurabilityConfig::new(&dir);
        d.checkpoint_every_events = CHECKPOINT_EVERY;
        d.fsync = FsyncPolicy::EveryBatch;
        d.vfs = Arc::new(fault.clone());
        // Tiny backoffs keep the test fast; the policy shape is what matters.
        d.retry = RetryPolicy {
            max_inline_retries: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
        };
        ServerConfig {
            durability: Some(d),
            ..ServerConfig::default()
        }
    };

    let server = builder().open_or_create_with(faulty_config()).unwrap();
    let ingest = server.handle();

    // Healthy prefix: durable, not degraded.
    assert_eq!(ingest.send_batch(stream[..1000].to_vec()).unwrap(), 1000);
    server.flush().unwrap();
    assert!(!server.reader().snapshot().degraded());

    // The disk goes bad: every write fails EIO. Bounded inline retries
    // exhaust and the writer enters degraded mode — loudly, not fatally.
    fault.fail_writes_with(EIO);
    assert_eq!(
        ingest.send_batch(stream[1000..2000].to_vec()).unwrap(),
        1000,
        "send_batch must keep accepting (backpressure, never drop) while retrying"
    );
    server.flush().unwrap();
    assert!(
        server.reader().snapshot().degraded(),
        "a fault surviving the retry budget must surface as degraded"
    );
    assert!(
        server.last_error().is_none(),
        "a transient fault must degrade, not latch a fatal durability error"
    );

    // Degraded mode still serves: ingest and reads continue from memory.
    assert_eq!(
        ingest.send_batch(stream[2000..3000].to_vec()).unwrap(),
        1000
    );
    server.flush().unwrap();
    assert_eq!(server.stats().events, 3000);
    assert!(server.reader().snapshot().degraded());

    // The disk recovers. The next batches tick the re-arm path: checkpoint at
    // the current watermark first (capturing the degraded-period events),
    // then a fresh WAL segment right above it.
    fault.heal();
    let mut at = 3000usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.reader().snapshot().degraded() {
        assert!(
            Instant::now() < deadline,
            "server never re-armed after heal()"
        );
        let end = (at + 50).min(stream.len());
        assert_eq!(
            ingest.send_batch(stream[at..end].to_vec()).unwrap(),
            end - at
        );
        server.flush().unwrap();
        at = end;
    }
    // Durable traffic resumes on the fresh segment.
    let end = at + 1000;
    assert_eq!(ingest.send_batch(stream[at..end].to_vec()).unwrap(), 1000);
    server.flush().unwrap();
    let applied = server.stats().events as usize;
    assert_eq!(applied, end);

    // Live state is bit-exact against a never-faulted reference...
    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    reference.process_all(&stream[..applied]).unwrap();
    assert_snapshot_matches_engine(&server, &reference, "live after re-arm");

    // ...and everything applied is durable again: kill -9, recover through
    // the real filesystem, and require live == recovered, bit for bit.
    server.kill();
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    assert_eq!(
        server.stats().events as usize,
        applied,
        "the re-armed log plus its checkpoint must cover every applied event"
    );
    assert_snapshot_matches_engine(&server, &reference, "recovered after re-arm");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}
