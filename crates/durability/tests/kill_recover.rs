//! Kill-and-recover equivalence, end to end through the facade.
//!
//! Drives ≥50k events into a durable `ViewServer`, hard-drops it mid-stream
//! with `ViewServer::kill()` (no flush, no final checkpoint — the closest a
//! live process comes to `kill -9`), reopens the directory with
//! `open_or_create`, and requires:
//!
//! * every served view equals a never-crashed reference engine over the
//!   applied prefix, **bit for bit** (all maintained maps, not just results);
//! * recovery replayed only the events above the newest checkpoint watermark
//!   (asserted exactly via `recovery_replayed_events`);
//! * replaying the remainder of the stream converges both runs to the same
//!   final state, bit for bit;
//! * a clean shutdown then reopens with zero replay (the final checkpoint
//!   covers everything).

use dbtoaster::prelude::*;
use dbtoaster::QueryEngineBuilder;
use dbtoaster_durability::checkpoint;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const EVENTS: usize = 60_000;
const CHECKPOINT_EVERY: u64 = 8_192;

fn catalog() -> SqlCatalog {
    [
        TableDef::stream("Orders", ["ordk", "ck", "xch"]),
        TableDef::stream("Lineitem", ["ordk", "price"]),
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

/// Bit-exact comparison of every view in a served snapshot against a
/// single-threaded engine.
fn assert_snapshot_matches_engine(snap: &Snapshot, engine: &dbtoaster::QueryEngine, context: &str) {
    let mut compared = 0;
    for name in snap.names() {
        let served = snap.view(name).unwrap();
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
    let reader = server.reader();
    assert_snapshot_matches_engine(&reader.snapshot(), &reference, "after recovery");
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
        views.iter().map(|v| v.snapshot_full_copies[1]).sum()
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
    assert_snapshot_matches_engine(&reader.snapshot(), &reference, "after full replay");
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
    assert_snapshot_matches_engine(
        &server.reader().snapshot(),
        &reference,
        "after clean reopen",
    );
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
            assert!(v.map_size > 0, "{context}: {map} is empty");
            assert_eq!(
                v.indexes[..3],
                [0, 1, v.map_size],
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
    assert_snapshot_matches_engine(&server.reader().snapshot(), &reference, "axf recovered");

    server
        .handle()
        .send_batch(stream[applied..].to_vec())
        .unwrap();
    server.flush().unwrap();
    reference.process_all(&stream[applied..]).unwrap();
    assert_snapshot_matches_engine(&server.reader().snapshot(), &reference, "axf replayed");
    assert_indexes_full(&server, "after recovery");
    let views = server.metrics().views;
    let result = views.iter().find(|v| v.name == "axf").unwrap();
    assert!(
        result.banded_hits > 0 && result.banded_bails == 0 && result.fused_scans == 0,
        "range sums after recovery must come from the indexes: {result:?}"
    );

    // Checkpoint only: a clean shutdown reopens with nothing to replay.
    server.shutdown().unwrap();
    let server = builder().open_or_create_with(config()).unwrap();
    assert_eq!(server.stats().recovery_replayed_events, 0);
    assert_snapshot_matches_engine(&server.reader().snapshot(), &reference, "axf reopened");
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
    assert_snapshot_matches_engine(&server.reader().snapshot(), &reference, "axf touched");
    assert_indexes_full(&server, "after a clean reopen");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// Group commit under `FsyncPolicy::Always`: a wide window lets WAL appends
/// share fsyncs (the telemetry counter proves coalescing happened), a flush
/// barrier forces the deferred sync, and a kill + reopen still recovers the
/// flushed prefix bit-exactly.
#[test]
fn group_commit_coalesces_fsyncs_and_recovers() {
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-gc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let stream: Vec<UpdateEvent> = events().into_iter().take(4_000).collect();

    let mut d = DurabilityConfig::new(&dir);
    d.checkpoint_every_events = CHECKPOINT_EVERY;
    d.fsync = FsyncPolicy::Always;
    // Wide open: every append inside the run defers its fsync; only barriers
    // (flush), rotation, and shutdown actually sync.
    d.group_commit_window = Duration::from_secs(3600);
    let cfg = ServerConfig {
        durability: Some(d),
        ..ServerConfig::default()
    };

    let server = builder().open_or_create_with(cfg.clone()).unwrap();
    let ingest = server.handle();
    // Many sends in small chunks → many drained micro-batches → many WAL
    // appends, all coalescing into the open window.
    for chunk in stream.chunks(64) {
        ingest.send_batch(chunk.to_vec()).unwrap();
    }
    server.flush().unwrap();

    let coalesced = server
        .metrics()
        .counters
        .iter()
        .find(|(n, _)| n == "wal_group_commit_coalesced_total")
        .map(|(_, v)| *v)
        .expect("coalesce counter registered");
    assert!(
        coalesced > 0,
        "appends under Always with a window must coalesce fsyncs"
    );
    assert_eq!(server.stats().events as usize, stream.len());

    // The flush barrier forced the deferred sync, so even a hard kill loses
    // nothing that was acked: reopen and compare bit for bit.
    server.kill();
    let server = builder().open_or_create_with(cfg).unwrap();
    assert_eq!(server.stats().events as usize, stream.len());
    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    reference.process_all(&stream).unwrap();
    assert_snapshot_matches_engine(
        &server.reader().snapshot(),
        &reference,
        "after group-commit recovery",
    );
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_poison_event_does_not_desync_the_wal_from_the_watermark() {
    // A failing event (wrong arity) is WAL'd with its sequence slot but
    // applies nothing. The watermark must advance past it all the same, or
    // every later checkpoint would lag the log and recovery would double-apply
    // the suffix. Recovery of the degraded stream must also succeed.
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-poison-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut stream: Vec<UpdateEvent> = events()[..300].to_vec();
    stream.insert(150, UpdateEvent::insert("Orders", vec![Value::long(1)]));

    let server = builder().open_or_create_with(config(&dir)).unwrap();
    server.handle().send_batch(stream.clone()).unwrap();
    server.flush().unwrap();
    assert!(
        server.last_error().is_some(),
        "poison event must be surfaced"
    );
    assert_eq!(server.stats().events as usize, stream.len());
    server.kill();

    let server = builder().open_or_create_with(config(&dir)).unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.events as usize,
        stream.len(),
        "recovered watermark must cover the poison event's slot"
    );
    assert_eq!(stats.recovery_replayed_events as usize, stream.len());
    // The arity check fires before any statement runs, so the degraded state
    // equals the clean stream's state: compare against a reference that skips
    // the poison event.
    let mut reference = builder().build().unwrap();
    reference.init().unwrap();
    for ev in &stream {
        let _ = reference.process(ev);
    }
    assert_snapshot_matches_engine(&server.reader().snapshot(), &reference, "poison recovery");
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_poison_event_mid_batch_leaves_live_and_recovered_state_identical() {
    // The batch-first contract for poison events: a failing event *inside* a
    // multi-event batch (here: an arity-mismatched insert surrounded by good
    // same-relation events, all drained into one micro-batch = one WAL
    // record) keeps its WAL sequence slot, the rest of the batch applies, and
    // replay — which rebuilds the same DeltaBatch per record — reproduces the
    // live degraded state bit for bit.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dbt-poison-midbatch-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut stream: Vec<UpdateEvent> = events()[..400].to_vec();
    stream.insert(200, UpdateEvent::insert("Lineitem", vec![Value::long(3)]));

    let server = builder().open_or_create_with(config(&dir)).unwrap();
    server.handle().send_batch(stream.clone()).unwrap();
    server.flush().unwrap();
    assert!(
        server.last_error().is_some(),
        "mid-batch poison event must be surfaced"
    );
    assert_eq!(
        server.stats().events as usize,
        stream.len(),
        "the poison event must keep its WAL sequence slot"
    );
    // Capture the live (degraded) state and the live strategy mix, then crash
    // without a final checkpoint.
    let live: Vec<(String, Gmr)> = {
        let snap = server.reader().snapshot();
        snap.names()
            .map(|n| (n.to_string(), snap.view(n).unwrap().clone()))
            .collect()
    };
    assert!(live.len() >= 2, "expected several maintained maps");
    let live_stats = server.stats();
    assert!(
        live_stats.batch_delta_runs > 0,
        "this workload's relations should dispatch batch-delta"
    );
    server.kill();

    let server = builder().open_or_create_with(config(&dir)).unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.events as usize,
        stream.len(),
        "recovered watermark must cover the poison event's slot"
    );
    assert!(
        server.durability_warning().is_some(),
        "replaying past a poison event is a degraded recovery and must say so"
    );
    // Replay rebuilds one delta batch per WAL record, so it must make the
    // same per-run strategy choices the live writer made — counter for
    // counter, poison batch included.
    let stats = server.stats();
    assert_eq!(
        (stats.batch_delta_runs, stats.entry_major_runs),
        (live_stats.batch_delta_runs, live_stats.entry_major_runs),
        "replay must choose the same batch strategies as the live run"
    );
    let snap = server.reader().snapshot();
    for (name, g) in &live {
        let recovered = snap
            .view(name)
            .unwrap_or_else(|| panic!("recovered snapshot lacks view {name}"));
        assert_eq!(
            recovered.len(),
            g.len(),
            "view {name} sizes differ after mid-batch poison recovery"
        );
        for (t, m) in g.iter() {
            assert_eq!(
                recovered.get(t).to_bits(),
                m.to_bits(),
                "view {name}[{t:?}] differs between live and recovered state"
            );
        }
    }
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_chooses_the_same_batch_strategies_as_the_live_run() {
    // Strategy equivalence under recovery, at run granularity: replay rebuilds
    // one delta batch per WAL record and drives it through the same
    // `process_batch` dispatch as the live writer, so the full sequence of
    // (relation, strategy, events) run records — across uneven micro-batches
    // and a mid-batch poison event — must be identical. The aggregate-counter
    // check in the poison test above could mask compensating swaps; this one
    // cannot.
    use dbtoaster::agca::DeltaBatch;
    use dbtoaster::compiler::BatchStrategy;
    use dbtoaster::runtime::{Engine, RunRecord};
    use dbtoaster_durability::{program_fingerprint, WalReader, WalWriter};

    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-runrec-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // The revenue query's deltas are linear: its relations have no run-linear
    // part. The Lineitem self-join adds a query whose delta re-reads a map
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
    let ccat = dbtoaster::to_compiler_catalog(&catalog());
    let fp = program_fingerprint(&program);

    let mut stream: Vec<UpdateEvent> = events()[..2_000].to_vec();
    // Arity-mismatched insert: poisons the middle of whatever micro-batch it
    // lands in without stopping the stream.
    stream.insert(700, UpdateEvent::insert("Lineitem", vec![Value::long(3)]));

    // Live run: uneven micro-batches, one WAL record each (the live writer's
    // contract: record boundaries == batch boundaries), run recording on.
    let mut live = Engine::new(program.clone(), &ccat);
    live.set_run_recording(true);
    let mut wal = WalWriter::open(&dir, fp, 1, FsyncPolicy::Never, u64::MAX).unwrap();
    let mut live_runs: Vec<RunRecord> = Vec::new();
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
        let report = live.process_batch(&delta);
        live_failed += report.failed_events;
        live_runs.extend(report.runs);
    }
    wal.sync().unwrap();
    drop(wal);
    assert_eq!(live_failed, 1, "exactly the poison event must fail");

    // Replay: same records, same batches, same dispatch.
    let reader = WalReader::open(&dir, fp).unwrap();
    let mut replayed = Engine::new(program, &ccat);
    replayed.set_run_recording(true);
    let mut replay_runs: Vec<RunRecord> = Vec::new();
    let mut delta = DeltaBatch::new();
    reader
        .replay_records(1, &mut |_first_seq, events| {
            delta.clear();
            for ev in events {
                delta.push_owned(ev);
            }
            let report = replayed.process_batch(&delta);
            replay_runs.extend(report.runs);
            Ok(())
        })
        .unwrap();

    assert!(!live_runs.is_empty(), "run recording produced nothing");
    assert!(
        live_runs
            .iter()
            .any(|r| r.strategy == BatchStrategy::BatchDelta),
        "the revenue query's relations should dispatch batch-delta: {live_runs:?}"
    );
    // The strategy of a run is a function of the program alone: whatever the
    // run's size and however small the maps it reads, a relation never
    // changes strategy mid-stream (the old firing-count cost gate is gone).
    for r in &live_runs {
        assert_eq!(
            r.strategy,
            BatchStrategy::BatchDelta,
            "run of {} events on {} left the static batch-delta dispatch: {live_runs:?}",
            r.events,
            r.relation
        );
    }
    assert!(
        live_runs
            .iter()
            .any(|r| r.relation == "Lineitem" && r.events > 3),
        "expected multi-firing Lineitem runs (the live pass): {live_runs:?}"
    );
    assert_eq!(
        live_runs, replay_runs,
        "live and replayed run sequences must be identical"
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
fn durable_serve_refuses_an_unrecovered_directory() {
    // `serve_with` + durability on a directory that already holds a checkpoint
    // ahead of the (fresh) engine must be refused: adopting it would fork
    // history. `open_or_create` is the path that recovers first.
    let dir: PathBuf = std::env::temp_dir().join(format!("dbt-stale-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    server
        .handle()
        .send_batch(events()[..500].to_vec())
        .unwrap();
    server.flush().unwrap();
    drop(server); // clean shutdown: final checkpoint at watermark 500

    match builder().build().unwrap().serve_with(config(&dir)) {
        Err(e) => assert!(
            e.to_string().contains("open_or_create"),
            "unexpected error: {e}"
        ),
        Ok(_) => panic!("serving a stale durable dir with a fresh engine must fail"),
    }
    // The sanctioned path still works and comes back warm.
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    assert_eq!(server.stats().events, 500);
    drop(server);

    // Same refusal when only the WAL is ahead (all checkpoints wiped) — and
    // crucially, the refused open must not have mutated the directory by
    // writing an initial checkpoint a later recovery would adopt.
    for (_, path) in dbtoaster_durability::list_checkpoints(&dir).unwrap() {
        fs::remove_file(path).unwrap();
    }
    match builder().build().unwrap().serve_with(config(&dir)) {
        Err(e) => assert!(
            e.to_string().contains("open_or_create"),
            "unexpected error: {e}"
        ),
        Ok(_) => panic!("serving a WAL-ahead durable dir with a fresh engine must fail"),
    }
    assert!(
        dbtoaster_durability::list_checkpoints(&dir)
            .unwrap()
            .is_empty(),
        "a refused open must not leave a checkpoint behind"
    );
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
    assert_snapshot_matches_engine(&server.reader().snapshot(), &reference, "live after re-arm");

    // ...and everything applied is durable again: kill -9, recover through
    // the real filesystem, and require live == recovered, bit for bit.
    server.kill();
    let server = builder().open_or_create_with(config(&dir)).unwrap();
    assert_eq!(
        server.stats().events as usize,
        applied,
        "the re-armed log plus its checkpoint must cover every applied event"
    );
    assert_snapshot_matches_engine(
        &server.reader().snapshot(),
        &reference,
        "recovered after re-arm",
    );
    drop(server);
    let _ = fs::remove_dir_all(&dir);
}
