//! Live dashboard: a durable served view that survives being killed.
//!
//! The serving-layer counterpart of `quickstart.rs`, now with durability: the
//! revenue view is served through `open_or_create`, which anchors the engine
//! in an on-disk directory (write-ahead log + checkpoints). Act 1 ingests half
//! the stream and then *kills* the server mid-flight — no flush, no final
//! checkpoint, the moral equivalent of `kill -9`. Act 2 reopens the same
//! directory: the engine comes back warm (checkpoint + WAL replay, bit-exact),
//! ingests the second half, and dashboard readers plus a change-stream
//! subscriber carry on as if nothing happened.
//!
//! Run with: `cargo run --example live_dashboard`

use dbtoaster::prelude::*;
use dbtoaster::QueryEngineBuilder;
use std::thread;

fn catalog() -> Catalog {
    [
        RelationMeta::stream("Orders", ["ordk", "custk", "xch"]),
        RelationMeta::stream("Lineitem", ["ordk", "ptk", "price"]),
    ]
    .into_iter()
    .collect()
}

fn builder() -> QueryEngineBuilder {
    QueryEngineBuilder::new(catalog())
        .add_query(
            "revenue",
            "SELECT o.custk, SUM(li.price * o.xch) AS total \
             FROM Orders o, Lineitem li WHERE o.ordk = li.ordk GROUP BY o.custk",
        )
        .mode(CompileMode::HigherOrder)
}

fn order_stream(range: std::ops::Range<i64>) -> Vec<UpdateEvent> {
    let mut events = Vec::new();
    for i in range {
        events.push(UpdateEvent::insert(
            "Orders",
            vec![Value::long(i), Value::long(i % 7), Value::double(2.0)],
        ));
        events.push(UpdateEvent::insert(
            "Lineitem",
            vec![Value::long(i), Value::long(i % 31), Value::double(10.0)],
        ));
    }
    events
}

fn main() -> Result<(), DbToasterError> {
    let dir = std::env::temp_dir().join(format!("dbt-live-dashboard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Act 1: durable serving, killed mid-stream ------------------------
    let mut durability = DurabilityConfig::new(&dir);
    durability.checkpoint_every_events = 500; // checkpoint a few times per act
    let config = ServerConfig {
        durability: Some(durability),
        ..ServerConfig::default()
    };

    let server = builder().open_or_create_with(config.clone())?;
    let ingest = server.handle();
    let accepted = ingest
        .send_batch(order_stream(0..1000))
        .unwrap_or_else(|e| e.accepted);
    server.flush()?;
    let stats = server.stats();
    println!(
        "[act 1] accepted {accepted} events, applied {} as {} delta batches \
         (avg {:.1} events/batch, {} cancelled in-batch), {} checkpoints, {} WAL bytes",
        stats.events,
        stats.delta_batches,
        stats.events_per_batch(),
        stats.batch_events_collapsed,
        stats.checkpoints_taken,
        stats.wal_bytes_written
    );
    println!("[act 1] {} relation runs", stats.batch_delta_runs);
    println!("[act 1] killing the server: no flush, no final checkpoint");
    server.kill();

    // ---- Act 2: reopen the same directory, warm ---------------------------
    let server = builder().open_or_create_with(config)?;
    let stats = server.stats();
    println!(
        "[act 2] reopened warm: {} events restored ({} replayed from the WAL \
         above the last checkpoint)",
        stats.events, stats.recovery_replayed_events
    );

    // A subscriber sees each micro-batch's output deltas from here on:
    // (customer key, old total, new total).
    let subscription = server.subscribe("revenue")?;

    // Dashboard readers: lock-free snapshot reads, never blocking the writer.
    let dashboards: Vec<_> = (0..2)
        .map(|id| {
            let reader = server.reader();
            thread::spawn(move || {
                let mut last_epoch = 0;
                for _ in 0..200 {
                    let snap = reader.snapshot();
                    if snap.epoch() != last_epoch {
                        last_epoch = snap.epoch();
                        let table = reader.query("revenue").expect("served query");
                        println!(
                            "[dashboard {id}] epoch {} after {} events: {} customers",
                            snap.epoch(),
                            snap.events_applied(),
                            table.len()
                        );
                    }
                    thread::yield_now();
                }
            })
        })
        .collect();

    // Second half of the stream rides on top of the recovered state.
    let ingest = server.handle();
    ingest
        .send_batch(order_stream(1000..2000))
        .expect("server alive");
    let epoch = server.flush()?;
    println!("[act 2] second half published as of epoch {epoch}");

    for d in dashboards {
        d.join().expect("dashboard thread");
    }

    // Drain the delta batches: replaying them is how a remote cache or
    // websocket tier would keep its copy of the result in sync.
    let mut delta_records = 0;
    while let Some(batch) = subscription.try_recv() {
        delta_records += batch.deltas.len();
    }
    println!("[act 2] subscriber: {delta_records} output-delta records received");

    let stats = server.stats();
    println!(
        "[act 2] {} events total, {} snapshots published, {} checkpoints, {} WAL bytes",
        stats.events, stats.snapshots_published, stats.checkpoints_taken, stats.wal_bytes_written
    );
    println!(
        "[act 2] {} relation runs (incl. recovery replay)",
        stats.batch_delta_runs
    );

    // Telemetry: the server carries latency histograms and per-stage timings
    // the whole time — percentiles for the batch path, plus where each
    // microsecond went (queue wait, WAL, kernels, publish, checkpoints).
    let m = server.metrics();
    let b = &m.batch_latency;
    println!(
        "[telemetry] {} batches: batch latency p50={}ns p90={}ns p99={}ns max={}ns",
        m.batches, b.p50_nanos, b.p90_nanos, b.p99_nanos, b.max_nanos
    );
    for (stage, h) in &m.stages {
        if h.count > 0 {
            println!(
                "[telemetry] stage {:<22} {:>8} samples  p50={}ns p99={}ns",
                stage.name(),
                h.count,
                h.p50_nanos,
                h.p99_nanos
            );
        }
    }
    for v in &m.views {
        if v.get("rows_written") > 0 {
            println!(
                "[telemetry] view {:<28} {:>6} rows written, map size {}",
                v.name,
                v.get("rows_written"),
                v.get("map_size")
            );
        }
    }

    // The served result must be bit-identical to a never-crashed run of the
    // full stream, crash and all.
    let mut served = server.reader().query("revenue")?.rows;
    let mut reference = builder().build()?;
    reference.process_all(&order_stream(0..2000))?;
    let mut expected = reference.result("revenue")?.rows;
    served.sort_by(|a, b| a.key.cmp(&b.key));
    expected.sort_by(|a, b| a.key.cmp(&b.key));
    assert_eq!(served.len(), expected.len());
    for (s, e) in served.iter().zip(expected.iter()) {
        assert_eq!(s.key, e.key);
        assert_eq!(s.values, e.values);
    }
    println!(
        "final check: {} customers, bit-identical to a never-crashed run",
        served.len()
    );

    // Clean shutdown writes a final checkpoint: the *next* open replays zero
    // WAL events.
    let engine = server.shutdown().map_err(DbToasterError::from)?;
    assert_eq!(engine.stats().events, 4000);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
