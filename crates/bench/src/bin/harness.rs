//! The experiment harness: regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p dbtoaster-bench --bin harness -- all
//! cargo run --release -p dbtoaster-bench --bin harness -- fig6 --events 50000 --budget 10
//! cargo run --release -p dbtoaster-bench --bin harness -- fig8
//! ```
//!
//! Subcommands: `micro`, `serve`, `recover`, `batch`, `shard`, `fig2`,
//! `fig6` (also covers Figure 7), `fig8`, `fig9`, `fig10`, `fig11`,
//! `traces` (Figures 13–18), `explain`, `export`, `all`.
//!
//! Flags: `--events N`, `--budget SECS`, `--seed N`, `--label NAME`,
//! `--json PATH`, `--shards 1,2,4,8` (the `shard` sweep's shard counts).
//!
//! Observability:
//!
//! * `harness explain [--query NAME]` (or the `--explain` flag on any
//!   invocation) runs each workload stream and prints EXPLAIN ANALYZE for the
//!   compiled trigger program — operator trees, batch-dispatch decisions with
//!   reasons, and live counters; `--json PATH` writes the JSON forms.
//! * `harness export [--addr HOST:PORT] [--hold SECS]` opens a durable
//!   serving instance with the HTTP exporter enabled, ingests a finance
//!   stream while a 1 Hz scraper polls `/metrics`, reports throughput, then
//!   optionally holds the endpoints up for external scrapers (CI curls them).

use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Family};
use dbtoaster_bench::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    command: String,
    events: usize,
    budget: Duration,
    seed: u64,
    json: Option<String>,
    label: String,
    query: Option<String>,
    addr: String,
    hold: Duration,
    iters: usize,
    shards: Vec<usize>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        command: argv.first().cloned().unwrap_or_else(|| "all".to_string()),
        events: 20_000,
        budget: Duration::from_secs(5),
        seed: 42,
        json: None,
        label: "run".to_string(),
        query: None,
        addr: "127.0.0.1:0".to_string(),
        hold: Duration::from_secs(0),
        iters: 200,
        shards: vec![1, 2, 4, 8],
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--events" => {
                args.events = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.events);
                i += 2;
            }
            "--budget" => {
                let secs: u64 = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(5);
                args.budget = Duration::from_secs(secs);
                i += 2;
            }
            "--seed" => {
                args.seed = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.seed);
                i += 2;
            }
            "--json" => {
                args.json = argv.get(i + 1).cloned();
                i += 2;
            }
            "--label" => {
                args.label = argv.get(i + 1).cloned().unwrap_or(args.label);
                i += 2;
            }
            "--query" => {
                args.query = argv.get(i + 1).cloned();
                i += 2;
            }
            "--addr" => {
                args.addr = argv.get(i + 1).cloned().unwrap_or(args.addr);
                i += 2;
            }
            "--hold" => {
                let secs: u64 = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(0);
                args.hold = Duration::from_secs(secs);
                i += 2;
            }
            "--iters" => {
                args.iters = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.iters);
                i += 2;
            }
            "--shards" => {
                if let Some(list) = argv.get(i + 1) {
                    let parsed: Vec<usize> = list
                        .split(',')
                        .filter_map(|v| v.trim().parse().ok())
                        .collect();
                    if !parsed.is_empty() {
                        args.shards = parsed;
                    }
                }
                i += 2;
            }
            "--explain" => {
                args.command = "explain".to_string();
                i += 1;
            }
            other => {
                eprintln!("ignoring unknown argument {other}");
                i += 1;
            }
        }
    }
    args
}

fn micro(config: &ExperimentConfig, label: &str, json: Option<&str>) {
    println!("=== micro: substrate operations and fig6 Higher-Order refresh rates ===");
    let results = micro_benchmarks(config);
    println!("{}", format_micro(&results));
    if let Some(path) = json {
        let payload = micro_json(label, config, &results);
        if bench_telemetry_off() {
            std::fs::write(path, &payload)
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote {path} (telemetry off: no latency blocks)");
        } else {
            // The fig6 runs carry telemetry percentiles; refuse to write a
            // JSON that lost them (CI greps for this line in the smoke run).
            let blocks = validate_latency_json(&payload)
                .unwrap_or_else(|e| panic!("micro JSON missing/invalid latency blocks: {e}"));
            std::fs::write(path, &payload)
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote {path} ({blocks} latency blocks validated)");
        }
    }
}

fn serve(config: &ExperimentConfig, label: &str, json: Option<&str>) {
    println!("=== serve: concurrent view serving (writer throughput, reads, fan-out) ===");
    let results = serve_benchmarks(config);
    println!("{}", format_micro(&results));
    if let Some(path) = json {
        let payload = micro_json(label, config, &results);
        std::fs::write(path, &payload).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
    }
}

fn recover(config: &ExperimentConfig, label: &str, json: Option<&str>) {
    println!("=== recover: durable serving (WAL throughput, checkpoint + replay rates) ===");
    let results = recover_benchmarks(config);
    println!("{}", format_micro(&results));
    if let Some(path) = json {
        let payload = micro_json(label, config, &results);
        std::fs::write(path, &payload).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
    }
}

fn batch(config: &ExperimentConfig, label: &str, json: Option<&str>) {
    println!("=== batch: delta-batch size sweep (events/sec at batch sizes 1/8/64/512) ===");
    let results = batch_benchmarks(config);
    println!("{}", format_micro(&results));
    if let Some(path) = json {
        let payload = micro_json(label, config, &results);
        if bench_telemetry_off() {
            std::fs::write(path, &payload)
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote {path} (telemetry off: no latency blocks)");
        } else {
            let blocks = validate_latency_json(&payload)
                .unwrap_or_else(|e| panic!("batch JSON missing/invalid latency blocks: {e}"));
            std::fs::write(path, &payload)
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote {path} ({blocks} latency blocks validated)");
        }
    }
}

fn shard(config: &ExperimentConfig, counts: &[usize], label: &str, json: Option<&str>) {
    println!("=== shard: shard-parallel engine sweep (scatter + local triggers + merge) ===");
    println!(
        "(queries {:?}, shard counts {counts:?}, {} events, {}s budget per run)\n",
        SHARD_QUERIES,
        config.events,
        config.time_budget.as_secs()
    );
    let sweep = shard_sweep(config, counts);
    println!("{}", format_micro(&sweep.results));
    println!("query      shards  plan       exchange-bytes  bit-exact");
    for r in &sweep.rows {
        println!(
            "{:<10} {:>6}  {:<9} {:>15}  {}",
            r.query,
            r.shards,
            if r.fully_local { "local" } else { "exchange" },
            r.exchange_bytes,
            r.bit_exact
        );
    }
    // `shard_sweep` panics on any divergence, so reaching this line IS the
    // invariance proof; CI greps for it.
    println!("{}", shard_invariance_line(&sweep));
    if let Some(path) = json {
        let payload = shard_json(label, config, &sweep);
        std::fs::write(path, &payload).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
    }
}

fn fig2() {
    println!("=== Figure 2: workload features and rewrite rules applied ===");
    println!("{}", format_figure2(&figure2_rows()));
}

fn fig6(config: &ExperimentConfig) {
    println!("=== Figures 6 & 7: average view refresh rates (1/s) ===");
    println!(
        "(stream length {} events per query, {}s budget per run)\n",
        config.events,
        config.time_budget.as_secs()
    );
    let queries = workloads::all_queries();
    let rows = figure6_rows(config, &queries);
    println!("{}", format_figure6(&rows));
}

fn traces_for(queries: &[&str], label: &str, config: &ExperimentConfig) {
    println!("=== {label}: per-query traces (time, refresh rate, memory vs stream fraction) ===");
    for name in queries {
        let q = match workloads::query(name) {
            Some(q) => q,
            None => continue,
        };
        let data = dataset_for(q.family, config.events, config.seed);
        for mode in [CompileMode::HigherOrder, CompileMode::FirstOrder] {
            let pts = trace_series(&q, mode, &data, 10, config.time_budget);
            println!("{}", format_trace(name, mode, &pts));
        }
    }
}

fn fig11(config: &ExperimentConfig) {
    println!("=== Figure 11: refresh-rate scaling with stream length (DBToaster) ===");
    let rows = figure11_rows(
        config.events / 4,
        &[1, 2, 5, 10],
        config.seed,
        &["q1", "q3", "q6", "q11a", "q12", "q17a", "q18a"],
        config.time_budget,
    );
    println!("{}", format_figure11(&rows));
}

fn explain_cmd(config: &ExperimentConfig, only: Option<&str>, json: Option<&str>) {
    println!("=== explain: EXPLAIN ANALYZE for compiled trigger programs ===");
    println!(
        "(each query replayed over up to {} events / {}s before rendering)\n",
        config.events,
        config.time_budget.as_secs()
    );
    let mut docs = Vec::new();
    for q in workloads::all_queries() {
        if only.is_some_and(|want| want != q.name) {
            continue;
        }
        let data = dataset_for(q.family, config.events, config.seed);
        let mut engine = build_engine(&q, CompileMode::HigherOrder, &data);
        engine.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
        let start = Instant::now();
        let mut processed = 0usize;
        for event in &data.events {
            engine
                .process(event)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
            processed += 1;
            if processed.is_multiple_of(64) && start.elapsed() > config.time_budget {
                break;
            }
        }
        println!("{}", engine.explain_text());
        docs.push(engine.explain_json());
    }
    if docs.is_empty() {
        eprintln!(
            "no workload query named {}",
            only.unwrap_or("<none requested>")
        );
        std::process::exit(2);
    }
    if let Some(path) = json {
        let payload = format!("[{}]", docs.join(","));
        std::fs::write(path, &payload).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path} ({} explain documents)", docs.len());
    }
}

/// Minimal HTTP GET against the exporter (std-only, mirroring what a scraper
/// does): returns the raw response (status line + headers + body).
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: dbtoaster\r\nConnection: close\r\n\r\n"
    )?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

fn export(config: &ExperimentConfig, addr: &str, hold: Duration) {
    println!("=== export: durable serving behind the HTTP observability endpoints ===");
    let q = workloads::query("axf").expect("axf workload present");
    let data = dataset_for(q.family, config.events, config.seed);
    let catalog = workloads::full_catalog();
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(q.name, q.sql)
        .mode(CompileMode::HigherOrder)
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", q.name));
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone()).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("dbtoaster-export-{}", std::process::id()));
    let server_config = ServerConfig {
        durability: Some(DurabilityConfig::new(dir.clone())),
        http: Some(HttpConfig {
            addr: addr.to_string(),
            ..HttpConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = engine
        .open_or_create_with(server_config)
        .unwrap_or_else(|e| panic!("export serve failed: {e}"));
    let http = server.http_addr().expect("exporter running");
    println!("exporter listening on http://{http}/ (endpoints: /metrics /healthz /views /explain /traces)");

    // A scraper polling /metrics at 1 Hz for the whole ingest run: the
    // throughput printed below carries whatever cost scraping imposes, so
    // comparing it against a scraper-free `serve` run (same events, same seed)
    // A/Bs the exporter's hot-path overhead on one machine.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let stop = stop.clone();
        let scrapes = scrapes.clone();
        std::thread::spawn(move || {
            while !stop.load(Relaxed) {
                if http_get(http, "/metrics").is_ok() {
                    scrapes.fetch_add(1, Relaxed);
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        })
    };

    let ingest = server.handle();
    let start = Instant::now();
    let mut sent = 0usize;
    for event in &data.events {
        ingest
            .send(event.clone())
            .unwrap_or_else(|e| panic!("ingest failed: {e}"));
        sent += 1;
        if sent.is_multiple_of(64) && start.elapsed() > config.time_budget {
            break;
        }
    }
    server
        .flush()
        .unwrap_or_else(|e| panic!("flush failed: {e}"));
    let secs = start.elapsed().as_secs_f64();
    println!(
        "ingested {sent} events in {secs:.2}s ({:.0} events/s) with {} scrape(s) of /metrics",
        sent as f64 / secs.max(1e-9),
        scrapes.load(Relaxed)
    );
    for path in ["/metrics", "/healthz", "/views", "/explain", "/traces"] {
        match http_get(http, path) {
            Ok(resp) => {
                let status = resp.lines().next().unwrap_or("").to_string();
                let body_len = resp.split("\r\n\r\n").nth(1).map_or(0, |b| b.len());
                println!("GET {path}: {status} ({body_len} body bytes)");
            }
            Err(e) => println!("GET {path}: error {e}"),
        }
    }
    if !hold.is_zero() {
        println!("holding endpoints up for {}s (scrape away)", hold.as_secs());
        std::thread::sleep(hold);
    }
    stop.store(true, Relaxed);
    let _ = scraper.join();
    drop(ingest);
    server
        .shutdown()
        .unwrap_or_else(|e| panic!("shutdown failed: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// torture: crash-consistency harness (seeded fault schedules × power cuts)
// ---------------------------------------------------------------------------

/// The same splitmix64 the fault injector uses: every knob of an iteration is
/// derived from `--seed` + the iteration index, so any failure reproduces
/// from the printed pair alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn torture_catalog() -> SqlCatalog {
    [
        TableDef::stream("Orders", ["ordk", "ck", "xch"]),
        TableDef::stream("Lineitem", ["ordk", "price"]),
    ]
    .into_iter()
    .collect()
}

/// A deterministic mixed insert/delete stream over both relations.
fn torture_events(seed: u64, n: usize) -> Vec<UpdateEvent> {
    let mut rng = seed ^ 0xA5A5_5A5A_DEAD_BEEF;
    let mut out = Vec::with_capacity(n);
    let mut live_items: Vec<(i64, i64)> = Vec::new();
    let mut next_order = 0i64;
    for _ in 0..n {
        match splitmix64(&mut rng) % 10 {
            0..=2 => {
                out.push(UpdateEvent::insert(
                    "Orders",
                    vec![
                        Value::long(next_order),
                        Value::long(next_order % 23),
                        Value::double((next_order % 5) as f64 + 0.5),
                    ],
                ));
                next_order += 1;
            }
            3..=8 => {
                let ordk = (splitmix64(&mut rng) % next_order.max(1) as u64) as i64;
                let price = 1 + (splitmix64(&mut rng) % 999) as i64;
                live_items.push((ordk, price));
                out.push(UpdateEvent::insert(
                    "Lineitem",
                    vec![Value::long(ordk), Value::double(price as f64)],
                ));
            }
            _ if !live_items.is_empty() => {
                let pick = (splitmix64(&mut rng) % live_items.len() as u64) as usize;
                let (ordk, price) = live_items.swap_remove(pick);
                out.push(UpdateEvent::delete(
                    "Lineitem",
                    vec![Value::long(ordk), Value::double(price as f64)],
                ));
            }
            _ => out.push(UpdateEvent::insert(
                "Lineitem",
                vec![Value::long(0), Value::double(1.0)],
            )),
        }
    }
    out
}

#[derive(Default)]
struct TortureTotals {
    faults: u64,
    cuts: u64,
    recoveries_verified: u64,
    loud_errors: u64,
    recovery_nanos: u128,
    recoveries_timed: u64,
}

enum AppendOutcome {
    /// Append + batch-boundary sync both landed: the chunk is durable.
    Durable,
    /// A fault survived the bounded retries (or made retrying unsafe).
    Degraded,
    /// The simulated power went out mid-operation.
    Cut,
}

/// The torture twin of the server's armed-append path: bounded in-place
/// retries with boundary truncation first, and a failed sync NEVER retried
/// in place (fsyncgate).
fn torture_append(
    wal: &mut dbtoaster::durability::WalWriter,
    chunk: &[UpdateEvent],
    fault: &dbtoaster::durability::FaultVfs,
) -> AppendOutcome {
    let mut attempts = 0u32;
    loop {
        match wal.append(chunk) {
            Ok(_) => break,
            Err(_) if fault.power_cut() => return AppendOutcome::Cut,
            Err(_) if attempts < 3 => {
                attempts += 1;
                if wal.truncate_to_boundary().is_err() {
                    return if fault.power_cut() {
                        AppendOutcome::Cut
                    } else {
                        AppendOutcome::Degraded
                    };
                }
            }
            Err(_) => return AppendOutcome::Degraded,
        }
    }
    match wal.batch_boundary() {
        Ok(()) => AppendOutcome::Durable,
        Err(_) if fault.power_cut() => AppendOutcome::Cut,
        Err(_) => AppendOutcome::Degraded,
    }
}

/// One seeded iteration: drive a mini durable pipeline (chunked appends,
/// periodic checkpoints, degraded-mode re-arms) through a `FaultVfs`, then
/// recover — from the materialized power-cut image or from the survived
/// directory — and require the result to be a sync-consistent prefix of the
/// reference stream, **bit for bit**. Panics (with the reproducing seed) on
/// any silent divergence; recovery returning an error is counted loud.
#[allow(clippy::too_many_arguments)]
fn torture_iteration(
    i: u64,
    base_seed: u64,
    base: &std::path::Path,
    program: &dbtoaster::compiler::TriggerProgram,
    ccat: &dbtoaster::compiler::Catalog,
    fp: u64,
    totals: &mut TortureTotals,
) {
    use dbtoaster::agca::DeltaBatch;
    use dbtoaster::durability::{checkpoint, FaultConfig, FaultVfs, Vfs, WalWriter};
    use dbtoaster::runtime::Engine;

    let mut knob = base_seed ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let total_events = 200 + (splitmix64(&mut knob) % 400) as usize;
    let stream_seed = splitmix64(&mut knob);
    let chunk_seed = splitmix64(&mut knob);
    // ~70% of iterations end in a power cut somewhere inside the run; the
    // rest exercise fault schedules with a surviving directory.
    let cut_planned = splitmix64(&mut knob) % 10 < 7;
    let cut_at_op = 20 + splitmix64(&mut knob) % 380;
    let fault = Arc::new(FaultVfs::new(FaultConfig {
        seed: splitmix64(&mut knob),
        fail_prob_ppm: 15_000,
        enospc_prob_ppm: 6_000,
        short_write_prob_ppm: 10_000,
        cut_at_op: cut_planned.then_some(cut_at_op),
    }));
    let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
    let repro = format!("iteration {i} (--seed {base_seed})");

    let live_dir = base.join(format!("it{i}"));
    let cut_dir = base.join(format!("it{i}-cut"));
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
    std::fs::create_dir_all(&live_dir).unwrap();

    let stream = torture_events(stream_seed, total_events);

    // --- Live phase: chunked write-ahead pipeline under fault injection ----
    enum Health {
        Armed,
        Degraded,
        Dead,
    }
    let mut live = Engine::new(program.clone(), ccat);
    let mut applied = 0u64;
    // The durable floor: a watermark recovery must reach (None = nothing was
    // ever guaranteed synced; recovery may legitimately find no state).
    let mut floor: Option<u64> = None;
    let mut delta = DeltaBatch::new();

    let snap0 = live.snapshot();
    let setup = checkpoint::write_checkpoint_with(
        vfs.as_ref(),
        &live_dir,
        fp,
        0,
        snap0.iter().map(|(n, g)| (n.as_str(), g)),
    )
    .and_then(|_| {
        WalWriter::open_with(&live_dir, fp, 1, FsyncPolicy::EveryBatch, 512, vfs.clone())
    });
    let (mut wal, mut health) = match setup {
        Ok(w) => {
            floor = Some(0);
            (Some(w), Health::Armed)
        }
        // A fault before anything was guaranteed durable: run the stream
        // undurably and let verification accept an empty recovery.
        Err(_) => (None, Health::Dead),
    };

    let mut cut_fired = fault.power_cut();
    let mut chunk_rng = chunk_seed ^ 0xD1B5_4A32_D192_ED03;
    let mut since_ckpt = 0u64;
    let mut rearms = 0u32;
    let mut idx = 0usize;
    while idx < stream.len() && !cut_fired {
        let n = (1 + splitmix64(&mut chunk_rng) % 16) as usize;
        let chunk = &stream[idx..(idx + n).min(stream.len())];
        idx += chunk.len();

        let mut chunk_durable = false;
        match health {
            Health::Armed => {
                let w = wal.as_mut().expect("armed implies an open wal");
                match torture_append(w, chunk, &fault) {
                    AppendOutcome::Durable => chunk_durable = true,
                    AppendOutcome::Degraded => health = Health::Degraded,
                    AppendOutcome::Cut => {
                        cut_fired = true;
                        break;
                    }
                }
            }
            Health::Degraded => {
                // Re-arm: checkpoint current state FIRST (it covers every
                // event applied undurably while degraded), then resume the
                // log on a fresh segment right above it.
                rearms += 1;
                let snap = live.snapshot();
                let res = checkpoint::write_checkpoint_with(
                    vfs.as_ref(),
                    &live_dir,
                    fp,
                    applied,
                    snap.iter().map(|(n, g)| (n.as_str(), g)),
                )
                .and_then(|_| wal.as_mut().expect("wal present").rearm(applied + 1));
                if fault.power_cut() {
                    cut_fired = true;
                    break;
                }
                match res {
                    Ok(()) => {
                        floor = Some(floor.unwrap_or(0).max(applied));
                        health = Health::Armed;
                        since_ckpt = 0;
                        match torture_append(wal.as_mut().unwrap(), chunk, &fault) {
                            AppendOutcome::Durable => chunk_durable = true,
                            AppendOutcome::Degraded => health = Health::Degraded,
                            AppendOutcome::Cut => {
                                cut_fired = true;
                                break;
                            }
                        }
                    }
                    Err(_) if rearms >= 50 => health = Health::Dead,
                    Err(_) => {}
                }
            }
            Health::Dead => {}
        }

        // Apply the chunk regardless (server semantics: degraded mode serves
        // from memory; a later re-arm's checkpoint recaptures it).
        delta.clear();
        for ev in chunk {
            delta.push(ev);
        }
        live.process_batch(&delta);
        applied += chunk.len() as u64;
        if chunk_durable {
            floor = Some(floor.unwrap_or(0).max(applied));
        }

        since_ckpt += chunk.len() as u64;
        if matches!(health, Health::Armed) && since_ckpt >= 100 {
            since_ckpt = 0;
            let snap = live.snapshot();
            let res = checkpoint::write_checkpoint_with(
                vfs.as_ref(),
                &live_dir,
                fp,
                applied,
                snap.iter().map(|(n, g)| (n.as_str(), g)),
            );
            if fault.power_cut() {
                cut_fired = true;
                break;
            }
            if res.is_ok() {
                floor = Some(floor.unwrap_or(0).max(applied));
            }
        }
    }

    // A clean end of stream still syncs what it can (mirroring shutdown).
    if !cut_fired {
        if let (Health::Armed, Some(w)) = (&health, wal.as_mut()) {
            if w.sync().is_ok() {
                floor = Some(floor.unwrap_or(0).max(applied));
            }
            cut_fired = fault.power_cut();
        }
    }

    // --- Recovery phase ----------------------------------------------------
    let recover_dir = if cut_fired {
        totals.cuts += 1;
        fault
            .materialize_cut(&cut_dir)
            .unwrap_or_else(|e| panic!("{repro}: materialize_cut failed: {e}"));
        cut_dir.clone()
    } else {
        live_dir.clone()
    };
    totals.faults += fault.faults_injected();
    drop(wal); // release the directory lock before recovering

    let t0 = Instant::now();
    match dbtoaster::durability::recover(&recover_dir, program.clone(), ccat) {
        Err(_) => {
            // Loud by construction: recovery refused the directory instead of
            // serving made-up state. Acceptable; never silent.
            totals.loud_errors += 1;
        }
        Ok(None) => {
            if floor.is_some() {
                panic!("{repro}: durable state vanished silently (floor {floor:?}, found none)");
            }
            totals.recoveries_verified += 1;
        }
        Ok(Some(rec)) => {
            totals.recovery_nanos += t0.elapsed().as_nanos();
            totals.recoveries_timed += 1;
            let w = rec.engine.stats().events;
            if let Some(f) = floor {
                assert!(
                    w >= f,
                    "{repro}: recovered watermark {w} below the durable floor {f}"
                );
            }
            assert!(
                w as usize <= stream.len(),
                "{repro}: recovered watermark {w} beyond the {} events ever generated",
                stream.len()
            );
            assert_eq!(
                rec.failed_events, 0,
                "{repro}: replay reported poison events in a clean stream"
            );
            // Bit-exact prefix check: replay the reference with the SAME
            // chunk boundaries (recovery rebuilds one delta batch per WAL
            // record, and records == live chunks).
            let mut reference = Engine::new(program.clone(), ccat);
            let mut rng = chunk_seed ^ 0xD1B5_4A32_D192_ED03;
            let mut at = 0usize;
            while at < w as usize {
                let n = (1 + splitmix64(&mut rng) % 16) as usize;
                let end = (at + n).min(stream.len()).min(w as usize);
                assert!(
                    end > at,
                    "{repro}: watermark {w} does not land on a chunk boundary"
                );
                delta.clear();
                for ev in &stream[at..end] {
                    delta.push(ev);
                }
                reference.process_batch(&delta);
                at = end;
            }
            let got = rec.engine.snapshot();
            let want = reference.snapshot();
            assert_eq!(
                got.len(),
                want.len(),
                "{repro}: recovered map count diverges at watermark {w}"
            );
            for (name, g) in want.iter() {
                let r = got
                    .get(name)
                    .unwrap_or_else(|| panic!("{repro}: recovered state lacks map {name}"));
                assert_eq!(
                    r.len(),
                    g.len(),
                    "{repro}: map {name} sizes diverge at watermark {w}"
                );
                for (t, m) in g.iter() {
                    assert_eq!(
                        r.get(t).to_bits(),
                        m.to_bits(),
                        "{repro}: {name}[{t:?}] diverges at watermark {w}"
                    );
                }
            }
            totals.recoveries_verified += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

fn torture(iters: usize, base_seed: u64, label: &str, json: Option<&str>) {
    println!("=== torture: seeded fault schedules × power cuts vs crash recovery ===");
    println!("({iters} iterations, base seed {base_seed}; every divergence is fatal)\n");
    let catalog = torture_catalog();
    let program = QueryEngineBuilder::new(catalog.clone())
        .add_query(
            "revenue",
            "SELECT o.ck, SUM(li.price * o.xch) AS total \
             FROM Orders o, Lineitem li WHERE o.ordk = li.ordk GROUP BY o.ck",
        )
        .mode(CompileMode::HigherOrder)
        .build()
        .expect("torture program compiles")
        .program()
        .clone();
    let ccat = dbtoaster::to_compiler_catalog(&catalog);
    let fp = dbtoaster::durability::program_fingerprint(&program);
    let base = std::env::temp_dir().join(format!("dbt-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    let mut totals = TortureTotals::default();
    let started = Instant::now();
    for i in 0..iters {
        torture_iteration(i as u64, base_seed, &base, &program, &ccat, fp, &mut totals);
    }
    let _ = std::fs::remove_dir_all(&base);

    let mean_ms = if totals.recoveries_timed > 0 {
        totals.recovery_nanos as f64 / totals.recoveries_timed as f64 / 1e6
    } else {
        0.0
    };
    println!(
        "torture: {iters} iterations, {} faults injected, {} power cuts, \
         {} recoveries verified, {} loud errors, 0 silent divergences \
         (mean recovery {mean_ms:.2} ms, total {:.1}s)",
        totals.faults,
        totals.cuts,
        totals.recoveries_verified,
        totals.loud_errors,
        started.elapsed().as_secs_f64(),
    );
    if let Some(path) = json {
        let payload = format!(
            "{{\"label\":\"{label}\",\"seed\":{base_seed},\"iterations\":{iters},\
             \"faults_injected\":{},\"power_cuts\":{},\"recoveries_verified\":{},\
             \"loud_errors\":{},\"silent_divergences\":0,\"mean_recovery_ms\":{mean_ms:.3}}}",
            totals.faults, totals.cuts, totals.recoveries_verified, totals.loud_errors,
        );
        std::fs::write(path, &payload).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    let config = ExperimentConfig {
        events: args.events,
        time_budget: args.budget,
        seed: args.seed,
    };

    match args.command.as_str() {
        "micro" => micro(&config, &args.label, args.json.as_deref()),
        "serve" => serve(&config, &args.label, args.json.as_deref()),
        "recover" => recover(&config, &args.label, args.json.as_deref()),
        "batch" => batch(&config, &args.label, args.json.as_deref()),
        "shard" => shard(&config, &args.shards, &args.label, args.json.as_deref()),
        "fig2" => fig2(),
        "fig6" | "fig7" => fig6(&config),
        "fig8" => traces_for(&["q1", "q3", "q11a", "q12"], "Figure 8", &config),
        "fig9" => traces_for(&["q17a", "q18a", "q22a", "q4"], "Figure 9", &config),
        "fig10" => traces_for(&["axf", "mst", "psp", "vwap"], "Figure 10", &config),
        "fig11" => fig11(&config),
        "explain" => explain_cmd(&config, args.query.as_deref(), args.json.as_deref()),
        "export" => export(&config, &args.addr, args.hold),
        "torture" => torture(args.iters, args.seed, &args.label, args.json.as_deref()),
        "traces" => traces_for(
            &[
                "q1", "q3", "q4", "q5", "q6", "q10", "q11a", "q12", "q17a", "q18a", "q22a", "ssb4",
                "vwap", "axf", "bsp", "bsv", "mst", "psp", "mddb1",
            ],
            "Figures 13-18",
            &config,
        ),
        "all" => {
            fig2();
            fig6(&config);
            traces_for(&["q1", "q3", "q11a", "q12"], "Figure 8", &config);
            traces_for(&["q17a", "q18a", "q22a", "q4"], "Figure 9", &config);
            traces_for(&["axf", "mst", "psp", "vwap"], "Figure 10", &config);
            fig11(&config);
        }
        other => {
            eprintln!(
                "unknown command {other}; expected micro|serve|recover|batch|shard|fig2|fig6|fig8|fig9|fig10|fig11|traces|explain|export|torture|all"
            );
            std::process::exit(2);
        }
    }

    // A tiny smoke check that keeps the harness honest: the workloads and families it
    // reports on must exist.
    debug_assert!(workloads::queries_of(Family::Finance).len() >= 6);
}
