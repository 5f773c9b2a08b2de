//! End-to-end tests for the std-only HTTP exporter: every endpoint answers
//! with the right status, content type and a conformant body, and the
//! transport rejects what it must (unknown paths, non-GET methods, malformed
//! request lines).

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::explain::json::{self, Json};
use dbtoaster_compiler::{
    compile, Catalog, CompileOptions, ProgramExplain, QuerySpec, RelationMeta,
};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::{Engine, EngineStats};
use dbtoaster_server::{HttpConfig, ServerConfig, ViewServer};
use dbtoaster_telemetry::{ValueGroup, ValueKind, PROMETHEUS_CONTENT_TYPE, VIEW_VALUES};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn engine() -> Engine {
    let catalog: Catalog = [RelationMeta::stream("R", ["A", "V"])]
        .into_iter()
        .collect();
    let q = QuerySpec {
        name: "TOTAL".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    let program = compile(&[q], &catalog, &CompileOptions::default()).unwrap();
    Engine::new(program, &catalog)
}

fn server_with_http() -> ViewServer {
    let server = ViewServer::spawn(
        engine(),
        vec![],
        ServerConfig {
            http: Some(HttpConfig::default()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ingest = server.handle();
    for k in 0..50i64 {
        ingest
            .send(UpdateEvent::insert(
                "R",
                vec![Value::long(k), Value::long(k % 7)],
            ))
            .unwrap();
    }
    server.flush().unwrap();
    server
}

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Send a raw request and parse the response (status, headers, body).
fn raw_request(addr: SocketAddr, request: &str) -> Response {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {raw:?}"));
    let mut lines = head.lines();
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    raw_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// The number after `"key":` in a JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let (_, rest) = body
        .split_once(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// The value of an unlabelled metric in a `/metrics` body.
fn metric_u64(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("no {name} in {body}"))
        .parse()
        .unwrap()
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let server = server_with_http();
    let addr = server.http_addr().expect("exporter configured");
    let resp = get(addr, "/metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("Content-Type"), Some(PROMETHEUS_CONTENT_TYPE));
    assert_eq!(
        resp.header("Content-Length"),
        Some(resp.body.len().to_string().as_str())
    );
    assert!(
        resp.body.contains("# HELP dbtoaster_events_total"),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("# TYPE dbtoaster_events_total counter"));
    assert!(resp.body.contains("dbtoaster_events_total 50"));
    assert!(resp.body.contains("dbtoaster_view_rows_written_total"));
}

#[test]
fn healthz_reports_a_healthy_writer() {
    let server = server_with_http();
    let addr = server.http_addr().unwrap();
    let resp = get(addr, "/healthz");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("Content-Type"), Some("application/json"));
    for needle in [
        "\"status\":\"ok\"",
        "\"writer_alive\":true",
        "\"killed\":false",
        "\"events_applied\":50",
        "\"durable\":false",
        "\"checkpoint_lag_events\":0",
        "\"last_error\":null",
        "\"last_durability_error\":null",
    ] {
        assert!(
            resp.body.contains(needle),
            "missing {needle} in {}",
            resp.body
        );
    }
}

#[test]
fn views_and_traces_endpoints_serve_json() {
    let server = server_with_http();
    let addr = server.http_addr().unwrap();
    let views = get(addr, "/views");
    assert_eq!(views.status, 200);
    assert_eq!(views.header("Content-Type"), Some("application/json"));
    assert!(views.body.contains("\"events\":50"), "{}", views.body);
    assert!(views.body.contains("\"views\":["));
    assert!(views.body.contains("\"rows_written\":"));
    assert!(
        views.body.contains("\"indexes\":{\"hash\":"),
        "{}",
        views.body
    );
    assert!(views.body.contains("\"ordered_on\":["), "{}", views.body);
    // Each view's own bytes, live and in its snapshot buffers, and its index
    // bytes by kind beside their sum.
    for key in [
        "\"map_bytes\":",
        "\"snapshot_bytes\":",
        "\"hash_bytes\":",
        "\"ordered_bytes\":",
    ] {
        assert!(views.body.contains(key), "missing {key} in {}", views.body);
    }
    assert!(views.body.contains("\"snapshot_keys_patched\":"));
    assert!(views.body.contains("\"snapshot_entries_copied\":"));
    assert!(
        views
            .body
            .contains("\"snapshot_full_copies\":{\"first\":1,\"pinned\":0,\"abandoned\":"),
        "{}",
        views.body
    );

    let traces = get(addr, "/traces");
    assert_eq!(traces.status, 200);
    assert_eq!(traces.header("Content-Type"), Some("application/x-ndjson"));
    // No batch crossed the slow threshold: an empty drain is an empty body.
    assert!(traces.body.is_empty() || traces.body.ends_with('\n'));
}

#[test]
fn explain_endpoint_serves_text_and_round_trippable_json() {
    let server = server_with_http();
    let addr = server.http_addr().unwrap();

    let text = get(addr, "/explain");
    assert_eq!(text.status, 200);
    assert_eq!(
        text.header("Content-Type"),
        Some("text/plain; charset=utf-8")
    );
    assert!(text.body.contains("== relation R =="), "{}", text.body);
    assert!(text.body.contains("live pass:"));
    assert!(
        text.body.contains("analyze:"),
        "live counters missing: {}",
        text.body
    );

    let json = get(addr, "/explain?format=json");
    assert_eq!(json.status, 200);
    assert_eq!(json.header("Content-Type"), Some("application/json"));
    let parsed = ProgramExplain::parse_json(&json.body)
        .unwrap_or_else(|| panic!("unparseable /explain JSON: {}", json.body));
    assert_eq!(parsed.relations.len(), 1);
    assert_eq!(parsed.relations[0].relation, "R");
    // The JSON live passes agree with what the in-process API explains.
    let local = server.explain();
    for (a, b) in parsed.relations.iter().zip(&local.relations) {
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.live_pass, b.live_pass);
    }
}

#[test]
fn transport_rejects_what_it_must() {
    let server = server_with_http();
    let addr = server.http_addr().unwrap();

    let not_found = get(addr, "/nope");
    assert_eq!(not_found.status, 404);
    assert!(not_found.body.contains("/metrics"));

    let post = raw_request(
        addr,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(post.status, 405);

    let garbage = raw_request(addr, "NOT-HTTP\r\n\r\n");
    assert_eq!(garbage.status, 400);
}

/// A durable server over a scripted fault injector: quiet until the test
/// flips `fail_writes_with`, so spawn's initial checkpoint + segment land.
fn durable_server_with_fault() -> (
    ViewServer,
    std::sync::Arc<dbtoaster_durability::FaultVfs>,
    std::path::PathBuf,
) {
    use dbtoaster_durability::{DurabilityConfig, FaultConfig, FaultVfs, FsyncPolicy, RetryPolicy};
    let dir = std::env::temp_dir().join(format!(
        "dbt-healthz-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let fault = std::sync::Arc::new(FaultVfs::new(FaultConfig {
        seed: 5,
        fail_prob_ppm: 0,
        enospc_prob_ppm: 0,
        short_write_prob_ppm: 0,
        cut_at_op: None,
    }));
    let mut d = DurabilityConfig::new(&dir);
    d.fsync = FsyncPolicy::EveryBatch;
    d.vfs = std::sync::Arc::new(fault.clone());
    d.retry = RetryPolicy {
        max_inline_retries: 1,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    };
    let server = ViewServer::spawn(
        engine(),
        vec![],
        ServerConfig {
            http: Some(HttpConfig::default()),
            durability: Some(d),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, fault, dir)
}

/// `/healthz`'s durability health is what `/metrics` exports: its
/// `durability_retries` is the `io_retries` counter and its `degraded` the
/// `degraded` gauge.
fn assert_health_matches_metrics(addr: SocketAddr) {
    let health = get(addr, "/healthz").body;
    let metrics = get(addr, "/metrics").body;
    assert_eq!(
        json_u64(&health, "durability_retries"),
        metric_u64(&metrics, "dbtoaster_io_retries"),
        "{health}"
    );
    let degraded = metric_u64(&metrics, "dbtoaster_degraded") == 1;
    assert!(
        health.contains(&format!("\"degraded\":{degraded},")),
        "gauge says degraded={degraded}: {health}"
    );
}

fn feed(server: &ViewServer, base: i64, n: i64) {
    let ingest = server.handle();
    for k in base..base + n {
        ingest
            .send(UpdateEvent::insert(
                "R",
                vec![Value::long(k), Value::long(k % 7)],
            ))
            .unwrap();
    }
    server.flush().unwrap();
}

#[test]
fn healthz_reports_degraded_and_recovers_to_ok() {
    use dbtoaster_durability::vfs::EIO;
    let (server, fault, dir) = durable_server_with_fault();
    let addr = server.http_addr().unwrap();

    // Healthy and durable first.
    feed(&server, 0, 10);
    let resp = get(addr, "/healthz");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"status\":\"ok\""), "{}", resp.body);
    assert!(resp.body.contains("\"degraded\":false"), "{}", resp.body);
    assert_health_matches_metrics(addr);

    // Transient EIO: the writer exhausts its retries and degrades, but the
    // server keeps serving — 200, with the distinct degraded status and the
    // triage fields (current error, retry count, transition stamp).
    fault.fail_writes_with(EIO);
    feed(&server, 10, 10);
    let resp = get(addr, "/healthz");
    assert_eq!(
        resp.status, 200,
        "degraded must stay serveable: {}",
        resp.body
    );
    assert!(
        resp.body.contains("\"status\":\"degraded\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"degraded\":true"), "{}", resp.body);
    assert!(
        resp.body.contains("\"degraded_error\":\""),
        "current error missing: {}",
        resp.body
    );
    assert!(
        !resp.body.contains("\"durability_retries\":0,"),
        "retry count missing: {}",
        resp.body
    );
    assert!(
        !resp.body.contains("\"last_transition_epoch\":0,"),
        "transition stamp missing: {}",
        resp.body
    );
    assert!(
        resp.body.contains("\"last_durability_error\":null"),
        "a transient fault must not latch the fatal error: {}",
        resp.body
    );
    assert_health_matches_metrics(addr);

    // Heal: the next batches tick the re-arm path and status returns to ok.
    fault.heal();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut base = 20;
    loop {
        feed(&server, base, 5);
        base += 5;
        let resp = get(addr, "/healthz");
        if resp.body.contains("\"status\":\"ok\"") {
            assert!(resp.body.contains("\"degraded\":false"), "{}", resp.body);
            assert!(
                resp.body.contains("\"degraded_error\":null"),
                "{}",
                resp.body
            );
            assert_health_matches_metrics(addr);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never re-armed: {}",
            resp.body
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_reports_unhealthy_on_a_permanent_durability_error() {
    use dbtoaster_durability::vfs::EROFS;
    let (server, fault, dir) = durable_server_with_fault();
    let addr = server.http_addr().unwrap();
    feed(&server, 0, 10);

    // A read-only filesystem is not retryable: the error latches, and the
    // health probe flips to 503 so orchestrators stop routing writes here.
    fault.fail_writes_with(EROFS);
    feed(&server, 10, 10);
    let resp = get(addr, "/healthz");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(
        resp.body.contains("\"status\":\"unhealthy\""),
        "{}",
        resp.body
    );
    assert!(
        resp.body.contains("\"last_durability_error\":\""),
        "latched error missing: {}",
        resp.body
    );
    // Permanent failure is not the retry loop: healing the disk does NOT
    // un-latch it (the log may have lost writes; a human must intervene).
    fault.heal();
    feed(&server, 20, 5);
    assert_eq!(get(addr, "/healthz").status, 503);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stats()` is the writer engine's own [`EngineStats`]: it equals what
/// `shutdown()` hands back, and a re-served engine keeps counting. Only the
/// clean shutdown's final checkpoint lands after the read. The re-serve goes
/// to a second directory: the first holds the engine's history, and a
/// durable open refuses an engine that has applied events on a directory
/// holding state.
#[test]
fn served_and_returned_stats_agree_across_a_reserve() {
    use dbtoaster_durability::DurabilityConfig;
    let dir = |n: u32| {
        let name = format!("dbt-reserve-stats-{n}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let dirs = [dir(0), dir(1)];
    let serve = |engine: Engine, dir: &std::path::Path| {
        let mut durability = DurabilityConfig::new(dir);
        // No periodic checkpoint: only the initial and the shutdown ones.
        durability.checkpoint_every_events = u64::MAX;
        let server = ViewServer::spawn(
            engine,
            vec![],
            ServerConfig {
                http: Some(HttpConfig::default()),
                durability: Some(durability),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let sub = server.subscribe("TOTAL").unwrap();
        (server, sub)
    };

    let (server, _sub) = serve(engine(), &dirs[0]);
    feed(&server, 0, 50);
    let engine = server.shutdown().unwrap();
    let first = *engine.stats();
    let (server, _sub) = serve(engine, &dirs[1]);
    feed(&server, 50, 50);
    let served = server.stats();
    let health = get(server.http_addr().unwrap(), "/healthz").body;
    let returned = *server.shutdown().unwrap().stats();

    assert_eq!(served.events, 100);
    assert_eq!(
        served.checkpoints_taken, 3,
        "the first serve's initial and shutdown ones + the second's initial"
    );
    assert!(served.subscriber_deltas > first.subscriber_deltas);
    assert!(served.wal_bytes_written > first.wal_bytes_written);
    assert_eq!(
        returned,
        EngineStats {
            checkpoints_taken: served.checkpoints_taken + 1,
            ..served
        }
    );
    for (key, value) in [
        ("events_applied", served.events),
        ("wal_bytes_written", served.wal_bytes_written),
        ("checkpoints_taken", served.checkpoints_taken),
    ] {
        assert_eq!(json_u64(&health, key), value, "{key} in {health}");
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every per-view value is declared once, in `VIEW_VALUES`, and every
/// surface renders it from there: after a served stream each value appears
/// under its name with one value in `/metrics`, in `/views`, and in
/// `/explain?format=json` where its group is shown — the work group on each
/// statement that writes the view, the resident group on the view's map
/// block.
#[test]
fn every_view_value_reads_the_same_on_every_surface() {
    // `Q[b] = Σ R(a,b)·S(a,c)·c`: an `S` event scans the map of `R` by `a`,
    // which therefore carries a hash index (and a `== map ==` block).
    let catalog: Catalog = [
        RelationMeta::stream("R", ["A", "B"]),
        RelationMeta::stream("S", ["A", "C"]),
    ]
    .into_iter()
    .collect();
    let q = QuerySpec {
        name: "Q".into(),
        out_vars: vec!["b".into()],
        expr: Expr::agg_sum(
            ["b"],
            Expr::product_of([
                Expr::rel("R", ["a", "b"]),
                Expr::rel("S", ["a", "c"]),
                Expr::var("c"),
            ]),
        ),
    };
    let program = compile(&[q], &catalog, &CompileOptions::default()).unwrap();
    let server = ViewServer::spawn(
        Engine::new(program, &catalog),
        vec![],
        ServerConfig {
            http: Some(HttpConfig::default()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let ingest = server.handle();
    for k in 0..60i64 {
        let (r, s) = ([k % 5, k % 3], [k % 5, k]);
        ingest
            .send(UpdateEvent::insert("R", r.map(Value::long).to_vec()))
            .unwrap();
        ingest
            .send(UpdateEvent::insert("S", s.map(Value::long).to_vec()))
            .unwrap();
    }
    server.flush().unwrap();
    let addr = server.http_addr().unwrap();
    let metrics = get(addr, "/metrics").body;
    let views = json::parse(&get(addr, "/views").body).expect("/views parses");
    let explain = json::parse(&get(addr, "/explain?format=json").body).expect("/explain parses");

    let field = |o: &Json, key: &str| -> u64 {
        let v = o.as_object().and_then(|o| o.get(key));
        v.and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no {key} in {o:?}"))
    };
    let series = |view: &str, v: &dbtoaster_telemetry::ViewValue| -> u64 {
        let suffix = match v.kind {
            ValueKind::Counter => "_total",
            ValueKind::Gauge => "",
        };
        let prefix = match v.label {
            Some(label) => format!(
                "dbtoaster_view_{}{suffix}{{view=\"{view}\",{label}=\"{}\"}} ",
                v.object().unwrap(),
                v.key()
            ),
            None => format!(
                "dbtoaster_view_{}{suffix}{{view=\"{view}\"}} ",
                v.name.replace('.', "_")
            ),
        };
        let line = metrics.lines().find_map(|l| l.strip_prefix(&prefix));
        line.unwrap_or_else(|| panic!("no series {prefix}in /metrics"))
            .parse()
            .unwrap()
    };
    let statements: Vec<&Json> = explain.as_object().unwrap()["relations"]
        .as_array()
        .unwrap()
        .iter()
        .flat_map(|r| r.as_object().unwrap()["triggers"].as_array().unwrap())
        .flat_map(|t| t.as_object().unwrap()["statements"].as_array().unwrap())
        .collect();
    let maps = explain.as_object().unwrap()["maps"].as_array().unwrap();
    let (mut on_statements, mut on_maps) = (0, 0);
    let mut total = [0u64; VIEW_VALUES.len()];
    for view in views.as_object().unwrap()["views"].as_array().unwrap() {
        let name = view.as_object().unwrap()["name"].as_str().unwrap();
        let written_by: Vec<&Json> = statements
            .iter()
            .filter(|s| s.as_object().unwrap()["target"].as_str() == Some(name))
            .map(|s| &s.as_object().unwrap()["analyze"])
            .collect();
        let block = maps
            .iter()
            .find(|m| m.as_object().unwrap()["name"].as_str() == Some(name))
            .map(|m| &m.as_object().unwrap()["analyze"]);
        for (i, v) in VIEW_VALUES.iter().enumerate() {
            let at_views = match v.object() {
                Some(object) => field(&view.as_object().unwrap()[object], v.key()),
                None => field(view, v.name),
            };
            assert_eq!(series(name, v), at_views, "{name}: {} in /metrics", v.name);
            let explained = match v.group {
                ValueGroup::Work => written_by.clone(),
                ValueGroup::Resident => block.into_iter().collect(),
                ValueGroup::Snapshot => Vec::new(),
            };
            for analyze in explained {
                assert_eq!(
                    field(analyze, v.key()),
                    at_views,
                    "{name}: {} in /explain",
                    v.name
                );
                match v.group {
                    ValueGroup::Work => on_statements += 1,
                    _ => on_maps += 1,
                }
            }
            total[i] += at_views;
        }
    }
    // Not vacuous: both EXPLAIN groups were compared, and the stream wrote,
    // scanned, indexed, held and published something.
    assert!(
        on_statements > 0 && on_maps > 0,
        "{on_statements} / {on_maps}"
    );
    for name in [
        "rows_written",
        "scans",
        "entries_scanned",
        "map_size",
        "indexes.hash",
        "indexes.entries",
        "indexes.bytes",
        "map_bytes",
        "snapshot_bytes",
        "snapshot_full_copies.first",
    ] {
        let i = VIEW_VALUES.iter().position(|v| v.name == name).unwrap();
        assert!(total[i] > 0, "{name} is 0 on every view");
    }
}
