//! End-to-end tests for the std-only HTTP exporter: every endpoint answers
//! with the right status, content type and a conformant body, and the
//! transport rejects what it must (unknown paths, non-GET methods, malformed
//! request lines).

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::{
    compile, Catalog, CompileOptions, ProgramExplain, QuerySpec, RelationMeta,
};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::Engine;
use dbtoaster_server::{HttpConfig, ServerConfig, ViewServer};
use dbtoaster_telemetry::PROMETHEUS_CONTENT_TYPE;
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
    assert!(text.body.contains("strategy:"));
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
    // The JSON strategies agree with what the in-process API explains.
    let local = server.explain();
    for (a, b) in parsed.relations.iter().zip(&local.relations) {
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.reason, b.reason);
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

#[test]
fn exporter_can_start_after_spawn_but_only_once() {
    let mut server = ViewServer::spawn(engine(), vec![], ServerConfig::default()).unwrap();
    assert!(server.http_addr().is_none());
    let addr = server.serve_http(HttpConfig::default()).unwrap();
    assert_eq!(server.http_addr(), Some(addr));
    assert_eq!(get(addr, "/healthz").status, 200);
    assert!(server.serve_http(HttpConfig::default()).is_err());
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
