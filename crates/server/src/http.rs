//! # The observability front door: a std-only HTTP/1.1 exporter
//!
//! A dedicated listener thread serving the server's observability surface
//! over plain HTTP — no TLS, no dependencies, `std::net` only (the workspace
//! builds offline). Endpoints:
//!
//! | path | body | content type |
//! |---|---|---|
//! | `GET /metrics` | Prometheus text exposition | `text/plain; version=0.0.4` |
//! | `GET /healthz` | writer liveness, queue depth, WAL/checkpoint lag, errors | `application/json` |
//! | `GET /views` | per-view work counters and observed map sizes | `application/json` |
//! | `GET /explain` | EXPLAIN ANALYZE of the trigger program (`?format=json` for JSON) | text / JSON |
//! | `GET /traces` | drain of the slow-batch trace ring, one JSON object per line | `application/x-ndjson` |
//!
//! ## Why the writer can never block on a scraper
//!
//! Every endpoint reads *shared* state — relaxed-atomic counters, the epoch
//! cell, the telemetry registry — none of which the writer thread ever waits
//! on. Beyond that structural guarantee, the transport itself is bounded:
//!
//! * **Connection cap** (8 connections): each connection is
//!   handled on its own short-lived thread; past the cap the listener answers
//!   `503` immediately instead of queueing work.
//! * **Read/write timeouts** ([`HttpConfig::read_timeout`],
//!   [`HttpConfig::write_timeout`]): a scraper that stops mid-request or
//!   mid-response has its connection dropped; it cannot pin a handler thread.
//! * **Bounded request size**: request heads over 8 KiB are rejected — the
//!   exporter only ever needs a method and a path.
//!
//! The listener itself runs non-blocking accepts with a small poll interval so
//! shutdown (server drop) is prompt without signal machinery.

use crate::server::{explain_program, health_body, metrics_body, traces_body, views_body, Shared};
use dbtoaster_telemetry::PROMETHEUS_CONTENT_TYPE;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Connections served concurrently; excess connections get an immediate
/// `503 Service Unavailable`.
const MAX_CONNECTIONS: usize = 8;

/// Exporter knobs. The default binds an ephemeral loopback port — read the
/// bound address back through `ViewServer::http_addr`.
#[derive(Clone, Debug)]
pub struct HttpConfig {
    /// Listen address, e.g. `127.0.0.1:0` (ephemeral) or `0.0.0.0:9184`.
    pub addr: String,
    /// Per-connection cap on reading the request head.
    pub read_timeout: Duration,
    /// Per-connection cap on writing the response.
    pub write_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// The running exporter: the listener thread plus its stop flag. Dropping it
/// stops the listener and joins the thread; in-flight connection handlers
/// finish on their own (they hold no server state beyond an `Arc`).
pub struct HttpExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
}

impl HttpExporter {
    /// Bind the configured address and start the listener thread.
    pub(crate) fn spawn(shared: Arc<Shared>, config: HttpConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept + poll keeps shutdown prompt: the thread notices
        // the stop flag within one poll interval instead of hanging in accept.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            thread::Builder::new()
                .name("dbtoaster-http".into())
                .spawn(move || accept_loop(listener, shared, config, stop))?
        };
        Ok(HttpExporter {
            addr,
            stop,
            listener: Some(thread),
        })
    }

    /// The bound listen address (resolves `:0` configs to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpExporter {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }
}

/// How long the listener sleeps between empty accept polls.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Largest request head the exporter reads before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if active.fetch_add(1, Relaxed) >= MAX_CONNECTIONS {
                    active.fetch_sub(1, Relaxed);
                    let _ = reject_overloaded(stream, &config);
                    continue;
                }
                let shared = shared.clone();
                let config = config.clone();
                let active = active.clone();
                // One short-lived thread per connection, bounded by the cap
                // above. A handler failing to spawn just drops the connection.
                let _ = thread::Builder::new()
                    .name("dbtoaster-http-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &shared, &config);
                        active.fetch_sub(1, Relaxed);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn reject_overloaded(mut stream: TcpStream, config: &HttpConfig) -> io::Result<()> {
    stream.set_write_timeout(Some(config.write_timeout))?;
    write_response(
        &mut stream,
        503,
        "Service Unavailable",
        "text/plain; charset=utf-8",
        "connection limit reached\n",
    )
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    config: &HttpConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let head = match read_request_head(&mut stream) {
        Ok(h) => h,
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            return write_response(
                &mut stream,
                408,
                "Request Timeout",
                "text/plain; charset=utf-8",
                "timed out reading request\n",
            );
        }
        Err(e) => return Err(e),
    };
    let Some((method, target)) = parse_request_line(&head) else {
        return write_response(
            &mut stream,
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n",
        );
    };
    if method != "GET" {
        return write_response(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let (status, reason, content_type, body) = match path {
        "/metrics" => (200, "OK", PROMETHEUS_CONTENT_TYPE, metrics_body(shared)),
        "/healthz" => {
            let (healthy, body) = health_body(shared);
            if healthy {
                (200, "OK", "application/json", body)
            } else {
                (503, "Service Unavailable", "application/json", body)
            }
        }
        "/views" => (200, "OK", "application/json", views_body(shared)),
        "/explain" => {
            let ex = explain_program(shared);
            if query.split('&').any(|kv| kv == "format=json") {
                (200, "OK", "application/json", ex.render_json())
            } else {
                (200, "OK", "text/plain; charset=utf-8", ex.render_text())
            }
        }
        "/traces" => (200, "OK", "application/x-ndjson", traces_body(shared)),
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics /healthz /views /explain /traces\n".to_string(),
        ),
    };
    write_response(&mut stream, status, reason, content_type, &body)
}

/// Read until the blank line ending the request head (we never need a body),
/// bounded by [`MAX_REQUEST_BYTES`].
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// `GET /path HTTP/1.1` → `("GET", "/path")`.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, target))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
