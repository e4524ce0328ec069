//! Wire-served introspection: a tiny hand-rolled HTTP/1.0 listener.
//!
//! No async runtime (vendor tradition — `std::net` and one thread), no
//! external HTTP crate: requests are a single `GET` line, responses are
//! `Connection: close` with an explicit `Content-Length`. The routes:
//!
//! - `GET /metrics` — Prometheus-style text exposition of the attached
//!   [`MetricsRegistry`] (per-bucket cumulative lines, `_count`/`_sum`,
//!   `{quantile="..."}` estimates).
//! - `GET /healthz` — the mounting role's health as JSON, rendered by
//!   that role: `200` when it says it is healthy, `503` when not.
//! - `GET /journal?n=K` — the last `K` (default 100) events of the
//!   telemetry ring as JSONL.
//! - `GET /trace` — the span ring as chrome://tracing JSON
//!   (`?fmt=flame` for the text flame summary).
//!
//! The listener runs on its own thread and touches only `Arc`'d
//! handles; mounting it adds nothing to the scheduling hot path.

use crate::error::FvsError;
use fvs_telemetry::{MetricsRegistry, Telemetry, Tracer};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client has to send its request head, however it spaces
/// the bytes. The listener is one thread: a client it waits on keeps
/// every other scrape waiting.
const REQUEST_DEADLINE: Duration = Duration::from_millis(300);

/// Everything the observability listener serves. Every handle is
/// optional-by-construction: a disabled [`Telemetry`] or [`Tracer`]
/// simply yields empty bodies, and a missing health closure turns
/// `/healthz` into a 404.
#[derive(Clone)]
pub struct ObsHandles {
    /// Registry behind `GET /metrics` (None → empty exposition).
    pub registry: Option<MetricsRegistry>,
    /// Event pipeline behind `GET /journal` (its memory ring is the
    /// tail that gets served; fanout handles delegate automatically).
    pub journal: Telemetry,
    /// Span ring behind `GET /trace`.
    pub tracer: Tracer,
    /// The `/healthz` answer: whether the role is healthy, and its JSON
    /// body.
    #[allow(clippy::type_complexity)]
    pub health: Option<Arc<dyn Fn() -> (bool, String) + Send + Sync>>,
}

impl std::fmt::Debug for ObsHandles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandles")
            .field("registry", &self.registry.is_some())
            .field("journal", &self.journal.enabled())
            .field("tracer", &self.tracer.enabled())
            .field("health", &self.health.is_some())
            .finish()
    }
}

/// The running HTTP/1.0 introspection listener.
#[derive(Debug)]
pub struct ObsServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `handles` until the
    /// server is dropped or [`shutdown`](ObsServer::shutdown).
    pub fn bind(addr: &str, handles: ObsHandles) -> Result<Self, FvsError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_loop(listener, handles, stop))
        };
        Ok(ObsServer {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop the listener thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(listener: TcpListener, handles: ObsHandles, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Introspection traffic is low-rate and read-only;
                // handling it inline (with a read timeout) keeps the
                // server to one thread.
                handle_connection(stream, &handles);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn handle_connection(mut stream: TcpStream, handles: &ObsHandles) {
    let _ = stream.set_nodelay(true);
    // Read until the end of the request head, the buffer fills (GETs
    // with no body fit comfortably) or the deadline passes, then answer
    // what has arrived if it holds a request line.
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut head = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    while head.len() < 8192 {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let Some(line) = request.lines().next() else {
        return;
    };
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return,
    };
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n".to_string(),
        )
    } else {
        route(target, handles)
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Dispatch one GET target; returns (status, content type, body).
fn route(target: &str, handles: &ObsHandles) -> (&'static str, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            let body = handles
                .registry
                .as_ref()
                .map(|r| r.render_text())
                .unwrap_or_default();
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        "/healthz" => match &handles.health {
            Some(health) => {
                let (healthy, mut body) = health();
                let status = if healthy {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                body.push('\n');
                (status, "application/json", body)
            }
            None => ("404 Not Found", "text/plain", "no health source\n".into()),
        },
        "/journal" => {
            let n = query_param(query, "n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(100);
            let events = handles.journal.events();
            let skip = events.len().saturating_sub(n);
            let mut body = String::new();
            for ev in &events[skip..] {
                ev.write_jsonl(&mut body);
                body.push('\n');
            }
            ("200 OK", "application/jsonl", body)
        }
        "/trace" => {
            if query_param(query, "fmt") == Some("flame") {
                ("200 OK", "text/plain", handles.tracer.flame_text())
            } else {
                (
                    "200 OK",
                    "application/json",
                    handles.tracer.export_chrome_json(),
                )
            }
        }
        _ => ("404 Not Found", "text/plain", "not found\n".into()),
    }
}

fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// Issue one local `GET` and return `(status_code, body)`: the tests'
/// scrape client.
pub fn http_get(addr: std::net::SocketAddr, target: &str) -> Result<(u16, String), FvsError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let request = format!("GET {target} HTTP/1.0\r\nHost: fvsst\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let code = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| FvsError::config("malformed HTTP response"))?;
    let body = match raw.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_telemetry::SchedEvent;

    fn handles() -> (ObsHandles, Telemetry, Tracer) {
        let telemetry = Telemetry::memory(64);
        let tracer = Tracer::ring(64);
        let handles = ObsHandles {
            registry: telemetry.registry().cloned(),
            journal: telemetry.clone(),
            tracer: tracer.clone(),
            health: Some(Arc::new(|| (true, r#"{"rounds":7}"#.to_string()))),
        };
        (handles, telemetry, tracer)
    }

    #[test]
    fn serves_metrics_journal_trace_and_health() {
        let (handles, telemetry, tracer) = handles();
        let registry = telemetry.registry().unwrap();
        registry.counter("net.frames_rx").add(3);
        registry
            .histogram("net.round_wall_s", &[1e-3, 1e-2])
            .observe(0.002);
        telemetry.emit(SchedEvent::BudgetDrop {
            t_s: 1.0,
            from_w: 2000.0,
            to_w: 1200.0,
            deadline_s: 1.0,
        });
        {
            let _outer = tracer.span("net.round");
            let _inner = tracer.span("cluster.round");
        }
        let server = ObsServer::bind("127.0.0.1:0", handles).unwrap();
        let addr = server.local_addr();

        let (code, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("net.frames_rx 3"), "{body}");
        assert!(
            body.contains("net.round_wall_s_bucket{le=\"1e-3\"}"),
            "{body}"
        );
        assert!(
            body.contains("net.round_wall_s{quantile=\"0.99\"}"),
            "{body}"
        );

        let (code, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"rounds\":7"), "{body}");

        let (code, body) = http_get(addr, "/journal?n=10").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"kind\":\"budget_drop\""), "{body}");

        let (code, body) = http_get(addr, "/trace").unwrap();
        assert_eq!(code, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);

        let (code, body) = http_get(addr, "/trace?fmt=flame").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("net.round"), "{body}");

        let (code, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(code, 404);
        server.shutdown();
    }

    /// A listener whose `/healthz` reports unhealthy with `body`.
    fn unhealthy(body: &'static str) -> ObsServer {
        let handles = ObsHandles {
            registry: None,
            journal: Telemetry::disabled(),
            tracer: Tracer::disabled(),
            health: Some(Arc::new(move || (false, body.to_string()))),
        };
        ObsServer::bind("127.0.0.1:0", handles).unwrap()
    }

    #[test]
    fn healthz_degraded_is_503() {
        let server = unhealthy(r#"{"status":"degraded","dead_nodes":2}"#);
        let (code, body) = http_get(server.local_addr(), "/healthz").unwrap();
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("\"dead_nodes\":2"), "{body}");
    }

    /// Satellite: `resyncing` is its own 503 state, distinct from
    /// `degraded`, and the JSON carries the grace-window deadline. (The
    /// coordinator's rendering of it is pinned in
    /// `tests/coordinator_core.rs`.)
    #[test]
    fn healthz_resyncing_is_a_distinct_503_with_deadline() {
        let server = unhealthy(r#"{"status":"resyncing","resync_deadline_s":1.75}"#);
        let (code, body) = http_get(server.local_addr(), "/healthz").unwrap();
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"resyncing\""), "{body}");
        assert!(body.contains("\"resync_deadline_s\":1.75"), "{body}");
    }

    /// Bugfix: the read timeout bounded each `read`, not the request,
    /// so a client sending a byte every 200 ms held the one listener
    /// thread — and every other scrape — for as long as it liked.
    #[test]
    fn a_trickling_client_does_not_hold_the_listener() {
        let (handles, _, _) = handles();
        let server = ObsServer::bind("127.0.0.1:0", handles).unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let (trickling, started) = std::sync::mpsc::channel();
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for byte in b"GET /healthz HTTP/1.0 and it never ends ".iter().cycle() {
                    // The server dropping us is the fix at work.
                    if stop.load(Ordering::SeqCst) || stream.write_all(&[*byte]).is_err() {
                        break;
                    }
                    let _ = trickling.send(());
                    std::thread::sleep(Duration::from_millis(200));
                }
            })
        };
        // The trickler is connected, so it is accepted first.
        started.recv().unwrap();
        let asked = Instant::now();
        let answer = http_get(addr, "/healthz");
        let waited = asked.elapsed();
        stop.store(true, Ordering::SeqCst);
        trickler.join().unwrap();
        let (code, _) = answer.expect("a scrape behind a slow client is still answered");
        assert_eq!(code, 200);
        assert!(waited < Duration::from_secs(1), "waited {waited:?}");
    }
}
