//! A hand-rolled, dependency-free HTTP/1.1 front-end on `std::net`.
//!
//! Deliberately minimal: every response closes the connection, request
//! bodies are ignored, and only the request line is parsed. That is enough
//! for `curl`, Prometheus scrapes, and the integration tests, without
//! pulling a web framework into a log-analysis workspace.
//!
//! Routes:
//!
//! | route       | payload                                              |
//! |-------------|------------------------------------------------------|
//! | `/healthz`  | `ok` (text)                                          |
//! | `/metrics`  | Prometheus text exposition of the metrics registry   |
//! | `/events`   | JSON array of the recent-events ring                 |
//! | `/summary`  | JSON object of the stream counters                   |
//! | `/analysis` | the full co-analysis report (with `--full-analysis`) |
//! | `/shutdown` | requests graceful shutdown (GET or POST)             |
//!
//! Robustness: request heads are capped at 8 KiB, reads and writes carry
//! timeouts, and a client too slow to take its response is disconnected
//! and counted in `http_slow_disconnects_total`.

use crate::full::FullAnalysis;
use crate::metrics::{Registry, ServeMetrics};
use crate::ring::EventRing;
use crate::server::Shutdown;
use crate::source::POLL_SLEEP;
use crate::worker::Worker;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head (request line + headers) we accept.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Shared state the front-end serves from.
#[derive(Debug, Clone)]
pub(crate) struct HttpState {
    pub registry: Arc<Registry>,
    pub ring: Arc<EventRing>,
    pub worker: Arc<Worker>,
    pub metrics: Arc<ServeMetrics>,
    pub shutdown: Arc<Shutdown>,
    pub full: Option<Arc<FullAnalysis>>,
    pub read_timeout: Duration,
    pub write_timeout: Duration,
}

/// A response ready to serialize.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type,
            body,
        }
    }

    fn plain(status: u16, reason: &'static str, body: &str) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: body.to_owned(),
        }
    }
}

/// Render the `/summary` JSON from the published stream counters plus the
/// ingest/HTTP side-channel counters.
pub(crate) fn summary_json(state: &HttpState) -> String {
    let c = state.worker.counters();
    let m = &state.metrics;
    format!(
        "{{\"records_in\":{},\"fatal_in\":{},\"merged_temporal\":{},\"merged_spatial\":{},\
         \"events_out\":{},\"warnings\":{},\"rejected_malformed\":{},\"rejected_oversized\":{},\
         \"backpressure_stalls\":{},\"queue_depth\":{},\"ring_events\":{},\
         \"ingest_connections\":{},\"http_requests\":{},\"draining\":{}}}",
        c.records_in,
        c.fatal_in,
        c.merged_temporal,
        c.merged_spatial,
        c.events_out,
        c.warnings,
        m.rejected_malformed.get(),
        m.rejected_oversized.get(),
        m.backpressure_stalls.get(),
        m.queue_depth.get(),
        state.ring.total_pushed(),
        m.ingest_connections.get(),
        m.http_requests.get(),
        state.shutdown.requested(),
    )
}

/// Parse the request line out of a raw head. `None` means unparsable.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/") {
        return None;
    }
    Some((method, target))
}

fn route(state: &HttpState, method: &str, target: &str) -> Response {
    // Strip any query string; the routes take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    if method != "GET" && !(method == "POST" && path == "/shutdown") {
        return Response::plain(405, "Method Not Allowed", "method not allowed\n");
    }
    match path {
        "/healthz" => Response::ok("text/plain; charset=utf-8", "ok\n".to_owned()),
        "/metrics" => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            state.registry.render_prometheus(),
        ),
        "/events" => Response::ok("application/json", state.ring.to_json()),
        "/summary" => Response::ok("application/json", summary_json(state)),
        "/analysis" => match &state.full {
            Some(full) => Response::ok("text/plain; charset=utf-8", full.snapshot().render()),
            None => Response::plain(
                404,
                "Not Found",
                "full analysis not enabled (start with --full-analysis --jobs FILE)\n",
            ),
        },
        "/shutdown" => {
            state.shutdown.request();
            Response::ok("text/plain; charset=utf-8", "shutting down\n".to_owned())
        }
        _ => Response::plain(404, "Not Found", "not found\n"),
    }
}

/// Read the request head: until `\r\n\r\n`, EOF, the size cap, or timeout.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(head);
        }
        if let Some(chunk) = buf.get(..n) {
            head.extend_from_slice(chunk);
        }
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            return Ok(head);
        }
        if head.len() >= MAX_REQUEST_BYTES {
            return Ok(head);
        }
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let headers = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.reason,
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(headers.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// Serve one connection: read the head, route, write, close.
fn handle_http_conn(mut stream: TcpStream, state: &HttpState) {
    let _ = stream.set_read_timeout(Some(state.read_timeout));
    let _ = stream.set_write_timeout(Some(state.write_timeout));
    #[expect(
        clippy::disallowed_methods,
        reason = "the request-latency metric measures wall time, never an analysis result"
    )]
    let started = std::time::Instant::now();
    let head = match read_head(&mut stream) {
        Ok(h) => h,
        Err(_) => {
            // The request never arrived in time: a slow (or silent) client.
            state.metrics.slow_disconnects.inc();
            return;
        }
    };
    state.metrics.http_requests.inc();
    let resp = match std::str::from_utf8(&head).ok().and_then(parse_request_line) {
        Some((method, target)) => route(state, method, target),
        None => Response::plain(400, "Bad Request", "bad request\n"),
    };
    if write_response(&mut stream, &resp).is_err() {
        // The client did not take its response within the write timeout.
        state.metrics.slow_disconnects.inc();
    }
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    state.metrics.http_nanos.observe(nanos);
}

/// Run the HTTP accept loop on its own thread until shutdown.
///
/// Connections are served inline — every handler is bounded by the read and
/// write timeouts, so the worst case head-of-line delay is small and the
/// loop stays at one thread.
pub(crate) fn spawn_http_listener(
    listener: TcpListener,
    state: HttpState,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    std::thread::Builder::new()
        .name("bgp-serve-http".to_owned())
        .spawn(move || loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Accepted non-blocking; the handler needs real timeouts.
                    let _ = stream.set_nonblocking(false);
                    handle_http_conn(stream, &state);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if state.shutdown.requested_final() {
                        break;
                    }
                    std::thread::sleep(POLL_SLEEP);
                }
                Err(_) => std::thread::sleep(POLL_SLEEP),
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_strictly() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GET /metrics"), None);
        assert_eq!(parse_request_line("GET  HTTP/1.1"), None);
        assert_eq!(parse_request_line("GET /x FTP/1.0"), None);
    }
}
