//! Ingest sources: the TCP listener and the optional file tailer.
//!
//! Both sources speak the same [`protocol`](crate::protocol): bytes in,
//! framed lines out, each line classified and — if it parses — queued for
//! the daemon's one analysis worker. Accept loops and connection
//! handlers are non-blocking pollers so a requested shutdown is observed
//! within one poll interval; already-read bytes are always framed and
//! pushed before a handler exits, which keeps shutdown lossless for data
//! the daemon has accepted.

use crate::metrics::ServeMetrics;
use crate::protocol::LineFramer;
use crate::recorder::ChunkRecorder;
use crate::server::Shutdown;
use crate::worker::Worker;
use bgp_ports::{LineDecoder, LineOutcome};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long accept loops sleep between polls.
pub(crate) const POLL_SLEEP: Duration = Duration::from_millis(20);

/// Everything a source needs to turn bytes into queued records.
#[derive(Debug, Clone)]
pub(crate) struct SourceCtx {
    pub worker: Arc<Worker>,
    pub metrics: Arc<ServeMetrics>,
    pub shutdown: Arc<Shutdown>,
    pub max_line_bytes: usize,
    pub read_timeout: Duration,
    /// The line-level port decoding this daemon's ingest format. Shared so
    /// stateful decoders (syslog record-id assignment) stay globally unique
    /// across connections.
    pub decoder: Arc<LineDecoder>,
    /// When `--record` is active, every delivered chunk is observed here.
    pub recorder: Option<Arc<ChunkRecorder>>,
}

impl SourceCtx {
    /// Decode one framed line and queue it. Returns `false` once the queue
    /// refuses records (daemon shutting down) — the source should stop.
    fn consume_line(&self, line: &[u8]) -> bool {
        match self.decoder.decode_line(line) {
            LineOutcome::Skip => true,
            LineOutcome::Malformed(_) => {
                self.metrics.rejected_malformed.inc();
                true
            }
            LineOutcome::Record(rec) => self.worker.push(*rec, &self.metrics).is_ok(),
        }
    }

    /// Feed one chunk through a framer, accounting oversized drops.
    /// Returns `false` once the queue is closed.
    pub(crate) fn consume_chunk(&self, framer: &mut LineFramer, chunk: &[u8]) -> bool {
        if let Some(rec) = &self.recorder {
            rec.observe(chunk);
        }
        let mut open = true;
        let dropped = framer.feed(chunk, &mut |line: &[u8]| {
            if open {
                open = self.consume_line(line);
            }
        });
        self.metrics.rejected_oversized.add(dropped);
        open
    }

    /// Flush a trailing unterminated line at end of stream.
    pub(crate) fn consume_eof(&self, framer: &mut LineFramer) {
        framer.finish(&mut |line: &[u8]| {
            let _ = self.consume_line(line);
        });
    }
}

/// Is this error the read-timeout family rather than a real failure?
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serve one ingest connection until EOF, error, or shutdown.
fn handle_ingest_conn(stream: TcpStream, ctx: &SourceCtx) {
    let mut stream = stream;
    // A failed timeout setup degrades to blocking reads; EOF still ends us.
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let mut framer = LineFramer::new(ctx.max_line_bytes);
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                ctx.consume_eof(&mut framer);
                return;
            }
            Ok(n) => {
                if let Some(chunk) = buf.get(..n) {
                    if !ctx.consume_chunk(&mut framer, chunk) {
                        return;
                    }
                }
            }
            Err(e) if is_timeout(&e) => {
                if ctx.shutdown.requested() {
                    ctx.consume_eof(&mut framer);
                    return;
                }
            }
            Err(_) => {
                ctx.consume_eof(&mut framer);
                return;
            }
        }
    }
}

/// Keep an accepted connection's handler thread, or count the connection
/// as dropped when its thread could not be spawned (out of threads): the
/// client sees a reset and may retry.
fn admit(
    metrics: &ServeMetrics,
    conns: &mut Vec<JoinHandle<()>>,
    spawned: std::io::Result<JoinHandle<()>>,
) {
    match spawned {
        Ok(h) => conns.push(h),
        Err(_) => metrics.ingest_connections_dropped.inc(),
    }
}

/// Run the ingest accept loop on its own thread. The returned handle joins
/// once shutdown is requested *and* every accepted connection has drained.
pub(crate) fn spawn_ingest_listener(
    listener: TcpListener,
    ctx: SourceCtx,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    std::thread::Builder::new()
        .name("bgp-serve-ingest".to_owned())
        .spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        ctx.metrics.ingest_connections.inc();
                        // Hand the blocking reads their own thread so one
                        // idle client cannot starve the others.
                        let conn_ctx = ctx.clone();
                        let spawned = std::thread::Builder::new()
                            .name("bgp-serve-conn".to_owned())
                            .spawn(move || handle_ingest_conn(stream, &conn_ctx));
                        admit(&ctx.metrics, &mut conns, spawned);
                    }
                    Err(e) if is_timeout(&e) => {
                        if ctx.shutdown.requested() {
                            break;
                        }
                        std::thread::sleep(POLL_SLEEP);
                    }
                    Err(_) => std::thread::sleep(POLL_SLEEP),
                }
                conns.retain(|h| !h.is_finished());
            }
            for h in conns {
                let _ = h.join();
            }
        })
}

/// Tail a log file, feeding appended lines into the queue until shutdown.
///
/// The file may not exist yet — the tailer waits for it. Reads always start
/// at the beginning (the daemon wants the whole log, not just the suffix);
/// on shutdown the tailer performs one final read to EOF so records already
/// flushed to disk are not lost. Truncation/rotation is not followed — the
/// tailer is for replaying and following a growing log, not log rotation.
pub(crate) fn spawn_tailer(
    path: PathBuf,
    poll: Duration,
    ctx: SourceCtx,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("bgp-serve-tail".to_owned())
        .spawn(move || {
            let mut file = loop {
                match std::fs::File::open(&path) {
                    Ok(f) => break f,
                    Err(_) => {
                        if ctx.shutdown.requested() {
                            return;
                        }
                        std::thread::sleep(poll);
                    }
                }
            };
            let mut framer = LineFramer::new(ctx.max_line_bytes);
            let mut buf = [0u8; 16 * 1024];
            let mut finishing = false;
            loop {
                match file.read(&mut buf) {
                    Ok(0) => {
                        if finishing {
                            ctx.consume_eof(&mut framer);
                            return;
                        }
                        if ctx.shutdown.requested() {
                            // One more pass in case of a racing append.
                            finishing = true;
                            continue;
                        }
                        std::thread::sleep(poll);
                    }
                    Ok(n) => {
                        if let Some(chunk) = buf.get(..n) {
                            if !ctx.consume_chunk(&mut framer, chunk) {
                                return;
                            }
                        }
                    }
                    Err(e) if is_timeout(&e) => std::thread::sleep(poll),
                    Err(_) => {
                        ctx.consume_eof(&mut framer);
                        return;
                    }
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::ring::EventRing;
    use coanalysis::stream::OnlineAnalyzer;
    use std::io::Write;

    /// A source context, and its worker's thread.
    fn ctx() -> (SourceCtx, JoinHandle<()>) {
        let registry = Registry::new();
        let metrics = Arc::new(ServeMetrics::register(&registry));
        let ring = Arc::new(EventRing::new(16));
        let (worker, thread) =
            Worker::start(OnlineAnalyzer::new(), None, 64, &metrics, &ring).expect("worker starts");
        let ctx = SourceCtx {
            worker: Arc::new(worker),
            metrics,
            shutdown: Arc::new(Shutdown::new()),
            max_line_bytes: 1024,
            read_timeout: Duration::from_millis(50),
            decoder: Arc::new(LineDecoder::Bgp),
            recorder: None,
        };
        (ctx, thread)
    }

    #[test]
    fn a_connection_without_a_thread_is_counted_as_dropped() {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let mut conns = Vec::new();
        let out_of_threads = std::io::Error::other("no thread for the connection");
        admit(&metrics, &mut conns, Err(out_of_threads));
        assert!(conns.is_empty());
        assert_eq!(metrics.ingest_connections_dropped.get(), 1);
        assert_eq!(registry.value("ingest_connections_dropped_total"), Some(1));
    }

    #[test]
    fn tcp_ingest_parses_counts_and_drains() {
        let (ctx, worker_thread) = ctx();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let handle = spawn_ingest_listener(listener, ctx.clone()).expect("spawn listener");

        let code = raslog::Catalog::standard()
            .lookup("_bgp_err_kernel_panic")
            .expect("known code");
        let mut client = TcpStream::connect(addr).expect("connect");
        for i in 0..50u64 {
            let rec = raslog::RasRecord::new(
                i,
                bgp_model::Timestamp::from_unix(i as i64 * 3_600),
                "R00-M0-N00-J00".parse().expect("location"),
                code,
            );
            writeln!(client, "{}", raslog::format_record(&rec)).expect("send");
        }
        writeln!(client, "# a comment").expect("send comment");
        writeln!(client, "garbage line").expect("send garbage");
        // Unterminated trailing record must be flushed by EOF handling.
        let rec = raslog::RasRecord::new(
            99,
            bgp_model::Timestamp::from_unix(1_000_000),
            "R01-M0-N00-J00".parse().expect("location"),
            code,
        );
        write!(client, "{}", raslog::format_record(&rec)).expect("send trailing");
        drop(client);

        // EOF path: connection handler exits on its own; then shut down.
        while ctx.metrics.records_in.get() < 51 {
            std::thread::sleep(Duration::from_millis(5));
        }
        ctx.shutdown.request();
        handle.join().expect("listener joins");
        ctx.worker.close();
        worker_thread.join().expect("worker joins");
        assert_eq!(ctx.worker.counters().records_in, 51);
        assert_eq!(ctx.metrics.rejected_malformed.get(), 1);
        assert_eq!(ctx.metrics.ingest_connections.get(), 1);
        assert_eq!(ctx.metrics.ingest_connections_dropped.get(), 0);
    }

    #[test]
    fn tailer_follows_appends_and_finishes_on_shutdown() {
        let (ctx, worker_thread) = ctx();
        let dir = std::env::temp_dir().join(format!("bgp-serve-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("tail.log");
        let _ = std::fs::remove_file(&path);
        let handle = spawn_tailer(path.clone(), Duration::from_millis(5), ctx.clone())
            .expect("spawn tailer");
        // File appears only after the tailer started.
        std::thread::sleep(Duration::from_millis(20));
        let code = raslog::Catalog::standard()
            .lookup("BULK_POWER_FATAL")
            .expect("known code");
        let mut f = std::fs::File::create(&path).expect("create log");
        for i in 0..10u64 {
            let rec = raslog::RasRecord::new(
                i,
                bgp_model::Timestamp::from_unix(i as i64 * 7_200),
                "R02-M1-N00-J00".parse().expect("location"),
                code,
            );
            writeln!(f, "{}", raslog::format_record(&rec)).expect("append");
        }
        f.flush().expect("flush");
        while ctx.metrics.records_in.get() < 10 {
            std::thread::sleep(Duration::from_millis(5));
        }
        ctx.shutdown.request();
        handle.join().expect("tailer joins");
        ctx.worker.close();
        worker_thread.join().expect("worker joins");
        assert_eq!(ctx.worker.counters().records_in, 10);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
