//! Daemon assembly and lifecycle: bind, spawn, drain, report.
//!
//! Shutdown is two-phase so results stay observable while the pipeline
//! drains: phase one (the `/shutdown` endpoint or [`Server::shutdown`])
//! stops the ingest sources; once they have joined, the ingest queue closes
//! and the analysis worker drains, folds and publishes every queued record.
//! The HTTP front-end keeps answering during the drain so a client can
//! watch `/summary` converge. Phase two, entered by [`Server::wait`] once
//! the worker has drained, stops the front-end and yields the final
//! [`FinalSummary`].

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::full::{Fold, FullAnalysis};
use crate::http::{spawn_http_listener, HttpState};
use crate::metrics::{Registry, ServeMetrics};
use crate::recorder::ChunkRecorder;
use crate::ring::EventRing;
use crate::source::{spawn_ingest_listener, spawn_tailer, SourceCtx};
use crate::worker::Worker;
use bgp_ports::LineDecoder;
use coanalysis::stream::{OnlineAnalyzer, StreamCounters};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Two-phase shutdown latch shared by every component.
#[derive(Debug, Default)]
pub struct Shutdown {
    /// Phase one: stop ingesting, start draining.
    drain: AtomicBool,
    /// Phase two: everything drained, stop serving.
    stop: AtomicBool,
}

impl Shutdown {
    /// A latch with neither phase requested.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Request phase one (idempotent).
    pub fn request(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Has phase one been requested?
    pub fn requested(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Request phase two (idempotent). Implies phase one.
    pub fn request_final(&self) {
        self.drain.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Has phase two been requested?
    pub fn requested_final(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// What the daemon counted over its lifetime, reported after the drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalSummary {
    /// The analysis worker's stream counters.
    pub counters: StreamCounters,
    /// Unparsable ingest lines rejected.
    pub rejected_malformed: u64,
    /// Over-limit ingest lines rejected.
    pub rejected_oversized: u64,
    /// Sends that blocked on a full ingest queue.
    pub backpressure_stalls: u64,
    /// Ingest connections accepted.
    pub ingest_connections: u64,
    /// HTTP requests served.
    pub http_requests: u64,
    /// HTTP clients disconnected for being too slow.
    pub slow_disconnects: u64,
    /// What `--record` did, when active ("wrote N frames to PATH" or the
    /// write failure — recording is best-effort and never fails the drain).
    pub recording: Option<String>,
    /// What `--full-analysis` folded, when active.
    pub analysis: Option<String>,
}

impl std::fmt::Display for FinalSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        writeln!(
            f,
            "final: {} records in ({} fatal) -> {} events ({} warnings)",
            c.records_in, c.fatal_in, c.events_out, c.warnings
        )?;
        writeln!(
            f,
            "final: merged {} temporal + {} spatial (compression {:.2}%)",
            c.merged_temporal,
            c.merged_spatial,
            100.0 * c.compression()
        )?;
        write!(
            f,
            "final: rejected {} malformed / {} oversized; {} stalls; \
             {} ingest conns; {} http requests ({} slow)",
            self.rejected_malformed,
            self.rejected_oversized,
            self.backpressure_stalls,
            self.ingest_connections,
            self.http_requests,
            self.slow_disconnects
        )?;
        if let Some(rec) = &self.recording {
            write!(f, "\nfinal: recording {rec}")?;
        }
        if let Some(a) = &self.analysis {
            write!(f, "\nfinal: analysis {a}")?;
        }
        Ok(())
    }
}

/// A running daemon: sockets bound, workers up.
#[derive(Debug)]
pub struct Server {
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    worker: Arc<Worker>,
    /// The analysis worker's thread, joined once the worker is closed.
    worker_thread: JoinHandle<()>,
    metrics: Arc<ServeMetrics>,
    registry: Arc<Registry>,
    ring: Arc<EventRing>,
    threads: Vec<JoinHandle<()>>,
    record: Option<(PathBuf, Arc<ChunkRecorder>)>,
    full: Option<Arc<FullAnalysis>>,
}

impl Server {
    /// Bind both listeners, start the analysis worker and all source threads.
    pub fn start(cfg: &ServeConfig) -> Result<Server, ServeError> {
        let ingest_listener =
            TcpListener::bind(&cfg.ingest_addr).map_err(|e| ServeError::Bind {
                what: "ingest",
                addr: cfg.ingest_addr.clone(),
                source: e,
            })?;
        let http_listener = TcpListener::bind(&cfg.http_addr).map_err(|e| ServeError::Bind {
            what: "http",
            addr: cfg.http_addr.clone(),
            source: e,
        })?;
        let ingest_addr = ingest_listener.local_addr().map_err(ServeError::Io)?;
        let http_addr = http_listener.local_addr().map_err(ServeError::Io)?;

        let registry = Arc::new(Registry::new());
        let metrics = Arc::new(ServeMetrics::register(&registry));
        let ring = Arc::new(EventRing::new(cfg.ring_capacity));
        let shutdown = Arc::new(Shutdown::new());

        let decoder = LineDecoder::for_format(cfg.format).ok_or_else(|| {
            ServeError::Config(format!(
                "format {} is not line-streamable (use --replay for cassettes)",
                cfg.format
            ))
        })?;
        let record = match &cfg.record {
            Some(path) => {
                let rec = ChunkRecorder::new(cfg.format)
                    .map_err(|e| ServeError::Config(format!("--record: {e}")))?;
                Some((path.clone(), Arc::new(rec)))
            }
            None => None,
        };
        // Load the replay cassette before any thread starts: a corrupt or
        // mismatched cassette is a startup error, not a silent empty run.
        let replay = cfg
            .replay
            .as_deref()
            .map(crate::replay::load_cassette)
            .transpose()?;
        // Likewise the job log: a bad --jobs file is a startup error.
        // The fold and the online analyzer dedup with the same windows, so
        // `/analysis` and `/summary` agree on what one event is.
        let fold = match (&cfg.full_analysis, &cfg.jobs) {
            (true, Some(jobs)) => Some(Fold::start(cfg.analysis, jobs)?),
            _ => None,
        };
        let full = fold.as_ref().map(|f| Arc::clone(f.published()));
        let mut analyzer = OnlineAnalyzer::with_thresholds(
            cfg.analysis.temporal.threshold,
            cfg.analysis.spatial.threshold,
        );
        if let Some(impact) = &cfg.impact {
            analyzer = analyzer.with_impact(impact.clone());
        }
        let (worker, worker_thread) =
            Worker::start(analyzer, fold, cfg.queue_capacity, &metrics, &ring)?;
        let worker = Arc::new(worker);

        let source_ctx = SourceCtx {
            worker: Arc::clone(&worker),
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            max_line_bytes: cfg.max_line_bytes,
            read_timeout: cfg.read_timeout,
            decoder: Arc::new(decoder),
            recorder: record.as_ref().map(|(_, r)| Arc::clone(r)),
        };
        let mut threads = Vec::new();
        threads.push(
            spawn_ingest_listener(ingest_listener, source_ctx.clone())
                .map_err(ServeError::Spawn)?,
        );
        if let Some(path) = &cfg.tail {
            threads.push(
                spawn_tailer(path.clone(), cfg.tail_poll, source_ctx.clone())
                    .map_err(ServeError::Spawn)?,
            );
        }
        if let Some(cassette) = replay {
            threads.push(
                crate::replay::spawn_replayer(cassette, &source_ctx).map_err(ServeError::Spawn)?,
            );
        }
        threads.push(
            spawn_http_listener(
                http_listener,
                HttpState {
                    registry: Arc::clone(&registry),
                    ring: Arc::clone(&ring),
                    worker: Arc::clone(&worker),
                    metrics: Arc::clone(&metrics),
                    shutdown: Arc::clone(&shutdown),
                    full: full.as_ref().map(Arc::clone),
                    read_timeout: cfg.read_timeout,
                    write_timeout: cfg.write_timeout,
                },
            )
            .map_err(ServeError::Spawn)?,
        );

        Ok(Server {
            ingest_addr,
            http_addr,
            shutdown,
            worker,
            worker_thread,
            metrics,
            registry,
            ring,
            threads,
            record,
            full,
        })
    }

    /// Actual ingest address (useful with port 0).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Actual HTTP address (useful with port 0).
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// The daemon's metrics registry (shared with the HTTP front-end).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The recent-events ring.
    pub fn ring(&self) -> &Arc<EventRing> {
        &self.ring
    }

    /// Live stream counters as of the last published batch (also served at
    /// `/summary`).
    pub fn counters(&self) -> StreamCounters {
        self.worker.counters()
    }

    /// The latest full report, when `--full-analysis` is active.
    pub fn full_analysis(&self) -> Option<&Arc<FullAnalysis>> {
        self.full.as_ref()
    }

    /// Request a graceful shutdown (same as `GET /shutdown`).
    pub fn shutdown(&self) {
        self.shutdown.request();
    }

    /// Block until shutdown is requested, drain everything, and return the
    /// final tallies. Every record accepted before the ingest sources closed
    /// is analyzed before this returns.
    pub fn wait(self) -> FinalSummary {
        while !self.shutdown.requested() {
            std::thread::sleep(crate::source::POLL_SLEEP);
        }
        // The ingest listener and tailer observe phase one and join once
        // their connections drain; the worker then drains, folds and
        // publishes the queue; only after that does phase two stop the HTTP
        // thread.
        let mut http_threads = Vec::new();
        for t in self.threads {
            if t.thread().name() == Some("bgp-serve-http") {
                http_threads.push(t);
                continue;
            }
            let _ = t.join();
        }
        self.worker.close();
        if let Err(payload) = self.worker_thread.join() {
            // The loop has no panic paths; re-raise rather than swallow.
            std::panic::resume_unwind(payload);
        }
        self.shutdown.request_final();
        for t in http_threads {
            let _ = t.join();
        }
        // Every source thread has joined: the recording is complete.
        let recording = self
            .record
            .as_ref()
            .map(|(path, rec)| match rec.write_to(path) {
                Ok(frames) => format!("wrote {frames} frames to {}", path.display()),
                Err(e) => format!("FAILED writing {}: {e}", path.display()),
            });
        let analysis = self.full.as_ref().map(|full| {
            let snap = full.snapshot();
            format!(
                "folded {} batches ({} records) through the incremental stage graph",
                snap.batches, snap.records
            )
        });
        FinalSummary {
            counters: self.worker.counters(),
            rejected_malformed: self.metrics.rejected_malformed.get(),
            rejected_oversized: self.metrics.rejected_oversized.get(),
            backpressure_stalls: self.metrics.backpressure_stalls.get(),
            ingest_connections: self.metrics.ingest_connections.get(),
            http_requests: self.metrics.http_requests.get(),
            slow_disconnects: self.metrics.slow_disconnects.get(),
            recording,
            analysis,
        }
    }
}

/// Run a daemon to completion: bind, announce, wait for `/shutdown`, drain,
/// and print the final summary. This is the whole of `coserved` and
/// `coctl serve`.
pub fn run(cfg: &ServeConfig, out: &mut impl std::io::Write) -> Result<FinalSummary, ServeError> {
    let server = Server::start(cfg)?;
    writeln!(out, "bgp-serve: ingest on {}", server.ingest_addr()).map_err(ServeError::Io)?;
    writeln!(out, "bgp-serve: http   on {}", server.http_addr()).map_err(ServeError::Io)?;
    writeln!(
        out,
        "bgp-serve: GET /healthz /metrics /events /summary{} /shutdown",
        if cfg.full_analysis { " /analysis" } else { "" }
    )
    .map_err(ServeError::Io)?;
    out.flush().map_err(ServeError::Io)?;
    let summary = server.wait();
    writeln!(out, "{summary}").map_err(ServeError::Io)?;
    out.flush().map_err(ServeError::Io)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_latch_is_two_phase() {
        let s = Shutdown::new();
        assert!(!s.requested() && !s.requested_final());
        s.request();
        assert!(s.requested() && !s.requested_final());
        s.request_final();
        assert!(s.requested() && s.requested_final());
        // request_final alone implies phase one.
        let s2 = Shutdown::new();
        s2.request_final();
        assert!(s2.requested());
    }

    #[test]
    fn final_summary_displays_every_counter() {
        let summary = FinalSummary {
            counters: StreamCounters {
                records_in: 10,
                fatal_in: 8,
                merged_temporal: 3,
                merged_spatial: 2,
                events_out: 3,
                warnings: 1,
            },
            rejected_malformed: 5,
            rejected_oversized: 6,
            backpressure_stalls: 7,
            ingest_connections: 2,
            http_requests: 9,
            slow_disconnects: 1,
            recording: None,
            analysis: None,
        };
        let text = summary.to_string();
        assert!(text.contains("10 records in (8 fatal) -> 3 events"));
        assert!(text.contains("3 temporal + 2 spatial (compression 62.50%)"));
        assert!(text.contains("5 malformed / 6 oversized; 7 stalls"));
        assert!(!text.contains("recording"));
        let recorded = FinalSummary {
            recording: Some("wrote 3 frames to out.bgpcas".to_owned()),
            ..summary
        };
        assert!(recorded
            .to_string()
            .contains("final: recording wrote 3 frames to out.bgpcas"));
    }
}
