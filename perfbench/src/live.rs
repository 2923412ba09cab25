//! `live-fold`: an open-loop replay into the live daemon's incremental
//! analysis, and the same tick batches folded outside the daemon.
//!
//! One generator thread on one TCP connection sends tick `k`'s records at
//! its due time, `t0 + (k + 1) · TICK_MS` — when its slice of simulated time
//! has fully elapsed — whether or not the daemon has kept up. The main
//! thread polls the published snapshot with sleeps in between, so the
//! benchmark never holds more than two threads, and stamps each tick when
//! the snapshot's folded record count first covers it. Lag runs from the
//! due time, so a stall shows in every tick queued behind it.

use crate::site::{Site, TICK_MS};
use crate::stats::secs;
use crate::trace::{self_ms, StageSpans, Tracer};
use bgp_ports::{LineDecoder, LineOutcome};
use bgp_serve::{LineFramer, ServeConfig, Server};
use coanalysis::{AppendBatch, CoAnalysisConfig, DeltaSession, EventStore};
use raslog::RasLog;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sleep between snapshot polls.
const POLL: Duration = Duration::from_millis(1);

/// How long after the last due time the fold may take to catch up before
/// the uncovered ticks count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Lead time between starting the daemon's clock and the first tick.
const LEAD: Duration = Duration::from_millis(50);

/// What one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per non-empty tick, due time → covered, milliseconds.
    pub lag_ms: Vec<f64>,
    /// Per non-empty tick, last byte written → covered, seconds.
    pub publish_s: Vec<f64>,
    /// How late the generator started its worst tick, milliseconds.
    pub late_ms_max: f64,
    /// Most records sent but not yet folded at any poll.
    pub backlog_max: u64,
    /// Fold batches the daemon published.
    pub batches: u64,
    /// Records the daemon folded.
    pub folded: u64,
    /// Sends that blocked on a full daemon queue.
    pub stalls: u64,
    /// Lines the daemon rejected (malformed or oversized).
    pub rejected: u64,
    /// Ticks replayed.
    pub attempted: u64,
    /// Ticks never covered within [`DRAIN_LIMIT`].
    pub uncovered: u64,
    /// Whether the final `/analysis` report differs from the one-shot
    /// reference over the same ticks.
    pub final_stale: bool,
    /// Why the run itself broke: records not conserved (sent ≠ folded +
    /// rejected) or `/analysis` not served.
    pub error: Option<String>,
}

impl Replay {
    /// Failed ticks: every tick when the run broke (or, if `strict`, when
    /// the final report is stale), else the uncovered ones.
    pub fn failed(&self, strict: bool) -> u64 {
        if self.error.is_some() || (strict && self.final_stale) {
            self.attempted
        } else {
            self.uncovered
        }
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("http: {e}"))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("http send: {e}"))?;
    let mut response = String::new();
    s.read_to_string(&mut response)
        .map_err(|e| format!("http read: {e}"))?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .ok_or_else(|| "http: no body".to_owned())
}

/// Replay the first `ticks` ticks of the window into a fresh in-process
/// daemon (`--full-analysis` with the site's job log, ports 0) and compare
/// its final `/analysis` report with `reference`.
pub fn replay(site: &Site, ticks: usize, reference: &str) -> Result<Replay, String> {
    let window = &site.window;
    let ticks = ticks.min(window.ticks.len());
    let cfg = ServeConfig {
        ingest_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        full_analysis: true,
        jobs: Some(site.jobs_path.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(&cfg).map_err(|e| format!("daemon: {e}"))?;
    let full = std::sync::Arc::clone(
        server
            .full_analysis()
            .ok_or("daemon started without full analysis")?,
    );
    let mut stream =
        TcpStream::connect(server.ingest_addr()).map_err(|e| format!("ingest connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let cum: Vec<u64> = window
        .ticks
        .iter()
        .take(ticks)
        .scan(0u64, |acc, r| {
            *acc += r.len() as u64;
            Some(*acc)
        })
        .collect();
    let sent = AtomicU64::new(0);
    let t0 = Instant::now() + LEAD;
    let due: Vec<Instant> = (1..=ticks as u32)
        .map(|k| t0 + Duration::from_millis(TICK_MS) * k)
        .collect();
    let mut out = Replay {
        attempted: ticks as u64,
        ..Replay::default()
    };
    let mut covered_at: Vec<Option<Instant>> = vec![None; ticks];
    let generated = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut late_max = 0.0f64;
            let mut sent_at = Vec::with_capacity(ticks);
            for (k, text) in window.text.iter().take(ticks).enumerate() {
                let now = Instant::now();
                if now < due[k] {
                    std::thread::sleep(due[k] - now);
                }
                late_max = late_max.max(
                    Instant::now()
                        .saturating_duration_since(due[k])
                        .as_secs_f64()
                        * 1e3,
                );
                if let Err(e) = stream.write_all(text) {
                    return Err(format!("ingest send: {e}"));
                }
                sent_at.push(Instant::now());
                sent.store(cum[k], Ordering::SeqCst);
            }
            drop(stream);
            Ok((late_max, sent_at))
        });
        let mut next = 0;
        let limit = due.last().copied().unwrap_or(t0) + DRAIN_LIMIT;
        while next < ticks {
            std::thread::sleep(POLL);
            let folded = full.snapshot().records;
            let now = Instant::now();
            out.backlog_max = out
                .backlog_max
                .max(sent.load(Ordering::SeqCst).saturating_sub(folded));
            while next < ticks && now >= due[next] && folded >= cum[next] {
                covered_at[next] = Some(now);
                next += 1;
            }
            if now > limit {
                break;
            }
        }
        generator
            .join()
            .unwrap_or_else(|_| Err("generator panicked".to_owned()))
    });
    let (late_ms_max, sent_at) = match generated {
        Ok(g) => g,
        Err(e) => {
            server.shutdown();
            drop(server.wait());
            return Err(e);
        }
    };
    out.late_ms_max = late_ms_max;
    for k in 0..ticks {
        match covered_at[k] {
            Some(at) if !window.ticks[k].is_empty() => {
                out.lag_ms
                    .push(at.saturating_duration_since(due[k]).as_secs_f64() * 1e3);
                out.publish_s
                    .push(at.saturating_duration_since(sent_at[k]).as_secs_f64());
            }
            Some(_) => {}
            None => out.uncovered += 1,
        }
    }
    let body = http_get(server.http_addr(), "/analysis");
    let snap = full.snapshot();
    let registry = server.registry();
    let value = |name: &str| {
        registry
            .value(name)
            .and_then(|v| u64::try_from(v).ok())
            .unwrap_or(0)
    };
    out.batches = snap.batches;
    out.folded = snap.records;
    out.stalls = value("ingest_backpressure_stalls_total");
    out.rejected =
        value("ingest_rejected_malformed_total") + value("ingest_rejected_oversized_total");
    server.shutdown();
    drop(server.wait());
    let sent_total = cum.last().copied().unwrap_or(0);
    match body {
        Err(e) => out.error = Some(e),
        Ok(body) => out.final_stale = body.splitn(3, '\n').nth(2) != Some(reference),
    }
    if sent_total != out.folded + out.rejected {
        out.error = Some(format!(
            "records not conserved: sent {sent_total}, folded {}, rejected {}",
            out.folded, out.rejected
        ));
    }
    Ok(out)
}

/// The fold layers, measured by folding the same tick batches outside the
/// daemon.
#[derive(Debug, Default)]
pub struct Folds {
    /// Framing milliseconds per MB of text.
    pub frame_ms_per_mb: f64,
    /// Decoding milliseconds per MB of text.
    pub decode_ms_per_mb: f64,
    /// `DeltaSession::append` per tick, milliseconds.
    pub fold_ms: Vec<f64>,
    /// `EventStore::append_ras` on the same batches, milliseconds.
    pub append_ras_ms: Vec<f64>,
    /// Per fold, the union of its stage spans (the wave), milliseconds.
    pub wave_ms: Vec<f64>,
    /// Stages re-run, summed over folds.
    pub reran: usize,
    /// Stages whose output changed, summed over folds.
    pub changed: usize,
    /// Folds run.
    pub folds: usize,
    /// Folds whose report differs from a one-shot run over the same ticks.
    pub stale_folds: usize,
}

/// Fold the first `ticks` ticks through `LineFramer` → `LineDecoder` →
/// `DeltaSession::append` → `render_report`, one `root` span per tick, and
/// check every fold's report against a one-shot run over the same ticks.
pub fn fold_ticks(site: &Site, ticks: usize, tracer: &Tracer) -> Result<Folds, String> {
    let window = &site.window;
    let ticks = ticks.min(window.ticks.len());
    let (mut session, _) = DeltaSession::new(
        CoAnalysisConfig::default(),
        &RasLog::default(),
        site.jobs.clone(),
    );
    let mut side = EventStore::default();
    let decoder = LineDecoder::Bgp;
    let mut framer = LineFramer::new(ServeConfig::default().max_line_bytes);
    let mut out = Folds::default();
    let (mut frame_ms, mut decode_ms) = (0.0, 0.0);
    for (k, chunk) in window.text.iter().take(ticks).enumerate() {
        let root = tracer.open("root", None, k);
        let frame = tracer.open("ingest.frame", Some(root), k);
        let base = chunk.as_ptr() as usize;
        let mut lines: Vec<(usize, usize)> = Vec::new();
        framer.feed(chunk, &mut |line: &[u8]| {
            lines.push(((line.as_ptr() as usize).wrapping_sub(base), line.len()))
        });
        tracer.close(frame);
        let decode = tracer.open("ingest.decode", Some(root), k);
        let mut records = Vec::with_capacity(lines.len());
        for &(at, len) in &lines {
            let line = chunk
                .get(at..at + len)
                .ok_or("framed line outside its tick")?;
            if let LineOutcome::Record(r) = decoder.decode_line(line) {
                records.push(*r);
            }
        }
        tracer.close(decode);
        let batch = records.clone();
        let fold = tracer.open("delta.fold", Some(root), k);
        let (result, delta) = session.append_with_observer(
            AppendBatch {
                ras: records,
                jobs: Vec::new(),
            },
            Some(&StageSpans::new(tracer, fold, k)),
        );
        tracer.close(fold);
        let report = tracer.span("render.report", Some(root), k, || {
            bgp_serve::render_report(&result)
        });
        tracer.close(root);
        out.stale_folds += usize::from(report != window.reference(k + 1, &site.jobs));
        out.reran += delta.reran.len();
        out.changed += delta.changed.len();
        out.folds += 1;
        let t = Instant::now();
        std::hint::black_box(side.append_ras(batch));
        out.append_ras_ms.push(secs(t) * 1e3);
    }
    let spans = tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        match s.name.as_str() {
            "ingest.frame" => frame_ms += s.ms(),
            "ingest.decode" => decode_ms += s.ms(),
            "delta.fold" => {
                out.fold_ms.push(s.ms());
                out.wave_ms.push(s.ms() - self_ms(&spans, i));
            }
            _ => {}
        }
    }
    let mb = window.bytes(ticks) as f64 / 1e6;
    if mb > 0.0 {
        out.frame_ms_per_mb = frame_ms / mb;
        out.decode_ms_per_mb = decode_ms / mb;
    }
    Ok(out)
}
