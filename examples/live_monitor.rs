//! Live monitoring: replay a RAS stream through the *daemon*, as a
//! control-room deployment would, after learning per-code impact verdicts
//! from a historical window.
//!
//! Phase 1 (offline): co-analyze the first half of the logs to learn which
//! FATAL codes really interrupt jobs.
//! Phase 2 (online): start a `bgp-serve` daemon on loopback with those
//! verdicts loaded, stream the second half over the line-delimited TCP
//! ingest protocol, scrape `/metrics` and `/events` over HTTP like a
//! monitoring stack would, then shut the daemon down gracefully and check
//! its final tallies against a single reference analyzer.
//!
//! ```text
//! cargo run --release --example live_monitor
//! ```

use bgp_coanalysis::bgp_serve::{ServeConfig, Server};
use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::stream::OnlineAnalyzer;
use bgp_coanalysis::coanalysis::{AnalysisSet, CoAnalysis, StageId};
use bgp_coanalysis::raslog::{format_record, RasRecord};
use std::io::{Read, Write};
use std::net::TcpStream;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = SimConfig::small_test(31);
    config.days = 40;
    config.num_execs = 1_600;
    println!("simulating {} days...", config.days);
    let out = Simulation::new(config)?.run();

    // --- split the window in half ---
    let (start, end) = out
        .ras
        .time_span()
        .ok_or("simulation produced an empty RAS log")?;
    let mid = start + half_span(start, end);
    let history = bgp_coanalysis::raslog::RasLog::from_records(
        out.ras
            .records()
            .iter()
            .filter(|r| r.event_time < mid)
            .copied()
            .collect(),
    );
    let history_jobs = out.jobs.filtered(|j| j.end_time < mid);
    let live: Vec<RasRecord> = out
        .ras
        .records()
        .iter()
        .filter(|r| r.event_time >= mid)
        .copied()
        .collect();

    // --- phase 1: learn impact verdicts offline ---
    println!(
        "phase 1: learning impact verdicts from {} historical records / {} jobs",
        history.len(),
        history_jobs.len()
    );
    // Only the impact classifier is needed — the stage graph skips the
    // characterization passes entirely.
    let trained = CoAnalysis::default().run_selected(
        &history,
        &history_jobs,
        AnalysisSet::of(&[StageId::Impact]),
    );
    let impact = trained.impact.unwrap_or_default();
    let nonfatal = impact.count(bgp_coanalysis::coanalysis::classify::CodeImpact::NonFatal);
    println!(
        "  learned verdicts for {} codes ({} non-fatal in practice)\n",
        impact.per_code.len(),
        nonfatal
    );

    // --- phase 2: daemon on loopback, verdicts loaded ---
    let cfg = ServeConfig {
        ingest_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        impact: Some(impact.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(&cfg)?;
    println!(
        "phase 2: daemon up — ingest {}, http {}",
        server.ingest_addr(),
        server.http_addr()
    );

    // Stream the live half over TCP, exactly as `cat log | nc` would.
    let mut ingest = TcpStream::connect(server.ingest_addr())?;
    for r in &live {
        writeln!(ingest, "{}", format_record(r))?;
    }
    drop(ingest); // EOF: the daemon flushes and the connection drains

    // Wait until every sent record is analyzed, then scrape like Prometheus.
    let http_addr = server.http_addr();
    #[expect(
        clippy::disallowed_methods,
        reason = "a drain timeout bounds real waiting"
    )]
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    #[expect(
        clippy::disallowed_methods,
        reason = "a drain timeout bounds real waiting"
    )]
    while (server.counters().records_in as usize) < live.len() {
        if std::time::Instant::now() > deadline {
            return Err("daemon did not drain the live stream in time".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let metrics = http_get(http_addr, "/metrics")?;
    let events = http_get(http_addr, "/events")?;
    let summary = http_get(http_addr, "/summary")?;
    println!("  GET /summary -> {summary}");
    println!(
        "  GET /events  -> {} recent independent events",
        events.matches("\"recid\"").count()
    );
    for line in metrics.lines().filter(|l| {
        !l.starts_with('#')
            && (l.starts_with("ingest_records_total")
                || l.starts_with("events_out_total")
                || l.starts_with("warnings_total"))
    }) {
        println!("  GET /metrics -> {line}");
    }

    // Graceful shutdown over HTTP; wait() drains and reports.
    let _ = http_get(http_addr, "/shutdown")?;
    let summary = server.wait();
    println!("\n{summary}\n");

    // --- cross-check against a reference analyzer ---
    let mut naive = OnlineAnalyzer::new();
    let mut informed = OnlineAnalyzer::new().with_impact(impact);
    for r in &live {
        naive.push(r);
        informed.push(r);
    }
    let c = summary.counters;
    assert_eq!(c.records_in, informed.counters().records_in);
    assert_eq!(c.events_out, informed.counters().events_out);
    assert_eq!(c.warnings, informed.counters().warnings);
    println!("  daemon matches the reference analyzer exactly");
    println!(
        "  -> the learned verdicts silence {} warning(s) on the live stream",
        naive.warnings() - informed.warnings()
    );
    Ok(())
}

/// Minimal HTTP client: request, read to EOF, split off the head.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or(&response);
    Ok(body.to_owned())
}

/// Half the span between two timestamps.
fn half_span(
    start: bgp_coanalysis::bgp_model::Timestamp,
    end: bgp_coanalysis::bgp_model::Timestamp,
) -> bgp_coanalysis::bgp_model::Duration {
    bgp_coanalysis::bgp_model::Duration::seconds((end - start).as_secs() / 2)
}
