//! Integration tests of the `bgp-serve` daemon: real sockets on loopback,
//! real HTTP scrapes, and the daemon-vs-reference-analyzer equivalence that
//! makes the daemon's numbers trustworthy.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_serve::{ServeConfig, Server};
use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::stream::OnlineAnalyzer;
use bgp_coanalysis::raslog::{format_record, Catalog, RasRecord};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A loopback config with ephemeral ports.
fn loopback_cfg() -> ServeConfig {
    ServeConfig {
        ingest_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    }
}

/// Blocking HTTP GET; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_owned();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Send raw bytes on the HTTP port and return the status line.
fn http_raw(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream.write_all(payload).expect("send payload");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response.lines().next().unwrap_or_default().to_owned()
}

/// Pull `name` out of a Prometheus text body.
fn metric(body: &str, name: &str) -> Option<i64> {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()).copied() == Some(b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
}

/// Poll `/summary` until `records_in` reaches `want` (drain barrier).
#[expect(
    clippy::disallowed_methods,
    reason = "a test timeout bounds real waiting"
)]
fn wait_records_in(server: &Server, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.counters().records_in < want {
        assert!(
            Instant::now() < deadline,
            "daemon stuck at {}/{want} records",
            server.counters().records_in
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A deterministic simulated record stream, time-ordered as a real log is.
fn simulated_records(seed: u64) -> Vec<RasRecord> {
    let mut cfg = SimConfig::small_test(seed);
    cfg.days = 30;
    cfg.num_execs = 1_200;
    Simulation::new(cfg)
        .expect("valid config")
        .run()
        .ras
        .records()
        .to_vec()
}

/// Replicate a base stream until it is at least `n` records long, shifting
/// RECIDs and timestamps so every copy stays ordered and distinct.
fn amplified_records(base: &[RasRecord], n: usize) -> Vec<RasRecord> {
    let last = base.last().expect("non-empty base");
    let first = base.first().expect("non-empty base");
    let span = (last.event_time - first.event_time).as_secs() + 3_600;
    let mut out = Vec::with_capacity(n);
    let mut rep = 0i64;
    while out.len() < n {
        for r in base {
            if out.len() >= n {
                break;
            }
            let shifted = RasRecord {
                recid: r.recid + (rep as u64) * 10_000_000,
                event_time: r.event_time + bgp_coanalysis::bgp_model::Duration::seconds(rep * span),
                ..*r
            };
            out.push(shifted);
        }
        rep += 1;
    }
    out
}

#[test]
fn smoke_100k_records_reconcile_exactly() {
    // The acceptance smoke test: >=100k simulated records over TCP; /metrics
    // totals must reconcile exactly with what was sent and with a reference
    // analyzer; graceful shutdown must drain without losing queued records.
    let records = amplified_records(&simulated_records(11), 100_000);
    assert!(records.len() >= 100_000);

    let server = Server::start(&loopback_cfg()).expect("daemon starts");
    let http = server.http_addr();
    let (status, body) = http_get(http, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // One big write buffer: the framer has to handle arbitrary chunking.
    let mut payload = String::with_capacity(records.len() * 96);
    for r in &records {
        payload.push_str(&format_record(r));
        payload.push('\n');
    }
    let mut ingest = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    ingest
        .write_all(payload.as_bytes())
        .expect("stream records");
    drop(ingest);

    wait_records_in(&server, records.len() as u64);

    // Reference: one analyzer, same ordered stream, the default thresholds
    // (the daemon's).
    let mut reference = OnlineAnalyzer::new();
    for r in &records {
        reference.push(r);
    }
    let want = reference.counters();

    let (_, metrics) = http_get(http, "/metrics");
    assert_eq!(
        metric(&metrics, "ingest_records_total"),
        Some(records.len() as i64),
        "every sent record must be counted"
    );
    assert_eq!(
        metric(&metrics, "events_out_total"),
        Some(want.events_out as i64),
        "daemon must surface exactly the reference event set"
    );
    assert_eq!(metric(&metrics, "ingest_rejected_malformed_total"), Some(0));
    assert_eq!(metric(&metrics, "ingest_rejected_oversized_total"), Some(0));

    let (_, summary) = http_get(http, "/summary");
    assert!(summary.contains(&format!("\"records_in\":{}", records.len())));
    assert!(summary.contains(&format!("\"events_out\":{}", want.events_out)));
    assert!(summary.contains("\"ingest_connections_dropped\":0"));

    let (_, events) = http_get(http, "/events");
    assert!(events.starts_with('[') && events.ends_with(']'));
    assert!(events.contains("\"recid\""), "ring must hold recent events");

    // Graceful shutdown over HTTP: drain, then the final summary must agree
    // with the reference analyzer on every stream counter.
    let (status, _) = http_get(http, "/shutdown");
    assert!(status.contains("200"));
    let summary = server.wait();
    assert_eq!(summary.counters.records_in, records.len() as u64);
    assert_eq!(summary.counters.fatal_in, want.fatal_in);
    assert_eq!(summary.counters.merged_temporal, want.merged_temporal);
    assert_eq!(summary.counters.merged_spatial, want.merged_spatial);
    assert_eq!(summary.counters.events_out, want.events_out);
    assert_eq!(summary.counters.warnings, want.warnings);
    assert!(summary.counters.is_consistent());
}

#[test]
fn malformed_and_oversized_lines_are_rejected_not_fatal() {
    // Tight enough that the 4 KiB junk line trips it, roomy enough for a
    // real record line (about 170 bytes with its message template).
    let mut cfg = loopback_cfg();
    cfg.max_line_bytes = 512;
    let server = Server::start(&cfg).expect("daemon starts");
    let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
    let good = |i: u64| {
        format_record(&RasRecord::new(
            i,
            bgp_coanalysis::bgp_model::Timestamp::from_unix(i as i64 * 3_600),
            "R00-M0-N00-J00".parse().unwrap(),
            code,
        ))
    };

    let mut ingest = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    writeln!(ingest, "{}", good(1)).unwrap();
    writeln!(ingest, "this is not a record").unwrap();
    writeln!(ingest, "{}", "x".repeat(4_096)).unwrap();
    writeln!(ingest, "# comment lines are fine").unwrap();
    writeln!(ingest, "{}", good(2)).unwrap();
    drop(ingest);

    wait_records_in(&server, 2);
    let (_, metrics) = http_get(server.http_addr(), "/metrics");
    assert_eq!(metric(&metrics, "ingest_records_total"), Some(2));
    assert_eq!(metric(&metrics, "ingest_rejected_malformed_total"), Some(1));
    assert_eq!(metric(&metrics, "ingest_rejected_oversized_total"), Some(1));

    server.shutdown();
    let summary = server.wait();
    assert_eq!(summary.counters.records_in, 2);
    assert_eq!(summary.rejected_malformed, 1);
    assert_eq!(summary.rejected_oversized, 1);
}

#[test]
fn backpressure_stalls_are_counted_and_lossless() {
    let mut cfg = loopback_cfg();
    cfg.queue_capacity = 2; // tiny queue: the sender must outrun the worker
    let server = Server::start(&cfg).expect("daemon starts");
    let code = Catalog::standard()
        .lookup("_bgp_err_ddr_controller")
        .unwrap();

    let mut ingest = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    let n = 2_000u64;
    for i in 0..n {
        let rec = RasRecord::new(
            i,
            bgp_coanalysis::bgp_model::Timestamp::from_unix(i as i64 * 7_000),
            "R00-M0-N00-J00".parse().unwrap(),
            code,
        );
        writeln!(ingest, "{}", format_record(&rec)).unwrap();
    }
    drop(ingest);

    wait_records_in(&server, n);
    server.shutdown();
    let summary = server.wait();
    // Lossless: every record arrived despite the 2-slot queue...
    assert_eq!(summary.counters.records_in, n);
    // ...and the stalls were visible to operators, not silent.
    assert!(
        summary.backpressure_stalls > 0,
        "a 2-slot queue fed 2000 records back-to-back must stall"
    );
}

#[test]
fn http_front_end_rejects_junk_and_unknown_routes() {
    let server = Server::start(&loopback_cfg()).expect("daemon starts");
    let http = server.http_addr();

    let (status, _) = http_get(http, "/no-such-route");
    assert!(status.contains("404"), "{status}");

    // Without --full-analysis the route exists but is a 404 with a hint.
    let (status, body) = http_get(http, "/analysis");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("--full-analysis"), "{body}");

    let status = http_raw(http, b"completely not http\r\n\r\n");
    assert!(status.contains("400"), "{status}");

    let status = http_raw(http, b"DELETE /metrics HTTP/1.1\r\n\r\n");
    assert!(status.contains("405"), "{status}");

    // An oversized request head is answered (400), not buffered forever.
    let mut big = Vec::from(&b"GET /"[..]);
    big.extend(std::iter::repeat_n(b'a', 16 * 1024));
    big.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let status = http_raw(http, &big);
    assert!(status.contains("400") || status.contains("404"), "{status}");

    // The daemon is still healthy afterwards.
    let (status, body) = http_get(http, "/healthz");
    assert!(status.contains("200"));
    assert_eq!(body, "ok\n");

    server.shutdown();
    let summary = server.wait();
    assert!(summary.http_requests >= 2);
}

#[test]
fn full_analysis_route_serves_the_incremental_report() {
    // Stream a simulated site into a --full-analysis daemon and check that
    // /analysis serves the report `coctl analyze` prints on the same logs —
    // the delta-equivalence gate, end to end over sockets, binary to binary.
    // The second run moves the dedup windows off their defaults: the fold
    // must filter with the daemon's own --temporal-secs/--spatial-secs, and
    // coctl with its own.
    let out = Simulation::new(SimConfig::small_test(21))
        .expect("valid config")
        .run();
    for (temporal, spatial) in [(300, 300), (60, 120)] {
        serve_full_analysis(&out, temporal, spatial);
    }
}

/// One `--full-analysis` daemon run over `out` with the given dedup windows
/// (seconds), checked against the `coctl analyze` binary run with the same
/// flags on the same files.
fn serve_full_analysis(out: &bgp_coanalysis::bgp_sim::SimOutput, temporal: i64, spatial: i64) {
    let dir = std::env::temp_dir().join(format!(
        "bgp-serve-analysis-{}-{temporal}-{spatial}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let (ras_path, jobs_path) = (dir.join("ras.log"), dir.join("jobs.log"));
    let (mut ras, mut jobs) = (Vec::new(), Vec::new());
    bgp_coanalysis::raslog::write_log(&mut ras, out.ras.records()).expect("write ras");
    bgp_coanalysis::joblog::write_log(&mut jobs, out.jobs.jobs()).expect("write jobs");
    std::fs::write(&ras_path, ras).expect("save ras");
    std::fs::write(&jobs_path, jobs).expect("save jobs");

    let flags = format!(
        "--full-analysis --jobs {} --temporal-secs {temporal} --spatial-secs {spatial}",
        jobs_path.display()
    );
    let flags: Vec<String> = flags.split(' ').map(str::to_owned).collect();
    let cfg = ServeConfig {
        ingest_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::from_args(&flags).expect("valid flags")
    };
    let server = Server::start(&cfg).expect("daemon starts");

    let mut ingest = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    for r in out.ras.records() {
        writeln!(ingest, "{}", format_record(r)).expect("send record");
    }
    drop(ingest);
    let want = out.ras.records().len() as u64;
    wait_records_in(&server, want);
    // The worker folds a batch before it publishes the batch's counters, so
    // the fold already covers every counted record.
    let full = server.full_analysis().expect("enabled").clone();
    assert_eq!(full.snapshot().records, want);

    let (status, body) = http_get(server.http_addr(), "/analysis");
    assert!(status.contains("200"), "{status}");
    assert!(body.starts_with("# full analysis:"), "{body}");
    let coctl = std::process::Command::new(env!("CARGO_BIN_EXE_coctl"))
        .arg("analyze")
        .args([&ras_path, &jobs_path])
        .arg("--fda")
        .args(&flags[3..])
        .output()
        .expect("coctl runs");
    assert!(
        coctl.status.success(),
        "{}",
        String::from_utf8_lossy(&coctl.stderr)
    );
    let report = body
        .splitn(3, '\n')
        .nth(2)
        .expect("two fold-state header lines");
    assert_eq!(
        report,
        String::from_utf8_lossy(&coctl.stdout),
        "served report must match coctl analyze ({temporal} s, {spatial} s)"
    );

    let (status, _) = http_get(server.http_addr(), "/shutdown");
    assert!(status.contains("200"), "{status}");
    let summary = server.wait();
    // Conservation: every analyzed record was folded, and only those.
    assert_eq!(full.snapshot().records, summary.counters.records_in);
    // The online counters dedup with the same windows as the fold.
    let stats = bgp_coanalysis::coanalysis::CoAnalysis::with_config(cfg.analysis)
        .run(&out.ras, &out.jobs)
        .filter_stats;
    assert_eq!(
        summary.counters.merged_temporal as usize,
        stats.raw_fatal - stats.after_temporal
    );
    assert_eq!(summary.counters.events_out as usize, stats.after_spatial);
    let analysis = summary.analysis.expect("--full-analysis reports its folds");
    assert!(
        analysis.contains(&format!("({want} records)")),
        "{analysis}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn impact_file_arms_the_daemon_warnings() {
    // A daemon loaded with "everything is non-fatal" verdicts must surface
    // events but warn on none of them.
    let impact_text = "# bgp-impact v1\n_bgp_err_kernel_panic non-fatal\n";
    let impact =
        bgp_coanalysis::bgp_serve::parse_impact(impact_text, "inline").expect("valid impact");
    let mut cfg = loopback_cfg();
    cfg.impact = Some(impact);
    let server = Server::start(&cfg).expect("daemon starts");
    let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
    let mut ingest = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    for i in 0..10u64 {
        let rec = RasRecord::new(
            i,
            bgp_coanalysis::bgp_model::Timestamp::from_unix(i as i64 * 100_000),
            "R00-M0-N00-J00".parse().unwrap(),
            code,
        );
        writeln!(ingest, "{}", format_record(&rec)).unwrap();
    }
    drop(ingest);
    wait_records_in(&server, 10);
    server.shutdown();
    let summary = server.wait();
    assert_eq!(summary.counters.events_out, 10);
    assert_eq!(
        summary.counters.warnings, 0,
        "non-fatal verdict must silence warnings"
    );
}
