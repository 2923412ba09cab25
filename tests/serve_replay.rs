//! Deterministic cassette-replay integration tests of the `bgp-serve`
//! daemon.
//!
//! These are the conversions of the TCP-only integration smoke tests: the
//! same records flow through the same framer, decoder, and analysis
//! worker, but from a committed `.bgpcas` cassette instead of a live socket
//! — so the
//! chunk boundaries are pinned byte-for-byte and every counter asserts
//! exactly, with no sockets, no sleeps, and no timing slack.
//!
//! The fixtures under `tests/fixtures/` are committed binaries, each backed
//! by a generator in this file; `committed_fixtures_match_their_generators`
//! keeps them honest, and the `#[ignore]`d `regen_fixtures` test rewrites
//! them after a deliberate format change:
//!
//! ```text
//! cargo test --test serve_replay -- --ignored regen_fixtures
//! ```

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_model::Timestamp;
use bgp_coanalysis::bgp_ports::cassette::{Cassette, Recorder, StreamKind};
use bgp_coanalysis::bgp_ports::{LineDecoder, LineOutcome, LogFormat};
use bgp_coanalysis::bgp_serve::{FinalSummary, ServeConfig, Server};
use bgp_coanalysis::coanalysis::stream::OnlineAnalyzer;
use bgp_coanalysis::raslog::{format_record, Catalog, RasRecord};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A loopback config with ephemeral ports (the sockets are bound but unused
/// here — replay feeds the ingest path directly).
fn loopback_cfg() -> ServeConfig {
    ServeConfig {
        ingest_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    }
}

/// Start a daemon and wait for the replayer's one-shot drain.
fn run_replay(cfg: &ServeConfig) -> FinalSummary {
    Server::start(cfg).expect("daemon starts").wait()
}

/// The record stream behind `serve_smoke.bgpcas`: 240 records cycling three
/// error codes over four midplane locations at 37-second steps, so both
/// temporal and spatial dedup fire, plus one comment and one garbage line.
fn smoke_records() -> Vec<RasRecord> {
    let cat = Catalog::standard();
    let codes = [
        cat.lookup("_bgp_err_kernel_panic").expect("known code"),
        cat.lookup("_bgp_err_ddr_controller").expect("known code"),
        cat.lookup("BULK_POWER_FATAL").expect("known code"),
    ];
    let locs = [
        "R00-M0-N00-J00",
        "R00-M0-N01-J00",
        "R01-M1-N02-J03",
        "R02-M0-N00-J07",
    ];
    (0..240u64)
        .map(|i| {
            RasRecord::new(
                1_000 + i,
                Timestamp::from_unix(1_200_000_000 + (i as i64) * 37),
                locs[(i as usize) % locs.len()].parse().expect("location"),
                codes[(i as usize) % codes.len()],
            )
        })
        .collect()
}

/// Generator for `serve_smoke.bgpcas`: the smoke stream serialized and cut
/// into awkward 97-byte chunks (nothing aligns with line boundaries).
fn smoke_cassette() -> Cassette {
    let mut bytes = Vec::new();
    for (i, r) in smoke_records().iter().enumerate() {
        if i == 120 {
            bytes.extend_from_slice(b"# a comment halfway through\n");
        }
        if i == 180 {
            bytes.extend_from_slice(b"this line is not a record\n");
        }
        bytes.extend_from_slice(format_record(r).as_bytes());
        bytes.push(b'\n');
    }
    let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).expect("recorder");
    for (i, chunk) in bytes.chunks(97).enumerate() {
        rec.push((i as u64) * 1_000_000, chunk);
    }
    rec.finish()
}

/// Generator for `crlf_boundary.bgpcas`: eight equal-length record lines
/// whose CRLF terminators straddle chunk boundaries in every way that has
/// bitten the framer — `\r` as a chunk's last byte, `\r\n` wholly in the
/// next chunk, and plain single-chunk `\n` as control.
fn crlf_cassette() -> Cassette {
    let code = Catalog::standard()
        .lookup("_bgp_err_kernel_panic")
        .expect("known code");
    let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).expect("recorder");
    for i in 0..8u64 {
        // Constant-width recids and timestamps keep every line the same
        // length, so one `max_line_bytes` is exactly at the limit for all.
        let line = format_record(&RasRecord::new(
            10 + i,
            Timestamp::from_unix(1_200_000_000 + (i as i64) * 3_600),
            "R00-M0-N00-J00".parse().expect("location"),
            code,
        ));
        match i % 3 {
            0 => {
                // The whole CRLF arrives in the next chunk.
                rec.push(i * 1_000, line.as_bytes());
                rec.push(i * 1_000 + 1, b"\r\n");
            }
            1 => {
                // The chunk ends on the bare `\r`; `\n` opens the next one.
                let mut a = line.into_bytes();
                a.push(b'\r');
                rec.push(i * 1_000, &a);
                rec.push(i * 1_000 + 1, b"\n");
            }
            _ => {
                let mut a = line.into_bytes();
                a.push(b'\n');
                rec.push(i * 1_000, &a);
            }
        }
    }
    rec.finish()
}

#[test]
fn committed_fixtures_match_their_generators() {
    for (name, cassette) in [
        ("serve_smoke.bgpcas", smoke_cassette()),
        ("crlf_boundary.bgpcas", crlf_cassette()),
    ] {
        let committed =
            std::fs::read(fixture(name)).unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
        assert_eq!(
            committed,
            cassette.encode(),
            "{name} drifted from its generator; after a deliberate format \
             change, regenerate with `cargo test --test serve_replay -- \
             --ignored regen_fixtures`"
        );
    }
}

#[test]
#[ignore = "rewrites the committed fixtures; run only after a deliberate format change"]
fn regen_fixtures() {
    let dir = fixture("");
    std::fs::create_dir_all(&dir).expect("fixtures dir");
    std::fs::write(fixture("serve_smoke.bgpcas"), smoke_cassette().encode()).expect("write");
    std::fs::write(fixture("crlf_boundary.bgpcas"), crlf_cassette().encode()).expect("write");
}

#[test]
fn smoke_replayed_from_committed_cassette_reconciles_exactly() {
    // The deterministic conversion of the TCP smoke test: the committed
    // cassette drives the same ingest path, so every counter — not just the
    // eventually-consistent ones — asserts exactly, twice.
    let mut cfg = loopback_cfg();
    cfg.replay = Some(fixture("serve_smoke.bgpcas"));
    let first = run_replay(&cfg);
    let second = run_replay(&cfg);
    assert_eq!(
        first, second,
        "replaying a cassette twice must be identical"
    );

    // Reference: one analyzer over the cassette's logical line stream.
    let cas = Cassette::decode(&std::fs::read(fixture("serve_smoke.bgpcas")).unwrap())
        .expect("fixture decodes");
    assert_eq!(cas.format, LogFormat::Bgp);
    assert_eq!(cas.kind, StreamKind::Ras);
    let decoder = LineDecoder::for_format(cas.format).expect("bgp is line-streamable");
    let mut reference = OnlineAnalyzer::new();
    let mut malformed = 0u64;
    for line in cas.replay_bytes().split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        match decoder.decode_line(line) {
            LineOutcome::Record(r) => {
                reference.push(&r);
            }
            LineOutcome::Malformed(_) => malformed += 1,
            LineOutcome::Skip => {}
        }
    }

    assert_eq!(first.counters, reference.counters());
    assert_eq!(first.counters.records_in, 240);
    assert!(first.counters.events_out > 0);
    assert!(
        first.counters.merged_temporal + first.counters.merged_spatial > 0,
        "the fixture stream must exercise dedup: {:?}",
        first.counters
    );
    assert!(first.counters.is_consistent());
    assert_eq!(first.rejected_malformed, malformed);
    assert_eq!(first.rejected_malformed, 1, "exactly the one garbage line");
    assert_eq!(first.rejected_oversized, 0);
    assert_eq!(first.ingest_connections, 0, "no socket was involved");
}

#[test]
fn crlf_split_across_recorded_chunks_is_not_dropped_at_the_limit() {
    // Regression fixture for the framer's CRLF-at-the-limit resync: the
    // length limit applies to line *content* (after stripping the CRLF),
    // even when the `\r` is a chunk's final byte.
    let cas = Cassette::decode(&std::fs::read(fixture("crlf_boundary.bgpcas")).unwrap())
        .expect("fixture decodes");
    let max = cas
        .replay_bytes()
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l).len())
        .max()
        .expect("non-empty fixture");

    let mut cfg = loopback_cfg();
    cfg.max_line_bytes = max; // every line is exactly at the limit
    cfg.replay = Some(fixture("crlf_boundary.bgpcas"));
    let summary = run_replay(&cfg);
    assert_eq!(summary.counters.records_in, 8);
    assert_eq!(summary.rejected_oversized, 0, "CRLF must not count");
    assert_eq!(summary.rejected_malformed, 0);

    // One byte tighter and every line is over the limit: all eight must be
    // rejected cleanly (framer resync), none mis-framed into garbage.
    cfg.max_line_bytes = max - 1;
    let summary = run_replay(&cfg);
    assert_eq!(summary.counters.records_in, 0);
    assert_eq!(summary.rejected_oversized, 8);
    assert_eq!(summary.rejected_malformed, 0);
}

#[test]
fn recorded_live_session_replays_to_identical_counters() {
    // `--record` then `--replay` closes the loop: a live TCP session is
    // captured chunk-for-chunk and reproduces the same analysis offline.
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("bgp-serve-rec-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cas_path = dir.join("live.bgpcas");

    let mut cfg = loopback_cfg();
    cfg.record = Some(cas_path.clone());
    let server = Server::start(&cfg).expect("daemon starts");
    let records = smoke_records();
    let mut ingest = TcpStream::connect(server.ingest_addr()).expect("connect ingest");
    for r in &records {
        writeln!(ingest, "{}", format_record(r)).expect("send record");
    }
    writeln!(ingest, "not a record at all").expect("send garbage");
    drop(ingest);
    #[expect(
        clippy::disallowed_methods,
        reason = "a test timeout bounds real waiting"
    )]
    let deadline = Instant::now() + Duration::from_secs(60);
    #[expect(
        clippy::disallowed_methods,
        reason = "a test timeout bounds real waiting"
    )]
    while server.counters().records_in < records.len() as u64 {
        assert!(Instant::now() < deadline, "daemon stuck ingesting");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let live = server.wait();
    let rec_note = live
        .recording
        .as_deref()
        .expect("--record reports its outcome");
    assert!(rec_note.starts_with("wrote"), "recording note: {rec_note}");

    let mut replay_cfg = loopback_cfg();
    replay_cfg.replay = Some(cas_path);
    let replayed = run_replay(&replay_cfg);
    assert_eq!(replayed.counters, live.counters);
    assert_eq!(replayed.rejected_malformed, live.rejected_malformed);
    assert_eq!(replayed.rejected_oversized, live.rejected_oversized);
    assert!(replayed.recording.is_none(), "replays are not re-recorded");

    let _ = std::fs::remove_dir_all(&dir);
}
