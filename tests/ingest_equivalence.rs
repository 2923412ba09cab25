//! Golden equivalence at realistic scale: the parallel byte-chunk ingest
//! must be bit-identical to the serial streaming readers — same records in
//! the same order, same errors with the same line numbers — for every chunk
//! count; `.bgpsnap` snapshots must hand back exactly the parsed log
//! through the `coanalysis::load` layer; and the co-analysis load
//! (`load_pair`) must be exactly the FATAL projection of the full load in
//! every snapshot-cache state.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_ports::{self, LogFormat};
use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::{load, LoadOptions, SnapshotStatus};
use bgp_coanalysis::joblog::{self, JobReader};
use bgp_coanalysis::raslog::{self, RasReader, Severity};
use bgp_model::Timestamp;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Chunk counts worth probing: serial, the smallest parallel split, a count
/// that never divides the input evenly, and whatever this machine offers.
fn chunk_counts() -> Vec<usize> {
    let ncpu = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![1, 2, 7, ncpu];
    counts.dedup();
    counts
}

/// Number of rewrite kinds [`ras_fallback`] knows.
const RAS_FALLBACKS: usize = 5;

/// Rewrite of a valid RAS line that the per-field fast paths of
/// `parse_line_bytes` decline but its general parser accepts, meaning the
/// same record: a padded RECID, a `+` sign, the dashed rack form,
/// fractional seconds, or padded ERRCODE..LOCATION fields.
fn ras_fallback(kind: usize, line: &str) -> String {
    let mut f: Vec<String> = line.splitn(9, '|').map(str::to_owned).collect();
    match kind {
        0 => f[0] = format!("  {}\t", f[0]),
        1 => f[0] = format!("+{}", f[0]),
        2 => f[7] = f[7].replacen('R', "R-", 1),
        3 => f[6].push_str(".285324"),
        _ => {
            for (i, pad) in [(4, " "), (5, "\t"), (6, " "), (7, "\t")] {
                f[i] = format!("{pad}{}{pad}", f[i]);
            }
        }
    }
    f.join("|")
}

/// The simulated site: its RAS records, and both logs serialized to their
/// native text formats with deliberate damage — corrupted lines, blank
/// lines, a truncated final line and, in the RAS log, lines rewritten into
/// the forms only the general field parsers accept — so the equivalence
/// checks cover the tolerant paths and fast/general mixtures too.
struct Fixture {
    records: Vec<raslog::RasRecord>,
    ras: String,
    jobs: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = Simulation::new(SimConfig::small_test(23))
            .expect("valid config")
            .run();
        let mut rbuf = Vec::new();
        raslog::write_log(&mut rbuf, out.ras.records()).unwrap();
        let mut jbuf = Vec::new();
        joblog::write_log(&mut jbuf, out.jobs.jobs()).unwrap();
        let damage = |buf: Vec<u8>, rewrite: &dyn Fn(usize, &str) -> Option<String>| {
            let text = String::from_utf8(buf).unwrap();
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            for (i, line) in lines.iter_mut().enumerate() {
                match i % 97 {
                    13 => *line = format!("CORRUPT{line}"),
                    41 => line.clear(),
                    67 => *line = format!("{line}\r"), // CRLF survivor
                    k => {
                        if let Some(new) = rewrite(k, line) {
                            *line = new;
                        }
                    }
                }
            }
            let mut text = lines.join("\n");
            text.push('\n');
            text.truncate(text.len() - 20); // truncated final line
            text
        };
        let ras = damage(rbuf, &|k, line| {
            (k % 11 == 0).then(|| ras_fallback(k / 11 % RAS_FALLBACKS, line))
        });
        Fixture {
            records: out.ras.records().to_vec(),
            ras,
            jobs: damage(jbuf, &|_, _| None),
        }
    })
}

fn texts() -> (&'static String, &'static String) {
    let f = fixture();
    (&f.ras, &f.jobs)
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the adapter-equivalence oracle compares against the raw parser"
)]
fn ras_fallback_rewrites_parse_to_the_same_record() {
    for r in fixture().records.iter().take(500) {
        let line = raslog::format_record(r);
        for kind in 0..RAS_FALLBACKS {
            let rewritten = ras_fallback(kind, &line);
            assert_ne!(rewritten, line);
            assert_eq!(raslog::parse_line(&rewritten), Ok(*r), "{rewritten:?}");
        }
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the adapter-equivalence oracle compares against the raw parser"
)]
fn ras_parallel_ingest_matches_serial_reader_at_scale() {
    let (ras_text, _) = texts();
    let (serial_records, serial_errors) = RasReader::new(ras_text.as_bytes()).read_tolerant();
    assert!(!serial_records.is_empty());
    // Every non-blank line is a record or an error, and the only errors are
    // the corrupted lines (the truncation cuts into MESSAGE, which parses):
    // no fallback rewrite was rejected.
    let corrupted = ras_text
        .lines()
        .filter(|l| l.starts_with("CORRUPT"))
        .count();
    assert_eq!(serial_errors.len(), corrupted);
    assert_eq!(
        serial_records.len() + serial_errors.len(),
        fixture().records.len() - ras_text.lines().filter(|l| l.is_empty()).count()
    );
    assert!(!serial_errors.is_empty(), "damage produced no errors?");
    for threads in chunk_counts() {
        let (records, errors) = raslog::parse_log_bytes(ras_text.as_bytes(), threads);
        assert_eq!(
            records, serial_records,
            "records differ at {threads} chunks"
        );
        assert_eq!(
            errors.len(),
            serial_errors.len(),
            "error count differs at {threads} chunks"
        );
        for (par, ser) in errors.iter().zip(&serial_errors) {
            assert_eq!(par.line, ser.line, "error line differs at {threads} chunks");
            assert_eq!(par.kind, ser.kind);
        }
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the adapter-equivalence oracle compares against the raw parser"
)]
fn job_parallel_ingest_matches_serial_reader_at_scale() {
    let (_, job_text) = texts();
    let (serial_jobs, serial_errors) = JobReader::new(job_text.as_bytes()).read_tolerant();
    assert!(!serial_jobs.is_empty());
    assert!(!serial_errors.is_empty(), "damage produced no errors?");
    for threads in chunk_counts() {
        let (jobs, errors) = joblog::parse_log_bytes(job_text.as_bytes(), threads);
        assert_eq!(jobs, serial_jobs, "jobs differ at {threads} chunks");
        let lines: Vec<u64> = errors.iter().map(|e| e.line).collect();
        let serial_lines: Vec<u64> = serial_errors.iter().map(|e| e.line).collect();
        assert_eq!(
            lines, serial_lines,
            "error lines differ at {threads} chunks"
        );
    }
}

/// A small deterministic generator for [`rollover_logs`].
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A RAS log and a job log of `lines` lines each from `seed`, over several
/// weeks from the last days of 2008: the RAS times roll over a day, a month
/// and a year, and among the records are `ss = 60` clocks, older days
/// revisited, fractional, padded and signed-year clocks, bad clocks behind
/// a day the parser has just read, malformed, blank and CR-only lines, and
/// CRLF endings.
fn rollover_logs(seed: u64, lines: usize) -> (String, String) {
    let mut mix = Mix(seed);
    let codes: Vec<_> = raslog::Catalog::standard().codes().collect();
    let locs = ["R00-M0", "R01-M1-N04-J12", "R02-B", "R03-M0-S", "R47-M1-L3"];
    let mut t = Timestamp::from_civil(2008, 12, 30, 22, 0, 0);
    let mut seen = Vec::new();
    let (mut ras, mut jobs) = (String::new(), String::new());
    for i in 0..lines {
        t = Timestamp::from_unix(t.as_unix() + mix.below(6 * 3600) as i64);
        seen.push(t);
        let mut r = raslog::RasRecord::new(
            i as u64,
            t,
            locs[mix.below(locs.len())].parse().unwrap(),
            codes[mix.below(codes.len())],
        );
        r.severity = Severity::ALL[mix.below(Severity::ALL.len())];
        let text = t.to_string();
        let (date, clock) = text.split_at(11);
        let clock = match mix.below(16) {
            0 => format!("{text}.285324"),
            1 => format!(" {text}\t"),
            2 => format!("+{}", &text[1..]),
            3 => format!("{date}{}60", &clock[..6]),
            4 => format!("{date}24.00.00"),
            5 => format!("{date}12.60.00"),
            6 => format!("{date}1a.00.00"),
            7 => seen[mix.below(seen.len())].to_string(),
            _ => text.clone(),
        };
        let line = match mix.below(20) {
            0 => "garbage|with|pipes".to_owned(),
            1 => String::new(),
            2 => "\r".to_owned(),
            _ => raslog::format_record(&r).replacen(&text, &clock, 1),
        };
        ras.push_str(&line);
        ras.push_str(if mix.below(4) == 0 { "\r\n" } else { "\n" });

        let start = t.as_unix() + mix.below(3600) as i64;
        let job = joblog::JobRecord {
            job_id: i as u64,
            exec: joblog::ExecId(mix.below(50) as u32),
            user: joblog::UserId(mix.below(20) as u32),
            project: joblog::ProjectId(mix.below(5) as u32),
            queue_time: t,
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(start + mix.below(3 * 86_400) as i64),
            partition: bgp_model::Partition::contiguous(
                mix.below(8) as u8 * 8,
                [1, 2, 4, 8][mix.below(4)],
            )
            .unwrap(),
            exit: match mix.below(3) {
                0 => joblog::ExitStatus::Completed,
                1 => joblog::ExitStatus::Failed(mix.below(300) as u16),
                _ => joblog::ExitStatus::Cancelled,
            },
        };
        let line = match mix.below(20) {
            0 => "1|2|3|not|a|job".to_owned(),
            1 => String::new(),
            2 => format!("{}|extra", joblog::format_record(&job)),
            _ => joblog::format_record(&job),
        };
        jobs.push_str(&line);
        jobs.push_str(if mix.below(4) == 0 { "\r\n" } else { "\n" });
    }
    (ras, jobs)
}

proptest! {
    /// The parallel ingest at 1, 2, 3 and 7 workers reads a multi-day log
    /// as the serial readers do, record for record and error for error:
    /// each worker's day memo sees the days roll over, revisit and go bad
    /// at any point of its run of lines.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the adapter-equivalence oracle compares against the raw parser"
    )]
    fn multi_day_logs_parse_as_the_serial_readers_read_them(
        seed in 0u64..u64::MAX,
        lines in 1usize..300,
    ) {
        let (ras, jobs) = rollover_logs(seed, lines);
        let (want_records, want_errors) = RasReader::new(ras.as_bytes()).read_tolerant();
        let (want_jobs, want_job_errors) = JobReader::new(jobs.as_bytes()).read_tolerant();
        for threads in [1, 2, 3, 7] {
            let (records, errors) = raslog::parse_log_bytes(ras.as_bytes(), threads);
            prop_assert_eq!(&records, &want_records, "threads {}", threads);
            prop_assert_eq!(&errors, &want_errors, "threads {}", threads);
            let (jobs, job_errors) = joblog::parse_log_bytes(jobs.as_bytes(), threads);
            prop_assert_eq!(&jobs, &want_jobs, "threads {}", threads);
            prop_assert_eq!(&job_errors, &want_job_errors, "threads {}", threads);
        }
    }
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ingest-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn snapshot_cycle_preserves_the_parsed_log_exactly() {
    let (ras_text, job_text) = texts();
    let dir = workdir("snap");
    let ras_path = dir.join("ras.log");
    let job_path = dir.join("jobs.log");
    std::fs::write(&ras_path, ras_text).unwrap();
    std::fs::write(&job_path, job_text).unwrap();

    let plain = LoadOptions::default();
    let snap = LoadOptions {
        snapshot_dir: Some(dir.join("cache")),
        ..LoadOptions::default()
    };

    // An uncached load never hashes the text; a cached one hashes it to
    // stamp and validate the snapshot. Both must hand back the same logs,
    // every record of them: the full loads, not the co-analysis projection.
    let base_ras = load::load_ras(&ras_path, &plain).unwrap();
    let base_jobs = load::load_jobs(&job_path, &plain).unwrap();
    assert_eq!(base_ras.snapshot, SnapshotStatus::Disabled);
    assert!(
        !base_ras.parse_errors.is_empty(),
        "damage produced no errors?"
    );
    assert_eq!(base_ras.parsed, base_ras.log.len());
    let mut serial = RasReader::new(ras_text.as_bytes()).read_tolerant().0;
    serial.sort_by_key(|r| (r.event_time, r.recid));
    assert_eq!(base_ras.log.records(), serial.as_slice());

    // First snapshot-enabled load parses and writes; second skips the parse.
    let written = load::load_ras(&ras_path, &snap).unwrap();
    let written_jobs = load::load_jobs(&job_path, &snap).unwrap();
    assert_eq!(written.snapshot, SnapshotStatus::Written);
    assert_eq!(written_jobs.snapshot, SnapshotStatus::Written);
    assert_eq!(written.log.records(), base_ras.log.records());
    assert_eq!(written.log.time_span(), base_ras.log.time_span());
    assert_eq!(written.parse_errors, base_ras.parse_errors);
    assert_eq!(written_jobs.log.jobs(), base_jobs.log.jobs());
    let ras2 = load::load_ras(&ras_path, &snap).unwrap();
    let jobs2 = load::load_jobs(&job_path, &snap).unwrap();
    assert_eq!(ras2.snapshot, SnapshotStatus::Loaded);
    assert_eq!(jobs2.snapshot, SnapshotStatus::Loaded);
    assert_eq!(ras2.log.records(), base_ras.log.records());
    assert_eq!(ras2.log.time_span(), base_ras.log.time_span());
    assert_eq!(ras2.parsed, base_ras.parsed);
    assert_eq!(jobs2.log.jobs(), base_jobs.log.jobs());
    // A snapshot load cannot reproduce parse errors — it stores records only.
    assert!(ras2.parse_errors.is_empty());
}

// ---------------------------------------------------------------------------
// The co-analysis load is a projection of the full load.
//
// `load_pair` keeps only the FATAL records of the RAS log, yet every line is
// still parsed: its records must be the full load's FATAL records in order,
// and its span, diagnostics and parsed count must be the full load's, in
// every cache state. Both entry points share one snapshot file: a miss by
// either writes the same bytes, a hit by either leaves them as they were,
// and each rejects only damage to the section it reads — `load_pair` the
// FATAL section, `load_ras` the section of every record.
// ---------------------------------------------------------------------------

/// Thread counts the projection oracle runs at.
const PROJECTION_THREADS: [usize; 3] = [1, 2, 4];

/// The state the snapshot cache is in before a load.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CacheState {
    /// No snapshot directory.
    Disabled,
    /// A directory without a snapshot.
    Miss,
    /// A valid snapshot.
    Hit,
    /// A snapshot stamped with another source's hash.
    StaleHash,
    /// A snapshot whose section of every record is all `0xff` bytes (an
    /// empty log has no such section to damage: a hit).
    CorruptAll,
    /// A snapshot whose FATAL section is all `0xff` bytes (a log without
    /// FATAL records has no such section to damage: a hit).
    CorruptFatal,
}

/// States of the whole snapshot file.
const FILE_STATES: [CacheState; 4] = [
    CacheState::Disabled,
    CacheState::Miss,
    CacheState::Hit,
    CacheState::StaleHash,
];

/// States of one section of the snapshot file.
const SECTION_STATES: [CacheState; 2] = [CacheState::CorruptAll, CacheState::CorruptFatal];

/// Put a fresh cache directory `dir` into `state` for `ras_path`, primed by
/// a `load_pair` miss if `pair`, else by a `load_ras` miss. Returns the load
/// options and the snapshot bytes left in place, if any.
fn prepare_cache(
    dir: &std::path::Path,
    (ras_path, job_path): (&std::path::Path, &std::path::Path),
    state: CacheState,
    threads: usize,
    pair: bool,
) -> (LoadOptions, Option<Vec<u8>>) {
    let _ = std::fs::remove_dir_all(dir);
    let opts = LoadOptions {
        threads,
        snapshot_dir: (state != CacheState::Disabled).then(|| dir.to_owned()),
        ..LoadOptions::default()
    };
    if matches!(state, CacheState::Disabled | CacheState::Miss) {
        return (opts, None);
    }
    let primed = if pair {
        load::load_pair(ras_path, job_path, &opts)
            .unwrap()
            .0
            .snapshot
    } else {
        load::load_ras(ras_path, &opts).unwrap().snapshot
    };
    assert_eq!(primed, SnapshotStatus::Written);
    let snap = load::snapshot_file(dir, ras_path);
    let mut bytes = std::fs::read(&snap).unwrap();
    // The FATAL count is the tally's first field; the FATAL section starts
    // after the 32-byte header and the 24-byte tally.
    let fatal_end = 56 + 23 * u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    match state {
        CacheState::StaleHash => {
            bytes[24..32].copy_from_slice(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
        }
        CacheState::CorruptAll => bytes[fatal_end..].fill(0xff),
        CacheState::CorruptFatal => bytes[56..fatal_end].fill(0xff),
        CacheState::Disabled | CacheState::Miss | CacheState::Hit => {}
    }
    std::fs::write(&snap, &bytes).unwrap();
    (opts, Some(bytes))
}

/// Non-blank lines of `text`, counted the way the chunk parser frames them.
fn nonblank_lines(text: &[u8]) -> usize {
    text.split(|&b| b == b'\n')
        .filter(|line| line.iter().any(|&b| b != b'\r'))
        .count()
}

/// Load `text` in full and projected, each from its own cache directory in
/// the same `state`, and check the projection law and the files left.
fn assert_projection(
    name: &str,
    text: &[u8],
    dir: &std::path::Path,
    state: CacheState,
    threads: usize,
) {
    let ras_path = dir.join("ras.log");
    let job_path = dir.join("jobs.log");
    std::fs::write(&ras_path, text).unwrap();
    std::fs::write(&job_path, texts().1).unwrap();
    let ctx = format!("{name}: {state:?} at {threads} threads");
    let paths = (ras_path.as_path(), job_path.as_path());

    let (full_opts, full_left) = prepare_cache(&dir.join("full"), paths, state, threads, false);
    let (proj_opts, proj_left) = prepare_cache(&dir.join("projected"), paths, state, threads, true);
    assert_eq!(
        full_left, proj_left,
        "either miss writes the same bytes: {ctx}"
    );
    let full = load::load_ras(&ras_path, &full_opts).unwrap();
    let (projected, _) = load::load_pair(&ras_path, &job_path, &proj_opts).unwrap();

    // What a parse gives, and the snapshot a miss writes of it.
    let parsed = bgp_ports::decode_ras(LogFormat::Bgp, text, 1).unwrap();
    let hash = bgp_model::bytes::content_hash_64(text);
    let fresh = raslog::snapshot::encode_snapshot(&parsed.records, hash);
    let fatal: Vec<raslog::RasRecord> = full.log.fatal().copied().collect();
    assert_eq!(projected.log.records(), fatal.as_slice(), "records: {ctx}");
    assert_eq!(
        projected.log.time_span(),
        full.log.time_span(),
        "span: {ctx}"
    );

    let stale = SnapshotStatus::Rewritten {
        reason: format!(
            "source hash 0x0123456789abcdef does not match current source {hash:#018x}"
        ),
    };
    let corrupt = |rows: usize| match rows {
        0 => SnapshotStatus::Loaded,
        _ => SnapshotStatus::Rewritten {
            reason: "record 0 corrupt: location: unknown tag 255".to_owned(),
        },
    };
    let expected = match state {
        CacheState::Disabled => (SnapshotStatus::Disabled, SnapshotStatus::Disabled),
        CacheState::Miss => (SnapshotStatus::Written, SnapshotStatus::Written),
        CacheState::Hit => (SnapshotStatus::Loaded, SnapshotStatus::Loaded),
        CacheState::StaleHash => (stale.clone(), stale),
        CacheState::CorruptAll => (corrupt(full.parsed), SnapshotStatus::Loaded),
        CacheState::CorruptFatal => (SnapshotStatus::Loaded, corrupt(fatal.len())),
    };
    assert_eq!(
        (&full.snapshot, &projected.snapshot),
        (&expected.0, &expected.1),
        "{ctx}"
    );
    for (d, status, diagnostics, left) in [
        ("full", &full.snapshot, &full.parse_errors, &full_left),
        (
            "projected",
            &projected.snapshot,
            &projected.parse_errors,
            &proj_left,
        ),
    ] {
        // A hit reports no diagnostics and writes nothing; a miss parses
        // and writes the fresh snapshot.
        let hit = *status == SnapshotStatus::Loaded;
        let want: &[_] = if hit { &[] } else { &parsed.diagnostics };
        assert_eq!(diagnostics.as_slice(), want, "{d} diagnostics: {ctx}");
        if state != CacheState::Disabled {
            let snap = std::fs::read(load::snapshot_file(&dir.join(d), &ras_path)).unwrap();
            let want = if hit { left.as_ref().unwrap() } else { &fresh };
            assert!(&snap == want, "{d} snapshot bytes: {ctx}");
        }
    }

    // Conservation: `parsed` counts every record before projection, so it
    // is the full load's length, and the records projected away are
    // exactly the non-FATAL ones.
    assert_eq!(full.parsed, full.log.len(), "{ctx}");
    assert_eq!(projected.parsed, full.log.len(), "{ctx}");
    assert_eq!(
        projected.parsed - projected.log.len(),
        full.log.records().iter().filter(|r| !r.is_fatal()).count(),
        "{ctx}"
    );
    // With the text parsed, every non-blank line is a record or a
    // diagnostic: kept + projected away + diagnostics = lines.
    assert_eq!(
        projected.parsed + parsed.diagnostics.len(),
        nonblank_lines(text),
        "{ctx}"
    );
}

/// One RAS line: record `recid` at second `t` of the window, with the
/// severity and one of four locations picked by index.
fn ras_line(recid: u64, t: i64, severity: usize, loc: usize) -> String {
    let locs = ["R00-M0", "R01-M1-N04-J12", "R02-B", "R03-M0-S"];
    let mut r = raslog::RasRecord::new(
        recid,
        Timestamp::from_unix(1_236_000_000 + t),
        locs[loc % locs.len()].parse().unwrap(),
        raslog::Catalog::standard()
            .lookup("_bgp_err_kernel_panic")
            .unwrap(),
    );
    r.severity = Severity::ALL[severity % Severity::ALL.len()];
    raslog::format_record(&r)
}

/// Hand-made logs for the projection's edge cases.
fn projection_inputs() -> Vec<(&'static str, String)> {
    let sev = |s: Severity| Severity::ALL.iter().position(|&x| x == s).unwrap();
    let (fatal, info, warn) = (
        sev(Severity::Fatal),
        sev(Severity::Info),
        sev(Severity::Warning),
    );
    let damaged = [
        // Non-FATAL first line, but not the earliest record.
        ras_line(1, 500, info, 0),
        ras_line(2, 300, fatal, 1),
        // Out of time order.
        ras_line(9, 100, fatal, 2),
        // The earliest record is not FATAL.
        ras_line(3, 50, warn, 3),
        String::new(),
        // Timestamp ties, recids out of order, and one (time, recid) key
        // repeated at two locations: the stable sort keeps input order.
        ras_line(7, 300, fatal, 0),
        ras_line(8, 300, warn, 1),
        ras_line(6, 300, fatal, 2),
        ras_line(6, 300, fatal, 3),
        "garbage".to_owned(),
        "1|2|3|not|a|record".to_owned(),
        ras_line(4, 700, fatal, 0),
        // Non-FATAL last line, and the latest record.
        ras_line(5, 900, info, 1),
    ];
    let no_fatal = [
        ras_line(1, 10, info, 0),
        ras_line(2, 5, warn, 1),
        "bad line".to_owned(),
        ras_line(3, 20, info, 2),
    ];
    vec![
        ("damaged", damaged.join("\n") + "\n"),
        ("damaged, CRLF, no final newline", damaged.join("\r\n")),
        ("no FATAL record", no_fatal.join("\n") + "\n"),
        (
            "only FATAL records",
            [2, 6, 7].map(|i| damaged[i].clone()).join("\n"),
        ),
        ("empty", String::new()),
    ]
}

#[test]
fn load_pair_is_the_fatal_projection_of_the_full_load() {
    let dir = workdir("projection");
    for (name, text) in projection_inputs() {
        for threads in PROJECTION_THREADS {
            for state in FILE_STATES {
                assert_projection(name, text.as_bytes(), &dir, state, threads);
            }
        }
    }
}

#[test]
fn load_pair_projects_the_damaged_site_log() {
    let dir = workdir("projection-site");
    let text = texts().0.as_bytes();
    for threads in PROJECTION_THREADS {
        for state in FILE_STATES {
            assert_projection("site", text, &dir, state, threads);
        }
    }
}

#[test]
fn load_pair_serves_the_fatal_snapshot() {
    let dir = workdir("fatal-snapshot");
    let site = ("site", texts().0.clone());
    for (name, text) in projection_inputs().into_iter().chain([site]) {
        for threads in PROJECTION_THREADS {
            for state in SECTION_STATES {
                assert_projection(name, text.as_bytes(), &dir, state, threads);
            }
        }
    }
}

/// One line of a random RAS log: mostly records over a narrow window (so
/// times tie), some blank, CR-only or malformed.
fn arb_ras_line() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..8, 0i64..6, 0usize..6, 0usize..4).prop_map(|(id, t, s, l)| ras_line(id, t, s, l)),
        (0u64..8, 0i64..6, 0usize..6, 0usize..4).prop_map(|(id, t, s, l)| ras_line(id, t, s, l)),
        (0u8..1).prop_map(|_| String::new()),
        (0u8..1).prop_map(|_| "\r".to_owned()),
        (0u8..1).prop_map(|_| "garbage|with|pipes".to_owned()),
    ]
}

proptest! {
    #[test]
    fn projection_law_over_random_logs(
        lines in collection::vec(arb_ras_line(), 0..24),
        crlf in 0u8..2,
        final_newline in 0u8..2,
        threads in 0usize..3,
        state in 0usize..6,
    ) {
        let sep = if crlf == 1 { "\r\n" } else { "\n" };
        let mut text = lines.join(sep);
        if final_newline == 1 {
            text.push_str(sep);
        }
        let dir = workdir("projection-prop");
        assert_projection(
            "random",
            text.as_bytes(),
            &dir,
            [FILE_STATES.as_slice(), &SECTION_STATES].concat()[state],
            PROJECTION_THREADS[threads],
        );
    }
}
