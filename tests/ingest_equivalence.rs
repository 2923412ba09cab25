//! Golden equivalence at realistic scale: the parallel byte-chunk ingest
//! must be bit-identical to the serial streaming readers — same records in
//! the same order, same errors with the same line numbers — for every chunk
//! count; and `.bgpsnap` snapshots must hand back exactly the parsed log
//! through the `coanalysis::load` layer.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::{load, LoadOptions, SnapshotStatus};
use bgp_coanalysis::joblog::{self, JobReader};
use bgp_coanalysis::raslog::{self, RasReader};
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

#[test]
fn strict_parse_reports_the_first_error_like_the_serial_reader() {
    let (ras_text, job_text) = texts();
    let serial = RasReader::new(ras_text.as_bytes())
        .read_strict()
        .unwrap_err();
    for threads in chunk_counts() {
        let err = raslog::parse_log_bytes_strict(ras_text.as_bytes(), threads).unwrap_err();
        assert_eq!(err.line, serial.line);
    }
    let serial = JobReader::new(job_text.as_bytes())
        .read_strict()
        .unwrap_err();
    for threads in chunk_counts() {
        let err = joblog::parse_log_bytes_strict(job_text.as_bytes(), threads).unwrap_err();
        assert_eq!(err.line, serial.line);
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
    // stamp and validate the snapshot. Both must hand back the same logs.
    let (base_ras, base_jobs) = load::load_pair(&ras_path, &job_path, &plain).unwrap();
    assert_eq!(base_ras.snapshot, SnapshotStatus::Disabled);
    assert!(
        !base_ras.parse_errors.is_empty(),
        "damage produced no errors?"
    );

    // First snapshot-enabled load parses and writes; second skips the parse.
    let (written, written_jobs) = load::load_pair(&ras_path, &job_path, &snap).unwrap();
    assert_eq!(written.snapshot, SnapshotStatus::Written);
    assert_eq!(written_jobs.snapshot, SnapshotStatus::Written);
    assert_eq!(written.log.records(), base_ras.log.records());
    assert_eq!(written.parse_errors, base_ras.parse_errors);
    assert_eq!(written_jobs.log.jobs(), base_jobs.log.jobs());
    let (ras2, jobs2) = load::load_pair(&ras_path, &job_path, &snap).unwrap();
    assert_eq!(ras2.snapshot, SnapshotStatus::Loaded);
    assert_eq!(jobs2.snapshot, SnapshotStatus::Loaded);
    assert_eq!(ras2.log.records(), base_ras.log.records());
    assert_eq!(jobs2.log.jobs(), base_jobs.log.jobs());
    // A snapshot load cannot reproduce parse errors — it stores records only.
    assert!(ras2.parse_errors.is_empty());
}
