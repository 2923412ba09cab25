//! The Blue Gene/P adapter: the paper's nine-field pipe format.
//!
//! This is a pure delegation layer over `raslog`/`joblog` — the whole point
//! is that it adds *nothing*: records and diagnostics coming out of this
//! adapter are bit-identical to calling the parsers directly (the golden
//! tests and the ingest proptests pin that). It exists so the parser crates
//! have exactly one caller outside their own tests, which is what lets
//! clippy machine-enforce the seam.
//!
//! This module is the **only** sanctioned call site of the `raslog`/`joblog`
//! `parse_line*`, `ingest::parse_log_bytes*` and `ingest::parse_log_file*`
//! entry points outside the parser crates themselves. The root
//! `clippy.toml` bans them by resolved path (`disallowed-methods`, so a
//! re-export or a `use … as` alias is caught too), and each function below
//! carries an `#[expect]` saying why it may call them.

use crate::{SourceBatch, SourceDiagnostic};
use joblog::JobRecord;
use raslog::snapshot::Snapshot;
use raslog::{Projection, RasRecord};
use std::fs::File;
use std::io;

/// Decode a whole BG/P RAS log (parallel, tolerant) — the exact records and
/// per-line errors of `raslog::ingest::parse_log_bytes`, as a batch.
#[expect(
    clippy::disallowed_methods,
    reason = "the BG/P adapter is the one sanctioned caller of the raw parser entry points"
)]
pub fn decode_ras(data: &[u8], threads: usize) -> SourceBatch<RasRecord> {
    let (records, errors) = raslog::ingest::parse_log_bytes(data, threads);
    SourceBatch {
        records,
        diagnostics: errors.into_iter().map(SourceDiagnostic::from).collect(),
    }
}

/// Decode a whole BG/P job accounting log (parallel, tolerant).
#[expect(
    clippy::disallowed_methods,
    reason = "the BG/P adapter is the one sanctioned caller of the raw parser entry points"
)]
pub fn decode_jobs(data: &[u8], threads: usize) -> SourceBatch<JobRecord> {
    let (records, errors) = joblog::ingest::parse_log_bytes(data, threads);
    SourceBatch {
        records,
        diagnostics: errors.into_iter().map(SourceDiagnostic::from).collect(),
    }
}

/// Decode a BG/P RAS log file (parallel, tolerant), streamed through fixed
/// per-worker windows, keeping only the records `keep` accepts — the
/// projection and per-line errors of `raslog::ingest::parse_log_file_where`,
/// whose diagnostics are exactly what [`decode_ras`] gives the file's
/// bytes: every line is parsed whether or not it is kept. If `snapshot` is
/// set, the file's `.bgpsnap` of every record, built in the same pass and
/// stamped with the content hash of the bytes parsed, comes with them.
#[expect(
    clippy::disallowed_methods,
    reason = "the BG/P adapter is the one sanctioned caller of the raw parser entry points"
)]
pub fn decode_ras_file_where(
    file: &File,
    threads: usize,
    snapshot: bool,
    keep: impl Fn(&RasRecord) -> bool + Sync,
) -> io::Result<(Projection, Vec<SourceDiagnostic>, Option<Snapshot>)> {
    let (kept, errors, snapshot) =
        raslog::ingest::parse_log_file_where(file, threads, snapshot, keep)?;
    Ok((
        kept,
        errors.into_iter().map(SourceDiagnostic::from).collect(),
        snapshot,
    ))
}

/// Decode a whole BG/P job accounting file (parallel, tolerant), streamed
/// through fixed per-worker windows: exactly what [`decode_jobs`] gives the
/// file's bytes, with their content hash if `hash` is set.
#[expect(
    clippy::disallowed_methods,
    reason = "the BG/P adapter is the one sanctioned caller of the raw parser entry points"
)]
pub fn decode_jobs_file(
    file: &File,
    threads: usize,
    hash: bool,
) -> io::Result<(SourceBatch<JobRecord>, Option<u64>)> {
    let (records, errors, hash) = joblog::ingest::parse_log_file(file, threads, hash)?;
    let diagnostics = errors.into_iter().map(SourceDiagnostic::from).collect();
    Ok((
        SourceBatch {
            records,
            diagnostics,
        },
        hash,
    ))
}

/// Parse the content of one BG/P line (as [`crate::LineDecoder`] hands it
/// over: trimmed, not blank, no comment), with the parser's description of
/// a malformed one.
#[expect(
    clippy::disallowed_methods,
    reason = "the BG/P adapter is the one sanctioned caller of the raw parser entry points"
)]
pub fn parse_ras_line(line: &[u8]) -> Result<RasRecord, String> {
    raslog::parse_line_bytes(line).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineOutcome;
    use bgp_model::Timestamp;
    use raslog::Catalog;

    fn line(recid: u64) -> String {
        let rec = RasRecord::new(
            recid,
            Timestamp::from_unix(1_236_000_000),
            "R12-M1-N07-J03".parse().unwrap(),
            Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap(),
        );
        raslog::format_record(&rec)
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the oracle compares the adapter with the raw parser it wraps"
    )]
    fn batch_is_bit_identical_to_direct_ingest() {
        let text = format!("{}\ngarbage\n{}\n", line(1), line(2));
        for threads in [1, 4] {
            let (direct, errs) = raslog::ingest::parse_log_bytes(text.as_bytes(), threads);
            let batch = decode_ras(text.as_bytes(), threads);
            assert_eq!(batch.records, direct);
            assert_eq!(batch.diagnostics.len(), errs.len());
            assert_eq!(batch.diagnostics[0].line, errs[0].line);
        }
    }

    #[test]
    fn projected_batch_keeps_the_diagnostics_of_the_full_batch() {
        let mut warn = RasRecord::new(
            9,
            Timestamp::from_unix(1_236_000_500),
            "R00-M0".parse().unwrap(),
            Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap(),
        );
        warn.severity = raslog::Severity::Warning;
        let text = format!(
            "{}\ngarbage\n{}\n\nmore garbage\n{}\n",
            raslog::format_record(&warn),
            line(1),
            line(2)
        );
        let path = std::env::temp_dir().join(format!("ports-bgp-projected-{}", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let file = File::open(&path).unwrap();
        for threads in [1, 4] {
            let full = decode_ras(text.as_bytes(), threads);
            let (kept, diagnostics, _) =
                decode_ras_file_where(&file, threads, false, RasRecord::is_fatal).unwrap();
            assert_eq!(diagnostics, full.diagnostics);
            assert_eq!(kept, Projection::of(full.records, RasRecord::is_fatal));
            assert_eq!(kept.parsed(), 3);
            assert_eq!(kept.into_log().len(), 2);
        }
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn line_decode_matches_protocol_semantics() {
        let d = crate::LineDecoder::Bgp;
        let good = line(7);
        for text in [good.clone(), format!("{good}\r"), format!("{good}\r\r")] {
            assert!(matches!(
                d.decode_line(text.as_bytes()),
                LineOutcome::Record(_)
            ));
        }
        for skipped in [&b""[..], b"\r", b"\r\r", b"# comment"] {
            assert_eq!(d.decode_line(skipped), LineOutcome::Skip);
        }
        assert!(matches!(
            d.decode_line(b"not|a|record"),
            LineOutcome::Malformed(_)
        ));
    }
}
