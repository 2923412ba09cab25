//! Parallel, zero-copy ingestion of RAS log text.
//!
//! The streaming [`crate::RasReader`] pays one `read_line` (with UTF-8
//! validation and a `String` copy) per record. At paper scale — two million
//! records — that serial front door dominates end-to-end latency now that the
//! analysis stages run concurrently. This module takes the whole log as one
//! in-memory byte buffer, splits it into newline-aligned chunks
//! ([`bgp_model::bytes::line_chunks`]), and parses the chunks on scoped
//! threads with the allocation-free byte parser
//! ([`crate::parse::parse_line_bytes`]).
//!
//! ## Equivalence contract
//!
//! For valid-UTF-8 input, [`parse_log_bytes`] is *bit-identical* to draining
//! a [`crate::RasReader`] over the same bytes: same records in the same
//! order, same errors with the same global 1-based line numbers (blank lines
//! are counted but skipped, trailing `\r` runs are trimmed, text after the
//! last newline counts as a final line). The integration tests pin this
//! record-for-record and error-for-error. Input with invalid UTF-8 *outside
//! parsed fields* (e.g. binary garbage in MESSAGE) still parses here, whereas
//! the streaming reader reports an I/O error — the only intentional
//! divergence, since rejecting a record for bytes the parser never inspects
//! helps nobody.
//!
//! ## Projection
//!
//! [`parse_log_bytes_where`] is the one chunk parser; it keeps only the
//! records a predicate accepts and tallies the rest ([`Projection`]).
//! [`parse_log_bytes`] is its keep-everything case. A projection changes
//! which records are *built*, never which lines are parsed: the errors are
//! the same either way.

use crate::log::Projection;
use crate::parse::{parse_line_bytes, RasParseError};
use crate::record::RasRecord;
use bgp_model::bytes::{find_byte, line_chunks, map_chunks_parallel};

/// Per-chunk parse output, with chunk-local line numbers.
struct ChunkOut {
    kept: Projection,
    errors: Vec<RasParseError>,
    lines: u64,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the chunk parser is the parser crate's own parallel driver of its line parser"
)]
fn parse_chunk(chunk: &[u8], keep: &impl Fn(&RasRecord) -> bool) -> ChunkOut {
    let mut out = ChunkOut {
        // Records vastly outnumber errors in real logs; size for ~90 bytes
        // per line to keep reallocation off the hot path. A projection that
        // keeps few records only touches the pages it fills.
        kept: Projection::with_capacity(chunk.len() / 90 + 1),
        errors: Vec::new(),
        lines: 0,
    };
    let mut rest = chunk;
    while !rest.is_empty() {
        let line = match find_byte(b'\n', rest) {
            Some(i) => {
                let line = &rest[..i];
                rest = &rest[i + 1..];
                line
            }
            None => {
                let line = rest;
                rest = &rest[rest.len()..];
                line
            }
        };
        out.lines += 1;
        let mut line = line;
        while let [head @ .., b'\r'] = line {
            line = head;
        }
        if line.is_empty() {
            continue;
        }
        match parse_line_bytes(line) {
            Ok(r) => out.kept.push(r, keep),
            Err(mut e) => {
                e.line = out.lines;
                out.errors.push(e);
            }
        }
    }
    out
}

/// Parse a whole RAS log held in memory, tolerantly, on up to `threads`
/// scoped worker threads (`0` and `1` both mean "parse inline"), keeping
/// only the records `keep` accepts.
///
/// Every line is parsed and validated whether or not its record is kept, so
/// the errors — malformed lines with their global 1-based line numbers —
/// are exactly those of [`parse_log_bytes`], and the projection's tally
/// (`parsed`, `span`) covers every record that parsed. The kept records
/// come in input order.
pub fn parse_log_bytes_where(
    data: &[u8],
    threads: usize,
    keep: impl Fn(&RasRecord) -> bool + Sync,
) -> (Projection, Vec<RasParseError>) {
    let chunks = line_chunks(data, threads);
    let parts = map_chunks_parallel(&chunks, |c| parse_chunk(c, &keep));
    let total: usize = parts.iter().map(|p| p.kept.records.len()).sum();
    let mut kept = Projection::with_capacity(total);
    let mut errors = Vec::new();
    let mut line_offset = 0u64;
    for part in parts {
        for mut e in part.errors {
            e.line += line_offset;
            errors.push(e);
        }
        kept.append(part.kept);
        line_offset += part.lines;
    }
    (kept, errors)
}

/// Parse a whole RAS log held in memory, tolerantly, on up to `threads`
/// scoped worker threads (`0` and `1` both mean "parse inline").
///
/// Returns the records in input order and the malformed lines with their
/// global 1-based line numbers — exactly what
/// [`crate::RasReader::read_tolerant`] returns for the same bytes. This is
/// [`parse_log_bytes_where`] keeping every record.
#[expect(
    clippy::disallowed_methods,
    reason = "the keep-all case is defined over the projecting parser beside it"
)]
pub fn parse_log_bytes(data: &[u8], threads: usize) -> (Vec<RasRecord>, Vec<RasParseError>) {
    let (kept, errors) = parse_log_bytes_where(data, threads, |_| true);
    (kept.records, errors)
}

/// Strict variant of [`parse_log_bytes`]: fail on the first malformed line
/// (by global line number), like [`crate::RasReader::read_strict`].
#[expect(
    clippy::disallowed_methods,
    reason = "the strict variant is defined over the tolerant one beside it"
)]
pub fn parse_log_bytes_strict(
    data: &[u8],
    threads: usize,
) -> Result<Vec<RasRecord>, RasParseError> {
    let (records, errors) = parse_log_bytes(data, threads);
    match errors.into_iter().next() {
        None => Ok(records),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests of the parser crate drive its entry points directly"
)]
mod tests {
    use super::*;
    use crate::parse::RasReader;
    use crate::write::format_record;
    use crate::Catalog;
    use bgp_model::Timestamp;
    use proptest::prelude::*;

    fn record(recid: u64) -> RasRecord {
        RasRecord::new(
            recid,
            Timestamp::from_unix(1_236_000_000 + recid as i64),
            "R12-M1-N07-J03".parse().unwrap(),
            Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap(),
        )
    }

    fn assert_equivalent(text: &[u8], threads: usize) {
        let (serial_recs, serial_errs) = match std::str::from_utf8(text) {
            Ok(_) => RasReader::new(text).read_tolerant(),
            Err(_) => return, // streaming reader can't represent this input
        };
        let (recs, errs) = parse_log_bytes(text, threads);
        assert_eq!(recs, serial_recs, "records diverge at threads={threads}");
        assert_eq!(errs, serial_errs, "errors diverge at threads={threads}");
    }

    #[test]
    fn matches_serial_reader_across_chunk_counts() {
        let mut text = String::new();
        for i in 0..100 {
            if i % 7 == 0 {
                text.push_str("not a record\n");
            }
            if i % 13 == 0 {
                text.push('\n'); // blank line: counted, skipped
            }
            text.push_str(&format_record(&record(i)));
            text.push('\n');
        }
        text.push_str("truncated final line with no newline");
        for threads in [0, 1, 2, 3, 7, 16] {
            assert_equivalent(text.as_bytes(), threads);
        }
    }

    #[test]
    fn crlf_and_empty_variants() {
        let good = format_record(&record(1));
        for text in [
            format!("{good}\r\n{good}\r\n"),
            format!("{good}\n\r\n{good}"),
            "\n\n\n".to_owned(),
            String::new(),
            format!("{good}\r\r\n"),
        ] {
            for threads in [1, 2, 5] {
                assert_equivalent(text.as_bytes(), threads);
            }
        }
    }

    #[test]
    fn strict_matches_first_error() {
        let good = format_record(&record(1));
        let text = format!("{good}\ngarbage\nmore garbage\n");
        let e = parse_log_bytes_strict(text.as_bytes(), 4).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(
            parse_log_bytes_strict(format!("{good}\n").as_bytes(), 4)
                .unwrap()
                .len(),
            1
        );
    }

    /// One line of input for the boundary proptest.
    fn arb_line() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u64..1000).prop_map(|i| format_record(&record(i))),
            (0u8..1).prop_map(|_| String::new()),
            (0u8..1).prop_map(|_| "garbage with | pipes".to_owned()),
            (0u8..1).prop_map(|_| "\r".to_owned()),
            // Multi-byte UTF-8 in the MESSAGE field.
            (0u64..1000).prop_map(|i| format!("{} — ünïcode ☃", format_record(&record(i)))),
            // Short ASCII noise with embedded pipes.
            collection::vec(0u8..27, 0..12).prop_map(|v| {
                v.iter()
                    .map(|&i| if i == 26 { '|' } else { char::from(b'a' + i) })
                    .collect()
            }),
        ]
    }

    proptest! {
        #[test]
        fn equivalence_over_nasty_boundaries(
            lines in collection::vec(arb_line(), 0..40),
            crlf in 0u8..2,
            final_newline in 0u8..2,
            threads in 1usize..8,
        ) {
            let sep = if crlf == 1 { "\r\n" } else { "\n" };
            let mut text = lines.join(sep);
            if final_newline == 1 && !text.is_empty() {
                text.push_str(sep);
            }
            assert_equivalent(text.as_bytes(), threads);
        }
    }
}
