//! Parallel, zero-copy ingestion of job accounting text.
//!
//! Mirrors `raslog::ingest`: the whole log is held in memory once, split
//! into newline-aligned byte chunks ([`bgp_model::bytes::line_chunks`]), and
//! parsed on scoped threads with the allocation-free byte parser
//! ([`crate::parse::parse_line_bytes`]).
//!
//! ## Equivalence contract
//!
//! For valid-UTF-8 input, [`parse_log_bytes`] is *bit-identical* to draining
//! a [`crate::JobReader`] over the same bytes: same jobs in the same order,
//! same errors with the same global 1-based line numbers (blank lines are
//! counted but skipped, trailing `\r` runs are trimmed, text after the last
//! newline counts as a final line). The integration tests pin this
//! record-for-record and error-for-error.

use crate::parse::{parse_line_bytes, JobParseError};
use crate::record::JobRecord;
use bgp_model::bytes::{find_byte, line_chunks, map_chunks_parallel};

/// Per-chunk parse output, with chunk-local line numbers.
struct ChunkOut {
    jobs: Vec<JobRecord>,
    errors: Vec<JobParseError>,
    lines: u64,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the chunk parser is the parser crate's own parallel driver of its line parser"
)]
fn parse_chunk(chunk: &[u8]) -> ChunkOut {
    let mut out = ChunkOut {
        // Accounting lines run ~70 bytes; presize to keep reallocation off
        // the hot path.
        jobs: Vec::with_capacity(chunk.len() / 70 + 1),
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
            Ok(j) => out.jobs.push(j),
            Err(mut e) => {
                e.line = out.lines;
                out.errors.push(e);
            }
        }
    }
    out
}

/// Parse a whole job log held in memory, tolerantly, on up to `threads`
/// scoped worker threads (`0` and `1` both mean "parse inline").
///
/// Returns the jobs in input order and the malformed lines with their global
/// 1-based line numbers — exactly what
/// [`crate::JobReader::read_tolerant`] returns for the same bytes.
pub fn parse_log_bytes(data: &[u8], threads: usize) -> (Vec<JobRecord>, Vec<JobParseError>) {
    let chunks = line_chunks(data, threads);
    let parts = map_chunks_parallel(&chunks, |c| parse_chunk(c));
    let total: usize = parts.iter().map(|p| p.jobs.len()).sum();
    let mut jobs = Vec::with_capacity(total);
    let mut errors = Vec::new();
    let mut line_offset = 0u64;
    for part in parts {
        for mut e in part.errors {
            e.line += line_offset;
            errors.push(e);
        }
        jobs.extend(part.jobs);
        line_offset += part.lines;
    }
    (jobs, errors)
}

/// Strict variant of [`parse_log_bytes`]: fail on the first malformed line
/// (by global line number), like [`crate::JobReader::read_strict`].
#[expect(
    clippy::disallowed_methods,
    reason = "the strict variant is defined over the tolerant one beside it"
)]
pub fn parse_log_bytes_strict(
    data: &[u8],
    threads: usize,
) -> Result<Vec<JobRecord>, JobParseError> {
    let (jobs, errors) = parse_log_bytes(data, threads);
    match errors.into_iter().next() {
        None => Ok(jobs),
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
    use crate::parse::JobReader;
    use crate::record::{ExecId, ExitStatus, ProjectId, UserId};
    use crate::write::format_record;
    use bgp_model::Timestamp;
    use proptest::prelude::*;

    fn job(n: u64) -> JobRecord {
        JobRecord {
            job_id: n,
            exec: ExecId((n % 50) as u32),
            user: UserId((n % 7) as u32),
            project: ProjectId((n % 3) as u32),
            queue_time: Timestamp::from_unix(1000 + n as i64),
            start_time: Timestamp::from_unix(2000 + n as i64),
            end_time: Timestamp::from_unix(3000 + n as i64),
            partition: "R10-R11".parse().unwrap(),
            exit: match n % 3 {
                0 => ExitStatus::Completed,
                1 => ExitStatus::Failed((n % 200) as u16),
                _ => ExitStatus::Cancelled,
            },
        }
    }

    fn assert_equivalent(text: &[u8], threads: usize) {
        let (serial_jobs, serial_errs) = match std::str::from_utf8(text) {
            Ok(_) => JobReader::new(text).read_tolerant(),
            Err(_) => return, // streaming reader can't represent this input
        };
        let (jobs, errs) = parse_log_bytes(text, threads);
        assert_eq!(jobs, serial_jobs, "jobs diverge at threads={threads}");
        assert_eq!(errs, serial_errs, "errors diverge at threads={threads}");
    }

    #[test]
    fn matches_serial_reader_across_chunk_counts() {
        let mut text = String::new();
        for i in 0..80 {
            if i % 11 == 0 {
                text.push_str("9|not|enough\n");
            }
            if i % 5 == 0 {
                text.push('\n');
            }
            text.push_str(&format_record(&job(i)));
            text.push('\n');
        }
        text.push_str("999|truncated");
        for threads in [0, 1, 2, 3, 7, 16] {
            assert_equivalent(text.as_bytes(), threads);
        }
    }

    #[test]
    fn strict_matches_first_error() {
        let good = format_record(&job(1));
        let text = format!("{good}\njunk\n");
        assert_eq!(
            parse_log_bytes_strict(text.as_bytes(), 4).unwrap_err().line,
            2
        );
    }

    /// One line of input for the boundary proptest.
    fn arb_line() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u64..1000).prop_map(|i| format_record(&job(i))),
            (0u8..1).prop_map(|_| String::new()),
            (0u8..1).prop_map(|_| "\r".to_owned()),
            // Field-count and field-content failures.
            (0u8..12).prop_map(|n| "x|".repeat(usize::from(n))),
            (0u64..1000).prop_map(|i| format_record(&job(i)).replace("app", "äpp")),
        ]
    }

    proptest! {
        #[test]
        fn equivalence_over_nasty_boundaries(
            lines in collection::vec(arb_line(), 0..30),
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
