//! Parallel ingestion of job accounting text.
//!
//! Mirrors `raslog::ingest`: newline-aligned runs of whole lines — from a
//! buffer in memory split by [`bgp_model::bytes::line_chunks`]
//! ([`parse_log_bytes`]), or from a file streamed through fixed per-worker
//! windows by [`bgp_model::bytes::stream_lines`] ([`parse_log_file`]) — are
//! parsed on scoped threads by one chunk parser over the allocation-free
//! byte parser ([`crate::parse::parse_line_bytes`]), and the workers'
//! outputs fold in input order.
//!
//! ## Equivalence contract
//!
//! For valid-UTF-8 input, [`parse_log_bytes`] is *bit-identical* to draining
//! a [`crate::JobReader`] over the same bytes: same jobs in the same order,
//! same errors with the same global 1-based line numbers (blank lines are
//! counted but skipped, trailing `\r` runs are trimmed, text after the last
//! newline counts as a final line). The integration tests pin this
//! record-for-record and error-for-error. A file parsed with
//! [`parse_log_file`] gives exactly what its bytes give [`parse_log_bytes`].

use crate::parse::{parse_line_bytes, JobParseError};
use crate::record::JobRecord;
use bgp_model::bytes::{line_chunks, map_chunks_parallel, stream_lines};
use std::fs::File;
use std::io;

/// One worker's parse output, with line numbers local to the worker.
struct Chunk {
    jobs: Vec<JobRecord>,
    errors: Vec<JobParseError>,
    lines: u64,
}

impl Chunk {
    /// An empty accumulator for a run of `bytes` bytes of text.
    fn new(bytes: u64) -> Chunk {
        Chunk {
            // Accounting lines run ~70 bytes; presize to keep reallocation
            // off the hot path.
            jobs: Vec::with_capacity(usize::try_from(bytes / 70).unwrap_or(0) + 1),
            errors: Vec::new(),
            lines: 0,
        }
    }

    /// Parse the lines of `text`, numbering them on from the lines already
    /// parsed.
    #[expect(
        clippy::disallowed_methods,
        reason = "the chunk parser is the parser crate's own parallel driver of its line parser"
    )]
    fn feed(&mut self, text: &[u8]) {
        let mut lines = bgp_model::bytes::lines(text);
        for (number, line) in &mut lines {
            match parse_line_bytes(line) {
                Ok(j) => self.jobs.push(j),
                Err(mut e) => {
                    e.line = self.lines + number;
                    self.errors.push(e);
                }
            }
        }
        self.lines += lines.number();
    }
}

/// Fold the workers' outputs, in input order, into global line numbers.
fn fold(parts: Vec<Chunk>) -> (Vec<JobRecord>, Vec<JobParseError>) {
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

/// Parse a whole job log held in memory, tolerantly, on up to `threads`
/// scoped worker threads (`0` and `1` both mean "parse inline").
///
/// Returns the jobs in input order and the malformed lines with their global
/// 1-based line numbers — exactly what
/// [`crate::JobReader::read_tolerant`] returns for the same bytes.
pub fn parse_log_bytes(data: &[u8], threads: usize) -> (Vec<JobRecord>, Vec<JobParseError>) {
    let chunks = line_chunks(data, threads);
    fold(map_chunks_parallel(&chunks, |text| {
        let mut chunk = Chunk::new(text.len() as u64);
        chunk.feed(text);
        chunk
    }))
}

/// [`parse_log_bytes`] over a file's bytes, streamed through fixed
/// per-worker windows ([`stream_lines`]) instead of held in memory, and
/// with their content hash if `hash` is set
/// ([`bgp_model::bytes::content_hash_64`] of the bytes parsed, computed in
/// the same pass).
///
/// The jobs and errors are exactly what the file's bytes give
/// [`parse_log_bytes`]. A read failure — including a file that shrinks
/// during the parse — is an error, never a short parse.
pub fn parse_log_file(
    file: &File,
    threads: usize,
    hash: bool,
) -> io::Result<(Vec<JobRecord>, Vec<JobParseError>, Option<u64>)> {
    let (parts, hash) = stream_lines(file, threads, hash, Chunk::new, Chunk::feed)?;
    let (jobs, errors) = fold(parts);
    Ok((jobs, errors, hash))
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

    /// The file parse of `text` equals the in-memory parse, hashes its
    /// bytes, and accounts for every line: lines = jobs + diagnostics +
    /// blank lines.
    fn assert_file_parse_equivalent(text: &[u8], threads: usize) {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "joblog-ingest-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&path, text).unwrap();
        let file = File::open(&path).unwrap();
        let (want, want_errs) = parse_log_bytes(text, threads);
        for hash in [false, true] {
            let (jobs, errs, got_hash) = parse_log_file(&file, threads, hash).unwrap();
            assert_eq!(jobs, want, "threads={threads}");
            assert_eq!(errs, want_errs, "threads={threads}");
            assert_eq!(
                got_hash,
                hash.then(|| bgp_model::bytes::content_hash_64(text))
            );
        }
        let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
        if text.last().is_none_or(|&b| b == b'\n') {
            lines.pop();
        }
        let blank = lines
            .iter()
            .filter(|l| l.iter().all(|&b| b == b'\r'))
            .count();
        assert_eq!(
            want.len() + want_errs.len() + blank,
            lines.len(),
            "line accounting"
        );
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #[test]
        fn file_parse_matches_memory_parse(
            lines in collection::vec(arb_line(), 0..30),
            crlf in 0u8..2,
            final_newline in 0u8..2,
            threads in 1usize..9,
        ) {
            let sep = if crlf == 1 { "\r\n" } else { "\n" };
            let mut text = lines.join(sep);
            if final_newline == 1 && !text.is_empty() {
                text.push_str(sep);
            }
            assert_file_parse_equivalent(text.as_bytes(), threads);
        }
    }

    #[test]
    fn file_parse_spans_workers_and_blocks() {
        let mut text = Vec::new();
        let mut i = 0;
        while text.len() < 2 * bgp_model::bytes::HASH_BLOCK + 5000 {
            text.extend_from_slice(format_record(&job(i)).as_bytes());
            text.extend_from_slice(if i % 3 == 0 { b"\r\n" } else { b"\n" });
            if i % 997 == 0 {
                text.extend_from_slice(b"junk|line\n\n");
            }
            i += 1;
        }
        for threads in [1, 2, 3, 8] {
            assert_file_parse_equivalent(&text, threads);
        }
    }
}
