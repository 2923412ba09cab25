//! Parallel ingestion of RAS log text.
//!
//! The streaming [`crate::RasReader`] pays one `read_line` (with UTF-8
//! validation and a `String` copy) per record. At paper scale — two million
//! records — that serial front door dominates end-to-end latency now that the
//! analysis stages run concurrently. This module parses newline-aligned runs
//! of whole lines on scoped threads, one accumulator per worker, and folds
//! the workers' outputs in input order. Each worker walks its lines with
//! [`bgp_model::bytes::lines`] and parses them with its own allocation-free
//! [`RasLineParser`], whose day memo reads a time on the day of the line
//! before from its `HH.MM.SS` alone; [`crate::parse::parse_line_bytes`] is
//! a fresh parser's parse, so both read every line alike. The runs come
//! either from a byte buffer already in memory, split by
//! [`bgp_model::bytes::line_chunks`] ([`parse_log_bytes_where`]), or from a
//! file streamed through fixed per-worker windows by
//! [`bgp_model::bytes::stream_lines`] ([`parse_log_file_where`]), which can
//! build the file's `.bgpsnap` on the way: each worker appends the snapshot
//! columns of every record it parses ([`crate::snapshot::Snapshot`]) while
//! the reader hashes the same bytes. Either way one chunk parser parses
//! them, generic over what it builds beside the projection, so a parse that
//! builds no snapshot pays nothing for the option.
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
//! helps nobody. A file parsed with [`parse_log_file_where`] gives exactly
//! what its bytes give [`parse_log_bytes_where`].
//!
//! ## Projection
//!
//! [`parse_log_bytes_where`] and [`parse_log_file_where`] keep only the
//! records a predicate accepts and tally the rest ([`Projection`]);
//! [`parse_log_bytes`] and [`parse_log_file`] are their keep-everything
//! cases. A projection changes which records are *built*, never which lines
//! are parsed: the errors are the same either way.

use crate::log::Projection;
use crate::parse::{RasLineParser, RasParseError};
use crate::record::RasRecord;
use crate::snapshot::{Rows, Snapshot};
use bgp_model::bytes::{line_chunks, map_chunks_parallel, stream_lines};
use std::fs::File;
use std::io;

/// What a chunk parser builds of every record it parses, beside its
/// projection: nothing (`()`), or the record's snapshot rows ([`Rows`]).
/// A type parameter, so a parse that builds nothing compiles to none of it.
trait Sink: Send {
    /// An empty sink with room for `rows` records.
    fn with_capacity(rows: usize) -> Self;
    /// Take one parsed record, in input order.
    fn push(&mut self, record: &RasRecord);
}

impl Sink for () {
    fn with_capacity(_: usize) {}
    #[inline]
    fn push(&mut self, _: &RasRecord) {}
}

impl Sink for Rows {
    fn with_capacity(rows: usize) -> Rows {
        Rows::with_capacity(rows)
    }
    #[inline]
    fn push(&mut self, record: &RasRecord) {
        Rows::push(self, record);
    }
}

/// One worker's parse output, with line numbers local to the worker.
struct Chunk<S> {
    kept: Projection,
    errors: Vec<RasParseError>,
    lines: u64,
    parser: RasLineParser,
    sink: S,
}

impl<S: Sink> Chunk<S> {
    /// An empty accumulator for a run of `bytes` bytes of text.
    fn new(bytes: u64) -> Chunk<S> {
        // Records vastly outnumber errors in real logs; size for ~90 bytes
        // per line to keep reallocation off the hot path. A projection that
        // keeps few records only touches the pages it fills.
        let rows = usize::try_from(bytes / 90).unwrap_or(0) + 1;
        Chunk {
            kept: Projection::with_capacity(rows),
            errors: Vec::new(),
            lines: 0,
            parser: RasLineParser::default(),
            sink: S::with_capacity(rows),
        }
    }

    /// Parse the lines of `text`, numbering them on from the lines already
    /// parsed, and keep the records `keep` accepts.
    #[expect(
        clippy::disallowed_methods,
        reason = "the chunk parser is the parser crate's own parallel driver of its line parser"
    )]
    fn feed(&mut self, text: &[u8], keep: &impl Fn(&RasRecord) -> bool) {
        let mut lines = bgp_model::bytes::lines(text);
        for (number, line) in &mut lines {
            match self.parser.parse(line) {
                Ok(r) => {
                    self.sink.push(&r);
                    self.kept.push(r, keep);
                }
                Err(mut e) => {
                    e.line = self.lines + number;
                    self.errors.push(e);
                }
            }
        }
        self.lines += lines.number();
    }
}

/// What the workers parsed, folded in input order: the projection, the
/// errors with their global line numbers, and each worker's sink.
type Folded<S> = (Projection, Vec<RasParseError>, Vec<S>);

/// Fold the workers' outputs, in input order, into global line numbers.
/// The later workers' kept records are appended to the first worker's
/// buffer, never all copied into a fresh one.
fn fold<S>(parts: Vec<Chunk<S>>) -> Folded<S> {
    let mut kept: Option<Projection> = None;
    let mut errors = Vec::new();
    let mut sinks = Vec::with_capacity(parts.len());
    let mut line_offset = 0u64;
    for part in parts {
        for mut e in part.errors {
            e.line += line_offset;
            errors.push(e);
        }
        match &mut kept {
            Some(kept) => kept.append(part.kept),
            None => kept = Some(part.kept),
        }
        sinks.push(part.sink);
        line_offset += part.lines;
    }
    (kept.unwrap_or_default(), errors, sinks)
}

/// Parse `data` on up to `threads` workers, one run of whole lines each.
fn parse_chunks<S: Sink>(
    data: &[u8],
    threads: usize,
    keep: impl Fn(&RasRecord) -> bool + Sync,
) -> Folded<S> {
    let chunks = line_chunks(data, threads);
    fold(map_chunks_parallel(&chunks, |text| {
        let mut chunk = Chunk::<S>::new(text.len() as u64);
        chunk.feed(text, &keep);
        chunk
    }))
}

/// Stream `file` to up to `threads` workers ([`stream_lines`]), hashing
/// its bytes on the way if `hash` is set.
fn parse_stream<S: Sink>(
    file: &File,
    threads: usize,
    hash: bool,
    keep: impl Fn(&RasRecord) -> bool + Sync,
) -> io::Result<(Folded<S>, Option<u64>)> {
    let (parts, hash) = stream_lines(file, threads, hash, Chunk::<S>::new, |chunk, text| {
        chunk.feed(text, &keep);
    })?;
    Ok((fold(parts), hash))
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
    let (kept, errors, _) = parse_chunks::<()>(data, threads, keep);
    (kept, errors)
}

/// [`parse_log_bytes_where`] over a file's bytes, streamed through fixed
/// per-worker windows ([`stream_lines`]) instead of held in memory, and
/// with the file's `.bgpsnap` if `snapshot` is set.
///
/// The records, errors and tally are exactly what the file's bytes give
/// [`parse_log_bytes_where`]. The snapshot holds every record parsed,
/// whatever `keep` keeps, and is stamped with the content hash of the
/// bytes parsed ([`bgp_model::bytes::content_hash_64`]): each worker
/// builds the snapshot rows of its records as it parses them, the reader
/// hashes the same bytes in the same pass, and the rows are written out in
/// worker order, so its bytes are exactly [`crate::snapshot::encode_snapshot`]
/// of the records [`parse_log_file`] returns. A read failure — including a
/// file that shrinks during the parse — is an error, never a short parse.
pub fn parse_log_file_where(
    file: &File,
    threads: usize,
    snapshot: bool,
    keep: impl Fn(&RasRecord) -> bool + Sync,
) -> io::Result<(Projection, Vec<RasParseError>, Option<Snapshot>)> {
    if !snapshot {
        let ((kept, errors, _), _) = parse_stream::<()>(file, threads, false, keep)?;
        return Ok((kept, errors, None));
    }
    let ((kept, errors, runs), hash) = parse_stream::<Rows>(file, threads, true, keep)?;
    // The reader returns a hash whenever it is asked for one.
    let snapshot = Snapshot::new(runs, hash.unwrap_or_default());
    Ok((kept, errors, Some(snapshot)))
}

/// [`parse_log_file_where`] keeping every record, like [`parse_log_bytes`].
#[expect(
    clippy::disallowed_methods,
    reason = "the keep-all case is defined over the projecting parser beside it"
)]
pub fn parse_log_file(
    file: &File,
    threads: usize,
    snapshot: bool,
) -> io::Result<(Vec<RasRecord>, Vec<RasParseError>, Option<Snapshot>)> {
    let (kept, errors, snapshot) = parse_log_file_where(file, threads, snapshot, |_| true)?;
    Ok((kept.records, errors, snapshot))
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

    /// `text` in a fresh temp file, open for reading, and its path.
    fn temp_file(text: &[u8]) -> (std::path::PathBuf, File) {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "raslog-ingest-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&path, text).unwrap();
        let file = File::open(&path).unwrap();
        (path, file)
    }

    /// Lines in `text` (text after the last `\n` counts as one) and how
    /// many of them are blank once trailing `\r`s are trimmed.
    fn line_counts(text: &[u8]) -> (usize, usize) {
        let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
        if text.last().is_none_or(|&b| b == b'\n') {
            lines.pop();
        }
        let blank = lines
            .iter()
            .filter(|l| l.iter().all(|&b| b == b'\r'))
            .count();
        (lines.len(), blank)
    }

    /// The `.bgpsnap` of the records `text` parses, stamped with its hash:
    /// what every parse that builds a snapshot must write.
    fn encoded(text: &[u8]) -> Vec<u8> {
        let hash = bgp_model::bytes::content_hash_64(text);
        crate::snapshot::encode_snapshot(&parse_log_bytes(text, 1).0, hash)
    }

    /// What `snapshot` writes through [`Snapshot::write_to`].
    fn written(snapshot: &Snapshot) -> Vec<u8> {
        let mut out = Vec::new();
        snapshot.write_to(&mut out).unwrap();
        out
    }

    /// The file parse of `text` equals the in-memory parse (records, errors
    /// with their global line numbers, tally), writes the snapshot of every
    /// record when asked, whatever it keeps, and accounts for every line:
    /// lines = records + diagnostics + blank lines.
    fn assert_file_parse_equivalent(text: &[u8], threads: usize) {
        let (path, file) = temp_file(text);
        let fatal = RasRecord::is_fatal;
        let (want, want_errs) = parse_log_bytes_where(text, threads, fatal);
        let snapshot = encoded(text);
        for build in [false, true] {
            let (kept, errs, got) = parse_log_file_where(&file, threads, build, fatal).unwrap();
            assert_eq!(kept, want, "threads={threads}");
            assert_eq!(errs, want_errs, "threads={threads}");
            assert_eq!(got.as_ref().map(written), build.then(|| snapshot.clone()));
        }
        let (all, errs, got) = parse_log_file(&file, threads, true).unwrap();
        assert_eq!(all, parse_log_bytes(text, threads).0);
        assert_eq!(got.as_ref().map(written), Some(snapshot));
        let (lines, blank) = line_counts(text);
        assert_eq!(want.parsed() + errs.len() + blank, lines, "line accounting");
        assert_eq!(want.parsed(), all.len());
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #[test]
        fn file_parse_matches_memory_parse(
            lines in collection::vec(arb_line(), 0..40),
            crlf in 0u8..2,
            final_newline in 0u8..2,
            binary in 0u8..2,
            threads in 1usize..9,
        ) {
            let sep: &[u8] = if crlf == 1 { b"\r\n" } else { b"\n" };
            let mut lines: Vec<Vec<u8>> = lines.into_iter().map(String::into_bytes).collect();
            if binary == 1 {
                // Invalid UTF-8 in MESSAGE: parsed here, never validated.
                lines.push(format!("{}|", format_record(&record(7))).into_bytes());
                if let Some(last) = lines.last_mut() {
                    last.extend_from_slice(b"\xff\xfe \xc3");
                }
            }
            let mut text = lines.join(sep);
            if final_newline == 1 && !text.is_empty() {
                text.extend_from_slice(sep);
            }
            assert_file_parse_equivalent(&text, threads);
        }

        /// One accumulator fed any split of its text into runs of whole
        /// lines — what the file reader's windows hand it — parses it like
        /// one feed.
        #[test]
        fn chunk_parse_is_split_invariant(
            lines in collection::vec(arb_line(), 0..30),
            cuts in collection::vec(0usize..30, 0..8),
        ) {
            let text = lines.join("\n");
            let mut whole = Chunk::<()>::new(0);
            whole.feed(text.as_bytes(), &RasRecord::is_fatal);
            let mut starts: Vec<usize> = std::iter::once(0)
                .chain(text.match_indices('\n').map(|(i, _)| i + 1))
                .collect();
            starts.retain(|&s| s < text.len());
            let mut at: Vec<usize> = cuts.iter().filter_map(|&c| starts.get(c).copied()).collect();
            at.sort_unstable();
            at.dedup();
            let mut split = Chunk::<()>::new(0);
            let mut from = 0;
            for cut in at.into_iter().chain([text.len()]) {
                split.feed(&text.as_bytes()[from..cut], &RasRecord::is_fatal);
                from = cut;
            }
            prop_assert_eq!(split.kept, whole.kept);
            prop_assert_eq!(split.errors, whole.errors);
            prop_assert_eq!(split.lines, whole.lines);
        }
    }

    /// `lines` with their records' severity set by `mode`: as written
    /// (FATAL) in mode 1, INFO in mode 2, and alternately in mode 0.
    fn with_severities(lines: Vec<String>, mode: u8) -> Vec<String> {
        lines
            .into_iter()
            .enumerate()
            .map(|(i, line)| match (mode, i % 2) {
                (1, _) | (0, 0) => line,
                _ => line.replace("|FATAL|", "|INFO|"),
            })
            .collect()
    }

    proptest! {
        /// The snapshot the workers build as they parse is, byte for byte,
        /// the encoder's snapshot of the whole parse: from runs of lines in
        /// memory (so small inputs still split between 1 to 8 workers) and
        /// from a file, keeping the FATAL records or every record.
        #[test]
        fn worker_snapshot_is_the_encoded_parse(
            lines in collection::vec(arb_line(), 0..40),
            mode in 0u8..3,
            crlf in 0u8..2,
            final_newline in 0u8..2,
            binary in 0u8..2,
        ) {
            let sep: &[u8] = if crlf == 1 { b"\r\n" } else { b"\n" };
            let mut lines: Vec<Vec<u8>> = with_severities(lines, mode)
                .into_iter()
                .map(String::into_bytes)
                .collect();
            if binary == 1 {
                lines.push(b"garbage \xff\xfe | \xc3".to_vec());
            }
            let mut text = lines.join(sep);
            if final_newline == 1 && !text.is_empty() {
                text.extend_from_slice(sep);
            }
            let want = encoded(&text);
            let hash = bgp_model::bytes::content_hash_64(&text);
            let (path, file) = temp_file(&text);
            let keeps: [fn(&RasRecord) -> bool; 2] = [RasRecord::is_fatal, |_| true];
            for threads in 1..=8 {
                for keep in keeps {
                    let (_, _, runs) = parse_chunks::<Rows>(&text, threads, keep);
                    prop_assert_eq!(written(&Snapshot::new(runs, hash)), want.clone());
                    let (_, _, got) = parse_log_file_where(&file, threads, true, keep).unwrap();
                    prop_assert_eq!(got.as_ref().map(written), Some(want.clone()));
                }
            }
            drop(file);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn file_parse_spans_workers_and_blocks() {
        // Two million bytes of records, then a garbage line longer than a
        // hash block (it spans the boundary of two workers' ranges), then
        // more records with CRLF endings and no final newline.
        let mut text = Vec::new();
        let mut i = 0;
        while text.len() < 2 * bgp_model::bytes::HASH_BLOCK {
            text.extend_from_slice(format_record(&record(i)).as_bytes());
            text.push(b'\n');
            if i % 1000 == 0 {
                text.extend_from_slice(b"\n\r\r\ngarbage\n");
            }
            i += 1;
        }
        text.extend(std::iter::repeat_n(b'x', bgp_model::bytes::HASH_BLOCK + 99));
        text.push(b'\n');
        for j in 0..5000 {
            text.extend_from_slice(format_record(&record(j)).as_bytes());
            text.extend_from_slice(b"\r\n");
        }
        text.extend_from_slice(b"truncated|final");
        for threads in [1, 2, 3, 4, 8] {
            assert_file_parse_equivalent(&text, threads);
        }
    }
}
