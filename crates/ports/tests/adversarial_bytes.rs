//! Adversarial bytes through every adapter: NUL, `0xff`, lone `\r`, field
//! separators, i64-edge numbers, valid BG/P lines, whole CR-only, comment,
//! separator-only and over-limit lines, and 1 MiB lines, spliced at random.
//! Every batch decoder (at 1 and 3 threads), the cassette replay of each
//! inner format, and both streaming `LineDecoder`s must return instead of
//! panicking. Each must also account for every line of
//! its input: records + diagnostics + skipped lines = lines, where the test
//! counts the skipped lines itself, and the daemon's line decoders must
//! agree with the batch decoders on the same bytes.

#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_ports::cassette::{Recorder, StreamKind};
use bgp_ports::{decode_ras, LineDecoder, LineOutcome, LogFormat, SourceBatch};
use proptest::prelude::*;

/// The small pieces inputs are spliced from.
fn pieces() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = [
        &b"\0"[..],
        b"\xff",
        b"\r",
        b"\n",
        b"\r\n",
        b"|",
        b",",
        b"#",
        b" ",
        b"9223372036854775807",
        b"-9223372036854775808",
        b"9223372036854775808",
        b"18446744073709551615",
        b"-1",
        b"0",
        b"FATAL",
        b"_bgp_err_kernel_panic",
        b"R12-M1-N07-J03",
        b"2009-01-05-00.19.08",
        b"<11>Jan  5 00:19:08 ionode7 kernel: panic",
        b"7,1236000000,FATAL,_bgp_err_kernel_panic,R12-M1-N07-J03",
    ]
    .iter()
    .map(|p| p.to_vec())
    .collect();
    // A valid BG/P RAS line, and one with its MESSAGE cut mid-field.
    let ras = b"93|KERN_0063|KERNEL|CNS|_bgp_err_kernel_panic|FATAL|\
2009-01-05-00.19.08|R06-M0-N13-J04|kernel panic\n";
    out.push(ras.to_vec());
    out.push(ras[..40].to_vec());
    // Whole adversarial lines: each opens with `\n`, so it is a line of its
    // own wherever it lands. CR-only lines, a comment, separators only, and
    // a valid record longer than the daemon's default 64 KiB line limit.
    for line in [&b"\r\r\n"[..], b"\r\n", b"# note\r\n", b"||||\n"] {
        out.push([&b"\n"[..], line].concat());
    }
    let mut long = b"\n".to_vec();
    long.extend_from_slice(&ras[..ras.len() - 1]);
    long.extend(std::iter::repeat_n(b'x', 64 * 1024));
    long.push(b'\n');
    out.push(long);
    out
}

/// A spliced input: up to 48 pieces, and one time in eight a 1 MiB line.
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    let n = pieces().len();
    (collection::vec(0..n, 0..48), 0u8..8, 0..n).prop_map(move |(picks, giant, at)| {
        let pieces = pieces();
        let mut out = Vec::new();
        for (i, &p) in picks.iter().enumerate() {
            if giant == 0 && i == at.min(picks.len().saturating_sub(1)) {
                out.extend(std::iter::repeat_n(b'7', 1 << 20));
            }
            out.extend_from_slice(&pieces[p]);
        }
        out
    })
}

/// The lines of `data` as the test reads them, independently of the
/// decoders: split at `\n`, an unterminated tail counting as a last line,
/// each with its trailing `\r` run trimmed.
fn lines(data: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    if data.last().is_none_or(|&b| b == b'\n') {
        lines.pop();
    }
    for line in &mut lines {
        while let Some(rest) = line.strip_suffix(b"\r") {
            *line = rest;
        }
    }
    lines
}

/// How many lines of `data` are blank, and how many are `#` comments.
fn blank_and_comment_lines(data: &[u8]) -> (usize, usize) {
    let lines = lines(data);
    let blank = lines.iter().filter(|l| l.is_empty()).count();
    let comment = lines.iter().filter(|l| l.starts_with(b"#")).count();
    (blank, comment)
}

/// Records + diagnostics + skipped lines = lines: blank lines are skipped
/// by every format, `#` comments only where `skips_comments`.
fn assert_accounted<R>(batch: &SourceBatch<R>, data: &[u8], skips_comments: bool, what: &str) {
    let (blank, comment) = blank_and_comment_lines(data);
    let skipped = blank + if skips_comments { comment } else { 0 };
    assert_eq!(
        batch.records.len() + batch.diagnostics.len() + skipped,
        lines(data).len(),
        "{what}: {} records + {} diagnostics + {skipped} skipped",
        batch.records.len(),
        batch.diagnostics.len(),
    );
}

/// The daemon's line decoder for `format`, fed `data` split at `\n`, gives
/// the batch decoder's records (for syslog up to `recid`: the batch takes
/// it from the line number, the daemon from a counter) and one malformed
/// line per batch diagnostic, less the `#` lines the BG/P batch reports.
fn assert_line_decoder_agrees(
    format: LogFormat,
    data: &[u8],
    batch: &SourceBatch<raslog::RasRecord>,
) {
    let decoder = LineDecoder::for_format(format).unwrap();
    let mut records = Vec::new();
    let mut malformed = 0;
    for line in data.split(|&b| b == b'\n') {
        match decoder.decode_line(line) {
            LineOutcome::Record(r) => records.push(*r),
            LineOutcome::Skip => {}
            LineOutcome::Malformed(_) => malformed += 1,
        }
    }
    let mut want = batch.records.clone();
    if format == LogFormat::Syslog {
        for r in records.iter_mut().chain(&mut want) {
            r.recid = 0;
        }
    }
    assert_eq!(records, want, "{format} line decoder records");
    let (_, comment) = blank_and_comment_lines(data);
    let reported_comments = if format == LogFormat::Bgp { comment } else { 0 };
    assert_eq!(
        malformed + reported_comments,
        batch.diagnostics.len(),
        "{format} line decoder malformed lines"
    );
}

/// `data` recorded as a one-frame cassette of `format`.
fn cassette(format: LogFormat, kind: StreamKind, data: &[u8]) -> Vec<u8> {
    let mut rec = Recorder::new(format, kind).unwrap();
    rec.push(0, data);
    rec.finish().encode()
}

const LINE_FORMATS: [LogFormat; 3] = [LogFormat::Bgp, LogFormat::Bgq, LogFormat::Syslog];

/// CR-only lines (`\r\r\n`, and an unterminated `\r\r` at the end) are
/// blank to the batch decoders and to the daemon's line decoders alike.
#[test]
fn cr_only_lines_are_blank_on_every_path() {
    let ras = "93|KERN_0063|KERNEL|CNS|_bgp_err_kernel_panic|FATAL|\
2009-01-05-00.19.08|R06-M0-N13-J04|kernel panic";
    let syslog = "<11>Jan  5 00:19:08 ionode7 kernel: panic";
    let data = format!("\r\r\n{ras}\r\r\n\r\r\r\n{syslog}\r\r\n# note\r\r\n\r\r");
    for format in [LogFormat::Bgp, LogFormat::Syslog] {
        let batch = decode_ras(format, data.as_bytes(), 1).unwrap();
        assert_eq!(batch.records.len(), 1, "{format}");
        assert_accounted(
            &batch,
            data.as_bytes(),
            format != LogFormat::Bgp,
            &format.to_string(),
        );
        assert_line_decoder_agrees(format, data.as_bytes(), &batch);
    }
}

proptest! {
    #[test]
    fn ras_adapters_never_panic_and_account_for_every_line(data in arb_input()) {
        for threads in [1, 3] {
            for format in LINE_FORMATS {
                let what = format!("{format} RAS at {threads} threads");
                let batch = decode_ras(format, &data, threads).unwrap();
                assert_accounted(&batch, &data, format != LogFormat::Bgp, &what);
                if format != LogFormat::Bgq {
                    assert_line_decoder_agrees(format, &data, &batch);
                }
                // The same bytes replayed from a cassette decode the same.
                let wrapped = cassette(format, StreamKind::Ras, &data);
                let replayed = decode_ras(LogFormat::Cassette, &wrapped, threads).unwrap();
                prop_assert_eq!(&replayed, &batch, "{} via cassette", what);
            }
            // Raw bytes are no cassette: a typed error, never a panic.
            let _ = decode_ras(LogFormat::Cassette, &data, threads);
        }
    }

    #[test]
    fn job_adapters_never_panic_and_account_for_every_line(data in arb_input()) {
        for threads in [1, 3] {
            let what = format!("bgp jobs at {threads} threads");
            let batch = bgp_ports::bgp::decode_jobs(&data, threads);
            assert_accounted(&batch, &data, false, &what);
        }
        let batch = bgp_ports::bgq::decode_jobs(&data);
        assert_accounted(&batch, &data, true, "bgq jobs");
    }
}
