//! Adversarial bytes through every adapter: NUL, `0xff`, lone `\r`, field
//! separators, i64-edge numbers, valid BG/P lines and 1 MiB lines, spliced
//! at random. Every batch decoder (at 1 and 3 threads), the cassette
//! adapter wrapping each inner format, and both streaming `LineDecoder`s
//! must return instead of panicking. The line formats must also account
//! for their input: each line yields at most one record or one diagnostic.

#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_ports::cassette::{Recorder, StreamKind};
use bgp_ports::{job_source, ras_source, LineDecoder, LogFormat, SourceBatch};
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

/// Upper bound on the lines a decoder may report on: every `\n`-separated
/// segment, counting an unterminated tail.
fn lines(data: &[u8]) -> usize {
    data.split(|&b| b == b'\n').count()
}

fn assert_accounted<R>(batch: &SourceBatch<R>, data: &[u8], what: &str) {
    let reported = batch.records.len() + batch.diagnostics.len();
    assert!(
        reported <= lines(data),
        "{what}: {} records + {} diagnostics from {} lines",
        batch.records.len(),
        batch.diagnostics.len(),
        lines(data)
    );
}

/// `data` recorded as a one-frame cassette of `format`.
fn cassette(format: LogFormat, kind: StreamKind, data: &[u8]) -> Vec<u8> {
    let mut rec = Recorder::new(format, kind).unwrap();
    rec.push(0, data);
    rec.finish().encode()
}

const LINE_FORMATS: [LogFormat; 3] = [LogFormat::Bgp, LogFormat::Bgq, LogFormat::Syslog];

proptest! {
    #[test]
    fn ras_adapters_never_panic_and_account_for_every_line(data in arb_input()) {
        for threads in [1, 3] {
            for format in LINE_FORMATS {
                let what = format!("{format} RAS at {threads} threads");
                let batch = ras_source(format).decode_ras(&data, threads).unwrap();
                assert_accounted(&batch, &data, &what);
                // The same bytes replayed from a cassette decode the same.
                let wrapped = cassette(format, StreamKind::Ras, &data);
                let replayed = ras_source(LogFormat::Cassette)
                    .decode_ras(&wrapped, threads)
                    .unwrap();
                prop_assert_eq!(&replayed, &batch, "{} via cassette", what);
            }
            // Raw bytes are no cassette: a typed error, never a panic.
            let _ = ras_source(LogFormat::Cassette).decode_ras(&data, threads);
        }
    }

    #[test]
    fn job_adapters_never_panic_and_account_for_every_line(data in arb_input()) {
        for threads in [1, 3] {
            for format in [LogFormat::Bgp, LogFormat::Bgq] {
                let what = format!("{format} jobs at {threads} threads");
                let batch = job_source(format).unwrap().decode_jobs(&data, threads).unwrap();
                assert_accounted(&batch, &data, &what);
                let wrapped = cassette(format, StreamKind::Job, &data);
                let replayed = job_source(LogFormat::Cassette)
                    .unwrap()
                    .decode_jobs(&wrapped, threads)
                    .unwrap();
                prop_assert_eq!(&replayed, &batch, "{} via cassette", what);
            }
            let _ = job_source(LogFormat::Cassette)
                .unwrap()
                .decode_jobs(&data, threads);
        }
    }

    #[test]
    fn line_decoders_never_panic(data in arb_input()) {
        for format in [LogFormat::Bgp, LogFormat::Syslog] {
            let decoder = LineDecoder::for_format(format).unwrap();
            for line in data.split(|&b| b == b'\n') {
                let _ = decoder.decode_line(line);
            }
        }
    }
}
