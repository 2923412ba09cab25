//! The line-delimited ingest protocol.
//!
//! A client streams RAS records to the daemon as ordinary log lines — by
//! default the same nine-field pipe format `raslog` reads from disk, or any
//! other line-oriented format selected with `--format` — one record per
//! `\n`-terminated line. [`LineFramer`] cuts the byte stream into lines and
//! [`bgp_ports::LineDecoder`] classifies each one by the workspace line
//! rule: a line left blank once its trailing `\r` run is trimmed is
//! skipped, like a `#` comment, so `cat ras.log | nc HOST PORT` is a valid
//! client. The protocol is one-way: the daemon never writes on the ingest
//! socket; results are observed through the HTTP front-end.
//!
//! Robustness rules, enforced here and accounted in the metrics registry:
//!
//! * a line longer than the configured limit is dropped whole and the
//!   framer resynchronizes at the next newline (a malicious or corrupt
//!   client cannot balloon daemon memory);
//! * an unparsable line is counted and skipped — one bad record must not
//!   poison the stream.
//!
//! The framer is a pure byte-in/line-out state machine (no sockets, no
//! clocks), which makes it deterministic and its edge cases unit-testable.

/// Incremental newline framer with a hard per-line length limit.
///
/// Feed it arbitrary byte chunks as they arrive from a socket or file tail;
/// it invokes the sink once per complete line and reports how many lines it
/// had to drop for exceeding the limit.
#[derive(Debug)]
pub struct LineFramer {
    carry: Vec<u8>,
    max_line_bytes: usize,
    /// Inside an over-limit line, discarding until the next newline.
    skipping: bool,
}

impl LineFramer {
    /// A framer enforcing `max_line_bytes` per line.
    pub fn new(max_line_bytes: usize) -> LineFramer {
        LineFramer {
            carry: Vec::new(),
            max_line_bytes,
            skipping: false,
        }
    }

    /// The line length the limit applies to: one trailing `\r` is granted
    /// as part of a CRLF terminator and does not count against the limit —
    /// a maximal line must frame identically whether it arrives as `...\n`
    /// or `...\r\n`, and whether the `\r\n` is split across reads. (The
    /// decoder trims the whole `\r` run; the framer's grace stays one byte,
    /// which bounds the carry.)
    fn effective_len(&self, tail: &[u8]) -> usize {
        let total = self.carry.len() + tail.len();
        let ends_cr = tail.last().or(self.carry.last()) == Some(&b'\r');
        total - usize::from(ends_cr && total > 0)
    }

    /// Feed one chunk; complete lines go to `sink`. Returns the number of
    /// oversized lines dropped within this chunk.
    pub fn feed(&mut self, chunk: &[u8], sink: &mut impl FnMut(&[u8])) -> u64 {
        let mut dropped = 0u64;
        let mut rest = chunk;
        while let Some(nl) = bgp_model::bytes::find_byte(b'\n', rest) {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.skipping {
                // The tail end of an over-limit line: swallow it.
                self.skipping = false;
                self.carry.clear();
                continue;
            }
            if self.effective_len(head) > self.max_line_bytes {
                dropped += 1;
                self.carry.clear();
                continue;
            }
            if self.carry.is_empty() {
                sink(head);
            } else {
                self.carry.extend_from_slice(head);
                sink(&std::mem::take(&mut self.carry));
            }
        }
        if self.skipping {
            return dropped;
        }
        if self.effective_len(rest) > self.max_line_bytes {
            // The line is already over the limit without a newline in
            // sight: drop it now and discard until the next newline. (A
            // partial line ending in `\r` gets one byte of grace — the
            // carry is bounded by the limit plus that single byte.)
            dropped += 1;
            self.carry.clear();
            self.skipping = true;
        } else {
            self.carry.extend_from_slice(rest);
        }
        dropped
    }

    /// Flush a trailing unterminated line at end of stream (EOF).
    pub fn finish(&mut self, sink: &mut impl FnMut(&[u8])) {
        if !self.skipping && !self.carry.is_empty() {
            sink(&std::mem::take(&mut self.carry));
        }
        self.skipping = false;
        self.carry.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_ports::{LineDecoder, LineOutcome};
    use raslog::Catalog;

    fn collect(framer: &mut LineFramer, chunks: &[&[u8]]) -> (Vec<Vec<u8>>, u64) {
        let mut lines = Vec::new();
        let mut dropped = 0;
        for c in chunks {
            dropped += framer.feed(c, &mut |l: &[u8]| lines.push(l.to_vec()));
        }
        framer.finish(&mut |l: &[u8]| lines.push(l.to_vec()));
        (lines, dropped)
    }

    #[test]
    fn frames_lines_across_arbitrary_chunk_boundaries() {
        let mut f = LineFramer::new(100);
        let (lines, dropped) = collect(&mut f, &[b"ab", b"c\nde", b"\n\nfg"]);
        assert_eq!(dropped, 0);
        assert_eq!(
            lines,
            vec![b"abc".to_vec(), b"de".to_vec(), vec![], b"fg".to_vec()]
        );
    }

    #[test]
    fn oversized_lines_are_dropped_and_resynchronized() {
        let mut f = LineFramer::new(4);
        // "longline" exceeds 4 bytes mid-chunk; "ok" after the newline must
        // still be delivered, as must short lines split across chunks.
        let (lines, dropped) = collect(&mut f, &[b"longl", b"ine\nok\n", b"toolong\n", b"ab\n"]);
        assert_eq!(dropped, 2);
        assert_eq!(lines, vec![b"ok".to_vec(), b"ab".to_vec()]);
    }

    #[test]
    fn oversized_line_at_eof_stays_dropped() {
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcdefgh"]);
        assert_eq!(dropped, 1);
        assert!(lines.is_empty());
    }

    #[test]
    fn crlf_terminator_does_not_count_against_the_limit() {
        // A maximal 4-byte line must survive whether it ends \n or \r\n:
        // the \r is part of the terminator, so the framer must not charge it.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcd\nabcd\r\nabcde\r\n"]);
        assert_eq!(dropped, 1, "only the 5-byte line is oversized");
        assert_eq!(lines, vec![b"abcd".to_vec(), b"abcd\r".to_vec()]);
    }

    #[test]
    fn crlf_split_across_chunks_at_the_limit_is_not_dropped() {
        // Regression: with the \r buffered at the end of one read and the
        // \n opening the next, the carry briefly holds limit+1 bytes. The
        // old framer dropped the line at that point; it must be delivered.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcd\r", b"\nef\n"]);
        assert_eq!(dropped, 0);
        assert_eq!(lines, vec![b"abcd\r".to_vec(), b"ef".to_vec()]);
        // The grace byte is exactly one: anything after the \r that is not
        // an immediate newline pushes the line over the limit again.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcd\r", b"x\nok\n"]);
        assert_eq!(dropped, 1);
        assert_eq!(lines, vec![b"ok".to_vec()]);
    }

    #[test]
    fn only_one_trailing_cr_is_granted() {
        // The framer grants one \r of a CRLF terminator, however many the
        // decoder trims, so "abc\r\r" counts as 4 bytes ("abc\r" plus its
        // terminator): delivered at a 4-byte limit.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abc\r\r\nok\n"]);
        assert_eq!(dropped, 0);
        assert_eq!(lines, vec![b"abc\r\r".to_vec(), b"ok".to_vec()]);
        // "abcd\r\r" counts as 5 bytes: over the limit, dropped.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcd\r\r\nok\n"]);
        assert_eq!(dropped, 1);
        assert_eq!(lines, vec![b"ok".to_vec()]);
    }

    #[test]
    fn crlf_at_limit_parses_identically_to_lf() {
        // End to end through the BG/P line decoder: the same maximal record
        // line must decode the same with either terminator framing.
        let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
        let rec = raslog::RasRecord::new(
            7,
            bgp_model::Timestamp::from_unix(1_000),
            "R00-M0-N00-J00".parse().unwrap(),
            code,
        );
        let line = raslog::format_record(&rec);
        let max = line.len(); // the limit sits exactly at the record length
        for (payload, chunks) in [
            (format!("{line}\n"), vec![format!("{line}\n")]),
            (format!("{line}\r\n"), vec![format!("{line}\r\n")]),
            // \r and \n split across reads, \r landing exactly on the limit.
            (String::new(), vec![format!("{line}\r"), "\n".to_owned()]),
        ] {
            let _ = payload;
            let mut f = LineFramer::new(max);
            let mut frames = Vec::new();
            for c in &chunks {
                let dropped = f.feed(c.as_bytes(), &mut |l: &[u8]| {
                    frames.push(LineDecoder::Bgp.decode_line(l));
                });
                assert_eq!(dropped, 0, "chunks {chunks:?}");
            }
            f.finish(&mut |l: &[u8]| frames.push(LineDecoder::Bgp.decode_line(l)));
            assert_eq!(frames.len(), 1, "chunks {chunks:?}");
            match &frames[0] {
                LineOutcome::Record(r) => assert_eq!(**r, rec),
                other @ (LineOutcome::Skip | LineOutcome::Malformed(_)) => {
                    panic!("expected record for {chunks:?}, got {other:?}")
                }
            }
        }
    }
}
