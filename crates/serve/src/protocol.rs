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
//! * a line longer than the configured limit, its trailing `\r` run not
//!   counted, is dropped whole and the framer resynchronizes at the next
//!   newline (a malicious or corrupt client cannot balloon daemon memory);
//! * an unparsable line is counted and skipped — one bad record must not
//!   poison the stream.
//!
//! The framer is a pure byte-in/line-out state machine (no sockets, no
//! clocks), which makes it deterministic and its edge cases unit-testable.

/// Incremental newline framer with a hard per-line length limit.
///
/// Feed it arbitrary byte chunks as they arrive from a socket or file tail;
/// it invokes the sink once per complete line and reports how many lines it
/// had to drop for exceeding the limit. The limit is charged on a line's
/// content by the workspace line rule ([`bgp_model::bytes::line_content`]):
/// a trailing `\r` run is part of the terminator, however long, and is
/// trimmed before the line reaches the sink. So a line frames the same
/// whether it ends `\n`, `\r\n` or `\r\r\n`, and however the reads split it.
#[derive(Debug)]
pub struct LineFramer {
    /// The open line's content so far, less its trailing `\r` run.
    carry: Vec<u8>,
    /// The length of the `\r` run that follows `carry`: trimmed if the line
    /// ends here, content if another byte follows. Held as a count, so a
    /// flood of `\r` cannot grow the carry past the limit.
    pending_cr: usize,
    max_line_bytes: usize,
    /// Inside an over-limit line, discarding until the next newline.
    skipping: bool,
}

impl LineFramer {
    /// A framer enforcing `max_line_bytes` per line.
    pub fn new(max_line_bytes: usize) -> LineFramer {
        LineFramer {
            carry: Vec::new(),
            pending_cr: 0,
            max_line_bytes,
            skipping: false,
        }
    }

    /// The open line's content length once `content` (a piece with its
    /// trailing `\r` run trimmed) follows it: the pending `\r` run counts
    /// only if the piece has content to put after it.
    fn open_len(&self, content: &[u8]) -> usize {
        if content.is_empty() {
            self.carry.len()
        } else {
            self.carry
                .len()
                .saturating_add(self.pending_cr)
                .saturating_add(content.len())
        }
    }

    /// Append a piece's content to the open line, after the pending run.
    fn append(&mut self, content: &[u8]) {
        if !content.is_empty() {
            self.carry.extend(std::iter::repeat_n(
                b'\r',
                std::mem::take(&mut self.pending_cr),
            ));
            self.carry.extend_from_slice(content);
        }
    }

    /// Forget the open line.
    fn reset(&mut self) {
        self.carry.clear();
        self.pending_cr = 0;
    }

    /// Feed one chunk; complete lines go to `sink`, their trailing `\r` run
    /// trimmed. Returns the number of oversized lines dropped within this
    /// chunk.
    pub fn feed(&mut self, chunk: &[u8], sink: &mut impl FnMut(&[u8])) -> u64 {
        let mut dropped = 0u64;
        let mut rest = chunk;
        while let Some(nl) = bgp_model::bytes::find_byte(b'\n', rest) {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if std::mem::take(&mut self.skipping) {
                // The tail end of an over-limit line: swallow it.
                continue;
            }
            let content = content(head);
            if self.open_len(content) > self.max_line_bytes {
                dropped += 1;
            } else if self.carry.is_empty() && self.pending_cr == 0 {
                // The whole line arrived in this chunk.
                sink(content);
            } else {
                self.append(content);
                sink(&self.carry);
            }
            self.reset();
        }
        if self.skipping {
            return dropped;
        }
        let content = content(rest);
        if self.open_len(content) > self.max_line_bytes {
            // The line is already over the limit without a newline in
            // sight: drop it now and discard until the next newline.
            dropped += 1;
            self.reset();
            self.skipping = true;
        } else if content.is_empty() {
            self.pending_cr = self.pending_cr.saturating_add(rest.len());
        } else {
            self.append(content);
            self.pending_cr = rest.len() - content.len();
        }
        dropped
    }

    /// Flush a trailing unterminated line at end of stream (EOF).
    pub fn finish(&mut self, sink: &mut impl FnMut(&[u8])) {
        if !self.skipping && (!self.carry.is_empty() || self.pending_cr > 0) {
            sink(&self.carry);
        }
        self.skipping = false;
        self.reset();
    }
}

/// `bytes` less its trailing `\r` run: what the line rule keeps of it.
fn content(bytes: &[u8]) -> &[u8] {
    bgp_model::bytes::line_content(bytes).unwrap_or_default()
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
        assert_eq!(lines, vec![b"abcd".to_vec(), b"abcd".to_vec()]);
    }

    #[test]
    fn crlf_split_across_chunks_at_the_limit_is_not_dropped() {
        // Regression: with the \r buffered at the end of one read and the
        // \n opening the next, the line must still be delivered.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcd\r", b"\nef\n"]);
        assert_eq!(dropped, 0);
        assert_eq!(lines, vec![b"abcd".to_vec(), b"ef".to_vec()]);
        // A byte after the \r makes the \r content: over the limit again.
        let mut f = LineFramer::new(4);
        let (lines, dropped) = collect(&mut f, &[b"abcd\r", b"x\nok\n"]);
        assert_eq!(dropped, 1);
        assert_eq!(lines, vec![b"ok".to_vec()]);
    }

    #[test]
    fn a_trailing_cr_run_is_trimmed_and_not_charged_at_any_split() {
        // The limit is charged on what the line rule leaves, so at a 4-byte
        // limit "abcd\r\r" is the 4-byte line "abcd", while "abcd\r\rx"
        // is a 7-byte line: delivered and dropped, however the bytes are
        // split across reads.
        for (input, want, want_dropped) in [
            (&b"abcd\r\r\nok\n"[..], vec![&b"abcd"[..], b"ok"], 0),
            (b"abcd\r\rx\nok\n", vec![b"ok"], 1),
            (b"a\r\rx\r\r\n\r\r\nok", vec![b"a\r\rx", b"", b"ok"], 0),
        ] {
            for cut in 0..=input.len() {
                for cut2 in cut..=input.len() {
                    let chunks = [&input[..cut], &input[cut..cut2], &input[cut2..]];
                    let mut f = LineFramer::new(4);
                    let (lines, dropped) = collect(&mut f, &chunks);
                    assert_eq!(dropped, want_dropped, "{chunks:?}");
                    assert_eq!(lines, want, "{chunks:?}");
                }
            }
        }
    }

    #[test]
    fn a_pending_cr_run_does_not_grow_the_carry() {
        let mut f = LineFramer::new(4);
        let mut lines = Vec::new();
        let mut sink = |l: &[u8]| lines.push(l.to_vec());
        f.feed(b"abcd", &mut sink);
        for _ in 0..1000 {
            assert_eq!(f.feed(b"\r\r\r", &mut sink), 0);
        }
        assert_eq!(f.carry.len(), 4);
        assert_eq!(f.feed(b"\n", &mut sink), 0);
        // A run that content follows is charged whole.
        f.feed(b"ab", &mut sink);
        f.feed(b"\r\r\r", &mut sink);
        assert_eq!(f.feed(b"x\nok\n", &mut sink), 1);
        f.finish(&mut sink);
        assert_eq!(lines, vec![b"abcd".to_vec(), b"ok".to_vec()]);
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
