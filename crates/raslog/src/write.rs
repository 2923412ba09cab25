//! Serializing records to the pipe-separated log format.
//!
//! The on-disk format mirrors the fields of the paper's Table II, one record
//! per line:
//!
//! ```text
//! RECID|MSG_ID|COMPONENT|SUBCOMPONENT|ERRCODE|SEVERITY|EVENT_TIME|LOCATION|MESSAGE
//! ```

use crate::catalog::Catalog;
use crate::record::RasRecord;
use bgp_model::text;
use bgp_model::time::TimestampEncoder;
use std::io::{self, Write};

/// Append `r`'s line (no newline) to `out`, the one definition of its
/// text: the RECID, the code's fixed head, the severity, the time, the
/// location and the code's message. `time` keeps the day of the line
/// before.
fn encode(r: &RasRecord, time: &mut TimestampEncoder, out: &mut Vec<u8>) {
    let code = Catalog::standard().text(r.errcode);
    text::push_u64(out, r.recid, 0);
    out.extend_from_slice(&code.head[..code.severity_at]);
    out.extend_from_slice(r.severity.as_str().as_bytes());
    out.push(b'|');
    time.encode(r.event_time, out);
    out.push(b'|');
    r.location.encode(out);
    out.extend_from_slice(&code.tail);
}

/// Format a single record as a log line (no trailing newline): the text
/// [`write_log`] writes for it.
pub fn format_record(r: &RasRecord) -> String {
    text::to_string_with(|out| encode(r, &mut TimestampEncoder::default(), out))
}

/// Write records to `w`, one line each, and flush `w`.
pub fn write_log<'a, W: Write, I: IntoIterator<Item = &'a RasRecord>>(
    w: &mut W,
    records: I,
) -> io::Result<()> {
    let mut time = TimestampEncoder::default();
    text::write_lines(w, records, |r, out| encode(r, &mut time, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parse::RasLineParser;
    use crate::severity::Severity;
    use bgp_model::Timestamp;

    #[test]
    fn formats_all_nine_fields() {
        let code = Catalog::standard()
            .lookup("DetectedClockCardErrors")
            .unwrap();
        let r = RasRecord::new(
            13_718_190,
            Timestamp::from_civil(2008, 4, 14, 15, 8, 12),
            "R-04-M0-S".parse().unwrap(),
            code,
        );
        let line = format_record(&r);
        // Walk the line with the shared `find_byte` scanner, which the
        // parser does not use to split a line (it reads a catalogue head
        // through its probe, and any other line with `splitn_byte`), so
        // the layout is checked by a reader of its own.
        let mut fields: [&str; 9] = [""; 9];
        let mut count = 0usize;
        let mut rest = line.as_str();
        while count < 9 {
            match bgp_model::bytes::find_byte(b'|', rest.as_bytes()) {
                Some(i) if count < 8 => {
                    fields[count] = &rest[..i];
                    rest = &rest[i + 1..];
                }
                _ => {
                    fields[count] = rest;
                    count += 1;
                    break;
                }
            }
            count += 1;
        }
        assert_eq!(count, 9);
        assert_eq!(fields[0], "13718190");
        assert_eq!(fields[2], "CARD");
        assert_eq!(fields[3], "PALOMINO_S");
        assert_eq!(fields[4], "DetectedClockCardErrors");
        assert_eq!(fields[5], "FATAL");
        assert_eq!(fields[6], "2008-04-14-15.08.12");
        assert_eq!(fields[7], "R04-M0-S");
        assert!(fields[8].contains("Clock card"));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test reads each written line back through the parser crate's entry point"
    )]
    fn every_code_line_takes_the_head_probe() {
        // The writer and the probe read one head per code: each code's
        // line is read by the probe alone, back to the record written.
        // A severity other than the catalogue's is not that head, so the
        // probe declines and the split path reads the line.
        let catalog = Catalog::standard();
        for code in catalog.codes() {
            let r = RasRecord::new(
                13_718_190,
                Timestamp::from_civil(2008, 4, 14, 15, 8, 12),
                "R12-M1-N07-J03".parse().unwrap(),
                code,
            );
            let line = format_record(&r);
            let probe = RasLineParser::default().probe(line.as_bytes());
            assert_eq!(probe, Some(r), "{line}");
            for severity in Severity::ALL.into_iter().filter(|&s| s != r.severity) {
                let r = RasRecord { severity, ..r };
                let line = format_record(&r);
                assert_eq!(RasLineParser::default().probe(line.as_bytes()), None);
                assert_eq!(crate::parse_line(&line), Ok(r), "{line}");
            }
        }
    }

    #[test]
    fn write_log_emits_one_line_per_record() {
        let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
        let records: Vec<RasRecord> = (0..3)
            .map(|i| {
                RasRecord::new(
                    i,
                    Timestamp::from_unix(i as i64),
                    "R00-M0".parse().unwrap(),
                    code,
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_log(&mut buf, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
    }
}
