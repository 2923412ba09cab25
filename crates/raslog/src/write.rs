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
use std::sync::OnceLock;

/// The text of a line that its ERRCODE fixes, written once per code.
#[derive(Debug)]
struct CodeText {
    /// `|MSG_ID|COMPONENT|SUBCOMPONENT|ERRCODE|`, between RECID and SEVERITY.
    head: Box<[u8]>,
    /// `|MESSAGE`, after LOCATION.
    tail: Box<[u8]>,
}

/// Every catalogue code's [`CodeText`], indexed by `ErrCode::index`.
fn code_texts() -> &'static [CodeText] {
    static TEXTS: OnceLock<Vec<CodeText>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let catalog = Catalog::standard();
        catalog
            .codes()
            .map(|code| {
                let info = catalog.info(code);
                let mut head = Vec::new();
                for field in [
                    info.msg_id.as_str(),
                    info.component.as_str(),
                    info.subcomponent,
                    info.name,
                ] {
                    head.push(b'|');
                    head.extend_from_slice(field.as_bytes());
                }
                head.push(b'|');
                let mut tail = vec![b'|'];
                tail.extend_from_slice(info.template.as_bytes());
                CodeText {
                    head: head.into(),
                    tail: tail.into(),
                }
            })
            .collect()
    })
}

/// Append `r`'s line (no newline) to `out`, the one definition of its
/// text: the RECID, the code's fixed head, the severity, the time, the
/// location and the code's message. `time` keeps the day of the line
/// before.
fn encode(r: &RasRecord, time: &mut TimestampEncoder, out: &mut Vec<u8>) {
    let code = &code_texts()[r.errcode.index()];
    text::push_u64(out, r.recid, 0);
    out.extend_from_slice(&code.head);
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
        // Walk the line with the shared `find_byte` scanner — the same
        // splitter `parse_line_bytes` uses — instead of materializing a
        // `Vec<&str>` via `split('|').collect()`.
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
