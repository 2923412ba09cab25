//! Parsing the pipe-separated log format (tolerant, streaming).
//!
//! Real RAS logs are dirty: truncated lines, unknown codes from firmware
//! updates, clock skew. The parser therefore reports structured errors per
//! line and the streaming [`RasReader`] lets the caller decide whether to
//! skip or abort.

use crate::catalog::{Catalog, ErrCode};
use crate::record::RasRecord;
use crate::severity::Severity;
use bgp_model::time::TimestampDecoder;
use bgp_model::{Location, Timestamp};
use std::fmt;
use std::io::BufRead;

/// A parse failure for one line.
#[derive(Debug, Clone, PartialEq)]
pub struct RasParseError {
    /// 1-based line number, when known (0 for standalone parses).
    pub line: u64,
    /// What went wrong.
    pub kind: RasParseErrorKind,
}

/// The ways a line can be malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum RasParseErrorKind {
    /// Fewer than the nine `|`-separated fields.
    WrongFieldCount(
        /// Number of fields found.
        usize,
    ),
    /// RECID was not an integer.
    BadRecId(String),
    /// ERRCODE not present in the catalogue.
    UnknownErrCode(String),
    /// SEVERITY token unrecognized.
    BadSeverity(String),
    /// EVENT_TIME malformed.
    BadTimestamp(String),
    /// LOCATION malformed.
    BadLocation(String),
    /// The underlying reader failed mid-stream (the log is truncated from
    /// this line on, not merely malformed).
    Io(String),
}

impl fmt::Display for RasParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            RasParseErrorKind::WrongFieldCount(n) => {
                write!(f, "expected 9 fields, found {n}")
            }
            RasParseErrorKind::BadRecId(s) => write!(f, "bad RECID {s:?}"),
            RasParseErrorKind::UnknownErrCode(s) => write!(f, "unknown ERRCODE {s:?}"),
            RasParseErrorKind::BadSeverity(s) => write!(f, "bad SEVERITY {s:?}"),
            RasParseErrorKind::BadTimestamp(s) => write!(f, "bad EVENT_TIME {s:?}"),
            RasParseErrorKind::BadLocation(s) => write!(f, "bad LOCATION {s:?}"),
            RasParseErrorKind::Io(s) => write!(f, "I/O error: {s}"),
        }
    }
}

impl std::error::Error for RasParseError {}

/// Parse one log line into a record.
///
/// The MSG_ID / COMPONENT / SUBCOMPONENT / MESSAGE fields are validated for
/// presence but their *content* is taken from the catalogue (the ERRCODE is
/// authoritative), so logs written by other tools with slightly different
/// message text still parse.
#[expect(
    clippy::disallowed_methods,
    reason = "the `&str` entry point is a thin wrapper over the byte parser it sits beside"
)]
pub fn parse_line(line: &str) -> Result<RasRecord, RasParseError> {
    parse_line_bytes(line.as_bytes())
}

/// Parse one log line given as raw bytes: a fresh [`RasLineParser`]'s
/// [`parse`](RasLineParser::parse), so the parallel ingestion layer
/// (`crate::ingest`) and every single-line caller share one field parser.
///
/// For any valid-UTF-8 line this behaves *identically* to [`parse_line`]
/// (same record or same error kind and payload). The line as a whole is never
/// UTF-8-validated: only the five fields that are actually parsed are
/// transcoded, so a multi-gigabyte MESSAGE column costs nothing. A parsed
/// field containing invalid UTF-8 reports the same error kind as an
/// unparseable value, with a lossy payload.
#[expect(
    clippy::disallowed_methods,
    reason = "the one-line entry point is a fresh parser's parse"
)]
pub fn parse_line_bytes(line: &[u8]) -> Result<RasRecord, RasParseError> {
    RasLineParser::default().parse(line)
}

/// The line parser of one ingest worker: [`parse_line_bytes`] with a memo
/// of the last day it read ([`TimestampDecoder`]), so a line whose
/// EVENT_TIME repeats the day of the line before reads only its clock.
///
/// The memo changes no result: every line parses to what
/// [`parse_line_bytes`] gives it, in any order.
#[derive(Debug, Clone, Default)]
pub struct RasLineParser {
    clock: TimestampDecoder,
}

impl RasLineParser {
    /// Parse one line's content (trimmed, not blank) into a record.
    pub fn parse(&mut self, line: &[u8]) -> Result<RasRecord, RasParseError> {
        match self.probe(line) {
            Some(record) => Ok(record),
            None => self.parse_fields(line),
        }
    }

    /// The head probe: the record of a line whose head is a catalogue
    /// code's, read without splitting it. RECID, its `|` among the line's
    /// first 16 bytes, is read by its fast path; the text from that `|`
    /// must be a code's whole [`CodeText`] head
    /// (MSG_ID, COMPONENT, SUBCOMPONENT, ERRCODE and the code's catalogue
    /// severity, byte for byte), followed by a canonical 19-byte EVENT_TIME
    /// and its `|` and a canonical LOCATION and its `|`; MESSAGE is not
    /// read. Each of those reads is the fast path [`Self::parse_fields`]
    /// gives the field, so wherever the probe answers, that path builds the
    /// same record; anywhere else it declines, and that path decides.
    ///
    /// [`CodeText`]: crate::catalog::CodeText
    pub(crate) fn probe(&mut self, line: &[u8]) -> Option<RasRecord> {
        let catalog = Catalog::standard();
        let bar = first_bar(line)?;
        let (errcode, head) = catalog.head_code(&line[bar..])?;
        let recid = recid_digits(&line[..bar])?;
        let time_at = bar + head;
        // The 19 bytes of a canonical EVENT_TIME, then its `|`.
        let location_at = time_at + 20;
        if line.get(location_at - 1) != Some(&b'|') {
            return None;
        }
        let event_time = self
            .clock
            .parse_canonical(&line[time_at..location_at - 1])?;
        let rest = &line[location_at..];
        let location = Location::parse_canonical(&rest[..first_bar(rest)?])?;
        Some(RasRecord {
            recid,
            event_time,
            location,
            errcode,
            severity: catalog.info(errcode).severity,
        })
    }

    /// The split-and-field path: the nine fields, each read by its fast
    /// path or else by the general parser, which alone defines what a line
    /// means and supplies every diagnostic.
    fn parse_fields(&mut self, line: &[u8]) -> Result<RasRecord, RasParseError> {
        let err = |kind| RasParseError { line: 0, kind };
        // MESSAGE may itself contain '|'; limit the split to 9 parts
        // (`splitn(9, '|')` semantics, without materializing a Vec).
        let (fields, count) = bgp_model::bytes::splitn_byte::<9>(b'|', line);
        if count != 9 {
            return Err(err(RasParseErrorKind::WrongFieldCount(count)));
        }
        // Each field first tries a byte-level fast path for its canonical
        // form; when that declines, the general parser (trim, UTF-8,
        // `FromStr`) decides. A fast path answers only where the general
        // parser gives the same value, so the general parser alone defines
        // what a line means and supplies every error payload: the raw
        // (untrimmed) field, like the &str parser.
        let lossy = |f: &[u8]| String::from_utf8_lossy(f).into_owned();
        fn text(f: &[u8]) -> Option<&str> {
            std::str::from_utf8(f).ok().map(str::trim)
        }
        let catalog = Catalog::standard();
        let recid = recid_digits(fields[0])
            .or_else(|| text(fields[0])?.parse().ok())
            .ok_or_else(|| err(RasParseErrorKind::BadRecId(lossy(fields[0]))))?;
        let errcode: ErrCode = catalog
            .lookup_bytes(fields[4])
            .or_else(|| catalog.lookup(text(fields[4])?))
            .ok_or_else(|| err(RasParseErrorKind::UnknownErrCode(lossy(fields[4]))))?;
        let severity = Severity::from_token(fields[5])
            .or_else(|| text(fields[5])?.parse().ok())
            .ok_or_else(|| err(RasParseErrorKind::BadSeverity(lossy(fields[5]))))?;
        let event_time = self
            .clock
            .parse_canonical(fields[6])
            .or_else(|| Timestamp::parse(text(fields[6])?).ok())
            .ok_or_else(|| err(RasParseErrorKind::BadTimestamp(lossy(fields[6]))))?;
        let location = Location::parse_canonical(fields[7])
            .or_else(|| text(fields[7])?.parse().ok())
            .ok_or_else(|| err(RasParseErrorKind::BadLocation(lossy(fields[7]))))?;
        Ok(RasRecord {
            recid,
            event_time,
            location,
            errcode,
            severity,
        })
    }
}

/// Where the first `|` among `b`'s first 16 bytes is: one SWAR test of a
/// fixed 16-byte load, with the exact zero-byte mask of
/// `bytes::splitn_byte`, or a byte scan when `b` is shorter.
fn first_bar(b: &[u8]) -> Option<usize> {
    const LOW7: u128 = u128::MAX / 0xff * 0x7f;
    const BARS: u128 = u128::MAX / 0xff * b'|' as u128;
    let Some(word) = b.first_chunk::<16>() else {
        return b.iter().position(|&c| c == b'|');
    };
    let x = u128::from_le_bytes(*word) ^ BARS;
    let hits = !(((x & LOW7) + LOW7) | x | LOW7);
    (hits != 0).then(|| (hits.trailing_zeros() / 8) as usize)
}

/// RECID fast path: 1–19 ASCII digits, which always fit a `u64`; four to
/// eight of them (every RECID of a paper-scale log past the first thousand)
/// are read as one word. Anything else (a sign, padding, 20 digits) is
/// left to `str::parse`.
fn recid_digits(f: &[u8]) -> Option<u64> {
    match f.len() {
        4..=8 => digit_word(f),
        1..=19 => f.iter().try_fold(0u64, |acc, &c| {
            c.is_ascii_digit().then(|| acc * 10 + u64::from(c - b'0'))
        }),
        _ => None,
    }
}

/// The value of four to eight ASCII digits, read as one little-endian word
/// (SWAR). The word is built from the field's first and last four bytes,
/// two fixed-size loads that overlap when it is shorter than eight, with
/// its digits in the top lanes and `0`s below them: the lowest lane is the
/// most significant digit, so the `0`s read as leading zeros. Every lane is
/// checked to be a digit, then the lanes are folded into pairs, quads and
/// the whole.
fn digit_word(f: &[u8]) -> Option<u64> {
    const NIBBLE_HI: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    const ZEROS: u64 = 0x3030_3030_3030_3030;
    let n = f.len();
    if !(4..=8).contains(&n) {
        return None;
    }
    let head = u64::from(u32::from_le_bytes(f[..4].try_into().ok()?));
    let tail = u64::from(u32::from_le_bytes(f[n - 4..].try_into().ok()?));
    // Bits of `0` lanes below the digits (none for eight digits).
    let pad = 8 * (8 - n) as u32;
    let w = (tail << 32) | (head << pad) | ZEROS.checked_shr(64 - pad).unwrap_or(0);
    // A digit lane is 0x30..=0x39: its high nibble is 3, and adding 6
    // leaves it 3 (no lane can carry into the next once the first test
    // holds).
    if w & NIBBLE_HI != ZEROS || (w + 0x0606_0606_0606_0606) & NIBBLE_HI != ZEROS {
        return None;
    }
    let d = w - ZEROS;
    let d = (d * 10 + (d >> 8)) & 0x00ff_00ff_00ff_00ff;
    let d = (d * 100 + (d >> 16)) & 0x0000_ffff_0000_ffff;
    Some((d * 10_000 + (d >> 32)) & 0xffff_ffff)
}

/// Streaming reader: yields one `Result` per non-empty line.
///
/// ```
/// use raslog::RasReader;
///
/// let text = "\
/// 1|KERN_0014|KERNEL|CNS|_bgp_err_kernel_panic|FATAL|2009-03-01-12.30.00|R12-M1-N07-J03|panic
/// not a record
/// ";
/// let (records, errors) = RasReader::new(text.as_bytes()).read_tolerant();
/// assert_eq!(records.len(), 1);
/// assert_eq!(errors.len(), 1);
/// assert_eq!(errors[0].line, 2);
/// ```
pub struct RasReader<R> {
    inner: R,
    line_no: u64,
    buf: String,
    failed: bool,
}

impl<R: BufRead> RasReader<R> {
    /// Wrap a buffered reader.
    pub fn new(inner: R) -> Self {
        RasReader {
            inner,
            line_no: 0,
            buf: String::new(),
            failed: false,
        }
    }

    /// Read everything, skipping malformed lines; returns the records and the
    /// errors encountered.
    pub fn read_tolerant(self) -> (Vec<RasRecord>, Vec<RasParseError>) {
        let mut records = Vec::new();
        let mut errors = Vec::new();
        for item in self {
            match item {
                Ok(r) => records.push(r),
                Err(e) => errors.push(e),
            }
        }
        (records, errors)
    }

    /// Read everything, failing on the first malformed line.
    pub fn read_strict(self) -> Result<Vec<RasRecord>, RasParseError> {
        self.collect()
    }
}

impl<R: BufRead> Iterator for RasReader<R> {
    type Item = Result<RasRecord, RasParseError>;

    #[expect(
        clippy::disallowed_methods,
        reason = "the streaming reader is the parser crate's serial entry point and parses each line it reads"
    )]
    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.buf.clear();
            match self.inner.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {
                    self.line_no += 1;
                    let line = self.buf.trim_end_matches(['\n', '\r']);
                    if line.is_empty() {
                        continue;
                    }
                    return Some(parse_line(line).map_err(|mut e| {
                        e.line = self.line_no;
                        e
                    }));
                }
                Err(e) => {
                    // Surface the failure once (the log is truncated here),
                    // then fuse: a persistent error must not loop forever.
                    self.failed = true;
                    self.line_no += 1;
                    return Some(Err(RasParseError {
                        line: self.line_no,
                        kind: RasParseErrorKind::Io(e.to_string()),
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests of the parser crate drive its entry points directly"
)]
mod tests {
    use super::*;
    use crate::write::format_record;
    use proptest::prelude::*;

    fn sample_record() -> RasRecord {
        RasRecord::new(
            42,
            Timestamp::from_civil(2009, 3, 1, 12, 30, 0),
            "R12-M1-N07-J03".parse().unwrap(),
            Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap(),
        )
    }

    #[test]
    fn round_trip_single() {
        let r = sample_record();
        let parsed = parse_line(&format_record(&r)).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn message_with_pipes_survives() {
        let r = sample_record();
        let line = format!("{}| extra | pipes", format_record(&r));
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn malformed_lines_rejected_with_kind() {
        use RasParseErrorKind as K;
        type Check = fn(&RasParseErrorKind) -> bool;
        let good = format_record(&sample_record());
        let cases: Vec<(String, Check)> = vec![
            ("a|b|c".to_owned(), |k| matches!(k, K::WrongFieldCount(3))),
            (good.replacen("42", "xx", 1), |k| {
                matches!(k, K::BadRecId(_))
            }),
            (good.replace("_bgp_err_kernel_panic", "mystery_code"), |k| {
                matches!(k, K::UnknownErrCode(_))
            }),
            (good.replace("FATAL", "SUPERFATAL"), |k| {
                matches!(k, K::BadSeverity(_))
            }),
            (good.replace("2009-03-01-12.30.00", "yesterday"), |k| {
                matches!(k, K::BadTimestamp(_))
            }),
            (good.replace("R12-M1-N07-J03", "R99-Z9"), |k| {
                matches!(k, K::BadLocation(_))
            }),
        ];
        for (line, check) in cases {
            let e = parse_line(&line).unwrap_err();
            assert!(check(&e.kind), "line {line:?} gave {e:?}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn reader_streams_and_numbers_lines() {
        let r = sample_record();
        let text = format!(
            "{}\n\nnot a record\n{}\n",
            format_record(&r),
            format_record(&r)
        );
        let reader = RasReader::new(text.as_bytes());
        let (records, errors) = reader.read_tolerant();
        assert_eq!(records.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].line, 3); // blank line counted, bad line is #3
    }

    struct FailingReader;

    impl std::io::Read for FailingReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn io_errors_surface_once_with_line_number() {
        let text = format!("{}\n", format_record(&sample_record()));
        let chained = std::io::Read::chain(text.as_bytes(), FailingReader);
        let (records, errors) = RasReader::new(std::io::BufReader::new(chained)).read_tolerant();
        assert_eq!(records.len(), 1);
        assert_eq!(errors.len(), 1, "I/O error must surface exactly once");
        assert_eq!(errors[0].line, 2);
        assert!(matches!(errors[0].kind, RasParseErrorKind::Io(_)));
        assert!(errors[0].to_string().contains("disk on fire"));
    }

    #[test]
    fn byte_parser_never_validates_message() {
        let good = format_record(&sample_record());
        let mut line = good.clone().into_bytes();
        line.extend_from_slice(b" \xff\xfe binary | junk");
        assert_eq!(parse_line_bytes(&line).unwrap(), sample_record());
        // ...but a parsed field with invalid UTF-8 errors like a bad value.
        let mut bad = good.into_bytes();
        bad[0] = 0xff; // first byte of RECID
        assert!(matches!(
            parse_line_bytes(&bad).unwrap_err().kind,
            RasParseErrorKind::BadRecId(_)
        ));
    }

    #[test]
    fn strict_mode_fails_fast() {
        let text = "garbage\n";
        let reader = RasReader::new(text.as_bytes());
        assert!(reader.read_strict().is_err());
        let r = sample_record();
        let text = format!("{}\n", format_record(&r));
        let reader = RasReader::new(text.as_bytes());
        assert_eq!(reader.read_strict().unwrap().len(), 1);
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary_records(
            recid in 0u64..u64::MAX / 2,
            secs in 0i64..2_000_000_000,
            code_idx in 0usize..Catalog::standard().len(),
            mp in 0u8..80,
        ) {
            let code = ErrCode(code_idx as u16);
            let loc = Location::Midplane(bgp_model::MidplaneId::from_index(mp).unwrap());
            let r = RasRecord::new(recid, Timestamp::from_unix(secs), loc, code);
            let parsed = parse_line(&format_record(&r)).unwrap();
            prop_assert_eq!(parsed, r);
        }
    }

    /// The general path alone, as `parse_line_bytes` parsed every field
    /// before the fast paths: `splitn(9, '|')`, then `str::parse::<u64>`,
    /// a linear catalogue scan, the severity token table,
    /// `Timestamp::parse` and `Location::from_str`, each on the trimmed
    /// UTF-8 field. The fast paths must be invisible against it.
    fn reference(line: &[u8]) -> Result<RasRecord, RasParseError> {
        let err = |kind| RasParseError { line: 0, kind };
        let fields: Vec<&[u8]> = line.splitn(9, |&b| b == b'|').collect();
        if fields.len() != 9 {
            return Err(err(RasParseErrorKind::WrongFieldCount(fields.len())));
        }
        let lossy = |f: &[u8]| String::from_utf8_lossy(f).into_owned();
        fn text(f: &[u8]) -> Option<&str> {
            std::str::from_utf8(f).ok().map(str::trim)
        }
        let cat = Catalog::standard();
        let severity = |s: &str| match s {
            "DEBUG" => Some(Severity::Debug),
            "TRACE" => Some(Severity::Trace),
            "INFO" => Some(Severity::Info),
            "WARNING" | "WARN" => Some(Severity::Warning),
            "ERROR" => Some(Severity::Error),
            "FATAL" => Some(Severity::Fatal),
            _ => None,
        };
        let Some(recid) = text(fields[0]).and_then(|s| s.parse::<u64>().ok()) else {
            return Err(err(RasParseErrorKind::BadRecId(lossy(fields[0]))));
        };
        let Some(errcode) =
            text(fields[4]).and_then(|s| cat.codes().find(|&c| cat.info(c).name == s))
        else {
            return Err(err(RasParseErrorKind::UnknownErrCode(lossy(fields[4]))));
        };
        let Some(severity) = text(fields[5]).and_then(severity) else {
            return Err(err(RasParseErrorKind::BadSeverity(lossy(fields[5]))));
        };
        let Some(event_time) = text(fields[6]).and_then(|s| Timestamp::parse(s).ok()) else {
            return Err(err(RasParseErrorKind::BadTimestamp(lossy(fields[6]))));
        };
        let Some(location) = text(fields[7]).and_then(|s| s.parse::<Location>().ok()) else {
            return Err(err(RasParseErrorKind::BadLocation(lossy(fields[7]))));
        };
        Ok(RasRecord {
            recid,
            event_time,
            location,
            errcode,
            severity,
        })
    }

    fn assert_matches_reference(line: &[u8]) {
        assert_eq!(
            parse_line_bytes(line),
            reference(line),
            "line {:?}",
            String::from_utf8_lossy(line)
        );
    }

    /// The sample record's line with field `i` replaced by `value`.
    fn with_field(i: usize, value: &str) -> Vec<u8> {
        let good = format_record(&sample_record());
        let mut fields: Vec<&str> = good.splitn(9, '|').collect();
        fields[i] = value;
        fields.join("|").into_bytes()
    }

    #[test]
    fn fast_paths_match_the_reference_on_named_edge_cases() {
        let (recid, msg_id, component, errcode, severity, time, loc, message) =
            (0, 1, 2, 4, 5, 6, 7, 8);
        let catalog = Catalog::standard();
        let panic = sample_record().errcode;
        // A code whose head is as long as the sample's: behind its MSG_ID,
        // the sample's ERRCODE lines up with the time and location.
        let head_len = |c| catalog.text(c).head.len();
        let decoy = catalog
            .codes()
            .find(|&c| c != panic && head_len(c) == head_len(panic));
        let decoy = &catalog.info(decoy.unwrap()).msg_id;
        let good = format_record(&sample_record());
        let unbarred = |from: &str, to: &str| good.replacen(from, to, 1).into_bytes();
        let cases: Vec<(&str, Vec<u8>, bool)> = vec![
            ("canonical", with_field(recid, "42"), true),
            ("another code's MSG_ID", with_field(msg_id, decoy), true),
            ("MSG_ID of code 0", with_field(msg_id, "KERN_0000"), true),
            ("empty MSG_ID", with_field(msg_id, ""), true),
            ("lowercase COMPONENT", with_field(component, "kernel"), true),
            ("empty SUBCOMPONENT", with_field(3, ""), true),
            ("non-default severity", with_field(severity, "ERROR"), true),
            (
                "20-byte EVENT_TIME",
                with_field(time, "2009-03-01-12.30.00 "),
                true,
            ),
            (
                "no `|` after EVENT_TIME",
                unbarred("12.30.00|", "12.30.00 "),
                false,
            ),
            ("no `|` after LOCATION", unbarred("J03|", "J03 "), false),
            ("empty MESSAGE", with_field(message, ""), true),
            ("MESSAGE with `|`", with_field(message, "a|b||c|"), true),
            ("leading +", with_field(recid, "+42"), true),
            ("space-padded RECID", with_field(recid, " 42 "), true),
            ("tab-padded RECID", with_field(recid, "\t42\t"), true),
            (
                "padded ERRCODE",
                with_field(errcode, " _bgp_err_kernel_panic\t"),
                true,
            ),
            ("padded SEVERITY", with_field(severity, "\tFATAL "), true),
            (
                "padded EVENT_TIME",
                with_field(time, " 2009-03-01-12.30.00\t"),
                true,
            ),
            (
                "padded LOCATION",
                with_field(loc, "\tR12-M1-N07-J03 "),
                true,
            ),
            (
                "NBSP-padded LOCATION",
                with_field(loc, "\u{a0}R12-M1-N07-J03"),
                true,
            ),
            ("non-ASCII in RECID", with_field(recid, "4é2"), false),
            (
                "non-ASCII in ERRCODE",
                with_field(errcode, "_bgp_err_kernel_pänic"),
                false,
            ),
            (
                "non-ASCII in SEVERITY",
                with_field(severity, "FATÅL"),
                false,
            ),
            (
                "non-ASCII suffix",
                with_field(time, "2009-03-01-12.30.00.2é"),
                true,
            ),
            (
                "non-ASCII in LOCATION",
                with_field(loc, "R12-M1-N07-J0é"),
                false,
            ),
            (
                "19-digit RECID",
                with_field(recid, "9999999999999999999"),
                true,
            ),
            (
                "20-digit RECID, u64::MAX",
                with_field(recid, "18446744073709551615"),
                true,
            ),
            (
                "20-digit RECID, overflow",
                with_field(recid, "18446744073709551616"),
                false,
            ),
            (
                "20-digit RECID, leading zeros",
                with_field(recid, "00000000000000000042"),
                true,
            ),
            ("ss = 60", with_field(time, "2009-03-01-12.30.60"), true),
            ("ss = 61", with_field(time, "2009-03-01-12.30.61"), false),
            (
                ".ffffff suffix",
                with_field(time, "2009-03-01-12.30.00.285324"),
                true,
            ),
            (
                "signed month",
                with_field(time, "2009-+3-01-12.30.00"),
                true,
            ),
            ("dashed rack R-23", with_field(loc, "R-23-M1-N07-J03"), true),
            ("one-digit N7", with_field(loc, "R23-M1-N7-J03"), true),
            ("three-digit J031", with_field(loc, "R23-M1-N07-J031"), true),
            ("WARN", with_field(severity, "WARN"), true),
            (
                "unknown code",
                with_field(errcode, "_bgp_err_not_in_catalog"),
                false,
            ),
            ("I/O node out of range", with_field(loc, "R23-M1-I8"), false),
            (
                "link card out of range",
                with_field(loc, "R23-M1-L4"),
                false,
            ),
        ];
        for (name, line, ok) in cases {
            assert_matches_reference(&line);
            assert_eq!(parse_line_bytes(&line).is_ok(), ok, "{name}");
        }
        // A LOCATION that ends the line is eight fields, as before the probe.
        let cut = good.rsplit_once('|').unwrap().0;
        assert_matches_reference(cut.as_bytes());
        assert_eq!(
            parse_line(cut).unwrap_err().kind,
            RasParseErrorKind::WrongFieldCount(8)
        );
        assert!(RasLineParser::default().probe(good.as_bytes()).is_some());
        let mut bad_utf8 = with_field(loc, "R23-M1");
        bad_utf8.splice(0..0, [0xff]);
        assert_matches_reference(&bad_utf8);
    }

    #[test]
    fn fast_paths_match_the_reference_on_swapped_heads() {
        // Every code's line with another code's MSG_ID, COMPONENT or
        // SUBCOMPONENT, and with every severity token: the head of each is
        // the catalogue's text in all but one field.
        let catalog = Catalog::standard();
        let tokens = [
            "DEBUG", "TRACE", "INFO", "WARNING", "WARN", "ERROR", "FATAL",
        ];
        for code in 0..catalog.len() {
            let line = canonical_line(42, 1_236_000_000, code, 8, false);
            let fields: Vec<&[u8]> = line.splitn(9, |&b| b == b'|').collect();
            let swap = |i: usize, value: &[u8]| {
                let mut mutant = fields.clone();
                mutant[i] = value;
                assert_matches_reference(&mutant.join(&b'|'));
            };
            for other in catalog.codes() {
                let info = catalog.info(other);
                swap(1, info.msg_id.as_bytes());
                swap(2, info.component.as_str().as_bytes());
                swap(3, info.subcomponent.as_bytes());
            }
            for token in tokens {
                swap(5, token.as_bytes());
            }
        }
    }

    #[test]
    fn recid_word_matches_the_digit_loop() {
        let reference = |f: &[u8]| -> Option<u64> { std::str::from_utf8(f).ok()?.parse().ok() };
        let mut fields: Vec<Vec<u8>> = Vec::new();
        for len in 1..=19 {
            for first in b'0'..=b'9' {
                let digits: Vec<u8> = (0..len)
                    .map(|i| {
                        if i == 0 {
                            first
                        } else {
                            b'0' + (i * 7 % 10) as u8
                        }
                    })
                    .collect();
                // Each lane's neighbours of the digit range, and a sign.
                for at in 0..len {
                    for bad in [b'/', b':', b' ', b'+', 0xb0, 0x39 + 0x80] {
                        let mut f = digits.clone();
                        f[at] = bad;
                        fields.push(f);
                    }
                }
                fields.push(digits);
            }
        }
        fields.extend([b"".to_vec(), b"99999999".to_vec(), b"00000000".to_vec()]);
        for f in fields {
            let want = reference(&f).filter(|_| f.iter().all(u8::is_ascii_digit));
            assert_eq!(recid_digits(&f), want, "{:?}", String::from_utf8_lossy(&f));
        }
    }

    #[test]
    fn first_bar_matches_the_byte_scan() {
        // A `|` at each place of fields of every length around 16 bytes,
        // among bytes one bit away from it and from the other lanes' tests.
        let reference = |b: &[u8]| b.iter().take(16).position(|&c| c == b'|');
        for len in 0..=34 {
            for filler in [b'0', b'}', b'{', b'\\', 0x7c ^ 0x80, 0xff, 0x00] {
                let base = vec![filler; len];
                assert_eq!(first_bar(&base), reference(&base));
                for at in 0..len {
                    let mut b = base.clone();
                    b[at] = b'|';
                    assert_eq!(first_bar(&b), reference(&b), "{len} {at} {filler}");
                    if let Some(later) = b.get_mut(at + 3) {
                        *later = b'|';
                        assert_eq!(first_bar(&b), reference(&b), "{len} {at} {filler}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_parser_reads_every_line_as_a_fresh_one_does() {
        // The day memo must not leak from one line into the next: a run of
        // lines over a day, month and year change, with bad clocks behind
        // a memo hit, parses as each line does alone.
        let mut parser = RasLineParser::default();
        let good = format_record(&sample_record());
        for time in [
            "2009-03-01-12.30.00",
            "2009-03-01-23.59.60",
            "2009-03-01-24.00.00",
            "2009-03-01-12.60.00",
            "2009-03-01-1a.00.00",
            "2009-03-02-00.00.00",
            "2009-04-01-00.00.00",
            "2010-04-01-00.00.00",
            "2009-03-01-12.30.00.285324",
            " 2009-03-01-12.30.00",
            "+009-03-01-12.30.00",
            "2009-03-01-12.30.00",
        ] {
            let line = good.replace("2009-03-01-12.30.00", time);
            assert_eq!(
                parser.parse(line.as_bytes()),
                reference(line.as_bytes()),
                "{time:?}"
            );
        }
    }

    /// Byte strings the proptests splice into lines: each class of byte the
    /// fast paths treat specially (digits, separators, signs, ASCII and
    /// Unicode whitespace, non-ASCII text, invalid UTF-8, location letters)
    /// and every severity token. [`Mix::splice`] adds a random catalogue
    /// code's MSG_ID or ERRCODE, so a head can carry another code's.
    const SPLICE: &[&str] = &[
        " ", "\t", "+", "-", ".", "|", "0", "1", "6", "9", "42", "R", "M", "N", "J", "I", "L", "S",
        "B", "K", "é", "\u{a0}", "\u{3000}", "DEBUG", "TRACE", "INFO", "WARNING", "WARN", "ERROR",
        "FATAL", ".285324", "R-", "_",
    ];

    /// A small deterministic generator for the many mutants of one case.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }

        fn splice(&mut self) -> &'static [u8] {
            let catalog = Catalog::standard();
            let i = self.below(SPLICE.len() + 3);
            let code = catalog.info(ErrCode(self.below(catalog.len()) as u16));
            match i {
                i if i < SPLICE.len() => SPLICE[i].as_bytes(),
                i if i == SPLICE.len() => b"\xff",
                i if i == SPLICE.len() + 1 => code.msg_id.as_bytes(),
                _ => code.name.as_bytes(),
            }
        }
    }

    fn canonical_line(recid: u64, secs: i64, code: usize, loc: usize, frac: bool) -> Vec<u8> {
        const LOCS: &[&str] = &[
            "R00",
            "R47-B",
            "R31-K",
            "R12-M1",
            "R12-M0-S",
            "R12-M1-I7",
            "R12-M1-L3",
            "R12-M1-N15",
            "R12-M1-N07-J31",
            "R40-M0-N00-J00",
        ];
        let r = RasRecord::new(
            recid,
            Timestamp::from_unix(secs),
            LOCS[loc % LOCS.len()].parse().unwrap(),
            ErrCode(code as u16),
        );
        let mut line = format_record(&r);
        if frac {
            let t = r.event_time.to_string();
            line = line.replacen(&t, &format!("{t}.123456"), 1);
        }
        line.into_bytes()
    }

    proptest! {
        #[test]
        fn fast_paths_match_the_reference_on_mutated_lines(
            recid in 0u64..u64::MAX,
            secs in -1_000_000_000i64..4_000_000_000,
            code in 0usize..Catalog::standard().len(),
            loc in 0usize..10,
            frac in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let base = canonical_line(recid, secs, code, loc, frac == 1);
            assert_matches_reference(&base);
            let fields: Vec<&[u8]> = base.splitn(9, |&b| b == b'|').collect();
            let mut mix = Mix(seed);
            for _ in 0..1000 {
                let mut mutant: Vec<Vec<u8>> = fields.iter().map(|f| f.to_vec()).collect();
                for _ in 0..=mix.below(3) {
                    // Mostly the eight fields the head probe reads, five of
                    // which the split path parses; MESSAGE now and then.
                    let f = &mut mutant[[0, 1, 2, 3, 4, 5, 6, 7, mix.below(9)][mix.below(9)]];
                    let at = mix.below(f.len() + 1);
                    match mix.below(5) {
                        0 => {
                            let s = mix.splice();
                            f.splice(at..at, s.iter().copied());
                        }
                        1 if at < f.len() => {
                            f.remove(at);
                        }
                        2 if at < f.len() => {
                            let s = mix.splice();
                            f.splice(at..at + 1, s.iter().copied());
                        }
                        3 => *f = mix.splice().to_vec(),
                        _ if at < f.len() => f[at] = b'0' + mix.below(10) as u8,
                        _ => {}
                    }
                }
                assert_matches_reference(&mutant.join(&b'|'));
            }
        }

        #[test]
        fn fast_paths_match_the_reference_on_arbitrary_fields(
            loc in 0usize..10,
            seed in 0u64..u64::MAX,
        ) {
            // Each field is the canonical one, a canonical one with a splice
            // inside, or a run of splices, so every field (not just RECID)
            // sees arbitrary input behind well-formed predecessors.
            let base = canonical_line(42, 1_236_000_000, 14, loc, false);
            let canonical: Vec<&[u8]> = base.splitn(9, |&b| b == b'|').collect();
            let mut mix = Mix(seed);
            for _ in 0..200 {
                let mut line = Vec::new();
                for (i, field) in canonical.iter().enumerate() {
                    if i > 0 {
                        line.push(b'|');
                    }
                    let start = line.len();
                    match mix.below(3) {
                        0 => line.extend_from_slice(field),
                        1 => {
                            line.extend_from_slice(field);
                            let at = start + mix.below(field.len() + 1);
                            let s = mix.splice();
                            line.splice(at..at, s.iter().copied());
                        }
                        _ => {
                            for _ in 0..mix.below(7) {
                                line.extend_from_slice(mix.splice());
                            }
                        }
                    }
                }
                assert_matches_reference(&line);
            }
        }
    }
}
