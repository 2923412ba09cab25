//! The generic syslog adapter: RFC 3164 lines as RAS records.
//!
//! A classic BSD syslog line looks like
//!
//! ```text
//! <13>Mar  1 12:30:00 ionode7 sshd[812]: Accepted publickey for root
//! ```
//!
//! and maps onto the RAS model like so:
//!
//! * the `<PRI>` priority (`facility * 8 + severity`) splits into a
//!   **facility**, mapped to the synthetic `syslog_<facility>` errcode
//!   namespace appended to the standard catalogue, and a **severity**,
//!   collapsed onto the CMCS ladder (emergency/alert/critical → FATAL,
//!   error → ERROR, warning → WARNING, notice/info → INFO, debug → DEBUG);
//!   a line without `<PRI>` defaults to priority 13 (`user.notice`), as the
//!   RFC prescribes;
//! * the timestamp (`Mmm dd hh:mm:ss`, no year) is completed with
//!   [`ASSUMED_YEAR`] (2009, the paper's observation window);
//! * the hostname is hashed (FNV-1a 64) onto one of the 80 Intrepid
//!   midplanes, so spatial analyses see a stable, deterministic location per
//!   host;
//! * the record id is the 1-based input line number (batch) or a running
//!   counter (streaming) — syslog has no native record id.
//!
//! The tag and message text are not retained, mirroring how the BG/P model
//! drops the free-text MESSAGE column.

use crate::SourceBatch;
use bgp_model::{Location, MidplaneId, Timestamp};
use raslog::{Catalog, ErrCode, RasRecord, Severity};
use std::sync::atomic::{AtomicU64, Ordering};

/// The year RFC 3164 timestamps are completed with (the format has none):
/// 2009, the paper's observation window.
pub const ASSUMED_YEAR: i32 = 2009;

/// The facility names of RFC 3164, in priority-code order (0–23); facility
/// `n` maps to errcode `syslog_<FACILITY_NAMES[n]>`.
pub const FACILITY_NAMES: [&str; 24] = [
    "kern", "user", "mail", "daemon", "auth", "syslog", "lpr", "news", "uucp", "cron", "authpriv",
    "ftp", "ntp", "audit", "alert", "clock", "local0", "local1", "local2", "local3", "local4",
    "local5", "local6", "local7",
];

/// The priority assumed for lines without a `<PRI>` part (RFC 3164 §4.3.3:
/// `user.notice`).
pub const DEFAULT_PRIORITY: u8 = 13;

/// Collapse a syslog severity (0–7) onto the CMCS ladder.
pub fn map_severity(syslog_severity: u8) -> Severity {
    match syslog_severity {
        0..=2 => Severity::Fatal, // emergency, alert, critical
        3 => Severity::Error,     // error
        4 => Severity::Warning,   // warning
        5 | 6 => Severity::Info,  // notice, info
        _ => Severity::Debug,     // debug
    }
}

/// The synthetic errcode for a facility, or `None` if the running catalogue
/// lacks the `syslog_*` namespace (a build inconsistency, reported as a
/// malformed line rather than a panic).
pub fn facility_errcode(facility: u8) -> Option<ErrCode> {
    let name = FACILITY_NAMES.get(usize::from(facility))?;
    Catalog::standard().lookup(&format!("syslog_{name}"))
}

/// Deterministically place a host on one of the 80 Intrepid midplanes.
pub fn host_location(host: &str) -> Location {
    let idx = bgp_model::bytes::fnv1a_64(host.as_bytes()) % 80;
    Location::Midplane(MidplaneId::from_index_wrapping(idx as u8))
}

fn month_number(token: &str) -> Option<u32> {
    let months = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    months
        .iter()
        .position(|m| *m == token)
        .map(|i| i as u32 + 1)
}

/// Parse one RFC 3164 line into a RAS record with the given record id.
pub fn parse_syslog_line(line: &[u8], recid: u64) -> Result<RasRecord, String> {
    let text = std::str::from_utf8(line).map_err(|_| "line is not valid UTF-8".to_owned())?;
    // <PRI>: optional, at most 3 digits, 0..=191.
    let (priority, rest) = match text.strip_prefix('<') {
        Some(after) => {
            let (digits, rest) = after
                .split_once('>')
                .ok_or_else(|| "unterminated <PRI>".to_owned())?;
            let pri: u8 = digits
                .parse()
                .ok()
                .filter(|p| *p <= 191)
                .ok_or_else(|| format!("bad priority {digits:?}"))?;
            (pri, rest)
        }
        None => (DEFAULT_PRIORITY, text),
    };
    let facility = priority / 8;
    let severity = map_severity(priority % 8);
    // TIMESTAMP: "Mmm dd hh:mm:ss" (day may be space- or zero-padded).
    let mut tokens = rest.split_whitespace();
    let month = tokens
        .next()
        .and_then(month_number)
        .ok_or_else(|| "bad or missing month".to_owned())?;
    let day: u32 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .filter(|d| (1..=31).contains(d))
        .ok_or_else(|| "bad or missing day".to_owned())?;
    let time = tokens.next().ok_or_else(|| "missing time".to_owned())?;
    let mut hms = time.split(':');
    let mut unit = |what: &str, max: u32| -> Result<u32, String> {
        hms.next()
            .and_then(|t| t.parse().ok())
            .filter(|v| *v < max)
            .ok_or_else(|| format!("bad {what} in time {time:?}"))
    };
    let (hh, mm, ss) = (unit("hour", 24)?, unit("minute", 60)?, unit("second", 60)?);
    let host = tokens.next().ok_or_else(|| "missing hostname".to_owned())?;
    let errcode =
        facility_errcode(facility).ok_or_else(|| "catalogue lacks syslog namespace".to_owned())?;
    Ok(RasRecord {
        recid,
        event_time: Timestamp::from_civil(ASSUMED_YEAR, month, day, hh, mm, ss),
        location: host_location(host),
        errcode,
        severity,
    })
}

/// Decode a whole syslog file: one record per parseable line, one diagnostic
/// per malformed line. Lines follow the workspace line rule
/// ([`bgp_model::bytes::lines`]), `#` comments are skipped, and each
/// record's id is its line number.
pub fn decode(data: &[u8]) -> SourceBatch<RasRecord> {
    crate::decode_lines(data, parse_syslog_line)
}

/// The syslog state of a streaming [`crate::LineDecoder`]: record ids come
/// from an internal counter, so decoding the same lines in the same order
/// always yields the same records.
#[derive(Debug, Default)]
pub struct SyslogLineDecoder {
    next_recid: AtomicU64,
}

impl SyslogLineDecoder {
    /// Parse the content of one line (trimmed, not blank, no comment) as
    /// the next record.
    pub fn parse_line(&self, line: &[u8]) -> Result<RasRecord, String> {
        let recid = self.next_recid.fetch_add(1, Ordering::Relaxed) + 1;
        parse_syslog_line(line, recid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_classic_line() {
        let r = parse_syslog_line(b"<13>Mar  1 12:30:00 ionode7 sshd[812]: hello", 5).unwrap();
        assert_eq!(r.recid, 5);
        assert_eq!(r.severity, Severity::Info);
        assert_eq!(r.errcode, facility_errcode(1).unwrap()); // user
        assert_eq!(r.event_time, Timestamp::from_civil(2009, 3, 1, 12, 30, 0));
        assert_eq!(r.location, host_location("ionode7"));
    }

    #[test]
    fn missing_pri_defaults_to_user_notice() {
        let r = parse_syslog_line(b"Mar  1 12:30:00 host msg", 1).unwrap();
        assert_eq!(r.errcode, facility_errcode(1).unwrap());
        assert_eq!(r.severity, Severity::Info);
    }

    #[test]
    fn severity_ladder_collapses_as_documented() {
        assert_eq!(map_severity(0), Severity::Fatal);
        assert_eq!(map_severity(2), Severity::Fatal);
        assert_eq!(map_severity(3), Severity::Error);
        assert_eq!(map_severity(4), Severity::Warning);
        assert_eq!(map_severity(5), Severity::Info);
        assert_eq!(map_severity(6), Severity::Info);
        assert_eq!(map_severity(7), Severity::Debug);
    }

    #[test]
    fn kernel_critical_maps_to_fatal_kern_facility() {
        // <2> = facility 0 (kern), severity 2 (critical).
        let r = parse_syslog_line(b"<2>Oct 11 22:14:15 node5 kernel: oops", 1).unwrap();
        assert_eq!(r.severity, Severity::Fatal);
        let info = Catalog::standard().info(r.errcode);
        assert_eq!(info.name, "syslog_kern");
    }

    #[test]
    fn every_facility_resolves_in_the_catalogue() {
        for f in 0..24u8 {
            let code = facility_errcode(f).unwrap_or_else(|| panic!("facility {f} missing"));
            let info = Catalog::standard().info(code);
            assert!(info.name.starts_with("syslog_"), "{}", info.name);
            assert_ne!(info.severity, Severity::Fatal, "defaults stay non-fatal");
        }
        assert_eq!(facility_errcode(24), None);
    }

    #[test]
    fn malformed_lines_are_rejected_with_reasons() {
        for (line, needle) in [
            (&b"<999>Mar  1 12:30:00 h m"[..], "priority"),
            (b"<13 Mar  1 12:30:00 h m", "unterminated"),
            (b"<13>Zzz  1 12:30:00 h m", "month"),
            (b"<13>Mar 99 12:30:00 h m", "day"),
            (b"<13>Mar  1 25:30:00 h m", "hour"),
            (b"<13>Mar  1 12:61:00 h m", "minute"),
            (b"<13>Mar  1", "time"),
            (b"<13>Mar  1 12:30:00", "hostname"),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let e = parse_syslog_line(line, 1).unwrap_err();
            assert!(e.contains(needle), "{line:?} gave {e:?}");
        }
    }

    #[test]
    fn batch_decode_numbers_lines_like_bgp_ingest() {
        let text = b"<13>Mar  1 12:30:00 h a\n\n# comment\ngarbage here\n<13>Mar  1 12:30:01 h b\n";
        let batch = decode(text);
        assert_eq!(batch.records.len(), 2);
        assert_eq!(batch.records[0].recid, 1);
        assert_eq!(batch.records[1].recid, 5);
        assert_eq!(batch.diagnostics.len(), 1);
        assert_eq!(batch.diagnostics[0].line, 4);
    }

    #[test]
    fn streaming_decoder_is_deterministic() {
        let run = || {
            let d = crate::LineDecoder::for_format(crate::LogFormat::Syslog).unwrap();
            let mut ids = Vec::new();
            for line in [
                &b"<13>Mar  1 12:30:00 h a"[..],
                b"# skip",
                b"<13>Mar  1 12:30:01 h b",
            ] {
                if let crate::LineOutcome::Record(r) = d.decode_line(line) {
                    ids.push(r.recid);
                }
            }
            ids
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![1, 2]);
    }

    #[test]
    fn host_location_is_stable_and_in_range() {
        let a = host_location("ionode7");
        assert_eq!(a, host_location("ionode7"));
        for host in ["a", "b", "login1", "很长的主机名"] {
            match host_location(host) {
                Location::Midplane(mp) => assert!(mp.index() < 80),
                other @ (Location::Rack(_)
                | Location::NodeCard(_)
                | Location::ComputeNode(_)
                | Location::IoNode(_)
                | Location::LinkCard(_)
                | Location::ServiceCard(_)
                | Location::BulkPower(_)
                | Location::ClockCard(_)) => panic!("expected midplane, got {other:?}"),
            }
        }
    }
}
