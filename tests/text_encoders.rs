//! The log writers' byte encoders against the `format!` definitions they
//! replaced. The oracle below is a frozen copy of those definitions, built
//! only from public accessors (`Timestamp::to_civil`, the location ids'
//! fields, the catalogue), so a change to an encoder cannot move it too.
//! Every log line written, every `format_record` and every `Display` of a
//! timestamp, location, partition or job field must equal it byte for
//! byte, and each record must parse back from its line.

#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_model::{
    ComputeNodeId, Duration, IoNodeId, LinkCardId, Location, MidplaneId, NodeCardId, Partition,
    RackId, Timestamp,
};
use bgp_coanalysis::joblog::{self, ExecId, ExitStatus, JobRecord, ProjectId, UserId};
use bgp_coanalysis::raslog::{self, Catalog, ErrCode, RasRecord, Severity};
use proptest::prelude::*;
use std::io::{self, Write};

/// The oracle: the text forms as `format!` wrote them.
mod oracle {
    use super::*;

    pub fn timestamp(t: Timestamp) -> String {
        let (y, mo, d, hh, mm, ss) = t.to_civil();
        format!("{y:04}-{mo:02}-{d:02}-{hh:02}.{mm:02}.{ss:02}")
    }

    fn rack(r: RackId) -> String {
        format!("R{}{}", r.row(), r.col())
    }

    fn midplane(m: MidplaneId) -> String {
        format!("{}-M{}", rack(m.rack()), m.m())
    }

    fn node_card(nc: NodeCardId) -> String {
        format!("{}-N{:02}", midplane(nc.midplane()), nc.card())
    }

    pub fn location(loc: Location) -> String {
        match loc {
            Location::Rack(r) => rack(r),
            Location::Midplane(m) => midplane(m),
            Location::NodeCard(nc) => node_card(nc),
            Location::ComputeNode(cn) => format!("{}-J{:02}", node_card(cn.node_card()), cn.j()),
            Location::IoNode(io) => format!("{}-I{}", midplane(io.midplane()), io.index()),
            Location::LinkCard(lc) => format!("{}-L{}", midplane(lc.midplane()), lc.index()),
            Location::ServiceCard(m) => format!("{}-S", midplane(m)),
            Location::BulkPower(r) => format!("{}-B", rack(r)),
            Location::ClockCard(r) => format!("{}-K", rack(r)),
        }
    }

    pub fn partition(p: Partition) -> String {
        if p.is_empty() {
            return "<empty>".to_owned();
        }
        let n = p.len();
        if n == 1 {
            if let Some(only) = p.first() {
                return midplane(only);
            }
        }
        if p.is_contiguous() && n.is_multiple_of(2) {
            let lo = p.mask().trailing_zeros() as u8;
            let hi = (127 - p.mask().leading_zeros()) as u8;
            if lo.is_multiple_of(2) {
                if let (Ok(first), Ok(last)) =
                    (MidplaneId::from_index(lo), MidplaneId::from_index(hi))
                {
                    return format!("{}-{}", rack(first.rack()), rack(last.rack()));
                }
            }
        }
        p.midplanes().map(midplane).collect::<Vec<_>>().join(",")
    }

    pub fn exit(e: ExitStatus) -> String {
        match e {
            ExitStatus::Completed => "0".to_owned(),
            ExitStatus::Failed(code) => format!("{code}"),
            ExitStatus::Cancelled => "cancelled".to_owned(),
        }
    }

    pub fn ras_line(r: &RasRecord) -> String {
        let info = Catalog::standard().info(r.errcode);
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}",
            r.recid,
            info.msg_id,
            info.component.as_str(),
            info.subcomponent,
            info.name,
            r.severity.as_str(),
            timestamp(r.event_time),
            location(r.location),
            info.template,
        )
    }

    pub fn job_line(j: &JobRecord) -> String {
        format!(
            "{}|app{:05}.exe|user{:03}|proj{:03}|{}|{}|{}|{}|{}",
            j.job_id,
            j.exec.0,
            j.user.0,
            j.project.0,
            j.queue_time.as_unix(),
            j.start_time.as_unix(),
            j.end_time.as_unix(),
            partition(j.partition),
            exit(j.exit),
        )
    }
}

fn code(i: usize) -> ErrCode {
    Catalog::standard().codes().nth(i).unwrap()
}

/// A location of the variant `kind % 9`, its numbers drawn from `a..c`
/// (reduced into range where the type holds them private).
fn location(kind: u8, a: u8, b: u8, c: u8) -> Location {
    let rack = RackId::from_index_wrapping(a);
    let midplane = MidplaneId::from_index_wrapping(a);
    let node_card = NodeCardId::new_wrapping(midplane, b);
    match kind % 9 {
        0 => Location::Rack(rack),
        1 => Location::Midplane(midplane),
        2 => Location::NodeCard(node_card),
        3 => Location::ComputeNode(ComputeNodeId::new_wrapping(node_card, c)),
        4 => Location::IoNode(IoNodeId::new_wrapping(midplane, c)),
        5 => Location::LinkCard(LinkCardId::new_wrapping(midplane, c)),
        6 => Location::ServiceCard(midplane),
        7 => Location::BulkPower(rack),
        _ => Location::ClockCard(rack),
    }
}

fn arb_location() -> impl Strategy<Value = Location> {
    (0u8..9, 0..=u8::MAX, 0..=u8::MAX, 0..=u8::MAX).prop_map(|(k, a, b, c)| location(k, a, b, c))
}

/// Years whose text the `{y:04}` padding and sign decide, and calendar
/// edges: the last second of a day, of February in leap and common years,
/// and of a year.
const YEARS: [i32; 18] = [
    -10_000, -1_000, -999, -5, -1, 0, 1, 999, 1_000, 1_900, 1_969, 1_970, 2_000, 2_008, 2_009,
    9_999, 10_000, 12_345,
];
const DAYS: [(u32, u32); 6] = [(1, 1), (2, 28), (2, 29), (3, 1), (6, 30), (12, 31)];

fn arb_timestamp() -> impl Strategy<Value = Timestamp> {
    let near_edge = (0..YEARS.len(), 0..DAYS.len(), -2i64..=2).prop_map(|(y, d, off)| {
        let (mo, day) = DAYS[d];
        Timestamp::from_civil(YEARS[y], mo, day, 0, 0, 0) + Duration(off)
    });
    let anywhere = (i64::MIN..=i64::MAX).prop_map(Timestamp::from_unix);
    let paper = (1_230_000_000i64..1_260_000_000).prop_map(Timestamp::from_unix);
    prop_oneof![near_edge, anywhere, paper]
}

fn arb_recid() -> impl Strategy<Value = u64> {
    (0u8..4, 0..=u64::MAX).prop_map(|(k, v)| match k {
        0 => 0,
        1 => u64::MAX,
        _ => v,
    })
}

fn arb_ras() -> impl Strategy<Value = RasRecord> {
    let codes = Catalog::standard().len();
    (
        arb_recid(),
        arb_timestamp(),
        arb_location(),
        0..codes,
        0..Severity::ALL.len() + 1,
    )
        .prop_map(|(recid, t, loc, c, sev)| {
            let mut r = RasRecord::new(recid, t, loc, code(c));
            // One draw in seven keeps the code's default severity.
            if let Some(&s) = Severity::ALL.get(sev) {
                r.severity = s;
            }
            r
        })
}

fn arb_partition() -> impl Strategy<Value = Partition> {
    let mask = (0..=u64::MAX, 0..=u16::MAX)
        .prop_map(|(lo, hi)| Partition::from_mask(u128::from(lo) | u128::from(hi) << 64).unwrap());
    let racks = (0u8..40, 1u32..=40).prop_map(|(start, n)| {
        Partition::contiguous(start * 2, (n * 2).min(80 - u32::from(start) * 2)).unwrap()
    });
    let single = (0u8..80).prop_map(|i| Partition::single(MidplaneId::from_index(i).unwrap()));
    let few = collection::vec(0u8..80, 0..5).prop_map(|ms| {
        Partition::from_midplanes(ms.into_iter().map(|i| MidplaneId::from_index(i).unwrap()))
    });
    prop_oneof![mask, racks, single, few]
}

fn arb_exit() -> impl Strategy<Value = ExitStatus> {
    (0u8..3, 0..=u16::MAX).prop_map(|(k, code)| match k {
        0 => ExitStatus::Completed,
        1 => ExitStatus::Failed(code),
        _ => ExitStatus::Cancelled,
    })
}

fn arb_job() -> impl Strategy<Value = JobRecord> {
    let ids = (arb_recid(), 0..=u32::MAX, 0..=u32::MAX, 0..=u32::MAX);
    let times = (arb_timestamp(), arb_timestamp(), arb_timestamp());
    (ids, times, arb_partition(), arb_exit()).prop_map(
        |((job_id, exec, user, project), (q, s, e), partition, exit)| JobRecord {
            job_id,
            exec: ExecId(exec),
            user: UserId(user),
            project: ProjectId(project),
            queue_time: q,
            start_time: s,
            end_time: e,
            partition,
            exit,
        },
    )
}

/// `lines` joined, each closed by `\n`: what `write_log` must write.
fn log_text(lines: impl Iterator<Item = String>) -> String {
    lines.map(|l| l + "\n").collect()
}

#[expect(
    clippy::disallowed_methods,
    reason = "the round trip is checked against the raw parser itself"
)]
fn parse_ras(line: &str) -> RasRecord {
    raslog::parse_line_bytes(line.as_bytes()).unwrap()
}

#[expect(
    clippy::disallowed_methods,
    reason = "the round trip is checked against the raw parser itself"
)]
fn parse_job(line: &str) -> JobRecord {
    joblog::parse_line_bytes(line.as_bytes()).unwrap()
}

proptest! {
    #[test]
    fn ras_lines_equal_the_format_definition(drawn in collection::vec(arb_ras(), 0..40)) {
        let mut records = drawn;
        for r in &records {
            prop_assert_eq!(raslog::format_record(r), oracle::ras_line(r));
            prop_assert_eq!(r.event_time.to_string(), oracle::timestamp(r.event_time));
            prop_assert_eq!(r.location.to_string(), oracle::location(r.location));
        }
        // Once as drawn (the day changes on most lines), once time-sorted
        // (the writer reuses the day's date on most lines).
        for _ in 0..2 {
            let mut out = Vec::new();
            raslog::write_log(&mut out, &records).unwrap();
            prop_assert_eq!(
                String::from_utf8(out).unwrap(),
                log_text(records.iter().map(oracle::ras_line))
            );
            records.sort_by_key(|r| r.event_time);
        }
    }

    #[test]
    fn job_lines_equal_the_format_definition(jobs in collection::vec(arb_job(), 0..20)) {
        for j in &jobs {
            prop_assert_eq!(joblog::format_record(j), oracle::job_line(j));
            prop_assert_eq!(j.partition.to_string(), oracle::partition(j.partition));
            prop_assert_eq!(j.exit.to_string(), oracle::exit(j.exit));
            prop_assert_eq!(j.exec.to_string(), format!("app{:05}.exe", j.exec.0));
            prop_assert_eq!(j.user.to_string(), format!("user{:03}", j.user.0));
            prop_assert_eq!(j.project.to_string(), format!("proj{:03}", j.project.0));
        }
        let mut out = Vec::new();
        joblog::write_log(&mut out, &jobs).unwrap();
        prop_assert_eq!(
            String::from_utf8(out).unwrap(),
            log_text(jobs.iter().map(oracle::job_line))
        );
    }

    #[test]
    fn written_ras_lines_parse_back(
        recid in arb_recid(),
        secs in -31_619_119_219_200i64..31_494_816_403_200,
        kind in 0u8..9,
        a in 0..=u8::MAX,
        b in 0..=u8::MAX,
        c in 0..=u8::MAX,
        code_index in 0..Catalog::standard().len(),
        sev in 0..Severity::ALL.len(),
    ) {
        // Years -1,000,000 to 1,000,000.
        let mut r = RasRecord::new(
            recid,
            Timestamp::from_unix(secs),
            location(kind, a, b, c),
            code(code_index),
        );
        r.severity = Severity::ALL[sev];
        let line = raslog::format_record(&r);
        prop_assert_eq!(parse_ras(&line), r);
    }

    #[test]
    fn written_job_lines_parse_back(drawn in arb_job()) {
        // A job log holds no empty partition and no time running backwards.
        prop_assume!(!drawn.partition.is_empty());
        let mut times = [drawn.queue_time, drawn.start_time, drawn.end_time];
        times.sort();
        let [queue_time, start_time, end_time] = times;
        let j = JobRecord { queue_time, start_time, end_time, ..drawn };
        let line = joblog::format_record(&j);
        prop_assert_eq!(parse_job(&line), j);
    }
}

/// Every catalogue code, at every severity and at every location variant.
#[test]
fn every_code_severity_and_location_variant_equals_the_format_definition() {
    let catalog = Catalog::standard();
    let mut records = Vec::new();
    for (i, c) in catalog.codes().enumerate() {
        for (k, &severity) in Severity::ALL.iter().enumerate() {
            let kind = (i + k) as u8;
            let mut r = RasRecord::new(
                i as u64,
                Timestamp::from_civil(2009, 1, 5, 0, 0, 0) + Duration(i as i64 * 997),
                location(kind, kind.wrapping_mul(7), kind, kind),
                c,
            );
            r.severity = severity;
            records.push(r);
        }
    }
    assert!(records.len() >= 9 * Severity::ALL.len());
    for r in &records {
        assert_eq!(raslog::format_record(r), oracle::ras_line(r));
    }
    let mut out = Vec::new();
    raslog::write_log(&mut out, &records).unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        log_text(records.iter().map(oracle::ras_line))
    );
}

/// A writer that takes every byte and fails every flush.
struct FailingFlush;

impl Write for FailingFlush {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Err(io::Error::other("flush failed"))
    }
}

/// Both writers flush before returning, so an error on the last buffered
/// bytes reaches the caller instead of vanishing with a dropped
/// `BufWriter`.
#[test]
fn write_log_returns_the_final_flush_error() {
    let r = RasRecord::new(1, Timestamp::from_unix(0), location(0, 0, 0, 0), code(0));
    let err = raslog::write_log(&mut FailingFlush, [&r]).unwrap_err();
    assert_eq!(err.to_string(), "flush failed");
    let j = JobRecord {
        job_id: 1,
        exec: ExecId(1),
        user: UserId(1),
        project: ProjectId(1),
        queue_time: Timestamp::from_unix(0),
        start_time: Timestamp::from_unix(1),
        end_time: Timestamp::from_unix(2),
        partition: "R00-M0".parse().unwrap(),
        exit: ExitStatus::Completed,
    };
    let err = joblog::write_log(&mut FailingFlush, [&j]).unwrap_err();
    assert_eq!(err.to_string(), "flush failed");
}
