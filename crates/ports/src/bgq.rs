//! The BG/Q-style multi-file adapter (Sîrbu's five-log shape).
//!
//! The holistic BG/Q study consumes five logs — RAS, job, environment,
//! bootblock, network — where the BG/P pipeline has two. This adapter maps
//! the two logs our model represents onto `RasRecord`/`JobRecord` and
//! acknowledges the other three via [`crate::resolve_input`] notes (they
//! carry telemetry the co-analysis model does not yet consume).
//!
//! On disk the shape is a directory of comma-separated files:
//!
//! * `ras.bgq` — `recid,unix_secs,severity,errcode,location`, where
//!   `errcode` is a catalogue name and `location` the usual `Rxx-...`
//!   string. Unlike the BG/P pipe format, the event time is raw unix
//!   seconds and there is no free-text MESSAGE column at all.
//! * `jobs.bgq` — `jobid,exec,user,project,queue,start,end,partition,exit`
//!   with *numeric* exec/user/project ids (BG/Q accounting does not use the
//!   `app00003.exe` dress-up). `exit` follows the BG/P convention
//!   (`0`, `cancelled`, or a failure code); times must be monotone.
//!
//! Both files follow the workspace line rule
//! ([`bgp_model::bytes::lines`]), and `#` comments are skipped.

use crate::SourceBatch;
use bgp_model::{Partition, Timestamp};
use joblog::{ExecId, ExitStatus, JobRecord, ProjectId, UserId};
use raslog::{Catalog, RasRecord};

fn fields_of(line: &[u8], n: usize) -> Result<Vec<&str>, String> {
    let text = std::str::from_utf8(line).map_err(|_| "line is not valid UTF-8".to_owned())?;
    let fields: Vec<&str> = text.split(',').map(str::trim).collect();
    if fields.len() != n {
        return Err(format!("expected {n} fields, found {}", fields.len()));
    }
    Ok(fields)
}

/// Parse one `ras.bgq` line: `recid,unix_secs,severity,errcode,location`.
pub fn parse_ras_line(line: &[u8]) -> Result<RasRecord, String> {
    let f = fields_of(line, 5)?;
    let recid: u64 = f[0].parse().map_err(|_| format!("bad recid {:?}", f[0]))?;
    let secs: i64 = f[1]
        .parse()
        .map_err(|_| format!("bad unix time {:?}", f[1]))?;
    let severity = f[2]
        .parse()
        .map_err(|_| format!("bad severity {:?}", f[2]))?;
    let errcode = Catalog::standard()
        .lookup(f[3])
        .ok_or_else(|| format!("unknown errcode {:?}", f[3]))?;
    let location = f[4]
        .parse()
        .map_err(|_| format!("bad location {:?}", f[4]))?;
    Ok(RasRecord {
        recid,
        event_time: Timestamp::from_unix(secs),
        location,
        errcode,
        severity,
    })
}

/// Parse one `jobs.bgq` line:
/// `jobid,exec,user,project,queue,start,end,partition,exit`.
pub fn parse_job_line(line: &[u8]) -> Result<JobRecord, String> {
    let f = fields_of(line, 9)?;
    let int = |what: &str, v: &str| -> Result<u32, String> {
        v.parse().map_err(|_| format!("bad {what} {v:?}"))
    };
    let time = |what: &str, v: &str| -> Result<Timestamp, String> {
        // Accept a fractional tail like the BG/P accounting parser.
        v.split('.')
            .next()
            .and_then(|whole| whole.parse::<i64>().ok())
            .map(Timestamp::from_unix)
            .ok_or_else(|| format!("bad {what} {v:?}"))
    };
    let job_id: u64 = f[0].parse().map_err(|_| format!("bad jobid {:?}", f[0]))?;
    let exec = ExecId(int("exec", f[1])?);
    let user = UserId(int("user", f[2])?);
    let project = ProjectId(int("project", f[3])?);
    let queue_time = time("queue time", f[4])?;
    let start_time = time("start time", f[5])?;
    let end_time = time("end time", f[6])?;
    if end_time < start_time || start_time < queue_time {
        return Err(format!(
            "non-monotone times: queue {} start {} end {}",
            queue_time.as_unix(),
            start_time.as_unix(),
            end_time.as_unix()
        ));
    }
    let partition: Partition = f[7]
        .parse()
        .map_err(|_| format!("bad partition {:?}", f[7]))?;
    let exit = match f[8] {
        "cancelled" => ExitStatus::Cancelled,
        "0" => ExitStatus::Completed,
        other => ExitStatus::Failed(other.parse().map_err(|_| format!("bad exit {other:?}"))?),
    };
    Ok(JobRecord {
        job_id,
        exec,
        user,
        project,
        queue_time,
        start_time,
        end_time,
        partition,
        exit,
    })
}

/// Decode a whole `ras.bgq` file.
pub fn decode_ras(data: &[u8]) -> SourceBatch<RasRecord> {
    crate::decode_lines(data, |line, _| parse_ras_line(line))
}

/// Decode a whole `jobs.bgq` file.
pub fn decode_jobs(data: &[u8]) -> SourceBatch<JobRecord> {
    crate::decode_lines(data, |line, _| parse_job_line(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raslog::Severity;

    #[test]
    fn ras_lines_round_trip_onto_the_model() {
        let line = b"7,1236000000,FATAL,_bgp_err_kernel_panic,R12-M1-N07-J03";
        let r = parse_ras_line(line).unwrap();
        assert_eq!(r.recid, 7);
        assert_eq!(r.event_time, Timestamp::from_unix(1_236_000_000));
        assert_eq!(r.severity, Severity::Fatal);
        assert_eq!(r.errcode_name(), "_bgp_err_kernel_panic");
    }

    #[test]
    fn job_lines_round_trip_onto_the_model() {
        let line = b"8935,3,1,9,100,200.5,300,R10-R11,0";
        let j = parse_job_line(line).unwrap();
        assert_eq!(j.job_id, 8935);
        assert_eq!(j.exec, ExecId(3));
        assert_eq!(j.start_time, Timestamp::from_unix(200));
        assert_eq!(j.exit, ExitStatus::Completed);
        let j = parse_job_line(b"1,1,1,1,100,200,300,R10-R11,cancelled").unwrap();
        assert_eq!(j.exit, ExitStatus::Cancelled);
        let j = parse_job_line(b"1,1,1,1,100,200,300,R10-R11,139").unwrap();
        assert_eq!(j.exit, ExitStatus::Failed(139));
    }

    #[test]
    fn malformed_lines_carry_reasons() {
        for (line, needle) in [
            (&b"1,2,3"[..], "fields"),
            (b"x,1236000000,FATAL,_bgp_err_kernel_panic,R00-M0", "recid"),
            (b"1,now,FATAL,_bgp_err_kernel_panic,R00-M0", "unix time"),
            (b"1,0,SUPERFATAL,_bgp_err_kernel_panic,R00-M0", "severity"),
            (b"1,0,FATAL,mystery,R00-M0", "errcode"),
            (b"1,0,FATAL,_bgp_err_kernel_panic,Z9", "location"),
        ] {
            let e = parse_ras_line(line).unwrap_err();
            assert!(e.contains(needle), "{line:?} gave {e:?}");
        }
        for (line, needle) in [
            (&b"1,1,1,1,100,200,150,R10-R11,0"[..], "non-monotone"),
            (b"1,1,1,1,300,200,400,R10-R11,0", "non-monotone"),
            (b"1,x,1,1,100,200,300,R10-R11,0", "exec"),
            (b"1,1,1,1,100,200,300,R10-R11,zero", "exit"),
        ] {
            let e = parse_job_line(line).unwrap_err();
            assert!(e.contains(needle), "{line:?} gave {e:?}");
        }
    }

    #[test]
    fn batch_decode_skips_comments_and_numbers_diagnostics() {
        let text = b"# bgq ras\n7,0,FATAL,_bgp_err_kernel_panic,R00-M0\n\ngarbage\n";
        let batch = decode_ras(text);
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.diagnostics.len(), 1);
        assert_eq!(batch.diagnostics[0].line, 4);
        let text = b"1,1,1,1,100,200,300,R10-R11,0\nbad\n";
        let batch = decode_jobs(text);
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.diagnostics[0].line, 2);
    }
}
