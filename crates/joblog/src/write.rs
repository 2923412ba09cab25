//! Serializing job records to the pipe-separated accounting format.
//!
//! ```text
//! JOBID|EXEC|USER|PROJECT|QUEUE_TIME|START_TIME|END_TIME|LOCATION|EXIT
//! ```
//!
//! Times are Unix seconds (Cobalt writes Unix timestamps — Table III of the
//! paper shows `1209618043.1`; we keep whole seconds).

use crate::record::JobRecord;
use bgp_model::text;
use std::io::{self, Write};

/// Append `j`'s line (no newline) to `out`: the one definition of the job
/// line's text.
fn encode(j: &JobRecord, out: &mut Vec<u8>) {
    text::push_u64(out, j.job_id, 0);
    out.push(b'|');
    j.exec.encode(out);
    out.push(b'|');
    j.user.encode(out);
    out.push(b'|');
    j.project.encode(out);
    for t in [j.queue_time, j.start_time, j.end_time] {
        out.push(b'|');
        text::push_i64(out, t.as_unix(), 0);
    }
    out.push(b'|');
    j.partition.encode(out);
    out.push(b'|');
    j.exit.encode(out);
}

/// Format a single record as a log line (no trailing newline): the text
/// [`write_log`] writes for it.
pub fn format_record(j: &JobRecord) -> String {
    text::to_string_with(|out| encode(j, out))
}

/// Write records to `w`, one line each, and flush `w`.
pub fn write_log<'a, W: Write, I: IntoIterator<Item = &'a JobRecord>>(
    w: &mut W,
    jobs: I,
) -> io::Result<()> {
    text::write_lines(w, jobs, encode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExecId, ExitStatus, ProjectId, UserId};
    use bgp_model::Timestamp;

    #[test]
    fn nine_fields() {
        let j = JobRecord {
            job_id: 8935,
            exec: ExecId(3),
            user: UserId(1),
            project: ProjectId(9),
            queue_time: Timestamp::from_unix(100),
            start_time: Timestamp::from_unix(200),
            end_time: Timestamp::from_unix(300),
            partition: "R10-R11".parse().unwrap(),
            exit: ExitStatus::Failed(137),
        };
        let line = format_record(&j);
        let fields: Vec<&str> = line.split('|').collect();
        assert_eq!(fields.len(), 9);
        assert_eq!(fields[0], "8935");
        assert_eq!(fields[1], "app00003.exe");
        assert_eq!(fields[7], "R10-R11");
        assert_eq!(fields[8], "137");
        let mut buf = Vec::new();
        write_log(&mut buf, [&j, &j]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
    }
}
