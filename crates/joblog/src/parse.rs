//! Parsing the job accounting format (tolerant, streaming).

use crate::record::{ExecId, ExitStatus, JobRecord, ProjectId, UserId};
use bgp_model::{Partition, Timestamp};
use std::fmt;
use std::io::BufRead;

/// A parse failure for one line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParseError {
    /// 1-based line number (0 for standalone parses).
    pub line: u64,
    /// Which field was malformed and why.
    pub message: String,
    /// Broad failure class (malformed line vs. reader failure).
    pub kind: JobParseErrorKind,
}

/// Broad class of a job-log parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobParseErrorKind {
    /// The line was present but malformed.
    Format,
    /// The underlying reader failed mid-stream (the log is truncated from
    /// this line on, not merely malformed).
    Io,
}

impl fmt::Display for JobParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JobParseError {}

fn format_err(message: String) -> JobParseError {
    JobParseError {
        line: 0,
        message,
        kind: JobParseErrorKind::Format,
    }
}

fn field_err(what: &str, value: &str) -> JobParseError {
    format_err(format!("bad {what}: {value:?}"))
}

fn field_err_bytes(what: &str, value: &[u8]) -> JobParseError {
    field_err(what, &String::from_utf8_lossy(value))
}

/// Parse an id token with a known prefix and suffix, e.g. `app00012.exe`.
fn parse_prefixed(token: &str, prefix: &str, suffix: &str) -> Option<u32> {
    token
        .strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Parse one accounting line into a [`JobRecord`].
#[expect(
    clippy::disallowed_methods,
    reason = "the `&str` entry point is a thin wrapper over the byte parser it sits beside"
)]
pub fn parse_line(line: &str) -> Result<JobRecord, JobParseError> {
    parse_line_bytes(line.as_bytes())
}

/// Parse one accounting line given as raw bytes — the allocation-free hot
/// path used by the parallel ingestion layer (`crate::ingest`).
///
/// For any valid-UTF-8 line this behaves *identically* to [`parse_line`]
/// (same record, or same error message). Unlike the RAS format, every job
/// field is parsed, so each field is UTF-8-transcoded individually; a field
/// with invalid UTF-8 reports the same error as an unparseable value, with a
/// lossy payload.
pub fn parse_line_bytes(line: &[u8]) -> Result<JobRecord, JobParseError> {
    // Unlike RAS MESSAGE, no field may contain '|': `split('|')` semantics,
    // counting every separator. A ninth field holding more separators only
    // happens on the error path, so the rest are counted only there.
    let (fields, mut count) = bgp_model::bytes::splitn_byte::<9>(b'|', line);
    if count == 9 {
        count += fields[8].iter().filter(|&&b| b == b'|').count();
    }
    if count != 9 {
        return Err(format_err(format!("expected 9 fields, found {count}")));
    }
    // Each field first tries a byte-level fast path for its canonical form
    // (the form `format_record` writes); when that declines, the general
    // parser (trim, UTF-8, `FromStr`) decides. A fast path answers only
    // where the general parser gives the same value, so the general parser
    // alone defines what a line means and supplies every error message.
    fn text(f: &[u8]) -> Option<&str> {
        std::str::from_utf8(f).ok().map(str::trim)
    }
    let job_id: u64 = digits(fields[0], 19)
        .or_else(|| text(fields[0])?.parse().ok())
        .ok_or_else(|| field_err_bytes("JOBID", fields[0]))?;
    let id = |f: &[u8], prefix: &str, suffix: &str, what| {
        prefixed_digits(f, prefix.as_bytes(), suffix.as_bytes())
            .or_else(|| parse_prefixed(text(f)?, prefix, suffix))
            .ok_or_else(|| field_err_bytes(what, f))
    };
    let exec = ExecId(id(fields[1], "app", ".exe", "EXEC")?);
    let user = UserId(id(fields[2], "user", "", "USER")?);
    let project = ProjectId(id(fields[3], "proj", "", "PROJECT")?);
    // Unix-second fields; accept a fractional tail (Cobalt writes floats).
    let unix = |f: &[u8], what| -> Result<Timestamp, JobParseError> {
        digits(f, 18)
            .and_then(|secs| i64::try_from(secs).ok())
            .or_else(|| {
                text(f)?
                    .split('.')
                    .next()
                    .and_then(|whole| whole.parse::<i64>().ok())
            })
            .map(Timestamp::from_unix)
            .ok_or_else(|| field_err_bytes(what, f))
    };
    let queue_time = unix(fields[4], "QUEUE_TIME")?;
    let start_time = unix(fields[5], "START_TIME")?;
    let end_time = unix(fields[6], "END_TIME")?;
    if end_time < start_time || start_time < queue_time {
        return Err(format_err(format!(
            "non-monotone times: queue {} start {} end {}",
            queue_time.as_unix(),
            start_time.as_unix(),
            end_time.as_unix()
        )));
    }
    let partition: Partition = Partition::parse_canonical(fields[7])
        .or_else(|| text(fields[7])?.parse().ok())
        .ok_or_else(|| field_err_bytes("LOCATION", fields[7]))?;
    let exit = match fields[8] {
        b"0" => ExitStatus::Completed,
        b"cancelled" => ExitStatus::Cancelled,
        f => match digits(f, 4).and_then(|code| u16::try_from(code).ok()) {
            Some(code) => ExitStatus::Failed(code),
            None => match text(f) {
                Some("cancelled") => ExitStatus::Cancelled,
                Some("0") => ExitStatus::Completed,
                other => ExitStatus::Failed(
                    other
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| field_err_bytes("EXIT", f))?,
                ),
            },
        },
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

/// Digits fast path: 1 to `max` ASCII digits, which always fit the field's
/// type for the `max` each caller passes. Anything else (a sign, padding, a
/// fractional tail, more digits) is left to the general parser.
fn digits(f: &[u8], max: usize) -> Option<u64> {
    if f.is_empty() || f.len() > max {
        return None;
    }
    f.iter().try_fold(0u64, |acc, &c| {
        c.is_ascii_digit().then(|| acc * 10 + u64::from(c - b'0'))
    })
}

/// Id fast path: `prefix`, 1 to 9 digits (always a `u32`), `suffix`.
fn prefixed_digits(f: &[u8], prefix: &[u8], suffix: &[u8]) -> Option<u32> {
    let n = digits(f.strip_prefix(prefix)?.strip_suffix(suffix)?, 9)?;
    u32::try_from(n).ok()
}

/// Streaming reader: yields one `Result` per non-empty line.
pub struct JobReader<R> {
    inner: R,
    line_no: u64,
    buf: String,
    failed: bool,
}

impl<R: BufRead> JobReader<R> {
    /// Wrap a buffered reader.
    pub fn new(inner: R) -> Self {
        JobReader {
            inner,
            line_no: 0,
            buf: String::new(),
            failed: false,
        }
    }

    /// Read everything, skipping malformed lines.
    pub fn read_tolerant(self) -> (Vec<JobRecord>, Vec<JobParseError>) {
        let mut jobs = Vec::new();
        let mut errors = Vec::new();
        for item in self {
            match item {
                Ok(j) => jobs.push(j),
                Err(e) => errors.push(e),
            }
        }
        (jobs, errors)
    }

    /// Read everything, failing on the first malformed line.
    pub fn read_strict(self) -> Result<Vec<JobRecord>, JobParseError> {
        self.collect()
    }
}

impl<R: BufRead> Iterator for JobReader<R> {
    type Item = Result<JobRecord, JobParseError>;

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
                    return Some(Err(JobParseError {
                        line: self.line_no,
                        message: format!("I/O error: {e}"),
                        kind: JobParseErrorKind::Io,
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

    fn job() -> JobRecord {
        JobRecord {
            job_id: 8935,
            exec: ExecId(3),
            user: UserId(1),
            project: ProjectId(9),
            queue_time: Timestamp::from_unix(100),
            start_time: Timestamp::from_unix(200),
            end_time: Timestamp::from_unix(300),
            partition: "R10-R11".parse().unwrap(),
            exit: ExitStatus::Completed,
        }
    }

    #[test]
    fn round_trip() {
        let j = job();
        assert_eq!(parse_line(&format_record(&j)).unwrap(), j);
        let mut j2 = j;
        j2.exit = ExitStatus::Failed(139);
        assert_eq!(parse_line(&format_record(&j2)).unwrap(), j2);
        let mut j3 = j;
        j3.exit = ExitStatus::Cancelled;
        assert_eq!(parse_line(&format_record(&j3)).unwrap(), j3);
    }

    #[test]
    fn accepts_fractional_cobalt_times() {
        let line = "8935|app00003.exe|user001|proj009|100.07|200.1|300.96|R10-R11|0";
        let j = parse_line(line).unwrap();
        assert_eq!(j.queue_time, Timestamp::from_unix(100));
        assert_eq!(j.end_time, Timestamp::from_unix(300));
    }

    #[test]
    fn rejects_malformed() {
        let good = format_record(&job());
        for bad in [
            "a|b".to_owned(),
            good.replacen("8935", "abc", 1),
            good.replace("app00003.exe", "notanapp"),
            good.replace("user001", "bob"),
            good.replace("proj009", "lab"),
            good.replace("R10-R11", "R99"),
            good.replace("|0", "|zero"),
            // end before start:
            "1|app00001.exe|user001|proj001|100|200|150|R00-M0|0".to_owned(),
            // start before queue:
            "1|app00001.exe|user001|proj001|300|200|400|R00-M0|0".to_owned(),
        ] {
            assert!(parse_line(&bad).is_err(), "should reject {bad:?}");
        }
    }

    struct FailingReader;

    impl std::io::Read for FailingReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn io_errors_surface_once_with_line_number() {
        let text = format!("{}\n", format_record(&job()));
        let chained = std::io::Read::chain(text.as_bytes(), FailingReader);
        let (jobs, errors) = JobReader::new(std::io::BufReader::new(chained)).read_tolerant();
        assert_eq!(jobs.len(), 1);
        assert_eq!(errors.len(), 1, "I/O error must surface exactly once");
        assert_eq!(errors[0].line, 2);
        assert_eq!(errors[0].kind, JobParseErrorKind::Io);
        assert!(errors[0].message.contains("disk on fire"));
    }

    #[test]
    fn format_errors_carry_format_kind() {
        let e = parse_line("a|b").unwrap_err();
        assert_eq!(e.kind, JobParseErrorKind::Format);
    }

    #[test]
    fn reader_tolerant_and_strict() {
        let good = format_record(&job());
        let text = format!("{good}\njunk\n{good}\n");
        let (jobs, errs) = JobReader::new(text.as_bytes()).read_tolerant();
        assert_eq!(jobs.len(), 2);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].line, 2);
        assert!(JobReader::new(text.as_bytes()).read_strict().is_err());
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(
            job_id in 0u64..1_000_000,
            exec in 0u32..100_000,
            user in 0u32..1000,
            project in 0u32..1000,
            t0 in 0i64..1_000_000_000,
            wait in 0i64..100_000,
            run in 0i64..500_000,
            start_mp in 0u8..78,
            exit_code in 0u16..255,
        ) {
            let j = JobRecord {
                job_id,
                exec: ExecId(exec),
                user: UserId(user),
                project: ProjectId(project),
                queue_time: Timestamp::from_unix(t0),
                start_time: Timestamp::from_unix(t0 + wait),
                end_time: Timestamp::from_unix(t0 + wait + run),
                partition: Partition::contiguous(start_mp, 2).unwrap(),
                exit: if exit_code == 0 { ExitStatus::Completed } else { ExitStatus::Failed(exit_code) },
            };
            prop_assert_eq!(parse_line(&crate::write::format_record(&j)).unwrap(), j);
        }
    }

    /// The general path alone, as `parse_line_bytes` parsed every field
    /// before the fast paths: `split('|')`, then `str::parse` on each
    /// trimmed UTF-8 field. The fast paths must be invisible against it.
    fn reference(line: &[u8]) -> Result<JobRecord, JobParseError> {
        let fields: Vec<&[u8]> = line.split(|&b| b == b'|').collect();
        if fields.len() != 9 {
            return Err(format_err(format!(
                "expected 9 fields, found {}",
                fields.len()
            )));
        }
        fn text(f: &[u8]) -> Option<&str> {
            std::str::from_utf8(f).ok().map(str::trim)
        }
        let job_id: u64 = text(fields[0])
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| field_err_bytes("JOBID", fields[0]))?;
        let exec = ExecId(
            text(fields[1])
                .and_then(|s| parse_prefixed(s, "app", ".exe"))
                .ok_or_else(|| field_err_bytes("EXEC", fields[1]))?,
        );
        let user = UserId(
            text(fields[2])
                .and_then(|s| parse_prefixed(s, "user", ""))
                .ok_or_else(|| field_err_bytes("USER", fields[2]))?,
        );
        let project = ProjectId(
            text(fields[3])
                .and_then(|s| parse_prefixed(s, "proj", ""))
                .ok_or_else(|| field_err_bytes("PROJECT", fields[3]))?,
        );
        let unix = |f: &[u8], what| -> Result<Timestamp, JobParseError> {
            text(f)
                .and_then(|s| s.split('.').next())
                .and_then(|whole| whole.parse::<i64>().ok())
                .map(Timestamp::from_unix)
                .ok_or_else(|| field_err_bytes(what, f))
        };
        let queue_time = unix(fields[4], "QUEUE_TIME")?;
        let start_time = unix(fields[5], "START_TIME")?;
        let end_time = unix(fields[6], "END_TIME")?;
        if end_time < start_time || start_time < queue_time {
            return Err(format_err(format!(
                "non-monotone times: queue {} start {} end {}",
                queue_time.as_unix(),
                start_time.as_unix(),
                end_time.as_unix()
            )));
        }
        let partition: Partition = text(fields[7])
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| field_err_bytes("LOCATION", fields[7]))?;
        let exit = match text(fields[8]) {
            Some("cancelled") => ExitStatus::Cancelled,
            Some("0") => ExitStatus::Completed,
            other => ExitStatus::Failed(
                other
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| field_err_bytes("EXIT", fields[8]))?,
            ),
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

    fn assert_matches_reference(line: &[u8]) {
        assert_eq!(
            parse_line_bytes(line),
            reference(line),
            "line {:?}",
            String::from_utf8_lossy(line)
        );
    }

    /// Byte strings the proptest splices into lines: each class of byte the
    /// fast paths treat specially (digits, separators, signs, dots, ASCII
    /// and Unicode whitespace, non-ASCII text, invalid UTF-8, the id
    /// prefixes and suffix, partition letters, exit words).
    const SPLICE: &[&str] = &[
        " ",
        "\t",
        "+",
        "-",
        ".",
        "|",
        ",",
        "0",
        "1",
        "7",
        "9",
        "42",
        "R",
        "M",
        "app",
        ".exe",
        "user",
        "proj",
        "é",
        "\u{a0}",
        "cancelled",
        "99999",
        "R-",
        ".5",
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
            match self.below(SPLICE.len() + 1) {
                i if i < SPLICE.len() => SPLICE[i].as_bytes(),
                _ => b"\xff",
            }
        }
    }

    #[test]
    fn fast_paths_match_the_reference_on_named_edge_cases() {
        let good = format_record(&job());
        let with = |i: usize, value: &str| -> Vec<u8> {
            let mut fields: Vec<&str> = good.split('|').collect();
            fields[i] = value;
            fields.join("|").into_bytes()
        };
        let cases: Vec<(Vec<u8>, bool)> = vec![
            (good.clone().into_bytes(), true),
            (with(0, "+8935"), true),
            (with(0, " 8935 "), true),
            (with(0, "9999999999999999999"), true),
            (with(0, "18446744073709551615"), true),
            (with(0, "18446744073709551616"), false),
            (with(1, "app.exe"), false),
            (with(1, "app+3.exe"), true),
            (with(1, "app4294967295.exe"), true),
            (with(1, "app4294967296.exe"), false),
            (with(2, " user001"), true),
            (with(3, "proj"), false),
            (with(4, "100.7"), true),
            (with(4, "-100"), true),
            (with(6, "999999999999999999"), true),
            (with(7, "R10-M1"), true),
            (with(7, "R11-R10"), false),
            (with(7, "R-10-M1"), true),
            (with(7, "R10-M0,R10-M1"), true),
            (with(7, "R50-R51"), false),
            (with(8, "00"), true),
            (with(8, " 0"), true),
            (with(8, "cancelled "), true),
            (with(8, "65535"), true),
            (with(8, "65536"), false),
            (with(8, "+7"), true),
            (format!("{good}|extra|pipes").into_bytes(), false),
            (b"1|2|3".to_vec(), false),
        ];
        for (line, ok) in cases {
            assert_matches_reference(&line);
            assert_eq!(
                parse_line_bytes(&line).is_ok(),
                ok,
                "{}",
                String::from_utf8_lossy(&line)
            );
        }
    }

    proptest! {
        #[test]
        fn fast_paths_match_the_reference_on_mutated_lines(
            job_id in 0u64..u64::MAX,
            exec in 0u32..u32::MAX,
            user in 0u32..100_000,
            t0 in -1_000_000_000i64..4_000_000_000,
            wait in 0i64..100_000,
            start_mp in 0u8..72,
            size in 0usize..4,
            exit in 0u16..300,
            seed in 0u64..u64::MAX,
        ) {
            let partition = match size {
                0 => Partition::contiguous(start_mp, 1),
                1 => Partition::contiguous(start_mp & !1, 2),
                2 => Partition::contiguous(start_mp & !1, 8),
                _ => Partition::contiguous(start_mp, 3),
            }
            .unwrap();
            let j = JobRecord {
                job_id,
                exec: ExecId(exec),
                user: UserId(user),
                project: ProjectId(user / 3),
                queue_time: Timestamp::from_unix(t0),
                start_time: Timestamp::from_unix(t0 + wait),
                end_time: Timestamp::from_unix(t0 + 2 * wait),
                partition,
                exit: match exit {
                    0 => ExitStatus::Completed,
                    1 => ExitStatus::Cancelled,
                    n => ExitStatus::Failed(n),
                },
            };
            let base = format_record(&j).into_bytes();
            assert_matches_reference(&base);
            let fields: Vec<&[u8]> = base.split(|&b| b == b'|').collect();
            let mut mix = Mix(seed);
            for _ in 0..500 {
                let mut mutant: Vec<Vec<u8>> = fields.iter().map(|f| f.to_vec()).collect();
                for _ in 0..=mix.below(3) {
                    let f = &mut mutant[mix.below(9)];
                    let at = mix.below(f.len() + 1);
                    match mix.below(4) {
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
                        _ if at < f.len() => f[at] = b'0' + mix.below(10) as u8,
                        _ => {}
                    }
                }
                assert_matches_reference(&mutant.join(&b'|'));
            }
        }
    }
}
