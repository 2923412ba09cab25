//! Daemon configuration: flag parsing shared by `coserved` and
//! `coctl serve`, the analysis flags shared with `coctl`'s analyzing
//! subcommands, plus the on-disk impact-verdict format.
//!
//! The impact file is how an offline co-analysis run informs the online
//! daemon (Observation 1 in production): `coctl analyze --impact-out FILE`
//! writes the per-code verdicts, `coserved --impact FILE` loads them, and
//! new events of codes classified non-fatal stop warning. Both runs must
//! dedup with the same windows for the verdicts to mean the same events.

use crate::error::ServeError;
use bgp_model::Duration;
use bgp_ports::{LineDecoder, LogFormat};
use coanalysis::classify::{CodeImpact, ImpactSummary};
use coanalysis::CoAnalysisConfig;
use raslog::Catalog;
use std::io::{Read, Write};
use std::path::PathBuf;

/// The daemon's flags and their defaults, as `coserved --help` prints them.
pub const FLAGS_HELP: &str =
    "  --ingest ADDR      TCP ingest listen address   (default 127.0.0.1:7070)
  --http ADDR        HTTP listen address         (default 127.0.0.1:7071)
  --queue-cap N      ingest queue capacity       (default 4096)
  --ring N           /events ring capacity       (default 256)
  --max-line BYTES   ingest line length limit    (default 65536)
  --impact FILE      offline impact verdicts (coctl analyze --impact-out)
  --tail FILE        also tail FILE for records
  --format NAME      ingest line format          (default bgp; or syslog)
  --replay FILE      replay a .bgpcas cassette, then drain and exit
  --record FILE      record ingested chunks to a .bgpcas cassette
  --temporal-secs S  temporal dedup threshold    (default 300)
  --spatial-secs S   spatial dedup threshold     (default 300)
  --full-analysis    serve the complete co-analysis at /analysis,
                   folded incrementally per ingest batch
  --jobs FILE        job log for --full-analysis
  --threads N        worker threads for the --full-analysis folds
";

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest (line-delimited TCP) listen address. Port 0 picks a free port.
    pub ingest_addr: String,
    /// HTTP front-end listen address. Port 0 picks a free port.
    pub http_addr: String,
    /// Capacity of the bounded ingest queue in front of the analysis
    /// worker, in records.
    pub queue_capacity: usize,
    /// Capacity of the recent-events ring served at `/events`.
    pub ring_capacity: usize,
    /// Ingest lines longer than this are rejected (and counted).
    pub max_line_bytes: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: std::time::Duration,
    /// Per-connection socket write timeout (slow clients are disconnected).
    pub write_timeout: std::time::Duration,
    /// Optional log file to tail as a second ingest source.
    pub tail: Option<PathBuf>,
    /// Poll interval for the tailer.
    pub tail_poll: std::time::Duration,
    /// The analysis both engines run: the online analyzer dedups with its
    /// temporal and spatial windows, and `--full-analysis` folds with all
    /// of it (its `threads` size the fold pipeline).
    pub analysis: CoAnalysisConfig,
    /// Per-code impact verdicts from an offline run, if any.
    pub impact: Option<ImpactSummary>,
    /// Line format for the ingest sources. Only line-streamable formats are
    /// valid here (`bgp`, `syslog`); a cassette names its own inner format.
    pub format: LogFormat,
    /// A `.bgpcas` cassette to replay at startup instead of (or alongside)
    /// the live sources; once it drains, a graceful shutdown is requested,
    /// making `--replay` a deterministic one-shot batch run.
    pub replay: Option<PathBuf>,
    /// Record every ingested chunk (TCP and tail) into this `.bgpcas`
    /// cassette, written on shutdown.
    pub record: Option<PathBuf>,
    /// Continuously fold ingest through the incremental stage graph and
    /// serve the complete co-analysis report at `/analysis`. Requires
    /// [`ServeConfig::jobs`].
    pub full_analysis: bool,
    /// Job log for the co-analysis side of `--full-analysis`.
    pub jobs: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ingest_addr: "127.0.0.1:7070".to_owned(),
            http_addr: "127.0.0.1:7071".to_owned(),
            queue_capacity: 4_096,
            ring_capacity: 256,
            max_line_bytes: 64 * 1024,
            read_timeout: std::time::Duration::from_millis(250),
            write_timeout: std::time::Duration::from_secs(5),
            tail: None,
            tail_poll: std::time::Duration::from_millis(100),
            analysis: CoAnalysisConfig::default(),
            impact: None,
            format: LogFormat::Bgp,
            replay: None,
            record: None,
            full_analysis: false,
            jobs: None,
        }
    }
}

impl ServeConfig {
    /// Parse daemon flags (everything after the program name / subcommand),
    /// listed with their defaults in [`FLAGS_HELP`]. The analysis flags go
    /// through [`analysis_flag`], as in `coctl`.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, ServeError> {
        let mut cfg = ServeConfig::default();
        // A `threads` equal to the default cannot show whether the flag,
        // which sizes only the fold pipeline, was given.
        let mut threads_given = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if analysis_flag(a, &mut it, Some(&mut cfg.analysis), &mut cfg.format)? {
                threads_given |= a == "--threads";
                continue;
            }
            match a.as_str() {
                "--ingest" => cfg.ingest_addr = take(&mut it, "--ingest")?,
                "--http" => cfg.http_addr = take(&mut it, "--http")?,
                "--queue-cap" => cfg.queue_capacity = take_parsed(&mut it, "--queue-cap")?,
                "--ring" => cfg.ring_capacity = take_parsed(&mut it, "--ring")?,
                "--max-line" => cfg.max_line_bytes = take_parsed(&mut it, "--max-line")?,
                "--impact" => {
                    let path = take(&mut it, "--impact")?;
                    cfg.impact = Some(read_impact_file(&path)?);
                }
                "--tail" => cfg.tail = Some(PathBuf::from(take(&mut it, "--tail")?)),
                "--replay" => cfg.replay = Some(PathBuf::from(take(&mut it, "--replay")?)),
                "--record" => cfg.record = Some(PathBuf::from(take(&mut it, "--record")?)),
                "--full-analysis" => cfg.full_analysis = true,
                "--jobs" => cfg.jobs = Some(PathBuf::from(take(&mut it, "--jobs")?)),
                other => {
                    return Err(ServeError::Config(format!("unknown flag {other:?}")));
                }
            }
        }
        // Cross-flag checks, before any socket is bound.
        if cfg.queue_capacity == 0 {
            return Err(ServeError::Config("--queue-cap must be at least 1".into()));
        }
        if cfg.ring_capacity == 0 {
            return Err(ServeError::Config("--ring must be at least 1".into()));
        }
        if cfg.max_line_bytes < 64 {
            return Err(ServeError::Config(
                "--max-line must be at least 64 bytes (a minimal record line)".into(),
            ));
        }
        if cfg.full_analysis && cfg.jobs.is_none() {
            return Err(ServeError::Config(
                "--full-analysis needs --jobs FILE (the job-log side of the co-analysis)".into(),
            ));
        }
        if cfg.jobs.is_some() && !cfg.full_analysis {
            return Err(ServeError::Config(
                "--jobs only makes sense with --full-analysis".into(),
            ));
        }
        if threads_given && !cfg.full_analysis {
            return Err(ServeError::Config(
                "--threads only makes sense with --full-analysis (it sizes the fold pipeline)"
                    .into(),
            ));
        }
        if LineDecoder::for_format(cfg.format).is_none() {
            return Err(ServeError::Config(format!(
                "--format {}: not a line-streamable format (streaming supports bgp and \
                 syslog; cassettes name their own inner format — use --replay FILE)",
                cfg.format
            )));
        }
        Ok(cfg)
    }
}

/// Parse `flag` if it is one of the analysis flags `coctl` and `coserved`
/// share, taking its value from `it`:
///
/// ```text
/// --temporal-secs S  temporal dedup threshold    (default 300)
/// --spatial-secs S   spatial dedup threshold     (default 300)
/// --threads N        stage-executor workers      (default: CPUs, at most 8)
/// --format NAME      log format                  (default bgp)
/// ```
///
/// The first three are written into `analysis` and are not taken when it
/// is `None`; defaults are [`CoAnalysisConfig::default`]'s. Returns
/// `Ok(false)`, having taken nothing, for any other flag. An unknown
/// format name is a [`ServeError::Format`].
pub fn analysis_flag<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
    analysis: Option<&mut CoAnalysisConfig>,
    format: &mut LogFormat,
) -> Result<bool, ServeError> {
    match (flag, analysis) {
        ("--format", _) => {
            let name = it
                .next()
                .ok_or_else(|| ServeError::Config("--format needs a format name".into()))?;
            *format = name.parse().map_err(ServeError::Format)?;
        }
        ("--temporal-secs", Some(a)) => a.temporal.threshold = take_window(it, flag)?,
        ("--spatial-secs", Some(a)) => a.spatial.threshold = take_window(it, flag)?,
        ("--threads", Some(a)) => {
            a.threads = take_parsed(it, flag)?;
            if a.threads == 0 {
                return Err(ServeError::Config("--threads must be at least 1".into()));
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn take<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, ServeError> {
    it.next()
        .cloned()
        .ok_or_else(|| ServeError::Config(format!("{flag} needs a value")))
}

fn take_parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, ServeError> {
    let v = take(it, flag)?;
    v.parse()
        .map_err(|_| ServeError::Config(format!("{flag}: invalid value {v:?}")))
}

/// A dedup window in whole seconds: 0 or more.
fn take_window<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<Duration, ServeError> {
    let secs: i64 = take_parsed(it, flag)?;
    if secs < 0 {
        return Err(ServeError::Config(format!("{flag} must be at least 0")));
    }
    Ok(Duration::seconds(secs))
}

/// Header line of the impact-verdict format.
pub const IMPACT_HEADER: &str = "# bgp-impact v1";

fn verdict_token(v: CodeImpact) -> &'static str {
    match v {
        CodeImpact::InterruptionRelated => "interruption-related",
        CodeImpact::NonFatal => "non-fatal",
        CodeImpact::UndeterminedIdle => "undetermined-idle",
        CodeImpact::UndeterminedMixed => "undetermined-mixed",
    }
}

fn parse_verdict(s: &str) -> Option<CodeImpact> {
    match s {
        "interruption-related" => Some(CodeImpact::InterruptionRelated),
        "non-fatal" => Some(CodeImpact::NonFatal),
        "undetermined-idle" => Some(CodeImpact::UndeterminedIdle),
        "undetermined-mixed" => Some(CodeImpact::UndeterminedMixed),
        _ => None,
    }
}

/// Write an [`ImpactSummary`]'s per-code verdicts in the `# bgp-impact v1`
/// text format: one `CODE_NAME verdict` line per code, sorted by name for
/// reproducible output.
pub fn write_impact(w: &mut impl Write, impact: &ImpactSummary) -> std::io::Result<()> {
    writeln!(w, "{IMPACT_HEADER}")?;
    let cat = Catalog::standard();
    let mut rows: Vec<(&'static str, CodeImpact)> = impact
        .per_code
        .iter()
        .map(|(&code, &v)| (cat.info(code).name, v))
        .collect();
    rows.sort_unstable_by_key(|&(name, _)| name);
    for (name, v) in rows {
        writeln!(w, "{name} {}", verdict_token(v))?;
    }
    Ok(())
}

/// Parse the `# bgp-impact v1` format back into an [`ImpactSummary`].
///
/// Only the per-code verdicts travel through the file — the event counts of
/// the offline run stay offline, so `nonfatal_events` / `total_events` come
/// back zero. Unknown code names and malformed lines are errors: a typo'd
/// impact file silently arming or disarming warnings would be worse than a
/// refusal to start.
pub fn parse_impact(text: &str, path: &str) -> Result<ImpactSummary, ServeError> {
    let err = |line: usize, msg: String| ServeError::Impact {
        path: path.to_owned(),
        line,
        msg,
    };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == IMPACT_HEADER => {}
        Some((_, first)) => {
            return Err(err(
                1,
                format!("expected {IMPACT_HEADER:?}, found {first:?}"),
            ));
        }
        None => return Err(err(0, "empty file".into())),
    }
    let cat = Catalog::standard();
    let mut impact = ImpactSummary::default();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let Some((name, verdict)) = line.split_once(' ') else {
            return Err(err(
                lineno,
                format!("expected `CODE verdict`, found {line:?}"),
            ));
        };
        let Some(code) = cat.lookup(name.trim()) else {
            return Err(err(lineno, format!("unknown error code {name:?}")));
        };
        let Some(v) = parse_verdict(verdict.trim()) else {
            return Err(err(lineno, format!("unknown verdict {verdict:?}")));
        };
        if impact.per_code.insert(code, v).is_some() {
            return Err(err(lineno, format!("duplicate code {name:?}")));
        }
    }
    Ok(impact)
}

/// Read and parse an impact file from disk.
pub fn read_impact_file(path: &str) -> Result<ImpactSummary, ServeError> {
    let file = std::fs::File::open(path).map_err(|e| ServeError::Impact {
        path: path.to_owned(),
        line: 0,
        msg: e.to_string(),
    })?;
    let mut text = String::new();
    std::io::BufReader::new(file)
        .read_to_string(&mut text)
        .map_err(|e| ServeError::Impact {
            path: path.to_owned(),
            line: 0,
            msg: e.to_string(),
        })?;
    parse_impact(&text, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn flags_parse_and_validate() {
        let cfg = ServeConfig::from_args(&args(
            "--ingest 127.0.0.1:0 --queue-cap 16 --temporal-secs 60 --format syslog \
             --replay in.bgpcas --record out.bgpcas --full-analysis --jobs j --threads 4",
        ))
        .unwrap();
        assert_eq!(cfg.ingest_addr, "127.0.0.1:0");
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.analysis.temporal.threshold, Duration::seconds(60));
        assert_eq!(cfg.analysis.spatial, CoAnalysisConfig::default().spatial);
        assert_eq!(cfg.analysis.threads, 4);
        assert_eq!(cfg.format, LogFormat::Syslog);
        assert_eq!(cfg.replay, Some(PathBuf::from("in.bgpcas")));
        assert_eq!(cfg.record, Some(PathBuf::from("out.bgpcas")));
    }

    #[test]
    fn bad_flags_are_config_errors() {
        // `--threads` needs `--full-analysis` even at the default count.
        let default_threads = format!("--threads {}", CoAnalysisConfig::default().threads);
        for (flags, message) in [
            ("--queue-cap 0", "--queue-cap must be at least 1"),
            ("--bogus", r#"unknown flag "--bogus""#),
            ("--queue-cap", "--queue-cap needs a value"),
            (
                "--full-analysis --jobs j --threads 0",
                "--threads must be at least 1",
            ),
            (
                &default_threads,
                "--threads only makes sense with --full-analysis",
            ),
            ("--threads x", r#"--threads: invalid value "x""#),
            ("--temporal-secs -5", "--temporal-secs must be at least 0"),
            ("--spatial-secs -1", "--spatial-secs must be at least 0"),
            ("--format bgl", "unknown log format"),
            ("--format bgq", "not a line-streamable format"),
            ("--format cassette", "--replay"),
        ] {
            let e = ServeConfig::from_args(&args(flags)).unwrap_err();
            assert!(e.to_string().contains(message), "{flags}: {e}");
        }
    }

    #[test]
    fn impact_round_trips_through_text() {
        let cat = Catalog::standard();
        let mut impact = ImpactSummary::default();
        impact.per_code.insert(
            cat.lookup("BULK_POWER_FATAL").unwrap(),
            CodeImpact::NonFatal,
        );
        impact.per_code.insert(
            cat.lookup("_bgp_err_kernel_panic").unwrap(),
            CodeImpact::InterruptionRelated,
        );
        impact.per_code.insert(
            cat.lookup("_bgp_err_diag_netbist").unwrap(),
            CodeImpact::UndeterminedIdle,
        );
        let mut buf = Vec::new();
        write_impact(&mut buf, &impact).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(IMPACT_HEADER));
        let back = parse_impact(&text, "mem").unwrap();
        assert_eq!(back.per_code, impact.per_code);
    }

    #[test]
    fn impact_rejects_garbage() {
        assert!(parse_impact("", "p").is_err());
        assert!(parse_impact("# wrong header\n", "p").is_err());
        let hdr = format!("{IMPACT_HEADER}\n");
        assert!(parse_impact(&format!("{hdr}no_such_code non-fatal\n"), "p").is_err());
        assert!(parse_impact(&format!("{hdr}BULK_POWER_FATAL sideways\n"), "p").is_err());
        assert!(parse_impact(&format!("{hdr}BULK_POWER_FATAL\n"), "p").is_err());
        let dup = format!("{hdr}BULK_POWER_FATAL non-fatal\nBULK_POWER_FATAL non-fatal\n");
        assert!(parse_impact(&dup, "p").is_err());
        // Comments and blank lines are fine.
        let ok = format!("{hdr}\n# a comment\nBULK_POWER_FATAL non-fatal\n");
        assert_eq!(parse_impact(&ok, "p").unwrap().per_code.len(), 1);
    }
}
