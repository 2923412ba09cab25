//! # `bgp-ports` — ports & adapters for log ingestion
//!
//! The analysis engine (`coanalysis`, `bgp-serve`) consumes typed
//! [`RasRecord`]/[`JobRecord`](joblog::JobRecord) streams; *where those
//! records come from* is a port. This crate has two: [`decode_ras`], one
//! `match` on [`LogFormat`] that decodes a whole byte buffer, and
//! [`LineDecoder`] for the daemon's line-at-a-time ingest. Behind them sit
//! four adapter modules:
//!
//! | format      | adapter module | shape |
//! |-------------|----------------|-------|
//! | `bgp`       | [`bgp`]        | the nine-field pipe format of the paper (delegates to `raslog`/`joblog`; bit-identical) |
//! | `bgq`       | [`bgq`]        | BG/Q-style multi-file schema (Sîrbu's five-log shape, comma-separated) |
//! | `syslog`    | [`syslog`]     | RFC 3164 lines mapped into the severity/errcode catalogue (`syslog_*` namespace) |
//! | `cassette`  | [`cassette`]   | `.bgpcas` recording of another source's byte stream + timing, replayed deterministically |
//!
//! Every adapter reads lines by one rule,
//! [`bgp_model::bytes::lines`]: numbered from 1, trailing `\r` runs
//! trimmed, blank lines counted but skipped. Only the `#` rule differs by
//! path: `bgq`, `syslog` and the [`LineDecoder`] skip `#` lines, while the
//! BG/P batch parser reports them as malformed, like the `raslog`/`joblog`
//! readers it is pinned to.
//!
//! The BG/P adapter is the **only** module allowed to call the
//! `raslog`/`joblog` parsers directly. Clippy enforces that boundary: the
//! root `clippy.toml` lists the raw parser entry points under
//! `disallowed-methods`, and each sanctioned call site carries an
//! `#[expect(clippy::disallowed_methods, reason = …)]`. Every other consumer
//! in the workspace goes through the `LogFormat` dispatch, so a new format
//! is one more `match` arm, not a change to the engine.
//!
//! Decoding is deliberately split from I/O: adapters consume byte slices and
//! return [`SourceBatch`] values (records plus per-line diagnostics), which
//! keeps every adapter — including cassette replay — a pure function of its
//! bytes. The only filesystem access here is [`resolve_input`], which maps a
//! user-supplied path to the concrete file(s) a format reads.

pub mod bgp;
pub mod bgq;
pub mod cassette;
pub mod syslog;

use cassette::{Cassette, CassetteError, StreamKind};
use raslog::RasRecord;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The log formats an input path can be read as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogFormat {
    /// Blue Gene/P nine-field pipe format (the default; the paper's logs).
    #[default]
    Bgp,
    /// BG/Q-style multi-file schema (`ras.bgq` / `jobs.bgq` in a directory).
    Bgq,
    /// RFC 3164 syslog lines.
    Syslog,
    /// A `.bgpcas` cassette recorded from one of the other formats.
    Cassette,
}

/// The formats accepted by `--format`, comma-separated (for error messages).
pub const SUPPORTED_FORMATS: &str = "bgp, bgq, syslog, cassette";

impl LogFormat {
    /// Every format, in `--format` listing order.
    pub const ALL: [LogFormat; 4] = [
        LogFormat::Bgp,
        LogFormat::Bgq,
        LogFormat::Syslog,
        LogFormat::Cassette,
    ];

    /// The command-line token for this format.
    pub fn as_str(self) -> &'static str {
        match self {
            LogFormat::Bgp => "bgp",
            LogFormat::Bgq => "bgq",
            LogFormat::Syslog => "syslog",
            LogFormat::Cassette => "cassette",
        }
    }
}

impl fmt::Display for LogFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for LogFormat {
    type Err = UnknownFormat;

    fn from_str(s: &str) -> Result<LogFormat, UnknownFormat> {
        match s {
            "bgp" => Ok(LogFormat::Bgp),
            "bgq" => Ok(LogFormat::Bgq),
            "syslog" => Ok(LogFormat::Syslog),
            "cassette" => Ok(LogFormat::Cassette),
            other => Err(UnknownFormat(other.to_owned())),
        }
    }
}

/// Error for an unrecognized `--format` token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFormat(
    /// The offending token.
    pub String,
);

impl fmt::Display for UnknownFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown log format {:?} (supported formats: {SUPPORTED_FORMATS})",
            self.0
        )
    }
}

impl std::error::Error for UnknownFormat {}

/// One malformed line (or other per-source note) reported while decoding.
///
/// The analysis never aborts on a dirty line — real logs are dirty — so every
/// source reports what it skipped alongside what it parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDiagnostic {
    /// 1-based line number in the source text (0 when not line-addressable).
    pub line: u64,
    /// Human-readable description of what was skipped and why.
    pub message: String,
}

impl fmt::Display for SourceDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl From<raslog::RasParseError> for SourceDiagnostic {
    fn from(e: raslog::RasParseError) -> SourceDiagnostic {
        let full = e.to_string();
        let prefix = format!("line {}: ", e.line);
        let message = full.strip_prefix(&prefix).unwrap_or(&full).to_owned();
        SourceDiagnostic {
            line: e.line,
            message,
        }
    }
}

impl From<joblog::JobParseError> for SourceDiagnostic {
    fn from(e: joblog::JobParseError) -> SourceDiagnostic {
        SourceDiagnostic {
            line: e.line,
            message: e.message,
        }
    }
}

/// What a source produced from one input: records plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceBatch<R> {
    /// Successfully decoded records, in input order.
    pub records: Vec<R>,
    /// Lines (or auxiliary inputs) that were skipped, with why.
    pub diagnostics: Vec<SourceDiagnostic>,
}

impl<R> Default for SourceBatch<R> {
    fn default() -> SourceBatch<R> {
        SourceBatch {
            records: Vec::new(),
            diagnostics: Vec::new(),
        }
    }
}

/// Decode a whole in-memory RAS log of `format`: the one place a batch
/// decoder is chosen. `threads` is the parallelism budget (`0`/`1` mean
/// inline); only the BG/P parser uses it. A cassette is decoded through its
/// inner format; a cassette that does not decode, holds a job stream or
/// nests another cassette is a [`CassetteError`].
pub fn decode_ras(
    format: LogFormat,
    data: &[u8],
    threads: usize,
) -> Result<SourceBatch<RasRecord>, CassetteError> {
    match format {
        LogFormat::Bgp => Ok(bgp::decode_ras(data, threads)),
        LogFormat::Bgq => Ok(bgq::decode_ras(data)),
        LogFormat::Syslog => Ok(syslog::decode(data)),
        LogFormat::Cassette => {
            let cas = Cassette::decode_expecting(data, StreamKind::Ras)?;
            match cas.format {
                LogFormat::Cassette => Err(CassetteError::NestedCassette),
                inner @ (LogFormat::Bgp | LogFormat::Bgq | LogFormat::Syslog) => {
                    decode_ras(inner, &cas.replay_bytes(), threads)
                }
            }
        }
    }
}

/// Decode the lines of `data` ([`bgp_model::bytes::lines`]) with `parse`,
/// skipping `#` comments: the batch loop of the formats that have one.
fn decode_lines<R>(
    data: &[u8],
    mut parse: impl FnMut(&[u8], u64) -> Result<R, String>,
) -> SourceBatch<R> {
    let mut out = SourceBatch::default();
    for (line, text) in bgp_model::bytes::lines(data) {
        if text.first() == Some(&b'#') {
            continue;
        }
        match parse(text, line) {
            Ok(r) => out.records.push(r),
            Err(message) => out.diagnostics.push(SourceDiagnostic { line, message }),
        }
    }
    out
}

/// The concrete file(s) a format reads for a user-supplied input path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedInput {
    /// The RAS log file to read.
    pub ras: PathBuf,
    /// The job log file, when the format bundles one (BG/Q directories).
    pub jobs: Option<PathBuf>,
    /// Notes about auxiliary inputs that were seen but not mapped.
    pub notes: Vec<SourceDiagnostic>,
}

/// Map a user-supplied path to the file(s) `format` actually reads.
///
/// Only the BG/Q adapter is multi-file: given a *directory*, it reads
/// `ras.bgq` and (when present) `jobs.bgq`, and acknowledges Sîrbu's other
/// three logs (`env.bgq`, `bootblock.bgq`, `network.bgq`) with a note each —
/// they carry environmental/boot/network telemetry the co-analysis model
/// does not yet consume. Every other format (and a BG/Q *file* path) reads
/// the path as-is.
pub fn resolve_input(format: LogFormat, path: &Path) -> ResolvedInput {
    if format != LogFormat::Bgq || !path.is_dir() {
        return ResolvedInput {
            ras: path.to_owned(),
            jobs: None,
            notes: Vec::new(),
        };
    }
    let mut notes = Vec::new();
    for aux in ["env.bgq", "bootblock.bgq", "network.bgq"] {
        if path.join(aux).is_file() {
            notes.push(SourceDiagnostic {
                line: 0,
                message: format!("{aux}: present but not mapped (no model for this log yet)"),
            });
        }
    }
    let jobs = path.join("jobs.bgq");
    ResolvedInput {
        ras: path.join("ras.bgq"),
        jobs: jobs.is_file().then_some(jobs),
        notes,
    }
}

/// What one complete ingest line turned out to be (the line-level port used
/// by the streaming daemon).
#[derive(Debug, Clone, PartialEq)]
pub enum LineOutcome {
    /// A decoded record.
    Record(Box<RasRecord>),
    /// A blank line or `#` comment — ignored, not an error.
    Skip,
    /// An undecodable line, with the decoder's description.
    Malformed(String),
}

/// Line-at-a-time RAS decoder for streaming ingest.
///
/// Only line-oriented formats can be streamed: `bgp` and `syslog`. The BG/Q
/// adapter is multi-file and the cassette adapter replays *chunks* (it wraps
/// one of these decoders upstream), so neither appears here.
#[derive(Debug)]
pub enum LineDecoder {
    /// Nine-field BG/P pipe lines.
    Bgp,
    /// RFC 3164 syslog lines; assigns record ids from an internal counter.
    Syslog(syslog::SyslogLineDecoder),
}

impl LineDecoder {
    /// The streaming decoder for `format`, or `None` for formats that cannot
    /// be decoded line-by-line (`bgq`, `cassette`).
    pub fn for_format(format: LogFormat) -> Option<LineDecoder> {
        match format {
            LogFormat::Bgp => Some(LineDecoder::Bgp),
            LogFormat::Syslog => Some(LineDecoder::Syslog(syslog::SyslogLineDecoder::default())),
            LogFormat::Bgq | LogFormat::Cassette => None,
        }
    }

    /// Classify one complete line (without its `\n` terminator) by the
    /// batch line rule ([`bgp_model::bytes::line_content`]): a line that is
    /// blank once its trailing `\r` run is trimmed, or a `#` comment, is
    /// skipped; anything else must parse.
    pub fn decode_line(&self, line: &[u8]) -> LineOutcome {
        let Some(line) = bgp_model::bytes::line_content(line).filter(|l| l.first() != Some(&b'#'))
        else {
            return LineOutcome::Skip;
        };
        let parsed = match self {
            LineDecoder::Bgp => bgp::parse_ras_line(line),
            LineDecoder::Syslog(d) => d.parse_line(line),
        };
        match parsed {
            Ok(r) => LineOutcome::Record(Box::new(r)),
            Err(message) => LineOutcome::Malformed(message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_tokens_round_trip() {
        for f in LogFormat::ALL {
            assert_eq!(f.as_str().parse::<LogFormat>().unwrap(), f);
            assert_eq!(f.to_string(), f.as_str());
            assert!(SUPPORTED_FORMATS.contains(f.as_str()));
        }
        let e = "xml".parse::<LogFormat>().unwrap_err();
        assert!(e.to_string().contains("bgp, bgq, syslog, cassette"));
        assert_eq!(LogFormat::default(), LogFormat::Bgp);
    }

    #[test]
    fn line_decoder_matrix() {
        assert!(LineDecoder::for_format(LogFormat::Bgp).is_some());
        assert!(LineDecoder::for_format(LogFormat::Syslog).is_some());
        assert!(LineDecoder::for_format(LogFormat::Bgq).is_none());
        assert!(LineDecoder::for_format(LogFormat::Cassette).is_none());
    }

    #[test]
    fn resolve_input_passes_plain_paths_through() {
        let r = resolve_input(LogFormat::Bgp, Path::new("/tmp/ras.log"));
        assert_eq!(r.ras, Path::new("/tmp/ras.log"));
        assert!(r.jobs.is_none());
        assert!(r.notes.is_empty());
    }

    #[test]
    fn resolve_input_maps_bgq_directories() {
        let dir = std::env::temp_dir().join(format!("ports-resolve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ras.bgq"), b"").unwrap();
        std::fs::write(dir.join("jobs.bgq"), b"").unwrap();
        std::fs::write(dir.join("env.bgq"), b"").unwrap();
        let r = resolve_input(LogFormat::Bgq, &dir);
        assert_eq!(r.ras, dir.join("ras.bgq"));
        assert_eq!(r.jobs, Some(dir.join("jobs.bgq")));
        assert_eq!(r.notes.len(), 1);
        assert!(r.notes[0].message.contains("env.bgq"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diagnostics_render_with_line_numbers() {
        let d = SourceDiagnostic {
            line: 7,
            message: "bad".into(),
        };
        assert_eq!(d.to_string(), "line 7: bad");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a raw parse error is the input of the conversion under test"
    )]
    fn parse_error_conversion_strips_line_prefix() {
        let e = raslog::parse_line("a|b|c").unwrap_err();
        let d = SourceDiagnostic::from(e.clone());
        assert_eq!(d.line, e.line);
        assert!(!d.message.starts_with("line"));
        assert!(d.message.contains("9 fields"));
    }
}
