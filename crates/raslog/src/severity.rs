//! RAS severity levels.

use std::fmt;
use std::str::FromStr;

/// CMCS severity levels in increasing order of severity.
///
/// Per the paper: DEBUG/TRACE are for code debugging (absent from the
/// Intrepid log); INFO reports system-software progress; WARNING covers
/// recoverable soft errors (e.g. single-symbol ECC); ERROR is harmful but
/// survivable (e.g. loss of a redundant component); only FATAL presumably
/// crashes the application or system — and the whole point of co-analysis is
/// that "presumably" is often wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Severity {
    /// Code-debugging chatter (not present in production logs).
    Debug = 0,
    /// Fine-grained tracing (not present in production logs).
    Trace = 1,
    /// Progress information (e.g. automatic recovery progress).
    Info = 2,
    /// Recoverable soft error.
    Warning = 3,
    /// Harmful but survivable error.
    Error = 4,
    /// Presumed to crash the application or system.
    Fatal = 5,
}

impl Severity {
    /// All severities, ascending.
    pub const ALL: [Severity; 6] = [
        Severity::Debug,
        Severity::Trace,
        Severity::Info,
        Severity::Warning,
        Severity::Error,
        Severity::Fatal,
    ];

    /// The log-file token for this severity.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "DEBUG",
            Severity::Trace => "TRACE",
            Severity::Info => "INFO",
            Severity::Warning => "WARNING",
            Severity::Error => "ERROR",
            Severity::Fatal => "FATAL",
        }
    }

    /// The severity a log-file token names (`WARN` is accepted for
    /// `WARNING`), matched on the exact bytes: no trimming, so a padded
    /// token is `None`.
    pub fn from_token(token: &[u8]) -> Option<Severity> {
        Some(match token {
            b"DEBUG" => Severity::Debug,
            b"TRACE" => Severity::Trace,
            b"INFO" => Severity::Info,
            b"WARNING" | b"WARN" => Severity::Warning,
            b"ERROR" => Severity::Error,
            b"FATAL" => Severity::Fatal,
            _ => return None,
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Severity {
    type Err = UnknownSeverity;

    fn from_str(s: &str) -> Result<Severity, UnknownSeverity> {
        Severity::from_token(s.as_bytes()).ok_or_else(|| UnknownSeverity(s.to_owned()))
    }
}

/// Error for an unrecognized severity token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSeverity(
    /// The offending token.
    pub String,
);

impl fmt::Display for UnknownSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown severity {:?}", self.0)
    }
}

impl std::error::Error for UnknownSeverity {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_reflects_severity() {
        assert!(Severity::Fatal > Severity::Error);
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert!(Severity::Info > Severity::Trace);
        assert!(Severity::Trace > Severity::Debug);
    }

    #[test]
    fn round_trip_all() {
        for s in Severity::ALL {
            assert_eq!(s.as_str().parse::<Severity>().unwrap(), s);
        }
    }

    #[test]
    fn warn_alias_accepted() {
        assert_eq!("WARN".parse::<Severity>().unwrap(), Severity::Warning);
    }

    #[test]
    fn unknown_rejected() {
        let e = "CRITICAL".parse::<Severity>().unwrap_err();
        assert!(e.to_string().contains("CRITICAL"));
    }
}
