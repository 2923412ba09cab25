//! Typed errors for the daemon. The serve crate passes clippy's
//! `unwrap_used`, `expect_used` and `panic` lints: every failure path
//! surfaces as a [`ServeError`].

use std::fmt;
use std::io;

/// Anything that can go wrong while configuring or running the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration (bad flag, bad value, inconsistent settings).
    Config(String),
    /// An unknown `--format` name: a configuration error, which `coctl`
    /// tells apart (exit 3).
    Format(bgp_ports::UnknownFormat),
    /// Binding a listener failed.
    Bind {
        /// Which listener ("ingest" or "http").
        what: &'static str,
        /// The address we tried to bind.
        addr: String,
        /// The underlying error.
        source: io::Error,
    },
    /// An impact file could not be read or parsed.
    Impact {
        /// The file path as given.
        path: String,
        /// 1-based line number (0 for whole-file problems).
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// An I/O failure outside the per-connection paths (those are absorbed
    /// into metrics — a broken client must not take the daemon down).
    Io(io::Error),
    /// A worker thread could not be spawned.
    Spawn(io::Error),
    /// The ingest queue was already closed when a record arrived.
    QueueClosed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "configuration error: {msg}"),
            ServeError::Format(e) => write!(f, "configuration error: {e}"),
            ServeError::Bind { what, addr, source } => {
                write!(f, "cannot bind {what} listener on {addr}: {source}")
            }
            ServeError::Impact { path, line, msg } => {
                if *line == 0 {
                    write!(f, "impact file {path}: {msg}")
                } else {
                    write!(f, "impact file {path}:{line}: {msg}")
                }
            }
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Spawn(e) => write!(f, "cannot spawn worker thread: {e}"),
            ServeError::QueueClosed => write!(f, "ingest queue is closed"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Io(e) | ServeError::Spawn(e) => Some(e),
            ServeError::Format(e) => Some(e),
            ServeError::Config(_) | ServeError::Impact { .. } | ServeError::QueueClosed => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = ServeError::Bind {
            what: "ingest",
            addr: "127.0.0.1:7070".into(),
            source: io::Error::new(io::ErrorKind::AddrInUse, "in use"),
        };
        let s = e.to_string();
        assert!(s.contains("ingest") && s.contains("7070"));
        assert!(ServeError::Impact {
            path: "x".into(),
            line: 3,
            msg: "bad".into()
        }
        .to_string()
        .contains("x:3"));
    }
}
