//! Deterministic cassette replay (`--replay FILE`).
//!
//! A `.bgpcas` cassette recorded from a live session is fed back through
//! the exact ingest path — the same [`LineFramer`], the same line decoder,
//! the same ingest queue — one recorded chunk per `feed`, so chunk-boundary
//! edge cases (CRLF split across reads, framer resync inside an oversized
//! line) reproduce bit-for-bit. Recorded inter-chunk gaps are metadata
//! only: replay never sleeps and never reads a clock, which is what lets
//! integration tests assert exact counters without sockets or timing slack.
//!
//! Once the cassette drains, the replayer requests a graceful shutdown:
//! `coserved --replay FILE` is a deterministic one-shot batch run that
//! drains, prints its final summary, and exits.

use crate::error::ServeError;
use crate::protocol::LineFramer;
use crate::source::SourceCtx;
use bgp_ports::cassette::{Cassette, StreamKind};
use bgp_ports::LineDecoder;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Read and validate a cassette for replay: it must decode, hold a RAS
/// stream, and record a line-streamable inner format.
pub(crate) fn load_cassette(path: &Path) -> Result<Cassette, ServeError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ServeError::Config(format!("--replay {}: {e}", path.display())))?;
    let cas = Cassette::decode_expecting(&bytes, StreamKind::Ras)
        .map_err(|e| ServeError::Config(format!("--replay {}: {e}", path.display())))?;
    if LineDecoder::for_format(cas.format).is_none() {
        return Err(ServeError::Config(format!(
            "--replay {}: cassette records a {} stream, which has no line decoder",
            path.display(),
            cas.format
        )));
    }
    Ok(cas)
}

/// Replay `cassette` through the ingest path on its own thread, then request
/// a graceful shutdown. The decoder follows the cassette's *inner* format
/// (which may differ from the daemon's `--format`), and replayed chunks are
/// not re-recorded by `--record`.
pub(crate) fn spawn_replayer(
    cassette: Cassette,
    ctx: &SourceCtx,
) -> std::io::Result<JoinHandle<()>> {
    let mut ctx = ctx.clone();
    if let Some(decoder) = LineDecoder::for_format(cassette.format) {
        ctx.decoder = Arc::new(decoder);
    }
    ctx.recorder = None;
    std::thread::Builder::new()
        .name("bgp-serve-replay".to_owned())
        .spawn(move || {
            let mut framer = LineFramer::new(ctx.max_line_bytes);
            for frame in &cassette.frames {
                if !ctx.consume_chunk(&mut framer, &frame.bytes) {
                    break;
                }
            }
            ctx.consume_eof(&mut framer);
            ctx.shutdown.request();
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_ports::cassette::Recorder;
    use bgp_ports::LogFormat;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bgp-serve-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn load_rejects_missing_corrupt_and_wrong_kind_cassettes() {
        let missing = tmp("nope.bgpcas");
        let _ = std::fs::remove_file(&missing);
        assert!(load_cassette(&missing).is_err());

        let corrupt = tmp("corrupt.bgpcas");
        std::fs::write(&corrupt, b"BGPCAS\0\0but then garbage").expect("write");
        let e = load_cassette(&corrupt).expect_err("corrupt must fail");
        assert!(e.to_string().contains("--replay"), "{e}");

        let job = tmp("job.bgpcas");
        let rec = Recorder::new(LogFormat::Bgp, StreamKind::Job).expect("recorder");
        std::fs::write(&job, rec.finish().encode()).expect("write");
        let e = load_cassette(&job).expect_err("job stream must fail");
        assert!(e.to_string().contains("RAS"), "{e}");

        let bgq = tmp("bgq.bgpcas");
        let rec = Recorder::new(LogFormat::Bgq, StreamKind::Ras).expect("recorder");
        std::fs::write(&bgq, rec.finish().encode()).expect("write");
        let e = load_cassette(&bgq).expect_err("bgq has no line decoder");
        assert!(e.to_string().contains("no line decoder"), "{e}");
    }

    #[test]
    fn load_accepts_a_valid_ras_cassette() {
        let path = tmp("good.bgpcas");
        let mut rec = Recorder::new(LogFormat::Syslog, StreamKind::Ras).expect("recorder");
        rec.push(0, b"<13>Mar  1 12:00:00 host hello\n");
        std::fs::write(&path, rec.finish().encode()).expect("write");
        let cas = load_cassette(&path).expect("valid cassette loads");
        assert_eq!(cas.format, LogFormat::Syslog);
        assert_eq!(cas.frames.len(), 1);
    }
}
