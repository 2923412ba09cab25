//! Recording live ingest into a `.bgpcas` cassette (`--record FILE`).
//!
//! Every byte chunk the ingest sources deliver — TCP reads and tail reads
//! alike, in arrival order, *before* framing — is appended to one shared
//! recorder together with the wall-clock gap since the previous chunk. On
//! shutdown the daemon encodes the cassette and writes it out, so a live
//! session can later be replayed deterministically with `--replay` (or fed
//! to `coctl --format cassette`), chunk boundaries and all.
//!
//! This is the one deliberately clock-reading half of the cassette story:
//! the codec itself ([`bgp_ports::cassette`]) and the replayer
//! ([`crate::replay`]) never touch a clock, while this module supplies the
//! `delta_nanos` (its one `Instant::now` is an expected exception to the
//! workspace's clippy clock ban).

use crate::locked::Locked;
use bgp_ports::cassette::{CassetteError, Recorder, StreamKind};
use bgp_ports::LogFormat;
use std::path::Path;
use std::time::Instant;

/// A thread-safe chunk recorder shared by every ingest source.
#[derive(Debug)]
pub(crate) struct ChunkRecorder {
    state: Locked<RecState>,
}

#[derive(Debug)]
struct RecState {
    rec: Recorder,
    last: Option<Instant>,
}

impl ChunkRecorder {
    /// A recorder for a RAS stream in `format` (the daemon's line format).
    pub(crate) fn new(format: LogFormat) -> Result<ChunkRecorder, CassetteError> {
        Ok(ChunkRecorder {
            state: Locked::new(RecState {
                rec: Recorder::new(format, StreamKind::Ras)?,
                last: None,
            }),
        })
    }

    /// Append one delivered chunk, stamping the gap since the previous one.
    /// The chunk is copied before the lock is taken.
    pub(crate) fn observe(&self, chunk: &[u8]) {
        #[expect(
            clippy::disallowed_methods,
            reason = "a cassette records the real gaps between delivered chunks"
        )]
        let now = Instant::now();
        let chunk = chunk.to_vec();
        self.state.with(move |state| {
            let delta_nanos = state
                .last
                .map_or(0, |last| now.duration_since(last).as_nanos() as u64);
            state.rec.push(delta_nanos, &chunk);
            state.last = Some(now);
        });
    }

    /// Encode the cassette and write it to `path`; returns the frame count.
    pub(crate) fn write_to(&self, path: &Path) -> std::io::Result<usize> {
        let (bytes, frames) = self
            .state
            .with(|state| (state.rec.cassette().encode(), state.rec.len()));
        std::fs::write(path, bytes)?;
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_ports::cassette::Cassette;

    #[test]
    fn observed_chunks_round_trip_through_the_file() {
        let rec = ChunkRecorder::new(LogFormat::Bgp).expect("bgp is recordable");
        rec.observe(b"one|");
        rec.observe(b"two\n");
        rec.observe(b"");
        let dir = std::env::temp_dir().join(format!("bgp-serve-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("out.bgpcas");
        let frames = rec.write_to(&path).expect("write cassette");
        assert_eq!(frames, 3);
        let cas = Cassette::decode(&std::fs::read(&path).expect("read back")).expect("decodes");
        assert_eq!(cas.format, LogFormat::Bgp);
        assert_eq!(cas.kind, StreamKind::Ras);
        assert_eq!(cas.replay_bytes(), b"one|two\n");
        assert_eq!(cas.frames.len(), 3);
        // The first frame is at delta zero; later gaps are whatever the
        // clock said, but monotonically measured (no panic, no negative).
        assert_eq!(cas.frames[0].delta_nanos, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cassette_format_is_not_recordable() {
        assert!(ChunkRecorder::new(LogFormat::Cassette).is_err());
    }
}
