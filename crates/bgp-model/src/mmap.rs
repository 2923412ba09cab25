//! A file's bytes in an owned buffer.
//!
//! Nothing in the workspace maps a file: every `.bgpsnap` snapshot is read
//! into a buffer, so a snapshot truncated under a load is a short read and
//! a cache miss, and BG/P source logs are streamed through fixed per-worker
//! windows ([`crate::bytes::stream_lines`]). No crate of the workspace
//! calls [`MappedFile`] either; it is kept, under its old name, for the
//! benchmark harness's own copy of the load (`perfbench/src/batch.rs`),
//! and goes with that copy.

use std::io;
use std::path::Path;

/// A file's bytes, read into a buffer.
#[derive(Debug)]
pub struct MappedFile {
    bytes: Vec<u8>,
}

impl MappedFile {
    /// Read `path` into an owned buffer.
    pub fn read(path: &Path) -> io::Result<MappedFile> {
        Ok(MappedFile {
            bytes: std::fs::read(path)?,
        })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}
