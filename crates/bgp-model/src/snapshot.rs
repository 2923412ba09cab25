//! The shared `.bgpsnap` snapshot container: header, cursor, typed errors.
//!
//! A snapshot is a parsed log cached on disk so re-runs skip parsing
//! entirely. The container layout is common to every kind; the per-record
//! column encodings live with the record types (`raslog::snapshot`,
//! `joblog::snapshot`).
//!
//! ## Header layout (32 bytes, little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `b"BGPSNAP\0"` |
//! | 8  | 1 | kind (1 = RAS, 2 = job) |
//! | 9  | 3 | reserved, zero |
//! | 12 | 4 | format version (`u32`) |
//! | 16 | 8 | record count (`u64`) |
//! | 24 | 8 | content hash of the *source text* ([`crate::bytes::content_hash_64`]) |
//!
//! The hash covers every byte of the source text the records were parsed
//! from, so any edit to the source, anywhere, makes the snapshot stale. A reader may
//! compute it by mapping the source or by streaming it
//! ([`crate::bytes::content_hash_file`]); both give the same value.
//!
//! The kind's payload follows immediately (for RAS, a tally and two column
//! sections; see `raslog::snapshot`); a snapshot never contains trailing
//! bytes beyond it. Any mismatch — magic, kind,
//! version, hash, truncation, trailing garbage, or an undecodable record —
//! yields a typed [`SnapshotError`], and callers fall back to re-parsing the
//! source (then rewrite the snapshot).

use std::fmt;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"BGPSNAP\0";

/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 32;

/// Which log a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A parsed RAS log.
    Ras,
    /// A parsed job accounting log.
    Job,
}

impl SnapshotKind {
    fn tag(self) -> u8 {
        match self {
            SnapshotKind::Ras => 1,
            SnapshotKind::Job => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<SnapshotKind> {
        match tag {
            1 => Some(SnapshotKind::Ras),
            2 => Some(SnapshotKind::Job),
            _ => None,
        }
    }
}

impl fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotKind::Ras => write!(f, "RAS"),
            SnapshotKind::Job => write!(f, "job"),
        }
    }
}

/// Why a snapshot could not be used.
///
/// Every variant is a *recoverable* condition: the caller re-parses the
/// source text and rewrites the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file is shorter than its header + declared columns.
    Truncated {
        /// Bytes required by the header/columns being read.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file holds the other log kind (or an unknown kind tag).
    WrongKind {
        /// Kind tag found in the header.
        found: u8,
        /// Kind the caller expected.
        expected: SnapshotKind,
    },
    /// The on-disk format version differs from this build's.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The source text changed since the snapshot was written.
    HashMismatch {
        /// Hash found in the header.
        found: u64,
        /// Hash of the current source text.
        expected: u64,
    },
    /// A stored tally (counts or span beside the records) is inconsistent.
    BadTally(
        /// What was wrong with it.
        String,
    ),
    /// A record failed to decode (corrupt payload).
    BadRecord {
        /// Zero-based record index.
        index: u64,
        /// What was wrong with it.
        what: String,
    },
    /// Extra bytes follow the declared columns.
    TrailingBytes(
        /// Number of unexpected bytes.
        usize,
    ),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a .bgpsnap file (bad magic)"),
            SnapshotError::WrongKind { found, expected } => {
                write!(f, "wrong log kind tag {found} (expected {expected})")
            }
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            SnapshotError::HashMismatch { found, expected } => write!(
                f,
                "source hash {found:#018x} does not match current source {expected:#018x}"
            ),
            SnapshotError::BadTally(what) => write!(f, "tally corrupt: {what}"),
            SnapshotError::BadRecord { index, what } => {
                write!(f, "record {index} corrupt: {what}")
            }
            SnapshotError::TrailingBytes(n) => write!(f, "{n} trailing bytes after records"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The parsed fixed header of a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Which log the snapshot holds.
    pub kind: SnapshotKind,
    /// Format version of the record payload.
    pub version: u32,
    /// Number of records in the payload.
    pub count: u64,
    /// Content hash of the source text the snapshot was parsed from.
    pub source_hash: u64,
}

impl SnapshotHeader {
    /// Append the 32-byte encoded header to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(self.kind.tag());
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.source_hash.to_le_bytes());
    }

    /// Parse the header at the front of `bytes`, validating the magic and the
    /// kind tag (but not version or hash — see [`SnapshotHeader::validate`]).
    pub fn parse(
        bytes: &[u8],
        expected_kind: SnapshotKind,
    ) -> Result<SnapshotHeader, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut cur = Cursor::new(&bytes[8..HEADER_LEN]);
        let tag = cur.u8()?;
        let kind = match SnapshotKind::from_tag(tag) {
            Some(k) if k == expected_kind => k,
            _ => {
                return Err(SnapshotError::WrongKind {
                    found: tag,
                    expected: expected_kind,
                })
            }
        };
        let _pad = cur.take(3)?;
        let version = cur.u32()?;
        let count = cur.u64()?;
        let source_hash = cur.u64()?;
        Ok(SnapshotHeader {
            kind,
            version,
            count,
            source_hash,
        })
    }

    /// Validate version and (optionally) source hash against this build.
    pub fn validate(&self, version: u32, source_hash: Option<u64>) -> Result<(), SnapshotError> {
        if self.version != version {
            return Err(SnapshotError::VersionMismatch {
                found: self.version,
                expected: version,
            });
        }
        if let Some(expected) = source_hash {
            if self.source_hash != expected {
                return Err(SnapshotError::HashMismatch {
                    found: self.source_hash,
                    expected,
                });
            }
        }
        Ok(())
    }
}

/// A bounds-checked little-endian reader over a byte slice.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading at the front of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Take the next `n` bytes, or report how far short the buffer falls.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated {
            needed: usize::MAX,
            have: self.data.len(),
        })?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated {
                needed: end,
                have: self.data.len(),
            })?;
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    /// Assert the buffer is fully consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        let left = self.data.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes(left))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            kind: SnapshotKind::Ras,
            version: 3,
            count: 42,
            source_hash: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn header_round_trip() {
        let mut buf = Vec::new();
        header().write_to(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let back = SnapshotHeader::parse(&buf, SnapshotKind::Ras).unwrap();
        assert_eq!(back, header());
        back.validate(3, Some(0xdead_beef_cafe_f00d)).unwrap();
        back.validate(3, None).unwrap();
    }

    #[test]
    fn header_rejections_are_typed() {
        let mut buf = Vec::new();
        header().write_to(&mut buf);
        assert!(matches!(
            SnapshotHeader::parse(&buf[..10], SnapshotKind::Ras),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            SnapshotHeader::parse(&buf, SnapshotKind::Job),
            Err(SnapshotError::WrongKind { found: 1, .. })
        ));
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            SnapshotHeader::parse(&bad, SnapshotKind::Ras),
            Err(SnapshotError::BadMagic)
        ));
        let h = SnapshotHeader::parse(&buf, SnapshotKind::Ras).unwrap();
        assert!(matches!(
            h.validate(4, None),
            Err(SnapshotError::VersionMismatch {
                found: 3,
                expected: 4
            })
        ));
        assert!(matches!(
            h.validate(3, Some(1)),
            Err(SnapshotError::HashMismatch { .. })
        ));
        // Errors render.
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::TrailingBytes(7),
            SnapshotError::BadTally("x".into()),
            SnapshotError::BadRecord {
                index: 9,
                what: "x".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in [SnapshotKind::Ras, SnapshotKind::Job] {
            assert_eq!(SnapshotKind::from_tag(kind.tag()), Some(kind));
        }
        // Tag 3 was the separate FATAL snapshot of older builds.
        assert_eq!(SnapshotKind::from_tag(3), None);
    }

    #[test]
    fn cursor_bounds() {
        let mut cur = Cursor::new(&[1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(cur.u32().unwrap(), 1);
        assert_eq!(cur.u64().unwrap(), 2);
        cur.finish().unwrap();
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert!(matches!(
            cur.u32(),
            Err(SnapshotError::Truncated { needed: 4, have: 3 })
        ));
        let cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.finish(), Err(SnapshotError::TrailingBytes(3)));
    }
}
