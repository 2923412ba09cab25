//! The `.bgpcas` cassette: record a source's byte stream + timing, replay it
//! deterministically.
//!
//! A cassette captures what a live source actually delivered — the exact
//! byte chunks, in order, with inter-chunk timing — so that a TCP ingest
//! session, a tailed file, or any other nondeterministic transport can be
//! replayed bit-for-bit in tests and benchmarks. Frames preserve *chunk
//! boundaries*, which is what makes framer edge cases (CRLF split across
//! reads, resync mid-line) reproducible.
//!
//! ## File layout (little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8 | magic `b"BGPCAS\0\0"` |
//! | 8  | 1 | inner format tag (1 = bgp, 2 = bgq, 3 = syslog) |
//! | 9  | 1 | stream kind (1 = RAS, 2 = job) |
//! | 10 | 2 | reserved, zero |
//! | 12 | 4 | [`FORMAT_VERSION`] (`u32`) |
//! | 16 | 8 | frame count (`u64`) |
//! | 24 | 8 | [`word_fnv_64`] of the frames section |
//!
//! Each frame is `delta_nanos: u64 | len: u32 | len bytes`. `delta_nanos` is
//! the gap since the *previous* frame (first frame: since recording start);
//! the pure codec never reads a clock — recording timing is supplied by the
//! caller (`bgp-serve`'s recorder holds the `Instant`), which keeps this
//! whole module a pure function of its bytes.
//!
//! Any mismatch — magic, version, kind, hash, truncation, trailing garbage —
//! yields a typed [`CassetteError`], mirroring the `.bgpsnap` contract. The
//! committed `tests/fixtures/*.bgpcas` cassettes pin the layout: a test
//! decodes and re-encodes them and requires the same bytes, so layout drift
//! cannot ship silently.

use crate::LogFormat;
use bgp_model::bytes::word_fnv_64;
use std::fmt;

/// Magic bytes opening every cassette file.
pub const MAGIC: [u8; 8] = *b"BGPCAS\0\0";

/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 32;

/// On-disk format version; readers refuse other versions. Bump whenever the
/// header or frame layout changes, and regenerate the committed cassettes.
pub const FORMAT_VERSION: u32 = 1;

/// One recorded chunk: the gap since the previous chunk plus its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CassetteFrame {
    /// Nanoseconds since the previous frame (first frame: since start).
    pub delta_nanos: u64,
    /// The chunk exactly as the transport delivered it.
    pub bytes: Vec<u8>,
}

/// Which record stream a cassette captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A RAS record stream.
    Ras,
    /// A job accounting stream.
    Job,
}

impl StreamKind {
    fn tag(self) -> u8 {
        match self {
            StreamKind::Ras => 1,
            StreamKind::Job => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<StreamKind> {
        match tag {
            1 => Some(StreamKind::Ras),
            2 => Some(StreamKind::Job),
            _ => None,
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamKind::Ras => write!(f, "RAS"),
            StreamKind::Job => write!(f, "job"),
        }
    }
}

fn format_tag(format: LogFormat) -> Option<u8> {
    match format {
        LogFormat::Bgp => Some(1),
        LogFormat::Bgq => Some(2),
        LogFormat::Syslog => Some(3),
        LogFormat::Cassette => None, // a cassette of a cassette is senseless
    }
}

fn format_from_tag(tag: u8) -> Option<LogFormat> {
    match tag {
        1 => Some(LogFormat::Bgp),
        2 => Some(LogFormat::Bgq),
        3 => Some(LogFormat::Syslog),
        _ => None,
    }
}

/// Why a cassette could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CassetteError {
    /// The file is shorter than its header + declared frames.
    Truncated {
        /// Bytes required by what is being read.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The on-disk format version differs from this build's.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The inner-format tag is not a recordable format.
    UnknownFormat(
        /// The tag found in the header.
        u8,
    ),
    /// The stream-kind tag is unrecognized.
    UnknownKind(
        /// The tag found in the header.
        u8,
    ),
    /// The cassette holds the other stream kind.
    WrongKind {
        /// Kind recorded in the header.
        found: StreamKind,
        /// Kind the caller needs.
        expected: StreamKind,
    },
    /// The frames section does not hash to the header's value.
    HashMismatch {
        /// Hash found in the header.
        found: u64,
        /// Hash of the frames actually present.
        expected: u64,
    },
    /// Extra bytes follow the declared frames.
    TrailingBytes(
        /// Number of unexpected bytes.
        usize,
    ),
    /// Tried to record a cassette *of* a cassette.
    NestedCassette,
}

impl fmt::Display for CassetteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CassetteError::Truncated { needed, have } => {
                write!(f, "truncated: need {needed} bytes, have {have}")
            }
            CassetteError::BadMagic => write!(f, "not a .bgpcas file (bad magic)"),
            CassetteError::VersionMismatch { found, expected } => {
                write!(f, "format version {found} (this build reads {expected})")
            }
            CassetteError::UnknownFormat(tag) => {
                write!(f, "unknown inner-format tag {tag}")
            }
            CassetteError::UnknownKind(tag) => write!(f, "unknown stream-kind tag {tag}"),
            CassetteError::WrongKind { found, expected } => {
                write!(f, "cassette holds a {found} stream (expected {expected})")
            }
            CassetteError::HashMismatch { found, expected } => write!(
                f,
                "frame hash {found:#018x} does not match content {expected:#018x}"
            ),
            CassetteError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frames"),
            CassetteError::NestedCassette => {
                write!(f, "cannot record a cassette of a cassette")
            }
        }
    }
}

impl std::error::Error for CassetteError {}

/// A decoded cassette: which format/stream it captured, and the frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cassette {
    /// The format of the recorded byte stream.
    pub format: LogFormat,
    /// Which record stream was captured.
    pub kind: StreamKind,
    /// The recorded chunks, in delivery order.
    pub frames: Vec<CassetteFrame>,
}

impl Cassette {
    /// An empty cassette for `format`/`kind`; fails on [`LogFormat::Cassette`]
    /// (nesting is senseless).
    pub fn new(format: LogFormat, kind: StreamKind) -> Result<Cassette, CassetteError> {
        if format_tag(format).is_none() {
            return Err(CassetteError::NestedCassette);
        }
        Ok(Cassette {
            format,
            kind,
            frames: Vec::new(),
        })
    }

    /// Concatenate every frame's bytes — the byte stream a replay delivers.
    pub fn replay_bytes(&self) -> Vec<u8> {
        let total: usize = self.frames.iter().map(|fr| fr.bytes.len()).sum();
        let mut out = Vec::with_capacity(total);
        for fr in &self.frames {
            out.extend_from_slice(&fr.bytes);
        }
        out
    }

    /// Encode to the `.bgpcas` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut frames = Vec::new();
        for fr in &self.frames {
            frames.extend_from_slice(&fr.delta_nanos.to_le_bytes());
            frames.extend_from_slice(&(fr.bytes.len() as u32).to_le_bytes());
            frames.extend_from_slice(&fr.bytes);
        }
        let mut out = Vec::with_capacity(HEADER_LEN + frames.len());
        out.extend_from_slice(&MAGIC);
        out.push(format_tag(self.format).unwrap_or(0));
        out.push(self.kind.tag());
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.frames.len() as u64).to_le_bytes());
        out.extend_from_slice(&word_fnv_64(&frames).to_le_bytes());
        out.extend_from_slice(&frames);
        out
    }

    /// Decode a `.bgpcas` byte buffer, validating everything.
    pub fn decode(bytes: &[u8]) -> Result<Cassette, CassetteError> {
        if bytes.len() < HEADER_LEN {
            return Err(CassetteError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(CassetteError::BadMagic);
        }
        let format = format_from_tag(bytes[8]).ok_or(CassetteError::UnknownFormat(bytes[8]))?;
        let kind = StreamKind::from_tag(bytes[9]).ok_or(CassetteError::UnknownKind(bytes[9]))?;
        let word = |at: usize| -> [u8; 8] {
            bytes
                .get(at..at + 8)
                .and_then(|b| b.try_into().ok())
                .unwrap_or([0; 8])
        };
        let version = u32::from_le_bytes(
            bytes
                .get(12..16)
                .and_then(|b| b.try_into().ok())
                .unwrap_or([0; 4]),
        );
        if version != FORMAT_VERSION {
            return Err(CassetteError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = u64::from_le_bytes(word(16));
        let declared_hash = u64::from_le_bytes(word(24));
        let frames_bytes = &bytes[HEADER_LEN..];
        let actual_hash = word_fnv_64(frames_bytes);
        if declared_hash != actual_hash {
            return Err(CassetteError::HashMismatch {
                found: declared_hash,
                expected: actual_hash,
            });
        }
        let mut frames = Vec::new();
        let mut pos = 0usize;
        let need = |pos: usize, n: usize| -> Result<usize, CassetteError> {
            let end = pos.checked_add(n).ok_or(CassetteError::Truncated {
                needed: usize::MAX,
                have: frames_bytes.len(),
            })?;
            if end > frames_bytes.len() {
                return Err(CassetteError::Truncated {
                    needed: HEADER_LEN + end,
                    have: bytes.len(),
                });
            }
            Ok(end)
        };
        for _ in 0..count {
            let end = need(pos, 12)?;
            let delta_nanos = u64::from_le_bytes(
                frames_bytes
                    .get(pos..pos + 8)
                    .and_then(|b| b.try_into().ok())
                    .unwrap_or([0; 8]),
            );
            let len = u32::from_le_bytes(
                frames_bytes
                    .get(pos + 8..pos + 12)
                    .and_then(|b| b.try_into().ok())
                    .unwrap_or([0; 4]),
            ) as usize;
            pos = end;
            let end = need(pos, len)?;
            frames.push(CassetteFrame {
                delta_nanos,
                bytes: frames_bytes
                    .get(pos..end)
                    .map(<[u8]>::to_vec)
                    .unwrap_or_default(),
            });
            pos = end;
        }
        if pos != frames_bytes.len() {
            return Err(CassetteError::TrailingBytes(frames_bytes.len() - pos));
        }
        Ok(Cassette {
            format,
            kind,
            frames,
        })
    }

    /// Decode, additionally requiring the stream kind the caller consumes.
    pub fn decode_expecting(bytes: &[u8], expected: StreamKind) -> Result<Cassette, CassetteError> {
        let cas = Cassette::decode(bytes)?;
        if cas.kind != expected {
            return Err(CassetteError::WrongKind {
                found: cas.kind,
                expected,
            });
        }
        Ok(cas)
    }
}

/// A pure cassette recorder: the caller supplies timing, so this type never
/// reads a clock (`bgp-serve` owns the `Instant` that feeds `delta_nanos`).
#[derive(Debug)]
pub struct Recorder {
    cassette: Cassette,
}

impl Recorder {
    /// Start recording a `format`/`kind` stream.
    pub fn new(format: LogFormat, kind: StreamKind) -> Result<Recorder, CassetteError> {
        Ok(Recorder {
            cassette: Cassette::new(format, kind)?,
        })
    }

    /// Append one delivered chunk (`delta_nanos` since the previous one).
    /// Empty chunks are recorded too — boundaries are the point.
    pub fn push(&mut self, delta_nanos: u64, bytes: &[u8]) {
        self.cassette.frames.push(CassetteFrame {
            delta_nanos,
            bytes: bytes.to_vec(),
        });
    }

    /// Number of frames recorded so far.
    pub fn len(&self) -> usize {
        self.cassette.frames.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.cassette.frames.is_empty()
    }

    /// The cassette recorded so far (borrow; [`Recorder::finish`] consumes).
    pub fn cassette(&self) -> &Cassette {
        &self.cassette
    }

    /// Finish and return the cassette.
    pub fn finish(self) -> Cassette {
        self.cassette
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raslog::RasRecord;

    fn sample() -> Cassette {
        let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).unwrap();
        rec.push(0, b"first chunk ");
        rec.push(1_500_000, b"");
        rec.push(250, b"second\nchunk");
        rec.finish()
    }

    #[test]
    fn encode_decode_round_trip() {
        let cas = sample();
        let bytes = cas.encode();
        assert_eq!(&bytes[..8], &MAGIC);
        let back = Cassette::decode(&bytes).unwrap();
        assert_eq!(back, cas);
        assert_eq!(back.replay_bytes(), b"first chunk second\nchunk");
    }

    #[test]
    fn nested_cassettes_are_refused() {
        assert_eq!(
            Cassette::new(LogFormat::Cassette, StreamKind::Ras).unwrap_err(),
            CassetteError::NestedCassette
        );
        assert!(Recorder::new(LogFormat::Cassette, StreamKind::Job).is_err());
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let good = sample().encode();
        assert!(matches!(
            Cassette::decode(&good[..HEADER_LEN - 1]),
            Err(CassetteError::Truncated { .. })
        ));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(Cassette::decode(&bad).unwrap_err(), CassetteError::BadMagic);
        let mut bad = good.clone();
        bad[8] = 99;
        assert_eq!(
            Cassette::decode(&bad).unwrap_err(),
            CassetteError::UnknownFormat(99)
        );
        let mut bad = good.clone();
        bad[9] = 0;
        assert_eq!(
            Cassette::decode(&bad).unwrap_err(),
            CassetteError::UnknownKind(0)
        );
        let mut bad = good.clone();
        bad[12] = 0xEE; // version
        assert!(matches!(
            Cassette::decode(&bad).unwrap_err(),
            CassetteError::VersionMismatch { .. }
        ));
        // Flip one payload byte: the hash check catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            Cassette::decode(&bad).unwrap_err(),
            CassetteError::HashMismatch { .. }
        ));
        // Truncated frame payload (hash recomputed so truncation is reached).
        let mut bad = good.clone();
        bad.truncate(good.len() - 3);
        let h = word_fnv_64(&bad[HEADER_LEN..]).to_le_bytes();
        bad[24..32].copy_from_slice(&h);
        assert!(matches!(
            Cassette::decode(&bad).unwrap_err(),
            CassetteError::Truncated { .. }
        ));
        // Trailing garbage after the declared frames.
        let mut bad = good.clone();
        bad.extend_from_slice(b"zz");
        let h = word_fnv_64(&bad[HEADER_LEN..]).to_le_bytes();
        bad[24..32].copy_from_slice(&h);
        assert_eq!(
            Cassette::decode(&bad).unwrap_err(),
            CassetteError::TrailingBytes(2)
        );
        // Every error renders.
        for e in [
            CassetteError::BadMagic,
            CassetteError::NestedCassette,
            CassetteError::WrongKind {
                found: StreamKind::Job,
                expected: StreamKind::Ras,
            },
            CassetteError::TrailingBytes(2),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn kind_is_enforced_on_decode() {
        let bytes = sample().encode();
        assert!(Cassette::decode_expecting(&bytes, StreamKind::Ras).is_ok());
        assert!(matches!(
            Cassette::decode_expecting(&bytes, StreamKind::Job),
            Err(CassetteError::WrongKind {
                found: StreamKind::Ras,
                expected: StreamKind::Job,
            })
        ));
    }

    #[test]
    fn adapter_replays_through_the_inner_format() {
        let rec_line = {
            let r = RasRecord::new(
                1,
                bgp_model::Timestamp::from_unix(1_236_000_000),
                "R00-M0".parse().unwrap(),
                raslog::Catalog::standard()
                    .lookup("_bgp_err_kernel_panic")
                    .unwrap(),
            );
            raslog::format_record(&r)
        };
        let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).unwrap();
        // Split the line across chunks mid-field: replay must reassemble it.
        let text = format!("{rec_line}\ngarbage\n");
        let (a, b) = text.as_bytes().split_at(10);
        rec.push(0, a);
        rec.push(1000, b);
        let bytes = rec.finish().encode();
        let batch = crate::decode_ras(LogFormat::Cassette, &bytes, 1).unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].recid, 1);
        assert_eq!(batch.diagnostics.len(), 1);
        // And the whole batch equals a direct BG/P parse of the same text.
        assert_eq!(batch, crate::bgp::decode_ras(text.as_bytes(), 1));
        // A job cassette is no RAS input.
        let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Job).unwrap();
        rec.push(0, text.as_bytes());
        assert!(matches!(
            crate::decode_ras(LogFormat::Cassette, &rec.finish().encode(), 1),
            Err(CassetteError::WrongKind { .. })
        ));
    }
}
