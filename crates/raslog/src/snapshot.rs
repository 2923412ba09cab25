//! Columnar `.bgpsnap` codec for parsed RAS logs.
//!
//! One file per source log. After the shared 32-byte header
//! ([`bgp_model::snapshot`]), whose `count` is every record parsed, come a
//! 24-byte tally — the FATAL record count, then the earliest and latest
//! event time (`i64` unix seconds; `i64::MAX`, `i64::MIN` when nothing was
//! parsed) — and two sections of little-endian record columns: first the
//! FATAL records, then every record, both in parse order. Each section
//! holds these five columns, in this order:
//!
//! | column | width | encoding |
//! |---|---|---|
//! | `recid` | 8 | `u64` |
//! | `event_time` | 8 | unix seconds, `i64` |
//! | `location` | 4 | `[tag, a, b, c]` (see `encode_location`) |
//! | `errcode` | 2 | catalogue index, `u16` |
//! | `severity` | 1 | [`Severity`] discriminant |
//!
//! The FATAL rows are stored twice, so each section is read without the
//! other: [`decode_front`] reads the front (the co-analysis load; about
//! 1 MB of a 237-day site's 12.8 MB), given only those bytes and the
//! file's length, and [`decode_snapshot`] skips to every record. Both
//! check the header, the tally and the file's exact length — so any
//! truncation, even inside the section a decoder skips, is rejected by
//! length arithmetic alone — and then re-validate every record of their
//! section against the machine model and the catalogue, so a corrupt
//! payload yields a typed [`SnapshotError`] instead of an impossible
//! record entering analysis.
//!
//! One builder defines the layout: `Rows` appends a record's cells to
//! the columns of both sections, and [`Snapshot`] writes its front and
//! then, column by column, the rows of each run it holds, in order. A
//! cache miss builds one run per parse worker, in the pass that parses
//! the records (`crate::ingest::parse_log_file_where`), so no vector of
//! every record is built to be encoded, and the file is written straight
//! from the workers' buffers, never gathered into one image;
//! [`encode_snapshot`] is the same builder over one run.
//! At paper scale (288 MB of RAS text, 2 vCPUs) that took a
//! `coctl analyze --snapshot` miss from ~0.51 s and a ~122 MB peak RSS,
//! when the miss encoded a vector of every record, to ~0.31 s and ~62 MB.

use crate::catalog::{Catalog, ErrCode};
use crate::log::Projection;
use crate::record::RasRecord;
use crate::severity::Severity;
use bgp_model::snapshot::{Cursor, SnapshotError, SnapshotHeader, SnapshotKind, HEADER_LEN};
use bgp_model::{
    ComputeNodeId, IoNodeId, LinkCardId, Location, MidplaneId, NodeCardId, RackId, Timestamp,
};
use std::cmp::Ordering;
use std::io;

/// On-disk format version. Bump whenever the record columns change shape —
/// the golden-bytes test (`tests/snapshot_golden.rs`) fails until you do.
///
/// Version 3: one file holds the tally, the FATAL section and every record
/// (version 2 kept the FATAL projection in a second file).
pub const FORMAT_VERSION: u32 = 3;

/// Bytes per record across all columns.
const BYTES_PER_RECORD: usize = 8 + 8 + 4 + 2 + 1;

/// Encode a location as `[tag, a, b, c]`.
///
/// Tags 0–8 follow [`Location`]'s variant order; `a` is the dense
/// rack/midplane index, `b` the card index, `c` the node slot (unused
/// positions zero).
fn encode_location(loc: Location) -> [u8; 4] {
    let mp = |m: MidplaneId| m.index() as u8;
    let rk = |r: RackId| r.index() as u8;
    match loc {
        Location::Rack(r) => [0, rk(r), 0, 0],
        Location::Midplane(m) => [1, mp(m), 0, 0],
        Location::NodeCard(nc) => [2, mp(nc.midplane()), nc.card(), 0],
        Location::ComputeNode(cn) => [
            3,
            mp(cn.node_card().midplane()),
            cn.node_card().card(),
            cn.j(),
        ],
        Location::IoNode(io) => [4, mp(io.midplane()), io.index(), 0],
        Location::LinkCard(lc) => [5, mp(lc.midplane()), lc.index(), 0],
        Location::ServiceCard(m) => [6, mp(m), 0, 0],
        Location::BulkPower(r) => [7, rk(r), 0, 0],
        Location::ClockCard(r) => [8, rk(r), 0, 0],
    }
}

fn decode_location(b: [u8; 4], index: u64) -> Result<Location, SnapshotError> {
    let bad = |what: String| SnapshotError::BadRecord { index, what };
    let model = |what: &str| bad(format!("location: bad {what}"));
    let [tag, a, c, j] = b;
    let mp = || MidplaneId::from_index(a).map_err(|_| model("midplane index"));
    let rk = || RackId::from_index(a).map_err(|_| model("rack index"));
    let loc = match tag {
        0 => Location::Rack(rk()?),
        1 => Location::Midplane(mp()?),
        2 => Location::NodeCard(NodeCardId::new(mp()?, c).map_err(|_| model("node card"))?),
        3 => {
            let nc = NodeCardId::new(mp()?, c).map_err(|_| model("node card"))?;
            Location::ComputeNode(ComputeNodeId::new(nc, j).map_err(|_| model("node slot"))?)
        }
        4 => Location::IoNode(IoNodeId::new(mp()?, c).map_err(|_| model("I/O node index"))?),
        5 => Location::LinkCard(LinkCardId::new(mp()?, c).map_err(|_| model("link card index"))?),
        6 => Location::ServiceCard(mp()?),
        7 => Location::BulkPower(rk()?),
        8 => Location::ClockCard(rk()?),
        other => return Err(bad(format!("location: unknown tag {other}"))),
    };
    Ok(loc)
}

/// Bytes of the tally after the header: the FATAL record count, then the
/// earliest and latest event time.
const TALLY_LEN: usize = 8 + 8 + 8;

/// Bytes before the first section: the header and the tally.
const FRONT_LEN: usize = HEADER_LEN + TALLY_LEN;

/// Each column's cell width, in file order (the table above).
const WIDTHS: [usize; 5] = [8, 8, 4, 2, 1];

/// The five columns of a run of records, each cell little-endian as the
/// table above says, appended one record at a time. They share one buffer:
/// room for `cap` rows, each column a region of `cap` cells, in file order.
/// One allocation, not five, so at paper scale it is larger than any
/// allocator's small-block threshold (glibc's is at most 32 MiB) and gets a
/// mapping of its own, which a free hands back to the OS; five column
/// vectors would come from the parse workers' heaps, which keep freed
/// memory resident.
#[derive(Debug)]
struct Columns {
    buf: Vec<u8>,
    rows: usize,
    cap: usize,
}

impl Columns {
    /// Empty columns with room for `cap` records.
    fn with_capacity(cap: usize) -> Columns {
        Columns {
            buf: vec![0; cap * BYTES_PER_RECORD],
            rows: 0,
            cap,
        }
    }

    /// Append one record's cells.
    #[inline]
    fn push(&mut self, r: &RasRecord) {
        if self.rows == self.cap {
            self.grow();
        }
        // Column k's region starts at `cap` times the widths before it.
        let (cap, i) = (self.cap, self.rows);
        self.buf[i * 8..][..8].copy_from_slice(&r.recid.to_le_bytes());
        self.buf[cap * 8 + i * 8..][..8].copy_from_slice(&r.event_time.as_unix().to_le_bytes());
        self.buf[cap * 16 + i * 4..][..4].copy_from_slice(&encode_location(r.location));
        self.buf[cap * 20 + i * 2..][..2].copy_from_slice(&r.errcode.0.to_le_bytes());
        self.buf[cap * 22 + i] = r.severity as u8;
        self.rows += 1;
    }

    /// Double the room, moving each column to its new region.
    #[cold]
    fn grow(&mut self) {
        let mut next = Columns::with_capacity((self.cap * 2).max(64));
        let mut at = 0;
        for (column, width) in self.columns().into_iter().zip(WIDTHS) {
            next.buf[at..][..column.len()].copy_from_slice(column);
            at += next.cap * width;
        }
        next.rows = self.rows;
        *self = next;
    }

    /// Records held.
    fn rows(&self) -> usize {
        self.rows
    }

    /// The filled part of each column, in file order.
    fn columns(&self) -> [&[u8]; 5] {
        let mut at = 0;
        WIDTHS.map(|width| {
            let column = &self.buf[at..][..self.rows * width];
            at += self.cap * width;
            column
        })
    }
}

/// What a snapshot holds of a run of records in parse order: the columns
/// of its FATAL records and of every record, and the span of their event
/// times. A parse worker builds one of the records it parses.
#[derive(Debug)]
pub(crate) struct Rows {
    fatal: Columns,
    every: Columns,
    /// Earliest event time pushed (`i64::MAX` before any).
    earliest: i64,
    /// Latest event time pushed (`i64::MIN` before any).
    latest: i64,
}

impl Rows {
    /// Empty rows with room for `rows` records; the FATAL section grows
    /// as it needs.
    pub(crate) fn with_capacity(rows: usize) -> Rows {
        Rows {
            fatal: Columns::with_capacity(0),
            every: Columns::with_capacity(rows),
            earliest: i64::MAX,
            latest: i64::MIN,
        }
    }

    /// Append one record, to both sections if it is FATAL.
    #[inline]
    pub(crate) fn push(&mut self, r: &RasRecord) {
        let t = r.event_time.as_unix();
        self.earliest = self.earliest.min(t);
        self.latest = self.latest.max(t);
        if r.is_fatal() {
            self.fatal.push(r);
        }
        self.every.push(r);
    }
}

/// A complete `.bgpsnap` file, ready to be written: its front — the
/// header and the tally — and the rows of both sections, held in the runs
/// they were built in and written out column by column, never gathered
/// into one image.
#[derive(Debug)]
pub struct Snapshot {
    front: Vec<u8>,
    runs: Vec<Rows>,
}

impl Snapshot {
    /// The snapshot of the records in `runs` — consecutive runs of the
    /// source's records, in order — stamped with the content hash of the
    /// source text.
    pub(crate) fn new(runs: Vec<Rows>, source_hash: u64) -> Snapshot {
        let rows = |section: fn(&Rows) -> &Columns| -> u64 {
            runs.iter().map(|run| section(run).rows() as u64).sum()
        };
        let (earliest, latest) = runs.iter().fold((i64::MAX, i64::MIN), |(lo, hi), run| {
            (lo.min(run.earliest), hi.max(run.latest))
        });
        let mut front = Vec::with_capacity(FRONT_LEN);
        SnapshotHeader {
            kind: SnapshotKind::Ras,
            version: FORMAT_VERSION,
            count: rows(|run| &run.every),
            source_hash,
        }
        .write_to(&mut front);
        front.extend_from_slice(&rows(|run| &run.fatal).to_le_bytes());
        front.extend_from_slice(&earliest.to_le_bytes());
        front.extend_from_slice(&latest.to_le_bytes());
        Snapshot { front, runs }
    }

    /// The file's bytes, in order: the front, then each section's columns
    /// in column order, each column the runs' cells in run order.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let section = move |of: fn(&Rows) -> &Columns| {
            (0..5)
                .flat_map(move |column| self.runs.iter().map(move |run| of(run).columns()[column]))
        };
        std::iter::once(self.front.as_slice())
            .chain(section(|run| &run.fatal))
            .chain(section(|run| &run.every))
    }

    /// Write the file to `out`.
    pub fn write_to(&self, out: &mut impl io::Write) -> io::Result<()> {
        self.pieces().try_for_each(|piece| out.write_all(piece))
    }

    /// The file's bytes in one buffer.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        self.pieces().collect::<Vec<_>>().concat()
    }
}

/// Serialize parsed records, in parse order (plus the hash of the source
/// text they came from), into a complete `.bgpsnap` byte buffer: the
/// [`Snapshot`] of one run of rows.
pub fn encode_snapshot(records: &[RasRecord], source_hash: u64) -> Vec<u8> {
    let mut rows = Rows::with_capacity(records.len());
    for r in records {
        rows.push(r);
    }
    Snapshot::new(vec![rows], source_hash).to_bytes()
}

/// Decode every record of a `.bgpsnap` buffer, in parse order, skipping
/// the FATAL section.
///
/// `expected_hash`, when given, is the content hash of the *current* source
/// text; a snapshot written from different text is rejected with
/// [`SnapshotError::HashMismatch`]. The tally must describe the records
/// exactly: their FATAL count and their earliest and latest event time.
/// Every error is recoverable by re-parsing the source.
pub fn decode_snapshot(
    bytes: &[u8],
    expected_hash: Option<u64>,
) -> Result<Vec<RasRecord>, SnapshotError> {
    let front = open(bytes, bytes.len() as u64, expected_hash)?;
    let records = decode_columns(
        &bytes[FRONT_LEN + front.fatal * BYTES_PER_RECORD..],
        front.parsed,
    )?;
    let fatal = records.iter().filter(|r| r.is_fatal()).count();
    if fatal != front.fatal {
        return Err(SnapshotError::BadTally(format!(
            "{} FATAL records but {fatal} among every record",
            front.fatal
        )));
    }
    let times = || records.iter().map(|r| r.event_time);
    if front.span != times().min().zip(times().max()) {
        return Err(SnapshotError::BadTally(
            "the span is not every record's".to_owned(),
        ));
    }
    Ok(records)
}

/// Decode the FATAL section of a `.bgpsnap` buffer into the projection the
/// co-analysis load keeps: [`decode_front`] of the whole file.
pub fn decode_fatal(bytes: &[u8], expected_hash: Option<u64>) -> Result<Projection, SnapshotError> {
    decode_front(bytes, bytes.len() as u64, expected_hash)
}

/// Bytes read before the rest of the front: the header and the FATAL
/// count, which [`front_len`] reads.
pub const FRONT_HEAD_LEN: usize = HEADER_LEN + 8;

/// The length of the front that [`decode_front`] reads — the header, the
/// tally and the FATAL section — of a snapshot that begins with `head`,
/// its first [`FRONT_HEAD_LEN`] bytes (all of it, if shorter). The FATAL
/// count is taken as stored, and the length saturates: that a file is too
/// short for its counts is for [`decode_front`] to report.
pub fn front_len(head: &[u8]) -> u64 {
    let mut cur = Cursor::new(head);
    let fatal = cur.take(HEADER_LEN).and_then(|_| cur.u64()).unwrap_or(0);
    fatal
        .saturating_mul(BYTES_PER_RECORD as u64)
        .saturating_add(FRONT_LEN as u64)
}

/// Decode the FATAL section of a `.bgpsnap` file of `file_len` bytes,
/// given its first bytes `front` — at least its [`front_len`], or the
/// whole file — into the projection the co-analysis load keeps: the
/// FATAL records, in parse order, under the tally of every record parsed.
/// The section of every record is never read, only counted into the
/// file's length, which must be exactly what the header and the tally
/// imply.
///
/// Each record is validated as [`decode_snapshot`] does, and the
/// projection's own laws too: every record is FATAL and inside the stored
/// span. `expected_hash` works as for [`decode_snapshot`].
pub fn decode_front(
    front: &[u8],
    file_len: u64,
    expected_hash: Option<u64>,
) -> Result<Projection, SnapshotError> {
    let tally = open(front, file_len, expected_hash)?;
    let end = FRONT_LEN + tally.fatal * BYTES_PER_RECORD;
    let section = front.get(FRONT_LEN..end).ok_or(SnapshotError::Truncated {
        needed: end,
        have: front.len(),
    })?;
    let records = decode_columns(section, tally.fatal)?;
    for (i, r) in records.iter().enumerate() {
        let bad = |what: String| SnapshotError::BadRecord {
            index: i as u64,
            what,
        };
        if !r.is_fatal() {
            return Err(bad(format!("severity {} in the FATAL section", r.severity)));
        }
        if !tally
            .span
            .is_some_and(|(lo, hi)| (lo..=hi).contains(&r.event_time))
        {
            return Err(bad(format!(
                "event time {} outside the stored span",
                r.event_time.as_unix()
            )));
        }
    }
    Ok(Projection::from_parts(records, tally.parsed, tally.span))
}

/// What the header and the tally of a snapshot say, checked against each
/// other and against the file's length.
struct Front {
    /// Records parsed: the second section's rows.
    parsed: usize,
    /// FATAL records: the first section's rows.
    fatal: usize,
    /// Earliest and latest event time, `None` exactly when nothing was
    /// parsed.
    span: Option<(Timestamp, Timestamp)>,
}

/// Check a snapshot's header against this build's version and (optionally)
/// the current source hash, then the tally and the file's exact length,
/// `file_len`, given its first bytes `bytes` (its front at least, or the
/// whole file).
fn open(bytes: &[u8], file_len: u64, expected_hash: Option<u64>) -> Result<Front, SnapshotError> {
    let header = SnapshotHeader::parse(bytes, SnapshotKind::Ras)?;
    header.validate(FORMAT_VERSION, expected_hash)?;
    let mut cur = Cursor::new(bytes);
    cur.take(HEADER_LEN)?;
    let fatal = cur.u64()?;
    let earliest = cur.u64()? as i64;
    let latest = cur.u64()? as i64;
    // The length the header and the tally imply, saturated: a count too
    // large for the file reports it, and it bounds the offsets used below.
    let needed = fatal
        .saturating_add(header.count)
        .saturating_mul(BYTES_PER_RECORD as u64)
        .saturating_add(FRONT_LEN as u64);
    let size = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
    match needed.cmp(&file_len) {
        Ordering::Greater => {
            return Err(SnapshotError::Truncated {
                needed: size(needed),
                have: size(file_len),
            })
        }
        Ordering::Less => return Err(SnapshotError::TrailingBytes(size(file_len - needed))),
        Ordering::Equal => {}
    }
    let parsed = header.count;
    let bad_tally = |what: String| Err(SnapshotError::BadTally(what));
    if fatal > parsed {
        return bad_tally(format!("{fatal} FATAL records but {parsed} parsed"));
    }
    let span = match (parsed, earliest, latest) {
        (0, i64::MAX, i64::MIN) => None,
        (0, _, _) => return bad_tally("a span stored for no records parsed".to_owned()),
        (_, i64::MAX, i64::MIN) => return bad_tally(format!("no span for {parsed} records")),
        (_, lo, hi) if lo > hi => return bad_tally(format!("span {lo}..{hi} is inverted")),
        (_, lo, hi) => Some((Timestamp::from_unix(lo), Timestamp::from_unix(hi))),
    };
    // Both counts fit: their rows fit in the file.
    Ok(Front {
        parsed: parsed as usize,
        fatal: fatal as usize,
        span,
    })
}

/// Decode and validate the `n` records whose columns begin `cols`, which
/// [`open`] has checked is long enough.
fn decode_columns(cols: &[u8], n: usize) -> Result<Vec<RasRecord>, SnapshotError> {
    let mut cur = Cursor::new(cols);
    let c_recid = cur.take(n * 8)?;
    let c_time = cur.take(n * 8)?;
    let c_loc = cur.take(n * 4)?;
    let c_code = cur.take(n * 2)?;
    let c_sev = cur.take(n)?;

    let catalog_len = Catalog::standard().len();
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i as u64;
        let mut loc = [0u8; 4];
        loc.copy_from_slice(&c_loc[i * 4..i * 4 + 4]);
        let location = decode_location(loc, idx)?;
        let code = u16::from_le_bytes([c_code[i * 2], c_code[i * 2 + 1]]);
        if usize::from(code) >= catalog_len {
            return Err(SnapshotError::BadRecord {
                index: idx,
                what: format!("errcode {code} outside catalogue"),
            });
        }
        let severity =
            *Severity::ALL
                .get(usize::from(c_sev[i]))
                .ok_or_else(|| SnapshotError::BadRecord {
                    index: idx,
                    what: format!("severity byte {}", c_sev[i]),
                })?;
        records.push(RasRecord {
            recid: le_u64(c_recid, i),
            event_time: Timestamp::from_unix(le_u64(c_time, i) as i64),
            location,
            errcode: ErrCode(code),
            severity,
        });
    }
    Ok(records)
}

fn le_u64(col: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&col[i * 8..i * 8 + 8]);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn records() -> Vec<RasRecord> {
        let locs = [
            "R00",
            "R23-M1",
            "R23-M1-N04",
            "R23-M1-N04-J12",
            "R23-M1-I3",
            "R23-M1-L2",
            "R23-M1-S",
            "R23-B",
            "R47-K",
        ];
        locs.iter()
            .enumerate()
            .map(|(i, l)| {
                let mut r = RasRecord::new(
                    i as u64,
                    Timestamp::from_unix(1_236_000_000 + i as i64),
                    l.parse().unwrap(),
                    ErrCode((i % Catalog::standard().len()) as u16),
                );
                r.severity = Severity::ALL[i % Severity::ALL.len()];
                r
            })
            .collect()
    }

    /// The FATAL records among `recs`: the first section's rows.
    fn fatal_count(recs: &[RasRecord]) -> usize {
        recs.iter().filter(|r| r.is_fatal()).count()
    }

    #[test]
    fn round_trip_every_location_kind() {
        let recs = records();
        let bytes = encode_snapshot(&recs, 7);
        let rows = fatal_count(&recs) + recs.len();
        assert_eq!(bytes.len(), FRONT_LEN + rows * BYTES_PER_RECORD);
        assert_eq!(decode_snapshot(&bytes, Some(7)).unwrap(), recs);
        // Hash validation is optional for tools that only read.
        assert_eq!(decode_snapshot(&bytes, None).unwrap(), recs);
        // Empty logs snapshot too.
        let empty = encode_snapshot(&[], 1);
        assert_eq!(decode_snapshot(&empty, Some(1)).unwrap(), vec![]);
        assert_eq!(
            decode_fatal(&empty, Some(1)).unwrap(),
            Projection::default()
        );
    }

    #[test]
    fn io_node_and_link_card_indices_are_checked() {
        use bgp_model::topology::{IO_NODES_PER_MIDPLANE, LINK_CARDS_PER_MIDPLANE};
        for (tag, per_midplane) in [(4, IO_NODES_PER_MIDPLANE), (5, LINK_CARDS_PER_MIDPLANE)] {
            let last = decode_location([tag, 3, per_midplane - 1, 0], 0).unwrap();
            assert_eq!(encode_location(last), [tag, 3, per_midplane - 1, 0]);
            assert!(matches!(
                decode_location([tag, 3, per_midplane, 0], 0),
                Err(SnapshotError::BadRecord { index: 0, .. })
            ));
        }
    }

    /// [`records`] with every other one made FATAL, so the FATAL records
    /// are neither the first nor the last, nor the earliest or the latest.
    fn mixed() -> Vec<RasRecord> {
        let mut recs = records();
        for (i, r) in recs.iter_mut().enumerate() {
            if i % 2 == 1 {
                r.severity = Severity::Fatal;
            } else if r.severity == Severity::Fatal {
                r.severity = Severity::Info;
            }
        }
        recs
    }

    /// Each way a snapshot can be wrong, with what each decoder says of it
    /// (`Ok` when the damage is outside what it reads).
    #[test]
    fn rejections_are_typed_per_decoder() {
        let recs = mixed();
        let (n, f) = (recs.len(), fatal_count(&recs));
        assert_eq!((n, f), (9, 4));
        let good = encode_snapshot(&recs, 7);
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let tally = HEADER_LEN;
        let fatal_cols = FRONT_LEN;
        let all_cols = FRONT_LEN + f * BYTES_PER_RECORD;
        let both = |reason: &str| (Err(reason.to_owned()), Err(reason.to_owned()));
        let mut more_fatal = patched(16, &6u64.to_le_bytes());
        more_fatal[tally..tally + 8].copy_from_slice(&7u64.to_le_bytes());
        let stale = "source hash 0x0000000000000007 does not match current source \
                     0x0000000000000008";
        // What `decode_snapshot`, then `decode_fatal`, make of a case.
        type Want = (Result<(), String>, Result<(), String>);
        let cases: [(&str, Vec<u8>, u64, Want); 14] = [
            ("good", good.clone(), 7, (Ok(()), Ok(()))),
            (
                "old version",
                patched(12, &2u32.to_le_bytes()),
                7,
                both("format version 2 (this build reads 3)"),
            ),
            ("stale hash", good.clone(), 8, both(stale)),
            (
                "short tally",
                good[..HEADER_LEN + 10].to_vec(),
                7,
                both("truncated: need 48 bytes, have 42"),
            ),
            (
                "count too large for the file",
                patched(16, &1000u64.to_le_bytes()),
                7,
                both("truncated: need 23148 bytes, have 355"),
            ),
            (
                "absurd count",
                patched(16, &u64::MAX.to_le_bytes()),
                7,
                both(&format!("truncated: need {} bytes, have 355", usize::MAX)),
            ),
            (
                "one byte short, inside the section of every record",
                good[..good.len() - 1].to_vec(),
                7,
                both("truncated: need 355 bytes, have 354"),
            ),
            (
                "trailing byte",
                [good.as_slice(), &[0]].concat(),
                7,
                both("1 trailing bytes after records"),
            ),
            (
                "more FATAL records than parsed",
                more_fatal,
                7,
                both("tally corrupt: 7 FATAL records but 6 parsed"),
            ),
            (
                "inverted span",
                patched(tally + 8, &i64::MAX.to_le_bytes()),
                7,
                both(&format!(
                    "tally corrupt: span {}..1236000008 is inverted",
                    i64::MAX
                )),
            ),
            (
                "span too narrow",
                patched(tally + 16, &1_236_000_006i64.to_le_bytes()),
                7,
                (
                    Err("tally corrupt: the span is not every record's".to_owned()),
                    Err(
                        "record 3 corrupt: event time 1236000007 outside the stored span"
                            .to_owned(),
                    ),
                ),
            ),
            (
                "FATAL section: a WARNING row",
                patched(fatal_cols + f * 22 + 1, &[Severity::Warning as u8]),
                7,
                (
                    Ok(()),
                    Err("record 1 corrupt: severity WARNING in the FATAL section".to_owned()),
                ),
            ),
            (
                "section of every record: errcode outside the catalogue",
                patched(all_cols + n * 20, &u16::MAX.to_le_bytes()),
                7,
                (
                    Err("record 0 corrupt: errcode 65535 outside catalogue".to_owned()),
                    Ok(()),
                ),
            ),
            (
                "section of every record: a fifth FATAL row",
                patched(all_cols + n * 22, &[Severity::Fatal as u8]),
                7,
                (
                    Err("tally corrupt: 4 FATAL records but 5 among every record".to_owned()),
                    Ok(()),
                ),
            ),
        ];
        for (case, bytes, hash, (full, fatal)) in cases {
            let got_full = decode_snapshot(&bytes, Some(hash)).map_err(|e| e.to_string());
            let got_fatal = decode_fatal(&bytes, Some(hash)).map_err(|e| e.to_string());
            assert_eq!(
                got_full.map(|r| assert_eq!(r, recs)),
                full,
                "{case}: every record"
            );
            let projection = Projection::of(recs.clone(), RasRecord::is_fatal);
            assert_eq!(
                got_fatal.map(|p| assert_eq!(p, projection)),
                fatal,
                "{case}: FATAL"
            );
        }
        // Nothing parsed, yet a span stored.
        let mut empty = encode_snapshot(&[], 7);
        empty[tally + 8..tally + 16].copy_from_slice(&0i64.to_le_bytes());
        let want = SnapshotError::BadTally("a span stored for no records parsed".to_owned());
        assert_eq!(decode_snapshot(&empty, Some(7)).unwrap_err(), want);
        assert_eq!(decode_fatal(&empty, Some(7)).unwrap_err(), want);
    }

    /// A record set of up to 150 records (more than the 64 rows a FATAL
    /// section first has room for, so its columns move), of any location
    /// kind, code and severity — made all FATAL or none FATAL by `mode` 1
    /// and 2.
    fn arb_records() -> impl Strategy<Value = Vec<RasRecord>> {
        let all = records();
        let rows = collection::vec(
            (0u64..4, -3i64..3, 0..all.len(), 0usize..64, 0usize..6),
            0..150,
        );
        (rows, 0u8..3).prop_map(move |(rows, mode)| {
            rows.into_iter()
                .map(|(recid, t, loc, code, sev)| {
                    let mut r = all[loc];
                    r.recid = recid;
                    r.event_time = Timestamp::from_unix(1_236_000_000 + t);
                    r.errcode = ErrCode((code % Catalog::standard().len()) as u16);
                    r.severity = match (mode, Severity::ALL[sev]) {
                        (1, _) => Severity::Fatal,
                        (2, Severity::Fatal) => Severity::Info,
                        (_, s) => s,
                    };
                    r
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn codec_round_trips_and_rejects_per_section(
            recs in arb_records(),
            hash in 0u64..4,
            cut in 0usize..2000,
            row in 0usize..24,
            column in 0u8..2,
        ) {
            let bytes = encode_snapshot(&recs, hash);
            let projection = Projection::of(recs.clone(), RasRecord::is_fatal);
            prop_assert_eq!(decode_snapshot(&bytes, Some(hash)).unwrap(), recs.clone());
            prop_assert_eq!(decode_fatal(&bytes, Some(hash)).unwrap(), projection.clone());

            // Any truncation, wherever it falls, fails both on length.
            let cut = cut % bytes.len();
            let truncated = |e: Result<(), SnapshotError>| matches!(e, Err(SnapshotError::Truncated { .. }));
            prop_assert!(truncated(decode_snapshot(&bytes[..cut], Some(hash)).map(drop)));
            prop_assert!(truncated(decode_fatal(&bytes[..cut], Some(hash)).map(drop)));

            // A byte broken in one section fails that section's reader only:
            // a severity byte, or a location tag, of one row.
            let (f, n) = (projection.records.len(), recs.len());
            for (start, rows, is_fatal) in [(FRONT_LEN, f, true), (FRONT_LEN + f * BYTES_PER_RECORD, n, false)] {
                if rows == 0 {
                    continue;
                }
                let row = row % rows;
                let at = start + if column == 0 { rows * 22 + row } else { rows * 16 + row * 4 };
                let mut broken = bytes.clone();
                broken[at] = 0xff;
                let full = decode_snapshot(&broken, Some(hash));
                let fatal = decode_fatal(&broken, Some(hash));
                let rejected = |e: &SnapshotError| {
                    matches!(e, SnapshotError::BadRecord { index, .. } if *index == row as u64)
                };
                if is_fatal {
                    prop_assert!(fatal.is_err_and(|e| rejected(&e)));
                    prop_assert_eq!(full.unwrap(), recs.clone());
                } else {
                    prop_assert!(full.is_err_and(|e| rejected(&e)));
                    prop_assert_eq!(fatal.unwrap(), projection.clone());
                }
            }
        }

        #[test]
        fn random_bytes_never_panic(data in collection::vec(0u8..=255, 0..256)) {
            let _ = decode_snapshot(&data, Some(0));
            let _ = decode_fatal(&data, Some(0));
            let mut framed = encode_snapshot(&mixed(), 0);
            for (slot, b) in framed.iter_mut().skip(HEADER_LEN).zip(&data) {
                *slot = *b;
            }
            let _ = decode_snapshot(&framed, Some(0));
            let _ = decode_fatal(&framed, Some(0));
        }
    }
}
