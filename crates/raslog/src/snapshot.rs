//! Columnar `.bgpsnap` codec for parsed RAS logs.
//!
//! After the shared 32-byte header ([`bgp_model::snapshot`]), records are
//! stored as little-endian column arrays of length `count`, in this order:
//!
//! | column | width | encoding |
//! |---|---|---|
//! | `recid` | 8 | `u64` |
//! | `event_time` | 8 | unix seconds, `i64` |
//! | `location` | 4 | `[tag, a, b, c]` (see `encode_location`) |
//! | `errcode` | 2 | catalogue index, `u16` |
//! | `severity` | 1 | [`Severity`] discriminant |
//!
//! Decoding re-validates every record against the machine model and the
//! catalogue, so a corrupt payload yields a typed
//! [`SnapshotError::BadRecord`] instead of an impossible record entering
//! analysis.
//!
//! A second kind, the FATAL snapshot ([`encode_fatal_snapshot`]), stores
//! what the co-analysis load keeps of a log: a 24-byte tally of the whole
//! log (records parsed, earliest and latest event time) between the header
//! and the same five columns, holding only the FATAL records. It is about
//! 2 % of the full snapshot, and its decode validates its records the same
//! way.

use crate::catalog::{Catalog, ErrCode};
use crate::log::Projection;
use crate::record::RasRecord;
use crate::severity::Severity;
use bgp_model::snapshot::{Cursor, SnapshotError, SnapshotHeader, SnapshotKind, HEADER_LEN};
use bgp_model::{
    ComputeNodeId, IoNodeId, LinkCardId, Location, MidplaneId, NodeCardId, RackId, Timestamp,
};

/// On-disk format version. Bump whenever the record columns change shape —
/// the golden-bytes test (`tests/snapshot_golden.rs`) fails until you do.
///
/// Version 2: the source-hash stamp is the block-structured
/// [`bgp_model::bytes::content_hash_64`], so version-1 stamps mean
/// something else.
pub const FORMAT_VERSION: u32 = 2;

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

/// Serialize parsed records (plus the hash of the source text they came
/// from) into a complete `.bgpsnap` byte buffer.
pub fn encode_snapshot(records: &[RasRecord], source_hash: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + records.len() * BYTES_PER_RECORD);
    header(SnapshotKind::Ras, records, source_hash).write_to(&mut out);
    encode_columns(records, &mut out);
    out
}

/// Decode a `.bgpsnap` buffer back into records.
///
/// `expected_hash`, when given, is the content hash of the *current* source
/// text; a snapshot written from different text is rejected with
/// [`SnapshotError::HashMismatch`]. Every error is recoverable by re-parsing
/// the source.
pub fn decode_snapshot(
    bytes: &[u8],
    expected_hash: Option<u64>,
) -> Result<Vec<RasRecord>, SnapshotError> {
    let n = open(bytes, SnapshotKind::Ras, expected_hash)?;
    decode_columns(Cursor::new(&bytes[HEADER_LEN..]), n)
}

/// Bytes of the tally a FATAL snapshot stores after its header: records
/// parsed, then the earliest and latest event time.
const TALLY_LEN: usize = 8 + 8 + 8;

/// Serialize the FATAL projection of a parsed RAS log (plus the hash of the
/// source text it came from) into a complete FATAL snapshot: the header
/// (kind [`SnapshotKind::RasFatal`], `count` = FATAL records), the tally of
/// the whole log — records parsed, earliest and latest event time (`i64`
/// unix seconds; `i64::MAX`, `i64::MIN` when nothing was parsed) — and the
/// five record columns of the FATAL records, in log order.
///
/// `kept` must hold only FATAL records (what `Projection::of(_,
/// RasRecord::is_fatal)` keeps); [`decode_fatal_snapshot`] rejects anything
/// else.
pub fn encode_fatal_snapshot(kept: &Projection, source_hash: u64) -> Vec<u8> {
    let records = &kept.records;
    let mut out = Vec::with_capacity(HEADER_LEN + TALLY_LEN + records.len() * BYTES_PER_RECORD);
    header(SnapshotKind::RasFatal, records, source_hash).write_to(&mut out);
    let (earliest, latest) = kept.span().map_or((i64::MAX, i64::MIN), |(lo, hi)| {
        (lo.as_unix(), hi.as_unix())
    });
    out.extend_from_slice(&(kept.parsed() as u64).to_le_bytes());
    out.extend_from_slice(&earliest.to_le_bytes());
    out.extend_from_slice(&latest.to_le_bytes());
    encode_columns(records, &mut out);
    out
}

/// Decode a FATAL snapshot back into the projection it was written from.
///
/// Every stored record is validated exactly as [`decode_snapshot`] does,
/// and the projection's own invariants too: every record is FATAL, the
/// FATAL count is at most the records parsed, a span is stored exactly
/// when some record was parsed, and it covers every stored record.
/// `expected_hash` works as for [`decode_snapshot`].
pub fn decode_fatal_snapshot(
    bytes: &[u8],
    expected_hash: Option<u64>,
) -> Result<Projection, SnapshotError> {
    let n = open(bytes, SnapshotKind::RasFatal, expected_hash)?;
    let mut cur = Cursor::new(&bytes[HEADER_LEN..]);
    let parsed = cur.u64()?;
    let earliest = cur.u64()? as i64;
    let latest = cur.u64()? as i64;
    let records = decode_columns(cur, n)?;
    let bad_tally = |what: String| Err(SnapshotError::BadTally(what));
    if n as u64 > parsed {
        return bad_tally(format!("{n} FATAL records but {parsed} parsed"));
    }
    let span = match (parsed, earliest, latest) {
        (0, i64::MAX, i64::MIN) => None,
        (0, _, _) => return bad_tally("a span stored for no records parsed".to_owned()),
        (_, i64::MAX, i64::MIN) => return bad_tally(format!("no span for {parsed} records")),
        (_, lo, hi) if lo > hi => return bad_tally(format!("span {lo}..{hi} is inverted")),
        (_, lo, hi) => Some((Timestamp::from_unix(lo), Timestamp::from_unix(hi))),
    };
    for (i, r) in records.iter().enumerate() {
        let bad = |what: String| SnapshotError::BadRecord {
            index: i as u64,
            what,
        };
        if !r.is_fatal() {
            return Err(bad(format!("severity {} in a FATAL snapshot", r.severity)));
        }
        if !span.is_some_and(|(lo, hi)| (lo..=hi).contains(&r.event_time)) {
            return Err(bad(format!(
                "event time {} outside the stored span",
                r.event_time.as_unix()
            )));
        }
    }
    let parsed = usize::try_from(parsed)
        .map_err(|_| SnapshotError::BadTally(format!("{parsed} records parsed")))?;
    Ok(Projection::from_parts(records, parsed, span))
}

/// The header of a snapshot of `kind` holding `records`.
fn header(kind: SnapshotKind, records: &[RasRecord], source_hash: u64) -> SnapshotHeader {
    SnapshotHeader {
        kind,
        version: FORMAT_VERSION,
        count: records.len() as u64,
        source_hash,
    }
}

/// Append the five record columns of `records` to `out`.
fn encode_columns(records: &[RasRecord], out: &mut Vec<u8>) {
    for r in records {
        out.extend_from_slice(&r.recid.to_le_bytes());
    }
    for r in records {
        out.extend_from_slice(&r.event_time.as_unix().to_le_bytes());
    }
    for r in records {
        out.extend_from_slice(&encode_location(r.location));
    }
    for r in records {
        out.extend_from_slice(&r.errcode.0.to_le_bytes());
    }
    for r in records {
        out.push(r.severity as u8);
    }
}

/// Check a snapshot's header against `kind`, this build's version and
/// (optionally) the current source hash, returning its record count.
fn open(
    bytes: &[u8],
    kind: SnapshotKind,
    expected_hash: Option<u64>,
) -> Result<usize, SnapshotError> {
    let header = SnapshotHeader::parse(bytes, kind)?;
    header.validate(FORMAT_VERSION, expected_hash)?;
    if header.count > bytes.len() as u64 {
        // Each record needs BYTES_PER_RECORD > 1 bytes, so this is already
        // truncated — and it makes the usize arithmetic below safe.
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN.saturating_add(usize::MAX),
            have: bytes.len(),
        });
    }
    Ok(header.count as usize)
}

/// Decode and validate the `n` records' columns that end `cur`'s buffer.
/// The layout (truncation, trailing bytes) is checked before any record.
fn decode_columns(mut cur: Cursor<'_>, n: usize) -> Result<Vec<RasRecord>, SnapshotError> {
    let c_recid = cur.take(n * 8)?;
    let c_time = cur.take(n * 8)?;
    let c_loc = cur.take(n * 4)?;
    let c_code = cur.take(n * 2)?;
    let c_sev = cur.take(n)?;
    cur.finish()?;

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

    #[test]
    fn round_trip_every_location_kind() {
        let recs = records();
        let bytes = encode_snapshot(&recs, 7);
        assert_eq!(bytes.len(), HEADER_LEN + recs.len() * BYTES_PER_RECORD);
        let back = decode_snapshot(&bytes, Some(7)).unwrap();
        assert_eq!(back, recs);
        // Hash validation is optional for tools that only read.
        assert_eq!(decode_snapshot(&bytes, None).unwrap(), recs);
        // Empty logs snapshot too.
        let empty = encode_snapshot(&[], 1);
        assert_eq!(decode_snapshot(&empty, Some(1)).unwrap(), vec![]);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let recs = records();
        let bytes = encode_snapshot(&recs, 7);
        // Version bump.
        let mut v = bytes.clone();
        v[12] ^= 0xff;
        assert!(matches!(
            decode_snapshot(&v, Some(7)),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        // Truncated payload.
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 3], Some(7)),
            Err(SnapshotError::Truncated { .. })
        ));
        // Hash mismatch.
        assert!(matches!(
            decode_snapshot(&bytes, Some(8)),
            Err(SnapshotError::HashMismatch { .. })
        ));
        // Trailing bytes.
        let mut t = bytes.clone();
        t.push(0);
        assert!(matches!(
            decode_snapshot(&t, Some(7)),
            Err(SnapshotError::TrailingBytes(1))
        ));
        // Corrupt location tag in the first record.
        let mut c = bytes.clone();
        c[HEADER_LEN + recs.len() * 16] = 99;
        assert!(matches!(
            decode_snapshot(&c, Some(7)),
            Err(SnapshotError::BadRecord { index: 0, .. })
        ));
        // Absurd count field.
        let mut n = bytes;
        n[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&n, Some(7)),
            Err(SnapshotError::Truncated { .. })
        ));
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

    #[test]
    fn fatal_snapshot_round_trips_the_projection() {
        let recs = mixed();
        let kept = Projection::of(recs.clone(), RasRecord::is_fatal);
        assert_eq!(kept.records.len(), 4);
        let bytes = encode_fatal_snapshot(&kept, 7);
        assert_eq!(
            bytes.len(),
            HEADER_LEN + TALLY_LEN + kept.records.len() * BYTES_PER_RECORD
        );
        assert_eq!(decode_fatal_snapshot(&bytes, Some(7)).unwrap(), kept);
        assert_eq!(decode_fatal_snapshot(&bytes, None).unwrap(), kept);
        // No FATAL record, and nothing parsed at all.
        let none = Projection::of(records()[..5].to_vec(), RasRecord::is_fatal);
        assert!(none.records.is_empty() && none.parsed() == 5);
        let empty = Projection::default();
        for p in [none, empty] {
            let bytes = encode_fatal_snapshot(&p, 1);
            assert_eq!(decode_fatal_snapshot(&bytes, Some(1)).unwrap(), p);
        }
        // The two kinds never stand in for each other.
        let full = encode_snapshot(&recs, 7);
        assert!(matches!(
            decode_fatal_snapshot(&full, Some(7)),
            Err(SnapshotError::WrongKind { found: 1, .. })
        ));
        assert!(matches!(
            decode_snapshot(&bytes, Some(7)),
            Err(SnapshotError::WrongKind { found: 3, .. })
        ));
    }

    #[test]
    fn fatal_snapshot_rejections_are_typed() {
        let kept = Projection::of(mixed(), RasRecord::is_fatal);
        let n = kept.records.len();
        let good = encode_fatal_snapshot(&kept, 7);
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            decode_fatal_snapshot(&bytes, Some(7))
                .unwrap_err()
                .to_string()
        };
        let tally = HEADER_LEN;
        let cols = HEADER_LEN + TALLY_LEN;
        let cases = [
            (
                patched(12, &1u32.to_le_bytes()),
                "format version 1 (this build reads 2)".to_owned(),
            ),
            (
                decode_fatal_snapshot(&good, Some(8))
                    .unwrap_err()
                    .to_string(),
                "source hash 0x0000000000000007 does not match current source \
                 0x0000000000000008"
                    .to_owned(),
            ),
            (
                patched(tally, &3u64.to_le_bytes()),
                "tally corrupt: 4 FATAL records but 3 parsed".to_owned(),
            ),
            (
                patched(tally + 8, &i64::MAX.to_le_bytes()),
                format!(
                    "tally corrupt: span {}..{} is inverted",
                    i64::MAX,
                    1_236_000_008
                ),
            ),
            (
                patched(
                    tally + 8,
                    &[i64::MAX.to_le_bytes(), i64::MIN.to_le_bytes()].concat(),
                ),
                "tally corrupt: no span for 9 records".to_owned(),
            ),
            (
                patched(tally + 16, &1_236_000_006i64.to_le_bytes()),
                "record 3 corrupt: event time 1236000007 outside the stored span".to_owned(),
            ),
            (
                patched(cols + n * 22 + 1, &[Severity::Warning as u8]),
                "record 1 corrupt: severity WARNING in a FATAL snapshot".to_owned(),
            ),
            (
                patched(cols + n * 20, &u16::MAX.to_le_bytes()),
                "record 0 corrupt: errcode 65535 outside catalogue".to_owned(),
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
        // Nothing parsed, yet a span stored.
        let mut empty = encode_fatal_snapshot(&Projection::default(), 7);
        empty[tally + 8..tally + 16].copy_from_slice(&0i64.to_le_bytes());
        assert_eq!(
            decode_fatal_snapshot(&empty, Some(7)).unwrap_err(),
            SnapshotError::BadTally("a span stored for no records parsed".to_owned())
        );
        // Layout errors outrank record errors, as in the full decoder.
        let mut both = good.clone();
        both[cols + n * 20] = 0xff;
        both[cols + n * 20 + 1] = 0xff;
        both.push(0);
        assert_eq!(
            decode_fatal_snapshot(&both, Some(7)),
            Err(SnapshotError::TrailingBytes(1))
        );
        assert!(matches!(
            decode_fatal_snapshot(&good[..good.len() - 1], Some(7)),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            decode_fatal_snapshot(&good[..HEADER_LEN + 4], Some(7)),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(data in collection::vec(0u8..=255, 0..256)) {
            let _ = decode_snapshot(&data, Some(0));
            let mut framed = encode_snapshot(&records(), 0);
            for (i, b) in data.iter().enumerate() {
                if let Some(slot) = framed.get_mut(HEADER_LEN + i) {
                    *slot = *b;
                }
            }
            let _ = decode_snapshot(&framed, Some(0));
            let mut fatal =
                encode_fatal_snapshot(&Projection::of(records(), RasRecord::is_fatal), 0);
            for (i, b) in data.iter().enumerate() {
                if let Some(slot) = fatal.get_mut(HEADER_LEN + i) {
                    *slot = *b;
                }
            }
            let _ = decode_fatal_snapshot(&fatal, Some(0));
        }
    }
}
