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

use crate::catalog::{Catalog, ErrCode};
use crate::record::RasRecord;
use crate::severity::Severity;
use bgp_model::snapshot::{Cursor, SnapshotError, SnapshotHeader, SnapshotKind, HEADER_LEN};
use bgp_model::{topology, ComputeNodeId, Location, MidplaneId, NodeCardId, RackId, Timestamp};

/// On-disk format version. Bump whenever the record columns change shape —
/// the `snapshot-version` xtask lint ties this to [`LAYOUT_FINGERPRINT`].
pub const FORMAT_VERSION: u32 = 1;

/// Fingerprint of the [`RasRecord`] field list (`bgp_model::bytes::fnv1a_64`
/// over `name:type` pairs). `cargo xtask lint` recomputes this from
/// `record.rs`; if it disagrees, the record layout changed and both this
/// constant and [`FORMAT_VERSION`] must be updated together.
pub const LAYOUT_FINGERPRINT: u64 = 0x37f1_fcf3_b1a3_e2e7;

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
        Location::IoNode { midplane, index } => [4, mp(midplane), index, 0],
        Location::LinkCard { midplane, index } => [5, mp(midplane), index, 0],
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
        4 => {
            if c >= topology::IO_NODES_PER_MIDPLANE {
                return Err(model("I/O node index"));
            }
            Location::IoNode {
                midplane: mp()?,
                index: c,
            }
        }
        5 => {
            if c >= topology::LINK_CARDS_PER_MIDPLANE {
                return Err(model("link card index"));
            }
            Location::LinkCard {
                midplane: mp()?,
                index: c,
            }
        }
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
    let header = SnapshotHeader {
        kind: SnapshotKind::Ras,
        version: FORMAT_VERSION,
        count: records.len() as u64,
        source_hash,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + records.len() * BYTES_PER_RECORD);
    header.write_to(&mut out);
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
    let header = SnapshotHeader::parse(bytes, SnapshotKind::Ras)?;
    header.validate(FORMAT_VERSION, expected_hash)?;
    if header.count > bytes.len() as u64 {
        // Each record needs BYTES_PER_RECORD > 1 bytes, so this is already
        // truncated — and it makes the usize arithmetic below safe.
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN.saturating_add(usize::MAX),
            have: bytes.len(),
        });
    }
    let n = header.count as usize;
    let mut cur = Cursor::new(&bytes[HEADER_LEN..]);
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
        let recid = le_u64(c_recid, i);
        let event_time = Timestamp::from_unix(le_u64(c_time, i) as i64);
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
            recid,
            event_time,
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
        }
    }
}
