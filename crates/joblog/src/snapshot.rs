//! Columnar `.bgpsnap` codec for parsed job logs.
//!
//! After the shared 32-byte header ([`bgp_model::snapshot`]), records are
//! stored as little-endian column arrays of length `count`, in this order:
//!
//! | column | width | encoding |
//! |---|---|---|
//! | `job_id` | 8 | `u64` |
//! | `exec` | 4 | `u32` |
//! | `user` | 4 | `u32` |
//! | `project` | 4 | `u32` |
//! | `queue_time` | 8 | unix seconds, `i64` |
//! | `start_time` | 8 | unix seconds, `i64` |
//! | `end_time` | 8 | unix seconds, `i64` |
//! | `partition` | 16 | midplane bitmask, `u128` |
//! | `exit` | 4 | `[tag, code_lo, code_hi, 0]` (0 = completed, 1 = failed, 2 = cancelled) |
//!
//! Decoding re-validates everything the parser validates — partition mask
//! against the machine, time monotonicity, exit tag — so a corrupt payload
//! yields a typed [`SnapshotError::BadRecord`] instead of an impossible
//! record entering analysis.

use crate::record::{ExecId, ExitStatus, JobRecord, ProjectId, UserId};
use bgp_model::snapshot::{Cursor, SnapshotError, SnapshotHeader, SnapshotKind, HEADER_LEN};
use bgp_model::{Partition, Timestamp};

/// On-disk format version. Bump whenever the record columns change shape —
/// the golden-bytes test (`tests/snapshot_golden.rs`) fails until you do.
///
/// Version 2: the source-hash stamp is the block-structured
/// [`bgp_model::bytes::content_hash_64`], so version-1 stamps mean
/// something else.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes per record across all columns.
const BYTES_PER_RECORD: usize = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 16 + 4;

fn encode_exit(exit: ExitStatus) -> [u8; 4] {
    match exit {
        ExitStatus::Completed => [0, 0, 0, 0],
        ExitStatus::Failed(code) => {
            let [lo, hi] = code.to_le_bytes();
            [1, lo, hi, 0]
        }
        ExitStatus::Cancelled => [2, 0, 0, 0],
    }
}

fn decode_exit(b: [u8; 4], index: u64) -> Result<ExitStatus, SnapshotError> {
    let bad = |what: String| SnapshotError::BadRecord { index, what };
    let [tag, lo, hi, pad] = b;
    if pad != 0 {
        return Err(bad(format!("exit: nonzero pad byte {pad}")));
    }
    match (tag, u16::from_le_bytes([lo, hi])) {
        (0, 0) => Ok(ExitStatus::Completed),
        (1, code) => Ok(ExitStatus::Failed(code)),
        (2, 0) => Ok(ExitStatus::Cancelled),
        (tag, code) => Err(bad(format!("exit: tag {tag} code {code}"))),
    }
}

/// Serialize parsed jobs (plus the hash of the source text they came from)
/// into a complete `.bgpsnap` byte buffer.
pub fn encode_snapshot(jobs: &[JobRecord], source_hash: u64) -> Vec<u8> {
    let header = SnapshotHeader {
        kind: SnapshotKind::Job,
        version: FORMAT_VERSION,
        count: jobs.len() as u64,
        source_hash,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + jobs.len() * BYTES_PER_RECORD);
    header.write_to(&mut out);
    for j in jobs {
        out.extend_from_slice(&j.job_id.to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.exec.0.to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.user.0.to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.project.0.to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.queue_time.as_unix().to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.start_time.as_unix().to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.end_time.as_unix().to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&j.partition.mask().to_le_bytes());
    }
    for j in jobs {
        out.extend_from_slice(&encode_exit(j.exit));
    }
    out
}

/// Decode a `.bgpsnap` buffer back into job records.
///
/// `expected_hash`, when given, is the content hash of the *current* source
/// text; a snapshot written from different text is rejected with
/// [`SnapshotError::HashMismatch`]. Every error is recoverable by re-parsing
/// the source.
pub fn decode_snapshot(
    bytes: &[u8],
    expected_hash: Option<u64>,
) -> Result<Vec<JobRecord>, SnapshotError> {
    let header = SnapshotHeader::parse(bytes, SnapshotKind::Job)?;
    header.validate(FORMAT_VERSION, expected_hash)?;
    // The length the header implies, saturated: a count too large for the
    // file reports it, and it bounds the column offsets below.
    let needed = header
        .count
        .saturating_mul(BYTES_PER_RECORD as u64)
        .saturating_add(HEADER_LEN as u64);
    if needed > bytes.len() as u64 {
        return Err(SnapshotError::Truncated {
            needed: usize::try_from(needed).unwrap_or(usize::MAX),
            have: bytes.len(),
        });
    }
    let n = header.count as usize;
    let mut cur = Cursor::new(&bytes[HEADER_LEN..]);
    let c_job_id = cur.take(n * 8)?;
    let c_exec = cur.take(n * 4)?;
    let c_user = cur.take(n * 4)?;
    let c_project = cur.take(n * 4)?;
    let c_queue = cur.take(n * 8)?;
    let c_start = cur.take(n * 8)?;
    let c_end = cur.take(n * 8)?;
    let c_part = cur.take(n * 16)?;
    let c_exit = cur.take(n * 4)?;
    cur.finish()?;

    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i as u64;
        let bad = |what: String| SnapshotError::BadRecord { index: idx, what };
        let queue_time = Timestamp::from_unix(le_u64(c_queue, i) as i64);
        let start_time = Timestamp::from_unix(le_u64(c_start, i) as i64);
        let end_time = Timestamp::from_unix(le_u64(c_end, i) as i64);
        if end_time < start_time || start_time < queue_time {
            return Err(bad("non-monotone times".to_owned()));
        }
        let mut mask = [0u8; 16];
        mask.copy_from_slice(&c_part[i * 16..i * 16 + 16]);
        let partition = Partition::from_mask(u128::from_le_bytes(mask))
            .map_err(|e| bad(format!("partition: {e}")))?;
        if partition.is_empty() {
            return Err(bad("empty partition".to_owned()));
        }
        let mut exit = [0u8; 4];
        exit.copy_from_slice(&c_exit[i * 4..i * 4 + 4]);
        jobs.push(JobRecord {
            job_id: le_u64(c_job_id, i),
            exec: ExecId(le_u32(c_exec, i)),
            user: UserId(le_u32(c_user, i)),
            project: ProjectId(le_u32(c_project, i)),
            queue_time,
            start_time,
            end_time,
            partition,
            exit: decode_exit(exit, idx)?,
        });
    }
    Ok(jobs)
}

fn le_u64(col: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&col[i * 8..i * 8 + 8]);
    u64::from_le_bytes(b)
}

fn le_u32(col: &[u8], i: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&col[i * 4..i * 4 + 4]);
    u32::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn jobs() -> Vec<JobRecord> {
        (0..9u64)
            .map(|n| JobRecord {
                job_id: n * 17,
                exec: ExecId(n as u32),
                user: UserId((n % 4) as u32),
                project: ProjectId((n % 2) as u32),
                queue_time: Timestamp::from_unix(1000 + n as i64),
                start_time: Timestamp::from_unix(2000 + n as i64),
                end_time: Timestamp::from_unix(3000 + n as i64),
                partition: Partition::contiguous((n % 70) as u8, 1 + (n % 4) as u32).unwrap(),
                exit: match n % 3 {
                    0 => ExitStatus::Completed,
                    1 => ExitStatus::Failed(n as u16),
                    _ => ExitStatus::Cancelled,
                },
            })
            .collect()
    }

    #[test]
    fn round_trip_field_for_field() {
        let js = jobs();
        let bytes = encode_snapshot(&js, 11);
        assert_eq!(bytes.len(), HEADER_LEN + js.len() * BYTES_PER_RECORD);
        let back = decode_snapshot(&bytes, Some(11)).unwrap();
        assert_eq!(back, js);
        assert_eq!(decode_snapshot(&bytes, None).unwrap(), js);
        let empty = encode_snapshot(&[], 1);
        assert_eq!(decode_snapshot(&empty, Some(1)).unwrap(), vec![]);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let js = jobs();
        let bytes = encode_snapshot(&js, 11);
        // A RAS-kind snapshot is rejected by kind, not misread.
        let mut k = bytes.clone();
        k[8] = 1;
        assert!(matches!(
            decode_snapshot(&k, Some(11)),
            Err(SnapshotError::WrongKind { found: 1, .. })
        ));
        // Version bump.
        let mut v = bytes.clone();
        v[12] ^= 0xff;
        assert!(matches!(
            decode_snapshot(&v, Some(11)),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        // Lengths, counted from the file's start: 32 + 9 * 64 = 608 bytes.
        let count = |c: u64| [&bytes[..16], &c.to_le_bytes(), &bytes[24..]].concat();
        let rejects = |damaged: &[u8], want: &str| {
            let got = decode_snapshot(damaged, Some(11)).map_err(|e| e.to_string());
            assert_eq!(got, Err(want.to_owned()));
        };
        rejects(&bytes[..607], "truncated: need 608 bytes, have 607");
        rejects(&bytes[..20], "truncated: need 32 bytes, have 20");
        rejects(&count(1000), "truncated: need 64032 bytes, have 608");
        let absurd = format!("truncated: need {} bytes, have 608", usize::MAX);
        rejects(&count(u64::MAX), &absurd);
        rejects(&count(8), "64 trailing bytes after records");
        rejects(
            &[bytes.as_slice(), &[0]].concat(),
            "1 trailing bytes after records",
        );
        assert!(matches!(
            decode_snapshot(&bytes, Some(12)),
            Err(SnapshotError::HashMismatch { .. })
        ));
        // Partition mask with a bit beyond the machine.
        let mut p = bytes.clone();
        let part_col = HEADER_LEN + js.len() * (8 + 4 + 4 + 4 + 8 + 8 + 8);
        p[part_col + 15] = 0xff; // top bits of the first record's mask
        assert!(matches!(
            decode_snapshot(&p, Some(11)),
            Err(SnapshotError::BadRecord { index: 0, .. })
        ));
        // Bad exit tag.
        let mut x = bytes;
        let exit_col = part_col + js.len() * 16;
        x[exit_col] = 7;
        assert!(matches!(
            decode_snapshot(&x, Some(11)),
            Err(SnapshotError::BadRecord { index: 0, .. })
        ));
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic(data in collection::vec(0u8..=255, 0..256)) {
            let _ = decode_snapshot(&data, Some(0));
            let mut framed = encode_snapshot(&jobs(), 0);
            for (i, b) in data.iter().enumerate() {
                if let Some(slot) = framed.get_mut(HEADER_LEN + i) {
                    *slot = *b;
                }
            }
            let _ = decode_snapshot(&framed, Some(0));
        }
    }
}
