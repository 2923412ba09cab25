//! Golden bytes for the on-disk formats: the two `.bgpsnap` snapshot kinds
//! (RAS, whose one file holds the FATAL section and every record, and
//! jobs) and the `.bgpcas` cassette.
//!
//! Each snapshot encoder runs over a small fixed record set and must write,
//! byte for byte, the committed golden whose file name carries the codec's
//! live `FORMAT_VERSION` (`tests/fixtures/ras-v3.bgpsnap`, …). A change of
//! column order, width or encoding fails here even when no record field
//! was renamed. After such a change, bump that codec's `FORMAT_VERSION`
//! (stale snapshots on disk are then re-parsed, never misread), write the
//! new golden with `cargo test --test snapshot_golden -- --ignored
//! regen_goldens`, and delete the old one.

#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_model::{MidplaneId, Partition, Timestamp};
use bgp_coanalysis::bgp_ports::cassette::Cassette;
use bgp_coanalysis::joblog::{self, ExecId, ExitStatus, JobRecord, ProjectId, UserId};
use bgp_coanalysis::raslog::{self, Catalog, Projection, RasRecord};
use std::path::{Path, PathBuf};

/// Source-hash stamp of every golden: distinct bytes, so a swapped or
/// truncated header field shows.
const SOURCE_HASH: u64 = 0x1122_3344_5566_7788;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Twelve RAS records: every location variant, FATAL and non-FATAL codes,
/// and recids and times whose bytes all differ.
fn ras_records() -> Vec<RasRecord> {
    let catalog = Catalog::standard();
    let fatal: Vec<_> = catalog.fatal_codes().collect();
    let other: Vec<_> = catalog.codes().filter(|&c| !fatal.contains(&c)).collect();
    let locations = [
        "R00",
        "R01-M1",
        "R12-M0-N04",
        "R23-M1-N15-J31",
        "R34-M0-I7",
        "R45-M1-L3",
        "R46-M0-S",
        "R47-B",
        "R10-K",
    ];
    (0..12usize)
        .map(|i| {
            // Every third record is non-FATAL, so the FATAL section drops some.
            let code = if i % 3 == 2 {
                other[i * 5 % other.len()]
            } else {
                fatal[i * 11 % fatal.len()]
            };
            RasRecord::new(
                0x0102_0304_0506_0708 + i as u64,
                Timestamp::from_unix(1_230_000_000 + 3_607 * i as i64),
                locations[i % locations.len()].parse().unwrap(),
                code,
            )
        })
        .collect()
}

/// Three jobs, one per exit status, on partitions that reach the high
/// midplane bits.
fn jobs() -> Vec<JobRecord> {
    let mp = |i| MidplaneId::from_index(i).unwrap();
    let partitions = [
        Partition::single(mp(0)),
        Partition::contiguous(8, 4).unwrap(),
        Partition::from_midplanes([mp(3), mp(64), mp(79)]),
    ];
    let exits = [
        ExitStatus::Completed,
        ExitStatus::Failed(0x1234),
        ExitStatus::Cancelled,
    ];
    (0..3usize)
        .map(|i| {
            let n = i as u32;
            let t = 1_230_000_000 + 86_413 * i as i64;
            JobRecord {
                job_id: 0x0a0b_0c0d_0e0f_1011 + i as u64,
                exec: ExecId(0x0100_0000 + n),
                user: UserId(0x0200_0000 + n),
                project: ProjectId(0x0300_0000 + n),
                queue_time: Timestamp::from_unix(t),
                start_time: Timestamp::from_unix(t + 61),
                end_time: Timestamp::from_unix(t + 7_203),
                partition: partitions[i],
                exit: exits[i],
            }
        })
        .collect()
}

/// `(golden file name, bytes today's encoder writes)` per snapshot kind.
fn encoded() -> [(String, Vec<u8>); 2] {
    [
        (
            format!("ras-v{}.bgpsnap", raslog::snapshot::FORMAT_VERSION),
            raslog::snapshot::encode_snapshot(&ras_records(), SOURCE_HASH),
        ),
        (
            format!("jobs-v{}.bgpsnap", joblog::snapshot::FORMAT_VERSION),
            joblog::snapshot::encode_snapshot(&jobs(), SOURCE_HASH),
        ),
    ]
}

/// Offset of the first byte where `a` and `b` differ (or the shorter length).
fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

#[test]
fn snapshot_encoders_write_their_goldens() {
    for (name, bytes) in encoded() {
        let committed = std::fs::read(fixture(&name)).unwrap_or_else(|e| {
            panic!(
                "no golden tests/fixtures/{name} ({e}): a snapshot FORMAT_VERSION moved; \
                 write the new golden with `cargo test --test snapshot_golden -- \
                 --ignored regen_goldens` and delete the old one"
            )
        });
        assert!(
            committed == bytes,
            "{name}: the encoder no longer writes the committed bytes (first \
             difference at byte {} of {} committed, {} written). The on-disk \
             layout changed: bump the codec's FORMAT_VERSION so stale snapshots \
             are re-parsed, then add the new golden with `cargo test --test \
             snapshot_golden -- --ignored regen_goldens`",
            first_difference(&committed, &bytes),
            committed.len(),
            bytes.len()
        );
    }
}

#[test]
fn snapshot_goldens_decode_to_their_records() {
    let [(ras, _), (jobs_name, _)] = encoded();
    let read = |name: &str| std::fs::read(fixture(name)).unwrap();
    assert_eq!(
        raslog::snapshot::decode_snapshot(&read(&ras), Some(SOURCE_HASH)).unwrap(),
        ras_records()
    );
    let projection = raslog::snapshot::decode_fatal(&read(&ras), Some(SOURCE_HASH)).unwrap();
    assert_eq!(
        projection,
        Projection::of(ras_records(), RasRecord::is_fatal)
    );
    assert!(projection.into_log().len() < ras_records().len());
    assert_eq!(
        joblog::snapshot::decode_snapshot(&read(&jobs_name), Some(SOURCE_HASH)).unwrap(),
        jobs()
    );
}

#[test]
fn cassette_reencodes_to_the_committed_bytes() {
    let committed = std::fs::read(fixture("serve_smoke.bgpcas")).unwrap();
    let hint = "The cassette layout changed: bump cassette::FORMAT_VERSION, then \
                regenerate the fixtures with `cargo test --test serve_replay -- \
                --ignored regen_fixtures`";
    let cassette = Cassette::decode(&committed)
        .unwrap_or_else(|e| panic!("serve_smoke.bgpcas no longer decodes ({e}). {hint}"));
    let bytes = cassette.encode();
    assert!(
        bytes == committed,
        "serve_smoke.bgpcas: decode + encode changed the bytes (first difference \
         at byte {}). {hint}",
        first_difference(&committed, &bytes)
    );
}

#[test]
#[ignore = "rewrites the committed goldens; run only after a deliberate format change"]
fn regen_goldens() {
    for (name, bytes) in encoded() {
        std::fs::write(fixture(&name), bytes).expect("write golden");
    }
}
